//! Differential update testing (DESIGN.md §11).
//!
//! The update subsystem's contract is *equivalence with a from-scratch
//! rebuild*: after **any** history of inserts, removes and compactions,
//! query results and integrity reports must be exactly what an index built
//! directly over the surviving documents produces — across all four
//! sequencing strategies and 1–4 ingest threads.
//!
//! Two levels:
//!
//! * **Index level** (`updates_match_from_scratch_rebuild`): random
//!   synthetic corpora, a random split into base build + delta inserts, a
//!   random tombstone set; every document then runs as a whole-document
//!   containment query against both the live (frozen ∪ delta − tombstones)
//!   index and a from-scratch rebuild over the survivors.  Strategies are
//!   re-derived per side (the probability estimator sees different corpora)
//!   — result equality is exactly the paper's claim that answers are
//!   strategy-independent.
//! * **Database level** (`update_histories_compact_to_rebuild`): random
//!   interleavings of `insert_document` / `remove_document` / `compact`
//!   over XML strings, ending in a final compaction; the result must be
//!   **bit-identical** (trie arenas, labels, links, interner sizes) to
//!   `DatabaseBuilder::build_from_xml` over the surviving strings.
//!
//! The CI update-fuzz smoke job shrinks the case budget through
//! `XSEQ_UPDATE_FUZZ_CASES`; locally the defaults below run.

use proptest::prelude::*;
use xseq::datagen::{SyntheticDataset, SyntheticParams};
use xseq::index::QuerySequence;
use xseq::schema::{ProbabilityModel, WeightMap};
use xseq::sequence::Strategy;
use xseq::xml::matcher::structure_match;
use xseq::xml::{parse_document, write_document, Designator, PathId, Symbol, ValueId};
use xseq::{
    parse_xpath_readonly, Corpus, Database, DatabaseBuilder, DocId, Document, PathTable,
    PlanOptions, Sequencing, SymbolTable, ValueMode, XmlIndex,
};

/// Case budget, shrinkable by the CI smoke job via `XSEQ_UPDATE_FUZZ_CASES`.
fn fuzz_cases(default: u32) -> u32 {
    std::env::var("XSEQ_UPDATE_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The four sequencing strategies, each derived against the corpus and
/// path table it will index (probability priorities hold table-specific
/// path ids and corpus-specific estimates).
fn strategy(kind: usize, docs: &[Document], paths: &mut PathTable) -> Strategy {
    match kind {
        0 => Strategy::DepthFirst,
        1 => Strategy::BreadthFirst,
        2 => Strategy::Random { seed: 0x5eed },
        _ => {
            let model = ProbabilityModel::estimate(docs, paths, 0);
            Strategy::Probability(model.priorities(paths, &WeightMap::default()))
        }
    }
}

/// Runs `qdoc` as a whole-document containment query against `index`.
fn containment_query(index: &XmlIndex, qdoc: &Document, paths: &PathTable) -> Vec<DocId> {
    match QuerySequence::from_document_readonly(qdoc, paths, index.strategy()) {
        Some(qs) => index.query_sequence(&qs).0,
        // A query path absent from the table is provably empty.
        None => Vec::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases(6)))]

    /// Index level: *frozen ∪ delta − tombstones* answers and verifies
    /// exactly like a from-scratch rebuild over the survivors, for all four
    /// strategies.
    #[test]
    fn updates_match_from_scratch_rebuild(
        seed in 0u64..1_000,
        nbase in 1usize..10,
        nextra in 1usize..6,
        max_fanout in 1u16..4,
        remove_bits in any::<u64>(),
    ) {
        let params = SyntheticParams {
            max_height: 4,
            max_fanout,
            value_pct: 25,
            identical_pct: 0,
            prob_floor_pct: 30,
        };
        let mut symbols = SymbolTable::with_value_mode(ValueMode::Intern);
        let total = nbase + nextra;
        let docs = SyntheticDataset::generate(&params, total, seed, &mut symbols).docs;
        let removed: Vec<bool> = (0..total).map(|i| (remove_bits >> (i % 64)) & 1 == 1).collect();
        for kind in 0..4 {
            // Live: base build, then delta inserts, then tombstones.
            let mut paths = PathTable::new();
            let strat = strategy(kind, &docs[..nbase], &mut paths);
            let mut live = XmlIndex::build(&docs[..nbase], &mut paths, strat, PlanOptions::default());
            for (i, d) in docs[nbase..].iter().enumerate() {
                live.insert_delta(d, (nbase + i) as DocId, &mut paths);
            }
            let mut rank: Vec<Option<DocId>> = vec![None; total];
            let mut surv_docs: Vec<Document> = Vec::new();
            for (id, doc) in docs.iter().enumerate() {
                if removed[id] {
                    live.remove_doc(id as DocId);
                } else {
                    rank[id] = Some(surv_docs.len() as DocId);
                    surv_docs.push(doc.clone());
                }
            }
            // Reference: from-scratch build over the survivors, with the
            // strategy re-derived over *them* (what a rebuild would do).
            let mut ref_paths = PathTable::new();
            let ref_strat = strategy(kind, &surv_docs, &mut ref_paths);
            let reference = XmlIndex::build(
                &surv_docs,
                &mut ref_paths,
                ref_strat,
                PlanOptions::default(),
            );
            // Every document — surviving, removed, delta-inserted — as a
            // containment query: answers must agree modulo id renumbering.
            for (qid, qdoc) in docs.iter().enumerate() {
                let live_hits = containment_query(&live, qdoc, &paths);
                let mapped: Vec<DocId> = live_hits
                    .iter()
                    .map(|d| {
                        rank[*d as usize]
                            .unwrap_or_else(|| panic!("live query returned tombstoned doc {d}"))
                    })
                    .collect();
                let ref_hits = containment_query(&reference, qdoc, &ref_paths);
                prop_assert_eq!(
                    mapped, ref_hits,
                    "strategy {} / query doc {}", kind, qid
                );
            }
            let live_report = live.verify_integrity(&paths);
            prop_assert!(live_report.is_clean(), "live: {}", live_report.render());
            let ref_report = reference.verify_integrity(&ref_paths);
            prop_assert!(ref_report.is_clean(), "reference: {}", ref_report.render());
        }
    }
}

/// Tiny deterministic generator for the database-level op stream.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases(8)))]

    /// Database level: any insert/remove/compact interleaving, once
    /// compacted, is bit-identical to `build_from_xml` over the surviving
    /// XML strings — the trie, and the name, value and path dictionaries
    /// id for id — for both database sequencing modes, every value mode,
    /// at 1–4 threads, on documents with identical siblings.
    #[test]
    fn update_histories_compact_to_rebuild(
        seed in 0u64..1_000,
        ninitial in 1usize..6,
        npending in 1usize..8,
        nops in 1usize..16,
        threads in 1usize..=4,
    ) {
        let params = SyntheticParams {
            max_height: 4,
            max_fanout: 3,
            value_pct: 25,
            identical_pct: 30,
            prob_floor_pct: 30,
        };
        let mut symbols = SymbolTable::with_value_mode(ValueMode::Intern);
        let docs = SyntheticDataset::generate(&params, ninitial + npending, seed, &mut symbols).docs;
        let xmls: Vec<String> = docs.iter().map(|d| write_document(d, &symbols)).collect();
        let modes = [ValueMode::Intern, ValueMode::Hashed { range: 16 }, ValueMode::Chars];
        for (sequencing, mode) in [Sequencing::DepthFirst, Sequencing::Probability]
            .into_iter()
            .flat_map(|s| modes.map(|m| (s, m)))
        {
            // shards(1): the dictionaries are compared through db.corpus(),
            // shard 0's — sharded histories live in integration_sharding.rs.
            let mut db = DatabaseBuilder::new()
                .sequencing(sequencing)
                .value_mode(mode)
                .threads(threads)
                .shards(1)
                .build_from_xml(xmls[..ninitial].iter().map(String::as_str))
                .unwrap();
            // Model: current id order → (xml, alive).
            let mut model: Vec<(&str, bool)> =
                xmls[..ninitial].iter().map(|x| (x.as_str(), true)).collect();
            let mut pending = xmls[ninitial..].iter().map(String::as_str);
            let mut rng = seed ^ 0x9e3779b97f4a7c15;
            for _ in 0..nops {
                match lcg(&mut rng) % 10 {
                    0..=4 => {
                        if let Some(xml) = pending.next() {
                            let id = db.insert_document(xml).unwrap();
                            prop_assert_eq!(id as usize, model.len(), "ids stay dense");
                            model.push((xml, true));
                        }
                    }
                    5..=7 => {
                        let alive = model.iter().filter(|(_, a)| *a).count();
                        if alive > 1 {
                            let id = (lcg(&mut rng) as usize) % model.len();
                            let did = db.remove_document(id as DocId);
                            prop_assert_eq!(did, model[id].1, "remove reports liveness");
                            model[id].1 = false;
                        }
                    }
                    _ => {
                        db.compact();
                        model.retain(|(_, a)| *a);
                    }
                }
            }
            db.compact();
            model.retain(|(_, a)| *a);
            let survivors: Vec<&str> = model.iter().map(|(x, _)| *x).collect();
            let reference = DatabaseBuilder::new()
                .sequencing(sequencing)
                .value_mode(mode)
                .build_from_xml(survivors.iter().copied())
                .unwrap();
            prop_assert!(
                db.index().trie().identical_to(reference.index().trie()),
                "{sequencing:?} {mode:?}: compacted trie diverges from rebuild"
            );
            prop_assert_eq!(db.index().data_paths(), reference.index().data_paths());
            prop_assert_eq!(
                dictionaries(db.corpus()),
                dictionaries(reference.corpus()),
                "{:?} {:?}: dictionaries diverge from rebuild", sequencing, mode
            );
            for q in ["/e0", "//e1", "//e2", "/e0/e1", "/e0/e2", "//e4"] {
                prop_assert_eq!(
                    db.query_xpath(q).unwrap(),
                    reference.query_xpath(q).unwrap(),
                    "{:?} {:?}: {}", sequencing, mode, q
                );
            }
            let report = db.verify_integrity();
            prop_assert!(report.is_clean(), "{sequencing:?} {mode:?}: {}", report.render());
        }
    }
}

/// What `db.document(g)` must return for every global id `g`: document `g`'s
/// XML parsed against a shadow of its shard's symbol table (`None` once
/// removed).  The shadow of shard `s` is a parse, in id order, of the
/// documents routed to it since its last build or compaction, so it mints
/// the ids the shard's own table holds.
struct Shadow<'a> {
    mode: ValueMode,
    tables: Vec<SymbolTable>,
    xml: Vec<&'a str>,
    docs: Vec<Option<Document>>,
}

impl<'a> Shadow<'a> {
    /// The shadow of a fresh `shards`-shard build over `xml`.
    fn build(xml: &[&'a str], shards: usize, mode: ValueMode) -> Self {
        let mut shadow = Shadow {
            mode,
            tables: (0..shards)
                .map(|_| SymbolTable::with_value_mode(mode))
                .collect(),
            xml: Vec::new(),
            docs: Vec::new(),
        };
        xml.iter().for_each(|x| shadow.insert(x));
        shadow
    }

    fn insert(&mut self, xml: &'a str) {
        let shard = self.docs.len() % self.tables.len();
        let table = &mut self.tables[shard];
        let doc = parse_document(xml, table).expect("generated XML parses");
        self.docs.push(Some(doc));
        self.xml.push(xml);
    }

    /// A compaction: the survivors' fresh build, and the remap it implies.
    fn compact(&mut self) -> Vec<Option<DocId>> {
        let mut fresh_ids = 0..;
        let remap = (self.docs.iter())
            .map(|d| d.as_ref().and_then(|_| fresh_ids.next()))
            .collect();
        let survivors: Vec<&str> = (self.xml.iter().zip(&self.docs))
            .filter_map(|(x, d)| d.as_ref().map(|_| *x))
            .collect();
        *self = Shadow::build(&survivors, self.tables.len(), self.mode);
        remap
    }

    /// Every stored document decodes to its shadow, column for column; a
    /// removed id and ids past the end read `None`.
    fn check(&self, db: &Database, stage: &str) -> Result<(), TestCaseError> {
        prop_assert_eq!(db.len(), self.docs.len(), "{}", stage);
        for (g, want) in self.docs.iter().enumerate() {
            prop_assert_eq!(&db.document(g as DocId), want, "document {} {}", g, stage);
        }
        let len = self.docs.len() as DocId;
        for g in [len, len + self.tables.len() as DocId - 1, DocId::MAX] {
            prop_assert_eq!(db.document(g), None, "id {} past the end {}", g, stage);
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases(8)))]

    /// A database keeps its documents only as path columns: after every
    /// step of any insert/remove/compact history, at 1–3 shards, in every
    /// value mode, `document(g)` decodes to exactly the document a parse of
    /// `g`'s XML against its shard's tables gives — every column equal,
    /// not only the structure — and compaction renumbers as its remap says.
    #[test]
    fn stored_documents_decode_bit_for_bit(
        seed in 0u64..1_000,
        ninitial in 1usize..6,
        npending in 1usize..8,
        nops in 1usize..16,
    ) {
        let params = SyntheticParams {
            max_height: 4,
            max_fanout: 3,
            value_pct: 25,
            identical_pct: 30,
            prob_floor_pct: 30,
        };
        let mut symbols = SymbolTable::with_value_mode(ValueMode::Intern);
        let docs = SyntheticDataset::generate(&params, ninitial + npending, seed, &mut symbols).docs;
        let xmls: Vec<String> = docs.iter().map(|d| write_document(d, &symbols)).collect();
        let xmls: Vec<&str> = xmls.iter().map(String::as_str).collect();
        let modes = [ValueMode::Intern, ValueMode::Hashed { range: 16 }, ValueMode::Chars];
        for (shards, mode) in (1..=3).flat_map(|n| modes.map(|m| (n, m))) {
            let mut db = DatabaseBuilder::new()
                .value_mode(mode)
                .shards(shards)
                .build_from_xml(xmls[..ninitial].iter().copied())
                .unwrap();
            let mut shadow = Shadow::build(&xmls[..ninitial], shards, mode);
            let stage = |step: &str| format!("after {step} ({mode:?}, {shards} shard(s))");
            shadow.check(&db, &stage("the build"))?;
            let mut pending = xmls[ninitial..].iter();
            let mut rng = seed ^ 0xd0c5;
            for _ in 0..nops {
                match lcg(&mut rng) % 10 {
                    0..=4 => {
                        if let Some(xml) = pending.next() {
                            db.insert_document(xml).unwrap();
                            shadow.insert(xml);
                        }
                    }
                    // a compaction can drop every document
                    5..=7 if !shadow.docs.is_empty() => {
                        let id = (lcg(&mut rng) as usize) % shadow.docs.len();
                        let live = shadow.docs[id].take().is_some();
                        prop_assert_eq!(db.remove_document(id as DocId), live);
                    }
                    5..=7 => {}
                    _ => {
                        let report = db.compact();
                        prop_assert_eq!(report.remap, shadow.compact(), "{}", stage("compact"));
                    }
                }
                shadow.check(&db, &stage("a step"))?;
            }
        }
    }
}

/// A document whose arena is not in preorder (a sibling appended after its
/// elder sibling's subtree grew) is indexed and kept in its preorder
/// layout: the database answers as one built over that layout, trie for
/// trie, and decodes the document to it.
#[test]
fn a_document_out_of_preorder_is_kept_in_its_preorder_layout() {
    let corpus = |laid_out: bool| {
        let mut corpus = Corpus::new(ValueMode::Intern);
        let st = &mut corpus.symbols;
        let (r, a, b, c, v) = (
            st.elem("r"),
            st.elem("a"),
            st.elem("b"),
            st.elem("c"),
            st.val("v"),
        );
        // r(a(c(v)), b): c and v are appended after b
        let mut doc = Document::with_root(r);
        let na = doc.child(0, a);
        doc.child(0, b);
        let nc = doc.child(na, c);
        doc.child(nc, v);
        assert_ne!(doc.preorder(), doc.node_ids().collect::<Vec<_>>());
        let other = parse_document("<r><b><c>v</c></b></r>", st).unwrap();
        corpus.push(if laid_out { doc.into_preorder() } else { doc });
        corpus.push(other);
        corpus
    };
    let laid = corpus(true).docs[0].clone();
    assert!(laid.structurally_eq(&corpus(false).docs[0]));
    for sequencing in [Sequencing::DepthFirst, Sequencing::Probability] {
        for shards in [1, 2] {
            let build = |laid_out| {
                DatabaseBuilder::new()
                    .sequencing(sequencing)
                    .shards(shards)
                    .build_from_corpus(corpus(laid_out))
                    .unwrap()
            };
            let (db, reference) = (build(false), build(true));
            for s in 0..shards {
                assert!(db
                    .shard_index(s)
                    .trie()
                    .identical_to(reference.shard_index(s).trie()));
            }
            for q in ["/r/a/c", "//c[text='v']", "/r[a][b]", "/r/b/c", "//*"] {
                assert_eq!(db.query_xpath(q), reference.query_xpath(q), "{q}");
            }
            // at one shard the corpus' own tables are the shard's
            if shards == 1 {
                assert_eq!(db.document(0), Some(laid.clone()), "{sequencing:?}");
            }
            let stage = format!("{sequencing:?} {shards}");
            assert_eq!(db.document(0), reference.document(0), "{stage}");
        }
    }
}

/// A corpus' dictionaries in id order: every name, every value (none in
/// `Hashed` mode), and each path's `(parent, last)`.
#[allow(clippy::type_complexity)]
fn dictionaries(corpus: &Corpus) -> (Vec<String>, Vec<String>, Vec<(PathId, Option<Symbol>)>) {
    let symbols = &corpus.symbols;
    let names = (0..symbols.designator_count() as u32)
        .map(|d| symbols.name(Designator(d)).to_owned())
        .collect();
    let values = (0..symbols.values.len() as u32)
        .map(|v| {
            symbols
                .values
                .resolve(ValueId(v))
                .unwrap_or_default()
                .to_owned()
        })
        .collect();
    let paths = (corpus.paths.iter())
        .map(|p| (corpus.paths.parent(p), corpus.paths.last(p)))
        .collect();
    (names, values, paths)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases(6)))]

    /// Sharded database level: random insert/remove/merge histories run
    /// through the tiered path at 1/2/4 shards with aggressive tiering
    /// knobs (memtable cuts and tier merges fire inside even short
    /// histories), then one final `compact()`, must be bit-identical —
    /// per shard — to a bulk-built database that never saw the tiered
    /// path: build every document at once, replay the same removes,
    /// compact.  Ids stay dense insertion indices until the final
    /// compact, so both databases route every doc to the same shard and
    /// renumber identically; any trace the memtable, a tier-0 run, or a
    /// background merge leaves behind shows up as a trie divergence.
    /// (Interleaved compacts are covered shard for shard by
    /// `per_shard_compaction_matches_rebuild_over_survivors` in
    /// integration_sharding.rs, and in every value mode at shards(1) by
    /// `update_histories_compact_to_rebuild` above.)
    #[test]
    fn sharded_update_histories_compact_to_rebuild(
        seed in 0u64..1_000,
        ninitial in 1usize..6,
        npending in 1usize..8,
        nops in 1usize..16,
        threads in 1usize..=4,
        shards_sel in 0usize..3,
    ) {
        let shards = [1usize, 2, 4][shards_sel];
        let params = SyntheticParams {
            max_height: 4,
            max_fanout: 3,
            value_pct: 25,
            identical_pct: 0,
            prob_floor_pct: 30,
        };
        let mut symbols = SymbolTable::with_value_mode(ValueMode::Intern);
        let docs = SyntheticDataset::generate(&params, ninitial + npending, seed, &mut symbols).docs;
        let xmls: Vec<String> = docs.iter().map(|d| write_document(d, &symbols)).collect();
        for sequencing in [Sequencing::DepthFirst, Sequencing::Probability] {
            let mut db = DatabaseBuilder::new()
                .sequencing(sequencing)
                .threads(threads)
                .shards(shards)
                .memtable_limit(2)
                .tier_ratio(2)
                .build_from_xml(xmls[..ninitial].iter().map(String::as_str))
                .unwrap();
            // Model: insertion-order xml list + liveness; ids are dense
            // insertion indices for the whole (compact-free) history.
            let mut inserted: Vec<&str> =
                xmls[..ninitial].iter().map(String::as_str).collect();
            let mut alive: Vec<bool> = vec![true; ninitial];
            let mut pending = xmls[ninitial..].iter().map(String::as_str);
            let mut rng = seed ^ 0x517e5;
            for _ in 0..nops {
                match lcg(&mut rng) % 10 {
                    0..=4 => {
                        if let Some(xml) = pending.next() {
                            let id = db.insert_document(xml).unwrap();
                            prop_assert_eq!(id as usize, inserted.len(), "ids stay dense");
                            inserted.push(xml);
                            alive.push(true);
                        }
                    }
                    5..=7 => {
                        if alive.iter().filter(|a| **a).count() > 1 {
                            let id = (lcg(&mut rng) as usize) % inserted.len();
                            let did = db.remove_document(id as DocId);
                            prop_assert_eq!(did, alive[id], "remove reports liveness");
                            alive[id] = false;
                        }
                    }
                    _ => {
                        // Fold pending tier merges mid-history: merges
                        // must be invisible to everything checked below.
                        db.run_pending_merges();
                    }
                }
            }
            let report = db.compact();
            // Bulk-built twin: same docs, same dense ids (→ same shard
            // routing), same removes, one compact.
            let mut reference = DatabaseBuilder::new()
                .sequencing(sequencing)
                .shards(shards)
                .build_from_xml(inserted.iter().copied())
                .unwrap();
            for (id, live) in alive.iter().enumerate() {
                if !live {
                    prop_assert!(reference.remove_document(id as DocId));
                }
            }
            let ref_report = reference.compact();
            prop_assert_eq!(report.remap, ref_report.remap, "compaction remaps agree");
            for s in 0..shards {
                prop_assert!(
                    db.shard_index(s).trie().identical_to(reference.shard_index(s).trie()),
                    "{sequencing:?} s{shards}: shard {s} trie diverges from rebuild"
                );
            }
            for q in ["/e0", "//e1", "//e2", "/e0/e1", "/e0/e2", "//e4"] {
                prop_assert_eq!(
                    db.query_xpath(q).unwrap(),
                    reference.query_xpath(q).unwrap(),
                    "{:?} s{}: {}", sequencing, shards, q
                );
            }
            let report = db.verify_integrity();
            prop_assert!(report.is_clean(), "{sequencing:?} s{shards}: {}", report.render());
        }
    }
}

/// Shared first reads: `query_batch` fleets that start on a **dirty
/// memtable** after inline cuts and merges.
///
/// The database runs with aggressive tiering knobs, so every burst of
/// inserts cuts tier-0 runs and folds tiers inline, and leaves memtables
/// holding sequences no reader has frozen a view of yet.  The fleet's
/// readers race to build those views (the overlay's one `OnceLock`): each
/// fleet batch must equal the serial answers taken after it,
/// `verify_integrity` must pass on every intermediate segment set, and the
/// quiesced database — pending merges drained — must agree once more.
#[test]
fn query_batch_fleets_agree_from_a_dirty_memtable_after_inline_merges() {
    let params = SyntheticParams {
        max_height: 4,
        max_fanout: 3,
        value_pct: 25,
        identical_pct: 0,
        prob_floor_pct: 30,
    };
    let mut symbols = SymbolTable::with_value_mode(ValueMode::Intern);
    let docs = SyntheticDataset::generate(&params, 24, 0x71e2, &mut symbols).docs;
    let xmls: Vec<String> = docs.iter().map(|d| write_document(d, &symbols)).collect();
    let exprs = ["/e0", "//e1", "//e2", "/e0/e1", "/e0/e2", "//e3"];
    let mut db = DatabaseBuilder::new()
        .threads(4)
        .memtable_limit(2)
        .tier_ratio(2)
        .build_from_xml(xmls[..4].iter().map(String::as_str))
        .expect("initial corpus parses");
    let mut dirty_rounds = 0;
    for round in 0..4 {
        // A burst of inserts cuts runs and merges tiers inline; a remove
        // keeps tombstone resolution in play.
        for xml in &xmls[4 + round * 5..4 + (round + 1) * 5] {
            db.insert_document(xml).expect("pending document parses");
        }
        db.remove_document(round as DocId);
        // Reader fleet first: 4 threads × repeated batches, the first of
        // them racing to freeze the dirty memtables' views.
        let batches: Vec<Vec<Vec<DocId>>> = std::thread::scope(|s| {
            let readers: Vec<_> = (0..4)
                .map(|_| s.spawn(|| (0..8).map(|_| db.query_batch(&exprs)).collect::<Vec<_>>()))
                .collect();
            (readers.into_iter())
                .flat_map(|reader| reader.join().expect("reader thread"))
                .map(|batch| {
                    (batch.into_iter())
                        .map(|r| r.expect("query parses"))
                        .collect()
                })
                .collect()
        });
        // Nothing wrote since the inserts: the memtables now are the ones
        // the fleet started on.
        let dirty = (0..db.shard_count()).any(|s| {
            let index = db.shard_index(s);
            index.delta_view().segment_count() > index.delta().run_count()
        });
        dirty_rounds += usize::from(dirty);
        let expected: Vec<Vec<DocId>> = exprs
            .iter()
            .map(|e| db.query_xpath(e).expect("query parses"))
            .collect();
        for got in batches {
            assert_eq!(got, expected, "reader diverged in round {round}");
        }
        let report = db.verify_integrity();
        assert!(report.is_clean(), "round {round}: {}", report.render());
    }
    // Rounds 0–2 leave some shard's memtable at an odd count; round 3's
    // twenty inserts happen to leave every shard even.
    assert!(
        dirty_rounds >= 3,
        "only {dirty_rounds} fleets started dirty"
    );
    // Quiesce: drain the merge debt and re-check — folding runs must not
    // change a single answer.
    let expected: Vec<Vec<DocId>> = exprs
        .iter()
        .map(|e| db.query_xpath(e).expect("query parses"))
        .collect();
    db.run_pending_merges();
    let quiesced: Vec<Vec<DocId>> = exprs
        .iter()
        .map(|e| db.query_xpath(e).expect("query parses"))
        .collect();
    assert_eq!(quiesced, expected, "drained merges changed answers");
    let report = db.verify_integrity();
    assert!(report.is_clean(), "quiesced: {}", report.render());
}

/// Concurrent readers vs. updates: `query_batch` racing the update path.
///
/// Rust's borrow rules make a *torn* read statically impossible —
/// `insert_document`/`compact` take `&mut Database`, so readers only ever
/// hold a reference to a fully pre- or fully post-update database (the
/// overlay's own cut, merge and remove steps are checked against a bulk
/// load in `crates/index/tests/merge_runs.rs`).  What this test pins is
/// the contract that rests on that: after *every* update
/// step, a fleet of scoped-thread readers issuing `query_batch` (itself
/// fanning out on the pool) all agree exactly with a serial query loop
/// over the post-update state — no reader observes a stale delta, a
/// dropped tombstone, or a half-compacted trie.
#[test]
fn concurrent_query_batches_agree_with_every_update_epoch() {
    let params = SyntheticParams {
        max_height: 4,
        max_fanout: 3,
        value_pct: 25,
        identical_pct: 0,
        prob_floor_pct: 30,
    };
    let mut symbols = SymbolTable::with_value_mode(ValueMode::Intern);
    let docs = SyntheticDataset::generate(&params, 10, 0xeb0c, &mut symbols).docs;
    let xmls: Vec<String> = docs.iter().map(|d| write_document(d, &symbols)).collect();
    let exprs = ["/e0", "//e1", "//e2", "/e0/e1", "/e0/e2", "//e3"];
    let mut db = DatabaseBuilder::new()
        .threads(4)
        .build_from_xml(xmls[..4].iter().map(String::as_str))
        .expect("initial corpus parses");
    let mut pending = xmls[4..].iter();
    // insert ×2, remove, insert, compact, insert, remove, compact.
    let steps: [&str; 8] = [
        "insert", "insert", "remove", "insert", "compact", "insert", "remove", "compact",
    ];
    let mut next_victim: DocId = 0;
    for step in steps {
        match step {
            "insert" => {
                let xml = pending.next().expect("enough pending documents");
                db.insert_document(xml).expect("pending document parses");
            }
            "remove" => {
                db.remove_document(next_victim);
                next_victim += 1;
            }
            _ => {
                db.compact();
                next_victim = 0;
            }
        }
        let expected: Vec<Vec<DocId>> = exprs
            .iter()
            .map(|e| db.query_xpath(e).expect("query parses"))
            .collect();
        std::thread::scope(|s| {
            let readers: Vec<_> = (0..4).map(|_| s.spawn(|| db.query_batch(&exprs))).collect();
            for reader in readers {
                let got: Vec<Vec<DocId>> = reader
                    .join()
                    .expect("reader thread")
                    .into_iter()
                    .map(|r| r.expect("query parses"))
                    .collect();
                assert_eq!(got, expected, "reader diverged after step {step:?}");
            }
        });
    }
}

/// What the brute-force matcher says `db` must answer: `model[id]` is the
/// live document with that id, parsed into the shadow `symbols`.
fn assert_matches_oracle(
    db: &Database,
    model: &[Option<Document>],
    symbols: &SymbolTable,
    exprs: &[&str],
    stage: &str,
) {
    for expr in exprs {
        // A symbol no model document holds proves the answer empty.
        let pattern = parse_xpath_readonly(expr, symbols).expect("the test's own XPath parses");
        let expect: Vec<DocId> = (0..model.len())
            .filter(|&id| {
                let doc = model[id].as_ref();
                doc.zip(pattern.as_ref())
                    .is_some_and(|(d, p)| structure_match(p, d))
            })
            .map(|id| id as DocId)
            .collect();
        let got = db.query_xpath(expr).expect("the test's own XPath parses");
        assert_eq!(got, expect, "{expr} {stage}");
    }
}

/// Wildcards are answered from the path table's own summary (chains by
/// last symbol, the element-path list, child links), which `extend` alone
/// maintains: a document that mints a never-seen element *and* a never-seen
/// value is found through `//`, `*` and both on the very next query, stops
/// being found once removed, and compaction — which re-interns the
/// survivors into a fresh table — changes neither answer.
#[test]
fn wildcards_follow_paths_minted_and_dropped_by_updates() {
    let base = [
        "<root><a><old>x</old></a></root>",
        "<root><b><old>y</old><c><old>x</old></c></b></root>",
    ];
    let fresh = "<root><c><new>v</new></c><new>w</new></root>";
    let exprs = [
        "//new",
        "//*[new='v']",
        "/root/*/new",
        "//*/new",
        "//old",
        "/root/*",
    ];
    for sequencing in [Sequencing::DepthFirst, Sequencing::Probability] {
        let mut db = DatabaseBuilder::new()
            .sequencing(sequencing)
            .shards(1)
            .build_from_xml(base)
            .unwrap();
        let mut symbols = SymbolTable::with_value_mode(ValueMode::Intern);
        let mut model: Vec<Option<Document>> = base
            .iter()
            .map(|x| parse_document(x, &mut symbols).ok())
            .collect();
        assert_matches_oracle(&db, &model, &symbols, &exprs, "after the build");
        assert!(db.query_xpath("//new").unwrap().is_empty());

        for round in 0..2 {
            // a compacted table has forgotten `new`: the second round mints
            // it again, into the table compaction rebuilt
            let id = db.insert_document(fresh).unwrap();
            assert_eq!(id as usize, model.len());
            model.push(parse_document(fresh, &mut symbols).ok());
            assert_matches_oracle(&db, &model, &symbols, &exprs, "after the insert");
            for expr in &exprs[..4] {
                assert_eq!(db.query_xpath(expr).unwrap(), [id], "{expr} round {round}");
            }
            db.compact();
            assert_matches_oracle(&db, &model, &symbols, &exprs, "inserted, compacted");

            assert!(db.remove_document(id));
            model[id as usize] = None;
            assert_matches_oracle(&db, &model, &symbols, &exprs, "after the remove");
            assert!(db.query_xpath("//*[new='v']").unwrap().is_empty());
            db.compact();
            model.retain(Option::is_some);
            assert_matches_oracle(&db, &model, &symbols, &exprs, "removed, compacted");
        }
        assert!(db.verify_integrity().is_clean());
    }
}
