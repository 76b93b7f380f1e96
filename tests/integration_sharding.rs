//! Differential sharding tests: **shard-merge ≡ sequential** (ISSUE 9).
//!
//! A partitioned database is an implementation detail the query
//! surface must not leak: for every shard count N and thread count, the
//! documents a query matches, the aggregate statistics, and the integrity
//! verdicts must be exactly what the historical single-shard build over
//! the same corpus produces.  These tests pin that contract across
//!
//! * **builds** — random synthetic corpora at 1/2/4/8 shards × 1–4
//!   threads × both sequencing strategies;
//! * **update histories** — random insert/remove/compact interleavings
//!   applied in lockstep to a sharded and a single-shard database
//!   (global ids, compaction remaps and answers must stay identical);
//! * **compaction** — after any history, every shard's trie is the one a
//!   fresh build at the same shard count makes over the survivors;
//! * **`query_batch` fleets** — batch answers against the serial loop.
//!
//! The CI update-fuzz smoke job shrinks the case budget through
//! `XSEQ_UPDATE_FUZZ_CASES`; locally the defaults below run.

use proptest::prelude::*;
use xseq::datagen::{SyntheticDataset, SyntheticParams};
use xseq::xml::matcher::structure_match;
use xseq::xml::parse_document;
use xseq::{
    parse_xpath_readonly, Database, DatabaseBuilder, DocId, Document, Error, Sequencing,
    SymbolTable,
};

/// Case budget, shrinkable by the CI smoke job via `XSEQ_UPDATE_FUZZ_CASES`.
fn fuzz_cases(default: u32) -> u32 {
    std::env::var("XSEQ_UPDATE_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn params() -> SyntheticParams {
    SyntheticParams {
        max_height: 4,
        max_fanout: 3,
        value_pct: 25,
        identical_pct: 0,
        prob_floor_pct: 30,
    }
}

/// Queries over the synthetic `e{k}` element vocabulary: rooted, `//`,
/// multi-step, and one that is provably empty on most corpora.
const QUERIES: [&str; 7] = ["/e0", "//e1", "//e2", "/e0/e1", "/e0/e2", "//e4", "//e9"];

const SHARDED: [usize; 3] = [2, 4, 8];

/// Shard counts the compaction oracle draws from.
const COMPACTED: [usize; 5] = [1, 2, 3, 4, 8];

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases(6)))]

    /// Build equivalence: an N-shard build answers every query exactly
    /// like the 1-shard build, agrees on document/sequence totals, and
    /// verifies clean — for both strategies at 1–4 threads.
    #[test]
    fn sharded_builds_answer_like_single_shard(
        seed in 0u64..1_000,
        ndocs in 1usize..20,
        threads in 1usize..=4,
    ) {
        let xmls = SyntheticDataset::generate_xml(&params(), ndocs, seed);
        for sequencing in [Sequencing::DepthFirst, Sequencing::Probability] {
            let reference = DatabaseBuilder::new()
                .sequencing(sequencing)
                .shards(1)
                .build_from_xml(xmls.iter().map(String::as_str))
                .unwrap();
            let expected: Vec<Vec<DocId>> = QUERIES
                .iter()
                .map(|q| reference.query_xpath(q).unwrap())
                .collect();
            let ref_stats = reference.stats();
            prop_assert!(reference.verify_integrity().is_clean());
            for shards in SHARDED {
                let db = DatabaseBuilder::new()
                    .sequencing(sequencing)
                    .threads(threads)
                    .shards(shards)
                    .build_from_xml(xmls.iter().map(String::as_str))
                    .unwrap();
                prop_assert_eq!(db.shard_count(), shards);
                prop_assert_eq!(db.len(), reference.len());
                for (q, want) in QUERIES.iter().zip(&expected) {
                    prop_assert_eq!(
                        &db.query_xpath(q).unwrap(), want,
                        "{:?} s{} t{}: {}", sequencing, shards, threads, q
                    );
                }
                let stats = db.stats();
                prop_assert_eq!(stats.docs, ref_stats.docs);
                prop_assert_eq!(
                    stats.index.frozen.sequences + stats.index.delta.sequences,
                    ref_stats.index.frozen.sequences + ref_stats.index.delta.sequences,
                    "{:?} s{}: sequence totals", sequencing, shards
                );
                prop_assert_eq!(stats.index.tombstones, ref_stats.index.tombstones);
                prop_assert_eq!(stats.shards.len(), shards);
                prop_assert_eq!(
                    stats.shards.iter().map(|s| s.docs).sum::<usize>(),
                    ndocs,
                    "shards partition the corpus"
                );
                let report = db.verify_integrity();
                prop_assert!(
                    report.is_clean(),
                    "{:?} s{} t{}: {}", sequencing, shards, threads, report.render()
                );
            }
        }
    }

    /// Update-history equivalence, in lockstep: the same random
    /// insert/remove/compact sequence applied to an N-shard and a 1-shard
    /// database mints the same global ids, returns the same compaction
    /// remaps, and answers every query identically after every step.
    #[test]
    fn sharded_update_histories_match_single_shard(
        seed in 0u64..1_000,
        ninitial in 1usize..5,
        npending in 1usize..8,
        nops in 1usize..14,
        threads in 1usize..=4,
    ) {
        let xmls = SyntheticDataset::generate_xml(&params(), ninitial + npending, seed);
        for sequencing in [Sequencing::DepthFirst, Sequencing::Probability] {
            for shards in SHARDED {
                let build = |n: usize| {
                    DatabaseBuilder::new()
                        .sequencing(sequencing)
                        .threads(threads)
                        .shards(n)
                        .build_from_xml(xmls[..ninitial].iter().map(String::as_str))
                        .unwrap()
                };
                let mut db = build(shards);
                let mut reference = build(1);
                let mut len = ninitial;
                let mut pending = xmls[ninitial..].iter();
                let mut rng = seed ^ 0x9e3779b97f4a7c15;
                for _ in 0..nops {
                    match lcg(&mut rng) % 10 {
                        0..=4 => {
                            if let Some(xml) = pending.next() {
                                let a = db.insert_document(xml).unwrap();
                                let b = reference.insert_document(xml).unwrap();
                                prop_assert_eq!(a, b, "insert ids agree");
                                len = db.len();
                            }
                        }
                        5..=7 => {
                            let id = (lcg(&mut rng) as usize % len) as DocId;
                            prop_assert_eq!(
                                db.remove_document(id),
                                reference.remove_document(id),
                                "remove verdicts agree"
                            );
                        }
                        _ => {
                            let a = db.compact();
                            let b = reference.compact();
                            prop_assert_eq!(a.docs_after, b.docs_after);
                            prop_assert_eq!(a.tombstones_dropped, b.tombstones_dropped);
                            prop_assert_eq!(a.delta_merged, b.delta_merged);
                            prop_assert_eq!(a.remap, b.remap, "compaction remaps agree");
                            len = db.len();
                        }
                    }
                    for q in QUERIES {
                        prop_assert_eq!(
                            db.query_xpath(q).unwrap(),
                            reference.query_xpath(q).unwrap(),
                            "{:?} s{} t{}: {}", sequencing, shards, threads, q
                        );
                    }
                }
                prop_assert_eq!(db.len(), reference.len());
                prop_assert_eq!(db.stats().docs, reference.stats().docs);
                prop_assert!(db.verify_integrity().is_clean());
                prop_assert!(reference.verify_integrity().is_clean());
            }
        }
    }

    /// Compaction is a fresh build over the survivors, shard for shard:
    /// after every `compact()` in a random insert/remove/compact history,
    /// each shard's trie and data paths are those of a `shards(n)` build
    /// over the surviving documents in surviving-id order, the remap is
    /// dense and in global order, and the answers are a 1-shard build's.
    #[test]
    fn per_shard_compaction_matches_rebuild_over_survivors(
        seed in 0u64..1_000,
        ninitial in 2usize..6,
        npending in 1usize..6,
        nops in 1usize..12,
        shard_pick in 0usize..COMPACTED.len(),
        threads in 1usize..=3,
    ) {
        let shards = COMPACTED[shard_pick];
        let xmls = SyntheticDataset::generate_xml(&params(), ninitial + npending, seed);
        for sequencing in [Sequencing::DepthFirst, Sequencing::Probability] {
            let build = |n: usize, xmls: &[&str]| {
                DatabaseBuilder::new()
                    .sequencing(sequencing)
                    .threads(threads)
                    .shards(n)
                    .build_from_xml(xmls.iter().copied())
                    .unwrap()
            };
            // Model: global id → xml, pruned/renumbered through every remap.
            let mut model: Vec<&str> = xmls[..ninitial].iter().map(String::as_str).collect();
            let mut db = build(shards, &model);
            let mut alive: Vec<bool> = vec![true; ninitial];
            let mut pending = xmls[ninitial..].iter();
            let mut rng = seed ^ 0x51a4d;
            for step in 0..=nops {
                let op = if step == nops { 9 } else { lcg(&mut rng) % 10 };
                match op {
                    0..=3 => {
                        if let Some(xml) = pending.next() {
                            let id = db.insert_document(xml).unwrap() as usize;
                            prop_assert_eq!(id, model.len(), "ids stay dense");
                            model.push(xml);
                            alive.push(true);
                        }
                    }
                    // A compaction that dropped every document leaves
                    // nothing to remove.
                    4..=6 if !model.is_empty() => {
                        let id = lcg(&mut rng) as usize % model.len();
                        let did = db.remove_document(id as DocId);
                        prop_assert_eq!(did, alive[id], "remove reports liveness");
                        alive[id] = false;
                    }
                    4..=6 => {}
                    _ => {
                        let report = db.compact();
                        // Renumber the model through the returned remap:
                        // only dead documents drop, survivors close ranks.
                        let mut survivors = Vec::with_capacity(model.len());
                        for (g, new) in report.remap.iter().enumerate() {
                            match new {
                                Some(n) => {
                                    prop_assert!(alive[g], "dead documents drop");
                                    prop_assert_eq!(*n as usize, survivors.len());
                                    survivors.push(model[g]);
                                }
                                None => prop_assert!(!alive[g], "live documents stay"),
                            }
                        }
                        model = survivors;
                        alive = vec![true; model.len()];
                        prop_assert_eq!(db.len(), model.len());
                        if model.is_empty() {
                            for q in QUERIES {
                                prop_assert!(db.query_xpath(q).unwrap().is_empty());
                            }
                            continue;
                        }
                        let fresh = build(shards, &model);
                        for s in 0..shards {
                            let (got, want) = (db.shard_index(s), fresh.shard_index(s));
                            prop_assert!(
                                got.trie().identical_to(want.trie()),
                                "{:?} s{} t{}: shard {} trie", sequencing, shards, threads, s
                            );
                            prop_assert_eq!(got.data_paths(), want.data_paths());
                        }
                        let reference = build(1, &model);
                        for q in QUERIES {
                            prop_assert_eq!(
                                db.query_xpath(q).unwrap(),
                                reference.query_xpath(q).unwrap(),
                                "{:?} s{} after compaction: {}", sequencing, shards, q
                            );
                        }
                    }
                }
                prop_assert_eq!(db.len(), model.len());
            }
            prop_assert!(db.verify_integrity().is_clean());
        }
    }

    /// `query_batch` fleets over sharded databases: batch answers equal
    /// the serial loop, including provably-empty and syntax-error cases.
    #[test]
    fn sharded_query_batch_equals_serial_loop(
        seed in 0u64..1_000,
        ndocs in 1usize..16,
        threads in 1usize..=4,
    ) {
        let xmls = SyntheticDataset::generate_xml(&params(), ndocs, seed);
        let mut exprs: Vec<&str> = QUERIES.to_vec();
        exprs.push("/nosuchelement/anywhere");
        exprs.push("not an xpath");
        for shards in SHARDED {
            let db = DatabaseBuilder::new()
                .threads(threads)
                .shards(shards)
                .build_from_xml(xmls.iter().map(String::as_str))
                .unwrap();
            let batch = db.query_batch(&exprs);
            prop_assert_eq!(batch.len(), exprs.len());
            for (expr, got) in exprs.iter().zip(&batch) {
                prop_assert_eq!(got, &db.query_xpath(expr), "s{}: {}", shards, expr);
            }
            prop_assert_eq!(&batch[exprs.len() - 2], &Ok(Vec::new()), "unknown symbol");
            prop_assert!(matches!(batch[exprs.len() - 1], Err(Error::Query(_))));
        }
    }
}

/// More shards than documents: the surplus shards hold empty corpora and
/// empty tries, queries still answer, and inserts can land on a
/// previously empty shard.
#[test]
fn empty_shards_are_inert() {
    let mut db = DatabaseBuilder::new()
        .shards(8)
        .build_from_xml(["<a><b>x</b></a>", "<a><c/></a>"])
        .unwrap();
    assert_eq!(db.shard_count(), 8);
    assert_eq!(db.len(), 2);
    assert_eq!(db.query_xpath("//a").unwrap(), vec![0, 1]);
    assert_eq!(db.query_xpath("/a/b[text='x']").unwrap(), vec![0]);
    // Route a few inserts around the ring; every doc stays queryable.
    for i in 0..8 {
        let xml = format!("<a><d{i}/></a>");
        let id = db.insert_document(&xml).unwrap();
        assert_eq!(id as usize, 2 + i);
    }
    assert_eq!(db.len(), 10);
    assert_eq!(db.query_xpath("//a").unwrap(), (0..10).collect::<Vec<_>>());
    assert_eq!(db.query_xpath("/a/d3").unwrap(), vec![5]);
    let report = db.verify_integrity();
    assert!(report.is_clean(), "{}", report.render());
    let report = db.compact();
    assert_eq!(report.docs_after, 10);
    assert_eq!(db.query_xpath("/a/d7").unwrap(), vec![9]);
    // The next id after a compaction is its length, on whichever shard it
    // routes to, and answers at once.
    assert_eq!(db.insert_document("<a><e/></a>").unwrap(), 10);
    assert_eq!(db.query_xpath("/a/e").unwrap(), vec![10]);
    assert_eq!(db.query_xpath("//a").unwrap(), (0..11).collect::<Vec<_>>());
}

/// Shards built side by side and one after another make the same
/// database: at 4 shards, `threads(4)` and `threads(1)` build identical
/// tries shard for shard, and every query (which answers the shards in
/// turn at any width) returns identical answers.
#[test]
fn scatter_and_sequential_gather_agree() {
    let xmls = SyntheticDataset::generate_xml(&params(), 12, 7);
    let parallel = DatabaseBuilder::new()
        .threads(4)
        .shards(4)
        .build_from_xml(xmls.iter().map(String::as_str))
        .unwrap();
    let sequential = DatabaseBuilder::new()
        .threads(1)
        .shards(4)
        .build_from_xml(xmls.iter().map(String::as_str))
        .unwrap();
    for s in 0..4 {
        let (a, b) = (parallel.shard_index(s), sequential.shard_index(s));
        assert!(a.trie().identical_to(b.trie()), "shard {s} trie");
    }
    for q in QUERIES {
        assert_eq!(
            parallel.query_xpath(q).unwrap(),
            sequential.query_xpath(q).unwrap(),
            "{q}"
        );
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

/// Every shard's path table keeps its own wildcard summary, maintained by
/// the same `extend`: at 3 shards a document minting a never-seen element
/// and value is found by `//` and `*` on the next query wherever the router
/// put it, is gone once removed, and `compact()` changes neither answer —
/// all against the brute-force matcher (the single-shard history is
/// `wildcards_follow_paths_minted_and_dropped_by_updates` in
/// integration_updates.rs).
#[test]
fn wildcards_follow_updates_on_every_shard() {
    let base: Vec<String> = (0..4)
        .map(|i| format!("<root><a{}><old>x{i}</old></a{}></root>", i % 3, i % 3))
        .collect();
    let exprs = ["//new", "//*[new='v']", "/root/*/new", "//old", "/root/*"];
    let mut db = DatabaseBuilder::new()
        .shards(3)
        .build_from_xml(base.iter().map(String::as_str))
        .unwrap();
    let mut symbols = SymbolTable::default();
    let mut model: Vec<Option<Document>> = base
        .iter()
        .map(|x| parse_document(x, &mut symbols).ok())
        .collect();
    assert_matches_oracle(&db, &model, &symbols, &exprs, "after the build");

    // enough inserts that every shard mints `new` (shards take ids in turn)
    let fresh: Vec<String> = (0..6)
        .map(|i| format!("<root><c{i}><new>v</new></c{i}></root>"))
        .collect();
    let mut ids = Vec::new();
    for xml in &fresh {
        ids.push(db.insert_document(xml).unwrap());
        model.push(parse_document(xml, &mut symbols).ok());
        assert_matches_oracle(&db, &model, &symbols, &exprs, "after an insert");
    }
    assert_eq!(db.query_xpath("//*[new='v']").unwrap(), ids);
    for s in 0..3 {
        let minted = db.shard_index(s).pending_updates();
        assert!(minted > 0, "shard {s} took no insert");
    }
    db.compact();
    assert_matches_oracle(&db, &model, &symbols, &exprs, "inserted, compacted");

    for &id in &ids[..5] {
        assert!(db.remove_document(id));
        model[id as usize] = None;
    }
    assert_matches_oracle(&db, &model, &symbols, &exprs, "after the removes");
    assert_eq!(db.query_xpath("/root/*/new").unwrap(), ids[5..]);
    db.compact();
    model.retain(Option::is_some);
    assert_matches_oracle(&db, &model, &symbols, &exprs, "removed, compacted");
    assert!(db.verify_integrity().is_clean());
}
