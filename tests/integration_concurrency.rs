//! Build determinism and shared-read query execution.
//!
//! The build's contract is *bit-identical output*: for any corpus and
//! every sequencing strategy, the frozen index (trie arena, labels, path
//! links, end nodes) must equal the paper's naive three steps, a database
//! must build the same trie at any thread count, and concurrent readers
//! of one database must see exactly the answers a serial query loop
//! produces.

use proptest::prelude::*;
use std::collections::HashSet;
use xseq::datagen::{SyntheticDataset, SyntheticParams};
use xseq::index::SequenceTrie;
use xseq::schema::{ProbabilityModel, WeightMap};
use xseq::sequence::{sequence_document, Strategy};
use xseq::{
    DatabaseBuilder, DocId, Document, Error, PathId, PathTable, PlanOptions, Sequencing,
    SymbolTable, ValueMode, XmlError, XmlIndex,
};

/// The four sequencing strategies, each rebuilt against the path table it
/// will be used with (probability priorities hold table-specific path ids).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arbitrary corpus × all 4 strategies: the index's constructor is
    /// byte-equal to the naive three steps (`sequence_document` per
    /// document, interning as it goes, then `bulk_load` and `freeze`) and
    /// passes the full integrity verifier.  (`identical_pct` stays 0 —
    /// breadth-first sequencing is only defined without identical
    /// siblings.)
    #[test]
    fn build_is_the_naive_three_steps_on_arbitrary_corpora(
        seed in 0u64..1_000,
        ndocs in 1usize..40,
        max_fanout in 1u16..4,
    ) {
        let params = SyntheticParams {
            max_height: 4,
            max_fanout,
            value_pct: 25,
            identical_pct: 0,
            prob_floor_pct: 30,
        };
        let mut symbols = SymbolTable::with_value_mode(ValueMode::Intern);
        let docs = SyntheticDataset::generate(&params, ndocs, seed, &mut symbols).docs;
        for kind in 0..4 {
            let mut pt_ref = PathTable::new();
            let strat = strategy(kind, &docs, &mut pt_ref);
            let seqs: Vec<_> = (docs.iter().enumerate())
                .map(|(id, doc)| (sequence_document(doc, &mut pt_ref, &strat), id as DocId))
                .collect();
            let ref_data_paths: HashSet<PathId> =
                seqs.iter().flat_map(|(seq, _)| seq.elems().iter().copied()).collect();
            let mut reference = SequenceTrie::new();
            reference.bulk_load(seqs);
            reference.freeze();

            let mut pt = PathTable::new();
            let strat = strategy(kind, &docs, &mut pt);
            let index = XmlIndex::build(&docs, &mut pt, strat, PlanOptions::default());
            prop_assert!(index.trie().identical_to(&reference), "strategy {} diverged", kind);
            prop_assert_eq!(pt.len(), pt_ref.len(), "path tables diverged");
            prop_assert_eq!(index.data_paths(), &ref_data_paths);
            let report = index.verify_integrity(&pt);
            prop_assert!(report.is_clean(), "{}", report.render());
        }
    }
}

const CORPUS: [&str; 6] = [
    "<p><r><l>boston</l></r></p>",
    "<p><d><l>boston</l></d></p>",
    "<p><r><l>newyork</l></r></p>",
    "<p><l><b/></l><l><s/></l></p>",
    "<q><a/><b><c/></b></q>",
    "<p><r><l>austin</l></r><r><l>boston</l></r></p>",
];

const QUERIES: [&str; 7] = [
    "/p//l[text='boston']",
    "//l",
    "/p/r",
    "/q/b/c",
    "/p/r/l[text='austin']",
    "//l[text='boston']",
    "/p/d",
];

#[test]
fn threaded_database_build_answers_like_sequential() {
    for sequencing in [Sequencing::DepthFirst, Sequencing::Probability] {
        let serial = DatabaseBuilder::new()
            .sequencing(sequencing)
            .build_from_xml(CORPUS)
            .unwrap();
        for threads in [2, 4, 8] {
            // shards(1): trie bit-identity is a single-shard property —
            // the sharded equivalences live in integration_sharding.rs.
            let parallel = DatabaseBuilder::new()
                .sequencing(sequencing)
                .threads(threads)
                .shards(1)
                .build_from_xml(CORPUS)
                .unwrap();
            assert!(
                parallel.index().trie().identical_to(serial.index().trie()),
                "{sequencing:?} at {threads} threads"
            );
            assert!(parallel.verify_integrity().is_clean());
            // ingest telemetry: one parse sample per doc
            let snap = parallel.metrics();
            assert_eq!(
                snap.histogram("xml.parse").unwrap().count,
                CORPUS.len() as u64
            );
            for q in QUERIES {
                assert_eq!(
                    serial.query_xpath(q).unwrap(),
                    parallel.query_xpath(q).unwrap(),
                    "{q}"
                );
            }
            // queries sequence nothing: the encode samples are the build's
            assert_eq!(
                parallel
                    .metrics()
                    .histogram("sequence.encode")
                    .unwrap()
                    .count,
                CORPUS.len() as u64
            );
        }
    }
}

/// Shards parse side by side and each stops at its own first malformed
/// document; the build must still report the error a serial parse of the
/// whole input meets first, whichever shards the two bad documents land on.
#[test]
fn a_malformed_corpus_reports_its_earliest_error_at_any_width() {
    const DOCS: usize = 8;
    // A mismatched tag names the element it closes, so each malformed
    // document's error says which position it came from.
    let bad: Vec<String> = (0..DOCS).map(|k| format!("<bad{k}></x>")).collect();
    for i in 0..DOCS {
        for j in i + 1..DOCS {
            let corpus: Vec<&str> = (0..DOCS)
                .map(|k| {
                    if k == i || k == j {
                        bad[k].as_str()
                    } else {
                        CORPUS[k % CORPUS.len()]
                    }
                })
                .collect();
            let build = |threads: usize, shards: usize| {
                DatabaseBuilder::new()
                    .threads(threads)
                    .shards(shards)
                    .build_from_xml(corpus.iter().copied())
                    .err()
            };
            let want = build(1, 1);
            assert!(
                matches!(
                    &want,
                    Some(Error::Xml(XmlError::MismatchedTag { expected, .. }))
                        if *expected == format!("bad{i}")
                ),
                "serial build over bad documents {i} and {j}: {want:?}"
            );
            for threads in [1, 2, 4] {
                for shards in [1, 3] {
                    assert_eq!(
                        build(threads, shards),
                        want,
                        "bad documents {i} and {j} at {threads} threads, {shards} shards"
                    );
                }
            }
        }
    }
}

#[test]
fn query_batch_equals_sequential_loop() {
    let db = DatabaseBuilder::new()
        .threads(8)
        .build_from_xml(CORPUS)
        .unwrap();
    // known expressions, a provably-empty one, and a syntax error
    let mut exprs: Vec<&str> = QUERIES.to_vec();
    exprs.push("/nosuchelement/anywhere");
    exprs.push("not an xpath");
    let batch = db.query_batch(&exprs);
    assert_eq!(batch.len(), exprs.len());
    for (expr, got) in exprs.iter().zip(&batch) {
        assert_eq!(got, &db.query_xpath(expr), "{expr}");
    }
    assert_eq!(batch[exprs.len() - 2], Ok(Vec::new()), "unknown symbol");
    assert!(matches!(batch[exprs.len() - 1], Err(Error::Query(_))));
}

#[test]
fn scoped_threads_share_one_database() {
    let db = DatabaseBuilder::new().build_from_xml(CORPUS).unwrap();
    let db = &db;
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(move || {
                for q in QUERIES {
                    let hits = db.query_xpath(q).unwrap();
                    assert_eq!(hits, db.query_xpath(q).unwrap(), "{q}");
                }
            });
        }
    });
}

#[test]
fn spot_check_rate_holds_across_concurrent_queries() {
    let db = DatabaseBuilder::new()
        .integrity_spot_check(0.5)
        .build_from_xml(CORPUS)
        .unwrap();
    // 40 queries on 8 scoped threads: the atomic accumulator hands each
    // query a disjoint window, so exactly 20 spot checks fire no matter
    // how the threads interleave.
    let db = &db;
    let fired = std::sync::atomic::AtomicUsize::new(0);
    let fired_ref = &fired;
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(move || {
                for q in QUERIES.iter().cycle().take(5) {
                    if db.query_xpath_full(q).unwrap().integrity.is_some() {
                        // relaxed: test-only tally, read after the join
                        fired_ref.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                }
            });
        }
    });
    // relaxed: read after the scope join, fully ordered by it
    let fired = fired.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(fired, 20, "fixed-point sampling stays exact under &self");
}
