//! Golden values for the deterministic half of the reproduction.
//!
//! Section 6 reports wall-clock times, which depend on the host and are
//! measured by `benchmark/` (`BENCHMARK.json`), and sizes and counts — trie
//! nodes, result sizes, pages, disk accesses — which are exact under the
//! seeded generators.  This file pins every such column of every table
//! `repro` prints, with `assert_eq!` and no tolerance, at a scale small
//! enough for a debug build.  Nothing here reads a clock.
//!
//! A sequencing, planner, trie, search-order or page-layout change that
//! moves one of these numbers moves the reproduction: re-record
//! `EXPERIMENTS.md` and update the constants in the same change (a failing
//! `assert_eq!` prints the current values).

use xseq::datagen::SyntheticParams;
use xseq_bench::{fig14_rows, fig15_rows, fig16cd_rows, table7_rows, table8_rows, xmark_size_rows};

/// Dataset scale of every table but Table 7 (each generator floors at 100
/// documents, so this is 200–1000 documents per row).
const SCALE: f64 = 0.01;

/// `(documents, sequence elements, [Random, BF, DF, CS] trie nodes)`.
fn fig14(params: &SyntheticParams) -> Vec<(usize, usize, [usize; 4])> {
    let rows = fig14_rows(params, SCALE).into_iter();
    rows.map(|(r, [random, bf])| (r.docs, r.doc_nodes, [random, bf, r.df_nodes, r.cs_nodes]))
        .collect()
}

#[test]
fn fig14a_index_size_per_strategy() {
    assert_eq!(
        fig14(&SyntheticParams::fig14a()),
        [
            (200, 1837, [911, 598, 609, 498]),
            (400, 3775, [1775, 1055, 1086, 891]),
            (600, 5572, [2546, 1433, 1467, 1236]),
            (800, 7499, [3412, 1816, 1848, 1556]),
            (1000, 9172, [4024, 2083, 2108, 1802]),
        ]
    );
}

#[test]
fn fig14b_index_size_per_strategy() {
    assert_eq!(
        fig14(&SyntheticParams::fig14b()),
        [
            (200, 769, [314, 368, 287, 292]),
            (400, 1541, [572, 665, 505, 514]),
            (600, 2305, [823, 937, 707, 712]),
            (800, 3073, [1055, 1195, 895, 898]),
            (1000, 3805, [1264, 1417, 1050, 1054]),
        ]
    );
}

#[test]
fn fig15_identical_siblings_df_vs_cs() {
    // (I %, documents, sequence elements, DF nodes, CS nodes)
    let rows: Vec<_> = fig15_rows(SCALE)
        .into_iter()
        .map(|(i, r)| (i, r.docs, r.doc_nodes, r.df_nodes, r.cs_nodes))
        .collect();
    assert_eq!(
        rows,
        [
            (0, 300, 3526, 1392, 551),
            (20, 300, 3862, 1580, 604),
            (40, 300, 4848, 2300, 1647),
            (60, 300, 8869, 6184, 3942),
            (80, 300, 9321, 6471, 4329),
            (100, 300, 10097, 6740, 5065),
        ]
    );
}

/// `(records, document nodes, DF nodes, CS nodes)`.
fn xmark_sizes(identical_siblings: bool) -> Vec<(usize, usize, usize, usize)> {
    xmark_size_rows(identical_siblings, SCALE)
        .into_iter()
        .map(|r| (r.docs, r.doc_nodes, r.df_nodes, r.cs_nodes))
        .collect()
}

#[test]
fn table5_xmark_with_identical_siblings() {
    assert_eq!(
        xmark_sizes(true),
        [
            (100, 2373, 1990, 1330),
            (200, 4855, 4038, 2692),
            (300, 7243, 5986, 3966),
            (400, 9643, 7938, 5225),
            (500, 11983, 9823, 6441),
        ]
    );
}

#[test]
fn table6_xmark_without_identical_siblings() {
    assert_eq!(
        xmark_sizes(false),
        [
            (100, 1857, 1474, 684),
            (200, 3681, 2866, 1271),
            (300, 5541, 4277, 1854),
            (400, 7375, 5665, 2413),
            (500, 9219, 7061, 2977),
        ]
    );
}

#[test]
fn table7_xmark_queries_and_disk_accesses() {
    // Scale 0.1 (6000 records): below it Q1 and Q2 plan to nothing, read
    // no page, and would pin nothing.
    let t = table7_rows(0.1);
    assert_eq!((t.records, t.trie_nodes, t.pages), (6000, 72251, 671));
    assert_eq!(
        t.q3,
        "//closed_auction[seller/person='person59']/date[text='06/15/1998']"
    );
    // (query, query length, result size, disk accesses); `table7_rows`
    // itself asserts that the paged trie answers like the in-memory one.
    // Disk accesses are the pages the search touches, so they follow the
    // search order: seeded at the rarest leaf, Q1 reads 14 pages, not 144;
    // a completion takes its range from the link entry, so Q2 reads 11.
    let rows: Vec<_> = t
        .rows
        .iter()
        .map(|r| (r.name, r.query_len, r.results, r.disk_accesses))
        .collect();
    assert_eq!(rows, [("Q1", 8, 0, 14), ("Q2", 5, 17, 11), ("Q3", 6, 1, 9)]);
}

#[test]
fn table8_dblp_result_sizes() {
    // One result size per query: `table8_rows` itself asserts that the
    // path index, the node index, ViST and CS return identical id lists.
    let t = table8_rows(SCALE);
    assert_eq!((t.records, t.nodes), (1000, 15392));
    let rows: Vec<_> = t.rows.iter().map(|r| (r.name, r.results)).collect();
    assert_eq!(rows, [("Q1", 557), ("Q2", 1), ("Q3", 38), ("Q4", 38)]);
}

/// `(query length, queries, pages read over all of them)`.
fn io_cost(identical_pct: u8) -> Vec<(usize, usize, u64)> {
    fig16cd_rows(identical_pct, SCALE)
        .into_iter()
        .map(|r| (r.query_len, r.queries, r.pages))
        .collect()
}

#[test]
fn fig16c_pages_without_identical_siblings() {
    assert_eq!(
        io_cost(0),
        [
            (2, 20, 130),
            (4, 20, 201),
            (6, 20, 212),
            (8, 20, 232),
            (10, 20, 235),
            (12, 20, 235),
        ]
    );
}

#[test]
fn fig16d_pages_with_identical_siblings() {
    assert_eq!(
        io_cost(25),
        [
            (2, 20, 130),
            (4, 20, 195),
            (6, 20, 227),
            (8, 20, 217),
            (10, 20, 237),
            (12, 20, 218),
        ]
    );
}

#[test]
fn every_experiment_runs_and_its_engines_agree() {
    // Figure 16(a)/(b) and the ablations pin no column above, but they
    // assert that ViST and CS agree; run every printer once, tiny.
    for (_, experiment) in xseq_bench::EXPERIMENTS {
        experiment(0.005);
    }
}
