//! # xseq-bench — the paper's evaluation, experiment by experiment
//!
//! One experiment per table/figure of Section 6, over the seeded
//! generators and the engines the paper ran.  Each is two functions:
//! `*_rows` *returns* the table's rows and a printer renders them as the
//! markdown table the paper reports; `repro` dispatches on [`EXPERIMENTS`].
//!
//! Sizes and counts — trie nodes, result sizes, pages, disk accesses — are
//! exact under the seeded generators and pinned by `tests/golden.rs`.
//! Wall-clock columns depend on the host: their *shapes* (who wins, by what
//! factor, where curves bend) are the reproduction target, recorded in
//! `EXPERIMENTS.md`; speed itself is `benchmark/`'s job (`BENCHMARK.json`).

use std::time::Instant;
use xseq::baselines::{constraint_search, naive_search, NodeIndex, PathIndex, VistIndex};
use xseq::datagen::{
    self, queries, random_query_tree, DblpGenerator, SyntheticDataset, SyntheticParams,
    XmarkGenerator, XmarkOptions,
};
use xseq::index::{tree_search, QuerySequence, SearchStats, XmlIndex};
use xseq::schema::{ProbabilityModel, WeightMap};
use xseq::sequence::Strategy;
use xseq::storage::{write_paged_trie, MemStore, PagedTrie};
use xseq::xml::matcher::structure_match;
use xseq::{
    parse_xpath_readonly, Axis, Corpus, DatabaseBuilder, DocId, Document, IndexTelemetry,
    MetricsRegistry, PatternLabel, PlanOptions, PoolTelemetry, SymbolTable, TreePattern, ValueMode,
};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// One experiment: its `repro` name and the printer that runs it at a scale.
pub type Experiment = (&'static str, fn(f64));

/// Experiment registry, in the order `repro all` runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    ("fig14a", |scale| fig14(SyntheticParams::fig14a(), scale)),
    ("fig14b", |scale| fig14(SyntheticParams::fig14b(), scale)),
    ("fig15", fig15),
    ("table5", |scale| xmark_table(true, scale)),
    ("table6", |scale| xmark_table(false, scale)),
    ("table7", table7),
    ("table8", table8),
    ("fig16a", fig16a),
    ("fig16b", fig16b),
    ("fig16c", |scale| fig16cd(0, scale)),
    ("fig16d", |scale| fig16cd(25, scale)),
    ("ablations", ablations),
];

/// Index-side handles into the process-wide registry (`repro --metrics`
/// snapshots it after each experiment).
fn global_index_telemetry() -> IndexTelemetry {
    IndexTelemetry::register(MetricsRegistry::global())
}

/// Pool-side handles into the process-wide registry.
fn global_pool_telemetry() -> PoolTelemetry {
    PoolTelemetry::register(MetricsRegistry::global())
}

/// Scales every dataset-size parameter (1.0 = defaults).
fn scaled(n: usize, scale: f64) -> usize {
    ((n as f64 * scale) as usize).max(100)
}

fn cs_strategy(docs: &[Document], paths: &mut xseq::PathTable, sample: usize) -> Strategy {
    let model = ProbabilityModel::estimate(docs, paths, sample);
    Strategy::Probability(model.priorities(paths, &WeightMap::default()))
}

/// A constraint-sequenced (CS) index over `docs`, its strategy estimated
/// against the same `paths`, reporting into the process-wide registry.
fn cs_index(docs: &[Document], paths: &mut xseq::PathTable) -> XmlIndex {
    let strategy = cs_strategy(docs, paths, 2000);
    let mut index = XmlIndex::build(docs, paths, strategy, PlanOptions::default());
    index.attach_telemetry(global_index_telemetry());
    index
}

/// Trie nodes of an index over `docs` — the size metric of Figures 14/15
/// and Tables 5/6.  `strategy` sees the index's own `PathTable` first: the
/// probability strategy's `PriorityMap` is keyed by path ids, so
/// estimation and build must share one table.
fn index_nodes(
    docs: &[Document],
    strategy: impl FnOnce(&mut xseq::PathTable) -> Strategy,
) -> usize {
    let mut paths = xseq::PathTable::new();
    let strategy = strategy(&mut paths);
    XmlIndex::build(docs, &mut paths, strategy, PlanOptions::default()).node_count()
}

/// Runs `f`; returns its result and the elapsed wall time in milliseconds.
fn timed_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// Builds an exact child-axis pattern from a sampled subtree.
fn pattern_of(doc: &Document) -> TreePattern {
    let root = doc
        .root()
        .expect("pattern_of requires a non-empty sampled document");
    let label = |d: &Document, n: u32| match (d.sym(n).as_elem(), d.sym(n).as_value()) {
        (Some(e), _) => PatternLabel::Elem(e),
        (_, Some(v)) => PatternLabel::Value(v),
        _ => unreachable!(),
    };
    let mut q = TreePattern::root(label(doc, root));
    let mut map = vec![0u32; doc.len()];
    for n in doc.preorder() {
        if n == root {
            continue;
        }
        let p = doc.parent(n).expect("non-root");
        map[n as usize] = q.add(map[p as usize], Axis::Child, label(doc, n));
    }
    q
}

/// Random exact query patterns of roughly `len` nodes drawn from the data.
fn random_patterns(docs: &[Document], len: usize, count: usize, seed: u64) -> Vec<TreePattern> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            let src = &docs[(i * 131) % docs.len()];
            pattern_of(&random_query_tree(src, len, &mut rng))
        })
        .collect()
}

/// Every concrete instantiation of `pattern` searched against the paged
/// trie; returns the sorted, deduplicated union.
fn paged_query(
    paged: &PagedTrie<MemStore>,
    index: &XmlIndex,
    pattern: &TreePattern,
    paths: &xseq::PathTable,
) -> Vec<DocId> {
    let mut docs = Vec::new();
    for qdoc in xseq::index::instantiate(pattern, paths, index.data_paths(), index.options()) {
        // Instantiation yields only trees whose paths are indexed.
        let qseq = QuerySequence::from_document_readonly(&qdoc, paths, index.strategy());
        docs.extend(qseq.map_or_else(Vec::new, |q| tree_search(paged, &q).0));
    }
    docs.sort_unstable();
    docs.dedup();
    docs
}

/// Depth-first vs constraint (CS) index size over one corpus: a row of
/// Figures 14/15 and of Tables 5/6.  Every field is exact under the seeded
/// generators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DfCsRow {
    /// Documents (records) indexed.
    pub docs: usize,
    /// Nodes across the documents, i.e. total sequence elements.
    pub doc_nodes: usize,
    /// Trie nodes under depth-first sequencing.
    pub df_nodes: usize,
    /// Trie nodes under constraint (CS) sequencing.
    pub cs_nodes: usize,
}

impl DfCsRow {
    fn of(docs: &[Document]) -> Self {
        DfCsRow {
            docs: docs.len(),
            doc_nodes: docs.iter().map(Document::len).sum(),
            df_nodes: index_nodes(docs, |_| Strategy::DepthFirst),
            cs_nodes: index_nodes(docs, |paths| cs_strategy(docs, paths, 2000)),
        }
    }

    fn cs_over_df(&self) -> f64 {
        self.cs_nodes as f64 / self.df_nodes as f64
    }
}

// ---------------------------------------------------------------------------
// Figure 14: index size vs dataset size, four sequencing strategies
// ---------------------------------------------------------------------------

/// Figure 14's rows for one dataset (`SyntheticParams::fig14a()` is
/// `L3F5A25I0P40`, `fig14b()` is `L5F3A40I0P5`) at five growth steps: the
/// DF and CS sizes, and the trie nodes under `[Random, Breadth-first]`.
pub fn fig14_rows(params: &SyntheticParams, scale: f64) -> Vec<(DfCsRow, [usize; 2])> {
    let base = scaled(20_000, scale);
    let mut symbols = SymbolTable::with_value_mode(ValueMode::Intern);
    let mut ds = SyntheticDataset::generate(params, base, 14, &mut symbols);
    let mut rows = Vec::new();
    for step in 1..=5 {
        if step > 1 {
            ds.extend(base, 14 + step as u64);
        }
        let random = index_nodes(&ds.docs, |_| Strategy::Random { seed: 5 });
        let breadth_first = index_nodes(&ds.docs, |_| Strategy::BreadthFirst);
        rows.push((DfCsRow::of(&ds.docs), [random, breadth_first]));
    }
    rows
}

fn fig14(params: SyntheticParams, scale: f64) {
    println!("## Figure 14 — index size, dataset {}", params.name());
    println!();
    println!(
        "| documents | avg seq len | Random | Breadth-first | Depth-first | Constraint (CS) |"
    );
    println!("|---|---|---|---|---|---|");
    for (r, [random, breadth_first]) in fig14_rows(&params, scale) {
        println!(
            "| {} | {:.1} | {random} | {breadth_first} | {} | {} |",
            r.docs,
            r.doc_nodes as f64 / r.docs as f64,
            r.df_nodes,
            r.cs_nodes
        );
    }
    println!();
}

// ---------------------------------------------------------------------------
// Figure 15: impact of identical sibling nodes on index size
// ---------------------------------------------------------------------------

/// Figure 15's rows: `L3F5A25I?P40` at each `I` (percentage of identical
/// sibling nodes) from 0 to 100.
pub fn fig15_rows(scale: f64) -> Vec<(u8, DfCsRow)> {
    let n = scaled(30_000, scale);
    [0u8, 20, 40, 60, 80, 100]
        .into_iter()
        .map(|identical_pct| {
            let params = SyntheticParams {
                identical_pct,
                ..SyntheticParams::fig14a()
            };
            let mut symbols = SymbolTable::with_value_mode(ValueMode::Intern);
            let ds = SyntheticDataset::generate(&params, n, 15, &mut symbols);
            (identical_pct, DfCsRow::of(&ds.docs))
        })
        .collect()
}

fn fig15(scale: f64) {
    println!("## Figure 15 — impact of identical sibling nodes (L3F5A25I?P40)");
    println!();
    println!("| I (%) | avg seq len | Depth-first | Constraint (CS) | CS/DF |");
    println!("|---|---|---|---|---|");
    for (identical_pct, r) in fig15_rows(scale) {
        println!(
            "| {identical_pct} | {:.1} | {} | {} | {:.2} |",
            r.doc_nodes as f64 / r.docs as f64,
            r.df_nodes,
            r.cs_nodes,
            r.cs_over_df()
        );
    }
    println!();
}

// ---------------------------------------------------------------------------
// Tables 5 and 6: XMark index sizes
// ---------------------------------------------------------------------------

/// The rows of Table 5 (`identical_siblings`) or Table 6 (without): XMark
/// index size at five corpus sizes.
pub fn xmark_size_rows(identical_siblings: bool, scale: f64) -> Vec<DfCsRow> {
    (1..=5)
        .map(|step| {
            let mut symbols = SymbolTable::with_value_mode(ValueMode::Intern);
            let docs = XmarkGenerator::new(8, XmarkOptions { identical_siblings })
                .generate(scaled(10_000 * step, scale), &mut symbols);
            DfCsRow::of(&docs)
        })
        .collect()
}

fn xmark_table(identical: bool, scale: f64) {
    let (number, siblings) = if identical { (5, "") } else { (6, "no ") };
    println!("## Table {number} — XMark index size ({siblings}identical sibling nodes)");
    println!();
    println!("| Records | Nodes | DF | CS | CS/DF |");
    println!("|---|---|---|---|---|");
    for r in xmark_size_rows(identical, scale) {
        println!(
            "| {} | {} | {} | {} | {:.2} |",
            r.docs,
            r.doc_nodes,
            r.df_nodes,
            r.cs_nodes,
            r.cs_over_df()
        );
    }
    println!();
}

// ---------------------------------------------------------------------------
// Table 7: query performance on XMark
// ---------------------------------------------------------------------------

/// One query of Table 7.
#[derive(Debug, Clone)]
pub struct Table7Row {
    /// `Q1`..`Q3`.
    pub name: &'static str,
    /// Pattern nodes of the parsed query.
    pub query_len: usize,
    /// Matching records (the paged and in-memory tries agree).
    pub results: usize,
    /// Buffer-pool misses answering the query from a cold pool.
    pub disk_accesses: u64,
    /// Elapsed in-memory query time, milliseconds (host-dependent).
    pub ms: f64,
}

/// Table 7: the indexed corpus and one row per query.
#[derive(Debug, Clone)]
pub struct Table7 {
    /// XMark records indexed.
    pub records: usize,
    /// Trie nodes of the CS index.
    pub trie_nodes: usize,
    /// 4 KiB pages the paged trie occupies.
    pub pages: u32,
    /// Q3 with its constants instantiated from the generated data (the
    /// paper's person11304 existed in *their* XMark instance).
    pub q3: String,
    /// Q1–Q3, less any naming a symbol the corpus lacks.
    pub rows: Vec<Table7Row>,
}

/// Table 7: Q1–Q3 on XMark — query length, result size, disk accesses,
/// elapsed time.  Asserts that the paged trie answers like the in-memory
/// one.
pub fn table7_rows(scale: f64) -> Table7 {
    let records = scaled(60_000, scale);
    let mut corpus = Corpus::new(ValueMode::Intern);
    corpus.docs =
        XmarkGenerator::new(8, XmarkOptions::default()).generate(records, &mut corpus.symbols);
    let index = cs_index(&corpus.docs, &mut corpus.paths);

    let mut store = MemStore::new();
    let pages = write_paged_trie(index.trie(), &mut store).expect("in-memory store");
    let paged = PagedTrie::open(store, 4096).expect("valid layout");
    paged.attach_pool_telemetry(global_pool_telemetry());

    let (q3_person, q3_date) =
        datagen::xmark::q3_constants(&corpus.docs, &corpus.symbols).expect("closed auctions exist");
    let q3 = format!("//closed_auction[seller/person='{q3_person}']/date[text='{q3_date}']");
    let rows = [
        ("Q1", queries::XMARK_Q1),
        ("Q2", queries::XMARK_Q2),
        ("Q3", q3.as_str()),
    ]
    .into_iter()
    .filter_map(|(name, expr)| {
        // `None`: the corpus lacks a symbol the query names (tiny scales
        // only), so its answer is provably empty and the row is left out.
        let pattern = parse_xpath_readonly(expr, &corpus.symbols).expect("paper query parses")?;
        let (outcome, ms) = timed_ms(|| index.query(&pattern, &corpus.paths));

        paged.reset_pool();
        let disk_docs = paged_query(&paged, &index, &pattern, &corpus.paths);
        assert_eq!(disk_docs, outcome.docs, "paged agrees with memory");
        Some(Table7Row {
            name,
            query_len: pattern.len(),
            results: outcome.docs.len(),
            disk_accesses: paged.pool_stats().misses,
            ms,
        })
    })
    .collect();
    Table7 {
        records,
        trie_nodes: index.node_count(),
        pages,
        q3,
        rows,
    }
}

fn table7(scale: f64) {
    println!("## Table 7 — query performance on XMark");
    println!();
    let t = table7_rows(scale);
    println!(
        "{} records, {} trie nodes, paged into {} × 4 KiB pages",
        t.records, t.trie_nodes, t.pages
    );
    println!();
    println!("| query | query length | result size | # disk accesses | time (ms) |");
    println!("|---|---|---|---|---|");
    for r in &t.rows {
        println!(
            "| {} | {} | {} | {} | {:.2} |",
            r.name, r.query_len, r.results, r.disk_accesses, r.ms
        );
    }
    println!();
    println!("(Q3 instantiated as: {})", t.q3);
    println!();
}

// ---------------------------------------------------------------------------
// Table 8: query performance on DBLP, engine comparison
// ---------------------------------------------------------------------------

/// One query of Table 8.
#[derive(Debug, Clone)]
pub struct Table8Row {
    /// `Q1`..`Q4`.
    pub name: &'static str,
    /// The XPath expression.
    pub expr: &'static str,
    /// Matching records — one number, because the four engines are
    /// asserted to return the identical id list.
    pub results: usize,
    /// Elapsed milliseconds for the path index, node index, ViST and CS,
    /// in that order (host-dependent).
    pub ms: [f64; 4],
}

/// Table 8: the indexed corpus and one row per query.
#[derive(Debug, Clone)]
pub struct Table8 {
    /// DBLP records indexed.
    pub records: usize,
    /// Document nodes across the records.
    pub nodes: usize,
    /// Q1–Q4, less any naming a symbol the corpus lacks.
    pub rows: Vec<Table8Row>,
}

/// Table 8: Q1–Q4 on DBLP — path index vs node index vs ViST vs CS.
/// Asserts that all four engines return the same documents.
pub fn table8_rows(scale: f64) -> Table8 {
    let records = scaled(100_000, scale);
    let mut corpus = Corpus::new(ValueMode::Intern);
    corpus.docs = DblpGenerator::new(7).generate(records, &mut corpus.symbols);

    let path_idx = PathIndex::build(&corpus.docs, &mut corpus.paths);
    let node_idx = NodeIndex::build(&corpus.docs);
    let vist = VistIndex::build(&corpus.docs, &mut corpus.paths);
    let cs = cs_index(&corpus.docs, &mut corpus.paths);

    let rows = queries::DBLP_QUERIES
        .iter()
        .filter_map(|&(name, expr)| {
            // `None`: a symbol the corpus lacks (tiny scales only) proves
            // the answer empty; the row is left out.
            let pattern = parse_xpath_readonly(expr, &corpus.symbols).expect("valid XPath")?;

            let ((r1, _), t1) = timed_ms(|| path_idx.query(&pattern, &corpus.docs, &corpus.paths));
            let ((r2, _), t2) = timed_ms(|| node_idx.query(&pattern, &corpus.docs));
            let ((r3, _), t3) = timed_ms(|| vist.query(&pattern, &corpus.docs, &mut corpus.paths));
            let (r4, t4) = timed_ms(|| cs.query(&pattern, &corpus.paths).docs);
            assert_eq!(r1, r2);
            assert_eq!(r2, r3);
            assert_eq!(r3, r4);
            Some(Table8Row {
                name,
                expr,
                results: r4.len(),
                ms: [t1, t2, t3, t4],
            })
        })
        .collect();
    Table8 {
        records,
        nodes: corpus.total_nodes(),
        rows,
    }
}

fn table8(scale: f64) {
    println!("## Table 8 — query performance on DBLP (ms)");
    println!();
    let t = table8_rows(scale);
    println!(
        "{} records, avg {:.1} nodes/record",
        t.records,
        t.nodes as f64 / t.records as f64
    );
    println!();
    println!("| query | results | paths | nodes | ViST | CS | expression |");
    println!("|---|---|---|---|---|---|---|");
    for r in &t.rows {
        println!(
            "| {} | {} | {:.2} | {:.2} | {:.2} | {:.2} | `{}` |",
            r.name, r.results, r.ms[0], r.ms[1], r.ms[2], r.ms[3], r.expr
        );
    }
    println!();
}

// ---------------------------------------------------------------------------
// Figure 16: synthetic query performance
// ---------------------------------------------------------------------------

/// Figure 16(a): CS vs ViST query time as the dataset grows
/// (`L3F5A25I10P40`, query length 5).  Both columns are wall-clock.
fn fig16a(scale: f64) {
    println!("## Figure 16(a) — CS vs ViST, scaling dataset (L3F5A25I10P40, query length 5)");
    println!();
    println!("| documents | ViST (µs/query) | CS (µs/query) | speedup |");
    println!("|---|---|---|---|");
    let mut symbols = SymbolTable::with_value_mode(ValueMode::Intern);
    let base = scaled(50_000, scale);
    let mut ds = SyntheticDataset::generate(&SyntheticParams::fig16(), base, 16, &mut symbols);
    for step in 1..=4 {
        if step > 1 {
            ds.extend(ds.docs.len(), 16 + step as u64); // double each step
        }
        cs_vs_vist_row(ds.docs.len(), &ds.docs, 5, 30);
    }
    println!();
}

/// Figure 16(b): CS vs ViST as query length grows (fixed dataset).  Both
/// columns are wall-clock.
fn fig16b(scale: f64) {
    println!("## Figure 16(b) — CS vs ViST, query length sweep (L3F5A25I10P40)");
    println!();
    println!("| query length | ViST (µs/query) | CS (µs/query) | speedup |");
    println!("|---|---|---|---|");
    let mut symbols = SymbolTable::with_value_mode(ValueMode::Intern);
    let n = scaled(200_000, scale);
    let ds = SyntheticDataset::generate(&SyntheticParams::fig16(), n, 16, &mut symbols);
    for len in [2usize, 4, 6, 8, 10, 12] {
        cs_vs_vist_row(len, &ds.docs, len, 20);
    }
    println!();
}

/// One row of Figure 16(a)/(b): `count` random queries of `len` nodes
/// against ViST and CS (asserted to agree), mean microseconds per query.
fn cs_vs_vist_row(label: usize, docs: &[Document], len: usize, count: usize) {
    let mut paths = xseq::PathTable::new();
    let vist = VistIndex::build(docs, &mut paths);
    let mut paths_cs = xseq::PathTable::new();
    let cs = cs_index(docs, &mut paths_cs);
    let patterns = random_patterns(docs, len, count, 4242);

    let (vist_results, vist_ms) = timed_ms(|| {
        let hits = patterns
            .iter()
            .map(|q| vist.query(q, docs, &mut paths).0.len());
        hits.sum::<usize>()
    });
    let (cs_results, cs_ms) = timed_ms(|| {
        let hits = patterns.iter().map(|q| cs.query(q, &paths_cs).docs.len());
        hits.sum::<usize>()
    });
    assert_eq!(vist_results, cs_results, "engines agree");
    let us_per_query = 1e3 / patterns.len() as f64;
    let (tv, tc) = (vist_ms * us_per_query, cs_ms * us_per_query);
    println!(
        "| {label} | {tv:.1} | {tc:.1} | {:.1}× |",
        tv / tc.max(0.001)
    );
}

/// One row of Figure 16(c)/(d).
#[derive(Debug, Clone)]
pub struct IoRow {
    /// Query length in pattern nodes.
    pub query_len: usize,
    /// Queries run at this length.
    pub queries: usize,
    /// Pages read over all of them, each from a cold pool (the table
    /// prints `pages / queries`).
    pub pages: u64,
    /// Mean microseconds per query (host-dependent).
    pub us_per_query: f64,
}

/// Figure 16(c) (`identical_pct` 0) and 16(d) (25): I/O cost and time vs
/// query length on `L3F5A25I?P40`.
pub fn fig16cd_rows(identical_pct: u8, scale: f64) -> Vec<IoRow> {
    let n = scaled(100_000, scale);
    let params = SyntheticParams {
        identical_pct,
        ..SyntheticParams::fig14a()
    };
    let mut symbols = SymbolTable::with_value_mode(ValueMode::Intern);
    let ds = SyntheticDataset::generate(&params, n, 18, &mut symbols);
    let mut paths = xseq::PathTable::new();
    let index = cs_index(&ds.docs, &mut paths);
    let mut store = MemStore::new();
    write_paged_trie(index.trie(), &mut store).expect("in-memory store");
    let paged = PagedTrie::open(store, 1 << 20).expect("valid layout");
    paged.attach_pool_telemetry(global_pool_telemetry());

    [2usize, 4, 6, 8, 10, 12]
        .into_iter()
        .map(|query_len| {
            let patterns = random_patterns(&ds.docs, query_len, 20, 777);
            let mut pages = 0u64;
            let t = Instant::now();
            for q in &patterns {
                paged.reset_pool();
                paged_query(&paged, &index, q, &paths);
                pages += paged.pool_stats().misses;
            }
            IoRow {
                query_len,
                queries: patterns.len(),
                pages,
                us_per_query: t.elapsed().as_secs_f64() * 1e6 / patterns.len() as f64,
            }
        })
        .collect()
}

fn fig16cd(identical_pct: u8, scale: f64) {
    let (panel, siblings) = match identical_pct {
        0 => ('c', "no identical siblings".to_string()),
        i => ('d', format!("identical siblings, I={i}")),
    };
    println!("## Figure 16({panel}) — I/O and time vs query length ({siblings})");
    println!();
    println!("| query length | I/O cost (pages) | time (µs/query) |");
    println!("|---|---|---|");
    for r in fig16cd_rows(identical_pct, scale) {
        println!(
            "| {} | {:.1} | {:.1} |",
            r.query_len,
            r.pages as f64 / r.queries as f64,
            r.us_per_query
        );
    }
    println!();
}

// ---------------------------------------------------------------------------
// Ablations: what each design choice DESIGN.md calls out costs and saves
// ---------------------------------------------------------------------------

/// `repro ablations`: the matchers and the buffer pool, each against its
/// alternative, with exact work counters beside the host-dependent times.
/// The corpus is `L3F5A25I100P40` — every node has an identical sibling,
/// so the sibling-cover check has work to do — under a depth-first index,
/// queried with 50 sequences of 2–7 nodes sampled from the documents.
/// Naïve matching has false alarms (and false dismissals where sibling
/// order differs); Algorithm 1 without isomorphic expansion is sound but
/// still order-sensitive; the order-free tree search is sound and complete.
fn ablations(scale: f64) {
    println!("## Ablations — matchers and buffer-pool capacity (L3F5A25I100P40, depth-first)");
    println!();
    let mut symbols = SymbolTable::with_value_mode(ValueMode::Intern);
    let params = SyntheticParams {
        identical_pct: 100,
        ..SyntheticParams::fig14a()
    };
    let ds = SyntheticDataset::generate(&params, scaled(20_000, scale), 9, &mut symbols);
    let mut paths = xseq::PathTable::new();
    let index = XmlIndex::build(
        &ds.docs,
        &mut paths,
        Strategy::DepthFirst,
        PlanOptions::default(),
    );
    let mut rng = StdRng::seed_from_u64(9);
    let queries: Vec<QuerySequence> = (0..50)
        .map(|i| {
            let qdoc = random_query_tree(&ds.docs[(i * 401) % ds.docs.len()], 2 + i % 6, &mut rng);
            QuerySequence::from_document_readonly(&qdoc, &paths, &Strategy::DepthFirst)
                .expect("a query tree cut from an indexed document has indexed paths")
        })
        .collect();
    let trie = index.trie();
    println!(
        "{} documents, {} trie nodes, {} query sequences",
        ds.docs.len(),
        index.node_count(),
        queries.len()
    );
    println!();
    println!(
        "| matcher | results | candidates | cover rejections | link probes | time (µs/query) |"
    );
    println!("|---|---|---|---|---|---|");
    for (name, (results, st, us)) in [
        (
            "naive (no constraint check)",
            time_searches(&queries, |q| naive_search(trie, q)),
        ),
        (
            "Algorithm 1 (sibling cover)",
            time_searches(&queries, |q| constraint_search(trie, q)),
        ),
        (
            "tree search (selectivity-ordered)",
            time_searches(&queries, |q| tree_search(trie, q)),
        ),
    ] {
        println!(
            "| {name} | {results} | {} | {} | {} | {us:.1} |",
            st.candidates, st.cover_rejections, st.link_probes
        );
    }
    println!();

    println!("| pool capacity (pages) | results | pool misses | pool hits | time (µs/query) |");
    println!("|---|---|---|---|---|");
    for capacity in [8usize, 64, 4096] {
        let mut store = MemStore::new();
        write_paged_trie(trie, &mut store).expect("in-memory store");
        let paged = PagedTrie::open(store, capacity).expect("valid layout");
        let (results, _, us) = time_searches(&queries, |q| tree_search(&paged, q));
        let pool = paged.pool_stats();
        println!(
            "| {capacity} | {results} | {} | {} | {us:.1} |",
            pool.misses, pool.hits
        );
    }
    println!();
}

/// One pass of `search` over `queries`: total results, summed work
/// counters, mean microseconds per query.
fn time_searches(
    queries: &[QuerySequence],
    search: impl Fn(&QuerySequence) -> (Vec<DocId>, SearchStats),
) -> (usize, SearchStats, f64) {
    let mut results = 0usize;
    let mut stats = SearchStats::default();
    let t = Instant::now();
    for q in queries {
        let (docs, st) = search(q);
        results += docs.len();
        stats.absorb(st);
    }
    let us = t.elapsed().as_secs_f64() * 1e6 / queries.len() as f64;
    (results, stats, us)
}

/// Builds a small, fully instrumented XMark database, drives a
/// representative mixed workload over it — queries, an insert, a removal,
/// a compaction — then writes a complete diagnostics bundle into `dir`:
/// the engine behind `repro --diag DIR` (validated in CI by
/// `cargo xtask diagcheck DIR`).
pub fn diagnostics_bundle(dir: &str) {
    use std::time::Duration;
    println!("## Diagnostics bundle — {dir}");
    println!();
    let mut symbols = SymbolTable::with_value_mode(ValueMode::Intern);
    let docs = XmarkGenerator::new(8, XmarkOptions::default()).generate(400, &mut symbols);
    let corpus = Corpus {
        symbols,
        paths: xseq::PathTable::new(),
        docs,
        parse_histogram: None,
    };
    let mut db = DatabaseBuilder::new()
        .trace_config(xseq::TraceConfig::default())
        .integrity_spot_check(0.1)
        .build_from_corpus(corpus)
        .expect("xmark corpus indexes");
    // Every query counts as slow, so the bundle's slow-query log holds the
    // workload's latest traces and the journal its `query.slow` events.
    db.set_slow_query_threshold(Duration::ZERO);
    // The paper's queries plus structural ones that always hit, so the
    // bundle captures real plan/search activity on a small corpus.
    let mut exprs: Vec<&str> = queries::XMARK_QUERIES.iter().map(|(_, q)| *q).collect();
    exprs.extend(["/site//item/location", "//person/name", "/site//mail/date"]);
    for round in 0..6 {
        for e in &exprs {
            db.query_xpath(e).expect("paper query parses");
        }
        if round == 2 {
            let id = db
                .insert_document("<site><people><person><name>diag</name></person></people></site>")
                .expect("diag doc parses");
            db.remove_document(id);
            db.compact();
        }
    }
    let report = db.diagnostics(dir).expect("diagnostics bundle writes");
    for f in &report.files {
        println!("- {f}");
    }
    println!();
    println!(
        "wrote {} artifacts to {}",
        report.files.len(),
        report.dir.display()
    );
    println!();
}

/// Sanity sweep used by `repro check`: every experiment at tiny scale, with
/// engine-agreement assertions active throughout.
pub fn check() {
    for (_, experiment) in EXPERIMENTS {
        experiment(0.02);
    }
    // extra safety: CS answers equal brute force on a fresh corpus
    let mut symbols = SymbolTable::with_value_mode(ValueMode::Intern);
    let ds = SyntheticDataset::generate(&SyntheticParams::fig16(), 300, 1, &mut symbols);
    let mut paths = xseq::PathTable::new();
    let strat = cs_strategy(&ds.docs, &mut paths, 0);
    let index = XmlIndex::build(&ds.docs, &mut paths, strat, PlanOptions::default());
    for q in random_patterns(&ds.docs, 4, 25, 3) {
        let got = index.query(&q, &paths).docs;
        let expect: Vec<u32> = ds
            .docs
            .iter()
            .enumerate()
            .filter(|(_, d)| structure_match(&q, d))
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(got, expect);
    }
    println!("check: all experiments ran, all agreement assertions held");
}

// ---------------------------------------------------------------------------
// `repro --verify`: integrity verification across corpora
// ---------------------------------------------------------------------------

/// `repro --verify`: builds an index per sequencing strategy over the
/// synthetic, XMark and DBLP corpora and runs the full invariant verifier
/// over each — preorder-label nesting, subtree extents, path-link order
/// and coverage, sibling-cover bookkeeping, `f2` validity (Eq. 3) and the
/// Theorem 1 round-trip of every stored sequence.
///
/// Prints one markdown row per (corpus, strategy) pair and returns `true`
/// when every report is clean.
pub fn verify_corpora(scale: f64) -> bool {
    println!("## Index integrity — invariant verification per corpus");
    println!();
    println!("| corpus | docs | strategy | nodes | links | sequences | violations |");
    println!("|---|---|---|---|---|---|---|");
    let mut all_clean = true;

    let mut corpora: Vec<(&str, Corpus)> = Vec::new();
    {
        let mut c = Corpus::new(ValueMode::Intern);
        let ds = SyntheticDataset::generate(
            &SyntheticParams::fig16(),
            scaled(20_000, scale),
            16,
            &mut c.symbols,
        );
        c.docs = ds.docs;
        corpora.push(("synthetic L3F5A25I10P40", c));
    }
    {
        let mut c = Corpus::new(ValueMode::Intern);
        c.docs = XmarkGenerator::new(8, XmarkOptions::default())
            .generate(scaled(10_000, scale), &mut c.symbols);
        corpora.push(("xmark", c));
    }
    {
        let mut c = Corpus::new(ValueMode::Intern);
        c.docs = DblpGenerator::new(7).generate(scaled(20_000, scale), &mut c.symbols);
        corpora.push(("dblp", c));
    }

    for (name, corpus) in &mut corpora {
        let n = corpus.docs.len();
        for strat_name in ["random", "breadth-first", "depth-first", "cs"] {
            let mut paths = xseq::PathTable::new();
            let strategy = match strat_name {
                "random" => Strategy::Random { seed: 5 },
                "breadth-first" => Strategy::BreadthFirst,
                "depth-first" => Strategy::DepthFirst,
                _ => cs_strategy(&corpus.docs, &mut paths, 2000),
            };
            let index = XmlIndex::build(&corpus.docs, &mut paths, strategy, PlanOptions::default());
            let report = index.verify_integrity(&paths);
            println!(
                "| {} | {} | {} | {} | {} | {} | {} |",
                name,
                n,
                strat_name,
                report.nodes_checked,
                report.links_checked,
                report.sequences_checked,
                report.violation_count()
            );
            if !report.is_clean() {
                all_clean = false;
                eprint!("{}", report.render());
            }
        }
    }
    // The update overlay: every corpus re-verified with a live delta
    // segment and tombstones (the merged report walks both tries), then
    // once more after compaction has folded the overlay back in.  Before
    // this pass existed, `--verify` silently skipped the delta segment.
    for (name, corpus) in corpora {
        let n = corpus.docs.len();
        let nbase = (n * 9 / 10).max(1);
        let extra_xml: Vec<String> = corpus.docs[nbase..]
            .iter()
            .map(|d| xseq::xml::write_document(d, &corpus.symbols))
            .collect();
        let base = Corpus {
            symbols: corpus.symbols.clone(),
            paths: xseq::PathTable::new(),
            docs: corpus.docs[..nbase].to_vec(),
            parse_histogram: None,
        };
        let mut db = DatabaseBuilder::new()
            .build_from_corpus(base)
            .expect("corpus indexes");
        for xml in &extra_xml {
            db.insert_document(xml).expect("written doc reparses");
        }
        for id in (0..nbase as u32).step_by(7) {
            db.remove_document(id);
        }
        for phase in ["pre-compact", "post-compact"] {
            if phase == "post-compact" {
                db.compact();
            }
            let report = db.verify_integrity();
            println!(
                "| {} | {} | {} | {} | {} | {} | {} |",
                name,
                n,
                phase,
                report.nodes_checked,
                report.links_checked,
                report.sequences_checked,
                report.violation_count()
            );
            if !report.is_clean() {
                all_clean = false;
                eprint!("{}", report.render());
            }
        }
    }
    println!();
    println!(
        "verify: {}",
        if all_clean {
            "all invariants hold on every corpus"
        } else {
            "INTEGRITY VIOLATIONS FOUND"
        }
    );
    all_clean
}
