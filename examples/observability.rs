//! Observability: per-phase latency, work counters, and query EXPLAIN.
//!
//! ```sh
//! cargo run --example observability
//! cargo run --example observability -- --diag target/diag
//! ```
//!
//! Every database owns a metrics registry.  Ingestion records `xml.parse`,
//! index construction records `sequence.encode`, and each query records
//! `query.parse` / `index.plan` / `index.search` latencies plus the
//! matcher's work counters (a query searches its wildcard assignments
//! directly, so it encodes no sequence).  Each phase is timed once,
//! into the query's outcome, and EXPLAIN reads the same numbers: its rows,
//! `unattributed` included, sum to the query's wall time.  Paged storage
//! mirrors its page traffic into `storage.pool.*` when attached.  With
//! tracing enabled, every query's span tree is built from that record once
//! the query finishes, and slow ones are retained in the slow-query log.
//! This example runs a small workload and prints one query's EXPLAIN, the
//! slow-query log with its Chrome trace export, the flight-recorder
//! journal, the metrics table, an interval delta, and the JSON export.
//! With `--diag DIR` it finishes by writing the whole state as one
//! self-contained diagnostics bundle (validated in CI by
//! `cargo xtask diagcheck DIR`).

use std::time::Duration;
use xseq::index::{instantiate, tree_search, QuerySequence};
use xseq::storage::{write_paged_trie, MemStore, PagedTrie};
use xseq::telemetry::{render_table, to_json};
use xseq::{
    parse_xpath_readonly, DatabaseBuilder, PathId, PathTable, Sequencing, SymbolTable, TraceConfig,
};

/// Renders a schema node class back into `/a/b[='v']` form for display.
fn render_class(paths: &PathTable, symbols: &SymbolTable, c: PathId) -> String {
    let mut out = String::new();
    for s in paths.symbols(c) {
        if let Some(d) = s.as_elem() {
            out.push('/');
            out.push_str(symbols.name(d));
        } else if let Some(v) = s.as_value() {
            out.push_str("['");
            out.push_str(symbols.values.resolve(v).unwrap_or("?"));
            out.push_str("']");
        }
    }
    out
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // `--diag DIR`: finish by writing the diagnostics bundle into DIR.
    let args: Vec<String> = std::env::args().skip(1).collect();
    let diag_dir = match args.as_slice() {
        [] => None,
        [flag, dir] if flag == "--diag" => Some(dir.clone()),
        _ => {
            eprintln!("usage: observability [--diag DIR]");
            std::process::exit(2);
        }
    };
    let docs = [
        r#"<project name="xml">
             <research><manager>tom</manager><location>newyork</location></research>
             <develop><manager>johnson</manager><location>boston</location></develop>
           </project>"#,
        r#"<project name="db"><research><location>boston</location></research></project>"#,
        r#"<project name="web"><develop><location>seattle</location></develop></project>"#,
    ];
    let mut db = DatabaseBuilder::new()
        .sequencing(Sequencing::Probability)
        .trace_config(TraceConfig {
            slow_threshold: Duration::ZERO, // demo: retain every query as "slow"
            ..TraceConfig::default()
        })
        .build_from_xml(docs)?;

    // --- per-query EXPLAIN ------------------------------------------------
    let outcome = db.query_xpath_full("/project//location[text='boston']")?;
    println!("EXPLAIN /project//location[text='boston']");
    print!("{}", outcome.explain());
    println!();

    // --- the slow-query log and the Chrome trace export -------------------
    let slow = db.slow_queries();
    println!("slow-query log: {} trace(s) retained", slow.len());
    if let Some(trace) = slow.last() {
        let json = trace.to_chrome_json();
        println!(
            "chrome trace JSON for {:?}: {} bytes (load in chrome://tracing or Perfetto)",
            trace.name,
            json.len()
        );
    }
    println!();

    // --- interval measurement via snapshot/delta --------------------------
    let before = db.metrics();
    for q in ["/project/research", "//location", "/project/*/manager"] {
        db.query_xpath(q)?;
    }
    let after = db.metrics();
    let delta = after.delta(&before);
    println!(
        "3 queries just ran: index.search count={} candidates={}",
        delta
            .histogram("index.search")
            .map(|h| h.count)
            .unwrap_or(0),
        delta.counter("index.search.candidates"),
    );
    println!();

    // --- the workload profiler (Eq. 6 input) ------------------------------
    // Every executed query lands in a per-class accounting: frequency,
    // result cardinality, and latency per schema node class — the raw
    // material for the paper's query weight `w(C)`.
    let profile = db.workload_profile();
    println!(
        "workload profile: {} queries over {} classes ({} unclassified)",
        profile.queries(),
        profile.len(),
        profile.unclassified()
    );
    for (class, stats) in profile.iter() {
        println!(
            "  {:<40} freq {:.2}  queries {}  mean results {:.1}",
            render_class(&db.corpus().paths, &db.corpus().symbols, class),
            profile.frequency(class),
            stats.queries,
            stats.mean_results().unwrap_or(0.0),
        );
    }
    println!("profile JSON export: {} bytes", profile.to_json().len());
    println!();

    // --- paged storage traffic into the same registry ---------------------
    let mut store = MemStore::new();
    write_paged_trie(db.index().trie(), &mut store)?;
    let paged = PagedTrie::open(store, 16)?;
    paged.attach_pool_telemetry(db.pool_telemetry());
    let (corpus, index) = (db.corpus(), db.index());
    // `None` would mean a symbol the corpus lacks: the answer is empty.
    if let Some(pattern) = parse_xpath_readonly("//location", &corpus.symbols)? {
        for qdoc in instantiate(&pattern, &corpus.paths, index.data_paths(), index.options()) {
            // Instantiation yields only trees whose paths are indexed.
            if let Some(qs) =
                QuerySequence::from_document_readonly(&qdoc, &corpus.paths, index.strategy())
            {
                let _ = tree_search(&paged, &qs);
            }
        }
    }
    let pool = paged.pool_stats();
    println!(
        "paged query: {} hits, {} misses (hit ratio {:.0}%)",
        pool.hits,
        pool.misses,
        pool.hit_ratio().unwrap_or(0.0) * 100.0
    );
    println!();

    // --- deep index statistics + memory attribution -----------------------
    // One read-only walk over frozen ∪ delta: trie shape, sequence-length
    // distribution, link density, overlay occupancy, and modelled heap
    // bytes per component (also mirrored into the `memory.*` gauges).
    print!("{}", db.stats().render());
    println!();

    // --- the flight recorder ----------------------------------------------
    // Every lifecycle milestone — builds, tier merges, compactions,
    // configuration changes, integrity violations, slow queries — lands in
    // a bounded journal the moment it happens (per-document inserts and
    // removals are counted by the `update.*` histograms instead).  Updates
    // exercise it here; the threshold change below flight-records itself.
    db.set_slow_query_threshold(Duration::from_secs(30));
    let id = db.insert_document(
        r#"<project name="ops"><develop><location>berlin</location></develop></project>"#,
    )?;
    db.remove_document(id);
    db.compact();
    let counts = db.events().counts();
    println!(
        "flight recorder: {} events recorded ({} warn+, journal JSONL export below)",
        counts.recorded,
        counts.by_severity[2] + counts.by_severity[3]
    );
    for e in db.events().events() {
        println!("  #{} [{}] {}", e.seq, e.severity.as_str(), e.name);
    }
    println!();

    // --- the full registry ------------------------------------------------
    println!("{}", render_table(&db.metrics()));
    println!("JSON export:\n{}", to_json(&db.metrics()));

    // --- one-command diagnostics bundle -----------------------------------
    if let Some(dir) = diag_dir {
        let report = db.diagnostics(&dir)?;
        println!(
            "diagnostics bundle: {} artifacts -> {}",
            report.files.len(),
            report.dir.display()
        );
    }
    Ok(())
}
