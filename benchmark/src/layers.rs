//! The traced run: every layer timed from outside.
//!
//! The same operation lists as the untraced run are replayed with one root
//! span per operation.  Under it, one child span wraps the `Database` call
//! and further children wrap a staged replay of the same operation through
//! each crate's public functions — `parse_xpath_readonly`, `instantiate`,
//! `QuerySequence::from_document_readonly`, `tree_search_with`,
//! `Corpus::parse_and_push`, `ProbabilityModel::estimate`,
//! `sequence_document`, `SequenceTrie::bulk_load` / `freeze`,
//! `XmlIndex::insert_delta` / `remove_doc` / `maybe_merge`,
//! `write_paged_trie` and `PagedTrie`.  The `Database` call minus the staged
//! layers is the unattributed remainder the `core.*` metrics report.
//!
//! The staged replay must agree with the database: the same ids for every
//! query, and a trie `identical_to` the database's after every build and
//! compaction.  A disagreement is a failed operation.

use crate::alloc::count_live_bytes;
use crate::calib::factor;
use crate::phases::{
    build, pool_threads, query_rounds, update_pass, verify, warm_up, Calls, Checks, Direct,
    QuerySamples, Round, RoundSize, Run, UpdateSamples,
};
use crate::report::{Report, PER_LAYER};
use crate::stats::{median, quantile, sorted, tail_p};
use crate::trace::Spans;
use crate::workload::{Class, Expect, Inputs, Phase, Spec};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;
use xseq::index::search::{filter_tombstones, tree_search, tree_search_with, SearchScratch};
use xseq::index::{instantiate, QuerySequence, SearchStats, SequenceTrie};
use xseq::index::{DEFAULT_MEMTABLE_LIMIT, DEFAULT_TIER_RATIO};
use xseq::schema::WeightMap;
use xseq::sequence::sequence_document;
use xseq::storage::{write_paged_trie, MemStore};
use xseq::{
    parse_xpath_readonly, CompactionReport, Corpus, Database, DatabaseBuilder, DocId, Error,
    PagedTrie, PlanOptions, ProbabilityModel, Strategy, ValueMode, XmlIndex,
};

/// The per-layer values of one traced run, by metric name.
#[derive(Default)]
struct Layers(Vec<(&'static str, f64)>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _, _)| *n == name),
            "{name} is not a declared per-layer metric"
        );
        self.0.push((name, value));
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }
}

/// What the staged replay of one query measured.
#[derive(Debug, Default, Clone)]
struct QueryRecord {
    call_ns: u64,
    parse_ns: u64,
    plan_ns: u64,
    encode_ns: u64,
    search_ns: u64,
    instantiations: u64,
    variants: u64,
    results: u64,
    segments: u64,
    /// The expression named a symbol no document holds: no descent needed.
    empty: bool,
    stats: SearchStats,
}

/// The front half of a query's staged replay — `query.parse`, `index.plan`,
/// `sequence.encode`, one span each — giving its concrete variants encoded
/// for the matcher.  No variants when the expression names a symbol no
/// document holds.
fn staged_plan(
    db: &Database,
    expr: &str,
    spans: &mut Spans,
    rec: &mut QueryRecord,
) -> Vec<QuerySequence> {
    let (corpus, index) = (db.corpus(), db.index());
    let (pattern, ns) = spans.scope("query.parse", || {
        parse_xpath_readonly(expr, &corpus.symbols)
    });
    rec.parse_ns = ns;
    let Ok(Some(pattern)) = pattern else {
        rec.empty = true;
        return Vec::new();
    };
    let (concrete, ns) = spans.scope("index.plan", || {
        instantiate(&pattern, &corpus.paths, index.data_paths(), index.options())
    });
    rec.plan_ns = ns;
    rec.instantiations = concrete.len() as u64;
    let (variants, ns) = spans.scope("sequence.encode", || {
        concrete
            .iter()
            .filter_map(|q| {
                QuerySequence::from_document_readonly(q, &corpus.paths, index.strategy())
            })
            .collect::<Vec<_>>()
    });
    rec.encode_ns = ns;
    rec.variants = variants.len() as u64;
    variants
}

/// Replays one query stage by stage against the database's own single
/// shard, one span per layer, and returns the ids with what was measured.
/// The database interleaves encoding and searching per variant; the replay
/// encodes every variant first so that each layer is one span.
fn staged_query(
    db: &Database,
    expr: &str,
    spans: &mut Spans,
    scratch: &mut SearchScratch,
) -> (Vec<DocId>, QueryRecord) {
    let index = db.index();
    let mut rec = QueryRecord::default();
    let mut docs: Vec<DocId> = Vec::new();
    let variants = staged_plan(db, expr, spans, &mut rec);
    if rec.empty {
        return (docs, rec);
    }
    let view = index.delta_view();
    rec.segments = view.segment_count() as u64;
    let mut stats = SearchStats::default();
    let mut add = |st: SearchStats| {
        stats.candidates += st.candidates;
        stats.cover_rejections += st.cover_rejections;
        stats.completions += st.completions;
        stats.link_probes += st.link_probes;
    };
    let (_, ns) = spans.scope("index.search", || {
        for qs in &variants {
            add(tree_search_with(index.trie(), qs, scratch));
            docs.extend_from_slice(&scratch.docs);
            for segment in view.segments() {
                add(tree_search_with(segment, qs, scratch));
                docs.extend_from_slice(&scratch.docs);
            }
        }
    });
    rec.search_ns = ns;
    rec.stats = stats;
    spans.scope("core.gather", || {
        docs.sort_unstable();
        docs.dedup();
        filter_tombstones(&mut docs, &index.tombstones());
    });
    rec.results = docs.len() as u64;
    (docs, rec)
}

/// Stage times of one staged build, in nanoseconds.
#[derive(Debug, Default, Clone, Copy)]
struct BuildStages {
    parse_ns: u64,
    estimate_ns: u64,
    encode_ns: u64,
    sort_load_ns: u64,
    freeze_ns: u64,
    sampled_docs: usize,
    seq_elems: usize,
}

/// A corpus and index kept beside the database and driven through the
/// layers' public functions, so that they can be timed from outside.
struct Shadow {
    corpus: Corpus,
    index: XmlIndex,
}

/// Builds from XML text stage by stage: `xml.parse`, `schema.estimate`,
/// then either the whole index build as one span, or (`breakdown`) encode,
/// sort/load and freeze as their own spans on a trie of their own.
fn staged_build<'a>(
    xmls: impl Iterator<Item = &'a str>,
    spans: &mut Spans,
    breakdown: bool,
) -> Result<(Shadow, Option<SequenceTrie>, BuildStages), Error> {
    let mut st = BuildStages::default();
    let mut corpus = Corpus::new(ValueMode::Intern);
    let (parsed, ns) = spans.scope("xml.parse", || {
        xmls.map(|xml| corpus.parse_and_push(xml))
            .collect::<Result<Vec<_>, _>>()
    });
    parsed?;
    st.parse_ns = ns;
    let (strategy, ns) = spans.scope("schema.estimate", || {
        let model = ProbabilityModel::estimate(&corpus.docs, &mut corpus.paths, 0);
        st.sampled_docs = model.sample_size();
        Strategy::Probability(model.priorities(&corpus.paths, &WeightMap::default()))
    });
    st.estimate_ns = ns;
    let mut trie = None;
    if breakdown {
        let (seqs, ns) = spans.scope("sequence.encode", || {
            let mut data_paths = HashSet::new();
            let seqs: Vec<_> = corpus
                .docs
                .iter()
                .enumerate()
                .map(|(id, doc)| {
                    let seq = sequence_document(doc, &mut corpus.paths, &strategy);
                    data_paths.extend(seq.elems().iter().copied());
                    (seq, id as DocId)
                })
                .collect();
            black_box(data_paths);
            seqs
        });
        st.encode_ns = ns;
        st.seq_elems = seqs.iter().map(|(s, _)| s.len()).sum();
        let mut t = SequenceTrie::new();
        st.sort_load_ns = spans.scope("index.trie.sort_load", || t.bulk_load(seqs)).1;
        st.freeze_ns = spans.scope("index.trie.freeze", || t.freeze()).1;
        trie = Some(t);
    }
    let (index, _) = spans.scope("index.build", || {
        XmlIndex::build(
            &corpus.docs,
            &mut corpus.paths,
            strategy,
            PlanOptions::default(),
        )
    });
    index.configure_delta(DEFAULT_MEMTABLE_LIMIT, DEFAULT_TIER_RATIO);
    Ok((Shadow { corpus, index }, trie, st))
}

/// Where a live document's XML came from, so that a compaction can be
/// replayed from the survivors' text.
#[derive(Clone, Copy)]
enum Source {
    Base(usize),
    Stream(usize),
}

/// [`Calls`] with a span around every `Database` call and a staged replay
/// after it.
struct Traced<'a> {
    inputs: &'a Inputs,
    spans: Spans,
    scratch: SearchScratch,
    shadow: Option<Shadow>,
    /// XML source of every current document id (`None` once removed).
    docs: Vec<Option<Source>>,
    next_stream: usize,
    queries: Vec<QueryRecord>,
    insert_ns: Vec<u64>,
    remove_ns: Vec<u64>,
    compact_ns: Vec<u64>,
    merges: u64,
    merge_ns: u64,
    docs_rewritten: u64,
    runs_at_end: usize,
    tombstones_at_end: usize,
    /// Staged replays that disagreed with the database.
    mismatches: Vec<String>,
}

impl<'a> Traced<'a> {
    fn new(inputs: &'a Inputs) -> Self {
        Traced {
            inputs,
            spans: Spans::default(),
            scratch: SearchScratch::new(),
            shadow: None,
            docs: (0..inputs.base_xml.len())
                .map(|i| Some(Source::Base(i)))
                .collect(),
            next_stream: 0,
            queries: Vec::new(),
            insert_ns: Vec::new(),
            remove_ns: Vec::new(),
            compact_ns: Vec::new(),
            merges: 0,
            merge_ns: 0,
            docs_rewritten: 0,
            runs_at_end: 0,
            tombstones_at_end: 0,
            mismatches: Vec::new(),
        }
    }

    fn mismatch(&mut self, what: String) {
        if self.mismatches.len() < 8 {
            self.mismatches.push(what);
        }
    }
}

fn source_xml(inputs: &Inputs, src: Source) -> &str {
    match src {
        Source::Base(i) => &inputs.base_xml[i],
        Source::Stream(i) => &inputs.stream_xml[i],
    }
}

impl Calls for Traced<'_> {
    fn query(&mut self, db: &Database, class: &Class) -> Result<Vec<DocId>, Error> {
        let op = self.spans.begin_op(class.name);
        let (got, call_ns) = self
            .spans
            .scope("core.query_xpath", || db.query_xpath(&class.expr));
        let (ids, mut rec) = staged_query(db, &class.expr, &mut self.spans, &mut self.scratch);
        self.spans.close(op);
        rec.call_ns = call_ns;
        self.queries.push(rec);
        if got.as_ref().ok() != Some(&ids) {
            self.mismatch(format!(
                "staged replay of {} returned other ids than query_xpath",
                class.name
            ));
        }
        got
    }

    fn insert(&mut self, db: &mut Database, xml: &str) -> Result<DocId, Error> {
        let op = self.spans.begin_op("insert");
        let (got, _) = self
            .spans
            .scope("core.insert_document", || db.insert_document(xml));
        if let Some(Shadow { corpus, index }) = &mut self.shadow {
            let (local, _) = self.spans.scope("xml.parse", || corpus.parse_and_push(xml));
            if let Ok(local) = local {
                let (_, insert_ns) = self.spans.scope("index.delta.insert", || {
                    index.insert_delta(&corpus.docs[local as usize], local, &mut corpus.paths)
                });
                // The database drains due merges inline at the end of every
                // insert; so does the replay.
                let (merged, merge_ns) = self.spans.scope("index.delta.merge", || {
                    let mut merged = Vec::new();
                    while index.delta().merge_due() {
                        match index.maybe_merge() {
                            Some(outcome) => merged.push(outcome),
                            None => break,
                        }
                    }
                    merged
                });
                self.insert_ns.push(insert_ns + merge_ns);
                self.merge_ns += merge_ns;
                self.merges += merged.len() as u64;
                self.docs_rewritten += merged.iter().map(|m| m.docs_in as u64).sum::<u64>();
            }
        }
        self.spans.close(op);
        self.docs.push(Some(Source::Stream(self.next_stream)));
        self.next_stream += 1;
        got
    }

    fn remove(&mut self, db: &mut Database, id: DocId) -> bool {
        let op = self.spans.begin_op("remove");
        let (got, _) = self
            .spans
            .scope("core.remove_document", || db.remove_document(id));
        if let Some(shadow) = &mut self.shadow {
            let (_, ns) = self
                .spans
                .scope("index.delta.remove", || shadow.index.remove_doc(id));
            self.remove_ns.push(ns);
        }
        self.spans.close(op);
        self.docs[id as usize] = None;
        got
    }

    fn compact(&mut self, db: &mut Database) -> CompactionReport {
        if let Some(shadow) = &self.shadow {
            self.runs_at_end = shadow.index.delta().run_count();
            self.tombstones_at_end = shadow.index.tombstones().len();
        }
        let op = self.spans.begin_op("compact");
        let (report, ns) = self.spans.scope("core.compact", || db.compact());
        self.compact_ns.push(ns);
        // A compaction is bit-identical to a fresh build over the survivors'
        // XML, so that is how it is replayed.
        let survivors: Vec<Source> = self.docs.iter().flatten().copied().collect();
        let inputs = self.inputs;
        let rebuilt = staged_build(
            survivors.iter().map(|&s| source_xml(inputs, s)),
            &mut self.spans,
            false,
        );
        self.spans.close(op);
        match rebuilt {
            Ok((shadow, _, _)) => {
                if !shadow.index.trie().identical_to(db.index().trie()) {
                    self.mismatch("staged rebuild differs from the compacted trie".into());
                }
                self.shadow = Some(shadow);
            }
            Err(e) => self.mismatch(format!("staged rebuild failed: {e}")),
        }
        self.docs = survivors.into_iter().map(Some).collect();
        report
    }
}

/// `part` as a share of `whole`, times 1000.
fn share_x1000(part: u64, whole: u64) -> f64 {
    part as f64 * 1000.0 / whole.max(1) as f64
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The traced run of one workload: per-layer metrics, the per-class span
/// table, and the span file under `opts.out_dir`.
pub fn run(spec: Spec, opts: &crate::Options, header: &str) -> Report {
    let mut layers = Layers::default();
    let mut text = String::from(header);
    let threads = pool_threads();
    let inputs = Inputs::generate(spec, opts.seed);
    let docs = inputs.base_xml.len();
    let mut traced = Traced::new(&inputs);
    // The phases calibrate what they sample (see `calib`); only ratios of
    // those samples are used here, the per-layer times come from the spans.
    let mut run = Run::new(&inputs);

    // -- queries: an untraced reference pass, then the traced pass ---------
    let size = RoundSize {
        singles: spec.sized(Phase::Query, spec.singles),
        batch: spec.sized(Phase::Query, spec.batch),
    };
    let t0 = Instant::now();
    let db = build(&inputs, docs, threads);
    let pool_build_s = t0.elapsed().as_secs_f64();
    run.checks.op(db.is_ok(), || "build_from_xml".into());
    let Ok(db) = db else {
        return failed_report(run.checks, text);
    };
    warm_up(&db, &inputs);
    let reference = untraced_rounds(&mut run, &db, size);
    let reference_qps = median(&reference.rounds.iter().map(Round::qps).collect::<Vec<_>>());
    let first_probe = run.host.kernel_s.len();
    query_rounds(
        &mut run,
        &mut traced,
        (&db, docs),
        size,
        None,
        &mut QuerySamples::default(),
    );
    let phase_queries = traced.queries.len();
    // Tracing overhead: the same calls' rate with spans around them, under
    // the untraced reference pass's.  The traced calls' raw times are brought
    // to reference speed with the two probes that bracket their round.
    let host_factor = factor(
        run.host.kernel_s[first_probe],
        run.host.kernel_s[first_probe + 1],
    );
    let traced_s = traced.queries.iter().map(|r| r.call_ns).sum::<u64>() as f64 / 1e9;
    let traced_qps = phase_queries as f64 / (traced_s * host_factor);
    layers.set(
        "trace_overhead_x1000",
        (reference_qps / traced_qps - 1.0) * 1000.0,
    );
    layers.set(
        "exec.batch_speedup_x100",
        median(&reference.batch_qps) / reference_qps * 100.0,
    );

    // -- storage: the frozen trie in its paged form ------------------------
    storage_layer(&db, &inputs, size.singles, &mut layers, &mut run.checks);

    // -- telemetry and core variants of the same database ------------------
    let plain = DatabaseBuilder::new().threads(threads).shards(1);
    match plain
        .profiling(false)
        .build_from_xml(inputs.base_xml.iter().map(String::as_str))
    {
        Ok(quiet) => {
            warm_up(&quiet, &inputs);
            let off = untraced_rounds(&mut run, &quiet, size);
            let off_qps = median(&off.rounds.iter().map(Round::qps).collect::<Vec<_>>());
            layers.set(
                "telemetry.profiling_cost_x1000",
                (off_qps / reference_qps - 1.0) * 1000.0,
            );
        }
        Err(e) => run
            .checks
            .op(false, || format!("build with profiling(false): {e}")),
    }
    let t0 = Instant::now();
    let sharded = DatabaseBuilder::new()
        .threads(threads)
        .build_from_xml(inputs.base_xml.iter().map(String::as_str));
    layers.set(
        "core.sharded_ingest_docs_per_s",
        docs as f64 / t0.elapsed().as_secs_f64(),
    );
    match sharded {
        Ok(sharded) => {
            warm_up(&sharded, &inputs);
            let batched = RoundSize { singles: 0, ..size };
            let s = untraced_rounds(&mut run, &sharded, batched);
            layers.set("core.sharded_batch_qps", median(&s.batch_qps));
        }
        Err(e) => run.checks.op(false, || format!("sharded build: {e}")),
    }
    drop(db);

    // -- ingest: one threads(1) build, then the same build stage by stage --
    let op = traced.spans.begin_op("build");
    let (serial, build_ns) = traced
        .spans
        .scope("core.build_from_xml", || build(&inputs, docs, 1));
    let staged = staged_build(
        inputs.base_xml.iter().map(String::as_str),
        &mut traced.spans,
        true,
    );
    traced.spans.close(op);
    run.checks.op(serial.is_ok() && staged.is_ok(), || {
        "build_from_xml threads(1) and its staged replay".into()
    });
    if let (Ok(serial), Ok((mut shadow, Some(trie), st))) = (serial, staged) {
        run.checks.op(trie.identical_to(serial.index().trie()), || {
            "staged build differs from the database's trie".into()
        });
        ingest_layers(&inputs, &mut shadow, &trie, st, build_ns, &mut layers);
        layers.set(
            "exec.ingest_speedup_x100",
            (build_ns as f64 / 1e9) / pool_build_s * 100.0,
        );
        traced.shadow = Some(shadow);
    }

    // -- memory round, then the update stream on that database --------------
    let (fresh, db_bytes) = count_live_bytes(|| build(&inputs, docs, threads));
    run.checks
        .op(fresh.is_ok(), || "build_from_xml (memory round)".into());
    if let Ok(mut fresh) = fresh {
        let stats_bytes = fresh.stats().memory.total_bytes();
        layers.set("core.db_bytes", db_bytes as f64);
        layers.set("core.stats_bytes", stats_bytes as f64);
        layers.set(
            "core.heap_accounting_err_x1000",
            (stats_bytes as f64 / db_bytes.max(1) as f64 - 1.0) * 1000.0,
        );
        let batches = spec.sized(Phase::Update, spec.stream_batches);
        update_pass(
            &mut run,
            &mut traced,
            (&mut fresh, docs),
            batches,
            &mut UpdateSamples::default(),
        );
        verify(&mut fresh, &mut run.checks);
    }

    // -- fold what the traced calls recorded into the layer metrics ---------
    let stream_queries = traced.queries.split_off(phase_queries);
    // The update workload's queries are the ones that ran beside writes.
    let records = if spec.focus == Phase::Update {
        &stream_queries
    } else {
        &traced.queries
    };
    query_layers(records, &mut layers);
    delta_layers(&traced, &stream_queries, &mut layers);
    for m in &traced.mismatches {
        run.checks.op(false, || m.clone());
    }

    // -- report -------------------------------------------------------------
    let _ = writeln!(
        text,
        "traced replay: {} spans, {} query records, {} inserts, {} compactions",
        traced.spans.len(),
        traced.queries.len() + stream_queries.len(),
        traced.insert_ns.len(),
        traced.compact_ns.len()
    );
    let mut report = Report {
        attempted: run.checks.attempted,
        failed: run.checks.failed,
        ..Report::default()
    };
    for &(name, unit, _) in &PER_LAYER {
        let value = layers.get(name);
        let _ = writeln!(text, "  {name:<46} {value:>16.3} {unit}");
        report.metrics.push((name, unit, value));
    }
    let _ = writeln!(
        text,
        "  reconcile: query_xpath p50 = parse + plan + encode + search + {:.0} ns unattributed; build = stages + {:.1} ms unattributed",
        layers.get("core.query_unattributed_ns_p50"),
        layers.get("core.build_unattributed_ms")
    );
    for f in &run.checks.first {
        let _ = writeln!(text, "  FAILED: {f}");
    }
    text.push_str(&traced.spans.render_class_table());
    match write_spans(&traced.spans, opts, spec.name) {
        Ok(path) => {
            let _ = writeln!(text, "spans written to {}", path.display());
        }
        Err(e) => {
            let _ = writeln!(text, "could not write the span file: {e}");
        }
    }
    report.text = text;
    report
}

/// Two untraced rounds over a database built from the whole base.
fn untraced_rounds(run: &mut Run, db: &Database, size: RoundSize) -> QuerySamples {
    let mut samples = QuerySamples::default();
    let docs = run.inputs.base_xml.len();
    for _ in 0..2 {
        query_rounds(run, &mut Direct, (db, docs), size, None, &mut samples);
    }
    samples
}

/// The report of a run whose very first build failed: every metric zero.
fn failed_report(checks: Checks, text: String) -> Report {
    Report {
        metrics: PER_LAYER.iter().map(|&(n, u, _)| (n, u, 0.0)).collect(),
        attempted: checks.attempted,
        failed: checks.failed,
        text,
    }
}

fn write_spans(
    spans: &Spans,
    opts: &crate::Options,
    name: &str,
) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(&opts.out_dir)?;
    let path = opts.out_dir.join(format!("trace_{name}.json"));
    std::fs::write(&path, spans.to_chrome_json())?;
    Ok(path)
}

/// `xml`, `schema`, `sequence` and `index.trie` metrics of the staged build.
fn ingest_layers(
    inputs: &Inputs,
    shadow: &mut Shadow,
    trie: &SequenceTrie,
    st: BuildStages,
    build_ns: u64,
    layers: &mut Layers,
) {
    let docs = inputs.base_xml.len() as f64;
    let corpus = &mut shadow.corpus;
    layers.set("xml.parse_ns_per_doc", st.parse_ns as f64 / docs);
    layers.set(
        "xml.parse_mb_per_s",
        inputs.base_bytes as f64 / 1e6 / (st.parse_ns as f64 / 1e9),
    );
    layers.set("xml.nodes_per_doc", corpus.total_nodes() as f64 / docs);
    layers.set("xml.paths", corpus.paths.len() as f64);
    layers.set(
        "xml.symbols",
        (corpus.symbols.designator_count() + corpus.symbols.values.len()) as f64,
    );
    layers.set("schema.estimate_ms", ms(st.estimate_ns));
    layers.set("schema.sampled_docs", st.sampled_docs as f64);
    layers.set("sequence.encode_ns_per_doc", st.encode_ns as f64 / docs);
    layers.set("sequence.len_avg", st.seq_elems as f64 / docs);
    let nodes = trie.node_count();
    let depth_first = XmlIndex::build(
        &corpus.docs,
        &mut corpus.paths,
        Strategy::DepthFirst,
        PlanOptions::default(),
    );
    layers.set(
        "sequence.cs_df_nodes_x1000",
        share_x1000(nodes as u64, depth_first.node_count() as u64),
    );
    layers.set("index.trie.sort_load_ms", ms(st.sort_load_ns));
    layers.set("index.trie.freeze_ms", ms(st.freeze_ns));
    layers.set("index.trie.nodes", nodes as f64);
    layers.set(
        "index.trie.nodes_per_seq_elem_x1000",
        share_x1000(nodes as u64, st.seq_elems as u64),
    );
    let links: usize = trie.frozen().links.values().map(Vec::len).sum();
    layers.set("index.trie.link_entries", links as f64);
    layers.set("index.trie.bytes", trie.approx_bytes() as f64);
    layers.set(
        "index.trie.bytes_per_node",
        trie.approx_bytes() as f64 / nodes.max(1) as f64,
    );
    let staged = st.parse_ns + st.estimate_ns + st.encode_ns + st.sort_load_ns + st.freeze_ns;
    layers.set(
        "core.build_unattributed_ms",
        (build_ns as f64 - staged as f64) / 1e6,
    );
}

/// `query`, `index.plan`, `index.search`, `sequence` (query side) and the
/// unattributed remainder, from the staged replay of every query.
fn query_layers(records: &[QueryRecord], layers: &mut Layers) {
    if records.is_empty() {
        return;
    }
    let n = records.len() as f64;
    let column = |f: fn(&QueryRecord) -> u64| sorted(&records.iter().map(f).collect::<Vec<_>>());
    let sum = |f: fn(&QueryRecord) -> u64| records.iter().map(f).sum::<u64>();
    let tail = tail_p(records.len());
    let call = sum(|r| r.call_ns);
    layers.set(
        "query.parse_ns_p50",
        quantile(&column(|r| r.parse_ns), 0.5) as f64,
    );
    layers.set(
        "query.parse_empty_share_x1000",
        share_x1000(
            records.iter().filter(|r| r.empty).count() as u64,
            records.len() as u64,
        ),
    );
    let plan = column(|r| r.plan_ns);
    layers.set("index.plan_ns_p50", quantile(&plan, 0.5) as f64);
    layers.set("index.plan_ns_p99", quantile(&plan, tail) as f64);
    layers.set(
        "index.plan.instantiations_per_query",
        sum(|r| r.instantiations) as f64 / n,
    );
    layers.set(
        "index.plan.share_x1000",
        share_x1000(sum(|r| r.plan_ns), call),
    );
    layers.set(
        "sequence.qencode_ns_per_variant",
        sum(|r| r.encode_ns) as f64 / sum(|r| r.variants).max(1) as f64,
    );
    let search = column(|r| r.search_ns);
    layers.set("index.search_ns_p50", quantile(&search, 0.5) as f64);
    layers.set("index.search_ns_p99", quantile(&search, tail) as f64);
    layers.set(
        "index.search.variants_per_query",
        sum(|r| r.variants) as f64 / n,
    );
    let candidates = sum(|r| r.stats.candidates);
    layers.set("index.search.candidates_per_query", candidates as f64 / n);
    layers.set(
        "index.search.candidates_per_result_x1000",
        share_x1000(candidates, sum(|r| r.results)),
    );
    layers.set(
        "index.search.cover_rejections_per_query",
        sum(|r| r.stats.cover_rejections) as f64 / n,
    );
    layers.set(
        "index.search.link_probes_per_query",
        sum(|r| r.stats.link_probes) as f64 / n,
    );
    layers.set(
        "index.search.completions_per_query",
        sum(|r| r.stats.completions) as f64 / n,
    );
    layers.set(
        "index.search.share_x1000",
        share_x1000(sum(|r| r.search_ns), call),
    );
    let mut rest: Vec<f64> = records
        .iter()
        .map(|r| r.call_ns as f64 - (r.parse_ns + r.plan_ns + r.encode_ns + r.search_ns) as f64)
        .collect();
    rest.sort_by(f64::total_cmp);
    layers.set("core.query_unattributed_ns_p50", median(&rest));
}

/// `index.delta` and `core.compact_ms`, from the update stream's replay.
fn delta_layers(traced: &Traced, stream_queries: &[QueryRecord], layers: &mut Layers) {
    if traced.insert_ns.is_empty() {
        return;
    }
    let inserts = sorted(&traced.insert_ns);
    layers.set("index.delta.insert_ns_p50", quantile(&inserts, 0.5) as f64);
    layers.set(
        "index.delta.insert_ns_p99",
        quantile(&inserts, tail_p(inserts.len())) as f64,
    );
    layers.set(
        "index.delta.insert_max_us",
        *inserts.last().expect("not empty") as f64 / 1e3,
    );
    layers.set(
        "index.delta.remove_ns_p50",
        quantile(&sorted(&traced.remove_ns), 0.5) as f64,
    );
    layers.set("index.delta.merges", traced.merges as f64);
    layers.set("index.delta.merge_ms_total", ms(traced.merge_ns));
    layers.set(
        "index.delta.docs_rewritten_per_insert_x1000",
        share_x1000(traced.docs_rewritten, inserts.len() as u64),
    );
    layers.set("index.delta.runs_at_end", traced.runs_at_end as f64);
    layers.set(
        "index.delta.segments_per_query_avg",
        stream_queries.iter().map(|r| r.segments).sum::<u64>() as f64
            / stream_queries.len().max(1) as f64,
    );
    layers.set(
        "index.delta.tombstones_at_end",
        traced.tombstones_at_end as f64,
    );
    let compacts: Vec<f64> = traced.compact_ns.iter().map(|&ns| ms(ns)).collect();
    layers.set("core.compact_ms", median(&compacts));
}

/// The `storage` layer: the database's frozen trie written to pages, read
/// cold (one pool reset per query, pool at least as large as the trie — the
/// paper's "disk accesses") and warm (a pool an eighth of the pages).
fn storage_layer(
    db: &Database,
    inputs: &Inputs,
    singles: usize,
    layers: &mut Layers,
    checks: &mut Checks,
) {
    let trie = db.index().trie();
    let mut store = MemStore::new();
    let t0 = Instant::now();
    let pages = write_paged_trie(trie, &mut store);
    layers.set("storage.write_ms", ms(t0.elapsed().as_nanos() as u64));
    let mut warm_store = MemStore::new();
    let opened = pages.and_then(|pages| {
        write_paged_trie(trie, &mut warm_store)?;
        let cold = PagedTrie::open(store, pages as usize + 8)?;
        let warm = PagedTrie::open(warm_store, (pages as usize / 8).max(1))?;
        Ok((pages, cold, warm))
    });
    checks.op(opened.is_ok(), || {
        "write_paged_trie / PagedTrie::open".into()
    });
    let Ok((pages, cold, warm)) = opened else {
        return;
    };
    layers.set("storage.pages_total", pages as f64);
    layers.set(
        "storage.bytes_per_node",
        pages as f64 * xseq::storage::PAGE_SIZE as f64 / trie.node_count().max(1) as f64,
    );

    // Cold: page reads per query are a property of the class, so each class
    // is read once and weighted by its share of the mix.
    let expect = inputs.base_expect(inputs.base_xml.len());
    let weight = |c: &Class| {
        if inputs.spec.focus == Phase::Update {
            c.stream_weight
        } else {
            c.weight
        }
    };
    let mut unrecorded = (Spans::default(), QueryRecord::default());
    let variants: Vec<Vec<QuerySequence>> = inputs
        .classes
        .iter()
        .map(|c| staged_plan(db, &c.expr, &mut unrecorded.0, &mut unrecorded.1))
        .collect();
    let (mut reads, mut total_weight) = (0u64, 0u64);
    for (c, class) in inputs.classes.iter().enumerate() {
        if weight(class) == 0 {
            continue;
        }
        cold.reset_pool();
        let mut ids = Vec::new();
        for qs in &variants[c] {
            ids.extend(tree_search(&cold, qs).0);
        }
        ids.sort_unstable();
        ids.dedup();
        checks.op(Expect::of(&ids) == expect[c], || {
            format!("paged search of {} disagrees with the oracle", class.name)
        });
        reads += cold.pool_stats().misses * u64::from(weight(class));
        total_weight += u64::from(weight(class));
    }
    layers.set(
        "storage.pages_read_per_query",
        reads as f64 / total_weight.max(1) as f64,
    );

    // Warm: a short pass over the mix through a pool smaller than the trie.
    let list = if inputs.spec.focus == Phase::Update {
        inputs.stream_round(singles.min(100))
    } else {
        inputs.query_round(singles.min(100))
    };
    let mut paged_ns = Vec::with_capacity(list.len());
    for &c in &list {
        let t0 = Instant::now();
        for qs in &variants[c] {
            black_box(tree_search(&warm, qs));
        }
        paged_ns.push(t0.elapsed().as_nanos() as u64);
    }
    let pool = warm.pool_stats();
    layers.set(
        "storage.pool_hit_ratio_x1000",
        share_x1000(pool.hits, pool.hits + pool.misses),
    );
    layers.set(
        "storage.paged_search_ns_p50",
        quantile(&sorted(&paged_ns), 0.5) as f64,
    );
}
