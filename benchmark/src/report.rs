//! Metric names, units and bounds — the same lists `BENCHMARK.json` carries —
//! and the two things a run prints: a report for people and, as the last
//! line of standard output, one JSON object for the driver.

use crate::phases::{nproc, pool_threads, Round, Samples, SETUPS};
use crate::stats::{median, quantile, sorted, spread, tail_p};
use crate::trace::json_escape;
use crate::workload::{Phase, Spec};
use std::fmt::Write as _;

/// An end-to-end metric: what a user of `xseq` would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics.  The twelfth, `ops_failed`, travels as the
/// `failed` / `attempted` pair of the result line: its bound is zero.
pub const END_TO_END: [EndToEnd; 11] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("query_p50_us", "us", "lower", 0.25),
    e2e("query_p99_us", "us", "lower", 0.25),
    e2e("query_qps", "1/s", "higher", 0.25),
    e2e("batch_qps", "1/s", "higher", 0.25),
    e2e("ingest_docs_per_s", "1/s", "higher", 0.25),
    e2e("ingest_par_docs_per_s", "1/s", "higher", 0.25),
    e2e("update_docs_per_s", "1/s", "higher", 0.25),
    e2e("compact_s", "s", "lower", 0.25),
    e2e("index_nodes", "count", "lower", 0.05),
    e2e("db_bytes_per_xml_byte", "B/kB", "lower", 0.08),
];

/// Limits `--selfcheck` applies in place of the bounds above: its two runs
/// share a seed, so the node count must repeat exactly and the resident
/// bytes within the 1 % ISSUE 11 asked for.  The bounds above are wider only
/// because they have to cover the spread across the driver's seeds.
pub const SAME_SEED_LIMIT: [(&str, f64); 2] =
    [("index_nodes", 0.0), ("db_bytes_per_xml_byte", 0.01)];

/// A per-layer metric: name, unit, and which direction is better.
pub type PerLayer = (&'static str, &'static str, &'static str);

pub const PER_LAYER: [PerLayer; 61] = [
    ("xml.parse_ns_per_doc", "ns", "lower"),
    ("xml.parse_mb_per_s", "MB/s", "higher"),
    ("xml.nodes_per_doc", "count", "lower"),
    ("xml.paths", "count", "lower"),
    ("xml.symbols", "count", "lower"),
    ("schema.estimate_ms", "ms", "lower"),
    ("schema.sampled_docs", "count", "lower"),
    ("sequence.encode_ns_per_doc", "ns", "lower"),
    ("sequence.len_avg", "count", "lower"),
    ("sequence.qencode_ns_per_variant", "ns", "lower"),
    ("sequence.cs_df_nodes_x1000", "x1000", "lower"),
    ("query.parse_ns_p50", "ns", "lower"),
    ("query.parse_empty_share_x1000", "x1000", "higher"),
    ("index.plan_ns_p50", "ns", "lower"),
    ("index.plan_ns_p99", "ns", "lower"),
    ("index.plan.instantiations_per_query", "count", "lower"),
    ("index.plan.share_x1000", "x1000", "lower"),
    ("index.search_ns_p50", "ns", "lower"),
    ("index.search_ns_p99", "ns", "lower"),
    ("index.search.variants_per_query", "count", "lower"),
    ("index.search.candidates_per_query", "count", "lower"),
    ("index.search.candidates_per_result_x1000", "x1000", "lower"),
    ("index.search.cover_rejections_per_query", "count", "lower"),
    ("index.search.link_probes_per_query", "count", "lower"),
    ("index.search.completions_per_query", "count", "lower"),
    ("index.search.share_x1000", "x1000", "lower"),
    ("index.trie.sort_load_ms", "ms", "lower"),
    ("index.trie.freeze_ms", "ms", "lower"),
    ("index.trie.nodes", "count", "lower"),
    ("index.trie.nodes_per_seq_elem_x1000", "x1000", "lower"),
    ("index.trie.link_entries", "count", "lower"),
    ("index.trie.bytes", "B", "lower"),
    ("index.trie.bytes_per_node", "B", "lower"),
    ("index.delta.insert_ns_p50", "ns", "lower"),
    ("index.delta.insert_ns_p99", "ns", "lower"),
    ("index.delta.insert_max_us", "us", "lower"),
    ("index.delta.remove_ns_p50", "ns", "lower"),
    ("index.delta.merges", "count", "lower"),
    ("index.delta.merge_ms_total", "ms", "lower"),
    (
        "index.delta.docs_rewritten_per_insert_x1000",
        "x1000",
        "lower",
    ),
    ("index.delta.runs_at_end", "count", "lower"),
    ("index.delta.segments_per_query_avg", "count", "lower"),
    ("index.delta.tombstones_at_end", "count", "lower"),
    ("storage.pages_total", "count", "lower"),
    ("storage.write_ms", "ms", "lower"),
    ("storage.pages_read_per_query", "count", "lower"),
    ("storage.pool_hit_ratio_x1000", "x1000", "higher"),
    ("storage.paged_search_ns_p50", "ns", "lower"),
    ("storage.bytes_per_node", "B", "lower"),
    ("exec.batch_speedup_x100", "x100", "higher"),
    ("exec.ingest_speedup_x100", "x100", "higher"),
    ("core.query_unattributed_ns_p50", "ns", "lower"),
    ("core.build_unattributed_ms", "ms", "lower"),
    ("core.compact_ms", "ms", "lower"),
    ("core.sharded_batch_qps", "1/s", "higher"),
    ("core.sharded_ingest_docs_per_s", "1/s", "higher"),
    ("core.db_bytes", "B", "lower"),
    ("core.stats_bytes", "B", "lower"),
    ("core.heap_accounting_err_x1000", "x1000", "lower"),
    ("telemetry.profiling_cost_x1000", "x1000", "lower"),
    ("trace_overhead_x1000", "x1000", "lower"),
];

/// What one run reports: values by metric name, the failure accounting, and
/// the text printed for people.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub text: String,
}

impl Report {
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, _, v)| v)
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, every value printed with all its digits.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_escape(name),
                value,
                json_escape(unit)
            );
        }
        out.push_str("}}");
        out
    }
}

/// Where the run happened: printed beside every set of numbers.
pub fn provenance(spec: &Spec, seed: u64, scale: f64, seconds: f64) -> String {
    format!(
        "workload {} | seed {seed} | scale {scale} | seconds {seconds} | nproc {} | threads {} | git {}\n",
        spec.name,
        nproc(),
        pool_threads(),
        git_revision()
    )
}

/// The checked-out revision, read from `.git` beside the benchmark's own
/// directory; `unknown` outside a git checkout (where the driver runs).
pub fn git_revision() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: std::path::PathBuf| std::fs::read_to_string(p).ok();
    let head = read(git.join("HEAD")).unwrap_or_default();
    let rev = match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_owned()),
        Some(r) => read(git.join(r)).or_else(|| {
            read(git.join("packed-refs"))?
                .lines()
                .find_map(|l| l.strip_suffix(r).map(str::to_owned))
        }),
    };
    match rev {
        Some(r) if r.trim().len() >= 12 => r.trim()[..12].to_owned(),
        _ => "unknown".to_owned(),
    }
}

/// Turns the samples of an untraced run into the end-to-end metrics.
pub fn end_to_end(spec: &Spec, s: &Samples, header: &str) -> Report {
    let mut text = String::from(header);
    let inputs = &s.inputs;
    let _ = writeln!(
        text,
        "inputs: {} base documents, {} XML bytes, {} stream documents, {} query classes",
        inputs.base_xml.len(),
        inputs.base_bytes,
        inputs.stream_xml.len(),
        inputs.classes.len()
    );
    let kernel_ms: Vec<f64> = s.host.kernel_s.iter().map(|k| k * 1e3).collect();
    let _ = writeln!(
        text,
        "host: reference kernel {:.1} ms median over {} probes (min {:.1}, max {:.1}); every time and rate below is at reference speed, {:.1} ms",
        median(&kernel_ms),
        kernel_ms.len(),
        kernel_ms.iter().copied().fold(f64::INFINITY, f64::min),
        kernel_ms.iter().copied().fold(0.0, f64::max),
        crate::calib::NOMINAL_S * 1e3
    );

    // On the update workload, queries are measured where they run beside
    // writes, one round per pass over the stream; everywhere else in the
    // query phase.
    let rounds = if spec.focus == Phase::Update {
        &s.update.rounds
    } else {
        &s.query.rounds
    };
    let lat: Vec<u64> = rounds
        .iter()
        .flat_map(|r| r.lat_ns.iter().copied())
        .collect();
    let class: Vec<usize> = rounds
        .iter()
        .flat_map(|r| r.class.iter().copied())
        .collect();
    let round_p50: Vec<f64> = rounds.iter().map(Round::p50_us).collect();
    let round_qps: Vec<f64> = rounds.iter().map(Round::qps).collect();
    let tail = tail_p(lat.len());
    let nodes = if spec.focus == Phase::Update {
        s.update.nodes
    } else {
        s.nodes
    };

    let values: [(f64, String); 11] = [
        (
            median(&s.setup_s),
            format!(
                "median of {SETUPS} set-ups, spread {:.3}",
                spread(&s.setup_s)
            ),
        ),
        rounds_value(&round_p50, "per-round medians"),
        (
            quantile(&sorted(&lat), tail) as f64 / 1e3,
            format!(
                "p{:.1} of all {} samples of {} rounds",
                tail * 100.0,
                lat.len(),
                rounds.len()
            ),
        ),
        rounds_value(&round_qps, "per-round means"),
        rounds_value(&s.query.batch_qps, "query_batch calls"),
        rounds_value(&s.ingest.serial, "threads(1) builds"),
        rounds_value(&s.ingest.parallel, "pool builds"),
        rounds_value(
            &s.update.docs_per_s,
            "stream passes (median of 3 segments each)",
        ),
        rounds_value(
            &s.update.compact_s,
            "stream passes (median of 3 compactions each)",
        ),
        (nodes as f64, "trie nodes, Probability sequencing".into()),
        (
            s.db_bytes as f64 * 1000.0 / inputs.base_bytes as f64,
            format!(
                "{} live heap bytes / {} XML bytes, memory round; stats() models {}",
                s.db_bytes, inputs.base_bytes, s.stats_bytes
            ),
        ),
    ];

    let mut report = Report {
        attempted: s.checks.attempted,
        failed: s.checks.failed,
        ..Report::default()
    };
    for (def, (value, note)) in END_TO_END.iter().zip(values) {
        let _ = writeln!(
            text,
            "  {:<24} {:>16.4} {:<5} bound {:>4.0}%  ({note})",
            def.name,
            value,
            def.unit,
            def.bound * 100.0
        );
        report.metrics.push((def.name, def.unit, value));
    }
    let _ = writeln!(
        text,
        "  {:<24} {:>16} count bound    0%  (of {} attempted)",
        "ops_failed", s.checks.failed, s.checks.attempted
    );
    for f in &s.checks.first {
        let _ = writeln!(text, "  FAILED: {f}");
    }
    text.push_str(&class_latency_table(inputs, &lat, &class));
    report.text = text;
    report
}

/// What a run reports for a value sampled once per round: the median over
/// the rounds, with their count, their spread and every round's value
/// alongside.
fn rounds_value(samples: &[f64], what: &str) -> (f64, String) {
    (
        median(samples),
        format!(
            "median of {} {what}, spread {:.3}: {}",
            samples.len(),
            spread(samples),
            samples
                .iter()
                .map(|v| format!("{v:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        ),
    )
}

/// Per query class: its share of the samples, its median latency, and where
/// its share sits in the latency ranking — the ranks of the overall p50 and
/// p99 must fall inside a class, not between two.
fn class_latency_table(inputs: &crate::workload::Inputs, lat: &[u64], class: &[usize]) -> String {
    let mut rows: Vec<(u64, usize, usize)> = (0..inputs.classes.len())
        .filter_map(|c| {
            let l: Vec<u64> = lat
                .iter()
                .zip(class)
                .filter(|(_, &k)| k == c)
                .map(|(&ns, _)| ns)
                .collect();
            (!l.is_empty()).then(|| (quantile(&sorted(&l), 0.5), c, l.len()))
        })
        .collect();
    rows.sort();
    let mut out = format!(
        "  {:<12} {:>7} {:>12} {:>16}\n",
        "class", "samples", "p50_us", "rank_share_%"
    );
    let mut before = 0usize;
    for (p50, c, samples) in rows {
        let lo = before as f64 * 100.0 / lat.len() as f64;
        before += samples;
        let hi = before as f64 * 100.0 / lat.len() as f64;
        let _ = writeln!(
            out,
            "  {:<12} {:>7} {:>12.1} {:>8.1}..{:<6.1}",
            inputs.classes[c].name,
            samples,
            p50 as f64 / 1e3,
            lo,
            hi
        );
    }
    out
}

/// Runs every given workload twice with the same options and compares the
/// two runs: an end-to-end metric may differ by at most its bound (or its
/// tighter same-seed limit), and nothing may fail.  Prints the difference per
/// metric.
pub fn selfcheck(specs: &[Spec], opts: &crate::Options) -> bool {
    let mut ok = true;
    for spec in specs {
        let runs: Vec<Report> = (0..2)
            .map(|_| crate::run_workload(*spec, opts, std::time::Instant::now()))
            .collect();
        println!("selfcheck {}", spec.name);
        for def in &END_TO_END {
            let a = runs[0].value(def.name).unwrap_or(f64::NAN);
            let b = runs[1].value(def.name).unwrap_or(f64::NAN);
            let diff = (a - b).abs() / a.abs().max(b.abs());
            let limit = SAME_SEED_LIMIT
                .iter()
                .find(|(name, _)| *name == def.name)
                .map_or(def.bound, |&(_, limit)| limit);
            let pass = diff <= limit;
            ok &= pass;
            println!(
                "  {:<24} {:>16.4} {:>16.4}  differ {:>6.2}%  limit {:>4.1}%  {}",
                def.name,
                a,
                b,
                diff * 100.0,
                limit * 100.0,
                if pass { "ok" } else { "FAIL" }
            );
        }
        for r in &runs {
            if r.failed > 0 {
                ok = false;
                println!("  ops_failed {} of {} FAIL", r.failed, r.attempted);
            }
        }
    }
    ok
}

/// Seconds one run measures for when the driver runs it.
pub const RUN_SECONDS: u32 = 10;

/// The contents of `BENCHMARK.json` at the repository root, generated from
/// the lists above so that the file and the program cannot drift apart (a
/// test compares them).
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in crate::workload::WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < crate::workload::WORKLOADS.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name,
            json_escape(w.why)
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name, m.unit, m.better, m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{comma}"
        );
    }
    out.push_str("  ]\n}\n");
    out
}
