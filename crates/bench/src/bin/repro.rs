//! `repro` — regenerate every table and figure of the paper.
//!
//! ```sh
//! cargo run --release -p xseq-bench --bin repro -- all
//! cargo run --release -p xseq-bench --bin repro -- table7 --scale 0.5
//! cargo run --release -p xseq-bench --bin repro -- all --metrics out.json
//! cargo run --release -p xseq-bench --bin repro -- --verify --scale 0.1
//! cargo run --release -p xseq-bench --bin repro -- --diag out/diag
//! ```
//!
//! With `--metrics <path.json>`, the process-wide metrics registry is
//! snapshotted after each experiment and the per-experiment deltas are
//! written to the file as one JSON object keyed by experiment name.
//!
//! `repro` reproduces the paper; it does not gate on speed.  The engine's
//! performance is measured by the standalone `benchmark/` package (see
//! `BENCHMARK.json`), and the host-independent columns of the tables
//! printed here are pinned by `crates/bench/tests/golden.rs`.
//!
//! With `--diag <dir>` (alone or after the named experiments), a fully
//! instrumented database runs a representative workload and writes a
//! self-contained diagnostics bundle — metrics, stats, workload profile,
//! slow-query traces, the flight-recorder journal and a build manifest —
//! into `dir`; `cargo xtask diagcheck <dir>` validates it.

use std::process::exit;
use xseq::telemetry::{to_json, MetricsRegistry, Snapshot};
use xseq_bench::EXPERIMENTS;

fn usage() -> ! {
    eprintln!(
        "usage: repro <experiment|all|check> [--scale X] [--metrics PATH.json]\n\
         \x20           [--verify] [--diag DIR]"
    );
    eprintln!("experiments:");
    for (name, _) in EXPERIMENTS {
        eprintln!("  {name}");
    }
    eprintln!("  all     run every experiment");
    eprintln!("  check   tiny-scale sweep with agreement assertions");
    eprintln!(
        "\n--verify runs the index invariant verifier over every corpus\n\
         (alone or after the named experiments); exits 1 on any violation\n\
         --diag writes a self-contained diagnostics bundle into DIR"
    );
    exit(2)
}

/// Accumulates per-experiment registry deltas; optionally rewrites the
/// `--metrics` output file after each one, so a partial run still leaves
/// valid JSON behind.
struct Recorder {
    metrics_path: Option<String>,
    sections: Vec<(String, Snapshot)>,
    last: Snapshot,
}

impl Recorder {
    fn new(metrics_path: Option<String>) -> Self {
        Recorder {
            metrics_path,
            sections: Vec::new(),
            last: MetricsRegistry::global().snapshot(),
        }
    }

    fn record(&mut self, experiment: &str) {
        let now = MetricsRegistry::global().snapshot();
        let delta = now.delta(&self.last);
        self.last = now;
        // Repeat runs of one experiment get distinct keys so the JSON
        // object never carries duplicates.
        let repeats = self
            .sections
            .iter()
            .filter(|(n, _)| n == experiment || n.starts_with(&format!("{experiment}#")))
            .count();
        let key = if repeats == 0 {
            experiment.to_string()
        } else {
            format!("{experiment}#{}", repeats + 1)
        };
        self.sections.push((key, delta));
        if let Some(path) = &self.metrics_path {
            let mut out = String::from("{\n");
            for (i, (name, delta)) in self.sections.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&format!("\"{}\": {}", name, to_json(delta).trim_end()));
            }
            out.push_str("\n}\n");
            if let Err(e) = std::fs::write(path, out) {
                eprintln!("[repro] cannot write metrics to {path}: {e}");
                exit(1);
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut scale = 1.0f64;
    let mut metrics_path: Option<String> = None;
    let mut verify = false;
    let mut diag_dir: Option<String> = None;
    let mut names: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v = it.next().unwrap_or_else(|| usage());
                scale = v.parse().unwrap_or_else(|_| usage());
            }
            "--metrics" => metrics_path = Some(it.next().unwrap_or_else(|| usage())),
            "--verify" => verify = true,
            "--diag" => diag_dir = Some(it.next().unwrap_or_else(|| usage())),
            "-h" | "--help" => usage(),
            name => names.push(name.to_string()),
        }
    }
    if names.is_empty() && !verify && diag_dir.is_none() {
        usage();
    }
    let mut recorder = Recorder::new(metrics_path);
    for name in names {
        match name.as_str() {
            "all" => {
                for (n, f) in EXPERIMENTS {
                    eprintln!("[repro] running {n} (scale {scale}) ...");
                    f(scale);
                    recorder.record(n);
                }
            }
            "check" => {
                xseq_bench::check();
                recorder.record("check");
            }
            other => match EXPERIMENTS.iter().find(|(n, _)| *n == other) {
                Some((n, f)) => {
                    f(scale);
                    recorder.record(n);
                }
                None => usage(),
            },
        }
    }

    if verify {
        eprintln!("[repro] verifying index integrity (scale {scale}) ...");
        if !xseq_bench::verify_corpora(scale) {
            exit(1);
        }
        recorder.record("verify");
    }

    if let Some(dir) = diag_dir {
        eprintln!("[repro] writing diagnostics bundle to {dir} ...");
        xseq_bench::diagnostics_bundle(&dir);
        recorder.record("diagnostics");
    }
}
