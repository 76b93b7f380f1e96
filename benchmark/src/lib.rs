//! The xseq benchmark: four workloads, end-to-end metrics measured through
//! the `Database` API with tracing off, and a traced run that times every
//! layer from outside through each crate's public functions.
//!
//! `README.md` states the one command and every metric; `WORKLOADS.md`
//! records why each workload exists and what each layer metric should move.

pub mod alloc;
pub mod calib;
pub mod layers;
pub mod phases;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workload;

/// Counts live bytes during the untimed memory round only (see [`alloc`]).
#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

use report::Report;
use std::time::Instant;
use workload::Spec;

/// Options of one run, as the command line gives them.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub scale: f64,
    pub trace: bool,
    /// Directory the traced run writes its span file into.
    pub out_dir: std::path::PathBuf,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            seed: 20_050_405,
            seconds: f64::from(report::RUN_SECONDS),
            scale: 1.0,
            trace: false,
            out_dir: std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        }
    }
}

/// Runs one workload and returns its report: the end-to-end metrics with
/// tracing off, or the per-layer metrics of a traced replay.
pub fn run_workload(spec: Spec, opts: &Options, started: Instant) -> Report {
    let header = report::provenance(&spec, opts.seed, opts.scale, opts.seconds);
    let spec = spec.scaled(opts.scale);
    if opts.trace {
        layers::run(spec, opts, &header)
    } else {
        let samples = phases::run(spec, opts.seed, opts.seconds, started);
        report::end_to_end(&spec, &samples, &header)
    }
}
