//! Runs all four workloads at a small scale, untraced and traced, and checks
//! what the benchmark promises about itself: nothing fails, every declared
//! metric is reported, the mixes separate the layers, and `BENCHMARK.json`
//! lists exactly what the program prints.
//!
//! The counting allocator and the machine's two cores are shared by every
//! test in this process, so the tests that run workloads take [`SERIAL`].

use std::time::Instant;
use xseq_benchmark::report::{benchmark_json, Report, END_TO_END, PER_LAYER};
use xseq_benchmark::{run_workload, workload, Options};

fn options(trace: bool) -> Options {
    Options {
        scale: SCALE,
        seconds: 0.3,
        trace,
        out_dir: std::env::temp_dir().join("xseq-benchmark-smoke"),
        ..Options::default()
    }
}

/// Held by every test that runs a workload: one at a time.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

const SCALE: f64 = 0.02;

/// The share conditions are about where a query's time goes once the data
/// is large enough for the layers to matter: below a quarter of full scale the
/// fixed per-query costs (parse, gather, profiling) dominate a DBLP lookup.
const SHARE_SCALE: f64 = 0.25;

fn layer(report: &Report, name: &str) -> f64 {
    report
        .value(name)
        .unwrap_or_else(|| panic!("{name} missing"))
}

#[test]
fn every_workload_runs_clean_untraced_and_traced() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    for spec in workload::WORKLOADS {
        // Both runs check every result against the same oracle, and the
        // traced run also compares its staged replay with the database, so
        // zero failures means traced and untraced returned identical ids.
        let e2e = run_workload(spec, &options(false), Instant::now());
        assert_eq!(e2e.failed, 0, "{}", e2e.text);
        assert!(e2e.attempted > 0);
        for def in &END_TO_END {
            let v = e2e.value(def.name).unwrap_or(f64::NAN);
            assert!(
                v.is_finite() && v > 0.0,
                "{}: {} = {v}",
                spec.name,
                def.name
            );
        }
        assert!(e2e
            .json_line()
            .starts_with("{\"correct\": true, \"attempted\": "));

        let traced = run_workload(spec, &options(true), Instant::now());
        assert_eq!(traced.failed, 0, "{}", traced.text);
        let names: Vec<&str> = traced.metrics.iter().map(|m| m.0).collect();
        let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names, declared);
        assert!(
            traced.text.contains("3 compactions"),
            "three compactions per stream"
        );
        // The traced build replays ingest only: no query layer runs under it.
        for line in traced.text.lines().filter(|l| l.starts_with("build ")) {
            assert!(
                !["query.parse", "index.plan", "index.search"]
                    .iter()
                    .any(|q| line.contains(q)),
                "{line}"
            );
        }
        if spec.name == "update_mix" {
            assert!(layer(&traced, "index.delta.merges") > 0.0);
        }
    }
}

#[test]
fn the_mixes_separate_planning_from_searching() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let traced = |name: &str| {
        let opts = Options {
            scale: SHARE_SCALE,
            ..options(true)
        };
        let spec = workload::find(name).expect("a declared workload");
        let report = run_workload(spec, &opts, Instant::now());
        assert_eq!(report.failed, 0, "{}", report.text);
        report
    };
    let xmark = traced("xmark_query");
    assert!(layer(&xmark, "index.plan.share_x1000") >= 600.0);
    let dblp = traced("dblp_query");
    assert!(layer(&dblp, "index.plan.share_x1000") <= 100.0);
    assert!(layer(&dblp, "index.search.share_x1000") >= 800.0);
}

#[test]
fn benchmark_json_lists_what_the_program_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        on_disk,
        benchmark_json(),
        "regenerate with --benchmark-json"
    );
}
