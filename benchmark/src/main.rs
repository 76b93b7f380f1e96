//! Command line of the xseq benchmark.  See `README.md`.

use std::process::ExitCode;
use std::time::Instant;
use xseq_benchmark::{report, run_workload, workload, Options};

const USAGE: &str = "usage: xseq-benchmark [--workload <name>] [--seed <u64>] [--seconds <s>] \
[--trace <0|1>] [--scale <f>] [--out <dir>] [--selfcheck] [--benchmark-json]
  without --workload every workload runs in turn; the last line printed per
  workload is its result as one JSON object";

fn main() -> ExitCode {
    let started = Instant::now();
    let mut opts = Options::default();
    let mut names: Vec<String> = Vec::new();
    let mut selfcheck = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => names.push(value()),
            "--seed" => opts.seed = parse(&flag, &value()),
            "--seconds" => opts.seconds = parse(&flag, &value()),
            "--scale" => opts.scale = parse(&flag, &value()),
            "--trace" => opts.trace = parse::<u8>(&flag, &value()) != 0,
            "--out" => opts.out_dir = value().into(),
            "--selfcheck" => selfcheck = true,
            "--benchmark-json" => {
                print!("{}", report::benchmark_json());
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => die(&format!("unknown argument {other}")),
        }
    }
    if !(opts.seconds > 0.0 && opts.scale > 0.0) {
        die("--seconds and --scale must be positive");
    }
    let specs: Vec<workload::Spec> = if names.is_empty() {
        workload::WORKLOADS.to_vec()
    } else {
        names
            .iter()
            .map(|n| workload::find(n).unwrap_or_else(|| die(&format!("unknown workload {n}"))))
            .collect()
    };
    if selfcheck {
        return if report::selfcheck(&specs, &opts) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    for (i, spec) in specs.iter().enumerate() {
        // Set-up time counts from process start for the first workload only.
        let t0 = if i == 0 { started } else { Instant::now() };
        let report = run_workload(*spec, &opts, t0);
        print!("{}", report.text);
        println!("{}", report.json_line());
    }
    ExitCode::SUCCESS
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| die(&format!("{flag}: cannot read {value:?}")))
}

fn die(msg: &str) -> ! {
    eprintln!("xseq-benchmark: {msg}\n{USAGE}");
    std::process::exit(2)
}
