//! `cargo xtask` — repo automation (the cargo-xtask pattern: plain Rust
//! instead of shell, wired through the `.cargo/config.toml` alias).
//!
//! Subcommands:
//!
//! * `lint` (default) — the xseq-check lint pass: no `unsafe`, no bare
//!   `unwrap()`, telemetry-name grammar and metric families.  See
//!   `lint.rs` for the rules.
//! * `analyze [--json <path>]` — the token-aware static-analysis pass
//!   (DESIGN.md §14): the lint rules plus lock-order deadlock detection,
//!   the atomic-ordering audit, and hot-path panic-freedom.  Prints a
//!   per-rule timing table; `--json` writes the findings document CI
//!   uploads as an artifact.
//! * `loc` — non-blank, non-comment, non-test source lines and `pub fn`
//!   count per crate (same lexer/scanner as `analyze`), held under the
//!   ratchet in `crates/xtask/loc_ceiling.txt`: exits 1 when a listed
//!   crate exceeds either ceiling.
//! * `diagcheck <dir>` — validate a diagnostics bundle (as written by
//!   `Database::diagnostics` / `repro --diag`): presence of every
//!   artifact, JSON/JSONL well-formedness, manifest provenance keys.
#![forbid(unsafe_code)]

mod analyze;
mod atomics;
mod diagcheck;
mod graph;
mod lexer;
mod lint;
mod loc;
mod lockorder;
mod panicfree;
mod scan;

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None | Some("lint") => run_lint(),
        Some("analyze") => run_analyze(&args[1..]),
        Some("loc") => run_loc(),
        Some("diagcheck") => run_diagcheck(args.get(1).map(String::as_str)),
        Some("help" | "--help" | "-h") => {
            usage();
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("xtask: unknown subcommand `{other}`\n");
            usage();
            ExitCode::from(2)
        }
    }
}

fn run_diagcheck(dir: Option<&str>) -> ExitCode {
    let Some(dir) = dir else {
        eprintln!("xtask diagcheck: missing bundle directory\n");
        usage();
        return ExitCode::from(2);
    };
    let path = Path::new(dir);
    if !path.is_dir() {
        eprintln!("xtask diagcheck: {dir}: not a directory");
        return ExitCode::from(2);
    }
    let findings = diagcheck::check_bundle(path);
    if findings.is_empty() {
        println!("xtask diagcheck: {dir} clean");
        return ExitCode::SUCCESS;
    }
    for f in &findings {
        eprintln!("{dir}/{f}");
    }
    eprintln!("xtask diagcheck: {} finding(s)", findings.len());
    ExitCode::FAILURE
}

fn run_lint() -> ExitCode {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    match lint::lint_repo(&root) {
        Ok(findings) if findings.is_empty() => {
            println!("xtask lint: clean");
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                eprintln!("{f}");
            }
            eprintln!("xtask lint: {} finding(s)", findings.len());
            ExitCode::FAILURE
        }
        Err(err) => {
            eprintln!("xtask lint: {err}");
            ExitCode::from(2)
        }
    }
}

fn run_analyze(args: &[String]) -> ExitCode {
    let mut json_path: Option<&str> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => match it.next() {
                Some(p) => json_path = Some(p),
                None => {
                    eprintln!("xtask analyze: --json needs a path\n");
                    usage();
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("xtask analyze: unknown argument `{other}`\n");
                usage();
                return ExitCode::from(2);
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = match analyze::analyze_repo(&root) {
        Ok(r) => r,
        Err(err) => {
            eprintln!("xtask analyze: {err}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(path, analyze::to_json(&report)) {
            eprintln!("xtask analyze: {path}: {e}");
            return ExitCode::from(2);
        }
    }
    print!("{}", analyze::render(&report));
    if report.findings.is_empty() {
        println!("xtask analyze: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask analyze: {} finding(s)", report.findings.len());
        ExitCode::FAILURE
    }
}

fn run_loc() -> ExitCode {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ceiling_path = root.join(loc::CEILING_FILE);
    let measured = lint::scan_repo(&root).and_then(|files| {
        let text = std::fs::read_to_string(&ceiling_path)
            .map_err(|e| format!("{}: {e}", ceiling_path.display()))?;
        Ok((loc::measure(&files), loc::parse_ceilings(&text)?))
    });
    let (sizes, ceilings) = match measured {
        Ok(m) => m,
        Err(err) => {
            eprintln!("xtask loc: {err}");
            return ExitCode::from(2);
        }
    };
    print!("{}", loc::render(&sizes, &ceilings));
    let over = loc::over_ceiling(&sizes, &ceilings);
    if over.is_empty() {
        println!("xtask loc: under every ceiling");
        return ExitCode::SUCCESS;
    }
    for line in &over {
        eprintln!("{line}");
    }
    eprintln!(
        "xtask loc: {} ceiling(s) exceeded — shrink the crate, or raise {} in a change that says why",
        over.len(),
        loc::CEILING_FILE
    );
    ExitCode::FAILURE
}

fn usage() {
    println!(
        "usage: cargo xtask [lint | analyze [--json <path>] | loc | diagcheck <dir>]\n\n\
         subcommands:\n  \
         lint        run the xseq-check lint pass over crates/*/src (default)\n  \
         analyze     token-aware static analysis: lint + lock-order +\n              \
         atomic-ordering + hot-path panic-freedom (--json writes findings)\n  \
         loc         source lines and pub fns per crate vs loc_ceiling.txt\n  \
         diagcheck   validate a diagnostics bundle directory\n  \
         help        show this message\n\n\
         exit codes: 0 clean, 1 findings, 2 usage or I/O error"
    );
}
