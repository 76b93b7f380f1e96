//! `cargo xtask` — repo automation (the cargo-xtask pattern: plain Rust
//! instead of shell, wired through the `.cargo/config.toml` alias).
//!
//! Subcommands:
//!
//! * `analyze` (default) — the static checks the toolchain does not make
//!   (DESIGN.md §14): telemetry-name grammar and metric families, the
//!   workspace-lint opt-in of every crate manifest, and hot-path
//!   panic-freedom from the seeds in `crates/xtask/hotpath.txt`.  `unsafe`,
//!   bare `unwrap()` and detached thread spawns are `rustc`'s and clippy's
//!   (root `Cargo.toml` `[workspace.lints]`, `clippy.toml`).
//! * `loc` — non-blank, non-comment, non-test source lines and `pub fn`
//!   count per crate (same lexer/scanner as `analyze`), held under the
//!   ratchet in `crates/xtask/loc_ceiling.txt`: exits 1 when a listed
//!   crate exceeds either ceiling.
//! * `diagcheck <dir>` — validate a diagnostics bundle (as written by
//!   `Database::diagnostics` / `repro --diag`): presence of every
//!   artifact, JSON/JSONL well-formedness, manifest provenance keys.

mod analyze;
mod diagcheck;
mod graph;
mod lexer;
mod lint;
mod loc;
mod panicfree;
mod scan;

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args[..] {
        [] | ["analyze"] => run_analyze(),
        ["loc"] => run_loc(),
        ["diagcheck", ref rest @ ..] => run_diagcheck(rest.first().copied()),
        ["help" | "--help" | "-h"] => {
            usage();
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("xtask: unrecognised arguments `{}`\n", args.join(" "));
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

fn run_analyze() -> ExitCode {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    match analyze::analyze_repo(&root) {
        Ok(findings) if findings.is_empty() => {
            println!("xtask analyze: clean");
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                eprintln!("{f}");
            }
            eprintln!("xtask analyze: {} finding(s)", findings.len());
            ExitCode::FAILURE
        }
        Err(err) => {
            eprintln!("xtask analyze: {err}");
            ExitCode::from(2)
        }
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
        "usage: cargo xtask [analyze | loc | diagcheck <dir>]\n\n\
         subcommands:\n  \
         analyze     telemetry-name grammar, workspace-lint opt-in and\n              \
         hot-path panic-freedom over crates/*/src (default)\n  \
         loc         source lines and pub fns per crate vs loc_ceiling.txt\n  \
         diagcheck   validate a diagnostics bundle directory\n  \
         help        show this message\n\n\
         exit codes: 0 clean, 1 findings, 2 usage or I/O error"
    );
}
