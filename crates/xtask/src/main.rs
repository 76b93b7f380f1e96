//! `cargo xtask` — repo automation (the cargo-xtask pattern: plain Rust
//! instead of shell, wired through the `.cargo/config.toml` alias).
//!
//! Subcommands:
//!
//! * `loc` — non-blank, non-comment, non-test source lines and `pub fn`
//!   count per crate, held under the ratchet in
//!   `crates/xtask/loc_ceiling.txt`: exits 1 when a listed crate exceeds
//!   either ceiling.
//! * `diagcheck <dir>` — validate a diagnostics bundle (as written by
//!   `Database::diagnostics` / `repro --diag`): presence of every
//!   artifact, JSON/JSONL well-formedness, manifest provenance keys.
//!
//! Static checks are the compiler's (DESIGN.md §14): `unsafe`, bare
//! `unwrap()`, detached spawns and, in every library crate, panicking
//! indexing, `expect`, `panic!` and integer division are rejected by
//! `rustc` and clippy.  The tests below pin that every crate opts into
//! those lint levels.

mod diagcheck;
mod loc;

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args[..] {
        [] => {
            eprintln!("xtask: missing subcommand\n");
            usage();
            ExitCode::from(2)
        }
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

fn run_loc() -> ExitCode {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ceiling_path = root.join(loc::CEILING_FILE);
    let measured = loc::scan_repo(&root).and_then(|files| {
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
        "xtask loc: {} finding(s) — shrink the crate, or add or raise its line in {} in a change that says why",
        over.len(),
        loc::CEILING_FILE
    );
    ExitCode::FAILURE
}

fn usage() {
    println!(
        "usage: cargo xtask <loc | diagcheck <dir>>\n\n\
         subcommands:\n  \
         loc         source lines and pub fns per crate vs loc_ceiling.txt\n  \
         diagcheck   validate a diagnostics bundle directory\n  \
         help        show this message\n\n\
         exit codes: 0 clean, 1 findings, 2 usage or I/O error"
    );
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    /// Crates outside the panic lints: CLI and benchmark harnesses, which
    /// drive the engine from `main`, and this crate.
    const HARNESS_CRATES: &[&str] = &["baselines", "bench", "datagen", "xtask"];

    /// The lints every library crate root denies (DESIGN.md §14).
    const DENIED: &[&str] = &[
        "clippy::indexing_slicing",
        "clippy::expect_used",
        "clippy::panic",
        "clippy::unreachable",
        "clippy::todo",
        "clippy::unimplemented",
        "clippy::integer_division_remainder_used",
    ];

    /// True when a crate manifest inherits the workspace lint table: a
    /// `[lints]` section holding `workspace = true`.
    fn inherits_workspace_lints(manifest: &str) -> bool {
        manifest
            .lines()
            .map(|l| l.split('#').next().unwrap_or("").trim())
            .skip_while(|l| *l != "[lints]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .any(|l| l.replace(' ', "") == "workspace=true")
    }

    /// The lints named by a crate root's `#![deny(…)]`, if it has one.
    fn denied_lints(lib_rs: &str) -> Option<&str> {
        let start = lib_rs.find("#![deny(")?;
        let len = lib_rs[start..].find(")]")?;
        Some(&lib_rs[start..start + len])
    }

    /// Cargo accepts a member without `[lints]` silently, and a new library
    /// crate without the deny list escapes the panic lints just as quietly.
    #[test]
    fn every_crate_inherits_the_workspace_lints_and_libraries_deny_panics() {
        let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        for entry in std::fs::read_dir(&crates).unwrap() {
            let dir = entry.unwrap().path();
            let name = dir.file_name().unwrap().to_string_lossy().into_owned();
            let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).unwrap();
            assert!(
                inherits_workspace_lints(&manifest),
                "crates/{name}/Cargo.toml must inherit the workspace lint table: \
                 add `[lints]` with `workspace = true`"
            );
            if HARNESS_CRATES.contains(&name.as_str()) {
                continue;
            }
            let lib_rs = std::fs::read_to_string(dir.join("src/lib.rs")).unwrap();
            let denied = denied_lints(&lib_rs).unwrap_or("");
            for lint in DENIED {
                assert!(
                    denied.contains(lint),
                    "crates/{name}/src/lib.rs must deny {lint} in its `#![deny(…)]`"
                );
            }
        }
    }

    #[test]
    fn manifest_opt_in_is_a_lints_section_with_workspace_true() {
        let head = "[package]\nname = \"demo\"\n\n[dependencies]\n";
        assert!(inherits_workspace_lints(&format!(
            "{head}\n[lints]\nworkspace = true\n"
        )));
        assert!(inherits_workspace_lints(&format!(
            "{head}[lints]\n# inherit\nworkspace=true # all of it\n[features]\n"
        )));
        // absent, commented out, a crate-local table, or `workspace = true`
        // under some other section (a dependency's) do not count
        for tail in [
            "",
            "# [lints]\n# workspace = true\n",
            "[lints.rust]\nunsafe_code = \"forbid\"\n",
            "[lints]\n[features]\nworkspace = true\n",
            "[dependencies.rand]\nworkspace = true\n",
        ] {
            assert!(
                !inherits_workspace_lints(&format!("{head}{tail}")),
                "{tail}"
            );
        }
    }

    /// The section numbers DESIGN.md's `## N.` and `### N.M` headings
    /// define, trailing period stripped.
    fn design_sections(design: &str) -> Vec<String> {
        (design.lines())
            .filter_map(|line| {
                let title = (line.strip_prefix("### ")).or_else(|| line.strip_prefix("## "))?;
                let number = title.split_whitespace().next()?.trim_end_matches('.');
                (number.starts_with(|c: char| c.is_ascii_digit())).then(|| number.to_string())
            })
            .collect()
    }

    /// The section numbers `text` cites as `DESIGN.md §N` or `DESIGN §N.M`,
    /// and the ones a list continues such a citation with (`, §N`,
    /// ` and §N`, `/§N`), read across line breaks and comment markers.
    fn design_citations(text: &str) -> Vec<String> {
        let flat = (text.lines())
            .map(|line| line.trim_start().trim_start_matches(['/', '!', '#']).trim())
            .collect::<Vec<_>>()
            .join(" ");
        let mut out = Vec::new();
        for (at, _) in flat.match_indices("DESIGN") {
            let rest = &flat[at + "DESIGN".len()..];
            let rest = rest.strip_prefix(".md").unwrap_or(rest);
            let mut rest = rest.strip_prefix('`').unwrap_or(rest).trim_start();
            while let Some(cited) = rest.strip_prefix('§') {
                let len = cited
                    .find(|c: char| !(c.is_ascii_digit() || c == '.'))
                    .unwrap_or(cited.len());
                let number = cited[..len].trim_end_matches('.');
                if number.is_empty() {
                    break;
                }
                out.push(number.to_string());
                rest = &cited[len..];
                rest = [", ", " and ", "/"]
                    .iter()
                    .find_map(|sep| rest.strip_prefix(sep))
                    .unwrap_or("");
            }
        }
        out
    }

    fn files_under(path: &Path, out: &mut Vec<std::path::PathBuf>) {
        if path.is_file() {
            out.push(path.to_path_buf());
        } else if path.is_dir() && !path.ends_with("target") {
            for entry in std::fs::read_dir(path).unwrap() {
                files_under(&entry.unwrap().path(), out);
            }
        }
    }

    /// A citation of a section that a DESIGN.md rewrite renumbered or
    /// dropped points nowhere, and nothing else notices.  CHANGES.md is
    /// history and cites sections as they were.
    #[test]
    fn every_design_md_citation_names_a_section() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let design = std::fs::read_to_string(root.join("DESIGN.md")).unwrap();
        let sections = design_sections(&design);
        let mut files = Vec::new();
        for path in [
            "crates",
            "tests",
            "examples",
            ".github",
            "README.md",
            "ROADMAP.md",
            "EXPERIMENTS.md",
            "Cargo.toml",
            "clippy.toml",
        ] {
            files_under(&root.join(path), &mut files);
        }
        let mut dangling = Vec::new();
        for file in files {
            let Ok(text) = std::fs::read_to_string(&file) else {
                continue;
            };
            for cited in design_citations(&text) {
                if !sections.contains(&cited) {
                    dangling.push(format!("{}: §{cited}", file.display()));
                }
            }
        }
        assert!(
            dangling.is_empty(),
            "DESIGN.md has no such section: {dangling:#?}"
        );
    }

    #[test]
    fn citations_are_read_in_lists_and_across_line_breaks() {
        let design = "# DESIGN\n## 1. One\n### 1.2 Sub\n### Tracing\n## 10. Ten\n";
        assert_eq!(design_sections(design), ["1", "1.2", "10"]);
        // `\u{a7}` is the section sign, kept out of this file's own text
        let text = "see DESIGN.md \u{a7}1.2, \u{a7}10 and \u{a7}3/\u{a7}4.\n\
                    //! (`DESIGN.md`\n//! \u{a7}5.0.) DESIGN \u{a7}6, \u{a7}x; \u{a7}7";
        assert_eq!(design_citations(text), ["1.2", "10", "3", "4", "5.0", "6"]);
    }

    #[test]
    fn a_partial_deny_list_is_found_wanting() {
        let lib = "//! docs\n#![deny(clippy::indexing_slicing, clippy::panic)]\npub fn f() {}\n";
        let denied = denied_lints(lib).unwrap();
        assert!(denied.contains("clippy::panic"));
        assert!(!DENIED.iter().all(|lint| denied.contains(lint)));
        assert_eq!(denied_lints("pub fn f() {}"), None);
    }
}
