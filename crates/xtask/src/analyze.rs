//! `cargo xtask analyze` — the static checks nothing in the toolchain
//! makes (DESIGN.md §14).  Three rule groups over one scan of
//! `crates/*/src`:
//!
//! * **naming** — telemetry span / metric / event names
//!   ([`crate::lint::lint_source`]);
//! * **workspace-lints** — every crate manifest inherits the workspace
//!   lint table, where `unsafe` and bare `unwrap()` are rejected by
//!   `rustc` and clippy ([`crate::lint::manifest_findings`]);
//! * **hot-path-panic** — panic-freedom of everything reachable from the
//!   seed manifest ([`crate::panicfree`]).

use crate::lint::{self, Finding};
use crate::panicfree;
use crate::scan::SourceFile;
use std::path::Path;

/// Runs the source-level rule groups over an already-scanned corpus — the
/// I/O-free core (the manifest check reads `Cargo.toml`s, so it lives in
/// [`analyze_repo`]).  Findings come back sorted by (file, line).
pub fn analyze_files(files: &[SourceFile], seeds: &[String]) -> Vec<Finding> {
    let mut findings: Vec<Finding> = files.iter().flat_map(lint::lint_source).collect();
    findings.extend(panicfree::check(files, seeds));
    findings.sort_by(|x, y| (&x.file, x.line).cmp(&(&y.file, y.line)));
    findings
}

/// Scans the repo under `root` and runs every rule group.
pub fn analyze_repo(root: &Path) -> Result<Vec<Finding>, String> {
    let files = lint::scan_repo(root)?;
    let manifest_path = root.join(panicfree::HOTPATH_MANIFEST);
    let manifest = std::fs::read_to_string(&manifest_path)
        .map_err(|e| format!("{}: {e}", manifest_path.display()))?;
    let mut findings = lint::manifest_findings(root)?;
    findings.extend(analyze_files(&files, &panicfree::parse_manifest(&manifest)));
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BAD_HOTPATH: &str = include_str!("../fixtures/bad_hotpath_unwrap.rs");
    const GOOD_HOTPATH: &str = include_str!("../fixtures/good_hotpath_checked.rs");
    const GOOD_CLEAN: &str = include_str!("../fixtures/good_clean.rs");

    fn fixture(src: &str) -> Vec<SourceFile> {
        vec![SourceFile::scan("crates/demo/src/lib.rs", src)]
    }

    fn seeds() -> Vec<String> {
        vec!["query_batch".to_string()]
    }

    #[test]
    fn bad_hotpath_unwrap_is_flagged_with_path_and_span() {
        let f = panicfree::check(&fixture(BAD_HOTPATH), &seeds());
        let rules: Vec<(&str, u32)> = f.iter().map(|f| (f.rule, f.line)).collect();
        assert_eq!(
            rules,
            vec![("hot-path-panic", 7), ("hot-path-panic", 12)],
            "{f:?}"
        );
        assert!(
            f[1].message.contains("demo::query_batch -> demo::decode"),
            "{f:?}"
        );
    }

    #[test]
    fn good_hotpath_checked_is_clean() {
        let f = panicfree::check(&fixture(GOOD_HOTPATH), &seeds());
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn good_clean_fixture_passes_every_group() {
        let files = fixture(GOOD_CLEAN);
        let f = analyze_files(&files, &[]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn whole_repo_is_clean_under_analyze() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let findings = analyze_repo(&root).expect("repo walk succeeds");
        assert!(
            findings.is_empty(),
            "analyze must be clean on the repo:\n{}",
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
