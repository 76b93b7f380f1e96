//! The naming rules of `cargo xtask analyze`, the repo walk every pass
//! shares, and the manifest opt-in check.
//!
//! What `rustc` and clippy can check, they check: the root `Cargo.toml`'s
//! `[workspace.lints]` table denies `unsafe` and bare `unwrap()`,
//! and the root `clippy.toml` disallows detached thread spawns.  What is
//! left here is what neither knows about — the telemetry vocabulary:
//!
//! * **span-name-grammar** — string literals registered as telemetry
//!   names (`start_span`, `event`, `histogram`, `counter`, `gauge`) must
//!   match the `phase.name` grammar: dot-separated segments of
//!   `[a-z][a-z0-9_]*`.
//! * **metric-family** — registry metric literals (`histogram`,
//!   `counter`, `gauge`) must additionally open with a family from
//!   [`METRIC_FAMILIES`], so the exported namespace (`memory.*`,
//!   `workload.*`, …) grows deliberately instead of one ad-hoc prefix per
//!   call site.  Span and event names are exempt — they never reach the
//!   metrics exporters.
//! * **event-name-grammar** — flight-recorder event literals
//!   (`Event::new("…")`) follow the same `seg(.seg)*` grammar as span
//!   names, keeping the event taxonomy of DESIGN.md §13 mechanical.
//! * **workspace-lints** — every `crates/*/Cargo.toml` must carry
//!   `[lints] workspace = true`; a member that does not opt in escapes the
//!   workspace table silently ([`manifest_findings`]).
//!
//! The rules run on the real token stream ([`crate::lexer`] +
//! [`crate::scan`]): rule needles are token patterns, so string/comment
//! contents can never match by construction, and test-region exemption is
//! the scanner's `#[cfg(test)]`-to-EOF region.

use crate::lexer::TokKind;
use crate::scan::SourceFile;
use std::fmt;
use std::path::{Path, PathBuf};

/// Registered metric families: the first dot-segment of every registry
/// metric literal must be one of these.  Extending the exported namespace
/// means extending this list in the same change — which is the point.
pub const METRIC_FAMILIES: &[&str] = &[
    "index", "ingest", "memory", "query", "sequence", "storage", "update", "workload", "xml",
];

/// True when a registry metric name opens with a registered family.
fn metric_family_ok(name: &str) -> bool {
    name.split('.')
        .next()
        .is_some_and(|fam| METRIC_FAMILIES.contains(&fam))
}

/// One lint/analysis violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Rule identifier (e.g. `hot-path-panic`).
    pub rule: &'static str,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// True when `name` matches the telemetry grammar `seg(.seg)*` with
/// `seg = [a-z][a-z0-9_]*`.
fn valid_span_name(name: &str) -> bool {
    !name.is_empty()
        && name.split('.').all(|seg| {
            let mut chars = seg.chars();
            matches!(chars.next(), Some('a'..='z'))
                && chars.all(|c| matches!(c, 'a'..='z' | '0'..='9' | '_'))
        })
}

/// The contents of a plain `"…"` literal token, if it is one.
fn str_contents(file: &SourceFile, ix: usize) -> Option<&str> {
    if file.tokens[ix].kind != TokKind::Str {
        return None;
    }
    let text = file.text(ix);
    text.strip_prefix('"').and_then(|t| t.strip_suffix('"'))
}

/// Token-stream lint over an already-scanned file.
pub fn lint_source(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    let code: Vec<usize> = crate::lexer::code_tokens(&file.tokens)
        .map(|(i, _)| i)
        .collect();

    // (method, is a registry metric — spans/events skip the family rule,
    //  needs a leading dot — `event` is too generic for a bare match)
    let name_sinks: &[(&str, bool, bool)] = &[
        ("start_span", false, false),
        ("event", false, true),
        ("histogram", true, false),
        ("counter", true, false),
        ("gauge", true, false),
    ];

    for (k, &ix) in code.iter().enumerate() {
        let text = file.text(ix);
        let line = file.tokens[ix].line;
        if file.in_tests(ix) {
            continue;
        }
        let push = |findings: &mut Vec<Finding>, rule: &'static str, message: String| {
            findings.push(Finding {
                file: file.rel_path.clone(),
                line,
                rule,
                message,
            });
        };

        // Telemetry name grammar and metric families.
        if file.tokens[ix].kind == TokKind::Ident {
            if let Some(&(_, is_metric, needs_dot)) = name_sinks.iter().find(|(m, _, _)| *m == text)
            {
                let dotted = k > 0 && file.text(code[k - 1]) == ".";
                let name = (!needs_dot || dotted)
                    .then(|| code.get(k + 1).zip(code.get(k + 2)))
                    .flatten()
                    .filter(|(&p, _)| file.text(p) == "(")
                    .and_then(|(_, &a)| str_contents(file, a));
                if let Some(name) = name {
                    if !valid_span_name(name) {
                        push(
                            &mut findings,
                            "span-name-grammar",
                            format!(
                                "telemetry name {name:?} violates `seg(.seg)*` with \
                                 seg = [a-z][a-z0-9_]*"
                            ),
                        );
                    } else if is_metric && !metric_family_ok(name) {
                        push(
                            &mut findings,
                            "metric-family",
                            format!(
                                "metric name {name:?} opens a family outside the registered \
                                 set ({}); extend METRIC_FAMILIES deliberately",
                                METRIC_FAMILIES.join(", ")
                            ),
                        );
                    }
                }
            }
        }

        // Flight-recorder event literals follow the span grammar.
        if text == "Event"
            && k + 5 < code.len()
            && file.text(code[k + 1]) == ":"
            && file.text(code[k + 2]) == ":"
            && file.text(code[k + 3]) == "new"
            && file.text(code[k + 4]) == "("
        {
            if let Some(name) = str_contents(file, code[k + 5]) {
                if !valid_span_name(name) {
                    push(
                        &mut findings,
                        "event-name-grammar",
                        format!(
                            "event name {name:?} violates `seg(.seg)*` with \
                             seg = [a-z][a-z0-9_]*"
                        ),
                    );
                }
            }
        }
    }
    findings
}

/// The crate directories under `root/crates`, sorted.
fn crate_dirs(root: &Path) -> Result<Vec<PathBuf>, String> {
    let crates_dir = root.join("crates");
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("{}: {e}", crates_dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    Ok(dirs)
}

fn rel_to(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Walks `crates/*/src` under `root` and scans every `.rs` file — the
/// shared corpus of the `analyze` rules and `loc`.
pub fn scan_repo(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut out = Vec::new();
    for crate_dir in crate_dirs(root)? {
        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs(&src, &mut files)?;
        files.sort();
        for file in files {
            let source =
                std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
            out.push(SourceFile::scan(&rel_to(root, &file), &source));
        }
    }
    Ok(out)
}

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

/// The opt-in check behind the workspace lint table (textual: it is a
/// presence test on a manifest, not a token pattern).  The table's
/// `unsafe_code` and `clippy::unwrap_used` levels reach a member only
/// through `[lints] workspace = true`, and Cargo does not complain when a
/// member leaves it out.
pub fn manifest_findings(root: &Path) -> Result<Vec<Finding>, String> {
    let mut findings = Vec::new();
    for crate_dir in crate_dirs(root)? {
        let manifest = crate_dir.join("Cargo.toml");
        let text = std::fs::read_to_string(&manifest)
            .map_err(|e| format!("{}: {e}", manifest.display()))?;
        if !inherits_workspace_lints(&text) {
            findings.push(Finding {
                file: rel_to(root, &manifest),
                line: 1,
                rule: "workspace-lints",
                message: "manifest must inherit the workspace lint table: \
                          add `[lints]` with `workspace = true`"
                    .into(),
            });
        }
    }
    Ok(findings)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const BAD_SPAN: &str = include_str!("../fixtures/bad_span_name.rs");
    const BAD_FAMILY: &str = include_str!("../fixtures/bad_metric_family.rs");
    const BAD_EVENT: &str = include_str!("../fixtures/bad_event_name.rs");
    const GOOD: &str = include_str!("../fixtures/good_clean.rs");

    fn lint_file(rel_path: &str, source: &str) -> Vec<Finding> {
        lint_source(&SourceFile::scan(rel_path, source))
    }

    fn rules(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn bad_span_name_fixture_fails_grammar() {
        let f = lint_file("crates/demo/src/lib.rs", BAD_SPAN);
        let spans: Vec<_> = f.iter().filter(|f| f.rule == "span-name-grammar").collect();
        assert_eq!(spans.len(), 3, "{f:?}");
    }

    #[test]
    fn bad_metric_family_fixture_fails_outside_registered_families() {
        let f = lint_file("crates/demo/src/lib.rs", BAD_FAMILY);
        let fams: Vec<_> = f.iter().filter(|f| f.rule == "metric-family").collect();
        // exactly the off-family counter and gauge: the span name and the
        // workload.* histogram must not fire
        assert_eq!(fams.len(), 2, "{f:?}");
        assert!(!rules(&f).contains(&"span-name-grammar"), "{f:?}");
        // a grammar violation reports once, not once per rule
        let f = lint_file(
            "crates/demo/src/lib.rs",
            "fn f(t: &T) { t.gauge(\"Bad.Name\"); }\n",
        );
        assert_eq!(rules(&f), vec!["span-name-grammar"], "{f:?}");
        // the observability families of DESIGN.md §12 are registered
        for fam in ["memory", "workload"] {
            assert!(METRIC_FAMILIES.contains(&fam), "{fam}");
        }
    }

    #[test]
    fn bad_event_name_fixture_fails_grammar() {
        let f = lint_file("crates/demo/src/lib.rs", BAD_EVENT);
        let events: Vec<_> = f
            .iter()
            .filter(|f| f.rule == "event-name-grammar")
            .collect();
        // exactly the uppercase and empty-segment literals: the good names,
        // the doc comment, the string payload and the test module must not
        // fire
        assert_eq!(events.len(), 2, "{f:?}");
        assert!(events.iter().all(|f| f.line < 10), "{f:?}");
        assert_eq!(rules(&f), vec!["event-name-grammar", "event-name-grammar"]);
    }

    #[test]
    fn good_fixture_is_clean() {
        let f = lint_file("crates/demo/src/lib.rs", GOOD);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn span_name_grammar() {
        for good in [
            "index.search",
            "a",
            "xml.parse",
            "storage.pool.hits",
            "a_b.c9",
        ] {
            assert!(valid_span_name(good), "{good}");
        }
        for bad in ["", "Index.search", "a..b", "a.", ".a", "a-b", "9a", "a.B"] {
            assert!(!valid_span_name(bad), "{bad}");
        }
    }

    #[test]
    fn delta_module_is_covered_and_obeys_the_rules() {
        // The update overlay (DESIGN.md §11) lives under the normal
        // crates/*/src walk; this pins that the walk actually reaches it,
        // so the telemetry-name grammar keeps applying to the delta trie
        // as it grows.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let delta = root.join("crates/index/src/delta.rs");
        let source = std::fs::read_to_string(&delta).expect("delta module exists");
        assert!(lint_file("crates/index/src/delta.rs", &source).is_empty());
        // A grammar violation in it would be reported, not skipped (the
        // poison is prepended — the module ends in `#[cfg(test)]`, where
        // the rules relax).
        let poisoned = format!(
            "fn bad(r: &xseq_telemetry::MetricsRegistry) {{ r.gauge(\"Index.Delta\"); }}\n{source}"
        );
        assert!(lint_file("crates/index/src/delta.rs", &poisoned)
            .iter()
            .any(|f| f.rule == "span-name-grammar"));
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
}
