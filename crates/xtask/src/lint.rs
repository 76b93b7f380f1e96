//! The `xseq-check` repo lint pass: mechanical rules the compiler does not
//! enforce, run as `cargo xtask lint` (and in CI, plus as the first rule
//! group of `cargo xtask analyze`).
//!
//! Rules:
//!
//! 1. **no-unsafe** — the `unsafe` keyword may not appear anywhere, and
//!    every crate root must carry `#![forbid(unsafe_code)]`.
//! 2. **safety-comment** — an `unsafe` site (block or impl) must be
//!    preceded by a `SAFETY:` comment within the three lines above it (or
//!    carry one on the same line): whoever argues rule 1 away for a module
//!    still owes the proof at every site.
//! 3. **no-bare-unwrap** — no `.unwrap()` and no empty-message
//!    `.expect("")` outside `#[cfg(test)]` regions: library code must
//!    either propagate errors or document the panic with a message.
//! 4. **span-name-grammar** — string literals registered as telemetry
//!    names (`start_span`, `event`, `histogram`, `counter`, `gauge`) must
//!    match the `phase.name` grammar: dot-separated segments of
//!    `[a-z][a-z0-9_]*`.
//! 5. **no-thread-spawn** — `thread::spawn(` may appear only under
//!    `crates/exec/`: every other crate expresses parallelism through the
//!    `xseq-exec::Pool`, which keeps thread counts, scoping and the
//!    sequential fall-back in one audited place.  (Scoped spawns via
//!    `thread::scope` + `s.spawn` don't match and stay legal — they
//!    cannot leak past their scope.)
//! 6. **metric-family** — registry metric literals (`histogram`,
//!    `counter`, `gauge`) must additionally open with a family from
//!    [`METRIC_FAMILIES`], so the exported namespace (`memory.*`,
//!    `workload.*`, …) grows deliberately instead of one ad-hoc prefix per
//!    call site.  Span and event names are exempt — they never reach the
//!    metrics exporters.
//! 7. **event-name-grammar** — flight-recorder event literals
//!    (`Event::new("…")`) follow the same `seg(.seg)*` grammar as span
//!    names, keeping the event taxonomy of DESIGN.md §13 mechanical.
//!
//! PR 3's `relaxed-annotation` rule graduated into the full
//! atomic-ordering audit ([`crate::atomics`], `cargo xtask analyze`),
//! which checks every ordering — not just `Relaxed` — against a declared
//! role.
//!
//! Since PR 8 the linter runs on the real token stream
//! ([`crate::lexer`] + [`crate::scan`]) instead of masked lines: rule
//! needles are token patterns, so string/comment contents can never match
//! by construction, and test-region exemption is the scanner's
//! `#[cfg(test)]`-to-EOF region.  Only the crate-root
//! `#![forbid(unsafe_code)]` check stays textual — it is an
//! exact-attribute presence test.

use crate::lexer::TokKind;
use crate::scan::SourceFile;
use std::fmt;
use std::path::{Path, PathBuf};

/// How many lines above an `unsafe` site a `SAFETY:` comment may sit.
const SAFETY_WINDOW: u32 = 3;

/// The only directory allowed to call `thread::spawn` — the worker pool.
pub const THREAD_SPAWN_PREFIX: &str = "crates/exec/";

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
    /// Rule identifier (e.g. `no-bare-unwrap`).
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

/// Lints one file's source.  `rel_path` is the repo-relative path used in
/// findings and for the per-directory rules.  Test-facing convenience over
/// [`lint_source`].
#[cfg_attr(not(test), allow(dead_code))]
pub fn lint_file(rel_path: &str, source: &str) -> Vec<Finding> {
    lint_source(&SourceFile::scan(rel_path, source))
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
        let in_tests = file.in_tests(ix);
        let push = |findings: &mut Vec<Finding>, rule: &'static str, message: String| {
            findings.push(Finding {
                file: file.rel_path.clone(),
                line,
                rule,
                message,
            });
        };

        // Rules 1 + 2: no unsafe, and SAFETY: comments (tests too —
        // unsound test code is still unsound).
        if text == "unsafe" && file.tokens[ix].kind == TokKind::Ident {
            push(
                &mut findings,
                "no-unsafe",
                "`unsafe` in a workspace whose every crate forbids it".into(),
            );
            if !file.has_annotation(line, SAFETY_WINDOW, "SAFETY:") {
                push(
                    &mut findings,
                    "safety-comment",
                    format!("`unsafe` without a SAFETY: comment within {SAFETY_WINDOW} lines"),
                );
            }
        }

        if in_tests {
            continue;
        }

        // Rule 3: bare unwrap / empty expect.
        if text == "."
            && code.get(k + 2).is_some_and(|&p| file.text(p) == "(")
            && file.text(code[k + 1]) == "unwrap"
            && code.get(k + 3).is_some_and(|&p| file.text(p) == ")")
        {
            push(
                &mut findings,
                "no-bare-unwrap",
                ".unwrap() outside #[cfg(test)]; propagate or .expect(\"why\")".into(),
            );
        }
        if text == "."
            && code.get(k + 2).is_some_and(|&p| file.text(p) == "(")
            && file.text(code[k + 1]) == "expect"
            && code
                .get(k + 3)
                .and_then(|&p| str_contents(file, p))
                .is_some_and(str::is_empty)
        {
            push(
                &mut findings,
                "no-bare-unwrap",
                "empty .expect(\"\") outside #[cfg(test)]; say why it cannot fail".into(),
            );
        }

        // Rules 4 + 6: telemetry name grammar and metric families.
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

        // Rule 7: flight-recorder event literals follow the span grammar.
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

        // Rule 5: threads are spawned only by the exec worker pool.
        if text == "thread"
            && !file.rel_path.starts_with(THREAD_SPAWN_PREFIX)
            && k + 4 < code.len()
            && file.text(code[k + 1]) == ":"
            && file.text(code[k + 2]) == ":"
            && file.text(code[k + 3]) == "spawn"
            && file.text(code[k + 4]) == "("
        {
            push(
                &mut findings,
                "no-thread-spawn",
                format!(
                    "thread::spawn outside {THREAD_SPAWN_PREFIX}; go through \
                     xseq_exec::Pool (or a std::thread::scope) instead"
                ),
            );
        }
    }
    findings
}

/// Walks `crates/*/src` under `root` and scans every `.rs` file — the
/// shared corpus for `lint` and the `analyze` passes.
pub fn scan_repo(root: &Path) -> Result<Vec<SourceFile>, String> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("{}: {e}", crates_dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    let mut out = Vec::new();
    for crate_dir in crate_dirs {
        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs(&src, &mut files)?;
        files.sort();
        for file in files {
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            let source =
                std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
            out.push(SourceFile::scan(&rel, &source));
        }
    }
    Ok(out)
}

/// Crate-root `#![forbid(unsafe_code)]` presence check over a scanned
/// corpus (textual: it is an exact-attribute test, not a token pattern).
pub fn forbid_findings(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        let is_root =
            file.rel_path.ends_with("/src/lib.rs") || file.rel_path.ends_with("/src/main.rs");
        if !is_root {
            continue;
        }
        if !file.src.contains("#![forbid(unsafe_code)]") {
            findings.push(Finding {
                file: file.rel_path.clone(),
                line: 1,
                rule: "no-unsafe",
                message: "crate root must declare #![forbid(unsafe_code)]".into(),
            });
        }
    }
    findings
}

/// Lints the whole repo: every `crates/*/src/**.rs` plus the crate-root
/// forbid check.
pub fn lint_repo(root: &Path) -> Result<Vec<Finding>, String> {
    let files = scan_repo(root)?;
    let mut findings: Vec<Finding> = files.iter().flat_map(lint_source).collect();
    findings.extend(forbid_findings(&files));
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

    const BAD_UNSAFE: &str = include_str!("../fixtures/bad_unsafe.rs");
    const BAD_UNWRAP: &str = include_str!("../fixtures/bad_unwrap.rs");
    const BAD_SPAN: &str = include_str!("../fixtures/bad_span_name.rs");
    const BAD_FAMILY: &str = include_str!("../fixtures/bad_metric_family.rs");
    const BAD_EVENT: &str = include_str!("../fixtures/bad_event_name.rs");
    const BAD_SPAWN: &str = include_str!("../fixtures/bad_thread_spawn.rs");
    const GOOD: &str = include_str!("../fixtures/good_clean.rs");

    fn rules(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn bad_unsafe_fixture_fails_both_unsafe_rules() {
        let f = lint_file("crates/demo/src/lib.rs", BAD_UNSAFE);
        assert!(rules(&f).contains(&"no-unsafe"), "{f:?}");
        assert!(rules(&f).contains(&"safety-comment"), "{f:?}");
    }

    #[test]
    fn bad_unwrap_fixture_fails_only_outside_tests() {
        let f = lint_file("crates/demo/src/lib.rs", BAD_UNWRAP);
        let unwraps: Vec<_> = f.iter().filter(|f| f.rule == "no-bare-unwrap").collect();
        assert_eq!(unwraps.len(), 2, "{f:?}"); // one .unwrap(), one .expect("")
                                               // fixture's test module contains .unwrap() that must NOT be flagged
        assert!(unwraps.iter().all(|f| f.line < 20), "{f:?}");
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
    fn bad_thread_spawn_fixture_fails_outside_exec() {
        let f = lint_file("crates/demo/src/lib.rs", BAD_SPAWN);
        let spawns: Vec<_> = f.iter().filter(|f| f.rule == "no-thread-spawn").collect();
        // exactly the detached spawn: the scoped s.spawn, the string, the
        // comment and the test module must not fire
        assert_eq!(spawns.len(), 1, "{f:?}");
        assert_eq!(spawns[0].line, 8, "{f:?}");
        // the worker pool itself is allowed to spawn
        let f = lint_file("crates/exec/src/lib.rs", BAD_SPAWN);
        assert!(!rules(&f).contains(&"no-thread-spawn"), "{f:?}");
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
    fn strings_and_comments_never_match_rule_needles() {
        let src = r##"
fn f() {
    let _ = "contains .unwrap() and unsafe and thread::spawn(";
    // .unwrap() in a comment is fine, as is unsafe
    /* block with .expect("") too */
    let _c = '"'; // a quote char literal must not open a string
    let _ = g(".unwrap()");
    let _raw = r#"unsafe .unwrap() thread::spawn("#;
}
"##;
        assert!(lint_file("crates/demo/src/lib.rs", src).is_empty());
    }

    #[test]
    fn delta_module_is_covered_and_obeys_the_rules() {
        // The update overlay (DESIGN.md §11) lives under the normal
        // crates/*/src walk; this pins that the walk actually reaches it,
        // so the telemetry-name-grammar and no-thread-spawn rules keep
        // applying to the delta trie as it grows.
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
        // And a detached spawn would be too (the overlay must express
        // parallelism through the exec pool).
        let spawned = format!("fn worse() {{ std::thread::spawn(|| ()); }}\n{source}");
        assert!(lint_file("crates/index/src/delta.rs", &spawned)
            .iter()
            .any(|f| f.rule == "no-thread-spawn"));
    }

    #[test]
    fn whole_repo_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let findings = lint_repo(&root).expect("repo walk succeeds");
        assert!(
            findings.is_empty(),
            "repo lint must be clean:\n{}",
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
