//! Hot-path panic-freedom (`cargo xtask analyze`, rule `hot-path-panic`).
//!
//! The read path must not abort the process: a panic inside
//! `query_batch` takes down every in-flight query sharing the pool, and a
//! panic while a buffer-pool or recorder guard is held poisons the lock
//! for the rest of the process.  Nor may untrusted input: `parse_document`
//! is a seed, so hostile XML ends in an `XmlError`, never in a panic.
//! This pass closes the seed set from the
//! checked-in manifest (`crates/xtask/hotpath.txt`) over the
//! [`FunctionIndex`] call graph and flags, in
//! every reachable function:
//!
//! * `.unwrap()` / `.expect(…)`,
//! * `panic!` / `unreachable!` / `todo!` / `unimplemented!` and the
//!   non-debug `assert*!` family (`debug_assert*!` compiles out of release
//!   builds and stays allowed),
//! * slice/array indexing `x[…]` (including range slicing),
//! * `/` and `%` with a non-literal divisor (integer division by zero).
//!
//! Each finding carries the *reachability path* from the seed, so the fix
//! site is obvious even when the panic lives three calls deep.  The escape
//! hatch is `// PANIC-FREE: <proof>` within [`PANIC_FREE_WINDOW`] lines of
//! the site (or of the `fn` line, which exempts the whole function); the
//! proof obligation is a one-line argument why the operation cannot fail —
//! e.g. "bucket_of() returns ≤ 64 and BUCKETS = 65".
//!
//! Resolution over-approximates (any same-named method may be the callee),
//! so the audited set is a superset of the truly reachable code — the safe
//! direction.  Harness crates ([`HARNESS_CRATES`]) are outside the audit:
//! they drive the engine from `main`, never from the query path.

use crate::graph::{FnId, FunctionIndex};
use crate::lexer::TokKind;
use crate::lint::Finding;
use crate::scan::SourceFile;
use std::collections::{HashMap, VecDeque};

/// Lines above a panic site (or `fn`) searched for `// PANIC-FREE:`.
pub const PANIC_FREE_WINDOW: u32 = 3;

/// Crates outside the hot-path audit: CLI/benchmark harnesses and this
/// analysis itself.
pub const HARNESS_CRATES: &[&str] = &["baselines", "bench", "datagen", "xtask"];

/// Repo-relative path of the seed manifest.
pub const HOTPATH_MANIFEST: &str = "crates/xtask/hotpath.txt";

/// Parses the manifest: one seed function name per line, `#` comments and
/// blank lines ignored.
pub fn parse_manifest(text: &str) -> Vec<String> {
    text.lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .map(str::to_string)
        .collect()
}

const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Runs the analysis: closes `seeds` over the call graph, then audits
/// every reachable function body.
pub fn check(files: &[SourceFile], seeds: &[String]) -> Vec<Finding> {
    let index = FunctionIndex::build(files);
    let audited = |id: FnId| {
        let file = index.file(id);
        !index.function(id).in_tests && !HARNESS_CRATES.contains(&file.crate_name.as_str())
    };

    let mut findings = Vec::new();

    // seed resolution (a stale manifest is itself a finding)
    let mut queue: VecDeque<FnId> = VecDeque::new();
    let mut parent: HashMap<FnId, Option<FnId>> = HashMap::new();
    for seed in seeds {
        let mut hits = index.candidates(seed, None);
        hits.retain(|&id| audited(id));
        if hits.is_empty() {
            findings.push(Finding {
                file: HOTPATH_MANIFEST.to_string(),
                line: 0,
                rule: "hot-path-panic",
                message: format!(
                    "hot-path seed `{seed}` matches no function in the workspace — update {HOTPATH_MANIFEST}"
                ),
            });
        }
        for id in hits {
            if parent.insert(id, None).is_none() {
                queue.push_back(id);
            }
        }
    }

    // BFS closure with parent pointers for diagnostics
    while let Some(id) = queue.pop_front() {
        for call in index.calls_in(id.0, index.function(id)) {
            for &t in &call.targets {
                if !audited(t) || parent.contains_key(&t) {
                    continue;
                }
                parent.insert(t, Some(id));
                queue.push_back(t);
            }
        }
    }

    let path_to = |mut id: FnId| -> String {
        let mut labels = vec![index.label(id)];
        while let Some(Some(p)) = parent.get(&id) {
            labels.push(index.label(*p));
            id = *p;
        }
        labels.reverse();
        labels.join(" -> ")
    };

    let mut reachable: Vec<FnId> = parent.keys().copied().collect();
    reachable.sort();
    for id in reachable {
        let file = index.file(id);
        let f = index.function(id);
        if file.has_annotation(f.line, PANIC_FREE_WINDOW, "PANIC-FREE:") {
            continue;
        }
        let body: Vec<usize> = file
            .body_tokens_of(f)
            .filter(|&ix| !file.tokens[ix].is_comment())
            .collect();
        let mut sites: Vec<(u32, String)> = Vec::new();
        for k in 0..body.len() {
            let text = file.text(body[k]);
            let line = file.tokens[body[k]].line;
            match text {
                "." if k + 2 < body.len()
                    && matches!(file.text(body[k + 1]), "unwrap" | "expect")
                    && file.text(body[k + 2]) == "(" =>
                {
                    sites.push((line, format!("`.{}(…)`", file.text(body[k + 1]))));
                }
                m if file.tokens[body[k]].kind == TokKind::Ident
                    && PANIC_MACROS.contains(&m)
                    && body.get(k + 1).is_some_and(|&nx| file.text(nx) == "!") =>
                {
                    sites.push((line, format!("`{m}!`")));
                }
                "[" if k > 0
                    && (file.tokens[body[k - 1]].kind == TokKind::Ident
                        || matches!(file.text(body[k - 1]), ")" | "]")) =>
                {
                    sites.push((line, "slice indexing `[…]`".to_string()));
                }
                "/" | "%"
                    if k > 0
                        && is_value_end(file, body[k - 1])
                        && !body.get(k + 1).is_some_and(|&nx| {
                            file.tokens[nx].kind == TokKind::Num
                                && file
                                    .text(nx)
                                    .chars()
                                    .any(|c| c.is_ascii_digit() && c != '0')
                        }) =>
                {
                    sites.push((line, format!("`{text}` with a non-literal divisor")));
                }
                _ => {}
            }
        }
        for (line, what) in sites {
            if file.has_annotation(line, PANIC_FREE_WINDOW, "PANIC-FREE:") {
                continue;
            }
            findings.push(Finding {
                file: file.rel_path.clone(),
                line,
                rule: "hot-path-panic",
                message: format!(
                    "{what} on the hot path (reachable via {}); use a checked alternative or annotate `// PANIC-FREE: <proof>`",
                    path_to(id)
                ),
            });
        }
    }

    findings.sort_by(|x, y| (&x.file, x.line).cmp(&(&y.file, y.line)));
    findings.dedup();
    findings
}

/// True when the token can end a value expression — the left operand of a
/// real division, as opposed to `&x / generic punctuation soup`.
fn is_value_end(file: &SourceFile, ix: usize) -> bool {
    match file.tokens[ix].kind {
        TokKind::Ident | TokKind::Num => true,
        TokKind::Punct => matches!(file.text(ix), ")" | "]"),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(src: &str, seeds: &[&str]) -> Vec<Finding> {
        let files = vec![SourceFile::scan("crates/demo/src/lib.rs", src)];
        let seeds: Vec<String> = seeds.iter().map(|s| s.to_string()).collect();
        check(&files, &seeds)
    }

    #[test]
    fn unwrap_reachable_from_seed_is_flagged_with_path() {
        let src = r#"
            pub fn entry(v: &[u32]) -> u32 { middle(v) }
            fn middle(v: &[u32]) -> u32 { inner(v) }
            fn inner(v: &[u32]) -> u32 { *v.first().unwrap() }
        "#;
        let f = analyze(src, &["entry"]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(
            f[0].message
                .contains("demo::entry -> demo::middle -> demo::inner"),
            "{f:?}"
        );
        assert_eq!(f[0].rule, "hot-path-panic");
    }

    #[test]
    fn unreachable_function_is_exempt() {
        let src = r#"
            pub fn entry(v: &[u32]) -> u32 { v.len() as u32 }
            pub fn cold(v: &[u32]) -> u32 { v[0] }
        "#;
        assert!(analyze(src, &["entry"]).is_empty());
    }

    #[test]
    fn annotations_exempt_site_and_function() {
        let src = r#"
            pub fn entry(v: &[u32]) -> u32 {
                // PANIC-FREE: caller guarantees v.len() >= 1 (checked in parse)
                let a = v[0];
                a + whole(v)
            }
            // PANIC-FREE: only called with the fixed-size header slice
            fn whole(v: &[u32]) -> u32 { v[1] + v[2] }
        "#;
        assert!(
            analyze(src, &["entry"]).is_empty(),
            "{:?}",
            analyze(src, &["entry"])
        );
    }

    #[test]
    fn indexing_macros_and_division_are_flagged() {
        let src = r#"
            pub fn entry(v: &[u32], n: u32) -> u32 {
                if v.is_empty() { panic!("empty") }
                let x = v[3];
                let y = x / n;
                let z = x / 2; // literal divisor: fine
                let w = x % 4; // literal divisor: fine
                y + z + w
            }
        "#;
        let f = analyze(src, &["entry"]);
        let whats: Vec<&str> = f
            .iter()
            .map(|f| f.message.split(" on the").next().unwrap())
            .collect();
        assert_eq!(
            whats,
            vec![
                "`panic!`",
                "slice indexing `[…]`",
                "`/` with a non-literal divisor"
            ],
            "{f:?}"
        );
    }

    #[test]
    fn debug_assert_and_attributes_are_not_flagged() {
        let src = r#"
            pub fn entry(v: &[u32]) -> u32 {
                debug_assert!(!v.is_empty());
                #[cfg(feature = "x")]
                let _flagged = ();
                let arr = [1u32, 2];
                let t: [u32; 2] = arr;
                t.iter().sum::<u32>() + v.len() as u32
            }
        "#;
        assert!(
            analyze(src, &["entry"]).is_empty(),
            "{:?}",
            analyze(src, &["entry"])
        );
    }

    #[test]
    fn stale_seed_is_a_finding() {
        let f = analyze("pub fn real() {}", &["ghost"]);
        assert_eq!(f.len(), 1);
        assert!(f[0]
            .message
            .contains("hot-path seed `ghost` matches no function"));
    }

    #[test]
    fn test_region_and_harness_crates_are_exempt() {
        let src = r#"
            pub fn entry(v: &[u32]) -> u32 { v.len() as u32 }
            #[cfg(test)]
            mod tests {
                fn entry_helper(v: &[u32]) -> u32 { v[0] }
            }
        "#;
        let bench = "pub fn entry(v: &[u32]) -> u32 { v[0] }";
        let files = vec![
            SourceFile::scan("crates/demo/src/lib.rs", src),
            SourceFile::scan("crates/bench/src/lib.rs", bench),
        ];
        assert!(check(&files, &["entry".to_string()]).is_empty());
    }

    #[test]
    fn manifest_parser_strips_comments() {
        let seeds = parse_manifest("# seeds\nquery_batch\n  absorb_segment # ingest\n\n");
        assert_eq!(seeds, vec!["query_batch", "absorb_segment"]);
    }
}
