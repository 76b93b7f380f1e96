//! A lightweight item scanner over the [`lexer`] token
//! stream: brace matching, `impl` owner tracking, and per-function token
//! ranges — the shared substrate of the `cargo xtask analyze` passes.
//!
//! This is deliberately *not* a parser.  The analyses need three
//! structural facts the flat token stream lacks:
//!
//! 1. **Function extents** — which tokens belong to which `fn`, so panic
//!    sites can be attributed to a named function and propagated along the
//!    call graph.
//! 2. **Owners** — the `impl` type a method lives in, so `Type::method`
//!    calls resolve precisely while bare `method` calls fall back to
//!    name-level resolution.
//! 3. **Test regions** — everything from the first `#[cfg(test)]` token to
//!    the end of the file is exempt from the hot-path and style rules,
//!    matching the PR 3 lint's (documented) file-suffix semantics.

use crate::lexer::{self, TokKind, Token};
use std::ops::Range;

/// One function (or method) found in a file.
#[derive(Debug, Clone)]
pub struct Function {
    /// The function's name (raw identifiers keep their `r#`).
    pub name: String,
    /// The `impl` type the function is defined on, when inside an `impl`.
    pub owner: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index of the `fn` keyword.
    pub sig_start: usize,
    /// Token indices of the body, braces excluded (empty for bodyless
    /// trait/extern declarations).
    pub body: Range<usize>,
    /// True when the function sits in the file's test region.
    pub in_tests: bool,
}

/// One scanned source file: the token stream plus the structural facts.
#[derive(Debug)]
pub struct SourceFile {
    /// Repo-relative path (`crates/<crate>/src/…`).
    pub rel_path: String,
    /// The crate directory name (`crates/<crate>/…`).
    pub crate_name: String,
    pub src: String,
    pub tokens: Vec<Token>,
    /// Functions in source order (nested functions appear after their
    /// enclosing function; their token ranges overlap).
    pub functions: Vec<Function>,
    /// First token index of the test region (`usize::MAX` when none).
    pub test_from: usize,
}

impl SourceFile {
    /// Lexes and scans `source`.
    pub fn scan(rel_path: &str, source: &str) -> SourceFile {
        let tokens = lexer::lex(source);
        let crate_name = rel_path
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or("")
            .to_string();
        let test_from = find_test_region(&tokens, source);
        let functions = scan_functions(&tokens, source, test_from);
        SourceFile {
            rel_path: rel_path.to_string(),
            crate_name,
            src: source.to_string(),
            tokens,
            functions,
            test_from,
        }
    }

    /// The token's text.
    pub fn text(&self, ix: usize) -> &str {
        self.tokens[ix].text(&self.src)
    }

    /// True when token `ix` is in the file's test region.
    pub fn in_tests(&self, ix: usize) -> bool {
        ix >= self.test_from
    }

    /// True when some line comment on lines `[line-window, line]` contains
    /// `needle` — the shape of an annotation rule (`PANIC-FREE:`).
    pub fn has_annotation(&self, line: u32, window: u32, needle: &str) -> bool {
        self.annotation_text(line, window, needle).is_some()
    }

    /// The text after `needle` in the nearest qualifying comment (nearest
    /// line first, same line included), trimmed.
    pub fn annotation_text(&self, line: u32, window: u32, needle: &str) -> Option<String> {
        let lo = line.saturating_sub(window);
        let mut best: Option<(u32, String)> = None;
        for t in &self.tokens {
            if !t.is_comment() || t.line < lo || t.line > line {
                continue;
            }
            let text = t.text(&self.src);
            if let Some(p) = text.find(needle) {
                let rest = text[p + needle.len()..]
                    .trim_start()
                    .trim_end_matches("*/")
                    .trim()
                    .to_string();
                match &best {
                    Some((l, _)) if *l >= t.line => {}
                    _ => best = Some((t.line, rest)),
                }
            }
        }
        best.map(|(_, s)| s)
    }

    /// Token indices of `f`'s body with any *nested* function's tokens
    /// (signature and body) skipped, so sites attribute to exactly one
    /// function.
    pub fn body_tokens_of<'a>(&'a self, f: &'a Function) -> impl Iterator<Item = usize> + 'a {
        let nested: Vec<Range<usize>> = self
            .functions
            .iter()
            .filter(|g| g.sig_start > f.sig_start && g.body.end <= f.body.end && !g.body.is_empty())
            .map(|g| g.sig_start..g.body.end + 1)
            .collect();
        f.body
            .clone()
            .filter(move |ix| !nested.iter().any(|r| r.contains(ix)))
    }
}

/// First token index of `#` in a `#[cfg(test)]` attribute, or `usize::MAX`.
fn find_test_region(tokens: &[Token], src: &str) -> usize {
    let code: Vec<usize> = lexer::code_tokens(tokens).map(|(i, _)| i).collect();
    for w in code.windows(7) {
        let texts: Vec<&str> = w.iter().map(|&i| tokens[i].text(src)).collect();
        if texts == ["#", "[", "cfg", "(", "test", ")", "]"] {
            return w[0];
        }
    }
    usize::MAX
}

/// Owner of an `impl` block: the last path segment of the implemented
/// type (`impl Trait for a::b::Type<T>` → `Type`).
fn impl_owner(tokens: &[Token], src: &str, code: &[usize], impl_pos: usize) -> Option<String> {
    // collect the code tokens between `impl` and its `{`
    let mut span = Vec::new();
    for &ix in &code[impl_pos + 1..] {
        let t = tokens[ix].text(src);
        if t == "{" || t == ";" || t == "where" {
            break;
        }
        span.push(t);
    }
    // `for` splits trait from type; the type is what we want
    if let Some(p) = span.iter().position(|&t| t == "for") {
        span.drain(..=p);
    }
    // last identifier before any generic args of the final path segment:
    // walk the span, remembering the most recent identifier seen at
    // angle-bracket depth 0
    let mut depth = 0i32;
    let mut owner = None;
    for t in span {
        match t {
            "<" => depth += 1,
            ">" => depth -= 1,
            _ if depth == 0
                && t.chars()
                    .next()
                    .is_some_and(|c| c.is_alphabetic() || c == '_') =>
            {
                owner = Some(t.to_string());
            }
            _ => {}
        }
    }
    owner
}

fn scan_functions(tokens: &[Token], src: &str, test_from: usize) -> Vec<Function> {
    let code: Vec<usize> = lexer::code_tokens(tokens).map(|(i, _)| i).collect();
    let mut functions = Vec::new();
    // stack of (brace_depth_after_open, owner) for impl blocks
    let mut impl_stack: Vec<(i32, Option<String>)> = Vec::new();
    let mut depth = 0i32;
    let mut pending_impl: Option<Option<String>> = None;

    let mut c = 0usize;
    while c < code.len() {
        let ix = code[c];
        let t = tokens[ix];
        let text = t.text(src);
        match text {
            "{" => {
                depth += 1;
                if let Some(owner) = pending_impl.take() {
                    impl_stack.push((depth, owner));
                }
                c += 1;
            }
            "}" => {
                if impl_stack.last().is_some_and(|(d, _)| *d == depth) {
                    impl_stack.pop();
                }
                depth -= 1;
                c += 1;
            }
            ";" if pending_impl.is_some() => {
                pending_impl = None; // `impl Trait for Type;` — marker impl
                c += 1;
            }
            "impl" if t.kind == TokKind::Ident => {
                // item position only: `-> impl Trait` / `x: impl Fn()` are
                // type positions and must not open an impl context
                let item_pos = c == 0
                    || matches!(
                        tokens[code[c - 1]].text(src),
                        ";" | "}" | "{" | "]" | "unsafe"
                    );
                if item_pos {
                    pending_impl = Some(impl_owner(tokens, src, &code, c));
                }
                c += 1;
            }
            "fn" if t.kind == TokKind::Ident => {
                // `fn` in type position (`fn(u32) -> u32`) has no name
                let name_c = c + 1;
                let is_item = code
                    .get(name_c)
                    .is_some_and(|&nix| tokens[nix].kind == TokKind::Ident);
                if !is_item {
                    c += 1;
                    continue;
                }
                let name = tokens[code[name_c]].text(src).to_string();
                // find the body `{` or a terminating `;`
                let mut d = name_c + 1;
                let mut open = None;
                while d < code.len() {
                    match tokens[code[d]].text(src) {
                        "{" => {
                            open = Some(d);
                            break;
                        }
                        ";" => break,
                        _ => d += 1,
                    }
                }
                let owner = impl_stack.last().and_then(|(_, o)| o.clone());
                let body = match open {
                    None => 0..0,
                    Some(open_c) => {
                        // matching close over code tokens
                        let mut bd = 0i32;
                        let mut e = open_c;
                        while e < code.len() {
                            match tokens[code[e]].text(src) {
                                "{" => bd += 1,
                                "}" => {
                                    bd -= 1;
                                    if bd == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            e += 1;
                        }
                        let body_start = code[open_c] + 1;
                        let body_end = if e < code.len() {
                            code[e]
                        } else {
                            tokens.len()
                        };
                        body_start..body_end
                    }
                };
                functions.push(Function {
                    name,
                    owner,
                    line: t.line,
                    sig_start: ix,
                    body,
                    in_tests: ix >= test_from,
                });
                // continue scanning *inside* the body too (nested fns,
                // methods of nested impls): just advance past the name
                c = name_c + 1;
            }
            _ => c += 1,
        }
    }
    functions
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_functions_and_owners() {
        let src = r#"
            pub fn free(x: u32) -> u32 { x + helper(x) }
            fn helper(x: u32) -> u32 { x }
            struct S;
            impl S {
                fn method(&self) -> u32 { 1 }
            }
            impl std::fmt::Display for S {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                    write!(f, "s")
                }
            }
            impl<T: Clone> Wrapper<T> {
                fn generic_method(&self) {}
            }
        "#;
        let f = SourceFile::scan("crates/demo/src/lib.rs", src);
        let names: Vec<(String, Option<String>)> = f
            .functions
            .iter()
            .map(|f| (f.name.clone(), f.owner.clone()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("free".into(), None),
                ("helper".into(), None),
                ("method".into(), Some("S".into())),
                ("fmt".into(), Some("S".into())),
                ("generic_method".into(), Some("Wrapper".into())),
            ]
        );
        assert!(f.functions.iter().all(|f| !f.in_tests));
    }

    #[test]
    fn test_region_starts_at_cfg_test() {
        let src = r#"
            fn prod() { let _ = 1; }
            #[cfg(test)]
            mod tests {
                fn helper() {}
                #[test]
                fn case() {}
            }
        "#;
        let f = SourceFile::scan("crates/demo/src/lib.rs", src);
        assert_ne!(f.test_from, usize::MAX);
        let by_name = |n: &str| f.functions.iter().find(|f| f.name == n).expect("exists");
        assert!(!by_name("prod").in_tests);
        assert!(by_name("helper").in_tests);
        assert!(by_name("case").in_tests);
    }

    #[test]
    fn nested_function_tokens_attribute_to_the_inner_fn() {
        let src = r#"
            fn outer() {
                let a = before();
                fn inner() { let b = inside(); }
                let c = after();
            }
        "#;
        let f = SourceFile::scan("crates/demo/src/lib.rs", src);
        let outer = &f.functions[0];
        assert_eq!(outer.name, "outer");
        let outer_idents: Vec<&str> = f
            .body_tokens_of(outer)
            .filter(|&ix| f.tokens[ix].kind == TokKind::Ident)
            .map(|ix| f.text(ix))
            .collect();
        assert!(outer_idents.contains(&"before"));
        assert!(outer_idents.contains(&"after"));
        assert!(!outer_idents.contains(&"inside"), "{outer_idents:?}");
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let src = "struct S { cb: fn(u32) -> u32 } fn real() {}";
        let f = SourceFile::scan("crates/demo/src/lib.rs", src);
        let names: Vec<&str> = f.functions.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["real"]);
    }

    #[test]
    fn bodyless_trait_methods_have_empty_bodies() {
        let src = "trait T { fn decl(&self); fn with_default(&self) { self.decl() } }";
        let f = SourceFile::scan("crates/demo/src/lib.rs", src);
        assert_eq!(f.functions.len(), 2);
        assert!(f.functions[0].body.is_empty());
        assert!(!f.functions[1].body.is_empty());
    }

    #[test]
    fn annotation_window_lookup() {
        let src = "\n// ORDERING: counter — independent statistic\nfn f() { x.load(Ordering::Relaxed); }\n";
        let f = SourceFile::scan("crates/demo/src/lib.rs", src);
        assert_eq!(
            f.annotation_text(3, 3, "ORDERING:").as_deref(),
            Some("counter — independent statistic")
        );
        assert_eq!(
            f.annotation_text(3, 0, "ORDERING:"),
            None,
            "window excludes line 2"
        );
    }
}
