//! `cargo xtask loc` — source lines and `pub fn` count per crate, held
//! under a committed ceiling (ROADMAP aim 2: "lines of code and public-API
//! item count are tracked quantities").
//!
//! Reuses the analyze passes' lexer and scanner, so the numbers follow the
//! same rules as every other check: a *line* is a source line holding at
//! least one non-comment token before the file's `#[cfg(test)]` region (a
//! multi-line literal counts once, on the line it starts), and a *pub fn*
//! is a `pub` token directly followed by `fn` in that same region.
//!
//! [`CEILING_FILE`] is a ratchet: CI fails when a listed crate exceeds
//! either number, and a change that shrinks a crate lowers its ceiling in
//! the same commit.

use crate::lexer;
use crate::scan::SourceFile;
use std::collections::BTreeMap;

/// Repo-relative path of the committed ceilings.
pub const CEILING_FILE: &str = "crates/xtask/loc_ceiling.txt";

/// One crate's tracked size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrateSize {
    /// Non-blank, non-comment, non-test source lines.
    pub lines: usize,
    /// `pub fn` items outside the test region.
    pub pub_fns: usize,
}

/// Sizes of every scanned crate, keyed by crate directory name.
pub fn measure(files: &[SourceFile]) -> BTreeMap<String, CrateSize> {
    let mut sizes: BTreeMap<String, CrateSize> = BTreeMap::new();
    for file in files {
        let size = sizes.entry(file.crate_name.clone()).or_default();
        let mut last_line = 0;
        let mut prev = "";
        for (ix, tok) in lexer::code_tokens(&file.tokens) {
            if file.in_tests(ix) {
                break;
            }
            if tok.line != last_line {
                size.lines += 1;
                last_line = tok.line;
            }
            let text = file.text(ix);
            if text == "fn" && prev == "pub" {
                size.pub_fns += 1;
            }
            prev = text;
        }
    }
    sizes
}

/// Parses the ceiling file: one `<crate> <max lines> <max pub fns>` entry
/// per line, `#` starts a comment.
pub fn parse_ceilings(text: &str) -> Result<Vec<(String, CrateSize)>, String> {
    let mut out = Vec::new();
    for (n, raw) in text.lines().enumerate() {
        let fields: Vec<&str> = raw
            .split('#')
            .next()
            .unwrap_or("")
            .split_whitespace()
            .collect();
        match fields[..] {
            [] => {}
            [name, lines, pub_fns] => {
                let num = |s: &str| {
                    s.parse::<usize>()
                        .map_err(|e| format!("{CEILING_FILE}:{}: `{s}`: {e}", n + 1))
                };
                out.push((
                    name.to_string(),
                    CrateSize {
                        lines: num(lines)?,
                        pub_fns: num(pub_fns)?,
                    },
                ));
            }
            _ => {
                return Err(format!(
                    "{CEILING_FILE}:{}: expected `<crate> <lines> <pub fns>`",
                    n + 1
                ))
            }
        }
    }
    Ok(out)
}

/// One message per ceiling a crate exceeds (or per listed crate that no
/// longer exists).
pub fn over_ceiling(
    sizes: &BTreeMap<String, CrateSize>,
    ceilings: &[(String, CrateSize)],
) -> Vec<String> {
    let mut out = Vec::new();
    for (name, max) in ceilings {
        let Some(size) = sizes.get(name) else {
            out.push(format!("{name}: listed in {CEILING_FILE} but not found"));
            continue;
        };
        if size.lines > max.lines {
            out.push(format!(
                "{name}: {} lines exceed the ceiling of {}",
                size.lines, max.lines
            ));
        }
        if size.pub_fns > max.pub_fns {
            out.push(format!(
                "{name}: {} pub fns exceed the ceiling of {}",
                size.pub_fns, max.pub_fns
            ));
        }
    }
    out
}

/// The per-crate table, with each listed crate's ceilings beside it.
pub fn render(sizes: &BTreeMap<String, CrateSize>, ceilings: &[(String, CrateSize)]) -> String {
    let mut out = String::from("crate            lines   pub fn   ceiling\n");
    let mut total = CrateSize::default();
    for (name, size) in sizes {
        total.lines += size.lines;
        total.pub_fns += size.pub_fns;
        let ceiling = ceilings
            .iter()
            .find(|(n, _)| n == name)
            .map_or(String::new(), |(_, c)| {
                format!("{} / {}", c.lines, c.pub_fns)
            });
        out.push_str(&format!(
            "{name:<14}{:>8}{:>9}   {ceiling}\n",
            size.lines, size.pub_fns
        ));
    }
    out.push_str(&format!(
        "{:<14}{:>8}{:>9}\n",
        "total", total.lines, total.pub_fns
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIXTURE: &str = "\
//! crate docs
pub fn one() {} // trailing comment

/* block
   comment */
pub(crate) fn not_public() {
    let s = \"pub fn in a string\";
}
impl T {
    pub fn two(&self) {}
    pub const fn three() {}
}
#[cfg(test)]
mod tests {
    pub fn in_tests() {}
}
";

    #[test]
    fn counts_code_lines_and_pub_fns_outside_tests() {
        let files = [SourceFile::scan("crates/demo/src/lib.rs", FIXTURE)];
        let sizes = measure(&files);
        // one, not_public + its body + brace, impl + two + three + brace
        assert_eq!(
            sizes["demo"],
            CrateSize {
                lines: 8,
                pub_fns: 2
            }
        );
    }

    #[test]
    fn ceilings_parse_and_trip() {
        let ceilings = parse_ceilings("# c\ndemo 8 2   # exact\n\ngone 1 1\n").unwrap();
        assert_eq!(ceilings.len(), 2);
        let mut sizes = BTreeMap::new();
        sizes.insert(
            "demo".to_string(),
            CrateSize {
                lines: 8,
                pub_fns: 2,
            },
        );
        let over = over_ceiling(&sizes, &ceilings);
        assert_eq!(over.len(), 1, "only the vanished crate: {over:?}");
        sizes.insert(
            "demo".to_string(),
            CrateSize {
                lines: 9,
                pub_fns: 3,
            },
        );
        assert_eq!(over_ceiling(&sizes, &ceilings).len(), 3);
        assert!(parse_ceilings("demo 8").is_err());
        assert!(parse_ceilings("demo x 2").is_err());
    }
}
