//! `cargo xtask loc` — source lines and `pub fn` count per crate, held
//! under a committed ceiling (ROADMAP aim 2: "lines of code and public-API
//! item count are tracked quantities").
//!
//! The count is textual, one line at a time, over the region before a
//! file's first `#[cfg(test)]` (or `#![cfg(test)]`, which makes the whole
//! file a test module): a *line* is a non-blank line that is not a
//! `//` comment and not inside a `/* … */` block opened at the start of a
//! line, and a *pub fn* is a line whose trimmed text starts with `pub fn `.
//!
//! [`CEILING_FILE`] is a ratchet: CI fails when a listed crate exceeds
//! either number or a crate under `crates/` has no line, and a change that
//! shrinks a crate lowers its ceiling in the same commit.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Repo-relative path of the committed ceilings.
pub const CEILING_FILE: &str = "crates/xtask/loc_ceiling.txt";

/// One `.rs` file under `crates/<crate>/src`.
pub struct SourceFile {
    /// The crate directory name (`core`, `index`, …).
    pub crate_name: String,
    /// The file's contents.
    pub text: String,
}

/// One crate's tracked size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrateSize {
    /// Non-blank, non-comment, non-test source lines.
    pub lines: usize,
    /// `pub fn` items outside the test region.
    pub pub_fns: usize,
}

/// Walks `crates/*/src` under `root` and reads every `.rs` file, in path
/// order.
pub fn scan_repo(root: &Path) -> Result<Vec<SourceFile>, String> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("{}: {e}", crates_dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.join("src").is_dir())
        .collect();
    crate_dirs.sort();
    let mut out = Vec::new();
    for dir in crate_dirs {
        let crate_name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let mut files = Vec::new();
        collect_rs(&dir.join("src"), &mut files)?;
        files.sort();
        for file in files {
            let text =
                std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
            out.push(SourceFile {
                crate_name: crate_name.clone(),
                text,
            });
        }
    }
    Ok(out)
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

/// The size of one file's source, by the rules in the module docs.
fn count(text: &str) -> CrateSize {
    let mut size = CrateSize::default();
    let mut in_block = false;
    for line in text.lines().map(str::trim) {
        if in_block {
            in_block = !line.contains("*/");
            continue;
        }
        if line.starts_with("#[cfg(test)]") || line.starts_with("#![cfg(test)]") {
            break;
        }
        if line.starts_with("/*") {
            in_block = !line.contains("*/");
            continue;
        }
        if line.is_empty() || line.starts_with("//") {
            continue;
        }
        size.lines += 1;
        size.pub_fns += usize::from(line.starts_with("pub fn "));
    }
    size
}

/// Sizes of every scanned crate, keyed by crate directory name.
pub fn measure(files: &[SourceFile]) -> BTreeMap<String, CrateSize> {
    let mut sizes: BTreeMap<String, CrateSize> = BTreeMap::new();
    for file in files {
        let size = sizes.entry(file.crate_name.clone()).or_default();
        let add = count(&file.text);
        size.lines += add.lines;
        size.pub_fns += add.pub_fns;
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

/// One message per ceiling a crate exceeds, per listed crate that no
/// longer exists, and per crate that has no ceiling.
pub fn over_ceiling(
    sizes: &BTreeMap<String, CrateSize>,
    ceilings: &[(String, CrateSize)],
) -> Vec<String> {
    let mut out: Vec<String> = (sizes.keys())
        .filter(|name| !ceilings.iter().any(|(listed, _)| listed == *name))
        .map(|name| format!("{name}: not listed in {CEILING_FILE}"))
        .collect();
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

    /// An out-of-line test module: all of it is test code.
    const TEST_FILE: &str = "\
//! tests of the crate root
#![cfg(test)]
pub fn helper() {}
";

    #[test]
    fn counts_code_lines_and_pub_fns_outside_tests() {
        let files = [FIXTURE, TEST_FILE].map(|text| SourceFile {
            crate_name: "demo".to_string(),
            text: text.to_string(),
        });
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

    #[test]
    fn a_crate_without_a_ceiling_line_is_reported() {
        let ceilings = parse_ceilings("demo 8 2\n").unwrap();
        let mut sizes = BTreeMap::new();
        sizes.insert("demo".to_string(), CrateSize::default());
        assert!(over_ceiling(&sizes, &ceilings).is_empty());
        sizes.insert("new".to_string(), CrateSize::default());
        assert_eq!(
            over_ceiling(&sizes, &ceilings),
            [format!("new: not listed in {CEILING_FILE}")]
        );
    }
}
