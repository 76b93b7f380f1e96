//! The workspace function index and name-level call graph behind the
//! hot-path analysis.
//!
//! Resolution is lexical (no type information), tiered by how much the
//! call site tells us:
//!
//! * `Owner::name(…)` — resolved exactly against functions scanned with
//!   that `impl` owner.  Unknown owners (`Vec`, `String`, foreign types)
//!   resolve to nothing.
//! * `name(…)` (bare call) — resolved against *free* functions of that
//!   name: same-crate first, otherwise workspace-wide.
//! * `.name(…)` (method call) — resolved against every method of that
//!   name in the workspace, except that std-shadowed accessor names
//!   ([`UBIQUITOUS_METHODS`]) resolve same-crate only: `.len()` or
//!   `.get()` almost always hits std, and fanning those out across crates
//!   would glue every data structure into every hot path.
//!
//! The result over-approximates real dispatch (any same-named method may
//! be the callee), which is the conservative direction: more reachability
//! means more code held to the panic-freedom rule.  Turbofish calls
//! (`f::<T>(…)`) are not recognized — a documented under-approximation
//! that does not occur on the audited paths.

use crate::lexer::TokKind;
use crate::scan::{Function, SourceFile};
use std::collections::HashMap;

/// Method names resolved same-crate only (see module docs).
pub const UBIQUITOUS_METHODS: &[&str] = &[
    "add",
    "as_ref",
    "as_str",
    "clear",
    "clone",
    "cmp",
    "contains",
    "default",
    "eq",
    "extend",
    "fmt",
    "from",
    "get",
    "hash",
    "index",
    "insert",
    "into",
    "is_empty",
    "iter",
    "len",
    "new",
    "next",
    "push",
    "remove",
    "to_string",
];

/// A function's position in the index: (file index, function index).
pub type FnId = (usize, usize);

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name.
    #[cfg_attr(not(test), allow(dead_code))]
    pub name: String,
    /// The functions this call may dispatch to.
    pub targets: Vec<FnId>,
}

/// The workspace function index over a set of scanned files.
pub struct FunctionIndex<'a> {
    pub files: &'a [SourceFile],
    /// name → candidate functions.
    by_name: HashMap<&'a str, Vec<FnId>>,
}

impl<'a> FunctionIndex<'a> {
    /// Indexes every function of `files` (test functions included — they
    /// are filtered at the analysis layer, where exemption is a policy).
    pub fn build(files: &'a [SourceFile]) -> FunctionIndex<'a> {
        let mut by_name: HashMap<&str, Vec<FnId>> = HashMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (gi, f) in file.functions.iter().enumerate() {
                by_name.entry(f.name.as_str()).or_default().push((fi, gi));
            }
        }
        FunctionIndex { files, by_name }
    }

    pub fn function(&self, id: FnId) -> &'a Function {
        &self.files[id.0].functions[id.1]
    }

    pub fn file(&self, id: FnId) -> &'a SourceFile {
        &self.files[id.0]
    }

    /// A human label: `crate::Owner::name` or `crate::name`.
    pub fn label(&self, id: FnId) -> String {
        let f = self.function(id);
        let krate = &self.file(id).crate_name;
        match &f.owner {
            Some(o) => format!("{krate}::{o}::{}", f.name),
            None => format!("{krate}::{}", f.name),
        }
    }

    /// All functions with `name`, optionally restricted by `owner`.
    pub fn candidates(&self, name: &str, owner: Option<&str>) -> Vec<FnId> {
        let Some(all) = self.by_name.get(name) else {
            return Vec::new();
        };
        all.iter()
            .copied()
            .filter(|&id| match owner {
                None => true,
                Some(o) => self.function(id).owner.as_deref() == Some(o),
            })
            .collect()
    }

    /// True when some scanned function has `owner` as its impl type — the
    /// test that separates `QueryContext::new` (resolve exactly) from
    /// `Vec::new` (foreign, resolve to nothing).
    fn known_owner(&self, owner: &str) -> bool {
        self.files.iter().any(|f| {
            f.functions
                .iter()
                .any(|g| g.owner.as_deref() == Some(owner))
        })
    }

    /// Extracts and resolves every call site in `f`'s body (nested
    /// functions excluded — they are their own index entries).
    pub fn calls_in(&self, file_ix: usize, f: &Function) -> Vec<CallSite> {
        let file = &self.files[file_ix];
        let body: Vec<usize> = file.body_tokens_of(f).collect();
        let mut out = Vec::new();
        for (k, &ix) in body.iter().enumerate() {
            if file.tokens[ix].kind != TokKind::Ident {
                continue;
            }
            // a call: identifier directly followed by `(`
            let follows_paren = body
                .get(k + 1)
                .is_some_and(|&nx| file.tokens[nx].kind == TokKind::Punct && file.text(nx) == "(");
            if !follows_paren {
                continue;
            }
            let name = file.text(ix);
            let prev = (k >= 1).then(|| file.text(body[k - 1]));
            let targets = match prev {
                // method call `.name(`
                Some(".") => {
                    let mut c = self.candidates(name, None);
                    c.retain(|&id| self.function(id).owner.is_some());
                    if UBIQUITOUS_METHODS.contains(&name) {
                        c.retain(|&id| self.file(id).crate_name == file.crate_name);
                    }
                    c
                }
                // path call `Owner::name(` (the two `:` puncts of `::`)
                Some(":") if k >= 2 && file.text(body[k - 2]) == ":" => {
                    let owner = if k >= 3 { file.text(body[k - 3]) } else { "" };
                    if self.known_owner(owner) {
                        self.candidates(name, Some(owner))
                    } else if owner.starts_with("xseq_") || owner == "crate" || owner == "self" {
                        // crate-qualified free function: `xseq_query::parse_…`
                        // (crate dir names carry no `xseq_` prefix)
                        let krate = match owner.strip_prefix("xseq_") {
                            Some(tail) => tail.replace('_', "-"),
                            None => file.crate_name.clone(),
                        };
                        let mut c = self.candidates(name, None);
                        c.retain(|&id| {
                            self.function(id).owner.is_none() && self.file(id).crate_name == krate
                        });
                        c
                    } else {
                        Vec::new()
                    }
                }
                // bare call `name(`
                _ => {
                    let mut c = self.candidates(name, None);
                    c.retain(|&id| self.function(id).owner.is_none());
                    let same_crate: Vec<FnId> = c
                        .iter()
                        .copied()
                        .filter(|&id| self.file(id).crate_name == file.crate_name)
                        .collect();
                    if same_crate.is_empty() {
                        c
                    } else {
                        same_crate
                    }
                }
            };
            out.push(CallSite {
                name: name.to_string(),
                targets,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_two() -> Vec<SourceFile> {
        vec![
            SourceFile::scan(
                "crates/alpha/src/lib.rs",
                r#"
                pub fn entry() { helper(); Widget::build(); w.step(); v.len(); }
                fn helper() {}
                struct Widget;
                impl Widget {
                    fn build() {}
                    fn step(&self) {}
                    fn len(&self) -> usize { 0 }
                }
                "#,
            ),
            SourceFile::scan(
                "crates/beta/src/lib.rs",
                r#"
                pub fn helper() {}
                struct Gadget;
                impl Gadget {
                    fn step(&self) {}
                    fn len(&self) -> usize { 1 }
                }
                "#,
            ),
        ]
    }

    #[test]
    fn resolution_tiers() {
        let files = scan_two();
        let index = FunctionIndex::build(&files);
        let entry = &files[0].functions[0];
        let calls = index.calls_in(0, entry);
        let by_name = |n: &str| calls.iter().find(|c| c.name == n).expect("call found");

        // bare call prefers same crate (beta::helper not included)
        let helper = by_name("helper");
        assert_eq!(helper.targets.len(), 1);
        assert_eq!(index.label(helper.targets[0]), "alpha::helper");

        // path call resolves exactly
        let build = by_name("build");
        assert_eq!(build.targets.len(), 1);
        assert_eq!(index.label(build.targets[0]), "alpha::Widget::build");

        // method call fans out across crates
        let step = by_name("step");
        let mut labels: Vec<String> = step.targets.iter().map(|&t| index.label(t)).collect();
        labels.sort();
        assert_eq!(labels, vec!["alpha::Widget::step", "beta::Gadget::step"]);

        // ubiquitous method stays same-crate
        let len = by_name("len");
        assert_eq!(len.targets.len(), 1);
        assert_eq!(index.label(len.targets[0]), "alpha::Widget::len");
    }
}
