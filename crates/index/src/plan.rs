//! Query planning: from a [`TreePattern`] to concrete paths.
//!
//! The trie matches *concrete* paths, so wildcards must be instantiated
//! first — the paper: queries with `*` or `//` become subsequences "once
//! `*` is instantialized to symbol D".  `assignments` enumerates, against
//! the index's *path dictionary* (the set of distinct path encodings of the
//! data, a DataGuide in disguise), a concrete [`PathId`] per pattern node,
//! consistent with the axes: `Child` extends the parent path by one
//! matching symbol, `Descendant` by any matching dictionary descendant.
//! Candidates are looked up, not searched for: the [`PathTable`] chains
//! its paths by last symbol and links each path's children, so `/s` is one
//! `(parent, s)` probe, `/*` the parent's child links, `//s` the chain of
//! `s` and `//*` the table's element-path list — the last two kept where
//! the parent's path is a proper prefix — each filtered by the index's
//! `data_paths`.  Ids are minted in interning order and each list is
//! ordered by id, so candidates are taken in ascending [`PathId`] without
//! sorting; that order fixes the order of assignments, hence which of them
//! a cap cuts.
//!
//! The database searches each assignment as it is: the order-free search
//! reads only each element's path and its pattern parent, and its cover
//! condition holds at any edge length (DESIGN.md §5.0).
//!
//! [`instantiate`] goes on to build concrete query *trees*, which the
//! ordered matchers of `xseq-baselines` need.  A `//` edge materializes a
//! chain of intermediate nodes; when two sibling chains share a prefix,
//! the data may satisfy them through one shared instance or through
//! distinct instances.  All instance-sharing choices (set partitions per
//! step, with the rule that two *pattern* nodes never share an instance)
//! are enumerated as **merge variants**, so the union over the trees equals
//! the embedding semantics of the brute-force matcher.  Merge variants
//! serve only [`instantiate`].
//!
//! Every enumeration is capped; realistic queries produce a handful of
//! assignments.

use std::collections::{HashMap, HashSet};
use xseq_xml::{
    Axis, Document, NodeId, PathId, PathTable, PatternLabel, PatternNodeId, Symbol, TreePattern,
};

/// The cap on merge variants per assignment in [`instantiate`].
const MAX_MERGES: usize = 256;

/// The cap on query planning.
#[derive(Debug, Clone, Copy)]
pub struct PlanOptions {
    /// Maximum wildcard assignments per query.
    pub max_assignments: usize,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions {
            max_assignments: 4096,
        }
    }
}

impl PlanOptions {
    /// Compact one-line form of the cap, used as the `plan` attribute of a
    /// query trace.
    pub fn describe(&self) -> String {
        format!("assignments<={}", self.max_assignments)
    }
}

/// Enumerates the concrete query trees of `pattern` against the dictionary
/// (`data_paths` filters the path table down to paths that actually occur in
/// indexed data): every merge variant of every assignment, up to 256 per
/// assignment.  Deduplicated; order deterministic.  A cap that cut the
/// enumeration short is reported only by `plan`.
pub fn instantiate(
    pattern: &TreePattern,
    paths: &PathTable,
    data_paths: &HashSet<PathId>,
    options: &PlanOptions,
) -> Vec<Document> {
    plan(pattern, paths, data_paths, options, MAX_MERGES).0
}

/// Every assignment of `pattern` up to `max_assignments`, in ascending id
/// order: one concrete [`PathId`] per pattern node, indexed by pattern node
/// id.  The flag is set when the cap dropped one; the enumeration runs to
/// one past the cap, so it is exact.
pub(crate) fn assignments(
    pattern: &TreePattern,
    paths: &PathTable,
    data_paths: &HashSet<PathId>,
    options: &PlanOptions,
) -> (Vec<Vec<PathId>>, bool) {
    let (max, root) = (options.max_assignments, pattern.root_id());
    let (mut out, mut cur) = (Vec::new(), vec![PathId::ROOT; pattern.len()]);
    let cap = max.saturating_add(1);
    assign(pattern, paths, data_paths, root, &mut cur, &mut out, cap);
    let truncated = out.len() > max;
    out.truncate(max);
    (out, truncated)
}

/// [`instantiate`] with its merge cap `max_merges`, plus whether
/// `max_assignments` or `max_merges` dropped a concrete tree — in which
/// case the union over the returned trees may miss answers.  Exact, like
/// `assignments`' flag.
fn plan(
    pattern: &TreePattern,
    paths: &PathTable,
    data_paths: &HashSet<PathId>,
    options: &PlanOptions,
    max_merges: usize,
) -> (Vec<Document>, bool) {
    let (assignments, mut truncated) = assignments(pattern, paths, data_paths, options);
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    for asg in &assignments {
        let mut variants = merge_variants(pattern, paths, asg, max_merges.saturating_add(1));
        truncated |= variants.len() > max_merges;
        variants.truncate(max_merges);
        for doc in variants {
            if seen.insert(shape_key(&doc)) {
                out.push(doc);
            }
        }
    }
    (out, truncated)
}

/// Depth-first assignment enumeration over pattern nodes (ids are already in
/// parents-before-children order), each node's candidates in ascending id.
#[expect(clippy::indexing_slicing, reason = "`current` has a slot per builder-minted pattern node")]
fn assign(
    pattern: &TreePattern,
    paths: &PathTable,
    data_paths: &HashSet<PathId>,
    node: PatternNodeId,
    current: &mut Vec<PathId>,
    out: &mut Vec<Vec<PathId>>,
    cap: usize,
) {
    if out.len() >= cap {
        return;
    }
    let parent_path = match pattern.parent(node) {
        None => PathId::ROOT,
        Some(p) => current[p as usize],
    };
    let under = move |c: &PathId| paths.is_proper_prefix(parent_path, *c);
    let sym = match pattern.label(node) {
        PatternLabel::Elem(d) => Some(Symbol::elem(d)),
        PatternLabel::Value(v) => Some(Symbol::value(v)),
        PatternLabel::AnyElem => None,
    };
    // The table's lists read newest first; assignments are enumerated in
    // ascending id, so the survivors are reversed.
    let newest_first: Box<dyn Iterator<Item = PathId>> = match (pattern.axis(node), sym) {
        (Axis::Child, Some(s)) => Box::new(paths.child(parent_path, s).into_iter()),
        (Axis::Child, None) => Box::new(paths.element_children(parent_path).iter().rev().copied()),
        (Axis::Descendant, Some(s)) => Box::new(paths.ending_in(s).filter(under)),
        (Axis::Descendant, None) => {
            Box::new(paths.element_paths().iter().rev().copied().filter(under))
        }
    };
    let candidates: Vec<PathId> = newest_first.filter(|c| data_paths.contains(c)).collect();
    for &c in candidates.iter().rev() {
        current[node as usize] = c;
        // advance to the next pattern node in id order (ids are
        // preorder-compatible)
        if (node as usize) + 1 < pattern.len() {
            assign(pattern, paths, data_paths, node + 1, current, out, cap);
        } else {
            out.push(current.clone());
        }
        if out.len() >= cap {
            return;
        }
    }
}

/// One chain of symbols still to materialize, ending at a pattern node.
#[derive(Debug, Clone)]
struct Item {
    /// Remaining symbols from the current anchor down to the pattern node.
    chain: Vec<Symbol>,
    pattern_node: PatternNodeId,
}

/// Work unit: sibling items hanging under one materialized node, all sharing
/// the same first symbol (groups with distinct first symbols never interact,
/// so they become separate units).
#[derive(Debug, Clone)]
struct Unit {
    parent: NodeId,
    items: Vec<Item>,
}

/// Enumerates the instance-sharing variants of one assignment.
#[expect(clippy::indexing_slicing, reason = "`assignment` carries one path per pattern node")]
#[expect(clippy::expect_used, reason = "the root path is non-ε, so its chain is non-empty")]
fn merge_variants(
    pattern: &TreePattern,
    paths: &PathTable,
    assignment: &[PathId],
    cap: usize,
) -> Vec<Document> {
    // The root pattern node's chain from ε.
    let root_path = assignment[pattern.root_id() as usize];
    let root_chain = paths.symbols(root_path);
    debug_assert!(!root_chain.is_empty());

    let mut out = Vec::new();
    // Seed: a document with just the first symbol of the root chain, and one
    // item for the rest (or, if the chain is length 1, the root pattern node
    // is materialized immediately and its children become units).
    let doc = Document::with_root(root_chain[0]);
    let root_node = doc.root().expect("Document::with_root always has a root");
    let mut units = Vec::new();
    if root_chain.len() == 1 {
        let mut acc = HashMap::new();
        collect_child_items(pattern, paths, assignment, pattern.root_id(), &mut acc);
        flush_units(root_node, acc, &mut units);
    } else {
        units.push(Unit {
            parent: root_node,
            items: vec![Item {
                chain: root_chain[1..].to_vec(),
                pattern_node: pattern.root_id(),
            }],
        });
    }
    expand(pattern, paths, assignment, doc, units, &mut out, cap);
    out
}

/// When pattern node `pn` has just been materialized, collect items for its
/// pattern children into `acc`, grouped by the first symbol of their chains.
#[expect(clippy::indexing_slicing, reason = "a child's path is deeper than its parent's")]
fn collect_child_items(
    pattern: &TreePattern,
    paths: &PathTable,
    assignment: &[PathId],
    pn: PatternNodeId,
    acc: &mut HashMap<Symbol, Vec<Item>>,
) {
    let base = assignment[pn as usize];
    let base_depth = paths.depth(base);
    for &c in pattern.children(pn) {
        let target = assignment[c as usize];
        let full = paths.symbols(target);
        let chain: Vec<Symbol> = full[base_depth as usize..].to_vec();
        debug_assert!(!chain.is_empty(), "child path must be deeper than parent");
        acc.entry(chain[0]).or_default().push(Item {
            chain,
            pattern_node: c,
        });
    }
}

/// Converts a symbol-grouped item accumulator into work units under `node`,
/// in deterministic symbol order.  Items sharing a first symbol MUST land in
/// one unit: the partition enumeration below is what decides which of them
/// share an instance of that symbol.
#[expect(clippy::expect_used, reason = "every key removed below was just collected from the map")]
fn flush_units(node: NodeId, mut acc: HashMap<Symbol, Vec<Item>>, units: &mut Vec<Unit>) {
    let mut keys: Vec<Symbol> = acc.keys().copied().collect();
    keys.sort();
    for k in keys {
        units.push(Unit {
            parent: node,
            items: acc.remove(&k).expect("key exists"),
        });
    }
}

/// Recursive variant expansion: pop one unit, enumerate the valid set
/// partitions of its items (each block shares one instance of the step
/// symbol; at most one item per block may *end* at this step, because
/// distinct pattern nodes are distinct instances), and recurse.
// units hold non-empty item lists with non-empty chains (flush_units
// groups by first symbol); partition blocks index items; ender_count is
// sized to the item count.
#[expect(clippy::indexing_slicing, reason = "units and chains are non-empty; blocks index items")]
fn expand(
    pattern: &TreePattern,
    paths: &PathTable,
    assignment: &[PathId],
    doc: Document,
    mut units: Vec<Unit>,
    out: &mut Vec<Document>,
    cap: usize,
) {
    if out.len() >= cap {
        return;
    }
    let Some(unit) = units.pop() else {
        out.push(doc);
        return;
    };
    let sym = unit.items[0].chain[0];
    debug_assert!(unit.items.iter().all(|it| it.chain[0] == sym));

    for partition in partitions(unit.items.len()) {
        // validity: at most one ender per block
        let mut ender_count = vec![0usize; unit.items.len()];
        let mut valid = true;
        for (item_idx, &block) in partition.iter().enumerate() {
            if unit.items[item_idx].chain.len() == 1 {
                ender_count[block] += 1;
                if ender_count[block] > 1 {
                    valid = false;
                    break;
                }
            }
        }
        if !valid {
            continue;
        }

        let mut d2 = doc.clone();
        let mut u2 = units.clone();
        let block_count = partition.iter().max().map(|&b| b + 1).unwrap_or(0);
        for block in 0..block_count {
            let node = d2.child(unit.parent, sym);
            // All items hanging under this instance — the materialized
            // pattern node's children and the continuing chains — share one
            // accumulator so that same-symbol items end up in ONE unit and
            // their instance-sharing gets enumerated too.
            let mut acc: HashMap<Symbol, Vec<Item>> = HashMap::new();
            for (item_idx, &b) in partition.iter().enumerate() {
                if b != block {
                    continue;
                }
                let item = &unit.items[item_idx];
                if item.chain.len() == 1 {
                    // pattern node materialized here
                    collect_child_items(pattern, paths, assignment, item.pattern_node, &mut acc);
                } else {
                    let rest = item.chain[1..].to_vec();
                    acc.entry(rest[0]).or_default().push(Item {
                        chain: rest,
                        pattern_node: item.pattern_node,
                    });
                }
            }
            flush_units(node, acc, &mut u2);
        }
        expand(pattern, paths, assignment, d2, u2, out, cap);
        if out.len() >= cap {
            return;
        }
    }
}

/// All set partitions of `n` items, as block indices per item (block ids are
/// in order of first appearance, so the enumeration has no duplicates).
fn partitions(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut current = vec![0usize; n];
    #[expect(clippy::indexing_slicing, reason = "rec is only called with i <= n == current.len()")]
    fn rec(
        i: usize,
        n: usize,
        max_block: usize,
        current: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if i == n {
            out.push(current.clone());
            return;
        }
        for b in 0..=max_block {
            current[i] = b;
            rec(i + 1, n, max_block.max(b + 1), current, out);
        }
    }
    rec(0, n, 0, &mut current, &mut out);
    out
}

/// Order-sensitive shape key for deduplication.
fn shape_key(doc: &Document) -> Vec<u32> {
    let mut out = Vec::with_capacity(doc.len() * 2);
    let Some(root) = doc.root() else {
        return out;
    };
    fn rec(doc: &Document, n: NodeId, out: &mut Vec<u32>) {
        out.push(doc.sym(n).raw());
        out.push(u32::MAX); // open
        for &c in doc.children(n) {
            rec(doc, c, out);
        }
        out.push(u32::MAX - 1); // close
    }
    rec(doc, root, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xseq_xml::SymbolTable;

    struct Fx {
        st: SymbolTable,
        pt: PathTable,
        data: HashSet<PathId>,
    }

    impl Fx {
        fn new() -> Self {
            Fx {
                st: SymbolTable::default(),
                pt: PathTable::new(),
                data: HashSet::new(),
            }
        }
        /// Registers a data path like "a.b.c" (values prefixed with ').
        fn add(&mut self, spec: &str) {
            let syms: Vec<Symbol> = spec
                .split('.')
                .map(|p| {
                    if let Some(v) = p.strip_prefix('\'') {
                        self.st.val(v)
                    } else {
                        self.st.elem(p)
                    }
                })
                .collect();
            // register all prefixes, as real data would
            for i in 1..=syms.len() {
                let id = self.pt.intern(&syms[..i]);
                self.data.insert(id);
            }
        }
        fn d(&mut self, name: &str) -> xseq_xml::Designator {
            self.st.designator(name)
        }
    }

    fn render_all(docs: &[Document], st: &SymbolTable) -> Vec<String> {
        let mut v: Vec<String> = docs
            .iter()
            .map(|d| xseq_xml::write_document(d, st))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn exact_pattern_single_instantiation() {
        let mut fx = Fx::new();
        fx.add("a.b.c");
        let a = fx.d("a");
        let b = fx.d("b");
        let mut q = TreePattern::root(PatternLabel::Elem(a));
        q.add(q.root_id(), Axis::Child, PatternLabel::Elem(b));
        let docs = instantiate(&q, &fx.pt, &fx.data, &PlanOptions::default());
        assert_eq!(render_all(&docs, &fx.st), vec!["<a><b/></a>"]);
    }

    #[test]
    fn missing_path_yields_no_instantiation() {
        let mut fx = Fx::new();
        fx.add("a.b");
        let a = fx.d("a");
        let z = fx.d("z");
        let mut q = TreePattern::root(PatternLabel::Elem(a));
        q.add(q.root_id(), Axis::Child, PatternLabel::Elem(z));
        let docs = instantiate(&q, &fx.pt, &fx.data, &PlanOptions::default());
        assert!(docs.is_empty());
    }

    #[test]
    fn star_wildcard_instantiates_each_element() {
        // /a/*/c over data paths a.b.c and a.d.c and a.'v.c(!) — the value
        // step must not instantiate '*'.
        let mut fx = Fx::new();
        fx.add("a.b.c");
        fx.add("a.d.c");
        fx.add("a.'v");
        let a = fx.d("a");
        let c = fx.d("c");
        let mut q = TreePattern::root(PatternLabel::Elem(a));
        let star = q.add(q.root_id(), Axis::Child, PatternLabel::AnyElem);
        q.add(star, Axis::Child, PatternLabel::Elem(c));
        let docs = instantiate(&q, &fx.pt, &fx.data, &PlanOptions::default());
        assert_eq!(
            render_all(&docs, &fx.st),
            vec!["<a><b><c/></b></a>", "<a><d><c/></d></a>"]
        );
    }

    #[test]
    fn descendant_axis_materializes_intermediates() {
        // //c over data a.b.c: instantiation builds the full chain a(b(c)).
        let mut fx = Fx::new();
        fx.add("a.b.c");
        let c = fx.d("c");
        let q = TreePattern::with_root_axis(PatternLabel::Elem(c), Axis::Descendant);
        let docs = instantiate(&q, &fx.pt, &fx.data, &PlanOptions::default());
        assert_eq!(render_all(&docs, &fx.st), vec!["<a><b><c/></b></a>"]);
    }

    #[test]
    fn descendant_branches_enumerate_shared_and_split() {
        // a[.//x][.//y] with both x and y reachable through b:
        // merged a(b(x,y)) and split a(b(x), b(y)) variants must both exist.
        let mut fx = Fx::new();
        fx.add("a.b.x");
        fx.add("a.b.y");
        let a = fx.d("a");
        let x = fx.d("x");
        let y = fx.d("y");
        let mut q = TreePattern::root(PatternLabel::Elem(a));
        q.add(q.root_id(), Axis::Descendant, PatternLabel::Elem(x));
        q.add(q.root_id(), Axis::Descendant, PatternLabel::Elem(y));
        let docs = instantiate(&q, &fx.pt, &fx.data, &PlanOptions::default());
        assert_eq!(docs.len(), 2, "merged and split variants");
        let merged = xseq_xml::parse_document("<a><b><x/><y/></b></a>", &mut fx.st).unwrap();
        let split = xseq_xml::parse_document("<a><b><x/></b><b><y/></b></a>", &mut fx.st).unwrap();
        assert!(docs.iter().any(|d| d.structurally_eq(&merged)));
        assert!(docs.iter().any(|d| d.structurally_eq(&split)));
    }

    #[test]
    fn identical_pattern_nodes_never_merge() {
        // a with two identical child tests b: both instances required.
        let mut fx = Fx::new();
        fx.add("a.b");
        let a = fx.d("a");
        let b = fx.d("b");
        let mut q = TreePattern::root(PatternLabel::Elem(a));
        q.add(q.root_id(), Axis::Child, PatternLabel::Elem(b));
        q.add(q.root_id(), Axis::Child, PatternLabel::Elem(b));
        let docs = instantiate(&q, &fx.pt, &fx.data, &PlanOptions::default());
        assert_eq!(render_all(&docs, &fx.st), vec!["<a><b/><b/></a>"]);
    }

    #[test]
    fn value_tests_instantiate() {
        let mut fx = Fx::new();
        fx.add("a.l.'boston");
        let a = fx.d("a");
        let l = fx.d("l");
        let v = fx.st.values.lookup("boston").unwrap();
        let mut q = TreePattern::root(PatternLabel::Elem(a));
        let ln = q.add(q.root_id(), Axis::Child, PatternLabel::Elem(l));
        q.add(ln, Axis::Child, PatternLabel::Value(v));
        let docs = instantiate(&q, &fx.pt, &fx.data, &PlanOptions::default());
        assert_eq!(docs.len(), 1);
        assert_eq!(docs[0].len(), 3);
    }

    #[test]
    fn assignment_cap_is_respected_and_reported_exactly() {
        // //x over 20 data paths a.m{i}.x: exactly 20 assignments.
        let mut fx = Fx::new();
        for i in 0..20 {
            fx.add(&format!("a.m{i}.x"));
        }
        let x = fx.d("x");
        let q = TreePattern::with_root_axis(PatternLabel::Elem(x), Axis::Descendant);
        for (max_assignments, trees, truncated) in [
            (5, 5, true),
            (19, 19, true),
            (20, 20, false),
            (21, 20, false),
        ] {
            let opts = PlanOptions { max_assignments };
            let (docs, cut) = plan(&q, &fx.pt, &fx.data, &opts, MAX_MERGES);
            assert_eq!((docs.len(), cut), (trees, truncated), "{}", opts.describe());
            assert_eq!(instantiate(&q, &fx.pt, &fx.data, &opts).len(), trees);
            let (asgs, cut) = assignments(&q, &fx.pt, &fx.data, &opts);
            assert_eq!((asgs.len(), cut), (trees, truncated));
        }
    }

    #[test]
    fn merge_cap_is_respected_and_reported_exactly() {
        // a[.//x][.//y][.//z], all three reachable only through b: one
        // assignment whose merge variants are the 5 set partitions of the
        // three b-chains.
        let mut fx = Fx::new();
        let a = fx.d("a");
        let mut q = TreePattern::root(PatternLabel::Elem(a));
        for leaf in ["x", "y", "z"] {
            fx.add(&format!("a.b.{leaf}"));
            let d = fx.d(leaf);
            q.add(q.root_id(), Axis::Descendant, PatternLabel::Elem(d));
        }
        let opts = PlanOptions::default();
        for (max_merges, trees, truncated) in
            [(1, 1, true), (4, 4, true), (5, 5, false), (6, 5, false)]
        {
            let (docs, cut) = plan(&q, &fx.pt, &fx.data, &opts, max_merges);
            assert_eq!(
                (docs.len(), cut),
                (trees, truncated),
                "merges<={max_merges}"
            );
        }
    }

    #[test]
    fn partitions_count_is_bell_number() {
        assert_eq!(partitions(1).len(), 1);
        assert_eq!(partitions(2).len(), 2);
        assert_eq!(partitions(3).len(), 5);
        assert_eq!(partitions(4).len(), 15);
    }
}
