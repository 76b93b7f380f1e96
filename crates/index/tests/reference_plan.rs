//! The wildcard planner against the enumerator it replaced.
//!
//! `plan.rs::assign` picks each pattern node's candidate paths by lookup in
//! the path table's summary (one `child` probe, the child links, the chain
//! of a last symbol, the element-path list).  Until PR 21 it walked every
//! dictionary descendant of the parent's path, kept those in `data_paths`
//! whose last symbol fits the label, and sorted them.  That enumerator is
//! the reference here, with the merge-variant step it fed kept verbatim, so
//! the two planners are compared on what callers see: the concrete trees of
//! [`instantiate`], in order, and the assignments a database query
//! searches, with its `plan_truncated`.

use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use xseq_index::{instantiate, PlanOptions, XmlIndex};
use xseq_sequence::Strategy as SeqStrategy;
use xseq_xml::{
    Axis, Document, NodeId, PathId, PathTable, PatternLabel, PatternNodeId, Symbol, SymbolTable,
    TreePattern, ValueMode,
};

// ---------------------------------------------------------------------
// The reference: candidate selection by scanning the dictionary.
// ---------------------------------------------------------------------

/// All descendant paths of `p` (excluding `p`) — `PathTable::descendants`
/// as it was, over the table's public child iterator.
fn descendants(paths: &PathTable, p: PathId) -> Vec<PathId> {
    let mut out = Vec::new();
    let mut stack: Vec<PathId> = paths.children(p).collect();
    while let Some(q) = stack.pop() {
        out.push(q);
        stack.extend(paths.children(q));
    }
    out
}

fn label_fits(label: PatternLabel, last: Option<Symbol>) -> bool {
    let Some(sym) = last else {
        return false;
    };
    match label {
        PatternLabel::Elem(d) => sym.as_elem() == Some(d),
        PatternLabel::AnyElem => sym.is_elem(),
        PatternLabel::Value(v) => sym.as_value() == Some(v),
    }
}

fn reference_candidates(
    paths: &PathTable,
    data_paths: &HashSet<PathId>,
    parent: PathId,
    axis: Axis,
    label: PatternLabel,
) -> Vec<PathId> {
    let fits = |c: &PathId| data_paths.contains(c) && label_fits(label, paths.last(*c));
    let mut v: Vec<PathId> = match axis {
        Axis::Child => paths.children(parent).filter(fits).collect(),
        Axis::Descendant => descendants(paths, parent)
            .into_iter()
            .filter(fits)
            .collect(),
    };
    // ascending id: the interning order the child vectors kept, and what
    // the enumerator sorted its descendants into
    v.sort();
    v
}

/// Every assignment, depth first in pattern-node order, up to `limit`.
fn reference_assign(
    pattern: &TreePattern,
    paths: &PathTable,
    data_paths: &HashSet<PathId>,
    node: PatternNodeId,
    current: &mut Vec<PathId>,
    out: &mut Vec<Vec<PathId>>,
    limit: usize,
) {
    let parent = pattern
        .parent(node)
        .map_or(PathId::ROOT, |p| current[p as usize]);
    let (axis, label) = (pattern.axis(node), pattern.label(node));
    for c in reference_candidates(paths, data_paths, parent, axis, label) {
        if out.len() >= limit {
            return;
        }
        current[node as usize] = c;
        if (node as usize) + 1 < pattern.len() {
            reference_assign(pattern, paths, data_paths, node + 1, current, out, limit);
        } else {
            out.push(current.clone());
        }
    }
}

/// The merge cap `instantiate` applies per assignment.
const MAX_MERGES: usize = 256;

/// The reference plan over the full assignment list: the concrete trees as
/// order-sensitive shape keys.
fn reference_plan(
    pattern: &TreePattern,
    paths: &PathTable,
    assignments: &[Vec<PathId>],
    options: &PlanOptions,
) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    for asg in assignments.iter().take(options.max_assignments) {
        for doc in merge_variants(pattern, paths, asg, MAX_MERGES) {
            let key = shape_key(&doc);
            if !out.contains(&key) {
                out.push(key);
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// The merge-variant step, as in `plan.rs` (unchanged by PR 21; copied so
// the reference yields trees, not just assignments).
// ---------------------------------------------------------------------

#[derive(Clone)]
struct Item {
    chain: Vec<Symbol>,
    pattern_node: PatternNodeId,
}

#[derive(Clone)]
struct Unit {
    parent: NodeId,
    items: Vec<Item>,
}

fn merge_variants(
    pattern: &TreePattern,
    paths: &PathTable,
    assignment: &[PathId],
    cap: usize,
) -> Vec<Document> {
    let root_chain = paths.symbols(assignment[pattern.root_id() as usize]);
    let doc = Document::with_root(root_chain[0]);
    let root_node = doc.root().expect("with_root sets the root");
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
    let mut out = Vec::new();
    expand(pattern, paths, assignment, doc, units, &mut out, cap);
    out
}

fn collect_child_items(
    pattern: &TreePattern,
    paths: &PathTable,
    assignment: &[PathId],
    pn: PatternNodeId,
    acc: &mut HashMap<Symbol, Vec<Item>>,
) {
    let base_depth = paths.depth(assignment[pn as usize]) as usize;
    for &c in pattern.children(pn) {
        let chain = paths.symbols(assignment[c as usize])[base_depth..].to_vec();
        acc.entry(chain[0]).or_default().push(Item {
            chain,
            pattern_node: c,
        });
    }
}

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
    for partition in partitions(unit.items.len()) {
        // at most one item per block may end at this step
        let block_count = partition.iter().max().map_or(0, |&b| b + 1);
        let enders = |block: usize| {
            (0..unit.items.len())
                .filter(|&i| partition[i] == block && unit.items[i].chain.len() == 1)
                .count()
        };
        if (0..block_count).any(|b| enders(b) > 1) {
            continue;
        }
        let mut d2 = doc.clone();
        let mut u2 = units.clone();
        for block in 0..block_count {
            let node = d2.child(unit.parent, sym);
            let mut acc: HashMap<Symbol, Vec<Item>> = HashMap::new();
            for (item, _) in unit
                .items
                .iter()
                .zip(&partition)
                .filter(|(_, &b)| b == block)
            {
                if item.chain.len() == 1 {
                    collect_child_items(pattern, paths, assignment, item.pattern_node, &mut acc);
                } else {
                    acc.entry(item.chain[1]).or_default().push(Item {
                        chain: item.chain[1..].to_vec(),
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

/// All set partitions of `n` items as block indices per item, blocks
/// numbered by first appearance.
fn partitions(n: usize) -> Vec<Vec<usize>> {
    fn rec(i: usize, max_block: usize, current: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if i == current.len() {
            out.push(current.clone());
            return;
        }
        for b in 0..=max_block {
            current[i] = b;
            rec(i + 1, max_block.max(b + 1), current, out);
        }
    }
    let mut out = Vec::new();
    rec(0, 0, &mut vec![0; n], &mut out);
    out
}

/// Order-sensitive shape of a tree (stricter than `structurally_eq`).
fn shape_key(doc: &Document) -> Vec<u32> {
    fn rec(doc: &Document, n: NodeId, out: &mut Vec<u32>) {
        out.extend([doc.sym(n).raw(), u32::MAX]);
        for &c in doc.children(n) {
            rec(doc, c, out);
        }
        out.push(u32::MAX - 1);
    }
    let mut out = Vec::new();
    rec(
        doc,
        doc.root().expect("planned trees have a root"),
        &mut out,
    );
    out
}

// ---------------------------------------------------------------------
// Random dictionaries and patterns.
// ---------------------------------------------------------------------

/// One document: per node a parent choice, a label choice and a value choice.
type DocRecipe = Vec<(u32, u8, Option<u8>)>;

fn docs_recipe(max_docs: usize) -> impl Strategy<Value = Vec<DocRecipe>> {
    let node = (
        any::<u32>(),
        any::<u8>(),
        proptest::option::weighted(0.4, any::<u8>()),
    );
    proptest::collection::vec(proptest::collection::vec(node, 1..12), 0..max_docs)
}

/// One pattern node: parent choice, label choice, `//` axis, `*` label, and
/// an optional value test (value choice, hung by `//`).
type PatternNodeRecipe = (u32, u8, bool, bool, Option<(u8, bool)>);

fn pattern_recipe() -> impl Strategy<Value = Vec<PatternNodeRecipe>> {
    let node = (
        any::<u32>(),
        any::<u8>(),
        any::<bool>(),
        proptest::bool::weighted(0.25),
        proptest::option::weighted(0.2, (any::<u8>(), any::<bool>())),
    );
    proptest::collection::vec(node, 1..5)
}

fn mode_of(choice: u8) -> ValueMode {
    match choice % 3 {
        0 => ValueMode::Intern,
        1 => ValueMode::Hashed { range: 3 },
        _ => ValueMode::Chars,
    }
}

/// The symbols a value becomes under the table's mode: one leaf, or the
/// terminated per-character chain of `Chars`.
fn value_symbols(st: &mut SymbolTable, text: &str) -> Vec<Symbol> {
    match st.values.mode() {
        ValueMode::Chars => st
            .values
            .chain(text)
            .into_iter()
            .map(Symbol::value)
            .collect(),
        _ => vec![st.val(text)],
    }
}

/// Elements `e0..e{elems-1}` (the root is `e0`) and values `v0..v{vals-1}`;
/// later documents draw from a larger alphabet, so they mint paths with
/// never-seen last symbols.
fn build_doc(recipe: &DocRecipe, st: &mut SymbolTable, elems: u8, vals: u8) -> Document {
    let mut doc = Document::with_root(st.elem("e0"));
    let mut elem_ids = vec![doc.root().expect("with_root sets the root")];
    for &(parent, label, value) in recipe {
        let parent = elem_ids[parent as usize % elem_ids.len()];
        let n = doc.child(parent, st.elem(&format!("e{}", label % elems)));
        elem_ids.push(n);
        if let Some(v) = value {
            let mut cur = n;
            for s in value_symbols(st, &format!("v{}", v % vals)) {
                cur = doc.child(cur, s);
            }
        }
    }
    doc
}

/// `0..3` evenly, and now and then `3`: the label only inserted documents
/// carry.
fn rare_fourth(choice: u8) -> u8 {
    if choice % 8 == 7 {
        3
    } else {
        choice % 3
    }
}

fn build_pattern(recipe: &[PatternNodeRecipe], st: &mut SymbolTable) -> TreePattern {
    let axis = |descendant: bool| {
        if descendant {
            Axis::Descendant
        } else {
            Axis::Child
        }
    };
    let mut q: Option<TreePattern> = None;
    let mut elem_ids: Vec<PatternNodeId> = Vec::new();
    for &(parent, label, descendant, star, value) in recipe {
        // every document's root is `e0`: `/e1` would plan nothing
        let label = if q.is_none() && !descendant {
            0
        } else {
            rare_fourth(label)
        };
        let lab = if star {
            PatternLabel::AnyElem
        } else {
            PatternLabel::Elem(st.designator(&format!("e{label}")))
        };
        let id = match q.as_mut() {
            None => {
                q = Some(TreePattern::with_root_axis(lab, axis(descendant)));
                0
            }
            Some(q) => {
                let parent = elem_ids[parent as usize % elem_ids.len()];
                q.add(parent, axis(descendant), lab)
            }
        };
        elem_ids.push(id);
        if let (Some((v, descendant)), Some(q)) = (value, q.as_mut()) {
            // a value test: one leaf, or the chain `Chars` spells it as
            // (only its first step may hang by `//`)
            let mut cur = id;
            for (i, s) in value_symbols(st, &format!("v{}", rare_fourth(v)))
                .into_iter()
                .enumerate()
            {
                let v = s.as_value().expect("value symbol");
                cur = q.add(cur, axis(descendant && i == 0), PatternLabel::Value(v));
            }
        }
    }
    q.expect("recipes have at least one node")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn instantiate_matches_the_scanning_enumerator(
        mode in any::<u8>(),
        built in docs_recipe(6),
        inserted in docs_recipe(3),
        ghosts in docs_recipe(2),
        pat in pattern_recipe(),
    ) {
        let mut st = SymbolTable::with_value_mode(mode_of(mode));
        let built: Vec<Document> = built.iter().map(|r| build_doc(r, &mut st, 3, 3)).collect();
        let inserted: Vec<Document> = inserted.iter().map(|r| build_doc(r, &mut st, 4, 4)).collect();
        let ghosts: Vec<Document> = ghosts.iter().map(|r| build_doc(r, &mut st, 4, 4)).collect();
        let q = build_pattern(&pat, &mut st);

        // One index per cap (the caps are fixed at build): documents indexed
        // at the build, documents whose paths are minted afterwards by
        // `insert_delta`, and paths interned but never indexed, interleaved
        // with the inserts.  Re-running this over one table mints nothing
        // the second time, so every index sees the same ids.
        let mut paths = PathTable::new();
        let index_with = |options: PlanOptions, paths: &mut PathTable| {
            let mut index = XmlIndex::build(&built, paths, SeqStrategy::DepthFirst, options);
            for (i, doc) in inserted.iter().enumerate() {
                if let Some(ghost) = ghosts.get(i) {
                    ghost.path_encode(paths);
                }
                index.insert_delta(doc, (built.len() + i) as u32, paths);
            }
            index
        };
        let index = index_with(PlanOptions::default(), &mut paths);
        let data_paths = index.data_paths().clone();

        let mut assignments = Vec::new();
        let mut current = vec![PathId::ROOT; q.len()];
        reference_assign(&q, &paths, &data_paths, q.root_id(), &mut current, &mut assignments, 600);
        if assignments.len() >= 600 {
            return Ok(()); // too many to enumerate three more times
        }

        let exact = assignments.len();
        for max_assignments in [1, exact.max(1), exact + 1] {
            let options = PlanOptions { max_assignments };
            let expect = reference_plan(&q, &paths, &assignments, &options);
            let got = instantiate(&q, &paths, &data_paths, &options);
            prop_assert_eq!(
                got.iter().map(shape_key).collect::<Vec<_>>(),
                expect,
                "{} at {}", q.render(&st), options.describe()
            );
            // The database plans assignments only: its one cap is theirs.
            let capped = index_with(options, &mut paths);
            prop_assert_eq!(capped.data_paths(), &data_paths);
            let out = capped.query(&q, &paths);
            prop_assert_eq!(
                out.stats.plan_truncated,
                u64::from(exact > max_assignments),
                "{} at {}", q.render(&st), options.describe()
            );
            prop_assert_eq!(out.stats.instantiations as usize, exact.min(max_assignments));
        }
    }
}
