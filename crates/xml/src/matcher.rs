//! Brute-force structure matching — the ground truth for query equivalence.
//!
//! The paper's central claim (Theorems 2 and 3) is that constraint
//! subsequence matching answers exactly the documents containing a query's
//! tree structure.  This module defines that containment relation directly on
//! trees, by backtracking search for an **injective embedding** of the
//! pattern into the document that
//!
//! * preserves labels (with `*` matching any element),
//! * maps `Child`-axis pattern edges to parent-child document edges and
//!   `Descendant`-axis edges to ancestor-descendant relationships, and
//! * maps distinct pattern nodes to distinct document nodes (so the pattern
//!   `P(L(S), L(B))` needs *two* `L` children — Figure 4's false-alarm pair
//!   is distinguished correctly).
//!
//! Exponential in the worst case, tiny in practice (patterns are small);
//! its only jobs are test oracles and the ViST baseline's verification step
//! (standing in for ViST's join phase).

use crate::document::{Document, NodeId};
use crate::pattern::{Axis, PatternLabel, PatternNodeId, TreePattern};

/// True iff `doc` contains the structure described by `pattern`.
pub fn structure_match(pattern: &TreePattern, doc: &Document) -> bool {
    find_embedding(pattern, doc).is_some()
}

/// Finds one embedding of `pattern` into `doc`, returning the document node
/// matched by each pattern node (indexed by [`PatternNodeId`]).
///
/// The search assigns pattern nodes in preorder and backtracks over *every*
/// choice point, so it is complete: a naïve subtree-at-a-time embedder can
/// miss matches when an inner subtree greedily consumes a node a later
/// sibling needs.
pub fn find_embedding(pattern: &TreePattern, doc: &Document) -> Option<Vec<NodeId>> {
    doc.root()?;
    // Pattern node ids are already in parents-before-children order.
    let order: Vec<PatternNodeId> = pattern.node_ids().collect();
    let mut assignment = vec![u32::MAX; pattern.len()];
    let mut used = vec![false; doc.len()];
    if assign(pattern, doc, &order, 0, &mut assignment, &mut used) {
        Some(assignment)
    } else {
        None
    }
}

#[expect(clippy::indexing_slicing, reason = "k < order.len(); slots per pattern/document node")]
#[expect(clippy::expect_used, reason = "find_embedding returns early on an empty document")]
fn assign(
    pattern: &TreePattern,
    doc: &Document,
    order: &[PatternNodeId],
    k: usize,
    assignment: &mut [NodeId],
    used: &mut [bool],
) -> bool {
    if k == order.len() {
        return true;
    }
    let p = order[k];
    let candidates: Vec<NodeId> = match pattern.parent(p) {
        None => match pattern.axis(p) {
            Axis::Child => vec![doc
                .root()
                .expect("find_embedding returns early on an empty document")],
            Axis::Descendant => doc.preorder(),
        },
        Some(par) => {
            let anchor = assignment[par as usize];
            match pattern.axis(p) {
                Axis::Child => doc.children(anchor).to_vec(),
                Axis::Descendant => descendants(doc, anchor),
            }
        }
    };
    for cand in candidates {
        if !used[cand as usize] && label_matches(pattern.label(p), doc, cand) {
            used[cand as usize] = true;
            assignment[p as usize] = cand;
            if assign(pattern, doc, order, k + 1, assignment, used) {
                return true;
            }
            used[cand as usize] = false;
        }
    }
    false
}

fn descendants(doc: &Document, n: NodeId) -> Vec<NodeId> {
    let mut out = Vec::new();
    let mut stack: Vec<NodeId> = doc.children(n).to_vec();
    while let Some(x) = stack.pop() {
        out.push(x);
        stack.extend_from_slice(doc.children(x));
    }
    out
}

fn label_matches(label: PatternLabel, doc: &Document, d: NodeId) -> bool {
    let sym = doc.sym(d);
    match label {
        PatternLabel::Elem(e) => sym.as_elem() == Some(e),
        PatternLabel::AnyElem => sym.is_elem(),
        PatternLabel::Value(v) => sym.as_value() == Some(v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::{SymbolTable, ValueMode};

    fn st() -> SymbolTable {
        SymbolTable::with_value_mode(ValueMode::Intern)
    }

    /// Figure 2(a): P(R, D(L), D(M))
    fn fig2a(stt: &mut SymbolTable) -> Document {
        let p = stt.elem("P");
        let r = stt.elem("R");
        let d = stt.elem("D");
        let l = stt.elem("L");
        let m = stt.elem("M");
        let mut doc = Document::with_root(p);
        let root = doc.root().unwrap();
        doc.child(root, r);
        let d1 = doc.child(root, d);
        doc.child(d1, l);
        let d2 = doc.child(root, d);
        doc.child(d2, m);
        doc
    }

    #[test]
    fn figure2b_is_substructure_of_2a() {
        let mut stt = st();
        let doc = fig2a(&mut stt);
        // Fig 2(b): P(D(L), D(M))
        let p = stt.designator("P");
        let d = stt.designator("D");
        let l = stt.designator("L");
        let m = stt.designator("M");
        let mut q = TreePattern::root(PatternLabel::Elem(p));
        let d1 = q.add(q.root_id(), Axis::Child, PatternLabel::Elem(d));
        q.add(d1, Axis::Child, PatternLabel::Elem(l));
        let d2 = q.add(q.root_id(), Axis::Child, PatternLabel::Elem(d));
        q.add(d2, Axis::Child, PatternLabel::Elem(m));
        assert!(structure_match(&q, &doc));
    }

    #[test]
    fn figure2c_is_not_substructure_of_2a() {
        let mut stt = st();
        let doc = fig2a(&mut stt);
        // Fig 2(c): P(D(L, M)) — L and M under the SAME D.
        let p = stt.designator("P");
        let d = stt.designator("D");
        let l = stt.designator("L");
        let m = stt.designator("M");
        let mut q = TreePattern::root(PatternLabel::Elem(p));
        let dn = q.add(q.root_id(), Axis::Child, PatternLabel::Elem(d));
        q.add(dn, Axis::Child, PatternLabel::Elem(l));
        q.add(dn, Axis::Child, PatternLabel::Elem(m));
        assert!(!structure_match(&q, &doc));
    }

    #[test]
    fn figure4_false_alarm_pair() {
        let mut stt = st();
        let p = stt.elem("P");
        let l = stt.elem("L");
        let s = stt.elem("S");
        let b = stt.elem("B");
        // D = P(L(S), L(B))
        let mut doc = Document::with_root(p);
        let root = doc.root().unwrap();
        let l1 = doc.child(root, l);
        doc.child(l1, s);
        let l2 = doc.child(root, l);
        doc.child(l2, b);
        // Q = P(L(S, B))
        let pd = stt.designator("P");
        let ld = stt.designator("L");
        let sd = stt.designator("S");
        let bd = stt.designator("B");
        let mut q = TreePattern::root(PatternLabel::Elem(pd));
        let ln = q.add(q.root_id(), Axis::Child, PatternLabel::Elem(ld));
        q.add(ln, Axis::Child, PatternLabel::Elem(sd));
        q.add(ln, Axis::Child, PatternLabel::Elem(bd));
        assert!(!structure_match(&q, &doc), "Figure 4: Q must NOT match D");
    }

    #[test]
    fn identical_query_siblings_need_distinct_witnesses() {
        let mut stt = st();
        let p = stt.elem("P");
        let l = stt.elem("L");
        let mut doc = Document::with_root(p);
        let root = doc.root().unwrap();
        doc.child(root, l);

        let pd = stt.designator("P");
        let ld = stt.designator("L");
        let mut q = TreePattern::root(PatternLabel::Elem(pd));
        q.add(q.root_id(), Axis::Child, PatternLabel::Elem(ld));
        q.add(q.root_id(), Axis::Child, PatternLabel::Elem(ld));
        assert!(!structure_match(&q, &doc), "two L's required, one present");

        doc.child(root, l);
        assert!(structure_match(&q, &doc));
    }

    #[test]
    fn descendant_axis_skips_levels() {
        let mut stt = st();
        let a = stt.elem("a");
        let b = stt.elem("b");
        let c = stt.elem("c");
        let mut doc = Document::with_root(a);
        let root = doc.root().unwrap();
        let bn = doc.child(root, b);
        doc.child(bn, c);

        let ad = stt.designator("a");
        let cd = stt.designator("c");
        let mut q = TreePattern::root(PatternLabel::Elem(ad));
        q.add(q.root_id(), Axis::Descendant, PatternLabel::Elem(cd));
        assert!(structure_match(&q, &doc));

        let mut q2 = TreePattern::root(PatternLabel::Elem(ad));
        q2.add(q2.root_id(), Axis::Child, PatternLabel::Elem(cd));
        assert!(!structure_match(&q2, &doc));
    }

    #[test]
    fn root_descendant_axis_matches_anywhere() {
        let mut stt = st();
        let a = stt.elem("a");
        let b = stt.elem("b");
        let mut doc = Document::with_root(a);
        let root = doc.root().unwrap();
        doc.child(root, b);

        let bd = stt.designator("b");
        let q = TreePattern::with_root_axis(PatternLabel::Elem(bd), Axis::Descendant);
        assert!(structure_match(&q, &doc));
        let q2 = TreePattern::root(PatternLabel::Elem(bd));
        assert!(!structure_match(&q2, &doc));
    }

    #[test]
    fn wildcard_matches_elements_not_values() {
        let mut stt = st();
        let a = stt.elem("a");
        let v = stt.val("text");
        let mut doc = Document::with_root(a);
        let root = doc.root().unwrap();
        doc.child(root, v);

        let ad = stt.designator("a");
        let mut q = TreePattern::root(PatternLabel::Elem(ad));
        q.add(q.root_id(), Axis::Child, PatternLabel::AnyElem);
        assert!(!structure_match(&q, &doc), "* must not match a value leaf");

        let vid = stt.values.lookup("text").unwrap();
        let mut q2 = TreePattern::root(PatternLabel::Elem(ad));
        q2.add(q2.root_id(), Axis::Child, PatternLabel::Value(vid));
        assert!(structure_match(&q2, &doc));
    }

    #[test]
    fn empty_document_matches_nothing() {
        let mut stt = st();
        let ad = stt.designator("a");
        let q = TreePattern::root(PatternLabel::Elem(ad));
        assert!(!structure_match(&q, &Document::new()));
    }
}
