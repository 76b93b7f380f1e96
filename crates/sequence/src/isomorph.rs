//! Isomorphic sibling orderings — the cure for false dismissals.
//!
//! Section 3.2/3.3: the same XML structure can be drawn with identical-label
//! siblings in either order (Figure 5), and the two forms may sequence
//! differently.  "Given a query structure, we regard each of its isomorphism
//! structures as a different query, and union the results."
//!
//! Only siblings with the *same label* matter: the order of distinct-label
//! siblings is fully determined by the sequencing priorities, and permuting
//! same-label siblings with structurally identical subtrees changes nothing.
//! So this module enumerates, per parent, the permutations of each
//! same-label sibling group, deduplicates structurally identical outcomes,
//! and caps the total (queries with many ambiguous groups would otherwise
//! explode factorially).

use std::collections::HashSet;
use xseq_xml::{Document, NodeId};

/// Enumerates the distinct sibling-order variants of `doc`, up to `cap`
/// documents.  The original ordering is always the first variant.
#[expect(clippy::indexing_slicing, reason = "digit i < choice.len() == orderings.len()")]
pub fn isomorphic_variants(doc: &Document, cap: usize) -> Vec<Document> {
    let Some(root) = doc.root() else {
        return vec![doc.clone()];
    };
    let cap = cap.max(1);

    // Per node: the list of alternative child orderings (usually just one).
    // Order variants are child-id permutations where only same-label groups
    // are permuted.
    let mut orderings: Vec<Vec<Vec<NodeId>>> = Vec::with_capacity(doc.len());
    for n in doc.node_ids() {
        orderings.push(child_orderings(doc, n, cap));
    }

    // Cartesian product over nodes, capped, with structural dedup on the
    // ordered shape.
    let mut out: Vec<Document> = Vec::new();
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    let mut choice = vec![0usize; doc.len()];
    loop {
        let variant = rebuild(doc, root, &orderings, &choice);
        if seen.insert(ordered_key(&variant)) {
            out.push(variant);
            if out.len() >= cap {
                break;
            }
        }
        // advance the mixed-radix counter
        let mut i = 0;
        loop {
            if i == choice.len() {
                return out;
            }
            choice[i] += 1;
            if choice[i] < orderings[i].len() {
                break;
            }
            choice[i] = 0;
            i += 1;
        }
    }
    out
}

/// All child orderings of `n` obtained by permuting same-label groups,
/// bounded by `cap`.
#[expect(clippy::indexing_slicing, reason = "slots index kids; v permutes kids")]
fn child_orderings(doc: &Document, n: NodeId, cap: usize) -> Vec<Vec<NodeId>> {
    let kids = doc.children(n);
    // Group positions by label.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    {
        let mut by_label: std::collections::HashMap<_, Vec<usize>> =
            std::collections::HashMap::new();
        for (i, &k) in kids.iter().enumerate() {
            by_label.entry(doc.sym(k).raw()).or_default().push(i);
        }
        let mut labels: Vec<_> = by_label.into_iter().collect();
        labels.sort_by_key(|(l, _)| *l);
        for (_, positions) in labels {
            if positions.len() > 1 {
                groups.push(positions);
            }
        }
    }
    if groups.is_empty() {
        return vec![kids.to_vec()];
    }

    let mut orders: Vec<Vec<NodeId>> = vec![kids.to_vec()];
    for group in groups {
        let mut next: Vec<Vec<NodeId>> = Vec::new();
        'outer: for base in &orders {
            #[expect(clippy::indexing_slicing, reason = "base permutes kids; group indexes kids")]
            let members: Vec<NodeId> = group.iter().map(|&i| base[i]).collect();
            for perm in permutations(&members, cap) {
                let mut v = base.clone();
                for (slot, node) in group.iter().zip(&perm) {
                    v[*slot] = *node;
                }
                next.push(v);
                if next.len() >= cap {
                    break 'outer;
                }
            }
        }
        orders = next;
    }
    // Dedup orderings that are identical node-id lists.
    let mut seen = HashSet::new();
    orders.retain(|o| seen.insert(o.clone()));
    orders
}

/// All permutations of `items`, capped (Heap's algorithm, iteratively
/// bounded).
fn permutations(items: &[NodeId], cap: usize) -> Vec<Vec<NodeId>> {
    let mut out = Vec::new();
    let mut v = items.to_vec();
    permute(&mut v, 0, cap, &mut out);
    out
}

fn permute(v: &mut Vec<NodeId>, k: usize, cap: usize, out: &mut Vec<Vec<NodeId>>) {
    if out.len() >= cap {
        return;
    }
    if k == v.len() {
        out.push(v.clone());
        return;
    }
    for i in k..v.len() {
        v.swap(k, i);
        permute(v, k + 1, cap, out);
        v.swap(k, i);
    }
}

/// Rebuilds a document applying the chosen child ordering at every node.
fn rebuild(
    doc: &Document,
    root: NodeId,
    orderings: &[Vec<Vec<NodeId>>],
    choice: &[usize],
) -> Document {
    let mut out = Document::with_root(doc.sym(root));
    #[expect(clippy::expect_used, reason = "with_root seeds the arena with exactly one root node")]
    let new_root = out.root().expect("Document::with_root always has a root");
    let mut stack = vec![(root, new_root)];
    while let Some((old, new)) = stack.pop() {
        #[expect(clippy::indexing_slicing, reason = "orderings/choice have one entry per node")]
        let order = &orderings[old as usize][choice[old as usize]];
        for &c in order {
            let nc = out.child(new, doc.sym(c));
            stack.push((c, nc));
        }
    }
    out
}

/// Order-sensitive structural key (labels + child order).
fn ordered_key(doc: &Document) -> Vec<u8> {
    let mut out = Vec::with_capacity(doc.len() * 5);
    let Some(root) = doc.root() else {
        return out;
    };
    fn rec(doc: &Document, n: NodeId, out: &mut Vec<u8>) {
        out.extend_from_slice(&doc.sym(n).raw().to_le_bytes());
        out.push(b'(');
        for &c in doc.children(n) {
            rec(doc, c, out);
        }
        out.push(b')');
    }
    rec(doc, root, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xseq_xml::SymbolTable;

    #[test]
    fn no_identical_siblings_one_variant() {
        let mut st = SymbolTable::default();
        let p = st.elem("P");
        let a = st.elem("A");
        let b = st.elem("B");
        let mut doc = Document::with_root(p);
        let r = doc.root().unwrap();
        doc.child(r, a);
        doc.child(r, b);
        let vars = isomorphic_variants(&doc, 100);
        assert_eq!(vars.len(), 1);
        assert!(vars[0].structurally_eq(&doc));
    }

    #[test]
    fn figure5_two_variants() {
        // P(L(S), L(B)): the two L subtrees differ, so both orders matter.
        let mut st = SymbolTable::default();
        let p = st.elem("P");
        let l = st.elem("L");
        let s = st.elem("S");
        let b = st.elem("B");
        let mut doc = Document::with_root(p);
        let r = doc.root().unwrap();
        let l1 = doc.child(r, l);
        doc.child(l1, s);
        let l2 = doc.child(r, l);
        doc.child(l2, b);
        let vars = isomorphic_variants(&doc, 100);
        assert_eq!(vars.len(), 2);
        for v in &vars {
            assert!(v.structurally_eq(&doc), "variants are isomorphic");
        }
        assert_ne!(ordered_key(&vars[0]), ordered_key(&vars[1]));
    }

    #[test]
    fn identical_subtrees_collapse() {
        // P(L, L): both orders are indistinguishable → one variant.
        let mut st = SymbolTable::default();
        let p = st.elem("P");
        let l = st.elem("L");
        let mut doc = Document::with_root(p);
        let r = doc.root().unwrap();
        doc.child(r, l);
        doc.child(r, l);
        let vars = isomorphic_variants(&doc, 100);
        assert_eq!(vars.len(), 1);
    }

    #[test]
    fn cap_limits_explosion() {
        // Root with 6 distinct-subtree identical siblings: 720 orderings.
        let mut st = SymbolTable::default();
        let p = st.elem("P");
        let l = st.elem("L");
        let mut doc = Document::with_root(p);
        let r = doc.root().unwrap();
        for i in 0..6 {
            let ln = doc.child(r, l);
            let leaf = st.elem(&format!("x{i}"));
            doc.child(ln, leaf);
        }
        let vars = isomorphic_variants(&doc, 16);
        assert_eq!(vars.len(), 16);
    }

    #[test]
    fn nested_groups_multiply() {
        // P(A(L(x),L(y)), A(L(u),L(w))) — permutations at several levels.
        let mut st = SymbolTable::default();
        let p = st.elem("P");
        let a = st.elem("A");
        let l = st.elem("L");
        let mut doc = Document::with_root(p);
        let r = doc.root().unwrap();
        for pair in [["x", "y"], ["u", "w"]] {
            let an = doc.child(r, a);
            for leaf in pair {
                let ln = doc.child(an, l);
                let lf = st.elem(leaf);
                doc.child(ln, lf);
            }
        }
        let vars = isomorphic_variants(&doc, 1000);
        // 2 (A order) × 2 (first A's Ls) × 2 (second A's Ls) = 8
        assert_eq!(vars.len(), 8);
        for v in &vars {
            assert!(v.structurally_eq(&doc));
        }
    }

    #[test]
    fn empty_document() {
        let vars = isomorphic_variants(&Document::new(), 10);
        assert_eq!(vars.len(), 1);
    }
}
