//! Constraints on node order: `f1`, `f2` (forward prefix), validation, and
//! the Theorem 1 decoder.
//!
//! Definition 1 (constraint): a boolean function `f(·,·)` such that for every
//! element `p_j` of the sequence and every proper prefix `t ⊂ p_j` there is
//! **exactly one** element `p_i = t` with `f(p_i, p_j) = true` — `f` pins
//! down each node's ancestors unambiguously.
//!
//! * `f1(p_i, p_j) ≡ p_i ⊂ p_j` (Eq. 2) — a constraint only when the tree has
//!   no identical sibling nodes (each path occurs once), in which case the
//!   node order is completely free.
//! * `f2(p_i, p_j) ≡ p_i is a forward prefix of p_j` (Eq. 3) — resolves the
//!   ambiguity identical siblings introduce.  Definition 2: among the
//!   occurrences of a prefix `t` of `p_i`, the forward prefix is the closest
//!   occurrence *before* `p_i`; if none precedes, the closest occurrence
//!   after it.

use crate::Sequence;
use std::collections::HashMap;
use std::fmt;
use xseq_xml::{Document, NodeId, PathId, PathTable};

/// Why a sequence failed to decode as a constraint sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The sequence is empty.
    Empty,
    /// Element `index` has a proper prefix that never occurs in the sequence,
    /// violating Definition 1.
    MissingAncestor {
        /// Offending element position.
        index: usize,
    },
    /// More than one element has a depth-1 path — a forest, not a tree.
    MultipleRoots,
    /// The depth-1 element is not unique enough to be a root (e.g. no
    /// depth-1 element at all).
    NoRoot,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Empty => write!(f, "empty sequence"),
            DecodeError::MissingAncestor { index } => {
                write!(f, "element {index} has a prefix that never occurs")
            }
            DecodeError::MultipleRoots => write!(f, "more than one depth-1 element"),
            DecodeError::NoRoot => write!(f, "no depth-1 element"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Finds the index of the forward prefix of element `i` for prefix path `t`
/// (Definition 2): the closest occurrence of `t` before position `i`, or, if
/// none precedes, the earliest occurrence after `i`.  Returns `None` when `t`
/// never occurs, or when `i` is past the end of `seq`.
pub fn forward_prefix(seq: &Sequence, i: usize, t: PathId) -> Option<usize> {
    let elems = seq.elems();
    if let Some(j) = elems.get(..i)?.iter().rposition(|&e| e == t) {
        return Some(j);
    }
    let after = elems.get(i + 1..)?.iter().position(|&e| e == t)?;
    Some(i + 1 + after)
}

/// Decodes a constraint sequence under `f2` into its unique tree
/// (Theorem 1).  Node labels are recovered from the last symbol of each
/// element's path.
// i and every parent_of entry are positions below elems.len(), and order is
// a permutation of them; every non-root element has a non-root parent path
// (checked above), so it is not ε and has a last symbol; a parent
// occurrence has a smaller depth, so the depth order puts every parent
// first.
#[expect(clippy::indexing_slicing, reason = "positions < elems.len(); order permutes them")]
#[expect(clippy::expect_used, reason = "non-root paths have a last symbol; parents sort first")]
pub fn decode_f2(seq: &Sequence, paths: &PathTable) -> Result<Document, DecodeError> {
    if seq.is_empty() {
        return Err(DecodeError::Empty);
    }
    let elems = seq.elems();

    // Locate the root — the unique depth-1 element — and, per path, the
    // position of its first occurrence; the second slot will hold its
    // latest occurrence so far.
    const UNSEEN: usize = usize::MAX;
    let mut occurs: HashMap<PathId, (usize, usize)> = HashMap::with_capacity(elems.len());
    let mut root_idx = None;
    for (i, &p) in elems.iter().enumerate() {
        occurs.entry(p).or_insert((i, UNSEEN));
        if paths.depth(p) == 1 {
            if root_idx.is_some() {
                return Err(DecodeError::MultipleRoots);
            }
            root_idx = Some(i);
        }
    }
    let root_idx = root_idx.ok_or(DecodeError::NoRoot)?;

    // Attach every other element to its forward prefix (Definition 2, the
    // scan [`forward_prefix`] spells out) in one forward pass.
    let mut parent_of = vec![usize::MAX; elems.len()];
    for (i, &p) in elems.iter().enumerate() {
        if i != root_idx {
            let t = paths.parent(p);
            if t == PathId::ROOT {
                // depth-1 handled above
                return Err(DecodeError::MultipleRoots);
            }
            // `t` is not `p`, so with no occurrence before `i` its first
            // occurrence is the earliest one after `i`.
            parent_of[i] = match occurs.get(&t) {
                Some(&(first, UNSEEN)) => first,
                Some(&(_, latest)) => latest,
                None => return Err(DecodeError::MissingAncestor { index: i }),
            };
        }
        occurs.entry(p).and_modify(|seen| seen.1 = i);
    }

    // Build the document's columns in an order where parents come first.
    // Parent elements always have strictly smaller path depth, so sorting
    // positions by depth gives a valid arena order, with the root first.
    let mut order: Vec<usize> = (0..elems.len()).collect();
    order.sort_by_key(|&i| paths.depth(elems[i]));

    let mut node_of = vec![0 as NodeId; elems.len()];
    let mut sym = Vec::with_capacity(order.len());
    let mut parent = Vec::with_capacity(order.len());
    for (node, &i) in order.iter().enumerate() {
        node_of[i] = node as NodeId;
        sym.push(paths.last(elems[i]).expect("non-root path"));
        // the root's parent_of is usize::MAX, past every node
        let up = node_of.get(parent_of[i]).copied();
        parent.push(up.unwrap_or(Document::NO_PARENT));
    }
    Ok(Document::from_parents(sym, parent).expect("a depth order puts every parent first"))
}

/// Validates that `seq` is a well-formed `f2` constraint sequence: it decodes
/// to a tree and the multiset of node encodings of that tree equals the
/// multiset of sequence elements.
pub fn validate_f2(seq: &Sequence, paths: &mut PathTable) -> Result<(), DecodeError> {
    let doc = decode_f2(seq, paths)?;
    let enc = doc.path_encode(paths);
    let mut a: Vec<PathId> = seq.elems().to_vec();
    let mut b: Vec<PathId> = enc;
    a.sort();
    b.sort();
    if a == b {
        Ok(())
    } else {
        // A mismatch means some element was attached under a merged path that
        // changes its encoding — cannot happen for sequences produced by the
        // emitter, but hand-built sequences can trip it.
        Err(DecodeError::MissingAncestor { index: 0 })
    }
}

/// The paper's `f1` (Eq. 2): plain prefix.  Only a *constraint* in the sense
/// of Definition 1 when no path occurs twice in the sequence; this predicate
/// checks that precondition.
pub fn f1_applicable(seq: &Sequence) -> bool {
    let mut seen = std::collections::HashSet::with_capacity(seq.len());
    seq.elems().iter().all(|&p| seen.insert(p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xseq_xml::{PathTable, Symbol, SymbolTable, ValueMode};

    struct Fixture {
        st: SymbolTable,
        pt: PathTable,
    }

    impl Fixture {
        fn new() -> Self {
            Fixture {
                st: SymbolTable::with_value_mode(ValueMode::Intern),
                pt: PathTable::new(),
            }
        }

        /// Interns a path written like "P.D.L" (values prefixed with ').
        fn p(&mut self, spec: &str) -> PathId {
            let syms: Vec<Symbol> = spec
                .split('.')
                .map(|part| {
                    if let Some(v) = part.strip_prefix('\'') {
                        self.st.val(v)
                    } else {
                        self.st.elem(part)
                    }
                })
                .collect();
            self.pt.intern(&syms)
        }

        fn seq(&mut self, specs: &[&str]) -> Sequence {
            Sequence(specs.iter().map(|s| self.p(s)).collect())
        }
    }

    #[test]
    fn forward_prefix_definition_example() {
        // Paper example: in ⟨P, PD, PDL, PDLv1, PD, PDM, PDMv3⟩ the SECOND
        // PD is the forward prefix of PDMv3, the first is not.
        let mut f = Fixture::new();
        let seq = f.seq(&[
            "P",
            "P.D",
            "P.D.L",
            "P.D.L.'v1",
            "P.D",
            "P.D.M",
            "P.D.M.'v3",
        ]);
        let pd = f.p("P.D");
        let pdm = f.p("P.D.M");
        // forward prefix of PDMv3 (index 6) for prefix PD is index 4
        assert_eq!(forward_prefix(&seq, 6, pd), Some(4));
        // and for prefix PDM is index 5
        assert_eq!(forward_prefix(&seq, 6, pdm), Some(5));
        // forward prefix of PDL (index 2) for prefix PD is index 1
        assert_eq!(forward_prefix(&seq, 2, pd), Some(1));
    }

    #[test]
    fn forward_prefix_falls_back_to_later_occurrence() {
        // When no occurrence precedes, the earliest occurrence after wins.
        let mut f = Fixture::new();
        // ⟨PD-child-first⟩ style: P.D.L before its parent P.D
        let seq = f.seq(&["P", "P.D.L", "P.D"]);
        let pd = f.p("P.D");
        assert_eq!(forward_prefix(&seq, 1, pd), Some(2));
    }

    #[test]
    fn forward_prefix_missing() {
        let mut f = Fixture::new();
        let seq = f.seq(&["P", "P.D.L"]);
        let pd = f.p("P.D");
        assert_eq!(forward_prefix(&seq, 1, pd), None);
    }

    #[test]
    fn decode_depth_first_sequence_of_fig3b() {
        // Table 1: Fig 3(b) = ⟨P, Pv0, PD, PDL, PDLv1, PD, PDM, PDMv2⟩
        // decodes to P(v0, D(L(v1)), D(M(v2))).
        let mut f = Fixture::new();
        let seq = f.seq(&[
            "P",
            "P.'v0",
            "P.D",
            "P.D.L",
            "P.D.L.'v1",
            "P.D",
            "P.D.M",
            "P.D.M.'v2",
        ]);
        let doc = decode_f2(&seq, &f.pt).unwrap();
        assert_eq!(doc.len(), 8);
        let root = doc.root().unwrap();
        assert_eq!(doc.children(root).len(), 3);
        // the two D children each have exactly one child
        let d_nodes: Vec<_> = doc
            .children(root)
            .iter()
            .copied()
            .filter(|&n| doc.sym(n).is_elem())
            .collect();
        assert_eq!(d_nodes.len(), 2);
        for d in d_nodes {
            assert_eq!(doc.children(d).len(), 1);
            let mid = doc.children(d)[0];
            assert_eq!(doc.children(mid).len(), 1);
        }
        assert!(validate_f2(&seq, &mut f.pt).is_ok());
    }

    #[test]
    fn decode_fig3c_differs_from_fig3b() {
        // Table 1: Fig 3(c) = ⟨P, Pv0, PD, PD, PDL, PDLv1, PDM, PDMv2⟩:
        // the SECOND PD is the forward prefix of PDL and PDM, so both L and
        // M land under the second D, leaving the first D a leaf.
        let mut f = Fixture::new();
        let seq = f.seq(&[
            "P",
            "P.'v0",
            "P.D",
            "P.D",
            "P.D.L",
            "P.D.L.'v1",
            "P.D.M",
            "P.D.M.'v2",
        ]);
        let doc = decode_f2(&seq, &f.pt).unwrap();
        let root = doc.root().unwrap();
        let d_nodes: Vec<_> = doc
            .children(root)
            .iter()
            .copied()
            .filter(|&n| doc.sym(n).is_elem())
            .collect();
        assert_eq!(d_nodes.len(), 2);
        let child_counts: Vec<usize> = d_nodes.iter().map(|&d| doc.children(d).len()).collect();
        let mut sorted = child_counts.clone();
        sorted.sort();
        assert_eq!(sorted, vec![0, 2], "one leaf D, one D with both L and M");
    }

    #[test]
    fn table2_all_rows_decode_to_fig3c() {
        // Table 2 lists several constraint sequences of Figure 3(c); all
        // must decode to the same structure. (The paper's PBMv3 entries are
        // typos for PDMv3.)
        let mut f = Fixture::new();
        let rows: Vec<Vec<&str>> = vec![
            vec![
                "P",
                "P.'v0",
                "P.D",
                "P.D",
                "P.D.L",
                "P.D.L.'v1",
                "P.D.M",
                "P.D.M.'v3",
            ],
            vec![
                "P",
                "P.D",
                "P.'v0",
                "P.D",
                "P.D.M",
                "P.D.M.'v3",
                "P.D.L",
                "P.D.L.'v1",
            ],
            vec![
                "P",
                "P.D",
                "P.D.M",
                "P.D.M.'v3",
                "P.'v0",
                "P.D.L",
                "P.D.L.'v1",
                "P.D",
            ],
            vec![
                "P",
                "P.D",
                "P.D.M",
                "P.D.M.'v3",
                "P.D.L",
                "P.'v0",
                "P.D.L.'v1",
                "P.D",
            ],
        ];
        let docs: Vec<Document> = rows
            .iter()
            .map(|r| {
                let seq = f.seq(r);
                decode_f2(&seq, &f.pt).unwrap()
            })
            .collect();
        for w in docs.windows(2) {
            assert!(
                w[0].structurally_eq(&w[1]),
                "all Table 2 sequences decode to the same tree"
            );
        }
        // And it is Fig 3(c): one D with both L and M, one leaf D.
        let root = docs[0].root().unwrap();
        let counts: Vec<usize> = docs[0]
            .children(root)
            .iter()
            .filter(|&&n| docs[0].sym(n).is_elem())
            .map(|&n| docs[0].children(n).len())
            .collect();
        let mut sorted = counts;
        sorted.sort();
        assert_eq!(sorted, vec![0, 2]);
    }

    #[test]
    fn decode_rejects_missing_ancestor() {
        let mut f = Fixture::new();
        let seq = f.seq(&["P", "P.D.L"]);
        assert_eq!(
            decode_f2(&seq, &f.pt),
            Err(DecodeError::MissingAncestor { index: 1 })
        );
    }

    #[test]
    fn decode_rejects_forest_and_empty() {
        let mut f = Fixture::new();
        let two_roots = f.seq(&["P", "Q"]);
        assert_eq!(
            decode_f2(&two_roots, &f.pt),
            Err(DecodeError::MultipleRoots)
        );
        assert_eq!(
            decode_f2(&Sequence::default(), &f.pt),
            Err(DecodeError::Empty)
        );
        let no_root = f.seq(&["P.D"]);
        assert_eq!(decode_f2(&no_root, &f.pt), Err(DecodeError::NoRoot));
    }

    #[test]
    fn f1_applicability() {
        let mut f = Fixture::new();
        let unique = f.seq(&["P", "P.D", "P.D.L"]);
        assert!(f1_applicable(&unique));
        let dup = f.seq(&["P", "P.D", "P.D"]);
        assert!(!f1_applicable(&dup));
    }
}
