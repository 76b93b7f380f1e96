//! Sequence-level integrity checks: Eq. 3 (`f2`) validity and the Theorem 1
//! round-trip.
//!
//! The paper's correctness story rests on two properties of every stored
//! constraint sequence:
//!
//! 1. **`f2` validity (Eq. 3 / Definition 1)** — every element's proper
//!    prefixes occur in the sequence, there is exactly one root, and the
//!    forward-prefix attachment yields a tree whose node-encoding multiset
//!    equals the sequence's element multiset.
//! 2. **Unique decoding (Theorem 1)** — the sequence maps back to exactly
//!    one tree.  For strategies whose re-encoding is canonical
//!    (depth-first, probability-ordered — see
//!    [`Strategy::reencode_is_canonical`]) this is checked in its strongest
//!    form: decoding and re-sequencing with the same strategy must
//!    reproduce the sequence *identically*, element for element.
//!    `Random` (per-node ranks) and `BreadthFirst` (level order is not
//!    recoverable once the decoder normalizes equal-path sibling
//!    attachment) may legally re-encode differently; there the check falls
//!    back to structural equality of a double decode.
//!
//! An index that silently violates either property returns wrong answers —
//! not errors — so `xseq-index`'s [`verify_integrity`] runs these checks
//! over every distinct sequence stored in the trie.
//!
//! [`verify_integrity`]: ../xseq_index/struct.XmlIndex.html#method.verify_integrity

use crate::constraint::{decode_f2, DecodeError};
use crate::strategy::emit_sequence;
use crate::{Sequence, Strategy};
use std::fmt;
use xseq_xml::{PathId, PathTable};

/// Why a stored sequence failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SequenceIssue {
    /// The sequence is not a valid `f2` constraint sequence (Eq. 3).
    NotF2(DecodeError),
    /// The decoded tree's node-encoding multiset differs from the
    /// sequence's element multiset (Definition 1's "one element per node"
    /// is broken).
    MultisetMismatch {
        /// A path present in one multiset but not the other.
        path: PathId,
    },
    /// Re-sequencing the decoded tree with the same strategy produced a
    /// different encoding — Theorem 1's unique decoding does not hold for
    /// this sequence as stored.
    ReencodeMismatch {
        /// First sequence position where the encodings differ (or the
        /// shorter length when one is a prefix of the other).
        position: usize,
    },
    /// For strategies without a canonical re-encoding: decode →
    /// re-sequence → decode produced a structurally different tree.
    StructuralMismatch,
    /// The decoded tree has a node whose path the table never interned, so
    /// it cannot be re-encoded: verification reads the table, it never
    /// grows it.
    UnknownPath,
}

impl fmt::Display for SequenceIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SequenceIssue::NotF2(e) => write!(f, "not a valid f2 sequence: {e}"),
            SequenceIssue::MultisetMismatch { path } => {
                write!(f, "element multiset mismatch at path {path:?}")
            }
            SequenceIssue::ReencodeMismatch { position } => {
                write!(f, "re-encoding diverges at position {position}")
            }
            SequenceIssue::StructuralMismatch => {
                write!(f, "double decode is not structurally equal")
            }
            SequenceIssue::UnknownPath => {
                write!(f, "decoded tree has a path absent from the path table")
            }
        }
    }
}

/// Verifies that `seq` is a well-formed `f2` constraint sequence that
/// round-trips through the Theorem 1 decoder under `strategy`.
///
/// Read-only: every path a well-formed decoded tree re-encodes to is
/// already in `paths`, and one that is not is reported as
/// [`SequenceIssue::UnknownPath`] rather than interned.
pub fn verify_sequence(
    seq: &Sequence,
    paths: &PathTable,
    strategy: &Strategy,
) -> Result<(), SequenceIssue> {
    // 1. Eq. 3: the sequence decodes under the forward-prefix constraint.
    let doc = decode_f2(seq, paths).map_err(SequenceIssue::NotF2)?;

    // 2. Definition 1: one element per tree node, as a multiset.
    let mut stored: Vec<PathId> = seq.elems().to_vec();
    let enc = doc
        .path_encode_readonly(paths)
        .ok_or(SequenceIssue::UnknownPath)?;
    let mut decoded = enc.clone();
    stored.sort_unstable();
    decoded.sort_unstable();
    if stored != decoded {
        let path = stored
            .iter()
            .zip(decoded.iter())
            .find(|(a, b)| a != b)
            .map(|(a, _)| *a)
            .or_else(|| stored.last().copied())
            .unwrap_or(PathId::ROOT);
        return Err(SequenceIssue::MultisetMismatch { path });
    }

    // 3. Theorem 1: the decoded tree re-encodes to the same sequence.
    let (re, _) = emit_sequence(&doc, &enc, strategy);
    if strategy.reencode_is_canonical() {
        if re != *seq {
            let position = re
                .elems()
                .iter()
                .zip(seq.elems())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| re.len().min(seq.len()));
            return Err(SequenceIssue::ReencodeMismatch { position });
        }
    } else {
        // Random's per-node ranks and BreadthFirst's original level order
        // are not preserved through decoding, so the re-encoding may
        // legally reorder; uniqueness is still required of the *tree*.
        let back = decode_f2(&re, paths).map_err(|_| SequenceIssue::StructuralMismatch)?;
        if !back.structurally_eq(&doc) {
            return Err(SequenceIssue::StructuralMismatch);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::sequence_document;
    use xseq_xml::{Document, SymbolTable, ValueMode};

    fn fig3b(st: &mut SymbolTable) -> Document {
        let p = st.elem("P");
        let d = st.elem("D");
        let l = st.elem("L");
        let m = st.elem("M");
        let mut doc = Document::with_root(p);
        let root = doc.root().unwrap();
        let d1 = doc.child(root, d);
        doc.child(d1, l);
        let d2 = doc.child(root, d);
        doc.child(d2, m);
        doc
    }

    #[test]
    fn valid_sequences_pass_for_every_strategy() {
        let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
        let doc = fig3b(&mut st);
        // fig3b has identical siblings, which breadth-first sequencing
        // excludes by precondition — it gets its own test below.
        for strategy in [
            Strategy::DepthFirst,
            Strategy::Random { seed: 3 },
            Strategy::Probability(crate::PriorityMap::new(0.0)),
        ] {
            let mut paths = PathTable::new();
            let seq = sequence_document(&doc, &mut paths, &strategy);
            assert_eq!(
                verify_sequence(&seq, &paths, &strategy),
                Ok(()),
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn breadth_first_passes_on_sibling_distinct_trees() {
        let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
        let p = st.elem("P");
        let d = st.elem("D");
        let l = st.elem("L");
        let m = st.elem("M");
        let mut doc = Document::with_root(p);
        let root = doc.root().unwrap();
        let d1 = doc.child(root, d);
        doc.child(d1, l);
        doc.child(d1, m);
        doc.child(root, l);
        let mut paths = PathTable::new();
        let seq = sequence_document(&doc, &mut paths, &Strategy::BreadthFirst);
        assert_eq!(
            verify_sequence(&seq, &paths, &Strategy::BreadthFirst),
            Ok(())
        );
    }

    #[test]
    fn corrupt_sequence_is_reported() {
        let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
        let doc = fig3b(&mut st);
        let mut paths = PathTable::new();
        let strategy = Strategy::DepthFirst;
        let mut seq = sequence_document(&doc, &mut paths, &strategy);
        // Flip one designator: replace the first element (the root "P")
        // with a deep path — no root remains.
        seq.0[0] = *seq.0.last().unwrap();
        assert!(matches!(
            verify_sequence(&seq, &paths, &strategy),
            Err(SequenceIssue::NotF2(_))
        ));
    }

    #[test]
    fn non_canonical_order_fails_reencode() {
        // ⟨P, PB, PA⟩ is a valid f2 sequence of P(B, A), but canonical
        // depth-first emits children in symbol order — ⟨P, PA, PB⟩ — so a
        // stored sequence in the swapped order cannot have been produced by
        // the DF emitter, and the strict round-trip catches it.
        let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
        let p = st.elem("P");
        let a = st.elem("A");
        let b = st.elem("B");
        let mut paths = PathTable::new();
        let pp = paths.intern(&[p]);
        let pb = paths.intern(&[p, b]);
        let pa = paths.intern(&[p, a]);
        let swapped = Sequence(vec![pp, pb, pa]);
        let res = verify_sequence(&swapped, &paths, &Strategy::DepthFirst);
        assert!(
            matches!(res, Err(SequenceIssue::ReencodeMismatch { .. })),
            "{res:?}"
        );
    }
}
