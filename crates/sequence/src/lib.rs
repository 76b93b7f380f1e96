//! # xseq-sequence — constraint sequencing of tree structures
//!
//! The heart of the paper (Sections 2 and 5): turning a tree into a sequence
//! of path-encoded nodes such that the tree — and only that tree — can be
//! reconstructed, while leaving as much ordering freedom as possible for a
//! *performance-oriented* user strategy.
//!
//! * [`Sequence`] — a sequence of [`PathId`]s, the unit the index ingests.
//! * [`constraint`] — the constraints `f1` (plain prefix, Eq. 2) and `f2`
//!   (forward prefix, Eq. 3 / Definition 2), sequence validation, and the
//!   Theorem 1 decoder that reconstructs the unique tree of a constraint
//!   sequence.
//! * [`strategy`] — sequencing strategies: depth-first, breadth-first,
//!   random, and the probability-ordered `g_best` of Algorithm 2, all run
//!   through a single constraint-respecting emitter.
//! * [`schema`] — what `g_best`'s priorities are built from: occurrence
//!   probabilities `p(C|root)`, estimated from a document sample or
//!   declared per schema edge, times query-tuning weights `w(C)` (Eq. 6).
//! * [`verify`] — integrity checking of stored sequences: `f2` validity and
//!   the Theorem 1 round-trip, used by the index's `verify_integrity`.

// Panic-freedom, checked by clippy (DESIGN.md §14): every suppression is an
// `#[expect(…, reason = "…")]` carrying its proof.
#![deny(
    clippy::indexing_slicing,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::integer_division_remainder_used
)]

pub mod constraint;
pub mod schema;
pub mod strategy;
mod tests;
pub mod verify;

pub use constraint::{decode_f2, forward_prefix, validate_f2, DecodeError};
pub use schema::{ProbabilityModel, SchemaTree, WeightMap};
pub use strategy::{emit_sequence, sequence_document, PriorityMap, Strategy};
pub use verify::{verify_sequence, SequenceIssue};

use xseq_xml::{PathId, PathTable, SymbolTable};

/// A sequence of path-encoded nodes representing one tree structure.
///
/// Element `i` is the path encoding of one tree node; the multiset of
/// elements is exactly the multiset of node encodings of the tree, and the
/// order satisfies the active constraint.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Sequence(pub Vec<PathId>);

impl Sequence {
    /// Number of elements (= number of tree nodes).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for the empty sequence (the empty tree).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The elements in order.
    pub fn elems(&self) -> &[PathId] {
        &self.0
    }

    /// Renders the sequence in the paper's `⟨P, PD, PDL, …⟩` notation.
    pub fn render(&self, paths: &PathTable, symbols: &SymbolTable) -> String {
        let mut out = String::from("⟨");
        for (i, &p) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            for sym in paths.symbols(p) {
                out.push_str(&symbols.render(sym));
            }
        }
        out.push('⟩');
        out
    }
}

impl From<Vec<PathId>> for Sequence {
    fn from(v: Vec<PathId>) -> Self {
        Sequence(v)
    }
}

/// Heap attribution for a sequence: its path vector.
impl xseq_telemetry::HeapSize for Sequence {
    fn heap_bytes(&self) -> usize {
        self.0.capacity() * std::mem::size_of::<PathId>()
    }
}

impl std::ops::Index<usize> for Sequence {
    type Output = PathId;
    #[expect(clippy::indexing_slicing, reason = "`Index` panics out of bounds, like a slice")]
    fn index(&self, i: usize) -> &PathId {
        &self.0[i]
    }
}
