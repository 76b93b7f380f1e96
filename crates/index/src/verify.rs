//! Exhaustive integrity verification of a built index (the `xseq-check`
//! subsystem).
//!
//! The paper's query correctness (no false alarms, no false dismissals)
//! rests on structural invariants that nothing in the hot path re-checks:
//!
//! * **Preorder labels** (Section 4.1, Figure 8): every trie node's range
//!   `(n⊢, n⊣)` is properly nested inside its parent's, sibling ranges are
//!   disjoint, and `n⊣` equals the largest serial in `n`'s subtree — the
//!   descent test `x⊢ ∈ (y⊢, y⊣]` is only sound under all three.
//! * **Path links** (Section 4.1, Figure 9): every horizontal link is
//!   strictly sorted by serial and contains each trie node exactly once —
//!   [`TrieView::link_lower_bound`]'s binary search silently returns wrong
//!   candidates otherwise.
//! * **Sibling-cover bookkeeping** (Algorithm 1 / Definition 4): the
//!   `embeds_identical` flag must equal a from-scratch recomputation, or
//!   the constraint check is skipped exactly where it is needed.
//! * **End nodes** (Section 4.1 step 1): the registry is ascending, each
//!   entry owns a non-empty id list, the rank directory that result
//!   collection reads ranges through equals the registry bit for bit, and
//!   the id bound an answer sizes its bitmap by is one past the largest
//!   id stored.
//! * **Stored sequences** (Eq. 3 / Theorem 1): every root-to-end-node path
//!   spells a constraint sequence that must satisfy `f2` and round-trip
//!   sequence → tree → sequence to an identical encoding.
//!
//! A violated invariant turns subsequence matches into *wrong answers*
//! rather than crashes — the worst failure mode for an index — so
//! [`verify_trie`] checks all of them and reports violations with
//! trie-node/serial coordinates.  [`XmlIndex::verify_integrity`] and
//! `Database::verify_integrity` are the public entry points; `repro
//! --verify` runs them over the XMark/DBLP/synthetic corpora.
//!
//! [`TrieView::link_lower_bound`]: crate::trie::TrieView::link_lower_bound
//! [`XmlIndex::verify_integrity`]: crate::XmlIndex::verify_integrity

use crate::trie::{rank_directory, SequenceTrie, TrieNodeId, TrieView, NIL};
use std::fmt::Write as _;
use xseq_sequence::{verify_sequence, Sequence, SequenceIssue, Strategy};
use xseq_xml::PathTable;

/// Which invariant a violation breaks, keyed to its paper source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InvariantClass {
    /// The trie has unfrozen insertions; labels and links are stale.
    NotFrozen,
    /// A parent does not precede its child in preorder, or a label range is
    /// not properly nested in its parent / overlaps a sibling (Figure 8).
    PreorderNesting,
    /// `n⊣` disagrees with a from-scratch subtree-extent recomputation.
    SubtreeExtent,
    /// A horizontal path link is not strictly sorted by serial, or an
    /// entry's cached label disagrees with the node's label (Figure 9).
    LinkOrder,
    /// A node is missing from (or duplicated in) the link of its own path.
    LinkCoverage,
    /// `embeds_identical` disagrees with recomputation (Definition 4).
    SiblingCover,
    /// The end-node registry disagrees with the document-id lists, or
    /// its rank directory with it.
    EndNodes,
    /// A stored sequence violates `f2` (Eq. 3).
    SequenceF2,
    /// A stored sequence fails the Theorem 1 round-trip.
    RoundTrip,
}

impl InvariantClass {
    /// Short machine-readable name.
    pub fn as_str(self) -> &'static str {
        match self {
            InvariantClass::NotFrozen => "not_frozen",
            InvariantClass::PreorderNesting => "preorder_nesting",
            InvariantClass::SubtreeExtent => "subtree_extent",
            InvariantClass::LinkOrder => "link_order",
            InvariantClass::LinkCoverage => "link_coverage",
            InvariantClass::SiblingCover => "sibling_cover",
            InvariantClass::EndNodes => "end_nodes",
            InvariantClass::SequenceF2 => "sequence_f2",
            InvariantClass::RoundTrip => "round_trip",
        }
    }

    /// Where in the paper the invariant comes from.
    pub fn paper_source(self) -> &'static str {
        match self {
            InvariantClass::NotFrozen => "Section 4.1 (index construction)",
            InvariantClass::PreorderNesting => "Section 4.1 step 2, Figure 8",
            InvariantClass::SubtreeExtent => "Section 4.1 step 2, Figure 8",
            InvariantClass::LinkOrder => "Section 4.1 step 3, Figure 9",
            InvariantClass::LinkCoverage => "Section 4.1 step 3, Figure 9",
            InvariantClass::SiblingCover => "Algorithm 1 / Definition 4",
            InvariantClass::EndNodes => "Section 4.1 step 1, Figure 7",
            InvariantClass::SequenceF2 => "Eq. 3 / Definition 2",
            InvariantClass::RoundTrip => "Theorem 1",
        }
    }
}

/// One invariant violation, located by trie-node/serial coordinates.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The broken invariant.
    pub class: InvariantClass,
    /// The trie node the violation anchors to, when one exists.
    pub node: Option<TrieNodeId>,
    /// The node's preorder serial `n⊢`, when labels are available.
    pub serial: Option<u32>,
    /// Human-readable specifics.
    pub detail: String,
}

impl Violation {
    fn render(&self) -> String {
        let mut out = format!("[{}]", self.class.as_str());
        if let Some(n) = self.node {
            let _ = write!(out, " node {n}");
        }
        if let Some(s) = self.serial {
            let _ = write!(out, " (serial {s})");
        }
        let _ = write!(out, ": {} — {}", self.detail, self.class.paper_source());
        out
    }
}

/// Result of an integrity pass: work counters plus the structured
/// violation list.
#[derive(Debug, Clone, Default)]
pub struct IntegrityReport {
    /// Trie nodes whose labels were checked (including the virtual root).
    pub nodes_checked: usize,
    /// Horizontal path links checked.
    pub links_checked: usize,
    /// Distinct stored sequences decoded and round-tripped.
    pub sequences_checked: usize,
    /// Violations found, capped at [`IntegrityReport::MAX_VIOLATIONS`].
    pub violations: Vec<Violation>,
    /// Violations beyond the cap (counted, not stored).
    pub suppressed: usize,
}

impl IntegrityReport {
    /// Upper bound on stored violations; the rest are only counted, so a
    /// corrupted index cannot balloon its own report.
    pub const MAX_VIOLATIONS: usize = 64;

    /// True when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.suppressed == 0
    }

    /// Total violations found, including suppressed ones.
    pub fn violation_count(&self) -> usize {
        self.violations.len() + self.suppressed
    }

    /// True when some violation of `class` was recorded.
    pub fn has(&self, class: InvariantClass) -> bool {
        self.violations.iter().any(|v| v.class == class)
    }

    fn push(&mut self, v: Violation) {
        if self.violations.len() < Self::MAX_VIOLATIONS {
            self.violations.push(v);
        } else {
            self.suppressed += 1;
        }
    }

    /// Folds another segment's report into this one — used by the
    /// two-segment (frozen + delta) verification paths so one report covers
    /// the whole index.  Work counters add; violations append up to
    /// [`IntegrityReport::MAX_VIOLATIONS`], the rest count as suppressed.
    pub fn merge(&mut self, other: IntegrityReport) {
        self.nodes_checked += other.nodes_checked;
        self.links_checked += other.links_checked;
        self.sequences_checked += other.sequences_checked;
        self.suppressed += other.suppressed;
        for v in other.violations {
            self.push(v);
        }
    }

    /// One-line outcome, e.g. for `explain()` output.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            format!(
                "clean ({} nodes, {} links, {} sequences)",
                self.nodes_checked, self.links_checked, self.sequences_checked
            )
        } else {
            format!(
                "{} violation(s) over {} nodes / {} links / {} sequences",
                self.violation_count(),
                self.nodes_checked,
                self.links_checked,
                self.sequences_checked
            )
        }
    }

    /// Multi-line report: summary plus one line per stored violation.
    pub fn render(&self) -> String {
        let mut out = format!("integrity: {}\n", self.summary());
        for v in &self.violations {
            let _ = writeln!(out, "  {}", v.render());
        }
        if self.suppressed > 0 {
            let _ = writeln!(
                out,
                "  … {} further violation(s) suppressed",
                self.suppressed
            );
        }
        out
    }
}

/// Verifies the frozen trie's labels, links, sibling-cover bookkeeping and
/// end-node registry — everything that can be checked without decoding
/// sequences.  Cheap enough for sampled post-query spot checks.
#[expect(clippy::indexing_slicing, reason = "ids are checked below n; tables have n entries")]
pub fn verify_trie_structure(trie: &SequenceTrie) -> IntegrityReport {
    let mut report = IntegrityReport::default();
    if !trie.is_frozen() {
        report.push(Violation {
            class: InvariantClass::NotFrozen,
            node: None,
            serial: None,
            detail: "insertions since the last freeze; labels and links are stale".into(),
        });
        return report;
    }
    let f = trie.frozen();
    let n = trie.node_count() + 1;
    report.nodes_checked = n;

    // Array shapes: the labels must cover every node exactly.
    if f.max_desc.len() != n || f.embeds_bits.len() != (n >> 6) + 1 {
        report.push(Violation {
            class: InvariantClass::PreorderNesting,
            node: None,
            serial: None,
            detail: format!(
                "label arrays cover {}/{} nodes of a trie of {n}",
                f.max_desc.len(),
                64 * f.embeds_bits.len()
            ),
        });
        return report; // indexing below would be unsound
    }

    // Preorder: node id ≡ serial, so the virtual root (serial 0) has no
    // parent and every other node's parent is a smaller id.
    let root = trie.root();
    for i in 0..n as TrieNodeId {
        let parent = trie.parent(i);
        if (i == root && parent != NIL) || (i != root && parent >= i) {
            report.push(Violation {
                class: InvariantClass::PreorderNesting,
                node: Some(i),
                serial: Some(i),
                detail: format!("parent {parent} does not precede node {i} in preorder"),
            });
        }
    }
    if !report.is_clean() {
        return report; // the parent walks below would be unsound
    }

    // Virtual root: range spanning the whole trie.
    let (rs, rm) = trie.label(root);
    if rm as usize != n - 1 {
        report.push(Violation {
            class: InvariantClass::PreorderNesting,
            node: Some(root),
            serial: Some(rs),
            detail: format!("root range ({rs}, {rm}) should be (0, {})", n - 1),
        });
    }

    // Per real node: self-consistency, nesting in the parent, disjoint
    // sibling ranges (children arrive in ascending serial, so each is
    // compared with its previous sibling), and the subtree extent
    // recomputed from the children.
    let mut extent: Vec<u32> = (0..n as u32).collect();
    let mut last_child = vec![NIL; n];
    for i in 1..n as TrieNodeId {
        let (s, m) = trie.label(i);
        let parent = trie.parent(i);
        let (ps, pm) = trie.label(parent);
        if s > m || (m as usize) >= n {
            report.push(Violation {
                class: InvariantClass::PreorderNesting,
                node: Some(i),
                serial: Some(s),
                detail: format!("degenerate range ({s}, {m})"),
            });
        } else if !(ps < s && m <= pm) {
            report.push(Violation {
                class: InvariantClass::PreorderNesting,
                node: Some(i),
                serial: Some(s),
                detail: format!("range ({s}, {m}) not nested in parent {parent}'s ({ps}, {pm})"),
            });
        }
        extent[parent as usize] = extent[parent as usize].max(m);
        let prev = std::mem::replace(&mut last_child[parent as usize], i);
        if prev != NIL && s <= trie.label(prev).1 {
            report.push(Violation {
                class: InvariantClass::PreorderNesting,
                node: Some(i),
                serial: Some(s),
                detail: format!("sibling ranges of nodes {prev} and {i} overlap"),
            });
        }
    }
    for i in 0..n as TrieNodeId {
        let (s, m) = trie.label(i);
        let extent = extent[i as usize];
        if extent != m {
            report.push(Violation {
                class: InvariantClass::SubtreeExtent,
                node: Some(i),
                serial: Some(s),
                detail: format!("n⊣ is {m} but the subtree extends to {extent}"),
            });
        }
    }

    // Path links: strict serial order, cached labels in agreement, and
    // exactly-once coverage of every real node under its own path.  An
    // entry's serial is the node it stands for.
    report.links_checked = f.links.len();
    let mut covered = vec![0u32; n];
    for (&path, entries) in &f.links {
        for w in entries.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            if a.serial >= b.serial {
                report.push(Violation {
                    class: InvariantClass::LinkOrder,
                    node: Some(b.serial),
                    serial: Some(b.serial),
                    detail: format!(
                        "link of path {path:?} not strictly ascending: {} then {}",
                        a.serial, b.serial
                    ),
                });
            }
        }
        for (idx, e) in entries.iter().enumerate() {
            let node = e.serial;
            if (node as usize) >= n {
                report.push(Violation {
                    class: InvariantClass::LinkCoverage,
                    node: Some(node),
                    serial: Some(node),
                    detail: format!("link of path {path:?} points outside the trie"),
                });
                continue;
            }
            covered[node as usize] += 1;
            let m = trie.label(node).1;
            if e.max_desc != m {
                report.push(Violation {
                    class: InvariantClass::LinkOrder,
                    node: Some(node),
                    serial: Some(node),
                    detail: format!(
                        "link entry caches ({node}, {}) but the node is labeled ({node}, {m})",
                        e.max_desc
                    ),
                });
            }
            if trie.path(node) != path {
                report.push(Violation {
                    class: InvariantClass::LinkCoverage,
                    node: Some(node),
                    serial: Some(node),
                    detail: format!(
                        "node carries path {:?} but sits in the link of {path:?}",
                        trie.path(node)
                    ),
                });
            }
            // Sibling-cover recomputation: with the link in ascending serial
            // order, the node embeds an identical-path node iff the next
            // entry starts inside its range.
            let expected = entries
                .get(idx + 1)
                .is_some_and(|next| next.serial <= e.max_desc && next.serial > node);
            let actual = TrieView::embeds_identical(trie, node);
            if actual != expected {
                report.push(Violation {
                    class: InvariantClass::SiblingCover,
                    node: Some(node),
                    serial: Some(node),
                    detail: format!(
                        "embeds_identical is {actual} but recomputation says {expected}"
                    ),
                });
            }
        }
    }
    for i in 1..n as TrieNodeId {
        let times = covered[i as usize];
        if times != 1 {
            report.push(Violation {
                class: InvariantClass::LinkCoverage,
                node: Some(i),
                serial: Some(i),
                detail: format!(
                    "node appears {times} times across the path links (expected exactly once)"
                ),
            });
        }
    }

    // End-node registry: strictly ascending nodes inside the trie, one
    // non-empty document-id list each, totalling the inserted sequence
    // count.
    for w in f.end_nodes.windows(2) {
        let (a, b) = (w[0], w[1]);
        if a >= b {
            report.push(Violation {
                class: InvariantClass::EndNodes,
                node: Some(b),
                serial: Some(b),
                detail: "end-node registry not strictly ascending by serial".into(),
            });
        }
    }
    let mut total_docs = 0usize;
    let mut end_count = 0usize;
    let mut id_bound = 0usize;
    for (node, docs) in trie.doc_lists() {
        total_docs += docs.len();
        end_count += 1;
        id_bound = docs
            .iter()
            .map(|&d| d as usize + 1)
            .fold(id_bound, usize::max);
        if docs.is_empty() || (node as usize) >= n {
            report.push(Violation {
                class: InvariantClass::EndNodes,
                node: Some(node),
                serial: Some(node),
                detail: "empty document-id list, or an end node outside the trie".into(),
            });
        }
    }
    if f.end_nodes.len() != end_count {
        report.push(Violation {
            class: InvariantClass::EndNodes,
            node: None,
            serial: None,
            detail: format!(
                "registry lists {} end nodes but {} carry documents",
                f.end_nodes.len(),
                end_count
            ),
        });
    }
    // The rank directory must be exactly what freeze derives from the
    // registry: a wrong bit or count misplaces every answer past it.
    let (bits, rank) = rank_directory(&f.end_nodes, n);
    let differs = |w| bits.get(w) != f.end_bits.get(w) || rank.get(w) != f.end_rank.get(w);
    let words = bits.len().max(f.end_bits.len()).max(f.end_rank.len());
    if let Some(w) = (0..words).find(|&w| differs(w)) {
        // anchored at the first serial whose bit differs, else at the word
        let pair = bits.get(w).zip(f.end_bits.get(w)).filter(|(a, b)| a != b);
        let serial = (w * 64) as u32 + pair.map_or(0, |(a, b)| (a ^ b).trailing_zeros());
        report.push(Violation {
            class: InvariantClass::EndNodes,
            node: Some(serial),
            serial: Some(serial),
            detail: format!("rank directory word {w} disagrees with the end-node registry"),
        });
    }
    // An answer sizes its bitmap from the bound before reading an id.
    if f.id_bound != id_bound {
        report.push(Violation {
            class: InvariantClass::EndNodes,
            node: None,
            serial: None,
            detail: format!(
                "id bound {} but the document ids stored need {id_bound}",
                f.id_bound
            ),
        });
    }
    if total_docs != trie.sequence_count() {
        report.push(Violation {
            class: InvariantClass::EndNodes,
            node: None,
            serial: None,
            detail: format!(
                "{} document ids stored but {} sequences were inserted",
                total_docs,
                trie.sequence_count()
            ),
        });
    }
    report
}

/// Full verification: [`verify_trie_structure`] plus the sequence-level
/// checks — every distinct stored constraint sequence (one per end node,
/// reconstructed from its root path) must satisfy `f2` and round-trip
/// through the Theorem 1 decoder under `strategy`.
pub fn verify_trie(trie: &SequenceTrie, paths: &PathTable, strategy: &Strategy) -> IntegrityReport {
    let mut report = verify_trie_structure(trie);
    if report.has(InvariantClass::NotFrozen) {
        return report;
    }
    for (end, docs) in trie.doc_lists() {
        if end as usize > trie.node_count() {
            continue; // reported by the structure pass; nothing to walk
        }
        // The stored sequence is the root-to-end-node path of the trie.
        let mut elems = Vec::new();
        let mut cur = end;
        while cur != NIL && cur != trie.root() {
            elems.push(trie.path(cur));
            cur = trie.parent(cur);
        }
        elems.reverse();
        let seq = Sequence(elems);
        report.sequences_checked += 1;
        if let Err(issue) = verify_sequence(&seq, paths, strategy) {
            let class = match issue {
                SequenceIssue::NotF2(_) | SequenceIssue::MultisetMismatch { .. } => {
                    InvariantClass::SequenceF2
                }
                SequenceIssue::ReencodeMismatch { .. }
                | SequenceIssue::StructuralMismatch
                | SequenceIssue::UnknownPath => InvariantClass::RoundTrip,
            };
            report.push(Violation {
                class,
                node: Some(end),
                serial: Some(end),
                detail: format!(
                    "stored sequence of {} element(s), docs {docs:?}: {issue}",
                    seq.len()
                ),
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use xseq_xml::{PathId, Symbol, SymbolTable, ValueMode};

    fn seq_of(st: &mut SymbolTable, pt: &mut PathTable, specs: &[&str]) -> Sequence {
        Sequence(
            specs
                .iter()
                .map(|spec| {
                    let syms: Vec<Symbol> = spec.split('.').map(|s| st.elem(s)).collect();
                    pt.intern(&syms)
                })
                .collect(),
        )
    }

    fn df_trie(sequences: &[&[&str]]) -> (SequenceTrie, PathTable, SymbolTable) {
        let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
        let mut pt = PathTable::new();
        let mut trie = SequenceTrie::new();
        for (d, specs) in sequences.iter().enumerate() {
            let s = seq_of(&mut st, &mut pt, specs);
            trie.insert(&s, d as u32);
        }
        trie.freeze();
        (trie, pt, st)
    }

    #[test]
    fn clean_trie_verifies_clean() {
        let (trie, pt, _st) = df_trie(&[
            &["P", "P.A", "P.A.X"],
            &["P", "P.A", "P.A.Y"],
            &["P", "P.B"],
        ]);
        let report = verify_trie(&trie, &pt, &Strategy::DepthFirst);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.sequences_checked, 3);
        assert!(report.links_checked > 0);
    }

    #[test]
    fn empty_trie_verifies_clean() {
        let mut trie = SequenceTrie::new();
        trie.freeze();
        let pt = PathTable::new();
        let report = verify_trie(&trie, &pt, &Strategy::DepthFirst);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.nodes_checked, 1, "just the virtual root");
        assert_eq!(report.sequences_checked, 0);
    }

    #[test]
    fn unfrozen_trie_reports_not_frozen() {
        let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
        let mut pt = PathTable::new();
        let mut trie = SequenceTrie::new();
        let s = seq_of(&mut st, &mut pt, &["P"]);
        trie.insert(&s, 0);
        let report = verify_trie(&trie, &pt, &Strategy::DepthFirst);
        assert!(report.has(InvariantClass::NotFrozen));
        assert_eq!(report.violation_count(), 1);
    }

    #[test]
    fn swapped_link_serials_detected_as_link_order() {
        let (mut trie, pt, _st) = df_trie(&[&["P", "P.A", "P.A.X", "P.A"], &["P", "P.B"]]);
        // Find a link with ≥2 entries and swap the serials of its first two.
        let f = trie.corrupt_frozen().unwrap();
        let link = f
            .links
            .values_mut()
            .find(|v| v.len() >= 2)
            .expect("P.A has two trie nodes");
        let (a, b) = (link[0].serial, link[1].serial);
        link[0].serial = b;
        link[1].serial = a;
        let report = verify_trie(&trie, &pt, &Strategy::DepthFirst);
        assert!(report.has(InvariantClass::LinkOrder), "{}", report.render());
    }

    #[test]
    fn widened_child_range_detected() {
        let (mut trie, _pt, _st) = df_trie(&[&["P", "P.A"], &["P", "P.B"]]);
        let f = trie.corrupt_frozen().unwrap();
        // Widen a leaf's range past its parent's.
        let leaf = f
            .max_desc
            .iter()
            .enumerate()
            .skip(1)
            .find(|&(i, &m)| i as u32 == m)
            .map(|(i, _)| i)
            .expect("some leaf exists");
        f.max_desc[leaf] = f.max_desc.len() as u32 + 10;
        let report = verify_trie_structure(&trie);
        assert!(
            report.has(InvariantClass::PreorderNesting)
                || report.has(InvariantClass::SubtreeExtent),
            "{}",
            report.render()
        );
    }

    #[test]
    fn wrong_id_bound_detected() {
        let (mut trie, _pt, _st) = df_trie(&[&["P", "P.A"], &["P", "P.B"]]);
        assert_eq!(trie.frozen().id_bound, 2);
        trie.corrupt_frozen().unwrap().id_bound = 1;
        let report = verify_trie_structure(&trie);
        assert!(report.has(InvariantClass::EndNodes), "{}", report.render());
    }

    #[test]
    fn flipped_embeds_flag_detected() {
        let (mut trie, pt, _st) = df_trie(&[&["P", "P.A", "P.A.X"]]);
        let f = trie.corrupt_frozen().unwrap();
        f.embeds_bits[0] ^= 1 << 1;
        let report = verify_trie(&trie, &pt, &Strategy::DepthFirst);
        assert!(
            report.has(InvariantClass::SiblingCover),
            "{}",
            report.render()
        );
    }

    #[test]
    fn flipped_designator_detected_in_stored_sequence() {
        let (mut trie, mut pt, mut st) = df_trie(&[&["P", "P.A", "P.A.X"]]);
        // Flip the end node's path to an unrelated deep path: the stored
        // sequence loses the P.A.X element and gains one whose parent
        // never occurs.
        let bogus = {
            let q = st.elem("Q");
            let r = st.elem("R");
            pt.intern(&[q, r])
        };
        // End node is the deepest node on the only branch.
        let end = trie.doc_lists().next().unwrap().0;
        trie.corrupt_set_path(end, bogus);
        let report = verify_trie(&trie, &pt, &Strategy::DepthFirst);
        assert!(
            report.has(InvariantClass::SequenceF2) || report.has(InvariantClass::LinkCoverage),
            "{}",
            report.render()
        );
    }

    #[test]
    fn report_caps_and_renders() {
        let mut report = IntegrityReport::default();
        for i in 0..(IntegrityReport::MAX_VIOLATIONS + 5) {
            report.push(Violation {
                class: InvariantClass::LinkOrder,
                node: Some(i as TrieNodeId),
                serial: Some(i as u32),
                detail: "x".into(),
            });
        }
        assert_eq!(report.violations.len(), IntegrityReport::MAX_VIOLATIONS);
        assert_eq!(report.suppressed, 5);
        assert!(!report.is_clean());
        assert!(report.render().contains("suppressed"));
        assert!(report.summary().contains("violation"));
        let _ = PathId::ROOT; // keep the import earning its place
    }
}
