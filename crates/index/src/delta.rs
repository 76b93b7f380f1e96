//! LSM-tiered update overlay: **memtable → frozen runs → merged tiers**,
//! plus **tombstones**.
//!
//! The paper's index is built once over a static corpus — preorder ranges
//! `(n⊢, n⊣)` and horizontal path links are assigned at freeze time — so a
//! live system cannot mutate the frozen trie in place without re-deriving
//! every label.  Updates instead flow through a tiered segment list,
//! following the op-log/run-segment idiom of LSM trees:
//!
//! * **Inserts** append `(sequence, doc)` pairs to a raw **memtable** — an
//!   `O(1)` amortized push, no trie work at all.  When the memtable reaches
//!   `memtable_limit` entries it is *cut*: its sequences become a frozen
//!   tier-0 run (a small [`SequenceTrie`] built like the main
//!   segment — sorted run, preorder nodes, labels and path links — with its
//!   own preorder-range space), and the memtable restarts empty.  A run
//!   keeps no raw sequences: by Theorem 1 its trie *is* its sequences, and
//!   `SequenceTrie::stored` reads them back from the end nodes.
//! * **Merges** fire when a tier accumulates `tier_ratio` runs: the runs'
//!   stored sequences are concatenated oldest run first — dropping documents
//!   tombstoned at merge time (*tombstone resolution*) — and rebuilt as a
//!   single run one tier up (the freeze sorts stably, so equal sequences
//!   keep their documents in arrival order).  [`TieredDelta::maybe_merge`]
//!   takes the due tier's runs out of the list and puts the merged run
//!   where the first of them stood, so the run count stays logarithmic in
//!   the update volume.
//! * **Removes** record the document id in the [`Tombstones`] set;
//!   matches are filtered once per query, when every segment has added its
//!   documents into the query's one [`Answer`](crate::search::Answer) and
//!   [`Answer::finish`](crate::search::Answer::finish) drops the
//!   tombstoned ids.  Tombstones are never drained by merges —
//!   only full compaction clears them — so a tombstoned id stays invisible
//!   even while older runs still carry it.
//!
//! Queries call [`TieredDelta::delta_view`] once and hold a [`DeltaView`]
//! that *borrows* the overlay: the run list and the memtable's frozen
//! view, built by the first reader after a write and shared by every
//! reader after it.  The overlay has one writer — every mutation takes
//! `&mut self` — so while any view is alive the borrow checker rules out a
//! write, and a query sees one consistent segment set: never a torn list,
//! never a document in two tiers.  Queries run over *frozen ∪ segments −
//! tombstones*; each segment is searched with the identical query sequence
//! (the strategy and path table are shared), so no false alarms and no
//! false dismissals are introduced.
//!
//! Compaction (`Database::compact` in `xseq-core`) folds the overlay back
//! into a single frozen segment by replaying the build over the surviving
//! documents and swapping in a fresh, empty overlay — see DESIGN.md §11/§16
//! for why that is bit-identical to a from-scratch rebuild.
//!
//! `tests/merge_runs.rs` checks cuts, merges and removes step by step
//! against a bulk load of the live documents.

use crate::trie::SequenceTrie;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use xseq_sequence::Sequence;
use xseq_telemetry::HeapSize;
use xseq_xml::DocId;

/// Default memtable cut threshold (raw sequences per tier-0 run).
pub const DEFAULT_MEMTABLE_LIMIT: usize = 64;

/// Default per-tier fan-in: a tier holding this many runs merges into one
/// run a tier up.
pub const DEFAULT_TIER_RATIO: usize = 4;

/// One frozen run of the tiered overlay: a frozen trie (labels + path links
/// valid, hence queryable through the same
/// [`TrieView`](crate::trie::TrieView) search paths as the main segment) and
/// its tier.  The trie is the run's only copy of its sequences.
#[derive(Debug)]
struct DeltaRun {
    trie: SequenceTrie,
    /// 0 = freshly cut memtable; every merge outputs one tier up.
    tier: u32,
}

/// The lowest tier holding at least `ratio` runs — the one the next merge
/// folds, so merges cascade upward.
fn due_tier(runs: &[DeltaRun], ratio: usize) -> Option<u32> {
    let mut counts: Vec<(u32, usize)> = Vec::new();
    for run in runs {
        match counts.iter_mut().find(|(t, _)| *t == run.tier) {
            Some((_, n)) => *n += 1,
            None => counts.push((run.tier, 1)),
        }
    }
    counts
        .into_iter()
        .filter(|&(_, n)| n >= ratio)
        .map(|(t, _)| t)
        .min()
}

/// Builds a frozen trie over raw sequences — a memtable view or a run —
/// the way every trie is built ([`SequenceTrie::freeze`]).
fn build_trie(seqs: Vec<(Sequence, DocId)>) -> SequenceTrie {
    let mut trie = SequenceTrie::new();
    trie.bulk_load(seqs);
    trie.freeze();
    trie
}

/// A borrowed view of the overlay's segment set.
///
/// It borrows the overlay, so no write can land while it is held.
/// Segments iterate oldest run first, memtable view last.
#[derive(Debug, Clone, Copy)]
pub struct DeltaView<'a> {
    runs: &'a [DeltaRun],
    mem: Option<&'a SequenceTrie>,
}

impl<'a> DeltaView<'a> {
    /// Number of searchable segments (runs plus a non-empty memtable).
    pub fn segment_count(&self) -> usize {
        self.runs.len() + usize::from(self.mem.is_some())
    }

    /// True when the overlay holds no sequences.
    pub fn is_empty(&self) -> bool {
        self.segment_count() == 0
    }

    /// The frozen segment tries, oldest run first, memtable view last.
    pub fn segments(&self) -> impl Iterator<Item = &'a SequenceTrie> {
        self.runs.iter().map(|r| &r.trie).chain(self.mem)
    }
}

/// Summary of one completed tier merge, for telemetry and the flight
/// recorder (`compact.tier.*` events).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeOutcome {
    /// Tier of the merged output run.
    pub tier: u32,
    /// Number of input runs folded.
    pub runs_merged: usize,
    /// Raw sequences read from the inputs.
    pub docs_in: usize,
    /// Sequences dropped by tombstone resolution.
    pub docs_dropped: usize,
}

/// The tiered overlay holding post-build insertions and removals.
///
/// Single-writer: [`insert`](TieredDelta::insert),
/// [`remove`](TieredDelta::remove) and
/// [`maybe_merge`](TieredDelta::maybe_merge) take `&mut self`, readers take
/// `&self`.  The one piece of synchronisation is the memtable view's
/// `OnceLock`, which lets concurrent readers (`query_batch`) share one
/// lazily built trie.
#[derive(Debug)]
pub struct TieredDelta {
    /// Raw `(sequence, doc)` pairs not yet cut into a run.
    mem: Vec<(Sequence, DocId)>,
    /// The memtable's frozen view: reset by every insert, built by the
    /// first reader after it.
    mem_view: OnceLock<SequenceTrie>,
    /// Frozen runs, oldest first.
    runs: Vec<DeltaRun>,
    tombs: Tombstones,
    memtable_limit: AtomicUsize,
    tier_ratio: AtomicUsize,
}

impl Default for TieredDelta {
    fn default() -> Self {
        TieredDelta::new()
    }
}

impl TieredDelta {
    /// An empty overlay with the default `memtable_limit`/`tier_ratio`.
    pub fn new() -> Self {
        TieredDelta {
            mem: Vec::new(),
            mem_view: OnceLock::new(),
            runs: Vec::new(),
            tombs: Tombstones::new(),
            memtable_limit: AtomicUsize::new(DEFAULT_MEMTABLE_LIMIT),
            tier_ratio: AtomicUsize::new(DEFAULT_TIER_RATIO),
        }
    }

    /// Reconfigures the cut threshold and per-tier fan-in (clamped to ≥ 1
    /// and ≥ 2 respectively).  Takes effect from the next insert/merge.
    pub fn configure(&self, memtable_limit: usize, tier_ratio: usize) {
        // ORDERING: config — tuning knobs; readers tolerate staleness
        self.memtable_limit
            .store(memtable_limit.max(1), Ordering::Relaxed);
        // ORDERING: config — same knob pair as above
        self.tier_ratio.store(tier_ratio.max(2), Ordering::Relaxed);
    }

    /// The configured memtable cut threshold.
    pub fn memtable_limit(&self) -> usize {
        // ORDERING: config — tuning knob; staleness acceptable
        self.memtable_limit.load(Ordering::Relaxed).max(1)
    }

    /// The configured per-tier merge fan-in.
    pub fn tier_ratio(&self) -> usize {
        // ORDERING: config — tuning knob; staleness acceptable
        self.tier_ratio.load(Ordering::Relaxed).max(2)
    }

    /// Appends one constraint sequence — an `O(1)` amortized memtable push.
    /// Crossing `memtable_limit` cuts the memtable into a frozen tier-0 run
    /// (`O(memtable_limit)`, amortized constant per insert).
    pub fn insert(&mut self, seq: Sequence, doc: DocId) {
        self.mem.push((seq, doc));
        self.mem_view.take();
        if self.mem.len() >= self.memtable_limit() {
            let trie = build_trie(std::mem::take(&mut self.mem));
            self.runs.push(DeltaRun { trie, tier: 0 });
        }
    }

    /// Tombstones `id`.  Returns `false` when it was already tombstoned.
    pub fn remove(&mut self, id: DocId) -> bool {
        self.tombs.insert(id)
    }

    /// The tombstone set.
    pub fn tombstones(&self) -> &Tombstones {
        &self.tombs
    }

    /// A borrowed view of the segment set.  Builds the memtable's frozen
    /// view when the memtable is dirty — bounded by `memtable_limit`
    /// sequences — once, for every reader until the next insert.
    pub fn delta_view(&self) -> DeltaView<'_> {
        let mem = (!self.mem.is_empty())
            .then(|| self.mem_view.get_or_init(|| build_trie(self.mem.clone())));
        DeltaView {
            runs: &self.runs,
            mem,
        }
    }

    /// Attempts one tier merge: picks the lowest tier holding at least
    /// `tier_ratio` runs, folds *all* of that tier's runs into one run a
    /// tier up (dropping tombstoned documents), and puts it where the first
    /// of them stood.  Returns `None` when no tier is due; call in a loop
    /// to cascade merges up the tiers.
    pub fn maybe_merge(&mut self) -> Option<MergeOutcome> {
        let tier = due_tier(&self.runs, self.tier_ratio())?;
        let at = self.runs.iter().position(|r| r.tier == tier)?;
        let (due, rest): (Vec<DeltaRun>, Vec<DeltaRun>) = std::mem::take(&mut self.runs)
            .into_iter()
            .partition(|r| r.tier == tier);
        self.runs = rest;
        let docs_in: usize = due.iter().map(|r| r.trie.sequence_count()).sum();
        // Oldest run first, each run's stored pairs in (sequence, arrival)
        // order: the stable sort in `freeze` then keeps equal sequences'
        // documents in arrival order across the whole merge.
        let survivors: Vec<(Sequence, DocId)> = due
            .iter()
            .flat_map(|run| run.trie.stored())
            .filter(|(_, doc)| !self.tombs.contains(*doc))
            .collect();
        let docs_dropped = docs_in - survivors.len();
        if !survivors.is_empty() {
            let trie = build_trie(survivors);
            self.runs.insert(
                at,
                DeltaRun {
                    trie,
                    tier: tier + 1,
                },
            );
        }
        Some(MergeOutcome {
            tier: tier + 1,
            runs_merged: due.len(),
            docs_in,
            docs_dropped,
        })
    }

    /// True when no sequence is held in any segment.
    pub fn is_empty(&self) -> bool {
        self.sequence_count() == 0
    }

    /// Number of sequences across every segment (memtable + all runs).
    /// Merges may shrink this when they resolve tombstones.
    pub fn sequence_count(&self) -> usize {
        self.mem.len()
            + (self.runs.iter())
                .map(|r| r.trie.sequence_count())
                .sum::<usize>()
    }

    /// Number of frozen runs (excluding the memtable).
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// True when some tier holds at least `tier_ratio` runs, i.e. the next
    /// [`TieredDelta::maybe_merge`] has work to do.
    pub fn merge_due(&self) -> bool {
        due_tier(&self.runs, self.tier_ratio()).is_some()
    }

    /// Total trie nodes across every segment (building the memtable view if
    /// it is stale) — the delta half of the Figure 14 size metric.
    pub fn node_count(&self) -> usize {
        self.delta_view()
            .segments()
            .map(SequenceTrie::node_count)
            .sum()
    }
}

/// Heap attribution for the tiered overlay: memtable raw sequences, the
/// cached memtable view, every run's trie, and the tombstone set.
impl HeapSize for TieredDelta {
    fn heap_bytes(&self) -> usize {
        self.mem.heap_bytes()
            + self.mem_view.get().map_or(0, |v| v.heap_bytes())
            + self.runs.capacity() * std::mem::size_of::<DeltaRun>()
            + (self.runs.iter())
                .map(|r| r.trie.heap_bytes())
                .sum::<usize>()
            + self.tombs.heap_bytes()
    }
}

/// The set of removed document ids, filtered out of every query result.
///
/// Kept as a sorted vector: tombstone sets stay small (compaction drains
/// them), membership is a binary search, and the sorted order makes the
/// result-filter merge-friendly.
#[derive(Debug, Clone, Default)]
pub struct Tombstones {
    ids: Vec<DocId>,
}

impl Tombstones {
    /// An empty tombstone set.
    pub fn new() -> Self {
        Tombstones::default()
    }

    /// Records `id` as removed.  Returns `false` when it was already
    /// tombstoned (the set is idempotent).
    pub fn insert(&mut self, id: DocId) -> bool {
        match self.ids.binary_search(&id) {
            Ok(_) => false,
            Err(pos) => {
                self.ids.insert(pos, id);
                true
            }
        }
    }

    /// True when `id` has been removed.
    pub fn contains(&self, id: DocId) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// Number of tombstoned documents.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when nothing has been removed.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The tombstoned ids, ascending.
    pub fn ids(&self) -> &[DocId] {
        &self.ids
    }
}

/// Heap attribution for the tombstone set: its sorted id vector.
impl HeapSize for Tombstones {
    fn heap_bytes(&self) -> usize {
        self.ids.capacity() * std::mem::size_of::<DocId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xseq_xml::PathId;

    /// One of three two-element shapes, so runs share and split trie paths.
    #[expect(clippy::integer_division_remainder_used, reason = "the divisor is the literal 3")]
    fn seq_for(id: DocId) -> Sequence {
        Sequence(vec![PathId(1), PathId(2 + id % 3)])
    }

    /// Every document id a snapshot's segments hold, with repeats, sorted.
    fn docs_of(view: &DeltaView) -> Vec<DocId> {
        let mut out = Vec::new();
        for trie in view.segments() {
            let (lo, hi) = trie.root_range();
            trie.collect_docs_in_range(lo, hi, &mut out);
        }
        out.sort_unstable();
        out
    }

    fn filled(ids: std::ops::Range<DocId>) -> TieredDelta {
        let mut delta = TieredDelta::new();
        delta.configure(2, 2);
        for id in ids {
            delta.insert(seq_for(id), id);
        }
        delta
    }

    #[test]
    fn empty_delta_is_frozen_and_queryable() {
        let delta = TieredDelta::new();
        assert!(delta.is_empty());
        assert!(delta.delta_view().is_empty());
        assert_eq!(delta.delta_view().segment_count(), 0);
        assert!(docs_of(&delta.delta_view()).is_empty());
    }

    #[test]
    fn insert_keeps_every_segment_frozen() {
        let mut delta = TieredDelta::new();
        delta.configure(2, 2);
        for id in 0..5u32 {
            delta.insert(seq_for(id), id);
            let view = delta.delta_view();
            for (i, seg) in view.segments().enumerate() {
                assert!(seg.is_frozen(), "segment {i} after insert {id}");
            }
        }
        assert_eq!(delta.sequence_count(), 5);
        assert_eq!(docs_of(&delta.delta_view()), vec![0, 1, 2, 3, 4]);
        assert!(delta.run_count() >= 2, "limit 2 must have cut runs");
    }

    #[test]
    fn memtable_cuts_at_the_limit_and_merges_cascade() {
        let mut delta = filled(0..8);
        // 8 inserts at limit 2 -> 4 tier-0 runs, memtable empty.
        assert_eq!(delta.run_count(), 4);
        assert_eq!(delta.delta_view().segments().count(), 4);
        // Ratio 2: the first merge folds all four tier-0 runs into tier 1.
        let m = delta.maybe_merge().expect("tier 0 is due");
        assert_eq!(
            (m.tier, m.runs_merged, m.docs_in, m.docs_dropped),
            (1, 4, 8, 0)
        );
        assert_eq!(delta.run_count(), 1);
        assert!(delta.maybe_merge().is_none(), "single run: nothing due");
        assert_eq!(docs_of(&delta.delta_view()), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn merges_resolve_tombstones_but_keep_the_set() {
        let mut delta = filled(0..4);
        assert!(delta.remove(1));
        assert!(!delta.remove(1), "double remove is a no-op");
        let m = delta.maybe_merge().expect("tier 0 is due");
        assert_eq!(m.docs_dropped, 1);
        assert_eq!(
            docs_of(&delta.delta_view()),
            vec![0, 2, 3],
            "1 resolved out of the runs"
        );
        assert!(
            delta.tombstones().contains(1),
            "merges must not drain the tombstone set"
        );
        assert_eq!(delta.sequence_count(), 3);
    }

    #[test]
    fn readers_share_one_memtable_view_until_the_next_insert() {
        let mut delta = TieredDelta::new();
        delta.configure(8, 2);
        delta.insert(seq_for(0), 0);
        let first = delta
            .delta_view()
            .segments()
            .next()
            .expect("dirty memtable");
        let again = delta
            .delta_view()
            .segments()
            .next()
            .expect("dirty memtable");
        assert!(
            std::ptr::eq(first, again),
            "the second reader rebuilt the view"
        );
        delta.insert(seq_for(1), 1);
        assert_eq!(docs_of(&delta.delta_view()), vec![0, 1], "the insert shows");
    }

    #[test]
    fn racing_first_readers_build_the_memtable_view_once() {
        let mut delta = TieredDelta::new();
        delta.configure(8, 2);
        for id in 0..3 {
            delta.insert(seq_for(id), id);
        }
        let (delta, start) = (&delta, std::sync::Barrier::new(4));
        // All four wait, then ask for the view at once.  Addresses, not
        // pointers: a raw pointer cannot leave its thread.
        let first_segment = || {
            start.wait();
            delta
                .delta_view()
                .segments()
                .next()
                .map(|t| t as *const _ as usize)
        };
        let views: Vec<Option<usize>> = std::thread::scope(|s| {
            let readers: Vec<_> = (0..4).map(|_| s.spawn(first_segment)).collect();
            readers
                .into_iter()
                .map(|r| r.join().expect("reader panicked"))
                .collect()
        });
        assert!(views[0].is_some(), "dirty memtable");
        assert!(views.windows(2).all(|w| w[0] == w[1]), "{views:?}");
    }

    #[test]
    fn tombstones_are_sorted_and_idempotent() {
        let mut t = Tombstones::new();
        assert!(t.insert(7));
        assert!(t.insert(2));
        assert!(!t.insert(7), "double-remove is a no-op");
        assert_eq!(t.ids(), &[2, 7]);
        assert!(t.contains(2) && t.contains(7) && !t.contains(3));
        assert_eq!(t.len(), 2);
    }
}
