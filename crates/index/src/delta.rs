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
//!   builds the merged run entirely *outside* the segment-list lock and
//!   splices it in with a single `Arc` swap, validated by pointer identity
//!   against the candidate runs (a racing second merger aborts), so the run
//!   count stays logarithmic in the update volume without ever blocking
//!   readers.
//! * **Removes** record the document id in a copy-on-write [`Tombstones`]
//!   set; matches are filtered at result-collection time
//!   ([`filter_tombstones`](crate::search::filter_tombstones)), after the
//!   per-segment searches union.  Tombstones are never drained by merges —
//!   only full compaction clears them — so a tombstoned id stays invisible
//!   even while older runs still carry it.
//!
//! Queries call [`TieredDelta::delta_view`] once and hold an
//! **epoch-stamped immutable snapshot**: the run list is published as an
//! `Arc` swapped under a mutex, the memtable is served through a lazily
//! built (and cached) frozen view, and a monotonically increasing epoch
//! stamps every snapshot.  An in-flight query therefore always sees a
//! consistent segment set — never a torn list, never a document in two
//! tiers — while background merges swap runs underneath.  Queries run over
//! *frozen ∪ segments − tombstones*; each segment is searched with the
//! identical query sequence (the strategy and path table are shared), so no
//! false alarms and no false dismissals are introduced.
//!
//! Compaction (`Database::compact` in `xseq-core`) folds the overlay back
//! into a single frozen segment by replaying the build over the surviving
//! documents and swapping in a fresh, empty overlay — see DESIGN.md §11/§16
//! for why that is bit-identical to a from-scratch rebuild.
//!
//! `tests/sched_tiers.rs` model-checks the overlay on the
//! `xseq-telemetry::sched` deterministic interleaving enumerator (the
//! harness the exec pool's chunk queue is checked on): scripted per-thread
//! op lists — inserts, removes, queries, merges, compactions — run under
//! every (or a seeded sample of) arrival orders against a reference set
//! model, with per-query invariants for torn segment sets, dropped
//! tombstones and double-visible documents.

use crate::trie::SequenceTrie;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use xseq_sequence::Sequence;
use xseq_xml::DocId;

/// Default memtable cut threshold (raw sequences per tier-0 run).
pub const DEFAULT_MEMTABLE_LIMIT: usize = 64;

/// Default per-tier fan-in: a tier holding this many runs merges into one
/// run a tier up.
pub const DEFAULT_TIER_RATIO: usize = 4;

/// One immutable frozen run of the tiered overlay: a frozen trie (labels +
/// path links valid, hence queryable through the same
/// [`TrieView`](crate::trie::TrieView) search paths as the main segment) and
/// its tier.  The trie is the run's only copy of its sequences.
#[derive(Debug)]
struct DeltaRun {
    trie: SequenceTrie,
    /// 0 = freshly cut memtable; every merge outputs one tier up.
    tier: u32,
}

/// The published run list — immutable once behind its `Arc`; every
/// mutation clones and swaps (copy-on-write), so snapshot holders keep a
/// consistent list.
#[derive(Debug, Clone, Default)]
struct TierList {
    runs: Vec<Arc<DeltaRun>>,
}

impl TierList {
    /// The lowest tier holding at least `ratio` runs — the one the next
    /// merge folds, so merges cascade upward.
    fn due_tier(&self, ratio: usize) -> Option<u32> {
        let mut counts: Vec<(u32, usize)> = Vec::new();
        for run in &self.runs {
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
}

/// The mutable raw-sequence head of the overlay plus its cached frozen
/// view.  The view is invalidated (set to `None`) by every insert and
/// rebuilt lazily on the next snapshot, so a burst of inserts pays for at
/// most one rebuild — bounded by `memtable_limit` — when queried.
#[derive(Debug, Default)]
struct Memtable {
    seqs: Vec<(Sequence, DocId)>,
    view: Option<Arc<SequenceTrie>>,
}

/// Builds a frozen trie over raw sequences — a memtable view or a run —
/// the way every trie is built ([`SequenceTrie::freeze`]).
fn build_mem_view(seqs: Vec<(Sequence, DocId)>) -> SequenceTrie {
    let mut trie = SequenceTrie::new();
    trie.bulk_load(seqs);
    trie.freeze();
    trie
}

/// An epoch-stamped immutable snapshot of the overlay's segment set.
///
/// Holding a view pins every segment (`Arc`s), so queries keep a consistent
/// set while merges swap runs underneath.  Segments iterate oldest run
/// first, memtable view last.
#[derive(Debug, Clone)]
pub struct DeltaView {
    epoch: u64,
    tiers: Arc<TierList>,
    mem: Option<Arc<SequenceTrie>>,
}

impl DeltaView {
    /// The overlay epoch at (or just after) snapshot time.  Epochs increase
    /// monotonically with every overlay mutation; two views with equal
    /// epochs observed no intervening mutation.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of searchable segments (runs plus a non-empty memtable).
    pub fn segment_count(&self) -> usize {
        self.tiers.runs.len() + usize::from(self.mem.is_some())
    }

    /// True when the overlay held no sequences at snapshot time.
    pub fn is_empty(&self) -> bool {
        self.segment_count() == 0
    }

    /// The frozen segment tries, oldest run first, memtable view last.
    pub fn segments(&self) -> impl Iterator<Item = &SequenceTrie> {
        self.tiers
            .runs
            .iter()
            .map(|r| &r.trie)
            .chain(self.mem.as_deref())
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

/// The tiered mutable overlay holding post-build insertions and removals.
///
/// Interior-mutable (`&self` throughout): queries, the single writer and a
/// background merge worker share one instance through an `Arc`.  Lock
/// discipline: the three internal mutexes (`mem`, `tiers`, `tombs`) are
/// leaves — no two are ever held at once, and nothing is called while one
/// is held — so the overlay can never participate in a lock cycle.
#[derive(Debug)]
pub struct TieredDelta {
    mem: Mutex<Memtable>,
    tiers: Mutex<Arc<TierList>>,
    tombs: Mutex<Arc<Tombstones>>,
    /// Monotonic mutation stamp; snapshot consistency is carried by the
    /// `Arc` swaps under `tiers`, the epoch only *names* states.
    epoch: AtomicU64,
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
            mem: Mutex::new(Memtable::default()),
            tiers: Mutex::new(Arc::new(TierList::default())),
            tombs: Mutex::new(Arc::new(Tombstones::new())),
            epoch: AtomicU64::new(0),
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

    /// The current overlay epoch (bumped by every mutation).
    pub fn epoch(&self) -> u64 {
        // ORDERING: counter — monotonic stamp; data is published by the
        // mutexes, the epoch only names states for snapshot comparison
        self.epoch.load(Ordering::Relaxed)
    }

    fn bump_epoch(&self) {
        // ORDERING: counter — see `epoch`
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Appends one constraint sequence — an `O(1)` amortized memtable push.
    /// Crossing `memtable_limit` cuts the memtable into a frozen tier-0 run
    /// (`O(memtable_limit)`, amortized constant per insert).
    pub fn insert(&self, seq: Sequence, doc: DocId) {
        let limit = self.memtable_limit();
        let cut = {
            let mut mem = self.mem.lock().unwrap_or_else(|p| p.into_inner());
            mem.seqs.push((seq, doc));
            mem.view = None;
            if mem.seqs.len() >= limit {
                Some(std::mem::take(&mut mem.seqs))
            } else {
                None
            }
        };
        if let Some(seqs) = cut {
            let run = Arc::new(DeltaRun {
                trie: build_mem_view(seqs),
                tier: 0,
            });
            let mut tiers = self.tiers.lock().unwrap_or_else(|p| p.into_inner());
            Arc::make_mut(&mut tiers).runs.push(run);
        }
        self.bump_epoch();
    }

    /// Tombstones `id` (copy-on-write, so snapshot holders are unaffected).
    /// Returns `false` when it was already tombstoned.
    pub fn remove(&self, id: DocId) -> bool {
        let fresh = {
            let mut tombs = self.tombs.lock().unwrap_or_else(|p| p.into_inner());
            Arc::make_mut(&mut tombs).insert(id)
        };
        if fresh {
            self.bump_epoch();
        }
        fresh
    }

    /// The current tombstone set (a cheap `Arc` snapshot).
    pub fn tombstones(&self) -> Arc<Tombstones> {
        let tombs = self.tombs.lock().unwrap_or_else(|p| p.into_inner());
        Arc::clone(&tombs)
    }

    /// The published run list (a cheap `Arc` snapshot; the guard covers
    /// only the clone).
    fn tier_list(&self) -> Arc<TierList> {
        let tiers = self.tiers.lock().unwrap_or_else(|p| p.into_inner());
        Arc::clone(&tiers)
    }

    /// An epoch-stamped immutable snapshot of the segment set.
    ///
    /// Builds (and caches) the memtable's frozen view when the memtable is
    /// dirty — bounded by `memtable_limit` sequences — then clones the
    /// published run-list `Arc`.  The two reads are not mutually atomic,
    /// but the only mutator that can race a `&self` snapshot is the merge
    /// worker, and merges never move sequences between the memtable and the
    /// run list — so the union of segments is consistent in every
    /// interleaving (model-checked in `sched_tiers`).
    pub fn delta_view(&self) -> DeltaView {
        // Snapshot the memtable under a tight guard; the view trie (if
        // stale) is built with no lock held and re-cached only when the
        // memtable is provably unchanged (lengths match — the sequence
        // vector only grows or resets, never mutates in place).
        let (cached, raw) = {
            let mem = self.mem.lock().unwrap_or_else(|p| p.into_inner());
            let n = mem.seqs.len();
            if n == 0 {
                (None, None)
            } else if let Some(v) = &mem.view {
                (Some(Arc::clone(v)), None)
            } else {
                (None, Some(mem.seqs.clone()))
            }
        };
        let mem = if let Some(view) = cached {
            Some(view)
        } else if let Some(seqs) = raw {
            let snapshot_len = seqs.len();
            let built = Arc::new(build_mem_view(seqs));
            {
                let mut mem = self.mem.lock().unwrap_or_else(|p| p.into_inner());
                if mem.seqs.len() == snapshot_len {
                    mem.view = Some(Arc::clone(&built));
                }
            }
            Some(built)
        } else {
            None
        };
        let tiers = self.tier_list();
        let epoch = self.epoch();
        DeltaView { epoch, tiers, mem }
    }

    /// Attempts one tier merge: picks the lowest tier holding at least
    /// `tier_ratio` runs, folds *all* of that tier's runs into one run a
    /// tier up (dropping tombstoned documents), and splices it into the
    /// published list.
    ///
    /// The merged run is built entirely outside the locks; before splicing,
    /// every candidate is re-validated by `Arc` pointer identity — if the
    /// list changed underneath (a second merger got there first), the merge
    /// aborts and returns `None`.  Returns `None` when no tier is due.
    /// Call in a loop to cascade merges up the tiers.
    pub fn maybe_merge(&self) -> Option<MergeOutcome> {
        let list = self.tier_list();
        let tombs = self.tombstones();
        let tier = list.due_tier(self.tier_ratio())?;
        let candidates: Vec<Arc<DeltaRun>> = list
            .runs
            .iter()
            .filter(|r| r.tier == tier)
            .map(Arc::clone)
            .collect();
        let docs_in: usize = candidates.iter().map(|r| r.trie.sequence_count()).sum();
        // Oldest run first, each run's stored pairs in (sequence, arrival)
        // order: the stable sort in `freeze` then keeps equal sequences'
        // documents in arrival order across the whole merge.
        let survivors: Vec<(Sequence, DocId)> = candidates
            .iter()
            .flat_map(|run| run.trie.stored())
            .filter(|(_, doc)| !tombs.contains(*doc))
            .collect();
        let docs_dropped = docs_in - survivors.len();
        let merged = (!survivors.is_empty()).then(|| {
            Arc::new(DeltaRun {
                trie: build_mem_view(survivors),
                tier: tier + 1,
            })
        });
        let outcome = MergeOutcome {
            tier: tier + 1,
            runs_merged: candidates.len(),
            docs_in,
            docs_dropped,
        };
        {
            let mut tiers = self.tiers.lock().unwrap_or_else(|p| p.into_inner());
            // Validate: every candidate must still be published, unchanged.
            // The only splicer is this function, so a mismatch means another
            // merger (`run_pending_merges` beside the background worker)
            // folded them first — this output is stale, abort.
            let still_there = candidates
                .iter()
                .all(|c| tiers.runs.iter().any(|r| Arc::ptr_eq(r, c)));
            if !still_there {
                return None;
            }
            let mut next = Vec::with_capacity(tiers.runs.len() + 1 - candidates.len());
            let mut spliced = false;
            for run in &tiers.runs {
                if candidates.iter().any(|c| Arc::ptr_eq(run, c)) {
                    if !spliced {
                        spliced = true;
                        if let Some(m) = &merged {
                            next.push(Arc::clone(m));
                        }
                    }
                } else {
                    next.push(Arc::clone(run));
                }
            }
            *tiers = Arc::new(TierList { runs: next });
        }
        self.bump_epoch();
        Some(outcome)
    }

    /// True when no sequence is held in any segment.
    pub fn is_empty(&self) -> bool {
        self.sequence_count() == 0
    }

    /// Number of sequences across every segment (memtable + all runs).
    /// Merges may shrink this when they resolve tombstones.
    pub fn sequence_count(&self) -> usize {
        let mem = self
            .mem
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .seqs
            .len();
        let list = self.tier_list();
        mem + list
            .runs
            .iter()
            .map(|r| r.trie.sequence_count())
            .sum::<usize>()
    }

    /// Number of published frozen runs (excluding the memtable).
    pub fn run_count(&self) -> usize {
        self.tier_list().runs.len()
    }

    /// True when some tier holds at least `tier_ratio` runs, i.e. the next
    /// [`TieredDelta::maybe_merge`] has work to do.  Advisory: a concurrent
    /// merger may win the race and leave nothing due.
    pub fn merge_due(&self) -> bool {
        self.tier_list().due_tier(self.tier_ratio()).is_some()
    }

    /// Total trie nodes across every segment (building the memtable view if
    /// it is stale) — the delta half of the Figure 14 size metric.
    pub fn node_count(&self) -> usize {
        self.delta_view()
            .segments()
            .map(SequenceTrie::node_count)
            .sum()
    }

    /// Heap attribution across every component (see the `HeapSize` impl in
    /// `stats`): memtable raw sequences + cached view, run tries, and the
    /// tombstone set.
    pub(crate) fn heap_bytes_now(&self) -> usize {
        use xseq_telemetry::HeapSize;
        // Each component is read in its own tight guard scope (the memtable
        // holds at most `memtable_limit` sequences, so summing it under its
        // lock is cheap); the tries are sized with no lock held.
        let (mem_seqs, mem_view) = {
            let mem = self.mem.lock().unwrap_or_else(|p| p.into_inner());
            (mem.seqs.heap_bytes(), mem.view.as_ref().map(Arc::clone))
        };
        let list = self.tier_list();
        let tombs = self.tombstones();
        let runs = std::mem::size_of::<TierList>()
            + list.runs.capacity() * std::mem::size_of::<Arc<DeltaRun>>()
            + list
                .runs
                .iter()
                .map(|r| std::mem::size_of::<DeltaRun>() + r.trie.heap_bytes())
                .sum::<usize>();
        mem_seqs
            + mem_view.map_or(0, |v| std::mem::size_of::<SequenceTrie>() + v.heap_bytes())
            + runs
            + std::mem::size_of::<Tombstones>()
            + tombs.heap_bytes()
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
impl xseq_telemetry::HeapSize for Tombstones {
    fn heap_bytes(&self) -> usize {
        self.ids.capacity() * std::mem::size_of::<DocId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xseq_xml::PathId;

    /// One of three two-element shapes, so runs share and split trie paths.
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
        let delta = TieredDelta::new();
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
        let delta = TieredDelta::new();
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
        let delta = filled(0..8);
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
        let delta = filled(0..4);
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
    fn snapshots_pin_their_segments_across_merges_and_clear() {
        let delta = filled(0..6);
        let before = delta.delta_view();
        let seen_before = docs_of(&before);
        while delta.maybe_merge().is_some() {}
        assert!(delta.delta_view().epoch() > before.epoch());
        // Compaction clears an overlay by replacing it, so a snapshot must
        // outlive the overlay it was taken from, not just its merges.
        drop(delta);
        assert_eq!(docs_of(&before), seen_before);
    }

    #[test]
    fn epochs_advance_with_every_mutation() {
        let delta = TieredDelta::new();
        let mut last = delta.epoch();
        delta.insert(seq_for(3), 3);
        assert!(delta.epoch() > last);
        last = delta.epoch();
        assert!(delta.remove(9));
        assert!(delta.epoch() > last);
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
