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
//!   tier-0 [`DeltaRun`] (a small [`SequenceTrie`] built like the main
//!   segment — sorted run, preorder nodes, labels and path links — with its
//!   own preorder-range space), and the memtable restarts empty.  The raw
//!   sequences are retained alongside each run so later merges replay them
//!   without walking tries.
//! * **Merges** fire when a tier accumulates `tier_ratio` runs: the runs'
//!   raw sequences are concatenated in insertion order — dropping documents
//!   tombstoned at merge time (*tombstone resolution*) — and rebuilt as a
//!   single run one tier up.  [`TieredDelta::maybe_merge`] builds the merged
//!   run entirely *outside* the segment-list lock and splices it in with a
//!   single `Arc` swap, validated by pointer identity against the candidate
//!   runs (a racing [`clear`](TieredDelta::clear) aborts the merge), so the
//!   run count stays logarithmic in the update volume without ever blocking
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
//! into a single frozen segment by replaying the full parallel build over
//! the surviving documents — see DESIGN.md §11/§16 for why that is
//! bit-identical to a from-scratch rebuild.
//!
//! [`check_updates_tiered`] wires the overlay into the
//! `xseq-telemetry::sched` deterministic interleaving enumerator (the
//! harness the exec pool's chunk queue is checked on): scripted per-thread
//! op lists — now including [`UpdateOp::Merge`] and [`UpdateOp::Compact`] —
//! run under every (or a seeded sample of) arrival orders against a
//! reference set model, with per-query invariants for torn segment sets,
//! dropped tombstones and double-visible documents.

use crate::trie::SequenceTrie;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use xseq_sequence::{sequence_document, Sequence, Strategy};
use xseq_telemetry::Schedules;
use xseq_xml::{DocId, Document, PathTable, SymbolTable};

/// Default memtable cut threshold (raw sequences per tier-0 run).
pub const DEFAULT_MEMTABLE_LIMIT: usize = 64;

/// Default per-tier fan-in: a tier holding this many runs merges into one
/// run a tier up.
pub const DEFAULT_TIER_RATIO: usize = 4;

/// One immutable frozen run of the tiered overlay.
///
/// The trie is always frozen (labels + path links valid, hence queryable
/// through the same [`TrieView`](crate::trie::TrieView) search paths as the
/// main segment); the raw sequences that built it are retained, in
/// insertion order, so merges replay them without trie walks.
#[derive(Debug)]
pub struct DeltaRun {
    trie: SequenceTrie,
    seqs: Vec<(Sequence, DocId)>,
    tier: u32,
}

impl DeltaRun {
    /// Builds a frozen run from raw sequences.  `seqs` keeps insertion
    /// order for later merges; the trie is canonical — it depends only on
    /// the `(sequence, doc)` multiset and each sequence's document order.
    fn build(seqs: Vec<(Sequence, DocId)>, tier: u32) -> DeltaRun {
        let trie = build_mem_view(&seqs);
        DeltaRun { trie, seqs, tier }
    }

    /// The run's frozen trie.
    pub fn trie(&self) -> &SequenceTrie {
        &self.trie
    }

    /// The run's tier (0 = freshly cut memtable; merges bump it).
    pub fn tier(&self) -> u32 {
        self.tier
    }

    /// Number of raw sequences in the run.
    pub fn len(&self) -> usize {
        self.seqs.len()
    }

    /// True when the run holds no sequences (never published).
    pub fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }
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
fn build_mem_view(seqs: &[(Sequence, DocId)]) -> SequenceTrie {
    let mut trie = SequenceTrie::new();
    trie.bulk_load(seqs.to_vec());
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
            .map(|r| r.trie())
            .chain(self.mem.as_deref())
    }

    /// The frozen runs of the snapshot (without the memtable view).
    pub fn runs(&self) -> impl Iterator<Item = &DeltaRun> {
        self.tiers.runs.iter().map(Arc::as_ref)
    }

    /// Per-segment document id lists (sorted, deduplicated), in segment
    /// order — the double-visibility probe used by the sched-model harness.
    pub fn segment_docs(&self) -> Vec<Vec<DocId>> {
        self.segments()
            .map(|trie| {
                let mut out = Vec::new();
                let (lo, hi) = trie.root_range();
                trie.collect_docs_in_range(lo, hi, &mut out);
                out.sort_unstable();
                out.dedup();
                out
            })
            .collect()
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
    pub fn insert(&self, seq: &Sequence, doc: DocId) {
        let limit = self.memtable_limit();
        let entry = (seq.clone(), doc);
        let cut = {
            let mut mem = self.mem.lock().unwrap_or_else(|p| p.into_inner());
            mem.seqs.push(entry);
            mem.view = None;
            if mem.seqs.len() >= limit {
                Some(std::mem::take(&mut mem.seqs))
            } else {
                None
            }
        };
        if let Some(seqs) = cut {
            let run = Arc::new(DeltaRun::build(seqs, 0));
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
            let built = Arc::new(build_mem_view(&seqs));
            {
                let mut mem = self.mem.lock().unwrap_or_else(|p| p.into_inner());
                if mem.seqs.len() == seqs.len() {
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
    /// list changed underneath (a concurrent [`clear`](Self::clear)), the
    /// merge aborts and returns `None`.  Returns `None` when no tier is due.
    /// Call in a loop to cascade merges up the tiers.
    pub fn maybe_merge(&self) -> Option<MergeOutcome> {
        let list = self.tier_list();
        let tombs = self.tombstones();
        let tier = list.due_tier(self.tier_ratio())?;
        let candidates: Vec<Arc<DeltaRun>> = list
            .runs
            .iter()
            .filter(|r| r.tier == tier)
            .cloned()
            .collect();
        let docs_in: usize = candidates.iter().map(|r| r.len()).sum();
        let mut merged_seqs = Vec::with_capacity(docs_in);
        merged_seqs.extend(
            candidates
                .iter()
                .flat_map(|run| &run.seqs)
                .filter(|(_, doc)| !tombs.contains(*doc))
                .cloned(),
        );
        let docs_dropped = docs_in - merged_seqs.len();
        let merged = if merged_seqs.is_empty() {
            None
        } else {
            Some(Arc::new(DeltaRun::build(merged_seqs, tier + 1)))
        };
        let outcome = MergeOutcome {
            tier: tier + 1,
            runs_merged: candidates.len(),
            docs_in,
            docs_dropped,
        };
        {
            let mut tiers = self.tiers.lock().unwrap_or_else(|p| p.into_inner());
            // Validate: every candidate must still be published, unchanged.
            // The single splicer is this function, so a mismatch means a
            // clear/compact raced in — the merge output is stale, abort.
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

    /// Drops everything — memtable, runs and tombstones — returning the
    /// overlay to its post-compaction empty state.  In-flight snapshots are
    /// unaffected (they pin their `Arc`s); a concurrent merge will notice
    /// the swap and abort.
    pub fn clear(&self) {
        let empty_tiers = Arc::new(TierList { runs: Vec::new() });
        let empty_tombs = Arc::new(Tombstones::new());
        {
            let mut mem = self.mem.lock().unwrap_or_else(|p| p.into_inner());
            mem.seqs = Vec::new();
            mem.view = None;
        }
        {
            let mut tiers = self.tiers.lock().unwrap_or_else(|p| p.into_inner());
            *tiers = empty_tiers;
        }
        {
            let mut tombs = self.tombs.lock().unwrap_or_else(|p| p.into_inner());
            *tombs = empty_tombs;
        }
        self.bump_epoch();
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
        mem + self.tier_list().runs.iter().map(|r| r.len()).sum::<usize>()
    }

    /// Number of published frozen runs (excluding the memtable).
    pub fn run_count(&self) -> usize {
        self.tier_list().runs.len()
    }

    /// True when some tier holds at least `tier_ratio` runs, i.e. the next
    /// [`TieredDelta::maybe_merge`] has work to do.  Advisory: a concurrent
    /// merger or `clear` may win the race and leave nothing due.
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

    /// All document ids present in the overlay, sorted and deduplicated.
    pub fn doc_ids(&self) -> Vec<DocId> {
        let mut out: Vec<DocId> = {
            let mem = self.mem.lock().unwrap_or_else(|p| p.into_inner());
            mem.seqs.iter().map(|&(_, d)| d).collect()
        };
        let list = self.tier_list();
        out.extend(list.runs.iter().flat_map(|r| &r.seqs).map(|&(_, d)| d));
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Heap attribution across every component (see the `HeapSize` impl in
    /// `stats`): memtable raw sequences + cached view, run tries + retained
    /// sequences, and the tombstone set.
    pub(crate) fn heap_bytes_now(&self) -> usize {
        use xseq_telemetry::HeapSize;
        let entry = std::mem::size_of::<(Sequence, DocId)>();
        // Snapshot every component in tight guard scopes (clone/`Arc`
        // bumps only); all heap-size arithmetic runs with no lock held.
        let (mem_seqs, mem_cap, mem_view) = {
            let mem = self.mem.lock().unwrap_or_else(|p| p.into_inner());
            let cap = mem.seqs.capacity();
            (mem.seqs.clone(), cap, mem.view.clone())
        };
        let list = self.tier_list();
        let tombs = self.tombstones();
        let seq_heap =
            |seqs: &[(Sequence, DocId)]| seqs.iter().map(|(s, _)| s.heap_bytes()).sum::<usize>();
        let mem = mem_cap * entry
            + seq_heap(&mem_seqs)
            + mem_view.map_or(0, |v| std::mem::size_of::<SequenceTrie>() + v.heap_bytes());
        let runs = std::mem::size_of::<TierList>()
            + list.runs.capacity() * std::mem::size_of::<Arc<DeltaRun>>()
            + list
                .runs
                .iter()
                .map(|r| {
                    std::mem::size_of::<DeltaRun>()
                        + r.trie.heap_bytes()
                        + r.seqs.capacity() * entry
                        + seq_heap(&r.seqs)
                })
                .sum::<usize>();
        mem + runs + std::mem::size_of::<Tombstones>() + tombs.heap_bytes()
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

/// One scripted operation against the update overlay, for
/// [`check_updates_tiered`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOp {
    /// Insert a synthetic document with this id into the overlay.
    Insert(DocId),
    /// Tombstone this id.
    Remove(DocId),
    /// Snapshot the overlay and check every reader invariant against the
    /// reference model.
    Query,
    /// Attempt one background tier merge ([`TieredDelta::maybe_merge`]).
    Merge,
    /// Full compaction: fold the visible set into the harness's frozen
    /// base and [`clear`](TieredDelta::clear) the overlay.
    Compact,
}

/// Builds the synthetic single-path document used by the sched harnesses
/// for a given id — ids map onto a small family of shapes so schedules
/// exercise shared and distinct trie paths alike.
fn synthetic_doc(id: DocId, symbols: &mut SymbolTable) -> Document {
    let r = symbols.elem("r");
    let names = ["a", "b", "c"];
    let leaf = symbols.elem(names[(id as usize) % names.len()]);
    let mut doc = Document::with_root(r);
    let root = doc.root().expect("document was just given a root");
    let mid = doc.child(root, leaf);
    if id.is_multiple_of(2) {
        let deep = symbols.elem("d");
        doc.child(mid, deep);
    }
    doc
}

/// Model-checks the update overlay under deterministic interleavings with
/// explicit tiering knobs (aggressive ones, e.g. `memtable_limit = 2`,
/// `tier_ratio = 2`, make cuts and merges fire inside even short scripts).
///
/// `threads[i]` is thread *i*'s op script.  Every schedule (exhaustive when
/// the interleaving count is at most `limit`, a seeded sample otherwise)
/// executes each arriving op *whole* — the overlay's single-writer
/// discipline makes writer ops atomic units, and op-grain snapshots are
/// exactly what [`TieredDelta::delta_view`] hands a reader — against both
/// the real [`TieredDelta`] and a reference set model.  Any `Query` op (and
/// a final drain) checks the full reader invariant set; the first
/// divergence fails with the offending schedule attached:
///
/// 1. **Differential**: the observed doc set equals the reference model's
///    *(frozen ∪ inserted) − removed*.
/// 2. **No dropped tombstone**: every id removed since the last compaction
///    is present in the overlay's tombstone snapshot.
/// 3. **No double visibility**: an id inserted exactly once (and not
///    removed) since the last compaction appears in exactly one segment of
///    the snapshot — a torn merge splice would surface it in two tiers.
/// 4. **Epoch monotonicity**: snapshot epochs never decrease, and every
///    mutating op strictly advances the overlay epoch.
/// 5. **Frozen segments**: every segment of every snapshot is frozen
///    (labels + path links valid).
///
/// Returns the number of schedules checked.
pub fn check_updates_tiered(
    threads: &[Vec<UpdateOp>],
    limit: usize,
    seed: u64,
    memtable_limit: usize,
    tier_ratio: usize,
) -> Result<usize, String> {
    let lens: Vec<usize> = threads.iter().map(Vec::len).collect();
    let schedules = Schedules::new(&lens, limit, seed);
    let mut checked = 0usize;
    let mut failure: Option<String> = None;
    schedules.for_each(|sched| {
        if failure.is_some() {
            return;
        }
        checked += 1;
        if let Err(e) = run_update_schedule(threads, sched, memtable_limit, tier_ratio) {
            failure = Some(format!("schedule {sched:?}: {e}"));
        }
    });
    match failure {
        Some(e) => Err(e),
        None => Ok(checked),
    }
}

/// Executes one arrival order of the scripted ops, comparing the overlay
/// against the reference model after every query and at the end.
fn run_update_schedule(
    threads: &[Vec<UpdateOp>],
    sched: &[usize],
    memtable_limit: usize,
    tier_ratio: usize,
) -> Result<(), String> {
    let mut symbols = SymbolTable::with_value_mode(xseq_xml::ValueMode::Intern);
    let mut paths = PathTable::new();
    let delta = TieredDelta::new();
    delta.configure(memtable_limit, tier_ratio);
    // Reference model.  `frozen` is the visible set captured by the last
    // Compact (the harness's stand-in for the frozen segment); `inserted` /
    // `removed` track overlay-era ids.  Survivors are *(frozen ∪ inserted)
    // − removed* irrespective of arrival order — a tombstone is permanent
    // until compaction (the corpus never reuses ids), so a remove racing
    // ahead of its insert still wins.
    let mut frozen: Vec<DocId> = Vec::new();
    let mut inserted: Vec<DocId> = Vec::new();
    let mut insert_counts: Vec<(DocId, usize)> = Vec::new();
    let mut removed: Vec<DocId> = Vec::new();
    let mut cursors = vec![0usize; threads.len()];
    let strategy = Strategy::DepthFirst;
    let mut last_epoch = delta.epoch();
    let mut last_view_epoch = 0u64;
    let model_visible = |frozen: &[DocId], inserted: &[DocId], removed: &[DocId]| -> Vec<DocId> {
        let mut want: Vec<DocId> = frozen
            .iter()
            .chain(inserted.iter())
            .copied()
            .filter(|d| !removed.contains(d))
            .collect();
        want.sort_unstable();
        want.dedup();
        want
    };
    let observe = |delta: &TieredDelta, frozen: &[DocId]| -> Vec<DocId> {
        let tombs = delta.tombstones();
        let mut got = delta.doc_ids();
        got.extend(frozen.iter().copied());
        got.sort_unstable();
        got.dedup();
        got.retain(|d| !tombs.contains(*d));
        got
    };
    for &t in sched {
        let op = threads[t][cursors[t]];
        cursors[t] += 1;
        match op {
            UpdateOp::Insert(id) => {
                let doc = synthetic_doc(id, &mut symbols);
                let seq = sequence_document(&doc, &mut paths, &strategy);
                delta.insert(&seq, id);
                if !inserted.contains(&id) {
                    inserted.push(id);
                }
                match insert_counts.iter_mut().find(|(d, _)| *d == id) {
                    Some((_, n)) => *n += 1,
                    None => insert_counts.push((id, 1)),
                }
                let now = delta.epoch();
                if now <= last_epoch {
                    return Err(format!("insert({id}) did not advance the epoch"));
                }
                last_epoch = now;
            }
            UpdateOp::Remove(id) => {
                let fresh = delta.remove(id);
                if !removed.contains(&id) {
                    removed.push(id);
                }
                let now = delta.epoch();
                if fresh && now <= last_epoch {
                    return Err(format!("remove({id}) did not advance the epoch"));
                }
                last_epoch = now;
            }
            UpdateOp::Merge => {
                let before = delta.epoch();
                let outcome = delta.maybe_merge();
                let now = delta.epoch();
                if outcome.is_some() && now <= before {
                    return Err("merge did not advance the epoch".to_owned());
                }
                last_epoch = now;
            }
            UpdateOp::Compact => {
                frozen = observe(&delta, &frozen);
                inserted.clear();
                insert_counts.clear();
                removed.clear();
                delta.clear();
                let now = delta.epoch();
                if now <= last_epoch {
                    return Err("compact did not advance the epoch".to_owned());
                }
                last_epoch = now;
            }
            UpdateOp::Query => {
                let view = delta.delta_view();
                if view.epoch() < last_view_epoch {
                    return Err(format!(
                        "snapshot epoch went backwards: {} after {}",
                        view.epoch(),
                        last_view_epoch
                    ));
                }
                last_view_epoch = view.epoch();
                check_view_invariants(
                    &delta,
                    &view,
                    &frozen,
                    &insert_counts,
                    &removed,
                    &model_visible(&frozen, &inserted, &removed),
                )?;
            }
        }
    }
    let view = delta.delta_view();
    check_view_invariants(
        &delta,
        &view,
        &frozen,
        &insert_counts,
        &removed,
        &model_visible(&frozen, &inserted, &removed),
    )
    .map_err(|e| format!("final state: {e}"))
}

/// The reader-side invariant battery shared by every `Query` op and the
/// final drain — see [`check_updates_tiered`] for the list.
fn check_view_invariants(
    delta: &TieredDelta,
    view: &DeltaView,
    frozen: &[DocId],
    insert_counts: &[(DocId, usize)],
    removed: &[DocId],
    want: &[DocId],
) -> Result<(), String> {
    let tombs = delta.tombstones();
    let segment_docs = view.segment_docs();
    // 1. Differential: visible union matches the model.
    let mut got: Vec<DocId> = segment_docs.iter().flatten().copied().collect();
    got.extend(frozen.iter().copied());
    got.sort_unstable();
    got.dedup();
    got.retain(|d| !tombs.contains(*d));
    if got != want {
        return Err(format!("query saw {got:?}, model has {want:?}"));
    }
    // 2. No dropped tombstone: every overlay-era remove is in the set.
    for id in removed {
        if !tombs.contains(*id) {
            return Err(format!("tombstone for {id} was dropped"));
        }
    }
    // 3. No double visibility across segments.
    for &(id, count) in insert_counts {
        if count != 1 || removed.contains(&id) {
            continue;
        }
        let appearances = segment_docs
            .iter()
            .filter(|docs| docs.binary_search(&id).is_ok())
            .count();
        if appearances != 1 {
            return Err(format!(
                "doc {id} (inserted once, live) appears in {appearances} segments"
            ));
        }
    }
    // 5. Every snapshot segment is frozen, hence queryable.
    for (i, seg) in view.segments().enumerate() {
        if !seg.is_frozen() {
            return Err(format!("snapshot segment {i} is not frozen"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_for(id: DocId) -> (Sequence, PathTable) {
        let mut symbols = SymbolTable::with_value_mode(xseq_xml::ValueMode::Intern);
        let mut paths = PathTable::new();
        let doc = synthetic_doc(id, &mut symbols);
        let seq = sequence_document(&doc, &mut paths, &Strategy::DepthFirst);
        (seq, paths)
    }

    #[test]
    fn empty_delta_is_frozen_and_queryable() {
        let delta = TieredDelta::new();
        assert!(delta.is_empty());
        assert!(delta.delta_view().is_empty());
        assert_eq!(delta.delta_view().segment_count(), 0);
        assert!(delta.doc_ids().is_empty());
    }

    #[test]
    fn insert_keeps_every_segment_frozen() {
        let delta = TieredDelta::new();
        delta.configure(2, 2);
        for id in 0..5u32 {
            let (seq, _) = seq_for(id);
            delta.insert(&seq, id);
            let view = delta.delta_view();
            for (i, seg) in view.segments().enumerate() {
                assert!(seg.is_frozen(), "segment {i} after insert {id}");
            }
        }
        assert_eq!(delta.sequence_count(), 5);
        assert_eq!(delta.doc_ids(), vec![0, 1, 2, 3, 4]);
        assert!(delta.run_count() >= 2, "limit 2 must have cut runs");
    }

    #[test]
    fn memtable_cuts_at_the_limit_and_merges_cascade() {
        let delta = TieredDelta::new();
        delta.configure(2, 2);
        for id in 0..8u32 {
            let (seq, _) = seq_for(id);
            delta.insert(&seq, id);
        }
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
        assert_eq!(delta.doc_ids(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn merges_resolve_tombstones_but_keep_the_set() {
        let delta = TieredDelta::new();
        delta.configure(2, 2);
        for id in 0..4u32 {
            let (seq, _) = seq_for(id);
            delta.insert(&seq, id);
        }
        assert!(delta.remove(1));
        assert!(!delta.remove(1), "double remove is a no-op");
        let m = delta.maybe_merge().expect("tier 0 is due");
        assert_eq!(m.docs_dropped, 1);
        assert_eq!(delta.doc_ids(), vec![0, 2, 3], "1 resolved out of the runs");
        assert!(
            delta.tombstones().contains(1),
            "merges must not drain the tombstone set"
        );
        assert_eq!(delta.sequence_count(), 3);
    }

    #[test]
    fn snapshots_pin_their_segments_across_merges_and_clear() {
        let delta = TieredDelta::new();
        delta.configure(2, 2);
        for id in 0..6u32 {
            let (seq, _) = seq_for(id);
            delta.insert(&seq, id);
        }
        let before = delta.delta_view();
        let seen_before: usize = before.segment_docs().iter().map(Vec::len).sum();
        while delta.maybe_merge().is_some() {}
        delta.clear();
        // The old snapshot still reads its full pinned segment set.
        let seen_after: usize = before.segment_docs().iter().map(Vec::len).sum();
        assert_eq!(seen_before, seen_after);
        assert!(delta.is_empty());
        let fresh = delta.delta_view();
        assert!(fresh.is_empty());
        assert!(fresh.epoch() > before.epoch());
    }

    #[test]
    fn merge_after_clear_finds_nothing() {
        let delta = TieredDelta::new();
        delta.configure(2, 2);
        for id in 0..4u32 {
            let (seq, _) = seq_for(id);
            delta.insert(&seq, id);
        }
        delta.clear();
        assert!(delta.maybe_merge().is_none());
    }

    #[test]
    fn epochs_advance_with_every_mutation() {
        let delta = TieredDelta::new();
        let mut last = delta.epoch();
        let (seq, _) = seq_for(3);
        delta.insert(&seq, 3);
        assert!(delta.epoch() > last);
        last = delta.epoch();
        assert!(delta.remove(9));
        assert!(delta.epoch() > last);
        last = delta.epoch();
        delta.clear();
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

    #[test]
    fn exhaustive_interleavings_hold() {
        let threads = vec![
            vec![UpdateOp::Insert(0), UpdateOp::Query, UpdateOp::Insert(2)],
            vec![UpdateOp::Insert(1), UpdateOp::Remove(0), UpdateOp::Query],
        ];
        let checked = check_updates_tiered(&threads, 1 << 14, 0, 2, 2).expect("no divergence");
        assert_eq!(checked, 20, "C(6,3) arrival orders");
    }

    #[test]
    fn sampled_interleavings_hold() {
        let threads = vec![
            vec![
                UpdateOp::Insert(0),
                UpdateOp::Insert(4),
                UpdateOp::Remove(4),
                UpdateOp::Query,
            ],
            vec![UpdateOp::Insert(1), UpdateOp::Remove(0), UpdateOp::Query],
            vec![UpdateOp::Insert(2), UpdateOp::Query, UpdateOp::Remove(9)],
        ];
        // Beyond the limit the checker falls back to seeded sampling.
        let checked = check_updates_tiered(&threads, 64, 42, 2, 2).expect("no divergence");
        assert_eq!(checked, 64);
    }

    #[test]
    fn merge_and_compact_ops_hold_exhaustively() {
        let threads = vec![
            vec![UpdateOp::Insert(0), UpdateOp::Insert(2), UpdateOp::Merge],
            vec![UpdateOp::Remove(0), UpdateOp::Query, UpdateOp::Compact],
        ];
        let checked = check_updates_tiered(&threads, 1 << 14, 0, 2, 2).expect("no divergence");
        assert_eq!(checked, 20, "C(6,3) arrival orders");
    }
}
