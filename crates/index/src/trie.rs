//! The trie-like index structure (Section 4.1).
//!
//! Index construction takes the paper's three steps:
//!
//! 1. **Sequence insertion** — every document's constraint sequence is
//!    inserted into a trie; the document id is appended to the id list of
//!    the node where the insertion ends (Figure 7).
//! 2. **Tree labeling** — each node `n` gets `(n⊢, n⊣)`: its preorder serial
//!    number and the largest serial among its descendants, so `x` is a
//!    descendant of `y` iff `x⊢ ∈ (y⊢, y⊣]` (Figure 8).
//! 3. **Path linking** — a horizontal link per distinct path collects the
//!    labels of all trie nodes carrying that path encoding, in ascending
//!    serial order, ready for binary search (Figure 9).
//!
//! The trie has one form, the frozen one.  "If we are indexing static data
//! ... we can 'bulk load' the index by sorting the sequences first": every
//! trie is built that way.  [`SequenceTrie::insert`] and
//! [`SequenceTrie::bulk_load`] only append to a pending run;
//! [`SequenceTrie::freeze`] sorts the run and creates the nodes **in
//! preorder** (children in ascending [`PathId`] order), so a node's id *is*
//! its serial `n⊢` and the structure is a handful of flat arrays.  The
//! result is canonical: the same `(sequence, doc)` multiset with the same
//! per-sequence document order gives [`SequenceTrie::identical_to`] tries
//! whatever the insertion order.  Insertions after a freeze invalidate it,
//! and the next freeze rebuilds from the stored sequences plus the new run
//! (incremental maintenance of preorder labels is orthogonal to the paper;
//! live updates go through the tiered overlay in [`delta`](crate::delta)).

use crate::search::Answer;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use xseq_sequence::Sequence;
use xseq_telemetry::{hash_table_alloc_bytes, HeapSize};
use xseq_xml::{DocId, PathId, PathIdHasher};

/// A trie node: its preorder serial `n⊢` (the virtual root is 0).
pub type TrieNodeId = u32;

/// Sentinel for "no node".
pub const NIL: TrieNodeId = u32::MAX;

/// One entry of a horizontal path link: the label of a trie node carrying
/// this path.  The serial is the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkEntry {
    /// `n⊢` — preorder serial.
    pub serial: u32,
    /// `n⊣` — largest descendant serial.
    pub max_desc: u32,
}

/// Labels, links and end-node registry built by [`SequenceTrie::freeze`].
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Frozen {
    /// Per node: `n⊣`.
    pub max_desc: Vec<u32>,
    /// Per node, one bit: does its range contain another node with the
    /// same path?  (Nodes that "embed identical siblings" in Algorithm 1's
    /// sense.)  Laid out like `end_bits` and read through
    /// [`TrieView::embeds_identical`].
    pub embeds_bits: Vec<u64>,
    /// Horizontal path links, ascending by serial; probed on every link
    /// entry a search reads, so keyed with the multiplicative
    /// [`PathIdHasher`].
    pub links: HashMap<PathId, Vec<LinkEntry>, BuildHasherDefault<PathIdHasher>>,
    /// Nodes owning document id lists, ascending.
    pub end_nodes: Vec<TrieNodeId>,
    /// The end nodes as a bitvector over serials: bit `s % 64` of word
    /// `s / 64` is set when `s` is an end node.  One word past the last
    /// serial, so the serial after it has a bit too.
    pub end_bits: Vec<u64>,
    /// Per word of `end_bits`: the end nodes in the words before it.  With
    /// a popcount this ranks any serial in `O(1)`.
    pub end_rank: Vec<u32>,
    /// One past the largest document id stored (0 when none is), so an
    /// answer's bitmap is sized before a range is read.
    pub id_bound: usize,
}

impl Frozen {
    /// The number of end nodes with serial below `s` — the index of the
    /// first end node at or past `s`.  A serial past the last node ranks
    /// every end node.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "s <= max_desc.len(), so s / 64 < end_bits.len()")]
    #[expect(clippy::integer_division_remainder_used, reason = "the divisor is the literal 64")]
    fn end_index(&self, s: u32) -> usize {
        let s = (s as usize).min(self.max_desc.len());
        let below = (1u64 << (s % 64)) - 1;
        self.end_rank[s / 64] as usize + (self.end_bits[s / 64] & below).count_ones() as usize
    }

    /// Whether an end node lies at a serial in `[from, to)`, and if one
    /// does, the ranks of `from` and `to` ([`Frozen::end_index`]).  When
    /// both ends fall in one word the test is one masked word, and a gap
    /// it finds ranks from that word and its count, no third load; across
    /// words the test is the two ranks.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "from, to <= max_desc.len() < 64 * end_bits.len()")]
    #[expect(clippy::integer_division_remainder_used, reason = "the divisor is the literal 64")]
    fn separating(&self, from: u32, to: u32) -> Option<(usize, usize)> {
        let n = self.max_desc.len();
        let (from, to) = ((from as usize).min(n), (to as usize).min(n));
        if from / 64 != to / 64 {
            let (a, b) = (self.end_index(from as u32), self.end_index(to as u32));
            return (a != b).then_some((a, b));
        }
        let word = self.end_bits[from / 64];
        let (below_from, below_to) = ((1u64 << (from % 64)) - 1, (1u64 << (to % 64)) - 1);
        if word & below_to & !below_from == 0 {
            return None;
        }
        let base = self.end_rank[from / 64] as usize;
        let rank = |below: u64| base + (word & below).count_ones() as usize;
        Some((rank(below_from), rank(below_to)))
    }
}

/// The rank directory of [`Frozen::end_bits`] and [`Frozen::end_rank`] for
/// `end_nodes` in a trie of `nodes` serials.  An end node past the trie
/// (only a corrupted registry has one) sets no bit.
#[expect(clippy::integer_division_remainder_used, reason = "the divisor is the literal 64")]
pub(crate) fn rank_directory(end_nodes: &[TrieNodeId], nodes: usize) -> (Vec<u64>, Vec<u32>) {
    let mut bits = vec![0u64; nodes / 64 + 1];
    for &e in end_nodes {
        if let Some(word) = bits.get_mut(e as usize / 64) {
            *word |= 1 << (e % 64);
        }
    }
    let mut before = 0;
    let rank = bits
        .iter()
        .map(|w| {
            let r = before;
            before += w.count_ones();
            r
        })
        .collect();
    (bits, rank)
}

/// A horizontal path link resolved once: its entries, ascending by serial.
pub trait PathLink {
    /// Number of entries (0 for a path that never occurs).
    fn len(&self) -> usize;
    /// Entry `idx`, for `idx < len()`.
    fn entry(&self, idx: usize) -> LinkEntry;

    /// True when the path never occurs.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entries as one slice, when they are in memory.  A link that
    /// reads them through pages (the default) returns `None`, and a scan
    /// reads it entry by entry.
    fn entries(&self) -> Option<&[LinkEntry]> {
        None
    }

    /// First index with serial strictly greater than `s`.
    #[expect(clippy::integer_division_remainder_used, reason = "the divisor is the literal 2")]
    fn lower_bound(&self, s: u32) -> usize {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.entry(mid).serial <= s {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

impl PathLink for &[LinkEntry] {
    fn len(&self) -> usize {
        <[LinkEntry]>::len(self)
    }
    #[expect(clippy::indexing_slicing, reason = "callers keep idx < len()")]
    fn entry(&self, idx: usize) -> LinkEntry {
        self[idx]
    }
    fn entries(&self) -> Option<&[LinkEntry]> {
        Some(self)
    }
}

/// Read access to a frozen trie — everything the matching algorithms need.
///
/// Implemented by the in-memory [`SequenceTrie`] and by the paged
/// (disk-layout) trie in `xseq-storage`, so one search implementation serves
/// both and the storage layer's page-touch counters measure the real access
/// pattern of Algorithm 1.
pub trait TrieView {
    /// The virtual root node.
    fn root(&self) -> TrieNodeId;
    /// The label `(n⊢, n⊣)` of a node.
    fn label(&self, n: TrieNodeId) -> (u32, u32);
    /// The path encoding of a node.
    fn path(&self, n: TrieNodeId) -> PathId;
    /// The parent of a node (`NIL` for the virtual root).
    fn parent(&self, n: TrieNodeId) -> TrieNodeId;
    /// Whether the node's range contains another node with the same path.
    fn embeds_identical(&self, n: TrieNodeId) -> bool;
    /// A resolved horizontal link.
    type Link<'a>: PathLink
    where
        Self: 'a;
    /// The horizontal link of `path`, looked up once (empty if absent).
    fn link(&self, path: PathId) -> Self::Link<'_>;
    /// Appends the doc ids of end nodes with serial in `[lo, hi]`.
    fn collect_docs_in_range(&self, lo: u32, hi: u32, out: &mut Vec<DocId>);

    /// Adds the doc ids of end nodes inside `ranges` to `answer`, the ids
    /// [`TrieView::collect_docs_in_range`] reads, and returns how many.
    /// The ranges are ascending and disjoint, so an implementation may
    /// sweep its end nodes once.  Provided: the ids are read range by
    /// range into a buffer the answer keeps, then added at once.
    fn add_docs_in_ranges(&self, ranges: &[(u32, u32)], answer: &mut Answer) -> u64 {
        let mut ids = std::mem::take(&mut answer.staged);
        ids.clear();
        for &(lo, hi) in ranges {
            self.collect_docs_in_range(lo, hi, &mut ids);
        }
        let added = answer.add(&ids);
        answer.staged = ids;
        added
    }

    /// Walks up from `n` to the nearest proper ancestor whose path is `t`
    /// (the "closest same-path ancestor" used by the sibling-cover check).
    fn nearest_ancestor_with_path(&self, n: TrieNodeId, t: PathId) -> Option<TrieNodeId> {
        let mut cur = self.parent(n);
        while cur != NIL {
            if self.path(cur) == t {
                return Some(cur);
            }
            cur = self.parent(cur);
        }
        None
    }

    /// Number of entries in the horizontal link of `path` (0 if absent).
    fn link_len(&self, path: PathId) -> usize {
        self.link(path).len()
    }

    /// Entry `idx` of the link of `path` (ascending serial order).
    fn link_entry(&self, path: PathId, idx: usize) -> LinkEntry {
        self.link(path).entry(idx)
    }

    /// First link index of `path` with serial strictly greater than `s`.
    fn link_lower_bound(&self, path: PathId, s: u32) -> usize {
        self.link(path).lower_bound(s)
    }
}

/// The first index in `from..len` at which `below` is false, for a `below`
/// that holds on a prefix of `0..len` reaching at least `from`.  Steps double
/// from `from` and the last step is bisected, so the cost is logarithmic in
/// the distance moved, not in `len`: a cursor that usually moves a few places
/// pays a few probes.
#[expect(clippy::integer_division_remainder_used, reason = "the divisor is the literal 2")]
pub(crate) fn gallop(from: usize, len: usize, below: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi, mut step) = (from, len, 1);
    while from + step - 1 < len {
        let probe = from + step - 1;
        if !below(probe) {
            hi = probe;
            break;
        }
        lo = probe + 1;
        step *= 2;
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if below(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The trie over constraint sequences: flat arrays in preorder, node id ≡
/// serial.  Everything but [`SequenceTrie::sequence_count`] and
/// [`SequenceTrie::is_frozen`] describes the last freeze and requires the
/// trie to be frozen.
#[derive(Debug)]
pub struct SequenceTrie {
    /// Per node: its path encoding (`PathId::ROOT` for the virtual root).
    path: Vec<PathId>,
    /// Per node: its parent, always a smaller id (`NIL` for the root).
    parent: Vec<TrieNodeId>,
    /// Document ids of all end nodes, concatenated in end-node order; each
    /// list keeps arrival order.
    docs: Vec<DocId>,
    /// `docs[doc_off[i]..doc_off[i + 1]]` belongs to `frozen.end_nodes[i]`.
    doc_off: Vec<u32>,
    frozen: Frozen,
    is_frozen: bool,
    /// Sequences inserted since the last freeze, in arrival order.
    pending: Vec<(Sequence, DocId)>,
    seq_count: usize,
}

impl Default for SequenceTrie {
    fn default() -> Self {
        Self::new()
    }
}

impl SequenceTrie {
    /// Creates an empty, unfrozen trie.
    pub fn new() -> Self {
        SequenceTrie {
            path: vec![PathId::ROOT],
            parent: vec![NIL],
            docs: Vec::new(),
            doc_off: vec![0],
            frozen: Frozen::default(),
            is_frozen: false,
            pending: Vec::new(),
            seq_count: 0,
        }
    }

    /// The virtual root node.
    pub fn root(&self) -> TrieNodeId {
        0
    }

    /// Number of real trie nodes (excluding the virtual root) — the metric
    /// of Figure 14 and Tables 5/6.
    pub fn node_count(&self) -> usize {
        debug_assert!(self.is_frozen);
        self.path.len() - 1
    }

    /// Number of inserted sequences (documents), frozen or pending.
    pub fn sequence_count(&self) -> usize {
        self.seq_count
    }

    /// The path encoding of a node.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "TrieNodeIds are minted by this trie's freeze")]
    pub fn path(&self, n: TrieNodeId) -> PathId {
        debug_assert!(self.is_frozen);
        self.path[n as usize]
    }

    /// The parent of a node (`NIL` for the virtual root).
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "freeze-minted TrieNodeId contract (see `path`)")]
    pub fn parent(&self, n: TrieNodeId) -> TrieNodeId {
        debug_assert!(self.is_frozen);
        self.parent[n as usize]
    }

    /// Document ids whose sequences end at `n`, in arrival order.
    pub fn docs_at(&self, n: TrieNodeId) -> &[DocId] {
        self.docs_in(n, n)
    }

    /// The ids of the end nodes with serial in `[lo, hi]`: one contiguous
    /// slice of the document array, bounded by two `O(1)` ranks.
    #[expect(clippy::indexing_slicing, reason = "ranks are <= end_nodes.len() < doc_off.len()")]
    fn docs_in(&self, lo: u32, hi: u32) -> &[DocId] {
        let f = self.frozen();
        let a = f.end_index(lo);
        let b = f.end_index(hi.saturating_add(1)).max(a);
        &self.docs[self.doc_off[a] as usize..self.doc_off[b] as usize]
    }

    /// Every end node of the last freeze with its document id list,
    /// ascending by node.
    #[expect(clippy::indexing_slicing, reason = "doc_off is bounded by docs; windows(2) has two")]
    pub(crate) fn doc_lists(&self) -> impl Iterator<Item = (TrieNodeId, &[DocId])> {
        let ends = self.frozen.end_nodes.iter().zip(self.doc_off.windows(2));
        ends.map(|(&n, w)| (n, &self.docs[w[0] as usize..w[1] as usize]))
    }

    /// Test-support corruption hook: mutable access to the frozen labels,
    /// links and end-node registry, *without* invalidating the freeze.
    ///
    /// Exists so the mutation tests of `verify` can seed deliberate
    /// corruptions (swapped link serials, widened ranges) and assert the
    /// verifier reports them.  Never call this from production code.
    #[doc(hidden)]
    pub fn corrupt_frozen(&mut self) -> Option<&mut Frozen> {
        self.is_frozen.then_some(&mut self.frozen)
    }

    /// Test-support corruption hook: rewrites the path encoding of one trie
    /// node — the stored-sequence equivalent of flipping a designator —
    /// *without* invalidating the freeze or the links.
    #[doc(hidden)]
    #[expect(clippy::indexing_slicing, reason = "test hook: callers pass a node of this trie")]
    pub fn corrupt_set_path(&mut self, n: TrieNodeId, p: PathId) {
        self.path[n as usize] = p;
    }

    /// Queues a document's constraint sequence for the next
    /// [`SequenceTrie::freeze`] (Figure 7), invalidating the current one.
    pub fn insert(&mut self, seq: &Sequence, doc: DocId) {
        self.is_frozen = false;
        self.seq_count += 1;
        self.pending.push((seq.clone(), doc));
    }

    /// [`SequenceTrie::insert`] for a batch, in the given order.
    pub fn bulk_load(&mut self, seqs: Vec<(Sequence, DocId)>) {
        self.is_frozen = false;
        self.seq_count += seqs.len();
        self.pending.extend(seqs);
    }

    /// The `(sequence, doc)` pairs of the last freeze, read back by walking
    /// each end node's parent chain: ascending by sequence, each sequence's
    /// documents in arrival order.
    #[expect(clippy::indexing_slicing, reason = "end nodes are minted ids, parents smaller ones")]
    pub(crate) fn stored(&self) -> Vec<(Sequence, DocId)> {
        let mut out = Vec::with_capacity(self.docs.len());
        // The end-to-root chain of the current end node; every pair gets its
        // own exactly sized copy, reversed.
        let mut chain = Vec::new();
        for (end, docs) in self.doc_lists() {
            chain.clear();
            let mut cur = end;
            while cur != 0 {
                chain.push(self.path[cur as usize]);
                cur = self.parent[cur as usize];
            }
            let spell = || Sequence(chain.iter().rev().copied().collect());
            out.extend(docs.iter().map(|&doc| (spell(), doc)));
        }
        out
    }

    /// Builds the trie from everything inserted so far (Section 4.1 steps
    /// 1–3): one stable sort by sequence — ties keep arrival order — then a
    /// longest-common-prefix walk that creates the nodes in preorder, then
    /// `label_and_link`.  Idempotent; after further insertions it rebuilds
    /// from the stored sequences plus the new ones, which equals one
    /// `bulk_load` of the union.
    #[expect(clippy::indexing_slicing, reason = "lcp <= elems.len() by construction of the zip")]
    pub fn freeze(&mut self) {
        if self.is_frozen {
            return;
        }
        // Stored sequences come first and sorted, so the stable sort merges
        // two runs and ties put already indexed documents first.
        let mut run = self.stored();
        run.extend(std::mem::take(&mut self.pending));
        run.sort_by(|a, b| a.0.elems().cmp(b.0.elems()));

        let (mut path, mut parent) = (vec![PathId::ROOT], vec![NIL]);
        let mut end_nodes: Vec<TrieNodeId> = Vec::new();
        let mut doc_off: Vec<u32> = Vec::new();
        let mut docs: Vec<DocId> = Vec::with_capacity(run.len());
        // The open root-to-tip chain below the root, `chain[d]` the node
        // spelling the first `d + 1` elements of the previous sequence.
        let (mut chain, mut prev): (Vec<TrieNodeId>, &[PathId]) = (Vec::new(), &[]);
        for (seq, doc) in &run {
            let elems = seq.elems();
            let lcp = prev.iter().zip(elems).take_while(|(a, b)| a == b).count();
            chain.truncate(lcp);
            for &p in &elems[lcp..] {
                parent.push(chain.last().copied().unwrap_or(0));
                chain.push(path.len() as TrieNodeId);
                path.push(p);
            }
            let end = chain.last().copied().unwrap_or(0);
            if end_nodes.last() != Some(&end) {
                end_nodes.push(end);
                doc_off.push(docs.len() as u32);
            }
            docs.push(*doc);
            prev = elems;
        }
        doc_off.push(docs.len() as u32);
        let id_bound = docs.iter().max().map_or(0, |&d| d as usize + 1);
        path.shrink_to_fit();
        parent.shrink_to_fit();
        end_nodes.shrink_to_fit();
        doc_off.shrink_to_fit();

        let (end_bits, end_rank) = rank_directory(&end_nodes, path.len());
        self.frozen = Frozen {
            end_nodes,
            end_bits,
            end_rank,
            id_bound,
            ..label_and_link(&path, &parent)
        };
        self.path = path;
        self.parent = parent;
        self.docs = docs;
        self.doc_off = doc_off;
        self.is_frozen = true;
    }

    /// Structural equality with another trie: same preorder arrays, same
    /// document lists, same labels/links/end nodes, same pending run.  This
    /// is the "bit-identical to the sequential build" assertion of the
    /// parallel-build tests.
    pub fn identical_to(&self, other: &SequenceTrie) -> bool {
        self.path == other.path
            && self.parent == other.parent
            && self.docs == other.docs
            && self.doc_off == other.doc_off
            && self.frozen == other.frozen
            && self.is_frozen == other.is_frozen
            && self.pending == other.pending
            && self.seq_count == other.seq_count
    }

    /// The frozen labels/links; panics if [`SequenceTrie::freeze`] has not
    /// been called since the last insertion.
    // Every index constructor and mutation path re-freezes before returning,
    // so query-time callers always see a frozen trie.
    pub fn frozen(&self) -> &Frozen {
        assert!(self.is_frozen, "trie must be frozen before querying");
        &self.frozen
    }

    /// True when labels are current.
    pub fn is_frozen(&self) -> bool {
        self.is_frozen
    }

    /// The label `(n⊢, n⊣)` of a node.
    #[expect(clippy::indexing_slicing, reason = "frozen tables cover every freeze-minted id")]
    pub fn label(&self, n: TrieNodeId) -> (u32, u32) {
        (n, self.frozen().max_desc[n as usize])
    }

    /// The root label range `(n⊢, n⊣)` — the serial interval every descent
    /// starts from; traces attach it so a span can be located in the trie.
    pub fn root_range(&self) -> (u32, u32) {
        self.label(self.root())
    }

    /// Appends all document ids in end nodes with serial in `[lo, hi]`.
    pub fn collect_docs_in_range(&self, lo: u32, hi: u32, out: &mut Vec<DocId>) {
        out.extend_from_slice(self.docs_in(lo, hi));
    }

    /// In-memory footprint in bytes, used by the index-size experiments
    /// alongside the node count: the trie's [`HeapSize`], its one byte
    /// count.
    pub fn approx_bytes(&self) -> usize {
        self.heap_bytes()
    }
}

/// Labels a preorder `(path, parent)` trie and links equal paths (Section
/// 4.1 steps 2–3); the end-node registry is left for the caller to fill:
///
/// * `n⊣` by one reverse sweep — every descendant has a larger id, so a
///   node's value is final before it is folded into its parent;
/// * links by grouping nodes per path in ascending id, which is ascending
///   serial, each at its length when the trie's path ids are dense;
/// * `embeds_bits` from adjacent link entries, as each is pushed — a
///   node's range is a contiguous serial interval, so if any same-path node
///   lies inside it the next entry of the link does.
#[expect(clippy::indexing_slicing, reason = "parent[i] < i; all arrays have path.len() entries")]
fn label_and_link(path: &[PathId], parent: &[TrieNodeId]) -> Frozen {
    let n = path.len();
    let mut max_desc: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let p = parent[i] as usize;
        max_desc[p] = max_desc[p].max(max_desc[i]);
    }
    // Entries per path id, counted where the ids are dense: a link starts at
    // up to four entries, as a pushed one does, and its first growth goes
    // straight to its length, so it ends exact after at most two
    // allocations.  (Allocating every link at its length at its first entry
    // built as fast, but the queries the benchmark times after a database
    // is dropped ran ≈ 10 % slower.)  A memtable view's few nodes under a
    // large table's ids skip the column and grow their links as pushed.
    let top = path.iter().map(|p| p.0 as usize + 1).max().unwrap_or(0);
    let mut counts = vec![0u32; if top <= 4 * n { top } else { 0 }];
    if !counts.is_empty() {
        path.iter().skip(1).for_each(|p| counts[p.0 as usize] += 1);
    }
    let mut links: HashMap<PathId, Vec<LinkEntry>, _> = HashMap::default();
    let mut embeds_bits = vec![0u64; (n >> 6) + 1];
    for (serial, (&p, &max_desc)) in (0..).zip(path.iter().zip(&max_desc)).skip(1) {
        let count = counts.get(p.0 as usize).map_or(0, |&c| c as usize);
        let start = count.min(4);
        let link = links.entry(p).or_insert_with(|| Vec::with_capacity(start));
        if link.len() == link.capacity() {
            link.reserve_exact(count.saturating_sub(link.len()));
        }
        if let Some(prev) = link.last() {
            let (s, inside) = (prev.serial as usize, serial <= prev.max_desc);
            embeds_bits[s >> 6] |= u64::from(inside) << (s & 63);
        }
        link.push(LinkEntry { serial, max_desc });
    }
    Frozen {
        max_desc,
        embeds_bits,
        links,
        ..Frozen::default()
    }
}

/// Exact-model heap attribution: the node arrays, doc lists, pending run,
/// labels and links.  It charges *capacity* (what the allocator handed
/// out), models the link map with [`hash_table_alloc_bytes`], and is
/// validated against a counting allocator in the core crate's
/// `heap_accounting` test.
impl HeapSize for SequenceTrie {
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let f = &self.frozen;
        self.path.capacity() * size_of::<PathId>()
            + self.parent.capacity() * size_of::<TrieNodeId>()
            + self.docs.capacity() * size_of::<DocId>()
            + self.doc_off.capacity() * size_of::<u32>()
            + self.pending.heap_bytes()
            + f.max_desc.capacity() * size_of::<u32>()
            + f.embeds_bits.capacity() * size_of::<u64>()
            + f.end_nodes.capacity() * size_of::<TrieNodeId>()
            + f.end_bits.capacity() * size_of::<u64>()
            + f.end_rank.capacity() * size_of::<u32>()
            + hash_table_alloc_bytes(f.links.capacity(), size_of::<(PathId, Vec<LinkEntry>)>())
            + f.links
                .values()
                .map(|v| v.capacity() * size_of::<LinkEntry>())
                .sum::<usize>()
    }
}

impl TrieView for SequenceTrie {
    fn root(&self) -> TrieNodeId {
        SequenceTrie::root(self)
    }
    fn label(&self, n: TrieNodeId) -> (u32, u32) {
        SequenceTrie::label(self, n)
    }
    fn path(&self, n: TrieNodeId) -> PathId {
        SequenceTrie::path(self, n)
    }
    fn parent(&self, n: TrieNodeId) -> TrieNodeId {
        SequenceTrie::parent(self, n)
    }
    fn embeds_identical(&self, n: TrieNodeId) -> bool {
        let word = self.frozen().embeds_bits.get(n as usize >> 6);
        word.is_some_and(|w| w >> (n & 63) & 1 == 1)
    }
    type Link<'a> = &'a [LinkEntry];
    fn link(&self, path: PathId) -> &[LinkEntry] {
        self.frozen().links.get(&path).map_or(&[], Vec::as_slice)
    }
    fn collect_docs_in_range(&self, lo: u32, hi: u32, out: &mut Vec<DocId>) {
        SequenceTrie::collect_docs_in_range(self, lo, hi, out)
    }
    /// The ranges make spans of the document array.  Between two ranges
    /// the gap is tested for an end node ([`Frozen::end_bits`]): where
    /// none lies, the span goes on, and only where one does are the two
    /// ranks taken, from the word the test read.  So a span costs a rank
    /// at each end and a masked word per range it joins.  The spans go to
    /// the answer unread, with the freeze's id bound, so it settles its
    /// side of the density rule before reading an id.
    #[expect(clippy::indexing_slicing, reason = "ranks are <= end_nodes.len() < doc_off.len()")]
    fn add_docs_in_ranges(&self, ranges: &[(u32, u32)], answer: &mut Answer) -> u64 {
        let f = self.frozen();
        let mut spans = std::mem::take(&mut answer.spans);
        spans.clear();
        if let Some((&(lo, hi), rest)) = ranges.split_first() {
            // The rank where the open span starts, and the serial past it.
            let (mut a, mut past) = (f.end_index(lo), hi.saturating_add(1));
            for &(lo, hi) in rest {
                if let Some((b, next)) = f.separating(past, lo) {
                    spans.push((self.doc_off[a], self.doc_off[b]));
                    a = next;
                }
                past = hi.saturating_add(1);
            }
            let b = f.end_index(past).max(a);
            spans.push((self.doc_off[a], self.doc_off[b]));
        }
        let added = answer.add_spans(&self.docs, &spans, f.id_bound);
        answer.spans = spans;
        added
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xseq_xml::PathTable;
    use xseq_xml::{Symbol, SymbolTable, ValueMode};

    struct Fx {
        st: SymbolTable,
        pt: PathTable,
    }

    impl Fx {
        fn new() -> Self {
            Fx {
                st: SymbolTable::with_value_mode(ValueMode::Intern),
                pt: PathTable::new(),
            }
        }
        fn p(&mut self, spec: &str) -> PathId {
            let syms: Vec<Symbol> = spec.split('.').map(|s| self.st.elem(s)).collect();
            self.pt.intern(&syms)
        }
        fn seq(&mut self, specs: &[&str]) -> Sequence {
            Sequence(specs.iter().map(|s| self.p(s)).collect())
        }
    }

    #[test]
    fn insert_shares_prefixes() {
        let mut fx = Fx::new();
        let s1 = fx.seq(&["P", "P.A", "P.A.X"]);
        let s2 = fx.seq(&["P", "P.A", "P.A.Y"]);
        let mut trie = SequenceTrie::new();
        trie.insert(&s1, 0);
        trie.insert(&s2, 1);
        trie.freeze();
        // shared: P, P.A; distinct: X, Y → 4 nodes
        assert_eq!(trie.node_count(), 4);
        assert_eq!(trie.sequence_count(), 2);
    }

    #[test]
    fn identical_sequences_share_everything() {
        let mut fx = Fx::new();
        let s = fx.seq(&["P", "P.A"]);
        let mut trie = SequenceTrie::new();
        trie.insert(&s, 0);
        trie.insert(&s, 1);
        trie.freeze();
        assert_eq!(trie.node_count(), 2);
        // both docs on the same end node
        let f = trie.frozen();
        assert_eq!(f.end_nodes.len(), 1);
        assert_eq!(trie.docs_at(f.end_nodes[0]), &[0, 1]);
    }

    #[test]
    fn labels_are_preorder_ranges() {
        let mut fx = Fx::new();
        let s1 = fx.seq(&["P", "P.A", "P.A.X"]);
        let s2 = fx.seq(&["P", "P.B"]);
        let mut trie = SequenceTrie::new();
        trie.insert(&s1, 0);
        trie.insert(&s2, 1);
        trie.freeze();
        let f = trie.frozen();
        // Every node's range contains its descendants' serials, and the
        // root's range spans everything.
        let (rs, rm) = trie.label(trie.root());
        assert_eq!(rs, 0);
        assert_eq!(rm as usize, trie.node_count());
        for n in 1..=trie.node_count() as TrieNodeId {
            let (s, m) = trie.label(n);
            assert!(s <= m);
            let parent = trie.parent(n);
            let (ps, pm) = trie.label(parent);
            assert!(ps < s && m <= pm, "child range nested in parent");
        }
        let _ = f;
    }

    #[test]
    fn path_links_ascending_and_complete() {
        let mut fx = Fx::new();
        let s1 = fx.seq(&["P", "P.A", "P.A.X"]);
        let s2 = fx.seq(&["P", "P.A", "P.A.Y"]);
        let s3 = fx.seq(&["P", "P.B", "P.A"]);
        let mut trie = SequenceTrie::new();
        trie.insert(&s1, 0);
        trie.insert(&s2, 1);
        trie.insert(&s3, 2);
        trie.freeze();
        let pa = fx.p("P.A");
        let link = &trie.frozen().links[&pa];
        // two P.A trie nodes: the shared second-position one and s3's third
        assert_eq!(link.len(), 2);
        assert!(link.windows(2).all(|w| w[0].serial < w[1].serial));
        // total link entries == node count
        let total: usize = trie.frozen().links.values().map(Vec::len).sum();
        assert_eq!(total, trie.node_count());
    }

    #[test]
    fn embeds_identical_detection() {
        let mut fx = Fx::new();
        // ⟨P, PL, PLS, PL, PLB⟩ — inserting this one sequence nests the
        // second PL under the first (Figure 10).
        let s = fx.seq(&["P", "P.L", "P.L.S", "P.L", "P.L.B"]);
        let mut trie = SequenceTrie::new();
        trie.insert(&s, 0);
        trie.freeze();
        let pl = fx.p("P.L");
        let link = &trie.frozen().links[&pl];
        assert_eq!(link.len(), 2);
        // ranges nest: first PL covers the second
        let (a, b) = (link[0], link[1]);
        assert!(a.serial < b.serial && b.max_desc <= a.max_desc);
        // the outer PL embeds an identical sibling; the inner does not
        assert!(TrieView::embeds_identical(&trie, a.serial));
        assert!(!TrieView::embeds_identical(&trie, b.serial));
    }

    #[test]
    fn nearest_ancestor_with_path() {
        let mut fx = Fx::new();
        let s = fx.seq(&["P", "P.L", "P.L.S", "P.L", "P.L.B"]);
        let mut trie = SequenceTrie::new();
        trie.insert(&s, 0);
        trie.freeze();
        let pl = fx.p("P.L");
        let plb = fx.p("P.L.B");
        let link_plb = &trie.frozen().links[&plb];
        let b_node = link_plb[0].serial;
        let link_pl = &trie.frozen().links[&pl];
        // PLB's nearest PL ancestor is the *second* PL
        assert_eq!(
            trie.nearest_ancestor_with_path(b_node, pl),
            Some(link_pl[1].serial)
        );
    }

    #[test]
    fn collect_docs_in_range() {
        let mut fx = Fx::new();
        let s1 = fx.seq(&["P", "P.A"]);
        let s2 = fx.seq(&["P", "P.A", "P.A.X"]);
        let s3 = fx.seq(&["P", "P.B"]);
        let mut trie = SequenceTrie::new();
        trie.insert(&s1, 10);
        trie.insert(&s2, 20);
        trie.insert(&s3, 30);
        trie.freeze();
        let mut out = Vec::new();
        let (rs, rm) = trie.label(trie.root());
        trie.collect_docs_in_range(rs, rm, &mut out);
        out.sort();
        assert_eq!(out, vec![10, 20, 30]);

        // only the P.A subtree
        let pa = fx.p("P.A");
        let first_pa = trie.frozen().links[&pa][0];
        out.clear();
        trie.collect_docs_in_range(first_pa.serial, first_pa.max_desc, &mut out);
        out.sort();
        assert_eq!(out, vec![10, 20]);
    }

    #[test]
    fn bulk_load_equals_incremental() {
        let mut fx = Fx::new();
        let seqs = vec![
            (fx.seq(&["P", "P.B"]), 0),
            (fx.seq(&["P", "P.A", "P.A.X"]), 1),
            (fx.seq(&["P", "P.A"]), 2),
        ];
        let mut a = SequenceTrie::new();
        for (s, d) in &seqs {
            a.insert(s, *d);
        }
        let mut b = SequenceTrie::new();
        b.bulk_load(seqs);
        a.freeze();
        b.freeze();
        assert_eq!(a.node_count(), b.node_count());
        let mut da = Vec::new();
        let mut db = Vec::new();
        a.collect_docs_in_range(0, u32::MAX, &mut da);
        b.collect_docs_in_range(0, u32::MAX, &mut db);
        da.sort();
        db.sort();
        assert_eq!(da, db);
    }

    #[test]
    fn insert_after_freeze_invalidates() {
        let mut fx = Fx::new();
        let s = fx.seq(&["P"]);
        let mut trie = SequenceTrie::new();
        trie.insert(&s, 0);
        trie.freeze();
        assert!(trie.is_frozen());
        let s2 = fx.seq(&["P", "P.A"]);
        trie.insert(&s2, 1);
        assert!(!trie.is_frozen());
        trie.freeze();
        assert_eq!(trie.node_count(), 2);
    }

    #[test]
    #[should_panic(expected = "must be frozen")]
    fn query_before_freeze_panics() {
        let trie = SequenceTrie::new();
        let _ = trie.frozen();
    }
}
