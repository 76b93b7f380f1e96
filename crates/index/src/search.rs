//! Constraint subsequence matching (Section 4.2), in its order-free form.
//!
//! Candidates for a query element are the entries of its horizontal path
//! link whose serial lies in a matched node's range `(v⊢, v⊣]` (binary
//! search — the links are in ascending serial order), so matched nodes lie
//! on a single root-to-leaf trie path, with nested label ranges.  Each
//! query-tree edge must also pass condition 2 of Definition 3: the matched
//! node's *closest same-path trie ancestor* for its query-tree parent path
//! must be exactly the node matched for that parent — the "not
//! sibling-covered" condition of Definition 4/Theorem 3 (in a trie merged
//! across documents, same-path nodes inside a range may sit on disjoint
//! branches, so the ancestor walk is the faithful generalization of the
//! consecutive-link-entry check).  Following Algorithm 1's `ins` set, the
//! check is only evaluated when the anchor node *embeds identical
//! siblings*; otherwise it holds vacuously.
//!
//! [`tree_search`] places the elements in any order, not the sequence's
//! (DESIGN.md §5.0).  The paper's left-to-right Algorithm 1 and ViST's naïve
//! matching live in `xseq-baselines`.

use crate::delta::Tombstones;
use crate::trie::{gallop, LinkEntry, PathLink, TrieNodeId, TrieView, NIL};
use std::collections::HashMap;
use xseq_sequence::{emit_sequence, Sequence, Strategy};
use xseq_xml::{DocId, Document, PathId, PathTable};

/// Drops tombstoned document ids from a result list — the *− tombstones*
/// step of the update model's *frozen ∪ delta − tombstones* query semantics
/// (see [`delta`](crate::delta)), one binary search per id.
///
/// Queries take this step inside [`Answer::finish`], which this function
/// specifies; the matcher inner loops never look at the tombstone set.
/// Filtering only ever removes ids the caller deleted, so Theorem 2's
/// no-false-alarm guarantee is preserved and no false dismissals are
/// introduced.
pub fn filter_tombstones(docs: &mut Vec<DocId>, tombstones: &Tombstones) {
    if tombstones.is_empty() || docs.is_empty() {
        return;
    }
    docs.retain(|d| !tombstones.contains(*d));
}

/// The union of sorted, distinct id lists, with no sort — the shard
/// gather, whose shards partition the id space.  One list moves through
/// untouched, and lists whose id ranges follow one another are joined end
/// to end.  Lists whose ranges overlap are merged two at a time, an id
/// heading both taken once.  Equals concatenating, sorting and
/// deduplicating.
pub fn union_answers(mut lists: Vec<Vec<DocId>>) -> Vec<DocId> {
    lists.retain(|l| !l.is_empty());
    lists.sort_unstable_by_key(|l| l.first().copied());
    let mut neighbours = lists.iter().zip(lists.iter().skip(1));
    if lists.len() > 1 && neighbours.all(|(a, b)| a.last() < b.first()) {
        lists = vec![lists.concat()];
    }
    while lists.len() > 1 {
        let mut pairs = lists.into_iter();
        let mut merged = Vec::new();
        while let Some(a) = pairs.next() {
            merged.push(match pairs.next() {
                Some(b) => merge(&a, &b),
                None => a,
            });
        }
        lists = merged;
    }
    lists.pop().unwrap_or_default()
}

/// The union of two sorted, distinct lists.
fn merge(a: &[DocId], b: &[DocId]) -> Vec<DocId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while let (Some(&x), Some(&y)) = (a.get(i), b.get(j)) {
        if x <= y {
            out.push(x);
            i += 1;
            j += usize::from(x == y);
        } else {
            out.push(y);
            j += 1;
        }
    }
    out.extend_from_slice(a.get(i..).unwrap_or_default());
    out.extend_from_slice(b.get(j..).unwrap_or_default());
    out
}

/// One query's answer, accumulated across its searches: every
/// (assignment, segment) search adds the documents of its collected ranges,
/// and [`Answer::finish`] reads the union out once, minus the tombstones,
/// ascending and distinct.
///
/// While the answer is sparse the ids are appended.  Once it is dense — at
/// least 64 ids added, and a bitmap over the id space of at most four words
/// per id added — they are set in a bitmap instead, so a document two
/// searches found costs nothing twice and no sort is needed.  The rule
/// depends only on density, so a dense answer spans at most 32 bytes of
/// bitmap per id added, and an answer of a few ids near `u32::MAX`
/// allocates none.  A trie hands a search's ranges over as spans of its
/// document array with the bound of its ids, so the rule is settled once
/// per search, from the span lengths, and the ids are then read once:
/// set as bits, or appended.  The finish zeroes each word as it reads it,
/// so the bitmap stays allocated, and zero, from one query to the next
/// (DESIGN.md §5.1).
#[derive(Debug, Default)]
pub struct Answer {
    /// Sparse: every id added, in arrival order, repeats included.
    ids: Vec<DocId>,
    /// Dense: bit `d % 64` of word `d / 64` for every id added.  All zero
    /// while the answer is sparse.
    bits: Vec<u64>,
    /// Whether the ids are in `bits`.
    dense: bool,
    /// Dense: the bits set, so the finish reserves without counting.
    live: usize,
    /// Ids added, repeats included: the density rule's count.
    added: usize,
    /// One past the largest id, at least the id space [`Answer::begin`] set.
    bound: usize,
    /// The spans of a trie read, kept from one search to the next.
    pub(crate) spans: Vec<(u32, u32)>,
    /// The ids of a range-by-range read, kept from one search to the next.
    pub(crate) staged: Vec<DocId>,
}

impl Answer {
    /// Starts an empty answer over the ids below `id_space`.  The space
    /// sizes the bitmap; an id past it is still taken.
    pub fn begin(&mut self, id_space: usize) {
        if self.dense {
            self.bits.fill(0); // an answer never finished
        }
        self.ids.clear();
        self.dense = false;
        self.added = 0;
        self.bound = id_space;
    }

    /// Adds `ids`, which may repeat ids already added, and returns how
    /// many.
    pub fn add(&mut self, ids: &[DocId]) -> u64 {
        let bound = ids.iter().max().map_or(0, |&top| top as usize + 1);
        self.add_spans(ids, &[(0, ids.len() as u32)], bound)
    }

    /// Adds `docs[a..b]` for every span `(a, b)`, ids below `id_bound`, and
    /// returns how many.  The count comes from the span lengths, so the
    /// rule is settled before any id is read: the answer is dense exactly
    /// while the rule holds for what was added so far, and ids past the
    /// bitmap that break it move the answer back to the list.  An id at or
    /// past `id_bound` is still taken, by a second pass with the bound it
    /// shows.
    pub(crate) fn add_spans(
        &mut self,
        docs: &[DocId],
        spans: &[(u32, u32)],
        id_bound: usize,
    ) -> u64 {
        let count: usize = spans
            .iter()
            .map(|&(a, b)| b.saturating_sub(a) as usize)
            .sum();
        if count == 0 {
            return 0;
        }
        let read = || {
            spans
                .iter()
                .map(|&(a, b)| docs.get(a as usize..b as usize).unwrap_or_default())
        };
        self.added += count;
        self.bound = self.bound.max(id_bound);
        let words = self.bound.div_ceil(64);
        if self.added < 64 || words > 4 * self.added {
            if self.dense {
                let mut ids = std::mem::take(&mut self.ids);
                self.drain_bits(&mut ids);
                self.ids = ids;
            }
            self.ids.reserve(count);
            read().for_each(|ids| self.ids.extend_from_slice(ids));
            return count as u64;
        }
        if self.bits.len() < words {
            self.bits.resize(words, 0);
        }
        // A local slice and count: through `self`, this loop ran ≈ 15 %
        // slower on answers of 5 000 ids.
        let bits = self.bits.get_mut(..words).unwrap_or_default();
        let (mut live, mut past) = (if self.dense { self.live } else { 0 }, 0);
        let staged = if self.dense { &[][..] } else { &self.ids[..] };
        for ids in std::iter::once(staged).chain(read()) {
            for &d in ids {
                let (w, bit) = word_and_bit(d);
                match bits.get_mut(w) {
                    Some(word) => {
                        live += usize::from(*word & bit == 0);
                        *word |= bit;
                    }
                    None => past = past.max(d as usize + 1),
                }
            }
        }
        self.dense = true;
        self.live = live;
        if past > 0 {
            // Only a bound too low shows an id past it.  The bits go back
            // to the list, which still holds what it staged, and the spans
            // are added again with the bound they showed.
            let mut ids = std::mem::take(&mut self.ids);
            self.drain_bits(&mut ids);
            self.ids = ids;
            self.added -= count;
            return self.add_spans(docs, spans, past);
        }
        self.ids.clear();
        count as u64
    }

    /// Whether the ids are set in the bitmap rather than appended.
    pub fn is_dense(&self) -> bool {
        self.dense
    }

    /// Appends the answer to `out`, minus the ascending `tombstones`,
    /// ascending and distinct, reserving exactly its length; the answer is
    /// left empty.  A dense answer clears each tombstone's bit and reads
    /// the words in order; a sparse one is sorted and deduplicated, and
    /// the tombstones drop out in one pass walked beside it, so each costs
    /// the log of the distance the walk moves.
    pub fn finish(&mut self, tombstones: &[DocId], out: &mut Vec<DocId>) {
        if self.dense {
            for &t in tombstones {
                let (w, bit) = word_and_bit(t);
                let Some(word) = self.bits.get_mut(w) else {
                    break;
                };
                self.live -= usize::from(*word & bit != 0);
                *word &= !bit;
            }
            out.reserve_exact(self.live);
            self.drain_bits(out);
            return;
        }
        self.ids.sort_unstable();
        self.ids.dedup();
        if !tombstones.is_empty() {
            let mut dead = Graveyard(tombstones);
            self.ids.retain(|&d| !dead.holds(d));
        }
        out.reserve_exact(self.ids.len());
        out.extend_from_slice(&self.ids);
        self.ids.clear();
    }

    /// Appends the bitmap's ids to `out` in order, zeroing each word as it
    /// reads it, and leaves the answer sparse.
    fn drain_bits(&mut self, out: &mut Vec<DocId>) {
        self.dense = false;
        let words = self.bound.div_ceil(64);
        let bits = self.bits.iter_mut().take(words);
        for (w, word) in bits.enumerate() {
            let mut rest = std::mem::take(word);
            while rest != 0 {
                out.push(w as DocId * 64 + rest.trailing_zeros());
                rest &= rest - 1;
            }
        }
    }
}

/// The word of an id in a bitmap, and its bit there.
#[expect(clippy::integer_division_remainder_used, reason = "the divisor is the literal 64")]
fn word_and_bit(d: DocId) -> (usize, u64) {
    (d as usize / 64, 1 << (d % 64))
}

/// The tombstones not yet passed, asked about ascending document ids.
struct Graveyard<'a>(&'a [DocId]);

impl Graveyard<'_> {
    /// Whether `d` is tombstoned; moves past every tombstone below it.
    fn holds(&mut self, d: DocId) -> bool {
        let ids = self.0;
        let passed = gallop(0, ids.len(), |i| ids.get(i).is_some_and(|&t| t < d));
        self.0 = ids.get(passed..).unwrap_or_default();
        self.0.first() == Some(&d)
    }
}

/// A query sequence with its tree-parent structure: `parent_pos[i]` is the
/// sequence position of element `i`'s parent in the query tree (`None` for
/// the query root).
#[derive(Debug, Clone)]
pub struct QuerySequence {
    /// Path encodings in match order.
    pub paths: Vec<PathId>,
    /// Position of each element's query-tree parent.
    pub parent_pos: Vec<Option<u32>>,
}

impl QuerySequence {
    /// Sequences a concrete query tree with the index's strategy and records
    /// the parent positions, against a **frozen** path table: nothing is
    /// interned, so it takes `&PathTable` and can run from many query
    /// threads at once.  Returns `None` when some query node's path is
    /// absent from the table — no indexed document contains that path, so
    /// this concrete query tree provably matches nothing.
    pub fn from_document_readonly(
        doc: &Document,
        paths: &PathTable,
        strategy: &Strategy,
    ) -> Option<Self> {
        let (seq, nodes) = emit_sequence(doc, &doc.path_encode_readonly(paths)?, strategy);
        Some(Self::with_parents(doc, seq, &nodes))
    }

    /// `seq` as emitted from `doc`'s `nodes`, with each element's tree
    /// parent resolved to its sequence position.
    #[expect(clippy::indexing_slicing, reason = "every node is emitted, so pos_of has each parent")]
    fn with_parents(doc: &Document, seq: Sequence, nodes: &[u32]) -> Self {
        let pos_of: HashMap<u32, u32> = nodes
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, i as u32))
            .collect();
        let parent_pos = nodes
            .iter()
            .map(|&n| doc.parent(n).map(|p| pos_of[&p]))
            .collect();
        QuerySequence {
            paths: seq.0,
            parent_pos,
        }
    }

    /// A raw sequence where each element's parent is its path-parent's most
    /// recent earlier occurrence — correct for sequences of full documents
    /// where ancestors precede descendants (used by tests and the ViST
    /// baseline, whose query sequences are depth-first).
    pub fn from_sequence(seq: &Sequence, paths: &PathTable) -> Self {
        let mut last: HashMap<PathId, u32> = HashMap::new();
        let mut parent_pos = Vec::with_capacity(seq.len());
        for (i, &p) in seq.elems().iter().enumerate() {
            let t = paths.parent(p);
            parent_pos.push(if t == PathId::ROOT {
                None
            } else {
                last.get(&t).copied()
            });
            last.insert(p, i as u32);
        }
        QuerySequence {
            paths: seq.elems().to_vec(),
            parent_pos,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// True for the empty query.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }
}

/// Counters describing one search's work, for the performance experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Candidate link entries examined.  In [`tree_search`] every entry of
    /// the seed's link counts, except those skipped inside an already
    /// collected range.
    pub candidates: u64,
    /// Candidates rejected by the sibling-cover (constraint) check.
    pub cover_rejections: u64,
    /// Match completions (alignments reaching the end of the query).
    pub completions: u64,
    /// Path-link probes: one binary search (`link_lower_bound`) per link
    /// scan, plus one per jump of [`tree_search`] past an already collected
    /// range — a gallop forward from where the scan stands.
    pub link_probes: u64,
}

impl SearchStats {
    /// Sums `other`'s counters into `self`: the segments of one variant,
    /// the variants of one query, the shards of one gather.
    pub fn absorb(&mut self, other: SearchStats) {
        self.candidates += other.candidates;
        self.cover_rejections += other.cover_rejections;
        self.completions += other.completions;
        self.link_probes += other.link_probes;
    }
}

/// Reusable per-query buffers for the matchers: the search order, the
/// alignment stacks, the collected ranges and the query's [`Answer`].  A
/// warm scratch — one per thread, e.g. per batch worker — reuses their
/// capacity instead of allocating.  [`tree_search_with`] leaves its sorted,
/// deduplicated result in [`SearchScratch::docs`]; a database query reads
/// its answer out of the accumulator once, after its last search.
#[derive(Debug, Default)]
pub struct SearchScratch {
    /// [`tree_search_with`]'s result: sorted, deduplicated doc ids.
    pub docs: Vec<DocId>,
    order: SeedOrder,
    matched: Vec<TrieNodeId>,
    used: Vec<TrieNodeId>,
    collected: Collected,
    pub(crate) answer: Answer,
}

impl SearchScratch {
    /// A fresh (cold) scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The serial ranges `[n⊢, n⊣]` one [`tree_search`]'s completions have
/// reached: ascending and disjoint.  Trie subtrees are laminar, so a new range
/// either lies past the last one — the common case, since links are scanned
/// in ascending serial order — or swallows a run of earlier ones.  The
/// documents are read once, from the final list, when the search ends.
#[derive(Debug, Default)]
struct Collected {
    ranges: Vec<(u32, u32)>,
    /// The last slot's scan: the ranges past its tip, set aside while it
    /// appends its own.
    aside: Vec<(u32, u32)>,
}

impl Collected {
    /// The upper end of the collected range holding serial `s`, if any.
    fn covering(&self, s: u32) -> Option<u32> {
        let &(lo, hi) = self.ranges.last()?;
        if s > hi {
            return None;
        }
        if s >= lo {
            return Some(hi);
        }
        let i = self.ranges.partition_point(|&(lo, _)| lo <= s);
        let &(_, hi) = self.ranges.get(i.checked_sub(1)?)?;
        (s <= hi).then_some(hi)
    }

    /// Records `[lo, hi]`, which no collected range covers: the ranges that
    /// start inside it nest in it, so they are replaced by it.
    fn insert(&mut self, lo: u32, hi: u32) {
        if self.ranges.last().is_none_or(|&(_, last)| last < lo) {
            self.ranges.push((lo, hi));
            return;
        }
        let a = self.ranges.partition_point(|&(l, _)| l < lo);
        let b = self.ranges.partition_point(|&(l, _)| l <= hi);
        // l < lo implies l <= hi, so a <= b <= len
        self.ranges.splice(a..b, [(lo, hi)]);
    }
}

/// Order-free constraint matching.
///
/// Algorithm 1 aligns the query sequence left to right, which is complete
/// only when the sequencing strategy orders any two distinct paths the same
/// way in every document and query.  The probability strategy does *not*
/// guarantee that: Algorithm 2 emits an identical-sibling subtree
/// contiguously, so where a low-priority node lands relative to unrelated
/// paths depends on subtree content, and a structurally-present query can
/// fail to align (a false dismissal the paper's isomorphism expansion does
/// not cover).
///
/// The fix follows from the proof of Theorem 3 itself: a document matches
/// iff the query elements can be assigned — *in any order* — to distinct
/// trie nodes that (a) lie on one root-to-leaf chain reaching the document,
/// (b) carry the right paths, and (c) have, for each query-tree edge
/// `a → b`, the closest same-path trie ancestor of `m(b)` for `a`'s path
/// equal to `m(a)` (the not-sibling-covered condition).  Any valid
/// constraint sequence of a containing document admits such an assignment
/// regardless of emission order, so this search is complete for every valid
/// strategy and needs no isomorphic query expansion at all.
///
/// Being order-free, the search starts where the query is rarest — the
/// paper's "Impact 2", highly selective elements early shrink the search
/// space.  The *seed* is the query leaf with the shortest path link (ties
/// to the lowest position); a parents-first order would place it last.
/// For each entry `r` of the seed's link, each query ancestor of the seed
/// has exactly one possible match: the nearest trie ancestor carrying its
/// path, found by one upward walk from `r`.  The walk stops at the topmost
/// ancestor that anchors another query branch; above it `f2` guarantees the
/// chain.  The other elements are then placed parents first, most selective
/// first, below the tip or on the chain above it.  Every result of a branch
/// lies in the subtree of its tip, so a branch whose tip lies in a range
/// already collected is skipped, and a link scan gallops past such a range
/// from where it stands, which counts as one probe.  DESIGN.md §5.0 gives the
/// argument.
///
/// The answer costs what it holds.  A completion only records its range.
/// The last slot's link scan is one loop that takes each completion's
/// range from its link entry and checks coverage against the last range
/// collected (DESIGN.md §5.0).  The maximal ranges are read at the end
/// ([`TrieView::add_docs_in_ranges`]): on the in-memory trie they make
/// spans of the document array, ranked by the end-node directory only
/// where an end node lies between two ranges.  They are disjoint and a
/// document ends at one end node, so no id is read twice.  The [`Answer`]
/// settles its density rule from the span lengths and the trie's id bound,
/// then sets a dense answer's ids as bits straight from the document
/// array, with no sort (DESIGN.md §5.1).
pub fn tree_search<V: TrieView + ?Sized>(trie: &V, q: &QuerySequence) -> (Vec<DocId>, SearchStats) {
    let mut scratch = SearchScratch::new();
    let stats = tree_search_with(trie, q, &mut scratch);
    (std::mem::take(&mut scratch.docs), stats)
}

/// [`tree_search`] into a caller-provided scratch: the sorted, deduplicated
/// result is left in `scratch.docs`, and warm buffers are reused instead of
/// allocated.
pub fn tree_search_with<V: TrieView + ?Sized>(
    trie: &V,
    q: &QuerySequence,
    scratch: &mut SearchScratch,
) -> SearchStats {
    scratch.answer.begin(0);
    let (stats, _) = search_into(trie, q, scratch);
    scratch.docs.clear();
    scratch.answer.finish(&[], &mut scratch.docs);
    stats
}

/// The walk of [`tree_search`]: adds the documents of its collected ranges
/// to `scratch`'s [`Answer`], and returns its counters and how many ids it
/// added — the documents it matched, none twice.
pub(crate) fn search_into<V: TrieView + ?Sized>(
    trie: &V,
    q: &QuerySequence,
    scratch: &mut SearchScratch,
) -> (SearchStats, u64) {
    let mut stats = SearchStats::default();
    scratch.matched.clear();
    scratch.used.clear();
    scratch.collected.ranges.clear();
    // Each element's link, resolved once: on the stack for a pattern of
    // up to `INLINE_LINKS` elements, on the heap past that.
    let mut inline: [Option<V::Link<'_>>; INLINE_LINKS] = Default::default();
    let mut spilled = Vec::new();
    let links = if q.len() <= INLINE_LINKS {
        for (slot, &p) in inline.iter_mut().zip(&q.paths) {
            *slot = Some(trie.link(p));
        }
        inline.get(..q.len()).unwrap_or_default()
    } else {
        spilled.extend(q.paths.iter().map(|&p| Some(trie.link(p))));
        &spilled[..]
    };
    if q.is_empty() || links.iter().flatten().any(PathLink::is_empty) {
        return (stats, 0); // no query, or a path that never occurs in the data
    }
    // Taken out for the walk, which reads it while it writes the rest.
    let mut order = std::mem::take(&mut scratch.order);
    if order.plan(q, links) {
        scratch.matched.resize(q.len(), NIL);
        scratch.used.reserve(q.len());
        let walk = Walk {
            trie,
            q,
            links,
            order,
        };
        walk.go(0, trie.root(), scratch, &mut stats);
        order = walk.order;
    } else {
        // Unreachable: parent_pos forms a forest, so it has a leaf and
        // every element is reached parents first.  Degrade to an empty
        // result rather than panic on the query path.
        debug_assert!(false, "query parents do not form a forest");
    }
    scratch.order = order;
    // Disjoint ranges read no id twice, so the count added is exact.
    let ranges = &scratch.collected.ranges;
    debug_assert!(
        ranges.windows(2).all(|w| matches!(w, [a, b] if a.1 < b.0)),
        "{ranges:?}"
    );
    let added = trie.add_docs_in_ranges(ranges, &mut scratch.answer);
    (stats, added)
}

/// The elements whose links [`search_into`] resolves without allocating.
const INLINE_LINKS: usize = 8;

/// The rest of a last-slot scan once no cover check applies and no range
/// is set aside: each entry of `run` is held by `reach`, the end of the
/// last range collected, or completes.  The pass has no branch on that:
/// every entry's range is written, the cursor moves only past a
/// completion, and `reach` takes the larger end.  That is exact because
/// trie ranges are laminar: a held entry lies in the last range, so its
/// range ends within it, and a completion's ends past it.  Returns the
/// completions and the held runs, one probe each, as the general loop's
/// gallop past a run counts it.
#[expect(clippy::indexing_slicing, reason = "w <= the index of the entry read < run.len()")]
fn hold_or_complete(run: &[LinkEntry], mut reach: u32, ranges: &mut Vec<(u32, u32)>) -> (u64, u64) {
    let base = ranges.len();
    ranges.resize(base + run.len(), (0, 0));
    let out = &mut ranges[base..];
    let (mut w, mut runs, mut was_held) = (0, 0, false);
    for e in run {
        let held = e.serial <= reach;
        out[w] = (e.serial, e.max_desc);
        w += usize::from(!held);
        runs += u64::from(held & !was_held);
        was_held = held;
        reach = reach.max(e.max_desc);
    }
    ranges.truncate(base + w);
    (w as u64, runs)
}

/// The order of [`tree_search`], planned into buffers a warm scratch
/// keeps.
#[derive(Debug, Default)]
struct SeedOrder {
    /// Per element: a leaf while the seed is chosen, then placed.
    flags: Vec<bool>,
    /// The seed, then every element off its ancestor chain, parents first
    /// and most selective first.
    order: Vec<usize>,
    /// The seed's ancestors its upward walk matches, nearest first, up to
    /// the topmost one anchoring another query branch.
    ascent: Vec<usize>,
}

impl SeedOrder {
    /// Plans `q`'s order; `false` when `parent_pos` is not a forest.
    #[expect(clippy::indexing_slicing, reason = "positions < n; the first loop checks parents < n")]
    fn plan(&mut self, q: &QuerySequence, links: &[Option<impl PathLink>]) -> bool {
        let n = links.len();
        let len = |e: usize| links[e].as_ref().map_or(0, PathLink::len);
        let Self {
            flags,
            order,
            ascent,
        } = self;
        flags.clear();
        flags.resize(n, true);
        for &pp in q.parent_pos.iter().flatten() {
            let Some(leaf) = flags.get_mut(pp as usize) else {
                return false;
            };
            *leaf = false;
        }
        // A leaf, not the rarest element: the query root's link is the one
        // node every document shares, and seeding there prunes nothing.
        let Some(seed) = (0..n).filter(|&e| flags[e]).min_by_key(|&e| len(e)) else {
            return false;
        };
        let placed = flags;
        placed.fill(false);
        placed[seed] = true;
        ascent.clear();
        let mut cur = seed;
        while let Some(pp) = q.parent_pos[cur] {
            cur = pp as usize;
            if std::mem::replace(&mut placed[cur], true) {
                return false; // a cycle
            }
            ascent.push(cur);
        }
        let anchors_branch =
            |a: usize| (0..n).any(|e| !placed[e] && q.parent_pos[e] == Some(a as u32));
        let top = ascent.iter().rposition(|&a| anchors_branch(a));
        ascent.truncate(top.map_or(0, |t| t + 1));
        order.clear();
        order.push(seed);
        while let Some(e) = (0..n)
            .filter(|&e| !placed[e] && q.parent_pos[e].is_none_or(|pp| placed[pp as usize]))
            .min_by_key(|&e| len(e))
        {
            placed[e] = true;
            order.push(e);
        }
        !placed.contains(&false)
    }
}

/// The fixed inputs of one [`tree_search_with`] call.
struct Walk<'a, 'l, V: TrieView + ?Sized> {
    trie: &'a V,
    q: &'a QuerySequence,
    /// Each element's link, resolved once; every element has one.
    links: &'l [Option<V::Link<'a>>],
    /// The seed, then the elements off its ancestor chain; the seed's
    /// ascent.
    order: SeedOrder,
}

impl<V: TrieView + ?Sized> Walk<'_, '_, V> {
    /// Slot `k` of the search: matches element `order[k]` below `tip`, the
    /// deepest matched trie node, or on the chain above it.  The last slot
    /// completes each candidate it accepts in place.
    #[expect(clippy::indexing_slicing, reason = "k < order.len(); positions < q.len()")]
    fn go(&self, k: usize, tip: TrieNodeId, sc: &mut SearchScratch, stats: &mut SearchStats) {
        let trie = self.trie;
        let (_, tip_max) = trie.label(tip);
        let i = self.order.order[k];
        let last = k + 1 == self.order.order.len();
        // The seed is the last slot only when no other branch exists, and
        // then its walk up matches nothing.
        debug_assert!(k > 0 || !last || self.order.ascent.is_empty());
        let path = self.q.paths[i];
        let Some(link) = &self.links[i] else {
            return;
        };
        // The seed's parent is not placed before it: its walk up matches it.
        let anchor = self.q.parent_pos[i].filter(|_| k > 0).map(|pp| pp as usize);
        let anchor_node = anchor.map_or(trie.root(), |a| sc.matched[a]);

        // (1) candidates below the tip: link range (tip⊢, tip⊣], jumping
        // past every collected range — all it holds is already found.  The
        // entries it holds follow this one, so the jump gallops from here.
        if last {
            self.complete_below((tip, tip_max), link, anchor, sc, stats);
        } else {
            let len = link.len();
            stats.link_probes += 1;
            let mut idx = link.lower_bound(tip);
            while idx < len {
                let e = link.entry(idx);
                if e.serial > tip_max {
                    break;
                }
                if let Some(hi) = sc.collected.covering(e.serial) {
                    stats.link_probes += 1;
                    idx = gallop(idx + 1, len, |j| link.entry(j).serial <= hi);
                    continue;
                }
                self.try_candidate(k, anchor, e.serial, e.serial, sc, stats);
                idx += 1;
            }
        }
        // (2) candidates on the chain above the tip, strictly below the
        // anchor.  They keep the tip, so none is left once its range is.
        let mut cur = trie.parent(tip);
        while cur != NIL && cur > anchor_node {
            if trie.path(cur) == path {
                if sc.collected.covering(tip).is_some() {
                    break;
                }
                if !last {
                    self.try_candidate(k, anchor, cur, tip, sc, stats);
                } else {
                    stats.candidates += 1;
                    let range = (tip, tip_max);
                    if !sc.used.contains(&cur) && self.complete(anchor, cur, range, sc, stats) {
                        break;
                    }
                }
            }
            cur = trie.parent(cur);
        }
    }

    /// The last slot's candidates below the tip, in one pass over the link
    /// range `(tip⊢, tip⊣]`: each entry no collected range covers is a
    /// completion unless it is sibling-covered, and its range comes from
    /// the entry.
    ///
    /// What the scan needs of the query is fixed for it: the anchor's
    /// match, and whether it embeds identical siblings (read at the first
    /// candidate, where the per-candidate check read it first), so the
    /// ancestor walk runs only when it does.  Every entry scanned lies past
    /// the ranges collected, which start at or before the tip, and the
    /// ranges a scan completes follow one another, so the last range is the
    /// only one that can cover an entry.  Ranges collected under the tip
    /// before the scan are set aside and merged back as the scan passes
    /// them; a completion swallows those inside its own range.  A covered
    /// entry jumps past its range: the entry after it is tried first, the
    /// first step of [`gallop`], which goes on only when that one is
    /// covered too.  Counts are kept in locals and added once.
    ///
    /// Once a completion leaves no cover check to run and no range aside,
    /// an in-memory link finishes the tip's range in [`hold_or_complete`],
    /// which has no branch on whether an entry is held: the counts and the
    /// ranges are those of this loop (DESIGN.md §5.0).
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "the anchor is a placed position < q.len()")]
    fn complete_below(
        &self,
        (tip, tip_max): (TrieNodeId, u32),
        link: &V::Link<'_>,
        anchor: Option<usize>,
        sc: &mut SearchScratch,
        stats: &mut SearchStats,
    ) {
        let len = link.len();
        let mut idx = link.lower_bound(tip);
        stats.link_probes += 1;
        if idx == len || link.entry(idx).serial > tip_max {
            return; // most scans under a deep tip find nothing
        }
        let trie = self.trie;
        let matched = &sc.matched;
        let mut cover: Option<Option<(TrieNodeId, PathId)>> = None;
        let Collected { ranges, aside } = &mut sc.collected;
        let mut ahead = None;
        if ranges.last().is_some_and(|&(lo, _)| lo > tip) {
            let from = ranges.partition_point(|&(lo, _)| lo <= tip);
            aside.clear();
            aside.extend(ranges.drain(from..));
            ahead = aside.first().copied();
        }
        // The upper end of the last range (0 for none: every serial scanned
        // is past the tip), and the first range aside the scan has not
        // passed.
        let mut reach = ranges.last().map_or(0, |&(_, hi)| hi);
        let mut next = 0;
        let all = link.entries();
        let (mut candidates, mut rejections, mut completions, mut probes) = (0, 0, 0, 0);
        while idx < len {
            let e = link.entry(idx);
            if e.serial > tip_max {
                break;
            }
            while let Some(r) = ahead.filter(|&(_, hi)| hi < e.serial) {
                ranges.push(r);
                reach = r.1;
                next += 1;
                ahead = aside.get(next).copied();
            }
            let held = (e.serial <= reach).then_some(reach);
            let set_aside = ahead.filter(|&(lo, _)| lo <= e.serial);
            if let Some(hi) = held.or(set_aside.map(|(_, hi)| hi)) {
                probes += 1;
                idx += 1;
                if idx < len && link.entry(idx).serial <= hi {
                    idx = gallop(idx, len, |j| link.entry(j).serial <= hi);
                }
                continue;
            }
            candidates += 1;
            idx += 1;
            let cover = *cover.get_or_insert_with(|| {
                let m = anchor.map(|a| (matched[a], self.q.paths[a]));
                m.filter(|&(m, _)| trie.embeds_identical(m))
            });
            if let Some((m, parent)) = cover {
                if trie.nearest_ancestor_with_path(e.serial, parent) != Some(m) {
                    rejections += 1;
                    continue;
                }
            }
            completions += 1;
            while ahead.is_some_and(|(lo, _)| lo <= e.max_desc) {
                next += 1;
                ahead = aside.get(next).copied();
            }
            ranges.push((e.serial, e.max_desc));
            reach = e.max_desc;
            if let Some(all) = all.filter(|_| cover.is_none() && ahead.is_none()) {
                let end = gallop(idx, len, |j| {
                    all.get(j).is_some_and(|e| e.serial <= tip_max)
                });
                let rest = all.get(idx..end).unwrap_or_default();
                let (done, runs) = hold_or_complete(rest, reach, ranges);
                candidates += done;
                completions += done;
                probes += runs;
                break;
            }
        }
        if ahead.is_some() {
            ranges.extend_from_slice(aside.get(next..).unwrap_or_default());
        }
        stats.candidates += candidates;
        stats.cover_rejections += rejections;
        stats.completions += completions;
        stats.link_probes += probes;
    }

    /// Whether trie node `r`, placed under the match of query parent
    /// `anchor`, is sibling-covered: the anchor embeds identical siblings
    /// and is not `r`'s nearest ancestor carrying the parent's path.
    #[expect(clippy::indexing_slicing, reason = "the anchor is a placed position < q.len()")]
    fn covered(&self, anchor: Option<usize>, r: TrieNodeId, sc: &SearchScratch) -> bool {
        anchor.is_some_and(|a| {
            let m = sc.matched[a];
            self.trie.embeds_identical(m)
                && self.trie.nearest_ancestor_with_path(r, self.q.paths[a]) != Some(m)
        })
    }

    /// The last slot's candidate `r`: unless it is sibling-covered, the
    /// query completes and its answer is `range`.  `true` when it did.
    fn complete(
        &self,
        anchor: Option<usize>,
        r: TrieNodeId,
        (lo, hi): (u32, u32),
        sc: &mut SearchScratch,
        stats: &mut SearchStats,
    ) -> bool {
        if self.covered(anchor, r, sc) {
            stats.cover_rejections += 1;
            return false;
        }
        stats.completions += 1;
        sc.collected.insert(lo, hi);
        true
    }

    /// Places trie node `r` for element `order[k]`, which is not the last
    /// slot, unless it is used or sibling-covered, and searches on with
    /// `new_tip` the deepest node.  The seed's slot first matches the
    /// seed's ancestors from `r` upward.
    #[expect(clippy::indexing_slicing, reason = "positions < q.len(); parents are placed first")]
    fn try_candidate(
        &self,
        k: usize,
        anchor: Option<usize>,
        r: TrieNodeId,
        new_tip: TrieNodeId,
        sc: &mut SearchScratch,
        stats: &mut SearchStats,
    ) {
        stats.candidates += 1;
        if sc.used.contains(&r) {
            return;
        }
        if self.covered(anchor, r, sc) {
            stats.cover_rejections += 1;
            return;
        }
        let base = sc.used.len();
        sc.matched[self.order.order[k]] = r;
        sc.used.push(r);
        if k > 0 || self.climb(r, sc) {
            self.go(k + 1, new_tip, sc, stats);
        }
        sc.used.truncate(base);
    }

    /// Matches the seed's ancestors upward from its match `r`.  Below a
    /// match `m(a)`, the cover condition holds iff `m(a)` is the nearest
    /// ancestor of `m(b)` carrying `a`'s path, so that node is the only
    /// candidate.  `false` when one is missing, which `f2` rules out.
    #[expect(clippy::indexing_slicing, reason = "ascent holds positions below matched.len()")]
    fn climb(&self, r: TrieNodeId, sc: &mut SearchScratch) -> bool {
        let mut cur = r;
        for &a in &self.order.ascent {
            let Some(m) = self.trie.nearest_ancestor_with_path(cur, self.q.paths[a]) else {
                debug_assert!(false, "f2: a query parent's path labels a trie ancestor");
                return false;
            };
            sc.matched[a] = m;
            sc.used.push(m);
            cur = m;
        }
        true
    }
}

#[cfg(test)]
mod query_sequence_tests {
    use super::*;
    use xseq_sequence::Strategy;
    use xseq_xml::{Document, SymbolTable, ValueMode};

    #[test]
    fn from_document_records_tree_parents() {
        // P(A(X), A(Y)): the two A elements are identical siblings; each
        // child's parent_pos must point at ITS OWN A, not the other one.
        let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
        let p = st.elem("P");
        let a = st.elem("A");
        let x = st.elem("X");
        let y = st.elem("Y");
        let mut doc = Document::with_root(p);
        let root = doc.root().unwrap();
        let a1 = doc.child(root, a);
        doc.child(a1, x);
        let a2 = doc.child(root, a);
        doc.child(a2, y);

        let mut paths = PathTable::new();
        doc.path_encode(&mut paths);
        let qs = QuerySequence::from_document_readonly(&doc, &paths, &Strategy::DepthFirst)
            .expect("the document's paths were just interned");
        assert_eq!(qs.len(), 5);
        assert_eq!(qs.parent_pos[0], None, "root has no parent");
        // find the X and Y elements and check their parents carry path PA
        for i in 0..qs.len() {
            if let Some(pp) = qs.parent_pos[i] {
                assert!(
                    paths.is_proper_prefix(qs.paths[pp as usize], qs.paths[i]),
                    "parent path must prefix child path"
                );
            }
        }
        // X's parent and Y's parent are DIFFERENT positions
        let pa = {
            let sym_a = st.elem("A");
            let sym_p = st.elem("P");
            paths.lookup(&[sym_p, sym_a]).unwrap()
        };
        let a_positions: Vec<usize> = (0..qs.len()).filter(|&i| qs.paths[i] == pa).collect();
        assert_eq!(a_positions.len(), 2);
        let leaf_parents: Vec<u32> = (0..qs.len())
            .filter(|&i| paths.depth(qs.paths[i]) == 3)
            .map(|i| qs.parent_pos[i].unwrap())
            .collect();
        assert_eq!(leaf_parents.len(), 2);
        assert_ne!(leaf_parents[0], leaf_parents[1], "distinct A instances");
    }

    #[test]
    fn empty_document_gives_empty_query_sequence() {
        let paths = PathTable::new();
        let qs =
            QuerySequence::from_document_readonly(&Document::new(), &paths, &Strategy::DepthFirst)
                .expect("an empty document has no path to miss");
        assert!(qs.is_empty());
    }
}
