//! Sequencing strategies (Section 2.4 and Algorithm 2).
//!
//! Constraint sequencing is controlled by a constraint `f` and a user
//! strategy `g`.  All strategies here emit sequences valid under `f2`
//! (forward prefix), with one documented exception: breadth-first ordering
//! is only valid on trees without identical sibling nodes, exactly like the
//! paper, which evaluates BF only on its `I = 0` synthetic datasets.
//!
//! The probability-ordered strategy is the paper's `g_best`: always emit the
//! available node whose schema counterpart has the largest weighted root
//! probability `p'(C|root)` (Eq. 6), so that sequences across a dataset share
//! the longest possible prefixes.  `Random` runs through the same emitter
//! with a per-node key.
//!
//! **The emitter's order.**  A node is *available* once its parent is
//! emitted.  The next node emitted is the available one with the largest
//! scheduling key; equal keys (`0.0` and `-0.0` are equal) break by
//! ascending [`PathId`], then ascending node id — so the relative order of
//! any two *distinct* paths is the same in every document and query
//! sequenced with the same priorities, which subsequence matching relies
//! on.  Selection is a binary heap: `O(n log n)` per document.
//!
//! **Sort when monotone.**  When no key rises from a node to its children
//! ([`PriorityMap::is_monotone`]: always with `w ≡ 1`, because
//! `p(C|root) = p(C|parent) · p(parent|root)`), the heap pops everything
//! that waits at one depth of open blocks — a *frame* — in plain sorted
//! order: a node it takes in sorts after the node just popped (a lower or
//! equal key, and a larger path id than its parent's).  So each frame is
//! gathered (the children of the root or block that opens it, plus the
//! children of every singleton in it), sorted once by (key descending, path
//! ascending, node ascending), and emitted with each block expanded in
//! place.  The order is the heap's exactly; the heap stays for maps that
//! are not monotone (boosts, `Random`).  Identical siblings are still found
//! by one sort of each child list, so no step is super-linear in the
//! fan-out of one node.
//!
//! **Blocks.**  A node is a *block* when a sibling has its path (Algorithm
//! 2's "if `c` has identical siblings, sequentialize(`c`)"; siblings with
//! one path are found by sorting each child list, `O(k log k)`) or when its
//! path is a dictionary group path ([`PriorityMap::mark_contiguous`]).  A
//! block's whole subtree is emitted contiguously — ordered inside by the
//! same rule — before any node outside it, which keeps the output a valid
//! `f2` sequence.  Every other node is a *singleton*: emitting it makes its
//! children available beside everything already waiting.
//!
//! **Keys.**  Each node's key is fixed once, when it becomes available.  A
//! singleton's is its own priority.  A block brings its whole subtree
//! along, so its key must reflect the block's rarest content — otherwise a
//! common group node drags near-unique values to the front of every
//! sequence and prefix sharing collapses.  It is the dictionary-wide
//! subtree minimum ([`PriorityMap::block_priority`]; document-independent,
//! so all documents order their blocks identically).  **The fallback**
//! applies where the dictionary has none — a path minted after the build,
//! a query tree, every block under `Random`: the minimum priority over the
//! node's subtree in this document, from a table computed on first need.

use crate::Sequence;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use xseq_telemetry::HeapSize;
use xseq_xml::{Document, NodeId, PathId, PathTable};

/// Priorities for path encodings, produced by the schema/statistics layer
/// (`p'(C|root) = p(C|root) · w(C)`), plus the set of *group paths* —
/// paths observed with sibling multiplicity ≥ 2 anywhere in the dataset.
///
/// Group paths are emitted with their whole subtree contiguous in **every**
/// document.  Applying the identical-sibling contiguity rule only where a
/// document locally has duplicates would make sequence shapes
/// document-dependent (a doc with one `A` and a doc with two `A`s would
/// diverge immediately after `A`), destroying exactly the prefix sharing
/// the probability strategy exists to maximize.
///
/// [`PathId`]s are dense, so the three tables are columns indexed by id;
/// an id past a column's end reads as absent.
#[derive(Debug, Clone, Default)]
pub struct PriorityMap {
    /// `p'(C|root)` per path; NaN marks "no entry".
    priority: Vec<f64>,
    default: f64,
    contiguous: Vec<bool>,
    /// Per path: the minimum priority over every known path extending it —
    /// the scheduling priority of a contiguous block rooted there.  NaN
    /// marks "unknown".
    block: Vec<f64>,
    /// Declared by [`PriorityMap::declare_monotone`]; withdrawn by every
    /// write of a priority.
    monotone: bool,
}

/// The slot of `p` in a path-indexed column, grown with `absent` to reach it.
#[expect(clippy::indexing_slicing, reason = "the column was just grown past i")]
fn slot<T: Copy>(column: &mut Vec<T>, p: PathId, absent: T) -> &mut T {
    let i = p.0 as usize;
    if i >= column.len() {
        column.resize(i + 1, absent);
    }
    &mut column[i]
}

/// `column[p]` unless it is past the end or the NaN "absent" mark.
fn known(column: &[f64], p: PathId) -> Option<f64> {
    column.get(p.0 as usize).copied().filter(|v| !v.is_nan())
}

impl PriorityMap {
    /// Creates a map returning `default` for unknown paths.
    pub fn new(default: f64) -> Self {
        PriorityMap {
            default,
            ..Default::default()
        }
    }

    /// Sets the block (subtree-minimum) priority of a path; same contract
    /// as [`PriorityMap::insert`].
    pub fn set_block_priority(&mut self, p: PathId, priority: f64) {
        self.monotone = false;
        *slot(&mut self.block, p, f64::NAN) = priority;
    }

    /// The block priority of a path, when known.
    pub fn block_priority(&self, p: PathId) -> Option<f64> {
        known(&self.block, p)
    }

    /// Marks a path as a group path (observed identical siblings): its
    /// subtrees are emitted contiguously in every document.
    pub fn mark_contiguous(&mut self, p: PathId) {
        *slot(&mut self.contiguous, p, false) = true;
    }

    /// True when `p` must be emitted with a contiguous subtree.
    pub fn is_contiguous(&self, p: PathId) -> bool {
        self.contiguous.get(p.0 as usize) == Some(&true)
    }

    /// Sets the priority of one path.
    ///
    /// `priority` must not be NaN: the emitter needs a total order, and a
    /// NaN here reads back as "no entry" (the default).  The database
    /// front door rejects the boost weights that could produce one.
    pub fn insert(&mut self, p: PathId, priority: f64) {
        self.monotone = false;
        *slot(&mut self.priority, p, f64::NAN) = priority;
    }

    /// The priority of a path.
    pub fn get(&self, p: PathId) -> f64 {
        known(&self.priority, p).unwrap_or(self.default)
    }

    /// Declares the map **monotone** along the parent edges of the path
    /// table it was built for: no path's priority, nor its block priority,
    /// exceeds its parent path's priority (below the root path), and no
    /// priority is below the default, so a path minted later never
    /// outranks its parent either.  With `w ≡ 1` the estimate always is:
    /// `p(C|root) = p(C|parent) · p(parent|root)`.  The emitter then orders
    /// each frame by one sort instead of a heap, with the same result (see
    /// the module docs).  [`PriorityMap::insert`] and
    /// [`PriorityMap::set_block_priority`] withdraw the declaration.
    pub fn declare_monotone(&mut self) {
        self.monotone = true;
    }

    /// True when the map was declared monotone and not written since.
    pub fn is_monotone(&self) -> bool {
        self.monotone
    }
}

/// A sequencing strategy `g`.
#[derive(Debug, Clone)]
pub enum Strategy {
    /// Depth-first traversal order (children canonicalized by symbol) — the
    /// sequencing ViST builds on.
    DepthFirst,
    /// Breadth-first (level) order.  **Valid only without identical sibling
    /// nodes**; the emitter panics in debug builds if misused, and the paper
    /// likewise only evaluates BF on `I = 0` data.
    BreadthFirst,
    /// Uniformly random order subject to the constraint; deterministic for a
    /// given seed (per-node priorities from a splitmix64 stream).  Because
    /// the order is per-node rather than per-path, random sequences are
    /// *not* query-consistent — the paper (and this crate) uses Random only
    /// for the index-size comparisons.
    Random {
        /// RNG seed.
        seed: u64,
    },
    /// The paper's `g_best`: highest `p'(C|root)` first (Algorithm 2).
    Probability(PriorityMap),
}

impl Strategy {
    /// True when a stored sequence is exactly re-encodable from its decoded
    /// tree: decode (Theorem 1) followed by re-sequencing with the same
    /// strategy reproduces the sequence element for element.
    ///
    /// Holds for the top-down orders whose sibling emission is a pure
    /// function of the path — depth-first (stable symbol order) and
    /// probability (path-keyed priorities).  `Random` ranks per node id, so
    /// re-encoding may legally reorder.  `BreadthFirst` is excluded too:
    /// the decoder attaches each element under the most recent matching
    /// prefix, which normalizes sibling attachment, and when equal-path
    /// siblings at one level carry children the original level order is not
    /// recoverable — the re-encoding is a legal reordering, not corruption.
    pub fn reencode_is_canonical(&self) -> bool {
        matches!(self, Strategy::DepthFirst | Strategy::Probability(_))
    }

    /// Short name used in benchmark output ("DF", "BF", "Random", "CS").
    pub fn short_name(&self) -> &'static str {
        match self {
            Strategy::DepthFirst => "DF",
            Strategy::BreadthFirst => "BF",
            Strategy::Random { .. } => "Random",
            Strategy::Probability(_) => "CS",
        }
    }
}

/// Heap attribution for a priority map: its three path-indexed columns.
impl HeapSize for PriorityMap {
    fn heap_bytes(&self) -> usize {
        self.priority.heap_bytes() + self.contiguous.heap_bytes() + self.block.heap_bytes()
    }
}

/// Heap attribution for a strategy: only `Probability` owns a heap (its
/// priority map).
impl HeapSize for Strategy {
    fn heap_bytes(&self) -> usize {
        match self {
            Strategy::Probability(m) => m.heap_bytes(),
            Strategy::DepthFirst | Strategy::BreadthFirst | Strategy::Random { .. } => 0,
        }
    }
}

/// Sequences `doc` under constraint `f2` with strategy `g`.
///
/// Interns any new paths into `paths`; the result has exactly one element
/// per tree node.
pub fn sequence_document(doc: &Document, paths: &mut PathTable, strategy: &Strategy) -> Sequence {
    emit_sequence(doc, &doc.path_encode(paths), strategy).0
}

/// The emitter: the constraint sequence of an already path-encoded
/// document (`enc[node]`, from [`Document::path_encode`] or its read-only
/// twin) and the tree node behind each sequence position — the query layer
/// needs the latter to find every element's tree parent.
///
/// Pure in `(doc, enc, strategy)`: interning happens strictly before, so
/// any number of documents can be emitted side by side.
pub fn emit_sequence(
    doc: &Document,
    enc: &[PathId],
    strategy: &Strategy,
) -> (Sequence, Vec<NodeId>) {
    if doc.root().is_none() {
        return (Sequence::default(), Vec::new());
    }
    let order = emit_order(doc, enc, strategy);
    #[expect(clippy::indexing_slicing, reason = "enc has one entry per node; order holds nodes")]
    let seq = Sequence(order.iter().map(|&n| enc[n as usize]).collect());
    (seq, order)
}

/// The strategy-driven emission order over a non-empty encoded document.
fn emit_order(doc: &Document, enc: &[PathId], strategy: &Strategy) -> Vec<NodeId> {
    #[expect(clippy::expect_used, reason = "the caller returns early on an empty document")]
    let root = doc
        .root()
        .expect("emit order is only computed for non-empty documents");
    match strategy {
        Strategy::DepthFirst => {
            // Canonical depth-first: children visited in symbol order
            // (stable for identical symbols).  Canonicalizing sibling order
            // makes the relative order of any two *distinct* paths identical
            // across all documents and queries — without it, subsequence
            // matching would depend on raw document order and a query could
            // only be answered by enumerating every sibling permutation
            // (the paper's isomorphism expansion then only needs to cover
            // identical-label groups).
            let mut out = Vec::with_capacity(doc.len());
            let mut stack = vec![root];
            while let Some(n) = stack.pop() {
                out.push(n);
                let mut kids = doc.children(n).to_vec();
                kids.sort_by_key(|&c| doc.sym(c).raw());
                // reversed so the smallest symbol is visited first
                stack.extend(kids.into_iter().rev());
            }
            out
        }
        Strategy::BreadthFirst => {
            debug_assert!(
                !has_identical_siblings(doc),
                "breadth-first sequencing is only valid without identical siblings"
            );
            let mut out = Vec::with_capacity(doc.len());
            let mut queue = VecDeque::from([root]);
            while let Some(n) = queue.pop_front() {
                out.push(n);
                let mut kids = doc.children(n).to_vec();
                kids.sort_by_key(|&c| doc.sym(c).raw());
                queue.extend(kids);
            }
            out
        }
        Strategy::Random { seed } => {
            let salt = seed.wrapping_add(0x9e37_79b9).wrapping_mul(31);
            let key = |n: NodeId, _| splitmix64(salt ^ u64::from(n)) as f64;
            emit_by_key(doc, enc, root, key, None)
        }
        Strategy::Probability(map) if map.is_monotone() => emit_by_sort(doc, enc, root, map),
        Strategy::Probability(map) => emit_by_key(doc, enc, root, |_, p| map.get(p), Some(map)),
    }
}

/// True if any node of `doc` has two children with the same label.
#[expect(clippy::indexing_slicing, reason = "i < kids.len(), so i + 1 is a valid range start")]
pub fn has_identical_siblings(doc: &Document) -> bool {
    doc.node_ids().any(|n| {
        let kids = doc.children(n);
        for (i, &a) in kids.iter().enumerate() {
            for &b in &kids[i + 1..] {
                if doc.sym(a) == doc.sym(b) {
                    return true;
                }
            }
        }
        false
    })
}

/// One available node, ordered as the emitters pick: the greatest first —
/// key descending (as [`rank`]ed), then path ascending, then node
/// ascending (node ids are unique, so `is_block` never decides).
type Entry = (u64, Reverse<PathId>, Reverse<NodeId>, bool);

/// An order-preserving image of a scheduling key: `rank(a) > rank(b)` iff
/// `a > b`, with `-0.0` ranked as `0.0`.  This is `f64::total_cmp`'s bit
/// trick, so a NaN that slipped past the contract of
/// [`PriorityMap::insert`] gets a place instead of breaking the heap.
fn rank(key: f64) -> u64 {
    let bits = if key == 0.0 { 0 } else { key.to_bits() };
    bits ^ (((bits as i64 >> 63) as u64) | 1 << 63)
}

/// The constraint-respecting emitter behind `Random` and `Probability`
/// (paper Algorithm 2; order, blocks and keys as the module docs state):
/// the heap selector.  `priority(node, path)` is a node's own priority;
/// `groups` supplies the dictionary's group paths and block priorities,
/// when there is one.
fn emit_by_key(
    doc: &Document,
    enc: &[PathId],
    root: NodeId,
    priority: impl Fn(NodeId, PathId) -> f64,
    groups: Option<&PriorityMap>,
) -> Vec<NodeId> {
    let mut children = available(doc, enc, priority, groups);
    let mut out = Vec::with_capacity(doc.len());
    // Each entry waits behind the number of blocks open around it: a block
    // is drained before anything outside it is emitted, so all waiting
    // entries of one depth belong to one block, and the deepest is the
    // innermost.
    let mut heap: BinaryHeap<(u32, Entry)> = BinaryHeap::new();
    let mut kids = Vec::new();
    // the root is emitted first and opens no block
    let mut next = Some((root, 0));
    while let Some((n, frame)) = next {
        out.push(n);
        children(n, &mut kids);
        heap.extend(kids.drain(..).map(|e| (frame, e)));
        // a block's children wait one frame further in than the block does
        next = heap
            .pop()
            .map(|(frame, (.., node, is_block))| (node.0, frame + u32::from(is_block)));
    }
    out
}

/// [`emit_by_key`] for a map that [`PriorityMap::is_monotone`]: each frame
/// is ordered by one sort, and each block in it is expanded in place.
///
/// A frame is what the heap holds at one depth of open blocks: the
/// children of the node that opens it (the root or a block), plus the
/// children of every singleton in it.  Monotone keys never rise from a
/// singleton to its children, and a child's path id is above its parent's,
/// so every entry the heap takes in while draining a frame sorts after the
/// one it just popped: the heap pops each frame in sorted order.  A popped
/// block drains its own frame before the heap returns to the outer one,
/// which is the expansion in place.
#[expect(clippy::indexing_slicing, reason = "a frame starts at or below the stack's length")]
fn emit_by_sort(doc: &Document, enc: &[PathId], root: NodeId, map: &PriorityMap) -> Vec<NodeId> {
    let mut children = available(doc, enc, |_, p| map.get(p), Some(map));
    let mut out = Vec::with_capacity(doc.len());
    // the open frames, the innermost on top, each sorted ascending so that
    // its next node is on top; every node but the root enters once
    let mut stack: Vec<Entry> = Vec::with_capacity(doc.len());
    // the root is emitted first and opens the outermost frame
    let mut next = Some((root, true));
    while let Some((n, opens)) = next {
        out.push(n);
        if opens {
            let start = stack.len();
            children(n, &mut stack);
            let mut i = start;
            while let Some(&(.., c, is_block)) = stack.get(i) {
                if !is_block {
                    children(c.0, &mut stack);
                }
                i += 1;
            }
            stack[start..].sort_unstable();
        }
        next = stack.pop().map(|(.., node, is_block)| (node.0, is_block));
    }
    out
}

/// What both emitters do to a node just emitted: `children(n, into)`
/// appends an entry for every child of `n` to `into`, with its key and
/// whether it is a block.
#[expect(clippy::indexing_slicing, reason = "enc and minp have one entry per document node")]
fn available<'a>(
    doc: &'a Document,
    enc: &'a [PathId],
    priority: impl Fn(NodeId, PathId) -> f64 + 'a,
    groups: Option<&'a PriorityMap>,
) -> impl FnMut(NodeId, &mut Vec<Entry>) + 'a {
    let (mut kids, mut minp): (Vec<(PathId, NodeId)>, Vec<f64>) = (Vec::new(), Vec::new());
    move |n, into| {
        // Siblings with one label are siblings with one path: sorted by
        // path, a node with an identical sibling sits next to it.
        kids.clear();
        kids.extend(doc.children(n).iter().map(|&c| (enc[c as usize], c)));
        kids.sort_unstable();
        for (i, &(path, c)) in kids.iter().enumerate() {
            let twin = |j: usize| kids.get(j).is_some_and(|k| k.0 == path);
            let is_block = twin(i + 1)
                || twin(i.wrapping_sub(1))
                || groups.is_some_and(|g| g.is_contiguous(path));
            let key = if !is_block {
                priority(c, path)
            } else if let Some(known) = groups.and_then(|g| g.block_priority(path)) {
                known
            } else {
                if minp.is_empty() {
                    minp = subtree_minima(doc, enc, &priority);
                }
                minp[c as usize]
            };
            into.push((rank(key), Reverse(path), Reverse(c), is_block));
        }
    }
}

/// The fallback block keys: per node, the minimum priority over its
/// subtree in this document.
#[expect(clippy::indexing_slicing, reason = "enc, minp: an entry per node; parents are nodes")]
fn subtree_minima(
    doc: &Document,
    enc: &[PathId],
    priority: impl Fn(NodeId, PathId) -> f64,
) -> Vec<f64> {
    let mut minp: Vec<f64> = (doc.node_ids())
        .map(|n| priority(n, enc[n as usize]))
        .collect();
    // The arena only appends, so a child's id is above its parent's: one
    // descending sweep has folded every subtree before its root is read.
    for n in (0..doc.len() as NodeId).rev() {
        if let Some(p) = doc.parent(n) {
            minp[p as usize] = minp[p as usize].min(minp[n as usize]);
        }
    }
    minp
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{decode_f2, validate_f2};
    use xseq_xml::{Document, PathTable, SymbolTable, ValueMode};

    fn st() -> SymbolTable {
        SymbolTable::with_value_mode(ValueMode::Intern)
    }

    /// Fig 3(b): P(v0, D(L(v1)), D(M(v2)))
    fn fig3b(stt: &mut SymbolTable) -> Document {
        let p = stt.elem("P");
        let d = stt.elem("D");
        let l = stt.elem("L");
        let m = stt.elem("M");
        let v0 = stt.val("xml");
        let v1 = stt.val("boston");
        let v2 = stt.val("johnson");
        let mut doc = Document::with_root(p);
        let root = doc.root().unwrap();
        doc.child(root, v0);
        let d1 = doc.child(root, d);
        let l1 = doc.child(d1, l);
        doc.child(l1, v1);
        let d2 = doc.child(root, d);
        let m1 = doc.child(d2, m);
        doc.child(m1, v2);
        doc
    }

    /// Fig 11(a): P(v1, R(U(M(v2)), L(v3)))
    fn fig11a(stt: &mut SymbolTable) -> Document {
        let p = stt.elem("P");
        let r = stt.elem("R");
        let u = stt.elem("U");
        let l = stt.elem("L");
        let m = stt.elem("M");
        let v1 = stt.val("v1");
        let v2 = stt.val("v2");
        let v3 = stt.val("v3");
        let mut doc = Document::with_root(p);
        let root = doc.root().unwrap();
        doc.child(root, v1);
        let rn = doc.child(root, r);
        let un = doc.child(rn, u);
        let mn = doc.child(un, m);
        doc.child(mn, v2);
        let ln = doc.child(rn, l);
        doc.child(ln, v3);
        doc
    }

    #[test]
    fn depth_first_matches_table1() {
        // Table 1, Fig 3(b) lists ⟨P, Pv0, PD, PDL, PDLv1, PD, PDM, PDMv2⟩
        // in document order; our DF canonicalizes sibling order by symbol
        // (elements before values), so the value child moves to the end —
        // same multiset, same structure, query-consistent ordering.
        let mut stt = st();
        let doc = fig3b(&mut stt);
        let mut paths = PathTable::new();
        let seq = sequence_document(&doc, &mut paths, &Strategy::DepthFirst);
        let rendered = seq.render(&paths, &stt);
        assert_eq!(
            rendered,
            "⟨P, PD, PDL, PDL'boston', PD, PDM, PDM'johnson', P'xml'⟩"
        );
    }

    #[test]
    fn all_strategies_roundtrip_fig3b() {
        let mut stt = st();
        let doc = fig3b(&mut stt);
        for strategy in [
            Strategy::DepthFirst,
            Strategy::Random { seed: 1 },
            Strategy::Random { seed: 99 },
            Strategy::Probability(PriorityMap::new(0.0)),
        ] {
            let mut paths = PathTable::new();
            let seq = sequence_document(&doc, &mut paths, &strategy);
            assert_eq!(seq.len(), doc.len());
            assert!(validate_f2(&seq, &mut paths).is_ok(), "{strategy:?}");
            let back = decode_f2(&seq, &paths).unwrap();
            assert!(back.structurally_eq(&doc), "{strategy:?}");
        }
    }

    #[test]
    fn breadth_first_on_tree_without_identical_siblings() {
        let mut stt = st();
        let doc = fig11a(&mut stt);
        assert!(!has_identical_siblings(&doc));
        let mut paths = PathTable::new();
        let seq = sequence_document(&doc, &mut paths, &Strategy::BreadthFirst);
        // Table 3 BF row (a), modulo canonical sibling order (elements
        // before values) and strict level order (the paper lists PRUMv2,
        // depth 5, before PRLv3, depth 4).
        assert_eq!(
            seq.render(&paths, &stt),
            "⟨P, PR, P'v1', PRU, PRL, PRUM, PRL'v3', PRUM'v2'⟩"
        );
        let back = decode_f2(&seq, &paths).unwrap();
        assert!(back.structurally_eq(&doc));
    }

    #[test]
    fn probability_strategy_orders_by_priority() {
        // Section 5.2 example: probabilities put structure nodes first and
        // rare values last: ⟨P, PR, PRU, PRUM, PRL, PRLv3, Pv1, PRUMv2⟩.
        let mut stt = st();
        let doc = fig11a(&mut stt);
        let mut paths = PathTable::new();
        let enc = doc.path_encode(&mut paths);

        let mut pm = PriorityMap::new(0.0);
        // Node ids in fig11a construction order: P=0,v1=1,R=2,U=3,M=4,v2=5,L=6,v3=7
        let pri = [1.0, 0.001, 0.9, 0.8, 0.64, 0.00064, 0.36, 0.036];
        for (n, &pr) in pri.iter().enumerate() {
            pm.insert(enc[n], pr);
        }
        let seq = sequence_document(&doc, &mut paths, &Strategy::Probability(pm));
        assert_eq!(
            seq.render(&paths, &stt),
            "⟨P, PR, PRU, PRUM, PRL, PRL'v3', P'v1', PRUM'v2'⟩"
        );
    }

    #[test]
    fn probability_sequences_share_long_prefixes() {
        // The motivating Impact 1: two documents differing only in values
        // share a long prefix under CS but not under DF (Table 3).
        let mut stt = st();
        let doc_a = fig11a(&mut stt);
        // doc_b: same structure, different values v5/v6 at the two leaves.
        let doc_b;
        {
            // rebuild with different values
            let p = stt.elem("P");
            let r = stt.elem("R");
            let u = stt.elem("U");
            let l = stt.elem("L");
            let m = stt.elem("M");
            let v5 = stt.val("v5");
            let v6 = stt.val("v6");
            let v3 = stt.val("v3");
            let mut d = Document::with_root(p);
            let root = d.root().unwrap();
            d.child(root, v5);
            let rn = d.child(root, r);
            let un = d.child(rn, u);
            let mn = d.child(un, m);
            d.child(mn, v6);
            let ln = d.child(rn, l);
            d.child(ln, v3);
            doc_b = d;
        }
        let mut paths = PathTable::new();
        let enc_a = doc_a.path_encode(&mut paths);
        let enc_b = doc_b.path_encode(&mut paths);

        let mut pm = PriorityMap::new(0.0005);
        let pri = [1.0, 0.001, 0.9, 0.8, 0.64, 0.00064, 0.36, 0.036];
        for (n, &pr) in pri.iter().enumerate() {
            pm.insert(enc_a[n], pr);
            if pr > 0.01 {
                pm.insert(enc_b[n], pr);
            }
        }
        let cs = Strategy::Probability(pm);
        let sa = sequence_document(&doc_a, &mut paths, &cs);
        let sb = sequence_document(&doc_b, &mut paths, &cs);
        let common_cs = sa
            .elems()
            .iter()
            .zip(sb.elems())
            .take_while(|(a, b)| a == b)
            .count();
        assert!(
            common_cs >= 6,
            "CS shares ≥6-element prefix, got {common_cs}"
        );

        let da = sequence_document(&doc_a, &mut paths, &Strategy::DepthFirst);
        let db = sequence_document(&doc_b, &mut paths, &Strategy::DepthFirst);
        let common_df = da
            .elems()
            .iter()
            .zip(db.elems())
            .take_while(|(a, b)| a == b)
            .count();
        // Canonical DF defers the varying value a little (document-order DF
        // as in Table 3 would share only the root), but CS still shares a
        // strictly longer prefix because it pushes *all* rare nodes last.
        assert!(
            common_df < common_cs,
            "CS beats DF: {common_df} vs {common_cs}"
        );
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let mut stt = st();
        let doc = fig3b(&mut stt);
        let mut p1 = PathTable::new();
        let mut p2 = PathTable::new();
        let s1 = sequence_document(&doc, &mut p1, &Strategy::Random { seed: 7 });
        let s2 = sequence_document(&doc, &mut p2, &Strategy::Random { seed: 7 });
        assert_eq!(s1, s2);
    }

    #[test]
    fn identical_sibling_subtrees_are_contiguous() {
        // Under any priority, once an identical sibling is selected its whole
        // subtree must be emitted before the other sibling appears.
        let mut stt = st();
        let doc = fig3b(&mut stt);
        let mut paths = PathTable::new();
        for seed in 0..20 {
            let seq = sequence_document(&doc, &mut paths, &Strategy::Random { seed });
            let pd = {
                let p = stt.elem("P");
                let d = stt.elem("D");
                paths.lookup(&[p, d]).unwrap()
            };
            let positions: Vec<usize> = seq
                .elems()
                .iter()
                .enumerate()
                .filter(|(_, &e)| e == pd)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(positions.len(), 2);
            // Algorithm 2 emits an identical sibling's whole subtree
            // contiguously: each D (2 descendants) is immediately followed
            // by 2 PD-prefixed elements.
            for &pos in &positions {
                for off in 1..=2 {
                    let e = seq[pos + off];
                    assert!(
                        paths.is_proper_prefix(pd, e),
                        "seed {seed}: identical-sibling subtree not contiguous"
                    );
                }
            }
        }
    }

    #[test]
    fn readonly_sequencing_matches_interning_sequencing() {
        // The emitter is pure in the encoding, so the two front doors agree
        // exactly when the two encoders do: on an interned table
        // `path_encode_readonly` is `path_encode`, and on a miss it is None.
        let mut stt = st();
        let doc = fig3b(&mut stt);
        let mut paths = PathTable::new();
        assert_eq!(doc.path_encode_readonly(&paths), None, "nothing interned");
        let enc = doc.path_encode(&mut paths);
        assert_eq!(doc.path_encode_readonly(&paths), Some(enc.clone()));
        for strategy in [
            Strategy::DepthFirst,
            Strategy::Random { seed: 3 },
            Strategy::Probability(PriorityMap::new(0.1)),
        ] {
            let (seq, order) = emit_sequence(&doc, &enc, &strategy);
            assert_eq!(seq, sequence_document(&doc, &mut paths, &strategy));
            assert_eq!(order.len(), doc.len(), "{strategy:?}");
        }
    }

    #[test]
    fn priority_columns_grow_on_write_and_read_absent_past_their_end() {
        let mut pm = PriorityMap::new(0.5);
        let absent = |pm: &PriorityMap, p| {
            (pm.get(p), pm.block_priority(p), pm.is_contiguous(p)) == (0.5, None, false)
        };
        assert!(absent(&pm, PathId(9)), "an empty map has no columns at all");
        pm.insert(PathId(9), 0.0);
        pm.set_block_priority(PathId(4), -1.0);
        pm.mark_contiguous(PathId(2));
        assert_eq!(pm.get(PathId(9)), 0.0);
        assert_eq!(pm.block_priority(PathId(4)), Some(-1.0));
        assert!(pm.is_contiguous(PathId(2)));
        for gap in [0, 3, 8, 10, u32::MAX] {
            assert!(absent(&pm, PathId(gap)), "path {gap} was never written");
        }
        assert!(pm.heap_bytes() >= 10 * 8 + 3 + 5 * 8, "every column counts");
    }

    #[test]
    fn rank_orders_keys_as_floats_compare() {
        let keys = [
            f64::NEG_INFINITY,
            -1.0,
            -1e-300,
            0.0,
            1e-300,
            0.5,
            1.0,
            f64::INFINITY,
        ];
        for w in keys.windows(2) {
            assert!(rank(w[0]) < rank(w[1]), "{} < {}", w[0], w[1]);
        }
        assert_eq!(rank(-0.0), rank(0.0), "the zeros are one key");
    }

    #[test]
    fn empty_document_gives_empty_sequence() {
        let mut paths = PathTable::new();
        let seq = sequence_document(&Document::new(), &mut paths, &Strategy::DepthFirst);
        assert!(seq.is_empty());
    }

    #[test]
    fn strategy_names() {
        assert_eq!(Strategy::DepthFirst.short_name(), "DF");
        assert_eq!(Strategy::BreadthFirst.short_name(), "BF");
        assert_eq!(Strategy::Random { seed: 0 }.short_name(), "Random");
        assert_eq!(
            Strategy::Probability(PriorityMap::new(0.0)).short_name(),
            "CS"
        );
    }
}
