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
//! the longest possible prefixes.  The identical-sibling rule of Algorithm 2
//! ("if `c` has identical siblings, sequentialize(`c`)") is enforced by a
//! recursive emitter shared by all priority-driven strategies.

use crate::Sequence;
use std::collections::{HashMap, VecDeque};
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
#[derive(Debug, Clone, Default)]
pub struct PriorityMap {
    map: HashMap<PathId, f64>,
    default: f64,
    contiguous: std::collections::HashSet<PathId>,
    /// Per path: the minimum priority over every known path extending it —
    /// the scheduling priority of a contiguous block rooted there.
    block: HashMap<PathId, f64>,
}

impl PriorityMap {
    /// Creates a map returning `default` for unknown paths.
    pub fn new(default: f64) -> Self {
        PriorityMap {
            map: HashMap::new(),
            default,
            contiguous: std::collections::HashSet::new(),
            block: HashMap::new(),
        }
    }

    /// Sets the block (subtree-minimum) priority of a path.
    pub fn set_block_priority(&mut self, p: PathId, priority: f64) {
        self.block.insert(p, priority);
    }

    /// The block priority of a path, when known.
    pub fn block_priority(&self, p: PathId) -> Option<f64> {
        self.block.get(&p).copied()
    }

    /// Marks a path as a group path (observed identical siblings): its
    /// subtrees are emitted contiguously in every document.
    pub fn mark_contiguous(&mut self, p: PathId) {
        self.contiguous.insert(p);
    }

    /// True when `p` must be emitted with a contiguous subtree.
    pub fn is_contiguous(&self, p: PathId) -> bool {
        self.contiguous.contains(&p)
    }

    /// Sets the priority of one path.
    pub fn insert(&mut self, p: PathId, priority: f64) {
        self.map.insert(p, priority);
    }

    /// The priority of a path.
    pub fn get(&self, p: PathId) -> f64 {
        self.map.get(&p).copied().unwrap_or(self.default)
    }

    /// Number of explicit entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no explicit entries exist.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
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

/// Heap attribution for a priority map: its three path-keyed tables.
impl HeapSize for PriorityMap {
    fn heap_bytes(&self) -> usize {
        self.map.heap_bytes() + self.contiguous.heap_bytes() + self.block.heap_bytes()
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
    // PANIC-FREE: enc has one entry per node and order holds node ids
    let seq = Sequence(order.iter().map(|&n| enc[n as usize]).collect());
    (seq, order)
}

/// The strategy-driven emission order over a non-empty encoded document.
fn emit_order(doc: &Document, enc: &[PathId], strategy: &Strategy) -> Vec<NodeId> {
    // PANIC-FREE: the one caller returns early when the document is empty
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
            let pri: Vec<f64> = (0..doc.len() as u64)
                .map(|n| splitmix64(seed.wrapping_add(0x9e37_79b9).wrapping_mul(31) ^ n) as f64)
                .collect();
            // PANIC-FREE: pri has exactly doc.len() entries, one per node
            emit_with_priority(doc, enc, &|n: NodeId| pri[n as usize])
        }
        Strategy::Probability(map) => emit_with_priority_grouped(
            doc,
            enc,
            // PANIC-FREE: enc has one entry per node id
            &|n: NodeId| map.get(enc[n as usize]),
            &|p: PathId| map.is_contiguous(p),
            &|p: PathId| map.block_priority(p),
        ),
    }
}

/// True if any node of `doc` has two children with the same label.
pub fn has_identical_siblings(doc: &Document) -> bool {
    doc.node_ids().any(|n| {
        let kids = doc.children(n);
        for (i, &a) in kids.iter().enumerate() {
            // PANIC-FREE: i < kids.len(), so i + 1 is a valid range start
            for &b in &kids[i + 1..] {
                if doc.sym(a) == doc.sym(b) {
                    return true;
                }
            }
        }
        false
    })
}

/// True if `n` has a sibling with the same label ("identical sibling node").
fn has_identical_sibling(doc: &Document, n: NodeId) -> bool {
    match doc.parent(n) {
        None => false,
        Some(p) => doc
            .children(p)
            .iter()
            .any(|&s| s != n && doc.sym(s) == doc.sym(n)),
    }
}

/// The constraint-respecting emitter behind `Random` and `Probability`
/// (paper Algorithm 2).  Emits the subtree of the root; whenever the chosen
/// node has identical siblings, its whole subtree is emitted contiguously
/// (recursively) before any sibling may be selected, which keeps the output
/// a valid `f2` sequence.
///
/// Ties (equal priority) break by path id, then node id, so sequences are
/// deterministic and — crucially for subsequence matching — the relative
/// order of any two *distinct* paths is identical across every document and
/// query sequenced with the same priorities.
fn emit_with_priority(
    doc: &Document,
    enc: &[PathId],
    priority: &dyn Fn(NodeId) -> f64,
) -> Vec<NodeId> {
    emit_with_priority_grouped(doc, enc, priority, &|_| false, &|_| None)
}

fn emit_with_priority_grouped(
    doc: &Document,
    enc: &[PathId],
    priority: &dyn Fn(NodeId) -> f64,
    contiguous: &dyn Fn(PathId) -> bool,
    block_priority: &dyn Fn(PathId) -> Option<f64>,
) -> Vec<NodeId> {
    // A node emitted with a *contiguous subtree* brings its whole block
    // along, so its scheduling priority must reflect the block's rarest
    // content (otherwise a common group node drags near-unique values to
    // the front of every sequence and prefix sharing collapses).  The block
    // priority comes from the dictionary-wide subtree minimum when known
    // (doc-independent, so all documents order their blocks identically);
    // the per-document subtree minimum is the fallback.
    let mut minp = vec![f64::INFINITY; doc.len()];
    for &n in doc.preorder().iter().rev() {
        let mut m = priority(n);
        for &c in doc.children(n) {
            // PANIC-FREE: minp has one entry per document node id
            m = m.min(minp[c as usize]);
        }
        // PANIC-FREE: preorder yields ids < doc.len() == minp.len()
        minp[n as usize] = m;
    }
    let eff = move |c: NodeId| {
        // PANIC-FREE: same per-node table contract as minp above
        if has_identical_sibling(doc, c) || contiguous(enc[c as usize]) {
            block_priority(enc[c as usize]).unwrap_or(minp[c as usize])
        } else {
            priority(c)
        }
    };
    let mut out = Vec::with_capacity(doc.len());
    // PANIC-FREE: reached only through emit_order's non-empty guard
    let root = doc
        .root()
        .expect("emit order is only computed for non-empty documents");
    emit_subtree(doc, enc, &eff, contiguous, root, &mut out);
    out
}

// PANIC-FREE: avail indices come from 0..avail.len(); enc carries one
// entry per document node id
fn emit_subtree(
    doc: &Document,
    enc: &[PathId],
    priority: &dyn Fn(NodeId) -> f64,
    contiguous: &dyn Fn(PathId) -> bool,
    root: NodeId,
    out: &mut Vec<NodeId>,
) {
    out.push(root);
    // `avail`: nodes of this subtree whose parent is already emitted.
    let mut avail: Vec<NodeId> = doc.children(root).to_vec();
    while !avail.is_empty() {
        // Select the best available node.
        let mut best = 0;
        for i in 1..avail.len() {
            if better(doc, enc, priority, avail[i], avail[best]) {
                best = i;
            }
        }
        let c = avail.swap_remove(best);
        if has_identical_sibling(doc, c) || contiguous(enc[c as usize]) {
            emit_subtree(doc, enc, priority, contiguous, c, out);
        } else {
            out.push(c);
            avail.extend_from_slice(doc.children(c));
        }
    }
}

/// Strict "a should be emitted before b" ordering.
// PANIC-FREE: enc carries one entry per document node id
fn better(
    doc: &Document,
    enc: &[PathId],
    priority: &dyn Fn(NodeId) -> f64,
    a: NodeId,
    b: NodeId,
) -> bool {
    let (pa, pb) = (priority(a), priority(b));
    if pa != pb {
        return pa > pb;
    }
    let (ea, eb) = (enc[a as usize], enc[b as usize]);
    if ea != eb {
        return ea < eb;
    }
    // Identical path: document sibling order (node id) decides; isomorphism
    // expansion at query time enumerates the alternatives.
    let _ = doc;
    a < b
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
