//! # xseq-schema — node occurrence probabilities and sequencing priorities
//!
//! Section 5.2 of the paper: the performance-oriented strategy `g_best`
//! orders nodes by their *weighted root occurrence probability*
//!
//! ```text
//! p'(C | root) = p(C | root) · w(C)          (Eq. 6)
//! ```
//!
//! where `p(C | root)` is derived from the conditional existence
//! probabilities `p(C | parent)` of the schema by the chain rule
//! (Figures 12 → 13), and `w(C)` is a user weight reflecting how often and
//! how selectively `C` is queried.
//!
//! Two ways to obtain the probabilities, both provided here:
//!
//! * [`SchemaTree`] — declare `p(C | parent)` explicitly ("derive or
//!   estimate from the semantics in the schema");
//! * [`ProbabilityModel::estimate`] — "approximate it by data sampling":
//!   count, over a sample of documents, the fraction containing each path.
//!   Because a document containing a path also contains every prefix, the
//!   chain-rule telescopes and the per-path document frequency *is*
//!   `p(C | root)` — including the paper's "second factor" for value nodes
//!   (the probability that the value equals `v`), since value paths are
//!   counted per concrete value designator.
//!
//! The measurement side of `w(C)` lives in [`workload`]: a
//! [`WorkloadProfile`] accumulates per-class query frequency, result
//! cardinality, and latency from the live query stream, so a later
//! compaction can derive the weights instead of guessing them.

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

pub mod workload;

pub use workload::{ClassStats, WorkloadProfile, WorkloadRecorder};

use std::collections::HashMap;
use xseq_sequence::PriorityMap;
use xseq_xml::{Document, NodeId, PathId, PathTable};

/// Query-tuning weights `w(C)` keyed by path; default 1.0 (Section 5.2:
/// "we assign a weight w(C), which reflects the query frequency and
/// selectivity of node C").
#[derive(Debug, Clone, Default)]
pub struct WeightMap {
    map: HashMap<PathId, f64>,
}

impl WeightMap {
    /// Boosts (or demotes) one path.
    ///
    /// `w` must be finite and non-negative: a NaN (or `∞ · 0`) priority has
    /// no place in the emitter's total order.  `DatabaseBuilder::boost`
    /// rejects anything else with a typed error; this setter trusts its
    /// caller.
    pub fn set(&mut self, p: PathId, w: f64) {
        self.map.insert(p, w);
    }

    /// The weight of a path.
    pub fn get(&self, p: PathId) -> f64 {
        self.map.get(&p).copied().unwrap_or(1.0)
    }
}

/// Explicit schema probabilities: `p(C | parent)` per path (Figure 12).
#[derive(Debug, Clone, Default)]
pub struct SchemaTree {
    cond: HashMap<PathId, f64>,
}

impl SchemaTree {
    /// Creates an empty schema (every conditional defaults to 1.0).
    pub fn new() -> Self {
        SchemaTree::default()
    }

    /// Declares `p(path | parent(path)) = p`.
    ///
    /// # Panics
    /// Panics if `p` is not in `0.0..=1.0`.
    pub fn set_cond(&mut self, path: PathId, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.cond.insert(path, p);
    }

    /// The conditional probability of `path` given its parent (default 1.0).
    pub fn cond(&self, path: PathId) -> f64 {
        self.cond.get(&path).copied().unwrap_or(1.0)
    }

    /// Chain rule: `p(C|root) = p(C|parent) · p(parent|root)` (Figure 13).
    pub fn root_probability(&self, paths: &PathTable, path: PathId) -> f64 {
        let mut p = 1.0;
        let mut cur = path;
        while cur != PathId::ROOT {
            p *= self.cond(cur);
            cur = paths.parent(cur);
        }
        p
    }

    /// Builds sequencing priorities `p'(C|root) = p(C|root) · w(C)` for all
    /// declared paths.
    pub fn priorities(&self, paths: &PathTable, weights: &WeightMap) -> PriorityMap {
        let mut pm = PriorityMap::new(0.0);
        for &path in self.cond.keys() {
            pm.insert(path, self.root_probability(paths, path) * weights.get(path));
        }
        pm
    }
}

/// What a sample has shown of one path.
#[derive(Debug, Clone, Default)]
struct Seen {
    /// Sampled documents containing the path.
    count: u32,
    /// Observed with sibling multiplicity ≥ 2 (identical siblings).
    group: bool,
    /// Estimation scratch.  The two stamps stand in for a per-document and
    /// a per-node set: the path was already met in the document being
    /// counted iff `doc` is that document's number, and then `under` is the
    /// parent it was last met under.
    doc: u32,
    under: NodeId,
}

/// Probabilities estimated from a document sample: one record per path,
/// indexed by the dense [`PathId`].
#[derive(Debug, Clone, Default)]
pub struct ProbabilityModel {
    seen: Vec<Seen>,
    sample_size: u32,
}

impl ProbabilityModel {
    /// Estimates `p(C|root)` for every path occurring in (a sample of) the
    /// documents: the fraction of sampled documents containing the path.
    ///
    /// `sample_cap` bounds how many documents are inspected (0 = all);
    /// sampling takes every ⌈n/cap⌉-th document so it is deterministic.
    /// Path-encodes the sample (interning its paths in document order),
    /// then [`ProbabilityModel::estimate_encoded`].
    pub fn estimate(docs: &[Document], paths: &mut PathTable, sample_cap: usize) -> Self {
        let stride = if sample_cap == 0 || docs.len() <= sample_cap {
            1
        } else {
            docs.len().div_ceil(sample_cap)
        };
        let sample: Vec<(&Document, Vec<PathId>)> = (docs.iter().step_by(stride))
            .map(|doc| (doc, doc.path_encode(paths)))
            .collect();
        Self::estimate_encoded(sample.iter().map(|(doc, enc)| (*doc, &enc[..])), paths)
    }

    /// The estimate over documents that are already path-encoded against
    /// `paths` (`enc[node]`, from [`Document::path_encode`]) — every given
    /// document counts.  A build encodes its corpus once and hands the same
    /// encodings to this and to the index constructor.
    #[expect(clippy::indexing_slicing, reason = "`seen` has a slot per path; enc one per node")]
    pub fn estimate_encoded<'a>(
        sample: impl IntoIterator<Item = (&'a Document, &'a [PathId])>,
        paths: &PathTable,
    ) -> Self {
        let mut seen = vec![Seen::default(); paths.len()];
        let mut sample_size = 0;
        for (doc, enc) in sample {
            sample_size += 1;
            let mut meet = |node: NodeId, parent: NodeId| {
                let s = &mut seen[enc[node as usize].0 as usize];
                if s.doc != sample_size {
                    (s.doc, s.count) = (sample_size, s.count + 1);
                } else if s.under == parent {
                    // identical siblings: a path occurring twice under one
                    // parent, whose children are met back to back
                    s.group = true;
                }
                s.under = parent;
            };
            // the root has no parent, and no node has this one
            doc.root().into_iter().for_each(|r| meet(r, NodeId::MAX));
            for n in doc.node_ids() {
                doc.children(n).iter().for_each(|&c| meet(c, n));
            }
        }
        ProbabilityModel { seen, sample_size }
    }

    /// `p(C|root)` of a path some sampled document contains.
    fn probability(&self, s: &Seen) -> Option<f64> {
        (s.count > 0).then(|| f64::from(s.count) / f64::from(self.sample_size))
    }

    /// Estimated `p(C|root)` (0.0 for never-seen paths).
    pub fn root_probability(&self, path: PathId) -> f64 {
        let s = self.seen.get(path.0 as usize);
        s.and_then(|s| self.probability(s)).unwrap_or(0.0)
    }

    /// Number of documents actually sampled.
    pub fn sample_size(&self) -> usize {
        self.sample_size as usize
    }

    /// Number of distinct paths with estimates.
    pub fn path_count(&self) -> usize {
        self.seen.iter().filter(|s| s.count > 0).count()
    }

    /// Builds sequencing priorities `p'(C|root) = p(C|root) · w(C)`,
    /// carrying the observed group paths (so the emitter applies subtree
    /// contiguity uniformly across documents) and dictionary-wide block
    /// priorities (so documents order their contiguous blocks identically).
    ///
    /// The map is declared monotone ([`PriorityMap::declare_monotone`])
    /// when the sweep finds it so — always with `w ≡ 1`, since a document
    /// containing a path contains its parent; a boost may break it.
    #[expect(clippy::indexing_slicing, reason = "block covers every path; parent ids are smaller")]
    pub fn priorities(&self, paths: &PathTable, weights: &WeightMap) -> PriorityMap {
        let mut pm = PriorityMap::new(0.0);
        let key = |i: usize| {
            let s = self.seen.get(i)?;
            Some(self.probability(s)? * weights.get(PathId(i as u32)))
        };
        // Block priority of a path = min weighted priority over every seen
        // path extending it (including itself); NaN = none seen yet, which
        // `f64::min` ignores.  A path's id is above its parent's, so one
        // descending sweep has folded a whole subtree before it reads its
        // root — and every column of `pm` grows once, at the highest id.
        // Unseen paths read the default 0.0, so the map is monotone when
        // every key is ≥ 0.0 (NaN is not) and neither a path's key nor its
        // block key exceeds its parent's.
        let mut block = vec![f64::NAN; self.seen.len()];
        let mut monotone = true;
        for (i, s) in self.seen.iter().enumerate().rev() {
            let p = PathId(i as u32);
            let v = key(i);
            if let Some(v) = v {
                pm.insert(p, v);
                block[i] = block[i].min(v);
                monotone &= v >= 0.0;
            }
            if s.group {
                pm.mark_contiguous(p);
            }
            let up = paths.parent(p);
            if p != PathId::ROOT && up != PathId::ROOT {
                let highest = v.unwrap_or(0.0).max(block[i]);
                monotone &= highest <= key(up.0 as usize).unwrap_or(0.0);
            }
            if !block[i].is_nan() {
                pm.set_block_priority(p, block[i]);
                let up = up.0 as usize;
                block[up] = block[up].min(block[i]);
            }
        }
        if monotone {
            pm.declare_monotone();
        }
        pm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xseq_xml::{Symbol, SymbolTable, ValueMode};

    fn fixture() -> (SymbolTable, PathTable) {
        (
            SymbolTable::with_value_mode(ValueMode::Intern),
            PathTable::new(),
        )
    }

    fn path(st: &mut SymbolTable, pt: &mut PathTable, spec: &str) -> PathId {
        let syms: Vec<Symbol> = spec
            .split('.')
            .map(|part| {
                if let Some(v) = part.strip_prefix('\'') {
                    st.val(v)
                } else {
                    st.elem(part)
                }
            })
            .collect();
        pt.intern(&syms)
    }

    #[test]
    fn figure13_chain_rule() {
        // Figure 12 conditionals: p(R|P)=0.9 (per Fig 13: p(R|root)=0.9),
        // p(U|R)=0.8, p(M|U)=0.8, p(L|R)=0.4, p(v3|L)=0.1, p(v1|P)=0.001,
        // p(v2|M)=0.001.
        let (mut st, mut pt) = fixture();
        let p = path(&mut st, &mut pt, "P");
        let pr = path(&mut st, &mut pt, "P.R");
        let pru = path(&mut st, &mut pt, "P.R.U");
        let prum = path(&mut st, &mut pt, "P.R.U.M");
        let prl = path(&mut st, &mut pt, "P.R.L");
        let prlv3 = path(&mut st, &mut pt, "P.R.L.'v3");
        let pv1 = path(&mut st, &mut pt, "P.'v1");
        let prumv2 = path(&mut st, &mut pt, "P.R.U.M.'v2");

        let mut schema = SchemaTree::new();
        schema.set_cond(p, 1.0);
        schema.set_cond(pr, 0.9);
        schema.set_cond(pru, 0.8);
        schema.set_cond(prum, 0.8);
        schema.set_cond(prl, 0.4);
        schema.set_cond(prlv3, 0.1);
        schema.set_cond(pv1, 0.001);
        schema.set_cond(prumv2, 0.001);

        // Figure 13's derived values.
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(schema.root_probability(&pt, p), 1.0));
        assert!(close(schema.root_probability(&pt, pr), 0.9));
        assert!(
            close(schema.root_probability(&pt, pru), 0.72),
            "p(U|root) = 0.8 × 0.9 = 0.72 by the chain rule (Fig. 13 prints 0.8)"
        );
        assert!(close(schema.root_probability(&pt, prl), 0.36));
        assert!(close(schema.root_probability(&pt, prlv3), 0.036));
        assert!(close(schema.root_probability(&pt, pv1), 0.001));
        // p(M|root) = 0.8 × 0.72; p(v2|root) = 0.001 × that
        assert!(close(schema.root_probability(&pt, prum), 0.576));
        assert!(close(schema.root_probability(&pt, prumv2), 0.000576));
    }

    #[test]
    fn priorities_follow_weights() {
        let (mut st, mut pt) = fixture();
        let pa = path(&mut st, &mut pt, "P.A");
        let pb = path(&mut st, &mut pt, "P.B");
        let p = path(&mut st, &mut pt, "P");

        let mut schema = SchemaTree::new();
        schema.set_cond(p, 1.0);
        schema.set_cond(pa, 0.9);
        schema.set_cond(pb, 0.5);

        let pm = schema.priorities(&pt, &WeightMap::default());
        assert!(pm.get(pa) > pm.get(pb));

        // Boosting B (frequently queried, highly selective) flips the order.
        let mut w = WeightMap::default();
        w.set(pb, 10.0);
        let pm = schema.priorities(&pt, &w);
        assert!(pm.get(pb) > pm.get(pa));
    }

    #[test]
    fn estimation_counts_document_fractions() {
        let (mut st, mut pt) = fixture();
        let a = st.elem("a");
        let b = st.elem("b");
        let c = st.elem("c");
        // 4 docs: all have root a; 2 have child b; 1 has child c.
        let mut docs = Vec::new();
        for i in 0..4 {
            let mut d = Document::with_root(a);
            let r = d.root().unwrap();
            if i < 2 {
                d.child(r, b);
            }
            if i == 0 {
                d.child(r, c);
            }
            docs.push(d);
        }
        let model = ProbabilityModel::estimate(&docs, &mut pt, 0);
        let pa = pt.lookup(&[a]).unwrap();
        let pab = pt.lookup(&[a, b]).unwrap();
        let pac = pt.lookup(&[a, c]).unwrap();
        assert_eq!(model.sample_size(), 4);
        assert_eq!(model.root_probability(pa), 1.0);
        assert_eq!(model.root_probability(pab), 0.5);
        assert_eq!(model.root_probability(pac), 0.25);
        assert_eq!(model.path_count(), 3);
    }

    #[test]
    #[expect(clippy::integer_division_remainder_used, reason = "test data cycles by literals")]
    fn estimation_parent_ge_child() {
        // The monotonicity Algorithm 2 relies on: a parent's probability is
        // at least as high as any child's.
        let (mut st, mut pt) = fixture();
        let a = st.elem("a");
        let b = st.elem("b");
        let c = st.elem("c");
        let mut docs = Vec::new();
        for i in 0..10 {
            let mut d = Document::with_root(a);
            let r = d.root().unwrap();
            if i % 2 == 0 {
                let bn = d.child(r, b);
                if i % 4 == 0 {
                    d.child(bn, c);
                }
            }
            docs.push(d);
        }
        let model = ProbabilityModel::estimate(&docs, &mut pt, 0);
        for p in pt.iter().skip(1) {
            let parent = pt.parent(p);
            if parent != PathId::ROOT {
                assert!(
                    model.root_probability(parent) >= model.root_probability(p),
                    "monotonicity violated"
                );
            }
        }
    }

    #[test]
    fn sampling_cap_is_respected_and_deterministic() {
        let (mut st, mut pt) = fixture();
        let a = st.elem("a");
        let docs: Vec<Document> = (0..100).map(|_| Document::with_root(a)).collect();
        let m1 = ProbabilityModel::estimate(&docs, &mut pt, 10);
        let m2 = ProbabilityModel::estimate(&docs, &mut pt, 10);
        assert!(m1.sample_size() <= 10);
        assert_eq!(m1.sample_size(), m2.sample_size());
        let pa = pt.lookup(&[a]).unwrap();
        assert_eq!(m1.root_probability(pa), 1.0);
    }

    #[test]
    fn unseen_paths_have_zero_probability() {
        let (mut st, mut pt) = fixture();
        let a = st.elem("a");
        let z = st.elem("z");
        let docs = vec![Document::with_root(a)];
        let model = ProbabilityModel::estimate(&docs, &mut pt, 0);
        let paz = pt.intern(&[a, z]);
        assert_eq!(model.root_probability(paz), 0.0);
    }

    #[test]
    fn value_distribution_is_the_second_factor() {
        // Paper: p(C=v1|P) combines existence probability and value
        // distribution. Counting concrete value paths gives exactly that.
        let (mut st, mut pt) = fixture();
        let a = st.elem("a");
        let l = st.elem("l");
        let mut docs = Vec::new();
        for i in 0..10 {
            let mut d = Document::with_root(a);
            let r = d.root().unwrap();
            let ln = d.child(r, l);
            // value exists in 10/10 docs; 'x' in 8, 'y' in 2
            let v = if i < 8 { st.val("x") } else { st.val("y") };
            d.child(ln, v);
            docs.push(d);
        }
        let model = ProbabilityModel::estimate(&docs, &mut pt, 0);
        let x = st.val("x");
        let y = st.val("y");
        let alx = pt.lookup(&[a, l, x]).unwrap();
        let aly = pt.lookup(&[a, l, y]).unwrap();
        assert!((model.root_probability(alx) - 0.8).abs() < 1e-12);
        assert!((model.root_probability(aly) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn weight_map_defaults() {
        let w = WeightMap::default();
        assert_eq!(w.get(PathId(5)), 1.0);
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn schema_rejects_bad_probability() {
        let mut schema = SchemaTree::new();
        schema.set_cond(PathId(1), 1.5);
    }
}
