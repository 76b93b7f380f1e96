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

pub mod workload;

pub use workload::{ClassStats, WorkloadProfile, WorkloadRecorder};

use std::collections::{HashMap, HashSet};
use xseq_sequence::PriorityMap;
use xseq_xml::{Document, PathId, PathTable};

/// Query-tuning weights `w(C)` keyed by path; default 1.0 (Section 5.2:
/// "we assign a weight w(C), which reflects the query frequency and
/// selectivity of node C").
#[derive(Debug, Clone, Default)]
pub struct WeightMap {
    map: HashMap<PathId, f64>,
}

impl WeightMap {
    /// Boosts (or demotes) one path.
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

/// Probabilities estimated from a document sample.
#[derive(Debug, Clone, Default)]
pub struct ProbabilityModel {
    root_prob: HashMap<PathId, f64>,
    /// Paths observed with sibling multiplicity ≥ 2 (identical siblings).
    group_paths: HashSet<PathId>,
    sample_size: usize,
}

impl ProbabilityModel {
    /// Estimates `p(C|root)` for every path occurring in (a sample of) the
    /// documents: the fraction of sampled documents containing the path.
    ///
    /// `sample_cap` bounds how many documents are inspected (0 = all);
    /// sampling takes every ⌈n/cap⌉-th document so it is deterministic.
    pub fn estimate(docs: &[Document], paths: &mut PathTable, sample_cap: usize) -> Self {
        let stride = if sample_cap == 0 || docs.len() <= sample_cap {
            1
        } else {
            docs.len().div_ceil(sample_cap)
        };
        let mut count: HashMap<PathId, usize> = HashMap::new();
        let mut group_paths = HashSet::new();
        let mut sampled = 0usize;
        let mut distinct = HashSet::new();
        let mut seen_in_doc = HashSet::new();
        for doc in docs.iter().step_by(stride) {
            sampled += 1;
            distinct.clear();
            let enc = doc.path_encode(paths);
            for &p in &enc {
                distinct.insert(p);
            }
            for &p in &distinct {
                *count.entry(p).or_insert(0) += 1;
            }
            // identical siblings: a path occurring twice under one parent
            for n in doc.node_ids() {
                seen_in_doc.clear();
                for &c in doc.children(n) {
                    if !seen_in_doc.insert(enc[c as usize]) {
                        group_paths.insert(enc[c as usize]);
                    }
                }
            }
        }
        let n = sampled.max(1) as f64;
        ProbabilityModel {
            root_prob: count.into_iter().map(|(p, c)| (p, c as f64 / n)).collect(),
            group_paths,
            sample_size: sampled,
        }
    }

    /// Estimated `p(C|root)` (0.0 for never-seen paths).
    pub fn root_probability(&self, path: PathId) -> f64 {
        self.root_prob.get(&path).copied().unwrap_or(0.0)
    }

    /// Number of documents actually sampled.
    pub fn sample_size(&self) -> usize {
        self.sample_size
    }

    /// Number of distinct paths with estimates.
    pub fn path_count(&self) -> usize {
        self.root_prob.len()
    }

    /// Builds sequencing priorities `p'(C|root) = p(C|root) · w(C)`,
    /// carrying the observed group paths (so the emitter applies subtree
    /// contiguity uniformly across documents) and dictionary-wide block
    /// priorities (so documents order their contiguous blocks identically).
    pub fn priorities(&self, paths: &PathTable, weights: &WeightMap) -> PriorityMap {
        let mut pm = PriorityMap::new(0.0);
        for (&p, &prob) in &self.root_prob {
            pm.insert(p, prob * weights.get(p));
        }
        for &p in &self.group_paths {
            pm.mark_contiguous(p);
        }
        // block priority of a path = min weighted priority over every known
        // path extending it (including itself)
        let mut block: HashMap<PathId, f64> = HashMap::new();
        for (&p, &prob) in &self.root_prob {
            let v = prob * weights.get(p);
            let mut cur = p;
            loop {
                let e = block.entry(cur).or_insert(f64::INFINITY);
                *e = e.min(v);
                if cur == PathId::ROOT {
                    break;
                }
                cur = paths.parent(cur);
            }
        }
        for (p, m) in block {
            pm.set_block_priority(p, m);
        }
        pm
    }

    /// Paths observed with identical siblings.
    pub fn group_paths(&self) -> &HashSet<PathId> {
        &self.group_paths
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
