//! Node occurrence probabilities and query-tuning weights: what the
//! probability-ordered strategy's [`PriorityMap`] is built from.
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

use crate::PriorityMap;
use std::collections::HashMap;
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
