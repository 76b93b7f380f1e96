//! # xseq-datagen — deterministic workload generation
//!
//! Every dataset of the paper's evaluation, rebuilt as a seeded generator:
//!
//! * [`synthetic`] — the paper's parameterized tree generator
//!   (Section 6.1): a random DTD schema from `L` (max height), `F` (max
//!   fanout), `A` (% value child nodes), `I` (% identical sibling nodes),
//!   then `N` documents whose nodes exist according to per-node occurrence
//!   probabilities drawn from `[P%, 1.0]`.  Datasets are named by their
//!   parameters, e.g. `L3F5A25I0P40`.
//! * [`dblp`] — DBLP-shaped bibliography records (the paper indexes 407,417
//!   records of max depth 6, average constraint-sequence length ≈ 21); the
//!   generator reproduces the shape, the element vocabulary and the value
//!   skew (author names include the `David`s of Table 8's Q3/Q4, keys
//!   include `Maier`).
//! * [`xmark`] — the XMark substructures the paper decomposes the benchmark
//!   into (item / person / open_auction / closed_auction), with and without
//!   identical-sibling repetition, including the constants of Table 4's
//!   queries (`United States`, dates, `personNNNNN`).
//!
//! All generators take a seed and a shared [`xseq_xml::SymbolTable`] and are fully
//! deterministic.

pub mod dblp;
pub mod queries;
pub mod synthetic;
pub mod xmark;

pub use dblp::DblpGenerator;
pub use synthetic::{SyntheticDataset, SyntheticParams};
pub use xmark::{XmarkGenerator, XmarkOptions};

use rand::rngs::StdRng;
use rand::Rng;
use xseq_xml::{Document, NodeId};

/// Draws a random connected root-anchored subtree of `doc` with `len` nodes
/// (or the whole document if smaller) and returns it as a new document —
/// the paper's "random query sequences" for the synthetic experiments
/// (Figure 16: query sequence length is the x-axis).
pub fn random_query_tree(doc: &Document, len: usize, rng: &mut StdRng) -> Document {
    let Some(root) = doc.root() else {
        return Document::new();
    };
    let mut selected: Vec<NodeId> = vec![root];
    let mut frontier: Vec<NodeId> = doc.children(root).to_vec();
    while selected.len() < len && !frontier.is_empty() {
        let i = rng.gen_range(0..frontier.len());
        let n = frontier.swap_remove(i);
        selected.push(n);
        frontier.extend_from_slice(doc.children(n));
    }
    // rebuild as a fresh document preserving relative structure
    let mut out = Document::with_root(doc.sym(root));
    let mut map = std::collections::HashMap::new();
    map.insert(
        root,
        out.root().expect("Document::with_root always has a root"),
    );
    // selected is in discovery order, parents before children
    for &n in &selected[1..] {
        let p = doc.parent(n).expect("non-root");
        let np = map[&p];
        let nn = out.child(np, doc.sym(n));
        map.insert(n, nn);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use xseq_xml::matcher::structure_match;
    use xseq_xml::{Axis, PatternLabel, SymbolTable, TreePattern};

    #[test]
    fn random_query_tree_is_contained() {
        let mut st = SymbolTable::default();
        let params = SyntheticParams {
            max_height: 4,
            max_fanout: 3,
            value_pct: 25,
            identical_pct: 20,
            prob_floor_pct: 40,
        };
        let ds = SyntheticDataset::generate(&params, 20, 42, &mut st);
        let mut rng = StdRng::seed_from_u64(7);
        for doc in &ds.docs[..10] {
            let q = random_query_tree(doc, 4, &mut rng);
            assert!(q.len() <= doc.len());
            // the query tree embeds in its source document
            let mut pattern = TreePattern::root(PatternLabel::Elem(
                q.sym(q.root().unwrap()).as_elem().unwrap(),
            ));
            let mut map = vec![0u32; q.len()];
            for n in q.preorder() {
                if n == q.root().unwrap() {
                    continue;
                }
                let parent = q.parent(n).unwrap();
                let label = match (q.sym(n).as_elem(), q.sym(n).as_value()) {
                    (Some(d), _) => PatternLabel::Elem(d),
                    (_, Some(v)) => PatternLabel::Value(v),
                    _ => unreachable!(),
                };
                map[n as usize] = pattern.add(map[parent as usize], Axis::Child, label);
            }
            assert!(structure_match(&pattern, doc));
        }
    }
}
