//! The ordered matchers against the brute-force oracle: Algorithm 1 with
//! isomorphic expansion is complete for the order-consistent canonical
//! depth-first strategy, and constraint matching never answers a document
//! naïve matching does not.

use proptest::prelude::*;
use xseq_baselines::{constraint_search, naive_search, ordered_query};
use xseq_index::{PlanOptions, XmlIndex};
use xseq_sequence::Strategy as SeqStrategy;
use xseq_xml::{
    matcher::structure_match, Axis, Document, PathTable, PatternLabel, SymbolTable, TreePattern,
    ValueMode,
};

#[derive(Debug, Clone)]
struct CorpusRecipe {
    /// Each doc: (parent choices, label choices).
    docs: Vec<(Vec<u32>, Vec<u8>)>,
    alphabet: u8,
}

fn corpus_recipe(
    max_docs: usize,
    max_nodes: usize,
    alphabet: u8,
) -> impl Strategy<Value = CorpusRecipe> {
    proptest::collection::vec(
        (1..max_nodes).prop_flat_map(|n| {
            (
                proptest::collection::vec(any::<u32>(), n),
                proptest::collection::vec(any::<u8>(), n + 1),
            )
        }),
        1..max_docs,
    )
    .prop_map(move |docs| CorpusRecipe { docs, alphabet })
}

#[derive(Debug, Clone)]
struct PatternRecipe {
    parents: Vec<u32>,
    labels: Vec<u8>,
    axes: Vec<bool>,
    wildcard_mask: Vec<bool>,
}

fn pattern_recipe(max_nodes: usize) -> impl Strategy<Value = PatternRecipe> {
    (1..max_nodes).prop_flat_map(|n| {
        (
            proptest::collection::vec(any::<u32>(), n - 1),
            proptest::collection::vec(any::<u8>(), n),
            proptest::collection::vec(any::<bool>(), n),
            proptest::collection::vec(proptest::bool::weighted(0.2), n),
        )
            .prop_map(|(parents, labels, axes, wildcard_mask)| PatternRecipe {
                parents,
                labels,
                axes,
                wildcard_mask,
            })
    })
}

fn build_corpus(recipe: &CorpusRecipe, st: &mut SymbolTable) -> Vec<Document> {
    // Alphabet: elements e0..e{k-1} where the root is always e0, so queries
    // rooted at e0 have a chance to match.
    let syms: Vec<_> = (0..recipe.alphabet.max(1))
        .map(|i| st.elem(&format!("e{i}")))
        .collect();
    recipe
        .docs
        .iter()
        .map(|(parents, labels)| {
            let mut doc = Document::with_root(syms[0]);
            for i in 1..=parents.len() {
                let parent = parents[i - 1] % i as u32;
                let lab = syms[(labels[i] as usize) % syms.len()];
                doc.child(parent, lab);
            }
            doc
        })
        .collect()
}

fn build_pattern(recipe: &PatternRecipe, st: &mut SymbolTable, alphabet: u8) -> TreePattern {
    let n = recipe.labels.len();
    let lab = |i: usize, st: &mut SymbolTable| -> PatternLabel {
        if recipe.wildcard_mask[i] {
            PatternLabel::AnyElem
        } else if i == 0 {
            PatternLabel::Elem(st.designator("e0"))
        } else {
            let k = (recipe.labels[i] as usize) % alphabet.max(1) as usize;
            PatternLabel::Elem(st.designator(&format!("e{k}")))
        }
    };
    let axis = |i: usize| {
        if recipe.axes[i] {
            Axis::Descendant
        } else {
            Axis::Child
        }
    };
    let root_label = lab(0, st);
    let mut q = TreePattern::with_root_axis(root_label, axis(0));
    for i in 1..n {
        let parent = recipe.parents[i - 1] % i as u32;
        q.add(parent, axis(i), lab(i, st));
    }
    q
}

fn oracle(pattern: &TreePattern, docs: &[Document]) -> Vec<u32> {
    docs.iter()
        .enumerate()
        .filter(|(_, d)| structure_match(pattern, d))
        .map(|(i, _)| i as u32)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn equivalence_ordered_algorithm1_depth_first(corpus in corpus_recipe(6, 12, 3), pat in pattern_recipe(5)) {
        // The paper-faithful ordered search (Algorithm 1 + isomorphic
        // expansion) is complete for the order-consistent canonical DF
        // strategy.
        let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
        let docs = build_corpus(&corpus, &mut st);
        let q = build_pattern(&pat, &mut st, corpus.alphabet);
        let mut paths = PathTable::new();
        let index = XmlIndex::build(&docs, &mut paths, SeqStrategy::DepthFirst, PlanOptions::default());
        let got = ordered_query(&index, &q, &paths, constraint_search).docs;
        let expect = oracle(&q, &docs);
        prop_assert_eq!(got, expect, "pattern {}", q.render(&st));
    }

    #[test]
    fn constraint_results_subset_of_naive(corpus in corpus_recipe(6, 12, 3), pat in pattern_recipe(5)) {
        let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
        let docs = build_corpus(&corpus, &mut st);
        let q = build_pattern(&pat, &mut st, corpus.alphabet);
        let mut paths = PathTable::new();
        let index = XmlIndex::build(&docs, &mut paths, SeqStrategy::DepthFirst, PlanOptions::default());
        let strict = index.query(&q, &paths).docs;
        let naive = ordered_query(&index, &q, &paths, naive_search).docs;
        for d in &strict {
            prop_assert!(naive.contains(d), "constraint result missing from naive");
        }
    }
}
