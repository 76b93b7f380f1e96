//! Query equivalence (Theorems 2 and 3): for every corpus and every tree
//! pattern, constraint subsequence matching over the index returns exactly
//! the documents the brute-force structure matcher accepts — no false
//! alarms, no false dismissals, under every query-consistent strategy.

use proptest::prelude::*;
use xseq_index::{PlanOptions, XmlIndex};
use xseq_schema::{ProbabilityModel, WeightMap};
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

fn check_equivalence(
    corpus: &CorpusRecipe,
    pattern: &PatternRecipe,
    strategy_of: impl Fn(&[Document], &mut PathTable) -> SeqStrategy,
) -> Result<(), TestCaseError> {
    let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
    let docs = build_corpus(corpus, &mut st);
    let q = build_pattern(pattern, &mut st, corpus.alphabet);
    let mut paths = PathTable::new();
    let strategy = strategy_of(&docs, &mut paths);
    let index = XmlIndex::build(&docs, &mut paths, strategy, PlanOptions::default());
    let got = index.query(&q, &paths).docs;
    let expect = oracle(&q, &docs);
    prop_assert_eq!(
        got,
        expect,
        "pattern {} over {} docs",
        q.render(&st),
        docs.len()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn equivalence_depth_first_exact(corpus in corpus_recipe(8, 14, 3), pat in pattern_recipe(6)) {
        // force exact patterns: no wildcards, no descendant axes (root child)
        let mut pat = pat;
        for w in &mut pat.wildcard_mask { *w = false; }
        for a in &mut pat.axes { *a = false; }
        check_equivalence(&corpus, &pat, |_, _| SeqStrategy::DepthFirst)?;
    }

    #[test]
    fn equivalence_depth_first_wildcards(corpus in corpus_recipe(6, 10, 3), pat in pattern_recipe(5)) {
        check_equivalence(&corpus, &pat, |_, _| SeqStrategy::DepthFirst)?;
    }

    #[test]
    fn equivalence_probability_strategy(corpus in corpus_recipe(6, 12, 3), pat in pattern_recipe(5)) {
        check_equivalence(&corpus, &pat, |docs, paths| {
            let model = ProbabilityModel::estimate(docs, paths, 0);
            SeqStrategy::Probability(model.priorities(paths, &WeightMap::default()))
        })?;
    }

    #[test]
    fn equivalence_weighted_probability(corpus in corpus_recipe(6, 12, 3), pat in pattern_recipe(5), boost in 1u8..4) {
        // weights change the sequence order but must never change answers
        check_equivalence(&corpus, &pat, |docs, paths| {
            let model = ProbabilityModel::estimate(docs, paths, 0);
            let mut w = WeightMap::default();
            // boost an arbitrary existing path
            if let Some(p) = paths.iter().nth(boost as usize) {
                w.set(p, 50.0);
            }
            SeqStrategy::Probability(model.priorities(paths, &w))
        })?;
    }

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
        let got = index.query_ordered(&q, &paths).docs;
        let expect = oracle(&q, &docs);
        prop_assert_eq!(got, expect, "pattern {}", q.render(&st));
    }

    #[test]
    fn capped_plans_are_flagged_or_exact(
        corpus in corpus_recipe(6, 12, 3),
        pat in pattern_recipe(5),
        max_assignments in 1usize..8,
        max_merges in 1usize..4,
    ) {
        // A plan cut short by its caps may miss answers but never invents
        // one, and says so; a plan that was not cut short is exact.
        let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
        let docs = build_corpus(&corpus, &mut st);
        let q = build_pattern(&pat, &mut st, corpus.alphabet);
        let mut paths = PathTable::new();
        let options = PlanOptions { max_assignments, max_merges, ..Default::default() };
        let index = XmlIndex::build(&docs, &mut paths, SeqStrategy::DepthFirst, options);
        let out = index.query(&q, &paths);
        let expect = oracle(&q, &docs);
        if out.stats.plan_truncated == 0 {
            prop_assert_eq!(&out.docs, &expect, "pattern {}", q.render(&st));
            prop_assert!(!out.explain().contains("TRUNCATED"));
        } else {
            prop_assert!(out.docs.iter().all(|d| expect.contains(d)), "pattern {}", q.render(&st));
            prop_assert!(out.explain().contains("plan TRUNCATED"));
        }
    }

    #[test]
    fn constraint_results_subset_of_naive(corpus in corpus_recipe(6, 12, 3), pat in pattern_recipe(5)) {
        let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
        let docs = build_corpus(&corpus, &mut st);
        let q = build_pattern(&pat, &mut st, corpus.alphabet);
        let mut paths = PathTable::new();
        let index = XmlIndex::build(&docs, &mut paths, SeqStrategy::DepthFirst, PlanOptions::default());
        let strict = index.query(&q, &paths).docs;
        let naive = index.query_naive(&q, &paths).docs;
        for d in &strict {
            prop_assert!(naive.contains(d), "constraint result missing from naive");
        }
    }
}
