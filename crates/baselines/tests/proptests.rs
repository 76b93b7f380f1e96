//! Property tests for the isomorphic query expansion (Section 3.3) that the
//! ordered matchers rely on: every variant is the same tree.

use proptest::prelude::*;
use xseq_baselines::isomorphic_variants;
use xseq_sequence::{decode_f2, sequence_document, Strategy as SeqStrategy};
use xseq_xml::{Document, PathTable, SymbolTable, ValueMode};

/// A compact recipe for a random tree: for node `i` (1-based), attach under
/// node `parent[i] % i` with label `label[i] % alphabet`.
#[derive(Debug, Clone)]
struct TreeRecipe {
    parents: Vec<u32>,
    labels: Vec<u8>,
    alphabet: u8,
}

fn tree_recipe(max_nodes: usize, max_alpha: u8) -> impl Strategy<Value = TreeRecipe> {
    (1..max_nodes, 1..max_alpha).prop_flat_map(|(n, alpha)| {
        (
            proptest::collection::vec(any::<u32>(), n),
            proptest::collection::vec(any::<u8>(), n + 1),
        )
            .prop_map(move |(parents, labels)| TreeRecipe {
                parents,
                labels,
                alphabet: alpha,
            })
    })
}

fn build(recipe: &TreeRecipe, st: &mut SymbolTable) -> Document {
    let syms: Vec<_> = (0..recipe.alphabet)
        .map(|i| st.elem(&format!("e{i}")))
        .collect();
    let lab = |i: usize| syms[(recipe.labels[i] % recipe.alphabet) as usize];
    let mut doc = Document::with_root(lab(0));
    for i in 1..=recipe.parents.len() {
        let parent = recipe.parents[i - 1] % i as u32;
        doc.child(parent, lab(i));
    }
    doc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn isomorphic_variants_are_isomorphic(recipe in tree_recipe(14, 3)) {
        let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
        let doc = build(&recipe, &mut st);
        let vars = isomorphic_variants(&doc, 32);
        prop_assert!(!vars.is_empty());
        // every variant is structurally the same tree, and they all decode
        // back to it
        let mut paths = PathTable::new();
        for v in &vars {
            prop_assert!(v.structurally_eq(&doc));
            let s = sequence_document(v, &mut paths, &SeqStrategy::DepthFirst);
            let back = decode_f2(&s, &paths).unwrap();
            prop_assert!(back.structurally_eq(&doc));
        }
        // the original ordering is always among the variants
        let s0 = sequence_document(&doc, &mut paths, &SeqStrategy::DepthFirst);
        let found = vars.iter().any(|v| {
            sequence_document(v, &mut paths, &SeqStrategy::DepthFirst).0 == s0.0
        });
        prop_assert!(found, "original ordering must be covered");
    }
}
