//! Property tests for constraint sequencing: Theorem 1 (unique decoding)
//! must hold for every tree and every strategy.

use proptest::prelude::*;
use std::collections::HashMap;
use xseq_sequence::{
    constraint::f1_applicable, decode_f2, forward_prefix, sequence_document, validate_f2,
    DecodeError, PriorityMap, Sequence, Strategy as SeqStrategy,
};
use xseq_xml::{Document, PathId, PathTable, SymbolTable, ValueMode};

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

/// The Theorem 1 decoder as the paper states it: every element attaches to
/// its forward prefix, found by [`forward_prefix`]'s scan (Definition 2).
/// Quadratic in the fan-out of one node — the oracle for [`decode_f2`].
fn reference_decode(seq: &Sequence, paths: &PathTable) -> Result<Document, DecodeError> {
    if seq.is_empty() {
        return Err(DecodeError::Empty);
    }
    let elems = seq.elems();
    let mut root_idx = None;
    for (i, &p) in elems.iter().enumerate() {
        if paths.depth(p) == 1 {
            if root_idx.is_some() {
                return Err(DecodeError::MultipleRoots);
            }
            root_idx = Some(i);
        }
    }
    let root_idx = root_idx.ok_or(DecodeError::NoRoot)?;
    let mut parent_of = vec![usize::MAX; elems.len()];
    for (i, &p) in elems.iter().enumerate() {
        if i == root_idx {
            continue;
        }
        let t = paths.parent(p);
        if t == PathId::ROOT {
            return Err(DecodeError::MultipleRoots);
        }
        let j = forward_prefix(seq, i, t).ok_or(DecodeError::MissingAncestor { index: i })?;
        parent_of[i] = j;
    }
    let mut order: Vec<usize> = (0..elems.len()).collect();
    order.sort_by_key(|&i| paths.depth(elems[i]));
    let mut doc = Document::new();
    let mut node_of: HashMap<usize, u32> = HashMap::with_capacity(elems.len());
    for &i in &order {
        let sym = paths.last(elems[i]).expect("non-root path");
        if i == root_idx {
            doc = Document::with_root(sym);
            node_of.insert(i, doc.root().expect("with_root has a root"));
        } else {
            let n = doc.child(node_of[&parent_of[i]], sym);
            node_of.insert(i, n);
        }
    }
    Ok(doc)
}

/// One way to break (or merely reorder) a constraint sequence; positions are
/// reduced modulo the sequence length.
#[derive(Debug, Clone)]
enum Mutation {
    /// Swap two elements — puts an element ahead of its prefix, so the
    /// "no earlier occurrence, take the first later one" arm decides.
    Swap(usize, usize),
    /// Delete an element — a prefix that never occurs, or no root at all.
    Delete(usize),
    /// Repeat an element at another position — a second root, or one more
    /// identical sibling.
    Duplicate(usize, usize),
    /// Move the depth-1 element to the back: every other element's prefix
    /// chain now ends behind it.
    RootLast,
}

fn mutation() -> impl Strategy<Value = Mutation> {
    (0..4u8, any::<usize>(), any::<usize>()).prop_map(|(kind, a, b)| match kind {
        0 => Mutation::Swap(a, b),
        1 => Mutation::Delete(a),
        2 => Mutation::Duplicate(a, b),
        _ => Mutation::RootLast,
    })
}

fn mutate(seq: &mut Sequence, m: &Mutation, paths: &PathTable) {
    let n = seq.0.len();
    if n == 0 {
        return;
    }
    match *m {
        Mutation::Swap(a, b) => seq.0.swap(a % n, b % n),
        Mutation::Delete(a) => {
            seq.0.remove(a % n);
        }
        Mutation::Duplicate(a, b) => {
            let p = seq.0[a % n];
            seq.0.insert(b % (n + 1), p);
        }
        Mutation::RootLast => {
            if let Some(i) = seq.0.iter().position(|&p| paths.depth(p) == 1) {
                let root = seq.0.remove(i);
                seq.0.push(root);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn decode_f2_matches_the_forward_prefix_reference(
        recipe in tree_recipe(40, 5),
        seed in any::<u64>(),
        mutations in proptest::collection::vec(mutation(), 0..4),
    ) {
        let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
        let doc = build(&recipe, &mut st);
        let mut paths = PathTable::new();
        let empty = Sequence::default();
        prop_assert_eq!(decode_f2(&empty, &paths), reference_decode(&empty, &paths));
        for strategy in [SeqStrategy::DepthFirst, SeqStrategy::Random { seed }] {
            let mut seq = sequence_document(&doc, &mut paths, &strategy);
            prop_assert_eq!(decode_f2(&seq, &paths), reference_decode(&seq, &paths));
            for m in &mutations {
                mutate(&mut seq, m, &paths);
                prop_assert_eq!(decode_f2(&seq, &paths), reference_decode(&seq, &paths));
            }
        }
    }

    #[test]
    fn roundtrip_depth_first(recipe in tree_recipe(40, 5)) {
        let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
        let doc = build(&recipe, &mut st);
        let mut paths = PathTable::new();
        let seq = sequence_document(&doc, &mut paths, &SeqStrategy::DepthFirst);
        prop_assert_eq!(seq.len(), doc.len());
        prop_assert!(validate_f2(&seq, &mut paths).is_ok());
        let back = decode_f2(&seq, &paths).unwrap();
        prop_assert!(back.structurally_eq(&doc));
    }

    #[test]
    fn roundtrip_random_strategy(recipe in tree_recipe(40, 5), seed in any::<u64>()) {
        let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
        let doc = build(&recipe, &mut st);
        let mut paths = PathTable::new();
        let seq = sequence_document(&doc, &mut paths, &SeqStrategy::Random { seed });
        prop_assert!(validate_f2(&seq, &mut paths).is_ok());
        let back = decode_f2(&seq, &paths).unwrap();
        prop_assert!(back.structurally_eq(&doc));
    }

    #[test]
    fn roundtrip_probability_strategy(recipe in tree_recipe(40, 5), pris in proptest::collection::vec(0.0f64..1.0, 64)) {
        let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
        let doc = build(&recipe, &mut st);
        let mut paths = PathTable::new();
        // priorities keyed by path — derive from a random table
        let enc = doc.path_encode(&mut paths);
        let mut pm = PriorityMap::new(0.0);
        for &p in &enc {
            pm.insert(p, pris[(p.0 as usize) % pris.len()]);
        }
        let seq = sequence_document(&doc, &mut paths, &SeqStrategy::Probability(pm));
        prop_assert!(validate_f2(&seq, &mut paths).is_ok());
        let back = decode_f2(&seq, &paths).unwrap();
        prop_assert!(back.structurally_eq(&doc));
    }

    #[test]
    fn f1_applicable_iff_no_duplicate_paths(recipe in tree_recipe(30, 4)) {
        let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
        let doc = build(&recipe, &mut st);
        let mut paths = PathTable::new();
        let seq = sequence_document(&doc, &mut paths, &SeqStrategy::DepthFirst);
        let mut sorted: Vec<_> = seq.elems().to_vec();
        sorted.sort();
        let has_dup = sorted.windows(2).any(|w| w[0] == w[1]);
        prop_assert_eq!(f1_applicable(&seq), !has_dup);
    }

    #[test]
    fn sequences_of_same_doc_decode_identically(recipe in tree_recipe(25, 4), s1 in any::<u64>(), s2 in any::<u64>()) {
        // Many-to-one: different valid sequences of one tree decode to the
        // same structure (the crux of constraint sequencing).
        let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
        let doc = build(&recipe, &mut st);
        let mut paths = PathTable::new();
        let a = sequence_document(&doc, &mut paths, &SeqStrategy::Random { seed: s1 });
        let b = sequence_document(&doc, &mut paths, &SeqStrategy::Random { seed: s2 });
        let da = decode_f2(&a, &paths).unwrap();
        let db = decode_f2(&b, &paths).unwrap();
        prop_assert!(da.structurally_eq(&db));
    }
}
