//! Mutation tests for the integrity verifier: seed deliberate corruptions
//! into otherwise-clean frozen tries and assert the verifier pinpoints
//! them — the right invariant class, anchored at the corrupted
//! coordinates — while clean indexes of any shape verify clean (no false
//! positives, no false negatives).

use proptest::prelude::*;
use xseq_index::{
    verify_trie_structure, InvariantClass, PlanOptions, SequenceTrie, TrieView, XmlIndex,
};
use xseq_sequence::Sequence;
use xseq_sequence::Strategy as SeqStrategy;
use xseq_xml::{Document, PathId, PathTable, SymbolTable, ValueMode};

/// Each doc: node `i` (1-based) attaches under `parents[i-1] % i` with
/// label `labels[i] % alphabet` — the same compact recipe the sequencing
/// proptests use.
#[derive(Debug, Clone)]
struct CorpusRecipe {
    docs: Vec<(Vec<u32>, Vec<u8>)>,
    alphabet: u8,
}

fn corpus_recipe(max_docs: usize, max_nodes: usize) -> impl Strategy<Value = CorpusRecipe> {
    (
        proptest::collection::vec(
            (1..max_nodes).prop_flat_map(|n| {
                (
                    proptest::collection::vec(any::<u32>(), n),
                    proptest::collection::vec(any::<u8>(), n + 1),
                )
            }),
            1..max_docs,
        ),
        2u8..5,
    )
        .prop_map(|(docs, alphabet)| CorpusRecipe { docs, alphabet })
}

fn build_index(recipe: &CorpusRecipe) -> (XmlIndex, PathTable) {
    let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
    let syms: Vec<_> = (0..recipe.alphabet)
        .map(|i| st.elem(&format!("e{i}")))
        .collect();
    let docs: Vec<Document> = recipe
        .docs
        .iter()
        .map(|(parents, labels)| {
            let mut doc = Document::with_root(syms[(labels[0] % recipe.alphabet) as usize]);
            for i in 1..=parents.len() {
                let parent = parents[i - 1] % i as u32;
                doc.child(parent, syms[(labels[i] % recipe.alphabet) as usize]);
            }
            doc
        })
        .collect();
    let mut paths = PathTable::new();
    let index = XmlIndex::build(
        &docs,
        &mut paths,
        SeqStrategy::DepthFirst,
        PlanOptions::default(),
    );
    (index, paths)
}

#[test]
fn empty_index_verifies_clean_without_panicking() {
    let mut paths = PathTable::new();
    let index = XmlIndex::build(
        &[],
        &mut paths,
        SeqStrategy::DepthFirst,
        PlanOptions::default(),
    );
    let report = index.verify_integrity(&paths);
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(report.sequences_checked, 0);
}

#[test]
fn single_doc_index_verifies_clean() {
    let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
    let a = st.elem("a");
    let b = st.elem("b");
    let mut doc = Document::with_root(a);
    let root = doc.root().expect("rooted");
    doc.child(root, b);
    let mut paths = PathTable::new();
    let index = XmlIndex::build(
        &[doc],
        &mut paths,
        SeqStrategy::DepthFirst,
        PlanOptions::default(),
    );
    let report = index.verify_integrity(&paths);
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(report.sequences_checked, 1);
}

/// A sparse directory's keys swapped out of order are `LinkDirectory`, and
/// bisecting them reads links without a panic.
#[test]
fn out_of_order_sparse_keys_are_reported() {
    let seq = |ids: &[u32]| Sequence(ids.iter().map(|&p| PathId(1_000 + p)).collect());
    let mut trie = SequenceTrie::new();
    trie.bulk_load(vec![(seq(&[1, 2, 3]), 0), (seq(&[1, 4]), 1)]);
    trie.freeze();
    assert!(verify_trie_structure(&trie).is_clean());
    let f = trie.corrupt_frozen().expect("frozen");
    assert_eq!(
        f.links.keys.len(),
        4,
        "ids far above four per node are sparse"
    );
    f.links.keys.swap(1, 2);
    let report = verify_trie_structure(&trie);
    assert!(
        report.has(InvariantClass::LinkDirectory),
        "{}",
        report.render()
    );
    for p in 1_000..1_006 {
        let _ = TrieView::link(&trie, PathId(p)).len();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// No false positives: every clean index verifies clean.
    #[test]
    fn clean_indexes_have_zero_violations(recipe in corpus_recipe(8, 20)) {
        let (index, paths) = build_index(&recipe);
        let report = index.verify_integrity(&paths);
        prop_assert!(report.is_clean(), "{}", report.render());
        // one check per distinct stored sequence: documents with equal
        // sequences share an end node
        let distinct = index.trie().frozen().end_nodes.len();
        prop_assert_eq!(report.sequences_checked, distinct);
    }

    /// Swapping two adjacent path-link serials must surface as `LinkOrder`
    /// anchored at the out-of-order entry.
    #[test]
    fn swapped_link_serials_are_pinpointed(
        recipe in corpus_recipe(8, 20),
        pick in any::<u32>(),
    ) {
        let (mut index, _paths) = build_index(&recipe);
        let swapped = {
            let f = index
                .trie_mut()
                .corrupt_frozen()
                .expect("build() freezes");
            // The arena's groups of two or more entries, as ranges of it.
            let eligible: Vec<_> = f
                .links
                .off
                .windows(2)
                .map(|w| w[0] as usize..w[1] as usize)
                .filter(|link| link.len() >= 2)
                .collect();
            if eligible.is_empty() {
                None
            } else {
                let link = &eligible[pick as usize % eligible.len()];
                let i = link.start + pick as usize % (link.len() - 1);
                let entries = &mut f.links.entries;
                let (a, b) = (entries[i].serial, entries[i + 1].serial);
                entries[i].serial = b;
                entries[i + 1].serial = a;
                Some(a.min(b))
            }
        };
        let Some(low) = swapped else {
            return Ok(()); // no multi-entry link in this corpus shape
        };
        let report = index.verify_structure();
        prop_assert!(report.has(InvariantClass::LinkOrder), "{}", report.render());
        prop_assert!(
            report
                .violations
                .iter()
                .any(|v| v.class == InvariantClass::LinkOrder && v.serial == Some(low)),
            "LinkOrder must anchor at the out-of-order serial {low}:\n{}",
            report.render()
        );
    }

    /// An offset of the link directory moved out of order, or past the
    /// arena, must surface as `LinkDirectory`; every link still reads
    /// without a panic, and a query over the broken index answers.
    #[test]
    fn broken_link_offset_is_reported(
        recipe in corpus_recipe(8, 20),
        pick in any::<u32>(),
    ) {
        let (mut index, _paths) = build_index(&recipe);
        let top = {
            let f = index.trie_mut().corrupt_frozen().expect("build() freezes");
            let off = &mut f.links.off;
            // any offset but the first: below its predecessor, or past the end
            let g = 1 + pick as usize % (off.len() - 1);
            off[g] = match off[g - 1] {
                0 => f.links.entries.len() as u32 + 1,
                prev => prev - 1,
            };
            off.len() as u32
        };
        let report = index.verify_structure();
        prop_assert!(report.has(InvariantClass::LinkDirectory), "{}", report.render());
        let trie = index.trie();
        for p in 0..top + 2 {
            let _ = TrieView::link(trie, PathId(p)).len();
        }
    }

    /// Widening a child's preorder range past its parent must surface as
    /// `PreorderNesting` at the child or `SubtreeExtent` at an ancestor.
    #[test]
    fn widened_child_range_is_pinpointed(
        recipe in corpus_recipe(8, 20),
        pick in any::<u32>(),
    ) {
        let (mut index, _paths) = build_index(&recipe);
        let (node, parent) = {
            let trie = index.trie_mut();
            // Any real (non-virtual-root) node: arena ids 1..=node_count().
            let n = (1 + pick as usize % trie.node_count()) as u32;
            let parent = trie.parent(n);
            let f = trie.corrupt_frozen().expect("build() freezes");
            f.max_desc[n as usize] = f.max_desc.len() as u32 + 7;
            (n, parent)
        };
        let report = index.verify_structure();
        prop_assert!(
            report.violations.iter().any(|v| {
                (v.class == InvariantClass::PreorderNesting && v.node == Some(node))
                    || (v.class == InvariantClass::SubtreeExtent && v.node == Some(parent))
            }),
            "corrupting node {node} (parent {parent}) must anchor there:\n{}",
            report.render()
        );
    }

    /// Flipping one bit of the end-node rank directory must surface as an
    /// `EndNodes` violation at that serial, and so must a wrong count.
    #[test]
    fn corrupted_rank_directory_is_pinpointed(
        recipe in corpus_recipe(8, 20),
        pick in any::<u32>(),
    ) {
        let (mut index, _paths) = build_index(&recipe);
        let node = {
            let trie = index.trie_mut();
            let n = (pick as usize % (trie.node_count() + 1)) as u32;
            let f = trie.corrupt_frozen().expect("build() freezes");
            f.end_bits[n as usize / 64] ^= 1 << (n % 64);
            n
        };
        let report = index.verify_structure();
        prop_assert!(
            report
                .violations
                .iter()
                .any(|v| v.class == InvariantClass::EndNodes && v.node == Some(node)),
            "flipping the end bit of node {node} must anchor there:\n{}",
            report.render()
        );
        let trie = index.trie_mut();
        let f = trie.corrupt_frozen().expect("build() freezes");
        f.end_bits[node as usize / 64] ^= 1 << (node % 64);
        let last = f.end_rank.len() - 1;
        f.end_rank[last] += 1;
        let report = index.verify_structure();
        prop_assert!(report.has(InvariantClass::EndNodes), "a wrong count:\n{}", report.render());
        prop_assert_eq!(report.violations.len(), 1, "{}", report.render());
    }

    /// Flipping one designator of a stored sequence (rewriting a trie
    /// node's path) must surface as a sequence-level violation
    /// (`SequenceF2`/`RoundTrip`) or as broken link coverage for the two
    /// paths involved.
    #[test]
    fn flipped_designator_is_pinpointed(
        recipe in corpus_recipe(8, 20),
        pick in any::<u32>(),
    ) {
        let (mut index, paths) = build_index(&recipe);
        {
            let trie = index.trie_mut();
            let n = (1 + pick as usize % trie.node_count()) as u32;
            let old = trie.path(n);
            // Flip to any other path stored in the trie.
            let other = (1..=trie.node_count() as u32)
                .map(|m| trie.path(m))
                .find(|&p| p != old);
            let Some(other) = other else {
                return Ok(()); // single-path corpus: nothing to flip to
            };
            trie.corrupt_set_path(n, other);
        }
        let report = index.verify_integrity(&paths);
        prop_assert!(!report.is_clean(), "flip must be caught");
        prop_assert!(
            report.has(InvariantClass::SequenceF2)
                || report.has(InvariantClass::RoundTrip)
                || report.has(InvariantClass::LinkCoverage),
            "wrong class for a designator flip:\n{}",
            report.render()
        );
    }
}
