//! Property tests: the paged trie is observationally identical to the
//! in-memory trie for arbitrary corpora and queries, under any pool size.

use proptest::prelude::*;
use xseq_baselines::{constraint_search, naive_search};
use xseq_index::{tree_search, QuerySequence, SequenceTrie, TrieView};
use xseq_sequence::{sequence_document, Sequence, Strategy as SeqStrategy};
use xseq_storage::{write_paged_trie, MemStore, PagedTrie};
use xseq_xml::{Document, PathTable, SymbolTable, ValueMode};

#[derive(Debug, Clone)]
struct CorpusRecipe {
    docs: Vec<(Vec<u32>, Vec<u8>)>,
}

fn corpus_recipe() -> impl Strategy<Value = CorpusRecipe> {
    proptest::collection::vec(
        (1usize..14).prop_flat_map(|n| {
            (
                proptest::collection::vec(any::<u32>(), n),
                proptest::collection::vec(any::<u8>(), n + 1),
            )
        }),
        1..10,
    )
    .prop_map(|docs| CorpusRecipe { docs })
}

fn build(recipe: &CorpusRecipe) -> (PathTable, SequenceTrie, Vec<Document>) {
    let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
    let syms: Vec<_> = (0..4).map(|i| st.elem(&format!("e{i}"))).collect();
    let mut paths = PathTable::new();
    let mut trie = SequenceTrie::new();
    let mut docs = Vec::new();
    for (id, (parents, labels)) in recipe.docs.iter().enumerate() {
        let mut doc = Document::with_root(syms[0]);
        for i in 1..=parents.len() {
            let parent = parents[i - 1] % i as u32;
            doc.child(parent, syms[(labels[i] as usize) % syms.len()]);
        }
        let seq = sequence_document(&doc, &mut paths, &SeqStrategy::DepthFirst);
        trie.insert(&seq, id as u32);
        docs.push(doc);
    }
    trie.freeze();
    (paths, trie, docs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn paged_trie_view_is_identical(recipe in corpus_recipe()) {
        let (_, trie, _) = build(&recipe);
        let mut store = MemStore::new();
        write_paged_trie(&trie, &mut store).unwrap();
        let paged = PagedTrie::open(store, 4).unwrap();
        prop_assert_eq!(paged.node_count(), trie.node_count());
        for n in 0..=trie.node_count() as u32 {
            prop_assert_eq!(TrieView::label(&paged, n), trie.label(n));
            prop_assert_eq!(TrieView::path(&paged, n), trie.path(n));
            prop_assert_eq!(TrieView::parent(&paged, n), trie.parent(n));
            prop_assert_eq!(
                TrieView::embeds_identical(&paged, n),
                trie.frozen().embeds_identical[n as usize]
            );
        }
    }

    #[test]
    fn paged_answers_match_memory(recipe in corpus_recipe(), pool in 1usize..16, qdoc in 0usize..8, qlen in 1usize..6) {
        let (mut paths, trie, docs) = build(&recipe);
        let mut store = MemStore::new();
        write_paged_trie(&trie, &mut store).unwrap();
        let paged = PagedTrie::open(store, pool).unwrap();

        // query: prefix of a document's own sequence (always matches it)
        let src = &docs[qdoc % docs.len()];
        let seq = sequence_document(src, &mut paths, &SeqStrategy::DepthFirst);
        let q = Sequence(seq.elems()[..qlen.min(seq.len())].to_vec());
        let qs = QuerySequence::from_sequence(&q, &paths);

        let (m1, _) = tree_search(&trie, &qs);
        let (d1, _) = tree_search(&paged, &qs);
        prop_assert_eq!(&m1, &d1);
        prop_assert!(m1.contains(&((qdoc % docs.len()) as u32)));

        let (m2, _) = constraint_search(&trie, &qs);
        let (d2, _) = constraint_search(&paged, &qs);
        prop_assert_eq!(m2, d2);

        let (m3, _) = naive_search(&trie, &qs);
        let (d3, _) = naive_search(&paged, &qs);
        prop_assert_eq!(m3, d3);
    }
}
