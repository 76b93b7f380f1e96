//! The index constructor against its definition.
//!
//! The paper builds its index in three steps — path-encode a tree and order
//! its nodes under `f2` with the strategy `g` (Sections 2, 5), insert the
//! sequence into the trie, label and link it (Section 4.1).  Written out
//! naively that is one `sequence_document` per document, interning as it
//! goes, then `SequenceTrie::bulk_load` and `freeze`.  `XmlIndex` has one
//! constructor, which splits the first step into an interning pass and a
//! pure emission; this test is the reference it must stay bit-identical to
//! — trie, path table and wildcard dictionary — for every strategy.

use std::collections::HashSet;
use xseq_index::{PlanOptions, SequenceTrie, XmlIndex};
use xseq_sequence::{sequence_document, PriorityMap, ProbabilityModel, Strategy, WeightMap};
use xseq_xml::{DocId, Document, PathId, PathTable, SymbolTable, ValueMode};

/// A deterministic corpus without identical siblings (breadth-first
/// sequencing is only defined there): random subsets of five element labels
/// under every node down to depth 4, a value leaf under a quarter of them,
/// one empty document, and two repeats so end nodes hold several documents.
fn corpus(symbols: &mut SymbolTable) -> Vec<Document> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    let elems: Vec<_> = (0..5).map(|i| symbols.elem(&format!("e{i}"))).collect();
    let mut docs: Vec<Document> = (0..60)
        .map(|_| {
            let mut doc = Document::with_root(elems[0]);
            let root = doc.root().expect("document was just given a root");
            let mut open = vec![(root, 1)];
            while let Some((node, depth)) = open.pop() {
                let draw = next();
                for (k, &e) in elems.iter().enumerate() {
                    if depth < 4 && (draw >> k) & 1 == 1 {
                        open.push((doc.child(node, e), depth + 1));
                    }
                }
                if (draw >> 8) & 3 == 0 {
                    doc.child(node, symbols.val(&format!("v{}", next() % 7)));
                }
            }
            doc
        })
        .collect();
    docs.push(Document::new());
    docs.push(docs[0].clone());
    docs.push(docs[7].clone());
    docs
}

/// The strategy of `kind`, derived against `paths`.  With `sample_cap` the
/// estimator first populates the table from every `⌈n/cap⌉`-th document
/// (`build_shard_index` estimates before it builds too, over all of them),
/// so the build meets a table holding some of its paths and interns the
/// rest; without, the table starts empty and the probability strategy is a
/// flat map (every priority equal, ties broken by path id).
fn strategy(
    kind: usize,
    docs: &[Document],
    paths: &mut PathTable,
    sample_cap: Option<usize>,
) -> Strategy {
    let model = sample_cap.map(|cap| ProbabilityModel::estimate(docs, paths, cap));
    match kind {
        0 => Strategy::DepthFirst,
        1 => Strategy::BreadthFirst,
        2 => Strategy::Random { seed: 0x5eed },
        _ => Strategy::Probability(match model {
            Some(model) => model.priorities(paths, &WeightMap::default()),
            None => PriorityMap::new(0.5),
        }),
    }
}

#[test]
fn constructor_is_the_naive_three_steps() {
    let mut symbols = SymbolTable::with_value_mode(ValueMode::Intern);
    let docs = corpus(&mut symbols);
    for sample_cap in [None, Some(9)] {
        for kind in 0..4 {
            let mut ref_paths = PathTable::new();
            let strat = strategy(kind, &docs, &mut ref_paths, sample_cap);
            let prepopulated = ref_paths.len();
            let seqs: Vec<_> = docs
                .iter()
                .enumerate()
                .map(|(id, doc)| (sequence_document(doc, &mut ref_paths, &strat), id as DocId))
                .collect();
            assert!(
                ref_paths.len() > prepopulated,
                "the build must have paths left to intern"
            );
            let ref_data_paths: HashSet<PathId> = seqs
                .iter()
                .flat_map(|(seq, _)| seq.elems().iter().copied())
                .collect();
            let mut reference = SequenceTrie::new();
            reference.bulk_load(seqs);
            reference.freeze();

            let mut paths = PathTable::new();
            let strat = strategy(kind, &docs, &mut paths, sample_cap);
            let index = XmlIndex::build(&docs, &mut paths, strat, PlanOptions::default());
            let case = format!("strategy {kind}, sample cap {sample_cap:?}");
            assert!(index.trie().identical_to(&reference), "trie: {case}");
            assert_eq!(paths.len(), ref_paths.len(), "path table: {case}");
            assert_eq!(index.data_paths(), &ref_data_paths, "dictionary: {case}");
        }
    }
}
