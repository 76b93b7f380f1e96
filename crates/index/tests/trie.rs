//! Property tests for the one trie form: a `SequenceTrie` is canonical in
//! its `(sequence, doc)` multiset, equals a recursive reference labeling of
//! the paper's incremental insertion, and refreezes to the bulk load of the
//! union.

use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use xseq_index::{LinkEntry, SequenceTrie, TrieNodeId, TrieView, NIL};
use xseq_sequence::Sequence;
use xseq_xml::{DocId, PathId};

/// Up to `max` short sequences over a 4-path alphabet (so prefixes, repeated
/// paths on one chain and duplicate sequences are all common); element `i`
/// arrives as document `i`.
fn sequences(max: usize) -> impl Strategy<Value = Vec<(Sequence, DocId)>> {
    proptest::collection::vec(proptest::collection::vec(1u32..5, 0..7), 0..max).prop_map(|seqs| {
        seqs.into_iter()
            .enumerate()
            .map(|(doc, s)| (Sequence(s.into_iter().map(PathId).collect()), doc as DocId))
            .collect()
    })
}

fn frozen(seqs: Vec<(Sequence, DocId)>) -> SequenceTrie {
    let mut trie = SequenceTrie::new();
    trie.bulk_load(seqs);
    trie.freeze();
    trie
}

/// The paper's construction, kept as the oracle: insert sequence by sequence
/// into a pointer trie (Figure 7), then label it by a recursive preorder
/// walk, children by ascending `PathId` (Figure 8).
#[derive(Default)]
struct RefNode {
    children: BTreeMap<PathId, RefNode>,
    docs: Vec<DocId>,
}

#[derive(Default)]
struct RefLabels {
    path: Vec<PathId>,
    parent: Vec<TrieNodeId>,
    max_desc: Vec<u32>,
    ends: Vec<(TrieNodeId, Vec<DocId>)>,
}

fn reference(seqs: &[(Sequence, DocId)]) -> RefLabels {
    fn walk(node: &RefNode, path: PathId, parent: TrieNodeId, out: &mut RefLabels) {
        let serial = out.path.len();
        out.path.push(path);
        out.parent.push(parent);
        out.max_desc.push(0);
        if !node.docs.is_empty() {
            out.ends.push((serial as TrieNodeId, node.docs.clone()));
        }
        for (&p, child) in &node.children {
            walk(child, p, serial as TrieNodeId, out);
        }
        out.max_desc[serial] = out.path.len() as u32 - 1;
    }
    let mut root = RefNode::default();
    for (seq, doc) in seqs {
        let mut cur = &mut root;
        for &p in seq.elems() {
            cur = cur.children.entry(p).or_default();
        }
        cur.docs.push(*doc);
    }
    let mut out = RefLabels::default();
    walk(&root, PathId::ROOT, NIL, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// (a) Any arrival order that keeps each sequence's documents in order
    /// freezes to the same trie.
    #[test]
    fn arrival_order_does_not_matter(
        seqs in sequences(24),
        keys in proptest::collection::vec(any::<u32>(), 24),
    ) {
        let mut order: Vec<usize> = (0..seqs.len()).collect();
        order.sort_by_key(|&i| keys[i]);
        let mut permuted: Vec<_> = order.iter().map(|&i| seqs[i].clone()).collect();
        // Hand each sequence's documents back out in their original order.
        let mut docs_of: HashMap<&Sequence, std::vec::IntoIter<DocId>> = HashMap::new();
        for (seq, _) in &seqs {
            docs_of.entry(seq).or_insert_with(|| {
                let same = seqs.iter().filter(|(s, _)| s == seq);
                same.map(|&(_, d)| d).collect::<Vec<_>>().into_iter()
            });
        }
        for (seq, doc) in &mut permuted {
            let next = docs_of.get_mut(seq).and_then(Iterator::next);
            *doc = next.expect("one doc per occurrence");
        }
        prop_assert!(frozen(permuted).identical_to(&frozen(seqs)));
    }

    /// (b) Nodes, labels, links, `embeds_identical` and range collection
    /// equal the recursive reference labeling.
    #[test]
    fn freeze_matches_the_recursive_reference(
        seqs in sequences(24),
        lo in 0u32..40,
        width in 0u32..40,
    ) {
        let want = reference(&seqs);
        let trie = frozen(seqs);
        let n = want.path.len();
        prop_assert_eq!(trie.node_count() + 1, n);
        let f = trie.frozen();
        let mut links: HashMap<PathId, Vec<LinkEntry>, _> = HashMap::default();
        for i in 0..n {
            let id = i as TrieNodeId;
            prop_assert_eq!(trie.path(id), want.path[i]);
            prop_assert_eq!(trie.parent(id), want.parent[i]);
            prop_assert_eq!(trie.label(id), (id, want.max_desc[i]));
            let below = i + 1..=want.max_desc[i] as usize;
            let embeds = below.into_iter().any(|j| want.path[j] == want.path[i]);
            prop_assert_eq!(TrieView::embeds_identical(&trie, i as u32), embeds, "embeds_identical of node {}", i);
            if i > 0 {
                let entry = LinkEntry { serial: id, max_desc: want.max_desc[i] };
                links.entry(want.path[i]).or_default().push(entry);
            }
        }
        prop_assert_eq!(&f.links, &links);
        // each link is allocated once, at its length
        prop_assert!(f.links.values().all(|link| link.capacity() == link.len()));
        let ends: Vec<TrieNodeId> = want.ends.iter().map(|(e, _)| *e).collect();
        prop_assert_eq!(&f.end_nodes, &ends);
        for (end, docs) in &want.ends {
            prop_assert_eq!(trie.docs_at(*end), docs.as_slice());
        }
        let hi = lo + width;
        let in_range: Vec<DocId> = want
            .ends
            .iter()
            .filter(|(e, _)| (lo..=hi).contains(e))
            .flat_map(|(_, docs)| docs.iter().copied())
            .collect();
        let mut got = Vec::new();
        trie.collect_docs_in_range(lo, hi, &mut got);
        prop_assert_eq!(got, in_range);
    }

    /// (c) `freeze → insert k more → freeze` equals one `bulk_load` of the
    /// union — with duplicates of indexed sequences, and with `k = 0`.
    #[test]
    fn refreeze_equals_bulk_load_of_the_union(seqs in sequences(24), split in 0usize..25) {
        let split = split.min(seqs.len());
        let mut trie = frozen(seqs[..split].to_vec());
        // An empty batch still invalidates, so `k = 0` rebuilds from the
        // stored sequences alone.
        trie.bulk_load(Vec::new());
        for (seq, doc) in &seqs[split..] {
            trie.insert(seq, *doc);
        }
        prop_assert!(!trie.is_frozen());
        trie.freeze();
        prop_assert!(trie.identical_to(&frozen(seqs)));
    }
}
