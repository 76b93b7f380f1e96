//! Result assembly: how a query turns its completions into an answer.
//!
//! A completion only records its range; the maximal ranges are read at the
//! end through `TrieView::add_docs_in_ranges` (on a `SequenceTrie`, spans
//! of the document array from two `O(1)` ranks of the end-node directory
//! per range, handed over with the trie's id bound; on a `PagedTrie`, a
//! binary search of the end records and a buffer read range by range) into
//! the query's one `Answer`, which every (assignment, segment) search adds
//! to.  It orders the ids through a bitmap when the answer is dense, and
//! its finish drops the tombstones.  Each step must give exactly what a
//! walk of the end nodes, `sort_unstable` + `dedup` and
//! `filter_tombstones` give.

use proptest::prelude::*;
use xseq_index::{
    filter_tombstones, tree_search, tree_search_with, union_answers, Answer, QuerySequence,
    SearchScratch, SequenceTrie, Tombstones, TrieNodeId, TrieView,
};
use xseq_sequence::Sequence;
use xseq_storage::{write_paged_trie, MemStore, PagedTrie};
use xseq_xml::{DocId, PathId, PathTable, SymbolTable, ValueMode};

/// Up to `max` short sequences over a 4-path alphabet, element `i` arriving
/// as document `i`: prefixes, repeated paths on one chain and duplicate
/// sequences are all common, so end nodes sit at every depth.
fn corpus(max: usize) -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(1u32..5, 0..7), 1..max)
}

fn frozen(seqs: &[Vec<u32>]) -> SequenceTrie {
    let mut trie = SequenceTrie::new();
    for (doc, s) in seqs.iter().enumerate() {
        trie.insert(
            &Sequence(s.iter().map(|&p| PathId(p)).collect()),
            doc as DocId,
        );
    }
    trie.freeze();
    trie
}

fn paged(trie: &SequenceTrie, pool: usize) -> PagedTrie<MemStore> {
    let mut store = MemStore::new();
    write_paged_trie(trie, &mut store).expect("a frozen trie writes");
    PagedTrie::open(store, pool).expect("a written trie opens")
}

/// Ascending, disjoint ranges from `(gap, width)` steps: each starts `gap`
/// past the previous end (at `gap` for the first) and spans `width` more
/// serials, so ranges are empty of end nodes, single nodes, or run past the
/// last serial.  With `root`, the one range is the root's.  A last range
/// then ends at the last serial (`end` 1) or at `u32::MAX` (`end` 2).
fn ranges(trie: &SequenceTrie, steps: &[(u32, u32)], root: bool, end: u8) -> Vec<(u32, u32)> {
    if root {
        return vec![trie.root_range()];
    }
    let mut next = 0;
    let mut out = Vec::new();
    for &(gap, width) in steps {
        let lo = next + gap;
        out.push((lo, lo + width));
        next = lo + width + 1;
    }
    match end {
        1 if next <= trie.node_count() as u32 => out.push((next, trie.node_count() as u32)),
        2 => out.push((next, u32::MAX)),
        _ => {}
    }
    out
}

/// Each node's documents, found without the end-node directory: the ids of
/// the inserted sequences that spell the node's root path, in arrival order.
fn docs_by_walk(trie: &SequenceTrie, seqs: &[Vec<u32>]) -> Vec<Vec<DocId>> {
    (0..=trie.node_count() as TrieNodeId)
        .map(|n| {
            let mut spelled = Vec::new();
            let mut cur = n;
            while cur != trie.root() {
                spelled.push(trie.path(cur).0);
                cur = trie.parent(cur);
            }
            spelled.reverse();
            let ends_here = seqs.iter().enumerate().filter(|(_, s)| **s == spelled);
            ends_here.map(|(doc, _)| doc as DocId).collect()
        })
        .collect()
}

/// Short sequences as in `corpus`, then chains of path 1 of the given
/// lengths, the longest at least 130: the trie spans more than two words of
/// serials, and along the chain end nodes lie only where a chain ends.
fn long_corpus() -> impl Strategy<Value = Vec<Vec<u32>>> {
    let chains = proptest::collection::vec(0usize..260, 0..12);
    (corpus(24), chains, 130usize..260).prop_map(|(mut seqs, chains, longest)| {
        seqs.extend(chains.into_iter().chain([longest]).map(|len| vec![1; len]));
        seqs
    })
}

/// Ascending, disjoint ranges from `(gap kind, gap, width, align)` steps:
/// each starts a gap past the previous end — none, a few serials, or more
/// than a word — moved up to bit 0 of the next word with `align & 1`, and
/// ends `width` later, moved up to bit 63 of its word with `align & 2`.
fn word_ranges(steps: &[(u8, u32, u32, u8)]) -> Vec<(u32, u32)> {
    let mut next = 0;
    let mut out = Vec::new();
    for &(kind, gap, width, align) in steps {
        let gap = [0, gap % 6, 64 + gap][usize::from(kind % 3)];
        let mut lo = next + gap;
        if align & 1 != 0 {
            lo = lo.next_multiple_of(64);
        }
        let mut hi = lo + width;
        if align & 2 != 0 {
            hi = (hi + 1).next_multiple_of(64) - 1;
        }
        out.push((lo, hi));
        next = hi + 1;
    }
    out
}

/// Reading `ranges` into an empty answer, on the in-memory trie (spans
/// joined across the gaps no end node separates) and on the paged one
/// (range by range), adds exactly the ids of the end nodes inside them,
/// walked without the directory.
fn read_equals_walk(
    trie: &SequenceTrie,
    seqs: &[Vec<u32>],
    ranges: &[(u32, u32)],
    pool: usize,
) -> Result<(), TestCaseError> {
    let by_node = docs_by_walk(trie, seqs);
    let mut want = Vec::new();
    for &(lo, hi) in ranges {
        let inside = by_node
            .iter()
            .take(hi.saturating_add(1) as usize)
            .skip(lo as usize);
        inside.for_each(|docs| want.extend_from_slice(docs));
    }
    let added = want.len() as u64;
    want.sort_unstable();
    let paged = paged(trie, pool);
    let mut answer = Answer::default();
    for name in ["in memory", "paged"] {
        answer.begin(0);
        let count = if name == "paged" {
            paged.add_docs_in_ranges(ranges, &mut answer)
        } else {
            trie.add_docs_in_ranges(ranges, &mut answer)
        };
        prop_assert_eq!(count, added, "{}, ranges {:?}", name, ranges);
        let mut got = Vec::new();
        answer.finish(&[], &mut got);
        prop_assert_eq!(&got, &want, "{}, ranges {:?}", name, ranges);
    }
    Ok(())
}

/// The query `/p` over a trie where every id in `ids` ends under the one `p`
/// node: its answer is every id, sorted and deduplicated.
fn one_node_answer(ids: &[DocId]) -> (SequenceTrie, QuerySequence) {
    let mut trie = SequenceTrie::new();
    for (i, &doc) in ids.iter().enumerate() {
        // three end nodes, `p` and two children, each with ids in arrival order
        let seq = match i % 3 {
            0 => vec![PathId(1)],
            k => vec![PathId(1), PathId(1 + k as u32)],
        };
        trie.insert(&Sequence(seq), doc);
    }
    trie.freeze();
    let q = QuerySequence {
        paths: vec![PathId(1)],
        parent_pos: vec![None],
    };
    (trie, q)
}

/// The density rule: at least 64 ids added, and a bitmap up to the largest
/// id, or over the id space if that is larger, of at most four words per
/// id added.
fn rule(added: usize, bound: usize) -> bool {
    added >= 64 && bound.div_ceil(64) <= 4 * added
}

/// The rule for `ids` added at once over an empty id space.
fn dense(ids: &[DocId]) -> bool {
    let bound = ids.iter().max().map_or(0, |&m| m as usize + 1);
    rule(ids.len(), bound)
}

/// `tree_search` over `ids` equals `sort_unstable` + `dedup` from a cold
/// scratch and from a warm one, and the answer took the side of the rule
/// that `dense` names.
fn assert_ordered(ids: &[DocId]) -> Result<(), TestCaseError> {
    let (trie, q) = one_node_answer(ids);
    let mut want = ids.to_vec();
    want.sort_unstable();
    want.dedup();
    let mut scratch = SearchScratch::new();
    let cold = tree_search_with(&trie, &q, &mut scratch);
    prop_assert_eq!(&scratch.docs, &want);
    let warm = tree_search_with(&trie, &q, &mut scratch);
    prop_assert_eq!(&scratch.docs, &want);
    prop_assert_eq!(warm, cold);
    let mut answer = Answer::default();
    answer.begin(0);
    answer.add(ids);
    prop_assert_eq!(
        answer.is_dense(),
        dense(ids),
        "bitmap for {} ids",
        ids.len()
    );
    let mut got = Vec::new();
    answer.finish(&[], &mut got);
    prop_assert_eq!(got, want);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn rank_reads_equal_the_end_node_walk(
        seqs in corpus(24),
        steps in proptest::collection::vec((0u32..4, 0u32..6), 0..6),
        root in proptest::bool::weighted(0.15),
        end in 0u8..3,
        only_root in proptest::bool::weighted(0.1),
        pool in 1usize..16,
        pre in proptest::collection::vec(0u32..300, 64..120),
        pre_kind in 0u8..3,
        space in 0u8..4,
    ) {
        // Before the read the answer holds no id, 50 (sparse, and dense
        // after a read of 14 or more) or at least 64 below 300 (dense
        // unless the id space is far past them).
        // With `only_root`, every sequence is empty: the root is the one
        // end node.
        let seqs: Vec<Vec<u32>> = if only_root { vec![Vec::new(); seqs.len()] } else { seqs };
        let trie = frozen(&seqs);
        let by_node = docs_by_walk(&trie, &seqs);
        let ends = &trie.frozen().end_nodes;
        for (n, docs) in by_node.iter().enumerate() {
            let n = n as TrieNodeId;
            prop_assert_eq!(trie.docs_at(n), docs.as_slice(), "node {}", n);
            prop_assert_eq!(!docs.is_empty(), ends.binary_search(&n).is_ok(), "node {}", n);
        }
        prop_assert!(trie.docs_at(trie.node_count() as TrieNodeId + 1).is_empty());
        let ranges = ranges(&trie, &steps, root, end);
        let paged = paged(&trie, pool);
        let mut want = Vec::new();
        for &(lo, hi) in &ranges {
            let from = want.len();
            for docs in by_node.iter().take(hi.saturating_add(1) as usize).skip(lo as usize) {
                want.extend_from_slice(docs);
            }
            let mut got = Vec::new();
            trie.collect_docs_in_range(lo, hi, &mut got);
            prop_assert_eq!(&got[..], &want[from..], "in memory, range {:?}", (lo, hi));
            got.clear();
            paged.collect_docs_in_range(lo, hi, &mut got);
            prop_assert_eq!(&got[..], &want[from..], "paged, range {:?}", (lo, hi));
        }
        // The ranges are disjoint and a document ends at one end node, so
        // no id repeats: the answer adds every id read, and reads them out
        // in order, beside the ids it already held.
        let pre = match pre_kind {
            0 => &pre[..0],
            1 => &pre[..50],
            _ => &pre[..],
        };
        let read_top = want.iter().map(|&d| d as usize + 1).max().unwrap_or(0);
        let top = read_top.max(pre.iter().map(|&d| d as usize + 1).max().unwrap_or(0));
        let id_space = [0, top / 2, top, 1 << 22][space as usize];
        let pre_bound = pre.iter().map(|&d| d as usize + 1).fold(id_space, usize::max);
        let added = want.len();
        want.extend_from_slice(pre);
        want.sort_unstable();
        want.dedup();
        // The in-memory read sizes the bitmap by the trie's id bound, the
        // paged one by the largest id it read.
        let id_bound = trie.frozen().id_bound;
        prop_assert_eq!(id_bound, seqs.len());
        let mut answer = Answer::default();
        let read_bounds = [("in memory", id_bound), ("paged", read_top)];
        let mut answers = Vec::new();
        for (i, (name, read_bound)) in read_bounds.into_iter().enumerate() {
            answer.begin(id_space);
            answer.add(pre);
            prop_assert_eq!(answer.is_dense(), rule(pre.len(), pre_bound), "{}, before", name);
            let count = if i == 0 {
                trie.add_docs_in_ranges(&ranges, &mut answer)
            } else {
                paged.add_docs_in_ranges(&ranges, &mut answer)
            };
            prop_assert_eq!(count, added as u64, "{}, ranges {:?}", name, ranges);
            let bound = if added > 0 { pre_bound.max(read_bound) } else { pre_bound };
            prop_assert_eq!(answer.is_dense(), rule(pre.len() + added, bound), "{}, after", name);
            let mut got = Vec::new();
            answer.finish(&[], &mut got);
            prop_assert_eq!(&got, &want, "{}, ranges {:?}", name, ranges);
            answers.push(got);
        }
        prop_assert_eq!(&answers[0], &answers[1]);
    }

    #[test]
    fn gap_joined_spans_equal_the_end_node_walk(
        seqs in long_corpus(),
        steps in proptest::collection::vec((0u8..3, 0u32..140, 0u32..40, 0u8..4), 0..12),
        pool in 1usize..16,
    ) {
        // Gaps inside one word and across words, with and without an end
        // node in them; ranges ending on bit 63 and starting on bit 0;
        // ranges holding no end node or past the last serial; one range or
        // none.
        let trie = frozen(&seqs);
        prop_assert!(trie.node_count() >= 130);
        read_equals_walk(&trie, &seqs, &word_ranges(&steps), pool)?;
    }

    #[test]
    fn answer_equals_sort_dedup_and_filter(
        raw in proptest::collection::vec(proptest::collection::vec(0u32..300, 0..40), 0..7),
        overlap in proptest::bool::weighted(0.3),
        layout in 0u8..4,
        stride in 0usize..3,
        space in 0u8..4,
        far in 0usize..3,
        tombs in proptest::collection::vec(0u32..600, 0..120),
        tomb_kind in 0u8..4,
    ) {
        // Per-search lists as searches add them: sorted, distinct, empty
        // and single ones included; with `overlap`, the first list appears
        // twice.  `stride` spreads the ids: at 1000 the answer stays sparse.
        let stride = [1, 3, 1000][stride];
        let mut lists: Vec<Vec<DocId>> = raw
            .into_iter()
            .map(|mut l| {
                l.sort_unstable();
                l.dedup();
                l.into_iter().map(|d| d * stride).collect()
            })
            .collect();
        if layout >= 2 {
            // Successive id ranges, as an overlay's segments hold them, in
            // reverse order; with `layout` 3 each range also starts with the
            // id that ends the one before.
            let mut all = lists.concat();
            all.sort_unstable();
            all.dedup();
            let chunk = all.len() / lists.len().max(1) + 1;
            lists = all
                .chunks(chunk)
                .enumerate()
                .map(|(i, c)| {
                    let edge = all.get((i * chunk).wrapping_sub(1)).filter(|_| layout == 3);
                    edge.into_iter().chain(c).copied().collect()
                })
                .rev()
                .collect();
        }
        if overlap && !lists.is_empty() {
            lists.push(lists[0].clone());
        }
        // A last search far past the others: the bitmap grows, or the
        // answer moves back to the list.
        let far = [None, Some(1 << 16), Some(u32::MAX - 5)][far];
        lists.extend(far.map(|f| vec![3, f]));
        let mut want: Vec<DocId> = lists.concat();
        want.sort_unstable();
        want.dedup();
        // Shards partition the id space; their union takes the same lists.
        prop_assert_eq!(union_answers(lists.clone()), want.clone());
        // The id space the answer starts from: none, below the ids (so
        // they land above it), exactly theirs, or far past them.
        let top = want.last().map_or(0, |&m| m as usize + 1);
        let id_space = [0, top / 2, top, 1 << 22][space as usize];
        // Tombstones: none, none of the answer, many (most past the answer),
        // or every id of the answer and more.
        let dead: Vec<DocId> = match tomb_kind {
            0 => Vec::new(),
            1 => tombs.into_iter().filter(|t| want.binary_search(t).is_err()).collect(),
            2 => tombs,
            _ => want.iter().copied().chain(tombs).collect(),
        };
        let mut tombstones = Tombstones::new();
        for &t in &dead {
            tombstones.insert(t);
        }
        filter_tombstones(&mut want, &tombstones);
        // Twice through one accumulator: the second answer starts warm and
        // leaves the first list out, so a bit the first left set shows.
        let mut answer = Answer::default();
        for skip in 0..2 {
            let searches = lists.get(skip..).unwrap_or_default();
            if skip > 0 {
                want = searches.concat();
                want.sort_unstable();
                want.dedup();
                filter_tombstones(&mut want, &tombstones);
            }
            answer.begin(id_space);
            let (mut added, mut bound) = (0, id_space);
            for list in searches {
                answer.add(list);
                added += list.len();
                bound = list.iter().map(|&d| d as usize + 1).fold(bound, usize::max);
                prop_assert_eq!(answer.is_dense(), rule(added, bound), "after {} ids", added);
            }
            let mut got = Vec::new();
            answer.finish(tombstones.ids(), &mut got);
            prop_assert_eq!(&got, &want);
        }
    }

    #[test]
    fn fewer_than_64_ids_are_sorted(ids in proptest::collection::vec(0u32..200, 1..64)) {
        assert_ordered(&ids)?;
    }

    #[test]
    fn dense_ids_are_ordered_through_the_bitmap(
        n in 64usize..400,
        spread in 1u32..5,
        dups in 0usize..40,
    ) {
        // ids up to ≈ 64 · spread · n / 4: inside the rule for spread ≤ 4
        let top = (n as u32 * 16 * spread).max(1);
        let mut ids: Vec<DocId> = (0..n as u32).map(|i| i.wrapping_mul(2_654_435_761) % top).collect();
        let copies: Vec<DocId> = ids.iter().step_by(7).take(dups).copied().collect();
        ids.extend(copies);
        assert_ordered(&ids)?;
    }

    #[test]
    fn the_four_words_per_id_boundary(n in 64usize..300, past in proptest::bool::weighted(0.5), low in 0u32..64) {
        // The largest id fills word 4n − 1 (the bitmap is exactly 4n words)
        // or word 4n (one word too many, so the ids are sorted).
        let word = 4 * n as u32 - u32::from(!past);
        let mut ids: Vec<DocId> = (0..n as u32 - 1).map(|i| i * 37 % (word * 64)).collect();
        ids.push(word * 64 + low);
        prop_assert_eq!(dense(&ids), !past);
        assert_ordered(&ids)?;
    }

    #[test]
    fn sparse_ids_near_the_top_allocate_no_bitmap(n in 64usize..200, step in 1u32..50_000) {
        let ids: Vec<DocId> = (0..n as u32).map(|i| u32::MAX - i * step).collect();
        prop_assert!(!dense(&ids));
        assert_ordered(&ids)?;
    }
}

#[test]
fn a_chain_candidate_above_the_tip_swallows_earlier_ranges() {
    // Query p(a, b).  The seed is the leaf `a`, whose link is ⟨p, a⟩ and
    // ⟨p, b, a⟩, and `p` is matched by the upward walk.  Below the tip
    // ⟨p, b, a⟩, `b` has two candidates, each completing into its own range;
    // above it, the `b` node on the chain keeps the tip, so its completion's
    // range is the tip's and swallows both.  Every document is then read
    // once, from the one range left.
    let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
    let mut pt = PathTable::new();
    let [p, a, b, c] = ["p", "a", "b", "c"].map(|s| st.elem(s));
    let [p, a, b, c] = [vec![p], vec![p, a], vec![p, b], vec![p, c]].map(|s| pt.intern(&s));
    let seqs = [
        vec![p, b, a, b],
        vec![p, b, a, c, b],
        vec![p, b, a],
        vec![p, a],
    ];
    let mut trie = SequenceTrie::new();
    for (doc, s) in seqs.iter().enumerate() {
        trie.insert(&Sequence(s.clone()), doc as DocId);
    }
    trie.freeze();
    let q = QuerySequence {
        paths: vec![p, a, b],
        parent_pos: vec![None, Some(0), Some(0)],
    };
    let (docs, stats) = tree_search(&trie, &q);
    assert_eq!(docs, [0, 1, 2]);
    // The counts of the search that read every completion's range: the two
    // seed entries plus three `b` candidates under the second; one scan of
    // `a`'s link plus one of `b`'s per seed entry.
    assert_eq!(
        (stats.candidates, stats.completions, stats.link_probes),
        (5, 3, 3),
        "{stats:?}"
    );
    let (paged_docs, paged_stats) = tree_search(&paged(&trie, 2), &q);
    assert_eq!((paged_docs, paged_stats), (docs, stats));
}

#[test]
fn the_last_scan_merges_back_the_ranges_it_passes() {
    // Query x(s, y(z)): seed `s`, then `y`, then `z` last under `y`.  Both
    // documents put `s` under a `y`, and below `s` one goes on through
    // another `y` to `z`, the other straight to `z`.  The `y` below `s`
    // completes first, with `z`'s first node; the `y` above `s` keeps `s`
    // as the tip, so `z`'s scan runs over the same range again and finds
    // that range already collected.  It passes it, completes `z`'s second
    // node (whose nearest `y` is the one above), and must keep both.
    let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
    let mut pt = PathTable::new();
    let [x, y, s, z] = ["x", "y", "s", "z"].map(|n| st.elem(n));
    let [x, y, s, z] = [vec![x], vec![x, y], vec![x, s], vec![x, y, z]].map(|p| pt.intern(&p));
    let seqs = [vec![x, y, s, y, z], vec![x, y, s, z]];
    let mut trie = SequenceTrie::new();
    for (doc, seq) in seqs.iter().enumerate() {
        trie.insert(&Sequence(seq.clone()), doc as DocId);
    }
    trie.freeze();
    let q = QuerySequence {
        paths: vec![x, s, y, z],
        parent_pos: vec![None, Some(0), Some(0), Some(2)],
    };
    let (docs, stats) = tree_search(&trie, &q);
    assert_eq!(docs, [0, 1]);
    // The seed, the `y` below it and the one above it, and `z`'s two
    // nodes; one scan per slot and tip, plus the jump past `z`'s first
    // node under the `y` above.
    assert_eq!(
        (stats.candidates, stats.completions, stats.link_probes),
        (5, 2, 5),
        "{stats:?}"
    );
    let (paged_docs, paged_stats) = tree_search(&paged(&trie, 2), &q);
    assert_eq!((paged_docs, paged_stats), (docs, stats));
    // With `z`'s first node below the second, the scan's completion
    // swallows the range it set aside instead of passing it (a range read
    // twice would trip the search's disjointness check in a debug build).
    let mut trie = SequenceTrie::new();
    trie.insert(&Sequence(vec![x, y, s, z, y, z]), 0);
    trie.freeze();
    let (docs, stats) = tree_search(&trie, &q);
    assert_eq!(docs, [0]);
    assert_eq!(
        (stats.candidates, stats.completions, stats.link_probes),
        (5, 2, 5),
        "{stats:?}"
    );
    let (paged_docs, paged_stats) = tree_search(&paged(&trie, 2), &q);
    assert_eq!((paged_docs, paged_stats), (docs, stats));
}

#[test]
fn every_kind_of_gap_reads_what_the_walk_reads() {
    // One chain of 300 nodes, so serial = depth, with end nodes (documents)
    // at the serials below; 64 holds two documents.
    let ends: [u32; 11] = [5, 6, 63, 64, 64, 100, 127, 128, 131, 256, 300];
    let seqs: Vec<Vec<u32>> = ends.iter().map(|&len| vec![1; len as usize]).collect();
    let trie = frozen(&seqs);
    assert_eq!(trie.node_count(), 300);
    let ranges = [
        (0, 3),     // no end node
        (4, 5),     // adjacent: no gap
        (7, 20),    // gap [6, 7): one word, an end node
        (22, 30),   // gap [21, 22): one word, none
        (31, 63),   // adjacent, ends on bit 63
        (64, 70),   // starts on bit 0, adjacent
        (90, 120),  // gap [71, 90): one word, none (100 is inside the range)
        (129, 129), // gap [121, 129): across words, end nodes
        (140, 150), // gap [130, 140): one word, an end node
        (200, 230), // gap [151, 200): across words, none
        (250, 254), // gap [231, 250): one word, none
        (257, 260), // gap [255, 257): across words, an end node
        (270, 280), // gap [261, 270): one word, none
        (400, 500), // past the last serial; gap [281, 400) holds 300
    ];
    // Which kinds of boundary the ranges hold: (same word, end node in
    // the gap) for every gap, and a range ending on bit 63 followed by one
    // starting on bit 0.
    let is_end = |s: u32| ends.contains(&s);
    let mut kinds = Vec::new();
    for w in ranges.windows(2) {
        let (from, to) = (w[0].1 + 1, w[1].0);
        if from < to {
            let same_word = from / 64 == (to - 1) / 64;
            kinds.push((same_word, (from..to).any(is_end)));
        }
    }
    for kind in [(true, true), (true, false), (false, true), (false, false)] {
        assert!(kinds.contains(&kind), "no gap of kind {kind:?}");
    }
    assert!(ranges
        .windows(2)
        .any(|w| w[0].1 % 64 == 63 && w[1].0 % 64 == 0));
    read_equals_walk(&trie, &seqs, &ranges, 2).unwrap();
    for range in ranges {
        read_equals_walk(&trie, &seqs, &[range], 2).unwrap();
    }
    read_equals_walk(&trie, &seqs, &[], 2).unwrap();
}

/// `q` answers `want` with the counters `(candidates, cover rejections,
/// completions, link probes)`, on the in-memory trie and on the paged one,
/// whose links are read entry by entry and so take the general loop of
/// the last slot throughout.
fn assert_search(trie: &SequenceTrie, q: &QuerySequence, want: &[DocId], work: [u64; 4]) {
    let (docs, stats) = tree_search(trie, q);
    assert_eq!(docs, want);
    let got = [
        stats.candidates,
        stats.cover_rejections,
        stats.completions,
        stats.link_probes,
    ];
    assert_eq!(got, work, "{stats:?}");
    assert_eq!(tree_search(&paged(trie, 2), q), (docs, stats));
}

#[test]
fn the_branch_free_pass_equals_the_general_loop() {
    // Query x(s, y): the seed is `s` (one node), then `y` is the last slot
    // under the tip `s`, anchored at `x`.  Under `s`, four branches each
    // complete a `y` whose range holds a run of 1, 2, 5 and 1 more `y`
    // entries; after them, the link goes on past the tip's range.
    let [x, s, y, z] = [1, 2, 3, 4];
    let q = QuerySequence {
        paths: [x, s, y].map(PathId).to_vec(),
        parent_pos: vec![None, Some(0), Some(0)],
    };
    let branch = |b: u32, tail: &[u32]| [&[x, s, b, y][..], tail].concat();
    let mut seqs = vec![
        branch(5, &[]),
        branch(5, &[y]),
        branch(6, &[]),
        branch(6, &[y]),
        branch(6, &[z, y]),
        branch(7, &[]),
        branch(7, &[y, y, y, y]),
        branch(7, &[z, y]),
        branch(8, &[]),
        branch(8, &[y]),
        vec![x, y],
        vec![x, y, y],
    ];
    let trie = frozen(&seqs);
    let under_s: Vec<DocId> = (0..10).collect();
    // The seed, then four completions; one scan of each link, plus one
    // probe per held run.
    assert_search(&trie, &q, &under_s, [5, 0, 4, 6]);
    // A second `x` under the first makes the cover check apply, which
    // keeps the general loop: the `y` under the inner `x` is rejected.
    seqs.push(vec![x, s, 9, x, y]);
    let trie = frozen(&seqs);
    assert_search(&trie, &q, &under_s, [6, 1, 4, 6]);
    // A range collected under the tip before the scan is set aside, which
    // keeps the general loop until the scan passes it.  Query x(s, w(z)),
    // as in `the_last_scan_merges_back_the_ranges_it_passes`: the `w`
    // below `s` completes first with its `z`; the `w` above `s` keeps `s`
    // as the tip, and `z`'s scan under `s` completes two ranges holding
    // runs of 1 and 2 before it passes the one set aside, last in serial
    // order (`w`'s path sorts after the other children of `s`).
    let w = 10;
    let q = QuerySequence {
        paths: [x, s, w, z].map(PathId).to_vec(),
        parent_pos: vec![None, Some(0), Some(0), Some(2)],
    };
    let seqs = [
        vec![x, w, s, w, z],
        vec![x, w, s, z],
        vec![x, w, s, z, z],
        vec![x, w, s, 9, z],
        vec![x, w, s, 9, z, z, z],
    ];
    let trie = frozen(&seqs);
    // The seed, both `w`, three `z` completions; one scan per slot and
    // tip, two held runs and the pass over the range set aside.
    assert_search(&trie, &q, &[0, 1, 2, 3, 4], [6, 0, 3, 7]);
}

#[test]
fn an_id_past_a_low_bound_is_still_taken() {
    // A trie whose id bound is too low (only a corrupted one has such a
    // bound) still hands over every id: the ids past the bitmap show the
    // bound, and the read is taken again with it.
    let seqs: Vec<Vec<u32>> = (0..100).map(|i| vec![1, 2 + i % 3]).collect();
    let mut trie = frozen(&seqs);
    trie.corrupt_frozen().expect("frozen").id_bound = 1;
    let mut answer = Answer::default();
    for id_space in [0, 10, 1000] {
        answer.begin(id_space);
        answer.add(&[7]);
        assert_eq!(
            trie.add_docs_in_ranges(&[trie.root_range()], &mut answer),
            100
        );
        assert_eq!(answer.is_dense(), rule(101, id_space.max(100)));
        let mut got = Vec::new();
        answer.finish(&[], &mut got);
        assert_eq!(got, (0..100).collect::<Vec<DocId>>(), "id space {id_space}");
    }
    // Ids a low bound let into the list unseen show when the answer turns
    // dense: the bitmap is sized for them too.
    let tail: Vec<Vec<u32>> = (0..1010).map(|i| vec![1 + u32::from(i >= 1000)]).collect();
    let mut tail_trie = frozen(&tail);
    tail_trie.corrupt_frozen().expect("frozen").id_bound = 0;
    let (lo, hi) = tail_trie.root_range();
    answer.begin(0);
    assert_eq!(tail_trie.add_docs_in_ranges(&[(2, hi)], &mut answer), 10);
    assert!(!answer.is_dense());
    answer.add(&(0..64).collect::<Vec<DocId>>());
    assert!(answer.is_dense(), "74 ids below 1010: 16 words");
    let mut got = Vec::new();
    answer.finish(&[], &mut got);
    let want: Vec<DocId> = (0..64).chain(1000..1010).collect();
    assert_eq!(got, want, "root range {:?}", (lo, hi));
    // Sparse after the read: the bound it shows breaks the rule.
    answer.begin(0);
    answer.add(&(0..64).map(|i| i * 4).collect::<Vec<DocId>>());
    assert!(answer.is_dense());
    let mut far_trie = SequenceTrie::new();
    far_trie.insert(&Sequence(vec![PathId(1)]), u32::MAX - 1);
    far_trie.freeze();
    far_trie.corrupt_frozen().expect("frozen").id_bound = 0;
    assert_eq!(
        far_trie.add_docs_in_ranges(&[far_trie.root_range()], &mut answer),
        1
    );
    assert!(!answer.is_dense());
    let mut got = Vec::new();
    answer.finish(&[], &mut got);
    let want: Vec<DocId> = (0..64).map(|i| i * 4).chain([u32::MAX - 1]).collect();
    assert_eq!(got, want);
}

#[test]
fn an_answer_turns_dense_mid_query_and_back() {
    let mut answer = Answer::default();
    answer.begin(1000);
    let low: Vec<DocId> = (0..63).map(|i| i * 2).collect();
    answer.add(&low);
    assert!(!answer.is_dense(), "63 ids are sorted");
    answer.add(&[500]);
    assert!(answer.is_dense(), "64 ids over 16 words");
    answer.add(&[2000, 4]);
    assert!(answer.is_dense(), "32 words for 66 ids");
    answer.add(&[u32::MAX - 1]);
    assert!(!answer.is_dense(), "the bitmap would span 2^26 words");
    let mut got = Vec::new();
    answer.finish(&[2, 500, u32::MAX - 1], &mut got);
    let mut want: Vec<DocId> = low.iter().copied().filter(|&d| d != 2).collect();
    want.push(2000);
    assert_eq!(got, want);
    // The bitmap came back zeroed: a warm dense answer holds only its ids.
    answer.begin(1000);
    let odd: Vec<DocId> = (0..64).map(|i| i * 2 + 1).collect();
    answer.add(&odd);
    assert!(answer.is_dense());
    got.clear();
    answer.finish(&[], &mut got);
    assert_eq!(got, odd);
}
