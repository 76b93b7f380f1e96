//! A run is its trie: cuts and merges against one bulk load.
//!
//! An overlay run keeps no raw sequences — merges read them back from the
//! candidates' tries — so every run, however many merges produced it, must
//! still be the trie one `bulk_load` + `freeze` of its `(sequence, doc)`
//! pairs in arrival order would give: same nodes, and at every shared end
//! node the documents in arrival order (the tie rule a stable sort of the
//! concatenated raw vectors used to provide).

use proptest::prelude::*;
use xseq_index::{DeltaView, SequenceTrie, TieredDelta};
use xseq_sequence::Sequence;
use xseq_xml::{DocId, PathId};

/// Case budget, shrinkable by the CI smoke job via `XSEQ_UPDATE_FUZZ_CASES`.
fn fuzz_cases(default: u32) -> u32 {
    std::env::var("XSEQ_UPDATE_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A handful of sequences, some prefixes of others, so every run repeats
/// sequences of its neighbours.  (A trie stores any path-id sequence; `f2`
/// validity is the emitter's business, not the overlay's.)
fn pool_sequence(pick: u8) -> Sequence {
    let shapes: [&[u32]; 5] = [&[1], &[1, 2], &[1, 2, 3], &[1, 2, 4], &[1, 5]];
    Sequence(
        shapes[pick as usize % shapes.len()]
            .iter()
            .map(|&p| PathId(p))
            .collect(),
    )
}

fn bulk_trie(pairs: Vec<(Sequence, DocId)>) -> SequenceTrie {
    let mut trie = SequenceTrie::new();
    trie.bulk_load(pairs);
    trie.freeze();
    trie
}

fn docs_in(trie: &SequenceTrie) -> Vec<DocId> {
    let mut docs = Vec::new();
    let (lo, hi) = trie.root_range();
    trie.collect_docs_in_range(lo, hi, &mut docs);
    docs
}

/// Every segment of `view` is the bulk-loaded trie of the documents it
/// holds, taken in arrival order (a document's id is its arrival index),
/// and no document is held twice.
fn check_segments(view: &DeltaView, picks: &[u8]) -> Result<Vec<DocId>, TestCaseError> {
    let mut held = Vec::new();
    for (i, segment) in view.segments().enumerate() {
        let mut docs = docs_in(segment);
        docs.sort_unstable();
        let pairs = docs.iter().map(|&d| (pool_sequence(picks[d as usize]), d));
        prop_assert!(
            segment.identical_to(&bulk_trie(pairs.collect())),
            "segment {} is not the bulk load of its own documents",
            i
        );
        held.extend(docs);
    }
    held.sort_unstable();
    prop_assert!(
        held.windows(2).all(|w| w[0] < w[1]),
        "a document is held twice: {:?}",
        held
    );
    Ok(held)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases(64)))]

    /// `limit · 2^levels` inserts at ratio 2, merges drained after each one
    /// the way `Database::insert_document` drains them, count the cuts up
    /// like a binary counter and collapse the overlay into a single run
    /// `levels` tiers up.  Tombstones land part-way through, on documents
    /// already in runs and on documents yet to come; the last cascade folds
    /// everything under the full tombstone set, so that run must be exactly
    /// the survivors.
    #[test]
    fn merged_runs_are_the_bulk_load_of_their_survivors(
        limit in 1usize..=3,
        levels in 1u32..=3,
        picks in proptest::collection::vec(any::<u8>(), 24),
        tombstone_bits in any::<u32>(),
        tombstones_after in 0usize..24,
    ) {
        let total = limit << levels;
        // A merge whose inputs are all tombstoned publishes no run, which
        // would knock the counter off: the last document of every odd cut
        // is spared, so each pair of cuts — and every fold above it — keeps
        // a survivor.
        let spared = |d: usize| (d / limit) % 2 == 1 && d % limit == limit - 1;
        let tombstoned = |d: DocId| (tombstone_bits >> d) & 1 == 1 && !spared(d as usize);
        let mut delta = TieredDelta::new();
        delta.configure(limit, 2);
        // After every step — a remove, an insert (and the cut it may make),
        // a merge — the segments minus the tombstone set hold exactly the
        // model's live set, and no tombstone has gone missing.
        let mut removed: Vec<DocId> = Vec::new();
        let check_live = |delta: &TieredDelta, inserted: usize, removed: &[DocId]| {
            let held = check_segments(&delta.delta_view(), &picks)?;
            let tombs = delta.tombstones();
            prop_assert!(removed.iter().all(|&d| tombs.contains(d)), "a tombstone was dropped");
            let live: Vec<DocId> = held.into_iter().filter(|&d| !tombs.contains(d)).collect();
            let want: Vec<DocId> = (0..inserted as DocId).filter(|d| !removed.contains(d)).collect();
            prop_assert_eq!(live, want, "segments − tombstones ≠ the live set");
            Ok(())
        };
        for (id, &pick) in picks.iter().enumerate().take(total) {
            if id == tombstones_after.min(total - 1) {
                for d in (0..total as DocId).filter(|&d| tombstoned(d)) {
                    delta.remove(d);
                    removed.push(d);
                    check_live(&delta, id, &removed)?;
                }
            }
            delta.insert(pool_sequence(pick), id as DocId);
            check_live(&delta, id + 1, &removed)?;
            // Mid-stream: several runs across tiers plus a dirty memtable.
            while delta.maybe_merge().is_some() {
                check_live(&delta, id + 1, &removed)?;
            }
        }

        let survivors: Vec<_> = (0..total as DocId)
            .filter(|&d| !tombstoned(d))
            .map(|d| (pool_sequence(picks[d as usize]), d))
            .collect();
        let view = delta.delta_view();
        prop_assert_eq!(view.segment_count(), 1, "the cascade leaves one run");
        let run = view.segments().next().expect("one segment");
        prop_assert!(run.identical_to(&bulk_trie(survivors)), "run ≠ bulk load of the survivors");
        // Stated directly: a duplicated sequence answers with its documents
        // in arrival order.
        for &end in &run.frozen().end_nodes {
            let mut docs = Vec::new();
            run.collect_docs_in_range(end, end, &mut docs);
            prop_assert!(docs.windows(2).all(|w| w[0] < w[1]), "end node {}: {:?}", end, docs);
        }
    }
}
