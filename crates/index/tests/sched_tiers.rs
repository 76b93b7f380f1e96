//! Interleaving model checks for the update overlay and its **tiered**
//! segment-list swap, using the `xseq-telemetry::sched` harness that also
//! checks the exec pool's chunk queue.
//!
//! [`check_updates_tiered`] — written against `xseq-index`'s public API
//! only — replays scripted op lists — insert/remove/query plus
//! [`UpdateOp::Merge`] (one background tier merge) and
//! [`UpdateOp::Compact`] — over every interleaving (or a seeded sample of
//! a too-large space) with aggressive tiering knobs, so memtable cuts and
//! run merges fire *inside* the schedules.  Every `Query` op snapshots the
//! overlay through `delta_view()` and checks the full reader invariant
//! battery: the visible set matches the reference model (no torn segment
//! set), every overlay-era tombstone is present (none dropped), a
//! once-inserted id appears in exactly one segment (no document visible in
//! two tiers), snapshot epochs are monotonic, and all segments are frozen.
//!
//! Schedule counts are pinned: a drop means the interleaving space
//! silently shrank and coverage regressed.
//!
//! The scripts come in three groups: three small spaces that exercise the
//! checker itself, four with a scripted merge thread at aggressive knobs,
//! and three writer/reader-only spaces at the default `2, 2` knobs.

use xseq_index::{DeltaView, TieredDelta};
use xseq_sequence::{sequence_document, Strategy};
use xseq_telemetry::Schedules;
use xseq_xml::{DocId, Document, PathTable, SymbolTable, ValueMode};

use UpdateOp::{Compact, Insert, Merge, Query, Remove};

/// One scripted operation against the update overlay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UpdateOp {
    /// Insert a synthetic document with this id into the overlay.
    Insert(DocId),
    /// Tombstone this id.
    Remove(DocId),
    /// Snapshot the overlay and check every reader invariant against the
    /// reference model.
    Query,
    /// Attempt one background tier merge ([`TieredDelta::maybe_merge`]).
    Merge,
    /// Full compaction: fold the visible set into the harness's frozen
    /// base and swap in a fresh overlay, as `Database::compact` does.
    Compact,
}

/// Builds the synthetic single-path document for a given id — ids map onto
/// a small family of shapes so schedules exercise shared and distinct trie
/// paths alike.
fn synthetic_doc(id: DocId, symbols: &mut SymbolTable) -> Document {
    let r = symbols.elem("r");
    let names = ["a", "b", "c"];
    let leaf = symbols.elem(names[(id as usize) % names.len()]);
    let mut doc = Document::with_root(r);
    let root = doc.root().expect("document was just given a root");
    let mid = doc.child(root, leaf);
    if id.is_multiple_of(2) {
        let deep = symbols.elem("d");
        doc.child(mid, deep);
    }
    doc
}

/// Per-segment document id lists (sorted, deduplicated), in segment order —
/// the double-visibility probe.
fn segment_docs(view: &DeltaView) -> Vec<Vec<DocId>> {
    view.segments()
        .map(|trie| {
            let mut out = Vec::new();
            let (lo, hi) = trie.root_range();
            trie.collect_docs_in_range(lo, hi, &mut out);
            out.sort_unstable();
            out.dedup();
            out
        })
        .collect()
}

/// Model-checks the update overlay under deterministic interleavings with
/// explicit tiering knobs (aggressive ones, e.g. `memtable_limit = 2`,
/// `tier_ratio = 2`, make cuts and merges fire inside even short scripts).
///
/// `threads[i]` is thread *i*'s op script.  Every schedule (exhaustive when
/// the interleaving count is at most `limit`, a seeded sample otherwise)
/// executes each arriving op *whole* — the overlay's single-writer
/// discipline makes writer ops atomic units, and op-grain snapshots are
/// exactly what [`TieredDelta::delta_view`] hands a reader — against both
/// the real [`TieredDelta`] and a reference set model.  Any `Query` op (and
/// a final drain) checks the full reader invariant set; the first
/// divergence fails with the offending schedule attached:
///
/// 1. **Differential**: the observed doc set equals the reference model's
///    *(frozen ∪ inserted) − removed*.
/// 2. **No dropped tombstone**: every id removed since the last compaction
///    is present in the overlay's tombstone snapshot.
/// 3. **No double visibility**: an id inserted exactly once (and not
///    removed) since the last compaction appears in exactly one segment of
///    the snapshot — a torn merge splice would surface it in two tiers.
/// 4. **Epoch monotonicity**: an overlay's snapshot epochs never decrease,
///    and every mutating op strictly advances its epoch (a compaction
///    starts a fresh overlay, and with it a fresh epoch line).
/// 5. **Frozen segments**: every segment of every snapshot is frozen
///    (labels + path links valid).
///
/// Returns the number of schedules checked.
fn check_updates_tiered(
    threads: &[Vec<UpdateOp>],
    limit: usize,
    seed: u64,
    memtable_limit: usize,
    tier_ratio: usize,
) -> Result<usize, String> {
    let lens: Vec<usize> = threads.iter().map(Vec::len).collect();
    let schedules = Schedules::new(&lens, limit, seed);
    let mut checked = 0usize;
    let mut failure: Option<String> = None;
    schedules.for_each(|sched| {
        if failure.is_some() {
            return;
        }
        checked += 1;
        if let Err(e) = run_update_schedule(threads, sched, memtable_limit, tier_ratio) {
            failure = Some(format!("schedule {sched:?}: {e}"));
        }
    });
    match failure {
        Some(e) => Err(e),
        None => Ok(checked),
    }
}

/// Executes one arrival order of the scripted ops, comparing the overlay
/// against the reference model after every query and at the end.
fn run_update_schedule(
    threads: &[Vec<UpdateOp>],
    sched: &[usize],
    memtable_limit: usize,
    tier_ratio: usize,
) -> Result<(), String> {
    let mut symbols = SymbolTable::with_value_mode(ValueMode::Intern);
    let mut paths = PathTable::new();
    let fresh_overlay = || {
        let delta = TieredDelta::new();
        delta.configure(memtable_limit, tier_ratio);
        delta
    };
    let mut delta = fresh_overlay();
    // Reference model.  `frozen` is the visible set captured by the last
    // Compact (the harness's stand-in for the frozen segment); `inserted` /
    // `removed` track overlay-era ids.  Survivors are *(frozen ∪ inserted)
    // − removed* irrespective of arrival order — a tombstone is permanent
    // until compaction (the corpus never reuses ids), so a remove racing
    // ahead of its insert still wins.
    let mut frozen: Vec<DocId> = Vec::new();
    let mut inserted: Vec<DocId> = Vec::new();
    let mut insert_counts: Vec<(DocId, usize)> = Vec::new();
    let mut removed: Vec<DocId> = Vec::new();
    let mut cursors = vec![0usize; threads.len()];
    let strategy = Strategy::DepthFirst;
    let mut last_epoch = delta.epoch();
    let mut last_view_epoch = 0u64;
    let model_visible = |frozen: &[DocId], inserted: &[DocId], removed: &[DocId]| -> Vec<DocId> {
        let mut want: Vec<DocId> = frozen
            .iter()
            .chain(inserted.iter())
            .copied()
            .filter(|d| !removed.contains(d))
            .collect();
        want.sort_unstable();
        want.dedup();
        want
    };
    let observe = |delta: &TieredDelta, frozen: &[DocId]| -> Vec<DocId> {
        let tombs = delta.tombstones();
        let mut got: Vec<DocId> = segment_docs(&delta.delta_view()).concat();
        got.extend(frozen.iter().copied());
        got.sort_unstable();
        got.dedup();
        got.retain(|d| !tombs.contains(*d));
        got
    };
    for &t in sched {
        let op = threads[t][cursors[t]];
        cursors[t] += 1;
        match op {
            UpdateOp::Insert(id) => {
                let doc = synthetic_doc(id, &mut symbols);
                let seq = sequence_document(&doc, &mut paths, &strategy);
                delta.insert(seq, id);
                if !inserted.contains(&id) {
                    inserted.push(id);
                }
                match insert_counts.iter_mut().find(|(d, _)| *d == id) {
                    Some((_, n)) => *n += 1,
                    None => insert_counts.push((id, 1)),
                }
                let now = delta.epoch();
                if now <= last_epoch {
                    return Err(format!("insert({id}) did not advance the epoch"));
                }
                last_epoch = now;
            }
            UpdateOp::Remove(id) => {
                let fresh = delta.remove(id);
                if !removed.contains(&id) {
                    removed.push(id);
                }
                let now = delta.epoch();
                if fresh && now <= last_epoch {
                    return Err(format!("remove({id}) did not advance the epoch"));
                }
                last_epoch = now;
            }
            UpdateOp::Merge => {
                let before = delta.epoch();
                let outcome = delta.maybe_merge();
                let now = delta.epoch();
                if outcome.is_some() && now <= before {
                    return Err("merge did not advance the epoch".to_owned());
                }
                last_epoch = now;
            }
            UpdateOp::Compact => {
                frozen = observe(&delta, &frozen);
                inserted.clear();
                insert_counts.clear();
                removed.clear();
                // What `Database::compact` does: the overlay — memtable,
                // runs, tombstones, epoch line — is replaced, not emptied.
                delta = fresh_overlay();
                last_epoch = delta.epoch();
                last_view_epoch = 0;
            }
            UpdateOp::Query => {
                let view = delta.delta_view();
                if view.epoch() < last_view_epoch {
                    return Err(format!(
                        "snapshot epoch went backwards: {} after {}",
                        view.epoch(),
                        last_view_epoch
                    ));
                }
                last_view_epoch = view.epoch();
                check_view_invariants(
                    &delta,
                    &view,
                    &frozen,
                    &insert_counts,
                    &removed,
                    &model_visible(&frozen, &inserted, &removed),
                )?;
            }
        }
    }
    let view = delta.delta_view();
    check_view_invariants(
        &delta,
        &view,
        &frozen,
        &insert_counts,
        &removed,
        &model_visible(&frozen, &inserted, &removed),
    )
    .map_err(|e| format!("final state: {e}"))
}

/// The reader-side invariant battery shared by every `Query` op and the
/// final drain — see [`check_updates_tiered`] for the list.
fn check_view_invariants(
    delta: &TieredDelta,
    view: &DeltaView,
    frozen: &[DocId],
    insert_counts: &[(DocId, usize)],
    removed: &[DocId],
    want: &[DocId],
) -> Result<(), String> {
    let tombs = delta.tombstones();
    let segment_docs = segment_docs(view);
    // 1. Differential: visible union matches the model.
    let mut got: Vec<DocId> = segment_docs.iter().flatten().copied().collect();
    got.extend(frozen.iter().copied());
    got.sort_unstable();
    got.dedup();
    got.retain(|d| !tombs.contains(*d));
    if got != want {
        return Err(format!("query saw {got:?}, model has {want:?}"));
    }
    // 2. No dropped tombstone: every overlay-era remove is in the set.
    for id in removed {
        if !tombs.contains(*id) {
            return Err(format!("tombstone for {id} was dropped"));
        }
    }
    // 3. No double visibility across segments.
    for &(id, count) in insert_counts {
        if count != 1 || removed.contains(&id) {
            continue;
        }
        let appearances = segment_docs
            .iter()
            .filter(|docs| docs.binary_search(&id).is_ok())
            .count();
        if appearances != 1 {
            return Err(format!(
                "doc {id} (inserted once, live) appears in {appearances} segments"
            ));
        }
    }
    // 5. Every snapshot segment is frozen, hence queryable.
    for (i, seg) in view.segments().enumerate() {
        if !seg.is_frozen() {
            return Err(format!("snapshot segment {i} is not frozen"));
        }
    }
    Ok(())
}

#[test]
fn exhaustive_interleavings_hold() {
    let threads = vec![
        vec![Insert(0), Query, Insert(2)],
        vec![Insert(1), Remove(0), Query],
    ];
    let checked = check_updates_tiered(&threads, 1 << 14, 0, 2, 2).expect("no divergence");
    assert_eq!(checked, 20, "C(6,3) arrival orders");
}

#[test]
fn sampled_interleavings_hold() {
    let threads = vec![
        vec![Insert(0), Insert(4), Remove(4), Query],
        vec![Insert(1), Remove(0), Query],
        vec![Insert(2), Query, Remove(9)],
    ];
    // Beyond the limit the checker falls back to seeded sampling.
    let checked = check_updates_tiered(&threads, 64, 42, 2, 2).expect("no divergence");
    assert_eq!(checked, 64);
}

#[test]
fn merge_and_compact_ops_hold_exhaustively() {
    let threads = vec![
        vec![Insert(0), Insert(2), Merge],
        vec![Remove(0), Query, Compact],
    ];
    let checked = check_updates_tiered(&threads, 1 << 14, 0, 2, 2).expect("no divergence");
    assert_eq!(checked, 20, "C(6,3) arrival orders");
}

#[test]
fn exhaustive_reader_races_background_merger() {
    // memtable_limit = 1: every insert cuts a tier-0 run; tier_ratio = 2:
    // two runs of a tier fold into one a tier up.  One inserting writer,
    // one merging "background worker" thread, one reader:
    // C(8; 3, 2, 3) = 560 schedules, enumerated exhaustively.
    let threads = vec![
        vec![Insert(0), Insert(1), Insert(2)],
        vec![Merge, Merge],
        vec![Query, Query, Query],
    ];
    let checked = check_updates_tiered(&threads, usize::MAX, 0, 1, 2)
        .expect("reader snapshots consistent in every interleaving");
    assert_eq!(checked, 560, "full space enumerated");
}

#[test]
fn merges_never_drop_tombstones_or_double_publish() {
    // A remove racing its own insert while merges fold the runs it may or
    // may not be in yet: tombstones are permanent until compaction, so
    // every interleaving must keep doc 0 invisible once removed, and the
    // splice must never leave it visible in two tiers.
    // C(9; 4, 2, 3) = 1260 schedules, enumerated exhaustively.
    let threads = vec![
        vec![Insert(0), Insert(1), Remove(0), Insert(2)],
        vec![Merge, Merge],
        vec![Query, Query, Query],
    ];
    let checked = check_updates_tiered(&threads, usize::MAX, 1, 1, 2)
        .expect("tombstone resolution consistent in every interleaving");
    assert_eq!(checked, 1260, "full space enumerated");
}

#[test]
fn sampled_compaction_races_merges_and_readers() {
    // Compaction (overlay swap + model fold) interleaved against merges
    // and reader snapshots: nothing of the pre-compaction overlay — runs,
    // memtable, tombstones — may show through the fresh one.
    // C(12; 5, 3, 4) = 27720 schedules — a seeded 768-schedule sample.
    let threads = vec![
        vec![Insert(0), Insert(1), Insert(2), Insert(3), Query],
        vec![Merge, Compact, Merge],
        vec![Query, Remove(2), Query],
    ];
    let checked = check_updates_tiered(&threads, 768, 0x7ee5, 2, 2)
        .expect("sampled interleavings consistent");
    assert_eq!(checked, 768, "sample budget exhausted");
}

#[test]
fn deep_tier_cascade_under_interleaved_reads() {
    // Enough inserts at limit 1 / ratio 2 to cascade merges through three
    // tiers, with reads cutting in anywhere: C(10; 6, 2, 2) = 1260
    // schedules (merges beyond the script run in the final drain's view).
    let threads = vec![
        vec![
            Insert(0),
            Insert(1),
            Insert(2),
            Insert(3),
            Insert(4),
            Insert(5),
        ],
        vec![Merge, Merge],
        vec![Query, Query],
    ];
    let checked = check_updates_tiered(&threads, usize::MAX, 2, 1, 2)
        .expect("cascading merges consistent in every interleaving");
    assert_eq!(checked, 1260, "full space enumerated");
}

#[test]
fn exhaustive_two_writers_with_reader() {
    // One inserting thread, one removing thread, one querying thread:
    // C(7; 3,2,2) = 210 schedules, small enough to enumerate fully.
    let threads = vec![
        vec![Insert(0), Insert(1), Insert(2)],
        vec![Remove(1), Remove(3)],
        vec![Query, Query],
    ];
    let checked =
        check_updates_tiered(&threads, usize::MAX, 0, 2, 2).expect("all interleavings consistent");
    assert_eq!(checked, 210, "full space enumerated");
}

#[test]
fn sampled_mixed_scripts_hold() {
    // Three threads mixing all three op kinds, including a remove that can
    // race ahead of its insert (tombstones are permanent until compaction,
    // so the remove must win in every interleaving).
    let threads = vec![
        vec![Insert(0), Remove(2), Insert(1), Query],
        vec![Insert(2), Query, Remove(0), Insert(3)],
        vec![Query, Insert(4), Remove(4), Query],
    ];
    let checked = check_updates_tiered(&threads, 512, 0x5eed, 2, 2)
        .expect("sampled interleavings consistent");
    assert_eq!(checked, 512, "sample budget exhausted");
}

#[test]
fn remove_only_and_insert_only_threads() {
    // Degenerate scripts: every op of one kind on its own thread.  Queries
    // interleave against a window where any subset of inserts/removes has
    // landed; the checker's model must match at every cut.
    let threads = vec![
        vec![Insert(0), Insert(1), Insert(2), Insert(3)],
        vec![Remove(0), Remove(1), Remove(2), Remove(3)],
        vec![Query, Query, Query],
    ];
    let checked = check_updates_tiered(&threads, 2_000, 7, 2, 2).expect("all windows consistent");
    assert!(checked > 0);
}
