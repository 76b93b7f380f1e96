//! Interleaving model checks for the update overlay and its **tiered**
//! segment-list swap, using the `xseq-telemetry::sched` harness that also
//! checks the exec pool's chunk queue.
//!
//! `xseq_index::check_updates_tiered` replays scripted op lists —
//! insert/remove/query plus [`UpdateOp::Merge`] (one background tier
//! merge) and [`UpdateOp::Compact`] — over every interleaving (or a seeded sample of
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
//! The last three scripts are the writer/reader-only spaces (no scripted
//! merge thread) at the default `2, 2` knobs; the unit tests in `delta.rs`
//! cover the small exhaustive spaces.

use xseq_index::{check_updates_tiered, UpdateOp};

use UpdateOp::{Compact, Insert, Merge, Query, Remove};

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
    // Compaction (clear + model fold) interleaved against merges and
    // reader snapshots: the merge validation-by-pointer-identity must
    // abort stale splices instead of resurrecting pre-compaction runs.
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
