//! Model-checking the metric counters: every interleaving (exhaustive
//! where the space is small, seeded sampling beyond) of scripted threads
//! runs against the exact sum — no schedule may lose an add or show a
//! snapshot going backwards.

use xseq_telemetry::{check_counter, CounterOp};

use CounterOp::{Add, Snapshot};

#[test]
fn counter_snapshots_are_monotone_and_exact() {
    let threads = vec![
        vec![Add(1), Add(2), Snapshot, Add(3)],
        vec![Snapshot, Add(10), Snapshot],
        vec![Add(100), Snapshot],
    ];
    let checked = check_counter(&threads, 5_000, 3).unwrap();
    assert_eq!(checked, 1260);
}

#[test]
fn counter_sampled_beyond_the_limit() {
    let threads: Vec<Vec<CounterOp>> = (0..5)
        .map(|t| (0..8).map(|i| Add(t * 8 + i + 1)).collect())
        .collect();
    let checked = check_counter(&threads, 200, 11).unwrap();
    assert_eq!(checked, 200);
}
