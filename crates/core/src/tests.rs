//! Unit tests of the worker pool ([`crate::exec`]), kept at the crate
//! root so that the suite names them `tests::*`.
#![cfg(test)]

use crate::exec::{ChunkQueue, Pool};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn chunk_queue_partitions_the_range() {
    let q = ChunkQueue::new(4);
    let mut got = Vec::new();
    while let Some(i) = q.claim() {
        got.push(i);
    }
    assert_eq!(got, vec![0, 1, 2, 3]);
    assert_eq!(q.claim(), None, "exhausted queues stay exhausted");
}

#[test]
fn chunk_queue_overshoot_stays_exhausted() {
    // Callers that keep claiming past the end move the cursor on but
    // never see an index again.
    let q = ChunkQueue::new(2);
    assert_eq!((q.claim(), q.claim()), (Some(0), Some(1)));
    for _ in 0..100 {
        assert_eq!(q.claim(), None);
    }
}

#[test]
fn empty_queue_yields_nothing() {
    let q = ChunkQueue::new(0);
    assert_eq!(q.claim(), None);
    assert_eq!(q.claim(), None, "and stays exhausted");
}

#[test]
fn chunk_queue_claims_are_disjoint_across_threads() {
    // Four threads drain one queue; together their claims must cover
    // 0..len exactly once, whatever the interleaving.
    let len = 10_007;
    let q = ChunkQueue::new(len);
    let mut claims: Vec<usize> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    while let Some(i) = q.claim() {
                        mine.push(i);
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect()
    });
    claims.sort_unstable();
    assert_eq!(
        claims,
        (0..len).collect::<Vec<_>>(),
        "claims overlap or leave a gap"
    );
}

#[test]
fn map_with_keeps_input_order_and_one_state_per_worker() {
    let items: Vec<u32> = (0..103).collect();
    let expect: Vec<u64> = items.iter().map(|&x| u64::from(x) * 3 + 1).collect();
    for threads in [1, 2, 3, 4, 8] {
        let states = AtomicUsize::new(0);
        let got = Pool::new(threads).map_with(
            &items,
            || {
                // relaxed: test-only counter, read after the join
                states.fetch_add(1, Ordering::Relaxed);
                0usize
            },
            |seen: &mut usize, &x| {
                *seen += 1;
                u64::from(x) * 3 + 1
            },
        );
        assert_eq!(got, expect, "threads={threads}");
        let states = states.load(Ordering::Relaxed);
        assert!(
            (1..=threads).contains(&states),
            "threads={threads}: {states} states"
        );
    }
    let none: Vec<u32> = Vec::new();
    assert!(Pool::new(4).map_with(&none, || (), |_, &x| x).is_empty());
}

#[test]
fn map_with_runs_on_the_caller_when_one_worker_suffices() {
    let caller = std::thread::current().id();
    let ran_on = Pool::new(4).map_with(&[7u8], || (), |_, _| std::thread::current().id());
    assert_eq!(ran_on, vec![caller]);
    let ran_on = Pool::new(1).map_with(&[1u8, 2, 3], || (), |_, _| std::thread::current().id());
    assert!(ran_on.iter().all(|&t| t == caller));
}

#[test]
fn run_joins_all_tasks_in_task_order() {
    let started = AtomicUsize::new(0);
    let tasks: Vec<_> = (0..17usize)
        .map(|i| {
            let started = &started;
            move || {
                // relaxed: test-only liveness counter
                started.fetch_add(1, Ordering::Relaxed);
                i * i
            }
        })
        .collect();
    let got = Pool::new(4).run(tasks);
    assert_eq!(got, (0..17usize).map(|i| i * i).collect::<Vec<_>>());
    // relaxed: read after the scope join, fully ordered by it
    assert_eq!(started.load(Ordering::Relaxed), 17);
}

#[test]
fn every_item_is_processed_exactly_once() {
    let pool = Pool::new(8);
    let items: Vec<usize> = (0..1000).collect();
    let seen: Vec<usize> = pool.map_with(&items, || (), |_, &x| x);
    let unique: HashSet<usize> = seen.iter().copied().collect();
    assert_eq!(unique.len(), 1000);
}

#[test]
fn sequential_pool_never_spawns() {
    // Nothing observable to assert beyond behavior: the threads==1
    // paths return before any scope is created.
    let pool = Pool::default();
    assert_eq!(pool.threads(), 1);
    assert_eq!(
        pool.map_with(&[1, 2, 3], || (), |_, &x| x + 1),
        vec![2, 3, 4]
    );
    assert_eq!(pool.run(vec![|| 5]), vec![5]);
}
