//! `xseq-exec` — the workspace's only home for threads.
//!
//! A dependency-free scoped worker pool built from two pieces:
//!
//! * [`ChunkQueue`] — a wait-free claim counter handing out the indices of
//!   a work list one at a time.  Dynamic claiming gives load balancing (a
//!   worker that draws a cheap item immediately claims another) while
//!   keeping results addressable by index, so callers get outputs in
//!   *input* order no matter which worker ran which item.  Its tests claim
//!   from one queue on real threads; the claim is one `fetch_add`, so they
//!   and the ThreadSanitizer job are its whole concurrency check.
//! * [`Pool`] — a scope/join front end over `std::thread::scope`.  Every
//!   entry point blocks until all spawned work is joined, so borrowed data
//!   flows into workers without `'static` bounds and panics propagate to
//!   the caller.  A pool of one thread (the default) degenerates to plain
//!   in-place iteration with zero thread or lock traffic.
//!
//! Two entry points, one per level of parallelism the database has:
//! [`Pool::run`] builds the shards side by side, and [`Pool::map_with`]
//! answers a `query_batch`, one warm per-worker state each.  Both return
//! results in input order, independent of thread count and scheduling.
//!
//! Every thread the library starts is scoped and joined: the root
//! `clippy.toml` disallows `std::thread::spawn` and
//! `std::thread::Builder::spawn` workspace-wide, with no `#[allow]`
//! anywhere, so nothing outlives the call that spawned it.

// Panic-freedom, checked by clippy (DESIGN.md §14): every suppression is an
// `#[expect(…, reason = "…")]` carrying its proof.
#![deny(
    clippy::indexing_slicing,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::integer_division_remainder_used
)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A wait-free claim counter over the index range `0..len`.
///
/// Each [`ChunkQueue::claim`] hands out the next unclaimed index; indices
/// are issued in ascending order, and together the claims cover the whole
/// range exactly once.
#[derive(Debug)]
pub struct ChunkQueue {
    cursor: AtomicUsize,
    len: usize,
}

impl ChunkQueue {
    /// A queue over `len` items.
    pub fn new(len: usize) -> Self {
        ChunkQueue {
            cursor: AtomicUsize::new(0),
            len,
        }
    }

    /// Claims the next index, or `None` when the range is exhausted.
    ///
    /// Safe to call from any number of threads; each index in `0..len` is
    /// handed out exactly once.  Callers are expected to stop on the first
    /// `None` (the pool's workers do), which bounds the cursor overshoot
    /// to one claim per caller.
    pub fn claim(&self) -> Option<usize> {
        // ORDERING: cursor — the fetch_add RMW is the whole synchronization
        // story; it alone makes claims disjoint.  Results computed from a claim
        // travel back to the caller through the scope join (a full
        // happens-before edge), never through this counter.
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        (i < self.len).then_some(i)
    }

    /// Total number of items governed by the queue.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the queue governs no items (every claim returns `None`).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A scoped worker pool of a fixed thread count.
///
/// The pool holds no OS resources between calls — threads are spawned
/// inside each entry point's scope and joined before it returns, so a
/// `Pool` is trivially `Send + Sync` and cheap to store or clone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Default for Pool {
    /// A sequential pool (one thread, no spawning).
    fn default() -> Self {
        Pool::new(1)
    }
}

impl Pool {
    /// A pool of `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
        }
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item, returning results in input order, with one
    /// `init()` state per worker that `f` reuses for every item the worker
    /// claims.  Items are claimed one at a time, so a batch of uneven items
    /// ends within one item of balanced however the claims interleave; the
    /// calling thread is one of the workers, so a pool of `t` threads spawns
    /// `t − 1` and a single worker spawns none.
    pub fn map_with<T, S, R, I, F>(&self, items: &[T], init: I, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, &T) -> R + Sync,
    {
        let workers = self.threads.min(items.len());
        if workers <= 1 {
            let mut state = init();
            return items.iter().map(|item| f(&mut state, item)).collect();
        }
        let queue = ChunkQueue::new(items.len());
        let work = || {
            let mut state = init();
            let mut done = Vec::new();
            while let Some(i) = queue.claim() {
                if let Some(item) = items.get(i) {
                    done.push((i, f(&mut state, item)));
                }
            }
            done
        };
        let mut done = std::thread::scope(|s| {
            let helpers: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
            let mut done = work();
            for helper in helpers {
                match helper.join() {
                    Ok(theirs) => done.extend(theirs),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
            done
        });
        // Every index was claimed exactly once: sorted, they are the input.
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, r)| r).collect()
    }

    /// Runs every task on the pool, returning results in task order — the
    /// scope/join API.  Tasks are claimed one at a time; the call joins
    /// all workers before returning, so tasks may borrow from the caller's
    /// stack.
    // claim() yields each index below n exactly once and both slot vectors
    // have n entries; slot mutexes are leaf locks no task holds while running,
    // so they cannot be poisoned, and once the scope has joined every worker
    // each claimed index has stored its result.
    #[expect(clippy::indexing_slicing, reason = "claim() yields each i < n once; slots hold n")]
    #[expect(clippy::expect_used, reason = "leaf locks never poisoned; every claimed slot filled")]
    pub fn run<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        if self.threads == 1 || n == 1 {
            return tasks.into_iter().map(|task| task()).collect();
        }
        let queue = ChunkQueue::new(n);
        let task_slots: Vec<Mutex<Option<F>>> =
            tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let out_slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..self.threads.min(n) {
                s.spawn(|| {
                    while let Some(i) = queue.claim() {
                        let slot = task_slots[i].lock();
                        let task = slot
                            .expect("task slot lock poisoned")
                            .take()
                            .expect("the queue hands every task index out once");
                        *out_slots[i].lock().expect("result slot lock poisoned") = Some(task());
                    }
                });
            }
        });
        out_slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot lock poisoned")
                    .expect("every claimed task stores its result before the join")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn empty_queue_yields_nothing() {
        let q = ChunkQueue::new(0);
        assert!(q.is_empty());
        assert_eq!(q.claim(), None);
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
}
