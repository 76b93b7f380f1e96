//! `xseq-exec` — the workspace's only home for threads.
//!
//! A dependency-free scoped worker pool built from two pieces:
//!
//! * [`ChunkQueue`] — a wait-free claim counter handing out disjoint
//!   `[start, end)` ranges of a work list.  Dynamic chunk claiming gives
//!   load balancing (a worker that draws a cheap chunk immediately claims
//!   another) while keeping results addressable by chunk index, so callers
//!   can reassemble outputs in *input* order no matter which worker ran
//!   which chunk.  Its tests claim from one queue on real threads; the
//!   claim is one `fetch_add`, so they and the ThreadSanitizer job are its
//!   whole concurrency check.
//! * [`Pool`] — a scope/join front end over `std::thread::scope`.  Every
//!   entry point blocks until all spawned work is joined, so borrowed data
//!   flows into workers without `'static` bounds and panics propagate to
//!   the caller.  A pool of one thread (the default) degenerates to plain
//!   in-place iteration with zero thread or lock traffic.
//!
//! Determinism contract: [`Pool::map`], [`Pool::map_chunks`] and
//! [`Pool::run`] return results in input order, independent of thread
//! count and scheduling.  The two fan-outs rely on this — the index build
//! concatenates emitted sequences in document order, and `query_batch`
//! returns its answers in the order the expressions were given.
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

/// A wait-free chunk allocator over the index range `0..len`.
///
/// Each [`ChunkQueue::claim`] hands out the next untouched `[start, end)`
/// range of at most `chunk` items; ranges are disjoint, in ascending
/// order of issue, and together cover the whole range exactly once.
/// `start` is always a multiple of `chunk`, so `start / chunk` is a dense
/// chunk index usable as a result slot.
#[derive(Debug)]
pub struct ChunkQueue {
    cursor: AtomicUsize,
    len: usize,
    chunk: usize,
}

impl ChunkQueue {
    /// A queue over `len` items handed out `chunk` at a time (`chunk` is
    /// clamped to at least 1).
    pub fn new(len: usize, chunk: usize) -> Self {
        ChunkQueue {
            cursor: AtomicUsize::new(0),
            len,
            chunk: chunk.max(1),
        }
    }

    /// Claims the next chunk, or `None` when the range is exhausted.
    ///
    /// Safe to call from any number of threads; each index in `0..len` is
    /// handed out exactly once.  Callers are expected to stop on the first
    /// `None` (the pool's workers do), which bounds the cursor overshoot
    /// to one claim per caller.
    pub fn claim(&self) -> Option<(usize, usize)> {
        // ORDERING: cursor — the fetch_add RMW is the whole synchronization
        // story; it alone makes claims disjoint.  Results computed from a claim
        // travel back to the caller through the scope join (a full
        // happens-before edge), never through this counter.
        let start = self.cursor.fetch_add(self.chunk, Ordering::Relaxed);
        if start >= self.len {
            return None;
        }
        Some((start, (start + self.chunk).min(self.len)))
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

    /// True when the pool executes in place on the calling thread.
    pub fn is_sequential(&self) -> bool {
        self.threads == 1
    }

    /// The default chunk size for `len` items: roughly four chunks per
    /// worker, so a straggler chunk costs at most ~1/4 of one worker's
    /// share of the wall clock.
    pub fn chunk_for(&self, len: usize) -> usize {
        len.div_ceil(self.threads * 4).max(1)
    }

    /// Applies `f` to every item, returning results in input order.
    ///
    /// `f` receives the item's index alongside the item.  Work is claimed
    /// in chunks of [`Pool::chunk_for`] via a [`ChunkQueue`].
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let chunk = self.chunk_for(items.len());
        let per_chunk = self.map_chunks(items, chunk, |ci, slice| {
            let base = ci * chunk;
            slice
                .iter()
                .enumerate()
                .map(|(j, item)| f(base + j, item))
                .collect::<Vec<R>>()
        });
        per_chunk.into_iter().flatten().collect()
    }

    /// Applies `f` to contiguous chunks of `items` (at most `chunk` items
    /// each), returning one result per chunk in chunk order.
    ///
    /// `f` receives the dense chunk index (`0..len.div_ceil(chunk)`) and
    /// the chunk slice.  This is the primitive behind [`Pool::map`]; chunk
    /// order *is* input order.
    // claim() returns start < len and end <= len, so ci < n_chunks; a slot
    // lock only poisons if f panicked (already unwinding), and once the scope
    // has joined every worker each chunk index was claimed and stored once.
    #[expect(clippy::integer_division_remainder_used, reason = "chunk >= 1 (clamped at entry)")]
    #[expect(clippy::indexing_slicing, reason = "claim() yields start < len and end <= len")]
    #[expect(clippy::expect_used, reason = "slot locks poison only if f panicked; all are filled")]
    pub fn map_chunks<T, R, F>(&self, items: &[T], chunk: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> R + Sync,
    {
        let chunk = chunk.max(1);
        if items.is_empty() {
            return Vec::new();
        }
        let n_chunks = items.len().div_ceil(chunk);
        if self.threads == 1 || n_chunks == 1 {
            return items
                .chunks(chunk)
                .enumerate()
                .map(|(ci, slice)| f(ci, slice))
                .collect();
        }
        let queue = ChunkQueue::new(items.len(), chunk);
        let slots: Vec<Mutex<Option<R>>> = (0..n_chunks).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..self.threads.min(n_chunks) {
                s.spawn(|| {
                    while let Some((start, end)) = queue.claim() {
                        let ci = start / chunk;
                        let result = f(ci, &items[start..end]);
                        *slots[ci].lock().expect("chunk result lock poisoned") = Some(result);
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("chunk result lock poisoned")
                    .expect("chunk queue hands every chunk to exactly one worker")
            })
            .collect()
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
        let queue = ChunkQueue::new(items.len(), 1);
        let work = || {
            let mut state = init();
            let mut done = Vec::new();
            while let Some((i, _)) = queue.claim() {
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
    /// scope/join API.  Tasks are claimed one at a time (heterogeneous
    /// tasks balance better unchunked); the call joins all workers before
    /// returning, so tasks may borrow from the caller's stack.
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
        let queue = ChunkQueue::new(n, 1);
        let task_slots: Vec<Mutex<Option<F>>> =
            tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let out_slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..self.threads.min(n) {
                s.spawn(|| {
                    while let Some((i, _)) = queue.claim() {
                        let slot = task_slots[i].lock();
                        let task = slot
                            .expect("task slot lock poisoned")
                            .take()
                            .expect("chunk queue hands every task index out once");
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
        let q = ChunkQueue::new(10, 3);
        let mut got = Vec::new();
        while let Some(r) = q.claim() {
            got.push(r);
        }
        assert_eq!(got, vec![(0, 3), (3, 6), (6, 9), (9, 10)]);
        assert_eq!(q.claim(), None, "exhausted queues stay exhausted");
    }

    #[test]
    fn chunk_queue_clamps_chunk_to_one() {
        let q = ChunkQueue::new(2, 0);
        assert_eq!(q.claim(), Some((0, 1)));
        assert_eq!(q.claim(), Some((1, 2)));
        assert_eq!(q.claim(), None);
    }

    #[test]
    fn empty_queue_yields_nothing() {
        let q = ChunkQueue::new(0, 4);
        assert!(q.is_empty());
        assert_eq!(q.claim(), None);
    }

    #[test]
    fn chunk_queue_claims_are_disjoint_across_threads() {
        // Four threads drain one queue; together their claims must cover
        // 0..len exactly once, whatever the interleaving.
        let (len, chunk) = (10_007, 3);
        let q = ChunkQueue::new(len, chunk);
        let mut claims: Vec<(usize, usize)> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let mut mine = Vec::new();
                        while let Some(r) = q.claim() {
                            mine.push(r);
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
        let mut next = 0;
        for (start, end) in claims {
            assert_eq!(start, next, "claims overlap or leave a gap");
            assert!(end > start && end - start <= chunk);
            next = end;
        }
        assert_eq!(next, len, "claims cover the whole range");
    }

    #[test]
    fn map_preserves_input_order_at_every_thread_count() {
        let items: Vec<u32> = (0..103).collect();
        let expect: Vec<u64> = items.iter().map(|&x| u64::from(x) * 3 + 1).collect();
        for threads in [1, 2, 3, 4, 8] {
            let pool = Pool::new(threads);
            let got = pool.map(&items, |i, &x| {
                assert_eq!(i as u32, x, "index argument matches position");
                u64::from(x) * 3 + 1
            });
            assert_eq!(got, expect, "threads={threads}");
        }
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
    fn map_chunks_sees_contiguous_slices_in_order() {
        let items: Vec<usize> = (0..25).collect();
        let pool = Pool::new(4);
        let spans = pool.map_chunks(&items, 7, |ci, slice| (ci, slice[0], slice.len()));
        assert_eq!(spans, vec![(0, 0, 7), (1, 7, 7), (2, 14, 7), (3, 21, 4)]);
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
        let seen: Vec<usize> = pool.map(&items, |_, &x| x);
        let unique: HashSet<usize> = seen.iter().copied().collect();
        assert_eq!(unique.len(), 1000);
    }

    #[test]
    fn sequential_pool_never_spawns() {
        // Nothing observable to assert beyond behavior: the threads==1
        // paths return before any scope is created.
        let pool = Pool::default();
        assert!(pool.is_sequential());
        assert_eq!(pool.map(&[1, 2, 3], |_, &x| x + 1), vec![2, 3, 4]);
        assert_eq!(pool.run(vec![|| 5]), vec![5]);
    }

    #[test]
    fn chunk_for_balances_roughly_four_per_worker() {
        let pool = Pool::new(4);
        assert_eq!(pool.chunk_for(0), 1);
        assert_eq!(pool.chunk_for(16), 1);
        assert_eq!(pool.chunk_for(160), 10);
        let sequential = Pool::new(1);
        assert_eq!(sequential.chunk_for(100), 25);
    }
}
