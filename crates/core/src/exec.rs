//! The worker pool: the workspace's only home for threads.
//!
//! A dependency-free scoped pool built from two pieces:
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
//!   the caller.  A pool of one thread (the default) degenerates to
//!   in-place iteration on the caller's thread and spawns nothing.
//!
//! One claim loop, [`Pool::map_with`], serves both levels of parallelism
//! the database has: it answers a `query_batch`, one warm per-worker state
//! each, and [`Pool::run`] builds the shards side by side through it.  Both
//! return results in input order, independent of thread count and
//! scheduling.  The unit tests are the crate root's `tests` module.
//!
//! Every thread the library starts is scoped and joined: the root
//! `clippy.toml` disallows `std::thread::spawn` and
//! `std::thread::Builder::spawn` workspace-wide, with no `#[allow]`
//! anywhere, so nothing outlives the call that spawned it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// A wait-free claim counter over the index range `0..len`.
///
/// Each [`ChunkQueue::claim`] hands out the next unclaimed index; indices
/// are issued in ascending order, and together the claims cover the whole
/// range exactly once.
#[derive(Debug)]
pub(crate) struct ChunkQueue {
    cursor: AtomicUsize,
    len: usize,
}

impl ChunkQueue {
    /// A queue over `len` items.
    pub(crate) fn new(len: usize) -> Self {
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
    pub(crate) fn claim(&self) -> Option<usize> {
        // ORDERING: cursor — the fetch_add RMW is the whole synchronization
        // story; it alone makes claims disjoint.  Results computed from a claim
        // travel back to the caller through the scope join (a full
        // happens-before edge), never through this counter.
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        (i < self.len).then_some(i)
    }
}

/// A scoped worker pool of a fixed thread count.
///
/// The pool holds no OS resources between calls — threads are spawned
/// inside each entry point's scope and joined before it returns, so a
/// `Pool` is trivially `Send + Sync` and cheap to store or clone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Pool {
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
    pub(crate) fn new(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
        }
    }

    /// The worker count.
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item, returning results in input order, with one
    /// `init()` state per worker that `f` reuses for every item the worker
    /// claims.  Items are claimed one at a time, so a batch of uneven items
    /// ends within one item of balanced however the claims interleave; the
    /// calling thread is one of the workers, so a pool of `t` threads spawns
    /// `t − 1` and a single worker spawns none.
    pub(crate) fn map_with<T, S, R, I, F>(&self, items: &[T], init: I, f: F) -> Vec<R>
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
    /// scope/join API, as [`Pool::map_with`] over the tasks: each sits in a
    /// slot the worker that claims it empties, and the call joins all
    /// workers before returning, so tasks may borrow from the caller's
    /// stack.
    // A slot's lock is held only to take its task, never while one runs,
    // so it cannot be poisoned; `into_inner` covers it anyway.
    #[expect(clippy::expect_used, reason = "map_with hands each slot to f exactly once")]
    pub(crate) fn run<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let slots: Vec<Mutex<Option<F>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
        self.map_with(
            &slots,
            || (),
            |(), slot| {
                let task = slot.lock().unwrap_or_else(PoisonError::into_inner).take();
                task.expect("map_with claims every slot once")()
            },
        )
    }
}
