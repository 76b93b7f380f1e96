//! The one retention buffer: keep the latest `capacity` items, oldest
//! first.  The flight recorder and the tracer's slow-query log both
//! retain through it.
//!
//! It is a mutex around a deque on purpose.  The traffic is one push per
//! lifecycle event and one per slow `Tracer::record` — at most
//! one uncontended lock beside an operation that costs tens of
//! microseconds — and the end-to-end path runs with tracing off.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard};

/// A buffer retaining the most recent `capacity` pushed items.
#[derive(Debug)]
pub(crate) struct Retention<T> {
    capacity: usize,
    items: Mutex<VecDeque<T>>,
}

impl<T: Clone> Retention<T> {
    /// A buffer retaining at most `capacity` items (clamped ≥ 1).
    pub(crate) fn new(capacity: usize) -> Self {
        Retention {
            capacity: capacity.max(1),
            items: Mutex::new(VecDeque::new()),
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends `item`, evicting the oldest one when full.
    pub(crate) fn push(&self, item: T) {
        let mut items = self.lock();
        if items.len() == self.capacity {
            items.pop_front();
        }
        items.push_back(item);
    }

    /// The retained items, oldest first.  Non-destructive.
    pub(crate) fn snapshot(&self) -> Vec<T> {
        self.lock().iter().cloned().collect()
    }

    fn lock(&self) -> MutexGuard<'_, VecDeque<T>> {
        // every push leaves the deque valid at each step, so a poisoned
        // buffer is still sound data: recover it rather than propagate
        self.items.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_evicts_the_oldest_and_snapshots_are_stable() {
        let r = Retention::new(2);
        assert!(r.snapshot().is_empty());
        for v in 1..=5 {
            r.push(v);
        }
        assert_eq!(r.snapshot(), vec![4, 5], "latest two, oldest first");
        assert_eq!(r.snapshot(), vec![4, 5], "reading consumes nothing");
        assert_eq!(Retention::<u8>::new(0).capacity(), 1);
    }

    #[test]
    fn concurrent_pushes_stay_bounded_and_ordered_per_writer() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 500;
        let r = Retention::new(16);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let r = &r;
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        r.push((t, i));
                    }
                });
            }
        });
        let kept = r.snapshot();
        assert_eq!(kept.len(), 16, "settles at exactly its capacity");
        for t in 0..THREADS {
            let own: Vec<u64> = kept.iter().filter(|e| e.0 == t).map(|e| e.1).collect();
            assert!(own.windows(2).all(|w| w[0] < w[1]), "{own:?}");
        }
    }
}
