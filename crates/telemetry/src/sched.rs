//! Deterministic interleaving enumerator.
//!
//! A loom-style, dependency-free harness: N logical threads each hold a
//! script of operations against a shared structure, and [`Schedules`] runs
//! the scripts through **every** interleaving of their operations (or a
//! seeded sample when the schedule space exceeds a bound).  A checker built
//! on it compares the real structure against a trivially-correct reference
//! model after every schedule and fails with the schedule attached, so the
//! failure replays deterministically.  [`check_counter`] is the one in this
//! crate; the `exec` chunk queue and the `index` tiered delta run their own
//! model checks on the same enumerator.
//!
//! ## What this does and does not check
//!
//! Operations are interleaved *whole*: each schedule executes on one
//! thread, so this validates the op-level state machine under every
//! arrival order, not instruction-level tearing — that is what the
//! multi-threaded tests and the TSan job are for.

use crate::metrics::Counter;

/// One scripted operation against a [`Counter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterOp {
    /// `add(n)`.
    Add(u64),
    /// `get()` — the observed value must never decrease within a schedule.
    Snapshot,
}

/// splitmix64 — the same tiny deterministic generator the sequencing
/// strategies use; good enough to spread schedule samples.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The interleaving space of N threads with fixed per-thread op counts.
///
/// A schedule is a sequence of thread indices; index `t` appearing for the
/// k-th time means "thread `t` executes its k-th op now".
#[derive(Debug, Clone)]
pub struct Schedules {
    ops_per_thread: Vec<usize>,
    /// Exhaustive enumeration happens iff the space is at most this big;
    /// beyond it, exactly `limit` seeded samples run instead.
    limit: usize,
    seed: u64,
}

impl Schedules {
    /// The schedule space for threads running `ops_per_thread[t]` ops each.
    pub fn new(ops_per_thread: &[usize], limit: usize, seed: u64) -> Self {
        Schedules {
            ops_per_thread: ops_per_thread.to_vec(),
            limit: limit.max(1),
            seed,
        }
    }

    /// Number of distinct interleavings (the multinomial coefficient), or
    /// `None` when it overflows `u128`.
    pub fn count(&self) -> Option<u128> {
        let mut total: u128 = 1;
        let mut placed: u128 = 0;
        for &ops in &self.ops_per_thread {
            for i in 1..=ops as u128 {
                placed += 1;
                // total *= placed; total /= i — binomial building stays exact
                total = total.checked_mul(placed)?;
                // i ranges over 1..=ops, never zero
                total /= i;
            }
        }
        Some(total)
    }

    /// True when [`Schedules::for_each`] will enumerate every interleaving.
    pub fn is_exhaustive(&self) -> bool {
        self.count().is_some_and(|c| c <= self.limit as u128)
    }

    /// Runs `f` once per schedule: every interleaving when the space fits
    /// the limit, otherwise `limit` seeded samples.  Returns the number of
    /// schedules visited.
    // left is the sum of remaining, so while left > 0 some thread has ops left.
    #[expect(clippy::indexing_slicing, reason = "t < remaining.len(); nonempty is non-empty")]
    #[expect(clippy::integer_division_remainder_used, reason = "nonempty.len() > 0 while left > 0")]
    pub fn for_each(&self, mut f: impl FnMut(&[usize])) -> usize {
        let total_ops: usize = self.ops_per_thread.iter().sum();
        if self.is_exhaustive() {
            let mut remaining = self.ops_per_thread.clone();
            let mut prefix = Vec::with_capacity(total_ops);
            let mut visited = 0usize;
            Self::enumerate(&mut remaining, &mut prefix, total_ops, &mut f, &mut visited);
            visited
        } else {
            let mut rng = self.seed;
            let mut sched = Vec::with_capacity(total_ops);
            for _ in 0..self.limit {
                sched.clear();
                let mut remaining = self.ops_per_thread.clone();
                let mut left = total_ops;
                while left > 0 {
                    let nonempty: Vec<usize> =
                        (0..remaining.len()).filter(|&t| remaining[t] > 0).collect();
                    let t = nonempty[(splitmix64(&mut rng) % nonempty.len() as u64) as usize];
                    remaining[t] -= 1;
                    left -= 1;
                    sched.push(t);
                }
                f(&sched);
            }
            self.limit
        }
    }

    #[expect(clippy::indexing_slicing, reason = "t < remaining.len() by the loop bound")]
    fn enumerate(
        remaining: &mut [usize],
        prefix: &mut Vec<usize>,
        left: usize,
        f: &mut impl FnMut(&[usize]),
        visited: &mut usize,
    ) {
        if left == 0 {
            *visited += 1;
            f(prefix);
            return;
        }
        for t in 0..remaining.len() {
            if remaining[t] > 0 {
                remaining[t] -= 1;
                prefix.push(t);
                Self::enumerate(remaining, prefix, left - 1, f, visited);
                prefix.pop();
                remaining[t] += 1;
            }
        }
    }
}

/// Checks a [`Counter`] over every interleaving (or a seeded sample) of the
/// per-thread op scripts: snapshots must be monotone non-decreasing and the
/// final value must equal the exact sum of all adds.  Returns the number of
/// schedules checked.
#[expect(clippy::indexing_slicing, reason = "a schedule runs thread t threads[t].len() times")]
pub fn check_counter(threads: &[Vec<CounterOp>], limit: usize, seed: u64) -> Result<usize, String> {
    let ops_per_thread: Vec<usize> = threads.iter().map(Vec::len).collect();
    let total: u64 = threads
        .iter()
        .flatten()
        .map(|op| match op {
            CounterOp::Add(n) => *n,
            CounterOp::Snapshot => 0,
        })
        .sum();
    let schedules = Schedules::new(&ops_per_thread, limit, seed);
    let mut failure: Option<String> = None;
    let visited = schedules.for_each(|sched| {
        if failure.is_some() {
            return;
        }
        let counter = Counter::default();
        let mut cursor = vec![0usize; threads.len()];
        let mut last_seen = 0u64;
        for (step, &t) in sched.iter().enumerate() {
            let op = threads[t][cursor[t]];
            cursor[t] += 1;
            match op {
                CounterOp::Add(n) => counter.add(n),
                CounterOp::Snapshot => {
                    let v = counter.get();
                    if v < last_seen {
                        failure = Some(format!(
                            "step {step}: snapshot went backwards {last_seen} -> {v} \
                             (schedule {sched:?})"
                        ));
                        return;
                    }
                    last_seen = v;
                }
            }
        }
        if counter.get() != total {
            failure = Some(format!(
                "final count {} != exact sum {total} (schedule {sched:?})",
                counter.get()
            ));
        }
    });
    match failure {
        Some(e) => Err(e),
        None => Ok(visited),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multinomial_counts() {
        assert_eq!(Schedules::new(&[2, 2], 100, 0).count(), Some(6));
        assert_eq!(Schedules::new(&[3, 3], 100, 0).count(), Some(20));
        assert_eq!(Schedules::new(&[1, 1, 1], 100, 0).count(), Some(6));
        assert_eq!(Schedules::new(&[], 100, 0).count(), Some(1));
    }

    #[test]
    fn exhaustive_enumeration_visits_every_schedule_once() {
        let s = Schedules::new(&[2, 1], 100, 0);
        assert!(s.is_exhaustive());
        let mut seen = Vec::new();
        let visited = s.for_each(|sched| seen.push(sched.to_vec()));
        assert_eq!(visited, 3);
        seen.sort();
        assert_eq!(seen, vec![vec![0, 0, 1], vec![0, 1, 0], vec![1, 0, 0]],);
    }

    #[test]
    fn sampling_is_deterministic_and_bounded() {
        let s = Schedules::new(&[4, 4, 4], 50, 7);
        assert!(!s.is_exhaustive());
        let mut a = Vec::new();
        let mut b = Vec::new();
        assert_eq!(s.for_each(|x| a.push(x.to_vec())), 50);
        assert_eq!(s.for_each(|x| b.push(x.to_vec())), 50);
        assert_eq!(a, b, "same seed, same schedules");
        for sched in &a {
            assert_eq!(sched.len(), 12);
            for t in 0..3 {
                assert_eq!(sched.iter().filter(|&&x| x == t).count(), 4);
            }
        }
    }
}
