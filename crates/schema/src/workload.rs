//! The workload profiler: per-class query accounting for Eq. 6.
//!
//! Section 5.2 leaves the weights `w(C)` to the user ("reflects the query
//! frequency and selectivity of node C").  This module provides the
//! measurement half: every executed query is classified into the schema
//! node classes `C` it touches — the [`PathId`]s of its query sequence,
//! the same identifiers [`crate::ProbabilityModel`] estimates
//! `p(C | root)` over — and a [`WorkloadProfile`] accumulates, per class,
//! how many queries touched it, how many results they produced
//! (selectivity), and how long they took.  A later compaction can then
//! derive `w(C)` directly as [`WorkloadProfile::frequency`] scaled by
//! observed selectivity, closing the paper's tuning loop.
//!
//! Profiles are plain data: snapshot-able ([`Clone`]), mergeable
//! ([`WorkloadProfile::merge`], proven equivalent to replaying the
//! concatenated history), and round-trippable through a dep-free JSON
//! form so an operator can persist a day's workload and feed it back.
//! [`WorkloadRecorder`] is the `Sync` wrapper queries record into through
//! `&self`.

use std::collections::BTreeMap;
use std::sync::Mutex;
use xseq_xml::PathId;

/// Accumulated statistics for one schema node class `C`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Queries whose class set contained `C`.
    pub queries: u64,
    /// Total results returned by those queries.
    pub results: u64,
    /// Total wall time of those queries, in nanoseconds.
    pub latency_ns: u64,
}

impl ClassStats {
    /// Mean result cardinality — the selectivity signal for `w(C)`.
    pub fn mean_results(&self) -> Option<f64> {
        (self.queries > 0).then(|| self.results as f64 / self.queries as f64)
    }

    fn merge(&mut self, other: &ClassStats) {
        self.queries += other.queries;
        self.results += other.results;
        self.latency_ns += other.latency_ns;
    }
}

/// A per-class accounting of an executed query history.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkloadProfile {
    classes: BTreeMap<PathId, ClassStats>,
    queries: u64,
    unclassified: u64,
}

impl WorkloadProfile {
    /// An empty profile.
    pub fn new() -> Self {
        WorkloadProfile::default()
    }

    /// Records one executed query: the classes its sequence touched, its
    /// result cardinality, and its wall time.  A query with no classes
    /// (nothing instantiable against the corpus) counts as unclassified.
    pub fn record(&mut self, classes: &[PathId], results: u64, latency_ns: u64) {
        self.queries += 1;
        if classes.is_empty() {
            self.unclassified += 1;
            return;
        }
        for &c in classes {
            let entry = self.classes.entry(c).or_default();
            entry.queries += 1;
            entry.results += results;
            entry.latency_ns += latency_ns;
        }
    }

    /// Folds `other` into `self`.  Equivalent to having recorded the two
    /// underlying query histories into one profile, in any order.
    pub fn merge(&mut self, other: &WorkloadProfile) {
        self.queries += other.queries;
        self.unclassified += other.unclassified;
        for (&c, stats) in &other.classes {
            self.classes.entry(c).or_default().merge(stats);
        }
    }

    /// Total recorded queries.
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// Recorded queries that touched no class.
    pub fn unclassified(&self) -> u64 {
        self.unclassified
    }

    /// Number of distinct classes observed.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// True before the first recorded query touched a class.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// The stats of class `c`, if any query touched it.
    pub fn class(&self, c: PathId) -> Option<&ClassStats> {
        self.classes.get(&c)
    }

    /// Iterates classes in `PathId` order.
    pub fn iter(&self) -> impl Iterator<Item = (PathId, &ClassStats)> {
        self.classes.iter().map(|(&c, s)| (c, s))
    }

    /// The fraction of recorded queries that touched `c` — the query
    /// frequency factor of the paper's `w(C)`.  Zero before any queries.
    pub fn frequency(&self, c: PathId) -> f64 {
        if self.queries == 0 {
            return 0.0;
        }
        self.class(c).map_or(0.0, |s| s.queries as f64) / self.queries as f64
    }

    /// Serializes the profile as a compact JSON object:
    /// `{"queries":N,"unclassified":N,
    ///   "classes":[[path,queries,results,latency_ns],…]}`.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"queries\":{},\"unclassified\":{},\"classes\":[",
            self.queries, self.unclassified
        );
        for (i, (&c, s)) in self.classes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "[{},{},{},{}]",
                c.0, s.queries, s.results, s.latency_ns
            );
        }
        out.push_str("]}");
        out
    }

    /// Parses [`WorkloadProfile::to_json`] output back into a profile.
    ///
    /// The parser accepts exactly the emitted shape (whitespace-tolerant);
    /// `from_json(to_json(p)) == p` for every profile.
    pub fn from_json(text: &str) -> Result<WorkloadProfile, String> {
        let mut cursor = Cursor::new(text);
        cursor.expect_str("{")?;
        cursor.expect_str("\"queries\"")?;
        cursor.expect_str(":")?;
        let queries = cursor.parse_u64()?;
        cursor.expect_str(",")?;
        cursor.expect_str("\"unclassified\"")?;
        cursor.expect_str(":")?;
        let unclassified = cursor.parse_u64()?;
        cursor.expect_str(",")?;
        cursor.expect_str("\"classes\"")?;
        cursor.expect_str(":")?;
        cursor.expect_str("[")?;
        let mut classes = BTreeMap::new();
        if !cursor.try_str("]") {
            loop {
                cursor.expect_str("[")?;
                let path = cursor.parse_u64()?;
                cursor.expect_str(",")?;
                let q = cursor.parse_u64()?;
                cursor.expect_str(",")?;
                let results = cursor.parse_u64()?;
                cursor.expect_str(",")?;
                let latency_ns = cursor.parse_u64()?;
                cursor.expect_str("]")?;
                let path = u32::try_from(path).map_err(|_| "path id out of range".to_string())?;
                if classes
                    .insert(
                        PathId(path),
                        ClassStats {
                            queries: q,
                            results,
                            latency_ns,
                        },
                    )
                    .is_some()
                {
                    return Err(format!("duplicate class {path}"));
                }
                if !cursor.try_str(",") {
                    cursor.expect_str("]")?;
                    break;
                }
            }
        }
        cursor.expect_str("}")?;
        cursor.expect_end()?;
        Ok(WorkloadProfile {
            classes,
            queries,
            unclassified,
        })
    }
}

/// A whitespace-skipping token cursor for the profile's JSON subset.
struct Cursor<'a> {
    rest: &'a str,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Self {
        Cursor { rest: text }
    }

    fn skip_ws(&mut self) {
        self.rest = self.rest.trim_start();
    }

    fn try_str(&mut self, token: &str) -> bool {
        self.skip_ws();
        if let Some(rest) = self.rest.strip_prefix(token) {
            self.rest = rest;
            true
        } else {
            false
        }
    }

    fn expect_str(&mut self, token: &str) -> Result<(), String> {
        if self.try_str(token) {
            Ok(())
        } else {
            Err(format!(
                "expected `{token}` at `{}`",
                &self.rest[..self.rest.len().min(20)]
            ))
        }
    }

    fn parse_u64(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let digits = self.rest.len()
            - self
                .rest
                .trim_start_matches(|c: char| c.is_ascii_digit())
                .len();
        if digits == 0 {
            return Err(format!(
                "expected number at `{}`",
                &self.rest[..self.rest.len().min(20)]
            ));
        }
        let (num, rest) = self.rest.split_at(digits);
        self.rest = rest;
        num.parse().map_err(|e| format!("bad number `{num}`: {e}"))
    }

    fn expect_end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "trailing data at `{}`",
                &self.rest[..self.rest.len().min(20)]
            ))
        }
    }
}

/// A `Sync` recorder queries accumulate into through `&self`.
///
/// Queries take the lock once, for the few map updates of one `record`
/// call; the benchmark reads the cost off `telemetry.profiling_cost_x1000`.
#[derive(Debug, Default)]
pub struct WorkloadRecorder {
    inner: Mutex<WorkloadProfile>,
}

impl WorkloadRecorder {
    /// A recorder over an empty profile.
    pub fn new() -> Self {
        WorkloadRecorder::default()
    }

    /// Records one executed query (see [`WorkloadProfile::record`]) and
    /// returns the distinct classes seen so far — the value behind the
    /// `workload.classes` gauge, read under the same lock acquisition.
    pub fn record(&self, classes: &[PathId], results: u64, latency_ns: u64) -> usize {
        let mut profile = self.lock();
        profile.record(classes, results, latency_ns);
        profile.len()
    }

    /// An owned snapshot of the accumulated profile.
    pub fn snapshot(&self) -> WorkloadProfile {
        self.lock().clone()
    }

    /// Swaps in an empty profile and returns the accumulated one — the
    /// hand-off a compaction uses to consume an epoch's workload.
    pub fn take(&self) -> WorkloadProfile {
        std::mem::take(&mut *self.lock())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, WorkloadProfile> {
        // a poisoned profile is still sound data (plain counters), so
        // recover it rather than propagate the panic
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(id: u32) -> PathId {
        PathId(id)
    }

    #[test]
    fn record_accumulates_per_class() {
        let mut w = WorkloadProfile::new();
        w.record(&[p(1), p(2)], 5, 100);
        w.record(&[p(2)], 0, 50);
        w.record(&[], 0, 10);
        assert_eq!(w.queries(), 3);
        assert_eq!(w.unclassified(), 1);
        assert_eq!(w.len(), 2);
        let c2 = w.class(p(2)).copied().unwrap_or_default();
        assert_eq!(c2.queries, 2);
        assert_eq!(c2.results, 5);
        assert_eq!(c2.latency_ns, 150);
        assert_eq!(w.frequency(p(2)), 2.0 / 3.0);
        assert_eq!(w.frequency(p(9)), 0.0);
        assert_eq!(w.class(p(1)).and_then(|s| s.mean_results()), Some(5.0));
    }

    #[test]
    fn json_round_trip_hand_cases() {
        for profile in [WorkloadProfile::new(), {
            let mut w = WorkloadProfile::new();
            w.record(&[p(0), p(7)], 3, 42);
            w.record(&[], 0, 1);
            w
        }] {
            let json = profile.to_json();
            let back = WorkloadProfile::from_json(&json).expect("round trip parses");
            assert_eq!(back, profile, "{json}");
        }
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        for bad in [
            "",
            "{}",
            "{\"queries\":1}",
            "{\"queries\":1,\"unclassified\":0,\"classes\":[[1,2,3]]}",
            "{\"queries\":1,\"unclassified\":0,\"classes\":[]} trailing",
            "{\"queries\":1,\"unclassified\":0,\"classes\":[[1,1,0,0],[1,1,0,0]]}",
        ] {
            assert!(WorkloadProfile::from_json(bad).is_err(), "accepted: {bad}");
        }
    }

    /// One scripted "query history" event: class set, results, latency.
    type Event = (Vec<u16>, u64, u32);

    fn replay(events: &[Event]) -> WorkloadProfile {
        let mut w = WorkloadProfile::new();
        for (classes, results, latency) in events {
            let classes: Vec<PathId> = classes.iter().map(|&c| p(u32::from(c))).collect();
            w.record(&classes, *results, u64::from(*latency));
        }
        w
    }

    fn events() -> impl Strategy<Value = Vec<Event>> {
        proptest::collection::vec(
            (
                proptest::collection::vec(0u16..32, 0..6),
                0u64..1000,
                0u32..1_000_000,
            ),
            0..40,
        )
    }

    proptest! {
        /// merge(a, b) ≡ replaying the concatenated query history.
        #[test]
        fn merge_equals_concatenated_replay(a in events(), b in events()) {
            let mut merged = replay(&a);
            merged.merge(&replay(&b));
            let mut concat = a.clone();
            concat.extend(b.clone());
            prop_assert_eq!(merged, replay(&concat));
        }

        #[test]
        fn json_round_trips(a in events()) {
            let profile = replay(&a);
            let back = WorkloadProfile::from_json(&profile.to_json());
            prop_assert_eq!(back.as_ref(), Ok(&profile));
        }

        #[test]
        fn merge_is_commutative(a in events(), b in events()) {
            let mut ab = replay(&a);
            ab.merge(&replay(&b));
            let mut ba = replay(&b);
            ba.merge(&replay(&a));
            prop_assert_eq!(ab, ba);
        }
    }

    /// Mirrors the slow-log retention test: 8 threads hammer one recorder
    /// and the result equals the sequential replay of all events.
    #[test]
    #[expect(clippy::integer_division_remainder_used, reason = "test data cycles by literals")]
    fn eight_thread_accumulation_matches_sequential_replay() {
        const THREADS: u32 = 8;
        const PER_THREAD: u32 = 500;
        let recorder = WorkloadRecorder::new();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let recorder = &recorder;
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        let classes = [p(t), p(THREADS + i % 4)];
                        recorder.record(&classes, u64::from(i % 7), u64::from(i));
                    }
                });
            }
        });
        let got = recorder.snapshot();
        let mut expect = WorkloadProfile::new();
        for t in 0..THREADS {
            for i in 0..PER_THREAD {
                expect.record(&[p(t), p(THREADS + i % 4)], u64::from(i % 7), u64::from(i));
            }
        }
        assert_eq!(got, expect);
        // take() drains
        let taken = recorder.take();
        assert_eq!(taken, expect);
        assert_eq!(recorder.snapshot(), WorkloadProfile::new());
    }
}
