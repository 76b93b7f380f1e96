//! The workload profile: per-class query accounting for Eq. 6.
//!
//! Section 5.2 leaves the weights `w(C)` to the user ("reflects the query
//! frequency and selectivity of node C").  This module provides the
//! measurement half: every executed query is classified into the schema
//! node classes `C` it touches — the [`PathId`]s of its query sequence,
//! the same identifiers [`ProbabilityModel`](crate::ProbabilityModel)
//! estimates `p(C | root)` over — and a [`WorkloadProfile`] accumulates,
//! per class, how many queries touched it, how many results they produced
//! (selectivity), and how long they took.  A later compaction can then
//! derive `w(C)` directly as [`WorkloadProfile::frequency`] scaled by
//! observed selectivity, closing the paper's tuning loop.
//!
//! A profile is plain data: the database keeps one behind a mutex that
//! queries record into through `&self`, hands out snapshots
//! ([`Clone`]), and exports it as JSON ([`WorkloadProfile::to_json`]) in
//! the diagnostics bundle.

use std::collections::BTreeMap;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DatabaseBuilder;

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
        assert_eq!(
            w.to_json(),
            "{\"queries\":3,\"unclassified\":1,\"classes\":[[1,1,5,100],[2,2,5,150]]}"
        );
    }

    /// Eight threads query one profiling database at once, and its profile
    /// equals the sequential replay of every query's outcome — latency
    /// aside, which is wall time.
    #[test]
    #[expect(clippy::integer_division_remainder_used, reason = "test data cycles by literals")]
    fn eight_thread_accumulation_matches_sequential_replay() {
        const THREADS: usize = 8;
        const PER_THREAD: usize = 100;
        const QUERIES: [&str; 4] = ["/a/b", "//c", "/a/b[text='x']", "/nosuchroot"];
        let db = DatabaseBuilder::new()
            .build_from_xml(["<a><b>x</b></a>", "<a><c/></a>", "<a><b/><c>y</c></a>"])
            .unwrap();
        let expr = |t: usize, i: usize| QUERIES[(t + i) % QUERIES.len()];
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let db = &db;
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        db.query_xpath(expr(t, i)).unwrap();
                    }
                });
            }
        });
        let got = db.take_workload_profile();
        let mut expect = WorkloadProfile::new();
        for t in 0..THREADS {
            for i in 0..PER_THREAD {
                let out = db.query_xpath_full(expr(t, i)).unwrap();
                expect.record(&out.classes, out.docs.len() as u64, 0);
            }
        }
        let counts = |w: &WorkloadProfile| {
            let classes: Vec<_> = w.iter().map(|(c, s)| (c, s.queries, s.results)).collect();
            (w.queries(), w.unclassified(), classes)
        };
        assert_eq!(counts(&got), counts(&expect));
        assert_eq!(got.queries(), (THREADS * PER_THREAD) as u64);
        // the replay went into the fresh epoch take() started
        assert_eq!(counts(&db.workload_profile()), counts(&expect));
    }
}
