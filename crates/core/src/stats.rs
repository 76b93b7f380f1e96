//! [`Database::stats`]: the database-wide observability report — index
//! shape, modelled heap attribution, pool counters and the workload profile
//! (DESIGN.md §12).

use crate::{Database, HeapSize, PoolStats, WorkloadProfile};
use std::fmt::Write as _;
use std::sync::{MutexGuard, PoisonError};

/// Modelled heap attribution of one database ([`Database::stats`]): bytes
/// per component under the [`HeapSize`] accounting rules (capacity-based,
/// validated against a counting allocator within 5%).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Corpus heap: interners (names, values, paths) plus the documents'
    /// path column.
    pub corpus_bytes: usize,
    /// Index heap: both trie segments, tombstones, the wildcard dictionary
    /// and the strategy's priority tables.
    pub index_bytes: usize,
}

impl MemoryStats {
    /// Total modelled footprint — the `memory.total.bytes` gauge.
    pub fn total_bytes(&self) -> usize {
        self.corpus_bytes + self.index_bytes
    }
}

/// One shard's slice of a [`DatabaseStats`] report.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Documents routed to this shard (tombstoned ids included until
    /// compaction).
    pub docs: usize,
    /// Paths interned by this shard's own table, counting ε.
    pub paths: usize,
    /// The shard's index shape report.
    pub index: xseq_index::IndexStats,
    /// The shard's modelled heap attribution.
    pub memory: MemoryStats,
}

/// The database-wide observability report of [`Database::stats`].
#[derive(Debug, Clone)]
pub struct DatabaseStats {
    /// Indexed documents (tombstoned ids included until compaction).
    pub docs: usize,
    /// Interned designator paths, counting ε — summed over shard tables,
    /// so shared prefixes count once per shard that interned them.
    pub paths: usize,
    /// Deep index shape statistics (frozen ∪ delta walk), aggregated over
    /// every shard.
    pub index: xseq_index::IndexStats,
    /// Modelled heap attribution per component, summed over shards.
    pub memory: MemoryStats,
    /// Cumulative `storage.pool.*` counters from the registry.
    pub pool: PoolStats,
    /// Snapshot of the workload profile (empty when profiling is off).
    pub workload: WorkloadProfile,
    /// Per-shard breakdown (one entry for a single-shard database).
    pub shards: Vec<ShardStats>,
}

impl DatabaseStats {
    /// Renders the full report as an indented text block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "database: {} docs | {} paths | {} shard(s)",
            self.docs,
            self.paths,
            self.shards.len()
        );
        out.push_str(&self.index.render());
        if self.shards.len() > 1 {
            for (i, sh) in self.shards.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "  shard {i}: {} docs | {} paths | frozen {} seq | delta {} seq | tombstones {} | {} B",
                    sh.docs,
                    sh.paths,
                    sh.index.frozen.sequences,
                    sh.index.delta.sequences,
                    sh.index.tombstones,
                    sh.memory.total_bytes()
                );
            }
        }
        let _ = writeln!(
            out,
            "  memory: corpus {} B + index {} B = {} B",
            self.memory.corpus_bytes,
            self.memory.index_bytes,
            self.memory.total_bytes()
        );
        let _ = writeln!(
            out,
            "  pool: {} hits, {} misses, {} evictions",
            self.pool.hits, self.pool.misses, self.pool.evictions
        );
        let _ = writeln!(
            out,
            "  workload: {} queries over {} classes ({} unclassified)",
            self.workload.queries(),
            self.workload.len(),
            self.workload.unclassified()
        );
        out
    }
}

impl Database {
    /// A snapshot of the accumulated workload profile: per-class query
    /// frequency, result cardinality and latency for every schema node
    /// class touched so far — the Eq. 6 input for deriving `w(C)` from
    /// live traffic.  Empty when the builder disabled
    /// [`DatabaseBuilder::profiling`](crate::DatabaseBuilder::profiling).
    ///
    /// Class ids are exact only at
    /// [`shards(1)`](crate::DatabaseBuilder::shards): above that, each
    /// shard files a query under its own path table's ids, and the gather
    /// unions ids from unrelated tables, so one id may name different
    /// paths on different shards.
    pub fn workload_profile(&self) -> WorkloadProfile {
        self.profile().map(|p| p.clone()).unwrap_or_default()
    }

    /// Hands off the accumulated profile and starts a fresh epoch (e.g.
    /// feed the returned profile to a re-sequencing pass while new traffic
    /// accumulates separately).  Empty when profiling is off; class ids
    /// are exact only at one shard, as for [`Database::workload_profile`].
    pub fn take_workload_profile(&self) -> WorkloadProfile {
        self.profile()
            .map(|mut p| std::mem::take(&mut *p))
            .unwrap_or_default()
    }

    /// The live profile, locked; `None` when profiling is off.  A poisoned
    /// lock still guards sound data (plain counters), so it is recovered.
    pub(crate) fn profile(&self) -> Option<MutexGuard<'_, WorkloadProfile>> {
        let profile = self.workload.as_ref()?;
        Some(profile.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// The database-wide observability report: deep index shape statistics
    /// (a read-only walk over frozen ∪ delta), modelled heap attribution,
    /// cumulative pool counters and the current workload profile.
    ///
    /// As a side effect the `memory.corpus.bytes`, `memory.index.bytes`
    /// and `memory.total.bytes` gauges are refreshed, so a metrics
    /// snapshot taken after `stats()` carries the attribution too.
    pub fn stats(&self) -> DatabaseStats {
        let shards: Vec<ShardStats> = self
            .shards
            .iter()
            .map(|sh| ShardStats {
                docs: sh.docs.len(),
                paths: sh.corpus.paths.len(),
                index: sh.index.stats(),
                memory: MemoryStats {
                    corpus_bytes: sh.corpus.heap_bytes() + sh.docs.heap_bytes(),
                    index_bytes: sh.index.heap_bytes(),
                },
            })
            .collect();
        let mut shard_iter = shards.iter();
        let mut index = shard_iter
            .next()
            .map(|sh| sh.index.clone())
            .unwrap_or_default();
        for sh in shard_iter {
            index.merge(&sh.index);
        }
        let memory = MemoryStats {
            corpus_bytes: shards.iter().map(|s| s.memory.corpus_bytes).sum(),
            index_bytes: shards.iter().map(|s| s.memory.index_bytes).sum(),
        };
        self.registry
            .gauge("memory.corpus.bytes")
            .set(memory.corpus_bytes as i64);
        self.registry
            .gauge("memory.index.bytes")
            .set(memory.index_bytes as i64);
        self.registry
            .gauge("memory.total.bytes")
            .set(memory.total_bytes() as i64);
        DatabaseStats {
            docs: self.len(),
            paths: shards.iter().map(|s| s.paths).sum(),
            index,
            memory,
            pool: PoolStats {
                hits: self.pool_tel.hits.get(),
                misses: self.pool_tel.misses.get(),
                evictions: self.pool_tel.evictions.get(),
            },
            workload: self.workload_profile(),
            shards,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::*;

    /// The scripted history: a mix of classified hits, a provably-empty
    /// query (no classes → unclassified), and repeats.
    const WORKLOAD_SCRIPT: [&str; 6] = [
        "/project//loc",
        "/project/research",
        "/project//loc",
        "/nosuchroot",
        "//loc[text='boston']",
        "/project/research/loc",
    ];

    fn workload_db() -> Database {
        DatabaseBuilder::new()
            .build_from_xml([
                "<project><research><loc>newyork</loc></research></project>",
                "<project><develop><loc>boston</loc></develop></project>",
                "<project><research><loc>boston</loc><fund/></research></project>",
            ])
            .unwrap()
    }

    #[test]
    fn workload_profile_is_reproduced_by_replaying_the_history() {
        let db = workload_db();
        // replay: rebuild the profile from the outcomes themselves
        let mut replay = WorkloadProfile::new();
        for expr in WORKLOAD_SCRIPT {
            let out = db.query_xpath_full(expr).unwrap();
            replay.record(&out.classes, out.docs.len() as u64, 1);
        }
        let live = db.workload_profile();
        // Latency is wall time (nondeterministic); every other field of the
        // profile must match the replay exactly.
        assert_eq!(live.queries(), replay.queries());
        assert_eq!(live.queries(), WORKLOAD_SCRIPT.len() as u64);
        assert_eq!(live.unclassified(), replay.unclassified());
        assert!(live.unclassified() >= 1, "/nosuchroot is unclassified");
        assert_eq!(live.len(), replay.len());
        assert!(live.len() >= 2, "research and loc classes are distinct");
        for (class, stats) in replay.iter() {
            let l = live.class(class).expect("replayed class exists live");
            assert_eq!(l.queries, stats.queries, "class {class:?} frequency");
            assert_eq!(l.results, stats.results, "class {class:?} cardinality");
            assert!(l.latency_ns > 0, "live profile carries wall time");
            assert_eq!(live.frequency(class), replay.frequency(class));
        }
    }

    #[test]
    fn profiling_off_keeps_the_family_at_zero() {
        let db = DatabaseBuilder::new()
            .profiling(false)
            .build_from_xml(["<a><b/></a>"])
            .unwrap();
        db.query_xpath("/a/b").unwrap();
        assert!(db.workload_profile().is_empty());
        assert_eq!(db.workload_profile().queries(), 0);
        assert_eq!(db.take_workload_profile(), WorkloadProfile::new());
        // the profile is the only record: no metric mirrors it
        assert!(!db.metrics().has_prefix("workload"));
    }

    #[test]
    fn take_workload_profile_starts_a_fresh_epoch() {
        let db = workload_db();
        db.query_xpath("/project//loc").unwrap();
        let epoch1 = db.take_workload_profile();
        assert_eq!(epoch1.queries(), 1);
        assert!(db.workload_profile().is_empty());
        db.query_xpath("/project/research").unwrap();
        assert_eq!(db.workload_profile().queries(), 1);
    }

    #[test]
    fn explain_carries_the_stats_tail() {
        let db = workload_db();
        let out = db.query_xpath_full("/project//loc").unwrap();
        let text = out.explain();
        assert!(text.contains("stats:"), "missing stats tail: {text}");
        assert!(text.contains("results 3"), "cardinality in tail: {text}");
        assert!(text.contains("classes ["), "class ids in tail: {text}");
        assert!(
            text.contains("descents/variant ["),
            "descent counts in tail: {text}"
        );
        assert!(!out.classes.is_empty());
        assert!(out.steps.iter().any(|s| s.search.candidates > 0));
    }

    #[test]
    fn stats_report_shape_memory_and_workload() {
        let db = workload_db();
        db.query_xpath("/project//loc").unwrap();
        let stats = db.stats();
        assert_eq!(stats.docs, 3);
        assert!(stats.paths >= 5, "ε, project, research, develop, loc, …");
        assert!(stats.index.frozen.nodes > 0);
        assert_eq!(stats.index.frozen.sequences, 3);
        assert!(stats.memory.corpus_bytes > 0);
        assert!(stats.memory.index_bytes > 0);
        assert_eq!(
            stats.memory.total_bytes(),
            stats.memory.corpus_bytes + stats.memory.index_bytes
        );
        assert_eq!(stats.workload.queries(), 1);
        // stats() refreshed the memory gauges
        let snap = db.metrics();
        assert_eq!(
            snap.gauge("memory.corpus.bytes"),
            Some(stats.memory.corpus_bytes as i64)
        );
        assert_eq!(
            snap.gauge("memory.index.bytes"),
            Some(stats.memory.index_bytes as i64)
        );
        assert_eq!(
            snap.gauge("memory.total.bytes"),
            Some(stats.memory.total_bytes() as i64)
        );
        let text = stats.render();
        for needle in [
            "database: 3 docs",
            "memory:",
            "pool:",
            "workload: 1 queries",
        ] {
            assert!(text.contains(needle), "render misses {needle:?}:\n{text}");
        }
    }

    #[test]
    fn stats_see_the_delta_overlay() {
        let mut db = workload_db();
        db.insert_document("<project><audit/></project>").unwrap();
        db.remove_document(0);
        let stats = db.stats();
        assert_eq!(stats.index.delta.sequences, 1);
        assert_eq!(stats.index.tombstones, 1);
        db.compact();
        let stats = db.stats();
        assert_eq!(stats.index.delta.sequences, 0);
        assert_eq!(stats.index.tombstones, 0);
        assert_eq!(stats.docs, 3);
    }
}
