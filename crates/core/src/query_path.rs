//! The query path: one pipeline for any shard count, traced or not
//! (DESIGN.md §10.3, §15.2), plus the integrity checks and the tracing /
//! slow-query surface that ride on it.

use crate::shard::{gather, rebind_pattern};
use crate::{
    index::SearchScratch,
    telemetry::{AttrValue::*, SpanId},
    Database, DocId, Error, Event, IntegrityReport, QueryOutcome, Severity, Trace, TraceSpan,
    TreePattern,
};
use std::cell::RefCell;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A trace keeps the spans of at most this many variants per shard — a
/// variant's frozen `trie.descent` opens it, its overlay descents follow —
/// and the rest are counted in the root's `untraced_variants` attribute, so
/// a pathological wildcard query cannot balloon its own trace.
const TRACE_VARIANT_CAP: usize = 32;

thread_local! {
    /// The scratch single queries on this thread reuse, so a query starts
    /// with warm buffers and its answer bitmap already sized.
    static SCRATCH: RefCell<SearchScratch> = RefCell::new(SearchScratch::new());
}

/// Runs `f` with this thread's [`SearchScratch`], or with a fresh one when
/// that is already borrowed (a query started inside another on this
/// thread).
fn with_scratch<R>(f: impl FnOnce(&mut SearchScratch) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut warm) => f(&mut warm),
        Err(_) => f(&mut SearchScratch::new()),
    })
}

impl Database {
    /// Answers an XPath-subset query with document ids.
    pub fn query_xpath(&self, expr: &str) -> Result<Vec<DocId>, Error> {
        Ok(self.query_xpath_full(expr)?.docs)
    }

    /// Like [`Database::query_xpath`] but returns the work counters too —
    /// and, when the database was built with
    /// [`DatabaseBuilder::trace_config`](crate::DatabaseBuilder::trace_config),
    /// the query's span tree in [`QueryOutcome::trace`].
    pub fn query_xpath_full(&self, expr: &str) -> Result<QueryOutcome, Error> {
        with_scratch(|scratch| self.query_xpath_ctx(expr, scratch))
    }

    /// One query against a caller-owned [`SearchScratch`] (scratch reuse):
    /// the thread's own for a single query, one per worker for a batch.
    /// When anything reads the wall time — the workload profiler, the
    /// slow-query threshold, the tracer — it is measured once, around the
    /// whole parse → plan → search → gather pipeline, into
    /// [`QueryStats::total_ns`]: the profiler files the executed query
    /// under the concrete data paths the search descended
    /// ([`QueryOutcome::classes`]), and the trace is built from the
    /// finished outcome.
    ///
    /// [`QueryStats::total_ns`]: crate::QueryStats::total_ns
    fn query_xpath_ctx(
        &self,
        expr: &str,
        scratch: &mut SearchScratch,
    ) -> Result<QueryOutcome, Error> {
        // ORDERING: config — advisory read; no memory is published through it.
        let slow_ns = self.slow_threshold_ns.load(Ordering::Relaxed);
        if self.workload.is_none() && slow_ns == u64::MAX && self.tracer.is_none() {
            return self.run_query(expr, scratch);
        }
        let t0 = Instant::now();
        let answered = self.run_query(expr, scratch);
        let total_ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let slow = total_ns >= slow_ns;
        let trace = self.trace_query(expr, (t0, total_ns), slow, answered.as_ref());
        let mut out = answered?;
        out.stats.total_ns = total_ns;
        out.trace = trace;
        if let Some(mut profile) = self.profile() {
            profile.record(&out.classes, out.docs.len() as u64, total_ns);
        }
        if slow {
            self.events.record(
                Event::new("query.slow")
                    .severity(Severity::Warn)
                    .message(expr)
                    .attr("total_ns", total_ns)
                    .attr("docs", out.docs.len() as u64),
            );
        }
        Ok(out)
    }

    /// The query pipeline: every shard
    /// [`answer`](crate::shard::Shard::answer)s in turn, on the caller's
    /// thread and scratch, then [`gather`] and the spot check.  Shard count
    /// and tracing are data here, not control flow, and a query is one
    /// thread's work: its parallelism is the batch ([`Database::query_batch`]).
    /// A plan cut short on any shard fails the query
    /// ([`Error::PlanTruncated`]) rather than answer it in part.
    fn run_query(&self, expr: &str, scratch: &mut SearchScratch) -> Result<QueryOutcome, Error> {
        let answers: Result<Vec<QueryOutcome>, _> = self
            .shards
            .iter()
            .map(|sh| sh.answer(expr, scratch, &self.parse_hist))
            .collect();
        let mut out = gather(answers?);
        if out.stats.plan_truncated > 0 {
            let cap = self.index().options().max_assignments;
            return Err(Error::PlanTruncated { cap });
        }
        self.maybe_spot_check(&mut out);
        Ok(out)
    }

    /// Turns a finished query's record into its trace (DESIGN.md §8) when
    /// tracing is on, and hands it to the tracer, which retains it when the
    /// query was `slow`.  Each step of the outcome is one span under the
    /// root, at its real offset from `t0`, the query's start; a descent's
    /// matcher counters become three zero-length events at its end.  The
    /// root spans the wall time `total_ns` and names what its children
    /// leave of it (`unattributed_ns`, which past the variant cap includes
    /// the untraced descents), so the trace reconciles on its own.  A
    /// failed query still records its trace — the time was spent, and a
    /// slow failure is still a slow query.
    fn trace_query(
        &self,
        expr: &str,
        (t0, total_ns): (Instant, u64),
        slow: bool,
        answered: Result<&QueryOutcome, &Error>,
    ) -> Option<Arc<Trace>> {
        let tracer = self.tracer.as_ref()?;
        let span = |name, parent, (start_ns, end_ns), attrs| TraceSpan {
            name,
            parent,
            start_ns,
            end_ns,
            attrs,
        };
        let root = |attrs| span("query", None, (0, total_ns), attrs);
        let out = match answered {
            Ok(out) => out,
            Err(e) => {
                let error = vec![("error", e.to_string().into())];
                return Some(tracer.record(expr, root(error), Vec::new(), slow));
            }
        };
        let plan = self.index().options().describe();
        let (mut spans, mut variants, mut untraced) = (Vec::new(), 0, 0u64);
        let mut traced_ns = 0;
        for step in &out.steps {
            // Each shard's steps open with its parse.
            match step.phase {
                "query.parse" => variants = 0,
                "trie.descent" => variants += 1,
                _ => {}
            }
            let descent = step.phase.starts_with("trie.descent");
            if variants > TRACE_VARIANT_CAP && descent {
                untraced += u64::from(step.phase == "trie.descent");
                continue;
            }
            let start_ns = step.start.duration_since(t0).as_nanos() as u64;
            let at = (start_ns, start_ns + step.ns);
            let s = &step.search;
            let attrs = match (step.phase, step.count) {
                ("query.parse", 0) => vec![("unknown_symbol", U64(1))],
                ("query.parse", n) => vec![("pattern_nodes", U64(n))],
                ("index.plan", n) => vec![("instantiations", U64(n)), ("plan", Str(plan.clone()))],
                ("index.gather", n) => vec![("docs", U64(n))],
                (_, n) if descent => vec![("candidates", U64(s.candidates)), ("docs", U64(n))],
                _ => Vec::new(),
            };
            let id = SpanId(1 + spans.len() as u32);
            spans.push(span(step.phase, Some(SpanId(0)), at, attrs));
            traced_ns += step.ns;
            if descent {
                let end = (at.1, at.1);
                let event = |name, key, n| span(name, Some(id), end, vec![(key, U64(n))]);
                let (rejections, probes) = (s.cover_rejections, s.link_probes);
                spans.extend([
                    event("search.sibling_cover_checks", "rejections", rejections),
                    event("search.link_probes", "count", probes),
                    event("search.completions", "count", s.completions),
                ]);
            }
        }
        let st = &out.stats;
        let mut attrs = vec![
            // 0 on every answered query: a truncated plan fails it
            ("plan_truncated", U64(st.plan_truncated)),
            ("docs", U64(out.docs.len() as u64)),
            ("candidates", U64(st.search.candidates)),
            ("unattributed_ns", U64(total_ns.saturating_sub(traced_ns))),
        ];
        if untraced > 0 {
            attrs.push(("untraced_variants", U64(untraced)));
        }
        if let Some(report) = &out.integrity {
            attrs.push(("integrity", report.summary().into()));
        }
        Some(tracer.record(expr, root(attrs), spans, slow))
    }

    /// Answers many XPath queries on the builder's worker pool, returning
    /// one result per expression in input order.  Equivalent to (and, on a
    /// sequential pool, literally) a serial `query_xpath` loop; workers
    /// (the caller among them) share the database read-only, claim one
    /// expression at a time and each reuses one [`SearchScratch`] for every
    /// expression it claims, across queries and across shards.
    pub fn query_batch(&self, exprs: &[&str]) -> Vec<Result<Vec<DocId>, Error>> {
        self.pool
            .map_with(exprs, SearchScratch::new, |scratch, expr| {
                Ok(self.query_xpath_ctx(expr, scratch)?.docs)
            })
    }

    /// Answers a pre-built tree pattern.  The pattern's labels are bound
    /// to shard 0's symbol tables (see [`Database::corpus_mut`]); each
    /// shard re-binds them to its own interners, and a shard lacking any
    /// label provably matches nothing and is skipped.
    pub fn query_pattern(&self, pattern: &TreePattern) -> QueryOutcome {
        let from = &self.corpus().symbols;
        with_scratch(|scratch| {
            gather(self.shards.iter().filter_map(|sh| {
                let local = rebind_pattern(pattern, from, &sh.corpus.symbols)?;
                Some(sh.search(&local, scratch))
            }))
        })
    }

    /// Fires the sampled post-query integrity spot check when the
    /// fixed-point accumulator crosses an integer boundary (exactly `rate`
    /// of all queries, deterministically — concurrent queries each claim a
    /// disjoint accumulator window, so the rate holds under sharing too).
    fn maybe_spot_check(&self, out: &mut QueryOutcome) {
        if self.spot_step == 0 {
            return;
        }
        // ORDERING: sample — a pure sampling accumulator; each query claims
        // its window with the RMW alone and no other memory is published
        // through it.
        let prev = self.spot_accum.fetch_add(self.spot_step, Ordering::Relaxed);
        if (prev.wrapping_add(self.spot_step) >> 32) != (prev >> 32) {
            // The cheap structure-only pass over every shard, merged.
            let mut report = IntegrityReport::default();
            for sh in &self.shards {
                report.merge(sh.index.verify_structure());
            }
            self.record_integrity_violation(&report);
            out.integrity = Some(report);
        }
    }

    /// Flight-records an `integrity.violation` event when a verification
    /// report is not clean (shared by the spot check and the full pass).
    fn record_integrity_violation(&self, report: &IntegrityReport) {
        if report.is_clean() {
            return;
        }
        self.events.record(
            Event::new("integrity.violation")
                .severity(Severity::Error)
                .message(report.summary())
                .attr("violations", report.violations.len() as u64),
        );
    }

    /// Full integrity verification of the index: preorder-label nesting and
    /// subtree extents, path-link order and coverage, sibling-cover
    /// bookkeeping, the end-node registry, and every distinct stored
    /// constraint sequence's `f2` validity (Eq. 3) and Theorem 1 round-trip.
    ///
    /// Exhaustive — intended for `repro --verify`, tests, and offline
    /// checks, not the query hot path (see
    /// [`DatabaseBuilder::integrity_spot_check`](crate::DatabaseBuilder::integrity_spot_check)
    /// for the sampled in-band variant).
    pub fn verify_integrity(&self) -> IntegrityReport {
        let mut report = IntegrityReport::default();
        for sh in &self.shards {
            report.merge(sh.index.verify_integrity(&sh.corpus.paths));
        }
        self.record_integrity_violation(&report);
        report
    }

    /// The slow-query log: every query whose wall time met the
    /// [slow-query threshold](Database::slow_query_threshold), oldest
    /// first, each with its full span tree, the serialized query expression
    /// (the trace name), and the query's totals (documents, candidates,
    /// unattributed time) as root-span attributes.  Empty when tracing is
    /// off.
    pub fn slow_queries(&self) -> Vec<Arc<Trace>> {
        self.tracer
            .as_ref()
            .map_or_else(Vec::new, |t| t.slow_queries())
    }

    /// Runtime-tunes the slow-query threshold: any query at least this
    /// slow records a `query.slow` flight-recorder event and, when tracing
    /// is on, lands in the slow-query log — both read this one cell, armed
    /// from [`TraceConfig::slow_threshold`](crate::TraceConfig::slow_threshold).
    /// Works with or without tracing (untraced databases start disarmed);
    /// the change itself is recorded as a `config.slow_query_threshold`
    /// event.
    pub fn set_slow_query_threshold(&self, threshold: Duration) {
        let ns = threshold.as_nanos().min(u64::MAX as u128) as u64;
        // ORDERING: config — advisory value read per query; no memory is
        // published through it.
        self.slow_threshold_ns.store(ns, Ordering::Relaxed);
        self.events
            .record(Event::new("config.slow_query_threshold").attr("threshold_ns", ns));
    }

    /// The current slow-query threshold, or `None` when disarmed (the
    /// default for untraced databases).
    pub fn slow_query_threshold(&self) -> Option<Duration> {
        // ORDERING: config — advisory read.
        let ns = self.slow_threshold_ns.load(Ordering::Relaxed);
        (ns != u64::MAX).then(|| Duration::from_nanos(ns))
    }
}

#[cfg(test)]
mod tests {
    use crate::*;
    use xseq_index::SearchScratch;

    #[test]
    fn gather_sums_plan_truncation_across_shards() {
        let shard = |truncated: u64| {
            let mut out = QueryOutcome::default();
            out.stats.plan_truncated = truncated;
            out
        };
        let out = crate::shard::gather([shard(1), shard(0), shard(1)]);
        assert_eq!(out.stats.plan_truncated, 2);
        assert!(out.explain().contains("plan TRUNCATED"));
    }

    #[test]
    fn metrics_contain_every_pipeline_phase() {
        let db = DatabaseBuilder::new()
            .build_from_xml(["<a><b>x</b></a>", "<a><c/></a>"])
            .unwrap();
        db.query_xpath("/a/b").unwrap();
        let snap = db.metrics();
        for phase in [
            "xml.parse",
            "sequence.encode",
            "query.parse",
            "index.plan",
            "index.search",
            "storage.pool",
        ] {
            assert!(snap.has_prefix(phase), "missing phase {phase}");
        }
        // ingestion and the query each left latency samples behind
        assert_eq!(snap.histogram("xml.parse").unwrap().count, 2);
        assert_eq!(snap.histogram("query.parse").unwrap().count, 1);
        assert_eq!(snap.histogram("index.plan").unwrap().count, 1);
        assert_eq!(snap.histogram("index.search").unwrap().count, 1);
        // sequence.encode sampled at build (2 docs), never at query
        assert_eq!(snap.histogram("sequence.encode").unwrap().count, 2);
        assert!(snap.counter("index.search.candidates") > 0);
    }

    #[test]
    fn query_phases_accumulate_and_delta() {
        let mut db = DatabaseBuilder::new()
            .build_from_xml(["<a><b/></a>"])
            .unwrap();
        let before = db.metrics();
        db.query_xpath("/a/b").unwrap();
        db.query_xpath("//b").unwrap();
        let delta = db.metrics().delta(&before);
        assert_eq!(delta.histogram("index.search").unwrap().count, 2);
        assert_eq!(delta.histogram("query.parse").unwrap().count, 2);
        // insert_document keeps recording xml.parse through the same histogram
        db.insert_document("<a><c/></a>").unwrap();
        assert_eq!(db.metrics().histogram("xml.parse").unwrap().count, 2);
    }

    #[test]
    fn pool_telemetry_reaches_database_registry() {
        use xseq_storage::{write_paged_trie, MemStore, PagedTrie};
        let db = DatabaseBuilder::new()
            .build_from_xml(["<a><b/></a>", "<a><c/></a>"])
            .unwrap();
        let mut store = MemStore::new();
        write_paged_trie(db.index().trie(), &mut store).unwrap();
        let paged = PagedTrie::open(store, 4).unwrap();
        paged.attach_pool_telemetry(db.pool_telemetry());
        let (corpus, index) = (db.corpus(), db.index());
        let pattern = parse_xpath_readonly("/a/b", &corpus.symbols)
            .unwrap()
            .expect("a and b are indexed");
        for qdoc in
            xseq_index::instantiate(&pattern, &corpus.paths, index.data_paths(), index.options())
        {
            let qs = xseq_index::QuerySequence::from_document_readonly(
                &qdoc,
                &corpus.paths,
                index.strategy(),
            )
            .expect("instantiated paths are in the table");
            let _ = xseq_index::tree_search(&paged, &qs);
        }
        let snap = db.metrics();
        assert!(snap.counter("storage.pool.misses") > 0);
        let st = paged.pool_stats();
        assert_eq!(
            st.hits + st.misses,
            snap.counter("storage.pool.hits") + snap.counter("storage.pool.misses")
        );
        assert!(st.hit_ratio().is_some());
    }

    #[test]
    fn traced_query_lands_in_slow_log() {
        let db = DatabaseBuilder::new()
            .trace_config(TraceConfig {
                slow_threshold: std::time::Duration::ZERO,
                slow_capacity: 8,
            })
            .build_from_xml(["<a><b>x</b></a>", "<a><c/></a>"])
            .unwrap();
        let out = db.query_xpath_full("/a/b").unwrap();
        let trace = out.trace.clone().expect("tracing is on");
        assert!(trace.slow);
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name).collect();
        for n in [
            "query",
            "query.parse",
            "index.plan",
            "trie.descent",
            "search.link_probes",
            "index.gather",
        ] {
            assert!(names.contains(&n), "{n} missing from {names:?}");
        }
        // every child is bracketed by its parent
        for s in &trace.spans {
            if let Some(p) = s.parent {
                let parent = trace.span(p);
                assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
            }
        }
        let slow = db.slow_queries();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].name, "/a/b", "serialized query retained");
        assert_eq!(slow[0].id, trace.id);
        let json = slow[0].to_chrome_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
    }

    #[test]
    fn overlay_snapshot_time_is_attributed() {
        let mut db = DatabaseBuilder::new()
            .trace_config(TraceConfig::default())
            .build_from_xml(["<a><b/></a>"])
            .unwrap();
        db.insert_document("<a><b/><c/></a>").unwrap();
        // The first query after a write re-freezes the memtable view.
        let out = db.query_xpath_full("/a/b").unwrap();
        assert_eq!(out.docs, vec![0, 1]);
        assert!(out.stats.view_ns > 0, "{:?}", out.stats);
        let trace = out.trace.as_ref().expect("tracing is on");
        let view = trace.spans.iter().find(|s| s.name == "delta.view");
        let view = view.expect("delta.view span");
        assert_eq!(view.parent, Some(telemetry::SpanId(0)), "under the root");
        assert!(out.explain().contains("  delta.view "), "{}", out.explain());
    }

    /// A descent's matcher counters ride on its span as zero-length child
    /// events at the descent's end.
    #[test]
    fn events_are_zero_length_children() {
        let db = DatabaseBuilder::new()
            .trace_config(TraceConfig::default())
            .build_from_xml(["<a><b>x</b></a>", "<a><b/></a>"])
            .unwrap();
        let out = db.query_xpath_full("/a/b").unwrap();
        let trace = out.trace.expect("tracing is on");
        let descent = trace.spans.iter().position(|s| s.name == "trie.descent");
        let descent = telemetry::SpanId(descent.expect("one descent") as u32);
        let parent = trace.span(descent);
        let events: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.parent == Some(descent))
            .collect();
        let names: Vec<&str> = events.iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            [
                "search.sibling_cover_checks",
                "search.link_probes",
                "search.completions"
            ]
        );
        for e in events {
            assert_eq!((e.start_ns, e.end_ns), (parent.end_ns, parent.end_ns));
        }
        let probes = &trace.spans[descent.0 as usize + 2];
        let count = telemetry::AttrValue::U64(out.stats.search.link_probes);
        assert_eq!(probes.attrs, vec![("count", count)]);
    }

    /// The variants past the trace's cap are counted, not traced.
    /// `//*//*` over a 40-deep chain has 780 assignments, inside the plan's
    /// cap of 4096.
    #[test]
    fn trace_counts_the_variants_past_its_cap() {
        let chain = format!("{}{}", "<a>".repeat(40), "</a>".repeat(40));
        let db = DatabaseBuilder::new()
            .trace_config(TraceConfig::default())
            .build_from_xml([chain.as_str(), "<a/>"])
            .unwrap();
        let root_attr = |out: &QueryOutcome, key: &str| {
            let trace = out.trace.as_ref().expect("tracing is on");
            let attr = trace.root().attrs.iter().find(|(k, _)| *k == key);
            attr.map(|(_, v)| v.clone())
        };
        let flag = |n: u64| Some(telemetry::AttrValue::U64(n));
        let out = db.query_xpath_full("//*//*").unwrap();
        assert_eq!(out.stats.instantiations, 780, "one per pair of chain nodes");
        assert_eq!(root_attr(&out, "plan_truncated"), flag(0));
        let untraced = out.stats.instantiations - 32;
        assert_eq!(root_attr(&out, "untraced_variants"), flag(untraced));
        let trace = out.trace.as_ref().unwrap();
        let descents = trace.spans.iter().filter(|s| s.name == "trie.descent");
        assert_eq!(descents.count(), 32, "the variant cap");
        let out = db.query_xpath_full("/a/a").unwrap();
        assert_eq!(root_attr(&out, "untraced_variants"), None);
    }

    /// A plan past its cap fails the query at every entry point, traced or
    /// not, and the failure's trace names the cause.  `//*//*` over a
    /// 100-deep chain has 4950 assignments, past the default cap of 4096.
    #[test]
    fn truncated_plan_is_visible_in_the_trace() {
        let chain = format!("{}{}", "<a>".repeat(100), "</a>".repeat(100));
        let xml = [chain.as_str(), "<a/>"];
        let cause = Error::PlanTruncated { cap: 4096 };
        let truncated = Err(cause.clone());
        let traced = DatabaseBuilder::new()
            .trace_config(TraceConfig {
                slow_threshold: std::time::Duration::ZERO,
                slow_capacity: 4,
            })
            .build_from_xml(xml)
            .unwrap();
        assert_eq!(traced.query_xpath_full("//*//*").map(|_| ()), truncated);
        let slow = traced.slow_queries();
        assert_eq!(slow.len(), 1);
        let error = slow[0].root().attrs.iter().find(|(k, _)| *k == "error");
        assert_eq!(
            error.map(|(_, v)| v.clone()),
            Some(cause.to_string().into())
        );
        assert_eq!(
            traced.workload_profile(),
            WorkloadProfile::new(),
            "not profiled"
        );
        let untraced = DatabaseBuilder::new().build_from_xml(xml).unwrap();
        assert_eq!(untraced.query_xpath("//*//*").map(|_| ()), truncated);
        assert_eq!(untraced.query_batch(&["//*//*"]), vec![Err(cause)]);
        // The pattern entry point answers in part and says so.
        let pattern = parse_xpath_readonly("//*//*", &untraced.corpus().symbols);
        let out = untraced.query_pattern(&pattern.unwrap().expect("a is indexed"));
        assert_eq!(out.stats.plan_truncated, 1);
        assert!(out.explain().contains("plan TRUNCATED"));
    }

    #[test]
    fn untraced_database_has_no_tracing_surface() {
        let db = DatabaseBuilder::new().build_from_xml(["<a/>"]).unwrap();
        let out = db.query_xpath_full("/a").unwrap();
        assert!(out.trace.is_none());
        assert!(db.slow_queries().is_empty());
    }

    #[test]
    fn failed_parse_still_traces() {
        let db = DatabaseBuilder::new()
            .trace_config(TraceConfig {
                slow_threshold: std::time::Duration::ZERO,
                slow_capacity: 4,
            })
            .build_from_xml(["<a/>"])
            .unwrap();
        assert!(db.query_xpath("not an xpath").is_err());
        let slow = db.slow_queries();
        assert_eq!(slow.len(), 1);
        assert!(slow[0].root().attrs.iter().any(|(k, _)| *k == "error"));
    }

    #[test]
    fn verify_integrity_is_clean_for_built_databases() {
        // Single document, then a few more — both strategies.
        for seq in [Sequencing::DepthFirst, Sequencing::Probability] {
            let mut db = DatabaseBuilder::new()
                .sequencing(seq)
                .build_from_xml(["<a><b>x</b></a>"])
                .unwrap();
            let report = db.verify_integrity();
            assert!(report.is_clean(), "{seq:?} single doc: {}", report.render());
            db.insert_document("<a><c/><c><d/></c></a>").unwrap();
            db.insert_document("<a><b>y</b><c/></a>").unwrap();
            let report = db.verify_integrity();
            assert!(report.is_clean(), "{seq:?} grown: {}", report.render());
            assert!(report.sequences_checked >= 2);
        }
    }

    #[test]
    fn spot_check_fires_at_the_configured_rate() {
        let db = DatabaseBuilder::new()
            .integrity_spot_check(0.5)
            .build_from_xml(["<a><b/></a>"])
            .unwrap();
        let mut fired = 0;
        for _ in 0..10 {
            let out = db.query_xpath_full("/a/b").unwrap();
            if let Some(report) = &out.integrity {
                assert!(report.is_clean(), "{}", report.render());
                assert!(out.explain().contains("integrity: clean"));
                fired += 1;
            }
        }
        assert_eq!(fired, 5, "fixed-point sampling is exact");
    }

    #[test]
    fn spot_check_is_off_by_default() {
        let db = DatabaseBuilder::new().build_from_xml(["<a/>"]).unwrap();
        for _ in 0..5 {
            assert!(db.query_xpath_full("/a").unwrap().integrity.is_none());
        }
    }

    #[test]
    fn spot_check_reaches_traced_queries() {
        let db = DatabaseBuilder::new()
            .integrity_spot_check(1.0)
            .trace_config(TraceConfig {
                slow_threshold: std::time::Duration::ZERO,
                slow_capacity: 4,
            })
            .build_from_xml(["<a><b/></a>"])
            .unwrap();
        let out = db.query_xpath_full("/a/b").unwrap();
        assert!(out.integrity.as_ref().is_some_and(|r| r.is_clean()));
        let trace = out.trace.expect("tracing is on");
        assert!(
            trace.root().attrs.iter().any(|(k, _)| *k == "integrity"),
            "spot-check summary lands on the trace root"
        );
    }

    #[test]
    fn batch_worker_context_reaches_every_shard() {
        let xmls: Vec<String> = (0..30).map(|i| format!("<a><b/><c{i}/></a>")).collect();
        let db = DatabaseBuilder::new()
            .threads(2)
            .shards(3)
            .build_from_xml(xmls.iter().map(String::as_str))
            .unwrap();
        // What a `query_batch` worker does per expression: its own scratch
        // goes down the shard walk, warm at the second and third shard and
        // at the next expression, and answers as a cold one does.
        let mut scratch = SearchScratch::new();
        let out = db.query_xpath_ctx("/a/b", &mut scratch).unwrap();
        assert_eq!(out.docs.len(), 30);
        let again = db.query_xpath_ctx("/a/b", &mut scratch).unwrap();
        let cold = db.query_xpath_ctx("/a/b", &mut SearchScratch::new());
        let cold = cold.unwrap();
        assert_eq!(
            (&again.docs, again.stats.search),
            (&cold.docs, cold.stats.search)
        );
        assert_eq!(again.docs, out.docs);
        // …and the batch over real workers answers like the serial loop.
        for docs in db.query_batch(&["/a/b"; 8]) {
            assert_eq!(docs.unwrap(), out.docs);
        }
    }

    #[test]
    fn readonly_query_sees_names_interned_by_insert() {
        let mut db = DatabaseBuilder::new()
            .build_from_xml(["<a><b/></a>"])
            .unwrap();
        // "z" is unknown: the read-only parse proves the query empty.
        assert_eq!(db.query_xpath("/a/z").unwrap(), Vec::<DocId>::new());
        // Inserting a document interns "z" into the merged symbol view;
        // queries (still read-only) now resolve it.
        let id = db.insert_document("<a><z/></a>").unwrap();
        assert_eq!(db.query_xpath("/a/z").unwrap(), vec![id]);
    }
}
