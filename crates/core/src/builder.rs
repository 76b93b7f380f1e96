//! [`DatabaseBuilder`]: configuration, the one parse → route → index build
//! path, and the per-shard index build that compaction replays.

use crate::shard::{shard_of, split_corpus, Shard};
use crate::update::UpdateGauges;
use crate::{
    Corpus, Database, DocId, Error, Event, EventJournal, IndexTelemetry, MetricsRegistry, PathId,
    PathTable, PlanOptions, Pool, PoolTelemetry, ProbabilityModel, Strategy, SymbolTable,
    TraceConfig, ValueMode, WeightMap, XmlError, XmlIndex,
};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use xseq_schema::WorkloadRecorder;
use xseq_telemetry::Tracer;

/// Which sequencing strategy the database uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sequencing {
    /// Canonical depth-first (ViST's ordering).
    DepthFirst,
    /// The paper's performance-oriented `g_best`: probability-ordered
    /// constraint sequences, with probabilities estimated by sampling.
    Probability,
}

/// Builder for a [`Database`].
#[derive(Debug)]
pub struct DatabaseBuilder {
    sequencing: Sequencing,
    value_mode: ValueMode,
    boosts: Vec<(String, f64)>,
    registry: Arc<MetricsRegistry>,
    trace: Option<TraceConfig>,
    spot_check_rate: f64,
    threads: usize,
    shards: usize,
    memtable_limit: usize,
    tier_ratio: usize,
    profiling: bool,
}

/// Flight-recorder events [`Database::events`] retains.  The journal is
/// always on and holds milestones only (builds, merges, compactions, slow
/// queries), so this only trades memory for history depth.
const EVENT_CAPACITY: usize = 256;

/// The build-time configuration a [`Database`] retains so
/// [`Database::compact`] can replay the exact original build pipeline over
/// the surviving documents.
#[derive(Debug, Clone)]
pub(crate) struct BuildConfig {
    pub(crate) sequencing: Sequencing,
    pub(crate) boosts: Vec<(String, f64)>,
    pub(crate) memtable_limit: usize,
    pub(crate) tier_ratio: usize,
}

impl Default for DatabaseBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl DatabaseBuilder {
    /// A builder with the paper's defaults: probability sequencing, exact
    /// value interning.
    pub fn new() -> Self {
        DatabaseBuilder {
            sequencing: Sequencing::Probability,
            value_mode: ValueMode::Intern,
            boosts: Vec::new(),
            registry: Arc::new(MetricsRegistry::new()),
            trace: None,
            spot_check_rate: 0.0,
            threads: 1,
            shards: 0,
            memtable_limit: xseq_index::DEFAULT_MEMTABLE_LIMIT,
            tier_ratio: xseq_index::DEFAULT_TIER_RATIO,
            profiling: true,
        }
    }

    /// Enables or disables the workload profiler (on by default): every
    /// executed query is classified into its schema node classes `C` (the
    /// concrete data paths it searched), and per-class frequency, result
    /// cardinality and latency accumulate into
    /// [`Database::workload_profile`] — the observed input for deriving
    /// `w(C)` (Eq. 6) from live traffic instead of operator guesses.
    pub fn profiling(mut self, on: bool) -> Self {
        self.profiling = on;
        self
    }

    /// Caps how many sequences the tiered delta's raw memtable absorbs
    /// before it is cut into a frozen L0 run (default
    /// [`xseq_index::DEFAULT_MEMTABLE_LIMIT`], clamped to ≥ 1).  Smaller
    /// limits bound the youngest segment a query has to rebuild lazily;
    /// larger ones amortize the cut cost over more inserts.
    pub fn memtable_limit(mut self, limit: usize) -> Self {
        self.memtable_limit = limit.max(1);
        self
    }

    /// Sets the LSM size ratio of the tiered delta: when any tier
    /// accumulates this many runs they merge into a single run of the next
    /// tier (default [`xseq_index::DEFAULT_TIER_RATIO`], clamped to ≥ 2).
    /// Merges resolve tombstones as they fold runs together.
    pub fn tier_ratio(mut self, ratio: usize) -> Self {
        self.tier_ratio = ratio.max(2);
        self
    }

    /// Sets the worker count: the emission width of a build (each shard
    /// parses and interns serially, then fans the pure sequence emitter
    /// out; the sort and the freeze are serial too) and the width of
    /// [`Database::query_batch`].  1 (the default) runs everything in
    /// place with no thread traffic.
    ///
    /// The shard count follows the thread count unless
    /// [`DatabaseBuilder::shards`] pins it.  Shards build side by side,
    /// each on its `threads / shards` share of the workers; a shard's
    /// index is bit-identical to a single-threaded build over its
    /// documents at any thread count.  More shards partition the documents
    /// differently, so a database is answer-identical (not trie-identical)
    /// across shard counts.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Sets the number of independent index shards (0, the default, follows
    /// the thread count).  Documents are hash-routed to shards by id; each
    /// shard owns its own symbol/path tables, frozen trie, delta segment
    /// and tombstones, so shards share nothing on the hot path.  Every
    /// query runs one pipeline over the shards and k-way merges their
    /// sorted results — answers, aggregate stats and integrity verdicts
    /// are identical at any shard count over the same corpus.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// The effective shard count: an explicit [`DatabaseBuilder::shards`]
    /// wins, otherwise one shard per worker thread.
    fn resolved_shards(&self) -> usize {
        if self.shards == 0 {
            self.threads
        } else {
            self.shards
        }
    }

    /// Enables sampled post-query integrity spot checks: after roughly
    /// `rate` of all queries (deterministic fixed-point sampling, no RNG)
    /// the index's structural invariants are re-verified and the report
    /// lands in [`QueryOutcome::integrity`](crate::QueryOutcome::integrity)
    /// — rendered by [`QueryOutcome::explain`](crate::QueryOutcome::explain).
    /// Off by default (`rate = 0.0`); the spot check is the cheap
    /// structure-only pass, not the full per-sequence round-trip of
    /// [`Database::verify_integrity`].
    pub fn integrity_spot_check(mut self, rate: f64) -> Self {
        self.spot_check_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Enables per-query tracing with the given policy: every
    /// [`Database::query_xpath_full`] call builds its span tree
    /// ([`QueryOutcome::trace`](crate::QueryOutcome::trace)), and queries
    /// at or above [`TraceConfig::slow_threshold`] — the armed
    /// [slow-query threshold](Database::slow_query_threshold) — are kept
    /// in [`Database::slow_queries`].  Without this call queries run
    /// untraced, at zero tracing cost.
    pub fn trace_config(mut self, config: TraceConfig) -> Self {
        self.trace = Some(config);
        self
    }

    /// Shares an external registry (e.g. [`MetricsRegistry::global`])
    /// instead of the private one each builder creates.
    pub fn metrics_registry(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.registry = registry;
        self
    }

    /// Chooses the sequencing strategy.
    pub fn sequencing(mut self, s: Sequencing) -> Self {
        self.sequencing = s;
        self
    }

    /// Chooses how attribute/text values become designators.
    pub fn value_mode(mut self, m: ValueMode) -> Self {
        self.value_mode = m;
        self
    }

    /// Boosts the sequencing weight `w(C)` of the node addressed by a simple
    /// slash path (e.g. `"/site/item/location"`) — the paper's tunable
    /// mechanism for frequently queried, highly selective elements.
    ///
    /// `weight` must be finite and non-negative: the emitter orders nodes
    /// by `p(C|root) · w(C)`, and a NaN product has no place in that order.
    /// Anything else fails the build with [`Error::InvalidBoost`].
    pub fn boost(mut self, path: &str, weight: f64) -> Self {
        self.boosts.push((path.to_owned(), weight));
        self
    }

    /// Parses and indexes the given XML documents.
    ///
    /// Documents are hash-routed to shards by their would-be id **before**
    /// parsing, so each shard parses its own subset into its own interners
    /// — shards run side by side on the pool and share nothing.  Within a
    /// shard, parsing is one serial pass in document order at any thread
    /// count; on malformed input the error returned is the earliest failing
    /// document's in input order, at any thread and shard count.
    #[expect(clippy::indexing_slicing, reason = "shard_of(..) < nshards; one gid pushed per xml")]
    pub fn build_from_xml<'a>(
        self,
        xmls: impl IntoIterator<Item = &'a str>,
    ) -> Result<Database, Error> {
        let nshards = self.resolved_shards();
        let mut shard_xmls: Vec<Vec<&str>> = vec![Vec::new(); nshards];
        let mut doc_map = Vec::new();
        let mut global_ids: Vec<Vec<DocId>> = vec![Vec::new(); nshards];
        for (gid, xml) in xmls.into_iter().enumerate() {
            let s = shard_of(gid as DocId, nshards);
            doc_map.push((s as u32, shard_xmls[s].len() as DocId));
            global_ids[s].push(gid as DocId);
            shard_xmls[s].push(xml);
        }
        if doc_map.is_empty() {
            return Err(Error::EmptyDatabase);
        }
        // The routing loop grew these by doubling; they live as long as the
        // database does.
        doc_map.shrink_to_fit();
        global_ids.iter_mut().for_each(Vec::shrink_to_fit);
        let (mode, registry) = (self.value_mode, &self.registry);
        let tasks: Vec<_> = shard_xmls
            .iter()
            .map(|xmls| move || parse_shard(xmls, mode, registry))
            .collect();
        let mut corpora = Vec::with_capacity(nshards);
        let mut first_err: Option<(DocId, XmlError)> = None;
        for (r, gids) in Pool::new(self.threads)
            .run(tasks)
            .into_iter()
            .zip(&global_ids)
        {
            match r {
                Ok(corpus) => corpora.push(corpus),
                // Each shard reports its earliest failing document (its
                // subset is in document order), so the minimum over shards
                // is the earliest error in global document order — exactly
                // what a sequential parse of the whole input reports.
                Err((local, e)) => {
                    // the routing loop pushed one gid per xml
                    let gid = gids[local];
                    if first_err.as_ref().is_none_or(|(g, _)| gid < *g) {
                        first_err = Some((gid, e));
                    }
                }
            }
        }
        if let Some((_, e)) = first_err {
            return Err(e.into());
        }
        self.finish_build(corpora, doc_map, global_ids)
    }

    /// Indexes an already-built corpus.
    ///
    /// With more than one shard, the corpus is split by re-interning each
    /// document into its shard's fresh symbol/path tables (arena order is
    /// parse-encounter order, so stateful re-interning replays a
    /// from-scratch parse of the shard's subset exactly).
    pub fn build_from_corpus(self, corpus: Corpus) -> Result<Database, Error> {
        if corpus.is_empty() {
            return Err(Error::EmptyDatabase);
        }
        let nshards = self.resolved_shards();
        if nshards == 1 {
            // One shard holds every document under the tables it already
            // has: move the corpus in instead of re-interning a copy.
            let len = corpus.len();
            let doc_map = (0..len).map(|g| (0u32, g as DocId)).collect();
            let global_ids = vec![(0..len as DocId).collect()];
            return self.finish_build(vec![corpus], doc_map, global_ids);
        }
        let pool = Pool::new(self.threads);
        let (corpora, doc_map, global_ids) = split_corpus(&corpus, nshards, &pool);
        self.finish_build(corpora, doc_map, global_ids)
    }

    /// Builds one index per shard corpus — side by side on the pool, each
    /// through [`build_shard_index`] on its share of the workers — and
    /// assembles the [`Database`].
    fn finish_build(
        self,
        corpora: Vec<Corpus>,
        doc_map: Vec<(u32, DocId)>,
        global_ids: Vec<Vec<DocId>>,
    ) -> Result<Database, Error> {
        // The emitter orders nodes by `p · w`: keep any weight without a
        // place in that order (NaN, ±∞, negative) away from it.
        let mut boosts = self.boosts.iter();
        if let Some((path, w)) = boosts.find(|(_, w)| !(w.is_finite() && *w >= 0.0)) {
            return Err(Error::InvalidBoost {
                path: path.clone(),
                weight: w.to_string(),
            });
        }
        // Register every pipeline phase up front so a fresh database's
        // snapshot already lists them (at zero).
        let parse_hist = self.registry.histogram("query.parse");
        let pool_tel = PoolTelemetry::register(&self.registry);
        let config = BuildConfig {
            sequencing: self.sequencing,
            boosts: self.boosts,
            memtable_limit: self.memtable_limit,
            tier_ratio: self.tier_ratio,
        };
        let pool = Pool::new(self.threads);
        let nshards = corpora.len();
        let inner = shard_pool(self.threads, nshards);
        let (registry, config_ref) = (&self.registry, &config);
        let tasks: Vec<_> = corpora
            .into_iter()
            .map(|mut corpus| {
                move || {
                    let index = build_shard_index(config_ref, &mut corpus, registry, &inner);
                    (corpus, index)
                }
            })
            .collect();
        let shards: Vec<Shard> = pool
            .run(tasks)
            .into_iter()
            .zip(global_ids)
            .map(|((corpus, index), global_ids)| Shard {
                corpus,
                index,
                global_ids,
            })
            .collect();
        // Register the update-path phases up front too.
        let update_insert_hist = self.registry.histogram("update.insert");
        let update_remove_hist = self.registry.histogram("update.remove");
        let compact_hist = self.registry.histogram("index.compact");
        let merge_hist = self.registry.histogram("index.merge");
        let update_gauges = UpdateGauges::register(&self.registry, nshards);
        // Workload metrics are registered even when profiling is off, so a
        // snapshot always lists the family (at zero).
        let workload_queries = self.registry.counter("workload.queries");
        let workload_unclassified = self.registry.counter("workload.unclassified");
        let workload_classes = self.registry.gauge("workload.classes");
        // The flight recorder is always on; the slow-query threshold arms
        // from the trace config (and is runtime-tunable either way).
        let events = EventJournal::new(EVENT_CAPACITY);
        let slow_threshold_ns = self.trace.as_ref().map_or(u64::MAX, |c| {
            c.slow_threshold.as_nanos().min(u64::MAX as u128) as u64
        });
        events.record(
            Event::new("ingest.build")
                .attr("docs", doc_map.len() as u64)
                .attr(
                    "paths",
                    shards
                        .iter()
                        .map(|sh| sh.corpus.paths.len() as u64)
                        .sum::<u64>(),
                )
                .attr("threads", pool.threads() as u64)
                .attr("shards", nshards as u64),
        );
        Ok(Database {
            shards,
            doc_map,
            workload: self.profiling.then(WorkloadRecorder::new),
            workload_queries,
            workload_unclassified,
            workload_classes,
            registry: self.registry,
            parse_hist,
            pool_tel,
            tracer: self.trace.map(|c| Tracer::new(c.slow_capacity)),
            // 32.32 fixed point: `rate` of all queries fire the spot check.
            spot_step: (self.spot_check_rate * (1u64 << 32) as f64) as u64,
            spot_accum: AtomicU64::new(0),
            pool,
            config,
            update_insert_hist,
            update_remove_hist,
            compact_hist,
            merge_hist,
            update_gauges,
            events,
            slow_threshold_ns: AtomicU64::new(slow_threshold_ns),
        })
    }
}

/// The workers each of `nshards` shards gets when they build side by side
/// on a pool of `threads`.
#[expect(clippy::integer_division_remainder_used, reason = "nshards >= 1: a built shard count")]
pub(crate) fn shard_pool(threads: usize, nshards: usize) -> Pool {
    Pool::new(threads / nshards)
}

/// Parses one shard's documents, serially and in order, into a fresh
/// corpus; on failure returns the failing document's position in `xmls`
/// with its error.
fn parse_shard(
    xmls: &[&str],
    mode: ValueMode,
    registry: &MetricsRegistry,
) -> Result<Corpus, (usize, XmlError)> {
    let mut corpus = Corpus::new(mode);
    corpus.attach_parse_histogram(registry.histogram("xml.parse"));
    for (i, xml) in xmls.iter().enumerate() {
        corpus.parse_and_push(xml).map_err(|e| (i, e))?;
    }
    Ok(corpus)
}

/// The one per-shard index build, shared by the initial build and
/// [`Database::compact`] — so a compacted shard is bit-identical to a fresh
/// build over its survivors.  Derives the sequencing strategy from the
/// corpus, then runs the index's one constructor on `pool` (bit-identical
/// at any width; a width-1 pool runs it in place).
/// Later inserts through `corpus` record `xml.parse` into `registry`.
pub(crate) fn build_shard_index(
    config: &BuildConfig,
    corpus: &mut Corpus,
    registry: &MetricsRegistry,
    pool: &Pool,
) -> XmlIndex {
    corpus.attach_parse_histogram(registry.histogram("xml.parse"));
    // The one interning pass, in document order: the estimate and the
    // constructor both read these encodings and neither encodes again.
    let enc: Vec<Vec<PathId>> = (corpus.docs.iter())
        .map(|doc| doc.path_encode(&mut corpus.paths))
        .collect();
    let strategy = match config.sequencing {
        Sequencing::DepthFirst => Strategy::DepthFirst,
        Sequencing::Probability => {
            // The estimator samples every document.
            let sample = corpus.docs.iter().zip(enc.iter().map(Vec::as_slice));
            let model = ProbabilityModel::estimate_encoded(sample, &corpus.paths);
            let mut weights = WeightMap::default();
            for (path, w) in &config.boosts {
                if let Some(p) = resolve_simple_path(path, &corpus.symbols, &corpus.paths) {
                    weights.set(p, *w);
                }
            }
            Strategy::Probability(model.priorities(&corpus.paths, &weights))
        }
    };
    let index = XmlIndex::build_encoded(
        &corpus.docs,
        &enc,
        strategy,
        PlanOptions::default(),
        Some(IndexTelemetry::register(registry)),
        pool,
    );
    index.configure_delta(config.memtable_limit, config.tier_ratio);
    corpus.shrink_to_fit();
    index
}

/// Resolves `/a/b/c` to an interned path id, if every step exists.
fn resolve_simple_path(path: &str, symbols: &SymbolTable, paths: &PathTable) -> Option<PathId> {
    let steps = path.split('/').filter(|s| !s.is_empty());
    let syms: Option<Vec<_>> = steps
        .map(|s| symbols.lookup_designator(s).map(xseq_xml::Symbol::elem))
        .collect();
    paths.lookup(&syms?)
}

#[cfg(test)]
mod tests {
    use crate::*;

    #[test]
    fn quickstart_flow() {
        let db = DatabaseBuilder::new()
            .build_from_xml([
                "<project><research><loc>newyork</loc></research></project>",
                "<project><develop><loc>boston</loc></develop></project>",
            ])
            .unwrap();
        assert_eq!(db.len(), 2);
        assert_eq!(
            db.query_xpath("/project//loc[text='boston']").unwrap(),
            vec![1]
        );
        assert_eq!(db.query_xpath("//loc").unwrap(), vec![0, 1]);
        assert_eq!(db.query_xpath("/project/research").unwrap(), vec![0]);
    }

    #[test]
    fn depth_first_database() {
        let db = DatabaseBuilder::new()
            .sequencing(Sequencing::DepthFirst)
            .build_from_xml(["<a><b/></a>", "<a><c/></a>"])
            .unwrap();
        assert_eq!(db.query_xpath("/a/b").unwrap(), vec![0]);
    }

    #[test]
    fn empty_database_is_an_error() {
        assert_eq!(
            DatabaseBuilder::new().build_from_xml([]).err(),
            Some(Error::EmptyDatabase)
        );
    }

    #[test]
    fn bad_xml_and_bad_query_errors() {
        let err = DatabaseBuilder::new().build_from_xml(["<a>"]).unwrap_err();
        assert!(matches!(err, Error::Xml(_)));
        let db = DatabaseBuilder::new().build_from_xml(["<a/>"]).unwrap();
        assert!(matches!(db.query_xpath("a"), Err(Error::Query(_))));
    }

    #[test]
    fn boost_changes_sequences_not_answers() {
        let xmls = ["<p><a><x/></a><b/></p>", "<p><a/><b/></p>", "<p><b/></p>"];
        let plain = DatabaseBuilder::new().build_from_xml(xmls).unwrap();
        let boosted = DatabaseBuilder::new()
            .boost("/p/a/x", 100.0)
            .build_from_xml(xmls)
            .unwrap();
        for q in ["/p/a", "/p/b", "/p/a/x", "//x"] {
            assert_eq!(
                plain.query_xpath(q).unwrap(),
                boosted.query_xpath(q).unwrap(),
                "{q}"
            );
        }
    }

    #[test]
    fn a_boost_weight_outside_the_total_order_is_a_typed_error() {
        for (w, text) in [
            (f64::NAN, "NaN"),
            (f64::INFINITY, "inf"),
            (f64::NEG_INFINITY, "-inf"),
            (-2.0, "-2"),
        ] {
            let want = Error::InvalidBoost {
                path: "/p/a".into(),
                weight: text.into(),
            };
            let builder = || DatabaseBuilder::new().boost("/p/b", 0.0).boost("/p/a", w);
            assert_eq!(
                builder().build_from_xml(["<p><a/></p>"]).err(),
                Some(want.clone())
            );
            let mut corpus = Corpus::new(ValueMode::Intern);
            corpus.parse_and_push("<p><a/></p>").unwrap();
            assert_eq!(
                builder().build_from_corpus(corpus).err(),
                Some(want.clone())
            );
            assert!(want.to_string().contains(text), "{want}");
        }
    }

    #[test]
    fn shared_registry_across_databases() {
        let reg = std::sync::Arc::new(MetricsRegistry::new());
        let db1 = DatabaseBuilder::new()
            .metrics_registry(reg.clone())
            .build_from_xml(["<a><b/></a>"])
            .unwrap();
        let db2 = DatabaseBuilder::new()
            .metrics_registry(reg.clone())
            .build_from_xml(["<a><c/></a>"])
            .unwrap();
        db1.query_xpath("/a/b").unwrap();
        db2.query_xpath("/a/c").unwrap();
        assert_eq!(reg.snapshot().histogram("index.search").unwrap().count, 2);
    }

    #[test]
    fn hashed_value_mode() {
        let db = DatabaseBuilder::new()
            .value_mode(ValueMode::Hashed { range: 64 })
            .build_from_xml(["<a><l>boston</l></a>", "<a><l>newyork</l></a>"])
            .unwrap();
        let hits = db.query_xpath("/a/l[text='boston']").unwrap();
        // hashed designators may collide, but boston's own document is
        // always included
        assert!(hits.contains(&0));
    }
}
