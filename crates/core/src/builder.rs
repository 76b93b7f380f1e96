//! [`DatabaseBuilder`]: configuration and the one parse → route → index
//! build path, which compaction runs over the survivors.

use crate::exec::Pool;
use crate::shard::{route, split_corpus, Shard};
use crate::update::UpdateGauges;
use crate::{
    Corpus, Database, DocId, Document, Error, Event, EventJournal, IndexTelemetry, MetricsRegistry,
    PathColumn, PathId, PathTable, PlanOptions, PoolTelemetry, ProbabilityModel, Strategy,
    SymbolTable, TraceConfig, ValueMode, WeightMap, XmlError, XmlIndex,
};
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
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

    /// Sets the worker count: how many shards parse and build at once, and
    /// the width of [`Database::query_batch`].  A shard's build is one
    /// thread's work (it parses, interns, emits, sorts and freezes
    /// serially, in document order), and so is a single query (it answers
    /// the shards in turn).  1 (the default) runs everything in place with
    /// no thread traffic.
    ///
    /// The shard count follows the thread count unless
    /// [`DatabaseBuilder::shards`] pins it.  More shards partition the
    /// documents differently, so a database is answer-identical (not
    /// trie-identical) across shard counts; at a fixed shard count its
    /// tries are identical at any thread count.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Sets the number of independent index shards (0, the default, follows
    /// the thread count).  Documents take the shards in turn by id; each
    /// shard owns its own symbol/path tables, frozen trie, delta segment
    /// and tombstones, so shards share nothing and build side by side on
    /// the pool: a shard is the unit of parallel parsing and building.  A
    /// query answers the shards in turn on its own thread and merges their
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
    /// Documents are routed to shards by their would-be id **before**
    /// parsing, so each shard parses its own subset into its own interners
    /// — shards run side by side on the pool and share nothing.  A shard
    /// parses and builds in one serial pass in document order at any
    /// thread count; on malformed input the error returned is the earliest
    /// failing document's in input order, at any thread and shard count.
    #[expect(clippy::indexing_slicing, reason = "route(..) is below nshards")]
    pub fn build_from_xml<'a>(
        self,
        xmls: impl IntoIterator<Item = &'a str>,
    ) -> Result<Database, Error> {
        let nshards = self.resolved_shards();
        let mut shard_xmls: Vec<Vec<&str>> = vec![Vec::new(); nshards];
        for (gid, xml) in xmls.into_iter().enumerate() {
            shard_xmls[route(gid as DocId, nshards).0].push(xml);
        }
        if shard_xmls.iter().all(Vec::is_empty) {
            return Err(Error::EmptyDatabase);
        }
        let (mode, registry) = (self.value_mode, &self.registry);
        let tasks: Vec<_> = shard_xmls
            .iter()
            .map(|xmls| move || parse_shard(xmls, mode, registry))
            .collect();
        let mut corpora = Vec::with_capacity(nshards);
        let mut first_err: Option<(DocId, XmlError)> = None;
        for (s, r) in Pool::new(self.threads).run(tasks).into_iter().enumerate() {
            match r {
                Ok(corpus) => corpora.push(corpus),
                // Each shard reports its earliest failing document (its
                // subset is in document order), so the minimum over shards
                // is the earliest error in global document order — exactly
                // what a sequential parse of the whole input reports.
                Err((local, e)) => {
                    let gid = (local * nshards + s) as DocId;
                    if first_err.as_ref().is_none_or(|(g, _)| gid < *g) {
                        first_err = Some((gid, e));
                    }
                }
            }
        }
        if let Some((_, e)) = first_err {
            return Err(e.into());
        }
        self.finish_build(corpora)
    }

    /// Indexes an already-built corpus.  Its documents may be in any
    /// parent-before-child arena order; one that is not in preorder is
    /// indexed, and kept, in its preorder layout
    /// ([`Document::into_preorder`]).
    ///
    /// With more than one shard, the corpus is split by re-interning each
    /// document into its shard's fresh symbol/path tables (arena order is
    /// parse-encounter order, so stateful re-interning replays a
    /// from-scratch parse of the shard's subset exactly); one shard takes
    /// the corpus as it is.
    pub fn build_from_corpus(self, mut corpus: Corpus) -> Result<Database, Error> {
        if corpus.is_empty() {
            return Err(Error::EmptyDatabase);
        }
        // A database keeps its documents as path encodings, which decode
        // to the preorder layout: a document in another parent-before-child
        // order is laid out in preorder once, here.
        corpus.docs = (corpus.docs.into_iter())
            .map(Document::into_preorder)
            .collect();
        let corpora = split_corpus(corpus, self.resolved_shards(), &Pool::new(self.threads));
        self.finish_build(corpora)
    }

    /// Builds the shards' indexes ([`build_shards`]) and assembles the
    /// [`Database`].
    fn finish_build(self, corpora: Vec<Corpus>) -> Result<Database, Error> {
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
        let shards = build_shards(&config, corpora, &self.registry, pool);
        // Register the update-path phases up front too.
        let update_insert_hist = self.registry.histogram("update.insert");
        let update_remove_hist = self.registry.histogram("update.remove");
        let compact_hist = self.registry.histogram("index.compact");
        let merge_hist = self.registry.histogram("index.merge");
        let update_gauges = UpdateGauges::register(&self.registry, nshards);
        // The flight recorder is always on; the slow-query threshold arms
        // from the trace config (and is runtime-tunable either way).
        let events = EventJournal::new(EVENT_CAPACITY);
        let slow_threshold_ns = self.trace.as_ref().map_or(u64::MAX, |c| {
            c.slow_threshold.as_nanos().min(u64::MAX as u128) as u64
        });
        events.record(
            Event::new("ingest.build")
                .attr(
                    "docs",
                    shards.iter().map(|sh| sh.docs.len() as u64).sum::<u64>(),
                )
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
            workload: self.profiling.then(Mutex::default),
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

/// The one build of every shard, shared by the initial build and
/// [`Database::compact`] — so a compacted database is bit-identical to a
/// fresh build over its survivors.  Shard `s` of `corpora` holds the
/// documents [`route`] sends there; the shards build side by side on
/// `pool`, each through [`build_shard_index`] on one thread.
pub(crate) fn build_shards(
    config: &BuildConfig,
    corpora: Vec<Corpus>,
    registry: &MetricsRegistry,
    pool: Pool,
) -> Vec<Shard> {
    let nshards = corpora.len();
    let tasks: Vec<_> = corpora
        .into_iter()
        .map(|mut corpus| {
            move || {
                let (docs, index) = build_shard_index(config, &mut corpus, registry);
                (corpus, docs, index)
            }
        })
        .collect();
    (pool.run(tasks).into_iter().enumerate())
        .map(|(s, (corpus, docs, index))| Shard {
            corpus,
            docs,
            index,
            first: s as DocId,
            stride: nshards as DocId,
        })
        .collect()
}

/// The one per-shard index build, run by [`build_shards`].  Derives the
/// sequencing strategy from the corpus, then runs the index's one
/// constructor, all on the calling thread.  Returns the documents as their
/// path column, and drops `corpus.docs`: the column is what the shard
/// keeps of them.  Later inserts through `corpus` record `xml.parse` into
/// `registry`.
fn build_shard_index(
    config: &BuildConfig,
    corpus: &mut Corpus,
    registry: &MetricsRegistry,
) -> (PathColumn, XmlIndex) {
    corpus.attach_parse_histogram(registry.histogram("xml.parse"));
    // The one interning pass, in document order, into one column: the
    // estimate and the constructor both read its slices and neither
    // encodes again.
    let mut enc = PathColumn::with_capacity(corpus.len(), corpus.total_nodes());
    for doc in &corpus.docs {
        enc.push(doc, &mut corpus.paths);
    }
    let strategy = match config.sequencing {
        Sequencing::DepthFirst => Strategy::DepthFirst,
        Sequencing::Probability => {
            // The estimator samples every document.
            let sample = corpus.docs.iter().zip(enc.iter());
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
    );
    index.configure_delta(config.memtable_limit, config.tier_ratio);
    // Dropped, not cleared: clearing would keep the list's allocation.
    corpus.docs = Vec::new();
    corpus.shrink_to_fit();
    (enc, index)
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
