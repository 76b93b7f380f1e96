//! # xseq — sequence-based XML indexing via constraint sequences
//!
//! A from-scratch implementation of Wang & Meng, *On the Sequencing of Tree
//! Structures for XML Indexing* (ICDE 2005): XML documents and queries are
//! transformed into **constraint sequences** of path-encoded nodes, and
//! structured queries are answered *holistically* through constraint
//! subsequence matching — no join operations, no per-document
//! post-processing, no false alarms:
//!
//! ```text
//! Tree Pattern ⇒ P(Doc Ids)
//! ```
//!
//! ## Quick start
//!
//! ```
//! use xseq::{Database, DatabaseBuilder, Sequencing};
//!
//! let mut db = DatabaseBuilder::new()
//!     .sequencing(Sequencing::Probability) // the paper's g_best
//!     .build_from_xml([
//!         "<project><research><loc>newyork</loc></research></project>",
//!         "<project><develop><loc>boston</loc></develop></project>",
//!     ])
//!     .unwrap();
//!
//! let hits = db.query_xpath("/project//loc[text='boston']").unwrap();
//! assert_eq!(hits, vec![1]);
//! ```
//!
//! ## Crate map
//!
//! * [`xml`] — documents, parsing, designators, path encoding, patterns,
//!   the XPath-subset parser ([`parse_xpath_readonly`]), the brute-force
//!   ground-truth matcher.
//! * [`sequence`] — constraints (`f1`, forward prefix `f2`), the Theorem 1
//!   decoder, sequencing strategies (DF/BF/Random/probability-ordered)
//!   behind one pure emitter, and (as [`schema`]) the occurrence
//!   probabilities `p(C|root)` (estimated or declared) and query-tuning
//!   weights `w(C)` the probability order is built from (Eq. 6).
//! * [`index`] — the trie + path-link index and its one constructor
//!   (interning pass, emission, freeze), the order-free
//!   `tree_search` every query runs, wildcard planning, the tiered update
//!   overlay (a run is its trie).
//! * [`storage`] — 4 KiB pages, buffer pool, the disk layout (`TrieView`
//!   over pages) used for the I/O experiments.
//! * [`telemetry`] — lock-free counters/gauges/latency histograms, the
//!   named [`MetricsRegistry`] behind [`Database::metrics`], and the
//!   snapshot exporters (`to_json`, `render_table`).
//! * [`baselines`] — DataGuide-, XISS- and ViST-style comparators, and the
//!   paper's ordered matchers: Algorithm 1, naïve matching and the
//!   isomorphic query expansion they need.
//! * [`datagen`] — deterministic synthetic / DBLP-like / XMark-like
//!   workload generators and the paper's query sets.
//!
//! Beside the builder, the query path, shards and updates, this crate holds
//! the worker pool (the private `exec` module), the only place the library
//! starts threads, and the [`WorkloadProfile`] queries record into.
//!
//! ## Observability
//!
//! Every database owns a [`MetricsRegistry`]; each [`Database::query_xpath`]
//! records per-phase latency (`query.parse`, `index.plan`, `index.search`)
//! and work counters, document ingestion records `xml.parse` and
//! `sequence.encode`, and paged storage mirrors its page traffic into
//! `storage.pool.*`.  [`Database::metrics`] returns a [`Snapshot`].
//!
//! Each phase is timed once, into the [`QueryOutcome`] the query returns:
//! one [`QueryStep`](index::QueryStep) per parse, plan, overlay view,
//! segment descent and gather, summed into [`QueryStats`] along
//! with the wall time.  The histograms, [`QueryOutcome::explain`] (whose
//! rows, `unattributed` included, sum to the wall time) and — with
//! [`DatabaseBuilder::trace_config`] — the query's [`Trace`] all read that
//! one record; the trace is built from it after the query finishes.

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

pub use xseq_baselines as baselines;
pub use xseq_datagen as datagen;
pub use xseq_index as index;
pub use xseq_sequence as sequence;
pub use xseq_sequence::schema;
pub use xseq_storage as storage;
pub use xseq_telemetry as telemetry;
pub use xseq_xml as xml;

mod builder;
mod diag;
mod exec;
mod query_path;
mod shard;
mod stats;
mod tests;
mod update;
mod workload;

pub use builder::{DatabaseBuilder, Sequencing};
pub use diag::DiagnosticsReport;
pub use stats::{DatabaseStats, MemoryStats, ShardStats};
pub use update::CompactionReport;
pub use workload::{ClassStats, WorkloadProfile};

pub use xseq_index::{
    DeltaView, IndexStats, IndexTelemetry, IntegrityReport, InvariantClass, MergeOutcome,
    PlanOptions, QueryOutcome, QueryStats, SearchStats, SegmentStats, TieredDelta, Violation,
    XmlIndex,
};
pub use xseq_sequence::{PriorityMap, ProbabilityModel, SchemaTree, Sequence, Strategy, WeightMap};
pub use xseq_storage::{BufferPool, PagedTrie, PoolStats, PoolTelemetry};
pub use xseq_telemetry::{
    Event, EventJournal, HeapSize, MetricsRegistry, Severity, Snapshot, Trace, TraceConfig,
    TraceId, TraceSpan,
};
pub use xseq_xml::{
    parse_xpath_readonly, Axis, Corpus, DocId, Document, ParseError, PathColumn, PathId, PathTable,
    PatternLabel, SymbolTable, TreePattern, ValueMode, XmlError,
};

use builder::BuildConfig;
use exec::Pool;
use shard::Shard;
use std::fmt;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use update::UpdateGauges;
use xseq_telemetry::{Histogram, Tracer};

/// Unified error type for the high-level API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// XML parsing failed.
    Xml(XmlError),
    /// Query parsing failed.
    Query(ParseError),
    /// The database has no documents.
    EmptyDatabase,
    /// The query has more wildcard assignments than
    /// [`PlanOptions::max_assignments`] allows, so its answer would miss
    /// documents.  [`XmlIndex::query`] and [`Database::query_pattern`]
    /// return such partial answers with [`QueryStats::plan_truncated`] set.
    PlanTruncated {
        /// The cap the plan passed.
        cap: usize,
    },
    /// A [`DatabaseBuilder::boost`] weight that is not a finite,
    /// non-negative number (kept as text, so the error stays `Eq`).
    InvalidBoost {
        /// The boosted path, as given.
        path: String,
        /// The rejected weight.
        weight: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Xml(e) => write!(f, "xml: {e}"),
            Error::Query(e) => write!(f, "query: {e}"),
            Error::EmptyDatabase => write!(f, "no documents to index"),
            Error::PlanTruncated { cap } => write!(f, "plan truncated: over {cap} assignments"),
            Error::InvalidBoost { path, weight } => {
                write!(
                    f,
                    "boost {path}: weight {weight} is not finite and non-negative"
                )
            }
        }
    }
}

impl std::error::Error for Error {}

impl From<XmlError> for Error {
    fn from(e: XmlError) -> Self {
        Error::Xml(e)
    }
}

impl From<ParseError> for Error {
    fn from(e: ParseError) -> Self {
        Error::Query(e)
    }
}

/// A corpus plus its constraint-sequence index: the top-level handle.
///
/// A database is **N ≥ 1 independent shards**
/// ([`DatabaseBuilder::shards`], default = thread count): documents take
/// the shards in turn by id (document `g` is shard `g mod N`'s local
/// document `g / N`), each shard owns its own symbol/path tables, frozen
/// trie, delta segment and tombstones, and every query runs one pipeline
/// over the shards and merges their sorted results.  Doc ids are dense
/// and independent of the shard count.
///
/// A built database is `Send + Sync` and all query entry points take
/// `&self`: queries never intern (symbols absent from a shard's tables
/// prove the query empty *for that shard*), so any number of threads may
/// share one database — [`Database::query_batch`] does exactly that on
/// the builder's pool.  Mutation ([`Database::insert_document`]) still
/// requires `&mut self`.
#[derive(Debug)]
pub struct Database {
    /// The index shards, each with its own corpus slice and interners.
    shards: Vec<Shard>,
    /// The live workload profile (`None` when
    /// [`DatabaseBuilder::profiling`] is off): per schema node class,
    /// query frequency, result cardinality and latency.  Queries record
    /// into it through `&self`, holding the lock for one `record` call.
    workload: Option<Mutex<WorkloadProfile>>,
    registry: Arc<MetricsRegistry>,
    parse_hist: Arc<Histogram>,
    /// Registry handles for `storage.pool.*`, read by
    /// [`DatabaseStats::pool`].
    pool_tel: PoolTelemetry,
    /// The slow-query log's owner; `None` when tracing is off.
    tracer: Option<Tracer>,
    /// Per-query increment of the 32.32 fixed-point sampling accumulator;
    /// 0 disables the spot check entirely.
    spot_step: u64,
    spot_accum: AtomicU64,
    /// Worker pool for batch queries (and the ingest that built this
    /// database), sized by [`DatabaseBuilder::threads`].
    pool: Pool,
    /// Retained build configuration; [`Database::compact`] replays it.
    config: BuildConfig,
    /// `update.insert` — per-document delta-insert latency.
    update_insert_hist: Arc<Histogram>,
    /// `update.remove` — tombstone-recording latency.
    update_remove_hist: Arc<Histogram>,
    /// `index.compact` — full compaction latency.
    compact_hist: Arc<Histogram>,
    /// `index.merge` — per-tier-merge latency (its own family, so merge
    /// time never double-counts under `index.compact`).
    merge_hist: Arc<Histogram>,
    /// The overlay occupancy gauges (`index.delta.*`, `index.tombstones`).
    update_gauges: UpdateGauges,
    /// The flight recorder: a bounded journal of severity-levelled
    /// lifecycle events (always on).
    events: EventJournal,
    /// Queries at least this slow record a `query.slow` event and, when
    /// tracing is on, enter the slow-query log; `u64::MAX` disables the
    /// check.  The one "slow" cell: armed from
    /// [`TraceConfig::slow_threshold`], runtime-tunable through
    /// [`Database::set_slow_query_threshold`].
    slow_threshold_ns: AtomicU64,
}

// Compile-time guarantee behind the concurrency model: one frozen database
// — and each index in it, overlay included — is shareable across threads
// as-is.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Database>();
    assert_send_sync::<XmlIndex>();
};

impl Database {
    /// The first shard: builders reject empty corpora, so a database always
    /// holds at least one.
    #[expect(clippy::indexing_slicing, reason = "builders reject empty corpora")]
    fn shard0(&self) -> &Shard {
        &self.shards[0]
    }

    /// A point-in-time snapshot of every pipeline metric: the `xml.parse`,
    /// `sequence.encode`, `query.parse`, `index.plan`, `index.search` and
    /// `storage.pool.*` phases plus the matcher work counters.
    pub fn metrics(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// The registry behind [`Database::metrics`], shareable with pools and
    /// external reporting (see [`DatabaseBuilder::metrics_registry`]).
    pub fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// `storage.pool.*` counter handles, for attaching to a
    /// [`BufferPool`] or [`PagedTrie`] serving this database's index.
    pub fn pool_telemetry(&self) -> PoolTelemetry {
        PoolTelemetry::register(&self.registry)
    }

    /// The underlying index — shard 0's.  With `shards(1)` this is the
    /// whole database's index; with more, use [`Database::shard_index`] to
    /// reach the others.
    pub fn index(&self) -> &XmlIndex {
        &self.shard0().index
    }

    /// Shard 0's corpus: its symbol and path tables.  With `shards(1)`
    /// these are the whole database's tables; its symbol tables are the
    /// binding context for [`Database::query_pattern`] patterns.  Its
    /// `docs` list is empty — a shard keeps its documents as a
    /// [`PathColumn`] — so read a document through [`Database::document`].
    pub fn corpus(&self) -> &Corpus {
        &self.shard0().corpus
    }

    /// Mutable access to shard 0's corpus, e.g. for interning query
    /// symbols when hand-building a [`TreePattern`].
    #[expect(clippy::indexing_slicing, reason = "`shards` is never empty (see `shard0`)")]
    pub fn corpus_mut(&mut self) -> &mut Corpus {
        &mut self.shards[0].corpus
    }

    /// Number of shards the documents are partitioned across.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard `s`'s index.
    ///
    /// # Panics
    /// Panics if `s` is not below [`Database::shard_count`].
    #[expect(clippy::indexing_slicing, reason = "`s < shard_count()` is documented")]
    pub fn shard_index(&self, s: usize) -> &XmlIndex {
        &self.shards[s].index
    }

    /// Number of indexed documents, removed ones included until a
    /// compaction drops them.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|sh| sh.docs.len()).sum()
    }

    /// Document `id`, decoded from its shard's path column against the
    /// shard's path table ([`Document::from_path_encoding`]): its labels
    /// are that shard's symbols — [`Database::corpus`]'s at `shards(1)` —
    /// and its arena is in preorder.  `None` for an id past the end or a
    /// removed document.
    pub fn document(&self, id: DocId) -> Option<Document> {
        let (s, local) = shard::route(id, self.shards.len());
        let sh = self.shards.get(s)?;
        (!sh.index.tombstones().contains(local)).then(|| sh.document(local))?
    }

    /// True when the database holds no documents.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
