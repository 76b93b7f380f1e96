//! Hierarchical per-operation tracing.
//!
//! Aggregate metrics ([`crate::MetricsRegistry`]) answer "how much work did
//! the pipeline do"; this module answers "where did *this* query's time
//! go".  A [`Trace`] is an immutable span tree: each [`TraceSpan`] is one
//! pipeline phase (parse → plan → trie descent → sibling-cover checks →
//! path-link binary searches → completion) at its offset from the
//! operation's start, with typed [`AttrValue`] attributes (candidate
//! counts, trie node ranges `(n⊢, n⊣)`, the chosen plan).  The operation
//! builds the tree from its own record *after* it finishes, so tracing
//! adds no clock reads and no work to the operation itself.
//!
//! [`Tracer::record`] mints the trace and retains it in two bounded logs
//! (latest N, oldest first):
//!
//! * **head sampling** — [`TraceConfig::sample_rate`] of traces, decided
//!   without looking at the trace, land in the *recent traces* log;
//! * **slow-query log** — traces at or above
//!   [`TraceConfig::slow_threshold`] are *always* retained, regardless of
//!   the sampling decision, so slow-query forensics never miss.
//!
//! Only a sampled or slow trace takes a log's lock, once, after its query
//! is done; reads ([`Tracer::slow_queries`], [`Tracer::recent_traces`])
//! are non-destructive.

use crate::retention::Retention;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Identifies one trace (one traced query/build operation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

/// Index of a span within its trace's span vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u32);

/// A typed span attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// An unsigned count (candidates, instantiations, serial numbers).
    U64(u64),
    /// A signed quantity.
    I64(i64),
    /// A ratio or rate.
    F64(f64),
    /// A label (strategy name, query text).
    Str(String),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_owned())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

/// One timed phase within a trace.
///
/// Start/end are nanoseconds relative to the trace start.  Spans are stored
/// in start order, a span's parent precedes it, and a parent's interval
/// brackets every child's.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// Phase name (`query.parse`, `index.plan`, `trie.descent`, …).
    pub name: &'static str,
    /// Parent span, `None` only for the root.
    pub parent: Option<SpanId>,
    /// Start offset from trace start, nanoseconds.
    pub start_ns: u64,
    /// End offset from trace start, nanoseconds.
    pub end_ns: u64,
    /// Typed attributes in insertion order.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl TraceSpan {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An immutable span tree for one finished operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Unique id within the owning [`Tracer`].
    pub id: TraceId,
    /// What was traced — for queries, the serialized query expression.
    pub name: String,
    /// Total wall time of the operation, nanoseconds.
    pub total_ns: u64,
    /// Whether head sampling selected this trace.
    pub sampled: bool,
    /// Whether the operation met [`TraceConfig::slow_threshold`].
    pub slow: bool,
    /// The span tree; `spans[0]` is the root, parents precede children.
    pub spans: Vec<TraceSpan>,
}

impl Trace {
    /// The root span.
    #[expect(clippy::indexing_slicing, reason = "every trace is minted with its root at index 0")]
    pub fn root(&self) -> &TraceSpan {
        &self.spans[0]
    }

    /// Looks up a span.
    #[expect(clippy::indexing_slicing, reason = "SpanIds are minted from spans.len()")]
    pub fn span(&self, id: SpanId) -> &TraceSpan {
        &self.spans[id.0 as usize]
    }

    /// Depth of a span (root = 0).
    #[expect(clippy::indexing_slicing, reason = "ids and recorded parents are minted SpanIds")]
    pub fn depth(&self, id: SpanId) -> usize {
        let mut d = 0;
        let mut cur = self.spans[id.0 as usize].parent;
        while let Some(p) = cur {
            d += 1;
            cur = self.spans[p.0 as usize].parent;
        }
        d
    }

    /// Serializes this trace in the Chrome trace-event JSON format, loadable
    /// in `chrome://tracing` and [Perfetto](https://ui.perfetto.dev).
    pub fn to_chrome_json(&self) -> String {
        crate::export::to_chrome_json(self)
    }

    /// Renders this trace as an indented text span tree.
    pub fn render(&self) -> String {
        crate::export::render_trace(self)
    }
}

/// Tracing policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Fraction of operations whose trace is kept in the recent-traces log
    /// (head sampling, blind to the trace's contents; clamped to `0.0..=1.0`).
    pub sample_rate: f64,
    /// Operations at or above this duration are always retained in the
    /// slow-query log, regardless of sampling.  `Duration::ZERO` retains
    /// everything.
    pub slow_threshold: Duration,
    /// Capacity of the recent-traces log.
    pub recent_capacity: usize,
    /// Capacity of the slow-query log.
    pub slow_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            sample_rate: 0.01,
            slow_threshold: Duration::from_millis(100),
            recent_capacity: 128,
            slow_capacity: 64,
        }
    }
}

/// Retention counters of a [`Tracer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TracerStats {
    /// Traces recorded.
    pub recorded: u64,
    /// Traces selected by head sampling.
    pub sampled: u64,
    /// Traces retained in the slow-query log.
    pub slow: u64,
}

/// The shared side of tracing: id allocation, the head-sampling decision,
/// and the two retention logs.
#[derive(Debug)]
pub struct Tracer {
    config: TraceConfig,
    /// Runtime-tunable slow threshold, nanoseconds; initialised from
    /// [`TraceConfig::slow_threshold`], updated by
    /// [`set_slow_threshold`](Self::set_slow_threshold).
    slow_threshold_ns: AtomicU64,
    next_id: AtomicU64,
    /// Fixed-point (32.32) sampling accumulator: each trace adds
    /// `rate · 2³²`; crossing an integer boundary selects the trace.
    sample_accum: AtomicU64,
    recorded: AtomicU64,
    sampled_count: AtomicU64,
    slow_count: AtomicU64,
    recent: Retention<Arc<Trace>>,
    slow: Retention<Arc<Trace>>,
}

impl Tracer {
    /// A tracer with the given policy.
    pub fn new(config: TraceConfig) -> Self {
        Tracer {
            slow_threshold_ns: AtomicU64::new(
                config.slow_threshold.as_nanos().min(u64::MAX as u128) as u64,
            ),
            next_id: AtomicU64::new(1),
            sample_accum: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            sampled_count: AtomicU64::new(0),
            slow_count: AtomicU64::new(0),
            recent: Retention::new(config.recent_capacity),
            slow: Retention::new(config.slow_capacity),
            config,
        }
    }

    /// The policy in effect.  `config().slow_threshold` is the build-time
    /// value; the live one is [`slow_threshold`](Self::slow_threshold).
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// The slow-query threshold currently in effect.
    pub fn slow_threshold(&self) -> Duration {
        // ORDERING: config — advisory configuration read; any recent value is fine.
        Duration::from_nanos(self.slow_threshold_ns.load(Ordering::Relaxed))
    }

    /// Retunes the slow-query threshold at runtime.  Takes effect for
    /// traces recorded after the store; concurrent `record` calls may use
    /// either value.
    pub fn set_slow_threshold(&self, threshold: Duration) {
        let ns = threshold.as_nanos().min(u64::MAX as u128) as u64;
        // ORDERING: config — tuning cell read/written independently of any
        // other state; no ordering with trace data is required.
        self.slow_threshold_ns.store(ns, Ordering::Relaxed);
    }

    /// Retention counters so far.
    pub fn stats(&self) -> TracerStats {
        TracerStats {
            // ORDERING: counter — advisory reads of independent retention counters
            recorded: self.recorded.load(Ordering::Relaxed),
            sampled: self.sampled_count.load(Ordering::Relaxed),
            slow: self.slow_count.load(Ordering::Relaxed),
        }
    }

    /// Deterministic head sampling: a 32.32 fixed-point accumulator selects
    /// exactly ⌈rate · n⌉ of any n consecutive traces, with no RNG.
    fn decide_sample(&self) -> bool {
        let rate = self.config.sample_rate.clamp(0.0, 1.0);
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        let step = (rate * (1u64 << 32) as f64) as u64;
        // ORDERING: sample — probabilistic accumulator, ordered with nothing
        let prev = self.sample_accum.fetch_add(step, Ordering::Relaxed);
        (prev.wrapping_add(step) >> 32) != (prev >> 32)
    }

    /// Mints a finished operation's trace and applies retention: slow
    /// traces always enter the slow-query log, head-sampled ones the recent
    /// log.  `root` spans the whole operation (its end is the wall time);
    /// `children` follow it in start order, their parents given as indices
    /// into `root` + `children` (the root is `SpanId(0)`).  Returns the
    /// trace either way, so the caller can attach it to its result.
    pub fn record(
        &self,
        name: impl Into<String>,
        root: TraceSpan,
        children: Vec<TraceSpan>,
    ) -> Arc<Trace> {
        // ORDERING: counter — retention counters are independent statistics.
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let sampled = self.decide_sample();
        if sampled {
            // ORDERING: counter — independent retention statistic.
            self.sampled_count.fetch_add(1, Ordering::Relaxed);
        }
        let total_ns = root.end_ns;
        let mut spans = Vec::with_capacity(1 + children.len());
        spans.push(root);
        spans.extend(children);
        let trace = Arc::new(Trace {
            // ORDERING: id — uniqueness needs only fetch_add atomicity.
            id: TraceId(self.next_id.fetch_add(1, Ordering::Relaxed)),
            name: name.into(),
            total_ns,
            sampled,
            slow: u128::from(total_ns) >= self.slow_threshold().as_nanos(),
            spans,
        });
        if trace.slow {
            // ORDERING: counter — independent retention statistic
            self.slow_count.fetch_add(1, Ordering::Relaxed);
            self.slow.push(trace.clone());
        }
        if trace.sampled {
            self.recent.push(trace.clone());
        }
        trace
    }

    /// The retained slow queries, oldest first (at most
    /// [`TraceConfig::slow_capacity`], the most recent ones).
    pub fn slow_queries(&self) -> Vec<Arc<Trace>> {
        self.slow.snapshot()
    }

    /// The head-sampled recent traces, oldest first.
    pub fn recent_traces(&self) -> Vec<Arc<Trace>> {
        self.recent.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer(rate: f64, slow_ns: u64) -> Tracer {
        Tracer::new(TraceConfig {
            sample_rate: rate,
            slow_threshold: Duration::from_nanos(slow_ns),
            recent_capacity: 8,
            slow_capacity: 4,
        })
    }

    /// A childless trace of an operation that took `total_ns`.
    fn record(tr: &Tracer, name: impl Into<String>, total_ns: u64) -> Arc<Trace> {
        let root = TraceSpan {
            name: "query",
            parent: None,
            start_ns: 0,
            end_ns: total_ns,
            attrs: Vec::new(),
        };
        tr.record(name, root, Vec::new())
    }

    #[test]
    fn slow_retention_ignores_sampling() {
        let tr = tracer(0.0, 0); // sample nothing; everything is "slow"
        for i in 0..6 {
            record(&tr, format!("q{i}"), i);
        }
        let slow = tr.slow_queries();
        assert_eq!(slow.len(), 4, "capacity bounds the log");
        assert_eq!(slow[0].name, "q2", "oldest retained is q2");
        assert_eq!(slow[3].name, "q5");
        assert!(tr.recent_traces().is_empty(), "nothing sampled");
        assert_eq!(tr.stats().slow, 6);
        // reading twice is stable (non-destructive)
        assert_eq!(tr.slow_queries().len(), 4);
    }

    #[test]
    fn sampling_rate_is_proportional() {
        let tr = tracer(0.25, u64::MAX);
        for _ in 0..1000 {
            record(&tr, "q", 1);
        }
        let s = tr.stats();
        assert_eq!(s.recorded, 1000);
        assert!((249..=251).contains(&s.sampled), "got {}", s.sampled);
    }

    #[test]
    fn rate_edges() {
        let off = tracer(0.0, u64::MAX);
        let on = tracer(1.0, u64::MAX);
        for _ in 0..10 {
            record(&off, "q", 1);
            record(&on, "q", 1);
        }
        assert_eq!(off.stats().sampled, 0);
        assert_eq!(on.stats().sampled, 10);
        assert_eq!(on.recent_traces().len(), 8, "recent ring capacity");
    }

    #[test]
    fn finish_marks_slow_by_threshold() {
        let tr = tracer(0.0, 100);
        let fast = record(&tr, "fast", 99);
        let slow = record(&tr, "slow", 100);
        assert!(!fast.slow && slow.slow, "the threshold itself is slow");
        assert!(!slow.sampled);
        assert_eq!(slow.total_ns, slow.root().end_ns);
        assert_ne!(fast.id, slow.id);
    }

    #[test]
    fn slow_threshold_is_runtime_tunable() {
        let tr = tracer(0.0, u64::MAX); // nothing slow at build time
        record(&tr, "q0", 1);
        assert!(tr.slow_queries().is_empty());
        tr.set_slow_threshold(Duration::ZERO); // everything is slow now
        assert_eq!(tr.slow_threshold(), Duration::ZERO);
        record(&tr, "q1", 1);
        let slow = tr.slow_queries();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].name, "q1");
        assert_eq!(
            tr.config().slow_threshold,
            Duration::from_nanos(u64::MAX),
            "build-time config is preserved"
        );
    }
}
