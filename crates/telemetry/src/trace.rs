//! Hierarchical per-operation tracing.
//!
//! Aggregate metrics ([`crate::MetricsRegistry`]) answer "how much work did
//! the pipeline do"; this module answers "where did *this* query's time
//! go".  Each traced operation owns an [`ActiveTrace`] — a per-thread span
//! buffer that the pipeline phases (parse → plan → trie descent →
//! sibling-cover checks → path-link binary searches → completion) append
//! [`TraceSpan`]s to, with typed [`AttrValue`] attributes (candidate
//! counts, trie node ranges `(n⊢, n⊣)`, the chosen plan).  Because the
//! buffer lives on the querying thread's stack, recording a span is a `Vec`
//! push and two monotonic clock reads — no atomics, no sharing.
//!
//! When the operation finishes, [`Tracer::finish`] seals the buffer into an
//! immutable [`Trace`] and retains it in two bounded logs (latest N,
//! oldest first):
//!
//! * **head sampling** — [`TraceConfig::sample_rate`] of traces, decided at
//!   trace *start*, land in the *recent traces* log;
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
use std::time::{Duration, Instant};

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

/// Sentinel for a span that has not ended yet.
const OPEN: u64 = u64::MAX;

/// One timed phase within a trace.
///
/// Start/end are nanoseconds relative to the trace start.  Spans are stored
/// in creation order, so a span's parent always precedes it, and a parent's
/// interval brackets every child's (`finish` closes stragglers so the
/// invariant holds even for abandoned spans).
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

/// A sealed, immutable span tree for one finished operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Unique id within the owning [`Tracer`].
    pub id: TraceId,
    /// What was traced — for queries, the serialized query expression.
    pub name: String,
    /// Total wall time of the operation, nanoseconds.
    pub total_ns: u64,
    /// Whether head sampling selected this trace at start.
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
    /// (head sampling, decided at trace start; clamped to `0.0..=1.0`).
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

/// The mutable, thread-local side of a trace: a span buffer owned by the
/// operation being traced.
///
/// Spans follow stack discipline: [`ActiveTrace::start_span`] opens a child
/// of the innermost open span, [`ActiveTrace::end_span`] closes it (and any
/// children left open above it).  Span 0 is the implicit root covering the
/// whole operation.
#[derive(Debug)]
pub struct ActiveTrace {
    id: TraceId,
    name: String,
    started: Instant,
    sampled: bool,
    spans: Vec<TraceSpan>,
    /// Open spans, innermost last; `stack[0]` is always the root.
    stack: Vec<SpanId>,
}

impl ActiveTrace {
    fn new(id: TraceId, name: String, sampled: bool) -> Self {
        let root = TraceSpan {
            name: "query",
            parent: None,
            start_ns: 0,
            end_ns: OPEN,
            attrs: Vec::new(),
        };
        ActiveTrace {
            id,
            name,
            started: Instant::now(),
            sampled,
            spans: vec![root],
            stack: vec![SpanId(0)],
        }
    }

    /// This trace's id.
    pub fn id(&self) -> TraceId {
        self.id
    }

    /// Nanoseconds since the trace started.
    pub fn elapsed_ns(&self) -> u64 {
        self.started.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// The root span's id.
    pub fn root_span(&self) -> SpanId {
        SpanId(0)
    }

    /// Opens a child span of the innermost open span.
    pub fn start_span(&mut self, name: &'static str) -> SpanId {
        let id = SpanId(self.spans.len() as u32);
        self.spans.push(TraceSpan {
            name,
            parent: self.stack.last().copied(),
            start_ns: self.elapsed_ns(),
            end_ns: OPEN,
            attrs: Vec::new(),
        });
        self.stack.push(id);
        id
    }

    /// Closes `id` — and, to preserve the bracketing invariant, every span
    /// opened inside it that is still open.  Closing a span not on the open
    /// stack (already closed) is a no-op.
    #[expect(clippy::indexing_slicing, reason = "at < stack.len(); stack holds minted SpanIds")]
    pub fn end_span(&mut self, id: SpanId) {
        let Some(at) = self.stack.iter().rposition(|&s| s == id) else {
            return;
        };
        if at == 0 {
            return; // the root closes only via Tracer::finish
        }
        let now = self.elapsed_ns();
        for &open in &self.stack[at..] {
            self.spans[open.0 as usize].end_ns = now;
        }
        self.stack.truncate(at);
    }

    /// Records a zero-length marker span (an instant event) under the
    /// innermost open span.
    pub fn event(&mut self, name: &'static str) -> SpanId {
        let now = self.elapsed_ns();
        let id = SpanId(self.spans.len() as u32);
        self.spans.push(TraceSpan {
            name,
            parent: self.stack.last().copied(),
            start_ns: now,
            end_ns: now,
            attrs: Vec::new(),
        });
        id
    }

    /// Attaches a typed attribute to a span.
    #[expect(clippy::indexing_slicing, reason = "SpanIds are minted from spans.len()")]
    pub fn attr(&mut self, span: SpanId, key: &'static str, value: impl Into<AttrValue>) {
        self.spans[span.0 as usize].attrs.push((key, value.into()));
    }

    /// Attaches a typed attribute to the root span.
    pub fn root_attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        self.attr(SpanId(0), key, value);
    }

    fn seal(mut self, slow_threshold: Duration) -> Trace {
        let total = self.elapsed_ns();
        for span in &mut self.spans {
            if span.end_ns == OPEN {
                span.end_ns = total;
            }
        }
        let slow = total as u128 >= slow_threshold.as_nanos();
        Trace {
            id: self.id,
            name: self.name,
            total_ns: total,
            sampled: self.sampled,
            slow,
            spans: self.spans,
        }
    }
}

/// Retention counters of a [`Tracer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TracerStats {
    /// Traces started.
    pub started: u64,
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
    started: AtomicU64,
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
            started: AtomicU64::new(0),
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
    /// traces finishing after the store; in-flight `finish` calls may use
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
            started: self.started.load(Ordering::Relaxed),
            sampled: self.sampled_count.load(Ordering::Relaxed),
            slow: self.slow_count.load(Ordering::Relaxed),
        }
    }

    /// Starts a trace, making the head-sampling decision now.
    pub fn begin(&self, name: impl Into<String>) -> ActiveTrace {
        // ORDERING: counter — retention counters are independent statistics.
        self.started.fetch_add(1, Ordering::Relaxed);
        let sampled = self.decide_sample();
        if sampled {
            // ORDERING: counter — independent retention statistic.
            self.sampled_count.fetch_add(1, Ordering::Relaxed);
        }
        // ORDERING: id — uniqueness needs only fetch_add atomicity.
        let id = TraceId(self.next_id.fetch_add(1, Ordering::Relaxed));
        ActiveTrace::new(id, name.into(), sampled)
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

    /// Seals `active` and applies retention: slow traces always enter the
    /// slow-query log; sampled traces enter the recent log.  Returns the
    /// sealed trace either way, so the caller can attach it to its result.
    pub fn finish(&self, active: ActiveTrace) -> Arc<Trace> {
        let trace = Arc::new(active.seal(self.slow_threshold()));
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

    #[test]
    fn span_stack_discipline() {
        let tr = tracer(1.0, u64::MAX);
        let mut t = tr.begin("q");
        let a = t.start_span("a");
        let b = t.start_span("b");
        t.end_span(b);
        t.end_span(a);
        let c = t.start_span("c");
        t.end_span(c);
        let sealed = tr.finish(t);
        assert_eq!(sealed.spans.len(), 4);
        assert_eq!(sealed.spans[1].parent, Some(SpanId(0)));
        assert_eq!(sealed.spans[2].parent, Some(a));
        assert_eq!(sealed.spans[3].parent, Some(SpanId(0)));
        for s in &sealed.spans {
            assert!(s.end_ns != OPEN && s.end_ns >= s.start_ns);
        }
    }

    #[test]
    fn abandoned_spans_are_closed_by_parent_end() {
        let tr = tracer(1.0, u64::MAX);
        let mut t = tr.begin("q");
        let a = t.start_span("a");
        let _b = t.start_span("b"); // never explicitly closed
        t.end_span(a); // closes b too
        let sealed = tr.finish(t);
        let (pa, pb) = (&sealed.spans[1], &sealed.spans[2]);
        assert!(pb.end_ns <= pa.end_ns, "child bracketed by parent");
    }

    #[test]
    fn slow_retention_ignores_sampling() {
        let tr = tracer(0.0, 0); // sample nothing; everything is "slow"
        for i in 0..6 {
            let mut t = tr.begin(format!("q{i}"));
            t.root_attr("i", i as u64);
            tr.finish(t);
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
            tr.finish(tr.begin("q"));
        }
        let s = tr.stats();
        assert_eq!(s.started, 1000);
        assert!((249..=251).contains(&s.sampled), "got {}", s.sampled);
    }

    #[test]
    fn rate_edges() {
        let off = tracer(0.0, u64::MAX);
        let on = tracer(1.0, u64::MAX);
        for _ in 0..10 {
            off.finish(off.begin("q"));
            on.finish(on.begin("q"));
        }
        assert_eq!(off.stats().sampled, 0);
        assert_eq!(on.stats().sampled, 10);
        assert_eq!(on.recent_traces().len(), 8, "recent ring capacity");
    }

    #[test]
    fn finish_marks_slow_by_threshold() {
        let tr = tracer(0.0, 1); // 1ns: any real work qualifies
        let mut t = tr.begin("q");
        std::hint::black_box(&mut t);
        let sealed = tr.finish(t);
        assert!(sealed.slow);
        assert!(!sealed.sampled);
        assert_eq!(sealed.total_ns, sealed.root().end_ns);
    }

    #[test]
    fn slow_threshold_is_runtime_tunable() {
        let tr = tracer(0.0, u64::MAX); // nothing slow at build time
        tr.finish(tr.begin("q0"));
        assert!(tr.slow_queries().is_empty());
        tr.set_slow_threshold(Duration::ZERO); // everything is slow now
        assert_eq!(tr.slow_threshold(), Duration::ZERO);
        tr.finish(tr.begin("q1"));
        let slow = tr.slow_queries();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].name, "q1");
        assert_eq!(
            tr.config().slow_threshold,
            Duration::from_nanos(u64::MAX),
            "build-time config is preserved"
        );
    }

    #[test]
    fn events_are_zero_length_children() {
        let tr = tracer(1.0, u64::MAX);
        let mut t = tr.begin("q");
        let s = t.start_span("phase");
        let e = t.event("marker");
        t.attr(e, "count", 42u64);
        t.end_span(s);
        let sealed = tr.finish(t);
        let ev = sealed.span(e);
        assert_eq!(ev.start_ns, ev.end_ns);
        assert_eq!(ev.parent, Some(s));
        assert_eq!(ev.attrs, vec![("count", AttrValue::U64(42))]);
    }
}
