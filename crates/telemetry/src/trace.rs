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
//! [`Tracer::record`] mints the trace and retains it in the **slow-query
//! log** (latest N, oldest first) when its caller marks it slow: the
//! threshold lives with the caller (`Database::slow_query_threshold`), so
//! "slow" has one cell.  Only a slow trace takes the log's lock, once,
//! after its query is done; [`Tracer::slow_queries`] reads are
//! non-destructive.  Any single query's trace is returned by `record`
//! itself, slow or not.

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
    /// Whether the operation met its owner's slow threshold.
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

    /// Serializes this trace in the Chrome trace-event JSON format, loadable
    /// in `chrome://tracing` and [Perfetto](https://ui.perfetto.dev).
    pub fn to_chrome_json(&self) -> String {
        crate::export::to_chrome_json(self)
    }
}

/// Tracing policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Operations at or above this duration are retained in the slow-query
    /// log.  `Duration::ZERO` retains everything.  The owner of the tracer
    /// holds the live threshold and tells [`Tracer::record`] the verdict.
    pub slow_threshold: Duration,
    /// Capacity of the slow-query log.
    pub slow_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            slow_threshold: Duration::from_millis(100),
            slow_capacity: 64,
        }
    }
}

/// The shared side of tracing: id allocation and the slow-query log.
#[derive(Debug)]
pub struct Tracer {
    next_id: AtomicU64,
    slow: Retention<Arc<Trace>>,
}

impl Tracer {
    /// A tracer whose slow-query log keeps the latest `slow_capacity`
    /// traces.
    pub fn new(slow_capacity: usize) -> Self {
        Tracer {
            next_id: AtomicU64::new(1),
            slow: Retention::new(slow_capacity),
        }
    }

    /// Mints a finished operation's trace and retains it in the slow-query
    /// log iff the caller marks it `slow`.  `root` spans the whole
    /// operation (its end is the wall time); `children` follow it in start
    /// order, their parents given as indices into `root` + `children` (the
    /// root is `SpanId(0)`).  Returns the trace either way, so the caller
    /// can attach it to its result.
    pub fn record(
        &self,
        name: impl Into<String>,
        root: TraceSpan,
        children: Vec<TraceSpan>,
        slow: bool,
    ) -> Arc<Trace> {
        let total_ns = root.end_ns;
        let mut spans = Vec::with_capacity(1 + children.len());
        spans.push(root);
        spans.extend(children);
        let trace = Arc::new(Trace {
            // ORDERING: id — uniqueness needs only fetch_add atomicity.
            id: TraceId(self.next_id.fetch_add(1, Ordering::Relaxed)),
            name: name.into(),
            total_ns,
            slow,
            spans,
        });
        if slow {
            self.slow.push(trace.clone());
        }
        trace
    }

    /// The retained slow queries, oldest first (at most the latest
    /// `slow_capacity`).
    pub fn slow_queries(&self) -> Vec<Arc<Trace>> {
        self.slow.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A childless trace of an operation that took `total_ns`, marked slow
    /// the way its owner does: at or above `threshold_ns`.
    fn record(tr: &Tracer, name: &str, total_ns: u64, threshold_ns: u64) -> Arc<Trace> {
        let root = TraceSpan {
            name: "query",
            parent: None,
            start_ns: 0,
            end_ns: total_ns,
            attrs: Vec::new(),
        };
        tr.record(name, root, Vec::new(), total_ns >= threshold_ns)
    }

    #[test]
    fn finish_marks_slow_by_threshold() {
        let tr = Tracer::new(4);
        let fast = record(&tr, "fast", 99, 100);
        let slow = record(&tr, "slow", 100, 100);
        assert!(!fast.slow && slow.slow, "the threshold itself is slow");
        assert_eq!(slow.total_ns, slow.root().end_ns);
        assert_ne!(fast.id, slow.id);
    }

    /// The slow log keeps every slow trace up to its capacity, oldest first,
    /// whatever else is recorded: there is no sampling decision before
    /// retention, and fast traces in between displace nothing.
    #[test]
    fn slow_retention_ignores_sampling() {
        let tr = Tracer::new(4);
        for i in 0..6 {
            record(&tr, &format!("q{i}"), 100 + i, 100);
            record(&tr, "fast", 1, 100);
        }
        let slow = tr.slow_queries();
        assert_eq!(slow.len(), 4, "capacity bounds the log");
        assert_eq!(slow[0].name, "q2", "oldest retained is q2");
        assert_eq!(slow[3].name, "q5");
        // reading twice is stable (non-destructive)
        assert_eq!(tr.slow_queries().len(), 4);
    }
}
