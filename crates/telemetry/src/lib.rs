//! # xseq-telemetry
//!
//! Dependency-free observability primitives for the xseq pipeline:
//!
//! - [`Counter`] / [`Gauge`] — single-atomic event counts and levels.
//! - [`Histogram`] — a power-of-two-bucketed latency histogram with
//!   count/sum/min/max and nearest-rank quantile estimation
//!   ([`HistogramSnapshot::p50`]/[`HistogramSnapshot::p90`]/
//!   [`HistogramSnapshot::p99`]).
//! - [`MetricsRegistry`] — named registration (`index.search`,
//!   `storage.pool.hits`, …) handing out `Arc` handles so the hot path
//!   never touches the registry lock.
//! - [`Snapshot`] — a point-in-time copy with [`Snapshot::delta`] for
//!   interval measurements.
//! - [`export::to_json`] / [`export::render_table`] — snapshot exporters.
//! - [`HeapSize`] — model-based heap attribution feeding the `memory.*`
//!   gauge family (domain impls live next to their types).
//! - [`Tracer`] / [`Trace`] — hierarchical per-query tracing: the caller
//!   builds a finished operation's span tree, and [`Tracer::record`]
//!   retains it in the slow-query log when the caller marks it slow;
//!   traces export as Chrome trace-event JSON ([`export::to_chrome_json`]).
//! - [`EventJournal`] / [`Event`] — the flight recorder: a bounded journal
//!   of severity-levelled lifecycle events, exportable as JSON Lines.
//!
//! Counters, gauges and histograms mutate through relaxed atomics only, so
//! instrumentation can sit inside the paper's per-candidate inner loops
//! without changing the measured behaviour.  The two things that retain
//! history — the flight recorder and the tracer's slow-query log — share
//! one mutex-guarded bounded buffer, touched once per lifecycle event or
//! retained trace.

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

pub mod events;
pub mod export;
pub mod heap;
pub mod metrics;
pub mod registry;
mod retention;
pub mod trace;

pub use events::{Event, EventCounts, EventJournal, Severity};
pub use export::{format_ns, render_table, to_chrome_json, to_json};
pub use heap::{hash_table_alloc_bytes, HeapSize};
pub use metrics::{
    bucket_bounds, bucket_of, Counter, Gauge, Histogram, HistogramSnapshot, BUCKETS,
};
pub use registry::{Metric, MetricValue, MetricsRegistry, Snapshot};
pub use trace::{AttrValue, SpanId, Trace, TraceConfig, TraceId, TraceSpan, Tracer};
