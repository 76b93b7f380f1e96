//! Registry wiring for the index's phases and work counters.
//!
//! [`XmlIndex`](crate::XmlIndex) accumulates per-query work in plain local
//! variables on the stack and flushes it here **once per query**, so the
//! paper's inner loops (candidate inspection, the ancestor walk) stay free
//! of atomic traffic and the instrumentation overhead is a handful of
//! atomic adds per query.
//!
//! Every handle here is additive (histograms and counters), so any number
//! of indexes — the shards of one database — share one family and sum into
//! the correct aggregate.  Occupancy *gauges* (`index.delta.*`,
//! `index.tombstones`) are `set`, not added, so they belong to whoever sees
//! all the indexes: the `Database` layer owns them.

use crate::QueryStats;
use std::sync::Arc;
use xseq_telemetry::{Counter, Histogram, MetricsRegistry};

/// Arc'd handles to the index-side metrics of a [`MetricsRegistry`].
#[derive(Debug, Clone)]
pub struct IndexTelemetry {
    /// `index.plan` — wildcard assignment latency per query (ns).
    pub plan: Arc<Histogram>,
    /// `sequence.encode` — tree-to-sequence encoding latency (ns): one
    /// sample per document sequenced, at build time or by `insert_delta`.
    /// Queries sequence nothing, so they leave no sample.
    pub encode: Arc<Histogram>,
    /// `index.search` — matching latency per query (ns), all variants.
    pub search: Arc<Histogram>,
    /// `index.plan.instantiations` — wildcard assignments produced.
    pub instantiations: Arc<Counter>,
    /// `index.search.candidates` — candidate link entries examined.
    pub candidates: Arc<Counter>,
    /// `index.search.cover_rejections` — candidates rejected by the
    /// sibling-cover (constraint) check.
    pub cover_rejections: Arc<Counter>,
    /// `index.search.completions` — alignments reaching the query's end.
    pub completions: Arc<Counter>,
    /// `index.search.link_probes` — path-link binary searches performed.
    pub link_probes: Arc<Counter>,
}

impl IndexTelemetry {
    /// Gets-or-registers every index metric in `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        IndexTelemetry {
            plan: registry.histogram("index.plan"),
            encode: registry.histogram("sequence.encode"),
            search: registry.histogram("index.search"),
            instantiations: registry.counter("index.plan.instantiations"),
            candidates: registry.counter("index.search.candidates"),
            cover_rejections: registry.counter("index.search.cover_rejections"),
            completions: registry.counter("index.search.completions"),
            link_probes: registry.counter("index.search.link_probes"),
        }
    }

    /// Flushes one query's accumulated stats into the registry handles.
    pub fn observe(&self, st: &QueryStats) {
        self.plan.record(st.plan_ns);
        self.search.record(st.search_ns);
        self.instantiations.add(st.instantiations);
        self.candidates.add(st.search.candidates);
        self.cover_rejections.add(st.search.cover_rejections);
        self.completions.add(st.search.completions);
        self.link_probes.add(st.search.link_probes);
    }
}
