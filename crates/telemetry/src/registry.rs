//! Named metric registration, snapshots, and deltas.

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock, RwLock};

/// A handle to one registered metric.
#[derive(Debug, Clone)]
pub enum Metric {
    /// A monotone counter.
    Counter(Arc<Counter>),
    /// An up/down gauge.
    Gauge(Arc<Gauge>),
    /// A latency/size histogram.
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// The observed value of one metric at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram state (boxed: a snapshot carries its full bucket array).
    Histogram(Box<HistogramSnapshot>),
}

/// A registry of named metrics.
///
/// Registration takes a write lock; recording through the returned `Arc`
/// handles is lock-free. Names are dotted paths (`index.search.candidates`)
/// grouping a subsystem's metrics under a common prefix.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: RwLock<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The process-wide registry (used by the `repro` harness, where the
    /// experiment functions build their own engines internally).
    pub fn global() -> &'static MetricsRegistry {
        static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
        GLOBAL.get_or_init(MetricsRegistry::new)
    }

    /// Gets or registers the counter `name`.
    ///
    /// Panics if `name` is already registered as a different metric kind —
    /// that is a programming error, not a runtime condition.
    #[expect(clippy::panic, reason = "re-registering a name as another kind is a bug")]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.get_or_insert(name, || Metric::Counter(Arc::new(Counter::new()))) {
            Metric::Counter(c) => c,
            other => panic!("metric {name} is a {}, not a counter", other.kind()),
        }
    }

    /// Gets or registers the gauge `name`.
    ///
    /// Panics if `name` is already registered as a different metric kind.
    #[expect(clippy::panic, reason = "re-registering a name as another kind is a bug")]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.get_or_insert(name, || Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name} is a {}, not a gauge", other.kind()),
        }
    }

    /// Gets or registers the histogram `name`.
    ///
    /// Panics if `name` is already registered as a different metric kind.
    #[expect(clippy::panic, reason = "re-registering a name as another kind is a bug")]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match self.get_or_insert(name, || Metric::Histogram(Arc::new(Histogram::new()))) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name} is a {}, not a histogram", other.kind()),
        }
    }

    #[expect(clippy::expect_used, reason = "the lock guards no code that can panic")]
    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        if let Some(m) = self.inner.read().expect("registry lock").get(name) {
            return m.clone();
        }
        let mut w = self.inner.write().expect("registry lock");
        w.entry(name.to_owned()).or_insert_with(make).clone()
    }

    /// Names of all registered metrics, sorted.
    #[expect(clippy::expect_used, reason = "the lock guards no code that can panic")]
    pub fn names(&self) -> Vec<String> {
        self.inner
            .read()
            .expect("registry lock")
            .keys()
            .cloned()
            .collect()
    }

    /// A point-in-time copy of every metric's value.
    #[expect(clippy::expect_used, reason = "the lock guards no code that can panic")]
    pub fn snapshot(&self) -> Snapshot {
        let r = self.inner.read().expect("registry lock");
        let metrics = r
            .iter()
            .map(|(name, m)| {
                let v = match m {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(Box::new(h.snapshot())),
                };
                (name.clone(), v)
            })
            .collect();
        Snapshot { metrics }
    }
}

/// A point-in-time copy of a registry's metrics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Metric name → observed value, sorted by name.
    pub metrics: BTreeMap<String, MetricValue>,
}

impl Snapshot {
    /// The value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.get(name)
    }

    /// Counter value of `name` (0 when absent or of another kind).
    pub fn counter(&self, name: &str) -> u64 {
        match self.metrics.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Gauge value of `name`, when present and a gauge.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.metrics.get(name) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Histogram snapshot of `name`, when present and a histogram.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.metrics.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h.as_ref()),
            _ => None,
        }
    }

    /// True when some metric name starts with `prefix` — phases register
    /// several metrics under one dotted prefix.
    pub fn has_prefix(&self, prefix: &str) -> bool {
        self.metrics
            .range(prefix.to_owned()..)
            .next()
            .is_some_and(|(k, _)| k.starts_with(prefix))
    }

    /// The change from `earlier` to `self`: counters and histograms
    /// subtract (saturating); gauges keep `self`'s value. Metrics absent
    /// from `earlier` pass through unchanged.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, v)| {
                let dv = match (v, earlier.metrics.get(name)) {
                    (MetricValue::Counter(now), Some(MetricValue::Counter(then))) => {
                        MetricValue::Counter(now.saturating_sub(*then))
                    }
                    (MetricValue::Histogram(now), Some(MetricValue::Histogram(then))) => {
                        MetricValue::Histogram(Box::new(now.delta(then)))
                    }
                    _ => v.clone(),
                };
                (name.clone(), dv)
            })
            .collect();
        Snapshot { metrics }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x.events");
        let b = reg.counter("x.events");
        a.inc();
        b.add(2);
        assert_eq!(reg.snapshot().counter("x.events"), 3);
        assert_eq!(reg.names(), vec!["x.events".to_string()]);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("m");
        reg.gauge("m");
    }

    #[test]
    fn snapshot_delta() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("c");
        let h = reg.histogram("h");
        let g = reg.gauge("g");
        c.add(10);
        h.record(100);
        g.set(5);
        let before = reg.snapshot();
        c.add(7);
        h.record(200);
        g.set(-1);
        let after = reg.snapshot();
        let d = after.delta(&before);
        assert_eq!(d.counter("c"), 7);
        let hd = d.histogram("h").unwrap();
        assert_eq!(hd.count, 1);
        assert_eq!(hd.sum, 200);
        assert_eq!(d.get("g"), Some(&MetricValue::Gauge(-1)));
    }

    #[test]
    fn prefix_lookup() {
        let reg = MetricsRegistry::new();
        reg.counter("storage.pool.hits");
        let s = reg.snapshot();
        assert!(s.has_prefix("storage.pool"));
        assert!(!s.has_prefix("storage.poolx"));
        assert!(!s.has_prefix("index."));
    }
}
