//! Integration tests for the telemetry crate: the quantile-bracketing
//! guarantee, counter behaviour under thread contention, and
//! snapshot/delta round-trips.

use proptest::prelude::*;
use xseq_telemetry::{Histogram, MetricValue, MetricsRegistry};

proptest! {
    /// The documented contract of `quantile_bounds`: for any sample set and
    /// any q, the true nearest-rank quantile lies within the returned
    /// bucket bounds.
    #[test]
    fn quantile_bounds_bracket_the_true_quantile(
        samples in proptest::collection::vec(0u64..1_000_000, 1..200),
        q in 0.0f64..1.0,
    ) {
        let h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let truth = sorted[rank - 1];
        let (lo, hi) = h.snapshot().quantile_bounds(q).expect("non-empty");
        prop_assert!(
            lo <= truth && truth <= hi,
            "q={} true quantile {} outside bounds ({}, {})", q, truth, lo, hi
        );
    }

    /// Point estimates stay inside the observed value range.
    #[test]
    fn quantile_estimates_stay_within_min_max(
        samples in proptest::collection::vec(0u64..1_000_000_000, 1..100),
    ) {
        let h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let s = h.snapshot();
        let min = *samples.iter().min().unwrap();
        let max = *samples.iter().max().unwrap();
        for est in [s.p50(), s.p90(), s.p99()] {
            let v = est.expect("non-empty");
            prop_assert!(v >= min && v <= max, "{} outside [{}, {}]", v, min, max);
        }
    }
}

#[test]
fn counter_increments_from_many_threads() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 25_000;
    let reg = MetricsRegistry::new();
    let c = reg.counter("contended.events");
    let h = reg.histogram("contended.lat");
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let c = c.clone();
            let h = h.clone();
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    c.inc();
                    h.record(i);
                }
            });
        }
    });
    assert_eq!(c.get(), THREADS * PER_THREAD, "no increment lost");
    let snap = h.snapshot();
    assert_eq!(snap.count, THREADS * PER_THREAD);
    assert_eq!(snap.min, 0);
    assert_eq!(snap.max, PER_THREAD - 1);
}

#[test]
fn counter_reads_are_monotone_while_threads_add() {
    const WRITERS: u64 = 4;
    const PER_WRITER: u64 = 50_000;
    // Writer w adds 1, 2 or 3 at step i; the reader spins until it has
    // seen every add, and no read may be smaller than the one before.
    let step = |w: u64, i: u64| 1 + (w + i) % 3;
    let total: u64 = (0..WRITERS)
        .flat_map(|w| (0..PER_WRITER).map(move |i| step(w, i)))
        .sum();
    let c = MetricsRegistry::new().counter("contended.reads");
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let c = c.clone();
            s.spawn(move || {
                for i in 0..PER_WRITER {
                    c.add(step(w, i));
                }
            });
        }
        s.spawn(|| {
            let mut last = 0;
            while last < total {
                let now = c.get();
                assert!(now >= last, "a read went backwards: {now} after {last}");
                last = now;
            }
        });
    });
    assert_eq!(c.get(), total, "no add lost");
}

#[test]
fn snapshot_delta_roundtrip() {
    let reg = MetricsRegistry::new();
    let c = reg.counter("w.ops");
    let g = reg.gauge("w.level");
    let h = reg.histogram("w.lat");
    c.add(5);
    g.set(2);
    h.record(10);
    h.record(3_000);
    let s1 = reg.snapshot();
    c.add(11);
    g.set(-7);
    h.record(10);
    h.record(40_000);
    h.record(40_001);
    let s2 = reg.snapshot();

    let d = s2.delta(&s1);
    // counters recompose: earlier + delta == later
    assert_eq!(
        s1.counter("w.ops") + d.counter("w.ops"),
        s2.counter("w.ops")
    );
    assert_eq!(d.counter("w.ops"), 11);
    // gauges keep the later value
    assert_eq!(d.get("w.level"), Some(&MetricValue::Gauge(-7)));
    // histograms recompose bucket by bucket
    let (h1, h2, hd) = (
        s1.histogram("w.lat").unwrap(),
        s2.histogram("w.lat").unwrap(),
        d.histogram("w.lat").unwrap(),
    );
    assert_eq!(hd.count, 3);
    assert_eq!(h1.count + hd.count, h2.count);
    assert_eq!(h1.sum + hd.sum, h2.sum);
    for b in 0..xseq_telemetry::BUCKETS {
        assert_eq!(h1.buckets[b] + hd.buckets[b], h2.buckets[b], "bucket {b}");
    }
    // delta of a snapshot with itself is empty
    let zero = s2.delta(&s2);
    assert_eq!(zero.counter("w.ops"), 0);
    assert_eq!(zero.histogram("w.lat").unwrap().count, 0);
}

// ---------------------------------------------------------------------------
// Tracing: retention order and load, exporter golden output.
// ---------------------------------------------------------------------------

use std::sync::Arc;
use xseq_telemetry::{AttrValue, SpanId, Trace, TraceId, TraceSpan, Tracer};

/// A trace of one operation that took `total_ns`: the root plus `children`,
/// retained iff `slow`.
fn record(
    tracer: &Tracer,
    name: impl Into<String>,
    total_ns: u64,
    children: Vec<TraceSpan>,
    slow: bool,
) -> Arc<Trace> {
    let root = TraceSpan {
        name: "query",
        parent: None,
        start_ns: 0,
        end_ns: total_ns,
        attrs: Vec::new(),
    };
    tracer.record(name, root, children, slow)
}

/// Retention is the caller's verdict: a trace enters the slow-query log
/// iff it is marked slow, the log keeps the newest `slow_capacity` of them
/// oldest first (an interleaved read disturbs nothing), and every trace —
/// retained or not — comes back from `record`.
#[test]
fn record_retains_a_trace_iff_the_caller_marks_it_slow() {
    let tracer = Tracer::new(4);
    let mut slow_ids = Vec::new();
    for i in 0..12u64 {
        let slow = i % 2 == 1;
        let trace = record(&tracer, format!("q{i}"), 10 + i, Vec::new(), slow);
        assert_eq!((trace.slow, trace.total_ns), (slow, 10 + i), "q{i}");
        assert_eq!(trace.name, format!("q{i}"));
        if slow {
            slow_ids.push(trace.id);
        }
        if i == 5 {
            tracer.slow_queries();
        }
    }
    let kept = tracer.slow_queries();
    let got: Vec<TraceId> = kept.iter().map(|t| t.id).collect();
    assert_eq!(
        got,
        slow_ids[2..].to_vec(),
        "newest 4 slow traces, oldest first"
    );
    assert!(kept.iter().all(|t| t.slow));
    assert_eq!(tracer.slow_queries().len(), 4, "reading consumes nothing");
}

/// The slow-query log flushes in finish order: after more slow traces than
/// it holds, with a read in between, it is the latest `slow_capacity`
/// traces, oldest first.
#[test]
fn ring_flush_preserves_finish_order() {
    let tracer = Tracer::new(4);
    let mut ids = Vec::new();
    for i in 0..10 {
        ids.push(record(&tracer, format!("q{i}"), 1, Vec::new(), true).id);
        if i == 5 {
            // An interleaved read must not disturb subsequent ordering.
            tracer.slow_queries();
        }
    }
    let got: Vec<TraceId> = tracer.slow_queries().iter().map(|t| t.id).collect();
    assert_eq!(got, ids[6..].to_vec(), "latest 4 finishes, oldest first");
}

/// Eight threads recording slow traces at once: the log ends exactly at
/// capacity holding distinct, structurally intact traces.
#[test]
fn slow_log_retention_under_thread_load() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 100;
    const CAPACITY: usize = 32;
    let tracer = Tracer::new(CAPACITY);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let tracer = &tracer;
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    let work = TraceSpan {
                        name: "work",
                        parent: Some(SpanId(0)),
                        start_ns: 0,
                        end_ns: 1,
                        attrs: vec![("thread", (t as u64).into()), ("i", (i as u64).into())],
                    };
                    record(tracer, "load", 1, vec![work], true);
                }
            });
        }
    });
    let slow = tracer.slow_queries();
    assert_eq!(slow.len(), CAPACITY, "log settles at exactly its capacity");
    let mut ids: Vec<u64> = slow.iter().map(|t| t.id.0).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), CAPACITY, "retained traces are distinct");
    for t in &slow {
        assert!(t.slow);
        assert_eq!(t.spans.len(), 2, "root + one work span");
        assert_eq!(t.spans[1].parent, Some(SpanId(0)));
        assert_eq!(t.spans[1].name, "work");
        assert_eq!(t.spans[1].attrs.len(), 2);
    }
}

/// Golden test for the Chrome trace-event exporter: a hand-built trace with
/// fixed nanosecond timestamps serializes to exactly this JSON (µs `ts`/`dur`
/// with a 3-digit ns fraction, root args carrying the trace identity,
/// `otherData` metadata block).
#[test]
fn chrome_json_golden_output() {
    let trace = Trace {
        id: TraceId(7),
        name: "/a/b".to_string(),
        total_ns: 5_000,
        slow: false,
        spans: vec![
            TraceSpan {
                name: "query",
                parent: None,
                start_ns: 0,
                end_ns: 5_000,
                attrs: vec![("docs", AttrValue::U64(3))],
            },
            TraceSpan {
                name: "query.parse",
                parent: Some(SpanId(0)),
                start_ns: 100,
                end_ns: 1_100,
                attrs: vec![
                    ("expr_len", AttrValue::U64(4)),
                    ("strategy", AttrValue::Str("prob".to_string())),
                ],
            },
        ],
    };
    let expected = concat!(
        "{\"traceEvents\":[",
        "{\"name\":\"query\",\"cat\":\"xseq\",\"ph\":\"X\",",
        "\"ts\":0.000,\"dur\":5.000,\"pid\":1,\"tid\":1,",
        "\"args\":{\"trace_id\":7,\"query\":\"/a/b\",\"docs\":3}},",
        "{\"name\":\"query.parse\",\"cat\":\"xseq\",\"ph\":\"X\",",
        "\"ts\":0.100,\"dur\":1.000,\"pid\":1,\"tid\":1,",
        "\"args\":{\"expr_len\":4,\"strategy\":\"prob\"}}",
        "],\"displayTimeUnit\":\"ns\",",
        "\"otherData\":{\"trace_id\":7,\"query\":\"/a/b\",\"total_ns\":5000,",
        "\"slow\":false}}",
    );
    assert_eq!(trace.to_chrome_json(), expected);
}
