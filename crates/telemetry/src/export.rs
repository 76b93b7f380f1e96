//! Snapshot exporters: a JSON document and a human-readable text table.
//!
//! Both are hand-rolled (the crate has no dependencies). The JSON form is
//! what `repro --metrics <path>` writes; the table is what
//! `QueryOutcome::explain` and the observability example print.

use crate::metrics::HistogramSnapshot;
use crate::registry::{MetricValue, Snapshot};
use crate::trace::{AttrValue, Trace};
use std::fmt::Write as _;

/// Serializes `snapshot` as a JSON object keyed by metric name.
///
/// Counters become `{"type":"counter","value":N}`, gauges
/// `{"type":"gauge","value":N}`, histograms
/// `{"type":"histogram","count":N,"sum":N,"min":N,"max":N,"mean":F,
/// "p50":N,"p90":N,"p99":N,"buckets":[[lo,hi,count],...]}` with only the
/// non-empty buckets listed. Empty histograms serialize min/max/quantiles
/// as `null`.
pub fn to_json(snapshot: &Snapshot) -> String {
    let mut out = String::from("{\n");
    let mut first = true;
    for (name, value) in &snapshot.metrics {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(out, "  {}: ", json_string(name));
        match value {
            MetricValue::Counter(v) => {
                let _ = write!(out, "{{\"type\":\"counter\",\"value\":{v}}}");
            }
            MetricValue::Gauge(v) => {
                let _ = write!(out, "{{\"type\":\"gauge\",\"value\":{v}}}");
            }
            MetricValue::Histogram(h) => histogram_json(&mut out, h),
        }
    }
    out.push_str("\n}\n");
    out
}

fn histogram_json(out: &mut String, h: &HistogramSnapshot) {
    let _ = write!(
        out,
        "{{\"type\":\"histogram\",\"count\":{},\"sum\":{}",
        h.count, h.sum
    );
    if h.count == 0 {
        out.push_str(
            ",\"min\":null,\"max\":null,\"mean\":null,\
             \"p50\":null,\"p90\":null,\"p99\":null,\"buckets\":[]}",
        );
        return;
    }
    let _ = write!(out, ",\"min\":{},\"max\":{}", h.min, h.max);
    let _ = write!(out, ",\"mean\":{}", json_f64(h.mean().unwrap_or(0.0)));
    for (label, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
        let _ = write!(out, ",\"{label}\":{}", h.quantile(q).unwrap_or(0));
    }
    out.push_str(",\"buckets\":[");
    let mut first = true;
    for (b, &c) in h.buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let (lo, hi) = crate::metrics::bucket_bounds(b);
        let _ = write!(out, "[{lo},{hi},{c}]");
    }
    out.push_str("]}");
}

/// Escapes `s` as a JSON string literal (with surrounding quotes).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` prints integral floats without a dot; keep it JSON-float-ish
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

/// Renders `snapshot` as an aligned text table, one metric per row.
///
/// Histograms show `count`, `mean`, `p50/p90/p99`, and `max`; counters and
/// gauges show their value. Durations are assumed to be nanoseconds and
/// printed scaled (ns/µs/ms/s) when the metric name ends in a phase-like
/// suffix; raw counts print unscaled.
pub fn render_table(snapshot: &Snapshot) -> String {
    let mut rows: Vec<[String; 6]> = vec![[
        "metric".into(),
        "count".into(),
        "mean".into(),
        "p50".into(),
        "p99".into(),
        "max/value".into(),
    ]];
    for (name, value) in &snapshot.metrics {
        match value {
            MetricValue::Counter(v) => rows.push([
                name.clone(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                v.to_string(),
            ]),
            MetricValue::Gauge(v) => rows.push([
                name.clone(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                v.to_string(),
            ]),
            MetricValue::Histogram(h) => {
                let fmt = |v: Option<u64>| v.map(format_ns).unwrap_or_else(|| "-".into());
                rows.push([
                    name.clone(),
                    h.count.to_string(),
                    h.mean()
                        .map(|m| format_ns(m as u64))
                        .unwrap_or_else(|| "-".into()),
                    fmt(h.p50()),
                    fmt(h.p99()),
                    if h.count == 0 {
                        "-".into()
                    } else {
                        format_ns(h.max)
                    },
                ]);
            }
        }
    }
    let mut widths = [0usize; 6];
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    for (i, row) in rows.iter().enumerate() {
        for (j, (cell, w)) in row.iter().zip(widths).enumerate() {
            if j > 0 {
                out.push_str("  ");
            }
            if j == 0 {
                let _ = write!(out, "{cell:<w$}");
            } else {
                let _ = write!(out, "{cell:>w$}");
            }
        }
        out.push('\n');
        if i == 0 {
            let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
            out.push_str(&"-".repeat(total));
            out.push('\n');
        }
    }
    out
}

/// Serializes a [`Trace`] in the Chrome trace-event JSON format.
///
/// The output is an object with a `traceEvents` array of `"X"` (complete)
/// events — one per span, `ts`/`dur` in microseconds with nanosecond
/// fractions — plus trace-level metadata.  It loads directly in
/// `chrome://tracing` and <https://ui.perfetto.dev>.  Span attributes
/// become the event's `args`; parent links are implied by the nesting of
/// the `ts`/`dur` intervals on the single synthetic thread, the way both
/// viewers reconstruct flame charts.
pub fn to_chrome_json(trace: &Trace) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, span) in trace.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":{},\"cat\":\"xseq\",\"ph\":\"X\",\
             \"ts\":{},\"dur\":{},\"pid\":1,\"tid\":1,\"args\":{{",
            json_string(span.name),
            micros(span.start_ns),
            micros(span.duration_ns()),
        );
        let mut first = true;
        if span.parent.is_none() {
            // root span: carry the trace identity where Perfetto shows it
            let _ = write!(
                out,
                "\"trace_id\":{},\"query\":{}",
                trace.id.0,
                json_string(&trace.name)
            );
            first = false;
        }
        for (key, value) in &span.attrs {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "{}:{}", json_string(key), attr_json(value));
        }
        out.push_str("}}");
    }
    let _ = write!(
        out,
        "],\"displayTimeUnit\":\"ns\",\
         \"otherData\":{{\"trace_id\":{},\"query\":{},\"total_ns\":{},\
         \"slow\":{}}}}}",
        trace.id.0,
        json_string(&trace.name),
        trace.total_ns,
        trace.slow,
    );
    out
}

/// Chrome's `ts`/`dur` are microseconds; keep nanosecond precision as a
/// three-digit fraction.
#[expect(clippy::integer_division_remainder_used, reason = "the divisor is the literal 1_000")]
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

pub(crate) fn attr_json(value: &AttrValue) -> String {
    match value {
        AttrValue::U64(v) => v.to_string(),
        AttrValue::I64(v) => v.to_string(),
        AttrValue::F64(v) => json_f64(*v),
        AttrValue::Str(s) => json_string(s),
    }
}

/// Formats a nanosecond quantity with a human-friendly unit.
pub fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    fn sample_snapshot() -> Snapshot {
        let reg = MetricsRegistry::new();
        reg.counter("a.count").add(3);
        reg.gauge("b.gauge").set(-4);
        let h = reg.histogram("c.lat");
        h.record(500);
        h.record(1500);
        reg.histogram("d.empty");
        reg.snapshot()
    }

    #[test]
    fn json_shape() {
        let json = to_json(&sample_snapshot());
        assert!(json.starts_with("{\n"));
        assert!(json.trim_end().ends_with('}'));
        assert!(json.contains("\"a.count\": {\"type\":\"counter\",\"value\":3}"));
        assert!(json.contains("\"b.gauge\": {\"type\":\"gauge\",\"value\":-4}"));
        assert!(json.contains("\"type\":\"histogram\",\"count\":2,\"sum\":2000"));
        assert!(json.contains("\"min\":500,\"max\":1500"));
        assert!(json.contains("\"mean\":1000.0"));
        // the empty histogram serializes quantiles as null
        assert!(json.contains("\"count\":0,\"sum\":0,\"min\":null"));
        // balanced braces/brackets (cheap well-formedness check)
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_string_escaping() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn table_contains_all_metrics() {
        let table = render_table(&sample_snapshot());
        for name in ["a.count", "b.gauge", "c.lat", "d.empty"] {
            assert!(table.contains(name), "{name} missing from:\n{table}");
        }
        assert!(table.contains("metric"));
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(format_ns(999), "999ns");
        assert_eq!(format_ns(1_500), "1.50us");
        assert_eq!(format_ns(2_500_000), "2.50ms");
        assert_eq!(format_ns(3_000_000_000), "3.00s");
    }
}
