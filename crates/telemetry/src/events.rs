//! Flight recorder: a bounded journal of structured lifecycle events.
//!
//! Metrics say how much, traces say where the time went; the flight
//! recorder says *what happened* — builds, tier merges and compactions,
//! configuration changes, integrity violations, slow queries.  Each
//! [`Event`] is a severity-levelled, structured record with typed
//! [`AttrValue`] attributes; the [`EventJournal`] retains the most recent
//! events in the same bounded buffer the tracer's logs use.  Events
//! are milestones, not per-document traffic: whatever happens thousands of
//! times a second belongs in a histogram, or it evicts every milestone from
//! the journal within milliseconds.
//!
//! Event names follow the span-name grammar (`seg(.seg)*`, segments
//! `[a-z][a-z0-9_]*`), checked over a full pipeline run by
//! `tests/integration_observability.rs`.  The journal exports as JSON
//! Lines ([`EventJournal::to_jsonl`]) — one self-describing JSON object per
//! line — which is what lands in the diagnostics bundle as
//! `events.jsonl`.

use crate::export::{attr_json, json_string};
use crate::retention::Retention;
use crate::trace::AttrValue;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Event severity, ordered from least to most severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Routine lifecycle detail (tier merges).
    Debug,
    /// Normal operational milestones (builds, compactions, config changes).
    Info,
    /// Conditions worth an operator's attention (slow queries).
    Warn,
    /// Invariant violations (integrity check failures).
    Error,
}

impl Severity {
    /// The lowercase wire name (`"debug"`, `"info"`, `"warn"`, `"error"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Debug => "debug",
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }

    fn index(self) -> usize {
        match self {
            Severity::Debug => 0,
            Severity::Info => 1,
            Severity::Warn => 2,
            Severity::Error => 3,
        }
    }
}

/// One structured flight-recorder event.
///
/// Built fluently — `Event::new("compact.finish").attr("docs", 42u64)` —
/// then stamped with a sequence number and journal-relative timestamp by
/// [`EventJournal::record`].  Names are `&'static str` dotted paths from a
/// fixed taxonomy (see DESIGN.md §13), so recording never allocates for
/// the name and the lint can check literals at the call site.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Journal-wide sequence number (1-based), stamped on record.
    pub seq: u64,
    /// Nanoseconds since the journal was created, stamped on record.
    pub elapsed_ns: u64,
    /// Severity level.
    pub severity: Severity,
    /// Dotted event name from the taxonomy (`compact.start`, `query.slow`, …).
    pub name: &'static str,
    /// Free-form human detail (query text, violation summary); may be empty.
    pub message: String,
    /// Typed attributes in insertion order.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl Event {
    /// A new `Info` event named `name` with no message or attributes.
    pub fn new(name: &'static str) -> Self {
        Event {
            seq: 0,
            elapsed_ns: 0,
            severity: Severity::Info,
            name,
            message: String::new(),
            attrs: Vec::new(),
        }
    }

    /// Sets the severity.
    pub fn severity(mut self, severity: Severity) -> Self {
        self.severity = severity;
        self
    }

    /// Sets the free-form message.
    pub fn message(mut self, message: impl Into<String>) -> Self {
        self.message = message.into();
        self
    }

    /// Appends a typed attribute.
    pub fn attr(mut self, key: &'static str, value: impl Into<AttrValue>) -> Self {
        self.attrs.push((key, value.into()));
        self
    }

    /// Serializes this event as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            "{{\"seq\":{},\"elapsed_ns\":{},\"severity\":{},\"name\":{}",
            self.seq,
            self.elapsed_ns,
            json_string(self.severity.as_str()),
            json_string(self.name)
        );
        if !self.message.is_empty() {
            let _ = write!(out, ",\"message\":{}", json_string(&self.message));
        }
        if !self.attrs.is_empty() {
            out.push_str(",\"attrs\":{");
            for (i, (k, v)) in self.attrs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}:{}", json_string(k), attr_json(v));
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

/// Per-severity and total record counts of a journal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Events recorded since the journal was created (including evicted).
    pub recorded: u64,
    /// Recorded counts by severity: `[debug, info, warn, error]`.
    pub by_severity: [u64; 4],
}

/// Bounded flight-recorder journal.
///
/// Recording evicts the oldest event when full.  Reads are
/// non-destructive: [`events`](Self::events) returns the retained window
/// oldest-first and can be called repeatedly.
#[derive(Debug)]
pub struct EventJournal {
    started: Instant,
    next_seq: AtomicU64,
    by_severity: [AtomicU64; 4],
    retained: Retention<Arc<Event>>,
}

impl EventJournal {
    /// A journal retaining the most recent `capacity` events (clamped ≥ 1).
    pub fn new(capacity: usize) -> Self {
        EventJournal {
            started: Instant::now(),
            next_seq: AtomicU64::new(1),
            by_severity: [
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
            ],
            retained: Retention::new(capacity),
        }
    }

    /// The retention capacity.
    pub fn capacity(&self) -> usize {
        self.retained.capacity()
    }

    /// Stamps `event` with its sequence number and journal-relative
    /// timestamp, records it, and returns the shared stamped event.
    #[expect(clippy::indexing_slicing, reason = "Severity::index is 0..4; by_severity is [_; 4]")]
    pub fn record(&self, mut event: Event) -> Arc<Event> {
        // ORDERING: id — sequence uniqueness needs only fetch_add atomicity.
        event.seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        event.elapsed_ns = self.started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        // ORDERING: counter — per-severity tallies are independent statistics.
        self.by_severity[event.severity.index()].fetch_add(1, Ordering::Relaxed);
        let event = Arc::new(event);
        self.retained.push(event.clone());
        event
    }

    /// Record counts so far.
    pub fn counts(&self) -> EventCounts {
        // ORDERING: counter — advisory reads of independent statistics.
        let by_severity = [
            self.by_severity[0].load(Ordering::Relaxed),
            self.by_severity[1].load(Ordering::Relaxed),
            self.by_severity[2].load(Ordering::Relaxed),
            self.by_severity[3].load(Ordering::Relaxed),
        ];
        EventCounts {
            recorded: by_severity.iter().sum(),
            by_severity,
        }
    }

    /// The retained events, oldest first (at most
    /// [`capacity`](Self::capacity), the most recent ones).
    pub fn events(&self) -> Vec<Arc<Event>> {
        self.retained.snapshot()
    }

    /// Exports the retained events as JSON Lines: one JSON object per line,
    /// oldest first, with a trailing newline when non-empty.
    pub fn to_jsonl(&self) -> String {
        let events = self.events();
        let mut out = String::with_capacity(events.len() * 96);
        for e in &events {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_and_stamping() {
        let j = EventJournal::new(8);
        let e = j.record(
            Event::new("compact.start")
                .severity(Severity::Warn)
                .message("forced")
                .attr("docs", 3u64),
        );
        assert_eq!(e.seq, 1);
        assert_eq!(e.severity, Severity::Warn);
        assert_eq!(e.name, "compact.start");
        assert_eq!(e.message, "forced");
        assert_eq!(e.attrs, vec![("docs", AttrValue::U64(3))]);
        let e2 = j.record(Event::new("compact.finish"));
        assert_eq!(e2.seq, 2);
        assert_eq!(e2.severity, Severity::Info, "Info is the default");
        assert!(e2.elapsed_ns >= e.elapsed_ns);
    }

    #[test]
    fn retention_evicts_oldest_and_reads_are_stable() {
        let j = EventJournal::new(4);
        for i in 0..10u64 {
            j.record(Event::new("ingest.insert").attr("doc", i));
        }
        let events = j.events();
        assert_eq!(events.len(), 4, "capacity bounds the journal");
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9, 10], "oldest first, newest retained");
        assert_eq!(j.events().len(), 4, "non-destructive reads");
        assert_eq!(j.counts().recorded, 10);
        assert_eq!(j.counts().by_severity, [0, 10, 0, 0]);
    }

    #[test]
    fn jsonl_shape() {
        let j = EventJournal::new(4);
        j.record(
            Event::new("query.slow")
                .severity(Severity::Warn)
                .message("//a[\"x\"]/b")
                .attr("total_ns", 1234u64)
                .attr("ratio", 1.5f64),
        );
        let jsonl = j.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 1);
        assert_eq!(
            lines[0],
            "{\"seq\":1,\"elapsed_ns\":ELAPSED,\"severity\":\"warn\",\"name\":\"query.slow\",\
             \"message\":\"//a[\\\"x\\\"]/b\",\"attrs\":{\"total_ns\":1234,\"ratio\":1.5}}"
                .replace("ELAPSED", &j.events()[0].elapsed_ns.to_string())
        );
    }

    #[test]
    fn empty_message_and_attrs_are_omitted() {
        let j = EventJournal::new(2);
        let e = j.record(Event::new("ingest.build"));
        assert!(!e.to_json().contains("message"));
        assert!(!e.to_json().contains("attrs"));
    }

    #[test]
    fn severity_order_and_names() {
        assert!(Severity::Debug < Severity::Info);
        assert!(Severity::Info < Severity::Warn);
        assert!(Severity::Warn < Severity::Error);
        assert_eq!(Severity::Error.as_str(), "error");
    }
}
