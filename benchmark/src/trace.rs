//! In-memory spans recorded by the benchmark around its calls into `xseq`.
//!
//! Nothing inside the program under test is instrumented: a span is opened
//! and closed here, in the benchmark's own code, around a public call.  Spans
//! stay in memory and are written once, when the traced run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in [`Spans`]; doubles as its Chrome-trace id.
pub type SpanId = u32;

const NO_PARENT: SpanId = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one ([`NO_PARENT`] for a root).
    pub parent: SpanId,
    /// Spans of one operation share its identifier.
    pub op: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span log of one traced run.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    /// Class label of each operation, indexed by operation id.
    op_class: Vec<String>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op_class: Vec::new(),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a new operation (one `Database` call and its staged replay)
    /// labelled `class`, and opens its root span.
    pub fn begin_op(&mut self, class: &str) -> SpanId {
        self.op_class.push(class.to_owned());
        self.open("op")
    }

    /// Opens a span under the innermost open span of the current operation.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len() as SpanId;
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            op: self.op_class.len().saturating_sub(1) as u32,
        };
        self.spans.push(span);
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span, and returns its
    /// duration in nanoseconds.
    pub fn close(&mut self, id: SpanId) -> u64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let end = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end;
        span.dur_ns()
    }

    /// Times `f` under a span named `name`.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.open(name);
        let value = f();
        (value, self.close(id))
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Self time per span: its duration minus the part its children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = &mut own[s.parent as usize];
                *p = p.saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Per operation class and span name: count, total and self time.
    pub fn class_table(&self) -> BTreeMap<(String, &'static str), ClassRow> {
        let own = self.self_ns();
        let mut table: BTreeMap<(String, &'static str), ClassRow> = BTreeMap::new();
        for (s, &self_ns) in self.spans.iter().zip(&own) {
            let class = self.op_class[s.op as usize].clone();
            let row = table.entry((class, s.name)).or_default();
            row.count += 1;
            row.total_ns += s.dur_ns();
            row.self_ns += self_ns;
        }
        table
    }

    /// The per-class table as text, one line per (class, span name).
    pub fn render_class_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<34} {:<22} {:>8} {:>12} {:>12}",
            "class", "span", "count", "mean_ns", "self_mean_ns"
        );
        for ((class, name), row) in self.class_table() {
            let _ = writeln!(
                out,
                "{:<34} {:<22} {:>8} {:>12} {:>12}",
                class,
                name,
                row.count,
                row.total_ns / row.count,
                row.self_ns / row.count
            );
        }
        out
    }

    /// The span log as Chrome trace-event JSON (complete `X` events; `args`
    /// carry the span id, its parent and the operation id and class).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 160);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},",
                s.name,
                s.start_ns as f64 / 1000.0,
                s.dur_ns() as f64 / 1000.0,
                id,
            );
            if s.parent != NO_PARENT {
                let _ = write!(out, "\"parent\":{},", s.parent);
            }
            let _ = write!(
                out,
                "\"op\":{},\"class\":\"{}\"}}}}",
                s.op,
                json_escape(&self.op_class[s.op as usize])
            );
        }
        out.push_str("]}");
        out
    }
}

/// One row of the per-class table.
#[derive(Debug, Default, Clone, Copy)]
pub struct ClassRow {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut spans = Spans::default();
        let root = spans.begin_op("q");
        let (_, child_ns) = spans.scope("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let root_ns = spans.close(root);
        let table = spans.class_table();
        let row = table[&("q".to_owned(), "op")];
        assert_eq!(row.total_ns, root_ns);
        assert_eq!(row.self_ns, root_ns - child_ns);
        assert!(spans.to_chrome_json().contains("\"parent\":0"));
    }
}
