//! RAII phase timing.

use crate::metrics::Histogram;
use std::sync::Arc;
use std::time::Instant;

/// An RAII guard that records the elapsed wall time into a [`Histogram`]
/// (as nanoseconds) when dropped.
///
/// ```
/// use xseq_telemetry::{Histogram, SpanTimer};
/// use std::sync::Arc;
///
/// let h = Arc::new(Histogram::new());
/// {
///     let _span = SpanTimer::new(h.clone());
///     // ... timed work ...
/// }
/// assert_eq!(h.count(), 1);
/// ```
#[derive(Debug)]
pub struct SpanTimer {
    sink: Arc<Histogram>,
    start: Instant,
    armed: bool,
}

impl SpanTimer {
    /// Starts timing; the sample is recorded into `sink` on drop.
    pub fn new(sink: Arc<Histogram>) -> Self {
        SpanTimer {
            sink,
            start: Instant::now(),
            armed: true,
        }
    }

    /// Elapsed time so far, in nanoseconds.
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Records now and disarms the drop, returning the sample recorded.
    pub fn finish(mut self) -> u64 {
        let ns = self.elapsed_ns();
        self.sink.record(ns);
        self.armed = false;
        ns
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if self.armed {
            self.sink.record(self.elapsed_ns());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_records_once() {
        let h = Arc::new(Histogram::new());
        {
            let _t = SpanTimer::new(h.clone());
        }
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn finish_disarms_drop() {
        let h = Arc::new(Histogram::new());
        let t = SpanTimer::new(h.clone());
        let ns = t.finish();
        assert_eq!(h.count(), 1);
        assert_eq!(h.snapshot().sum, ns);
    }
}
