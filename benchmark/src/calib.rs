//! Host-speed calibration.
//!
//! The machines this benchmark runs on are small virtual machines whose
//! neighbours slow them by tens of percent for seconds or minutes at a time:
//! the same query round takes 0.53 s one minute and 0.93 s the next.  A fixed
//! **reference kernel** — hashing, sorting and string formatting in plain
//! `std`, touching nothing of `xseq` — slows down with it (correlation 0.8 on
//! the development host), so it is run before and after every timed round and
//! the round's times are scaled by `NOMINAL / kernel time`.
//!
//! Every end-to-end time and rate is therefore reported **at reference
//! speed**: as it would read on a host that runs the kernel in exactly
//! [`NOMINAL_S`].  A change to `xseq` cannot touch the kernel, so comparing
//! two commits compares `xseq`; the raw medians are printed beside the
//! calibrated values.  Per-layer metrics of the traced run are raw.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's wall time on the development host (2 vCPU, 2.1 GHz Xeon)
/// when nothing interferes.
pub const NOMINAL_S: f64 = 0.025;

/// Runs the reference kernel once and returns its wall time in seconds.
/// About 6 MB of working set: hash inserts and lookups, an unstable sort,
/// and formatting numbers into short tagged strings.
fn kernel() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map: HashMap<u64, u64> = HashMap::new();
    let mut values = Vec::with_capacity(200_000);
    for i in 0..200_000u64 {
        let v = next();
        map.insert(v % 300_000, i);
        values.push(v);
    }
    let mut hits = 0u64;
    for i in 0..400_000u64 {
        if let Some(h) = map.get(&(next() % 300_000)) {
            hits += h ^ i;
        }
    }
    values.sort_unstable();
    let text: usize = values
        .iter()
        .take(20_000)
        .map(|n| format!("<a>{n}</a>").len())
        .sum();
    black_box((hits, text, values[100]));
    t0.elapsed().as_secs_f64()
}

/// The host's speed as the reference kernel sees it over one run.
#[derive(Debug, Default)]
pub struct Host {
    /// Every kernel time of the run, in seconds, in order.
    pub kernel_s: Vec<f64>,
}

impl Host {
    /// Runs the kernel and returns its time in seconds.
    pub fn probe(&mut self) -> f64 {
        let s = kernel();
        self.kernel_s.push(s);
        s
    }
}

/// The factor that brings a time measured between two probes to reference
/// speed: multiply a time by it, divide a rate by it.
pub fn factor(before_s: f64, after_s: f64) -> f64 {
    NOMINAL_S / ((before_s + after_s) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_host_at_nominal_speed_changes_nothing() {
        assert_eq!(factor(NOMINAL_S, NOMINAL_S), 1.0);
        // a host twice as slow: its times are halved
        assert_eq!(factor(2.0 * NOMINAL_S, 2.0 * NOMINAL_S), 0.5);
        let mut host = Host::default();
        assert!(host.probe() > 0.0);
        assert_eq!(host.kernel_s.len(), 1);
    }
}
