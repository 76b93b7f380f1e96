//! The diagnostics surface: the flight recorder and the one-call
//! diagnostics bundle (DESIGN.md §13).

use crate::{Database, EventJournal, Sequencing, Trace};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// What [`Database::diagnostics`] wrote: the bundle directory and every
/// artifact file name inside it, in write order (`manifest.json` last).
#[derive(Debug, Clone)]
pub struct DiagnosticsReport {
    /// The bundle directory.
    pub dir: PathBuf,
    /// File names written inside [`DiagnosticsReport::dir`].
    pub files: Vec<&'static str>,
}

/// Serializes traces as one JSON array of Chrome trace-event objects.
fn traces_json(traces: &[Arc<Trace>]) -> String {
    let mut out = String::from("[");
    for (i, t) in traces.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&xseq_telemetry::to_chrome_json(t));
    }
    out.push(']');
    out
}

impl Database {
    /// The flight recorder: a bounded, always-on journal of
    /// severity-levelled lifecycle milestones — builds, tier merges,
    /// compactions, configuration changes, integrity violations and slow
    /// queries — exportable as JSON Lines via [`EventJournal::to_jsonl`].
    /// Per-document inserts and removals are not events: the
    /// `update.insert` / `update.remove` histograms count and time them.
    pub fn events(&self) -> &EventJournal {
        &self.events
    }

    /// Writes a self-contained diagnostics bundle into `dir` (created if
    /// missing), six files: the metric snapshot as JSON, the stats report
    /// (heap attribution per shard included), the workload profile, the
    /// slow-query log as Chrome trace JSON, the flight-recorder journal as
    /// JSON Lines, and a build/config manifest.  One call captures
    /// everything a bug report needs; `repro --diag DIR` wraps it on the
    /// command line and `cargo xtask diagcheck DIR` validates it.
    pub fn diagnostics(&self, dir: impl AsRef<Path>) -> std::io::Result<DiagnosticsReport> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        // stats() first: it refreshes the memory.* gauges the metric
        // snapshot below then sees.
        let stats = self.stats();
        let snap = self.metrics();
        let mut artifacts: Vec<(&'static str, String)> = vec![
            ("metrics.json", xseq_telemetry::to_json(&snap)),
            ("stats.txt", stats.render()),
            ("workload.json", stats.workload.to_json()),
            ("traces_slow.json", traces_json(&self.slow_queries())),
            ("events.jsonl", self.events.to_jsonl()),
        ];
        let manifest = self.manifest_json(&artifacts);
        artifacts.push(("manifest.json", manifest));
        let mut files = Vec::with_capacity(artifacts.len());
        for (name, contents) in &artifacts {
            std::fs::write(dir.join(name), contents)?;
            files.push(*name);
        }
        Ok(DiagnosticsReport {
            dir: dir.to_path_buf(),
            files,
        })
    }

    /// The bundle manifest: build/config provenance plus the artifact
    /// listing (itself included).
    fn manifest_json(&self, artifacts: &[(&'static str, String)]) -> String {
        let sequencing = match self.config.sequencing {
            Sequencing::DepthFirst => "depth_first",
            Sequencing::Probability => "probability",
        };
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"version\":\"{}\",\"sequencing\":\"{}\",\"threads\":{},\"shards\":{},\"docs\":{},\"paths\":{}",
            env!("CARGO_PKG_VERSION"),
            sequencing,
            self.pool.threads(),
            self.shards.len(),
            self.len(),
            self.shards.iter().map(|sh| sh.corpus.paths.len()).sum::<usize>()
        );
        let _ = write!(
            out,
            ",\"tracing\":{},\"profiling\":{}",
            self.tracer.is_some(),
            self.workload.is_some()
        );
        match self.slow_query_threshold() {
            Some(t) => {
                let _ = write!(out, ",\"slow_threshold_ns\":{}", t.as_nanos());
            }
            None => out.push_str(",\"slow_threshold_ns\":null"),
        }
        let _ = write!(out, ",\"event_capacity\":{}", self.events.capacity());
        out.push_str(",\"files\":[");
        for (i, name) in artifacts
            .iter()
            .map(|(n, _)| *n)
            .chain(["manifest.json"])
            .enumerate()
        {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\"");
        }
        out.push_str("]}");
        out
    }
}
