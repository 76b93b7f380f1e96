//! # xseq-index — the constraint-sequence XML index
//!
//! The paper's index (Section 4): a trie over constraint sequences with
//! preorder range labels and horizontal path links ([`trie`]), searched by
//! the order-free form of constraint subsequence matching
//! ([`search::tree_search`], DESIGN.md §5.0), fed by a query planner that
//! instantiates wildcards against the path dictionary ([`plan`]).  The
//! paper's ordered Algorithm 1 and ViST's naïve matching live beside the
//! baselines they are compared with, in `xseq-baselines`.
//!
//! [`XmlIndex`] packages the pieces behind the interface the paper
//! advertises in its introduction:
//!
//! ```text
//! Tree Pattern ⇒ P(Doc Ids)
//! ```
//!
//! — the tree pattern is the basic query unit; no join operations, no
//! per-document post-processing, no false alarms.
//!
//! [`verify`] is the `xseq-check` invariant verifier: it exhaustively
//! validates a built index (label nesting, link order/coverage,
//! sibling-cover bookkeeping, stored-sequence `f2`/round-trip) and reports
//! violations with trie-node/serial coordinates.

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

pub mod delta;
pub mod plan;
pub mod search;
pub mod stats;
pub mod telemetry;
pub mod trie;
pub mod verify;

pub use delta::{
    DeltaView, MergeOutcome, TieredDelta, Tombstones, DEFAULT_MEMTABLE_LIMIT, DEFAULT_TIER_RATIO,
};
pub use plan::{instantiate, PlanOptions};
pub use search::{
    filter_tombstones, tree_search, tree_search_with, union_answers, Answer, QuerySequence,
    SearchScratch, SearchStats,
};
pub use stats::{index_stats, IndexStats, SegmentStats};
pub use telemetry::IndexTelemetry;
pub use trie::{LinkEntry, PathLink, SequenceTrie, TrieNodeId, TrieView, NIL};
pub use verify::{verify_trie, verify_trie_structure, IntegrityReport, InvariantClass, Violation};

use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;
use xseq_sequence::{emit_sequence, sequence_document, Strategy};
use xseq_telemetry::Trace;
use xseq_xml::{DocId, Document, PathId, PathTable, TreePattern};

/// Aggregated statistics of one pattern query.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryStats {
    /// Wildcard assignments produced by the planner: one concrete path per
    /// pattern node.
    pub instantiations: u64,
    /// Plans cut short by [`PlanOptions::max_assignments`], the one cap a
    /// database query has (0 or 1 per index, summed over shards).  Nonzero
    /// means assignments were dropped and the answer may be incomplete.
    pub plan_truncated: u64,
    /// Query sequences searched: one per assignment, so always equal to
    /// `instantiations`.
    pub variants: u64,
    /// Summed matcher counters.
    pub search: SearchStats,
    /// Wall time of the XPath parse (`query.parse`), ns — filled in by the
    /// caller that parsed; 0 for a pre-built pattern.
    pub parse_ns: u64,
    /// Wall time of wildcard instantiation (`index.plan`), nanoseconds.
    pub plan_ns: u64,
    /// Wall time of taking the overlay view (`delta.view`), ns — the
    /// first query after a write re-freezes the memtable view here.
    pub view_ns: u64,
    /// Wall time of constraint matching (`index.search`), ns.
    pub search_ns: u64,
    /// Wall time of reading the answer out (`index.gather`), ns: each
    /// index's [`Answer::finish`], plus the union of the shards' answers
    /// when there is more than one.
    pub gather_ns: u64,
    /// Wall time of the whole query, ns — filled in by the `Database` when
    /// it measures one (profiling, a slow-query threshold or tracing is
    /// on); 0 otherwise.
    pub total_ns: u64,
}

/// One timed step of a query, recorded whether or not anyone traces it:
/// the phase, the start its own clock read took, its duration, and what
/// it produced.  A query's steps are the one record its [`QueryStats`]
/// phase times, `explain()` and its trace are read from.
#[derive(Debug, Clone, Copy)]
pub struct QueryStep {
    /// The phase, by its span name (DESIGN.md §8): `query.parse`,
    /// `index.plan`, `delta.view`, `trie.descent` (the frozen trie),
    /// `trie.descent.delta` (an overlay segment) or `index.gather`.
    pub phase: &'static str,
    /// When it started.
    pub start: Instant,
    /// How long it took, nanoseconds.
    pub ns: u64,
    /// The matcher's counters (descents; zero otherwise).
    pub search: SearchStats,
    /// What it produced: documents matched (descents), documents answered
    /// (gather), assignments (plan), pattern nodes (parse — 0 when a
    /// symbol is unknown, which proves the answer empty).
    pub count: u64,
}

impl QueryStep {
    /// A step of `phase` that started at `start` and ends now.
    pub fn new(phase: &'static str, start: Instant) -> Self {
        QueryStep {
            phase,
            start,
            ns: start.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            search: SearchStats::default(),
            count: 0,
        }
    }
}

/// Result of a pattern query.
#[derive(Debug, Clone, Default)]
pub struct QueryOutcome {
    /// Matching document ids, sorted, deduplicated.
    pub docs: Vec<DocId>,
    /// Work counters.
    pub stats: QueryStats,
    /// This query's trace, when it ran under a tracer.
    pub trace: Option<Arc<Trace>>,
    /// Post-query integrity spot check, when one fired (off by default;
    /// enabled via `DatabaseBuilder::integrity_spot_check`).
    pub integrity: Option<IntegrityReport>,
    /// The schema node classes `C` this query touched: the distinct
    /// [`PathId`]s its pattern nodes were assigned, sorted.
    /// This is the classification the workload profiler accumulates
    /// (Eq. 6's `w(C)` is keyed by exactly these ids).
    pub classes: Vec<PathId>,
    /// Every timed step, in the order it ran (shard after shard).
    pub steps: Vec<QueryStep>,
}

impl QueryOutcome {
    /// Renders this query's work breakdown — phase latencies and matcher
    /// counters — as a small text report (an EXPLAIN of what the index did).
    /// The rows sum to the wall time: the timed phases plus what none of
    /// them accounts for, clamped at 0 (so the rows sum to the phases when
    /// the wall time is unknown, or when parallel shards' phases overlap
    /// past it).
    pub fn explain(&self) -> String {
        let st = &self.stats;
        let phases = [
            ("query.parse", st.parse_ns),
            ("index.plan", st.plan_ns),
            ("delta.view", st.view_ns),
            ("index.search", st.search_ns),
            ("index.gather", st.gather_ns),
        ];
        let timed: u64 = phases.iter().map(|&(_, ns)| ns).sum();
        let unattributed = ("unattributed", st.total_ns.saturating_sub(timed));
        let total = timed + unattributed.1;
        let mut out = String::new();
        let _ = writeln!(out, "query: {} matching document(s)", self.docs.len());
        for (phase, ns) in phases.into_iter().chain([unattributed]) {
            let pct = ns as f64 * 100.0 / total.max(1) as f64;
            let _ = writeln!(
                out,
                "  {phase:<16} {:>10}  ({pct:>5.1}%)",
                xseq_telemetry::format_ns(ns),
            );
        }
        // A database query searches one variant per instantiation; only an
        // expanding search (the baselines' `ordered_query`) has more.
        let _ = write!(out, "  instantiations {}", st.instantiations);
        if st.variants != st.instantiations {
            let _ = write!(out, " | variants {}", st.variants);
        }
        let s = &st.search;
        let _ = writeln!(
            out,
            " | candidates {} | cover rejections {} | completions {} | link probes {}",
            s.candidates, s.cover_rejections, s.completions, s.link_probes
        );
        if st.plan_truncated > 0 {
            out.push_str("  plan TRUNCATED by its caps: the answer may be incomplete\n");
        }
        // Candidates per searched variant: its frozen descent opens the
        // entry, its overlay descents add to it.
        let mut descents: Vec<u64> = Vec::new();
        for step in &self.steps {
            match (step.phase, descents.last_mut()) {
                ("trie.descent", _) => descents.push(step.search.candidates),
                ("trie.descent.delta", Some(last)) => *last += step.search.candidates,
                _ => {}
            }
        }
        let fmt_list = |vals: &mut dyn Iterator<Item = u64>| {
            const SHOWN: usize = 16;
            let mut shown: Vec<String> = vals.take(SHOWN + 1).map(|v| v.to_string()).collect();
            if let Some(overflow) = shown.get_mut(SHOWN) {
                *overflow = "…".into();
            }
            format!("[{}]", shown.join(" "))
        };
        let _ = writeln!(
            out,
            "  stats: results {} | classes {} | descents/variant {}",
            self.docs.len(),
            fmt_list(&mut self.classes.iter().map(|c| u64::from(c.0))),
            fmt_list(&mut descents.into_iter()),
        );
        if let Some(report) = &self.integrity {
            out.push_str(&report.render());
        }
        out
    }
}

/// The sequence-based XML index.
///
/// Since the update subsystem (DESIGN.md §11, tiered in §16) an index is
/// the bulk-built frozen trie plus a tiered [`TieredDelta`] overlay fed by
/// [`XmlIndex::insert_delta`] — a raw-sequence memtable, frozen runs and
/// merged tiers — with removed documents tracked in its [`Tombstones`]
/// set.  Every query borrows the overlay once
/// ([`TieredDelta::delta_view`]) and runs over *frozen ∪ segments −
/// tombstones*; compaction (at the `Database` layer) folds the overlay
/// back into a single frozen segment.  Writes take `&mut self`, queries
/// `&self`.
#[derive(Debug)]
pub struct XmlIndex {
    trie: SequenceTrie,
    strategy: Strategy,
    /// Distinct path encodings of indexed data — the path dictionary used
    /// for wildcard instantiation.  Covers every segment.
    data_paths: HashSet<PathId>,
    options: PlanOptions,
    telemetry: Option<IndexTelemetry>,
    /// The tiered update overlay (post-build insertions + tombstones).
    delta: TieredDelta,
    /// One past the largest document id indexed, in any segment: the
    /// space a query's [`Answer`] bitmap spans.
    id_space: usize,
}

impl XmlIndex {
    /// Builds an index over `docs` with the given sequencing strategy:
    /// [`XmlIndex::build_parallel`] in place, with no registry wiring.
    pub fn build(
        docs: &[Document],
        paths: &mut PathTable,
        strategy: Strategy,
        options: PlanOptions,
    ) -> Self {
        let pool = xseq_exec::Pool::default();
        Self::build_parallel(docs, paths, strategy, options, None, &pool)
    }

    /// [`XmlIndex::build_encoded`] over documents that are not encoded
    /// yet: path-encodes them first — one serial pass in document order, so
    /// [`PathId`]s are first-occurrence ids whatever the pool width.
    pub fn build_parallel(
        docs: &[Document],
        paths: &mut PathTable,
        strategy: Strategy,
        options: PlanOptions,
        telemetry: Option<IndexTelemetry>,
        pool: &xseq_exec::Pool,
    ) -> Self {
        let enc: Vec<_> = docs.iter().map(|doc| doc.path_encode(paths)).collect();
        Self::build_encoded(docs, &enc, strategy, options, telemetry, pool)
    }

    /// The one constructor — the paper's pipeline (Sections 2, 4.1) over a
    /// path-encoded corpus (`enc[i]` is `docs[i].path_encode(..)`): order
    /// every document's nodes under `f2` with the strategy, load the
    /// sequences into the trie and freeze it (sort, preorder nodes, labels
    /// + path links), so the index is immediately queryable.
    ///
    /// Interning happened strictly before — the database's build encodes
    /// its corpus once and hands the same encodings to the probability
    /// estimate and to this.  Emission is pure in `(doc, enc, strategy)`
    /// and fans out over `pool`, which returns results in input order (and
    /// runs in place when it is one wide), so the frozen index is
    /// bit-identical at any thread count (DESIGN.md §10.2).
    ///
    /// With `telemetry`, each document's emission time is sampled into
    /// `sequence.encode`, and every later query flushes its phase timings
    /// and work counters through it.
    pub fn build_encoded(
        docs: &[Document],
        enc: &[Vec<PathId>],
        strategy: Strategy,
        options: PlanOptions,
        telemetry: Option<IndexTelemetry>,
        pool: &xseq_exec::Pool,
    ) -> Self {
        debug_assert_eq!(docs.len(), enc.len(), "one encoding per document");
        let encoded: Vec<_> = docs.iter().zip(enc).collect();
        let emitted = pool.map(&encoded, |id, (doc, enc)| {
            let t0 = Instant::now();
            let (seq, _) = emit_sequence(doc, enc, &strategy);
            ((seq, id as DocId), t0.elapsed())
        });
        let (seqs, encode_times): (Vec<_>, Vec<_>) = emitted.into_iter().unzip();
        if let Some(tel) = &telemetry {
            for took in encode_times {
                tel.encode.record_duration(took);
            }
        }
        let mut trie = SequenceTrie::new();
        trie.bulk_load(seqs);
        trie.freeze();
        // The distinct paths of a frozen segment are exactly its link keys.
        let data_paths = trie.frozen().links.keys().copied().collect();
        XmlIndex {
            trie,
            strategy,
            data_paths,
            options,
            telemetry,
            delta: TieredDelta::new(),
            id_space: docs.len(),
        }
    }

    /// Attaches (or replaces) the registry wiring of an existing index.
    pub fn attach_telemetry(&mut self, telemetry: IndexTelemetry) {
        self.telemetry = Some(telemetry);
    }

    /// The attached registry wiring, if any.
    pub fn telemetry(&self) -> Option<&IndexTelemetry> {
        self.telemetry.as_ref()
    }

    /// Appends one document to the **update overlay** — an `O(1)` amortized
    /// memtable push that keeps the frozen trie untouched and the whole
    /// index queryable.
    ///
    /// The document is sequenced with the index's own strategy against the
    /// shared path table (new paths intern here, never at query time), its
    /// paths join the wildcard dictionary, and the raw sequence lands in
    /// the overlay's memtable — so the very next query sees *frozen ∪
    /// segments*.
    pub fn insert_delta(&mut self, doc: &Document, id: DocId, paths: &mut PathTable) {
        let t0 = self.telemetry.as_ref().map(|_| Instant::now());
        let seq = sequence_document(doc, paths, &self.strategy);
        if let (Some(t), Some(tel)) = (t0, self.telemetry.as_ref()) {
            tel.encode.record_duration(t.elapsed());
        }
        self.data_paths.extend(seq.elems().iter().copied());
        self.id_space = self.id_space.max(id as usize + 1);
        self.delta.insert(seq, id);
    }

    /// Tombstones a document id: it stops appearing in query results
    /// immediately, merges resolve it out of the runs they fold,
    /// and compaction drops it for good.  Returns `false` when `id` was
    /// already tombstoned.
    pub fn remove_doc(&mut self, id: DocId) -> bool {
        self.delta.remove(id)
    }

    /// The tiered update overlay (post-build insertions + tombstones).
    pub fn delta(&self) -> &TieredDelta {
        &self.delta
    }

    /// A borrowed view of the overlay's segment set — what every query
    /// holds for its whole run.
    pub fn delta_view(&self) -> DeltaView<'_> {
        self.delta.delta_view()
    }

    /// Applies tiering knobs (memtable cut threshold, per-tier fan-in) to
    /// the overlay.
    pub fn configure_delta(&self, memtable_limit: usize, tier_ratio: usize) {
        self.delta.configure(memtable_limit, tier_ratio);
    }

    /// Attempts one overlay tier merge — see [`TieredDelta::maybe_merge`].
    pub fn maybe_merge(&mut self) -> Option<MergeOutcome> {
        self.delta.maybe_merge()
    }

    /// The tombstoned document ids.
    pub fn tombstones(&self) -> &Tombstones {
        self.delta.tombstones()
    }

    /// Outstanding update volume: overlay sequences plus tombstones — what
    /// a caller's compaction policy measures.
    pub fn pending_updates(&self) -> usize {
        self.delta.sequence_count() + self.delta.tombstones().len()
    }

    /// Answers a tree-pattern query by order-free constraint matching
    /// ([`search::tree_search`]): wildcard assignment against the path
    /// dictionary, one search per assignment, union.
    ///
    /// Sound and complete for every valid sequencing strategy, with no
    /// isomorphism expansion (see the `tree_search` docs for why the
    /// order-free formulation subsumes it).
    ///
    /// Takes `&self` and a shared path table: queries never intern, so any
    /// number of threads may query one frozen index concurrently.
    pub fn query(&self, pattern: &TreePattern, paths: &PathTable) -> QueryOutcome {
        self.query_with(pattern, paths, &mut SearchScratch::new())
    }

    /// The index shape report: a read-only statistics walk over
    /// *frozen ∪ delta* (see [`stats::IndexStats`]).
    pub fn stats(&self) -> IndexStats {
        stats::index_stats(self)
    }

    /// [`XmlIndex::query`] against a caller-owned [`SearchScratch`], reusing
    /// its buffers across calls (one scratch per thread, e.g. per batch
    /// worker).  Each phase is timed once, into a [`QueryStep`] of the
    /// outcome: the plan, the overlay view, every segment's descent and the
    /// gather.
    ///
    /// Every (assignment, segment) search adds its documents to the
    /// scratch's one [`Answer`], and the gather reads it out once, minus
    /// the tombstones.
    ///
    /// Each wildcard assignment is searched as it is: element `n` of its
    /// query sequence is pattern node `n` on its assigned path, under its
    /// pattern parent (ids are parents first).  No concrete tree is built,
    /// merge-expanded or sequenced — the order-free search reads only paths
    /// and parents, and a `//` edge's cover condition holds at any length
    /// (DESIGN.md §5.0).
    pub fn query_with(
        &self,
        pattern: &TreePattern,
        paths: &PathTable,
        scratch: &mut SearchScratch,
    ) -> QueryOutcome {
        let mut outcome = QueryOutcome::default();
        let t0 = Instant::now();
        let (asgs, truncated) = plan::assignments(pattern, paths, &self.data_paths, &self.options);
        let parent_pos = pattern.node_ids().map(|n| pattern.parent(n)).collect();
        let mut plan = QueryStep::new("index.plan", t0);
        plan.count = asgs.len() as u64;
        // One overlay view for the whole query: every variant searches the
        // same segment set, which no write can change while it is borrowed.
        // Timed: after a write this is where the memtable view re-freezes.
        let t0 = Instant::now();
        let delta_view = self.delta.delta_view();
        let view = QueryStep::new("delta.view", t0);
        outcome.stats.instantiations = plan.count;
        outcome.stats.variants = plan.count;
        outcome.stats.plan_truncated = u64::from(truncated);
        outcome.stats.plan_ns = plan.ns;
        outcome.stats.view_ns = view.ns;
        // The frozen trie first, then every overlay segment.
        let segments: Vec<(&str, &SequenceTrie)> = std::iter::once(("trie.descent", &self.trie))
            .chain(delta_view.segments().map(|s| ("trie.descent.delta", s)))
            .collect();
        // Room for every step, the parse the shard puts first included.
        outcome.steps.reserve_exact(4 + asgs.len() * segments.len());
        outcome.steps.extend([plan, view]);
        scratch.answer.begin(self.id_space);
        let mut qs = QuerySequence {
            paths: Vec::new(),
            parent_pos,
        };
        for assignment in asgs {
            qs.paths = assignment;
            outcome.classes.extend_from_slice(&qs.paths);
            for &(name, segment) in &segments {
                let t0 = Instant::now();
                let (search, added) = search::search_into(segment, &qs, scratch);
                let mut descent = QueryStep::new(name, t0);
                descent.search = search;
                descent.count = added;
                outcome.stats.search_ns += descent.ns;
                outcome.stats.search.absorb(search);
                outcome.steps.push(descent);
            }
        }
        let t0 = Instant::now();
        let tombstones = self.delta.tombstones().ids();
        scratch.answer.finish(tombstones, &mut outcome.docs);
        let mut gather = QueryStep::new("index.gather", t0);
        gather.count = outcome.docs.len() as u64;
        outcome.stats.gather_ns = gather.ns;
        outcome.steps.push(gather);
        outcome.classes.sort_unstable();
        outcome.classes.dedup();
        if let Some(tel) = &self.telemetry {
            tel.observe(&outcome.stats);
        }
        outcome
    }

    /// Runs a single pre-built query sequence (no instantiation): searches
    /// every segment and applies the tombstone filter, like a full query.
    /// Whole-document containment checks (`tests/integration_updates.rs`)
    /// use it.
    pub fn query_sequence(&self, q: &QuerySequence) -> (Vec<DocId>, SearchStats) {
        let view = self.delta.delta_view();
        let mut scratch = SearchScratch::new();
        scratch.answer.begin(self.id_space);
        let mut st = SearchStats::default();
        for segment in std::iter::once(&self.trie).chain(view.segments()) {
            st.absorb(search::search_into(segment, q, &mut scratch).0);
        }
        let (mut docs, tombstones) = (Vec::new(), self.delta.tombstones().ids());
        scratch.answer.finish(tombstones, &mut docs);
        (docs, st)
    }

    /// The sequencing strategy in use.
    pub fn strategy(&self) -> &Strategy {
        &self.strategy
    }

    /// Number of trie nodes — the index-size metric of Figure 14 and
    /// Tables 5/6.
    pub fn node_count(&self) -> usize {
        self.trie.node_count()
    }

    /// Number of indexed documents (both segments; tombstoned documents
    /// still count until compaction drops them).
    pub fn doc_count(&self) -> usize {
        self.trie.sequence_count() + self.delta.sequence_count()
    }

    /// Access to the underlying trie (storage layer, baselines, tests).
    pub fn trie(&self) -> &SequenceTrie {
        &self.trie
    }

    /// Mutable access to the trie — only for tests that seed deliberate
    /// corruptions to exercise the verifier.
    #[doc(hidden)]
    pub fn trie_mut(&mut self) -> &mut SequenceTrie {
        &mut self.trie
    }

    /// Structural integrity check: preorder-label nesting, subtree extents,
    /// path-link order and coverage, sibling-cover bookkeeping, and the
    /// end-node registry.  Needs no path table, so it is cheap enough for
    /// sampled post-query spot checks.
    ///
    /// Covers **every segment**: the frozen trie and each overlay segment
    /// (runs + memtable view), merged into one report.
    pub fn verify_structure(&self) -> IntegrityReport {
        let mut report = verify_trie_structure(&self.trie);
        for segment in self.delta.delta_view().segments() {
            report.merge(verify_trie_structure(segment));
        }
        report
    }

    /// Full integrity check: [`XmlIndex::verify_structure`] plus `f2`
    /// validity (Eq. 3) and the Theorem 1 round-trip of every distinct
    /// stored constraint sequence — over the frozen trie *and* every
    /// overlay segment, merged into one report.
    pub fn verify_integrity(&self, paths: &PathTable) -> IntegrityReport {
        let mut report = verify_trie(&self.trie, paths, &self.strategy);
        for segment in self.delta.delta_view().segments() {
            report.merge(verify_trie(segment, paths, &self.strategy));
        }
        report
    }

    /// The path dictionary (distinct data paths).
    pub fn data_paths(&self) -> &HashSet<PathId> {
        &self.data_paths
    }

    /// Planner caps in use.
    pub fn options(&self) -> &PlanOptions {
        &self.options
    }
}

/// Heap attribution for the whole index: the frozen trie, the full tiered
/// overlay (memtable + cached view + runs + tombstones), the wildcard
/// dictionary and the strategy's priority tables.  The telemetry handles
/// are excluded — they are `Arc`s shared with the registry, which accounts
/// for itself.
impl xseq_telemetry::HeapSize for XmlIndex {
    fn heap_bytes(&self) -> usize {
        self.trie.heap_bytes()
            + self.delta.heap_bytes()
            + self.data_paths.heap_bytes()
            + self.strategy.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xseq_xml::{parse_document, Axis, PatternLabel, SymbolTable, ValueMode};

    fn corpus(xmls: &[&str]) -> (SymbolTable, PathTable, Vec<Document>) {
        let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
        let docs: Vec<Document> = xmls
            .iter()
            .map(|x| parse_document(x, &mut st).unwrap())
            .collect();
        (st, PathTable::new(), docs)
    }

    #[test]
    fn end_to_end_exact_pattern() {
        let (mut st, mut pt, docs) = corpus(&[
            "<p><r><l>boston</l></r></p>",
            "<p><d><l>boston</l></d></p>",
            "<p><r><l>newyork</l></r></p>",
        ]);
        let index = XmlIndex::build(&docs, &mut pt, Strategy::DepthFirst, PlanOptions::default());
        assert_eq!(index.doc_count(), 3);

        let p = st.designator("p");
        let r = st.designator("r");
        let l = st.designator("l");
        let boston = st.values.lookup("boston").unwrap();
        let mut q = TreePattern::root(PatternLabel::Elem(p));
        let rn = q.add(q.root_id(), Axis::Child, PatternLabel::Elem(r));
        let ln = q.add(rn, Axis::Child, PatternLabel::Elem(l));
        q.add(ln, Axis::Child, PatternLabel::Value(boston));

        let out = index.query(&q, &pt);
        assert_eq!(out.docs, vec![0]);
    }

    #[test]
    fn end_to_end_wildcards() {
        let (mut st, mut pt, docs) = corpus(&[
            "<p><r><l>boston</l></r></p>",
            "<p><d><l>boston</l></d></p>",
            "<p><r><l>newyork</l></r></p>",
        ]);
        let index = XmlIndex::build(&docs, &mut pt, Strategy::DepthFirst, PlanOptions::default());

        let p = st.designator("p");
        let l = st.designator("l");
        let boston = st.values.lookup("boston").unwrap();
        // /p/*[l = 'boston']
        let mut q = TreePattern::root(PatternLabel::Elem(p));
        let star = q.add(q.root_id(), Axis::Child, PatternLabel::AnyElem);
        let ln = q.add(star, Axis::Child, PatternLabel::Elem(l));
        q.add(ln, Axis::Child, PatternLabel::Value(boston));
        let out = index.query(&q, &pt);
        assert_eq!(out.docs, vec![0, 1]);
        assert_eq!(out.stats.instantiations, 2);

        // //l
        let q2 = TreePattern::with_root_axis(PatternLabel::Elem(l), Axis::Descendant);
        let out2 = index.query(&q2, &pt);
        assert_eq!(out2.docs, vec![0, 1, 2]);
    }

    #[test]
    fn probability_strategy_end_to_end() {
        let (mut st, mut pt, docs) = corpus(&[
            "<p><a/><b><c/></b></p>",
            "<p><b><c/></b></p>",
            "<p><a/></p>",
        ]);
        // hand-made priorities: p > b > c > a
        let p = st.elem("p");
        let a = st.elem("a");
        let b = st.elem("b");
        let c = st.elem("c");
        let pp = pt.intern(&[p]);
        let pa = pt.intern(&[p, a]);
        let pb = pt.intern(&[p, b]);
        let pbc = pt.intern(&[p, b, c]);
        let mut pm = xseq_sequence::PriorityMap::new(0.0);
        pm.insert(pp, 1.0);
        pm.insert(pb, 0.9);
        pm.insert(pbc, 0.8);
        pm.insert(pa, 0.1);
        let index = XmlIndex::build(
            &docs,
            &mut pt,
            Strategy::Probability(pm),
            PlanOptions::default(),
        );

        let pd = st.designator("p");
        let bd = st.designator("b");
        let cd = st.designator("c");
        let mut q = TreePattern::root(PatternLabel::Elem(pd));
        let bn = q.add(q.root_id(), Axis::Child, PatternLabel::Elem(bd));
        q.add(bn, Axis::Child, PatternLabel::Elem(cd));
        let out = index.query(&q, &pt);
        assert_eq!(out.docs, vec![0, 1]);

        let ad = st.designator("a");
        let mut q2 = TreePattern::root(PatternLabel::Elem(pd));
        q2.add(q2.root_id(), Axis::Child, PatternLabel::Elem(ad));
        let out2 = index.query(&q2, &pt);
        assert_eq!(out2.docs, vec![0, 2]);
    }

    #[test]
    fn build_parallel_is_bit_identical_to_sequential() {
        let xmls = [
            "<p><r><l>boston</l></r></p>",
            "<p><d><l>boston</l></d></p>",
            "<p><r><l>newyork</l></r></p>",
            "<p><l><b/></l><l><s/></l></p>",
            "<q><a/><b><c/></b></q>",
            "<p/>",
            "<p><r><l>boston</l></r><r><l>austin</l></r></p>",
        ];
        let (_, mut pt_seq, docs) = corpus(&xmls);
        let seq = XmlIndex::build(
            &docs,
            &mut pt_seq,
            Strategy::DepthFirst,
            PlanOptions::default(),
        );
        for threads in [2, 4, 8] {
            let (_, mut pt_par, docs) = corpus(&xmls);
            let par = XmlIndex::build_parallel(
                &docs,
                &mut pt_par,
                Strategy::DepthFirst,
                PlanOptions::default(),
                None,
                &xseq_exec::Pool::new(threads),
            );
            assert!(
                par.trie().identical_to(seq.trie()),
                "parallel build ({threads} threads) diverged"
            );
            assert_eq!(par.data_paths(), seq.data_paths());
            assert_eq!(pt_par.len(), pt_seq.len(), "path tables diverged");
            assert!(par.verify_integrity(&pt_par).is_clean());
        }
    }

    /// The trace half — the root's `plan_truncated` attribute — is checked
    /// where traces are built, in the `xseq` crate.
    #[test]
    fn truncated_plan_is_visible_in_stats_explain_and_trace() {
        let (mut st, mut pt, docs) =
            corpus(&["<p><r><l>boston</l></r></p>", "<p><d><l>boston</l></d></p>"]);
        // //l has two assignments (p.r.l and p.d.l); a cap of one drops one.
        let l = st.designator("l");
        let q = TreePattern::with_root_axis(PatternLabel::Elem(l), Axis::Descendant);
        for (cap, truncated) in [(1usize, true), (2, false)] {
            let options = PlanOptions {
                max_assignments: cap,
            };
            let index = XmlIndex::build(&docs, &mut pt, Strategy::DepthFirst, options);
            let out = index.query(&q, &pt);
            assert_eq!(out.stats.plan_truncated, u64::from(truncated), "cap {cap}");
            assert_eq!(out.explain().contains("plan TRUNCATED"), truncated);
            assert_eq!(out.docs.len(), cap);
        }
    }

    #[test]
    fn explain_cuts_long_lists_and_rows_every_timed_phase() {
        let descent = |candidates: u64| QueryStep {
            phase: "trie.descent",
            start: Instant::now(),
            ns: 0,
            search: SearchStats {
                candidates,
                ..Default::default()
            },
            count: 0,
        };
        let mut out = QueryOutcome {
            steps: (0..16).map(descent).collect(),
            ..Default::default()
        };
        assert!(out
            .explain()
            .contains("descents/variant [0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15]\n"));
        out.steps.extend([16, 17].map(descent));
        assert!(out.explain().contains(" 14 15 …]\n"), "{}", out.explain());
        out.stats.view_ns = 750;
        out.stats.search_ns = 200;
        out.stats.gather_ns = 50;
        let explain = out.explain();
        assert!(
            explain.contains("delta.view            750ns  ( 75.0%)"),
            "{explain}"
        );
        assert!(
            explain.contains("index.gather           50ns  (  5.0%)"),
            "{explain}"
        );
        // With the wall time known, the remainder is a row of its own.
        out.stats.total_ns = 4000;
        let explain = out.explain();
        assert!(
            explain.contains("delta.view            750ns  ( 18.8%)"),
            "{explain}"
        );
        assert!(
            explain.contains("unattributed         3.00us  ( 75.0%)"),
            "{explain}"
        );
    }

    #[test]
    fn steps_record_every_phase_and_sum_to_the_stats() {
        let (mut st, mut pt, docs) = corpus(&["<p><r/></p>", "<p><d/></p>", "<p><r/></p>"]);
        let mut index = XmlIndex::build(
            &docs[..1],
            &mut pt,
            Strategy::DepthFirst,
            PlanOptions::default(),
        );
        index.insert_delta(&docs[1], 1, &mut pt);
        index.insert_delta(&docs[2], 2, &mut pt);
        // /p/* has two variants (p.r and p.d), each searched in the frozen
        // trie and the one overlay segment.
        let p = st.designator("p");
        let mut q = TreePattern::root(PatternLabel::Elem(p));
        q.add(q.root_id(), Axis::Child, PatternLabel::AnyElem);
        let out = index.query(&q, &pt);
        assert_eq!(out.docs, vec![0, 1, 2]);
        let phases: Vec<&str> = out.steps.iter().map(|s| s.phase).collect();
        let variant = ["trie.descent", "trie.descent.delta"];
        let head = ["index.plan", "delta.view"];
        let tail = ["index.gather"];
        assert_eq!(phases, [&head[..], &variant, &variant, &tail].concat());
        let sum = |phase: &str| -> u64 {
            let steps = out.steps.iter().filter(|s| s.phase.starts_with(phase));
            steps.map(|s| s.ns).sum()
        };
        assert_eq!(sum("index.plan"), out.stats.plan_ns);
        assert_eq!(sum("delta.view"), out.stats.view_ns);
        assert_eq!(sum("trie.descent"), out.stats.search_ns);
        assert_eq!(sum("index.gather"), out.stats.gather_ns);
        assert_eq!(out.steps[0].count, 2, "the plan counts its assignments");
        assert_eq!(out.stats.variants, out.stats.instantiations);
        assert!(
            out.explain().contains("instantiations 2 | candidates"),
            "{}",
            out.explain()
        );
        let descents = out
            .steps
            .iter()
            .filter(|s| s.phase.starts_with("trie.descent"));
        let matched: u64 = descents.map(|s| s.count).sum();
        assert_eq!(matched, 3, "each descent counts the documents it matched");
        assert_eq!(out.steps[6].count, 3, "the gather counts the answer");
        // A variant's frozen and overlay descents sum into one entry.
        let candidates =
            |i: usize| out.steps[i].search.candidates + out.steps[i + 1].search.candidates;
        let per_variant = format!("descents/variant [{} {}]", candidates(2), candidates(4));
        assert!(out.explain().contains(&per_variant), "{}", out.explain());
        assert!(out.steps.windows(2).all(|w| w[0].start <= w[1].start));
    }

    #[test]
    fn query_sequence_walks_frozen_and_overlay_segments() {
        let (_st, mut pt, docs) = corpus(&["<p><r/></p>", "<p><r/><d/></p>", "<p><r/></p>"]);
        let mut index = XmlIndex::build(
            &docs[..1],
            &mut pt,
            Strategy::DepthFirst,
            PlanOptions::default(),
        );
        index.insert_delta(&docs[1], 1, &mut pt);
        index.insert_delta(&docs[2], 2, &mut pt);
        let q = QuerySequence::from_document_readonly(&docs[0], &pt, &Strategy::DepthFirst)
            .expect("an indexed document's paths are in the table");
        let (all, st) = index.query_sequence(&q);
        assert_eq!(all, vec![0, 1, 2], "frozen ∪ overlay");
        let (frozen_only, frozen_st) = tree_search(index.trie(), &q);
        assert_eq!(frozen_only, vec![0]);
        assert!(
            st.candidates > frozen_st.candidates,
            "overlay work is counted"
        );
        index.remove_doc(1);
        assert_eq!(index.query_sequence(&q).0, vec![0, 2], "− tombstones");
    }

    #[test]
    fn query_with_reuses_scratch_buffers() {
        let (mut st, mut pt, docs) =
            corpus(&["<p><r><l>boston</l></r></p>", "<p><d><l>boston</l></d></p>"]);
        let index = XmlIndex::build(&docs, &mut pt, Strategy::DepthFirst, PlanOptions::default());
        let p = st.designator("p");
        let l = st.designator("l");
        let mut q = TreePattern::root(PatternLabel::Elem(p));
        let star = q.add(q.root_id(), Axis::Child, PatternLabel::AnyElem);
        q.add(star, Axis::Child, PatternLabel::Elem(l));
        let mut scratch = SearchScratch::new();
        let first = index.query_with(&q, &pt, &mut scratch);
        assert_eq!(first.docs, vec![0, 1]);
        let again = index.query_with(&q, &pt, &mut scratch);
        assert_eq!(again.docs, vec![0, 1]);
        // A warm scratch answers, and works, as a cold one does.
        let cold = index.query(&q, &pt);
        assert_eq!(again.docs, cold.docs);
        assert_eq!(again.stats.search, cold.stats.search);
    }

    /// `a[.//x][.//y]`: the two `//` chains may share their `b` or not —
    /// the shapes the merge variants of a concrete tree spelled out.
    #[test]
    fn descendant_branches_match_shared_and_split_instances() {
        let (mut st, mut pt, docs) = corpus(&[
            "<a><b><x/><y/></b></a>",
            "<a><b><x/></b><b><y/></b></a>",
            "<a><b><x/></b></a>",
        ]);
        let index = XmlIndex::build(&docs, &mut pt, Strategy::DepthFirst, PlanOptions::default());
        let [a, x, y] = ["a", "x", "y"].map(|n| st.designator(n));
        let mut q = TreePattern::root(PatternLabel::Elem(a));
        q.add(q.root_id(), Axis::Descendant, PatternLabel::Elem(x));
        q.add(q.root_id(), Axis::Descendant, PatternLabel::Elem(y));
        let out = index.query(&q, &pt);
        assert_eq!(out.docs, vec![0, 1]);
        assert_eq!((out.stats.instantiations, out.stats.variants), (1, 1));
        // The classes are the pattern nodes' own paths, not `a.b`.
        assert_eq!(out.classes.len(), 3);
    }

    /// `a[b][b]`: two pattern nodes on one path need two instances.
    #[test]
    fn identical_pattern_nodes_need_distinct_instances() {
        let (mut st, mut pt, docs) = corpus(&["<a><b/></a>", "<a><b/><b/></a>"]);
        let index = XmlIndex::build(&docs, &mut pt, Strategy::DepthFirst, PlanOptions::default());
        let [a, b] = ["a", "b"].map(|n| st.designator(n));
        let mut q = TreePattern::root(PatternLabel::Elem(a));
        q.add(q.root_id(), Axis::Child, PatternLabel::Elem(b));
        q.add(q.root_id(), Axis::Child, PatternLabel::Elem(b));
        assert_eq!(index.query(&q, &pt).docs, vec![1]);
    }

    /// `/a/b[.//x][.//y]` below identical siblings: in the first document
    /// `x` and `y` sit under different `b`s, so the branch that puts them
    /// under one `b` is sibling-covered — rejected at the end of a `//`
    /// edge two steps long.
    #[test]
    fn descendant_edges_are_cover_checked_below_identical_siblings() {
        let (mut st, mut pt, docs) = corpus(&[
            "<a><b><c><x/></c></b><b><c><y/></c></b></a>",
            "<a><b><c><x/></c><c><y/></c></b><b/></a>",
        ]);
        let index = XmlIndex::build(&docs, &mut pt, Strategy::DepthFirst, PlanOptions::default());
        let [a, b, x, y] = ["a", "b", "x", "y"].map(|n| st.designator(n));
        let mut q = TreePattern::root(PatternLabel::Elem(a));
        let bn = q.add(q.root_id(), Axis::Child, PatternLabel::Elem(b));
        q.add(bn, Axis::Descendant, PatternLabel::Elem(x));
        q.add(bn, Axis::Descendant, PatternLabel::Elem(y));
        let out = index.query(&q, &pt);
        assert_eq!(out.docs, vec![1]);
        assert!(out.stats.search.cover_rejections > 0, "{:?}", out.stats);
    }
}
