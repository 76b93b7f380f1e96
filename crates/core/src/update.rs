//! The update path: insert / remove through the per-shard tiered overlay,
//! inline tier merges, compaction as a build over the survivors, and the
//! overlay occupancy gauges (DESIGN.md §11, §15.3–15.4, §16).

use crate::builder::build_shards;
use crate::shard::{route, split_corpus, Reintern};
use crate::{
    Corpus, Database, DocId, Error, Event, EventJournal, MetricsRegistry, Severity, TieredDelta,
    XmlIndex,
};
use std::sync::Arc;
use std::time::Instant;
use xseq_telemetry::{Gauge, Histogram};

/// The overlay occupancy gauges and their one owner.  Gauges are `set`, not
/// added, so indexes sharing one would clobber each other — whoever sees
/// every shard's overlay sets them, nobody else does: the plain names
/// (`index.delta.sequences`, `index.delta.runs`, `index.tombstones`) carry
/// the sums over all shards, and a database of more than one shard also
/// publishes each shard's own values as `index.shard<i>.*`.
#[derive(Debug)]
pub(crate) struct UpdateGauges {
    total: [Arc<Gauge>; 3],
    /// Empty with one shard, whose values the totals already are.
    per_shard: Vec<[Arc<Gauge>; 3]>,
}

impl UpdateGauges {
    pub(crate) fn register(registry: &MetricsRegistry, nshards: usize) -> Self {
        let family = |prefix: &str| {
            ["delta.sequences", "delta.runs", "tombstones"]
                .map(|name| registry.gauge(&format!("{prefix}.{name}")))
        };
        UpdateGauges {
            total: family("index"),
            per_shard: if nshards > 1 {
                (0..nshards)
                    .map(|s| family(&format!("index.shard{s}")))
                    .collect()
            } else {
                Vec::new()
            },
        }
    }

    /// Re-derives every gauge from the shards' overlays, in shard order.
    pub(crate) fn refresh<'a>(&self, deltas: impl Iterator<Item = &'a TieredDelta>) {
        let mut sums = [0i64; 3];
        for (s, delta) in deltas.enumerate() {
            let values = [
                delta.sequence_count(),
                delta.run_count(),
                delta.tombstones().len(),
            ]
            .map(|v| v as i64);
            for (sum, v) in sums.iter_mut().zip(values) {
                *sum += v;
            }
            if let Some(shard) = self.per_shard.get(s) {
                for (gauge, v) in shard.iter().zip(values) {
                    gauge.set(v);
                }
            }
        }
        for (gauge, sum) in self.total.iter().zip(sums) {
            gauge.set(sum);
        }
    }
}

/// Nanoseconds since `t0`.
fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Drains every size-ratio-triggered merge currently due in one shard's
/// overlay, recording each as an `index.merge` latency sample and a
/// `compact.tier.finish` flight-recorder event.  A merge holds the index
/// `&mut` and cannot fail half-way, so it needs no start event.
/// Returns the number of merges performed.
fn drain_shard_merges(
    s: usize,
    index: &mut XmlIndex,
    events: &EventJournal,
    hist: &Histogram,
) -> usize {
    let mut merges = 0;
    while index.delta().merge_due() {
        let t0 = Instant::now();
        let Some(out) = index.maybe_merge() else {
            break;
        };
        let total_ns = elapsed_ns(t0);
        hist.record(total_ns);
        merges += 1;
        events.record(
            Event::new("compact.tier.finish")
                .severity(Severity::Debug)
                .attr("shard", s as u64)
                .attr("tier", u64::from(out.tier))
                .attr("runs", out.runs_merged as u64)
                .attr("docs", out.docs_in as u64)
                .attr("dropped", out.docs_dropped as u64)
                .attr("total_ns", total_ns),
        );
    }
    merges
}

/// What one [`Database::compact`] did: sizes before/after, and the doc-id
/// renumbering it applied.
///
/// Compaction renumbers documents densely (tombstoned ids disappear, the
/// survivors close ranks in order) — exactly the ids a from-scratch build
/// over the surviving documents would assign.  `remap[old]` gives the new
/// id of old document `old`, or `None` if it was tombstoned.
#[derive(Debug, Clone)]
pub struct CompactionReport {
    /// Documents (frozen + delta) before compaction.
    pub docs_before: usize,
    /// Surviving documents after compaction.
    pub docs_after: usize,
    /// Tombstones dropped for good.
    pub tombstones_dropped: usize,
    /// Delta sequences folded into the frozen segment.
    pub delta_merged: usize,
    /// Old id → new id (`None` for tombstoned documents).
    pub remap: Vec<Option<DocId>>,
}

impl Database {
    /// Adds one document through the update path: the XML is parsed into
    /// its shard's corpus (new element names and values intern *here*,
    /// never at query time), sequenced with the index's strategy, and
    /// appended to the in-memory **delta segment** — the frozen trie is
    /// untouched, and the very next query sees the document (queries run
    /// over *frozen ∪ delta − tombstones*).
    ///
    /// Returns the new document's id.  An insert never compacts: ids move
    /// only when the caller runs [`Database::compact`], whose report
    /// carries the remap.
    pub fn insert_document(&mut self, xml: &str) -> Result<DocId, Error> {
        let t0 = Instant::now();
        let inserted = self.insert_untimed(xml);
        // Failed parses are timed too: they spent the time.
        self.update_insert_hist.record(elapsed_ns(t0));
        inserted
    }

    /// [`Database::insert_document`] without its `update.insert` sample.
    fn insert_untimed(&mut self, xml: &str) -> Result<DocId, Error> {
        let (s, _) = route(self.len() as DocId, self.shards.len());
        #[expect(clippy::indexing_slicing, reason = "route reduces modulo self.shards.len()")]
        let sh = &mut self.shards[s];
        // Parsed once and encoded once, into the column; the emitter reads
        // the document beside its slice, and then the document is dropped.
        // Shards take ids in turn, so the local id is `route`'s.
        let doc = sh.corpus.parse(xml)?;
        let local = sh.docs.push(&doc, &mut sh.corpus.paths);
        (sh.index).insert_encoded(&doc, sh.docs.get(local).unwrap_or_default(), local);
        let global = sh.global(local);
        // Fold due merges right here, keeping the run count logarithmic.
        // Only this shard's memtable was cut, so only it can be due.
        drain_shard_merges(s, &mut sh.index, &self.events, &self.merge_hist);
        self.refresh_update_gauges();
        Ok(global)
    }

    /// [`Database::insert_document`] for a batch, in order.  On a parse
    /// error the documents before it remain inserted.
    pub fn insert_documents<'a>(
        &mut self,
        xmls: impl IntoIterator<Item = &'a str>,
    ) -> Result<Vec<DocId>, Error> {
        xmls.into_iter()
            .map(|xml| self.insert_document(xml))
            .collect()
    }

    /// Removes a document: its id is tombstoned and stops appearing in any
    /// query result immediately; [`Database::compact`] later drops the
    /// document (and its sequences) for good.  Returns `false` when `id`
    /// does not exist or was already removed.
    pub fn remove_document(&mut self, id: DocId) -> bool {
        let (s, local) = route(id, self.shards.len());
        #[expect(clippy::indexing_slicing, reason = "route reduces modulo self.shards.len()")]
        let sh = &mut self.shards[s];
        if local as usize >= sh.docs.len() {
            return false;
        }
        let t0 = Instant::now();
        let fresh = sh.index.remove_doc(local);
        self.update_remove_hist.record(elapsed_ns(t0));
        if fresh {
            self.refresh_update_gauges();
        }
        fresh
    }

    /// Drains every pending tier merge across all shards, returning the
    /// number of merges performed.  Inserts already drain their own
    /// shard's merges, so this finds work only after the tier knobs
    /// changed; tests and benchmarks call it to quiesce the overlay
    /// deterministically.
    pub fn run_pending_merges(&mut self) -> usize {
        let mut merges = 0;
        for (s, sh) in self.shards.iter_mut().enumerate() {
            merges += drain_shard_merges(s, &mut sh.index, &self.events, &self.merge_hist);
        }
        if merges > 0 {
            self.refresh_update_gauges();
        }
        merges
    }

    /// Folds the delta segment and tombstones back into a single frozen
    /// segment by replaying the original build pipeline — sequencing →
    /// `bulk_load` → `freeze` (one sort, one preorder build, one labeling),
    /// shards side by side on the pool — over the **surviving** documents.
    ///
    /// The surviving documents are decoded from their shards' path
    /// columns and re-interned into fresh symbol/path tables in id order,
    /// by id (a document's arena order is its parse encounter order, so
    /// minting a fresh id where an old one is first met replays the
    /// original first-occurrence interning exactly), ids
    /// renumber densely, and the result takes the builder's own path: it is
    /// routed to the shards afresh (a document may change shard) and each
    /// shard's strategy is re-derived the way
    /// [`DatabaseBuilder`](crate::DatabaseBuilder) derived it.  The
    /// database is **bit-identical**, shard for shard, to building a fresh
    /// one from the survivors' XML at the same shard count.
    /// `verify_integrity()` and the Theorem 1/2 invariants therefore keep
    /// holding after any update history.
    // A global id below `docs_before` routes to a shard below nshards and a
    // local id below that shard's document count, whose column decodes
    // against the table that encoded it.
    #[expect(clippy::indexing_slicing, reason = "route of a live id names its shard")]
    #[expect(clippy::expect_used, reason = "a shard's column decodes against its own table")]
    pub fn compact(&mut self) -> CompactionReport {
        let t0 = Instant::now();
        let nshards = self.shards.len();
        let docs_before = self.len();
        let tombstones_dropped: usize = (self.shards.iter())
            .map(|sh| sh.index.tombstones().len())
            .sum();
        let delta_merged: usize = (self.shards.iter())
            .map(|sh| sh.index.delta().sequence_count())
            .sum();
        // The survivors in global order, decoded from the columns into one
        // fresh corpus: every tombstone names one of the database's
        // documents.
        let mut fresh = Corpus::new(self.corpus().symbols.values.mode());
        fresh
            .docs
            .reserve_exact(docs_before.saturating_sub(tombstones_dropped));
        let mut reinterns: Vec<Reintern> = (self.shards.iter())
            .map(|sh| Reintern::new(&sh.corpus.symbols))
            .collect();
        let remap: Vec<Option<DocId>> = (0..docs_before as DocId)
            .map(|g| {
                let (s, local) = route(g, nshards);
                let sh = &self.shards[s];
                let alive = !sh.index.tombstones().contains(local);
                alive.then(|| {
                    let doc = sh.document(local).expect("a live id names a document");
                    reinterns[s].push(doc, &mut fresh)
                })
            })
            .collect();
        drop(reinterns);
        let corpora = split_corpus(fresh, nshards, &self.pool);
        self.shards = build_shards(&self.config, corpora, &self.registry, self.pool);
        self.refresh_update_gauges();
        let total_ns = elapsed_ns(t0);
        self.compact_hist.record(total_ns);
        // A compaction holds the database `&mut` and cannot fail half-way,
        // so one event after it says everything a start event would.
        let docs_after = self.len();
        self.events.record(
            Event::new("compact.finish")
                .attr("docs_before", docs_before as u64)
                .attr("docs", docs_after as u64)
                .attr("dropped", tombstones_dropped as u64)
                .attr("merged", delta_merged as u64)
                .attr("total_ns", total_ns),
        );
        CompactionReport {
            docs_before,
            docs_after,
            tombstones_dropped,
            delta_merged,
            remap,
        }
    }

    /// Re-derives the overlay occupancy gauges (see [`UpdateGauges`]) after
    /// anything on this thread changed an overlay.
    fn refresh_update_gauges(&self) {
        self.update_gauges
            .refresh(self.shards.iter().map(|sh| sh.index.delta()));
    }
}

#[cfg(test)]
mod tests {
    use crate::*;

    #[test]
    fn insert_then_query() {
        let mut db = DatabaseBuilder::new()
            .build_from_xml(["<a><b/></a>"])
            .unwrap();
        let id = db.insert_document("<a><c/></a>").unwrap();
        assert_eq!(id, 1);
        assert_eq!(db.query_xpath("/a/c").unwrap(), vec![1]);
    }

    #[test]
    fn hostile_nesting_is_a_typed_error_not_a_stack_overflow() {
        let elements = |levels: usize| format!("{}{}", "<a>".repeat(levels), "</a>".repeat(levels));
        let predicates = |levels: usize| format!("/a{}{}", "[a".repeat(levels), "]".repeat(levels));
        let (xml_limit, xpath_limit) = (xml::parser::MAX_DEPTH, xml::xpath::MAX_DEPTH);
        let mut db = DatabaseBuilder::new()
            .build_from_xml(["<a><b/></a>"])
            .unwrap();
        // At the limits: the document indexes, the query answers.
        let deep = db.insert_document(&elements(xml_limit)).unwrap();
        assert_eq!(db.query_xpath(&predicates(xpath_limit)).unwrap(), [deep]);
        assert!(db.verify_integrity().is_clean());
        // One past, and far past: typed errors, and the process survives.
        for levels in [xml_limit + 1, 100_000] {
            let err = db.insert_document(&elements(levels)).unwrap_err();
            assert!(
                matches!(err, Error::Xml(XmlError::TooDeep { limit, .. }) if limit == xml_limit),
                "{err}"
            );
            let err = DatabaseBuilder::new()
                .build_from_xml([elements(levels).as_str()])
                .unwrap_err();
            assert!(matches!(err, Error::Xml(XmlError::TooDeep { .. })), "{err}");
        }
        for levels in [xpath_limit + 1, 100_000] {
            let err = db.query_xpath(&predicates(levels)).unwrap_err();
            assert!(
                matches!(err, Error::Query(ParseError::TooDeep { limit, .. }) if limit == xpath_limit),
                "{err}"
            );
        }
        assert_eq!(db.len(), 2, "a rejected document leaves nothing behind");
    }

    #[test]
    fn insert_remove_query_union_semantics() {
        let mut db = DatabaseBuilder::new()
            .build_from_xml(["<a><b/></a>", "<a><b/><c/></a>"])
            .unwrap();
        let id = db.insert_document("<a><b/><d/></a>").unwrap();
        assert_eq!(id, 2);
        // union: frozen hits + delta hits
        assert_eq!(db.query_xpath("/a/b").unwrap(), vec![0, 1, 2]);
        assert_eq!(db.query_xpath("/a/d").unwrap(), vec![2]);
        assert_eq!(db.index().delta().sequence_count(), 1);
        // tombstone filters immediately, from either segment
        assert!(db.remove_document(1));
        assert!(!db.remove_document(1), "double remove is a no-op");
        assert!(!db.remove_document(99), "unknown id is a no-op");
        assert_eq!(db.query_xpath("/a/b").unwrap(), vec![0, 2]);
        assert!(db.remove_document(2));
        assert_eq!(db.query_xpath("/a/d").unwrap(), Vec::<DocId>::new());
        let report = db.verify_integrity();
        assert!(report.is_clean(), "{}", report.render());
        // Ids at the edges of every shard count's id space, before and
        // after a compaction.
        for shards in [1usize, 2, 3, 8] {
            let mut db = DatabaseBuilder::new()
                .shards(shards)
                .build_from_xml(["<a><b/></a>", "<a><c/></a>", "<a><b/></a>"])
                .unwrap();
            assert!(db.remove_document(1));
            for compacted in [false, true] {
                let len = db.len() as DocId;
                let answer = db.query_xpath("//a").unwrap();
                // Past the end on the shard after the last document's, past
                // the end on the last shard, and past every shard's end.
                for id in [len, len + shards as DocId - 1, DocId::MAX] {
                    assert!(
                        !db.remove_document(id),
                        "unknown id {id} is a no-op at {shards} shard(s), compacted: {compacted}"
                    );
                }
                assert_eq!(db.len(), len as usize);
                assert_eq!(db.query_xpath("//a").unwrap(), answer);
                db.compact();
            }
            assert_eq!(db.query_xpath("/a/b").unwrap(), vec![0, 1]);
        }
    }

    #[test]
    fn compact_is_bit_identical_to_rebuild_over_survivors() {
        for seq in [Sequencing::DepthFirst, Sequencing::Probability] {
            let mut db = DatabaseBuilder::new()
                .sequencing(seq)
                .build_from_xml([
                    "<p><r><l>boston</l></r></p>",
                    "<p><d><l>newyork</l></d></p>",
                    "<p><r><l>austin</l></r></p>",
                ])
                .unwrap();
            db.insert_document("<p><r><l>seattle</l></r><z/></p>")
                .unwrap();
            db.insert_document("<q><x/></q>").unwrap();
            assert!(db.remove_document(1));
            assert!(db.remove_document(3));
            let report = db.compact();
            assert_eq!(report.docs_before, 5);
            assert_eq!(report.docs_after, 3);
            assert_eq!(report.tombstones_dropped, 2);
            assert_eq!(report.delta_merged, 2);
            assert_eq!(
                report.remap,
                vec![Some(0), None, Some(1), None, Some(2)],
                "{seq:?}: survivors renumber densely in order"
            );
            assert!(db.index().delta().is_empty());
            assert!(db.index().tombstones().is_empty());
            // Bit-identity with a from-scratch build over the survivors.
            let reference = DatabaseBuilder::new()
                .sequencing(seq)
                .build_from_xml([
                    "<p><r><l>boston</l></r></p>",
                    "<p><r><l>austin</l></r></p>",
                    "<q><x/></q>",
                ])
                .unwrap();
            assert!(
                db.index().trie().identical_to(reference.index().trie()),
                "{seq:?}: compacted trie diverges from rebuild"
            );
            assert_eq!(db.index().data_paths(), reference.index().data_paths());
            assert_eq!(db.corpus().paths.len(), reference.corpus().paths.len());
            assert_eq!(
                db.corpus().symbols.designator_count(),
                reference.corpus().symbols.designator_count()
            );
            assert_eq!(
                db.corpus().symbols.values.len(),
                reference.corpus().symbols.values.len()
            );
            for q in ["/p/r/l", "//l[text='austin']", "/q/x", "/p/z"] {
                assert_eq!(
                    db.query_xpath(q).unwrap(),
                    reference.query_xpath(q).unwrap(),
                    "{seq:?}: {q}"
                );
            }
            let report = db.verify_integrity();
            assert!(report.is_clean(), "{seq:?}: {}", report.render());
        }
    }

    #[test]
    fn insert_documents_stops_at_the_first_malformed_document() {
        let mut db = DatabaseBuilder::new()
            .build_from_xml(["<a><b/></a>"])
            .unwrap();
        assert_eq!(
            db.insert_documents(["<a><c/></a>", "<a><d/></a>"]),
            Ok(vec![1, 2])
        );
        let err = db.insert_documents(["<a><e/></a>", "<a>", "<a><f/></a>"]);
        assert!(matches!(err, Err(Error::Xml(_))), "{err:?}");
        assert_eq!(
            db.len(),
            4,
            "the one before stays, the one after is not tried"
        );
        assert_eq!(db.query_xpath("/a/e"), Ok(vec![3]));
        // The failed parse spent its time too: 3 inserts + 1 failure.
        let inserts = db.metrics().histogram("update.insert").unwrap().count;
        assert_eq!(inserts, 4);
    }

    #[test]
    fn update_metrics_and_gauges_track_the_overlay() {
        for shards in [1usize, 3] {
            let mut db = DatabaseBuilder::new()
                .shards(shards)
                .build_from_xml(["<a><b/></a>"])
                .unwrap();
            let snap = db.metrics();
            for name in ["update.insert", "update.remove", "index.compact"] {
                assert!(snap.has_prefix(name), "missing {name}");
            }
            db.insert_document("<a><c/></a>").unwrap();
            db.insert_document("<a><d/></a>").unwrap();
            db.remove_document(0);
            let snap = db.metrics();
            assert_eq!(snap.histogram("update.insert").unwrap().count, 2);
            assert_eq!(snap.histogram("update.remove").unwrap().count, 1);
            // The plain names carry the sums at any shard count…
            assert_eq!(snap.gauge("index.delta.sequences"), Some(2));
            assert_eq!(snap.gauge("index.tombstones"), Some(1));
            // …and only a multi-shard database publishes the per-shard
            // family, which adds up to them.
            assert_eq!(snap.has_prefix("index.shard"), shards > 1);
            if shards > 1 {
                let family = |name: &str| -> i64 {
                    (0..shards)
                        .map(|s| snap.gauge(&format!("index.shard{s}.{name}")).unwrap())
                        .sum()
                };
                assert_eq!(family("delta.sequences"), 2);
                assert_eq!(family("tombstones"), 1);
            }
            db.compact();
            let snap = db.metrics();
            assert_eq!(snap.histogram("index.compact").unwrap().count, 1);
            for name in [
                "index.delta.sequences",
                "index.delta.runs",
                "index.tombstones",
            ] {
                assert_eq!(snap.gauge(name), Some(0), "{name} at {shards} shard(s)");
            }
        }
    }

    #[test]
    fn inline_tier_merges_fold_runs_and_keep_answers() {
        let mut db = DatabaseBuilder::new()
            .sequencing(Sequencing::DepthFirst)
            .memtable_limit(1)
            .tier_ratio(2)
            .build_from_xml(["<a><b/></a>"])
            .unwrap();
        for i in 0..8 {
            db.insert_document(&format!("<a><b/><c{i}/></a>")).unwrap();
        }
        // limit 1 / ratio 2 is a binary counter: 8 single-sequence runs
        // cascade into popcount(8) = 1 published run.
        assert_eq!(db.index().delta().run_count(), 1);
        assert_eq!(db.index().delta().sequence_count(), 8);
        let snap = db.metrics();
        assert!(
            snap.histogram("index.merge").unwrap().count >= 7,
            "7 binary-counter merges expected, saw {}",
            snap.histogram("index.merge").unwrap().count
        );
        assert_eq!(snap.gauge("index.delta.runs"), Some(1));
        let names: Vec<&str> = db.events().events().iter().map(|e| e.name).collect();
        assert!(names.contains(&"compact.tier.finish"), "{names:?}");
        assert_eq!(db.query_xpath("/a/b").unwrap().len(), 9);
        assert_eq!(db.query_xpath("/a/c3").unwrap(), vec![4]);
        assert!(db.verify_integrity().is_clean());
    }

    #[test]
    fn merge_time_has_its_own_phase_family() {
        let mut db = DatabaseBuilder::new()
            .sequencing(Sequencing::DepthFirst)
            .memtable_limit(1)
            .tier_ratio(2)
            .build_from_xml(["<a><b/></a>"])
            .unwrap();
        for i in 0..4 {
            db.insert_document(&format!("<a><c{i}/></a>")).unwrap();
        }
        db.compact();
        let snap = db.metrics();
        let merges = snap.histogram("index.merge").unwrap().count;
        assert!(merges >= 3, "binary-counter merges before compaction");
        // Merge latency lives in its own family: compaction's single
        // sample does not absorb (double-count) the merge spans.
        assert_eq!(snap.histogram("index.compact").unwrap().count, 1);
    }

    #[test]
    fn compaction_replays_the_tier_knobs() {
        let mut db = DatabaseBuilder::new()
            .sequencing(Sequencing::DepthFirst)
            .memtable_limit(2)
            .tier_ratio(2)
            .build_from_xml(["<a><b/></a>"])
            .unwrap();
        assert_eq!(db.index().delta().memtable_limit(), 2);
        db.insert_document("<a><c/></a>").unwrap();
        db.insert_document("<a><d/></a>").unwrap();
        assert_eq!(db.index().delta().run_count(), 1, "cut at limit 2");
        db.compact();
        assert_eq!(db.index().delta().memtable_limit(), 2, "knobs survive");
        assert_eq!(db.index().delta().tier_ratio(), 2);
        db.insert_document("<a><e/></a>").unwrap();
        db.insert_document("<a><f/></a>").unwrap();
        assert_eq!(db.index().delta().run_count(), 1, "cut again post-compact");
        assert_eq!(db.query_xpath("/a/f").unwrap(), vec![4]);
    }

    #[test]
    fn compact_on_pristine_database_is_a_clean_rebuild() {
        let mut db = DatabaseBuilder::new()
            .build_from_xml(["<a><b/></a>", "<a><c/></a>"])
            .unwrap();
        let before = db.query_xpath("//b").unwrap();
        let report = db.compact();
        assert_eq!(report.docs_before, 2);
        assert_eq!(report.docs_after, 2);
        assert_eq!(db.query_xpath("//b").unwrap(), before);
        assert!(db.verify_integrity().is_clean());
    }

    #[test]
    fn hashed_value_mode_survives_compaction() {
        let mut db = DatabaseBuilder::new()
            .value_mode(ValueMode::Hashed { range: 64 })
            .build_from_xml(["<a><l>boston</l></a>", "<a><l>newyork</l></a>"])
            .unwrap();
        db.insert_document("<a><l>austin</l></a>").unwrap();
        db.remove_document(1);
        db.compact();
        // Hashed ids are stateless, so the surviving values still match.
        assert!(db.query_xpath("/a/l[text='boston']").unwrap().contains(&0));
        assert!(db.query_xpath("/a/l[text='austin']").unwrap().contains(&1));
        assert!(db.verify_integrity().is_clean());
    }

    #[test]
    fn chars_value_mode_survives_compaction() {
        let mut db = DatabaseBuilder::new()
            .value_mode(ValueMode::Chars)
            .build_from_xml(["<a><l>bo</l></a>", "<a><l>ny</l></a>"])
            .unwrap();
        db.insert_document("<a><l>at</l></a>").unwrap();
        db.remove_document(0);
        db.compact();
        let reference = DatabaseBuilder::new()
            .value_mode(ValueMode::Chars)
            .build_from_xml(["<a><l>ny</l></a>", "<a><l>at</l></a>"])
            .unwrap();
        assert!(db.index().trie().identical_to(reference.index().trie()));
        assert!(db.verify_integrity().is_clean());
    }
}
