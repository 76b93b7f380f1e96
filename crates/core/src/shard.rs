//! Shards: routing by id, the per-shard vertical slice, and the gather half
//! of a query (DESIGN.md §15).  A [`Database`](crate::Database) is N ≥ 1 of
//! these; nothing here (or above) treats N = 1 specially.

use crate::exec::Pool;
use crate::{
    index::{union_answers, QueryStep, SearchScratch},
    Corpus, DocId, Document, ParseError, PathColumn, PatternLabel, QueryOutcome, SymbolTable,
    TreePattern, XmlIndex,
};
use std::time::Instant;
use xseq_telemetry::Histogram;
use xseq_xml::{Designator, Symbol, ValueId};

/// Routes global document id `global` to its shard and its local id there:
/// shard `global mod n`, local `global / n`.  Documents take the shards in
/// turn, so shard `s` holds globals `s, s + n, s + 2n, …` as locals
/// `0, 1, 2, …` and [`Shard::global`] is the inverse.
#[expect(clippy::integer_division_remainder_used, reason = "a database has at least one shard")]
pub(crate) fn route(global: DocId, nshards: usize) -> (usize, DocId) {
    let n = nshards as DocId;
    ((global % n) as usize, global / n)
}

/// The mark of an old id [`Reintern`] has not met yet.
const UNSEEN: u32 = u32::MAX;

/// Re-interns documents from one corpus' tables into a fresh corpus by id —
/// the one step behind corpus splitting and compaction.  Two dense columns
/// map every old designator and value id to its fresh id.  A fresh id is
/// minted (by interning the old id's string, once) the first time its old
/// id is met, so each distinct name and value is hashed once, not once per
/// node.  Documents are pushed in order and each is read in arena order,
/// which is its parse encounter order: ids mint exactly where a
/// from-scratch parse of the pushed documents mints them, and distinct old
/// ids name distinct strings, so the fresh tables are that parse's tables.
/// Hashed value ids are stateless (`h(s) mod range`: what a fresh parse
/// would mint already) and pass through.
pub(crate) struct Reintern<'a> {
    old: &'a SymbolTable,
    names: Vec<u32>,
    values: Vec<u32>,
}

impl<'a> Reintern<'a> {
    /// A remap out of `old`, having met nothing.
    pub(crate) fn new(old: &'a SymbolTable) -> Self {
        Reintern {
            old,
            names: vec![UNSEEN; old.designator_count()],
            values: vec![UNSEEN; old.values.len()],
        }
    }

    /// Re-interns `doc` into `fresh`'s tables, appends it to `fresh` and
    /// returns its id there.  An id the old table never minted keeps the
    /// string path: a designator re-interns its (empty) name, a value
    /// passes through.
    pub(crate) fn push(&mut self, mut doc: Document, fresh: &mut Corpus) -> DocId {
        let (old, symbols) = (self.old, &mut fresh.symbols);
        doc.remap_symbols(|s| match (s.as_elem(), s.as_value()) {
            (Some(d), _) => Symbol::elem(Designator(remap(&mut self.names, d.0, || {
                symbols.designator(old.name(d)).0
            }))),
            (_, Some(v)) => Symbol::value(ValueId(remap(&mut self.values, v.0, || {
                (old.values.resolve(v)).map_or(v.0, |text| symbols.values.intern(text).0)
            }))),
            // a symbol is an element or a value
            (None, None) => s,
        });
        fresh.push(doc)
    }
}

/// The fresh id `column` maps old id `id` to, minted by `mint` on first
/// meeting; an id past the column (one the old table never minted, or any
/// `Hashed` value id) is minted every time.
fn remap(column: &mut [u32], id: u32, mint: impl FnOnce() -> u32) -> u32 {
    match column.get_mut(id as usize) {
        Some(slot) if *slot != UNSEEN => *slot,
        Some(slot) => {
            *slot = mint();
            *slot
        }
        None => mint(),
    }
}

/// Splits a corpus into per-shard corpora by [`route`], re-interning each
/// document into its shard's fresh tables ([`Reintern`]: the shard corpus
/// is bit-identical to parsing the subset from scratch).  One worker per
/// shard, each claiming its own documents by stride, so the split itself
/// is shared-nothing.  One shard holds every document under the tables the
/// corpus already has: it is moved in, not re-interned.
pub(crate) fn split_corpus(corpus: Corpus, nshards: usize, pool: &Pool) -> Vec<Corpus> {
    if nshards == 1 {
        return vec![corpus];
    }
    let (corpus, mode) = (&corpus, corpus.symbols.values.mode());
    let tasks: Vec<_> = (0..nshards)
        .map(|s| {
            move || {
                let docs = corpus.docs.iter().skip(s).step_by(nshards);
                let mut shard = Corpus::new(mode);
                shard.docs.reserve_exact(docs.len());
                let mut remap = Reintern::new(&corpus.symbols);
                for doc in docs {
                    remap.push(doc.clone(), &mut shard);
                }
                shard
            }
        })
        .collect();
    pool.run(tasks)
}

/// Re-resolves a tree pattern built against `from`'s symbol tables into
/// `to`'s id space.  `None` when a named element or interned value is
/// absent from `to` — the pattern is provably empty for that shard (the
/// same short-circuit the per-shard read-only query parse uses).  Rebinding
/// a pattern onto its own tables reproduces it.
#[expect(clippy::expect_used, reason = "only the root, which the loop skips, has no parent")]
pub(crate) fn rebind_pattern(
    p: &TreePattern,
    from: &SymbolTable,
    to: &SymbolTable,
) -> Option<TreePattern> {
    let rebind = |label: PatternLabel| -> Option<PatternLabel> {
        match label {
            PatternLabel::Elem(d) => Some(PatternLabel::Elem(to.lookup_designator(from.name(d))?)),
            PatternLabel::AnyElem => Some(PatternLabel::AnyElem),
            PatternLabel::Value(v) => match from.values.resolve(v) {
                Some(text) => Some(PatternLabel::Value(to.values.lookup(text)?)),
                // Hashed mode: value ids are stateless, every table agrees.
                None => Some(PatternLabel::Value(v)),
            },
        }
    };
    let root = p.root_id();
    let mut out = TreePattern::with_root_axis(rebind(p.label(root))?, p.axis(root));
    // `add` appends children after their parents, so a pass in id order
    // sees every parent first and reproduces the original node ids.
    for n in p.node_ids().skip(1) {
        let parent = p
            .parent(n)
            .expect("every non-root pattern node has a parent");
        out.add(parent, p.axis(n), rebind(p.label(n))?);
    }
    Some(out)
}

/// One independent index shard: its own corpus (symbol/path tables), its
/// documents (locally id'd, as one path column) and its own frozen +
/// overlay index.  Shards share nothing on the query hot path, and a shard
/// holds no lock of its own: query scratch is the caller's
/// [`SearchScratch`].
#[derive(Debug)]
pub(crate) struct Shard {
    /// The symbol and path tables; its document list is empty once built.
    pub(crate) corpus: Corpus,
    /// The documents, as their path encodings against `corpus.paths`.
    pub(crate) docs: PathColumn,
    pub(crate) index: XmlIndex,
    /// This shard's position `s` — the global id of its local document 0.
    pub(crate) first: DocId,
    /// The shard count `n`, the distance between its documents' global ids.
    pub(crate) stride: DocId,
}

impl Shard {
    /// The global id of local document `local` ([`route`]'s inverse):
    /// `local · n + s`, ascending in `local`.
    pub(crate) fn global(&self, local: DocId) -> DocId {
        local * self.stride + self.first
    }

    /// Local document `local`, decoded from the column against the table
    /// that encoded it (removed or not); `None` past the end.
    pub(crate) fn document(&self, local: DocId) -> Option<Document> {
        Document::from_path_encoding(self.docs.get(local)?, &self.corpus.paths)
    }

    /// This shard's share of an XPath query — the one place the pipeline's
    /// parse and search stages are called.  The expression re-resolves
    /// against the shard's own interners, read-only: a symbol absent from
    /// them proves the shard empty, and its outcome is the parse alone.
    /// The parse is timed once, into the `query.parse` histogram (failed
    /// parses too: the time was spent either way) and the outcome's first
    /// step.
    pub(crate) fn answer(
        &self,
        expr: &str,
        scratch: &mut SearchScratch,
        parse_hist: &Histogram,
    ) -> Result<QueryOutcome, ParseError> {
        let start = Instant::now();
        let parsed = xseq_xml::parse_xpath_readonly(expr, &self.corpus.symbols);
        let mut step = QueryStep::new("query.parse", start);
        parse_hist.record(step.ns);
        let pattern = parsed?;
        let mut out = pattern
            .as_ref()
            .map_or_else(QueryOutcome::default, |p| self.search(p, scratch));
        step.count = pattern.map_or(0, |p| p.len() as u64);
        out.stats.parse_ns = step.ns;
        out.steps.insert(0, step);
        Ok(out)
    }

    /// Answers a pattern already bound to this shard's tables: the shard's
    /// index answers with local ids, and the sorted result list rewrites to
    /// global ids ([`Shard::global`] is ascending, so it stays sorted).  One
    /// shard's map is the identity and rewrites nothing.
    pub(crate) fn search(
        &self,
        pattern: &TreePattern,
        scratch: &mut SearchScratch,
    ) -> QueryOutcome {
        let mut out = self.index.query_with(pattern, &self.corpus.paths, scratch);
        if self.stride > 1 {
            for d in &mut out.docs {
                *d = self.global(*d);
            }
        }
        out
    }
}

/// Folds one shard's outcome counters into the gathered aggregate: stats
/// and phase times sum, steps append, classes union (their ids live in
/// per-shard path spaces).  Docs are merged separately by
/// [`union_answers`].
fn absorb_shard_outcome(acc: &mut QueryOutcome, shard: QueryOutcome) {
    acc.stats.instantiations += shard.stats.instantiations;
    acc.stats.plan_truncated += shard.stats.plan_truncated;
    acc.stats.variants += shard.stats.variants;
    acc.stats.search.absorb(shard.stats.search);
    acc.stats.parse_ns += shard.stats.parse_ns;
    acc.stats.plan_ns += shard.stats.plan_ns;
    acc.stats.view_ns += shard.stats.view_ns;
    acc.stats.search_ns += shard.stats.search_ns;
    acc.stats.gather_ns += shard.stats.gather_ns;
    acc.classes.extend(shard.classes);
    acc.steps.extend(shard.steps);
}

/// The gather half of every query: folds the shards' outcomes (in shard
/// order) into one — sorted doc lists union ([`union_answers`]), counters
/// sum, classes union.  No outcomes gather to the empty outcome, and one
/// passes through.  The union of several is timed as one more
/// `index.gather` step, beside the shards' own.
pub(crate) fn gather(answered: impl IntoIterator<Item = QueryOutcome>) -> QueryOutcome {
    let mut answered = answered.into_iter();
    let Some(mut acc) = answered.next() else {
        return QueryOutcome::default();
    };
    let mut lists = vec![std::mem::take(&mut acc.docs)];
    for mut out in answered {
        lists.push(std::mem::take(&mut out.docs));
        absorb_shard_outcome(&mut acc, out);
    }
    acc.classes.sort_unstable();
    acc.classes.dedup();
    if let [one] = lists.as_mut_slice() {
        acc.docs = std::mem::take(one);
        return acc;
    }
    // Shards partition the id space and dropped their own tombstones.
    let t0 = Instant::now();
    acc.docs = union_answers(lists);
    let mut step = QueryStep::new("index.gather", t0);
    step.count = acc.docs.len() as u64;
    acc.stats.gather_ns += step.ns;
    acc.steps.push(step);
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The k-way merge `gather` used before `union_answers`, verbatim.
    fn kway_merge(lists: Vec<Vec<DocId>>) -> Vec<DocId> {
        if lists.len() == 1 {
            return lists.into_iter().next().expect("one list");
        }
        let total = lists.iter().map(Vec::len).sum();
        let mut heads = vec![0usize; lists.len()];
        let mut out = Vec::with_capacity(total);
        loop {
            let mut best: Option<(usize, DocId)> = None;
            for (i, list) in lists.iter().enumerate() {
                if let Some(&d) = list.get(heads[i]) {
                    if best.is_none_or(|(_, bd)| d < bd) {
                        best = Some((i, d));
                    }
                }
            }
            let Some((i, d)) = best else {
                return out;
            };
            heads[i] += 1;
            out.push(d);
        }
    }

    proptest! {
        #[test]
        fn gather_equals_the_kway_merge(
            ids in proptest::collection::vec(0u32..2000, 0..300),
            nshards in 2usize..4,
        ) {
            // Sorted, distinct per-shard lists partitioning the answer, as
            // routing leaves them.
            let mut ids = ids;
            ids.sort_unstable();
            ids.dedup();
            let mut lists = vec![Vec::new(); nshards];
            for &d in &ids {
                lists[route(d, nshards).0].push(d);
            }
            let outcomes = lists.iter().map(|docs| QueryOutcome {
                docs: docs.clone(),
                ..QueryOutcome::default()
            });
            let gathered = gather(outcomes).docs;
            prop_assert_eq!(&gathered, &kway_merge(lists));
            prop_assert_eq!(gathered, ids);
        }
    }
}
