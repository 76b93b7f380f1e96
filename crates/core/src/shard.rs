//! Shards: hash routing, the per-shard vertical slice, and the gather half
//! of a query (DESIGN.md §15).  A [`Database`](crate::Database) is N ≥ 1 of
//! these; nothing here (or above) treats N = 1 specially.

use crate::{
    index::{union_answers, QueryStep, SearchScratch},
    Corpus, DocId, Document, ParseError, PatternLabel, Pool, QueryOutcome, SymbolTable,
    TreePattern, XmlIndex,
};
use std::time::Instant;
use xseq_telemetry::Histogram;
use xseq_xml::{Designator, Symbol, ValueId};

/// Routes a global document id to its shard: the splitmix64 finalizer over
/// the id, reduced mod the shard count — uniform, stateless and
/// deterministic, so the same corpus always shards the same way.
#[expect(clippy::integer_division_remainder_used, reason = "a database has at least one shard")]
pub(crate) fn shard_of(global: DocId, nshards: usize) -> usize {
    let mut z = (global as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((z ^ (z >> 31)) % nshards as u64) as usize
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

    /// Appends a re-interned copy of `doc` to `fresh` and returns its id
    /// there.  The copy is deliberate: it lays the survivors out
    /// contiguously (moving them out of the old corpus was measured slower
    /// to query, DESIGN.md §11.2).  An id the old table never minted keeps
    /// the string path: a designator re-interns its (empty) name, a value
    /// passes through.
    pub(crate) fn push(&mut self, doc: &Document, fresh: &mut Corpus) -> DocId {
        let (old, symbols) = (self.old, &mut fresh.symbols);
        let mut doc = doc.clone();
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

/// Splits a corpus into per-shard corpora by hash-routing each document and
/// re-interning it into its shard's fresh tables ([`Reintern`]: the shard
/// corpus is bit-identical to parsing the subset from scratch).  One
/// worker per shard; every worker scans the routing table and claims only
/// its own documents, so the split itself is shared-nothing.  Returns the
/// shard corpora, the global→(shard, local) map, and the per-shard
/// local→global lists.
#[allow(clippy::type_complexity)]
#[expect(clippy::indexing_slicing, reason = "routes has a slot per doc; shard_of < nshards")]
pub(crate) fn split_corpus(
    corpus: &Corpus,
    nshards: usize,
    pool: &Pool,
) -> (Vec<Corpus>, Vec<(u32, DocId)>, Vec<Vec<DocId>>) {
    let mode = corpus.symbols.values.mode();
    let routes: Vec<usize> = (0..corpus.docs.len())
        .map(|g| shard_of(g as DocId, nshards))
        .collect();
    let mut doc_map = Vec::with_capacity(corpus.docs.len());
    let mut counts = vec![0u32; nshards];
    for &s in &routes {
        doc_map.push((s as u32, counts[s] as DocId));
        counts[s] += 1;
    }
    let (routes, counts) = (&routes, &counts);
    let tasks: Vec<_> = (0..nshards)
        .map(|s| {
            move || {
                let mut shard = Corpus::new(mode);
                shard.docs.reserve_exact(counts[s] as usize);
                let mut gids = Vec::with_capacity(counts[s] as usize);
                let mut remap = Reintern::new(&corpus.symbols);
                for (gid, doc) in corpus.docs.iter().enumerate() {
                    if routes[gid] != s {
                        continue;
                    }
                    remap.push(doc, &mut shard);
                    gids.push(gid as DocId);
                }
                (shard, gids)
            }
        })
        .collect();
    let (corpora, global_ids) = pool.run(tasks).into_iter().unzip();
    (corpora, doc_map, global_ids)
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

/// One independent index shard: its own corpus (symbol/path tables and
/// documents, locally id'd), its own frozen + overlay index, and the
/// local→global id map.  Shards share nothing on the query hot path, and a
/// shard holds no lock of its own: query scratch is the caller's
/// [`SearchScratch`].
#[derive(Debug)]
pub(crate) struct Shard {
    pub(crate) corpus: Corpus,
    pub(crate) index: XmlIndex,
    /// Local doc id → global doc id, ascending (locals are dense and
    /// assigned in global-id order, so mapping a sorted local result list
    /// keeps it sorted).
    pub(crate) global_ids: Vec<DocId>,
}

impl Shard {
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
        let parsed = xseq_query::parse_xpath_readonly(expr, &self.corpus.symbols);
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
    /// global ids (an ascending map, so it stays sorted).  A strictly
    /// ascending map of `n` ids ending at `n − 1` is the identity — one
    /// shard's map always is — and rewrites nothing.
    #[expect(clippy::indexing_slicing, reason = "global_ids maps every local id the trie holds")]
    pub(crate) fn search(
        &self,
        pattern: &TreePattern,
        scratch: &mut SearchScratch,
    ) -> QueryOutcome {
        let mut out = self.index.query_with(pattern, &self.corpus.paths, scratch);
        let ids = &self.global_ids;
        if ids
            .last()
            .is_some_and(|&last| last as usize + 1 != ids.len())
        {
            for d in &mut out.docs {
                *d = ids[*d as usize];
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
            // hash routing leaves them.
            let mut ids = ids;
            ids.sort_unstable();
            ids.dedup();
            let mut lists = vec![Vec::new(); nshards];
            for &d in &ids {
                lists[shard_of(d, nshards)].push(d);
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
