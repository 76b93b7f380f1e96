//! The paper's ordered matchers (Section 4.2, Algorithm 1) and ViST's naïve
//! matching, over any [`TrieView`].
//!
//! Matching walks the query sequence element by element; for element `i` the
//! candidates are the entries of its horizontal path link whose serial lies
//! in `(v⊢, v⊣]` for the previously matched node `v` (binary search — the
//! links are in ascending serial order).  Matched nodes therefore lie on a
//! single root-to-leaf trie path, with nested label ranges.
//!
//! **Naïve** matching stops there and suffers the Figure 4 false alarms.
//! **Constraint** matching additionally enforces condition 2 of
//! Definition 3: for each query element, the matched node's *closest
//! same-path trie ancestor* for its query-tree parent path must be exactly
//! the node matched for that parent — the "not sibling-covered" condition of
//! Definition 4/Theorem 3 (in a trie merged across documents, same-path
//! nodes inside a range may sit on disjoint branches, so the ancestor walk
//! is the faithful generalization of the consecutive-link-entry check).
//! Following Algorithm 1's `ins` set, the check is only evaluated when the
//! anchor node *embeds identical siblings*; otherwise it holds vacuously.
//!
//! Both align left to right, so they are complete only for strategies that
//! order any two paths the same way in every document and query (canonical
//! depth-first), and only over every isomorphic variant of the query
//! ([`ordered_query`]).  `xseq_index::tree_search`, which `Database` runs,
//! needs neither.

use crate::isomorph::isomorphic_variants;
use xseq_index::{
    instantiate, QueryOutcome, QuerySequence, SearchStats, SequenceTrie, TrieNodeId, TrieView,
    XmlIndex,
};
use xseq_xml::{DocId, PathTable, TreePattern};

/// Isomorphic sibling orderings searched per concrete query tree.
const MAX_ISOMORPHS: usize = 64;

/// Answers `pattern` over `index`'s frozen trie with an ordered matcher
/// (`search` is [`constraint_search`] or [`naive_search`]): instantiate the
/// wildcards, expand each concrete tree into its isomorphic variants
/// (Section 3.3), search each variant's sequence, union.  The index must
/// have no update overlay; the counters that apply are `instantiations`,
/// `variants` and `search`.
pub fn ordered_query(
    index: &XmlIndex,
    pattern: &TreePattern,
    paths: &PathTable,
    search: fn(&SequenceTrie, &QuerySequence) -> (Vec<DocId>, SearchStats),
) -> QueryOutcome {
    let mut out = QueryOutcome::default();
    let concrete = instantiate(pattern, paths, index.data_paths(), index.options());
    out.stats.instantiations = concrete.len() as u64;
    for variant in concrete
        .iter()
        .flat_map(|tree| isomorphic_variants(tree, MAX_ISOMORPHS))
    {
        // A query path absent from the table matches no data.
        let Some(qs) = QuerySequence::from_document_readonly(&variant, paths, index.strategy())
        else {
            continue;
        };
        let (docs, st) = search(index.trie(), &qs);
        out.stats.variants += 1;
        out.stats.search.absorb(st);
        out.docs.extend(docs);
    }
    out.docs.sort_unstable();
    out.docs.dedup();
    out
}

/// Runs constraint subsequence matching (Algorithm 1): returns the ids of
/// the documents containing the query structure, deduplicated and sorted.
pub fn constraint_search<V: TrieView + ?Sized>(
    trie: &V,
    q: &QuerySequence,
) -> (Vec<DocId>, SearchStats) {
    search_with(trie, q, true)
}

/// Naïve subsequence matching (ViST-style): no constraint check, so the
/// result may contain false alarms when identical sibling nodes exist.
pub fn naive_search<V: TrieView + ?Sized>(
    trie: &V,
    q: &QuerySequence,
) -> (Vec<DocId>, SearchStats) {
    search_with(trie, q, false)
}

fn search_with<V: TrieView + ?Sized>(
    trie: &V,
    q: &QuerySequence,
    check: bool,
) -> (Vec<DocId>, SearchStats) {
    let mut stats = SearchStats::default();
    let mut docs = Vec::new();
    if q.is_empty() {
        return (docs, stats);
    }
    let (rs, rm) = trie.label(trie.root());
    let matched = &mut Vec::with_capacity(q.len());
    go(trie, q, 0, rs, rm, check, matched, &mut docs, &mut stats);
    docs.sort_unstable();
    docs.dedup();
    (docs, stats)
}

#[allow(clippy::too_many_arguments)]
#[expect(clippy::indexing_slicing, reason = "i < q.len(); a parent's pp < i <= matched.len()")]
fn go<V: TrieView + ?Sized>(
    trie: &V,
    q: &QuerySequence,
    i: usize,
    v_serial: u32,
    v_max: u32,
    check: bool,
    matched: &mut Vec<TrieNodeId>,
    out: &mut Vec<DocId>,
    stats: &mut SearchStats,
) {
    if i == q.len() {
        stats.completions += 1;
        trie.collect_docs_in_range(v_serial, v_max, out);
        return;
    }
    let path = q.paths[i];
    // candidates: serial ∈ (v⊢, v⊣]
    let len = trie.link_len(path);
    stats.link_probes += 1;
    let mut idx = trie.link_lower_bound(path, v_serial);
    while idx < len {
        let e = trie.link_entry(path, idx);
        if e.serial > v_max {
            break;
        }
        idx += 1;
        stats.candidates += 1;
        if check {
            if let Some(pp) = q.parent_pos[i] {
                let anchor = matched[pp as usize];
                if trie.embeds_identical(anchor)
                    && trie.nearest_ancestor_with_path(e.serial, q.paths[pp as usize])
                        != Some(anchor)
                {
                    stats.cover_rejections += 1;
                    continue;
                }
            }
        }
        matched.push(e.serial);
        go(
            trie,
            q,
            i + 1,
            e.serial,
            e.max_desc,
            check,
            matched,
            out,
            stats,
        );
        matched.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xseq_sequence::Sequence;
    use xseq_xml::{PathId, Symbol, SymbolTable, ValueMode};

    struct Fx {
        st: SymbolTable,
        pt: PathTable,
        trie: SequenceTrie,
    }

    impl Fx {
        fn new() -> Self {
            Fx {
                st: SymbolTable::with_value_mode(ValueMode::Intern),
                pt: PathTable::new(),
                trie: SequenceTrie::new(),
            }
        }
        fn p(&mut self, spec: &str) -> PathId {
            let syms: Vec<Symbol> = spec.split('.').map(|s| self.st.elem(s)).collect();
            self.pt.intern(&syms)
        }
        fn seq(&mut self, specs: &[&str]) -> Sequence {
            Sequence(specs.iter().map(|s| self.p(s)).collect())
        }
        fn insert(&mut self, specs: &[&str], doc: DocId) {
            let s = self.seq(specs);
            self.trie.insert(&s, doc);
        }
        fn query(&mut self, specs: &[&str]) -> QuerySequence {
            let s = self.seq(specs);
            QuerySequence::from_sequence(&s, &self.pt)
        }
    }

    #[test]
    fn simple_subsequence_match() {
        let mut fx = Fx::new();
        fx.insert(&["P", "P.R", "P.R.L", "P.D", "P.D.L"], 1);
        fx.insert(&["P", "P.D", "P.D.M"], 2);
        fx.trie.freeze();

        let q = fx.query(&["P", "P.D", "P.D.L"]);
        let (docs, _) = constraint_search(&fx.trie, &q);
        assert_eq!(docs, vec![1]);

        let q = fx.query(&["P", "P.D"]);
        let (docs, _) = constraint_search(&fx.trie, &q);
        assert_eq!(docs, vec![1, 2]);

        let q = fx.query(&["P", "P.X"]);
        let (docs, _) = constraint_search(&fx.trie, &q);
        assert!(docs.is_empty());
    }

    #[test]
    fn figure4_false_alarm_rejected_by_constraint_match() {
        // D = ⟨P, PL, PLS, PL, PLB⟩ (P with L(S) and L(B));
        // Q = ⟨P, PL, PLS, PLB⟩ (P with one L(S, B)).
        // Naïve matching accepts (false alarm); constraint matching must not.
        let mut fx = Fx::new();
        fx.insert(&["P", "P.L", "P.L.S", "P.L", "P.L.B"], 7);
        fx.trie.freeze();

        let q = fx.query(&["P", "P.L", "P.L.S", "P.L.B"]);
        let (naive, _) = naive_search(&fx.trie, &q);
        assert_eq!(naive, vec![7], "naïve matching triggers the false alarm");
        let (constrained, stats) = constraint_search(&fx.trie, &q);
        assert!(constrained.is_empty(), "constraint match rejects it");
        assert!(stats.cover_rejections > 0);
    }

    #[test]
    fn true_match_with_identical_siblings_accepted() {
        // D = P(L(S,B)) — the query structure actually present.
        let mut fx = Fx::new();
        fx.insert(&["P", "P.L", "P.L.S", "P.L.B"], 3);
        // plus a decoy doc with split L's
        fx.insert(&["P", "P.L", "P.L.S", "P.L", "P.L.B"], 4);
        fx.trie.freeze();

        let q = fx.query(&["P", "P.L", "P.L.S", "P.L.B"]);
        let (docs, _) = constraint_search(&fx.trie, &q);
        assert_eq!(docs, vec![3]);
    }

    #[test]
    fn query_with_two_identical_siblings() {
        // Q = P(L(S), L(B)) = ⟨P, PL, PLS, PL, PLB⟩ matches the split doc
        // but not the joint one (which has only one L).
        let mut fx = Fx::new();
        fx.insert(&["P", "P.L", "P.L.S", "P.L.B"], 3);
        fx.insert(&["P", "P.L", "P.L.S", "P.L", "P.L.B"], 4);
        fx.trie.freeze();

        let q = fx.query(&["P", "P.L", "P.L.S", "P.L", "P.L.B"]);
        let (docs, _) = constraint_search(&fx.trie, &q);
        assert_eq!(docs, vec![4]);
    }

    #[test]
    fn result_is_subtree_union() {
        // A query matching an interior node returns every doc whose sequence
        // passes through it.
        let mut fx = Fx::new();
        fx.insert(&["P", "P.A"], 1);
        fx.insert(&["P", "P.A", "P.A.X"], 2);
        fx.insert(&["P", "P.A", "P.A.Y"], 3);
        fx.insert(&["P", "P.B"], 4);
        fx.trie.freeze();
        let q = fx.query(&["P", "P.A"]);
        let (docs, _) = constraint_search(&fx.trie, &q);
        assert_eq!(docs, vec![1, 2, 3]);
    }

    #[test]
    fn gap_alignment_is_explored() {
        // The query's second element may match deeper than the immediately
        // next trie level.
        let mut fx = Fx::new();
        fx.insert(&["P", "P.A", "P.B", "P.C"], 1);
        fx.trie.freeze();
        let q = fx.query(&["P", "P.C"]);
        let (docs, _) = constraint_search(&fx.trie, &q);
        assert_eq!(docs, vec![1]);
    }

    #[test]
    fn naive_equals_constraint_without_identical_siblings() {
        let mut fx = Fx::new();
        fx.insert(&["P", "P.A", "P.A.X", "P.B"], 1);
        fx.insert(&["P", "P.B", "P.B.Y"], 2);
        fx.insert(&["P", "P.A", "P.B"], 3);
        fx.trie.freeze();
        for qspec in [
            vec!["P"],
            vec!["P", "P.A"],
            vec!["P", "P.B"],
            vec!["P", "P.A", "P.B"],
            vec!["P", "P.A", "P.A.X"],
        ] {
            let q = fx.query(&qspec);
            let (a, _) = constraint_search(&fx.trie, &q);
            let (b, _) = naive_search(&fx.trie, &q);
            assert_eq!(a, b, "{qspec:?}");
        }
    }

    #[test]
    fn empty_query_returns_nothing() {
        let mut fx = Fx::new();
        fx.insert(&["P"], 1);
        fx.trie.freeze();
        let q = QuerySequence {
            paths: vec![],
            parent_pos: vec![],
        };
        let (docs, _) = constraint_search(&fx.trie, &q);
        assert!(docs.is_empty());
    }

    #[test]
    fn duplicate_results_are_deduplicated() {
        // Two alignments can reach overlapping ranges; each doc must appear
        // once.
        let mut fx = Fx::new();
        fx.insert(&["P", "P.A", "P.A.X", "P.A", "P.A.X"], 1);
        fx.trie.freeze();
        let q = fx.query(&["P", "P.A"]);
        let (docs, _) = constraint_search(&fx.trie, &q);
        assert_eq!(docs, vec![1]);
    }

    #[test]
    fn deep_nesting_three_identical_levels() {
        // Document with three nested identical-path chains (via three L
        // siblings each repeated): stress the ancestor walk.
        let mut fx = Fx::new();
        fx.insert(&["P", "P.L", "P.L.S", "P.L", "P.L.S", "P.L", "P.L.B"], 1);
        fx.trie.freeze();
        // P(L(S), L(S), L(B)): present.
        let q = fx.query(&["P", "P.L", "P.L.S", "P.L", "P.L.S", "P.L", "P.L.B"]);
        let (docs, _) = constraint_search(&fx.trie, &q);
        assert_eq!(docs, vec![1]);
        // P(L(S, B)): absent.
        let q = fx.query(&["P", "P.L", "P.L.S", "P.L.B"]);
        let (docs, _) = constraint_search(&fx.trie, &q);
        assert!(docs.is_empty());
    }
}
