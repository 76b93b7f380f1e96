//! The seeded order-free search against the search it replaced.
//!
//! `tree_search` starts at the query leaf with the shortest path link,
//! matches that leaf's query ancestors by one upward walk per link entry,
//! and skips every branch whose tip lies in a range it has already
//! collected.  Until then it placed query parents before their children,
//! most selective first, and searched every branch to the end.  That search
//! is the reference here, kept verbatim; the two must return the same sorted
//! document list on every trie — the frozen one and every overlay segment —
//! under every strategy.

use proptest::prelude::*;
use xseq_datagen::xmark::q3_constants;
use xseq_datagen::{queries, DblpGenerator, XmarkGenerator, XmarkOptions};
use xseq_index::{
    instantiate, tree_search, tree_search_with, PlanOptions, QuerySequence, SearchScratch,
    SearchStats, TrieNodeId, TrieView, XmlIndex, NIL,
};
use xseq_sequence::strategy::has_identical_siblings;
use xseq_sequence::{ProbabilityModel, Strategy as SeqStrategy, WeightMap};
use xseq_xml::{
    parse_document, parse_xpath_readonly, DocId, Document, PathTable, SymbolTable, ValueMode,
};

// ---------------------------------------------------------------------
// The reference: parents first, most selective first, no range skip.
// ---------------------------------------------------------------------

fn reference_tree_search<V: TrieView + ?Sized>(
    trie: &V,
    q: &QuerySequence,
) -> (Vec<DocId>, SearchStats) {
    let mut stats = SearchStats::default();
    let mut docs = Vec::new();
    if q.is_empty() {
        return (docs, stats);
    }
    // Because the search is order-free, we are free to process the most
    // *selective* elements first (shortest path links), subject only to
    // parents-before-children — exactly the paper's "Impact 2": highly
    // selective elements early shrink the search space.
    let n = q.len();
    let lens: Vec<usize> = q.paths.iter().map(|&p| trie.link_len(p)).collect();
    if lens.contains(&0) {
        return (docs, stats); // some required path never occurs in the data
    }
    let mut order = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    for _ in 0..n {
        let mut best: Option<usize> = None;
        for e in 0..n {
            if placed[e] {
                continue;
            }
            let ready = match q.parent_pos[e] {
                None => true,
                Some(pp) => placed[pp as usize],
            };
            if ready && best.is_none_or(|b| lens[e] < lens[b]) {
                best = Some(e);
            }
        }
        let e = best.expect("parent_pos forms a forest");
        placed[e] = true;
        order.push(e);
    }

    let mut matched = vec![NIL; n];
    let mut used = Vec::with_capacity(n);
    tree_go(
        trie,
        q,
        &order,
        0,
        trie.root(),
        &mut matched,
        &mut used,
        &mut docs,
        &mut stats,
    );
    docs.sort_unstable();
    docs.dedup();
    (docs, stats)
}

/// One step of the order-free search: processing slot `k` selects element
/// `order[k]` (the order puts parents first and selective elements early);
/// `tip` is the deepest matched trie node.
#[allow(clippy::too_many_arguments)]
fn tree_go<V: TrieView + ?Sized>(
    trie: &V,
    q: &QuerySequence,
    order: &[usize],
    k: usize,
    tip: TrieNodeId,
    matched: &mut Vec<TrieNodeId>,
    used: &mut Vec<TrieNodeId>,
    out: &mut Vec<DocId>,
    stats: &mut SearchStats,
) {
    if k == order.len() {
        stats.completions += 1;
        let (ts, tm) = trie.label(tip);
        trie.collect_docs_in_range(ts, tm, out);
        return;
    }
    let i = order[k];
    let path = q.paths[i];
    let (anchor, anchor_path) = match q.parent_pos[i] {
        None => (trie.root(), None),
        Some(pp) => (matched[pp as usize], Some(q.paths[pp as usize])),
    };
    let (anchor_serial, _) = trie.label(anchor);
    let (tip_serial, tip_max) = trie.label(tip);

    // A valid candidate must: carry `path`; be a strict descendant of
    // `anchor`; satisfy the closest-ancestor constraint; be unused; and be
    // chain-comparable with `tip` (an ancestor of it, or a descendant).
    let try_candidate = |r: TrieNodeId,
                         matched: &mut Vec<TrieNodeId>,
                         used: &mut Vec<TrieNodeId>,
                         out: &mut Vec<DocId>,
                         stats: &mut SearchStats| {
        stats.candidates += 1;
        if used.contains(&r) {
            return;
        }
        if let Some(ap) = anchor_path {
            if trie.embeds_identical(anchor)
                && trie.nearest_ancestor_with_path(r, ap) != Some(anchor)
            {
                stats.cover_rejections += 1;
                return;
            }
        }
        let (rs, _) = trie.label(r);
        let new_tip = if rs > tip_serial { r } else { tip };
        matched[i] = r;
        used.push(r);
        tree_go(trie, q, order, k + 1, new_tip, matched, used, out, stats);
        used.pop();
        matched[i] = NIL;
    };

    // (1) candidates below the tip: link range (tip⊢, tip⊣].
    let len = trie.link_len(path);
    stats.link_probes += 1;
    let mut idx = trie.link_lower_bound(path, tip_serial);
    while idx < len {
        let e = trie.link_entry(path, idx);
        if e.serial > tip_max {
            break;
        }
        try_candidate(e.serial, matched, used, out, stats);
        idx += 1;
    }
    // (2) candidates on the chain above the tip, strictly below the anchor.
    let mut cur = trie.parent(tip);
    while cur != NIL {
        let (cs, _) = trie.label(cur);
        if cs <= anchor_serial {
            break;
        }
        if trie.path(cur) == path {
            try_candidate(cur, matched, used, out, stats);
        }
        cur = trie.parent(cur);
    }
}

// ---------------------------------------------------------------------
// Comparing the two.
// ---------------------------------------------------------------------

/// Runs both searches over the frozen trie and every overlay segment of
/// `index`.  The new search reuses one warm scratch across every call, so a
/// range collected by one search must not leak into the next.  Returns
/// whether any segment answered.
fn same_answers(index: &XmlIndex, qs: &QuerySequence, scratch: &mut SearchScratch) -> bool {
    let view = index.delta_view();
    let mut answered = false;
    for segment in std::iter::once(index.trie()).chain(view.segments()) {
        tree_search_with(segment, qs, scratch);
        let (expect, _) = reference_tree_search(segment, qs);
        assert_eq!(scratch.docs, expect, "query {:?}", qs.paths);
        answered |= !expect.is_empty();
    }
    answered
}

/// `docs[..built]` frozen, the rest inserted into an overlay small enough to
/// cut runs and merge them.
fn index_with(docs: &[Document], built: usize, paths: &mut PathTable, kind: usize) -> XmlIndex {
    let built = built.min(docs.len());
    let strategy = match kind {
        0 => SeqStrategy::DepthFirst,
        1 => SeqStrategy::BreadthFirst,
        2 => SeqStrategy::Random { seed: 0x5eed },
        _ => {
            let model = ProbabilityModel::estimate(&docs[..built], paths, 0);
            SeqStrategy::Probability(model.priorities(paths, &WeightMap::default()))
        }
    };
    let mut index = XmlIndex::build(&docs[..built], paths, strategy, PlanOptions::default());
    index.configure_delta(2, 2);
    for (id, doc) in docs.iter().enumerate().skip(built) {
        index.insert_delta(doc, id as DocId, paths);
        index.maybe_merge();
    }
    index
}

// ---------------------------------------------------------------------
// Random corpora and query trees.
// ---------------------------------------------------------------------

/// One document: per node a parent choice, a label choice and a value.
type DocRecipe = Vec<(u32, u8, Option<u8>)>;

fn docs_recipe() -> impl Strategy<Value = Vec<DocRecipe>> {
    let node = (
        any::<u32>(),
        any::<u8>(),
        proptest::option::weighted(0.4, any::<u8>()),
    );
    proptest::collection::vec(proptest::collection::vec(node, 0..10), 1..9)
}

/// Elements `e0..e2` under an `e0` root, values `v0..v2` as leaves.  With
/// `distinct`, a node that would repeat a sibling's label is dropped —
/// breadth-first sequencing is only defined without identical siblings.
fn build_doc(recipe: &DocRecipe, st: &mut SymbolTable, distinct: bool) -> Document {
    let mut doc = Document::with_root(st.elem("e0"));
    let mut elems = vec![doc.root().expect("with_root sets the root")];
    for &(parent, label, value) in recipe {
        let parent = elems[parent as usize % elems.len()];
        let sym = st.elem(&format!("e{}", label % 3));
        if distinct && doc.children(parent).iter().any(|&c| doc.sym(c) == sym) {
            continue;
        }
        let n = doc.child(parent, sym);
        elems.push(n);
        if let Some(v) = value {
            doc.child(n, st.val(&format!("v{}", v % 3)));
        }
    }
    doc
}

/// A query tree: a connected, root-anchored part of one corpus document
/// (picked node by node from the frontier), with some elements relabelled
/// so that not every query matches.
type QueryRecipe = (u32, Vec<u32>, Vec<Option<u8>>);

fn query_recipe() -> impl Strategy<Value = QueryRecipe> {
    (
        any::<u32>(),
        proptest::collection::vec(any::<u32>(), 0..7),
        proptest::collection::vec(proptest::option::weighted(0.15, any::<u8>()), 7),
    )
}

fn build_query(recipe: &QueryRecipe, docs: &[Document], st: &mut SymbolTable) -> Document {
    let (choice, picks, relabel) = recipe;
    let doc = &docs[*choice as usize % docs.len()];
    let root = doc.root().expect("corpus documents have a root");
    let mut q = Document::with_root(doc.sym(root));
    let qroot = q.root().expect("with_root sets the root");
    let mut frontier: Vec<(u32, u32)> = doc.children(root).iter().map(|&c| (c, qroot)).collect();
    for (k, &pick) in picks.iter().enumerate() {
        if frontier.is_empty() {
            break;
        }
        let (n, parent) = frontier.swap_remove(pick as usize % frontier.len());
        let sym = match relabel[k] {
            Some(l) if doc.sym(n).is_elem() => st.elem(&format!("e{}", l % 4)),
            _ => doc.sym(n),
        };
        let qn = q.child(parent, sym);
        frontier.extend(doc.children(n).iter().map(|&c| (c, qn)));
    }
    q
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn seeded_search_matches_the_parents_first_reference(
        docs in docs_recipe(),
        inserted in docs_recipe(),
        queries in proptest::collection::vec(query_recipe(), 1..8),
    ) {
        for kind in 0..4 {
            let distinct = kind == 1;
            let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
            let corpus: Vec<Document> = docs
                .iter()
                .chain(&inserted)
                .map(|r| build_doc(r, &mut st, distinct))
                .collect();
            let mut paths = PathTable::new();
            let index = index_with(&corpus, docs.len(), &mut paths, kind);
            let mut scratch = SearchScratch::new();
            for recipe in &queries {
                let qdoc = build_query(recipe, &corpus, &mut st);
                if distinct && has_identical_siblings(&qdoc) {
                    continue;
                }
                if let Some(qs) = QuerySequence::from_document_readonly(&qdoc, &paths, index.strategy()) {
                    same_answers(&index, &qs, &mut scratch);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Named shapes.
// ---------------------------------------------------------------------

/// `docs` indexed under strategy `kind` (as in `index_with`), and `query`
/// sequenced against the index.
fn index_and_query(docs: &[&str], query: &str, kind: usize) -> (XmlIndex, QuerySequence) {
    let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
    let docs: Vec<Document> = docs
        .iter()
        .map(|x| parse_document(x, &mut st).expect("well-formed"))
        .collect();
    let qdoc = parse_document(query, &mut st).expect("well-formed");
    let mut paths = PathTable::new();
    let index = index_with(&docs, docs.len(), &mut paths, kind);
    let qs = QuerySequence::from_document_readonly(&qdoc, &paths, index.strategy())
        .expect("every query path occurs in the data");
    (index, qs)
}

/// Both searches return `expect` for `query` under depth-first, random and
/// probability sequencing.
fn named_case(docs: &[&str], query: &str, expect: &[DocId]) {
    for kind in [0, 2, 3] {
        let (index, qs) = index_and_query(docs, query, kind);
        let (got, _) = tree_search(index.trie(), &qs);
        assert_eq!(got, expect, "{query} under strategy {kind}");
        same_answers(&index, &qs, &mut SearchScratch::new());
    }
}

#[test]
fn seed_ancestor_anchoring_a_side_branch() {
    // The `increase` shape: the rarest leaf is the value, and its bidder
    // anchors the `personref` branch, which must sit under the *same*
    // bidder (document 1 splits the two over identical siblings).
    named_case(
        &[
            "<site><auction><bidder><increase>5</increase><personref/></bidder>\
             <bidder><increase>7</increase></bidder></auction></site>",
            "<site><auction><bidder><increase>5</increase></bidder>\
             <bidder><personref/></bidder></auction></site>",
            "<site><auction><bidder><increase>7</increase><personref/></bidder></auction></site>",
            "<site><auction><bidder><personref/><increase>5</increase></bidder></auction></site>",
        ],
        "<site><auction><bidder><increase>5</increase><personref/></bidder></auction></site>",
        &[0, 3],
    );
}

#[test]
fn pure_path_walks_nothing() {
    named_case(
        &[
            "<a><b><c/></b></a>",
            "<a><b/></a>",
            "<a><d><b><c/></b></d></a>",
            "<a><b><c/></b><b><c/></b></a>",
        ],
        "<a><b><c/></b></a>",
        &[0, 3],
    );
}

#[test]
fn nested_seed_entries_are_skipped_once_collected() {
    // P(L(S), L(S)) sequences depth first as ⟨P, PL, PLS, PL, PLS⟩, so the
    // second PLS node nests under the first: the first entry's completion
    // collects a range holding the second, which the link scan jumps past.
    let docs = ["<p><l><s/></l><l><s/></l></p>", "<p><l><s/></l></p>"];
    named_case(&docs, "<p><l><s/></l></p>", &[0, 1]);

    let (index, qs) = index_and_query(&docs, "<p><l><s/></l></p>", 0);
    let (docs, stats) = tree_search(index.trie(), &qs);
    assert_eq!(docs, [0, 1]);
    assert_eq!((stats.candidates, stats.completions), (1, 1), "{stats:?}");
    assert_eq!(stats.link_probes, 2, "one scan, one jump: {stats:?}");
}

#[test]
fn two_identical_query_children() {
    let docs = [
        "<p><l><s/></l><l><b/></l></p>",
        "<p><l><s/><b/></l></p>",
        "<p><l><s/></l><l><s/></l></p>",
    ];
    named_case(&docs, "<p><l><s/></l><l><b/></l></p>", &[0]);
    named_case(&docs, "<p><l/><l/></p>", &[0, 2]);
    named_case(&docs, "<p><l><s/><b/></l></p>", &[1]);
    named_case(&docs, "<p><l><s/></l><l><s/></l></p>", &[2]);
}

#[test]
fn query_root_as_the_only_leaf() {
    named_case(&["<p><a/></p>", "<q><a/></q>", "<p/>"], "<p/>", &[0, 2]);
}

// ---------------------------------------------------------------------
// The benchmark's query classes over small generated corpora.
// ---------------------------------------------------------------------

/// Text of the first value found by walking `steps` below the root of any
/// document.
fn first_text(docs: &[Document], st: &SymbolTable, steps: &[&str]) -> Option<String> {
    let names: Vec<_> = steps
        .iter()
        .map(|s| st.lookup_designator(s))
        .collect::<Option<_>>()?;
    'doc: for doc in docs {
        let mut node = doc.root()?;
        for &name in &names {
            match doc
                .children(node)
                .iter()
                .find(|&&c| doc.sym(c).as_elem() == Some(name))
            {
                Some(&c) => node = c,
                None => continue 'doc,
            }
        }
        let v = doc.sym(*doc.children(node).first()?).as_value()?;
        return st.values.resolve(v).map(str::to_owned);
    }
    None
}

/// Every concrete tree of every class, both searches, on the frozen trie
/// and the overlay, after checking that each class plans within its cap;
/// returns how many classes some segment answered.
fn check_classes(docs: &[Document], st: &SymbolTable, classes: &[String], kind: usize) -> usize {
    let mut paths = PathTable::new();
    let index = index_with(docs, docs.len() - 24, &mut paths, kind);
    let mut scratch = SearchScratch::new();
    let mut answered = 0;
    for expr in classes {
        let Some(pattern) = parse_xpath_readonly(expr, st).expect("class parses") else {
            continue;
        };
        // A database fails a query whose plan passes its cap, so a class
        // that did would be a failed operation in every benchmark run.
        let planned = index.query_with(&pattern, &paths, &mut scratch);
        assert_eq!(planned.stats.plan_truncated, 0, "{expr} plans in full");
        let mut any = false;
        for qdoc in instantiate(&pattern, &paths, index.data_paths(), index.options()) {
            let strategy = index.strategy();
            if let Some(qs) = QuerySequence::from_document_readonly(&qdoc, &paths, strategy) {
                any |= same_answers(&index, &qs, &mut scratch);
            }
        }
        answered += usize::from(any);
    }
    answered
}

#[test]
fn benchmark_class_shapes_match_the_reference() {
    let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
    let xmark = XmarkGenerator::new(7, XmarkOptions::default()).generate(400, &mut st);
    let (person, date) = q3_constants(&xmark, &st).expect("a closed auction");
    let from = first_text(&xmark, &st, &["item", "mailbox", "mail", "from"]).expect("a mail");
    let xmark_classes = [
        "/site/person/name".to_string(),
        format!("//closed_auction[seller/person='{person}']/date[text='{date}']"),
        "//item[incategory='category3'][location='Germany']/name".into(),
        "//person[profile/interest='category1']/address/city[text='Paris']".into(),
        queries::XMARK_Q2.into(),
        queries::XMARK_Q1.into(),
        format!("//*[seller/person='{person}']"),
        "/site/open_auction/bidder/date".into(),
        format!("/site//mail[from='{from}']"),
        "/site/*/bidder[increase='5.00']/personref".into(),
        format!("/site/closed_auction[seller/person='{person}']/date"),
        "/site/item[location='Germany']/name".into(),
        "/site/person/profile/age[text='32']".into(),
    ];
    let dblp = DblpGenerator::new(7).generate(400, &mut st);
    let dblp_classes = [
        "/article[journal='NoSuchJournal']/title".to_string(),
        "/inproceedings[year='1999']/booktitle".into(),
        queries::DBLP_Q2.into(),
        "/phdthesis/school".into(),
        "/inproceedings[author='David'][year='2001']/title".into(),
        queries::DBLP_Q1.into(),
        "/article/author".into(),
        queries::DBLP_Q3.into(),
        queries::DBLP_Q4.into(),
    ];
    for kind in [0, 3] {
        let answered = check_classes(&xmark, &st, &xmark_classes, kind);
        assert!(
            answered >= 10,
            "xmark, strategy {kind}: {answered} classes answered"
        );
        let answered = check_classes(&dblp, &st, &dblp_classes, kind);
        assert!(
            answered >= 6,
            "dblp, strategy {kind}: {answered} classes answered"
        );
    }
}
