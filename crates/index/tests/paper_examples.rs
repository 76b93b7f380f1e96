//! The paper's worked examples, end to end against the index.

use xseq_index::{constraint_search, naive_search, PlanOptions, QuerySequence, XmlIndex};
use xseq_sequence::{sequence_document, Sequence, Strategy};
use xseq_xml::{
    parse_document, Axis, PathTable, PatternLabel, Symbol, SymbolTable, TreePattern, ValueMode,
};

/// Figure 1's project document.
const FIGURE1: &str = r#"
<P>
  <v>xml</v>
  <R><M>johnson0</M><L>newyork</L></R>
  <D>
    <M>johnson</M>
    <U><M>mary</M><N>GUI</N></U>
    <U><N>engine</N></U>
    <L>boston</L>
  </D>
</P>"#;

#[test]
fn section31_query_on_figure1() {
    // /Project[Research[Loc=newyork]]/Develop[Loc=boston] — the paper's
    // Section 3.1 example, which must match the Figure 1 document.
    let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
    let doc = parse_document(FIGURE1, &mut st).unwrap();
    let decoy =
        parse_document("<P><R><L>boston</L></R><D><L>newyork</L></D></P>", &mut st).unwrap();
    let mut paths = PathTable::new();
    let index = XmlIndex::build(
        &[doc, decoy],
        &mut paths,
        Strategy::DepthFirst,
        PlanOptions::default(),
    );

    let p = st.designator("P");
    let r = st.designator("R");
    let d = st.designator("D");
    let l = st.designator("L");
    let ny = st.values.lookup("newyork").unwrap();
    let bos = st.values.lookup("boston").unwrap();

    let mut q = TreePattern::root(PatternLabel::Elem(p));
    let rn = q.add(q.root_id(), Axis::Child, PatternLabel::Elem(r));
    let rl = q.add(rn, Axis::Child, PatternLabel::Elem(l));
    q.add(rl, Axis::Child, PatternLabel::Value(ny));
    let dn = q.add(q.root_id(), Axis::Child, PatternLabel::Elem(d));
    let dl = q.add(dn, Axis::Child, PatternLabel::Elem(l));
    q.add(dl, Axis::Child, PatternLabel::Value(bos));

    // doc 0: R has newyork, D has boston → match.
    // doc 1: locations swapped → no match.
    assert_eq!(index.query(&q, &paths).docs, vec![0]);
}

/// Builds the paths of a spec like "P.L.S" against shared tables.
fn p(st: &mut SymbolTable, pt: &mut PathTable, spec: &str) -> xseq_xml::PathId {
    let syms: Vec<Symbol> = spec.split('.').map(|s| st.elem(s)).collect();
    pt.intern(&syms)
}

#[test]
fn figure10_sibling_cover_scenario() {
    // The exact scenario of Figure 10 and the surrounding discussion:
    // data ⟨P, PL, PLS, PL, PLB⟩, query ⟨P, PL, PLS, PLB⟩.  The match
    // reaching node e (PLB) violates condition 2 because node d (the inner
    // PL) sibling-covers it.
    let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
    let mut pt = PathTable::new();
    let seq = Sequence(vec![
        p(&mut st, &mut pt, "P"),
        p(&mut st, &mut pt, "P.L"),
        p(&mut st, &mut pt, "P.L.S"),
        p(&mut st, &mut pt, "P.L"),
        p(&mut st, &mut pt, "P.L.B"),
    ]);
    let mut trie = xseq_index::SequenceTrie::new();
    trie.insert(&seq, 0);
    trie.freeze();

    let q = Sequence(vec![
        p(&mut st, &mut pt, "P"),
        p(&mut st, &mut pt, "P.L"),
        p(&mut st, &mut pt, "P.L.S"),
        p(&mut st, &mut pt, "P.L.B"),
    ]);
    let qs = QuerySequence::from_sequence(&q, &pt);
    let (naive, _) = naive_search(&trie, &qs);
    assert_eq!(naive, vec![0], "naïve match is the false alarm");
    let (strict, stats) = constraint_search(&trie, &qs);
    assert!(strict.is_empty(), "constraint match rejects it");
    assert!(stats.cover_rejections >= 1);
}

#[test]
fn eq4_sequence_of_figure1_under_depth_first() {
    // The document sequence Eq (4) is a depth-first constraint sequence of
    // Figure 1; ours is the canonicalized variant — check the structural
    // invariants rather than the exact order: one element per node, every
    // prefix present, decodes back to the document.
    let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
    let doc = parse_document(FIGURE1, &mut st).unwrap();
    let mut paths = PathTable::new();
    let seq = sequence_document(&doc, &mut paths, &Strategy::DepthFirst);
    assert_eq!(seq.len(), doc.len());
    let back = xseq_sequence::decode_f2(&seq, &paths).unwrap();
    assert!(back.structurally_eq(&doc));
}

#[test]
fn naive_query_interface_of_section42() {
    // Section 4.2's worked query ⟨p0, p2, p9, p8⟩ walk: a simple-path query
    // descends through binary-searched ranges; verify range narrowing via
    // search stats on a small trie.
    let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
    let mut pt = PathTable::new();
    let mut trie = xseq_index::SequenceTrie::new();
    for (i, specs) in [
        vec!["P", "P.A", "P.A.X", "P.B"],
        vec!["P", "P.A", "P.B"],
        vec!["P", "P.B", "P.B.Y"],
    ]
    .iter()
    .enumerate()
    {
        let seq = Sequence(specs.iter().map(|s| p(&mut st, &mut pt, s)).collect());
        trie.insert(&seq, i as u32);
    }
    trie.freeze();
    let q = Sequence(vec![p(&mut st, &mut pt, "P"), p(&mut st, &mut pt, "P.B")]);
    let qs = QuerySequence::from_sequence(&q, &pt);
    let (docs, stats) = constraint_search(&trie, &qs);
    assert_eq!(docs, vec![0, 1, 2]);
    // P has one trie node; P.B has three (one per distinct prefix)
    assert_eq!(stats.candidates, 1 + 3);
}

#[test]
fn impact2_selective_elements_prune_search() {
    // Section 5.1 Impact 2: a rare element early cuts the search space.
    // The order-free search reorders by link selectivity automatically, so
    // the candidate count stays near the selective path's frequency even
    // when the query lists common elements first.
    let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
    let mut pt = PathTable::new();
    let mut trie = xseq_index::SequenceTrie::new();
    // 50 docs with a common chain, one of which has the rare element
    for i in 0..50u32 {
        let mut specs = vec!["P", "P.U", "P.U.M"];
        if i == 17 {
            specs.push("P.J"); // rare 'Johnson'
        }
        // vary a value so tries don't fully collapse
        let leaf = format!("P.U.M.x{i}");
        specs.push(Box::leak(leaf.into_boxed_str()));
        let seq = Sequence(specs.iter().map(|s| p(&mut st, &mut pt, s)).collect());
        trie.insert(&seq, i);
    }
    trie.freeze();
    let q = Sequence(vec![
        p(&mut st, &mut pt, "P"),
        p(&mut st, &mut pt, "P.U"),
        p(&mut st, &mut pt, "P.U.M"),
        p(&mut st, &mut pt, "P.J"),
    ]);
    let qs = QuerySequence::from_sequence(&q, &pt);
    let (docs, stats) = xseq_index::tree_search(&trie, &qs);
    assert_eq!(docs, vec![17]);
    assert!(
        stats.candidates <= 8,
        "selectivity ordering keeps candidates near the rare link: {stats:?}"
    );
}
