//! The paper's worked examples, end to end against the index.

use xseq_index::{PlanOptions, QuerySequence, XmlIndex};
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

/// Builds the paths of a spec like "P.L.S" against shared tables.
fn p(st: &mut SymbolTable, pt: &mut PathTable, spec: &str) -> xseq_xml::PathId {
    let syms: Vec<Symbol> = spec.split('.').map(|s| st.elem(s)).collect();
    pt.intern(&syms)
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
