//! The paper's worked examples for the ordered matchers (Section 4.2).

use xseq_baselines::{constraint_search, naive_search};
use xseq_index::{QuerySequence, SequenceTrie};
use xseq_sequence::Sequence;
use xseq_xml::{PathTable, Symbol, SymbolTable, ValueMode};

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
    let mut trie = SequenceTrie::new();
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
fn naive_query_interface_of_section42() {
    // Section 4.2's worked query ⟨p0, p2, p9, p8⟩ walk: a simple-path query
    // descends through binary-searched ranges; verify range narrowing via
    // search stats on a small trie.
    let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
    let mut pt = PathTable::new();
    let mut trie = SequenceTrie::new();
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
