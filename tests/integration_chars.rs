//! The paper's second value representation end to end: values as
//! per-character chains ("represent 'boston' by b,o,s,t,o,n", Section 2.1),
//! which makes matching *inside* attribute values possible — exact equality
//! via the chain terminator, starts-with via an unterminated chain (`^=`).

use xseq::{DatabaseBuilder, DocId, Sequencing, ValueMode};

const DOCS: &[&str] = &[
    "<p><loc>boston</loc></p>",
    "<p><loc>boise</loc></p>",
    "<p><loc>newyork</loc></p>",
    "<p><loc>bo</loc></p>",
];

fn db(seq: Sequencing) -> xseq::Database {
    DatabaseBuilder::new()
        .sequencing(seq)
        .value_mode(ValueMode::Chars)
        .build_from_xml(DOCS.iter().copied())
        .expect("DOCS are well-formed")
}

#[test]
fn exact_equality_via_terminated_chain() {
    for seq in [Sequencing::DepthFirst, Sequencing::Probability] {
        let d = db(seq);
        assert_eq!(
            d.query_xpath("/p/loc[text='boston']").unwrap(),
            vec![0],
            "{seq:?}"
        );
        assert_eq!(
            d.query_xpath("/p/loc[text='bo']").unwrap(),
            vec![3],
            "{seq:?}"
        );
        assert!(
            d.query_xpath("/p/loc[text='bost']").unwrap().is_empty(),
            "{seq:?}"
        );
    }
}

#[test]
fn starts_with_via_unterminated_chain() {
    for seq in [Sequencing::DepthFirst, Sequencing::Probability] {
        let d = db(seq);
        // 'bo' prefix: boston, boise, bo
        assert_eq!(
            d.query_xpath("/p/loc[text^='bo']").unwrap(),
            vec![0, 1, 3],
            "{seq:?}"
        );
        assert_eq!(
            d.query_xpath("/p/loc[text^='bos']").unwrap(),
            vec![0],
            "{seq:?}"
        );
        assert_eq!(
            d.query_xpath("/p/loc[text^='new']").unwrap(),
            vec![2],
            "{seq:?}"
        );
        assert!(
            d.query_xpath("/p/loc[text^='z']").unwrap().is_empty(),
            "{seq:?}"
        );
        // empty prefix matches every value-bearing loc
        assert_eq!(
            d.query_xpath("/p/loc[text^='']").unwrap(),
            vec![0, 1, 2, 3],
            "{seq:?}"
        );
    }
}

#[test]
fn prefix_operator_in_branch_predicates() {
    let d = db(Sequencing::Probability);
    assert_eq!(d.query_xpath("/p[loc^='bo']").unwrap(), vec![0, 1, 3]);
    assert_eq!(d.query_xpath("/p[loc='newyork']").unwrap(), vec![2]);
}

#[test]
fn chars_roundtrip_through_writer() {
    let d = db(Sequencing::DepthFirst);
    let texts: Vec<String> = (0..d.len() as DocId)
        .map(|g| d.document(g).expect("every document is live"))
        .map(|doc| xseq::xml::write_document(&doc, &d.corpus().symbols))
        .collect();
    assert_eq!(texts[0], "<p><loc>boston</loc></p>");
    // rebuild from serialized text: same answers
    let d2 = DatabaseBuilder::new()
        .value_mode(ValueMode::Chars)
        .build_from_xml(texts.iter().map(String::as_str))
        .unwrap();
    assert_eq!(
        d.query_xpath("/p/loc[text^='bo']").unwrap(),
        d2.query_xpath("/p/loc[text^='bo']").unwrap()
    );
}

#[test]
fn atomic_modes_treat_prefix_as_equality() {
    // In Intern/Hashed modes values are atomic designators; `^=` degrades to
    // `=` by documented design.
    let d = DatabaseBuilder::new()
        .build_from_xml(DOCS.iter().copied())
        .unwrap();
    assert_eq!(d.query_xpath("/p/loc[text^='bo']").unwrap(), vec![3]);
}

#[test]
fn chars_mode_with_wildcards() {
    let d = db(Sequencing::Probability);
    assert_eq!(d.query_xpath("//loc[text^='bois']").unwrap(), vec![1]);
    assert_eq!(d.query_xpath("/p/*[text='boston']").unwrap(), vec![0]);
}
