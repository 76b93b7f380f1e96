//! End-to-end pipeline: XML text → parser → database → XPath queries →
//! dynamic insert → serialization round trip.

use xseq::xml::write_document;
use xseq::{DatabaseBuilder, Error, Sequencing, ValueMode};

const PROJECTS: &[&str] = &[
    r#"<project><research><manager>tom</manager><location>newyork</location></research>
        <develop><manager>johnson</manager><location>boston</location></develop></project>"#,
    r#"<project><develop><unit><manager>mary</manager><name>GUI</name></unit>
        <unit><name>engine</name></unit><location>boston</location></develop></project>"#,
    r#"<project><research><location>boston</location></research></project>"#,
];

#[test]
fn xpath_queries_over_parsed_documents() {
    let db = DatabaseBuilder::new()
        .sequencing(Sequencing::Probability)
        .build_from_xml(PROJECTS.iter().copied())
        .unwrap();

    // Section 3.1's query shape
    assert_eq!(
        db.query_xpath("/project[research[location='newyork']]/develop[location='boston']")
            .unwrap(),
        vec![0]
    );
    assert_eq!(
        db.query_xpath("//location[text='boston']").unwrap(),
        vec![0, 1, 2]
    );
    assert_eq!(
        db.query_xpath("/project/develop/unit/name").unwrap(),
        vec![1]
    );
    // Figure 4 semantics: manager and name under the SAME unit
    assert_eq!(db.query_xpath("//unit[manager][name]").unwrap(), vec![1]);
    // wildcard: one level only — doc 1's manager sits under unit, two
    // levels below develop, so only doc 0 matches
    assert_eq!(db.query_xpath("/project/*/manager").unwrap(), vec![0]);
    assert_eq!(db.query_xpath("/project//manager").unwrap(), vec![0, 1]);
    // no match
    assert!(db.query_xpath("/project/qa").unwrap().is_empty());
}

#[test]
fn insert_refreshes_index() {
    let mut db = DatabaseBuilder::new()
        .build_from_xml(PROJECTS.iter().copied())
        .unwrap();
    assert!(db
        .query_xpath("//location[text='tokyo']")
        .unwrap()
        .is_empty());
    let id = db
        .insert_document("<project><research><location>tokyo</location></research></project>")
        .unwrap();
    assert_eq!(
        db.query_xpath("//location[text='tokyo']").unwrap(),
        vec![id]
    );
    // older queries still work
    assert_eq!(db.query_xpath("//unit[manager][name]").unwrap(), vec![1]);
}

#[test]
fn serialization_round_trip_preserves_answers() {
    let db = DatabaseBuilder::new()
        .build_from_xml(PROJECTS.iter().copied())
        .unwrap();
    // write out, re-parse, rebuild: same answers
    let texts: Vec<String> = db
        .corpus()
        .docs
        .iter()
        .map(|d| write_document(d, &db.corpus().symbols))
        .collect();
    let db2 = DatabaseBuilder::new()
        .build_from_xml(texts.iter().map(String::as_str))
        .unwrap();
    for q in [
        "//location[text='boston']",
        "//unit[manager][name]",
        "/project/*/manager",
    ] {
        assert_eq!(
            db.query_xpath(q).unwrap(),
            db2.query_xpath(q).unwrap(),
            "{q}"
        );
    }
}

#[test]
fn hashed_values_still_answer_queries() {
    // ViST's hashed value designators: collisions possible, containment of
    // true answers guaranteed.
    let db = DatabaseBuilder::new()
        .value_mode(ValueMode::Hashed { range: 1000 })
        .build_from_xml(PROJECTS.iter().copied())
        .unwrap();
    let hits = db.query_xpath("//location[text='newyork']").unwrap();
    assert!(hits.contains(&0));
}

#[test]
fn error_paths_are_reported() {
    assert!(matches!(
        DatabaseBuilder::new().build_from_xml(["<oops>"]),
        Err(Error::Xml(_))
    ));
    let db = DatabaseBuilder::new().build_from_xml(["<a/>"]).unwrap();
    assert!(matches!(db.query_xpath("not-a-path"), Err(Error::Query(_))));
}
