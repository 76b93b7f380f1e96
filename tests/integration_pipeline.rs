//! End-to-end pipeline: XML text → parser → database → XPath queries →
//! dynamic insert → serialization round trip.

use proptest::prelude::*;
use std::sync::OnceLock;
use xseq::datagen::dblp::DblpGenerator;
use xseq::datagen::queries::{DBLP_QUERIES, XMARK_QUERIES};
use xseq::datagen::xmark::{XmarkGenerator, XmarkOptions};
use xseq::xml::{write_document, SymbolTable};
use xseq::{DatabaseBuilder, DocId, Error, Sequencing, ValueMode};

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
    let texts: Vec<String> = (0..db.len() as DocId)
        .map(|g| db.document(g).expect("every document is live"))
        .map(|d| write_document(&d, &db.corpus().symbols))
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

/// Datagen records as XML text: 24 XMark, then 24 DBLP.
fn records() -> &'static [String] {
    static RECORDS: OnceLock<Vec<String>> = OnceLock::new();
    RECORDS.get_or_init(|| {
        let mut symbols = SymbolTable::with_value_mode(ValueMode::Intern);
        let mut docs = XmarkGenerator::new(7, XmarkOptions::default()).generate(24, &mut symbols);
        docs.extend(DblpGenerator::new(7).generate(24, &mut symbols));
        docs.iter().map(|d| write_document(d, &symbols)).collect()
    })
}

/// One byte-level edit: `(kind, position, payload)`, each reduced modulo
/// what the text at hand allows.
type Edit = (u8, u32, u8);

/// A pick (which record or query, modulo how many there are) and the 1–4
/// edits to apply to it.
fn mutants(n: usize) -> impl Strategy<Value = Vec<(u32, Vec<Edit>)>> {
    let edits = proptest::collection::vec((any::<u8>(), any::<u32>(), any::<u8>()), 1..=4);
    proptest::collection::vec((any::<u32>(), edits), n)
}

/// Applies 1–4 byte edits — overwrite, delete, insert a syntax character,
/// truncate, swap — and re-decodes lossily, so the result is a `&str` a
/// caller could really hand the database.  (`crates/xml/tests/proptests.rs`
/// carries the same mutator for the parser alone.)
fn mutate(text: &str, edits: &[Edit]) -> String {
    const SYNTAX: &[u8] = b"<>/&;\"'=[]!-?";
    let mut bytes = text.as_bytes().to_vec();
    for &(kind, pos, payload) in edits {
        if bytes.is_empty() {
            break;
        }
        let len = bytes.len();
        let at = pos as usize % len;
        match kind % 5 {
            0 => bytes[at] = payload,
            1 => drop(bytes.remove(at)),
            2 => bytes.insert(at, SYNTAX[payload as usize % SYNTAX.len()]),
            3 => bytes.truncate(at),
            _ => bytes.swap(at, (at + 1 + payload as usize) % len),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Hostile bytes at both front doors: a mutated record is inserted or
    /// refused with `Error::Xml` and no trace left behind; a mutated paper
    /// query is answered or refused with `Error::Query`; nothing panics,
    /// and the index is intact afterwards.
    #[test]
    fn mutated_records_and_queries_are_served_or_refused(
        docs in mutants(32),
        queries in mutants(16),
    ) {
        let records = records();
        let mut db = DatabaseBuilder::new()
            .build_from_xml(records.iter().map(String::as_str))
            .unwrap();
        for (pick, edits) in &docs {
            let mutant = mutate(&records[*pick as usize % records.len()], edits);
            let before = db.len();
            match db.insert_document(&mutant) {
                Ok(_) => prop_assert_eq!(db.len(), before + 1, "{mutant:?}"),
                Err(Error::Xml(_)) => prop_assert_eq!(db.len(), before, "{mutant:?}"),
                Err(e) => prop_assert!(false, "{e} for {mutant:?}"),
            }
        }
        let paper: Vec<&str> = XMARK_QUERIES.iter().chain(DBLP_QUERIES).map(|&(_, q)| q).collect();
        for (pick, edits) in &queries {
            let mutant = mutate(paper[*pick as usize % paper.len()], edits);
            let answer = db.query_xpath(&mutant);
            prop_assert!(
                matches!(answer, Ok(_) | Err(Error::Query(_))),
                "{answer:?} for {mutant:?}"
            );
        }
        let report = db.verify_integrity();
        prop_assert!(report.is_clean(), "{}", report.summary());
    }
}
