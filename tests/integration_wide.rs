//! Robustness regression: one node with tens of thousands of children.
//!
//! Until ROADMAP item 2 the probability emitter was cubic in the fan-out
//! of one node — rescan the available nodes per emitted node, and scan the
//! parent's child list per comparison — so a 14 KB document with 2 000
//! distinctly named children took 6.8 s to build in release and one with
//! 8 000 did not finish in 290 s.  Nothing documented that bound, and XML
//! from outside chooses its own fan-out.  These documents must now build,
//! take an insert, answer, verify and compact in time linear (up to a log
//! factor) in their size.

use std::fmt::Write as _;
use std::time::{Duration, Instant};
use xseq::DatabaseBuilder;

/// Children under the one parent, in debug and release alike.
const CHILDREN: usize = 32_000;

/// No step is anywhere near this; the cubic emitter was far beyond it.
const BOUND: Duration = Duration::from_secs(60);

/// `<r><n0/><n1/>…</r>` or `<r><e>0</e><e>1</e>…</r>`.
fn wide_document(distinct_names: bool) -> String {
    let mut xml = String::from("<r>");
    for i in 0..CHILDREN {
        if distinct_names {
            let _ = write!(xml, "<n{i}/>");
        } else {
            let _ = write!(xml, "<e>{i}</e>");
        }
    }
    xml + "</r>"
}

fn builds_inserts_answers_verifies_and_compacts(distinct_names: bool) {
    let xml = wide_document(distinct_names);
    let (query, nodes) = if distinct_names {
        ("//n7", 1 + CHILDREN)
    } else {
        ("//e[text='7']", 1 + 2 * CHILDREN)
    };
    let t0 = Instant::now();
    let mut step = {
        let mut last = t0;
        move || std::mem::replace(&mut last, Instant::now()).elapsed()
    };
    let mut db = DatabaseBuilder::new()
        .build_from_xml([xml.as_str()])
        .expect("the document is well-formed");
    let build = step();
    assert_eq!(db.insert_document(&xml), Ok(1));
    let insert = step();
    for id in 0..2 {
        assert_eq!(db.document(id).map(|d| d.len()), Some(nodes));
    }
    assert_eq!(
        db.index().node_count(),
        nodes,
        "one document, one trie path"
    );
    assert_eq!(db.query_xpath(query), Ok(vec![0, 1]));
    let answer = step();
    assert!(db.verify_integrity().is_clean());
    let verify = step();
    let report = db.compact();
    let compact = step();
    assert_eq!((report.docs_after, report.delta_merged), (2, 1));
    assert_eq!(db.query_xpath(query), Ok(vec![0, 1]));
    assert_eq!(db.query_xpath("/r"), Ok(vec![0, 1]));
    assert!(db.verify_integrity().is_clean());
    eprintln!(
        "{CHILDREN} children, distinct names {distinct_names}: build {build:?}, insert \
         {insert:?}, query {answer:?}, verify {verify:?}, compact {compact:?}"
    );
    assert!(
        t0.elapsed() < BOUND,
        "a wide document took {:?}",
        t0.elapsed()
    );
}

#[test]
fn a_parent_with_tens_of_thousands_of_distinct_children() {
    builds_inserts_answers_verifies_and_compacts(true);
}

#[test]
fn a_parent_with_tens_of_thousands_of_identical_siblings() {
    builds_inserts_answers_verifies_and_compacts(false);
}
