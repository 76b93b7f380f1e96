//! Unit tests of the XPath-subset parser ([`crate::xpath`]), kept at the
//! crate root so that the suite names them `tests::*`.
#![cfg(test)]

use crate::xpath::{parse_xpath_readonly, ParseError, MAX_DEPTH};
use crate::{Axis, PatternLabel, SymbolTable, TreePattern, ValueMode};

/// A table holding `names` and `values`, as indexing real data would.
fn st(names: &[&str], values: &[&str]) -> SymbolTable {
    let mut s = SymbolTable::with_value_mode(ValueMode::Intern);
    for name in names {
        s.elem(name);
    }
    for value in values {
        s.values.intern(value);
    }
    s
}

fn parse(input: &str, s: &SymbolTable) -> TreePattern {
    parse_xpath_readonly(input, s)
        .unwrap()
        .expect("every symbol is in the table")
}

#[test]
fn simple_path() {
    let s = st(&["inproceedings", "title"], &[]);
    let q = parse("/inproceedings/title", &s);
    assert_eq!(q.len(), 2);
    assert_eq!(q.axis(0), Axis::Child);
    assert_eq!(q.render(&s), "/inproceedings/title");
}

#[test]
fn readonly_parse_resolves_names_interned_after_the_fact() {
    // The merged-symbol-view contract of the update model: a name
    // unknown at one point parses to `Ok(None)` (provably empty), and
    // once *some* ingest path interns it — never the query path — the
    // same expression resolves to a pattern.
    let mut s = st(&["a"], &[]);
    assert!(parse_xpath_readonly("/a/z", &s).unwrap().is_none());
    s.elem("z");
    let q = parse_xpath_readonly("/a/z", &s)
        .unwrap()
        .expect("resolves now");
    assert_eq!(q.len(), 2);
    // Same for values.
    assert!(parse_xpath_readonly("/a[text='x']", &s).unwrap().is_none());
    s.values.intern("x");
    assert!(parse_xpath_readonly("/a[text='x']", &s).unwrap().is_some());
}

#[test]
fn descendant_root() {
    let s = st(&["author"], &["David"]);
    let q = parse("//author[text='David']", &s);
    assert_eq!(q.len(), 2);
    assert_eq!(q.axis(0), Axis::Descendant);
    let v = s.values.lookup("David").unwrap();
    assert_eq!(q.label(1), PatternLabel::Value(v));
}

#[test]
fn star_step() {
    let s = st(&["author"], &["David"]);
    let q = parse("/*/author[text='David']", &s);
    assert_eq!(q.label(0), PatternLabel::AnyElem);
    assert_eq!(q.len(), 3);
}

#[test]
fn paper_q1_structure() {
    let s = st(
        &["site", "item", "location", "mail", "date"],
        &["United States", "07/05/2000"],
    );
    let q = parse(
        "/site//item[location='United States']/mail/date[text='07/05/2000']",
        &s,
    );
    // nodes: site, item, location, 'United States', mail, date, '07/05/2000'
    assert_eq!(q.len(), 7);
    let site = q.root_id();
    assert_eq!(q.children(site).len(), 1);
    let item = q.children(site)[0];
    assert_eq!(q.axis(item), Axis::Descendant);
    assert_eq!(q.children(item).len(), 2, "location branch + mail spine");
}

#[test]
fn paper_q2_structure() {
    let s = st(&["site", "person", "age"], &["32"]);
    let q = parse("/site//person/*/age[text='32']", &s);
    assert_eq!(q.len(), 5);
    // site → person(desc) → *(child) → age(child) → '32'
    let star = 2;
    assert_eq!(q.label(star), PatternLabel::AnyElem);
}

#[test]
fn paper_q3_structure() {
    let s = st(
        &["closed_auction", "seller", "person", "date"],
        &["person11304", "12/15/1999"],
    );
    let q = parse(
        "//closed_auction[seller/person='person11304']/date[text='12/15/1999']",
        &s,
    );
    // closed_auction, seller, person, 'person11304', date, '12/15/1999'
    assert_eq!(q.len(), 6);
    let ca = q.root_id();
    assert_eq!(q.axis(ca), Axis::Descendant);
    assert_eq!(q.children(ca).len(), 2);
}

#[test]
fn stray_slash_before_predicate() {
    // the paper's /book/[key='Maier']/author
    let s = st(&["book", "key", "author"], &["Maier"]);
    let q = parse("/book/[key='Maier']/author", &s);
    assert_eq!(q.len(), 4);
    let book = q.root_id();
    assert_eq!(q.children(book).len(), 2);
    let rendered = q.render(&s);
    assert!(rendered.contains("book"), "{rendered}");
    assert!(rendered.contains("author"), "{rendered}");
}

#[test]
fn typographic_quotes() {
    let s = st(&["site", "item", "location"], &["United States"]);
    let q = parse("/site//item[location=‘United States’]", &s);
    let v = s.values.lookup("United States").unwrap();
    assert!(q.node_ids().any(|n| q.label(n) == PatternLabel::Value(v)));
}

#[test]
fn descendant_inside_predicate() {
    let s = st(&["a", "b"], &["x"]);
    let q = parse("/a[//b='x']", &s);
    assert_eq!(q.len(), 3);
    assert_eq!(q.axis(1), Axis::Descendant);
}

#[test]
fn multiple_predicates() {
    let s = st(&["a", "b", "c", "d"], &["1", "2"]);
    let q = parse("/a[b='1'][c='2']/d", &s);
    // a, b, '1', c, '2', d
    assert_eq!(q.len(), 6);
    assert_eq!(q.children(q.root_id()).len(), 3);
}

#[test]
fn attribute_syntax_accepted() {
    let s = st(&["item", "id"], &["7"]);
    let q = parse("/item[@id='7']", &s);
    assert_eq!(q.len(), 3);
}

#[test]
fn existence_predicate_without_value() {
    let s = st(&["a", "b", "c"], &[]);
    let q = parse("/a[b/c]", &s);
    assert_eq!(q.len(), 3);
    // c has no value child
    assert!(q.children(2).is_empty());
}

#[test]
fn nested_predicates_paper_section31() {
    // /Project[Research[Loc='newyork']]/Develop[Loc='boston']
    let s = st(
        &["Project", "Research", "Loc", "Develop"],
        &["newyork", "boston"],
    );
    let q = parse(
        "/Project[Research[Loc='newyork']]/Develop[Loc='boston']",
        &s,
    );
    // Project, Research, Loc, 'newyork', Develop, Loc, 'boston'
    assert_eq!(q.len(), 7);
    let root = q.root_id();
    assert_eq!(q.children(root).len(), 2);
    let research = q.children(root)[0];
    let develop = q.children(root)[1];
    assert_eq!(q.children(research).len(), 1);
    let loc1 = q.children(research)[0];
    assert_eq!(q.children(loc1).len(), 1, "value under the nested Loc");
    assert_eq!(q.children(develop).len(), 1);
}

#[test]
fn deeply_nested_predicates() {
    let s = st(&["a", "b", "c", "d", "e"], &["x"]);
    let q = parse("/a[b[c[d='x']]]/e", &s);
    // a, b, c, d, 'x', e
    assert_eq!(q.len(), 6);
}

#[test]
fn predicate_nesting_is_bounded_at_max_depth() {
    // a[a[a[…]]] with `levels` brackets
    let nested = |levels: usize| format!("/a{}{}", "[a".repeat(levels), "]".repeat(levels));
    let s = st(&["a"], &[]);
    let q = parse(&nested(MAX_DEPTH), &s);
    assert_eq!(q.len(), MAX_DEPTH + 1);
    let too_deep = Err(ParseError::TooDeep {
        offset: 2 + 2 * MAX_DEPTH,
        limit: MAX_DEPTH,
    });
    assert_eq!(
        parse_xpath_readonly(&nested(MAX_DEPTH + 1), &s).map(|_| ()),
        too_deep
    );
    // far past the limit: still an error, never a stack overflow
    assert!(matches!(
        parse_xpath_readonly(&format!("/a{}", "[a".repeat(200_000)), &s),
        Err(ParseError::TooDeep { .. })
    ));
}

#[test]
fn errors() {
    let s = st(&["a", "b"], &["x"]);
    assert!(parse_xpath_readonly("", &s).is_err());
    assert!(
        parse_xpath_readonly("a/b", &s).is_err(),
        "must start with /"
    );
    assert!(
        parse_xpath_readonly("/a[b='x'", &s).is_err(),
        "unclosed bracket"
    );
    assert!(
        parse_xpath_readonly("/a[b='x]", &s).is_err(),
        "unclosed quote"
    );
    assert!(parse_xpath_readonly("/a/", &s).is_err(), "trailing slash");
}

/// Names and values are slices of the input, multi-byte characters
/// included, and an error names the byte offset it stopped at.
#[test]
fn non_ascii_input_and_byte_offsets() {
    let s = st(&["café", "b"], &["crème brûlée"]);
    let q = parse("/café[b=‘crème brûlée’]", &s);
    assert_eq!(q.len(), 3);
    assert_eq!(q.render(&s), "/café/b/'crème brûlée'");
    let err = parse_xpath_readonly("/café[b='x'", &s).unwrap_err();
    assert_eq!(
        err,
        ParseError::Unexpected {
            offset: "/café[b='x'".len(),
            found: None,
            expected: "']'",
        }
    );
    let err = parse_xpath_readonly("/café/ü!", &s).unwrap_err();
    assert!(matches!(
        err,
        ParseError::Unexpected {
            offset: 9,
            found: Some('!'),
            ..
        }
    ));
    assert!(parse_xpath_readonly("/café[b='x", &s).is_err());
}

#[test]
fn whitespace_tolerated() {
    let s = st(&["a", "b", "c"], &["x"]);
    let q = parse("  /a [ b = 'x' ] / c ", &s);
    assert_eq!(q.len(), 4);
}

#[test]
fn readonly_parse_unknown_symbol_is_none() {
    let s = st(&["a", "b"], &["1"]);
    let before = s.designator_count();
    assert!(parse_xpath_readonly("/a/zzz", &s).unwrap().is_none());
    assert!(parse_xpath_readonly("/a[b='unseen']", &s)
        .unwrap()
        .is_none());
    assert_eq!(s.designator_count(), before, "nothing interned");
    // syntax errors still surface, past an unknown symbol too
    assert!(parse_xpath_readonly("/a[b='x'", &s).is_err());
    assert!(parse_xpath_readonly("/zzz[b='x'", &s).is_err());
}

#[test]
fn readonly_parse_chars_mode_chains() {
    let mut s = SymbolTable::with_value_mode(ValueMode::Chars);
    s.elem("a");
    let chain = s.values.chain("xy");
    let q = parse_xpath_readonly("/a[text='xy']", &s)
        .unwrap()
        .expect("chain known");
    // a, then the chain x y END
    assert_eq!(q.len(), 1 + chain.len());
    let labels: Vec<_> = q.node_ids().skip(1).map(|n| q.label(n)).collect();
    let expect: Vec<_> = chain.into_iter().map(PatternLabel::Value).collect();
    assert_eq!(labels, expect);
    // a prefix test drops the terminator
    let prefix = parse_xpath_readonly("/a[text^='xy']", &s).unwrap().unwrap();
    assert_eq!(prefix.len(), q.len() - 1);
    assert!(parse_xpath_readonly("/a[text='xz']", &s).unwrap().is_none());
}
