//! # xseq-query — an XPath-subset front end for tree patterns
//!
//! The paper expresses its workload as XPath-style path expressions with
//! branching predicates, values and wildcards (Tables 4 and 8):
//!
//! ```text
//! /site//item[location='United States']/mail/date[text='07/05/2000']
//! /site//person/*/age[text='32']
//! //closed_auction[seller/person='person11304']/date[text='12/15/1999']
//! /book[key='Maier']/author
//! ```
//!
//! This crate parses that dialect into [`TreePattern`]s — the tree pattern
//! is the index's basic query unit, so the front end's only job is building
//! the tree.  Grammar:
//!
//! ```text
//! query     := step+
//! step      := ('/' | '//') nametest predicate*
//! nametest  := NAME | '*'
//! predicate := '[' 'text' '=' value ']'
//!            | '[' relpath ('=' value)? ']'
//! relpath   := ('.')? step+            (a relative branch)
//! value     := '…' | '…' | "…"        (straight or typographic quotes)
//! ```
//!
//! Semantics: steps extend the spine; each predicate hangs a branch off the
//! current node; `[p = 'v']` adds a value leaf under the branch tip;
//! `[text='v']` adds a value leaf directly under the current node.  An `@`
//! before a name is accepted and ignored (attributes are ordinary child
//! nodes in this data model).

// Panic-freedom, checked by clippy (DESIGN.md §14): every suppression is an
// `#[expect(…, reason = "…")]` carrying its proof.
#![deny(
    clippy::indexing_slicing,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::integer_division_remainder_used
)]

use std::fmt;
use xseq_xml::{
    Axis, Designator, PatternLabel, PatternNodeId, SymbolTable, TreePattern, ValueId, ValueMode,
};

/// Errors from the XPath-subset parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Unexpected character.
    Unexpected {
        /// Byte offset.
        offset: usize,
        /// What was found (or `None` at end of input).
        found: Option<char>,
        /// What the parser wanted.
        expected: &'static str,
    },
    /// The expression was empty.
    Empty,
    /// Predicates nest deeper than the parser's fixed bound ([`MAX_DEPTH`]).
    TooDeep {
        /// Byte offset of the predicate that crossed the bound.
        offset: usize,
        /// The bound.
        limit: usize,
    },
}

/// Deepest predicate nesting (`a[b[c[…]]]`) the parser accepts.  Predicate
/// parsing recurses once per level, so untrusted input must not choose the
/// stack depth; the paper's queries nest two levels at most.
pub const MAX_DEPTH: usize = 64;

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Unexpected {
                offset,
                found,
                expected,
            } => match found {
                Some(c) => write!(f, "unexpected {c:?} at byte {offset}, expected {expected}"),
                None => write!(f, "unexpected end of input, expected {expected}"),
            },
            ParseError::Empty => write!(f, "empty path expression"),
            ParseError::TooDeep { offset, limit } => {
                write!(f, "predicates nest deeper than {limit} at byte {offset}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Parses an XPath-subset expression into a tree pattern against a
/// **frozen** symbol table: nothing is interned, so the parse needs only
/// `&SymbolTable` and is safe to run from many query threads at once.
///
/// Returns `Ok(None)` when the expression is syntactically valid but names
/// a designator or value absent from the table — no indexed document can
/// contain that symbol, so the query provably matches nothing.  Syntax
/// errors still surface as `Err`.
///
/// Under the update model (DESIGN.md §11) the table passed here is the
/// **merged symbol view**: one table shared by the frozen segment and the
/// delta overlay.  Names intern on *insert* only — a delta insert that
/// introduces `z` makes `/a/z` resolve on the very next query, while the
/// query path itself stays read-only and lock-free.
pub fn parse_xpath_readonly(
    input: &str,
    symbols: &SymbolTable,
) -> Result<Option<TreePattern>, ParseError> {
    let mut p = Parser {
        input,
        pos: 0,
        depth: 0,
        symbols,
        missing: false,
    };
    let pattern = p.parse_query()?;
    Ok((!p.missing).then_some(pattern))
}

impl<'a> Parser<'a> {
    fn parse_query(&mut self) -> Result<TreePattern, ParseError> {
        let p = self;
        p.skip_ws();
        let (axis, label) = p.parse_step_head()?;
        let mut pattern = TreePattern::with_root_axis(label, axis);
        let mut spine = pattern.root_id();
        p.parse_predicates(&mut pattern, spine)?;
        loop {
            p.skip_ws();
            if p.eof() {
                return Ok(pattern);
            }
            let (axis, label) = p.parse_step_head()?;
            spine = pattern.add(spine, axis, label);
            p.parse_predicates(&mut pattern, spine)?;
        }
    }
}

/// Reads the expression in place: `pos` is a byte offset into `input`, and
/// names and values are slices of it, so a parse allocates only the pattern.
struct Parser<'a> {
    input: &'a str,
    pos: usize,
    /// Open `[` predicates around the current position (the recursion depth).
    depth: usize,
    symbols: &'a SymbolTable,
    /// Set on a symbol lookup miss; the parse continues (so syntax errors
    /// still surface) but the pattern is discarded.
    missing: bool,
}

impl<'a> Parser<'a> {
    /// Passes a symbol lookup through, noting a miss: a symbol absent from
    /// the table proves the query empty.
    fn found<T>(&mut self, lookup: Option<T>) -> Option<T> {
        self.missing |= lookup.is_none();
        lookup
    }

    fn eof(&self) -> bool {
        self.pos >= self.input.len()
    }

    fn peek(&self) -> Option<char> {
        self.input.get(self.pos..)?.chars().next()
    }

    /// The text from byte `start` up to the current position.
    fn since(&self, start: usize) -> &'a str {
        self.input.get(start..self.pos).unwrap_or_default()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if let Some(c) = c {
            self.pos += c.len_utf8();
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.bump();
        }
    }

    fn err(&self, expected: &'static str) -> ParseError {
        ParseError::Unexpected {
            offset: self.pos,
            found: self.peek(),
            expected,
        }
    }

    /// Parses `('/' | '//') nametest`, returning axis and label.
    fn parse_step_head(&mut self) -> Result<(Axis, PatternLabel), ParseError> {
        self.skip_ws();
        if self.peek() != Some('/') {
            return Err(self.err("'/' or '//'"));
        }
        self.pos += 1;
        let axis = if self.peek() == Some('/') {
            self.pos += 1;
            Axis::Descendant
        } else {
            Axis::Child
        };
        self.skip_ws();
        // tolerate "/[pred]" (the paper writes /book/[key='Maier']/author):
        // a missing name before '[' means the predicate applies to the
        // previous step — signalled to the caller via Wild marker? Instead,
        // treat "/[" as if the slash were absent by rewinding; the caller
        // sees no new step.  Simpler: skip the stray slash by parsing the
        // name as AnyElem only for explicit '*'.
        let label = self.parse_nametest()?;
        Ok((axis, label))
    }

    fn parse_nametest(&mut self) -> Result<PatternLabel, ParseError> {
        self.skip_ws();
        if self.peek() == Some('*') {
            self.pos += 1;
            return Ok(PatternLabel::AnyElem);
        }
        if self.peek() == Some('@') {
            self.pos += 1;
        }
        let name = self.parse_name()?;
        let d = self.symbols.lookup_designator(name);
        Ok(PatternLabel::Elem(
            self.found(d).unwrap_or(Designator(u32::MAX)),
        ))
    }

    fn parse_name(&mut self) -> Result<&'a str, ParseError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '_' || c == '-' || c == '.' || c == ':' {
                self.bump();
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("a name"));
        }
        Ok(self.since(start))
    }

    /// Parses zero or more `[...]` predicates attached to `node`.
    fn parse_predicates(
        &mut self,
        pattern: &mut TreePattern,
        node: PatternNodeId,
    ) -> Result<(), ParseError> {
        loop {
            self.skip_ws();
            // the paper's stray-slash form: "/book/[key='Maier']" — accept a
            // '/' immediately followed by '['
            let mark = self.pos;
            if self.peek() == Some('/') {
                self.pos += 1;
                self.skip_ws();
                if self.peek() != Some('[') {
                    self.pos = mark;
                    return Ok(());
                }
            }
            if self.peek() != Some('[') {
                return Ok(());
            }
            if self.depth == MAX_DEPTH {
                return Err(ParseError::TooDeep {
                    offset: self.pos,
                    limit: MAX_DEPTH,
                });
            }
            self.pos += 1;
            self.depth += 1;
            self.parse_predicate_body(pattern, node)?;
            self.depth -= 1;
            self.skip_ws();
            if self.bump() != Some(']') {
                return Err(self.err("']'"));
            }
        }
    }

    fn parse_predicate_body(
        &mut self,
        pattern: &mut TreePattern,
        node: PatternNodeId,
    ) -> Result<(), ParseError> {
        self.skip_ws();
        // optional leading "./" or "."
        if self.peek() == Some('.') {
            self.pos += 1;
        }
        // `text = 'v'` / `text ^= 'v'` (starts-with) special forms
        let mark = self.pos;
        if let Ok(word) = self.parse_name() {
            if word == "text" {
                self.skip_ws();
                if let Some(prefix_only) = self.parse_eq_op() {
                    let v = self.parse_value()?;
                    self.attach_value_test(pattern, node, v, prefix_only);
                    return Ok(());
                }
            }
        }
        self.pos = mark;

        // relative path branch: steps with optional leading axis (default
        // child), e.g. `seller/person` or `//keyword` or `*/age`; each step
        // may carry nested predicates, as in the paper's
        // `/Project[Research[Loc=newyork]]/Develop[Loc=boston]`.
        let mut cur = node;
        let mut first = true;
        loop {
            self.skip_ws();
            let axis = if self.peek() == Some('/') {
                self.pos += 1;
                if self.peek() == Some('/') {
                    self.pos += 1;
                    Axis::Descendant
                } else {
                    Axis::Child
                }
            } else if first {
                Axis::Child
            } else {
                break;
            };
            let label = self.parse_nametest()?;
            cur = pattern.add(cur, axis, label);
            first = false;
            self.parse_predicates(pattern, cur)?;
        }
        self.skip_ws();
        if let Some(prefix_only) = self.parse_eq_op() {
            let v = self.parse_value()?;
            self.attach_value_test(pattern, cur, v, prefix_only);
        }
        Ok(())
    }

    /// Parses `=` (exact) or `^=` (starts-with), returning
    /// `Some(prefix_only)`; `None` when neither operator follows.
    fn parse_eq_op(&mut self) -> Option<bool> {
        self.skip_ws();
        match self.peek() {
            Some('=') => {
                self.pos += 1;
                Some(false)
            }
            Some('^') => {
                let mark = self.pos;
                self.pos += 1;
                if self.peek() == Some('=') {
                    self.pos += 1;
                    Some(true)
                } else {
                    self.pos = mark;
                    None
                }
            }
            _ => None,
        }
    }

    /// Attaches a value test under `node` per the value mode: a single leaf
    /// for `Intern`/`Hashed` (where `^=` degrades to `=` — whole values are
    /// atomic designators), or a per-character chain for `Chars`, terminated
    /// unless `prefix_only` (the paper's second representation: "allow
    /// subsequence matching inside the attribute values").
    fn attach_value_test(
        &mut self,
        pattern: &mut TreePattern,
        node: PatternNodeId,
        value: &str,
        prefix_only: bool,
    ) {
        let values = &self.symbols.values;
        match values.mode() {
            ValueMode::Intern | ValueMode::Hashed { .. } => {
                let vid = self
                    .found(values.lookup(value))
                    .unwrap_or(ValueId(u32::MAX));
                pattern.add(node, Axis::Child, PatternLabel::Value(vid));
            }
            ValueMode::Chars => {
                let chain = if prefix_only {
                    values.chain_prefix_readonly(value)
                } else {
                    values.chain_readonly(value)
                };
                let mut cur = node;
                for v in self.found(chain).unwrap_or_default() {
                    cur = pattern.add(cur, Axis::Child, PatternLabel::Value(v));
                }
            }
        }
    }

    fn parse_value(&mut self) -> Result<&'a str, ParseError> {
        self.skip_ws();
        let open = self.bump().ok_or_else(|| self.err("a quoted value"))?;
        let close = match open {
            '\'' => '\'',
            '"' => '"',
            '‘' => '’',
            '’' => '’', // the paper sometimes opens with a right quote
            _ => return Err(self.err("a quoted value")),
        };
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == close {
                let value = self.since(start);
                self.bump();
                return Ok(value);
            }
            self.bump();
        }
        Err(self.err("closing quote"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xseq_xml::ValueMode;

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
}
