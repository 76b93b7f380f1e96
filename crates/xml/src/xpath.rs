//! An XPath-subset front end for tree patterns.
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
//! This module parses that dialect into [`TreePattern`]s — the tree pattern
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

use crate::{
    Axis, Designator, PatternLabel, PatternNodeId, SymbolTable, TreePattern, ValueId, ValueMode,
};
use std::fmt;

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
