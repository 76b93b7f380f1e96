//! A small, dependency-free XML parser.
//!
//! Covers the fragment of XML the paper's datasets use: elements, attributes,
//! text content, comments, processing instructions/XML declarations, CDATA,
//! and the five predefined entities.  Namespaces, DTD internal subsets and
//! full spec conformance are out of scope — the goal is a faithful substrate
//! for DBLP/XMark-shaped records, not a validating parser.
//!
//! Mapping to the paper's tree model:
//! * an element becomes an element-designator node;
//! * an attribute `a="v"` becomes a child node `a` with a value-designator
//!   child `v` (attributes and sub-elements are deliberately not
//!   distinguished, as in ViST);
//! * non-whitespace text content becomes a value-designator leaf.

use crate::document::{Document, NodeId};
use crate::error::XmlError;
use crate::symbol::{Symbol, SymbolTable, ValueMode};
use std::borrow::Cow;

/// Deepest element nesting [`parse_document`] accepts.  `parse_element`
/// recurses once per level, so untrusted input must not choose the stack
/// depth; the paper's datasets nest a dozen levels at most.
pub const MAX_DEPTH: usize = 256;

/// Parses one XML document into a [`Document`] against the shared interners.
///
/// Nodes are numbered in the order their start tags (or values) are met,
/// which is preorder, and the document is built once from the label and
/// parent columns the scan collects.
pub fn parse_document(input: &str, symbols: &mut SymbolTable) -> Result<Document, XmlError> {
    let mut p = Parser {
        src: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
        symbols,
        sym: Vec::new(),
        parent: Vec::new(),
    };
    p.skip_misc()?;
    if p.eof() {
        return Err(XmlError::EmptyDocument);
    }
    p.parse_element(Document::NO_PARENT)?;
    p.skip_misc()?;
    if !p.eof() {
        return Err(XmlError::TrailingContent { offset: p.pos });
    }
    // the columns live as long as the document: hand them over at length
    p.sym.shrink_to_fit();
    p.parent.shrink_to_fit();
    Document::from_parents(p.sym, p.parent)
}

struct Parser<'a, 'b> {
    /// The input, and the same input as bytes: scanning is bytewise,
    /// decoding goes through `src` so it never re-validates UTF-8.
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Open elements above the one being parsed (the recursion depth).
    depth: usize,
    symbols: &'b mut SymbolTable,
    /// The document's label and parent columns, in arena order.
    sym: Vec<Symbol>,
    parent: Vec<NodeId>,
}

impl<'a, 'b> Parser<'a, 'b> {
    fn eof(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// The next byte, or the error of an input that ends here.
    fn peek_or_eof(&self) -> Result<u8, XmlError> {
        self.peek()
            .ok_or(XmlError::UnexpectedEof { offset: self.pos })
    }

    fn bump(&mut self) -> Result<u8, XmlError> {
        let b = self.peek_or_eof()?;
        self.pos += 1;
        Ok(b)
    }

    fn eat(&mut self, b: u8, what: &'static str) -> Result<(), XmlError> {
        let got = self.bump()?;
        if got != b {
            return Err(XmlError::UnexpectedChar {
                offset: self.pos - 1,
                found: got as char,
                expected: what,
            });
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    /// Skips whitespace, comments, PIs and the XML declaration between
    /// top-level constructs.
    fn skip_misc(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_ws();
            if self.starts_with(b"<?") {
                self.skip_until(b"?>")?;
            } else if self.starts_with(b"<!--") {
                self.skip_until(b"-->")?;
            } else if self.starts_with(b"<!DOCTYPE") {
                // Skip a simple DOCTYPE without internal subset brackets.
                self.skip_until(b">")?;
            } else {
                return Ok(());
            }
        }
    }

    fn starts_with(&self, s: &[u8]) -> bool {
        self.bytes
            .get(self.pos..)
            .is_some_and(|rest| rest.starts_with(s))
    }

    fn skip_until(&mut self, end: &[u8]) -> Result<(), XmlError> {
        while !self.eof() {
            if self.starts_with(end) {
                self.pos += end.len();
                return Ok(());
            }
            self.pos += 1;
        }
        Err(XmlError::UnexpectedEof { offset: self.pos })
    }

    /// `src[start..end]`, or the `UnexpectedChar` of a range that is off a
    /// character boundary.
    fn slice(&self, start: usize, end: usize, expected: &'static str) -> Result<&'a str, XmlError> {
        self.src.get(start..end).ok_or(XmlError::UnexpectedChar {
            offset: start,
            found: '\u{FFFD}',
            expected,
        })
    }

    fn read_name(&mut self) -> Result<&'a str, XmlError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(XmlError::UnexpectedChar {
                offset: self.pos,
                found: self.peek().map(|b| b as char).unwrap_or('\0'),
                expected: "a name",
            });
        }
        self.slice(start, self.pos, "a name")
    }

    fn read_entity(&mut self, out: &mut String) -> Result<(), XmlError> {
        let at = self.pos;
        self.eat(b'&', "'&'")?;
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b';' {
                break;
            }
            self.pos += 1;
            if self.pos - start > 10 {
                return Err(XmlError::BadEntity { offset: at });
            }
        }
        let bad = || XmlError::BadEntity { offset: at };
        let name = self.src.get(start..self.pos).ok_or_else(bad)?;
        self.eat(b';', "';'")?;
        match name {
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "amp" => out.push('&'),
            "apos" => out.push('\''),
            "quot" => out.push('"'),
            _ => {
                let digits = name.strip_prefix('#').ok_or_else(bad)?;
                let code = match digits.strip_prefix('x') {
                    Some(hex) => u32::from_str_radix(hex, 16),
                    None => digits.parse(),
                };
                let code = code.map_err(|_| bad())?;
                out.push(char::from_u32(code).ok_or_else(bad)?);
            }
        }
        Ok(())
    }

    /// Reads a quoted attribute value: runs between entities are copied
    /// as slices, and a value without entities is the source slice itself.
    fn read_attr_value(&mut self) -> Result<Cow<'a, str>, XmlError> {
        let quote = self.bump()?;
        if quote != b'"' && quote != b'\'' {
            return Err(XmlError::UnexpectedChar {
                offset: self.pos - 1,
                found: quote as char,
                expected: "a quote",
            });
        }
        let mut out = String::new();
        loop {
            let run = self.read_run(quote)?;
            if self.peek() == Some(b'&') {
                out.push_str(run);
                self.read_entity(&mut out)?;
                continue;
            }
            self.eat(quote, "a quote")?;
            return Ok(if out.is_empty() {
                Cow::Borrowed(run)
            } else {
                Cow::Owned(out + run)
            });
        }
    }

    /// Advances to the next `stop` byte, `&` or the end of input and
    /// returns the characters passed over.  All three are character
    /// boundaries: a stop byte is ASCII, which no multi-byte sequence holds.
    fn read_run(&mut self, stop: u8) -> Result<&'a str, XmlError> {
        let start = self.pos;
        while self.peek().is_some_and(|b| b != stop && b != b'&') {
            self.pos += 1;
        }
        self.slice(start, self.pos, "valid UTF-8")
    }

    /// Appends a node labelled `sym` under `parent` to the columns.
    fn push(&mut self, parent: NodeId, sym: Symbol) -> NodeId {
        let id = self.sym.len() as NodeId;
        self.sym.push(sym);
        self.parent.push(parent);
        id
    }

    /// Parses `<name attr="v" ...> content </name>` into the columns under
    /// `parent` ([`Document::NO_PARENT`] for the root).
    fn parse_element(&mut self, parent: NodeId) -> Result<(), XmlError> {
        if self.depth == MAX_DEPTH {
            return Err(XmlError::TooDeep {
                offset: self.pos,
                limit: MAX_DEPTH,
            });
        }
        self.eat(b'<', "'<'")?;
        let name = self.read_name()?;
        let sym = self.symbols.elem(name);
        let node = self.push(parent, sym);

        // Attributes.
        loop {
            self.skip_ws();
            match self.peek_or_eof()? {
                b'/' => {
                    self.pos += 1;
                    self.eat(b'>', "'>'")?;
                    return Ok(());
                }
                b'>' => {
                    self.pos += 1;
                    break;
                }
                _ => {
                    let aname = self.read_name()?;
                    self.skip_ws();
                    self.eat(b'=', "'='")?;
                    self.skip_ws();
                    let aval = self.read_attr_value()?;
                    let asym = self.symbols.elem(aname);
                    let anode = self.push(node, asym);
                    self.attach_value(anode, &aval);
                }
            }
        }

        // Content.  Text is copied a run at a time, and not at all while one
        // plain run is all there is: `run` borrows it from the source, and
        // only an entity or CDATA beside it moves the value into `text`.
        let (mut run, mut text) = ("", String::new());
        loop {
            match self.peek_or_eof()? {
                b'<' if self.starts_with(b"<![CDATA[") => {
                    self.pos += b"<![CDATA[".len();
                    let start = self.pos;
                    self.skip_until(b"]]>")?;
                    let end = self.pos - b"]]>".len();
                    text.push_str(std::mem::take(&mut run));
                    text.push_str(self.slice(start, end, "valid UTF-8 in CDATA")?);
                }
                b'<' => {
                    self.flush_text(node, &mut run, &mut text);
                    if self.starts_with(b"<!--") {
                        self.skip_until(b"-->")?;
                    } else if self.starts_with(b"<?") {
                        self.skip_until(b"?>")?;
                    } else if self.starts_with(b"</") {
                        self.pos += 2;
                        let close_at = self.pos;
                        let cname = self.read_name()?;
                        if cname != name {
                            return Err(XmlError::MismatchedTag {
                                offset: close_at,
                                found: cname.to_owned(),
                                expected: name.to_owned(),
                            });
                        }
                        self.skip_ws();
                        self.eat(b'>', "'>'")?;
                        return Ok(());
                    } else {
                        self.depth += 1;
                        self.parse_element(node)?;
                        self.depth -= 1;
                    }
                }
                b'&' => {
                    text.push_str(std::mem::take(&mut run));
                    self.read_entity(&mut text)?;
                }
                _ if text.is_empty() => run = self.read_run(b'<')?,
                _ => text.push_str(self.read_run(b'<')?),
            }
        }
    }

    /// Emits accumulated non-whitespace text as a value leaf (or chain).
    fn flush_text(&mut self, node: NodeId, run: &mut &str, text: &mut String) {
        let value = if text.is_empty() { *run } else { text.as_str() }.trim();
        if !value.is_empty() {
            self.attach_value(node, value);
        }
        text.clear();
        *run = "";
    }

    /// Attaches a value under `node` per the symbol table's [`ValueMode`]: a
    /// single leaf for `Intern`/`Hashed`, or a terminated per-character
    /// chain for `Chars` (the paper's second value representation).
    fn attach_value(&mut self, node: NodeId, value: &str) {
        match self.symbols.values.mode() {
            ValueMode::Intern | ValueMode::Hashed { .. } => {
                let vsym = self.symbols.val(value);
                self.push(node, vsym);
            }
            ValueMode::Chars => {
                let mut cur = node;
                for v in self.symbols.values.chain(value) {
                    cur = self.push(cur, Symbol::value(v));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn st() -> SymbolTable {
        SymbolTable::with_value_mode(ValueMode::Intern)
    }

    #[test]
    fn parse_figure1_document() {
        let xml = r#"
            <Project name="xml">
              <Research>
                <Manager>tom</Manager>
                <Location>newyork</Location>
              </Research>
              <Development>
                <Manager>johnson</Manager>
                <Unit><Manager>mary</Manager><Name>GUI</Name></Unit>
                <Unit><Name>engine</Name></Unit>
                <Location>boston</Location>
              </Development>
            </Project>"#;
        let mut symbols = st();
        let doc = parse_document(xml, &mut symbols).unwrap();
        let root = doc.root().unwrap();
        assert_eq!(symbols.render(doc.sym(root)), "Project");
        // name attribute + Research + Development
        assert_eq!(doc.children(root).len(), 3);
        // 12 elements + 1 attribute node + 8 values
        assert_eq!(doc.len(), 21);
    }

    #[test]
    fn self_closing_and_empty_elements() {
        let mut symbols = st();
        let doc = parse_document("<a><b/><c></c></a>", &mut symbols).unwrap();
        assert_eq!(doc.len(), 3);
        assert_eq!(doc.children(doc.root().unwrap()).len(), 2);
    }

    #[test]
    fn attributes_become_child_nodes() {
        let mut symbols = st();
        let doc = parse_document(r#"<a x="1" y="2"/>"#, &mut symbols).unwrap();
        let root = doc.root().unwrap();
        assert_eq!(doc.children(root).len(), 2);
        for &attr in doc.children(root) {
            assert!(doc.sym(attr).is_elem());
            assert_eq!(doc.children(attr).len(), 1);
            assert!(doc.sym(doc.children(attr)[0]).is_value());
        }
    }

    #[test]
    fn entities_and_cdata() {
        let mut symbols = st();
        let doc = parse_document("<a>&lt;x&gt; &amp; <![CDATA[<raw>]]></a>", &mut symbols).unwrap();
        let root = doc.root().unwrap();
        // text flushed once at the close tag
        assert_eq!(doc.children(root).len(), 1);
        let v = doc.sym(doc.children(root)[0]).as_value().unwrap();
        assert_eq!(symbols.values.resolve(v), Some("<x> & <raw>"));
    }

    #[test]
    fn numeric_entities() {
        let mut symbols = st();
        let doc = parse_document("<a>&#65;&#x42;</a>", &mut symbols).unwrap();
        let root = doc.root().unwrap();
        let v = doc.sym(doc.children(root)[0]).as_value().unwrap();
        assert_eq!(symbols.values.resolve(v), Some("AB"));
    }

    #[test]
    fn declaration_comment_doctype_skipped() {
        let mut symbols = st();
        let xml = "<?xml version=\"1.0\"?><!-- hi --><!DOCTYPE a><a/>";
        assert!(parse_document(xml, &mut symbols).is_ok());
    }

    #[test]
    fn mismatched_tag_is_an_error() {
        let mut symbols = st();
        let err = parse_document("<a></b>", &mut symbols).unwrap_err();
        assert!(matches!(err, XmlError::MismatchedTag { .. }));
    }

    #[test]
    fn trailing_content_is_an_error() {
        let mut symbols = st();
        let err = parse_document("<a/><b/>", &mut symbols).unwrap_err();
        assert!(matches!(err, XmlError::TrailingContent { .. }));
    }

    #[test]
    fn empty_input_is_an_error() {
        let mut symbols = st();
        assert_eq!(
            parse_document("   ", &mut symbols),
            Err(XmlError::EmptyDocument)
        );
    }

    #[test]
    fn unterminated_element_is_an_error() {
        let mut symbols = st();
        assert!(matches!(
            parse_document("<a><b>", &mut symbols),
            Err(XmlError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn bad_entity_is_an_error() {
        let mut symbols = st();
        assert!(matches!(
            parse_document("<a>&nope;</a>", &mut symbols),
            Err(XmlError::BadEntity { .. })
        ));
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let nested = |levels: usize| format!("{}{}", "<a>".repeat(levels), "</a>".repeat(levels));
        let mut symbols = st();
        let doc = parse_document(&nested(MAX_DEPTH), &mut symbols).unwrap();
        assert_eq!(doc.len(), MAX_DEPTH);
        assert_eq!(
            parse_document(&nested(MAX_DEPTH + 1), &mut symbols),
            Err(XmlError::TooDeep {
                offset: 3 * MAX_DEPTH,
                limit: MAX_DEPTH
            })
        );
        // far past the limit: still an error, never a stack overflow
        assert!(matches!(
            parse_document(&"<a>".repeat(200_000), &mut symbols),
            Err(XmlError::TooDeep { .. })
        ));
    }

    #[test]
    #[expect(clippy::integer_division_remainder_used, reason = "divides by a literal's length")]
    fn large_values_parse_in_linear_time() {
        // `next_char` used to re-validate the whole remaining input for
        // every character, so one long value cost O(n²): a 1 MiB text node
        // took ~20 s in a release build, minutes in a debug one.  Linear,
        // this document parses in well under 1 % of the bound below.
        let big = |unit: &str| unit.repeat((1 << 20) / unit.len() + 1);
        let (attr, text, cdata) = (big("aé€𝄞"), big("é€𝄞b"), big("<€>𝄞&é"));
        let xml = format!("<r a=\"{attr}\"><t>{text}</t><c><![CDATA[{cdata}]]></c></r>");
        let mut symbols = st();
        let t0 = std::time::Instant::now();
        let doc = parse_document(&xml, &mut symbols).unwrap();
        let elapsed = t0.elapsed();
        let root = doc.root().unwrap();
        let values: Vec<&str> = doc
            .children(root)
            .iter()
            .map(|&holder| {
                let v = doc.sym(doc.children(holder)[0]).as_value().unwrap();
                symbols.values.resolve(v).unwrap()
            })
            .collect();
        assert!(values.iter().all(|v| v.len() > 1 << 20));
        assert_eq!(values, [attr.as_str(), text.as_str(), cdata.as_str()]);
        assert!(
            elapsed < std::time::Duration::from_secs(30),
            "3 × 1 MiB values took {elapsed:?}"
        );
    }

    #[test]
    fn whitespace_only_text_is_dropped() {
        let mut symbols = st();
        let doc = parse_document("<a>\n  <b/>\n</a>", &mut symbols).unwrap();
        assert_eq!(doc.len(), 2);
    }
}
