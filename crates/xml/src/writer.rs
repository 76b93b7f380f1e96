//! XML serialization of [`Document`] trees.
//!
//! The inverse of the parser for the tree model used here: element nodes
//! become tags, value leaves become text content.  Since attributes are
//! modelled as ordinary child elements (see the parser docs), a serialized
//! round trip is element-shaped rather than byte-identical — which is all the
//! test suite and the data generators need.

use crate::document::{Document, NodeId};
use crate::symbol::SymbolTable;
use std::fmt::Write;

/// Serializes a document to XML text.
pub fn write_document(doc: &Document, symbols: &SymbolTable) -> String {
    let mut out = String::new();
    if let Some(root) = doc.root() {
        write_node(doc, symbols, root, &mut out);
    }
    out
}

#[expect(clippy::expect_used, reason = "a symbol that is not a value is an element")]
fn write_node(doc: &Document, symbols: &SymbolTable, n: NodeId, out: &mut String) {
    let sym = doc.sym(n);
    if let Some(v) = sym.as_value() {
        match symbols.values.resolve(v) {
            // chain terminators (Chars mode) are structural, not text
            Some(s) if s == crate::symbol::ValueTable::END => {}
            Some(s) => out.push_str(&escape(s)),
            None => {
                let _ = write!(out, "v#{}", v.0);
            }
        }
        // Chars-mode chains nest: continue down the chain
        for &c in doc.children(n) {
            write_node(doc, symbols, c, out);
        }
        return;
    }
    let name = symbols.name(sym.as_elem().expect("element symbol"));
    if doc.children(n).is_empty() {
        let _ = write!(out, "<{name}/>");
        return;
    }
    let _ = write!(out, "<{name}>");
    for &c in doc.children(n) {
        write_node(doc, symbols, c, out);
    }
    let _ = write!(out, "</{name}>");
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_document;
    use crate::symbol::{SymbolTable, ValueMode};

    #[test]
    fn roundtrip_structure() {
        let xml = "<a><b>hi</b><c/><b>hi</b></a>";
        let mut symbols = SymbolTable::with_value_mode(ValueMode::Intern);
        let doc = parse_document(xml, &mut symbols).unwrap();
        let text = write_document(&doc, &symbols);
        let doc2 = parse_document(&text, &mut symbols).unwrap();
        assert!(doc.structurally_eq(&doc2));
    }

    #[test]
    fn escapes_special_chars() {
        let mut symbols = SymbolTable::with_value_mode(ValueMode::Intern);
        let doc = parse_document("<a>a &lt; b &amp; c</a>", &mut symbols).unwrap();
        let text = write_document(&doc, &symbols);
        assert!(text.contains("&lt;"));
        assert!(text.contains("&amp;"));
        let doc2 = parse_document(&text, &mut symbols).unwrap();
        assert!(doc.structurally_eq(&doc2));
    }

    #[test]
    fn empty_document_serializes_to_nothing() {
        let symbols = SymbolTable::default();
        assert_eq!(write_document(&Document::new(), &symbols), "");
    }
}
