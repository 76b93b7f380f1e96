//! # xseq-xml — XML substrate for sequence-based indexing
//!
//! This crate provides everything the indexing layers need to know about XML
//! itself, following Section 2 ("Data Representation") of Wang & Meng,
//! *On the Sequencing of Tree Structures for XML Indexing* (ICDE 2005):
//!
//! * **Designators** — every element/attribute name is interned to a small
//!   integer ([`Designator`]), exactly like the paper writes `P`, `R`, `D` for
//!   `Project`, `Research`, `Development`.
//! * **Value designators** — attribute/text values are mapped to value
//!   symbols, either by exact interning or through a bounded hash (ViST's
//!   `v_i = h('boston')` scheme); see [`ValueTable`] and [`ValueMode`].
//! * **Path encoding** — each tree node is encoded by the designator path
//!   from the root ([`PathId`] in a shared [`PathTable`]), the node encoding
//!   the paper builds constraint sequences from.
//! * **Documents** — an arena tree model ([`Document`]) plus a small
//!   from-scratch XML parser ([`parse_document`]) and serializer.
//! * **Tree patterns** — structured queries as trees ([`pattern::TreePattern`])
//!   with child/descendant axes, wildcards and value tests, and a
//!   backtracking **brute-force structure matcher** used as ground truth for
//!   the query-equivalence theorems and as the verification step of the
//!   ViST-style baseline.

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

pub mod document;
pub mod error;
mod intern;
pub mod matcher;
pub mod parser;
pub mod path;
pub mod pattern;
pub mod symbol;
pub mod writer;

pub use document::{Document, NodeId};
pub use error::XmlError;
pub use parser::parse_document;
pub use path::{PathId, PathIdHasher, PathTable};
pub use pattern::{Axis, PatternLabel, PatternNodeId, TreePattern};
pub use symbol::{Designator, Symbol, SymbolTable, ValueId, ValueMode, ValueTable};
pub use writer::write_document;

/// A corpus couples the shared symbol/path interners with a set of documents.
///
/// Every layer above (sequencing, indexing, baselines) operates on documents
/// whose node labels and path encodings are consistent across the whole
/// dataset, which is what this type guarantees.
#[derive(Debug, Default)]
pub struct Corpus {
    /// Shared element-name and value interners.
    pub symbols: SymbolTable,
    /// Shared path-encoding table.
    pub paths: PathTable,
    /// The documents (the paper's "records"), indexed by [`DocId`].
    pub docs: Vec<Document>,
    /// `xml.parse` latency sink, when attached (see
    /// [`Corpus::attach_parse_histogram`]).
    pub parse_histogram: Option<std::sync::Arc<xseq_telemetry::Histogram>>,
}

/// Identifier of a document within a [`Corpus`].
pub type DocId = u32;

impl Corpus {
    /// Creates an empty corpus with the given value-designator mode.
    pub fn new(mode: ValueMode) -> Self {
        Corpus {
            symbols: SymbolTable::with_value_mode(mode),
            paths: PathTable::new(),
            docs: Vec::new(),
            parse_histogram: None,
        }
    }

    /// Records every subsequent [`Corpus::parse_and_push`]'s parse latency
    /// (ns) into `h` — the pipeline's `xml.parse` phase.
    pub fn attach_parse_histogram(&mut self, h: std::sync::Arc<xseq_telemetry::Histogram>) {
        self.parse_histogram = Some(h);
    }

    /// Adds a document and returns its id.
    pub fn push(&mut self, doc: Document) -> DocId {
        let id = self.docs.len() as DocId;
        self.docs.push(doc);
        id
    }

    /// Parses an XML string against this corpus' interners and adds it.
    pub fn parse_and_push(&mut self, xml: &str) -> Result<DocId, XmlError> {
        let t0 = self
            .parse_histogram
            .as_ref()
            .map(|_| std::time::Instant::now());
        let doc = parse_document(xml, &mut self.symbols)?;
        if let (Some(t), Some(h)) = (t0, self.parse_histogram.as_ref()) {
            h.record_duration(t.elapsed());
        }
        Ok(self.push(doc))
    }

    /// Frees the spare capacity of the dictionaries' arenas and lists and of
    /// the document list, once a build has interned everything it will.
    pub fn shrink_to_fit(&mut self) {
        self.symbols.shrink_to_fit();
        self.paths.shrink_to_fit();
        self.docs.shrink_to_fit();
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True when no documents have been added.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Total number of tree nodes (elements + values) over all documents,
    /// the quantity the paper reports as dataset "Nodes" in Tables 5 and 6.
    pub fn total_nodes(&self) -> usize {
        self.docs.iter().map(|d| d.len()).sum()
    }
}

/// Heap attribution for the corpus: interners plus documents.  The parse
/// histogram is excluded — it is shared with the metrics registry, which
/// accounts for itself.
impl xseq_telemetry::HeapSize for Corpus {
    fn heap_bytes(&self) -> usize {
        self.symbols.heap_bytes() + self.paths.heap_bytes() + self.docs.heap_bytes()
    }
}
