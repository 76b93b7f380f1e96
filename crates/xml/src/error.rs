//! Error types for the XML substrate.

use std::fmt;

/// Errors produced while parsing or validating XML input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlError {
    /// The input ended before the document was complete.
    UnexpectedEof {
        /// Byte offset at which input was exhausted.
        offset: usize,
    },
    /// An unexpected character was encountered.
    UnexpectedChar {
        /// Byte offset of the offending character.
        offset: usize,
        /// The character found.
        found: char,
        /// A short description of what was expected.
        expected: &'static str,
    },
    /// A closing tag did not match the open element.
    MismatchedTag {
        /// Byte offset of the closing tag.
        offset: usize,
        /// Name found in the closing tag.
        found: String,
        /// Name of the element being closed.
        expected: String,
    },
    /// The document has no root element.
    EmptyDocument,
    /// Content appeared after the root element closed.
    TrailingContent {
        /// Byte offset of the trailing content.
        offset: usize,
    },
    /// An entity reference was not recognised.
    BadEntity {
        /// Byte offset of the `&`.
        offset: usize,
    },
    /// Elements nest deeper than the parser's fixed bound
    /// ([`crate::parser::MAX_DEPTH`]).
    TooDeep {
        /// Byte offset of the element that crossed the bound.
        offset: usize,
        /// The bound.
        limit: usize,
    },
    /// A document tree operation referenced a node that does not exist.
    NodeOutOfBounds {
        /// The offending node id.
        node: u32,
    },
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlError::UnexpectedEof { offset } => {
                write!(f, "unexpected end of input at byte {offset}")
            }
            XmlError::UnexpectedChar {
                offset,
                found,
                expected,
            } => write!(
                f,
                "unexpected character {found:?} at byte {offset}, expected {expected}"
            ),
            XmlError::MismatchedTag {
                offset,
                found,
                expected,
            } => write!(
                f,
                "mismatched closing tag </{found}> at byte {offset}, expected </{expected}>"
            ),
            XmlError::EmptyDocument => write!(f, "document has no root element"),
            XmlError::TrailingContent { offset } => {
                write!(f, "content after root element at byte {offset}")
            }
            XmlError::BadEntity { offset } => {
                write!(f, "unrecognised entity reference at byte {offset}")
            }
            XmlError::TooDeep { offset, limit } => {
                write!(f, "elements nest deeper than {limit} at byte {offset}")
            }
            XmlError::NodeOutOfBounds { node } => {
                write!(f, "node id {node} out of bounds")
            }
        }
    }
}

impl std::error::Error for XmlError {}
