//! Tree patterns — the paper's first-class query unit.
//!
//! A [`TreePattern`] models a structured XML query: a tree of node tests
//! connected by child (`/`) or descendant (`//`) axes, with element names,
//! the `*` wildcard, and value tests at the leaves.  The XPath query
//! `/Project[Research[Loc=newyork]]/Develop[Loc=boston]` from Section 3.1 is
//! one such pattern.
//!
//! Patterns are the input to *every* query engine in this repository: the
//! constraint-sequence index, the naïve/ViST matcher, the DataGuide and XISS
//! baselines, and the brute-force ground-truth matcher in [`crate::matcher`].

use crate::symbol::{Designator, SymbolTable, ValueId};

/// Node test of one pattern node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PatternLabel {
    /// A named element (designator equality).
    Elem(Designator),
    /// The `*` wildcard: any element (never matches value leaves).
    AnyElem,
    /// A value test: matches a value-designator leaf.
    Value(ValueId),
}

/// Axis connecting a pattern node to its pattern parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// `/` — the matched node is a direct child of the parent's match.
    Child,
    /// `//` — the matched node is a proper descendant of the parent's match
    ///   (for the pattern root: any node of the document).
    Descendant,
}

/// Index of a node within a [`TreePattern`].
pub type PatternNodeId = u32;

#[derive(Debug, Clone, PartialEq, Eq)]
struct PatternNode {
    label: PatternLabel,
    axis: Axis,
    parent: Option<PatternNodeId>,
    children: Vec<PatternNodeId>,
}

/// A structured query tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreePattern {
    nodes: Vec<PatternNode>,
}

impl TreePattern {
    /// Creates a pattern whose root must match the document root (`/label`).
    pub fn root(label: PatternLabel) -> Self {
        Self::with_root_axis(label, Axis::Child)
    }

    /// Creates a pattern whose root may match anywhere (`//label`) or only at
    /// the document root (`/label`).
    pub fn with_root_axis(label: PatternLabel, axis: Axis) -> Self {
        TreePattern {
            nodes: vec![PatternNode {
                label,
                axis,
                parent: None,
                children: Vec::new(),
            }],
        }
    }

    /// Adds a child node test under `parent`.
    ///
    /// # Panics
    /// Panics if `parent` is out of bounds, or if an element test is added
    /// under a value test (value nodes may only chain further value nodes —
    /// the `Chars` representation).
    #[expect(clippy::indexing_slicing, reason = "the first assert bounds parent below nodes.len()")]
    pub fn add(&mut self, parent: PatternNodeId, axis: Axis, label: PatternLabel) -> PatternNodeId {
        assert!(
            (parent as usize) < self.nodes.len(),
            "pattern parent out of bounds"
        );
        assert!(
            !matches!(self.nodes[parent as usize].label, PatternLabel::Value(_))
                || matches!(label, PatternLabel::Value(_)),
            "value tests are leaves (except value chains)"
        );
        let id = self.nodes.len() as PatternNodeId;
        self.nodes.push(PatternNode {
            label,
            axis,
            parent: Some(parent),
            children: Vec::new(),
        });
        self.nodes[parent as usize].children.push(id);
        id
    }

    /// The root node id (always 0).
    pub fn root_id(&self) -> PatternNodeId {
        0
    }

    /// Number of node tests.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Patterns always have a root.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The node test at `n`.
    #[expect(clippy::indexing_slicing, reason = "PatternNodeIds are minted by this builder")]
    pub fn label(&self, n: PatternNodeId) -> PatternLabel {
        self.nodes[n as usize].label
    }

    /// The axis connecting `n` to its parent (for the root: to the document).
    #[expect(clippy::indexing_slicing, reason = "builder-minted PatternNodeId (see `label`)")]
    pub fn axis(&self, n: PatternNodeId) -> Axis {
        self.nodes[n as usize].axis
    }

    /// The pattern parent of `n`.
    #[expect(clippy::indexing_slicing, reason = "builder-minted PatternNodeId (see `label`)")]
    pub fn parent(&self, n: PatternNodeId) -> Option<PatternNodeId> {
        self.nodes[n as usize].parent
    }

    /// Children of `n` in insertion order.
    #[expect(clippy::indexing_slicing, reason = "builder-minted PatternNodeId (see `label`)")]
    pub fn children(&self, n: PatternNodeId) -> &[PatternNodeId] {
        &self.nodes[n as usize].children
    }

    /// Iterates all node ids (parents before children).
    pub fn node_ids(&self) -> impl Iterator<Item = PatternNodeId> {
        0..self.nodes.len() as PatternNodeId
    }

    /// Renders the pattern as an XPath-ish string for diagnostics.
    pub fn render(&self, symbols: &SymbolTable) -> String {
        let mut out = String::new();
        self.render_node(self.root_id(), symbols, &mut out);
        out
    }

    fn render_node(&self, n: PatternNodeId, symbols: &SymbolTable, out: &mut String) {
        out.push_str(match self.axis(n) {
            Axis::Child => "/",
            Axis::Descendant => "//",
        });
        match self.label(n) {
            PatternLabel::Elem(d) => out.push_str(symbols.name(d)),
            PatternLabel::AnyElem => out.push('*'),
            PatternLabel::Value(v) => {
                let rendered = symbols
                    .values
                    .resolve(v)
                    .map(|s| format!("'{s}'"))
                    .unwrap_or_else(|| format!("v#{}", v.0));
                out.push_str(&rendered);
            }
        }
        for &c in self.children(n) {
            if self.children(n).len() > 1 || self.label(c) == self.label(n) {
                out.push('[');
                self.render_node(c, symbols, out);
                out.push(']');
            } else {
                self.render_node(c, symbols, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::SymbolTable;

    #[test]
    fn build_pattern() {
        let mut st = SymbolTable::default();
        let p = st.designator("Project");
        let r = st.designator("Research");
        let loc = st.designator("Loc");
        let ny = st.values.intern("newyork");

        let mut q = TreePattern::root(PatternLabel::Elem(p));
        let rn = q.add(q.root_id(), Axis::Child, PatternLabel::Elem(r));
        let ln = q.add(rn, Axis::Child, PatternLabel::Elem(loc));
        q.add(ln, Axis::Child, PatternLabel::Value(ny));

        assert_eq!(q.len(), 4);
        assert_eq!(q.children(q.root_id()), &[1]);
        assert_eq!(q.parent(3), Some(2));
    }

    #[test]
    #[should_panic(expected = "value tests are leaves")]
    fn value_nodes_cannot_have_element_children() {
        let mut st = SymbolTable::default();
        let p = st.designator("P");
        let v = st.values.intern("x");
        let mut q = TreePattern::root(PatternLabel::Elem(p));
        let vn = q.add(q.root_id(), Axis::Child, PatternLabel::Value(v));
        q.add(vn, Axis::Child, PatternLabel::Elem(p));
    }

    #[test]
    fn value_chains_are_allowed() {
        let mut st = SymbolTable::default();
        let p = st.designator("P");
        let a = st.values.intern("b");
        let b = st.values.intern("o");
        let mut q = TreePattern::root(PatternLabel::Elem(p));
        let v1 = q.add(q.root_id(), Axis::Child, PatternLabel::Value(a));
        let v2 = q.add(v1, Axis::Child, PatternLabel::Value(b));
        assert_eq!(q.parent(v2), Some(v1));
    }

    #[test]
    fn render_is_readable() {
        let mut st = SymbolTable::default();
        let p = st.designator("Project");
        let r = st.designator("Research");
        let mut q = TreePattern::root(PatternLabel::Elem(p));
        q.add(q.root_id(), Axis::Descendant, PatternLabel::Elem(r));
        assert_eq!(q.render(&st), "/Project//Research");
    }
}
