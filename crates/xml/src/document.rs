//! Arena-based document trees.
//!
//! A [`Document`] is the paper's unit of indexing: one record (a DBLP
//! publication, an XMark substructure, a synthetic tree).  Nodes are stored
//! in a flat arena in **preorder**, labelled by [`Symbol`]s; values appear as
//! leaf nodes exactly as the paper draws them (Figure 1: `boston` is a child
//! node of `L`).

use crate::error::XmlError;
use crate::path::{PathId, PathTable};
use crate::symbol::Symbol;

/// Index of a node within one [`Document`]'s arena.
pub type NodeId = u32;

#[derive(Debug, Clone, PartialEq, Eq)]
struct Node {
    sym: Symbol,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
}

/// One XML record, modelled as an unordered labelled tree.
///
/// Construction keeps the arena in preorder (parents before children), which
/// the sequencing layer relies on for cheap traversals.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Document {
    nodes: Vec<Node>,
}

impl Document {
    /// Creates an empty document (no root yet).
    pub fn new() -> Self {
        Document { nodes: Vec::new() }
    }

    /// Creates a document with a root node.
    pub fn with_root(sym: Symbol) -> Self {
        let mut d = Document::new();
        d.nodes.push(Node {
            sym,
            parent: None,
            children: Vec::new(),
        });
        d
    }

    /// The root node id, if the document is non-empty.
    pub fn root(&self) -> Option<NodeId> {
        if self.nodes.is_empty() {
            None
        } else {
            Some(0)
        }
    }

    /// Appends a child labelled `sym` under `parent`.
    ///
    /// # Errors
    /// Returns [`XmlError::NodeOutOfBounds`] if `parent` does not exist.
    pub fn add_child(&mut self, parent: NodeId, sym: Symbol) -> Result<NodeId, XmlError> {
        if parent as usize >= self.nodes.len() {
            return Err(XmlError::NodeOutOfBounds { node: parent });
        }
        let id = self.nodes.len() as NodeId;
        self.nodes.push(Node {
            sym,
            parent: Some(parent),
            children: Vec::new(),
        });
        // PANIC-FREE: parent < nodes.len() was checked at entry
        self.nodes[parent as usize].children.push(id);
        Ok(id)
    }

    /// Infallible `add_child` for builder-style code that tracks ids itself.
    ///
    /// # Panics
    /// Panics if `parent` does not exist.
    pub fn child(&mut self, parent: NodeId, sym: Symbol) -> NodeId {
        // PANIC-FREE: the documented contract — builder callers pass ids
        // this document handed out, so add_child cannot reject them
        self.add_child(parent, sym).expect("parent node must exist")
    }

    /// The label of a node.
    // PANIC-FREE: NodeIds are only minted by this arena; stale ids are a
    // caller bug the accessor contract documents as out of scope
    #[inline]
    pub fn sym(&self, n: NodeId) -> Symbol {
        self.nodes[n as usize].sym
    }

    /// The parent of a node (`None` for the root).
    // PANIC-FREE: same arena-minted NodeId contract as `sym`
    #[inline]
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        self.nodes[n as usize].parent
    }

    /// Children of a node, in document order.
    // PANIC-FREE: same arena-minted NodeId contract as `sym`
    #[inline]
    pub fn children(&self, n: NodeId) -> &[NodeId] {
        &self.nodes[n as usize].children
    }

    /// Number of nodes (elements + values).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for a document without a root.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates node ids in arena (preorder-compatible) order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        0..self.nodes.len() as NodeId
    }

    /// Preorder traversal from the root (depth-first, children in document
    /// order).  For documents built through [`Document::add_child`] this is
    /// *not* necessarily `0..len` because siblings may have been appended
    /// after a subtree was extended, so we walk the tree properly.
    pub fn preorder(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let Some(root) = self.root() else {
            return out;
        };
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            out.push(n);
            // push children reversed so the leftmost is visited first
            for &c in self.children(n).iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Depth of a node (root = 1, matching path-encoding length).
    pub fn depth(&self, n: NodeId) -> u16 {
        let mut d = 1;
        let mut cur = n;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    /// Height of the tree (max depth over nodes; 0 when empty).
    pub fn height(&self) -> u16 {
        self.node_ids().map(|n| self.depth(n)).max().unwrap_or(0)
    }

    /// Computes the path encoding of every node against a shared
    /// [`PathTable`], returning `paths[node] = PathId`.
    ///
    /// This is the paper's node encoding: node `n` is represented by the
    /// designator path from the root to `n`.
    pub fn path_encode(&self, paths: &mut PathTable) -> Vec<PathId> {
        let mut out = vec![PathId::ROOT; self.nodes.len()];
        for n in self.preorder() {
            // PANIC-FREE: preorder yields ids < nodes.len() == out.len()
            let parent_path = match self.parent(n) {
                Some(p) => out[p as usize],
                None => PathId::ROOT,
            };
            // PANIC-FREE: same preorder id bound as above
            out[n as usize] = paths.extend(parent_path, self.sym(n));
        }
        out
    }

    /// Rewrites every node label through `f` — used by compaction and the
    /// shard split to re-intern documents into fresh tables.
    ///
    /// Nodes are visited in arena order, which for parsed documents is the
    /// parse encounter order — so a *stateful* `f` that interns into a fresh
    /// table replays the original first-occurrence interning order exactly.
    pub fn remap_symbols(&mut self, mut f: impl FnMut(Symbol) -> Symbol) {
        for node in &mut self.nodes {
            node.sym = f(node.sym);
        }
    }

    /// Read-only [`Document::path_encode`]: resolves every node's path
    /// against an immutable [`PathTable`], returning `None` as soon as a
    /// node's path is absent from the table.
    ///
    /// This is the shared-read counterpart used at query time: the table
    /// was populated when the data was indexed, so a miss proves the node
    /// (and therefore any query built from it) cannot match any indexed
    /// document.
    pub fn path_encode_readonly(&self, paths: &PathTable) -> Option<Vec<PathId>> {
        let mut out = vec![PathId::ROOT; self.nodes.len()];
        for n in self.preorder() {
            // PANIC-FREE: preorder yields ids < nodes.len() == out.len()
            let parent_path = match self.parent(n) {
                Some(p) => out[p as usize],
                None => PathId::ROOT,
            };
            // PANIC-FREE: same preorder id bound as above
            out[n as usize] = paths.child(parent_path, self.sym(n))?;
        }
        Some(out)
    }

    /// True if `a` is a proper ancestor of `b` in this document.
    pub fn is_ancestor(&self, a: NodeId, b: NodeId) -> bool {
        let mut cur = self.parent(b);
        while let Some(p) = cur {
            if p == a {
                return true;
            }
            cur = self.parent(p);
        }
        false
    }

    /// Structural (unordered) equality: same shape and labels regardless of
    /// sibling order.  Used by round-trip tests, since constraint sequences
    /// only determine trees up to sibling order (Theorem 1 concerns the
    /// *structure*, and XML data trees here are unordered).
    pub fn structurally_eq(&self, other: &Document) -> bool {
        match (self.root(), other.root()) {
            (None, None) => true,
            (Some(a), Some(b)) => self.len() == other.len() && canon(self, a) == canon(other, b),
            _ => false,
        }
    }
}

/// Heap attribution for a document: the node arena plus every node's child
/// list.
impl xseq_telemetry::HeapSize for Document {
    fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node>()
            + self
                .nodes
                .iter()
                .map(|n| n.children.capacity() * std::mem::size_of::<NodeId>())
                .sum::<usize>()
    }
}

/// Canonical form of a subtree: label + sorted canonical forms of children.
fn canon(doc: &Document, n: NodeId) -> Vec<u8> {
    let mut kids: Vec<Vec<u8>> = doc.children(n).iter().map(|&c| canon(doc, c)).collect();
    kids.sort();
    let mut out = Vec::with_capacity(8 + kids.iter().map(Vec::len).sum::<usize>());
    out.extend_from_slice(&doc.sym(n).raw().to_le_bytes());
    out.push(b'(');
    for k in kids {
        out.extend_from_slice(&k);
        out.push(b',');
    }
    out.push(b')');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::{SymbolTable, ValueMode};

    fn sample() -> (SymbolTable, Document) {
        // Figure 3(b): P(v0, D(L(v1)), D(M(v2)))
        let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
        let p = st.elem("P");
        let d = st.elem("D");
        let l = st.elem("L");
        let m = st.elem("M");
        let v0 = st.val("xml");
        let v1 = st.val("boston");
        let v2 = st.val("johnson");

        let mut doc = Document::with_root(p);
        let root = doc.root().unwrap();
        doc.child(root, v0);
        let d1 = doc.child(root, d);
        let l1 = doc.child(d1, l);
        doc.child(l1, v1);
        let d2 = doc.child(root, d);
        let m1 = doc.child(d2, m);
        doc.child(m1, v2);
        (st, doc)
    }

    #[test]
    fn build_and_navigate() {
        let (_, doc) = sample();
        assert_eq!(doc.len(), 8);
        let root = doc.root().unwrap();
        assert_eq!(doc.children(root).len(), 3);
        assert_eq!(doc.parent(root), None);
        assert_eq!(doc.height(), 4);
        assert_eq!(doc.depth(root), 1);
    }

    #[test]
    fn preorder_visits_all_parents_first() {
        let (_, doc) = sample();
        let order = doc.preorder();
        assert_eq!(order.len(), doc.len());
        let pos: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        for n in doc.node_ids() {
            if let Some(p) = doc.parent(n) {
                assert!(pos[&p] < pos[&n], "parent after child in preorder");
            }
        }
    }

    #[test]
    fn path_encoding_matches_paper() {
        let (_, doc) = sample();
        let mut paths = PathTable::new();
        let enc = doc.path_encode(&mut paths);
        // Two identical sibling D element nodes must share the same PathId.
        let root = doc.root().unwrap();
        let d_children: Vec<_> = doc
            .node_ids()
            .filter(|&n| doc.parent(n) == Some(root) && doc.sym(n).is_elem())
            .collect();
        assert_eq!(d_children.len(), 2);
        assert_eq!(enc[d_children[0] as usize], enc[d_children[1] as usize]);
        // No node is encoded by the empty path.
        assert!(enc.iter().all(|&p| p != PathId::ROOT));
        // Path depth equals node depth.
        for n in doc.node_ids() {
            assert_eq!(paths.depth(enc[n as usize]), doc.depth(n));
        }
    }

    #[test]
    fn ancestor_test() {
        let (_, doc) = sample();
        let root = doc.root().unwrap();
        for n in doc.node_ids().skip(1) {
            assert!(doc.is_ancestor(root, n));
        }
        assert!(!doc.is_ancestor(root, root));
        assert!(!doc.is_ancestor(3, 1));
    }

    #[test]
    fn structural_equality_ignores_sibling_order() {
        let mut st = SymbolTable::default();
        let p = st.elem("P");
        let a = st.elem("A");
        let b = st.elem("B");

        let mut d1 = Document::with_root(p);
        let r = d1.root().unwrap();
        d1.child(r, a);
        d1.child(r, b);

        let mut d2 = Document::with_root(p);
        let r = d2.root().unwrap();
        d2.child(r, b);
        d2.child(r, a);

        assert!(d1.structurally_eq(&d2));

        let mut d3 = Document::with_root(p);
        let r = d3.root().unwrap();
        d3.child(r, a);
        d3.child(r, a);
        assert!(!d1.structurally_eq(&d3));
    }

    #[test]
    fn figure5_isomorphic_forms_are_structurally_equal() {
        // Figure 5: P(L(S), L(B)) in both orders.
        let mut st = SymbolTable::default();
        let p = st.elem("P");
        let l = st.elem("L");
        let s = st.elem("S");
        let b = st.elem("B");

        let mut d1 = Document::with_root(p);
        let r = d1.root().unwrap();
        let l1 = d1.child(r, l);
        d1.child(l1, s);
        let l2 = d1.child(r, l);
        d1.child(l2, b);

        let mut d2 = Document::with_root(p);
        let r = d2.root().unwrap();
        let l1 = d2.child(r, l);
        d2.child(l1, b);
        let l2 = d2.child(r, l);
        d2.child(l2, s);

        assert!(d1.structurally_eq(&d2));
    }

    #[test]
    fn add_child_rejects_bad_parent() {
        let mut st = SymbolTable::default();
        let p = st.elem("P");
        let mut d = Document::with_root(p);
        assert!(d.add_child(99, p).is_err());
    }
}
