//! Arena-based document trees.
//!
//! A [`Document`] is the paper's unit of indexing: one record (a DBLP
//! publication, an XMark substructure, a synthetic tree).  Nodes are stored
//! in a flat arena, labelled by [`Symbol`]s; values appear as leaf nodes
//! exactly as the paper draws them (Figure 1: `boston` is a child node of
//! `L`).

use crate::error::XmlError;
use crate::path::{PathId, PathTable};
use crate::symbol::Symbol;
use crate::DocId;
use xseq_telemetry::HeapSize;

/// Index of a node within one [`Document`]'s arena.
pub type NodeId = u32;

/// One XML record, modelled as an unordered labelled tree.
///
/// The tree is four flat columns over the node arena: each node's label
/// (`sym`), its parent (`parent`, [`Document::NO_PARENT`] for the root) and
/// its children in compressed-row form — node `n`'s children are
/// `kids[kid_off[n]..kid_off[n + 1]]`, in document order.  Every constructor
/// keeps a parent's id below its children's, so one pass in arena order sees
/// each parent before its children; for every parsed or generated document
/// arena order is preorder.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Document {
    sym: Vec<Symbol>,
    parent: Vec<NodeId>,
    /// `len() + 1` row offsets into `kids` (empty for an empty document).
    kid_off: Vec<u32>,
    kids: Vec<NodeId>,
}

impl Document {
    /// The root's entry in the parent column.
    pub const NO_PARENT: NodeId = NodeId::MAX;

    /// Creates an empty document (no root yet).
    pub fn new() -> Self {
        Document::default()
    }

    /// Creates a document with a root node.
    pub fn with_root(sym: Symbol) -> Self {
        Document {
            sym: vec![sym],
            parent: vec![Self::NO_PARENT],
            kid_off: vec![0, 0],
            kids: Vec::new(),
        }
    }

    /// Builds a document from its label and parent columns in arena order:
    /// node `i` is labelled `sym[i]` and hangs under `parent[i]`.  Node 0 is
    /// the root (`parent[0]` is [`Document::NO_PARENT`]) and every other
    /// node's parent is an earlier node.  The child rows are a counting sort
    /// of `parent` in two linear passes, so each list is ascending — the
    /// document [`Document::add_child`] builds appending the nodes in order.
    ///
    /// # Errors
    /// [`XmlError::NodeOutOfBounds`] naming the first parent that is not an
    /// earlier node (or a root entry other than `NO_PARENT`), or the first
    /// node missing from one column when the two differ in length.
    // Pass 1 indexes kid_off[p + 2] only for p < i ≤ n − 1, so p + 2 ≤ n <
    // kid_off.len(); in pass 2, p + 1 < i + 1 ≤ n < kid_off.len(), and the
    // cursor stays below p's row end ≤ n − 1 = kids.len().
    #[expect(clippy::indexing_slicing, reason = "p < i < n bounds kid_off; cursors stay in rows")]
    pub fn from_parents(sym: Vec<Symbol>, parent: Vec<NodeId>) -> Result<Document, XmlError> {
        let n = sym.len();
        if parent.len() != n {
            let node = n.min(parent.len()) as NodeId;
            return Err(XmlError::NodeOutOfBounds { node });
        }
        if n == 0 {
            return Ok(Document::new());
        }
        // Pass 1 counts node p's children in kid_off[p + 2]; the prefix sum
        // then leaves p's row start in kid_off[p + 1], and pass 2 advances
        // that cursor to p's row end, which is p + 1's row start.
        let mut kid_off = vec![0u32; n + 1];
        for (i, &p) in parent.iter().enumerate() {
            match p as usize {
                up if up < i => kid_off[up + 2] += 1,
                _ if i == 0 && p == Self::NO_PARENT => {}
                _ => return Err(XmlError::NodeOutOfBounds { node: p }),
            }
        }
        let mut total = 0;
        for off in &mut kid_off {
            total += *off;
            *off = total;
        }
        let mut kids = vec![0; n - 1];
        for (i, &p) in parent.iter().enumerate().skip(1) {
            let cursor = &mut kid_off[p as usize + 1];
            kids[*cursor as usize] = i as NodeId;
            *cursor += 1;
        }
        Ok(Document {
            sym,
            parent,
            kid_off,
            kids,
        })
    }

    /// The root node id, if the document is non-empty.
    pub fn root(&self) -> Option<NodeId> {
        (!self.sym.is_empty()).then_some(0)
    }

    /// Appends a child labelled `sym` under `parent`.
    ///
    /// This is for incremental builders (generators, query trees, tests):
    /// it shifts the child rows of every node after `parent`, so it costs
    /// O(nodes after `parent`).  Bulk builders collect the two columns and
    /// call [`Document::from_parents`] once.
    ///
    /// # Errors
    /// Returns [`XmlError::NodeOutOfBounds`] if `parent` does not exist.
    pub fn add_child(&mut self, parent: NodeId, sym: Symbol) -> Result<NodeId, XmlError> {
        let Some(&at) = self.kid_off.get(parent as usize + 1) else {
            return Err(XmlError::NodeOutOfBounds { node: parent });
        };
        let id = self.sym.len() as NodeId;
        self.sym.push(sym);
        self.parent.push(parent);
        // at is a row offset, at most kids.len()
        self.kids.insert(at as usize, id);
        for off in self.kid_off.iter_mut().skip(parent as usize + 1) {
            *off += 1;
        }
        self.kid_off.push(self.kids.len() as u32);
        Ok(id)
    }

    /// Infallible `add_child` for builder-style code that tracks ids itself.
    ///
    /// # Panics
    /// Panics if `parent` does not exist.
    #[expect(clippy::expect_used, reason = "documented: callers pass ids this document minted")]
    pub fn child(&mut self, parent: NodeId, sym: Symbol) -> NodeId {
        self.add_child(parent, sym).expect("parent node must exist")
    }

    /// The label of a node.
    #[expect(clippy::indexing_slicing, reason = "NodeIds are minted by this arena (documented)")]
    #[inline]
    pub fn sym(&self, n: NodeId) -> Symbol {
        self.sym[n as usize]
    }

    /// The parent of a node (`None` for the root).
    #[expect(clippy::indexing_slicing, reason = "same arena-minted NodeId contract as `sym`")]
    #[inline]
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        let p = self.parent[n as usize];
        (p != Self::NO_PARENT).then_some(p)
    }

    /// Children of a node, in document order.
    #[expect(clippy::indexing_slicing, reason = "arena-minted NodeId; row offsets <= kids.len()")]
    #[inline]
    pub fn children(&self, n: NodeId) -> &[NodeId] {
        let n = n as usize;
        &self.kids[self.kid_off[n] as usize..self.kid_off[n + 1] as usize]
    }

    /// Number of nodes (elements + values).
    pub fn len(&self) -> usize {
        self.sym.len()
    }

    /// True for a document without a root.
    pub fn is_empty(&self) -> bool {
        self.sym.is_empty()
    }

    /// Iterates node ids in arena order, which visits every parent before
    /// its children.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        0..self.sym.len() as NodeId
    }

    /// Preorder traversal from the root (depth-first, children in document
    /// order).  For documents built through [`Document::add_child`] this is
    /// *not* necessarily `0..len` because siblings may have been appended
    /// after a subtree was extended, so we walk the tree properly.
    pub fn preorder(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.len());
        let mut stack: Vec<NodeId> = self.root().into_iter().collect();
        while let Some(n) = stack.pop() {
            out.push(n);
            // push children reversed so the leftmost is visited first
            stack.extend(self.children(n).iter().rev());
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
    /// designator path from the root to `n`.  Nodes are visited in arena
    /// order, so new paths are minted in it — which is preorder for every
    /// parsed and generated document.
    pub fn path_encode(&self, paths: &mut PathTable) -> Vec<PathId> {
        let mut out = Vec::with_capacity(self.len());
        self.path_encode_onto(paths, &mut out);
        out
    }

    /// [`Document::path_encode`] onto the end of `out`.
    fn path_encode_onto(&self, paths: &mut PathTable, out: &mut Vec<PathId>) {
        let base = out.len();
        for (&sym, &p) in self.sym.iter().zip(&self.parent) {
            // a parent precedes its child, so its path is already in `out`;
            // the root's NO_PARENT is past every index
            let up = out.get(base + p as usize).copied().unwrap_or(PathId::ROOT);
            out.push(paths.extend(up, sym));
        }
    }

    /// Rebuilds the document whose path encoding in arena order is `enc`
    /// (Theorem 1's decoding, on node encodings): node `n` is labelled by
    /// the last symbol of `enc[n]` and hangs under the node before it or
    /// the one of that node's ancestors whose path `enc[n]` extends — in
    /// preorder there is no other place for it, and each step up passes a
    /// subtree that is closed for good, so the walk is linear.  For a
    /// document in preorder — every parsed and generated one, and any after
    /// [`Document::into_preorder`] — this is the document, column for
    /// column: `from_path_encoding(&d.path_encode(t), t) == Some(d)`.
    ///
    /// `None` when `enc` encodes no preorder document against `paths`: ε or
    /// an id the table never minted, a first node that is not a root path,
    /// or a later node whose path extends none of the open nodes' paths.
    pub fn from_path_encoding(enc: &[PathId], paths: &PathTable) -> Option<Document> {
        let mut sym = Vec::with_capacity(enc.len());
        let mut parent: Vec<NodeId> = Vec::with_capacity(enc.len());
        for (n, &p) in enc.iter().enumerate() {
            let (up_path, last) = paths.key(p)?;
            let mut up = n.checked_sub(1);
            while let Some(u) = up.filter(|&u| enc.get(u) != Some(&up_path)) {
                up = parent
                    .get(u)
                    .filter(|&&q| q != Self::NO_PARENT)
                    .map(|&q| q as usize);
            }
            parent.push(match up {
                Some(u) => u as NodeId,
                None if n == 0 && up_path == PathId::ROOT => Self::NO_PARENT,
                None => return None,
            });
            sym.push(last);
        }
        Document::from_parents(sym, parent).ok()
    }

    /// This document laid out in preorder, children in document order: the
    /// same tree (and `self` itself when its arena already is in preorder),
    /// whose path encoding [`Document::from_path_encoding`] decodes back to
    /// it.
    #[expect(clippy::indexing_slicing, reason = "preorder() lists every node once")]
    pub fn into_preorder(self) -> Document {
        let order = self.preorder();
        if order.iter().copied().eq(self.node_ids()) {
            return self;
        }
        let mut at = vec![Self::NO_PARENT; self.len()];
        for (i, &n) in order.iter().enumerate() {
            at[n as usize] = i as NodeId;
        }
        let sym = order.iter().map(|&n| self.sym[n as usize]).collect();
        let parent = (order.iter())
            .map(|&n| self.parent(n).map_or(Self::NO_PARENT, |p| at[p as usize]))
            .collect();
        // a preorder column is topological
        Document::from_parents(sym, parent).unwrap_or(self)
    }

    /// Rewrites every node label through `f` — used by compaction and the
    /// shard split to re-intern documents into fresh tables.
    ///
    /// Nodes are visited in arena order, which for parsed documents is the
    /// parse encounter order — so a *stateful* `f` that interns into a fresh
    /// table replays the original first-occurrence interning order exactly.
    pub fn remap_symbols(&mut self, mut f: impl FnMut(Symbol) -> Symbol) {
        for sym in &mut self.sym {
            *sym = f(*sym);
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
        let mut out = Vec::with_capacity(self.len());
        for (&sym, &p) in self.sym.iter().zip(&self.parent) {
            let up = out.get(p as usize).copied().unwrap_or(PathId::ROOT);
            out.push(paths.child(up, sym)?);
        }
        Some(out)
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

/// A corpus' documents as their path encodings, one flat column: document
/// `d` is `enc[off[d]..off[d + 1]]`, entry `n` of it node `n`'s
/// [`PathId`] in arena order — 4 B per node and 4 B per document, a quarter
/// of the [`Document`] columns.  A database keeps its documents this way
/// and decodes one ([`Document::from_path_encoding`]) only when asked;
/// every document it holds is in preorder, so the decoding is exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathColumn {
    enc: Vec<PathId>,
    /// `len() + 1` offsets into `enc`, the first 0.
    off: Vec<u32>,
}

impl Default for PathColumn {
    fn default() -> Self {
        Self::with_capacity(0, 0)
    }
}

impl PathColumn {
    /// An empty column with room for `docs` documents of `nodes` nodes in
    /// all, so that filling it to that size leaves both arrays exact.
    pub fn with_capacity(docs: usize, nodes: usize) -> Self {
        let mut off = Vec::with_capacity(docs + 1);
        off.push(0);
        PathColumn {
            enc: Vec::with_capacity(nodes),
            off,
        }
    }

    /// Path-encodes `doc` against `paths` onto the end of the column (new
    /// paths are minted as [`Document::path_encode`] mints them) and
    /// returns its id.
    pub fn push(&mut self, doc: &Document, paths: &mut PathTable) -> DocId {
        doc.path_encode_onto(paths, &mut self.enc);
        self.off.push(self.enc.len() as u32);
        self.len() as DocId - 1
    }

    /// Document `d`'s path encoding, if the column holds it.
    pub fn get(&self, d: DocId) -> Option<&[PathId]> {
        let (from, to) = (self.off.get(d as usize)?, self.off.get(d as usize + 1)?);
        self.enc.get(*from as usize..*to as usize)
    }

    /// Every document's path encoding, in id order.
    pub fn iter(&self) -> impl Iterator<Item = &[PathId]> + '_ {
        self.off.windows(2).map(|w| match *w {
            [from, to] => self.enc.get(from as usize..to as usize).unwrap_or(&[]),
            _ => &[],
        })
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.off.len() - 1
    }

    /// True when the column holds no document.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Heap attribution for the column: its two arrays.
impl HeapSize for PathColumn {
    fn heap_bytes(&self) -> usize {
        self.enc.heap_bytes() + self.off.heap_bytes()
    }
}

/// Heap attribution for a document: its four columns.
impl HeapSize for Document {
    fn heap_bytes(&self) -> usize {
        self.sym.heap_bytes()
            + self.parent.heap_bytes()
            + self.kid_off.heap_bytes()
            + self.kids.heap_bytes()
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
