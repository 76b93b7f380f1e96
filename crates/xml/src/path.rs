//! Path encoding of tree nodes.
//!
//! Section 2.2 of the paper: "We encode each node `n` in the tree by the path
//! leading from the root node to `n`" — e.g. `P`, `PR`, `PRL`, `PRLv1`.
//! Paths are interned in a [`PathTable`], itself a trie: a path is its parent
//! path plus one trailing [`Symbol`].  This makes path equality an integer
//! comparison and the prefix test `⊂` a short parent-pointer walk.
//!
//! The set of distinct paths also doubles as the *path dictionary* (a
//! DataGuide in disguise) that the index layer uses to instantiate the `*`
//! and `//` wildcards of queries against concrete data paths.

use crate::symbol::Symbol;
use std::collections::HashMap;
use xseq_telemetry::HeapSize;

/// Interned identifier of a root-to-node designator path.
///
/// `PathId::ROOT` is the empty path ε; real node encodings are its proper
/// descendants (the paper's root node `P` has path encoding `P`, i.e. the
/// path of length 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PathId(pub u32);

impl PathId {
    /// The empty path ε.
    pub const ROOT: PathId = PathId(0);
}

#[derive(Debug)]
struct PathEntry {
    parent: PathId,
    last: Symbol,
    depth: u16,
    /// Child paths, for dictionary enumeration (wildcard instantiation).
    children: Vec<PathId>,
}

/// Interning table of designator paths, structured as a trie.
///
/// Ids are minted in first-occurrence order, so a table is a function of
/// the order its paths were interned in — every build interns serially, in
/// document order.
#[derive(Debug)]
pub struct PathTable {
    entries: Vec<PathEntry>,
    /// (parent, symbol) -> child path
    lookup: HashMap<(PathId, Symbol), PathId>,
}

impl Default for PathTable {
    fn default() -> Self {
        Self::new()
    }
}

impl PathTable {
    /// Creates a table containing only the empty path ε.
    pub fn new() -> Self {
        PathTable {
            entries: vec![PathEntry {
                parent: PathId::ROOT,
                last: Symbol::from_raw(u32::MAX), // never read for ROOT
                depth: 0,
                children: Vec::new(),
            }],
            lookup: HashMap::new(),
        }
    }

    /// Interns the extension of `parent` by `sym`, returning the child path.
    // PANIC-FREE: PathIds are only minted by this table, so `parent`
    // always indexes `entries`; stale ids are a documented caller bug
    pub fn extend(&mut self, parent: PathId, sym: Symbol) -> PathId {
        if let Some(&p) = self.lookup.get(&(parent, sym)) {
            return p;
        }
        let id = PathId(self.entries.len() as u32);
        let depth = self.entries[parent.0 as usize].depth + 1;
        self.entries.push(PathEntry {
            parent,
            last: sym,
            depth,
            children: Vec::new(),
        });
        self.entries[parent.0 as usize].children.push(id);
        self.lookup.insert((parent, sym), id);
        id
    }

    /// Looks up the extension of `parent` by `sym` without interning.
    pub fn child(&self, parent: PathId, sym: Symbol) -> Option<PathId> {
        self.lookup.get(&(parent, sym)).copied()
    }

    /// Interns a whole path given as a symbol slice (root designator first).
    pub fn intern(&mut self, syms: &[Symbol]) -> PathId {
        let mut p = PathId::ROOT;
        for &s in syms {
            p = self.extend(p, s);
        }
        p
    }

    /// Looks up a whole path without interning.
    pub fn lookup(&self, syms: &[Symbol]) -> Option<PathId> {
        let mut p = PathId::ROOT;
        for &s in syms {
            p = self.child(p, s)?;
        }
        Some(p)
    }

    /// Parent path (ε's parent is ε).
    // PANIC-FREE: table-minted PathId contract (see `extend`)
    #[inline]
    pub fn parent(&self, p: PathId) -> PathId {
        self.entries[p.0 as usize].parent
    }

    /// Last symbol of a non-empty path.
    // PANIC-FREE: table-minted PathId contract (see `extend`)
    #[inline]
    pub fn last(&self, p: PathId) -> Option<Symbol> {
        if p == PathId::ROOT {
            None
        } else {
            Some(self.entries[p.0 as usize].last)
        }
    }

    /// Number of symbols in the path.
    // PANIC-FREE: table-minted PathId contract (see `extend`)
    #[inline]
    pub fn depth(&self, p: PathId) -> u16 {
        self.entries[p.0 as usize].depth
    }

    /// The paper's `⊂`: true iff `a` is a **proper** prefix of `b`.
    pub fn is_proper_prefix(&self, a: PathId, b: PathId) -> bool {
        if a == b {
            return false;
        }
        let da = self.depth(a);
        let mut cur = b;
        while self.depth(cur) > da {
            cur = self.parent(cur);
        }
        cur == a
    }

    /// Materializes a path as a symbol vector (root first).
    // PANIC-FREE: table-minted PathId contract (see `extend`)
    pub fn symbols(&self, p: PathId) -> Vec<Symbol> {
        let mut out = Vec::with_capacity(self.depth(p) as usize);
        let mut cur = p;
        while cur != PathId::ROOT {
            out.push(self.entries[cur.0 as usize].last);
            cur = self.parent(cur);
        }
        out.reverse();
        out
    }

    /// Child paths of `p` in the dictionary (insertion order).
    // PANIC-FREE: table-minted PathId contract (see `extend`)
    pub fn children(&self, p: PathId) -> &[PathId] {
        &self.entries[p.0 as usize].children
    }

    /// Number of interned paths, counting ε.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Always false (ε is always present).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterates over every interned path, including ε.
    pub fn iter(&self) -> impl Iterator<Item = PathId> + '_ {
        (0..self.entries.len() as u32).map(PathId)
    }

    /// All descendant paths of `p` (excluding `p`), preorder.  Used for `//`
    /// wildcard instantiation.
    pub fn descendants(&self, p: PathId) -> Vec<PathId> {
        let mut out = Vec::new();
        let mut stack: Vec<PathId> = self.children(p).to_vec();
        while let Some(q) = stack.pop() {
            out.push(q);
            stack.extend_from_slice(self.children(q));
        }
        out
    }
}

impl HeapSize for PathId {
    #[inline]
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// Heap attribution for the path dictionary: the entry arena, the
/// per-entry child lists and the `(parent, symbol)` lookup table.
impl HeapSize for PathTable {
    fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<PathEntry>()
            + self
                .entries
                .iter()
                .map(|e| e.children.capacity() * std::mem::size_of::<PathId>())
                .sum::<usize>()
            + self.lookup.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::{SymbolTable, ValueMode};

    fn table() -> (SymbolTable, PathTable) {
        (
            SymbolTable::with_value_mode(ValueMode::Intern),
            PathTable::new(),
        )
    }

    #[test]
    fn intern_and_lookup() {
        let (mut st, mut pt) = table();
        let p = st.elem("P");
        let r = st.elem("R");
        let pr = pt.intern(&[p, r]);
        assert_eq!(pt.lookup(&[p, r]), Some(pr));
        assert_eq!(pt.lookup(&[r]), None);
        assert_eq!(pt.depth(pr), 2);
        assert_eq!(pt.symbols(pr), vec![p, r]);
    }

    #[test]
    fn extension_is_idempotent() {
        let (mut st, mut pt) = table();
        let p = st.elem("P");
        let a = pt.extend(PathId::ROOT, p);
        let b = pt.extend(PathId::ROOT, p);
        assert_eq!(a, b);
        assert_eq!(pt.len(), 2);
    }

    #[test]
    fn prefix_relation() {
        let (mut st, mut pt) = table();
        let p = st.elem("P");
        let d = st.elem("D");
        let l = st.elem("L");
        let pp = pt.intern(&[p]);
        let pd = pt.intern(&[p, d]);
        let pdl = pt.intern(&[p, d, l]);
        let pl = pt.intern(&[p, l]);

        assert!(pt.is_proper_prefix(PathId::ROOT, pp));
        assert!(pt.is_proper_prefix(pp, pd));
        assert!(pt.is_proper_prefix(pp, pdl));
        assert!(pt.is_proper_prefix(pd, pdl));
        assert!(!pt.is_proper_prefix(pd, pd));
        assert!(!pt.is_proper_prefix(pl, pdl));
        assert!(!pt.is_proper_prefix(pdl, pd));
    }

    #[test]
    fn descendants_enumeration() {
        let (mut st, mut pt) = table();
        let p = st.elem("P");
        let a = st.elem("A");
        let b = st.elem("B");
        let pp = pt.intern(&[p]);
        let pa = pt.intern(&[p, a]);
        let pab = pt.intern(&[p, a, b]);
        let pb = pt.intern(&[p, b]);
        let mut ds = pt.descendants(pp);
        ds.sort();
        let mut expect = vec![pa, pab, pb];
        expect.sort();
        assert_eq!(ds, expect);
        assert!(pt.descendants(pab).is_empty());
    }

    #[test]
    fn values_participate_in_paths() {
        let (mut st, mut pt) = table();
        let p = st.elem("P");
        let l = st.elem("L");
        let v = st.val("boston");
        let plv = pt.intern(&[p, l, v]);
        assert_eq!(pt.depth(plv), 3);
        assert_eq!(pt.last(plv), Some(v));
        assert!(pt.last(plv).unwrap().is_value());
    }
}
