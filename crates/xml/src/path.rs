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

#[derive(Debug, Clone)]
struct PathEntry {
    parent: PathId,
    last: Symbol,
    depth: u16,
    /// Child paths, for dictionary enumeration (wildcard instantiation).
    children: Vec<PathId>,
}

/// Interning table of designator paths, structured as a trie.
///
/// `Clone` supports the parallel ingest pipeline: each worker extends a
/// clone of the shared table and the deltas (entries past the base length)
/// are merged back in document order, which replays the sequential
/// first-occurrence interning order exactly.
#[derive(Debug, Clone)]
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

    /// Merges the interning delta of `local` — paths allocated past
    /// `base_len` — into `self`, returning the remap from `local`'s path
    /// ids into `self`'s.
    ///
    /// `local` must be a clone of `self` taken when `self` held exactly
    /// `base_len` entries, and its symbols must already be in the merged
    /// namespace (parallel ingest merges symbol deltas before sequencing).
    /// A path's parent always has a smaller id than the path itself, so a
    /// single in-order pass over the delta can resolve every parent
    /// through the remap built so far.  Absorbing per-worker deltas in
    /// document order replays the sequential first-occurrence interning
    /// order exactly.
    pub fn absorb_delta(&mut self, local: &PathTable, base_len: usize) -> PathRemap {
        let mut map = Vec::with_capacity(local.len() - base_len);
        for i in base_len..local.len() {
            let p = PathId(i as u32);
            let parent = local.parent(p);
            let parent = if (parent.0 as usize) < base_len {
                parent
            } else {
                map[parent.0 as usize - base_len]
            };
            let last = local
                .last(p)
                .expect("non-root paths always have a last symbol");
            map.push(self.extend(parent, last));
        }
        PathRemap {
            base: base_len as u32,
            map,
        }
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

/// Path-id remap produced by [`PathTable::absorb_delta`]: maps a
/// worker-local path id into the merged table's namespace.  Ids below the
/// base length are shared and map to themselves.
#[derive(Debug, Clone)]
pub struct PathRemap {
    base: u32,
    map: Vec<PathId>,
}

impl PathRemap {
    /// Maps a local path id into the merged namespace.
    // PANIC-FREE: the remap covers every id the local table minted, and
    // `p >= base` implies `p - base < map.len()` by construction
    pub fn path(&self, p: PathId) -> PathId {
        if p.0 < self.base {
            p
        } else {
            self.map[(p.0 - self.base) as usize]
        }
    }

    /// True when the delta mapped onto the merged table without renumbering.
    pub fn is_identity(&self) -> bool {
        self.map
            .iter()
            .enumerate()
            .all(|(i, p)| p.0 == self.base + i as u32)
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
    fn absorb_delta_replays_first_occurrence_order() {
        let (mut st, mut pt) = table();
        let p = st.elem("P");
        let a = st.elem("A");
        let b = st.elem("B");
        let c = st.elem("C");
        pt.intern(&[p, a]);
        let base = pt.len();

        // Two workers extend clones of the shared table in different ways.
        let mut w0 = pt.clone();
        let w0_pb = w0.intern(&[p, b]);
        let w0_pa = w0.intern(&[p, a]); // pre-existing: below base
        let mut w1 = pt.clone();
        let w1_pc = w1.intern(&[p, c]);
        let w1_pb = w1.intern(&[p, b]); // duplicated across workers

        let r0 = pt.absorb_delta(&w0, base);
        let r1 = pt.absorb_delta(&w1, base);
        assert!(r0.is_identity(), "first delta keeps its own numbering");
        assert!(!r1.is_identity(), "second delta renumbers around worker 0");
        assert_eq!(r0.path(w0_pa), w0_pa);
        assert_eq!(r1.path(w1_pb), r0.path(w0_pb), "shared path converges");
        assert_ne!(r1.path(w1_pc), w1_pc, "fresh path renumbered past worker 0");

        // The merged table equals a sequential build in the same doc order.
        let (mut st2, mut seq) = table();
        let (p2, a2, b2, c2) = (st2.elem("P"), st2.elem("A"), st2.elem("B"), st2.elem("C"));
        assert_eq!((p2, a2, b2, c2), (p, a, b, c));
        seq.intern(&[p2, a2]);
        seq.intern(&[p2, b2]);
        seq.intern(&[p2, a2]);
        seq.intern(&[p2, c2]);
        seq.intern(&[p2, b2]);
        assert_eq!(pt.len(), seq.len());
        for i in 0..pt.len() as u32 {
            assert_eq!(pt.parent(PathId(i)), seq.parent(PathId(i)));
            assert_eq!(pt.last(PathId(i)), seq.last(PathId(i)));
        }
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
