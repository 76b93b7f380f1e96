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
//! and `//` wildcards of queries against concrete data paths.  The table
//! keeps that summary as links inside its own arena, written once by
//! [`PathTable::extend`] and never moved: every path points at the path
//! interned before it with the same last symbol ([`PathTable::ending_in`] —
//! "which paths end in `s`" is a chain walk from the newest, not a scan of
//! the table), the paths ending in an element are listed for `//*`
//! ([`PathTable::element_paths`]), and the children of a path are a
//! last-child / previous-sibling list ([`PathTable::children`]).  A new path
//! becomes the head of its lists, so both read newest first — descending
//! [`PathId`], since ids are minted in interning order — and minting one
//! touches no entry but its own and its parent's.  The element children of
//! each path are also listed apart ([`PathTable::element_children`]), for
//! `*`: a path whose text varies has a value child per distinct text, and
//! `*` under it must not walk them.

use crate::intern::{IdIndex, Probe};
use crate::symbol::{Designator, Symbol};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
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

/// A multiplicative [`Hasher`] for [`PathId`] keys, for maps built with
/// [`BuildHasherDefault<PathIdHasher>`](std::hash::BuildHasherDefault).
///
/// Each word is folded in as `(h ⋘ 5 ⊕ w) · K` with `K` the 64-bit golden
/// ratio, so one `PathId` hashes in one multiplication.  The low bits, which
/// pick the bucket, are a bijection of the id's low bits — dense ids spread
/// evenly — and the high bits, which a swiss table keeps as its tag, mix every
/// bit.  Path ids are minted by a [`PathTable`] in interning order, never
/// chosen by an input, so the flooding resistance SipHash buys is not needed.
/// The same holds for the [`Symbol`]s beside them in the table's own keys:
/// a symbol table mints them as counters too, and a hashed value's id is
/// bounded by its configured range.
#[derive(Debug, Default, Clone, Copy)]
pub struct PathIdHasher(u64);

impl PathIdHasher {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;

    fn fold(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for PathIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.fold(u64::from(b)));
    }

    fn write_u32(&mut self, n: u32) {
        self.fold(u64::from(n));
    }
}

/// The table's maps are keyed by ids a table minted, so they hash with
/// [`PathIdHasher`].
type MintedKeys = BuildHasherDefault<PathIdHasher>;

/// The [`PathIdHasher`] hash of the key `(parent, last)`.  The chain heads
/// are keyed by `(ε, last)`.
fn key_hash((parent, last): (PathId, Symbol)) -> u64 {
    let mut h = PathIdHasher::default();
    h.write_u32(parent.0);
    h.write_u32(last.raw());
    h.finish()
}

/// The `(parent, last)` key of path `p`, if the table minted it.
fn key_of(entries: &[PathEntry], p: u32) -> Option<(PathId, Symbol)> {
    entries.get(p as usize).map(|e| (e.parent, e.last))
}

/// The key of the chain path `p` belongs to: `(ε, last)`.
fn chain_of(entries: &[PathEntry], p: u32) -> Option<(PathId, Symbol)> {
    key_of(entries, p).map(|(_, last)| (PathId::ROOT, last))
}

#[derive(Debug)]
struct PathEntry {
    parent: PathId,
    last: Symbol,
    depth: u16,
    /// The path interned before this one with the same last symbol.  ε is a
    /// member of neither list, so it ends both.
    prev_same_last: PathId,
    /// Child paths, newest first: `last_child`, then its `prev_sibling`s.
    last_child: PathId,
    prev_sibling: PathId,
}

/// Interning table of designator paths, structured as a trie.
///
/// Ids are minted in first-occurrence order, so a table is a function of
/// the order its paths were interned in — every build interns serially, in
/// document order.
#[derive(Debug)]
pub struct PathTable {
    entries: Vec<PathEntry>,
    /// Every path but ε, found by its entry's `(parent, last)`.
    index: IdIndex,
    /// Element designator -> newest path ending in it (ε: none yet), the
    /// head of its chain.
    elem_heads: Vec<PathId>,
    /// The newest path ending in each value symbol, found by its entry's
    /// `last`.  Not a column per value id like `elem_heads`: a hashed value's
    /// id is bounded only by its configured range.
    value_heads: IdIndex,
    /// Paths whose last symbol is an element, ascending.
    element_paths: Vec<PathId>,
    /// path -> its children whose last symbol is an element, ascending;
    /// paths without one are absent
    element_children: HashMap<PathId, Vec<PathId>, MintedKeys>,
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
                prev_same_last: PathId::ROOT,
                last_child: PathId::ROOT,
                prev_sibling: PathId::ROOT,
            }],
            index: IdIndex::default(),
            elem_heads: Vec::new(),
            value_heads: IdIndex::default(),
            element_paths: Vec::new(),
            element_children: HashMap::default(),
        }
    }

    /// Interns the extension of `parent` by `sym`, returning the child path.
    #[expect(clippy::indexing_slicing, reason = "PathIds are minted by this table (documented)")]
    pub fn extend(&mut self, parent: PathId, sym: Symbol) -> PathId {
        let (key, entries) = ((parent, sym), &self.entries);
        let hash = key_hash(key);
        let vacant = match self.index.probe(hash, |p| key_of(entries, p) == Some(key)) {
            Probe::Found { id, .. } => return PathId(id),
            Probe::Vacant(slot) => slot,
        };
        let id = PathId(self.entries.len() as u32);
        // `id` becomes the head of its parent's child list and of its
        // symbol's chain, linking back to the head it replaces: minting a
        // path writes no entry but its own and its parent's, and one head.
        let prev_same_last = self.replace_head(sym, id);
        let up = &mut self.entries[parent.0 as usize];
        let (depth, prev_sibling) = (up.depth + 1, std::mem::replace(&mut up.last_child, id));
        self.entries.push(PathEntry {
            parent,
            last: sym,
            depth,
            prev_same_last,
            last_child: PathId::ROOT,
            prev_sibling,
        });
        let entries = &self.entries;
        let rehash = |p| key_of(entries, p).map_or(0, key_hash);
        self.index.insert(vacant, hash, id.0, rehash);
        if sym.is_elem() {
            self.element_paths.push(id);
            self.element_children.entry(parent).or_default().push(id);
        }
        id
    }

    /// Makes `id` the head of `sym`'s chain and returns the head it
    /// replaces (ε for the first path ending in `sym`).
    #[expect(clippy::indexing_slicing, reason = "the column is resized to cover d")]
    fn replace_head(&mut self, sym: Symbol, id: PathId) -> PathId {
        if let Some(Designator(d)) = sym.as_elem() {
            if self.elem_heads.len() <= d as usize {
                self.elem_heads.resize(d as usize + 1, PathId::ROOT);
            }
            return std::mem::replace(&mut self.elem_heads[d as usize], id);
        }
        let (entries, chain) = (&self.entries, (PathId::ROOT, sym));
        let hash = key_hash(chain);
        match self
            .value_heads
            .probe(hash, |p| chain_of(entries, p) == Some(chain))
        {
            Probe::Found { slot, id: old } => {
                self.value_heads.replace(slot, id.0);
                PathId(old)
            }
            Probe::Vacant(slot) => {
                let rehash = |p| chain_of(entries, p).map_or(0, key_hash);
                self.value_heads.insert(slot, hash, id.0, rehash);
                PathId::ROOT
            }
        }
    }

    /// Looks up the extension of `parent` by `sym` without interning.
    pub fn child(&self, parent: PathId, sym: Symbol) -> Option<PathId> {
        let key = (parent, sym);
        let is = |p| key_of(&self.entries, p) == Some(key);
        self.index.find(key_hash(key), is).map(PathId)
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
    #[expect(clippy::indexing_slicing, reason = "table-minted PathId contract (see `extend`)")]
    #[inline]
    pub fn parent(&self, p: PathId) -> PathId {
        self.entries[p.0 as usize].parent
    }

    /// Last symbol of a non-empty path.
    #[expect(clippy::indexing_slicing, reason = "table-minted PathId contract (see `extend`)")]
    #[inline]
    pub fn last(&self, p: PathId) -> Option<Symbol> {
        if p == PathId::ROOT {
            None
        } else {
            Some(self.entries[p.0 as usize].last)
        }
    }

    /// Number of symbols in the path.
    #[expect(clippy::indexing_slicing, reason = "table-minted PathId contract (see `extend`)")]
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
    #[expect(clippy::indexing_slicing, reason = "table-minted PathId contract (see `extend`)")]
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

    /// Child paths of `p` in the dictionary, newest (highest id) first.
    #[expect(clippy::indexing_slicing, reason = "table-minted PathId contract (see `extend`)")]
    pub fn children(&self, p: PathId) -> impl Iterator<Item = PathId> + '_ {
        self.list(self.entries[p.0 as usize].last_child, |e| e.prev_sibling)
    }

    /// Child paths of `p` whose last symbol is an element, ascending: the
    /// children [`children`](Self::children) lists, without the values.
    pub fn element_children(&self, p: PathId) -> &[PathId] {
        self.element_children.get(&p).map_or(&[], Vec::as_slice)
    }

    /// Every path whose last symbol is `sym`, newest (highest id) first.
    pub fn ending_in(&self, sym: Symbol) -> impl Iterator<Item = PathId> + '_ {
        let chain = (PathId::ROOT, sym);
        let is = |p| chain_of(&self.entries, p) == Some(chain);
        let newest = match sym.as_elem() {
            Some(d) => self.elem_heads.get(d.0 as usize).copied(),
            None => self.value_heads.find(key_hash(chain), is).map(PathId),
        };
        self.list(newest.unwrap_or(PathId::ROOT), |e| e.prev_same_last)
    }

    /// Every path whose last symbol is an element, ascending.
    pub fn element_paths(&self) -> &[PathId] {
        &self.element_paths
    }

    /// Walks one of the arena's linked lists from `head` along `prev`.
    #[expect(clippy::indexing_slicing, reason = "links point at earlier minted ids and end at ε")]
    fn list(
        &self,
        head: PathId,
        prev: fn(&PathEntry) -> PathId,
    ) -> impl Iterator<Item = PathId> + '_ {
        let some = |p: PathId| (p != PathId::ROOT).then_some(p);
        std::iter::successors(some(head), move |p| some(prev(&self.entries[p.0 as usize])))
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

    /// Frees the spare capacity of the entry arena and the lists.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.entries.shrink_to_fit();
        self.elem_heads.shrink_to_fit();
        self.element_paths.shrink_to_fit();
        self.element_children
            .values_mut()
            .for_each(Vec::shrink_to_fit);
    }
}

impl HeapSize for PathId {
    #[inline]
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// Heap attribution for the path dictionary: the entry arena (which holds
/// every link), the `(parent, symbol)` index, the chain heads, the
/// element-path list and the element-children lists.
impl HeapSize for PathTable {
    fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<PathEntry>()
            + self.index.heap_bytes()
            + self.elem_heads.heap_bytes()
            + self.value_heads.heap_bytes()
            + self.element_paths.heap_bytes()
            + self.element_children.heap_bytes()
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

    #[test]
    fn dense_path_ids_hash_to_distinct_buckets_and_tags() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let build = BuildHasherDefault::<PathIdHasher>::default();
        let hashes: Vec<u64> = (0..1024).map(|i| build.hash_one(PathId(i))).collect();
        let buckets: std::collections::HashSet<u64> = hashes.iter().map(|h| h & 1023).collect();
        assert_eq!(buckets.len(), 1024, "the low bits are a bijection");
        let tags: std::collections::HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        assert_eq!(tags.len(), 128, "every 7-bit tag is used");
    }
}
