//! Designators and value symbols.
//!
//! The paper designates "each element and attribute name in an XML document
//! by a designator" (`P` for `Project`, ...), and maps attribute values to
//! value designators, either through a hash function (ViST option 1:
//! `v1 = h('boston')`) or by spelling them out character by character
//! (option 2, Index-Fabric-style).  This module implements both element-name
//! interning and the value schemes.

use crate::intern::Strings;
use xseq_telemetry::HeapSize;

/// An interned element or attribute name.
///
/// Designators are dense small integers, suitable for direct array indexing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Designator(pub u32);

/// An interned (or hashed) attribute/text value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u32);

/// A node label: either an element designator or a value designator.
///
/// Packed into a single `u32` with the high bit discriminating values, so a
/// `Symbol` is as cheap to store and compare as a plain integer — path
/// encodings and sequences hold millions of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

const VALUE_BIT: u32 = 1 << 31;

impl Symbol {
    /// Wraps an element designator.
    #[inline]
    pub fn elem(d: Designator) -> Symbol {
        debug_assert!(d.0 < VALUE_BIT);
        Symbol(d.0)
    }

    /// Wraps a value designator.
    #[inline]
    pub fn value(v: ValueId) -> Symbol {
        debug_assert!(v.0 < VALUE_BIT);
        Symbol(v.0 | VALUE_BIT)
    }

    /// True if this symbol is a value designator.
    #[inline]
    pub fn is_value(self) -> bool {
        self.0 & VALUE_BIT != 0
    }

    /// True if this symbol is an element designator.
    #[inline]
    pub fn is_elem(self) -> bool {
        !self.is_value()
    }

    /// Returns the element designator, if this is one.
    #[inline]
    pub fn as_elem(self) -> Option<Designator> {
        if self.is_elem() {
            Some(Designator(self.0))
        } else {
            None
        }
    }

    /// Returns the value designator, if this is one.
    #[inline]
    pub fn as_value(self) -> Option<ValueId> {
        if self.is_value() {
            Some(ValueId(self.0 & !VALUE_BIT))
        } else {
            None
        }
    }

    /// Raw packed representation (stable; used by the storage layer).
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Rebuilds a symbol from its packed representation.
    #[inline]
    pub fn from_raw(raw: u32) -> Symbol {
        Symbol(raw)
    }
}

/// How attribute/text values are turned into value designators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ValueMode {
    /// Every distinct string gets its own [`ValueId`] (exact; reversible).
    #[default]
    Intern,
    /// Values are hashed into a bounded range (`v = h(s) mod range`), ViST's
    /// scheme.  Models the paper's "hash function with a range of 1000":
    /// distinct strings may collide, which trades false positives for a
    /// bounded designator universe.  Not reversible.
    Hashed {
        /// Size of the hash range (the paper uses 1000 for person names).
        range: u32,
    },
    /// The paper's second representation: a value becomes a *chain* of
    /// per-character value nodes ("`boston` by `b,o,s,t,o,n`",
    /// Index-Fabric-style), terminated by [`ValueTable::END`].  This lets
    /// subsequence matching reach *inside* attribute values: a chain prefix
    /// is a starts-with query, a chain ending in the terminator is exact
    /// equality.
    Chars,
}

/// Interner for attribute/text values.
///
/// Each distinct value is stored once, as a slice of one shared arena that
/// [`ValueTable::resolve`] reads, and found through an index of value ids
/// (the crate's open-addressed interner).
#[derive(Debug, Clone)]
pub struct ValueTable {
    mode: ValueMode,
    strings: Strings,
}

impl ValueTable {
    /// Creates a value table with the given mode.
    pub fn new(mode: ValueMode) -> Self {
        ValueTable {
            mode,
            strings: Strings::default(),
        }
    }

    /// The configured mode.
    pub fn mode(&self) -> ValueMode {
        self.mode
    }

    /// The terminator string for `Chars` chains (an unused control char).
    pub const END: &'static str = "\u{1F}";

    /// Maps a value string to its designator, allocating one if needed.
    /// In `Chars` mode this interns the *whole string* exactly (the chain
    /// construction is the caller's job via [`ValueTable::chain`]).
    ///
    /// # Panics
    /// When the distinct values' text would pass 4 GiB (`u32` offsets).
    #[expect(clippy::integer_division_remainder_used, reason = "Hashed ranges are clamped to >= 1")]
    pub fn intern(&mut self, s: &str) -> ValueId {
        match self.mode {
            ValueMode::Intern | ValueMode::Chars => ValueId(self.strings.intern(s)),
            ValueMode::Hashed { range } => ValueId(fnv1a(s.as_bytes()) % range.max(1)),
        }
    }

    /// Looks up a value without allocating.  In `Hashed` mode this always
    /// succeeds (the hash is total); in `Intern` mode it returns `None` for
    /// strings never seen — which lets query layers prove a value-equality
    /// predicate can match nothing.
    #[expect(clippy::integer_division_remainder_used, reason = "Hashed ranges are clamped to >= 1")]
    pub fn lookup(&self, s: &str) -> Option<ValueId> {
        match self.mode {
            ValueMode::Intern | ValueMode::Chars => self.strings.find(s).map(ValueId),
            ValueMode::Hashed { range } => Some(ValueId(fnv1a(s.as_bytes()) % range.max(1))),
        }
    }

    /// Interns a value as a chain of per-character designators followed by
    /// the [`ValueTable::END`] terminator — the `Chars` representation.
    pub fn chain(&mut self, s: &str) -> Vec<ValueId> {
        let mut out = tokenize_value_chars(self, s);
        out.push(self.intern(Self::END));
        out
    }

    /// Read-only [`ValueTable::chain`]: the per-character chain plus
    /// terminator, or `None` when any character (or the terminator) was
    /// never interned — in which case no indexed value can match.
    pub fn chain_readonly(&self, s: &str) -> Option<Vec<ValueId>> {
        let mut out = self.chain_prefix_readonly(s)?;
        out.push(self.lookup(Self::END)?);
        Some(out)
    }

    /// The chain for a *prefix* query: per-character designators without the
    /// terminator, so matching continues into any value that starts with
    /// `s` — or `None` on the first never-seen character.
    pub fn chain_prefix_readonly(&self, s: &str) -> Option<Vec<ValueId>> {
        let mut buf = [0u8; 4];
        s.chars()
            .map(|c| self.lookup(c.encode_utf8(&mut buf)))
            .collect()
    }

    /// Recovers the string for a designator (`Intern` and `Chars` modes).
    pub fn resolve(&self, v: ValueId) -> Option<&str> {
        match self.mode {
            ValueMode::Intern | ValueMode::Chars => self.strings.get(v.0),
            ValueMode::Hashed { .. } => None,
        }
    }

    /// Number of distinct interned values (0 in `Hashed` mode).
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Tokenizes a value into per-character value symbols — the paper's second
/// value representation ("`boston` by `b,o,s,t,o,n`", Index-Fabric-style),
/// which permits subsequence matching *inside* attribute values.
///
/// Each character is mapped through the same interner so that character
/// symbols and whole-value symbols share one namespace.
pub fn tokenize_value_chars(table: &mut ValueTable, s: &str) -> Vec<ValueId> {
    let mut buf = [0u8; 4];
    s.chars()
        .map(|c| table.intern(c.encode_utf8(&mut buf)))
        .collect()
}

/// 32-bit FNV-1a over bytes; used for hashed value designators.  Chosen for
/// determinism across runs (the index format must not depend on `RandomState`).
fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Shared interners for one corpus: element names plus values.
#[derive(Debug, Clone)]
pub struct SymbolTable {
    /// Element and attribute names; a designator is its name's id.
    names: Strings,
    /// The value interner.
    pub values: ValueTable,
}

impl Default for SymbolTable {
    fn default() -> Self {
        SymbolTable::with_value_mode(ValueMode::Intern)
    }
}

impl SymbolTable {
    /// Creates a symbol table with the given value-designator mode.
    pub fn with_value_mode(mode: ValueMode) -> Self {
        SymbolTable {
            names: Strings::default(),
            values: ValueTable::new(mode),
        }
    }

    /// Interns an element/attribute name.
    ///
    /// # Panics
    /// When the distinct names' text would pass 4 GiB (`u32` offsets).
    pub fn designator(&mut self, name: &str) -> Designator {
        Designator(self.names.intern(name))
    }

    /// Looks up a name without interning.
    pub fn lookup_designator(&self, name: &str) -> Option<Designator> {
        self.names.find(name).map(Designator)
    }

    /// The name behind a designator (empty for one this table never
    /// minted).
    pub fn name(&self, d: Designator) -> &str {
        self.names.get(d.0).unwrap_or_default()
    }

    /// Number of distinct element names.
    pub fn designator_count(&self) -> usize {
        self.names.len()
    }

    /// Frees the spare capacity of the name and value arenas.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.names.shrink_to_fit();
        self.values.strings.shrink_to_fit();
    }

    /// Convenience: element symbol for a name.
    pub fn elem(&mut self, name: &str) -> Symbol {
        Symbol::elem(self.designator(name))
    }

    /// Convenience: value symbol for a string.
    pub fn val(&mut self, s: &str) -> Symbol {
        Symbol::value(self.values.intern(s))
    }

    /// Renders a symbol for human consumption (used by `Display` impls and
    /// debugging output; hashed values render as `v#<id>`).
    #[expect(clippy::unreachable, reason = "VALUE_BIT: a symbol is an element or a value")]
    pub fn render(&self, sym: Symbol) -> String {
        match (sym.as_elem(), sym.as_value()) {
            (Some(d), _) => self.name(d).to_owned(),
            (_, Some(v)) => match self.values.resolve(v) {
                Some(s) => format!("'{s}'"),
                None => format!("v#{}", v.0),
            },
            _ => unreachable!(),
        }
    }
}

impl HeapSize for Designator {
    #[inline]
    fn heap_bytes(&self) -> usize {
        0
    }
}

impl HeapSize for ValueId {
    #[inline]
    fn heap_bytes(&self) -> usize {
        0
    }
}

impl HeapSize for Symbol {
    #[inline]
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// Heap attribution for the value interner: the arena with its offsets and
/// the id index — every value once.
impl HeapSize for ValueTable {
    fn heap_bytes(&self) -> usize {
        self.strings.heap_bytes()
    }
}

/// Heap attribution for the symbol interners: names plus values.
impl HeapSize for SymbolTable {
    fn heap_bytes(&self) -> usize {
        self.names.heap_bytes() + self.values.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbol_packing_roundtrip() {
        let e = Symbol::elem(Designator(42));
        assert!(e.is_elem());
        assert_eq!(e.as_elem(), Some(Designator(42)));
        assert_eq!(e.as_value(), None);

        let v = Symbol::value(ValueId(7));
        assert!(v.is_value());
        assert_eq!(v.as_value(), Some(ValueId(7)));
        assert_eq!(v.as_elem(), None);

        assert_eq!(Symbol::from_raw(e.raw()), e);
        assert_eq!(Symbol::from_raw(v.raw()), v);
    }

    #[test]
    fn elem_and_value_never_collide() {
        let e = Symbol::elem(Designator(5));
        let v = Symbol::value(ValueId(5));
        assert_ne!(e, v);
    }

    #[test]
    fn interning_is_stable() {
        let mut t = SymbolTable::default();
        let a = t.designator("Project");
        let b = t.designator("Research");
        let a2 = t.designator("Project");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.name(a), "Project");
        assert_eq!(t.name(b), "Research");
        assert_eq!(t.designator_count(), 2);
    }

    #[test]
    fn value_interning_exact() {
        let mut t = ValueTable::new(ValueMode::Intern);
        let boston = t.intern("boston");
        let ny = t.intern("newyork");
        assert_ne!(boston, ny);
        assert_eq!(t.intern("boston"), boston);
        assert_eq!(t.resolve(boston), Some("boston"));
        assert_eq!(t.lookup("boston"), Some(boston));
        assert_eq!(t.lookup("nowhere"), None);
    }

    #[test]
    fn value_hashing_is_bounded_and_deterministic() {
        let mut t = ValueTable::new(ValueMode::Hashed { range: 1000 });
        let a = t.intern("boston");
        let b = t.intern("boston");
        assert_eq!(a, b);
        assert!(a.0 < 1000);
        // lookup needs no prior intern in hashed mode
        assert_eq!(t.lookup("never-seen").map(|v| v.0 < 1000), Some(true));
        assert!(t.resolve(a).is_none());
    }

    #[test]
    fn hashed_range_one_maps_everything_together() {
        let mut t = ValueTable::new(ValueMode::Hashed { range: 1 });
        assert_eq!(t.intern("a"), t.intern("b"));
    }

    #[test]
    fn char_tokenization() {
        let mut t = ValueTable::new(ValueMode::Intern);
        let toks = tokenize_value_chars(&mut t, "boston");
        assert_eq!(toks.len(), 6);
        // repeated 'o' maps to the same id
        assert_eq!(toks[1], toks[4]);
        assert_eq!(t.resolve(toks[0]), Some("b"));
    }

    #[test]
    fn readonly_chains_mirror_interning_chains() {
        let mut t = ValueTable::new(ValueMode::Chars);
        let chain = t.chain("bos");
        assert_eq!(t.chain_readonly("bos"), Some(chain));
        let prefix = tokenize_value_chars(&mut t, "bo");
        assert_eq!(t.chain_prefix_readonly("bo"), Some(prefix));
        assert_eq!(t.chain_readonly("box"), None, "x was never interned");
        assert_eq!(t.chain_prefix_readonly("zz"), None);
    }

    #[test]
    fn render_symbols() {
        let mut t = SymbolTable::default();
        let p = t.elem("Project");
        let v = t.val("boston");
        assert_eq!(t.render(p), "Project");
        assert_eq!(t.render(v), "'boston'");
    }
}
