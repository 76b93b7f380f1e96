//! Property tests for the XML substrate: serializer/parser round trips,
//! path-encoding invariants, and oracle sanity.

use proptest::prelude::*;
use std::collections::HashMap;
use xseq_xml::matcher::{find_embedding, structure_match};
use xseq_xml::{
    parse_document, write_document, Axis, Document, PathId, PathTable, PatternLabel, Symbol,
    SymbolTable, TreePattern, ValueId, ValueMode, ValueTable,
};

#[derive(Debug, Clone)]
struct DocRecipe {
    parents: Vec<u32>,
    labels: Vec<u8>,
    values: Vec<Option<u8>>,
}

fn doc_recipe(max_nodes: usize) -> impl Strategy<Value = DocRecipe> {
    (1..max_nodes).prop_flat_map(|n| {
        (
            proptest::collection::vec(any::<u32>(), n),
            proptest::collection::vec(any::<u8>(), n + 1),
            proptest::collection::vec(proptest::option::weighted(0.3, any::<u8>()), n + 1),
        )
            .prop_map(|(parents, labels, values)| DocRecipe {
                parents,
                labels,
                values,
            })
    })
}

fn build(recipe: &DocRecipe, st: &mut SymbolTable) -> Document {
    let elems: Vec<_> = (0..5).map(|i| st.elem(&format!("el{i}"))).collect();
    let mut doc = Document::with_root(elems[0]);
    // ids of element nodes only — parents are drawn from these
    let mut elem_ids = vec![doc.root().expect("with_root sets the root")];
    for i in 1..=recipe.parents.len() {
        let parent = elem_ids[recipe.parents[i - 1] as usize % elem_ids.len()];
        let n = doc.child(parent, elems[(recipe.labels[i] as usize) % elems.len()]);
        elem_ids.push(n);
        if let Some(v) = recipe.values[i] {
            let vs = st.val(&format!("val{}", v % 16));
            doc.child(n, vs);
        }
    }
    doc
}

/// Strings of up to three characters over a twelve-letter alphabet with
/// multi-byte letters and the `Chars` terminator in it, the empty string
/// included: few enough that keys repeat, enough (1 885) that a few hundred
/// draws grow an interner through several resizes.
fn word() -> impl Strategy<Value = String> {
    const LETTERS: [char; 12] = [
        'a', 'b', 'z', '0', ' ', 'é', 'ß', '日', '→', '\u{1F}', '😀', 'q',
    ];
    proptest::collection::vec(0usize..12, 0..4)
        .prop_map(|ls| ls.into_iter().map(|l| LETTERS[l]).collect())
}

/// The reference interner: a `HashMap` minting ids in first-occurrence order.
#[derive(Default)]
struct Reference {
    ids: HashMap<String, u32>,
    strings: Vec<String>,
}

impl Reference {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        self.strings.push(s.to_owned());
        self.ids.insert(s.to_owned(), self.strings.len() as u32 - 1);
        self.strings.len() as u32 - 1
    }
}

/// One byte-level edit: `(kind, position, payload)`, each reduced modulo
/// what the text at hand allows.
type Edit = (u8, u32, u8);

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    proptest::collection::vec((any::<u8>(), any::<u32>(), any::<u8>()), 1..=4)
}

/// Applies 1–4 byte edits — overwrite, delete, insert a syntax character,
/// truncate, swap — and re-decodes lossily, so the result is a `&str` a
/// caller could really hand the parser.  (`tests/integration_pipeline.rs`
/// carries the same mutator for whole records and queries.)
fn mutate(text: &str, edits: &[Edit]) -> String {
    const SYNTAX: &[u8] = b"<>/&;\"'=[]!-?";
    let mut bytes = text.as_bytes().to_vec();
    for &(kind, pos, payload) in edits {
        if bytes.is_empty() {
            break;
        }
        let len = bytes.len();
        let at = pos as usize % len;
        match kind % 5 {
            0 => bytes[at] = payload,
            1 => drop(bytes.remove(at)),
            2 => bytes.insert(at, SYNTAX[payload as usize % SYNTAX.len()]),
            3 => bytes.truncate(at),
            _ => bytes.swap(at, (at + 1 + payload as usize) % len),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_documents_are_rejected_or_roundtrip(recipe in doc_recipe(20), edits in edits()) {
        let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
        let text = write_document(&build(&recipe, &mut st), &st);
        let mutant = mutate(&text, &edits);
        // Err is a typed `XmlError` by construction; the property is that
        // hostile bytes never panic, and that whatever the parser accepts
        // it accepts consistently.
        if let Ok(doc) = parse_document(&mutant, &mut st) {
            let rewritten = write_document(&doc, &st);
            let again = parse_document(&rewritten, &mut st);
            prop_assert!(
                again.as_ref().is_ok_and(|d| doc.structurally_eq(d)),
                "{mutant:?} -> {rewritten:?} -> {again:?}"
            );
        }
    }

    #[test]
    fn write_parse_roundtrip(recipe in doc_recipe(20)) {
        let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
        let doc = build(&recipe, &mut st);
        let text = write_document(&doc, &st);
        let doc2 = parse_document(&text, &mut st).unwrap();
        prop_assert!(doc.structurally_eq(&doc2), "{text}");
    }

    #[test]
    fn path_encoding_depth_and_prefix_invariants(recipe in doc_recipe(25)) {
        let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
        let doc = build(&recipe, &mut st);
        let mut paths = PathTable::new();
        let enc = doc.path_encode(&mut paths);
        for n in doc.node_ids() {
            prop_assert_eq!(paths.depth(enc[n as usize]), doc.depth(n));
            if let Some(p) = doc.parent(n) {
                prop_assert!(paths.is_proper_prefix(enc[p as usize], enc[n as usize]));
                prop_assert_eq!(paths.parent(enc[n as usize]), enc[p as usize]);
            }
        }
    }

    #[test]
    fn dictionary_links_read_as_filters_of_the_table(
        ops in proptest::collection::vec((any::<u32>(), 0u8..6), 1..40),
    ) {
        // The summary the wildcard planner reads — chains by last symbol,
        // the element-path list, child links, element children — against
        // what it summarises,
        // after every `extend` (repeats included, which must change nothing).
        let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
        let syms: Vec<_> = (0..6)
            .map(|i| if i < 3 { st.elem(&format!("el{i}")) } else { st.val(&format!("val{i}")) })
            .collect();
        let mut paths = PathTable::new();
        let mut children_of: Vec<Vec<PathId>> = vec![Vec::new()];
        for (parent, sym) in ops {
            let parent = PathId(parent % paths.len() as u32);
            let before = paths.len();
            let id = paths.extend(parent, syms[sym as usize]);
            if paths.len() > before {
                children_of[parent.0 as usize].push(id);
                children_of.push(Vec::new());
            }
            // the linked lists read newest first: descending id
            let newest_first = |list: Vec<PathId>| list.into_iter().rev().collect::<Vec<_>>();
            for &s in &syms {
                let scan: Vec<PathId> = paths.iter().filter(|&p| paths.last(p) == Some(s)).collect();
                prop_assert_eq!(newest_first(paths.ending_in(s).collect()), scan);
            }
            let elems: Vec<PathId> = paths
                .iter()
                .filter(|&p| paths.last(p).is_some_and(|s| s.is_elem()))
                .collect();
            prop_assert_eq!(paths.element_paths(), &elems[..]);
            for p in paths.iter() {
                prop_assert_eq!(&newest_first(paths.children(p).collect()), &children_of[p.0 as usize]);
                let elem_children: Vec<PathId> = children_of[p.0 as usize]
                    .iter()
                    .copied()
                    .filter(|&c| paths.last(c).is_some_and(|s| s.is_elem()))
                    .collect();
                prop_assert_eq!(paths.element_children(p), &elem_children[..]);
            }
        }
    }

    #[test]
    fn every_subtree_is_a_match_witnessed_by_embedding(recipe in doc_recipe(12)) {
        let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
        let doc = build(&recipe, &mut st);
        // the exact pattern of the whole document matches it, and the
        // returned embedding is label- and parent-consistent
        let label = |d: &Document, n: u32| match (d.sym(n).as_elem(), d.sym(n).as_value()) {
            (Some(e), _) => PatternLabel::Elem(e),
            (_, Some(v)) => PatternLabel::Value(v),
            _ => unreachable!(),
        };
        let root = doc.root().unwrap();
        let mut q = TreePattern::root(label(&doc, root));
        let mut map = vec![0u32; doc.len()];
        for n in doc.preorder() {
            if n == root { continue; }
            let p = doc.parent(n).unwrap();
            map[n as usize] = q.add(map[p as usize], Axis::Child, label(&doc, n));
        }
        let emb = find_embedding(&q, &doc).expect("self-match");
        for pn in q.node_ids() {
            let dn = emb[pn as usize];
            // label consistent
            match q.label(pn) {
                PatternLabel::Elem(e) => prop_assert_eq!(doc.sym(dn).as_elem(), Some(e)),
                PatternLabel::Value(v) => prop_assert_eq!(doc.sym(dn).as_value(), Some(v)),
                PatternLabel::AnyElem => prop_assert!(doc.sym(dn).is_elem()),
            }
            // parent consistent
            if let Some(pp) = q.parent(pn) {
                prop_assert_eq!(doc.parent(dn), Some(emb[pp as usize]));
            }
        }
        // injective
        let mut seen = std::collections::HashSet::new();
        for &dn in &emb {
            prop_assert!(seen.insert(dn));
        }
    }

    #[test]
    fn structure_match_is_monotone_under_node_removal(recipe in doc_recipe(12), drop in any::<u32>()) {
        // removing a leaf from the pattern never turns a match into a miss
        let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
        let doc = build(&recipe, &mut st);
        let label = |d: &Document, n: u32| match (d.sym(n).as_elem(), d.sym(n).as_value()) {
            (Some(e), _) => PatternLabel::Elem(e),
            (_, Some(v)) => PatternLabel::Value(v),
            _ => unreachable!(),
        };
        let root = doc.root().unwrap();
        // full pattern, minus one randomly chosen leaf subtree (skip root)
        let skip = if doc.len() > 1 { 1 + (drop as usize % (doc.len() - 1)) } else { 0 };
        let mut q = TreePattern::root(label(&doc, root));
        let mut map = vec![u32::MAX; doc.len()];
        map[root as usize] = q.root_id();
        for n in doc.preorder() {
            if n == root || n as usize == skip { continue; }
            let p = doc.parent(n).unwrap();
            if map[p as usize] == u32::MAX { continue; } // under the skipped subtree
            map[n as usize] = q.add(map[p as usize], Axis::Child, label(&doc, n));
        }
        prop_assert!(structure_match(&q, &doc), "partial pattern must still match");
    }

    /// The value interner ≡ a `HashMap` in every mode: ids in first-occurrence
    /// order (per character and terminator in `Chars` mode), every id
    /// resolving to its string, `None` for absent strings, and the bounded
    /// hash in `Hashed` mode.
    #[test]
    fn value_interner_matches_a_hash_map(
        words in proptest::collection::vec(word(), 0..400),
        probes in proptest::collection::vec(word(), 0..40),
        mode in 0u8..3,
    ) {
        let mode = [ValueMode::Intern, ValueMode::Chars, ValueMode::Hashed { range: 97 }][mode as usize];
        let mut table = ValueTable::new(mode);
        let mut reference = Reference::default();
        for w in &words {
            match mode {
                ValueMode::Intern => prop_assert_eq!(table.intern(w), ValueId(reference.intern(w))),
                ValueMode::Chars => {
                    let mut want: Vec<ValueId> =
                        w.chars().map(|c| ValueId(reference.intern(&c.to_string()))).collect();
                    want.push(ValueId(reference.intern(ValueTable::END)));
                    prop_assert_eq!(table.chain(w), want);
                }
                ValueMode::Hashed { range } => {
                    let v = table.intern(w);
                    prop_assert!(v.0 < range);
                    prop_assert_eq!(table.lookup(w), Some(v));
                    prop_assert_eq!(table.resolve(v), None);
                }
            }
        }
        if matches!(mode, ValueMode::Hashed { .. }) {
            prop_assert_eq!(table.len(), 0);
            return Ok(());
        }
        prop_assert_eq!(table.len(), reference.strings.len());
        for (id, s) in reference.strings.iter().enumerate() {
            prop_assert_eq!(table.resolve(ValueId(id as u32)), Some(s.as_str()));
            prop_assert_eq!(table.lookup(s), Some(ValueId(id as u32)));
        }
        for p in &probes {
            prop_assert_eq!(table.lookup(p), reference.ids.get(p.as_str()).copied().map(ValueId));
        }
        prop_assert_eq!(table.resolve(ValueId(reference.strings.len() as u32)), None);
    }

    /// The name interner ≡ a `HashMap`: designators in first-occurrence
    /// order, names read back, `None` for absent names.
    #[test]
    fn name_interner_matches_a_hash_map(
        words in proptest::collection::vec(word(), 0..400),
        probes in proptest::collection::vec(word(), 0..40),
    ) {
        let mut st = SymbolTable::default();
        let mut reference = Reference::default();
        for w in &words {
            prop_assert_eq!(st.designator(w).0, reference.intern(w));
        }
        prop_assert_eq!(st.designator_count(), reference.strings.len());
        for (id, s) in reference.strings.iter().enumerate() {
            let d = st.lookup_designator(s);
            prop_assert_eq!(d.map(|d| d.0), Some(id as u32));
            prop_assert_eq!(st.name(d.unwrap()), s.as_str());
        }
        for p in &probes {
            prop_assert_eq!(st.lookup_designator(p).map(|d| d.0), reference.ids.get(p.as_str()).copied());
        }
    }

    /// The path interner ≡ a `HashMap` on `(parent, last)`: ids in
    /// first-occurrence order across the index's resizes, `child` finding
    /// exactly the interned extensions, and every path's parent and last
    /// symbol read back.
    #[test]
    fn path_interner_matches_a_hash_map(
        ops in proptest::collection::vec((any::<u32>(), 0u32..8, any::<bool>()), 0..600),
        probes in proptest::collection::vec((any::<u32>(), 0u32..8, any::<bool>()), 0..60),
    ) {
        let sym = |raw: u32, value: bool| if value {
            Symbol::value(ValueId(raw))
        } else {
            Symbol::elem(xseq_xml::Designator(raw))
        };
        let mut paths = PathTable::new();
        let mut reference: HashMap<(PathId, Symbol), PathId> = HashMap::new();
        let mut keys = vec![(PathId::ROOT, Symbol::from_raw(u32::MAX))];
        for (parent, raw, value) in ops {
            let key = (PathId(parent % paths.len() as u32), sym(raw, value));
            let next = PathId(keys.len() as u32);
            let want = *reference.entry(key).or_insert(next);
            if want == next {
                keys.push(key);
            }
            prop_assert_eq!(paths.extend(key.0, key.1), want);
        }
        prop_assert_eq!(paths.len(), keys.len());
        for (id, &(parent, last)) in keys.iter().enumerate().skip(1) {
            let p = PathId(id as u32);
            prop_assert_eq!((paths.parent(p), paths.last(p)), (parent, Some(last)));
            prop_assert_eq!(paths.child(parent, last), Some(p));
        }
        for (parent, raw, value) in probes {
            // parents past the table included: those have no children
            let key = (PathId(parent % (2 * paths.len() as u32)), sym(raw, value));
            prop_assert_eq!(paths.child(key.0, key.1), reference.get(&key).copied());
        }
    }
}
