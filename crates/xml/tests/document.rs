//! Oracles for the column layout of [`Document`] and for path encoding in
//! arena order.
//!
//! * [`Document::from_parents`] builds exactly the document
//!   [`Document::add_child`] builds appending the same nodes one by one, and
//!   answers a parent column that is not topological, or not as long as the
//!   label column, with `NodeOutOfBounds`.
//! * [`Document::path_encode`] walks the arena, not a preorder traversal.
//!   Wherever the arena *is* in preorder — every parsed document and the
//!   output of all three generators, which is checked here too — it mints
//!   the ids the preorder reference encoder kept below mints, in the same
//!   order, so the path table and every id the index holds are unchanged.
//! * No bulk builder reaches the O(n) `add_child`: a 200 000-node star goes
//!   through `decode_f2` and `parse_document` well inside a stated bound.

use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};
use xseq_datagen::{DblpGenerator, SyntheticDataset, SyntheticParams};
use xseq_datagen::{XmarkGenerator, XmarkOptions};
use xseq_sequence::{decode_f2, Sequence};
use xseq_xml::{parse_document, write_document, Document, NodeId, PathId, PathTable};
use xseq_xml::{Symbol, SymbolTable, ValueMode, XmlError};

/// A random tree in arena order: node `i ≥ 1` hangs under `raw[i − 1] % i`,
/// labelled by one of eight element and eight value symbols.
fn columns(max_nodes: usize) -> impl Strategy<Value = (Vec<Symbol>, Vec<NodeId>)> {
    (1..max_nodes).prop_flat_map(|n| {
        (vec(any::<u32>(), n - 1), vec(any::<u8>(), n)).prop_map(|(raw, labels)| {
            let sym = labels
                .iter()
                .map(|&b| Symbol::from_raw(u32::from(b % 8) | (u32::from(b & 8) << 28)))
                .collect();
            let parent = std::iter::once(Document::NO_PARENT)
                .chain(raw.iter().zip(1..).map(|(&p, i)| p % i))
                .collect();
            (sym, parent)
        })
    })
}

/// The same columns appended one node at a time.
fn incremental(sym: &[Symbol], parent: &[NodeId]) -> Document {
    let mut doc = Document::with_root(sym[0]);
    for (i, (&s, &p)) in sym.iter().zip(parent).enumerate().skip(1) {
        assert_eq!(doc.add_child(p, s), Ok(i as NodeId));
    }
    doc
}

/// Path encoding as it was before it walked the arena: a preorder walk.
fn preorder_reference(doc: &Document, paths: &mut PathTable) -> Vec<PathId> {
    let mut out = vec![PathId::ROOT; doc.len()];
    for n in doc.preorder() {
        let up = doc.parent(n).map_or(PathId::ROOT, |p| out[p as usize]);
        out[n as usize] = paths.extend(up, doc.sym(n));
    }
    out
}

/// Encodes `docs` in order into two fresh tables, in arena order and
/// through the reference, and asserts that every encoding and the two
/// tables' ids, `ending_in` chains and child lists are equal.
fn assert_arena_order_encodes_as_preorder(docs: &[Document]) {
    let (mut arena, mut reference) = (PathTable::new(), PathTable::new());
    for doc in docs {
        let enc = doc.path_encode(&mut arena);
        assert_eq!(enc, preorder_reference(doc, &mut reference));
        assert_eq!(doc.path_encode_readonly(&arena), Some(enc));
    }
    assert_eq!(arena.len(), reference.len());
    let syms: BTreeSet<Symbol> = docs
        .iter()
        .flat_map(|d| d.node_ids().map(|n| d.sym(n)))
        .collect();
    for &s in &syms {
        assert!(arena.ending_in(s).eq(reference.ending_in(s)));
    }
    for p in arena.iter() {
        assert!(arena.children(p).eq(reference.children(p)));
    }
}

fn assert_arena_is_preorder(docs: &[Document]) {
    for doc in docs {
        assert_eq!(doc.preorder(), doc.node_ids().collect::<Vec<_>>());
    }
}

/// Documents of all three generators, against one symbol table.
fn generated(st: &mut SymbolTable) -> Vec<Vec<Document>> {
    let synthetic = [
        SyntheticParams::fig14a(),
        SyntheticParams::fig14b(),
        SyntheticParams::fig16(),
    ]
    .map(|params| SyntheticDataset::generate(&params, 150, 3, st).docs);
    let mut sets = Vec::from(synthetic);
    sets.push(XmarkGenerator::new(1, XmarkOptions::default()).generate(300, st));
    sets.push(DblpGenerator::new(1).generate(300, st));
    sets
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn from_parents_is_the_incremental_build(cols in columns(48)) {
        let (sym, parent) = cols;
        let one_by_one = incremental(&sym, &parent);
        let bulk = Document::from_parents(sym, parent).expect("a topological column");
        prop_assert_eq!(bulk.len(), one_by_one.len());
        for n in bulk.node_ids() {
            prop_assert_eq!(bulk.sym(n), one_by_one.sym(n));
            prop_assert_eq!(bulk.parent(n), one_by_one.parent(n));
            prop_assert_eq!(bulk.children(n), one_by_one.children(n));
            let scan: Vec<NodeId> = bulk.node_ids().filter(|&c| bulk.parent(c) == Some(n)).collect();
            prop_assert_eq!(bulk.children(n), &scan[..]);
        }
        prop_assert_eq!(bulk, one_by_one);
    }

    #[test]
    fn bad_parent_columns_are_out_of_bounds(
        cols in columns(24),
        at in any::<u32>(),
        kind in 0u8..4,
    ) {
        let (mut sym, mut parent) = cols;
        let node = match kind {
            // a node hangs under itself, a later node or NO_PARENT
            1 if parent.len() > 1 => {
                let i = 1 + at as usize % (parent.len() - 1);
                let bad = [i as NodeId, i as NodeId + 1 + at % 64, Document::NO_PARENT];
                parent[i] = bad[at as usize % 3];
                parent[i]
            }
            // the root's entry names a node
            0 | 1 => {
                parent[0] = at % 64;
                parent[0]
            }
            // one column is a node short
            2 => {
                parent.pop();
                parent.len() as NodeId
            }
            _ => {
                sym.push(sym[0]);
                parent.len() as NodeId
            }
        };
        prop_assert_eq!(Document::from_parents(sym, parent), Err(XmlError::NodeOutOfBounds { node }));
    }

    #[test]
    fn parsed_arenas_are_in_preorder_and_encode_as_preorder(
        cols in vec(columns(32), 1..6),
        chars in any::<bool>(),
    ) {
        // Random columns are rarely in preorder; written out and parsed back
        // they are, in either value representation.
        let mode = if chars { ValueMode::Chars } else { ValueMode::Intern };
        let mut st = SymbolTable::with_value_mode(mode);
        let elems: Vec<Symbol> = (0..8).map(|i| st.elem(&format!("e{i}"))).collect();
        let vals: Vec<Symbol> = (0..8).map(|i| st.val(&format!("v {i}"))).collect();
        let parsed: Vec<Document> = cols
            .iter()
            .map(|(sym, parent)| {
                // values become leaves under elements, as the writer needs
                let relabel = |n: usize, s: Symbol| {
                    let k = (s.raw() & 7) as usize;
                    let is_leaf = !parent.iter().any(|&p| p as usize == n);
                    if s.is_value() && is_leaf && n > 0 { vals[k] } else { elems[k] }
                };
                let sym = sym.iter().enumerate().map(|(n, &s)| relabel(n, s)).collect();
                let doc = Document::from_parents(sym, parent.clone()).expect("topological");
                parse_document(&write_document(&doc, &st), &mut st).expect("well-formed")
            })
            .collect();
        assert_arena_is_preorder(&parsed);
        assert_arena_order_encodes_as_preorder(&parsed);
    }

    #[test]
    fn any_arena_order_encodes_every_node_by_its_path(cols in columns(48)) {
        let (sym, parent) = cols;
        // Off preorder the minting order may differ, never a node's path.
        let doc = Document::from_parents(sym, parent).expect("topological");
        let (mut arena, mut reference) = (PathTable::new(), PathTable::new());
        let enc = doc.path_encode(&mut arena);
        let reference_enc = preorder_reference(&doc, &mut reference);
        prop_assert_eq!(arena.len(), reference.len());
        for n in doc.node_ids() {
            let (a, r) = (enc[n as usize], reference_enc[n as usize]);
            prop_assert_eq!(arena.symbols(a), reference.symbols(r));
        }
    }
}

#[test]
fn generated_arenas_are_in_preorder_and_encode_as_preorder() {
    let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
    for docs in generated(&mut st) {
        assert_arena_is_preorder(&docs);
        assert_arena_order_encodes_as_preorder(&docs);
    }
}

/// Children under the one root.
const STAR: usize = 200_000;

/// Linear, `decode_f2` and the parser take ≈ 0.2 s / 0.1 s on the star in
/// a debug build and ≈ 12 ms / 8 ms in a release one (x86-64, 2 cores).
/// Through `add_child`, which shifts ≈ 2·10¹⁰ row offsets for it, decoding
/// took 151 s and 4.9 s.
const BOUND: Duration = if cfg!(debug_assertions) {
    Duration::from_secs(10)
} else {
    Duration::from_secs(1)
};

#[test]
fn a_200_000_node_star_decodes_and_parses_in_linear_time() {
    let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
    let (r, a) = (st.elem("r"), st.elem("a"));
    let mut paths = PathTable::new();
    let (pr, pa) = (paths.intern(&[r]), paths.intern(&[r, a]));
    let star = Sequence(
        std::iter::once(pr)
            .chain(std::iter::repeat_n(pa, STAR - 1))
            .collect(),
    );
    let t0 = Instant::now();
    let decoded = decode_f2(&star, &paths).expect("a star is a constraint sequence");
    let decode = t0.elapsed();

    let xml = format!("<r>{}</r>", "<a/>".repeat(STAR - 1));
    let t0 = Instant::now();
    let parsed = parse_document(&xml, &mut st).expect("well-formed");
    let parse = t0.elapsed();

    assert_eq!(decoded.children(0).len(), STAR - 1);
    assert_eq!(parsed, decoded);
    eprintln!("{STAR}-node star: decode_f2 {decode:?}, parse_document {parse:?}");
    assert!(
        decode < BOUND && parse < BOUND,
        "decode_f2 {decode:?}, parse_document {parse:?}"
    );
}
