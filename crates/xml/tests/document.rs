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
//! * A [`PathColumn`] holds documents as their path encodings, and
//!   [`Document::from_path_encoding`] decodes every preorder document back
//!   column for column — the empty one, random ones, generated ones and the
//!   star below.  [`Document::into_preorder`] lays any other arena out in
//!   preorder, keeping the tree and its child order.
//! * No bulk builder reaches the O(n) `add_child`: a 200 000-node star goes
//!   through `decode_f2`, `parse_document` and the path-column decoder well
//!   inside a stated bound.

use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};
use xseq_datagen::{DblpGenerator, SyntheticDataset, SyntheticParams};
use xseq_datagen::{XmarkGenerator, XmarkOptions};
use xseq_sequence::{decode_f2, Sequence};
use xseq_xml::{parse_document, write_document, Document, NodeId, PathColumn, PathId, PathTable};
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

/// A random tree whose arena is in preorder: node `i ≥ 1` hangs under one
/// of the nodes on the path from the root to node `i − 1`.
fn preorder_columns(max_nodes: usize) -> impl Strategy<Value = (Vec<Symbol>, Vec<NodeId>)> {
    columns(max_nodes).prop_map(|(sym, raw)| {
        let mut open: Vec<NodeId> = Vec::new();
        let parent = (raw.iter().enumerate())
            .map(|(i, &r)| {
                let up = match open.len() {
                    0 => Document::NO_PARENT,
                    depth => {
                        open.truncate(1 + r as usize % depth);
                        open[open.len() - 1]
                    }
                };
                open.push(i as NodeId);
                up
            })
            .collect();
        (sym, parent)
    })
}

/// Encodes `docs` in order into one column against one table, and asserts
/// that each slice is the document's own encoding and decodes back to it.
fn assert_the_column_decodes(docs: &[Document]) {
    let (mut paths, mut reference) = (PathTable::new(), PathTable::new());
    let mut column = PathColumn::default();
    for (d, doc) in docs.iter().enumerate() {
        assert_eq!(column.push(doc, &mut paths), d as u32);
    }
    assert_eq!(column.len(), docs.len());
    for ((d, doc), enc) in docs.iter().enumerate().zip(column.iter()) {
        assert_eq!(enc, doc.path_encode(&mut reference));
        assert_eq!(column.get(d as u32), Some(enc));
        assert_eq!(
            Document::from_path_encoding(enc, &paths).as_ref(),
            Some(doc)
        );
    }
    assert_eq!(column.get(docs.len() as u32), None);
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
        assert_eq!(&doc.clone().into_preorder(), doc, "already in preorder");
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
    fn path_columns_decode_to_their_documents(
        cols in vec(preorder_columns(48), 0..6),
        empty_at in any::<usize>(),
    ) {
        let mut docs: Vec<Document> = cols
            .into_iter()
            .map(|(sym, parent)| Document::from_parents(sym, parent).expect("topological"))
            .collect();
        assert_arena_is_preorder(&docs);
        docs.insert(empty_at % (docs.len() + 1), Document::new());
        assert_the_column_decodes(&docs);
    }

    #[test]
    fn into_preorder_lays_out_the_same_tree(cols in columns(48)) {
        let (sym, parent) = cols;
        let doc = Document::from_parents(sym, parent).expect("topological");
        let laid = doc.clone().into_preorder();
        prop_assert!(laid.structurally_eq(&doc));
        assert_arena_is_preorder(std::slice::from_ref(&laid));
        // node i of the layout is the i-th node of the original's preorder,
        // so labels and child order are kept
        let order = doc.preorder();
        for (i, &n) in order.iter().enumerate() {
            prop_assert_eq!(laid.sym(i as NodeId), doc.sym(n));
            let up = laid.parent(i as NodeId).map(|p| order[p as usize]);
            prop_assert_eq!(up, doc.parent(n));
        }
        assert_the_column_decodes(&[laid]);
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
        assert_the_column_decodes(&docs);
    }
}

#[test]
fn columns_that_encode_no_preorder_document_decode_to_none() {
    let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
    let (r, a, b) = (st.elem("r"), st.elem("a"), st.elem("b"));
    let mut paths = PathTable::new();
    let [pr, pa, pb, pab] = [&[r][..], &[r, a], &[r, b], &[r, a, b]].map(|p| paths.intern(p));
    let decode = |enc: &[PathId]| Document::from_path_encoding(enc, &paths);
    assert!(decode(&[pr, pa, pab, pb]).is_some());
    for bad in [
        &[pr, pr][..],      // a second root
        &[pa],              // a root of depth 2
        &[PathId::ROOT],    // the empty path
        &[pr, pab],         // a node two levels below the open ones
        &[pr, pa, pb, pab], // `r/a/b` under `r/b`
        &[pr, PathId(99)],  // an id the table never minted
    ] {
        assert_eq!(decode(bad), None, "{bad:?}");
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

    let mut column = PathColumn::default();
    column.push(&parsed, &mut paths);
    let t0 = Instant::now();
    let from_column = column
        .get(0)
        .and_then(|enc| Document::from_path_encoding(enc, &paths));
    let from_column_time = t0.elapsed();

    assert_eq!(decoded.children(0).len(), STAR - 1);
    assert_eq!(parsed, decoded);
    assert_eq!(from_column.as_ref(), Some(&parsed));
    eprintln!(
        "{STAR}-node star: decode_f2 {decode:?}, parse_document {parse:?}, \
         from_path_encoding {from_column_time:?}"
    );
    assert!(
        decode < BOUND && parse < BOUND && from_column_time < BOUND,
        "decode_f2 {decode:?}, parse_document {parse:?}, from_path_encoding {from_column_time:?}"
    );
}
