//! The emitter against the selector it replaced.
//!
//! Until ROADMAP item 2 the `Random` / `Probability` emitter was the
//! recursive selection below: rescan the available nodes for the best one
//! (`better`), find identical siblings by scanning the parent's child list
//! (`has_identical_sibling`), look priorities up in hash tables, compute the
//! per-document subtree minima up front.  It was cubic in fan-out.  It is
//! also the plainest statement of Algorithm 2's order, so it stays here as
//! the oracle: the emitter must return its order element for element, on
//! every tree, priority table and seed.  Arbitrary tables are not monotone
//! along parent paths, so they take the heap; the priorities a database
//! estimates are, so they take the one-sort-per-frame path, and those are
//! generated from trees here too.

use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use xseq_sequence::{
    decode_f2, emit_sequence, validate_f2, PriorityMap, ProbabilityModel, Strategy as SeqStrategy,
    WeightMap,
};
use xseq_xml::{parse_document, Document, NodeId, PathId, PathTable, SymbolTable, ValueMode};

/// The hash-table form of a [`PriorityMap`].
#[derive(Debug, Default)]
struct RefPriorities {
    map: HashMap<PathId, f64>,
    default: f64,
    contiguous: HashSet<PathId>,
    block: HashMap<PathId, f64>,
}

fn reference_order(doc: &Document, enc: &[PathId], strategy: &RefStrategy) -> Vec<NodeId> {
    match strategy {
        RefStrategy::Random { seed } => {
            let pri: Vec<f64> = (0..doc.len() as u64)
                .map(|n| splitmix64(seed.wrapping_add(0x9e37_79b9).wrapping_mul(31) ^ n) as f64)
                .collect();
            emit_with_priority_grouped(doc, enc, &|n| pri[n as usize], &|_| false, &|_| None)
        }
        RefStrategy::Probability(r) => emit_with_priority_grouped(
            doc,
            enc,
            &|n| r.map.get(&enc[n as usize]).copied().unwrap_or(r.default),
            &|p| r.contiguous.contains(&p),
            &|p| r.block.get(&p).copied(),
        ),
    }
}

enum RefStrategy {
    Random { seed: u64 },
    Probability(RefPriorities),
}

fn has_identical_sibling(doc: &Document, n: NodeId) -> bool {
    match doc.parent(n) {
        None => false,
        Some(p) => doc
            .children(p)
            .iter()
            .any(|&s| s != n && doc.sym(s) == doc.sym(n)),
    }
}

fn emit_with_priority_grouped(
    doc: &Document,
    enc: &[PathId],
    priority: &dyn Fn(NodeId) -> f64,
    contiguous: &dyn Fn(PathId) -> bool,
    block_priority: &dyn Fn(PathId) -> Option<f64>,
) -> Vec<NodeId> {
    let mut minp = vec![f64::INFINITY; doc.len()];
    for &n in doc.preorder().iter().rev() {
        let mut m = priority(n);
        for &c in doc.children(n) {
            m = m.min(minp[c as usize]);
        }
        minp[n as usize] = m;
    }
    let eff = move |c: NodeId| {
        if has_identical_sibling(doc, c) || contiguous(enc[c as usize]) {
            block_priority(enc[c as usize]).unwrap_or(minp[c as usize])
        } else {
            priority(c)
        }
    };
    let mut out = Vec::with_capacity(doc.len());
    let root = doc.root().expect("recipes build non-empty trees");
    emit_subtree(doc, enc, &eff, contiguous, root, &mut out);
    out
}

fn emit_subtree(
    doc: &Document,
    enc: &[PathId],
    priority: &dyn Fn(NodeId) -> f64,
    contiguous: &dyn Fn(PathId) -> bool,
    root: NodeId,
    out: &mut Vec<NodeId>,
) {
    out.push(root);
    // `avail`: nodes of this subtree whose parent is already emitted.
    let mut avail: Vec<NodeId> = doc.children(root).to_vec();
    while !avail.is_empty() {
        let mut best = 0;
        for i in 1..avail.len() {
            if better(enc, priority, avail[i], avail[best]) {
                best = i;
            }
        }
        let c = avail.swap_remove(best);
        if has_identical_sibling(doc, c) || contiguous(enc[c as usize]) {
            emit_subtree(doc, enc, priority, contiguous, c, out);
        } else {
            out.push(c);
            avail.extend_from_slice(doc.children(c));
        }
    }
}

/// Strict "a should be emitted before b" ordering.
fn better(enc: &[PathId], priority: &dyn Fn(NodeId) -> f64, a: NodeId, b: NodeId) -> bool {
    let (pa, pb) = (priority(a), priority(b));
    if pa != pb {
        return pa > pb;
    }
    let (ea, eb) = (enc[a as usize], enc[b as usize]);
    if ea != eb {
        return ea < eb;
    }
    a < b
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A recipe for a random tree.  Node `i` (1-based) hangs under an earlier
/// node: one of the first `hubs` nodes two times in three — so a few nodes
/// collect dozens of children — and any earlier node otherwise.  Labels come
/// from a small alphabet, so identical-sibling groups appear at every depth
/// and one path occurs under several parents, with a twin under some and
/// alone under others.
#[derive(Debug, Clone)]
struct TreeRecipe {
    parents: Vec<u32>,
    labels: Vec<u8>,
    alphabet: u8,
    hubs: u32,
}

fn tree_recipe() -> impl Strategy<Value = TreeRecipe> {
    (1..120usize, 1..7u8, 1..5u32).prop_flat_map(|(n, alphabet, hubs)| {
        (
            proptest::collection::vec(any::<u32>(), n),
            proptest::collection::vec(any::<u8>(), n + 1),
        )
            .prop_map(move |(parents, labels)| TreeRecipe {
                parents,
                labels,
                alphabet,
                hubs,
            })
    })
}

fn build(recipe: &TreeRecipe) -> Document {
    let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
    let syms: Vec<_> = (0..recipe.alphabet)
        .map(|i| st.elem(&format!("e{i}")))
        .collect();
    let lab = |i: usize| syms[(recipe.labels[i] % recipe.alphabet) as usize];
    let mut doc = Document::with_root(lab(0));
    for i in 1..=recipe.parents.len() {
        let pick = recipe.parents[i - 1];
        let among = if pick.is_multiple_of(3) {
            i as u32
        } else {
            recipe.hubs.min(i as u32)
        };
        doc.child((pick / 3) % among, lab(i));
    }
    doc
}

/// Priorities with many ties, both zeros and a negative value.
const PALETTE: [f64; 8] = [0.0, -0.0, 0.25, 0.25, 0.5, 1.0, 1e-9, -1.0];

/// Builds one priority table in both forms from per-path `genes`.  A gene
/// decides whether the path has a priority and which, whether it is a group
/// path, and whether it has a block priority (absent ones exercise the
/// per-document fallback).  Only ids below `covered` get entries at all, so
/// the rest read past the end of the dense tables.
fn priorities(genes: &[u16], default: f64, covered: usize) -> (PriorityMap, RefPriorities) {
    let mut dense = PriorityMap::new(default);
    let mut reference = RefPriorities {
        default,
        ..Default::default()
    };
    for id in 0..covered as u32 {
        let (p, g) = (PathId(id), genes[id as usize % genes.len()]);
        if g & 1 != 0 {
            let v = PALETTE[(g >> 1) as usize % 8];
            dense.insert(p, v);
            reference.map.insert(p, v);
        }
        if g & 16 != 0 {
            dense.mark_contiguous(p);
            reference.contiguous.insert(p);
        }
        if g & 32 != 0 {
            let v = PALETTE[(g >> 6) as usize % 8];
            dense.set_block_priority(p, v);
            reference.block.insert(p, v);
        }
    }
    (dense, reference)
}

/// `emit_sequence` returns the reference's order, and the sequence is a
/// valid `f2` sequence of the document (Theorem 1 round trip).
fn check(
    doc: &Document,
    enc: &[PathId],
    paths: &mut PathTable,
    strategy: &SeqStrategy,
    reference: &RefStrategy,
) -> Result<(), TestCaseError> {
    let (seq, order) = emit_sequence(doc, enc, strategy);
    prop_assert_eq!(&order, &reference_order(doc, enc, reference));
    let by_path: Vec<PathId> = order.iter().map(|&n| enc[n as usize]).collect();
    prop_assert_eq!(seq.elems(), &by_path[..]);
    prop_assert!(validate_f2(&seq, paths).is_ok());
    prop_assert!(decode_f2(&seq, paths).is_ok_and(|back| back.structurally_eq(doc)));
    Ok(())
}

/// The hash-table form of a map over the first `paths` path ids — every
/// path the documents checked against it are encoded with.
fn reference_of(map: &PriorityMap, paths: usize) -> RefPriorities {
    let mut reference = RefPriorities::default();
    for p in (0..paths as u32).map(PathId) {
        reference.map.insert(p, map.get(p));
        if map.is_contiguous(p) {
            reference.contiguous.insert(p);
        }
        if let Some(v) = map.block_priority(p) {
            reference.block.insert(p, v);
        }
    }
    reference
}

/// The same priorities without the monotone declaration, which sends the
/// emitter down the heap.
fn heap_twin(map: &PriorityMap) -> PriorityMap {
    let mut twin = map.clone();
    twin.insert(PathId::ROOT, map.get(PathId::ROOT));
    assert!(!twin.is_monotone(), "a write withdraws the declaration");
    twin
}

/// Estimates priorities on the first `sampled` documents (encoding them),
/// weighted by `weights`, then encodes the rest — their new paths are
/// unseen and read 0.0 — and checks every document against the reference
/// selector and the two emitters against each other.
fn check_estimated(
    docs: &[Document],
    sampled: usize,
    weights: &WeightMap,
) -> Result<PriorityMap, TestCaseError> {
    let mut paths = PathTable::new();
    let model = ProbabilityModel::estimate(&docs[..sampled], &mut paths, 0);
    let map = model.priorities(&paths, weights);
    let encs: Vec<Vec<PathId>> = docs.iter().map(|d| d.path_encode(&mut paths)).collect();
    let (strategy, heap) = (
        SeqStrategy::Probability(map.clone()),
        SeqStrategy::Probability(heap_twin(&map)),
    );
    for (doc, enc) in docs.iter().zip(&encs) {
        let reference = RefStrategy::Probability(reference_of(&map, paths.len()));
        check(doc, enc, &mut paths, &strategy, &reference)?;
        prop_assert_eq!(
            emit_sequence(doc, enc, &heap).1,
            emit_sequence(doc, enc, &strategy).1
        );
    }
    Ok(map)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn probability_emitter_is_the_reference_selector(
        recipe in tree_recipe(),
        genes in proptest::collection::vec(any::<u16>(), 1..48),
        default in 0..8usize,
        covered in 0..160usize,
    ) {
        let doc = build(&recipe);
        let mut paths = PathTable::new();
        let enc = doc.path_encode(&mut paths);
        let (dense, reference) = priorities(&genes, PALETTE[default], covered % (paths.len() + 8));
        check(
            &doc,
            &enc,
            &mut paths,
            &SeqStrategy::Probability(dense),
            &RefStrategy::Probability(reference),
        )?;
    }

    #[test]
    fn random_emitter_is_the_reference_selector(recipe in tree_recipe(), seed in any::<u64>()) {
        let doc = build(&recipe);
        let mut paths = PathTable::new();
        let enc = doc.path_encode(&mut paths);
        check(
            &doc,
            &enc,
            &mut paths,
            &SeqStrategy::Random { seed },
            &RefStrategy::Random { seed },
        )?;
    }

    /// The priorities a database estimates are monotone and take the sort
    /// path: group paths (identical siblings under a small alphabet), keys
    /// tied across many paths (a few documents give a few fractions) and
    /// paths no sampled document has.
    #[test]
    fn estimated_priorities_sort_as_the_reference_selects(
        recipes in proptest::collection::vec(tree_recipe(), 1..6),
        sampled in 0..6usize,
    ) {
        let docs: Vec<Document> = recipes.iter().map(build).collect();
        let map = check_estimated(&docs, sampled.min(docs.len()), &WeightMap::default())?;
        prop_assert!(map.is_monotone(), "w ≡ 1 never rises from parent to child");
    }

    /// Boosts may break monotonicity; whichever emitter a boosted map
    /// takes, it returns the reference's order.
    #[test]
    fn boosted_priorities_emit_as_the_reference_selects(
        recipes in proptest::collection::vec(tree_recipe(), 1..6),
        boosts in proptest::collection::vec((0..64u32, 0..4usize), 1..4),
    ) {
        let docs: Vec<Document> = recipes.iter().map(build).collect();
        let mut weights = WeightMap::default();
        for (p, w) in boosts {
            weights.set(PathId(p), [0.0, 0.5, 2.0, 8.0][w]);
        }
        check_estimated(&docs, docs.len(), &weights)?;
    }
}

/// `r(a(b), a(b), c)`, boosted at `r.a.b`: the boost lifts the leaf above
/// its parent, so the map is not monotone and the heap emits, matching the
/// reference.
#[test]
fn a_boost_above_the_parent_takes_the_heap() {
    let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
    let doc = parse_document("<r><a><b/></a><a><b/></a><c/></r>", &mut st).unwrap();
    let mut paths = PathTable::new();
    let model = ProbabilityModel::estimate(std::slice::from_ref(&doc), &mut paths, 0);
    let (r, a, b) = (st.elem("r"), st.elem("a"), st.elem("b"));
    let mut weights = WeightMap::default();
    weights.set(paths.lookup(&[r, a, b]).unwrap(), 3.0);
    assert!(model
        .priorities(&paths, &WeightMap::default())
        .is_monotone());
    assert!(!model.priorities(&paths, &weights).is_monotone());
    check_estimated(std::slice::from_ref(&doc), 1, &weights).unwrap();
}

/// A star of 32 000 children (distinct names, or one name with a value
/// under each) emits by sort within the wide-document bound of
/// `tests/integration_wide.rs`, and as the heap does: the reference
/// selector is quadratic in fan-out, so the heap is the oracle here.
#[test]
fn a_star_of_32_000_children_sorts_within_the_wide_document_bound() {
    const CHILDREN: usize = 32_000;
    const BOUND: Duration = Duration::from_secs(60);
    for distinct_names in [true, false] {
        let mut xml = String::from("<r>");
        for i in 0..CHILDREN {
            if distinct_names {
                let _ = write!(xml, "<n{i}/>");
            } else {
                let _ = write!(xml, "<e>{i}</e>");
            }
        }
        xml.push_str("</r>");
        let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
        let doc = parse_document(&xml, &mut st).unwrap();
        let mut paths = PathTable::new();
        let model = ProbabilityModel::estimate(std::slice::from_ref(&doc), &mut paths, 0);
        let map = model.priorities(&paths, &WeightMap::default());
        assert!(map.is_monotone());
        let enc = doc.path_encode(&mut paths);
        let t0 = Instant::now();
        let (seq, order) = emit_sequence(&doc, &enc, &SeqStrategy::Probability(map.clone()));
        let took = t0.elapsed();
        assert!(took < BOUND, "a star took {took:?} to emit");
        assert_eq!(seq.len(), doc.len());
        let heap = emit_sequence(&doc, &enc, &SeqStrategy::Probability(heap_twin(&map)));
        assert_eq!(order, heap.1, "distinct names {distinct_names}");
    }
}

/// `r(d(l, l), d(l))`: the path `r.d.l` is a block under the first `d` (it
/// has a twin) and a singleton under the second.  With no dictionary block
/// priority the first takes the per-document fallback.
#[test]
fn one_path_is_a_block_under_one_parent_and_a_singleton_under_another() {
    let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
    let (r, d, l, x) = (st.elem("r"), st.elem("d"), st.elem("l"), st.elem("x"));
    let mut doc = Document::with_root(r);
    let d1 = doc.child(0, d);
    let d2 = doc.child(0, d);
    for parent in [d1, d1, d2] {
        let leaf = doc.child(parent, l);
        doc.child(leaf, x);
    }
    let mut paths = PathTable::new();
    let enc = doc.path_encode(&mut paths);
    for genes in [[0b0_0111u16], [0b1_0111], [0b10_0111], [0]] {
        let (dense, reference) = priorities(&genes, 0.5, paths.len());
        check(
            &doc,
            &enc,
            &mut paths,
            &SeqStrategy::Probability(dense),
            &RefStrategy::Probability(reference),
        )
        .unwrap();
    }
}
