//! Unit tests of the probability model ([`crate::schema`]), kept at the
//! crate root so that the suite names them `tests::*`.
#![cfg(test)]

use crate::schema::{ProbabilityModel, SchemaTree, WeightMap};
use xseq_xml::{Document, PathId, PathTable, Symbol, SymbolTable, ValueMode};

fn fixture() -> (SymbolTable, PathTable) {
    (
        SymbolTable::with_value_mode(ValueMode::Intern),
        PathTable::new(),
    )
}

fn path(st: &mut SymbolTable, pt: &mut PathTable, spec: &str) -> PathId {
    let syms: Vec<Symbol> = spec
        .split('.')
        .map(|part| {
            if let Some(v) = part.strip_prefix('\'') {
                st.val(v)
            } else {
                st.elem(part)
            }
        })
        .collect();
    pt.intern(&syms)
}

#[test]
fn figure13_chain_rule() {
    // Figure 12 conditionals: p(R|P)=0.9 (per Fig 13: p(R|root)=0.9),
    // p(U|R)=0.8, p(M|U)=0.8, p(L|R)=0.4, p(v3|L)=0.1, p(v1|P)=0.001,
    // p(v2|M)=0.001.
    let (mut st, mut pt) = fixture();
    let p = path(&mut st, &mut pt, "P");
    let pr = path(&mut st, &mut pt, "P.R");
    let pru = path(&mut st, &mut pt, "P.R.U");
    let prum = path(&mut st, &mut pt, "P.R.U.M");
    let prl = path(&mut st, &mut pt, "P.R.L");
    let prlv3 = path(&mut st, &mut pt, "P.R.L.'v3");
    let pv1 = path(&mut st, &mut pt, "P.'v1");
    let prumv2 = path(&mut st, &mut pt, "P.R.U.M.'v2");

    let mut schema = SchemaTree::new();
    schema.set_cond(p, 1.0);
    schema.set_cond(pr, 0.9);
    schema.set_cond(pru, 0.8);
    schema.set_cond(prum, 0.8);
    schema.set_cond(prl, 0.4);
    schema.set_cond(prlv3, 0.1);
    schema.set_cond(pv1, 0.001);
    schema.set_cond(prumv2, 0.001);

    // Figure 13's derived values.
    let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
    assert!(close(schema.root_probability(&pt, p), 1.0));
    assert!(close(schema.root_probability(&pt, pr), 0.9));
    assert!(
        close(schema.root_probability(&pt, pru), 0.72),
        "p(U|root) = 0.8 × 0.9 = 0.72 by the chain rule (Fig. 13 prints 0.8)"
    );
    assert!(close(schema.root_probability(&pt, prl), 0.36));
    assert!(close(schema.root_probability(&pt, prlv3), 0.036));
    assert!(close(schema.root_probability(&pt, pv1), 0.001));
    // p(M|root) = 0.8 × 0.72; p(v2|root) = 0.001 × that
    assert!(close(schema.root_probability(&pt, prum), 0.576));
    assert!(close(schema.root_probability(&pt, prumv2), 0.000576));
}

#[test]
fn priorities_follow_weights() {
    let (mut st, mut pt) = fixture();
    let pa = path(&mut st, &mut pt, "P.A");
    let pb = path(&mut st, &mut pt, "P.B");
    let p = path(&mut st, &mut pt, "P");

    let mut schema = SchemaTree::new();
    schema.set_cond(p, 1.0);
    schema.set_cond(pa, 0.9);
    schema.set_cond(pb, 0.5);

    let pm = schema.priorities(&pt, &WeightMap::default());
    assert!(pm.get(pa) > pm.get(pb));

    // Boosting B (frequently queried, highly selective) flips the order.
    let mut w = WeightMap::default();
    w.set(pb, 10.0);
    let pm = schema.priorities(&pt, &w);
    assert!(pm.get(pb) > pm.get(pa));
}

#[test]
fn estimation_counts_document_fractions() {
    let (mut st, mut pt) = fixture();
    let a = st.elem("a");
    let b = st.elem("b");
    let c = st.elem("c");
    // 4 docs: all have root a; 2 have child b; 1 has child c.
    let mut docs = Vec::new();
    for i in 0..4 {
        let mut d = Document::with_root(a);
        let r = d.root().unwrap();
        if i < 2 {
            d.child(r, b);
        }
        if i == 0 {
            d.child(r, c);
        }
        docs.push(d);
    }
    let model = ProbabilityModel::estimate(&docs, &mut pt, 0);
    let pa = pt.lookup(&[a]).unwrap();
    let pab = pt.lookup(&[a, b]).unwrap();
    let pac = pt.lookup(&[a, c]).unwrap();
    assert_eq!(model.sample_size(), 4);
    assert_eq!(model.root_probability(pa), 1.0);
    assert_eq!(model.root_probability(pab), 0.5);
    assert_eq!(model.root_probability(pac), 0.25);
    assert_eq!(model.path_count(), 3);
}

#[test]
#[expect(clippy::integer_division_remainder_used, reason = "test data cycles by literals")]
fn estimation_parent_ge_child() {
    // The monotonicity Algorithm 2 relies on: a parent's probability is
    // at least as high as any child's.
    let (mut st, mut pt) = fixture();
    let a = st.elem("a");
    let b = st.elem("b");
    let c = st.elem("c");
    let mut docs = Vec::new();
    for i in 0..10 {
        let mut d = Document::with_root(a);
        let r = d.root().unwrap();
        if i % 2 == 0 {
            let bn = d.child(r, b);
            if i % 4 == 0 {
                d.child(bn, c);
            }
        }
        docs.push(d);
    }
    let model = ProbabilityModel::estimate(&docs, &mut pt, 0);
    for p in pt.iter().skip(1) {
        let parent = pt.parent(p);
        if parent != PathId::ROOT {
            assert!(
                model.root_probability(parent) >= model.root_probability(p),
                "monotonicity violated"
            );
        }
    }
}

#[test]
fn sampling_cap_is_respected_and_deterministic() {
    let (mut st, mut pt) = fixture();
    let a = st.elem("a");
    let docs: Vec<Document> = (0..100).map(|_| Document::with_root(a)).collect();
    let m1 = ProbabilityModel::estimate(&docs, &mut pt, 10);
    let m2 = ProbabilityModel::estimate(&docs, &mut pt, 10);
    assert!(m1.sample_size() <= 10);
    assert_eq!(m1.sample_size(), m2.sample_size());
    let pa = pt.lookup(&[a]).unwrap();
    assert_eq!(m1.root_probability(pa), 1.0);
}

#[test]
fn unseen_paths_have_zero_probability() {
    let (mut st, mut pt) = fixture();
    let a = st.elem("a");
    let z = st.elem("z");
    let docs = vec![Document::with_root(a)];
    let model = ProbabilityModel::estimate(&docs, &mut pt, 0);
    let paz = pt.intern(&[a, z]);
    assert_eq!(model.root_probability(paz), 0.0);
}

#[test]
fn value_distribution_is_the_second_factor() {
    // Paper: p(C=v1|P) combines existence probability and value
    // distribution. Counting concrete value paths gives exactly that.
    let (mut st, mut pt) = fixture();
    let a = st.elem("a");
    let l = st.elem("l");
    let mut docs = Vec::new();
    for i in 0..10 {
        let mut d = Document::with_root(a);
        let r = d.root().unwrap();
        let ln = d.child(r, l);
        // value exists in 10/10 docs; 'x' in 8, 'y' in 2
        let v = if i < 8 { st.val("x") } else { st.val("y") };
        d.child(ln, v);
        docs.push(d);
    }
    let model = ProbabilityModel::estimate(&docs, &mut pt, 0);
    let x = st.val("x");
    let y = st.val("y");
    let alx = pt.lookup(&[a, l, x]).unwrap();
    let aly = pt.lookup(&[a, l, y]).unwrap();
    assert!((model.root_probability(alx) - 0.8).abs() < 1e-12);
    assert!((model.root_probability(aly) - 0.2).abs() < 1e-12);
}

#[test]
fn weight_map_defaults() {
    let w = WeightMap::default();
    assert_eq!(w.get(PathId(5)), 1.0);
}

#[test]
#[should_panic(expected = "probability out of range")]
fn schema_rejects_bad_probability() {
    let mut schema = SchemaTree::new();
    schema.set_cond(PathId(1), 1.5);
}
