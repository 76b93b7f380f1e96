//! Cross-engine agreement: the path index, node index, ViST baseline and
//! the constraint-sequence index answer every query identically over a
//! DBLP-shaped corpus — including the paper's Table 8 queries.

use rand::rngs::StdRng;
use rand::SeedableRng;
use xseq::baselines::{NodeIndex, PathIndex, VistIndex};
use xseq::datagen::{queries, random_query_tree, DblpGenerator};
use xseq::index::XmlIndex;
use xseq::schema::{ProbabilityModel, WeightMap};
use xseq::sequence::Strategy;
use xseq::xml::matcher::structure_match;
use xseq::{
    parse_xpath_readonly, Axis, Corpus, Document, PatternLabel, PlanOptions, SymbolTable,
    TreePattern, ValueMode,
};

/// A Table 8 query parsed against the corpus's own tables; `None` (a
/// symbol no record holds) proves its answer empty.
fn table8_query(expr: &str, symbols: &SymbolTable) -> Option<TreePattern> {
    parse_xpath_readonly(expr, symbols).expect("Table 8 queries parse")
}

fn pattern_of(doc: &Document) -> TreePattern {
    let root = doc.root().expect("non-empty");
    let label = |d: &Document, n: u32| match (d.sym(n).as_elem(), d.sym(n).as_value()) {
        (Some(e), _) => PatternLabel::Elem(e),
        (_, Some(v)) => PatternLabel::Value(v),
        _ => unreachable!(),
    };
    let mut q = TreePattern::root(label(doc, root));
    let mut map = vec![0u32; doc.len()];
    for n in doc.preorder() {
        if n == root {
            continue;
        }
        let p = doc.parent(n).expect("non-root");
        map[n as usize] = q.add(map[p as usize], Axis::Child, label(doc, n));
    }
    q
}

#[test]
fn four_engines_agree_on_dblp() {
    let mut corpus = Corpus::new(ValueMode::Intern);
    corpus.docs = DblpGenerator::new(12).generate(800, &mut corpus.symbols);

    let path_idx = PathIndex::build(&corpus.docs, &mut corpus.paths);
    let node_idx = NodeIndex::build(&corpus.docs);
    let vist = VistIndex::build(&corpus.docs, &mut corpus.paths);
    let model = ProbabilityModel::estimate(&corpus.docs, &mut corpus.paths, 0);
    let strategy = Strategy::Probability(model.priorities(&corpus.paths, &WeightMap::default()));
    let cs = XmlIndex::build(
        &corpus.docs,
        &mut corpus.paths,
        strategy,
        PlanOptions::default(),
    );

    // the paper's Table 8 queries
    let mut patterns: Vec<(String, TreePattern)> = Vec::new();
    for (name, expr) in queries::DBLP_QUERIES {
        let p = table8_query(expr, &corpus.symbols).expect("this corpus names every symbol");
        patterns.push((format!("{name}: {expr}"), p));
    }
    // plus random exact patterns from the data
    let mut rng = StdRng::seed_from_u64(2);
    for i in 0..30 {
        let src = corpus.docs[(i * 17) % corpus.docs.len()].clone();
        let q = pattern_of(&random_query_tree(&src, 2 + i % 5, &mut rng));
        patterns.push((format!("random #{i}"), q));
    }

    for (name, q) in &patterns {
        let oracle: Vec<u32> = corpus
            .docs
            .iter()
            .enumerate()
            .filter(|(_, d)| structure_match(q, d))
            .map(|(i, _)| i as u32)
            .collect();
        let (a, _) = path_idx.query(q, &corpus.docs, &corpus.paths);
        let (b, _) = node_idx.query(q, &corpus.docs);
        let (c, _) = vist.query(q, &corpus.docs, &mut corpus.paths);
        let d = cs.query(q, &corpus.paths).docs;
        assert_eq!(a, oracle, "path index disagrees on {name}");
        assert_eq!(b, oracle, "node index disagrees on {name}");
        assert_eq!(c, oracle, "vist disagrees on {name}");
        assert_eq!(d, oracle, "cs disagrees on {name}");
    }
}

#[test]
fn table8_queries_have_sensible_selectivities() {
    let mut corpus = Corpus::new(ValueMode::Intern);
    corpus.docs = DblpGenerator::new(5).generate(3000, &mut corpus.symbols);
    let model = ProbabilityModel::estimate(&corpus.docs, &mut corpus.paths, 0);
    let strategy = Strategy::Probability(model.priorities(&corpus.paths, &WeightMap::default()));
    let cs = XmlIndex::build(
        &corpus.docs,
        &mut corpus.paths,
        strategy,
        PlanOptions::default(),
    );
    // Q1 is broad (every inproceedings has a title); Q2 is narrow
    let results = |expr| {
        table8_query(expr, &corpus.symbols).map_or(0, |q| cs.query(&q, &corpus.paths).docs.len())
    };
    let r1 = results(queries::DBLP_Q1);
    let r2 = results(queries::DBLP_Q2);
    let r4 = results(queries::DBLP_Q4);
    assert!(r1 > 1000, "Q1 is broad, got {r1}");
    assert!(r2 < 50, "Q2 is selective, got {r2}");
    assert!(r4 > 0, "David authors exist, got {r4}");
}
