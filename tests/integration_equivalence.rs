//! Full-stack query equivalence: generated corpora, XPath front end,
//! both sequencing strategies, checked against the brute-force oracle —
//! at one shard and at three, traced and untraced: the one query pipeline
//! under the oracle on both of its data axes.

use rand::rngs::StdRng;
use rand::SeedableRng;
use xseq::datagen::{
    random_query_tree, SyntheticDataset, SyntheticParams, XmarkGenerator, XmarkOptions,
};
use xseq::xml::matcher::structure_match;
use xseq::xml::Symbol;
use xseq::{
    parse_xpath_readonly, Axis, Corpus, DatabaseBuilder, DocId, Document, PatternLabel, Sequencing,
    TraceConfig, TreePattern, ValueMode,
};

/// The shard counts every corpus is indexed at.
const SHARDS: [usize; 2] = [1, 3];

fn oracle(pattern: &TreePattern, docs: &[Document]) -> Vec<u32> {
    docs.iter()
        .enumerate()
        .filter(|(_, d)| structure_match(pattern, d))
        .map(|(i, _)| i as u32)
        .collect()
}

/// Turns a sampled subtree into an exact child-axis pattern.
fn pattern_of(doc: &Document) -> TreePattern {
    pattern_in(doc, |sym| sym)
}

/// [`pattern_of`] with every symbol passed through `bind` first — e.g.
/// re-interned into the tables a database resolves patterns against.
fn pattern_in(doc: &Document, mut bind: impl FnMut(Symbol) -> Symbol) -> TreePattern {
    let root = doc.root().expect("non-empty");
    let mut label = |d: &Document, n: u32| {
        let sym = bind(d.sym(n));
        match (sym.as_elem(), sym.as_value()) {
            (Some(e), _) => PatternLabel::Elem(e),
            (_, Some(v)) => PatternLabel::Value(v),
            _ => unreachable!(),
        }
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
fn synthetic_corpus_random_queries_match_oracle() {
    let params = SyntheticParams {
        max_height: 4,
        max_fanout: 3,
        value_pct: 25,
        identical_pct: 30,
        prob_floor_pct: 30,
    };
    for sequencing in [Sequencing::DepthFirst, Sequencing::Probability] {
        for shards in SHARDS {
            let mut corpus = Corpus::new(ValueMode::Intern);
            let ds = SyntheticDataset::generate(&params, 120, 17, &mut corpus.symbols);
            corpus.docs = ds.docs;
            let docs_copy = corpus.docs.clone();
            let symbols = corpus.symbols.clone();
            let mut db = DatabaseBuilder::new()
                .sequencing(sequencing)
                .shards(shards)
                .build_from_corpus(corpus)
                .unwrap();

            let mut rng = StdRng::seed_from_u64(5);
            for i in 0..60 {
                let src = &docs_copy[i % docs_copy.len()];
                let tree = random_query_tree(src, 2 + i % 5, &mut rng);
                // `query_pattern` resolves labels against shard 0's tables,
                // which match the corpus' own only at one shard.
                let q = pattern_in(&tree, |sym| {
                    let to = &mut db.corpus_mut().symbols;
                    match (sym.as_elem(), sym.as_value()) {
                        (Some(e), _) => to.elem(symbols.name(e)),
                        (_, Some(v)) => to.val(symbols.values.resolve(v).expect("interned")),
                        _ => unreachable!(),
                    }
                });
                let got = db.query_pattern(&q).docs;
                let expect = oracle(&pattern_of(&tree), &docs_copy);
                assert_eq!(got, expect, "{sequencing:?} {shards} shard(s) query #{i}");
                assert!(
                    got.contains(&((i % docs_copy.len()) as u32)),
                    "source doc matches itself"
                );
            }
        }
    }
}

#[test]
fn xmark_corpus_xpath_queries_match_oracle() {
    let mut corpus = Corpus::new(ValueMode::Intern);
    corpus.docs =
        XmarkGenerator::new(23, XmarkOptions::default()).generate(300, &mut corpus.symbols);
    let docs_copy = corpus.docs.clone();
    let build = |shards: usize, traced: bool| {
        let mut builder = DatabaseBuilder::new()
            .sequencing(Sequencing::Probability)
            .shards(shards);
        if traced {
            builder = builder.trace_config(TraceConfig::default());
        }
        let mut corpus = Corpus::new(ValueMode::Intern);
        corpus.docs =
            XmarkGenerator::new(23, XmarkOptions::default()).generate(300, &mut corpus.symbols);
        builder.build_from_corpus(corpus).unwrap()
    };

    let queries = [
        "/site/item",
        "/site//location[text='United States']",
        "//person/profile/interest",
        "//item[location='Germany']/mailbox/mail",
        "/site/open_auction[bidder/increase='5.00']",
        "//closed_auction[seller][buyer]",
        "/site/*/age",
        "//bidder[date][personref]",
    ];
    for shards in SHARDS {
        let (untraced, traced) = (build(shards, false), build(shards, true));
        for expr in queries {
            let pattern = parse_xpath_readonly(expr, &corpus.symbols).unwrap();
            // An unknown symbol proves the answer empty.
            let expect = pattern.map_or_else(Vec::new, |p| oracle(&p, &docs_copy));
            let plain = untraced.query_xpath_full(expr).unwrap();
            assert_eq!(plain.docs, expect, "{expr} at {shards} shard(s)");
            assert!(plain.trace.is_none());
            // Tracing observes the pipeline; it must not change what it does.
            let observed = traced.query_xpath_full(expr).unwrap();
            assert_eq!(observed.docs, expect, "{expr} traced at {shards} shard(s)");
            assert_eq!(observed.stats.search, plain.stats.search, "{expr}");
            assert!(observed.trace.is_some());
            // The pre-built-pattern entry (bound to shard 0's tables) takes
            // the same gather.
            let bound = parse_xpath_readonly(expr, &untraced.corpus().symbols).unwrap();
            let got = bound.map_or_else(Vec::new, |p| untraced.query_pattern(&p).docs);
            assert_eq!(got, expect, "{expr} as a pattern");
        }
    }
}

#[test]
fn strategies_agree_with_each_other() {
    let params = SyntheticParams {
        max_height: 3,
        max_fanout: 4,
        value_pct: 30,
        identical_pct: 50,
        prob_floor_pct: 40,
    };
    let mut c1 = Corpus::new(ValueMode::Intern);
    let ds = SyntheticDataset::generate(&params, 150, 99, &mut c1.symbols);
    c1.docs = ds.docs.clone();
    let mut c2 = Corpus::new(ValueMode::Intern);
    let _ds2 = SyntheticDataset::generate(&params, 150, 99, &mut c2.symbols);
    c2.docs = ds.docs;

    let df = DatabaseBuilder::new()
        .sequencing(Sequencing::DepthFirst)
        .build_from_corpus(c1)
        .unwrap();
    let cs = DatabaseBuilder::new()
        .sequencing(Sequencing::Probability)
        .build_from_corpus(c2)
        .unwrap();

    let mut rng = StdRng::seed_from_u64(31);
    let docs: Vec<Document> = (0..df.len() as DocId)
        .map(|g| df.document(g).expect("every document is live"))
        .collect();
    for i in 0..40 {
        let src = &docs[(i * 7) % docs.len()];
        let qt = random_query_tree(src, 2 + i % 6, &mut rng);
        let q1 = pattern_of(&qt);
        let a = df.query_pattern(&q1).docs;
        let b = cs.query_pattern(&q1).docs;
        assert_eq!(a, b, "query #{i}");
    }
}
