//! Bibliography scenario: DBLP-shaped records, sequence index vs the
//! classical baselines (Table 8's comparison).
//!
//! ```sh
//! cargo run --release --example bibliography
//! ```

use std::time::Instant;
use xseq::baselines::{NodeIndex, PathIndex, VistIndex};
use xseq::datagen::{queries, DblpGenerator};
use xseq::index::XmlIndex;
use xseq::schema::{ProbabilityModel, WeightMap};
use xseq::sequence::Strategy;
use xseq::{parse_xpath_readonly, Corpus, PlanOptions, ValueMode};

fn main() {
    let n = 50_000;
    let mut corpus = Corpus::new(ValueMode::Intern);
    corpus.docs = DblpGenerator::new(7).generate(n, &mut corpus.symbols);
    let avg = corpus.total_nodes() as f64 / corpus.len() as f64;
    println!(
        "generated {} DBLP-shaped records, avg {avg:.1} nodes/record\n",
        corpus.len()
    );

    // build all four engines over the same corpus
    let t = Instant::now();
    let path_idx = PathIndex::build(&corpus.docs, &mut corpus.paths);
    println!(
        "path index (DataGuide-like): {} distinct paths, built in {:?}",
        path_idx.path_count(),
        t.elapsed()
    );

    let t = Instant::now();
    let node_idx = NodeIndex::build(&corpus.docs);
    println!(
        "node index (XISS-like):      {} label entries, built in {:?}",
        node_idx.entry_count(),
        t.elapsed()
    );

    let t = Instant::now();
    let vist = VistIndex::build(&corpus.docs, &mut corpus.paths);
    println!(
        "ViST (DF sequences):         {} trie nodes, built in {:?}",
        vist.node_count(),
        t.elapsed()
    );

    let t = Instant::now();
    let model = ProbabilityModel::estimate(&corpus.docs, &mut corpus.paths, 2000);
    let strategy = Strategy::Probability(model.priorities(&corpus.paths, &WeightMap::default()));
    let cs = XmlIndex::build(
        &corpus.docs,
        &mut corpus.paths,
        strategy,
        PlanOptions::default(),
    );
    println!(
        "CS (constraint sequences):   {} trie nodes, built in {:?}\n",
        cs.node_count(),
        t.elapsed()
    );

    println!(
        "{:<4} {:>8} {:>12} {:>12} {:>12} {:>12}",
        "", "results", "paths(ms)", "nodes(ms)", "vist(ms)", "cs(ms)"
    );
    for (name, expr) in queries::DBLP_QUERIES {
        let parsed = parse_xpath_readonly(expr, &corpus.symbols);
        let Some(pattern) = parsed.expect("the built-in DBLP queries parse") else {
            // The query names a symbol no record holds.
            println!("{name:<4} {:>8}   (provably empty: an unknown symbol)", 0);
            continue;
        };

        let t = Instant::now();
        let (r1, _) = path_idx.query(&pattern, &corpus.docs, &corpus.paths);
        let t1 = t.elapsed();

        let t = Instant::now();
        let (r2, _) = node_idx.query(&pattern, &corpus.docs);
        let t2 = t.elapsed();

        let t = Instant::now();
        let (r3, _) = vist.query(&pattern, &corpus.docs, &mut corpus.paths);
        let t3 = t.elapsed();

        let t = Instant::now();
        let r4 = cs.query(&pattern, &corpus.paths).docs;
        let t4 = t.elapsed();

        assert_eq!(r1, r2);
        assert_eq!(r2, r3);
        assert_eq!(r3, r4);
        println!(
            "{:<4} {:>8} {:>12.3} {:>12.3} {:>12.3} {:>12.3}   {}",
            name,
            r4.len(),
            t1.as_secs_f64() * 1e3,
            t2.as_secs_f64() * 1e3,
            t3.as_secs_f64() * 1e3,
            t4.as_secs_f64() * 1e3,
            expr
        );
    }
    println!("\nall four engines returned identical answers for every query");
}
