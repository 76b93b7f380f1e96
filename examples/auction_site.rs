//! Auction-site scenario: the paper's XMark workload end to end.
//!
//! ```sh
//! cargo run --release --example auction_site
//! ```
//!
//! Generates XMark-shaped substructure records (items, persons, open and
//! closed auctions), indexes them with probability-ordered constraint
//! sequences, runs the paper's Table 4 queries, and shows the disk-access
//! accounting of the paged index (Table 7's metric).

use xseq::datagen::{queries, XmarkGenerator, XmarkOptions};
use xseq::index::{tree_search, QuerySequence, XmlIndex};
use xseq::schema::{ProbabilityModel, WeightMap};
use xseq::sequence::Strategy;
use xseq::storage::{write_paged_trie, MemStore, PagedTrie};
use xseq::{parse_xpath_readonly, Corpus, PlanOptions, ValueMode};

fn main() {
    let n = 20_000;
    let mut corpus = Corpus::new(ValueMode::Intern);
    let mut gen = XmarkGenerator::new(42, XmarkOptions::default());
    corpus.docs = gen.generate(n, &mut corpus.symbols);
    println!(
        "generated {} XMark substructure records, {} nodes total",
        corpus.len(),
        corpus.total_nodes()
    );

    // probability model sampled from the data (Section 5.2)
    let model = ProbabilityModel::estimate(&corpus.docs, &mut corpus.paths, 2000);
    let strategy = Strategy::Probability(model.priorities(&corpus.paths, &WeightMap::default()));
    let index = XmlIndex::build(
        &corpus.docs,
        &mut corpus.paths,
        strategy,
        PlanOptions::default(),
    );
    println!("index: {} trie nodes\n", index.node_count());

    // serialize to the paged layout for I/O accounting
    let mut store = MemStore::new();
    let pages = write_paged_trie(index.trie(), &mut store).expect("a MemStore write cannot fail");
    let paged = PagedTrie::open(store, 256).expect("the header was just written");
    println!("paged index: {pages} pages of 4 KiB\n");

    for (name, expr) in queries::XMARK_QUERIES {
        println!("{name}: {expr}");
        let parsed = parse_xpath_readonly(expr, &corpus.symbols);
        let Some(pattern) = parsed.expect("the built-in XMark queries parse") else {
            // The query names a symbol no document holds.
            println!("  result size   0   (provably empty: an unknown symbol)");
            continue;
        };
        let t0 = std::time::Instant::now();
        let outcome = index.query(&pattern, &corpus.paths);
        let elapsed = t0.elapsed();

        // replay the same query against the paged index, cold
        paged.reset_pool();
        let concrete =
            xseq::index::instantiate(&pattern, &corpus.paths, index.data_paths(), index.options());
        let mut disk_docs = Vec::new();
        for qdoc in &concrete {
            let qs = QuerySequence::from_document_readonly(qdoc, &corpus.paths, index.strategy())
                .expect("instantiation yields only indexed paths");
            let (docs, _) = tree_search(&paged, &qs);
            disk_docs.extend(docs);
        }
        disk_docs.sort_unstable();
        disk_docs.dedup();
        assert_eq!(disk_docs, outcome.docs, "paged and in-memory answers agree");

        println!(
            "  result size {:3}   time {:?}   disk accesses {}",
            outcome.docs.len(),
            elapsed,
            paged.pool_stats().misses
        );
    }
}
