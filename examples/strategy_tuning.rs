//! Strategy tuning: how sequencing choices change index size — the paper's
//! Section 5 story on a synthetic dataset.
//!
//! ```sh
//! cargo run --release --example strategy_tuning
//! ```
//!
//! Builds the same dataset under random, breadth-first, depth-first and
//! probability-ordered (CS) sequencing, reports trie sizes, and then shows
//! the `w(C)` weight mechanism (Eq. 6) pulling a selective element to the
//! front of the sequences.

use xseq::datagen::{SyntheticDataset, SyntheticParams};
use xseq::index::XmlIndex;
use xseq::schema::{ProbabilityModel, WeightMap};
use xseq::sequence::{sequence_document, Sequence, Strategy};
use xseq::{PlanOptions, SymbolTable, ValueMode};

fn main() {
    let params = SyntheticParams::fig14a();
    let n = 20_000;
    let mut symbols = SymbolTable::with_value_mode(ValueMode::Intern);
    let ds = SyntheticDataset::generate(&params, n, 1, &mut symbols);
    println!(
        "dataset {} — {} docs, avg sequence length {:.1}\n",
        ds.name,
        ds.docs.len(),
        ds.avg_len()
    );

    println!("{:<28} {:>12}", "strategy", "trie nodes");
    for (name, strategy) in [
        ("random", Strategy::Random { seed: 99 }),
        ("breadth-first", Strategy::BreadthFirst),
        ("depth-first", Strategy::DepthFirst),
    ] {
        let mut paths = xseq::PathTable::new();
        let index = XmlIndex::build(&ds.docs, &mut paths, strategy, PlanOptions::default());
        println!("{name:<28} {:>12}", index.node_count());
    }
    {
        // the PriorityMap is keyed by path ids: estimate and build must
        // share one PathTable
        let mut paths = xseq::PathTable::new();
        let model = ProbabilityModel::estimate(&ds.docs, &mut paths, 2000);
        let strategy = Strategy::Probability(model.priorities(&paths, &WeightMap::default()));
        let index = XmlIndex::build(&ds.docs, &mut paths, strategy, PlanOptions::default());
        println!(
            "{:<28} {:>12}",
            "constraint (probability)",
            index.node_count()
        );
    }

    // --- the tunable weight mechanism -------------------------------------
    println!("\nweight tuning: boost a rare-but-queried path to the sequence front");
    let doc = &ds.docs[0];
    let mut paths = xseq::PathTable::new();
    let model = ProbabilityModel::estimate(&ds.docs, &mut paths, 2000);

    let plain = Strategy::Probability(model.priorities(&paths, &WeightMap::default()));
    let seq_plain = sequence_document(doc, &mut paths, &plain);

    // boost the least probable path of this document
    let enc = doc.path_encode(&mut paths);
    let rare = enc
        .iter()
        .copied()
        .min_by(|a, b| {
            model
                .root_probability(*a)
                .partial_cmp(&model.root_probability(*b))
                .expect("probabilities are finite")
        })
        .expect("document is non-empty");
    let mut w = WeightMap::default();
    w.set(rare, 10_000.0);
    let boosted = Strategy::Probability(model.priorities(&paths, &w));
    let seq_boosted = sequence_document(doc, &mut paths, &boosted);

    let position = |seq: &Sequence| {
        seq.elems()
            .iter()
            .position(|&p| p == rare)
            .expect("`rare` was picked from this document's own paths")
    };
    let (pos_plain, pos_boosted) = (position(&seq_plain), position(&seq_boosted));
    println!("  rare path position without boost: {pos_plain}");
    println!("  rare path position with boost:    {pos_boosted}");
    assert!(pos_boosted <= pos_plain);
    println!("\n(earlier position = smaller search space for queries on that path)");
}
