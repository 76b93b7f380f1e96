//! Criterion ablations for the design choices DESIGN.md calls out:
//!
//! * the sibling-cover constraint check (Algorithm 1) vs naïve matching —
//!   what query equivalence costs at match time;
//! * selectivity-ordered order-free search vs sequence-ordered Algorithm 1;
//! * buffer-pool capacity vs paged-query latency.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xseq::datagen::{SyntheticDataset, SyntheticParams};
use xseq::index::{constraint_search, naive_search, tree_search, QuerySequence, XmlIndex};
use xseq::sequence::{sequence_document, Strategy};
use xseq::storage::{write_paged_trie, MemStore, PagedTrie};
use xseq::{PlanOptions, SymbolTable, ValueMode};

fn setup() -> (xseq::PathTable, XmlIndex, Vec<QuerySequence>) {
    let mut symbols = SymbolTable::with_value_mode(ValueMode::Intern);
    let params = SyntheticParams {
        identical_pct: 25,
        ..SyntheticParams::fig14a()
    };
    let ds = SyntheticDataset::generate(&params, 20_000, 9, &mut symbols);
    let mut paths = xseq::PathTable::new();
    let index = XmlIndex::build(
        &ds.docs,
        &mut paths,
        Strategy::DepthFirst,
        PlanOptions::default(),
    );
    // queries: prefixes of document sequences
    let queries: Vec<QuerySequence> = (0..50)
        .map(|i| {
            let doc = &ds.docs[(i * 401) % ds.docs.len()];
            let seq = sequence_document(doc, &mut paths, &Strategy::DepthFirst);
            let take = 2 + i % 6;
            let q = xseq::Sequence(seq.elems()[..take.min(seq.len())].to_vec());
            QuerySequence::from_sequence(&q, &paths)
        })
        .collect();
    (paths, index, queries)
}

fn bench_matchers(c: &mut Criterion) {
    let (_paths, index, queries) = setup();
    let trie = index.trie();
    let mut group = c.benchmark_group("matcher_ablation");
    group.bench_function("naive_no_constraint_check", |b| {
        b.iter(|| {
            queries
                .iter()
                .map(|q| naive_search(trie, q).0.len())
                .sum::<usize>()
        })
    });
    group.bench_function("algorithm1_sibling_cover", |b| {
        b.iter(|| {
            queries
                .iter()
                .map(|q| constraint_search(trie, q).0.len())
                .sum::<usize>()
        })
    });
    group.bench_function("tree_search_selectivity_ordered", |b| {
        b.iter(|| {
            queries
                .iter()
                .map(|q| tree_search(trie, q).0.len())
                .sum::<usize>()
        })
    });
    group.finish();
}

fn bench_pool_capacity(c: &mut Criterion) {
    let (_paths, index, queries) = setup();
    let mut group = c.benchmark_group("pool_capacity");
    for cap in [8usize, 64, 4096] {
        let mut store = MemStore::new();
        write_paged_trie(index.trie(), &mut store).unwrap();
        let paged = PagedTrie::open(store, cap).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(cap), &paged, |b, paged| {
            b.iter(|| {
                queries
                    .iter()
                    .map(|q| tree_search(paged, q).0.len())
                    .sum::<usize>()
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_matchers, bench_pool_capacity
}
criterion_main!(benches);
