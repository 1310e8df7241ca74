//! Criterion bench: Phase 2 partitioning — the in-memory greedy scan on
//! a 10k-record Org corpus, plus the SQL-shaped relational path and the
//! single-linkage baseline on a smaller corpus for context.
//!
//! Emits `results/BENCH_phase2.json`; the bench-regression gate
//! (`ci_bench_gate`) watches every row for slowdowns.
//!
//! Phase 1 (index build + NN materialization) runs once as setup; the
//! measured region is exactly the partitioning work. Phase 2 is a small
//! share of an end-to-end run, which is why it stays sequential
//! (DESIGN.md §7.4); its end-to-end cost is tracked by the `org_ed`
//! workload of the repository benchmark (`perfbench/`).

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fuzzydedup_core::{
    compute_nn_reln, partition_entries, partition_via_tables, single_linkage, Aggregation, CutSpec,
    NeighborSpec,
};
use fuzzydedup_datagen::{org, DatasetSpec};
use fuzzydedup_nnindex::{InvertedIndex, InvertedIndexConfig, LookupOrder};
use fuzzydedup_storage::{BufferPool, BufferPoolConfig, InMemoryDisk};
use fuzzydedup_textdist::{DistanceKind, EditDistance};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Corpus for the in-memory scan.
const CORPUS: usize = 10_000;

/// Neighbors per NN list: more prefix work per tuple than the default
/// K = 5 cut, so the greedy CS/SN checks dominate.
const K: usize = 8;

fn bench_phase2(c: &mut Criterion) {
    // --- 10k-record Org corpus, Phase 1 once as setup. ---
    let mut rng = StdRng::seed_from_u64(42);
    // ~1.28 records per entity; trim the tail to exactly CORPUS records.
    let dataset = org::generate(&mut rng, DatasetSpec::with_entities(8200));
    let mut records = dataset.records;
    assert!(records.len() >= CORPUS, "need {CORPUS} records, got {}", records.len());
    records.truncate(CORPUS);
    let pool = Arc::new(BufferPool::new(
        BufferPoolConfig::with_capacity(4096),
        Arc::new(InMemoryDisk::new()),
    ));
    let index = InvertedIndex::build(records, EditDistance, pool, InvertedIndexConfig::default());
    let (reln, _) = compute_nn_reln(&index, NeighborSpec::TopK(K), LookupOrder::Sequential, 2.0);
    let cut = CutSpec::Size(K);

    let mut group = c.benchmark_group("phase2");
    group.sample_size(10);
    group.bench_function("seq", |b| {
        b.iter(|| black_box(partition_entries(&reln, cut, Aggregation::Max, 4.0)))
    });

    // --- Context rows on a smaller corpus (the relational path is table
    // I/O bound and would swamp the bench at 10k records). ---
    let mut rng = StdRng::seed_from_u64(5);
    let small = org::generate(&mut rng, DatasetSpec::with_entities(1500));
    let small_records = small.records;
    let small_pool = Arc::new(BufferPool::new(
        BufferPoolConfig::with_capacity(4096),
        Arc::new(InMemoryDisk::new()),
    ));
    let small_index = InvertedIndex::build(
        small_records.clone(),
        DistanceKind::FuzzyMatch.build(&small_records),
        small_pool.clone(),
        InvertedIndexConfig::default(),
    );
    let (small_reln, _) =
        compute_nn_reln(&small_index, NeighborSpec::TopK(5), LookupOrder::breadth_first(), 2.0);
    group.bench_function("via_tables_1500", |b| {
        b.iter(|| {
            black_box(
                partition_via_tables(
                    &small_reln,
                    CutSpec::Size(5),
                    Aggregation::Max,
                    4.0,
                    small_pool.clone(),
                )
                .unwrap(),
            )
        })
    });
    group.bench_function("single_linkage_1500", |b| {
        b.iter(|| black_box(single_linkage(&small_reln, 0.3)))
    });
    group.finish();
}

criterion_group!(benches, bench_phase2);
criterion_main!(benches);
