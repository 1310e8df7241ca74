//! Parallel Phase 1: multi-threaded nearest-neighbor materialization.
//!
//! The paper's Phase 1 is a sequential scan in breadth-first order because
//! its win is *buffer locality* against a disk-resident index. When the
//! index is memory-resident (the common modern deployment), Phase 1 is
//! embarrassingly parallel instead: every tuple's NN list is an
//! independent query. [`compute_nn_reln_parallel`] spreads the id space
//! over scoped threads and produces a result *identical* to the
//! sequential computation (the NN lists do not depend on lookup order —
//! the same fact Lemma 1's uniqueness rests on).
//!
//! Phase 1 is the only parallel layer: Phase 2 is a cheap function of
//! `NN_Reln` and runs sequentially (`DESIGN.md` §7.4). Its work-stealing
//! loop (`work_stealing_map`) also drives the incremental refresh.
//!
//! This is an engineering extension beyond the paper; the ablation bench
//! `bench_phase1` quantifies when it pays off.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use fuzzydedup_metrics::{incr, Counter};
use fuzzydedup_nnindex::{LookupCost, LookupSpec, NnIndex, PairDistanceCache};

use crate::nnreln::{NnEntry, NnReln};
use crate::phase1::{NeighborSpec, Phase1Stats};

/// Resolve a thread-count knob against the number of work items: `0`
/// means one thread per available CPU, and the result is clamped to
/// `[1, n_items.max(1)]` so degenerate inputs never over-spawn. Shared by
/// the batch Phase 1 and the incremental refresh.
pub fn resolve_threads(n_threads: usize, n_items: usize) -> usize {
    let threads = if n_threads == 0 {
        std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1)
    } else {
        n_threads
    };
    threads.max(1).min(n_items.max(1))
}

/// Compute one tuple's `NN_Reln` entry (shared by the sequential and
/// parallel drivers) via the index's combined lookup, returning the
/// probe cost the index reports alongside.
pub(crate) fn compute_entry(
    index: &dyn NnIndex,
    spec: NeighborSpec,
    p: f64,
    id: u32,
    cache: Option<&dyn PairDistanceCache>,
) -> (NnEntry, LookupCost) {
    let lookup_spec = match spec {
        NeighborSpec::TopK(k) => LookupSpec::TopK(k),
        NeighborSpec::Radius(theta) => LookupSpec::Radius(theta),
    };
    let (neighbors, ng, cost) = index.lookup_cached(id, lookup_spec, p, cache);
    (NnEntry::new(id, neighbors, ng), cost)
}

/// Compute `NN_Reln` using `n_threads` worker threads (`0` = one per
/// available CPU). Produces exactly the same relation as
/// [`crate::phase1::compute_nn_reln`], with real probe counts summed
/// across workers (`visit_order` stays empty: interleaved parallel
/// lookups have no meaningful single order).
pub fn compute_nn_reln_parallel(
    index: &dyn NnIndex,
    spec: NeighborSpec,
    p: f64,
    n_threads: usize,
) -> (NnReln, Phase1Stats) {
    compute_nn_reln_parallel_cached(index, spec, p, n_threads, None)
}

/// [`compute_nn_reln_parallel`] with an optional shared pair-distance
/// memo. All workers share the same sharded cache; the soundness contract
/// on [`PairDistanceCache`] guarantees the relation is identical with the
/// cache on or off, independent of thread interleaving — only the probe
/// and distance-call *counts* vary.
pub fn compute_nn_reln_parallel_cached(
    index: &dyn NnIndex,
    spec: NeighborSpec,
    p: f64,
    n_threads: usize,
    cache: Option<&dyn PairDistanceCache>,
) -> (NnReln, Phase1Stats) {
    assert!(p >= 1.0, "growth multiplier p must be >= 1, got {p}");
    let n = index.len();
    let (entries, worker_costs) =
        work_stealing_map(n, resolve_threads(n_threads, n), |id, cost: &mut LookupCost| {
            let (entry, entry_cost) = compute_entry(index, spec, p, id as u32, cache);
            cost.absorb(&entry_cost);
            entry
        });
    let mut total = LookupCost::default();
    for cost in &worker_costs {
        total.absorb(cost);
    }
    let reln = NnReln::new(entries);
    let stats = Phase1Stats {
        lookups: total.probes,
        fallback_probes: total.fallback_probes,
        bf_queue_high_water: 0,
        visit_order: Vec::new(),
    };
    (reln, stats)
}

/// Compute `work(i, state)` for every `i` in `0..n` on `threads` scoped
/// workers and return the results in index order, plus each worker's
/// final `state` (a per-worker accumulator, folded by the caller after
/// the join — never shared while the workers run).
///
/// Workers claim fixed blocks of indexes from one shared cursor. Static
/// range sharding strands workers when costs are skewed
/// (duplicate-dense neighborhoods verify far more candidates than sparse
/// ones); the cursor keeps every worker busy until the range drains.
/// ~8 blocks per worker amortizes the cursor contention while leaving
/// enough granules to rebalance; the cap keeps tail blocks short on huge
/// inputs. The result does not depend on which worker claims which block
/// as long as each `work(i, _)` result is independent of the others —
/// true of every `NN_Reln` entry.
pub(crate) fn work_stealing_map<T: Send + Sync, S: Default + Send>(
    n: usize,
    threads: usize,
    work: impl Fn(usize, &mut S) -> T + Sync,
) -> (Vec<T>, Vec<S>) {
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    let block = n.div_ceil(threads * 8).clamp(1, 1024);
    let n_blocks = n.div_ceil(block);
    let next_block = AtomicUsize::new(0);
    let mut states: Vec<S> = (0..threads).map(|_| S::default()).collect();
    std::thread::scope(|scope| {
        for state in states.iter_mut() {
            let (slots, next_block, work) = (&slots, &next_block, &work);
            scope.spawn(move || loop {
                let b = next_block.fetch_add(1, Ordering::Relaxed);
                if b >= n_blocks {
                    break;
                }
                incr(Counter::Phase1StealBlocks, 1);
                let start = b * block;
                let end = (start + block).min(n);
                for (i, slot) in slots.iter().enumerate().take(end).skip(start) {
                    let claimed = slot.set(work(i, state)).is_ok();
                    debug_assert!(claimed, "item {i} computed twice");
                }
            });
        }
    });
    let results = slots.into_iter().map(|s| s.into_inner().expect("all items computed")).collect();
    (results, states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::MatrixIndex;
    use crate::phase1::compute_nn_reln;
    use fuzzydedup_nnindex::LookupOrder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(n: usize, seed: u64) -> MatrixIndex {
        let mut rng = StdRng::seed_from_u64(seed);
        let points: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1000.0)).collect();
        MatrixIndex::from_points_1d(&points)
    }

    #[test]
    fn matches_sequential_for_topk() {
        let idx = random_matrix(200, 1);
        let (seq, seq_stats) =
            compute_nn_reln(&idx, NeighborSpec::TopK(5), LookupOrder::Sequential, 2.0);
        for threads in [1, 2, 4, 0] {
            let (par, stats) = compute_nn_reln_parallel(&idx, NeighborSpec::TopK(5), 2.0, threads);
            assert_eq!(seq, par, "threads={threads}");
            // The same lookups run, whatever the sharding — probe counts
            // must agree with the sequential drive.
            assert_eq!(stats.lookups, seq_stats.lookups, "threads={threads}");
            assert_eq!(stats.fallback_probes, seq_stats.fallback_probes);
            assert!(stats.visit_order.is_empty());
        }
    }

    #[test]
    fn matches_sequential_for_radius() {
        let idx = random_matrix(150, 2);
        let (seq, seq_stats) =
            compute_nn_reln(&idx, NeighborSpec::Radius(20.0), LookupOrder::Sequential, 2.0);
        let (par, stats) = compute_nn_reln_parallel(&idx, NeighborSpec::Radius(20.0), 2.0, 3);
        assert_eq!(seq, par);
        assert_eq!(stats.lookups, seq_stats.lookups);
    }

    #[test]
    fn degenerate_sizes() {
        let idx = random_matrix(1, 3);
        let (par, _) = compute_nn_reln_parallel(&idx, NeighborSpec::TopK(3), 2.0, 8);
        assert_eq!(par.len(), 1);
        let empty = MatrixIndex::new(vec![]);
        let (par, stats) = compute_nn_reln_parallel(&empty, NeighborSpec::TopK(3), 2.0, 4);
        assert!(par.is_empty());
        assert_eq!(stats.lookups, 0);
    }

    #[test]
    fn more_threads_than_items() {
        let idx = random_matrix(3, 4);
        let (par, _) = compute_nn_reln_parallel(&idx, NeighborSpec::TopK(2), 2.0, 64);
        assert_eq!(par.len(), 3);
    }

    #[test]
    #[should_panic(expected = "p must be >= 1")]
    fn bad_p_panics() {
        let idx = random_matrix(4, 5);
        compute_nn_reln_parallel(&idx, NeighborSpec::TopK(2), 0.0, 2);
    }

    #[test]
    fn csr_index_is_parallel_safe() {
        // Bumps the process-global lookup and pair-cache counters: keep
        // clear of the tests that assert exact values of them.
        let _serial = fuzzydedup_metrics::serial_guard();
        // The CSR candidate generator accumulates on a thread-local
        // epoch-stamped scoreboard; parallel workers must produce the
        // byte-identical relation the sequential drive produces.
        use fuzzydedup_nnindex::{InvertedIndex, InvertedIndexConfig};
        use fuzzydedup_storage::{BufferPool, BufferPoolConfig, InMemoryDisk};
        use fuzzydedup_textdist::EditDistance;
        use std::sync::Arc;

        let records: Vec<Vec<String>> = (0..120)
            .map(|i| {
                let s = match i % 3 {
                    0 => format!("customer record number {i:03}"),
                    1 => format!("customer record numbr {i:03}"),
                    _ => format!("unrelated payload {i:03}"),
                };
                vec![s]
            })
            .collect();
        let pool = Arc::new(BufferPool::new(
            BufferPoolConfig::with_capacity(64),
            Arc::new(InMemoryDisk::new()),
        ));
        let idx = InvertedIndex::build(records, EditDistance, pool, InvertedIndexConfig::default());
        for spec in [NeighborSpec::TopK(4), NeighborSpec::Radius(0.2)] {
            let (seq, _) = compute_nn_reln(&idx, spec, LookupOrder::Sequential, 2.0);
            for threads in [2, 4, 0] {
                let (par, _) = compute_nn_reln_parallel(&idx, spec, 2.0, threads);
                assert_eq!(seq, par, "spec={spec:?} threads={threads}");
            }
        }
    }

    #[test]
    fn pair_cache_preserves_determinism_seq_and_par() {
        // Bumps the process-global lookup and pair-cache counters: keep
        // clear of the tests that assert exact values of them.
        let _serial = fuzzydedup_metrics::serial_guard();
        // The soundness contract on `PairDistanceCache`: exact hits carry
        // true distances and `KnownAbove` only skips calls that would be
        // rejected anyway, so the relation must be identical with the
        // cache on or off, sequential or parallel, even though parallel
        // workers race on cache *contents*. Edit distance is the
        // bit-symmetric kernel the cache contract requires.
        use crate::pair_cache::PairCache;
        use fuzzydedup_nnindex::{InvertedIndex, InvertedIndexConfig};
        use fuzzydedup_storage::{BufferPool, BufferPoolConfig, InMemoryDisk};
        use fuzzydedup_textdist::EditDistance;
        use std::sync::Arc;

        let records: Vec<Vec<String>> = (0..120)
            .map(|i| {
                let s = match i % 3 {
                    0 => format!("customer record number {i:03}"),
                    1 => format!("customer record numbr {i:03}"),
                    _ => format!("unrelated payload {i:03}"),
                };
                vec![s]
            })
            .collect();
        let pool = Arc::new(BufferPool::new(
            BufferPoolConfig::with_capacity(64),
            Arc::new(InMemoryDisk::new()),
        ));
        let idx = InvertedIndex::build(records, EditDistance, pool, InvertedIndexConfig::default());
        for spec in [NeighborSpec::TopK(4), NeighborSpec::Radius(0.2)] {
            let (plain, _) = compute_nn_reln(&idx, spec, LookupOrder::Sequential, 2.0);
            // Sequential with a cache: every pair's second verification
            // can hit, and the relation must not move.
            let cache = PairCache::new(1 << 14);
            let (seq_cached, _) = crate::phase1::compute_nn_reln_cached(
                &idx,
                spec,
                LookupOrder::Sequential,
                2.0,
                Some(&cache),
            );
            assert_eq!(plain, seq_cached, "seq cached diverged, spec={spec:?}");
            // Parallel workers sharing one cache: interleaving varies the
            // hit pattern, never the relation. A fresh cache per thread
            // count keeps runs independent.
            for threads in [2, 4, 0] {
                let cache = PairCache::new(1 << 14);
                let (par_cached, _) =
                    compute_nn_reln_parallel_cached(&idx, spec, 2.0, threads, Some(&cache));
                assert_eq!(plain, par_cached, "spec={spec:?} threads={threads}");
                let (par_plain, _) = compute_nn_reln_parallel(&idx, spec, 2.0, threads);
                assert_eq!(plain, par_plain, "spec={spec:?} threads={threads} (no cache)");
            }
        }
    }

    #[test]
    fn tiny_pair_cache_under_heavy_eviction_is_still_sound() {
        // Bumps the process-global lookup and pair-cache counters: keep
        // clear of the tests that assert exact values of them.
        let _serial = fuzzydedup_metrics::serial_guard();
        // A pathologically small cache (64 slots, constant collisions)
        // exercises the overwrite/eviction path on every store; results
        // must still be bit-identical to the uncached drive.
        use crate::pair_cache::PairCache;
        use fuzzydedup_nnindex::{InvertedIndex, InvertedIndexConfig};
        use fuzzydedup_storage::{BufferPool, BufferPoolConfig, InMemoryDisk};
        use fuzzydedup_textdist::EditDistance;
        use std::sync::Arc;

        let records: Vec<Vec<String>> =
            (0..90).map(|i| vec![format!("shared prefix token row {:02}", i % 45)]).collect();
        let pool = Arc::new(BufferPool::new(
            BufferPoolConfig::with_capacity(64),
            Arc::new(InMemoryDisk::new()),
        ));
        let idx = InvertedIndex::build(records, EditDistance, pool, InvertedIndexConfig::default());
        let spec = NeighborSpec::TopK(3);
        let (plain, _) = compute_nn_reln(&idx, spec, LookupOrder::Sequential, 2.0);
        let cache = PairCache::new(1);
        let (cached, _) = crate::phase1::compute_nn_reln_cached(
            &idx,
            spec,
            LookupOrder::Sequential,
            2.0,
            Some(&cache),
        );
        assert_eq!(plain, cached);
    }
}
