//! The run-metrics surface of one pipeline run, end to end.
//!
//! The counter-backed sections are deltas of process-global counters, so
//! a test running lookups on another thread of the same process would
//! bleed into the exact counts asserted here. A test binary of its own
//! keeps the process to this run.

use fuzzydedup_core::{CutSpec, DedupConfig, DedupError, DedupOutcome, Deduplicator};
use fuzzydedup_textdist::DistanceKind;

fn music_records() -> Vec<Vec<String>> {
    [
        ["The Doors", "LA Woman"],
        ["Doors", "LA Woman"],
        ["The Beatles", "A Little Help from My Friends"],
        ["Beatles, The", "With A Little Help From My Friend"],
        ["Shania Twain", "Im Holdin on to Love"],
        ["Twian, Shania", "I'm Holding On To Love"],
        ["Aaliyah", "Are You Ready"],
        ["AC DC", "Are You Ready"],
        ["Bob Dylan", "Are You Ready"],
        ["Creed", "Are You Ready"],
    ]
    .iter()
    .map(|r| r.iter().map(|s| s.to_string()).collect())
    .collect()
}

fn dedup(records: &[Vec<String>], config: &DedupConfig) -> Result<DedupOutcome, DedupError> {
    Deduplicator::new(config.clone()).run_records(records)
}

#[test]
fn run_metrics_populated_end_to_end() {
    // Counter-backed sections are process-global; serialize against
    // other tests that increment or reset the same counters.
    let _serial = fuzzydedup_metrics::serial_guard();
    let config = DedupConfig::new(DistanceKind::FuzzyMatch)
        .cut(CutSpec::Size(4))
        .sn_threshold(4.0)
        .via_tables(true);
    let outcome = dedup(&music_records(), &config).unwrap();
    let m = &outcome.metrics;
    // nnindex: one combined lookup per tuple, candidates verified with
    // exact distance calls, postings scanned through the pool.
    assert_eq!(m.nnindex.lookups, 10);
    assert!(m.nnindex.candidates_generated > 0);
    assert_eq!(m.nnindex.exact_distance_calls, m.nnindex.candidates_generated);
    assert!(m.nnindex.postings_scanned > 0);
    // cand_gen: generation is counted; fms admits no q-gram bound, so
    // the pruning filters must not have fired.
    assert!(m.cand_gen.generated > 0);
    assert_eq!(m.cand_gen.pruned_by_length, 0);
    assert_eq!(m.cand_gen.pruned_by_count, 0);
    // textdist: the verification distance calls are attributed per kind.
    assert!(m.textdist.total() >= m.nnindex.exact_distance_calls);
    // storage: index lookups and Phase-2 tables hit the buffer pool.
    assert!(m.storage.hits + m.storage.misses > 0);
    assert!((0.0..=1.0).contains(&m.storage.hit_ratio));
    // phase1: probe telemetry mirrors the exact Phase1Stats; the
    // sequential drive reports one worker.
    assert_eq!(m.phase1.tuples, 10);
    assert_eq!(m.phase1.index_probes, outcome.phase1_stats.lookups);
    assert_eq!(m.phase1.threads, 1);
    // phase2 (via tables): rows were unnested, pairs materialized,
    // sort and join passes ran, and the CSPairs graph decomposed into
    // components (singletons included, so ≥ the duplicate groups).
    assert!(m.phase2.unnested_rows > 0);
    assert!(m.phase2.cs_pairs > 0);
    assert!(m.phase2.sort_passes > 0);
    assert!(m.phase2.join_passes > 0);
    assert!(m.phase2.components > 0);
    // timings: stages measured and rolled into the total.
    assert!(m.timings.phase1_ns > 0);
    assert!(m.timings.total_ns >= m.timings.phase1_ns + m.timings.phase2_ns);
    // JSON rendering carries the numbers.
    let json = m.to_json();
    assert!(json.contains("\"lookups\": 10"), "{json}");
    assert!(json.contains("\"tuples\": 10"), "{json}");
    assert!(json.contains("\"components\""), "{json}");
}
