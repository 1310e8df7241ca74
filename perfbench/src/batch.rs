//! The batch workloads (`org_ed`, `media_fms_dup`) and the layer-by-layer
//! drive that the service workload's oracle shares.
//!
//! A run holds several corpora generated from its seed and cycles through
//! them, so a median over repetitions averages over several draws of the
//! data as well as over time. The untraced run first drives each corpus
//! layer by layer for the reference partitions, then times
//! `Deduplicator::run_records` — what a user of the batch pipeline calls —
//! for `--seconds`. After each repetition it builds that corpus's index
//! again and times a slice of the point queries against it, so queries and
//! runs sample the same stretch of time. The traced run alternates an untraced and a traced layer-by-layer
//! drive, so the gap between the two is the tracing overhead, and reads
//! per-layer figures off the spans and the `fuzzydedup_metrics` counters.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fuzzydedup_core::{
    compute_nn_reln, evaluate, partition_entries, partition_via_tables, DedupConfig, Deduplicator,
    IndexChoice, NeighborSpec, Partition,
};
use fuzzydedup_metrics::{snapshot, Counter, RunMetrics};
use fuzzydedup_nnindex::{InvertedIndex, InvertedIndexConfig, LookupSpec, NnIndex};
use fuzzydedup_storage::{BufferPool, BufferPoolConfig, InMemoryDisk};
use fuzzydedup_textdist::Distance;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{median, quantile, ratio, Budget, Report, Samples};
use crate::trace::Tracer;
use crate::workload::{batch_config, size_bound, Corpus, Sizes, Workload};

/// Fewest timed repetitions per corpus, however short `--seconds` is.
const MIN_REPS: usize = 2;

/// Mean over corpora of each corpus's median: the medians damp slow
/// stretches of time on the host, the mean over corpora damps the data.
fn per_corpus_mean(values: &[f64], corpus_of: &[usize], corpora: usize) -> f64 {
    let medians = (0..corpora).map(|j| {
        let own: Vec<f64> =
            values.iter().zip(corpus_of).filter(|&(_, &c)| c == j).map(|(&v, _)| v).collect();
        median(&own)
    });
    medians.sum::<f64>() / corpora as f64
}

/// What one layer-by-layer drive produced.
pub struct Layered {
    /// Phase-2 partition of the in-memory path.
    pub partition: Partition,
    /// Partition of the relational oracle over the same `NN_Reln`.
    pub via_tables: Result<Partition, String>,
    /// The index Phase 1 ran against, kept for point queries.
    pub index: InvertedIndex<Box<dyn Distance>>,
    /// Wall time of the blocking steps: fit, build, Phase 1, Phase 2.
    pub blocking_s: f64,
    /// Sum of the blocking steps' spans (0 when untraced).
    pub blocking_spans_s: f64,
}

/// A buffer pool sized as `run_records` sizes its own.
fn new_pool(config: &DedupConfig) -> Arc<BufferPool> {
    Arc::new(BufferPool::new(
        BufferPoolConfig::with_capacity(config.buffer_frames),
        Arc::new(InMemoryDisk::new()),
    ))
}

fn index_config(config: &DedupConfig) -> InvertedIndexConfig {
    match &config.index {
        IndexChoice::Inverted(index_config) => index_config.clone(),
        _ => unreachable!("every workload uses the inverted index"),
    }
}

/// The index `run_records` builds, for point queries.
fn build_index(records: &[Vec<String>], config: &DedupConfig) -> InvertedIndex<Box<dyn Distance>> {
    let distance = config.distance.build(records);
    InvertedIndex::build(records.to_vec(), distance, new_pool(config), index_config(config))
}

/// Drive the pipeline one public layer call at a time: fit the distance,
/// build the index, run Phase 1 sequentially and Phase 2 in memory (the
/// blocking steps), then, outside the blocking window, generate every
/// id's candidates as a side span (traced runs only) and repartition
/// through the relational substrate as an oracle. Per-layer figures go
/// into `samples` when the tracer is on.
pub fn drive_layers(
    records: &[Vec<String>],
    config: &DedupConfig,
    tracer: &mut Tracer,
    samples: &mut Samples,
) -> Layered {
    let n = records.len();
    let root = tracer.start("batch.layers", None);
    let started = Instant::now();
    let fit = tracer.start("textdist.fit", root);
    let distance = config.distance.build(records);
    tracer.end(fit);

    let build = tracer.start("nnindex.build", root);
    let pool = new_pool(config);
    let index =
        InvertedIndex::build(records.to_vec(), distance, pool.clone(), index_config(config));
    tracer.end(build);

    let spec = NeighborSpec::from_cut(&config.cut, n);
    let phase1 = tracer.start("core.phase1", root);
    let before = snapshot();
    let (reln, stats) = compute_nn_reln(&index, spec, config.order, config.p);
    let phase1_counters = snapshot().delta(&before);
    tracer.end(phase1);

    let phase2 = tracer.start("core.phase2", root);
    let partition = partition_entries(&reln, config.cut, config.agg, config.c);
    tracer.end(phase2);
    let blocking_s = started.elapsed().as_secs_f64();

    let candgen = tracer.start("nnindex.candgen", root);
    if tracer.enabled() {
        for id in 0..n as u32 {
            black_box(index.generate_candidates(id));
        }
    }
    tracer.end(candgen);

    let via = tracer.start("relation.via_tables", root);
    let before = snapshot();
    let via_tables = partition_via_tables(&reln, config.cut, config.agg, config.c, pool)
        .map_err(|e| e.to_string());
    let cs_pairs = snapshot().delta(&before).get(Counter::Phase2CsPairs);
    tracer.end(via);
    tracer.end(root);

    let blocking_spans_s = [fit, build, phase1, phase2].iter().map(|&s| tracer.seconds(s)).sum();
    if tracer.enabled() {
        let mut m = RunMetrics::default();
        m.apply_counter_delta(&phase1_counters);
        let entries: usize = reln.entries().iter().map(|e| e.neighbors.len()).sum();
        // Every workload keeps the default packed postings.
        let (_, packed_bytes) = index.postings_bytes();
        samples.push("textdist.fit_s", tracer.seconds(fit));
        samples.push("textdist.evals", m.textdist.total() as f64);
        samples.push("textdist.verify_s", tracer.seconds(phase1) - tracer.seconds(candgen));
        samples.push(
            "edit_kernel.early_exit_ratio",
            ratio(m.edit_kernel.early_exit as f64, m.edit_kernel.bounded as f64),
        );
        samples.push("nnindex.build_s", tracer.seconds(build));
        samples.push("nnindex.postings_bytes", packed_bytes as f64);
        samples.push("nnindex.candgen_s", tracer.seconds(candgen));
        samples.push("nnindex.postings_scanned", m.nnindex.postings_scanned as f64);
        samples.push(
            "nnindex.candidates_kept_ratio",
            ratio(
                m.cand_gen.generated.saturating_sub(m.cand_gen.truncated) as f64,
                m.cand_gen.generated as f64,
            ),
        );
        samples.push(
            "nnindex.verify_yield",
            ratio(entries as f64, m.nnindex.exact_distance_calls as f64),
        );
        samples.push("core.phase1_s", tracer.seconds(phase1));
        samples.push("core.phase1.lookups", stats.lookups as f64);
        samples.push("core.phase2_s", tracer.seconds(phase2));
        samples.push("core.phase2.cs_pairs", cs_pairs as f64);
        samples.push("relation.via_tables_s", tracer.seconds(via));
    }
    Layered { partition, via_tables, index, blocking_s, blocking_spans_s }
}

/// Check a partition: every id in exactly one group, no group above `k`.
pub fn check_partition(report: &mut Report, what: &str, partition: &Partition, n: usize, k: usize) {
    let mut seen = vec![0u32; n];
    let mut oversized = false;
    for group in partition.groups() {
        oversized |= group.len() > k;
        for &id in group {
            if let Some(slot) = seen.get_mut(id as usize) {
                *slot += 1;
            }
        }
    }
    let covered = partition.n() == n && seen.iter().all(|&c| c == 1);
    report.check(&format!("{what}: every id in exactly one group"), covered);
    report.check(&format!("{what}: no group larger than K = {k}"), !oversized);
}

/// Check the relational oracle and the partition shape of a drive.
pub fn check_layered(report: &mut Report, layered: &Layered, n: usize, k: usize) {
    let via_ok = matches!(&layered.via_tables, Ok(p) if *p == layered.partition);
    report.check("partition_via_tables equals partition_entries", via_ok);
    check_partition(report, "layer-by-layer partition", &layered.partition, n, k);
}

/// Point queries against a built index: `count` lookups of uniformly drawn
/// ids with the run's neighbour spec, each timed. Adds the latencies in ms
/// and the summed `LookupCost` to `probes`.
fn point_queries(
    index: &InvertedIndex<Box<dyn Distance>>,
    config: &DedupConfig,
    count: usize,
    rng: &mut StdRng,
    probes: &mut Probes,
    report: &mut Report,
) {
    let n = index.len();
    let spec = match NeighborSpec::from_cut(&config.cut, n) {
        NeighborSpec::TopK(k) => LookupSpec::TopK(k),
        NeighborSpec::Radius(theta) => LookupSpec::Radius(theta),
    };
    for _ in 0..count {
        let id = rng.gen_range(0..n as u32);
        let t = Instant::now();
        let (neighbors, _, cost) = index.lookup(id, spec, config.p);
        probes.latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
        black_box(neighbors);
        report.op_ok();
        probes.candidates += cost.candidates;
        probes.dist_calls += cost.distance_calls;
    }
}

/// Point-query latencies and costs of a run.
#[derive(Default)]
struct Probes {
    latency_ms: Vec<f64>,
    candidates: u64,
    dist_calls: u64,
}

/// Pairwise precision and recall pooled over several corpora: correct,
/// predicted and true pairs are summed before dividing.
pub fn pooled_quality<'a>(
    runs: impl IntoIterator<Item = (&'a Partition, &'a [usize])>,
) -> (f64, f64) {
    let (mut correct, mut predicted, mut truth) = (0u64, 0u64, 0u64);
    for (partition, gold) in runs {
        let pr = evaluate(partition, gold);
        correct += pr.correct_pairs;
        predicted += pr.predicted_pairs;
        truth += pr.true_pairs;
    }
    (ratio(correct as f64, predicted as f64), ratio(correct as f64, truth as f64))
}

/// Run a batch workload over `corpora` for `seconds` and fill `report`.
pub fn run(
    workload: Workload,
    corpora: &[Corpus],
    sizes: &Sizes,
    seed: u64,
    seconds: Duration,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let config = batch_config(workload);
    let k = size_bound(&config);
    let dedup = Deduplicator::new(config.clone());
    let mut samples = Samples::default();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_9e37);
    let mut probes = Probes::default();
    let started = Instant::now();

    if !tracer.enabled() {
        // Only the reference partitions are kept, so the process peak RSS
        // stays that of one pipeline run.
        let reference: Vec<Partition> = corpora
            .iter()
            .map(|corpus| {
                let layered = drive_layers(&corpus.records, &config, tracer, &mut samples);
                report.op_ok();
                check_layered(report, &layered, corpus.records.len(), k);
                layered.partition
            })
            .collect();
        let per_rep = sizes.batch_queries.div_ceil(MIN_REPS * corpora.len());
        let (mut dedup_s, mut setup_s, mut corpus_of) = (Vec::new(), Vec::new(), Vec::new());
        let mut budget = Budget::new(started, seconds, MIN_REPS * corpora.len());
        while budget.another() {
            let j = (budget.done() - 1) % corpora.len();
            let (corpus, reference) = (&corpora[j], &reference[j]);
            let n = corpus.records.len();
            let t = Instant::now();
            let Some(outcome) = report.op("run_records", dedup.run_records(&corpus.records)) else {
                continue;
            };
            dedup_s.push(t.elapsed().as_secs_f64());
            corpus_of.push(j);
            let timings = &outcome.metrics.timings;
            setup_s.push((timings.build_distance_ns + timings.build_index_ns) as f64 / 1e9);
            report.check(
                "run_records partition equals the layer-by-layer partition",
                outcome.partition == *reference,
            );
            check_partition(report, "run_records partition", &outcome.partition, n, k);
            drop(outcome);
            let index = build_index(&corpus.records, &config);
            point_queries(&index, &config, per_rep, &mut rng, &mut probes, report);
        }
        let peak_rss_mb = fuzzydedup_metrics::peak_rss_bytes() as f64 / (1 << 20) as f64;
        let (precision, recall) =
            pooled_quality(reference.iter().zip(corpora).map(|(p, c)| (p, c.gold.as_slice())));
        let latencies = &probes.latency_ms;
        let dedup = per_corpus_mean(&dedup_s, &corpus_of, corpora.len());
        let records = corpora.iter().map(|c| c.records.len()).sum::<usize>() / corpora.len();
        report.set("setup_s", per_corpus_mean(&setup_s, &corpus_of, corpora.len()));
        report.set("dedup_s", dedup);
        report.set("ingest_rps", ratio(records as f64, dedup));
        report.set("query_p50_ms", quantile(latencies, 0.50));
        report.set("query_p95_ms", quantile(latencies, 0.95));
        report.set("peak_rss_mb", peak_rss_mb);
        report.set("pair_precision", precision);
        report.set("pair_recall", recall);
        report.note(format!(
            "{}: {} corpora of {} records, {} timed run_records repetitions, {} point queries",
            workload.name(),
            corpora.len(),
            corpora[0].records.len(),
            dedup_s.len(),
            latencies.len()
        ));
        let listed: Vec<String> = dedup_s.iter().map(|s| format!("{s:.4}")).collect();
        report.note(format!("dedup_s per repetition: [{}]", listed.join(", ")));
        report.note(format!(
            "query_p99_ms {:.6} ms over {} point queries",
            quantile(latencies, 0.99),
            latencies.len()
        ));
        return;
    }

    // Traced run: an untraced and a traced drive of the same corpus
    // alternate, so both see the same machine state, and which goes first
    // alternates too, so neither always inherits the other's warm caches.
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut first = None;
    let mut budget = Budget::new(started, seconds, corpora.len());
    while budget.another() {
        let rep = budget.done() - 1;
        let corpus = &corpora[rep % corpora.len()];
        let n = corpus.records.len();
        let plain = || {
            drive_layers(&corpus.records, &config, &mut Tracer::disabled(), &mut Samples::default())
        };
        let (plain, traced) = if rep.is_multiple_of(2) {
            let plain = plain();
            (plain, drive_layers(&corpus.records, &config, tracer, &mut samples))
        } else {
            let traced = drive_layers(&corpus.records, &config, tracer, &mut samples);
            (plain(), traced)
        };
        untraced_s.push(plain.blocking_s);
        check_layered(report, &plain, n, k);
        traced_s.push(traced.blocking_spans_s);
        check_layered(report, &traced, n, k);
        report.op_ok();
        report.op_ok();
        point_queries(
            &traced.index,
            &config,
            sizes.batch_queries / 10,
            &mut rng,
            &mut probes,
            report,
        );
        first.get_or_insert(traced.partition);
    }
    // The facade run: the partition check, and the work-stealing counter
    // of the parallel drive.
    if let (Some(partition), Some(outcome)) =
        (first, report.op("run_records", dedup.run_records(&corpora[0].records)))
    {
        report.check(
            "run_records partition equals the layer-by-layer partition",
            outcome.partition == partition,
        );
        report.set("core.parallel.steal_blocks", outcome.metrics.phase1.steal_blocks as f64);
    }
    crate::service::control(&corpora[0].records, seed, tracer, report, &mut samples);
    samples.report_medians(report);
    let queries = probes.latency_ms.len() as f64;
    report.set("nnindex.probe_candidates", ratio(probes.candidates as f64, queries));
    report.set("nnindex.probe_dist_calls", ratio(probes.dist_calls as f64, queries));
    let (untraced_median, traced_median) = (median(&untraced_s), median(&traced_s));
    report.set("trace.overhead_ratio", ratio(traced_median, untraced_median) - 1.0);
    report.note(format!(
        "{}: {} untraced + {} traced layer-by-layer drives; blocking steps untraced median \
         {untraced_median:.6} s, traced median {traced_median:.6} s",
        workload.name(),
        untraced_s.len(),
        traced_s.len(),
    ));
}
