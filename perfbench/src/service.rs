//! The `service_mixed` workload: a live `DedupService` taking writes beside
//! point queries.
//!
//! One repetition bulk-loads the first records (`submit_wait` each, then
//! `drain`; this is the set-up), then runs a closed loop from one client
//! thread: submit the next record with `submit_wait`, then query by content
//! a uniformly chosen record generated so far, and wait for the answer.
//! The service's writer thread admits batches beside it. The mixed phase
//! ends when `drain` returns.
//!
//! The traced run also replays the same records through
//! `IncrementalDedup::insert_batch` in batches of the service's admission
//! size, for the refresh figures the service does not expose, and drives
//! the from-scratch oracle layer by layer.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use fuzzydedup_core::{
    Aggregation, CutSpec, DedupService, Deduplicator, IncrementalDedup, IncrementalDedupBuilder,
    Partition, ServiceConfig,
};
use fuzzydedup_metrics::{snapshot, Counter};
use fuzzydedup_textdist::EditDistance;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::batch::{check_layered, check_partition, drive_layers, pooled_quality};
use crate::report::{median, quantile, ratio, Budget, Report, Samples};
use crate::trace::Tracer;
use crate::workload::{batch_config, Corpus, Sizes, Workload, SERVICE_K};

/// Records per admitted batch, and the bounded queue's capacity.
const ADMIT_BATCH: usize = 64;
const QUEUE_CAPACITY: usize = 64;
/// Fewest repetitions of bulk load plus mixed phase per untraced run.
const MIN_REPS: usize = 2;

fn builder() -> IncrementalDedupBuilder<EditDistance> {
    IncrementalDedup::builder(EditDistance)
        .cut(CutSpec::Size(SERVICE_K))
        .aggregation(Aggregation::Max)
        .sn_threshold(4.0)
        .pair_cache_capacity(1 << 22)
}

/// What one repetition measured.
struct Rep {
    setup_s: f64,
    mixed_s: f64,
    query_ms: Vec<f64>,
    submit_wait_s: f64,
    query_s: f64,
    admit_lag_ms: Vec<f64>,
    probe_candidates: u64,
    probe_dist_calls: u64,
    pair_cache_hits: u64,
    pair_cache_misses: u64,
    partition: Partition,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Bulk load, then the mixed phase; `None` when the service fails to
/// start.
fn one_rep(
    records: &[Vec<String>],
    bulk: usize,
    seed: u64,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Option<Rep> {
    let root = tracer.start("service.rep", None);
    let started = Instant::now();
    let load = tracer.start("service.bulk_load", root);
    let config = ServiceConfig::new().admit_batch_size(ADMIT_BATCH).queue_capacity(QUEUE_CAPACITY);
    let mut service = report.op("spawn", DedupService::spawn(builder(), config))?;
    for record in &records[..bulk] {
        report.op("submit_wait", service.submit_wait(record.clone()));
    }
    service.drain();
    tracer.end(load);
    let setup_s = secs(started);

    let before = snapshot();
    let mixed = tracer.start("service.mixed", root);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let mut rep = Rep {
        setup_s,
        mixed_s: 0.0,
        query_ms: Vec::with_capacity(records.len() - bulk),
        submit_wait_s: 0.0,
        query_s: 0.0,
        admit_lag_ms: Vec::with_capacity(records.len() - bulk),
        probe_candidates: 0,
        probe_dist_calls: 0,
        pair_cache_hits: 0,
        pair_cache_misses: 0,
        partition: Partition::singletons(0),
    };
    // Records submitted but not yet seen in a snapshot: (id, submitted at).
    let mut unseen: VecDeque<(usize, Instant)> = VecDeque::new();
    let mixed_started = Instant::now();
    for (i, record) in records.iter().enumerate().skip(bulk) {
        let span = tracer.start("service.submit_wait", mixed);
        let t = Instant::now();
        report.op("submit_wait", service.submit_wait(record.clone()));
        rep.submit_wait_s += secs(t);
        tracer.end(span);
        unseen.push_back((i, Instant::now()));

        let probe = &records[rng.gen_range(0..=i)];
        let fields: Vec<&str> = probe.iter().map(String::as_str).collect();
        let span = tracer.start("service.query", mixed);
        let t = Instant::now();
        let answer = service.query(&fields);
        let query_s = secs(t);
        tracer.end(span);
        report.op_ok();
        rep.query_s += query_s;
        rep.query_ms.push(query_s * 1e3);
        rep.probe_candidates += answer.cost.candidates;
        rep.probe_dist_calls += answer.cost.distance_calls;
        // A record is admitted once a snapshot holds more records than its
        // id.
        while unseen.front().is_some_and(|&(id, _)| id < answer.corpus_len) {
            let (_, at) = unseen.pop_front().expect("front exists");
            rep.admit_lag_ms.push(secs(at) * 1e3);
        }
    }
    tracer.span("service.drain", mixed, || service.drain());
    rep.mixed_s = secs(mixed_started);
    rep.admit_lag_ms.extend(unseen.iter().map(|&(_, at)| secs(at) * 1e3));
    tracer.end(mixed);
    let counters = snapshot().delta(&before);
    rep.pair_cache_hits = counters.get(Counter::PairCacheHits);
    rep.pair_cache_misses = counters.get(Counter::PairCacheMisses);
    rep.partition = service.snapshot_partition().1;
    tracer.span("service.shutdown", root, || service.shutdown());
    tracer.end(root);
    Some(rep)
}

/// Replay the records through `insert_batch` in admission-size batches;
/// returns the final partition, per-batch times and refresh fractions.
fn replay(
    records: &[Vec<String>],
    tracer: &mut Tracer,
    report: &mut Report,
) -> Option<(Partition, Vec<f64>, Vec<f64>)> {
    let mut state = report.op("build incremental state", builder().build())?;
    let root = tracer.start("incremental.replay", None);
    let (mut batch_s, mut fractions) = (Vec::new(), Vec::new());
    for chunk in records.chunks(ADMIT_BATCH) {
        let existing = state.len();
        let span = tracer.start("incremental.insert_batch", root);
        let t = Instant::now();
        let stats = state.insert_batch(chunk.to_vec());
        batch_s.push(secs(t));
        tracer.end(span);
        report.op_ok();
        if existing > 0 {
            fractions.push(stats.refreshed as f64 / existing as f64);
        }
    }
    tracer.end(root);
    Some((state.partition().clone(), batch_s, fractions))
}

/// The service-layer samples of one repetition.
fn push_service_samples(rep: &Rep, samples: &mut Samples) {
    samples.push("service.submit_wait_s", rep.submit_wait_s);
    samples.push("service.query_s", rep.query_s);
    samples.push("service.admit_lag_p50_ms", quantile(&rep.admit_lag_ms, 0.50));
    samples.push("service.admit_lag_p99_ms", quantile(&rep.admit_lag_ms, 0.99));
    let probes = (rep.pair_cache_hits + rep.pair_cache_misses) as f64;
    samples.push("pair_cache.hit_ratio", ratio(rep.pair_cache_hits as f64, probes));
}

/// The `insert_batch` replay with its samples and per-batch note; returns
/// the replay's final partition.
fn replay_samples(
    records: &[Vec<String>],
    tracer: &mut Tracer,
    report: &mut Report,
    samples: &mut Samples,
) -> Option<Partition> {
    let (partition, batch_s, fractions) = replay(records, tracer, report)?;
    samples.push("incremental.insert_batch_s", median(&batch_s));
    samples.push("incremental.refresh_fraction", median(&fractions));
    let listed: Vec<String> = fractions.iter().map(|f| format!("{f:.3}")).collect();
    report.note(format!("incremental.refresh_fraction per batch: [{}]", listed.join(", ")));
    Some(partition)
}

/// Records of a batch corpus that its traced run sends through the service.
const CONTROL_RECORDS: usize = 3 * ADMIT_BATCH;

/// Service-layer figures for a batch workload's traced run, so no layer
/// reads a constant there: the first records of its corpus through the
/// same service (one admission batch bulk-loaded, the rest mixed) and the
/// same `insert_batch` replay. This runs outside every end-to-end metric.
pub fn control(
    records: &[Vec<String>],
    seed: u64,
    tracer: &mut Tracer,
    report: &mut Report,
    samples: &mut Samples,
) {
    let records = &records[..CONTROL_RECORDS.min(records.len())];
    let Some(rep) = one_rep(records, ADMIT_BATCH.min(records.len() / 3), seed, tracer, report)
    else {
        return;
    };
    push_service_samples(&rep, samples);
    if let Some(partition) = replay_samples(records, tracer, report, samples) {
        report.check("control: drained partition equals the insert_batch replay", {
            partition == rep.partition
        });
    }
}

/// Run `service_mixed` over `corpora` for `seconds` and fill `report`.
/// Repetitions cycle through the corpora, as on the batch workloads.
pub fn run(
    corpora: &[Corpus],
    sizes: &Sizes,
    seed: u64,
    seconds: Duration,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let bulk = sizes.service_bulk;
    let started = Instant::now();
    // Untraced runs repeat untraced reps; traced runs pair each with a
    // traced rep of the same corpus, the gap being the tracing overhead.
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let min = if tracer.enabled() { corpora.len() } else { MIN_REPS.max(corpora.len()) };
    let mut budget = Budget::new(started, seconds, min);
    while budget.another() {
        let i = budget.done() - 1;
        let records = &corpora[i % corpora.len()].records;
        // Which rep goes first alternates, as on the batch workloads.
        if tracer.enabled() && i % 2 == 1 {
            let Some(r) = one_rep(records, bulk, seed, tracer, report) else { break };
            traced.push((i, r));
        }
        let Some(r) = one_rep(records, bulk, seed, &mut Tracer::disabled(), report) else { break };
        untraced.push((i, r));
        if tracer.enabled() && i.is_multiple_of(2) {
            let Some(r) = one_rep(records, bulk, seed, tracer, report) else { break };
            traced.push((i, r));
        }
    }
    let peak_rss_mb = fuzzydedup_metrics::peak_rss_bytes() as f64 / (1 << 20) as f64;

    // Drain identity: every rep's drained partition equals the batch
    // pipeline over the same records with the same knobs.
    let config = batch_config(Workload::ServiceMixed);
    let dedup = Deduplicator::new(config.clone());
    let oracles: Vec<Option<Partition>> = corpora
        .iter()
        .map(|c| report.op("run_records", dedup.run_records(&c.records)).map(|o| o.partition))
        .collect();
    for (i, rep) in untraced.iter().chain(&traced) {
        let n = corpora[i % corpora.len()].records.len();
        let oracle = oracles[i % corpora.len()].as_ref();
        report.check("drained partition equals run_records", oracle == Some(&rep.partition));
        check_partition(report, "drained partition", &rep.partition, n, SERVICE_K);
    }

    if !tracer.enabled() {
        let reps: Vec<&Rep> = untraced.iter().map(|(_, r)| r).collect();
        let per_rep = |f: fn(&Rep) -> f64| median(&reps.iter().map(|r| f(r)).collect::<Vec<_>>());
        let query_ms: Vec<f64> = reps.iter().flat_map(|r| r.query_ms.iter().copied()).collect();
        let (precision, recall) = pooled_quality(
            oracles.iter().zip(corpora).filter_map(|(p, c)| Some((p.as_ref()?, c.gold.as_slice()))),
        );
        report.set("setup_s", per_rep(|r| r.setup_s));
        report.set("dedup_s", per_rep(|r| r.mixed_s));
        let mixed = (corpora[0].records.len() - bulk) as f64;
        let rps: Vec<f64> = reps.iter().map(|r| ratio(mixed, r.mixed_s)).collect();
        report.set("ingest_rps", median(&rps));
        report.set("query_p50_ms", quantile(&query_ms, 0.50));
        report.set("query_p95_ms", quantile(&query_ms, 0.95));
        report.set("peak_rss_mb", peak_rss_mb);
        report.set("pair_precision", precision);
        report.set("pair_recall", recall);
        report.note(format!(
            "service_mixed: {} corpora of {bulk} bulk + {} mixed records, {} repetitions, \
             {} point queries",
            corpora.len(),
            corpora[0].records.len() - bulk,
            reps.len(),
            query_ms.len(),
        ));
        let listed: Vec<String> = reps.iter().map(|r| format!("{:.4}", r.mixed_s)).collect();
        report.note(format!("dedup_s per repetition: [{}]", listed.join(", ")));
        report.note(format!(
            "query_p99_ms {:.6} ms over {} point queries",
            quantile(&query_ms, 0.99),
            query_ms.len()
        ));
        return;
    }

    let mut samples = Samples::default();
    for (_, rep) in &traced {
        push_service_samples(rep, &mut samples);
        let queries = rep.query_ms.len() as f64;
        samples.push("nnindex.probe_candidates", ratio(rep.probe_candidates as f64, queries));
        samples.push("nnindex.probe_dist_calls", ratio(rep.probe_dist_calls as f64, queries));
    }
    let (records, oracle) = (&corpora[0].records, oracles[0].as_ref());
    if let Some(partition) = replay_samples(records, tracer, report, &mut samples) {
        report.check("drained partition equals the insert_batch replay", {
            oracle == Some(&partition)
        });
    }
    // The oracle, layer by layer: the batch layers' figures on this corpus.
    let layered = drive_layers(records, &config, tracer, &mut samples);
    check_layered(report, &layered, records.len(), SERVICE_K);
    report.check("run_records partition equals the layer-by-layer partition", {
        oracle == Some(&layered.partition)
    });
    samples.report_medians(report);
    report.set("core.parallel.steal_blocks", 0.0);
    let mixed_s =
        |reps: &[(usize, Rep)]| median(&reps.iter().map(|(_, r)| r.mixed_s).collect::<Vec<_>>());
    let (untraced_median, traced_median) = (mixed_s(&untraced), mixed_s(&traced));
    report.set("trace.overhead_ratio", ratio(traced_median, untraced_median) - 1.0);
    report.note(format!(
        "service_mixed: {} untraced + {} traced repetitions; mixed phase untraced median \
         {untraced_median:.6} s, traced median {traced_median:.6} s",
        untraced.len(),
        traced.len()
    ));
}
