//! Metric catalog, failure accounting and the result line.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::time::{Duration, Instant};

/// End-to-end metrics, printed by every untraced run (name, unit).
/// `BENCHMARK.json` lists the same names with their bounds.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("dedup_s", "s"),
    ("ingest_rps", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("pair_precision", "ratio"),
    ("pair_recall", "ratio"),
];

/// Per-layer metrics, printed by every traced run (name, unit).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("textdist.fit_s", "s"),
    ("textdist.evals", "count"),
    ("textdist.verify_s", "s"),
    ("edit_kernel.early_exit_ratio", "ratio"),
    ("nnindex.build_s", "s"),
    ("nnindex.postings_bytes", "bytes"),
    ("nnindex.candgen_s", "s"),
    ("nnindex.postings_scanned", "count"),
    ("nnindex.candidates_kept_ratio", "ratio"),
    ("nnindex.verify_yield", "ratio"),
    ("nnindex.probe_candidates", "count"),
    ("nnindex.probe_dist_calls", "count"),
    ("core.phase1_s", "s"),
    ("core.phase1.lookups", "count"),
    ("core.parallel.steal_blocks", "count"),
    ("core.phase2_s", "s"),
    ("core.phase2.cs_pairs", "count"),
    ("incremental.insert_batch_s", "s"),
    ("incremental.refresh_fraction", "ratio"),
    ("pair_cache.hit_ratio", "ratio"),
    ("service.submit_wait_s", "s"),
    ("service.admit_lag_p50_ms", "ms"),
    ("service.admit_lag_p99_ms", "ms"),
    ("service.query_s", "s"),
    ("relation.via_tables_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// What one run measured and whether its outputs were right.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failures: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
}

impl Report {
    /// One operation that succeeded (a batch run, a submit, a query).
    pub fn op_ok(&mut self) {
        self.attempted += 1;
    }

    /// One operation whose result is `r`; a failure is counted and
    /// described.
    pub fn op<T, E: Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failures.push(format!("{what}: {e}"));
                None
            }
        }
    }

    /// One output check.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failures.push(format!("check failed: {what}"));
        }
    }

    /// Set a metric from the catalog.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "metric {name} is not in the catalog");
        self.metrics.insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// A line of context printed with the summary (sample counts, self
    /// times, per-batch figures).
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Print the human-readable summary, then the result line (the last
    /// line of standard output). Metrics the run did not set are reported
    /// as failures rather than left out.
    pub fn finish(mut self, traced: bool) {
        let catalog = if traced { PER_LAYER } else { END_TO_END };
        for (name, _) in catalog {
            if !self.metrics.contains_key(name) {
                self.failures.push(format!("metric {name} was not measured"));
            }
        }
        for line in &self.notes {
            println!("{line}");
        }
        for (name, unit) in catalog {
            println!("{name:<32} {:>18.6} {unit}", self.metrics.get(name).copied().unwrap_or(0.0));
        }
        let attempted = self.attempted.max(1);
        let failed = self.failures.len() as u64;
        println!(
            "{:<32} {:>18.6} ratio ({failed} failed of {attempted} attempted operations)",
            "error_rate",
            failed as f64 / attempted as f64
        );
        for f in &self.failures {
            println!("FAILURE {f}");
        }
        let metrics: Vec<String> = catalog
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            metrics.join(", ")
        );
    }
}

/// Per-rep samples of catalogued metrics, reported as medians.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    /// Add one sample.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// Set every sampled metric on `report` to its median.
    pub fn report_medians(&self, report: &mut Report) {
        for (name, values) in &self.0 {
            report.set(name, median(values));
        }
    }
}

/// When a run stops repeating: after `min` repetitions, as soon as one
/// more, taking as long as the last, would end past `seconds` from the
/// start of the run.
#[derive(Debug)]
pub struct Budget {
    started: Instant,
    seconds: Duration,
    min: usize,
    done: usize,
    mark: Instant,
    last: Duration,
}

impl Budget {
    /// A budget of `seconds` counted from `started`.
    pub fn new(started: Instant, seconds: Duration, min: usize) -> Self {
        Self { started, seconds, min, done: 0, mark: started, last: Duration::ZERO }
    }

    /// Whether to run repetition number [`Budget::done`] (counting from 0);
    /// call once before each repetition.
    pub fn another(&mut self) -> bool {
        let now = Instant::now();
        if self.done > 0 {
            self.last = now - self.mark;
        }
        self.mark = now;
        let go = self.done < self.min || now - self.started + self.last <= self.seconds;
        self.done += usize::from(go);
        go
    }

    /// Repetitions started so far.
    pub fn done(&self) -> usize {
        self.done
    }
}

/// Unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name).map(|(_, u)| *u)
}

/// Median of a sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile of a sample (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn catalog_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n).collect();
        let len = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), len);
    }
}
