//! The three workloads: their inputs (generated from the seed) and the
//! configuration each one hands the library.

use fuzzydedup_core::{Aggregation, CutSpec, DedupConfig, Parallelism};
use fuzzydedup_datagen::{media, org, DatasetSpec};
use fuzzydedup_textdist::DistanceKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Org records, edit distance, two Phase-1 threads: candidate
    /// generation is the heaviest layer.
    OrgEd,
    /// Media records, half of them exact copies, fuzzy match similarity:
    /// verification is the heaviest layer.
    MediaFmsDup,
    /// A live dedup service taking writes beside point queries.
    ServiceMixed,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "org_ed" => Some(Self::OrgEd),
            "media_fms_dup" => Some(Self::MediaFmsDup),
            "service_mixed" => Some(Self::ServiceMixed),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Self::OrgEd => "org_ed",
            Self::MediaFmsDup => "media_fms_dup",
            Self::ServiceMixed => "service_mixed",
        }
    }
}

/// Input sizes. `full` is what the benchmark measures; `tiny` runs the
/// same code path in a second or two for the smoke test.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Records per `org_ed` corpus.
    pub org_records: usize,
    /// Records per `media_fms_dup` corpus.
    pub media_records: usize,
    /// Records bulk-loaded into the service before the mixed phase.
    pub service_bulk: usize,
    /// Records ingested in the mixed phase, one point query after each.
    pub service_mixed: usize,
    /// Point queries per batch run, at least.
    pub batch_queries: usize,
    /// Corpora per batch run, each generated from its own seed derived
    /// from the run's seed.
    pub corpora: usize,
    /// Corpora per `service_mixed` run, whose repetitions take longer.
    pub service_corpora: usize,
}

impl Sizes {
    /// The measured sizes.
    pub fn full() -> Self {
        Self {
            org_records: 3000,
            media_records: 2000,
            service_bulk: 500,
            service_mixed: 1000,
            batch_queries: 1000,
            corpora: 4,
            service_corpora: 2,
        }
    }

    /// The smoke-test sizes.
    pub fn tiny() -> Self {
        Self {
            org_records: 300,
            media_records: 200,
            service_bulk: 100,
            service_mixed: 150,
            batch_queries: 100,
            corpora: 2,
            service_corpora: 2,
        }
    }
}

/// The inputs of one run: several corpora, corpus `j` generated from a seed
/// derived from the run's seed and `j`.
pub fn corpora(workload: Workload, seed: u64, sizes: &Sizes) -> Vec<Corpus> {
    let count = match workload {
        Workload::ServiceMixed => sizes.service_corpora,
        Workload::OrgEd | Workload::MediaFmsDup => sizes.corpora,
    };
    (0..count as u64)
        .map(|j| {
            let seed = seed.wrapping_mul(1_000_003).wrapping_add(j);
            match workload {
                Workload::OrgEd => org_corpus(seed, sizes.org_records),
                Workload::MediaFmsDup => media_dup_corpus(seed, sizes.media_records),
                Workload::ServiceMixed => {
                    org_corpus(seed, sizes.service_bulk + sizes.service_mixed)
                }
            }
        })
        .collect()
}

/// Generated records with their gold entity labels.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// The records, in the order the program sees them.
    pub records: Vec<Vec<String>>,
    /// Gold entity label per record.
    pub gold: Vec<usize>,
}

impl Corpus {
    fn truncated(mut records: Vec<Vec<String>>, mut gold: Vec<usize>, n: usize) -> Self {
        assert!(records.len() >= n, "generator produced {} records, need {n}", records.len());
        records.truncate(n);
        gold.truncate(n);
        Self { records, gold }
    }
}

/// Org records: ~1.3 rows per entity, so `n * 82 / 100` entities (plus a
/// margin for small `n`) cover `n`.
pub fn org_corpus(seed: u64, n: usize) -> Corpus {
    let mut rng = StdRng::seed_from_u64(seed);
    let entities = n * 82 / 100 + 50;
    let spec = DatasetSpec { n_entities: entities, ..DatasetSpec::medium() };
    let dataset = org::generate(&mut rng, spec);
    Corpus::truncated(dataset.records, dataset.gold, n)
}

/// Media records where half the rows are exact re-emissions of others.
pub fn media_dup_corpus(seed: u64, n: usize) -> Corpus {
    let mut rng = StdRng::seed_from_u64(seed);
    let entities = n / 2 + 50;
    let spec = DatasetSpec { n_entities: entities, ..DatasetSpec::medium() }.dup_rate(0.5);
    let dataset = media::generate(&mut rng, spec);
    Corpus::truncated(dataset.records, dataset.gold, n)
}

/// Pipeline configuration of a batch workload.
pub fn batch_config(workload: Workload) -> DedupConfig {
    match workload {
        Workload::OrgEd => DedupConfig::new(DistanceKind::EditDistance)
            .cut(CutSpec::Size(5))
            .aggregation(Aggregation::Max)
            .sn_threshold(4.0)
            .parallelism(Parallelism::threads(2)),
        // The CLI's default path: sequential, BF lookup order, no collapse.
        Workload::MediaFmsDup => {
            DedupConfig::new(DistanceKind::FuzzyMatch).cut(CutSpec::Size(5)).sn_threshold(4.0)
        }
        // The service's knobs, for the from-scratch oracle run.
        Workload::ServiceMixed => DedupConfig::new(DistanceKind::EditDistance)
            .cut(CutSpec::Size(SERVICE_K))
            .aggregation(Aggregation::Max)
            .sn_threshold(4.0),
    }
}

/// Size cut of the service workload.
pub const SERVICE_K: usize = 4;

/// The size bound `K` of a `DE_S(K)` configuration.
pub fn size_bound(config: &DedupConfig) -> usize {
    match config.cut {
        CutSpec::Size(k) => k,
        _ => unreachable!("every workload uses a size cut"),
    }
}
