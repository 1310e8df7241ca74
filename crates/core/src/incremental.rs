//! Incremental duplicate elimination: keep the partition current as
//! records arrive in batches.
//!
//! The paper's pipeline is batch-only; this module is the natural
//! production extension. The key observation makes incremental maintenance
//! cheap: Phase 2 is a fast function of `NN_Reln` (the paper measures it
//! at a small fraction of Phase-1 cost), so only the *NN entries* need
//! incremental maintenance — the partition is recomputed from scratch
//! each batch.
//!
//! **Affected-set rule.** After appending a batch, an existing tuple's
//! entry can change for three reasons, and each is refreshed:
//!
//! 1. *A new record becomes visible to it*, i.e. shares a non-stop term
//!    with it. We refresh every existing id in some new id's *uncapped*
//!    candidate set (collapse mode adds the bumped representatives and
//!    their candidates: a multiplicity shift moves every entry the
//!    representative survives in).
//! 2. *A term of it crosses the stop threshold.* The threshold
//!    `max(max_df_fraction·n, stop_df_floor)` moves with `n`, so a term
//!    can flip either way without a new record carrying it. Every id
//!    posted under a flipped term is refreshed
//!    ([`DynamicInvertedIndex::stop_flipped_ids`]).
//! 3. *Its answer rests on corpus-wide statistics.* Query-time IDF
//!    `ln(1+n/df)` moves with `n`, which re-ranks a candidate set; that
//!    matters only when the candidate cap (the weighted budget in
//!    collapse mode) cut the set, or when the gather fell back to
//!    stop-inclusive terms. Each entry remembers whether its last lookup
//!    did either ([`DynamicInvertedIndex::lookup_tracked`]), and such
//!    entries refresh every batch.
//!
//! Any other entry sees the same candidate set, the same stop slack and
//! the same distances as before, and verification does not depend on
//! candidate order, so its answer cannot move. Equivalence with full
//! recomputation is asserted by the test suite on randomized batch
//! splits, including binding candidate caps and a low stop floor.
//!
//! **Catch-up.** A batch is *admitted* (index appends, collapse
//! bookkeeping, placeholder entries) and then *refreshed* (lookups and
//! Phase 2). Admission is cheap and deterministic, so a second state
//! holding the same records can be brought level with one that ran the
//! batch by admitting the same records and copying the refreshed entries
//! and the partition — no lookup, no Phase 2. The service's epoch pair
//! keeps its lagging side current this way, and its two sides share one
//! pair cache (see `crate::service`).
//!
//! Construct states with [`IncrementalDedup::builder`], which exposes the
//! same configuration surface as [`crate::pipeline::DedupConfig`],
//! parallelism included.

use std::collections::HashMap;
use std::sync::Arc;

use fuzzydedup_nnindex::{
    DynamicIndexConfig, DynamicInvertedIndex, LookupCost, LookupSpec, NnIndex, PairDistanceCache,
};
use fuzzydedup_relation::Neighbor;
use fuzzydedup_textdist::Distance;

use crate::collapse::{CollapseKey, CollapseMap};
use crate::criteria::Aggregation;
use crate::nnreln::{NnEntry, NnReln};
use crate::pair_cache::PairCache;
use crate::parallel::{resolve_threads, work_stealing_map};
use crate::partition::Partition;
use crate::phase1::NeighborSpec;
use crate::phase2::partition_entries;
use crate::pipeline::{DedupError, Parallelism};
use crate::problem::CutSpec;

/// Statistics of one incremental batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct BatchStats {
    /// Records appended in this batch.
    pub inserted: usize,
    /// Pre-existing entries recomputed because the batch could have moved
    /// them (see the module docs' affected-set rule).
    pub refreshed: usize,
}

/// Builder for [`IncrementalDedup`], mirroring the
/// [`crate::pipeline::DedupConfig`] surface on the incremental path.
///
/// Defaults match `DedupConfig::new`: `DE_S(5)`, `Max` aggregation,
/// `c = 4`, `p = 2`, no pair cache, sequential refreshes,
/// and [`DynamicIndexConfig::default`] for the index.
///
/// ```no_run
/// use fuzzydedup_core::{Aggregation, CutSpec, IncrementalDedup, Parallelism};
/// use fuzzydedup_textdist::EditDistance;
///
/// let state = IncrementalDedup::builder(EditDistance)
///     .cut(CutSpec::Size(4))
///     .aggregation(Aggregation::Max)
///     .sn_threshold(4.0)
///     .pair_cache_capacity(1 << 14)
///     .parallelism(Parallelism::threads(0))
///     .build()
///     .unwrap();
/// # let _ = state;
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalDedupBuilder<D> {
    distance: D,
    index: DynamicIndexConfig,
    cut: CutSpec,
    agg: Aggregation,
    c: f64,
    p: f64,
    pair_cache_capacity: usize,
    parallelism: Parallelism,
    collapse: Option<CollapseKey>,
}

impl<D: Distance> IncrementalDedupBuilder<D> {
    /// Start from the defaults (see the type docs).
    pub fn new(distance: D) -> Self {
        Self {
            distance,
            index: DynamicIndexConfig::default(),
            cut: CutSpec::Size(5),
            agg: Aggregation::Max,
            c: 4.0,
            p: 2.0,
            pair_cache_capacity: 0,
            parallelism: Parallelism::sequential(),
            collapse: None,
        }
    }

    /// Set the cut specification (`DE_S(K)` / `DE_D(θ)` / both / none).
    pub fn cut(mut self, cut: CutSpec) -> Self {
        self.cut = cut;
        self
    }

    /// Set the SN aggregation function.
    pub fn aggregation(mut self, agg: Aggregation) -> Self {
        self.agg = agg;
        self
    }

    /// Set the SN threshold `c`.
    pub fn sn_threshold(mut self, c: f64) -> Self {
        self.c = c;
        self
    }

    /// Set the neighborhood-growth multiplier `p` (the paper fixes 2).
    pub fn growth_multiplier(mut self, p: f64) -> Self {
        self.p = p;
        self
    }

    /// Set the dynamic index configuration (q-gram length, candidate
    /// limit, stop-gram thresholds, ...).
    pub fn index_config(mut self, config: DynamicIndexConfig) -> Self {
        self.index = config;
        self
    }

    /// Capacity (in entries) of the symmetric pair-distance memo consulted
    /// during verification; `0` (the default) disables it. Refreshed
    /// entries re-verify many unchanged pairs batch after batch, so the
    /// memo pays off exactly here; the partition and `NN_Reln` are
    /// identical with the cache on or off (see
    /// [`crate::pair_cache::PairCache`] for the soundness contract —
    /// symmetric distance kernels only).
    pub fn pair_cache_capacity(mut self, capacity: usize) -> Self {
        self.pair_cache_capacity = capacity;
        self
    }

    /// Worker threads, as on the batch pipeline: entry refreshes spread
    /// over `phase1_threads` workers, and the partition recompute stays
    /// sequential. Results are identical to the sequential drive either
    /// way — every entry is an independent lookup (see
    /// [`crate::parallel`]).
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Enable the exact-duplicate collapse pre-pass on the incremental
    /// path — the mirror of [`crate::pipeline::DedupConfig::collapse`].
    /// Arriving records that normalize to an already-indexed key (see
    /// [`CollapseKey`]) are *not* re-indexed: their representative's
    /// multiplicity is bumped instead
    /// ([`DynamicInvertedIndex::note_duplicate`]), lookups weight cutoffs
    /// and growth counts in full-corpus units, and the partition /
    /// `NN_Reln` / point-query surfaces are expanded back to full-corpus
    /// ids — identical to running with the knob off (DESIGN.md §7.10).
    pub fn collapse(mut self, key: Option<CollapseKey>) -> Self {
        self.collapse = key;
        self
    }

    /// Build the empty incremental state.
    ///
    /// # Errors
    /// [`DedupError::InvalidConfig`] for an invalid cut, a non-positive
    /// (or NaN) SN threshold, or a growth multiplier below 1.
    pub fn build(self) -> Result<IncrementalDedup<D>, DedupError> {
        self.cut.validate().map_err(DedupError::InvalidConfig)?;
        // `!(c > 0.0)` deliberately rejects NaN as well as non-positives.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        let bad_c = !(self.c > 0.0);
        if bad_c {
            return Err(DedupError::InvalidConfig(format!(
                "SN threshold c must be positive, got {}",
                self.c
            )));
        }
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        let bad_p = !(self.p >= 1.0);
        if bad_p {
            return Err(DedupError::InvalidConfig(format!(
                "growth multiplier p must be >= 1, got {}",
                self.p
            )));
        }
        if self.collapse == Some(CollapseKey::RecordString)
            && !self.distance.record_string_invariant()
        {
            return Err(DedupError::InvalidConfig(format!(
                "collapse key RecordString requires a record-string-invariant distance; {} is \
                 not — use CollapseKey::ExactFields",
                self.distance.name()
            )));
        }
        let (index, collapse) = match self.collapse {
            Some(key) => (
                DynamicInvertedIndex::new_collapsed(self.distance, self.index),
                Some(IncCollapse { key, by_key: HashMap::new(), classes: Vec::new() }),
            ),
            None => (DynamicInvertedIndex::new(self.distance, self.index), None),
        };
        Ok(IncrementalDedup {
            index,
            entries: Vec::new(),
            drifts: Vec::new(),
            cut: self.cut,
            agg: self.agg,
            c: self.c,
            p: self.p,
            partition: Partition::singletons(0),
            pair_cache: (self.pair_cache_capacity > 0)
                .then(|| Arc::new(PairCache::new(self.pair_cache_capacity))),
            parallelism: self.parallelism,
            collapse,
        })
    }

    /// Build two empty, equivalent states that share one pair cache — the
    /// two sides of the service's epoch pair. Either side may compute a
    /// batch, so each side's own memo would miss half the traffic.
    pub(crate) fn build_twins(
        self,
    ) -> Result<(IncrementalDedup<D>, IncrementalDedup<D>), DedupError>
    where
        D: Clone,
    {
        let left = self.clone().build()?;
        let mut right = Self { pair_cache_capacity: 0, ..self }.build()?;
        right.pair_cache = left.pair_cache.clone();
        Ok((left, right))
    }
}

/// Collapse bookkeeping on the incremental path: the normalization-key
/// map and the class structure, maintained as records arrive. Index ids
/// are representative ids; full-corpus ids are assigned in arrival order
/// and only materialize on the expansion surfaces.
struct IncCollapse {
    key: CollapseKey,
    /// Normalization key → representative (index) id.
    by_key: HashMap<String, u32>,
    /// Per representative, the full-corpus member ids, ascending (appends
    /// arrive in full-id order, so pushes keep each class sorted).
    classes: Vec<Vec<u32>>,
}

/// An incrementally-maintained deduplication state; see module docs.
pub struct IncrementalDedup<D: Distance> {
    index: DynamicInvertedIndex<D>,
    entries: Vec<NnEntry>,
    /// Per entry: its last lookup rested on corpus-wide statistics, so it
    /// refreshes every batch (rule 3 of the module docs).
    drifts: Vec<bool>,
    cut: CutSpec,
    agg: Aggregation,
    c: f64,
    p: f64,
    partition: Partition,
    pair_cache: Option<Arc<PairCache>>,
    parallelism: Parallelism,
    collapse: Option<IncCollapse>,
}

/// What admitting a batch appended.
struct Admitted {
    inserted: usize,
    /// Appended representatives (every appended record with collapse off).
    new_ids: Vec<u32>,
    /// Pre-existing representatives whose multiplicity the batch bumped
    /// (collapse mode), sorted and deduplicated.
    dup_reps: Vec<u32>,
}

impl<D: Distance> IncrementalDedup<D> {
    /// Configure an incremental state with the [`IncrementalDedupBuilder`]
    /// — the incremental counterpart of [`crate::pipeline::DedupConfig`].
    pub fn builder(distance: D) -> IncrementalDedupBuilder<D> {
        IncrementalDedupBuilder::new(distance)
    }

    /// Number of records, in full-corpus units: with the collapse
    /// pre-pass on, exact duplicates count even though only their
    /// representative is indexed.
    pub fn len(&self) -> usize {
        self.index.n_full() as usize
    }

    /// Whether the state is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The current partition (over full-corpus ids).
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The current `NN_Reln` over full-corpus ids (rebuilt view over the
    /// maintained entries; with collapse on, the representative-space
    /// entries expanded through [`CollapseMap::expand_reln`]).
    pub fn nn_reln(&self) -> NnReln {
        self.full_reln()
    }

    /// The indexed records — one per exact-duplicate class when the
    /// collapse pre-pass is on (members of a class are bytewise
    /// indistinguishable to the pipeline, so the representative stands in
    /// for all of them).
    pub fn records(&self) -> &[Vec<String>] {
        self.index.records()
    }

    /// Point query by content: the neighbor list and growth estimate the
    /// given record sees against the *current* corpus, plus the lookup
    /// cost paid — without inserting anything. Probing with the text of
    /// an indexed record returns that record itself at distance 0. This
    /// is the read primitive behind the dedup service's "find duplicates
    /// of this record now" API (see `crate::service`).
    pub fn query_record(&self, fields: &[&str]) -> (Vec<Neighbor>, f64, LookupCost) {
        let (neighbors, ng, cost) = self.index.probe(fields, self.spec(), self.p);
        let Some(col) = &self.collapse else {
            return (neighbors, ng, cost);
        };
        // Expand representative hits to full-corpus ids: every member of a
        // hit class sits at the representative's distance. The weighted
        // probe already counts in full-corpus units (a TopK lookup returns
        // all survivors), so only the canonical re-sort and the final cut
        // happen here.
        let mut full: Vec<Neighbor> = neighbors
            .iter()
            .flat_map(|nb| {
                col.classes[nb.id as usize].iter().map(|&member| Neighbor::new(member, nb.dist))
            })
            .collect();
        full.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
        if let LookupSpec::TopK(k) = self.spec() {
            full.truncate(k);
        }
        (full, ng, cost)
    }

    fn spec(&self) -> LookupSpec {
        // Full-corpus units: a weighted lookup's cutoffs and k count every
        // collapsed duplicate, so the spec is derived from the full count.
        match NeighborSpec::from_cut(&self.cut, self.len()) {
            NeighborSpec::TopK(k) => LookupSpec::TopK(k),
            NeighborSpec::Radius(theta) => LookupSpec::Radius(theta),
        }
    }

    /// The full-corpus `NN_Reln`: the maintained entries, expanded through
    /// the class structure when collapse is on.
    fn full_reln(&self) -> NnReln {
        let reln = NnReln::new(self.entries.clone());
        match &self.collapse {
            None => reln,
            Some(col) => {
                let map = CollapseMap::from_parts(col.classes.clone());
                let visible: Vec<bool> =
                    (0..map.n_reps()).map(|r| self.index.has_terms(r as u32)).collect();
                map.expand_reln(&reln, NeighborSpec::from_cut(&self.cut, self.len()), &visible)
            }
        }
    }

    /// Recompute the entries for `ids`, sequentially or sharded over the
    /// configured Phase-1 worker threads. Every entry is an independent
    /// lookup, so the parallel drive produces bit-identical results (the
    /// same argument as [`crate::parallel::compute_nn_reln_parallel`]);
    /// the shared pair cache stays sound under interleaving by its
    /// contract.
    fn recompute_entries(&mut self, ids: &[u32]) {
        let threads = match self.parallelism.phase1_threads {
            None => 1,
            Some(n) => resolve_threads(n, ids.len()),
        };
        let spec = self.spec();
        let p = self.p;
        let index = &self.index;
        // Route through the caching extension point — a cache-less lookup
        // would silently bypass the memo.
        let cache = self.pair_cache.as_deref().map(|c| c as &dyn PairDistanceCache);
        let lookup = |id: u32| {
            let (neighbors, ng, _cost, drifts) = index.lookup_tracked(id, spec, p, cache);
            (NnEntry::new(id, neighbors, ng), drifts)
        };
        if threads <= 1 {
            for &id in ids {
                let (entry, drifts) = lookup(id);
                self.entries[id as usize] = entry;
                self.drifts[id as usize] = drifts;
            }
            return;
        }
        // The same work-stealing loop as parallel Phase 1: duplicate-dense
        // entries verify far more candidates than sparse ones.
        let (computed, _) = work_stealing_map(ids.len(), threads, |i, _: &mut ()| lookup(ids[i]));
        for ((entry, drifts), &id) in computed.into_iter().zip(ids) {
            self.entries[id as usize] = entry;
            self.drifts[id as usize] = drifts;
        }
    }

    /// Append a batch of records, refresh affected entries, and recompute
    /// the partition.
    pub fn insert_batch(&mut self, records: impl IntoIterator<Item = Vec<String>>) -> BatchStats {
        self.apply_batch(records).0
    }

    /// [`Self::insert_batch`], also returning every entry id it recomputed
    /// (appended ids first, then the refreshed pre-existing ones) — what
    /// [`Self::catch_up`] copies.
    pub(crate) fn apply_batch(
        &mut self,
        records: impl IntoIterator<Item = Vec<String>>,
    ) -> (BatchStats, Vec<u32>) {
        let first_new = self.index.len() as u32;
        self.index.watch_stop_status();
        let Admitted { inserted, new_ids, dup_reps } = self.admit(records);

        // Rule 1: candidates of the changed records — the appended
        // representatives plus (collapse mode) the bumped ones. The scan is
        // *uncapped*: term-sharing visibility is symmetric, but the
        // per-query candidate cap is not — an old record can rank a new one
        // inside its own top-k even when the (capped) reverse query drops
        // it, and that old record's entry must still refresh.
        let mut affected: Vec<u32> = Vec::new();
        for &id in new_ids.iter().chain(&dup_reps) {
            affected.extend(self.index.candidates_with_limit(id, 0));
        }
        affected.extend_from_slice(&dup_reps);
        // Rule 2: terms that crossed the stop threshold.
        affected.extend(self.index.stop_flipped_ids());
        // Rule 3: entries resting on corpus-wide statistics.
        affected.extend((0..first_new).filter(|&id| self.drifts[id as usize]));
        affected.retain(|&id| id < first_new);
        affected.sort_unstable();
        affected.dedup();

        let mut refresh: Vec<u32> = Vec::with_capacity(new_ids.len() + affected.len());
        refresh.extend_from_slice(&new_ids);
        refresh.extend_from_slice(&affected);
        self.recompute_entries(&refresh);

        // Phase 2 from scratch (cheap), over the full-corpus relation.
        let reln = self.full_reln();
        self.partition = partition_entries(&reln, self.cut, self.agg, self.c);
        (BatchStats { inserted, refreshed: affected.len() }, refresh)
    }

    /// Bring this state level with `leader`, which held the same records
    /// before running [`Self::apply_batch`] on `records` and recomputed
    /// the entries `refreshed`: admit the same records, then copy those
    /// entries and the leader's partition. Issues no lookup and runs no
    /// Phase 2; afterwards the two states are identical.
    pub(crate) fn catch_up(
        &mut self,
        records: impl IntoIterator<Item = Vec<String>>,
        leader: &Self,
        refreshed: &[u32],
    ) {
        self.admit(records);
        debug_assert_eq!(self.len(), leader.len(), "catch-up from a leader on other records");
        for &id in refreshed {
            self.entries[id as usize].clone_from(&leader.entries[id as usize]);
            self.drifts[id as usize] = leader.drifts[id as usize];
        }
        self.partition.clone_from(&leader.partition);
    }

    /// Assert that `other` holds exactly this state: entries bit for bit,
    /// drift flags, partition, records and full-corpus bookkeeping.
    #[cfg(test)]
    pub(crate) fn assert_twin_of(&self, other: &Self) {
        let bits = |state: &Self| -> Vec<u64> {
            let mut out = Vec::new();
            for e in &state.entries {
                out.extend([u64::from(e.id), e.ng.to_bits(), e.neighbors.len() as u64]);
                for nb in &e.neighbors {
                    out.extend([u64::from(nb.id), nb.dist.to_bits()]);
                }
            }
            out
        };
        assert_eq!(bits(self), bits(other), "entries");
        assert_eq!(self.drifts, other.drifts, "drift flags");
        assert_eq!(self.partition, other.partition, "partition");
        assert_eq!(self.records(), other.records(), "records");
        assert_eq!(self.len(), other.len(), "full-corpus length");
        let mults = |state: &Self| -> Vec<u32> {
            (0..state.records().len() as u32).map(|r| state.index.multiplicity(r)).collect()
        };
        assert_eq!(mults(self), mults(other), "multiplicities");
        let classes = |state: &Self| state.collapse.as_ref().map(|c| c.classes.clone());
        assert_eq!(classes(self), classes(other), "collapse classes");
    }

    /// Whether both states consult the same pair cache.
    #[cfg(test)]
    pub(crate) fn shares_pair_cache_with(&self, other: &Self) -> bool {
        match (&self.pair_cache, &other.pair_cache) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Append a batch to the index and the collapse bookkeeping, with
    /// placeholder entries for the appended ids (a batch can contain
    /// mutual duplicates, so entries are filled only once every id
    /// exists).
    fn admit(&mut self, records: impl IntoIterator<Item = Vec<String>>) -> Admitted {
        let first_new = self.index.len() as u32;
        let mut admitted = Admitted { inserted: 0, new_ids: Vec::new(), dup_reps: Vec::new() };
        for record in records {
            admitted.inserted += 1;
            let id = match self.collapse.as_mut() {
                None => self.index.push(record),
                Some(col) => {
                    let fields: Vec<&str> = record.iter().map(String::as_str).collect();
                    let key = col.key.key_of(&fields);
                    let full_id = self.index.n_full() as u32;
                    if let Some(&rep) = col.by_key.get(&key) {
                        // Exact duplicate of an indexed class: no
                        // re-indexing, just the multiplicity bump.
                        self.index.note_duplicate(rep);
                        col.classes[rep as usize].push(full_id);
                        if rep < first_new {
                            admitted.dup_reps.push(rep);
                        }
                        continue;
                    }
                    let rep = self.index.push(record);
                    col.by_key.insert(key, rep);
                    col.classes.push(vec![full_id]);
                    rep
                }
            };
            self.entries.push(NnEntry::new(id, Vec::new(), 1.0));
            self.drifts.push(false);
            admitted.new_ids.push(id);
        }
        admitted.dup_reps.sort_unstable();
        admitted.dup_reps.dedup();
        admitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzydedup_textdist::EditDistance;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fresh_builder() -> IncrementalDedupBuilder<EditDistance> {
        IncrementalDedup::builder(EditDistance).cut(CutSpec::Size(4)).sn_threshold(4.0)
    }

    fn fresh() -> IncrementalDedup<EditDistance> {
        fresh_builder().build().unwrap()
    }

    #[test]
    fn invalid_params_rejected() {
        let bad_cut = fresh_builder().cut(CutSpec::Size(1)).build();
        assert!(matches!(bad_cut, Err(DedupError::InvalidConfig(_))));
        let bad_c = fresh_builder().sn_threshold(f64::NAN).build();
        assert!(matches!(bad_c, Err(DedupError::InvalidConfig(_))));
        let bad_p = fresh_builder().growth_multiplier(0.5).build();
        assert!(matches!(bad_p, Err(DedupError::InvalidConfig(_))));
    }

    #[test]
    fn single_batch_matches_batch_pipeline() {
        // Single-typo pairs: close enough that their 2·nn growth spheres
        // stay sparse even in a six-record relation.
        let records: Vec<Vec<String>> = [
            "the doors",
            "the doorz",
            "xylophone concerto",
            "xylophone concertoo",
            "aaliyah",
            "bob dylan",
        ]
        .iter()
        .map(|s| vec![s.to_string()])
        .collect();
        let mut inc = fresh();
        inc.insert_batch(records.clone());
        assert!(inc.partition().are_together(0, 1), "{:?}", inc.partition().groups());
        assert!(inc.partition().are_together(2, 3));
        assert!(!inc.partition().are_together(4, 5));
    }

    #[test]
    fn later_batch_merges_with_earlier_records() {
        let mut inc = fresh();
        inc.insert_batch(vec![vec!["the doors".to_string()], vec!["aaliyah".to_string()]]);
        assert_eq!(inc.partition().num_duplicate_pairs(), 0);
        let stats = inc.insert_batch(vec![vec!["the doorz".to_string()]]);
        assert_eq!(stats.inserted, 1);
        assert!(stats.refreshed >= 1, "the old 'the doors' entry must refresh");
        assert!(inc.partition().are_together(0, 2));
        assert_eq!(inc.len(), 3);
    }

    #[test]
    fn incremental_equals_full_recompute_on_random_splits() {
        let mut rng = StdRng::seed_from_u64(13);
        let base: Vec<Vec<String>> = (0..60)
            .map(|i| {
                let v = if i % 3 == 0 {
                    format!("entity number {:03} alpha", i / 3)
                } else {
                    format!("entity number {:03} alphaa", i / 3)
                };
                vec![v]
            })
            .collect();
        for trial in 0..3 {
            // Random batch split.
            let mut inc = fresh();
            let mut at = 0;
            while at < base.len() {
                let take = rng.gen_range(1..=10).min(base.len() - at);
                inc.insert_batch(base[at..at + take].to_vec());
                at += take;
            }
            // Full recompute: one batch into a fresh state.
            let mut full = fresh();
            full.insert_batch(base.clone());
            assert_eq!(inc.partition(), full.partition(), "trial {trial}");
            assert_eq!(inc.nn_reln(), full.nn_reln(), "trial {trial}");
        }
    }

    /// Insert `base` in random batch splits and compare the final state
    /// with one batch into a fresh state; returns how many of `trials`
    /// splits diverged (relation or partition).
    fn diverging_splits(
        builder: &IncrementalDedupBuilder<EditDistance>,
        base: &[Vec<String>],
        rng: &mut StdRng,
        trials: usize,
    ) -> usize {
        let mut full = builder.clone().build().unwrap();
        full.insert_batch(base.to_vec());
        (0..trials)
            .filter(|_| {
                let mut inc = builder.clone().build().unwrap();
                let mut at = 0;
                while at < base.len() {
                    let take = rng.gen_range(1..=12).min(base.len() - at);
                    inc.insert_batch(base[at..at + take].to_vec());
                    at += take;
                }
                inc.nn_reln() != full.nn_reln() || inc.partition() != full.partition()
            })
            .count()
    }

    #[test]
    fn incremental_is_lossless_under_binding_candidate_caps() {
        // Clusters over pairwise disjoint alphabets: a new record shares no
        // term with other clusters, yet its arrival moves IDF `ln(1+n/df)`
        // for every term, which re-ranks a capped candidate set.
        let alphabets = ["abcd", "efgh", "ijkl", "mnop", "qrst", "uvwx", "yz01", "2345", "6789"];
        // Seeds on which refreshing only rule-1 entries diverges in 11 of
        // the 48 splits.
        for seed in [11, 18] {
            let mut rng = StdRng::seed_from_u64(seed);
            for limit in 2..=5 {
                let mut base: Vec<Vec<String>> = Vec::new();
                for _ in 0..rng.gen_range(80..=90) {
                    let letters: Vec<char> =
                        alphabets[rng.gen_range(0..alphabets.len())].chars().collect();
                    let word = |rng: &mut StdRng| -> String {
                        (0..rng.gen_range(4..=7)).map(|_| letters[rng.gen_range(0..4)]).collect()
                    };
                    base.push(vec![format!("{} {}", word(&mut rng), word(&mut rng))]);
                }
                let config = DynamicIndexConfig { candidate_limit: limit, ..Default::default() };
                let builder = fresh_builder().index_config(config);
                let diverged = diverging_splits(&builder, &base, &mut rng, 6);
                assert_eq!(diverged, 0, "seed {seed}, candidate_limit {limit}");
            }
        }
    }

    #[test]
    fn incremental_is_lossless_under_stop_threshold_drift() {
        // A low stop floor with skewed word frequencies: as `n` grows,
        // `max(0.2·n, 5)` sweeps across the document frequencies, so terms
        // flip between stop and non-stop without new records carrying them.
        let words = [
            "north", "river", "lodge", "cafe", "grill", "tavern", "bistro", "diner", "house",
            "garden", "palace", "corner",
        ];
        // Seeds on which refreshing only rule-1 entries diverges in 9 of
        // the 16 splits.
        for seed in [2, 7] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut base: Vec<Vec<String>> = Vec::new();
            for i in 0..84 {
                // Squaring a uniform draw skews towards the first words.
                let pick = |rng: &mut StdRng| {
                    let u: f64 = rng.gen_range(0.0..1.0);
                    words[((u * u) * words.len() as f64) as usize]
                };
                let (a, b) = (pick(&mut rng), pick(&mut rng));
                base.push(vec![format!("{a} {b} {:02}", i % 29)]);
            }
            let config = DynamicIndexConfig { stop_df_floor: 5, ..Default::default() };
            let builder = fresh_builder().index_config(config);
            assert_eq!(diverging_splits(&builder, &base, &mut rng, 8), 0, "seed {seed}");
        }
    }

    #[test]
    fn catch_up_equals_an_independent_insert_batch() {
        // Two states alternate the way the service's epoch sides do: one
        // computes each batch and the other copies the results. Both must
        // equal a third state that computes every batch itself.
        let batches: Vec<Vec<Vec<String>>> = (0..6)
            .map(|b| {
                (0..11)
                    .map(|i| {
                        let e = (b * 11 + i) % 13;
                        let v = if i % 3 == 1 {
                            format!("twin entity {e:02} sigmaa")
                        } else {
                            format!("twin entity {e:02} sigma")
                        };
                        vec![v]
                    })
                    .collect()
            })
            .collect();
        for key in [None, Some(CollapseKey::RecordString), Some(CollapseKey::ExactFields)] {
            for parallelism in [Parallelism::sequential(), Parallelism::threads(2)] {
                let builder =
                    fresh_builder().collapse(key).parallelism(parallelism).pair_cache_capacity(256);
                let (mut a, mut b) = builder.clone().build_twins().unwrap();
                assert!(a.shares_pair_cache_with(&b));
                let mut solo = builder.build().unwrap();
                for batch in &batches {
                    let (stats, refreshed) = a.apply_batch(batch.clone());
                    b.catch_up(batch.clone(), &a, &refreshed);
                    assert_eq!(stats, solo.insert_batch(batch.clone()), "{key:?}");
                    for state in [&a, &b] {
                        assert_eq!(state.nn_reln(), solo.nn_reln(), "{key:?}");
                        assert_eq!(state.partition(), solo.partition(), "{key:?}");
                        assert_eq!(state.len(), solo.len(), "{key:?}");
                        assert_eq!(state.records(), solo.records(), "{key:?}");
                    }
                    b.assert_twin_of(&a);
                    std::mem::swap(&mut a, &mut b);
                }
                for probe in ["twin entity 04 sigma", "twin entity 07 sigmaa", "no such thing"] {
                    let (n, ng, _) = solo.query_record(&[probe]);
                    for state in [&a, &b] {
                        let (n_state, ng_state, _) = state.query_record(&[probe]);
                        assert_eq!((n_state, ng_state), (n.clone(), ng), "{key:?}: {probe:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn parallelism_does_not_change_results() {
        // Counter-backed assertion below: serialize against other tests.
        let _serial = fuzzydedup_metrics::serial_guard();
        let base: Vec<Vec<String>> = (0..80)
            .map(|i| {
                let v = if i % 4 == 0 {
                    format!("workload entity {:03} omega", i / 4)
                } else {
                    format!("workload entity {:03} omegaa", i / 4)
                };
                vec![v]
            })
            .collect();
        let mut seq = fresh();
        let mut par = fresh_builder().parallelism(Parallelism::threads(2)).build().unwrap();
        let before = fuzzydedup_metrics::snapshot();
        for chunk in base.chunks(17) {
            seq.insert_batch(chunk.to_vec());
            par.insert_batch(chunk.to_vec());
            assert_eq!(seq.partition(), par.partition());
            assert_eq!(seq.nn_reln(), par.nn_reln());
        }
        let d = fuzzydedup_metrics::snapshot().delta(&before);
        assert!(
            d.get(fuzzydedup_metrics::Counter::Phase1StealBlocks) > 0,
            "the parallel refresh must actually steal blocks"
        );
    }

    #[test]
    fn query_record_matches_partition_membership() {
        let mut inc = fresh();
        inc.insert_batch(vec![
            vec!["golden dragon palace".to_string()],
            vec!["golden dragon palce".to_string()],
            vec!["unrelated payload".to_string()],
        ]);
        // Probing with an indexed record's text sees that record at 0.
        let (neighbors, _, _) = inc.query_record(&["golden dragon palace"]);
        assert_eq!(neighbors[0].id, 0);
        assert_eq!(neighbors[0].dist, 0.0);
        // Probing with a near-duplicate of the cluster ranks it first.
        let (neighbors, _, _) = inc.query_record(&["golden dragon  palace"]);
        assert!(inc.partition().are_together(0, neighbors[0].id));
    }

    #[test]
    fn empty_batches_are_noops() {
        let mut inc = fresh();
        let stats = inc.insert_batch(Vec::<Vec<String>>::new());
        assert_eq!(stats, BatchStats { inserted: 0, refreshed: 0 });
        assert!(inc.is_empty());
        inc.insert_batch(vec![vec!["solo".to_string()]]);
        let stats = inc.insert_batch(Vec::<Vec<String>>::new());
        assert_eq!(stats.inserted, 0);
        assert_eq!(inc.partition().num_groups(), 1);
    }

    #[test]
    fn pair_cache_hits_without_changing_results() {
        // Counter-backed assertion: serialize against other metric tests.
        let _serial = fuzzydedup_metrics::serial_guard();
        // Duplicate-heavy append stream: every batch lands near the same
        // entities, so refreshed entries re-verify the same pairs over
        // and over — exactly the traffic the memo exists to absorb.
        let batches: Vec<Vec<Vec<String>>> = (0..6)
            .map(|b| {
                (0..10).map(|i| vec![format!("shared entity record {:02} v{b}", i % 5)]).collect()
            })
            .collect();
        let mut plain = fresh();
        let mut cached = fresh_builder().pair_cache_capacity(1 << 14).build().unwrap();
        let before = fuzzydedup_metrics::snapshot();
        for batch in &batches {
            plain.insert_batch(batch.clone());
            cached.insert_batch(batch.clone());
        }
        let d = fuzzydedup_metrics::snapshot().delta(&before);
        // The memo only skips recomputation; the state must not move.
        assert_eq!(plain.partition(), cached.partition());
        assert_eq!(plain.nn_reln(), cached.nn_reln());
        // The incremental path actually consults the cache now.
        assert!(
            d.get(fuzzydedup_metrics::Counter::PairCacheHits) > 0,
            "duplicate-heavy refreshes must hit the memo"
        );
    }

    #[test]
    fn collapse_does_not_change_incremental_results() {
        // Duplicate-heavy append stream with exact repeats inside and
        // across batches: collapse-on must track collapse-off (and thus
        // the batch pipeline, by the existing identity tests) exactly.
        let batches: Vec<Vec<Vec<String>>> = (0..5)
            .map(|b| {
                (0..12)
                    .map(|i| {
                        let e = (b * 12 + i) % 9;
                        let v = if i % 3 == 2 {
                            format!("incr entity {e:02} lambdaa")
                        } else {
                            format!("incr entity {e:02} lambda")
                        };
                        vec![v]
                    })
                    .collect()
            })
            .collect();
        for key in [CollapseKey::RecordString, CollapseKey::ExactFields] {
            let mut plain = fresh();
            let mut collapsed = fresh_builder().collapse(Some(key)).build().unwrap();
            for batch in &batches {
                let a = plain.insert_batch(batch.clone());
                let b = collapsed.insert_batch(batch.clone());
                assert_eq!(a.inserted, b.inserted, "{key:?}");
                assert_eq!(plain.partition(), collapsed.partition(), "{key:?}");
                assert_eq!(plain.nn_reln(), collapsed.nn_reln(), "{key:?}");
                assert_eq!(plain.len(), collapsed.len(), "{key:?}");
            }
            // Only unique keys were indexed.
            assert!(collapsed.records().len() < plain.records().len(), "{key:?}");
            // Point queries agree after expansion back to full ids.
            for probe in ["incr entity 04 lambda", "incr entity 07 lambdaa", "no such thing"] {
                let (n_plain, ng_plain, _) = plain.query_record(&[probe]);
                let (n_coll, ng_coll, _) = collapsed.query_record(&[probe]);
                assert_eq!(n_plain, n_coll, "{key:?}: probe {probe:?}");
                assert_eq!(ng_plain, ng_coll, "{key:?}: probe {probe:?}");
            }
        }
    }

    #[test]
    fn collapse_record_string_requires_invariant_distance() {
        // EditDistance is whole-record, so RecordString is accepted.
        assert!(fresh_builder().collapse(Some(CollapseKey::RecordString)).build().is_ok());
        // A per-field composite is not; the builder must reject the pair.
        let composite = fuzzydedup_textdist::CompositeDistance::uniform(EditDistance);
        let rejected = IncrementalDedup::builder(composite)
            .cut(CutSpec::Size(4))
            .sn_threshold(4.0)
            .collapse(Some(CollapseKey::RecordString))
            .build();
        assert!(matches!(rejected, Err(DedupError::InvalidConfig(_))));
        // ... while ExactFields stays sound for every distance.
        let composite = fuzzydedup_textdist::CompositeDistance::uniform(EditDistance);
        assert!(IncrementalDedup::builder(composite)
            .cut(CutSpec::Size(4))
            .sn_threshold(4.0)
            .collapse(Some(CollapseKey::ExactFields))
            .build()
            .is_ok());
    }

    #[test]
    fn refresh_counts_are_bounded_by_corpus() {
        let mut inc = fresh();
        inc.insert_batch((0..20).map(|i| vec![format!("record {i:02}")]));
        let stats = inc.insert_batch(vec![vec!["record 21".to_string()]]);
        assert!(stats.refreshed <= 20);
    }
}
