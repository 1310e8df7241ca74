//! Long-running dedup service: batched ingest, epoch-snapshot point
//! queries, graceful drain.
//!
//! The paper's pipeline is batch-only; this module turns the incremental
//! path ([`IncrementalDedup`]) into a live service. Three moving parts:
//!
//! 1. **Batched admission.** Submitters push single records into a bounded
//!    queue ([`DedupService::submit`] fails fast with
//!    [`ServiceError::QueueFull`]; [`DedupService::submit_wait`] blocks for
//!    space). A dedicated writer thread drains up to
//!    [`ServiceConfig::admit_batch_size`] records at a time and admits them
//!    as one [`IncrementalDedup::insert_batch`] call — amortizing the
//!    affected-set scan and Phase-2 recompute exactly the way the batch
//!    pipeline amortizes index construction.
//!
//! 2. **Epoch-snapshot reads.** Point queries ("find duplicates of this
//!    record *now*") must not block while the writer rebuilds after a
//!    batch. We keep **two** complete `IncrementalDedup` states in an
//!    [`epoch_pair`]: readers run against the active side; the writer
//!    applies each admitted batch to the *inactive* side, flips the epoch
//!    with one atomic store, then brings the stale side up to date. This
//!    generalizes the `pair_cache` seqlock idea from one `(u64, f64)` slot
//!    to the whole partition+NN state: where a seqlock makes readers
//!    *retry* around a writer, the left-right pair gives readers an
//!    untouched side to finish on, so a read never waits on an in-progress
//!    rebuild (see `DESIGN.md` §7.9 for the full argument).
//!    Each batch is computed **once**: the stale side admits the same
//!    records and copies the entries the batch refreshed, plus the
//!    partition, from the freshly published side
//!    (`IncrementalDedup::catch_up`). The two sides share one pair
//!    cache and stay bit-identical, which is what makes drain-identity
//!    testable.
//!
//!    A panic inside the writer (say, in a `Distance`) ends ingest but not
//!    the service: queries keep answering from the last published epoch,
//!    [`DedupService::drain`] returns, and submissions fail with
//!    [`ServiceError::WriterFailed`].
//!
//! 3. **Observability.** Global [`fuzzydedup_metrics`] counters (the
//!    `service` section of `RunMetrics`), per-service atomics surfaced via
//!    [`DedupService::stats`], a log2-bucket latency histogram for
//!    coarse-grained p50/p99, per-request [`LookupCost`] on every
//!    [`QueryAnswer`], and a streaming distinct-entity estimate
//!    ([`crate::distinct::DistinctEstimator`]) fed with each duplicate
//!    group's canonical key after every admitted batch.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

use fuzzydedup_metrics::{incr, Counter, ServiceMetrics};
use fuzzydedup_nnindex::LookupCost;
use fuzzydedup_relation::Neighbor;
use fuzzydedup_textdist::Distance;

use crate::distinct::DistinctEstimator;
use crate::incremental::{IncrementalDedup, IncrementalDedupBuilder};
use crate::partition::Partition;
use crate::pipeline::DedupError;

// ---------------------------------------------------------------------------
// Epoch pair: wait-free snapshot reads over a pair of states.
// ---------------------------------------------------------------------------

struct EpochInner<T> {
    /// Monotone publication counter; `epoch & 1` selects the active slot.
    epoch: AtomicU64,
    /// In-flight reader counts, one per slot.
    readers: [AtomicU64; 2],
    slots: [UnsafeCell<T>; 2],
}

// SAFETY: access to `slots` is mediated by the epoch/reader-count protocol
// below — the writer only mutates a slot after observing its reader count
// at zero while the epoch parity keeps new readers off it, and readers only
// dereference a slot they have registered on and re-validated.
unsafe impl<T: Send + Sync> Sync for EpochInner<T> {}
unsafe impl<T: Send> Send for EpochInner<T> {}

/// Decrements the registered reader count even if the read closure panics.
struct ReadGuard<'a> {
    count: &'a AtomicU64,
}

impl Drop for ReadGuard<'_> {
    fn drop(&mut self) {
        self.count.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Write handle of an [`epoch_pair`]. Not `Clone`: single-writer is
/// enforced by the type system, not by a runtime lock.
pub struct EpochWriter<T> {
    inner: Arc<EpochInner<T>>,
}

/// Read handle of an [`epoch_pair`]; cheap to clone and share.
pub struct EpochReader<T> {
    inner: Arc<EpochInner<T>>,
}

impl<T> Clone for EpochReader<T> {
    fn clone(&self) -> Self {
        Self { inner: Arc::clone(&self.inner) }
    }
}

/// Create a left-right epoch pair over two *identical* states.
///
/// The caller promises `left` and `right` start out equivalent; every
/// [`EpochWriter::publish_with`] call mutates one side and then brings the
/// other level with it, so they stay equivalent and readers may be served
/// from either side.
pub fn epoch_pair<T>(left: T, right: T) -> (EpochWriter<T>, EpochReader<T>) {
    let inner = Arc::new(EpochInner {
        epoch: AtomicU64::new(0),
        readers: [AtomicU64::new(0), AtomicU64::new(0)],
        slots: [UnsafeCell::new(left), UnsafeCell::new(right)],
    });
    (EpochWriter { inner: Arc::clone(&inner) }, EpochReader { inner })
}

impl<T> EpochReader<T> {
    /// Run `f` against the current snapshot and its epoch.
    ///
    /// Wait-free with respect to the writer's rebuild: the writer mutates
    /// only the *inactive* slot while this side stays published, so the
    /// closure runs to completion on a consistent state no matter how long
    /// the concurrent `insert_batch` takes. A reader retries only across
    /// the writer's epoch *flip* (one atomic store per admitted batch),
    /// never across the rebuild itself.
    pub fn read<R>(&self, f: impl FnOnce(u64, &T) -> R) -> R {
        loop {
            let e = self.inner.epoch.load(Ordering::SeqCst);
            let i = (e & 1) as usize;
            self.inner.readers[i].fetch_add(1, Ordering::SeqCst);
            if self.inner.epoch.load(Ordering::SeqCst) != e {
                // Writer flipped between our epoch load and registration;
                // it may already be mutating slot `i`. Back off and re-read
                // the new active side.
                self.inner.readers[i].fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            // Registered on the active slot and re-validated: the writer
            // cannot start mutating it before observing our count at zero.
            let guard = ReadGuard { count: &self.inner.readers[i] };
            // SAFETY: protocol above; the guard keeps the slot pinned (and
            // unpins it even if `f` panics).
            let out = f(e, unsafe { &*self.inner.slots[i].get() });
            drop(guard);
            return out;
        }
    }

    /// The epoch of the currently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::SeqCst)
    }
}

impl<T> EpochWriter<T> {
    /// Publish a mutation; returns the new epoch.
    ///
    /// `apply` runs once, on the inactive slot, while reads proceed on the
    /// active one; the epoch then flips with a single atomic store. Once
    /// the readers still pinned to the old slot have left, `catch_up`
    /// receives that now-stale slot, the just-published one, and `apply`'s
    /// result, and must make the stale slot equal to the published one —
    /// by copying results, or by re-running a deterministic `apply`.
    ///
    /// Readers are never blocked. The *writer* briefly waits for
    /// stragglers (a reader mid-closure on a slot it is about to touch) —
    /// backpressure lands on the ingest path, where it belongs. During
    /// `catch_up` the writer only reads the published slot, as readers do.
    pub fn publish_with<R>(
        &mut self,
        apply: impl FnOnce(&mut T) -> R,
        catch_up: impl FnOnce(&mut T, &T, R),
    ) -> u64 {
        let e = self.inner.epoch.load(Ordering::SeqCst);
        let inactive = ((e + 1) & 1) as usize;
        // Stragglers from epoch e-1 may still be inside the inactive slot
        // (they will re-validate, fail, and unregister).
        while self.inner.readers[inactive].load(Ordering::SeqCst) != 0 {
            std::hint::spin_loop();
        }
        // SAFETY: epoch parity routes all new readers to the other slot,
        // and the spin above drained the old ones.
        let result = apply(unsafe { &mut *self.inner.slots[inactive].get() });
        self.inner.epoch.store(e + 1, Ordering::SeqCst);
        // Bring the previously active side up to date for the next cycle;
        // wait out readers still pinned to it.
        let old = (e & 1) as usize;
        while self.inner.readers[old].load(Ordering::SeqCst) != 0 {
            std::hint::spin_loop();
        }
        // SAFETY: no reader is registered on `old` and new readers go to
        // the published side, which everyone — this writer included —
        // only reads until the next call.
        let (stale, published) =
            unsafe { (&mut *self.inner.slots[old].get(), &*self.inner.slots[inactive].get()) };
        catch_up(stale, published, result);
        e + 1
    }
}

// ---------------------------------------------------------------------------
// Service configuration and errors.
// ---------------------------------------------------------------------------

/// Tuning knobs for [`DedupService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ServiceConfig {
    /// Maximum records admitted per `insert_batch` call (default 64).
    /// Larger batches amortize the affected-set scan and Phase-2 recompute
    /// but lengthen the freshness lag between submission and visibility.
    pub admit_batch_size: usize,
    /// Bounded ingest-queue capacity (default 1024). When full,
    /// [`DedupService::submit`] fails fast and
    /// [`DedupService::submit_wait`] blocks.
    pub queue_capacity: usize,
    /// Sample cap for the streaming distinct-entity estimate
    /// (default 4096; exact until that many distinct groups are seen).
    pub distinct_sample_cap: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self { admit_batch_size: 64, queue_capacity: 1024, distinct_sample_cap: 4096 }
    }
}

impl ServiceConfig {
    /// The defaults; fields are adjusted by record update syntax being
    /// unavailable (`#[non_exhaustive]`), so use the setters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set [`Self::admit_batch_size`].
    pub fn admit_batch_size(mut self, n: usize) -> Self {
        self.admit_batch_size = n;
        self
    }

    /// Set [`Self::queue_capacity`].
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n;
        self
    }

    /// Set [`Self::distinct_sample_cap`].
    pub fn distinct_sample_cap(mut self, n: usize) -> Self {
        self.distinct_sample_cap = n;
        self
    }

    fn validate(&self) -> Result<(), ServiceError> {
        if self.admit_batch_size == 0 {
            return Err(ServiceError::InvalidConfig("admit_batch_size must be >= 1".into()));
        }
        if self.queue_capacity == 0 {
            return Err(ServiceError::InvalidConfig("queue_capacity must be >= 1".into()));
        }
        Ok(())
    }
}

/// Errors surfaced by [`DedupService`], following the [`DedupError`]
/// conventions (`#[non_exhaustive]`, `Display` + `source()` chains).
#[derive(Debug)]
#[non_exhaustive]
pub enum ServiceError {
    /// The bounded ingest queue is at capacity; retry, or use
    /// [`DedupService::submit_wait`].
    QueueFull {
        /// The configured capacity that was hit.
        capacity: usize,
    },
    /// The service is shutting down and no longer accepts records.
    ShuttingDown,
    /// Invalid [`ServiceConfig`].
    InvalidConfig(String),
    /// The underlying incremental state failed to build.
    Build(DedupError),
    /// The writer thread panicked; the service admits nothing more, but
    /// queries keep answering from the last published epoch.
    WriterFailed,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::QueueFull { capacity } => {
                write!(f, "ingest queue full (capacity {capacity})")
            }
            Self::ShuttingDown => write!(f, "service is shutting down"),
            Self::InvalidConfig(why) => write!(f, "invalid service configuration: {why}"),
            Self::Build(_) => write!(f, "failed to build the incremental dedup state"),
            Self::WriterFailed => write!(f, "the service writer thread failed"),
        }
    }
}

impl Error for ServiceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Build(inner) => Some(inner),
            _ => None,
        }
    }
}

impl From<DedupError> for ServiceError {
    fn from(e: DedupError) -> Self {
        Self::Build(e)
    }
}

// ---------------------------------------------------------------------------
// Latency histogram (log2 buckets, lock-free).
// ---------------------------------------------------------------------------

/// 64 power-of-two buckets over nanoseconds. Coarse by construction —
/// quantiles are accurate to a factor of 2, which is what a live `stats()`
/// endpoint needs. The replay bench computes *exact* quantiles from its own
/// recorded timings instead.
struct LatencyHistogram {
    buckets: [AtomicU64; 64],
}

impl LatencyHistogram {
    fn new() -> Self {
        Self { buckets: std::array::from_fn(|_| AtomicU64::new(0)) }
    }

    fn record(&self, ns: u64) {
        let b = (64 - ns.leading_zeros()).min(63) as usize;
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
    }

    /// Upper bound of the bucket holding the `q`-quantile, 0 if empty.
    fn quantile_ns(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (b, &count) in counts.iter().enumerate() {
            seen += count;
            if seen >= target {
                return if b == 0 { 0 } else { (1u64 << b) - 1 };
            }
        }
        u64::MAX
    }
}

// ---------------------------------------------------------------------------
// The service.
// ---------------------------------------------------------------------------

struct QueueState {
    pending: VecDeque<Vec<String>>,
    shutdown: bool,
    /// The writer is applying an admitted batch (pending may be empty while
    /// records are still becoming visible — drain must wait this out).
    in_flight: bool,
    /// The writer died; pending records will never be admitted.
    writer_failed: bool,
    depth_high_water: usize,
}

impl QueueState {
    /// Why a submission is refused, if it is.
    fn refusal(&self) -> Option<ServiceError> {
        if self.writer_failed {
            Some(ServiceError::WriterFailed)
        } else if self.shutdown {
            Some(ServiceError::ShuttingDown)
        } else {
            None
        }
    }
}

struct ServiceShared {
    queue: Mutex<QueueState>,
    /// Signaled when records arrive or shutdown begins (writer waits).
    work: Condvar,
    /// Signaled when queue space frees up (blocking submitters wait).
    space: Condvar,
    /// Signaled when the queue is empty *and* nothing is in flight.
    idle: Condvar,
    batches_admitted: AtomicU64,
    records_admitted: AtomicU64,
    epochs_published: AtomicU64,
    point_queries: AtomicU64,
    queue_rejections: AtomicU64,
    latency: LatencyHistogram,
    distinct: Mutex<DistinctEstimator>,
}

/// One point-query response; see [`DedupService::query`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct QueryAnswer {
    /// Epoch of the snapshot that answered (monotone across the service).
    pub epoch: u64,
    /// Records in the snapshot corpus at answer time.
    pub corpus_len: usize,
    /// The query's NN list against the snapshot, nearest first. A record
    /// already in the corpus sees itself at distance 0.
    pub neighbors: Vec<Neighbor>,
    /// Neighborhood-growth estimate for the query point.
    pub growth: f64,
    /// Index work paid for this request (candidates, filter prunes,
    /// distance calls).
    pub cost: LookupCost,
}

/// Point-in-time service statistics; see [`DedupService::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ServiceStats {
    /// Records visible in the published snapshot.
    pub corpus_len: usize,
    /// Duplicate groups in the published snapshot.
    pub num_groups: usize,
    /// Epoch of the published snapshot.
    pub epoch: u64,
    /// `insert_batch` calls admitted so far.
    pub batches_admitted: u64,
    /// Records admitted so far.
    pub records_admitted: u64,
    /// Snapshot epochs published so far.
    pub epochs_published: u64,
    /// Point queries served so far.
    pub point_queries: u64,
    /// Fast-fail submissions rejected with [`ServiceError::QueueFull`].
    pub queue_rejections: u64,
    /// Records currently waiting for admission.
    pub queue_depth: usize,
    /// Highest queue depth observed.
    pub queue_depth_high_water: usize,
    /// Median point-query latency (log2-bucket upper bound; 0 if none).
    pub query_p50_ns: u64,
    /// 99th-percentile point-query latency (log2-bucket upper bound).
    pub query_p99_ns: u64,
    /// Streaming estimate of distinct entities carried by the stream.
    pub distinct_groups_estimate: u64,
    /// Whether that estimate is still exact (sample under its cap).
    pub distinct_is_exact: bool,
    /// The writer thread died (see [`ServiceError::WriterFailed`]):
    /// nothing submitted after the last published epoch will ever become
    /// visible, and every further submission is refused.
    pub writer_failed: bool,
}

/// A long-running dedup service over the incremental path; see module docs.
///
/// Dropping the handle shuts the service down gracefully: the writer
/// drains every already-submitted record, then exits.
pub struct DedupService<D: Distance + Clone + 'static> {
    shared: Arc<ServiceShared>,
    reader: EpochReader<IncrementalDedup<D>>,
    writer: Option<JoinHandle<()>>,
    config: ServiceConfig,
}

impl<D: Distance + Clone + 'static> DedupService<D> {
    /// Start a service over an empty incremental state described by
    /// `builder`. The builder is built twice — once per epoch-pair side,
    /// sharing one pair cache — which is why `D: Clone`.
    pub fn spawn(
        builder: IncrementalDedupBuilder<D>,
        config: ServiceConfig,
    ) -> Result<Self, ServiceError> {
        config.validate()?;
        let (left, right) = builder.build_twins()?;
        let (writer_handle, reader) = epoch_pair(left, right);
        let shared = Arc::new(ServiceShared {
            queue: Mutex::new(QueueState {
                pending: VecDeque::new(),
                shutdown: false,
                in_flight: false,
                writer_failed: false,
                depth_high_water: 0,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            idle: Condvar::new(),
            batches_admitted: AtomicU64::new(0),
            records_admitted: AtomicU64::new(0),
            epochs_published: AtomicU64::new(0),
            point_queries: AtomicU64::new(0),
            queue_rejections: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
            distinct: Mutex::new(DistinctEstimator::new(config.distinct_sample_cap)),
        });
        let writer = {
            let shared = Arc::clone(&shared);
            let admit = config.admit_batch_size;
            std::thread::Builder::new()
                .name("dedup-service-writer".into())
                .spawn(move || writer_loop(writer_handle, shared, admit))
                .expect("spawn service writer thread")
        };
        Ok(Self { shared, reader, writer: Some(writer), config })
    }

    /// Submit one record for admission; fails fast when the queue is full.
    pub fn submit(&self, record: Vec<String>) -> Result<(), ServiceError> {
        let mut q = self.shared.queue.lock().unwrap();
        if let Some(refused) = q.refusal() {
            return Err(refused);
        }
        if q.pending.len() >= self.config.queue_capacity {
            self.shared.queue_rejections.fetch_add(1, Ordering::Relaxed);
            incr(Counter::ServiceQueueRejections, 1);
            return Err(ServiceError::QueueFull { capacity: self.config.queue_capacity });
        }
        q.pending.push_back(record);
        q.depth_high_water = q.depth_high_water.max(q.pending.len());
        drop(q);
        self.shared.work.notify_one();
        Ok(())
    }

    /// Submit one record, blocking for queue space if necessary (the
    /// "await" flavor of backpressure).
    pub fn submit_wait(&self, record: Vec<String>) -> Result<(), ServiceError> {
        let mut q = self.shared.queue.lock().unwrap();
        loop {
            if let Some(refused) = q.refusal() {
                return Err(refused);
            }
            if q.pending.len() < self.config.queue_capacity {
                q.pending.push_back(record);
                q.depth_high_water = q.depth_high_water.max(q.pending.len());
                drop(q);
                self.shared.work.notify_one();
                return Ok(());
            }
            q = self.shared.space.wait(q).unwrap();
        }
    }

    /// Find duplicates of `fields` against the current snapshot — the
    /// wait-free read path (see [`EpochReader::read`]).
    pub fn query(&self, fields: &[&str]) -> QueryAnswer {
        let started = std::time::Instant::now();
        let answer = self.reader.read(|epoch, state| {
            let (neighbors, growth, cost) = state.query_record(fields);
            QueryAnswer { epoch, corpus_len: state.len(), neighbors, growth, cost }
        });
        let ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.shared.latency.record(ns);
        self.shared.point_queries.fetch_add(1, Ordering::Relaxed);
        incr(Counter::ServicePointQueries, 1);
        answer
    }

    /// Run `f` against the published snapshot (epoch + state). For
    /// consumers that need more than one coherent answer — e.g. the drain
    /// identity check reads the whole partition in one snapshot.
    pub fn with_snapshot<R>(&self, f: impl FnOnce(u64, &IncrementalDedup<D>) -> R) -> R {
        self.reader.read(f)
    }

    /// Clone the published partition along with its epoch.
    pub fn snapshot_partition(&self) -> (u64, Partition) {
        self.reader.read(|epoch, state| (epoch, state.partition().clone()))
    }

    /// An additional read handle for other threads (queries only).
    pub fn reader(&self) -> EpochReader<IncrementalDedup<D>> {
        self.reader.clone()
    }

    /// Block until every record submitted so far is visible to queries,
    /// or until the writer has failed (then the records still pending
    /// never become visible; see [`ServiceError::WriterFailed`]).
    ///
    /// A returning drain does not say which of the two happened: callers
    /// that need the records visible check [`ServiceStats::writer_failed`]
    /// afterwards.
    pub fn drain(&self) {
        let mut q = self.shared.queue.lock().unwrap();
        while (!q.pending.is_empty() || q.in_flight) && !q.writer_failed {
            q = self.shared.idle.wait(q).unwrap();
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> ServiceStats {
        let (epoch, corpus_len, num_groups) =
            self.reader.read(|epoch, state| (epoch, state.len(), state.partition().num_groups()));
        let (queue_depth, depth_high_water, writer_failed) = {
            let q = self.shared.queue.lock().unwrap();
            (q.pending.len(), q.depth_high_water, q.writer_failed)
        };
        let (distinct_groups_estimate, distinct_is_exact) = {
            let d = self.shared.distinct.lock().unwrap();
            (d.estimate(), d.is_exact())
        };
        ServiceStats {
            corpus_len,
            num_groups,
            epoch,
            batches_admitted: self.shared.batches_admitted.load(Ordering::Relaxed),
            records_admitted: self.shared.records_admitted.load(Ordering::Relaxed),
            epochs_published: self.shared.epochs_published.load(Ordering::Relaxed),
            point_queries: self.shared.point_queries.load(Ordering::Relaxed),
            queue_rejections: self.shared.queue_rejections.load(Ordering::Relaxed),
            queue_depth,
            queue_depth_high_water: depth_high_water,
            query_p50_ns: self.shared.latency.quantile_ns(0.50),
            query_p99_ns: self.shared.latency.quantile_ns(0.99),
            distinct_groups_estimate,
            distinct_is_exact,
            writer_failed,
        }
    }

    /// The service-local view of the `service` RunMetrics section,
    /// including the service-filled fields the global counters cannot
    /// carry (high-water depth, latency quantiles).
    pub fn service_metrics(&self) -> ServiceMetrics {
        let s = self.stats();
        ServiceMetrics {
            batches_admitted: s.batches_admitted,
            records_admitted: s.records_admitted,
            epochs_published: s.epochs_published,
            point_queries: s.point_queries,
            queue_rejections: s.queue_rejections,
            queue_depth_high_water: s.queue_depth_high_water as u64,
            query_p50_ns: s.query_p50_ns,
            query_p99_ns: s.query_p99_ns,
        }
    }

    /// Stop accepting records, drain everything already submitted, and
    /// join the writer. Idempotent; queries keep working afterwards
    /// against the final snapshot.
    pub fn shutdown(&mut self) {
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.shutdown = true;
        }
        self.shared.work.notify_all();
        self.shared.space.notify_all();
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
    }
}

impl<D: Distance + Clone + 'static> Drop for DedupService<D> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Armed for the writer's lifetime: if the writer unwinds, nothing would
/// otherwise clear `in_flight` or wake the waiters, so `drain` and
/// `submit_wait` would park forever. On unwind it marks the queue shut and
/// the writer failed, and wakes everyone.
struct WriterExitGuard<'a> {
    shared: &'a ServiceShared,
}

impl Drop for WriterExitGuard<'_> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        let mut q = self.shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
        q.in_flight = false;
        q.shutdown = true;
        q.writer_failed = true;
        drop(q);
        self.shared.idle.notify_all();
        self.shared.space.notify_all();
        self.shared.work.notify_all();
    }
}

fn writer_loop<D: Distance + Clone + 'static>(
    mut writer: EpochWriter<IncrementalDedup<D>>,
    shared: Arc<ServiceShared>,
    admit_batch_size: usize,
) {
    let _exit_guard = WriterExitGuard { shared: &shared };
    loop {
        let batch: Vec<Vec<String>> = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if !q.pending.is_empty() {
                    let take = admit_batch_size.min(q.pending.len());
                    let batch: Vec<Vec<String>> = q.pending.drain(..take).collect();
                    q.in_flight = true;
                    break batch;
                }
                if q.shutdown {
                    // Queue fully drained: safe to exit.
                    return;
                }
                q = shared.work.wait(q).unwrap();
            }
        };
        shared.space.notify_all();

        let n_records = batch.len() as u64;
        // Canonical keys of the duplicate groups after this batch, taken
        // from the side that computed it.
        let mut group_keys: Vec<u64> = Vec::new();
        let epoch = writer.publish_with(
            |state| {
                let (_, refreshed) = state.apply_batch(batch.iter().cloned());
                group_keys = state
                    .partition()
                    .groups()
                    .iter()
                    .map(|g| u64::from(*g.iter().min().expect("non-empty group")))
                    .collect();
                refreshed
            },
            |stale, published, refreshed| {
                stale.catch_up(batch.iter().cloned(), published, &refreshed);
            },
        );

        shared.batches_admitted.fetch_add(1, Ordering::Relaxed);
        shared.records_admitted.fetch_add(n_records, Ordering::Relaxed);
        shared.epochs_published.store(epoch, Ordering::Relaxed);
        incr(Counter::ServiceBatchesAdmitted, 1);
        incr(Counter::ServiceRecordsAdmitted, n_records);
        incr(Counter::ServiceEpochsPublished, 1);
        {
            let mut distinct = shared.distinct.lock().unwrap();
            for key in group_keys {
                distinct.observe(key);
            }
        }

        let mut q = shared.queue.lock().unwrap();
        q.in_flight = false;
        if q.pending.is_empty() {
            shared.idle.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::criteria::Aggregation;
    use crate::pipeline::{DedupConfig, Deduplicator};
    use crate::problem::CutSpec;
    use fuzzydedup_textdist::{DistanceKind, EditDistance};
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    fn builder() -> IncrementalDedupBuilder<EditDistance> {
        IncrementalDedup::builder(EditDistance).cut(CutSpec::Size(4)).sn_threshold(4.0)
    }

    fn corpus(n: usize) -> Vec<Vec<String>> {
        (0..n)
            .map(|i| {
                let v = if i % 3 == 0 {
                    format!("service entity {:03} kappa", i / 3)
                } else {
                    format!("service entity {:03} kappaa", i / 3)
                };
                vec![v]
            })
            .collect()
    }

    /// A `catch_up` for plain values: copy the published side, after
    /// checking that `apply` handed over what it published.
    fn copy_published(stale: &mut u64, published: &u64, applied: u64) {
        assert_eq!(*published, applied, "catch_up must receive the published value");
        *stale = *published;
    }

    #[test]
    fn epoch_pair_reads_latest_published_value() {
        let (mut w, r) = epoch_pair(0u64, 0u64);
        assert_eq!(r.read(|e, v| (e, *v)), (0, 0));
        let e = w.publish_with(
            |v| {
                *v += 7;
                *v
            },
            copy_published,
        );
        assert_eq!(e, 1);
        assert_eq!(r.read(|e, v| (e, *v)), (1, 7));
        w.publish_with(
            |v| {
                *v += 1;
                *v
            },
            copy_published,
        );
        assert_eq!(r.read(|_, v| *v), 8);
        // The stale side was caught up too: the next apply starts from 8.
        w.publish_with(|v| *v, copy_published);
        assert_eq!(r.read(|e, v| (e, *v)), (3, 8));
    }

    #[test]
    fn epoch_pair_reader_is_wait_free_during_rebuild() {
        // Block the writer mid-apply (inactive slot) and prove a reader
        // still completes against the published side.
        let (mut w, r) = epoch_pair(1u64, 1u64);
        let entered = Arc::new(Barrier::new(2));
        let release = Arc::new(Barrier::new(2));
        let writer = {
            let (entered, release) = (Arc::clone(&entered), Arc::clone(&release));
            std::thread::spawn(move || {
                w.publish_with(
                    |v| {
                        entered.wait(); // writer is now inside the rebuild
                        release.wait(); // ... and stays there until released
                        *v = 2;
                        *v
                    },
                    copy_published,
                );
            })
        };
        entered.wait();
        // The writer is parked inside `apply` on the inactive slot. Reads
        // must still answer from the published snapshot without blocking.
        for _ in 0..100 {
            assert_eq!(r.read(|e, v| (e, *v)), (0, 1));
        }
        release.wait();
        writer.join().unwrap();
        assert_eq!(r.read(|e, v| (e, *v)), (1, 2));
    }

    #[test]
    fn epoch_pair_read_survives_panicking_closure() {
        let (mut w, r) = epoch_pair(5u64, 5u64);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            r.read(|_, _| panic!("reader closure panic"));
        }));
        assert!(panicked.is_err());
        // The reader count was released by the guard: the writer neither
        // deadlocks nor observes a phantom reader.
        w.publish_with(
            |v| {
                *v += 1;
                *v
            },
            copy_published,
        );
        assert_eq!(r.read(|_, v| *v), 6);
    }

    #[test]
    fn service_error_display_and_source_chain() {
        let full = ServiceError::QueueFull { capacity: 8 };
        assert_eq!(full.to_string(), "ingest queue full (capacity 8)");
        assert!(full.source().is_none());

        assert_eq!(ServiceError::ShuttingDown.to_string(), "service is shutting down");

        let build: ServiceError = DedupError::InvalidConfig("bad cut".into()).into();
        assert_eq!(build.to_string(), "failed to build the incremental dedup state");
        let source = build.source().expect("Build carries its cause");
        assert_eq!(source.to_string(), "invalid configuration: bad cut");

        let bad = ServiceError::InvalidConfig("admit_batch_size must be >= 1".into());
        assert!(bad.to_string().contains("invalid service configuration"));

        let failed = ServiceError::WriterFailed;
        assert_eq!(failed.to_string(), "the service writer thread failed");
        assert!(failed.source().is_none());
    }

    #[test]
    fn spawn_rejects_invalid_configs() {
        let zero_batch = ServiceConfig::new().admit_batch_size(0);
        assert!(matches!(
            DedupService::spawn(builder(), zero_batch),
            Err(ServiceError::InvalidConfig(_))
        ));
        let zero_queue = ServiceConfig::new().queue_capacity(0);
        assert!(matches!(
            DedupService::spawn(builder(), zero_queue),
            Err(ServiceError::InvalidConfig(_))
        ));
        // Builder validation errors surface through the Build variant.
        let bad_builder = builder().cut(CutSpec::Size(1));
        assert!(matches!(
            DedupService::spawn(bad_builder, ServiceConfig::new()),
            Err(ServiceError::Build(DedupError::InvalidConfig(_)))
        ));
    }

    #[test]
    fn drain_identity_matches_batch_pipeline() {
        let records = corpus(90);
        let mut service =
            DedupService::spawn(builder(), ServiceConfig::new().admit_batch_size(16)).unwrap();
        for r in records.clone() {
            service.submit_wait(r).unwrap();
        }
        service.drain();
        // Identical config on the batch pipeline: EditDistance, DE_S(4),
        // Max, c=4 — the static/dynamic index defaults already agree.
        let batch = Deduplicator::new(
            DedupConfig::new(DistanceKind::EditDistance)
                .cut(CutSpec::Size(4))
                .aggregation(Aggregation::Max)
                .sn_threshold(4.0),
        )
        .run_records(&records)
        .unwrap();
        let (_, live) = service.snapshot_partition();
        assert_eq!(live, batch.partition, "service-after-drain must equal from-scratch batch");
        // Point queries agree with membership: an indexed record's own text
        // hits at distance 0 (possibly via an identical twin record).
        for record in records.iter().step_by(13) {
            let fields: Vec<&str> = record.iter().map(String::as_str).collect();
            let answer = service.query(&fields);
            let hit = answer.neighbors[0];
            assert_eq!(hit.dist, 0.0);
            assert_eq!(&records[hit.id as usize], record);
        }
        let stats = service.stats();
        assert_eq!(stats.records_admitted, records.len() as u64);
        assert_eq!(stats.corpus_len, records.len());
        assert!(stats.batches_admitted >= (records.len() / 16) as u64);
        assert_eq!(stats.epochs_published, stats.epoch);
        assert!(stats.point_queries >= 7);
        assert!(stats.query_p50_ns > 0);
        assert!(stats.distinct_groups_estimate > 0);
        service.shutdown();
        // Queries keep working after shutdown; ingest does not.
        let fields: Vec<&str> = records[0].iter().map(String::as_str).collect();
        assert_eq!(service.query(&fields).neighbors[0].id, 0);
        assert!(matches!(service.submit(vec!["late".into()]), Err(ServiceError::ShuttingDown)));
    }

    #[test]
    fn drain_identity_holds_with_collapse() {
        // The collapse pre-pass on the ingest path: duplicate-heavy
        // streams bump representative multiplicities instead of
        // re-indexing, and the service surfaces (partition, corpus_len,
        // point queries) still match the collapse-off batch pipeline.
        let records = corpus(90); // 30 entities × (1 kappa + 2 kappaa): exact repeats
        let mut service = DedupService::spawn(
            builder().collapse(Some(crate::collapse::CollapseKey::RecordString)),
            ServiceConfig::new().admit_batch_size(16),
        )
        .unwrap();
        for r in records.clone() {
            service.submit_wait(r).unwrap();
        }
        service.drain();
        let batch = Deduplicator::new(
            DedupConfig::new(DistanceKind::EditDistance)
                .cut(CutSpec::Size(4))
                .aggregation(Aggregation::Max)
                .sn_threshold(4.0),
        )
        .run_records(&records)
        .unwrap();
        let (_, live) = service.snapshot_partition();
        assert_eq!(live, batch.partition, "collapsed service must equal collapse-off batch");
        let (live_reln, live_len) =
            service.with_snapshot(|_, state| (state.nn_reln(), state.len()));
        assert_eq!(live_reln, batch.nn_reln, "full-corpus relation must match too");
        assert_eq!(live_len, records.len());
        // Point queries answer in full-corpus ids, duplicates included.
        for record in records.iter().step_by(13) {
            let fields: Vec<&str> = record.iter().map(String::as_str).collect();
            let answer = service.query(&fields);
            assert_eq!(answer.corpus_len, records.len());
            let hit = answer.neighbors[0];
            assert_eq!(hit.dist, 0.0);
            assert_eq!(&records[hit.id as usize], record);
        }
        let stats = service.stats();
        assert_eq!(stats.records_admitted, records.len() as u64);
        assert_eq!(stats.corpus_len, records.len());
        service.shutdown();
    }

    /// Both epoch slots of a service whose writer has exited.
    fn both_slots<D: Distance + Clone + 'static>(
        service: &DedupService<D>,
    ) -> (&IncrementalDedup<D>, &IncrementalDedup<D>) {
        assert!(service.writer.is_none(), "read both slots only after shutdown");
        let inner = &service.reader.inner;
        // SAFETY: the writer thread has been joined, so nothing mutates
        // either slot any more.
        unsafe { (&*inner.slots[0].get(), &*inner.slots[1].get()) }
    }

    #[test]
    fn drained_epoch_slots_are_bit_identical() {
        for key in [None, Some(crate::collapse::CollapseKey::RecordString)] {
            let mut service = DedupService::spawn(
                builder().collapse(key).pair_cache_capacity(1 << 10),
                ServiceConfig::new().admit_batch_size(7),
            )
            .unwrap();
            for r in corpus(60) {
                service.submit_wait(r).unwrap();
            }
            service.drain();
            service.shutdown();
            assert!(service.stats().batches_admitted >= 60 / 7);
            let (left, right) = both_slots(&service);
            left.assert_twin_of(right);
            assert!(left.shares_pair_cache_with(right), "{key:?}: one memo for both sides");
        }
    }

    /// Edit distance that panics when either side carries a marker — a
    /// fault injected into the writer's refresh.
    #[derive(Clone)]
    struct PanicsOnMarker;

    const MARKER: &str = "poison";

    impl Distance for PanicsOnMarker {
        fn distance(&self, a: &[&str], b: &[&str]) -> f64 {
            let marked = |r: &[&str]| r.iter().any(|f| f.contains(MARKER));
            assert!(!marked(a) && !marked(b), "injected distance fault");
            EditDistance.distance(a, b)
        }

        fn name(&self) -> &str {
            "panics-on-marker"
        }
    }

    #[test]
    fn writer_death_does_not_hang_the_service() {
        let mut service = DedupService::spawn(
            IncrementalDedup::builder(PanicsOnMarker).cut(CutSpec::Size(4)).sn_threshold(4.0),
            ServiceConfig::new().admit_batch_size(4).queue_capacity(2),
        )
        .unwrap();
        let records = corpus(12);
        for r in records.clone() {
            service.submit_wait(r).unwrap();
        }
        service.drain();
        let before = service.stats();
        assert_eq!(before.corpus_len, records.len());
        assert!(!before.writer_failed, "a healthy drained service reports a live writer");
        // Shares terms with the corpus, so its refresh verifies a pair.
        service.submit_wait(vec![format!("service entity 001 kappa {MARKER}")]).unwrap();
        // Must return although the batch never publishes.
        service.drain();
        assert!(service.stats().writer_failed, "the drain returned on a dead writer");
        // The queue holds 2: without the failure surfacing, the third
        // blocking submit would park forever.
        for i in 0..3 {
            let late = service.submit_wait(vec![format!("late record {i}")]);
            assert!(matches!(late, Err(ServiceError::WriterFailed)), "{late:?}");
        }
        assert!(matches!(service.submit(vec!["late".into()]), Err(ServiceError::WriterFailed)));
        // Queries answer from the last published epoch.
        let fields: Vec<&str> = records[3].iter().map(String::as_str).collect();
        let answer = service.query(&fields);
        assert_eq!(answer.epoch, before.epoch);
        assert_eq!(answer.corpus_len, records.len());
        assert_eq!(answer.neighbors[0].dist, 0.0);
        assert_eq!(service.snapshot_partition().0, before.epoch);
        service.shutdown();
    }

    #[test]
    fn queries_never_observe_torn_state_during_ingest() {
        let records = corpus(120);
        let mut service = DedupService::spawn(
            builder(),
            ServiceConfig::new().admit_batch_size(8).queue_capacity(32),
        )
        .unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let probes: Vec<Vec<String>> = records.iter().step_by(11).cloned().collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let reader = service.reader();
                let stop = Arc::clone(&stop);
                let probes = probes.clone();
                std::thread::spawn(move || {
                    let mut last_epoch = 0u64;
                    let mut reads = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        for probe in &probes {
                            let fields: Vec<&str> = probe.iter().map(String::as_str).collect();
                            let (epoch, len, covered, neighbors) = reader.read(|e, state| {
                                let covered: usize =
                                    state.partition().groups().iter().map(Vec::len).sum();
                                let (n, _, _) = state.query_record(&fields);
                                (e, state.len(), covered, n)
                            });
                            // Torn-state checks, all within ONE snapshot:
                            // the partition covers exactly the corpus, every
                            // neighbor id is in range, epochs are monotone.
                            assert_eq!(covered, len, "partition must cover the corpus exactly");
                            assert!(neighbors.iter().all(|nb| (nb.id as usize) < len));
                            assert!(epoch >= last_epoch, "epochs must be monotone");
                            last_epoch = epoch;
                            reads += 1;
                        }
                    }
                    reads
                })
            })
            .collect();
        for r in records.clone() {
            service.submit_wait(r).unwrap();
        }
        service.drain();
        stop.store(true, Ordering::Relaxed);
        for handle in readers {
            let reads = handle.join().expect("no reader assertion may fire");
            assert!(reads > 0);
        }
        // And after the concurrent episode, drain-identity still holds.
        let batch = Deduplicator::new(
            DedupConfig::new(DistanceKind::EditDistance)
                .cut(CutSpec::Size(4))
                .aggregation(Aggregation::Max)
                .sn_threshold(4.0),
        )
        .run_records(&records)
        .unwrap();
        let (epoch, live) = service.snapshot_partition();
        assert_eq!(live, batch.partition);
        assert!(epoch > 0);
        service.shutdown();
    }

    #[test]
    fn submit_fails_fast_when_queue_full_and_submit_wait_recovers() {
        // A tiny queue against a slow admission cadence: fill it, observe
        // QueueFull, then watch submit_wait push through as space frees.
        let mut service = DedupService::spawn(
            builder(),
            ServiceConfig::new().admit_batch_size(1).queue_capacity(2),
        )
        .unwrap();
        let mut rejected = 0u64;
        for i in 0..200 {
            match service.submit(vec![format!("burst record {i:03}")]) {
                Ok(()) => {}
                Err(ServiceError::QueueFull { capacity }) => {
                    assert_eq!(capacity, 2);
                    rejected += 1;
                    // The blocking flavor must eventually succeed.
                    service.submit_wait(vec![format!("burst record {i:03}")]).unwrap();
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        service.drain();
        let stats = service.stats();
        assert_eq!(stats.records_admitted, 200);
        assert_eq!(stats.queue_rejections, rejected);
        assert!(stats.queue_depth_high_water >= 1);
        service.shutdown();
    }

    #[test]
    fn distinct_estimate_is_exact_on_small_corpora() {
        let records = corpus(60); // 20 entities, 3 records each
        let mut service =
            DedupService::spawn(builder(), ServiceConfig::new().admit_batch_size(7)).unwrap();
        for r in records {
            service.submit_wait(r).unwrap();
        }
        service.drain();
        let stats = service.stats();
        assert!(stats.distinct_is_exact);
        // Every group key ever observed: intermediate batches can expose
        // singleton groups that later merge, so the estimate is at least
        // the final group count.
        assert!(stats.distinct_groups_estimate >= stats.num_groups as u64);
        service.shutdown();
    }
}
