//! Serving over a [`ShardedIndex`]: scatter-gather queries against an
//! epoch-versioned [`ShardedSnapshot`], with a single-writer handle that
//! routes updates to their owning shards and rebuilds shards independently.
//!
//! The concurrency model mirrors [`QueryServer`](crate::QueryServer) /
//! [`IndexWriter`](crate::IndexWriter): readers clone an `Arc` out of an
//! [`RwLock`] (one uncontended read-lock per dispatch), the writer owns the
//! mutable [`ShardedIndex`] behind a [`Mutex`] and publishes each new
//! sharded snapshot atomically. A [`ShardedSnapshot`] is assembled from
//! per-shard `Arc`s **once**, under the writer lock — so every batch
//! observes each shard at exactly one epoch, even while another thread
//! rebuilds shards one at a time: a rebuild of shard 2 never tears into a
//! batch that started before it was published.
//!
//! What sharding buys the serving layer (see `docs/SHARDING.md`):
//!
//! * **per-shard rebuild debt** — an insert routed to shard 0 leaves the
//!   other shards' factorizations untouched, so background refactorization
//!   is per-shard and proportionally cheaper;
//! * **shard skipping** — in-database queries touch exactly one shard
//!   (the block-diagonal union graph makes every other shard's scores
//!   identically zero), and out-of-sample queries probe only the
//!   [`shard_probes`](mogul_core::ShardedConfig::shard_probes) nearest
//!   shards — the [`ShardScatterStats`] on the stats entry points report
//!   how many shards each query skipped.

use crate::error::{ServeError, ServeResult};
use crate::request::{QueryRequest, QueryResponse, ResponseStatus, UpdateRequest};
use mogul_core::shard::ShardedUpdateReport;
use mogul_core::update::{IndexDelta, RebuildDebt};
use mogul_core::{
    OutOfSampleResult, PersistError, ShardScatterStats, ShardedIndex, ShardedSnapshot,
    ShardedWorkspace, TopKResult,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Recycles [`ShardedWorkspace`]s across batches (same policy as the
/// monolithic server's pool: retain at most `cap`, drop the surplus).
#[derive(Debug)]
struct ShardedWorkspacePool {
    stack: Mutex<Vec<ShardedWorkspace>>,
    cap: usize,
}

impl ShardedWorkspacePool {
    fn with_capacity(cap: usize) -> Self {
        ShardedWorkspacePool {
            stack: Mutex::new(Vec::new()),
            cap,
        }
    }

    fn checkout(&self) -> ShardedWorkspace {
        self.stack
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop()
            .unwrap_or_default()
    }

    fn checkin(&self, ws: ShardedWorkspace) {
        let mut stack = self.stack.lock().unwrap_or_else(PoisonError::into_inner);
        if stack.len() < self.cap {
            stack.push(ws);
        }
    }
}

/// One fault injected into a scatter leg by a
/// [`ShardedServer::set_fault_injector`] hook — the deterministic
/// fault-injection surface the degraded-mode tests and benchmarks drive.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardFault {
    /// The shard answers with this typed error instead of a result.
    Error(ServeError),
    /// The shard's solve panics; the degraded scatter loop contains the
    /// panic (and discards the possibly-poisoned workspace).
    Panic,
    /// The shard stalls for this long before answering — long enough, and
    /// the [`DegradedPolicy::scatter_deadline`] fails the leg.
    Stall(Duration),
}

/// Signature of a fault injector: called with the shard index about to be
/// probed; `None` means the shard is healthy.
pub type ShardFaultFn = dyn Fn(usize) -> Option<ShardFault> + Send + Sync;

/// Policy knobs of [`ShardedServer::query_degraded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DegradedPolicy {
    /// Wall-clock budget for one whole scatter: once a query has been
    /// scattering longer than this, every not-yet-probed leg is treated as
    /// failed (the answer degrades to the legs already gathered). `None`
    /// (the default) disables the deadline.
    pub scatter_deadline: Option<Duration>,
}

/// A thread-safe query server over an epoch-versioned, `Arc`-shared
/// [`ShardedSnapshot`] — the sharded counterpart of
/// [`QueryServer`](crate::QueryServer), speaking the same
/// [`QueryRequest`]/[`QueryResponse`] vocabulary and the same typed
/// [`ServeError`] contract.
///
/// ```
/// use mogul_core::update::IndexBuilder;
/// use mogul_core::{ShardedConfig, ShardedIndex};
/// use mogul_serve::{QueryRequest, ShardedServer};
///
/// let features: Vec<Vec<f64>> = (0..24)
///     .map(|i| vec![i as f64 + if i % 2 == 0 { 0.0 } else { 100.0 }, 0.0])
///     .collect();
/// let config = ShardedConfig::with_shards(2).builder(IndexBuilder::new().knn_k(3));
/// let (index, _) = ShardedIndex::build(features, config)?;
/// let server = ShardedServer::from_snapshot(index.snapshot());
///
/// let answers = server.serve_batch(&[
///     QueryRequest::in_database(0, 3),
///     QueryRequest::out_of_sample(vec![50.0, 0.0], 3),
/// ]);
/// for answer in &answers {
///     assert_eq!(answer.as_ref().unwrap().top_k().len(), 3);
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct ShardedServer {
    state: RwLock<Arc<ShardedSnapshot>>,
    pool: ShardedWorkspacePool,
    degraded: RwLock<DegradedPolicy>,
    injector: RwLock<Option<Arc<ShardFaultFn>>>,
}

impl std::fmt::Debug for ShardedServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedServer")
            .field("epoch", &self.epoch())
            .field(
                "degraded",
                &*self.degraded.read().unwrap_or_else(PoisonError::into_inner),
            )
            .field(
                "fault_injector",
                &self
                    .injector
                    .read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .is_some(),
            )
            .finish()
    }
}

impl ShardedServer {
    /// Build a server over an existing sharded snapshot.
    pub fn from_snapshot(snapshot: Arc<ShardedSnapshot>) -> Self {
        ShardedServer {
            state: RwLock::new(snapshot),
            // A handful of retained workspaces covers the steady state of
            // concurrent batch callers; spikes allocate extras and drop them.
            pool: ShardedWorkspacePool::with_capacity(4),
            degraded: RwLock::new(DegradedPolicy::default()),
            injector: RwLock::new(None),
        }
    }

    /// Warm-start a server from a sharded checkpoint directory written by
    /// [`mogul_core::shard::save_sharded`] — every shard is reconstructed
    /// with no precompute, one shard after another, and answers are
    /// bit-identical to a server over the index that was saved.
    pub fn warm_start(dir: impl AsRef<Path>) -> std::result::Result<Self, PersistError> {
        Ok(ShardedServer::from_snapshot(
            mogul_core::load_sharded(dir)?.snapshot(),
        ))
    }

    /// The snapshot new queries are answered from (cheap `Arc` clone; stays
    /// valid and queryable after later swaps).
    pub fn snapshot(&self) -> Arc<ShardedSnapshot> {
        Arc::clone(&self.state.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Sharded epoch of the currently installed snapshot.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch()
    }

    /// Atomically publish a new sharded snapshot and return the previous
    /// one. In-flight batches finish on the snapshot they started with.
    pub fn install_snapshot(&self, next: Arc<ShardedSnapshot>) -> Arc<ShardedSnapshot> {
        let mut slot = self.state.write().unwrap_or_else(PoisonError::into_inner);
        std::mem::replace(&mut *slot, next)
    }

    /// Number of live items in the current snapshot.
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// `true` when the current snapshot holds zero items (never constructed
    /// so).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Answer one request of either kind — validated at admission
    /// ([`QueryRequest::validate_sharded`]), routed/scattered by the
    /// snapshot.
    pub fn query(&self, request: &QueryRequest) -> ServeResult<QueryResponse> {
        let snapshot = self.snapshot();
        request.validate_sharded(&snapshot)?;
        let mut ws = self.pool.checkout();
        let result = Self::answer(&snapshot, &mut ws, request);
        self.pool.checkin(ws);
        result
    }

    /// Top-k for a database item by global stable id.
    pub fn query_by_id(&self, item: usize, k: usize) -> ServeResult<TopKResult> {
        match self.query(&QueryRequest::in_database(item, k))? {
            QueryResponse::InDatabase(top_k) => Ok(top_k),
            QueryResponse::OutOfSample(_) => unreachable!("in-database request"),
        }
    }

    /// Top-k for an arbitrary feature vector (scatter-gather over the
    /// probed shards).
    pub fn query_by_feature(&self, feature: &[f64], k: usize) -> ServeResult<OutOfSampleResult> {
        match self.query(&QueryRequest::out_of_sample(feature.to_vec(), k))? {
            QueryResponse::OutOfSample(result) => Ok(*result),
            QueryResponse::InDatabase(_) => unreachable!("out-of-sample request"),
        }
    }

    /// [`ShardedServer::query`] plus the query's [`ShardScatterStats`]:
    /// how many shards the scatter probed and how many it skipped, with the
    /// Algorithm-2 pruning counters summed across the probed shards.
    pub fn query_with_stats(
        &self,
        request: &QueryRequest,
    ) -> ServeResult<(QueryResponse, ShardScatterStats)> {
        let snapshot = self.snapshot();
        request.validate_sharded(&snapshot)?;
        let mut ws = self.pool.checkout();
        let result = (|| match request {
            QueryRequest::InDatabase { node, k } => {
                let (top, stats) = snapshot.query_by_id_with_stats_in(&mut ws, *node, *k)?;
                Ok((QueryResponse::InDatabase(top), stats))
            }
            QueryRequest::OutOfSample { feature, k } => {
                let (res, stats) = snapshot.query_by_feature_with_stats_in(&mut ws, feature, *k)?;
                Ok((QueryResponse::OutOfSample(Box::new(res)), stats))
            }
        })();
        self.pool.checkin(ws);
        result
    }

    /// The active [`DegradedPolicy`].
    pub fn degraded_policy(&self) -> DegradedPolicy {
        *self.degraded.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Install a [`DegradedPolicy`] (applies to queries starting after the
    /// call).
    pub fn set_degraded_policy(&self, policy: DegradedPolicy) {
        *self
            .degraded
            .write()
            .unwrap_or_else(PoisonError::into_inner) = policy;
    }

    /// Install (or clear) the deterministic fault injector consulted once
    /// per scatter leg by [`ShardedServer::query_degraded`]. Production
    /// servers leave this `None`; the fault-injection harness and the
    /// chaos benchmarks use it to fail, stall or panic specific shards on
    /// a seeded schedule.
    pub fn set_fault_injector(&self, injector: Option<Arc<ShardFaultFn>>) {
        *self
            .injector
            .write()
            .unwrap_or_else(PoisonError::into_inner) = injector;
    }

    /// Answer one request with **degraded-mode scatter-gather**: a probed
    /// shard that fails — typed error, contained panic, injected fault, or
    /// the [`DegradedPolicy::scatter_deadline`] — is dropped from the
    /// gather instead of failing the whole query, and the merged answer of
    /// the surviving legs is tagged [`ResponseStatus::Degraded`]. The
    /// merge reuses the exact gather semantics of the healthy path
    /// ([`ShardedSnapshot::merge_scatter`]), so:
    ///
    /// * when every probed shard answers, the response is **bit-identical**
    ///   to [`ShardedServer::query`] and tagged
    ///   [`ResponseStatus::Complete`];
    /// * when a subset answers, the response is a true sub-merge of the
    ///   healthy shards' answers.
    ///
    /// `require_complete` demands completeness: a query that would degrade
    /// fails typed with [`ServeError::Incomplete`] instead (retryable —
    /// another replica may hold every shard healthy). A query no probed
    /// shard could answer fails the same way regardless of the flag. An
    /// in-database query has exactly one owning shard, so it either
    /// answers complete or fails `Incomplete { 0, 1 }`.
    pub fn query_degraded(
        &self,
        request: &QueryRequest,
        require_complete: bool,
    ) -> ServeResult<(QueryResponse, ResponseStatus)> {
        let snapshot = self.snapshot();
        request.validate_sharded(&snapshot)?;
        let policy = self.degraded_policy();
        let injector = self
            .injector
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let started = Instant::now();
        let over_deadline = |started: &Instant| {
            policy
                .scatter_deadline
                .is_some_and(|d| started.elapsed() > d)
        };

        match request {
            QueryRequest::InDatabase { node, k } => {
                let shard = snapshot.shard_of(*node).expect("validated id is live");
                let failed = || ServeError::Incomplete {
                    shards_answered: 0,
                    shards_total: 1,
                };
                let fault = injector.as_ref().and_then(|f| f(shard));
                if let Some(ShardFault::Stall(pause)) = &fault {
                    std::thread::sleep(*pause);
                }
                if matches!(fault, Some(ShardFault::Error(_))) || over_deadline(&started) {
                    return Err(failed());
                }
                let inject_panic = matches!(fault, Some(ShardFault::Panic));
                let mut ws = self.pool.checkout();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    if inject_panic {
                        panic!("injected shard fault: panic in shard {shard}");
                    }
                    snapshot.query_by_id_in(&mut ws, *node, *k)
                }));
                match outcome {
                    Ok(Ok(top)) => {
                        self.pool.checkin(ws);
                        Ok((QueryResponse::InDatabase(top), ResponseStatus::Complete))
                    }
                    // Typed shard failure or contained panic (the workspace
                    // may be mid-mutation after a panic; it is dropped, not
                    // pooled).
                    _ => Err(failed()),
                }
            }
            QueryRequest::OutOfSample { feature, k } => {
                let order = snapshot.probe_order(feature)?;
                let probes = &order[..snapshot.shard_probes().min(order.len())];
                let mut ws = self.pool.checkout();
                let mut legs: Vec<OutOfSampleResult> = Vec::with_capacity(probes.len());
                for &shard in probes {
                    // Over budget: every remaining leg fails (degrading the
                    // answer to the legs already gathered).
                    if over_deadline(&started) {
                        continue;
                    }
                    let fault = injector.as_ref().and_then(|f| f(shard));
                    match &fault {
                        Some(ShardFault::Error(_)) => continue,
                        Some(ShardFault::Stall(pause)) => {
                            std::thread::sleep(*pause);
                            if over_deadline(&started) {
                                continue;
                            }
                        }
                        _ => {}
                    }
                    let inject_panic = matches!(fault, Some(ShardFault::Panic));
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        if inject_panic {
                            panic!("injected shard fault: panic in shard {shard}");
                        }
                        snapshot.query_shard_by_feature_in(&mut ws, shard, feature, *k)
                    }));
                    match outcome {
                        Ok(Ok(leg)) => legs.push(leg),
                        Ok(Err(_)) => {}
                        Err(_) => {
                            // A panicking leg may leave the workspace
                            // mid-mutation; replace it rather than reuse it.
                            ws = ShardedWorkspace::new();
                        }
                    }
                }
                self.pool.checkin(ws);
                let (shards_answered, shards_total) = (legs.len(), probes.len());
                if shards_answered == 0 || (shards_answered < shards_total && require_complete) {
                    return Err(ServeError::Incomplete {
                        shards_answered,
                        shards_total,
                    });
                }
                let status = if shards_answered == shards_total {
                    ResponseStatus::Complete
                } else {
                    ResponseStatus::Degraded {
                        shards_answered,
                        shards_total,
                    }
                };
                let merged = ShardedSnapshot::merge_scatter(*k, &legs);
                Ok((QueryResponse::OutOfSample(Box::new(merged)), status))
            }
        }
    }

    /// Answer a batch of (possibly mixed) requests, preserving order.
    ///
    /// The snapshot is read **once** per batch, so all answers of one batch
    /// observe every shard at one consistent epoch even if a writer swaps
    /// or rebuilds shards mid-batch. Failures are per-request: each request
    /// is validated at admission and answered independently; one malformed
    /// request never poisons the rest.
    ///
    /// Homogeneous runs are not panel-blocked here — the sharded snapshot's
    /// own batch entry points already group by owning shard; this server
    /// groups **in-database requests by `k`** and feeds each group through
    /// [`ShardedSnapshot::query_batch_by_id_in`], falling back to per-request
    /// answers if a group fails so error reporting stays per-request.
    pub fn serve_batch(&self, requests: &[QueryRequest]) -> Vec<ServeResult<QueryResponse>> {
        let snapshot = self.snapshot();
        let mut answers: Vec<Option<ServeResult<QueryResponse>>> =
            (0..requests.len()).map(|_| None).collect();

        // Admission + grouping: valid in-database requests group by k for
        // the batched path; everything else is answered one by one below.
        let mut id_groups: Vec<(usize, Vec<usize>)> = Vec::new();
        for (i, request) in requests.iter().enumerate() {
            if let Err(err) = request.validate_sharded(&snapshot) {
                answers[i] = Some(Err(err));
                continue;
            }
            if let QueryRequest::InDatabase { k, .. } = request {
                match id_groups.iter_mut().find(|(gk, _)| gk == k) {
                    Some((_, members)) => members.push(i),
                    None => id_groups.push((*k, vec![i])),
                }
            }
        }

        let mut ws = self.pool.checkout();
        for (k, members) in &id_groups {
            let ids: Vec<usize> = members
                .iter()
                .map(|&i| match &requests[i] {
                    QueryRequest::InDatabase { node, .. } => *node,
                    QueryRequest::OutOfSample { .. } => unreachable!("in-database group"),
                })
                .collect();
            match snapshot.query_batch_by_id_in(&mut ws, &ids, *k) {
                Ok(results) => {
                    for (&i, top) in members.iter().zip(results) {
                        answers[i] = Some(Ok(QueryResponse::InDatabase(top)));
                    }
                }
                // Admission already vetted each id; an execution fault
                // fails the whole batched call, so re-run individually for
                // precise per-request errors.
                Err(_) => {
                    for &i in members {
                        answers[i] = Some(Self::answer(&snapshot, &mut ws, &requests[i]));
                    }
                }
            }
        }
        for (i, request) in requests.iter().enumerate() {
            if answers[i].is_none() {
                answers[i] = Some(Self::answer(&snapshot, &mut ws, request));
            }
        }
        self.pool.checkin(ws);

        answers
            .into_iter()
            .map(|a| a.expect("every request is answered exactly once"))
            .collect()
    }

    /// Dispatch one request onto the right sharded-snapshot entry point.
    fn answer(
        snapshot: &ShardedSnapshot,
        ws: &mut ShardedWorkspace,
        request: &QueryRequest,
    ) -> ServeResult<QueryResponse> {
        match request {
            QueryRequest::InDatabase { node, k } => Ok(QueryResponse::InDatabase(
                snapshot.query_by_id_in(ws, *node, *k)?,
            )),
            QueryRequest::OutOfSample { feature, k } => Ok(QueryResponse::OutOfSample(Box::new(
                snapshot.query_by_feature_in(ws, feature, *k)?,
            ))),
        }
    }
}

/// The single-writer handle pairing a [`ShardedIndex`] with the
/// [`ShardedServer`] that serves its snapshots — the sharded counterpart of
/// [`IndexWriter`](crate::IndexWriter).
///
/// Updates route to their owning shards ([`ShardedIndex::apply`]) and only
/// the touched shards accrue rebuild debt; [`ShardedWriter::rebuild_shard`]
/// refactorizes one shard while queries keep answering from the previous
/// sharded snapshot, and every mutation publishes exactly one new snapshot
/// (each batch therefore observes each shard at exactly one epoch).
#[derive(Debug)]
pub struct ShardedWriter {
    server: Arc<ShardedServer>,
    inner: Mutex<ShardedIndex>,
}

impl ShardedWriter {
    /// Take ownership of a sharded index and stand up a server on its
    /// current snapshot.
    pub fn new(index: ShardedIndex) -> (Arc<ShardedServer>, ShardedWriter) {
        let server = Arc::new(ShardedServer::from_snapshot(index.snapshot()));
        let writer = ShardedWriter {
            server: Arc::clone(&server),
            inner: Mutex::new(index),
        };
        (server, writer)
    }

    /// Warm-start from a sharded checkpoint directory written by
    /// [`ShardedWriter::save_to`] (or [`mogul_core::save_sharded`]).
    pub fn warm_start(
        dir: impl AsRef<Path>,
    ) -> std::result::Result<(Arc<ShardedServer>, ShardedWriter), PersistError> {
        Ok(ShardedWriter::new(mogul_core::load_sharded(dir)?))
    }

    /// The server this writer publishes to.
    pub fn server(&self) -> Arc<ShardedServer> {
        Arc::clone(&self.server)
    }

    /// Apply a batch of update requests as one atomic delta — inserts route
    /// to the shard with the nearest base-cluster centroid, removals route
    /// through the shard router — and publish the resulting sharded epoch.
    /// Global insert ids are reported in request order. Rejections surface
    /// as [`ServeError::Index`] with no shard mutated.
    pub fn apply(&self, updates: &[UpdateRequest]) -> ServeResult<ShardedUpdateReport> {
        let mut delta = IndexDelta::new();
        for update in updates {
            match update {
                UpdateRequest::Insert { feature } => {
                    delta.insert(feature.clone());
                }
                UpdateRequest::Remove { id } => {
                    delta.remove(*id);
                }
            }
        }
        self.apply_delta(&delta)
    }

    /// Apply an already-staged [`IndexDelta`] with global routing semantics
    /// and publish the resulting sharded snapshot.
    pub fn apply_delta(&self, delta: &IndexDelta) -> ServeResult<ShardedUpdateReport> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let report = inner.apply(delta).map_err(ServeError::from)?;
        self.server.install_snapshot(inner.snapshot());
        Ok(report)
    }

    /// Refactorize **one shard** (its debt back to zero) and publish the
    /// result. The other shards' factorizations — and all in-flight
    /// queries — are untouched: this is the per-shard background rebuild
    /// that makes maintenance cost proportional to the dirty shard, not the
    /// whole collection.
    pub fn rebuild_shard(&self, shard: usize) -> ServeResult<()> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.rebuild_shard(shard).map_err(ServeError::from)?;
        self.server.install_snapshot(inner.snapshot());
        Ok(())
    }

    /// Rebuild every shard that is not on a clean epoch and publish the
    /// result; returns the shards that were rebuilt. After this the state
    /// is checkpointable with [`ShardedWriter::save_to`].
    pub fn checkpoint_clean(&self) -> ServeResult<Vec<usize>> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let rebuilt = inner.checkpoint_clean().map_err(ServeError::from)?;
        if !rebuilt.is_empty() {
            self.server.install_snapshot(inner.snapshot());
        }
        Ok(rebuilt)
    }

    /// Save the sharded index as a checkpoint directory (one `MOG1` file
    /// per shard plus a checksummed manifest, written atomically, manifest
    /// last). Every shard must be clean — call
    /// [`ShardedWriter::checkpoint_clean`] first after updates.
    pub fn save_to(&self, dir: impl AsRef<Path>) -> std::result::Result<(), PersistError> {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        mogul_core::save_sharded(&inner, dir).map(|_| ())
    }

    /// Current rebuild debt, per shard.
    pub fn shard_debts(&self) -> Vec<RebuildDebt> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .shard_debts()
    }

    /// Per-shard snapshot epochs, shard order.
    pub fn shard_epochs(&self) -> Vec<u64> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .shard_epochs()
    }
}
