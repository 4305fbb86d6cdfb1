//! Replicated shards: R identical copies of a [`ShardedGts`] on disjoint
//! device sets, with health-aware routing and fault-tolerant retry.
//!
//! Faiss-style GPU serving scales reads by *replicating* the index across
//! spare devices and routing each query batch to one replica;
//! [`ReplicatedShards`] brings that to the sharded GTS and makes device
//! failure a first-class, recoverable event instead of a poisoned executor:
//!
//! * **Deterministic placement** — replica `r` of an `S`-shard index owns
//!   pool devices `[r·S, (r+1)·S)`; shard `s` of replica `r` is pinned to
//!   device `r·S + s`. Placement is a pure function of `(S, R)`, so two
//!   builds over the same pool land identically.
//! * **Exactness** — replicas are built from the same objects with the
//!   same params and seed, so they are *identical* (asserted against the
//!   canonical snapshot in debug builds); any healthy copy of a shard
//!   answers its slice bit-identically, and the host merges the slices
//!   with the sharded scatter's own merge.
//! * **One route: plan, scatter, re-plan** — a batch is planned per shard:
//!   one replica holding a healthy copy of every shard when any does
//!   (least loaded by per-device simulated clock, ties broken by replica
//!   index), else the best surviving copy of each shard. A caller-supplied
//!   *preferred set* lets disjoint executor lanes pin themselves to
//!   disjoint replicas and keep per-device clocks reproducible. The planned
//!   slices scatter once; only the slices that failed (an injected
//!   [`DeviceFault`], a panicking user metric) are re-planned, within a
//!   per-shard budget of `R + 2` attempts, so a transient fault can retry
//!   its own replica but a permanently dying fleet cannot loop forever.
//!   Only when a shard's **last** copy is gone does the batch fail, fast,
//!   with [`ReplicaError::ShardUnavailable`].
//!
//! Health is two-tier. **Hard** health is device quarantine (a permanent
//! fault): quarantined devices are never selected again. **Soft** health is
//! a per-replica strike counter incremented by non-device panics: strikes
//! only *deprioritize* a replica in selection (and ban its copy of the
//! failing shard for the rest of the batch) — they never exclude it
//! permanently, so a deterministically poisoned query cannot brick a shard
//! at R = 1.

use crate::index::Gts;
use crate::params::GtsParams;
use crate::shard::{merge_knn, merge_range, trace_merge, Applied, ShardedGts, UpdateOp};
use crate::stats::{ReplicaStats, StatsSnapshot};
use gpu_sim::fault::DeviceFault;
use gpu_sim::{exec, DevicePool};
use gts_trace::{EventKind, RetryCause, TraceRecorder};
use metric_space::index::{IndexError, Neighbor};
use metric_space::{BatchMetric, Footprint};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Extra attempts beyond one-per-replica: lets a transient fault retry its
/// own (still healthy) replica without an unbounded loop.
const EXTRA_ATTEMPTS: usize = 2;

/// Errors surfaced by the replicated query path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplicaError {
    /// The underlying index returned a typed error (OOM, unsupported, …).
    Index(IndexError),
    /// Every copy of this shard is on a quarantined device — the data is
    /// gone from the serving tier and requests over it fail fast.
    ShardUnavailable {
        /// The shard with no surviving copy.
        shard: u32,
    },
    /// The retry budget ran out while copies were still nominally healthy
    /// (e.g. every replica panicked on this batch's queries).
    AllReplicasFailed {
        /// The shard that exhausted its attempts; `u32::MAX` when an
        /// update exhausted its repair budget on a replica.
        shard: u32,
    },
}

impl fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicaError::Index(e) => write!(f, "index error: {e}"),
            ReplicaError::ShardUnavailable { shard } => {
                write!(f, "shard {shard} has no surviving replica")
            }
            ReplicaError::AllReplicasFailed { shard } => {
                if *shard == u32::MAX {
                    write!(f, "retry budget exhausted across replicas")
                } else {
                    write!(f, "retry budget exhausted for shard {shard}")
                }
            }
        }
    }
}

impl std::error::Error for ReplicaError {}

impl From<IndexError> for ReplicaError {
    fn from(e: IndexError) -> Self {
        ReplicaError::Index(e)
    }
}

/// Run `f`, classifying a panic by its payload: [`DeviceFault`] payloads
/// are injected hardware faults, anything else is an ordinary panic.
fn classify<T>(f: impl FnOnce() -> T) -> Result<T, RetryCause> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        if payload.is::<DeviceFault>() {
            RetryCause::DeviceFault
        } else {
            RetryCause::Panic
        }
    })
}

/// R identical [`ShardedGts`] replicas on disjoint device sets, with
/// health-aware per-shard routing and bounded retry.
pub struct ReplicatedShards<O, M> {
    /// Each replica behind its own lock: queries take shared read guards,
    /// serialized updates ([`ReplicatedShards::apply_preferring`]) take the
    /// write guard per replica — readers of a replica mid-update simply wait
    /// and are then served the *new* epoch (never a half-applied one).
    replicas: Vec<RwLock<ShardedGts<O, M>>>,
    /// Soft-health strikes per replica (panic history; deprioritizes).
    strikes: Vec<AtomicU64>,
    /// All devices across replicas (replica-major), for pool-wide spans.
    pool: DevicePool,
    shards: usize,
    retries: AtomicU64,
    device_faults: AtomicU64,
    metric_panics: AtomicU64,
    degraded_calls: AtomicU64,
}

impl<O, M> ReplicatedShards<O, M> {
    /// Shared read guard for replica `r`. Lock poisoning is ignored: a
    /// panicking batch is already caught and classified by the retry
    /// machinery, and the crash-consistency protocol keeps the index
    /// coherent across an unwound update (see [`ShardedGts::repair`]).
    fn rlock(&self, r: usize) -> RwLockReadGuard<'_, ShardedGts<O, M>> {
        self.replicas[r]
            .read()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Exclusive write guard for replica `r` (same poisoning policy).
    fn wlock(&self, r: usize) -> RwLockWriteGuard<'_, ShardedGts<O, M>> {
        self.replicas[r]
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Fence every replica against *direct* mutation: while fenced, calling
    /// `insert`/`remove`/`batch_update` on a [`ShardedGts`] returns
    /// [`IndexError::Unsupported`]. The query service fences the index it
    /// serves so out-of-band writes cannot race its admission order; updates
    /// applied through [`ReplicatedShards::apply_preferring`] bypass the
    /// fence because they *are* the serialized order.
    pub fn fence_all(&self) {
        for r in 0..self.replicas.len() {
            self.wlock(r).fence();
        }
    }

    /// Release the direct-mutation fence on every replica (service
    /// shutdown hands the index back to the caller).
    pub fn release_all(&self) {
        for r in 0..self.replicas.len() {
            self.wlock(r).release_fence();
        }
    }

    /// Update epoch of the given replicas (all when empty): the **max**
    /// across the set, so a replica lagging behind after a permanent device
    /// loss does not hide progress — reads route around it, and healthy
    /// preferred replicas all agree by deterministic apply order.
    pub fn epoch_of(&self, prefer: &[usize]) -> u64 {
        self.or_all(prefer)
            .into_iter()
            .map(|r| self.rlock(r).epoch())
            .max()
            .unwrap_or(0)
    }

    /// The given replicas, or every replica when `prefer` is empty.
    fn or_all(&self, prefer: &[usize]) -> Vec<usize> {
        if prefer.is_empty() {
            (0..self.replicas.len()).collect()
        } else {
            prefer.to_vec()
        }
    }
}

impl<O, M> ReplicatedShards<O, M>
where
    O: Clone + Send + Sync + Footprint,
    M: BatchMetric<O> + Clone,
{
    /// Build `params.replicas` identical sharded indexes, replica `r` on
    /// pool devices `[r·S, (r+1)·S)`. The pool must supply
    /// `shards × replicas` devices. In debug builds the replicas are
    /// asserted identical (same snapshot bytes) — the invariant behind
    /// "any replica answers bit-identically".
    pub fn build(
        pool: &DevicePool,
        objects: Vec<O>,
        metric: M,
        params: GtsParams,
    ) -> Result<Self, IndexError> {
        let shards = params.shards as usize;
        let replicas = params.replicas as usize;
        assert!(
            pool.len() >= shards * replicas,
            "pool must supply shards × replicas devices ({} < {})",
            pool.len(),
            shards * replicas
        );
        // Build replicas sequentially (each build already parallelises
        // across its shards); deterministic placement r·S + s.
        let mut built: Vec<ShardedGts<O, M>> = Vec::with_capacity(replicas);
        for r in 0..replicas {
            let sub =
                DevicePool::from_devices(pool.devices()[r * shards..(r + 1) * shards].to_vec());
            built.push(ShardedGts::build(
                &sub,
                objects.clone(),
                metric.clone(),
                params,
            )?);
        }
        #[cfg(debug_assertions)]
        {
            let canon = built[0].snapshot();
            for (r, rep) in built.iter().enumerate().skip(1) {
                debug_assert_eq!(
                    rep.snapshot(),
                    canon,
                    "replica {r} diverged from replica 0 at build time"
                );
            }
        }
        Ok(Self::from_replicas(built))
    }

    /// Wrap existing replicas (e.g. a single [`ShardedGts`] as R = 1, the
    /// service's compatibility path). All replicas must have the same shard
    /// count and length; the caller vouches they hold identical data. Takes
    /// the indexes by value — once wrapped, mutation flows through
    /// [`ReplicatedShards::apply_preferring`] (or the per-replica locks),
    /// never through a retained outside handle.
    pub fn from_replicas(replicas: Vec<ShardedGts<O, M>>) -> Self {
        assert!(!replicas.is_empty(), "need at least one replica");
        let shards = replicas[0].num_shards();
        for rep in &replicas[1..] {
            assert_eq!(rep.num_shards(), shards, "replicas must share topology");
            assert_eq!(
                metric_space::index::SimilarityIndex::len(rep),
                metric_space::index::SimilarityIndex::len(&replicas[0]),
                "replicas must hold the same objects"
            );
        }
        let devices: Vec<_> = replicas
            .iter()
            .flat_map(|rep| rep.pool().devices().iter().cloned())
            .collect();
        let strikes = (0..replicas.len()).map(|_| AtomicU64::new(0)).collect();
        ReplicatedShards {
            strikes,
            pool: DevicePool::from_devices(devices),
            shards,
            replicas: replicas.into_iter().map(RwLock::new).collect(),
            retries: AtomicU64::new(0),
            device_faults: AtomicU64::new(0),
            metric_panics: AtomicU64::new(0),
            degraded_calls: AtomicU64::new(0),
        }
    }

    // -- topology & health --------------------------------------------------

    /// Number of replicas.
    pub fn num_replicas(&self) -> usize {
        self.replicas.len()
    }

    /// Number of shards (identical across replicas).
    pub fn num_shards(&self) -> usize {
        self.shards
    }

    /// Replica `r`'s sharded index behind its lock (e.g. for stats,
    /// snapshots, or direct comparison — `replica(r).read()`). While a
    /// query service owns this set the index is fenced, so a write guard
    /// taken here can observe but not mutate it.
    pub fn replica(&self, r: usize) -> &RwLock<ShardedGts<O, M>> {
        &self.replicas[r]
    }

    /// Every device across all replicas, replica-major — the failure-domain
    /// view ([`aggregate`](DevicePool::aggregate) reports quarantines).
    pub fn pool(&self) -> &DevicePool {
        &self.pool
    }

    /// Objects indexed (any replica; they are identical).
    pub fn len(&self) -> usize {
        metric_space::index::SimilarityIndex::len(&*self.rlock(0))
    }

    /// True when no objects are indexed (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Devices of replica `r` (a replica-major slice of the flat pool —
    /// the device `Arc`s are shared with the replica's own sub-pool, so no
    /// lock is needed to read health or clocks).
    fn replica_devices(&self, r: usize) -> &[std::sync::Arc<gpu_sim::Device>] {
        &self.pool.devices()[r * self.shards..(r + 1) * self.shards]
    }

    /// True when every device of replica `r` is healthy, so it can serve a
    /// whole batch alone.
    pub fn replica_fully_healthy(&self, r: usize) -> bool {
        self.replica_devices(r).iter().all(|d| d.is_healthy())
    }

    /// True when replica `r`'s copy of shard `s` sits on a healthy device.
    pub fn shard_copy_healthy(&self, r: usize, s: usize) -> bool {
        self.pool.get(r * self.shards + s).is_healthy()
    }

    /// True when at least one replica still holds a healthy copy of shard
    /// `s`; false means requests over `s` fail fast with
    /// [`ReplicaError::ShardUnavailable`].
    pub fn shard_alive(&self, s: usize) -> bool {
        (0..self.replicas.len()).any(|r| self.shard_copy_healthy(r, s))
    }

    /// Health and retry counters (see [`ReplicaStats`]).
    pub fn replica_stats(&self) -> ReplicaStats {
        ReplicaStats {
            replicas: self.replicas.len(),
            healthy_replicas: (0..self.replicas.len())
                .filter(|&r| self.replica_fully_healthy(r))
                .count(),
            dead_shards: (0..self.shards).filter(|&s| !self.shard_alive(s)).count(),
            retries: self.retries.load(Ordering::Relaxed),
            device_faults: self.device_faults.load(Ordering::Relaxed),
            metric_panics: self.metric_panics.load(Ordering::Relaxed),
            degraded_calls: self.degraded_calls.load(Ordering::Relaxed),
            strikes: self
                .strikes
                .iter()
                .map(|s| s.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Aggregate search counters across replicas (sums; R = 1 equals the
    /// wrapped index's own stats).
    pub fn stats(&self) -> StatsSnapshot {
        (0..self.replicas.len())
            .map(|r| self.rlock(r).stats())
            .fold(StatsSnapshot::default(), StatsSnapshot::combine)
    }

    /// Reset search counters on every replica.
    pub fn reset_stats(&self) {
        for r in 0..self.replicas.len() {
            self.rlock(r).reset_stats();
        }
    }

    /// Critical path across **all** replica devices (max per-device clock).
    pub fn span_cycles(&self) -> u64 {
        self.pool.aggregate().span_cycles
    }

    /// Critical path over the devices of the given replicas only — lets an
    /// executor lane pinned to a disjoint replica set measure its own
    /// batches without racing sibling lanes. An empty set means all.
    pub fn span_of(&self, replicas: &[usize]) -> u64 {
        self.or_all(replicas)
            .into_iter()
            .flat_map(|r| self.replica_devices(r))
            .map(|d| d.cycles())
            .max()
            .unwrap_or(0)
    }

    // -- selection ----------------------------------------------------------

    /// Pick the best replica among `candidates`: restrict to the preferred
    /// set when it still holds a candidate, then order by (soft-health
    /// strikes, load — the replica's critical path [`span_of`], replica
    /// index). Deterministic given device clocks.
    ///
    /// [`span_of`]: ReplicatedShards::span_of
    fn pick(&self, candidates: &[usize], prefer: &[usize]) -> Option<usize> {
        let preferred: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|r| prefer.contains(r))
            .collect();
        let pool = if preferred.is_empty() {
            candidates
        } else {
            &preferred
        };
        pool.iter().copied().min_by_key(|&r| {
            (
                self.strikes[r].load(Ordering::Relaxed),
                self.span_of(&[r]),
                r,
            )
        })
    }

    /// Plan a copy for every shard in `todo`, in `todo` order: one replica
    /// holding a healthy, unbanned copy of all of them when any does, else
    /// the best such copy of each shard — every choice by
    /// [`ReplicatedShards::pick`].
    fn plan(
        &self,
        todo: &[usize],
        banned: &[Vec<bool>],
        prefer: &[usize],
    ) -> Result<Vec<usize>, ReplicaError> {
        let usable = |r: usize, s: usize| !banned[s][r] && self.shard_copy_healthy(r, s);
        let whole: Vec<usize> = (0..self.replicas.len())
            .filter(|&r| todo.iter().all(|&s| usable(r, s)))
            .collect();
        if let Some(r) = self.pick(&whole, prefer) {
            return Ok(vec![r; todo.len()]);
        }
        todo.iter()
            .map(|&s| {
                let copies: Vec<usize> =
                    (0..self.replicas.len()).filter(|&r| usable(r, s)).collect();
                self.pick(&copies, prefer).ok_or_else(|| self.lost(s))
            })
            .collect()
    }

    /// The error for shard `s` with no copy left to plan: its survivors
    /// were all banned for this batch, or every copy sits on a quarantined
    /// device (traced, with a flight dump).
    fn lost(&self, s: usize) -> ReplicaError {
        let shard = s as u32;
        if self.shard_alive(s) {
            return ReplicaError::AllReplicasFailed { shard };
        }
        if let Some(rec) = self.tracer() {
            let kind = EventKind::ShardUnavailable { shard };
            rec.record(gts_trace::TraceEvent::instant(
                kind,
                gts_trace::current_ctx(),
                None,
                0,
            ));
            rec.flight_dump(gts_trace::DumpReason::ShardUnavailable);
        }
        ReplicaError::ShardUnavailable { shard }
    }

    // -- query path ---------------------------------------------------------

    /// Batched range query over the healthy copies (bit-identical to the
    /// single-replica answer); see [`ReplicatedShards::batch_knn`] for the
    /// routing rules.
    pub fn batch_range(
        &self,
        queries: &[O],
        radii: &[f64],
    ) -> Result<Vec<Vec<Neighbor>>, ReplicaError> {
        self.batch_range_preferring(&[], queries, radii)
    }

    /// [`ReplicatedShards::batch_range`] preferring the given replicas
    /// (an executor lane's pinned set; falls back to any healthy replica).
    pub fn batch_range_preferring(
        &self,
        prefer: &[usize],
        queries: &[O],
        radii: &[f64],
    ) -> Result<Vec<Vec<Neighbor>>, ReplicaError> {
        self.route(
            prefer,
            |gts| gts.batch_range(queries, radii),
            |lists| merge_range(lists, queries.len()),
        )
    }

    /// Batched kNN over the healthy copies: the whole batch on the
    /// least-loaded fully-healthy replica, or each shard on its best
    /// surviving copy when no replica is fully healthy. Failed shard slices
    /// re-run per the module rules; the slices merge exactly through one
    /// top-`k` pool per query.
    pub fn batch_knn(&self, queries: &[O], k: usize) -> Result<Vec<Vec<Neighbor>>, ReplicaError> {
        self.batch_knn_preferring(&[], queries, k)
    }

    /// [`ReplicatedShards::batch_knn`] preferring the given replicas.
    pub fn batch_knn_preferring(
        &self,
        prefer: &[usize],
        queries: &[O],
        k: usize,
    ) -> Result<Vec<Vec<Neighbor>>, ReplicaError> {
        self.route(
            prefer,
            |gts| gts.batch_knn(queries, k),
            |lists| merge_knn(lists, queries.len(), k),
        )
    }

    /// The one routing path: plan a copy for every unanswered shard, run
    /// the planned slices concurrently, each under its own [`classify`],
    /// and re-plan only the slices that faulted or panicked — at most
    /// `R + 2` attempts per shard. One read guard per planned replica is
    /// taken in ascending order and held across the whole scatter, so a
    /// batch never straddles an update even when its shards come from two
    /// replicas. The first typed error, in shard order, fails the batch.
    fn route(
        &self,
        prefer: &[usize],
        call: impl Fn(&Gts<O, M>) -> Result<Vec<Vec<Neighbor>>, IndexError> + Sync,
        merge: impl FnOnce(Vec<Vec<Vec<Neighbor>>>) -> Vec<Vec<Neighbor>>,
    ) -> Result<Vec<Vec<Neighbor>>, ReplicaError> {
        let (replicas, shards) = (self.replicas.len(), self.shards);
        // `answers[s]` = (the replica that answered shard `s`, its lists).
        let mut answers: Vec<Option<(usize, Vec<Vec<Neighbor>>)>> = vec![None; shards];
        let mut banned = vec![vec![false; replicas]; shards];
        // Each round attempts every unanswered shard once.
        for round in 0..replicas + EXTRA_ATTEMPTS {
            let todo: Vec<usize> = (0..shards).filter(|&s| answers[s].is_none()).collect();
            if todo.is_empty() {
                break;
            }
            let plan = self.plan(&todo, &banned, prefer)?;
            if round > 0 {
                self.retries.fetch_add(todo.len() as u64, Ordering::Relaxed);
            } else if plan.iter().any(|&r| r != plan[0]) {
                self.degraded_calls.fetch_add(1, Ordering::Relaxed);
                self.trace_instant(0, EventKind::Degraded);
            }
            let guards: Vec<_> = (0..replicas)
                .map(|r| plan.contains(&r).then(|| self.rlock(r)))
                .collect();
            let slices: Vec<(usize, usize)> = todo.into_iter().zip(plan).collect();
            let outcomes = exec::map(slices.clone(), |_, (s, r)| {
                let mut ctx = gts_trace::current_ctx();
                ctx.replica = Some(r as u32);
                let _scope = gts_trace::scoped_ctx(ctx);
                let rep = guards[r].as_deref().expect("planned replicas are locked");
                classify(|| rep.on_shard(s, &call))
            });
            for ((s, r), outcome) in slices.into_iter().zip(outcomes) {
                match outcome {
                    Ok(lists) => answers[s] = Some((r, lists?)),
                    Err(cause) => {
                        self.count_failure(r, cause);
                        banned[s][r] |= cause == RetryCause::Panic;
                        self.trace_instant(r, EventKind::ReplicaRetry { cause });
                    }
                }
            }
        }
        if let Some(s) = answers.iter().position(Option::is_none) {
            return Err(ReplicaError::AllReplicasFailed { shard: s as u32 });
        }
        let (served, lists): (Vec<usize>, Vec<_>) = answers.into_iter().flatten().unzip();
        let merged = merge(lists);
        let mut ctx = gts_trace::current_ctx();
        ctx.replica = served
            .iter()
            .all(|&r| r == served[0])
            .then_some(served[0] as u32);
        let devices = (0..shards).map(|s| self.pool.get(served[s] * shards + s));
        trace_merge(devices, ctx, merged.len() as u64);
        Ok(merged)
    }

    /// Count one failed attempt on replica `r`; a panic also strikes `r`.
    fn count_failure(&self, r: usize, cause: RetryCause) {
        match cause {
            RetryCause::DeviceFault => self.device_faults.fetch_add(1, Ordering::Relaxed),
            RetryCause::Panic => {
                self.strikes[r].fetch_add(1, Ordering::Relaxed);
                self.metric_panics.fetch_add(1, Ordering::Relaxed)
            }
        };
    }

    // -- update path --------------------------------------------------------

    /// Apply one serialized update to **every** replica of the preferred
    /// set (all replicas when empty), in replica order, each under its
    /// write lock. Unlike queries — which any one replica can answer —
    /// updates must reach every copy, and in the *same order on each*, so
    /// identical replicas stay identical and converge to the same epoch.
    ///
    /// Fault handling per replica: an injected [`DeviceFault`] (or a
    /// panicking user metric) unwinding out of
    /// [`apply`](ShardedGts::apply) leaves the host state fully mutated
    /// and the owed rebuilds staged; [`repair`](ShardedGts::repair) then
    /// re-runs that staged device phase within the `1 + EXTRA_ATTEMPTS`
    /// budget (each attempt counted as a retry). A replica whose budget is
    /// exhausted — only possible under a *permanent* device loss — is left
    /// at its previous epoch; reads already route around it via the health
    /// filters, and [`ReplicatedShards::epoch_of`] takes the max so the
    /// lag is not observable through the service.
    ///
    /// Returns the receipt of the last replica that completed (replicas
    /// apply deterministically, so all completed receipts are identical),
    /// or the first error in replica order.
    pub fn apply_preferring(
        &self,
        prefer: &[usize],
        op: &UpdateOp<O>,
    ) -> Result<Applied, ReplicaError> {
        let mut last_ok: Option<Applied> = None;
        let mut first_err: Option<ReplicaError> = None;
        for r in self.or_all(prefer) {
            let mut rep = self.wlock(r);
            // Attempt 0 applies; the later attempts repair what a fault
            // left staged.
            let outcome = (0..=1 + EXTRA_ATTEMPTS).find_map(|attempt| {
                if attempt > 0 {
                    self.retries.fetch_add(1, Ordering::Relaxed);
                }
                classify(|| {
                    if attempt == 0 {
                        rep.apply(op)
                    } else {
                        rep.repair()
                    }
                })
                .map_err(|cause| self.count_failure(r, cause))
                .ok()
            });
            match outcome {
                Some(Ok(applied)) => last_ok = Some(applied),
                Some(Err(e)) => {
                    first_err.get_or_insert(ReplicaError::Index(e));
                }
                None => {
                    first_err.get_or_insert(ReplicaError::AllReplicasFailed { shard: u32::MAX });
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(last_ok.expect("or_all is never empty")),
        }
    }

    // -- tracing ------------------------------------------------------------

    /// The trace recorder attached to any of this index's devices (tracing
    /// is attached pool-wide, so the first hit is authoritative).
    fn tracer(&self) -> Option<Arc<TraceRecorder>> {
        self.pool
            .devices()
            .iter()
            .find_map(|d| d.tracer())
            .map(|(rec, _)| rec)
    }

    /// Record one replica-layer instant (retry, degradation), stamped at
    /// replica `r`'s current critical path. Observational only; called
    /// exclusively on failure paths, so a healthy batch never pays the
    /// device scan.
    fn trace_instant(&self, r: usize, kind: EventKind) {
        let Some(rec) = self.tracer() else {
            return;
        };
        let mut ctx = gts_trace::current_ctx();
        ctx.replica = Some(r as u32);
        rec.record(gts_trace::TraceEvent::instant(
            kind,
            ctx,
            None,
            self.span_of(&[r]),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::fault::FaultPlan;
    use metric_space::{DatasetKind, Item, ItemMetric};

    fn data(n: usize) -> (Vec<Item>, ItemMetric) {
        let d = DatasetKind::Words.generate(n, 33);
        (d.items, d.metric)
    }

    fn replicated(
        n: usize,
        shards: u32,
        replicas: u32,
    ) -> (Vec<Item>, DevicePool, ReplicatedShards<Item, ItemMetric>) {
        let (items, metric) = data(n);
        let pool = DevicePool::rtx_2080_ti((shards * replicas) as usize);
        let idx = ReplicatedShards::build(
            &pool,
            items.clone(),
            metric,
            GtsParams::default()
                .with_shards(shards)
                .with_replicas(replicas),
        )
        .expect("build");
        (items, pool, idx)
    }

    #[test]
    fn replicas_answer_bit_identically_to_single_replica() {
        let (items, _, idx) = replicated(300, 2, 2);
        let (items1, metric1) = data(300);
        assert_eq!(items, items1);
        let single = ShardedGts::build(
            &DevicePool::rtx_2080_ti(2),
            items1,
            metric1,
            GtsParams::default().with_shards(2),
        )
        .expect("build");
        let queries: Vec<Item> = (0..12).map(|i| items[i * 19].clone()).collect();
        let radii = vec![2.0; queries.len()];
        assert_eq!(
            idx.batch_range(&queries, &radii).expect("mrq"),
            single.batch_range(&queries, &radii).expect("mrq"),
        );
        assert_eq!(
            idx.batch_knn(&queries, 6).expect("knn"),
            single.batch_knn(&queries, 6).expect("knn"),
        );
        assert_eq!(idx.num_replicas(), 2);
        assert_eq!(idx.num_shards(), 2);
        assert_eq!(idx.len(), 300);
    }

    #[test]
    fn routing_prefers_the_pinned_set_and_balances_by_clock() {
        let (items, _, idx) = replicated(200, 2, 2);
        let queries: Vec<Item> = items[..4].to_vec();
        // Pin to replica 1: only its devices' clocks move.
        let before0 = idx.span_of(&[0]);
        idx.batch_knn_preferring(&[1], &queries, 3).expect("knn");
        assert_eq!(idx.span_of(&[0]), before0, "replica 0 untouched");
        assert!(idx.span_of(&[1]) > 0, "replica 1 did the work");
        // Unpinned: the less-loaded replica (0) is selected.
        idx.batch_knn(&queries, 3).expect("knn");
        assert!(idx.span_of(&[0]) > before0, "least-loaded replica selected");
    }

    #[test]
    fn transient_fault_retries_and_stays_exact() {
        let (items, pool, idx) = replicated(200, 2, 2);
        let queries: Vec<Item> = items[..6].to_vec();
        let clean = idx.batch_knn(&queries, 5).expect("fault-free");
        // The clean batch loaded replica 0, so the next batch routes to
        // replica 1 (devices 2..4) — arm the fault in its path.
        FaultPlan::new()
            .fail_device(2, 1, gpu_sim::FaultKind::Transient)
            .arm(&pool);
        let answers = idx.batch_knn(&queries, 5).expect("retried");
        assert_eq!(answers, clean, "retry reproduces the exact answer");
        let rs = idx.replica_stats();
        assert_eq!(rs.device_faults, 1);
        assert!(rs.retries >= 1);
        assert_eq!(rs.metric_panics, 0);
        assert_eq!(rs.healthy_replicas, 2, "transient faults don't quarantine");
    }

    #[test]
    fn permanent_fault_fails_over_to_the_surviving_replica() {
        let (items, pool, idx) = replicated(200, 2, 2);
        let queries: Vec<Item> = items[..6].to_vec();
        let clean = idx.batch_knn(&queries, 5).expect("fault-free");
        // The clean batch loaded replica 0, so the next batch routes to
        // replica 1 — kill its shard-0 device permanently mid-batch.
        FaultPlan::new()
            .fail_device(2, 1, gpu_sim::FaultKind::Permanent)
            .arm(&pool);
        let answers = idx.batch_knn(&queries, 5).expect("failover");
        assert_eq!(answers, clean, "survivor answers bit-identically");
        let rs = idx.replica_stats();
        assert_eq!(rs.healthy_replicas, 1);
        assert_eq!(rs.dead_shards, 0, "replica 1 still covers every shard");
        assert!(rs.device_faults >= 1);
        // Further batches route straight to the survivor (no new retries).
        let retries_before = idx.replica_stats().retries;
        idx.batch_knn(&queries, 5).expect("steady state");
        assert_eq!(idx.replica_stats().retries, retries_before);
    }

    #[test]
    fn degraded_path_composes_from_surviving_shard_copies() {
        let (items, pool, idx) = replicated(240, 2, 2);
        let queries: Vec<Item> = items[..6].to_vec();
        let radii = vec![2.0; queries.len()];
        let clean_r = idx.batch_range(&queries, &radii).expect("fault-free");
        let clean_k = idx.batch_knn(&queries, 5).expect("fault-free");
        // Kill shard 0 of replica 0 and shard 1 of replica 1: no replica is
        // fully healthy, but every shard has a surviving copy.
        pool.get(0).quarantine(); // replica 0, shard 0
        pool.get(3).quarantine(); // replica 1, shard 1
        let degraded_r = idx.batch_range(&queries, &radii).expect("degraded");
        let degraded_k = idx.batch_knn(&queries, 5).expect("degraded");
        assert_eq!(degraded_r, clean_r, "degraded range is still exact");
        assert_eq!(degraded_k, clean_k, "degraded knn is still exact");
        let rs = idx.replica_stats();
        assert_eq!(rs.healthy_replicas, 0);
        assert_eq!(rs.dead_shards, 0);
        assert_eq!(rs.degraded_calls, 2);
    }

    #[test]
    fn dead_shard_fails_fast_with_shard_unavailable() {
        let (items, pool, idx) = replicated(240, 2, 2);
        // Kill BOTH copies of shard 1 (devices 1 and 3).
        pool.get(1).quarantine();
        pool.get(3).quarantine();
        let queries: Vec<Item> = items[..4].to_vec();
        let err = idx.batch_knn(&queries, 5).expect_err("shard 1 is gone");
        assert_eq!(err, ReplicaError::ShardUnavailable { shard: 1 });
        let rs = idx.replica_stats();
        assert_eq!(rs.dead_shards, 1);
    }

    #[test]
    fn panicking_metric_bans_for_the_batch_but_never_permanently() {
        // A deterministic poison: the metric panics on the query "boom" on
        // EVERY replica, so the batch must fail typed — but the next,
        // clean batch must succeed (strikes deprioritize, never exclude).
        let items: Vec<Item> = (0..120).map(|i| Item::text("x".repeat(i % 30))).collect();
        let pool = DevicePool::rtx_2080_ti(4);
        let idx = ReplicatedShards::build(
            &pool,
            items.clone(),
            crate::test_metric::Faulty::Boom,
            GtsParams::default().with_shards(2).with_replicas(2),
        )
        .expect("build never sees the poisoned query");
        let err = idx
            .batch_knn(&[Item::text("boom")], 3)
            .expect_err("every replica panics on the poison");
        assert!(
            matches!(err, ReplicaError::AllReplicasFailed { .. }),
            "typed failure, not a propagated panic: {err:?}"
        );
        let rs = idx.replica_stats();
        assert!(rs.metric_panics >= 2, "both replicas struck");
        assert_eq!(rs.healthy_replicas, 2, "panics never quarantine devices");
        // The service stays live: a clean batch right after succeeds.
        let ok = idx.batch_knn(&[Item::text("xxx")], 3).expect("clean batch");
        assert_eq!(ok.len(), 1);
    }

    #[test]
    fn stats_and_spans_aggregate_across_replicas() {
        let (items, _, idx) = replicated(200, 2, 2);
        idx.batch_knn(&items[..4], 3).expect("knn");
        let total = idx.stats();
        assert!(total.distance_computations > 0);
        assert!(idx.span_cycles() >= idx.span_of(&[0]).min(idx.span_of(&[1])));
        idx.reset_stats();
        assert_eq!(idx.stats(), StatsSnapshot::default());
    }

    #[test]
    fn apply_reaches_every_replica_and_converges_epochs() {
        let (items, _, idx) = replicated(200, 2, 2);
        assert_eq!(idx.epoch_of(&[]), 0);
        let ack = idx
            .apply_preferring(&[], &UpdateOp::Insert(Item::text("fresh")))
            .expect("insert");
        assert_eq!(ack.epoch, 1);
        assert_eq!(ack.assigned, vec![200]);
        let ack = idx
            .apply_preferring(&[], &UpdateOp::Remove(3))
            .expect("remove");
        assert_eq!(ack.epoch, 2);
        assert_eq!(ack.removed, 1);
        // Both replicas applied both updates in the same order: identical
        // epochs, identical snapshots, identical answers.
        for r in 0..2 {
            assert_eq!(idx.replica(r).read().unwrap().epoch(), 2);
        }
        assert_eq!(
            idx.replica(0).read().unwrap().snapshot(),
            idx.replica(1).read().unwrap().snapshot(),
        );
        let queries: Vec<Item> = items[..4].to_vec();
        let a = idx.batch_knn_preferring(&[0], &queries, 4).expect("knn");
        let b = idx.batch_knn_preferring(&[1], &queries, 4).expect("knn");
        assert_eq!(a, b, "replicas answer identically after updates");
        assert_eq!(idx.epoch_of(&[0]), idx.epoch_of(&[1]));
    }

    #[test]
    fn fence_rejects_direct_mutation_but_not_serialized_applies() {
        use metric_space::index::DynamicIndex;
        let (_, _, idx) = replicated(120, 1, 2);
        idx.fence_all();
        let err = idx
            .replica(0)
            .write()
            .unwrap()
            .insert(Item::text("smuggled"))
            .expect_err("fenced index rejects direct mutation");
        assert!(matches!(err, IndexError::Unsupported(_)));
        // The serialized path bypasses the fence — it IS the apply order.
        idx.apply_preferring(&[], &UpdateOp::Insert(Item::text("routed")))
            .expect("serialized apply works while fenced");
        assert_eq!(idx.epoch_of(&[]), 1);
        idx.release_all();
        idx.replica(0)
            .write()
            .unwrap()
            .insert(Item::text("direct"))
            .expect("released fence allows direct mutation again");
    }

    #[test]
    fn transient_fault_during_apply_repairs_and_stays_converged() {
        // One case per op kind: (op, armed device, deletions that flip).
        // The armed device's next kernel is replica 1's: the apply broadcast
        // hits replica 0 first (clean), then replica 1 faults mid-apply and
        // must repair — a remove on its tombstone scan, an overflowing insert
        // on its rebuild, a batch on shard 1's rebuild after shard 0's
        // already finished.
        let batch = UpdateOp::Batch {
            insertions: vec![Item::text("fresh-a"), Item::text("fresh-b")],
            deletions: vec![2, 3],
        };
        let cases = [
            (UpdateOp::Remove(0), 2, 1),
            (UpdateOp::Insert(Item::text("fresh")), 2, 0),
            (batch, 3, 2),
        ];
        for (op, device, removed) in cases {
            let (items, metric) = data(200);
            let pool = DevicePool::rtx_2080_ti(4);
            // A one-byte cache: every insert overflows and owes a rebuild.
            let params = GtsParams::default()
                .with_shards(2)
                .with_replicas(2)
                .with_cache_capacity(1);
            let idx = ReplicatedShards::build(&pool, items, metric, params).expect("build");
            FaultPlan::new()
                .fail_device(device, 1, gpu_sim::FaultKind::Transient)
                .arm(&pool);
            let ack = idx.apply_preferring(&[], &op).expect("repaired");
            assert_eq!((ack.epoch, ack.removed), (1, removed), "{op:?}");
            let rs = idx.replica_stats();
            assert_eq!(rs.device_faults, 1, "{op:?}: the fault fired");
            assert!(rs.retries >= 1, "{op:?}: repair counted as a retry");
            let (r0, r1) = (
                idx.replica(0).read().unwrap(),
                idx.replica(1).read().unwrap(),
            );
            assert_eq!((r0.epoch(), r1.epoch()), (1, 1), "{op:?}");
            assert_eq!(
                r0.snapshot(),
                r1.snapshot(),
                "{op:?}: repaired replica is bit-identical to the clean one"
            );
            let rebuilds =
                |rep: &ShardedGts<Item, ItemMetric>| [0, 1].map(|s| rep.shard(s).rebuild_count());
            assert_eq!(
                rebuilds(&r0),
                rebuilds(&r1),
                "{op:?}: a shard that rebuilt before the fault is not rebuilt again"
            );
        }
    }

    #[test]
    fn only_the_faulted_shard_slice_reruns() {
        let (items, pool, idx) = replicated(200, 2, 2);
        let (_, twin_pool, twin) = replicated(200, 2, 2);
        let queries: Vec<Item> = items[..6].to_vec();
        // Pinned to replica 1, whose shard-0 device (2) faults at its first
        // launch of the batch; shard 1 (device 3) answers on the first try.
        FaultPlan::new()
            .fail_device(2, 1, gpu_sim::FaultKind::Transient)
            .arm(&pool);
        let (dev3, twin_dev3) = (pool.get(3).cycles(), twin_pool.get(3).cycles());
        let answers = idx
            .batch_knn_preferring(&[1], &queries, 5)
            .expect("retried");
        let clean = twin.batch_knn_preferring(&[1], &queries, 5).expect("clean");
        assert_eq!(
            answers, clean,
            "the re-run slice reproduces the exact answer"
        );
        assert_eq!(
            pool.get(3).cycles() - dev3,
            twin_pool.get(3).cycles() - twin_dev3,
            "shard 1 ran once"
        );
        let rs = idx.replica_stats();
        assert_eq!((rs.device_faults, rs.retries), (1, 1), "one slice re-ran");
    }
}
