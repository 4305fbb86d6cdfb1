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
//!   canonical snapshot in debug builds); any healthy replica answers any
//!   batch bit-identically to the single-replica path.
//! * **Routing** — a batch goes to the least-loaded fully-healthy replica
//!   (by per-device simulated clock, ties broken by replica index), with a
//!   caller-supplied *preferred set* so disjoint executor lanes can pin
//!   themselves to disjoint replicas and keep per-device clocks
//!   reproducible.
//! * **Retry with bounded budget** — a replica failing mid-batch (an
//!   injected [`DeviceFault`], a panicking user metric) is caught, counted,
//!   and the batch retries on a surviving replica; the attempt budget is
//!   `R + 2`, so a transient fault can retry its own replica once but a
//!   permanently dying fleet cannot loop forever.
//! * **Graceful degradation** — when no *fully* healthy replica remains,
//!   the batch drops to the per-shard degraded path: each shard is answered
//!   by any surviving copy of that shard across replicas, and the host
//!   merges exactly (same concat-sort / k-way merge as the sharded scatter,
//!   so answers stay bit-identical). Only when a shard's **last** copy is
//!   gone does the batch fail, fast, with
//!   [`ReplicaError::ShardUnavailable`].
//!
//! Health is two-tier. **Hard** health is device quarantine (a permanent
//! fault): quarantined devices are never selected again. **Soft** health is
//! a per-replica strike counter incremented by non-device panics: strikes
//! only *deprioritize* a replica in selection (and ban it for the rest of
//! the failing batch) — they never exclude it permanently, so a
//! deterministically poisoned query cannot brick a shard at R = 1.

use crate::params::GtsParams;
use crate::shard::{kway_merge, scoped_map, Applied, ShardedGts, UpdateOp};
use crate::stats::{ReplicaStats, StatsSnapshot};
use gpu_sim::fault::{DeviceFault, FaultKind};
use gpu_sim::DevicePool;
use metric_space::index::{sort_neighbors, IndexError, Neighbor};
use metric_space::{BatchMetric, Footprint};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

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
        /// The shard (or `u32::MAX` for a whole-batch failure) that
        /// exhausted its attempts.
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

/// Outcome of running one replica call under `catch_unwind`.
enum Caught<T> {
    /// The call returned (successfully or with a typed index error).
    Done(T),
    /// An injected device fault fired.
    Fault(FaultKind),
    /// A non-device panic (user metric, logic bug) unwound out.
    Panic,
}

/// Run `f`, classifying a panic by its payload: [`DeviceFault`] payloads
/// are injected hardware faults, anything else is an ordinary panic.
fn classify<T>(f: impl FnOnce() -> T) -> Caught<T> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => Caught::Done(v),
        Err(payload) => match payload.downcast_ref::<DeviceFault>() {
            Some(df) => Caught::Fault(df.kind),
            None => Caught::Panic,
        },
    }
}

/// R identical [`ShardedGts`] replicas on disjoint device sets, with
/// health-aware selection, bounded retry, and per-shard degradation.
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
        let all: Vec<usize>;
        let set: &[usize] = if prefer.is_empty() {
            all = (0..self.replicas.len()).collect();
            &all
        } else {
            prefer
        };
        set.iter()
            .map(|&r| self.rlock(r).epoch())
            .max()
            .unwrap_or(0)
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

    /// True when every device of replica `r` is healthy (the whole-replica
    /// fast path requires all shards of one replica).
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

    /// Folded cost-model audit across every replica's shards (see
    /// [`ShardedGts::cost_audit`](crate::ShardedGts::cost_audit)).
    pub fn cost_audit(&self) -> crate::audit::CostAuditSnapshot {
        (0..self.replicas.len())
            .map(|r| self.rlock(r).cost_audit())
            .fold(crate::audit::CostAuditSnapshot::default(), |a, b| {
                a.combine(b)
            })
    }

    /// Enable or disable the cost-model audit on every replica.
    pub fn set_cost_audit_enabled(&self, on: bool) {
        for r in 0..self.replicas.len() {
            self.rlock(r).set_cost_audit_enabled(on);
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
        if replicas.is_empty() {
            return self.span_cycles();
        }
        replicas
            .iter()
            .flat_map(|&r| self.replica_devices(r))
            .map(|d| d.cycles())
            .max()
            .unwrap_or(0)
    }

    /// Global batch sizing, delegated to replica 0 (replicas are identical,
    /// so its cost model speaks for all; sampling kernels charge replica
    /// 0's devices).
    pub fn max_batch_queries(&self, radius: f64, samples: usize, seed: u64) -> usize {
        self.rlock(0).max_batch_queries(radius, samples, seed)
    }

    // -- selection ----------------------------------------------------------

    /// Current load of replica `r`: the max simulated clock across its
    /// devices (a batch occupies the whole replica).
    fn replica_load(&self, r: usize) -> u64 {
        self.replica_devices(r)
            .iter()
            .map(|d| d.cycles())
            .max()
            .unwrap_or(0)
    }

    /// Pick the best replica among `candidates`: restrict to the preferred
    /// set when it still holds a candidate, then order by (soft-health
    /// strikes, load, replica index). Deterministic given device clocks.
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
                self.replica_load(r),
                r,
            )
        })
    }

    // -- query path ---------------------------------------------------------

    /// Batched range query over any healthy replica (bit-identical to the
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
        assert_eq!(queries.len(), radii.len());
        if let Some(res) = self.try_whole(prefer, |rep| rep.batch_range(queries, radii)) {
            return res;
        }
        let per_shard = self.try_per_shard(prefer, |rep, s| rep.shard_range(s, queries, radii))?;
        let mut merged: Vec<Vec<Neighbor>> = vec![Vec::new(); queries.len()];
        for lists in per_shard {
            for (m, mut list) in merged.iter_mut().zip(lists) {
                m.append(&mut list);
            }
        }
        for m in &mut merged {
            sort_neighbors(m);
        }
        Ok(merged)
    }

    /// Batched kNN over any healthy replica. Fast path: the whole batch on
    /// the least-loaded fully-healthy replica. Failures retry per the module
    /// rules; with no fully-healthy replica left, the degraded per-shard
    /// path composes the answer from surviving shard copies and
    /// k-way-merges exactly.
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
        if let Some(res) = self.try_whole(prefer, |rep| rep.batch_knn(queries, k)) {
            return res;
        }
        let per_shard = self.try_per_shard(prefer, |rep, s| rep.shard_knn(s, queries, k))?;
        Ok((0..queries.len())
            .map(|q| {
                let lists: Vec<Vec<Neighbor>> =
                    per_shard.iter().map(|lists| lists[q].clone()).collect();
                kway_merge(&lists, k)
            })
            .collect())
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
    /// and a receipt staged; the deterministic
    /// [`repair`](ShardedGts::repair) is then driven to completion within
    /// the `1 + EXTRA_ATTEMPTS` budget (each attempt counted as a retry).
    /// A replica whose budget is exhausted — only possible under a
    /// *permanent* device loss — is left at its previous epoch; reads
    /// already route around it via the health filters, and
    /// [`ReplicatedShards::epoch_of`] takes the max so the lag is not
    /// observable through the service.
    ///
    /// Returns the receipt of the last replica that completed (replicas
    /// apply deterministically, so all completed receipts are identical),
    /// or the first error in replica order.
    pub fn apply_preferring(
        &self,
        prefer: &[usize],
        op: &UpdateOp<O>,
    ) -> Result<Applied, ReplicaError> {
        let all: Vec<usize>;
        let targets: &[usize] = if prefer.is_empty() {
            all = (0..self.replicas.len()).collect();
            &all
        } else {
            prefer
        };
        let mut last_ok: Option<Applied> = None;
        let mut first_err: Option<ReplicaError> = None;
        for &r in targets {
            let mut rep = self.wlock(r);
            let mut outcome: Option<Result<Applied, IndexError>> = None;
            match classify(|| rep.apply(op)) {
                Caught::Done(res) => outcome = Some(res),
                Caught::Fault(_) => {
                    self.device_faults.fetch_add(1, Ordering::Relaxed);
                }
                Caught::Panic => {
                    self.metric_panics.fetch_add(1, Ordering::Relaxed);
                    self.strikes[r].fetch_add(1, Ordering::Relaxed);
                }
            }
            // A fault mid-apply: drive the staged repair to completion,
            // retrying when the repair itself is struck again.
            if outcome.is_none() {
                for _ in 0..=EXTRA_ATTEMPTS {
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    match classify(|| rep.repair(op)) {
                        Caught::Done(res) => {
                            outcome = Some(res);
                            break;
                        }
                        Caught::Fault(_) => {
                            self.device_faults.fetch_add(1, Ordering::Relaxed);
                        }
                        Caught::Panic => {
                            self.metric_panics.fetch_add(1, Ordering::Relaxed);
                            self.strikes[r].fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
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
            None => Ok(last_ok.expect("targets is never empty")),
        }
    }

    // -- tracing ------------------------------------------------------------

    /// The trace recorder attached to any of this index's devices (tracing
    /// is attached pool-wide, so the first hit is authoritative).
    fn tracer(&self) -> Option<(std::sync::Arc<gts_trace::TraceRecorder>, u32)> {
        (0..self.replicas.len()).find_map(|r| {
            self.rlock(r)
                .pool()
                .devices()
                .iter()
                .find_map(|d| d.tracer())
        })
    }

    /// Record one replica-layer instant (retry, degradation, dead shard),
    /// stamped at replica `r`'s current critical path. Observational only;
    /// called exclusively on failure paths, so the healthy fast path never
    /// pays the device scan.
    fn trace_instant(&self, r: usize, kind: gts_trace::EventKind) {
        let Some((rec, _)) = self.tracer() else {
            return;
        };
        let at = self
            .rlock(r)
            .pool()
            .devices()
            .iter()
            .map(|d| d.cycles())
            .max()
            .unwrap_or(0);
        let mut ctx = gts_trace::current_ctx();
        ctx.replica = Some(r as u32);
        rec.record(gts_trace::TraceEvent::instant(kind, ctx, None, at));
    }

    // -- retry machinery ----------------------------------------------------

    /// The whole-replica fast path: route the batch to one fully-healthy
    /// replica, retrying on fault/panic within the attempt budget. Returns
    /// `None` when no fully-healthy candidate remains (degrade), `Some`
    /// with the outcome otherwise.
    fn try_whole(
        &self,
        prefer: &[usize],
        call: impl Fn(&ShardedGts<O, M>) -> Result<Vec<Vec<Neighbor>>, IndexError>,
    ) -> Option<Result<Vec<Vec<Neighbor>>, ReplicaError>> {
        let mut banned = vec![false; self.replicas.len()];
        let budget = self.replicas.len() + EXTRA_ATTEMPTS;
        let mut first_attempt = true;
        for _ in 0..budget {
            let candidates: Vec<usize> = (0..self.replicas.len())
                .filter(|&r| !banned[r] && self.replica_fully_healthy(r))
                .collect();
            let Some(r) = self.pick(&candidates, prefer) else {
                // No fully-healthy replica (left): degrade. Retries already
                // burned are counted; the degraded path has its own budget.
                return None;
            };
            if !first_attempt {
                self.retries.fetch_add(1, Ordering::Relaxed);
            }
            first_attempt = false;
            match classify(|| {
                let mut ctx = gts_trace::current_ctx();
                ctx.replica = Some(r as u32);
                let _scope = gts_trace::scoped_ctx(ctx);
                call(&self.rlock(r))
            }) {
                Caught::Done(res) => return Some(res.map_err(ReplicaError::Index)),
                Caught::Fault(kind) => {
                    self.device_faults.fetch_add(1, Ordering::Relaxed);
                    // Transient: the fault disarmed itself, the replica
                    // stays a candidate and the retry will succeed.
                    // Permanent: the device is quarantined, so the
                    // fully-healthy filter drops the replica next round.
                    let _ = kind;
                    self.trace_instant(
                        r,
                        gts_trace::EventKind::ReplicaRetry {
                            cause: gts_trace::RetryCause::DeviceFault,
                        },
                    );
                }
                Caught::Panic => {
                    self.metric_panics.fetch_add(1, Ordering::Relaxed);
                    self.strikes[r].fetch_add(1, Ordering::Relaxed);
                    banned[r] = true;
                    self.trace_instant(
                        r,
                        gts_trace::EventKind::ReplicaRetry {
                            cause: gts_trace::RetryCause::Panic,
                        },
                    );
                }
            }
        }
        Some(Err(ReplicaError::AllReplicasFailed { shard: u32::MAX }))
    }

    /// The degraded path: answer each shard from any surviving copy across
    /// replicas (concurrently, one host thread per shard), with the same
    /// classify/retry/ban discipline per shard. Errors rank: a dead shard
    /// reports [`ReplicaError::ShardUnavailable`]; the first failing shard
    /// (in shard order) decides the batch's error.
    fn try_per_shard(
        &self,
        prefer: &[usize],
        call: impl Fn(&ShardedGts<O, M>, usize) -> Result<Vec<Vec<Neighbor>>, IndexError> + Sync,
    ) -> Result<Vec<Vec<Vec<Neighbor>>>, ReplicaError> {
        self.degraded_calls.fetch_add(1, Ordering::Relaxed);
        self.trace_instant(0, gts_trace::EventKind::Degraded);
        let call = &call;
        let results: Vec<Result<Vec<Vec<Neighbor>>, ReplicaError>> =
            scoped_map((0..self.shards).collect(), |_, s| {
                let mut banned = vec![false; self.replicas.len()];
                let budget = self.replicas.len() + EXTRA_ATTEMPTS;
                let mut first_attempt = true;
                for _ in 0..budget {
                    let candidates: Vec<usize> = (0..self.replicas.len())
                        .filter(|&r| !banned[r] && self.shard_copy_healthy(r, s))
                        .collect();
                    let Some(r) = self.pick(&candidates, prefer) else {
                        return Err(if self.shard_alive(s) {
                            ReplicaError::AllReplicasFailed { shard: s as u32 }
                        } else {
                            if let Some((rec, _)) = self.tracer() {
                                rec.record(gts_trace::TraceEvent::instant(
                                    gts_trace::EventKind::ShardUnavailable { shard: s as u32 },
                                    gts_trace::current_ctx(),
                                    None,
                                    0,
                                ));
                                rec.flight_dump(gts_trace::DumpReason::ShardUnavailable);
                            }
                            ReplicaError::ShardUnavailable { shard: s as u32 }
                        });
                    };
                    if !first_attempt {
                        self.retries.fetch_add(1, Ordering::Relaxed);
                    }
                    first_attempt = false;
                    match classify(|| {
                        let mut ctx = gts_trace::current_ctx();
                        ctx.replica = Some(r as u32);
                        let _scope = gts_trace::scoped_ctx(ctx);
                        call(&self.rlock(r), s)
                    }) {
                        Caught::Done(res) => return res.map_err(ReplicaError::Index),
                        Caught::Fault(_) => {
                            self.device_faults.fetch_add(1, Ordering::Relaxed);
                            self.trace_instant(
                                r,
                                gts_trace::EventKind::ReplicaRetry {
                                    cause: gts_trace::RetryCause::DeviceFault,
                                },
                            );
                        }
                        Caught::Panic => {
                            self.metric_panics.fetch_add(1, Ordering::Relaxed);
                            self.strikes[r].fetch_add(1, Ordering::Relaxed);
                            banned[r] = true;
                            self.trace_instant(
                                r,
                                gts_trace::EventKind::ReplicaRetry {
                                    cause: gts_trace::RetryCause::Panic,
                                },
                            );
                        }
                    }
                }
                Err(ReplicaError::AllReplicasFailed { shard: s as u32 })
            });
        results.into_iter().collect()
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

    /// A metric that panics when it touches the poisoned query string —
    /// standing in for any misbehaving user metric (NaNs, assertions).
    #[derive(Clone, Copy)]
    struct PanicOnBoom;

    impl metric_space::Metric<Item> for PanicOnBoom {
        fn distance(&self, a: &Item, b: &Item) -> f64 {
            let (Some(a), Some(b)) = (a.as_text(), b.as_text()) else {
                panic!("text metric")
            };
            assert!(a != "boom" && b != "boom", "boom");
            (a.len() as f64 - b.len() as f64).abs()
        }
        fn work(&self, _: &Item, _: &Item) -> u64 {
            1
        }
        fn name(&self) -> &'static str {
            "panic-on-boom"
        }
    }
    impl metric_space::BatchMetric<Item> for PanicOnBoom {}

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
            PanicOnBoom,
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
        // Sizing is deterministic and delegates to replica 0.
        assert_eq!(
            idx.max_batch_queries(2.0, 64, 7),
            idx.replica(0).read().unwrap().max_batch_queries(2.0, 64, 7)
        );
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
        let (_, pool, idx) = replicated(200, 2, 2);
        // Strike replica 1's shard-0 device on its next kernel: the apply
        // broadcast hits replica 0 first (clean), then replica 1 faults on
        // the tombstone scan kernel mid-apply and must repair. (A remove, not
        // an insert: a non-overflowing insert launches no kernel at all.)
        FaultPlan::new()
            .fail_device(2, 1, gpu_sim::FaultKind::Transient)
            .arm(&pool);
        let ack = idx
            .apply_preferring(&[], &UpdateOp::Remove(0))
            .expect("remove repaired");
        assert_eq!(ack.epoch, 1);
        assert_eq!(ack.removed, 1);
        let rs = idx.replica_stats();
        assert!(rs.device_faults >= 1, "the fault fired");
        assert!(rs.retries >= 1, "repair counted as a retry");
        assert_eq!(idx.replica(0).read().unwrap().epoch(), 1);
        assert_eq!(idx.replica(1).read().unwrap().epoch(), 1);
        assert_eq!(
            idx.replica(0).read().unwrap().snapshot(),
            idx.replica(1).read().unwrap().snapshot(),
            "repaired replica is bit-identical to the clean one"
        );
    }
}
