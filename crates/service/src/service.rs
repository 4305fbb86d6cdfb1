//! [`QueryService`]: the running service — a batcher thread dealing
//! flushed batches round-robin across executor **lanes**, each lane pinned
//! to a disjoint set of replicas of a [`ReplicatedShards`] index.
//!
//! ## Failure domains
//!
//! Each lane executes its batches against its preferred replicas, so a
//! device fault is contained to one lane's replica set: the replica layer
//! retries on survivors (bit-identically — replicas are exact copies), and
//! only a shard whose **every** copy is quarantined fails requests, fast
//! and typed ([`ServiceError::ShardUnavailable`]). A panicking user metric
//! is likewise contained: the replica layer converts it to a typed
//! per-batch error, and a panic escaping even that is caught at the lane
//! boundary ([`ServiceError::BatchPanicked`]) — the lane keeps draining
//! either way, so one poisoned batch can never hang the queue behind it.

use crate::api::{
    FlushTrigger, LatencyBreakdown, Reply, Request, Response, ServiceError, UpdateAck,
};
use crate::batcher::EXECUTOR_PIPELINE_BATCHES;
use crate::batcher::{self, Batch, BatchKind, Entry, ServiceConfig, Shared, SubmitHandle};
use crate::metrics;
use crate::stats::ServiceStats;
use gts_core::{ReplicatedShards, ShardedGts, UpdateOp};
use gts_trace::{DumpReason, EventKind, TraceEvent, TraceRecorder};
use metric_space::index::Neighbor;
use metric_space::{BatchMetric, Footprint};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// The online query service: accepts individual [`Request`]s through
/// [`SubmitHandle`]s, microbatches them, and executes the batches against
/// a replicated sharded index on one or more executor lanes — query
/// batches are dealt round-robin across lanes (FIFO within each lane),
/// update batches are broadcast to every lane so each lane's replicas
/// apply the same serialized epoch order. While the service runs, the
/// index is **fenced**: direct `insert`/`remove`/`batch_update` calls on
/// it are rejected, so the admission order is the only write order.
///
/// ```
/// use gts_core::{GtsParams, ShardedGts};
/// use gts_service::{QueryService, Request, ServiceConfig};
/// use gpu_sim::DevicePool;
/// use metric_space::DatasetKind;
///
/// let data = DatasetKind::Words.generate(600, 42);
/// let pool = DevicePool::rtx_2080_ti(2);
/// let index = ShardedGts::build(&pool, data.items.clone(), data.metric,
///                               GtsParams::default().with_shards(2)).unwrap();
/// let service = QueryService::start(index, ServiceConfig::default());
/// let handle = service.handle();
///
/// // An update flows through the same admission queue as the queries.
/// let inserted = handle.submit(Request::Insert {
///     object: data.items[0].clone(),
/// }).unwrap().wait().unwrap();
/// assert_eq!(inserted.epoch, 1);
/// assert_eq!(inserted.result.unwrap().update().assigned, vec![600]);
///
/// let ticket = handle.submit(Request::Knn {
///     query: data.items[0].clone(),
///     k: 3,
/// }).unwrap();
/// let response = ticket.wait().unwrap();
/// assert_eq!(response.result.unwrap().neighbors().len(), 3);
/// assert_eq!(response.epoch, 1, "served after the one applied update");
/// let stats = service.shutdown();
/// assert_eq!(stats.completed, 2);
/// assert_eq!(stats.epoch, 1);
/// ```
pub struct QueryService<O, M> {
    shared: Arc<Shared<O>>,
    index: Arc<ReplicatedShards<O, M>>,
    /// The one ledger: lanes count into it, snapshots clone it.
    ledger: Arc<Mutex<ServiceStats>>,
    batcher: Option<JoinHandle<()>>,
    lanes: Vec<JoinHandle<()>>,
    batch_target: usize,
    num_lanes: usize,
    /// The trace recorder, when [`ServiceConfig::trace`] enabled one. The
    /// same recorder is attached to every device of every replica.
    trace: Option<Arc<TraceRecorder>>,
    /// Whether snapshots and scrapes render the metrics view
    /// ([`ServiceConfig::metrics`]).
    metrics: bool,
}

impl<O, M> QueryService<O, M>
where
    O: Clone + Send + Sync + Footprint + 'static,
    M: BatchMetric<O> + Clone + Send + Sync + 'static,
{
    /// Start the service over a plain [`ShardedGts`]: the compatibility
    /// path, equivalent to one replica and one lane of
    /// [`QueryService::start_replicated`] (the index is wrapped in a
    /// single-replica [`ReplicatedShards`], which adds no devices and
    /// changes no clocks). Takes the index **by value** — a retained
    /// outside handle could mutate it behind the admission queue's back;
    /// reach it through [`QueryService::index`] instead.
    pub fn start(index: ShardedGts<O, M>, cfg: ServiceConfig) -> Self {
        Self::start_replicated(Arc::new(ReplicatedShards::from_replicas(vec![index])), cfg)
    }

    /// Start the service over a replicated index: spawns the batcher
    /// thread and `cfg.lanes` executor lanes. The lane count is clamped to
    /// the replica count — lane `l` prefers replicas `{r : r mod L = l}`,
    /// and more lanes than replicas would race on the same devices and
    /// destroy clock determinism.
    ///
    /// The index is **fenced** for the service's lifetime: direct mutation
    /// of any replica is rejected with a typed error until shutdown
    /// releases the fence — submit [`Request::Insert`] /
    /// [`Request::Remove`] / [`Request::BatchUpdate`] instead, so every
    /// write serializes through the admission queue.
    pub fn start_replicated(index: Arc<ReplicatedShards<O, M>>, cfg: ServiceConfig) -> Self {
        index.fence_all();
        // The builder asserts these, but the fields are pub — validate here
        // too so a hand-built config fails with a meaningful message.
        assert!(
            cfg.max_batch >= 1,
            "max_batch must admit at least one request"
        );
        assert!(
            cfg.queue_depth >= 1,
            "queue_depth must admit at least one request"
        );
        assert!(cfg.lanes >= 1, "the service needs at least one lane");
        let num_lanes = cfg.lanes.min(index.num_replicas());
        // The batch target is the cap, clamped to the queue depth: a target
        // the admission queue cannot physically hold would make the size
        // trigger silently unreachable (every flush would wait out the
        // deadline).
        let batch_target = cfg.max_batch.min(cfg.queue_depth);
        let shared = Shared::new(cfg.queue_depth, batch_target, cfg.flush_deadline, num_lanes);
        // Tracing: one recorder shared by every layer, attached to every
        // device of every replica with globally unique track ids. Purely
        // observational — it reads the simulated clocks, never advances
        // them, so enabling it changes no answer, epoch, or cycle count.
        let trace = cfg.trace.enabled.then(|| {
            let rec = TraceRecorder::new(cfg.trace);
            let mut dev_id = 0u32;
            for r in 0..index.num_replicas() {
                for d in index
                    .replica(r)
                    .read()
                    .expect("replica lock")
                    .pool()
                    .devices()
                {
                    d.attach_tracer(Arc::clone(&rec), dev_id);
                    dev_id += 1;
                }
            }
            rec
        });
        let ledger = Arc::new(Mutex::new(ServiceStats {
            batch_target,
            lanes: num_lanes,
            lane_batches: vec![0; num_lanes],
            ..ServiceStats::default()
        }));
        // One bounded pipeline channel per lane: a slow lane backs pressure
        // up through the batcher into the admission queue instead of
        // accumulating flushed batches in host memory.
        let mut lane_txs = Vec::with_capacity(num_lanes);
        let mut lane_rxs = Vec::with_capacity(num_lanes);
        for _ in 0..num_lanes {
            let (tx, rx) = mpsc::sync_channel::<Batch<O>>(EXECUTOR_PIPELINE_BATCHES);
            lane_txs.push(tx);
            lane_rxs.push(rx);
        }
        let batcher = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || batcher::run(&shared, &lane_txs))
        };
        let lanes = lane_rxs
            .into_iter()
            .enumerate()
            .map(|(lane, rx)| {
                let index = Arc::clone(&index);
                let shared = Arc::clone(&shared);
                let ledger = Arc::clone(&ledger);
                let trace = trace.clone();
                // Disjoint preferred replica sets: lane l owns every
                // replica congruent to l mod L.
                let prefer: Vec<usize> = (0..index.num_replicas())
                    .filter(|r| r % num_lanes == lane)
                    .collect();
                std::thread::spawn(move || {
                    run_lane(&index, lane, &prefer, &rx, &shared, &ledger, trace.as_ref())
                })
            })
            .collect();
        QueryService {
            shared,
            index,
            ledger,
            batcher: Some(batcher),
            lanes,
            batch_target,
            num_lanes,
            trace,
            metrics: cfg.metrics,
        }
    }

    /// A cloneable submission endpoint.
    pub fn handle(&self) -> SubmitHandle<O> {
        SubmitHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The batch target in force: requests per size-triggered flush.
    pub fn batch_target(&self) -> usize {
        self.batch_target
    }

    /// Executor lanes running (the configured count clamped to the replica
    /// count).
    pub fn num_lanes(&self) -> usize {
        self.num_lanes
    }

    /// The replicated index the service executes against.
    pub fn index(&self) -> &Arc<ReplicatedShards<O, M>> {
        &self.index
    }

    /// The trace recorder, when [`ServiceConfig::trace`] enabled tracing:
    /// export with [`TraceRecorder::to_chrome_json`], summarize with
    /// [`TraceRecorder::summary`], or inspect flight dumps directly.
    pub fn trace(&self) -> Option<&Arc<TraceRecorder>> {
        self.trace.as_ref()
    }

    /// The Prometheus text exposition of a fresh stats snapshot
    /// ([`ServiceStats::metrics`]). `None` when metrics are disabled.
    /// Scraping is observational: it reads the ledger and the simulated
    /// clocks without advancing them, so two scrapes of an idle service
    /// are byte-identical.
    pub fn scrape(&self) -> Option<String> {
        self.collect_stats().metrics
    }

    /// Point-in-time statistics (the service keeps running).
    pub fn stats(&self) -> ServiceStats {
        self.collect_stats()
    }

    /// Stop admitting, drain the queue (every in-flight request is still
    /// answered, via shutdown-triggered flushes), join all threads, and
    /// return the final statistics.
    pub fn shutdown(mut self) -> ServiceStats {
        self.stop_and_join();
        self.collect_stats()
    }

    /// Clone the ledger — releasing its lock before anything else is read —
    /// and fill in the fields derived elsewhere; then, with metrics on,
    /// write the exposition of the result and of every replica pool's
    /// device counters (replica order, so devices number replica-major).
    fn collect_stats(&self) -> ServiceStats {
        let mut s = lock_stats(&self.ledger).clone();
        s.admitted = self.shared.admitted.load(Ordering::Relaxed);
        s.rejected = self.shared.rejected.load(Ordering::Relaxed);
        s.epoch = self.index.epoch_of(&[]);
        s.replica = self.index.replica_stats();
        s.retries = s.replica.retries;
        s.device_faults = s.replica.device_faults;
        s.metric_panics = s.replica.metric_panics;
        s.degraded_calls = s.replica.degraded_calls;
        s.index = self.index.stats();
        // Snapshot-time reconciliation of the lane/batch ledger. Every
        // flushed batch is executed once per responsible lane — query
        // batches by one lane, update batches by all L — so a healthy
        // service satisfies `Σ lane_batches = batches + (L−1)·update_batches`.
        // A lane that died mid-run (panic past every containment layer)
        // stops draining its copies and leaves the sum short; the deficit is
        // reported rather than silently miscounting throughput.
        let expected = s.batches + (self.num_lanes as u64 - 1) * s.update_batches;
        s.lane_batches_deficit = expected.saturating_sub(s.lane_batches.iter().sum());
        if let Some(rec) = &self.trace {
            s.trace_events_dropped = rec.dropped();
            s.flight_dumps = rec.flight_dumps();
        }
        if self.metrics {
            let devices: Vec<Vec<_>> = (0..self.index.num_replicas())
                .map(|r| {
                    let replica = self.index.replica(r).read().expect("replica lock");
                    replica.pool().devices().iter().map(|d| d.stats()).collect()
                })
                .collect();
            let stages = self.trace.as_ref().map(|rec| rec.summary());
            s.metrics = Some(metrics::exposition(&s, &devices, stages.as_ref()));
        }
        s
    }
}

// Teardown needs none of the query-path bounds, and living in an
// unbounded impl lets `Drop` share it verbatim with `shutdown`.
impl<O, M> QueryService<O, M> {
    fn stop_and_join(&mut self) {
        self.shared.stop();
        if let Some(h) = self.batcher.take() {
            let _ = h.join();
        }
        for h in self.lanes.drain(..) {
            let _ = h.join();
        }
        // Every lane is gone: hand the index back to the caller by lifting
        // the direct-mutation fence (idempotent — Drop after shutdown
        // releases again harmlessly).
        self.index.release_all();
    }
}

impl<O, M> Drop for QueryService<O, M> {
    fn drop(&mut self) {
        // Same teardown as `shutdown`, so a dropped service never leaks its
        // threads (after shutdown all handles are already taken — no-op).
        self.stop_and_join();
    }
}

/// One executable sub-batch: indices into the flushed batch plus the
/// uniform call shape (every range request can share one `batch_range`
/// call; kNN requests share a call per distinct `k`).
enum SubBatch {
    Range(Vec<usize>),
    Knn(Vec<usize>, usize),
}

impl SubBatch {
    /// The flushed-batch indices this sub-batch answers.
    fn indices(&self) -> &[usize] {
        match self {
            SubBatch::Range(idx) | SubBatch::Knn(idx, _) => idx,
        }
    }
}

/// Split one flushed batch into its index calls, deterministically: all
/// range requests first (FIFO order), then kNN groups by ascending `k`
/// (FIFO within each group). The split is a pure function of the batch, so
/// FIFO batches imply FIFO sub-batches — and reproducible device clocks.
fn split_batch<O>(entries: &[Entry<O>]) -> Vec<SubBatch> {
    let mut ranges = Vec::new();
    let mut knn: Vec<(usize, Vec<usize>)> = Vec::new(); // (k, FIFO indices)
    for (i, e) in entries.iter().enumerate() {
        match &e.req {
            Request::Range { .. } => ranges.push(i),
            Request::Knn { k, .. } => match knn.binary_search_by_key(k, |g| g.0) {
                Ok(g) => knn[g].1.push(i),
                Err(g) => knn.insert(g, (*k, vec![i])),
            },
            Request::Insert { .. } | Request::Remove { .. } | Request::BatchUpdate { .. } => {
                // The batcher's kind barrier keeps updates out of query
                // batches; an update here is an internal invariant
                // violation and is skipped (its ticket disconnects).
                debug_assert!(false, "update request in a query batch");
            }
        }
    }
    let mut out = Vec::new();
    if !ranges.is_empty() {
        out.push(SubBatch::Range(ranges));
    }
    out.extend(knn.into_iter().map(|(k, idx)| SubBatch::Knn(idx, k)));
    out
}

/// Take the ledger lock, ignoring poisoning: every update under it is a
/// counter bump or a histogram record that leaves the ledger valid at each
/// step, so a panic that unwound through a guard cost at most its own
/// increment — while refusing the lock would fail every later batch on
/// every lane.
fn lock_stats(stats: &Mutex<ServiceStats>) -> MutexGuard<'_, ServiceStats> {
    stats.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Count `n` responses about to be sent, failed with `err` when it is
/// set. Called *before* the send: a client reading the stats the moment
/// its `Ticket::wait` returns already sees its own request (the send is
/// the happens-before edge).
fn count_responses(s: &mut ServiceStats, n: u64, err: Option<&ServiceError>) {
    s.completed += n;
    if let Some(e) = err {
        s.failed += n;
        if matches!(e, ServiceError::ShardUnavailable { .. }) {
            s.shard_unavailable += n;
        }
    }
}

/// Account one panic contained at a lane boundary: count it, record a
/// `LanePanic` instant on the lane's critical path and take a flight dump.
fn lane_panicked<O, M>(
    index: &ReplicatedShards<O, M>,
    prefer: &[usize],
    stats: &Mutex<ServiceStats>,
    trace: Option<&Arc<TraceRecorder>>,
) where
    O: Clone + Send + Sync + Footprint,
    M: BatchMetric<O> + Clone,
{
    lock_stats(stats).lane_panics += 1;
    if let Some(rec) = trace {
        rec.record(TraceEvent::instant(
            EventKind::LanePanic,
            gts_trace::current_ctx(),
            None,
            index.span_of(prefer),
        ));
        rec.flight_dump(DumpReason::LanePanic);
    }
}

/// One executor lane: receives its batches in deal order and runs each to
/// completion before the next. Lanes prefer disjoint replica sets, so the
/// per-batch span-cycle deltas a lane records against its own replicas'
/// clocks are exact (no interleaving with sibling lanes) — and so each
/// lane's replicas are written **only by this lane**, in the per-lane FIFO
/// order every lane shares (update batches are broadcast). A panic
/// escaping the replica layer's own containment is caught here — the
/// batch fails typed ([`ServiceError::BatchPanicked`]) and the lane keeps
/// draining. Once a batch's responses are sent — or a panic unwinds past
/// every containment layer — the lane signals the batcher that it has one
/// batch fewer outstanding, which is what the idle trigger reads.
///
/// Stats gating: `lane_batches` counts every batch each lane executes;
/// all per-request counters (`batches`, flush kinds, queue waits,
/// `completed`, `failed`, `updates_applied`, …) are bumped only by the
/// batch's **responder** copy, so a broadcast update is counted once.
fn run_lane<O, M>(
    index: &ReplicatedShards<O, M>,
    lane: usize,
    prefer: &[usize],
    batch_rx: &mpsc::Receiver<Batch<O>>,
    shared: &Shared<O>,
    stats: &Mutex<ServiceStats>,
    trace: Option<&Arc<TraceRecorder>>,
) where
    O: Clone + Send + Sync + Footprint,
    M: BatchMetric<O> + Clone,
{
    for batch in batch_rx.iter() {
        let _done = shared.completion(lane);
        {
            let mut s = lock_stats(stats);
            s.lane_batches[lane] += 1;
            if batch.respond {
                s.batches += 1;
                match batch.trigger {
                    FlushTrigger::Idle => s.idle_flushes += 1,
                    FlushTrigger::Size => s.size_flushes += 1,
                    FlushTrigger::Deadline => s.deadline_flushes += 1,
                    FlushTrigger::Shutdown => s.shutdown_flushes += 1,
                }
                for e in &batch.entries {
                    s.queue_wait_us.record(e.wait_us);
                }
            }
        }
        // Plant the lane/batch trace context for everything this batch
        // does, and record the request→batch association *before*
        // execution — so a flight dump taken at a mid-batch fault already
        // holds the member list needed to walk back to the requests.
        let ctx = gts_trace::TraceCtx::default()
            .with_batch(batch.seq)
            .with_lane(lane as u32);
        let _scope = gts_trace::scoped_ctx(ctx);
        let span_begin = index.span_of(prefer);
        if let Some(rec) = trace {
            rec.record(TraceEvent::instant(
                EventKind::BatchStart {
                    size: batch.entries.len() as u32,
                    update: batch.kind == BatchKind::Update,
                },
                ctx,
                None,
                span_begin,
            ));
            for e in &batch.entries {
                let mut mctx = ctx;
                mctx.request = Some(e.id);
                rec.record(TraceEvent::instant(
                    EventKind::BatchMember { request: e.id },
                    mctx,
                    None,
                    span_begin,
                ));
            }
        }
        // Outer containment: `query_batch`/`update_batch` catch panics per
        // sub-batch, but a panic escaping even that (e.g. out of a respond
        // path) must not kill the lane — a dead lane stops draining its
        // pipeline and wedges the batcher. The batch's tickets disconnect;
        // the lane keeps serving.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match batch.kind {
            BatchKind::Query => query_batch(index, prefer, &batch, stats, trace),
            BatchKind::Update => update_batch(index, prefer, &batch, stats, trace),
        }));
        if outcome.is_err() {
            lane_panicked(index, prefer, stats, trace);
        } else if let Some(rec) = trace {
            rec.record(TraceEvent::span(
                EventKind::LaneBatch {
                    size: batch.entries.len() as u32,
                    update: batch.kind == BatchKind::Update,
                },
                ctx,
                None,
                span_begin,
                index.span_of(prefer),
            ));
        }
    }
}

/// Execute one query batch: split into uniform sub-batches and answer each
/// at the lane's current epoch. The epoch is read once — this lane's
/// replicas are mutated only by this lane (updates broadcast per lane), so
/// it cannot move under a running batch.
fn query_batch<O, M>(
    index: &ReplicatedShards<O, M>,
    prefer: &[usize],
    batch: &Batch<O>,
    stats: &Mutex<ServiceStats>,
    trace: Option<&Arc<TraceRecorder>>,
) where
    O: Clone + Send + Sync + Footprint,
    M: BatchMetric<O> + Clone,
{
    let size = batch.entries.len();
    let epoch = index.epoch_of(prefer);
    for sub in split_batch(&batch.entries) {
        let before = index.span_of(prefer);
        let answers = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_sub(index, prefer, &batch.entries, &sub)
        })) {
            Ok(res) => res,
            Err(_) => {
                lane_panicked(index, prefer, stats, trace);
                Err(ServiceError::BatchPanicked)
            }
        };
        let span = index.span_of(prefer).saturating_sub(before);
        let indices = sub.indices();
        {
            let mut s = lock_stats(stats);
            s.batch_span_cycles.record(span);
            count_responses(&mut s, indices.len() as u64, answers.as_ref().err());
        }
        match answers {
            Ok(mut per_query) => {
                // Walk in reverse so `pop` hands each index its answer
                // without cloning.
                for &i in indices.iter().rev() {
                    let result = Ok(Reply::Neighbors(
                        per_query.pop().expect("one answer per request"),
                    ));
                    respond(&batch.entries[i], result, epoch, span, size, batch.trigger);
                }
            }
            Err(e) => {
                for &i in indices {
                    respond(
                        &batch.entries[i],
                        Err(e.clone()),
                        epoch,
                        span,
                        size,
                        batch.trigger,
                    );
                }
            }
        }
    }
}

/// Apply one update batch to this lane's replicas, strictly FIFO — each
/// update is one epoch step on every replica of the preferred set. Only
/// the responder copy (lane 0's) answers tickets and bumps per-request
/// counters; sibling lanes apply the identical ops to their own replicas
/// silently, which is what keeps all replicas at the same epoch.
fn update_batch<O, M>(
    index: &ReplicatedShards<O, M>,
    prefer: &[usize],
    batch: &Batch<O>,
    stats: &Mutex<ServiceStats>,
    trace: Option<&Arc<TraceRecorder>>,
) where
    O: Clone + Send + Sync + Footprint,
    M: BatchMetric<O> + Clone,
{
    let size = batch.entries.len();
    if batch.respond {
        lock_stats(stats).update_batches += 1;
    }
    for entry in &batch.entries {
        let op = match &entry.req {
            Request::Insert { object } => UpdateOp::Insert(object.clone()),
            Request::Remove { id } => UpdateOp::Remove(*id),
            Request::BatchUpdate {
                insertions,
                deletions,
            } => UpdateOp::Batch {
                insertions: insertions.clone(),
                deletions: deletions.clone(),
            },
            Request::Range { .. } | Request::Knn { .. } => {
                debug_assert!(false, "update batch must hold update requests");
                if batch.respond {
                    let err = ServiceError::MalformedBatch;
                    count_responses(&mut lock_stats(stats), 1, Some(&err));
                    let epoch = index.epoch_of(prefer);
                    respond(entry, Err(err), epoch, 0, size, batch.trigger);
                }
                continue;
            }
        };
        let before = index.span_of(prefer);
        let result = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            index.apply_preferring(prefer, &op)
        })) {
            Ok(Ok(ack)) => Ok(Reply::Update(UpdateAck {
                assigned: ack.assigned,
                removed: ack.removed,
            })),
            Ok(Err(e)) => Err(ServiceError::from(e)),
            Err(_) => {
                lane_panicked(index, prefer, stats, trace);
                Err(ServiceError::BatchPanicked)
            }
        };
        let span = index.span_of(prefer).saturating_sub(before);
        // The update's own application is included in its stamp.
        let epoch = index.epoch_of(prefer);
        if batch.respond {
            {
                let mut s = lock_stats(stats);
                s.batch_span_cycles.record(span);
                s.updates_applied += u64::from(result.is_ok());
                count_responses(&mut s, 1, result.as_ref().err());
            }
            respond(entry, result, epoch, span, size, batch.trigger);
        }
    }
}

/// Run one sub-batch against the lane's preferred replicas, returning the
/// per-request answers. A request whose shape contradicts the sub-batch it
/// was grouped into is an internal invariant violation: loud in debug
/// builds, a typed [`ServiceError::MalformedBatch`] that fails only this
/// batch (the lane survives) in release builds.
fn execute_sub<O, M>(
    index: &ReplicatedShards<O, M>,
    prefer: &[usize],
    entries: &[Entry<O>],
    sub: &SubBatch,
) -> Result<Vec<Vec<Neighbor>>, ServiceError>
where
    O: Clone + Send + Sync + Footprint,
    M: BatchMetric<O> + Clone,
{
    match sub {
        SubBatch::Range(indices) => {
            let mut queries = Vec::with_capacity(indices.len());
            let mut radii = Vec::with_capacity(indices.len());
            for &i in indices {
                let Request::Range { query, radius } = &entries[i].req else {
                    debug_assert!(false, "range sub-batch must hold range requests");
                    return Err(ServiceError::MalformedBatch);
                };
                queries.push(query.clone());
                radii.push(*radius);
            }
            index
                .batch_range_preferring(prefer, &queries, &radii)
                .map_err(ServiceError::from)
        }
        SubBatch::Knn(indices, k) => {
            let mut queries = Vec::with_capacity(indices.len());
            for &i in indices {
                let Request::Knn { query, .. } = &entries[i].req else {
                    debug_assert!(false, "knn sub-batch must hold knn requests");
                    return Err(ServiceError::MalformedBatch);
                };
                queries.push(query.clone());
            }
            index
                .batch_knn_preferring(prefer, &queries, *k)
                .map_err(ServiceError::from)
        }
    }
}

/// Send one response. A client that dropped its
/// [`Ticket`](crate::Ticket) is not an error — fire-and-forget clients are
/// allowed.
fn respond<O>(
    entry: &Entry<O>,
    result: Result<Reply, ServiceError>,
    epoch: u64,
    span: u64,
    batch_size: usize,
    trigger: FlushTrigger,
) {
    let response = Response {
        result,
        epoch,
        latency: LatencyBreakdown {
            request: entry.id,
            queue_wait_us: entry.wait_us,
            batch_span_cycles: span,
            batch_size,
            trigger,
        },
    };
    let _ = entry.tx.send(response);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ServiceError;
    use gpu_sim::DevicePool;
    use gts_core::{Gts, GtsParams};
    use gts_trace::RequestId;
    use metric_space::index::SimilarityIndex;
    use metric_space::{DatasetKind, Item, ItemMetric};
    use std::time::Duration;

    fn service(
        n: usize,
        shards: u32,
        cfg: ServiceConfig,
    ) -> (Vec<Item>, ItemMetric, QueryService<Item, ItemMetric>) {
        let data = DatasetKind::Words.generate(n, 77);
        let pool = DevicePool::rtx_2080_ti(shards as usize);
        let index = ShardedGts::build(
            &pool,
            data.items.clone(),
            data.metric,
            GtsParams::default().with_shards(shards),
        )
        .expect("build");
        (data.items, data.metric, QueryService::start(index, cfg))
    }

    fn replicated_service(
        n: usize,
        shards: u32,
        replicas: u32,
        cfg: ServiceConfig,
    ) -> (Vec<Item>, QueryService<Item, ItemMetric>) {
        let data = DatasetKind::Words.generate(n, 77);
        let pool = DevicePool::rtx_2080_ti((shards * replicas) as usize);
        let index = ReplicatedShards::build(
            &pool,
            data.items.clone(),
            data.metric,
            GtsParams::default()
                .with_shards(shards)
                .with_replicas(replicas),
        )
        .expect("build");
        (
            data.items,
            QueryService::start_replicated(Arc::new(index), cfg),
        )
    }

    /// Regression for the lane/batch ledger gap: a lane dying mid-run
    /// (panic past every containment layer, or a wedged thread at
    /// teardown) leaves `Σ lane_batches` short of what the flush counters
    /// say ran — update broadcasts especially, where the responder counts
    /// the batch once but each lane counts its own copy. The snapshot
    /// reconciles the ledger instead of silently undercounting: healthy
    /// runs report a zero deficit, a doctored shortfall surfaces exactly.
    #[test]
    fn snapshot_reconciles_lane_batch_undercount() {
        let (items, svc) = replicated_service(
            240,
            1,
            2,
            ServiceConfig::default()
                .with_max_batch(2)
                .with_flush_deadline(Duration::from_millis(1))
                .with_lanes(2),
        );
        let h = svc.handle();
        let mut tickets = Vec::new();
        for i in 0..6 {
            tickets.push(
                h.submit(Request::Knn {
                    query: items[i * 7].clone(),
                    k: 3,
                })
                .expect("admitted"),
            );
        }
        tickets.push(
            h.submit(Request::Insert {
                object: items[0].clone(),
            })
            .expect("admitted"),
        );
        for t in tickets {
            t.wait().expect("answered").result.expect("ok");
        }
        // Healthy ledger at quiescence: Σ lane_batches == batches +
        // (L−1)·update_batches. The responder answers before the other
        // lane's silent broadcast copy lands, so poll briefly for the
        // in-flight copy instead of asserting mid-race.
        let healthy = {
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            loop {
                let s = svc.stats();
                if s.lane_batches_deficit == 0 || std::time::Instant::now() > deadline {
                    break s;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        assert_eq!(
            healthy.lane_batches.iter().sum::<u64>(),
            healthy.batches + healthy.update_batches,
            "2 lanes: each update batch runs twice, counted once"
        );
        assert_eq!(healthy.lane_batches_deficit, 0, "healthy runs reconcile");

        // Simulate the undercount (a lane whose counter never landed) and
        // snapshot again: the deficit surfaces instead of vanishing.
        svc.ledger.lock().expect("stats lock").lane_batches[0] -= 1;
        assert_eq!(svc.stats().lane_batches_deficit, 1);
        let stats = svc.shutdown();
        assert_eq!(stats.lane_batches_deficit, 1, "shutdown keeps the ledger");
    }

    /// A panic under the executor-stats guard poisons the mutex. The lanes
    /// must shrug that off: were the poison honoured, every later batch
    /// would panic at its first stats update, be swallowed by the lane's
    /// outer containment, and disconnect its tickets.
    #[test]
    fn poisoned_stats_lock_fails_no_request() {
        let (items, _, svc) = service(
            200,
            1,
            ServiceConfig::default()
                .with_max_batch(1)
                .with_flush_deadline(Duration::from_millis(1)),
        );
        let stats = Arc::clone(&svc.ledger);
        let poisoner = std::thread::spawn(move || {
            let _guard = stats.lock().expect("first holder");
            panic!("poison the executor stats lock");
        });
        assert!(poisoner.join().is_err(), "the holder panicked");
        assert!(svc.ledger.is_poisoned());
        let h = svc.handle();
        let knn = h
            .submit(Request::Knn {
                query: items[3].clone(),
                k: 2,
            })
            .expect("admitted");
        let insert = h
            .submit(Request::Insert {
                object: items[0].clone(),
            })
            .expect("admitted");
        let knn = knn.wait().expect("the query ticket is answered");
        assert_eq!(knn.result.expect("ok").neighbors().len(), 2);
        let insert = insert.wait().expect("the update ticket is answered");
        assert_eq!(insert.result.expect("ok").update().assigned, vec![200]);
        let stats = svc.shutdown();
        assert_eq!(stats.lane_panics, 0);
        assert_eq!((stats.completed, stats.failed), (2, 0));
        assert_eq!(stats.updates_applied, 1);
    }

    #[test]
    fn split_batch_groups_deterministically() {
        let (tx, _rx) = mpsc::sync_channel(1);
        let mk = |req| Entry {
            req,
            tx: tx.clone(),
            wait_us: 0,
            id: RequestId(0),
        };
        let entries = vec![
            mk(Request::Knn { query: 0u32, k: 5 }),
            mk(Request::Range {
                query: 1,
                radius: 1.0,
            }),
            mk(Request::Knn { query: 2, k: 3 }),
            mk(Request::Knn { query: 3, k: 5 }),
        ];
        let subs = split_batch(&entries);
        assert_eq!(subs.len(), 3, "ranges + two distinct k groups");
        let SubBatch::Range(r) = &subs[0] else {
            panic!("ranges first")
        };
        assert_eq!(r, &vec![1]);
        let SubBatch::Knn(g3, k3) = &subs[1] else {
            panic!("knn ascending")
        };
        assert_eq!((g3.as_slice(), *k3), ([2usize].as_slice(), 3));
        let SubBatch::Knn(g5, k5) = &subs[2] else {
            panic!("knn ascending")
        };
        assert_eq!((g5.as_slice(), *k5), ([0usize, 3].as_slice(), 5));
        assert_eq!(subs[2].indices(), &[0, 3]);
    }

    #[test]
    fn end_to_end_mixed_batch() {
        let (items, metric, svc) = service(
            400,
            2,
            ServiceConfig::default()
                .with_max_batch(4)
                .with_flush_deadline(Duration::from_millis(1)),
        );
        let h = svc.handle();
        let tickets: Vec<_> = (0..8)
            .map(|i| {
                let req = if i % 2 == 0 {
                    Request::Range {
                        query: items[i].clone(),
                        radius: 2.0,
                    }
                } else {
                    Request::Knn {
                        query: items[i].clone(),
                        k: 3,
                    }
                };
                h.submit(req).expect("admitted")
            })
            .collect();
        let single = Gts::build(
            &gpu_sim::Device::rtx_2080_ti(),
            items.clone(),
            metric,
            GtsParams::default(),
        )
        .expect("build");
        for (i, t) in tickets.into_iter().enumerate() {
            let r = t.wait().expect("answered");
            assert_eq!(r.epoch, 0, "no updates were admitted");
            let got = r.result.expect("no index error").neighbors();
            let want = if i % 2 == 0 {
                single.range_query(&items[i], 2.0).expect("direct")
            } else {
                single.knn_query(&items[i], 3).expect("direct")
            };
            assert_eq!(got, want, "request {i}");
            assert!(r.latency.batch_size >= 1);
        }
        let stats = svc.shutdown();
        assert_eq!(stats.admitted, 8);
        assert_eq!(stats.completed, 8);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.lanes, 1);
        assert_eq!(stats.lane_batches.iter().sum::<u64>(), stats.batches);
        assert!(stats.batches >= 2);
        assert_eq!(stats.queue_wait_us.count(), 8);
        assert!(stats.index.distance_computations > 0);
    }

    #[test]
    fn two_lanes_answer_bit_identically_to_one() {
        // Same requests through a 1-lane×1-replica and a 2-lane×2-replica
        // service: every answer must match, and both lanes must have
        // executed work.
        let cfg = ServiceConfig::default()
            .with_max_batch(3)
            .with_flush_deadline(Duration::from_millis(1));
        let (items, _, base) = service(400, 2, cfg);
        let (items2, wide) = replicated_service(400, 2, 2, cfg.with_lanes(2));
        assert_eq!(items, items2);
        assert_eq!(wide.num_lanes(), 2);
        let submit = |svc: &QueryService<Item, ItemMetric>| {
            let h = svc.handle();
            let tickets: Vec<_> = (0..12)
                .map(|i| {
                    h.submit(Request::Knn {
                        query: items[i * 7].clone(),
                        k: 4,
                    })
                    .expect("admitted")
                })
                .collect();
            tickets
                .into_iter()
                .map(|t| t.wait().expect("answered").result.expect("ok").neighbors())
                .collect::<Vec<_>>()
        };
        let want = submit(&base);
        let got = submit(&wide);
        assert_eq!(got, want, "lanes and replicas never change answers");
        let stats = wide.shutdown();
        assert_eq!(stats.lanes, 2);
        assert_eq!(stats.lane_batches.len(), 2);
        assert!(
            stats.lane_batches.iter().all(|&b| b > 0),
            "round-robin dealt batches to both lanes: {:?}",
            stats.lane_batches
        );
        assert_eq!(stats.failed, 0);
        base.shutdown();
    }

    #[test]
    fn lanes_clamp_to_replica_count() {
        let (_, svc) = replicated_service(
            200,
            1,
            1,
            ServiceConfig::default().with_lanes(4), // only 1 replica exists
        );
        assert_eq!(svc.num_lanes(), 1);
        svc.shutdown();
    }

    #[test]
    fn malformed_sub_batch_is_typed_not_fatal() {
        // Hand-build a contradictory sub-batch (a kNN request inside a
        // Range sub): debug builds assert loudly; release builds degrade to
        // the typed MalformedBatch error. Either way it cannot escape as an
        // unclassified panic past the lane boundary.
        let data = DatasetKind::Words.generate(120, 5);
        let pool = DevicePool::rtx_2080_ti(1);
        let index = Arc::new(ReplicatedShards::from_replicas(vec![ShardedGts::build(
            &pool,
            data.items,
            data.metric,
            GtsParams::default(),
        )
        .expect("build")]));
        let (tx, _rx) = mpsc::sync_channel(1);
        let entries = vec![Entry {
            req: Request::Knn {
                query: Item::text("q"),
                k: 1,
            },
            tx,
            wait_us: 0,
            id: RequestId(0),
        }];
        let sub = SubBatch::Range(vec![0]);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_sub(index.as_ref(), &[], &entries, &sub)
        }));
        if cfg!(debug_assertions) {
            assert!(outcome.is_err(), "debug builds assert on malformed subs");
        } else {
            assert_eq!(
                outcome.expect("no panic in release"),
                Err(ServiceError::MalformedBatch)
            );
        }
    }

    #[test]
    fn shutdown_drains_in_flight_requests() {
        let (items, _, svc) = service(
            300,
            1,
            ServiceConfig::default()
                .with_max_batch(1000)
                .with_flush_deadline(Duration::from_secs(3600)),
        );
        let h = svc.handle();
        let tickets: Vec<_> = (0..5)
            .map(|i| {
                h.submit(Request::Knn {
                    query: items[i].clone(),
                    k: 2,
                })
                .expect("admitted")
            })
            .collect();
        // Neither the size nor the deadline trigger can fire (huge target,
        // hour-long deadline); the idle lane ships what it can, and
        // shutdown must answer the rest.
        let stats = svc.shutdown();
        assert_eq!(stats.completed, 5);
        assert_eq!((stats.size_flushes, stats.deadline_flushes), (0, 0));
        assert_eq!(stats.idle_flushes + stats.shutdown_flushes, stats.batches);
        for t in tickets {
            assert_eq!(
                t.wait()
                    .expect("drained")
                    .result
                    .expect("ok")
                    .neighbors()
                    .len(),
                2
            );
        }
    }

    #[test]
    fn updates_flow_through_the_queue_and_stamp_epochs() {
        let (items, metric, svc) = service(
            300,
            2,
            ServiceConfig::default()
                .with_max_batch(4)
                .with_flush_deadline(Duration::from_millis(1)),
        );
        let h = svc.handle();
        // insert → remove → query, submitted in order: FIFO admission is
        // the serialization order, and each response stamps its epoch.
        let t_ins = h
            .submit(Request::Insert {
                object: items[0].clone(),
            })
            .expect("admitted");
        let t_rem = h.submit(Request::Remove { id: 1 }).expect("admitted");
        let t_query = h
            .submit(Request::Knn {
                query: items[0].clone(),
                k: 3,
            })
            .expect("admitted");
        let r = t_ins.wait().expect("answered");
        assert_eq!(r.epoch, 1);
        let ack = r.result.expect("ok").update();
        assert_eq!(
            (ack.assigned.as_slice(), ack.removed),
            ([300u32].as_slice(), 0)
        );
        let r = t_rem.wait().expect("answered");
        assert_eq!(r.epoch, 2);
        assert_eq!(r.result.expect("ok").update().removed, 1);
        let r = t_query.wait().expect("answered");
        assert_eq!(r.epoch, 2, "the query reads after both updates");
        // The serialized oracle: one Gts over the same ops in epoch order.
        let mut single = Gts::build(
            &gpu_sim::Device::rtx_2080_ti(),
            items.clone(),
            metric,
            GtsParams::default(),
        )
        .expect("build");
        use metric_space::index::DynamicIndex;
        single.insert(items[0].clone()).expect("insert");
        single.remove(1).expect("remove");
        assert_eq!(
            r.result.expect("ok").neighbors(),
            single.knn_query(&items[0], 3).expect("direct"),
        );
        let stats = svc.shutdown();
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.updates_applied, 2);
        // Same-kind updates may coalesce into one flushed batch or split
        // across two depending on flush timing; both serialize identically.
        assert!((1..=2).contains(&stats.update_batches));
        assert_eq!(stats.epoch, 2);
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn service_fences_its_index_until_shutdown() {
        let (items, svc) = replicated_service(
            200,
            1,
            2,
            ServiceConfig::default()
                .with_max_batch(2)
                .with_flush_deadline(Duration::from_millis(1))
                .with_lanes(2),
        );
        use metric_space::index::DynamicIndex;
        let index = Arc::clone(svc.index());
        let err = index
            .replica(0)
            .write()
            .unwrap()
            .insert(items[0].clone())
            .expect_err("direct mutation is fenced while the service runs");
        assert!(matches!(
            err,
            metric_space::index::IndexError::Unsupported(_)
        ));
        // Through the queue it works — and reaches BOTH lanes' replicas.
        let ack = svc
            .handle()
            .submit(Request::Insert {
                object: items[0].clone(),
            })
            .expect("admitted")
            .wait()
            .expect("answered");
        assert_eq!(ack.epoch, 1);
        svc.shutdown();
        for r in 0..2 {
            assert_eq!(index.replica(r).read().unwrap().epoch(), 1);
        }
        // Shutdown released the fence: the caller owns the index again.
        index
            .replica(0)
            .write()
            .unwrap()
            .insert(items[1].clone())
            .expect("fence released after shutdown");
    }

    #[test]
    fn stopped_service_rejects_submission() {
        let (items, _, svc) = service(200, 1, ServiceConfig::default());
        let h = svc.handle();
        drop(svc); // Drop tears the service down like shutdown.
        assert_eq!(
            h.submit(Request::Knn {
                query: items[0].clone(),
                k: 1
            })
            .expect_err("stopped"),
            ServiceError::Stopped
        );
    }
}
