//! Service-level statistics: admission counters, flush-trigger breakdown,
//! latency histograms, lane/failure accounting, and the underlying index's
//! search and replica counters.

use gts_core::stats::{ReplicaStats, StatsSnapshot};
use gts_trace::LatencyHistogram;

/// A point-in-time snapshot of everything the service has done.
///
/// Latency is recorded into two [`LatencyHistogram`]s — host-side **queue
/// wait** (microseconds from submission to batch flush) and simulated
/// **batch span** (device cycles each executing sub-batch added to the
/// executing lane's replica critical path) — and the underlying
/// [`ReplicatedShards`](gts_core::ReplicatedShards) search counters are
/// aggregated in as [`StatsSnapshot`] plus [`ReplicaStats`], so one
/// snapshot tells the whole serving story: admission → batching → lanes →
/// replicas → device work.
///
/// The service keeps one of these as its **ledger**: the lanes count into
/// it under one lock, and a snapshot clones it and fills in the fields
/// derived elsewhere (admission atomics, epoch, index and replica counters,
/// trace state, the metrics view).
#[derive(Clone, Debug, Default)]
pub struct ServiceStats {
    /// Requests accepted into the admission queue.
    pub admitted: u64,
    /// Requests rejected by backpressure (queue at depth).
    pub rejected: u64,
    /// Responses produced, counted just before each is sent — so a client
    /// reading the stats the moment its [`Ticket`](crate::Ticket) returns
    /// already sees its own request. A response whose ticket the client
    /// dropped still counts. Counts error responses too: every answered
    /// request is a completion, never a hang.
    pub completed: u64,
    /// Batches flushed by the microbatcher.
    pub batches: u64,
    /// Partial batches flushed because the lane they went to was idle.
    pub idle_flushes: u64,
    /// Batches flushed by the size trigger.
    pub size_flushes: u64,
    /// Batches flushed by the deadline trigger (behind a busy lane).
    pub deadline_flushes: u64,
    /// Batches flushed while draining at shutdown.
    pub shutdown_flushes: u64,
    /// The batch target in force (requests per size-triggered batch):
    /// [`ServiceConfig::max_batch`](crate::ServiceConfig::max_batch),
    /// clamped to the queue depth.
    pub batch_target: usize,
    /// Executor lanes running (after clamping the configured lane count to
    /// the number of replicas).
    pub lanes: usize,
    /// Batches executed per lane (index = lane). The batcher deals flushed
    /// batches round-robin, so these stay within one of each other.
    pub lane_batches: Vec<u64>,
    /// Requests answered with a typed error (`Err` responses produced).
    /// Always `<= completed`; a lost request would show up as
    /// `completed < admitted` with live tickets, which never happens.
    pub failed: u64,
    /// Requests failed fast with
    /// [`ServiceError::ShardUnavailable`](crate::ServiceError::ShardUnavailable)
    /// because every replica of a shard was quarantined.
    pub shard_unavailable: u64,
    /// Panics caught at a lane boundary (beyond the replica layer's own
    /// containment). The lane keeps draining afterwards.
    pub lane_panics: u64,
    /// Updates applied successfully through the admission queue (each one
    /// epoch step, counted once even though every lane applies its copy).
    pub updates_applied: u64,
    /// Update batches flushed (counted once, at the responder copy).
    pub update_batches: u64,
    /// The index's update epoch at snapshot time: how many updates have
    /// been serialized since the index was built (or since the epoch its
    /// snapshot was restored at). Max across replicas — a replica lagging
    /// after a permanent device loss does not hide progress.
    pub epoch: u64,
    /// Replica-layer re-runs (query shard slices, update repairs) after an
    /// injected device fault or metric panic.
    pub retries: u64,
    /// Device faults observed by the replica layer (transient + permanent).
    pub device_faults: u64,
    /// User-metric panics contained by the replica layer.
    pub metric_panics: u64,
    /// Batches planned across more than one replica (no replica held a
    /// healthy copy of every shard, so surviving copies were mixed).
    pub degraded_calls: u64,
    /// Host microseconds requests spent queued, stamped at flush time.
    pub queue_wait_us: LatencyHistogram,
    /// Simulated span cycles per executed sub-batch (one sample per index
    /// call, weighted once — not per request).
    pub batch_span_cycles: LatencyHistogram,
    /// Aggregated search counters of the underlying replicated index.
    pub index: StatsSnapshot,
    /// Replica-layer health/fault counters (per-replica strikes included).
    pub replica: ReplicaStats,
    /// Lane-batch executions the per-lane counters are missing versus what
    /// the flush counters say ran. A healthy service satisfies
    /// `Σ lane_batches == batches + (lanes−1)·update_batches` at quiescence
    /// (queries run on one lane; updates are broadcast to every lane but
    /// counted once — a broadcast copy still in flight on a sibling lane
    /// shows as a transient deficit on a mid-run snapshot);
    /// a lane that panicked mid-batch increments `lane_panics` without its
    /// `lane_batches` slot, and that shortfall is reconciled here at
    /// snapshot time instead of silently undercounting.
    pub lane_batches_deficit: u64,
    /// Trace events dropped by the recorder's bounded rings (oldest-first).
    /// Zero when tracing is disabled or the rings never filled.
    pub trace_events_dropped: u64,
    /// Flight-recorder dumps captured so far (device faults, lane panics,
    /// dead shards) — the last-N-events snapshots taken at each fault.
    /// Empty when tracing is disabled.
    pub flight_dumps: Vec<gts_trace::FlightDump>,
    /// The Prometheus text exposition of this snapshot — its counters and
    /// histograms plus the per-device clocks and the trace summary — when
    /// [`ServiceConfig::metrics`](crate::ServiceConfig) is on. `None`
    /// otherwise. Parse it back with
    /// [`parse_prometheus`](crate::metrics::parse_prometheus).
    pub metrics: Option<String>,
}
