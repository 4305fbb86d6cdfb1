//! # gts-service
//!
//! An **online query service** over a sharded GTS index: the layer that
//! turns individual similarity-search requests — the shape real serving
//! traffic arrives in — into the large MRQ/MkNNQ batches the paper's
//! concurrent-query design (§4) and two-stage memory strategy (§5.2) are
//! built to exploit.
//!
//! ```text
//!  clients ──▶ SubmitHandle ──▶ admission queue ──▶ microbatcher ──▶ lane 0 ──▶ replicas {0,2,…}
//!              (submit())       (bounded depth,     (kind barrier:  ├▶ lane 1 ──▶ replicas {1,3,…}
//!                ▲ Ticket        reject past it;     queries deal   └▶ …          (each replica =
//!                │               queries AND         round-robin,                 S shards on S
//!                │               updates, FIFO)      updates broadcast            devices, FENCED
//!                │                                   to every lane)               against direct
//!                │                                                                mutation)
//!                └──── Response: result + epoch + latency breakdown ◀──┘
//! ```
//!
//! Updates (`Insert`/`Remove`/`BatchUpdate`) ride the same FIFO admission
//! queue as queries; the batcher never mixes the two kinds in one batch
//! (the read/write barrier), deals query batches to one lane and
//! broadcasts update batches to all lanes, and each applied update
//! advances a monotone **epoch** on every replica. Every [`Response`]
//! stamps the epoch it was served at, and answers are bit-identical to
//! replaying the same requests against a single index in epoch order
//! (`tests/streaming_updates.rs`).
//!
//! Four pieces, each its own module:
//!
//! * [`api`] — the request/response surface: [`Request`], [`Ticket`],
//!   [`Response`] with its per-request [`LatencyBreakdown`], and
//!   [`ServiceError`] (including the typed execution failures
//!   [`ServiceError::ShardUnavailable`] and
//!   [`ServiceError::BatchPanicked`]);
//! * [`batcher`] — the bounded **admission queue** (backpressure: past the
//!   configured depth, [`SubmitHandle::submit`] rejects with
//!   [`ServiceError::QueueFull`] instead of blocking) and the
//!   work-conserving **microbatcher**: it flushes a full batch at once
//!   (the **size trigger**: the queue reaches the batch target,
//!   [`ServiceConfig::max_batch`]), flushes whatever is queued as soon as
//!   the next lane is idle (the **idle trigger**), and bounds the wait of
//!   a partial batch behind a busy lane by the flush deadline (the
//!   **deadline trigger**), dealing flushed batches round-robin across
//!   the lanes;
//! * [`service`] — [`QueryService`]: owns the batcher and lane threads,
//!   drives flushed batches through
//!   [`ReplicatedShards::batch_range`](gts_core::ReplicatedShards::batch_range) /
//!   [`ReplicatedShards::batch_knn`](gts_core::ReplicatedShards::batch_knn)
//!   (FIFO within each lane, lanes preferring disjoint replica sets), and
//!   keeps the [`ServiceStats`] ledger;
//! * [`metrics`] — the Prometheus text exposition, written at scrape time
//!   ([`QueryService::scrape`], [`ServiceStats::metrics`]) as a **view** of
//!   that ledger, each device's counters and the trace summary, and
//!   [`metrics::parse_prometheus`], which reads it back; nothing records on
//!   a hot path.
//!
//! **Determinism.** Batch *formation* is a pure function of the arrival
//! sequence and the sequence of lane completions: requests are admitted
//! FIFO, the batch target is fixed by the configuration, batches are dealt
//! to lanes round-robin, and each lane executes its batches in FIFO order
//! against its own replicas. A caller with one request in flight at a time
//! therefore always gets the same batches, and the simulated device clocks
//! advance identically run to run. When lane completions race arrivals,
//! batch sizes depend on host timing, but **answers never do**: every
//! batch shape returns bit-identical results to a direct
//! [`ShardedGts`](gts_core::ShardedGts) call over the same requests, at
//! any lane or replica count (`tests/service_invariance.rs`).
//!
//! **Fault tolerance.** Device faults are contained by the replica layer
//! (retry on surviving copies, exact degraded composition, typed
//! [`ServiceError::ShardUnavailable`] only when a shard's last copy is
//! gone); panics from user metrics are converted to typed per-batch errors
//! at the replica and lane boundaries, so one poisoned batch never kills
//! the service (`tests/fault_injection.rs`).

#![warn(missing_docs)]

pub mod api;
pub mod batcher;
pub mod metrics;
pub mod service;
pub mod stats;

pub use api::{
    FlushTrigger, LatencyBreakdown, Reply, Request, Response, ServiceError, Ticket, UpdateAck,
};
pub use batcher::{ServiceConfig, SubmitHandle};
pub use service::QueryService;
pub use stats::ServiceStats;
