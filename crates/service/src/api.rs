//! The request/response surface of the online query service.

use metric_space::index::{IndexError, Neighbor};
use std::fmt;
use std::sync::mpsc;

/// One similarity-search request, as a client submits it: a single query
/// object plus its parameters. The microbatcher coalesces many of these
/// into one batched index call.
#[derive(Clone, Debug)]
pub enum Request<O> {
    /// Metric range query `MRQ(query, radius)` (paper Definition 3.1).
    Range {
        /// The query object.
        query: O,
        /// The search radius.
        radius: f64,
    },
    /// Metric kNN query `MkNNQ(query, k)` (paper Definition 3.2).
    Knn {
        /// The query object.
        query: O,
        /// Number of nearest neighbours requested.
        k: usize,
    },
    /// Streaming insert (paper §4.4): the object lands in its owning
    /// shard's cache table on every replica, advancing the epoch by one.
    Insert {
        /// The object to index.
        object: O,
    },
    /// Streaming delete (§4.4): tombstone (or cache-evict) the global id
    /// on every replica. Removing an unknown id is a no-op answer but
    /// still advances the epoch — every update serializes.
    Remove {
        /// The global id to remove.
        id: u32,
    },
    /// Batch update (§4.4): apply all changes and reconstruct the affected
    /// shards once, as a single epoch step.
    BatchUpdate {
        /// Objects to add.
        insertions: Vec<O>,
        /// Global ids to drop.
        deletions: Vec<u32>,
    },
}

impl<O> Request<O> {
    /// True for the mutating variants — the batcher never mixes updates and
    /// queries in one flushed batch (the read/write ordering barrier).
    pub fn is_update(&self) -> bool {
        matches!(
            self,
            Request::Insert { .. } | Request::Remove { .. } | Request::BatchUpdate { .. }
        )
    }
}

/// Which trigger flushed the batch a request rode in.
///
/// The batcher is work-conserving: a full batch ships at once
/// ([`FlushTrigger::Size`]), and so does a partial one whenever the lane it
/// goes to is idle ([`FlushTrigger::Idle`]). Only a partial batch behind a
/// busy lane waits, for at most the flush deadline
/// ([`FlushTrigger::Deadline`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushTrigger {
    /// The lane the batch goes to had no batch running or staged (for an
    /// update batch, which every lane applies: no lane had one).
    Idle,
    /// The queue reached the batch target.
    Size,
    /// The oldest queued request waited the flush deadline behind a busy
    /// lane.
    Deadline,
    /// The service was shutting down and drained the queue.
    Shutdown,
}

/// Per-request latency breakdown, reported with every [`Response`].
#[derive(Clone, Copy, Debug)]
pub struct LatencyBreakdown {
    /// The service-assigned request id, minted at admission in submission
    /// order. With tracing enabled this is the id the request's trace
    /// events carry ([`gts_trace::TraceCtx::request`]), so a response links
    /// directly to its span chain in a trace export or flight dump.
    pub request: gts_trace::RequestId,
    /// Host wall-clock microseconds the request spent in the admission
    /// queue, from submission to batch flush.
    pub queue_wait_us: u64,
    /// Simulated device cycles the executing batch call added to the
    /// critical path of the executing lane's replicas
    /// ([`ReplicatedShards::span_of`] delta around the sub-batch this
    /// request was answered in).
    ///
    /// [`ReplicatedShards::span_of`]: gts_core::ReplicatedShards::span_of
    pub batch_span_cycles: u64,
    /// Total requests in the flushed batch this request rode in (the
    /// sub-batch that executed it may be smaller: ranges and distinct `k`
    /// values run as separate index calls).
    pub batch_size: usize,
    /// Why the batch flushed.
    pub trigger: FlushTrigger,
}

/// Receipt for one applied update: what the serialized apply did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UpdateAck {
    /// Global ids assigned to the inserted objects, in submission order
    /// (empty for pure deletions).
    pub assigned: Vec<u32>,
    /// How many of the requested deletions removed a live object.
    pub removed: usize,
}

/// The payload of a successful [`Response`]: neighbours for a query,
/// a receipt for an update.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// Answer to a [`Request::Range`] or [`Request::Knn`], in the
    /// canonical `(distance, id)` order.
    Neighbors(Vec<Neighbor>),
    /// Receipt for an [`Request::Insert`] / [`Request::Remove`] /
    /// [`Request::BatchUpdate`].
    Update(UpdateAck),
}

impl Reply {
    /// The neighbour list of a query reply.
    ///
    /// # Panics
    /// When the reply is an update receipt — submit queries, expect
    /// neighbours.
    pub fn neighbors(self) -> Vec<Neighbor> {
        match self {
            Reply::Neighbors(n) => n,
            Reply::Update(_) => panic!("expected a query reply, got an update receipt"),
        }
    }

    /// The receipt of an update reply.
    ///
    /// # Panics
    /// When the reply is a neighbour list.
    pub fn update(self) -> UpdateAck {
        match self {
            Reply::Update(a) => a,
            Reply::Neighbors(_) => panic!("expected an update receipt, got a query reply"),
        }
    }
}

/// The service's answer to one [`Request`].
#[derive(Clone, Debug)]
pub struct Response {
    /// The per-request answer — for queries, bit-identical to a direct
    /// batched index call over the same requests at this response's epoch.
    /// `Err` surfaces execution failures **per request** without
    /// poisoning the lane: a typed index error (e.g. device OOM), a dead
    /// shard ([`ServiceError::ShardUnavailable`]), or a caught panic
    /// ([`ServiceError::BatchPanicked`]).
    pub result: Result<Reply, ServiceError>,
    /// The update epoch this request was served at: the number of updates
    /// serialized before it. A query's answer is exactly the state after
    /// replaying that many updates; an update's own application is
    /// included in its stamp. Monotone in admission order per lane
    /// topology (strictly FIFO end-to-end).
    pub epoch: u64,
    /// Where this request's latency went.
    pub latency: LatencyBreakdown,
}

/// Errors surfaced by request submission, result collection, and batch
/// execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// The admission queue is at its configured depth — backpressure.
    /// The request was **rejected**, not queued; clients retry or shed.
    QueueFull {
        /// The configured admission-queue depth that was hit.
        depth: usize,
    },
    /// The service has begun shutting down and admits no new requests.
    Stopped,
    /// The service dropped this request's response channel without
    /// answering (it was torn down mid-flight).
    Disconnected,
    /// The underlying index failed this request's batch with a typed error
    /// (e.g. device OOM under the naive memory strategy).
    Index(IndexError),
    /// Every replica of this shard is on a quarantined device: requests
    /// over it fail fast instead of hanging the queue. Other shards keep
    /// serving.
    ShardUnavailable {
        /// The shard with no surviving replica.
        shard: u32,
    },
    /// The batch died on every replica it was tried on (e.g. a user metric
    /// panicking on this batch's queries on all copies, or a panic caught
    /// at the lane boundary). The lane survives and keeps draining.
    BatchPanicked,
    /// A sub-batch's requests did not match its declared shape (internal
    /// invariant violation); the batch is failed, the lane survives.
    MalformedBatch,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::QueueFull { depth } => {
                write!(f, "admission queue full (depth {depth}); request rejected")
            }
            ServiceError::Stopped => write!(f, "service stopped; request rejected"),
            ServiceError::Disconnected => write!(f, "service dropped the response channel"),
            ServiceError::Index(e) => write!(f, "index error: {e}"),
            ServiceError::ShardUnavailable { shard } => {
                write!(
                    f,
                    "shard {shard} has no surviving replica; request failed fast"
                )
            }
            ServiceError::BatchPanicked => {
                write!(f, "batch execution panicked on every replica tried")
            }
            ServiceError::MalformedBatch => {
                write!(f, "malformed sub-batch (internal invariant violation)")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<IndexError> for ServiceError {
    fn from(e: IndexError) -> Self {
        ServiceError::Index(e)
    }
}

impl From<gts_core::ReplicaError> for ServiceError {
    fn from(e: gts_core::ReplicaError) -> Self {
        match e {
            gts_core::ReplicaError::Index(e) => ServiceError::Index(e),
            gts_core::ReplicaError::ShardUnavailable { shard } => {
                ServiceError::ShardUnavailable { shard }
            }
            gts_core::ReplicaError::AllReplicasFailed { .. } => ServiceError::BatchPanicked,
        }
    }
}

/// A claim check for one submitted request; redeem it with
/// [`Ticket::wait`] to receive the [`Response`].
#[derive(Debug)]
pub struct Ticket {
    pub(crate) rx: mpsc::Receiver<Response>,
}

impl Ticket {
    /// Block until the request's batch executes and return the response.
    pub fn wait(self) -> Result<Response, ServiceError> {
        self.rx.recv().map_err(|_| ServiceError::Disconnected)
    }

    /// Non-blocking poll: `Ok(Some(..))` when the response has arrived,
    /// `Ok(None)` while the request is still queued or executing.
    pub fn try_wait(&self) -> Result<Option<Response>, ServiceError> {
        match self.rx.try_recv() {
            Ok(r) => Ok(Some(r)),
            Err(mpsc::TryRecvError::Empty) => Ok(None),
            Err(mpsc::TryRecvError::Disconnected) => Err(ServiceError::Disconnected),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(ServiceError::QueueFull { depth: 8 }
            .to_string()
            .contains("depth 8"));
        assert!(ServiceError::Stopped.to_string().contains("stopped"));
        assert!(ServiceError::Disconnected.to_string().contains("dropped"));
    }

    #[test]
    fn ticket_roundtrip_and_disconnect() {
        let (tx, rx) = mpsc::sync_channel(1);
        let ticket = Ticket { rx };
        assert!(ticket.try_wait().expect("pending").is_none());
        tx.send(Response {
            result: Ok(Reply::Neighbors(Vec::new())),
            epoch: 0,
            latency: LatencyBreakdown {
                request: gts_trace::RequestId(7),
                queue_wait_us: 1,
                batch_span_cycles: 2,
                batch_size: 3,
                trigger: FlushTrigger::Size,
            },
        })
        .expect("send");
        let r = ticket.wait().expect("answered");
        assert_eq!(r.latency.batch_size, 3);

        let (tx2, rx2) = mpsc::sync_channel::<Response>(1);
        drop(tx2);
        assert_eq!(
            Ticket { rx: rx2 }.wait().expect_err("dropped"),
            ServiceError::Disconnected
        );
    }
}
