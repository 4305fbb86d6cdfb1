//! Admission queue + microbatcher: the coalescing half of the service.
//!
//! Requests enter through a [`SubmitHandle`] into a **bounded FIFO
//! admission queue** — past [`ServiceConfig::queue_depth`] entries,
//! submission rejects with [`ServiceError::QueueFull`] (reject-with-error
//! backpressure, never blocking the caller). The **microbatcher** thread
//! drains the queue into batches on two triggers:
//!
//! * **size** — the queue holds at least the *batch target*:
//!   [`ServiceConfig::max_batch`], clamped to the queue depth. Device
//!   memory is not an admission concern: the descent's two-stage strategy
//!   (§5.2) splits a batch into query groups against each layer's bound;
//! * **deadline** — the oldest queued request has waited
//!   [`ServiceConfig::flush_deadline`], so a partially-filled batch ships
//!   rather than stalling a quiet period (the latency/throughput knob of
//!   open-loop serving).
//!
//! Flushed batches are dealt **round-robin** across the service's executor
//! lanes (batch *i* goes to lane *i* mod *L* — deterministic for a given
//! arrival sequence), each lane fed by its own **bounded** pipeline channel
//! (`EXECUTOR_PIPELINE_BATCHES`). Within a lane, batches execute strictly
//! in flush order, so batch formation under the size trigger — and every
//! simulated cycle a batch charges — is reproducible for a given arrival
//! sequence; with one lane the service degenerates to the original single
//! executor. Slow lanes back pressure up into the admission queue instead
//! of buffering batches without bound.

use crate::api::{FlushTrigger, Request, Response, ServiceError, Ticket};
use gts_trace::RequestId;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Configuration of the online query service.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Admission-queue bound: submissions beyond this many queued requests
    /// are rejected with [`ServiceError::QueueFull`].
    pub queue_depth: usize,
    /// Flush a partially-filled batch once its oldest request has waited
    /// this long.
    pub flush_deadline: Duration,
    /// The batch target: the size trigger flushes once this many requests
    /// are queued (clamped to [`ServiceConfig::queue_depth`]). Bounds
    /// per-batch latency and host staging memory.
    pub max_batch: usize,
    /// Executor lanes to run. Each lane drains its own bounded pipeline
    /// channel and prefers a disjoint set of replicas, so lanes execute
    /// concurrently without sharing devices. Clamped at startup to the
    /// number of replicas in the served index (extra lanes would race on
    /// the same devices and destroy clock determinism).
    pub lanes: usize,
    /// Tracing configuration. Disabled by default; when enabled the
    /// service creates a [`gts_trace::TraceRecorder`], attaches it to every
    /// device, and threads per-request span context from admission to
    /// kernel launch. Tracing observes the simulated clocks and never
    /// advances them, so answers, epochs, and cycle counts are bit-identical
    /// with it on or off.
    pub trace: gts_trace::TraceConfig,
    /// Metrics exposition. Disabled by default; when enabled,
    /// [`QueryService::scrape`](crate::QueryService::scrape) and
    /// [`ServiceStats::metrics`](crate::ServiceStats::metrics) render the
    /// Prometheus view of the service's ledger, device utilization and
    /// (with tracing on) the per-stage spans. Nothing records on a hot path
    /// either way, so answers, epochs, and simulated cycle counts are
    /// bit-identical with metrics on or off.
    pub metrics: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_depth: 4096,
            flush_deadline: Duration::from_millis(2),
            max_batch: 4096,
            lanes: 1,
            trace: gts_trace::TraceConfig::default(),
            metrics: false,
        }
    }
}

impl ServiceConfig {
    /// Builder-style queue-depth override.
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        assert!(depth >= 1, "queue depth must admit at least one request");
        self.queue_depth = depth;
        self
    }

    /// Builder-style flush-deadline override.
    pub fn with_flush_deadline(mut self, deadline: Duration) -> Self {
        self.flush_deadline = deadline;
        self
    }

    /// Builder-style batch-target override.
    pub fn with_max_batch(mut self, cap: usize) -> Self {
        assert!(cap >= 1, "a batch holds at least one request");
        self.max_batch = cap;
        self
    }

    /// Builder-style executor-lane override.
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        assert!(lanes >= 1, "the service needs at least one executor lane");
        self.lanes = lanes;
        self
    }

    /// Builder-style tracing override (see [`ServiceConfig::trace`]).
    pub fn with_tracing(mut self, trace: gts_trace::TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Builder-style metrics switch (see [`ServiceConfig::metrics`]).
    pub fn with_metrics(mut self, on: bool) -> Self {
        self.metrics = on;
        self
    }
}

/// One queued request: the payload, its response channel, and its
/// admission timestamp (for the queue-wait measurement and the deadline
/// trigger).
pub(crate) struct Pending<O> {
    pub(crate) req: Request<O>,
    pub(crate) tx: mpsc::SyncSender<Response>,
    pub(crate) enqueued: Instant,
    /// Service-assigned request id, minted under the admission lock so ids
    /// follow admission order (the trace/latency correlation key).
    pub(crate) id: RequestId,
}

/// What a flushed batch holds: queries or updates, never both. The drain
/// stops at the first entry whose kind differs from the batch head — the
/// **read/write ordering barrier** that keeps the service linearizable:
/// every query admitted before an update executes before it, every query
/// admitted after executes after.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BatchKind {
    /// Range/kNN requests — dealt round-robin to one lane.
    Query,
    /// Insert/remove/batch-update requests — broadcast to **every** lane,
    /// so each lane's replicas apply the same serialized order.
    Update,
}

/// One flushed-batch entry as the executor sees it: a [`Pending`] whose
/// admission timestamp was replaced, at drain, by the queue wait it implies.
pub(crate) struct Entry<O> {
    pub(crate) req: Request<O>,
    pub(crate) tx: mpsc::SyncSender<Response>,
    /// Host microseconds between admission and the flush that took it.
    pub(crate) wait_us: u64,
    pub(crate) id: RequestId,
}

/// One flushed batch: FIFO-ordered entries with their queue waits stamped
/// at flush time, plus the trigger that shipped it.
pub(crate) struct Batch<O> {
    pub(crate) entries: Vec<Entry<O>>,
    pub(crate) trigger: FlushTrigger,
    pub(crate) kind: BatchKind,
    /// Flush sequence number, assigned by the batcher in flush order — the
    /// batch id trace events carry. Broadcast copies of an update batch
    /// share the seq of the flushed batch they duplicate.
    pub(crate) seq: u64,
    /// Whether this lane answers the tickets. Update batches are broadcast
    /// to every lane but each ticket must receive exactly one response:
    /// only the lane-0 copy responds, the other lanes apply silently.
    pub(crate) respond: bool,
}

/// Queue state guarded by the admission mutex.
struct QueueState<O> {
    queue: VecDeque<Pending<O>>,
    stopped: bool,
}

/// State shared between submit handles and the microbatcher thread.
pub(crate) struct Shared<O> {
    state: Mutex<QueueState<O>>,
    cv: Condvar,
    depth: usize,
    pub(crate) target: usize,
    deadline: Duration,
    pub(crate) admitted: AtomicU64,
    pub(crate) rejected: AtomicU64,
    /// Next request id to mint (see [`Pending::id`]).
    pub(crate) next_request: AtomicU64,
}

impl<O> Shared<O> {
    pub(crate) fn new(depth: usize, target: usize, deadline: Duration) -> Arc<Shared<O>> {
        Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                stopped: false,
            }),
            cv: Condvar::new(),
            depth,
            target,
            deadline,
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            next_request: AtomicU64::new(0),
        })
    }

    /// Flip the stopped flag and wake the batcher so it drains and exits.
    pub(crate) fn stop(&self) {
        self.state.lock().expect("admission lock").stopped = true;
        self.cv.notify_all();
    }
}

/// Cloneable submission endpoint of a running
/// [`QueryService`](crate::QueryService).
pub struct SubmitHandle<O> {
    pub(crate) shared: Arc<Shared<O>>,
}

impl<O> Clone for SubmitHandle<O> {
    fn clone(&self) -> Self {
        SubmitHandle {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<O> SubmitHandle<O> {
    /// Submit one request. Returns a
    /// [`Ticket`] redeemable for the response, or an immediate rejection
    /// when the admission queue is at depth ([`ServiceError::QueueFull`] —
    /// the backpressure contract: submission never blocks) or the service
    /// is stopping.
    pub fn submit(&self, req: Request<O>) -> Result<Ticket, ServiceError> {
        let (tx, rx) = mpsc::sync_channel(1);
        let mut st = self.shared.state.lock().expect("admission lock");
        if st.stopped {
            return Err(ServiceError::Stopped);
        }
        if st.queue.len() >= self.shared.depth {
            self.shared.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(ServiceError::QueueFull {
                depth: self.shared.depth,
            });
        }
        // Minted under the admission lock: ids follow admission order, so a
        // deterministic arrival sequence gets deterministic ids (rejected
        // submissions consume none).
        let id = RequestId(self.shared.next_request.fetch_add(1, Ordering::Relaxed));
        st.queue.push_back(Pending {
            req,
            tx,
            enqueued: Instant::now(),
            id,
        });
        self.shared.admitted.fetch_add(1, Ordering::Relaxed);
        let len = st.queue.len();
        drop(st);
        // Wake the batcher only when this admission changes what it would
        // do: the empty→non-empty transition (it sits in an untimed wait)
        // or reaching the size target (an immediate flush is due). Arrivals
        // in between are covered by its deadline-timed wait, so notifying
        // per request would only add lock contention on the hot path.
        if len == 1 || len >= self.shared.target {
            self.shared.cv.notify_all();
        }
        Ok(Ticket { rx })
    }

    /// Current queue occupancy (instantaneous; for load shedding and the
    /// open-loop bench driver).
    pub fn queue_len(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("admission lock")
            .queue
            .len()
    }
}

/// Drain up to `limit` FIFO entries into a [`Batch`], stamping each
/// request's queue wait against one shared flush instant (a single clock
/// read per flush — this runs inside the admission critical section).
///
/// The head entry decides the batch's [`BatchKind`], and the drain stops
/// early at the first entry of the other kind: a kind flip always flushes,
/// so reads and writes never share a batch and FIFO admission order *is*
/// the serialization order.
fn drain<O>(queue: &mut VecDeque<Pending<O>>, limit: usize, trigger: FlushTrigger) -> Batch<O> {
    let head_is_update = queue.front().is_some_and(|p| p.req.is_update());
    let kind = if head_is_update {
        BatchKind::Update
    } else {
        BatchKind::Query
    };
    let mut take = queue.len().min(limit);
    if let Some(flip) = queue
        .iter()
        .take(take)
        .position(|p| p.req.is_update() != head_is_update)
    {
        take = flip;
    }
    let now = Instant::now();
    let entries = queue
        .drain(..take)
        .map(|p| {
            let wait = now.saturating_duration_since(p.enqueued);
            Entry {
                req: p.req,
                tx: p.tx,
                wait_us: wait.as_micros().min(u128::from(u64::MAX)) as u64,
                id: p.id,
            }
        })
        .collect();
    Batch {
        entries,
        trigger,
        kind,
        seq: 0, // assigned by the batcher loop in flush order
        respond: true,
    }
}

/// Capacity of the batcher→executor pipeline, in batches: one executing
/// plus one staged. The channel being **bounded** is what ties the whole
/// backpressure story together — if it were unbounded, a slow executor
/// would let the batcher drain the admission queue forever and
/// [`ServiceError::QueueFull`] would never fire (flushed batches would
/// pile up in host memory instead). With a bounded channel the batcher
/// blocks on a full pipeline, arrivals back the admission queue up to its
/// depth, and submission starts rejecting exactly as documented.
pub(crate) const EXECUTOR_PIPELINE_BATCHES: usize = 2;

/// Tear the queue down after an executor lane has vanished mid-run (its
/// end of the pipeline channel dropped, e.g. a lane panic): refuse new
/// work and **disconnect every queued ticket** by dropping the pending
/// entries — and with them their response senders — so waiting clients
/// get [`ServiceError::Disconnected`] instead of blocking forever on a
/// service that can no longer answer anything.
fn poison<O>(shared: &Shared<O>) {
    let mut st = shared.state.lock().expect("admission lock");
    st.stopped = true;
    st.queue.clear();
}

/// The microbatcher loop: runs on its own thread until stopped, dealing
/// flushed **query** batches round-robin across the executor lanes'
/// bounded pipeline channels (query batch *i* → lane *i* mod *L*,
/// deterministic) and **broadcasting update batches to every lane** —
/// lanes pin disjoint replica sets, so each lane must apply every update
/// to keep its replicas current; only the lane-0 copy answers the
/// tickets. Per-lane channels are FIFO, so a lane sees
/// `[earlier queries][update][later queries]` exactly in admission order.
/// Every `send` happens **outside** the admission lock, so a full
/// pipeline stalls only this thread — [`SubmitHandle::submit`] stays
/// non-blocking throughout. Dropping the senders on exit is what tells
/// the lanes to finish; conversely a failed send means a lane died, and
/// the queue is poisoned so nothing hangs.
pub(crate) fn run<O: Clone>(shared: &Shared<O>, lane_txs: &[mpsc::SyncSender<Batch<O>>]) {
    assert!(!lane_txs.is_empty(), "the batcher needs at least one lane");
    let mut next_lane = 0usize;
    let mut next_seq = 0u64;
    let mut send = move |mut batch: Batch<O>| {
        batch.seq = next_seq;
        next_seq += 1;
        match batch.kind {
            BatchKind::Query => {
                let tx = &lane_txs[next_lane];
                next_lane = (next_lane + 1) % lane_txs.len();
                tx.send(batch)
            }
            BatchKind::Update => {
                // Silent copies first (lanes 1..), responder copy last: a
                // ticket answered implies every lane already has the update
                // queued ahead of any later query batch.
                for tx in &lane_txs[1..] {
                    let copy = Batch {
                        entries: batch
                            .entries
                            .iter()
                            .map(|e| Entry {
                                req: e.req.clone(),
                                tx: e.tx.clone(),
                                wait_us: e.wait_us,
                                id: e.id,
                            })
                            .collect(),
                        trigger: batch.trigger,
                        kind: BatchKind::Update,
                        seq: batch.seq,
                        respond: false,
                    };
                    tx.send(copy)?;
                }
                lane_txs[0].send(batch)
            }
        }
    };
    let mut st = shared.state.lock().expect("admission lock");
    loop {
        // Size trigger: a full batch is ready — ship it immediately.
        if st.queue.len() >= shared.target {
            let batch = drain(&mut st.queue, shared.target, FlushTrigger::Size);
            drop(st);
            if send(batch).is_err() {
                return poison(shared);
            }
            st = shared.state.lock().expect("admission lock");
            continue;
        }
        // Shutdown: drain the remainder in FIFO target-sized chunks.
        if st.stopped {
            loop {
                if st.queue.is_empty() {
                    return;
                }
                let batch = drain(&mut st.queue, shared.target, FlushTrigger::Shutdown);
                drop(st);
                if send(batch).is_err() {
                    return poison(shared);
                }
                st = shared.state.lock().expect("admission lock");
            }
        }
        // Deadline trigger: the oldest request has waited long enough.
        match st.queue.front().map(|p| p.enqueued.elapsed()) {
            Some(age) if age >= shared.deadline => {
                let batch = drain(&mut st.queue, shared.target, FlushTrigger::Deadline);
                drop(st);
                if send(batch).is_err() {
                    return poison(shared);
                }
                st = shared.state.lock().expect("admission lock");
            }
            Some(age) => {
                let (guard, _) = shared
                    .cv
                    .wait_timeout(st, shared.deadline - age)
                    .expect("admission lock");
                st = guard;
            }
            None => {
                st = shared.cv.wait(st).expect("admission lock");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn handle(depth: usize, target: usize) -> (SubmitHandle<u32>, Arc<Shared<u32>>) {
        let shared = Shared::new(depth, target, Duration::from_millis(1));
        (
            SubmitHandle {
                shared: Arc::clone(&shared),
            },
            shared,
        )
    }

    #[test]
    fn backpressure_rejects_past_depth() {
        let (h, shared) = handle(2, 100);
        let _t1 = h.submit(Request::Knn { query: 1, k: 1 }).expect("fits");
        let _t2 = h.submit(Request::Knn { query: 2, k: 1 }).expect("fits");
        let err = h.submit(Request::Knn { query: 3, k: 1 }).expect_err("full");
        assert_eq!(err, ServiceError::QueueFull { depth: 2 });
        assert_eq!(shared.admitted.load(Ordering::Relaxed), 2);
        assert_eq!(shared.rejected.load(Ordering::Relaxed), 1);
        assert_eq!(h.queue_len(), 2);
    }

    #[test]
    fn stopped_queue_rejects_everything() {
        let (h, shared) = handle(10, 100);
        shared.stop();
        assert_eq!(
            h.submit(Request::Knn { query: 1, k: 1 }).expect_err("down"),
            ServiceError::Stopped
        );
    }

    #[test]
    fn drain_is_fifo_and_stamps_waits() {
        let mut q = VecDeque::new();
        let (tx, _rx) = mpsc::sync_channel(1);
        for i in 0..5u32 {
            q.push_back(Pending {
                req: Request::Knn { query: i, k: 1 },
                tx: tx.clone(),
                enqueued: Instant::now(),
                id: RequestId(u64::from(i)),
            });
        }
        let batch = drain(&mut q, 3, FlushTrigger::Size);
        assert_eq!(batch.entries.len(), 3);
        assert_eq!(q.len(), 2);
        for (i, e) in batch.entries.iter().enumerate() {
            let Request::Knn { query, .. } = e.req else {
                panic!("knn expected")
            };
            assert_eq!(query as usize, i, "FIFO order preserved");
            assert_eq!(e.id.0 as usize, i, "admission ids ride the batch");
        }
    }

    #[test]
    fn batcher_flushes_on_size_and_shutdown() {
        let shared = Shared::<u32>::new(64, 4, Duration::from_secs(3600));
        let h = SubmitHandle {
            shared: Arc::clone(&shared),
        };
        let (tx, rx) = mpsc::sync_channel(EXECUTOR_PIPELINE_BATCHES);
        let worker = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || run(&shared, std::slice::from_ref(&tx)))
        };
        let _tickets: Vec<Ticket> = (0..10)
            .map(|i| h.submit(Request::Knn { query: i, k: 1 }).expect("fits"))
            .collect();
        // Two full size-triggered batches arrive without any deadline help
        // (the deadline is an hour out).
        let b1 = rx.recv_timeout(Duration::from_secs(5)).expect("batch 1");
        let b2 = rx.recv_timeout(Duration::from_secs(5)).expect("batch 2");
        assert_eq!(b1.trigger, FlushTrigger::Size);
        assert_eq!(b1.entries.len(), 4);
        assert_eq!(b2.entries.len(), 4);
        assert_eq!((b1.seq, b2.seq), (0, 1), "flush order assigns batch seqs");
        // Shutdown drains the two stragglers.
        shared.stop();
        let b3 = rx.recv_timeout(Duration::from_secs(5)).expect("drain");
        assert_eq!(b3.trigger, FlushTrigger::Shutdown);
        assert_eq!(b3.entries.len(), 2);
        worker.join().expect("batcher exits");
    }

    #[test]
    fn executor_death_poisons_the_service() {
        let shared = Shared::<u32>::new(64, 4, Duration::from_secs(3600));
        let h = SubmitHandle {
            shared: Arc::clone(&shared),
        };
        let (tx, rx) = mpsc::sync_channel(EXECUTOR_PIPELINE_BATCHES);
        drop(rx); // the "executor" dies immediately
        let worker = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || run(&shared, std::slice::from_ref(&tx)))
        };
        // A full batch triggers a flush whose send fails: the batcher must
        // poison the queue — disconnect every waiting ticket and refuse
        // new work — rather than leave the service a silent black hole.
        let tickets: Vec<Ticket> = (0..4)
            .map(|i| h.submit(Request::Knn { query: i, k: 1 }).expect("fits"))
            .collect();
        worker.join().expect("batcher exits");
        for t in tickets {
            assert_eq!(
                t.wait().expect_err("disconnected"),
                ServiceError::Disconnected
            );
        }
        assert_eq!(
            h.submit(Request::Knn { query: 9, k: 1 })
                .expect_err("poisoned"),
            ServiceError::Stopped
        );
    }

    #[test]
    fn batches_deal_round_robin_across_lanes() {
        let shared = Shared::<u32>::new(64, 2, Duration::from_secs(3600));
        let h = SubmitHandle {
            shared: Arc::clone(&shared),
        };
        let (tx0, rx0) = mpsc::sync_channel(EXECUTOR_PIPELINE_BATCHES);
        let (tx1, rx1) = mpsc::sync_channel(EXECUTOR_PIPELINE_BATCHES);
        let worker = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || run(&shared, &[tx0, tx1]))
        };
        let _tickets: Vec<Ticket> = (0..8)
            .map(|i| h.submit(Request::Knn { query: i, k: 1 }).expect("fits"))
            .collect();
        // Four size-triggered batches: 0 and 2 land on lane 0, 1 and 3 on
        // lane 1, preserving FIFO within each lane.
        for (lane, rx) in [(0u32, &rx0), (1, &rx1)] {
            for round in 0..2u32 {
                let b = rx.recv_timeout(Duration::from_secs(5)).expect("batch");
                assert_eq!(b.entries.len(), 2);
                let Request::Knn { query, .. } = b.entries[0].req else {
                    panic!("knn expected")
                };
                assert_eq!(query, (round * 2 + lane) * 2, "deterministic deal");
            }
        }
        shared.stop();
        worker.join().expect("batcher exits");
    }

    #[test]
    fn drain_stops_at_a_kind_flip() {
        let mut q = VecDeque::new();
        let (tx, _rx) = mpsc::sync_channel(1);
        let reqs: Vec<Request<u32>> = vec![
            Request::Knn { query: 0, k: 1 },
            Request::Knn { query: 1, k: 1 },
            Request::Insert { object: 2 },
            Request::Remove { id: 0 },
            Request::Knn { query: 3, k: 1 },
        ];
        for req in reqs {
            q.push_back(Pending {
                req,
                tx: tx.clone(),
                enqueued: Instant::now(),
                id: RequestId(0),
            });
        }
        // The limit would take everything; the kind flips cut it into
        // [2 queries][2 updates][1 query] — reads never pass writes.
        let b = drain(&mut q, 10, FlushTrigger::Size);
        assert_eq!((b.kind, b.entries.len()), (BatchKind::Query, 2));
        let b = drain(&mut q, 10, FlushTrigger::Size);
        assert_eq!((b.kind, b.entries.len()), (BatchKind::Update, 2));
        let b = drain(&mut q, 10, FlushTrigger::Size);
        assert_eq!((b.kind, b.entries.len()), (BatchKind::Query, 1));
        assert!(b.respond);
        assert!(q.is_empty());
    }

    #[test]
    fn update_batches_broadcast_to_every_lane_with_one_responder() {
        let shared = Shared::<u32>::new(64, 1, Duration::from_secs(3600));
        let h = SubmitHandle {
            shared: Arc::clone(&shared),
        };
        let (tx0, rx0) = mpsc::sync_channel(EXECUTOR_PIPELINE_BATCHES);
        let (tx1, rx1) = mpsc::sync_channel(EXECUTOR_PIPELINE_BATCHES);
        let worker = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || run(&shared, &[tx0, tx1]))
        };
        let _t = h.submit(Request::Insert { object: 42 }).expect("fits");
        // Both lanes receive the update; only lane 0's copy responds.
        let b0 = rx0.recv_timeout(Duration::from_secs(5)).expect("lane 0");
        let b1 = rx1.recv_timeout(Duration::from_secs(5)).expect("lane 1");
        for b in [&b0, &b1] {
            assert_eq!(b.kind, BatchKind::Update);
            assert_eq!(b.entries.len(), 1);
            assert!(matches!(b.entries[0].req, Request::Insert { object: 42 }));
        }
        assert!(b0.respond, "lane 0 answers the ticket");
        assert!(!b1.respond, "lane 1 applies silently");
        // A query afterwards is dealt to exactly one lane (round-robin).
        let _t = h.submit(Request::Knn { query: 7, k: 1 }).expect("fits");
        let q = rx0.recv_timeout(Duration::from_secs(5)).expect("query");
        assert_eq!(q.kind, BatchKind::Query);
        assert!(rx1.try_recv().is_err(), "queries are not broadcast");
        shared.stop();
        worker.join().expect("batcher exits");
    }

    #[test]
    fn batcher_flushes_on_deadline() {
        let shared = Shared::<u32>::new(64, 1000, Duration::from_millis(5));
        let h = SubmitHandle {
            shared: Arc::clone(&shared),
        };
        let (tx, rx) = mpsc::sync_channel(EXECUTOR_PIPELINE_BATCHES);
        let worker = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || run(&shared, std::slice::from_ref(&tx)))
        };
        let _t = h.submit(Request::Range {
            query: 9,
            radius: 1.0,
        });
        let b = rx.recv_timeout(Duration::from_secs(5)).expect("deadline");
        assert_eq!(b.trigger, FlushTrigger::Deadline);
        assert_eq!(b.entries.len(), 1);
        shared.stop();
        worker.join().expect("batcher exits");
    }
}
