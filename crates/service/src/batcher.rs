//! Admission queue + microbatcher: the coalescing half of the service.
//!
//! Requests enter through a [`SubmitHandle`] into a **bounded FIFO
//! admission queue** — past [`ServiceConfig::queue_depth`] entries,
//! submission rejects with [`ServiceError::QueueFull`] (reject-with-error
//! backpressure, never blocking the caller). The **microbatcher** thread
//! drains the queue into batches, and it is **work-conserving**: every
//! lane counts its outstanding batches (raised when the batcher sends it
//! one, lowered once the lane has sent that batch's responses), and the
//! batcher flushes on the first of three triggers:
//!
//! * **size** — the queue holds at least the *batch target*:
//!   [`ServiceConfig::max_batch`], clamped to the queue depth. A full
//!   batch ships at once. Device memory is not an admission concern: the
//!   descent's two-stage strategy (§5.2) splits a batch into query groups
//!   against each layer's bound;
//! * **idle** — the lane the round-robin deal names next has no batch
//!   running or staged (an update batch, which every lane applies, waits
//!   for every lane): whatever is queued ships at once. A request arriving
//!   at a quiet service never waits;
//! * **deadline** — that lane is busy and the oldest queued request has
//!   waited [`ServiceConfig::flush_deadline`]: the bound on the wait
//!   behind a busy lane.
//!
//! Only a partial batch behind a busy lane waits. Meanwhile arrivals
//! accumulate, so a loaded service still ships large batches: batch size
//! follows load instead of a timer.
//! At shutdown the queue drains in target-sized chunks without waiting for
//! any lane.
//!
//! Flushed batches are dealt **round-robin** across the service's executor
//! lanes (query batch *i* goes to lane *i* mod *L*), each lane fed by its
//! own **bounded** pipeline channel (`EXECUTOR_PIPELINE_BATCHES`). Within a
//! lane, batches execute strictly in flush order. Batch formation — and so
//! every simulated cycle a batch charges — is a pure function of the
//! arrival sequence and the sequence of lane completions: a caller with one
//! request in flight at a time always gets batches of one, dealt to the
//! same lanes, whatever the host timing. With one lane the service
//! degenerates to a single executor. Slow lanes back pressure up into the
//! admission queue instead of buffering batches without bound.

use crate::api::{FlushTrigger, Request, Response, ServiceError, Ticket};
use gts_trace::RequestId;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Configuration of the online query service.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Admission-queue bound: submissions beyond this many queued requests
    /// are rejected with [`ServiceError::QueueFull`].
    pub queue_depth: usize,
    /// The longest a request waits behind a busy lane: while the lane the
    /// next batch goes to is still running or staging a batch, a
    /// partially-filled batch ships once its oldest request has waited
    /// this long. Requests that find that lane idle ship at once and never
    /// wait it out.
    pub flush_deadline: Duration,
    /// The batch target: no flush takes more than this many requests, and
    /// the size trigger flushes once this many are queued (clamped to
    /// [`ServiceConfig::queue_depth`]). Bounds per-batch latency and host
    /// staging memory.
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
    /// Batches sent to each lane whose responses the lane has not finished
    /// sending (index = lane): raised by the batcher at flush, lowered by
    /// the lane's [`Completion`]. Zero means the lane is idle. Kept under
    /// the admission lock, so the batcher's idle check and its wait are
    /// one atomic step against a lane finishing — no wake-up is lost.
    outstanding: Vec<usize>,
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
    pub(crate) fn new(
        depth: usize,
        target: usize,
        deadline: Duration,
        lanes: usize,
    ) -> Arc<Shared<O>> {
        Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                stopped: false,
                outstanding: vec![0; lanes],
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

    /// The signal that `lane` finished one batch it was sent: hold the
    /// returned guard while the batch runs and responds.
    pub(crate) fn completion(&self, lane: usize) -> Completion<'_, O> {
        Completion { shared: self, lane }
    }
}

/// A lane's hold on one batch it received. Dropping it — after the batch's
/// responses are sent, or while a panic unwinds out of the lane — lowers
/// the lane's outstanding count and wakes the batcher, so a lane that
/// panicked is still seen idle and flushes do not fall back to the
/// deadline.
pub(crate) struct Completion<'a, O> {
    shared: &'a Shared<O>,
    lane: usize,
}

impl<O> Drop for Completion<'_, O> {
    fn drop(&mut self) {
        // Every update under the admission lock leaves the state valid, so
        // a poisoned lock is safe to use — and panicking here, perhaps
        // mid-unwind, would abort the process. The batcher raised the
        // count before sending the batch, so it is at least one.
        let mut st = self
            .shared
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        st.outstanding[self.lane] = st.outstanding[self.lane].saturating_sub(1);
        drop(st);
        self.shared.cv.notify_all();
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
        // do: the empty→non-empty transition (it sits in an untimed wait,
        // and an idle lane ships the request at once) or reaching the size
        // target (an immediate flush is due). Arrivals in between ride the
        // next lane completion or the deadline-timed wait, so notifying per
        // request would only add lock contention on the hot path.
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

/// Send one flushed batch: a query batch to `lane`, an update batch to
/// **every** lane — lanes pin disjoint replica sets, so each lane must
/// apply every update to keep its replicas current; only the lane-0 copy
/// answers the tickets. Silent copies go first (lanes 1..), the responder
/// copy last: a ticket answered implies every lane already has the update
/// queued ahead of any later query batch.
fn dispatch<O: Clone>(
    lane_txs: &[mpsc::SyncSender<Batch<O>>],
    lane: usize,
    batch: Batch<O>,
) -> Result<(), mpsc::SendError<Batch<O>>> {
    if batch.kind == BatchKind::Query {
        return lane_txs[lane].send(batch);
    }
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

/// The microbatcher loop: runs on its own thread until stopped, flushing
/// on the idle, size and deadline triggers (see the module docs), dealing
/// **query** batches round-robin across the executor lanes' bounded
/// pipeline channels (query batch *i* → lane *i* mod *L*) and
/// broadcasting **update** batches to every lane. Per-lane channels are
/// FIFO, so a lane sees `[earlier queries][update][later queries]` exactly
/// in admission order. Every `send` happens **outside** the admission
/// lock, so a full pipeline stalls only this thread —
/// [`SubmitHandle::submit`] stays non-blocking throughout. Dropping the
/// senders on exit is what tells the lanes to finish; conversely a failed
/// send means a lane died, and the queue is poisoned so nothing hangs.
pub(crate) fn run<O: Clone>(shared: &Shared<O>, lane_txs: &[mpsc::SyncSender<Batch<O>>]) {
    assert!(!lane_txs.is_empty(), "the batcher needs at least one lane");
    let mut next_lane = 0usize;
    let mut next_seq = 0u64;
    let mut st = shared.state.lock().expect("admission lock");
    assert_eq!(
        st.outstanding.len(),
        lane_txs.len(),
        "one outstanding count per lane"
    );
    loop {
        let Some((update, age)) = st
            .queue
            .front()
            .map(|p| (p.req.is_update(), p.enqueued.elapsed()))
        else {
            if st.stopped {
                return;
            }
            st = shared.cv.wait(st).expect("admission lock");
            continue;
        };
        let idle = if update {
            st.outstanding.iter().all(|&n| n == 0)
        } else {
            st.outstanding[next_lane] == 0
        };
        let trigger = if st.queue.len() >= shared.target {
            FlushTrigger::Size
        } else if idle {
            FlushTrigger::Idle
        } else if st.stopped {
            FlushTrigger::Shutdown
        } else if age >= shared.deadline {
            FlushTrigger::Deadline
        } else {
            // Behind a busy lane: sleep until a lane completes, the queue
            // reaches the target, shutdown, or the oldest request's
            // deadline — whichever comes first.
            st = shared
                .cv
                .wait_timeout(st, shared.deadline - age)
                .expect("admission lock")
                .0;
            continue;
        };
        let mut batch = drain(&mut st.queue, shared.target, trigger);
        batch.seq = next_seq;
        next_seq += 1;
        let lane = next_lane;
        match batch.kind {
            BatchKind::Query => {
                st.outstanding[lane] += 1;
                next_lane = (lane + 1) % lane_txs.len();
            }
            BatchKind::Update => st.outstanding.iter_mut().for_each(|n| *n += 1),
        }
        drop(st);
        if dispatch(lane_txs, lane, batch).is_err() {
            return poison(shared);
        }
        st = shared.state.lock().expect("admission lock");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::JoinHandle;

    const HOUR: Duration = Duration::from_secs(3600);

    fn rig(
        depth: usize,
        target: usize,
        deadline: Duration,
        lanes: usize,
    ) -> (SubmitHandle<u32>, Arc<Shared<u32>>) {
        let shared = Shared::new(depth, target, deadline, lanes);
        (
            SubmitHandle {
                shared: Arc::clone(&shared),
            },
            shared,
        )
    }

    type LaneTx = mpsc::SyncSender<Batch<u32>>;
    type LaneRx = mpsc::Receiver<Batch<u32>>;

    /// Scripted lanes: the test owns every lane's receiving end and signals
    /// completions itself.
    fn lanes(n: usize) -> (Vec<LaneTx>, Vec<LaneRx>) {
        (0..n)
            .map(|_| mpsc::sync_channel(EXECUTOR_PIPELINE_BATCHES))
            .unzip()
    }

    fn start(shared: &Arc<Shared<u32>>, txs: Vec<LaneTx>) -> JoinHandle<()> {
        let shared = Arc::clone(shared);
        std::thread::spawn(move || run(&shared, &txs))
    }

    /// Mark `lane` busy exactly as a flush does: one more batch outstanding.
    fn hold(shared: &Shared<u32>, lane: usize) {
        shared.state.lock().expect("admission lock").outstanding[lane] += 1;
    }

    /// One batch finished on `lane`, through the signal the service's
    /// lanes give.
    fn complete(shared: &Shared<u32>, lane: usize) {
        drop(shared.completion(lane));
    }

    fn knn(h: &SubmitHandle<u32>, query: u32) -> Ticket {
        h.submit(Request::Knn { query, k: 1 }).expect("fits")
    }

    fn recv(rx: &LaneRx) -> Batch<u32> {
        rx.recv_timeout(Duration::from_secs(5)).expect("a batch")
    }

    /// A batch as `(seq, trigger, query ids)`.
    fn shape(b: &Batch<u32>) -> (u64, FlushTrigger, Vec<u32>) {
        let ids = b
            .entries
            .iter()
            .map(|e| match e.req {
                Request::Knn { query, .. } => query,
                Request::Insert { object } => object,
                _ => panic!("the tests submit kNN queries and inserts"),
            })
            .collect();
        (b.seq, b.trigger, ids)
    }

    #[test]
    fn backpressure_rejects_past_depth() {
        let (h, shared) = rig(2, 100, HOUR, 1);
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
        let (h, shared) = rig(10, 100, HOUR, 1);
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
        let (h, shared) = rig(64, 4, HOUR, 1);
        let (txs, rxs) = lanes(1);
        // The lane is busy throughout, so only the size trigger (and then
        // the shutdown drain) can ship anything: no idle flush takes the
        // first arrivals before the target fills.
        hold(&shared, 0);
        let worker = start(&shared, txs);
        let _tickets: Vec<Ticket> = (0..10).map(|i| knn(&h, i)).collect();
        // Two full size-triggered batches arrive without any deadline help
        // (the deadline is an hour out).
        let b1 = recv(&rxs[0]);
        let b2 = recv(&rxs[0]);
        assert_eq!(b1.trigger, FlushTrigger::Size);
        assert_eq!(b1.entries.len(), 4);
        assert_eq!(b2.entries.len(), 4);
        assert_eq!((b1.seq, b2.seq), (0, 1), "flush order assigns batch seqs");
        // Shutdown drains the two stragglers without waiting for the lane.
        shared.stop();
        let b3 = recv(&rxs[0]);
        assert_eq!(b3.trigger, FlushTrigger::Shutdown);
        assert_eq!(b3.entries.len(), 2);
        worker.join().expect("batcher exits");
    }

    #[test]
    fn executor_death_poisons_the_service() {
        let (h, shared) = rig(64, 4, HOUR, 1);
        let (txs, rxs) = lanes(1);
        // The "executor" dies immediately.
        drop(rxs);
        // Queued before the batcher starts, so the first flush carries all
        // four: its send fails, and the batcher must poison the queue —
        // disconnect every waiting ticket and refuse new work — rather
        // than leave the service a silent black hole.
        let tickets: Vec<Ticket> = (0..4).map(|i| knn(&h, i)).collect();
        start(&shared, txs).join().expect("batcher exits");
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
        let (h, shared) = rig(64, 2, HOUR, 2);
        let (txs, rxs) = lanes(2);
        // Queued before the batcher starts: four full batches. Batches 0
        // and 2 land on lane 0, 1 and 3 on lane 1, FIFO within each lane.
        let _tickets: Vec<Ticket> = (0..8).map(|i| knn(&h, i)).collect();
        let worker = start(&shared, txs);
        for (lane, rx) in [(0u32, &rxs[0]), (1, &rxs[1])] {
            for round in 0..2u32 {
                let b = recv(rx);
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

    /// Batch formation is a pure function of the arrivals and the lane
    /// completions: this script pins every flush's size, trigger, lane and
    /// seq.
    #[test]
    fn flushes_follow_arrivals_and_lane_completions() {
        let (h, shared) = rig(64, 3, HOUR, 2);
        let (txs, rxs) = lanes(2);
        let mut tickets: Vec<Ticket> = (0..5).map(|i| knn(&h, i)).collect();
        let worker = start(&shared, txs);
        // A full target ships on size; the idle lane 1 takes the rest.
        assert_eq!(
            shape(&recv(&rxs[0])),
            (0, FlushTrigger::Size, vec![0, 1, 2])
        );
        assert_eq!(shape(&recv(&rxs[1])), (1, FlushTrigger::Idle, vec![3, 4]));
        // Lane 0 is next and busy: arrivals wait for it, not for the clock.
        tickets.extend([5, 6].map(|i| knn(&h, i)));
        complete(&shared, 0);
        assert_eq!(shape(&recv(&rxs[0])), (2, FlushTrigger::Idle, vec![5, 6]));
        // Lane 1 is next and busy: a full target ships on size.
        tickets.extend([7, 8, 9].map(|i| knn(&h, i)));
        assert_eq!(
            shape(&recv(&rxs[1])),
            (3, FlushTrigger::Size, vec![7, 8, 9])
        );
        // Lane 0 is next and still busy with batch 2; its completion ships
        // the lone arrival.
        tickets.push(knn(&h, 10));
        complete(&shared, 0);
        assert_eq!(shape(&recv(&rxs[0])), (4, FlushTrigger::Idle, vec![10]));
        shared.stop();
        worker.join().expect("batcher exits");
        assert!(rxs.iter().all(|rx| rx.try_recv().is_err()), "nothing else");
    }

    #[test]
    fn a_lone_request_on_an_idle_lane_ships_at_once() {
        let (h, shared) = rig(64, 100, HOUR, 1);
        let (txs, rxs) = lanes(1);
        let worker = start(&shared, txs);
        let _t = knn(&h, 7);
        // An hour-long deadline and an unreachable target: only the idle
        // trigger can ship it.
        assert_eq!(shape(&recv(&rxs[0])), (0, FlushTrigger::Idle, vec![7]));
        shared.stop();
        worker.join().expect("batcher exits");
    }

    #[test]
    fn batcher_flushes_on_deadline() {
        let (h, shared) = rig(64, 1000, Duration::from_millis(5), 1);
        let (txs, rxs) = lanes(1);
        hold(&shared, 0);
        let worker = start(&shared, txs);
        let _t = h.submit(Request::Range {
            query: 9,
            radius: 1.0,
        });
        let b = recv(&rxs[0]);
        assert_eq!(b.trigger, FlushTrigger::Deadline);
        assert_eq!(b.entries.len(), 1);
        assert!(b.entries[0].wait_us >= 5_000, "it waited the deadline out");
        // Both outstanding batches finish: the lane is idle, and the next
        // request no longer waits.
        complete(&shared, 0);
        complete(&shared, 0);
        let _t = knn(&h, 3);
        assert_eq!(recv(&rxs[0]).trigger, FlushTrigger::Idle);
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
        let (h, shared) = rig(64, 1, HOUR, 2);
        let (txs, rxs) = lanes(2);
        // Queued before the batcher starts: the update ships first, then
        // the query.
        let _t = h.submit(Request::Insert { object: 42 }).expect("fits");
        let _t = knn(&h, 7);
        let worker = start(&shared, txs);
        // Both lanes receive the update; only lane 0's copy responds.
        let b0 = recv(&rxs[0]);
        let b1 = recv(&rxs[1]);
        for b in [&b0, &b1] {
            assert_eq!(b.kind, BatchKind::Update);
            assert_eq!(b.entries.len(), 1);
            assert!(matches!(b.entries[0].req, Request::Insert { object: 42 }));
        }
        assert!(b0.respond, "lane 0 answers the ticket");
        assert!(!b1.respond, "lane 1 applies silently");
        // The query afterwards is dealt to exactly one lane (round-robin).
        let q = recv(&rxs[0]);
        assert_eq!(q.kind, BatchKind::Query);
        assert!(rxs[1].try_recv().is_err(), "queries are not broadcast");
        shared.stop();
        worker.join().expect("batcher exits");
    }

    #[test]
    fn an_update_batch_waits_for_every_lane() {
        let (h, shared) = rig(64, 100, HOUR, 2);
        let (txs, rxs) = lanes(2);
        hold(&shared, 1);
        let worker = start(&shared, txs);
        let _t = h.submit(Request::Insert { object: 5 }).expect("fits");
        // Lane 0 is idle, but lane 1 must apply the update too.
        assert!(
            rxs[0].recv_timeout(Duration::from_millis(50)).is_err(),
            "no lane gets the update while lane 1 is busy"
        );
        complete(&shared, 1);
        for rx in &rxs {
            assert_eq!(shape(&recv(rx)), (0, FlushTrigger::Idle, vec![5]));
        }
        shared.stop();
        worker.join().expect("batcher exits");
    }

    #[test]
    fn a_panicking_lane_still_completes_its_batch() {
        let (h, shared) = rig(64, 100, HOUR, 1);
        let (txs, rxs) = lanes(1);
        let worker = start(&shared, txs);
        let _t = knn(&h, 1);
        let first = recv(&rxs[0]);
        // The next request queues behind the busy lane (an hour-long
        // deadline, an unreachable target) …
        let _t = knn(&h, 2);
        // … until the lane's batch unwinds out of it.
        let lane = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let _done = shared.completion(0);
                panic!("batch {} blew up", first.seq);
            })
        };
        assert!(lane.join().is_err(), "the lane panicked");
        assert_eq!(shape(&recv(&rxs[0])), (1, FlushTrigger::Idle, vec![2]));
        shared.stop();
        worker.join().expect("batcher exits");
    }
}
