//! # gts-trace
//!
//! End-to-end tracing for the GTS serving stack: a lock-cheap,
//! **deterministic** recorder that collects typed [`TraceEvent`]s from
//! every layer — admission ([`RequestId`]), microbatcher, executor lanes,
//! replicas, shards, descent levels, and simulated kernel launches — plus
//! three export paths:
//!
//! * [`TraceRecorder::to_chrome_json`] — Chrome/Perfetto `trace_event`
//!   JSON on the simulated-cycle timebase (lanes and devices as tracks);
//! * [`TraceRecorder::summary`] — a [`TraceSummary`] per-stage latency
//!   table built on [`LatencyHistogram`];
//! * the **flight recorder** — on a device fault, lane panic, or dead
//!   shard, the last N events are snapshotted into a [`FlightDump`] so a
//!   chaos-soak postmortem is self-contained.
//!
//! The bounded rings ([`TraceConfig::ring_capacity`]) bound the Chrome
//! export, the flight dumps and the determinism projection, not the
//! summary: a span is folded into its stage histogram when it is recorded.
//!
//! ## Determinism contract
//!
//! Events *observe* clocks, never advance them: recording an event reads
//! the simulated device clock that the traced operation already moved, so
//! answers, epochs, and simulated cycle counts are bit-identical with
//! tracing on or off. Host wall time is carried alongside
//! ([`TraceEvent::wall_us`]) but excluded from the
//! [determinism projection](TraceRecorder::determinism_projection), which
//! sorts events by a content key on the cycle timebase — for a fixed seed
//! and arrival sequence the projection reproduces exactly (provided the
//! ring capacity held every event; an overflowing ring drops oldest-first
//! per ring, which is reported via [`TraceRecorder::dropped`]). The
//! summary reproduces at any ring capacity.
//!
//! Context (which request/batch/lane/replica/shard an event belongs to)
//! rides a thread-local [`TraceCtx`] set by the layer that knows it;
//! thread-spawning layers re-plant the parent context in their workers.

#![warn(missing_docs)]

mod hist;
pub mod json;

pub use hist::LatencyHistogram;

use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A per-request identity minted at admission (`SubmitHandle::submit`) and
/// carried through batching, lanes, replicas, and shards, so any event in
/// a trace links back to the client request that paid for it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// The propagation context an event is recorded under: which batch, lane,
/// replica, and shard the current thread is working for. Layers fill in
/// the fields they own ([`TraceCtx::with_lane`] etc.) and plant the result
/// thread-locally with [`scoped_ctx`]; thread-spawning layers capture
/// [`current_ctx`] and re-plant it inside their workers (thread-locals do
/// not inherit).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceCtx {
    /// The request this event serves, when the operation is per-request
    /// (most execution events serve a whole batch and leave this `None`;
    /// the `BatchMember` events recorded at batch start provide the
    /// request ↔ batch association instead).
    pub request: Option<RequestId>,
    /// Microbatcher flush sequence number of the batch being executed.
    pub batch: Option<u64>,
    /// Executor lane driving the work.
    pub lane: Option<u32>,
    /// Replica the work was routed to.
    pub replica: Option<u32>,
    /// Shard (within the replica) the work runs on.
    pub shard: Option<u32>,
}

impl TraceCtx {
    /// This context with the request set.
    pub fn with_request(mut self, r: RequestId) -> TraceCtx {
        self.request = Some(r);
        self
    }

    /// This context with the batch sequence number set.
    pub fn with_batch(mut self, b: u64) -> TraceCtx {
        self.batch = Some(b);
        self
    }

    /// This context with the lane set.
    pub fn with_lane(mut self, l: u32) -> TraceCtx {
        self.lane = Some(l);
        self
    }

    /// This context with the replica set.
    pub fn with_replica(mut self, r: u32) -> TraceCtx {
        self.replica = Some(r);
        self
    }

    /// This context with the shard set.
    pub fn with_shard(mut self, s: u32) -> TraceCtx {
        self.shard = Some(s);
        self
    }
}

thread_local! {
    static CTX: Cell<TraceCtx> = const { Cell::new(TraceCtx {
        request: None,
        batch: None,
        lane: None,
        replica: None,
        shard: None,
    }) };
}

/// The calling thread's current trace context (empty if none was planted).
pub fn current_ctx() -> TraceCtx {
    CTX.with(|c| c.get())
}

/// Plant `ctx` as the calling thread's context until the returned guard
/// drops, then restore the previous one. Nesting composes: inner scopes
/// shadow outer ones.
pub fn scoped_ctx(ctx: TraceCtx) -> CtxScope {
    let prev = CTX.with(|c| c.replace(ctx));
    CtxScope { prev }
}

/// Guard returned by [`scoped_ctx`]; restores the previous context on drop.
#[must_use = "dropping the scope immediately restores the previous context"]
pub struct CtxScope {
    prev: TraceCtx,
}

impl Drop for CtxScope {
    fn drop(&mut self) {
        let prev = self.prev;
        CTX.with(|c| c.set(prev));
    }
}

/// Why a replica-layer retry happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RetryCause {
    /// An injected device fault killed the attempt.
    DeviceFault,
    /// A non-device panic (e.g. a user metric) killed the attempt.
    Panic,
}

/// What a trace event records. Span kinds carry a real `[begin, end]`
/// cycle interval; the rest are instants (`begin == end`).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// Instant, lane-side, once per batch before execution: the batch
    /// starts executing on its lane.
    BatchStart {
        /// Requests in the batch.
        size: u32,
        /// True for an update (write) batch.
        update: bool,
    },
    /// Instant, lane-side, once per request in a batch: request `request`
    /// rides the batch in [`TraceCtx::batch`] — the association the flight
    /// recorder uses to walk from a faulting kernel back to the requests
    /// that paid for it.
    BatchMember {
        /// The member request.
        request: RequestId,
    },
    /// Span: a lane executing one batch end-to-end (replica routing,
    /// scatter, merge), on the lane's preferred-replica critical path.
    LaneBatch {
        /// Requests in the batch.
        size: u32,
        /// True for an update (write) batch.
        update: bool,
    },
    /// Instant: the replica layer retried after a failed attempt.
    ReplicaRetry {
        /// What killed the attempt.
        cause: RetryCause,
    },
    /// Instant: no replica held a healthy copy of every shard, so the
    /// batch's plan spans more than one replica.
    Degraded,
    /// Span: one shard answering its slice of a scattered batch.
    ShardScatter,
    /// Instant: per-shard answers merged back into global ones.
    Merge {
        /// Per-query result lists merged.
        results: u64,
    },
    /// Span: one descent-engine level (expansion or leaf verification).
    Level {
        /// Tree level processed (root = 1; `height` = leaf verification).
        level: u32,
        /// Frontier entries alive at this level.
        frontier: u64,
        /// Leaf table entries verified with a real distance computation
        /// (non-zero only at the leaf level).
        verified: u64,
    },
    /// Span: one simulated kernel launch on a device.
    Kernel {
        /// Total scalar-op work units charged.
        work: u64,
        /// Critical-path span of the kernel.
        span: u64,
    },
    /// Instant: an armed device fault fired on this device.
    Fault {
        /// True when the fault quarantines the device.
        permanent: bool,
    },
    /// Instant: a batch failed typed because a shard lost every replica.
    ShardUnavailable {
        /// The dead shard.
        shard: u32,
    },
    /// Instant: a panic was caught at a lane boundary.
    LanePanic,
}

impl EventKind {
    /// Short stable name (Chrome track label and summary stage).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::BatchStart { .. } => "batch_start",
            EventKind::BatchMember { .. } => "batch_member",
            EventKind::LaneBatch { .. } => "lane_batch",
            EventKind::ReplicaRetry { .. } => "replica_retry",
            EventKind::Degraded => "degraded",
            EventKind::ShardScatter => "shard_scatter",
            EventKind::Merge { .. } => "merge",
            EventKind::Level { .. } => "level",
            EventKind::Kernel { .. } => "kernel",
            EventKind::Fault { .. } => "fault",
            EventKind::ShardUnavailable { .. } => "shard_unavailable",
            EventKind::LanePanic => "lane_panic",
        }
    }

    /// The position of a span kind's stage in [`STAGE_ORDER`]; `None` for
    /// instants, which carry no duration.
    pub(crate) fn stage(&self) -> Option<usize> {
        match self {
            EventKind::LaneBatch { .. } => Some(0),
            EventKind::ShardScatter => Some(1),
            EventKind::Level { .. } => Some(2),
            EventKind::Kernel { .. } => Some(3),
            _ => None,
        }
    }
}

/// The span stages — the kinds that carry a real `[begin, end]` duration —
/// by [`EventKind::name`], in the order a request travels the serving
/// stack (lane → shard → descent level → kernel). [`TraceSummary`] holds
/// one histogram per entry, and both [`TraceSummary::to_table`] and the
/// stage-labelled series of the service's Prometheus exposition
/// (`gts_service::metrics`) walk it, so the two views of the same pipeline
/// line up row for row.
pub const STAGE_ORDER: [&str; 4] = ["lane_batch", "shard_scatter", "level", "kernel"];

/// One recorded event: a kind, the context it happened under, its interval
/// on the simulated-cycle timebase, the device it ran on (if any), and the
/// host wall-clock stamp (observability only — excluded from the
/// determinism projection).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated device cycles when the operation began.
    pub begin_cycles: u64,
    /// Simulated device cycles when the operation ended (`== begin` for
    /// instants).
    pub end_cycles: u64,
    /// Device ordinal (pool index) for device-side events.
    pub device: Option<u32>,
    /// Propagation context the event was recorded under.
    pub ctx: TraceCtx,
    /// What happened.
    pub kind: EventKind,
    /// Host microseconds since the recorder was created. Wall time only —
    /// never part of determinism comparisons.
    pub wall_us: u64,
}

impl TraceEvent {
    /// An instant event at `at` cycles.
    pub fn instant(kind: EventKind, ctx: TraceCtx, device: Option<u32>, at: u64) -> TraceEvent {
        TraceEvent::span(kind, ctx, device, at, at)
    }

    /// A span event over `[begin, end]` cycles.
    pub fn span(
        kind: EventKind,
        ctx: TraceCtx,
        device: Option<u32>,
        begin: u64,
        end: u64,
    ) -> TraceEvent {
        TraceEvent {
            begin_cycles: begin,
            end_cycles: end,
            device,
            ctx,
            kind,
            wall_us: 0,
        }
    }

    /// Content sort key: everything except wall time. Two runs of the same
    /// seeded workload produce the same multiset of events with the same
    /// keys, so sorting by it yields identical streams.
    fn sort_key(&self) -> (u64, u64, Option<u32>, TraceCtx, EventKind) {
        (
            self.begin_cycles,
            self.end_cycles,
            self.device,
            self.ctx,
            self.kind.clone(),
        )
    }
}

/// Configuration of a [`TraceRecorder`], embedded `Copy`-cheap in the
/// service config.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Whether the service creates a recorder at all. Off means absent: no
    /// recorder exists and no device has a tracer attached, so a would-be
    /// record site sees `None`. A recorder that exists always records —
    /// [`TraceRecorder::new`] does not read this field.
    pub enabled: bool,
    /// Events retained per ring shard (the recorder keeps
    /// [`NUM_RINGS`] rings, so total capacity is `NUM_RINGS *
    /// ring_capacity`). Oldest events in a full ring are dropped. The rings
    /// bound the Chrome export, the flight dumps and the determinism
    /// projection, not the [`TraceSummary`], which is folded as events are
    /// recorded.
    pub ring_capacity: usize,
    /// Events snapshotted into each [`FlightDump`] (the "last N").
    pub flight_events: usize,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            enabled: false,
            ring_capacity: 4096,
            flight_events: 256,
        }
    }
}

/// What triggered a flight-recorder dump.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DumpReason {
    /// An armed device fault fired.
    DeviceFault,
    /// A panic was caught at a lane boundary.
    LanePanic,
    /// A batch failed because a shard lost every replica.
    ShardUnavailable,
}

/// A point-of-failure snapshot: the last N events (canonical cycle order)
/// at the moment a fault/panic/dead-shard was observed.
#[derive(Clone, Debug, PartialEq)]
pub struct FlightDump {
    /// Why the dump was taken.
    pub reason: DumpReason,
    /// Host microseconds since recorder creation when the dump was taken.
    pub wall_us: u64,
    /// The snapshotted events, oldest first.
    pub events: Vec<TraceEvent>,
}

/// Ring shards in a recorder. Events are routed by the most specific
/// context available (device, else shard, else lane), so concurrent
/// writers from different devices or lanes rarely contend on one lock.
pub const NUM_RINGS: usize = 16;

/// Flight dumps retained before the oldest is discarded.
const MAX_DUMPS: usize = 32;

/// The sharded ring-buffer trace collector. One recorder serves one
/// service instance (never process-global: concurrent services in one
/// process each get their own). All methods take `&self`. A recorder that
/// exists records: tracing is switched off by not creating one (see
/// [`TraceConfig::enabled`]).
#[derive(Debug)]
pub struct TraceRecorder {
    rings: Vec<Mutex<Ring>>,
    ring_capacity: usize,
    flight_events: usize,
    dumps: Mutex<Vec<FlightDump>>,
    epoch: Instant,
}

/// One ring shard: its newest events, and the summary of every event it
/// was ever handed (`recorded` of them, retained or dropped).
#[derive(Debug, Default)]
struct Ring {
    events: VecDeque<TraceEvent>,
    recorded: u64,
    stages: [LatencyHistogram; STAGE_ORDER.len()],
}

impl TraceRecorder {
    /// A recorder with the given ring and flight-dump sizes.
    pub fn new(cfg: TraceConfig) -> Arc<TraceRecorder> {
        Arc::new(TraceRecorder {
            rings: (0..NUM_RINGS).map(|_| Mutex::default()).collect(),
            ring_capacity: cfg.ring_capacity.max(1),
            flight_events: cfg.flight_events.max(1),
            dumps: Mutex::new(Vec::new()),
            epoch: Instant::now(),
        })
    }

    /// Events dropped from full rings so far.
    pub fn dropped(&self) -> u64 {
        self.summary().dropped
    }

    fn ring_of(&self, ev: &TraceEvent) -> usize {
        let key = if let Some(d) = ev.device {
            d as usize
        } else if let Some(s) = ev.ctx.shard {
            NUM_RINGS / 2 + s as usize
        } else if let Some(l) = ev.ctx.lane {
            NUM_RINGS / 4 + l as usize
        } else {
            0
        };
        key % NUM_RINGS
    }

    /// Record one event, stamping its wall clock and folding a span's
    /// duration into its stage histogram.
    pub fn record(&self, mut ev: TraceEvent) {
        ev.wall_us = self.epoch.elapsed().as_micros() as u64;
        let mut ring = self.rings[self.ring_of(&ev)]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        ring.recorded += 1;
        if let Some(stage) = ev.kind.stage() {
            ring.stages[stage].record(ev.end_cycles - ev.begin_cycles);
        }
        if ring.events.len() >= self.ring_capacity {
            ring.events.pop_front();
        }
        ring.events.push_back(ev);
    }

    /// All currently-retained events in canonical order (content sort key
    /// on the cycle timebase — deterministic for a deterministic workload).
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        for ring in &self.rings {
            out.extend(
                ring.lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .events
                    .iter()
                    .cloned(),
            );
        }
        out.sort_by_key(|a| a.sort_key());
        out
    }

    /// The determinism projection: [`TraceRecorder::events`] with wall
    /// clocks zeroed. Two runs of the same seeded workload must produce
    /// equal projections — this is what the invariance tests compare.
    pub fn determinism_projection(&self) -> Vec<TraceEvent> {
        let mut evs = self.events();
        for e in &mut evs {
            e.wall_us = 0;
        }
        evs
    }

    /// Snapshot the last N events into a [`FlightDump`]. Called by the
    /// fault paths (device fault, lane panic, dead shard); callable
    /// manually too.
    pub fn flight_dump(&self, reason: DumpReason) {
        let evs = self.events();
        let tail = evs.len().saturating_sub(self.flight_events);
        let dump = FlightDump {
            reason,
            wall_us: self.epoch.elapsed().as_micros() as u64,
            events: evs[tail..].to_vec(),
        };
        let mut dumps = self.dumps.lock().unwrap_or_else(|e| e.into_inner());
        if dumps.len() >= MAX_DUMPS {
            dumps.remove(0);
        }
        dumps.push(dump);
    }

    /// All flight dumps taken so far, oldest first.
    pub fn flight_dumps(&self) -> Vec<FlightDump> {
        self.dumps.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// The whole run's per-stage latency summary: the rings' stage
    /// histograms merged, plus every event recorded and how many the full
    /// rings dropped.
    pub fn summary(&self) -> TraceSummary {
        let mut sum = TraceSummary::default();
        for ring in &self.rings {
            let ring = ring.lock().unwrap_or_else(|e| e.into_inner());
            sum.events += ring.recorded;
            sum.dropped += ring.recorded - ring.events.len() as u64;
            for (acc, h) in sum.stages.iter_mut().zip(&ring.stages) {
                acc.merge(h);
            }
        }
        sum
    }

    /// Export the retained events as Chrome `trace_event` JSON (the
    /// "JSON Array Format"): load the string in Perfetto / `chrome://tracing`
    /// to see lanes and devices as tracks on the simulated-cycle timebase
    /// (1 cycle rendered as 1 µs). Always valid JSON; shape checkable with
    /// [`validate_chrome_trace`].
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("[");
        // Track-naming metadata: pid 1 = the service (lanes as threads),
        // pid 2 = the devices.
        push_metadata(&mut out, 1, "process_name", "gts-service");
        out.push(',');
        push_metadata(&mut out, 2, "process_name", "gpu-sim devices");
        for ev in self.events() {
            out.push(',');
            push_event(&mut out, &ev);
        }
        out.push(']');
        out
    }
}

/// Chrome track of an event: `(pid, tid)`. Device-side events render under
/// the devices process keyed by device ordinal; everything else renders
/// under the service process keyed by lane.
fn track(ev: &TraceEvent) -> (u32, u32) {
    match ev.device {
        Some(d) => (2, d),
        None => (1, ev.ctx.lane.unwrap_or(0)),
    }
}

fn push_metadata(out: &mut String, pid: u32, name: &str, value: &str) {
    out.push_str(&format!(
        "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"{name}\",\"args\":{{\"name\":\"{value}\"}}}}"
    ));
}

fn push_event(out: &mut String, ev: &TraceEvent) {
    let (pid, tid) = track(ev);
    let name = ev.kind.name();
    let mut args = Vec::new();
    if let Some(r) = ev.ctx.request {
        args.push(("request", r.0));
    }
    if let Some(b) = ev.ctx.batch {
        args.push(("batch", b));
    }
    if let Some(l) = ev.ctx.lane {
        args.push(("lane", u64::from(l)));
    }
    if let Some(r) = ev.ctx.replica {
        args.push(("replica", u64::from(r)));
    }
    if let Some(s) = ev.ctx.shard {
        args.push(("shard", u64::from(s)));
    }
    args.push(("wall_us", ev.wall_us));
    match &ev.kind {
        EventKind::BatchStart { size, update } | EventKind::LaneBatch { size, update } => {
            args.push(("size", u64::from(*size)));
            args.push(("update", u64::from(*update)));
        }
        EventKind::BatchMember { request } => args.push(("member", request.0)),
        EventKind::ReplicaRetry { cause } => {
            args.push(("device_fault", u64::from(*cause == RetryCause::DeviceFault)));
        }
        EventKind::Merge { results } => args.push(("results", *results)),
        EventKind::Level {
            level,
            frontier,
            verified,
        } => {
            args.push(("level", u64::from(*level)));
            args.push(("frontier", *frontier));
            args.push(("verified", *verified));
        }
        EventKind::Kernel { work, span } => {
            args.push(("work", *work));
            args.push(("span", *span));
        }
        EventKind::Fault { permanent } => args.push(("permanent", u64::from(*permanent))),
        EventKind::ShardUnavailable { shard } => args.push(("dead_shard", u64::from(*shard))),
        EventKind::Degraded | EventKind::LanePanic | EventKind::ShardScatter => {}
    }
    let args_json = args
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect::<Vec<_>>()
        .join(",");
    if ev.kind.stage().is_some() {
        out.push_str(&format!(
            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{name}\",\"ts\":{},\"dur\":{},\"args\":{{{args_json}}}}}",
            ev.begin_cycles,
            ev.end_cycles - ev.begin_cycles,
        ));
    } else {
        out.push_str(&format!(
            "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{name}\",\"ts\":{},\"s\":\"t\",\"args\":{{{args_json}}}}}",
            ev.begin_cycles,
        ));
    }
}

/// Shape-check an exported Chrome trace without an external viewer: valid
/// JSON, top-level array, every element an object carrying `ph`, `name`,
/// `pid`, `tid` (and `ts` + `dur` as the phase demands). Returns the
/// number of non-metadata events.
pub fn validate_chrome_trace(src: &str) -> Result<usize, String> {
    let doc = json::parse(src)?;
    let arr = doc.as_arr().ok_or("top level must be a JSON array")?;
    let mut events = 0usize;
    for (i, ev) in arr.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(json::Value::as_str)
            .ok_or(format!("event {i}: missing \"ph\""))?;
        ev.get("name")
            .and_then(json::Value::as_str)
            .ok_or(format!("event {i}: missing \"name\""))?;
        for key in ["pid", "tid"] {
            ev.get(key)
                .and_then(json::Value::as_num)
                .ok_or(format!("event {i}: missing numeric \"{key}\""))?;
        }
        match ph {
            "M" => {
                ev.get("args")
                    .and_then(|a| a.get("name"))
                    .ok_or(format!("event {i}: metadata without args.name"))?;
                continue;
            }
            "X" => {
                let dur = ev
                    .get("dur")
                    .and_then(json::Value::as_num)
                    .ok_or(format!("event {i}: complete event without \"dur\""))?;
                if dur < 0.0 {
                    return Err(format!("event {i}: negative duration"));
                }
            }
            "i" => {
                ev.get("s")
                    .and_then(json::Value::as_str)
                    .ok_or(format!("event {i}: instant without scope \"s\""))?;
            }
            other => return Err(format!("event {i}: unexpected phase {other:?}")),
        }
        ev.get("ts")
            .and_then(json::Value::as_num)
            .ok_or(format!("event {i}: missing numeric \"ts\""))?;
        events += 1;
    }
    Ok(events)
}

/// Per-stage latency breakdown over every span a recorder was handed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Every event recorded (spans and instants), retained or dropped.
    pub events: u64,
    /// Events the full rings dropped (oldest-first).
    pub dropped: u64,
    /// Histograms of span durations in simulated cycles, one per stage in
    /// [`STAGE_ORDER`].
    pub stages: [LatencyHistogram; STAGE_ORDER.len()],
}

impl TraceSummary {
    /// Render the breakdown as an aligned text table (count, p50, p95,
    /// p99, max per stage), one row per stage in [`STAGE_ORDER`] — the
    /// order the service's Prometheus exposition uses.
    pub fn to_table(&self) -> String {
        let mut out = String::from(
            "stage            count      p50        p95        p99        max (cycles)\n",
        );
        for (stage, h) in STAGE_ORDER.iter().zip(&self.stages) {
            out.push_str(&format!(
                "{:<16} {:<10} {:<10} {:<10} {:<10} {}\n",
                stage,
                h.count(),
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99),
                h.max(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, begin: u64, end: u64, device: Option<u32>) -> TraceEvent {
        TraceEvent::span(kind, current_ctx(), device, begin, end)
    }

    #[test]
    fn scoped_ctx_nests_and_restores() {
        assert_eq!(current_ctx(), TraceCtx::default());
        {
            let _outer = scoped_ctx(TraceCtx::default().with_lane(1).with_batch(7));
            assert_eq!(current_ctx().lane, Some(1));
            {
                let _inner = scoped_ctx(current_ctx().with_shard(3));
                assert_eq!(current_ctx().batch, Some(7));
                assert_eq!(current_ctx().shard, Some(3));
            }
            assert_eq!(current_ctx().shard, None, "inner scope popped");
            assert_eq!(current_ctx().lane, Some(1));
        }
        assert_eq!(current_ctx(), TraceCtx::default(), "outer scope popped");
    }

    #[test]
    fn events_sort_canonically_and_project_deterministically() {
        let cfg = TraceConfig {
            enabled: true,
            ..TraceConfig::default()
        };
        let run = || {
            let rec = TraceRecorder::new(cfg);
            // Record out of order and from different "devices".
            rec.record(ev(EventKind::Kernel { work: 9, span: 3 }, 10, 14, Some(1)));
            rec.record(ev(EventKind::Kernel { work: 4, span: 2 }, 0, 3, Some(0)));
            rec.record(ev(EventKind::ShardScatter, 0, 14, Some(0)));
            rec.determinism_projection()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "projection reproduces across runs");
        assert_eq!(a.len(), 3);
        assert!(a.windows(2).all(|w| w[0].begin_cycles <= w[1].begin_cycles));
        assert!(a.iter().all(|e| e.wall_us == 0), "wall time projected out");
    }

    #[test]
    fn full_rings_drop_oldest_and_count_drops() {
        let rec = TraceRecorder::new(TraceConfig {
            enabled: true,
            ring_capacity: 4,
            flight_events: 2,
        });
        for i in 0..10u64 {
            rec.record(ev(
                EventKind::Kernel { work: i, span: 1 },
                i,
                i + 1,
                Some(0),
            ));
        }
        let evs = rec.events();
        assert_eq!(evs.len(), 4, "ring holds the last `ring_capacity` events");
        assert_eq!(rec.dropped(), 6);
        assert_eq!(evs[0].begin_cycles, 6, "oldest were dropped");
        let sum = rec.summary();
        assert_eq!((sum.events, sum.dropped), (10, 6));
        assert_eq!(
            stage(&sum, "kernel").count(),
            10,
            "dropped spans stay summarised"
        );
    }

    #[test]
    fn flight_dump_snapshots_the_tail() {
        let rec = TraceRecorder::new(TraceConfig {
            enabled: true,
            ring_capacity: 64,
            flight_events: 3,
        });
        for i in 0..8u64 {
            rec.record(ev(
                EventKind::Kernel { work: i, span: 1 },
                i,
                i + 1,
                Some(0),
            ));
        }
        rec.record(TraceEvent::instant(
            EventKind::Fault { permanent: false },
            current_ctx(),
            Some(0),
            8,
        ));
        rec.flight_dump(DumpReason::DeviceFault);
        let dumps = rec.flight_dumps();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].reason, DumpReason::DeviceFault);
        assert_eq!(dumps[0].events.len(), 3, "exactly the last N");
        assert_eq!(
            dumps[0].events.last().expect("tail").kind,
            EventKind::Fault { permanent: false },
            "the triggering fault is the newest event"
        );
    }

    /// The histogram of `name`'s stage.
    fn stage<'a>(sum: &'a TraceSummary, name: &str) -> &'a LatencyHistogram {
        let i = STAGE_ORDER
            .iter()
            .position(|s| *s == name)
            .expect("a stage");
        &sum.stages[i]
    }

    #[test]
    fn summary_buckets_spans_by_stage() {
        let rec = TraceRecorder::new(TraceConfig {
            enabled: true,
            ..TraceConfig::default()
        });
        rec.record(ev(EventKind::Kernel { work: 1, span: 8 }, 0, 8, Some(0)));
        rec.record(ev(EventKind::Kernel { work: 1, span: 16 }, 8, 24, Some(0)));
        rec.record(ev(EventKind::ShardScatter, 0, 24, Some(0)));
        rec.record(TraceEvent::instant(
            EventKind::Merge { results: 4 },
            current_ctx(),
            None,
            24,
        ));
        let sum = rec.summary();
        assert_eq!((sum.events, sum.dropped), (4, 0));
        assert_eq!(stage(&sum, "kernel").count(), 2);
        assert_eq!(stage(&sum, "kernel").max(), 16);
        assert_eq!(stage(&sum, "shard_scatter").count(), 1);
        let spans: u64 = sum.stages.iter().map(LatencyHistogram::count).sum();
        assert_eq!(spans, 3, "instants aren't spans");
        let table = sum.to_table();
        assert!(table.contains("kernel"), "table lists the stage: {table}");
    }

    #[test]
    fn stage_order_covers_every_event_kind_exactly_once() {
        let all = [
            EventKind::BatchStart {
                size: 1,
                update: false,
            },
            EventKind::BatchMember {
                request: RequestId(0),
            },
            EventKind::LaneBatch {
                size: 1,
                update: false,
            },
            EventKind::ReplicaRetry {
                cause: RetryCause::DeviceFault,
            },
            EventKind::Degraded,
            EventKind::ShardScatter,
            EventKind::Merge { results: 0 },
            EventKind::Level {
                level: 0,
                frontier: 0,
                verified: 0,
            },
            EventKind::Kernel { work: 0, span: 0 },
            EventKind::Fault { permanent: false },
            EventKind::ShardUnavailable { shard: 0 },
            EventKind::LanePanic,
        ];
        let stages: Vec<usize> = all.iter().filter_map(EventKind::stage).collect();
        assert_eq!(stages, [0, 1, 2, 3], "each stage once, in pipeline order");
        for kind in &all {
            if let Some(i) = kind.stage() {
                assert_eq!(STAGE_ORDER[i], kind.name(), "a stage is its kind's name");
            }
        }
    }

    #[test]
    fn summary_table_rows_follow_the_canonical_stage_order() {
        let rec = TraceRecorder::new(TraceConfig {
            enabled: true,
            ..TraceConfig::default()
        });
        // Recorded out of pipeline order on purpose; `kernel` would sort
        // before `lane_batch` and `shard_scatter` alphabetically.
        rec.record(ev(EventKind::Kernel { work: 1, span: 4 }, 0, 4, Some(0)));
        rec.record(ev(EventKind::ShardScatter, 0, 6, Some(0)));
        rec.record(ev(
            EventKind::LaneBatch {
                size: 2,
                update: false,
            },
            0,
            8,
            Some(0),
        ));
        let table = rec.summary().to_table();
        let pos = |stage: &str| table.find(stage).unwrap_or_else(|| panic!("{stage} row"));
        assert!(
            pos("lane_batch") < pos("shard_scatter") && pos("shard_scatter") < pos("kernel"),
            "rows follow STAGE_ORDER, not alphabetical order:\n{table}"
        );
    }

    #[test]
    fn chrome_export_validates_and_carries_tracks() {
        let rec = TraceRecorder::new(TraceConfig {
            enabled: true,
            ..TraceConfig::default()
        });
        {
            let _ctx = scoped_ctx(
                TraceCtx::default()
                    .with_request(RequestId(7))
                    .with_batch(3)
                    .with_lane(1)
                    .with_replica(0)
                    .with_shard(2),
            );
            rec.record(ev(EventKind::Kernel { work: 10, span: 4 }, 5, 9, Some(2)));
            rec.record(TraceEvent::instant(
                EventKind::BatchMember {
                    request: RequestId(7),
                },
                current_ctx(),
                None,
                5,
            ));
        }
        let json_str = rec.to_chrome_json();
        let n = validate_chrome_trace(&json_str).expect("valid trace");
        assert_eq!(n, 2, "two non-metadata events");
        let doc = json::parse(&json_str).expect("parses");
        let arr = doc.as_arr().expect("array");
        let kernel = arr
            .iter()
            .find(|e| e.get("name").and_then(json::Value::as_str) == Some("kernel"))
            .expect("kernel event exported");
        assert_eq!(kernel.get("pid").and_then(json::Value::as_num), Some(2.0));
        assert_eq!(kernel.get("tid").and_then(json::Value::as_num), Some(2.0));
        assert_eq!(kernel.get("ts").and_then(json::Value::as_num), Some(5.0));
        assert_eq!(kernel.get("dur").and_then(json::Value::as_num), Some(4.0));
        assert_eq!(
            kernel
                .get("args")
                .and_then(|a| a.get("request"))
                .and_then(json::Value::as_num),
            Some(7.0)
        );
    }

    #[test]
    fn validator_rejects_wrong_shapes() {
        assert!(validate_chrome_trace("{}").is_err(), "not an array");
        assert!(
            validate_chrome_trace("[{\"name\":\"x\"}]").is_err(),
            "missing ph"
        );
        assert!(
            validate_chrome_trace("[{\"ph\":\"X\",\"name\":\"x\",\"pid\":1,\"tid\":0,\"ts\":1}]")
                .is_err(),
            "complete event without dur"
        );
    }
}
