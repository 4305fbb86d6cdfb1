//! The system under test. Every call the benchmark makes into the program
//! goes through this file, and only through public functions of
//! `gts::{metric, gpu, core, service, trace, metrics, baselines}` — layers
//! are measured from outside. The rest of the benchmark sees plain numbers
//! and the program's `Neighbor` / `Item` values, nothing else.
//!
//! All programs run with `GtsParams::default()` and
//! `ServiceConfig::default()`; the only fields set are the topology
//! (`shards`, `replicas`, `lanes`) and, in the traced pass, the `trace` and
//! `metrics` switches whose overhead is being measured.

use crate::data::{Obj, Space};
use crate::oracle::Hit;
use gts::baselines::LinearScan;
use gts::core::{Gts, GtsParams, ReplicatedShards, ShardedGts, UpdateOp};
use gts::gpu::{primitives, Device, DevicePool};
use gts::metric::index::{DynamicIndex, SimilarityIndex};
use gts::metric::{BatchMetric, Item, ItemMetric, Neighbor, ObjectArena};
use gts::service::{QueryService, Reply, Request, ServiceConfig, SubmitHandle, Ticket};
use gts::trace::{TraceConfig, TraceRecorder};
use std::sync::Arc;

pub type Answers = Vec<Vec<Neighbor>>;
/// The program's own trace recorder.
pub type Recorder = TraceRecorder;

pub fn item(obj: &Obj) -> Item {
    match obj {
        Obj::Vector(v) => Item::vector(v.clone()),
        Obj::Text(s) => Item::text(s.clone()),
    }
}

pub fn items(objs: &[Obj]) -> Vec<Item> {
    objs.iter().map(item).collect()
}

pub fn metric(space: Space) -> ItemMetric {
    match space {
        Space::TLoc => ItemMetric::L2,
        Space::Vector300 => ItemMetric::ANGULAR,
        Space::Words => ItemMetric::Edit,
    }
}

pub fn hits(answer: &[Neighbor]) -> Vec<Hit> {
    answer
        .iter()
        .map(|n| Hit {
            id: n.id,
            dist: n.dist,
        })
        .collect()
}

/// How the index is laid out over simulated devices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// One `Gts` on one device, called directly.
    Single,
    /// `ReplicatedShards` of `shards × replicas`, served by `lanes` lanes.
    Replicated {
        shards: u32,
        replicas: u32,
        lanes: usize,
    },
}

/// Search counters of the `core` layer (a `StatsSnapshot`, as plain numbers).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreCounts {
    pub distances: u64,
    pub nodes_pruned: u64,
    pub nodes_expanded: u64,
    pub leaf_filtered: u64,
    pub leaf_verified: u64,
    pub leaf_abandoned: u64,
    pub groups_formed: u64,
    pub max_frontier: u64,
}

impl CoreCounts {
    /// Counters accumulated since `earlier` (`max_frontier` is a high-water
    /// mark and is carried over as it stands).
    pub fn since(self, earlier: CoreCounts) -> CoreCounts {
        CoreCounts {
            distances: self.distances - earlier.distances,
            nodes_pruned: self.nodes_pruned - earlier.nodes_pruned,
            nodes_expanded: self.nodes_expanded - earlier.nodes_expanded,
            leaf_filtered: self.leaf_filtered - earlier.leaf_filtered,
            leaf_verified: self.leaf_verified - earlier.leaf_verified,
            leaf_abandoned: self.leaf_abandoned - earlier.leaf_abandoned,
            groups_formed: self.groups_formed - earlier.groups_formed,
            max_frontier: self.max_frontier,
        }
    }
}

/// Counters of the `gpu_sim` layer summed over the index's devices
/// (`span_cycles` is the maximum: devices run concurrently).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeviceCounts {
    pub span_cycles: u64,
    pub cycles_total: u64,
    pub busy_cycles: u64,
    pub transfer_cycles: u64,
    pub stall_cycles: u64,
    pub kernels: u64,
    pub h2d_bytes: u64,
    pub d2h_bytes: u64,
    pub peak_allocated: u64,
    pub oom_events: u64,
}

impl DeviceCounts {
    pub fn since(self, earlier: DeviceCounts) -> DeviceCounts {
        DeviceCounts {
            span_cycles: self.span_cycles - earlier.span_cycles,
            cycles_total: self.cycles_total - earlier.cycles_total,
            busy_cycles: self.busy_cycles - earlier.busy_cycles,
            transfer_cycles: self.transfer_cycles - earlier.transfer_cycles,
            stall_cycles: self.stall_cycles - earlier.stall_cycles,
            kernels: self.kernels - earlier.kernels,
            h2d_bytes: self.h2d_bytes - earlier.h2d_bytes,
            d2h_bytes: self.d2h_bytes - earlier.d2h_bytes,
            peak_allocated: self.peak_allocated,
            oom_events: self.oom_events - earlier.oom_events,
        }
    }
}

type Replicated = ReplicatedShards<Item, ItemMetric>;

/// One batched query, as every layer of the index takes it.
#[derive(Clone, Copy, Debug)]
pub enum Query<'a> {
    Knn {
        queries: &'a [Item],
        k: usize,
    },
    Range {
        queries: &'a [Item],
        radii: &'a [f64],
    },
}

impl Query<'_> {
    pub fn len(&self) -> usize {
        match self {
            Query::Knn { queries, .. } | Query::Range { queries, .. } => queries.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn run(&self, index: &impl Batched) -> Result<Answers, String> {
        match *self {
            Query::Knn { queries, k } => index.knn(queries, k),
            Query::Range { queries, radii } => index.range(queries, radii),
        }
    }
}

/// The public call boundaries of the index, outermost first. A single
/// `Gts` is its own only layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `ReplicatedShards::batch_*` (or the single `Gts`).
    Top,
    /// `ShardedGts::batch_*` on replica 0.
    Sharded,
    /// `Gts::batch_*` on one shard of replica 0.
    Shard(usize),
}

/// The two batched entry points every index layer has under the same names.
trait Batched {
    fn knn(&self, queries: &[Item], k: usize) -> Result<Answers, String>;
    fn range(&self, queries: &[Item], radii: &[f64]) -> Result<Answers, String>;
}

macro_rules! batched {
    ($layer:ty) => {
        impl Batched for $layer {
            fn knn(&self, queries: &[Item], k: usize) -> Result<Answers, String> {
                self.batch_knn(queries, k).map_err(fail("batch_knn"))
            }
            fn range(&self, queries: &[Item], radii: &[f64]) -> Result<Answers, String> {
                self.batch_range(queries, radii)
                    .map_err(fail("batch_range"))
            }
        }
    };
}
batched!(Gts<Item, ItemMetric>);
batched!(ShardedGts<Item, ItemMetric>);
batched!(Replicated);

/// A built index in one of the two topologies.
pub enum Index {
    Single {
        device: Arc<Device>,
        gts: Box<Gts<Item, ItemMetric>>,
    },
    Replicated(Arc<Replicated>),
}

fn fail<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

impl Index {
    pub fn build(data: Vec<Item>, space: Space, topology: Topology) -> Result<Index, String> {
        let params = GtsParams::default();
        match topology {
            Topology::Single => {
                let device = Device::rtx_2080_ti();
                let gts =
                    Gts::build(&device, data, metric(space), params).map_err(fail("build"))?;
                Ok(Index::Single {
                    device,
                    gts: Box::new(gts),
                })
            }
            Topology::Replicated {
                shards, replicas, ..
            } => {
                let pool = DevicePool::rtx_2080_ti((shards * replicas) as usize);
                let params = params.with_shards(shards).with_replicas(replicas);
                let index = ReplicatedShards::build(&pool, data, metric(space), params)
                    .map_err(fail("build"))?;
                Ok(Index::Replicated(Arc::new(index)))
            }
        }
    }

    /// Run one batched query at `layer` of this index.
    pub fn call(&self, layer: Layer, query: &Query) -> Result<Answers, String> {
        match (self, layer) {
            (Index::Single { gts, .. }, _) => query.run(gts.as_ref()),
            (Index::Replicated(r), Layer::Top) => query.run(r.as_ref()),
            (Index::Replicated(r), Layer::Sharded) => {
                query.run(&*r.replica(0).read().expect("replica lock"))
            }
            (Index::Replicated(r), Layer::Shard(s)) => {
                query.run(r.replica(0).read().expect("replica lock").shard(s))
            }
        }
    }

    pub fn core_counts(&self) -> CoreCounts {
        let s = match self {
            Index::Single { gts, .. } => gts.stats(),
            Index::Replicated(r) => r.stats(),
        };
        CoreCounts {
            distances: s.distance_computations,
            nodes_pruned: s.nodes_pruned,
            nodes_expanded: s.nodes_expanded,
            leaf_filtered: s.leaf_filtered,
            leaf_verified: s.leaf_verified,
            leaf_abandoned: s.leaf_abandoned,
            groups_formed: s.groups_formed,
            max_frontier: s.max_frontier,
        }
    }

    pub fn device_counts(&self) -> DeviceCounts {
        let pool = match self {
            Index::Single { device, .. } => DevicePool::from_devices(vec![Arc::clone(device)]),
            Index::Replicated(r) => r.pool().clone(),
        };
        let p = pool.aggregate();
        DeviceCounts {
            span_cycles: p.span_cycles,
            cycles_total: p.cycles_total,
            busy_cycles: p.busy_cycles,
            transfer_cycles: p.transfer_cycles,
            stall_cycles: p.stall_cycles,
            kernels: p.kernels,
            h2d_bytes: p.h2d_bytes,
            d2h_bytes: p.d2h_bytes,
            peak_allocated: p.peak_allocated,
            oom_events: p.oom_events,
        }
    }

    /// Simulated cycles on the critical path so far.
    pub fn span_cycles(&self) -> u64 {
        match self {
            Index::Single { device, .. } => device.cycles(),
            Index::Replicated(r) => r.span_cycles(),
        }
    }

    pub fn devices(&self) -> Vec<Arc<Device>> {
        match self {
            Index::Single { device, .. } => vec![Arc::clone(device)],
            Index::Replicated(r) => r.pool().devices().to_vec(),
        }
    }

    /// Update-triggered rebuilds so far, summed over every shard copy.
    pub fn rebuilds(&self) -> u64 {
        match self {
            Index::Single { gts, .. } => gts.rebuild_count(),
            Index::Replicated(r) => (0..r.num_replicas())
                .map(|rep| {
                    let rep = r.replica(rep).read().expect("replica lock");
                    (0..rep.num_shards())
                        .map(|s| rep.shard(s).rebuild_count())
                        .sum::<u64>()
                })
                .sum(),
        }
    }

    pub fn num_shards(&self) -> usize {
        match self {
            Index::Single { .. } => 1,
            Index::Replicated(r) => r.num_shards(),
        }
    }

    /// One streaming insert through the topology's own write path.
    pub fn insert(&mut self, obj: Item) -> Result<(), String> {
        match self {
            Index::Single { gts, .. } => gts.insert(obj).map(drop).map_err(fail("insert")),
            Index::Replicated(r) => r
                .apply_preferring(&[], &UpdateOp::Insert(obj))
                .map(drop)
                .map_err(fail("insert")),
        }
    }

    /// One batch update (insertions and deletions as a single rebuild).
    pub fn batch_update(
        &mut self,
        insertions: Vec<Item>,
        deletions: Vec<u32>,
    ) -> Result<(), String> {
        match self {
            Index::Single { gts, .. } => gts
                .batch_update(insertions, &deletions)
                .map_err(fail("batch_update")),
            Index::Replicated(r) => r
                .apply_preferring(
                    &[],
                    &UpdateOp::Batch {
                        insertions,
                        deletions,
                    },
                )
                .map(drop)
                .map_err(fail("batch_update")),
        }
    }

    /// Fit the §5.3 cost model once on the first shard.
    pub fn cost_model_fit(&self) {
        match self {
            Index::Single { gts, .. } => {
                std::hint::black_box(gts.cost_model(256, 1));
            }
            Index::Replicated(r) => {
                let rep = r.replica(0).read().expect("replica lock");
                std::hint::black_box(rep.shard(0).cost_model(256, 1));
            }
        }
    }

    /// Serialize the index structure (replica 0 of a replicated index).
    pub fn snapshot(&self) -> Vec<u8> {
        match self {
            Index::Single { gts, .. } => gts.snapshot(),
            Index::Replicated(r) => r.replica(0).read().expect("replica lock").snapshot(),
        }
    }

    /// Restore a snapshot over `data` onto fresh devices and drop the result.
    pub fn restore(&self, data: Vec<Item>, space: Space, bytes: &[u8]) -> Result<(), String> {
        match self {
            Index::Single { .. } => {
                Gts::restore(&Device::rtx_2080_ti(), data, metric(space), bytes)
                    .map(drop)
                    .map_err(fail("restore"))
            }
            Index::Replicated(r) => {
                let pool = DevicePool::rtx_2080_ti(r.num_shards());
                ShardedGts::restore(&pool, data, metric(space), bytes)
                    .map(drop)
                    .map_err(fail("restore"))
            }
        }
    }
}

/// The `metric` layer alone: the flat arena over a dataset and the batched
/// distance kernel over it.
pub struct Kernel {
    metric: ItemMetric,
    data: Vec<Item>,
    arena: Option<ObjectArena>,
}

impl Kernel {
    /// Builds the arena (the `metric.arena_build_ms` measurement times this).
    pub fn new(data: Vec<Item>, space: Space) -> Kernel {
        let metric = metric(space);
        let arena = metric.build_arena(&data);
        Kernel {
            metric,
            data,
            arena,
        }
    }

    /// `out[i] = d(query, data[ids[i]])` in one `distance_batch` call.
    pub fn distance_batch(&self, query: &Item, ids: &[u32], out: &mut [f64]) {
        self.metric
            .distance_batch(&self.data, self.arena.as_ref(), query, ids, out);
    }
}

/// The `baselines` layer: an exhaustive scan over the same dataset.
pub struct Scan(LinearScan);

impl Scan {
    pub fn new(data: Vec<Item>, space: Space) -> Scan {
        Scan(LinearScan::new(data, metric(space)))
    }

    pub fn knn(&self, query: &Item, k: usize) -> Result<Vec<Neighbor>, String> {
        self.0.knn_query(query, k).map_err(fail("scan knn"))
    }

    pub fn range(&self, query: &Item, radius: f64) -> Result<Vec<Neighbor>, String> {
        self.0
            .range_query(query, radius)
            .map_err(fail("scan range"))
    }
}

/// The `gpu_sim` primitives, each run once over the given input.
pub fn sort_pairs(device: &Device, pairs: &mut Vec<(f64, u32)>) {
    primitives::sort_pairs_by_key(device, pairs);
}

pub fn compact(device: &Device, keep: &[bool]) -> Vec<u32> {
    primitives::compact_indices(device, keep)
}

pub fn top_k(device: &Device, keys: &[f64], k: usize) -> Vec<u32> {
    primitives::top_k_min(device, keys, k)
}

pub fn fresh_device() -> Arc<Device> {
    Device::rtx_2080_ti()
}

/// Attach a trace recorder to every device of an index that is called
/// directly (a service attaches its own).
pub fn attach_tracer(index: &Index) -> Arc<Recorder> {
    let rec = TraceRecorder::new(enabled_trace());
    for (i, d) in index.devices().iter().enumerate() {
        d.attach_tracer(Arc::clone(&rec), i as u32);
    }
    rec
}

pub fn detach_tracer(index: &Index) {
    index.devices().iter().for_each(|d| d.detach_tracer());
}

fn enabled_trace() -> TraceConfig {
    TraceConfig {
        enabled: true,
        ..TraceConfig::default()
    }
}

pub fn trace_events(rec: &Recorder) -> (usize, u64) {
    (rec.events().len(), rec.dropped())
}

pub fn trace_export(rec: &Recorder) -> usize {
    rec.to_chrome_json().len()
}

/// Which observability switches a service is started with.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Observe {
    pub trace: bool,
    pub metrics: bool,
}

/// One request as the service takes it.
pub type ServiceRequest = Request<Item>;

pub fn knn_request(query: &Item, k: usize) -> ServiceRequest {
    Request::Knn {
        query: query.clone(),
        k,
    }
}

pub fn range_request(query: &Item, radius: f64) -> ServiceRequest {
    Request::Range {
        query: query.clone(),
        radius,
    }
}

pub fn insert_request(object: &Item) -> ServiceRequest {
    Request::Insert {
        object: object.clone(),
    }
}

pub fn remove_request(id: u32) -> ServiceRequest {
    Request::Remove { id }
}

pub fn batch_update_request(insertions: Vec<Item>, deletions: Vec<u32>) -> ServiceRequest {
    Request::BatchUpdate {
        insertions,
        deletions,
    }
}

/// What came back for one request.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub body: Body,
    pub epoch: u64,
    pub queue_wait_us: u64,
    pub batch_size: usize,
}

#[derive(Clone, Debug)]
pub enum Body {
    Neighbors(Vec<Neighbor>),
    /// An update's receipt (the oracle works the assigned ids out itself).
    Update,
}

/// A submitted request's claim check.
pub struct Pending(Ticket);

impl Pending {
    /// Block until answered. `Err` for a request the service failed.
    pub fn wait(self) -> Result<Outcome, String> {
        let response = self.0.wait().map_err(fail("wait"))?;
        let body = match response.result.map_err(fail("request"))? {
            Reply::Neighbors(n) => Body::Neighbors(n),
            Reply::Update(_) => Body::Update,
        };
        Ok(Outcome {
            body,
            epoch: response.epoch,
            queue_wait_us: response.latency.queue_wait_us,
            batch_size: response.latency.batch_size,
        })
    }
}

/// A cloneable submission endpoint.
#[derive(Clone)]
pub struct Submitter(SubmitHandle<Item>);

impl Submitter {
    /// `Err` when the service refuses the request (queue full, stopping).
    pub fn submit(&self, request: ServiceRequest) -> Result<Pending, String> {
        self.0.submit(request).map(Pending).map_err(fail("submit"))
    }
}

/// Final counters of the `service` layer.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServiceCounts {
    pub admitted: u64,
    pub rejected: u64,
    pub batches: u64,
    pub size_flushes: u64,
    pub deadline_flushes: u64,
    pub failed: u64,
    pub retries: u64,
    pub degraded_calls: u64,
    pub update_batches: u64,
    pub epoch: u64,
    pub lane_batches: Vec<u64>,
}

/// A running `QueryService` over a replicated index.
pub struct Service {
    inner: QueryService<Item, ItemMetric>,
}

impl Service {
    /// Start the service over `index` (which must be `Replicated`).
    pub fn start(index: &Index, topology: Topology, observe: Observe) -> Service {
        let (Index::Replicated(index), Topology::Replicated { lanes, .. }) = (index, topology)
        else {
            panic!("a service needs a replicated index");
        };
        let mut cfg = ServiceConfig::default().with_lanes(lanes);
        if observe.trace {
            cfg = cfg.with_tracing(enabled_trace());
        }
        if observe.metrics {
            cfg = cfg.with_metrics(true);
        }
        Service {
            inner: QueryService::start_replicated(Arc::clone(index), cfg),
        }
    }

    pub fn submitter(&self) -> Submitter {
        Submitter(self.inner.handle())
    }

    pub fn tracer(&self) -> Option<Arc<Recorder>> {
        self.inner.trace().cloned()
    }

    /// Render the Prometheus exposition (`None` with metrics off).
    pub fn scrape(&self) -> Option<String> {
        self.inner.scrape()
    }

    /// Drain, join every thread, release the index's write fence.
    pub fn shutdown(self) -> ServiceCounts {
        counts_of(self.inner.shutdown())
    }
}

fn counts_of(s: gts::service::ServiceStats) -> ServiceCounts {
    ServiceCounts {
        admitted: s.admitted,
        rejected: s.rejected,
        batches: s.batches,
        size_flushes: s.size_flushes,
        deadline_flushes: s.deadline_flushes,
        failed: s.failed,
        retries: s.retries,
        degraded_calls: s.degraded_calls,
        update_batches: s.update_batches,
        epoch: s.epoch,
        lane_batches: s.lane_batches,
    }
}
