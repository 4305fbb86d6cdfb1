//! # gts — GPU-based Tree Index for Fast Similarity Search
//!
//! Facade crate of the reproduction of *Zhu, Ma, Zheng, Ke, Chen, Gao.
//! "GTS: GPU-based Tree Index for Fast Similarity Search", SIGMOD 2024*
//! (arXiv:2404.00966). It re-exports the whole system:
//!
//! * [`gts_core`] (as `core`) — the GTS index itself: pivot-based tree stored in
//!   flat device tables, level-synchronous construction, two-stage batched
//!   MRQ/MkNNQ, cache-table updates, §5.3 cost model;
//! * [`metric`](metric_space) — metric-space substrate: objects, metrics
//!   (edit / L1 / L2 / angular), dataset generators, pruning lemmas;
//! * [`gpu`](gpu_sim) — the deterministic SIMT device model (work–span
//!   clock, memory allocator, parallel primitives);
//! * [`service`] — the online query service: a bounded
//!   admission queue plus a microbatcher that coalesces
//!   individual requests into the batches the index is built for, and its
//!   Prometheus scrape, a view of the stats ledger and the device clocks;
//! * [`trace`] — end-to-end tracing: per-request spans from
//!   admission to kernel launch, Chrome-trace export, and a fault-triggered
//!   flight recorder;
//! * [`baselines`] — every comparator of the paper's evaluation.
//!
//! ## Quickstart
//!
//! ```
//! use gts::prelude::*;
//!
//! // A metric dataset: strings under edit distance.
//! let data = DatasetKind::Words.generate(2_000, 7);
//! let device = Device::rtx_2080_ti();
//! let index = Gts::build(&device, data.items.clone(), data.metric, GtsParams::default())
//!     .expect("construction");
//!
//! // Batched metric range query (Definition 3.1).
//! let queries = vec![data.items[0].clone(), data.items[1].clone()];
//! let answers = index.batch_range(&queries, &[1.0, 1.0]).expect("search");
//! assert!(answers[0].iter().any(|n| n.id == 0));
//!
//! // Batched metric kNN query (Definition 3.2).
//! let knn = index.batch_knn(&queries, 5).expect("search");
//! assert_eq!(knn[0].len(), 5);
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios, `README.md` for the
//! architecture and `REPORT.md` for the measurements.

#![warn(missing_docs)]
pub use baselines;
pub use gpu_sim as gpu;
pub use gts_core as core;
pub use gts_service as service;
pub use gts_trace as trace;
pub use metric_space as metric;

/// Everything most programs need.
pub mod prelude {
    pub use baselines::{Bst, Egnat, Ganns, GpuTable, GpuTree, LbpgTree, LinearScan, Mvpt};
    pub use gpu_sim::{Device, DeviceConfig, DevicePool, FaultKind, FaultPlan};
    pub use gts_core::{
        Applied, CostModel, Gts, GtsParams, ReplicaError, ReplicatedShards, ShardedGts, UpdateOp,
    };
    pub use gts_service::metrics::{parse_prometheus, PromSample};
    pub use gts_service::{
        FlushTrigger, LatencyBreakdown, QueryService, Reply, Request, Response, ServiceConfig,
        ServiceError, ServiceStats, SubmitHandle, Ticket, UpdateAck,
    };
    pub use gts_trace::{
        validate_chrome_trace, DumpReason, EventKind, FlightDump, LatencyHistogram, RequestId,
        TraceConfig, TraceEvent, TraceRecorder, TraceSummary,
    };
    pub use metric_space::index::{DynamicIndex, Neighbor, SimilarityIndex};
    pub use metric_space::{Dataset, DatasetKind, Item, ItemMetric, Partitioner};
}
