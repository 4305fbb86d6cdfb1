//! # baselines
//!
//! Every method the GTS paper compares against (§6.1), re-implemented from
//! the cited algorithms and instrumented with the same cost models as GTS so
//! head-to-head shapes are meaningful:
//!
//! | Method | Kind | Source | Notes |
//! |---|---|---|---|
//! | [`LinearScan`] | CPU | — | ground truth for tests |
//! | [`Bst`] | CPU | Kalantari & McDonald \[32\] | bisector tree |
//! | [`Mvpt`] | CPU | Bozkaya & Özsoyoglu \[9,10\] | "most efficient CPU metric index" |
//! | [`Egnat`] | CPU | Navarro & Uribe \[44,48\] | GNAT ranges; memory-hungry |
//! | [`GpuTable`] | GPU | \[6,23,30\] | all-pairs distance table + Dr.Top-k |
//! | [`GpuTree`] | GPU | G-PICS \[38\] | multi-tree, fixed blocks, deadlock-prone |
//! | [`LbpgTree`] | GPU | LBPG \[36\] | STR R-tree; Lp-norm vector data only |
//! | [`Ganns`] | GPU | GANNS \[58\] | kNN-graph beam search; approximate, vector-only |
//!
//! The exact tree baselines ([`Bst`], [`Mvpt`], [`Egnat`], [`GpuTree`]) keep
//! their running kNN answers in [`metric_space::TopK`], the pool GTS's own
//! descent and shard merge select through: one `(distance, id)` tie-break
//! and one k-th-distance bound for every exact method. [`LinearScan`] sorts
//! and truncates instead (it is the oracle the pool is tested against),
//! [`GpuTable`] charges the Dr.Top-k device primitive, and [`Ganns`]'s beam
//! is approximate.
//!
//! CPU methods charge a [`gpu_sim::CpuClock`] (sequential work); GPU methods
//! charge the shared [`gpu_sim::Device`]. The [`Clocked`] trait exposes
//! simulated time uniformly to the experiment harness.
//!
//! **Where this sits in the arena/batch/launch stack:** [`LinearScan`],
//! [`GpuTable`] and [`GpuTree`] resolve payloads from the flat
//! [`metric_space::ObjectArena`] and evaluate distances with the batched
//! [`metric_space::BatchMetric`] kernels, launched once per batch through
//! `Device::launch_batch` like GTS's hot paths; the other baselines
//! evaluate distances per pair through [`metric_space::Metric`] and charge
//! their clocks directly. Simulated-cycle comparisons are unaffected: a
//! batched launch charges the same total, span and warp padding as the
//! per-pair grid it replaces, and the arena and host-parallel layers are
//! wall-clock optimisations only.

#![warn(missing_docs)]
pub mod bst;
pub mod clock;
pub mod egnat;
pub mod ganns;
pub mod gpu_table;
pub mod gpu_tree;
pub mod lbpg;
pub mod linear;
pub mod mvpt;

pub use bst::Bst;
pub use clock::Clocked;
pub use egnat::Egnat;
pub use ganns::Ganns;
pub use gpu_table::GpuTable;
pub use gpu_tree::GpuTree;
pub use lbpg::LbpgTree;
pub use linear::LinearScan;
pub use mvpt::Mvpt;
