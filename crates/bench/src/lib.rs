//! # gts-bench
//!
//! The experiment harness that regenerates **every table and figure** of the
//! GTS paper's evaluation (§6) on the simulated device, plus the ablations
//! of `experiments::ablations`. The `experiments` binary runs them all and
//! writes `results/*.csv` + a combined markdown report.
//!
//! Scaling: cardinalities, device memory, and the EGNAT host budget all
//! shrink by `GTS_SCALE` (default 0.01 = 1/100 of the paper) so the full
//! suite completes on a laptop while preserving the paper's comparative
//! shapes — who wins, by what factor, and where the OOM crossovers fall.
//!
//! Beyond the paper's figures, two benches record what has no wall-clock
//! successor in the workspace's `benchmark/` package (tables and
//! methodology in `REPORT.md`): `dist_kernels` (flat-arena batched kernels
//! vs the per-pair path, → `BENCH_dist_kernels.json`) and `shard_scaling`
//! (simulated span vs shard count, → `BENCH_shard.json`).

#![warn(missing_docs)]
pub mod config;
pub mod experiments;
pub mod methods;
pub mod report;
pub mod workload;

pub use config::Config;
pub use methods::{AnyIndex, Method};
pub use report::Table;
