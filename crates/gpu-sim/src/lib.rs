//! # gpu-sim
//!
//! A deterministic software model of a CUDA-class GPU, substituting for the
//! RTX 2080 Ti the GTS paper evaluates on (§6). Rust-CUDA tooling
//! is immature, so kernels execute on the host (optionally with real
//! threads), while *scheduling and cost* are modelled as on the device:
//!
//! * **Work–span clock** — a kernel that performs total work `W` (scalar-op
//!   units) with critical path `S` advances the device clock by
//!   `max(⌈W / cores⌉, S) + launch overhead` cycles (Brent's theorem). This
//!   is exactly the `⌈n/C⌉`-style accounting the paper uses in §4.5/§5.3.
//! * **Global-memory allocator** — every [`Reservation`] draws from a
//!   hard capacity; exhaustion returns
//!   [`GpuError::OutOfMemory`], reproducing the paper's observed OOMs and
//!   memory deadlocks (Table 4, Fig. 9, Fig. 11). A `GpuError` converts
//!   into the indexes' [`IndexError`](metric_space::IndexError), so index
//!   code propagates device errors with `?`.
//! * **Transfer accounting** — H2D/D2H bytes advance the clock at PCIe-like
//!   bandwidth (queries are loaded CPU→GPU and results returned, §5.1).
//! * **Parallel primitives** — reduction, exclusive scan, stream compaction,
//!   the *global radix sort over encoded f64 keys* at the heart of GTS
//!   partitioning (Alg. 3), and the delegate-centric top-k of Dr.Top-k used
//!   by the GPU-Table baseline.
//!
//! Determinism: given the same inputs, every kernel produces bit-identical
//! results and identical simulated cycle counts regardless of how many host
//! threads execute it.

#![warn(missing_docs)]
pub mod config;
pub mod cpu;
pub mod device;
pub mod error;
pub mod exec;
pub mod fault;
pub mod pool;
pub mod primitives;

pub use config::DeviceConfig;
pub use cpu::CpuClock;
pub use device::{Device, DeviceStats, Reservation};
pub use error::GpuError;
pub use fault::{DeviceFault, FaultKind, FaultPlan, FaultSpec};
pub use pool::{DevicePool, PoolStats};
