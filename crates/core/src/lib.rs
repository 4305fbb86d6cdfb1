//! # gts-core
//!
//! The paper's primary contribution: **GTS, a GPU-based tree index for fast
//! similarity search in general metric spaces** (SIGMOD 2024,
//! arXiv:2404.00966), built on the [`gpu_sim`] device model.
//!
//! ## Structure (paper §4.2, Fig. 3)
//! A balanced pivot-based tree is stored in two flat, contiguous device
//! structures:
//! * the **node list** — all tree nodes, linearly linked, ids following the
//!   full `Nc`-ary numbering `child_j(i) = (i−1)·Nc + j + 1` (Eq. 1), so an
//!   entire level occupies one contiguous id range;
//! * the **table list** — the leaf-level object partitioning: for every
//!   object, its id and its distance to the pivot of its leaf's parent,
//!   sorted so each node's objects are contiguous and ascending.
//!
//! ## Construction (paper §4.3, Alg. 1–3)
//! Level-synchronous and fully parallel: one *mapping* kernel selects pivots
//! (FFT) and computes all object→pivot distances of a level at once; one
//! *partitioning* pass encodes `dis' = node_rank + dis/(max+1)`, runs a
//! single **global sort**, and splits every node into `Nc` children — no
//! per-node serial work anywhere.
//!
//! ## Search (paper §5, Alg. 4–5)
//! Batched MRQ and MkNNQ traverse the tree top-down, level-synchronously,
//! pruning with the triangle-inequality lemmas. The **two-stage strategy**
//! bounds intermediate-result memory by `size_GPU / ((h − layer + 1)·Nc)`;
//! when a batch would exceed it, queries are split into groups processed
//! sequentially — memory deadlocks (which kill GPU-Tree at 512 queries in
//! Fig. 9) cannot occur.
//!
//! ## Updates (paper §4.4)
//! Streaming inserts land in an LSM-style **cache table** searched by brute
//! force alongside the index; deletions are tombstoned in the table list.
//! When the cache exceeds its size bound — or on explicit batch updates —
//! the whole index is rebuilt with the parallel constructor (`O(log³ n)`
//! simulated time).
//!
//! ## Sharding (beyond the paper)
//! [`ShardedGts`] partitions the dataset across multiple devices with a
//! deterministic [`Partitioner`](metric_space::Partitioner), scatters
//! batched queries to every shard concurrently, and merges the per-shard
//! answers exactly — bit-identical to the single-device index, ties
//! included. Updates route to the owning shard, so an overflow rebuilds
//! one shard while the other devices' clocks never move.
//!
//! Search itself is one recursive level-synchronous **descent** (`engine`,
//! crate-internal): from the root frontier to the last verified leaf, with
//! oversized frontiers split into query groups that descend in turn; each
//! shard runs its own.

#![warn(missing_docs)]
pub mod build;
pub mod cost;
mod dispatch;
pub(crate) mod engine;
pub mod index;
pub mod multi;
pub mod node;
pub mod params;
pub mod replica;
pub mod search;
pub mod shard;
pub mod snapshot;
pub mod stats;
pub mod table;
#[cfg(test)]
mod test_metric;
pub mod update;

pub use cost::CostModel;
pub use dispatch::QUERY_CHUNK;
pub use index::Gts;
pub use multi::MultiGts;
pub use params::GtsParams;
pub use replica::{ReplicaError, ReplicatedShards};
pub use shard::{Applied, ShardedGts, UpdateOp};
pub use stats::{ReplicaStats, SearchStats, StatsSnapshot};
