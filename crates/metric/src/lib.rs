//! # metric-space
//!
//! Metric-space substrate for the GTS reproduction (SIGMOD 2024,
//! arXiv:2404.00966). A *metric space* is a pair `(M, d)` where `d` is a
//! distance satisfying symmetry, non-negativity, identity, and the triangle
//! inequality (paper §3). This crate provides everything the indexes above it
//! need and nothing GPU-specific:
//!
//! * [`Metric`] — the distance-metric trait, with per-call *work* accounting
//!   (work units ≈ arithmetic operations) used by the simulated cost models;
//! * [`Item`]/[`ItemMetric`] — a dynamic object/metric pair covering the five
//!   evaluation datasets (strings under edit distance, vectors under L1 / L2 /
//!   angular-cosine distance);
//! * [`ObjectArena`]/[`BatchMetric`] — the flat object arena (contiguous
//!   payload buffers + offsets) and the batched distance-kernel layer the
//!   index hot paths launch one level at a time, with an early-abandoning
//!   variant for bounded verification (edit distance runs one bit-parallel
//!   kernel, [`dist::EditPattern`], built once per query);
//! * [`Dataset`] and [`gen`] — seeded synthetic generators mirroring the
//!   paper's Words, T-Loc, Vector, DNA, and Color datasets (Table 2);
//! * [`SimilarityIndex`] — the query interface shared by GTS and every
//!   baseline (metric range query MRQ, Def. 3.1; metric kNN query MkNNQ,
//!   Def. 3.2), with [`TopK`], the exact top-`k` pool every kNN path
//!   selects through;
//! * [`Partitioner`] — deterministic id→shard assignment (round-robin or
//!   multiplicative hash) used by the multi-device sharded index;
//! * [`pivot`] — farthest-first-traversal (FFT) pivot selection;
//! * [`lemmas`] — the triangle-inequality pruning predicates of Lemmas 5.1
//!   and 5.2;
//! * [`stats`] — sampled query workloads and the selectivity radius that
//!   turns the paper's "r × 0.01%" axis into an absolute radius.

#![warn(missing_docs)]
pub mod arena;
pub mod batch;
pub mod dataset;
pub mod dist;
pub mod gen;
pub mod index;
pub mod lemmas;
pub mod object;
pub mod partition;
pub mod pivot;
pub mod stats;

pub use arena::{ArenaKind, ObjectArena};
pub use batch::{chunk_pairs, BatchChunk, BatchMetric};
pub use dataset::{Dataset, DatasetKind};
pub use dist::{EditDistance, ItemMetric, Metric, VectorMetric};
pub use index::{DynamicIndex, IndexError, Neighbor, SimilarityIndex, TopK};
pub use object::{Footprint, Item};
pub use partition::Partitioner;

/// Identifier of an object inside a dataset (index into `Dataset::items`).
pub type ObjId = u32;
