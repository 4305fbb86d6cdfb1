//! Device-wide parallel primitives.
//!
//! Results are computed exactly on the host; costs are charged to the device
//! clock using the models the paper cites: a global sort of `n` keys costs
//! `O(⌈n/C⌉·log₂ n)` (\[30\], used in §4.5's construction analysis), reductions
//! and scans cost linear work with logarithmic span, and Dr.Top-k \[23\] is
//! delegate-centric (per-chunk local top-k, then a final pass over
//! delegates).

pub mod compact;
pub mod reduce;
pub mod sort;
pub mod topk;

pub use compact::compact_indices;
pub use reduce::reduce_max_f64;
pub use sort::{encode_f64_key, sort_pairs_by_key};
pub use topk::top_k_min;
