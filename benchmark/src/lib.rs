//! Wall-clock benchmark of the GTS reproduction. See `README.md`.

pub mod compare;
pub mod data;
pub mod json;
pub mod layers;
pub mod loadgen;
pub mod oracle;
pub mod report;
pub mod spans;
pub mod stats;
pub mod sut;
pub mod workloads;
