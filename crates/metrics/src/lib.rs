//! `gts-metrics`: the lock-cheap typed metrics registry behind the
//! serving stack's aggregate observability.
//!
//! Where `gts-trace` answers *what happened to one request*, this crate
//! answers the aggregate questions a production service is run by: how
//! busy each device is, where queue time goes per client, and whether the
//! cost model's predictions track reality. The contract mirrors tracing:
//!
//! * **Observation is free of semantic cost** — metrics read clocks and
//!   counters, never advance them, so metrics on/off changes no answer,
//!   epoch, or simulated cycle count.
//! * **Off means absent** — a registry that exists records; the service
//!   switches metrics off by not creating one, so the disabled path is the
//!   path every unmetered run already takes.
//! * **Exposition is deterministic** — families sort by name, series by
//!   label set with `stage` labels in the trace pipeline's canonical
//!   [`gts_trace::STAGE_ORDER`], and values in the cycle domain reproduce
//!   exactly for a fixed seed.
//!
//! One export path: [`MetricsRegistry::render_prometheus`] (text
//! exposition 0.0.4, parse-back checked by [`expo::parse_prometheus`]).
//! Histograms reuse
//! [`gts_trace::LatencyHistogram`], so scraped quantiles agree with the
//! trace summary and service stats views of the same samples.
#![warn(missing_docs)]

pub mod expo;
pub mod registry;

pub use expo::{parse_prometheus, render_prometheus, PromSample};
pub use registry::{
    Counter, FamilySnapshot, Gauge, Histogram, MetricKind, MetricsRegistry, MetricsSnapshot,
    SeriesSnapshot, SeriesValue,
};
