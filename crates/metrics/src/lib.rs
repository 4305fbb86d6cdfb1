//! `gts-metrics`: the typed metric snapshot and its Prometheus text
//! exposition, behind the serving stack's aggregate observability.
//!
//! Where `gts-trace` answers *what happened to one request*, this crate
//! answers the aggregate questions a production service is run by: how
//! busy each device is, how long requests queue, and whether the cost
//! model's predictions track reality. The contract mirrors tracing:
//!
//! * **Observation is free of semantic cost** — a snapshot is built from
//!   counters and clocks the stack already keeps; nothing records on a hot
//!   path, so metrics on/off changes no answer, epoch, or simulated cycle
//!   count.
//! * **Exposition is deterministic** — families sort by name, series by
//!   label set with `stage` labels in the trace pipeline's canonical
//!   [`gts_trace::STAGE_ORDER`], and values in the cycle domain reproduce
//!   exactly for a fixed seed.
//!
//! One export path: [`render_prometheus`] (text exposition 0.0.4,
//! parse-back checked by [`parse_prometheus`]). Histograms are
//! [`gts_trace::LatencyHistogram`]s, so scraped quantiles agree with the
//! trace summary and service stats views of the same samples.
#![warn(missing_docs)]

pub mod expo;
pub mod registry;

pub use expo::{parse_prometheus, render_prometheus, PromSample};
pub use registry::{FamilySnapshot, MetricKind, MetricsSnapshot, SeriesSnapshot, SeriesValue};
