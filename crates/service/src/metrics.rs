//! [`MetricsHub`]: the service's metrics surface — one
//! [`MetricsRegistry`] owning every family the serving stack exports,
//! with per-client request accounting, batch/flush counters, per-device
//! utilization gauges, and the cost-model audit's calibration histogram.
//!
//! Two kinds of family live here:
//!
//! * **Incremental** — bumped on the hot path as requests flow
//!   (per-client admitted/rejected/served/failed counters, per-client
//!   queue-wait histograms, flush-trigger counters, batch-span
//!   histograms). Off means absent, same contract as tracing: the
//!   service holds no hub and every call site sees `None`.
//! * **Refreshed** — re-read from cumulative sources at scrape time and
//!   written idempotently (`Gauge::set`, `Histogram::replace`): device
//!   utilization, the cost-model audit, the epoch, and the per-stage
//!   trace summary. Two scrapes of an idle service are byte-identical.
//!
//! Like tracing, metrics **observe** the simulated clocks and never
//! advance them: enabling the hub changes no answer, epoch, or cycle
//! count (asserted in `tests/metrics_invariance.rs`).

use crate::api::FlushTrigger;
use gpu_sim::DeviceUtilization;
use gts_core::CostAuditSnapshot;
use gts_metrics::MetricsRegistry;
use gts_trace::TraceSummary;

/// The service's metrics registry plus the pre-registered handles of its
/// unlabelled hot-path families. Per-client series are minted on demand
/// (registration is idempotent), so the client cardinality is whatever
/// the callers present.
#[derive(Default)]
pub struct MetricsHub {
    registry: MetricsRegistry,
}

/// The client id [`SubmitHandle::submit`](crate::SubmitHandle::submit)
/// accounts under; [`SubmitHandle::submit_as`](crate::SubmitHandle::submit_as)
/// overrides it per call.
pub const DEFAULT_CLIENT: &str = "default";

impl MetricsHub {
    /// Create a hub over an empty registry.
    pub fn new() -> Self {
        MetricsHub::default()
    }

    /// The underlying registry (for direct snapshots).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Render the Prometheus text exposition of everything recorded.
    pub fn render_prometheus(&self) -> String {
        self.registry.render_prometheus()
    }

    // ---- incremental (hot path) ----------------------------------------

    /// One request admitted for `client`.
    pub(crate) fn client_admitted(&self, client: &str) {
        self.registry
            .counter(
                "gts_requests_admitted_total",
                "requests accepted into the admission queue",
                &[("client", client)],
            )
            .inc();
    }

    /// One request rejected by backpressure for `client`.
    pub(crate) fn client_rejected(&self, client: &str) {
        self.registry
            .counter(
                "gts_requests_rejected_total",
                "requests rejected by admission backpressure",
                &[("client", client)],
            )
            .inc();
    }

    /// One response produced for `client` (errors included — every
    /// answered request counts; matches `ServiceStats::completed` for
    /// clients that keep their tickets). Counted just before the send so
    /// a client scraping after `Ticket::wait` returns always sees itself.
    pub(crate) fn client_served(&self, client: &str) {
        self.registry
            .counter(
                "gts_requests_served_total",
                "responses produced for submitted requests",
                &[("client", client)],
            )
            .inc();
    }

    /// One error response produced for `client`.
    pub(crate) fn client_failed(&self, client: &str) {
        self.registry
            .counter(
                "gts_requests_failed_total",
                "requests answered with a typed error",
                &[("client", client)],
            )
            .inc();
    }

    /// Queue wait of one request of `client`, stamped at flush time.
    pub(crate) fn queue_wait(&self, client: &str, us: u64) {
        self.registry
            .histogram(
                "gts_queue_wait_microseconds",
                "host microseconds requests spent in the admission queue",
                &[("client", client)],
            )
            .record(us);
    }

    /// One batch flushed by `trigger`.
    pub(crate) fn batch_flushed(&self, trigger: FlushTrigger) {
        let t = match trigger {
            FlushTrigger::Size => "size",
            FlushTrigger::Deadline => "deadline",
            FlushTrigger::Shutdown => "shutdown",
        };
        self.registry
            .counter(
                "gts_batches_total",
                "batches flushed by the microbatcher, by trigger",
                &[("trigger", t)],
            )
            .inc();
    }

    /// Simulated span cycles one executed sub-batch added to its lane's
    /// critical path.
    pub(crate) fn batch_span(&self, cycles: u64) {
        self.registry
            .histogram(
                "gts_batch_span_cycles",
                "simulated device cycles per executed sub-batch",
                &[],
            )
            .record(cycles);
    }

    // ---- refreshed (scrape time, idempotent) ---------------------------

    /// Refresh the epoch gauge.
    pub(crate) fn set_epoch(&self, epoch: u64) {
        self.registry
            .gauge(
                "gts_epoch",
                "updates serialized since the index was built",
                &[],
            )
            .set(epoch);
    }

    /// Refresh one device's utilization gauges. `device` is the global
    /// device index (replica-major, matching the trace recorder's track
    /// ids); the components partition the device clock exactly:
    /// `busy + transfer + stall + idle == span` for every device.
    pub(crate) fn set_device_utilization(&self, device: usize, u: &DeviceUtilization) {
        let dev = device.to_string();
        let labels: &[(&str, &str)] = &[("device", dev.as_str())];
        let set = |name: &str, help: &str, v: u64| {
            self.registry.gauge(name, help, labels).set(v);
        };
        set(
            "gts_device_busy_cycles",
            "cycles the device spent executing kernels",
            u.busy_cycles,
        );
        set(
            "gts_device_transfer_cycles",
            "cycles the device spent on H2D/D2H transfers",
            u.transfer_cycles,
        );
        set(
            "gts_device_stall_cycles",
            "cycles the device idled at lockstep barriers",
            u.stall_cycles,
        );
        set(
            "gts_device_idle_cycles",
            "cycles behind the pool-wide span (untouched tail)",
            u.idle_cycles,
        );
        set(
            "gts_device_span_cycles",
            "the pool-wide span the components are measured against",
            u.span_cycles,
        );
        set(
            "gts_device_peak_allocated_bytes",
            "device-memory high-water mark",
            u.peak_allocated,
        );
    }

    /// Refresh the cost-model audit families from a (possibly folded)
    /// snapshot. Gauges are set, the calibration histogram is replaced —
    /// both idempotent, so repeated scrapes of quiescent state agree.
    pub(crate) fn set_cost_audit(&self, snap: &CostAuditSnapshot) {
        let set = |name: &str, help: &str, v: u64| {
            self.registry.gauge(name, help, &[]).set(v);
        };
        set(
            "gts_cost_predicted_batch",
            "batch size the cost model admitted (min across shards)",
            snap.predicted_batch as u64,
        );
        set(
            "gts_cost_predicted_peak_bytes",
            "predicted peak intermediate-buffer bytes for that batch",
            snap.predicted_peak_bytes,
        );
        set(
            "gts_cost_levels_observed",
            "per-level audit observations recorded",
            snap.levels_observed,
        );
        set(
            "gts_cost_levels_overpredicted",
            "levels where pruning beat the Chebyshev estimate",
            snap.overpredicted,
        );
        set(
            "gts_cost_levels_underpredicted",
            "levels where survivors exceeded the estimate",
            snap.underpredicted,
        );
        set(
            "gts_cost_peak_frontier_bytes",
            "largest intermediate expansion buffer actually allocated",
            snap.peak_frontier_bytes,
        );
        self.registry
            .histogram(
                "gts_cost_calibration_pct",
                "100*observed/predicted frontier entries per level step",
                &[],
            )
            .replace(&snap.calibration_pct);
    }

    /// Refresh the per-stage span histograms from a trace summary. Series
    /// follow the canonical [`gts_trace::STAGE_ORDER`] in the exposition
    /// — the same order `TraceSummary::to_table` prints.
    pub(crate) fn set_stage_summary(&self, summary: &TraceSummary) {
        for (stage, hist) in &summary.stages {
            self.registry
                .histogram(
                    "gts_stage_cycles",
                    "simulated span cycles per pipeline stage",
                    &[("stage", stage)],
                )
                .replace(hist);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_client_series_accumulate_independently() {
        let hub = MetricsHub::new();
        hub.client_admitted("alice");
        hub.client_admitted("alice");
        hub.client_admitted("bob");
        hub.client_rejected("bob");
        hub.queue_wait("alice", 120);
        let text = hub.render_prometheus();
        assert!(text.contains("gts_requests_admitted_total{client=\"alice\"} 2"));
        assert!(text.contains("gts_requests_admitted_total{client=\"bob\"} 1"));
        assert!(text.contains("gts_requests_rejected_total{client=\"bob\"} 1"));
        assert!(text.contains("gts_queue_wait_microseconds_count{client=\"alice\"} 1"));
    }

    #[test]
    fn refreshed_families_are_idempotent() {
        let hub = MetricsHub::new();
        let snap = CostAuditSnapshot {
            predicted_batch: 64,
            levels_observed: 3,
            ..CostAuditSnapshot::default()
        };
        hub.set_cost_audit(&snap);
        let once = hub.render_prometheus();
        hub.set_cost_audit(&snap);
        hub.set_cost_audit(&snap);
        assert_eq!(hub.render_prometheus(), once, "refresh is not accumulation");
        assert!(once.contains("gts_cost_predicted_batch 64"));
    }
}
