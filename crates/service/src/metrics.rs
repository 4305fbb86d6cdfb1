//! The service's Prometheus exposition, as a view: [`exposition`] renders
//! every family the serving stack exports from state the stack already
//! keeps — the [`ServiceStats`] ledger, the pool's per-device
//! [`DeviceUtilization`]s, and the trace recorder's [`TraceSummary`] when
//! tracing is on. Nothing is recorded on a hot path, and each scrape builds
//! a fresh snapshot, so two scrapes of an idle service are byte-identical by
//! construction.
//!
//! Like tracing, metrics **observe** the simulated clocks and never
//! advance them: metrics on or off changes no answer, epoch, or cycle
//! count (asserted in `tests/metrics_invariance.rs`).

use crate::stats::ServiceStats;
use gpu_sim::DeviceUtilization;
use gts_metrics::MetricsSnapshot;
use gts_trace::TraceSummary;

/// Build the exposition snapshot. `devices` are indexed globally and
/// replica-major — the numbering the trace recorder uses for track ids —
/// and their components partition each device clock exactly:
/// `busy + transfer + stall + idle == span`.
pub(crate) fn exposition(
    stats: &ServiceStats,
    devices: &[DeviceUtilization],
    stages: Option<TraceSummary>,
) -> MetricsSnapshot {
    let mut m = MetricsSnapshot::default();
    m.counter(
        "gts_requests_admitted_total",
        "requests accepted into the admission queue",
        &[],
        stats.admitted,
    )
    .counter(
        "gts_requests_rejected_total",
        "requests rejected by admission backpressure",
        &[],
        stats.rejected,
    )
    .counter(
        "gts_requests_served_total",
        "responses produced for submitted requests",
        &[],
        stats.completed,
    )
    .counter(
        "gts_requests_failed_total",
        "requests answered with a typed error",
        &[],
        stats.failed,
    )
    .histogram(
        "gts_queue_wait_microseconds",
        "host microseconds requests spent in the admission queue",
        &[],
        stats.queue_wait_us.clone(),
    )
    .histogram(
        "gts_batch_span_cycles",
        "simulated device cycles per executed sub-batch",
        &[],
        stats.batch_span_cycles.clone(),
    )
    .gauge(
        "gts_epoch",
        "updates serialized since the index was built",
        &[],
        stats.epoch,
    );
    for (trigger, n) in [
        ("idle", stats.idle_flushes),
        ("size", stats.size_flushes),
        ("deadline", stats.deadline_flushes),
        ("shutdown", stats.shutdown_flushes),
    ] {
        m.counter(
            "gts_batches_total",
            "batches flushed by the microbatcher, by trigger",
            &[("trigger", trigger)],
            n,
        );
    }
    for (dev, u) in devices.iter().enumerate() {
        let dev = dev.to_string();
        let labels: &[(&str, &str)] = &[("device", dev.as_str())];
        m.gauge(
            "gts_device_busy_cycles",
            "cycles the device spent executing kernels",
            labels,
            u.busy_cycles,
        )
        .gauge(
            "gts_device_transfer_cycles",
            "cycles the device spent on H2D/D2H transfers",
            labels,
            u.transfer_cycles,
        )
        .gauge(
            "gts_device_stall_cycles",
            "cycles the device idled at lockstep barriers",
            labels,
            u.stall_cycles,
        )
        .gauge(
            "gts_device_idle_cycles",
            "cycles behind the pool-wide span (untouched tail)",
            labels,
            u.idle_cycles,
        )
        .gauge(
            "gts_device_span_cycles",
            "the pool-wide span the components are measured against",
            labels,
            u.span_cycles,
        )
        .gauge(
            "gts_device_peak_allocated_bytes",
            "device-memory high-water mark",
            labels,
            u.peak_allocated,
        );
    }
    for (stage, hist) in stages.into_iter().flat_map(|s| s.stages) {
        m.histogram(
            "gts_stage_cycles",
            "simulated span cycles per pipeline stage",
            &[("stage", stage)],
            hist,
        );
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_counters_are_read_not_accumulated() {
        let stats = ServiceStats {
            admitted: 5,
            completed: 4,
            failed: 1,
            idle_flushes: 3,
            deadline_flushes: 2,
            ..ServiceStats::default()
        };
        let render = || gts_metrics::render_prometheus(&exposition(&stats, &[], None));
        let once = render();
        assert_eq!(render(), once, "a view of the same state renders the same");
        for line in [
            "gts_requests_admitted_total 5",
            "gts_requests_rejected_total 0",
            "gts_requests_served_total 4",
            "gts_requests_failed_total 1",
            "gts_batches_total{trigger=\"deadline\"} 2",
            "gts_batches_total{trigger=\"idle\"} 3",
            "gts_batches_total{trigger=\"size\"} 0",
        ] {
            assert!(once.contains(&format!("{line}\n")), "{line} in\n{once}");
        }
    }
}
