//! The service's Prometheus text exposition (format 0.0.4), in both
//! directions.
//!
//! The crate-private `exposition` writes the text that
//! [`QueryService::scrape`](crate::QueryService::scrape) and
//! [`ServiceStats::metrics`] return. It reads state the stack already
//! keeps: the [`ServiceStats`] ledger, each replica pool's per-device
//! [`DeviceStats`], and the trace recorder's [`TraceSummary`] when tracing
//! is on. [`parse_prometheus`] reads the text back into [`PromSample`]s for
//! the conformance tests and the scrape example.
//!
//! The layout is fixed here and nowhere else: families in name order, one
//! `# HELP`/`# TYPE` pair each before its samples, device series in ordinal
//! order, `stage` series in [`STAGE_ORDER`]. Every label value is a program
//! constant — a flush trigger, a device ordinal, an
//! [`EventKind::name`](gts_trace::EventKind::name) — so nothing is escaped.
//! Nothing is recorded on a hot path, and each scrape writes fresh text, so
//! two scrapes of an idle service are byte-identical by construction.
//!
//! Like tracing, metrics **observe** the simulated clocks and never
//! advance them: metrics on or off changes no answer, epoch, or cycle
//! count (asserted in `tests/metrics_invariance.rs`).

use crate::stats::ServiceStats;
use gpu_sim::DeviceStats;
use gts_trace::{LatencyHistogram, TraceSummary, STAGE_ORDER};
use std::fmt::Write as _;

/// Per-device gauges, in family-name order: name, help, and the value read
/// from a device's counters and its replica's span.
type DeviceGauge = (&'static str, &'static str, fn(&DeviceStats, u64) -> u64);
const DEVICE_GAUGES: [DeviceGauge; 6] = [
    (
        "gts_device_busy_cycles",
        "cycles the device spent executing kernels",
        |d, _| d.busy_cycles,
    ),
    (
        "gts_device_idle_cycles",
        "cycles behind the pool-wide span (untouched tail)",
        |d, span| span - d.cycles,
    ),
    (
        "gts_device_peak_allocated_bytes",
        "device-memory high-water mark",
        |d, _| d.peak_allocated,
    ),
    (
        "gts_device_span_cycles",
        "the pool-wide span the components are measured against",
        |_, span| span,
    ),
    (
        "gts_device_stall_cycles",
        "cycles the device idled at lockstep barriers",
        |d, _| d.stall_cycles,
    ),
    (
        "gts_device_transfer_cycles",
        "cycles the device spent on H2D/D2H transfers",
        |d, _| d.transfer_cycles,
    ),
];

/// Write the exposition text. `replicas` holds each replica pool's device
/// counters in replica order; devices are numbered globally and
/// replica-major — the numbering the trace recorder uses for track ids.
/// A device's idle cycles are its replica's span (the slowest device of
/// that pool) minus its own clock, so for every device
/// `busy + transfer + stall + idle == span`.
pub(crate) fn exposition(
    stats: &ServiceStats,
    replicas: &[Vec<DeviceStats>],
    stages: Option<&TraceSummary>,
) -> String {
    let mut out = String::new();
    let o = &mut out;
    header(
        o,
        "gts_batch_span_cycles",
        "histogram",
        "simulated device cycles per executed sub-batch",
    );
    histogram(o, "gts_batch_span_cycles", "", &stats.batch_span_cycles);
    header(
        o,
        "gts_batches_total",
        "counter",
        "batches flushed by the microbatcher, by trigger",
    );
    for (trigger, n) in [
        ("deadline", stats.deadline_flushes),
        ("idle", stats.idle_flushes),
        ("shutdown", stats.shutdown_flushes),
        ("size", stats.size_flushes),
    ] {
        sample(o, "gts_batches_total", &format!("trigger=\"{trigger}\""), n);
    }
    let devices: Vec<(&DeviceStats, u64)> = replicas
        .iter()
        .flat_map(|pool| {
            let span = pool.iter().map(|d| d.cycles).max().unwrap_or(0);
            pool.iter().map(move |d| (d, span))
        })
        .collect();
    for (name, help, value) in DEVICE_GAUGES {
        header(o, name, "gauge", help);
        for (i, &(d, span)) in devices.iter().enumerate() {
            sample(o, name, &format!("device=\"{i}\""), value(d, span));
        }
    }
    header(
        o,
        "gts_epoch",
        "gauge",
        "updates serialized since the index was built",
    );
    sample(o, "gts_epoch", "", stats.epoch);
    header(
        o,
        "gts_queue_wait_microseconds",
        "histogram",
        "host microseconds requests spent in the admission queue",
    );
    histogram(o, "gts_queue_wait_microseconds", "", &stats.queue_wait_us);
    for (name, help, value) in [
        (
            "gts_requests_admitted_total",
            "requests accepted into the admission queue",
            stats.admitted,
        ),
        (
            "gts_requests_failed_total",
            "requests answered with a typed error",
            stats.failed,
        ),
        (
            "gts_requests_rejected_total",
            "requests rejected by admission backpressure",
            stats.rejected,
        ),
        (
            "gts_requests_served_total",
            "responses produced for submitted requests",
            stats.completed,
        ),
    ] {
        header(o, name, "counter", help);
        sample(o, name, "", value);
    }
    if let Some(summary) = stages.filter(|s| !s.stages.is_empty()) {
        header(
            o,
            "gts_stage_cycles",
            "histogram",
            "simulated span cycles per pipeline stage",
        );
        for stage in STAGE_ORDER {
            if let Some(h) = summary.stages.get(stage) {
                histogram(o, "gts_stage_cycles", &format!("stage=\"{stage}\""), h);
            }
        }
    }
    out
}

/// The `# HELP` and `# TYPE` lines that open family `name`.
fn header(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
}

/// One sample line; `labels` is `key="value"`, or empty for none.
fn sample(out: &mut String, name: &str, labels: &str, value: u64) {
    if labels.is_empty() {
        let _ = writeln!(out, "{name} {value}");
    } else {
        let _ = writeln!(out, "{name}{{{labels}}} {value}");
    }
}

/// One histogram series: cumulative `_bucket{le="…"}` lines at the log₂
/// bucket upper bounds up to the highest occupied bucket, then
/// `le="+Inf"`, `_sum` and `_count`.
fn histogram(out: &mut String, name: &str, labels: &str, h: &LatencyHistogram) {
    let bucket = format!("{name}_bucket");
    let le = |le: &str| match labels {
        "" => format!("le=\"{le}\""),
        _ => format!("{labels},le=\"{le}\""),
    };
    let top = h
        .buckets()
        .iter()
        .rposition(|&n| n > 0)
        .map_or(0, |b| b + 1);
    let mut cumulative = 0u64;
    for (b, &n) in h.buckets()[..top].iter().enumerate() {
        cumulative += n;
        let upper = LatencyHistogram::bucket_upper(b).to_string();
        sample(out, &bucket, &le(&upper), cumulative);
    }
    sample(out, &bucket, &le("+Inf"), h.count());
    sample(out, &format!("{name}_sum"), labels, h.sum());
    sample(out, &format!("{name}_count"), labels, h.count());
}

/// One parsed exposition sample.
#[derive(Clone, Debug, PartialEq)]
pub struct PromSample {
    /// Sample name (family name plus any `_bucket`/`_sum`/`_count`
    /// suffix).
    pub name: String,
    /// Label pairs in source order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

/// Parse Prometheus text exposition back into samples. Understands the
/// subset the service writes — label values free of `"`, `,` and `\` —
/// skips comment lines, and validates metric names and label keys.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    text.lines()
        .enumerate()
        .map(|(ln, line)| (ln, line.trim()))
        .filter(|(_, line)| !line.is_empty() && !line.starts_with('#'))
        .map(|(ln, line)| parse_sample(line).map_err(|e| format!("line {}: {e}", ln + 1)))
        .collect()
}

fn parse_sample(line: &str) -> Result<PromSample, String> {
    let (series, value) = line
        .rsplit_once(' ')
        .ok_or_else(|| format!("no value in {line:?}"))?;
    let (name, labels) = match series.split_once('{') {
        Some((name, rest)) => (
            name,
            rest.strip_suffix('}').ok_or("unterminated label block")?,
        ),
        None => (series, ""),
    };
    if !valid_name(name, true) {
        return Err(format!("invalid metric name {name:?}"));
    }
    let labels = labels
        .split_terminator(',')
        .map(|pair| {
            let (key, value) = pair.split_once('=').ok_or("label without '='")?;
            if !valid_name(key, false) {
                return Err(format!("invalid label key {key:?}"));
            }
            let value = value
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .filter(|v| !v.contains(['"', '\\']))
                .ok_or("label value must be quoted")?;
            Ok((key.to_string(), value.to_string()))
        })
        .collect::<Result<_, String>>()?;
    let value = value
        .parse::<f64>()
        .map_err(|e| format!("bad value {value:?}: {e}"))?;
    Ok(PromSample {
        name: name.to_string(),
        labels,
        value,
    })
}

/// `[a-zA-Z_:][a-zA-Z0-9_:]*` for a metric name, the same without `:` for
/// a label key.
fn valid_name(s: &str, metric: bool) -> bool {
    let ok = |c: char| c.is_ascii_alphabetic() || c == '_' || (metric && c == ':');
    let mut chars = s.chars();
    chars.next().is_some_and(ok) && chars.all(|c| ok(c) || c.is_ascii_digit())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger() -> ServiceStats {
        let mut stats = ServiceStats {
            admitted: 5,
            completed: 4,
            failed: 1,
            idle_flushes: 3,
            deadline_flushes: 2,
            ..ServiceStats::default()
        };
        for v in [0u64, 1, 3, 100, 900] {
            stats.queue_wait_us.record(v);
        }
        stats
    }

    #[test]
    fn ledger_counters_are_read_not_accumulated() {
        let stats = ledger();
        let render = || exposition(&stats, &[], None);
        let once = render();
        assert_eq!(render(), once, "a view of the same state renders the same");
        for line in [
            "# HELP gts_requests_served_total responses produced for submitted requests",
            "# TYPE gts_requests_served_total counter",
            "gts_requests_admitted_total 5",
            "gts_requests_rejected_total 0",
            "gts_requests_served_total 4",
            "gts_requests_failed_total 1",
            "gts_batches_total{trigger=\"deadline\"} 2",
            "gts_batches_total{trigger=\"idle\"} 3",
            "gts_batches_total{trigger=\"size\"} 0",
            // Zeros land in the le="0" bucket; buckets stop at the highest
            // occupied one.
            "gts_queue_wait_microseconds_bucket{le=\"0\"} 1",
            "gts_queue_wait_microseconds_bucket{le=\"1023\"} 5",
            "gts_queue_wait_microseconds_bucket{le=\"+Inf\"} 5",
            "gts_queue_wait_microseconds_sum 1004",
            "gts_queue_wait_microseconds_count 5",
        ] {
            assert!(once.contains(&format!("{line}\n")), "{line} in\n{once}");
        }
        assert!(!once.contains("le=\"2047\""), "trimmed past the top bucket");
        assert!(!once.contains("gts_stage_cycles"), "no trace, no stages");
    }

    #[test]
    fn device_gauges_partition_each_replica_span() {
        let dev = |busy, transfer| DeviceStats {
            cycles: busy + transfer,
            busy_cycles: busy,
            transfer_cycles: transfer,
            ..DeviceStats::default()
        };
        // Two replicas of two devices: each measured against its own
        // replica's slowest device, numbered replica-major.
        let replicas = [vec![dev(30, 5), dev(10, 0)], vec![dev(7, 0), dev(4, 4)]];
        let samples = parse_prometheus(&exposition(&ServiceStats::default(), &replicas, None))
            .expect("parses");
        let get = |name: &str, device: &str| {
            samples
                .iter()
                .find(|s| s.name == name && s.labels == [("device".into(), device.into())])
                .unwrap_or_else(|| panic!("{name}{{device={device}}}"))
                .value as u64
        };
        for (device, span, idle) in [("0", 35, 0), ("1", 35, 25), ("2", 8, 1), ("3", 8, 0)] {
            assert_eq!(get("gts_device_span_cycles", device), span);
            assert_eq!(get("gts_device_idle_cycles", device), idle);
            let parts = ["busy", "transfer", "stall", "idle"]
                .map(|p| get(&format!("gts_device_{p}_cycles"), device));
            assert_eq!(parts.iter().sum::<u64>(), span, "device {device}");
        }
    }

    #[test]
    fn exposition_round_trips_through_the_parser() {
        let text = exposition(&ledger(), &[], None);
        let samples = parse_prometheus(&text).expect("parses");
        assert_eq!(
            samples.len(),
            text.lines().filter(|l| !l.starts_with('#')).count()
        );
        let served = samples
            .iter()
            .find(|s| s.name == "gts_requests_served_total")
            .expect("served");
        assert_eq!((served.value, served.labels.len()), (4.0, 0));
        let inf = samples
            .iter()
            .find(|s| s.name == "gts_queue_wait_microseconds_bucket" && s.value == 5.0)
            .expect("a full bucket");
        assert_eq!(inf.labels, [("le".to_string(), "1023".to_string())]);
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_prometheus("9bad_name 1").is_err());
        assert!(parse_prometheus("name{unterminated=\"x} 1").is_err());
        assert!(parse_prometheus("name{a=\"x\"} not_a_number").is_err());
        assert!(parse_prometheus("name{a=unquoted} 1").is_err());
        assert!(parse_prometheus("name{9a=\"x\"} 1").is_err());
        assert!(parse_prometheus("name_without_value").is_err());
        assert_eq!(
            parse_prometheus("# comment\n\nx_bucket{le=\"+Inf\"} +Inf\n").expect("parses")[0].value,
            f64::INFINITY
        );
    }
}
