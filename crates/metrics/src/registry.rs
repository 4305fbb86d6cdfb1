//! The typed metrics registry: named families of counters, gauges, and
//! log₂ histograms, cheap enough to leave in every hot path.
//!
//! Design points:
//!
//! * **Lock-cheap.** Counters stride over sharded cache-padded atomics,
//!   histograms over sharded mutexes (one uncontended lock per record),
//!   both summed exactly at snapshot time — [`LatencyHistogram::merge`] is
//!   bucket-wise, so the sharding never changes a quantile. A registry
//!   that exists records; metrics are switched off by not creating one.
//! * **Deterministic exposition.** [`MetricsRegistry::snapshot`] sorts
//!   families by name and series by label set, with the `stage` label
//!   ordered by [`gts_trace::stage_rank`] — the same canonical pipeline
//!   order `TraceSummary::to_table` uses — so two scrapes of the same
//!   state are byte-identical.
//! * **Handles are `Clone + Send + Sync`** and stay valid for the life of
//!   the registry; registration is idempotent (same name + labels returns
//!   the existing series).

use gts_trace::{stage_rank, LatencyHistogram};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Shard count for counters and histograms: enough to keep a handful of
/// lanes off each other's cache lines without bloating snapshots.
const VALUE_SHARDS: usize = 8;

/// A cache-line-padded atomic so striped counter shards never false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// Monotonic thread-ordinal source for shard striding.
static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's shard stripe, assigned round-robin on first use.
    static MY_SHARD: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed) % VALUE_SHARDS;
}

fn my_shard() -> usize {
    MY_SHARD.with(|s| *s)
}

/// What a metric family holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing `u64`.
    Counter,
    /// A settable `u64` (last-write or running-max semantics).
    Gauge,
    /// A [`LatencyHistogram`] of `u64` samples.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword.
    pub fn as_str(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Default)]
struct CounterCore {
    shards: [PaddedU64; VALUE_SHARDS],
}

impl CounterCore {
    fn sum(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .fold(0u64, u64::wrapping_add)
    }
}

#[derive(Default)]
struct HistogramCore {
    shards: [Mutex<LatencyHistogram>; VALUE_SHARDS],
}

impl HistogramCore {
    fn merged(&self) -> LatencyHistogram {
        let mut out = LatencyHistogram::default();
        for shard in &self.shards {
            out.merge(&shard.lock().expect("histogram shard poisoned"));
        }
        out
    }
}

/// A monotonically increasing counter handle.
#[derive(Clone)]
pub struct Counter {
    core: Arc<CounterCore>,
}

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.core.shards[my_shard()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Current total across all shards.
    pub fn value(&self) -> u64 {
        self.core.sum()
    }
}

/// A settable gauge handle.
#[derive(Clone)]
pub struct Gauge {
    core: Arc<AtomicU64>,
}

impl Gauge {
    /// Set the gauge to `v`.
    pub fn set(&self, v: u64) {
        self.core.store(v, Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if it is below (high-water-mark
    /// semantics).
    pub fn set_max(&self, v: u64) {
        self.core.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.core.load(Ordering::Relaxed)
    }
}

/// A histogram handle recording `u64` samples into sharded
/// [`LatencyHistogram`]s.
#[derive(Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Histogram {
    /// Record one sample.
    pub fn record(&self, v: u64) {
        let mut shard = self.core.shards[my_shard()]
            .lock()
            .expect("histogram shard poisoned");
        shard.record(v);
    }

    /// Merge an already-aggregated histogram in (e.g. a per-lane
    /// histogram folded at shutdown).
    pub fn merge(&self, other: &LatencyHistogram) {
        let mut shard = self.core.shards[my_shard()]
            .lock()
            .expect("histogram shard poisoned");
        shard.merge(other);
    }

    /// Replace the histogram's contents with an externally aggregated
    /// histogram. Unlike [`Histogram::merge`] this is **idempotent** —
    /// the refresh path for cumulative sources re-read at scrape time
    /// (trace summaries, cost-audit calibration), where merging on every
    /// scrape would double-count.
    pub fn replace(&self, other: &LatencyHistogram) {
        for (i, shard) in self.core.shards.iter().enumerate() {
            let mut s = shard.lock().expect("histogram shard poisoned");
            *s = if i == 0 {
                other.clone()
            } else {
                LatencyHistogram::default()
            };
        }
    }

    /// Exact merged view across all shards.
    pub fn snapshot(&self) -> LatencyHistogram {
        self.core.merged()
    }
}

#[derive(Clone)]
enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Series {
    labels: Vec<(String, String)>,
    handle: Handle,
}

struct Family {
    name: String,
    help: String,
    kind: MetricKind,
    series: Vec<Series>,
}

/// Point-in-time value of one labelled series.
#[derive(Clone, Debug)]
pub enum SeriesValue {
    /// Counter total.
    Counter(u64),
    /// Gauge value.
    Gauge(u64),
    /// Merged histogram (boxed: a histogram is an order of magnitude
    /// larger than the scalar variants).
    Histogram(Box<LatencyHistogram>),
}

/// Point-in-time snapshot of one labelled series.
#[derive(Clone, Debug)]
pub struct SeriesSnapshot {
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
    /// The series value at snapshot time.
    pub value: SeriesValue,
}

/// Point-in-time snapshot of one metric family.
#[derive(Clone, Debug)]
pub struct FamilySnapshot {
    /// Family name (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
    pub name: String,
    /// One-line help string.
    pub help: String,
    /// Counter / gauge / histogram.
    pub kind: MetricKind,
    /// All series, in canonical exposition order.
    pub series: Vec<SeriesSnapshot>,
}

/// A full registry snapshot in canonical order: families sorted by name,
/// series sorted by label set (with `stage` values in pipeline order).
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// All families, sorted by name.
    pub families: Vec<FamilySnapshot>,
}

/// The registry: a named, labelled set of counters, gauges and
/// histograms. A registry that exists records — the service switches
/// metrics off by not creating one.
#[derive(Default)]
pub struct MetricsRegistry {
    families: Mutex<Vec<Family>>,
}

impl MetricsRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Register (or fetch) the counter `name{labels}`.
    ///
    /// # Panics
    /// On an invalid metric name, or if `name` was already registered
    /// with a different kind.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, help, MetricKind::Counter, labels, || {
            Handle::Counter(Counter {
                core: Arc::new(CounterCore::default()),
            })
        }) {
            Handle::Counter(c) => c,
            _ => unreachable!("kind checked in register"),
        }
    }

    /// Register (or fetch) the gauge `name{labels}`.
    ///
    /// # Panics
    /// On an invalid metric name, or if `name` was already registered
    /// with a different kind.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(name, help, MetricKind::Gauge, labels, || {
            Handle::Gauge(Gauge {
                core: Arc::new(AtomicU64::new(0)),
            })
        }) {
            Handle::Gauge(g) => g,
            _ => unreachable!("kind checked in register"),
        }
    }

    /// Register (or fetch) the histogram `name{labels}`.
    ///
    /// # Panics
    /// On an invalid metric name, or if `name` was already registered
    /// with a different kind.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.register(name, help, MetricKind::Histogram, labels, || {
            Handle::Histogram(Histogram {
                core: Arc::new(HistogramCore::default()),
            })
        }) {
            Handle::Histogram(h) => h,
            _ => unreachable!("kind checked in register"),
        }
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        mint: impl FnOnce() -> Handle,
    ) -> Handle {
        assert!(
            valid_name(name),
            "invalid metric name {name:?}: want [a-zA-Z_:][a-zA-Z0-9_:]*"
        );
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| {
                assert!(valid_label_key(k), "invalid label key {k:?} on {name}");
                (k.to_string(), v.to_string())
            })
            .collect();
        labels.sort();
        let mut families = self.families.lock().expect("registry poisoned");
        let family = match families.iter_mut().find(|f| f.name == name) {
            Some(f) => {
                assert_eq!(
                    f.kind,
                    kind,
                    "metric {name} already registered as a {}",
                    f.kind.as_str()
                );
                f
            }
            None => {
                families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    series: Vec::new(),
                });
                families.last_mut().expect("just pushed")
            }
        };
        if let Some(series) = family.series.iter().find(|s| s.labels == labels) {
            return series.handle.clone();
        }
        let handle = mint();
        family.series.push(Series {
            labels,
            handle: handle.clone(),
        });
        handle
    }

    /// A consistent point-in-time view of every family, in canonical
    /// exposition order (families by name; series by label set, with the
    /// `stage` label ordered by the trace pipeline's
    /// [`gts_trace::STAGE_ORDER`]). The exposition renders from this.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let families = self.families.lock().expect("registry poisoned");
        let mut out: Vec<FamilySnapshot> = families
            .iter()
            .map(|f| {
                let mut series: Vec<SeriesSnapshot> = f
                    .series
                    .iter()
                    .map(|s| SeriesSnapshot {
                        labels: s.labels.clone(),
                        value: match &s.handle {
                            Handle::Counter(c) => SeriesValue::Counter(c.value()),
                            Handle::Gauge(g) => SeriesValue::Gauge(g.value()),
                            Handle::Histogram(h) => SeriesValue::Histogram(Box::new(h.snapshot())),
                        },
                    })
                    .collect();
                series.sort_by_key(|s| series_key(&s.labels));
                FamilySnapshot {
                    name: f.name.clone(),
                    help: f.help.clone(),
                    kind: f.kind,
                    series,
                }
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot { families: out }
    }

    /// Render the whole registry in the Prometheus text exposition
    /// format (see [`crate::expo::render_prometheus`]).
    pub fn render_prometheus(&self) -> String {
        crate::expo::render_prometheus(&self.snapshot())
    }
}

/// Series ordering key: label-by-label, with `stage` values ranked by the
/// canonical pipeline order before falling back to lexicographic.
fn series_key(labels: &[(String, String)]) -> Vec<(String, usize, String)> {
    labels
        .iter()
        .map(|(k, v)| {
            let rank = if k == "stage" { stage_rank(v) } else { 0 };
            (k.clone(), rank, v.clone())
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_key(key: &str) -> bool {
    let mut chars = key.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_per_label_set() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("gts_req_total", "requests", &[("client", "a")]);
        let a2 = reg.counter("gts_req_total", "requests", &[("client", "a")]);
        let b = reg.counter("gts_req_total", "requests", &[("client", "b")]);
        a.inc();
        a2.inc();
        b.inc();
        assert_eq!(a.value(), 2, "same labels share one series");
        assert_eq!(b.value(), 1);
        let snap = reg.snapshot();
        assert_eq!(snap.families.len(), 1);
        assert_eq!(snap.families[0].series.len(), 2);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("gts_x", "x", &[]);
        let _ = reg.gauge("gts_x", "x", &[]);
    }

    #[test]
    fn sharded_counters_sum_exactly_across_threads() {
        let reg = Arc::new(MetricsRegistry::new());
        let c = reg.counter("gts_thread_total", "per-thread", &[]);
        let h = reg.histogram("gts_thread_hist", "per-thread", &[]);
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let (c, h) = (c.clone(), h.clone());
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        c.inc();
                        h.record(t * 1000 + i);
                    }
                })
            })
            .collect();
        for th in handles {
            th.join().expect("thread");
        }
        assert_eq!(c.value(), 4000);
        let merged = h.snapshot();
        assert_eq!(merged.count(), 4000);
        assert_eq!(merged.min(), 0);
        assert_eq!(merged.max(), 3999);
    }

    #[test]
    fn snapshot_orders_families_by_name_and_stage_series_by_pipeline() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("gts_z_total", "z", &[]);
        let _ = reg.counter("gts_a_total", "a", &[]);
        for stage in ["kernel", "lane_batch", "shard_scatter"] {
            let _ = reg.histogram("gts_stage_cycles", "stage spans", &[("stage", stage)]);
        }
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.families.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["gts_a_total", "gts_stage_cycles", "gts_z_total"]);
        let stages: Vec<&str> = snap.families[1]
            .series
            .iter()
            .map(|s| s.labels[0].1.as_str())
            .collect();
        assert_eq!(
            stages,
            ["lane_batch", "shard_scatter", "kernel"],
            "stage series follow STAGE_ORDER, not lexicographic order"
        );
    }
}
