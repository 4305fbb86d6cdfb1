//! Metric snapshots: named families of counters, gauges, and log₂
//! histograms, built at scrape time from state the caller already keeps.
//!
//! Nothing here records on a hot path. A [`MetricsSnapshot`] is filled by
//! its builder methods ([`MetricsSnapshot::counter`],
//! [`MetricsSnapshot::gauge`], [`MetricsSnapshot::histogram`]) and stays in
//! **canonical order** as it grows: families sorted by name, series by
//! label set with the `stage` label ordered by [`gts_trace::stage_rank`] —
//! the same pipeline order `TraceSummary::to_table` uses — so two
//! snapshots of the same state render byte-identically.

use gts_trace::{stage_rank, LatencyHistogram};

/// What a metric family holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing `u64`.
    Counter,
    /// A `u64` read at snapshot time.
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

/// Point-in-time value of one labelled series.
#[derive(Clone, Debug)]
pub enum SeriesValue {
    /// Counter total.
    Counter(u64),
    /// Gauge value.
    Gauge(u64),
    /// Histogram (boxed: a histogram is an order of magnitude larger than
    /// the scalar variants).
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

/// A full snapshot in canonical order: families sorted by name, series
/// sorted by label set (with `stage` values in pipeline order).
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// All families, sorted by name.
    pub families: Vec<FamilySnapshot>,
}

impl MetricsSnapshot {
    /// Add the counter series `name{labels} = value`.
    ///
    /// # Panics
    /// On an invalid metric name or label key, if `name` already holds a
    /// different kind, or if the series was already added.
    pub fn counter(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        value: u64,
    ) -> &mut Self {
        self.push(name, help, labels, SeriesValue::Counter(value))
    }

    /// Add the gauge series `name{labels} = value` (panics as
    /// [`MetricsSnapshot::counter`]).
    pub fn gauge(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        value: u64,
    ) -> &mut Self {
        self.push(name, help, labels, SeriesValue::Gauge(value))
    }

    /// Add the histogram series `name{labels}` (panics as
    /// [`MetricsSnapshot::counter`]).
    pub fn histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        value: LatencyHistogram,
    ) -> &mut Self {
        self.push(name, help, labels, SeriesValue::Histogram(Box::new(value)))
    }

    /// Insert one series at its canonical position.
    fn push(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        value: SeriesValue,
    ) -> &mut Self {
        assert!(
            valid_name(name),
            "invalid metric name {name:?}: want [a-zA-Z_:][a-zA-Z0-9_:]*"
        );
        let kind = match value {
            SeriesValue::Counter(_) => MetricKind::Counter,
            SeriesValue::Gauge(_) => MetricKind::Gauge,
            SeriesValue::Histogram(_) => MetricKind::Histogram,
        };
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| {
                assert!(valid_label_key(k), "invalid label key {k:?} on {name}");
                (k.to_string(), v.to_string())
            })
            .collect();
        labels.sort();
        let f = match self
            .families
            .binary_search_by(|f| f.name.as_str().cmp(name))
        {
            Ok(f) => f,
            Err(f) => {
                self.families.insert(
                    f,
                    FamilySnapshot {
                        name: name.to_string(),
                        help: help.to_string(),
                        kind,
                        series: Vec::new(),
                    },
                );
                f
            }
        };
        let family = &mut self.families[f];
        assert_eq!(
            family.kind,
            kind,
            "metric {name} already holds a {}",
            family.kind.as_str()
        );
        let key = series_key(&labels);
        match family
            .series
            .binary_search_by(|s| series_key(&s.labels).cmp(&key))
        {
            Ok(_) => panic!("series {name}{labels:?} added twice"),
            Err(s) => family.series.insert(s, SeriesSnapshot { labels, value }),
        }
        self
    }
}

/// Series ordering key: label-by-label, with `stage` values ranked by the
/// canonical pipeline order before falling back to lexicographic.
fn series_key(labels: &[(String, String)]) -> Vec<(&str, usize, &str)> {
    labels
        .iter()
        .map(|(k, v)| {
            let rank = if k == "stage" { stage_rank(v) } else { 0 };
            (k.as_str(), rank, v.as_str())
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
    fn series_of_one_family_share_it() {
        let mut snap = MetricsSnapshot::default();
        snap.counter("gts_req_total", "requests", &[("trigger", "size")], 2)
            .counter("gts_req_total", "requests", &[("trigger", "deadline")], 1);
        assert_eq!(snap.families.len(), 1);
        let values: Vec<(&str, u64)> = snap.families[0]
            .series
            .iter()
            .map(|s| match s.value {
                SeriesValue::Counter(v) => (s.labels[0].1.as_str(), v),
                _ => panic!("counter expected"),
            })
            .collect();
        assert_eq!(
            values,
            [("deadline", 1), ("size", 2)],
            "series sort by label"
        );
    }

    #[test]
    #[should_panic(expected = "already holds")]
    fn kind_mismatch_panics() {
        let mut snap = MetricsSnapshot::default();
        snap.counter("gts_x", "x", &[], 0)
            .gauge("gts_x", "x", &[], 0);
    }

    #[test]
    #[should_panic(expected = "added twice")]
    fn duplicate_series_panics() {
        let mut snap = MetricsSnapshot::default();
        snap.gauge("gts_x", "x", &[("device", "0")], 1)
            .gauge("gts_x", "x", &[("device", "0")], 2);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_name_panics() {
        MetricsSnapshot::default().counter("9gts", "x", &[], 0);
    }

    #[test]
    fn snapshot_orders_families_by_name_and_stage_series_by_pipeline() {
        let mut snap = MetricsSnapshot::default();
        snap.counter("gts_z_total", "z", &[], 0)
            .counter("gts_a_total", "a", &[], 0);
        for stage in ["kernel", "lane_batch", "shard_scatter"] {
            snap.histogram(
                "gts_stage_cycles",
                "stage spans",
                &[("stage", stage)],
                LatencyHistogram::default(),
            );
        }
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
