//! The export path for a [`MetricsSnapshot`]: the Prometheus text
//! exposition format (version 0.0.4), plus a small exposition parser used
//! by the conformance tests to prove the text round-trips.
//!
//! The renderer consumes the snapshot's canonical order unchanged, so
//! output is byte-deterministic: two scrapes of the same state are
//! identical strings.

use crate::registry::{FamilySnapshot, MetricsSnapshot, SeriesValue};
use gts_trace::LatencyHistogram;
use std::fmt::Write as _;

/// Render a snapshot in the Prometheus text exposition format:
/// `# HELP` / `# TYPE` per family, one sample line per series, histogram
/// series expanded into cumulative `_bucket{le="…"}` lines (log₂ bucket
/// upper bounds, trimmed at the highest occupied bucket), `_sum`, and
/// `_count`. Label values are escaped per the spec (`\\`, `\"`, `\n`).
pub fn render_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for family in &snap.families {
        let _ = writeln!(out, "# HELP {} {}", family.name, escape_help(&family.help));
        let _ = writeln!(out, "# TYPE {} {}", family.name, family.kind.as_str());
        for series in &family.series {
            match &series.value {
                SeriesValue::Counter(v) | SeriesValue::Gauge(v) => {
                    let _ = writeln!(
                        out,
                        "{}{} {v}",
                        family.name,
                        label_block(&series.labels, None)
                    );
                }
                SeriesValue::Histogram(h) => render_histogram(&mut out, family, series, h),
            }
        }
    }
    out
}

fn render_histogram(
    out: &mut String,
    family: &FamilySnapshot,
    series: &crate::registry::SeriesSnapshot,
    h: &LatencyHistogram,
) {
    let top = h
        .buckets()
        .iter()
        .rposition(|&n| n > 0)
        .map_or(0, |b| b + 1);
    let mut cumulative = 0u64;
    for (b, &n) in h.buckets().iter().enumerate().take(top) {
        cumulative += n;
        let le = LatencyHistogram::bucket_upper(b).to_string();
        let _ = writeln!(
            out,
            "{}_bucket{} {cumulative}",
            family.name,
            label_block(&series.labels, Some(&le))
        );
    }
    let _ = writeln!(
        out,
        "{}_bucket{} {}",
        family.name,
        label_block(&series.labels, Some("+Inf")),
        h.count()
    );
    let _ = writeln!(
        out,
        "{}_sum{} {}",
        family.name,
        label_block(&series.labels, None),
        h.sum()
    );
    let _ = writeln!(
        out,
        "{}_count{} {}",
        family.name,
        label_block(&series.labels, None),
        h.count()
    );
}

/// `{k1="v1",k2="v2"}` (with `le` appended last when given), or the empty
/// string for an unlabelled series.
fn label_block(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// One parsed exposition sample.
#[derive(Clone, Debug, PartialEq)]
pub struct PromSample {
    /// Sample name (family name plus any `_bucket`/`_sum`/`_count`
    /// suffix).
    pub name: String,
    /// Label pairs in source order, values unescaped.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

/// Parse Prometheus text exposition back into samples. Understands
/// exactly the subset [`render_prometheus`] emits (plus arbitrary
/// comments), validating name and label syntax; used by the conformance
/// tests to prove the exposition round-trips.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut samples = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        samples.push(parse_sample(line).map_err(|e| format!("line {}: {e}", ln + 1))?);
    }
    Ok(samples)
}

fn parse_sample(line: &str) -> Result<PromSample, String> {
    let (name_end, has_labels) = match line.find(['{', ' ']) {
        Some(i) => (i, line.as_bytes()[i] == b'{'),
        None => return Err(format!("no value in {line:?}")),
    };
    let name = &line[..name_end];
    if name.is_empty()
        || !name.chars().enumerate().all(|(i, c)| {
            (c.is_ascii_alphabetic() || c == '_' || c == ':') || (i > 0 && c.is_ascii_digit())
        })
    {
        return Err(format!("invalid metric name {name:?}"));
    }
    let mut labels = Vec::new();
    let rest = if has_labels {
        let mut chars = line[name_end + 1..].char_indices().peekable();
        let body = &line[name_end + 1..];
        loop {
            // Label key up to '='.
            let start = match chars.peek() {
                Some(&(i, '}')) => {
                    chars.next();
                    break &body[i + 1..];
                }
                Some(&(i, _)) => i,
                None => return Err("unterminated label block".into()),
            };
            let mut eq = None;
            for (i, c) in chars.by_ref() {
                if c == '=' {
                    eq = Some(i);
                    break;
                }
            }
            let eq = eq.ok_or("label without '='")?;
            let key = &body[start..eq];
            if key.is_empty() {
                return Err("empty label key".into());
            }
            match chars.next() {
                Some((_, '"')) => {}
                _ => return Err("label value must be quoted".into()),
            }
            let mut value = String::new();
            let mut closed = false;
            while let Some((_, c)) = chars.next() {
                match c {
                    '"' => {
                        closed = true;
                        break;
                    }
                    '\\' => match chars.next() {
                        Some((_, 'n')) => value.push('\n'),
                        Some((_, '\\')) => value.push('\\'),
                        Some((_, '"')) => value.push('"'),
                        other => return Err(format!("bad escape {other:?}")),
                    },
                    c => value.push(c),
                }
            }
            if !closed {
                return Err("unterminated label value".into());
            }
            labels.push((key.to_string(), value));
            if let Some(&(_, ',')) = chars.peek() {
                chars.next();
            }
        }
    } else {
        &line[name_end..]
    };
    let value_str = rest.trim();
    let value = if value_str == "+Inf" {
        f64::INFINITY
    } else {
        value_str
            .parse::<f64>()
            .map_err(|e| format!("bad value {value_str:?}: {e}"))?
    };
    Ok(PromSample {
        name: name.to_string(),
        labels,
        value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> MetricsSnapshot {
        let mut wait = LatencyHistogram::default();
        for v in [0u64, 1, 3, 100, 900] {
            wait.record(v);
        }
        let mut snap = MetricsSnapshot::default();
        snap.counter(
            "gts_requests_total",
            "Requests by client",
            &[("client", "alice")],
            41,
        )
        .gauge(
            "gts_mem_peak_bytes",
            "Peak bytes",
            &[("device", "0")],
            1 << 20,
        )
        .histogram("gts_wait_us", "Queue wait", &[], wait);
        snap
    }

    #[test]
    fn exposition_has_help_type_and_values() {
        let text = render_prometheus(&sample_snapshot());
        assert!(text.contains("# HELP gts_requests_total Requests by client\n"));
        assert!(text.contains("# TYPE gts_requests_total counter\n"));
        assert!(text.contains("gts_requests_total{client=\"alice\"} 41\n"));
        assert!(text.contains("gts_mem_peak_bytes{device=\"0\"} 1048576\n"));
        assert!(text.contains("gts_wait_us_count 5\n"));
        assert!(text.contains("gts_wait_us_sum 1004\n"));
        assert!(text.contains("gts_wait_us_bucket{le=\"+Inf\"} 5\n"));
        // Zeros land in the le="0" bucket; cumulative counts are monotone.
        assert!(text.contains("gts_wait_us_bucket{le=\"0\"} 1\n"));
    }

    #[test]
    fn exposition_round_trips_through_the_parser() {
        let text = render_prometheus(&sample_snapshot());
        let samples = parse_prometheus(&text).expect("parses");
        let find = |name: &str| {
            samples
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("{name} in {text}"))
        };
        assert_eq!(find("gts_requests_total").value, 41.0);
        assert_eq!(
            find("gts_requests_total").labels,
            vec![("client".to_string(), "alice".to_string())]
        );
        assert_eq!(find("gts_wait_us_count").value, 5.0);
        assert_eq!(find("gts_wait_us_sum").value, 1004.0);
        // Bucket cumulative counts are monotone non-decreasing in le.
        let buckets: Vec<&PromSample> = samples
            .iter()
            .filter(|s| s.name == "gts_wait_us_bucket")
            .collect();
        assert!(buckets.len() >= 2);
        assert!(buckets.windows(2).all(|w| w[0].value <= w[1].value));
        assert_eq!(
            buckets.last().expect("buckets").labels,
            vec![("le".to_string(), "+Inf".to_string())]
        );
    }

    #[test]
    fn label_escaping_round_trips() {
        let tricky = "a\\b\"c\nd";
        let mut snap = MetricsSnapshot::default();
        snap.counter("gts_esc_total", "escapes", &[("client", tricky)], 1);
        let text = render_prometheus(&snap);
        assert!(text.contains("client=\"a\\\\b\\\"c\\nd\""), "{text}");
        let samples = parse_prometheus(&text).expect("parses");
        assert_eq!(samples[0].labels[0].1, tricky, "unescapes to the original");
    }

    #[test]
    fn two_renders_of_the_same_state_are_byte_identical() {
        assert_eq!(
            render_prometheus(&sample_snapshot()),
            render_prometheus(&sample_snapshot())
        );
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_prometheus("9bad_name 1").is_err());
        assert!(parse_prometheus("name{unterminated=\"x} 1").is_err());
        assert!(parse_prometheus("name{a=\"x\"} not_a_number").is_err());
        assert!(parse_prometheus("name{a=unquoted} 1").is_err());
    }
}
