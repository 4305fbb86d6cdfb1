//! The percentile rule, Python-compatible quartiles, and the burst-aligned
//! throughput estimate.

use gts_benchmark::stats::{
    iqr_share, median, percentile, percentile_or_supported, quartiles, throughput, Completion,
    MIN_BEYOND,
};

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn percentile_needs_ten_samples_beyond() {
    // p90 of 100 samples is rank 90, with exactly ten beyond: reported.
    assert_eq!(percentile(&ramp(100), 0.90), Some(90.0));
    // 99 samples: rank 90, nine beyond: withheld.
    assert_eq!(percentile(&ramp(99), 0.90), None);
    // p99 needs a thousand.
    assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
    assert_eq!(percentile(&ramp(999), 0.99), None);
    assert_eq!(percentile(&[], 0.5), None);
}

#[test]
fn fallback_is_the_highest_supported_rank() {
    let (value, fell_back) = percentile_or_supported(&ramp(50), 0.99);
    assert!(fell_back);
    assert_eq!(value, (50 - MIN_BEYOND) as f64, "ten samples lie beyond it");
    let (value, fell_back) = percentile_or_supported(&ramp(1000), 0.99);
    assert!(!fell_back);
    assert_eq!(value, 990.0);
    assert_eq!(percentile_or_supported(&ramp(3), 0.9), (1.0, true));
    assert_eq!(percentile_or_supported(&[], 0.9), (0.0, true));
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
}

#[test]
fn quartiles_agree_with_python_statistics_quantiles() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    assert_eq!(quartiles(&ramp(10)), [2.75, 5.5, 8.25]);
    // statistics.quantiles([2, 4, 4, 5, 7, 9, 11], n=4) == [4.0, 5.0, 9.0]
    assert_eq!(
        quartiles(&[9.0, 2.0, 4.0, 11.0, 4.0, 5.0, 7.0]),
        [4.0, 5.0, 9.0]
    );
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    assert!((iqr_share(&ramp(10)) - 1.0).abs() < 1e-12);
}

/// `bursts` bursts of `size` completions, one every `period` seconds, each
/// burst's completions a microsecond apart.
fn bursty(bursts: usize, size: usize, period: f64) -> Vec<Completion> {
    (0..bursts)
        .flat_map(|b| {
            (0..size).map(move |i| Completion {
                at: (b + 1) as f64 * period + i as f64 * 1e-6,
                ops: 1,
            })
        })
        .collect()
}

#[test]
fn throughput_cuts_segments_between_bursts_not_inside_them() {
    // 512 requests every 0.5 s is 1024 per second whatever the phase of the
    // cuts; a cut inside a burst would read a segment as far off as ±30 %.
    let events = bursty(22, 512, 0.5);
    let t = throughput(&events, 0.0, 1.1).expect("enough events");
    assert!(
        (t.ops_per_s - 1024.0).abs() < 1.0,
        "ops_per_s = {}",
        t.ops_per_s
    );
    assert_eq!(t.first_timed % 512, 0, "timing starts at a burst boundary");
    assert!(t.first_timed >= 2 * 512, "the warm-up bursts are excluded");
}

#[test]
fn throughput_of_evenly_spaced_batches() {
    // One 256-query batch every 70 ms.
    let events: Vec<Completion> = (1..=200)
        .map(|i| Completion {
            at: i as f64 * 0.07,
            ops: 256,
        })
        .collect();
    let t = throughput(&events, 0.0, 1.4).expect("enough events");
    assert!((t.ops_per_s - 256.0 / 0.07).abs() < 1e-6);
    assert!((20..=40).contains(&t.first_timed), "{}", t.first_timed);
}

#[test]
fn throughput_rides_out_one_slow_segment() {
    // A stall of 2 s in the middle slows one of the five segments only.
    let mut events: Vec<Completion> = (1..=100)
        .map(|i| Completion {
            at: i as f64 * 0.1 + if i > 50 { 2.0 } else { 0.0 },
            ops: 10,
        })
        .collect();
    events.sort_by(|a, b| a.at.total_cmp(&b.at));
    let t = throughput(&events, 0.0, 0.0).expect("enough events");
    assert!((t.ops_per_s - 100.0).abs() < 1e-6, "{}", t.ops_per_s);
}

#[test]
fn too_few_events_for_segments_give_the_plain_rate() {
    // Eight completions at 1 s: 8 per second counted from the start.
    let events = bursty(1, 8, 1.0);
    let t = throughput(&events, 0.0, 0.0).expect("some events");
    assert!((t.ops_per_s - 8.0).abs() < 1e-3, "{}", t.ops_per_s);
    assert_eq!(t.first_timed, 0);
    // Nothing after the warm-up: nothing to report.
    assert!(throughput(&events, 0.0, 2.0).is_none());
    assert!(throughput(&[], 0.0, 0.0).is_none());
}
