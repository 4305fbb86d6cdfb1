//! The benchmark's own arithmetic: medians, quartiles, the percentile rule
//! and the burst-aligned throughput estimate.

/// Samples that must lie beyond a percentile before it is reported: with
/// fewer, the value is one of a handful of outliers and does not repeat.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Nearest-rank percentile `p ∈ (0, 1)` — `None` unless at least
/// [`MIN_BEYOND`] samples lie beyond the returned one.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    let rank = ((p * v.len() as f64).ceil() as usize).max(1);
    (rank + MIN_BEYOND <= v.len()).then(|| v[rank - 1])
}

/// [`percentile`], falling back to the highest rank the sample supports
/// (the largest value when there are at most [`MIN_BEYOND`] samples). The
/// flag says whether the fallback was taken. 0 when empty.
pub fn percentile_or_supported(values: &[f64], p: f64) -> (f64, bool) {
    if let Some(x) = percentile(values, p) {
        return (x, false);
    }
    let v = sorted(values);
    match v.len() {
        0 => (0.0, true),
        n => (v[n.saturating_sub(MIN_BEYOND + 1)], true),
    }
}

/// First quartile, median, third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method).
/// Needs two values or more.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let m = v.len();
    assert!(m >= 2, "quartiles need at least two values");
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = v[j - 1] + (v[j] - v[j - 1]) * delta / 4.0;
    }
    out
}

/// Distance between the quartiles as a share of the median — the spread the
/// acceptance rule compares with a metric's bound.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, med, q3] = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// One completion event: when it happened (seconds on the run's clock) and
/// how many operations completed with it (a batch call completes its whole
/// batch at once; a service response completes one request).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Completion {
    pub at: f64,
    pub ops: u64,
}

/// Index `i ∈ [nominal, nominal + look]` after which the longest pause
/// between completions falls. A service answers a flushed batch in one
/// burst; cutting a segment inside a burst would credit it with work done
/// before it began, so cuts are moved to the nearest pause. Where
/// completions are evenly spaced the choice is arbitrary and harmless.
fn snap(events: &[Completion], nominal: usize, look: usize) -> usize {
    let last = events.len() - 2;
    let lo = nominal.min(last);
    let hi = (nominal + look).min(last);
    (lo..=hi)
        .max_by(|&a, &b| {
            let gap = |i: usize| events[i + 1].at - events[i].at;
            gap(a).total_cmp(&gap(b)).then(b.cmp(&a))
        })
        .expect("non-empty range")
}

/// Throughput of a phase whose first `warm` seconds are warm-up.
pub struct Throughput {
    /// Operations per second: the median over [`SEGMENTS`] consecutive
    /// segments of (nearly) equal event count, to ride out a noisy
    /// neighbour.
    pub ops_per_s: f64,
    /// Index of the first event that counts (after warm-up).
    pub first_timed: usize,
}

pub const SEGMENTS: usize = 5;

/// `events` are in completion order; `begin` is when the phase started.
/// Returns `None` when no event follows the warm-up.
pub fn throughput(events: &[Completion], begin: f64, warm: f64) -> Option<Throughput> {
    let nominal = events.partition_point(|e| e.at < begin + warm);
    let after_warm = events.len() - nominal;
    if after_warm < 4 * SEGMENTS {
        // Too few events to cut into segments (a smoke run): everything
        // after the warm-up instant, bursts cut wherever it falls.
        let ops: u64 = events[nominal..].iter().map(|e| e.ops).sum();
        let secs = events.last()?.at - (begin + warm);
        return (ops > 0 && secs > 0.0).then(|| Throughput {
            ops_per_s: ops as f64 / secs,
            first_timed: nominal,
        });
    }
    // Each cut may move forward by up to half a segment to find a pause, so
    // a burst of up to that many events is never cut in two.
    let look = after_warm / (2 * SEGMENTS);
    // The warm-up cut, like every other cut, is the end of an event: the
    // instant at which the program turned to the work that follows.
    let start = snap(events, nominal.saturating_sub(1), look);
    let timed = events.len() - 1 - start;
    let mut cuts = vec![start];
    for k in 1..SEGMENTS {
        cuts.push(snap(events, start + timed * k / SEGMENTS, look));
    }
    cuts.push(events.len() - 1);
    let rates: Vec<f64> = cuts
        .windows(2)
        .filter(|w| w[1] > w[0] && events[w[1]].at > events[w[0]].at)
        .map(|w| {
            let ops: u64 = events[w[0] + 1..=w[1]].iter().map(|e| e.ops).sum();
            ops as f64 / (events[w[1]].at - events[w[0]].at)
        })
        .collect();
    Some(Throughput {
        ops_per_s: median(&rates),
        first_timed: start + 1,
    })
}
