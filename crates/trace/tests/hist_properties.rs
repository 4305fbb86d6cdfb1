//! Property tests for [`LatencyHistogram`]: quantiles are monotone and
//! exact at the boundaries, and merging equals recording.

use gts_trace::LatencyHistogram;
use proptest::prelude::*;

fn record_all(samples: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::default();
    for &v in samples {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Quantiles are monotone in `q` and pinned to min/max at the ends.
    #[test]
    fn quantiles_are_monotone_and_boundary_exact(
        xs in proptest::collection::vec(0u64..1 << 48, 1..128),
    ) {
        let h = record_all(&xs);
        prop_assert_eq!(h.quantile(0.0), *xs.iter().min().expect("nonempty"));
        prop_assert_eq!(h.quantile(1.0), *xs.iter().max().expect("nonempty"));
        let mut prev = 0u64;
        for i in 0..=20 {
            let q = f64::from(i) / 20.0;
            let v = h.quantile(q);
            prop_assert!(v >= prev, "quantile not monotone at q = {}", q);
            prev = v;
        }
    }

    /// Merging the histograms of two halves of a sample vector, split
    /// anywhere (empty halves included), equals recording the whole vector.
    #[test]
    fn merge_of_split_halves_equals_recording_all(
        xs in proptest::collection::vec(0u64..1 << 48, 0..128),
        cut in 0usize..=128,
    ) {
        let (a, b) = xs.split_at(cut.min(xs.len()));
        let mut merged = record_all(a);
        merged.merge(&record_all(b));
        prop_assert_eq!(merged, record_all(&xs));
    }
}
