//! Property tests for [`LatencyHistogram`]: `merge` must be *exactly* the
//! histogram of the concatenated sample streams — it backs every
//! cross-shard aggregation in the trace summary and the cost audit, and
//! every scrape renders those histograms, so an off-by-one here silently
//! skews every p99.

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

    /// `a.merge(&b)` is bit-identical to recording `a ++ b` into one
    /// histogram — counts, sum, min/max, and every quantile.
    #[test]
    fn merge_equals_recording_the_concatenated_streams(
        xs in proptest::collection::vec(0u64..1 << 48, 0..64),
        ys in proptest::collection::vec(0u64..1 << 48, 0..64),
    ) {
        let mut merged = record_all(&xs);
        merged.merge(&record_all(&ys));
        let mut both = xs.clone();
        both.extend_from_slice(&ys);
        let direct = record_all(&both);
        prop_assert_eq!(&merged, &direct, "merge deviates from concatenation");
        for q in [0.0f64, 0.25, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(merged.quantile(q), direct.quantile(q), "q = {}", q);
        }
    }

    /// Merging in either order gives the same histogram (commutativity),
    /// and merging an empty histogram is the identity.
    #[test]
    fn merge_is_commutative_with_empty_identity(
        xs in proptest::collection::vec(0u64..1 << 48, 0..64),
        ys in proptest::collection::vec(0u64..1 << 48, 0..64),
    ) {
        let (a, b) = (record_all(&xs), record_all(&ys));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);
        let mut with_empty = a.clone();
        with_empty.merge(&LatencyHistogram::default());
        prop_assert_eq!(&with_empty, &a);
    }

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
}
