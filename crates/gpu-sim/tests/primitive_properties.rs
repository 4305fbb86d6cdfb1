//! Property-based tests of the device primitives: the invariants every
//! index built on this device depends on.

use gpu_sim::primitives::{
    compact_indices, encode_f64_key, reduce_max_f64, sort_pairs_by_key, top_k_min,
};
use gpu_sim::{Device, DeviceConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn dev() -> std::sync::Arc<Device> {
    Device::new(DeviceConfig::rtx_2080_ti())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The f64→u64 encoding is strictly order-preserving on finite keys.
    #[test]
    fn encoding_is_order_preserving(a in -1e12f64..1e12, b in -1e12f64..1e12) {
        prop_assert_eq!(a < b, encode_f64_key(a) < encode_f64_key(b));
        prop_assert_eq!(a == b, encode_f64_key(a) == encode_f64_key(b));
    }

    /// Device sort = std stable sort by key (payload order preserved on
    /// equal keys), including duplicate-heavy and already-sorted inputs.
    #[test]
    fn sort_is_stable_and_correct(
        keys in proptest::collection::vec(-1e6f64..1e6, 0..400),
        dup_every in 1usize..8,
    ) {
        let d = dev();
        let mut pairs: Vec<(f64, u32)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (if i % dup_every == 0 { 0.5 } else { k }, i as u32))
            .collect();
        let mut expect = pairs.clone();
        expect.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite").then(std::cmp::Ordering::Equal));
        sort_pairs_by_key(&d, &mut pairs);
        // Keys ascend…
        prop_assert!(pairs.windows(2).all(|w| w[0].0 <= w[1].0));
        // …and equal keys keep input (payload) order: stability.
        for w in pairs.windows(2) {
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "stability violated: {:?}", w);
            }
        }
        // Same multiset of keys.
        let mut got_keys: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let mut want_keys: Vec<f64> = expect.iter().map(|p| p.0).collect();
        got_keys.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        want_keys.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        prop_assert_eq!(got_keys, want_keys);
    }

    /// The max reduction agrees with the sequential fold.
    #[test]
    fn reduce_max_matches_fold(xs in proptest::collection::vec(-1e9f64..1e9, 1..200)) {
        let d = dev();
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(reduce_max_f64(&d, &xs), max);
    }

    /// Compaction returns exactly the flagged indices, ascending.
    #[test]
    fn compaction_is_exact(keep in proptest::collection::vec(any::<bool>(), 0..300)) {
        let d = dev();
        let got = compact_indices(&d, &keep);
        let want: Vec<u32> = keep
            .iter()
            .enumerate()
            .filter_map(|(i, &k)| k.then_some(i as u32))
            .collect();
        prop_assert_eq!(got, want);
    }

    /// Dr.Top-k returns the true k smallest, in (key, index) order.
    #[test]
    fn topk_is_exact(keys in proptest::collection::vec(-1e6f64..1e6, 0..3000), k in 0usize..40) {
        let d = dev();
        let got = top_k_min(&d, &keys, k);
        let mut want: Vec<u32> = (0..keys.len() as u32).collect();
        want.sort_by(|&a, &b| {
            keys[a as usize]
                .partial_cmp(&keys[b as usize])
                .expect("finite")
                .then(a.cmp(&b))
        });
        want.truncate(k.min(keys.len()));
        prop_assert_eq!(got, want);
    }

    /// Work–span charging: cycles are monotone in work and bounded below by
    /// both ⌈W/C⌉ and the span.
    #[test]
    fn charge_kernel_bounds(work in 0u64..10_000_000, span in 0u64..100_000) {
        let d = dev();
        let c0 = d.cycles();
        d.charge_kernel(work, span);
        let delta = d.cycles() - c0 - d.config().kernel_launch_cycles;
        let cores = u64::from(d.config().cores);
        prop_assert_eq!(delta, (work.div_ceil(cores)).max(span));
    }
}

/// Allocation stress with randomized interleavings must never corrupt the
/// accounting (ends at exactly zero live bytes).
#[test]
fn allocator_accounting_fuzz() {
    let d = Device::new(DeviceConfig {
        global_mem_bytes: 1 << 20,
        ..DeviceConfig::rtx_2080_ti()
    });
    let mut rng = StdRng::seed_from_u64(99);
    let mut live = Vec::new();
    for _ in 0..2_000 {
        if rng.gen_bool(0.6) || live.is_empty() {
            let len = rng.gen_range(1..4096usize);
            if let Ok(buf) = d.reserve(len as u64, "fuzz") {
                live.push(buf);
            }
        } else {
            let idx = rng.gen_range(0..live.len());
            live.swap_remove(idx);
        }
        assert!(d.allocated_bytes() <= d.config().global_mem_bytes);
    }
    drop(live);
    assert_eq!(d.allocated_bytes(), 0, "accounting must return to zero");
}
