//! Pivot selection.
//!
//! The paper uses FFT (farthest-first traversal, the k-center heuristic of
//! Hochbaum & Shmoys) as its pivot selector, with a random first pivot —
//! citing \[62\] that no universally optimal pivot selector exists. The CPU
//! version here is used by the EGNAT baseline and by tests; the GTS index
//! runs the same logic as device kernels in `gts-core`.

use crate::dist::Metric;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Farthest-first traversal over `ids` (indices into `items`): the first
/// pivot is seeded randomly, each subsequent pivot maximises the minimum
/// distance to the already-chosen pivots.
///
/// Returns `min(k, ids.len())` distinct positions *within `ids`*.
pub fn fft_select<O, M: Metric<O>>(
    items: &[O],
    ids: &[u32],
    metric: &M,
    k: usize,
    seed: u64,
) -> Vec<u32> {
    if ids.is_empty() || k == 0 {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let first = ids[rng.gen_range(0..ids.len())];
    let mut pivots = vec![first];
    // min distance from each candidate to the chosen pivot set
    let mut min_d: Vec<f64> = ids
        .iter()
        .map(|&i| metric.distance(&items[i as usize], &items[first as usize]))
        .collect();
    while pivots.len() < k.min(ids.len()) {
        let (best_pos, _) = min_d
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("NaN distance"))
            .expect("non-empty");
        let next = ids[best_pos];
        if pivots.contains(&next) {
            break; // all remaining candidates coincide with chosen pivots
        }
        pivots.push(next);
        for (pos, &i) in ids.iter().enumerate() {
            let d = metric.distance(&items[i as usize], &items[next as usize]);
            if d < min_d[pos] {
                min_d[pos] = d;
            }
        }
    }
    pivots
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::ItemMetric;
    use crate::object::Item;

    fn grid() -> Vec<Item> {
        // 2-d grid with two far-apart clusters.
        let mut v = Vec::new();
        for i in 0..5 {
            v.push(Item::vector(vec![i as f32, 0.0]));
            v.push(Item::vector(vec![i as f32 + 100.0, 0.0]));
        }
        v
    }

    #[test]
    fn fft_spreads_across_clusters() {
        let items = grid();
        let ids: Vec<u32> = (0..items.len() as u32).collect();
        let pivots = fft_select(&items, &ids, &ItemMetric::L2, 2, 42);
        assert_eq!(pivots.len(), 2);
        let a = items[pivots[0] as usize].as_vector().expect("vec")[0];
        let b = items[pivots[1] as usize].as_vector().expect("vec")[0];
        // One pivot per cluster: their x-coordinates differ by ~100.
        assert!((a - b).abs() > 90.0, "pivots {a} {b} not spread");
    }

    #[test]
    fn fft_deterministic_in_seed() {
        let items = grid();
        let ids: Vec<u32> = (0..items.len() as u32).collect();
        let a = fft_select(&items, &ids, &ItemMetric::L2, 3, 7);
        let b = fft_select(&items, &ids, &ItemMetric::L2, 3, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn fft_caps_at_population() {
        let items = grid();
        let ids: Vec<u32> = vec![0, 1, 2];
        let pivots = fft_select(&items, &ids, &ItemMetric::L2, 10, 7);
        assert!(pivots.len() <= 3);
        for p in &pivots {
            assert!(ids.contains(p));
        }
    }
}
