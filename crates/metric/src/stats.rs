//! Sampled distance statistics for query workloads.
//!
//! The experiment harness converts the paper's radius parameter
//! ("r × 0.01%") into an absolute radius. We interpret it as *selectivity*:
//! `MRQ(q, r)` returns about `r × 0.01%` of the dataset — the convention of
//! the authors' earlier metric-indexing studies, and the only reading under
//! which edit-distance radii are non-degenerate (an absolute radius of a
//! few edits would return almost nothing or almost everything). It also
//! samples perturbed query workloads.

use crate::dataset::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Radius whose expected selectivity is `fraction` of the dataset:
/// the `fraction`-quantile of `d(q, o)` over sampled query/object pairs.
///
/// `fraction = r_param × 1e-4` translates the paper's "r (×0.01%)" axis.
pub fn radius_for_selectivity(data: &Dataset, fraction: f64, samples: usize, seed: u64) -> f64 {
    assert!(fraction > 0.0 && fraction <= 1.0);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e1ec7);
    let n = data.len() as u32;
    let mut ds: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let q = rng.gen_range(0..n);
        let o = rng.gen_range(0..n);
        ds.push(data.distance(q, o));
    }
    ds.sort_by(|a, b| a.partial_cmp(b).expect("NaN"));
    let idx = ((ds.len() as f64 * fraction).ceil() as usize).clamp(1, ds.len()) - 1;
    // Never collapse to zero radius (duplicate-heavy data): fall back to the
    // smallest positive sampled distance.
    let r = ds[idx];
    if r > 0.0 {
        r
    } else {
        ds.iter().copied().find(|&d| d > 0.0).unwrap_or(0.0)
    }
}

/// A deterministic query workload: `count` objects sampled from the dataset
/// and slightly perturbed (queries are near, not identical to, data).
pub fn sample_queries(data: &Dataset, count: usize, seed: u64) -> Vec<crate::object::Item> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9f);
    (0..count)
        .map(|i| {
            let id = rng.gen_range(0..data.len() as u32);
            crate::gen::perturb(data.item(id), seed.wrapping_add(i as u64))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetKind;
    use crate::dist::Metric;

    #[test]
    fn selectivity_radius_monotone() {
        let d = DatasetKind::TLoc.generate(800, 3);
        let r1 = radius_for_selectivity(&d, 0.001, 600, 2);
        let r2 = radius_for_selectivity(&d, 0.01, 600, 2);
        let r3 = radius_for_selectivity(&d, 0.10, 600, 2);
        assert!(r1 <= r2 && r2 <= r3, "{r1} {r2} {r3}");
        assert!(r3 > 0.0);
    }

    #[test]
    fn selectivity_radius_roughly_calibrated() {
        // With 5% selectivity, MRQs around random objects should return on
        // the order of 5% of objects *on average*. T-Loc is heavily
        // clustered, so individual queries vary wildly; average over many
        // and accept a wide band.
        let d = DatasetKind::TLoc.generate(1000, 9);
        let r = radius_for_selectivity(&d, 0.05, 800, 4);
        let mut total = 0usize;
        let probes = 50usize;
        for qi in 0..probes {
            let q = d.item((qi * 19) as u32).clone();
            total += d
                .items
                .iter()
                .filter(|o| d.metric.distance(&q, o) <= r)
                .count();
        }
        let avg = total as f64 / probes as f64;
        assert!((1.0..=600.0).contains(&avg), "avg hits = {avg}");
    }

    #[test]
    fn queries_deterministic() {
        let d = DatasetKind::Words.generate(300, 3);
        assert_eq!(sample_queries(&d, 10, 5), sample_queries(&d, 10, 5));
    }
}
