//! The search cost model (paper §5.3) and the node-capacity recommendation
//! it drives.
//!
//! For a single MRQ the paper bounds the per-level survivor count via
//! Chebyshev's inequality: treating the pivot-mapped coordinate as a random
//! variable with variance `σ²`, an object survives level `i` with
//! probability at least `(1 − 2σ²/r²)^i` (Eq. 2–3), giving the level-wise
//! cost `Σ_i i² · ⌈Nc^i·p^i / C⌉ · log₂ Nc`. The model exposes the paper's
//! three regimes (n ≪ C, n ≫ C, n ≈ C) and recommends `Nc` by scanning the
//! candidate set of Table 3 — the experiments of Fig. 6 validate that small
//! `Nc` (≈20) wins on real datasets.

/// Inputs of the cost model.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Dataset cardinality.
    pub n: usize,
    /// GPU concurrent computing power `C` (core count).
    pub cores: u32,
    /// Standard deviation σ of the pivot-mapped coordinate (fitted by
    /// `Gts::cost_model` from one sampled pivot's distances).
    pub sigma: f64,
    /// Average work units per distance evaluation (metric cost).
    pub distance_work: f64,
}

/// The three analysis regimes of §5.3's discussion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Regime {
    /// `n ≪ C`: compute power exceeds data size — larger `Nc` (lower tree)
    /// wins.
    ComputeRich,
    /// `n ≫ C`: data dwarfs compute — smaller `Nc` (more pruning) wins.
    ComputeBound,
    /// `n ≈ C`: balanced; a relatively small `Nc` is suggested.
    Balanced,
}

impl CostModel {
    /// Survivor probability per level: Chebyshev's lower bound on
    /// "not pruned", `max(1 − 2σ²/r², floor)` (Eq. 3). Clamped because the
    /// bound is vacuous for `r < σ√2`; the floor keeps the model monotone
    /// and usable for optimisation.
    pub fn survive_probability(&self, r: f64) -> f64 {
        if r <= 0.0 {
            return 0.05;
        }
        (1.0 - 2.0 * self.sigma * self.sigma / (r * r)).clamp(0.05, 1.0)
    }

    /// Estimated MRQ cost (device cycles, up to a constant) for node
    /// capacity `nc` and radius `r` — the paper's
    /// `Σ_i i²·⌈S_i/C⌉·log₂ Nc` with `S_i = min(Nc^i, n)·p^i` intermediate
    /// results, each paying one distance evaluation.
    pub fn mrq_cost(&self, nc: u32, r: f64) -> f64 {
        assert!(nc >= 2);
        let p = self.survive_probability(r);
        let c = f64::from(self.cores);
        let levels = (self.n as f64 + 1.0).log(f64::from(nc)).ceil().max(1.0) as u32;
        let mut cost = 0.0;
        let mut width = 1.0f64; // nodes at level i
        for i in 1..=levels {
            width = (width * f64::from(nc)).min(self.n as f64);
            let survivors = width * p.powi(i as i32);
            let work = survivors * self.distance_work;
            cost += f64::from(i) * f64::from(i) * (work / c).ceil() * f64::from(nc).log2();
        }
        cost
    }

    /// Estimated construction cost: `h` rounds of one distance pass plus one
    /// global sort — `O(⌈n/C⌉·log₂ n)` per level, `O(log³ n)` when `C ≈ n`
    /// (paper §4.5).
    pub fn construction_cost(&self, nc: u32) -> f64 {
        let c = f64::from(self.cores);
        let n = self.n as f64;
        let levels = (n + 1.0).log(f64::from(nc)).ceil().max(1.0);
        levels * ((n * self.distance_work / c).ceil() + (n / c).ceil() * n.log2().max(1.0))
    }

    /// Which §5.3 regime the configuration falls into.
    pub fn regime(&self) -> Regime {
        let n = self.n as f64;
        let c = f64::from(self.cores);
        if n < c / 4.0 {
            Regime::ComputeRich
        } else if n > c * 4.0 {
            Regime::ComputeBound
        } else {
            Regime::Balanced
        }
    }

    /// Recommend a node capacity from `candidates` (Table 3's sweep by
    /// default) for radius `r`, by minimising [`Self::mrq_cost`].
    pub fn recommend_nc(&self, r: f64, candidates: &[u32]) -> u32 {
        let cands: &[u32] = if candidates.is_empty() {
            &[10, 20, 40, 80, 160, 320]
        } else {
            candidates
        };
        *cands
            .iter()
            .min_by(|&&a, &&b| {
                self.mrq_cost(a, r)
                    .partial_cmp(&self.mrq_cost(b, r))
                    .expect("finite costs")
            })
            .expect("non-empty candidates")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(n: usize) -> CostModel {
        CostModel {
            n,
            cores: 4352,
            sigma: 1.0,
            distance_work: 100.0,
        }
    }

    #[test]
    fn survive_probability_clamped_and_monotone() {
        let m = model(100_000);
        assert_eq!(m.survive_probability(0.0), 0.05);
        let p_small = m.survive_probability(1.0);
        let p_big = m.survive_probability(100.0);
        assert!(p_small <= p_big);
        assert!(p_big <= 1.0 && p_small >= 0.05);
    }

    #[test]
    fn regimes() {
        assert_eq!(model(100).regime(), Regime::ComputeRich);
        assert_eq!(model(10_000_000).regime(), Regime::ComputeBound);
        assert_eq!(model(4352).regime(), Regime::Balanced);
    }

    #[test]
    fn compute_bound_prefers_small_nc() {
        // n ≫ C with selective radius: pruning dominates, small Nc wins —
        // matching Fig. 6's empirical optimum at Nc = 10–20.
        let m = model(10_000_000);
        let nc = m.recommend_nc(1.8, &[10, 20, 40, 80, 160, 320]);
        assert!(nc <= 40, "expected small capacity, got {nc}");
    }

    #[test]
    fn cost_increases_with_n() {
        let small = model(10_000).mrq_cost(20, 2.0);
        let big = model(10_000_000).mrq_cost(20, 2.0);
        assert!(big > small);
    }

    #[test]
    fn construction_cost_scales_and_is_finite() {
        let m = model(1_000_000);
        let c10 = m.construction_cost(10);
        let c320 = m.construction_cost(320);
        assert!(c10.is_finite() && c320.is_finite());
        assert!(c10 > c320, "fewer levels with bigger fanout");
    }

    #[test]
    fn recommend_handles_empty_candidates() {
        let m = model(100_000);
        let nc = m.recommend_nc(2.0, &[]);
        assert!([10, 20, 40, 80, 160, 320].contains(&nc));
    }
}
