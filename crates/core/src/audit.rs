//! The cost-model audit: does §5.2/§5.3 batch sizing predict reality?
//!
//! [`CostModel::max_batch_queries`] admits a batch by dividing each
//! layer's memory bound by the Chebyshev survivor estimate
//! ([`CostModel::expected_frontier`]). This module holds that prediction
//! against what the descent engine actually observes — per-level frontier
//! survivors and peak intermediate-buffer bytes — and distils the
//! comparison into a **calibration histogram** of
//! `100 · observed / predicted` percentages per level step (100 = the
//! model was exact; below 100 = pruning beat the Chebyshev bound, the
//! model is conservative; above 100 = survivors exceeded the estimate,
//! the batch was sized optimistically and the in-search grouping is the
//! safety net).
//!
//! The audit follows the observability contract of `gts-trace` and
//! `gts-metrics`: it only *reads* engine state already computed (frontier
//! lengths, allocation sizes), never charges a cycle or touches an
//! answer. It has no switch: it records whenever a plan is installed —
//! whenever cost-model sizing made a prediction there is something to
//! check — and an index no sizing pass ran on pays one uncontended lock
//! per level.

use crate::cost::CostModel;
use crate::search::FRONTIER_ENTRY_BYTES;
use gts_trace::LatencyHistogram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The prediction under audit: the fitted model and the batch size it
/// admitted, frozen at sizing time.
#[derive(Clone, Copy, Debug)]
pub struct AuditPlan {
    /// The fitted cost model the batch was sized with.
    pub model: CostModel,
    /// Node capacity of the audited tree.
    pub nc: u32,
    /// Height of the audited tree.
    pub h: u32,
    /// Radius hint the sizing used.
    pub radius: f64,
    /// The batch size [`CostModel::max_batch_queries`] admitted.
    pub predicted_batch: usize,
}

impl AuditPlan {
    /// Predicted frontier entries entering `level` for a batch of
    /// `queries`: the per-query Chebyshev estimate times the batch width.
    pub fn predicted_frontier(&self, queries: u64, level: u32) -> u64 {
        (queries as f64 * self.model.expected_frontier(self.nc, self.radius, level)).ceil() as u64
    }

    /// Predicted peak intermediate-buffer bytes for the admitted batch:
    /// the largest per-level expansion buffer (`frontier · Nc` entries)
    /// over the tree's expansion levels.
    pub fn predicted_peak_bytes(&self) -> u64 {
        (1..self.h.max(1))
            .map(|level| {
                self.predicted_frontier(self.predicted_batch as u64, level)
                    * u64::from(self.nc)
                    * FRONTIER_ENTRY_BYTES as u64
            })
            .max()
            .unwrap_or(0)
    }
}

#[derive(Default)]
struct AuditInner {
    plan: Option<AuditPlan>,
    calibration_pct: LatencyHistogram,
}

/// Per-index audit state. Owned by every `Gts`; records whenever a plan
/// is installed.
#[derive(Default)]
pub struct CostAudit {
    levels_observed: AtomicU64,
    overpredicted: AtomicU64,
    underpredicted: AtomicU64,
    peak_frontier_bytes: AtomicU64,
    inner: Mutex<AuditInner>,
}

impl CostAudit {
    /// Install the prediction to audit against (called by the batch
    /// sizing path whenever a cost model is fitted); from here on every
    /// descent is held against it.
    pub fn install(&self, plan: AuditPlan) {
        self.inner.lock().expect("audit lock").plan = Some(plan);
    }

    /// The currently installed plan, if a sizing pass has run.
    pub fn plan(&self) -> Option<AuditPlan> {
        self.inner.lock().expect("audit lock").plan
    }

    /// Record one level observation: `observed` frontier entries entered
    /// `level` while descending a batch of `queries`, about to fill an
    /// expansion buffer of `expansion_bytes` (`None` on the leaf level;
    /// the audit keeps the high-water mark). No-op before any plan is
    /// installed — there is no prediction to hold them against.
    pub(crate) fn observe_level(
        &self,
        level: u32,
        queries: u64,
        observed: u64,
        expansion_bytes: Option<u64>,
    ) {
        let mut inner = self.inner.lock().expect("audit lock");
        let Some(plan) = inner.plan else { return };
        let predicted = plan.predicted_frontier(queries, level).max(1);
        let pct = (observed as f64 * 100.0 / predicted as f64).round() as u64;
        inner.calibration_pct.record(pct);
        drop(inner);
        if let Some(bytes) = expansion_bytes {
            self.peak_frontier_bytes.fetch_max(bytes, Ordering::Relaxed);
        }
        self.levels_observed.fetch_add(1, Ordering::Relaxed);
        if observed > predicted {
            self.underpredicted.fetch_add(1, Ordering::Relaxed);
        } else if observed < predicted {
            self.overpredicted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Point-in-time view of the audit.
    pub fn snapshot(&self) -> CostAuditSnapshot {
        let inner = self.inner.lock().expect("audit lock");
        CostAuditSnapshot {
            predicted_batch: inner.plan.map_or(0, |p| p.predicted_batch),
            predicted_peak_bytes: inner.plan.map_or(0, |p| p.predicted_peak_bytes()),
            levels_observed: self.levels_observed.load(Ordering::Relaxed),
            overpredicted: self.overpredicted.load(Ordering::Relaxed),
            underpredicted: self.underpredicted.load(Ordering::Relaxed),
            peak_frontier_bytes: self.peak_frontier_bytes.load(Ordering::Relaxed),
            calibration_pct: inner.calibration_pct.clone(),
        }
    }
}

/// Snapshot of a [`CostAudit`], foldable across shards.
#[derive(Clone, Debug, Default)]
pub struct CostAuditSnapshot {
    /// The admitted batch size under audit (0 before any sizing pass;
    /// the minimum across shards after a fold — the batch the service
    /// actually formed).
    pub predicted_batch: usize,
    /// Predicted peak intermediate bytes for that batch (max across
    /// shards after a fold).
    pub predicted_peak_bytes: u64,
    /// Level observations recorded.
    pub levels_observed: u64,
    /// Levels where pruning beat the prediction (model conservative).
    pub overpredicted: u64,
    /// Levels where survivors exceeded the prediction (model
    /// optimistic — the regime where in-search grouping must catch the
    /// overrun).
    pub underpredicted: u64,
    /// Largest intermediate expansion buffer actually allocated, bytes.
    pub peak_frontier_bytes: u64,
    /// Calibration distribution: `100·observed/predicted` per level
    /// observation. `quantile(0.5)` near 100 means the model tracks
    /// reality.
    pub calibration_pct: LatencyHistogram,
}

impl CostAuditSnapshot {
    /// Fold another shard's audit in: counters sum, histograms merge,
    /// peaks max, and `predicted_batch` takes the minimum of the
    /// non-zero values (the batch size the cross-shard sizing admits).
    pub fn combine(mut self, other: CostAuditSnapshot) -> CostAuditSnapshot {
        self.predicted_batch = match (self.predicted_batch, other.predicted_batch) {
            (0, b) => b,
            (a, 0) => a,
            (a, b) => a.min(b),
        };
        self.predicted_peak_bytes = self.predicted_peak_bytes.max(other.predicted_peak_bytes);
        self.levels_observed += other.levels_observed;
        self.overpredicted += other.overpredicted;
        self.underpredicted += other.underpredicted;
        self.peak_frontier_bytes = self.peak_frontier_bytes.max(other.peak_frontier_bytes);
        self.calibration_pct.merge(&other.calibration_pct);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> AuditPlan {
        AuditPlan {
            model: CostModel {
                n: 10_000,
                cores: 4352,
                sigma: 1.0,
                distance_work: 50.0,
            },
            nc: 20,
            h: 4,
            radius: 2.0,
            predicted_batch: 64,
        }
    }

    #[test]
    fn no_plan_records_nothing() {
        let audit = CostAudit::default();
        audit.observe_level(1, 8, 100, Some(1 << 20));
        let snap = audit.snapshot();
        assert_eq!(snap.levels_observed, 0);
        assert_eq!(snap.calibration_pct.count(), 0);
        assert_eq!(snap.peak_frontier_bytes, 0);
        assert_eq!(snap.predicted_batch, 0, "no sizing pass, no prediction");
    }

    #[test]
    fn calibration_pct_is_100_when_the_model_is_exact() {
        let audit = CostAudit::default();
        let p = plan();
        audit.install(p);
        // Feed the audit exactly what the model predicts at each level.
        for level in 1..=p.h {
            audit.observe_level(level, 8, p.predicted_frontier(8, level), None);
        }
        let snap = audit.snapshot();
        assert_eq!(snap.levels_observed, u64::from(p.h));
        assert_eq!(snap.overpredicted, 0);
        assert_eq!(snap.underpredicted, 0);
        assert_eq!(snap.calibration_pct.quantile(0.5), 100);
        assert_eq!(snap.calibration_pct.min(), 100);
        assert_eq!(snap.calibration_pct.max(), 100);
    }

    #[test]
    fn over_and_under_prediction_are_counted() {
        let audit = CostAudit::default();
        let p = plan();
        audit.install(p);
        let exact = p.predicted_frontier(8, 2);
        audit.observe_level(2, 8, exact / 2, None); // pruning beat the model
        audit.observe_level(2, 8, exact * 3, None); // model was optimistic
        let snap = audit.snapshot();
        assert_eq!(snap.overpredicted, 1);
        assert_eq!(snap.underpredicted, 1);
        assert!(snap.calibration_pct.min() <= 50);
        assert!(snap.calibration_pct.max() >= 300);
    }

    #[test]
    fn peak_bytes_is_a_high_water_mark() {
        let audit = CostAudit::default();
        audit.install(plan());
        for bytes in [100, 5000, 400] {
            audit.observe_level(1, 8, 8, Some(bytes));
        }
        assert_eq!(audit.snapshot().peak_frontier_bytes, 5000);
    }

    #[test]
    fn combine_folds_shards() {
        let a = CostAudit::default();
        let b = CostAudit::default();
        for audit in [&a, &b] {
            audit.install(plan());
        }
        a.observe_level(1, 4, 4, Some(1000));
        b.observe_level(1, 4, 8, Some(2000));
        let mut pb = plan();
        pb.predicted_batch = 32;
        b.install(pb);
        let folded = a.snapshot().combine(b.snapshot());
        assert_eq!(folded.levels_observed, 2);
        assert_eq!(folded.peak_frontier_bytes, 2000);
        assert_eq!(folded.predicted_batch, 32, "min of the shard predictions");
        assert_eq!(folded.calibration_pct.count(), 2);
    }

    #[test]
    fn predicted_peak_bytes_covers_the_widest_level() {
        let p = plan();
        let by_level: Vec<u64> = (1..p.h)
            .map(|l| {
                p.predicted_frontier(p.predicted_batch as u64, l)
                    * u64::from(p.nc)
                    * FRONTIER_ENTRY_BYTES as u64
            })
            .collect();
        assert_eq!(
            p.predicted_peak_bytes(),
            by_level.into_iter().max().expect("levels"),
        );
    }
}
