//! Multi-column similarity search (the Remark of paper §5.2).
//!
//! "Within the established PM-Tree framework, we can create a GTS index for
//! each column and address multi-column queries by progressively combining
//! the results of each queried attribute using Fagin's algorithm and the
//! pigeon-hole principle."
//!
//! A *row* has one object per column; the combined distance is the weighted
//! sum `D(a, b) = Σᵢ wᵢ·dᵢ(aᵢ, bᵢ)` (a metric whenever every `dᵢ` is).
//! Queries stay **exact**:
//!
//! * **MRQ** uses the pigeon-hole principle: `D(q, o) ≤ r` implies
//!   `wᵢ·dᵢ(qᵢ, oᵢ) ≤ r/m` for at least one of the `m` columns, so the union
//!   of per-column ranges at radius `r/(m·wᵢ)` is a complete candidate set,
//!   verified with full combined distances.
//! * **MkNNQ** runs Fagin's threshold algorithm: per-column kNN rounds with
//!   doubling depth supply candidates; the threshold
//!   `T = Σᵢ wᵢ·(depth-th column distance)` lower-bounds every unseen row,
//!   so once `k` seen rows have `D ≤ T`, the answer is final.

use crate::index::Gts;
use crate::params::GtsParams;
use gpu_sim::Device;
use metric_space::index::{sort_neighbors, IndexError, Neighbor, SimilarityIndex};
use metric_space::{BatchMetric, Footprint};
use std::collections::HashSet;
use std::sync::Arc;

/// A multi-column index: one GTS per attribute plus column weights.
pub struct MultiGts<O, M> {
    columns: Vec<Gts<O, M>>,
    weights: Vec<f64>,
    rows: usize,
}

impl<O, M> MultiGts<O, M>
where
    O: Clone + Send + Sync + Footprint,
    M: BatchMetric<O> + Clone,
{
    /// Build over column-major data: `columns[c][row]` is row `row`'s value
    /// in column `c`. All columns must have equal length; weights must be
    /// positive (use 1.0 for unweighted sums).
    pub fn build(
        dev: &Arc<Device>,
        columns: Vec<Vec<O>>,
        metrics: Vec<M>,
        weights: Vec<f64>,
        params: GtsParams,
    ) -> Result<Self, IndexError> {
        assert!(!columns.is_empty(), "need at least one column");
        assert_eq!(columns.len(), metrics.len(), "one metric per column");
        assert_eq!(columns.len(), weights.len(), "one weight per column");
        assert!(
            weights.iter().all(|&w| w > 0.0 && w.is_finite()),
            "weights must be positive and finite"
        );
        let rows = columns[0].len();
        assert!(columns.iter().all(|c| c.len() == rows), "ragged columns");
        let built: Result<Vec<_>, _> = columns
            .into_iter()
            .zip(metrics)
            .map(|(col, metric)| Gts::build(dev, col, metric, params))
            .collect();
        Ok(MultiGts {
            columns: built?,
            weights,
            rows,
        })
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when no rows are indexed.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Per-column index access (e.g. for stats).
    pub fn column(&self, c: usize) -> &Gts<O, M> {
        &self.columns[c]
    }

    /// Weighted combined distance of each row in `ids` to the query row:
    /// one batched kernel per column, summed per row in column order.
    fn combined_distances(&self, q: &[O], ids: &[u32]) -> Vec<f64> {
        let per_column: Vec<(f64, Vec<f64>)> = self
            .columns
            .iter()
            .zip(&self.weights)
            .zip(q)
            .map(|((col, &w), qc)| (w, col.distances_to(qc, ids)))
            .collect();
        (0..ids.len())
            .map(|i| per_column.iter().map(|(w, d)| w * d[i]).sum())
            .collect()
    }

    /// Exact multi-column range query: rows with `Σᵢ wᵢ·dᵢ ≤ r`.
    pub fn range_query(&self, q: &[O], r: f64) -> Result<Vec<Neighbor>, IndexError> {
        assert_eq!(q.len(), self.columns.len(), "query arity mismatch");
        let m = self.columns.len() as f64;
        // Pigeon-hole candidates: per-column MRQ at radius r/(m·wᵢ).
        let mut ids: Vec<u32> = Vec::new();
        for ((col, &w), qc) in self.columns.iter().zip(&self.weights).zip(q) {
            ids.extend(col.range_query(qc, r / (m * w))?.iter().map(|n| n.id));
        }
        ids.sort_unstable();
        ids.dedup();
        // Verify candidates with the full combined distance.
        let mut out: Vec<Neighbor> = ids
            .iter()
            .zip(self.combined_distances(q, &ids))
            .filter(|&(_, d)| d <= r)
            .map(|(&id, d)| Neighbor::new(id, d))
            .collect();
        sort_neighbors(&mut out);
        Ok(out)
    }

    /// Exact multi-column kNN via Fagin's threshold algorithm.
    pub fn knn_query(&self, q: &[O], k: usize) -> Result<Vec<Neighbor>, IndexError> {
        assert_eq!(q.len(), self.columns.len(), "query arity mismatch");
        if k == 0 || self.rows == 0 {
            return Ok(Vec::new());
        }
        let k = k.min(self.rows);
        let mut best: Vec<Neighbor> = Vec::new(); // ascending, capped at k
        let mut evaluated: HashSet<u32> = HashSet::new();
        let mut depth = (4 * k).max(16);
        loop {
            // Sorted access: per-column kNN to the current depth.
            let mut threshold = 0.0;
            for ((col, &w), qc) in self.columns.iter().zip(&self.weights).zip(q) {
                let front = col.knn_query(qc, depth.min(self.rows))?;
                // Random access: complete every newly seen row.
                let fresh: Vec<u32> = front
                    .iter()
                    .map(|n| n.id)
                    .filter(|&id| evaluated.insert(id))
                    .collect();
                for (&id, d) in fresh.iter().zip(self.combined_distances(q, &fresh)) {
                    let pos = best.partition_point(|x| (x.dist, x.id) < (d, id));
                    if pos < k {
                        best.insert(pos, Neighbor::new(id, d));
                        best.truncate(k);
                    }
                }
                // Fagin's threshold: no unseen row can beat Σ wᵢ·(depth-th).
                threshold += w * front.last().map_or(0.0, |n| n.dist);
            }
            let kth = if best.len() == k {
                best.last().map_or(f64::INFINITY, |n| n.dist)
            } else {
                f64::INFINITY
            };
            if kth <= threshold || depth >= self.rows {
                return Ok(best);
            }
            depth = (depth * 2).min(self.rows);
        }
    }

    /// Total index bytes across columns.
    pub fn memory_bytes(&self) -> u64 {
        self.columns.iter().map(SimilarityIndex::memory_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metric_space::{DatasetKind, Item, ItemMetric};

    /// A two-column table: a word attribute (edit distance) and a 2-d
    /// location attribute (L2), mirroring the paper's "diverse cancer omics"
    /// motivation of mixed-type rows.
    fn two_column_data(n: usize) -> (Vec<Vec<Item>>, Vec<ItemMetric>) {
        let words = DatasetKind::Words.generate(n, 61).items;
        let locs = DatasetKind::TLoc.generate(n, 62).items;
        (vec![words, locs], vec![ItemMetric::Edit, ItemMetric::L2])
    }

    fn brute_force(
        cols: &[Vec<Item>],
        metrics: &[ItemMetric],
        weights: &[f64],
        q: &[Item],
    ) -> Vec<Neighbor> {
        use metric_space::Metric as _;
        let n = cols[0].len();
        let mut v: Vec<Neighbor> = (0..n as u32)
            .map(|id| {
                let d = cols
                    .iter()
                    .zip(metrics)
                    .zip(weights)
                    .zip(q)
                    .map(|(((c, m), &w), qc)| w * m.distance(qc, &c[id as usize]))
                    .sum();
                Neighbor::new(id, d)
            })
            .collect();
        sort_neighbors(&mut v);
        v
    }

    #[test]
    fn multi_column_range_matches_bruteforce() {
        let (cols, metrics) = two_column_data(250);
        let weights = vec![1.0, 0.5];
        let dev = Device::rtx_2080_ti();
        let idx = MultiGts::build(
            &dev,
            cols.clone(),
            metrics.clone(),
            weights.clone(),
            GtsParams::default(),
        )
        .expect("build");
        // Two column builds: at n ≤ 250 every construction kernel fits one
        // wave of the device's cores, so the charge is launch and span
        // bound and the same for both tests' tables.
        assert_eq!(dev.cycles(), 16_002, "build cycles moved");
        let q = vec![cols[0][7].clone(), cols[1][7].clone()];
        let all = brute_force(&cols, &metrics, &weights, &q);
        for r in [all[5].dist, all[20].dist] {
            let got = idx.range_query(&q, r).expect("range");
            let want: Vec<Neighbor> = all.iter().copied().take_while(|n| n.dist <= r).collect();
            assert_eq!(got.len(), want.len(), "r={r}");
            for (g, w) in got.iter().zip(&want) {
                assert!((g.dist - w.dist).abs() < 1e-9);
            }
        }
        // Recorded once: the pigeon-hole range on each column and the
        // batched verification of their union, for both radii. A move here
        // is a change in what MRQ charges, not noise.
        assert_eq!(dev.cycles(), 83_196, "build + range cycles moved");
    }

    #[test]
    fn multi_column_knn_matches_bruteforce() {
        let (cols, metrics) = two_column_data(200);
        let weights = vec![0.3, 1.0];
        let dev = Device::rtx_2080_ti();
        let idx = MultiGts::build(
            &dev,
            cols.clone(),
            metrics.clone(),
            weights.clone(),
            GtsParams::default(),
        )
        .expect("build");
        // Two column builds: at n ≤ 250 every construction kernel fits one
        // wave of the device's cores, so the charge is launch and span
        // bound and the same for both tests' tables.
        assert_eq!(dev.cycles(), 16_002, "build cycles moved");
        let q = vec![cols[0][99].clone(), cols[1][99].clone()];
        let all = brute_force(&cols, &metrics, &weights, &q);
        for k in [1usize, 5, 12] {
            let got = idx.knn_query(&q, k).expect("knn");
            assert_eq!(got.len(), k);
            for (g, w) in got.iter().zip(&all) {
                assert!(
                    (g.dist - w.dist).abs() < 1e-9,
                    "k={k}: {} vs {}",
                    g.dist,
                    w.dist
                );
            }
        }
        // Recorded once, with candidates verified by one batched kernel per
        // column: Fagin's doubling kNN rounds on each column, each followed
        // by the batched verification of the rows it newly saw, for
        // k = 1, 5, 12. A move here is a change in what MkNNQ charges, not
        // noise.
        assert_eq!(dev.cycles(), 212_712, "build + kNN cycles moved");
    }

    #[test]
    fn knn_k_zero_and_oversized() {
        let (cols, metrics) = two_column_data(60);
        let dev = Device::rtx_2080_ti();
        let idx = MultiGts::build(
            &dev,
            cols.clone(),
            metrics,
            vec![1.0, 1.0],
            GtsParams::default(),
        )
        .expect("build");
        let q = vec![cols[0][0].clone(), cols[1][0].clone()];
        assert!(idx.knn_query(&q, 0).expect("k=0").is_empty());
        assert_eq!(idx.knn_query(&q, 500).expect("k>n").len(), 60);
        assert_eq!(idx.num_columns(), 2);
        assert_eq!(idx.len(), 60);
        assert!(idx.memory_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_columns_rejected() {
        let dev = Device::rtx_2080_ti();
        let _ = MultiGts::build(
            &dev,
            vec![
                vec![Item::text("a"), Item::text("b")],
                vec![Item::vector(vec![0.0, 0.0])],
            ],
            vec![ItemMetric::Edit, ItemMetric::L2],
            vec![1.0, 1.0],
            GtsParams::default(),
        );
    }
}
