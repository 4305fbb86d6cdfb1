//! Linear scan: the trivial exact method, used as ground truth in tests and
//! as the conceptual floor for every comparison.
//!
//! The scan is **batched**: every query resolves all object payloads through
//! the flat [`ObjectArena`] in one [`BatchMetric::distance_batch`] call,
//! instead of touching the boxed objects pair by pair. Work charged to the CPU clock is the batch's
//! reported total — bit-identical to the per-pair sum, since the batch
//! kernels account per pair with the same work model.

use crate::clock::impl_cpu_clocked;
use gpu_sim::CpuClock;
use metric_space::index::{sort_neighbors, IndexError, Neighbor, SimilarityIndex};
use metric_space::{BatchMetric, Item, ItemMetric, ObjectArena};

/// Exact CPU linear scan over the whole dataset.
pub struct LinearScan {
    items: Vec<Item>,
    metric: ItemMetric,
    arena: Option<ObjectArena>,
    ids: Vec<u32>,
    pub(crate) clock: CpuClock,
}

impl LinearScan {
    /// Wrap a dataset (no construction work). Heterogeneous datasets get no
    /// arena and scan through the per-pair fallback.
    pub fn new(items: Vec<Item>, metric: ItemMetric) -> Self {
        let arena = metric.build_arena(&items);
        let ids = (0..items.len() as u32).collect();
        LinearScan {
            items,
            metric,
            arena,
            ids,
            clock: CpuClock::default(),
        }
    }

    /// One batched pass: distances from `q` to every object, in id order.
    fn scan(&self, q: &Item) -> Vec<f64> {
        let mut out = vec![0.0; self.items.len()];
        let (total, _span) =
            self.metric
                .distance_batch(&self.items, self.arena.as_ref(), q, &self.ids, &mut out);
        self.clock.charge(total);
        out
    }
}

impl SimilarityIndex<Item> for LinearScan {
    fn name(&self) -> &'static str {
        "Scan"
    }

    fn len(&self) -> usize {
        self.items.len()
    }

    fn range_query(&self, q: &Item, r: f64) -> Result<Vec<Neighbor>, IndexError> {
        let mut out: Vec<Neighbor> = self
            .scan(q)
            .into_iter()
            .enumerate()
            .filter_map(|(i, d)| (d <= r).then_some(Neighbor::new(i as u32, d)))
            .collect();
        sort_neighbors(&mut out);
        Ok(out)
    }

    fn knn_query(&self, q: &Item, k: usize) -> Result<Vec<Neighbor>, IndexError> {
        let mut all: Vec<Neighbor> = self
            .scan(q)
            .into_iter()
            .enumerate()
            .map(|(i, d)| Neighbor::new(i as u32, d))
            .collect();
        sort_neighbors(&mut all);
        all.truncate(k);
        Ok(all)
    }

    fn memory_bytes(&self) -> u64 {
        0 // no index structure
    }
}

impl_cpu_clocked!(LinearScan);

#[cfg(test)]
mod tests {
    use super::*;
    use metric_space::DatasetKind;

    #[test]
    fn range_and_knn_consistent() {
        let d = DatasetKind::Words.generate(100, 3);
        let scan = LinearScan::new(d.items.clone(), d.metric);
        let q = &d.items[5];
        let knn = scan.knn_query(q, 5).expect("knn");
        assert_eq!(knn.len(), 5);
        assert_eq!(knn[0].id, 5, "self is nearest");
        let r = knn.last().expect("k-th").dist;
        let range = scan.range_query(q, r).expect("range");
        assert!(range.len() >= 5, "range at k-th distance covers the kNN");
        assert!(range.windows(2).all(|w| w[0].dist <= w[1].dist));
    }

    #[test]
    fn clock_advances() {
        use crate::clock::Clocked;
        let d = DatasetKind::TLoc.generate(50, 3);
        let scan = LinearScan::new(d.items.clone(), d.metric);
        let m = scan.mark();
        scan.knn_query(&d.items[0], 3).expect("knn");
        assert!(scan.elapsed_since(m) > 0.0);
    }
}
