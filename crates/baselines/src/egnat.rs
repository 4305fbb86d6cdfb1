//! EGNAT — the evolutionary/dynamic GNAT of Marín, Uribe & Barrientos
//! \[44, 48\]: hyperplane partitioning around `M` split points per node, with
//! an `M×M` table of distance ranges used for pruning.
//!
//! EGNAT's pre-computed range tables make it the memory-hungriest CPU
//! baseline by far (Table 4: 430 MB on Words vs GTS's 2.6 MB, and an
//! outright OOM on T-Loc). Construction therefore takes an optional
//! **host-memory budget** and fails with `IndexError::OutOfMemory` when the
//! accumulating structure exceeds it — reproducing the `/` entries.

use crate::clock::impl_cpu_clocked;
use gpu_sim::CpuClock;
use metric_space::index::{
    sort_neighbors, DynamicIndex, IndexError, Neighbor, SimilarityIndex, TopK,
};
use metric_space::pivot::fft_select;
use metric_space::{Item, ItemMetric, Metric};

const SPLITS: usize = 16;
const LEAF_CAP: usize = 32;

enum GnatNode {
    Internal {
        splits: Vec<u32>,
        /// `ranges[i * m + j]` = (min, max) of `d(o, splits[i])` over the
        /// objects of child `j`.
        ranges: Vec<(f64, f64)>,
        children: Vec<u32>,
    },
    Leaf {
        objs: Vec<u32>,
        /// Distance from each object to the parent split point (EGNAT's
        /// per-leaf cache enabling one extra filter).
        parent_d: Vec<f64>,
    },
}

/// EGNAT over [`Item`]s.
pub struct Egnat {
    items: Vec<Item>,
    metric: ItemMetric,
    live: Vec<bool>,
    nodes: Vec<GnatNode>,
    root: u32,
    bytes: u64,
    budget: Option<u64>,
    build_seconds: f64,
    pub(crate) clock: CpuClock,
}

impl Egnat {
    /// Build with no memory budget.
    pub fn build(items: Vec<Item>, metric: ItemMetric) -> Result<Self, IndexError> {
        Self::build_with_budget(items, metric, None)
    }

    /// Build, failing with `OutOfMemory` if the index structure would exceed
    /// `budget` bytes (models the paper's host-memory failures).
    pub fn build_with_budget(
        items: Vec<Item>,
        metric: ItemMetric,
        budget: Option<u64>,
    ) -> Result<Self, IndexError> {
        let mut t = Egnat {
            live: vec![true; items.len()],
            items,
            metric,
            nodes: Vec::new(),
            root: 0,
            bytes: 0,
            budget,
            build_seconds: 0.0,
            clock: CpuClock::default(),
        };
        let ids: Vec<u32> = (0..t.items.len() as u32).collect();
        t.root = t.build_node(ids, None)?;
        t.build_seconds = t.clock.seconds();
        Ok(t)
    }

    fn dist(&self, a: u32, b: &Item) -> f64 {
        let ai = &self.items[a as usize];
        self.clock.charge(self.metric.work(ai, b));
        self.metric.distance(ai, b)
    }

    fn charge_bytes(&mut self, b: u64) -> Result<(), IndexError> {
        self.bytes += b;
        if let Some(budget) = self.budget {
            if self.bytes > budget {
                return Err(IndexError::OutOfMemory {
                    requested: self.bytes,
                    available: budget,
                    context: "EGNAT host budget",
                });
            }
        }
        Ok(())
    }

    fn build_node(&mut self, ids: Vec<u32>, parent_split: Option<u32>) -> Result<u32, IndexError> {
        if ids.len() <= LEAF_CAP.max(SPLITS) {
            let parent_d = match parent_split {
                Some(p) => ids
                    .iter()
                    .map(|&o| self.dist(p, &self.items[o as usize]))
                    .collect(),
                None => vec![0.0; ids.len()],
            };
            self.charge_bytes(12 * ids.len() as u64 + 16)?;
            self.nodes.push(GnatNode::Leaf {
                objs: ids,
                parent_d,
            });
            return Ok((self.nodes.len() - 1) as u32);
        }
        // Split points by farthest-first traversal (charged).
        let splits = fft_select(
            &self.items,
            &ids,
            &self.metric,
            SPLITS,
            0x9e47 ^ ids.len() as u64,
        );
        for &s in &splits {
            for &o in &ids {
                // fft_select computed these internally; charge them here so
                // the clock reflects the real FFT cost.
                self.clock.charge(
                    self.metric
                        .work(&self.items[s as usize], &self.items[o as usize]),
                );
            }
        }
        let m = splits.len();
        // Assign each object to its nearest split point, recording the full
        // distance row to fill the range table.
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); m];
        let mut ranges = vec![(f64::INFINITY, f64::NEG_INFINITY); m * m];
        for &o in &ids {
            let row: Vec<f64> = splits
                .iter()
                .map(|&s| self.dist(s, &self.items[o as usize]))
                .collect();
            let (j, _) = row
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("NaN"))
                .expect("non-empty row");
            buckets[j].push(o);
            for (i, &d) in row.iter().enumerate() {
                let r = &mut ranges[i * m + j];
                r.0 = r.0.min(d);
                r.1 = r.1.max(d);
            }
        }
        self.charge_bytes((m * m * 16 + m * 8) as u64)?;
        // Degenerate split (duplicates): flat leaf fallback.
        if buckets.iter().filter(|b| !b.is_empty()).count() <= 1 {
            let parent_d = vec![0.0; ids.len()];
            self.charge_bytes(12 * ids.len() as u64)?;
            self.nodes.push(GnatNode::Leaf {
                objs: ids,
                parent_d,
            });
            return Ok((self.nodes.len() - 1) as u32);
        }
        let mut children = Vec::with_capacity(m);
        for (j, bucket) in buckets.into_iter().enumerate() {
            let child = self.build_node(bucket, Some(splits[j]))?;
            children.push(child);
        }
        self.nodes.push(GnatNode::Internal {
            splits,
            ranges,
            children,
        });
        Ok((self.nodes.len() - 1) as u32)
    }

    /// Simulated seconds spent constructing.
    pub fn build_seconds(&self) -> f64 {
        self.build_seconds
    }

    fn range_rec(&self, node: u32, q: &Item, r: f64, out: &mut Vec<Neighbor>) {
        match &self.nodes[node as usize] {
            GnatNode::Leaf { objs, .. } => {
                for &o in objs {
                    if !self.live[o as usize] {
                        continue;
                    }
                    let d = self.dist(o, q);
                    if d <= r {
                        out.push(Neighbor::new(o, d));
                    }
                }
            }
            GnatNode::Internal {
                splits,
                ranges,
                children,
            } => {
                let m = splits.len();
                let mut alive = vec![true; m];
                for (i, &s) in splits.iter().enumerate() {
                    if !alive.iter().any(|&a| a) {
                        break;
                    }
                    let di = self.dist(s, q);
                    for (j, a) in alive.iter_mut().enumerate() {
                        if !*a {
                            continue;
                        }
                        let (lo, hi) = ranges[i * m + j];
                        if lo > hi {
                            *a = false; // empty child
                        } else if di + r < lo || di - r > hi {
                            *a = false; // GNAT range prune
                        }
                    }
                }
                for (j, &c) in children.iter().enumerate() {
                    if alive[j] {
                        self.range_rec(c, q, r, out);
                    }
                }
            }
        }
    }

    fn knn_rec(&self, node: u32, q: &Item, pool: &mut TopK) {
        match &self.nodes[node as usize] {
            GnatNode::Leaf { objs, parent_d } => {
                let _ = parent_d;
                for &o in objs {
                    if !self.live[o as usize] {
                        continue;
                    }
                    pool.insert(Neighbor::new(o, self.dist(o, q)));
                }
            }
            GnatNode::Internal {
                splits,
                ranges,
                children,
            } => {
                let m = splits.len();
                let mut alive = vec![true; m];
                let mut dqs = vec![f64::INFINITY; m];
                for (i, &s) in splits.iter().enumerate() {
                    let di = self.dist(s, q);
                    dqs[i] = di;
                    if self.live[s as usize] {
                        pool.insert(Neighbor::new(s, di));
                    }
                    let b = pool.bound();
                    for (j, a) in alive.iter_mut().enumerate() {
                        if !*a {
                            continue;
                        }
                        let (lo, hi) = ranges[i * m + j];
                        if lo > hi || di + b <= lo || di - b >= hi {
                            *a = false;
                        }
                    }
                }
                // Visit children nearest their split point first.
                let mut order: Vec<usize> = (0..m).filter(|&j| alive[j]).collect();
                order.sort_by(|&a, &b| dqs[a].partial_cmp(&dqs[b]).expect("NaN"));
                for j in order {
                    // Re-check with the current (possibly tighter) bound.
                    let b = pool.bound();
                    let prunable = (0..m).any(|i| {
                        let (lo, hi) = ranges[i * m + j];
                        lo <= hi && (dqs[i] + b <= lo || dqs[i] - b >= hi)
                    });
                    if !prunable {
                        self.knn_rec(children[j], q, pool);
                    }
                }
            }
        }
    }
}

impl SimilarityIndex<Item> for Egnat {
    fn name(&self) -> &'static str {
        "EGNAT"
    }

    fn len(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }

    fn range_query(&self, q: &Item, r: f64) -> Result<Vec<Neighbor>, IndexError> {
        let mut out = Vec::new();
        self.range_rec(self.root, q, r, &mut out);
        sort_neighbors(&mut out);
        Ok(out)
    }

    fn knn_query(&self, q: &Item, k: usize) -> Result<Vec<Neighbor>, IndexError> {
        let mut pool = TopK::new(k);
        if k > 0 {
            self.knn_rec(self.root, q, &mut pool);
        }
        Ok(pool.into_sorted())
    }

    fn memory_bytes(&self) -> u64 {
        self.bytes
    }
}

impl DynamicIndex<Item> for Egnat {
    /// Streaming insert (EGNAT is the *dynamic* GNAT \[48\]): descend to the
    /// nearest split point, widening the touched ranges, append to the leaf.
    fn insert(&mut self, obj: Item) -> Result<u32, IndexError> {
        let id = self.items.len() as u32;
        self.items.push(obj);
        self.live.push(true);
        let mut node = self.root;
        loop {
            let step = match &self.nodes[node as usize] {
                GnatNode::Leaf { .. } => None,
                GnatNode::Internal {
                    splits, children, ..
                } => {
                    let row: Vec<f64> = splits
                        .iter()
                        .map(|&s| self.dist(s, &self.items[id as usize]))
                        .collect();
                    let (j, _) = row
                        .iter()
                        .enumerate()
                        .min_by(|a, b| a.1.partial_cmp(b.1).expect("NaN"))
                        .expect("non-empty");
                    Some((j, row, children[j]))
                }
            };
            match step {
                Some((j, row, next)) => {
                    if let GnatNode::Internal { ranges, splits, .. } =
                        &mut self.nodes[node as usize]
                    {
                        let m = splits.len();
                        for (i, &d) in row.iter().enumerate() {
                            let r = &mut ranges[i * m + j];
                            r.0 = r.0.min(d);
                            r.1 = r.1.max(d);
                        }
                    }
                    node = next;
                }
                None => {
                    let parent_dist = 0.0; // cache refreshed on next rebuild
                    if let GnatNode::Leaf { objs, parent_d } = &mut self.nodes[node as usize] {
                        objs.push(id);
                        parent_d.push(parent_dist);
                    }
                    self.bytes += 12;
                    return Ok(id);
                }
            }
        }
    }

    /// Streaming delete: liveness tombstone.
    fn remove(&mut self, id: u32) -> Result<bool, IndexError> {
        match self.live.get_mut(id as usize) {
            Some(l) if *l => {
                *l = false;
                Ok(true)
            }
            _ => Ok(false),
        }
    }
}

impl_cpu_clocked!(Egnat);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearScan;
    use metric_space::DatasetKind;

    #[test]
    fn matches_linear_scan() {
        let d = DatasetKind::Words.generate(300, 13);
        let t = Egnat::build(d.items.clone(), d.metric).expect("build");
        let scan = LinearScan::new(d.items.clone(), d.metric);
        for qid in [1usize, 111, 222] {
            let q = &d.items[qid];
            assert_eq!(
                t.range_query(q, 2.0).expect("egnat"),
                scan.range_query(q, 2.0).expect("scan"),
                "range mismatch at {qid}"
            );
            let da: Vec<f64> = t
                .knn_query(q, 6)
                .expect("t")
                .iter()
                .map(|n| n.dist)
                .collect();
            let db: Vec<f64> = scan
                .knn_query(q, 6)
                .expect("s")
                .iter()
                .map(|n| n.dist)
                .collect();
            assert_eq!(da, db, "knn mismatch at {qid}");
        }
    }

    #[test]
    fn budget_enforced() {
        let d = DatasetKind::TLoc.generate(2000, 13);
        let err = Egnat::build_with_budget(d.items.clone(), d.metric, Some(1024));
        assert!(
            matches!(err, Err(IndexError::OutOfMemory { .. })),
            "tiny budget must fail"
        );
        assert!(Egnat::build_with_budget(d.items, d.metric, None).is_ok());
    }

    #[test]
    fn memory_is_heavy() {
        // EGNAT must cost far more bytes per object than a simple id list —
        // the property that causes its Table 4 blow-ups.
        let d = DatasetKind::TLoc.generate(3000, 13);
        let t = Egnat::build(d.items, d.metric).expect("build");
        assert!(
            t.memory_bytes() > 3000 * 12,
            "got {} bytes",
            t.memory_bytes()
        );
    }

    #[test]
    fn insert_remove_roundtrip() {
        let d = DatasetKind::TLoc.generate(400, 13);
        let mut t = Egnat::build(d.items.clone(), d.metric).expect("build");
        let id = t.insert(Item::vector(vec![5e3, 5e3])).expect("ins");
        let hits = t
            .range_query(&Item::vector(vec![5e3, 5e3]), 0.5)
            .expect("q");
        assert!(hits.iter().any(|n| n.id == id));
        assert!(t.remove(id).expect("rm"));
        let hits = t
            .range_query(&Item::vector(vec![5e3, 5e3]), 0.5)
            .expect("q");
        assert!(!hits.iter().any(|n| n.id == id));
    }
}
