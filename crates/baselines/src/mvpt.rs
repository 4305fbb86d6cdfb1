//! MVPT — the multi-vantage-point tree of Bozkaya & Özsoyoglu \[9, 10\],
//! called out by the survey \[17\] (and by the GTS paper) as the most
//! efficient CPU-based in-memory metric index. GTS's own tree is modelled
//! on it, which makes it the most direct CPU/GPU comparison point.
//!
//! Each internal node holds one vantage point (pivot); children partition
//! the node's objects into `FANOUT` contiguous distance rings. Leaves cache
//! each object's distances to all ancestors' pivots, so leaf verification
//! filters with `|d(o, pᵢ) − d(q, pᵢ)| > r` before any real distance call —
//! the classic MVPT path-distance trick.

use crate::clock::impl_cpu_clocked;
use gpu_sim::CpuClock;
use metric_space::index::{
    sort_neighbors, DynamicIndex, IndexError, Neighbor, SimilarityIndex, TopK,
};
use metric_space::lemmas::{prune_node_knn, prune_node_range, ring_gap};
use metric_space::{Item, ItemMetric, Metric};

const FANOUT: usize = 5;
const LEAF_CAP: usize = 32;

enum MvptNode {
    Internal {
        pivot: u32,
        /// Per-child distance ring `[min, max]` w.r.t. this node's pivot.
        rings: Vec<(f64, f64)>,
        children: Vec<u32>,
    },
    Leaf {
        objs: Vec<u32>,
        /// `path_d[i][a]` = distance from `objs[i]` to ancestor pivot `a`
        /// (root-first order).
        path_d: Vec<Box<[f64]>>,
    },
}

/// Multi-vantage-point tree over [`Item`]s.
pub struct Mvpt {
    items: Vec<Item>,
    metric: ItemMetric,
    live: Vec<bool>,
    nodes: Vec<MvptNode>,
    root: u32,
    build_seconds: f64,
    pub(crate) clock: CpuClock,
}

impl Mvpt {
    /// Build over a dataset.
    pub fn build(items: Vec<Item>, metric: ItemMetric) -> Self {
        let mut t = Mvpt {
            live: vec![true; items.len()],
            items,
            metric,
            nodes: Vec::new(),
            root: 0,
            build_seconds: 0.0,
            clock: CpuClock::default(),
        };
        let ids: Vec<u32> = (0..t.items.len() as u32).collect();
        t.root = t.build_node(ids, &mut Vec::new());
        t.build_seconds = t.clock.seconds();
        t
    }

    fn dist(&self, a: u32, b: &Item) -> f64 {
        let ai = &self.items[a as usize];
        self.clock.charge(self.metric.work(ai, b));
        self.metric.distance(ai, b)
    }

    fn build_node(&mut self, ids: Vec<u32>, ancestors: &mut Vec<u32>) -> u32 {
        if ids.len() <= LEAF_CAP {
            let path_d = ids
                .iter()
                .map(|&o| {
                    ancestors
                        .iter()
                        .map(|&p| self.dist(p, &self.items[o as usize]))
                        .collect::<Vec<f64>>()
                        .into_boxed_slice()
                })
                .collect();
            self.nodes.push(MvptNode::Leaf { objs: ids, path_d });
            return (self.nodes.len() - 1) as u32;
        }
        // Vantage point: farthest from the last ancestor (FFT step), or the
        // first object at the root.
        let pivot = match ancestors.last() {
            Some(&p) => {
                let mut best = ids[0];
                let mut best_d = -1.0;
                for &o in &ids {
                    let d = self.dist(p, &self.items[o as usize]);
                    if d > best_d {
                        best_d = d;
                        best = o;
                    }
                }
                best
            }
            None => ids[0],
        };
        let mut with_d: Vec<(f64, u32)> = ids
            .iter()
            .map(|&o| (self.dist(pivot, &self.items[o as usize]), o))
            .collect();
        with_d.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN").then(a.1.cmp(&b.1)));
        if with_d.first().map(|f| f.0) == with_d.last().map(|l| l.0) {
            // All equidistant from the pivot (e.g. all-identical data):
            // rings cannot separate anything; flat leaf instead.
            let objs: Vec<u32> = with_d.into_iter().map(|(_, o)| o).collect();
            return self.build_leaf_direct(objs, ancestors);
        }
        let chunk = with_d.len().div_ceil(FANOUT);
        let mut rings = Vec::with_capacity(FANOUT);
        let mut children = Vec::with_capacity(FANOUT);
        ancestors.push(pivot);
        for part in with_d.chunks(chunk) {
            let ring = (part[0].0, part.last().expect("non-empty").0);
            let child_ids: Vec<u32> = part.iter().map(|&(_, o)| o).collect();
            let child = self.build_node(child_ids, ancestors);
            rings.push(ring);
            children.push(child);
        }
        ancestors.pop();
        self.nodes.push(MvptNode::Internal {
            pivot,
            rings,
            children,
        });
        (self.nodes.len() - 1) as u32
    }

    fn build_leaf_direct(&mut self, objs: Vec<u32>, ancestors: &[u32]) -> u32 {
        let path_d = objs
            .iter()
            .map(|&o| {
                ancestors
                    .iter()
                    .map(|&p| self.dist(p, &self.items[o as usize]))
                    .collect::<Vec<f64>>()
                    .into_boxed_slice()
            })
            .collect();
        self.nodes.push(MvptNode::Leaf { objs, path_d });
        (self.nodes.len() - 1) as u32
    }

    /// Simulated seconds spent constructing the tree.
    pub fn build_seconds(&self) -> f64 {
        self.build_seconds
    }

    fn range_rec(
        &self,
        node: u32,
        q: &Item,
        r: f64,
        qpath: &mut Vec<f64>,
        out: &mut Vec<Neighbor>,
    ) {
        match &self.nodes[node as usize] {
            MvptNode::Leaf { objs, path_d } => {
                'obj: for (i, &o) in objs.iter().enumerate() {
                    if !self.live[o as usize] {
                        continue;
                    }
                    for (a, &dop) in path_d[i].iter().enumerate() {
                        if a < qpath.len() && (dop - qpath[a]).abs() > r {
                            continue 'obj; // ancestor-pivot filter
                        }
                    }
                    let d = self.dist(o, q);
                    if d <= r {
                        out.push(Neighbor::new(o, d));
                    }
                }
            }
            MvptNode::Internal {
                pivot,
                rings,
                children,
            } => {
                let dq = self.dist(*pivot, q);
                qpath.push(dq);
                for (j, &(lo, hi)) in rings.iter().enumerate() {
                    if !prune_node_range(lo, hi, dq, r) {
                        self.range_rec(children[j], q, r, qpath, out);
                    }
                }
                qpath.pop();
            }
        }
    }

    fn knn_rec(&self, node: u32, q: &Item, qpath: &mut Vec<f64>, pool: &mut TopK) {
        match &self.nodes[node as usize] {
            MvptNode::Leaf { objs, path_d } => {
                'obj: for (i, &o) in objs.iter().enumerate() {
                    if !self.live[o as usize] {
                        continue;
                    }
                    let b = pool.bound();
                    for (a, &dop) in path_d[i].iter().enumerate() {
                        if a < qpath.len() && (dop - qpath[a]).abs() >= b {
                            continue 'obj;
                        }
                    }
                    let d = self.dist(o, q);
                    pool.insert(Neighbor::new(o, d));
                }
            }
            MvptNode::Internal {
                pivot,
                rings,
                children,
            } => {
                let dq = self.dist(*pivot, q);
                if self.live[*pivot as usize] {
                    pool.insert(Neighbor::new(*pivot, dq));
                }
                qpath.push(dq);
                // Visit rings nearest the query coordinate first.
                let mut order: Vec<usize> = (0..children.len()).collect();
                order.sort_by(|&a, &b| {
                    let gap = |j: usize| ring_gap(rings[j].0, rings[j].1, dq);
                    gap(a).partial_cmp(&gap(b)).expect("NaN")
                });
                for j in order {
                    let (lo, hi) = rings[j];
                    if !prune_node_knn(lo, hi, dq, pool.bound()) {
                        self.knn_rec(children[j], q, qpath, pool);
                    }
                }
                qpath.pop();
            }
        }
    }
}

impl SimilarityIndex<Item> for Mvpt {
    fn name(&self) -> &'static str {
        "MVPT"
    }

    fn len(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }

    fn range_query(&self, q: &Item, r: f64) -> Result<Vec<Neighbor>, IndexError> {
        let mut out = Vec::new();
        self.range_rec(self.root, q, r, &mut Vec::new(), &mut out);
        sort_neighbors(&mut out);
        Ok(out)
    }

    fn knn_query(&self, q: &Item, k: usize) -> Result<Vec<Neighbor>, IndexError> {
        let mut pool = TopK::new(k);
        if k > 0 {
            self.knn_rec(self.root, q, &mut Vec::new(), &mut pool);
        }
        Ok(pool.into_sorted())
    }

    fn memory_bytes(&self) -> u64 {
        let mut bytes = 0u64;
        for n in &self.nodes {
            bytes += match n {
                MvptNode::Internal { rings, .. } => 4 + rings.len() as u64 * 20,
                MvptNode::Leaf { objs, path_d } => {
                    4 * objs.len() as u64 + path_d.iter().map(|p| 8 * p.len() as u64).sum::<u64>()
                }
            };
        }
        bytes + self.live.len() as u64 / 8
    }
}

impl DynamicIndex<Item> for Mvpt {
    /// Streaming insert: descend into the ring containing the pivot
    /// distance (nearest ring if outside all), append to the leaf with its
    /// ancestor distances, widening rings on the way.
    fn insert(&mut self, obj: Item) -> Result<u32, IndexError> {
        let id = self.items.len() as u32;
        self.items.push(obj);
        self.live.push(true);
        let mut node = self.root;
        let mut qpath: Vec<f64> = Vec::new();
        loop {
            let step = match &self.nodes[node as usize] {
                MvptNode::Leaf { .. } => None,
                MvptNode::Internal {
                    pivot,
                    rings,
                    children,
                } => {
                    let d = self.dist(*pivot, &self.items[id as usize]);
                    let mut best = 0usize;
                    let mut best_gap = f64::INFINITY;
                    for (j, &(lo, hi)) in rings.iter().enumerate() {
                        let g = ring_gap(lo, hi, d);
                        if g < best_gap {
                            best_gap = g;
                            best = j;
                        }
                    }
                    Some((best, d, children[best]))
                }
            };
            match step {
                Some((j, d, next)) => {
                    if let MvptNode::Internal { rings, .. } = &mut self.nodes[node as usize] {
                        rings[j].0 = rings[j].0.min(d);
                        rings[j].1 = rings[j].1.max(d);
                    }
                    qpath.push(d);
                    node = next;
                }
                None => {
                    if let MvptNode::Leaf { objs, path_d } = &mut self.nodes[node as usize] {
                        objs.push(id);
                        path_d.push(qpath.clone().into_boxed_slice());
                    }
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

impl_cpu_clocked!(Mvpt);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearScan;
    use metric_space::DatasetKind;

    #[test]
    fn matches_linear_scan_all_kinds() {
        for kind in [DatasetKind::Words, DatasetKind::TLoc, DatasetKind::Color] {
            let d = kind.generate(250, 7);
            let t = Mvpt::build(d.items.clone(), d.metric);
            let scan = LinearScan::new(d.items.clone(), d.metric);
            let q = &d.items[13];
            let r = scan.knn_query(q, 8).expect("scan")[7].dist;
            assert_eq!(
                t.range_query(q, r).expect("mvpt"),
                scan.range_query(q, r).expect("scan"),
                "{kind:?}"
            );
            let da: Vec<f64> = t
                .knn_query(q, 8)
                .expect("t")
                .iter()
                .map(|n| n.dist)
                .collect();
            let db: Vec<f64> = scan
                .knn_query(q, 8)
                .expect("s")
                .iter()
                .map(|n| n.dist)
                .collect();
            assert_eq!(da, db, "{kind:?}");
        }
    }

    #[test]
    fn prunes_more_than_scan() {
        let d = DatasetKind::TLoc.generate(2000, 7);
        let t = Mvpt::build(d.items.clone(), d.metric);
        let m = t.mark_distances();
        t.range_query(&d.items[0], 0.5).expect("q");
        let used = t.mark_distances() - m;
        assert!(
            used < 2000,
            "MVPT should verify a subset, used {used} distances"
        );
    }

    impl Mvpt {
        fn mark_distances(&self) -> u64 {
            self.clock.work()
        }
    }

    #[test]
    fn insert_and_remove() {
        let d = DatasetKind::TLoc.generate(300, 9);
        let mut t = Mvpt::build(d.items.clone(), d.metric);
        let id = t.insert(Item::vector(vec![1e4, 1e4])).expect("ins");
        let hits = t
            .range_query(&Item::vector(vec![1e4, 1e4]), 1.0)
            .expect("q");
        assert!(hits.iter().any(|n| n.id == id));
        assert!(t.remove(id).expect("rm"));
        let hits = t
            .range_query(&Item::vector(vec![1e4, 1e4]), 1.0)
            .expect("q");
        assert!(!hits.iter().any(|n| n.id == id));
    }

    #[test]
    fn identical_objects_build() {
        let items: Vec<Item> = (0..200).map(|_| Item::vector(vec![1.0, 2.0])).collect();
        let t = Mvpt::build(items, ItemMetric::L2);
        let hits = t
            .range_query(&Item::vector(vec![1.0, 2.0]), 0.0)
            .expect("q");
        assert_eq!(hits.len(), 200);
    }
}
