//! BST — the bisector tree of Kalantari & McDonald \[32\]: the classic
//! CPU-based metric tree the paper uses as its first baseline.
//!
//! Each internal node holds two centres with covering radii; objects go to
//! the nearer centre. Queries prune a branch when
//! `d(q, cᵢ) − radiusᵢ > r` (triangle inequality on the covering ball).

use crate::clock::impl_cpu_clocked;
use gpu_sim::CpuClock;
use metric_space::index::{
    sort_neighbors, DynamicIndex, IndexError, Neighbor, SimilarityIndex, TopK,
};
use metric_space::{Item, ItemMetric, Metric};

const LEAF_CAP: usize = 16;

enum BstNode {
    Internal {
        centres: [u32; 2],
        radius: [f64; 2],
        children: [u32; 2],
    },
    Leaf {
        objs: Vec<u32>,
    },
}

/// Bisector tree over [`Item`]s.
pub struct Bst {
    items: Vec<Item>,
    metric: ItemMetric,
    live: Vec<bool>,
    nodes: Vec<BstNode>,
    root: u32,
    build_seconds: f64,
    pub(crate) clock: CpuClock,
}

impl Bst {
    /// Build over a dataset.
    pub fn build(items: Vec<Item>, metric: ItemMetric) -> Self {
        let clock = CpuClock::default();
        let mut bst = Bst {
            live: vec![true; items.len()],
            items,
            metric,
            nodes: Vec::new(),
            root: 0,
            build_seconds: 0.0,
            clock,
        };
        let ids: Vec<u32> = (0..bst.items.len() as u32).collect();
        bst.root = bst.build_node(ids);
        bst.build_seconds = bst.clock.seconds();
        bst
    }

    fn dist(&self, a: u32, b: &Item) -> f64 {
        let ai = &self.items[a as usize];
        self.clock.charge(self.metric.work(ai, b));
        self.metric.distance(ai, b)
    }

    fn build_node(&mut self, ids: Vec<u32>) -> u32 {
        if ids.len() <= LEAF_CAP {
            self.nodes.push(BstNode::Leaf { objs: ids });
            return (self.nodes.len() - 1) as u32;
        }
        let c1 = ids[0];
        // c2: farthest from c1 (one FFT step).
        let mut c2 = ids[0];
        let mut best = -1.0;
        let mut d1s = Vec::with_capacity(ids.len());
        for &o in &ids {
            let d = self.dist(c1, &self.items[o as usize]);
            d1s.push(d);
            if d > best {
                best = d;
                c2 = o;
            }
        }
        if c2 == c1 {
            // All objects identical: no bisector exists; keep one flat leaf.
            self.nodes.push(BstNode::Leaf { objs: ids });
            return (self.nodes.len() - 1) as u32;
        }
        let mut left = Vec::new();
        let mut right = Vec::new();
        let mut r1 = 0f64;
        let mut r2 = 0f64;
        for (i, &o) in ids.iter().enumerate() {
            let d2 = self.dist(c2, &self.items[o as usize]);
            if d1s[i] <= d2 {
                r1 = r1.max(d1s[i]);
                left.push(o);
            } else {
                r2 = r2.max(d2);
                right.push(o);
            }
        }
        if left.is_empty() || right.is_empty() {
            self.nodes.push(BstNode::Leaf { objs: ids });
            return (self.nodes.len() - 1) as u32;
        }
        let l = self.build_node(left);
        let r = self.build_node(right);
        self.nodes.push(BstNode::Internal {
            centres: [c1, c2],
            radius: [r1, r2],
            children: [l, r],
        });
        (self.nodes.len() - 1) as u32
    }

    /// Simulated seconds spent constructing the tree.
    pub fn build_seconds(&self) -> f64 {
        self.build_seconds
    }

    fn range_rec(&self, node: u32, q: &Item, r: f64, out: &mut Vec<Neighbor>) {
        match &self.nodes[node as usize] {
            BstNode::Leaf { objs } => {
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
            BstNode::Internal {
                centres,
                radius,
                children,
            } => {
                for side in 0..2 {
                    let d = self.dist(centres[side], q);
                    if d - radius[side] <= r {
                        self.range_rec(children[side], q, r, out);
                    }
                }
            }
        }
    }

    fn knn_rec(&self, node: u32, q: &Item, pool: &mut TopK) {
        match &self.nodes[node as usize] {
            BstNode::Leaf { objs } => {
                for &o in objs {
                    if !self.live[o as usize] {
                        continue;
                    }
                    pool.insert(Neighbor::new(o, self.dist(o, q)));
                }
            }
            BstNode::Internal {
                centres,
                radius,
                children,
            } => {
                let d0 = self.dist(centres[0], q);
                let d1 = self.dist(centres[1], q);
                // Visit the closer ball first: tighter bounds earlier.
                let order = if d0 - radius[0] <= d1 - radius[1] {
                    [(0usize, d0), (1, d1)]
                } else {
                    [(1, d1), (0, d0)]
                };
                for (side, d) in order {
                    if d - radius[side] < pool.bound() {
                        self.knn_rec(children[side], q, pool);
                    }
                }
            }
        }
    }
}

impl SimilarityIndex<Item> for Bst {
    fn name(&self) -> &'static str {
        "BST"
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
        let mut bytes = 0u64;
        for n in &self.nodes {
            bytes += match n {
                BstNode::Internal { .. } => 2 * (4 + 8 + 4),
                BstNode::Leaf { objs } => 8 + 4 * objs.len() as u64,
            };
        }
        bytes + self.live.len() as u64 / 8
    }
}

impl DynamicIndex<Item> for Bst {
    /// Streaming insert: descend to the nearer covering ball, growing radii
    /// on the way; append to the leaf and split it when oversized.
    fn insert(&mut self, obj: Item) -> Result<u32, IndexError> {
        let id = self.items.len() as u32;
        self.items.push(obj);
        self.live.push(true);
        let mut node = self.root;
        loop {
            // Probe immutably, then apply the radius growth mutably.
            let step = match &self.nodes[node as usize] {
                BstNode::Leaf { .. } => None,
                BstNode::Internal {
                    centres, children, ..
                } => {
                    let d0 = self.dist(centres[0], &self.items[id as usize]);
                    let d1 = self.dist(centres[1], &self.items[id as usize]);
                    let side = usize::from(d1 < d0);
                    Some((side, if side == 0 { d0 } else { d1 }, children[side]))
                }
            };
            match step {
                Some((side, d, next)) => {
                    if let BstNode::Internal { radius, .. } = &mut self.nodes[node as usize] {
                        radius[side] = radius[side].max(d);
                    }
                    node = next;
                }
                None => {
                    if let BstNode::Leaf { objs } = &mut self.nodes[node as usize] {
                        objs.push(id);
                        if objs.len() > 4 * LEAF_CAP {
                            let ids = std::mem::take(objs);
                            let rebuilt = self.build_node(ids);
                            self.nodes.swap(node as usize, rebuilt as usize);
                        }
                    }
                    return Ok(id);
                }
            }
        }
    }

    /// Streaming delete: liveness tombstone (`O(1)`), skipped at leaves.
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

impl_cpu_clocked!(Bst);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearScan;
    use metric_space::DatasetKind;

    #[test]
    fn matches_linear_scan() {
        let d = DatasetKind::Words.generate(300, 5);
        let bst = Bst::build(d.items.clone(), d.metric);
        let scan = LinearScan::new(d.items.clone(), d.metric);
        for qid in [0usize, 50, 299] {
            let q = &d.items[qid];
            assert_eq!(
                bst.range_query(q, 2.0).expect("bst"),
                scan.range_query(q, 2.0).expect("scan"),
                "range mismatch at {qid}"
            );
            let a = bst.knn_query(q, 7).expect("bst");
            let b = scan.knn_query(q, 7).expect("scan");
            let da: Vec<f64> = a.iter().map(|n| n.dist).collect();
            let db: Vec<f64> = b.iter().map(|n| n.dist).collect();
            assert_eq!(da, db, "knn distance mismatch at {qid}");
        }
    }

    #[test]
    fn insert_then_found() {
        let d = DatasetKind::TLoc.generate(200, 5);
        let mut bst = Bst::build(d.items.clone(), d.metric);
        let id = bst.insert(Item::vector(vec![7777.0, 7777.0])).expect("ins");
        let hits = bst
            .range_query(&Item::vector(vec![7777.0, 7777.0]), 0.1)
            .expect("q");
        assert!(hits.iter().any(|n| n.id == id));
    }

    #[test]
    fn remove_hides_object() {
        let d = DatasetKind::Words.generate(120, 5);
        let mut bst = Bst::build(d.items.clone(), d.metric);
        assert!(bst.remove(3).expect("rm"));
        let hits = bst.range_query(&d.items[3], 0.0).expect("q");
        assert!(!hits.iter().any(|n| n.id == 3));
        assert_eq!(bst.len(), 119);
    }

    #[test]
    fn duplicate_heavy_data_terminates() {
        // All-identical objects must not recurse forever.
        let items: Vec<Item> = (0..100).map(|_| Item::text("same")).collect();
        let bst = Bst::build(items, ItemMetric::Edit);
        let hits = bst.range_query(&Item::text("same"), 0.0).expect("q");
        assert_eq!(hits.len(), 100);
    }

    #[test]
    fn build_seconds_positive() {
        let d = DatasetKind::Vector.generate(150, 5);
        let bst = Bst::build(d.items, d.metric);
        assert!(bst.build_seconds() > 0.0);
        assert!(bst.memory_bytes() > 0);
    }
}
