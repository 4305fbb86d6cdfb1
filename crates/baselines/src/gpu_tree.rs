//! GPU-Tree — the multi-tree strategy of G-PICS (Lewis & Tu \[38\]) applied to
//! metric data with MVP-trees, as the GTS paper's "GPU-Tree" baseline.
//!
//! Faithfully keeps the two design decisions the paper criticises:
//!
//! 1. **Single-core node construction** \[33, 47\]: each tree node is split by
//!    one core, so the *span* of the build is the sequential cost along the
//!    heaviest root-to-leaf path — the reason Table 4 shows construction
//!    up to ~80× slower than GTS.
//! 2. **Fixed-size thread blocks, serial node processing** at query time:
//!    one block walks one (query, tree) pair node-by-node, and every query
//!    pre-allocates fixed candidate buffers in every tree. Buffer bytes grow
//!    linearly with the batch, so a large-enough batch exhausts global
//!    memory — the Fig. 9 "memory deadlock" at 512 queries on Color.

use crate::clock::impl_gpu_clocked;
use gpu_sim::{Device, Reservation};
use metric_space::index::{
    check_radii, sort_neighbors, DynamicIndex, IndexError, Neighbor, SimilarityIndex, TopK,
};
use metric_space::lemmas::{prune_node_knn, prune_node_range};
use metric_space::{BatchMetric, Footprint, Item, ItemMetric, Metric, ObjectArena};
use std::sync::Arc;

/// Tuning knobs of the multi-tree baseline.
#[derive(Clone, Copy, Debug)]
pub struct GpuTreeParams {
    /// Number of independent sub-trees `P` (G-PICS builds many small trees
    /// so each fits a block's capabilities).
    pub num_trees: usize,
    /// Threads per block — the fixed block size that limits per-node
    /// parallelism.
    pub block_threads: u32,
    /// Candidate-buffer entries per query = `n / divisor` (split across the
    /// `P` trees), each entry staging the candidate **object payload** —
    /// which is why high-dimensional data (Color) exhausts memory first.
    pub buffer_divisor: usize,
    /// Fan-out of each MVP sub-tree.
    pub fanout: usize,
    /// Leaf capacity of each sub-tree.
    pub leaf_cap: usize,
}

impl Default for GpuTreeParams {
    fn default() -> Self {
        GpuTreeParams {
            num_trees: 64,
            block_threads: 256,
            buffer_divisor: 64,
            fanout: 4,
            leaf_cap: 32,
        }
    }
}

enum TNode {
    Internal {
        pivot: u32,
        rings: Vec<(f64, f64)>,
        children: Vec<u32>,
    },
    Leaf {
        objs: Vec<u32>,
    },
}

struct SubTree {
    nodes: Vec<TNode>,
    root: u32,
}

/// The G-PICS-style multi-tree GPU index.
pub struct GpuTree {
    pub(crate) dev: Arc<Device>,
    items: Vec<Item>,
    metric: ItemMetric,
    live: Vec<bool>,
    trees: Vec<SubTree>,
    /// Flat payload arena rebuilt alongside the trees; pivot splits and
    /// leaf verification run batched through it. `None` for heterogeneous
    /// datasets (the batch kernel falls back to boxed payloads).
    arena: Option<ObjectArena>,
    params: GpuTreeParams,
    build_seconds: f64,
    _resident: Reservation,
}

/// Build accumulator: total work plus the heaviest per-depth node work
/// (= the span under the one-core-per-node model).
#[derive(Default)]
struct BuildCost {
    work: u64,
    max_per_depth: Vec<u64>,
}

impl BuildCost {
    fn record(&mut self, depth: usize, node_work: u64) {
        if self.max_per_depth.len() <= depth {
            self.max_per_depth.resize(depth + 1, 0);
        }
        self.max_per_depth[depth] = self.max_per_depth[depth].max(node_work);
        self.work += node_work;
    }

    fn span(&self) -> u64 {
        self.max_per_depth.iter().sum()
    }
}

impl GpuTree {
    /// Build with default parameters.
    pub fn build(
        dev: &Arc<Device>,
        items: Vec<Item>,
        metric: ItemMetric,
    ) -> Result<Self, IndexError> {
        Self::build_with_params(dev, items, metric, GpuTreeParams::default())
    }

    /// Build with explicit parameters.
    pub fn build_with_params(
        dev: &Arc<Device>,
        items: Vec<Item>,
        metric: ItemMetric,
        params: GpuTreeParams,
    ) -> Result<Self, IndexError> {
        let bytes: u64 = items.iter().map(Footprint::size_bytes).sum();
        let resident = dev.reserve(bytes, "GPU-Tree resident objects")?;
        dev.h2d_transfer(bytes);
        let start = dev.cycles();
        let mut t = GpuTree {
            dev: Arc::clone(dev),
            live: vec![true; items.len()],
            items,
            metric,
            trees: Vec::new(),
            arena: None,
            params,
            build_seconds: 0.0,
            _resident: resident,
        };
        t.rebuild_trees()?;
        t.build_seconds = t.dev.seconds_since(start);
        Ok(t)
    }

    fn rebuild_trees(&mut self) -> Result<(), IndexError> {
        // The arena tracks the object store; rebuilding it costs no
        // simulated cycles (it is a host-side layout decision).
        self.arena = self.metric.build_arena(&self.items);
        let p = self.params.num_trees.max(1);
        let mut partitions: Vec<Vec<u32>> = vec![Vec::new(); p];
        for (i, &l) in self.live.iter().enumerate() {
            if l {
                partitions[i % p].push(i as u32);
            }
        }
        let mut cost = BuildCost::default();
        self.trees = partitions
            .into_iter()
            .filter(|ids| !ids.is_empty())
            .map(|ids| {
                let mut nodes = Vec::new();
                let root = self.build_node(ids, 0, &mut nodes, &mut cost);
                SubTree { nodes, root }
            })
            .collect();
        // One-core-per-node charging: span = heaviest sequential path.
        self.dev.charge_kernel(cost.work, cost.span());
        Ok(())
    }

    fn build_node(
        &self,
        ids: Vec<u32>,
        depth: usize,
        nodes: &mut Vec<TNode>,
        cost: &mut BuildCost,
    ) -> u32 {
        if ids.len() <= self.params.leaf_cap {
            nodes.push(TNode::Leaf { objs: ids });
            return (nodes.len() - 1) as u32;
        }
        let pivot = ids[0];
        // One batched sweep from the pivot over the node's objects; the
        // reported total equals the per-pair work sum charged before.
        let mut d = vec![0.0f64; ids.len()];
        let (node_work, _span) = self.metric.distance_batch(
            &self.items,
            self.arena.as_ref(),
            &self.items[pivot as usize],
            &ids,
            &mut d,
        );
        let mut with_d: Vec<(f64, u32)> = d.into_iter().zip(ids).collect();
        cost.record(depth, node_work);
        with_d.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN").then(a.1.cmp(&b.1)));
        if with_d.first().map(|f| f.0) == with_d.last().map(|l| l.0) {
            let objs = with_d.into_iter().map(|(_, o)| o).collect();
            nodes.push(TNode::Leaf { objs });
            return (nodes.len() - 1) as u32;
        }
        let chunk = with_d.len().div_ceil(self.params.fanout);
        let mut rings = Vec::new();
        let mut children = Vec::new();
        for part in with_d.chunks(chunk) {
            rings.push((part[0].0, part.last().expect("non-empty").0));
            let child_ids: Vec<u32> = part.iter().map(|&(_, o)| o).collect();
            children.push(self.build_node(child_ids, depth + 1, nodes, cost));
        }
        nodes.push(TNode::Internal {
            pivot,
            rings,
            children,
        });
        (nodes.len() - 1) as u32
    }

    /// Simulated construction time.
    pub fn build_seconds(&self) -> f64 {
        self.build_seconds
    }

    /// Candidate-buffer bytes one query reserves across all trees. Each
    /// buffered candidate stages the object payload (G-PICS verifies
    /// candidates block-locally), so wide objects cost proportionally more.
    fn buffer_bytes_per_query(&self) -> u64 {
        let n = self.items.len().max(1);
        let entries = (n / self.params.buffer_divisor.max(1)).max(self.params.leaf_cap);
        let avg_obj_bytes = self
            .items
            .iter()
            .take(64)
            .map(Footprint::size_bytes)
            .sum::<u64>()
            / self.items.len().clamp(1, 64) as u64;
        entries as u64 * (avg_obj_bytes + 8)
    }

    /// Reserve the per-batch candidate buffers; failure here is the
    /// "memory deadlock" of Fig. 9.
    fn reserve_buffers(&self, batch: usize) -> Result<Reservation, IndexError> {
        self.dev
            .reserve(
                self.buffer_bytes_per_query() * batch as u64,
                "GPU-Tree per-query candidate buffers",
            )
            .map_err(IndexError::from)
    }

    /// Serial (per-block) range traversal of one tree; returns accumulated
    /// (hits, work, span-cycles) under the fixed-block model.
    fn range_tree(&self, tree: &SubTree, q: &Item, r: f64, out: &mut Vec<Neighbor>) -> (u64, u64) {
        let mut work = 0u64;
        let mut span = 0u64;
        let mut stack = vec![tree.root];
        while let Some(id) = stack.pop() {
            match &tree.nodes[id as usize] {
                TNode::Leaf { objs } => {
                    // Batched leaf verification over the live objects; the
                    // block's threads share the batch, so the span model
                    // (leaf work split across `block_threads`) is unchanged.
                    let live_ids: Vec<u32> = objs
                        .iter()
                        .copied()
                        .filter(|&o| self.live[o as usize])
                        .collect();
                    let mut d = vec![0.0f64; live_ids.len()];
                    let (leaf_work, _s) = self.metric.distance_batch(
                        &self.items,
                        self.arena.as_ref(),
                        q,
                        &live_ids,
                        &mut d,
                    );
                    for (&o, &dist) in live_ids.iter().zip(&d) {
                        if dist <= r {
                            out.push(Neighbor::new(o, dist));
                        }
                    }
                    work += leaf_work;
                    // Leaf objects verified by the block's threads.
                    span += leaf_work / u64::from(self.params.block_threads) + 1;
                }
                TNode::Internal {
                    pivot,
                    rings,
                    children,
                } => {
                    let obj = &self.items[*pivot as usize];
                    let w = self.metric.work(q, obj);
                    let d = self.metric.distance(q, obj);
                    work += w;
                    span += w; // pivot distance on one thread, serial
                    for (j, &(lo, hi)) in rings.iter().enumerate() {
                        if !prune_node_range(lo, hi, d, r) {
                            stack.push(children[j]);
                        }
                    }
                }
            }
        }
        (work, span)
    }

    fn knn_tree(&self, tree: &SubTree, q: &Item, pool: &mut TopK) -> (u64, u64) {
        let mut work = 0u64;
        let mut span = 0u64;
        let mut stack = vec![tree.root];
        while let Some(id) = stack.pop() {
            match &tree.nodes[id as usize] {
                TNode::Leaf { objs } => {
                    let live_ids: Vec<u32> = objs
                        .iter()
                        .copied()
                        .filter(|&o| self.live[o as usize])
                        .collect();
                    let mut d = vec![0.0f64; live_ids.len()];
                    let (leaf_work, _s) = self.metric.distance_batch(
                        &self.items,
                        self.arena.as_ref(),
                        q,
                        &live_ids,
                        &mut d,
                    );
                    // Candidates enter the pool in object order — the same
                    // order the per-pair loop used.
                    pool.extend(
                        live_ids
                            .iter()
                            .zip(&d)
                            .map(|(&o, &dist)| Neighbor::new(o, dist)),
                    );
                    work += leaf_work;
                    span += leaf_work / u64::from(self.params.block_threads) + 1;
                }
                TNode::Internal {
                    pivot,
                    rings,
                    children,
                } => {
                    let obj = &self.items[*pivot as usize];
                    let w = self.metric.work(q, obj);
                    let d = self.metric.distance(q, obj);
                    work += w;
                    span += w;
                    if self.live[*pivot as usize] {
                        pool.insert(Neighbor::new(*pivot, d));
                    }
                    let b = pool.bound();
                    for (j, &(lo, hi)) in rings.iter().enumerate() {
                        if !prune_node_knn(lo, hi, d, b) {
                            stack.push(children[j]);
                        }
                    }
                }
            }
        }
        (work, span)
    }
}

impl SimilarityIndex<Item> for GpuTree {
    fn name(&self) -> &'static str {
        "GPU-Tree"
    }

    fn len(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }

    fn range_query(&self, q: &Item, r: f64) -> Result<Vec<Neighbor>, IndexError> {
        Ok(self
            .batch_range(std::slice::from_ref(q), &[r])?
            .pop()
            .expect("one answer"))
    }

    fn knn_query(&self, q: &Item, k: usize) -> Result<Vec<Neighbor>, IndexError> {
        Ok(self
            .batch_knn(std::slice::from_ref(q), k)?
            .pop()
            .expect("one answer"))
    }

    fn batch_range(
        &self,
        queries: &[Item],
        radii: &[f64],
    ) -> Result<Vec<Vec<Neighbor>>, IndexError> {
        check_radii(queries, radii)?;
        let qbytes: u64 = queries.iter().map(Footprint::size_bytes).sum();
        self.dev.h2d_transfer(qbytes);
        let _buffers = self.reserve_buffers(queries.len())?;
        let mut results: Vec<Vec<Neighbor>> = vec![Vec::new(); queries.len()];
        let mut total_work = 0u64;
        let mut max_span = 0u64;
        for (qi, q) in queries.iter().enumerate() {
            // One block per query, walking all P trees sequentially.
            let mut q_span = 0u64;
            for tree in &self.trees {
                let (w, s) = self.range_tree(tree, q, radii[qi], &mut results[qi]);
                total_work += w;
                q_span += s;
            }
            max_span = max_span.max(q_span);
            sort_neighbors(&mut results[qi]);
        }
        self.dev.charge_kernel(total_work, max_span);
        let hits: usize = results.iter().map(Vec::len).sum();
        self.dev.d2h_transfer((hits * 16) as u64);
        Ok(results)
    }

    fn batch_knn(&self, queries: &[Item], k: usize) -> Result<Vec<Vec<Neighbor>>, IndexError> {
        let qbytes: u64 = queries.iter().map(Footprint::size_bytes).sum();
        self.dev.h2d_transfer(qbytes);
        let _buffers = self.reserve_buffers(queries.len())?;
        let mut results: Vec<Vec<Neighbor>> = vec![Vec::new(); queries.len()];
        let mut total_work = 0u64;
        let mut max_span = 0u64;
        for (qi, q) in queries.iter().enumerate() {
            let mut pool = TopK::new(k);
            let mut q_span = 0u64;
            if k > 0 {
                for tree in &self.trees {
                    let (w, s) = self.knn_tree(tree, q, &mut pool);
                    total_work += w;
                    q_span += s;
                }
            }
            max_span = max_span.max(q_span);
            results[qi] = pool.into_sorted();
        }
        self.dev.charge_kernel(total_work, max_span);
        let hits: usize = results.iter().map(Vec::len).sum();
        self.dev.d2h_transfer((hits * 16) as u64);
        Ok(results)
    }

    fn memory_bytes(&self) -> u64 {
        let mut bytes = 0u64;
        for t in &self.trees {
            for n in &t.nodes {
                bytes += match n {
                    TNode::Internal { rings, .. } => 4 + rings.len() as u64 * 20,
                    TNode::Leaf { objs } => 8 + 4 * objs.len() as u64,
                };
            }
        }
        bytes + self.live.len() as u64 / 8
    }
}

impl DynamicIndex<Item> for GpuTree {
    /// G-PICS-style single-object update: a single GPU core patches the
    /// tree — modelled as a full sub-tree rebuild for the partition the
    /// object falls in (the paper: "leveraging single GPU cores for complex
    /// tree structure updating faces an efficiency bottleneck").
    fn insert(&mut self, obj: Item) -> Result<u32, IndexError> {
        let id = self.items.len() as u32;
        self.dev.h2d_transfer(obj.size_bytes());
        self.items.push(obj);
        self.live.push(true);
        self.rebuild_trees()?;
        Ok(id)
    }

    fn remove(&mut self, id: u32) -> Result<bool, IndexError> {
        match self.live.get_mut(id as usize) {
            Some(l) if *l => {
                *l = false;
                self.rebuild_trees()?;
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Bulk path: apply all changes, rebuild once.
    fn batch_update(&mut self, insertions: Vec<Item>, deletions: &[u32]) -> Result<(), IndexError> {
        for &d in deletions {
            if let Some(l) = self.live.get_mut(d as usize) {
                *l = false;
            }
        }
        for obj in insertions {
            self.dev.h2d_transfer(obj.size_bytes());
            self.items.push(obj);
            self.live.push(true);
        }
        self.rebuild_trees()
    }
}

impl_gpu_clocked!(GpuTree);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearScan;
    use metric_space::DatasetKind;

    #[test]
    fn matches_linear_scan() {
        let d = DatasetKind::Words.generate(400, 17);
        let dev = Device::rtx_2080_ti();
        let t = GpuTree::build(&dev, d.items.clone(), d.metric).expect("build");
        let scan = LinearScan::new(d.items.clone(), d.metric);
        let q = &d.items[44];
        assert_eq!(
            t.range_query(q, 2.0).expect("t"),
            scan.range_query(q, 2.0).expect("s")
        );
        let da: Vec<f64> = t
            .knn_query(q, 9)
            .expect("t")
            .iter()
            .map(|n| n.dist)
            .collect();
        let db: Vec<f64> = scan
            .knn_query(q, 9)
            .expect("s")
            .iter()
            .map(|n| n.dist)
            .collect();
        assert_eq!(da, db);
    }

    #[test]
    fn memory_deadlock_on_large_batches() {
        let d = DatasetKind::Color.generate(2000, 17);
        let dev = gpu_sim::Device::new(gpu_sim::DeviceConfig {
            global_mem_bytes: 4 << 20,
            ..gpu_sim::DeviceConfig::rtx_2080_ti()
        });
        let t = GpuTree::build(&dev, d.items.clone(), d.metric).expect("build fits");
        let small: Vec<Item> = d.items[..4].to_vec();
        assert!(t.batch_range(&small, &[0.1; 4]).is_ok(), "small batch fits");
        let big: Vec<Item> = (0..512).map(|i| d.items[i % 2000].clone()).collect();
        let err = t.batch_range(&big, &vec![0.1; 512]);
        assert!(
            matches!(err, Err(IndexError::OutOfMemory { .. })),
            "512-query batch must deadlock on a small device"
        );
    }

    #[test]
    fn construction_span_dominates() {
        // One-core-per-node: the build span must be at least the root-split
        // cost of one partition, i.e. much more than total work / cores.
        let d = DatasetKind::TLoc.generate(4000, 17);
        let dev = Device::rtx_2080_ti();
        dev.reset_clock();
        let _t = GpuTree::build(&dev, d.items, d.metric).expect("build");
        let s = dev.stats();
        assert!(
            s.cycles > s.work / u64::from(dev.config().cores) + 8_000,
            "span-bound construction: cycles={} work={}",
            s.cycles,
            s.work
        );
    }

    #[test]
    fn updates_rebuild() {
        let d = DatasetKind::TLoc.generate(300, 17);
        let dev = Device::rtx_2080_ti();
        let mut t = GpuTree::build(&dev, d.items.clone(), d.metric).expect("build");
        let id = t.insert(Item::vector(vec![4e3, 4e3])).expect("ins");
        let hits = t
            .range_query(&Item::vector(vec![4e3, 4e3]), 0.5)
            .expect("q");
        assert!(hits.iter().any(|n| n.id == id));
        assert!(t.remove(id).expect("rm"));
        let hits = t
            .range_query(&Item::vector(vec![4e3, 4e3]), 0.5)
            .expect("q");
        assert!(!hits.iter().any(|n| n.id == id));
    }
}
