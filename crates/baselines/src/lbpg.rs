//! LBPG-Tree — the GPU R-tree of Kim, Liu & Choi \[36\]: STR-bulk-loaded
//! R-tree with level-synchronous batched search on the device.
//!
//! Special-purpose per the paper's Remark: supports **Lp-norm vector data
//! only** (T-Loc under L2, Color under L1). Its MBRs store `2·dim` floats
//! per node, and in high dimension the min-distance bound prunes almost
//! nothing (the "dimension curse"), so query-time candidate buffers balloon
//! — the mechanism behind its Fig. 11 OOM on Color at 80% cardinality.
//! Updates rebuild the index from scratch (Fig. 5: "these alternatives
//! necessitate a complete rebuild for any data updates").

use crate::clock::impl_gpu_clocked;
use gpu_sim::exec::BATCH_CHUNK;
use gpu_sim::{Device, Reservation};
use metric_space::index::{
    check_radii, sort_neighbors, DynamicIndex, IndexError, Neighbor, SimilarityIndex,
};
use metric_space::{Footprint, Item, ItemMetric, Metric, VectorMetric};
use std::sync::Arc;

const FANOUT: usize = 64;

/// One R-tree node: an MBR plus a child (or leaf-entry) range.
struct RNode {
    lo: Box<[f32]>,
    hi: Box<[f32]>,
    /// Start index in the level below (or in `leaf_objs` for leaves).
    start: u32,
    /// Number of children / leaf entries.
    count: u32,
}

/// STR-packed GPU R-tree.
pub struct LbpgTree {
    pub(crate) dev: Arc<Device>,
    items: Vec<Item>,
    metric: ItemMetric,
    vm: VectorMetric,
    live: Vec<bool>,
    dim: usize,
    /// Levels bottom-up: `levels[0]` are leaves.
    levels: Vec<Vec<RNode>>,
    /// Object ids in STR order (leaf entries).
    leaf_objs: Vec<u32>,
    build_seconds: f64,
    _resident: Reservation,
    _mbr_mem: Option<Reservation>,
}

impl LbpgTree {
    /// Bulk-load over vector data; `Unsupported` for non-Lp metrics.
    pub fn build(
        dev: &Arc<Device>,
        items: Vec<Item>,
        metric: ItemMetric,
    ) -> Result<Self, IndexError> {
        let vm = match metric {
            ItemMetric::Vector(vm @ (VectorMetric::L1 | VectorMetric::L2)) => vm,
            _ => {
                return Err(IndexError::Unsupported(
                    "LBPG-Tree supports Lp-norm vector data only",
                ))
            }
        };
        let dim = items
            .first()
            .and_then(Item::as_vector)
            .map(<[f32]>::len)
            .ok_or(IndexError::EmptyIndex)?;
        let bytes: u64 = items.iter().map(Footprint::size_bytes).sum();
        let resident = dev.reserve(bytes, "LBPG resident objects")?;
        dev.h2d_transfer(bytes);
        let start = dev.cycles();
        let mut t = LbpgTree {
            dev: Arc::clone(dev),
            live: vec![true; items.len()],
            items,
            metric,
            vm,
            dim,
            levels: Vec::new(),
            leaf_objs: Vec::new(),
            build_seconds: 0.0,
            _resident: resident,
            _mbr_mem: None,
        };
        t.bulk_load()?;
        t.build_seconds = t.dev.seconds_since(start);
        Ok(t)
    }

    fn vec_of(&self, id: u32) -> &[f32] {
        self.items[id as usize].as_vector().expect("vector item")
    }

    /// STR packing: device sort by the first coordinate, slice into leaves
    /// of `FANOUT`, then pack upward 64 children per node.
    fn bulk_load(&mut self) -> Result<(), IndexError> {
        self._mbr_mem = None;
        let mut ids: Vec<u32> = (0..self.items.len() as u32)
            .filter(|&i| self.live[i as usize])
            .collect();
        if ids.is_empty() {
            return Err(IndexError::EmptyIndex);
        }
        // Device sort on coordinate 0 (charged like any global sort).
        let mut pairs: Vec<(f64, u32)> = ids
            .iter()
            .map(|&i| (f64::from(self.vec_of(i)[0]), i))
            .collect();
        gpu_sim::primitives::sort_pairs_by_key(&self.dev, &mut pairs);
        ids = pairs.into_iter().map(|(_, i)| i).collect();
        self.leaf_objs = ids;

        // Leaves.
        let mut leaves = Vec::new();
        let mut work = 0u64;
        for (c, chunk) in self.leaf_objs.chunks(FANOUT).enumerate() {
            let mut lo = vec![f32::INFINITY; self.dim];
            let mut hi = vec![f32::NEG_INFINITY; self.dim];
            for &o in chunk {
                for (d, &x) in self.vec_of(o).iter().enumerate() {
                    lo[d] = lo[d].min(x);
                    hi[d] = hi[d].max(x);
                }
            }
            work += (chunk.len() * self.dim) as u64;
            leaves.push(RNode {
                lo: lo.into_boxed_slice(),
                hi: hi.into_boxed_slice(),
                start: (c * FANOUT) as u32,
                count: chunk.len() as u32,
            });
        }
        self.levels = vec![leaves];
        // Upper levels.
        while self.levels.last().expect("non-empty").len() > 1 {
            let below = self.levels.last().expect("non-empty");
            let mut level = Vec::new();
            for (c, chunk) in below.chunks(FANOUT).enumerate() {
                let mut lo = vec![f32::INFINITY; self.dim];
                let mut hi = vec![f32::NEG_INFINITY; self.dim];
                for n in chunk {
                    for d in 0..self.dim {
                        lo[d] = lo[d].min(n.lo[d]);
                        hi[d] = hi[d].max(n.hi[d]);
                    }
                }
                work += (chunk.len() * self.dim) as u64;
                level.push(RNode {
                    lo: lo.into_boxed_slice(),
                    hi: hi.into_boxed_slice(),
                    start: (c * FANOUT) as u32,
                    count: chunk.len() as u32,
                });
            }
            self.levels.push(level);
        }
        self.dev.charge_kernel(work, 64);
        // MBR storage: 2·dim·f32 per node — the dimension-curse footprint.
        let nodes: usize = self.levels.iter().map(Vec::len).sum();
        let mbr_bytes = (nodes * 2 * self.dim * 4 + nodes * 8) as u64;
        self._mbr_mem = Some(self.dev.reserve(mbr_bytes, "LBPG MBR storage")?);
        Ok(())
    }

    /// Simulated construction time.
    pub fn build_seconds(&self) -> f64 {
        self.build_seconds
    }

    /// Lower bound on `d(q, any point in MBR)` under the node's Lp norm.
    fn mindist(&self, q: &[f32], node: &RNode) -> f64 {
        let mut acc = 0f64;
        for ((&x, &lo), &hi) in q.iter().zip(&node.lo[..]).zip(&node.hi[..]) {
            let excess = if x < lo {
                f64::from(lo - x)
            } else if x > hi {
                f64::from(x - hi)
            } else {
                0.0
            };
            match self.vm {
                VectorMetric::L1 => acc += excess,
                VectorMetric::L2 => acc += excess * excess,
                VectorMetric::Angular => unreachable!("rejected at build"),
            }
        }
        if self.vm == VectorMetric::L2 {
            acc.sqrt()
        } else {
            acc
        }
    }

    /// Level-synchronous device search: returns surviving leaf-entry ranges
    /// per query, charging MBR tests; candidate buffers are then allocated
    /// batch-wide (the OOM mechanism) before verification.
    fn collect_candidates(
        &self,
        queries: &[Item],
        radii: &[f64],
    ) -> Result<Vec<Vec<u32>>, IndexError> {
        let top = self.levels.len() - 1;
        // frontier[qi] = node indices at the current level
        let mut frontier: Vec<Vec<u32>> =
            vec![(0..self.levels[top].len() as u32).collect(); queries.len()];
        let mut work = 0u64;
        for lvl in (1..=top).rev() {
            let mut next: Vec<Vec<u32>> = vec![Vec::new(); queries.len()];
            for (qi, nodes) in frontier.iter().enumerate() {
                let q = queries[qi].as_vector().expect("vector query");
                for &ni in nodes {
                    let node = &self.levels[lvl][ni as usize];
                    work += (2 * self.dim) as u64;
                    if self.mindist(q, node) <= radii[qi] {
                        next[qi].extend(node.start..node.start + node.count);
                    }
                }
            }
            frontier = next;
        }
        // Leaf level: surviving leaves contribute their object ranges.
        let mut candidates: Vec<Vec<u32>> = vec![Vec::new(); queries.len()];
        for (qi, nodes) in frontier.iter().enumerate() {
            let q = queries[qi].as_vector().expect("vector query");
            for &ni in nodes {
                let node = &self.levels[0][ni as usize];
                work += (2 * self.dim) as u64;
                if self.mindist(q, node) <= radii[qi] {
                    candidates[qi].extend_from_slice(
                        &self.leaf_objs[node.start as usize..(node.start + node.count) as usize],
                    );
                }
            }
        }
        self.dev.charge_kernel(work, 64);
        Ok(candidates)
    }

    fn verify(
        &self,
        queries: &[Item],
        radii: &[f64],
        candidates: Vec<Vec<u32>>,
    ) -> Result<Vec<Vec<Neighbor>>, IndexError> {
        let total: usize = candidates.iter().map(Vec::len).sum();
        // Candidate buffers materialised on device — high-dimensional data
        // barely prunes, so this is where LBPG runs out of memory.
        let _buf = self.dev.reserve(
            (total * std::mem::size_of::<u64>()) as u64,
            "LBPG candidate buffers",
        )?;
        let flat: Vec<(u32, u32)> = candidates
            .iter()
            .enumerate()
            .flat_map(|(qi, c)| c.iter().map(move |&o| (qi as u32, o)))
            .collect();
        // One thread per candidate pair: the launch charges the pairs'
        // summed work with the longest pair as its span.
        let dists = self.dev.launch_batch(flat.len(), || {
            let mut dists = vec![0.0f64; flat.len()];
            let chunks: Vec<_> = flat
                .chunks(BATCH_CHUNK)
                .zip(dists.chunks_mut(BATCH_CHUNK))
                .collect();
            let (total, span) = self.dev.run_batch_chunks(0, chunks, |(pairs, out)| {
                let (mut total, mut span) = (0u64, 0u64);
                for (&(qi, o), d) in pairs.iter().zip(out) {
                    let (q, obj) = (&queries[qi as usize], &self.items[o as usize]);
                    let w = self.metric.work(q, obj);
                    *d = self.metric.distance(q, obj);
                    total += w;
                    span = span.max(w);
                }
                (total, span)
            });
            (dists, total, span)
        });
        let mut results: Vec<Vec<Neighbor>> = vec![Vec::new(); queries.len()];
        for ((qi, o), d) in flat.into_iter().zip(dists) {
            if self.live[o as usize] && d <= radii[qi as usize] {
                results[qi as usize].push(Neighbor::new(o, d));
            }
        }
        for r in &mut results {
            sort_neighbors(r);
        }
        Ok(results)
    }
}

impl SimilarityIndex<Item> for LbpgTree {
    fn name(&self) -> &'static str {
        "LBPG-Tree"
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
        let candidates = self.collect_candidates(queries, radii)?;
        let results = self.verify(queries, radii, candidates)?;
        let hits: usize = results.iter().map(Vec::len).sum();
        self.dev.d2h_transfer((hits * 16) as u64);
        Ok(results)
    }

    /// kNN by iterative radius doubling over the range path — LBPG is a
    /// range-query service first; this is its standard kNN adaptation.
    fn batch_knn(&self, queries: &[Item], k: usize) -> Result<Vec<Vec<Neighbor>>, IndexError> {
        if k == 0 {
            return Ok(vec![Vec::new(); queries.len()]);
        }
        let mut results: Vec<Vec<Neighbor>> = vec![Vec::new(); queries.len()];
        let mut radii: Vec<f64> = vec![self.initial_knn_radius(); queries.len()];
        let mut unresolved: Vec<usize> = (0..queries.len()).collect();
        for _round in 0..48 {
            if unresolved.is_empty() {
                break;
            }
            let qs: Vec<Item> = unresolved.iter().map(|&i| queries[i].clone()).collect();
            let rs: Vec<f64> = unresolved.iter().map(|&i| radii[i]).collect();
            let partial = self.batch_range(&qs, &rs)?;
            let mut still = Vec::new();
            for (slot, hits) in unresolved.iter().zip(partial) {
                if hits.len() >= k.min(self.len()) {
                    let mut h = hits;
                    h.truncate(k);
                    results[*slot] = h;
                } else {
                    radii[*slot] *= 2.0;
                    still.push(*slot);
                }
            }
            unresolved = still;
        }
        Ok(results)
    }

    fn memory_bytes(&self) -> u64 {
        let nodes: usize = self.levels.iter().map(Vec::len).sum();
        (nodes * (2 * self.dim * 4 + 8)) as u64 + 4 * self.leaf_objs.len() as u64
    }
}

impl LbpgTree {
    fn initial_knn_radius(&self) -> f64 {
        // Seed radius from the root MBR extent scaled to the expected
        // nearest-neighbour spacing.
        let root = &self.levels.last().expect("non-empty")[0];
        let extent: f64 = (0..self.dim)
            .map(|d| f64::from(root.hi[d] - root.lo[d]))
            .sum();
        (extent / (self.items.len().max(2) as f64)).max(1e-6)
    }
}

impl DynamicIndex<Item> for LbpgTree {
    /// Any update rebuilds the packed structure from scratch.
    fn insert(&mut self, obj: Item) -> Result<u32, IndexError> {
        if obj.as_vector().map(<[f32]>::len) != Some(self.dim) {
            return Err(IndexError::Unsupported("dimension mismatch"));
        }
        let id = self.items.len() as u32;
        self.dev.h2d_transfer(obj.size_bytes());
        self.items.push(obj);
        self.live.push(true);
        self.bulk_load()?;
        Ok(id)
    }

    fn remove(&mut self, id: u32) -> Result<bool, IndexError> {
        match self.live.get_mut(id as usize) {
            Some(l) if *l => {
                *l = false;
                self.bulk_load()?;
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Bulk path: apply all changes, re-pack once.
    fn batch_update(&mut self, insertions: Vec<Item>, deletions: &[u32]) -> Result<(), IndexError> {
        for &d in deletions {
            if let Some(l) = self.live.get_mut(d as usize) {
                *l = false;
            }
        }
        for obj in insertions {
            if obj.as_vector().map(<[f32]>::len) != Some(self.dim) {
                return Err(IndexError::Unsupported("dimension mismatch"));
            }
            self.dev.h2d_transfer(obj.size_bytes());
            self.items.push(obj);
            self.live.push(true);
        }
        self.bulk_load()
    }
}

impl_gpu_clocked!(LbpgTree);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearScan;
    use metric_space::DatasetKind;

    #[test]
    fn matches_linear_scan_on_tloc() {
        let d = DatasetKind::TLoc.generate(600, 19);
        let dev = Device::rtx_2080_ti();
        let t = LbpgTree::build(&dev, d.items.clone(), d.metric).expect("build");
        let scan = LinearScan::new(d.items.clone(), d.metric);
        let q = &d.items[77];
        let r = scan.knn_query(q, 6).expect("scan")[5].dist;
        assert_eq!(
            t.range_query(q, r).expect("t"),
            scan.range_query(q, r).expect("s")
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
        assert_eq!(da, db);
    }

    #[test]
    fn rejects_non_lp_data() {
        let words = DatasetKind::Words.generate(50, 19);
        let dev = Device::rtx_2080_ti();
        assert!(matches!(
            LbpgTree::build(&dev, words.items, words.metric),
            Err(IndexError::Unsupported(_))
        ));
        let vecs = DatasetKind::Vector.generate(50, 19); // angular, not Lp
        assert!(matches!(
            LbpgTree::build(&dev, vecs.items, vecs.metric),
            Err(IndexError::Unsupported(_))
        ));
    }

    #[test]
    fn high_dim_prunes_poorly() {
        // On Color (282-d L1) the MBR bound should admit most of the
        // dataset as candidates — the dimension curse the paper leans on.
        let d = DatasetKind::Color.generate(800, 19);
        let dev = Device::rtx_2080_ti();
        let t = LbpgTree::build(&dev, d.items.clone(), d.metric).expect("build");
        let scan = LinearScan::new(d.items.clone(), d.metric);
        let q = &d.items[5];
        let r = scan.knn_query(q, 4).expect("s")[3].dist;
        let cands = t
            .collect_candidates(std::slice::from_ref(q), &[r])
            .expect("cands");
        assert!(
            cands[0].len() > 400,
            "expected weak pruning, got {} candidates",
            cands[0].len()
        );
        // Still exact despite weak pruning.
        assert_eq!(
            t.range_query(q, r).expect("t"),
            scan.range_query(q, r).expect("s")
        );
    }

    #[test]
    fn update_rebuilds_and_stays_correct() {
        let d = DatasetKind::TLoc.generate(200, 19);
        let dev = Device::rtx_2080_ti();
        let mut t = LbpgTree::build(&dev, d.items.clone(), d.metric).expect("build");
        let id = t.insert(Item::vector(vec![3e3, 3e3])).expect("ins");
        let hits = t
            .range_query(&Item::vector(vec![3e3, 3e3]), 0.5)
            .expect("q");
        assert!(hits.iter().any(|n| n.id == id));
        assert!(t.remove(id).expect("rm"));
        let hits = t
            .range_query(&Item::vector(vec![3e3, 3e3]), 0.5)
            .expect("q");
        assert!(!hits.iter().any(|n| n.id == id));
        assert!(matches!(
            t.insert(Item::vector(vec![1.0])),
            Err(IndexError::Unsupported(_))
        ));
    }
}
