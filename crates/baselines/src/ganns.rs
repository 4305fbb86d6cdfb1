//! GANNS — the GPU-accelerated proximity-graph ANN method of Yu et al.
//! \[58\]: a navigable kNN graph built on the device, searched by greedy beam
//! expansion.
//!
//! Special-purpose per the paper's Remark: **vector data only** (T-Loc,
//! Vector, Color), **kNN only** (no range queries), and **approximate**
//! (`is_exact() == false`; the harness reports recall instead). The graph's
//! adjacency lists plus the per-insertion parallel work pools make its
//! footprint an order of magnitude above GTS (Table 4: 244 MB vs 4 MB on
//! Color) and blow device memory on T-Loc-scale data — the Table 4 `/`.

use crate::clock::impl_gpu_clocked;
use gpu_sim::{Device, Reservation};
use metric_space::index::{DynamicIndex, IndexError, Neighbor, SimilarityIndex};
use metric_space::{Footprint, Item, ItemMetric, Metric};
use std::collections::HashSet;
use std::sync::Arc;

/// Graph degree bound `M` (neighbours kept per node).
const DEGREE: usize = 16;
/// Construction beam width.
const EF_CONSTRUCTION: usize = 64;
/// Per-insertion parallel workspace entries (candidate pools, visited maps)
/// — GANNS processes insertions in large parallel waves, so this workspace
/// exists for every object at once during construction.
const WORKSPACE_PER_NODE: u64 = 64 * 16;

/// GPU proximity-graph ANN index.
pub struct Ganns {
    pub(crate) dev: Arc<Device>,
    items: Vec<Item>,
    metric: ItemMetric,
    live: Vec<bool>,
    adj: Vec<Vec<u32>>,
    entry: u32,
    build_seconds: f64,
    _resident: Reservation,
    _graph_mem: Option<Reservation>,
}

impl Ganns {
    /// Build the proximity graph; `Unsupported` for non-vector data, OOM
    /// when the graph + construction workspace exceed device memory.
    pub fn build(
        dev: &Arc<Device>,
        items: Vec<Item>,
        metric: ItemMetric,
    ) -> Result<Self, IndexError> {
        if !metric.is_vector() {
            return Err(IndexError::Unsupported("GANNS supports vector data only"));
        }
        if items.is_empty() {
            return Err(IndexError::EmptyIndex);
        }
        let bytes: u64 = items.iter().map(Footprint::size_bytes).sum();
        let resident = dev.reserve(bytes, "GANNS resident objects")?;
        dev.h2d_transfer(bytes);
        let start = dev.cycles();
        let mut g = Ganns {
            dev: Arc::clone(dev),
            live: vec![true; items.len()],
            items,
            metric,
            adj: Vec::new(),
            entry: 0,
            build_seconds: 0.0,
            _resident: resident,
            _graph_mem: None,
        };
        g.rebuild_graph()?;
        g.build_seconds = g.dev.seconds_since(start);
        Ok(g)
    }

    fn rebuild_graph(&mut self) -> Result<(), IndexError> {
        self._graph_mem = None;
        let n = self.items.len();
        // Construction workspace (candidate pools for the parallel insertion
        // waves) + adjacency. Reserved up front: this is the T-Loc OOM.
        let graph_bytes = (n * DEGREE * 4) as u64;
        let workspace = self.dev.reserve(
            n as u64 * WORKSPACE_PER_NODE,
            "GANNS construction workspace",
        )?;
        let graph_mem = self.dev.reserve(graph_bytes, "GANNS adjacency lists")?;

        self.adj = vec![Vec::new(); n];
        self.entry = (0..n as u32)
            .find(|&i| self.live[i as usize])
            .ok_or(IndexError::EmptyIndex)?;
        let mut inserted: Vec<u32> = vec![self.entry];
        for i in 0..n as u32 {
            if i == self.entry || !self.live[i as usize] {
                continue;
            }
            let (found, work, span) =
                self.beam_search_graph(&self.items[i as usize].clone(), EF_CONSTRUCTION, &inserted);
            self.dev.charge_kernel(work, span);
            let neighbours: Vec<u32> = found.iter().take(DEGREE).map(|nb| nb.id).collect();
            for &nb in &neighbours {
                self.adj[nb as usize].push(i);
                if self.adj[nb as usize].len() > DEGREE {
                    self.truncate_neighbours(nb);
                }
            }
            self.adj[i as usize] = neighbours;
            inserted.push(i);
        }
        drop(workspace); // construction pools released; adjacency stays
        self._graph_mem = Some(graph_mem);
        Ok(())
    }

    /// Keep a node's `DEGREE` nearest neighbours (charged).
    fn truncate_neighbours(&mut self, node: u32) {
        let base = self.items[node as usize].clone();
        let mut work = 0u64;
        let mut scored: Vec<(f64, u32)> = self.adj[node as usize]
            .iter()
            .map(|&nb| {
                let o = &self.items[nb as usize];
                work += self.metric.work(&base, o);
                (self.metric.distance(&base, o), nb)
            })
            .collect();
        scored.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN").then(a.1.cmp(&b.1)));
        scored.truncate(DEGREE);
        self.adj[node as usize] = scored.into_iter().map(|(_, nb)| nb).collect();
        self.dev.charge_kernel(work, 64);
    }

    /// Greedy beam search over the graph restricted to `universe` (during
    /// construction) or the full graph (`universe` empty ⇒ all inserted).
    /// Returns candidates ascending by distance plus (work, span).
    fn beam_search_graph(
        &self,
        q: &Item,
        ef: usize,
        universe: &[u32],
    ) -> (Vec<Neighbor>, u64, u64) {
        let start = if universe.is_empty() {
            self.entry
        } else {
            universe[0]
        };
        let mut work = 0u64;
        let mut hops = 0u64;
        let dist = |work: &mut u64, id: u32| {
            let o = &self.items[id as usize];
            *work += self.metric.work(q, o);
            self.metric.distance(q, o)
        };
        let mut visited: HashSet<u32> = HashSet::new();
        visited.insert(start);
        let d0 = dist(&mut work, start);
        // `pool`: ascending candidates; `frontier`: ids still to expand.
        let mut pool: Vec<Neighbor> = vec![Neighbor::new(start, d0)];
        let mut frontier: Vec<Neighbor> = vec![Neighbor::new(start, d0)];
        while let Some(cur) = frontier.pop() {
            hops += 1;
            let worst = pool
                .get(ef.saturating_sub(1))
                .map_or(f64::INFINITY, |n| n.dist);
            if cur.dist > worst {
                break;
            }
            for &nb in &self.adj[cur.id as usize] {
                if !visited.insert(nb) {
                    continue;
                }
                let d = dist(&mut work, nb);
                let worst = pool
                    .get(ef.saturating_sub(1))
                    .map_or(f64::INFINITY, |n| n.dist);
                if d < worst || pool.len() < ef {
                    let n = Neighbor::new(nb, d);
                    let pos = pool.partition_point(|x| (x.dist, x.id) < (d, nb));
                    pool.insert(pos, n);
                    pool.truncate(ef);
                    // Frontier kept sorted descending so pop() yields the
                    // closest unexpanded candidate.
                    let fpos = frontier.partition_point(|x| (x.dist, x.id) > (d, nb));
                    frontier.insert(fpos, n);
                }
            }
        }
        // Span: the greedy walk is sequential hop-to-hop; each hop's
        // neighbour distances evaluate in parallel on the block.
        let span = hops * (work / hops.max(1) / (DEGREE as u64)).max(1);
        (pool, work, span)
    }

    /// Simulated construction time.
    pub fn build_seconds(&self) -> f64 {
        self.build_seconds
    }

    /// Recall of this index against exact answers (harness helper).
    pub fn recall(expected: &[Neighbor], got: &[Neighbor]) -> f64 {
        if expected.is_empty() {
            return 1.0;
        }
        let want: HashSet<u32> = expected.iter().map(|n| n.id).collect();
        let hit = got.iter().filter(|n| want.contains(&n.id)).count();
        hit as f64 / expected.len() as f64
    }
}

impl SimilarityIndex<Item> for Ganns {
    fn name(&self) -> &'static str {
        "GANNS"
    }

    fn len(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }

    fn range_query(&self, _q: &Item, _r: f64) -> Result<Vec<Neighbor>, IndexError> {
        Err(IndexError::Unsupported(
            "GANNS answers kNN queries only (no exact range support)",
        ))
    }

    fn knn_query(&self, q: &Item, k: usize) -> Result<Vec<Neighbor>, IndexError> {
        self.dev.h2d_transfer(q.size_bytes());
        let ef = (4 * k).max(32);
        let (mut pool, work, span) = self.beam_search_graph(q, ef, &[]);
        self.dev.charge_kernel(work, span);
        pool.retain(|n| self.live[n.id as usize]);
        pool.truncate(k);
        self.dev.d2h_transfer((pool.len() * 16) as u64);
        Ok(pool)
    }

    fn memory_bytes(&self) -> u64 {
        (self.adj.iter().map(Vec::len).sum::<usize>() * 4 + self.adj.len() * 8) as u64
    }

    fn is_exact(&self) -> bool {
        false
    }
}

impl DynamicIndex<Item> for Ganns {
    /// Updates rebuild the graph from scratch (per the paper's Fig. 5
    /// discussion of GANNS).
    fn insert(&mut self, obj: Item) -> Result<u32, IndexError> {
        let id = self.items.len() as u32;
        self.dev.h2d_transfer(obj.size_bytes());
        self.items.push(obj);
        self.live.push(true);
        self.rebuild_graph()?;
        Ok(id)
    }

    fn remove(&mut self, id: u32) -> Result<bool, IndexError> {
        match self.live.get_mut(id as usize) {
            Some(l) if *l => {
                *l = false;
                self.rebuild_graph()?;
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Bulk path: apply all changes, rebuild the graph once.
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
        self.rebuild_graph()
    }
}

impl_gpu_clocked!(Ganns);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearScan;
    use metric_space::DatasetKind;

    #[test]
    fn high_recall_on_clustered_vectors() {
        let d = DatasetKind::Vector.generate(400, 23);
        let dev = Device::rtx_2080_ti();
        let g = Ganns::build(&dev, d.items.clone(), d.metric).expect("build");
        let scan = LinearScan::new(d.items.clone(), d.metric);
        let mut total = 0.0;
        let probes = 20;
        for i in 0..probes {
            let q = &d.items[i * 17];
            let exact = scan.knn_query(q, 10).expect("scan");
            let approx = g.knn_query(q, 10).expect("ganns");
            total += Ganns::recall(&exact, &approx);
        }
        let recall = total / f64::from(probes as u32);
        assert!(recall > 0.8, "recall = {recall}");
        assert!(!g.is_exact());
    }

    #[test]
    fn rejects_text_and_range() {
        let d = DatasetKind::Words.generate(50, 23);
        let dev = Device::rtx_2080_ti();
        assert!(matches!(
            Ganns::build(&dev, d.items, d.metric),
            Err(IndexError::Unsupported(_))
        ));
        let v = DatasetKind::Vector.generate(60, 23);
        let g = Ganns::build(&dev, v.items.clone(), v.metric).expect("build");
        assert!(matches!(
            g.range_query(&v.items[0], 1.0),
            Err(IndexError::Unsupported(_))
        ));
    }

    #[test]
    fn construction_oom_on_large_data() {
        let d = DatasetKind::TLoc.generate(5000, 23);
        let dev = gpu_sim::Device::new(gpu_sim::DeviceConfig {
            global_mem_bytes: 2 << 20, // 2 MiB: workspace cannot fit
            ..gpu_sim::DeviceConfig::rtx_2080_ti()
        });
        assert!(matches!(
            Ganns::build(&dev, d.items, d.metric),
            Err(IndexError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn update_rebuilds() {
        let d = DatasetKind::Vector.generate(150, 23);
        let dev = Device::rtx_2080_ti();
        let mut g = Ganns::build(&dev, d.items.clone(), d.metric).expect("build");
        let probe = d.items[3].clone();
        let id = g.insert(probe.clone()).expect("ins");
        let knn = g.knn_query(&probe, 3).expect("q");
        assert!(
            knn.iter().any(|n| n.id == id || n.id == 3),
            "near-duplicate found"
        );
        assert!(g.remove(id).expect("rm"));
        let knn = g.knn_query(&probe, 3).expect("q");
        assert!(!knn.iter().any(|n| n.id == id));
    }
}
