//! Uniform adapter over GTS and every baseline, so experiments can loop
//! "for each method" exactly like the paper's figures do.

use baselines::{Bst, Clocked, Egnat, Ganns, GpuTable, GpuTree, LbpgTree, Mvpt};
use gpu_sim::Device;
use gts_core::{Gts, GtsParams};
use metric_space::index::{DynamicIndex, IndexError, Neighbor, SimilarityIndex};
use metric_space::{Dataset, DatasetKind, Item, ItemMetric};
use std::sync::Arc;

use crate::config::Config;

/// The methods of the paper's evaluation, in figure-legend order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Method {
    /// Bisector tree (CPU).
    Bst,
    /// EGNAT (CPU).
    Egnat,
    /// MVP-tree (CPU).
    Mvpt,
    /// Brute-force distance table + Dr.Top-k (GPU).
    GpuTable,
    /// G-PICS multi-MVP-tree (GPU).
    GpuTree,
    /// STR R-tree, Lp vector data only (GPU).
    Lbpg,
    /// Proximity-graph ANN, vector kNN only, approximate (GPU).
    Ganns,
    /// This paper's index.
    Gts,
}

impl Method {
    /// Legend order of Fig. 7.
    pub const ALL: [Method; 8] = [
        Method::Bst,
        Method::Egnat,
        Method::Mvpt,
        Method::GpuTable,
        Method::GpuTree,
        Method::Lbpg,
        Method::Ganns,
        Method::Gts,
    ];

    /// Methods with an index to construct (Table 4 rows; GPU-Table builds
    /// nothing).
    pub const CONSTRUCTED: [Method; 7] = [
        Method::Bst,
        Method::Egnat,
        Method::Mvpt,
        Method::GpuTree,
        Method::Lbpg,
        Method::Ganns,
        Method::Gts,
    ];

    /// Display name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            Method::Bst => "BST",
            Method::Egnat => "EGNAT",
            Method::Mvpt => "MVPT",
            Method::GpuTable => "GPU-Table",
            Method::GpuTree => "GPU-Tree",
            Method::Lbpg => "LBPG-Tree",
            Method::Ganns => "GANNS",
            Method::Gts => "GTS",
        }
    }

    /// Dataset support, mirroring the paper's Remark: LBPG needs Lp vector
    /// data (T-Loc, Color); GANNS needs vector data (T-Loc, Vector, Color).
    pub fn supports(self, kind: DatasetKind) -> bool {
        match self {
            Method::Lbpg => kind.metric().is_lp_vector(),
            Method::Ganns => kind.metric().is_vector(),
            _ => true,
        }
    }

    /// Whether the method answers exact range queries (GANNS is kNN-only).
    pub fn supports_range(self) -> bool {
        self != Method::Ganns
    }
}

/// Result of constructing an index for an experiment.
pub struct Built {
    /// The index, ready to query.
    pub index: AnyIndex,
    /// Simulated construction seconds.
    pub build_seconds: f64,
    /// Index structure bytes (Table 4 storage column).
    pub memory_bytes: u64,
}

/// Type-erased index wrapper.
pub enum AnyIndex {
    /// Bisector tree.
    Bst(Bst),
    /// EGNAT.
    Egnat(Egnat),
    /// MVP-tree.
    Mvpt(Mvpt),
    /// GPU distance table.
    GpuTable(GpuTable),
    /// G-PICS multi-tree.
    GpuTree(GpuTree),
    /// GPU R-tree.
    Lbpg(LbpgTree),
    /// GPU graph ANN.
    Ganns(Ganns),
    /// GTS.
    Gts(Box<Gts<Item, ItemMetric>>),
}

macro_rules! dispatch {
    ($self:expr, $idx:ident => $body:expr) => {
        match $self {
            AnyIndex::Bst($idx) => $body,
            AnyIndex::Egnat($idx) => $body,
            AnyIndex::Mvpt($idx) => $body,
            AnyIndex::GpuTable($idx) => $body,
            AnyIndex::GpuTree($idx) => $body,
            AnyIndex::Lbpg($idx) => $body,
            AnyIndex::Ganns($idx) => $body,
            AnyIndex::Gts($idx) => $body,
        }
    };
}

impl AnyIndex {
    /// Build `method` over `data` on `dev`, timing it on the appropriate
    /// simulated clock. GTS uses `gts_params`.
    pub fn build(
        method: Method,
        dev: &Arc<Device>,
        data: &Dataset,
        cfg: &Config,
        gts_params: GtsParams,
    ) -> Result<Built, IndexError> {
        let items = data.items.clone();
        let metric = data.metric;
        match method {
            Method::Bst => {
                let b = Bst::build(items, metric);
                Ok(Built {
                    build_seconds: b.build_seconds(),
                    memory_bytes: b.memory_bytes(),
                    index: AnyIndex::Bst(b),
                })
            }
            Method::Egnat => {
                let b = Egnat::build_with_budget(items, metric, Some(cfg.egnat_host_budget()))?;
                Ok(Built {
                    build_seconds: b.build_seconds(),
                    memory_bytes: b.memory_bytes(),
                    index: AnyIndex::Egnat(b),
                })
            }
            Method::Mvpt => {
                let b = Mvpt::build(items, metric);
                Ok(Built {
                    build_seconds: b.build_seconds(),
                    memory_bytes: b.memory_bytes(),
                    index: AnyIndex::Mvpt(b),
                })
            }
            Method::GpuTable => {
                let start = dev.cycles();
                let b = GpuTable::new(dev, items, metric)?;
                Ok(Built {
                    build_seconds: dev.seconds_since(start),
                    memory_bytes: b.memory_bytes(),
                    index: AnyIndex::GpuTable(b),
                })
            }
            Method::GpuTree => {
                let b = GpuTree::build(dev, items, metric)?;
                Ok(Built {
                    build_seconds: b.build_seconds(),
                    memory_bytes: b.memory_bytes(),
                    index: AnyIndex::GpuTree(b),
                })
            }
            Method::Lbpg => {
                let b = LbpgTree::build(dev, items, metric)?;
                Ok(Built {
                    build_seconds: b.build_seconds(),
                    memory_bytes: b.memory_bytes(),
                    index: AnyIndex::Lbpg(b),
                })
            }
            Method::Ganns => {
                let b = Ganns::build(dev, items, metric)?;
                Ok(Built {
                    build_seconds: b.build_seconds(),
                    memory_bytes: b.memory_bytes(),
                    index: AnyIndex::Ganns(b),
                })
            }
            Method::Gts => {
                let start = dev.cycles();
                let b = Gts::build(dev, items, metric, gts_params)?;
                Ok(Built {
                    build_seconds: dev.seconds_since(start),
                    memory_bytes: b.memory_bytes(),
                    index: AnyIndex::Gts(Box::new(b)),
                })
            }
        }
    }

    /// Which method this is.
    pub fn method(&self) -> Method {
        match self {
            AnyIndex::Bst(_) => Method::Bst,
            AnyIndex::Egnat(_) => Method::Egnat,
            AnyIndex::Mvpt(_) => Method::Mvpt,
            AnyIndex::GpuTable(_) => Method::GpuTable,
            AnyIndex::GpuTree(_) => Method::GpuTree,
            AnyIndex::Lbpg(_) => Method::Lbpg,
            AnyIndex::Ganns(_) => Method::Ganns,
            AnyIndex::Gts(_) => Method::Gts,
        }
    }

    /// Batched MRQ.
    pub fn batch_range(
        &self,
        queries: &[Item],
        radii: &[f64],
    ) -> Result<Vec<Vec<Neighbor>>, IndexError> {
        dispatch!(self, i => i.batch_range(queries, radii))
    }

    /// Batched MkNNQ.
    pub fn batch_knn(&self, queries: &[Item], k: usize) -> Result<Vec<Vec<Neighbor>>, IndexError> {
        dispatch!(self, i => i.batch_knn(queries, k))
    }

    /// Streaming insert.
    pub fn insert(&mut self, obj: Item) -> Result<u32, IndexError> {
        dispatch!(self, i => i.insert(obj))
    }

    /// Streaming delete.
    pub fn remove(&mut self, id: u32) -> Result<bool, IndexError> {
        dispatch!(self, i => i.remove(id))
    }

    /// Bulk update.
    pub fn batch_update(
        &mut self,
        insertions: Vec<Item>,
        deletions: &[u32],
    ) -> Result<(), IndexError> {
        dispatch!(self, i => i.batch_update(insertions, deletions))
    }

    /// Index structure bytes.
    pub fn memory_bytes(&self) -> u64 {
        dispatch!(self, i => i.memory_bytes())
    }

    /// Simulated clock checkpoint.
    pub fn mark(&self) -> u64 {
        match self {
            AnyIndex::Bst(i) => i.mark(),
            AnyIndex::Egnat(i) => i.mark(),
            AnyIndex::Mvpt(i) => i.mark(),
            AnyIndex::GpuTable(i) => i.mark(),
            AnyIndex::GpuTree(i) => i.mark(),
            AnyIndex::Lbpg(i) => i.mark(),
            AnyIndex::Ganns(i) => i.mark(),
            AnyIndex::Gts(i) => i.device().cycles(),
        }
    }

    /// Simulated seconds since `mark`.
    pub fn elapsed_since(&self, mark: u64) -> f64 {
        match self {
            AnyIndex::Bst(i) => i.elapsed_since(mark),
            AnyIndex::Egnat(i) => i.elapsed_since(mark),
            AnyIndex::Mvpt(i) => i.elapsed_since(mark),
            AnyIndex::GpuTable(i) => i.elapsed_since(mark),
            AnyIndex::GpuTree(i) => i.elapsed_since(mark),
            AnyIndex::Lbpg(i) => i.elapsed_since(mark),
            AnyIndex::Ganns(i) => i.elapsed_since(mark),
            AnyIndex::Gts(i) => i.device().seconds_since(mark),
        }
    }

    /// Throughput of one batched MRQ run, in queries per minute of
    /// simulated time. `Err` (e.g. OOM) propagates so callers can print `/`.
    pub fn mrq_throughput(&self, queries: &[Item], radii: &[f64]) -> Result<f64, IndexError> {
        let m = self.mark();
        self.batch_range(queries, radii)?;
        let secs = self.elapsed_since(m).max(1e-12);
        Ok(queries.len() as f64 / secs * 60.0)
    }

    /// Throughput of one batched MkNNQ run, in queries per minute.
    pub fn knn_throughput(&self, queries: &[Item], k: usize) -> Result<f64, IndexError> {
        let m = self.mark();
        self.batch_knn(queries, k)?;
        let secs = self.elapsed_since(m).max(1e-12);
        Ok(queries.len() as f64 / secs * 60.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supports_matrix_matches_paper_remark() {
        use DatasetKind::*;
        assert!(Method::Lbpg.supports(TLoc) && Method::Lbpg.supports(Color));
        assert!(!Method::Lbpg.supports(Words) && !Method::Lbpg.supports(Vector));
        assert!(Method::Ganns.supports(TLoc) && Method::Ganns.supports(Vector));
        assert!(!Method::Ganns.supports(Dna));
        for m in Method::ALL {
            if !matches!(m, Method::Lbpg | Method::Ganns) {
                assert!(m.supports(Words) && m.supports(Color), "{m:?}");
            }
        }
        assert!(!Method::Ganns.supports_range());
    }

    #[test]
    fn build_and_throughput_all_methods() {
        let cfg = Config::tiny();
        let data = DatasetKind::TLoc.generate(400, 1);
        for m in Method::ALL {
            let dev = cfg.device();
            let built = AnyIndex::build(m, &dev, &data, &cfg, GtsParams::default())
                .unwrap_or_else(|e| panic!("{} failed: {e}", m.name()));
            let queries: Vec<Item> = data.items[..4].to_vec();
            if m.supports_range() {
                let t = built
                    .index
                    .mrq_throughput(&queries, &[0.5; 4])
                    .expect("mrq");
                assert!(t > 0.0, "{}", m.name());
            }
            let t = built.index.knn_throughput(&queries, 3).expect("knn");
            assert!(t > 0.0, "{}", m.name());
            assert!(built.build_seconds >= 0.0);
        }
    }
}
