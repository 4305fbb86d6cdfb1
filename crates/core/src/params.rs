//! Tunable parameters of the GTS index, including the ablation toggles
//! that `gts-bench`'s `ablations` experiment turns off one at a time.

/// Construction/search parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GtsParams {
    /// Node capacity `Nc`: children per internal node. The paper sweeps
    /// {10, 20, 40, 80, 160, 320} (Table 3) and settles on **20** via the
    /// §5.3 cost model and Fig. 6.
    pub node_capacity: u32,
    /// RNG seed for the random first pivot (FFT's seed; the paper notes the
    /// initial pivot barely matters, citing \[62\]).
    pub seed: u64,
    /// Streaming-update cache-table capacity in bytes (§4.4; Table 5 sweeps
    /// 0.01 KB – 10 KB and recommends ~5 KB).
    pub cache_capacity_bytes: usize,
    /// Ablation A1: use both ring bounds (`true`, default) or only the lower
    /// bound the paper's text states explicitly.
    pub two_sided_pruning: bool,
    /// Ablation A2: pick non-root pivots by an FFT step over the parent
    /// distances (`true`, default) or uniformly at random.
    pub fft_pivots: bool,
    /// Ablation A4: two-stage query grouping (`true`, default). With
    /// grouping off, an oversized batch aborts with `OutOfMemory` — the
    /// memory-deadlock behaviour of the naive strategy.
    pub query_grouping: bool,
    /// Number of shards for [`ShardedGts`](crate::ShardedGts): the dataset
    /// is partitioned into this many per-device sub-indexes whose answers
    /// are merged exactly. `1` (default) is the paper's single-GPU setup; a
    /// plain [`Gts`](crate::Gts) ignores this knob entirely. It describes
    /// execution topology, not single-index structure, so single-index
    /// snapshots do not persist it (the sharded snapshot envelope records
    /// its own shard count).
    pub shards: u32,
    /// Number of full index replicas for
    /// [`ReplicatedShards`](crate::replica::ReplicatedShards): each replica
    /// is a complete [`ShardedGts`](crate::ShardedGts) over its own
    /// `shards` devices, so a pool must supply `shards × replicas` devices.
    /// `1` (default) is the unreplicated setup; plain [`Gts`](crate::Gts)
    /// and [`ShardedGts`](crate::ShardedGts) ignore this knob. An
    /// execution-topology knob like `shards`, so not persisted by
    /// snapshots.
    pub replicas: u32,
}

impl Default for GtsParams {
    fn default() -> Self {
        GtsParams {
            node_capacity: 20,
            seed: 0x67_75,
            cache_capacity_bytes: 5 * 1024,
            two_sided_pruning: true,
            fft_pivots: true,
            query_grouping: true,
            shards: 1,
            replicas: 1,
        }
    }
}

impl GtsParams {
    /// Builder-style node-capacity override.
    pub fn with_node_capacity(mut self, nc: u32) -> Self {
        assert!(nc >= 2);
        self.node_capacity = nc;
        self
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style cache-capacity override.
    pub fn with_cache_capacity(mut self, bytes: usize) -> Self {
        self.cache_capacity_bytes = bytes;
        self
    }

    /// Builder-style shard-count override (≥ 1; only
    /// [`ShardedGts`](crate::ShardedGts) consults it).
    pub fn with_shards(mut self, shards: u32) -> Self {
        assert!(shards >= 1, "need at least one shard");
        self.shards = shards;
        self
    }

    /// Builder-style replica-count override (≥ 1; only
    /// [`ReplicatedShards`](crate::replica::ReplicatedShards) consults it).
    pub fn with_replicas(mut self, replicas: u32) -> Self {
        assert!(replicas >= 1, "need at least one replica");
        self.replicas = replicas;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        // Exhaustive (no `..`): a new field is a compile error here, so
        // adding a knob is a deliberate act.
        let GtsParams {
            node_capacity,
            seed: _,
            cache_capacity_bytes,
            two_sided_pruning,
            fft_pivots,
            query_grouping,
            shards,
            replicas,
        } = GtsParams::default();
        assert_eq!(node_capacity, 20, "paper's recommended Nc");
        assert_eq!(cache_capacity_bytes, 5 * 1024, "paper's recommended cache");
        assert!(two_sided_pruning && fft_pivots && query_grouping);
        assert_eq!(shards, 1, "single-device by default");
        assert_eq!(replicas, 1, "unreplicated by default");
    }

    #[test]
    fn builders() {
        let p = GtsParams::default()
            .with_node_capacity(40)
            .with_seed(9)
            .with_cache_capacity(100);
        assert_eq!(
            (p.node_capacity, p.seed, p.cache_capacity_bytes),
            (40, 9, 100)
        );
    }
}
