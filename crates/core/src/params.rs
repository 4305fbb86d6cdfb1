//! Tunable parameters of the GTS index, including the ablation toggles
//! called out in DESIGN.md §2.

pub use metric_space::ArenaLayout;

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
    /// Resolve distance kernels against the flat object arena (`true`,
    /// default). With it off, the batched kernels fall back to per-pair
    /// object access — same answers, same simulated cycles, no flat-layout
    /// wall-clock speedup (the invariance tests compare the two paths).
    pub use_arena: bool,
    /// Memory layout of the flat object arena
    /// ([`ArenaLayout::Legacy`] packed `f32` rows, the default, or
    /// [`ArenaLayout::Aligned`] 32-byte-aligned zero-padded 8-lane block
    /// rows). Both layouts run the **same canonical lane-summation order**
    /// inside the L1/L2 kernels, so answers are bit-identical and simulated
    /// cycles are equal — the aligned layout is a pure wall-clock lever
    /// (autovectorised contiguous block rows) like `host_threads`, and like
    /// it is **not persisted** by snapshots: restored indexes come back
    /// `Legacy` and rebuild their arena from the restored objects. Metrics
    /// without a block kernel (edit distance, angular) silently degrade an
    /// aligned request to `Legacy` at arena-build time, so the knob is safe
    /// to set for any dataset. Ignored when `use_arena` is off.
    pub arena_layout: ArenaLayout,
    /// Leaf verification through the **early-abandoning bounded kernel**
    /// ([`BatchMetric::distance_batch_bounded`](metric_space::BatchMetric::distance_batch_bounded)):
    /// each survivor of the stored-distance filter is evaluated against its
    /// query's radius (MRQ) or current kNN bound (MkNNQ), so an edit
    /// distance can abandon via the Ukkonen band once it provably exceeds
    /// the bound — and is charged only the banded work. Answers are
    /// bit-identical to the default path (the bound kernels are exact
    /// whenever they report a distance, and the kNN bounds are tie-safe);
    /// **simulated cycles differ** (that is the point — the banded DP is
    /// cheaper), with abandoned evaluations counted in
    /// [`StatsSnapshot::leaf_abandoned`](crate::stats::StatsSnapshot::leaf_abandoned).
    /// Off by default so the cycle-invariance suites keep their baseline. A
    /// kernel-strategy knob like `host_threads`, so not persisted by
    /// snapshots.
    pub bounded_verification: bool,
    /// Host threads executing the batched kernels; `0` (default) means
    /// "auto" — use the device's configured
    /// [`host_threads`](gpu_sim::DeviceConfig::host_threads). The unit of
    /// parallelism in a search is a chunk of
    /// [`QUERY_CHUNK`](crate::QUERY_CHUNK) whole query segments (a batch
    /// forming a single chunk, construction and the cache scan chunk their
    /// id blocks instead). Purely a wall-clock knob: the work is cut before
    /// the thread count is consulted and per-chunk accounts combine by
    /// sum/max, so answers, tie-breaks, and simulated cycle counts are
    /// bit-identical for any value (the thread-invariance tests prove it).
    /// Not persisted by snapshots — restored indexes come back with
    /// `0 = auto`.
    pub host_threads: usize,
    /// Cross-shard kNN **bound broadcast** for
    /// [`ShardedGts::batch_knn`](crate::ShardedGts): drive every shard's
    /// descent engine in lockstep with a per-level barrier, take the
    /// element-wise minimum of the per-query kNN bounds across shards after
    /// each level, and inject it into every shard's next level — so each
    /// shard prunes against the *global* k-th-NN bound instead of only its
    /// local one. Answers stay bit-identical to the independent-descent
    /// path (the broadcast bound only moves toward the true global k-th
    /// distance, and all pruning is tie-safe); **simulated cycles differ**:
    /// pruning improves, but every level pays the barrier (devices idle up
    /// to the slowest shard, modeled by clock alignment) and the bound
    /// exchange transfers. Off by default so the single-descent cycle
    /// baselines stay put. An execution-topology knob like `shards`, so not
    /// persisted by snapshots. Ignored by a plain [`Gts`](crate::Gts) and
    /// by single-shard pools (there is nothing to broadcast).
    pub bound_broadcast: bool,
    /// Number of shards for [`ShardedGts`](crate::ShardedGts): the dataset
    /// is partitioned into this many per-device sub-indexes whose answers
    /// are merged exactly. `1` (default) is the paper's single-GPU setup; a
    /// plain [`Gts`](crate::Gts) ignores this knob entirely. Like
    /// `host_threads`, it describes execution topology, not single-index
    /// structure, so single-index snapshots do not persist it (the sharded
    /// snapshot envelope records its own shard count).
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
            use_arena: true,
            arena_layout: ArenaLayout::Legacy,
            bounded_verification: false,
            host_threads: 0,
            bound_broadcast: false,
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

    /// Builder-style arena toggle (disable to run the per-pair fallback).
    pub fn with_use_arena(mut self, use_arena: bool) -> Self {
        self.use_arena = use_arena;
        self
    }

    /// Builder-style arena-layout override (request the SIMD-aligned block
    /// layout; metrics without a block kernel degrade it to `Legacy`).
    pub fn with_arena_layout(mut self, layout: ArenaLayout) -> Self {
        self.arena_layout = layout;
        self
    }

    /// Builder-style bounded-verification toggle (enable the
    /// early-abandoning banded leaf kernels).
    pub fn with_bounded_verification(mut self, bounded: bool) -> Self {
        self.bounded_verification = bounded;
        self
    }

    /// Builder-style host-thread override (`0` = auto, i.e. defer to the
    /// device configuration).
    pub fn with_host_threads(mut self, host_threads: usize) -> Self {
        self.host_threads = host_threads;
        self
    }

    /// Builder-style bound-broadcast toggle (enable the lockstep
    /// cross-shard kNN bound exchange; only multi-shard
    /// [`ShardedGts`](crate::ShardedGts) searches consult it).
    pub fn with_bound_broadcast(mut self, broadcast: bool) -> Self {
        self.bound_broadcast = broadcast;
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

    /// The thread count the batched kernels should actually use, given the
    /// device's configured auto value.
    pub fn effective_host_threads(&self, device_auto: usize) -> usize {
        if self.host_threads == 0 {
            device_auto.max(1)
        } else {
            self.host_threads
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let p = GtsParams::default();
        assert_eq!(p.node_capacity, 20, "paper's recommended Nc");
        assert_eq!(
            p.cache_capacity_bytes,
            5 * 1024,
            "paper's recommended cache"
        );
        assert!(p.two_sided_pruning && p.fft_pivots && p.query_grouping);
        assert!(p.use_arena, "flat arena kernels are the default");
        assert_eq!(
            p.arena_layout,
            ArenaLayout::Legacy,
            "legacy layout by default (aligned is opt-in)"
        );
        assert!(
            !p.bounded_verification,
            "bounded verification is opt-in (cycle baselines stay put)"
        );
        assert_eq!(p.host_threads, 0, "auto host threads by default");
        assert!(
            !p.bound_broadcast,
            "bound broadcast is opt-in (independent-descent cycle baselines stay put)"
        );
        assert_eq!(p.shards, 1, "single-device by default");
        assert_eq!(p.replicas, 1, "unreplicated by default");
    }

    #[test]
    fn host_thread_resolution() {
        let auto = GtsParams::default();
        assert_eq!(auto.effective_host_threads(8), 8);
        assert_eq!(auto.effective_host_threads(0), 1, "auto floors at 1");
        let pinned = GtsParams::default().with_host_threads(3);
        assert_eq!(pinned.effective_host_threads(8), 3);
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
