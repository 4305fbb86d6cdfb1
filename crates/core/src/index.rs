//! The public GTS index type.

use crate::build::{self, Structure};
use crate::cost::CostModel;
use crate::dispatch::Payloads;
use crate::engine;
use crate::node::NodeList;
use crate::params::GtsParams;
use crate::search::SearchCtx;
use crate::shard::merge_knn;
use crate::stats::{SearchStats, StatsSnapshot};
use crate::table::TableList;
use crate::update::CacheTable;
use gpu_sim::{Device, Reservation};
use metric_space::index::{sort_neighbors, DynamicIndex, IndexError, Neighbor, SimilarityIndex};
use metric_space::{BatchMetric, Footprint, ObjectArena};
use std::sync::Arc;

/// GTS: the GPU-based tree index for similarity search in general metric
/// spaces (the paper's contribution).
///
/// Generic over the object type `O` and metric `M`; the only requirements
/// are that distances satisfy the metric axioms and objects can report their
/// memory footprint (for device residency accounting).
///
/// ```
/// use gts_core::{Gts, GtsParams};
/// use gpu_sim::Device;
/// use metric_space::{DatasetKind, SimilarityIndex};
///
/// let data = DatasetKind::Words.generate(500, 42);
/// let dev = Device::rtx_2080_ti();
/// let gts = Gts::build(&dev, data.items.clone(), data.metric, GtsParams::default()).unwrap();
/// let answers = gts.range_query(&data.items[0], 1.0).unwrap();
/// assert!(answers.iter().any(|n| n.id == 0), "query object is its own neighbour");
/// ```
pub struct Gts<O, M> {
    dev: Arc<Device>,
    metric: M,
    params: GtsParams,
    /// Every object ever inserted; ids are indices here and never recycled.
    objects: Vec<O>,
    /// Flat payload arena mirroring `objects` (same ids): the layout every
    /// batched distance kernel reads. Built with the index, then extended
    /// by every insert and batch update, so it always holds exactly
    /// `objects`.
    arena: ObjectArena,
    /// Host threads this index's batched kernels run on: the device's
    /// [`host_threads`](gpu_sim::DeviceConfig::host_threads), divided by the
    /// number of shards a [`ShardedGts`](crate::ShardedGts) searches
    /// concurrently (S shards × T workers would oversubscribe the host
    /// S-fold). Wall-clock only.
    threads: usize,
    /// Liveness per id (deletions flip this off).
    live: Vec<bool>,
    nodes: NodeList,
    table: TableList,
    cache: CacheTable,
    stats: SearchStats,
    rebuilds: u64,
    /// Device residency of (node list, table list, object payloads).
    residency: Option<[Reservation; 3]>,
}

/// One shard's share of the device's host threads (at least one).
fn shard_threads(dev: &Device, shards: usize) -> usize {
    (dev.host_threads() / shards).max(1)
}

/// The flat layout of `objects` under `metric`: without one, they cannot
/// be indexed.
fn flat_arena<O, M: BatchMetric<O>>(metric: &M, objects: &[O]) -> Result<ObjectArena, IndexError> {
    metric.build_arena(objects).ok_or(IndexError::Unsupported(
        "the metric has no flat payload layout for these objects",
    ))
}

impl<O, M> Gts<O, M>
where
    O: Clone + Send + Sync + Footprint,
    M: BatchMetric<O>,
{
    /// Build the index over `objects` on device `dev`.
    ///
    /// Construction is the paper's level-synchronous parallel algorithm
    /// (§4.3): one mapping + partitioning round per level, every distance
    /// of a level computed by one batched kernel. The returned index holds
    /// its device residency (node list, table list, object payloads) until
    /// dropped.
    ///
    /// ```
    /// use gts_core::{Gts, GtsParams};
    /// use gpu_sim::Device;
    /// use metric_space::DatasetKind;
    ///
    /// // A metric dataset: English-like words under edit distance.
    /// let data = DatasetKind::Words.generate(1_000, 42);
    /// let device = Device::rtx_2080_ti();
    /// let index = Gts::build(&device, data.items.clone(), data.metric, GtsParams::default())
    ///     .expect("construction");
    /// assert!(index.height() >= 1);
    /// assert_eq!(index.node_capacity(), 20, "the paper's recommended Nc");
    /// assert!(device.sim_seconds() > 0.0, "construction charges the simulated clock");
    /// ```
    pub fn build(
        dev: &Arc<Device>,
        objects: Vec<O>,
        metric: M,
        params: GtsParams,
    ) -> Result<Self, IndexError> {
        metric_space::index::check_objects(&metric, &objects, None)?;
        Self::build_shard(dev, objects, metric, params, 1)
    }

    /// [`Gts::build`] for one of `shards` sub-indexes that search
    /// concurrently, each on its share of the device's host threads.
    pub(crate) fn build_shard(
        dev: &Arc<Device>,
        objects: Vec<O>,
        metric: M,
        params: GtsParams,
        shards: usize,
    ) -> Result<Self, IndexError> {
        if objects.is_empty() {
            return Err(IndexError::EmptyIndex);
        }
        let arena = flat_arena(&metric, &objects)?;
        let live = vec![true; objects.len()];
        let mut gts = Gts {
            dev: Arc::clone(dev),
            metric,
            params,
            objects,
            arena,
            threads: shard_threads(dev, shards),
            live,
            nodes: NodeList::new(crate::node::TreeShape {
                nc: params.node_capacity,
                h: 1,
            }),
            table: TableList::default(),
            cache: CacheTable::new(params.cache_capacity_bytes),
            stats: SearchStats::default(),
            rebuilds: 0,
            residency: None,
        };
        gts.rebuild()?;
        gts.rebuilds = 0; // the initial build is not an update-triggered rebuild
        Ok(gts)
    }

    /// Check that every object of `objs` can join this index: the metric
    /// accepts it, it has the stored objects' shape, and the arena can hold
    /// it after the stored ones (same payload family, flat buffer within
    /// its `u32` offsets).
    pub(crate) fn check_new(&self, objs: &[O]) -> Result<(), IndexError> {
        metric_space::index::check_objects(&self.metric, objs, self.objects.first())?;
        if objs.is_empty() || self.metric.arena_fits(&self.arena, objs) {
            Ok(())
        } else {
            Err(IndexError::InvalidObject(
                "payload does not fit the index's flat arena",
            ))
        }
    }

    /// Append `obj` to the object store and the arena, live.
    fn push_object(&mut self, obj: O) {
        let pushed = self.metric.arena_push(&mut self.arena, &obj);
        assert!(pushed, "check_new admits only objects the arena can hold");
        self.objects.push(obj);
        self.live.push(true);
    }

    /// Host-only half of a batch update: tombstone `deletions` and append
    /// `insertions` to the object store and the arena **without** touching
    /// the device. Infallible and panic-free for insertions
    /// [`Gts::check_new`] admitted, so a caller can stage several shards and
    /// only then run the (fallible, fault-prone) rebuilds — a panic mid
    /// rebuild leaves every host store already complete. Returns how many
    /// deletions flipped a live object to dead (invalid and duplicate ids
    /// are skipped, matching [`Gts::batch_update`]'s semantics).
    pub(crate) fn stage_update(&mut self, insertions: Vec<O>, deletions: &[u32]) -> usize {
        let mut removed = 0usize;
        for &d in deletions {
            if let Some(live) = self.live.get_mut(d as usize) {
                if *live {
                    *live = false;
                    removed += 1;
                }
            }
        }
        for obj in insertions {
            self.push_object(obj);
        }
        removed
    }

    /// Host-only half of a streaming insert (§4.4): ship `obj` to the
    /// device-resident cache and append it to the object store. Returns the
    /// new id and whether the cache overflowed, i.e. owes a [`Gts::rebuild`].
    /// The arena is extended in place — the cache-scan kernel resolves
    /// fresh ids flat, too. `obj` must have passed [`Gts::check_new`].
    pub(crate) fn stage_insert(&mut self, obj: O) -> (u32, bool) {
        let id = self.objects.len() as u32;
        let bytes = obj.size_bytes() as usize;
        self.dev.h2d_transfer(bytes as u64);
        self.push_object(obj);
        (id, self.cache.insert(id, bytes))
    }

    /// Whether object `id` exists and is live (not tombstoned).
    pub(crate) fn is_live(&self, id: u32) -> bool {
        self.live.get(id as usize).copied().unwrap_or(false)
    }

    /// Rebuild the structure over all live objects (absorbing the cache);
    /// the §4.4 batch-update and cache-overflow path.
    pub fn rebuild(&mut self) -> Result<(), IndexError> {
        let ids: Vec<u32> = (0..self.objects.len() as u32)
            .filter(|&i| self.live[i as usize])
            .collect();
        if ids.is_empty() {
            return Err(IndexError::EmptyIndex);
        }
        // Free the previous structure before reserving the new one.
        self.residency = None;
        // The arena already mirrors the object store: it is the device
        // *layout* of the resident object payloads, not an extra copy, so it
        // carries no separate reservation.
        debug_assert_eq!(self.arena.len(), self.objects.len());
        let Structure { nodes, table, .. } = build::construct(
            &self.dev,
            &self.payloads(),
            &ids,
            &self.params,
            self.threads,
        )?;
        let data_bytes: u64 = ids
            .iter()
            .map(|&i| self.objects[i as usize].size_bytes())
            .sum();
        let res_nodes = self.dev.reserve(nodes.bytes(), "GTS node list")?;
        let res_table = self.dev.reserve(table.bytes(), "GTS table list")?;
        let res_data = self.dev.reserve(data_bytes, "GTS resident objects")?;
        self.nodes = nodes;
        self.table = table;
        self.residency = Some([res_nodes, res_table, res_data]);
        self.cache.clear();
        self.rebuilds += 1;
        Ok(())
    }

    fn payloads(&self) -> Payloads<'_, O, M> {
        Payloads {
            metric: &self.metric,
            objects: &self.objects,
            arena: &self.arena,
        }
    }

    pub(crate) fn ctx(&self) -> SearchCtx<'_, O, M> {
        SearchCtx {
            dev: &self.dev,
            payloads: self.payloads(),
            params: &self.params,
            nodes: &self.nodes,
            table: &self.table,
            live: &self.live,
            stats: &self.stats,
            threads: self.threads,
        }
    }

    /// Batched metric range query (Algorithm 4) plus the cache-list scan of
    /// §4.4, answers merged per query in canonical order.
    ///
    /// `answers[i]` holds every indexed object within `radii[i]` of
    /// `queries[i]` (exact, sorted by distance then id). Batching is GTS's
    /// headline strength: the whole batch descends the tree together,
    /// level-synchronously.
    ///
    /// ```
    /// use gts_core::{Gts, GtsParams};
    /// use gpu_sim::Device;
    /// use metric_space::{DatasetKind, Item};
    ///
    /// let data = DatasetKind::Words.generate(1_000, 42);
    /// let device = Device::rtx_2080_ti();
    /// let index = Gts::build(&device, data.items.clone(), data.metric, GtsParams::default())
    ///     .expect("construction");
    ///
    /// // All words within 1 edit of each query word.
    /// let queries = vec![data.items[0].clone(), data.items[1].clone()];
    /// let answers = index.batch_range(&queries, &[1.0, 1.0]).expect("search");
    /// assert_eq!(answers.len(), 2, "one answer list per query");
    /// assert!(answers[0].iter().any(|n| n.id == 0), "a query finds itself");
    /// assert!(answers[0].windows(2).all(|w| w[0].dist <= w[1].dist), "canonical order");
    /// ```
    pub fn batch_range(
        &self,
        queries: &[O],
        radii: &[f64],
    ) -> Result<Vec<Vec<Neighbor>>, IndexError> {
        metric_space::index::check_radii(queries, radii)?;
        metric_space::index::check_queries(&self.metric, queries, self.objects.first())?;
        self.transfer_queries_in(queries);
        let mut results = engine::batch_range(&self.ctx(), queries, radii)?;
        self.merge_cache_range(queries, radii, &mut results);
        self.transfer_results_out(&results);
        Ok(results)
    }

    /// Batched metric kNN query (Algorithm 5) plus the cache-list scan.
    ///
    /// `answers[i]` holds the `k` nearest distinct indexed objects to
    /// `queries[i]` — exactly the **canonical** `k` smallest `(dist, id)`
    /// pairs, so ties at the k-th distance resolve deterministically by id
    /// (the property [`ShardedGts`](crate::ShardedGts) relies on to merge
    /// per-shard answers bit-identically). Before the first prune each query
    /// dives greedily from the root to one leaf and seeds its pool with the
    /// live objects it meets, so its distance bound starts at a real k-th
    /// distance; later levels and leaf waves narrow it further — the paper's
    /// "progressively narrowed distance boundary". What the dive cost is
    /// [`StatsSnapshot::seed_distances`].
    ///
    /// ```
    /// use gts_core::{Gts, GtsParams};
    /// use gpu_sim::Device;
    /// use metric_space::DatasetKind;
    ///
    /// let data = DatasetKind::Words.generate(1_000, 42);
    /// let device = Device::rtx_2080_ti();
    /// let index = Gts::build(&device, data.items.clone(), data.metric, GtsParams::default())
    ///     .expect("construction");
    ///
    /// let queries = vec![data.items[0].clone(), data.items[7].clone()];
    /// let knn = index.batch_knn(&queries, 5).expect("search");
    /// assert_eq!(knn[0].len(), 5);
    /// assert_eq!(knn[0][0].id, 0, "the query object is its own 1-NN");
    ///
    /// // What the search actually did (the counters of `SearchStats`).
    /// let stats = index.stats();
    /// assert!(stats.distance_computations > 0);
    /// assert!(stats.nodes_expanded > 0, "the frontier descended the tree");
    /// ```
    pub fn batch_knn(&self, queries: &[O], k: usize) -> Result<Vec<Vec<Neighbor>>, IndexError> {
        metric_space::index::check_queries(&self.metric, queries, self.objects.first())?;
        self.transfer_queries_in(queries);
        let mut results = engine::batch_knn(&self.ctx(), queries, k)?;
        self.merge_cache_knn(queries, k, &mut results);
        self.transfer_results_out(&results);
        Ok(results)
    }

    pub(crate) fn transfer_queries_in(&self, queries: &[O]) {
        let bytes: u64 = queries.iter().map(Footprint::size_bytes).sum();
        self.dev.h2d_transfer(bytes);
    }

    pub(crate) fn transfer_results_out(&self, results: &[Vec<Neighbor>]) {
        let hits: usize = results.iter().map(Vec::len).sum();
        self.dev
            .d2h_transfer((hits * std::mem::size_of::<Neighbor>()) as u64);
    }

    /// Brute-force distances from every query to every cached insertion
    /// (the cache is bounded by a few KB, so a flat table scan — the §4.4
    /// strategy), one batched arena-resolved kernel for the whole scan.
    fn cache_distances(&self, queries: &[O]) -> Vec<(u32, u32, f64)> {
        let ids = self.cache.ids();
        if ids.is_empty() || queries.is_empty() {
            return Vec::new();
        }
        let n = queries.len() * ids.len();
        let mut out = vec![0.0f64; ids.len()];
        let mut dists: Vec<(u32, u32, f64)> = Vec::with_capacity(n);
        let payloads = self.payloads();
        self.dev.launch_batch(n, || {
            let mut total = 0u64;
            let mut span = 0u64;
            for (q, query) in queries.iter().enumerate() {
                let (w, s) = payloads.distance_block(&self.dev, self.threads, query, ids, &mut out);
                total += w;
                span = span.max(s);
                dists.extend(ids.iter().zip(&out).map(|(&o, &d)| (q as u32, o, d)));
            }
            ((), total, span)
        });
        self.stats.add(&self.stats.distance_computations, n as u64);
        dists
    }

    fn merge_cache_range(&self, queries: &[O], radii: &[f64], results: &mut [Vec<Neighbor>]) {
        for (q, o, d) in self.cache_distances(queries) {
            if d <= radii[q as usize] {
                results[q as usize].push(Neighbor::new(o, d));
            }
        }
        for r in results.iter_mut() {
            sort_neighbors(r);
        }
    }

    /// Fold the cached insertions into each query's tree answer, merged as
    /// one more shard's lists would be.
    fn merge_cache_knn(&self, queries: &[O], k: usize, results: &mut Vec<Vec<Neighbor>>) {
        if self.cache.len() == 0 {
            return;
        }
        let mut cached: Vec<Vec<Neighbor>> = vec![Vec::new(); queries.len()];
        for (q, o, d) in self.cache_distances(queries) {
            cached[q as usize].push(Neighbor::new(o, d));
        }
        *results = merge_knn(vec![std::mem::take(results), cached], queries.len(), k);
    }

    // -- accessors ------------------------------------------------------------

    /// The device this index lives on.
    pub fn device(&self) -> &Arc<Device> {
        &self.dev
    }

    /// Construction/search parameters.
    pub fn params(&self) -> &GtsParams {
        &self.params
    }

    /// Tree height `h`.
    pub fn height(&self) -> u32 {
        self.nodes.shape().h
    }

    /// Node capacity `Nc`.
    pub fn node_capacity(&self) -> u32 {
        self.params.node_capacity
    }

    /// Snapshot of the search counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Reset the search counters.
    pub fn reset_stats(&self) {
        self.stats.reset();
    }

    /// Rebuilds triggered by updates since construction.
    pub fn rebuild_count(&self) -> u64 {
        self.rebuilds
    }

    /// Number of insertions currently buffered in the cache table.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Cache occupancy in bytes.
    pub fn cache_bytes(&self) -> usize {
        self.cache.bytes()
    }

    /// Cache byte budget (rebuild threshold of §4.4).
    pub fn cache_capacity(&self) -> usize {
        self.cache.capacity()
    }

    /// Serialize the index structure (not the objects) to a versioned
    /// binary snapshot; see [`Gts::restore`].
    pub fn snapshot(&self) -> Vec<u8> {
        crate::snapshot::encode(crate::snapshot::SnapshotParts {
            params: &self.params,
            nodes: &self.nodes,
            table: &self.table,
            live: &self.live,
            cache_ids: self.cache.ids(),
        })
    }

    /// Rebuild an index from a [`Gts::snapshot`] and the caller's object
    /// store (which must be the exact store the snapshot was taken over —
    /// validated structurally, and every object checked against the metric
    /// as [`Gts::build`] checks it). Skips reconstruction entirely; only the
    /// device residency is re-reserved (and the snapshot bytes H2D-copied).
    pub fn restore(
        dev: &Arc<Device>,
        objects: Vec<O>,
        metric: M,
        bytes: &[u8],
    ) -> Result<Self, IndexError> {
        metric_space::index::check_objects(&metric, &objects, None)?;
        Self::restore_shard(dev, objects, metric, bytes, 1)
    }

    /// [`Gts::restore`] for one of `shards` concurrently searching
    /// sub-indexes (see [`Gts::build_shard`]).
    pub(crate) fn restore_shard(
        dev: &Arc<Device>,
        objects: Vec<O>,
        metric: M,
        bytes: &[u8],
        shards: usize,
    ) -> Result<Self, IndexError> {
        let decoded = crate::snapshot::decode(bytes, objects.len())?;
        let arena = flat_arena(&metric, &objects)?;
        let data_bytes: u64 = decoded
            .live
            .iter()
            .zip(&objects)
            .filter(|&(&l, _)| l)
            .map(|(_, o)| o.size_bytes())
            .sum();
        let res_nodes = dev.reserve(decoded.nodes.bytes(), "GTS node list")?;
        let res_table = dev.reserve(decoded.table.bytes(), "GTS table list")?;
        let res_data = dev.reserve(data_bytes, "GTS resident objects")?;
        dev.h2d_transfer(bytes.len() as u64 + data_bytes);
        let mut cache = CacheTable::new(decoded.params.cache_capacity_bytes);
        for &id in &decoded.cache_ids {
            cache.insert(id, objects[id as usize].size_bytes() as usize);
        }
        Ok(Gts {
            dev: Arc::clone(dev),
            metric,
            params: decoded.params,
            objects,
            arena,
            threads: shard_threads(dev, shards),
            live: decoded.live,
            nodes: decoded.nodes,
            table: decoded.table,
            cache,
            stats: SearchStats::default(),
            rebuilds: 0,
            residency: Some([res_nodes, res_table, res_data]),
        })
    }

    /// `d(query, objects[id])` for every id, as one batched kernel: the
    /// multi-column combiner's random access.
    pub(crate) fn distances_to(&self, query: &O, ids: &[u32]) -> Vec<f64> {
        let mut out = vec![0.0f64; ids.len()];
        let payloads = self.payloads();
        self.dev.launch_batch(ids.len(), || {
            let (work, span) =
                payloads.distance_block(&self.dev, self.threads, query, ids, &mut out);
            ((), work, span)
        });
        self.stats
            .add(&self.stats.distance_computations, ids.len() as u64);
        out
    }

    /// Fit the §5.3 cost model to this index's data by sampling pivot
    /// coordinates (`samples` distance evaluations, charged to the device).
    /// With no live object left in the table there is nothing to sample:
    /// the model has `σ = 0`, no distance work, and nothing is charged.
    pub fn cost_model(&self, samples: usize, seed: u64) -> CostModel {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let ids: Vec<u32> = self.table.live_ids();
        if ids.is_empty() {
            return CostModel {
                n: self.len(),
                cores: self.dev.config().cores,
                sigma: 0.0,
                distance_work: 0.0,
            };
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let pivot = &self.objects[ids[rng.gen_range(0..ids.len())] as usize];
        let samples = samples.max(2);
        let sampled: Vec<u32> = (0..samples)
            .map(|_| ids[rng.gen_range(0..ids.len())])
            .collect();
        // One kernel with the pivot as its query: the query state (the edit
        // kernel's match masks) is built once per fit, not once per pair.
        let mut dists = vec![0.0; samples];
        let (work, _) = self.metric.distance_batch(
            &self.objects,
            Some(&self.arena),
            pivot,
            &sampled,
            &mut dists,
        );
        let (sum, sum2) = dists
            .iter()
            .fold((0f64, 0f64), |(s, s2), &d| (s + d, s2 + d * d));
        self.dev.charge_kernel(work, work / samples as u64);
        let mean = sum / samples as f64;
        let sigma = (sum2 / samples as f64 - mean * mean).max(0.0).sqrt();
        CostModel {
            n: self.len(),
            cores: self.dev.config().cores,
            sigma,
            distance_work: work as f64 / samples as f64,
        }
    }
}

impl<O, M> SimilarityIndex<O> for Gts<O, M>
where
    O: Clone + Send + Sync + Footprint,
    M: BatchMetric<O>,
{
    fn name(&self) -> &'static str {
        "GTS"
    }

    fn len(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }

    fn range_query(&self, q: &O, r: f64) -> Result<Vec<Neighbor>, IndexError> {
        Ok(self
            .batch_range(std::slice::from_ref(q), &[r])?
            .pop()
            .expect("one answer per query"))
    }

    fn knn_query(&self, q: &O, k: usize) -> Result<Vec<Neighbor>, IndexError> {
        Ok(self
            .batch_knn(std::slice::from_ref(q), k)?
            .pop()
            .expect("one answer per query"))
    }

    fn batch_range(&self, queries: &[O], radii: &[f64]) -> Result<Vec<Vec<Neighbor>>, IndexError> {
        Gts::batch_range(self, queries, radii)
    }

    fn batch_knn(&self, queries: &[O], k: usize) -> Result<Vec<Vec<Neighbor>>, IndexError> {
        Gts::batch_knn(self, queries, k)
    }

    fn memory_bytes(&self) -> u64 {
        self.nodes.bytes() + self.table.bytes() + self.cache.bytes() as u64
    }
}

impl<O, M> DynamicIndex<O> for Gts<O, M>
where
    O: Clone + Send + Sync + Footprint,
    M: BatchMetric<O>,
{
    /// Streaming insert (§4.4): `O(1)` into the cache table (the object is
    /// shipped to the device-resident cache); rebuilds when the cache
    /// exceeds its byte budget.
    fn insert(&mut self, obj: O) -> Result<u32, IndexError> {
        self.check_new(std::slice::from_ref(&obj))?;
        let (id, overflow) = self.stage_insert(obj);
        if overflow {
            self.rebuild()?;
        }
        Ok(id)
    }

    /// Streaming delete (§4.4): drop from the cache if buffered there,
    /// otherwise tombstone the table-list slot (one parallel scan kernel
    /// locating the id in `T_list`).
    fn remove(&mut self, id: u32) -> Result<bool, IndexError> {
        let Some(live) = self.live.get_mut(id as usize) else {
            return Ok(false);
        };
        if !*live {
            return Ok(false);
        }
        *live = false;
        let bytes = self.objects[id as usize].size_bytes() as usize;
        if !self.cache.remove(id, bytes) {
            // Tombstone before the scan kernel launches: every host mutation
            // precedes the only point an injected device fault can fire, so
            // a faulted remove leaves the host state already complete and
            // recovery needs no structural work.
            self.table.tombstone(id);
            self.dev.charge_kernel(self.table.len() as u64, 8);
        }
        Ok(true)
    }

    /// Batch update (§4.4): apply all changes, then reconstruct once.
    fn batch_update(&mut self, insertions: Vec<O>, deletions: &[u32]) -> Result<(), IndexError> {
        self.check_new(&insertions)?;
        self.stage_update(insertions, deletions);
        self.rebuild()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_metric::Faulty;
    use metric_space::{DatasetKind, Item, ItemMetric, Metric};

    fn words(n: usize) -> (Arc<Device>, Vec<Item>, ItemMetric) {
        let d = DatasetKind::Words.generate(n, 21);
        (Device::rtx_2080_ti(), d.items, d.metric)
    }

    /// Ground truth by linear scan.
    fn scan_range(items: &[Item], m: &ItemMetric, q: &Item, r: f64) -> Vec<Neighbor> {
        let mut v: Vec<Neighbor> = items
            .iter()
            .enumerate()
            .filter_map(|(i, o)| {
                let d = m.distance(q, o);
                (d <= r).then_some(Neighbor::new(i as u32, d))
            })
            .collect();
        sort_neighbors(&mut v);
        v
    }

    #[test]
    fn build_and_query_roundtrip() {
        let (dev, items, metric) = words(400);
        let gts = Gts::build(&dev, items.clone(), metric, GtsParams::default()).expect("build");
        assert_eq!(gts.len(), 400);
        assert!(gts.height() >= 1);
        let got = gts.range_query(&items[7], 2.0).expect("query");
        assert_eq!(got, scan_range(&items, &metric, &items[7], 2.0));
    }

    #[test]
    fn cost_model_without_live_table_ids_samples_nothing() {
        let (dev, items, metric) = words(50);
        let mut gts = Gts::build(&dev, items, metric, GtsParams::default()).expect("build");
        for id in 0..50 {
            assert!(gts.remove(id).expect("remove"));
        }
        let cycles = dev.cycles();
        let model = gts.cost_model(64, 7);
        assert_eq!((model.n, model.sigma, model.distance_work), (0, 0.0, 0.0));
        assert_eq!(dev.cycles(), cycles, "nothing sampled, nothing charged");
    }

    #[test]
    fn empty_build_rejected() {
        let dev = Device::rtx_2080_ti();
        let err = Gts::build(
            &dev,
            Vec::<Item>::new(),
            ItemMetric::Edit,
            GtsParams::default(),
        );
        assert!(matches!(err, Err(IndexError::EmptyIndex)));
    }

    #[test]
    fn insert_goes_to_cache_then_rebuild_absorbs() {
        let (dev, items, metric) = words(200);
        let params = GtsParams::default().with_cache_capacity(10_000);
        let mut gts = Gts::build(&dev, items, metric, params).expect("build");
        let id = gts.insert(Item::text("zzzz")).expect("insert");
        assert_eq!(id, 200);
        assert_eq!(gts.cache_len(), 1);
        assert_eq!(gts.len(), 201);
        // The new object is findable through the cache scan.
        let hits = gts.range_query(&Item::text("zzzz"), 0.0).expect("q");
        assert!(hits.iter().any(|n| n.id == 200));
        gts.rebuild().expect("rebuild");
        assert_eq!(gts.cache_len(), 0);
        let hits = gts.range_query(&Item::text("zzzz"), 0.0).expect("q");
        assert!(
            hits.iter().any(|n| n.id == 200),
            "still findable after rebuild"
        );
    }

    #[test]
    fn cache_overflow_triggers_rebuild() {
        let (dev, items, metric) = words(150);
        let params = GtsParams::default().with_cache_capacity(64);
        let mut gts = Gts::build(&dev, items, metric, params).expect("build");
        let before = gts.rebuild_count();
        for i in 0..10 {
            gts.insert(Item::text(format!("object{i:04}")))
                .expect("insert");
        }
        assert!(gts.rebuild_count() > before, "tiny cache must overflow");
        assert_eq!(gts.len(), 160);
    }

    #[test]
    fn remove_from_index_and_cache() {
        let (dev, items, metric) = words(100);
        let mut gts = Gts::build(&dev, items.clone(), metric, GtsParams::default()).expect("build");
        // Remove an indexed object: tombstoned, vanishes from answers.
        assert!(gts.remove(7).expect("rm"));
        assert!(!gts.remove(7).expect("rm twice"));
        let hits = gts.range_query(&items[7], 0.0).expect("q");
        assert!(!hits.iter().any(|n| n.id == 7), "tombstoned id returned");
        // Remove a cached insertion: dropped before ever being indexed.
        let id = gts.insert(Item::text("qqq")).expect("ins");
        assert!(gts.remove(id).expect("rm cache"));
        let hits = gts.range_query(&Item::text("qqq"), 0.0).expect("q");
        assert!(!hits.iter().any(|n| n.id == id));
        assert!(
            !gts.remove(9999).expect("unknown id"),
            "absent id is Ok(false)"
        );
    }

    #[test]
    fn batch_update_reconstructs_once() {
        let (dev, items, metric) = words(120);
        let mut gts = Gts::build(&dev, items, metric, GtsParams::default()).expect("build");
        let r0 = gts.rebuild_count();
        gts.batch_update(
            (0..30).map(|i| Item::text(format!("new{i}"))).collect(),
            &[0, 1, 2, 3, 4],
        )
        .expect("batch");
        assert_eq!(gts.rebuild_count(), r0 + 1);
        assert_eq!(gts.len(), 120 - 5 + 30);
        assert_eq!(gts.cache_len(), 0);
    }

    #[test]
    fn memory_accounting_present() {
        let (dev, items, metric) = words(300);
        let before = dev.allocated_bytes();
        let gts = Gts::build(&dev, items, metric, GtsParams::default()).expect("build");
        assert!(
            dev.allocated_bytes() > before,
            "index reserves device memory"
        );
        assert!(gts.memory_bytes() > 0);
        drop(gts);
        assert_eq!(dev.allocated_bytes(), before, "drop releases residency");
    }

    /// Answers as `(id, distance bits)`: equality is bit-for-bit.
    fn bits(answers: &[Vec<Neighbor>]) -> Vec<Vec<(u32, u64)>> {
        let row = |r: &Vec<Neighbor>| r.iter().map(|n| (n.id, n.dist.to_bits())).collect();
        answers.iter().map(row).collect()
    }

    /// 600 objects drawn from 3 distinct values: with `Nc = 4` (h = 4) the
    /// nearest-ring child of a pivot holds only zero-distance copies of it,
    /// and the strict-`>` argmax over a stably sorted table re-selects the
    /// pivot itself — the one way a pivot recurs below itself.
    #[test]
    fn recurring_pivot_on_duplicate_heavy_data_stays_exact() {
        use baselines::LinearScan;
        let cases = [
            (
                ItemMetric::Edit,
                ["kitten", "sitting", "zzzzzzzzzz"].map(Item::text),
                Item::text("mitten"),
            ),
            (
                ItemMetric::L2,
                [[0.0f32, 0.0], [3.0, 4.0], [-6.0, 1.5]].map(Item::vector),
                Item::vector([1.0f32, 1.0]),
            ),
        ];
        for (metric, values, outside) in cases {
            let items: Vec<Item> = (0..600).map(|i| values[i % 3].clone()).collect();
            let params = GtsParams::default().with_node_capacity(4);
            let mut gts =
                Gts::build(&Device::rtx_2080_ti(), items.clone(), metric, params).expect("build");
            let shape = gts.nodes.shape();
            assert_eq!(shape.h, 4);
            // The case under test, read off the node list so the test cannot
            // silently stop covering it: an internal child whose pivot *is*
            // its parent's pivot.
            let recurring = (2..shape.level_start(shape.h))
                .find_map(|id| {
                    let node = gts.nodes.get(id);
                    let parent = gts.nodes.get(shape.parent(id));
                    (!node.is_empty() && node.pivot == parent.pivot).then_some(node.pivot)
                })
                .flatten()
                .expect("a pivot recurs below itself");

            let scan = LinearScan::new(items, metric);
            let mut queries = values.to_vec();
            queries.push(outside);
            // Ground truth with `dead` tombstoned: drop it from the scan's
            // answer (kNN scans one deeper first).
            let alive = |mut row: Vec<Neighbor>, dead: Option<u32>| {
                row.retain(|n| Some(n.id) != dead);
                row
            };
            let want_knn = |k: usize, dead: Option<u32>| -> Vec<Vec<Neighbor>> {
                let row = |q| {
                    let mut row = alive(scan.knn_query(q, k + 1).expect("scan knn"), dead);
                    row.truncate(k);
                    row
                };
                queries.iter().map(row).collect()
            };
            let want_range = |dead: Option<u32>| -> Vec<Vec<Neighbor>> {
                let row = |q| alive(scan.range_query(q, 0.0).expect("scan mrq"), dead);
                queries.iter().map(row).collect()
            };
            for dead in [None, Some(recurring)] {
                if let Some(id) = dead {
                    assert!(gts.remove(id).expect("tombstone the recurring pivot"));
                }
                for k in [1usize, 8, 250] {
                    assert_eq!(
                        bits(&gts.batch_knn(&queries, k).expect("knn")),
                        bits(&want_knn(k, dead)),
                        "{metric:?} k={k} dead={dead:?}"
                    );
                }
                assert_eq!(
                    bits(&gts.batch_range(&queries, &[0.0; 4]).expect("mrq")),
                    bits(&want_range(dead)),
                    "{metric:?} r=0 dead={dead:?}"
                );
            }
        }
    }

    /// The fit's one kernel equals the per-pair `Metric::distance` / `work`
    /// reference loop: same samples, same sums, same charge.
    #[test]
    fn cost_model_fits_bit_equal_to_the_per_pair_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for kind in [DatasetKind::Words, DatasetKind::TLoc] {
            let data = kind.generate(400, 9);
            let dev = Device::rtx_2080_ti();
            let gts = Gts::build(&dev, data.items, data.metric, GtsParams::default()).expect("b");
            let (samples, seed) = (150, 3);
            let ids = gts.table.live_ids();
            let mut rng = StdRng::seed_from_u64(seed);
            let pivot = &gts.objects[ids[rng.gen_range(0..ids.len())] as usize];
            let (mut sum, mut sum2, mut work) = (0f64, 0f64, 0u64);
            for _ in 0..samples {
                let o = &gts.objects[ids[rng.gen_range(0..ids.len())] as usize];
                let d = gts.metric.distance(pivot, o);
                work += gts.metric.work(pivot, o);
                sum += d;
                sum2 += d * d;
            }
            let mean = sum / samples as f64;
            let sigma = (sum2 / samples as f64 - mean * mean).max(0.0).sqrt();

            let mark = dev.stats();
            let m = gts.cost_model(samples, seed);
            let charged = dev.stats();
            assert!(
                m.n == 400 && m.sigma > 0.0 && m.distance_work > 0.0,
                "{kind:?}"
            );
            assert_eq!(m.sigma.to_bits(), sigma.to_bits(), "{kind:?}");
            let per_pair = work as f64 / samples as f64;
            assert_eq!(m.distance_work.to_bits(), per_pair.to_bits(), "{kind:?}");
            assert_eq!(charged.kernels - mark.kernels, 1, "{kind:?}: one kernel");
            assert_eq!(charged.work - mark.work, work, "{kind:?}: the same charge");
        }
    }

    #[test]
    fn a_metric_without_a_flat_layout_is_a_typed_error() {
        let (dev, items, metric) = words(100);
        let err = Gts::build(&dev, items.clone(), Faulty::NoLayout, GtsParams::default());
        assert!(matches!(err, Err(IndexError::Unsupported(_))), "build");
        let snapshot = Gts::build(&dev, items.clone(), metric, GtsParams::default())
            .expect("build")
            .snapshot();
        let allocated = dev.allocated_bytes();
        let err = Gts::restore(&dev, items, Faulty::NoLayout, &snapshot);
        assert!(matches!(err, Err(IndexError::Unsupported(_))), "restore");
        assert_eq!(dev.allocated_bytes(), allocated, "nothing stays reserved");
    }

    #[test]
    fn an_object_the_arena_cannot_hold_is_rejected_before_staging() {
        let (dev, items, _) = words(100);
        let mut gts =
            Gts::build(&dev, items, Faulty::FrozenArena, GtsParams::default()).expect("b");
        let err = gts.insert(Item::text("fresh"));
        assert!(matches!(err, Err(IndexError::InvalidObject(_))), "insert");
        let err = gts.batch_update(vec![Item::text("fresh")], &[3]);
        assert!(matches!(err, Err(IndexError::InvalidObject(_))), "batch");
        assert_eq!(
            (gts.objects.len(), gts.arena.len(), gts.len()),
            (100, 100, 100)
        );
        gts.batch_update(Vec::new(), &[3])
            .expect("deletions alone need no room");
        assert_eq!(gts.len(), 99);
    }

    #[test]
    fn the_arena_mirrors_the_object_store_through_every_update() {
        let in_step = |g: &Gts<Item, ItemMetric>| g.arena.len() == g.objects.len();
        let (dev, items, metric) = words(120);
        let mut gts = Gts::build(&dev, items.clone(), metric, GtsParams::default()).expect("b");
        gts.insert(Item::text("fresh")).expect("insert");
        assert!(in_step(&gts) && gts.objects.len() == 121, "insert");
        let fresh = || (0..5).map(|i| Item::text(format!("new{i}"))).collect();
        gts.batch_update(fresh(), &[0, 5]).expect("batch");
        assert!(in_step(&gts) && gts.objects.len() == 126, "batch_update");

        let pool = gpu_sim::DevicePool::rtx_2080_ti(2);
        let params = GtsParams::default().with_shards(2);
        let mut sharded = crate::ShardedGts::build(&pool, items, metric, params).expect("b");
        let op = crate::UpdateOp::Batch {
            insertions: fresh(),
            deletions: vec![1, 2],
        };
        sharded.apply(&op).expect("apply");
        let stores: usize = (0..2).map(|s| sharded.shard(s).objects.len()).sum();
        assert_eq!(stores, 125);
        assert!((0..2).all(|s| in_step(sharded.shard(s))), "apply(Batch)");
    }
}
