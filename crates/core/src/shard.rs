//! Multi-device sharded GTS: partition the table list across devices,
//! scatter batched queries, merge exactly.
//!
//! The paper's evaluation is single-GPU, but the architecture was built to
//! shard: the [`Device`] is `Arc`-shared with atomic
//! counters, and search is expressed as per-level batched kernels with no
//! cross-query state. [`ShardedGts`] exploits that the classic way
//! (data-parallel sharding with a host-side merge, as in billion-scale GPU
//! similarity search):
//!
//! * a deterministic [`Partitioner`] splits the object store into `S`
//!   shards round-robin (`id mod S`), so shards stay balanced under
//!   sequential id assignment;
//! * each shard is a complete [`Gts`] over its objects, pinned to its own
//!   device from a [`DevicePool`];
//! * a batched MRQ/MkNNQ is **scattered to every shard** (shards execute
//!   concurrently: shard 0 on the calling thread, the rest on the
//!   persistent host pool of [`gpu_sim::exec::map`]; each drives its own
//!   device, so per-device simulated clocks stay deterministic) and the
//!   per-shard answers are **merged exactly** on the host:
//!   - range: concatenation + canonical `(distance, id)` sort;
//!   - kNN: every per-shard top-`k` list feeds one [`TopK`] per query —
//!     the pool the single-device search selects through, so the merge
//!     keeps its `(distance, id)` tie-break.
//!
//! **Exactness.** Every distance is computed against the same objects as
//! on one device, so per-shard answers are exact over their partition;
//! range answers union losslessly, and the global top-`k` is contained in
//! the union of per-shard top-`k`s. Tie-breaking stays bit-identical
//! because each shard's local ids ascend in global-id order (the
//! partitioner's `split` guarantee), making local `(dis, id)` order agree
//! with global `(dis, id)` order under remapping — `tests/shard_invariance.rs`
//! proves 1-, 2-, and 4-shard answers equal the single-device answers
//! bit-for-bit, ties included.
//!
//! **Updates** route through the partitioner to the owning shard's cache
//! table, so a cache overflow rebuilds only that shard — the other devices'
//! clocks never move. **Stats** aggregate by summing per-shard counters;
//! the pool reports the max per-device cycle count
//! ([`PoolStats::span_cycles`](gpu_sim::PoolStats::span_cycles)) — the
//! sharded critical path, since shards run concurrently. **Snapshots**
//! wrap every shard's [`Gts::snapshot`] in one envelope together with the
//! partition spec (shard count and object count — the assignment itself
//! is a pure function of these and is recomputed on
//! [`ShardedGts::restore`]).

use crate::index::Gts;
use crate::params::GtsParams;
use crate::snapshot::{R, W};
use crate::stats::StatsSnapshot;
use gpu_sim::{exec, Device, DevicePool};
use metric_space::index::{
    sort_neighbors, DynamicIndex, IndexError, Neighbor, SimilarityIndex, TopK,
};
use metric_space::{BatchMetric, Footprint, Partitioner};
use std::sync::Arc;

/// Magic + version tag of the sharded snapshot envelope. `GTSI` added the
/// update epoch to the envelope; `GTSH` snapshots (pre-epoch) are rejected.
const SHARD_MAGIC: &[u8; 4] = b"GTSI";

/// The envelope's partition-strategy byte: round-robin, the only
/// assignment there is.
const ROUND_ROBIN: u8 = 0;

/// One serialized update, the unit the epoch counter advances by: applying
/// an `UpdateOp` to two identical indexes in the same order keeps them
/// identical (same snapshot bytes, same epoch) — the invariant replicated
/// serving relies on.
#[derive(Clone, Debug)]
pub enum UpdateOp<O> {
    /// Insert one object; it receives the next global id.
    Insert(O),
    /// Remove the object with this global id (a no-op — but still an
    /// epoch-advancing one — when the id is unknown or already removed).
    Remove(u32),
    /// Batched insertions + deletions applied together, rebuilding every
    /// affected shard once (paper §4.4).
    Batch {
        /// Objects to insert, assigned consecutive global ids.
        insertions: Vec<O>,
        /// Global ids to tombstone (unknown/dead ids are skipped).
        deletions: Vec<u32>,
    },
}

/// Receipt for one applied [`UpdateOp`]: deterministic across replicas, so
/// any replica's receipt can answer the client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Applied {
    /// The epoch the index reached by applying this op (monotone; one op =
    /// one epoch).
    pub epoch: u64,
    /// Global ids assigned to the op's insertions, in insertion order.
    pub assigned: Vec<u32>,
    /// How many deletions flipped a live object to dead.
    pub removed: usize,
}

/// An [`UpdateOp`] whose host mutations are staged: the receipt it will
/// return, and the shards that still owe a rebuild.
struct Pending {
    applied: Applied,
    owed: Vec<bool>,
}

/// One shard: a complete [`Gts`] over a partition of the dataset, plus the
/// monotone local→global id mapping.
struct Shard<O, M> {
    gts: Gts<O, M>,
    /// `global_ids[local]` = global id; strictly ascending, so local
    /// `(dis, id)` tie-break order equals global order under remapping.
    global_ids: Vec<u32>,
}

impl<O, M> Shard<O, M> {
    /// Rewrite per-query answer lists from local to global ids. Monotone
    /// remapping preserves the canonical `(dis, id)` order.
    fn remap(&self, mut lists: Vec<Vec<Neighbor>>) -> Vec<Vec<Neighbor>> {
        for list in &mut lists {
            for n in list {
                n.id = self.global_ids[n.id as usize];
            }
        }
        lists
    }
}

/// A GTS index sharded over multiple devices.
///
/// Built from a [`DevicePool`] with one device per shard
/// ([`GtsParams::shards`] picks the shard count); behaves like a single
/// [`Gts`] — same query API, same exact answers, same streaming-update
/// semantics — while each shard's kernels run on its own simulated device.
///
/// ```
/// use gts_core::{Gts, GtsParams, ShardedGts};
/// use gpu_sim::{Device, DevicePool};
/// use metric_space::DatasetKind;
///
/// let data = DatasetKind::Words.generate(600, 42);
/// let params = GtsParams::default().with_shards(2);
/// let pool = DevicePool::rtx_2080_ti(2);
/// let sharded = ShardedGts::build(&pool, data.items.clone(), data.metric, params).unwrap();
///
/// // Answers are bit-identical to a single-device index.
/// let single = Gts::build(&Device::rtx_2080_ti(), data.items.clone(), data.metric,
///                         GtsParams::default()).unwrap();
/// let queries = vec![data.items[0].clone(), data.items[1].clone()];
/// assert_eq!(
///     sharded.batch_knn(&queries, 5).unwrap(),
///     single.batch_knn(&queries, 5).unwrap(),
/// );
/// ```
pub struct ShardedGts<O, M> {
    pool: DevicePool,
    partitioner: Partitioner,
    shards: Vec<Shard<O, M>>,
    /// Total objects ever inserted (the global id counter).
    global_len: usize,
    /// Monotone update epoch: advanced by exactly one per applied
    /// [`UpdateOp`]; persisted by snapshots and resumed on restore.
    epoch: u64,
    /// Update staged by [`ShardedGts::apply`] before its device phase;
    /// consumed by [`ShardedGts::repair`], which `apply` ends with and which
    /// finishes the op after a fault.
    pending: Option<Pending>,
    /// While fenced (a running service owns this index), the
    /// [`DynamicIndex`] mutation surface is rejected — out-of-band updates
    /// would race the service's serialized apply order.
    fenced: bool,
}

impl<O, M> ShardedGts<O, M> {
    /// The update epoch: how many [`UpdateOp`]s this index has applied
    /// (including via the [`DynamicIndex`] surface). Two replicas that
    /// applied the same ops in the same order report the same epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Reject out-of-band [`DynamicIndex`] mutation until
    /// [`ShardedGts::release_fence`]; a running query service fences every
    /// index it serves so all updates flow through its admission queue in
    /// one serialized order.
    pub fn fence(&mut self) {
        self.fenced = true;
    }

    /// Allow direct [`DynamicIndex`] mutation again (service shut down).
    pub fn release_fence(&mut self) {
        self.fenced = false;
    }

    fn ensure_unfenced(&self) -> Result<(), IndexError> {
        if self.fenced {
            return Err(IndexError::Unsupported(
                "index is fenced by a running query service; submit updates \
                 through the service instead of mutating the index directly",
            ));
        }
        Ok(())
    }
}

/// Merge per-shard range answers (each exact over its partition, remapped
/// to global ids): concatenation plus the canonical `(distance, id)` sort
/// — the exact union. Shared with
/// [`ReplicatedShards`](crate::replica::ReplicatedShards), whose shard
/// answers may come from different replicas.
pub(crate) fn merge_range(
    per_shard: Vec<Vec<Vec<Neighbor>>>,
    queries: usize,
) -> Vec<Vec<Neighbor>> {
    let mut merged: Vec<Vec<Neighbor>> = vec![Vec::new(); queries];
    for lists in per_shard {
        for (m, mut list) in merged.iter_mut().zip(lists) {
            m.append(&mut list);
        }
    }
    for m in &mut merged {
        sort_neighbors(m);
    }
    merged
}

/// Merge per-shard top-`k` lists (remapped to global ids) into per-query
/// global top-`k` answers: each query's lists fill one [`TopK`], the pool
/// the single-device search selects through, so the merged answer keeps
/// its `(distance, id)` tie-break. Shared like [`merge_range`], and by
/// [`Gts`]'s merge of its cached insertions.
pub(crate) fn merge_knn(
    per_shard: Vec<Vec<Vec<Neighbor>>>,
    queries: usize,
    k: usize,
) -> Vec<Vec<Neighbor>> {
    let mut pools: Vec<TopK> = (0..queries).map(|_| TopK::new(k)).collect();
    for lists in per_shard {
        for (pool, list) in pools.iter_mut().zip(lists) {
            pool.extend(list);
        }
    }
    pools.into_iter().map(TopK::into_sorted).collect()
}

/// Record a `Merge` instant (per-shard answers folded into global ones)
/// against the first traced device among the shard copies that answered,
/// stamped at their max clock — when the merge could begin.
pub(crate) fn trace_merge<'a>(
    devices: impl Iterator<Item = &'a Arc<Device>> + Clone,
    ctx: gts_trace::TraceCtx,
    results: u64,
) {
    let Some((rec, dev_id)) = devices.clone().find_map(|d| d.tracer()) else {
        return;
    };
    let at = devices.map(|d| d.cycles()).max().unwrap_or(0);
    rec.record(gts_trace::TraceEvent::instant(
        gts_trace::EventKind::Merge { results },
        ctx,
        Some(dev_id),
        at,
    ));
}

impl<O, M> ShardedGts<O, M>
where
    O: Clone + Send + Sync + Footprint,
    M: BatchMetric<O> + Clone,
{
    /// Build a sharded index: `params.shards` shards, round-robin
    /// partitioning, shard `s` pinned to `pool.get(s)`.
    ///
    /// The pool must supply at least one device per shard, and every shard
    /// must receive at least one object: fewer objects than shards is
    /// rejected with a dedicated error ([`IndexError::EmptyIndex`] is
    /// reserved for an actually-empty dataset).
    pub fn build(
        pool: &DevicePool,
        objects: Vec<O>,
        metric: M,
        params: GtsParams,
    ) -> Result<Self, IndexError> {
        let shards = params.shards as usize;
        assert!(
            pool.len() >= shards,
            "pool must supply one device per shard ({} < {shards})",
            pool.len()
        );
        if objects.is_empty() {
            return Err(IndexError::EmptyIndex);
        }
        metric_space::index::check_objects(&metric, &objects, None)?;
        let partitioner = Partitioner::new(params.shards);
        let assignment = partitioner.split(objects.len());
        if assignment.iter().any(Vec::is_empty) {
            return Err(IndexError::Unsupported(
                "partitioning produced an empty shard (use fewer shards or more \
                 objects)",
            ));
        }
        // Carve the per-shard object stores (ids ascend within each shard).
        let stores: Vec<Vec<O>> = assignment
            .iter()
            .map(|ids| ids.iter().map(|&g| objects[g as usize].clone()).collect())
            .collect();
        let global_len = objects.len();
        drop(objects);
        // Build every shard concurrently on the host pool.
        let built: Vec<Result<Gts<O, M>, IndexError>> = exec::map(stores, |s, store| {
            Gts::build_shard(pool.get(s), store, metric.clone(), params, shards)
        });
        let mut shard_vec = Vec::with_capacity(shards);
        for (gts, global_ids) in built.into_iter().zip(assignment) {
            shard_vec.push(Shard {
                gts: gts?,
                global_ids,
            });
        }
        Ok(ShardedGts {
            pool: DevicePool::from_devices(pool.devices()[..shards].to_vec()),
            partitioner,
            shards: shard_vec,
            global_len,
            epoch: 0,
            pending: None,
            fenced: false,
        })
    }

    /// Run `f` on shard `s` alone, under a shard-tagged trace context and a
    /// [`ShardScatter`](gts_trace::EventKind::ShardScatter) span over the
    /// shard device's clock, with answers remapped to global ids. Runs on
    /// the calling thread, so a panic (an injected device fault, a metric
    /// bug) surfaces to the caller. The one per-shard entry point of both
    /// this scatter and the route of
    /// [`ReplicatedShards`](crate::replica::ReplicatedShards).
    pub(crate) fn on_shard(
        &self,
        s: usize,
        f: impl FnOnce(&Gts<O, M>) -> Result<Vec<Vec<Neighbor>>, IndexError>,
    ) -> Result<Vec<Vec<Neighbor>>, IndexError> {
        let sh = &self.shards[s];
        let mut ctx = gts_trace::current_ctx();
        ctx.shard = Some(s as u32);
        let _scope = gts_trace::scoped_ctx(ctx);
        let dev = sh.gts.device();
        let trace = dev.tracer();
        let begin = trace.as_ref().map(|_| dev.cycles());
        let out = f(&sh.gts).map(|r| sh.remap(r));
        if let Some((rec, dev_id)) = trace {
            rec.record(gts_trace::TraceEvent::span(
                gts_trace::EventKind::ShardScatter,
                gts_trace::current_ctx(),
                Some(dev_id),
                begin.expect("snapshotted alongside the tracer"),
                dev.cycles(),
            ));
        }
        out
    }

    /// Scatter `call` to every shard concurrently (shard 0 on the calling
    /// thread, the rest on the host pool; each drives only its own device,
    /// so per-device counters stay deterministic regardless of
    /// interleaving), fold the per-shard answers with `merge` and record
    /// the `Merge` instant. The first failing shard, in shard order,
    /// decides the error.
    fn scatter(
        &self,
        call: impl Fn(&Gts<O, M>) -> Result<Vec<Vec<Neighbor>>, IndexError> + Sync,
        merge: impl FnOnce(Vec<Vec<Vec<Neighbor>>>) -> Vec<Vec<Neighbor>>,
    ) -> Result<Vec<Vec<Neighbor>>, IndexError> {
        let per_shard = exec::map((0..self.shards.len()).collect(), |_, s| {
            self.on_shard(s, &call)
        });
        let merged = merge(per_shard.into_iter().collect::<Result<_, _>>()?);
        let devices = self.shards.iter().map(|sh| sh.gts.device());
        trace_merge(devices, gts_trace::current_ctx(), merged.len() as u64);
        Ok(merged)
    }

    /// Batched metric range query: every query runs on every shard;
    /// per-shard answers (already exact over their partition) are
    /// concatenated and canonically sorted — the exact union.
    pub fn batch_range(
        &self,
        queries: &[O],
        radii: &[f64],
    ) -> Result<Vec<Vec<Neighbor>>, IndexError> {
        self.scatter(
            |gts| gts.batch_range(queries, radii),
            |lists| merge_range(lists, queries.len()),
        )
    }

    /// Batched metric kNN query: every shard returns its local top-`k`;
    /// the global top-`k` is their union kept by one [`TopK`] per query,
    /// under its `(distance, id)` tie-break — bit-identical to the
    /// single-device answer.
    pub fn batch_knn(&self, queries: &[O], k: usize) -> Result<Vec<Vec<Neighbor>>, IndexError> {
        self.scatter(
            |gts| gts.batch_knn(queries, k),
            |lists| merge_knn(lists, queries.len(), k),
        )
    }

    // -- accessors ------------------------------------------------------------

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard index `s` (e.g. for per-shard stats).
    pub fn shard(&self, s: usize) -> &Gts<O, M> {
        &self.shards[s].gts
    }

    /// The device pool backing the shards (its
    /// [`aggregate`](DevicePool::aggregate) sums per-device counters and
    /// reports the sharded critical path `span_cycles`).
    pub fn pool(&self) -> &DevicePool {
        &self.pool
    }

    /// The id→shard assignment.
    pub fn partitioner(&self) -> Partitioner {
        self.partitioner
    }

    /// Aggregate search counters: per-shard snapshots summed
    /// ([`StatsSnapshot::combine`]; `max_frontier` maxes, as shard
    /// frontiers occupy different devices).
    pub fn stats(&self) -> StatsSnapshot {
        self.shards
            .iter()
            .map(|s| s.gts.stats())
            .fold(StatsSnapshot::default(), StatsSnapshot::combine)
    }

    /// Reset every shard's search counters.
    pub fn reset_stats(&self) {
        for s in &self.shards {
            s.gts.reset_stats();
        }
    }

    /// The sharded critical path: the slowest device's simulated cycle
    /// count (shards execute concurrently, so elapsed simulated time is
    /// the max, not the sum).
    pub fn span_cycles(&self) -> u64 {
        self.pool.aggregate().span_cycles
    }

    /// Serialize the whole sharded index into one envelope: the partition
    /// spec (shard count, a strategy byte that is always 0 for round-robin,
    /// global object count — the per-shard id assignment is a pure function
    /// of these) followed by every shard's [`Gts::snapshot`]; see
    /// [`ShardedGts::restore`].
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = W(Vec::new());
        w.0.extend_from_slice(SHARD_MAGIC);
        w.u32(self.partitioner.shards());
        w.u8(ROUND_ROBIN);
        w.u64(self.global_len as u64);
        w.u64(self.epoch);
        for shard in &self.shards {
            let inner = shard.gts.snapshot();
            w.u64(inner.len() as u64);
            w.0.extend_from_slice(&inner);
        }
        w.0
    }

    /// Rebuild a sharded index from a [`ShardedGts::snapshot`] and the
    /// caller's **global** object store (every object ever inserted, in
    /// global-id order). The partition assignment is recomputed from the
    /// envelope's `(shards, global_len)`; a strategy byte other than
    /// round-robin's 0 is a typed error. Every object is checked against
    /// the metric as [`ShardedGts::build`] checks it, and each shard's inner
    /// snapshot is validated by [`Gts::restore`] against the carved store.
    pub fn restore(
        pool: &DevicePool,
        objects: Vec<O>,
        metric: M,
        bytes: &[u8],
    ) -> Result<Self, IndexError> {
        metric_space::index::check_objects(&metric, &objects, None)?;
        let mut r = R { buf: bytes, pos: 0 };
        if r.take(4)? != SHARD_MAGIC {
            return Err(IndexError::Unsupported("bad sharded snapshot magic"));
        }
        let shards = r.u32()?;
        if shards < 1 {
            return Err(IndexError::Unsupported("corrupt sharded snapshot: shards"));
        }
        if r.u8()? != ROUND_ROBIN {
            return Err(IndexError::Unsupported("unknown partition strategy"));
        }
        let global_len = r.u64()? as usize;
        let epoch = r.u64()?;
        if global_len != objects.len() {
            return Err(IndexError::Unsupported(
                "sharded snapshot object count does not match the provided store",
            ));
        }
        let shards = shards as usize;
        // A typed error, not the build path's assertion: here the shard
        // count comes from the byte stream.
        if pool.len() < shards {
            return Err(IndexError::Unsupported(
                "sharded snapshot has more shards than the pool has devices",
            ));
        }
        let partitioner = Partitioner::new(shards as u32);
        // Slice every shard's inner snapshot out of the envelope first,
        // then restore all shards concurrently on the host pool, as the
        // build does (restore does device transfers and validation per
        // shard, so it parallelises the same way).
        let mut parts: Vec<(Vec<u32>, &[u8])> = Vec::with_capacity(shards);
        for global_ids in partitioner.split(global_len) {
            let inner_len = r.u64()? as usize;
            parts.push((global_ids, r.take(inner_len)?));
        }
        if !r.done() {
            return Err(IndexError::Unsupported(
                "trailing bytes in sharded snapshot",
            ));
        }
        let restored: Vec<Result<Shard<O, M>, IndexError>> =
            exec::map(parts, |s, (global_ids, inner)| {
                let store: Vec<O> = global_ids
                    .iter()
                    .map(|&g| objects[g as usize].clone())
                    .collect();
                let gts = Gts::restore_shard(pool.get(s), store, metric.clone(), inner, shards)?;
                Ok(Shard { gts, global_ids })
            });
        let mut shard_vec = Vec::with_capacity(shards);
        for shard in restored {
            shard_vec.push(shard?);
        }
        Ok(ShardedGts {
            pool: DevicePool::from_devices(pool.devices()[..shards].to_vec()),
            partitioner,
            shards: shard_vec,
            global_len,
            // Restore resumes the update epoch, so a restored index keeps
            // stamping responses exactly where the snapshotted one left off.
            epoch,
            pending: None,
            fenced: false,
        })
    }

    // -- serialized updates -------------------------------------------------

    /// Apply one [`UpdateOp`], advancing the epoch by exactly one. This is
    /// the serialization point of streaming updates: two identical indexes
    /// applying the same ops in the same order stay bit-identical (same
    /// answers, same snapshot, same epoch), which is what lets replicas and
    /// a single-device oracle agree.
    ///
    /// Crash consistency: every host mutation (object stores, id mappings,
    /// tombstones) lands in a staged receipt, together with the shards that
    /// owe a rebuild, before any device kernel can fire an injected fault;
    /// then [`ShardedGts::repair`] runs the rebuilds. A fault therefore
    /// leaves the host state complete, the epoch un-advanced and the owed
    /// rebuilds recorded — calling `repair` again finishes the op.
    ///
    /// An object the index cannot hold (see [`IndexError::InvalidObject`])
    /// is rejected before anything is staged, and the epoch stays put. Each
    /// shard's arena is checked as if every new object landed on it. Any
    /// later typed `Err` (e.g. device OOM during a rebuild) still advances
    /// the epoch: such errors are deterministic given identical replicas,
    /// so counting the op keeps replica epochs converged.
    pub fn apply(&mut self, op: &UpdateOp<O>) -> Result<Applied, IndexError> {
        let new = match op {
            UpdateOp::Insert(obj) => std::slice::from_ref(obj),
            UpdateOp::Remove(_) => &[],
            UpdateOp::Batch { insertions, .. } => insertions.as_slice(),
        };
        for shard in &self.shards {
            shard.gts.check_new(new)?;
        }
        let pending = self.pending.insert(Pending {
            applied: Applied {
                epoch: self.epoch + 1,
                assigned: Vec::new(),
                removed: 0,
            },
            owed: vec![false; self.shards.len()],
        });
        match op {
            UpdateOp::Insert(obj) => {
                let gid = self.global_len as u32;
                let s = self.partitioner.shard_of(gid) as usize;
                self.shards[s].global_ids.push(gid);
                self.global_len += 1;
                pending.applied.assigned.push(gid);
                // A cache overflow owes the shard its §4.4 rebuild.
                pending.owed[s] = self.shards[s].gts.stage_insert(obj.clone()).1;
            }
            UpdateOp::Remove(id) => {
                if (*id as usize) < self.global_len {
                    let shard = &mut self.shards[self.partitioner.shard_of(*id) as usize];
                    let local = shard
                        .global_ids
                        .binary_search(id)
                        .expect("every assigned id is present in its shard")
                        as u32;
                    // The receipt is staged from the pre-remove live state;
                    // the tombstone precedes the scan kernel, the only point
                    // a remove can fault, so no rebuild is owed.
                    pending.applied.removed = usize::from(shard.gts.is_live(local));
                    shard.gts.remove(local)?;
                }
            }
            UpdateOp::Batch {
                insertions,
                deletions,
            } => {
                // Every shard a change reaches owes one rebuild (§4.4).
                // Deletions go first: an id this batch assigns is unknown
                // to them.
                for &d in deletions {
                    if (d as usize) < self.global_len {
                        let s = self.partitioner.shard_of(d) as usize;
                        let local = self.shards[s]
                            .global_ids
                            .binary_search(&d)
                            .expect("every assigned id is present in its shard");
                        let gts = &mut self.shards[s].gts;
                        pending.applied.removed += gts.stage_update(Vec::new(), &[local as u32]);
                        pending.owed[s] = true;
                    }
                }
                for obj in insertions {
                    let gid = self.global_len as u32;
                    let s = self.partitioner.shard_of(gid) as usize;
                    self.shards[s].global_ids.push(gid);
                    self.global_len += 1;
                    pending.applied.assigned.push(gid);
                    self.shards[s].gts.stage_update(vec![obj.clone()], &[]);
                    pending.owed[s] = true;
                }
            }
        }
        self.repair()
    }

    /// The device phase of a staged [`UpdateOp`]: rebuild every shard the
    /// pending receipt still owes, clearing each flag once its rebuild
    /// returned, then advance the epoch and return the receipt.
    /// [`ShardedGts::apply`] ends here; after an injected
    /// [`DeviceFault`](gpu_sim::fault::DeviceFault) unwound out of it,
    /// calling `repair` again finishes the op. A shard that rebuilt before
    /// the fault is not rebuilt again, so a repaired replica converges with
    /// one that never faulted — same snapshot, same rebuild counts.
    ///
    /// Errors with [`IndexError::Unsupported`] when no update is pending.
    pub fn repair(&mut self) -> Result<Applied, IndexError> {
        let Some(pending) = self.pending.as_mut() else {
            return Err(IndexError::Unsupported(
                "no faulted update is pending repair",
            ));
        };
        let mut first_err = None;
        for (shard, owed) in self.shards.iter_mut().zip(&mut pending.owed) {
            if *owed {
                if let Err(e) = shard.gts.rebuild() {
                    first_err.get_or_insert(e);
                }
                *owed = false;
            }
        }
        self.epoch += 1;
        let applied = self.pending.take().expect("checked above").applied;
        first_err.map_or(Ok(applied), Err)
    }
}

impl<O, M> SimilarityIndex<O> for ShardedGts<O, M>
where
    O: Clone + Send + Sync + Footprint,
    M: BatchMetric<O> + Clone,
{
    fn name(&self) -> &'static str {
        "GTS-sharded"
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.gts.len()).sum()
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
        ShardedGts::batch_range(self, queries, radii)
    }

    fn batch_knn(&self, queries: &[O], k: usize) -> Result<Vec<Vec<Neighbor>>, IndexError> {
        ShardedGts::batch_knn(self, queries, k)
    }

    fn memory_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.gts.memory_bytes()).sum()
    }
}

impl<O, M> DynamicIndex<O> for ShardedGts<O, M>
where
    O: Clone + Send + Sync + Footprint,
    M: BatchMetric<O> + Clone,
{
    /// Streaming insert: the partitioner routes the new global id to its
    /// owning shard's cache table. A cache overflow rebuilds **only that
    /// shard** — the other devices' clocks never move. Delegates to
    /// [`ShardedGts::apply`], so direct inserts advance the epoch too;
    /// rejected while the index is [fenced](ShardedGts::fence).
    fn insert(&mut self, obj: O) -> Result<u32, IndexError> {
        self.ensure_unfenced()?;
        let applied = self.apply(&UpdateOp::Insert(obj))?;
        Ok(applied.assigned[0])
    }

    /// Streaming delete, routed to the owning shard; epoch-advancing even
    /// when the id is unknown (a no-op still serializes), and rejected
    /// while fenced.
    fn remove(&mut self, id: u32) -> Result<bool, IndexError> {
        self.ensure_unfenced()?;
        Ok(self.apply(&UpdateOp::Remove(id))?.removed > 0)
    }

    /// Batch update: changes are routed per shard; **only shards that
    /// received changes reconstruct**, the rest are untouched. Rejected
    /// while fenced.
    fn batch_update(&mut self, insertions: Vec<O>, deletions: &[u32]) -> Result<(), IndexError> {
        self.ensure_unfenced()?;
        self.apply(&UpdateOp::Batch {
            insertions,
            deletions: deletions.to_vec(),
        })
        .map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::Device;
    use metric_space::{DatasetKind, Item, ItemMetric};

    fn data(n: usize) -> (Vec<Item>, ItemMetric) {
        let d = DatasetKind::Words.generate(n, 33);
        (d.items, d.metric)
    }

    fn sharded(n: usize, s: u32) -> (Vec<Item>, ItemMetric, ShardedGts<Item, ItemMetric>) {
        let (items, metric) = data(n);
        let pool = DevicePool::rtx_2080_ti(s as usize);
        let idx = ShardedGts::build(
            &pool,
            items.clone(),
            metric,
            GtsParams::default().with_shards(s),
        )
        .expect("build");
        (items, metric, idx)
    }

    #[test]
    fn merge_knn_respects_tie_break() {
        // Two shards, one query each.
        let per_shard = vec![
            vec![vec![Neighbor::new(5, 1.0), Neighbor::new(9, 2.0)]],
            vec![vec![Neighbor::new(2, 1.0), Neighbor::new(3, 1.0)]],
        ];
        let merged = merge_knn(per_shard, 1, 3);
        let ids: Vec<u32> = merged[0].iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![2, 3, 5], "ties at d=1.0 break by ascending id");
    }

    #[test]
    fn merge_knn_short_lists() {
        let per_shard = vec![vec![vec![Neighbor::new(1, 0.5)]], vec![Vec::new()]];
        assert_eq!(merge_knn(per_shard, 1, 10)[0].len(), 1);
        assert_eq!(merge_knn(Vec::new(), 2, 5), vec![Vec::new(); 2]);
    }

    #[test]
    fn sharded_matches_single_device() {
        let (items, metric, idx) = sharded(400, 3);
        let single = Gts::build(
            &Device::rtx_2080_ti(),
            items.clone(),
            metric,
            GtsParams::default(),
        )
        .expect("build");
        let queries: Vec<Item> = (0..10).map(|i| items[i * 17].clone()).collect();
        let radii = vec![2.0; queries.len()];
        assert_eq!(
            idx.batch_range(&queries, &radii).expect("mrq"),
            single.batch_range(&queries, &radii).expect("mrq"),
        );
        assert_eq!(
            idx.batch_knn(&queries, 7).expect("knn"),
            single.batch_knn(&queries, 7).expect("knn"),
        );
        assert_eq!(idx.len(), 400);
        assert_eq!(idx.num_shards(), 3);
    }

    #[test]
    fn insert_routes_to_owning_shard_only() {
        let (_, _, mut idx) = sharded(90, 3);
        let before: Vec<u64> = (0..3).map(|s| idx.pool().get(s).cycles()).collect();
        let gid = idx.insert(Item::text("routed")).expect("insert");
        assert_eq!(gid, 90);
        let owner = idx.partitioner().shard_of(gid) as usize;
        for (s, &b) in before.iter().enumerate() {
            let moved = idx.pool().get(s).cycles() != b;
            assert_eq!(moved, s == owner, "only the owning shard's clock moves");
        }
        // The insertion is findable (through the owning shard's cache).
        let hits = idx.range_query(&Item::text("routed"), 0.0).expect("q");
        assert!(hits.iter().any(|n| n.id == gid));
        // And removable by its global id.
        assert!(idx.remove(gid).expect("rm"));
        assert!(!idx.remove(gid).expect("rm twice"));
        assert!(
            !idx.remove(9_999).expect("unknown"),
            "absent id is Ok(false)"
        );
    }

    #[test]
    fn batch_update_rebuilds_only_affected_shards() {
        let (_, _, mut idx) = sharded(120, 4);
        // Delete ids owned by shard 1 only (round-robin: id % 4 == 1).
        let before: Vec<u64> = (0..4).map(|s| idx.pool().get(s).cycles()).collect();
        idx.batch_update(Vec::new(), &[1, 5, 9]).expect("update");
        for (s, &b) in before.iter().enumerate() {
            let moved = idx.pool().get(s).cycles() != b;
            assert_eq!(moved, s == 1, "only shard 1 reconstructs");
        }
        assert_eq!(idx.len(), 117);
    }

    #[test]
    fn snapshot_roundtrip() {
        let (items, metric, mut idx) = sharded(200, 2);
        idx.remove(7).expect("rm");
        let gid = idx.insert(Item::text("snap")).expect("ins");
        let mut store = items.clone();
        store.push(Item::text("snap"));

        let bytes = idx.snapshot();
        let pool = DevicePool::rtx_2080_ti(2);
        let restored = ShardedGts::restore(&pool, store, metric, &bytes).expect("restore");
        assert_eq!(restored.len(), idx.len());
        assert_eq!(restored.num_shards(), 2);
        let q = Item::text("snap");
        assert_eq!(
            restored.range_query(&q, 1.0).expect("q"),
            idx.range_query(&q, 1.0).expect("q"),
        );
        assert!(restored
            .range_query(&q, 0.0)
            .expect("q")
            .iter()
            .any(|n| n.id == gid));
        assert!(!restored
            .range_query(&items[7], 0.0)
            .expect("q")
            .iter()
            .any(|n| n.id == 7));
    }

    #[test]
    fn corrupt_sharded_snapshots_rejected() {
        let (items, metric, idx) = sharded(100, 2);
        let bytes = idx.snapshot();
        let pool = DevicePool::rtx_2080_ti(2);
        // Truncation.
        assert!(
            ShardedGts::restore(&pool, items.clone(), metric, &bytes[..bytes.len() / 2]).is_err()
        );
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(ShardedGts::restore(&pool, items.clone(), metric, &bad).is_err());
        // A partition-strategy byte other than round-robin's 0 (it follows
        // the magic and the shard count).
        let mut bad = bytes.clone();
        assert_eq!(bad[8], 0, "round-robin is written as 0");
        bad[8] = 1;
        assert!(matches!(
            ShardedGts::restore(&pool, items.clone(), metric, &bad),
            Err(IndexError::Unsupported("unknown partition strategy"))
        ));
        // Store mismatch.
        assert!(ShardedGts::restore(&pool, items[..50].to_vec(), metric, &bytes).is_err());
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(ShardedGts::restore(&pool, items, metric, &long).is_err());
    }

    #[test]
    fn empty_shard_rejected() {
        let (items, metric) = data(3);
        let pool = DevicePool::rtx_2080_ti(4);
        let err = ShardedGts::build(&pool, items, metric, GtsParams::default().with_shards(4));
        assert!(
            matches!(err, Err(IndexError::Unsupported(msg)) if msg.contains("empty shard")),
            "an empty shard gets a dedicated error, not EmptyIndex"
        );
        let err = ShardedGts::build(
            &pool,
            Vec::<Item>::new(),
            ItemMetric::Edit,
            GtsParams::default().with_shards(4),
        );
        assert!(
            matches!(err, Err(IndexError::EmptyIndex)),
            "EmptyIndex is reserved for an actually-empty dataset"
        );
    }

    /// A metric panic raised inside a query-chunk run must cross the host
    /// pool and the shard scatter with its payload intact, and leave pool
    /// and index serving.
    #[test]
    fn panic_in_a_query_chunk_surfaces_through_batch_knn() {
        let items: Vec<Item> = (0..120).map(|i| Item::text("x".repeat(i % 30))).collect();
        // Four host threads per device: two per shard once divided.
        let pool = DevicePool::homogeneous(
            2,
            gpu_sim::DeviceConfig {
                host_threads: 4,
                ..gpu_sim::DeviceConfig::rtx_2080_ti()
            },
        );
        let idx = ShardedGts::build(
            &pool,
            items.clone(),
            crate::test_metric::Faulty::Boom,
            GtsParams::default().with_shards(2),
        )
        .expect("build never sees the poisoned query");
        // Two query-chunk runs over two host threads per shard: run 1 holds
        // the poison. Shard 1 runs on a pool worker; shard 0's run 1 runs
        // on a worker, or on the calling thread when it finds the run
        // still queued.
        let mut queries: Vec<Item> = items[..2 * crate::QUERY_CHUNK].to_vec();
        queries[crate::QUERY_CHUNK] = Item::text("boom");
        let payload =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| idx.batch_knn(&queries, 3)))
                .expect_err("the metric panic must surface");
        let msg = payload.downcast_ref::<String>().expect("formatted panic");
        let caller = std::thread::current();
        let on = msg
            .strip_prefix("boom on ")
            .expect("the metric's own payload");
        assert!(
            [Some("gts-host-kernel"), caller.name()].contains(&Some(on)),
            "raised on a pool worker or the caller, not {on}"
        );

        let clean = idx.batch_knn(&items[..2 * crate::QUERY_CHUNK], 3);
        let clean = clean.expect("pool and index still serve");
        assert!(clean.iter().all(|a| a.len() == 3));
    }

    #[test]
    fn aggregate_stats_sum_across_shards() {
        let (items, _, idx) = sharded(300, 2);
        let queries: Vec<Item> = items[..8].to_vec();
        idx.batch_knn(&queries, 3).expect("knn");
        let total = idx.stats();
        let summed = idx.shard(0).stats().combine(idx.shard(1).stats());
        assert_eq!(total, summed);
        assert!(total.distance_computations > 0);
        assert!(idx.span_cycles() > 0);
        assert!(idx.span_cycles() <= idx.pool().aggregate().cycles_total);
        idx.reset_stats();
        assert_eq!(idx.stats(), StatsSnapshot::default());
    }
}
