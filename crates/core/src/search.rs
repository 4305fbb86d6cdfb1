//! Concurrent similarity search (paper §5, Algorithms 4 and 5).
//!
//! Both query kinds traverse the tree **top-down and level-synchronously**:
//! the frontier is a flat list of `(node, query)` pairs, and each level is
//! one uniform kernel over the whole frontier — never a per-query traversal,
//! which is what starves GPU-Tree-style designs.
//!
//! The level loop itself — `batch_range` / `batch_knn` and their one
//! recursive descent — lives in `crate::engine`. This module keeps the
//! shared substrate: the frontier representation, the reusable
//! `SearchScratch`, the borrowed `SearchCtx` with the per-layer memory
//! bound, and the batched `verify_block` kernel wrapper. The per-query kNN
//! pool is [`TopK`](metric_space::TopK), shared with every other exact kNN path.
//!
//! **Batched distance kernels.** Every distance evaluation in the hot path
//! goes through [`BatchMetric::distance_batch`] (pivot distances) or its
//! early-abandoning sibling [`BatchMetric::distance_batch_bounded`] (leaf
//! verification): frontier entries are resolved against the flat
//! [`ObjectArena`](metric_space::ObjectArena) (contiguous payloads, no
//! per-object pointer chasing) and each level launches **one** batched
//! kernel via [`Device::launch_batch`], charged once per batch with the
//! work–span accounting of the per-pair reference
//! ([`Metric::distance`](metric_space::Metric::distance) and `work`, pair
//! by pair). Inside a launch the host runs **chunks of whole query
//! segments** concurrently (the dispatch layer, `crate::dispatch`; a batch
//! that forms a single chunk falls back to chunking its id blocks): the cut
//! depends on the frontier alone and per-chunk work–span combines by
//! sum/max, so the thread count
//! ([`DeviceConfig::host_threads`](gpu_sim::DeviceConfig::host_threads))
//! changes wall-clock only — never answers, tie-breaks, or simulated
//! cycles. All level-loop buffers live in a `SearchScratch` reused across
//! levels — the steady-state loop performs no `Vec` allocation.
//!
//! The **two-stage memory strategy** bounds the frontier at layer `i` to
//! `size_GPU / ((h − i + 1)·Nc)` entries; a batch exceeding the bound is
//! split into query groups processed sequentially (never splitting a single
//! query's frontier), so intermediate results can always be materialised —
//! the memory-deadlock-freedom claim of Challenge II.
//!
//! Pruning: internal children are pruned by the ring test of Lemma 5.1/5.2
//! against the parent pivot; MkNNQ additionally uses the own-pivot prune
//! (`d(q, pivot) − own_max > bound`) after the per-level bound update, which
//! mirrors Alg. 5 lines 11–16 (the bound update runs through the same
//! encode-and-global-sort machinery as construction). Exact MkNNQ seeds
//! every pool before the first prune: the root level's kernel also dives
//! greedily to one leaf per query and inserts what it meets (see
//! `crate::engine`), so the bound is finite from the root on instead of
//! ∞ until the pool happens to fill. All MkNNQ prunes are
//! **tie-safe**: they fire only when a candidate would be *strictly* worse
//! than the current bound (the closed-ball form of the lemmas, with the
//! bound as the radius), so every object tied with the k-th distance is
//! verified and the final pool is the **canonical** k smallest `(dis, id)`
//! pairs — the property that lets the sharded index merge per-shard top-k
//! lists bit-identically. Leaf verification first applies the
//! stored-distance filter (the table's `dis` column *is* `d(o, parent
//! pivot)`, so the filter costs zero distance evaluations), then evaluates
//! the survivors against the query's radius (MRQ) or current k-th bound
//! (MkNNQ) — one batched early-abandoning kernel per wave, the filter
//! streaming straight into the kernel's id block.

use crate::dispatch::{query_chunk_bounds, run_query_chunks, Payloads};
use crate::node::TreeShape;
use crate::params::GtsParams;
use crate::stats::SearchStats;
use crate::table::TableList;
use gpu_sim::exec::BATCH_CHUNK;
use gpu_sim::Device;
use metric_space::BatchMetric;
use std::sync::Arc;

/// One intermediate-result element `E = {N, q, ...}` of the paper's `Q_Res`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Frontier {
    /// Node id to be searched.
    pub node: u32,
    /// Query index within the batch.
    pub query: u32,
    /// Distance from the query to the node's **parent's** pivot (`NaN` at
    /// the root, where no parent exists).
    pub dqp: f64,
}

/// Device-resident layout of a frontier element — never instantiated, only
/// the size constant behind [`FRONTIER_ENTRY_BYTES`].
pub(crate) struct RawEntry {
    _node: u32,
    _query: u32,
    _dqp: f64,
}

/// Device bytes one frontier entry occupies — the unit the two-stage memory
/// bound is denominated in.
pub(crate) const FRONTIER_ENTRY_BYTES: usize = std::mem::size_of::<RawEntry>();

/// Per-work-item staging of the leaf-verification kernels: one per
/// query-segment run, so concurrent runs never share a buffer.
#[derive(Default)]
pub(crate) struct LeafScratch {
    /// `(ring gap, node, dqp)` sort keys of one query's leaf entries.
    pub(crate) keys: Vec<(f64, u32, f64)>,
    /// Object ids surviving the stored-distance filter: one kernel block.
    pub(crate) ids: Vec<u32>,
    /// Output of the bounded kernel, parallel to `ids`.
    out: Vec<Option<f64>>,
    /// Output of the exact kernel over the seeding dive's leaf, parallel to
    /// `ids`.
    pub(crate) dists: Vec<f64>,
}

/// Reusable host-side buffers for the level-synchronous loops.
///
/// One instance serves a whole batched query: frontier buffers ping-pong
/// between levels through a small pool (also feeding query-group descent),
/// and every kernel-staging vector (`dq`, pivot ids, encode pairs, per-run
/// leaf staging) is cleared and refilled instead of
/// reallocated. The level loop itself allocates nothing after warm-up
/// beyond the per-level work-item lists.
#[derive(Default)]
pub(crate) struct SearchScratch {
    /// Pool of frontier buffers (current/next/per-group), recycled.
    frontier_pool: Vec<Vec<Frontier>>,
    /// `d(query, node pivot)` per frontier entry of the current level: the
    /// pivot-distance kernel's output.
    pub(crate) dq: Vec<f64>,
    /// Pivot id per frontier entry (the pivot-distance kernel's ids).
    pub(crate) kernel_ids: Vec<u32>,
    /// Encoded `(key, entry)` pairs for the MkNNQ bound update.
    pub(crate) pairs: Vec<(f64, u32)>,
    /// Leaf-verification staging, one per query-segment run.
    pub(crate) leaf: Vec<LeafScratch>,
}

impl SearchScratch {
    pub(crate) fn take_frontier(&mut self) -> Vec<Frontier> {
        self.frontier_pool.pop().unwrap_or_default()
    }

    pub(crate) fn put_frontier(&mut self, mut buf: Vec<Frontier>) {
        buf.clear();
        self.frontier_pool.push(buf);
    }
}

/// Borrowed view of everything a search needs.
pub(crate) struct SearchCtx<'a, O, M> {
    pub dev: &'a Arc<Device>,
    /// The metric, the object store and its flat arena: what the kernels
    /// read.
    pub payloads: Payloads<'a, O, M>,
    pub params: &'a GtsParams,
    pub nodes: &'a crate::node::NodeList,
    pub table: &'a TableList,
    /// Liveness per object id: tombstoned ids must neither appear in
    /// answers nor tighten kNN bounds (their pivot distances are still
    /// valid for *ring pruning*, which concerns the tree geometry).
    pub live: &'a [bool],
    pub stats: &'a SearchStats,
    /// Host threads for the batched kernels (the device's
    /// [`host_threads`](gpu_sim::DeviceConfig::host_threads), divided among
    /// the shards that search beside this one); wall-clock only — the
    /// dispatch layer cuts its work items before consulting it, so results
    /// and cycle counts never depend on it.
    pub threads: usize,
}

impl<'a, O, M> SearchCtx<'a, O, M>
where
    O: Send + Sync,
    M: BatchMetric<O>,
{
    pub(crate) fn shape(&self) -> TreeShape {
        self.nodes.shape()
    }

    /// The paper's per-layer intermediate-result bound:
    /// `size_limit = size_GPU / ((h − layer + 1)·Nc)` in frontier entries,
    /// with `size_GPU` the free device bytes. The descent splits a level
    /// into query groups past it.
    pub(crate) fn size_limit(&self, level: u32) -> usize {
        let shape = self.shape();
        let denom = (shape.h - level + 1) as usize * shape.nc as usize * FRONTIER_ENTRY_BYTES;
        (self.dev.free_bytes() as usize / denom.max(1)).max(1)
    }

    /// Compute `d(query, node.pivot)` for every frontier entry into
    /// `scratch.dq` with **one batched kernel** — query-segment runs fanned
    /// out over the host pool, arena-resolved id blocks per query. Siblings
    /// share their parent-pivot distance through [`Frontier::dqp`]; a pivot
    /// that recurs below itself (a child of zero-distance duplicates) is
    /// simply evaluated again.
    pub(crate) fn pivot_distances(
        &self,
        queries: &[O],
        entries: &[Frontier],
        scratch: &mut SearchScratch,
    ) {
        let SearchScratch { dq, kernel_ids, .. } = scratch;
        let n = entries.len();
        dq.clear();
        dq.resize(n, 0.0);
        kernel_ids.clear();
        kernel_ids.extend(entries.iter().map(|e| {
            self.nodes
                .get(e.node as usize)
                .pivot
                .expect("expanded node is internal")
        }));
        let query_of = |k: usize| entries[k].query;
        self.dev.launch_batch(n, || {
            let mut out_rest = dq.as_mut_slice();
            let runs: Vec<_> = query_chunk_bounds(n, query_of)
                .windows(2)
                .map(|w| {
                    let (out, rest) = std::mem::take(&mut out_rest).split_at_mut(w[1] - w[0]);
                    out_rest = rest;
                    (w[0], out)
                })
                .collect();
            let (total, span) =
                run_query_chunks(self.dev, self.threads, runs, |(first, out), threads| {
                    let (mut total, mut span) = (0u64, 0u64);
                    let mut i = 0usize;
                    while i < out.len() {
                        let q = query_of(first + i);
                        let j = (i..out.len())
                            .find(|&j| query_of(first + j) != q)
                            .unwrap_or(out.len());
                        let (w, s) = self.payloads.distance_block(
                            self.dev,
                            threads,
                            &queries[q as usize],
                            &kernel_ids[first + i..first + j],
                            &mut out[i..j],
                        );
                        total += w;
                        span = span.max(s);
                        i = j;
                    }
                    (total, span)
                });
            ((), total, span)
        });
        self.stats.add(&self.stats.distance_computations, n as u64);
    }
}

/// Split a frontier into query groups each within `limit` entries
/// (frontiers are always query-contiguous). A single query whose
/// frontier alone exceeds the limit forms its own group.
pub(crate) fn split_groups(entries: Vec<Frontier>, limit: usize) -> Vec<Vec<Frontier>> {
    let mut groups: Vec<Vec<Frontier>> = Vec::new();
    let mut cur: Vec<Frontier> = Vec::new();
    let mut i = 0usize;
    while i < entries.len() {
        // extent of this query's block
        let q = entries[i].query;
        let mut j = i;
        while j < entries.len() && entries[j].query == q {
            j += 1;
        }
        let block = j - i;
        if !cur.is_empty() && cur.len() + block > limit {
            groups.push(std::mem::take(&mut cur));
        }
        cur.extend_from_slice(&entries[i..j]);
        i = j;
    }
    if !cur.is_empty() {
        groups.push(cur);
    }
    groups
}

pub(crate) fn multiple_queries(entries: &[Frontier]) -> bool {
    entries
        .first()
        .map(|f| f.query)
        .zip(entries.last().map(|f| f.query))
        .is_some_and(|(a, b)| a != b)
}

/// Per-verified-object overhead on top of the raw distance work (bound
/// compare + result write), matching the historical per-pair accounting.
pub(crate) const VERIFY_EXTRA_WORK: u64 = 3;

/// Pairs per pass of [`verify_block`]: a query that verifies a large share
/// of the table (a wide range query) runs the kernel and drains its output
/// block by block, so the output stays cache-resident instead of growing
/// with the table. A constant (the cut must not depend on the thread
/// count); four [`BATCH_CHUNK`]s leave intra-block chunking its fan-out.
const VERIFY_BLOCK: usize = 4 * BATCH_CHUNK;

/// Run one query block's leaf-verification kernel over `stage.ids` — the
/// early-abandoning [`BatchMetric::distance_batch_bounded`] against `bound`
/// — feeding every `(object, distance)` pair with `d ≤ bound` to `sink` and
/// returning the block's `(work, span, abandoned)`. `threads` is the
/// host-thread budget for intra-block chunking (1 inside a multi-run batch).
///
/// `bound` must upper-bound the caller's acceptance rule (range: `d ≤ r`
/// with `bound = r`; kNN: [`TopK::insert`](metric_space::TopK::insert) with `bound` the pool's k-th
/// distance), so an abandoned pair is one the sink would have rejected —
/// the shared body is what keeps the MRQ and MkNNQ paths provably identical
/// in staging and accounting.
pub(crate) fn verify_block<O, M>(
    ctx: &SearchCtx<'_, O, M>,
    threads: usize,
    query: &O,
    bound: f64,
    stage: &mut LeafScratch,
    mut sink: impl FnMut(u32, f64),
) -> (u64, u64, u64)
where
    O: Send + Sync,
    M: BatchMetric<O>,
{
    let LeafScratch { ids, out, .. } = stage;
    let (mut work, mut span, mut abandoned) = (0u64, 0u64, 0u64);
    for ids in ids.chunks(VERIFY_BLOCK) {
        out.clear();
        out.resize(ids.len(), None);
        let (w, s) = ctx
            .payloads
            .distance_block_bounded(ctx.dev, threads, query, ids, bound, out);
        work += w;
        span = span.max(s);
        for (&obj, d) in ids.iter().zip(out.iter()) {
            match d {
                Some(d) => sink(obj, *d),
                None => abandoned += 1,
            }
        }
    }
    (work, span, abandoned)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_groups_respects_query_blocks() {
        let mk = |q: u32| Frontier {
            node: 1,
            query: q,
            dqp: 0.0,
        };
        let entries = vec![mk(0), mk(0), mk(1), mk(1), mk(1), mk(2)];
        let groups = split_groups(entries, 3);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].len(), 2);
        assert_eq!(groups[1].len(), 3);
        assert_eq!(groups[2].len(), 1);
        for g in &groups {
            let q0 = g[0].query;
            let qn = g.last().expect("non-empty").query;
            assert!(g.windows(2).all(|w| w[0].query <= w[1].query));
            let _ = (q0, qn);
        }
    }

    #[test]
    fn split_groups_oversized_single_query() {
        let mk = |q: u32| Frontier {
            node: 1,
            query: q,
            dqp: 0.0,
        };
        let entries = vec![mk(5); 10];
        let groups = split_groups(entries, 3);
        assert_eq!(groups.len(), 1, "one query cannot be split");
        assert_eq!(groups[0].len(), 10);
    }

    #[test]
    fn scratch_pool_recycles_buffers() {
        let mut s = SearchScratch::default();
        let mut a = s.take_frontier();
        a.push(Frontier {
            node: 1,
            query: 0,
            dqp: 0.0,
        });
        a.reserve(100);
        let cap = a.capacity();
        s.put_frontier(a);
        let b = s.take_frontier();
        assert!(b.is_empty(), "recycled buffer is cleared");
        assert_eq!(b.capacity(), cap, "recycled buffer keeps its capacity");
    }
}
