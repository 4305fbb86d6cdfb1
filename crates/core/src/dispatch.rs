//! Host-parallel dispatch: the one place that decides *how* a batched
//! kernel executes on the host.
//!
//! **The unit of host parallelism is a chunk of query segments.** A
//! frontier is query-contiguous and ascending by query, and everything a
//! query's work touches — its kNN pool, its bound, its result list — is
//! touched by that query's own entries only. So the search kernels (per-level
//! pivot distances, leaf verification) cut the frontier into runs of
//! [`QUERY_CHUNK`] whole query segments ([`query_chunk_bounds`]) and hand
//! the runs to [`run_query_chunks`], which fans them out over the persistent
//! host pool via [`Device::run_batch_chunks`]. Each run owns a disjoint
//! window of the per-query state and its own accounting slot; the slots
//! combine by sum/max in run order on the submitting thread. The cut depends
//! only on the frontier, never on the thread count, so answers, tie-breaks
//! and every charged `(work, span)` are bit-identical for 1 or N threads.
//!
//! **Intra-block chunking is the fallback for single-run batches.** The
//! single-query API, construction mapping and the cache scan have no second
//! query segment to run beside the first; their "one query against one id
//! block" calls go through [`Payloads::distance_block`] /
//! [`Payloads::distance_block_bounded`], which cut a large block into fixed-size
//! chunks ([`gpu_sim::exec::BATCH_CHUNK`]) across the same pool. A
//! multi-run batch runs its blocks serially inside each run — the pool is
//! already busy with the sibling runs.
//!
//! Charging stays with the caller's enclosing [`Device::launch_batch`]: one
//! charge per batch, regardless of how many runs, chunks or threads executed
//! it.

use gpu_sim::exec::BATCH_CHUNK;
use gpu_sim::Device;
use metric_space::{chunk_pairs, BatchMetric, ObjectArena};

/// Blocks below this many pairs run serially: with fewer than two chunks
/// there is nothing to fan out, and thread spawn cost would dominate.
pub(crate) const PAR_MIN_PAIRS: usize = 2 * BATCH_CHUNK;

/// Query segments per host work item of the search kernels. A constant, not
/// a knob: the cut must be a pure function of the frontier for the
/// thread-count invariance to hold, and eight segments keep a 32-query batch
/// at four work items while amortising the dispatch over thousands of leaf
/// rows.
pub const QUERY_CHUNK: usize = 8;

/// Cut `n` query-contiguous work items (`query_at(i)` is item `i`'s query
/// id) into runs of [`QUERY_CHUNK`] whole query segments, returning the run
/// boundaries `[0, b₁, …, n]` — adjacent pairs are the runs.
///
/// The items must ascend by query: that is what lets each run own a
/// contiguous, disjoint window of the per-query state.
pub(crate) fn query_chunk_bounds(n: usize, query_at: impl Fn(usize) -> u32) -> Vec<usize> {
    debug_assert!(
        (1..n).all(|i| query_at(i - 1) <= query_at(i)),
        "frontier must ascend by query"
    );
    let mut bounds = vec![0];
    let mut segments = 0usize;
    for i in 1..n {
        if query_at(i) != query_at(i - 1) {
            segments += 1;
            if segments.is_multiple_of(QUERY_CHUNK) {
                bounds.push(i);
            }
        }
    }
    if n > 0 {
        bounds.push(n);
    }
    bounds
}

/// Run one work item per query-segment run (see [`query_chunk_bounds`])
/// across up to `threads` host workers, returning the items' `(work, span)`
/// combined by sum/max in run order. `f` receives the item and the host
/// threads it may use *inside* the item: a lone run keeps the caller's
/// budget for intra-block chunking, sibling runs get one each. Items carry
/// their own disjoint output windows.
pub(crate) fn run_query_chunks<I: Send>(
    dev: &Device,
    threads: usize,
    items: Vec<I>,
    f: impl Fn(I, usize) -> (u64, u64) + Sync,
) -> (u64, u64) {
    let inner = if items.len() == 1 { threads } else { 1 };
    dev.run_batch_chunks(threads, items, |item| f(item, inner))
}

/// What every distance kernel of an index reads: its metric, its object
/// store and the store's flat arena (same ids).
pub(crate) struct Payloads<'a, O, M> {
    pub metric: &'a M,
    pub objects: &'a [O],
    pub arena: &'a ObjectArena,
}

impl<O, M> Payloads<'_, O, M>
where
    O: Send + Sync,
    M: BatchMetric<O>,
{
    /// Evaluate `out[i] = d(query, objects[ids[i]])` over one id block,
    /// returning the block's `(total_work, span)` — the parallel-aware
    /// equivalent of calling [`BatchMetric::distance_batch`] directly.
    pub(crate) fn distance_block(
        &self,
        dev: &Device,
        threads: usize,
        query: &O,
        ids: &[u32],
        out: &mut [f64],
    ) -> (u64, u64) {
        let (metric, objects, arena) = (self.metric, self.objects, self.arena);
        if threads <= 1 || ids.len() < PAR_MIN_PAIRS {
            return metric.distance_batch(objects, Some(arena), query, ids, out);
        }
        let chunks = chunk_pairs(BATCH_CHUNK, ids, out);
        dev.run_batch_chunks(threads, chunks, |c| {
            metric.distance_batch(objects, Some(arena), query, c.ids, c.out)
        })
    }

    /// Evaluate `out[i] = Some(d)` iff `d = d(query, objects[ids[i]]) ≤
    /// bound` over one id block via the early-abandoning kernel
    /// ([`BatchMetric::distance_batch_bounded`]), returning `(total_work,
    /// span)` — the bounded sibling of [`Payloads::distance_block`], with
    /// the same serial-below-threshold / chunked-above dispatch over the
    /// same [`chunk_pairs`] boundaries, and so the same thread-invariance
    /// guarantee.
    pub(crate) fn distance_block_bounded(
        &self,
        dev: &Device,
        threads: usize,
        query: &O,
        ids: &[u32],
        bound: f64,
        out: &mut [Option<f64>],
    ) -> (u64, u64) {
        let (metric, objects, arena) = (self.metric, self.objects, self.arena);
        if threads <= 1 || ids.len() < PAR_MIN_PAIRS {
            return metric.distance_batch_bounded(objects, Some(arena), query, ids, bound, out);
        }
        let chunks = chunk_pairs(BATCH_CHUNK, ids, out);
        dev.run_batch_chunks(threads, chunks, |c| {
            metric.distance_batch_bounded(objects, Some(arena), query, c.ids, bound, c.out)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceConfig;
    use metric_space::gen;
    use metric_space::{Item, ItemMetric};

    #[test]
    fn parallel_blocks_match_serial_bitwise() {
        let items: Vec<Item> = gen::words(512, 3);
        let metric = ItemMetric::Edit;
        let arena = metric.build_arena(&items).expect("arena");
        let payloads = Payloads {
            metric: &metric,
            objects: &items,
            arena: &arena,
        };
        let dev = gpu_sim::Device::new(DeviceConfig::rtx_2080_ti());
        let n = PAR_MIN_PAIRS + 777; // forces the chunked path
        let ids: Vec<u32> = (0..n as u32).map(|i| i % items.len() as u32).collect();
        let q = &items[0];
        let mut serial = vec![0.0; n];
        let expect = metric.distance_batch(&items, Some(&arena), q, &ids, &mut serial);
        let mut serial_bounded = vec![None; n];
        let expect_bounded =
            metric.distance_batch_bounded(&items, Some(&arena), q, &ids, 2.0, &mut serial_bounded);
        for threads in [1usize, 2, 8] {
            let mut out = vec![0.0; n];
            let got = payloads.distance_block(&dev, threads, q, &ids, &mut out);
            assert_eq!((out, got), (serial.clone(), expect), "threads = {threads}");
            let mut out = vec![None; n];
            let got = payloads.distance_block_bounded(&dev, threads, q, &ids, 2.0, &mut out);
            let want = (serial_bounded.clone(), expect_bounded);
            assert_eq!((out, got), want, "threads = {threads}: bounded");
        }
    }

    #[test]
    fn query_chunks_cut_at_whole_segments() {
        let queries: Vec<u32> = (0..20u32).flat_map(|q| [q * 3; 3]).collect();
        let bounds = query_chunk_bounds(queries.len(), |i| queries[i]);
        assert_eq!(bounds, vec![0, 3 * QUERY_CHUNK, 6 * QUERY_CHUNK, 60]);
        assert_eq!(query_chunk_bounds(0, |_| 0), vec![0], "no items, no runs");
        assert_eq!(query_chunk_bounds(5, |_| 7), vec![0, 5], "one segment");
    }

    /// The disjoint per-query state windows rely on the frontier ascending
    /// by query; a hand-built frontier that does not must trip the assert.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "frontier must ascend by query")]
    fn descending_frontier_trips_the_debug_assert() {
        let frontier = [0u32, 2, 1].map(|query| crate::search::Frontier {
            node: 1,
            query,
            dqp: 0.0,
        });
        query_chunk_bounds(frontier.len(), |i| frontier[i].query);
    }

    #[test]
    fn query_chunk_runs_see_the_inner_thread_budget() {
        let dev = gpu_sim::Device::new(DeviceConfig::rtx_2080_ti());
        for (items, expect) in [(1usize, 4usize), (3, 1)] {
            let mut seen = vec![0usize; items];
            let acct = run_query_chunks(&dev, 4, seen.iter_mut().collect(), |slot, inner| {
                *slot = inner;
                (2, 5)
            });
            assert_eq!(seen, vec![expect; items], "{items} runs");
            assert_eq!(acct, (2 * items as u64, 5), "sum / max over the runs");
        }
    }
}
