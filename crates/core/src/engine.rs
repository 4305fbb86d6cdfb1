//! The level-synchronized **descent**: the core of the batched search loops
//! (paper §5, Alg. 4–5).
//!
//! [`batch_range`] and [`batch_knn`] seed the root frontier — one entry per
//! query — and hand it to one recursive [`Descent::descend`]`(entries,
//! level)`, which works in this order:
//!
//! * an empty frontier returns;
//! * a frontier past the per-layer memory bound
//!   ([`SearchCtx::size_limit`]) splits into query groups, and each group
//!   descends at the same level, one after another (the two-stage
//!   strategy);
//! * the leaf level verifies;
//! * any other level reserves its intermediate-result buffer (the paper's
//!   `Q'_Res`), expands (pivot-distance kernel, Alg. 5 bound update, child
//!   pruning), descends to the next level, and only then releases the
//!   buffer — so each level's buffer stays live while the levels below it
//!   run, which is the memory pressure the group split reacts to.
//!
//! Both expansions share one child-prune loop ([`prune_children`]); only
//! MkNNQ adds the own-pivot test.
//!
//! **Seeding.** Exact MkNNQ does not start its pools empty. The root level's
//! pivot-distance kernel is fused with a greedy dive per query: one pivot
//! distance per level into the nearest non-empty ring, then the reached
//! leaf's live objects, all inserted into the query's pool. So the first
//! prune already runs against a real k-th bound instead of ∞, and the root
//! skips its Alg. 5 bound update, whose only candidate — the root pivot —
//! the dive has inserted. Seeds are live objects at their true distances,
//! so every bound stays an upper bound on the true k-th distance and the
//! answers are unchanged (`tests/knn_seeding.rs`). Range search does not
//! seed.
//!
//! **Order of device actions.** Allocations, kernel launches and stat
//! updates happen in the order of the original monolithic loops, buffer
//! lifetimes included, so the answers, counters and simulated cycles are
//! bit for bit those of the seed implementation
//! (`tests/shard_invariance.rs` pins this against a checked-in fingerprint
//! whose cycle and counter pins were re-recorded twice on purpose: when leaf
//! verification started charging edit distance's banded DP, and when exact
//! kNN started seeding).
//!
//! **Host parallelism.** Leaf verification executes per *query*, not per
//! wave: chunks of whole query segments run concurrently on the host pool
//! (`crate::dispatch`), each query running its own waves back to back. That
//! equals whole-batch wave execution because a query's pool, bound and
//! result list are touched by its own leaves only, and each wave's bound is
//! still snapshotted before the wave; per-wave accounts are summed over the
//! chunks and charged as the same kernels in the same order.

use crate::dispatch::{query_chunk_bounds, run_query_chunks};
use crate::search::{
    multiple_queries, split_groups, verify_block, Frontier, LeafScratch, SearchCtx, SearchScratch,
    FRONTIER_ENTRY_BYTES, VERIFY_EXTRA_WORK,
};
use gpu_sim::primitives::{reduce_max_f64, sort_pairs_by_key};
use gpu_sim::GpuError;
use metric_space::index::{sort_neighbors, Neighbor, TopK};
use metric_space::lemmas::{prune_node_range, ring_gap};
use metric_space::BatchMetric;
use std::sync::atomic::Ordering;

/// Batched MRQ (Algorithm 4): `answers[i] = MRQ(queries[i], radii[i])` in
/// canonical `(distance, id)` order.
pub(crate) fn batch_range<O, M>(
    ctx: &SearchCtx<'_, O, M>,
    queries: &[O],
    radii: &[f64],
) -> Result<Vec<Vec<Neighbor>>, GpuError>
where
    O: Send + Sync,
    M: BatchMetric<O>,
{
    debug_assert_eq!(queries.len(), radii.len(), "checked by Gts::batch_range");
    let mut hits = vec![Vec::new(); queries.len()];
    let mode = Mode::Range {
        radii,
        hits: &mut hits,
    };
    Descent::run(ctx, queries, mode)?;
    for h in &mut hits {
        sort_neighbors(h);
    }
    Ok(hits)
}

/// Batched MkNNQ (Algorithm 5): the `k` nearest objects per query, in
/// canonical order.
pub(crate) fn batch_knn<O, M>(
    ctx: &SearchCtx<'_, O, M>,
    queries: &[O],
    k: usize,
) -> Result<Vec<Vec<Neighbor>>, GpuError>
where
    O: Send + Sync,
    M: BatchMetric<O>,
{
    let mut pools: Vec<TopK> = (0..queries.len()).map(|_| TopK::new(k)).collect();
    if k > 0 {
        Descent::run(ctx, queries, Mode::Knn { pools: &mut pools })?;
    }
    Ok(pools.into_iter().map(TopK::into_sorted).collect())
}

/// What kind of query is descending, plus its per-query state.
enum Mode<'a> {
    /// MRQ (Alg. 4): fixed per-query radii, hits accumulated per query.
    Range {
        radii: &'a [f64],
        hits: &'a mut [Vec<Neighbor>],
    },
    /// MkNNQ (Alg. 5): per-query best-k pools whose k-th distance is the
    /// pruning bound.
    Knn { pools: &'a mut [TopK] },
}

/// One batched descent: the batch's context and queries, the per-query
/// state, and the [`SearchScratch`] reused across levels and groups.
struct Descent<'a, O, M> {
    ctx: &'a SearchCtx<'a, O, M>,
    queries: &'a [O],
    mode: Mode<'a>,
    scratch: SearchScratch,
}

impl<'a, O, M> Descent<'a, O, M>
where
    O: Send + Sync,
    M: BatchMetric<O>,
{
    /// Descend the whole batch from the root: one frontier entry per query
    /// at level 1.
    fn run(ctx: &'a SearchCtx<'a, O, M>, queries: &'a [O], mode: Mode<'a>) -> Result<(), GpuError> {
        if ctx.table.is_empty() {
            return Ok(());
        }
        let root = (0..queries.len() as u32)
            .map(|query| Frontier {
                node: 1,
                query,
                dqp: f64::NAN,
            })
            .collect();
        Descent {
            ctx,
            queries,
            mode,
            scratch: SearchScratch::default(),
        }
        .descend(root, 1)
    }

    /// Descend a query-ascending frontier at `level` down to its leaves.
    /// Fails only when the device refuses an intermediate buffer.
    fn descend(&mut self, entries: Vec<Frontier>, level: u32) -> Result<(), GpuError> {
        let ctx = self.ctx;
        if entries.is_empty() {
            self.scratch.put_frontier(entries);
            return Ok(());
        }
        ctx.stats.max(&ctx.stats.max_frontier, entries.len() as u64);

        // Two-stage strategy: form query groups when the frontier would
        // overrun the per-layer memory bound (Alg. 4 line 4 / Alg. 5
        // line 4). Groups run sequentially; for kNN they *share* the pools,
        // so later groups inherit tightened bounds — a free bonus of
        // sequential group processing.
        let limit = ctx.size_limit(level);
        if ctx.params.query_grouping && entries.len() > limit && multiple_queries(&entries) {
            let groups = split_groups(entries, limit);
            ctx.stats.add(&ctx.stats.groups_formed, groups.len() as u64);
            for group in groups {
                self.descend(group, level)?;
            }
            return Ok(());
        }

        // Per-level trace span: snapshot the clock and the verified-leaf
        // counter before the device action, record the delta after.
        // Purely observational — the action's charges are untouched.
        let trace = ctx.dev.tracer().map(|(rec, dev_id)| {
            let verified = ctx.stats.leaf_verified.load(Ordering::Relaxed);
            (rec, dev_id, ctx.dev.cycles(), verified)
        });
        let frontier = entries.len() as u64;
        let shape = ctx.shape();
        let below = if level == shape.h {
            self.verify(&entries);
            None
        } else {
            // The intermediate buffer is sized |E|·Nc like the paper's
            // Q'_Res; with grouping on, the size-limit check above
            // guarantees it fits — with it off this is exactly where the
            // naive strategy deadlocks.
            let context = match self.mode {
                Mode::Range { .. } => "MRQ intermediate results",
                Mode::Knn { .. } => "MkNNQ intermediate results",
            };
            let bytes = (entries.len() * shape.nc as usize * FRONTIER_ENTRY_BYTES) as u64;
            let held = ctx.dev.reserve(bytes, context)?;
            Some((held, self.expand(&entries, level)))
        };
        self.scratch.put_frontier(entries);
        if let Some((rec, dev_id, c0, v0)) = trace {
            rec.record(gts_trace::TraceEvent::span(
                gts_trace::EventKind::Level {
                    level,
                    frontier,
                    verified: ctx.stats.leaf_verified.load(Ordering::Relaxed) - v0,
                },
                gts_trace::current_ctx(),
                Some(dev_id),
                c0,
                ctx.dev.cycles(),
            ));
        }
        if let Some((held, next)) = below {
            self.descend(next, level + 1)?;
            drop(held);
        }
        Ok(())
    }

    /// Expand one internal level (the loop bodies of Alg. 4 / Alg. 5):
    /// pivot distances — for MkNNQ with the bound update, or the seeding
    /// kernel at the root — then the shared child prune. Returns the
    /// next-level frontier.
    fn expand(&mut self, entries: &[Frontier], level: u32) -> Vec<Frontier> {
        let (ctx, queries, scratch) = (self.ctx, self.queries, &mut self.scratch);
        match &mut self.mode {
            Mode::Range { radii, .. } => {
                ctx.pivot_distances(queries, entries, scratch);
                prune_children(ctx, entries, scratch, false, |q| radii[q as usize])
            }
            Mode::Knn { pools } => {
                update_knn_bounds(ctx, queries, entries, level, pools, scratch);
                prune_children(ctx, entries, scratch, true, |q| pools[q as usize].bound())
            }
        }
    }

    /// Verify a leaf-level frontier into the per-query state.
    fn verify(&mut self, entries: &[Frontier]) {
        let (ctx, queries, scratch) = (self.ctx, self.queries, &mut self.scratch);
        match &mut self.mode {
            Mode::Range { radii, hits } => {
                verify_range(ctx, queries, radii, entries, hits, scratch)
            }
            Mode::Knn { pools } => verify_knn(ctx, queries, entries, pools, scratch),
        }
    }
}

// ---------------------------------------------------------------------------
// Level expansion (the loop bodies of Alg. 4 / Alg. 5)
// ---------------------------------------------------------------------------

/// Alg. 5 lines 7–12 for one MkNNQ level: pivot distances (the pivots are
/// real objects, so each distance is also a candidate), then the
/// encode-and-global-sort bound update. The root level runs the fused
/// seeding kernel ([`seed_knn`]) in place of both.
fn update_knn_bounds<O, M>(
    ctx: &SearchCtx<'_, O, M>,
    queries: &[O],
    entries: &[Frontier],
    level: u32,
    pools: &mut [TopK],
    scratch: &mut SearchScratch,
) where
    O: Send + Sync,
    M: BatchMetric<O>,
{
    if level == 1 {
        // At the root the bound update would only insert the root pivot,
        // which the dive inserts too.
        seed_knn(ctx, queries, entries, pools, scratch);
        return;
    }
    // Alg. 5 lines 7–10: pivot distances for the frontier (one batched
    // kernel).
    ctx.pivot_distances(queries, entries, scratch);

    // Alg. 5 lines 11–12: the per-query k-th bound is located by encoding
    // `query_rank + dis/denom` and running the same global device sort as
    // construction; walking the sorted runs inserts candidates in ascending
    // order per query.
    let SearchScratch { dq, pairs, .. } = scratch;
    let maxd = reduce_max_f64(ctx.dev, dq).max(0.0);
    let denom = 2.0 * (maxd + 1.0);
    pairs.clear();
    pairs.extend(
        entries
            .iter()
            .enumerate()
            .map(|(i, e)| (f64::from(e.query) + dq[i] / denom, i as u32)),
    );
    ctx.dev.charge_kernel(pairs.len() as u64 * 2, 2);
    sort_pairs_by_key(ctx.dev, pairs);
    for &(_, i) in pairs.iter() {
        let e = entries[i as usize];
        let pivot = ctx.nodes.get(e.node as usize).pivot.expect("internal node");
        // A tombstoned pivot's distance must not become a candidate (it is
        // no longer an answer) nor a bound (it could over-tighten pruning
        // against live objects).
        if ctx.live[pivot as usize] {
            pools[e.query as usize].insert(Neighbor::new(pivot, dq[i as usize]));
        }
    }
}

/// The child prune of both expansions (Alg. 4 lines 6–10, Alg. 5 lines
/// 13–17) over the pivot distances in `scratch.dq`: the parent-pivot ring
/// test of Lemma 5.1/5.2 per child against the query's `bound` (MRQ: its
/// radius; MkNNQ: its pool's k-th distance), after — with `own_pivot`, for
/// MkNNQ — the own-pivot test on the expanded node. Both tests are tie-safe
/// (strict `>`): a node that could still contain an object at exactly the
/// bound distance survives, because such an object can enter the canonical
/// kNN answer through the `(dis, id)` tie-break. Returns the next-level
/// frontier.
fn prune_children<O, M>(
    ctx: &SearchCtx<'_, O, M>,
    entries: &[Frontier],
    scratch: &mut SearchScratch,
    own_pivot: bool,
    bound: impl Fn(u32) -> f64,
) -> Vec<Frontier>
where
    O: Send + Sync,
    M: BatchMetric<O>,
{
    let shape = ctx.shape();
    let mut next = scratch.take_frontier();
    let (mut pruned, mut expanded) = (0u64, 0u64);
    for (e, &dqi) in entries.iter().zip(&scratch.dq) {
        let bound = bound(e.query);
        if own_pivot && dqi - ctx.nodes.get(e.node as usize).own_max_dis > bound {
            pruned += u64::from(shape.nc);
            continue;
        }
        for j in 0..shape.nc as usize {
            let cid = shape.child(e.node as usize, j);
            let child = ctx.nodes.get(cid);
            if child.is_empty() {
                continue;
            }
            let upper = if ctx.params.two_sided_pruning {
                child.max_dis
            } else {
                f64::INFINITY
            };
            if prune_node_range(child.min_dis, upper, dqi, bound) {
                pruned += 1;
            } else {
                expanded += 1;
                next.push(Frontier {
                    node: cid as u32,
                    query: e.query,
                    dqp: dqi,
                });
            }
        }
    }
    ctx.stats.add(&ctx.stats.nodes_pruned, pruned);
    ctx.stats.add(&ctx.stats.nodes_expanded, expanded);
    ctx.dev
        .charge_kernel((entries.len() * shape.nc as usize) as u64 * 4, 8);
    next
}

/// The exact MkNNQ root level's fused **seeding kernel** (see the module
/// docs), in place of the root's pivot-distance kernel and Alg. 5 bound
/// update: per query, `d(q, root pivot)` into `scratch.dq` and one greedy
/// [`dive`]. `TopK`'s id check makes the later verification of the dive's
/// leaf a no-op.
///
/// One launch over the root frontier: work is the dives' summed distance
/// work, span the longest pivot chain plus widest leaf pair of any query.
/// The frontier runs as query-chunk runs with disjoint pool windows, so
/// answers and cycles do not depend on the host thread count.
fn seed_knn<O, M>(
    ctx: &SearchCtx<'_, O, M>,
    queries: &[O],
    entries: &[Frontier],
    pools: &mut [TopK],
    scratch: &mut SearchScratch,
) where
    O: Send + Sync,
    M: BatchMetric<O>,
{
    let SearchScratch { dq, leaf, .. } = scratch;
    dq.clear();
    dq.resize(entries.len(), 0.0);
    let mut dived: Vec<u64> = Vec::new();
    ctx.dev.launch_batch(entries.len(), || {
        let mut dq_rest = dq.as_mut_slice();
        let runs: Vec<_> = leaf_runs(entries, pools, &mut dived, leaf)
            .into_iter()
            .map(|run| {
                let (out, rest) = std::mem::take(&mut dq_rest).split_at_mut(run.entries.len());
                dq_rest = rest;
                (run, out)
            })
            .collect();
        let (total, span) = run_query_chunks(ctx.dev, ctx.threads, runs, |(run, out), threads| {
            let lo = run.entries[0].query;
            let (mut total, mut span) = (0u64, 0u64);
            for (e, dq) in run.entries.iter().zip(out) {
                let (w, s) = dive(
                    ctx,
                    threads,
                    &queries[e.query as usize],
                    &mut run.state[(e.query - lo) as usize],
                    dq,
                    run.scratch,
                    run.acct,
                );
                total += w;
                span = span.max(s);
            }
            (total, span)
        });
        ((), total, span)
    });
    let dived: u64 = dived.iter().sum();
    ctx.stats.add(
        &ctx.stats.distance_computations,
        entries.len() as u64 + dived,
    );
    ctx.stats.add(&ctx.stats.seed_distances, dived);
}

/// One query's seeding dive from the root: one pivot distance per level,
/// into the non-empty child whose ring is nearest that distance (a tie goes
/// to the lowest child index), then the leaf's live objects through the
/// exact kernel. Live pivots and leaf objects enter `pool`; `d(q, root
/// pivot)` goes to `dq` and the distances spent below the root are added to
/// `dived`. Returns the dive's `(work, span)`: the span is the pivot chain
/// plus the widest leaf pair.
fn dive<O, M>(
    ctx: &SearchCtx<'_, O, M>,
    threads: usize,
    query: &O,
    pool: &mut TopK,
    dq: &mut f64,
    stage: &mut LeafScratch,
    dived: &mut u64,
) -> (u64, u64)
where
    O: Send + Sync,
    M: BatchMetric<O>,
{
    let shape = ctx.shape();
    let kernel = |ids: &[u32], out: &mut [f64]| {
        ctx.payloads
            .distance_block(ctx.dev, threads, query, ids, out)
    };
    let (mut total, mut chain) = (0u64, 0u64);
    let mut node = 1usize;
    for level in 1..shape.h {
        let pivot = ctx.nodes.get(node).pivot.expect("internal node");
        let mut d = [0.0];
        let (w, s) = kernel(&[pivot], &mut d);
        (total, chain) = (total + w, chain + s);
        let d = d[0];
        if level == 1 {
            *dq = d;
        } else {
            *dived += 1;
        }
        if ctx.live[pivot as usize] {
            pool.insert(Neighbor::new(pivot, d));
        }
        // `min_by` keeps the first of equal gaps: the lowest child index.
        let nearest = (0..shape.nc as usize)
            .map(|j| shape.child(node, j))
            .filter_map(|c| {
                let child = ctx.nodes.get(c);
                (!child.is_empty()).then(|| (ring_gap(child.min_dis, child.max_dis, d), c))
            })
            .min_by(|a, b| a.0.total_cmp(&b.0));
        match nearest {
            Some((_, c)) => node = c,
            None => return (total, chain),
        }
    }
    let leaf = ctx.nodes.get(node);
    let rows = leaf.pos as usize..(leaf.pos + leaf.size) as usize;
    stage.ids.clear();
    stage.ids.extend(
        ctx.table.obj_column()[rows]
            .iter()
            .copied()
            .filter(|&o| ctx.live[o as usize]),
    );
    stage.dists.clear();
    stage.dists.resize(stage.ids.len(), 0.0);
    let (w, s) = kernel(&stage.ids, &mut stage.dists);
    *dived += stage.ids.len() as u64;
    for (&o, &d) in stage.ids.iter().zip(&stage.dists) {
        pool.insert(Neighbor::new(o, d));
    }
    (total + w, chain + s)
}

// ---------------------------------------------------------------------------
// Leaf verification
// ---------------------------------------------------------------------------

/// Leaf verification runs in `KNN_WAVES` sequential kernel waves, each
/// query's leaves ordered by ring proximity to its mapped coordinate.
/// Within a wave the bound is snapshotted (parallel threads cannot observe
/// each other); between waves the pools — and hence the Lemma 5.2 bound —
/// tighten, implementing the paper's "progressively narrowed distance
/// boundary". Any snapshot bound is an upper bound on the true k-th
/// distance, so every wave's filter is exact.
const KNN_WAVES: usize = 4;

/// What one verification kernel launch is charged and counted: grid size
/// (leaf rows), total work, span, and the verified / abandoned counters.
/// Per-run slots combine by sum (max for the span), so the aggregate is the
/// same whichever thread ran which run.
#[derive(Clone, Copy, Default)]
struct WaveAcct {
    n: u64,
    total: u64,
    span: u64,
    verified: u64,
    abandoned: u64,
}

impl WaveAcct {
    fn merge(mut self, o: &WaveAcct) -> WaveAcct {
        self.n += o.n;
        self.total += o.total;
        self.span = self.span.max(o.span);
        self.verified += o.verified;
        self.abandoned += o.abandoned;
        self
    }

    /// Charge the wave as one batched kernel (nothing when no leaf row took
    /// part) and flush its counters.
    fn launch<O, M>(&self, ctx: &SearchCtx<'_, O, M>) {
        if self.n == 0 {
            return;
        }
        ctx.dev
            .launch_batch(self.n as usize, || ((), self.total, self.span));
        ctx.stats.add(&ctx.stats.leaf_verified, self.verified);
        ctx.stats.add(&ctx.stats.leaf_abandoned, self.abandoned);
        ctx.stats
            .add(&ctx.stats.distance_computations, self.verified);
        ctx.stats
            .add(&ctx.stats.leaf_filtered, self.n - self.verified);
    }
}

/// One host work item of leaf verification: a run of whole query segments
/// with the window of per-query state (`S` = kNN pool or range result list)
/// those queries own — `state[0]` belongs to `entries[0].query` — plus an
/// accounting slot and private staging.
struct LeafRun<'a, S, A> {
    /// Index of `entries[0]` in the segment's whole frontier.
    first: usize,
    entries: &'a [Frontier],
    state: &'a mut [S],
    acct: &'a mut A,
    scratch: &'a mut LeafScratch,
}

/// Cut a leaf frontier into [`LeafRun`]s: the runs' `state` windows are
/// disjoint because the frontier ascends by query.
fn leaf_runs<'a, S, A: Default>(
    entries: &'a [Frontier],
    mut state: &'a mut [S],
    accts: &'a mut Vec<A>,
    scratch: &'a mut Vec<LeafScratch>,
) -> Vec<LeafRun<'a, S, A>> {
    let cuts = query_chunk_bounds(entries.len(), |i| entries[i].query);
    accts.resize_with(cuts.len() - 1, A::default);
    if scratch.len() < accts.len() {
        scratch.resize_with(accts.len(), LeafScratch::default);
    }
    let mut next = 0u32; // query id of `state[0]`
    cuts.windows(2)
        .zip(accts)
        .zip(scratch)
        .map(|((w, acct), scratch)| {
            let entries = &entries[w[0]..w[1]];
            let (lo, hi) = (entries[0].query, entries[entries.len() - 1].query);
            let (_, rest) = std::mem::take(&mut state).split_at_mut((lo - next) as usize);
            let (window, rest) = rest.split_at_mut((hi - lo + 1) as usize);
            (state, next) = (rest, hi + 1);
            LeafRun {
                first: w[0],
                entries,
                state: window,
                acct,
                scratch,
            }
        })
        .collect()
}

/// The fused leaf kernel of one query: stream each leaf's `dis`/`obj`
/// column slices through the stored-distance filter (Lemma 5.1/5.2 against
/// the parent pivot — zero distance calls, tie-safe strict `>`) straight
/// into the id block, then resolve the survivors in one batched
/// early-abandoning kernel whose results go to `sink`. `leaves` yields
/// `(node, dqp)`; everything charged lands in `acct`.
#[allow(clippy::too_many_arguments)]
fn verify_leaves<O, M>(
    ctx: &SearchCtx<'_, O, M>,
    threads: usize,
    query: &O,
    bound: f64,
    leaves: impl Iterator<Item = (u32, f64)>,
    stage: &mut LeafScratch,
    acct: &mut WaveAcct,
    sink: impl FnMut(u32, f64),
) where
    O: Send + Sync,
    M: BatchMetric<O>,
{
    let (dis_col, obj_col) = (ctx.table.dis_column(), ctx.table.obj_column());
    // A tombstone-free table (the common case) never touches the column.
    let deleted = ctx
        .table
        .has_tombstones()
        .then(|| ctx.table.deleted_column());
    stage.ids.clear();
    let (mut dead, mut filtered) = (0u64, 0u64);
    for (node, dqp) in leaves {
        let node = ctx.nodes.get(node as usize);
        let rows = node.pos as usize..(node.pos + node.size) as usize;
        acct.n += u64::from(node.size);
        let del = deleted.map(|d| &d[rows.clone()]);
        for (i, (&dis, &obj)) in dis_col[rows.clone()].iter().zip(&obj_col[rows]).enumerate() {
            if del.is_some_and(|d| d[i]) {
                dead += 1;
            } else if (dis - dqp).abs() > bound {
                // (A root leaf's `dqp = NaN` fails this test for every row:
                // there is no parent pivot to filter against.)
                filtered += 1;
            } else {
                stage.ids.push(obj);
            }
        }
    }
    acct.total += dead + 3 * filtered;
    acct.span = acct
        .span
        .max(u64::from(dead > 0))
        .max(3 * u64::from(filtered > 0));
    if stage.ids.is_empty() {
        return;
    }
    // `bound` is also the kernel bound. MRQ: the radius, so a returned
    // distance is exactly a hit. MkNNQ: the wave's snapshot —
    // tie-safe, `Some(d)` iff `d ≤ bound`, so candidates at exactly the
    // bound reach the canonical `(dis, id)` tie-break, and an abandoned one
    // could never enter a full pool whose k-th distance *is* the bound.
    let (w, s, abandoned) = verify_block(ctx, threads, query, bound, stage, sink);
    let verified = stage.ids.len() as u64;
    acct.total += w + VERIFY_EXTRA_WORK * verified;
    acct.span = acct.span.max(s + VERIFY_EXTRA_WORK);
    acct.verified += verified;
    acct.abandoned += abandoned;
}

/// Verify one MRQ segment's leaves — one batched kernel for the whole
/// segment, executed as query-segment runs across the host pool: per query,
/// the fused filter + kernel with the radius as the bound and a push into
/// the query's own result list as the sink.
fn verify_range<O, M>(
    ctx: &SearchCtx<'_, O, M>,
    queries: &[O],
    radii: &[f64],
    entries: &[Frontier],
    results: &mut [Vec<Neighbor>],
    scratch: &mut SearchScratch,
) where
    O: Send + Sync,
    M: BatchMetric<O>,
{
    let mut accts: Vec<WaveAcct> = Vec::new();
    let runs = leaf_runs(entries, results, &mut accts, &mut scratch.leaf);
    run_query_chunks(ctx.dev, ctx.threads, runs, |run, threads| {
        let lo = run.entries[0].query as usize;
        for seg in run.entries.chunk_by(|a, b| a.query == b.query) {
            let q = seg[0].query as usize;
            let hits = &mut run.state[q - lo];
            verify_leaves(
                ctx,
                threads,
                &queries[q],
                radii[q],
                seg.iter().map(|e| (e.node, e.dqp)),
                run.scratch,
                run.acct,
                |obj, d| hits.push(Neighbor::new(obj, d)),
            );
        }
        (0, 0)
    });
    accts
        .iter()
        .fold(WaveAcct::default(), WaveAcct::merge)
        .launch(ctx);
}

/// Verify one MkNNQ segment's leaves in waves against each query's k-th
/// bound `pools[q].bound()`.
///
/// Execution is per query, not per wave: a query's pool and bound are
/// touched by that query's own leaves only, so running all `KNN_WAVES`
/// waves of one query back to back — snapshotting its bound before each —
/// computes exactly what four whole-batch waves would, and lets whole query
/// segments run concurrently. The device is still charged four kernels in
/// wave order, from per-wave accounts summed over the runs.
fn verify_knn<O, M>(
    ctx: &SearchCtx<'_, O, M>,
    queries: &[O],
    entries: &[Frontier],
    pools: &mut [TopK],
    scratch: &mut SearchScratch,
) where
    O: Send + Sync,
    M: BatchMetric<O>,
{
    // The ordering pass: each query's leaves closest-ring-first, so the
    // first wave almost certainly contains the true neighbours.
    ctx.dev.charge_kernel(entries.len() as u64 * 4, 32);
    let mut accts: Vec<[WaveAcct; KNN_WAVES]> = Vec::new();
    let runs = leaf_runs(entries, pools, &mut accts, &mut scratch.leaf);
    run_query_chunks(ctx.dev, ctx.threads, runs, |run, threads| {
        let mut keys = std::mem::take(&mut run.scratch.keys);
        let mut first = run.first;
        for seg in run.entries.chunk_by(|a, b| a.query == b.query) {
            let q = seg[0].query;
            keys.clear();
            keys.extend(seg.iter().map(|e| {
                let n = ctx.nodes.get(e.node as usize);
                (ring_gap(n.min_dis, n.max_dis, e.dqp), e.node, e.dqp)
            }));
            keys.sort_unstable_by(|a, b| {
                let by_gap = a.0.partial_cmp(&b.0).expect("finite gap");
                by_gap.then(a.1.cmp(&b.1))
            });
            let pool = &mut run.state[(q - run.entries[0].query) as usize];
            // Round-robin the ordered leaves into waves by their index in
            // the whole segment's ordering: wave 0 gets the closest.
            for (wave, acct) in run.acct.iter_mut().enumerate() {
                let skip = (wave + KNN_WAVES - first % KNN_WAVES) % KNN_WAVES;
                let leaves = keys.iter().skip(skip).step_by(KNN_WAVES);
                verify_leaves(
                    ctx,
                    threads,
                    &queries[q as usize],
                    pool.bound(),
                    leaves.map(|&(_, node, dqp)| (node, dqp)),
                    run.scratch,
                    acct,
                    |obj, d| pool.insert(Neighbor::new(obj, d)),
                );
            }
            first += seg.len();
        }
        run.scratch.keys = keys;
        (0, 0)
    });
    for wave in 0..KNN_WAVES {
        let sum = |acc: WaveAcct, run: &[WaveAcct; KNN_WAVES]| acc.merge(&run[wave]);
        accts.iter().fold(WaveAcct::default(), sum).launch(ctx);
    }
}
