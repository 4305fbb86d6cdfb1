//! The level-synchronized **descent engine**: the core of the batched
//! search loops (paper §5, Alg. 4–5).
//!
//! [`DescentEngine`] holds everything one batched descent owns — the frame
//! stack (frontier + per-level intermediate-result buffers + pending query
//! groups), the per-query kNN pools, and the reused [`SearchScratch`]:
//!
//! * **start** ([`DescentEngine::start_range`] /
//!   [`DescentEngine::start_knn`]) seeds the root frontier (or comes up
//!   already finished for an empty batch);
//! * **run** ([`DescentEngine::run`]) descends to completion: one
//!   device-level action at a time — a level expansion (pivot-distance
//!   kernel, Alg. 5 bound update, ring pruning) or a segment's leaf
//!   verification — with the administrative work between them (group
//!   splits, starting the next group, retiring empty frontiers) charging
//!   nothing. The frame stack is what runs two-stage query groups: a
//!   segment that overruns the per-layer bound splits, and its groups
//!   descend one after another while it keeps its buffers alive.
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
//! **Step-order fidelity.** The engine replays the recursive loops' exact
//! order of device-visible actions — allocations (one intermediate-result
//! buffer per level, held until the segment and its groups finish, mirroring
//! the recursion's buffer lifetimes), kernel launches, and stat updates —
//! so running an engine returns the pre-refactor monolithic
//! descent's answers bit for bit (`tests/shard_invariance.rs` pins this
//! against a checked-in fingerprint whose cycle and counter pins were
//! re-recorded twice on purpose: when leaf verification started charging
//! edit distance's banded DP, and when exact kNN started seeding).
//!
//! **Host parallelism.** Leaf verification executes per *query*, not per
//! wave: chunks of whole query segments run concurrently on the host pool
//! (`crate::dispatch`), each query running its own waves back to back. That
//! equals whole-batch wave execution because a query's pool, bound and
//! result list are touched by its own leaves only, and each wave's bound is
//! still snapshotted before the wave; per-wave accounts are summed over the
//! chunks and charged as the same kernels in the same order.

use crate::dispatch::{distance_block, query_chunk_bounds, run_query_chunks};
use crate::node::Node;
use crate::search::{
    verify_block, Frontier, LeafScratch, SearchCtx, SearchScratch, TopK, FRONTIER_ENTRY_BYTES,
    VERIFY_EXTRA_WORK,
};
use gpu_sim::primitives::{reduce_max_f64, sort_pairs_by_key};
use gpu_sim::{GpuError, Reservation};
use metric_space::index::{sort_neighbors, Neighbor};
use metric_space::lemmas::prune_node_range;
use metric_space::BatchMetric;
use std::sync::atomic::Ordering;

/// One suspended descent segment: a frontier at a level, the
/// intermediate-result buffers its levels allocated, and any query groups
/// it split into. Frames stack exactly like the recursive descent's call
/// frames did: a segment that splits keeps its buffers alive while its
/// groups (pushed as child frames) run to completion, then retires.
struct Frame {
    /// The segment's current frontier; `None` once the segment has split
    /// into query groups and only manages them.
    entries: Option<Vec<Frontier>>,
    /// Level `entries` sits at (the root frontier starts at 1).
    level: u32,
    /// Per-level intermediate-result buffers (the paper's `Q'_Res`),
    /// reserved on expansion and held until this frame pops — each level's
    /// buffer stays live while deeper levels run, which is the memory
    /// pressure the two-stage strategy reacts to. Only the bytes exist: the
    /// frontier itself lives host-side in `entries`.
    held: Vec<Reservation>,
    /// Pending query groups in reverse order (`pop()` yields the next),
    /// formed when the frontier overran the per-layer memory bound.
    groups: Vec<Vec<Frontier>>,
    /// The level the group split happened at; every group resumes there.
    group_level: u32,
}

impl Frame {
    fn running(entries: Vec<Frontier>, level: u32) -> Frame {
        Frame {
            entries: Some(entries),
            level,
            held: Vec::new(),
            groups: Vec::new(),
            group_level: 0,
        }
    }
}

/// What kind of query the engine is descending, plus its per-query state.
enum Mode<'a> {
    /// MRQ (Alg. 4): fixed per-query radii, hits accumulated per query.
    Range {
        radii: &'a [f64],
        results: Vec<Vec<Neighbor>>,
    },
    /// MkNNQ (Alg. 5): per-query best-k pools whose k-th distance is the
    /// pruning bound.
    Knn { pools: Vec<TopK> },
}

/// The per-batch descent state. Constructed by
/// [`DescentEngine::start_range`] or [`DescentEngine::start_knn`], borrowing
/// the batch's [`SearchCtx`], then [`run`](DescentEngine::run) once.
pub(crate) struct DescentEngine<'a, O, M> {
    ctx: &'a SearchCtx<'a, O, M>,
    queries: &'a [O],
    mode: Mode<'a>,
    /// Descent segments, deepest last — the explicit form of the recursive
    /// group descent's call stack.
    stack: Vec<Frame>,
    scratch: SearchScratch,
}

impl<'a, O, M> DescentEngine<'a, O, M>
where
    O: Send + Sync,
    M: BatchMetric<O>,
{
    /// Start a batched MRQ descent (`answers[i] = MRQ(queries[i],
    /// radii[i])`). Comes up already finished when the batch is empty.
    pub(crate) fn start_range(
        ctx: &'a SearchCtx<'a, O, M>,
        queries: &'a [O],
        radii: &'a [f64],
    ) -> Self {
        let mode = Mode::Range {
            radii,
            results: vec![Vec::new(); queries.len()],
        };
        let seed = !ctx.table.is_empty() && !queries.is_empty();
        Self::start(ctx, queries, mode, seed)
    }

    /// Start a batched MkNNQ descent. Comes up already finished when the
    /// batch is empty or `k == 0`.
    pub(crate) fn start_knn(ctx: &'a SearchCtx<'a, O, M>, queries: &'a [O], k: usize) -> Self {
        let mode = Mode::Knn {
            pools: (0..queries.len()).map(|_| TopK::new(k)).collect(),
        };
        let seed = !ctx.table.is_empty() && !queries.is_empty() && k > 0;
        Self::start(ctx, queries, mode, seed)
    }

    fn start(ctx: &'a SearchCtx<'a, O, M>, queries: &'a [O], mode: Mode<'a>, seed: bool) -> Self {
        let mut engine = DescentEngine {
            ctx,
            queries,
            mode,
            stack: Vec::new(),
            scratch: SearchScratch::default(),
        };
        if seed {
            let mut entries = engine.scratch.take_frontier();
            entries.extend((0..queries.len() as u32).map(|q| Frontier {
                node: 1,
                query: q,
                dqp: f64::NAN,
            }));
            engine.stack.push(Frame::running(entries, 1));
        }
        engine
    }

    /// Run the descent to completion: every level expansion and every
    /// segment's leaf verification, in the recursive descent's order.
    /// Administrative transitions (group splits, starting the next group,
    /// retiring empty frontiers) charge nothing. On error (device OOM on an
    /// intermediate buffer) the engine is dead.
    pub(crate) fn run(&mut self) -> Result<(), GpuError> {
        while let Some(top) = self.stack.last_mut() {
            // Group-manager frame: start the next group or retire.
            let Some(entries) = top.entries.take() else {
                match top.groups.pop() {
                    Some(g) => {
                        let level = top.group_level;
                        self.stack.push(Frame::running(g, level));
                    }
                    None => {
                        self.stack.pop(); // drops this segment's held buffers
                    }
                }
                continue;
            };
            if entries.is_empty() {
                self.scratch.put_frontier(entries);
                self.stack.pop();
                continue;
            }
            let level = top.level;
            let shape = self.ctx.shape();
            self.ctx
                .stats
                .max(&self.ctx.stats.max_frontier, entries.len() as u64);

            // Two-stage strategy: form query groups when the frontier would
            // overrun the per-layer memory bound (Alg. 4 line 4 / Alg. 5
            // line 4). Groups run sequentially; for kNN they *share* the
            // pools, so later groups inherit tightened bounds — a free bonus
            // of sequential group processing.
            if self.ctx.params.query_grouping
                && entries.len() > self.ctx.size_limit(level)
                && SearchCtx::<O, M>::multiple_queries(&entries)
            {
                let groups = SearchCtx::<O, M>::split_groups(entries, self.ctx.size_limit(level));
                self.ctx
                    .stats
                    .add(&self.ctx.stats.groups_formed, groups.len() as u64);
                top.groups = groups;
                top.groups.reverse();
                top.group_level = level;
                continue;
            }

            // Per-level trace span: snapshot the clock and the verified-leaf
            // counter before the device action, record the delta after.
            // Purely observational — the action's charges are untouched.
            let trace = self.ctx.dev.tracer().map(|(rec, dev_id)| {
                let verified = self.ctx.stats.leaf_verified.load(Ordering::Relaxed);
                (rec, dev_id, self.ctx.dev.cycles(), verified)
            });
            let frontier_len = entries.len() as u64;

            if level == shape.h {
                // The segment's leaves: verify, then retire.
                match &mut self.mode {
                    Mode::Range { radii, results } => verify_range(
                        self.ctx,
                        self.queries,
                        radii,
                        &entries,
                        results,
                        &mut self.scratch,
                    ),
                    Mode::Knn { pools } => {
                        verify_knn(self.ctx, self.queries, &entries, pools, &mut self.scratch)
                    }
                }
                self.stack.pop();
            } else {
                // Expand one level. The intermediate buffer is sized |E|·Nc
                // like the paper's Q'_Res; with grouping on, the size-limit
                // check above guarantees it fits — with it off this is
                // exactly where the naive strategy deadlocks.
                let context = match self.mode {
                    Mode::Range { .. } => "MRQ intermediate results",
                    Mode::Knn { .. } => "MkNNQ intermediate results",
                };
                let bytes = (entries.len() * shape.nc as usize * FRONTIER_ENTRY_BYTES) as u64;
                top.held.push(self.ctx.dev.reserve(bytes, context)?);
                let next = match &mut self.mode {
                    Mode::Range { radii, .. } => {
                        expand_range(self.ctx, self.queries, radii, &entries, &mut self.scratch)
                    }
                    Mode::Knn { pools } => expand_knn(
                        self.ctx,
                        self.queries,
                        &entries,
                        level,
                        pools,
                        &mut self.scratch,
                    ),
                };
                top.entries = Some(next);
                top.level = level + 1;
            }
            self.scratch.put_frontier(entries);
            if let Some((rec, dev_id, c0, v0)) = trace {
                rec.record(gts_trace::TraceEvent::span(
                    gts_trace::EventKind::Level {
                        level,
                        frontier: frontier_len,
                        verified: self.ctx.stats.leaf_verified.load(Ordering::Relaxed) - v0,
                    },
                    gts_trace::current_ctx(),
                    Some(dev_id),
                    c0,
                    self.ctx.dev.cycles(),
                ));
            }
        }
        Ok(())
    }

    /// Consume the finished engine into per-query answer lists in canonical
    /// `(distance, id)` order. Must only be called once
    /// [`run`](DescentEngine::run) has returned `Ok`.
    pub(crate) fn into_results(self) -> Vec<Vec<Neighbor>> {
        debug_assert!(self.stack.is_empty(), "descent not finished");
        match self.mode {
            Mode::Range { mut results, .. } => {
                for r in &mut results {
                    sort_neighbors(r);
                }
                results
            }
            Mode::Knn { pools } => pools.into_iter().map(TopK::into_sorted).collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// Level expansion (the loop bodies of Alg. 4 / Alg. 5)
// ---------------------------------------------------------------------------

/// Expand one MRQ level: one pivot-distance kernel over the frontier, then
/// the Lemma 5.1 ring test for each of the `Nc` children. Returns the
/// next-level frontier.
fn expand_range<O, M>(
    ctx: &SearchCtx<'_, O, M>,
    queries: &[O],
    radii: &[f64],
    entries: &[Frontier],
    scratch: &mut SearchScratch,
) -> Vec<Frontier>
where
    O: Send + Sync,
    M: BatchMetric<O>,
{
    let shape = ctx.shape();
    ctx.pivot_distances(queries, entries, scratch);
    let mut next = scratch.take_frontier();
    let (mut pruned, mut expanded) = (0u64, 0u64);
    for (i, e) in entries.iter().enumerate() {
        let r = radii[e.query as usize];
        let dqi = scratch.dq[i];
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
            if prune_node_range(child.min_dis, upper, dqi, r) {
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
        .launch_charged((entries.len() * shape.nc as usize) as u64 * 4, 8);
    next
}

/// Expand one MkNNQ level (Alg. 5 lines 7–17): pivot distances (the pivots
/// are real objects, so each distance is also a candidate), the
/// encode-and-global-sort bound update, then tie-safe pruning against the
/// query's k-th bound `pools[q].bound()`. The root level runs the fused
/// seeding kernel ([`seed_knn`]) in place of the first two. Returns the
/// next-level frontier.
fn expand_knn<O, M>(
    ctx: &SearchCtx<'_, O, M>,
    queries: &[O],
    entries: &[Frontier],
    level: u32,
    pools: &mut [TopK],
    scratch: &mut SearchScratch,
) -> Vec<Frontier>
where
    O: Send + Sync,
    M: BatchMetric<O>,
{
    let shape = ctx.shape();
    if level == 1 {
        // At the root the bound update would only insert the root pivot,
        // which the dive inserts too.
        seed_knn(ctx, queries, entries, pools, scratch);
    } else {
        // Alg. 5 lines 7–10: pivot distances for the frontier (one batched
        // kernel).
        ctx.pivot_distances(queries, entries, scratch);

        // Alg. 5 lines 11–12: the per-query k-th bound is located by
        // encoding `query_rank + dis/denom` and running the same global
        // device sort as construction; walking the sorted runs inserts
        // candidates in ascending order per query.
        let SearchScratch { dq, pairs, .. } = &mut *scratch;
        let maxd = reduce_max_f64(ctx.dev, dq).max(0.0);
        let denom = 2.0 * (maxd + 1.0);
        pairs.clear();
        pairs.extend(
            entries
                .iter()
                .enumerate()
                .map(|(i, e)| (f64::from(e.query) + dq[i] / denom, i as u32)),
        );
        ctx.dev.launch_charged(pairs.len() as u64 * 2, 2);
        sort_pairs_by_key(ctx.dev, pairs);
        for &(_, i) in pairs.iter() {
            let e = entries[i as usize];
            let pivot = ctx.nodes.get(e.node as usize).pivot.expect("internal node");
            // A tombstoned pivot's distance must not become a candidate (it
            // is no longer an answer) nor a bound (it could over-tighten
            // pruning against live objects).
            if ctx.live[pivot as usize] {
                pools[e.query as usize].insert(Neighbor::new(pivot, dq[i as usize]));
            }
        }
    }

    // Alg. 5 lines 13–17: prune with the updated bounds — the own-pivot
    // test on the expanded node, then the parent-pivot ring test per child.
    // Both tests are tie-safe (strict `>`): a node that could still contain
    // an object at exactly the bound distance survives, because such an
    // object can enter the canonical answer through the `(dis, id)`
    // tie-break.
    let mut next = scratch.take_frontier();
    let (mut pruned, mut expanded) = (0u64, 0u64);
    for (i, e) in entries.iter().enumerate() {
        let node = ctx.nodes.get(e.node as usize);
        let bound = pools[e.query as usize].bound();
        let dqi = scratch.dq[i];
        if dqi - node.own_max_dis > bound {
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
        .launch_charged((entries.len() * shape.nc as usize) as u64 * 4, 8);
    next
}

/// Distance from a query's mapped coordinate `d` (its distance to the
/// parent pivot) to `node`'s ring `[min_dis, max_dis]`: 0 inside the ring.
/// A NaN coordinate (a root leaf, which has no parent pivot) also gives 0.
fn ring_gap(d: f64, node: &Node) -> f64 {
    if d < node.min_dis {
        node.min_dis - d
    } else if d > node.max_dis {
        d - node.max_dis
    } else {
        0.0
    }
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
        distance_block(
            ctx.dev,
            threads,
            ctx.metric,
            ctx.objects,
            ctx.arena,
            query,
            ids,
            out,
        )
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
                (!child.is_empty()).then(|| (ring_gap(d, child), c))
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
    ctx.dev.launch_charged(entries.len() as u64 * 4, 32);
    let mut accts: Vec<[WaveAcct; KNN_WAVES]> = Vec::new();
    let runs = leaf_runs(entries, pools, &mut accts, &mut scratch.leaf);
    run_query_chunks(ctx.dev, ctx.threads, runs, |run, threads| {
        let mut keys = std::mem::take(&mut run.scratch.keys);
        let mut first = run.first;
        for seg in run.entries.chunk_by(|a, b| a.query == b.query) {
            let q = seg[0].query;
            keys.clear();
            keys.extend(seg.iter().map(|e| {
                (
                    ring_gap(e.dqp, ctx.nodes.get(e.node as usize)),
                    e.node,
                    e.dqp,
                )
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
