//! The traced pass: per-layer metrics, measured from outside by timing
//! calls into the program's public functions. Each batch is replayed at
//! every public boundary — `QueryService` → `ReplicatedShards::batch_*` →
//! `ShardedGts::batch_*` → each shard's `Gts::batch_*` → `distance_batch`
//! for the counted number of distances — and a layer's self time is its
//! span minus its child's.

use crate::data::{Inputs, Op, SplitMix64};
use crate::loadgen::{Answered, Asked, LoadGen, Record};
use crate::report::{Metrics, RunResult};
use crate::spans::Spans;
use crate::stats;
use crate::sut::{self, Index, Kernel, Layer, Observe, Query, Scan, Service, ServiceCounts};
use crate::workloads::{
    due_after, failures, judge, lag_ms_p99, note, phase, rss_mb, run_batch, sampled_residue,
    samples_of, set_percentile, timed_setup, BatchLoop, Kind, Prepared, RunConfig, Workload,
    WARM_SHARE, WINDOW,
};
use gts::metric::Item;
use std::time::Instant;

/// Pairs per `distance_batch` call when replaying a batch's distance work.
const KERNEL_BLOCK: usize = 20_000;
/// Input size of the `gpu_sim` primitive timings.
const PRIMITIVE_INPUT: usize = 65_536;
/// Queries of the pool the exhaustive-scan baseline answers.
const SCAN_QUERIES: usize = 64;
/// Latency limit of the open-loop sweep: p99 within this, 99 % answered.
const SLO_MS: f64 = 50.0;
/// Service batches replayed layer by layer (two in a smoke run).
const REPLAYED_BATCHES: usize = 8;

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Replays a batch's distance work through the `metric` layer alone.
struct Replay<'a> {
    kernel: &'a Kernel,
    /// Dataset cardinality: ids are drawn below it.
    n: usize,
    rng: SplitMix64,
    /// Distances replayed so far.
    pairs: u64,
}

impl Replay<'_> {
    /// Replay `pairs` distance evaluations as one `metric.distance_batch`
    /// span under `parent`: seeded ids over the whole dataset, one query,
    /// blocks of [`KERNEL_BLOCK`]. The edit DP's cost depends on the pair, so
    /// on Words this is an estimate of what the index's own pairs cost.
    fn distances(&mut self, spans: &mut Spans, query: &Item, pairs: u64, parent: usize, op: u64) {
        let ids: Vec<u32> = (0..pairs).map(|_| self.rng.below(self.n) as u32).collect();
        let mut out = vec![0.0; ids.len()];
        let start = spans.now_ns();
        for (ids, out) in ids.chunks(KERNEL_BLOCK).zip(out.chunks_mut(KERNEL_BLOCK)) {
            self.kernel.distance_batch(query, ids, out);
        }
        std::hint::black_box(&out);
        let end = spans.now_ns();
        spans.push("metric.distance_batch", start, end, Some(parent), op);
        self.pairs += pairs;
    }
}

fn set_core_counts(
    metrics: &mut Metrics,
    core: sut::CoreCounts,
    dev: sut::DeviceCounts,
    ops: f64,
    batches: f64,
    n: usize,
    wall_ns: f64,
) {
    metrics.set("core.distances_per_op", core.distances as f64 / ops);
    metrics.set(
        "core.distance_fraction",
        core.distances as f64 / ops / n as f64,
    );
    metrics.set(
        "core.node_prune_ratio",
        ratio(
            core.nodes_pruned as f64,
            (core.nodes_pruned + core.nodes_expanded) as f64,
        ),
    );
    metrics.set(
        "core.leaf_filter_ratio",
        ratio(
            core.leaf_filtered as f64,
            (core.leaf_filtered + core.leaf_verified) as f64,
        ),
    );
    metrics.set(
        "core.leaf_abandoned_per_op",
        core.leaf_abandoned as f64 / ops,
    );
    metrics.set(
        "core.groups_per_batch",
        ratio(core.groups_formed as f64, batches),
    );
    metrics.set("core.max_frontier", core.max_frontier as f64);
    metrics.set("gpu_sim.kernels_per_op", dev.kernels as f64 / ops);
    metrics.set(
        "gpu_sim.busy_fraction",
        ratio(dev.busy_cycles as f64, dev.cycles_total as f64),
    );
    metrics.set(
        "gpu_sim.transfer_cycles_per_op",
        dev.transfer_cycles as f64 / ops,
    );
    metrics.set("gpu_sim.stall_cycles_per_op", dev.stall_cycles as f64 / ops);
    metrics.set("gpu_sim.h2d_bytes_per_op", dev.h2d_bytes as f64 / ops);
    metrics.set("gpu_sim.d2h_bytes_per_op", dev.d2h_bytes as f64 / ops);
    metrics.set("gpu_sim.peak_allocated_bytes", dev.peak_allocated as f64);
    metrics.set("gpu_sim.oom_events", dev.oom_events as f64);
    metrics.set(
        "gpu_sim.host_ns_per_sim_cycle",
        ratio(wall_ns, dev.span_cycles as f64),
    );
}

/// Time the three `gpu_sim` primitives the descent leans on, each on a
/// seeded input of [`PRIMITIVE_INPUT`] elements, median of five.
fn primitive_timings(metrics: &mut Metrics, seed: u64) {
    let device = sut::fresh_device();
    let mut rng = SplitMix64::new(seed ^ 0x9121);
    let keys: Vec<f64> = (0..PRIMITIVE_INPUT).map(|_| rng.unit()).collect();
    let keep: Vec<bool> = keys.iter().map(|&k| k < 0.5).collect();
    let per_elem = |f: &mut dyn FnMut()| {
        let times: Vec<f64> = (0..5)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed().as_secs_f64() * 1e9 / PRIMITIVE_INPUT as f64
            })
            .collect();
        stats::median(&times)
    };
    metrics.set(
        "gpu_sim.sort_ns_per_pair",
        per_elem(&mut || {
            let mut pairs: Vec<(f64, u32)> = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| (k, i as u32))
                .collect();
            sut::sort_pairs(&device, &mut pairs);
            std::hint::black_box(&pairs);
        }),
    );
    metrics.set(
        "gpu_sim.compact_ns_per_elem",
        per_elem(&mut || {
            std::hint::black_box(sut::compact(&device, &keep));
        }),
    );
    metrics.set(
        "gpu_sim.topk_ns_per_key",
        per_elem(&mut || {
            std::hint::black_box(sut::top_k(&device, &keys, 8));
        }),
    );
}

/// Exhaustive scan over the same data on a subsample of the same pool.
/// Returns the scan's queries per second.
fn scan_baseline(
    metrics: &mut Metrics,
    w: &Workload,
    inputs: &Inputs,
    queries: &[Item],
) -> Result<f64, String> {
    let scan = Scan::new(sut::items(&inputs.data), w.space);
    let stride = (queries.len() / SCAN_QUERIES).max(1);
    let picked: Vec<usize> = (0..queries.len())
        .step_by(stride)
        .take(SCAN_QUERIES)
        .collect();
    let start = Instant::now();
    for &q in &picked {
        let answer = match w.kind {
            Kind::BatchRange { .. } => scan.range(&queries[q], inputs.radii[q])?,
            _ => scan.knn(&queries[q], w.k())?,
        };
        std::hint::black_box(answer);
    }
    let secs = start.elapsed().as_secs_f64();
    let per_s = picked.len() as f64 / secs;
    metrics.set("baselines.scan_ops_per_s", per_s);
    metrics.set(
        "baselines.scan_ns_per_distance",
        secs * 1e9 / (picked.len() * w.n) as f64,
    );
    Ok(per_s)
}

/// One-off `core` operations, timed on the index itself once nothing else
/// needs it unchanged: cost-model fit, snapshot and restore (over `objects`,
/// every object the index was ever given, in id order), streaming inserts,
/// one batch update.
fn core_probes(
    metrics: &mut Metrics,
    w: &Workload,
    index: &mut Index,
    objects: Vec<Item>,
    spare: &[Item],
    seed: u64,
) -> Result<(), String> {
    let start = Instant::now();
    index.cost_model_fit();
    metrics.set("core.cost_model_fit_ms", ms(start));

    let start = Instant::now();
    let bytes = index.snapshot();
    metrics.set("core.snapshot_ms", ms(start));
    metrics.set(
        "core.snapshot_bytes_per_object",
        bytes.len() as f64 / w.n as f64,
    );
    let start = Instant::now();
    index.restore(objects, w.space, &bytes)?;
    metrics.set("core.restore_ms", ms(start));

    let (singles, batch) = spare.split_at(spare.len().min(200));
    let mut insert_us = Vec::new();
    for obj in singles {
        let start = Instant::now();
        index.insert(obj.clone())?;
        insert_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    metrics.set("core.insert_us_p50", stats::median(&insert_us));
    let mut rng = SplitMix64::new(seed ^ 0xBA7C);
    let insertions: Vec<Item> = batch.iter().take(500).cloned().collect();
    let deletions: Vec<u32> = (0..500).map(|_| rng.below(w.n) as u32).collect();
    let start = Instant::now();
    index.batch_update(insertions, deletions)?;
    metrics.set("core.batch_update_ms", ms(start));
    metrics.set("core.rebuilds", index.rebuilds() as f64);
    Ok(())
}

fn set_service_counts(metrics: &mut Metrics, c: &ServiceCounts) {
    let batches = c.batches as f64;
    metrics.set("service.batches", batches);
    metrics.set(
        "service.flush_size_share",
        ratio(c.size_flushes as f64, batches),
    );
    metrics.set(
        "service.flush_deadline_share",
        ratio(c.deadline_flushes as f64, batches),
    );
    metrics.set(
        "service.rejected_share",
        ratio(c.rejected as f64, (c.admitted + c.rejected) as f64),
    );
    metrics.set("service.failed", c.failed as f64);
    metrics.set("service.retries", c.retries as f64);
    metrics.set("service.degraded_calls", c.degraded_calls as f64);
    metrics.set("service.update_batches", c.update_batches as f64);
    metrics.set("service.final_epoch", c.epoch as f64);
    let lanes: Vec<f64> = c.lane_batches.iter().map(|&b| b as f64).collect();
    metrics.set(
        "service.lane_imbalance",
        ratio(
            lanes.iter().copied().fold(0.0, f64::max),
            stats::mean(&lanes),
        ),
    );
}

/// Everything one traced pass carries from step to step.
struct Traced<'a> {
    w: &'a Workload,
    cfg: RunConfig,
    inputs: &'a Inputs,
    replay: Replay<'a>,
    spans: Spans,
    metrics: Metrics,
    notes: Vec<String>,
}

/// The traced pass of one workload.
pub fn run_traced(w: &'static Workload, cfg: RunConfig) -> Result<RunResult, String> {
    let inputs = w.inputs(cfg.seed);
    let input_hash = w.input_hash(&inputs, cfg.seed);
    let mut metrics = Metrics::default();

    let start = Instant::now();
    let kernel = Kernel::new(sut::items(&inputs.data), w.space);
    metrics.set("metric.arena_build_ms", ms(start));
    let (prepared, build_s) = timed_setup(w, &inputs, 1)?;
    metrics.set("core.build_s", build_s);

    let mut pass = Traced {
        w,
        cfg,
        inputs: &inputs,
        replay: Replay {
            kernel: &kernel,
            n: w.n,
            rng: SplitMix64::new(cfg.seed ^ 0x4E91),
            pairs: 0,
        },
        spans: Spans::default(),
        metrics,
        notes: Vec::new(),
    };
    let (attempted, failed) = match w.kind {
        Kind::Serve { open_rate, .. } => pass.serve(prepared, open_rate)?,
        _ => pass.batch(prepared)?,
    };
    primitive_timings(&mut pass.metrics, cfg.seed);

    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let file = out.join(format!("trace-{}.json", w.name));
    std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(&file, pass.spans.to_json(w.name)))
        .map_err(|e| format!("writing {}: {e}", file.display()))?;
    note(
        &mut pass.notes,
        format!("{} spans written to {}", pass.spans.len(), file.display()),
    );

    Ok(RunResult {
        workload: w.name,
        traced: true,
        seed: cfg.seed,
        input_hash,
        attempted,
        failed,
        breakdown: Some(pass.spans.breakdown()),
        metrics: pass.metrics,
        notes: pass.notes,
        valid: true,
    })
}

/// Requests of one flushed service batch, found again from the responses:
/// the service admits in submission order and reports with each response
/// how many requests its batch held.
fn flushed_batches(records: &[Record]) -> Vec<&[Record]> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < records.len() {
        let Ok(first) = &records[i].result else {
            i += 1;
            continue;
        };
        let size = first.batch_size.max(1);
        let Some(batch) = records.get(i..i + size) else {
            break;
        };
        let whole = batch
            .iter()
            .all(|r| r.result.as_ref().is_ok_and(|a| a.batch_size == size));
        if whole {
            out.push(batch);
        }
        i += size;
    }
    out
}

struct SweepPoint {
    rate: f64,
    p99: f64,
    within_slo: bool,
    records: Vec<Record>,
    begin: f64,
}

/// One open-loop window at `rate`.
fn sweep_point(gen: &mut LoadGen, secs: f64, rate: f64, arrivals: &mut SplitMix64) -> SweepPoint {
    let begin = gen.now();
    let records = gen.open(secs, rate, arrivals);
    let timed = due_after(&records, begin + secs * WARM_SHARE);
    let latency: Vec<f64> = timed
        .iter()
        .filter(|r| r.result.is_ok())
        .map(Record::latency_ms)
        .collect();
    let p99 = stats::percentile_or_supported(&latency, 0.99).0;
    let answered = ratio(latency.len() as f64, timed.len() as f64);
    // A backlog that grows shows as latency rising through the window.
    let quarter = latency.len() / 4;
    let growing = quarter > 0
        && stats::mean(&latency[latency.len() - quarter..])
            > 2.0 * stats::mean(&latency[..quarter]) + 1.0;
    SweepPoint {
        rate,
        p99,
        within_slo: p99 <= SLO_MS && answered >= 0.99 && !growing,
        records,
        begin,
    }
}

impl Traced<'_> {
    fn batch(&mut self, mut p: Prepared) -> Result<(u64, u64), String> {
        let (w, inputs) = (self.w, self.inputs);
        let pool_batches = w.pool / w.batch();
        // One whole pass over the pool, so every count repeats exactly.
        let pass = if self.cfg.quick {
            (pool_batches / 8).max(1)
        } else {
            pool_batches
        };
        let residue = sampled_residue(w, self.cfg.seed);
        let mut run = BatchLoop {
            events: Vec::new(),
            latency_ms: Vec::new(),
            cycles: vec![p.index.span_cycles()],
            samples: Vec::new(),
            failed_ops: 0,
        };
        // Two batches nobody counts, so lazy set-up is over.
        for b in 0..2 {
            p.index
                .call(Layer::Top, &w.batch_query(&p, inputs, b % pool_batches))?;
        }
        let core_before = p.index.core_counts();
        let dev_before = p.index.device_counts();
        let clock = Instant::now();
        for b in 0..pass {
            let counts = p.index.core_counts();
            let start = self.spans.now_ns();
            run_batch(w, &p, inputs, b, residue, &mut run, clock);
            let end = self.spans.now_ns();
            let call = self.spans.push("core.batch", start, end, None, b as u64);
            let pairs = p.index.core_counts().since(counts).distances;
            let query = &p.queries[b * w.batch()];
            self.replay
                .distances(&mut self.spans, query, pairs, call, b as u64);
        }
        let core = p.index.core_counts().since(core_before);
        let dev = p.index.device_counts().since(dev_before);
        let ops = (pass * w.batch()) as f64;
        let wall_ns = run.latency_ms.iter().sum::<f64>() * 1e6;
        set_core_counts(&mut self.metrics, core, dev, ops, pass as f64, w.n, wall_ns);
        self.set_span_metrics();
        let ops_per_s = ops / (wall_ns / 1e9);
        set_percentile(
            &mut self.metrics,
            &mut self.notes,
            "loadgen.latency_ms_p90",
            &run.latency_ms,
            0.90,
        );
        self.metrics.set("loadgen.peak_rss_mb", rss_mb("VmHWM:"));

        // The same batches again with the program's own tracer attached.
        let again = pass.min(16);
        let recorder = sut::attach_tracer(&p.index);
        let start = Instant::now();
        for b in 0..again {
            p.index.call(Layer::Top, &w.batch_query(&p, inputs, b))?;
        }
        let traced_ms = ms(start);
        sut::detach_tracer(&p.index);
        let untraced_ms: f64 = run.latency_ms[..again].iter().sum();
        self.metrics
            .set("trace.overhead_ratio", ratio(traced_ms, untraced_ms));
        self.set_trace_metrics(&recorder, again * w.batch());

        let scan_per_s = scan_baseline(&mut self.metrics, w, inputs, &p.queries)?;
        self.metrics
            .set("core.speedup_vs_scan", ratio(ops_per_s, scan_per_s));
        let spare = p.queries.clone();
        let objects = sut::items(&inputs.data);
        core_probes(
            &mut self.metrics,
            w,
            &mut p.index,
            objects,
            &spare,
            self.cfg.seed,
        )?;

        let (checked, wrong) = judge(inputs, &[], run.samples, &mut self.notes);
        self.metrics.set("loadgen.oracle_checked", checked as f64);
        Ok((ops as u64, run.failed_ops + wrong))
    }

    /// Span-derived numbers every workload reports.
    fn set_span_metrics(&mut self) {
        let b = self.spans.breakdown();
        self.metrics.set(
            "metric.ns_per_distance",
            ratio(
                self.spans.total_ns("metric.distance_batch") as f64,
                self.replay.pairs as f64,
            ),
        );
        self.metrics
            .set("metric.kernel_share", b.share("metric.distance_batch"));
        self.metrics.set("core.self_share", b.share("core.batch"));
    }

    /// What the program's own tracer recorded over `ops` operations.
    fn set_trace_metrics(&mut self, recorder: &sut::Recorder, ops: usize) {
        let (events, dropped) = sut::trace_events(recorder);
        self.metrics.set(
            "trace.events_per_op",
            ratio((events as u64 + dropped) as f64, ops as f64),
        );
        self.metrics.set("trace.dropped_events", dropped as f64);
        let start = Instant::now();
        std::hint::black_box(sut::trace_export(recorder));
        self.metrics.set("trace.export_ms", ms(start));
    }

    /// Replay one flushed batch of queries at every layer below the
    /// service, ranges first and then kNN as the service runs them, and
    /// record the spans.
    fn replay_batch(&mut self, p: &Prepared, batch: &[Record], op: u64) -> Result<(), String> {
        let mut range_q = Vec::new();
        let mut radii = Vec::new();
        let mut knn_q = Vec::new();
        let mut k = 0;
        for r in batch {
            match r.asked {
                Asked::Range { query, radius } => {
                    range_q.push(p.queries[query].clone());
                    radii.push(radius);
                }
                Asked::Knn { query, k: asked_k } => {
                    knn_q.push(p.queries[query].clone());
                    k = asked_k;
                }
                Asked::Update => return Ok(()),
            }
        }
        let calls = [
            Query::Range {
                queries: &range_q,
                radii: &radii,
            },
            Query::Knn { queries: &knn_q, k },
        ];
        let run = |layer: Layer| -> Result<(), String> {
            for call in calls.iter().filter(|c| !c.is_empty()) {
                std::hint::black_box(p.index.call(layer, call)?);
            }
            Ok(())
        };
        // The service's own span: from the flush (when the last member
        // stopped waiting in the queue) to the last response.
        let ns = |secs: f64| (secs * 1e9) as u64;
        let flush = batch
            .iter()
            .filter_map(|r| {
                let a = r.result.as_ref().ok()?;
                Some(r.due + r.lag + a.queue_wait_us as f64 / 1e6)
            })
            .fold(0.0, f64::max);
        let done = batch.iter().map(|r| r.done).fold(0.0, f64::max);
        let spans = &mut self.spans;
        let service = spans.push("service.batch", ns(flush), ns(done.max(flush)), None, op);
        let (replica, result) = spans.time("replica.batch", Some(service), op, || run(Layer::Top));
        result?;
        let (sharded, result) =
            spans.time("sharded.batch", Some(replica), op, || run(Layer::Sharded));
        result?;
        for s in 0..p.index.num_shards() {
            let counts = p.index.core_counts();
            let (shard, result) =
                spans.time("core.batch", Some(sharded), op, || run(Layer::Shard(s)));
            result?;
            let pairs = p.index.core_counts().since(counts).distances;
            let query = knn_q.first().or(range_q.first()).expect("non-empty batch");
            self.replay.distances(spans, query, pairs, shard, op);
        }
        Ok(())
    }

    fn serve(&mut self, mut p: Prepared, open_rate: f64) -> Result<(u64, u64), String> {
        let (w, cfg, inputs) = (self.w, self.cfg, self.inputs);
        let service = p.service.take().expect("serve workloads start a service");
        let mut gen = LoadGen::new(
            service.submitter(),
            &p.queries,
            &p.fresh,
            w.stream(cfg.seed).expect("serve workloads have a stream"),
            w.oracle_one_in as u64,
            cfg.seed,
            self.spans.origin(),
        );
        let mut arrivals = SplitMix64::new(cfg.seed ^ 0xA221);
        let mut all: Vec<Record> = Vec::new();

        // Closed loop, as in the untraced pass but shorter.
        let closed_secs = cfg.seconds * 0.2;
        let core_before = p.index.core_counts();
        let dev_before = p.index.device_counts();
        let begin = gen.now();
        let closed = gen.closed(closed_secs * (1.0 + WARM_SHARE), WINDOW);
        let wall_ns = (gen.now() - begin) * 1e9;
        let core = p.index.core_counts().since(core_before);
        let dev = p.index.device_counts().since(dev_before);
        let closed_phase = phase(&closed, begin, closed_secs * WARM_SHARE);
        let ops_per_s = closed_phase
            .ops_per_s
            .ok_or("too few requests completed in the closed-loop phase")?;
        let queries = closed.iter().filter(|r| r.asked != Asked::Update).count();
        let batches = flushed_batches(&closed);
        set_core_counts(
            &mut self.metrics,
            core,
            dev,
            queries.max(1) as f64,
            batches.len().max(1) as f64,
            w.n,
            wall_ns,
        );

        // Replay a few of its timed query batches layer by layer (the
        // service idles meanwhile).
        let first_due = closed_phase.timed.first().map_or(f64::MAX, |r| r.due);
        let candidates: Vec<&[Record]> = batches
            .iter()
            .copied()
            .filter(|b| b[0].due >= first_due && b.iter().all(|r| r.asked != Asked::Update))
            .collect();
        let replays = if cfg.quick { 2 } else { REPLAYED_BATCHES };
        let step = (candidates.len() / replays).max(1);
        let mut replayed_requests = 0;
        for (op, batch) in candidates.iter().step_by(step).take(replays).enumerate() {
            self.replay_batch(&p, batch, op as u64)?;
            replayed_requests += batch.len();
        }
        self.set_span_metrics();
        let sum = |name: &str| self.spans.total_ns(name) as f64;
        let slowest_shards: f64 = {
            let mut by_op = std::collections::BTreeMap::new();
            for s in self.spans.iter().filter(|s| s.name == "core.batch") {
                let slot = by_op.entry(s.op).or_insert(0u64);
                *slot = (*slot).max(s.ns());
            }
            by_op.values().map(|&ns| ns as f64).sum()
        };
        let shard_overhead = ratio(sum("sharded.batch"), slowest_shards);
        let replica_overhead = ratio(sum("replica.batch"), sum("sharded.batch"));
        let direct_per_s = ratio(replayed_requests as f64, sum("replica.batch") / 1e9);
        let metrics = &mut self.metrics;
        metrics.set("core.shard_overhead_ratio", shard_overhead);
        metrics.set("core.replica_overhead_ratio", replica_overhead);
        metrics.set("service.overhead_ratio", ratio(direct_per_s, ops_per_s));
        all.extend(closed);

        // Open loop at half, once and one and a half times the workload's rate.
        let window = cfg.seconds * 0.15;
        let points: Vec<SweepPoint> = [0.5, 1.0, 1.5]
            .iter()
            .map(|f| sweep_point(&mut gen, window, open_rate * f, &mut arrivals))
            .collect();
        metrics.set("loadgen.peak_rss_mb", rss_mb("VmHWM:"));
        metrics.set("service.latency_ms_p99_low", points[0].p99);
        metrics.set("service.latency_ms_p99", points[1].p99);
        metrics.set("service.latency_ms_p99_high", points[2].p99);
        metrics.set(
            "service.max_rate_within_slo_rps",
            points
                .iter()
                .filter(|pt| pt.within_slo)
                .map(|pt| pt.rate)
                .fold(0.0, f64::max),
        );
        {
            let at_rate = due_after(&points[1].records, points[1].begin + window * WARM_SHARE);
            let answered: Vec<(&Record, &Answered)> = at_rate
                .iter()
                .filter_map(|r| Some((r, r.result.as_ref().ok()?)))
                .collect();
            let wait_ms: Vec<f64> = answered
                .iter()
                .map(|(_, a)| a.queue_wait_us as f64 / 1e3)
                .collect();
            let exec_ms: Vec<f64> = answered
                .iter()
                .map(|(r, a)| r.latency_ms() - a.queue_wait_us as f64 / 1e3)
                .collect();
            let latency: Vec<f64> = answered.iter().map(|(r, _)| r.latency_ms()).collect();
            let sizes: Vec<f64> = answered.iter().map(|(_, a)| a.batch_size as f64).collect();
            let submit_us: Vec<f64> = at_rate.iter().map(|r| r.submit * 1e6).collect();
            let notes = &mut self.notes;
            metrics.set("service.queue_wait_ms_p50", stats::median(&wait_ms));
            set_percentile(metrics, notes, "service.queue_wait_ms_p99", &wait_ms, 0.99);
            metrics.set("service.exec_ms_p50", stats::median(&exec_ms));
            // Each batch of size s is reported by s requests, so the number
            // of batches is the sum of 1/s over requests.
            metrics.set(
                "service.batch_size_mean",
                ratio(
                    sizes.len() as f64,
                    sizes.iter().map(|s| 1.0 / s.max(1.0)).sum(),
                ),
            );
            metrics.set("service.batch_size_p50", stats::median(&sizes));
            metrics.set("service.submit_us_p50", stats::median(&submit_us));
            set_percentile(metrics, notes, "service.submit_us_p99", &submit_us, 0.99);
            metrics.set("loadgen.lag_ms_p99", lag_ms_p99(at_rate));
            set_percentile(metrics, notes, "loadgen.latency_ms_p90", &latency, 0.90);
        }
        for pt in points {
            all.extend(pt.records);
        }
        set_service_counts(metrics, &service.shutdown());

        // The same closed loop with the program's tracing, then its metrics,
        // on: a fresh service over the same index each time.
        let tail = cfg.seconds * 0.1;
        for observe in [
            Observe {
                trace: true,
                metrics: false,
            },
            Observe {
                trace: false,
                metrics: true,
            },
        ] {
            let observed = Service::start(&p.index, w.topology(), observe);
            gen.rebind(observed.submitter());
            let begin = gen.now();
            let records = gen.closed(tail * (1.0 + WARM_SHARE), WINDOW);
            let observed_per_s = phase(&records, begin, tail * WARM_SHARE)
                .ops_per_s
                .unwrap_or(0.0);
            let overhead = ratio(ops_per_s, observed_per_s);
            if let Some(recorder) = observed.tracer() {
                self.metrics.set("trace.overhead_ratio", overhead);
                self.set_trace_metrics(&recorder, records.len());
            } else {
                let start = Instant::now();
                let exposition = observed.scrape().unwrap_or_default();
                self.metrics.set("metrics.scrape_ms", ms(start));
                self.metrics
                    .set("metrics.exposition_bytes", exposition.len() as f64);
                self.metrics.set("metrics.overhead_ratio", overhead);
            }
            observed.shutdown();
            all.extend(records);
        }

        let attempted = all.len() as u64;
        let failed = failures(&all, &mut self.notes);
        let (checked, wrong) = judge(inputs, &gen.updates, samples_of(&all), &mut self.notes);
        self.metrics.set("loadgen.oracle_checked", checked as f64);
        // Every object the index holds an id for: the data, then each insert.
        let mut objects = sut::items(&inputs.data);
        for op in &gen.updates {
            match op {
                Op::Insert { fresh } => objects.push(p.fresh[*fresh].clone()),
                Op::BatchUpdate { fresh, .. } => {
                    objects.extend(fresh.iter().map(|&f| p.fresh[f].clone()));
                }
                _ => {}
            }
        }
        drop(gen);

        let scan_per_s = scan_baseline(&mut self.metrics, w, inputs, &p.queries)?;
        self.metrics
            .set("core.speedup_vs_scan", ratio(direct_per_s, scan_per_s));
        let spare = if p.fresh.is_empty() {
            p.queries.clone()
        } else {
            p.fresh.clone()
        };
        core_probes(
            &mut self.metrics,
            w,
            &mut p.index,
            objects,
            &spare,
            cfg.seed,
        )?;
        Ok((attempted, failed + wrong))
    }
}
