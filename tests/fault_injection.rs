//! Fault injection through the whole serving stack: seeded device faults
//! and panicking user metrics against a replicated, multi-lane
//! [`QueryService`]. The contract under chaos:
//!
//! * **zero lost or hung requests** — every admitted request gets exactly
//!   one response (`completed == admitted`), errors included;
//! * **exactness under faults** — every `Ok` answer is bit-identical to
//!   the fault-free direct answer (replicas are exact copies, and the
//!   degraded per-shard composition merges exactly);
//! * **typed failure only for dead shards** — an `Err` response is
//!   [`ServiceError::ShardUnavailable`] and only appears when some shard
//!   really has lost every replica;
//! * **liveness under panics** — a metric that panics deterministically
//!   fails its own batch typed and the service keeps serving.

use gts::metric::{BatchMetric, Metric, ObjectArena};
use gts::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

/// Deterministic mixed request stream: ranges and two kNN shapes.
fn request_sequence(items: &[Item], n: usize) -> Vec<Request<Item>> {
    (0..n)
        .map(|i| {
            let q = items[(i * 13) % items.len()].clone();
            match i % 3 {
                0 => Request::Range {
                    query: q,
                    radius: 2.0,
                },
                1 => Request::Knn { query: q, k: 3 },
                _ => Request::Knn { query: q, k: 6 },
            }
        })
        .collect()
}

/// Fault-free reference answers from a plain sharded index (the exactness
/// oracle: replication and lanes must never change an answer), one batched
/// call per request shape.
fn reference_answers(
    index: &ShardedGts<Item, ItemMetric>,
    reqs: &[Request<Item>],
) -> Vec<Vec<Neighbor>> {
    let mut out: Vec<Option<Vec<Neighbor>>> = vec![None; reqs.len()];
    let mut range_idx = Vec::new();
    let mut queries = Vec::new();
    let mut radii = Vec::new();
    for (i, r) in reqs.iter().enumerate() {
        if let Request::Range { query, radius } = r {
            range_idx.push(i);
            queries.push(query.clone());
            radii.push(*radius);
        }
    }
    if !range_idx.is_empty() {
        for (i, ans) in range_idx
            .iter()
            .zip(index.batch_range(&queries, &radii).expect("ref mrq"))
        {
            out[*i] = Some(ans);
        }
    }
    for k in [3usize, 6] {
        let mut knn_idx = Vec::new();
        let mut queries = Vec::new();
        for (i, r) in reqs.iter().enumerate() {
            if let Request::Knn { query, k: rk } = r {
                if *rk == k {
                    knn_idx.push(i);
                    queries.push(query.clone());
                }
            }
        }
        if !knn_idx.is_empty() {
            for (i, ans) in knn_idx
                .iter()
                .zip(index.batch_knn(&queries, k).expect("ref knn"))
            {
                out[*i] = Some(ans);
            }
        }
    }
    out.into_iter().map(|a| a.expect("answered")).collect()
}

/// The chaos soak: `total` requests through a 2-shard × 2-replica service
/// on 2 lanes while a seeded [`FaultPlan`] fires transient and permanent
/// device faults mid-flight. Asserts the full contract above.
fn chaos_soak(total: usize, transient: usize, permanent: usize, seed: u64) {
    let data = DatasetKind::Words.generate(400, 2027);
    // Fault-free oracle.
    let clean = ShardedGts::build(
        &DevicePool::rtx_2080_ti(2),
        data.items.clone(),
        data.metric,
        GtsParams::default().with_shards(2),
    )
    .expect("build oracle");
    let reqs = request_sequence(&data.items, total);
    let want = reference_answers(&clean, &reqs);

    // The system under chaos: 2 shards × 2 replicas on 4 devices, 2 lanes.
    let pool = DevicePool::rtx_2080_ti(4);
    let index = Arc::new(
        ReplicatedShards::build(
            &pool,
            data.items.clone(),
            data.metric,
            GtsParams::default().with_shards(2).with_replicas(2),
        )
        .expect("build replicated"),
    );
    let cfg = ServiceConfig::default()
        .with_queue_depth(2048)
        .with_max_batch(8)
        .with_flush_deadline(Duration::from_millis(1))
        .with_lanes(2);
    let svc = QueryService::start_replicated(Arc::clone(&index), cfg);
    assert_eq!(svc.num_lanes(), 2);

    // Arm the seeded faults now — construction is done, so every fault
    // fires during serving. `max_launch` keeps them early in the soak.
    let plan = FaultPlan::seeded(seed, pool.len(), transient, permanent, 40);
    plan.arm(&pool);

    let h = svc.handle();
    let mut tickets = Vec::with_capacity(total);
    for r in &reqs {
        loop {
            match h.submit(r.clone()) {
                Ok(t) => {
                    tickets.push(t);
                    break;
                }
                Err(ServiceError::QueueFull { .. }) => {
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(e) => panic!("unexpected admission error: {e}"),
            }
        }
    }

    let mut unavailable = 0u64;
    for (i, t) in tickets.into_iter().enumerate() {
        // `wait` returning at all is the no-hang half of the contract.
        let r = t.wait().expect("every request is answered");
        match r.result {
            Ok(ans) => assert_eq!(
                ans.neighbors(),
                want[i],
                "request {i} answer drifted under faults"
            ),
            Err(ServiceError::ShardUnavailable { .. }) => unavailable += 1,
            Err(e) => panic!("request {i}: only dead shards may fail, got {e}"),
        }
    }

    let stats = svc.shutdown();
    assert_eq!(stats.admitted, total as u64, "zero lost at admission");
    assert_eq!(stats.completed, total as u64, "every request answered");
    assert_eq!(stats.queue_wait_us.count(), total as u64);
    assert_eq!(
        stats.failed, unavailable,
        "errors are exactly the typed ones"
    );
    assert_eq!(stats.shard_unavailable, unavailable);
    assert_eq!(stats.lane_panics, 0, "faults are typed, not lane panics");
    if unavailable > 0 {
        assert!(
            stats.replica.dead_shards > 0,
            "ShardUnavailable implies a shard truly lost every copy"
        );
    }
    assert!(
        stats.device_faults >= 1,
        "the armed plan fired at least once (faults: {:?})",
        plan.specs()
    );
    assert!(
        stats.retries >= 1,
        "a mid-batch fault forces at least one retry"
    );
    println!(
        "chaos soak: {total} requests, {} device faults, {} retries, {} degraded, {} unavailable, lanes {:?}",
        stats.device_faults, stats.retries, stats.degraded_calls, unavailable, stats.lane_batches,
    );
}

#[test]
fn chaos_soak_with_seeded_faults_stays_exact() {
    chaos_soak(600, 3, 1, 0xFA_07);
}

/// The CI soak (release; run with `--include-ignored`): 10k requests under
/// a heavier seeded fault load, including multiple permanent kills.
#[test]
#[ignore = "10k-request chaos soak; run in the CI fault job (release)"]
fn chaos_soak_ten_thousand_requests() {
    chaos_soak(10_000, 6, 2, 0xFA_17);
}

/// A seeded mixed stream for the update/query chaos soak: ~20% updates
/// (inserts and removes, double removes included), the rest range/kNN.
/// Removes only target ids already assigned at that point in the stream.
fn mixed_update_sequence(items: &[Item], n: usize, seed: u64) -> Vec<Request<Item>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut assigned = items.len() as u32;
    (0..n)
        .map(|i| match rng.gen_range(0..10u8) {
            0 => {
                let base = rng.gen_range(0..items.len());
                let object =
                    gts::metric::gen::perturb(&items[base], seed ^ (i as u64).wrapping_mul(977));
                assigned += 1;
                Request::Insert { object }
            }
            1 => Request::Remove {
                id: rng.gen_range(0..assigned),
            },
            2..=5 => Request::Range {
                query: items[rng.gen_range(0..items.len())].clone(),
                radius: 2.0,
            },
            _ => Request::Knn {
                query: items[rng.gen_range(0..items.len())].clone(),
                k: 4,
            },
        })
        .collect()
}

/// Mixed update/query chaos: the streaming stream under seeded **transient**
/// device faults. Transient faults retry (queries) or repair (updates) on
/// the same replica and disarm after firing, so unlike the permanent-kill
/// soak the contract stays fully exact, not just degraded-exact:
///
/// * zero lost requests and **zero** typed errors;
/// * every reply AND epoch stamp bit-identical to a serialized replay of
///   the same stream against a clean index;
/// * all replicas converge to the same epoch with bit-identical snapshots
///   — and both match the serialized oracle's snapshot.
fn mixed_chaos_soak(total: usize, transient: usize, seed: u64) {
    let data = DatasetKind::Words.generate(300, 2028);
    let reqs = mixed_update_sequence(&data.items, total, seed);
    let n_updates = reqs.iter().filter(|r| r.is_update()).count() as u64;
    assert!(n_updates > 0, "the stream must exercise the update path");

    // Serialized oracle: a clean same-shape index replayed in admission
    // order via the same `apply` surface the service lanes use.
    let mut oracle = ShardedGts::build(
        &DevicePool::rtx_2080_ti(2),
        data.items.clone(),
        data.metric,
        GtsParams::default().with_shards(2),
    )
    .expect("build oracle");
    let want: Vec<(Reply, u64)> = reqs
        .iter()
        .map(|r| {
            let ack = |a: Applied| {
                Reply::Update(UpdateAck {
                    assigned: a.assigned,
                    removed: a.removed,
                })
            };
            match r {
                Request::Range { query, radius } => (
                    Reply::Neighbors(
                        oracle
                            .batch_range(std::slice::from_ref(query), &[*radius])
                            .expect("oracle mrq")
                            .pop()
                            .expect("one answer"),
                    ),
                    oracle.epoch(),
                ),
                Request::Knn { query, k } => (
                    Reply::Neighbors(
                        oracle
                            .batch_knn(std::slice::from_ref(query), *k)
                            .expect("oracle knn")
                            .pop()
                            .expect("one answer"),
                    ),
                    oracle.epoch(),
                ),
                Request::Insert { object } => {
                    let a = oracle
                        .apply(&UpdateOp::Insert(object.clone()))
                        .expect("oracle insert");
                    let epoch = a.epoch;
                    (ack(a), epoch)
                }
                Request::Remove { id } => {
                    let a = oracle.apply(&UpdateOp::Remove(*id)).expect("oracle remove");
                    let epoch = a.epoch;
                    (ack(a), epoch)
                }
                Request::BatchUpdate {
                    insertions,
                    deletions,
                } => {
                    let a = oracle
                        .apply(&UpdateOp::Batch {
                            insertions: insertions.clone(),
                            deletions: deletions.clone(),
                        })
                        .expect("oracle batch");
                    let epoch = a.epoch;
                    (ack(a), epoch)
                }
            }
        })
        .collect();

    // The system under chaos: 2 shards × 2 replicas on 4 devices, 2 lanes.
    let pool = DevicePool::rtx_2080_ti(4);
    let index = Arc::new(
        ReplicatedShards::build(
            &pool,
            data.items.clone(),
            data.metric,
            GtsParams::default().with_shards(2).with_replicas(2),
        )
        .expect("build replicated"),
    );
    let cfg = ServiceConfig::default()
        .with_queue_depth(2048)
        .with_max_batch(8)
        .with_flush_deadline(Duration::from_millis(1))
        .with_lanes(2);
    let svc = QueryService::start_replicated(Arc::clone(&index), cfg);

    // Transient-only faults, armed after construction so every one fires
    // mid-serving — possibly inside an update's device phase.
    let plan = FaultPlan::seeded(seed, pool.len(), transient, 0, 40);
    plan.arm(&pool);

    let h = svc.handle();
    let mut tickets = Vec::with_capacity(total);
    for r in &reqs {
        loop {
            match h.submit(r.clone()) {
                Ok(t) => {
                    tickets.push(t);
                    break;
                }
                Err(ServiceError::QueueFull { .. }) => {
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(e) => panic!("unexpected admission error: {e}"),
            }
        }
    }
    for (i, (t, (want_reply, want_epoch))) in tickets.into_iter().zip(&want).enumerate() {
        let r = t.wait().expect("every request is answered");
        let got = r.result.expect("transient faults never surface as errors");
        assert_eq!(
            got, *want_reply,
            "request {i} drifted under transient chaos"
        );
        assert_eq!(r.epoch, *want_epoch, "request {i} epoch drifted");
    }

    let stats = svc.shutdown();
    assert_eq!(stats.admitted, total as u64, "zero lost at admission");
    assert_eq!(stats.completed, total as u64, "every request answered");
    assert_eq!(stats.failed, 0, "transient-only chaos fails nothing");
    assert_eq!(stats.updates_applied, n_updates);
    assert_eq!(stats.epoch, n_updates);
    assert!(
        stats.device_faults >= 1,
        "the armed plan fired at least once (faults: {:?})",
        plan.specs()
    );

    // Convergence: every replica at the oracle's epoch with the oracle's
    // exact serialized state, faults or not.
    let oracle_snap = oracle.snapshot();
    for r in 0..2 {
        let replica = index.replica(r).read().expect("replica lock");
        assert_eq!(replica.epoch(), n_updates, "replica {r} epoch");
        assert_eq!(
            replica.snapshot(),
            oracle_snap,
            "replica {r} state drifted from the serialized oracle"
        );
    }
    println!(
        "mixed chaos soak: {total} requests ({n_updates} updates), {} device faults, {} retries",
        stats.device_faults, stats.retries,
    );
}

#[test]
fn mixed_chaos_soak_with_transient_faults_stays_exact() {
    mixed_chaos_soak(500, 4, 0xFA_27);
}

/// The CI streaming soak (release; run with `--include-ignored`): 5k mixed
/// requests under a heavier transient fault load.
#[test]
#[ignore = "5k-request mixed chaos soak; run in the CI streaming job (release)"]
fn mixed_chaos_soak_five_thousand_requests() {
    mixed_chaos_soak(5_000, 10, 0xFA_37);
}

#[test]
fn dead_shard_fails_fast_and_typed_through_the_service() {
    let data = DatasetKind::Words.generate(300, 99);
    let pool = DevicePool::rtx_2080_ti(4);
    let index = Arc::new(
        ReplicatedShards::build(
            &pool,
            data.items.clone(),
            data.metric,
            GtsParams::default().with_shards(2).with_replicas(2),
        )
        .expect("build"),
    );
    let cfg = ServiceConfig::default()
        .with_max_batch(4)
        .with_flush_deadline(Duration::from_millis(1))
        .with_lanes(2);
    let svc = QueryService::start_replicated(Arc::clone(&index), cfg);
    // Kill BOTH copies of shard 1: replica 0's device 1 and replica 1's
    // device 3 (replica-major placement).
    pool.get(1).quarantine();
    pool.get(3).quarantine();

    let h = svc.handle();
    let tickets: Vec<Ticket> = (0..8)
        .map(|i| {
            h.submit(Request::Knn {
                query: data.items[i].clone(),
                k: 3,
            })
            .expect("admitted")
        })
        .collect();
    for t in tickets {
        let r = t.wait().expect("answered, not hung");
        assert_eq!(
            r.result.expect_err("shard 1 is gone"),
            ServiceError::ShardUnavailable { shard: 1 },
        );
    }
    // The service is still alive: it admits, executes, and answers (typed)
    // after the failures — a dead shard degrades, it does not poison.
    let late = h
        .submit(Request::Knn {
            query: data.items[0].clone(),
            k: 3,
        })
        .expect("still admitting");
    assert!(late.wait().expect("still answering").result.is_err());
    let stats = svc.shutdown();
    assert_eq!(stats.completed, 9);
    assert_eq!(stats.failed, 9);
    assert_eq!(stats.shard_unavailable, 9);
    assert_eq!(stats.replica.dead_shards, 1);
}

/// Edit distance over the flat arena whose batch kernels panic when their
/// query is the poisoned string — standing in for any misbehaving user
/// kernel (NaNs, assertions).
#[derive(Clone, Copy)]
struct PanicOnBoom;

fn explode_on(query: &Item) {
    assert!(query.as_text() != Some("boom"), "boom");
}

impl Metric<Item> for PanicOnBoom {
    fn distance(&self, a: &Item, b: &Item) -> f64 {
        ItemMetric::Edit.distance(a, b)
    }
    fn work(&self, a: &Item, b: &Item) -> u64 {
        ItemMetric::Edit.work(a, b)
    }
    fn name(&self) -> &'static str {
        "panic-on-boom"
    }
    fn accepts(&self, obj: &Item) -> bool {
        ItemMetric::Edit.accepts(obj)
    }
}

impl BatchMetric<Item> for PanicOnBoom {
    fn build_arena(&self, objects: &[Item]) -> Option<ObjectArena> {
        ItemMetric::Edit.build_arena(objects)
    }
    fn arena_fits(&self, arena: &ObjectArena, objs: &[Item]) -> bool {
        ItemMetric::Edit.arena_fits(arena, objs)
    }
    fn arena_push(&self, arena: &mut ObjectArena, obj: &Item) -> bool {
        ItemMetric::Edit.arena_push(arena, obj)
    }
    fn distance_batch(
        &self,
        objects: &[Item],
        arena: Option<&ObjectArena>,
        query: &Item,
        ids: &[u32],
        out: &mut [f64],
    ) -> (u64, u64) {
        explode_on(query);
        ItemMetric::Edit.distance_batch(objects, arena, query, ids, out)
    }
    fn distance_batch_bounded(
        &self,
        objects: &[Item],
        arena: Option<&ObjectArena>,
        query: &Item,
        ids: &[u32],
        bound: f64,
        out: &mut [Option<f64>],
    ) -> (u64, u64) {
        explode_on(query);
        ItemMetric::Edit.distance_batch_bounded(objects, arena, query, ids, bound, out)
    }
}

/// Regression: a panicking user metric used to poison the executor (the
/// thread died, every later ticket disconnected). Now the panic is caught
/// and typed, and the queue keeps draining.
#[test]
fn service_survives_a_panicking_metric() {
    let items: Vec<Item> = (0..160).map(|i| Item::text("x".repeat(i % 30))).collect();
    let pool = DevicePool::rtx_2080_ti(2);
    let index = Arc::new(
        ReplicatedShards::build(
            &pool,
            items.clone(),
            PanicOnBoom,
            GtsParams::default().with_shards(1).with_replicas(2),
        )
        .expect("build never sees the poison"),
    );
    let cfg = ServiceConfig::default()
        .with_max_batch(1)
        .with_flush_deadline(Duration::from_millis(1))
        .with_lanes(2);
    let svc = QueryService::start_replicated(index, cfg);
    let h = svc.handle();

    // The poisoned request fails typed — on every replica, so the batch
    // exhausts its budget — without killing the lane that ran it.
    let poisoned = h
        .submit(Request::Knn {
            query: Item::text("boom"),
            k: 3,
        })
        .expect("admitted");
    assert_eq!(
        poisoned.wait().expect("answered, not hung").result,
        Err(ServiceError::BatchPanicked),
    );

    // The service stays live: clean requests afterwards succeed on every
    // lane (more requests than lanes guarantees both drained post-panic).
    let clean: Vec<Ticket> = (0..6)
        .map(|i| {
            h.submit(Request::Knn {
                query: items[i * 11].clone(),
                k: 3,
            })
            .expect("still admitting")
        })
        .collect();
    for t in clean {
        let ans = t.wait().expect("still answering").result.expect("clean ok");
        assert_eq!(ans.neighbors().len(), 3);
    }
    let stats = svc.shutdown();
    assert_eq!(stats.completed, 7, "poisoned + clean all answered");
    assert_eq!(stats.failed, 1);
    assert!(
        stats.metric_panics >= 2,
        "both replicas struck by the poison"
    );
    assert_eq!(stats.shard_unavailable, 0);
    assert_eq!(
        stats.replica.strikes.iter().sum::<u64>(),
        stats.metric_panics,
        "every contained panic is a strike"
    );
}

/// The flight recorder under chaos: a traced service takes a mid-batch
/// device fault, and the dump captured at the instant of the fault holds
/// the faulting request's whole span chain — batch membership (request
/// ids), shard scatter, per-level descent, kernel launches, and the fault
/// itself — without losing a single answer.
fn flight_recorder_soak(total: usize, fault_at_launch: u64, exact_prior: bool) {
    let data = DatasetKind::Words.generate(360, 2029);
    let pool = DevicePool::rtx_2080_ti(4);
    let index = Arc::new(
        ReplicatedShards::build(
            &pool,
            data.items.clone(),
            data.metric,
            GtsParams::default().with_shards(2).with_replicas(2),
        )
        .expect("build replicated"),
    );
    let cfg = ServiceConfig::default()
        .with_queue_depth(2048)
        .with_max_batch(8)
        .with_flush_deadline(Duration::from_millis(1))
        .with_tracing(TraceConfig {
            enabled: true,
            // Large enough that the faulting batch's BatchStart/BatchMember
            // instants are still inside the last-N window at fault time.
            flight_events: 4096,
            ..TraceConfig::default()
        });
    let svc = QueryService::start_replicated(Arc::clone(&index), cfg);

    // Arm a transient fault on replica 0's first device, a few launches in:
    // it fires mid-batch, after some kernels of the same batch ran.
    pool.get(0).arm_fault(fault_at_launch, FaultKind::Transient);

    let h = svc.handle();
    let reqs = request_sequence(&data.items, total);
    let mut tickets = Vec::with_capacity(total);
    for r in &reqs {
        loop {
            match h.submit(r.clone()) {
                Ok(t) => {
                    tickets.push(t);
                    break;
                }
                Err(ServiceError::QueueFull { .. }) => {
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(e) => panic!("unexpected admission error: {e}"),
            }
        }
    }
    for t in tickets {
        t.wait()
            .expect("answered")
            .result
            .expect("a transient fault retries on the sibling replica");
    }
    let rec = svc.trace().cloned().expect("tracing is on");
    let stats = svc.shutdown();
    assert_eq!(
        stats.completed, total as u64,
        "no request lost to the fault"
    );
    assert!(stats.device_faults >= 1, "the armed fault fired");

    // Exactly the armed fault dumped (no spurious dumps), tagged right.
    let all_dumps = rec.flight_dumps();
    let dumps: Vec<_> = all_dumps
        .iter()
        .filter(|d| d.reason == DumpReason::DeviceFault)
        .collect();
    assert_eq!(dumps.len(), 1, "one armed fault, one dump");
    let dump = dumps[0];

    // The dump ends at the fault on the armed device...
    let fault = dump
        .events
        .iter()
        .find(|e| matches!(e.kind, EventKind::Fault { .. }))
        .expect("the dump holds the fault event itself");
    assert_eq!(fault.device, Some(0), "the armed device faulted");
    let batch = fault.ctx.batch.expect("the fault happened inside a batch");

    // ...and walks the faulting batch's chain all the way back up:
    // admission (request ids via BatchMember), lane, shard scatter,
    // descent levels, and the kernel launches that preceded the fault.
    let members: Vec<_> = dump
        .events
        .iter()
        .filter(|e| e.ctx.batch == Some(batch) && matches!(e.kind, EventKind::BatchMember { .. }))
        .collect();
    assert!(
        !members.is_empty(),
        "the dump names the faulting batch's requests"
    );
    assert!(
        members.iter().all(|e| e.ctx.request.is_some()),
        "every member instant carries its request id"
    );
    for kind in ["batch_start", "shard_scatter", "level", "kernel"] {
        assert!(
            dump.events
                .iter()
                .any(|e| e.ctx.batch == Some(batch) && e.kind.name() == kind),
            "the faulting batch's chain includes {kind} events"
        );
    }
    // The armed device's clock is monotone, so every launch it completed
    // before the armed one left a kernel span ending at or before the
    // fault stamp (sub-batches rotate replicas, so those spans may belong
    // to earlier batches — the count is per device, not per batch).
    let prior_kernels = dump
        .events
        .iter()
        .filter(|e| {
            e.device == Some(0)
                && matches!(e.kind, EventKind::Kernel { .. })
                && e.end_cycles <= fault.begin_cycles
        })
        .count() as u64;
    if exact_prior {
        assert_eq!(
            prior_kernels,
            fault_at_launch - 1,
            "every launch before the armed one left a kernel span in the dump"
        );
    } else {
        // At soak scale the last-N window may have shed the oldest spans;
        // the chain down to the most recent launches must survive.
        assert!(prior_kernels >= 1, "kernel launches precede the fault");
    }
    println!(
        "flight recorder: dump holds {} events, {} members of faulting batch {}, {} prior kernels",
        dump.events.len(),
        members.len(),
        batch,
        prior_kernels,
    );
}

#[test]
fn device_fault_dumps_the_faulting_spans() {
    // The armed device's third launch: the first batch's range sub-batch has
    // completed on it (one launch) and a kNN sub-batch is in flight. Replica
    // routing follows the simulated clocks, so which launch lands mid-batch
    // is tied to the cycle accounting.
    flight_recorder_soak(64, 3, true);
}

/// The CI flight-recorder chaos soak (release; run with
/// `--include-ignored`): the same contract at soak scale, fault deep in
/// the request stream.
#[test]
#[ignore = "traced chaos soak; run in the CI trace job (release)"]
fn flight_recorder_chaos_soak() {
    flight_recorder_soak(2_000, 400, false);
}
