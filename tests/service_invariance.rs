//! Service invariance: answers that travel through the online query
//! service — admission queue, microbatcher, FIFO executor — are
//! **bit-identical** to direct `ShardedGts` batch calls over the same
//! requests, for 1, 2, and 4 shards and under every flush trigger.
//! Batching is pure plumbing: it may only change *when* work runs, never
//! what any request answers.
//!
//! Also proves the determinism story end-to-end (two identical runs with
//! one request in flight at a time leave identical simulated device
//! clocks), that a submission racing shutdown never hangs, and hosts the
//! `#[ignore]`d ≥10k-request soak the CI `service` job runs in release
//! mode.

use gts::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// A deterministic mixed request sequence over `items`: ranges and two
/// distinct kNN shapes interleaved.
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

/// Direct (service-free) answers for the same sequence: one batched call
/// per request shape, exactly like the service's executor splits them.
fn direct_answers(
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
            .zip(index.batch_range(&queries, &radii).expect("direct mrq"))
        {
            out[*i] = Some(ans);
        }
    }
    for k in [3usize, 5, 6] {
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
                .zip(index.batch_knn(&queries, k).expect("direct knn"))
            {
                out[*i] = Some(ans);
            }
        }
    }
    out.into_iter().map(|a| a.expect("answered")).collect()
}

fn build_sharded(n: usize, shards: u32, seed: u64) -> (Vec<Item>, ShardedGts<Item, ItemMetric>) {
    let data = DatasetKind::Words.generate(n, seed);
    let pool = DevicePool::rtx_2080_ti(shards as usize);
    let index = ShardedGts::build(
        &pool,
        data.items.clone(),
        data.metric,
        GtsParams::default().with_shards(shards),
    )
    .expect("build");
    (data.items, index)
}

/// Wrap a sharded index as a single fenced replica the service can own
/// while the test keeps a handle for stats / clocks / direct reads.
fn replicated(index: ShardedGts<Item, ItemMetric>) -> Arc<ReplicatedShards<Item, ItemMetric>> {
    Arc::new(ReplicatedShards::from_replicas(vec![index]))
}

/// Push `reqs` through a service with config `cfg` and return the answers
/// plus the final service stats.
fn serve(
    index: Arc<ReplicatedShards<Item, ItemMetric>>,
    cfg: ServiceConfig,
    reqs: &[Request<Item>],
) -> (Vec<Vec<Neighbor>>, ServiceStats) {
    let svc = QueryService::start_replicated(index, cfg);
    let h = svc.handle();
    let tickets: Vec<Ticket> = reqs
        .iter()
        .map(|r| h.submit(r.clone()).expect("admitted"))
        .collect();
    // Shutdown first: it drains whatever the triggers have not shipped yet
    // (a trailing partial batch under the size trigger), answering every
    // ticket — responses buffer in their per-request channels.
    let stats = svc.shutdown();
    let answers: Vec<Vec<Neighbor>> = tickets
        .into_iter()
        .map(|t| {
            t.wait()
                .expect("answered")
                .result
                .expect("no index error")
                .neighbors()
        })
        .collect();
    (answers, stats)
}

#[test]
fn size_triggered_service_matches_direct_batches() {
    for shards in [1u32, 2, 4] {
        let (items, index) = build_sharded(420, shards, 2024);
        let reqs = request_sequence(&items, 90);
        let want = direct_answers(&index, &reqs);
        let cfg = ServiceConfig::default()
            .with_max_batch(7)
            .with_flush_deadline(Duration::from_secs(3600));
        let index = replicated(index);
        let (got, stats) = serve(Arc::clone(&index), cfg, &reqs);
        assert_eq!(got, want, "shards = {shards}");
        assert_eq!(stats.completed, 90);
        assert_eq!(
            stats.index,
            index.stats(),
            "ServiceStats surfaces the index's own search counters"
        );
        assert_eq!(
            direct_answers(&index.replica(0).read().expect("replica lock"), &reqs),
            want,
            "shards = {shards}: serving leaves the index answering as before"
        );
        // How many batches ship on size depends on how often the lane was
        // idle when the batcher looked; none waits out the hour.
        assert_eq!(stats.deadline_flushes, 0, "the hour deadline never fires");
        assert_eq!(
            stats.size_flushes + stats.idle_flushes + stats.shutdown_flushes,
            stats.batches,
            "shards = {shards}: every batch has a trigger"
        );
    }
}

#[test]
fn deadline_triggered_service_matches_direct_batches() {
    for shards in [1u32, 2, 4] {
        let (items, index) = build_sharded(420, shards, 2025);
        let reqs = request_sequence(&items, 60);
        let want = direct_answers(&index, &reqs);
        // The size trigger is unreachable (huge target), so every batch
        // ships on an idle lane, the deadline, or the shutdown drain.
        let cfg = ServiceConfig::default()
            .with_max_batch(100_000)
            .with_flush_deadline(Duration::from_millis(2));
        let (got, stats) = serve(replicated(index), cfg, &reqs);
        assert_eq!(got, want, "shards = {shards}");
        assert_eq!(stats.completed, 60);
        assert_eq!(stats.size_flushes, 0, "the size trigger is unreachable");
        assert!(
            stats.deadline_flushes + stats.idle_flushes + stats.shutdown_flushes > 0,
            "an idle lane, the deadline or the drain shipped the work"
        );
    }
}

/// The configuration the benchmark serves under: its batch target is the
/// default cap, and answers still match direct batch calls.
#[test]
fn default_config_service_matches_direct_batches() {
    let (items, index) = build_sharded(500, 2, 2026);
    let reqs = request_sequence(&items, 64);
    let want = direct_answers(&index, &reqs);
    let (got, stats) = serve(replicated(index), ServiceConfig::default(), &reqs);
    assert_eq!(got, want);
    assert_eq!(stats.batch_target, 4096);
    assert_eq!(stats.admitted, 64);
}

#[test]
fn identical_arrival_sequences_produce_identical_device_clocks() {
    // Two fresh-but-identical stacks, the same arrival sequence with one
    // request in flight at a time: batch formation is a pure function of
    // the arrivals and the lane completions, so every batch holds one
    // request and the simulated clocks must agree exactly.
    let run = || {
        let (items, index) = build_sharded(400, 2, 777);
        let index = replicated(index);
        let cfg = ServiceConfig::default()
            .with_max_batch(8)
            .with_flush_deadline(Duration::from_secs(3600));
        let svc = QueryService::start_replicated(Arc::clone(&index), cfg);
        let h = svc.handle();
        let answers: Vec<Vec<Neighbor>> = request_sequence(&items, 56)
            .into_iter()
            .map(|r| {
                let resp = h.submit(r).expect("admitted").wait().expect("answered");
                assert_eq!(resp.latency.batch_size, 1, "one request in flight");
                resp.result.expect("no index error").neighbors()
            })
            .collect();
        assert_eq!(svc.shutdown().deadline_flushes, 0);
        (
            answers,
            index.span_cycles(),
            index.pool().aggregate().cycles_total,
        )
    };
    let (a1, span1, total1) = run();
    let (a2, span2, total2) = run();
    assert_eq!(a1, a2, "answers reproduce");
    assert_eq!(span1, span2, "critical-path cycles reproduce");
    assert_eq!(total1, total2, "total device-time reproduces");
}

#[test]
fn backpressure_rejects_but_never_corrupts() {
    let (items, index) = build_sharded(300, 2, 555);
    let want_one = direct_answers(&index, &request_sequence(&items, 1));
    // A depth-4 queue: the target clamps to the queue depth (a size
    // trigger the queue cannot hold would be unreachable), so batches of 4
    // flush immediately — but the batcher→executor pipeline is bounded
    // and each batch takes real index work to execute, so a tight
    // submission loop outruns the drain and floods bounce off the
    // admission bound.
    let cfg = ServiceConfig::default()
        .with_queue_depth(4)
        .with_max_batch(100_000)
        .with_flush_deadline(Duration::from_millis(50));
    let svc = QueryService::start(index, cfg);
    assert_eq!(svc.batch_target(), 4, "the target clamps to queue depth");
    let h = svc.handle();
    let mut tickets = Vec::new();
    let mut rejected = 0u64;
    for r in request_sequence(&items, 256) {
        match h.submit(r) {
            Ok(t) => tickets.push(t),
            Err(ServiceError::QueueFull { depth }) => {
                assert_eq!(depth, 4);
                rejected += 1;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(rejected > 0, "a flood past depth 4 must shed load");
    // Everything admitted is still answered correctly.
    let first = tickets
        .remove(0)
        .wait()
        .expect("answered")
        .result
        .expect("ok")
        .neighbors();
    assert_eq!(first, want_one[0]);
    for t in tickets {
        t.wait().expect("answered").result.expect("ok");
    }
    let stats = svc.shutdown();
    assert_eq!(stats.rejected, rejected);
    assert_eq!(stats.admitted + stats.rejected, 256);
    assert_eq!(stats.completed, stats.admitted);
    assert!(stats.size_flushes > 0, "depth-clamped target still flushes");
}

/// Robustness: a second thread keeps submitting while `shutdown` runs.
/// Shutdown starts after the submitter has admitted `lead` requests, for a
/// few fixed leads. Every admitted ticket is answered or disconnected, the
/// submitter sees only `Stopped` once the queue closes, and nothing hangs:
/// the whole exchange runs behind a timeout.
#[test]
fn submissions_racing_shutdown_never_hang() {
    for lead in [0usize, 1, 5, 33] {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let (items, index) = build_sharded(300, 2, 556);
            let reqs = request_sequence(&items, 64);
            let svc = QueryService::start(index, ServiceConfig::default().with_max_batch(4));
            let h = svc.handle();
            let (led_tx, led_rx) = std::sync::mpsc::channel();
            let submitter = std::thread::spawn(move || {
                let mut tickets = Vec::new();
                for r in reqs.iter().cycle() {
                    if tickets.len() == lead {
                        led_tx.send(()).expect("the scenario waits for the lead");
                    }
                    match h.submit(r.clone()) {
                        Ok(t) => tickets.push(t),
                        Err(ServiceError::Stopped) => break,
                        Err(ServiceError::QueueFull { .. }) => std::thread::yield_now(),
                        Err(e) => panic!("lead {lead}: unexpected refusal {e}"),
                    }
                }
                let (mut answered, mut disconnected) = (0u64, 0u64);
                for t in tickets {
                    match t.wait() {
                        Ok(r) => {
                            r.result.expect("no index error");
                            answered += 1;
                        }
                        Err(ServiceError::Disconnected) => disconnected += 1,
                        Err(e) => panic!("lead {lead}: unexpected ticket error {e}"),
                    }
                }
                (answered, disconnected)
            });
            led_rx.recv().expect("the submitter reaches its lead");
            let stats = svc.shutdown();
            let outcome = submitter.join().expect("the submitter finishes");
            done_tx.send((stats, outcome)).expect("the test waits");
        });
        let (stats, (answered, disconnected)) = done_rx
            .recv_timeout(Duration::from_secs(120))
            .unwrap_or_else(|e| panic!("lead {lead}: shutdown or a ticket hung ({e})"));
        assert!(stats.admitted >= lead as u64, "lead {lead}");
        assert_eq!(
            answered + disconnected,
            stats.admitted,
            "lead {lead}: every admitted ticket resolves"
        );
        assert_eq!(stats.completed, answered, "lead {lead}: the drain answers");
    }
}

/// The CI soak: ≥10k requests through the microbatcher (release mode;
/// run with `--include-ignored`). Checks conservation (admitted =
/// completed, nothing lost or duplicated), spot-checks answers, and
/// exercises retry-on-backpressure like a real client.
#[test]
#[ignore = "10k-request soak; run in the CI service job (release)"]
fn soak_ten_thousand_requests() {
    const TOTAL: usize = 10_000;
    let data = DatasetKind::Vector.generate(600, 31);
    let pool = DevicePool::rtx_2080_ti(2);
    let index = ShardedGts::build(
        &pool,
        data.items.clone(),
        data.metric,
        GtsParams::default().with_shards(2),
    )
    .expect("build");
    let want_knn = index.batch_knn(&[data.items[5].clone()], 4).expect("knn");
    let cfg = ServiceConfig::default()
        .with_queue_depth(2048)
        .with_max_batch(256)
        .with_flush_deadline(Duration::from_millis(1));
    let svc = QueryService::start(index, cfg);
    let h = svc.handle();
    let mut tickets = Vec::with_capacity(TOTAL);
    for i in 0..TOTAL {
        let req = Request::Knn {
            query: data.items[(i * 7) % data.items.len()].clone(),
            k: 4,
        };
        loop {
            match h.submit(req.clone()) {
                Ok(t) => {
                    tickets.push(t);
                    break;
                }
                Err(ServiceError::QueueFull { .. }) => {
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(e) => panic!("unexpected: {e}"),
            }
        }
    }
    for (i, t) in tickets.into_iter().enumerate() {
        let r = t.wait().expect("answered");
        let ans = r.result.expect("ok").neighbors();
        assert_eq!(ans.len(), 4, "request {i}");
        if (i * 7) % data.items.len() == 5 {
            assert_eq!(ans, want_knn[0], "request {i} answer drifted");
        }
    }
    let stats = svc.shutdown();
    assert_eq!(stats.completed, TOTAL as u64);
    assert_eq!(stats.admitted, TOTAL as u64);
    assert_eq!(stats.queue_wait_us.count(), TOTAL as u64);
    assert!(stats.batches >= (TOTAL / 256) as u64);
    assert!(
        stats.batch_span_cycles.count() >= stats.batches,
        "every batch recorded at least one span sample"
    );
    println!(
        "soak: {} batches (size {} / deadline {} / drain {}), queue-wait p99 ≈ {} us, span p99 ≈ {} cycles",
        stats.batches,
        stats.size_flushes,
        stats.deadline_flushes,
        stats.shutdown_flushes,
        stats.queue_wait_us.quantile(0.99),
        stats.batch_span_cycles.quantile(0.99),
    );
}

// --- tracing invariance (the gts-trace determinism contract) ------------

/// A mixed query + update sequence: the tracing contract must hold across
/// the write path too (epochs, cache-table inserts, broadcast application).
fn mixed_sequence(items: &[Item], n: usize) -> Vec<Request<Item>> {
    (0..n)
        .map(|i| {
            let q = items[(i * 13) % items.len()].clone();
            match i % 5 {
                0 => Request::Range {
                    query: q,
                    radius: 2.0,
                },
                1 | 3 => Request::Knn { query: q, k: 3 },
                2 => Request::Insert { object: q },
                _ => Request::Knn { query: q, k: 6 },
            }
        })
        .collect()
}

/// Run `reqs` through a service over a fresh `shards`-sharded,
/// `replicas`-replicated stack with `lanes` lanes, one request in flight
/// at a time (submit → wait → next), and return everything observable:
/// response results, epochs, final span/total cycles, and the trace
/// determinism projection (empty when tracing is off).
#[allow(clippy::type_complexity)]
fn traced_run(
    shards: u32,
    replicas: u32,
    lanes: usize,
    trace_on: bool,
    n: usize,
) -> (
    Vec<(Result<Reply, ServiceError>, u64)>,
    u64,
    u64,
    Vec<TraceEvent>,
) {
    let data = DatasetKind::Words.generate(360, 909);
    let pool = DevicePool::rtx_2080_ti((shards * replicas) as usize);
    let index = Arc::new(
        ReplicatedShards::build(
            &pool,
            data.items.clone(),
            data.metric,
            GtsParams::default()
                .with_shards(shards)
                .with_replicas(replicas),
        )
        .expect("build"),
    );
    let cfg = ServiceConfig::default()
        .with_max_batch(4)
        .with_flush_deadline(Duration::from_millis(1))
        .with_lanes(lanes)
        .with_tracing(TraceConfig {
            enabled: trace_on,
            ..TraceConfig::default()
        });
    let svc = QueryService::start_replicated(Arc::clone(&index), cfg);
    let h = svc.handle();
    // One request in flight at a time: batch formation (and therefore lane
    // assignment and device interleaving) becomes a pure function of the
    // request sequence, which is what makes event streams comparable.
    let outcomes: Vec<(Result<Reply, ServiceError>, u64)> = mixed_sequence(&data.items, n)
        .into_iter()
        .map(|r| {
            let resp = h.submit(r).expect("admitted").wait().expect("answered");
            (resp.result, resp.epoch)
        })
        .collect();
    let rec = svc.trace().cloned();
    let _ = svc.shutdown();
    let events = rec.map_or_else(Vec::new, |r| r.determinism_projection());
    (
        outcomes,
        index.span_cycles(),
        index.pool().aggregate().cycles_total,
        events,
    )
}

/// Tracing on ⇒ answers, epochs, and simulated cycles bit-identical to
/// tracing off: events observe the clocks, never advance them.
#[test]
fn tracing_changes_no_answer_epoch_or_cycle() {
    for shards in [1u32, 2] {
        let (plain, span_p, total_p, evs_p) = traced_run(shards, 1, 1, false, 30);
        let (traced, span_t, total_t, evs_t) = traced_run(shards, 1, 1, true, 30);
        assert_eq!(plain, traced, "shards = {shards}: answers and epochs");
        assert_eq!(span_p, span_t, "shards = {shards}: critical-path cycles");
        assert_eq!(total_p, total_t, "shards = {shards}: total device cycles");
        assert!(evs_p.is_empty(), "tracing off records nothing");
        assert!(!evs_t.is_empty(), "tracing on records the run");
    }
}

/// For a fixed seed the traced event stream itself reproduces: same kinds,
/// same contexts, same simulated-cycle stamps — across shard and lane
/// counts (2 lanes ride 2 replicas so concurrent lanes own disjoint
/// devices).
#[test]
fn traced_event_streams_reproduce_for_a_fixed_seed() {
    for shards in [1u32, 2] {
        for lanes in [1usize, 2] {
            let replicas = lanes as u32;
            let (o1, s1, t1, e1) = traced_run(shards, replicas, lanes, true, 25);
            let (o2, s2, t2, e2) = traced_run(shards, replicas, lanes, true, 25);
            assert_eq!(o1, o2, "shards={shards} lanes={lanes}: outcomes");
            assert_eq!((s1, t1), (s2, t2), "shards={shards} lanes={lanes}: cycles");
            assert!(
                !e1.is_empty(),
                "shards={shards} lanes={lanes}: events recorded"
            );
            assert_eq!(
                e1, e2,
                "shards={shards} lanes={lanes}: event streams reproduce"
            );
            // The stream covers the whole span hierarchy the README draws.
            for kind in [
                "batch_start",
                "batch_member",
                "lane_batch",
                "level",
                "kernel",
            ] {
                assert!(
                    e1.iter().any(|e| e.kind.name() == kind),
                    "shards={shards} lanes={lanes}: missing {kind} events"
                );
            }
        }
    }
}

/// The rings bound what the recorder keeps, not what it summarises: one
/// seeded run traced with 16-event rings (which overflow) and with
/// 1 << 20-event rings (which do not) gives the same stage histograms, the
/// same event count and the same `gts_stage_cycles` scrape lines.
#[test]
fn ring_capacity_bounds_the_rings_not_the_summary() {
    let run = |ring_capacity: usize| {
        let data = DatasetKind::Words.generate(360, 909);
        let pool = DevicePool::rtx_2080_ti(2);
        let index = Arc::new(
            ReplicatedShards::build(
                &pool,
                data.items.clone(),
                data.metric,
                GtsParams::default().with_shards(2),
            )
            .expect("build"),
        );
        let cfg = ServiceConfig::default()
            .with_max_batch(4)
            .with_flush_deadline(Duration::from_millis(1))
            .with_metrics(true)
            .with_tracing(TraceConfig {
                enabled: true,
                ring_capacity,
                ..TraceConfig::default()
            });
        let svc = QueryService::start_replicated(index, cfg);
        let h = svc.handle();
        // One request in flight at a time, as in `traced_run`.
        for r in mixed_sequence(&data.items, 30) {
            h.submit(r).expect("admitted").wait().expect("answered");
        }
        let stats = svc.shutdown();
        let stage_lines: Vec<String> = stats
            .metrics
            .expect("metrics are on")
            .lines()
            .filter(|l| l.starts_with("gts_stage_cycles"))
            .map(str::to_string)
            .collect();
        (stats.trace.expect("tracing is on"), stage_lines)
    };
    let (small, small_lines) = run(16);
    let (large, large_lines) = run(1 << 20);
    assert!(small.dropped > 0, "16-event rings overflow on this run");
    assert_eq!(large.dropped, 0, "1 << 20-event rings hold the run");
    assert_eq!(small.events, large.events, "every event is counted");
    assert_eq!(small.stages, large.stages, "every span is summarised");
    assert!(!large_lines.is_empty(), "the scrape carries the stages");
    assert_eq!(small_lines, large_lines, "the stage series are identical");
}
