//! Streaming updates through the service: the linearizability harness.
//!
//! Seeded random mixed streams of queries (`Range`/`Knn`) and updates
//! (`Insert`/`Remove`/`BatchUpdate`) are pushed through the online query
//! service one request at a time — the shape real traffic arrives in —
//! over every combination of shards ∈ {1, 2} × lanes ∈ {1, 2} (replicas =
//! lanes). The contract under test is the exactness half of the paper's
//! update story (§4.4) lifted to the serving layer:
//!
//! * **serialized semantics** — every response (the `Reply` AND its epoch
//!   stamp) is bit-identical to replaying the same requests against a
//!   single [`Gts`] in admission order, whatever the batcher did:
//!   coalescing, deadline flushes, round-robin lane dealing, broadcast
//!   update application;
//! * **monotone epochs** — each update advances the epoch by exactly one
//!   (no-op removes included); a query's stamp counts exactly the updates
//!   admitted before it;
//! * **replica convergence** — after shutdown every replica reports the
//!   same epoch and serializes to a bit-identical snapshot.

use gts::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

const BASE: usize = 240;

/// A seeded mixed stream: ~40% updates (inserts, removes — double removes
/// included — and small batch updates), the rest range/kNN queries.
/// Removes only ever target ids already assigned at that point in the
/// stream, so the stream is valid under any serialized replay.
fn mixed_requests(items: &[Item], n: usize, seed: u64) -> Vec<Request<Item>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut assigned = items.len() as u32;
    (0..n)
        .map(|i| {
            let fresh = |rng: &mut StdRng, salt: u64| {
                let base = rng.gen_range(0..items.len());
                gts::metric::gen::perturb(&items[base], seed ^ (i as u64 * 131) ^ salt)
            };
            match rng.gen_range(0..10u8) {
                0 | 1 => {
                    let object = fresh(&mut rng, 0);
                    assigned += 1;
                    Request::Insert { object }
                }
                2 => Request::Remove {
                    id: rng.gen_range(0..assigned),
                },
                3 => {
                    let insertions = vec![fresh(&mut rng, 7), fresh(&mut rng, 13)];
                    let a = rng.gen_range(0..assigned);
                    let b = rng.gen_range(0..assigned);
                    let mut deletions = vec![a];
                    if b != a {
                        deletions.push(b);
                    }
                    assigned += insertions.len() as u32;
                    Request::BatchUpdate {
                        insertions,
                        deletions,
                    }
                }
                4..=6 => Request::Range {
                    query: items[rng.gen_range(0..items.len())].clone(),
                    radius: 2.0,
                },
                _ => Request::Knn {
                    query: items[rng.gen_range(0..items.len())].clone(),
                    k: 5,
                },
            }
        })
        .collect()
}

/// The serialized oracle: replay the stream against a single [`Gts`] in
/// admission order, computing the expected `(Reply, epoch)` per request.
/// Every update advances the epoch by one and its own application is
/// included in its stamp; a query is stamped with the updates before it.
fn oracle_replay(items: &[Item], metric: ItemMetric, reqs: &[Request<Item>]) -> Vec<(Reply, u64)> {
    let dev = Device::rtx_2080_ti();
    let mut gts =
        Gts::build(&dev, items.to_vec(), metric, GtsParams::default()).expect("oracle build");
    // Shadow live flags over the ever-growing id space: ids are assigned
    // sequentially and never reused, matching the sharded global ids.
    let mut live = vec![true; items.len()];
    let mut epoch = 0u64;
    reqs.iter()
        .map(|r| match r {
            Request::Range { query, radius } => (
                Reply::Neighbors(gts.range_query(query, *radius).expect("oracle mrq")),
                epoch,
            ),
            Request::Knn { query, k } => (
                Reply::Neighbors(gts.knn_query(query, *k).expect("oracle knn")),
                epoch,
            ),
            Request::Insert { object } => {
                epoch += 1;
                let id = gts.insert(object.clone()).expect("oracle insert");
                assert_eq!(id as usize, live.len(), "sequential ids");
                live.push(true);
                (
                    Reply::Update(UpdateAck {
                        assigned: vec![id],
                        removed: 0,
                    }),
                    epoch,
                )
            }
            Request::Remove { id } => {
                epoch += 1;
                let did = gts.remove(*id).expect("oracle remove");
                assert_eq!(did, live[*id as usize], "oracle live-flag drift");
                live[*id as usize] = false;
                (
                    Reply::Update(UpdateAck {
                        assigned: Vec::new(),
                        removed: usize::from(did),
                    }),
                    epoch,
                )
            }
            Request::BatchUpdate {
                insertions,
                deletions,
            } => {
                epoch += 1;
                let first = live.len() as u32;
                let assigned: Vec<u32> = (first..first + insertions.len() as u32).collect();
                let removed = deletions.iter().filter(|&&d| live[d as usize]).count();
                gts.batch_update(insertions.clone(), deletions)
                    .expect("oracle batch");
                live.resize(live.len() + insertions.len(), true);
                for &d in deletions {
                    live[d as usize] = false;
                }
                (Reply::Update(UpdateAck { assigned, removed }), epoch)
            }
        })
        .collect()
}

/// Drive one (shards, lanes) configuration and assert the full contract.
fn check(shards: u32, lanes: usize, requests: usize, seed: u64) {
    let data = DatasetKind::Words.generate(BASE, seed);
    let reqs = mixed_requests(&data.items, requests, seed ^ 0xA5A5);
    let want = oracle_replay(&data.items, data.metric, &reqs);
    let n_updates = reqs.iter().filter(|r| r.is_update()).count() as u64;
    assert!(n_updates > 0, "the stream must exercise the update path");

    let replicas = lanes as u32;
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
        .with_queue_depth(1024)
        .with_max_batch(4)
        .with_flush_deadline(Duration::from_millis(1))
        .with_lanes(lanes);
    let svc = QueryService::start_replicated(Arc::clone(&index), cfg);
    let h = svc.handle();
    let mut tickets = Vec::with_capacity(reqs.len());
    for r in &reqs {
        loop {
            match h.submit(r.clone()) {
                Ok(t) => {
                    tickets.push(t);
                    break;
                }
                Err(ServiceError::QueueFull { .. }) => {
                    std::thread::sleep(Duration::from_micros(100));
                }
                Err(e) => panic!("submit: {e}"),
            }
        }
    }
    for (i, (t, (want_reply, want_epoch))) in tickets.into_iter().zip(&want).enumerate() {
        let r = t.wait().expect("every request is answered");
        let got = r.result.expect("no typed error in a fault-free run");
        assert_eq!(
            got, *want_reply,
            "request {i} reply drifted ({shards} shards, {lanes} lanes)"
        );
        assert_eq!(
            r.epoch, *want_epoch,
            "request {i} epoch drifted ({shards} shards, {lanes} lanes)"
        );
    }

    let stats = svc.shutdown();
    assert_eq!(stats.completed, reqs.len() as u64, "zero lost");
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.updates_applied, n_updates);
    assert_eq!(stats.epoch, n_updates, "final epoch counts every update");

    // Replica convergence: same epoch, bit-identical serialized state.
    let first = index.replica(0).read().expect("lock");
    assert_eq!(first.epoch(), n_updates);
    let snap = first.snapshot();
    drop(first);
    for r in 1..replicas as usize {
        let replica = index.replica(r).read().expect("lock");
        assert_eq!(replica.epoch(), n_updates, "replica {r} epoch");
        assert_eq!(replica.snapshot(), snap, "replica {r} snapshot drifted");
    }
}

#[test]
fn streaming_updates_match_the_serialized_oracle() {
    for shards in [1u32, 2] {
        for lanes in [1usize, 2] {
            for seed in [0x57_01u64, 0x57_02] {
                check(shards, lanes, 140, seed);
            }
        }
    }
}

/// The CI variant (release; run with `--include-ignored`): a longer stream
/// on the largest configuration.
#[test]
#[ignore = "long streaming soak; run in the CI streaming job (release)"]
fn streaming_updates_long_stream() {
    check(2, 2, 1_200, 0x57_10);
}
