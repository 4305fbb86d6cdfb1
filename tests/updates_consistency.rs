//! Update-path consistency: randomized insert/delete interleavings against
//! a shadow brute-force oracle, for GTS and every dynamic baseline.

use gts::metric::Metric as _;
use gts::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Shadow oracle: all live objects with their ids.
struct Oracle {
    items: Vec<Item>,
    live: Vec<bool>,
    metric: ItemMetric,
}

impl Oracle {
    fn range(&self, q: &Item, r: f64) -> Vec<Neighbor> {
        let mut v: Vec<Neighbor> = self
            .items
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.live[i])
            .filter_map(|(i, o)| {
                let d = self.metric.distance(q, o);
                (d <= r).then_some(Neighbor::new(i as u32, d))
            })
            .collect();
        gts::metric::index::sort_neighbors(&mut v);
        v
    }

    fn knn(&self, q: &Item, k: usize) -> Vec<Neighbor> {
        let mut v: Vec<Neighbor> = self
            .items
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.live[i])
            .map(|(i, o)| Neighbor::new(i as u32, self.metric.distance(q, o)))
            .collect();
        gts::metric::index::sort_neighbors(&mut v);
        v.truncate(k);
        v
    }
}

fn run_mixed_workload<I>(mut idx: I, data: &Dataset, seed: u64, ops: usize, radius: f64)
where
    I: DynamicIndex<Item>,
{
    let mut oracle = Oracle {
        items: data.items.clone(),
        live: vec![true; data.len()],
        metric: data.metric,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    for step in 0..ops {
        match rng.gen_range(0..3u8) {
            0 => {
                // Insert a perturbed copy of an existing object.
                let base = rng.gen_range(0..oracle.items.len() as u32);
                let obj =
                    gts::metric::gen::perturb(&oracle.items[base as usize], seed + step as u64);
                let id = idx.insert(obj.clone()).expect("insert");
                assert_eq!(id as usize, oracle.items.len(), "ids must be sequential");
                oracle.items.push(obj);
                oracle.live.push(true);
            }
            1 => {
                let victim = rng.gen_range(0..oracle.items.len() as u32);
                let did = idx.remove(victim).expect("remove");
                assert_eq!(
                    did, oracle.live[victim as usize],
                    "remove({victim}) disagreed with oracle at step {step}"
                );
                oracle.live[victim as usize] = false;
            }
            _ => {
                let q = oracle.items[rng.gen_range(0..oracle.items.len())].clone();
                let got = idx.range_query(&q, radius).expect("query");
                let want = oracle.range(&q, radius);
                assert_eq!(got, want, "MRQ divergence at step {step}");
                // kNN must also respect deletions — including deleted
                // objects that serve as internal pivots/centres (ids may
                // differ at tie boundaries; distances must match).
                let got = idx.knn_query(&q, 6).expect("knn");
                let want = oracle.knn(&q, 6);
                assert_eq!(got.len(), want.len(), "kNN size at step {step}");
                for (g, w) in got.iter().zip(&want) {
                    assert!(
                        (g.dist - w.dist).abs() < 1e-9,
                        "kNN divergence at step {step}: {} vs {}",
                        g.dist,
                        w.dist
                    );
                    assert!(
                        oracle.live[g.id as usize],
                        "returned tombstoned id {} at step {step}",
                        g.id
                    );
                }
            }
        }
    }
}

/// Deleting an object that serves as the *root pivot* must remove it from
/// kNN answers while keeping pruning sound (regression test for the
/// tombstoned-pivot bound bug).
#[test]
fn deleting_a_pivot_object_is_safe() {
    let data = DatasetKind::TLoc.generate(400, 71);
    let dev = Device::rtx_2080_ti();
    let mut gts =
        Gts::build(&dev, data.items.clone(), data.metric, GtsParams::default()).expect("build");
    // Delete a broad swath so internal pivots are certainly hit.
    for id in 0..200u32 {
        gts.remove(id).expect("rm");
    }
    let oracle = Oracle {
        items: data.items.clone(),
        live: (0..400).map(|i| i >= 200).collect(),
        metric: data.metric,
    };
    for qi in [0u32, 123, 399] {
        let q = data.item(qi).clone();
        let got = gts.knn_query(&q, 10).expect("knn");
        let want = oracle.knn(&q, 10);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert!((g.dist - w.dist).abs() < 1e-9, "{} vs {}", g.dist, w.dist);
            assert!(g.id >= 200, "tombstoned id {} returned", g.id);
        }
    }
}

#[test]
fn gts_randomized_updates_words() {
    let data = DatasetKind::Words.generate(300, 31);
    let dev = Device::rtx_2080_ti();
    // Small cache: several rebuilds during the workload.
    let idx = Gts::build(
        &dev,
        data.items.clone(),
        data.metric,
        GtsParams::default().with_cache_capacity(256),
    )
    .expect("build");
    run_mixed_workload(idx, &data, 1, 120, 2.0);
}

#[test]
fn gts_randomized_updates_tloc() {
    let data = DatasetKind::TLoc.generate(500, 33);
    let dev = Device::rtx_2080_ti();
    let idx =
        Gts::build(&dev, data.items.clone(), data.metric, GtsParams::default()).expect("build");
    run_mixed_workload(idx, &data, 2, 120, 0.8);
}

#[test]
fn bst_randomized_updates() {
    let data = DatasetKind::TLoc.generate(300, 35);
    run_mixed_workload(
        Bst::build(data.items.clone(), data.metric),
        &data,
        3,
        90,
        0.8,
    );
}

#[test]
fn mvpt_randomized_updates() {
    let data = DatasetKind::Words.generate(250, 37);
    run_mixed_workload(
        Mvpt::build(data.items.clone(), data.metric),
        &data,
        4,
        90,
        2.0,
    );
}

#[test]
fn egnat_randomized_updates() {
    let data = DatasetKind::TLoc.generate(300, 39);
    let idx = Egnat::build(data.items.clone(), data.metric).expect("build");
    run_mixed_workload(idx, &data, 5, 90, 0.8);
}

#[test]
fn gpu_table_randomized_updates() {
    let data = DatasetKind::Vector.generate(200, 41);
    let dev = Device::rtx_2080_ti();
    let idx = GpuTable::new(&dev, data.items.clone(), data.metric).expect("new");
    run_mixed_workload(idx, &data, 6, 80, 0.2);
}

#[test]
fn lbpg_randomized_updates() {
    let data = DatasetKind::TLoc.generate(250, 43);
    let dev = Device::rtx_2080_ti();
    let idx = LbpgTree::build(&dev, data.items.clone(), data.metric).expect("build");
    run_mixed_workload(idx, &data, 7, 40, 0.8);
}

/// A snapshot taken mid-stream carries its update epoch: restore resumes
/// the non-zero count instead of rewinding to 0, and a service stood up
/// over the restored index answers bit-identically — results AND epoch
/// stamps — to one over the original.
#[test]
fn snapshot_restore_resumes_epoch_and_serves_identically() {
    let data = DatasetKind::Words.generate(300, 47);
    let pool = DevicePool::rtx_2080_ti(2);
    let mut index = ShardedGts::build(
        &pool,
        data.items.clone(),
        data.metric,
        GtsParams::default().with_shards(2),
    )
    .expect("build");
    // Five applied updates: four inserts and one remove.
    let mut store = data.items.clone();
    for i in 0..4u64 {
        let obj = gts::metric::gen::perturb(&data.items[(i as usize) * 31], 47 + i);
        index.insert(obj.clone()).expect("insert");
        store.push(obj);
    }
    assert!(index.remove(5).expect("remove"));
    assert_eq!(index.epoch(), 5, "every update advanced the epoch");

    let bytes = index.snapshot();
    let restored = ShardedGts::restore(&DevicePool::rtx_2080_ti(2), store, data.metric, &bytes)
        .expect("restore");
    assert_eq!(restored.epoch(), 5, "restore resumes the epoch, not zero");

    // The same mixed stream — queries, one more update, queries after it —
    // through services over both. Epoch stamps must agree too: the
    // restored service keeps counting from 5.
    let mut reqs: Vec<Request<Item>> = (0..12)
        .map(|i| Request::Knn {
            query: data.items[(i * 13) % 300].clone(),
            k: 4,
        })
        .collect();
    reqs.push(Request::Remove { id: 6 });
    reqs.extend((0..6).map(|i| Request::Range {
        query: data.items[(i * 29) % 300].clone(),
        radius: 2.0,
    }));
    let serve = |idx: ShardedGts<Item, ItemMetric>| -> Vec<(Result<Reply, ServiceError>, u64)> {
        let cfg = ServiceConfig::default()
            .with_max_batch(4)
            .with_flush_deadline(Duration::from_millis(1));
        let svc = QueryService::start(idx, cfg);
        let h = svc.handle();
        let tickets: Vec<Ticket> = reqs
            .iter()
            .map(|r| h.submit(r.clone()).expect("admitted"))
            .collect();
        let stats = svc.shutdown();
        assert_eq!(stats.completed, reqs.len() as u64);
        tickets
            .into_iter()
            .map(|t| {
                let r = t.wait().expect("answered");
                (r.result, r.epoch)
            })
            .collect()
    };
    let original = serve(index);
    let from_snapshot = serve(restored);
    assert_eq!(original[0].1, 5, "queries before the update are stamped 5");
    assert_eq!(
        original.last().expect("answers").1,
        6,
        "the served remove advanced the resumed epoch"
    );
    assert_eq!(
        original, from_snapshot,
        "the restored service serves identically, epochs included"
    );
}

#[test]
fn gts_rebuild_count_is_bounded_by_cache_budget() {
    let data = DatasetKind::Words.generate(400, 45);
    let dev = Device::rtx_2080_ti();
    let mut idx = Gts::build(
        &dev,
        data.items.clone(),
        data.metric,
        GtsParams::default().with_cache_capacity(4 * 1024),
    )
    .expect("build");
    for i in 0..100u64 {
        idx.insert(Item::text(format!("w{i}"))).expect("insert");
    }
    // ~10 B per cached word + id overhead -> at most a handful of rebuilds.
    assert!(
        idx.rebuild_count() <= 3,
        "too many rebuilds: {}",
        idx.rebuild_count()
    );
    assert_eq!(idx.len(), 500);
}
