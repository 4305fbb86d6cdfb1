//! Leaf verification: every survivor of the stored-distance filter is
//! evaluated by the early-abandoning `distance_batch_bounded` kernel against
//! its query's radius (MRQ) or current kNN bound (MkNNQ). The kernel is
//! exact whenever it reports a distance and the kNN bound semantics are
//! tie-safe, so answers must equal an exhaustive scan on every metric —
//! through tombstones, shards and two-stage query groups — while the Ukkonen
//! band makes edit-distance verification cheaper than the full DP that a
//! kernel without early abandoning ([`FullWork`]) pays for.

use gts::gpu::DeviceConfig;
use gts::metric::{BatchMetric, Metric, ObjectArena};
use gts::prelude::*;

type Answers = Vec<Vec<Neighbor>>;

/// An [`ItemMetric`] over the same arena whose bounded kernel runs the
/// unbounded one: the same answers and rejections as the early-abandoning
/// kernel, charged the full work of every pair.
#[derive(Clone, Copy)]
struct FullWork(ItemMetric);

impl Metric<Item> for FullWork {
    fn distance(&self, a: &Item, b: &Item) -> f64 {
        self.0.distance(a, b)
    }
    fn work(&self, a: &Item, b: &Item) -> u64 {
        self.0.work(a, b)
    }
    fn name(&self) -> &'static str {
        "full-work"
    }
    fn accepts(&self, obj: &Item) -> bool {
        self.0.accepts(obj)
    }
    fn comparable(&self, a: &Item, b: &Item) -> bool {
        self.0.comparable(a, b)
    }
}

impl BatchMetric<Item> for FullWork {
    fn build_arena(&self, objects: &[Item]) -> Option<ObjectArena> {
        self.0.build_arena(objects)
    }
    fn arena_fits(&self, arena: &ObjectArena, objs: &[Item]) -> bool {
        self.0.arena_fits(arena, objs)
    }
    fn arena_push(&self, arena: &mut ObjectArena, obj: &Item) -> bool {
        self.0.arena_push(arena, obj)
    }
    fn distance_batch(
        &self,
        objects: &[Item],
        arena: Option<&ObjectArena>,
        query: &Item,
        ids: &[u32],
        out: &mut [f64],
    ) -> (u64, u64) {
        self.0.distance_batch(objects, arena, query, ids, out)
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
        let mut full = vec![0.0; ids.len()];
        let charged = self.0.distance_batch(objects, arena, query, ids, &mut full);
        for (slot, d) in out.iter_mut().zip(full) {
            *slot = (d <= bound).then_some(d);
        }
        charged
    }
}

struct Run {
    mrq: Answers,
    knn: Answers,
    search_cycles: u64,
    stats: gts::core::stats::StatsSnapshot,
}

const K: usize = 7;

fn queries(data: &Dataset, n: u32, stride: u32) -> Vec<Item> {
    (0..n).map(|i| data.item(i * stride).clone()).collect()
}

fn run_with<M: BatchMetric<Item>>(data: &Dataset, metric: M, radius: f64) -> Run {
    let dev = Device::rtx_2080_ti();
    let gts = Gts::build(&dev, data.items.clone(), metric, GtsParams::default()).expect("build");
    let queries = queries(data, 40, 11);
    let radii = vec![radius; queries.len()];
    let mark = dev.cycles();
    let mrq = gts.batch_range(&queries, &radii).expect("mrq");
    let knn = gts.batch_knn(&queries, K).expect("knn");
    Run {
        mrq,
        knn,
        search_cycles: dev.cycles() - mark,
        stats: gts.stats(),
    }
}

/// Ground truth by exhaustive scan over the objects not in `removed`.
fn scan(data: &Dataset, queries: &[Item], radius: f64, removed: &[u32]) -> (Answers, Answers) {
    let scan = LinearScan::new(data.items.clone(), data.metric);
    let live = |list: Vec<Neighbor>| -> Vec<Neighbor> {
        list.into_iter()
            .filter(|n| !removed.contains(&n.id))
            .collect()
    };
    let mrq = queries
        .iter()
        .map(|q| live(scan.range_query(q, radius).expect("scan mrq")))
        .collect();
    let knn = queries
        .iter()
        .map(|q| {
            let mut list = live(scan.knn_query(q, K + removed.len()).expect("scan knn"));
            list.truncate(K);
            list
        })
        .collect();
    (mrq, knn)
}

#[test]
fn leaf_verification_matches_scan_and_saves_edit_cycles() {
    let data = DatasetKind::Words.generate(1500, 909);
    let banded = run_with(&data, data.metric, 2.0);
    let full_dp = run_with(&data, FullWork(data.metric), 2.0);
    let (mrq, knn) = scan(&data, &queries(&data, 40, 11), 2.0, &[]);
    assert_eq!(banded.mrq, mrq, "MRQ answers equal the scan");
    assert_eq!(banded.knn, knn, "MkNNQ answers equal the scan");
    assert_eq!(full_dp.mrq, mrq, "the full-work kernel answers the same");
    assert_eq!(full_dp.knn, knn, "the full-work kernel answers the same");
    assert!(
        banded.stats.leaf_abandoned > 0,
        "a selective radius must abandon some verifications"
    );
    assert_eq!(
        banded.stats, full_dp.stats,
        "the same survivors reach the verification kernel and the same ones are rejected"
    );
    assert!(
        banded.search_cycles < full_dp.search_cycles,
        "banded edit DP must shave simulated cycles: {} vs {}",
        banded.search_cycles,
        full_dp.search_cycles
    );
}

#[test]
fn leaf_verification_charges_vector_metrics_full_work() {
    // L2 and angular have no early-abandoning kernel: the bounded path
    // computes full distances and charges full work, so the index and the
    // full-work kernel must agree in answers, counters *and cycles*.
    for (kind, radius) in [(DatasetKind::TLoc, 900.0), (DatasetKind::Vector, 0.4)] {
        let data = kind.generate(1200, 909);
        let arena = run_with(&data, data.metric, radius);
        let fallback = run_with(&data, FullWork(data.metric), radius);
        let (mrq, knn) = scan(&data, &queries(&data, 40, 11), radius, &[]);
        assert_eq!(arena.mrq, mrq, "{kind:?}: MRQ answers equal the scan");
        assert_eq!(arena.knn, knn, "{kind:?}: MkNNQ answers equal the scan");
        assert_eq!(fallback.mrq, mrq, "{kind:?}");
        assert_eq!(fallback.knn, knn, "{kind:?}");
        assert_eq!(arena.stats, fallback.stats, "{kind:?}");
        assert_eq!(
            arena.search_cycles, fallback.search_cycles,
            "{kind:?}: no banding — identical simulated time"
        );
    }
}

#[test]
fn leaf_verification_composes_with_tombstones_shards_and_groups() {
    // Answers must stay equal to the scan with tombstones in the table,
    // through the 2-shard scatter and under two-stage query groups.
    let data = DatasetKind::Words.generate(900, 31);
    let queries = queries(&data, 24, 13);
    let radii = vec![2.0; queries.len()];
    let removed: Vec<u32> = (0..900).step_by(9).collect();
    let want = scan(&data, &queries, 2.0, &removed);

    let footprint = {
        let probe = Gts::build(
            &Device::rtx_2080_ti(),
            data.items.clone(),
            data.metric,
            GtsParams::default(),
        )
        .expect("probe");
        probe.memory_bytes() + data.data_bytes()
    };
    let tight = Device::new(DeviceConfig::rtx_2080_ti().with_memory_bytes(footprint + 8 * 1024));
    let mut single = Gts::build(
        &tight,
        data.items.clone(),
        data.metric,
        GtsParams::default(),
    )
    .expect("build");
    let mut sharded = ShardedGts::build(
        &DevicePool::rtx_2080_ti(2),
        data.items.clone(),
        data.metric,
        GtsParams::default().with_shards(2),
    )
    .expect("build");
    for &id in &removed {
        assert!(single.remove(id).expect("rm"));
        assert!(sharded.remove(id).expect("rm"));
    }
    let got = (
        single.batch_range(&queries, &radii).expect("mrq"),
        single.batch_knn(&queries, K).expect("knn"),
    );
    assert_eq!(got, want, "tombstoned, grouped single index");
    assert!(single.stats().groups_formed > 0, "groups formed");
    assert!(single.stats().leaf_abandoned > 0);
    let got = (
        sharded.batch_range(&queries, &radii).expect("mrq"),
        sharded.batch_knn(&queries, K).expect("knn"),
    );
    assert_eq!(got, want, "tombstoned 2-shard index");
    assert!(sharded.stats().leaf_abandoned > 0);
}
