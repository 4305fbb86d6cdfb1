//! Arena invariance: the flat-arena batched kernels are a pure layout
//! optimisation, and host-parallel chunked execution is a pure wall-clock
//! optimisation. Searches over the arena must return **exactly** the
//! MRQ/MkNNQ answers of the per-pair reference — [`Metric::distance`] over
//! the boxed `Item` payloads, one pair at a time — and runs with any
//! `DeviceConfig::host_threads` setting must be bit-identical to
//! single-threaded runs, cycle counts included.

use gts::gpu::DeviceStats;
use gts::metric::index::sort_neighbors;
use gts::metric::Metric;
use gts::prelude::*;
use std::sync::Arc;

type Answers = Vec<Vec<Neighbor>>;

struct Run {
    build_stats: DeviceStats,
    mrq: Answers,
    knn: Answers,
    search_cycles: u64,
    search_stats: gts::core::stats::StatsSnapshot,
}

fn queries(data: &Dataset) -> Vec<Item> {
    (0..48u32).map(|i| data.item(i * 7).clone()).collect()
}

fn run_with(dev: &Arc<Device>, data: &Dataset, radius: f64) -> Run {
    let gts =
        Gts::build(dev, data.items.clone(), data.metric, GtsParams::default()).expect("build");
    let build_stats = dev.stats();
    let queries = queries(data);
    let radii = vec![radius; queries.len()];
    let mark = dev.cycles();
    let mrq = gts.batch_range(&queries, &radii).expect("mrq");
    let knn = gts.batch_knn(&queries, 6).expect("knn");
    let search_cycles = dev.cycles() - mark;
    Run {
        build_stats,
        mrq,
        knn,
        search_cycles,
        search_stats: gts.stats(),
    }
}

/// The per-pair reference over the live objects of `store` (every id not
/// in `dead`): each query's objects within its own radius in `radii`, and
/// its `k` nearest, in canonical `(dist, id)` order.
fn per_pair(
    store: &[Item],
    metric: ItemMetric,
    dead: &[u32],
    queries: &[Item],
    radii: &[f64],
    k: usize,
) -> (Answers, Answers) {
    let all = |q: &Item| -> Vec<Neighbor> {
        let mut row: Vec<Neighbor> = (0..store.len() as u32)
            .filter(|id| !dead.contains(id))
            .map(|id| Neighbor::new(id, metric.distance(q, &store[id as usize])))
            .collect();
        sort_neighbors(&mut row);
        row
    };
    let mrq = queries
        .iter()
        .zip(radii)
        .map(|(q, &r)| all(q).into_iter().filter(|n| n.dist <= r).collect())
        .collect();
    let knn = queries
        .iter()
        .map(|q| all(q).into_iter().take(k).collect())
        .collect();
    (mrq, knn)
}

fn assert_matches_per_pair(kind: DatasetKind, radius: f64) {
    let data = kind.generate(700, 1234);
    let run = run_with(&Device::rtx_2080_ti(), &data, radius);
    let queries = queries(&data);
    let radii = vec![radius; queries.len()];
    let (mrq, knn) = per_pair(&data.items, data.metric, &[], &queries, &radii, 6);
    assert_eq!(run.mrq, mrq, "{kind:?}: MRQ answers must be bit-identical");
    assert_eq!(
        run.knn, knn,
        "{kind:?}: MkNNQ answers must be bit-identical"
    );
}

#[test]
fn words_arena_matches_per_pair_path() {
    assert_matches_per_pair(DatasetKind::Words, 2.0);
}

#[test]
fn vector_arena_matches_per_pair_path() {
    assert_matches_per_pair(DatasetKind::Vector, 0.35);
}

/// Thread-count invariance: `host_threads` may change wall-clock only.
/// The dataset is sized so id blocks exceed the chunking threshold
/// (2 × `BATCH_CHUNK` pairs) and the parallel dispatch path actually runs;
/// answers, device counters, and search cycle counts must be bit-identical
/// between a single-threaded run and a many-threaded run.
fn assert_thread_invariant(kind: DatasetKind, radius: f64) {
    let data = kind.generate(6_000, 1234);
    let on_threads = |host_threads: usize| {
        let dev = Device::new(DeviceConfig {
            host_threads,
            ..DeviceConfig::rtx_2080_ti()
        });
        run_with(&dev, &data, radius)
    };
    let single = on_threads(1);
    for threads in [3usize, 8] {
        let multi = on_threads(threads);
        assert_eq!(
            single.mrq, multi.mrq,
            "{kind:?}: MRQ answers must not depend on host_threads={threads}"
        );
        assert_eq!(
            single.knn, multi.knn,
            "{kind:?}: MkNNQ answers must not depend on host_threads={threads}"
        );
        assert_eq!(
            single.build_stats, multi.build_stats,
            "{kind:?}: construction counters must not depend on host_threads={threads}"
        );
        assert_eq!(
            single.search_cycles, multi.search_cycles,
            "{kind:?}: search cycles must not depend on host_threads={threads}"
        );
        assert_eq!(
            single.search_stats, multi.search_stats,
            "{kind:?}: pruning counters must not depend on host_threads={threads}"
        );
    }
}

#[test]
fn words_thread_count_invariance() {
    assert_thread_invariant(DatasetKind::Words, 2.0);
}

#[test]
fn vector_thread_count_invariance() {
    assert_thread_invariant(DatasetKind::Vector, 0.35);
}

/// The singular-query API is the batched descent engine run on a batch of
/// one — there is no separate single-query descent left to drift. Answers
/// *and simulated cycles* of `range_query`/`knn_query` must equal the
/// batch-of-one calls exactly (two identical indexes on two identical
/// devices, so the cycle comparison is independent of call order).
#[test]
fn single_query_is_a_batch_of_one_through_the_engine() {
    let data = DatasetKind::Words.generate(800, 4321);
    let build = || {
        let dev = Device::rtx_2080_ti();
        let gts =
            Gts::build(&dev, data.items.clone(), data.metric, GtsParams::default()).expect("build");
        (dev, gts)
    };
    let (dev_single, single) = build();
    let (dev_batch, batch) = build();
    assert_eq!(dev_single.stats(), dev_batch.stats(), "identical builds");
    let q = &data.items[17];

    let mark = dev_single.cycles();
    let want_range = single.range_query(q, 2.0).expect("range");
    let single_range_cycles = dev_single.cycles() - mark;
    let mark = dev_batch.cycles();
    let got_range = batch
        .batch_range(std::slice::from_ref(q), &[2.0])
        .expect("batch range")
        .pop()
        .expect("one answer");
    assert_eq!(got_range, want_range, "range answers equal batch-of-one");
    assert_eq!(
        dev_batch.cycles() - mark,
        single_range_cycles,
        "range cycles equal batch-of-one"
    );

    let mark = dev_single.cycles();
    let want_knn = single.knn_query(q, 6).expect("knn");
    let single_knn_cycles = dev_single.cycles() - mark;
    let mark = dev_batch.cycles();
    let got_knn = batch
        .batch_knn(std::slice::from_ref(q), 6)
        .expect("batch knn")
        .pop()
        .expect("one answer");
    assert_eq!(got_knn, want_knn, "knn answers equal batch-of-one");
    assert_eq!(
        dev_batch.cycles() - mark,
        single_knn_cycles,
        "knn cycles equal batch-of-one"
    );
}

/// Streaming inserts extend the arena in place; the cache scan must find
/// them and answer exactly as the per-pair reference over the grown store.
/// Words checks the text append, T-Loc the vector append.
#[test]
fn updates_preserve_invariance_through_the_cache_scan() {
    type Fresh = fn(usize) -> Item;
    let cases: [(DatasetKind, Fresh, f64); 2] = [
        (
            DatasetKind::Words,
            |i| Item::text(format!("inserted{i}")),
            1.0,
        ),
        (
            DatasetKind::TLoc,
            |i| Item::vector(vec![1e5 + i as f32, -1e5]),
            2.0,
        ),
    ];
    for (kind, fresh, radius) in cases {
        let data = kind.generate(300, 77);
        let mut gts = Gts::build(
            &Device::rtx_2080_ti(),
            data.items.clone(),
            data.metric,
            GtsParams::default(),
        )
        .expect("build");
        let mut store = data.items.clone();
        gts.remove(3).expect("rm");
        for i in 0..8 {
            gts.insert(fresh(i)).expect("ins");
            store.push(fresh(i));
        }
        assert_eq!(gts.cache_len(), 8, "{kind:?}: the insertions stay cached");
        let queries = vec![fresh(3), data.items[10].clone()];
        let radii = [radius, 2.0];
        let mrq = gts.batch_range(&queries, &radii).expect("mrq");
        let knn = gts.batch_knn(&queries, 4).expect("knn");
        let want = per_pair(&store, data.metric, &[3], &queries, &radii, 4);
        assert_eq!((mrq, knn), want, "{kind:?}");
        assert!(
            want.0[0].iter().any(|n| n.id >= 300),
            "{kind:?}: a cached insertion is within range of the first query"
        );
    }
}
