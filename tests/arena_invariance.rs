//! Arena invariance: the flat-arena batched kernels are a pure layout
//! optimisation, and host-parallel chunked execution is a pure wall-clock
//! optimisation. Searches over the arena path must return **identical**
//! MRQ/MkNNQ answers and counters to the per-pair fallback path (a metric
//! with no flat layout, [`NoArena`]), which accesses boxed `Item` payloads
//! one pair at a time exactly like the original implementation — with
//! identical simulated cycles wherever the two run the same kernel — and
//! runs with any `DeviceConfig::host_threads` setting must be bit-identical
//! to single-threaded runs, cycle counts included.

mod common;

use common::{Answers, NoArena};
use gts::gpu::DeviceStats;
use gts::metric::BatchMetric;
use gts::prelude::*;
use std::sync::Arc;

struct Run {
    build_stats: DeviceStats,
    mrq: Answers,
    knn: Answers,
    search_cycles: u64,
    search_stats: gts::core::stats::StatsSnapshot,
}

fn run_with<M: BatchMetric<Item>>(
    dev: &Arc<Device>,
    data: &Dataset,
    metric: M,
    radius: f64,
) -> Run {
    let gts = Gts::build(dev, data.items.clone(), metric, GtsParams::default()).expect("build");
    let build_stats = dev.stats();
    let queries: Vec<Item> = (0..48u32).map(|i| data.item(i * 7).clone()).collect();
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

/// Whether the per-pair fallback charges what the arena kernels charge.
/// Edit distance is the exception: its arena leaf kernel is the banded DP,
/// the fallback computes (and pays for) the full table.
fn same_work_model(kind: DatasetKind) -> bool {
    kind != DatasetKind::Words
}

fn assert_invariant(kind: DatasetKind, radius: f64) {
    let data = kind.generate(700, 1234);
    let arena = run_with(&Device::rtx_2080_ti(), &data, data.metric, radius);
    let per_pair = run_with(&Device::rtx_2080_ti(), &data, NoArena(data.metric), radius);
    assert_eq!(
        arena.mrq, per_pair.mrq,
        "{kind:?}: MRQ answers must be bit-identical"
    );
    assert_eq!(
        arena.knn, per_pair.knn,
        "{kind:?}: MkNNQ answers must be bit-identical"
    );
    assert_eq!(
        arena.build_stats, per_pair.build_stats,
        "{kind:?}: construction must charge identical cycles/work/kernels"
    );
    assert_eq!(
        arena.search_stats, per_pair.search_stats,
        "{kind:?}: identical pruning/verification counters"
    );
    if same_work_model(kind) {
        assert_eq!(
            arena.search_cycles, per_pair.search_cycles,
            "{kind:?}: search must charge identical cycles"
        );
    } else {
        assert!(
            arena.search_cycles < per_pair.search_cycles,
            "{kind:?}: the banded kernel must undercut the full DP ({} vs {})",
            arena.search_cycles,
            per_pair.search_cycles
        );
    }
}

#[test]
fn words_arena_matches_per_pair_path() {
    assert_invariant(DatasetKind::Words, 2.0);
}

#[test]
fn vector_arena_matches_per_pair_path() {
    assert_invariant(DatasetKind::Vector, 0.35);
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
        run_with(&dev, &data, data.metric, radius)
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

/// Remove one object, stream in eight fresh ones (they stay in the cache
/// table), then search for a fresh object and an indexed one.
fn cache_scan_run<M: BatchMetric<Item>>(
    data: &Dataset,
    metric: M,
    fresh: fn(usize) -> Item,
    radius: f64,
) -> (Answers, Answers, u64) {
    let dev = Device::rtx_2080_ti();
    let mut gts =
        Gts::build(&dev, data.items.clone(), metric, GtsParams::default()).expect("build");
    gts.remove(3).expect("rm");
    for i in 0..8 {
        gts.insert(fresh(i)).expect("ins");
    }
    let queries = vec![fresh(3), data.items[10].clone()];
    let mark = dev.cycles();
    let mrq = gts.batch_range(&queries, &[radius, 2.0]).expect("mrq");
    let knn = gts.batch_knn(&queries, 4).expect("knn");
    (mrq, knn, dev.cycles() - mark)
}

/// Streaming inserts extend the arena in place; the cache scan must find
/// them, and stay identical to the per-pair path's scan. Words checks the
/// text append, T-Loc the vector append with cycles strictly comparable.
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
        let (mrq_a, knn_a, cycles_a) = cache_scan_run(&data, data.metric, fresh, radius);
        let (mrq_b, knn_b, cycles_b) = cache_scan_run(&data, NoArena(data.metric), fresh, radius);
        assert_eq!(mrq_a, mrq_b, "{kind:?}");
        assert_eq!(knn_a, knn_b, "{kind:?}");
        if same_work_model(kind) {
            assert_eq!(
                cycles_a, cycles_b,
                "{kind:?}: cache-scan kernels charge identically"
            );
        } else {
            assert!(cycles_a <= cycles_b, "{kind:?}: {cycles_a} vs {cycles_b}");
        }
        assert!(
            mrq_a[0].iter().any(|n| n.id >= 300),
            "{kind:?}: cached insertions are found through the arena-extended scan"
        );
    }
}
