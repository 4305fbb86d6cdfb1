//! Query-parallel invariance: the unit of host parallelism in the descent
//! engine is a chunk of `QUERY_CHUNK` whole query segments, cut from the
//! frontier alone. So for any `host_threads`, a batch must return the same
//! answers, leave the same `StatsSnapshot`, and charge the device the same
//! cycles, kernel launches and work as the 1-thread run — across batch
//! sizes around the chunk boundary, kNN / range, tombstoned
//! tables, early-abandoning verification, two-stage query groups, and
//! batches in which some queries' frontiers die before the leaves.

use gts::core::stats::StatsSnapshot;
use gts::core::QUERY_CHUNK;
use gts::gpu::DeviceStats;
use gts::prelude::*;

const THREADS: [usize; 4] = [1, 2, 3, 8];
const BATCHES: [usize; 5] = [1, QUERY_CHUNK - 1, QUERY_CHUNK, QUERY_CHUNK + 1, 256];

#[derive(Clone, Copy, Debug)]
struct Scenario {
    kind: DatasetKind,
    n: usize,
    node_capacity: u32,
    radius: f64,
    tombstones: bool,
    /// Squeeze device memory to the index footprint plus this many bytes,
    /// so the two-stage strategy forms query groups.
    squeeze: Option<u64>,
}

/// Everything a run can observably produce, per batch size.
#[derive(Debug, PartialEq)]
struct Outcome {
    answers: Vec<[Vec<Vec<Neighbor>>; 2]>,
    stats: StatsSnapshot,
    device: DeviceStats,
}

/// An object no dataset member is anywhere near: under a small radius its
/// range frontier is pruned away above the leaves.
fn far_query(kind: DatasetKind) -> Item {
    match kind {
        DatasetKind::Words => Item::text("z".repeat(60)),
        _ => Item::vector(vec![1.0e6, 1.0e6]),
    }
}

/// `batch` queries drawn from the dataset, every fifth replaced by the far
/// query (so live and dying query segments interleave within a chunk).
fn queries(sc: Scenario, data: &Dataset, batch: usize) -> Vec<Item> {
    (0..batch)
        .map(|i| {
            if i % 5 == 3 {
                far_query(sc.kind)
            } else {
                data.items[(i * 7) % sc.n].clone()
            }
        })
        .collect()
}

fn build(
    sc: Scenario,
    data: &Dataset,
    threads: usize,
) -> (std::sync::Arc<Device>, Gts<Item, ItemMetric>) {
    let params = GtsParams::default().with_node_capacity(sc.node_capacity);
    let mut cfg = DeviceConfig {
        host_threads: threads,
        ..DeviceConfig::rtx_2080_ti()
    };
    if let Some(slack) = sc.squeeze {
        let probe = Device::rtx_2080_ti();
        let idx = Gts::build(&probe, data.items.clone(), data.metric, params).expect("probe");
        cfg = cfg.with_memory_bytes(idx.memory_bytes() + data.data_bytes() + slack);
    }
    let dev = Device::new(cfg);
    let mut gts = Gts::build(&dev, data.items.clone(), data.metric, params).expect("build");
    if sc.tombstones {
        for id in (0..sc.n as u32).step_by(9) {
            gts.remove(id).expect("remove");
        }
    }
    (dev, gts)
}

fn run(sc: Scenario, data: &Dataset, threads: usize) -> Outcome {
    let (dev, gts) = build(sc, data, threads);
    let answers = BATCHES
        .iter()
        .map(|&batch| {
            let qs = queries(sc, data, batch);
            let radii = vec![sc.radius; batch];
            [
                gts.batch_knn(&qs, 8).expect("knn"),
                gts.batch_range(&qs, &radii).expect("range"),
            ]
        })
        .collect();
    Outcome {
        answers,
        stats: gts.stats(),
        device: dev.stats(),
    }
}

fn assert_thread_invariant(sc: Scenario) {
    let data = sc.kind.generate(sc.n, 99);
    let single = run(sc, &data, THREADS[0]);
    if sc.squeeze.is_some() {
        assert!(
            single.stats.groups_formed > 0,
            "{sc:?}: query groups formed"
        );
    }
    if sc.kind == DatasetKind::Words {
        assert!(single.stats.leaf_abandoned > 0, "{sc:?}: kernel abandoned");
    }
    for &threads in &THREADS[1..] {
        let multi = run(sc, &data, threads);
        for (b, (want, got)) in single.answers.iter().zip(&multi.answers).enumerate() {
            let batch = BATCHES[b];
            for (kind, (want, got)) in ["kNN", "range"].iter().zip(want.iter().zip(got)) {
                assert_eq!(
                    want, got,
                    "{sc:?}: {kind} answers, batch {batch}, {threads} threads"
                );
            }
        }
        assert_eq!(
            single.stats, multi.stats,
            "{sc:?}: counters, {threads} threads"
        );
        assert_eq!(
            single.device, multi.device,
            "{sc:?}: cycles / kernels / work, {threads} threads"
        );
    }
}

fn scenarios(kind: DatasetKind, n: usize, node_capacity: u32, radius: f64) -> Vec<Scenario> {
    [false, true]
        .into_iter()
        .map(|tombstones| Scenario {
            kind,
            n,
            node_capacity,
            radius,
            tombstones,
            squeeze: None,
        })
        .collect()
}

#[test]
fn tloc_batches_are_thread_count_invariant() {
    for sc in scenarios(DatasetKind::TLoc, 3_000, 6, 1.0) {
        assert_thread_invariant(sc);
    }
}

#[test]
fn words_batches_are_thread_count_invariant() {
    for sc in scenarios(DatasetKind::Words, 600, 5, 2.0) {
        assert_thread_invariant(sc);
    }
}

/// Memory squeezed until the frontier overruns the per-layer bound: the
/// groups run one after another, each verifying its own leaf segment, and
/// kNN groups share the pools — all of it through the chunk dispatcher.
#[test]
fn two_stage_groups_are_thread_count_invariant() {
    for tombstones in [false, true] {
        assert_thread_invariant(Scenario {
            kind: DatasetKind::TLoc,
            n: 3_000,
            node_capacity: 20,
            radius: 1.0,
            tombstones,
            squeeze: Some(96 * 1024),
        });
    }
}

/// The dying queries of the batches above really do die above the leaves:
/// alone in a batch, they touch no leaf row at all — and interleaved with
/// live queries they still come back empty while their neighbours do not.
#[test]
fn dead_frontiers_leave_their_chunk_mates_alone() {
    for sc in [
        scenarios(DatasetKind::TLoc, 3_000, 6, 1.0)[0],
        scenarios(DatasetKind::Words, 600, 5, 2.0)[0],
    ] {
        let data = sc.kind.generate(sc.n, 99);
        let (_dev, gts) = build(sc, &data, 2);
        let dead = vec![far_query(sc.kind); 2 * QUERY_CHUNK + 1];
        let answers = gts
            .batch_range(&dead, &vec![sc.radius; dead.len()])
            .expect("range");
        assert!(answers.iter().all(Vec::is_empty));
        let s = gts.stats();
        assert_eq!(s.leaf_verified + s.leaf_filtered, 0, "{sc:?}: no leaf row");

        let mixed = queries(sc, &data, 4 * QUERY_CHUNK);
        let answers = gts
            .batch_range(&mixed, &vec![sc.radius; mixed.len()])
            .expect("range");
        for (i, a) in answers.iter().enumerate() {
            if i % 5 == 3 {
                assert!(a.is_empty(), "{sc:?}: far query {i} has no hits");
            } else {
                let own = ((i * 7) % sc.n) as u32;
                assert!(
                    a.iter().any(|n| n.id == own),
                    "{sc:?}: query {i} finds itself"
                );
            }
        }
    }
}
