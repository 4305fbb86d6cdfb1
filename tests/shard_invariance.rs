//! Shard invariance: a [`ShardedGts`] must be a pure execution-topology
//! change. For any shard count, batched MRQ and MkNNQ answers must be
//! **bit-identical** to the single-device [`Gts`] — including tie-heavy
//! datasets, where the canonical `(distance, id)` tie-break is the only
//! thing standing between "exact" and "bit-identical". Updates route to
//! the owning shard, and an overflow rebuild on one shard must leave every
//! other shard's device cycle counter untouched.
//!
//! This suite also pins down the descent itself — the recursive level loop
//! behind the batch searches must reproduce the seed implementation's
//! monolithic loops, asserted against a checked-in fingerprint (answer
//! hashes, simulated cycle counts, and search counters captured from the
//! seed implementation; the two edit-distance cycle counts were re-recorded
//! once, when leaf verification started charging the banded DP, and the kNN
//! counts once, when exact kNN started seeding its pools before the first
//! prune).

use gts::prelude::*;

const SHARD_SWEEP: [u32; 3] = [1, 2, 4];

/// FNV-1a over every `(query, id, dist-bits)` triple — the canonical-order
/// answer fingerprint the pre-refactor snapshot was taken with.
fn hash_answers(lists: &[Vec<Neighbor>]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for (q, list) in lists.iter().enumerate() {
        eat(&(q as u64).to_le_bytes());
        for n in list {
            eat(&n.id.to_le_bytes());
            eat(&n.dist.to_bits().to_le_bytes());
        }
    }
    h
}

fn words(n: usize, seed: u64) -> (Vec<Item>, ItemMetric) {
    let d = DatasetKind::Words.generate(n, seed);
    (d.items, d.metric)
}

/// A dataset where ties dominate: every word appears three times, so
/// distance-0 duplicates and k-boundary ties are everywhere, and the
/// duplicates land on *different* shards under round-robin.
fn tie_heavy(n: usize, seed: u64) -> (Vec<Item>, ItemMetric) {
    let base = DatasetKind::Words.generate(n.div_ceil(3), seed).items;
    let items: Vec<Item> = (0..n).map(|i| base[i % base.len()].clone()).collect();
    (items, ItemMetric::Edit)
}

fn assert_invariant(label: &str, items: &[Item], metric: ItemMetric) {
    let single = Gts::build(
        &Device::rtx_2080_ti(),
        items.to_vec(),
        metric,
        GtsParams::default(),
    )
    .expect("single-device build");
    let queries: Vec<Item> = (0..32usize)
        .map(|i| items[(i * 13) % items.len()].clone())
        .collect();
    let radii = vec![2.0; queries.len()];
    let want_mrq = single.batch_range(&queries, &radii).expect("single mrq");
    let want_knn = single.batch_knn(&queries, 8).expect("single knn");

    for s in SHARD_SWEEP {
        let pool = DevicePool::rtx_2080_ti(s as usize);
        let sharded = ShardedGts::build(
            &pool,
            items.to_vec(),
            metric,
            GtsParams::default().with_shards(s),
        )
        .expect("sharded build");
        assert_eq!(
            sharded.batch_range(&queries, &radii).expect("sharded mrq"),
            want_mrq,
            "{label}: MRQ answers must be bit-identical at {s} shards"
        );
        assert_eq!(
            sharded.batch_knn(&queries, 8).expect("sharded knn"),
            want_knn,
            "{label}: MkNNQ answers must be bit-identical at {s} shards"
        );
    }
}

#[test]
fn sharded_answers_bit_identical_across_shard_counts() {
    let (items, metric) = words(600, 1234);
    assert_invariant("words", &items, metric);
}

#[test]
fn sharded_answers_bit_identical_on_tie_heavy_data() {
    let (items, metric) = tie_heavy(600, 77);
    assert_invariant("tie-heavy", &items, metric);
}

#[test]
fn one_shard_equals_single_device_exactly_including_cycles() {
    let (items, metric) = words(500, 5);
    let queries: Vec<Item> = items[..16].to_vec();
    let radii = vec![2.0; queries.len()];

    let dev = Device::rtx_2080_ti();
    let single = Gts::build(&dev, items.clone(), metric, GtsParams::default()).expect("build");
    let single_mrq = single.batch_range(&queries, &radii).expect("mrq");
    let single_knn = single.batch_knn(&queries, 5).expect("knn");

    let pool = DevicePool::rtx_2080_ti(1);
    let sharded =
        ShardedGts::build(&pool, items, metric, GtsParams::default()).expect("sharded build");
    let sharded_mrq = sharded.batch_range(&queries, &radii).expect("mrq");
    let sharded_knn = sharded.batch_knn(&queries, 5).expect("knn");

    assert_eq!(sharded_mrq, single_mrq);
    assert_eq!(sharded_knn, single_knn);
    assert_eq!(
        pool.get(0).stats(),
        dev.stats(),
        "one shard on one device is the single-device index, cycle counts included"
    );
    assert_eq!(sharded.stats(), single.stats(), "identical search counters");
}

#[test]
fn overflow_rebuild_on_one_shard_leaves_other_clocks_untouched() {
    let (items, metric) = words(200, 21);
    let pool = DevicePool::rtx_2080_ti(4);
    // A cache capacity so small the very first insert overflows.
    let params = GtsParams::default().with_shards(4).with_cache_capacity(4);
    let mut idx = ShardedGts::build(&pool, items.clone(), metric, params).expect("build");

    let cycles_before: Vec<u64> = (0..4).map(|s| pool.get(s).cycles()).collect();
    let rebuilds_before: Vec<u64> = (0..4).map(|s| idx.shard(s).rebuild_count()).collect();
    let gid = idx.insert(Item::text("overflowing")).expect("insert");
    let owner = idx.partitioner().shard_of(gid) as usize;

    assert_eq!(
        idx.shard(owner).rebuild_count(),
        rebuilds_before[owner] + 1,
        "the tiny cache must overflow and rebuild the owning shard"
    );
    for s in 0..4 {
        if s == owner {
            assert!(
                pool.get(s).cycles() > cycles_before[s],
                "the owning shard's device pays for the rebuild"
            );
        } else {
            assert_eq!(
                pool.get(s).cycles(),
                cycles_before[s],
                "shard {s}: untouched shards' clocks must not move"
            );
            assert_eq!(idx.shard(s).rebuild_count(), rebuilds_before[s]);
        }
    }

    // The rebuilt sharded index still answers bit-identically to a fresh
    // single-device index over the updated store.
    let mut store = items;
    store.push(Item::text("overflowing"));
    let single = Gts::build(
        &Device::rtx_2080_ti(),
        store.clone(),
        metric,
        GtsParams::default(),
    )
    .expect("build");
    let queries = vec![Item::text("overflowing"), store[10].clone()];
    let radii = [1.0, 2.0];
    assert_eq!(
        idx.batch_range(&queries, &radii).expect("mrq"),
        single.batch_range(&queries, &radii).expect("mrq"),
    );
    assert_eq!(
        idx.batch_knn(&queries, 4).expect("knn"),
        single.batch_knn(&queries, 4).expect("knn"),
    );
}

/// The batched descent must be **bit- and cycle-identical** to the seed
/// implementation's monolithic `range_descend`/`knn_descend` loops.
/// The expected values below were captured by running the *seed*
/// implementation (commit before the engine landed) on these exact
/// workloads; every answer hash and every MRQ number must still match.
/// Re-recorded on purpose, twice: the Words cycle counts when the
/// early-abandoning kernel became the only leaf path (the seed charged the
/// full edit DP: 28 294 / 86 807 cycles), and every kNN cycle count,
/// distance count and verified-leaf count — plus the grouped workload's
/// group count and frontier high-water mark, which its kNN batch used to
/// set — when exact MkNNQ started seeding each pool with a greedy
/// root-to-leaf dive (before it: Words 86 219 / 49 597 / 49 533, Vector
/// 99 744 / 57 605 / 57 541, grouped 684 880 cycles, 114 666 distances,
/// 114 410 verified, 18 groups, 2 560 entries). The seeded bound prunes
/// before the first level, so kNN verifies fewer leaves and forms fewer
/// groups; the answers are the same. The Vector answer hashes were
/// re-recorded once more when angular distance became one dot product over
/// cached row norms in the 8-lane summation order (before it: MRQ
/// `0xc2fcf54ab2ce6aff`, kNN `0x0cfd5a13aa1acf0e`): the new order moves
/// distances in their last bits, which the hashes see, while every cycle
/// count, the distance count and the verified-leaf count stayed put. The
/// third workload squeezes device
/// memory until the two-stage strategy forms query groups, so the group
/// recursion is pinned — buffer lifetimes included (a leaked or
/// early-dropped intermediate buffer would shift `free_bytes`, change the
/// group split, and move every number).
#[test]
fn engine_matches_prerefactor_fingerprint() {
    // (dataset, n, radius, k, expected MRQ hash, MRQ cycles, kNN hash,
    //  kNN cycles, distance computations, leaf verified)
    for (kind, n, radius, k, mrq_hash, mrq_cycles, knn_hash, knn_cycles, dist, verified) in [
        (
            DatasetKind::Words,
            900usize,
            2.0,
            8usize,
            0x5065ef5b376d735du64,
            27_422u64,
            0x2e2327414a04281du64,
            63_372u64,
            50_926u64,
            49_422u64,
        ),
        (
            DatasetKind::Vector,
            900,
            0.35,
            8,
            0xef0a42b3297b9537,
            43_079,
            0x1cc33a2d8306ba91,
            77_409,
            59_043,
            57_539,
        ),
    ] {
        let data = kind.generate(n, 1234);
        let dev = Device::rtx_2080_ti();
        let gts =
            Gts::build(&dev, data.items.clone(), data.metric, GtsParams::default()).expect("build");
        let queries: Vec<Item> = (0..32usize)
            .map(|i| data.items[(i * 13) % n].clone())
            .collect();
        let radii = vec![radius; queries.len()];
        let mark = dev.cycles();
        let mrq = gts.batch_range(&queries, &radii).expect("mrq");
        assert_eq!(dev.cycles() - mark, mrq_cycles, "{kind:?}: MRQ cycles");
        assert_eq!(hash_answers(&mrq), mrq_hash, "{kind:?}: MRQ answers");
        let mark = dev.cycles();
        let knn = gts.batch_knn(&queries, k).expect("knn");
        assert_eq!(dev.cycles() - mark, knn_cycles, "{kind:?}: kNN cycles");
        assert_eq!(hash_answers(&knn), knn_hash, "{kind:?}: kNN answers");
        let s = gts.stats();
        assert_eq!(s.distance_computations, dist, "{kind:?}: distance count");
        assert_eq!(s.leaf_verified, verified, "{kind:?}: verified leaves");
    }

    // The grouped workload: memory squeezed to (index footprint + 96 KB).
    let data = DatasetKind::TLoc.generate(3_000, 13);
    let footprint = {
        let probe = Device::rtx_2080_ti();
        let idx = Gts::build(
            &probe,
            data.items.clone(),
            data.metric,
            GtsParams::default(),
        )
        .expect("probe build");
        idx.memory_bytes() + data.data_bytes()
    };
    let dev = Device::new(DeviceConfig::rtx_2080_ti().with_memory_bytes(footprint + 96 * 1024));
    let gts =
        Gts::build(&dev, data.items.clone(), data.metric, GtsParams::default()).expect("build");
    let queries: Vec<Item> = (0..128usize)
        .map(|i| data.items[(i * 3) % 3_000].clone())
        .collect();
    let radii = vec![1.0; queries.len()];
    let mark = dev.cycles();
    let mrq = gts.batch_range(&queries, &radii).expect("mrq");
    assert_eq!(dev.cycles() - mark, 44_575, "grouped: MRQ cycles");
    assert_eq!(
        hash_answers(&mrq),
        0xbe1d4754a1266141,
        "grouped: MRQ answers"
    );
    let mark = dev.cycles();
    let knn = gts.batch_knn(&queries, 10).expect("knn");
    assert_eq!(dev.cycles() - mark, 99_436, "grouped: kNN cycles");
    assert_eq!(
        hash_answers(&knn),
        0xfdf44f29921ae3fb,
        "grouped: kNN answers"
    );
    let s = gts.stats();
    assert_eq!(s.groups_formed, 4, "grouped: query groups");
    assert_eq!(s.max_frontier, 229, "grouped: frontier high-water mark");
    assert_eq!(s.distance_computations, 45_883, "grouped: distance count");
    assert_eq!(s.leaf_verified, 26_427, "grouped: verified leaves");
}

#[test]
fn sharded_snapshot_roundtrip_preserves_bit_identical_answers() {
    let (items, metric) = tie_heavy(300, 3);
    let pool = DevicePool::rtx_2080_ti(2);
    let idx = ShardedGts::build(
        &pool,
        items.clone(),
        metric,
        GtsParams::default().with_shards(2),
    )
    .expect("build");
    let bytes = idx.snapshot();

    let pool2 = DevicePool::rtx_2080_ti(2);
    let restored = ShardedGts::restore(&pool2, items.clone(), metric, &bytes).expect("restore");
    let queries: Vec<Item> = items[..12].to_vec();
    let radii = vec![2.0; queries.len()];
    assert_eq!(
        restored.batch_range(&queries, &radii).expect("mrq"),
        idx.batch_range(&queries, &radii).expect("mrq"),
    );
    assert_eq!(
        restored.batch_knn(&queries, 6).expect("knn"),
        idx.batch_knn(&queries, 6).expect("knn"),
    );
}
