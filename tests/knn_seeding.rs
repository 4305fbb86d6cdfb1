//! Seeded exact MkNNQ. Before its first prune, every exact kNN query dives
//! greedily from the root to one leaf — at each level into the non-empty
//! child whose ring is nearest its pivot distance — and seeds its pool with
//! the live pivots it met and the live objects of that leaf. A seed is a
//! live object at its true distance, so a pool's bound never drops below
//! the true k-th distance: answers stay the canonical k smallest
//! `(distance, id)` pairs, bit for bit those of a linear scan — on every
//! dataset kind, shard count and `k`, on tie-heavy data, at heights 1 and 2,
//! when the root frontier splits into query groups, with the dive's own leaf
//! and pivots tombstoned, and for any host thread count.

use gts::core::stats::StatsSnapshot;
use gts::gpu::DeviceStats;
use gts::prelude::*;

const SHARDS: [u32; 3] = [1, 2, 4];

/// The scan's canonical `k` nearest with the ids in `dead` left out.
fn scan_knn(scan: &LinearScan, dead: &[u32], q: &Item, k: usize) -> Vec<Neighbor> {
    let mut row = scan.knn_query(q, k + dead.len()).expect("scan knn");
    row.retain(|n| !dead.contains(&n.id));
    row.truncate(k);
    row
}

fn assert_matches_scan(
    label: &str,
    got: &[Vec<Neighbor>],
    scan: &LinearScan,
    qs: &[Item],
    k: usize,
) {
    for (i, (q, got)) in qs.iter().zip(got).enumerate() {
        assert_eq!(
            got,
            &scan_knn(scan, &[], q, k),
            "{label}: query {i}, k = {k}"
        );
    }
}

fn build(data: &Dataset, nc: u32, dev: &std::sync::Arc<Device>) -> Gts<Item, ItemMetric> {
    let params = GtsParams::default().with_node_capacity(nc);
    Gts::build(dev, data.items.clone(), data.metric, params).expect("build")
}

/// The index's tree as `Gts::snapshot` lays it out (`GTS3`, little-endian):
/// 27 bytes of magic and parameters, `nc`, `h`, the node count, 36 bytes per
/// node, then the table list at 13 bytes per row.
struct Tree {
    nc: usize,
    h: u32,
    /// By node id − 1.
    nodes: Vec<Node>,
    /// Object id per table row.
    rows: Vec<u32>,
}

struct Node {
    pivot: Option<u32>,
    min_dis: f64,
    max_dis: f64,
    pos: usize,
    size: usize,
}

impl Tree {
    fn of(gts: &Gts<Item, ItemMetric>) -> Tree {
        let b = gts.snapshot();
        assert_eq!(&b[..4], b"GTS3", "snapshot layout");
        let u32_at = |at: usize| u32::from_le_bytes(b[at..at + 4].try_into().expect("4 bytes"));
        let u64_at = |at: usize| u64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes"));
        let f64_at = |at: usize| f64::from_bits(u64_at(at));
        let (nc, h, count) = (u32_at(27) as usize, u32_at(31), u64_at(35) as usize);
        let nodes: Vec<_> = (0..count)
            .map(|i| {
                let at = 43 + 36 * i;
                Node {
                    pivot: u32_at(at).checked_sub(1),
                    min_dis: f64_at(at + 4),
                    max_dis: f64_at(at + 12),
                    pos: u32_at(at + 28) as usize,
                    size: u32_at(at + 32) as usize,
                }
            })
            .collect();
        let table = 43 + 36 * count;
        let rows = (0..u64_at(table) as usize)
            .map(|r| u32_at(table + 8 + 13 * r))
            .collect();
        Tree { nc, h, nodes, rows }
    }

    /// The largest leaf, in objects.
    fn widest_leaf(&self) -> usize {
        let first_leaf = (1..self.h).fold(1, |start, _| (start - 1) * self.nc + 2);
        self.nodes[first_leaf - 1..]
            .iter()
            .map(|n| n.size)
            .max()
            .unwrap_or(0)
    }

    /// The seeding dive of a query whose distance to object `o` is
    /// `dist[o]`, replayed from outside: the pivots it evaluates and the
    /// objects of the leaf it reaches.
    fn dive(&self, dist: &[f64]) -> (Vec<u32>, Vec<u32>) {
        let gap = |d: f64, n: &Node| {
            if d < n.min_dis {
                n.min_dis - d
            } else if d > n.max_dis {
                d - n.max_dis
            } else {
                0.0
            }
        };
        let (mut node, mut pivots) = (1usize, Vec::new());
        for _ in 1..self.h {
            let p = self.nodes[node - 1].pivot.expect("internal node");
            pivots.push(p);
            let d = dist[p as usize];
            node = (0..self.nc)
                .map(|j| (node - 1) * self.nc + j + 2)
                .filter(|&c| self.nodes[c - 1].size > 0)
                .min_by(|&a, &b| gap(d, &self.nodes[a - 1]).total_cmp(&gap(d, &self.nodes[b - 1])))
                .expect("a non-empty child");
        }
        let leaf = &self.nodes[node - 1];
        (pivots, self.rows[leaf.pos..leaf.pos + leaf.size].to_vec())
    }
}

/// T-Loc, Words and Vector, each on a height-2 (`Nc` = 20) and a height-3
/// (`Nc` = 5) tree, through `Gts` and `ShardedGts` at 1, 2 and 4 shards,
/// for k ∈ {1, 8, live count + 3}.
#[test]
fn seeded_knn_matches_scan_on_every_topology() {
    for kind in [DatasetKind::TLoc, DatasetKind::Words, DatasetKind::Vector] {
        let data = kind.generate(600, 41);
        let scan = LinearScan::new(data.items.clone(), data.metric);
        let qs: Vec<Item> = (0..24).map(|i| data.items[i * 25].clone()).collect();
        for nc in [20u32, 5] {
            let gts = build(&data, nc, &Device::rtx_2080_ti());
            assert_eq!(gts.height(), if nc == 20 { 2 } else { 3 }, "{kind:?}");
            for k in [1usize, 8, data.items.len() + 3] {
                let label = format!("{kind:?}, Nc = {nc}, Gts");
                assert_matches_scan(&label, &gts.batch_knn(&qs, k).expect("knn"), &scan, &qs, k);
                for shards in SHARDS {
                    let index = ShardedGts::build(
                        &DevicePool::rtx_2080_ti(shards as usize),
                        data.items.clone(),
                        data.metric,
                        GtsParams::default()
                            .with_node_capacity(nc)
                            .with_shards(shards),
                    )
                    .expect("sharded build");
                    let label = format!("{kind:?}, Nc = {nc}, {shards} shard(s)");
                    let got = index.batch_knn(&qs, k).expect("sharded knn");
                    assert_matches_scan(&label, &got, &scan, &qs, k);
                }
            }
            assert!(
                gts.stats().seed_distances > 0,
                "{kind:?}, Nc = {nc}: seeded"
            );
        }
    }
}

/// Three distinct values, 200 copies each: every pool fills with ties
/// and the k-th distance is tied for every k below 200, so only the `(dist,
/// id)` tie-break decides the answer.
#[test]
fn seeded_knn_is_exact_on_tie_heavy_data() {
    let data = Dataset::new(
        "dup-words",
        (0..600)
            .map(|i| Item::text(["kitten", "sitting", "zzzzzzzzzz"][i % 3]))
            .collect(),
        ItemMetric::Edit,
    );
    let scan = LinearScan::new(data.items.clone(), data.metric);
    let qs: Vec<Item> = (0..6).map(|i| data.items[i].clone()).collect();
    for shards in SHARDS {
        let index = ShardedGts::build(
            &DevicePool::rtx_2080_ti(shards as usize),
            data.items.clone(),
            data.metric,
            GtsParams::default()
                .with_node_capacity(4)
                .with_shards(shards),
        )
        .expect("build");
        for k in [1usize, 8, 603] {
            let label = format!("tie-heavy, {shards} shard(s)");
            assert_matches_scan(
                &label,
                &index.batch_knn(&qs, k).expect("knn"),
                &scan,
                &qs,
                k,
            );
        }
    }
}

/// Memory squeezed to the index footprint plus 16 KiB: the root level's
/// bound is 16 KiB / (h · Nc · 16 B) = 25 entries, so the 128 root entries
/// split into query groups, and each group's root expansion seeds its own
/// queries.
#[test]
fn seeded_knn_is_exact_when_the_root_frontier_splits() {
    let data = DatasetKind::TLoc.generate(3_000, 13);
    let scan = LinearScan::new(data.items.clone(), data.metric);
    let roomy = build(&data, 20, &Device::rtx_2080_ti());
    assert_eq!(roomy.height(), 2);
    let footprint = roomy.memory_bytes() + data.data_bytes();
    let tight = Device::new(DeviceConfig::rtx_2080_ti().with_memory_bytes(footprint + 16 * 1024));
    let squeezed = build(&data, 20, &tight);
    let qs: Vec<Item> = (0..128u32).map(|i| data.item(i * 3).clone()).collect();
    for k in [1usize, 10] {
        let got = squeezed.batch_knn(&qs, k).expect("grouped knn");
        assert_matches_scan("root split", &got, &scan, &qs, k);
        assert_eq!(got, roomy.batch_knn(&qs, k).expect("knn"), "k = {k}");
    }
    let s = squeezed.stats();
    assert!(s.groups_formed >= 128 / 25, "root frontier split: {s:?}");
    assert!(s.seed_distances > 0);
}

/// Delete everything a query's dive would seed from — every object of its
/// leaf and every pivot on the way — and its pool starts from nothing live:
/// no tombstoned id comes back, and the answers still equal the scan's.
#[test]
fn tombstoned_seeds_never_reach_an_answer() {
    let data = DatasetKind::Words.generate(600, 7);
    let scan = LinearScan::new(data.items.clone(), data.metric);
    for qi in [0u32, 123, 599] {
        let q = data.item(qi).clone();
        let mut gts = build(&data, 5, &Device::rtx_2080_ti());
        assert_eq!(gts.height(), 3);
        let tree = Tree::of(&gts);
        let mut dist = vec![0.0; data.items.len()];
        for n in scan.knn_query(&q, data.items.len()).expect("scan") {
            dist[n.id as usize] = n.dist;
        }
        let (pivots, leaf) = tree.dive(&dist);

        // The replay is the engine's dive: one pivot below the root plus the
        // whole leaf, counted as seed distances.
        gts.batch_knn(std::slice::from_ref(&q), 8).expect("knn");
        assert_eq!(gts.stats().seed_distances, 1 + leaf.len() as u64);

        let dead: Vec<u32> = pivots.iter().chain(&leaf).copied().collect();
        for &id in &dead {
            gts.remove(id).expect("remove");
        }
        gts.reset_stats();
        for k in [1usize, 8, data.items.len() - dead.len() + 3] {
            let got = gts.batch_knn(std::slice::from_ref(&q), k).expect("knn");
            assert!(
                got[0].iter().all(|n| !dead.contains(&n.id)),
                "query {qi}: a tombstoned seed was returned"
            );
            assert_eq!(got[0], scan_knn(&scan, &dead, &q, k), "query {qi}, k = {k}");
        }
        assert_eq!(
            gts.stats().seed_distances,
            3,
            "query {qi}: with the leaf dead only the pivot below the root is left"
        );
    }
}

/// `seed_distances` is the dive's share of `distance_computations`: zero
/// for range search and a height-1 tree; between one and
/// `queries · (h − 1 + widest leaf)` for a kNN batch.
#[test]
fn seed_distances_count_only_the_dive() {
    let data = DatasetKind::TLoc.generate(3_000, 5);
    let gts = build(&data, 20, &Device::rtx_2080_ti());
    let qs: Vec<Item> = (0..32u32).map(|i| data.item(i * 31).clone()).collect();
    gts.batch_range(&qs, &vec![1.0; qs.len()]).expect("range");
    assert_eq!(gts.stats().seed_distances, 0, "range search");
    assert!(gts.stats().distance_computations > 0);

    gts.reset_stats();
    gts.batch_knn(&qs, 8).expect("knn");
    let s = gts.stats();
    let tree = Tree::of(&gts);
    let ceiling = qs.len() * (tree.h as usize - 1 + tree.widest_leaf());
    assert!(s.seed_distances > 0, "{s:?}");
    assert!(s.seed_distances as usize <= ceiling, "{s:?} vs {ceiling}");
    assert!(s.seed_distances < s.distance_computations, "{s:?}");

    let tiny = DatasetKind::TLoc.generate(10, 5);
    let flat = build(&tiny, 20, &Device::rtx_2080_ti());
    assert_eq!(flat.height(), 1);
    let scan = LinearScan::new(tiny.items.clone(), tiny.metric);
    let got = flat.batch_knn(&tiny.items, 3).expect("knn");
    assert_matches_scan("h = 1", &got, &scan, &tiny.items, 3);
    assert_eq!(flat.stats().seed_distances, 0, "a root leaf has no dive");
}

/// The dives run as query-chunk runs on the host pool: answers, counters
/// and every device counter are those of one thread, with and without
/// tombstones and query groups.
#[test]
fn seeding_is_thread_count_invariant() {
    let data = DatasetKind::TLoc.generate(3_000, 99);
    let footprint = {
        let probe = build(&data, 6, &Device::rtx_2080_ti());
        probe.memory_bytes() + data.data_bytes()
    };
    let qs: Vec<Item> = (0..100u32).map(|i| data.item(i * 29).clone()).collect();
    for (squeeze, tombstones) in [(None, false), (Some(32 * 1024u64), true)] {
        let run = |threads: usize| -> (Vec<Vec<Neighbor>>, StatsSnapshot, DeviceStats) {
            let mut cfg = DeviceConfig {
                host_threads: threads,
                ..DeviceConfig::rtx_2080_ti()
            };
            if let Some(slack) = squeeze {
                cfg = cfg.with_memory_bytes(footprint + slack);
            }
            let dev = Device::new(cfg);
            let mut gts = build(&data, 6, &dev);
            if tombstones {
                for id in (0..3_000u32).step_by(7) {
                    gts.remove(id).expect("remove");
                }
            }
            let answers = gts.batch_knn(&qs, 8).expect("knn");
            (answers, gts.stats(), dev.stats())
        };
        let one = run(1);
        assert!(one.1.seed_distances > 0);
        for threads in [2usize, 8] {
            assert_eq!(run(threads), one, "{threads} threads, squeeze {squeeze:?}");
        }
    }
}
