//! End-to-end exactness: GTS must return byte-identical MRQ answers and
//! distance-identical MkNNQ answers to a brute-force linear scan, on every
//! dataset kind of the paper, across radii, k values, and node capacities.

use gts::prelude::*;

const N: usize = 600;

fn scan(data: &Dataset) -> LinearScan {
    LinearScan::new(data.items.clone(), data.metric)
}

fn build(data: &Dataset, nc: u32) -> Gts<Item, ItemMetric> {
    let dev = Device::rtx_2080_ti();
    Gts::build(
        &dev,
        data.items.clone(),
        data.metric,
        GtsParams::default().with_node_capacity(nc),
    )
    .expect("build")
}

/// kNN answers may differ in id at tie boundaries; distances must agree.
fn assert_knn_equiv(a: &[Neighbor], b: &[Neighbor], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: cardinality");
    for (x, y) in a.iter().zip(b) {
        assert!(
            (x.dist - y.dist).abs() < 1e-9,
            "{ctx}: dist {} vs {}",
            x.dist,
            y.dist
        );
    }
}

#[test]
fn gts_matches_scan_on_every_dataset_kind() {
    for kind in DatasetKind::ALL {
        let data = kind.generate(N, 97);
        let gts = build(&data, 20);
        let scan = scan(&data);
        for qi in [0usize, N / 2, N - 1] {
            let q = data.item(qi as u32).clone();
            // Radii derived from the data's own kNN structure.
            let knn = scan.knn_query(&q, 16).expect("scan knn");
            for k in [1usize, 4, 16] {
                let got = gts.knn_query(&q, k).expect("gts knn");
                let want = scan.knn_query(&q, k).expect("scan knn");
                assert_knn_equiv(&got, &want, &format!("{kind:?} knn k={k} q={qi}"));
            }
            for r in [knn[3].dist, knn[15].dist, 0.0] {
                let got = gts.range_query(&q, r).expect("gts mrq");
                let want = scan.range_query(&q, r).expect("scan mrq");
                assert_eq!(got, want, "{kind:?} mrq r={r} q={qi}");
            }
        }
    }
}

#[test]
fn exact_across_node_capacities() {
    let data = DatasetKind::TLoc.generate(900, 3);
    let scan = scan(&data);
    let q = data.item(17).clone();
    let r = scan.knn_query(&q, 25).expect("scan")[24].dist;
    let want = scan.range_query(&q, r).expect("scan");
    for nc in [2u32, 3, 10, 20, 80, 320] {
        let gts = build(&data, nc);
        assert_eq!(
            gts.range_query(&q, r).expect("gts"),
            want,
            "node capacity {nc}"
        );
    }
}

#[test]
fn batch_answers_equal_single_answers() {
    let data = DatasetKind::Words.generate(500, 5);
    let gts = build(&data, 20);
    let queries: Vec<Item> = (0..40u32).map(|i| data.item(i * 7).clone()).collect();
    let radii = vec![2.0; queries.len()];
    let batched = gts.batch_range(&queries, &radii).expect("batch");
    for (i, q) in queries.iter().enumerate() {
        assert_eq!(
            batched[i],
            gts.range_query(q, radii[i]).expect("single"),
            "query {i}"
        );
    }
    let bk = gts.batch_knn(&queries, 6).expect("batch knn");
    for (i, q) in queries.iter().enumerate() {
        assert_knn_equiv(
            &bk[i],
            &gts.knn_query(q, 6).expect("single"),
            "batch-vs-single",
        );
    }
}

#[test]
fn query_not_in_dataset() {
    let data = DatasetKind::Vector.generate(400, 5);
    let gts = build(&data, 20);
    let scan = scan(&data);
    // A perturbed external query object.
    let q = gts::metric::gen::perturb(data.item(3), 777);
    let want = scan.knn_query(&q, 9).expect("scan");
    let got = gts.knn_query(&q, 9).expect("gts");
    assert_knn_equiv(&got, &want, "external query");
}

#[test]
fn k_larger_than_dataset_returns_everything() {
    let data = DatasetKind::Words.generate(50, 5);
    let gts = build(&data, 4);
    let got = gts.knn_query(&data.item(0).clone(), 500).expect("knn");
    assert_eq!(got.len(), 50);
    // Zero k, zero radius edge cases.
    assert!(gts
        .knn_query(&data.item(0).clone(), 0)
        .expect("k=0")
        .is_empty());
    let zero = gts.range_query(&data.item(0).clone(), 0.0).expect("r=0");
    assert!(zero.iter().any(|n| n.id == 0), "self at distance 0");
}

#[test]
fn empty_batch_is_fine() {
    let data = DatasetKind::TLoc.generate(300, 5);
    let gts = build(&data, 20);
    assert!(gts.batch_range(&[], &[]).expect("empty").is_empty());
    assert!(gts.batch_knn(&[], 5).expect("empty").is_empty());
}

/// Duplicate-only data (600 objects, 3 distinct values, `Nc = 4`): pivots
/// recur below themselves and every answer is one big tie, so equality with
/// the scan is exact — ids included — on one shard and on two.
#[test]
fn duplicate_heavy_data_is_exact_on_one_and_two_shards() {
    let cases = [
        Dataset::new(
            "dup-words",
            (0..N)
                .map(|i| Item::text(["kitten", "sitting", "zzzzzzzzzz"][i % 3]))
                .collect(),
            ItemMetric::Edit,
        ),
        Dataset::new(
            "dup-points",
            (0..N)
                .map(|i| Item::vector([[0.0f32, 0.0], [3.0, 4.0], [-6.0, 1.5]][i % 3]))
                .collect(),
            ItemMetric::L2,
        ),
    ];
    for data in cases {
        let scan = scan(&data);
        let queries: Vec<Item> = (0..3).map(|i| data.item(i).clone()).collect();
        for shards in [1u32, 2] {
            let index = ShardedGts::build(
                &DevicePool::rtx_2080_ti(shards as usize),
                data.items.clone(),
                data.metric,
                GtsParams::default()
                    .with_node_capacity(4)
                    .with_shards(shards),
            )
            .expect("build");
            let ctx = format!("{} on {shards} shard(s)", data.name);
            for k in [1usize, 8, 250] {
                let got = index.batch_knn(&queries, k).expect("knn");
                for (q, got) in queries.iter().zip(&got) {
                    assert_eq!(got, &scan.knn_query(q, k).expect("scan"), "{ctx} k={k}");
                }
            }
            let got = index.batch_range(&queries, &[0.0; 3]).expect("mrq");
            for (q, got) in queries.iter().zip(&got) {
                assert_eq!(got, &scan.range_query(q, 0.0).expect("scan"), "{ctx} r=0");
            }
        }
    }
}

/// Zero vectors under the angular metric: every 97th object zeroed. A zero
/// vector has no direction, so the metric puts it at ½ from every other
/// vector; a convention that broke the triangle inequality would let the
/// tree prune true answers.
#[test]
fn zero_vectors_keep_angular_search_exact() {
    let mut data = DatasetKind::Vector.generate(2_000, 13);
    let dims = data.item(0).as_vector().expect("vector data").len();
    for item in data.items.iter_mut().step_by(97) {
        *item = Item::vector(vec![0.0f32; dims]);
    }
    let scan = scan(&data);
    let queries: Vec<Item> = (0..64)
        .map(|i| data.item((i * 31) % 2_000).clone())
        .collect();
    assert!(queries
        .iter()
        .any(|q| q.as_vector().unwrap().iter().all(|&x| x == 0.0)));
    let want_knn: Vec<_> = queries
        .iter()
        .map(|q| scan.knn_query(q, 8).expect("scan"))
        .collect();
    let want_mrq: Vec<_> = queries
        .iter()
        .map(|q| scan.range_query(q, 0.2).expect("scan"))
        .collect();
    let gts = build(&data, 20);
    assert_eq!(
        gts.batch_knn(&queries, 8).expect("knn"),
        want_knn,
        "Gts knn"
    );
    assert_eq!(
        gts.batch_range(&queries, &[0.2; 64]).expect("mrq"),
        want_mrq,
        "Gts mrq"
    );
    let sharded = ShardedGts::build(
        &DevicePool::rtx_2080_ti(2),
        data.items.clone(),
        data.metric,
        GtsParams::default().with_shards(2),
    )
    .expect("build");
    assert_eq!(
        sharded.batch_knn(&queries, 8).expect("knn"),
        want_knn,
        "2 shards knn"
    );
    assert_eq!(
        sharded.batch_range(&queries, &[0.2; 64]).expect("mrq"),
        want_mrq,
        "2 shards mrq"
    );
}
