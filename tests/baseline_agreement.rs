//! Cross-method agreement: every *exact* method must return identical MRQ
//! answers and distance-identical MkNNQ answers on the same data — the
//! property that makes the paper's throughput comparisons meaningful.

use gts::prelude::*;

fn knn_dists(v: &[Neighbor]) -> Vec<f64> {
    v.iter().map(|n| n.dist).collect()
}

#[test]
fn all_exact_methods_agree() {
    for kind in [DatasetKind::Words, DatasetKind::TLoc, DatasetKind::Color] {
        let data = kind.generate(400, 51);
        let dev = Device::rtx_2080_ti();
        let scan = LinearScan::new(data.items.clone(), data.metric);
        let bst = Bst::build(data.items.clone(), data.metric);
        let mvpt = Mvpt::build(data.items.clone(), data.metric);
        let egnat = Egnat::build(data.items.clone(), data.metric).expect("egnat");
        let table = GpuTable::new(&dev, data.items.clone(), data.metric).expect("gpu-table");
        let gtree = GpuTree::build(&dev, data.items.clone(), data.metric).expect("gpu-tree");
        let gts =
            Gts::build(&dev, data.items.clone(), data.metric, GtsParams::default()).expect("gts");

        for qi in [3u32, 177, 399] {
            let q = data.item(qi).clone();
            let want_knn = scan.knn_query(&q, 7).expect("scan");
            let r = want_knn.last().expect("kth").dist;
            let want_mrq = scan.range_query(&q, r).expect("scan");

            let mrqs: Vec<(&str, Vec<Neighbor>)> = vec![
                ("BST", bst.range_query(&q, r).expect("bst")),
                ("MVPT", mvpt.range_query(&q, r).expect("mvpt")),
                ("EGNAT", egnat.range_query(&q, r).expect("egnat")),
                ("GPU-Table", table.range_query(&q, r).expect("table")),
                ("GPU-Tree", gtree.range_query(&q, r).expect("gtree")),
                ("GTS", gts.range_query(&q, r).expect("gts")),
            ];
            for (name, got) in &mrqs {
                assert_eq!(got, &want_mrq, "{kind:?} {name} MRQ q={qi}");
            }

            // k = 0 and k > n are the pool's capacity edges: no answer,
            // and every object.
            for k in [0, 7, data.len() + 5] {
                let want = scan.knn_query(&q, k).expect("scan");
                assert_eq!(want.len(), k.min(data.len()));
                let knns: Vec<(&str, Vec<Neighbor>)> = vec![
                    ("BST", bst.knn_query(&q, k).expect("bst")),
                    ("MVPT", mvpt.knn_query(&q, k).expect("mvpt")),
                    ("EGNAT", egnat.knn_query(&q, k).expect("egnat")),
                    ("GPU-Table", table.knn_query(&q, k).expect("table")),
                    ("GPU-Tree", gtree.knn_query(&q, k).expect("gtree")),
                    ("GTS", gts.knn_query(&q, k).expect("gts")),
                ];
                for (name, got) in &knns {
                    assert_eq!(
                        knn_dists(got),
                        knn_dists(&want),
                        "{kind:?} {name} kNN k={k} q={qi}"
                    );
                }
            }
        }
    }
}

#[test]
fn lbpg_agrees_on_lp_data() {
    for kind in [DatasetKind::TLoc, DatasetKind::Color] {
        let data = kind.generate(350, 53);
        let dev = Device::rtx_2080_ti();
        let scan = LinearScan::new(data.items.clone(), data.metric);
        let lbpg = LbpgTree::build(&dev, data.items.clone(), data.metric).expect("lbpg");
        let q = data.item(11).clone();
        let want = scan.knn_query(&q, 5).expect("scan");
        let r = want.last().expect("kth").dist;
        assert_eq!(
            lbpg.range_query(&q, r).expect("lbpg"),
            scan.range_query(&q, r).expect("scan"),
            "{kind:?}"
        );
        assert_eq!(
            knn_dists(&lbpg.knn_query(&q, 5).expect("lbpg")),
            knn_dists(&want),
            "{kind:?}"
        );
    }
}

#[test]
fn ganns_recall_reported_not_asserted_exact() {
    let data = DatasetKind::Vector.generate(300, 55);
    let dev = Device::rtx_2080_ti();
    let scan = LinearScan::new(data.items.clone(), data.metric);
    let ganns = Ganns::build(&dev, data.items.clone(), data.metric).expect("ganns");
    assert!(!ganns.is_exact());
    let mut recall_sum = 0.0;
    for qi in 0..15u32 {
        let q = data.item(qi * 19).clone();
        let want = scan.knn_query(&q, 10).expect("scan");
        let got = ganns.knn_query(&q, 10).expect("ganns");
        recall_sum += Ganns::recall(&want, &got);
    }
    let recall = recall_sum / 15.0;
    assert!(recall > 0.7, "GANNS recall too low: {recall}");
}

#[test]
fn gts_agrees_with_mvpt_batch_wise() {
    // The paper models GTS on MVPT; batched GTS output must equal MVPT's
    // sequential answers query by query.
    let data = DatasetKind::Dna.generate(250, 57);
    let dev = Device::rtx_2080_ti();
    let mvpt = Mvpt::build(data.items.clone(), data.metric);
    let gts = Gts::build(&dev, data.items.clone(), data.metric, GtsParams::default()).expect("gts");
    let queries: Vec<Item> = (0..16u32).map(|i| data.item(i * 7).clone()).collect();
    let radii = vec![12.0; queries.len()];
    let batched = gts.batch_range(&queries, &radii).expect("batch");
    for (i, q) in queries.iter().enumerate() {
        assert_eq!(
            batched[i],
            mvpt.range_query(q, radii[i]).expect("mvpt"),
            "query {i}"
        );
    }
}

/// A range batch with fewer radii than queries is a typed error on every
/// index layer and every batched baseline, raised before any device work.
#[test]
fn range_batch_with_a_missing_radius_is_a_typed_error() {
    use gts::metric::index::IndexError;
    let data = DatasetKind::Words.generate(200, 52);
    let (items, metric) = (data.items.clone(), data.metric);
    let dev = Device::rtx_2080_ti();
    let gts = Gts::build(&dev, items.clone(), metric, GtsParams::default()).expect("gts");
    let table = GpuTable::new(&dev, items.clone(), metric).expect("gpu-table");
    let gtree = GpuTree::build(&dev, items.clone(), metric).expect("gpu-tree");
    let scan = LinearScan::new(items.clone(), metric);
    let sharded_pool = DevicePool::rtx_2080_ti(2);
    let params = GtsParams::default().with_shards(2);
    let sharded = ShardedGts::build(&sharded_pool, items.clone(), metric, params).expect("sharded");
    let replicated_pool = DevicePool::rtx_2080_ti(4);
    let replicated = ReplicatedShards::build(
        &replicated_pool,
        items.clone(),
        metric,
        params.with_replicas(2),
    )
    .expect("replicated");
    let clocks = || -> Vec<u64> {
        std::iter::once(&dev)
            .chain(sharded_pool.devices())
            .chain(replicated_pool.devices())
            .map(|d| d.cycles())
            .collect()
    };

    let (queries, radii) = (&items[..3], [1.0, 2.0]);
    let before = clocks();
    let replicated_answer = replicated
        .batch_range(queries, &radii)
        .map_err(|e| match e {
            ReplicaError::Index(e) => e,
            other => panic!("the replica layer passes the index error through, got {other}"),
        });
    let answers = [
        ("GTS", gts.batch_range(queries, &radii)),
        ("GTS-sharded", sharded.batch_range(queries, &radii)),
        ("GTS-replicated", replicated_answer),
        ("LinearScan", scan.batch_range(queries, &radii)),
        ("GPU-Table", table.batch_range(queries, &radii)),
        ("GPU-Tree", gtree.batch_range(queries, &radii)),
    ];
    for (name, answer) in answers {
        assert!(
            matches!(answer, Err(IndexError::InvalidQuery(_))),
            "{name}: {answer:?}"
        );
    }
    assert_eq!(clocks(), before, "no device clock moved");
}

/// A query whose payload the metric cannot measure (text against a vector
/// index, or the reverse, a vector with a NaN or ±∞ coordinate, or one of
/// another dimension than the indexed vectors) is a
/// typed error on every index layer — not a panic in the metric, which the
/// replica layer would count as a strike against healthy replicas and retry
/// until `AllReplicasFailed`, and not a silent answer at `dist: NaN`. A NaN
/// range radius is a typed error too, not an empty answer.
#[test]
fn wrong_payload_kind_is_a_typed_error_not_a_strike() {
    use gts::metric::index::IndexError;
    let text = Item::Text("kitten".into());
    let vector = Item::Vector(vec![0.5f32; 2].into());
    let vector_with = |x: f32| Item::Vector(vec![0.5, x].into());
    // (dataset, malformed query or `None`, radius of the query in slot 1).
    let cases = [
        (DatasetKind::TLoc, Some(text), 1.0),
        // A 3-d query against the 2-d T-Loc index.
        (
            DatasetKind::TLoc,
            Some(Item::Vector(vec![0.5f32; 3].into())),
            1.0,
        ),
        (DatasetKind::Words, Some(vector), 1.0),
        (DatasetKind::TLoc, Some(vector_with(f32::NAN)), 1.0),
        (DatasetKind::TLoc, Some(vector_with(f32::INFINITY)), 1.0),
        (DatasetKind::TLoc, Some(vector_with(f32::NEG_INFINITY)), 1.0),
        (DatasetKind::TLoc, None, f64::NAN),
        (DatasetKind::Words, None, f64::NAN),
    ];
    for (kind, bad, radius) in cases {
        let data = kind.generate(300, 53);
        let (items, metric) = (data.items.clone(), data.metric);
        let gts = Gts::build(
            &Device::rtx_2080_ti(),
            items.clone(),
            metric,
            GtsParams::default(),
        )
        .expect("gts");
        let params = GtsParams::default().with_shards(2);
        let sharded = ShardedGts::build(&DevicePool::rtx_2080_ti(2), items.clone(), metric, params)
            .expect("sharded");
        let replicated = ReplicatedShards::build(
            &DevicePool::rtx_2080_ti(2),
            items.clone(),
            metric,
            GtsParams::default().with_replicas(2),
        )
        .expect("replicated");

        // The malformed query or radius rides in a batch with a well-formed
        // one.
        let bad_query = bad.is_some();
        let queries = [items[0].clone(), bad.unwrap_or_else(|| items[1].clone())];
        let radii = [1.0, radius];
        let untyped = |r: Result<Vec<Vec<Neighbor>>, ReplicaError>| {
            r.map_err(|e| match e {
                ReplicaError::Index(e) => e,
                other => panic!("the replica layer passes the index error through, got {other}"),
            })
        };
        let answers = [
            ("GTS kNN", gts.batch_knn(&queries, 3)),
            ("GTS range", gts.batch_range(&queries, &radii)),
            ("GTS-sharded kNN", sharded.batch_knn(&queries, 3)),
            ("GTS-sharded range", sharded.batch_range(&queries, &radii)),
            (
                "GTS-replicated kNN",
                untyped(replicated.batch_knn(&queries, 3)),
            ),
            (
                "GTS-replicated range",
                untyped(replicated.batch_range(&queries, &radii)),
            ),
        ];
        for (name, answer) in answers {
            // A NaN radius leaves the kNN rows well-formed.
            if !bad_query && name.ends_with("kNN") {
                assert!(answer.is_ok(), "{}: {name}: {answer:?}", kind.name());
                continue;
            }
            assert!(
                matches!(answer, Err(IndexError::InvalidQuery(_))),
                "{}: {name}: {answer:?}",
                kind.name()
            );
        }
        let stats = replicated.replica_stats();
        assert_eq!(stats.strikes, vec![0, 0], "{}: {stats:?}", kind.name());
        assert_eq!(stats.retries, 0, "{}: {stats:?}", kind.name());
        assert!(
            replicated.batch_knn(&queries[..1], 3).is_ok(),
            "{}: a well-formed batch is still served",
            kind.name()
        );
    }
}

/// An object the metric cannot measure against the rest — a NaN or ±∞
/// coordinate, another dimension, another payload kind — is a typed
/// `InvalidObject` at build and at insert on every index layer, and a
/// rejected insert leaves the index as it was: same length, same epoch,
/// same answers.
#[test]
fn unindexable_objects_are_typed_errors_at_build_and_insert() {
    use gts::metric::index::{DynamicIndex, IndexError};
    let data = DatasetKind::TLoc.generate(200, 54);
    let (items, metric) = (data.items.clone(), data.metric);
    let bad_objects = [
        Item::Vector(vec![0.5, f32::NAN].into()),
        Item::Vector(vec![f32::INFINITY, 0.5].into()),
        Item::Vector(vec![0.5f32; 3].into()),
        Item::Text("kitten".into()),
    ];
    let is_invalid_object = |e: &IndexError| matches!(e, IndexError::InvalidObject(_));
    let sharded_params = GtsParams::default().with_shards(2);
    for bad in bad_objects {
        let mut with_bad = items.clone();
        with_bad.insert(17, bad.clone());
        let dev = Device::rtx_2080_ti();
        let built = Gts::build(&dev, with_bad.clone(), metric, GtsParams::default());
        assert!(
            built.as_ref().is_err_and(is_invalid_object),
            "GTS build with {bad:?}"
        );
        assert_eq!(dev.cycles(), 0, "rejected before any device work");
        let sharded = ShardedGts::build(
            &DevicePool::rtx_2080_ti(2),
            with_bad.clone(),
            metric,
            sharded_params,
        );
        assert!(
            sharded.as_ref().is_err_and(is_invalid_object),
            "sharded build with {bad:?}"
        );
        let replicated = ReplicatedShards::build(
            &DevicePool::rtx_2080_ti(2),
            with_bad,
            metric,
            GtsParams::default().with_replicas(2),
        );
        assert!(
            replicated.as_ref().is_err_and(is_invalid_object),
            "replicated build with {bad:?}"
        );

        let queries = &items[..4];
        let mut gts = Gts::build(
            &Device::rtx_2080_ti(),
            items.clone(),
            metric,
            GtsParams::default(),
        )
        .expect("gts");
        let before = gts.batch_knn(queries, 3).expect("knn");
        let err = gts.insert(bad.clone()).expect_err("insert");
        assert!(is_invalid_object(&err), "GTS insert of {bad:?}: {err}");
        let err = gts
            .batch_update(vec![items[0].clone(), bad.clone()], &[3])
            .expect_err("batch");
        assert!(
            is_invalid_object(&err),
            "GTS batch update with {bad:?}: {err}"
        );
        assert_eq!(gts.len(), items.len(), "nothing staged, nothing removed");
        assert_eq!(gts.batch_knn(queries, 3).expect("knn"), before);

        let mut sharded = ShardedGts::build(
            &DevicePool::rtx_2080_ti(2),
            items.clone(),
            metric,
            sharded_params,
        )
        .expect("sharded");
        let err = sharded.insert(bad.clone()).expect_err("insert");
        assert!(is_invalid_object(&err), "sharded insert of {bad:?}: {err}");
        let op = UpdateOp::Batch {
            insertions: vec![items[0].clone(), bad.clone()],
            deletions: vec![3],
        };
        let err = sharded.apply(&op).expect_err("batch");
        assert!(is_invalid_object(&err), "sharded batch with {bad:?}: {err}");
        assert_eq!(sharded.len(), items.len());
        assert_eq!(sharded.epoch(), 0, "a rejected op is not serialized");
        assert_eq!(sharded.batch_knn(queries, 3).expect("knn"), before);
    }
}
