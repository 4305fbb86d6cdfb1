//! Snapshot → restore, from both sides.
//!
//! **restore ≡ build**: a restored index is the index that was saved — the
//! same batch returns the same answers, charges the same simulated cycles
//! and leaves the same `StatsSnapshot` (one `Gts` and a 2-shard
//! `ShardedGts`, Words and Vector).
//!
//! **Hostile bytes**: a snapshot is outside input. A header patched to
//! claim an absurd tree, every truncation and every single-bit flip of a
//! small snapshot must come back as `Err(IndexError)` or as an index that
//! answers queries — never a panic, an abort or an allocation sized by the
//! byte stream.

use gts::core::stats::StatsSnapshot;
use gts::metric::index::IndexError;
use gts::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

type Answers = Vec<Vec<Neighbor>>;

/// Datasets of the restore ≡ build sweep, each with its MRQ radius.
const KINDS: [(DatasetKind, f64); 2] = [(DatasetKind::Words, 2.0), (DatasetKind::Vector, 0.4)];

/// A few removals and cached insertions, so liveness, tombstones and the
/// cache table all travel through the snapshot. Returns the grown store.
fn mutate(index: &mut impl DynamicIndex<Item>, data: &Dataset) -> Vec<Item> {
    let mut store = data.items.clone();
    for id in [3u32, 40, 77] {
        assert!(index.remove(id).expect("rm"));
    }
    for i in [5usize, 9] {
        index.insert(data.items[i].clone()).expect("ins");
        store.push(data.items[i].clone());
    }
    store
}

fn search(index: &impl SimilarityIndex<Item>, data: &Dataset, radius: f64) -> (Answers, Answers) {
    let queries: Vec<Item> = (0..24u32).map(|i| data.item(i * 17).clone()).collect();
    let radii = vec![radius; queries.len()];
    (
        index.batch_range(&queries, &radii).expect("mrq"),
        index.batch_knn(&queries, 6).expect("knn"),
    )
}

#[test]
fn restored_gts_equals_the_built_one_in_answers_cycles_and_counters() {
    for (kind, radius) in KINDS {
        let data = kind.generate(600, 2024);
        let dev = Device::rtx_2080_ti();
        let mut built =
            Gts::build(&dev, data.items.clone(), data.metric, GtsParams::default()).expect("build");
        let store = mutate(&mut built, &data);
        let dev2 = Device::rtx_2080_ti();
        let restored = Gts::restore(&dev2, store, data.metric, &built.snapshot()).expect("restore");

        let run =
            |dev: &Device, gts: &Gts<Item, ItemMetric>| -> (Answers, Answers, u64, StatsSnapshot) {
                let mark = dev.cycles();
                let (mrq, knn) = search(gts, &data, radius);
                (mrq, knn, dev.cycles() - mark, gts.stats())
            };
        let want = run(&dev, &built);
        let got = run(&dev2, &restored);
        assert_eq!(got.0, want.0, "{kind:?}: MRQ answers");
        assert_eq!(got.1, want.1, "{kind:?}: MkNNQ answers");
        assert_eq!(got.2, want.2, "{kind:?}: simulated cycles");
        assert_eq!(got.3, want.3, "{kind:?}: search counters");
    }
}

#[test]
fn restored_sharded_index_equals_the_built_one_in_answers_cycles_and_counters() {
    for (kind, radius) in KINDS {
        let data = kind.generate(600, 2025);
        let pool = DevicePool::rtx_2080_ti(2);
        let mut built = ShardedGts::build(
            &pool,
            data.items.clone(),
            data.metric,
            GtsParams::default().with_shards(2),
        )
        .expect("build");
        let store = mutate(&mut built, &data);
        let pool2 = DevicePool::rtx_2080_ti(2);
        let restored =
            ShardedGts::restore(&pool2, store, data.metric, &built.snapshot()).expect("restore");

        let run = |pool: &DevicePool, idx: &ShardedGts<Item, ItemMetric>| {
            let marks: Vec<u64> = (0..2).map(|s| pool.get(s).cycles()).collect();
            let (mrq, knn) = search(idx, &data, radius);
            let cycles: Vec<u64> = (0..2).map(|s| pool.get(s).cycles() - marks[s]).collect();
            (mrq, knn, cycles, idx.stats())
        };
        let want = run(&pool, &built);
        let got = run(&pool2, &restored);
        assert_eq!(got.0, want.0, "{kind:?}: MRQ answers");
        assert_eq!(got.1, want.1, "{kind:?}: MkNNQ answers");
        assert_eq!(got.2, want.2, "{kind:?}: per-device simulated cycles");
        assert_eq!(got.3, want.3, "{kind:?}: search counters");
        assert_eq!(restored.epoch(), built.epoch(), "{kind:?}: epoch");
    }
}

// -- hostile bytes ------------------------------------------------------------

/// A small Words index (80 objects, `Nc = 4`: height 3, 21 nodes) with a
/// tombstone and a cached insertion; returns its store and snapshot.
fn small_gts() -> (Vec<Item>, ItemMetric, Vec<u8>) {
    let data = DatasetKind::Words.generate(80, 7);
    let params = GtsParams::default().with_node_capacity(4);
    let mut gts = Gts::build(
        &Device::rtx_2080_ti(),
        data.items.clone(),
        data.metric,
        params,
    )
    .expect("build");
    assert_eq!(gts.height(), 3);
    gts.remove(11).expect("rm");
    gts.insert(Item::text("cached")).expect("ins");
    let mut store = data.items;
    store.push(Item::text("cached"));
    (store, data.metric, gts.snapshot())
}

fn small_sharded() -> (Vec<Item>, ItemMetric, Vec<u8>) {
    let data = DatasetKind::Words.generate(80, 8);
    let params = GtsParams::default().with_node_capacity(4).with_shards(2);
    let mut idx = ShardedGts::build(
        &DevicePool::rtx_2080_ti(2),
        data.items.clone(),
        data.metric,
        params,
    )
    .expect("build");
    idx.remove(11).expect("rm");
    idx.insert(Item::text("cached")).expect("ins");
    let mut store = data.items;
    store.push(Item::text("cached"));
    (store, data.metric, idx.snapshot())
}

/// Whether `restore` brings an index back; one that does must answer a
/// range and a kNN batch. `Err` if anything panicked (the panic hook has
/// printed the message by then).
fn survives<I: SimilarityIndex<Item>>(
    store: &[Item],
    restore: impl FnOnce() -> Result<I, IndexError>,
) -> std::thread::Result<bool> {
    catch_unwind(AssertUnwindSafe(|| match restore() {
        Err(_) => false,
        Ok(index) => {
            let queries = [store[0].clone(), store[33].clone(), Item::text("cached")];
            index.batch_range(&queries, &[1.0, 2.0, 0.0]).expect("mrq");
            index.batch_knn(&queries, 3).expect("knn");
            true
        }
    }))
}

/// Every strict prefix is rejected; every single-bit flip is rejected or
/// restores an index that serves. Returns how many flips restored.
fn sweep<I: SimilarityIndex<Item>>(
    store: &[Item],
    bytes: &[u8],
    restore: impl Fn(&[u8]) -> Result<I, IndexError>,
) -> usize {
    assert!(
        matches!(survives(store, || restore(bytes)), Ok(true)),
        "the intact snapshot restores"
    );
    for cut in 0..bytes.len() {
        assert!(
            matches!(survives(store, || restore(&bytes[..cut])), Ok(false)),
            "truncated at {cut} of {}",
            bytes.len()
        );
    }
    let mut restored = 0;
    let mut flipped = bytes.to_vec();
    for bit in 0..bytes.len() * 8 {
        flipped[bit / 8] ^= 1 << (bit % 8);
        match survives(store, || restore(&flipped)) {
            Ok(ok) => restored += usize::from(ok),
            Err(_) => panic!("bit {} of byte {} flipped: panicked", bit % 8, bit / 8),
        }
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
    restored
}

#[test]
fn gts_restore_survives_every_truncation_and_bit_flip() {
    let (store, metric, bytes) = small_gts();
    let dev = Device::rtx_2080_ti();
    let restored = sweep(&store, &bytes, |b| {
        Gts::restore(&dev, store.clone(), metric, b)
    });
    // Flips inside a stored distance or a flag decode to a different but
    // well-formed index; flips of a length, an id range or the shape do not.
    assert!(
        restored > 0 && restored < bytes.len() * 8,
        "{restored} flips restored"
    );
}

#[test]
fn sharded_restore_survives_every_truncation_and_bit_flip() {
    let (store, metric, bytes) = small_sharded();
    let pool = DevicePool::rtx_2080_ti(2);
    let restored = sweep(&store, &bytes, |b| {
        ShardedGts::restore(&pool, store.clone(), metric, b)
    });
    assert!(
        restored > 0 && restored < bytes.len() * 8,
        "{restored} flips restored"
    );
    // The shard count is outside input too: a pool that cannot hold it is a
    // typed error, not an assertion.
    let one = DevicePool::rtx_2080_ti(1);
    assert!(matches!(
        ShardedGts::restore(&one, store.clone(), metric, &bytes),
        Err(IndexError::Unsupported(_))
    ));
}

/// Byte offset of the tree height in a `Gts` snapshot: magic, `Nc`, seed,
/// cache capacity, three flag bytes, the shape's `Nc`.
const H_AT: usize = 4 + 4 + 8 + 8 + 3 + 4;

#[test]
fn absurd_tree_shapes_are_rejected_before_allocating() {
    let data = DatasetKind::Words.generate(400, 81);
    let gts = Gts::build(
        &Device::rtx_2080_ti(),
        data.items.clone(),
        data.metric,
        GtsParams::default(),
    )
    .expect("build");
    let bytes = gts.snapshot();
    assert_eq!(bytes[H_AT..H_AT + 4], gts.height().to_le_bytes());
    let restore =
        |b: &[u8]| Gts::restore(&Device::rtx_2080_ti(), data.items.clone(), data.metric, b);

    // h = 10 with the matching node count: self-consistent, 21.5 TB of nodes.
    let mut patched = bytes.clone();
    patched[H_AT..H_AT + 4].copy_from_slice(&10u32.to_le_bytes());
    let nodes = (20u64.pow(10) - 1) / 19;
    patched[H_AT + 4..H_AT + 12].copy_from_slice(&nodes.to_le_bytes());
    assert!(matches!(restore(&patched), Err(IndexError::Unsupported(_))));

    // A height whose node count overflows `usize` must not spin either.
    patched[H_AT..H_AT + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(restore(&patched), Err(IndexError::Unsupported(_))));

    // The previous format version is refused by its magic.
    let mut old = bytes;
    old[..4].copy_from_slice(b"GTS2");
    assert!(matches!(
        restore(&old),
        Err(IndexError::Unsupported(msg)) if msg.contains("magic")
    ));
}

/// Regression: the table's per-row tombstone byte was never checked against
/// the liveness bitmap. A search reads only the tombstones, so a snapshot
/// whose removed object's row byte read 0 restored an index that returned
/// that object. Such a snapshot is now refused, typed.
#[test]
fn restore_rejects_a_removed_object_whose_row_is_not_tombstoned() {
    let data = DatasetKind::Words.generate(200, 91);
    let dev = Device::rtx_2080_ti();
    let mut gts =
        Gts::build(&dev, data.items.clone(), data.metric, GtsParams::default()).expect("build");
    let removed = 17u32;
    assert!(gts.remove(removed).expect("rm"));
    let mut bytes = gts.snapshot();
    let restore =
        |b: &[u8]| Gts::restore(&Device::rtx_2080_ti(), data.items.clone(), data.metric, b);
    let query = data.item(removed).clone();
    let hits = restore(&bytes).expect("intact").range_query(&query, 0.0);
    assert!(hits.expect("mrq").iter().all(|n| n.id != removed));

    // Header, node list (36 B a node), then the table: its length, and one
    // (u32 id, f64 distance, u8 tombstone) row of 13 B per entry.
    let read_u64 = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 B"));
    let nodes = read_u64(H_AT + 4) as usize;
    let table_at = H_AT + 12 + 36 * nodes;
    let rows = read_u64(table_at) as usize;
    let mut cleared = 0;
    for row in 0..rows {
        let at = table_at + 8 + 13 * row;
        if bytes[at..at + 4] == removed.to_le_bytes() {
            assert_eq!(bytes[at + 12], 1, "the removed object's row is tombstoned");
            bytes[at + 12] = 0;
            cleared += 1;
        }
    }
    assert!(cleared > 0, "the removed object has a row");
    assert!(matches!(
        restore(&bytes),
        Err(IndexError::Unsupported(msg)) if msg.contains("tombstone")
    ));
}

/// Regression: a store the metric cannot measure used to restore without
/// error — a Words snapshot over a store holding one vector panicked at the
/// first `batch_knn`, and a NaN coordinate went in silently. Both index
/// types now refuse such a store, typed and before reserving anything.
#[test]
fn restore_rejects_a_store_that_does_not_fit_the_metric() {
    let cases = [
        (DatasetKind::Words, Item::vector(vec![1.0f32, 2.0])),
        (DatasetKind::TLoc, Item::vector(vec![f32::NAN, 0.0])),
    ];
    for (kind, misfit) in cases {
        let data = kind.generate(200, 7);
        let mut store = data.items.clone();
        store[17] = misfit;
        let rejected = |err: Option<IndexError>| matches!(err, Some(IndexError::InvalidObject(_)));

        let dev = Device::rtx_2080_ti();
        let gts =
            Gts::build(&dev, data.items.clone(), data.metric, GtsParams::default()).expect("build");
        let allocated = dev.allocated_bytes();
        let err = Gts::restore(&dev, store.clone(), data.metric, &gts.snapshot()).err();
        assert!(rejected(err), "{kind:?}: Gts");
        assert_eq!(
            dev.allocated_bytes(),
            allocated,
            "{kind:?}: nothing reserved"
        );

        let pool = DevicePool::rtx_2080_ti(2);
        let params = GtsParams::default().with_shards(2);
        let sharded =
            ShardedGts::build(&pool, data.items.clone(), data.metric, params).expect("build");
        let err = ShardedGts::restore(&pool, store, data.metric, &sharded.snapshot()).err();
        assert!(rejected(err), "{kind:?}: ShardedGts");
    }
}
