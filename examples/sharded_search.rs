//! Sharded search quickstart: partition a string dataset over four
//! simulated GPUs, scatter batched queries to every shard, and merge the
//! answers exactly — then compare the sharded critical path against a
//! single-device run of the same workload.
//!
//! ```sh
//! cargo run --release --example sharded_search
//! ```

use gts::prelude::*;

const SHARDS: u32 = 4;

fn main() {
    // 1. A metric dataset: English-like words under edit distance.
    let data = DatasetKind::Words.generate(20_000, 42);
    println!(
        "dataset: {} ({} objects, metric = edit distance)",
        data.name,
        data.len()
    );

    // 2. A pool of four simulated GPUs (RTX 2080 Ti preset each) and a
    //    4-shard index: round-robin partitioning, one sub-index per device.
    let pool = DevicePool::rtx_2080_ti(SHARDS as usize);
    let t0 = std::time::Instant::now();
    let index = ShardedGts::build(
        &pool,
        data.items.clone(),
        data.metric,
        GtsParams::default().with_shards(SHARDS),
    )
    .expect("sharded construction");
    println!(
        "built {} shards: {:.2} MB total index, build span {:.2} ms simulated, {:.0?} wall",
        index.num_shards(),
        index.memory_bytes() as f64 / 1e6,
        pool.span_seconds() * 1e3,
        t0.elapsed(),
    );
    pool.reset_clocks();

    // 3. Batched queries are scattered to every shard and merged exactly:
    //    range by concatenation + canonical sort, kNN by a k-way merge
    //    under the same (distance, id) tie-break as a single device.
    let queries = vec![Item::text("stone"), Item::text("grape"), Item::text("a")];
    let radii = vec![1.0; queries.len()];
    let mrq = index.batch_range(&queries, &radii).expect("range");
    let knn = index.batch_knn(&queries, 5).expect("knn");
    for ((q, hits), nn) in queries.iter().zip(&mrq).zip(&knn) {
        println!(
            "\nMRQ({:?}, r=1) -> {} hits; MkNNQ k=5:",
            q.as_text().expect("text"),
            hits.len()
        );
        for n in nn {
            println!("  {:>6}  d={}  {:?}", n.id, n.dist, data.item(n.id));
        }
    }

    // 4. Per-shard accounting: each shard pruned/verified over its own
    //    partition, on its own device.
    println!("\nper-shard stats:");
    for s in 0..index.num_shards() {
        let st = index.shard(s).stats();
        let dev = pool.get(s);
        println!(
            "  shard {s}: {:>6} dist computations, {:>5} nodes expanded, {:>7} cycles ({:.3} ms)",
            st.distance_computations,
            st.nodes_expanded,
            dev.cycles(),
            dev.sim_seconds() * 1e3,
        );
    }

    // 5. The aggregate: counters sum; elapsed simulated time is the MAX
    //    per-device clock (shards run concurrently) — the sharded critical
    //    path. Compare against one device doing all the work alone.
    let agg = pool.aggregate();
    let total = index.stats();
    println!(
        "\naggregate: {} distance computations, span {} cycles ({:.3} ms critical path, {:.3} ms total device-time)",
        total.distance_computations,
        agg.span_cycles,
        index.span_cycles() as f64 / pool.get(0).config().clock_hz * 1e3,
        agg.cycles_total as f64 / pool.get(0).config().clock_hz * 1e3,
    );

    // 6. The scaling story, on a production-shaped batch (256 queries):
    //    each shard descends a smaller tree and verifies a quarter of the
    //    leaves, so the critical path shrinks while answers stay
    //    bit-identical.
    let big_batch: Vec<Item> = (0..256u32).map(|i| data.item(i * 11).clone()).collect();
    pool.reset_clocks();
    let sharded_knn = index.batch_knn(&big_batch, 10).expect("knn");
    let sharded_span = index.span_cycles();

    let single_dev = Device::rtx_2080_ti();
    let single = Gts::build(
        &single_dev,
        data.items.clone(),
        data.metric,
        GtsParams::default(),
    )
    .expect("single-device construction");
    single_dev.reset_clock();
    let single_knn = single.batch_knn(&big_batch, 10).expect("knn");
    assert_eq!(sharded_knn, single_knn, "sharded answers are bit-identical");
    println!(
        "\n256-query MkNNQ batch: single device {} cycles, {SHARDS}-shard span {} cycles -> {:.2}x shorter critical path (answers bit-identical)",
        single_dev.cycles(),
        sharded_span,
        single_dev.cycles() as f64 / sharded_span as f64,
    );
}
