//! Online serving quickstart: stand up the query service over a 2-shard
//! index, fire individual requests at it from several client threads (the
//! shape real traffic arrives in), and watch the microbatcher coalesce
//! them into batches — then read the latency story out of `ServiceStats`.
//!
//! ```sh
//! cargo run --release --example online_service
//! ```

use gts::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const SHARDS: u32 = 2;
const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 500;

fn main() {
    // 1. A sharded index: the serving backend.
    let data = DatasetKind::Words.generate(8_000, 7);
    let pool = DevicePool::rtx_2080_ti(SHARDS as usize);
    let index = ShardedGts::build(
        &pool,
        data.items.clone(),
        data.metric,
        GtsParams::default().with_shards(SHARDS),
    )
    .expect("sharded construction");
    println!(
        "index: {} objects over {} shards",
        data.len(),
        index.num_shards(),
    );

    // 2. The service: bounded admission queue, a batch target of 256
    //    requests (small enough that the size trigger shows in this demo;
    //    the descent's two-stage strategy keeps any batch within device
    //    memory). A request that finds its lane idle ships at once; one
    //    queued behind a busy lane waits at most the 2 ms flush deadline.
    let cfg = ServiceConfig::default()
        .with_queue_depth(2048)
        .with_max_batch(256)
        .with_flush_deadline(Duration::from_millis(2));
    // The service takes the index by value: while it runs, the replicas are
    // fenced against direct mutation — all reads and writes go through the
    // queue. The pool handle above still reads the shared device clocks.
    let service = QueryService::start(index, cfg);
    println!(
        "service up: batch target {} requests (size trigger), deadline {:?}",
        service.batch_target(),
        cfg.flush_deadline,
    );

    // 3. Clients: each submits individual range/kNN requests and waits for
    //    its own responses — no client ever sees a batch.
    let items = Arc::new(data.items);
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let handle = service.handle();
            let items = Arc::clone(&items);
            s.spawn(move || {
                let mut tickets = Vec::new();
                for i in 0..REQUESTS_PER_CLIENT {
                    let q = items[(c * 7919 + i * 13) % items.len()].clone();
                    let req = if i % 2 == 0 {
                        Request::Knn { query: q, k: 5 }
                    } else {
                        Request::Range {
                            query: q,
                            radius: 2.0,
                        }
                    };
                    loop {
                        match handle.submit(req.clone()) {
                            Ok(t) => {
                                tickets.push(t);
                                break;
                            }
                            // Backpressure: the queue is at depth — a real
                            // client backs off and retries.
                            Err(ServiceError::QueueFull { .. }) => {
                                std::thread::sleep(Duration::from_micros(100));
                            }
                            Err(e) => panic!("submit failed: {e}"),
                        }
                    }
                }
                let mut hits = 0usize;
                for t in tickets {
                    let r = t.wait().expect("response");
                    hits += r.result.expect("answer").neighbors().len();
                }
                println!("client {c}: {REQUESTS_PER_CLIENT} answers, {hits} neighbours total");
            });
        }
    });

    // 4. The serving story, from the service's own stats.
    let stats = service.shutdown();
    println!("\n--- service stats ---");
    println!(
        "admitted {} / rejected {} / completed {}",
        stats.admitted, stats.rejected, stats.completed
    );
    println!(
        "batches: {} (idle {}, size {}, deadline {}, shutdown {}), target {}",
        stats.batches,
        stats.idle_flushes,
        stats.size_flushes,
        stats.deadline_flushes,
        stats.shutdown_flushes,
        stats.batch_target,
    );
    println!(
        "queue wait:  mean {:.0} us, p50 ≈ {} / p95 ≈ {} / p99 ≈ {} us, max {} us",
        stats.queue_wait_us.mean(),
        stats.queue_wait_us.quantile(0.50),
        stats.queue_wait_us.quantile(0.95),
        stats.queue_wait_us.quantile(0.99),
        stats.queue_wait_us.max(),
    );
    println!(
        "batch span:  mean {:.0} cycles, p50 ≈ {} / p95 ≈ {} / p99 ≈ {} cycles over {} index calls",
        stats.batch_span_cycles.mean(),
        stats.batch_span_cycles.quantile(0.50),
        stats.batch_span_cycles.quantile(0.95),
        stats.batch_span_cycles.quantile(0.99),
        stats.batch_span_cycles.count(),
    );
    println!(
        "index work:  {} distance computations, {} nodes pruned, span {:.2} ms simulated",
        stats.index.distance_computations,
        stats.index.nodes_pruned,
        pool.span_seconds() * 1e3,
    );
}
