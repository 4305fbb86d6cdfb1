//! End-to-end trace export: run a traced service for a short mixed
//! workload, then write the whole run as a Chrome-trace JSON you can load
//! in `chrome://tracing` or <https://ui.perfetto.dev> — one track per
//! simulated device, spans for lane batches / shard scatters / descent
//! levels / kernel launches, instants for admission and faults.
//!
//! ```sh
//! cargo run --release --example trace_dump
//! # then open trace_dump.json in Perfetto
//! ```

use gts::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // A replicated 2-shard × 2-replica backend on 4 simulated devices.
    let data = DatasetKind::Words.generate(2_000, 7);
    let pool = DevicePool::rtx_2080_ti(4);
    let index = Arc::new(
        ReplicatedShards::build(
            &pool,
            data.items.clone(),
            data.metric,
            GtsParams::default().with_shards(2).with_replicas(2),
        )
        .expect("build"),
    );

    // Tracing on: every layer records into one shared bounded recorder.
    let cfg = ServiceConfig::default()
        .with_max_batch(16)
        .with_flush_deadline(Duration::from_millis(1))
        .with_tracing(TraceConfig {
            enabled: true,
            ..TraceConfig::default()
        });
    let svc = QueryService::start_replicated(Arc::clone(&index), cfg);
    let h = svc.handle();

    let mut tickets = Vec::new();
    for i in 0..120 {
        let q = data.items[(i * 13) % data.items.len()].clone();
        let req = match i % 4 {
            0 => Request::Range {
                query: q,
                radius: 2.0,
            },
            1 => Request::Insert { object: q },
            _ => Request::Knn { query: q, k: 5 },
        };
        tickets.push(h.submit(req).expect("admitted"));
    }
    for t in tickets {
        t.wait().expect("answered").result.expect("ok");
    }

    let rec = svc
        .trace()
        .cloned()
        .expect("tracing was enabled in the config");

    // The per-stage latency table (simulated cycles, from the recorder).
    println!("{}", rec.summary().to_table());

    // The Chrome-trace export, schema-checked before it leaves the process.
    let json = rec.to_chrome_json();
    let events = validate_chrome_trace(&json).expect("the export satisfies the trace_event schema");
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "trace_dump.json".to_string());
    std::fs::write(&path, &json).expect("write trace file");
    println!(
        "wrote {path}: {events} trace events ({} recorded, {} dropped by the rings)",
        rec.events().len(),
        rec.dropped(),
    );
    println!("open it in chrome://tracing or https://ui.perfetto.dev");

    let stats = svc.shutdown();
    println!(
        "served {} requests in {} batches across {} lanes",
        stats.completed, stats.batches, stats.lanes
    );
}
