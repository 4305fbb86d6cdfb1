//! Metrics scrape: run a metered (and traced) service for a short mixed
//! workload, then print the Prometheus text exposition — request and
//! batch counters read off the service's stats ledger, per-device
//! utilization with the exact clock partition `busy + transfer + stall + idle ==
//! span`, and per-stage span histograms.
//!
//! ```sh
//! cargo run --release --example metrics_scrape
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

    // Metrics AND tracing on: the scrape folds the per-stage trace summary
    // into `gts_stage_cycles{stage=...}`.
    let cfg = ServiceConfig::default()
        .with_flush_deadline(Duration::from_millis(1))
        .with_lanes(2)
        .with_metrics(true)
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

    let scrape = svc.scrape().expect("metrics were enabled in the config");
    println!("{scrape}");

    // The scrape is conformant text exposition: parse it back and derive
    // the per-device busy fractions from the recovered gauges.
    let samples = parse_prometheus(&scrape).expect("exposition parses");
    println!("# derived from the scrape:");
    for dev in 0..4 {
        let get = |name: &str| {
            samples
                .iter()
                .find(|s| {
                    s.name == name
                        && s.labels
                            .iter()
                            .any(|(k, v)| k == "device" && v == &dev.to_string())
                })
                .map_or(0.0, |s| s.value)
        };
        let span = get("gts_device_span_cycles");
        let busy = get("gts_device_busy_cycles");
        println!(
            "#   device {dev}: busy {:5.1}% of {span:.0} span cycles",
            if span > 0.0 { 100.0 * busy / span } else { 0.0 },
        );
    }

    let stats = svc.shutdown();
    println!(
        "# served {} requests in {} batches across {} lanes",
        stats.completed, stats.batches, stats.lanes
    );
}
