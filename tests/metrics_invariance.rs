//! Metrics invariance: the contract of the service's Prometheus scrape
//! (`gts_service::metrics`), proven end-to-end through the service.
//!
//! * **Observation is free of semantic cost** — metrics on ⇒ answers,
//!   epochs, and simulated device cycles bit-identical to metrics off.
//! * **Exposition is deterministic** — for a fixed seed, every
//!   cycle-domain family (device utilization, batch spans, request
//!   counters) reproduces exactly across runs, at every shard and
//!   lane count; two scrapes of an idle service are byte-identical.
//! * **Exposition is a view of the ledger** — the text scrape parses back
//!   with [`parse_prometheus`], every ledger-derived sample equals its
//!   [`ServiceStats`] field, and a request is counted before its ticket
//!   returns.
//! * **Exposition is well-formed** — families in name order, one `# TYPE`
//!   each before its samples, no sample twice, stage series in
//!   `STAGE_ORDER`, and cumulative histogram buckets whose `+Inf` bucket
//!   is the `_count`.
//! * **The device clock partitions** — for every device,
//!   `busy + transfer + stall + idle == span`, read straight off the
//!   scraped gauges.

use gts::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// A mixed query + update sequence (same shape the tracing invariance
/// tests use): ranges, two kNN shapes, and inserts interleaved.
fn mixed_sequence(items: &[Item], n: usize) -> Vec<Request<Item>> {
    (0..n)
        .map(|i| {
            let q = items[(i * 13) % items.len()].clone();
            match i % 5 {
                0 => Request::Range {
                    query: q,
                    radius: 2.0,
                },
                1 | 3 => Request::Knn { query: q, k: 3 },
                2 => Request::Insert { object: q },
                _ => Request::Knn { query: q, k: 6 },
            }
        })
        .collect()
}

/// Run `n` mixed requests through a fresh stack (one in flight at a time,
/// so batch formation is a pure function of the sequence; traced when
/// `traced`) and return
/// everything observable: outcomes, final cycles, and the **settled**
/// exposition text rendered from the post-shutdown snapshot (empty when
/// metrics are off) — after shutdown every lane has drained, including
/// broadcast update copies still in flight on sibling lanes at live-scrape
/// time.
#[allow(clippy::type_complexity)]
fn metered_run(
    shards: u32,
    replicas: u32,
    lanes: usize,
    metrics_on: bool,
    traced: bool,
    n: usize,
) -> (
    Vec<(Result<Reply, ServiceError>, u64)>,
    u64,
    u64,
    String,
    ServiceStats,
) {
    let data = DatasetKind::Words.generate(360, 909);
    let pool = DevicePool::rtx_2080_ti((shards * replicas) as usize);
    let index = Arc::new(
        ReplicatedShards::build(
            &pool,
            data.items.clone(),
            data.metric,
            GtsParams::default()
                .with_shards(shards)
                .with_replicas(replicas),
        )
        .expect("build"),
    );
    let cfg = ServiceConfig::default()
        .with_max_batch(4)
        .with_flush_deadline(Duration::from_millis(1))
        .with_lanes(lanes)
        .with_metrics(metrics_on)
        .with_tracing(TraceConfig {
            enabled: traced,
            ..TraceConfig::default()
        });
    let svc = QueryService::start_replicated(Arc::clone(&index), cfg);
    let h = svc.handle();
    let outcomes: Vec<(Result<Reply, ServiceError>, u64)> = mixed_sequence(&data.items, n)
        .into_iter()
        .map(|r| {
            let resp = h.submit(r).expect("admitted").wait().expect("answered");
            (resp.result, resp.epoch)
        })
        .collect();
    if metrics_on {
        assert!(
            svc.scrape().is_some_and(|s| !s.is_empty()),
            "a live scrape renders while the service runs"
        );
    } else {
        assert!(svc.scrape().is_none(), "metrics off has nothing to scrape");
    }
    let stats = svc.shutdown();
    let scrape = stats.metrics.clone().unwrap_or_default();
    (
        outcomes,
        index.span_cycles(),
        index.pool().aggregate().cycles_total,
        scrape,
        stats,
    )
}

/// Drop the host-time families (queue waits are wall-clock microseconds
/// and lawfully vary run to run); everything left is cycle-domain or
/// count-domain and must reproduce exactly.
fn cycle_domain(scrape: &str) -> String {
    scrape
        .lines()
        .filter(|l| !l.contains("gts_queue_wait_microseconds"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Metrics on ⇒ answers, epochs, and simulated cycles bit-identical to
/// metrics off: the view observes the clocks, never advances them.
#[test]
fn metrics_change_no_answer_epoch_or_cycle() {
    for shards in [1u32, 2] {
        let (plain, span_p, total_p, scrape_p, _) = metered_run(shards, 1, 1, false, false, 30);
        let (metered, span_m, total_m, scrape_m, stats) =
            metered_run(shards, 1, 1, true, false, 30);
        assert_eq!(plain, metered, "shards = {shards}: answers and epochs");
        assert_eq!(span_p, span_m, "shards = {shards}: critical-path cycles");
        assert_eq!(total_p, total_m, "shards = {shards}: total device cycles");
        assert!(scrape_p.is_empty(), "metrics off exposes nothing");
        assert!(!scrape_m.is_empty(), "metrics on exposes the run");
        assert_eq!(
            stats.metrics,
            Some(scrape_m),
            "ServiceStats carries the text"
        );
    }
}

/// For a fixed seed the cycle-domain exposition itself reproduces —
/// across shard and lane counts (2 lanes ride 2 replicas so concurrent
/// lanes own disjoint devices).
#[test]
fn cycle_domain_metrics_reproduce_for_a_fixed_seed() {
    for shards in [1u32, 2] {
        for lanes in [1usize, 2] {
            let replicas = lanes as u32;
            let (o1, s1, t1, m1, _) = metered_run(shards, replicas, lanes, true, false, 25);
            let (o2, s2, t2, m2, _) = metered_run(shards, replicas, lanes, true, false, 25);
            assert_eq!(o1, o2, "shards={shards} lanes={lanes}: outcomes");
            assert_eq!((s1, t1), (s2, t2), "shards={shards} lanes={lanes}: cycles");
            assert_eq!(
                cycle_domain(&m1),
                cycle_domain(&m2),
                "shards={shards} lanes={lanes}: cycle-domain exposition reproduces"
            );
        }
    }
}

/// Two scrapes of an idle service are byte-identical: each scrape renders
/// a fresh view of unchanged state and never counts itself.
#[test]
fn idle_service_scrapes_are_byte_identical() {
    let (_, _, _, first, _) = {
        let data = DatasetKind::Words.generate(360, 909);
        let pool = DevicePool::rtx_2080_ti(1);
        let index = Arc::new(
            ReplicatedShards::build(&pool, data.items.clone(), data.metric, GtsParams::default())
                .expect("build"),
        );
        let cfg = ServiceConfig::default()
            .with_max_batch(4)
            .with_flush_deadline(Duration::from_millis(1))
            .with_metrics(true);
        let svc = QueryService::start_replicated(index, cfg);
        let h = svc.handle();
        for r in mixed_sequence(&data.items, 15) {
            h.submit(r)
                .expect("admitted")
                .wait()
                .expect("answered")
                .result
                .expect("ok");
        }
        let a = svc.scrape().expect("metrics on");
        let b = svc.scrape().expect("metrics on");
        assert_eq!(a, b, "idle double-scrape must not drift");
        (0, 0, 0u64, a, svc.shutdown())
    };
    assert!(!first.is_empty());
}

/// The scrape of a traced, metered 2-shard × 2-replica stack is
/// well-formed ([`assert_well_formed`]), parses back under the exposition
/// grammar, the recovered per-device gauges satisfy the clock partition
/// exactly (`busy + transfer + stall + idle == span` for every device),
/// and every ledger-derived sample equals its `ServiceStats` field.
#[test]
fn scrape_is_conformant_and_device_clocks_partition() {
    let (_, _, _, scrape, stats) = metered_run(2, 2, 2, true, true, 30);
    assert_well_formed(&scrape);
    let samples = parse_prometheus(&scrape).expect("exposition parses back");
    assert!(!samples.is_empty());

    // Recover the per-device components from the parsed samples.
    let mut devices: BTreeMap<String, BTreeMap<String, u64>> = BTreeMap::new();
    for s in &samples {
        if let Some(part) = s
            .name
            .strip_prefix("gts_device_")
            .and_then(|n| n.strip_suffix("_cycles"))
        {
            let dev = s
                .labels
                .iter()
                .find(|(k, _)| k == "device")
                .map(|(_, v)| v.clone())
                .expect("device gauges are labelled");
            devices
                .entry(dev)
                .or_default()
                .insert(part.into(), s.value as u64);
        }
    }
    assert_eq!(devices.len(), 4, "2 shards × 2 replicas = 4 devices");
    for (dev, parts) in &devices {
        let sum = parts["busy"] + parts["transfer"] + parts["stall"] + parts["idle"];
        assert_eq!(
            sum, parts["span"],
            "device {dev}: busy+transfer+stall+idle must equal span"
        );
        assert!(parts["span"] > 0, "device {dev} saw work");
    }

    // Every ledger-derived sample is the ledger field it views.
    let sample = |name: &str, label: Option<(&str, &str)>| -> u64 {
        samples
            .iter()
            .find(|s| {
                s.name == name
                    && label.map_or(s.labels.is_empty(), |(k, v)| {
                        s.labels.iter().any(|(sk, sv)| sk == k && sv == v)
                    })
            })
            .unwrap_or_else(|| panic!("{name} {label:?} in the scrape"))
            .value as u64
    };
    let trigger = |t| Some(("trigger", t));
    for (name, label, want) in [
        ("gts_requests_admitted_total", None, stats.admitted),
        ("gts_requests_rejected_total", None, stats.rejected),
        ("gts_requests_served_total", None, stats.completed),
        ("gts_requests_failed_total", None, stats.failed),
        ("gts_batches_total", trigger("idle"), stats.idle_flushes),
        ("gts_batches_total", trigger("size"), stats.size_flushes),
        (
            "gts_batches_total",
            trigger("deadline"),
            stats.deadline_flushes,
        ),
        (
            "gts_batches_total",
            trigger("shutdown"),
            stats.shutdown_flushes,
        ),
        (
            "gts_queue_wait_microseconds_count",
            None,
            stats.queue_wait_us.count(),
        ),
        (
            "gts_queue_wait_microseconds_sum",
            None,
            stats.queue_wait_us.sum(),
        ),
        (
            "gts_batch_span_cycles_count",
            None,
            stats.batch_span_cycles.count(),
        ),
        (
            "gts_batch_span_cycles_sum",
            None,
            stats.batch_span_cycles.sum(),
        ),
    ] {
        assert_eq!(
            sample(name, label),
            want,
            "{name} {label:?} views the ledger"
        );
    }
    assert_eq!(stats.completed, 30, "every request served");
}

/// The structure of an exposition, checked line by line on the raw text:
/// families appear in name order, each opened by exactly one `# TYPE`
/// before its samples; no `(name, labels)` sample appears twice; the
/// `gts_stage_cycles` series follow [`STAGE_ORDER`](gts::trace::STAGE_ORDER);
/// and every histogram series has cumulative buckets ending in
/// `le="+Inf"`, whose value equals its `_count`.
fn assert_well_formed(scrape: &str) {
    type Labels = Vec<(String, String)>;
    let mut families: Vec<(&str, &str)> = Vec::new();
    let mut seen: Vec<(String, Labels)> = Vec::new();
    let mut stages: Vec<String> = Vec::new();
    // The last `_bucket` sample of the current histogram series: its
    // labels without `le`, its `le`, its cumulative count.
    let mut bucket: Option<(Labels, String, f64)> = None;
    for line in scrape.lines() {
        if let Some(decl) = line.strip_prefix("# TYPE ") {
            let (name, kind) = decl.split_once(' ').expect("`# TYPE name kind`");
            assert!(
                families.iter().all(|&(f, _)| f != name),
                "{name} has exactly one # TYPE"
            );
            families.push((name, kind));
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let mut parsed = parse_prometheus(line).expect("sample parses");
        let s = parsed.pop().expect("one sample per line");
        let &(family, kind) = families
            .last()
            .unwrap_or_else(|| panic!("{line}: no # TYPE before it"));
        let suffix = s.name.strip_prefix(family).unwrap_or("<other family>");
        let allowed: &[&str] = match kind {
            "histogram" => &["_bucket", "_sum", "_count"],
            _ => &[""],
        };
        assert!(
            allowed.contains(&suffix),
            "{line} sits under its own family's # TYPE, not {family}"
        );
        assert!(
            !seen.contains(&(s.name.clone(), s.labels.clone())),
            "{line} appears twice"
        );
        seen.push((s.name.clone(), s.labels.clone()));
        if kind != "histogram" {
            continue;
        }
        let (le, labels): (Labels, Labels) = s.labels.into_iter().partition(|(k, _)| k == "le");
        match suffix {
            "_bucket" => {
                if let Some((prev, _, count)) = &bucket {
                    assert!(
                        *prev != labels || *count <= s.value,
                        "{line}: buckets are cumulative"
                    );
                }
                bucket = Some((labels, le[0].1.clone(), s.value));
            }
            "_count" => {
                if family == "gts_stage_cycles" {
                    stages.push(labels[0].1.clone());
                }
                let last = bucket.take().expect("buckets before _count");
                assert_eq!(
                    last,
                    (labels, "+Inf".to_string(), s.value),
                    "{line}: the +Inf bucket closes the series and equals _count"
                );
            }
            _ => {}
        }
    }
    let names: Vec<&str> = families.iter().map(|&(f, _)| f).collect();
    assert!(
        names.windows(2).all(|w| w[0] < w[1]),
        "families in name order: {names:?}"
    );
    let ranks: Vec<usize> = stages
        .iter()
        .map(|s| {
            gts::trace::STAGE_ORDER
                .iter()
                .position(|o| o == s)
                .unwrap_or_else(|| panic!("stage {s} is in STAGE_ORDER"))
        })
        .collect();
    assert!(!ranks.is_empty(), "a traced stack scrapes its stages");
    assert!(
        ranks.windows(2).all(|w| w[0] < w[1]),
        "stage series follow STAGE_ORDER: {stages:?}"
    );
}

/// 10k-request metered soak (the CI `metrics` job runs it with
/// `--include-ignored`): a 2-shard × 2-replica stack serves 10 000 mixed
/// requests with metrics on throughout. Asserts the full contract at scale
/// — every request served, the clock partition holding on all four devices
/// — and prints the per-device utilization table REPORT.md §11 reproduces.
#[test]
#[ignore = "soak: run explicitly or via CI --include-ignored"]
fn metered_soak_10k_requests() {
    const N: usize = 10_000;
    let data = DatasetKind::Words.generate(2_000, 2026);
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
    let cfg = ServiceConfig::default()
        .with_queue_depth(256)
        .with_flush_deadline(Duration::from_millis(1))
        .with_lanes(2)
        .with_metrics(true);
    let svc = QueryService::start_replicated(Arc::clone(&index), cfg);
    let h = svc.handle();
    for wave in mixed_sequence(&data.items, N).chunks(64) {
        let tickets: Vec<_> = wave
            .iter()
            .map(|r| h.submit(r.clone()).expect("admitted"))
            .collect();
        for t in tickets {
            t.wait().expect("answered").result.expect("ok");
        }
    }

    let stats = svc.shutdown();
    assert_eq!(stats.completed, N as u64, "every request served");
    let scrape = stats.metrics.expect("metrics on");
    let samples = parse_prometheus(&scrape).expect("exposition parses back");

    // Per-device utilization table (+ the partition assertion at scale).
    let mut devices: BTreeMap<String, BTreeMap<String, u64>> = BTreeMap::new();
    for s in &samples {
        if let Some(part) = s.name.strip_prefix("gts_device_").and_then(|n| {
            n.strip_suffix("_cycles")
                .or_else(|| n.strip_suffix("_allocated_bytes"))
        }) {
            let dev = s
                .labels
                .iter()
                .find(|(k, _)| k == "device")
                .map(|(_, v)| v.clone())
                .expect("device gauges are labelled");
            devices
                .entry(dev)
                .or_default()
                .insert(part.into(), s.value as u64);
        }
    }
    assert_eq!(devices.len(), 4, "2 shards × 2 replicas = 4 devices");
    println!("device | busy | transfer | stall | idle | span | busy% | peak_alloc");
    for (dev, p) in &devices {
        assert_eq!(
            p["busy"] + p["transfer"] + p["stall"] + p["idle"],
            p["span"],
            "device {dev}: partition holds at soak scale"
        );
        println!(
            "{dev} | {} | {} | {} | {} | {} | {:.1}% | {}",
            p["busy"],
            p["transfer"],
            p["stall"],
            p["idle"],
            p["span"],
            100.0 * p["busy"] as f64 / p["span"] as f64,
            p["peak"],
        );
    }

    println!(
        "served {} requests in {} batches across {} lanes",
        stats.completed, stats.batches, stats.lanes
    );
}

/// The ledger counts a response before sending it: the moment a ticket's
/// `wait` returns, both the stats and a live scrape already include that
/// request — across 1 lane × 1 replica and 2 lanes × 2 replicas, over a
/// mix of kNN, range and insert requests sent one at a time.
#[test]
fn a_request_is_counted_before_its_ticket_returns() {
    const N: usize = 200;
    for (lanes, replicas) in [(1usize, 1u32), (2, 2)] {
        let data = DatasetKind::Words.generate(300, 11);
        let pool = DevicePool::rtx_2080_ti(replicas as usize);
        let index = Arc::new(
            ReplicatedShards::build(
                &pool,
                data.items.clone(),
                data.metric,
                GtsParams::default().with_replicas(replicas),
            )
            .expect("build"),
        );
        let cfg = ServiceConfig::default()
            .with_max_batch(4)
            .with_flush_deadline(Duration::from_millis(1))
            .with_lanes(lanes)
            .with_metrics(true);
        let svc = QueryService::start_replicated(index, cfg);
        let h = svc.handle();
        for (i, r) in mixed_sequence(&data.items, N).into_iter().enumerate() {
            h.submit(r)
                .expect("admitted")
                .wait()
                .expect("answered")
                .result
                .expect("ok");
            let want = i as u64 + 1;
            assert_eq!(
                svc.stats().completed,
                want,
                "{lanes} lanes: stats count request {i} once its ticket returned"
            );
            let scrape = svc.scrape().expect("metrics on");
            let served = parse_prometheus(&scrape)
                .expect("exposition parses back")
                .into_iter()
                .find(|s| s.name == "gts_requests_served_total")
                .expect("served counter")
                .value as u64;
            assert_eq!(served, want, "{lanes} lanes: the scrape counts request {i}");
        }
        assert_eq!(svc.shutdown().completed, N as u64);
    }
}
