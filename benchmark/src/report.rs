//! The metrics the runner prints, by name and unit, and the result record.
//! `tests/manifest.rs` holds these lists against `BENCHMARK.json`: every
//! name here is declared there and the other way round.

use crate::json::{object, Value};
use crate::spans::Breakdown;
use std::collections::BTreeMap;

/// A declared metric: `(name, unit)`.
pub type Decl = (&'static str, &'static str);

/// An end-to-end metric with the share of the base median by which it may
/// worsen before `compare` calls it a regression.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

/// What a user of the system would see. Every workload reports every one,
/// measured with tracing and metrics off.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("ops_per_s", "1/s", true, 0.25),
    e2e("latency_ms_p50", "ms", false, 0.25),
    e2e("setup_rss_mb", "MB", false, 0.15),
    e2e("sim_cycles_per_op", "cycles", false, 0.08),
];

/// Single layers, from the traced pass (layer = crate). A workload that
/// does not exercise a layer reports 0 for that layer's metrics.
pub const PER_LAYER: &[Decl] = &[
    ("metric.ns_per_distance", "ns"),
    ("metric.kernel_share", "share"),
    ("metric.arena_build_ms", "ms"),
    ("gpu_sim.kernels_per_op", "count"),
    ("gpu_sim.busy_fraction", "share"),
    ("gpu_sim.transfer_cycles_per_op", "cycles"),
    ("gpu_sim.stall_cycles_per_op", "cycles"),
    ("gpu_sim.h2d_bytes_per_op", "B"),
    ("gpu_sim.d2h_bytes_per_op", "B"),
    ("gpu_sim.peak_allocated_bytes", "B"),
    ("gpu_sim.oom_events", "count"),
    ("gpu_sim.sort_ns_per_pair", "ns"),
    ("gpu_sim.compact_ns_per_elem", "ns"),
    ("gpu_sim.topk_ns_per_key", "ns"),
    ("gpu_sim.host_ns_per_sim_cycle", "ns"),
    ("core.distances_per_op", "count"),
    ("core.distance_fraction", "share"),
    ("core.node_prune_ratio", "share"),
    ("core.leaf_filter_ratio", "share"),
    ("core.leaf_abandoned_per_op", "count"),
    ("core.groups_per_batch", "count"),
    ("core.max_frontier", "count"),
    ("core.build_s", "s"),
    ("core.self_share", "share"),
    ("core.speedup_vs_scan", "ratio"),
    ("core.shard_overhead_ratio", "ratio"),
    ("core.replica_overhead_ratio", "ratio"),
    ("core.insert_us_p50", "us"),
    ("core.batch_update_ms", "ms"),
    ("core.rebuilds", "count"),
    ("core.cost_model_fit_ms", "ms"),
    ("core.snapshot_ms", "ms"),
    ("core.restore_ms", "ms"),
    ("core.snapshot_bytes_per_object", "B"),
    ("service.latency_ms_p99", "ms"),
    ("service.latency_ms_p99_low", "ms"),
    ("service.latency_ms_p99_high", "ms"),
    ("service.max_rate_within_slo_rps", "1/s"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.queue_wait_ms_p99", "ms"),
    ("service.exec_ms_p50", "ms"),
    ("service.batch_size_mean", "count"),
    ("service.batch_size_p50", "count"),
    ("service.batches", "count"),
    ("service.flush_size_share", "share"),
    ("service.flush_deadline_share", "share"),
    ("service.rejected_share", "share"),
    ("service.failed", "count"),
    ("service.retries", "count"),
    ("service.degraded_calls", "count"),
    ("service.update_batches", "count"),
    ("service.final_epoch", "count"),
    ("service.lane_imbalance", "ratio"),
    ("service.submit_us_p50", "us"),
    ("service.submit_us_p99", "us"),
    ("service.overhead_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.events_per_op", "count"),
    ("trace.dropped_events", "count"),
    ("trace.export_ms", "ms"),
    ("metrics.overhead_ratio", "ratio"),
    ("metrics.scrape_ms", "ms"),
    ("metrics.exposition_bytes", "B"),
    ("baselines.scan_ops_per_s", "1/s"),
    ("baselines.scan_ns_per_distance", "ns"),
    ("loadgen.latency_ms_p90", "ms"),
    ("loadgen.peak_rss_mb", "MB"),
    ("loadgen.lag_ms_p99", "ms"),
    ("loadgen.oracle_checked", "count"),
];

/// Metric values by declared name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Record `name`; panics on a name that is not declared, so a typo
    /// cannot print an undeclared metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|(n, _)| *n == name),
            "metric `{name}` is not declared in report.rs"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The outcome of one run of one workload.
#[derive(Clone, Debug)]
pub struct RunResult {
    pub workload: &'static str,
    pub traced: bool,
    pub seed: u64,
    pub input_hash: u64,
    pub attempted: u64,
    /// Failed + refused + wrong per the oracle.
    pub failed: u64,
    pub metrics: Metrics,
    /// Things a reader should know: a percentile fallback, a late generator.
    pub notes: Vec<String>,
    /// False when the load generator ran too late for the latencies to mean
    /// what they say (`loadgen.lag_ms_p99` above [`MAX_LAG_MS`]).
    pub valid: bool,
    pub breakdown: Option<Breakdown>,
}

/// Open-loop generator lag (p99) beyond which a run is marked invalid. On
/// two cores the generator shares them with the program: a flushed batch
/// that holds a range request keeps both busy for about 4 ms, and the
/// submitter waits its turn. `serve-knn-open` reads 3.8 ms on the commit that
/// added the benchmark; beyond 5 ms something else is holding the machine.
pub const MAX_LAG_MS: f64 = 5.0;

impl RunResult {
    pub fn declared(&self) -> Vec<Decl> {
        if self.traced {
            PER_LAYER.to_vec()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The `metrics` object: every declared metric of this pass. A metric
    /// the pass did not set reads 0 (a layer the workload does not touch).
    fn metrics_value(&self) -> Value {
        object(self.declared().into_iter().map(|(name, unit)| {
            let value = self.metrics.get(name).unwrap_or(0.0);
            (
                name,
                object([
                    ("value", Value::Num(value)),
                    ("unit", Value::Str(unit.into())),
                ]),
            )
        }))
    }

    /// The one-line result the benchmark contract asks for.
    pub fn contract_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_value().render()
        )
    }

    /// The fuller record `--out` files hold (what `compare` reads).
    pub fn record(&self) -> Value {
        object([
            ("workload", Value::Str(self.workload.into())),
            ("traced", Value::Bool(self.traced)),
            ("seed", Value::Str(self.seed.to_string())),
            (
                "input_hash",
                Value::Str(format!("{:016x}", self.input_hash)),
            ),
            ("correct", Value::Bool(self.correct())),
            ("valid", Value::Bool(self.valid)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "notes",
                Value::Arr(self.notes.iter().cloned().map(Value::Str).collect()),
            ),
            ("metrics", self.metrics_value()),
        ])
    }

    /// Every metric by name with its unit, for people.
    pub fn print_table(&self) {
        println!(
            "== {} (seed {}, {} pass, input {:016x}) ==",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.input_hash
        );
        for (name, unit) in self.declared() {
            println!(
                "  {name:<36} {:>16.4} {unit}",
                self.metrics.get(name).unwrap_or(0.0)
            );
        }
        if let Some(b) = &self.breakdown {
            println!(
                "  self time by layer, as a share of the outermost span ({:.3} s):",
                b.outer_ns as f64 / 1e9
            );
            for name in b.self_ns.keys() {
                println!("    {name:<34} {:>8.4}", b.share(name));
            }
            println!("    {:<34} {:>8.4}", "(residual)", b.residual_share());
        }
        println!(
            "  attempted {} failed {} valid {}",
            self.attempted, self.failed, self.valid
        );
        for note in &self.notes {
            println!("  note: {note}");
        }
    }
}
