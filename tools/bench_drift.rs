//! Bench drift check: compare freshly generated `BENCH_*.json` files
//! against the checked-in baselines.
//!
//! ```sh
//! # regenerate one or more benches somewhere fresh …
//! GTS_BENCH_OUT=/tmp/fresh/BENCH_shard.json \
//!     cargo bench -p gts-bench --bench shard_scaling
//! # … then hold them against the checked-in numbers
//! cargo run --release --bin bench_drift -- /tmp/fresh [baseline-dir]
//! ```
//!
//! `baseline-dir` defaults to the current directory (the workspace root,
//! where the `BENCH_*.json` files are checked in). Every numeric leaf
//! present in both files is compared under a class inferred from its key:
//!
//! * every key that names no measurement of the host (dataset sizes, counts,
//!   recall, simulated cycles) is deterministic by contract and **fails if
//!   it moved at all** — that is what makes a checked-in cycle file an
//!   oracle; `host_cores` alone describes the machine and is only noted;
//! * a ratio of two timings of one run (`*speedup*`, throughput-style keys)
//!   **fails** when it drops more than 20%;
//! * an absolute host time (`*_ms`, `*_ns`, `wall`, latency-style keys) is
//!   **noted** when it grows more than 20% and never fails: the checked-in
//!   number was taken on another machine (and `wall_ms` of `BENCH_shard.json`
//!   reads ±30% on one machine minutes apart) — the wall clock is judged by
//!   the `benchmark/` package, with paired runs.
//!
//! Exits non-zero on any failure.

use gts::trace::json::{self, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const GATE: f64 = 0.20;

/// Record every numeric leaf of `value` under its dotted path.
fn collect_leaves(value: &Value, path: &str, out: &mut BTreeMap<String, f64>) {
    match value {
        Value::Num(n) => {
            out.insert(path.to_string(), *n);
        }
        Value::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                collect_leaves(item, &format!("{path}[{i}]"), out);
            }
        }
        Value::Obj(fields) => {
            for (key, field) in fields {
                let sub = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                collect_leaves(field, &sub, out);
            }
        }
        Value::Null | Value::Bool(_) | Value::Str(_) => {}
    }
}

fn numeric_leaves(path: &Path) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = BTreeMap::new();
    collect_leaves(&doc, "", &mut out);
    Ok(out)
}

// ---- comparison --------------------------------------------------------

/// Which way a key regresses. Wall/latency-style keys (absolute host
/// times: noted, never failed) regress when they grow; throughput-style
/// keys (ratios: gated) regress when they shrink; everything else
/// (configuration, counts, recall, simulated cycles) is deterministic by
/// contract and fails when it changes at all.
enum Direction {
    LowerIsBetter,
    HigherIsBetter,
    Neutral,
}

fn direction(key: &str) -> Direction {
    let key = key.to_ascii_lowercase();
    let lower = [
        "_ms", "_us", "_ns", "wall", "overhead", "latency", "p50", "p99",
    ];
    let higher = ["throughput", "speedup", "rps", "qps", "per_sec"];
    if higher.iter().any(|m| key.contains(m)) {
        Direction::HigherIsBetter
    } else if lower.iter().any(|m| key.contains(m)) {
        Direction::LowerIsBetter
    } else {
        Direction::Neutral
    }
}

struct Finding {
    file: String,
    key: String,
    baseline: f64,
    fresh: f64,
    /// Fails the run: a ratio past the gate, or a deterministic key that
    /// moved. `false` is a note.
    failure: bool,
}

fn compare(
    file: &str,
    base: &BTreeMap<String, f64>,
    fresh: &BTreeMap<String, f64>,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for (key, &b) in base {
        let Some(&f) = fresh.get(key) else { continue };
        let finding = |failure| Finding {
            file: file.to_string(),
            key: key.clone(),
            baseline: b,
            fresh: f,
            failure,
        };
        match direction(key) {
            Direction::LowerIsBetter if b > 0.0 && f > b * (1.0 + GATE) => {
                out.push(finding(false));
            }
            Direction::HigherIsBetter if b > 0.0 && f < b * (1.0 - GATE) => {
                out.push(finding(true));
            }
            Direction::Neutral if f != b => out.push(finding(!key.ends_with("host_cores"))),
            _ => {}
        }
    }
    out
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(fresh_dir) = args.next().map(PathBuf::from) else {
        eprintln!("usage: bench_drift <fresh-dir> [baseline-dir]");
        return ExitCode::from(2);
    };
    let base_dir = args
        .next()
        .map_or_else(|| PathBuf::from("."), PathBuf::from);

    let mut fresh_files: Vec<PathBuf> = match std::fs::read_dir(&fresh_dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            })
            .collect(),
        Err(e) => {
            eprintln!("bench_drift: cannot read {}: {e}", fresh_dir.display());
            return ExitCode::from(2);
        }
    };
    fresh_files.sort();
    if fresh_files.is_empty() {
        eprintln!(
            "bench_drift: no BENCH_*.json under {} — nothing to check",
            fresh_dir.display()
        );
        return ExitCode::from(2);
    }

    let mut failures = 0usize;
    let mut compared = 0usize;
    for fresh_path in &fresh_files {
        let name = fresh_path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("");
        let base_path = base_dir.join(name);
        if !base_path.exists() {
            println!("{name}: no checked-in baseline, skipped");
            continue;
        }
        let (base, fresh) = match (numeric_leaves(&base_path), numeric_leaves(fresh_path)) {
            (Ok(b), Ok(f)) => (b, f),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("bench_drift: {e}");
                return ExitCode::from(2);
            }
        };
        compared += 1;
        let findings = compare(name, &base, &fresh);
        failures += findings.iter().filter(|f| f.failure).count();
        if findings.is_empty() {
            println!(
                "{name}: ok ({} keys: deterministic ones equal, measured ones within {:.0}%)",
                base.len(),
                GATE * 100.0
            );
        }
        for f in findings {
            let delta = if f.baseline != 0.0 {
                (f.fresh / f.baseline - 1.0) * 100.0
            } else {
                f64::INFINITY
            };
            println!(
                "{}: {} {} {} -> {} ({:+.1}%)",
                f.file,
                if f.failure { "FAIL" } else { "note" },
                f.key,
                f.baseline,
                f.fresh,
                delta,
            );
        }
    }
    println!(
        "bench_drift: {compared} file(s) compared, {failures} failure(s) \
         (a deterministic key moved, or a ratio dropped more than {:.0}%)",
        GATE * 100.0
    );
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(src: &str) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        collect_leaves(&json::parse(src).expect("json"), "", &mut out);
        out
    }

    #[test]
    fn deterministic_keys_fail_on_any_move_ratios_past_the_gate_host_times_never() {
        let base = leaves(
            r#"{"host_cores": 1, "results": [
                {"dataset": "a", "span_cycles": 100, "recall": 0.5, "wall_ms": 10.0, "batch_speedup": 2.0}]}"#,
        );
        assert_eq!(base.len(), 5, "strings are not leaves");
        assert!(compare("f", &base, &base).is_empty());
        let fresh = leaves(
            r#"{"host_cores": 2, "results": [
                {"dataset": "a", "span_cycles": 101, "recall": 0.5, "wall_ms": 13.0, "batch_speedup": 1.5}]}"#,
        );
        let mut got: Vec<(String, bool)> = compare("f", &base, &fresh)
            .into_iter()
            .map(|f| (f.key, f.failure))
            .collect();
        got.sort();
        assert_eq!(
            got,
            [
                ("host_cores".to_string(), false),
                ("results[0].batch_speedup".to_string(), true),
                ("results[0].span_cycles".to_string(), true),
                ("results[0].wall_ms".to_string(), false),
            ],
            "wall_ms +30% is a note; recall did not move"
        );
    }
}
