//! `compare`: hold two sets of result files against each other, one row per
//! workload × end-to-end metric, under the bounds the benchmark fixes.

use crate::json::{self, Value};
use crate::report::{EndToEnd, END_TO_END};
use crate::stats;
use std::collections::BTreeMap;

/// Values of every end-to-end metric per workload, one per run, plus the
/// runs' failure shares.
#[derive(Default)]
struct Side {
    values: BTreeMap<(String, &'static str), Vec<f64>>,
    error_rate: BTreeMap<String, f64>,
}

impl Side {
    fn load(files: &[String]) -> Result<Side, String> {
        let mut side = Side::default();
        let mut attempted: BTreeMap<String, (f64, f64)> = BTreeMap::new();
        for file in files {
            let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
            let doc = json::parse(&text).map_err(|e| format!("{file}: {e}"))?;
            let results = doc
                .get("results")
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("{file}: no `results` array"))?;
            for r in results
                .iter()
                .filter(|r| r.get("traced") == Some(&Value::Bool(false)))
            {
                let workload = r
                    .get("workload")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("{file}: result without a workload"))?;
                let num = |key: &str| r.get(key).and_then(Value::as_f64).unwrap_or(0.0);
                let slot = attempted.entry(workload.to_string()).or_default();
                slot.0 += num("attempted");
                slot.1 += num("failed");
                for m in END_TO_END {
                    let value = r
                        .get("metrics")
                        .and_then(|ms| ms.get(m.name))
                        .and_then(|v| v.get("value"))
                        .and_then(Value::as_f64)
                        .ok_or_else(|| format!("{file}: {workload} lacks {}", m.name))?;
                    side.values
                        .entry((workload.to_string(), m.name))
                        .or_default()
                        .push(value);
                }
            }
        }
        for (workload, (attempted, failed)) in attempted {
            side.error_rate.insert(
                workload,
                if attempted > 0.0 {
                    failed / attempted
                } else {
                    0.0
                },
            );
        }
        Ok(side)
    }
}

/// How one metric on one workload fared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The new median is worse than the base median by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound, so the comparison
    /// cannot tell (unless every new run beats every base run: then `Ok`).
    Unresolved,
}

/// `(q1, median, q3)`; a single run stands for all three.
fn summary(values: &[f64]) -> [f64; 3] {
    match values {
        [one] => [*one; 3],
        many => stats::quartiles(many),
    }
}

pub fn verdict(m: &EndToEnd, base: &[f64], new: &[f64]) -> Verdict {
    let bmed = stats::median(base);
    let nmed = stats::median(new);
    // A single run has no spread.
    let spread = |runs: &[f64]| {
        if runs.len() < 2 {
            0.0
        } else {
            stats::iqr_share(runs)
        }
    };
    let worse_by = if bmed == 0.0 {
        0.0
    } else if m.higher_is_better {
        (bmed - nmed) / bmed.abs()
    } else {
        (nmed - bmed) / bmed.abs()
    };
    if spread(base).max(spread(new)) > m.bound {
        let all_better = new.iter().all(|&n| {
            base.iter()
                .all(|&b| if m.higher_is_better { n > b } else { n < b })
        });
        return if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > m.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Print the table; `Ok(true)` when nothing regressed and no workload's
/// error rate rose.
pub fn run(base_files: &[String], new_files: &[String]) -> Result<bool, String> {
    if base_files.is_empty() || new_files.is_empty() {
        return Err("compare needs --base FILE... and --new FILE...".into());
    }
    let base = Side::load(base_files)?;
    let new = Side::load(new_files)?;
    let mut clean = true;
    println!(
        "{:<20} {:<18} {:>36} {:>36} {:>6}  verdict",
        "workload", "metric", "base q1 / median / q3", "new q1 / median / q3", "bound"
    );
    for ((workload, name), b) in &base.values {
        let Some(n) = new.values.get(&(workload.clone(), *name)) else {
            continue;
        };
        let m = END_TO_END
            .iter()
            .find(|m| m.name == *name)
            .expect("values are keyed by declared metrics");
        let v = verdict(m, b, n);
        clean &= v != Verdict::Regressed;
        let show = |values: &[f64]| {
            let [q1, med, q3] = summary(values);
            format!("{q1:.4} / {med:.4} / {q3:.4}")
        };
        println!(
            "{workload:<20} {name:<18} {:>36} {:>36} {:>5.0}%  {}",
            show(b),
            show(n),
            m.bound * 100.0,
            match v {
                Verdict::Ok => "ok",
                Verdict::Regressed => "regressed",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    for (workload, b) in &base.error_rate {
        let n = new.error_rate.get(workload).copied().unwrap_or(0.0);
        let higher = n > *b;
        clean &= !higher;
        println!(
            "{workload:<20} {:<18} {b:>36.6} {n:>36.6} {:>5.0}%  {}",
            "error_rate",
            0.0,
            if higher { "regressed" } else { "ok" }
        );
    }
    Ok(clean)
}
