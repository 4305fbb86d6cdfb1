//! Fig. 7: MRQ and MkNNQ throughput of every method on every dataset,
//! sweeping the search radius `r` and the result count `k` (Table 3 values).
//!
//! Paper shape: GTS beats every general-purpose method on every dataset —
//! up to two orders of magnitude over the CPU baselines and up to ~20× over
//! the GPU generals; GANNS (approximate, vector-only) can edge out GTS on
//! pure MkNNQ latency; throughput decays as `r`/`k` grow.

use crate::config::Config;
use crate::methods::{AnyIndex, Method};
use crate::report::{fmt_tput, Table};
use crate::workload::Workload;
use gts_core::GtsParams;
use metric_space::{DatasetKind, ItemMetric};

/// Sweeps from Table 3.
pub const R_SWEEP: [u32; 6] = [1, 2, 4, 8, 16, 32];
/// k sweep from Table 3.
pub const K_SWEEP: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Run the experiment (10 tables: MRQ + MkNNQ per dataset).
pub fn run(cfg: &Config) -> Vec<Table> {
    let mut out = Vec::new();
    for kind in DatasetKind::ALL {
        let data = cfg.dataset(kind);
        let workload = Workload::new(&data, cfg.queries_per_point, cfg);
        let queries = workload.queries_n(cfg.queries_per_point);
        // The one kernel asymmetry between the rows of a table, stated in
        // its title: only GTS verifies against a bound it can band by.
        let kernels = if data.metric == ItemMetric::Edit {
            " — GTS's leaf kernel is the bit-parallel Myers/Hyyrö kernel abandoned at its bound and charged as a banded DP; the baselines run it unbounded, charged as the full DP"
        } else {
            ""
        };

        // Build every supported method once per dataset.
        let built: Vec<(Method, Option<AnyIndex>)> = Method::ALL
            .iter()
            .map(|&m| {
                if !m.supports(kind) {
                    return (m, None);
                }
                let dev = cfg.device();
                match AnyIndex::build(m, &dev, &data, cfg, GtsParams::default()) {
                    Ok(b) => (m, Some(b.index)),
                    Err(_) => (m, None),
                }
            })
            .collect();

        // MRQ panel.
        let mut mrq_headers = vec!["Method".to_string()];
        mrq_headers.extend(R_SWEEP.iter().map(|r| format!("r={r}")));
        let hdrs: Vec<&str> = mrq_headers.iter().map(String::as_str).collect();
        let mut mrq = Table::new(
            format!("fig7_mrq_{}", kind.name().to_lowercase().replace('-', "")),
            format!("MRQ throughput (queries/min) on {}{kernels}", kind.name()),
            &hdrs,
        );
        for (m, idx) in &built {
            let mut row = vec![m.name().to_string()];
            for r in R_SWEEP {
                let cell = match idx {
                    Some(i) if m.supports_range() => {
                        let radii = vec![workload.radius(r); queries.len()];
                        i.mrq_throughput(&queries, &radii)
                            .map(fmt_tput)
                            .unwrap_or_else(|_| "/".into())
                    }
                    _ => "/".into(),
                };
                row.push(cell);
            }
            mrq.push_row(row);
        }
        out.push(mrq);

        // MkNNQ panel.
        let mut knn_headers = vec!["Method".to_string()];
        knn_headers.extend(K_SWEEP.iter().map(|k| format!("k={k}")));
        let hdrs: Vec<&str> = knn_headers.iter().map(String::as_str).collect();
        let mut knn = Table::new(
            format!("fig7_knn_{}", kind.name().to_lowercase().replace('-', "")),
            format!("MkNNQ throughput (queries/min) on {}{kernels}", kind.name()),
            &hdrs,
        );
        for (m, idx) in &built {
            let mut row = vec![m.name().to_string()];
            for k in K_SWEEP {
                let cell = match idx {
                    Some(i) => i
                        .knn_throughput(&queries, k)
                        .map(fmt_tput)
                        .unwrap_or_else(|_| "/".into()),
                    None => "/".into(),
                };
                row.push(cell);
            }
            knn.push_row(row);
        }
        out.push(knn);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tput(t: &Table, method: &str, col: usize) -> f64 {
        t.rows
            .iter()
            .find(|r| r[0] == method)
            .and_then(|r| r[col].parse().ok())
            .unwrap_or(0.0)
    }

    #[test]
    fn gts_beats_cpu_baselines() {
        let cfg = Config::tiny();
        let tables = run(&cfg);
        // First table is MRQ on Words; column 4 is r=8.
        let words_mrq = &tables[0];
        assert!(words_mrq.id.contains("mrq_words"), "{}", words_mrq.id);
        let gts = tput(words_mrq, "GTS", 4);
        for m in ["BST", "EGNAT", "MVPT"] {
            let other = tput(words_mrq, m, 4);
            assert!(
                gts > other,
                "GTS ({gts}) must out-throughput {m} ({other}) on Words MRQ"
            );
        }
        // The GPU-vs-GPU ordering (GTS over GPU-Table / GPU-Tree by up to
        // 20×) is a property of the paper's `n ≳ C` operating point; at the
        // tiny unit-test scale the §5.3 model itself predicts parity or
        // inversion, so here we only require the same order of magnitude.
        // The full-scale ordering is asserted by `experiments fig7`
        // (EXPERIMENTS.md).
        for m in ["GPU-Table", "GPU-Tree"] {
            let other = tput(words_mrq, m, 4);
            assert!(gts * 10.0 > other, "GTS ({gts}) collapsed vs {m} ({other})");
        }
    }

    #[test]
    fn gts_gpu_speedup_over_cpu_is_large() {
        let cfg = Config::tiny();
        let tables = run(&cfg);
        let words_mrq = &tables[0];
        let gts = tput(words_mrq, "GTS", 3);
        let bst = tput(words_mrq, "BST", 3);
        assert!(
            gts > bst * 10.0,
            "expected ≥10× over CPU at tiny scale (paper: up to 100×); got {gts} vs {bst}"
        );
    }
}
