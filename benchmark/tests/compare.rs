//! `compare`'s verdicts.

use gts_benchmark::compare::{verdict, Verdict};
use gts_benchmark::report::END_TO_END;

fn metric(name: &str) -> &'static gts_benchmark::report::EndToEnd {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .expect("declared")
}

#[test]
fn same_runs_are_ok() {
    let runs = [100.0, 101.0, 99.0, 100.5, 99.5];
    assert_eq!(verdict(metric("ops_per_s"), &runs, &runs), Verdict::Ok);
}

#[test]
fn a_drop_beyond_the_bound_is_a_regression() {
    let ops = metric("ops_per_s");
    let base = [100.0, 101.0, 99.0, 100.5, 99.5];
    let scaled = |by: f64| -> Vec<f64> { base.iter().map(|x| x * by).collect() };
    assert_eq!(
        verdict(ops, &base, &scaled(1.0 - ops.bound - 0.05)),
        Verdict::Regressed
    );
    assert_eq!(
        verdict(ops, &base, &scaled(1.0 - ops.bound + 0.05)),
        Verdict::Ok
    );
    // Faster is never a regression; for a latency, higher is worse.
    assert_eq!(verdict(ops, &base, &scaled(1.5)), Verdict::Ok);
    assert_eq!(
        verdict(metric("latency_ms_p50"), &base, &scaled(1.5)),
        Verdict::Regressed
    );
}

#[test]
fn a_spread_wider_than_the_bound_is_unresolved() {
    let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
    let also_noisy = [65.0, 95.0, 145.0, 50.0, 105.0];
    assert_eq!(
        verdict(metric("ops_per_s"), &noisy, &also_noisy),
        Verdict::Unresolved
    );
    // Unless every new run beats every base run.
    let all_better = [150.0, 190.0, 230.0, 170.0, 210.0];
    assert_eq!(
        verdict(metric("ops_per_s"), &noisy, &all_better),
        Verdict::Ok
    );
}

#[test]
fn single_runs_compare_by_value() {
    let setup = metric("setup_s");
    assert_eq!(
        verdict(setup, &[1.0], &[1.0 + setup.bound - 0.05]),
        Verdict::Ok
    );
    assert_eq!(
        verdict(setup, &[1.0], &[1.0 + setup.bound + 0.05]),
        Verdict::Regressed
    );
}
