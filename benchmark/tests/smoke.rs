//! Both passes of small stand-ins for all five workloads, end to end: the
//! oracle agrees, every declared metric is a finite number, the traced
//! pass's self times add up (roughly: see below).

use gts_benchmark::data::{Mix, Space};
use gts_benchmark::layers::run_traced;
use gts_benchmark::report::{RunResult, END_TO_END, PER_LAYER};
use gts_benchmark::sut::Topology;
use gts_benchmark::workloads::{run_untraced, Kind, RunConfig, Workload};

const MIX: Mix = Mix {
    k: 8,
    range_share: 0.1,
    radii: [0.05, 0.1],
    update_share: 0.0,
    batch_update_every: 0,
    batch_update_size: 0,
};

static SMALL: [Workload; 4] = [
    Workload {
        name: "small-lowdim",
        space: Space::TLoc,
        n: 3_000,
        pool: 256,
        kind: Kind::BatchKnn { k: 8, batch: 32 },
        oracle_one_in: 4,
    },
    Workload {
        name: "small-edit",
        space: Space::Words,
        n: 1_000,
        pool: 128,
        kind: Kind::BatchRange {
            radii: [1.0, 2.0],
            batch: 16,
        },
        oracle_one_in: 4,
    },
    Workload {
        name: "small-serve",
        space: Space::TLoc,
        n: 3_000,
        pool: 256,
        kind: Kind::Serve {
            topology: Topology::Replicated {
                shards: 2,
                replicas: 1,
                lanes: 1,
            },
            mix: MIX,
            open_rate: 300.0,
            fresh: 0,
        },
        oracle_one_in: 4,
    },
    Workload {
        name: "small-serve-update",
        space: Space::TLoc,
        n: 3_000,
        pool: 256,
        kind: Kind::Serve {
            topology: Topology::Replicated {
                shards: 1,
                replicas: 2,
                lanes: 2,
            },
            mix: Mix {
                range_share: 0.0,
                update_share: 0.05,
                batch_update_every: 400,
                batch_update_size: 50,
                ..MIX
            },
            open_rate: 300.0,
            fresh: 2_048,
        },
        oracle_one_in: 4,
    },
];

fn check(result: &RunResult) {
    assert_eq!(result.failed, 0, "{}: {:?}", result.workload, result.notes);
    assert!(result.attempted > 0);
    let declared: Vec<&str> = if result.traced {
        PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    for name in declared {
        let value = result.metrics.get(name).unwrap_or(0.0);
        assert!(
            value.is_finite() && value >= 0.0,
            "{}: {name} = {value}",
            result.workload
        );
        if !result.traced {
            assert!(
                value > 0.0,
                "{}: end-to-end {name} is never 0",
                result.workload
            );
        }
    }
}

#[test]
fn both_passes_of_every_kind_of_workload() {
    let cfg = RunConfig {
        seed: 5,
        seconds: 1.5,
        quick: true,
    };
    for w in &SMALL {
        check(&run_untraced(w, cfg).expect("untraced pass"));
        let traced = run_traced(w, cfg).expect("traced pass");
        check(&traced);
        assert!(traced.metrics.get("loadgen.oracle_checked").unwrap_or(0.0) > 0.0);
        assert!(traced.metrics.get("core.distances_per_op").unwrap_or(0.0) > 0.0);
        let breakdown = traced.breakdown.expect("the traced pass records spans");
        assert!(breakdown.outer_ns > 0, "{}", w.name);
        // Exact unless a replayed child outlasts its parent. That is timing
        // noise on small inputs in a debug build — and expected on Words,
        // where the replayed pairs are not the index's own — so this only
        // guards against spans being counted twice.
        assert!(
            w.space == Space::Words || breakdown.residual_share().abs() < 0.5,
            "{}: self times miss the outermost span by {}",
            w.name,
            breakdown.residual_share()
        );
        let serves = matches!(w.kind, Kind::Serve { .. });
        assert_eq!(
            traced.metrics.get("service.batches").unwrap_or(0.0) > 0.0,
            serves
        );
    }
}
