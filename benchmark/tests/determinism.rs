//! Same seed ⇒ same inputs, same operation stream, same `core` counts and
//! the same simulated cycles; another seed ⇒ other inputs.

use gts_benchmark::data::{Op, Space};
use gts_benchmark::sut::{CoreCounts, Topology};
use gts_benchmark::workloads::{
    run_batch, sampled_residue, BatchLoop, Kind, Prepared, Workload, WORKLOADS,
};
use std::time::Instant;

/// Input fingerprints of the default seed (1), pinned: a change to the
/// frozen generators or to a workload's sizes shows here first.
const PINNED: [(&str, u64); 5] = [
    ("knn-lowdim-batch", 0xcc2b_df0b_7606_85b8),
    ("knn-highdim-batch", 0x410f_399d_1723_784b),
    ("range-edit-batch", 0x58dc_a514_286e_c92a),
    ("serve-knn-open", 0x3bbf_c5d3_b8e5_3f1c),
    ("serve-mixed-update", 0xde88_631d_a1b8_9482),
];

#[test]
fn default_seed_input_hashes_are_pinned() {
    for (w, (name, hash)) in WORKLOADS.iter().zip(PINNED) {
        assert_eq!(w.name, name);
        let got = w.input_hash(&w.inputs(1), 1);
        assert_eq!(got, hash, "{name}: input hash is {got:#018x}");
    }
}

#[test]
fn another_seed_gives_other_inputs() {
    let w = &WORKLOADS[2];
    assert_ne!(w.input_hash(&w.inputs(1), 1), w.input_hash(&w.inputs(2), 2));
    let a = w.inputs(7);
    let b = w.inputs(7);
    assert_eq!(a.data, b.data);
    assert_eq!(a.queries, b.queries);
    assert_eq!(a.radii, b.radii);
}

#[test]
fn the_operation_stream_repeats_and_keeps_its_mix() {
    let w = &WORKLOADS[4];
    let take = |seed| -> Vec<Op> {
        w.stream(seed)
            .expect("a serve workload")
            .take(20_000)
            .collect()
    };
    let ops = take(3);
    assert_eq!(ops, take(3));
    assert_ne!(ops, take(4));
    let share = |f: fn(&Op) -> bool| ops.iter().filter(|o| f(o)).count() as f64 / ops.len() as f64;
    assert!((share(|o| matches!(o, Op::Knn { .. })) - 0.90).abs() < 0.01);
    assert!((share(|o| matches!(o, Op::Insert { .. })) - 0.05).abs() < 0.01);
    assert!((share(|o| matches!(o, Op::Remove { .. })) - 0.05).abs() < 0.01);
    let batch_updates = ops
        .iter()
        .filter(|o| matches!(o, Op::BatchUpdate { .. }))
        .count();
    assert_eq!(batch_updates, 4, "one every 5 000 requests");
    // Removals only ever name ids the index has handed out by then.
    let mut assigned = w.n as u32;
    for op in &ops {
        match op {
            Op::Insert { .. } => assigned += 1,
            Op::Remove { id } => assert!(*id < assigned),
            Op::BatchUpdate { fresh, ids } => {
                assert!(ids.iter().all(|id| *id < assigned));
                assigned += fresh.len() as u32;
            }
            _ => {}
        }
    }
    // The read-only serve workload sends no update at all.
    let reads: Vec<Op> = WORKLOADS[3].stream(3).expect("serve").take(5_000).collect();
    assert!(reads.iter().all(|o| !o.is_update()));
    assert!(
        (reads
            .iter()
            .filter(|o| matches!(o, Op::Range { .. }))
            .count() as f64
            / 5_000.0
            - 0.1)
            .abs()
            < 0.02
    );
}

/// Small stand-ins for the three batch workloads: same spaces, same calls,
/// sizes a debug build gets through quickly.
const SMALL: [Workload; 3] = [
    Workload {
        name: "small-lowdim",
        space: Space::TLoc,
        n: 4_000,
        pool: 256,
        kind: Kind::BatchKnn { k: 8, batch: 64 },
        oracle_one_in: 4,
    },
    Workload {
        name: "small-highdim",
        space: Space::Vector300,
        n: 400,
        pool: 64,
        kind: Kind::BatchKnn { k: 8, batch: 16 },
        oracle_one_in: 4,
    },
    Workload {
        name: "small-edit",
        space: Space::Words,
        n: 1_500,
        pool: 128,
        kind: Kind::BatchRange {
            radii: [1.0, 2.0],
            batch: 32,
        },
        oracle_one_in: 4,
    },
];

/// What one pass over the pool leaves behind.
struct PoolPass {
    counts: CoreCounts,
    /// Simulated cycles after each batch.
    cycles: Vec<u64>,
    /// Every sampled answer as `(id, distance bits)`.
    answers: Vec<Vec<(u32, u64)>>,
}

fn pool_pass(w: &Workload, seed: u64) -> PoolPass {
    assert_eq!(w.topology(), Topology::Single);
    let inputs = w.inputs(seed);
    let p = Prepared::new(w, &inputs).expect("set-up");
    let mut run = BatchLoop {
        events: Vec::new(),
        latency_ms: Vec::new(),
        cycles: vec![p.index.span_cycles()],
        samples: Vec::new(),
        failed_ops: 0,
    };
    let before = p.index.core_counts();
    let clock = Instant::now();
    for b in 0..w.pool / w.batch() {
        run_batch(w, &p, &inputs, b, sampled_residue(w, seed), &mut run, clock);
    }
    assert_eq!(run.failed_ops, 0);
    let answers = run
        .samples
        .iter()
        .map(|s| s.answer.iter().map(|h| (h.id, h.dist.to_bits())).collect())
        .collect();
    PoolPass {
        counts: p.index.core_counts().since(before),
        cycles: run.cycles,
        answers,
    }
}

#[test]
fn batch_workloads_repeat_their_counts_and_simulated_cycles_exactly() {
    for w in &SMALL {
        let first = pool_pass(w, 11);
        let second = pool_pass(w, 11);
        assert!(
            first.counts.distances > 0,
            "{}: the pass did some work",
            w.name
        );
        assert_eq!(first.counts, second.counts, "{}: core counts", w.name);
        assert_eq!(first.cycles, second.cycles, "{}: simulated cycles", w.name);
        assert_eq!(first.answers, second.answers, "{}: answers", w.name);
        assert_eq!(first.answers.len(), w.pool / w.oracle_one_in);
        let other = pool_pass(w, 12);
        assert_ne!(
            first.answers, other.answers,
            "{}: another seed asks other questions",
            w.name
        );
    }
}
