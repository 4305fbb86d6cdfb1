//! Distance-kernel microbench: batched arena path vs per-pair `Item` path.
//!
//! Measures the raw host cost of evaluating one query against a large block
//! of stored objects — the exact shape of the GTS hot paths (pivot
//! distances, leaf verification, construction mapping) — three ways:
//!
//! * **per-pair**: `Metric::distance(&Item, &Item)` in a loop, chasing a
//!   boxed payload per evaluation (the pre-arena implementation);
//! * **batch**: one `BatchMetric::distance_batch` call resolving ids
//!   against the flat [`ObjectArena`] (contiguous payloads, the query
//!   prepared once: the edit kernel's bit-parallel match masks, the
//!   angular kernel's widened copy);
//! * **batch-bounded**: the early-abandoning variant leaf verification
//!   runs (for edit distance, the same bit-parallel kernel, abandoned once
//!   its score cannot return under the bound; for angular, no `acos` for a
//!   pair whose cosine already puts it past the bound).
//!
//! The per-pair edit path builds a pattern for every pair, so the edit
//! row's `batch_speedup` is the gain of building it once per query.
//!
//! All variants of a metric are timed **round-robin** (one rep of each in
//! rotation, min per variant): slow drift on the shared core — frequency
//! scaling, cache pressure from a neighbouring phase — lands on every
//! variant equally, so the reported *ratio* (the drift-gated
//! `batch_speedup`) is stable run to run, where back-to-back phase timing
//! is not.
//!
//! Results are printed and written to `BENCH_dist_kernels.json` at the
//! workspace root (override with `GTS_BENCH_OUT`). Run with
//! `cargo bench -p gts-bench --bench dist_kernels`.

use metric_space::gen;
use metric_space::{BatchMetric, Item, ItemMetric, Metric};
use std::fmt::Write as _;
use std::time::Instant;

const PAIRS: usize = 20_000;
const REPS: usize = 30;

struct KernelTimes {
    metric: &'static str,
    arity: usize,
    per_pair_ns: f64,
    batch_ns: f64,
    bounded_ns: f64,
}

/// Minimum nanoseconds per distance for each variant, timed round-robin:
/// one warm-up rep of every variant, then `REPS` rounds running one timed
/// rep of each in rotation. The minimum is the standard noise-robust
/// estimator (interference only ever adds time), and the rotation keeps
/// every variant's minimum exposed to the same machine conditions, so
/// ratios between them are stable.
fn time_round_robin(pairs: usize, mut variants: Vec<Box<dyn FnMut() + '_>>) -> Vec<f64> {
    for f in &mut variants {
        f(); // warm-up
    }
    let mut best = vec![f64::INFINITY; variants.len()];
    for _ in 0..REPS {
        for (slot, f) in best.iter_mut().zip(&mut variants) {
            let start = Instant::now();
            f();
            *slot = slot.min(start.elapsed().as_nanos() as f64 / pairs as f64);
        }
    }
    best
}

fn bench_metric(metric: ItemMetric, items: Vec<Item>, bound: f64) -> KernelTimes {
    let arena = metric.build_arena(&items).expect("homogeneous dataset");
    // Scattered id pattern (Knuth multiplicative hash): the table list after
    // partitioning is a permutation of the store, so the kernels never walk
    // objects in allocation order.
    let n = items.len() as u64;
    let ids: Vec<u32> = (0..PAIRS as u64)
        .map(|i| ((i.wrapping_mul(2_654_435_761)) % n) as u32)
        .collect();
    let query = items[items.len() / 2].clone();
    let mut out = vec![0.0f64; ids.len()];
    let mut out_scalar = vec![0.0f64; ids.len()];
    let mut out_bounded = vec![None; ids.len()];

    // One closure per variant, timed in rotation. The per-pair closure
    // mirrors the replaced hot-path kernel closure, which produced
    // `(distance, work)` per thread.
    let mut work_acc = 0u64;
    let variants: Vec<Box<dyn FnMut() + '_>> = vec![
        Box::new(|| {
            for (slot, &id) in out_scalar.iter_mut().zip(&ids) {
                let o = &items[id as usize];
                *slot = metric.distance(&query, o);
                work_acc = work_acc.wrapping_add(metric.work(&query, o));
            }
            std::hint::black_box(work_acc);
        }),
        Box::new(|| {
            metric.distance_batch(&items, Some(&arena), &query, &ids, &mut out);
        }),
        Box::new(|| {
            metric.distance_batch_bounded(
                &items,
                Some(&arena),
                &query,
                &ids,
                bound,
                &mut out_bounded,
            );
        }),
    ];
    let times = time_round_robin(PAIRS, variants);
    let (per_pair_ns, batch_ns, bounded_ns) = (times[0], times[1], times[2]);

    // The comparison is only meaningful if the paths agree exactly.
    assert_eq!(out, out_scalar, "batch and per-pair disagree");

    KernelTimes {
        metric: metric.name(),
        arity: items.iter().map(Item::arity).sum::<usize>() / items.len(),
        per_pair_ns,
        batch_ns,
        bounded_ns,
    }
}

fn main() {
    // 1k stored vectors keep the payload working set (0.5 MB at 128-d,
    // 1.2 MB at 300-d) cache-resident, so the rows measure kernel cost,
    // not DRAM latency — at 4k+ objects every path converges on the memory
    // system and the kernel comparison disappears into it.
    let runs = [
        bench_metric(ItemMetric::L2, gen::vectors(1_024, 128, 7), 1.0),
        bench_metric(ItemMetric::L1, gen::vectors(1_024, 128, 11), 1.0),
        bench_metric(ItemMetric::Edit, gen::words(4_096, 7), 3.0),
        // The Vector dataset's shape (300-d clustered unit vectors). At
        // 0.47 the bounded kernel abandons ~95 % of the pairs, as leaf
        // verification on that dataset does; appended last so the rows
        // above keep their positions in the JSON.
        bench_metric(ItemMetric::ANGULAR, gen::vectors(1_024, 300, 13), 0.47),
    ];

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"pairs\": {PAIRS},");
    let _ = writeln!(json, "  \"reps\": {REPS},");
    let _ = writeln!(json, "  \"results\": [");
    for (i, r) in runs.iter().enumerate() {
        let speedup = r.per_pair_ns / r.batch_ns;
        println!(
            "dist_kernels/{:<7} ({} pairs, arity {:>3}): per-pair {:>8.1} ns/dist | batch {:>8.1} | bounded {:>8.1} | batch speedup {:.2}x",
            r.metric, PAIRS, r.arity, r.per_pair_ns, r.batch_ns, r.bounded_ns, speedup,
        );
        let _ = writeln!(
            json,
            "    {{\"metric\": \"{}\", \"arity\": {}, \"per_pair_ns_per_dist\": {:.2}, \"batch_ns_per_dist\": {:.2}, \"bounded_ns_per_dist\": {:.2}, \"batch_speedup\": {:.3}}}{}",
            r.metric,
            r.arity,
            r.per_pair_ns,
            r.batch_ns,
            r.bounded_ns,
            speedup,
            if i + 1 < runs.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");

    let out_path = std::env::var("GTS_BENCH_OUT").unwrap_or_else(|_| {
        format!(
            "{}/../../BENCH_dist_kernels.json",
            env!("CARGO_MANIFEST_DIR")
        )
    });
    std::fs::write(&out_path, &json).expect("write BENCH_dist_kernels.json");
    println!("wrote {out_path}");
}
