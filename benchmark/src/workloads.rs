//! The five workloads and the untraced pass that yields the end-to-end
//! metrics. `README.md` records why each workload was chosen.

use crate::data::{Inputs, Mix, Obj, Op, OpStream, Space, SplitMix64};
use crate::loadgen::{Asked, LoadGen, Record};
use crate::oracle::{Hit, LiveSet};
use crate::report::{Metrics, RunResult, MAX_LAG_MS};
use crate::stats::{self, Completion};
use crate::sut::{self, Index, Layer, Observe, Query, Service, Topology};
use gts::metric::Item;
use std::time::Instant;

/// What a workload runs.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// Closed loop, one caller: `batch_knn(k)` over batches of `batch`.
    BatchKnn { k: usize, batch: usize },
    /// Closed loop, one caller: `batch_range` over batches of `batch`, each
    /// query's radius drawn from `radii`.
    BatchRange { radii: [f64; 2], batch: usize },
    /// Requests through `QueryService`: a closed-loop phase (throughput),
    /// then an open-loop phase at `open_rate` requests per second (latency).
    Serve {
        topology: Topology,
        mix: Mix,
        open_rate: f64,
        /// Fresh objects available to insert.
        fresh: usize,
    },
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub space: Space,
    /// Dataset cardinality.
    pub n: usize,
    /// Query-pool size (fresh draws, cycled through).
    pub pool: usize,
    pub kind: Kind,
    /// The oracle checks one answer in this many.
    pub oracle_one_in: usize,
}

/// Outstanding requests in the closed-loop phase of a serve workload. Small
/// enough that the generator refills the window well inside the service's
/// 2 ms flush deadline, so every flush carries the whole window: at 512 the
/// refill takes about as long as the deadline, a flush cuts the window at a
/// random point, and batch sizes — hence throughput — differ run to run.
pub const WINDOW: usize = 128;
/// Share of a serve run's seconds spent in the closed-loop phase.
pub const CLOSED_SHARE: f64 = 0.5;
/// Queries of the pool a serve workload sends straight to its index, in
/// batches of [`DIRECT_BATCH`], to read simulated time per query off a call
/// sequence that repeats exactly (what the service batches depends on
/// arrival times).
pub const DIRECT_QUERIES: usize = 2048;
pub const DIRECT_BATCH: usize = 256;
/// The first tenth of every phase is warm-up and excluded.
pub const WARM_SHARE: f64 = 0.1;

const TLOC_MIX: Mix = Mix {
    k: 8,
    range_share: 0.0,
    radii: [0.002, 0.005],
    update_share: 0.0,
    batch_update_every: 0,
    batch_update_size: 0,
};

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "knn-lowdim-batch",
        space: Space::TLoc,
        n: 200_000,
        pool: 8192,
        kind: Kind::BatchKnn { k: 8, batch: 256 },
        oracle_one_in: 16,
    },
    Workload {
        name: "knn-highdim-batch",
        space: Space::Vector300,
        n: 8_000,
        pool: 2048,
        kind: Kind::BatchKnn { k: 8, batch: 32 },
        oracle_one_in: 8,
    },
    Workload {
        name: "range-edit-batch",
        space: Space::Words,
        n: 20_000,
        pool: 4096,
        kind: Kind::BatchRange {
            radii: [1.0, 2.0],
            batch: 128,
        },
        oracle_one_in: 16,
    },
    Workload {
        name: "serve-knn-open",
        space: Space::TLoc,
        n: 200_000,
        pool: 8192,
        kind: Kind::Serve {
            topology: Topology::Replicated {
                shards: 2,
                replicas: 1,
                lanes: 1,
            },
            mix: Mix {
                range_share: 0.1,
                ..TLOC_MIX
            },
            open_rate: OPEN_RATE,
            fresh: 0,
        },
        oracle_one_in: 16,
    },
    Workload {
        name: "serve-mixed-update",
        space: Space::TLoc,
        n: 200_000,
        pool: 8192,
        kind: Kind::Serve {
            topology: Topology::Replicated {
                shards: 1,
                replicas: 2,
                lanes: 2,
            },
            mix: Mix {
                update_share: 0.05,
                batch_update_every: 5000,
                batch_update_size: 500,
                ..TLOC_MIX
            },
            open_rate: OPEN_RATE,
            fresh: 16_384,
        },
        oracle_one_in: 16,
    },
];

/// Open-loop arrival rate of both serve workloads, requests per second:
/// about a quarter of what the slower of the two sustains in its closed loop
/// on the commit that added the benchmark (640–1 270 per second, depending
/// on how busy the host is), frozen. Far enough below saturation that a
/// slow spell of the host moves the latency by its own size and no more;
/// at 600 the same spell multiplied it by ten.
pub const OPEN_RATE: f64 = 300.0;

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One run's settings.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    pub seed: u64,
    /// How long the timed phases measure, all together.
    pub seconds: f64,
    /// Smoke mode: one set-up, a fraction of a pool pass in the traced pass.
    pub quick: bool,
}

impl Workload {
    pub fn topology(&self) -> Topology {
        match self.kind {
            Kind::Serve { topology, .. } => topology,
            _ => Topology::Single,
        }
    }

    /// The `k` of the workload's kNN queries (8 everywhere; the range
    /// workload's scan baseline does not use it).
    pub fn k(&self) -> usize {
        match self.kind {
            Kind::BatchKnn { k, .. } => k,
            Kind::Serve { mix, .. } => mix.k,
            Kind::BatchRange { .. } => 8,
        }
    }

    pub fn batch(&self) -> usize {
        match self.kind {
            Kind::BatchKnn { batch, .. } | Kind::BatchRange { batch, .. } => batch,
            Kind::Serve { .. } => 0,
        }
    }

    pub fn inputs(&self, seed: u64) -> Inputs {
        let (fresh, radii) = match self.kind {
            Kind::BatchKnn { .. } => (0, None),
            Kind::BatchRange { radii, .. } => (0, Some(radii)),
            Kind::Serve { fresh, .. } => (fresh, None),
        };
        Inputs::generate(self.space, seed, self.n, self.pool, fresh, radii)
    }

    pub fn stream(&self, seed: u64) -> Option<OpStream> {
        match self.kind {
            Kind::Serve { mix, fresh, .. } => {
                Some(OpStream::new(seed, mix, self.n, self.pool, fresh.max(1)))
            }
            _ => None,
        }
    }

    /// Fingerprint of everything the run feeds the program: the generated
    /// objects and the head of the request stream.
    pub fn input_hash(&self, inputs: &Inputs, seed: u64) -> u64 {
        let mut h = crate::data::Fnv(inputs.hash());
        if let Some(stream) = self.stream(seed) {
            for op in stream.take(4096) {
                h.write(format!("{op:?}").as_bytes());
            }
        }
        h.0
    }

    /// The `b`-th batch of the pool, as the index takes it.
    pub fn batch_query<'a>(&self, p: &'a Prepared, inputs: &'a Inputs, b: usize) -> Query<'a> {
        let batch = self.batch();
        let range = b * batch..(b + 1) * batch;
        match self.kind {
            Kind::BatchKnn { k, .. } => Query::Knn {
                queries: &p.queries[range],
                k,
            },
            Kind::BatchRange { .. } => Query::Range {
                queries: &p.queries[range.clone()],
                radii: &inputs.radii[range],
            },
            Kind::Serve { .. } => panic!("a serve workload has no batches of its own"),
        }
    }

    /// What the oracle is asked about pool entry `query`.
    pub fn asked(&self, inputs: &Inputs, query: usize) -> Asked {
        match self.kind {
            Kind::BatchKnn { k, .. } => Asked::Knn { query, k },
            Kind::BatchRange { .. } => Asked::Range {
                query,
                radius: inputs.radii[query],
            },
            Kind::Serve { .. } => panic!("serve requests carry their own question"),
        }
    }
}

/// The program set up for one workload: inputs converted, index built,
/// service (if any) started.
pub struct Prepared {
    pub index: Index,
    pub service: Option<Service>,
    pub queries: Vec<Item>,
    pub fresh: Vec<Item>,
}

impl Prepared {
    pub fn new(w: &Workload, inputs: &Inputs) -> Result<Prepared, String> {
        let index = Index::build(sut::items(&inputs.data), w.space, w.topology())?;
        let service = matches!(w.kind, Kind::Serve { .. })
            .then(|| Service::start(&index, w.topology(), Observe::default()));
        Ok(Prepared {
            index,
            service,
            queries: sut::items(&inputs.queries),
            fresh: sut::items(&inputs.fresh),
        })
    }
}

/// Set the program up `repeats` times, each from the generated inputs to a
/// started service, keep the last; returns it with the median seconds.
/// Input generation is the benchmark's own code and frozen, so it is not
/// counted: it would only dilute the program's share of the time.
pub fn timed_setup(
    w: &Workload,
    inputs: &Inputs,
    repeats: usize,
) -> Result<(Prepared, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..repeats {
        drop(last.take());
        let start = Instant::now();
        last = Some(Prepared::new(w, inputs)?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one repeat"), stats::median(&times)))
}

/// A resident-set reading of this process in MB: `VmRSS:` (now) or
/// `VmHWM:` (the peak so far).
pub fn rss_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with(field))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One answer the oracle will judge.
pub struct Sample {
    pub asked: Asked,
    /// Updates serialized before the answer (0 on an index nobody updates).
    pub epoch: u64,
    pub answer: Vec<Hit>,
}

/// Judge `samples` against a brute-force search over the live set at each
/// sample's epoch, rebuilt by replaying the first `epoch` of `updates` in
/// submission order. Returns `(checked, wrong)` and notes the first few
/// disagreements.
pub fn judge(
    inputs: &Inputs,
    updates: &[Op],
    mut samples: Vec<Sample>,
    notes: &mut Vec<String>,
) -> (u64, u64) {
    samples.sort_by_key(|s| s.epoch);
    let mut live = LiveSet::new(inputs.space, &inputs.data);
    let mut applied = 0usize;
    let mut wrong = 0u64;
    // Identical answers to one question at one epoch are judged once.
    let mut judged: Vec<(&Sample, bool)> = Vec::new();
    for s in &samples {
        while applied < s.epoch as usize && applied < updates.len() {
            apply(&mut live, &updates[applied], &inputs.fresh);
            applied += 1;
        }
        if (applied as u64) < s.epoch {
            wrong += 1;
            note(
                notes,
                format!("epoch {} exceeds the {} updates sent", s.epoch, applied),
            );
            continue;
        }
        let known = judged
            .iter()
            .rev()
            .take_while(|(j, _)| j.epoch == s.epoch)
            .find(|(j, _)| j.asked == s.asked && j.answer == s.answer);
        let ok = match known {
            Some(&(_, ok)) => ok,
            None => {
                let verdict = match &s.asked {
                    Asked::Knn { query, k } => {
                        live.check_knn(&inputs.queries[*query], *k, &s.answer)
                    }
                    Asked::Range { query, radius } => {
                        live.check_range(&inputs.queries[*query], *radius, &s.answer)
                    }
                    Asked::Update => Ok(()),
                };
                if let Err(why) = &verdict {
                    note(
                        notes,
                        format!("oracle: {:?} at epoch {}: {why}", s.asked, s.epoch),
                    );
                }
                judged.push((s, verdict.is_ok()));
                verdict.is_ok()
            }
        };
        wrong += u64::from(!ok);
    }
    (samples.len() as u64, wrong)
}

fn apply(live: &mut LiveSet, op: &Op, fresh: &[Obj]) {
    match op {
        Op::Insert { fresh: f } => {
            live.insert(fresh[*f].clone());
        }
        Op::Remove { id } => {
            live.remove(*id);
        }
        Op::BatchUpdate { fresh: fs, ids } => {
            // The program tombstones the deletions, then appends.
            ids.iter().for_each(|&id| {
                live.remove(id);
            });
            fs.iter().for_each(|&f| {
                live.insert(fresh[f].clone());
            });
        }
        Op::Knn { .. } | Op::Range { .. } => {}
    }
}

pub fn note(notes: &mut Vec<String>, text: String) {
    if notes.len() < 12 {
        notes.push(text);
    }
}

/// Latency percentiles under the ≥ 10-samples-beyond rule, with a note when
/// the sample is too small and the highest supported rank stands in.
pub fn set_percentile(
    metrics: &mut Metrics,
    notes: &mut Vec<String>,
    name: &'static str,
    values: &[f64],
    p: f64,
) {
    let (value, fell_back) = stats::percentile_or_supported(values, p);
    if fell_back {
        note(
            notes,
            format!(
                "{name}: {} samples cannot support p{}",
                values.len(),
                p * 100.0
            ),
        );
    }
    metrics.set(name, value);
}

/// Outcome of the batch loop shared by the untraced pass and the tests.
pub struct BatchLoop {
    pub events: Vec<Completion>,
    pub latency_ms: Vec<f64>,
    /// Simulated span cycles after each batch (one more entry than batches:
    /// the first is the reading before the loop).
    pub cycles: Vec<u64>,
    pub samples: Vec<Sample>,
    pub failed_ops: u64,
}

/// Which pool entries the oracle samples: one residue class, seeded.
pub fn sampled_residue(w: &Workload, seed: u64) -> usize {
    SplitMix64::new(seed ^ 0x5A3B).below(w.oracle_one_in)
}

/// Run batch `b` of the pool, keep the sampled answers.
pub fn run_batch(
    w: &Workload,
    p: &Prepared,
    inputs: &Inputs,
    b: usize,
    residue: usize,
    out: &mut BatchLoop,
    clock: Instant,
) {
    let query = w.batch_query(p, inputs, b);
    let begin = Instant::now();
    let answers = p.index.call(Layer::Top, &query);
    out.latency_ms.push(begin.elapsed().as_secs_f64() * 1e3);
    out.events.push(Completion {
        at: clock.elapsed().as_secs_f64(),
        ops: query.len() as u64,
    });
    out.cycles.push(p.index.span_cycles());
    match answers {
        Ok(answers) => {
            let first = b * w.batch();
            for (j, a) in answers.iter().enumerate() {
                if (first + j) % w.oracle_one_in == residue {
                    out.samples.push(Sample {
                        asked: w.asked(inputs, first + j),
                        epoch: 0,
                        answer: sut::hits(a),
                    });
                }
            }
        }
        Err(_) => out.failed_ops += query.len() as u64,
    }
}

/// The untraced pass: end-to-end metrics, tracing and metrics off.
pub fn run_untraced(w: &'static Workload, cfg: RunConfig) -> Result<RunResult, String> {
    let inputs = w.inputs(cfg.seed);
    let input_hash = w.input_hash(&inputs, cfg.seed);
    let repeats = if cfg.quick { 2 } else { 11 };
    let (prepared, setup_s) = timed_setup(w, &inputs, repeats)?;
    let mut metrics = Metrics::default();
    let mut notes = Vec::new();
    metrics.set("setup_s", setup_s);
    // Resident before the first query: the data and the index over it.
    metrics.set("setup_rss_mb", rss_mb("VmRSS:"));
    let (attempted, failed, valid) = match w.kind {
        Kind::Serve { open_rate, .. } => untraced_serve(
            w,
            cfg,
            &inputs,
            prepared,
            open_rate,
            &mut metrics,
            &mut notes,
        )?,
        _ => untraced_batch(w, cfg, &inputs, &prepared, &mut metrics, &mut notes)?,
    };
    Ok(RunResult {
        workload: w.name,
        traced: false,
        seed: cfg.seed,
        input_hash,
        attempted,
        failed,
        metrics,
        notes,
        valid,
        breakdown: None,
    })
}

fn untraced_batch(
    w: &Workload,
    cfg: RunConfig,
    inputs: &Inputs,
    p: &Prepared,
    metrics: &mut Metrics,
    notes: &mut Vec<String>,
) -> Result<(u64, u64, bool), String> {
    let pool_batches = w.pool / w.batch();
    let residue = sampled_residue(w, cfg.seed);
    let warm = cfg.seconds * WARM_SHARE;
    let clock = Instant::now();
    let mut run = BatchLoop {
        events: Vec::new(),
        latency_ms: Vec::new(),
        cycles: vec![p.index.span_cycles()],
        samples: Vec::new(),
        failed_ops: 0,
    };
    let mut b = 0;
    while clock.elapsed().as_secs_f64() < warm + cfg.seconds {
        run_batch(w, p, inputs, b % pool_batches, residue, &mut run, clock);
        b += 1;
    }
    let t = stats::throughput(&run.events, 0.0, warm)
        .ok_or("too few batches completed to measure throughput")?;
    let timed = &run.latency_ms[t.first_timed..];
    metrics.set("ops_per_s", t.ops_per_s);
    metrics.set("latency_ms_p50", stats::median(timed));
    // Simulated time per query over whole pool passes, so that it repeats
    // exactly however many batches the wall clock allowed.
    let whole = timed.len() / pool_batches * pool_batches;
    let counted = if whole > 0 { whole } else { timed.len() };
    let cycles = run.cycles[t.first_timed + counted] - run.cycles[t.first_timed];
    metrics.set(
        "sim_cycles_per_op",
        cycles as f64 / (counted * w.batch()) as f64,
    );
    let attempted: u64 = run.events[t.first_timed..].iter().map(|e| e.ops).sum();
    let (checked, wrong) = judge(inputs, &[], run.samples, notes);
    note(notes, format!("oracle checked {checked} answers"));
    Ok((attempted, run.failed_ops + wrong, true))
}

/// Records of a closed-loop phase after its warm-up, and its throughput.
pub struct Phase<'r> {
    pub timed: &'r [Record],
    pub ops_per_s: Option<f64>,
}

pub fn phase(records: &[Record], begin: f64, warm: f64) -> Phase<'_> {
    let events: Vec<Completion> = records
        .iter()
        .map(|r| Completion { at: r.done, ops: 1 })
        .collect();
    match stats::throughput(&events, begin, warm) {
        Some(t) => Phase {
            timed: &records[t.first_timed..],
            ops_per_s: Some(t.ops_per_s),
        },
        None => Phase {
            timed: due_after(records, begin + warm),
            ops_per_s: None,
        },
    }
}

/// Records of an open-loop phase that were due after its warm-up.
pub fn due_after(records: &[Record], at: f64) -> &[Record] {
    &records[records.partition_point(|r| r.due < at)..]
}

pub fn samples_of(records: &[Record]) -> Vec<Sample> {
    records
        .iter()
        .filter_map(|r| {
            let a = r.result.as_ref().ok()?;
            Some(Sample {
                asked: r.asked.clone(),
                epoch: a.epoch,
                answer: a.answer.clone()?,
            })
        })
        .collect()
}

pub fn failures(records: &[Record], notes: &mut Vec<String>) -> u64 {
    let mut failed = 0;
    for r in records {
        if let Err(why) = &r.result {
            failed += 1;
            note(notes, format!("request failed: {why}"));
        }
    }
    failed
}

pub fn lag_ms_p99(records: &[Record]) -> f64 {
    let lags: Vec<f64> = records.iter().map(|r| r.lag * 1e3).collect();
    stats::percentile_or_supported(&lags, 0.99).0
}

/// Simulated span cycles per query of [`DIRECT_QUERIES`] kNN queries sent
/// straight to the index (reads are allowed while a service holds it).
pub fn direct_sim_cycles(p: &Prepared, k: usize) -> Result<f64, String> {
    let before = p.index.span_cycles();
    let queries = &p.queries[..p.queries.len().min(DIRECT_QUERIES)];
    for queries in queries.chunks(DIRECT_BATCH) {
        p.index.call(Layer::Top, &Query::Knn { queries, k })?;
    }
    Ok((p.index.span_cycles() - before) as f64 / queries.len() as f64)
}

fn untraced_serve(
    w: &Workload,
    cfg: RunConfig,
    inputs: &Inputs,
    mut p: Prepared,
    open_rate: f64,
    metrics: &mut Metrics,
    notes: &mut Vec<String>,
) -> Result<(u64, u64, bool), String> {
    let service = p.service.take().expect("serve workloads start a service");
    let mut gen = LoadGen::new(
        service.submitter(),
        &p.queries,
        &p.fresh,
        w.stream(cfg.seed).expect("serve workloads have a stream"),
        w.oracle_one_in as u64,
        cfg.seed,
        Instant::now(),
    );
    let mut arrivals = SplitMix64::new(cfg.seed ^ 0xA221);
    let closed_secs = cfg.seconds * CLOSED_SHARE;
    let open_secs = cfg.seconds - closed_secs;

    let sim_cycles_per_op = direct_sim_cycles(&p, w.k())?;
    let closed_begin = gen.now();
    let closed = gen.closed(closed_secs * (1.0 + WARM_SHARE), WINDOW);
    let open_begin = gen.now();
    let open = gen.open(open_secs * (1.0 + WARM_SHARE), open_rate, &mut arrivals);
    let counts = service.shutdown();

    let a = phase(&closed, closed_begin, closed_secs * WARM_SHARE);
    let b = due_after(&open, open_begin + open_secs * WARM_SHARE);
    metrics.set(
        "ops_per_s",
        a.ops_per_s
            .ok_or("too few requests completed to measure throughput")?,
    );
    let latency: Vec<f64> = b
        .iter()
        .filter(|r| r.result.is_ok())
        .map(Record::latency_ms)
        .collect();
    metrics.set("latency_ms_p50", stats::median(&latency));
    metrics.set("sim_cycles_per_op", sim_cycles_per_op);

    let lag = lag_ms_p99(b);
    let valid = lag <= MAX_LAG_MS;
    if !valid {
        note(
            notes,
            format!("open-loop generator ran {lag:.3} ms late at p99 (limit {MAX_LAG_MS} ms)"),
        );
    }
    let attempted = (a.timed.len() + b.len()) as u64;
    let failed = failures(a.timed, notes) + failures(b, notes);
    let mut samples = samples_of(&closed);
    samples.extend(samples_of(&open));
    let (checked, wrong) = judge(inputs, &gen.updates, samples, notes);
    note(
        notes,
        format!(
            "oracle checked {checked} answers; service ran {} batches to epoch {}, rejected {}",
            counts.batches, counts.epoch, counts.rejected
        ),
    );
    Ok((attempted, failed + wrong, valid))
}
