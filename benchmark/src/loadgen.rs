//! Load generation for the serve workloads: one submitter thread, one
//! waiter (the calling thread), closed loop or open loop.
//!
//! The waiter redeems tickets in submission order. With one lane the
//! service answers strictly first-in first-out, so that is exact; with two
//! lanes a response can be ready up to one batch before the waiter reaches
//! it, which is what a client pipelining over one connection would see.

use crate::data::{Op, OpStream, SplitMix64};
use crate::oracle::Hit;
use crate::sut::{self, Body, Pending, ServiceRequest, Submitter};
use gts::metric::Item;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// What the oracle needs to know about a request.
#[derive(Clone, Debug, PartialEq)]
pub enum Asked {
    Knn { query: usize, k: usize },
    Range { query: usize, radius: f64 },
    Update,
}

/// What came back, reduced to numbers (the answer is kept only for requests
/// the oracle sampled).
#[derive(Clone, Debug)]
pub struct Answered {
    pub epoch: u64,
    pub queue_wait_us: u64,
    pub batch_size: usize,
    pub answer: Option<Vec<Hit>>,
}

/// One request's life, in seconds on the generator's clock.
#[derive(Clone, Debug)]
pub struct Record {
    pub asked: Asked,
    /// When the request was due: its scheduled arrival (open loop) or the
    /// moment the submitter turned to it (closed loop). Latency counts from
    /// here, so a stall's wait is charged to the requests it delayed.
    pub due: f64,
    /// How long after `due` the submit call began (open loop lag).
    pub lag: f64,
    /// Duration of the submit call itself.
    pub submit: f64,
    pub done: f64,
    /// `Err` for a refused or failed request.
    pub result: Result<Answered, String>,
}

impl Record {
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }
}

struct InFlight {
    asked: Asked,
    due: f64,
    lag: f64,
    submit: f64,
    sampled: bool,
    pending: Result<Pending, String>,
}

/// The generator: owns the seeded request stream and the log of every
/// update submitted so far (the oracle replays it).
pub struct LoadGen<'a> {
    pub clock: Instant,
    submitter: Submitter,
    queries: &'a [Item],
    fresh: &'a [Item],
    stream: OpStream,
    /// Every update op submitted, in submission order — the order the
    /// service serializes them in, hence epoch `e` = the first `e` entries.
    pub updates: Vec<Op>,
    issued: u64,
    sample_one_in: u64,
    sample_salt: u64,
}

impl<'a> LoadGen<'a> {
    pub fn new(
        submitter: Submitter,
        queries: &'a [Item],
        fresh: &'a [Item],
        stream: OpStream,
        sample_one_in: u64,
        seed: u64,
        clock: Instant,
    ) -> Self {
        LoadGen {
            clock,
            submitter,
            queries,
            fresh,
            stream,
            updates: Vec::new(),
            issued: 0,
            sample_one_in,
            sample_salt: SplitMix64::new(seed ^ 0x5A3B).next_u64(),
        }
    }

    pub fn now(&self) -> f64 {
        self.clock.elapsed().as_secs_f64()
    }

    /// Send what follows to another service over the same index.
    pub fn rebind(&mut self, submitter: Submitter) {
        self.submitter = submitter;
    }

    /// The next request of the stream, and whether the oracle samples it.
    fn next(&mut self) -> (Asked, ServiceRequest, bool) {
        let op = self.stream.next().expect("the stream is endless");
        self.issued += 1;
        let pick = SplitMix64::new(self.issued ^ self.sample_salt).next_u64();
        let sampled = !op.is_update() && pick.is_multiple_of(self.sample_one_in);
        let (asked, request) = match &op {
            Op::Knn { query, k } => (
                Asked::Knn {
                    query: *query,
                    k: *k,
                },
                sut::knn_request(&self.queries[*query], *k),
            ),
            Op::Range { query, radius } => (
                Asked::Range {
                    query: *query,
                    radius: *radius,
                },
                sut::range_request(&self.queries[*query], *radius),
            ),
            Op::Insert { fresh } => (Asked::Update, sut::insert_request(&self.fresh[*fresh])),
            Op::Remove { id } => (Asked::Update, sut::remove_request(*id)),
            Op::BatchUpdate { fresh, ids } => (
                Asked::Update,
                sut::batch_update_request(
                    fresh.iter().map(|&f| self.fresh[f].clone()).collect(),
                    ids.clone(),
                ),
            ),
        };
        if op.is_update() {
            self.updates.push(op);
        }
        (asked, request, sampled)
    }

    fn submit(&mut self, due: f64) -> InFlight {
        let (asked, request, sampled) = self.next();
        let begin = self.now();
        let pending = self.submitter.submit(request);
        let end = self.now();
        InFlight {
            asked,
            due,
            lag: begin - due,
            submit: end - begin,
            sampled,
            pending,
        }
    }

    /// Closed loop: at most `window` requests outstanding, the next one
    /// submitted as soon as a slot frees, for `secs` seconds; then drain.
    pub fn closed(&mut self, secs: f64, window: usize) -> Vec<Record> {
        let clock = self.clock;
        // The channel is the window: `send` blocks while `window` tickets
        // wait to be redeemed.
        let (tx, rx) = mpsc::sync_channel::<InFlight>(window);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let stop = self.now() + secs;
                while self.now() < stop {
                    let due = self.now();
                    let flight = self.submit(due);
                    if tx.send(flight).is_err() {
                        break;
                    }
                }
            });
            rx.into_iter().map(|f| redeem(f, clock)).collect()
        })
    }

    /// Open loop: Poisson arrivals at `rate` per second for `secs` seconds,
    /// submitted on schedule whatever the service does; then drain.
    pub fn open(&mut self, secs: f64, rate: f64, arrivals: &mut SplitMix64) -> Vec<Record> {
        let clock = self.clock;
        let (tx, rx) = mpsc::channel::<InFlight>();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let begin = self.now();
                let mut due = begin;
                loop {
                    due += arrivals.exponential() / rate;
                    if due >= begin + secs {
                        break;
                    }
                    // Sleep, never spin: on a two-core box a spinning
                    // generator would take a core from the program.
                    let ahead = due - self.now();
                    if ahead > 0.0 {
                        std::thread::sleep(Duration::from_secs_f64(ahead));
                    }
                    let flight = self.submit(due);
                    if tx.send(flight).is_err() {
                        break;
                    }
                }
            });
            rx.into_iter().map(|f| redeem(f, clock)).collect()
        })
    }
}

fn redeem(flight: InFlight, clock: Instant) -> Record {
    let result = flight.pending.and_then(Pending::wait).map(|o| Answered {
        epoch: o.epoch,
        queue_wait_us: o.queue_wait_us,
        batch_size: o.batch_size,
        answer: match o.body {
            Body::Neighbors(n) if flight.sampled => Some(sut::hits(&n)),
            _ => None,
        },
    });
    Record {
        asked: flight.asked,
        due: flight.due,
        lag: flight.lag,
        submit: flight.submit,
        done: clock.elapsed().as_secs_f64(),
        result,
    }
}
