//! Host-side parallel execution of simulated kernels.
//!
//! Kernels are pure per-item closures, so executing them with real host
//! threads is safe and — crucially — *deterministic*: every item writes its
//! own result slot, and results are read back in item order. Host
//! threading affects wall-clock time only; simulated cycles are computed
//! analytically from the work the closures report.
//!
//! [`map`] is the one way the program runs independent items on host
//! threads: item 0 runs on the calling thread, the rest on a **persistent
//! host worker pool**, and the results come back in item order. The shard
//! scatter, the replica route and the sharded build map over shards with
//! it; [`par_run`] maps over round-robin groups of pre-split kernel
//! chunks (the batched-kernel shape of
//! [`Device::run_batch_chunks`](crate::Device::run_batch_chunks)). Chunks
//! are cut to the fixed size [`BATCH_CHUNK`] by the caller, so the chunk
//! boundaries — and therefore every per-chunk result — are independent of
//! the thread count; `(work, span)` combine by `u64` sum/max, which are
//! associative and commutative, so the aggregate charge is bit-identical
//! for 1 or N threads.
//!
//! The pool replaces fresh OS threads per batch: the serving hot paths
//! dispatch thousands of small batches per query wave, and a
//! `thread::scope` spawn per batch costs more than many of the kernels
//! themselves. Workers are spawned lazily on first demand, grow up to
//! [`MAX_WORKERS`], and then live for the life of the process, parked on a
//! condvar when idle.
//!
//! **Nesting.** An item may itself call [`map`] (a shard job on a pool
//! worker fans out its own kernel chunks). Before a caller sleeps on its
//! items, it runs those of its own items no worker has picked up yet, so
//! it only ever waits on items that are running on some thread. Leaf
//! items never wait, so by induction on the nesting depth every wait ends
//! — however many callers nest, and even when every worker is busy.
//!
//! Every item runs under its caller's trace context
//! ([`gts_trace::current_ctx`]), so events recorded on a worker keep the
//! request/batch/shard association of the code that fanned out.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

/// Upper bound on persistent host workers. Callers may submit more items
/// than this; the excess queue and run as workers free up (or on their
/// caller, see the module docs), which changes wall-clock only (results
/// are position-addressed, so scheduling order is invisible).
pub const MAX_WORKERS: usize = 64;

/// A job as the pool stores it: lifetime-erased (see the `SAFETY` argument
/// in [`map`]).
type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    /// Queued jobs, each tagged with the [`Latch`] of the call that
    /// submitted it.
    jobs: VecDeque<(usize, Job)>,
    /// Workers ever spawned (monotone, ≤ [`MAX_WORKERS`]).
    workers: usize,
    /// Workers currently parked waiting for a job.
    idle: usize,
}

/// The process-wide host worker pool.
struct HostPool {
    state: Mutex<PoolState>,
    available: Condvar,
}

fn lock_ignoring_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Jobs catch their own panics, and latch/pool critical sections only
    // move plain data, so a poisoned lock still guards a consistent state.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn host_pool() -> &'static HostPool {
    static POOL: OnceLock<HostPool> = OnceLock::new();
    POOL.get_or_init(|| HostPool {
        state: Mutex::new(PoolState {
            jobs: VecDeque::new(),
            workers: 0,
            idle: 0,
        }),
        available: Condvar::new(),
    })
}

impl HostPool {
    fn submit(&'static self, tag: usize, job: Job) {
        let mut st = lock_ignoring_poison(&self.state);
        st.jobs.push_back((tag, job));
        // Grow only when nobody is parked; a worker mid-transition between
        // jobs may cause one extra spawn, which the cap bounds. A failed
        // spawn leaves the job queued for its caller to run before it
        // waits, so submitting never panics.
        if st.idle == 0 && st.workers < MAX_WORKERS {
            let spawned = std::thread::Builder::new()
                .name("gts-host-kernel".into())
                .spawn(move || self.worker_loop());
            st.workers += usize::from(spawned.is_ok());
        }
        drop(st);
        self.available.notify_one();
    }

    /// Dequeue one job submitted under `tag` that no worker has taken.
    fn take_own(&self, tag: usize) -> Option<Job> {
        let mut st = lock_ignoring_poison(&self.state);
        let at = st.jobs.iter().rposition(|&(t, _)| t == tag)?;
        st.jobs.remove(at).map(|(_, job)| job)
    }

    fn worker_loop(&'static self) {
        loop {
            let job = {
                let mut st = lock_ignoring_poison(&self.state);
                loop {
                    if let Some((_, j)) = st.jobs.pop_front() {
                        break j;
                    }
                    st.idle += 1;
                    st = self
                        .available
                        .wait(st)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    st.idle -= 1;
                }
            };
            // Jobs catch their own panics (see `map`), so this call never
            // unwinds the worker.
            job();
        }
    }
}

/// Completion latch of one [`map`] call: counts its outstanding pool jobs.
struct Latch {
    pending: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    /// The tag the call's jobs carry in the pool queue: the latch's
    /// address, unique while the call runs.
    fn tag(&self) -> usize {
        self as *const Latch as usize
    }

    fn count_down(&self) {
        let mut pending = lock_ignoring_poison(&self.pending);
        *pending -= 1;
        if *pending == 0 {
            self.done.notify_all();
        }
    }

    /// Run the call's jobs still queued, then sleep until the rest — all
    /// running on workers by now — have finished.
    fn help_and_wait(&self, pool: &HostPool) {
        while let Some(job) = pool.take_own(self.tag()) {
            job();
        }
        let mut pending = lock_ignoring_poison(&self.pending);
        while *pending > 0 {
            pending = self
                .done
                .wait(pending)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// Map `f` over owned `items`, returning the results in item order.
///
/// `f` receives each item's index. Item 0 runs on the calling thread and
/// the rest on the persistent host pool (inline when there is at most one
/// item). Every item runs to completion before this returns; a panic in
/// any item is re-raised here afterwards with its original payload (the
/// lowest-indexed panicking item wins), so typed panics such as an
/// injected device fault stay downcastable.
pub fn map<I, T, F>(items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    if items.len() <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let ctx = gts_trace::current_ctx();
    let pool = host_pool();
    let latch = Latch {
        pending: Mutex::new(items.len() - 1),
        done: Condvar::new(),
    };
    let mut slots: Vec<Option<std::thread::Result<T>>> = items.iter().map(|_| None).collect();
    {
        let (f, latch) = (&f, &latch);
        let mut work = items.into_iter().zip(slots.iter_mut()).enumerate();
        let (_, (first, first_slot)) = work.next().expect("at least two items");
        for (i, (item, slot)) in work {
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                {
                    let _ctx = gts_trace::scoped_ctx(ctx);
                    *slot = Some(catch_unwind(AssertUnwindSafe(|| f(i, item))));
                }
                latch.count_down();
            });
            // SAFETY: the pool requires `'static` jobs, but `job` borrows
            // non-static data (`f`, the result slot and `latch`). Erasing
            // the lifetime is sound because this function does not return
            // (or unwind: every item runs under `catch_unwind`, and `submit`
            // never panics) until the latch records that every submitted
            // job has run — each job
            // counts down only after its item and slot writes are done —
            // and the pool never drops a queued job unexecuted (workers are
            // never shut down, and `help_and_wait` runs what it dequeues).
            // Hence every erased borrow strictly outlives its use.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
            pool.submit(latch.tag(), job);
        }
        *first_slot = Some(catch_unwind(AssertUnwindSafe(|| f(0, first))));
        latch.help_and_wait(pool);
    }
    slots
        .into_iter()
        .map(|slot| match slot.expect("every item ran") {
            Ok(v) => v,
            Err(payload) => resume_unwind(payload),
        })
        .collect()
}

/// Fixed chunk length (in grid items, i.e. distance pairs) for
/// host-parallel batched kernels.
///
/// Batched kernels split each id block into chunks of exactly this many
/// items *before* choosing how many threads execute them, so the set of
/// chunks — and every chunk's `(work, span)` contribution — is a pure
/// function of the block, never of the host.
pub const BATCH_CHUNK: usize = 2048;

/// Execute pre-split chunk work items across up to `threads` host workers,
/// returning the combined `(total_work, span)`.
///
/// Work items are assigned to groups round-robin by chunk index (group
/// `t` runs chunks `t, t + T, t + 2T, …` in order), each item reports the
/// `(work, span)` it performed, and group results combine in fixed group
/// order by sum/max — both associative and commutative over `u64`, so the
/// return value is **bit-identical regardless of `threads`**. The groups
/// run through [`map`]; everything runs inline when `threads <= 1` or
/// there is at most one item.
///
/// The items themselves must keep their side effects disjoint (each chunk
/// writes its own output slice); the batched kernels guarantee this by
/// construction.
pub fn par_run<I, F>(items: Vec<I>, threads: usize, f: F) -> (u64, u64)
where
    I: Send,
    F: Fn(I) -> (u64, u64) + Sync,
{
    let combine = |(total, span): (u64, u64), (w, s): (u64, u64)| (total + w, span.max(s));
    if threads <= 1 || items.len() <= 1 {
        return items.into_iter().map(&f).fold((0, 0), combine);
    }
    let threads = threads.min(items.len());
    // Round-robin partition: group t owns chunks t, t+T, … — contiguous
    // blocks vary in payload size, so striding balances better than
    // splitting the chunk list in half.
    let mut groups: Vec<Vec<I>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        groups[i % threads].push(item);
    }
    map(groups, |_, group| {
        group.into_iter().map(&f).fold((0, 0), combine)
    })
    .into_iter()
    .fold((0, 0), combine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn map_is_ordered_and_complete() {
        let v = map((0..1000).collect(), |i, x: usize| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(v.len(), 1000);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i * 2));
        assert!(map(Vec::<usize>::new(), |_, x| x).is_empty());
        assert_eq!(map(vec![7], |i, x: usize| x + i), vec![7]);
    }

    #[test]
    fn pool_is_reused_across_calls() {
        // Many back-to-back calls must not exceed the worker cap — the pool
        // parks and reuses its threads instead of spawning per call.
        for round in 0..50 {
            let v = map(vec![round; 4], |i, r: usize| i + r);
            assert_eq!(v, vec![round, round + 1, round + 2, round + 3]);
        }
        let st = lock_ignoring_poison(&host_pool().state);
        assert!(st.workers <= MAX_WORKERS);
        assert!(st.workers >= 1, "parallel calls used pool workers");
    }

    #[test]
    fn items_run_under_the_callers_trace_context() {
        let ctx = gts_trace::TraceCtx {
            shard: Some(5),
            ..gts_trace::TraceCtx::default()
        };
        let _scope = gts_trace::scoped_ctx(ctx);
        let seen = map(vec![(); 8], |_, ()| gts_trace::current_ctx());
        assert!(seen.iter().all(|&c| c == ctx));
    }

    #[test]
    fn nested_maps_wider_than_the_pool_finish() {
        // More outer items than the pool has workers, each fanning out its
        // own inner items: with every worker blocked on an outer item, the
        // inner items still run because each waiter first runs its own
        // queued items. A deadlock fails the test instead of hanging it.
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let outer = 2 * MAX_WORKERS as u64 + 3;
            let sums = map((0..outer).collect(), |_, o: u64| {
                let inner = map((0..4).collect(), |_, i: u64| o * 10 + i);
                let (total, _) = par_run((0..5).collect(), 3, |c: u64| (c + o, 1));
                inner.iter().sum::<u64>() + total
            });
            tx.send(sums).expect("receiver waits");
        });
        let sums = rx
            .recv_timeout(Duration::from_secs(120))
            .expect("nested maps deadlocked");
        for (o, s) in sums.into_iter().enumerate() {
            let o = o as u64;
            assert_eq!(s, (40 * o + 6) + (10 + 5 * o));
        }
        assert!(lock_ignoring_poison(&host_pool().state).workers <= MAX_WORKERS);
    }

    #[test]
    fn par_run_combines_work_span_identically_across_thread_counts() {
        // Uneven per-chunk work: chunk i reports (i*3 + 1, i % 5).
        let mk_items = || (0..37u64).map(|i| (i * 3 + 1, i % 5)).collect::<Vec<_>>();
        let expect = mk_items()
            .into_iter()
            .fold((0u64, 0u64), |(t, s), (w, sp)| (t + w, s.max(sp)));
        for threads in [1, 2, 3, 8, 64] {
            let got = par_run(mk_items(), threads, |x| x);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn par_run_writes_disjoint_chunks() {
        let n = BATCH_CHUNK * 5 + 123;
        let mut out = vec![0u64; n];
        // Pre-split `out` into BATCH_CHUNK-sized work items.
        let items: Vec<(usize, &mut [u64])> = out
            .chunks_mut(BATCH_CHUNK)
            .enumerate()
            .map(|(c, slice)| (c * BATCH_CHUNK, slice))
            .collect();
        let (total, span) = par_run(items, 4, |(start, slice)| {
            for (i, v) in slice.iter_mut().enumerate() {
                *v = (start + i) as u64 * 2;
            }
            (slice.len() as u64, 1)
        });
        assert_eq!(total, n as u64);
        assert_eq!(span, 1);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u64 * 2));
    }

    #[test]
    fn par_run_empty_and_single() {
        assert_eq!(par_run(Vec::<(u64, u64)>::new(), 8, |x| x), (0, 0));
        assert_eq!(par_run(vec![(7, 3)], 8, |x| x), (7, 3));
    }

    #[test]
    fn item_panic_propagates_after_completion() {
        // A panicking item must re-raise on the caller with its payload,
        // after every sibling has finished (so the pool stays healthy and
        // later calls still work); the lowest panicking index wins.
        let res = catch_unwind(AssertUnwindSafe(|| {
            map((0..6).collect(), |_, i: usize| {
                assert!(i < 3, "boom at {i}");
                i
            })
        }));
        let payload = res.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<String>().expect("formatted panic");
        assert_eq!(msg, "boom at 3");
        // Pool still serves correct results afterwards.
        let v = map((0..6).collect(), |_, i: usize| i * 3);
        assert_eq!(v, vec![0, 3, 6, 9, 12, 15]);
    }
}
