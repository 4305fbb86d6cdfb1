//! The device: clock, memory allocator, kernel launcher, transfer model.

use crate::config::DeviceConfig;
use crate::error::GpuError;
use crate::exec;
use crate::fault::{DeviceFault, FaultKind};
use gts_trace::{DumpReason, EventKind, TraceEvent, TraceRecorder};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, RwLock};

/// Sentinel for "no fault armed" in the launch countdown.
const DISARMED: u64 = u64::MAX;

/// An attached trace destination: the recorder plus this device's ordinal
/// in the traced pool (its Chrome track id).
#[derive(Clone, Debug)]
struct TraceSink {
    rec: Arc<TraceRecorder>,
    device: u32,
}

/// A simulated GPU. Shared via `Arc`; all counters are atomic, so one device
/// can back several indexes at once (as in the paper, where the index and
/// the query batches share the 11 GB card).
#[derive(Debug)]
pub struct Device {
    cfg: DeviceConfig,
    /// Simulated time, in core cycles.
    cycles: AtomicU64,
    /// Cycles spent executing kernels (work–span charge + launch
    /// overhead). One of the three disjoint components of `cycles`.
    busy: AtomicU64,
    /// Cycles spent in H2D/D2H transfers.
    transfer: AtomicU64,
    /// Cycles spent stalled at lockstep barriers (`advance_clock_to`
    /// deltas: waiting for the slowest device of a lockstep level).
    stall: AtomicU64,
    /// Total work units ever charged (diagnostics).
    work: AtomicU64,
    /// Number of kernel launches.
    kernels: AtomicU64,
    /// Currently allocated bytes of global memory.
    allocated: AtomicU64,
    /// High-water mark of `allocated`.
    peak: AtomicU64,
    /// Host→device / device→host transferred bytes.
    h2d: AtomicU64,
    d2h: AtomicU64,
    /// Failed allocations observed (memory-deadlock diagnostics, Fig. 9).
    oom_events: AtomicU64,
    /// Remaining kernel launches until an armed fault fires; [`DISARMED`]
    /// when no fault is pending.
    fault_countdown: AtomicU64,
    /// Kind of the armed fault (1 = transient, 2 = permanent; 0 = none).
    fault_kind: AtomicU8,
    /// Health flag: cleared when a permanent fault quarantines the device.
    healthy: AtomicBool,
    /// Faults that have fired on this device.
    faults: AtomicU64,
    /// Fast-path flag: true while a trace recorder is attached. The
    /// disabled path of every would-be trace site is this single relaxed
    /// load (and its predictable branch).
    trace_on: AtomicBool,
    /// The attached recorder, if any. Events *observe* the clock this
    /// device already advanced — recording never moves simulated time, so
    /// tracing cannot change answers, epochs, or cycle counts.
    trace: RwLock<Option<TraceSink>>,
}

/// Snapshot of the device counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Simulated cycles elapsed.
    pub cycles: u64,
    /// Cycles spent executing kernels. Together with `transfer_cycles`
    /// and `stall_cycles` this partitions `cycles` exactly: the clock
    /// only advances through those three paths.
    pub busy_cycles: u64,
    /// Cycles spent in H2D/D2H transfers.
    pub transfer_cycles: u64,
    /// Cycles spent stalled at lockstep barriers waiting for a slower
    /// device.
    pub stall_cycles: u64,
    /// Total charged work units.
    pub work: u64,
    /// Kernel launches.
    pub kernels: u64,
    /// Live allocated bytes.
    pub allocated: u64,
    /// Peak allocated bytes.
    pub peak_allocated: u64,
    /// Host→device bytes transferred.
    pub h2d_bytes: u64,
    /// Device→host bytes transferred.
    pub d2h_bytes: u64,
    /// Allocation failures.
    pub oom_events: u64,
    /// Injected faults that fired on this device (transient + permanent).
    pub faults_injected: u64,
    /// False when a permanent fault has quarantined the device.
    pub healthy: bool,
}

impl Device {
    /// Create a device with the given configuration.
    pub fn new(cfg: DeviceConfig) -> Arc<Device> {
        Arc::new(Device {
            cfg,
            cycles: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            transfer: AtomicU64::new(0),
            stall: AtomicU64::new(0),
            work: AtomicU64::new(0),
            kernels: AtomicU64::new(0),
            allocated: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            h2d: AtomicU64::new(0),
            d2h: AtomicU64::new(0),
            oom_events: AtomicU64::new(0),
            fault_countdown: AtomicU64::new(DISARMED),
            fault_kind: AtomicU8::new(0),
            healthy: AtomicBool::new(true),
            faults: AtomicU64::new(0),
            trace_on: AtomicBool::new(false),
            trace: RwLock::new(None),
        })
    }

    /// The paper's testbed GPU (RTX 2080 Ti, 11 GB).
    pub fn rtx_2080_ti() -> Arc<Device> {
        Device::new(DeviceConfig::rtx_2080_ti())
    }

    /// Device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    // -- clock ------------------------------------------------------------

    /// Simulated cycles elapsed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles.load(Ordering::Relaxed)
    }

    /// Simulated seconds elapsed so far.
    pub fn sim_seconds(&self) -> f64 {
        self.cycles() as f64 / self.cfg.clock_hz
    }

    /// Simulated seconds elapsed since a cycle checkpoint.
    pub fn seconds_since(&self, start_cycles: u64) -> f64 {
        (self.cycles().saturating_sub(start_cycles)) as f64 / self.cfg.clock_hz
    }

    /// Advance the clock to at least `target` cycles (no-op when the clock
    /// is already past it). Models **barrier idle time**: when devices
    /// execute in lockstep with a per-level barrier, every device waits for
    /// the slowest, so after each level all clocks align to the per-level
    /// maximum. Charged as pure elapsed
    /// time — no work, kernels, or transfers. The skipped-over interval
    /// is accrued as barrier-stall cycles (`fetch_max` returns the
    /// pre-advance clock, so the delta is exact even under racing
    /// advances).
    pub fn advance_clock_to(&self, target: u64) {
        let prev = self.cycles.fetch_max(target, Ordering::Relaxed);
        if target > prev {
            self.stall.fetch_add(target - prev, Ordering::Relaxed);
        }
    }

    /// Reset the clock and traffic counters (not allocations).
    pub fn reset_clock(&self) {
        self.cycles.store(0, Ordering::Relaxed);
        self.busy.store(0, Ordering::Relaxed);
        self.transfer.store(0, Ordering::Relaxed);
        self.stall.store(0, Ordering::Relaxed);
        self.work.store(0, Ordering::Relaxed);
        self.kernels.store(0, Ordering::Relaxed);
        self.h2d.store(0, Ordering::Relaxed);
        self.d2h.store(0, Ordering::Relaxed);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> DeviceStats {
        DeviceStats {
            cycles: self.cycles.load(Ordering::Relaxed),
            busy_cycles: self.busy.load(Ordering::Relaxed),
            transfer_cycles: self.transfer.load(Ordering::Relaxed),
            stall_cycles: self.stall.load(Ordering::Relaxed),
            work: self.work.load(Ordering::Relaxed),
            kernels: self.kernels.load(Ordering::Relaxed),
            allocated: self.allocated.load(Ordering::Relaxed),
            peak_allocated: self.peak.load(Ordering::Relaxed),
            h2d_bytes: self.h2d.load(Ordering::Relaxed),
            d2h_bytes: self.d2h.load(Ordering::Relaxed),
            oom_events: self.oom_events.load(Ordering::Relaxed),
            faults_injected: self.faults.load(Ordering::Relaxed),
            healthy: self.is_healthy(),
        }
    }

    // -- tracing ------------------------------------------------------------

    /// Attach a trace recorder; `device` is this device's ordinal in the
    /// traced pool (its track id in exports). Kernel launches and injected
    /// faults record typed events from now on. Replaces any previous
    /// attachment.
    pub fn attach_tracer(&self, rec: Arc<TraceRecorder>, device: u32) {
        *self.trace.write().unwrap_or_else(|e| e.into_inner()) = Some(TraceSink { rec, device });
        self.trace_on.store(true, Ordering::Release);
    }

    /// Detach the trace recorder (recording stops; already-recorded events
    /// stay with the recorder).
    pub fn detach_tracer(&self) {
        self.trace_on.store(false, Ordering::Release);
        *self.trace.write().unwrap_or_else(|e| e.into_inner()) = None;
    }

    /// The attached recorder and this device's traced ordinal, if any —
    /// how the index layers above reach the recorder without threading a
    /// handle through every call.
    pub fn tracer(&self) -> Option<(Arc<TraceRecorder>, u32)> {
        if !self.trace_on.load(Ordering::Acquire) {
            return None;
        }
        self.trace
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .map(|s| (Arc::clone(&s.rec), s.device))
    }

    // -- health & fault injection ------------------------------------------

    /// True until a permanent fault quarantines the device.
    pub fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::Relaxed)
    }

    /// Quarantine the device: every further kernel launch panics with a
    /// [`DeviceFault`] payload and allocations fail with
    /// [`GpuError::DeviceUnavailable`]. Fired automatically by permanent
    /// injected faults; callable directly by schedulers that decide a
    /// device must be fenced off.
    pub fn quarantine(&self) {
        self.healthy.store(false, Ordering::Relaxed);
    }

    /// Arm a fault that fires on the `at_launch`-th kernel launch from now
    /// (1-based: `at_launch = 1` fails the very next launch). A device
    /// holds at most one armed fault; arming again replaces it.
    pub fn arm_fault(&self, at_launch: u64, kind: FaultKind) {
        assert!(at_launch >= 1, "launch indexes are 1-based");
        self.fault_kind.store(
            match kind {
                FaultKind::Transient => 1,
                FaultKind::Permanent => 2,
            },
            Ordering::Relaxed,
        );
        self.fault_countdown.store(at_launch - 1, Ordering::Relaxed);
    }

    /// Fault gate, called on every kernel launch. A quarantined device
    /// refuses all work; an armed countdown decrements and fires at zero.
    /// The fault disarms *before* panicking so a retry after a transient
    /// fault succeeds; a permanent fault also quarantines the device.
    fn check_fault(&self) {
        if !self.is_healthy() {
            std::panic::panic_any(DeviceFault {
                kind: FaultKind::Permanent,
            });
        }
        let mut cur = self.fault_countdown.load(Ordering::Relaxed);
        loop {
            if cur == DISARMED {
                return;
            }
            if cur == 0 {
                match self.fault_countdown.compare_exchange(
                    0,
                    DISARMED,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let kind = if self.fault_kind.load(Ordering::Relaxed) == 2 {
                            FaultKind::Permanent
                        } else {
                            FaultKind::Transient
                        };
                        self.faults.fetch_add(1, Ordering::Relaxed);
                        if kind == FaultKind::Permanent {
                            self.quarantine();
                        }
                        // Flight recorder: stamp the fault and snapshot the
                        // tail of the trace *before* unwinding, so the dump
                        // still holds the faulting request's span chain.
                        if self.trace_on.load(Ordering::Acquire) {
                            if let Some(sink) = self
                                .trace
                                .read()
                                .unwrap_or_else(|e| e.into_inner())
                                .as_ref()
                            {
                                let now = self.cycles.load(Ordering::Relaxed);
                                sink.rec.record(TraceEvent::instant(
                                    EventKind::Fault {
                                        permanent: kind == FaultKind::Permanent,
                                    },
                                    gts_trace::current_ctx(),
                                    Some(sink.device),
                                    now,
                                ));
                                sink.rec.flight_dump(DumpReason::DeviceFault);
                            }
                        }
                        std::panic::panic_any(DeviceFault { kind });
                    }
                    Err(actual) => {
                        cur = actual;
                        continue;
                    }
                }
            }
            match self.fault_countdown.compare_exchange_weak(
                cur,
                cur - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    // -- kernel execution ---------------------------------------------------

    /// Charge one kernel with total work `w` and critical path `span`
    /// (work–span model: `max(⌈W/C⌉, S)` cycles plus launch overhead).
    pub fn charge_kernel(&self, w: u64, span: u64) {
        self.check_fault();
        let c = u64::from(self.cfg.cores);
        let exec_cycles = (w.div_ceil(c)).max(span);
        let charged = exec_cycles + self.cfg.kernel_launch_cycles;
        // `fetch_add` returns the pre-charge clock, giving the kernel span
        // its begin cycle for free — tracing observes the very same advance
        // the un-traced path performs, so counters are bit-identical.
        let begin = self.cycles.fetch_add(charged, Ordering::Relaxed);
        self.busy.fetch_add(charged, Ordering::Relaxed);
        self.work.fetch_add(w, Ordering::Relaxed);
        self.kernels.fetch_add(1, Ordering::Relaxed);
        if self.trace_on.load(Ordering::Acquire) {
            if let Some(sink) = self
                .trace
                .read()
                .unwrap_or_else(|e| e.into_inner())
                .as_ref()
            {
                sink.rec.record(TraceEvent::span(
                    EventKind::Kernel { work: w, span },
                    gts_trace::current_ctx(),
                    Some(sink.device),
                    begin,
                    begin + charged,
                ));
            }
        }
    }

    /// Launch a **batched** kernel over `n` logical threads.
    ///
    /// `launch_batch` hands the whole grid to one host-side batch routine
    /// `f` (e.g. a `BatchMetric` distance kernel writing an output
    /// slice) which reports the batch's `(result, total_work, span)` in one
    /// go — the work is charged **once per batch**, not bookkept per pair.
    /// Warp padding idles the partial warp's lanes for the mean thread
    /// duration, and the clock advances by `max(⌈W/C⌉, span)` plus launch
    /// overhead.
    ///
    /// `n = 0` executes `f` without charging (no kernel is launched).
    ///
    /// # Host parallelism and the determinism contract
    ///
    /// The batch routine is entered on the calling host thread, but it may
    /// fan its heavy lifting out over real host threads by handing
    /// fixed-size chunk work items to [`Device::run_batch_chunks`] and
    /// folding the returned `(work, span)` into the triple it reports —
    /// that is the parallel execution strategy of the GTS hot paths.
    /// Simulated time is analytic either way: chunks are cut at
    /// [`exec::BATCH_CHUNK`] boundaries *before* any thread count is
    /// consulted, per-chunk `(work, span)` combine by `u64` sum/max, and
    /// the batch is still charged **once**, so answers, tie-breaks, and
    /// cycle counts are bit-identical for 1 or N host threads — only
    /// wall-clock changes.
    pub fn launch_batch<T>(&self, n: usize, f: impl FnOnce() -> (T, u64, u64)) -> T {
        let (out, total, span) = f();
        if n == 0 {
            return out;
        }
        let warp = u64::from(self.cfg.warp_size);
        let lanes = (n as u64).div_ceil(warp) * warp;
        let padded = total + (lanes - n as u64) * (total / n as u64);
        self.charge_kernel(padded, span);
        out
    }

    /// Execute pre-split chunk work items of a batched kernel across host
    /// threads, returning their combined `(total_work, span)` — the
    /// parallel execution strategy used *inside* [`Device::launch_batch`]
    /// closures.
    ///
    /// `threads = 0` means "auto": use the device's configured
    /// [`host_threads`](DeviceConfig::host_threads). Charging stays with
    /// the enclosing `launch_batch` call (once per batch); this method only
    /// executes and aggregates. Chunk items must write disjoint output
    /// slices — cut them with a fixed chunk size
    /// ([`exec::BATCH_CHUNK`]) so results and accounting are independent of
    /// the thread count; see [`exec::par_run`] for the determinism
    /// argument.
    pub fn run_batch_chunks<I: Send>(
        &self,
        threads: usize,
        items: Vec<I>,
        f: impl Fn(I) -> (u64, u64) + Sync,
    ) -> (u64, u64) {
        let threads = if threads == 0 {
            self.cfg.host_threads
        } else {
            threads
        };
        exec::par_run(items, threads, f)
    }

    /// Host threads the device uses to execute kernels (wall-clock only;
    /// never affects results or simulated time).
    pub fn host_threads(&self) -> usize {
        self.cfg.host_threads
    }

    // -- memory -------------------------------------------------------------

    /// Bytes of global memory currently free.
    pub fn free_bytes(&self) -> u64 {
        self.cfg
            .global_mem_bytes
            .saturating_sub(self.allocated.load(Ordering::Relaxed))
    }

    /// Bytes of global memory currently allocated.
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated.load(Ordering::Relaxed)
    }

    fn try_take(&self, bytes: u64, context: &'static str) -> Result<(), GpuError> {
        if !self.is_healthy() {
            return Err(GpuError::DeviceUnavailable { context });
        }
        let mut cur = self.allocated.load(Ordering::Relaxed);
        loop {
            let new = cur + bytes;
            if new > self.cfg.global_mem_bytes {
                self.oom_events.fetch_add(1, Ordering::Relaxed);
                return Err(GpuError::OutOfMemory {
                    requested: bytes,
                    available: self.cfg.global_mem_bytes - cur,
                    context,
                });
            }
            match self.allocated.compare_exchange_weak(
                cur,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        self.peak
            .fetch_max(self.allocated.load(Ordering::Relaxed), Ordering::Relaxed);
        Ok(())
    }

    fn release(&self, bytes: u64) {
        self.allocated.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Reserve raw bytes (for structures whose layout lives host-side in the
    /// simulator — e.g. the object payloads of a resident dataset).
    pub fn reserve(
        self: &Arc<Self>,
        bytes: u64,
        context: &'static str,
    ) -> Result<Reservation, GpuError> {
        self.try_take(bytes, context)?;
        Ok(Reservation {
            bytes,
            dev: Arc::clone(self),
        })
    }

    // -- transfers ------------------------------------------------------------

    /// Charge a host→device transfer of `bytes`.
    pub fn h2d_transfer(&self, bytes: u64) {
        self.h2d.fetch_add(bytes, Ordering::Relaxed);
        self.charge_transfer(bytes);
    }

    /// Charge a device→host transfer of `bytes`.
    pub fn d2h_transfer(&self, bytes: u64) {
        self.d2h.fetch_add(bytes, Ordering::Relaxed);
        self.charge_transfer(bytes);
    }

    fn charge_transfer(&self, bytes: u64) {
        let secs = bytes as f64 / self.cfg.transfer_bytes_per_sec;
        let cycles = (secs * self.cfg.clock_hz).ceil() as u64;
        self.cycles.fetch_add(cycles, Ordering::Relaxed);
        self.transfer.fetch_add(cycles, Ordering::Relaxed);
    }
}

/// An untyped byte reservation in global memory (RAII).
#[derive(Debug)]
pub struct Reservation {
    bytes: u64,
    dev: Arc<Device>,
}

impl Reservation {
    /// Accounted size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        self.dev.release(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_device(mem: u64) -> Arc<Device> {
        Device::new(DeviceConfig {
            global_mem_bytes: mem,
            ..DeviceConfig::rtx_2080_ti()
        })
    }

    #[test]
    fn alloc_accounts_and_frees() {
        let dev = tiny_device(1024);
        let buf = dev.reserve(128, "test").expect("fits");
        assert_eq!(dev.allocated_bytes(), 128);
        assert_eq!(buf.bytes(), 128);
        drop(buf);
        assert_eq!(dev.allocated_bytes(), 0);
        assert_eq!(dev.stats().peak_allocated, 128);
    }

    #[test]
    fn alloc_oom() {
        let dev = tiny_device(64);
        let err = dev.reserve(128, "big").expect_err("must OOM");
        match err {
            GpuError::OutOfMemory {
                requested,
                available,
                ..
            } => {
                assert_eq!(requested, 128);
                assert_eq!(available, 64);
            }
            other => panic!("expected OutOfMemory, got {other:?}"),
        }
        assert_eq!(dev.stats().oom_events, 1);
    }

    #[test]
    fn work_span_charging() {
        let dev = tiny_device(1 << 20);
        dev.reset_clock();
        let before = dev.cycles();
        // W = 4352 * 10 over C = 4352 cores -> 10 cycles + launch overhead.
        dev.charge_kernel(4352 * 10, 1);
        let delta = dev.cycles() - before;
        assert_eq!(delta, 10 + dev.config().kernel_launch_cycles);
        // Span dominates when one thread is long.
        dev.charge_kernel(100, 5_000_000);
        assert!(dev.cycles() - before > 5_000_000);
    }

    /// The charge of one batched launch over `works`, from the work–span
    /// model: the partial warp's idle lanes each add the mean thread work,
    /// and the clock advances by `max(⌈W/C⌉, span)` plus launch overhead.
    fn analytic_charge(dev: &Device, works: &[u64]) -> (u64, u64) {
        let n = works.len() as u64;
        let total: u64 = works.iter().sum();
        let warp = u64::from(dev.config().warp_size);
        let padded = total + (n.div_ceil(warp) * warp - n) * (total / n);
        let span = *works.iter().max().expect("nonempty");
        let cycles = padded.div_ceil(u64::from(dev.config().cores)).max(span)
            + dev.config().kernel_launch_cycles;
        (padded, cycles)
    }

    #[test]
    fn launch_batch_charges_the_analytic_work_span() {
        // Uneven per-thread work and a partial last warp exercise both the
        // span and the padding; a long thread makes the span dominate.
        for works in [
            (0..1000).map(|i| (i % 7 + 1) as u64).collect::<Vec<_>>(),
            (0..1000).map(|i| if i == 3 { 9_000 } else { 2 }).collect(),
        ] {
            let dev = tiny_device(1 << 20);
            let out = dev.launch_batch(works.len(), || {
                let total = works.iter().sum();
                let span = *works.iter().max().expect("nonempty");
                (works.len() * 3, total, span)
            });
            assert_eq!(out, 3000);
            let (padded, cycles) = analytic_charge(&dev, &works);
            let s = dev.stats();
            assert_eq!((s.kernels, s.work, s.cycles), (1, padded, cycles));
        }
    }

    #[test]
    fn chunked_parallel_batch_charges_the_analytic_work_span() {
        // The same grid executed serially and with run_batch_chunks fan-out
        // over 1, 4 and 8 host threads leaves the analytic charge.
        let n = 10_000usize;
        let works: Vec<u64> = (0..n).map(|i| (i % 11 + 1) as u64).collect();
        for threads in [1usize, 4, 8] {
            let dev = tiny_device(1 << 20);
            dev.launch_batch(n, || {
                let chunks: Vec<&[u64]> = works.chunks(crate::exec::BATCH_CHUNK).collect();
                let (total, span) = dev.run_batch_chunks(threads, chunks, |c| {
                    (c.iter().sum(), *c.iter().max().expect("nonempty"))
                });
                ((), total, span)
            });
            let (padded, cycles) = analytic_charge(&dev, &works);
            let s = dev.stats();
            assert_eq!(
                (s.kernels, s.work, s.cycles),
                (1, padded, cycles),
                "threads = {threads}: chunked execution must charge identically"
            );
        }
    }

    #[test]
    fn launch_batch_empty_grid_charges_nothing() {
        let dev = tiny_device(1 << 20);
        let out = dev.launch_batch(0, || (42u32, 0, 0));
        assert_eq!(out, 42);
        assert_eq!(dev.stats().kernels, 0);
        assert_eq!(dev.cycles(), 0);
    }

    #[test]
    fn transfers_advance_clock() {
        let dev = tiny_device(1 << 20);
        let c0 = dev.cycles();
        dev.h2d_transfer(12_000_000); // 1 ms at 12 GB/s
        let dt = dev.seconds_since(c0);
        assert!((dt - 1e-3).abs() < 1e-4, "dt = {dt}");
        assert_eq!(dev.stats().h2d_bytes, 12_000_000);
    }

    #[test]
    fn cycle_components_partition_the_clock_exactly() {
        let dev = tiny_device(1 << 20);
        dev.charge_kernel(4352 * 10, 1);
        dev.h2d_transfer(12_000_000);
        dev.charge_kernel(100, 77);
        dev.d2h_transfer(6_000_000);
        // A barrier past the current clock accrues stall; one behind it
        // is a no-op on both the clock and the stall counter.
        let before = dev.cycles();
        dev.advance_clock_to(before + 1234);
        dev.advance_clock_to(before); // already past: no-op
        let s = dev.stats();
        assert_eq!(s.stall_cycles, 1234);
        assert_eq!(
            s.busy_cycles + s.transfer_cycles + s.stall_cycles,
            s.cycles,
            "the clock only advances through the three accounted paths"
        );
        assert!(s.busy_cycles > 0 && s.transfer_cycles > 0);
        dev.reset_clock();
        let s = dev.stats();
        assert_eq!(
            (s.cycles, s.busy_cycles, s.transfer_cycles, s.stall_cycles),
            (0, 0, 0, 0),
            "reset rewinds every component"
        );
    }

    #[test]
    fn reservation_raii() {
        let dev = tiny_device(1000);
        let r = dev.reserve(600, "objs").expect("fits");
        assert!(dev.reserve(600, "more").is_err());
        drop(r);
        assert!(dev.reserve(600, "again").is_ok());
    }

    #[test]
    fn concurrent_alloc_is_safe() {
        let dev = tiny_device(1 << 16);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let dev = Arc::clone(&dev);
                s.spawn(move || {
                    for _ in 0..100 {
                        let b = dev.reserve(64, "c").expect("fits");
                        drop(b);
                    }
                });
            }
        });
        assert_eq!(dev.allocated_bytes(), 0);
    }

    #[test]
    fn tracing_never_perturbs_device_counters() {
        use gts_trace::TraceConfig;
        let plain = tiny_device(1 << 20);
        let traced = tiny_device(1 << 20);
        let rec = Arc::new(TraceRecorder::new(TraceConfig {
            enabled: true,
            ..TraceConfig::default()
        }));
        traced.attach_tracer(Arc::clone(&rec), 0);
        let works: Vec<u64> = (0..500).map(|i| (i % 9 + 1) as u64).collect();
        for dev in [&plain, &traced] {
            dev.launch_batch(works.len(), || ((), works.iter().sum(), 9));
            dev.charge_kernel(4352 * 3, 2);
        }
        let after_kernels = traced.cycles();
        for dev in [&plain, &traced] {
            dev.h2d_transfer(1024);
        }
        assert_eq!(
            plain.stats(),
            traced.stats(),
            "tracing observes the clock, never advances it"
        );
        let events = rec.events();
        let kernels: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Kernel { .. }))
            .collect();
        assert_eq!(kernels.len(), 2, "one span per kernel launch");
        // Span begin/end bracket exactly the charged interval.
        assert_eq!(kernels[0].begin_cycles, 0);
        assert_eq!(kernels[1].end_cycles, after_kernels);
    }

    #[test]
    fn armed_fault_records_event_and_flight_dump() {
        use gts_trace::TraceConfig;
        let dev = tiny_device(1 << 20);
        let rec = Arc::new(TraceRecorder::new(TraceConfig {
            enabled: true,
            ..TraceConfig::default()
        }));
        dev.attach_tracer(Arc::clone(&rec), 3);
        dev.arm_fault(2, FaultKind::Transient);
        dev.charge_kernel(100, 1); // decrements the countdown
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| dev.charge_kernel(100, 1)));
        assert!(err.is_err(), "armed fault fires");
        let dumps = rec.flight_dumps();
        assert_eq!(dumps.len(), 1, "the fault snapshotted the trace tail");
        assert_eq!(dumps[0].reason, DumpReason::DeviceFault);
        let fault_evs: Vec<_> = dumps[0]
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Fault { permanent: false }))
            .collect();
        assert_eq!(fault_evs.len(), 1);
        assert_eq!(fault_evs[0].device, Some(3));
        assert!(
            dumps[0]
                .events
                .iter()
                .any(|e| matches!(e.kind, EventKind::Kernel { .. })),
            "the dump retains the kernels launched before the fault"
        );
        // Detaching stops recording without losing what's there.
        dev.detach_tracer();
        dev.charge_kernel(100, 1);
        assert_eq!(rec.events().len(), rec.events().len());
        assert!(dev.tracer().is_none());
    }
}
