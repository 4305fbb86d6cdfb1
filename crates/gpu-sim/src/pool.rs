//! Multi-device pools: a set of [`Device`]s backing a sharded index.
//!
//! Every [`Device`] is already `Arc`-shared with atomic counters, so a pool
//! is simply an ordered list of devices plus aggregate accounting. The one
//! modelling decision worth stating: shards execute **concurrently**, so
//! the pool's elapsed simulated time is the *maximum* of the per-device
//! clocks (the sharded critical path, [`PoolStats::span_cycles`]), while
//! throughput-style counters (work, kernel launches, transferred bytes)
//! sum across devices.

use crate::config::DeviceConfig;
use crate::device::{Device, DeviceStats};
use std::sync::Arc;

/// An ordered collection of simulated devices, one per shard.
#[derive(Clone, Debug)]
pub struct DevicePool {
    devices: Vec<Arc<Device>>,
}

/// Aggregate counters over a whole pool.
///
/// Sums every throughput counter of [`DeviceStats`] across devices and
/// additionally reports `span_cycles` — the maximum per-device cycle count,
/// i.e. the simulated elapsed time of shards running concurrently.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Number of devices in the pool.
    pub devices: usize,
    /// Sum of per-device simulated cycles (total device-time consumed).
    pub cycles_total: u64,
    /// Max per-device simulated cycles — the sharded critical path.
    pub span_cycles: u64,
    /// Sum of per-device kernel-execution cycles. With `transfer_cycles`
    /// and `stall_cycles` this partitions `cycles_total` exactly.
    pub busy_cycles: u64,
    /// Sum of per-device transfer cycles.
    pub transfer_cycles: u64,
    /// Sum of per-device barrier-stall cycles.
    pub stall_cycles: u64,
    /// Total charged work units across devices.
    pub work: u64,
    /// Total kernel launches across devices.
    pub kernels: u64,
    /// Live allocated bytes across devices.
    pub allocated: u64,
    /// Sum of per-device peak allocations.
    pub peak_allocated: u64,
    /// Host→device bytes transferred across devices.
    pub h2d_bytes: u64,
    /// Device→host bytes transferred across devices.
    pub d2h_bytes: u64,
    /// Allocation failures across devices.
    pub oom_events: u64,
    /// Injected faults that fired across devices.
    pub faults_injected: u64,
    /// Devices currently quarantined (unhealthy).
    pub quarantined: usize,
}

impl DevicePool {
    /// A pool of existing devices (at least one).
    pub fn from_devices(devices: Vec<Arc<Device>>) -> DevicePool {
        assert!(!devices.is_empty(), "a pool needs at least one device");
        DevicePool { devices }
    }

    /// `n` freshly created devices sharing one configuration.
    pub fn homogeneous(n: usize, cfg: DeviceConfig) -> DevicePool {
        assert!(n >= 1, "a pool needs at least one device");
        DevicePool {
            devices: (0..n).map(|_| Device::new(cfg)).collect(),
        }
    }

    /// `n` devices of the paper's testbed preset (RTX 2080 Ti, 11 GB each).
    pub fn rtx_2080_ti(n: usize) -> DevicePool {
        DevicePool::homogeneous(n, DeviceConfig::rtx_2080_ti())
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// True when the pool holds no devices (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Device `i` (panics when out of range).
    pub fn get(&self, i: usize) -> &Arc<Device> {
        &self.devices[i]
    }

    /// All devices, in shard order.
    pub fn devices(&self) -> &[Arc<Device>] {
        &self.devices
    }

    /// Number of quarantined (unhealthy) devices.
    pub fn quarantined(&self) -> usize {
        self.devices.iter().filter(|d| !d.is_healthy()).count()
    }

    /// Aggregate counters: throughput counters summed, `span_cycles` maxed.
    pub fn aggregate(&self) -> PoolStats {
        let mut agg = PoolStats {
            devices: self.devices.len(),
            ..PoolStats::default()
        };
        for dev in &self.devices {
            let s: DeviceStats = dev.stats();
            agg.cycles_total += s.cycles;
            agg.span_cycles = agg.span_cycles.max(s.cycles);
            agg.busy_cycles += s.busy_cycles;
            agg.transfer_cycles += s.transfer_cycles;
            agg.stall_cycles += s.stall_cycles;
            agg.work += s.work;
            agg.kernels += s.kernels;
            agg.allocated += s.allocated;
            agg.peak_allocated += s.peak_allocated;
            agg.h2d_bytes += s.h2d_bytes;
            agg.d2h_bytes += s.d2h_bytes;
            agg.oom_events += s.oom_events;
            agg.faults_injected += s.faults_injected;
            if !s.healthy {
                agg.quarantined += 1;
            }
        }
        agg
    }

    /// Simulated elapsed seconds of the pool: the slowest device's clock
    /// (shards run concurrently, so the critical path is the max).
    pub fn span_seconds(&self) -> f64 {
        self.devices
            .iter()
            .map(|d| d.sim_seconds())
            .fold(0.0, f64::max)
    }

    /// Reset every device's clock and traffic counters (not allocations).
    pub fn reset_clocks(&self) {
        for d in &self.devices {
            d.reset_clock();
        }
    }

    /// Attach one trace recorder to every device; device `i` records events
    /// tagged with track id `i`. Kernel launches and injected faults become
    /// typed trace events from here on.
    pub fn attach_tracer(&self, rec: &Arc<gts_trace::TraceRecorder>) {
        for (i, d) in self.devices.iter().enumerate() {
            d.attach_tracer(Arc::clone(rec), i as u32);
        }
    }

    /// Detach the trace recorder from every device.
    pub fn detach_tracer(&self) {
        for d in &self.devices {
            d.detach_tracer();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_sums_counters_and_maxes_span() {
        let pool = DevicePool::rtx_2080_ti(3);
        pool.get(0).charge_kernel(4352 * 10, 1); // 10 cycles + launch
        pool.get(1).charge_kernel(4352 * 30, 1); // 30 cycles + launch
        let agg = pool.aggregate();
        assert_eq!(agg.devices, 3);
        assert_eq!(agg.kernels, 2);
        let launch = pool.get(0).config().kernel_launch_cycles;
        assert_eq!(agg.span_cycles, 30 + launch, "critical path = slowest");
        assert_eq!(agg.cycles_total, 40 + 2 * launch);
        assert_eq!(agg.work, 4352 * 40);
    }

    #[test]
    fn device_clocks_partition_into_busy_transfer_stall() {
        let pool = DevicePool::rtx_2080_ti(3);
        // Device 0: kernels only. Device 1: kernels + a transfer. Device 2:
        // idle until a barrier drags it to the pool front.
        pool.get(0).charge_kernel(4352 * 25, 1);
        pool.get(1).charge_kernel(4352 * 5, 1);
        pool.get(1).h2d_transfer(1 << 20);
        let front = pool.get(0).cycles().max(pool.get(1).cycles());
        pool.get(2).advance_clock_to(front);
        let rows: Vec<DeviceStats> = pool.devices().iter().map(|d| d.stats()).collect();
        for (i, s) in rows.iter().enumerate() {
            assert_eq!(
                s.busy_cycles + s.transfer_cycles + s.stall_cycles,
                s.cycles,
                "device {i}: busy+transfer+stall must equal its clock"
            );
        }
        assert!(rows[0].busy_cycles > 0 && rows[0].transfer_cycles == 0);
        assert!(rows[1].transfer_cycles > 0);
        assert_eq!(rows[2].busy_cycles, 0);
        assert_eq!(rows[2].stall_cycles, front, "barrier wait is all stall");
        // Aggregate identity: the three components partition cycles_total.
        let agg = pool.aggregate();
        assert_eq!(
            agg.busy_cycles + agg.transfer_cycles + agg.stall_cycles,
            agg.cycles_total
        );
    }

    #[test]
    fn span_seconds_tracks_slowest_device() {
        let pool = DevicePool::rtx_2080_ti(2);
        pool.get(1).h2d_transfer(12_000_000); // ~1 ms at 12 GB/s
        assert!((pool.span_seconds() - 1e-3).abs() < 1e-4);
        pool.reset_clocks();
        assert_eq!(pool.span_seconds(), 0.0);
    }

    #[test]
    fn devices_are_independent() {
        let pool = DevicePool::rtx_2080_ti(2);
        pool.get(0).charge_kernel(100, 1);
        assert_eq!(pool.get(1).cycles(), 0, "other devices untouched");
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_pool_rejected() {
        let _ = DevicePool::homogeneous(0, DeviceConfig::rtx_2080_ti());
    }

    #[test]
    fn reset_clocks_mid_soak_preserves_allocations_and_health() {
        let pool = DevicePool::rtx_2080_ti(2);
        let _held = pool.get(0).reserve(4096, "resident").expect("fits");
        pool.get(0).charge_kernel(1000, 1);
        pool.get(1).charge_kernel(2000, 1);
        pool.get(1).quarantine();
        pool.reset_clocks();
        let agg = pool.aggregate();
        assert_eq!(agg.span_cycles, 0, "clocks rewound");
        assert_eq!(agg.work, 0);
        assert_eq!(agg.kernels, 0);
        assert_eq!(agg.allocated, 4096, "allocations survive a clock reset");
        assert_eq!(agg.quarantined, 1, "health survives a clock reset");
        // The soak continues: new work charges from zero.
        pool.get(0).charge_kernel(4352, 1);
        assert_eq!(
            pool.aggregate().span_cycles,
            1 + pool.get(0).config().kernel_launch_cycles
        );
    }

    #[test]
    fn aggregate_span_accounting_with_quarantined_devices() {
        use crate::fault::{FaultKind, FaultPlan};
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let pool = DevicePool::rtx_2080_ti(3);
        pool.get(0).charge_kernel(4352 * 10, 1);
        FaultPlan::new()
            .fail_device(2, 1, FaultKind::Permanent)
            .arm(&pool);
        let _ = catch_unwind(AssertUnwindSafe(|| pool.get(2).charge_kernel(4352 * 50, 1)));
        let agg = pool.aggregate();
        let launch = pool.get(0).config().kernel_launch_cycles;
        // The faulted launch died before charging: the dead device
        // contributes no cycles, work, or kernels to the aggregate — span
        // reflects only work that actually executed.
        assert_eq!(agg.span_cycles, 10 + launch);
        assert_eq!(agg.kernels, 1);
        assert_eq!(agg.quarantined, 1);
        assert_eq!(agg.faults_injected, 1);
        assert_eq!(pool.quarantined(), 1);
    }
}
