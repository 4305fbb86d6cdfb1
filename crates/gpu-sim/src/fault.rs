//! Fault injection: deterministic device failures for chaos testing.
//!
//! A [`FaultPlan`] arms faults on the devices of a [`DevicePool`] before a
//! workload runs. Each fault is a `(device, at_launch, kind)` triple: the
//! `at_launch`-th kernel launch on that device after arming fires the
//! fault instead of executing. Faults surface as panics carrying a
//! [`DeviceFault`] payload, so the layer that drives the device (a replica
//! executor, the shard scatter) can `catch_unwind`, downcast, and
//! distinguish an injected hardware fault from a misbehaving user metric:
//!
//! * [`FaultKind::Transient`] — the in-flight kernel dies but the device
//!   stays healthy (an ECC hiccup, a recovered launch timeout). The fault
//!   disarms when it fires, so a retry on the same device succeeds.
//! * [`FaultKind::Permanent`] — the device is **quarantined**: its health
//!   flag drops, every subsequent kernel launch panics with the same
//!   payload, and allocations fail with
//!   [`GpuError::DeviceUnavailable`](crate::GpuError::DeviceUnavailable).
//!   A quarantined device must be routed around, never re-used.
//!
//! Plans are either hand-built ([`FaultPlan::fail_device`]) or generated
//! deterministically from a seed ([`FaultPlan::seeded`]) — the same seed
//! always yields the same faults, which is what makes a chaos soak
//! reproducible and its answers comparable to a fault-free run.

use crate::pool::DevicePool;

/// How a device fails when an armed fault fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The in-flight kernel dies; the device stays healthy and the fault
    /// disarms (a retry succeeds).
    Transient,
    /// The device is quarantined: unhealthy from now on, every further
    /// launch fails.
    Permanent,
}

/// Panic payload of an injected device fault. Catchers downcast the
/// `catch_unwind` payload to this type to tell a hardware fault apart from
/// an ordinary panic (e.g. a user metric assertion).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeviceFault {
    /// Whether the device survives the fault.
    pub kind: FaultKind,
}

/// One planned fault: device ordinal in the pool, 1-based launch index at
/// which it fires (counted from arming), and the failure kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// Index of the target device in the pool the plan is armed on.
    pub device: usize,
    /// The n-th kernel launch after arming that fails (1 = the next one).
    pub at_launch: u64,
    /// Transient or permanent.
    pub kind: FaultKind,
}

/// A deterministic set of device faults to arm on a pool.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

/// SplitMix64 step — the plan generator's only source of randomness, so a
/// seed fully determines the plan.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Builder-style: add a fault on `device` firing at its `at_launch`-th
    /// kernel launch after arming (1-based). A device carries at most one
    /// armed fault; a later spec for the same device replaces the earlier
    /// one when the plan is armed.
    pub fn fail_device(mut self, device: usize, at_launch: u64, kind: FaultKind) -> FaultPlan {
        assert!(at_launch >= 1, "launch indexes are 1-based");
        self.specs.push(FaultSpec {
            device,
            at_launch,
            kind,
        });
        self
    }

    /// Generate a plan deterministically from `seed`: `transient` transient
    /// and `permanent` permanent faults spread over `devices` devices, each
    /// firing within the first `max_launch` launches. The same seed always
    /// produces the same plan. Later specs replace earlier ones on the same
    /// device, so the armed plan may hold fewer faults than requested.
    pub fn seeded(
        seed: u64,
        devices: usize,
        transient: usize,
        permanent: usize,
        max_launch: u64,
    ) -> FaultPlan {
        assert!(devices >= 1, "a plan targets at least one device");
        assert!(max_launch >= 1, "faults fire at launch >= 1");
        let mut state = seed ^ 0x6774_735F_6661_756C; // "gts_faul"
        let mut plan = FaultPlan::new();
        for i in 0..transient + permanent {
            let device = (splitmix64(&mut state) % devices as u64) as usize;
            let at_launch = 1 + splitmix64(&mut state) % max_launch;
            let kind = if i < transient {
                FaultKind::Transient
            } else {
                FaultKind::Permanent
            };
            plan = plan.fail_device(device, at_launch, kind);
        }
        plan
    }

    /// The planned faults, in insertion order.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Arm every fault on its device in `pool`. Specs whose device ordinal
    /// is out of range are ignored (a plan can be reused across pools of
    /// different sizes); among specs sharing a device, the last wins.
    pub fn arm(&self, pool: &DevicePool) {
        for spec in &self.specs {
            if spec.device < pool.len() {
                pool.get(spec.device).arm_fault(spec.at_launch, spec.kind);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::seeded(42, 4, 2, 1, 100);
        let b = FaultPlan::seeded(42, 4, 2, 1, 100);
        assert_eq!(a, b, "same seed, same plan");
        assert_eq!(a.specs().len(), 3);
        assert!(a
            .specs()
            .iter()
            .all(|s| s.device < 4 && s.at_launch >= 1 && s.at_launch <= 100));
        let c = FaultPlan::seeded(43, 4, 2, 1, 100);
        assert_ne!(a, c, "different seed, different plan");
    }

    #[test]
    fn transient_fault_fires_once_then_device_recovers() {
        let pool = DevicePool::rtx_2080_ti(2);
        FaultPlan::new()
            .fail_device(0, 2, FaultKind::Transient)
            .arm(&pool);
        pool.get(0).charge_kernel(10, 1); // launch 1: fine
        let err = catch_unwind(AssertUnwindSafe(|| pool.get(0).charge_kernel(10, 1)))
            .expect_err("launch 2 must fault");
        let fault = err.downcast_ref::<DeviceFault>().expect("typed payload");
        assert_eq!(fault.kind, FaultKind::Transient);
        assert!(
            pool.get(0).is_healthy(),
            "transient faults don't quarantine"
        );
        pool.get(0).charge_kernel(10, 1); // disarmed: retry succeeds
        assert_eq!(pool.get(0).stats().faults_injected, 1);
        assert_eq!(pool.get(1).stats().faults_injected, 0, "sibling untouched");
    }

    #[test]
    fn permanent_fault_quarantines_the_device() {
        let pool = DevicePool::rtx_2080_ti(1);
        FaultPlan::new()
            .fail_device(0, 1, FaultKind::Permanent)
            .arm(&pool);
        let err = catch_unwind(AssertUnwindSafe(|| pool.get(0).charge_kernel(10, 1)))
            .expect_err("launch 1 must fault");
        assert_eq!(
            err.downcast_ref::<DeviceFault>().expect("typed").kind,
            FaultKind::Permanent
        );
        assert!(!pool.get(0).is_healthy(), "device is quarantined");
        // Every further launch fails too — a dead device is never re-used
        // silently.
        let again = catch_unwind(AssertUnwindSafe(|| pool.get(0).charge_kernel(10, 1)));
        assert!(again.is_err(), "quarantined device refuses kernels");
        // And allocations are refused with a typed error.
        let alloc = pool.get(0).reserve(16, "post-fault");
        assert!(matches!(
            alloc,
            Err(crate::GpuError::DeviceUnavailable { .. })
        ));
    }

    #[test]
    fn out_of_range_specs_are_ignored_and_last_spec_wins() {
        let pool = DevicePool::rtx_2080_ti(1);
        FaultPlan::new()
            .fail_device(7, 1, FaultKind::Permanent) // no such device
            .fail_device(0, 5, FaultKind::Permanent)
            .fail_device(0, 1, FaultKind::Transient) // replaces the above
            .arm(&pool);
        let err =
            catch_unwind(AssertUnwindSafe(|| pool.get(0).charge_kernel(10, 1))).expect_err("armed");
        assert_eq!(
            err.downcast_ref::<DeviceFault>().expect("typed").kind,
            FaultKind::Transient,
            "the last spec for a device wins"
        );
        assert!(pool.get(0).is_healthy());
    }
}
