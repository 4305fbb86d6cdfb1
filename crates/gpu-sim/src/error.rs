//! Device errors.

use metric_space::IndexError;
use std::fmt;

/// Errors raised by the device model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GpuError {
    /// Global memory exhausted. This is the mechanism behind every "/" and
    /// "memory deadlock" entry in the paper's evaluation.
    OutOfMemory {
        /// Bytes the allocation requested.
        requested: u64,
        /// Bytes currently free on the device.
        available: u64,
        /// What was being allocated.
        context: &'static str,
    },
    /// The device has been quarantined by a permanent fault (or an explicit
    /// [`quarantine`](crate::Device::quarantine)) and refuses new work.
    DeviceUnavailable {
        /// What was being allocated when the quarantine was hit.
        context: &'static str,
    },
}

impl fmt::Display for GpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpuError::OutOfMemory {
                requested,
                available,
                context,
            } => write!(
                f,
                "device out of memory while allocating {context}: requested {requested} B, free {available} B"
            ),
            GpuError::DeviceUnavailable { context } => write!(
                f,
                "device quarantined by a permanent fault; refused allocation for {context}"
            ),
        }
    }
}

impl std::error::Error for GpuError {}

/// The index-level view of a device error: an exhausted device keeps its
/// numbers; a quarantined one can't host new structures, so it surfaces as
/// an unsupported operation (the replicated serving tier routes around dead
/// devices before ever allocating on them).
impl From<GpuError> for IndexError {
    fn from(e: GpuError) -> IndexError {
        match e {
            GpuError::OutOfMemory {
                requested,
                available,
                context,
            } => IndexError::OutOfMemory {
                requested,
                available,
                context,
            },
            GpuError::DeviceUnavailable { .. } => {
                IndexError::Unsupported("device quarantined by a permanent fault")
            }
        }
    }
}
