//! Tree reductions: linear work, logarithmic span.

use crate::device::Device;

fn charge_reduce(dev: &Device, n: usize) {
    if n == 0 {
        return;
    }
    let log_n = (usize::BITS - n.saturating_sub(1).leading_zeros()).max(1) as u64;
    dev.charge_kernel(n as u64, log_n);
}

/// Maximum of `data` (−∞ when empty). Used by Alg. 3 line 1 to find the
/// normalisation bound `max` before distance encoding.
pub fn reduce_max_f64(dev: &Device, data: &[f64]) -> f64 {
    charge_reduce(dev, data.len());
    data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;

    #[test]
    fn reductions() {
        let dev = Device::new(DeviceConfig::rtx_2080_ti());
        assert_eq!(reduce_max_f64(&dev, &[1.0, 5.0, 3.0]), 5.0);
        assert_eq!(reduce_max_f64(&dev, &[]), f64::NEG_INFINITY);
        assert_eq!(dev.stats().kernels, 1, "empty input charges nothing");
    }
}
