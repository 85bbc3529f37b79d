//! Spin-calibrated task grain.
//!
//! A grain ladder on the real backends (native METG, `rpx-benchmark`'s
//! `stencil_ladder_w1`) needs task bodies whose *useful work* is a
//! controlled number of nanoseconds, whatever the compiler or the host's
//! turbo state does to any particular loop. The calibrator times a fixed
//! integer-mixing spin kernel once per process and converts grain
//! nanoseconds into iteration counts; the kernel itself is branch-free and
//! allocation-free so it perturbs neither the scheduler nor the slab path
//! it is measuring.

use std::sync::OnceLock;
use std::time::Instant;

/// Iterations-per-microsecond calibration of the spin kernel.
#[derive(Debug, Clone, Copy)]
pub struct GrainCalibration {
    iters_per_us: f64,
}

impl GrainCalibration {
    /// Time the spin kernel against the host clock. Takes on the order of
    /// ten milliseconds; use [`shared`](Self::shared) to amortize over a run.
    pub fn calibrate() -> Self {
        /// Timings of the final batch; the fastest one is kept.
        const REPEATS: u32 = 5;
        // Warm up (first touch, frequency ramp), then grow the batch until
        // it runs long enough for the timer quantization to be negligible.
        spin_iters(10_000);
        let time = |iters: u64| {
            let t0 = Instant::now();
            spin_iters(iters);
            t0.elapsed()
        };
        let mut iters: u64 = 10_000;
        let mut dt = time(iters);
        while dt.as_micros() < 2_000 && iters < 1 << 30 {
            iters = iters.saturating_mul(2);
            dt = time(iters);
        }
        // A single timing is hostage to whatever else the host did in
        // those two milliseconds: one preemption makes the kernel look
        // slow, every spin of the run then comes out short, and measured
        // efficiencies overshoot. Interference only ever adds time, so the
        // fastest of a few repeats is the kernel's own rate.
        for _ in 1..REPEATS {
            dt = dt.min(time(iters));
        }
        let rate = iters as f64 / dt.as_secs_f64() / 1e6;
        GrainCalibration {
            // Guard against a broken timer reporting ~0 elapsed.
            iters_per_us: rate.max(1.0),
        }
    }

    /// The process-wide calibration (computed on first use).
    pub fn shared() -> GrainCalibration {
        static CAL: OnceLock<GrainCalibration> = OnceLock::new();
        *CAL.get_or_init(GrainCalibration::calibrate)
    }

    /// A fake calibration for tests that only need determinism, not
    /// wall-clock accuracy.
    pub fn fixed(iters_per_us: f64) -> Self {
        GrainCalibration {
            iters_per_us: iters_per_us.max(1.0),
        }
    }

    /// Iterations that take approximately `ns` nanoseconds.
    pub fn iters_for_ns(&self, ns: u64) -> u64 {
        (ns as f64 * self.iters_per_us / 1_000.0).round() as u64
    }

    /// Busy-spin for approximately `ns` nanoseconds of pure CPU work.
    #[inline]
    pub fn spin_ns(&self, ns: u64) {
        spin_iters(self.iters_for_ns(ns));
    }

    /// The measured kernel rate (iterations per microsecond).
    pub fn iters_per_us(&self) -> f64 {
        self.iters_per_us
    }
}

/// The spin kernel: an LCG step per iteration, kept live with `black_box`
/// so the optimizer cannot collapse the loop.
#[inline]
pub fn spin_iters(n: u64) {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for _ in 0..n {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        std::hint::black_box(x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_converts_proportionally() {
        let cal = GrainCalibration::fixed(100.0);
        assert_eq!(cal.iters_for_ns(1_000), 100);
        assert_eq!(cal.iters_for_ns(10_000), 1_000);
        assert_eq!(cal.iters_for_ns(0), 0);
    }

    #[test]
    fn shared_calibration_is_sane_and_stable() {
        let a = GrainCalibration::shared();
        let b = GrainCalibration::shared();
        assert!(a.iters_per_us() >= 1.0);
        assert_eq!(a.iters_per_us(), b.iters_per_us(), "OnceLock caches");
    }

    #[test]
    fn spin_time_scales_with_requested_grain() {
        let cal = GrainCalibration::calibrate();
        let time = |ns: u64| {
            let t0 = Instant::now();
            for _ in 0..8 {
                cal.spin_ns(ns);
            }
            t0.elapsed()
        };
        let short = time(10_000);
        let long = time(1_000_000);
        // 100× more requested work must cost at least 10× more wall time —
        // a deliberately loose bound that survives noisy CI hosts.
        assert!(
            long > short * 10,
            "long {long:?} should dwarf short {short:?}"
        );
    }
}
