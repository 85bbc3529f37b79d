//! Statistical accumulators used by average and statistics counters.
//!
//! All accumulators are plain (non-atomic) types; thread-safe use goes
//! through the lock-free pairs in [`crate::counter`] or an external lock.

/// Incremental mean/variance/extrema accumulator (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// A fresh, empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold one sample in.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples folded in.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 with fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Drop all state.
    pub fn reset(&mut self) {
        *self = RunningStats::new();
    }
}

/// Fixed-capacity sliding window for rolling statistics and medians.
#[derive(Debug, Clone)]
pub struct SampleWindow {
    samples: Vec<f64>,
    capacity: usize,
    next: usize,
}

impl SampleWindow {
    /// A window holding up to `capacity` most recent samples (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        SampleWindow {
            samples: Vec::with_capacity(capacity),
            capacity,
            next: 0,
        }
    }

    /// Push a sample, evicting the oldest once full.
    pub fn push(&mut self, x: f64) {
        if self.samples.len() < self.capacity {
            self.samples.push(x);
        } else {
            self.samples[self.next] = x;
            self.next = (self.next + 1) % self.capacity;
        }
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the window holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean over the window (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Median over the window (0 when empty); average of the two middle
    /// values for even-sized windows.
    pub fn median(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut v = self.samples.clone();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let n = v.len();
        if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        }
    }

    /// Minimum over the window (0 when empty).
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum over the window (0 when empty).
    pub fn max(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Population standard deviation over the window.
    pub fn stddev(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        let var =
            self.samples.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / self.samples.len() as f64;
        var.sqrt()
    }

    /// Drop all samples.
    pub fn reset(&mut self) {
        self.samples.clear();
        self.next = 0;
    }
}

/// Median of a slice (consumes and sorts a copy); 0 for an empty slice.
pub fn median_of(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_matches_naive() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut s = RunningStats::new();
        for &x in &xs {
            s.add(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.variance() - var).abs() < 1e-9);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn running_stats_empty_is_zero() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn running_stats_reset_clears() {
        let mut s = RunningStats::new();
        s.add(10.0);
        s.reset();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn window_evicts_oldest() {
        let mut w = SampleWindow::new(3);
        for x in [1.0, 2.0, 3.0, 4.0] {
            w.push(x);
        }
        // window now holds {4, 2, 3}
        assert_eq!(w.len(), 3);
        assert!((w.mean() - 3.0).abs() < 1e-12);
        assert_eq!(w.min(), 2.0);
        assert_eq!(w.max(), 4.0);
        assert_eq!(w.median(), 3.0);
    }

    #[test]
    fn window_median_even() {
        let mut w = SampleWindow::new(4);
        for x in [1.0, 2.0, 3.0, 10.0] {
            w.push(x);
        }
        assert!((w.median() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn window_empty_statistics_are_zero() {
        let w = SampleWindow::new(5);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.median(), 0.0);
        assert_eq!(w.min(), 0.0);
        assert_eq!(w.max(), 0.0);
        assert_eq!(w.stddev(), 0.0);
    }

    #[test]
    fn window_capacity_minimum_one() {
        let mut w = SampleWindow::new(0);
        w.push(1.0);
        w.push(2.0);
        assert_eq!(w.len(), 1);
        assert_eq!(w.mean(), 2.0);
    }

    #[test]
    fn median_of_slice() {
        assert_eq!(median_of(&[]), 0.0);
        assert_eq!(median_of(&[5.0]), 5.0);
        assert_eq!(median_of(&[2.0, 1.0, 3.0]), 2.0);
        assert_eq!(median_of(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn window_reset_clears_fill_state() {
        let mut w = SampleWindow::new(2);
        w.push(1.0);
        w.push(2.0);
        w.reset();
        assert!(w.is_empty());
    }
}
