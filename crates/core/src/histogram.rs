//! Histogram counters: `/statistics/histogram@child,min,max,buckets`.
//!
//! Each evaluation samples the child counter and banks the value into a
//! fixed-width bucket; the counter's scalar value is the number of samples
//! collected, and the full distribution is available through
//! [`HistogramCounter::snapshot`] (HPX exposes the same through its
//! histogram counter's array payload). Used to see, e.g., the *spread* of
//! task durations rather than just the mean — fine-grained benchmarks have
//! long overhead tails that averages hide.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::counter::Counter;
use crate::derived::split_tail_args;
use crate::error::CounterError;
use crate::name::CounterName;
use crate::registry::CounterRegistry;
use crate::value::{CounterInfo, CounterKind, CounterValue};

/// A snapshot of a histogram's state.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Inclusive lower bound of bucket 0.
    pub min: f64,
    /// Exclusive upper bound of the last regular bucket.
    pub max: f64,
    /// Per-bucket sample counts.
    pub buckets: Vec<u64>,
    /// Samples below `min`.
    pub underflow: u64,
    /// Samples at or above `max`.
    pub overflow: u64,
}

impl HistogramSnapshot {
    /// Total samples (including under/overflow).
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Width of one bucket, or 0.0 for a degenerate histogram (no buckets
    /// or an empty/inverted range). Registration rejects such parameters,
    /// but the snapshot struct is publicly constructible and `0/0` or
    /// `x/0` would otherwise surface as NaN/∞ and poison every downstream
    /// aggregate.
    pub fn bucket_width(&self) -> f64 {
        // `partial_cmp` (not `max > min`) so NaN bounds also fall into
        // the degenerate case instead of slipping through a negation.
        let range_ok = matches!(
            self.max.partial_cmp(&self.min),
            Some(std::cmp::Ordering::Greater)
        );
        if self.buckets.is_empty() || !range_ok {
            return 0.0;
        }
        (self.max - self.min) / self.buckets.len() as f64
    }

    /// The (lower bound, count) of the fullest bucket; `None` when the
    /// histogram is degenerate or holds no samples.
    pub fn mode(&self) -> Option<(f64, u64)> {
        if self.bucket_width() == 0.0 {
            return None;
        }
        let (i, &c) = self.buckets.iter().enumerate().max_by_key(|(_, &c)| c)?;
        if c == 0 {
            return None;
        }
        Some((self.min + i as f64 * self.bucket_width(), c))
    }
}

struct State {
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

/// The histogram counter instance (downcast from `Arc<dyn Counter>` via
/// [`Counter::as_any`] to reach [`HistogramCounter::snapshot`]).
pub struct HistogramCounter {
    info: CounterInfo,
    child: Arc<dyn Counter>,
    min: f64,
    max: f64,
    state: Mutex<State>,
}

impl HistogramCounter {
    /// The current distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let s = self.state.lock();
        HistogramSnapshot {
            min: self.min,
            max: self.max,
            buckets: s.buckets.clone(),
            underflow: s.underflow,
            overflow: s.overflow,
        }
    }
}

impl Counter for HistogramCounter {
    fn info(&self) -> CounterInfo {
        self.info.clone()
    }

    fn get_value_at(&self, reset: bool, now_ns: u64) -> CounterValue {
        self.fold(reset, self.child.get_value_at(false, now_ns))
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

impl HistogramCounter {
    /// Bucket the child's `sample` and report the total count, stamped as
    /// the sample is.
    fn fold(&self, reset: bool, sample: CounterValue) -> CounterValue {
        let mut s = self.state.lock();
        if sample.status.is_ok() && sample.count > 0 {
            let x = sample.scaled();
            // A non-finite sample compares false against both bounds and
            // would land in bucket 0 via `NaN as usize`; drop it instead.
            if x.is_finite() {
                if x < self.min {
                    s.underflow += 1;
                } else if x >= self.max {
                    s.overflow += 1;
                } else {
                    let width = (self.max - self.min) / s.buckets.len() as f64;
                    let idx = ((x - self.min) / width) as usize;
                    let idx = idx.min(s.buckets.len() - 1);
                    s.buckets[idx] += 1;
                }
            }
        }
        let total = s.buckets.iter().sum::<u64>() + s.underflow + s.overflow;
        if reset {
            s.buckets.iter_mut().for_each(|b| *b = 0);
            s.underflow = 0;
            s.overflow = 0;
        }
        CounterValue::new(total as i64, sample.timestamp_ns).with_count(total)
    }
}

/// Register `/statistics/histogram` with `registry`. Called automatically
/// by [`CounterRegistry::new`].
pub fn register_histogram(registry: &Arc<CounterRegistry>) {
    let info = CounterInfo::new(
        "/statistics/histogram",
        CounterKind::AggregateStatistics,
        "bucketed distribution of samples of the child counter \
         (parameters: child,min,max,buckets)",
        "1",
    );
    registry.register_type(
        info,
        Arc::new(|name: &CounterName, reg: &Arc<CounterRegistry>| {
            let params = name.parameters.as_deref().ok_or_else(|| {
                CounterError::InvalidParameters(
                    "histogram needs parameters: child,min,max,buckets".into(),
                )
            })?;
            let (child_name, tail) = split_tail_args(params, 3);
            if tail.len() != 3 {
                return Err(CounterError::InvalidParameters(format!(
                    "histogram needs min,max,buckets after the child, got `{params}`"
                )));
            }
            let (min, max, buckets) = (tail[0], tail[1], tail[2]);
            if max <= min || buckets < 1.0 || buckets.fract() != 0.0 || buckets > 100_000.0 {
                return Err(CounterError::InvalidParameters(format!(
                    "bad histogram range/buckets: min={min} max={max} buckets={buckets}"
                )));
            }
            let parsed: CounterName = child_name.parse()?;
            let child = reg.get_counter(&parsed)?;
            let info = CounterInfo::new(
                name.canonical(),
                CounterKind::AggregateStatistics,
                "histogram of child counter samples",
                child.info().unit,
            );
            Ok(Arc::new(HistogramCounter {
                info,
                child,
                min,
                max,
                state: Mutex::new(State {
                    buckets: vec![0; buckets as usize],
                    underflow: 0,
                    overflow: 0,
                }),
            }) as Arc<dyn Counter>)
        }),
        None,
    );
}

/// Fetch the histogram snapshot behind a counter handle, if it is one.
pub fn snapshot_of(counter: &Arc<dyn Counter>) -> Option<HistogramSnapshot> {
    counter
        .as_any()
        .and_then(|a| a.downcast_ref::<HistogramCounter>())
        .map(HistogramCounter::snapshot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicI64, Ordering};

    fn setup() -> (Arc<CounterRegistry>, Arc<AtomicI64>, Arc<dyn Counter>) {
        let reg = CounterRegistry::new();
        let src = Arc::new(AtomicI64::new(0));
        let s2 = src.clone();
        reg.register_raw(
            "/src/v",
            "h",
            "ns",
            Arc::new(move || s2.load(Ordering::Relaxed)),
        );
        let name: CounterName = "/statistics/histogram@/src/v,0,100,10".parse().unwrap();
        let c = reg.get_counter(&name).unwrap();
        (reg, src, c)
    }

    #[test]
    fn samples_land_in_buckets() {
        let (_reg, src, c) = setup();
        for x in [5, 15, 15, 95, 42] {
            src.store(x, Ordering::Relaxed);
            c.get_value_at(false, 0);
        }
        let snap = snapshot_of(&c).unwrap();
        assert_eq!(snap.buckets[0], 1); // 5
        assert_eq!(snap.buckets[1], 2); // 15, 15
        assert_eq!(snap.buckets[9], 1); // 95
        assert_eq!(snap.buckets[4], 1); // 42
        assert_eq!(snap.total(), 5);
        assert_eq!(snap.mode(), Some((10.0, 2)));
    }

    #[test]
    fn under_and_overflow_are_tracked() {
        let (_reg, src, c) = setup();
        for x in [-5, 100, 250] {
            src.store(x, Ordering::Relaxed);
            c.get_value_at(false, 0);
        }
        let snap = snapshot_of(&c).unwrap();
        assert_eq!(snap.underflow, 1);
        assert_eq!(snap.overflow, 2);
        assert_eq!(snap.buckets.iter().sum::<u64>(), 0);
    }

    #[test]
    fn scalar_value_is_sample_count_and_reset_clears() {
        let (_reg, src, c) = setup();
        src.store(50, Ordering::Relaxed);
        assert_eq!(c.get_value_at(false, 0).value, 1);
        assert_eq!(c.get_value_at(false, 0).value, 2);
        assert_eq!(c.get_value_at(true, 0).value, 3); // read-then-clear
        assert_eq!(c.get_value_at(false, 0).value, 1);
        c.get_value_at(true, 0);
        let snap = snapshot_of(&c).unwrap();
        assert_eq!(snap.total(), 0);
    }

    #[test]
    fn bad_parameters_rejected() {
        let reg = CounterRegistry::new();
        reg.register_raw("/src/v", "h", "1", Arc::new(|| 0));
        for bad in [
            "/statistics/histogram@/src/v",          // no range
            "/statistics/histogram@/src/v,10,5,4",   // max < min
            "/statistics/histogram@/src/v,0,10,0",   // zero buckets
            "/statistics/histogram@/src/v,0,10,2.5", // fractional buckets
        ] {
            assert!(reg.evaluate(bad, false).is_err(), "`{bad}` should fail");
        }
    }

    #[test]
    fn degenerate_snapshots_have_finite_width_and_no_mode() {
        // Empty bucket vector: width must be 0.0, not NaN (0/0).
        let empty = HistogramSnapshot {
            min: 0.0,
            max: 10.0,
            buckets: Vec::new(),
            underflow: 0,
            overflow: 0,
        };
        assert_eq!(empty.bucket_width(), 0.0);
        assert_eq!(empty.mode(), None);
        assert_eq!(empty.total(), 0);

        // min == max: width must be 0.0, not 0/n (fine) — and an inverted
        // range must not produce a negative width.
        for (min, max) in [(5.0, 5.0), (10.0, 5.0)] {
            let flat = HistogramSnapshot {
                min,
                max,
                buckets: vec![3, 1],
                underflow: 0,
                overflow: 0,
            };
            assert_eq!(flat.bucket_width(), 0.0, "min={min} max={max}");
            assert_eq!(flat.mode(), None, "degenerate range has no mode");
        }

        // NaN bounds (a hand-built snapshot) stay finite too.
        let nan = HistogramSnapshot {
            min: f64::NAN,
            max: f64::NAN,
            buckets: vec![1],
            underflow: 0,
            overflow: 0,
        };
        assert_eq!(nan.bucket_width(), 0.0);
        assert_eq!(nan.mode(), None);
    }

    #[test]
    fn healthy_snapshot_still_reports_width_and_mode() {
        let snap = HistogramSnapshot {
            min: 0.0,
            max: 100.0,
            buckets: vec![0, 7, 2, 0],
            underflow: 1,
            overflow: 0,
        };
        assert_eq!(snap.bucket_width(), 25.0);
        assert_eq!(snap.mode(), Some((25.0, 7)));
    }

    #[test]
    fn non_histogram_counters_do_not_downcast() {
        let reg = CounterRegistry::new();
        reg.register_raw("/src/v", "h", "1", Arc::new(|| 0));
        let c = reg.get_counter(&"/src/v".parse().unwrap()).unwrap();
        assert!(snapshot_of(&c).is_none());
    }
}
