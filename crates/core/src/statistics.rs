//! Statistics counters: `/statistics/{average,rolling_average,median,
//! stddev,min,max}@child[,window]`.
//!
//! A statistics counter samples its child counter on every evaluation and
//! reports a statistic over the collected samples. `average` and `stddev`
//! aggregate over the full history since the last reset; the `rolling_*`
//! and order statistics (`median`, `min`, `max`) use a sliding window whose
//! size is the optional trailing numeric parameter (default 64 samples).

use std::sync::Arc;

use parking_lot::Mutex;

use crate::counter::Counter;
use crate::derived::split_tail_args;
use crate::error::CounterError;
use crate::name::CounterName;
use crate::registry::CounterRegistry;
use crate::stats::{RunningStats, SampleWindow};
use crate::value::{CounterInfo, CounterKind, CounterStatus, CounterValue};

const DEFAULT_WINDOW: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stat {
    Average,
    RollingAverage,
    Median,
    Stddev,
    Min,
    Max,
}

impl Stat {
    fn from_counter(name: &str) -> Option<Stat> {
        match name {
            "average" => Some(Stat::Average),
            "rolling_average" => Some(Stat::RollingAverage),
            "median" => Some(Stat::Median),
            "stddev" => Some(Stat::Stddev),
            "min" => Some(Stat::Min),
            "max" => Some(Stat::Max),
            _ => None,
        }
    }

    fn all() -> [&'static str; 6] {
        [
            "average",
            "rolling_average",
            "median",
            "stddev",
            "min",
            "max",
        ]
    }
}

struct State {
    running: RunningStats,
    window: SampleWindow,
}

struct StatisticsCounter {
    info: CounterInfo,
    stat: Stat,
    child: Arc<dyn Counter>,
    state: Mutex<State>,
}

impl StatisticsCounter {
    fn statistic(&self, state: &State) -> f64 {
        match self.stat {
            Stat::Average => state.running.mean(),
            Stat::Stddev => state.running.stddev(),
            Stat::RollingAverage => state.window.mean(),
            Stat::Median => state.window.median(),
            Stat::Min => state.window.min(),
            Stat::Max => state.window.max(),
        }
    }
}

impl Counter for StatisticsCounter {
    fn info(&self) -> CounterInfo {
        self.info.clone()
    }

    fn get_value_at(&self, reset: bool, now_ns: u64) -> CounterValue {
        self.fold(reset, self.child.get_value_at(false, now_ns))
    }
}

impl StatisticsCounter {
    /// Add the child's `sample` and report the statistic, stamped as the
    /// sample is.
    fn fold(&self, reset: bool, sample: CounterValue) -> CounterValue {
        let mut state = self.state.lock();
        if sample.status.is_ok() && sample.status != CounterStatus::NewData {
            let x = sample.scaled();
            state.running.add(x);
            state.window.push(x);
        }
        let n = state.running.count();
        if n == 0 {
            return CounterValue::empty(sample.timestamp_ns);
        }
        let value = self.statistic(&state);
        if reset {
            state.running.reset();
            state.window.reset();
        }
        statistic_to_value(value, sample.timestamp_ns, n)
    }
}

/// Convert a computed statistic into a transportable [`CounterValue`].
///
/// NaN/∞ (e.g. a degenerate window) must not masquerade as a valid 0 —
/// `f64::round() as i64` saturates NaN to 0 — so non-finite statistics
/// report "no data". Fractional statistics (sub-unit averages of rate-like
/// children) are carried as milli-units through the value's scaling fields
/// instead of being rounded away; integral statistics stay unscaled so raw
/// `value` consumers see the exact integer.
fn statistic_to_value(value: f64, timestamp_ns: u64, n: u64) -> CounterValue {
    if !value.is_finite() {
        return CounterValue::empty(timestamp_ns);
    }
    if value.fract() == 0.0 {
        CounterValue::new(value as i64, timestamp_ns).with_count(n)
    } else {
        CounterValue::scaled_by((value * 1000.0).round() as i64, 1000, timestamp_ns).with_count(n)
    }
}

/// Register the `/statistics/*` counter types with `registry`.
/// Called automatically by [`CounterRegistry::new`].
pub fn register_statistics(registry: &Arc<CounterRegistry>) {
    for stat_name in Stat::all() {
        let type_path = format!("/statistics/{stat_name}");
        let info = CounterInfo::new(
            &type_path,
            CounterKind::AggregateStatistics,
            format!("{stat_name} over samples of the child counter named in the parameters"),
            "1",
        );
        registry.register_type(
            info,
            Arc::new(move |name: &CounterName, reg: &Arc<CounterRegistry>| {
                let stat = Stat::from_counter(&name.counter).ok_or_else(|| {
                    CounterError::InvalidParameters(format!("unknown statistic `{}`", name.counter))
                })?;
                let params = name.parameters.as_deref().ok_or_else(|| {
                    CounterError::InvalidParameters(
                        "statistics counters need a child counter as parameter".into(),
                    )
                })?;
                let (child_name, tail) = split_tail_args(params, 1);
                let window = tail
                    .first()
                    .map(|w| {
                        if *w >= 1.0 && w.fract() == 0.0 {
                            Ok(*w as usize)
                        } else {
                            Err(CounterError::InvalidParameters(format!(
                                "window size must be a positive integer, got {w}"
                            )))
                        }
                    })
                    .transpose()?
                    .unwrap_or(DEFAULT_WINDOW);
                let parsed: CounterName = child_name.parse()?;
                if parsed.has_wildcard() {
                    return Err(CounterError::InvalidParameters(
                        "statistics counters take a single concrete child".into(),
                    ));
                }
                let child = reg.get_counter(&parsed)?;
                let info = CounterInfo::new(
                    name.canonical(),
                    CounterKind::AggregateStatistics,
                    "derived statistics counter",
                    child.info().unit,
                );
                Ok(Arc::new(StatisticsCounter {
                    info,
                    stat,
                    child,
                    state: Mutex::new(State {
                        running: RunningStats::new(),
                        window: SampleWindow::new(window),
                    }),
                }) as Arc<dyn Counter>)
            }),
            None,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicI64, Ordering};

    fn reg_with_source() -> (Arc<CounterRegistry>, Arc<AtomicI64>) {
        let reg = CounterRegistry::new();
        let v = Arc::new(AtomicI64::new(0));
        let v2 = v.clone();
        reg.register_raw(
            "/src/value",
            "h",
            "ns",
            Arc::new(move || v2.load(Ordering::Relaxed)),
        );
        (reg, v)
    }

    fn sample_sequence(
        reg: &Arc<CounterRegistry>,
        src: &AtomicI64,
        counter: &str,
        samples: &[i64],
    ) -> i64 {
        let name: CounterName = counter.parse().unwrap();
        let c = reg.get_counter(&name).unwrap();
        let mut last = 0;
        for &s in samples {
            src.store(s, Ordering::Relaxed);
            last = c.get_value_at(false, 0).value;
        }
        last
    }

    #[test]
    fn average_accumulates_full_history() {
        let (reg, src) = reg_with_source();
        let v = sample_sequence(&reg, &src, "/statistics/average@/src/value", &[10, 20, 30]);
        assert_eq!(v, 20);
    }

    #[test]
    fn rolling_average_uses_window() {
        let (reg, src) = reg_with_source();
        // Window of 2: after samples 10, 20, 30 the window holds {20, 30}.
        let v = sample_sequence(
            &reg,
            &src,
            "/statistics/rolling_average@/src/value,2",
            &[10, 20, 30],
        );
        assert_eq!(v, 25);
    }

    #[test]
    fn median_min_max() {
        let (reg, src) = reg_with_source();
        let v = sample_sequence(&reg, &src, "/statistics/median@/src/value,5", &[5, 1, 9]);
        assert_eq!(v, 5);
        let v = sample_sequence(&reg, &src, "/statistics/min@/src/value,5", &[5, 1, 9]);
        assert_eq!(v, 1);
        let v = sample_sequence(&reg, &src, "/statistics/max@/src/value,5", &[5, 1, 9]);
        assert_eq!(v, 9);
    }

    #[test]
    fn stddev_matches_population_formula() {
        let (reg, src) = reg_with_source();
        // Samples 2, 4, 4, 4, 5, 5, 7, 9 have population stddev exactly 2.
        let v = sample_sequence(
            &reg,
            &src,
            "/statistics/stddev@/src/value",
            &[2, 4, 4, 4, 5, 5, 7, 9],
        );
        assert_eq!(v, 2);
    }

    #[test]
    fn evaluate_with_reset_clears_history() {
        let (reg, src) = reg_with_source();
        let name: CounterName = "/statistics/average@/src/value".parse().unwrap();
        let c = reg.get_counter(&name).unwrap();
        src.store(100, Ordering::Relaxed);
        assert_eq!(c.get_value_at(true, 0).value, 100);
        src.store(10, Ordering::Relaxed);
        // History was cleared, so the next average sees only the new sample.
        assert_eq!(c.get_value_at(false, 0).value, 10);
    }

    #[test]
    fn no_samples_reports_new_data() {
        let reg = CounterRegistry::new();
        // A child whose value is NewData: an average counter over (0, 0).
        reg.register_average("/src/avg", "h", "ns", Arc::new(|| (0, 0)));
        let name: CounterName = "/statistics/average@/src/avg".parse().unwrap();
        let c = reg.get_counter(&name).unwrap();
        let v = c.get_value_at(false, 0);
        assert_eq!(v.status, CounterStatus::NewData);
    }

    #[test]
    fn bad_window_rejected() {
        let (reg, _src) = reg_with_source();
        assert!(reg
            .evaluate("/statistics/median@/src/value,0", false)
            .is_err());
        assert!(reg
            .evaluate("/statistics/median@/src/value,2.5", false)
            .is_err());
    }

    #[test]
    fn missing_parameters_rejected() {
        let reg = CounterRegistry::new();
        assert!(matches!(
            reg.evaluate("/statistics/average", false),
            Err(CounterError::InvalidParameters(_))
        ));
    }

    #[test]
    fn fractional_statistics_keep_sub_unit_precision() {
        let (reg, src) = reg_with_source();
        let name: CounterName = "/statistics/average@/src/value".parse().unwrap();
        let c = reg.get_counter(&name).unwrap();
        src.store(10, Ordering::Relaxed);
        let _ = c.get_value_at(false, 0);
        src.store(15, Ordering::Relaxed);
        let v = c.get_value_at(false, 0);
        // Mean of {10, 15} is 12.5 — transported as 12500/1000, not
        // rounded to 12 or 13.
        assert_eq!(v.scaled(), 12.5);
        assert_eq!(v.value, 12500);
        assert_eq!(v.scaling, 1000);
        assert_eq!(v.count, 2);
    }

    #[test]
    fn non_finite_statistics_report_no_data() {
        let nan = statistic_to_value(f64::NAN, 7, 3);
        assert_eq!(nan.status, CounterStatus::NewData);
        assert_eq!(nan.value, 0);
        assert_eq!(nan.count, 0);
        let inf = statistic_to_value(f64::INFINITY, 7, 3);
        assert_eq!(inf.status, CounterStatus::NewData);
        // Integral statistics stay raw; fractional ones scale.
        assert_eq!(statistic_to_value(20.0, 0, 1).value, 20);
        assert_eq!(statistic_to_value(20.0, 0, 1).scaling, 1);
    }

    #[test]
    fn statistics_over_statistics_compose() {
        let (reg, src) = reg_with_source();
        // max of rolling averages — exercises nested parameter parsing:
        // the outer counter takes the trailing `5`, the inner keeps `,2`.
        let name = "/statistics/max@/statistics/rolling_average@/src/value,2,5";
        let v = sample_sequence(&reg, &src, name, &[10, 20, 30]);
        // Outer evaluations sample the inner counter, which itself samples
        // the source: inner rolling(2) sees 10 → 10; 20 → 15; 30 → 25.
        // Outer max over {10, 15, 25} = 25.
        assert_eq!(v, 25);
    }
}
