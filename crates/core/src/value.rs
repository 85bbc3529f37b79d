//! Counter values and counter metadata.

use serde::Serialize;

/// The semantic kind of a counter, mirroring HPX's counter types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum CounterKind {
    /// An instantaneous sample of a quantity (queue length, active threads).
    Raw,
    /// A value that only ever grows (task count, cumulative time).
    MonotonicallyIncreasing,
    /// A mean maintained as a (sum, count) pair (task duration).
    Average,
    /// A statistic aggregated over samples of another counter.
    AggregateStatistics,
    /// Time elapsed since a reference point.
    ElapsedTime,
}

/// Health of a returned counter value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum CounterStatus {
    /// The value is meaningful.
    Valid,
    /// The counter exists but has collected no data yet.
    NewData,
    /// The counter is not (or no longer) available.
    Unavailable,
    /// Evaluation failed.
    Invalid,
}

impl CounterStatus {
    /// Whether the value may be used.
    pub fn is_ok(self) -> bool {
        matches!(self, CounterStatus::Valid | CounterStatus::NewData)
    }
}

/// A single evaluation result of a performance counter.
///
/// `value` is a raw integer; the public accessor [`CounterValue::scaled`]
/// applies `scaling`/`scale_inverse` to produce the real quantity, matching
/// HPX's convention of transporting integers and scaling on the consumer
/// side (e.g. nanoseconds with `scaling = 1000` yield microseconds).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CounterValue {
    /// Raw integer payload.
    pub value: i64,
    /// Scale divisor (or multiplier when `scale_inverse`); 1 = unscaled.
    pub scaling: i64,
    /// If true, multiply by `scaling` instead of dividing.
    pub scale_inverse: bool,
    /// Health of the evaluation.
    pub status: CounterStatus,
    /// Nanoseconds since the owning registry's epoch at evaluation time.
    pub timestamp_ns: u64,
    /// Number of underlying samples folded into the value (1 for raw reads).
    pub count: u64,
}

impl CounterValue {
    /// A valid value with no scaling.
    pub fn new(value: i64, timestamp_ns: u64) -> Self {
        CounterValue {
            value,
            scaling: 1,
            scale_inverse: false,
            status: CounterStatus::Valid,
            timestamp_ns,
            count: 1,
        }
    }

    /// A valid value with a scale divisor.
    pub fn scaled_by(value: i64, scaling: i64, timestamp_ns: u64) -> Self {
        CounterValue {
            scaling,
            ..CounterValue::new(value, timestamp_ns)
        }
    }

    /// A placeholder for counters that have no data yet.
    pub fn empty(timestamp_ns: u64) -> Self {
        CounterValue {
            value: 0,
            scaling: 1,
            scale_inverse: false,
            status: CounterStatus::NewData,
            timestamp_ns,
            count: 0,
        }
    }

    /// An unavailable/invalid marker.
    pub fn unavailable(timestamp_ns: u64) -> Self {
        CounterValue {
            status: CounterStatus::Unavailable,
            ..CounterValue::empty(timestamp_ns)
        }
    }

    /// The scaled value as a float: `value / scaling` (or `value * scaling`
    /// when `scale_inverse` is set).
    pub fn scaled(&self) -> f64 {
        if self.scaling == 0 || self.scaling == 1 {
            if self.scale_inverse && self.scaling == 0 {
                return 0.0;
            }
            return self.value as f64;
        }
        if self.scale_inverse {
            self.value as f64 * self.scaling as f64
        } else {
            self.value as f64 / self.scaling as f64
        }
    }

    /// Attach a sample count.
    pub fn with_count(mut self, count: u64) -> Self {
        self.count = count;
        self
    }
}

/// Static metadata describing a counter type or instance.
#[derive(Debug, Clone, Serialize)]
pub struct CounterInfo {
    /// Full counter name (type path for type info, canonical for instances).
    pub name: String,
    /// Semantic kind.
    pub kind: CounterKind,
    /// Human-readable description.
    pub help: String,
    /// Unit of measure of the *scaled* value, e.g. `ns`, `0.1%`, `1/s`.
    pub unit: String,
    /// Interface version.
    pub version: u32,
}

impl CounterInfo {
    /// Metadata with the default version.
    pub fn new(
        name: impl Into<String>,
        kind: CounterKind,
        help: impl Into<String>,
        unit: impl Into<String>,
    ) -> Self {
        CounterInfo {
            name: name.into(),
            kind,
            help: help.into(),
            unit: unit.into(),
            version: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_divides() {
        let v = CounterValue::scaled_by(1500, 1000, 0);
        assert!((v.scaled() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn scaled_inverse_multiplies() {
        let mut v = CounterValue::scaled_by(3, 1000, 0);
        v.scale_inverse = true;
        assert!((v.scaled() - 3000.0).abs() < 1e-12);
    }

    #[test]
    fn unit_scaling_is_identity() {
        let v = CounterValue::new(42, 7);
        assert_eq!(v.scaled(), 42.0);
        assert_eq!(v.timestamp_ns, 7);
        assert!(v.status.is_ok());
    }

    #[test]
    fn zero_scaling_does_not_divide_by_zero() {
        let v = CounterValue::scaled_by(42, 0, 0);
        assert_eq!(v.scaled(), 42.0);
    }

    #[test]
    fn empty_value_reports_new_data() {
        let v = CounterValue::empty(0);
        assert_eq!(v.status, CounterStatus::NewData);
        assert!(v.status.is_ok());
        assert_eq!(v.count, 0);
    }

    #[test]
    fn unavailable_is_not_ok() {
        assert!(!CounterValue::unavailable(0).status.is_ok());
    }

    #[test]
    fn value_serializes_to_json() {
        let v = CounterValue::new(5, 1);
        let json = serde_json::from_str(&serde_json::to_string(&v).unwrap()).unwrap();
        assert_eq!(json["value"], 5);
        assert_eq!(json["status"], "Valid");
        assert_eq!(json["scale_inverse"], false);
        assert_eq!(json["timestamp_ns"], 1);
    }
}
