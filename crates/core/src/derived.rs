//! Arithmetic (derived) counters: `/arithmetics/{add,subtract,multiply,divide}`.
//!
//! The parameter string names the child counters, e.g. the paper's
//! per-task average recomputed from cumulatives:
//!
//! ```text
//! /arithmetics/divide@/threads{locality#0/total}/time/cumulative,/threads{locality#0/total}/count/cumulative
//! ```
//!
//! Evaluating an arithmetic counter evaluates its children; a reset-read
//! of the derived counter reset-reads them, as HPX does (so a child shared
//! by several derived counters restarts for all of them).

use std::sync::Arc;

use crate::counter::Counter;
use crate::error::CounterError;
use crate::name::CounterName;
use crate::registry::CounterRegistry;
use crate::value::{CounterInfo, CounterKind, CounterStatus, CounterValue};

/// Split a parameter string into child specifications.
///
/// Children are comma-separated, but a child's own parameters may contain
/// commas; a new child starts only at a segment beginning with `/`. Trailing
/// non-`/` segments attach to the preceding child — except that callers that
/// expect scalar tail arguments (the statistics counters) strip them first
/// with [`split_tail_args`].
pub(crate) fn split_children(params: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for seg in params.split(',') {
        if seg.starts_with('/') || out.is_empty() {
            out.push(seg.to_owned());
        } else {
            let last = out.last_mut().expect("out is non-empty in this branch");
            last.push(',');
            last.push_str(seg);
        }
    }
    out.retain(|s| !s.is_empty());
    out
}

/// Split up to `max_tail` trailing purely-numeric comma segments off a
/// parameter string. Returns (head, numeric tail segments in order).
/// Bounding the tail keeps nested counter parameters unambiguous:
/// `/statistics/max@/statistics/rolling_average@/x,2,5` gives the outer
/// counter the `5` and leaves `...@/x,2` for the inner one.
pub(crate) fn split_tail_args(params: &str, max_tail: usize) -> (String, Vec<f64>) {
    let mut segs: Vec<&str> = params.split(',').collect();
    let mut tail = Vec::new();
    while segs.len() > 1 && tail.len() < max_tail {
        let last = segs[segs.len() - 1].trim();
        match last.parse::<f64>() {
            Ok(v) => {
                tail.push(v);
                segs.pop();
            }
            Err(_) => break,
        }
    }
    tail.reverse();
    (segs.join(","), tail)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Add,
    Subtract,
    Multiply,
    Divide,
    Mean,
    Min,
    Max,
}

impl Op {
    const ALL: [(&'static str, Op); 7] = [
        ("add", Op::Add),
        ("subtract", Op::Subtract),
        ("multiply", Op::Multiply),
        ("divide", Op::Divide),
        ("mean", Op::Mean),
        ("min", Op::Min),
        ("max", Op::Max),
    ];

    fn from_counter(counter: &str) -> Option<Op> {
        Self::ALL
            .iter()
            .find(|(n, _)| *n == counter)
            .map(|(_, o)| *o)
    }

    fn apply(self, values: &[f64]) -> f64 {
        let mut it = values.iter().copied();
        let first = it.next().unwrap_or(0.0);
        match self {
            Op::Add => first + it.sum::<f64>(),
            Op::Subtract => it.fold(first, |a, b| a - b),
            Op::Multiply => it.fold(first, |a, b| a * b),
            Op::Divide => it.fold(first, |a, b| if b == 0.0 { 0.0 } else { a / b }),
            Op::Mean => (first + it.sum::<f64>()) / values.len().max(1) as f64,
            Op::Min => it.fold(first, f64::min),
            Op::Max => it.fold(first, f64::max),
        }
    }
}

struct ArithmeticCounter {
    info: CounterInfo,
    op: Op,
    children: Vec<Arc<dyn Counter>>,
}

impl Counter for ArithmeticCounter {
    fn info(&self) -> CounterInfo {
        self.info.clone()
    }

    /// Apply the operation to the children's values, each read at `now_ns`
    /// (and reset with `reset`, every child even past a failing one),
    /// stamped with the latest child stamp.
    fn get_value_at(&self, reset: bool, now_ns: u64) -> CounterValue {
        let (mut values, mut ts, mut ok) = (Vec::with_capacity(self.children.len()), 0, true);
        for c in &self.children {
            let v = c.get_value_at(reset, now_ns);
            ts = ts.max(v.timestamp_ns);
            ok &= v.status.is_ok();
            values.push(v.scaled());
        }
        if !ok {
            return CounterValue {
                status: CounterStatus::Invalid,
                ..CounterValue::empty(ts)
            };
        }
        let result = self.op.apply(&values);
        CounterValue::new(result.round() as i64, ts).with_count(values.len() as u64)
    }
}

/// Register `/arithmetics/{add,subtract,multiply,divide}` with `registry`.
/// Called automatically by [`CounterRegistry::new`].
pub fn register_arithmetics(registry: &Arc<CounterRegistry>) {
    for (op_name, _) in Op::ALL {
        let type_path = format!("/arithmetics/{op_name}");
        let info = CounterInfo::new(
            &type_path,
            CounterKind::Raw,
            format!("{op_name} the scaled values of the child counters named in the parameters"),
            "1",
        );
        registry.register_type(
            info,
            Arc::new(move |name: &CounterName, reg: &Arc<CounterRegistry>| {
                let op = Op::from_counter(&name.counter).ok_or_else(|| {
                    CounterError::InvalidParameters(format!("unknown operation `{}`", name.counter))
                })?;
                let params = name.parameters.as_deref().ok_or_else(|| {
                    CounterError::InvalidParameters(
                        "arithmetic counters need child counters as parameters".into(),
                    )
                })?;
                let child_names = split_children(params);
                if child_names.len() < 2 {
                    return Err(CounterError::InvalidParameters(format!(
                        "arithmetic counters need at least two children, got `{params}`"
                    )));
                }
                let mut children = Vec::with_capacity(child_names.len());
                for cn in &child_names {
                    let parsed: CounterName = cn.parse()?;
                    for concrete in reg.expand(&parsed)? {
                        children.push(reg.get_counter(&concrete)?);
                    }
                }
                let info = CounterInfo::new(
                    name.canonical(),
                    CounterKind::Raw,
                    "derived arithmetic counter",
                    "1",
                );
                Ok(Arc::new(ArithmeticCounter { info, op, children }) as Arc<dyn Counter>)
            }),
            None,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicI64, Ordering};

    fn reg_with_values(vals: &[(&str, i64)]) -> Arc<CounterRegistry> {
        let reg = CounterRegistry::new();
        for (path, v) in vals {
            let v = *v;
            reg.register_raw(path, "h", "1", Arc::new(move || v));
        }
        reg
    }

    #[test]
    fn split_children_plain() {
        assert_eq!(split_children("/a/b,/c/d"), vec!["/a/b", "/c/d"]);
    }

    #[test]
    fn split_children_nested_params() {
        assert_eq!(
            split_children("/statistics/average@/a/b,50,/c/d"),
            vec!["/statistics/average@/a/b,50", "/c/d"]
        );
    }

    #[test]
    fn split_tail_args_strips_numbers() {
        let (head, tail) = split_tail_args("/a/b,100", 1);
        assert_eq!(head, "/a/b");
        assert_eq!(tail, vec![100.0]);
        let (head, tail) = split_tail_args("/a/b@x,1,2.5", 2);
        assert_eq!(head, "/a/b@x");
        assert_eq!(tail, vec![1.0, 2.5]);
        let (head, tail) = split_tail_args("/a/b", 3);
        assert_eq!(head, "/a/b");
        assert!(tail.is_empty());
        // The bound keeps inner parameters attached to the head.
        let (head, tail) = split_tail_args("/s/r@/x,2,5", 1);
        assert_eq!(head, "/s/r@/x,2");
        assert_eq!(tail, vec![5.0]);
    }

    #[test]
    fn add_subtract_multiply_divide() {
        let reg = reg_with_values(&[("/x/a", 10), ("/x/b", 4)]);
        for (op, expect) in [
            ("add", 14),
            ("subtract", 6),
            ("multiply", 40),
            ("divide", 3),
        ] {
            let name = format!("/arithmetics/{op}@/x/a,/x/b");
            let v = reg.evaluate(&name, false).unwrap();
            assert_eq!(v.value, expect, "op={op}");
        }
    }

    #[test]
    fn divide_by_zero_yields_zero() {
        let reg = reg_with_values(&[("/x/a", 10), ("/x/zero", 0)]);
        let v = reg
            .evaluate("/arithmetics/divide@/x/a,/x/zero", false)
            .unwrap();
        assert_eq!(v.value, 0);
    }

    #[test]
    fn mean_min_max_over_children() {
        // The cross-worker aggregations HPX exposes as arithmetics/mean etc.
        let reg = reg_with_values(&[("/x/a", 10), ("/x/b", 4), ("/x/c", 7)]);
        for (op, expect) in [("mean", 7), ("min", 4), ("max", 10)] {
            let name = format!("/arithmetics/{op}@/x/a,/x/b,/x/c");
            assert_eq!(reg.evaluate(&name, false).unwrap().value, expect, "op={op}");
        }
    }

    #[test]
    fn three_way_add() {
        let reg = reg_with_values(&[("/x/a", 1), ("/x/b", 2), ("/x/c", 3)]);
        let v = reg
            .evaluate("/arithmetics/add@/x/a,/x/b,/x/c", false)
            .unwrap();
        assert_eq!(v.value, 6);
    }

    #[test]
    fn missing_parameters_is_an_error() {
        let reg = CounterRegistry::new();
        assert!(matches!(
            reg.evaluate("/arithmetics/add", false),
            Err(CounterError::InvalidParameters(_))
        ));
    }

    #[test]
    fn one_child_is_an_error() {
        let reg = reg_with_values(&[("/x/a", 1)]);
        assert!(reg.evaluate("/arithmetics/add@/x/a", false).is_err());
    }

    #[test]
    fn unknown_child_propagates_error() {
        let reg = CounterRegistry::new();
        assert!(matches!(
            reg.evaluate("/arithmetics/add@/no/a,/no/b", false),
            Err(CounterError::UnknownCounterType(_))
        ));
    }

    #[test]
    fn reset_propagates_to_children() {
        let reg = CounterRegistry::new();
        let v = Arc::new(AtomicI64::new(0));
        let v2 = v.clone();
        reg.register_monotonic(
            "/x/m",
            "h",
            "1",
            Arc::new(move || v2.load(Ordering::Relaxed)),
        );
        reg.register_raw("/x/one", "h", "1", Arc::new(|| 1));
        let name: CounterName = "/arithmetics/add@/x/m,/x/one".parse().unwrap();
        let c = reg.get_counter(&name).unwrap();
        let read = |reset| c.get_value_at(reset, reg.clock().now_ns());
        v.store(10, Ordering::Relaxed);
        assert_eq!(read(false).value, 11);
        read(true);
        assert_eq!(read(false).value, 1, "monotonic child rebaselined");
    }

    #[test]
    fn paper_task_duration_from_cumulatives() {
        // /threads/time/average == cumulative time / cumulative count,
        // recomputed through an arithmetic counter.
        let reg = reg_with_values(&[
            ("/threads/time/cumulative", 120_000),
            ("/threads/count/cumulative", 60),
        ]);
        let v = reg
            .evaluate(
                "/arithmetics/divide@/threads/time/cumulative,/threads/count/cumulative",
                false,
            )
            .unwrap();
        assert_eq!(v.value, 2000);
    }
}
