//! `compare A.json B.json`: for every (workload, end-to-end metric) pair
//! both result files hold, the medians and quartiles over each file's
//! runs, the metric's bound, and a verdict. This is what "two sets of runs
//! of one commit agree" and every later "no regression" claim are read
//! from.

use std::process::ExitCode;

use serde_json::Value;

use crate::metrics::{MetricSpec, END_TO_END, WORKLOAD_METRICS};
use crate::stats::{median, verdict, Summary, Verdict};
use crate::workloads::WORKLOADS;

/// `spin_error_pct` above which the spin kernel no longer delivers the
/// grain it was asked for, and efficiencies computed from it are void.
const SPIN_ERROR_LIMIT_PCT: f64 = 2.0;

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn runs<'a>(file: &'a Value, workload: &str) -> &'a [Value] {
    file["workloads"][workload]["runs"]
        .as_array()
        .map_or(&[], Vec::as_slice)
}

/// One metric's value in every run of a workload, end-to-end or
/// workload metric alike (runs lacking it are left out: not every
/// workload has every workload metric).
pub fn values(runs: &[Value], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| {
            r["result"]["metrics"]
                .get(metric)
                .or_else(|| r["detail"]["workload_metrics"].get(metric))
                .and_then(|m| m["value"].as_f64())
        })
        .collect()
}

/// One reading per run of both files, where the run has it.
fn readings<'a>(
    runs: impl Iterator<Item = &'a Value>,
    read: impl Fn(&Value) -> Option<f64>,
) -> Vec<f64> {
    runs.filter_map(read).collect()
}

pub fn compare(path_a: &str, path_b: &str) -> Result<ExitCode, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!(
        "{:<20} {:<27} {:>13} {:>13} {:>27} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "B q1..q3", "change", "spread", "bound"
    );
    let mut any_worse = false;
    for w in &WORKLOADS {
        let (runs_a, runs_b) = (runs(&a, w.name), runs(&b, w.name));
        if runs_a.is_empty() || runs_b.is_empty() {
            println!("{:<20} skipped or absent in one of the files", w.name);
            continue;
        }
        let both = || runs_a.iter().chain(runs_b);
        // The probe is a 70 ms snapshot before and after an ~10 s run; one
        // co-tenant burst during a probe says little about the run, so the
        // workload's drift is the median over its runs, not the worst.
        let drift = median(&readings(both(), |r| r["detail"]["host"]["drift"].as_f64()));
        let spin_error = median(&readings(both(), |r| {
            r["detail"]["workload_metrics"]["spin_error_pct"]["value"].as_f64()
        }));
        let judged = END_TO_END
            .iter()
            .chain(&WORKLOAD_METRICS)
            .filter(|m| m.bound > 0.0);
        for m in judged {
            let (va, vb) = (values(runs_a, m.name), values(runs_b, m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (sa, sb) = (Summary::of(&va), Summary::of(&vb));
            let v = judge(m, sa, sb, drift, spin_error);
            any_worse |= v == Verdict::Worse;
            let note = if v == Verdict::Unresolved && drift > m.bound {
                format!("  (host drift {:.0} %)", drift * 100.0)
            } else {
                String::new()
            };
            println!(
                "{:<20} {:<27} {:>13.4} {:>13.4} {:>27} {:>+7.1}% {:>7.1}% {:>5.0}%  {}{note}",
                w.name,
                m.name,
                sa.median,
                sb.median,
                format!("{:.4}..{:.4}", sb.q1, sb.q3),
                (sb.median / sa.median - 1.0) * 100.0,
                sa.spread().max(sb.spread()) * 100.0,
                m.bound * 100.0,
                v.label(),
            );
        }
    }
    Ok(if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn judge(m: &MetricSpec, a: Summary, b: Summary, host_drift: f64, spin_error_pct: f64) -> Verdict {
    if m.name.starts_with("efficiency_") && spin_error_pct > SPIN_ERROR_LIMIT_PCT {
        return Verdict::Unresolved;
    }
    // Memory does not depend on how fast the host ran.
    let drift = if m.unit == "MiB" { 0.0 } else { host_drift };
    verdict(a, b, m.higher_is_better, m.bound, drift)
}
