//! `rpx-benchmark`: the repository's one benchmark command.
//!
//! ```text
//! rpx-benchmark run --workload W --seed N --seconds S --trace 0|1   one workload, one process
//! rpx-benchmark run [--seed N] [--seconds S] [--runs R] [--quick] [--out FILE]
//!                                                     every workload, one child process each
//! rpx-benchmark compare A.json B.json                 verdict per (workload, metric)
//! rpx-benchmark spec                                  print BENCHMARK.json from the tables
//! ```
//!
//! See README.md for what is measured and why.

mod cells;
mod compare;
mod host;
mod json;
mod metrics;
mod single;
mod spans;
mod stats;
mod suite;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use serde_json::Value;

use crate::json::{int, num, obj, text};
use crate::metrics::{MetricSpec, END_TO_END, PER_LAYER};
use crate::workloads::WORKLOADS;

pub struct RunArgs {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub quick: bool,
    /// Untraced runs per workload in the aggregating `run` (seeds `seed`,
    /// `seed + 1`, ...).
    pub runs: usize,
    pub out: Option<PathBuf>,
    pub trace_out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut a = RunArgs {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        runs: 1,
        out: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => {
                a.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {s} is outside (0, 60]"));
                }
                a.seconds = Some(s);
            }
            "--trace" => match value("0 or 1")?.as_str() {
                "0" => a.trace = false,
                "1" => a.trace = true,
                other => return Err(format!("--trace takes 0 or 1, not {other}")),
            },
            "--runs" => {
                a.runs = value("a count")?
                    .parse()
                    .ok()
                    .filter(|r| (1..=100).contains(r))
                    .ok_or("--runs takes a count from 1 to 100")?
            }
            "--quick" => a.quick = true,
            "--out" => a.out = Some(PathBuf::from(value("a file path")?)),
            "--trace-out" => a.trace_out = Some(PathBuf::from(value("a file path")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run_args(&args[1..]).and_then(|a| match a.workload.clone() {
            Some(name) => single::run(&name, &a),
            None => suite::run(&a, started),
        }),
        Some("compare") if args.len() == 3 => compare::compare(&args[1], &args[2]),
        Some("spec") => {
            print!("{}", benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(
            "usage: rpx-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
                  [--runs R] [--quick] [--out FILE] | compare A.json B.json | spec"
                .into(),
        ),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("rpx-benchmark: {e}");
        ExitCode::from(2)
    })
}

// ---------------------------------------------------------------------
// BENCHMARK.json
// ---------------------------------------------------------------------

/// `BENCHMARK.json` as the tables in this crate define it.
fn benchmark_json() -> String {
    let metric = |m: &MetricSpec, bounded: bool| {
        let mut fields = vec![
            ("name", text(m.name)),
            ("unit", text(m.unit)),
            ("better", text(m.better())),
        ];
        if bounded {
            fields.push(("bound", num(m.bound)));
        }
        obj(fields)
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    let spec = obj([
        (
            "command",
            Value::Array(command.into_iter().map(text).collect()),
        ),
        ("paths", Value::Array(vec![text("benchmark")])),
        ("run_seconds", int(single::DEFAULT_SECONDS as u64)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| obj([("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer",
            Value::Array(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ]);
    let mut out = serde_json::to_string_pretty(&spec).expect("JSON writes");
    out.push('\n');
    out
}
