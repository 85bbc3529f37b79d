//! Every workload, one child process each (so `peak_rss_mib` is per
//! workload): `run` without `--workload`. Writes one result file with
//! provenance, every run's end-to-end metrics, one traced run's per-layer
//! budget per workload, and the ratios derived across workloads with
//! their bases.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use serde_json::Value;

use crate::json::{int, num, obj, text};
use crate::single::{seconds_of, DETAIL_PREFIX, EXIT_SKIPPED};
use crate::stats::median;
use crate::workloads::WORKLOADS;
use crate::{compare, host, RunArgs};

enum Child {
    Ran {
        result: Value,
        detail: Value,
        ok: bool,
    },
    Skipped,
}

/// The contract's result (last line of stdout) and the detail line.
fn parse_child_stdout(stdout: &str) -> Result<(Value, Value), String> {
    let last = stdout.lines().last().ok_or("the child printed nothing")?;
    let result = serde_json::from_str(last).map_err(|e| format!("result line: {e}"))?;
    let detail = match stdout.lines().find_map(|l| l.strip_prefix(DETAIL_PREFIX)) {
        Some(d) => serde_json::from_str(d).map_err(|e| format!("detail line: {e}"))?,
        None => Value::Null,
    };
    Ok((result, detail))
}

fn run_child(
    workload: &str,
    seed: u64,
    args: &RunArgs,
    trace_out: Option<&Path>,
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload, "--seed", &seed.to_string()]);
    cmd.args(["--seconds", &seconds_of(args).to_string()]);
    cmd.args(["--trace", if trace_out.is_some() { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    if let Some(path) = trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the {workload} child: {e}"))?;
    if out.status.code() == Some(i32::from(EXIT_SKIPPED)) {
        return Ok(Child::Skipped);
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (result, detail) =
        parse_child_stdout(&stdout).map_err(|e| format!("{workload} ({}): {e}", out.status))?;
    Ok(Child::Ran {
        result,
        detail,
        ok: out.status.success(),
    })
}

fn metric_value(result: &Value, name: &str) -> f64 {
    result["metrics"][name]["value"].as_f64().unwrap_or(0.0)
}

fn summary_line(result: &Value) -> String {
    format!(
        "ops {:>6} failed {}  {:>10.0} tasks/s  op p50 {:>9.4} ms  p90 {:>9.4} ms  setup {:.3} s",
        result["attempted"].as_u64().unwrap_or(0),
        result["failed"].as_u64().unwrap_or(0),
        metric_value(result, "tasks_per_s"),
        metric_value(result, "op_ms_p50"),
        metric_value(result, "op_ms_p90"),
        metric_value(result, "setup_s"),
    )
}

fn layer_line(result: &Value) -> String {
    format!(
        "failed {}  span overhead {:.2} %  self-time coverage {:.2} %  host drift {:.1} %",
        result["failed"].as_u64().unwrap_or(0),
        metric_value(result, "bench.trace_overhead_pct"),
        metric_value(result, "bench.selftime_coverage_pct"),
        metric_value(result, "host.drift_pct"),
    )
}

/// One workload's entry of the result file, as it is being filled.
struct Entry {
    name: &'static str,
    runs: Vec<Value>,
    per_layer: Value,
}

impl Entry {
    /// Median over the runs of an end-to-end or workload metric.
    fn median_of(&self, metric: &str) -> f64 {
        median(&compare::values(&self.runs, metric))
    }
}

/// The ratios that need two workloads (or a workload and a cell), each
/// with the numbers it was formed from, so the first issue after this one
/// can pick its target from measured shares.
fn derived(entries: &[Entry]) -> Value {
    let find = |name: &str| entries.iter().find(|e| e.name == name);
    let mut out = Vec::new();
    if let (Some(w1), Some(w2)) = (find("fib_w1"), find("fib_w2")) {
        let (a, b) = (w1.median_of("op_ms_p50"), w2.median_of("op_ms_p50"));
        out.push((
            "runtime.speedup_w2",
            obj([
                ("value", num(a / b)),
                ("unit", text("ratio")),
                ("fib_w1_op_ms_p50", num(a)),
                ("fib_w2_op_ms_p50", num(b)),
            ]),
        ));
        if let Some(traced) = find("fib_traced_w2") {
            let t = traced.median_of("wall_ms_p50");
            out.push((
                "runtime.trace_overhead_pct",
                obj([
                    ("value", num((t / b - 1.0) * 100.0)),
                    ("unit", text("%")),
                    ("fib_traced_w2_wall_ms_p50", num(t)),
                    ("fib_w2_op_ms_p50", num(b)),
                ]),
            ));
        }
    }
    if let Some(w1) = find("fib_w1") {
        let ns_per_task = 1e9 / w1.median_of("tasks_per_s");
        let push_pop = metric_value(&w1.per_layer, "crossbeam.deque_push_pop_ns");
        let clock = metric_value(&w1.per_layer, "counters.clock_now_ns");
        // One deque push+pop carries a task; four clock reads bracket it
        // (spawn stamp, start, end, and the overhead split).
        out.push((
            "runtime.unattributed_ns",
            obj([
                ("value", num(ns_per_task - push_pop - 4.0 * clock)),
                ("unit", text("ns")),
                ("fib_w1_ns_per_task", num(ns_per_task)),
                ("crossbeam.deque_push_pop_ns", num(push_pop)),
                ("counters.clock_now_ns", num(clock)),
            ]),
        ));
    }
    if let Some(scrape) = find("scrape_10k_w1") {
        out.push((
            "serve.app_slowdown_pct",
            obj([
                ("value", num(scrape.median_of("app_slowdown_pct"))),
                ("unit", text("%")),
                (
                    "app_rounds_per_s_scraped",
                    num(scrape.median_of("app_rounds_per_s")),
                ),
                (
                    "app_rounds_per_s_unscraped",
                    num(scrape.median_of("app_rounds_per_s_unscraped")),
                ),
            ]),
        ));
    }
    obj(out)
}

pub fn run(args: &RunArgs, started: Instant) -> Result<ExitCode, String> {
    let out_path = args.out.clone().unwrap_or_else(|| {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/results/latest.json"))
    });
    if let Some(dir) = out_path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let stem = out_path
        .file_stem()
        .map_or("latest".into(), |s| s.to_string_lossy().into_owned());
    let mut all_ok = true;
    let mut entries: Vec<Entry> = Vec::new();
    let mut skipped = Vec::new();
    'workloads: for info in &WORKLOADS {
        let mut entry = Entry {
            name: info.name,
            runs: Vec::new(),
            per_layer: Value::Null,
        };
        for r in 0..args.runs {
            let seed = args.seed + r as u64;
            match run_child(info.name, seed, args, None)? {
                Child::Skipped => {
                    println!("{:<20} skipped: needs {} CPUs", info.name, info.workers);
                    skipped.push(info.name);
                    continue 'workloads;
                }
                Child::Ran { result, detail, ok } => {
                    all_ok &= ok;
                    println!("{:<20} seed {seed:<4} {}", info.name, summary_line(&result));
                    entry.runs.push(obj([
                        ("seed", int(seed)),
                        ("result", result),
                        ("detail", detail),
                    ]));
                }
            }
        }
        let trace_file = out_path.with_file_name(format!("{stem}_trace_{}.json", info.name));
        if let Child::Ran { result, ok, .. } =
            run_child(info.name, args.seed, args, Some(&trace_file))?
        {
            all_ok &= ok;
            println!("{:<20} traced    {}", info.name, layer_line(&result));
            entry.per_layer = result;
        }
        entries.push(entry);
    }

    let derived = derived(&entries);
    if let Value::Object(fields) = &derived {
        for (name, d) in fields {
            println!(
                "{name:<32} {}",
                serde_json::to_string(d).expect("JSON writes")
            );
        }
    }
    let took = started.elapsed().as_secs_f64();
    let file = obj([
        ("provenance", host::provenance(args.seed)),
        (
            "settings",
            obj([
                ("seconds_per_run", num(seconds_of(args))),
                ("runs_per_workload", int(args.runs as u64)),
                ("quick", Value::Bool(args.quick)),
                (
                    "epochs_per_run",
                    obj(WORKLOADS
                        .iter()
                        .map(|w| (w.name, int(if args.quick { 1 } else { w.epochs as u64 })))),
                ),
            ]),
        ),
        ("took_s", num(took)),
        (
            "skipped",
            Value::Array(skipped.into_iter().map(text).collect()),
        ),
        ("derived", derived),
        (
            "workloads",
            obj(entries.into_iter().map(|e| {
                (
                    e.name,
                    obj([
                        ("runs", Value::Array(e.runs)),
                        ("per_layer", e.per_layer),
                        ("trace_file", text(format!("{stem}_trace_{}.json", e.name))),
                    ]),
                )
            })),
        ),
    ]);
    let mut body = serde_json::to_string_pretty(&file).expect("JSON writes");
    body.push('\n');
    std::fs::write(&out_path, body).map_err(|e| format!("{}: {e}", out_path.display()))?;
    println!("wrote {} after {took:.1} s", out_path.display());
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("rpx-benchmark: at least one workload failed an oracle check");
        ExitCode::FAILURE
    })
}
