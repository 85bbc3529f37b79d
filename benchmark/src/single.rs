//! One workload in this process: what the driver's
//! `--workload W --seed N --seconds S --trace 0|1` runs.
//!
//! A run is a number of *epochs*. Each epoch sets the workload up from
//! nothing (its own runtime instance, warm-up included), measures ops for
//! its share of `--seconds`, and tears down. `setup_s` is the median
//! set-up over the epochs. The epochs exist because a two-worker runtime
//! instance is fast or slow for its whole life (measured: `fib(25)` at
//! ~59 ms or ~75 ms per rep, about half the instances each, whatever the
//! process or CPU pinning), so one instance per run would make every `_w2`
//! number a coin toss; a run therefore samples many instances.

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use serde_json::Value;

use crate::host::{self, HostProbe};
use crate::json::{int, metric_map, num, obj};
use crate::metrics::{self, MetricSpec, END_TO_END, PER_LAYER, WORKLOAD_METRICS};
use crate::spans::{Layer, Spans, OUTSIDE_OPS};
use crate::stats::{
    self, highest_supported_percentile, mean, ms, quantile_sorted, sorted, Summary,
};
use crate::workloads::{self, Config, Scale, WorkloadInfo, WORKLOADS};
use crate::{cells, RunArgs};

/// Exit code of a workload that cannot run on this host (`_w2` on one CPU).
pub const EXIT_SKIPPED: u8 = 3;
/// Prefix of the line a single run prints for the aggregating `run`.
pub const DETAIL_PREFIX: &str = "#detail ";
/// Seconds a run measures when `--seconds` is not given.
pub const DEFAULT_SECONDS: f64 = 6.0;
const QUICK_SECONDS: f64 = 0.12;
/// Spans written to a trace file (the file says how many were recorded).
const TRACE_FILE_SPANS: usize = 4_000;

pub fn seconds_of(args: &RunArgs) -> f64 {
    args.seconds.unwrap_or(if args.quick {
        QUICK_SECONDS
    } else {
        DEFAULT_SECONDS
    })
}

/// Per-name samples, one per epoch, in first-seen order.
#[derive(Default)]
struct PerEpoch(Vec<(&'static str, Vec<f64>)>);

impl PerEpoch {
    fn add(&mut self, values: &[(&'static str, f64)]) {
        for (name, value) in values {
            match self.0.iter_mut().find(|(n, _)| n == name) {
                Some((_, samples)) => samples.push(*value),
                None => self.0.push((name, vec![*value])),
            }
        }
    }

    /// Mean over the epochs of each reading.
    fn means(&self) -> Vec<(&'static str, f64)> {
        self.0.iter().map(|(name, v)| (*name, mean(v))).collect()
    }
}

/// Everything the epochs of one run measured.
#[derive(Default)]
struct Totals {
    /// Op wall times, ms: `[unspanned, spanned]`. An untraced run has only
    /// the first.
    op_ms: [Vec<f64>; 2],
    /// Median op time of each epoch (each runtime instance), ms.
    epoch_p50_ms: Vec<f64>,
    setup_s: Vec<f64>,
    /// Wall of everything that ran under spans (set-up, teardown and the
    /// spanned ops, oracle checks included) as this loop timed it, ms.
    traced_wall_ms: f64,
    tasks: u64,
    task_wall: Duration,
    failed: u64,
    detail: PerEpoch,
    layer: PerEpoch,
}

impl Totals {
    fn ops(&self) -> usize {
        self.op_ms[0].len() + self.op_ms[1].len()
    }
}

/// Run `info`'s epochs. With `traced`, set-up, teardown and every other op
/// run under spans; the unspanned ops of the same instances are the
/// tracing-overhead baseline.
fn run_epochs(
    info: &WorkloadInfo,
    cfg: Config,
    seconds: Duration,
    spans: &mut Spans,
    traced: bool,
) -> Totals {
    let epochs = if cfg.scale == Scale::Full {
        info.epochs
    } else {
        1
    };
    let mut t = Totals::default();
    for epoch in 0..epochs {
        spans.on = traced;
        spans.rep = OUTSIDE_OPS;
        let t0 = Instant::now();
        let mut w = spans.scope("set-up", Layer::Bench, |s| {
            workloads::setup(info.name, cfg, s).expect("the name came from WORKLOADS")
        });
        let setup = t0.elapsed();
        t.setup_s.push(setup.as_secs_f64());

        let deadline = Instant::now() + seconds / epochs as u32;
        let (mut tasks, mut task_wall) = (0, Duration::ZERO);
        let mut epoch_ms = Vec::new();
        // At least two ops, so the epoch has a median.
        while epoch_ms.len() < 2 || Instant::now() < deadline {
            // Which op of an epoch goes first alternates too, so position
            // in the epoch does not pass for tracing overhead.
            let spanned = traced && (epoch + epoch_ms.len()) % 2 == 0;
            spans.on = spanned;
            spans.rep = t.ops() as i64;
            let t_op = Instant::now();
            let op = w.op(spans);
            if spanned {
                t.traced_wall_ms += ms(t_op.elapsed());
            }
            let op_ms = ms(op.wall);
            t.op_ms[usize::from(spanned)].push(op_ms);
            epoch_ms.push(op_ms);
            tasks += op.tasks;
            task_wall += op.task_wall;
            t.failed += u64::from(!op.ok);
        }
        t.epoch_p50_ms.push(stats::median(&epoch_ms));

        spans.on = traced;
        spans.rep = OUTSIDE_OPS;
        let t0 = Instant::now();
        let fin = spans.scope("teardown", Layer::Bench, |s| w.finish(s));
        if traced {
            t.traced_wall_ms += ms(setup + t0.elapsed());
        }
        let (tasks, task_wall) = fin.throughput.unwrap_or((tasks, task_wall));
        t.tasks += tasks;
        t.task_wall += task_wall;
        t.failed += fin.failed_checks;
        t.detail.add(&fin.detail);
        t.layer.add(&fin.layer);
    }
    t
}

fn print_metrics(table: &[MetricSpec], values: &[(&str, f64)]) {
    for (name, value) in values {
        let unit = metrics::find(table, name).map_or("", |m| m.unit);
        println!("{name:<40} {value:>16.4} {unit}");
    }
}

/// `(name, value, unit)` for the driver's metric map.
fn with_units<'a>(
    table: &'a [MetricSpec],
    values: &'a [(&'a str, f64)],
) -> impl Iterator<Item = (&'a str, f64, &'a str)> {
    values.iter().map(|(name, value)| {
        let spec = metrics::find(table, name)
            .unwrap_or_else(|| panic!("{name} is missing from the metric tables"));
        (*name, *value, spec.unit)
    })
}

/// The contract's last line.
fn print_result(attempted: usize, failed: u64, metrics: Value) {
    let line = obj([
        ("correct", Value::Bool(failed == 0)),
        ("attempted", int(attempted as u64)),
        ("failed", int(failed)),
        ("metrics", metrics),
    ]);
    println!("{}", serde_json::to_string(&line).expect("JSON writes"));
}

pub fn run(name: &str, args: &RunArgs) -> Result<ExitCode, String> {
    let info = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("no workload named {name}"))?;
    let cpus = host::available_parallelism();
    if info.workers > cpus {
        eprintln!(
            "skipped: {name} needs {} CPUs, this host gives {cpus}",
            info.workers
        );
        return Ok(ExitCode::from(EXIT_SKIPPED));
    }
    let cfg = Config {
        seed: args.seed,
        scale: if args.quick {
            Scale::Quick
        } else {
            Scale::Full
        },
    };
    let seconds = Duration::from_secs_f64(seconds_of(args));
    let probe_scale = if args.quick { 0.05 } else { 1.0 };
    let host_before = HostProbe::measure(probe_scale);
    let failed = if args.trace {
        let cells = cells::run_all(cfg, cpus >= 2);
        let mut spans = Spans::new(true);
        let totals = run_epochs(info, cfg, seconds, &mut spans, true);
        let host_after = HostProbe::measure(probe_scale);
        if let Some(path) = &args.trace_out {
            write_trace(path, name, &spans)?;
        }
        report_traced(
            info,
            cfg,
            &cells,
            &totals,
            &spans,
            &host_before,
            &host_after,
        )
    } else {
        let totals = run_epochs(info, cfg, seconds, &mut Spans::new(false), false);
        let host_after = HostProbe::measure(probe_scale);
        report_untraced(info, cfg, &totals, &host_before, &host_after)
    };
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{name}: {failed} op(s) failed their oracle");
        ExitCode::FAILURE
    })
}

fn write_trace(path: &Path, workload: &str, spans: &Spans) -> Result<(), String> {
    std::fs::write(path, spans.to_chrome_trace(workload, TRACE_FILE_SPANS))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn report_untraced(
    info: &WorkloadInfo,
    cfg: Config,
    t: &Totals,
    host_before: &HostProbe,
    host_after: &HostProbe,
) -> u64 {
    let ops = sorted(&t.op_ms[0]);
    let e2e = [
        ("setup_s", stats::median(&t.setup_s)),
        (
            "tasks_per_s",
            t.tasks as f64 / t.task_wall.as_secs_f64().max(f64::MIN_POSITIVE),
        ),
        // Mean over the run's runtime instances of each instance's median:
        // robust to a stalled op inside an instance, and not a coin toss
        // between the fast and the slow kind of instance.
        ("op_ms_p50", mean(&t.epoch_p50_ms)),
        ("op_ms_p90", quantile_sorted(&ops, 0.9)),
    ];
    let mut detail = vec![("peak_rss_mib", host::peak_rss_mib())];
    detail.extend(t.detail.means());
    let tail = highest_supported_percentile(ops.len());
    if let Some(p) = tail {
        detail.push(("op_ms_tail", quantile_sorted(&ops, p / 100.0)));
    }
    println!(
        "workload {}  seed {}  {} ops over {} runtime instance(s)",
        info.name,
        cfg.seed,
        ops.len(),
        t.setup_s.len()
    );
    print_metrics(&END_TO_END, &e2e);
    print_metrics(&WORKLOAD_METRICS, &detail);

    let pooled = Summary::of(&ops);
    let numbers = |v: &[f64]| Value::Array(v.iter().map(|x| num(*x)).collect());
    let detail_json = obj([
        (
            "workload_metrics",
            metric_map(with_units(&WORKLOAD_METRICS, &detail)),
        ),
        (
            "op_ms",
            obj([
                ("n", int(pooled.n as u64)),
                ("q1", num(pooled.q1)),
                ("median", num(pooled.median)),
                ("q3", num(pooled.q3)),
                ("tail_percentile", num(tail.unwrap_or(0.0))),
            ]),
        ),
        ("epoch_p50_ms", numbers(&t.epoch_p50_ms)),
        ("setups_s", numbers(&t.setup_s)),
        ("workers", int(info.workers as u64)),
        ("host", host_json(host_before, host_after)),
    ]);
    println!(
        "{DETAIL_PREFIX}{}",
        serde_json::to_string(&detail_json).expect("JSON writes")
    );
    print_result(
        ops.len(),
        t.failed,
        metric_map(with_units(&END_TO_END, &e2e)),
    );
    t.failed
}

fn host_json(before: &HostProbe, after: &HostProbe) -> Value {
    let probe = |p: &HostProbe| {
        obj([
            ("spin_1t_ms", num(p.spin_1t_ms)),
            ("spin_2t_ms", num(p.spin_2t_ms)),
            ("par_speedup_2t", num(p.par_speedup_2t())),
        ])
    };
    obj([
        ("before", probe(before)),
        ("after", probe(after)),
        ("drift", num(before.drift_to(after))),
    ])
}

fn report_traced(
    info: &WorkloadInfo,
    cfg: Config,
    cells: &[(&'static str, f64)],
    t: &Totals,
    spans: &Spans,
    host_before: &HostProbe,
    host_after: &HostProbe,
) -> u64 {
    let [plain, spanned] = &t.op_ms;
    let self_ms = spans.self_time_ns().map(|ns| ns as f64 / 1e6);

    let mut layer: Vec<(&str, f64)> = PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
    let mut set = |name: &str, value: f64| match layer.iter_mut().find(|(n, _)| *n == name) {
        Some(slot) => slot.1 = value,
        None => panic!("{name} is missing from metrics::PER_LAYER"),
    };
    for (name, value) in cells.iter().chain(&t.layer.means()) {
        set(name, *value);
    }
    for (l, value) in Layer::ALL.into_iter().zip(self_ms) {
        set(&format!("selftime.{}_ms", l.name()), value);
    }
    // What the spans account for, against the same wall timed from
    // outside them.
    set("bench.traced_wall_ms", t.traced_wall_ms);
    set(
        "bench.selftime_coverage_pct",
        spans.root_ns() as f64 / 1e6 / t.traced_wall_ms * 100.0,
    );
    set(
        "bench.trace_overhead_pct",
        (stats::median(spanned) / stats::median(plain) - 1.0) * 100.0,
    );
    set(
        "host.spin_1t_ms",
        (host_before.spin_1t_ms + host_after.spin_1t_ms) / 2.0,
    );
    set(
        "host.spin_2t_ms",
        (host_before.spin_2t_ms + host_after.spin_2t_ms) / 2.0,
    );
    set(
        "host.par_speedup_2t",
        (host_before.par_speedup_2t() + host_after.par_speedup_2t()) / 2.0,
    );
    set("host.drift_pct", host_before.drift_to(host_after) * 100.0);

    println!(
        "workload {}  seed {}  traced: {} spanned + {} plain ops over {} runtime instance(s), {} spans",
        info.name,
        cfg.seed,
        spanned.len(),
        plain.len(),
        t.setup_s.len(),
        spans.spans().len()
    );
    print_metrics(&PER_LAYER, &layer);
    print_result(
        t.ops(),
        t.failed,
        metric_map(with_units(&PER_LAYER, &layer)),
    );
    t.failed
}
