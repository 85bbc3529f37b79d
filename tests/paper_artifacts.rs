//! The paper's evaluation, regenerated and checked: every simulated table
//! and figure under `experiments/` is a view of one strong-scaling sweep
//! per benchmark and runtime on the simulated node, and `metg.txt` of one
//! grain sweep per Task Bench shape; each is rendered in memory and
//! compared byte for byte with the committed file. Beside the check sit
//! the shape assertions the reproduction rests on (shape, not absolute
//! numbers — DESIGN.md §3).
//!
//! ```text
//! cargo test --release --test paper_artifacts
//! ```
//!
//! A file that no longer matches is written to
//! `target/tmp/experiments/<name>` and the test fails naming it, with the
//! `cp` line that accepts a deliberate model change.

use std::fmt::Write as _;
use std::fs;
use std::io::ErrorKind;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

use rpx::inncabs::{Benchmark, Granularity, InputScale, PaperScaling};
use rpx::simnode::{
    scaling_sweep, simulate, HpxCostModel, MachineConfig, SimConfig, SimResult, SimRuntimeKind,
    StdCostModel, TaskGraph,
};
use rpx::tools::{intrinsic_counters_overhead_pct, RunSummary, ToolModel};
use rpx_taskbench::{grain_ladder, simulated_metg, Backend, MetgBound, Rung, Shape, SimBackend};
use serde::Serialize;

// ---------------------------------------------------------------------------
// The sweeps: one graph and two strong-scaling sweeps per benchmark.
// ---------------------------------------------------------------------------

/// Core counts of the paper's strong-scaling experiments.
const CORE_COUNTS: [u32; 11] = [1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20];

/// `(cores, result)` in [`CORE_COUNTS`] order; a failed run keeps its
/// failure record.
type Sweep = [(u32, SimResult)];

/// One benchmark's graph and its sweeps on both runtimes. Every artefact
/// and every paper-scale assertion reads these.
struct Sweeps {
    benchmark: Benchmark,
    graph: TaskGraph,
    hpx: Vec<(u32, SimResult)>,
    /// The thread-per-task runtime with [`scaled_std_runtime`]'s limit.
    std: Vec<(u32, SimResult)>,
}

impl Sweeps {
    fn run(benchmark: Benchmark, scale: InputScale) -> Self {
        let graph = benchmark.sim_graph(scale);
        let sweep = |runtime| {
            let base = SimConfig {
                runtime,
                ..SimConfig::hpx(1)
            };
            scaling_sweep(&graph, &base, &CORE_COUNTS)
        };
        let hpx = sweep(SimRuntimeKind::hpx());
        let std = sweep(scaled_std_runtime(benchmark, graph.len()));
        Sweeps {
            benchmark,
            graph,
            hpx,
            std,
        }
    }

    fn name(&self) -> &'static str {
        self.benchmark.entry().name
    }
}

/// Every benchmark's sweeps at `scale`, in [`Benchmark::ALL`] order,
/// computed once per test binary (benchmarks in parallel).
fn sweeps(scale: InputScale) -> &'static [Sweeps] {
    static PAPER: OnceLock<Vec<Sweeps>> = OnceLock::new();
    static TEST: OnceLock<Vec<Sweeps>> = OnceLock::new();
    let cache = match scale {
        InputScale::Paper => &PAPER,
        InputScale::Test => &TEST,
    };
    cache.get_or_init(|| {
        let next = AtomicUsize::new(0);
        let workers = thread::available_parallelism().map_or(1, |n| n.get());
        let mut done: Vec<(usize, Sweeps)> = thread::scope(|s| {
            let handles: Vec<_> = (0..workers.min(Benchmark::ALL.len()))
                .map(|_| {
                    s.spawn(|| {
                        let mut mine = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&b) = Benchmark::ALL.get(i) else {
                                return mine;
                            };
                            mine.push((i, Sweeps::run(b, scale)));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("sweep worker panicked"))
                .collect()
        });
        done.sort_by_key(|(i, _)| *i);
        done.into_iter().map(|(_, s)| s).collect()
    })
}

fn paper(benchmark: Benchmark) -> &'static Sweeps {
    of(sweeps(InputScale::Paper), benchmark)
}

fn of(sweeps: &[Sweeps], benchmark: Benchmark) -> &Sweeps {
    sweeps
        .iter()
        .find(|s| s.benchmark == benchmark)
        .expect("every benchmark is swept")
}

fn point(sweep: &Sweep, cores: u32) -> &SimResult {
    &sweep
        .iter()
        .find(|(c, _)| *c == cores)
        .expect("core count is swept")
        .1
}

/// Execution time at `cores`, if that run completed.
fn time_at(sweep: &Sweep, cores: u32) -> Option<u64> {
    let r = point(sweep, cores);
    r.completed().then_some(r.makespan_ns)
}

/// Speedup at `cores` relative to one core.
fn speedup_at(sweep: &Sweep, cores: u32) -> Option<f64> {
    Some(time_at(sweep, 1)? as f64 / time_at(sweep, cores)? as f64)
}

fn any_failed(sweep: &Sweep) -> bool {
    sweep.iter().any(|(_, r)| !r.completed())
}

/// Table V's "scales to N" classification: the largest core count that
/// still improves execution time by at least 2 % over the previous
/// completed one. `None` when no core count completed.
fn scaling_limit(sweep: &Sweep) -> Option<u32> {
    if sweep.iter().all(|(_, r)| !r.completed()) {
        return None;
    }
    let mut limit = 1;
    let mut prev: Option<u64> = None;
    for (cores, r) in sweep.iter().filter(|(_, r)| r.completed()) {
        if prev.is_some_and(|pt| (r.makespan_ns as f64) < pt as f64 * 0.98) {
            limit = *cores;
        }
        prev = Some(r.makespan_ns);
    }
    Some(limit)
}

/// Estimated full-scale task counts for benchmarks whose Table I rows do
/// not list one (derived from the input sizes the Inncabs paper uses).
fn paper_tasks_full(b: Benchmark) -> u64 {
    b.entry().paper_tasks.unwrap_or(match b {
        Benchmark::Fib => 2_700_000,     // fib(30) call tree
        Benchmark::NQueens => 1_500_000, // n=13 search tree
        Benchmark::Qap => 30_000,        // the smallest input (paper §V-D)
        Benchmark::Uts => 4_000_000,     // the T1 geometric tree
        _ => 100_000,
    })
}

/// The thread-per-task runtime with its live-thread limit scaled by the
/// benchmark's input scale-down factor: our graphs are K× smaller than the
/// paper's inputs, so the paper's ~90k-thread cliff sits at 90k/K — with a
/// 15 % headroom (the cliff is approximate; the paper itself reports
/// cliff-edge benchmarks like Strassen as "some fail") and a floor that
/// keeps tiny graphs meaningful. Tables I/V and the figures all use it, so
/// the std series stop exactly where the paper's curves do.
fn scaled_std_runtime(b: Benchmark, graph_len: usize) -> SimRuntimeKind {
    let ratio = graph_len as f64 / paper_tasks_full(b) as f64;
    let limit = ((90_000.0 * ratio * 1.15) as u32).clamp(1_000, 90_000);
    SimRuntimeKind::ThreadPerTask {
        cost: StdCostModel {
            max_live_threads: limit,
            ..StdCostModel::default()
        },
    }
}

/// One HPX-like run off the default cost model, for the comparisons that
/// are not a point of the sweeps.
fn hpx_with(graph: &TaskGraph, cores: u32, tweak: impl FnOnce(&mut HpxCostModel)) -> SimResult {
    let mut cost = HpxCostModel::default();
    tweak(&mut cost);
    let config = SimConfig {
        runtime: SimRuntimeKind::Hpx {
            cost,
            global_queue: false,
        },
        ..SimConfig::hpx(cores)
    };
    simulate(graph, &config)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

// ---------------------------------------------------------------------------
// The artefacts: views of the sweeps.
// ---------------------------------------------------------------------------

/// The Table III-style platform header every text artefact leads with.
fn platform_header() -> String {
    format!(
        "# {}\n# runtimes: hpx-like (work stealing, lightweight tasks) vs \
         std-async (one OS thread per task)\n",
        MachineConfig::ivy_bridge_2s10c().describe()
    )
}

/// One row of Table I: external tools on the thread-per-task run at full
/// concurrency (the std sweep's 20-core point).
#[derive(Debug, Serialize)]
struct Table1Row {
    /// Benchmark name.
    name: String,
    /// Baseline (uninstrumented std-async) cell: time or Abort.
    baseline: String,
    /// Tasks the baseline executed (when it completed).
    tasks: Option<u64>,
    /// TAU cell.
    tau: String,
    /// HPCToolkit cell.
    hpctoolkit: String,
    /// Intrinsic-counter overhead (the paper's ≤10 % / ≤16 % comparison).
    intrinsic_pct: f64,
}

fn table1(sweeps: &[Sweeps]) -> Vec<Table1Row> {
    sweeps
        .iter()
        .map(|s| {
            let e = s.benchmark.entry();
            let run = RunSummary::from_sim(point(&s.std, 20));
            let baseline = if run.completed {
                format!("{:.0} ms", run.time_ns as f64 / 1e6)
            } else {
                "Abort".into()
            };
            Table1Row {
                name: e.name.to_owned(),
                baseline,
                tasks: run.completed.then_some(run.tasks),
                tau: ToolModel::tau_64k().apply(&run).cell(),
                hpctoolkit: ToolModel::hpctoolkit().apply(&run).cell(),
                intrinsic_pct: intrinsic_counters_overhead_pct(
                    e.paper_task_duration_us * 1_000.0,
                    false,
                ),
            }
        })
        .collect()
}

fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:>14} {:>10} {:>20} {:>20} {:>12}\n",
        "benchmark", "baseline", "tasks", "TAU", "HPCToolkit", "intrinsic"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:>14} {:>10} {:>20} {:>20} {:>11.2}%\n",
            r.name,
            r.baseline,
            r.tasks
                .map(|t| t.to_string())
                .unwrap_or_else(|| "n/a".into()),
            r.tau,
            r.hpctoolkit,
            r.intrinsic_pct
        ));
    }
    out
}

/// Does Table I reproduce the paper's qualitative claims?
fn qualitative_claims_hold(rows: &[Table1Row]) -> Result<(), String> {
    let row = |name: &str| rows.iter().find(|r| r.name == name).unwrap();
    // 1. The baseline itself aborts on the thread-hungry benchmarks.
    for name in ["fib", "health", "uts", "nqueens"] {
        if row(name).baseline != "Abort" {
            return Err(format!(
                "{name} baseline should Abort, got {}",
                row(name).baseline
            ));
        }
    }
    // 2. Neither external tool produces a usable measurement for any
    //    fine-grained benchmark; intrinsic counters stay ≤ 10 %.
    for r in rows {
        if r.intrinsic_pct > 10.0 {
            return Err(format!(
                "{}: intrinsic overhead {}% > 10%",
                r.name, r.intrinsic_pct
            ));
        }
    }
    // 3. On the coarse loop-like benchmarks the tools "work" only with
    //    orders-of-magnitude overhead or crash outright.
    let alignment = row("alignment");
    if !(alignment.tau.contains('%') || alignment.tau == "SegV") {
        return Err(format!("alignment TAU cell unexpected: {}", alignment.tau));
    }
    Ok(())
}

/// One row of Table V: classification, the 1-core task duration (the
/// `/threads/time/average` analogue on the hpx sweep's 1-core point) and
/// both runtimes' scaling limits.
#[derive(Debug, Serialize)]
struct Table5Row {
    /// Benchmark name.
    name: String,
    /// Structure class label.
    structure: String,
    /// Synchronization column.
    synchronization: String,
    /// Measured average task duration on one core, µs.
    task_duration_us: f64,
    /// Granularity classification of the measured duration.
    granularity: String,
    /// Paper's task duration, µs (for side-by-side comparison).
    paper_task_duration_us: f64,
    /// Measured std-async scaling limit (`None` = fails).
    std_scaling: Option<u32>,
    /// Measured hpx scaling limit.
    hpx_scaling: Option<u32>,
    /// Paper's reported scaling for std / hpx (rendered).
    paper_std: String,
    paper_hpx: String,
}

fn render_paper_scaling(p: PaperScaling) -> String {
    match p {
        PaperScaling::To(n) => format!("to {n}"),
        PaperScaling::Fail => "fail".into(),
        PaperScaling::NoScaling => "no scaling".into(),
    }
}

fn table5(sweeps: &[Sweeps]) -> Vec<Table5Row> {
    sweeps
        .iter()
        .map(|s| {
            let e = s.benchmark.entry();
            let one = point(&s.hpx, 1);
            Table5Row {
                name: e.name.to_owned(),
                structure: e.structure.label().to_owned(),
                synchronization: e.synchronization.to_owned(),
                task_duration_us: one.avg_task_ns() / 1_000.0,
                granularity: Granularity::classify(one.avg_task_ns()).label().to_owned(),
                paper_task_duration_us: e.paper_task_duration_us,
                std_scaling: if any_failed(&s.std) {
                    None
                } else {
                    scaling_limit(&s.std)
                },
                hpx_scaling: scaling_limit(&s.hpx),
                paper_std: render_paper_scaling(e.paper_std_scaling),
                paper_hpx: render_paper_scaling(e.paper_hpx_scaling),
            }
        })
        .collect()
}

fn render_table5(rows: &[Table5Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:<21} {:<17} {:>12} {:>12} {:<10} {:>9} {:>9} {:>10} {:>10}\n",
        "benchmark",
        "structure",
        "synchronization",
        "dur µs (sim)",
        "dur µs (ppr)",
        "granularity",
        "std(sim)",
        "hpx(sim)",
        "std(ppr)",
        "hpx(ppr)"
    ));
    for r in rows {
        let fmt_limit = |l: Option<u32>| match l {
            Some(n) => format!("to {n}"),
            None => "fail".into(),
        };
        out.push_str(&format!(
            "{:<10} {:<21} {:<17} {:>12.2} {:>12.2} {:<10} {:>9} {:>9} {:>10} {:>10}\n",
            r.name,
            r.structure,
            r.synchronization,
            r.task_duration_us,
            r.paper_task_duration_us,
            r.granularity,
            fmt_limit(r.std_scaling),
            fmt_limit(r.hpx_scaling),
            r.paper_std,
            r.paper_hpx
        ));
    }
    out
}

/// The simulated sections of Table IV's configuration comparisons:
/// hyper-threading, allocator and steal cost (DESIGN.md §7 ablation 4).
/// The numbering is the synopsis's own; sections 1 and 4 time the native
/// runtime, which is `rpx-benchmark`'s job.
fn render_tableiv(sweeps: &[Sweeps]) -> String {
    let mut out = platform_header();
    out.push_str("\nTable IV — experiment synopsis (configuration comparisons)\n\n");

    // The paper found "small change in performance" and disabled HT.
    out.push_str("2. Hyper-threading (simulated node):\n");
    for b in [Benchmark::Alignment, Benchmark::Fft] {
        let s = of(sweeps, b);
        let off = point(&s.hpx, 20);
        let on = simulate(
            &s.graph,
            &SimConfig {
                machine: MachineConfig::ivy_bridge_2s10c_ht(),
                ..SimConfig::hpx(40)
            },
        );
        writeln!(
            out,
            "   {:<10} HT off (20 threads): {:>9.1} ms   HT on (40 threads): {:>9.1} ms   delta {:>+6.1}%",
            s.name(),
            ms(off.makespan_ns),
            ms(on.makespan_ns),
            (on.makespan_ns as f64 / off.makespan_ns as f64 - 1.0) * 100.0
        )
        .unwrap();
    }

    // Serialized allocation cost: the default model's 50 ns admission is
    // the tcmalloc-like allocator the paper builds HPX against.
    out.push_str("\n3. Allocator (simulated, fib at 16 cores):\n");
    let fib = of(sweeps, Benchmark::Fib);
    let system = hpx_with(&fib.graph, 16, |c| c.spawn_serial_ns = 160);
    for (label, r) in [
        ("tcmalloc-like", point(&fib.hpx, 16)),
        ("system-malloc-like", &system),
    ] {
        writeln!(out, "   {:<20} {:>9.1} ms", label, ms(r.makespan_ns)).unwrap();
    }

    out.push_str("\n5. Steal-cost sensitivity (simulated, UTS at 8 cores):\n");
    let uts = of(sweeps, Benchmark::Uts);
    let default = HpxCostModel::default().steal_ns;
    for steal_ns in [300, default, 6_000] {
        let makespan = if steal_ns == default {
            point(&uts.hpx, 8).makespan_ns
        } else {
            hpx_with(&uts.graph, 8, |c| c.steal_ns = steal_ns).makespan_ns
        };
        writeln!(out, "   steal_ns {steal_ns:>5} {:>9.3} ms", ms(makespan)).unwrap();
    }
    out
}

/// One plotted series: a label and (cores, value) points.
#[derive(Debug, Serialize)]
struct Series {
    /// Legend label.
    label: String,
    /// Unit of the values (ms, GB/s, …).
    unit: &'static str,
    /// Points in core order; `None` marks a failed run (the paper's
    /// missing std points).
    points: Vec<(u32, Option<f64>)>,
}

/// A regenerated figure.
#[derive(Debug, Serialize)]
struct Figure {
    /// Paper figure number (1–14).
    id: u32,
    /// Title.
    title: String,
    /// Which benchmark it plots.
    benchmark: String,
    /// The series.
    series: Vec<Series>,
}

#[derive(Debug, Clone, Copy)]
enum FigureKind {
    /// Execution time, both runtimes (Figs. 1–7).
    ExecTime,
    /// Overhead decomposition, HPX runtime (Figs. 8–12).
    Overheads,
    /// Off-core bandwidth, HPX runtime (Figs. 13–14).
    Bandwidth,
}

/// (benchmark, kind) of Figures 1–14, in order.
const ALL_FIGURES: [(Benchmark, FigureKind); 14] = [
    (Benchmark::Alignment, FigureKind::ExecTime),
    (Benchmark::Pyramids, FigureKind::ExecTime),
    (Benchmark::Strassen, FigureKind::ExecTime),
    (Benchmark::Sort, FigureKind::ExecTime),
    (Benchmark::Fft, FigureKind::ExecTime),
    (Benchmark::Uts, FigureKind::ExecTime),
    (Benchmark::Intersim, FigureKind::ExecTime),
    (Benchmark::Alignment, FigureKind::Overheads),
    (Benchmark::Pyramids, FigureKind::Overheads),
    (Benchmark::Strassen, FigureKind::Overheads),
    (Benchmark::Fft, FigureKind::Overheads),
    (Benchmark::Uts, FigureKind::Overheads),
    (Benchmark::Alignment, FigureKind::Bandwidth),
    (Benchmark::Pyramids, FigureKind::Bandwidth),
];

/// Figure `id` (1–14) as a slice of its benchmark's sweeps.
fn figure(sweeps: &[Sweeps], id: u32) -> Figure {
    let (benchmark, kind) = ALL_FIGURES[id as usize - 1];
    let s = of(sweeps, benchmark);
    let name = s.name();
    let series = |label: &str, unit, points| Series {
        label: label.to_owned(),
        unit,
        points,
    };
    let per_point = |sweep: &Sweep, value: &dyn Fn(&SimResult) -> f64| {
        sweep
            .iter()
            .map(|(c, r)| (*c, r.completed().then(|| value(r))))
            .collect()
    };
    let makespan_ms = |r: &SimResult| ms(r.makespan_ns);
    let (title, series) = match kind {
        FigureKind::ExecTime => (
            format!("Execution time of {name} (HPX-like vs C++11 std)"),
            vec![
                series("hpx", "ms", per_point(&s.hpx, &makespan_ms)),
                series("std-async", "ms", per_point(&s.std, &makespan_ms)),
            ],
        ),
        FigureKind::Overheads => {
            let t1 = time_at(&s.hpx, 1).unwrap_or(0) as f64;
            let task_time_1 = point(&s.hpx, 1).total_exec_ns as f64;
            let ideal = |total: f64| {
                CORE_COUNTS
                    .iter()
                    .map(|&c| (c, Some(total / c as f64 / 1e6)))
                    .collect()
            };
            (
                format!("{name} overheads (exec vs ideal, task time/core, sched overhead/core)"),
                vec![
                    series("exec_time", "ms", per_point(&s.hpx, &makespan_ms)),
                    series("ideal_scaling", "ms", ideal(t1)),
                    series(
                        "task_time_per_core",
                        "ms",
                        per_point(&s.hpx, &|r| r.task_time_per_core_ns() / 1e6),
                    ),
                    series("ideal_task_time", "ms", ideal(task_time_1)),
                    series(
                        "sched_overhd_per_core",
                        "ms",
                        per_point(&s.hpx, &|r| r.sched_overhead_per_core_ns() / 1e6),
                    ),
                ],
            )
        }
        FigureKind::Bandwidth => (
            format!("{name} OFFCORE bandwidth (requests × 64 B / time)"),
            vec![series(
                "offcore_bw",
                "GB/s",
                per_point(&s.hpx, &SimResult::offcore_bandwidth_gbps),
            )],
        ),
    };
    Figure {
        id,
        title,
        benchmark: name.to_owned(),
        series,
    }
}

/// Render a figure as an aligned text table (cores × series).
fn render_figure(fig: &Figure) -> String {
    let mut out = String::new();
    out.push_str(&format!("Figure {}: {}\n", fig.id, fig.title));
    out.push_str(&format!("{:>6}", "cores"));
    for s in &fig.series {
        out.push_str(&format!(" {:>22}", format!("{} [{}]", s.label, s.unit)));
    }
    out.push('\n');
    for (i, &c) in CORE_COUNTS.iter().enumerate() {
        out.push_str(&format!("{c:>6}"));
        for s in &fig.series {
            match s.points.get(i).and_then(|p| p.1) {
                Some(v) => out.push_str(&format!(" {v:>22.3}")),
                None => out.push_str(&format!(" {:>22}", "fail")),
            }
        }
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// METG: one grain sweep per Task Bench shape.
// ---------------------------------------------------------------------------

/// One (shape × runtime × workers) cell of the METG sweep.
struct MetgCell {
    shape: Shape,
    backend: &'static str,
    workers: usize,
    rungs: Vec<Rung>,
    metg: MetgBound,
}

/// Every shape family at its default size (the random one seeded) on both
/// simulated runtimes at one core, two and the whole node, down one ladder
/// from 100 µs to 1 µs; computed once per test binary.
fn metg_cells() -> &'static [MetgCell] {
    static CELLS: OnceLock<Vec<MetgCell>> = OnceLock::new();
    CELLS.get_or_init(|| {
        let ladder = grain_ladder(1_000, 100_000, 6);
        let mut cells = Vec::new();
        for family in Shape::FAMILIES {
            let shape = Shape::with_defaults(family).expect("a known family");
            for backend in [SimBackend::hpx(), SimBackend::std_async()] {
                for workers in [1, 2, 20] {
                    let (rungs, metg) = simulated_metg(&backend, shape, 0x5eed, workers, &ladder);
                    cells.push(MetgCell {
                        shape,
                        backend: backend.name(),
                        workers,
                        rungs,
                        metg,
                    });
                }
            }
        }
        cells
    })
}

/// Each cell's efficiency curve and METG verdict, then a summary.
fn render_metg(cells: &[MetgCell]) -> String {
    let mut out = platform_header();
    out.push_str(
        "METG(50 %) — minimum effective task granularity (Task Bench): eff = \
         max(W/P, T∞) / virtual wall,\nenv = running minimum of eff from the \
         coarsest grain; METG is read where env crosses 50 %\n",
    );
    for c in cells {
        write!(
            out,
            "\n-- {} x {} x {} worker(s): {} tasks --\n    grain_ns       wall_ns     eff     env\n",
            c.shape.name(),
            c.backend,
            c.workers,
            c.shape.task_count(),
        )
        .unwrap();
        for r in &c.rungs {
            match &r.run {
                Ok(run) => writeln!(
                    out,
                    "  {:>10}  {:>12}  {:>5.1}%  {:>5.1}%",
                    r.grain_ns,
                    run.wall_ns,
                    run.efficiency() * 100.0,
                    r.efficiency_env * 100.0
                ),
                Err(e) => writeln!(out, "  {:>10}  failed: {e}", r.grain_ns),
            }
            .unwrap();
        }
        writeln!(out, "  METG: {}", c.metg).unwrap();
    }
    out.push_str("\n== METG summary (efficiency floor 50%) ==\n");
    for c in cells {
        writeln!(
            out,
            "  {:<10} {:<9} {:>3}w  METG {}",
            c.shape.name(),
            c.backend,
            c.workers,
            c.metg
        )
        .unwrap();
    }
    out
}

/// Every file under `experiments/`, by name, rendered from `sweeps` and
/// the METG sweep.
fn artifacts(sweeps: &[Sweeps]) -> Vec<(String, String)> {
    let header = format!("{}\n", platform_header());
    let t1 = table1(sweeps);
    let verdict = match qualitative_claims_hold(&t1) {
        Ok(()) => "qualitative claims of the paper's Table I hold ✓".to_owned(),
        Err(e) => format!("WARNING: {e}"),
    };
    let t5 = table5(sweeps);
    let figures: Vec<Figure> = (1..=14).map(|id| figure(sweeps, id)).collect();

    let mut files = vec![
        (
            "table1.txt".to_owned(),
            format!(
                "{header}Table I — external performance tools on thread-per-task runs \
                 (Paper scale)\n\n{}\n{verdict}\n",
                render_table1(&t1)
            ),
        ),
        ("table1.json".to_owned(), json(&t1)),
        (
            "table5.txt".to_owned(),
            format!(
                "{header}Table V — benchmark classification and granularity (Paper scale)\n\n{}",
                render_table5(&t5)
            ),
        ),
        ("table5.json".to_owned(), json(&t5)),
        ("tableiv.txt".to_owned(), render_tableiv(sweeps)),
        (
            "figures.txt".to_owned(),
            figures.iter().fold(header, |mut out, f| {
                out.push_str(&render_figure(f));
                out.push('\n');
                out
            }),
        ),
    ];
    files.extend(
        figures
            .iter()
            .map(|f| (format!("figure{:02}.json", f.id), json(f))),
    );
    files.push(("metg.txt".to_owned(), render_metg(metg_cells())));
    files
}

fn json(value: &impl Serialize) -> String {
    serde_json::to_string_pretty(value).expect("artefacts serialize")
}

// ---------------------------------------------------------------------------
// The check.
// ---------------------------------------------------------------------------

#[test]
fn committed_experiments_match_a_fresh_regeneration() {
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("experiments");
    let regenerated = Path::new(env!("CARGO_TARGET_TMPDIR")).join("experiments");
    match fs::remove_dir_all(&regenerated) {
        Err(e) if e.kind() != ErrorKind::NotFound => panic!("clearing {regenerated:?}: {e}"),
        _ => {}
    }

    let files = artifacts(sweeps(InputScale::Paper));
    let mut moved = Vec::new();
    for (name, text) in &files {
        if fs::read_to_string(committed.join(name)).ok().as_deref() != Some(text.as_str()) {
            fs::create_dir_all(&regenerated).expect("create the regeneration directory");
            let path = regenerated.join(name);
            fs::write(&path, text).expect("write the regenerated artefact");
            moved.push(format!("  cp {} experiments/{name}", path.display()));
        }
    }
    assert!(
        moved.is_empty(),
        "{} of {} artefacts under experiments/ differ from a fresh regeneration \
         (written to {}); if the model change is deliberate, accept each with\n{}",
        moved.len(),
        files.len(),
        regenerated.display(),
        moved.join("\n"),
    );

    let stray: Vec<String> = fs::read_dir(&committed)
        .expect("experiments/ is readable")
        .map(|e| e.expect("directory entry").file_name())
        .filter(|name| files.iter().all(|(f, _)| name.as_os_str() != f.as_str()))
        .map(|name| name.to_string_lossy().into_owned())
        .collect();
    assert!(
        stray.is_empty(),
        "files under experiments/ that no artefact produces: {stray:?}"
    );
}

// ---------------------------------------------------------------------------
// The tables and figures over paper-scale data.
// ---------------------------------------------------------------------------

#[test]
fn table1_qualitative_claims_hold() {
    qualitative_claims_hold(&table1(sweeps(InputScale::Paper))).unwrap();
}

#[test]
fn qap_completes_like_the_paper() {
    // The paper ran QAP only with its smallest input — it completes.
    let rows = table1(sweeps(InputScale::Paper));
    let qap = rows.iter().find(|r| r.name == "qap").unwrap();
    assert_ne!(
        qap.baseline, "Abort",
        "QAP should complete: {}",
        qap.baseline
    );
}

#[test]
fn coarse_rows_classify_coarse() {
    let rows = table5(sweeps(InputScale::Paper));
    for r in rows
        .iter()
        .filter(|r| ["alignment", "round", "sparselu"].contains(&r.name.as_str()))
    {
        assert_eq!(r.granularity, "coarse", "{}", r.name);
    }
}

#[test]
fn fig1_alignment_both_runtimes_scale() {
    let fig = figure(sweeps(InputScale::Paper), 1);
    for s in &fig.series {
        let t1 = s.points[0].1.unwrap();
        let t20 = s.points.last().unwrap().1.unwrap();
        assert!(
            t20 < t1 / 3.0,
            "{}: coarse tasks must scale (t1={t1:.1}ms t20={t20:.1}ms)",
            s.label
        );
    }
}

#[test]
fn fig5_fft_std_much_slower() {
    let fig = figure(sweeps(InputScale::Paper), 5);
    let (hpx, std) = (&fig.series[0], &fig.series[1]);
    let (h, s) = (hpx.points[2].1.unwrap(), std.points[2].1.unwrap());
    assert!(
        s > 3.0 * h,
        "std ({s:.2}ms) should be ≫ hpx ({h:.2}ms) on very fine tasks"
    );
}

#[test]
fn overheads_figure_has_five_series() {
    let fig = figure(sweeps(InputScale::Paper), 8);
    assert_eq!(fig.series.len(), 5);
    let labels: Vec<&str> = fig.series.iter().map(|s| s.label.as_str()).collect();
    assert!(labels.contains(&"ideal_scaling"));
    assert!(labels.contains(&"sched_overhd_per_core"));
}

#[test]
fn bandwidth_grows_with_cores_for_alignment() {
    let fig = figure(sweeps(InputScale::Paper), 13);
    let bw = &fig.series[0];
    let (b1, b10) = (bw.points[0].1.unwrap(), bw.points[5].1.unwrap());
    assert!(
        b10 > b1,
        "bandwidth should grow with cores: {b1:.2} → {b10:.2} GB/s"
    );
}

#[test]
fn coarse_benchmark_scales_far_on_hpx() {
    let sweep = &paper(Benchmark::Alignment).hpx;
    assert!(!any_failed(sweep));
    let limit = scaling_limit(sweep).unwrap();
    assert!(
        limit >= 4,
        "alignment should scale past 4 cores, limit={limit}"
    );
    let s = speedup_at(sweep, limit).unwrap();
    assert!(s > 2.0, "speedup {s:.2} too small at {limit} cores");
}

#[test]
fn very_fine_benchmark_scales_worse_than_coarse() {
    let fine = &paper(Benchmark::Fib).hpx;
    let coarse = &paper(Benchmark::Round).hpx;
    let fine_speed = speedup_at(fine, 20).unwrap_or(1.0);
    let coarse_speed = speedup_at(coarse, 20).unwrap_or(1.0);
    // Round (coarse, 8 players) has limited width too, so compare
    // efficiency at 4 cores instead of absolute speedups at 20.
    let fine4 = speedup_at(fine, 4).unwrap_or(1.0);
    let coarse4 = speedup_at(coarse, 4).unwrap_or(1.0);
    assert!(
        coarse4 >= fine4 * 0.8 || coarse_speed >= fine_speed * 0.8,
        "coarse should not scale categorically worse (fine4={fine4:.2}, coarse4={coarse4:.2})"
    );
}

#[test]
fn scaling_limit_of_flat_series_is_one() {
    // A sweep with identical times everywhere scales "to 1".
    let sweep: Vec<(u32, SimResult)> = CORE_COUNTS
        .iter()
        .map(|&c| {
            let r = SimResult {
                makespan_ns: 1_000_000,
                cores: c,
                tasks_executed: 1,
                ..Default::default()
            };
            (c, r)
        })
        .collect();
    assert_eq!(scaling_limit(&sweep), Some(1));
}

/// The grains `[lower, upper]` in ns a METG verdict brackets.
fn metg_range(metg: MetgBound) -> (f64, f64) {
    match metg {
        MetgBound::Crossing { ns } => (ns, ns),
        MetgBound::AtMost { ns } => (0.0, ns as f64),
        MetgBound::Above { ns } => (ns as f64, f64::INFINITY),
    }
}

#[test]
fn thread_per_task_metg_exceeds_work_stealing_metg_in_every_cell() {
    // EXPERIMENTS §METG: lightweight tasks stay efficient at grains where
    // one OS thread per task does not — by at least 5× below the socket
    // boundary, and still strictly on the whole node.
    let cells = metg_cells();
    for hpx in cells.iter().filter(|c| c.backend == "sim-hpx") {
        let std = cells
            .iter()
            .find(|c| c.backend == "sim-std" && c.shape == hpx.shape && c.workers == hpx.workers)
            .expect("both runtimes sweep every cell");
        let factor = if hpx.workers <= 2 { 5.0 } else { 1.0 };
        let (std_lower, hpx_upper) = (metg_range(std.metg).0, metg_range(hpx.metg).1);
        assert!(
            std_lower > hpx_upper && std_lower >= factor * hpx_upper,
            "{} x {}w: sim-std METG {} is not {factor}x sim-hpx METG {}",
            hpx.shape.name(),
            hpx.workers,
            std.metg,
            hpx.metg
        );
    }
}

// ---------------------------------------------------------------------------
// Shape assertions (DESIGN.md §3).
// ---------------------------------------------------------------------------

#[test]
fn fine_grained_hpx_dominates_std_across_the_suite() {
    // §VI: for every very-fine benchmark that the baseline completes at
    // all, the lightweight runtime is much faster at 8 cores.
    for b in [
        Benchmark::Fib,
        Benchmark::Fft,
        Benchmark::Uts,
        Benchmark::Health,
    ] {
        let g = b.sim_graph(InputScale::Test);
        let hpx = simulate(&g, &SimConfig::hpx(8));
        assert!(hpx.completed());
        // The virtual-time simulator is deterministic: every comparison in
        // this file rests on one sample per side because of it.
        assert_eq!(
            simulate(&g, &SimConfig::hpx(8)).makespan_ns,
            hpx.makespan_ns,
            "{}: same graph and config must give the same makespan",
            b.entry().name,
        );
        let std = simulate(&g, &SimConfig::std_async(8));
        if !std.completed() {
            continue; // the paper's Abort/SegV rows: baseline never finishes
        }
        let ratio = std.makespan_ns as f64 / hpx.makespan_ns as f64;
        assert!(
            ratio > 3.0,
            "{}: std/hpx ratio {ratio:.2} should be ≫ 1",
            b.entry().name,
        );
    }
}

#[test]
fn coarse_grained_benchmarks_tie_between_runtimes() {
    // Figs. 1-family: Alignment/SparseLU/Round behave similarly on both.
    for b in [Benchmark::Alignment, Benchmark::Round] {
        let g = b.sim_graph(InputScale::Test);
        let ratio = simulate(&g, &SimConfig::std_async(8)).makespan_ns as f64
            / simulate(&g, &SimConfig::hpx(8)).makespan_ns as f64;
        assert!(
            ratio < 1.5,
            "{}: coarse tasks should tie (std/hpx = {ratio:.2})",
            b.entry().name
        );
    }
}

#[test]
fn task_overhead_is_sub_microsecond_like_the_paper() {
    // §VI: "task overheads … from 0.5µs to 1µs for these benchmarks".
    // Asserted as a ratio against the cost model's own per-task floor
    // (spawn + dispatch on a single core, where nothing can steal), not an
    // absolute nanosecond window: retuning the model moves both sides.
    let g = Benchmark::Fib.sim_graph(InputScale::Test);
    let floor = {
        let m = HpxCostModel::default();
        (m.spawn_ns + m.dispatch_ns) as f64
    };
    let ratio = simulate(&g, &SimConfig::hpx(1)).avg_overhead_ns() / floor;
    assert!(
        (0.8..2.0).contains(&ratio),
        "per-task overhead should sit near the model's spawn+dispatch floor \
         (measured/floor = {ratio:.2})"
    );
}

#[test]
fn very_fine_scaling_is_socket_limited() {
    // Figs. 5/6/11/12: very fine benchmarks stop scaling around the
    // socket boundary; coarse ones keep going. The boundary comes from the
    // machine model, not a magic constant.
    let fine_limit = scaling_limit(&paper(Benchmark::Uts).hpx).unwrap();
    let coarse_limit = scaling_limit(&paper(Benchmark::Alignment).hpx).unwrap();
    assert!(
        coarse_limit >= fine_limit,
        "coarse ({coarse_limit}) should scale at least as far as very fine ({fine_limit})"
    );
    let socket = MachineConfig::ivy_bridge_2s10c().cores_per_socket;
    assert!(
        coarse_limit > socket,
        "alignment should keep scaling past the {socket}-core socket, got {coarse_limit}"
    );
}

#[test]
fn alignment_speedup_matches_paper_factor() {
    // §VI: Alignment reaches speedup ≈17 on 20 cores — i.e. it stays well
    // above the 50% parallel-efficiency floor (the METG convention in
    // EXPERIMENTS.md) where the very-fine benchmarks have long fallen
    // through it. Efficiency ratios, not an absolute speedup window.
    let eff = |b: Benchmark| speedup_at(&paper(b).hpx, 20).unwrap() / 20.0;
    let (coarse_eff, fine_eff) = (eff(Benchmark::Alignment), eff(Benchmark::Uts));
    assert!(
        (0.5..=1.05).contains(&coarse_eff),
        "alignment efficiency at 20 cores: {coarse_eff:.2} (paper: 17/20 = 0.85)"
    );
    assert!(
        coarse_eff > fine_eff,
        "coarse efficiency {coarse_eff:.2} must beat very-fine {fine_eff:.2}"
    );
}

#[test]
fn overheads_track_execution_gap() {
    // Figs. 8–12: for coarse grain the exec time is almost all task time;
    // for very fine grain scheduling overhead is a significant share.
    let coarse = simulate(
        &Benchmark::Alignment.sim_graph(InputScale::Test),
        &SimConfig::hpx(4),
    );
    let fine = simulate(
        &Benchmark::Fib.sim_graph(InputScale::Test),
        &SimConfig::hpx(4),
    );
    let coarse_share = coarse.total_overhead_ns as f64 / coarse.total_exec_ns.max(1) as f64;
    let fine_share = fine.total_overhead_ns as f64 / fine.total_exec_ns.max(1) as f64;
    assert!(
        coarse_share < 0.01,
        "coarse overhead share {coarse_share:.4}"
    );
    assert!(fine_share > 0.2, "fine overhead share {fine_share:.4}");
}

#[test]
fn bandwidth_figures_saturate_at_the_socket_then_grow_across() {
    // Figs. 13–14: aggregate bandwidth grows with cores, limited by the
    // per-socket controllers.
    let fig = figure(sweeps(InputScale::Paper), 13);
    let bw = &fig.series[0];
    let at = |c: u32| {
        bw.points
            .iter()
            .find(|p| p.0 == c)
            .and_then(|p| p.1)
            .unwrap()
    };
    assert!(at(10) > at(1), "bandwidth must grow to the socket boundary");
    let cap = MachineConfig::ivy_bridge_2s10c().mem_bw_per_socket_gbps;
    assert!(
        at(10) <= cap * 1.2,
        "one socket cannot exceed its controllers"
    );
    assert!(
        at(20) >= at(10) * 0.8,
        "second socket must not collapse bandwidth"
    );
}

#[test]
fn floorplan_ordering_anomaly_global_vs_local_queues() {
    // §V-D: the std single queue explores the search in a different order
    // than per-worker queues. With a *fixed* task budget the graphs are
    // identical, and the simulated runtimes then differ only in scheduling
    // cost — the fairness device the paper applied.
    let g = Benchmark::Floorplan.sim_graph(InputScale::Test);
    let local = simulate(&g, &SimConfig::hpx(4));
    let mut cfg = SimConfig::hpx(4);
    if let SimRuntimeKind::Hpx { global_queue, .. } = &mut cfg.runtime {
        *global_queue = true;
    }
    let global = simulate(&g, &cfg);
    assert!(local.completed() && global.completed());
    assert_eq!(
        local.tasks_executed, global.tasks_executed,
        "budget fixes the task count"
    );
    // Local queues avoid the contention of one shared queue.
    assert!(local.makespan_ns <= global.makespan_ns * 11 / 10);
}

#[test]
fn table1_and_table5_regenerate_without_panicking() {
    let t1 = table1(sweeps(InputScale::Test));
    let t5 = table5(sweeps(InputScale::Test));
    assert_eq!(t1.len(), 14);
    assert_eq!(t5.len(), 14);
    for r in &t5 {
        assert!(r.task_duration_us > 0.0, "{} has zero duration", r.name);
    }
    // Spot-check the classification agreement with the paper at test scale
    // for the grain-calibrated rows.
    let row = |n: &str| t5.iter().find(|r| r.name == n).unwrap();
    assert_eq!(row("alignment").granularity, "coarse");
    assert_eq!(row("uts").granularity, "very fine");
    assert_eq!(row("qap").granularity, "very fine");
}

#[test]
fn all_fourteen_figures_build_at_test_scale() {
    for id in 1..=14 {
        let fig = figure(sweeps(InputScale::Test), id);
        assert_eq!(fig.id, id);
        assert!(!fig.series.is_empty(), "figure {id} empty");
        assert_eq!(fig.series[0].points.len(), CORE_COUNTS.len());
        // Every figure has at least one finite point.
        assert!(
            fig.series
                .iter()
                .any(|s| s.points.iter().any(|p| p.1.is_some())),
            "figure {id} has no data"
        );
    }
}

#[test]
fn hierarchical_stealing_wins_placement_on_two_sockets() {
    // DESIGN.md §16: with 12 cores spanning both sockets of the Ivy
    // Bridge node (fill-first: 10 + 2), exhausting the local socket
    // before probing remote victims must (a) keep cross-socket steals a
    // minority of all steals and (b) beat the topology-blind victim
    // order, which pays `remote_steal_extra_ns` on steals a local
    // victim could have served. Health at paper scale steals often
    // enough for the placement effect to dominate ordering noise.
    let health = paper(Benchmark::Health);
    let hier = point(&health.hpx, 12);
    let blind = hpx_with(&health.graph, 12, |c| c.topology_blind_steal = true);

    assert!(hier.completed() && blind.completed());
    assert!(hier.steals > 0, "12-core health must steal");
    assert!(
        hier.remote_steals * 2 < hier.steals,
        "hierarchical: remote steals {}/{} should be the minority",
        hier.remote_steals,
        hier.steals
    );
    // Blind order pays the cross-socket surcharge far more often...
    let hier_share = hier.remote_steals as f64 / hier.steals as f64;
    let blind_share = blind.remote_steals as f64 / blind.steals.max(1) as f64;
    assert!(
        hier_share < blind_share,
        "hierarchical remote share {hier_share:.3} vs blind {blind_share:.3}"
    );
    // ...and the simulator is deterministic, so the placement win shows
    // up as a strictly shorter makespan.
    assert!(
        hier.makespan_ns < blind.makespan_ns,
        "hierarchical {} should beat blind {}",
        hier.makespan_ns,
        blind.makespan_ns
    );

    // DESIGN.md §7 ablation 4 (`tableiv` section 5, here at test scale
    // where steals are the larger share): the base steal cost moves the
    // virtual makespan the same way. Endpoints only — a dearer steal also
    // changes who steals what, so no monotonicity in between.
    let g = Benchmark::Uts.sim_graph(InputScale::Test);
    let makespan_at = |steal_ns: u64| hpx_with(&g, 8, |c| c.steal_ns = steal_ns).makespan_ns;
    assert!(makespan_at(6_000) >= makespan_at(300));
}
