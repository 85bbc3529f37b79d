//! The seven workloads. Each is a set-up (everything before the first
//! timed op, warm-up included), an `op` that times its own calls into the
//! layers' public functions and checks its output, and a `finish` that
//! checks the end state against the runtime's own counters and reads the
//! workload's share of the per-layer budget off the counter plane.
//!
//! Load sizing: runnable threads never exceed two. A `_w1` workload is
//! one worker plus the bench thread; a `_w2` workload is two workers with
//! the bench thread blocked in `get()` / `wait_idle()`. Roots are
//! submitted as tasks, never run on the bench thread.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rpx_causal::CausalProfiler;
use rpx_counters::counter::{Counter, RawCounter};
use rpx_counters::name::{CounterInstance, CounterName};
use rpx_counters::registry::CounterRegistry;
use rpx_counters::value::{CounterInfo, CounterKind};
use rpx_inncabs::spawner::{RpxSpawner, SerialSpawner, Spawner};
use rpx_inncabs::{fft, nqueens, sort, sparselu};
use rpx_runtime::{Runtime, RuntimeConfig, RuntimeHandle, TaskFuture};
use rpx_serve::engine::ScrapeEngine;
use rpx_simnode::TaskGraph;
use rpx_taskbench::{Backend, GrainCalibration, RuntimeBackend, Shape, WorkloadSpec};

use crate::spans::{Layer, Spans};
use crate::stats::{median, metg_crossing, ms, Crossing};

/// A named workload: what the driver's `--workload` selects.
pub struct WorkloadInfo {
    pub name: &'static str,
    pub workers: usize,
    /// Set-up / measure / teardown cycles per run, each on a fresh runtime
    /// instance (see `single.rs` for why the `_w2` workloads need many).
    pub epochs: usize,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadInfo; 7] = [
    WorkloadInfo {
        name: "fib_w1",
        workers: 1,
        epochs: 12,
        why: "spawn, slab, deque and help-wait join with no contention: the paper's task-overhead regime and the most repeatable number",
    },
    WorkloadInfo {
        name: "fib_w2",
        workers: 2,
        epochs: 24,
        why: "the same fork/join tree on two workers adds steal, sleeper wake and slab remote-free; contention work shows here only",
    },
    WorkloadInfo {
        name: "fib_traced_w2",
        workers: 2,
        epochs: 24,
        why: "fib_w2 with the task tracer on and a causal profile per rep: the observation path in its ring-wrapped steady state",
    },
    WorkloadInfo {
        name: "stencil_ladder_w1",
        workers: 1,
        epochs: 3,
        why: "fire-and-forget spawns with dependence countdown over a grain ladder: the Task Bench yardstick, with a 16 us bypass rung",
    },
    WorkloadInfo {
        name: "burst_external_w1",
        workers: 1,
        epochs: 12,
        why: "a non-worker thread spawns 512 tasks and joins each: the heap-cell, injector, sleeper-wake and condvar path",
    },
    WorkloadInfo {
        name: "scrape_10k_w1",
        workers: 1,
        epochs: 6,
        why: "closed-loop scrapes of 10002 counters beside a worker that keeps spawning: counter reads next to hot-path writes",
    },
    WorkloadInfo {
        name: "inncabs_mix_w2",
        workers: 2,
        epochs: 12,
        why: "sort, nqueens, sparselu and fft at paper inputs: real memory-touching bodies, the bypass for scheduler micro-work",
    },
];

/// Full size, or the ~1/50 smoke size of `run --quick`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Quick,
}

#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    pub scale: Scale,
}

impl Config {
    fn pick<T>(&self, full: T, quick: T) -> T {
        match self.scale {
            Scale::Full => full,
            Scale::Quick => quick,
        }
    }
}

/// One timed op as the workload measured it.
pub struct Op {
    /// The whole op: what `op_ms_*` is computed from.
    pub wall: Duration,
    /// The part of it during which the counted tasks ran: the divisor of
    /// `tasks_per_s`.
    pub task_wall: Duration,
    /// Closed-form task count of the op (0 where `Finish::throughput`
    /// supplies a counted total instead).
    pub tasks: u64,
    /// Whether every output of the op matched its oracle.
    pub ok: bool,
}

/// What a workload hands back when it stops.
#[derive(Default)]
pub struct Finish {
    /// End-state oracle checks that failed (each counts as a failed op).
    pub failed_checks: u64,
    /// `(tasks, wall)` counted by the workload where no closed form exists.
    pub throughput: Option<(u64, Duration)>,
    /// Workload-specific end-to-end metrics (see `metrics::WORKLOAD_METRICS`).
    pub detail: Vec<(&'static str, f64)>,
    /// The workload's readings of the per-layer budget.
    pub layer: Vec<(&'static str, f64)>,
}

pub trait Workload {
    fn op(&mut self, spans: &mut Spans) -> Op;
    fn finish(self: Box<Self>, spans: &mut Spans) -> Finish;
}

/// One full set-up of `name`, warm-up reps included. `None` for a name
/// that is not a workload.
pub fn setup(name: &str, cfg: Config, spans: &mut Spans) -> Option<Box<dyn Workload>> {
    Some(match name {
        "fib_w1" => Box::new(Fib::setup(cfg, 1, false, spans)),
        "fib_w2" => Box::new(Fib::setup(cfg, 2, false, spans)),
        "fib_traced_w2" => Box::new(Fib::setup(cfg, 2, true, spans)),
        "stencil_ladder_w1" => Box::new(Stencil::setup(cfg, spans)),
        "burst_external_w1" => Box::new(Burst::setup(cfg, spans)),
        "scrape_10k_w1" => Box::new(Scrape::setup(cfg, spans)),
        "inncabs_mix_w2" => Box::new(Inncabs::setup(cfg, spans)),
        _ => return None,
    })
}

// ---------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------

/// Recursive fork/join Fibonacci with empty task bodies.
pub fn fib(h: &RuntimeHandle, n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let h2 = h.clone();
    let a = h.spawn(move || fib(&h2, n - 1));
    let b = fib(h, n - 2);
    a.get() + b
}

pub fn fib_value(n: u64) -> u64 {
    let (mut a, mut b) = (0u64, 1u64);
    for _ in 0..n {
        (a, b) = (b, a + b);
    }
    a
}

/// Tasks `fib(n)` spawns when called from inside a task (one per call
/// with `n >= 2`).
pub fn fib_spawns(n: u64) -> u64 {
    fib_value(n + 1) - 1
}

/// `fib(n)` submitted as a root task and joined from the bench thread.
pub fn fib_root(rt: &Runtime, h: &RuntimeHandle, n: u64, spans: &mut Spans) -> u64 {
    let h = h.clone();
    let fut = spans.scope("spawn", Layer::Runtime, |_| rt.spawn(move || fib(&h, n)));
    spans.scope("get", Layer::Runtime, |_| fut.get())
}

pub fn new_runtime(workers: usize, spans: &mut Spans) -> Runtime {
    spans.scope("Runtime::new", Layer::Runtime, |_| {
        Runtime::new(RuntimeConfig::with_workers(workers))
    })
}

/// Read a counter of the runtime's own counter plane (0 if it is absent,
/// which the exactness checks then report).
pub fn read_counter(reg: &Arc<CounterRegistry>, name: &str) -> i64 {
    reg.evaluate(name, false).map_or(0, |v| v.value)
}

/// What a workload with a runtime of its own reads off the counter plane
/// once its ops are done.
struct EndState {
    /// The workload's readings of the per-layer budget.
    layer: Vec<(&'static str, f64)>,
    /// `/threads/count/cumulative`: tasks the runtime says it executed.
    executed: u64,
    /// Whether `/runtime/health/pending-underflows` stayed 0.
    no_underflow: bool,
}

fn read_end_state(rt: &Runtime, spans: &mut Spans) -> EndState {
    spans.scope("wait_idle", Layer::Runtime, |_| rt.wait_idle());
    let reg = rt.registry();
    let total = |path: &str| read_counter(&reg, &format!("/threads{{locality#0/total}}/{path}"));
    let runtime = |path: &str| read_counter(&reg, &format!("/runtime{{locality#0/total}}/{path}"));
    spans.scope("evaluate", Layer::Counters, |_| EndState {
        layer: vec![
            ("runtime.steals", total("count/stolen") as f64),
            (
                "runtime.avg_overhead_ns",
                total("time/average-overhead") as f64,
            ),
            ("runtime.avg_exec_ns", total("time/average") as f64),
            ("runtime.avg_wait_ns", total("time/average-wait") as f64),
            ("runtime.idle_rate_pct", total("idle-rate") as f64 / 100.0),
            ("runtime.slab_allocs", runtime("slab/allocs") as f64),
            (
                "runtime.slab_remote_frees",
                runtime("slab/remote-frees") as f64,
            ),
            (
                "runtime.slab_fallback_allocs",
                runtime("slab/fallback-allocs") as f64,
            ),
            ("runtime.trace_records", runtime("trace/records") as f64),
            ("runtime.trace_dropped", runtime("trace/dropped") as f64),
        ],
        executed: total("count/cumulative") as u64,
        no_underflow: runtime("health/pending-underflows") == 0,
    })
}

fn shutdown(rt: Runtime, spans: &mut Spans) {
    spans.scope("shutdown", Layer::Runtime, |_| rt.shutdown());
}

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed`.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
    }
}

// ---------------------------------------------------------------------
// fib_w1 / fib_w2 / fib_traced_w2
// ---------------------------------------------------------------------

/// Slots of the runtime's task-tracer ring (`Runtime::new` fixes it).
const TRACER_CAPACITY: u64 = 64 * 1024;

struct Fib {
    rt: Runtime,
    h: RuntimeHandle,
    n: u64,
    traced: bool,
    /// Reps run on this runtime, warm-up included (for the end-state
    /// task-count check).
    reps: u64,
    /// Σ over the reps of the ring's drop count before it is cleared.
    trace_dropped: u64,
    /// Traced only: the rep and the profile that follows it, ms.
    rep_ms: Vec<f64>,
    profile_ms: Vec<f64>,
}

impl Fib {
    fn setup(cfg: Config, workers: usize, traced: bool, spans: &mut Spans) -> Fib {
        let rt = new_runtime(workers, spans);
        if traced {
            rt.tracer().enable();
        }
        let mut w = Fib {
            h: rt.handle(),
            rt,
            n: cfg.pick(25, 17),
            traced,
            reps: 0,
            trace_dropped: 0,
            rep_ms: Vec::new(),
            profile_ms: Vec::new(),
        };
        // The first two or three reps on a fresh runtime are ~20 % faster
        // than its steady state, so those are spent here, not timed.
        for _ in 0..cfg.pick(3, 1) {
            assert!(w.op(spans).ok, "fib warm-up rep failed its oracle");
        }
        w.rep_ms.clear();
        w.profile_ms.clear();
        w
    }
}

impl Workload for Fib {
    fn op(&mut self, spans: &mut Spans) -> Op {
        let tasks = fib_spawns(self.n) + 1;
        let tracer = self.rt.tracer();
        let records_before = tracer.records();
        self.reps += 1;
        spans.scope("rep", Layer::Bench, |spans| {
            let t0 = Instant::now();
            let value = fib_root(&self.rt, &self.h, self.n, spans);
            if self.traced {
                // A task's span is recorded after its future completes;
                // the record count is exact only once the runtime is idle.
                spans.scope("wait_idle", Layer::Runtime, |_| self.rt.wait_idle());
            }
            let task_wall = t0.elapsed();
            let mut ok = black_box(value) == fib_value(self.n);
            if self.traced {
                let recorded = tracer.records() - records_before;
                let dropped = tracer.dropped();
                ok &= recorded == tasks && dropped == recorded.saturating_sub(TRACER_CAPACITY);
                self.trace_dropped += dropped;
                self.rep_ms.push(ms(task_wall));
                let t1 = Instant::now();
                let task_spans = spans.scope("spans", Layer::Runtime, |_| tracer.spans());
                let profiler = spans.scope("from_spans", Layer::Causal, |_| {
                    CausalProfiler::from_spans(&task_spans)
                });
                let analysis = spans.scope("analyze", Layer::Causal, |_| profiler.analyze());
                spans.scope("clear", Layer::Runtime, |_| tracer.clear());
                self.profile_ms.push(ms(t1.elapsed()));
                ok &= analysis.tasks == tasks.min(TRACER_CAPACITY);
            }
            Op {
                wall: t0.elapsed(),
                task_wall,
                tasks,
                ok,
            }
        })
    }

    fn finish(self: Box<Self>, spans: &mut Spans) -> Finish {
        let w = *self;
        let mut end = read_end_state(&w.rt, spans);
        // `clear()` after each rep zeroes the counter; the sum is what the
        // ring overwrote over the instance's life.
        if let Some(slot) = end
            .layer
            .iter_mut()
            .find(|(n, _)| *n == "runtime.trace_dropped")
        {
            slot.1 = w.trace_dropped as f64;
        }
        let expected = w.reps * (fib_spawns(w.n) + 1);
        // Untraced, the rep is the whole op and `op_ms_p50` says it all.
        let detail = if w.traced {
            vec![
                ("wall_ms_p50", median(&w.rep_ms)),
                ("profile_ms_p50", median(&w.profile_ms)),
            ]
        } else {
            Vec::new()
        };
        shutdown(w.rt, spans);
        Finish {
            failed_checks: u64::from(!end.no_underflow) + u64::from(end.executed != expected),
            throughput: None,
            detail,
            layer: end.layer,
        }
    }
}

// ---------------------------------------------------------------------
// stencil_ladder_w1
// ---------------------------------------------------------------------

/// The grain ladder, ns. 1 µs is where the paper's overhead bites; 16 µs
/// is the built-in bypass that scheduler work must not move.
pub const LADDER_NS: [u64; 6] = [250, 500, 1_000, 2_000, 4_000, 16_000];

pub fn stencil_shape(cfg: Config) -> Shape {
    Shape::Stencil {
        width: 64,
        steps: cfg.pick(125, 4),
    }
}

/// Requested versus measured `spin_ns(16 µs)`, in percent of the request.
pub fn spin_error_pct(cal: &GrainCalibration, calls: u32) -> f64 {
    let t0 = Instant::now();
    for _ in 0..calls {
        cal.spin_ns(16_000);
    }
    let per_call_ns = t0.elapsed().as_nanos() as f64 / f64::from(calls);
    (per_call_ns / 16_000.0 - 1.0).abs() * 100.0
}

struct Rung {
    grain_ns: u64,
    graph: TaskGraph,
    efficiency: Vec<f64>,
    steals: u64,
}

struct Stencil {
    cal: GrainCalibration,
    tasks_per_graph: u64,
    rungs: Vec<Rung>,
    rng: SplitMix64,
    spin_error_pct: f64,
}

impl Stencil {
    fn setup(cfg: Config, spans: &mut Spans) -> Stencil {
        let cal = spans.scope("calibrate", Layer::Taskbench, |_| {
            GrainCalibration::calibrate()
        });
        let shape = stencil_shape(cfg);
        let rungs = LADDER_NS
            .iter()
            .map(|&grain_ns| Rung {
                grain_ns,
                graph: spans.scope("WorkloadSpec::build", Layer::Taskbench, |_| {
                    WorkloadSpec::new(shape, grain_ns, cfg.seed).build()
                }),
                efficiency: Vec::new(),
                steals: 0,
            })
            .collect();
        let mut w = Stencil {
            cal,
            tasks_per_graph: shape.task_count(),
            rungs,
            rng: SplitMix64(cfg.seed),
            spin_error_pct: spin_error_pct(&cal, cfg.pick(1_000, 50)),
        };
        assert!(w.op(spans).ok, "stencil warm-up pass failed its oracle");
        for r in &mut w.rungs {
            r.efficiency.clear();
            r.steals = 0;
        }
        w
    }
}

impl Workload for Stencil {
    /// One pass over the ladder, rung order shuffled so slow host drift
    /// lands on every grain alike.
    fn op(&mut self, spans: &mut Spans) -> Op {
        let mut order: Vec<usize> = (0..self.rungs.len()).collect();
        self.rng.shuffle(&mut order);
        let (cal, expected) = (self.cal, self.tasks_per_graph);
        spans.scope("pass", Layer::Bench, |spans| {
            let t0 = Instant::now();
            let mut task_wall = Duration::ZERO;
            let mut ok = true;
            for i in order {
                let rung = &mut self.rungs[i];
                let run = spans.scope("RuntimeBackend::run", Layer::Taskbench, |_| {
                    RuntimeBackend.run(&rung.graph, 1, &cal)
                });
                match run {
                    Ok(stats) => {
                        ok &= stats.spawned == expected
                            && stats.completed == expected
                            && stats.counter_completed == Some(expected);
                        task_wall += Duration::from_nanos(stats.wall_ns);
                        rung.efficiency.push(stats.efficiency());
                        rung.steals += stats.steals.unwrap_or(0);
                    }
                    Err(_) => ok = false,
                }
            }
            Op {
                wall: t0.elapsed(),
                task_wall,
                tasks: expected * LADDER_NS.len() as u64,
                ok,
            }
        })
    }

    fn finish(self: Box<Self>, _spans: &mut Spans) -> Finish {
        let curve: Vec<(f64, f64)> = self
            .rungs
            .iter()
            .map(|r| (r.grain_ns as f64, median(&r.efficiency)))
            .collect();
        let at = |grain: u64| {
            curve
                .iter()
                .find(|(g, _)| *g == grain as f64)
                .map_or(0.0, |(_, e)| *e)
        };
        // A ladder whose envelope never crosses 50 % has no METG: that is
        // a failed op, not a made-up number.
        let (metg50_ns, crossed) = match metg_crossing(&curve, 0.5) {
            Crossing::At(ns) => (ns, true),
            Crossing::Never => (0.0, false),
        };
        Finish {
            failed_checks: u64::from(!crossed),
            throughput: None,
            detail: vec![
                ("efficiency_g1us", at(1_000)),
                ("efficiency_g16us", at(16_000)),
                ("metg50_ns", metg50_ns),
                ("spin_error_pct", self.spin_error_pct),
            ],
            // The backend owns (and drops) its runtime per run, so only
            // what `RunStats` carries is visible from outside.
            layer: vec![(
                "runtime.steals",
                self.rungs.iter().map(|r| r.steals).sum::<u64>() as f64,
            )],
        }
    }
}

// ---------------------------------------------------------------------
// burst_external_w1
// ---------------------------------------------------------------------

pub const BURST_TASKS: usize = 512;

/// Spawn `BURST_TASKS` no-op tasks from the calling (non-worker) thread,
/// then join each.
pub fn burst(rt: &Runtime, spans: &mut Spans) {
    let futures: Vec<TaskFuture<()>> = spans.scope("spawn x512", Layer::Runtime, |_| {
        (0..BURST_TASKS).map(|_| rt.spawn(|| ())).collect()
    });
    spans.scope("get x512", Layer::Runtime, |_| {
        for f in futures {
            f.get();
        }
    });
}

struct Burst {
    rt: Runtime,
    bursts: u64,
}

impl Burst {
    fn setup(cfg: Config, spans: &mut Spans) -> Burst {
        let mut w = Burst {
            rt: new_runtime(1, spans),
            bursts: 0,
        };
        for _ in 0..cfg.pick(256, 8) {
            w.op(spans);
        }
        w
    }
}

impl Workload for Burst {
    fn op(&mut self, spans: &mut Spans) -> Op {
        self.bursts += 1;
        spans.scope("burst", Layer::Bench, |spans| {
            let t0 = Instant::now();
            burst(&self.rt, spans);
            let wall = t0.elapsed();
            Op {
                wall,
                task_wall: wall,
                tasks: BURST_TASKS as u64,
                // A no-op task has no value to check; the end-state count
                // in `finish` is this workload's oracle.
                ok: true,
            }
        })
    }

    fn finish(self: Box<Self>, spans: &mut Spans) -> Finish {
        let end = read_end_state(&self.rt, spans);
        let expected = self.bursts * BURST_TASKS as u64;
        shutdown(self.rt, spans);
        Finish {
            failed_checks: u64::from(!end.no_underflow) + u64::from(end.executed != expected),
            layer: end.layer,
            ..Finish::default()
        }
    }
}

// ---------------------------------------------------------------------
// scrape_10k_w1
// ---------------------------------------------------------------------

/// `fib(n)` the scraped application's worker loops over.
pub const APP_FIB_N: u64 = 18;

/// Register `/app/cell` with `instances` live instances that all read one
/// shared cell — the per-object instrumentation shape.
pub fn register_app_cells(reg: &Arc<CounterRegistry>, instances: u32, cell: &Arc<AtomicI64>) {
    let info = || {
        CounterInfo::new(
            "/app/cell",
            CounterKind::MonotonicallyIncreasing,
            "per-object probe",
            "1",
        )
    };
    let clock = reg.clock();
    let cell = cell.clone();
    reg.register_type(
        info(),
        Arc::new(move |name: &CounterName, _| {
            let mut i = info();
            i.name = name.canonical();
            let c = cell.clone();
            Ok(Arc::new(RawCounter::new(
                i,
                clock.clone(),
                Arc::new(move || c.load(Ordering::Relaxed)),
            )) as Arc<dyn Counter>)
        }),
        Some(Arc::new(move |f: &mut dyn FnMut(CounterName)| {
            for w in 0..instances {
                f(CounterName::new("app", "cell").with_instance(CounterInstance::worker(0, w)));
            }
        })),
    );
}

pub fn scrape_specs() -> Vec<String> {
    vec![
        "/app{locality#0/worker-thread#*}/cell".into(),
        "/threads{locality#0/worker-thread#*}/count/cumulative".into(),
        "/threads{locality#0/total}/time/average-overhead".into(),
    ]
}

/// The scraped application: one root task that loops `fib(APP_FIB_N)`
/// on the worker until told to stop, counting rounds.
pub struct AppLoop {
    stop: Arc<AtomicBool>,
    rounds: Arc<AtomicU64>,
    root: TaskFuture<()>,
}

impl AppLoop {
    pub fn start(rt: &Runtime, cell: &Arc<AtomicI64>) -> AppLoop {
        let stop = Arc::new(AtomicBool::new(false));
        let rounds = Arc::new(AtomicU64::new(0));
        let (h, stop2, rounds2, cell) = (rt.handle(), stop.clone(), rounds.clone(), cell.clone());
        let root = rt.spawn(move || {
            while !stop2.load(Ordering::Relaxed) {
                black_box(fib(&h, APP_FIB_N));
                cell.fetch_add(1, Ordering::Relaxed);
                rounds2.fetch_add(1, Ordering::Relaxed);
            }
        });
        AppLoop { stop, rounds, root }
    }

    pub fn rounds(&self) -> u64 {
        self.rounds.load(Ordering::Relaxed)
    }

    /// Rounds per second over `window`, with the calling thread asleep.
    pub fn rate_while_sleeping(&self, window: Duration) -> f64 {
        let (r0, t0) = (self.rounds(), Instant::now());
        std::thread::sleep(window);
        (self.rounds() - r0) as f64 / t0.elapsed().as_secs_f64()
    }

    pub fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        self.root.get();
    }
}

struct Scrape {
    rt: Runtime,
    engine: Arc<ScrapeEngine>,
    app: AppLoop,
    entries: usize,
    baseline_window: Duration,
    /// App rounds per second with nobody scraping, measured in set-up.
    unscraped_rate: f64,
    /// Start of the first op and the app's round count then.
    window: Option<(Instant, u64)>,
    last_end: Instant,
    collect_ms: Vec<f64>,
    render_ms: Vec<f64>,
    bytes: usize,
}

impl Scrape {
    fn setup(cfg: Config, spans: &mut Spans) -> Scrape {
        let instances = cfg.pick(10_000, 200);
        let rt = new_runtime(1, spans);
        let reg = rt.registry();
        let cell = Arc::new(AtomicI64::new(0));
        register_app_cells(&reg, instances, &cell);
        let engine = spans.scope("ScrapeEngine::new", Layer::Serve, |_| {
            ScrapeEngine::new(&reg, &scrape_specs(), 8, 8).expect("the export specs resolve")
        });
        let app = AppLoop::start(&rt, &cell);
        let baseline_window = Duration::from_millis(cfg.pick(200, 20));
        // The first rounds on a fresh runtime are faster than its steady
        // state; the unscraped rate is taken after them.
        app.rate_while_sleeping(baseline_window / 2);
        let unscraped_rate = app.rate_while_sleeping(baseline_window);
        let mut w = Scrape {
            rt,
            engine,
            app,
            entries: instances as usize + 2,
            baseline_window,
            unscraped_rate,
            window: None,
            last_end: Instant::now(),
            collect_ms: Vec::new(),
            render_ms: Vec::new(),
            bytes: 0,
        };
        for _ in 0..cfg.pick(10, 1) {
            assert!(w.op(spans).ok, "scrape warm-up failed its oracle");
        }
        w.window = None;
        w.collect_ms.clear();
        w.render_ms.clear();
        w
    }
}

impl Workload for Scrape {
    fn op(&mut self, spans: &mut Spans) -> Op {
        spans.scope("scrape", Layer::Bench, |spans| {
            let t0 = Instant::now();
            if self.window.is_none() {
                self.window = Some((t0, self.app.rounds()));
            }
            let batch = spans.scope("collect", Layer::Serve, |_| self.engine.collect());
            let t1 = Instant::now();
            let text = spans.scope("render", Layer::Serve, |_| rpx_serve::text::render(&batch));
            let t2 = Instant::now();
            self.collect_ms.push(ms(t1 - t0));
            self.render_ms.push(ms(t2 - t1));
            self.bytes = text.len();
            let ok = spans.scope("parse_exposition", Layer::Bench, |_| {
                batch.len() == self.entries
                    && rpx_serve::collect::parse_exposition(&text).len() == self.entries
            });
            self.last_end = Instant::now();
            Op {
                wall: t2 - t0,
                task_wall: t2 - t0,
                tasks: 0,
                ok,
            }
        })
    }

    fn finish(self: Box<Self>, spans: &mut Spans) -> Finish {
        let w = *self;
        let rounds_end = w.app.rounds();
        // Once more after the scrapes, so drift between set-up and now
        // does not pass for a slowdown.
        let unscraped_rate =
            (w.unscraped_rate + w.app.rate_while_sleeping(w.baseline_window)) / 2.0;
        w.app.stop();
        let (t_first, rounds_first) = w.window.unwrap_or((w.last_end, rounds_end));
        let window = w.last_end - t_first;
        let rounds = rounds_end - rounds_first;
        let scraped_rate = rounds as f64 / window.as_secs_f64().max(f64::MIN_POSITIVE);
        let end = read_end_state(&w.rt, spans);
        shutdown(w.rt, spans);
        Finish {
            failed_checks: u64::from(!end.no_underflow),
            throughput: Some((rounds * fib_spawns(APP_FIB_N), window)),
            detail: vec![
                ("app_rounds_per_s", scraped_rate),
                ("app_rounds_per_s_unscraped", unscraped_rate),
                (
                    "app_slowdown_pct",
                    (1.0 - scraped_rate / unscraped_rate) * 100.0,
                ),
            ],
            layer: end.layer,
        }
    }
}

// ---------------------------------------------------------------------
// inncabs_mix_w2
// ---------------------------------------------------------------------

fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x1_0000_01b3)
    })
}

/// What a kernel returns, so the clock can stop before the checksum.
pub enum KernelOut {
    Sort(Vec<u64>),
    NQueens(u64),
    SparseLu(sparselu::BlockMatrix),
    Fft(Vec<fft::Complex>),
}

impl KernelOut {
    pub fn checksum(&self) -> u64 {
        match self {
            KernelOut::Sort(v) => fnv(v.iter().copied()),
            KernelOut::NQueens(solutions) => *solutions,
            // A structurally-zero block hashes as one marker word.
            KernelOut::SparseLu(m) => fnv(m.data.iter().flat_map(|block| match block {
                Some(b) => b.iter().map(|x| x.to_bits()).collect(),
                None => vec![u64::MAX],
            })),
            KernelOut::Fft(v) => fnv(v.iter().flat_map(|c| [c.re.to_bits(), c.im.to_bits()])),
        }
    }
}

pub const INNCABS_KERNELS: [&str; 4] = ["sort", "nqueens", "sparselu", "fft"];

/// The four kernels' inputs, data seeds derived from `--seed`.
#[derive(Clone, Copy)]
pub struct InncabsInputs {
    sort: sort::SortInput,
    nqueens: nqueens::NQueensInput,
    sparselu: sparselu::SparseLuInput,
    fft: fft::FftInput,
}

impl InncabsInputs {
    pub fn new(cfg: Config) -> InncabsInputs {
        let mut rng = SplitMix64(cfg.seed);
        let mut seed = || rng.next() | 1;
        let mut inputs = match cfg.scale {
            Scale::Full => InncabsInputs {
                sort: sort::SortInput::paper(),
                nqueens: nqueens::NQueensInput::paper(),
                sparselu: sparselu::SparseLuInput::paper(),
                fft: fft::FftInput::paper(),
            },
            Scale::Quick => InncabsInputs {
                sort: sort::SortInput::test(),
                nqueens: nqueens::NQueensInput::test(),
                sparselu: sparselu::SparseLuInput::test(),
                fft: fft::FftInput::test(),
            },
        };
        inputs.sort.seed = seed();
        inputs.sparselu.seed = seed();
        inputs.fft.seed = seed();
        inputs
    }

    /// Kernel `k` (an index into [`INNCABS_KERNELS`]) on spawner `sp`.
    pub fn kernel<S: Spawner>(&self, k: usize, sp: &S) -> KernelOut {
        match k {
            0 => KernelOut::Sort(sort::run(sp, self.sort)),
            1 => KernelOut::NQueens(nqueens::run(sp, self.nqueens)),
            2 => KernelOut::SparseLu(sparselu::run(sp, self.sparselu)),
            _ => KernelOut::Fft(fft::run(sp, self.fft)),
        }
    }

    /// Wall time and checksum of kernel `k` run inline: the serial oracle
    /// and the single-thread baseline.
    pub fn run_serial(&self, k: usize) -> (Duration, u64) {
        let t0 = Instant::now();
        let out = self.kernel(k, &SerialSpawner);
        (t0.elapsed(), out.checksum())
    }

    /// Wall time and checksum of kernel `k` submitted as a root task and
    /// joined from the calling thread.
    pub fn run_root(&self, k: usize, rt: &Runtime, spans: &mut Spans) -> (Duration, u64) {
        let (inputs, sp) = (*self, RpxSpawner::new(rt.handle()));
        let t0 = Instant::now();
        let out = spans.scope(INNCABS_KERNELS[k], Layer::Inncabs, |_| {
            rt.spawn(move || inputs.kernel(k, &sp)).get()
        });
        (t0.elapsed(), out.checksum())
    }
}

struct Inncabs {
    rt: Runtime,
    inputs: InncabsInputs,
    oracle: [u64; 4],
    /// Σ wall of the timed reps.
    wall: Duration,
    /// `/threads/count/cumulative` after the warm-up reps.
    tasks_before: u64,
}

impl Inncabs {
    fn setup(cfg: Config, spans: &mut Spans) -> Inncabs {
        let inputs = InncabsInputs::new(cfg);
        let oracle = spans.scope("serial oracle", Layer::Inncabs, |_| {
            std::array::from_fn(|k| inputs.run_serial(k).1)
        });
        let mut w = Inncabs {
            rt: new_runtime(2, spans),
            inputs,
            oracle,
            wall: Duration::ZERO,
            tasks_before: 0,
        };
        for _ in 0..cfg.pick(2, 1) {
            assert!(w.op(spans).ok, "inncabs warm-up rep failed its oracle");
        }
        w.rt.wait_idle();
        w.tasks_before = read_counter(
            &w.rt.registry(),
            "/threads{locality#0/total}/count/cumulative",
        ) as u64;
        w.wall = Duration::ZERO;
        w
    }
}

impl Workload for Inncabs {
    fn op(&mut self, spans: &mut Spans) -> Op {
        spans.scope("rep", Layer::Bench, |spans| {
            let mut wall = Duration::ZERO;
            let mut ok = true;
            for k in 0..4 {
                let (dt, checksum) = self.inputs.run_root(k, &self.rt, spans);
                ok &= checksum == self.oracle[k];
                wall += dt;
            }
            self.wall += wall;
            Op {
                wall,
                task_wall: wall,
                tasks: 0,
                ok,
            }
        })
    }

    fn finish(self: Box<Self>, spans: &mut Spans) -> Finish {
        let w = *self;
        let end = read_end_state(&w.rt, spans);
        shutdown(w.rt, spans);
        Finish {
            failed_checks: u64::from(!end.no_underflow),
            throughput: Some((end.executed - w.tasks_before, w.wall)),
            detail: Vec::new(),
            layer: end.layer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fib_closed_forms() {
        assert_eq!(fib_value(25), 75_025);
        assert_eq!(fib_spawns(25) + 1, 121_393);
        assert_eq!(fib_spawns(18), 4_180);
    }

    #[test]
    fn shuffle_is_a_permutation_fixed_by_the_seed() {
        let order = |seed| {
            let mut v: Vec<usize> = (0..6).collect();
            SplitMix64(seed).shuffle(&mut v);
            v
        };
        assert_eq!(order(7), order(7));
        let mut sorted = order(7);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..6).collect::<Vec<_>>());
        assert!((0..20).any(|s| order(s) != order(s + 1)));
    }

    #[test]
    fn workload_names_are_unique() {
        let mut names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), WORKLOADS.len());
    }
}
