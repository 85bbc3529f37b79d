//! The fixed micro-cells of the per-layer budget: each times one layer's
//! public calls in isolation, from outside, with `Instant` + `black_box`.
//! They are the same in every traced run whatever the workload, so a
//! layer's number can be read next to any workload's end-to-end result.
//! Which end-to-end metric each should move is written down in
//! `metrics::PER_LAYER` and the README before anything is measured.

use std::hint::black_box;
use std::sync::atomic::AtomicI64;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::deque::{Injector, Steal, Worker};
use rpx_causal::CausalProfiler;
use rpx_counters::sampler::{CsvSink, Sampler, SamplerConfig};
use rpx_counters::ResolvedQuery;
use rpx_runtime::{Runtime, RuntimeConfig, TaskSpan, TaskTracer};
use rpx_serve::engine::ScrapeEngine;
use rpx_serve::proto;
use rpx_taskbench::{Backend, GrainCalibration, RuntimeBackend, Shape, WorkloadSpec};

use crate::spans::Spans;
use crate::stats::{median, ms};
use crate::workloads::{
    burst, fib_root, fib_value, register_app_cells, scrape_specs, spin_error_pct, AppLoop, Config,
    InncabsInputs, Scale, BURST_TASKS,
};

pub type Readings = Vec<(&'static str, f64)>;

/// Sizes at full scale; `--quick` divides iteration counts by 50.
struct Sizes {
    div: u64,
    /// `fib(n)` of the one real traced rep.
    fib_n: u64,
    /// Length of each application-rate window.
    app_window: Duration,
}

impl Sizes {
    fn of(scale: Scale) -> Sizes {
        match scale {
            Scale::Full => Sizes {
                div: 1,
                fib_n: 25,
                app_window: Duration::from_millis(300),
            },
            Scale::Quick => Sizes {
                div: 50,
                fib_n: 17,
                app_window: Duration::from_millis(20),
            },
        }
    }

    fn n(&self, full: u64) -> u64 {
        (full / self.div).max(2)
    }
}

fn ns_per(t0: Instant, ops: u64) -> f64 {
    t0.elapsed().as_nanos() as f64 / ops as f64
}

/// Median wall ms of `reps` calls of `f`.
fn median_ms(reps: u64, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            ms(t0.elapsed())
        })
        .collect();
    median(&samples)
}

/// Run every cell. `two_threads` is false on a one-CPU host, where the
/// two-worker cells would measure time-slicing; they then read 0.
pub fn run_all(cfg: Config, two_threads: bool) -> Readings {
    let sizes = Sizes::of(cfg.scale);
    let mut out = Readings::new();
    queues(&sizes, &mut out);
    spawn_paths(&sizes, &mut out);
    tracer_and_profile(&sizes, two_threads, &mut out);
    taskbench(cfg, &sizes, &mut out);
    counters_and_serve(&sizes, &mut out);
    inncabs(cfg, two_threads, &mut out);
    out
}

/// `shims/crossbeam`: the deque and injector the scheduler is built on.
fn queues(sizes: &Sizes, out: &mut Readings) {
    let n = sizes.n(1_000_000);
    let w: Worker<u64> = Worker::new_lifo();
    let t0 = Instant::now();
    for i in 0..n {
        w.push(black_box(i));
        black_box(w.pop());
    }
    out.push(("crossbeam.deque_push_pop_ns", ns_per(t0, n)));

    let batch = sizes.n(200_000);
    let stealer = w.stealer();
    for i in 0..batch {
        w.push(i);
    }
    let t0 = Instant::now();
    let mut stolen = 0u64;
    while stolen < batch {
        if let Steal::Success(v) = stealer.steal() {
            black_box(v);
            stolen += 1;
        }
    }
    out.push(("crossbeam.deque_steal_ns", ns_per(t0, batch)));

    for i in 0..batch {
        w.push(i);
    }
    let dest: Worker<u64> = Worker::new_lifo();
    let t0 = Instant::now();
    let mut moved = 0u64;
    while moved < batch {
        if let Steal::Success(v) = stealer.steal_batch_and_pop(&dest) {
            black_box(v);
            moved += 1;
            while let Some(v) = dest.pop() {
                black_box(v);
                moved += 1;
            }
        }
    }
    out.push(("crossbeam.deque_steal_batch_ns", ns_per(t0, batch)));

    let inj: Injector<u64> = Injector::new();
    let t0 = Instant::now();
    for i in 0..batch {
        inj.push(black_box(i));
    }
    let mut taken = 0u64;
    while taken < batch {
        if let Steal::Success(v) = inj.steal() {
            black_box(v);
            taken += 1;
        }
    }
    out.push(("crossbeam.injector_push_steal_ns", ns_per(t0, batch)));
}

/// `runtime`: the three spawn paths and runtime construction, one worker.
fn spawn_paths(sizes: &Sizes, out: &mut Readings) {
    let mut off = Spans::new(false);
    let reps = sizes.n(200);
    out.push((
        "runtime.new_shutdown_ms",
        median_ms(sizes.n(10), || {
            Runtime::new(RuntimeConfig::with_workers(1)).shutdown()
        }),
    ));

    let rt = Runtime::new(RuntimeConfig::with_workers(1));
    let clock = rt.registry().clock();
    let n = sizes.n(2_000_000);
    let t0 = Instant::now();
    for _ in 0..n {
        black_box(clock.now_ns());
    }
    out.push(("counters.clock_now_ns", ns_per(t0, n)));

    // A task spawns and joins 1024 no-op children: slab cell, local deque,
    // help-wait join.
    const CHILDREN: u64 = 1024;
    let local = |detached: bool| {
        let h = rt.handle();
        let t0 = Instant::now();
        rt.spawn(move || {
            if detached {
                for _ in 0..CHILDREN {
                    drop(h.spawn(|| ()));
                }
            } else {
                let futures: Vec<_> = (0..CHILDREN).map(|_| h.spawn(|| ())).collect();
                for f in futures {
                    f.get();
                }
            }
        })
        .get();
        rt.wait_idle();
        ns_per(t0, CHILDREN)
    };
    for _ in 0..reps / 4 {
        local(false);
        local(true);
    }
    let joined: Vec<f64> = (0..reps).map(|_| local(false)).collect();
    out.push(("runtime.spawn_join_local_ns", median(&joined)));
    let detached: Vec<f64> = (0..reps).map(|_| local(true)).collect();
    out.push(("runtime.spawn_detached_ns", median(&detached)));

    // The bench thread spawns and joins: heap cell, injector, wake, condvar.
    let external: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            burst(&rt, &mut off);
            ns_per(t0, BURST_TASKS as u64)
        })
        .collect();
    out.push(("runtime.spawn_get_external_ns", median(&external)));
    rt.shutdown();
}

fn synthetic_span(i: u64) -> TaskSpan {
    TaskSpan {
        task_id: i,
        parent: i.checked_sub(1),
        site: 0,
        worker: 0,
        start_ns: i * 100,
        end_ns: i * 100 + 80,
        wait_ns: 10,
        nested_ns: 0,
    }
}

/// `runtime::trace` in isolation, then `causal` over one real traced
/// `fib` rep's ring.
fn tracer_and_profile(sizes: &Sizes, two_threads: bool, out: &mut Readings) {
    let n = sizes.n(400_000);
    let tracer = TaskTracer::new(64 * 1024);
    tracer.enable();
    let t0 = Instant::now();
    for i in 0..n {
        tracer.record(black_box(synthetic_span(i)));
    }
    out.push(("runtime.tracer_record_ns", ns_per(t0, n)));

    let contended = if two_threads {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            let other = s.spawn(|| {
                for i in 0..n / 2 {
                    tracer.record(black_box(synthetic_span(i)));
                }
            });
            for i in 0..n / 2 {
                tracer.record(black_box(synthetic_span(i)));
            }
            other.join().expect("recording thread");
        });
        ns_per(t0, n / 2)
    } else {
        0.0
    };
    out.push(("runtime.tracer_record_contended_ns", contended));

    // One real rep so the profiler sees a spawn forest, not a chain.
    let workers = if two_threads { 2 } else { 1 };
    let rt = Runtime::new(RuntimeConfig::with_workers(workers));
    rt.tracer().enable();
    assert_eq!(
        fib_root(&rt, &rt.handle(), sizes.fib_n, &mut Spans::new(false)),
        fib_value(sizes.fib_n)
    );
    rt.wait_idle();
    let tracer = rt.tracer();
    out.push((
        "runtime.tracer_spans_copy_ms",
        median_ms(5, || {
            black_box(tracer.spans());
        }),
    ));
    let task_spans = tracer.spans();
    out.push((
        "causal.ingest_ms",
        median_ms(5, || {
            black_box(CausalProfiler::from_spans(&task_spans));
        }),
    ));
    let profiler = CausalProfiler::from_spans(&task_spans);
    out.push((
        "causal.analyze_ms",
        median_ms(5, || {
            black_box(profiler.analyze());
        }),
    ));
    out.push(("causal.parallelism", profiler.analyze().parallelism()));
    rt.shutdown();
}

/// `taskbench`: graph build, calibration, and the 1 µs rung against its
/// single-thread baseline.
fn taskbench(cfg: Config, sizes: &Sizes, out: &mut Readings) {
    let shape = Shape::Stencil {
        width: 64,
        steps: sizes.n(500) as u32,
    };
    let spec = WorkloadSpec::new(shape, 1_000, cfg.seed);
    out.push((
        "taskbench.build_ms",
        median_ms(3, || {
            black_box(spec.build());
        }),
    ));
    let t0 = Instant::now();
    let cal = GrainCalibration::calibrate();
    out.push(("taskbench.calibrate_ms", ms(t0.elapsed())));
    out.push((
        "taskbench.spin_error_pct",
        spin_error_pct(&cal, sizes.n(2_000) as u32),
    ));

    let graph = spec.build();
    let tasks = shape.task_count();
    let t0 = Instant::now();
    for task in &graph.tasks {
        cal.spin_ns(black_box(task.work_ns));
    }
    out.push(("taskbench.serial_ns_per_task_g1us", ns_per(t0, tasks)));

    let mut per_task = Vec::new();
    let mut counter = Vec::new();
    for _ in 0..3 {
        let stats = RuntimeBackend
            .run(&graph, 1, &cal)
            .expect("the 1 us stencil runs");
        per_task.push(stats.wall_ns as f64 / tasks as f64 - 1_000.0);
        counter.push(stats.avg_overhead_ns.unwrap_or(0.0));
    }
    out.push(("taskbench.overhead_ns_per_task_g1us", median(&per_task)));
    out.push(("taskbench.counter_overhead_ns_g1us", median(&counter)));
}

/// `counters` queries and the `serve` pipeline over the 10 002-entry
/// export set, beside the looping application as in `scrape_10k_w1`.
fn counters_and_serve(sizes: &Sizes, out: &mut Readings) {
    let instances = sizes.n(10_000) as u32;
    let rt = Runtime::new(RuntimeConfig::with_workers(1));
    let reg = rt.registry();
    let cell = Arc::new(AtomicI64::new(0));
    register_app_cells(&reg, instances, &cell);
    let specs = scrape_specs();

    let t0 = Instant::now();
    let query = ResolvedQuery::resolve(&reg, &specs).expect("the export specs resolve");
    out.push(("counters.query_resolve_10k_ms", ms(t0.elapsed())));
    let handles = query.handles().len() as f64;
    out.push((
        "counters.query_evaluate_ns_per_handle",
        median_ms(5, || {
            black_box(query.evaluate(false));
        }) * 1e6
            / handles,
    ));

    // An hour's interval: only `flush_now` makes the sampler tick.
    let sampler = Sampler::start(
        &reg,
        SamplerConfig::new(specs.clone(), Duration::from_secs(3600)),
        Box::new(CsvSink::new(Vec::<u8>::new())),
    )
    .expect("the sampler starts");
    out.push((
        "counters.sampler_flush_us",
        median_ms(5, || assert!(sampler.flush_now(), "flush completes")) * 1e3,
    ));
    sampler.stop();

    let t0 = Instant::now();
    let engine = ScrapeEngine::new(&reg, &specs, 8, 8).expect("the export specs resolve");
    out.push(("serve.engine_new_ms", ms(t0.elapsed())));

    let app = AppLoop::start(&rt, &cell);
    let window = sizes.app_window;
    // The first rounds on a fresh runtime are faster than its steady
    // state; the unscraped rate is taken after them, before and after the
    // scraped window.
    app.rate_while_sleeping(window / 2);
    let unscraped = app.rate_while_sleeping(window);
    let (mut collect, mut render, mut encode, mut bytes) = (Vec::new(), Vec::new(), Vec::new(), 0);
    let (r0, t_loop) = (app.rounds(), Instant::now());
    while t_loop.elapsed() < window {
        let t0 = Instant::now();
        let batch = engine.collect();
        collect.push(ms(t0.elapsed()));
        let t0 = Instant::now();
        let text = rpx_serve::text::render(&batch);
        render.push(ms(t0.elapsed()));
        bytes = text.len();
        black_box(text);
    }
    let scraped = (app.rounds() - r0) as f64 / t_loop.elapsed().as_secs_f64();
    let unscraped = (unscraped + app.rate_while_sleeping(window)) / 2.0;
    let batch = engine.collect();
    for _ in 0..5 {
        let t0 = Instant::now();
        let mut buf = Vec::new();
        for (entry, sample) in &batch {
            buf.extend_from_slice(&proto::encode(&proto::Frame::Sample {
                id: entry.id,
                seq: sample.seq,
                timestamp_ns: sample.timestamp_ns,
                value: sample.value,
                ok: sample.ok,
            }));
        }
        black_box(buf);
        encode.push(ms(t0.elapsed()));
    }
    app.stop();
    rt.shutdown();
    out.extend([
        ("serve.collect_ms", median(&collect)),
        ("serve.render_ms", median(&render)),
        ("serve.bytes_per_scrape", bytes as f64),
        ("serve.encode_binary_ms", median(&encode)),
        ("serve.app_rounds_per_s_unscraped", unscraped),
        ("serve.app_rounds_per_s_scraped", scraped),
        (
            "serve.app_slowdown_pct",
            (1.0 - scraped / unscraped) * 100.0,
        ),
    ]);
}

/// `inncabs`: each kernel on two workers, and the four inline — the
/// plain single-thread baseline of the same problem.
fn inncabs(cfg: Config, two_threads: bool, out: &mut Readings) {
    const NAMES: [&str; 4] = [
        "inncabs.sort_ms",
        "inncabs.nqueens_ms",
        "inncabs.sparselu_ms",
        "inncabs.fft_ms",
    ];
    let inputs = InncabsInputs::new(cfg);
    let serial: Vec<(Duration, u64)> = (0..4).map(|k| inputs.run_serial(k)).collect();
    let serial_ms: f64 = serial.iter().map(|(d, _)| ms(*d)).sum();
    let rt = Runtime::new(RuntimeConfig::with_workers(if two_threads { 2 } else { 1 }));
    let mut off = Spans::new(false);
    let mut parallel_ms = 0.0;
    for (k, name) in NAMES.into_iter().enumerate() {
        let samples: Vec<f64> = (0..4)
            .map(|_| {
                let (dt, checksum) = inputs.run_root(k, &rt, &mut off);
                assert_eq!(
                    checksum, serial[k].1,
                    "{name}: checksum differs from serial"
                );
                ms(dt)
            })
            .skip(1)
            .collect();
        let m = median(&samples);
        parallel_ms += m;
        out.push((name, m));
    }
    rt.shutdown();
    out.push(("inncabs.serial_ms", serial_ms));
    out.push(("inncabs.speedup_vs_serial", serial_ms / parallel_ms));
}
