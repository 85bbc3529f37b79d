//! Causal-profiler conformance against closed-form oracles (ISSUE 7
//! acceptance criteria).
//!
//! Three ways of checking the same algebra:
//!
//! 1. **Synthetic fib(20)** — the spawn tree of the naive parallel
//!    Fibonacci has closed forms for task count (`2·fib(n+1) − 1` with the
//!    root), work (one unit each), and span (the chain fib(n) → … →
//!    fib(1), `n` units); the profiler and its what-if projections must
//!    match within 1% (they are exact).
//! 2. **Simnode stencil DAG** — a rows×cols wavefront grid whose
//!    event-exact critical path [`TaskGraph::critical_path_ns`] is the
//!    oracle: spans generated from infinite-core finish times with the
//!    *release edge* (the last-finishing predecessor) as parent must
//!    reproduce it exactly.
//! 3. **The real runtime** — Inncabs fib through a tracer-enabled
//!    [`Runtime`]: the span stream's task count must equal the spawn
//!    oracle, the profile must be physically consistent, and the tracer's
//!    self-measured overhead must stay inside the paper's ≤10% envelope.

use rpx::causal::CausalProfiler;
use rpx::inncabs::fib::{self, FibInput};
use rpx::inncabs::spawner::RpxSpawner;
use rpx::runtime::runtime::{Runtime, RuntimeConfig};
use rpx::runtime::trace::TaskSpan;
use rpx::simnode::{GraphBuilder, SimTask, TaskGraph};

fn fib_u64(n: u64) -> u64 {
    (0..n).fold((0u64, 1u64), |(a, b), _| (b, a + b)).0
}

fn span(task_id: u64, parent: Option<u64>, site: u32, net: u64) -> TaskSpan {
    TaskSpan {
        task_id,
        parent,
        site,
        worker: 0,
        start_ns: 0,
        end_ns: net,
        wait_ns: 0,
        nested_ns: 0,
    }
}

/// Relative error |got − want| / want.
fn rel_err(got: f64, want: f64) -> f64 {
    (got - want).abs() / want.abs().max(1e-12)
}

/// Synthetic spans of the fib(n) spawn tree, unit net duration per task.
fn fib_spans(n: u64) -> Vec<TaskSpan> {
    let mut spans = Vec::new();
    let mut next_id = 1u64;
    let mut stack = vec![(n, None::<u64>)];
    while let Some((k, parent)) = stack.pop() {
        let id = next_id;
        next_id += 1;
        spans.push(span(id, parent, 1, 1));
        if k >= 2 {
            stack.push((k - 1, Some(id)));
            stack.push((k - 2, Some(id)));
        }
    }
    spans
}

#[test]
fn fib20_matches_closed_form_within_one_percent() {
    const N: u64 = 20;
    let profiler = CausalProfiler::from_spans(&fib_spans(N));
    let analysis = profiler.analyze();

    let want_tasks = 2 * fib_u64(N + 1) - 1; // 21_891
    let want_span = N;
    assert_eq!(analysis.tasks, want_tasks);
    assert_eq!(analysis.work_ns, want_tasks, "unit work per task");
    assert!(
        rel_err(analysis.span_ns as f64, want_span as f64) < 0.01,
        "span {} vs oracle {want_span}",
        analysis.span_ns
    );
    assert_eq!(analysis.critical_path.len() as u64, want_span);

    // What-if: every task comes from one site, so a k× site speedup is a
    // k× program speedup in both work and span — projected makespan on P
    // cores is max(W/(kP), S/k).
    for k in [2.0, 10.0] {
        let w = profiler.what_if(1, k, 8);
        let want_span_k = want_span as f64 / k;
        let want_work_k = want_tasks as f64 / k;
        assert!(
            rel_err(w.span_ns, want_span_k) < 0.01,
            "what-if span {} vs {want_span_k}",
            w.span_ns
        );
        assert!(rel_err(w.work_ns, want_work_k) < 0.01);
        assert!(rel_err(w.makespan_ns, (want_work_k / 8.0).max(want_span_k)) < 0.01);
    }
}

/// A rows×cols stencil (wavefront) DAG: cell (r, c) depends on its left
/// and upper neighbours; grain varies per cell so the critical path is not
/// degenerate. Returns the graph and per-cell work.
fn stencil_graph(rows: usize, cols: usize) -> (TaskGraph, Vec<u64>) {
    let mut b = GraphBuilder::new();
    let mut work = Vec::with_capacity(rows * cols);
    let mut ids = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            // 1–3µs grains in a deterministic pattern.
            let w = 1_000 + ((r * 31 + c * 17) % 5) as u64 * 500;
            work.push(w);
            let id = b.add(SimTask::compute(w));
            if c > 0 {
                b.edge(ids[r * cols + c - 1], id);
            }
            if r > 0 {
                b.edge(ids[(r - 1) * cols + c], id);
            }
            ids.push(id);
        }
    }
    (b.build(), work)
}

/// Spans for the stencil from its *event-exact* infinite-core schedule:
/// finish(t) = work(t) + max over predecessors finish, and each task's
/// parent is the predecessor that released it (argmax finish). Down-chains
/// over that release forest reproduce the DAG's critical path exactly.
fn stencil_spans(rows: usize, cols: usize, work: &[u64]) -> Vec<TaskSpan> {
    let mut finish = vec![0u64; rows * cols];
    let mut spans = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let i = r * cols + c;
            let left = (c > 0).then(|| i - 1);
            let up = (r > 0).then(|| i - cols);
            let release = [left, up].into_iter().flatten().max_by_key(|&p| finish[p]);
            let start = release.map_or(0, |p| finish[p]);
            finish[i] = start + work[i];
            spans.push(TaskSpan {
                task_id: i as u64 + 1,
                parent: release.map(|p| p as u64 + 1),
                site: 2,
                worker: 0,
                start_ns: start,
                end_ns: finish[i],
                wait_ns: 0,
                nested_ns: 0,
            });
        }
    }
    spans
}

#[test]
fn simnode_stencil_span_matches_graph_critical_path() {
    let (rows, cols) = (24, 17);
    let (graph, work) = stencil_graph(rows, cols);
    graph.validate().expect("stencil DAG is well-formed");
    let spans = stencil_spans(rows, cols, &work);

    let profiler = CausalProfiler::from_spans(&spans);
    let analysis = profiler.analyze();

    let oracle = graph.critical_path_ns();
    assert_eq!(analysis.work_ns, graph.total_work_ns());
    assert!(
        rel_err(analysis.span_ns as f64, oracle as f64) < 0.01,
        "profiler span {} vs graph critical path {oracle}",
        analysis.span_ns
    );

    // Uniform what-if (all tasks share site 2): span scales by 1/k and the
    // projection stays within 1% of the scaled oracle.
    let w = profiler.what_if(2, 3.0, 4);
    assert!(
        rel_err(w.span_ns, oracle as f64 / 3.0) < 0.01,
        "what-if span {} vs {}",
        w.span_ns,
        oracle as f64 / 3.0
    );
}

#[test]
fn real_runtime_fib_profile_matches_spawn_oracle() {
    const N: u64 = 12;
    const WORKERS: usize = 2;
    let rt = Runtime::new(RuntimeConfig::with_workers(WORKERS));
    let tracer = rt.tracer();
    tracer.enable();
    let sp = RpxSpawner::new(rt.handle());
    // The window is read from the clock that stamps the spans: comparing
    // TSC-stamped busy time against an `Instant` window lets calibration
    // error between the two domains push a saturated worker past 100%.
    let clock = rt.registry().clock();
    let t0 = clock.now_ns();
    assert_eq!(fib::run(&sp, FibInput { n: N }), 144);
    rt.wait_idle();
    let wall_ns = clock.now_ns() - t0;
    tracer.disable();

    let spans = tracer.spans();
    // Every spawned task produced exactly one span: 2·fib(n+1) − 2 (the
    // top-level call runs on the test thread, both recursive branches are
    // spawned). Well under the 64k ring, so nothing wrapped.
    let want_tasks = 2 * fib_u64(N + 1) - 2;
    assert_eq!(tracer.dropped(), 0);
    assert_eq!(spans.len() as u64, want_tasks);

    let profiler = CausalProfiler::from_spans(&spans);
    let analysis = profiler.analyze();
    assert_eq!(analysis.tasks, want_tasks);
    // Physical consistency: net work cannot exceed the wall-clock budget
    // of the machine (workers × wall, with the test thread helping too).
    assert!(
        analysis.work_ns <= wall_ns * (WORKERS as u64 + 1),
        "net work {} exceeds wall budget {}",
        analysis.work_ns,
        wall_ns * (WORKERS as u64 + 1)
    );
    // The span is a chain through the profile; it cannot exceed the work.
    assert!(analysis.span_ns > 0 && analysis.span_ns <= analysis.work_ns);
    assert!(analysis.parallelism() >= 1.0);
    // All spans share the single RpxSpawner::spawn site.
    assert_eq!(
        analysis.sites.len(),
        1,
        "one spawn site: {:?}",
        analysis.sites
    );

    // The double-count regression (ISSUE 7 satellite): with nested
    // help-execution deducted, no single worker's profiled busy time can
    // exceed the window's wall time. Fib's blocking joins force helping,
    // so gross accounting would overshoot here.
    for (worker, busy_ns, tasks) in tracer.per_worker_profile() {
        assert!(
            busy_ns <= wall_ns,
            "worker {worker} profiled busy {busy_ns}ns over {tasks} tasks \
             exceeds the {wall_ns}ns window"
        );
    }
    rt.shutdown();
}

#[test]
fn tracer_overhead_stays_inside_ten_percent_envelope() {
    // The paper's ≤10% instrumentation envelope, proven by the tracer's
    // *self-measurement* counters: time spent inside record() vs the net
    // task execution time it measured. fib(17) gives ~5k microsecond-scale
    // tasks — small enough for CI, large enough that the ratio is stable.
    const N: u64 = 17;
    let rt = Runtime::new(RuntimeConfig::with_workers(2));
    let tracer = rt.tracer();
    tracer.enable();
    let sp = RpxSpawner::new(rt.handle());
    assert_eq!(fib::run(&sp, FibInput { n: N }), 1597);
    rt.wait_idle();
    tracer.disable();

    let recorded: u64 = tracer.spans().iter().map(|s| s.net_ns()).sum();
    let overhead = tracer.overhead_ns();
    assert!(tracer.records() > 0 && recorded > 0);
    // The paper's envelope applies to optimized builds (its measurements
    // are `-O3`); an unoptimized tracer against unoptimized microsecond
    // tasks lands near 20%, so debug builds only sanity-bound the ratio.
    // CI runs this test under `--release` where the strict bound holds
    // with an order of magnitude to spare.
    let max_percent: u64 = if cfg!(debug_assertions) { 50 } else { 10 };
    assert!(
        overhead * 100 <= recorded * max_percent,
        "tracer overhead {overhead}ns exceeds {max_percent}% of measured \
         execution {recorded}ns"
    );

    // The same figures via the public self-measurement counters.
    let reg = rt.registry();
    let counter_overhead = reg
        .evaluate("/runtime{locality#0/total}/trace/overhead-time", false)
        .expect("overhead counter registered")
        .value;
    let records = reg
        .evaluate("/runtime{locality#0/total}/trace/records", false)
        .expect("records counter registered")
        .value;
    assert_eq!(counter_overhead as u64, tracer.overhead_ns());
    assert_eq!(records as u64, tracer.records());
    rt.shutdown();
}

/// One `fib(n)` rep as the benchmark's `fib_traced_w2` runs it: the root
/// spawned from this thread, one branch spawned and one run inline below
/// it, and (traced) the wait for every span to land.
fn fib_rep(rt: &Runtime, n: u64) -> std::time::Duration {
    fn fib(h: &rpx::runtime::RuntimeHandle, n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let h2 = h.clone();
        let a = h.spawn(move || fib(&h2, n - 1));
        let b = fib(h, n - 2);
        a.get() + b
    }
    let h = rt.handle();
    let t0 = std::time::Instant::now();
    assert_eq!(rt.spawn(move || fib(&h, n)).get(), fib_u64(n));
    rt.wait_idle();
    t0.elapsed()
}

/// Median and quartiles of `ms`, as `p50 [p25–p75]`.
fn quartiles(ms: &mut [f64]) -> String {
    ms.sort_by(f64::total_cmp);
    let at = |q: f64| ms[((ms.len() - 1) as f64 * q).round() as usize];
    format!("{:7.3} [{:.3}–{:.3}]", at(0.5), at(0.25), at(0.75))
}

/// What a traced `fib` rep and the profile after it cost, run by hand:
/// `cargo test --release --test causal_oracle -- --ignored --nocapture
/// profile_cost_decomposition`. Fresh 2-worker runtimes run `fib(25)`
/// reps in three modes, taken in turn: untraced; traced with only a
/// `clear` after each rep; traced with the benchmark's profile after each
/// rep (`spans()`, `CausalProfiler::from_spans`, `analyze`, `clear`). It
/// prints each mode's rep wall and the profile's three phases, in ms.
#[test]
#[ignore = "a timing probe: run by hand in release"]
fn profile_cost_decomposition() {
    const N: u64 = 25;
    const REPS: usize = 20;
    const RUNTIMES: usize = 6;
    const WARM_UP: usize = 3;
    let mut untraced = Vec::new();
    let mut cleared = Vec::new();
    let mut profiled = Vec::new();
    let (mut copy, mut ingest, mut analyze) = (Vec::new(), Vec::new(), Vec::new());
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    for _ in 0..RUNTIMES {
        for mode in 0..3 {
            let rt = Runtime::new(RuntimeConfig::with_workers(2));
            let tracer = rt.tracer();
            if mode > 0 {
                tracer.enable();
            }
            for rep in 0..WARM_UP + REPS {
                let wall = ms(fib_rep(&rt, N));
                let timed = rep >= WARM_UP;
                match mode {
                    0 => {}
                    1 => tracer.clear(),
                    _ => {
                        let t0 = std::time::Instant::now();
                        let spans = tracer.spans();
                        let t1 = std::time::Instant::now();
                        let profiler = CausalProfiler::from_spans(&spans);
                        let t2 = std::time::Instant::now();
                        let analysis = profiler.analyze();
                        let t3 = std::time::Instant::now();
                        tracer.clear();
                        assert_eq!(analysis.tasks, spans.len() as u64);
                        if timed {
                            copy.push(ms(t1 - t0));
                            ingest.push(ms(t2 - t1));
                            analyze.push(ms(t3 - t2));
                        }
                    }
                }
                if timed {
                    [&mut untraced, &mut cleared, &mut profiled][mode].push(wall);
                }
            }
            rt.shutdown();
        }
    }
    println!(
        "fib({N}) on 2 workers, {RUNTIMES} runtimes x {REPS} reps per mode, ms p50 [p25–p75]:"
    );
    println!(
        "  untraced rep                 {}",
        quartiles(&mut untraced)
    );
    println!("  traced rep, clear only       {}", quartiles(&mut cleared));
    println!(
        "  traced rep after a profile   {}",
        quartiles(&mut profiled)
    );
    println!("  profile: spans()             {}", quartiles(&mut copy));
    println!("  profile: from_spans          {}", quartiles(&mut ingest));
    println!("  profile: analyze             {}", quartiles(&mut analyze));
}
