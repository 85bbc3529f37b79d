//! Export a task timeline from the runtime's own tracer — post-mortem
//! analysis without any external tool attaching to the process (the
//! paper's §II contrast: TAU/HPCToolkit need a thread table and a file
//! per thread; the runtime just writes what it already knows). Then the
//! same kind of view in virtual time: an interval-sampled timeline of one
//! simulated run on the paper's 20-core node.
//!
//! ```text
//! cargo run --release --example task_timeline
//! # then load /tmp/rpx_trace.json in chrome://tracing or ui.perfetto.dev
//! ```

use rpx::causal::CausalProfiler;
use rpx::inncabs::{self, Benchmark, InputScale, RpxSpawner};
use rpx::runtime::{Runtime, RuntimeConfig};
use rpx::simnode::{simulate, SimConfig};

fn main() {
    let rt = Runtime::new(RuntimeConfig::with_workers(4));
    let tracer = rt.tracer();
    tracer.enable();

    // Trace a real benchmark: NQueens(8), one task per placement.
    let sp = RpxSpawner::new(rt.handle());
    let solutions = inncabs::nqueens::run(&sp, inncabs::nqueens::NQueensInput { n: 8 });
    rt.wait_idle();
    tracer.disable();

    let spans = tracer.spans();
    println!(
        "nqueens(8) = {solutions} solutions, {} task spans captured",
        spans.len()
    );
    if tracer.dropped() > 0 {
        println!(
            "(ring buffer wrapped; {} oldest spans dropped)",
            tracer.dropped()
        );
    }

    println!("\nper-worker profile:");
    println!(
        "{:>7} {:>12} {:>8} {:>12}",
        "worker", "busy µs", "tasks", "avg ns"
    );
    for (worker, busy_ns, tasks) in tracer.per_worker_profile() {
        println!(
            "{worker:>7} {:>12.1} {tasks:>8} {:>12.0}",
            busy_ns as f64 / 1e3,
            busy_ns as f64 / tasks.max(1) as f64
        );
    }

    // The same spans as a work/span profile with per-site what-if
    // projections (DESIGN.md §15).
    println!("\n{}", CausalProfiler::from_spans(&spans).report(4));

    let path = std::env::temp_dir().join("rpx_trace.json");
    std::fs::write(&path, tracer.to_chrome_trace()).expect("write trace");
    println!(
        "\nwrote {} — load it in chrome://tracing or ui.perfetto.dev",
        path.display()
    );

    // The wait-time distribution through a histogram counter, while we
    // are at it: histogram of task durations sampled from the spans.
    let durations: Vec<u64> = spans.iter().map(|s| s.duration_ns()).collect();
    let max = *durations.iter().max().unwrap_or(&1);
    let mut buckets = [0u64; 10];
    for d in &durations {
        buckets[((d * 9) / max.max(1)) as usize] += 1;
    }
    println!(
        "\ntask-duration histogram (0 .. {:.1} µs):",
        max as f64 / 1e3
    );
    for (i, c) in buckets.iter().enumerate() {
        println!("  bucket {i}: {}", "#".repeat((*c as usize).min(60)));
    }
    rt.shutdown();

    // The virtual-time counterpart of `--hpx:print-counter-interval`: core
    // utilization and off-core bandwidth over a run of Sort on 10 cores of
    // the simulated node (DESIGN.md §3), from the simulator's spans.
    let (cores, bins) = (10, 20);
    let mut config = SimConfig::hpx(cores);
    config.collect_spans = true;
    let result = simulate(&Benchmark::Sort.sim_graph(InputScale::Paper), &config);
    println!("\n# {}", config.machine.describe());
    println!(
        "sort on {cores} simulated cores: {:.2} ms makespan, {} tasks, {:.2} GB/s offcore\n",
        result.makespan_ns as f64 / 1e6,
        result.tasks_executed,
        result.offcore_bandwidth_gbps()
    );
    let tl = result.timeline(bins);
    print!("{}", tl.render());
    println!(
        "\npeak concurrency: {:.1} busy cores; utilization {:.1}%",
        tl.peak_busy_cores(),
        result.utilization() * 100.0
    );
}
