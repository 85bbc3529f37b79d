//! Regenerate Table IV's experiment synopsis: the configuration-space
//! comparisons the paper ran to pick its protocol — launch policies,
//! hyper-threading on/off, allocator, and queue discipline — plus the
//! simulator's steal-cost sensitivity (DESIGN.md §7 ablation 4).
//!
//! ```text
//! cargo run --release -p rpx-bench --bin tableiv
//! ```

use std::time::Instant;

use rpx_bench::platform_header;
use rpx_counters::stats::median_of;
use rpx_inncabs::{Benchmark, InputScale};
use rpx_runtime::{LaunchPolicy, Runtime, RuntimeConfig, RuntimeHandle, SchedulerMode};
use rpx_simnode::{simulate, HpxCostModel, MachineConfig, SimConfig, SimRuntimeKind};

fn fib(h: &RuntimeHandle, policy: LaunchPolicy, n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let h2 = h.clone();
    let a = h.spawn_with(policy, move || fib(&h2, policy, n - 1));
    let b = fib(h, policy, n - 2);
    a.get() + b
}

fn main() {
    println!("{}", platform_header());
    println!("Table IV — experiment synopsis (configuration comparisons)\n");

    // ------------------------------------------------------------------
    // 1. Launch policies (native runtime, fib(20), median of 5).
    //    The paper: "the async policy provides the best performance".
    // ------------------------------------------------------------------
    println!("1. Launch policies (native, fib(20), median of 5 samples):");
    let rt = Runtime::new(RuntimeConfig::with_workers(4));
    let h = rt.handle();
    for policy in LaunchPolicy::ALL {
        let samples: Vec<f64> = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                let v = fib(&h, policy, 20);
                assert_eq!(v, 6765);
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        println!("   {:<10} {:>10.2} ms", policy.name(), median_of(&samples));
    }
    rt.shutdown();

    // ------------------------------------------------------------------
    // 2. Hyper-threading (simulated, Alignment + FFT):
    //    the paper found "small change in performance" and disabled HT.
    // ------------------------------------------------------------------
    println!("\n2. Hyper-threading (simulated node):");
    for b in [Benchmark::Alignment, Benchmark::Fft] {
        let g = b.sim_graph(InputScale::Paper);
        let off = simulate(&g, &SimConfig::hpx(20));
        let on = simulate(
            &g,
            &SimConfig {
                machine: MachineConfig::ivy_bridge_2s10c_ht(),
                cores: 40,
                runtime: SimRuntimeKind::hpx(),
                collect_spans: false,
            },
        );
        println!(
            "   {:<10} HT off (20 threads): {:>9.1} ms   HT on (40 threads): {:>9.1} ms   delta {:>+6.1}%",
            b.entry().name,
            off.makespan_ns as f64 / 1e6,
            on.makespan_ns as f64 / 1e6,
            (on.makespan_ns as f64 / off.makespan_ns as f64 - 1.0) * 100.0
        );
    }

    // ------------------------------------------------------------------
    // 3. Allocator (simulated): tcmalloc-like vs system-malloc-like
    //    serialized allocation cost. The paper: "HPX benchmarks are
    //    configured using tcmalloc for best performance".
    // ------------------------------------------------------------------
    println!("\n3. Allocator (simulated, fib at 16 cores):");
    let g = Benchmark::Fib.sim_graph(InputScale::Paper);
    for (label, serial_ns) in [("tcmalloc-like", 50u64), ("system-malloc-like", 160)] {
        let config = SimConfig {
            machine: MachineConfig::ivy_bridge_2s10c(),
            cores: 16,
            runtime: SimRuntimeKind::Hpx {
                cost: HpxCostModel {
                    spawn_serial_ns: serial_ns,
                    ..HpxCostModel::default()
                },
                global_queue: false,
            },
            collect_spans: false,
        };
        let r = simulate(&g, &config);
        println!("   {:<20} {:>9.1} ms", label, r.makespan_ns as f64 / 1e6);
    }

    // ------------------------------------------------------------------
    // 4. Queue discipline (native, 2 workers, 2000-task burst).
    // ------------------------------------------------------------------
    println!("\n4. Queue discipline (native, 2000-task burst, median of 5):");
    for (label, mode) in [
        ("local-queues", SchedulerMode::LocalQueues),
        ("global-queue", SchedulerMode::GlobalQueue),
    ] {
        let rt = Runtime::new(RuntimeConfig {
            workers: 2,
            mode,
            ..RuntimeConfig::default()
        });
        let samples: Vec<f64> = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                let futures: Vec<_> = (0..2_000).map(|_| rt.spawn(|| ())).collect();
                for f in futures {
                    f.get();
                }
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        println!("   {:<14} {:>10.2} ms", label, median_of(&samples));
        rt.shutdown();
    }

    // ------------------------------------------------------------------
    // 5. Steal-cost sensitivity (simulated): how the virtual makespan
    //    responds to the cost model's steal parameter (default 1 200 ns).
    // ------------------------------------------------------------------
    println!("\n5. Steal-cost sensitivity (simulated, UTS at 8 cores):");
    let g = Benchmark::Uts.sim_graph(InputScale::Paper);
    for steal_ns in [300u64, 1_200, 6_000] {
        let mut config = SimConfig::hpx(8);
        if let SimRuntimeKind::Hpx { cost, .. } = &mut config.runtime {
            cost.steal_ns = steal_ns;
        }
        let r = simulate(&g, &config);
        println!(
            "   steal_ns {steal_ns:>5} {:>9.3} ms",
            r.makespan_ns as f64 / 1e6
        );
    }

    println!("\nprotocol conclusion (as in the paper): async policy, HT treated as\noff for clarity, tcmalloc-like allocation, local queues + stealing");
}
