//! Run Inncabs benchmarks natively on both runtimes — the lightweight-task
//! runtime vs. one-OS-thread-per-task — and report what the intrinsic
//! counters saw. This is the paper's §VI comparison on real (small-scale)
//! executions rather than the simulator.
//!
//! ```text
//! cargo run --release --example inncabs_compare [-- fib sort nqueens]
//! ```

use std::sync::Arc;
use std::time::Instant;

use rpx::baseline::BaselineRuntime;
use rpx::inncabs::{self, RpxSpawner, SerialSpawner, Spawner, StdSpawner};
use rpx::runtime::{Runtime, RuntimeConfig};

fn run_bench<S: Spawner>(name: &str, sp: &S) -> Option<(u64, std::time::Duration)> {
    let t0 = Instant::now();
    let checksum = match name {
        "fib" => inncabs::fib::run(sp, inncabs::fib::FibInput::test()),
        "sort" => {
            let out = inncabs::sort::run(sp, inncabs::sort::SortInput::test());
            out.iter().fold(0u64, |a, &x| a.wrapping_add(x))
        }
        "nqueens" => inncabs::nqueens::run(sp, inncabs::nqueens::NQueensInput { n: 8 }),
        "uts" => inncabs::uts::run(sp, inncabs::uts::UtsInput::test()),
        "alignment" => {
            inncabs::alignment::run(sp, inncabs::alignment::AlignmentInput::test()) as u64
        }
        "intersim" => {
            let out = inncabs::intersim::run(sp, inncabs::intersim::IntersimInput::test());
            out.arrivals
        }
        "round" => {
            let out = inncabs::round::run(sp, inncabs::round::RoundInput::test());
            out.accounts.iter().fold(0u64, |a, &x| a.wrapping_add(x))
        }
        "health" => inncabs::health::run(sp, inncabs::health::HealthInput::test()).treated,
        "pyramids" => {
            let out = inncabs::pyramids::run(sp, inncabs::pyramids::PyramidsInput::test());
            out.len() as u64
        }
        _ => return None,
    };
    Some((checksum, t0.elapsed()))
}

fn main() {
    let mut names: Vec<String> = std::env::args().skip(1).collect();
    if names.is_empty() {
        names = ["fib", "sort", "nqueens", "intersim"]
            .iter()
            .map(|s| s.to_string())
            .collect();
    }

    println!(
        "{:<10} {:>14} {:>14} {:>14} {:>12} {:>14} {:>12}",
        "benchmark", "serial", "hpx-like", "std-thread", "hpx tasks", "hpx avg ns", "hpx ovh ns"
    );

    for name in &names {
        // Serial oracle.
        let Some((serial_sum, serial_t)) = run_bench(name, &SerialSpawner) else {
            eprintln!("{name}: unknown benchmark");
            continue;
        };

        // Lightweight-task runtime with counters.
        let rt = Runtime::new(RuntimeConfig::with_workers(4));
        let reg = rt.registry();
        reg.add_active("/threads{locality#0/total}/count/cumulative")
            .unwrap();
        reg.add_active("/threads{locality#0/total}/time/average")
            .unwrap();
        reg.add_active("/threads{locality#0/total}/time/average-overhead")
            .unwrap();
        reg.reset_active_counters();
        let (hpx_sum, hpx_t) = run_bench(name, &RpxSpawner::new(rt.handle())).unwrap();
        rt.wait_idle();
        let counters = reg.evaluate_active_counters(false);
        let values = counters.samples();
        let (tasks, avg, ovh) = (values[0].value, values[1].value, values[2].value);
        rt.shutdown();

        // Thread-per-task baseline.
        let baseline = Arc::new(BaselineRuntime::with_defaults());
        let (std_sum, std_t) = run_bench(name, &StdSpawner::new(baseline)).unwrap();

        assert_eq!(serial_sum, hpx_sum, "{name}: hpx checksum mismatch");
        assert_eq!(serial_sum, std_sum, "{name}: std checksum mismatch");

        println!(
            "{:<10} {:>11.2?} {:>11.2?} {:>11.2?} {:>12} {:>14} {:>12}",
            name, serial_t, hpx_t, std_t, tasks, avg, ovh
        );
    }
    println!("\nchecksums verified against the serial oracle for every row");
}
