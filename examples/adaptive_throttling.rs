//! Runtime adaptivity from intrinsic counters — the capability the paper
//! positions as the basis for APEX-style policy engines (§IV, §VII).
//!
//! The application submits work in waves and *adapts its own concurrency*
//! between waves by querying the runtime's counters: if the measured
//! per-task scheduling overhead is a large fraction of the task duration,
//! the next wave uses coarser chunks; if overhead is negligible, it
//! refines. No external tool, no post-processing — decisions happen
//! in-process, mid-run.
//!
//! ```text
//! cargo run --example adaptive_throttling
//! ```

use rpx::runtime::{Runtime, RuntimeConfig};

fn busy_work(items: u64) -> u64 {
    let mut acc = 0u64;
    for i in 0..items {
        acc = acc.wrapping_add(i.wrapping_mul(2_654_435_761));
        acc ^= acc >> 13;
    }
    acc
}

fn main() {
    let rt = Runtime::new(RuntimeConfig::with_workers(4));
    let registry = rt.registry();
    registry
        .add_active("/threads{locality#0/total}/time/average")
        .unwrap();
    registry
        .add_active("/threads{locality#0/total}/time/average-overhead")
        .unwrap();

    const TOTAL_ITEMS: u64 = 4_000_000;
    let mut chunk: u64 = 500; // deliberately far too fine
    println!(
        "{:>5} {:>10} {:>14} {:>16} {:>10}",
        "wave", "chunk", "avg task ns", "avg overhead ns", "ratio"
    );

    for wave in 0..8 {
        registry.reset_active_counters();

        let tasks = TOTAL_ITEMS / chunk;
        let futures: Vec<_> = (0..tasks)
            .map(|_| rt.spawn(move || busy_work(chunk)))
            .collect();
        let mut sink = 0u64;
        for f in futures {
            sink ^= f.get();
        }
        std::hint::black_box(sink);

        let values = registry.evaluate_active_counters(true);
        let avg_task = values.samples()[0].value.max(1.0);
        let avg_ovh = values.samples()[1].value;
        let ratio = avg_ovh / avg_task;
        println!("{wave:>5} {chunk:>10} {avg_task:>14.0} {avg_ovh:>16.0} {ratio:>10.3}");

        // The policy: keep scheduling overhead between 1% and 5% of the
        // task duration (the paper's very-fine benchmarks sit at 50–100%).
        if ratio > 0.05 {
            chunk = (chunk * 4).min(TOTAL_ITEMS / 4);
        } else if ratio < 0.01 && chunk > 1_000 {
            chunk /= 2;
        }
    }

    println!("\nconverged chunk size: {chunk} items — overhead held in the target band");
    rt.shutdown();
}
