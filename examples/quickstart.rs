//! Quickstart: spawn lightweight tasks, then ask the runtime how it did —
//! through the same counter interface HPX applications use (Table II: the
//! port from `std::async` is just the namespace).
//!
//! The paper's §IV command-line conveniences work here too: counters can
//! be listed, or printed at shutdown or on an interval, around the same
//! fib run.
//!
//! ```text
//! cargo run --example quickstart
//! cargo run --example quickstart -- --rpx:list-counters
//! cargo run --example quickstart -- \
//!     "--rpx:print-counter=/threads{locality#0/total}/time/average" \
//!     --rpx:print-counter-interval=50
//! ```

use rpx::counters::cli::{CounterCli, CounterCliOptions};
use rpx::runtime::{Runtime, RuntimeConfig, RuntimeHandle};

fn fib(h: &RuntimeHandle, n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    // std::async(fib, n-1)  →  handle.spawn(...)   (Table II)
    let h2 = h.clone();
    let a = h.spawn(move || fib(&h2, n - 1));
    let b = fib(h, n - 2);
    a.get() + b // future::get(), exactly like std::future
}

fn main() {
    let (options, _rest) =
        CounterCliOptions::parse(std::env::args().skip(1)).expect("bad --rpx option");
    let rt = Runtime::new(RuntimeConfig::with_workers(4));
    let registry = rt.registry();
    let cli = CounterCli::start(registry.clone(), options).expect("counter CLI failed");

    // The paper's measurement protocol: activate counters, reset, run the
    // sample, evaluate.
    for name in [
        "/threads{locality#0/total}/count/cumulative",
        "/threads{locality#0/total}/time/average",
        "/threads{locality#0/total}/time/average-overhead",
        "/threads{locality#0/total}/time/cumulative",
        "/threads{locality#0/total}/time/cumulative-overhead",
        "/threads{locality#0/total}/count/stolen",
    ] {
        registry.add_active(name).expect("counter exists");
    }
    registry.reset_active_counters();

    let h = rt.handle();
    let result = fib(&h, 23);
    rt.wait_idle();

    println!("fib(23) = {result}\n");
    println!("{:<55} {:>15}", "counter", "value");
    // reset=false: the derived counter below still needs the cumulatives.
    for (entry, sample) in &registry.evaluate_active_counters(false) {
        println!("{:<55} {:>15.0}", entry.canonical, sample.value);
    }

    // Derived counters compose on the fly: average task duration recomputed
    // from the cumulatives through /arithmetics/divide.
    let derived = registry
        .evaluate(
            "/arithmetics/divide@/threads{locality#0/total}/time/cumulative,\
             /threads{locality#0/total}/count/cumulative",
            false,
        )
        .unwrap();
    println!(
        "\nderived avg task duration: {} ns (via /arithmetics/divide)",
        derived.value
    );

    cli.finish().expect("counter output failed");
    rt.shutdown();
}
