//! Serve live telemetry for a runtime under a fib workload.
//!
//! Starts the lightweight runtime, exports its counters over HTTP
//! (`/metrics`), and keeps a fib load running so there is something to
//! watch. Every scrape is a client's `GET /metrics`. Prints
//! `listening on <addr>` once the port is bound — harnesses parse that
//! line to find a dynamically chosen port.
//!
//! ```sh
//! rpx-serve [--workers N] [--addr 127.0.0.1:0] [--fib 24]
//!           [--duration-ms 0] [--assert-overhead-pct 0]
//! ```
//!
//! With `--duration-ms D` the process runs the load for D ms, prints a
//! self-measurement summary (scrape count, scrape time, payload bytes,
//! overhead relative to cumulative task execution time) and exits; with
//! `--assert-overhead-pct P` it additionally exits non-zero when the
//! self-measured scrape overhead exceeds P percent — the CI smoke gate.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rpx_runtime::{Runtime, RuntimeConfig, RuntimeHandle};
use rpx_serve::server::{ServeConfig, Server};

fn fib(h: &RuntimeHandle, n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let h2 = h.clone();
    let a = h.spawn(move || fib(&h2, n - 1));
    let b = fib(h, n - 2);
    a.get() + b
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workers: usize = arg_value(&args, "--workers")
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let addr = arg_value(&args, "--addr").unwrap_or_else(|| "127.0.0.1:0".into());
    let fib_n: u64 = arg_value(&args, "--fib")
        .and_then(|v| v.parse().ok())
        .unwrap_or(24);
    let duration_ms: u64 = arg_value(&args, "--duration-ms")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let assert_overhead_pct: u64 = arg_value(&args, "--assert-overhead-pct")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);

    let rt = Runtime::new(RuntimeConfig::with_workers(workers));
    let registry = rt.registry();
    let server = Server::start(
        &registry,
        ServeConfig {
            addr,
            specs: vec![
                "/threads{locality#0/worker-thread#*}/count/cumulative".into(),
                "/threads{locality#0/total}/count/cumulative".into(),
                "/threads{locality#0/total}/time/cumulative".into(),
                "/threads{locality#0/total}/time/average".into(),
                "/threads{locality#0/total}/time/average-overhead".into(),
                "/threads{locality#0/total}/idle-rate".into(),
                "/counters/serve/scrape-count".into(),
                "/counters/serve/scrape-time".into(),
                "/counters/serve/bytes".into(),
            ],
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("rpx-serve: {e}");
        std::process::exit(2);
    });
    println!("listening on {}", server.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    // Background load: keep re-running fib until asked to stop.
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let h = rt.handle();
    let load = std::thread::spawn(move || {
        while !stop2.load(Ordering::Relaxed) {
            let _ = fib(&h, fib_n);
        }
    });

    if duration_ms == 0 {
        // Run until stdin closes (or forever when detached).
        let mut sink = String::new();
        let _ = std::io::stdin().read_line(&mut sink);
    } else {
        std::thread::sleep(Duration::from_millis(duration_ms));
    }

    stop.store(true, Ordering::Relaxed);
    let _ = load.join();
    rt.wait_idle();

    let read = |name: &str| {
        registry
            .evaluate(name, false)
            .map(|v| v.value)
            .unwrap_or_default()
    };
    let scrape_count = read("/counters/serve/scrape-count");
    let scrape_ns = read("/counters/serve/scrape-time");
    let bytes = read("/counters/serve/bytes");
    let exec_ns = read("/threads{locality#0/total}/time/cumulative");
    let overhead_pct = if exec_ns > 0 {
        scrape_ns as f64 * 100.0 / exec_ns as f64
    } else {
        0.0
    };
    println!("/counters/serve/scrape-count   {scrape_count}");
    println!("/counters/serve/scrape-time    {scrape_ns} ns");
    println!("/counters/serve/bytes          {bytes}");
    println!("/threads/time/cumulative       {exec_ns} ns");
    println!("serve-overhead                 {overhead_pct:.3} %");

    server.shutdown();
    rt.shutdown();

    if assert_overhead_pct > 0 && overhead_pct > assert_overhead_pct as f64 {
        eprintln!(
            "rpx-serve: scrape overhead {overhead_pct:.3}% exceeds the \
             {assert_overhead_pct}% envelope"
        );
        std::process::exit(1);
    }
}
