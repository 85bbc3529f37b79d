//! End-to-end scrape tests: a live runtime under load, scraped over real
//! TCP with topology churn.

use std::collections::{HashMap, HashSet};

use rpx_runtime::{Runtime, RuntimeConfig, RuntimeHandle};
use rpx_serve::collect::{http_get, parse_exposition, Merged, MergedRow};
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

fn start_serving() -> (Runtime, Server) {
    let rt = Runtime::new(RuntimeConfig::with_workers(2));
    let registry = rt.registry();
    let server = Server::start(
        &registry,
        ServeConfig {
            specs: vec![
                "/threads{locality#0/worker-thread#*}/count/cumulative".into(),
                "/threads{locality#0/total}/count/cumulative".into(),
                "/threads{locality#0/total}/time/cumulative".into(),
                // Canonical name with `@`, `{}`, `#` and a comma: the
                // escaping torture case.
                "/statistics/max@/threads{locality#0/total}/time/average,8".into(),
            ],
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    (rt, server)
}

#[test]
fn text_endpoint_scrapes_are_monotone_and_stable_across_generations() {
    let (rt, server) = start_serving();
    let addr = server.addr().to_string();
    let h = rt.handle();

    fib(&h, 16);
    let first = parse_exposition(&http_get(&addr, "/metrics").expect("first scrape"));
    assert!(!first.is_empty(), "scrape must return samples");

    fib(&h, 16);
    // Topology-generation bump mid-scrape (what a watchdog worker respawn
    // does): metric names must stay stable, cumulative values monotone.
    rt.registry().bump_generation();
    fib(&h, 14);
    let second = parse_exposition(&http_get(&addr, "/metrics").expect("second scrape"));

    let first_names: HashSet<&String> = first.iter().map(|(n, _)| n).collect();
    let second_names: HashSet<&String> = second.iter().map(|(n, _)| n).collect();
    assert_eq!(
        first_names, second_names,
        "metric names must be stable across a topology-generation bump"
    );

    let first_by_name: HashMap<&String, f64> = first.iter().map(|(n, v)| (n, *v)).collect();
    for (name, value) in &second {
        if name.contains("cumulative") {
            let before = first_by_name[&name];
            assert!(
                *value >= before,
                "{name} went backwards: {before} -> {value}"
            );
            // The load between scrapes ran real tasks, so the totals grew.
        }
    }
    let total = second
        .iter()
        .find(|(n, _)| n.contains("rpx_threads_count_cumulative") && n.contains("total"))
        .expect("total task counter exported");
    assert!(
        total.1 > first_by_name[&total.0],
        "task totals must grow under load"
    );

    // The statistics counter's parameters (with comma) surface as an
    // escaped params label, and survive a CSV round trip quoted.
    let stats_metric = second
        .iter()
        .find(|(n, _)| n.starts_with("rpx_statistics_max"))
        .expect("statistics counter exported");
    assert!(
        stats_metric.0.contains("params=\""),
        "parameters must become a label: {}",
        stats_metric.0
    );
    let merged = Merged {
        rows: vec![MergedRow {
            source: addr.clone(),
            metric: stats_metric.0.clone(),
            value: stats_metric.1,
        }],
    };
    let csv = merged.to_csv();
    let row = csv.lines().nth(1).unwrap();
    assert!(
        row.contains("\"rpx_statistics_max"),
        "comma-bearing metric must be RFC-4180 quoted: {row}"
    );

    rt.shutdown();
    server.shutdown();
}

#[test]
fn http_misc_routes_behave() {
    let (rt, server) = start_serving();
    let addr = server.addr().to_string();
    assert_eq!(http_get(&addr, "/healthz").unwrap(), "ok\n");
    assert!(http_get(&addr, "/nonsense").is_err(), "404 is an error");
    rt.shutdown();
    server.shutdown();
}

/// A client that connects and sends nothing holds one handler, not the
/// accept loop: another client's probe is answered at once, not after the
/// idle connection's 2 s read timeout.
#[test]
fn an_idle_client_does_not_stall_other_scrapes() {
    let (rt, server) = start_serving();
    let addr = server.addr().to_string();
    let idle = std::net::TcpStream::connect(&addr).expect("idle client connects");
    // Let the accept loop (5 ms poll) take the idle connection first.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let t0 = std::time::Instant::now();
    assert_eq!(http_get(&addr, "/healthz").unwrap(), "ok\n");
    let waited = t0.elapsed();
    assert!(
        waited < std::time::Duration::from_millis(500),
        "/healthz took {waited:?} beside an idle connection"
    );
    assert!(http_get(&addr, "/metrics").unwrap().contains("rpx_"));
    drop(idle);
    rt.shutdown();
    server.shutdown();
}
