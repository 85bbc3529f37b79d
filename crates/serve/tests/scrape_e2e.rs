//! End-to-end scrape tests: a live runtime under load, scraped over real
//! TCP — text endpoint and binary stream — with topology churn.

use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use rpx_runtime::{Runtime, RuntimeConfig, RuntimeHandle};
use rpx_serve::collect::{http_get, parse_exposition, Merged, MergedRow};
use rpx_serve::proto::{self, Frame};
use rpx_serve::server::{attach_runtime, ServeConfig, Server};

mod common;

fn fib(h: &RuntimeHandle, n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let h2 = h.clone();
    let a = h.spawn(move || fib(&h2, n - 1));
    let b = fib(h, n - 2);
    a.get() + b
}

fn start_serving(interval: Duration) -> (Runtime, Server) {
    let rt = Runtime::new(RuntimeConfig::with_workers(2));
    let registry = rt.registry();
    let server = Server::start(
        &registry,
        ServeConfig {
            interval,
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
    attach_runtime(&rt, &server);
    (rt, server)
}

#[test]
fn text_endpoint_scrapes_are_monotone_and_stable_across_generations() {
    let (rt, server) = start_serving(Duration::from_millis(50));
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
    let (rt, server) = start_serving(Duration::from_secs(10));
    let addr = server.addr().to_string();
    assert_eq!(http_get(&addr, "/healthz").unwrap(), "ok\n");
    assert!(http_get(&addr, "/nonsense").is_err(), "404 is an error");
    rt.shutdown();
    server.shutdown();
}

#[test]
fn binary_stream_backfills_then_streams_dedupably() {
    let (rt, server) = start_serving(Duration::from_millis(40));
    let h = rt.handle();
    fib(&h, 16);
    // Let the publisher fill some history before the subscriber arrives.
    assert!(server.flush_now());
    assert!(server.flush_now());
    assert!(server.flush_now());

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(&proto::encode_hello(8)).unwrap();
    fib(&h, 14);
    let frames = proto::read_frames(&mut stream, 64).expect("stream decodes");

    let mut dict: HashMap<u32, String> = HashMap::new();
    let mut backfill = 0usize;
    let mut live = 0usize;
    let mut seen: HashSet<(u32, u64)> = HashSet::new();
    let mut max_backfill_seq = 0u64;
    let mut saw_live_after_backfill = false;
    for f in &frames {
        match f {
            Frame::Dict { id, name, .. } => {
                dict.insert(*id, name.clone());
            }
            Frame::Backfill { id, seq, .. } => {
                backfill += 1;
                assert!(dict.contains_key(id), "DICT must precede backfill");
                seen.insert((*id, *seq));
                max_backfill_seq = max_backfill_seq.max(*seq);
            }
            Frame::Sample { id, seq, .. } => {
                live += 1;
                assert!(dict.contains_key(id), "DICT must precede samples");
                // (id, seq) identifies a sample: a subscriber that sees it
                // in both backfill and live streams deduplicates exactly.
                if !seen.insert((*id, *seq)) {
                    assert!(
                        *seq <= max_backfill_seq,
                        "duplicate (id, seq) outside the backfill overlap"
                    );
                }
                if *seq > max_backfill_seq {
                    saw_live_after_backfill = true;
                }
            }
            Frame::Stats { .. } => {}
        }
    }
    assert!(
        backfill > 0,
        "history must be replayed to a late subscriber"
    );
    assert!(live > 0, "live samples must follow");
    assert!(saw_live_after_backfill, "stream must advance past backfill");
    assert!(
        dict.values().any(|n| n.contains("worker-thread#0")),
        "dictionary carries canonical names"
    );

    rt.shutdown();
    server.shutdown();
}

#[test]
fn quiesce_drain_hook_flushes_a_final_scrape() {
    let (rt, server) = start_serving(Duration::from_secs(30));
    let h = rt.handle();
    fib(&h, 16);
    let before = server
        .stats()
        .scrape_count
        .load(std::sync::atomic::Ordering::Relaxed);
    // The publisher interval is 30 s: without the drain hook no further
    // scrape would happen inside this test.
    let report = rt.quiesce(Duration::from_secs(10));
    assert!(report.drained);
    let after = server
        .stats()
        .scrape_count
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(
        after > before,
        "quiesce must force a final publish tick ({before} -> {after})"
    );
    rt.shutdown();
    server.shutdown();
}

#[test]
fn slow_subscribers_are_dropped_with_exact_accounting() {
    let (rt, server) = start_serving(Duration::from_millis(20));
    let h = rt.handle();
    fib(&h, 14);
    // Subscribe, then vanish without reading: the OS buffer eventually
    // fills (or the reset surfaces) and the publisher must disconnect the
    // subscriber and count the undelivered frames.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(&proto::encode_hello(0)).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    drop(stream);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let stats = server.stats();
    while std::time::Instant::now() < deadline {
        server.flush_now();
        if stats
            .stream_dropped
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        stats
            .stream_dropped
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0,
        "undelivered frames must be counted, not silently lost"
    );
    rt.shutdown();
    server.shutdown();
}

/// A subscriber that arrives while the publisher is ticking gets every
/// tick from the oldest one in its backfill on: none falls between the
/// backfill it was sent and the live stream it was enrolled in. The
/// export set is wide enough (2 000 counters × 64 samples of history)
/// that writing the backfill spans many 1 ms ticks.
#[test]
fn late_subscriber_sees_every_tick_since_its_backfill() {
    use std::io::Read;

    const INSTANCES: u32 = 2_000;
    const LIVE_TICKS: usize = 8;

    let registry = rpx_counters::CounterRegistry::new();
    common::register_cells(&registry, INSTANCES);
    let server = Server::start(
        &registry,
        ServeConfig {
            interval: Duration::from_millis(1),
            history: 64,
            specs: vec!["/app{locality#0/worker-thread#*}/cell".into()],
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    // Fill the history, so the backfill is as long as it gets.
    for _ in 0..64 {
        assert!(server.flush_now());
    }

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(&proto::encode_hello(64)).unwrap();

    // Every `seq` counter id 0 was sent under, backfilled or live, until
    // `LIVE_TICKS` live ones arrived.
    let (mut backfilled, mut live) = (Vec::new(), Vec::new());
    let (mut buf, mut used) = (Vec::new(), 0);
    let mut chunk = vec![0u8; 1 << 16];
    while live.len() < LIVE_TICKS {
        match proto::decode(&buf[used..]).expect("stream decodes") {
            Some((frame, len)) => {
                used += len;
                match frame {
                    Frame::Backfill { id: 0, seq, .. } => backfilled.push(seq),
                    Frame::Sample { id: 0, seq, .. } => live.push(seq),
                    _ => {}
                }
            }
            None => {
                buf.drain(..used);
                used = 0;
                let n = stream.read(&mut chunk).expect("stream stays open");
                assert!(n > 0, "stream ended after {} live ticks", live.len());
                buf.extend_from_slice(&chunk[..n]);
            }
        }
    }
    assert!(!backfilled.is_empty(), "history must be replayed");
    let mut seqs: Vec<u64> = backfilled.iter().chain(&live).copied().collect();
    seqs.sort_unstable();
    seqs.dedup();
    let missing: Vec<u64> = seqs.windows(2).flat_map(|w| w[0] + 1..w[1]).collect();
    assert!(
        missing.is_empty(),
        "ticks {missing:?} are neither in the backfill ({:?}..={:?}) nor on the live \
         stream ({:?}..={:?})",
        backfilled.first(),
        backfilled.last(),
        live.first(),
        live.last(),
    );
    server.shutdown();
}
