//! Integration: the extension features — histogram counters, distributed
//! (multi-locality) counter access, and task tracing — working against
//! live runtimes.

use std::sync::{Arc, Barrier};

use rpx::counters::histogram::snapshot_of;
use rpx::counters::{CounterName, DistributedRegistry};
use rpx::runtime::{Runtime, RuntimeConfig};

fn spin(n: u64) -> u64 {
    let mut acc = 0u64;
    for i in 0..n {
        acc = acc.wrapping_add(i).rotate_left(7);
    }
    acc
}

#[test]
fn histogram_of_live_task_durations() {
    let rt = Runtime::new(RuntimeConfig::with_workers(2));
    let reg = rt.registry();
    let name: CounterName =
        "/statistics/histogram@/threads{locality#0/total}/time/average,0,1000000,20"
            .parse()
            .unwrap();
    let hist = reg.get_counter(&name).unwrap();

    for round in 0..10 {
        let futures: Vec<_> = (0..20)
            .map(|_| rt.spawn(move || std::hint::black_box(spin(1_000 * (round + 1)))))
            .collect();
        for f in futures {
            f.get();
        }
        hist.get_value_at(false, 0); // sample the average into the histogram
    }

    let snap = snapshot_of(&hist).expect("histogram downcast");
    assert_eq!(snap.total(), 10, "one sample per round");
    assert!(snap.mode().is_some());
    rt.shutdown();
}

#[test]
fn distributed_registry_over_two_runtimes() {
    let rt0 = Runtime::new(RuntimeConfig {
        workers: 2,
        locality: 0,
        ..Default::default()
    });
    let rt1 = Runtime::new(RuntimeConfig {
        workers: 2,
        locality: 1,
        ..Default::default()
    });
    let cluster = DistributedRegistry::new(vec![rt0.registry(), rt1.registry()]);

    let f0: Vec<_> = (0..50).map(|_| rt0.spawn(|| ())).collect();
    let f1: Vec<_> = (0..150).map(|_| rt1.spawn(|| ())).collect();
    f0.into_iter().for_each(|f| f.get());
    f1.into_iter().for_each(|f| f.get());
    rt0.wait_idle();
    rt1.wait_idle();

    // Remote point query.
    let v = cluster
        .evaluate("/threads{locality#1/total}/count/cumulative", false)
        .unwrap();
    assert_eq!(v.len(), 1);
    assert!(v[0].1.value >= 150);

    // Locality fan-out aggregation.
    let total = cluster
        .evaluate_sum("/threads{locality#*/total}/count/cumulative", false)
        .unwrap();
    assert!(total >= 200.0, "cluster-wide count {total}");

    // Remote per-worker wildcard.
    let per_worker = cluster
        .evaluate(
            "/threads{locality#1/worker-thread#*}/count/cumulative",
            false,
        )
        .unwrap();
    assert_eq!(per_worker.len(), 2);
    let sum: f64 = per_worker.iter().map(|(_, v)| v.scaled()).sum();
    assert!(sum >= 150.0);

    rt0.shutdown();
    rt1.shutdown();
}

#[test]
fn tracer_profile_accounts_for_all_workers_used() {
    // The first three tasks meet at a barrier, so none of them finishes
    // before three different workers hold one each (an external `get`
    // blocks rather than helps): every worker runs a task and records it
    // on its own ring.
    const WORKERS: usize = 3;
    const TASKS: usize = 600;
    let rt = Runtime::new(RuntimeConfig::with_workers(WORKERS));
    let tracer = rt.tracer();
    tracer.enable();
    let barrier = Arc::new(Barrier::new(WORKERS));
    let futures: Vec<_> = (0..TASKS)
        .map(|i| {
            let barrier = (i < WORKERS).then(|| barrier.clone());
            rt.spawn(move || {
                if let Some(barrier) = barrier {
                    barrier.wait();
                }
                std::hint::black_box(spin(2_000))
            })
        })
        .collect();
    for f in futures {
        f.get();
    }
    rt.wait_idle();
    tracer.disable();
    let profile = tracer.per_worker_profile();
    let workers: Vec<u32> = profile.iter().map(|&(w, _, _)| w).collect();
    assert_eq!(workers, [0, 1, 2], "profile: {profile:?}");
    let tasks: u64 = profile.iter().map(|(_, _, t)| t).sum();
    assert_eq!(tasks, TASKS as u64);
    rt.shutdown();
}
