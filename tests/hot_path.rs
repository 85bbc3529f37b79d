//! Integration tests for the spawn/join hot path: lost-wakeup freedom
//! under concurrent external spawning and parking workers, the timed-wait
//! semantics of deferred futures, and the exactness of the per-worker task
//! ledger (`wait_idle`, the pending/active gauges, the drift counter, task
//! ids).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rpx::runtime::{LaunchPolicy, Runtime, RuntimeConfig, RuntimeHandle};

/// Lost-wakeup stress: external threads spawn trivial tasks with gaps long
/// enough for workers to park between bursts, exercising the racy edge of
/// the lock-free sleeper probe (push → fence → count-load vs. register →
/// fence → queue-probe). A lost wakeup shows up as a future that never
/// completes within the deadline; with the 500µs park timeout as a safety
/// net, a *systematic* loss would still blow the per-future deadline under
/// this volume.
#[test]
fn external_spawn_storm_never_loses_wakeups() {
    let rt = Runtime::new(RuntimeConfig::with_workers(2));
    let executed = Arc::new(AtomicU64::new(0));
    const THREADS: usize = 4;
    const SPAWNS: usize = 500;

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let rt = &rt;
            let executed = executed.clone();
            s.spawn(move || {
                for i in 0..SPAWNS {
                    let executed = executed.clone();
                    let f = rt.spawn(move || {
                        executed.fetch_add(1, Ordering::Relaxed);
                        i as u64
                    });
                    assert_eq!(
                        f.get_timeout(Duration::from_secs(10))
                            .unwrap_or_else(|_| panic!("spawn {i} of thread {t} lost")),
                        i as u64
                    );
                    // Let workers drain and park so the next spawn races
                    // against sleeper registration rather than a busy loop.
                    if i % 16 == 0 {
                        std::thread::sleep(Duration::from_micros(700));
                    }
                }
            });
        }
    });

    assert_eq!(executed.load(Ordering::Relaxed), (THREADS * SPAWNS) as u64);
    let total = rt
        .registry()
        .evaluate("/threads{locality#0/total}/count/cumulative", false)
        .unwrap();
    assert!(total.value >= (THREADS * SPAWNS) as i64);
    rt.shutdown();
}

/// Regression (public API): a timed wait on a deferred future must hand the
/// future back without executing the deferred closure — previously
/// `get_timeout(ZERO)` ran the whole closure on the calling thread.
#[test]
fn get_timeout_hands_back_deferred_future_unrun() {
    let rt = Runtime::new(RuntimeConfig::with_workers(1));
    let ran = Arc::new(AtomicBool::new(false));
    let r2 = ran.clone();
    let f = rt.spawn_with(LaunchPolicy::Deferred, move || {
        r2.store(true, Ordering::SeqCst);
        42u64
    });
    let f = f
        .get_timeout(Duration::ZERO)
        .expect_err("deferred future must not complete under a timed wait");
    assert!(
        !ran.load(Ordering::SeqCst),
        "timed wait must not run the deferred closure"
    );
    assert_eq!(f.get(), 42, "an unbounded wait still runs it");
    assert!(ran.load(Ordering::SeqCst));
    rt.shutdown();
}

/// The pending-accounting drift counter exists, reads zero on a healthy
/// run, and is discoverable as a total-only instance.
#[test]
fn pending_underflows_counter_reads_zero_on_healthy_run() {
    let rt = Runtime::new(RuntimeConfig::with_workers(2));
    let futures: Vec<_> = (0..200).map(|i| rt.spawn(move || i * 2)).collect();
    for (i, f) in futures.into_iter().enumerate() {
        assert_eq!(f.get(), i * 2);
    }
    rt.wait_idle();
    let v = rt
        .registry()
        .evaluate(
            "/runtime{locality#0/total}/health/pending-underflows",
            false,
        )
        .unwrap();
    assert_eq!(v.value, 0, "healthy runs must show zero accounting drift");
    // The pending gauge is derived from the ledger `wait_idle` just read
    // as balanced: it is zero now, not eventually.
    let pending = rt
        .registry()
        .evaluate(
            "/threads{locality#0/total}/count/instantaneous/pending",
            false,
        )
        .unwrap();
    assert_eq!(
        pending.value, 0,
        "drained runtime still shows pending tasks"
    );
    rt.shutdown();
}

/// Ledger exactness under everything that moves a task between shards:
/// two external threads spawn detached roots (external shard → injector),
/// the roots spawn detached children and grandchildren from inside tasks
/// (worker shards → local deques), and three otherwise idle workers steal.
/// Nobody joins anything, so `wait_idle` is the only completion signal: it
/// must never return while a side effect is missing, round after round,
/// and the derived gauges must read exactly zero each time it does.
#[test]
fn ledger_stays_exact_under_detached_spawns_steals_and_external_spawners() {
    const ROUNDS: u64 = 1000;
    const SPAWNERS: u64 = 2;
    const CHILDREN: u64 = 8;
    // A root, its children, and a grandchild under every second child.
    const TASKS_PER_ROOT: u64 = 1 + CHILDREN + CHILDREN / 2;
    let rt = Runtime::new(RuntimeConfig::with_workers(4));
    let done = Arc::new(AtomicU64::new(0));
    let eval = |path: &str| rt.registry().evaluate(path, false).unwrap().value;
    // Spawners and the waiter meet twice per round: after the spawns (so
    // they happen-before the `wait_idle`), and after the check.
    let barrier = std::sync::Barrier::new(SPAWNERS as usize + 1);

    std::thread::scope(|s| {
        for _ in 0..SPAWNERS {
            s.spawn(|| {
                for _ in 0..ROUNDS {
                    let (h, done) = (rt.handle(), done.clone());
                    drop(rt.spawn(move || {
                        for child in 0..CHILDREN {
                            let (h2, done) = (h.clone(), done.clone());
                            drop(h.spawn(move || {
                                if child % 2 == 0 {
                                    let done = done.clone();
                                    drop(h2.spawn(move || {
                                        done.fetch_add(1, Ordering::Relaxed);
                                    }));
                                }
                                done.fetch_add(1, Ordering::Relaxed);
                            }));
                        }
                        done.fetch_add(1, Ordering::Relaxed);
                    }));
                    barrier.wait();
                    barrier.wait();
                }
            });
        }
        for round in 1..=ROUNDS {
            barrier.wait();
            rt.wait_idle();
            assert_eq!(
                done.load(Ordering::Relaxed),
                round * SPAWNERS * TASKS_PER_ROOT,
                "round {round}: wait_idle returned with a task's side effect missing"
            );
            for gauge in ["pending", "active"] {
                let path = format!("/threads{{locality#0/total}}/count/instantaneous/{gauge}");
                assert_eq!(eval(&path), 0, "round {round}: {gauge} gauge");
            }
            barrier.wait();
        }
    });

    let total = (ROUNDS * SPAWNERS * TASKS_PER_ROOT) as i64;
    assert_eq!(eval("/threads{locality#0/total}/count/cumulative"), total);
    assert_eq!(
        eval("/runtime{locality#0/total}/health/pending-underflows"),
        0
    );
    assert!(
        eval("/threads{locality#0/total}/count/stolen") > 0,
        "the idle workers must have stolen some of it"
    );
    rt.shutdown();
}

/// Workers draw task ids from private blocks and external threads one at a
/// time from the same source; the causal profiler dedups spans by id, so
/// an id handed out twice would silently merge two tasks. Every worker
/// spawns well past one block here.
#[test]
fn task_ids_stay_unique_across_workers_and_external_spawners() {
    const ROOTS: usize = 8;
    const CHILDREN: usize = 2500;
    let rt = Runtime::new(RuntimeConfig::with_workers(4));
    let tracer = rt.tracer();
    tracer.enable();
    let roots: Vec<_> = (0..ROOTS)
        .map(|_| {
            let h = rt.handle();
            rt.spawn(move || {
                let children: Vec<_> = (0..CHILDREN).map(|i| h.spawn(move || i)).collect();
                children.into_iter().map(|f| f.get()).sum::<usize>()
            })
        })
        .collect();
    for root in roots {
        assert_eq!(root.get(), CHILDREN * (CHILDREN - 1) / 2);
    }
    rt.wait_idle();
    tracer.disable();
    assert_eq!(tracer.dropped(), 0, "well under the 64k-span ring");
    let spans = tracer.spans();
    assert_eq!(spans.len(), ROOTS * (CHILDREN + 1));
    let spawners: std::collections::BTreeSet<u32> = spans.iter().map(|s| s.worker).collect();
    assert!(
        spawners.len() > 1,
        "one worker ran everything: {spawners:?}"
    );
    let mut ids: Vec<u64> = spans.iter().map(|s| s.task_id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), spans.len(), "a task id was handed out twice");
    rt.shutdown();
}

/// Regression: the watchdog used to `sleep` a whole interval before it
/// looked at the shutdown flag, so every `shutdown` (and every drop of a
/// runtime) waited one out — 20 ms, six times per taskbench ladder pass.
/// It parks now and `shutdown` unparks it. The interval is a constant, so
/// this only bounds the whole round trip; that a stop wakes a parked tick
/// at once is `sampler::tests::stop_does_not_wait_out_the_interval`.
#[test]
fn shutdown_does_not_wait_out_the_watchdog_interval() {
    let t0 = std::time::Instant::now();
    let rt = Runtime::new(RuntimeConfig::with_workers(1));
    assert_eq!(rt.spawn(|| 6 * 7).get(), 42);
    rt.shutdown();
    assert!(
        t0.elapsed() < Duration::from_millis(500),
        "new + shutdown took {:?}",
        t0.elapsed()
    );
}

/// Regression for the park gate under the lock-free deques: workers park
/// between bursts while root tasks push children onto their *local* deques
/// (the path where `Scheduler::has_queued_work` must observe a lock-free
/// `is_empty` probe and the sleeper fences must still pair with the push).
/// Each burst makes the other workers cycle through register → probe →
/// park → unpark while steals (single and batched) race the owner's pops.
/// A lost wakeup strands a root task's children and blows the deadline.
#[test]
fn steals_during_park_unpark_never_lose_wakeups() {
    let rt = Runtime::new(RuntimeConfig::with_workers(4));
    let executed = Arc::new(AtomicU64::new(0));
    const ROUNDS: usize = 40;
    const CHILDREN: u64 = 24;

    for round in 0..ROUNDS {
        let executed = executed.clone();
        let h = rt.handle();
        let root = rt.spawn(move || {
            // Children land on the running worker's local deque; parked
            // siblings must be woken to steal their share, and the owner's
            // helping-wait pops race those steals on the same Chase–Lev
            // buffer.
            let futures: Vec<_> = (0..CHILDREN)
                .map(|i| {
                    let executed = executed.clone();
                    h.spawn(move || {
                        executed.fetch_add(1, Ordering::Relaxed);
                        i
                    })
                })
                .collect();
            futures.into_iter().map(|f| f.get()).sum::<u64>()
        });
        assert_eq!(
            root.get_timeout(Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("round {round}: children lost under park/unpark")),
            CHILDREN * (CHILDREN - 1) / 2
        );
        // Longer than the 500µs park-timeout safety net: every worker
        // parks for real before the next burst, so the next round's pushes
        // race genuine sleeper registrations, not busy probes.
        std::thread::sleep(Duration::from_micros(1500));
    }

    assert_eq!(
        executed.load(Ordering::Relaxed),
        ROUNDS as u64 * CHILDREN,
        "every child must run exactly once"
    );
    let underflows = rt
        .registry()
        .evaluate(
            "/runtime{locality#0/total}/health/pending-underflows",
            false,
        )
        .unwrap();
    assert_eq!(underflows.value, 0);
    rt.shutdown();
}

/// Time-balance regression for the lock-free find loops: failed sweeps —
/// including `Steal::Retry` spins that end a sweep without work — must
/// accrue to `idle_ns`, so per-worker exec + overhead + idle still adds up
/// to roughly the worker's wall-clock lifetime. If retry spins or probe
/// misses leaked out of the accounting, the accounted sum would fall well
/// short of `workers × wall`.
///
/// Uses flat (non-nested) tasks only: a helping wait inside a task would
/// double-count the helped tasks' exec time inside the helper's own exec
/// window and skew the balance upward.
#[test]
fn find_loop_time_accounting_balances_against_wall_clock() {
    const WORKERS: usize = 2;
    let rt = Runtime::new(RuntimeConfig::with_workers(WORKERS));
    let start = std::time::Instant::now();

    for _ in 0..30 {
        let futures: Vec<_> = (0..16)
            .map(|i: u64| {
                rt.spawn(move || {
                    // ~100µs of real work so exec_ns is meaningfully nonzero.
                    let t = std::time::Instant::now();
                    let mut acc = i;
                    while t.elapsed() < Duration::from_micros(100) {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                    }
                    acc
                })
            })
            .collect();
        for f in futures {
            f.get();
        }
        // Idle gap long enough for every worker to park.
        std::thread::sleep(Duration::from_micros(1500));
    }
    rt.wait_idle();
    let wall = start.elapsed().as_nanos() as i64;

    let eval = |path: &str| rt.registry().evaluate(path, false).unwrap().value;
    let exec = eval("/threads{locality#0/total}/time/cumulative");
    let overhead = eval("/threads{locality#0/total}/time/cumulative-overhead");
    // idle_ns is published as a rate (0.01% units of idle/(idle+busy));
    // recover the cumulative figure from the busy total.
    let rate = eval("/threads{locality#0/total}/idle-rate");
    let busy = exec + overhead;
    assert!(busy > 0, "tasks must have accrued exec/overhead time");
    assert!(rate < 10_000, "workers cannot have been 100% idle");
    let idle = busy * rate / (10_000 - rate);

    let accounted = exec + overhead + idle;
    let budget = WORKERS as i64 * wall;
    assert!(
        accounted >= budget / 2,
        "accounted {accounted}ns < half of {budget}ns: find-miss/Retry time \
         is leaking out of idle_ns"
    );
    assert!(
        accounted <= budget * 3 / 2,
        "accounted {accounted}ns > 1.5x {budget}ns: time is being \
         double-counted somewhere"
    );
    rt.shutdown();
}

/// Deep fork/join through the single-allocation task cells, on every kind
/// of join: the test thread's root join waits on the cell's gate, a
/// worker's join whose child is on top of its own deque runs the child
/// inline, and any other worker join helps. Results stay correct, every
/// spawned task is counted executed exactly once, and the ledger balances.
#[test]
fn recursive_fork_join_via_task_cells() {
    const N: u64 = 18;
    let rt = Runtime::new(RuntimeConfig::with_workers(2));
    let h = rt.handle();
    fn fib(h: &rpx::runtime::RuntimeHandle, n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let h2 = h.clone();
        let a = h.spawn(move || fib(&h2, n - 1));
        let b = fib(h, n - 2);
        a.get() + b
    }
    assert_eq!(fib(&h, N), 2584);
    rt.wait_idle();
    let eval = |path: &str| rt.registry().evaluate(path, false).unwrap().value;
    // Each call with n >= 2 spawns one task, so fib(n) spawns
    // S(n) = 1 + S(n-1) + S(n-2) = F(n+1) - 1 tasks: F(19) - 1 = 4180.
    assert_eq!(eval("/threads{locality#0/total}/count/cumulative"), 4180);
    for gauge in ["pending", "active"] {
        let path = format!("/threads{{locality#0/total}}/count/instantaneous/{gauge}");
        assert_eq!(eval(&path), 0, "{gauge} gauge");
    }
    assert_eq!(
        eval("/runtime{locality#0/total}/health/pending-underflows"),
        0
    );
    rt.shutdown();
}

/// Regression: an inline run (`Sync`, `Deferred`, degrade-inline) indexed
/// the task's runtime's per-worker stats with the calling thread's index in
/// *its own* runtime. On worker 3 of a 4-worker runtime A, a task of a
/// 1-worker runtime B read `B.stats[3]` and panicked out of `spawn_with`.
/// Inline runs by a non-member account to B's external shard. The same
/// holds through `b.handle()`: the handle's id check must not take A's
/// worker fast path.
#[test]
fn inline_runs_on_a_foreign_worker_account_to_their_own_runtime() {
    const A_WORKERS: usize = 4;
    let a = Runtime::new(RuntimeConfig::with_workers(A_WORKERS));
    let b = Arc::new(Runtime::new(RuntimeConfig::with_workers(1)));
    let executed_on_b = |b: &Runtime| {
        b.registry()
            .evaluate("/threads{locality#0/total}/count/cumulative", false)
            .unwrap()
            .value
    };
    let before = executed_on_b(&b);
    // One task per worker of A, all held at a barrier, so every worker
    // index is taken and the task on the highest one does the inline runs,
    // first through `b` itself and then through a handle to it.
    let barrier = Arc::new(std::sync::Barrier::new(A_WORKERS));
    let tasks: Vec<_> = (0..A_WORKERS)
        .map(|_| {
            let (b, bh, barrier) = (b.clone(), b.handle(), barrier.clone());
            a.spawn(move || {
                barrier.wait();
                if Runtime::current_worker() != Some(A_WORKERS - 1) {
                    return (0, 0);
                }
                let sync = b.spawn_with(LaunchPolicy::Sync, || 20);
                let deferred = b.spawn_with(LaunchPolicy::Deferred, || 22);
                let by_runtime = sync.get() + deferred.get();
                let sync = bh.spawn_with(LaunchPolicy::Sync, || 20);
                let deferred = bh.spawn_with(LaunchPolicy::Deferred, || 22);
                (by_runtime, sync.get() + deferred.get())
            })
        })
        .collect();
    let sums = tasks
        .into_iter()
        .map(|f| f.get())
        .fold((0, 0), |acc, x| (acc.0 + x.0, acc.1 + x.1));
    assert_eq!(sums, (42, 42), "exactly one task sat on A's highest worker");
    assert_eq!(
        executed_on_b(&b) - before,
        4,
        "all four ran, counted once each on B"
    );
    a.shutdown();
    Arc::try_unwrap(b).expect("sole owner").shutdown();
}

/// A `RuntimeHandle` names its runtime by a process-unique id, so a handle
/// whose runtime is gone panics on use, on any thread, even once a fresh
/// runtime (likely at the same address) exists, and never spawns into the
/// fresh one. The handle is 8 bytes and has no `Drop`, so no reference
/// count rides along with it.
#[test]
fn a_handle_that_outlives_its_runtime_panics_and_never_reaches_a_newer_one() {
    assert!(!std::mem::needs_drop::<RuntimeHandle>());
    assert_eq!(std::mem::size_of::<RuntimeHandle>(), 8);
    let executed = |rt: &Runtime| {
        rt.registry()
            .evaluate("/threads{locality#0/total}/count/cumulative", false)
            .unwrap()
            .value
    };
    let panics_as_dropped = |spawn: Box<dyn FnOnce() + Send>| {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(spawn))
            .expect_err("a spawn through a dead runtime's handle panics");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        msg.contains("RuntimeHandle used after Runtime was dropped")
    };

    let old = Runtime::new(RuntimeConfig::with_workers(1));
    let h = old.handle();
    assert_eq!(format!("{h:?}"), "RuntimeHandle { alive: true }");
    old.shutdown();
    assert_eq!(format!("{h:?}"), "RuntimeHandle { alive: false }");

    let fresh = Runtime::new(RuntimeConfig::with_workers(1));
    let before = executed(&fresh);
    // Off any worker.
    let h_off = h.clone();
    assert!(panics_as_dropped(Box::new(move || {
        h_off.spawn(|| 1);
    })));
    // On a worker of the fresh runtime: one task there, the spawn inside
    // it refused.
    let h_on = h.clone();
    let refused_on_worker = fresh
        .spawn(move || {
            panics_as_dropped(Box::new(move || {
                h_on.spawn_with(LaunchPolicy::Sync, || 1);
            }))
        })
        .get();
    assert!(refused_on_worker);
    fresh.wait_idle();
    assert_eq!(
        executed(&fresh) - before,
        1,
        "only the probing task ran on the fresh runtime"
    );
    assert_eq!(format!("{h:?}"), "RuntimeHandle { alive: false }");
    assert_eq!(
        format!("{:?}", fresh.handle()),
        "RuntimeHandle { alive: true }"
    );
    fresh.shutdown();
}

/// A worker that spawns more children than its slab has slots before
/// joining any overflows into external cells: same values, the overflow
/// visible in `exhausted`/`fallback-allocs`, and every slot back on a free
/// list once the runtime is idle.
#[test]
fn slab_exhaustion_falls_back_to_external_cells() {
    // Comfortably past the per-worker slab capacity (4096 slots).
    const CHILDREN: u64 = 6000;
    let rt = Runtime::new(RuntimeConfig::with_workers(1));
    let h = rt.handle();
    let sum = rt
        .spawn(move || {
            let children: Vec<_> = (0..CHILDREN).map(|i| h.spawn(move || i * 3)).collect();
            children.into_iter().map(|f| f.get()).sum::<u64>()
        })
        .get();
    assert_eq!(sum, 3 * CHILDREN * (CHILDREN - 1) / 2);
    rt.wait_idle();
    let read = |name: &str| {
        let path = format!("/runtime{{locality#0/total}}/slab/{name}");
        rt.registry().evaluate(&path, false).unwrap().value
    };
    let exhausted = read("exhausted");
    assert!(exhausted > 0, "the slab must have run dry");
    assert!(read("fallback-allocs") >= exhausted);
    assert_eq!(
        read("allocs"),
        read("local-frees") + read("remote-frees"),
        "every slot taken was returned"
    );
    rt.shutdown();
}

/// Regression: a `Join` holds no reference to its slab, so a future whose
/// cell sits in a worker's slab must stay valid after its runtime is gone
/// (`Slab::retire`: the slab lives until the last cell out of it is
/// freed). Three ways to outlive the runtime: the child already ran and
/// its value is still there; the future is dropped un-taken; the child
/// was still queued when the runtime dropped, so the scheduler's teardown
/// cancels it.
#[test]
fn a_slab_resident_future_outlives_its_runtime() {
    static DROPS: AtomicU64 = AtomicU64::new(0);
    struct Counted(u64);
    impl Drop for Counted {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Ordering::SeqCst);
        }
    }
    let slab_allocs = |rt: &Runtime| {
        rt.registry()
            .evaluate("/runtime{locality#0/total}/slab/allocs", false)
            .unwrap()
            .value
    };
    // A child spawned on the worker (so into its slab) that has run.
    let ran_child = || {
        let rt = Runtime::new(RuntimeConfig::with_workers(1));
        let h = rt.handle();
        let child = rt
            .spawn(move || {
                let child = h.spawn(|| Counted(42));
                child.wait();
                child
            })
            .get();
        assert!(child.is_ready());
        assert_eq!(slab_allocs(&rt), 1, "the child's cell is slab-resident");
        drop(rt);
        child
    };

    assert_eq!(ran_child().get().0, 42);
    assert_eq!(DROPS.load(Ordering::SeqCst), 1, "taken value dropped once");
    drop(ran_child());
    assert_eq!(
        DROPS.load(Ordering::SeqCst),
        2,
        "un-taken value dropped once"
    );

    // Still queued at shutdown. The one worker's first task spawns the
    // child onto the worker's deque and spins until released 50 ms after
    // `drop(rt)` has begun, which stores the stop flag at once. The
    // injected kill after that task ends the worker loop, and a worker
    // that dies once stop is requested is not restarted, so it never
    // finds the child; the queue's teardown cancels it. A host that
    // stalls the drop past 50 ms lets the worker be restarted and run the
    // child instead: that attempt must still be sound, and another is
    // made.
    let mut cancelled = false;
    for _ in 0..5 {
        let rt = Runtime::new(RuntimeConfig {
            faults: Some(rpx::runtime::FaultPlan {
                worker_kill_ppm: 1_000_000,
                max_per_category: 1,
                ..Default::default()
            }),
            ..RuntimeConfig::with_workers(1)
        });
        let h = rt.handle();
        let go = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::channel();
        let go_task = go.clone();
        let parent = rt.spawn(move || {
            tx.send(h.spawn(|| 7u64)).unwrap();
            while !go_task.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        });
        let child = rx.recv().unwrap();
        let opener = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            go.store(true, Ordering::Release);
        });
        drop(rt);
        opener.join().unwrap();
        parent.get();
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| child.get())) {
            Ok(v) => assert_eq!(v, 7, "the child ran before the worker stopped"),
            Err(payload) => {
                assert!(payload
                    .downcast_ref::<rpx::runtime::TaskCancelled>()
                    .is_some());
                cancelled = true;
                break;
            }
        }
    }
    assert!(cancelled, "no attempt left the child queued at shutdown");
}
