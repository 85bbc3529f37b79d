//! Chaos suite for the fault-tolerance layer: deterministic fault
//! injection ([`rpx_runtime::FaultPlan`]) driving cancellation, worker
//! respawn, stall detection, and sampler resilience — with *exact*
//! agreement between what the injector says it injected and what the
//! `/runtime/health/*` counters report.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use rpx_counters::registry::CounterRegistry;
use rpx_counters::sampler::{CsvSink, Sampler, SamplerConfig};
use rpx_inncabs::spawner::RpxSpawner;
use rpx_inncabs::{fib, health};
use rpx_runtime::faults::register_flaky_counter;
use rpx_runtime::{
    CancelToken, FaultPlan, InjectedFault, Runtime, RuntimeConfig, SpawnError, TaskCancelled,
};

/// Silence the default panic hook for *intentional* unwinds (injected
/// faults); real panics still print.
fn install_quiet_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            if payload.downcast_ref::<InjectedFault>().is_some()
                || payload.downcast_ref::<TaskCancelled>().is_some()
            {
                return;
            }
            prev(info);
        }));
    });
}

fn wait_until(mut cond: impl FnMut() -> bool, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if cond() {
            return true;
        }
        if Instant::now() >= deadline {
            return cond();
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn health_total(reg: &Arc<CounterRegistry>, which: &str) -> i64 {
    reg.evaluate(
        &format!("/runtime{{locality#0/total}}/health/{which}"),
        false,
    )
    .expect("health counter evaluates")
    .value
}

fn health_worker(reg: &Arc<CounterRegistry>, which: &str, worker: usize) -> i64 {
    reg.evaluate(
        &format!("/runtime{{locality#0/worker-thread#{worker}}}/health/{which}"),
        false,
    )
    .expect("per-worker health counter evaluates")
    .value
}

fn tasks_total(reg: &Arc<CounterRegistry>, which: &str) -> i64 {
    reg.evaluate(
        &format!("/runtime{{locality#0/total}}/tasks/{which}"),
        false,
    )
    .expect("tasks counter evaluates")
    .value
}

/// Park `n` workers inside task bodies until `release` flips; returns the
/// blocker futures once all `n` are actually executing (so everything
/// spawned afterwards is guaranteed to stay queued).
fn park_workers(
    rt: &Runtime,
    n: usize,
    release: &Arc<AtomicBool>,
) -> Vec<rpx_runtime::TaskFuture<()>> {
    let started = Arc::new(AtomicU64::new(0));
    let blockers: Vec<_> = (0..n)
        .map(|_| {
            let release = release.clone();
            let started = started.clone();
            rt.spawn(move || {
                started.fetch_add(1, Ordering::SeqCst);
                while !release.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        })
        .collect();
    assert!(
        wait_until(
            || started.load(Ordering::SeqCst) == n as u64,
            Duration::from_secs(5)
        ),
        "blockers never started"
    );
    blockers
}

#[test]
fn fib_is_correct_with_exact_health_counts_under_panics_and_kills() {
    install_quiet_hook();
    let rt = Runtime::new(RuntimeConfig {
        workers: 4,
        faults: Some(FaultPlan {
            seed: 7,
            task_panic_ppm: 30_000,
            worker_kill_ppm: 50_000,
            max_per_category: 25,
            ..FaultPlan::default()
        }),
        ..RuntimeConfig::with_workers(4)
    });
    let injector = rt.fault_injector().expect("active plan yields an injector");
    let reg = rt.registry();

    let input = fib::FibInput { n: 17 };
    let result = fib::run(&RpxSpawner::new(rt.handle()), input);
    assert_eq!(
        result,
        fib::run_serial(input),
        "injected faults must not corrupt results"
    );

    // Kill draws happen only at top-level dispatches (never mid-unwind of a
    // task that work-helped others), and fib's recursion runs mostly inside
    // helping waits — so follow with a flat burst of independent tasks,
    // which all dispatch at the top level of the worker loop.
    let burst: Vec<_> = (0..400u64).map(|i| rt.spawn(move || i)).collect();
    for (i, f) in burst.into_iter().enumerate() {
        assert_eq!(f.get(), i as u64);
    }
    rt.wait_idle();

    // Enough dispatches (≈ 2·fib(17) spawns + the burst) that both
    // categories fired.
    assert!(
        injector.task_panics() > 0,
        "plan should have injected task panics"
    );
    assert!(
        injector.worker_kills() > 0,
        "plan should have injected worker kills"
    );

    // Recovered-task accounting is synchronous with dispatch: exact already.
    assert_eq!(
        health_total(&reg, "recovered-tasks") as u64,
        injector.task_panics()
    );
    // Restart accounting happens in the supervisor a moment after the
    // injected unwind; poll for the exact match.
    assert!(
        wait_until(
            || health_total(&reg, "restarts") as u64 == injector.worker_kills(),
            Duration::from_secs(5),
        ),
        "restarts {} never matched injected kills {}",
        health_total(&reg, "restarts"),
        injector.worker_kills()
    );
    // The respawned workers are live: the runtime still computes.
    assert_eq!(rt.spawn(|| 2 + 2).get(), 4);
    rt.shutdown();
}

#[test]
fn watchdog_counts_each_injected_stall_exactly_once() {
    install_quiet_hook();
    let rt = Runtime::new(RuntimeConfig {
        workers: 2,
        faults: Some(FaultPlan {
            stall_ppm: 1_000_000,
            max_per_category: 4,
            ..FaultPlan::default()
        }),
        ..RuntimeConfig::with_workers(2)
    });
    let injector = rt.fault_injector().unwrap();
    let reg = rt.registry();

    // One task at a time: each of the first 4 dispatches stalls its worker
    // past the watchdog's threshold, then the cap disarms the fault and the
    // rest run clean.
    for i in 0..12u64 {
        assert_eq!(rt.spawn(move || i * 2).get(), i * 2);
    }
    assert_eq!(injector.stalls(), 4, "cap bounds the injected stalls");
    assert!(
        wait_until(
            || health_total(&reg, "stalls") as u64 == injector.stalls(),
            Duration::from_secs(5),
        ),
        "stall episodes {} never matched injected stalls {}",
        health_total(&reg, "stalls"),
        injector.stalls()
    );
    rt.shutdown();
}

/// An injected stall on a runtime with the default watchdog timing — the
/// case a plan from `RPX_FAULT_STALL_PPM` alone is in — lasts long enough
/// for the watchdog to count it, and it is counted once.
#[test]
fn a_default_injected_stall_is_counted_once() {
    install_quiet_hook();
    let rt = Runtime::new(RuntimeConfig {
        faults: Some(FaultPlan {
            stall_ppm: 1_000_000,
            max_per_category: 1,
            ..FaultPlan::default()
        }),
        ..RuntimeConfig::with_workers(1)
    });
    let injector = rt.fault_injector().unwrap();
    let reg = rt.registry();

    for i in 0..4u64 {
        assert_eq!(rt.spawn(move || i + 1).get(), i + 1);
    }
    assert_eq!(injector.stalls(), 1, "the cap bounds the injected stalls");
    assert!(
        wait_until(
            || health_total(&reg, "stalls") as u64 == injector.stalls(),
            Duration::from_secs(5),
        ),
        "stall episodes {} never matched injected stalls {}",
        health_total(&reg, "stalls"),
        injector.stalls()
    );
    rt.shutdown();
}

#[test]
fn cancelled_tasks_are_skipped_and_counted_exactly() {
    install_quiet_hook();
    const N: usize = 50;
    let rt = Runtime::new(RuntimeConfig::with_workers(2));
    let reg = rt.registry();

    // Park both workers inside task bodies so nothing dispatches until we
    // say so — the cancellable tasks below are guaranteed to still be
    // queued when the token is cancelled.
    let release = Arc::new(AtomicBool::new(false));
    let started = Arc::new(AtomicU64::new(0));
    let blockers: Vec<_> = (0..2)
        .map(|_| {
            let release = release.clone();
            let started = started.clone();
            rt.spawn(move || {
                started.fetch_add(1, Ordering::SeqCst);
                while !release.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        })
        .collect();
    assert!(wait_until(
        || started.load(Ordering::SeqCst) == 2,
        Duration::from_secs(5)
    ));

    let token = CancelToken::new();
    let ran = Arc::new(AtomicU64::new(0));
    let futures: Vec<_> = (0..N)
        .map(|_| {
            let ran = ran.clone();
            rt.spawn_cancellable(&token, move || {
                ran.fetch_add(1, Ordering::SeqCst);
            })
        })
        .collect();
    token.cancel();
    release.store(true, Ordering::Release);
    for b in blockers {
        b.get();
    }
    rt.wait_idle();

    assert_eq!(ran.load(Ordering::SeqCst), 0, "no cancelled body may run");
    assert_eq!(health_total(&reg, "cancelled-tasks"), N as i64);
    let mut futures = futures.into_iter();
    let first = futures.next().unwrap();
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || first.get()))
        .expect_err("get() on a cancelled future must raise");
    assert!(err.downcast_ref::<TaskCancelled>().is_some());
    for f in futures {
        assert!(f.is_cancelled());
    }
    rt.shutdown();
}

#[test]
fn deadline_cancels_task_not_dispatched_in_time() {
    install_quiet_hook();
    let rt = Runtime::new(RuntimeConfig::with_workers(1));
    let reg = rt.registry();

    // Keep the only worker busy past the deadline.
    let blocker = rt.spawn(|| std::thread::sleep(Duration::from_millis(150)));
    let started = Instant::now();
    let token = CancelToken::with_deadline(Duration::from_millis(30));
    let fut = rt.spawn_cancellable(&token, || 1);
    assert!(token.deadline().is_some());

    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || fut.get()))
        .expect_err("deadline must cancel the queued task");
    assert!(err.downcast_ref::<TaskCancelled>().is_some());
    assert!(
        started.elapsed() >= Duration::from_millis(30),
        "cancellation happens at dispatch, after the deadline passed"
    );
    blocker.get();
    rt.wait_idle();
    assert_eq!(health_total(&reg, "cancelled-tasks"), 1);
    rt.shutdown();
}

#[test]
fn get_timeout_hands_the_future_back_then_completes() {
    let rt = Runtime::new(RuntimeConfig::with_workers(2));
    let fut = rt.spawn(|| {
        std::thread::sleep(Duration::from_millis(120));
        7
    });
    let fut = fut
        .get_timeout(Duration::from_millis(15))
        .expect_err("a 120ms task cannot finish in 15ms");
    assert_eq!(fut.get_timeout(Duration::from_secs(5)).ok(), Some(7));
    rt.shutdown();
}

#[test]
fn panic_in_stolen_task_propagates_to_getter() {
    install_quiet_hook();
    let rt = Runtime::new(RuntimeConfig::with_workers(2));
    let reg = rt.registry();
    let handle = rt.handle();

    // The outer task queues the panicking child on its own deque, then
    // blocks (without helping), so the child must be *stolen* and executed
    // by the other worker.
    let outer = rt.spawn(move || {
        let child = handle.spawn(|| -> i32 { panic!("stolen boom") });
        std::thread::sleep(Duration::from_millis(100));
        child
    });
    let child = outer.get();
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || child.get()))
        .expect_err("the stolen task's panic must surface at get()");
    assert_eq!(err.downcast_ref::<&str>().copied(), Some("stolen boom"));

    let stolen = reg
        .evaluate("/threads{locality#0/total}/count/stolen", false)
        .unwrap()
        .value;
    assert!(
        stolen >= 1,
        "child should have been stolen, counter says {stolen}"
    );
    // The worker that ran the panicking task is unharmed.
    assert_eq!(rt.spawn(|| 5).get(), 5);
    rt.shutdown();
}

#[test]
fn health_benchmark_matches_serial_oracle_under_faults() {
    install_quiet_hook();
    let rt = Runtime::new(RuntimeConfig {
        workers: 4,
        faults: Some(FaultPlan {
            seed: 99,
            task_panic_ppm: 60_000,
            worker_kill_ppm: 20_000,
            max_per_category: 20,
            ..FaultPlan::default()
        }),
        ..RuntimeConfig::with_workers(4)
    });
    let injector = rt.fault_injector().unwrap();
    let reg = rt.registry();

    let input = health::HealthInput::test();
    let outcome = health::run(&RpxSpawner::new(rt.handle()), input);
    assert_eq!(outcome, health::run_serial(input));
    rt.wait_idle();

    assert!(injector.task_panics() > 0);
    assert_eq!(
        health_total(&reg, "recovered-tasks") as u64,
        injector.task_panics()
    );
    assert!(wait_until(
        || health_total(&reg, "restarts") as u64 == injector.worker_kills(),
        Duration::from_secs(5),
    ));
    rt.shutdown();
}

#[test]
fn wildcard_active_set_survives_worker_respawn() {
    install_quiet_hook();
    const WORKERS: usize = 3;
    let rt = Runtime::new(RuntimeConfig {
        workers: WORKERS,
        faults: Some(FaultPlan {
            seed: 21,
            worker_kill_ppm: 80_000,
            max_per_category: 6,
            ..FaultPlan::default()
        }),
        ..RuntimeConfig::with_workers(WORKERS)
    });
    let injector = rt.fault_injector().unwrap();
    let reg = rt.registry();

    // A live wildcard query over the per-worker task counters, plus a
    // sampler over the same spec: both resolve through the snapshot /
    // generation machinery.
    reg.add_active("/threads{locality#0/worker-thread#*}/count/cumulative")
        .unwrap();
    let sink = rpx_counters::sampler::MemorySink::new();
    let batches = sink.batches();
    let sampler = Sampler::start(
        &reg,
        SamplerConfig::new(
            vec!["/threads{locality#0/worker-thread#*}/count/cumulative".into()],
            Duration::from_millis(3),
        ),
        Box::new(sink),
    )
    .unwrap();

    let generation_before = reg.generation();

    // Flat burst of top-level dispatches until the injector has killed at
    // least one worker mid-sampling.
    let mut killed = false;
    for round in 0..40 {
        let burst: Vec<_> = (0..100u64).map(|i| rt.spawn(move || i + round)).collect();
        for f in burst {
            f.get();
        }
        if injector.worker_kills() > 0 {
            killed = true;
            break;
        }
    }
    assert!(killed, "plan should have injected a worker kill");
    assert!(
        wait_until(
            || health_total(&reg, "restarts") as u64 == injector.worker_kills(),
            Duration::from_secs(5),
        ),
        "supervisor never finished respawning"
    );

    // The respawn bumped the topology generation...
    assert!(
        reg.generation() > generation_before,
        "worker respawn must be a topology event"
    );
    // ...and within one generation the active set re-expands to the full
    // worker complement — the respawned worker's counters included — with
    // every entry evaluating cleanly.
    let vals = reg.evaluate_active_counters(false);
    assert_eq!(
        vals.len(),
        WORKERS,
        "active set lost a respawned worker's counter: {:?}",
        vals.iter().map(|(e, _)| &e.canonical).collect::<Vec<_>>()
    );
    for (entry, v) in &vals {
        assert!(
            v.ok,
            "`{}` stopped evaluating after respawn",
            entry.canonical
        );
    }
    // Work after the respawn is still attributed across all workers.
    let total: i64 = vals.iter().map(|(_, v)| v.value as i64).sum();
    assert!(total >= 100, "per-worker counters lost task attribution");

    // The sampler saw the respawn too: post-respawn batches keep sampling
    // every worker, full width.
    assert!(
        wait_until(|| !batches.lock().is_empty(), Duration::from_secs(5)),
        "sampler produced no batches"
    );
    sampler.stop();
    let collected = batches.lock();
    let last = collected.last().unwrap();
    assert_eq!(last.len(), WORKERS);
    assert!(last.samples().iter().all(|s| s.ok));
    rt.shutdown();
}

/// `Write` adapter letting the test read back what the sampler's CSV sink
/// wrote on its own thread.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn sampler_rows_stay_uninterrupted_under_counter_read_faults() {
    install_quiet_hook();
    let rt = Runtime::new(RuntimeConfig {
        workers: 2,
        faults: Some(FaultPlan {
            counter_fail_ppm: 1_000_000,
            max_per_category: 5,
            ..FaultPlan::default()
        }),
        ..RuntimeConfig::with_workers(2)
    });
    let injector = rt.fault_injector().unwrap();
    let reg = rt.registry();
    register_flaky_counter(&reg, &injector, "/chaos/flaky");

    let buf = SharedBuf::default();
    let sampler = Sampler::start(
        &reg,
        SamplerConfig::new(
            vec![
                "/chaos/flaky".into(),
                "/threads{locality#0/total}/count/cumulative".into(),
            ],
            Duration::from_millis(5),
        ),
        Box::new(CsvSink::new(buf.clone())),
    )
    .expect("sampler starts");
    let sampler_health = sampler.health();

    // Keep the runtime busy while the first 5 flaky reads fail (then the
    // cap disarms the fault); backoff stretches those failures over many
    // batches, so poll on the health accounting.
    let stop_spawning = Arc::new(AtomicBool::new(false));
    let spam = {
        let stop = stop_spawning.clone();
        let handle = rt.handle();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                handle.spawn(|| std::hint::black_box(1 + 1)).get();
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };
    assert!(
        wait_until(
            || sampler_health.read_errors() == 5,
            Duration::from_secs(10)
        ),
        "sampler saw {} read errors, expected all 5 injected",
        sampler_health.read_errors()
    );
    // Sit out the final backoff window (≤ 32 batches of placeholders) plus
    // a few clean batches, so the flaky counter visibly recovers.
    std::thread::sleep(Duration::from_millis(400));
    stop_spawning.store(true, Ordering::Release);
    spam.join().unwrap();
    sampler.stop();

    // Exact agreement: every injected counter failure was recorded as a
    // sampler read error, and nothing else failed.
    assert_eq!(injector.counter_fails(), 5);
    assert_eq!(sampler_health.read_errors(), injector.counter_fails());
    assert!(
        sampler_health.backoffs() >= 1,
        "repeated failures must back off"
    );

    let csv = String::from_utf8(buf.0.lock().clone()).unwrap();
    let lines: Vec<&str> = csv.lines().collect();
    assert!(
        lines.len() >= 4,
        "expected header + several rows, got:\n{csv}"
    );
    let width = lines[0].split(',').count();
    assert_eq!(width, 4, "header is sequence,timestamp_ns,<2 counters>");
    let mut saw_flaky_gap = false;
    let mut saw_flaky_value = false;
    for (i, row) in lines[1..].iter().enumerate() {
        let fields: Vec<&str> = row.split(',').collect();
        assert_eq!(fields.len(), width, "row {i} lost a column: {row}");
        assert_eq!(
            fields[0].parse::<u64>().unwrap(),
            i as u64,
            "sequence gap at row {i}"
        );
        // The healthy counter is present in every single row.
        assert!(
            fields[3].parse::<f64>().is_ok(),
            "healthy counter missing in row {i}: {row}"
        );
        match fields[2] {
            "" => saw_flaky_gap = true,
            _ => saw_flaky_value = true,
        }
    }
    assert!(saw_flaky_gap, "the failing counter should have empty cells");
    assert!(saw_flaky_value, "the flaky counter recovers after the cap");
    rt.shutdown();
}

#[test]
fn restart_storm_trips_breaker_shrinks_parallelism_loses_no_task() {
    install_quiet_hook();
    const KILLS: u64 = 20;
    let rt = Runtime::new(RuntimeConfig {
        workers: 2,
        faults: Some(FaultPlan {
            seed: 11,
            worker_kill_ppm: 1_000_000, // every completion kills, until the cap
            max_per_category: KILLS,
            ..FaultPlan::default()
        }),
        // The 10 s refill window returns < 0.01 token over the storm and
        // never resets the streak within the test.
        restart_budget: 3,
        ..RuntimeConfig::with_workers(2)
    });
    let injector = rt.fault_injector().unwrap();
    let reg = rt.registry();

    // A burst large enough that all KILLS kills fire (kills happen after a
    // task completes, so every future still resolves). 20 kills over 2
    // workers put at least 10 crashes on one of them — past its budget of
    // 3, so exactly one breaker trip is guaranteed; the survivor can never
    // trip (the last live worker is always force-respawned).
    let burst: Vec<_> = (0..40u64).map(|i| rt.spawn(move || i * 3)).collect();
    for (i, f) in burst.into_iter().enumerate() {
        assert_eq!(f.get(), i as u64 * 3, "no task may be lost in the storm");
    }
    rt.wait_idle();
    assert_eq!(injector.worker_kills(), KILLS, "the cap bounds the storm");

    // Every kill is either a respawn or the one trip: exact accounting.
    assert!(
        wait_until(
            || {
                health_total(&reg, "restarts") as u64 + health_total(&reg, "breaker-trips") as u64
                    == KILLS
            },
            Duration::from_secs(5),
        ),
        "restarts {} + trips {} never matched injected kills {}",
        health_total(&reg, "restarts"),
        health_total(&reg, "breaker-trips"),
        KILLS
    );
    assert_eq!(health_total(&reg, "breaker-trips"), 1, "exactly one trip");
    assert_eq!(health_total(&reg, "restarts") as u64, KILLS - 1);
    assert_eq!(
        health_total(&reg, "live-workers"),
        1,
        "parallelism shrank by the tripped worker"
    );

    // The tripped worker burned its whole budget first: exactly `budget`
    // respawns, then retirement. The survivor absorbed the rest.
    let tripped: Vec<usize> = (0..2)
        .filter(|&w| health_worker(&reg, "breaker-trips", w) == 1)
        .collect();
    assert_eq!(tripped.len(), 1, "exactly one worker tripped");
    assert_eq!(
        health_worker(&reg, "restarts", tripped[0]),
        3,
        "at most `restart_budget` respawns per window before the trip"
    );
    assert_eq!(
        health_worker(&reg, "restarts", 1 - tripped[0]) as u64,
        KILLS - 1 - 3
    );
    assert!(
        health_worker(&reg, "restart-backoff", tripped[0]) >= 1_000_000,
        "backoff time (ns) is accounted"
    );

    // The shrunken runtime still computes.
    assert_eq!(rt.spawn(|| 21 * 2).get(), 42);
    rt.shutdown();
}

/// `try_spawn` sheds at a closed gate; only infallible spawns run inline.
#[test]
fn shed_policy_bounds_pending_exactly_and_returns_the_closure() {
    const MAX: usize = 8;
    const SPAWNS: u64 = 50;
    install_quiet_hook();
    let rt = Runtime::new(RuntimeConfig {
        workers: 2,
        max_pending: Some(MAX),
        ..RuntimeConfig::with_workers(2)
    });
    let reg = rt.registry();
    let admission = rt.admission().expect("max_pending configures a gate");

    // Park both workers so everything spawned below stays pending.
    let release = Arc::new(AtomicBool::new(false));
    let blockers = park_workers(&rt, 2, &release);
    assert!(
        wait_until(|| admission.pending() == 0, Duration::from_secs(5)),
        "blockers must return their admission slots once running"
    );

    // Sequential spawns from one thread: the first MAX admit, every one
    // after that is shed — admitted + shed == spawned, exactly.
    let mut admitted = Vec::new();
    let mut shed = Vec::new();
    for i in 0..SPAWNS {
        match rt.try_spawn(move || i * 10) {
            Ok(f) => admitted.push((i, f)),
            Err(SpawnError::Overloaded(f)) => shed.push((i, f)),
            Err(e) => panic!("unexpected spawn error: {e}"),
        }
    }
    assert_eq!(admitted.len(), MAX, "exactly max_pending admissions");
    assert_eq!(shed.len() as u64, SPAWNS - MAX as u64);
    assert_eq!(
        admitted.len() + shed.len(),
        SPAWNS as usize,
        "admitted + shed == spawned"
    );
    assert_eq!(tasks_total(&reg, "pending"), MAX as i64);
    assert_eq!(
        tasks_total(&reg, "peak-pending"),
        MAX as i64,
        "pending never exceeded max_pending, even transiently"
    );
    assert_eq!(health_total(&reg, "shed") as usize, shed.len());
    assert_eq!(health_total(&reg, "gate-closes"), 1, "one close episode");
    assert!(admission.is_closed());

    // Shedding hands the closure back intact: the caller can run it.
    let (i, f) = shed.pop().unwrap();
    assert_eq!(f(), i * 10, "shed closure must be returned to the caller");

    release.store(true, Ordering::Release);
    for b in blockers {
        b.get();
    }
    for (i, f) in admitted {
        assert_eq!(f.get(), i * 10, "admitted spawns complete after release");
    }
    rt.wait_idle();
    assert_eq!(tasks_total(&reg, "pending"), 0);
    assert!(!admission.is_closed(), "gate reopened at the low watermark");
    // 2 blockers + MAX admitted; every overflow spawn was shed, none ran.
    assert_eq!(admission.totals(), (2 + MAX as u64, SPAWNS - MAX as u64, 0));
    rt.shutdown();
}

#[test]
fn degrade_policy_runs_overflow_inline_and_bounds_pending() {
    const MAX: usize = 8;
    const SPAWNS: u64 = 50;
    install_quiet_hook();
    let rt = Runtime::new(RuntimeConfig {
        workers: 2,
        max_pending: Some(MAX),
        ..RuntimeConfig::with_workers(2)
    });
    let reg = rt.registry();
    let admission = rt.admission().unwrap();

    let release = Arc::new(AtomicBool::new(false));
    let blockers = park_workers(&rt, 2, &release);
    assert!(wait_until(
        || admission.pending() == 0,
        Duration::from_secs(5)
    ));

    // Infallible spawns under Degrade: the first MAX queue, the overflow
    // runs inline in this caller — so the loop itself makes progress while
    // both workers are parked, and pending stays bounded.
    let inline_ran = Arc::new(AtomicU64::new(0));
    let futures: Vec<_> = (0..SPAWNS)
        .map(|i| {
            let inline_ran = inline_ran.clone();
            rt.spawn(move || {
                inline_ran.fetch_add(1, Ordering::SeqCst);
                i * 7
            })
        })
        .collect();
    assert_eq!(
        inline_ran.load(Ordering::SeqCst),
        SPAWNS - MAX as u64,
        "overflow spawns ran inline while the workers were parked"
    );
    assert_eq!(tasks_total(&reg, "pending"), MAX as i64);
    assert_eq!(
        tasks_total(&reg, "peak-pending"),
        MAX as i64,
        "Degrade keeps peak pending at max_pending"
    );
    assert_eq!(
        health_total(&reg, "degraded-spawns") as u64,
        SPAWNS - MAX as u64
    );

    release.store(true, Ordering::Release);
    for b in blockers {
        b.get();
    }
    for (i, f) in futures.into_iter().enumerate() {
        assert_eq!(f.get(), i as u64 * 7);
    }
    rt.wait_idle();
    assert_eq!(admission.totals(), (2 + MAX as u64, 0, SPAWNS - MAX as u64));
    rt.shutdown();
}

#[test]
fn quiesce_cancels_stragglers_exactly_and_flushes_a_final_sampler_row() {
    const QUEUED: u64 = 20;
    install_quiet_hook();
    let rt = Runtime::new(RuntimeConfig::with_workers(2));
    let reg = rt.registry();

    // Sampler on a 10s interval: any row beyond the first exists only
    // because the drain hook's flush_now forced it.
    let buf = SharedBuf::default();
    let sampler = Arc::new(
        Sampler::start(
            &reg,
            SamplerConfig::new(
                vec![
                    "/runtime{locality#0/total}/tasks/pending".into(),
                    "/runtime{locality#0/total}/health/cancelled-tasks".into(),
                ],
                Duration::from_secs(10),
            ),
            Box::new(CsvSink::new(buf.clone())),
        )
        .expect("sampler starts"),
    );
    let flusher = sampler.clone();
    rt.add_drain_hook(move || {
        assert!(flusher.flush_now(), "drain hook flush must complete");
    });

    // Both workers parked; QUEUED tasks stay queued behind them. The
    // blockers release only *after* quiesce's first drain deadline passes,
    // so the queued tasks are dispatched under quiesce-cancel and every one
    // of them — exactly — is cancelled rather than run.
    let release = Arc::new(AtomicBool::new(false));
    let blockers = park_workers(&rt, 2, &release);
    let ran = Arc::new(AtomicU64::new(0));
    let queued: Vec<_> = (0..QUEUED)
        .map(|_| {
            let ran = ran.clone();
            rt.spawn(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            })
        })
        .collect();

    let releaser = {
        let release = release.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(200));
            release.store(true, Ordering::Release);
        })
    };
    let report = rt.quiesce(Duration::from_millis(150));
    releaser.join().unwrap();
    for b in blockers {
        b.get();
    }

    assert!(
        !report.drained,
        "blockers held the first drain past deadline"
    );
    assert_eq!(report.cancelled, QUEUED, "every straggler cancelled, once");
    assert_eq!(report.remaining, 0, "nothing left running after quiesce");
    assert_eq!(ran.load(Ordering::SeqCst), 0, "no cancelled body may run");
    assert_eq!(health_total(&reg, "cancelled-tasks"), QUEUED as i64);
    for f in queued {
        assert!(f.is_cancelled());
    }

    // After quiesce: fallible spawns refuse, infallible spawns run inline.
    match rt.try_spawn(|| 1) {
        Err(SpawnError::Draining(f)) => assert_eq!(f(), 1),
        Err(e) => panic!("wrong error from a draining runtime: {e}"),
        Ok(_) => panic!("try_spawn must refuse on a draining runtime"),
    }
    assert_eq!(rt.spawn(|| 5).get(), 5, "inline fallback still computes");

    // The flushed row is complete and reflects the post-drain state.
    let csv = String::from_utf8(buf.0.lock().clone()).unwrap();
    let lines: Vec<&str> = csv.lines().collect();
    assert!(
        lines.len() >= 3,
        "expected header + startup row + flushed row, got:\n{csv}"
    );
    let width = lines[0].split(',').count();
    assert_eq!(width, 4, "header is sequence,timestamp_ns,<2 counters>");
    let last: Vec<&str> = lines.last().unwrap().split(',').collect();
    assert_eq!(last.len(), width, "the final row must be complete");
    assert_eq!(
        last[2].parse::<f64>().unwrap(),
        0.0,
        "final row: pending drained to zero"
    );
    assert_eq!(
        last[3].parse::<f64>().unwrap(),
        QUEUED as f64,
        "final row: the cancellations are visible"
    );
    rt.shutdown();
}

#[test]
fn injected_steal_storm_raises_exactly_one_anomaly_event() {
    install_quiet_hook();
    // A synthetic steal storm spanning the first 6 watchdog ticks: the
    // anomaly detector must open exactly ONE steal-storm episode (the
    // condition holds tick after tick — an episode, not an event per
    // tick), and close it when the storm ends without ever re-arming.
    let rt = Runtime::new(RuntimeConfig {
        workers: 2,
        faults: Some(FaultPlan {
            steal_storm_ticks: 6,
            ..FaultPlan::default()
        }),
        ..RuntimeConfig::with_workers(2)
    });
    let reg = rt.registry();
    let anomaly_total = |which: &str| {
        reg.evaluate(
            &format!("/runtime{{locality#0/total}}/anomaly/{which}"),
            false,
        )
        .expect("anomaly counter evaluates")
        .value
    };

    // Keep a trickle of real work flowing so the detector sees executions.
    for i in 0..20u64 {
        assert_eq!(rt.spawn(move || i + 1).get(), i + 1);
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(
        wait_until(
            || anomaly_total("steal-storms") == 1,
            Duration::from_secs(5)
        ),
        "steal-storm episode never detected: {}",
        anomaly_total("steal-storms")
    );
    // Outlast the storm (6 ticks × 20ms, plus slack): the count must hold
    // at exactly one — neither re-armed mid-storm nor after it cleared.
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(anomaly_total("steal-storms"), 1, "exactly one episode");
    assert_eq!(
        anomaly_total("events"),
        anomaly_total("steal-storms")
            + anomaly_total("granularity-collapses")
            + anomaly_total("idle-spikes"),
        "total is the sum of the kinds"
    );

    let events = rt.anomalies();
    let storms: Vec<_> = events
        .iter()
        .filter(|e| e.kind == rpx_runtime::AnomalyKind::StealStorm)
        .collect();
    assert_eq!(storms.len(), 1, "event log agrees with the counter");
    assert!(
        storms[0].value > storms[0].baseline,
        "the recorded episode captures the breach"
    );
    rt.shutdown();
}
