//! Integration: the APEX-style policy engine steering a live runtime
//! through its intrinsic counters — the paper's §VII capability end to end.

use std::sync::Arc;
use std::time::Duration;

use rpx::apex::{rules, Policy, PolicyEngine, Tunable};
use rpx::runtime::{FaultPlan, Runtime, RuntimeConfig, SpawnError};

fn busy(iters: u64) -> u64 {
    let mut acc = 0u64;
    for i in 0..iters {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    acc
}

#[test]
fn policy_engine_tunes_chunk_size_against_overhead_ratio() {
    let rt = Runtime::new(RuntimeConfig::with_workers(2));
    let reg = rt.registry();

    // Knob: items per task. Start absurdly fine so overhead dominates.
    let chunk = Tunable::new(200, 100, 1_000_000);
    let policy = Policy::new(
        "grain-control",
        vec![
            "/threads{locality#0/total}/time/average-overhead".into(),
            "/threads{locality#0/total}/time/average".into(),
        ],
    )
    .with_period(Duration::from_millis(10))
    .with_rule(rules::ratio_band(
        "/threads{locality#0/total}/time/average-overhead",
        "/threads{locality#0/total}/time/average",
        0.005,
        0.05,
        chunk.clone(),
        4.0,
        0.5,
    ));
    let engine = PolicyEngine::start(&reg, vec![policy]).unwrap();

    // Drive waves of work whose granularity follows the knob.
    const TOTAL: u64 = 1_000_000;
    let mut last_chunk = chunk.get();
    for _wave in 0..12 {
        let c = chunk.get() as u64;
        let tasks = (TOTAL / c).max(1);
        let futures: Vec<_> = (0..tasks).map(|_| rt.spawn(move || busy(c))).collect();
        let mut sink = 0u64;
        for f in futures {
            sink ^= f.get();
        }
        std::hint::black_box(sink);
        last_chunk = chunk.get();
        std::thread::sleep(Duration::from_millis(12)); // let the policy fire
    }
    engine.stop();
    rt.shutdown();

    assert!(
        last_chunk >= 800,
        "the policy should have coarsened the grain from 200, ended at {last_chunk}"
    );
    assert!(
        chunk.changes() > 0,
        "the knob must actually have been adjusted"
    );
}

#[test]
fn policy_engine_observes_runtime_counters_with_wildcards() {
    let rt = Runtime::new(RuntimeConfig::with_workers(2));
    let reg = rt.registry();
    let seen = Arc::new(parking_lot::Mutex::new(0u64));
    let s2 = seen.clone();
    let policy = Policy::new(
        "per-worker-watch",
        vec!["/threads{locality#0/worker-thread#*}/count/cumulative".into()],
    )
    .with_period(Duration::from_millis(5))
    .with_reset(false)
    .with_rule(move |ctx| {
        *s2.lock() = ctx.sum("/threads") as u64;
    });
    let engine = PolicyEngine::start(&reg, vec![policy]).unwrap();

    let futures: Vec<_> = (0..300).map(|_| rt.spawn(|| ())).collect();
    for f in futures {
        f.get();
    }
    rt.wait_idle();
    let t0 = std::time::Instant::now();
    while *seen.lock() < 300 && t0.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(2));
    }
    engine.stop();
    assert!(
        *seen.lock() >= 300,
        "policy saw only {} tasks",
        *seen.lock()
    );
    rt.shutdown();
}

#[test]
fn policy_widens_admission_when_the_overload_detector_trips() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    let rt = Runtime::new(RuntimeConfig {
        workers: 2,
        max_pending: Some(8),
        ..RuntimeConfig::with_workers(2)
    });
    let reg = rt.registry();
    let admission = rt.admission().expect("admission gate configured");

    // Park both workers inside task bodies so pending work cannot drain:
    // the gate saturates at 8 and the detector sees a full queue.
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
    let t0 = std::time::Instant::now();
    while started.load(Ordering::SeqCst) < 2 && t0.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(1));
    }
    while admission.pending() > 0 && t0.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(1));
    }

    // Closed loop: counter stream → policy → admission knob. When the
    // overload verdict reaches Overloaded (2), double the watermarks.
    let knob = admission.clone();
    let policy = Policy::new(
        "admission-widen",
        vec!["/runtime{locality#0/total}/health/overload-state".into()],
    )
    .with_period(Duration::from_millis(5))
    .with_reset(false)
    .with_rule(move |ctx| {
        if ctx.value("/runtime").unwrap_or(0.0) >= 2.0 {
            let (high, _) = knob.limits();
            if high < 32 {
                knob.set_limits(high * 2);
            }
        }
    });
    let engine = PolicyEngine::start(&reg, vec![policy]).unwrap();

    // Saturate: exactly 8 admissions, then shedding starts.
    let mut queued = Vec::new();
    while queued.len() < 8 {
        match rt.try_spawn(|| ()) {
            Ok(f) => queued.push(f),
            Err(SpawnError::Overloaded(_)) => std::thread::sleep(Duration::from_millis(1)),
            Err(e) => panic!("unexpected: {e}"),
        }
    }
    assert!(matches!(
        rt.try_spawn(|| ()),
        Err(SpawnError::Overloaded(_))
    ));

    // Watchdog tick marks Overloaded → policy fires → gate widens → the
    // very spawns that were shed now admit.
    let t0 = std::time::Instant::now();
    while admission.limits().0 <= 8 && t0.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(2));
    }
    let (high, low) = admission.limits();
    assert!(
        high >= 16,
        "policy should have widened max_pending from 8, got {high}"
    );
    assert_eq!(low, high / 2, "low watermark scales with high");
    let extra = rt.try_spawn(|| ()).ok();
    assert!(
        extra.is_some(),
        "spawns must admit again after the gate widened"
    );

    release.store(true, Ordering::Release);
    for b in blockers {
        b.get();
    }
    for f in queued {
        f.get();
    }
    if let Some(f) = extra {
        f.get();
    }
    engine.stop();
    rt.shutdown();
}

#[test]
fn policy_reacts_to_anomaly_events() {
    // Closing the measure → diagnose → adapt loop for the *anomaly*
    // detector: an injected steal storm raises a `/runtime/anomaly/*`
    // event, a policy thresholding the event counter sees it and narrows a
    // granularity knob (the canonical response to stealing overhead:
    // coarsen the tasks being stolen).
    let rt = Runtime::new(RuntimeConfig {
        workers: 2,
        faults: Some(FaultPlan {
            steal_storm_ticks: 6,
            ..FaultPlan::default()
        }),
        ..RuntimeConfig::with_workers(2)
    });
    let reg = rt.registry();

    // Knob: notional grain multiplier. The rule doubles it when any
    // anomaly event has been recorded.
    let grain = Tunable::new(1, 1, 64);
    let knob = grain.clone();
    let policy = Policy::new(
        "anomaly-response",
        vec!["/runtime{locality#0/total}/anomaly/events".into()],
    )
    .with_period(Duration::from_millis(5))
    .with_reset(false)
    .with_rule(move |ctx| {
        if ctx.value("/runtime").unwrap_or(0.0) >= 1.0 && knob.get() < 2 {
            knob.scale(2.0);
        }
    });
    let engine = PolicyEngine::start(&reg, vec![policy]).unwrap();

    // Trickle real work so the detector sees executions alongside the
    // injected steal deltas.
    let t0 = std::time::Instant::now();
    while grain.get() < 2 && t0.elapsed() < Duration::from_secs(5) {
        rt.spawn(|| busy(100)).get();
        std::thread::sleep(Duration::from_millis(2));
    }
    engine.stop();

    assert_eq!(
        grain.get(),
        2,
        "the policy should have doubled the grain when the steal-storm \
         event was raised"
    );
    assert!(grain.changes() > 0, "the knob must actually have moved");
    assert!(
        !rt.anomalies().is_empty(),
        "the event log backs the counter the policy observed"
    );
    rt.shutdown();
}
