//! Model-checked specs for the lock-free deque and injector, with paired
//! deliberately-broken mutants proving the checker catches each bug class.
//!
//! Compiled only under `RUSTFLAGS="--cfg rpx_model"`; run with
//! `RUSTFLAGS="--cfg rpx_model" cargo test -p crossbeam model_`. A failing
//! exploration prints the seed and a one-line reproduction command
//! (`RPX_TEST_SEED=... cargo test <spec>`).

use std::collections::HashSet;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use rpx_model::{check, check_expect_failure, mutation, thread, Config};

use crate::deque::{Injector, Steal, Worker};

/// Serializes the specs in this file: mutants arm a process-global
/// registry, so an armed mutation must never overlap another spec's
/// exploration.
fn serial() -> MutexGuard<'static, ()> {
    static M: OnceLock<Mutex<()>> = OnceLock::new();
    M.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

fn cfg() -> Config {
    Config {
        // The deque duplicate needs the owner's pop interleaved between
        // two steal sequences — more context switches than the default
        // bound of 2 allows.
        preemption_bound: 4,
        max_executions: 1500,
        random_walks: 400,
        ..Config::default()
    }
}

/// Protocol 1 — Chase–Lev owner `pop` vs stealer CAS, including buffer
/// growth: every pushed item is delivered exactly once, split between the
/// owner and one concurrent stealer. Starts from capacity 2 so the pushes
/// grow the buffer while the stealer may hold a stale buffer pointer.
fn deque_exact_once() {
    const ITEMS: usize = 4;
    let w = Worker::new_lifo_with_min_capacity(2);
    for i in 0..ITEMS {
        w.push(i);
    }
    let s = w.stealer();
    let stealer = thread::spawn(move || {
        let mut got = Vec::new();
        let mut retries = 0;
        loop {
            match s.steal() {
                Steal::Success(v) => got.push(v),
                Steal::Empty => break,
                Steal::Retry => {
                    // A lost CAS means the owner (or a previous claim)
                    // made progress; a few retries suffice in this
                    // bounded scenario.
                    retries += 1;
                    if retries > 8 {
                        break;
                    }
                    rpx_model::hint::spin_loop();
                }
            }
        }
        got
    });
    let mut popped = Vec::new();
    while let Some(v) = w.pop() {
        popped.push(v);
    }
    let stolen = stealer.join().unwrap();
    let mut seen = HashSet::new();
    for v in popped.iter().chain(stolen.iter()) {
        assert!(seen.insert(*v), "item {v} delivered twice");
    }
    // The owner pops until `None`, which the protocol only reports once
    // every item has been claimed — so exactly-once implies completeness.
    assert_eq!(
        seen.len(),
        ITEMS,
        "items lost: popped={popped:?} stolen={stolen:?}"
    );
}

#[test]
fn model_deque_owner_pop_vs_steal_exact_once() {
    let _g = serial();
    mutation::disarm_all();
    check(
        "model_deque_owner_pop_vs_steal_exact_once",
        cfg(),
        deque_exact_once,
    );
}

#[test]
fn model_deque_pop_fence_mutant_is_caught() {
    let _g = serial();
    mutation::disarm_all();
    mutation::arm("deque-pop-fence");
    let failure = check_expect_failure(
        "model_deque_pop_fence_mutant_is_caught",
        cfg(),
        deque_exact_once,
    );
    mutation::disarm_all();
    assert!(
        failure.message.contains("delivered twice") || failure.message.contains("items lost"),
        "expected a duplicate or loss, got: {}",
        failure.message
    );
}

/// Protocol 2 — injector block claim/free: two producers race the tail
/// CAS across a lap boundary (model blocks hold 3 slots), the consumer
/// crosses the boundary and frees the exhausted block via the done
/// counter. Per-producer FIFO order and exactly-once delivery must hold.
fn injector_exact_once() {
    const PER_PRODUCER: usize = 3;
    let inj = Arc::new(Injector::new());
    let i2 = inj.clone();
    let producer = thread::spawn(move || {
        for v in 0..PER_PRODUCER {
            i2.push(100 + v);
        }
    });
    for v in 0..PER_PRODUCER {
        inj.push(200 + v);
    }
    let mut got = Vec::new();
    let mut idle = 0;
    while got.len() < 2 * PER_PRODUCER {
        match inj.steal() {
            Steal::Success(v) => {
                got.push(v);
                idle = 0;
            }
            Steal::Empty | Steal::Retry => {
                idle += 1;
                assert!(idle < 64, "injector stopped delivering; got {got:?}");
                rpx_model::hint::spin_loop();
            }
        }
    }
    producer.join().unwrap();
    assert_eq!(inj.steal(), Steal::Empty);
    assert!(inj.is_empty());
    let a: Vec<usize> = got.iter().copied().filter(|v| *v < 200).collect();
    let b: Vec<usize> = got.iter().copied().filter(|v| *v >= 200).collect();
    assert_eq!(a, (0..PER_PRODUCER).map(|v| 100 + v).collect::<Vec<_>>());
    assert_eq!(b, (0..PER_PRODUCER).map(|v| 200 + v).collect::<Vec<_>>());
}

#[test]
fn model_injector_block_claim_free_exact_once() {
    let _g = serial();
    mutation::disarm_all();
    check(
        "model_injector_block_claim_free_exact_once",
        cfg(),
        injector_exact_once,
    );
}

#[test]
fn model_injector_lap_advance_mutant_is_caught() {
    let _g = serial();
    mutation::disarm_all();
    mutation::arm("injector-lap-advance-relaxed");
    let failure = check_expect_failure(
        "model_injector_lap_advance_mutant_is_caught",
        cfg(),
        injector_exact_once,
    );
    mutation::disarm_all();
    // The stranded value shows up as the consumer spinning dry (the idle
    // assert) or as the whole execution livelocking on the step budget.
    assert!(
        failure.message.contains("stopped delivering")
            || failure.message.contains("step budget")
            || failure.message.contains("deadlock"),
        "expected a stranded value, got: {}",
        failure.message
    );
}
