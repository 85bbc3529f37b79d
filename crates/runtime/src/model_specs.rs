//! Model-checked specs for the scheduler's sleeper/park-gate protocol, the
//! [`crate::sync::EventGate`], the slab and its
//! retirement, the task cell's release, the task ledger's quiescence
//! protocol and the tracer's span rings, with paired
//! deliberately-broken mutants proving the checker catches each
//! lost-wakeup, false-idle or torn-copy class.
//!
//! Compiled only under `RUSTFLAGS="--cfg rpx_model"`; run with
//! `RUSTFLAGS="--cfg rpx_model" cargo test -p rpx-runtime model_`.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex as StdMutex, MutexGuard, OnceLock};

use crossbeam::sync::Parker;
use rpx_model::sync::AtomicBool;
use rpx_model::{check, check_expect_failure, mutation, thread, Config};

use rpx_counters::counter::Clock;

use crate::runtime::RuntimeState;
use crate::scheduler::Scheduler;
use crate::slab::{nop_task, place, Slab, SpawnMeta};
use crate::stats::Ledger;
use crate::sync::EventGate;
use crate::trace::{TaskSpan, TaskTracer};

/// Serializes the specs in this file: mutants arm a process-global
/// registry, so an armed mutation must never overlap another spec's
/// exploration.
fn serial() -> MutexGuard<'static, ()> {
    static M: OnceLock<StdMutex<()>> = OnceLock::new();
    M.get_or_init(|| StdMutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

fn cfg() -> Config {
    Config {
        max_executions: 1500,
        random_walks: 400,
        ..Config::default()
    }
}

/// Protocol 3 — sleeper-count/park-gate lost-wakeup pairing: a worker
/// registers its unparker, re-probes the queues, and parks; a concurrent
/// external push probes the sleeper count and unparks. The Dekker-style
/// `SeqCst` fence pairing guarantees one side observes the other, so the
/// pushed task is always picked up (a lost wakeup deadlocks: the worker
/// parks forever while the pusher waits in `join`).
fn sched_park_gate() {
    let sched = Arc::new(Scheduler::new(1));
    let s2 = sched.clone();
    let worker = thread::spawn(move || {
        let parker = Parker::new();
        let local = s2.deques[0].lock().take().expect("deque unclaimed");
        loop {
            if let Some((t, _)) = s2.find(0, &local) {
                break t.id();
            }
            // Register *before* the final queue re-probe: a push that
            // lands between the probe and the park must see the
            // registration and unpark us.
            s2.register_sleeper(0, parker.unparker().clone());
            if s2.has_queued_work() {
                s2.deregister_sleeper(0);
                continue;
            }
            parker.park();
            s2.deregister_sleeper(0);
        }
    });
    let id = sched.reserve_task_ids(1);
    sched.push(nop_task(id), None);
    let got = worker.join().unwrap();
    assert_eq!(got, id, "worker must pick up the pushed task");
}

#[test]
fn model_sched_park_gate_no_lost_wakeup() {
    let _g = serial();
    mutation::disarm_all();
    check(
        "model_sched_park_gate_no_lost_wakeup",
        cfg(),
        sched_park_gate,
    );
}

#[test]
fn model_sched_wake_fence_mutant_is_caught() {
    let _g = serial();
    mutation::disarm_all();
    mutation::arm("sched-wake-fence");
    let failure = check_expect_failure(
        "model_sched_wake_fence_mutant_is_caught",
        cfg(),
        sched_park_gate,
    );
    mutation::disarm_all();
    assert!(
        failure.message.contains("deadlock") || failure.message.contains("step budget"),
        "expected a lost wakeup, got: {}",
        failure.message
    );
}

/// Protocol 4 — EventGate complete-vs-wait: the signaller publishes its
/// condition with a `SeqCst` store and calls `notify`; the waiter
/// registers (`SeqCst` RMW) before re-checking. Either `notify` sees the
/// registration and broadcasts, or the waiter's re-check sees the
/// condition and never blocks.
fn gate_complete_vs_wait() {
    let gate = Arc::new(EventGate::new());
    let flag = Arc::new(AtomicBool::new(false));
    let (g2, f2) = (gate.clone(), flag.clone());
    let signaller = thread::spawn(move || {
        f2.store(true, Ordering::SeqCst);
        g2.notify();
    });
    gate.wait_until(|| flag.load(Ordering::SeqCst));
    signaller.join().unwrap();
}

#[test]
fn model_event_gate_complete_vs_wait() {
    let _g = serial();
    mutation::disarm_all();
    check(
        "model_event_gate_complete_vs_wait",
        cfg(),
        gate_complete_vs_wait,
    );
}

/// Protocol 6 — slab reclamation generation ordering: `free_slot` must
/// bump the slot's generation *before* pushing it onto a free list.
/// Once the push lands, the owner can recycle the slot; if the old
/// generation were still visible at that point, a stale
/// `Task`/`Join` handle would validate against the recycled
/// slot and read the *next* task's state. The owner's drain
/// (`swap(Acquire)`) pairs with the freer's `Release` push, so a
/// successful alloc must already observe the bumped generation.
fn slab_reclaim_generation() {
    let slab = Slab::new(1, None);
    let idx = slab.alloc().expect("fresh slab has a free slot");
    let gen0 = slab.slot(idx).generation();
    let s2 = slab.clone();
    let freer = thread::spawn(move || s2.free(idx, false));
    // Owner: recycle the slot as soon as the remote return lands.
    loop {
        if let Some(again) = slab.alloc() {
            assert_eq!(again, idx);
            assert_ne!(
                slab.slot(idx).generation(),
                gen0,
                "slot recycled while still carrying the old generation"
            );
            break;
        }
        thread::yield_now();
    }
    freer.join().unwrap();
}

#[test]
fn model_slab_generation_bumps_before_reuse() {
    let _g = serial();
    mutation::disarm_all();
    check(
        "model_slab_generation_bumps_before_reuse",
        cfg(),
        slab_reclaim_generation,
    );
}

#[test]
fn model_slab_gen_bump_after_push_mutant_is_caught() {
    let _g = serial();
    mutation::disarm_all();
    mutation::arm("slab-gen-bump-after-push");
    let failure = check_expect_failure(
        "model_slab_gen_bump_after_push_mutant_is_caught",
        cfg(),
        slab_reclaim_generation,
    );
    mutation::disarm_all();
    assert!(
        failure.message.contains("old generation"),
        "expected a stale-generation recycle, got: {}",
        failure.message
    );
}

/// Protocol 7 — cross-worker return path: a thief freeing a slot links it
/// into the Treiber stack (`next_free` store, then `Release` CAS on
/// `remote_head`); the owner drains the whole chain with one
/// `swap(Acquire)`. The Release/Acquire pairing is what publishes the
/// chain linkage — with a relaxed push the owner can read a stale
/// `next_free` on a drained node, losing the rest of the chain (here:
/// slot `b` becomes unreachable and the recovery loop never finishes).
fn slab_remote_return_publishes_chain() {
    let slab = Slab::new(2, None);
    let a = slab.alloc().expect("slot a");
    let b = slab.alloc().expect("slot b");
    assert!(slab.alloc().is_none(), "slab drained");
    let s2 = slab.clone();
    let freer = thread::spawn(move || {
        // Push b then a, so the drained chain is a → b and the owner
        // must follow a's freer-written `next_free` link to recover b.
        s2.free(b, false);
        s2.free(a, false);
    });
    let mut recovered = 0;
    while recovered < 2 {
        if slab.alloc().is_some() {
            recovered += 1;
        } else {
            thread::yield_now();
        }
    }
    freer.join().unwrap();
}

#[test]
fn model_slab_remote_return_loses_no_slot() {
    let _g = serial();
    mutation::disarm_all();
    check(
        "model_slab_remote_return_loses_no_slot",
        cfg(),
        slab_remote_return_publishes_chain,
    );
}

#[test]
fn model_slab_remote_push_relaxed_mutant_is_caught() {
    let _g = serial();
    mutation::disarm_all();
    mutation::arm("slab-remote-push-relaxed");
    let failure = check_expect_failure(
        "model_slab_remote_push_relaxed_mutant_is_caught",
        cfg(),
        slab_remote_return_publishes_chain,
    );
    mutation::disarm_all();
    assert!(
        failure.message.contains("deadlock") || failure.message.contains("step budget"),
        "expected the unpublished chain to strand a slot, got: {}",
        failure.message
    );
}

/// Protocol 11 — the cell's release (the `slab` module doc, "Cell
/// lifecycle"): the runner writes the outcome, publishes and releases;
/// the future side releases with `TAKEN`, here without waiting. Each
/// release loads `lifecycle` first and cleans up with no RMW if the other
/// side's bit is already there. Cleanup must run exactly once — the slot
/// comes back once — and must read the runner's outcome, which
/// `cleanup` asserts: the `Acquire` probe is what orders the runner's
/// outcome store before the future side's cleanup.
fn cell_release_cleans_up_once() {
    let slab = Slab::new(1, None);
    let (task, join) = place(Some(&*slab), None, SpawnMeta::bare(0), || 7u64);
    let runner = thread::spawn(move || task.claim().run().publish());
    let future = thread::spawn(move || join.release_taken());
    runner.join().unwrap();
    future.join().unwrap();
    assert_eq!(
        slab.local_frees() + slab.remote_frees(),
        1,
        "cleanup ran other than once"
    );
    assert_eq!(slab.alloc(), Some(0), "slot recycled");
}

#[test]
fn model_cell_release_cleans_up_once() {
    let _g = serial();
    mutation::disarm_all();
    check(
        "model_cell_release_cleans_up_once",
        cfg(),
        cell_release_cleans_up_once,
    );
}

#[test]
fn model_cell_release_probe_relaxed_mutant_is_caught() {
    let _g = serial();
    mutation::disarm_all();
    mutation::arm("cell-release-probe-relaxed");
    let failure = check_expect_failure(
        "model_cell_release_probe_relaxed_mutant_is_caught",
        cfg(),
        cell_release_cleans_up_once,
    );
    mutation::disarm_all();
    assert!(
        failure.message.contains("no published outcome"),
        "expected a cleanup that missed the runner's outcome, got: {}",
        failure.message
    );
}

/// Protocol 12 — retirement vs. the last remote free (the `slab` module
/// doc, "Retirement"): a 2-slot slab with one slot out, freed remotely
/// while `retire` folds its target into the remote-free count. Whichever
/// RMW comes second sees the count reach the target and frees the slab,
/// so it is freed (its `Weak` reads dead) and nothing reads it after.
/// Folding the target in with a load and a store can overwrite the
/// concurrent free, and the slab leaks.
fn slab_retire_vs_last_remote_free() {
    let slab = Slab::new(2, None);
    let out = slab.alloc().expect("slot out");
    let back = slab.alloc().expect("slot freed by the owner");
    slab.free(back, true);
    let weak = Arc::downgrade(&slab);
    // The freer holds no `Arc`: the slab's only reference is `retire`'s.
    let addr = Arc::as_ptr(&slab) as usize;
    let freer = thread::spawn(move || {
        // SAFETY: slot `out` is out of the slab, which lives until the
        // last free; this call reads it no more after that.
        unsafe { Slab::free_slot(addr as *const Slab, out, false) }
    });
    Slab::retire(slab);
    freer.join().unwrap();
    assert!(weak.upgrade().is_none(), "retired slab leaked");
}

#[test]
fn model_slab_retire_frees_once_after_the_last_free() {
    let _g = serial();
    mutation::disarm_all();
    check(
        "model_slab_retire_frees_once_after_the_last_free",
        cfg(),
        slab_retire_vs_last_remote_free,
    );
}

#[test]
fn model_slab_retire_fold_not_rmw_mutant_is_caught() {
    let _g = serial();
    mutation::disarm_all();
    mutation::arm("slab-retire-fold-not-rmw");
    let failure = check_expect_failure(
        "model_slab_retire_fold_not_rmw_mutant_is_caught",
        cfg(),
        slab_retire_vs_last_remote_free,
    );
    mutation::disarm_all();
    assert!(
        failure.message.contains("leaked"),
        "expected a lost free to leak the slab, got: {}",
        failure.message
    );
}

/// Protocol 8 — ledger read order: `Ledger::flow` sums `finished` before
/// `started` before `queued`. A task's `queued` bump happens-before its
/// `finished` bump, and a parent bumps `queued` for its child before its
/// own `finished`, so a reading that counts a task as finished also counts
/// everything it spawned as queued: a balanced reading means nothing is
/// live. Here root task A spawns B and finishes; a concurrent reader that
/// sees the ledger balanced must find B's side effect in place.
fn ledger_balanced_reading_proves_quiescence() {
    let ledger = Arc::new(Ledger::new(1));
    let b_ran = Arc::new(AtomicBool::new(false));
    ledger.external().note_queued(); // A, spawned from outside
    let (l2, b2) = (ledger.clone(), b_ran.clone());
    let worker = thread::spawn(move || {
        let shard = l2.worker(0);
        shard.note_started(true); // A starts,
        shard.note_queued(); //      spawns B,
        shard.note_finished(); //    and finishes.
        shard.note_started(true);
        b2.store(true, Ordering::Relaxed);
        shard.note_finished();
    });
    while !ledger.is_idle() {
        thread::yield_now();
    }
    assert!(
        b_ran.load(Ordering::Relaxed),
        "ledger read as idle while a task was still live"
    );
    worker.join().unwrap();
}

#[test]
fn model_ledger_balanced_reading_proves_quiescence() {
    let _g = serial();
    mutation::disarm_all();
    check(
        "model_ledger_balanced_reading_proves_quiescence",
        cfg(),
        ledger_balanced_reading_proves_quiescence,
    );
}

#[test]
fn model_ledger_read_queued_first_mutant_is_caught() {
    let _g = serial();
    mutation::disarm_all();
    mutation::arm("ledger-read-queued-first");
    let failure = check_expect_failure(
        "model_ledger_read_queued_first_mutant_is_caught",
        cfg(),
        ledger_balanced_reading_proves_quiescence,
    );
    mutation::disarm_all();
    assert!(
        failure.message.contains("still live"),
        "expected a false idle, got: {}",
        failure.message
    );
}

/// Protocol 9 — idle-edge wake-up: no task touches the idle gate on its
/// way out; a worker probes it at the find-miss that follows
/// (`worker::idle_step`, after `register_sleeper`'s `SeqCst` fence), and
/// a `wait_idle` caller registers, fences, and reads the ledger. Whichever
/// fence comes last in the `SeqCst` order sees the other side: the waiter
/// reads a balanced ledger and returns, or the worker sees the
/// registration and broadcasts. A lost wake-up parks the waiter forever.
fn idle_edge_wakes_idle_waiter() {
    let state = Arc::new(RuntimeState::new(1, Arc::new(Clock::new()), None, None));
    let sched = Arc::new(Scheduler::new(1));
    // The last task is running on the worker when the waiter arrives.
    state.ledger.worker(0).note_queued();
    state.ledger.worker(0).note_started(true);
    let (state2, sched2) = (state.clone(), sched.clone());
    let worker = thread::spawn(move || {
        let parker = Parker::new();
        let shutdown = std::sync::atomic::AtomicBool::new(false);
        state2.ledger.worker(0).note_finished();
        crate::worker::idle_step(&sched2, &shutdown, &parker, &state2, 0, 0);
    });
    assert!(state.wait_idle(None));
    worker.join().unwrap();
}

#[test]
fn model_idle_edge_wakes_idle_waiter() {
    let _g = serial();
    mutation::disarm_all();
    check(
        "model_idle_edge_wakes_idle_waiter",
        cfg(),
        idle_edge_wakes_idle_waiter,
    );
}

#[test]
fn model_idle_wait_fence_relaxed_mutant_is_caught() {
    let _g = serial();
    mutation::disarm_all();
    mutation::arm("idle-wait-fence-relaxed");
    let failure = check_expect_failure(
        "model_idle_wait_fence_relaxed_mutant_is_caught",
        cfg(),
        idle_edge_wakes_idle_waiter,
    );
    mutation::disarm_all();
    assert!(
        failure.message.contains("deadlock") || failure.message.contains("step budget"),
        "expected the unfenced waiter to miss the last finish, got: {}",
        failure.message
    );
}

#[test]
fn model_gate_probe_relaxed_mutant_is_caught() {
    let _g = serial();
    mutation::disarm_all();
    mutation::arm("gate-probe-relaxed");
    let failure = check_expect_failure(
        "model_gate_probe_relaxed_mutant_is_caught",
        cfg(),
        gate_complete_vs_wait,
    );
    mutation::disarm_all();
    assert!(
        failure.message.contains("deadlock") || failure.message.contains("step budget"),
        "expected a missed broadcast, got: {}",
        failure.message
    );
}

/// A span whose every field is a function of its id, so a copy that mixes
/// two writes is recognisable.
fn stamped(id: u64) -> TaskSpan {
    TaskSpan {
        task_id: id,
        parent: (id % 2 == 0).then_some(id + 40),
        site: id as u32 + 7,
        worker: 0,
        start_ns: id * 10,
        end_ns: id * 10 + 5,
        wait_ns: id + 1,
        nested_ns: id + 2,
    }
}

/// Protocol 10 — span-ring copy and re-check (DESIGN.md §15): a worker's
/// ring owner stores a slot's words and publishes the cursor with a
/// `Release` store; `spans()` copies, fences, re-reads the cursor and drops
/// every span the owner may have overwritten meanwhile. The window holds
/// one span, each ring two slots. Worker 0's ring holds one old span (end
/// stamp 0), so the copy has more than it keeps and first cuts the window
/// on the end stamps it reads from the live ring — a tie goes to the
/// higher ring, so the cut always keeps worker 1's newest. Worker 1, the
/// owner, writes spans 0, 1 and 2 — span 2 over span 0 — and the reader
/// copies once it has seen span 0 published. Whatever it returns must be a
/// span the owner wrote, whole: not span 0 half overwritten (no re-check),
/// nor a span read before its words arrived (a `Relaxed` cursor store).
fn span_ring_copy_vs_owner() {
    let tracer = TaskTracer::for_workers(1, 2);
    tracer.enable();
    tracer.record_on(
        0,
        TaskSpan {
            start_ns: 0,
            end_ns: 0,
            ..stamped(100)
        },
        || 0,
    );
    let t2 = tracer.clone();
    let owner = thread::spawn(move || {
        for id in 0..3 {
            t2.record_on(1, stamped(id), || 0);
        }
    });
    while tracer.records() < 2 {
        thread::yield_now();
    }
    let spans = tracer.spans();
    assert!(spans.len() <= 1);
    for s in spans {
        assert_eq!(s, stamped(s.task_id), "copied a torn span");
    }
    owner.join().unwrap();
}

#[test]
fn model_span_ring_copy_never_returns_a_torn_span() {
    let _g = serial();
    mutation::disarm_all();
    check(
        "model_span_ring_copy_never_returns_a_torn_span",
        cfg(),
        span_ring_copy_vs_owner,
    );
}

#[test]
fn model_span_ring_skip_recheck_mutant_is_caught() {
    let _g = serial();
    mutation::disarm_all();
    mutation::arm("span-ring-skip-recheck");
    let failure = check_expect_failure(
        "model_span_ring_skip_recheck_mutant_is_caught",
        cfg(),
        span_ring_copy_vs_owner,
    );
    mutation::disarm_all();
    assert!(
        failure.message.contains("torn span"),
        "expected a copy overwritten mid-read, got: {}",
        failure.message
    );
}

#[test]
fn model_span_ring_cursor_relaxed_mutant_is_caught() {
    let _g = serial();
    mutation::disarm_all();
    mutation::arm("span-ring-cursor-relaxed");
    let failure = check_expect_failure(
        "model_span_ring_cursor_relaxed_mutant_is_caught",
        cfg(),
        span_ring_copy_vs_owner,
    );
    mutation::disarm_all();
    assert!(
        failure.message.contains("torn span"),
        "expected a published span read before its words, got: {}",
        failure.message
    );
}
