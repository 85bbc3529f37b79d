//! Worker threads: the scheduling loop, the thread-local worker context,
//! and the two ways a future waits on a worker: the run-as-child join and
//! the work-helping wait.
//!
//! Everything a scheduling loop writes per task lands in the worker's own
//! ledger shard ([`crate::stats::Shard`]), and everything it reads beyond
//! that is borrowed from the `Arc<RuntimeInner>` the loop itself holds —
//! the per-task path upgrades no `Weak` and clones no `Arc`: a
//! slab-resident task's `Join` holds only its cell, and a slab outlives
//! its cells by retirement (`Slab::retire`), not by a count. The park
//! decision probes the queues directly (`Scheduler::has_queued_work`),
//! and the find-miss edge is also where `wait_idle` callers are woken
//! (see [`idle_step`]).

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::deque::Worker as Deque;
use crossbeam::sync::Parker;

use crate::faults::InjectedFault;
use crate::runtime::{RuntimeInner, RuntimeState};
use crate::scheduler::{Scheduler, Task};
use crate::stats::Shard;

/// What a worker thread knows about itself while its loop runs. Every
/// pointer targets something the loop's stack frame keeps alive — the
/// `Arc<RuntimeInner>` argument of [`worker_loop`] and the deque in its
/// `LoopGuard` — and the context is cleared before that frame unwinds, so
/// a context read on this thread is never dangling.
#[derive(Clone, Copy)]
struct Ctx {
    index: usize,
    /// The runtime's process-unique id (`RuntimeInner::id`).
    id: u64,
    inner: *const RuntimeInner,
    /// Identity of the runtime's task-lifecycle state.
    state: *const RuntimeState,
    /// The worker's own deque; only ever dereferenced from this thread.
    local: *const Deque<Task>,
    /// The worker's own slab.
    slab: *const crate::slab::Slab,
}

thread_local! {
    static CTX: Cell<Option<Ctx>> = const { Cell::new(None) };
}

/// Whether the calling thread is one of a runtime's workers.
pub(crate) fn on_worker_thread() -> bool {
    CTX.get().is_some()
}

/// The calling worker's index within its runtime, if any. Exposed through
/// [`crate::runtime::Runtime::current_worker`].
pub(crate) fn current_worker_index() -> Option<usize> {
    CTX.get().map(|ctx| ctx.index)
}

/// A worker's identity within one specific runtime: its index plus its
/// own deque. `local` is only valid on the worker's thread (which is the
/// only thread that can obtain a `WorkerRef` for it) while the worker
/// loop below it on the stack is alive.
#[derive(Clone, Copy)]
pub(crate) struct WorkerRef {
    pub index: usize,
    pub local: *const Deque<Task>,
}

/// The calling worker's identity, but only when it belongs to the runtime
/// with id `id`, together with that runtime. Every spawn path goes through
/// this instead of [`current_worker_index`]: a worker of runtime A
/// spawning into runtime B must not index B's per-worker state with A's
/// index. The check compares ids, which are never reused, so it touches no
/// shared line; a `Some` also proves the returned runtime is alive for as
/// long as the caller stays inside the current task (the worker loop holds
/// it).
pub(crate) fn context_for(id: u64) -> Option<(*const RuntimeInner, WorkerRef)> {
    CTX.get().filter(|ctx| ctx.id == id).map(|ctx| {
        let (index, local) = (ctx.index, ctx.local);
        (ctx.inner, WorkerRef { index, local })
    })
}

/// The ledger shard that accounts for work the calling thread does on
/// behalf of `state`'s runtime: the caller's own if it is one of that
/// runtime's workers, else the external shard — never the index it has
/// in some other runtime (see [`context_for`]).
pub(crate) fn shard_in(state: &RuntimeState) -> &Shard {
    match CTX.get().filter(|ctx| std::ptr::eq(ctx.state, state)) {
        Some(ctx) => state.ledger.worker(ctx.index),
        None => state.ledger.external(),
    }
}

/// The calling worker's slab, or null when not on a worker thread. Used
/// by the cell cleanup to decide between the owner-local free list and
/// the cross-worker return path.
pub(crate) fn current_slab_ptr() -> *const crate::slab::Slab {
    CTX.get().map_or(std::ptr::null(), |ctx| ctx.slab)
}

/// One `find` on behalf of worker `index`, with its scheduler-side
/// accounting on a hit: the dispatch overhead since `t0` plus the steals.
/// Execution timing lives in `runtime::run_task` so it is ordered before
/// the future's completion.
fn find_task(
    inner: &RuntimeInner,
    index: usize,
    shard: &Shard,
    deque: &Deque<Task>,
    t0: u64,
) -> Option<Task> {
    let (task, stolen) = inner.scheduler.find(index, deque)?;
    shard.record_overhead(inner.state.clock.now_ns().saturating_sub(t0));
    // The steal count covers every task the find moved off another
    // worker's deque: the one returned plus any batch-steal extras now
    // parked in our local deque. Those extras come back out as local
    // (unstolen) finds, so crediting them here keeps
    // `/threads/count/stolen` equal to "tasks migrated between workers"
    // without double counting.
    shard.record_steals(stolen);
    Some(task)
}

/// Run one found task on worker `shard`.
fn execute_task(state: &RuntimeState, shard: &Shard, task: Task) {
    crate::runtime::run_task(state, shard, task.claim());
}

/// Clears the worker context and re-parks the deque into its scheduler
/// slot on every exit from the loop — normal shutdown *and* unwinds. The
/// re-park is what makes worker respawn after an injected (or real) panic
/// lossless: the next `worker_loop` on this slot claims the same deque
/// with all queued tasks intact.
struct LoopGuard<'a> {
    inner: &'a RuntimeInner,
    index: usize,
    deque: Option<Deque<Task>>,
}

impl Drop for LoopGuard<'_> {
    fn drop(&mut self) {
        CTX.set(None);
        *self.inner.scheduler.deques[self.index].lock() = self.deque.take();
    }
}

/// The main scheduling loop of worker `index`.
pub(crate) fn worker_loop(inner: Arc<RuntimeInner>, index: usize) {
    let deque = inner.scheduler.deques[index]
        .lock()
        .take()
        .expect("worker deque claimed twice");
    let guard = LoopGuard {
        inner: &inner,
        index,
        deque: Some(deque),
    };
    let local: *const Deque<Task> = guard.deque.as_ref().expect("deque just parked") as *const _;
    CTX.set(Some(Ctx {
        index,
        id: inner.id,
        inner: Arc::as_ptr(&inner),
        state: Arc::as_ptr(&inner.state),
        local,
        slab: Arc::as_ptr(&inner.slabs[index]),
    }));

    // SAFETY: `local` points into `guard`, which outlives `run_loop` and is
    // not moved after the pointer is taken.
    run_loop(&inner, index, unsafe { &*local });
}

/// One find-miss step of the scheduling loop: register as a sleeper, park
/// unless the queues are (now) non-empty or shutdown was requested,
/// deregister, and attribute the *whole* window since `t0` — the failed
/// find, the registration, and any park — to `idle_ns`. Returns false when
/// the loop should exit (shutdown).
///
/// This is also the edge at which `wait_idle`/`quiesce` callers are
/// woken. A worker that finishes a task gets here before it can go quiet,
/// and `register_sleeper` ends in the `SeqCst` fence that orders this
/// worker's ledger stores before its probe of the idle gate — the per-task
/// path itself never looks at the waiters (see `RuntimeState::wait_idle`).
///
/// Extracted from `run_loop` so the accounting is unit-testable: the
/// register-then-recheck path used to `continue` without accruing the
/// elapsed time to either `idle_ns` or `overhead_ns`, silently dropping
/// wall-clock from the counters' time balance.
pub(crate) fn idle_step(
    scheduler: &Scheduler,
    shutdown: &AtomicBool,
    parker: &Parker,
    state: &RuntimeState,
    index: usize,
    t0: u64,
) -> bool {
    if shutdown.load(Ordering::Acquire) {
        return false;
    }
    // Register before the final probe so a push that races with us is
    // guaranteed to either be seen by the probe or unpark us (the fence
    // pairing is documented on `Scheduler::register_sleeper`).
    scheduler.register_sleeper(index, parker.unparker().clone());
    state.notify_if_idle();
    // `SeqCst` so the shutdown store (also `SeqCst`) is covered by the same
    // fence pairing as a task push: either `wake_all` sees our
    // registration, or we see the flag here.
    if !(scheduler.has_queued_work() || shutdown.load(Ordering::SeqCst)) {
        parker.park_timeout(Duration::from_micros(500));
    }
    scheduler.deregister_sleeper(index);
    let t1 = state.clock.now_ns();
    state
        .ledger
        .worker(index)
        .record_idle(t1.saturating_sub(t0));
    !shutdown.load(Ordering::Acquire)
}

fn run_loop(inner: &RuntimeInner, index: usize, deque: &Deque<Task>) {
    let parker = Parker::new();
    let state: &RuntimeState = &inner.state;
    let shard = state.ledger.worker(index);

    loop {
        shard.beat();
        let t0 = state.clock.now_ns();
        match find_task(inner, index, shard, deque, t0) {
            Some(task) => {
                // Injected stall sits between taking the task and running
                // it: the task is live for the whole sleep, so the
                // watchdog has a guaranteed window to observe the frozen
                // heartbeat.
                if let Some(faults) = &state.faults {
                    if let Some(stall) = faults.inject_stall() {
                        std::thread::sleep(stall);
                    }
                }
                execute_task(state, shard, task);
                // Injected worker kill fires only after the task completed:
                // the unwind holds no task, so respawning loses nothing.
                if let Some(faults) = &state.faults {
                    if faults.inject_worker_kill() {
                        std::panic::panic_any(InjectedFault("worker-kill"));
                    }
                }
            }
            None => {
                if !idle_step(&inner.scheduler, &inner.shutdown, &parker, state, index, t0) {
                    break;
                }
            }
        }
    }
}

/// Run-as-child: when the task `is_child` picks out is on top of the
/// calling worker's own deque, pop it and run it here, on this worker's
/// shard, the way a `Fork` child runs — what Rayon's `join` does with its
/// own job. Returns whether it ran; false off a worker thread, on a miss
/// (the task was stolen, is buried under later spawns, or is not queued),
/// or when a stealer won the task between the peek and the pop.
///
/// The help loop would have popped the same task first, so only the
/// accounting differs: there is no find window, so no clock read, no
/// `record_overhead` and no `record_steals`. The pop lands in the
/// joiner's exec, and the child's gross time is deducted from it as any
/// nested body's is.
///
/// # Safety
///
/// `is_child` sees the top task while a thief may be claiming and running
/// it (see `Worker::pop_if`): it may compare the handle's own fields, but
/// must not dereference its cell.
pub(crate) unsafe fn run_if_on_top(is_child: impl FnOnce(&Task) -> bool) -> bool {
    let Some(ctx) = CTX.get() else {
        return false;
    };
    // SAFETY: this thread's worker loop is below us on the stack and keeps
    // both the runtime and its deque alive (see `Ctx`).
    let (inner, deque) = unsafe { (&*ctx.inner, &*ctx.local) };
    // SAFETY: the caller's contract is `pop_if`'s.
    let Some(task) = (unsafe { deque.pop_if(is_child) }) else {
        return false;
    };
    let state: &RuntimeState = &inner.state;
    let shard = state.ledger.worker(ctx.index);
    // The watchdog's progress signal, as each help-loop turn gives it: a
    // long join chain that always hits would otherwise look stalled.
    shard.beat();
    execute_task(state, shard, task);
    true
}

/// Work-helping wait: while `pred()` holds, execute other pending tasks on
/// the calling worker; spin/yield briefly when no work is available. Falls
/// back to yielding when called off a worker thread.
pub(crate) fn help_while(pred: impl Fn() -> bool) {
    let Some(ctx) = CTX.get() else {
        while pred() {
            std::thread::yield_now();
        }
        return;
    };
    // SAFETY: this thread's worker loop is below us on the stack and keeps
    // both the runtime and its deque alive (see `Ctx`).
    let (inner, deque) = unsafe { (&*ctx.inner, &*ctx.local) };
    let state: &RuntimeState = &inner.state;
    let shard = state.ledger.worker(ctx.index);
    let mut idle_spins: u32 = 0;
    while pred() {
        shard.beat();
        let t0 = state.clock.now_ns();
        match find_task(inner, ctx.index, shard, deque, t0) {
            Some(task) => {
                execute_task(state, shard, task);
                idle_spins = 0;
            }
            None => {
                idle_spins = idle_spins.saturating_add(1);
                if idle_spins < 16 {
                    std::hint::spin_loop();
                } else if idle_spins < 64 {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(Duration::from_micros(20));
                }
                let t1 = state.clock.now_ns();
                shard.record_idle(t1.saturating_sub(t0));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{Runtime, RuntimeConfig, RuntimeHandle};
    use crate::slab::nop_task;
    use rpx_counters::counter::Clock;
    use std::sync::atomic::AtomicU64;
    use std::time::Instant;

    fn one_worker_state() -> RuntimeState {
        RuntimeState::new(1, Arc::new(Clock::new()), None, None)
    }

    /// Regression: the register-sleeper → recheck → continue path used to
    /// attribute its elapsed time to neither `idle_ns` nor `overhead_ns`,
    /// leaking wall-clock out of the counter time balance. Both exits of
    /// `idle_step` must accrue the window since `t0` to `idle_ns`.
    #[test]
    fn idle_step_accrues_idle_time_even_when_work_is_queued() {
        let s = Scheduler::new(1);
        let state = one_worker_state();
        let parker = Parker::new();
        let shutdown = AtomicBool::new(false);
        // Queued work forces the no-park exit (the old `continue` branch).
        s.push(nop_task(1), None);
        let t0 = state.clock.now_ns();
        std::thread::sleep(Duration::from_millis(2));
        let t_entry = Instant::now();
        assert!(idle_step(&s, &shutdown, &parker, &state, 0, t0));
        assert!(
            t_entry.elapsed() < Duration::from_millis(400),
            "queued work must skip the park"
        );
        let idle = state.ledger.worker(0).idle_ns.load(Ordering::Relaxed);
        assert!(
            idle >= 2_000_000,
            "the whole window since t0 must be idle-accounted, got {idle}ns"
        );
        assert_eq!(s.sleeper_count(), 0, "sleeper must deregister");
    }

    #[test]
    fn idle_step_parks_and_accrues_when_no_work() {
        let s = Scheduler::new(1);
        let state = one_worker_state();
        let parker = Parker::new();
        let shutdown = AtomicBool::new(false);
        let t0 = state.clock.now_ns();
        assert!(idle_step(&s, &shutdown, &parker, &state, 0, t0));
        let idle = state.ledger.worker(0).idle_ns.load(Ordering::Relaxed);
        assert!(
            idle >= 300_000,
            "park window must be idle-accounted, got {idle}ns"
        );
        assert_eq!(s.sleeper_count(), 0);
    }

    #[test]
    fn idle_step_exits_on_shutdown() {
        let s = Scheduler::new(1);
        let state = one_worker_state();
        let parker = Parker::new();
        let shutdown = AtomicBool::new(true);
        let t0 = state.clock.now_ns();
        assert!(!idle_step(&s, &shutdown, &parker, &state, 0, t0));
    }

    fn fib(h: &RuntimeHandle, n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let h2 = h.clone();
        let a = h.spawn(move || fib(&h2, n - 1));
        let b = fib(h, n - 2);
        a.get() + b
    }

    /// The miss path: `a` is buried under `b` when it is joined, so the
    /// join falls through to the help loop, which runs the top task `b`
    /// and then `a`; `b`'s join then finds it done. Each task runs once
    /// and every queued task starts and finishes once.
    #[test]
    fn a_buried_child_is_joined_through_the_help_loop() {
        let rt = Runtime::new(RuntimeConfig::with_workers(1));
        let h = rt.handle();
        let runs = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
        let r = runs.clone();
        let root = rt.spawn(move || {
            let (ra, rb) = (r.clone(), r.clone());
            let a = h.spawn(move || {
                ra[0].fetch_add(1, Ordering::Relaxed);
                1
            });
            let b = h.spawn(move || {
                rb[1].fetch_add(1, Ordering::Relaxed);
                2
            });
            let va = a.get();
            let b_ran_in_a_join = r[1].load(Ordering::Relaxed) == 1;
            (va, b.get(), b_ran_in_a_join)
        });
        let (va, vb, b_ran_in_a_join) = root.get();
        assert_eq!((va, vb), (1, 2));
        assert!(b_ran_in_a_join, "the help loop runs the top task, b, first");
        rt.wait_idle();
        for (task, n) in ["a", "b"].iter().zip(runs.iter()) {
            assert_eq!(n.load(Ordering::Relaxed), 1, "{task} ran once");
        }
        let flow = rt.state().ledger.flow();
        assert_eq!((flow.queued, flow.started, flow.finished), (3, 3, 3));
        rt.shutdown();
    }

    /// Two workers: one root task spawns two children per round and joins
    /// them, while the other worker, idle but woken by every push, steals.
    /// Even rounds join newest first (each child on top of the joiner's
    /// deque: a hit unless the thief takes it between the peek and the
    /// pop), odd rounds oldest first (a miss into the help loop). No child
    /// is lost or run twice, and the ledger balances. A join that took a
    /// child without `pop`'s claim would run it twice or lose one; the
    /// timeout turns a lost one into a failure, not a hang.
    #[test]
    fn children_stolen_between_peek_and_pop_run_exactly_once() {
        const ROUNDS: usize = 10_000;
        let rt = Runtime::new(RuntimeConfig::with_workers(2));
        let runs: Arc<Vec<AtomicU64>> =
            Arc::new((0..2 * ROUNDS).map(|_| AtomicU64::new(0)).collect());
        let (h, r) = (rt.handle(), runs.clone());
        let root = rt.spawn(move || {
            let mut sum = 0;
            for round in 0..ROUNDS {
                let [a, b] = [2 * round, 2 * round + 1].map(|i| {
                    let r = r.clone();
                    h.spawn(move || {
                        r[i].fetch_add(1, Ordering::Relaxed);
                        i
                    })
                });
                let (first, second) = if round % 2 == 0 { (b, a) } else { (a, b) };
                sum += first.get();
                sum += second.get();
            }
            sum
        });
        let sum = root
            .get_timeout(Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("a child was lost"));
        assert_eq!(sum, (2 * ROUNDS) * (2 * ROUNDS - 1) / 2);
        rt.wait_idle();
        for (i, n) in runs.iter().enumerate() {
            assert_eq!(n.load(Ordering::Relaxed), 1, "child {i} ran once");
        }
        let state = rt.state();
        let total = (1 + 2 * ROUNDS) as u64;
        let flow = state.ledger.flow();
        assert_eq!(
            (flow.queued, flow.started, flow.finished),
            (total, total, total)
        );
        let executed = state.ledger.total(|s| s.executed.load(Ordering::Relaxed));
        assert_eq!(executed, total);
        rt.shutdown();
    }

    /// A child on top of its joiner's deque runs inline in the join: no
    /// find window is recorded, and its span names the joiner as parent,
    /// the joiner's worker, and lies inside the joiner's window, whose
    /// nested time covers it.
    #[test]
    fn an_inline_joined_child_spans_under_its_joiner() {
        let rt = Runtime::new(RuntimeConfig::with_workers(1));
        let tracer = rt.tracer();
        tracer.enable();
        let (h, state) = (rt.handle(), rt.state());
        let root = rt.spawn(move || {
            let child = h.spawn(|| 7);
            let overhead = || state.ledger.worker(0).overhead_ns.load(Ordering::Relaxed);
            let before = overhead();
            let v = child.get();
            (v, overhead() - before)
        });
        let (v, join_overhead) = root.get();
        assert_eq!(v, 7);
        assert_eq!(join_overhead, 0, "an inline join has no find window");
        rt.wait_idle();
        tracer.disable();
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2, "{spans:?}");
        let joiner = spans
            .iter()
            .find(|s| s.parent.is_none())
            .expect("root span");
        let child = spans
            .iter()
            .find(|s| s.parent == Some(joiner.task_id))
            .expect("the child names its joiner as parent");
        assert_eq!(child.worker, joiner.worker);
        assert!(joiner.start_ns <= child.start_ns && child.end_ns <= joiner.end_ns);
        assert!(joiner.nested_ns >= child.duration_ns());
        rt.shutdown();
    }

    /// One task joins for longer than the stall threshold, and every one of
    /// fib's joins finds its child on top, so the help loop (and its
    /// heartbeat) never runs: the inline path's own heartbeat keeps the
    /// watchdog from counting a stall.
    #[test]
    fn a_long_inline_join_chain_counts_no_stall() {
        let rt = Runtime::new(RuntimeConfig::with_workers(1));
        let h = rt.handle();
        let window = crate::watchdog::STALL_THRESHOLD + Duration::from_millis(200);
        let rounds = rt
            .spawn(move || {
                let t = Instant::now();
                let mut rounds = 0u64;
                while t.elapsed() < window {
                    assert_eq!(fib(&h, 12), 144);
                    rounds += 1;
                }
                rounds
            })
            .get();
        assert!(rounds > 0);
        let stalls = rt
            .registry()
            .evaluate("/runtime{locality#0/total}/health/stalls", false)
            .unwrap()
            .value;
        assert_eq!(stalls, 0, "a join chain that always hits is progress");
        rt.shutdown();
    }

    /// The find-miss edge is where idle waiters are woken: a waiter blocked
    /// on an unbalanced ledger returns once the last finish is followed by
    /// an `idle_step`, and not before.
    #[test]
    fn idle_step_wakes_idle_waiters_once_the_ledger_balances() {
        let s = Scheduler::new(1);
        let state = one_worker_state();
        let parker = Parker::new();
        let shutdown = AtomicBool::new(false);
        let shard = state.ledger.worker(0);
        shard.note_queued();
        shard.note_started(true);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| state.wait_idle(None));
            while state.idle_waiters() == 0 {
                std::thread::yield_now();
            }
            // An idle edge with the task still running wakes nobody.
            assert!(idle_step(
                &s,
                &shutdown,
                &parker,
                &state,
                0,
                state.clock.now_ns()
            ));
            assert!(!waiter.is_finished());
            shard.note_finished();
            assert!(idle_step(
                &s,
                &shutdown,
                &parker,
                &state,
                0,
                state.clock.now_ns()
            ));
            assert!(waiter.join().unwrap());
        });
    }
}
