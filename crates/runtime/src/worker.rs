//! Worker threads: the scheduling loop, the thread-local worker context,
//! and the work-helping wait used by futures.
//!
//! Dispatch accounting is batched: each scheduling loop folds its
//! `pending`-counter decrements into a [`PendingBatch`] and publishes them
//! every [`PendingBatch::FLUSH_EVERY`] tasks (and whenever the loop runs
//! dry), so the fork/join inner loop does one shared-counter RMW per batch
//! instead of per task. The park decision does not read `pending` at all —
//! it probes the queues directly (`Scheduler::has_queued_work`), so batch
//! staleness can never strand a worker.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use crossbeam::deque::Worker as Deque;
use crossbeam::sync::Parker;

use rpx_counters::counter::Clock;

use crate::faults::InjectedFault;
use crate::runtime::{RuntimeInner, RuntimeState};
use crate::scheduler::{Scheduler, Task};
use crate::stats::WorkerStats;

struct Ctx {
    index: usize,
    inner: Weak<RuntimeInner>,
    /// Identity of the runtime's task-lifecycle state (compared, never
    /// dereferenced).
    state: *const RuntimeState,
    /// Pointer to the worker's own deque, valid for the lifetime of the
    /// worker loop; only ever dereferenced from this thread.
    local: *const Deque<Task>,
    /// Pointer to the worker's own slab (kept alive by `RuntimeInner`,
    /// which this thread holds an `Arc` to for the loop's lifetime).
    slab: *const crate::slab::Slab,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// Whether the calling thread is one of a runtime's workers.
pub(crate) fn on_worker_thread() -> bool {
    CTX.with(|c| c.borrow().is_some())
}

/// The calling worker's index within its runtime, if any. Exposed through
/// [`crate::runtime::Runtime::current_worker`].
pub(crate) fn current_worker_index() -> Option<usize> {
    CTX.with(|c| c.borrow().as_ref().map(|ctx| ctx.index))
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

/// The calling worker's identity, but only when it belongs to *this*
/// runtime. Spawn paths must use this instead of
/// [`current_worker_index`]: a worker of runtime A spawning into runtime
/// B must not index B's per-worker state with A's index. The identity
/// check compares pointers (`Weak::as_ptr`), so the spawn hot path pays
/// no refcount RMW.
pub(crate) fn context_for(inner: &Arc<RuntimeInner>) -> Option<WorkerRef> {
    CTX.with(|c| {
        c.borrow().as_ref().and_then(|ctx| {
            if std::ptr::eq(ctx.inner.as_ptr(), Arc::as_ptr(inner)) {
                Some(WorkerRef {
                    index: ctx.index,
                    local: ctx.local,
                })
            } else {
                None
            }
        })
    })
}

/// The worker whose statistics account for work the calling thread does on
/// behalf of `state`'s runtime: the caller's own index if it is one of that
/// runtime's workers, else slot 0 — never the index it has in some other
/// runtime (see [`context_for`]).
pub(crate) fn index_in(state: &RuntimeState) -> usize {
    CTX.with(|c| {
        c.borrow()
            .as_ref()
            .filter(|ctx| std::ptr::eq(ctx.state, state))
            .map_or(0, |ctx| ctx.index)
    })
}

/// The calling worker's slab, or null when not on a worker thread. Used
/// by the cell cleanup to decide between the owner-local free list and
/// the cross-worker return path.
pub(crate) fn current_slab_ptr() -> *const crate::slab::Slab {
    CTX.with(|c| c.borrow().as_ref().map_or(std::ptr::null(), |ctx| ctx.slab))
}

fn current() -> Option<(usize, Arc<RuntimeInner>, *const Deque<Task>)> {
    CTX.with(|c| {
        c.borrow().as_ref().and_then(|ctx| {
            ctx.inner
                .upgrade()
                .map(|inner| (ctx.index, inner, ctx.local))
        })
    })
}

/// Thread-local accumulator for `pending`-counter decrements. A scheduling
/// loop notes each claimed task here; the shared `pending` atomic is only
/// touched on flush — every [`PendingBatch::FLUSH_EVERY`] claims, whenever
/// the loop runs dry, and on drop (which also covers unwinds, so an
/// injected worker kill cannot leak accounting).
pub(crate) struct PendingBatch<'a> {
    scheduler: &'a Scheduler,
    count: Cell<u64>,
}

impl<'a> PendingBatch<'a> {
    /// Claims folded into one shared-counter update. Chosen small enough
    /// that `/threads/count/instantaneous/pending` stays useful (staleness
    /// is bounded by `workers × FLUSH_EVERY`) and large enough to take the
    /// shared RMW off the per-task path.
    pub(crate) const FLUSH_EVERY: u64 = 32;

    pub(crate) fn new(scheduler: &'a Scheduler) -> Self {
        PendingBatch {
            scheduler,
            count: Cell::new(0),
        }
    }

    /// Note one claimed task; publishes the batch at the flush threshold.
    pub(crate) fn note_started(&self) {
        let n = self.count.get() + 1;
        if n >= Self::FLUSH_EVERY {
            self.count.set(0);
            self.scheduler.note_started_n(n);
        } else {
            self.count.set(n);
        }
    }

    /// Publish any accumulated decrements now.
    pub(crate) fn flush(&self) {
        let n = self.count.replace(0);
        self.scheduler.note_started_n(n);
    }
}

impl Drop for PendingBatch<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Run one found task. Execution timing/accounting lives in
/// `runtime::run_task` so it is ordered before the future's completion;
/// here we only account the scheduler-side events.
/// The `pending` decrement is the caller's job (batched via
/// [`PendingBatch`]).
pub(crate) fn execute_task(
    inner: &Arc<RuntimeInner>,
    index: usize,
    task: Task,
    stolen_local: u64,
    stolen_remote: u64,
) {
    let stolen = stolen_local + stolen_remote;
    if stolen > 0 {
        // `stolen` counts every task the find moved off another worker's
        // deque: the task we are about to run plus any batch-steal extras
        // now parked in our local deque. Those extras come back out as
        // local (stolen == 0) finds, so crediting them here keeps
        // `/threads/count/stolen` equal to "tasks migrated between
        // workers" without double counting. The local/remote split drives
        // `/threads/count/steals-{local,remote}`.
        let stats = &inner.state.stats[index];
        stats.stolen.fetch_add(stolen, Ordering::Relaxed);
        if stolen_local > 0 {
            stats
                .stolen_local
                .fetch_add(stolen_local, Ordering::Relaxed);
        }
        if stolen_remote > 0 {
            stats
                .stolen_remote
                .fetch_add(stolen_remote, Ordering::Relaxed);
        }
    }
    if let Some(claimed) = task.claim() {
        crate::runtime::run_task(&inner.state, index, claimed);
    }
}

/// Clears the worker context and re-parks the deque into its scheduler
/// slot on every exit from the loop — normal shutdown *and* unwinds. The
/// re-park is what makes worker respawn after an injected (or real) panic
/// lossless: the next `worker_loop` on this slot claims the same deque
/// with all queued tasks intact.
struct LoopGuard<'a> {
    inner: &'a Arc<RuntimeInner>,
    index: usize,
    deque: Option<Deque<Task>>,
}

impl Drop for LoopGuard<'_> {
    fn drop(&mut self) {
        CTX.with(|c| *c.borrow_mut() = None);
        *self.inner.scheduler.deques[self.index].lock() = self.deque.take();
    }
}

/// The main scheduling loop of worker `index`.
pub(crate) fn worker_loop(inner: Arc<RuntimeInner>, index: usize) {
    let deque = inner.scheduler.deques[index]
        .lock()
        .take()
        .expect("worker deque claimed twice");
    let _pmu_guard = rpx_papi::DomainGuard::enter(inner.pmu.clone(), index);
    let guard = LoopGuard {
        inner: &inner,
        index,
        deque: Some(deque),
    };
    // Bind to the placed hardware thread when a bind policy is active; a
    // failed pin is tolerated (the socket assignment used for victim
    // ordering still stands, it is just advisory then).
    if let Some(hw) = inner.placement.get(index).copied().flatten() {
        let _ = crate::affinity::pin_current_thread(hw);
    }
    let local: *const Deque<Task> = guard.deque.as_ref().expect("deque just parked") as *const _;
    CTX.with(|c| {
        *c.borrow_mut() = Some(Ctx {
            index,
            inner: Arc::downgrade(&inner),
            state: Arc::as_ptr(&inner.state),
            local,
            slab: Arc::as_ptr(&inner.slabs[index]),
        });
    });

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
/// Extracted from `run_loop` so the accounting is unit-testable: the
/// register-then-recheck path used to `continue` without accruing the
/// elapsed time to either `idle_ns` or `overhead_ns`, silently dropping
/// wall-clock from the counters' time balance.
pub(crate) fn idle_step(
    scheduler: &Scheduler,
    shutdown: &AtomicBool,
    parker: &Parker,
    index: usize,
    stats: &WorkerStats,
    clock: &Clock,
    t0: u64,
) -> bool {
    if shutdown.load(Ordering::Acquire) {
        return false;
    }
    // Register before the final probe so a push that races with us is
    // guaranteed to either be seen by the probe or unpark us (the fence
    // pairing is documented on `Scheduler::register_sleeper`).
    scheduler.register_sleeper(index, parker.unparker().clone());
    // `SeqCst` so the shutdown store (also `SeqCst`) is covered by the same
    // fence pairing as a task push: either `wake_all` sees our
    // registration, or we see the flag here.
    if !(scheduler.has_queued_work() || shutdown.load(Ordering::SeqCst)) {
        parker.park_timeout(Duration::from_micros(500));
    }
    scheduler.deregister_sleeper(index);
    let t1 = clock.now_ns();
    stats.record_idle(t1.saturating_sub(t0));
    !shutdown.load(Ordering::Acquire)
}

fn run_loop(inner: &Arc<RuntimeInner>, index: usize, deque: &Deque<Task>) {
    let parker = Parker::new();
    let state = inner.state.clone();
    let stats = state.stats[index].clone();
    let batch = PendingBatch::new(&inner.scheduler);

    loop {
        stats.beat();
        let t0 = state.clock.now_ns();
        let found = inner.scheduler.find(index, deque);
        if found.remote_probe_ns > 0 {
            // Sub-attribution of the find window: time spent probing
            // remote sockets, successful or not. The overall balance is
            // untouched (the window still lands in overhead/idle below);
            // this lets the causal profiler separate placement misses
            // from granularity.
            stats
                .steal_probe_remote_ns
                .fetch_add(found.remote_probe_ns, Ordering::Relaxed);
        }
        match found.task {
            Some(task) => {
                batch.note_started();
                let t1 = state.clock.now_ns();
                stats.record_overhead(t1.saturating_sub(t0));
                // Injected stall sits between claiming the task and running
                // it: `live > 0` for the whole sleep, so the watchdog has a
                // guaranteed window to observe the frozen heartbeat.
                if let Some(faults) = &inner.state.faults {
                    if let Some(stall) = faults.inject_stall() {
                        std::thread::sleep(stall);
                    }
                }
                execute_task(inner, index, task, found.stolen_local, found.stolen_remote);
                // Injected worker kill fires only after the task completed:
                // the unwind holds no task, so respawning loses nothing
                // (`batch` flushes on drop during the unwind).
                if let Some(faults) = &inner.state.faults {
                    if faults.inject_worker_kill() {
                        std::panic::panic_any(InjectedFault("worker-kill"));
                    }
                }
            }
            None => {
                batch.flush();
                if !idle_step(
                    &inner.scheduler,
                    &inner.shutdown,
                    &parker,
                    index,
                    &stats,
                    &state.clock,
                    t0,
                ) {
                    break;
                }
            }
        }
    }
}

/// Work-helping wait: while `pred()` holds, execute other pending tasks on
/// the calling worker; spin/yield briefly when no work is available. Falls
/// back to yielding when called off a worker thread.
pub(crate) fn help_while(pred: impl Fn() -> bool) {
    let Some((index, inner, local)) = current() else {
        while pred() {
            std::thread::yield_now();
        }
        return;
    };
    // SAFETY: `local` is this thread's own deque; see `worker_loop`.
    let deque = unsafe { &*local };
    let stats = inner.state.stats[index].clone();
    let batch = PendingBatch::new(&inner.scheduler);
    let mut idle_spins: u32 = 0;
    while pred() {
        stats.beat();
        let t0 = inner.state.clock.now_ns();
        let found = inner.scheduler.find(index, deque);
        if found.remote_probe_ns > 0 {
            stats
                .steal_probe_remote_ns
                .fetch_add(found.remote_probe_ns, Ordering::Relaxed);
        }
        match found.task {
            Some(task) => {
                batch.note_started();
                let t1 = inner.state.clock.now_ns();
                stats.record_overhead(t1.saturating_sub(t0));
                execute_task(&inner, index, task, found.stolen_local, found.stolen_remote);
                idle_spins = 0;
            }
            None => {
                batch.flush();
                idle_spins = idle_spins.saturating_add(1);
                if idle_spins < 16 {
                    std::hint::spin_loop();
                } else if idle_spins < 64 {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(Duration::from_micros(20));
                }
                let t1 = inner.state.clock.now_ns();
                stats.record_idle(t1.saturating_sub(t0));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::SchedulerMode;
    use crate::slab::nop_task;
    use std::time::Instant;

    #[test]
    fn pending_batch_flushes_at_threshold_and_on_drop() {
        let s = Scheduler::new(1, SchedulerMode::LocalQueues);
        let n = PendingBatch::FLUSH_EVERY + 3;
        for i in 0..n {
            s.push(nop_task(i), None);
        }
        {
            let batch = PendingBatch::new(&s);
            for _ in 0..PendingBatch::FLUSH_EVERY - 1 {
                batch.note_started();
            }
            // Below threshold: nothing published yet.
            assert_eq!(s.pending_tasks(), n as i64);
            batch.note_started();
            assert_eq!(s.pending_tasks(), 3, "threshold must publish the batch");
            batch.note_started();
            batch.note_started();
            batch.note_started();
            assert_eq!(s.pending_tasks(), 3, "decrements buffered again");
        }
        assert_eq!(s.pending_tasks(), 0, "drop must flush the remainder");
        assert_eq!(s.pending_underflows(), 0);
    }

    /// Regression: the register-sleeper → recheck → continue path used to
    /// attribute its elapsed time to neither `idle_ns` nor `overhead_ns`,
    /// leaking wall-clock out of the counter time balance. Both exits of
    /// `idle_step` must accrue the window since `t0` to `idle_ns`.
    #[test]
    fn idle_step_accrues_idle_time_even_when_work_is_queued() {
        let s = Scheduler::new(1, SchedulerMode::LocalQueues);
        let clock = Clock::new();
        let stats = WorkerStats::new();
        let parker = Parker::new();
        let shutdown = AtomicBool::new(false);
        // Queued work forces the no-park exit (the old `continue` branch).
        s.push(nop_task(1), None);
        let t0 = clock.now_ns();
        std::thread::sleep(Duration::from_millis(2));
        let t_entry = Instant::now();
        assert!(idle_step(&s, &shutdown, &parker, 0, &stats, &clock, t0));
        assert!(
            t_entry.elapsed() < Duration::from_millis(400),
            "queued work must skip the park"
        );
        let idle = stats.idle_ns.load(Ordering::Relaxed);
        assert!(
            idle >= 2_000_000,
            "the whole window since t0 must be idle-accounted, got {idle}ns"
        );
        assert_eq!(s.sleeper_count(), 0, "sleeper must deregister");
    }

    #[test]
    fn idle_step_parks_and_accrues_when_no_work() {
        let s = Scheduler::new(1, SchedulerMode::LocalQueues);
        let clock = Clock::new();
        let stats = WorkerStats::new();
        let parker = Parker::new();
        let shutdown = AtomicBool::new(false);
        let t0 = clock.now_ns();
        assert!(idle_step(&s, &shutdown, &parker, 0, &stats, &clock, t0));
        let idle = stats.idle_ns.load(Ordering::Relaxed);
        assert!(
            idle >= 300_000,
            "park window must be idle-accounted, got {idle}ns"
        );
        assert_eq!(s.sleeper_count(), 0);
    }

    #[test]
    fn idle_step_exits_on_shutdown() {
        let s = Scheduler::new(1, SchedulerMode::LocalQueues);
        let clock = Clock::new();
        let stats = WorkerStats::new();
        let parker = Parker::new();
        let shutdown = AtomicBool::new(true);
        let t0 = clock.now_ns();
        assert!(!idle_step(&s, &shutdown, &parker, 0, &stats, &clock, t0));
    }
}
