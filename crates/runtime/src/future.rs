//! Lightweight futures returned by task spawns.
//!
//! Unlike `std::future::Future`, a [`TaskFuture`] is a *blocking* future in
//! the C++ `std::future` / `hpx::future` sense: `get()` waits for the value.
//! The crucial runtime property is how it waits: a worker thread that would
//! block instead *helps* — it executes other pending tasks until the value
//! arrives. This keeps every core busy during deeply recursive fork/join
//! patterns (Fib, Sort, Strassen, …) without stackful coroutines, while
//! external (non-worker) threads block on a waiter-counted gate.
//!
//! Completion is lock-free: the runner publishes the outcome into the
//! task's cell (the `slab` module), flips its `ready` flag, and wakes
//! waiters through an [`EventGate`](crate::sync::EventGate) whose `notify`
//! is a single atomic load when nobody blocks. Worker help-waits poll
//! `ready` and never register with the gate, so the fork/join inner loop of
//! spawn-heavy benchmarks never touches a condition variable.

use std::time::Duration;

use crate::slab::{Join, SpawnMeta};

/// Handle to the eventual result of a spawned task.
pub struct TaskFuture<T> {
    join: Join<T>,
}

impl<T: Send + 'static> TaskFuture<T> {
    pub(crate) fn new(join: Join<T>) -> Self {
        TaskFuture { join }
    }

    /// Whether the value (or a panic) is available without blocking.
    pub fn is_ready(&self) -> bool {
        self.join.is_ready()
    }

    /// Block until the task finishes (helping with other work when called
    /// on a worker thread), without consuming the future.
    pub fn wait(&self) {
        self.join.wait();
    }

    /// Wait for and return the task's result.
    ///
    /// # Panics
    ///
    /// Re-raises the task's panic if the task panicked.
    pub fn get(mut self) -> T {
        self.join.wait();
        self.join.take()
    }

    /// Whether the task was cancelled before it ran. `get` on a cancelled
    /// future re-raises [`TaskCancelled`](crate::TaskCancelled).
    pub fn is_cancelled(&self) -> bool {
        self.join.is_cancelled()
    }

    /// Wait up to `timeout` for the result; on timeout the future is handed
    /// back so the caller can keep waiting or cancel.
    ///
    /// A timed wait never executes unbounded work on the calling thread:
    /// if the future is deferred (`LaunchPolicy::Deferred`) and its closure
    /// has not been started by another waiter, `get_timeout` returns
    /// `Err(self)` immediately without running the closure — only `get` and
    /// `wait` trigger deferred execution.
    ///
    /// On a worker thread the wait *helps* — it runs other pending tasks
    /// until the deadline, so the timeout is best-effort (a helped task can
    /// overrun it).
    ///
    /// # Panics
    ///
    /// Re-raises the task's panic (or [`TaskCancelled`](crate::TaskCancelled))
    /// like `get`.
    pub fn get_timeout(mut self, timeout: Duration) -> Result<T, TaskFuture<T>> {
        if self.join.wait_timeout(timeout) {
            Ok(self.join.take())
        } else {
            Err(self)
        }
    }
}

impl<T: Send + 'static> std::fmt::Debug for TaskFuture<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskFuture")
            .field("ready", &self.is_ready())
            .finish()
    }
}

/// A future that is ready immediately (`hpx::make_ready_future`).
pub fn ready_future<T: Send + 'static>(value: T) -> TaskFuture<T> {
    // An external cell born published: no runtime, no queue.
    let (task, join) = crate::slab::place(None, None, SpawnMeta::bare(0), move || value);
    task.claim().run().publish();
    TaskFuture::new(join)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::TaskCancelled;
    use crate::runtime::RuntimeState;
    use crate::slab::{place, Task};
    use rpx_counters::counter::Clock;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

    /// A pending future over a cell nobody queued, plus its task handle:
    /// `run(task)` completes it exactly as a worker would.
    fn pending<T, F>(f: F) -> (Task, TaskFuture<T>)
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (task, join) = place(None, None, SpawnMeta::bare(0), f);
        (task, TaskFuture::new(join))
    }

    fn run(task: Task) {
        task.claim().run().publish();
    }

    /// A deferred future of a runtime with one (never started) worker.
    fn deferred<T, F>(f: F) -> (Arc<RuntimeState>, TaskFuture<T>)
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let state = Arc::new(RuntimeState::new(1, Arc::new(Clock::new()), None, None));
        let (task, join) = place(None, Some(&state), SpawnMeta::bare(0), f);
        (state, TaskFuture::new(join.deferred(task)))
    }

    #[test]
    fn ready_future_is_immediately_ready() {
        let f = ready_future(13);
        assert!(f.is_ready());
        assert_eq!(f.get(), 13);
    }

    #[test]
    fn complete_wakes_external_waiter() {
        let (task, f) = pending(|| 99);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| f.wait());
            while f.join.gate_waiters() == 0 {
                std::thread::yield_now();
            }
            run(task);
            waiter.join().unwrap();
        });
        assert_eq!(f.join.gate_waiters(), 0, "waiter must deregister");
        assert_eq!(f.get(), 99);
    }

    #[test]
    fn complete_without_waiters_skips_notification() {
        let (task, f) = pending(|| 1);
        assert_eq!(f.join.gate_waiters(), 0);
        run(task);
        // No waiter was ever registered; a later get() must still succeed
        // straight off the ready flag.
        assert_eq!(f.join.gate_waiters(), 0);
        assert_eq!(f.get(), 1);
    }

    #[test]
    fn deferred_runs_on_first_wait() {
        let (state, f) = deferred(|| 7);
        assert!(!f.is_ready());
        assert_eq!(f.get(), 7);
        // The test thread is nobody's worker: the external shard.
        let executed = state.ledger.external().executed.load(Ordering::Relaxed);
        assert_eq!(executed, 1, "a deferred run is an instrumented run");
        assert!(state.ledger.is_idle(), "entered and left the ledger");
    }

    #[test]
    fn get_timeout_never_runs_deferred_closure() {
        // Regression: a timed wait used to run the deferred closure, so
        // `get_timeout(Duration::ZERO)` executed unbounded work.
        let ran = Arc::new(AtomicBool::new(false));
        let r2 = ran.clone();
        let (_state, f) = deferred(move || {
            r2.store(true, Ordering::SeqCst);
            7
        });
        let t0 = Instant::now();
        let f = f
            .get_timeout(Duration::ZERO)
            .expect_err("timed wait must hand a deferred future back");
        assert!(
            !ran.load(Ordering::SeqCst),
            "timed wait must not execute the deferred closure"
        );
        // Also with a non-zero timeout: still immediate, still unrun.
        let f = f
            .get_timeout(Duration::from_millis(50))
            .expect_err("deferred future must come back untouched");
        assert!(!ran.load(Ordering::SeqCst));
        assert!(
            t0.elapsed() < Duration::from_millis(40),
            "deferred timed wait must return without waiting out the timeout"
        );
        // An unbounded wait still triggers the deferred run.
        assert_eq!(f.get(), 7);
        assert!(ran.load(Ordering::SeqCst));
    }

    #[test]
    fn dropped_deferred_future_drops_its_closure_unrun() {
        struct SetOnDrop(Arc<AtomicBool>);
        impl Drop for SetOnDrop {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let (ran, dropped) = (
            Arc::new(AtomicBool::new(false)),
            Arc::new(AtomicBool::new(false)),
        );
        let (r2, held) = (ran.clone(), SetOnDrop(dropped.clone()));
        let (state, f) = deferred(move || {
            r2.store(true, Ordering::SeqCst);
            drop(held);
        });
        drop(f);
        assert!(dropped.load(Ordering::SeqCst) && !ran.load(Ordering::SeqCst));
        assert_eq!(
            state.ledger.total(|s| s.executed.load(Ordering::Relaxed)),
            0
        );
        assert!(state.ledger.is_idle(), "the teardown settled the ledger");
    }

    #[test]
    fn panic_propagates_to_getter() {
        let (task, f) = pending(|| -> i32 { panic!("boom") });
        run(task);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || f.get()))
            .expect_err("get() must re-raise the task panic");
        assert_eq!(*err.downcast_ref::<&str>().unwrap(), "boom");
    }

    #[test]
    fn get_timeout_returns_future_on_expiry() {
        let (task, f) = pending(|| 4);
        let f = f
            .get_timeout(Duration::from_millis(10))
            .expect_err("future must come back on timeout");
        assert_eq!(f.join.gate_waiters(), 0, "expired waiter must deregister");
        run(task);
        assert_eq!(f.get_timeout(Duration::from_secs(1)).ok(), Some(4));
    }

    #[test]
    fn cancelled_future_raises_task_cancelled() {
        let (task, f) = pending(|| 0);
        drop(task); // a queue dropped with the task still in it
        assert!(f.is_cancelled());
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || f.get()))
            .expect_err("get() must raise on a cancelled future");
        assert!(err.downcast_ref::<TaskCancelled>().is_some());
    }

    #[test]
    fn wait_is_idempotent() {
        let (task, f) = pending(|| 5);
        run(task);
        f.wait();
        f.wait();
        assert_eq!(f.get(), 5);
    }
}
