//! Instrumented synchronization primitives (`hpx::lcos::local::mutex`
//! analogue) and the waiter-counted [`EventGate`] used by the runtime's
//! hot paths. Lock traffic is counted process-wide and can be exposed as
//! `/synchronization/*` counters on any registry.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rpx_counters::CounterRegistry;

// The instrumented `Mutex<T>` stays on the plain `parking_lot` shim (its
// guard type is part of the public API); only the `EventGate` internals go
// through the model facade, since the gate's flag/flag protocol is what
// the model-checked specs exercise.
use crate::prim;

static LOCK_ACQUISITIONS: AtomicU64 = AtomicU64::new(0);
static LOCK_CONTENTIONS: AtomicU64 = AtomicU64::new(0);

/// A mutex that counts acquisitions and contended acquisitions.
///
/// Used by the co-dependent Inncabs benchmarks (Round: 2 mutexes/task,
/// Intersim: multiple mutexes/task) so lock pressure is visible through
/// the counter framework.
pub struct Mutex<T> {
    inner: parking_lot::Mutex<T>,
}

impl<T> Mutex<T> {
    /// A new instrumented mutex.
    pub fn new(value: T) -> Self {
        Mutex {
            inner: parking_lot::Mutex::new(value),
        }
    }

    /// Acquire the lock, recording whether the fast path succeeded.
    pub fn lock(&self) -> parking_lot::MutexGuard<'_, T> {
        LOCK_ACQUISITIONS.fetch_add(1, Ordering::Relaxed);
        if let Some(g) = self.inner.try_lock() {
            return g;
        }
        LOCK_CONTENTIONS.fetch_add(1, Ordering::Relaxed);
        self.inner.lock()
    }

    /// Try to acquire without blocking (counted as an acquisition only on
    /// success).
    pub fn try_lock(&self) -> Option<parking_lot::MutexGuard<'_, T>> {
        let g = self.inner.try_lock();
        if g.is_some() {
            LOCK_ACQUISITIONS.fetch_add(1, Ordering::Relaxed);
        }
        g
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

/// A waiter-counted wakeup gate: `notify()` is a single atomic load when
/// nobody is blocked, so producers that complete events nobody waits on
/// (the common case on the spawn/complete hot path) never touch the lock
/// or the condition variable.
///
/// Protocol: the *signaller* makes its condition observable with a
/// `SeqCst` store and then calls [`EventGate::notify`]; a *waiter*
/// registers (`SeqCst` RMW on the waiter count) before re-checking the
/// condition. Both sides being `SeqCst` makes the classic flag/flag race
/// decidable: either the signaller's `notify` sees the registration and
/// takes the slow (lock + broadcast) path, or the waiter's re-check sees
/// the condition already true and never blocks. See DESIGN.md §"hot path".
pub struct EventGate {
    waiters: prim::AtomicUsize,
    lock: prim::Mutex<()>,
    cv: prim::Condvar,
}

impl Default for EventGate {
    fn default() -> Self {
        EventGate::new()
    }
}

impl EventGate {
    /// A gate with no registered waiters.
    pub const fn new() -> Self {
        EventGate {
            waiters: prim::AtomicUsize::new(0),
            lock: prim::Mutex::new(()),
            cv: prim::Condvar::new(),
        }
    }

    /// Number of threads currently registered as blocked (or registering);
    /// immediately stale. A signaller may read it — under the same
    /// publish-before-probe rule as [`EventGate::notify`] — to skip work
    /// that only matters when someone waits.
    pub fn waiters(&self) -> usize {
        self.waiters.load(Ordering::SeqCst)
    }

    /// Block the calling thread until `ready()` returns true. `ready` must
    /// read state published with at least `SeqCst` stores by the thread
    /// that calls [`EventGate::notify`].
    pub fn wait_until(&self, ready: impl Fn() -> bool) {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let mut g = self.lock.lock();
        while !ready() {
            self.cv.wait(&mut g);
        }
        drop(g);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }

    /// Block until `ready()` returns true or `deadline` passes; returns the
    /// final `ready()` observation.
    pub fn wait_deadline(&self, deadline: Instant, ready: impl Fn() -> bool) -> bool {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let mut g = self.lock.lock();
        let mut ok = ready();
        while !ok {
            let now = Instant::now();
            let Some(remaining) = deadline.checked_duration_since(now) else {
                break;
            };
            if remaining.is_zero() {
                break;
            }
            self.cv.wait_for(&mut g, remaining);
            ok = ready();
        }
        drop(g);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        ok
    }

    /// Convenience: bounded wait expressed as a timeout from now.
    pub fn wait_timeout(&self, timeout: Duration, ready: impl Fn() -> bool) -> bool {
        self.wait_deadline(Instant::now() + timeout, ready)
    }

    /// Wake every registered waiter. Costs one atomic load when no waiter
    /// is registered; the caller must have published the wake condition
    /// (`SeqCst`) *before* calling.
    pub fn notify(&self) {
        let probe_ord = if prim::mutation_armed("gate-probe-relaxed") {
            // Mutant: a relaxed probe can miss a waiter's SeqCst
            // registration, skipping the broadcast — the lost wakeup the
            // model-checked gate spec must catch.
            Ordering::Relaxed
        } else {
            Ordering::SeqCst
        };
        if self.waiters.load(probe_ord) == 0 {
            return;
        }
        // Taking the lock serializes with waiters between their
        // registration and their first `ready()` check, so the broadcast
        // cannot slip between check and sleep.
        let _g = self.lock.lock();
        self.cv.notify_all();
    }
}

/// Current process-wide (acquisitions, contended acquisitions).
pub fn lock_stats() -> (u64, u64) {
    (
        LOCK_ACQUISITIONS.load(Ordering::Relaxed),
        LOCK_CONTENTIONS.load(Ordering::Relaxed),
    )
}

/// Register `/synchronization/locks/{acquisitions,contentions}` on a
/// registry. The values are process-wide (all runtimes share them).
pub fn register_sync_counters(registry: &Arc<CounterRegistry>) {
    registry.register_monotonic(
        "/synchronization/locks/acquisitions",
        "instrumented mutex acquisitions (process-wide)",
        "1",
        Arc::new(|| LOCK_ACQUISITIONS.load(Ordering::Relaxed) as i64),
    );
    registry.register_monotonic(
        "/synchronization/locks/contentions",
        "instrumented mutex acquisitions that had to block (process-wide)",
        "1",
        Arc::new(|| LOCK_CONTENTIONS.load(Ordering::Relaxed) as i64),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_counts_acquisitions() {
        let (a0, _) = lock_stats();
        let m = Mutex::new(5);
        {
            let mut g = m.lock();
            *g += 1;
        }
        assert_eq!(*m.lock(), 6);
        let (a1, _) = lock_stats();
        assert!(a1 >= a0 + 2);
    }

    #[test]
    fn contention_counted_when_blocking() {
        let (_, c0) = lock_stats();
        let m = Arc::new(Mutex::new(0u64));
        let m2 = m.clone();
        let g = m.lock();
        let t = std::thread::spawn(move || {
            let mut g = m2.lock(); // must block
            *g += 1;
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        drop(g);
        t.join().unwrap();
        let (_, c1) = lock_stats();
        assert!(c1 > c0, "blocking acquisition must count as contention");
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn try_lock_fails_without_counting_contention() {
        let m = Mutex::new(());
        let g = m.lock();
        let (_, c0) = lock_stats();
        assert!(m.try_lock().is_none());
        let (_, c1) = lock_stats();
        assert_eq!(c0, c1);
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn event_gate_wakes_blocked_waiter() {
        use std::sync::atomic::AtomicBool;
        let gate = Arc::new(EventGate::new());
        let flag = Arc::new(AtomicBool::new(false));
        let (g2, f2) = (gate.clone(), flag.clone());
        let t = std::thread::spawn(move || g2.wait_until(|| f2.load(Ordering::SeqCst)));
        std::thread::sleep(std::time::Duration::from_millis(10));
        flag.store(true, Ordering::SeqCst);
        gate.notify();
        t.join().unwrap();
        assert_eq!(gate.waiters(), 0, "waiter must deregister after waking");
    }

    #[test]
    fn event_gate_timeout_expires_and_deregisters() {
        let gate = EventGate::new();
        let t0 = std::time::Instant::now();
        let ok = gate.wait_timeout(std::time::Duration::from_millis(10), || false);
        assert!(!ok);
        assert!(t0.elapsed() >= std::time::Duration::from_millis(8));
        assert_eq!(gate.waiters(), 0);
    }

    #[test]
    fn event_gate_notify_without_waiters_is_lock_free_noop() {
        let gate = EventGate::new();
        // Nothing to assert beyond "returns and stays consistent": the
        // fast path is exercised, and a later waiter still works.
        gate.notify();
        assert!(gate.wait_timeout(std::time::Duration::from_millis(1), || true));
    }

    #[test]
    fn counters_visible_through_registry() {
        let reg = CounterRegistry::new();
        register_sync_counters(&reg);
        reg.add_active("/synchronization/locks/acquisitions")
            .unwrap();
        reg.reset_active_counters();
        let m = Mutex::new(());
        drop(m.lock());
        drop(m.lock());
        let v = reg.evaluate_active_counters(false);
        assert!(v.samples()[0].value >= 2.0);
    }
}
