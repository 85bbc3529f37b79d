//! Admission control: a hysteresis task-budget gate on the spawn path.
//!
//! The gate bounds the number of *pending* (queued, not yet started) tasks
//! at [`RuntimeConfig::max_pending`](crate::RuntimeConfig). Admission takes
//! one slot via a CAS loop — the count never overshoots the high watermark,
//! even transiently, so `/runtime/tasks/peak-pending ≤ max_pending` is an
//! exact invariant, not a statistical one. Dispatch returns the slot in
//! `AdmissionGate::note_started`.
//!
//! Hysteresis: reaching the high watermark closes the gate; it reopens only
//! once pending drains to the low watermark (`resume_pending`). In between,
//! what happens to a rejected spawn is the caller's decision: park until
//! reopen (`Block`, FIFO ticket order) or run it inline (`Degrade`) — the
//! [`OverloadPolicy`](crate::OverloadPolicy) — or, for `try_spawn`, hand
//! the closure back.
//!
//! The blocked-spawner wakeup uses the same Dekker-style publication
//! protocol as the scheduler's sleeper list: a waiter advertises itself in
//! `waiter_count` (SeqCst store + fence) *before* its final gate probe, and
//! the reopener stores `closed = false` (SeqCst) *before* probing
//! `waiter_count` — in the sequentially-consistent total order one side
//! must see the other, so a spawner cannot park just as the gate reopens
//! and sleep forever. `mutation_armed("gate-reopen-relaxed")` weakens the
//! reopen side to a relaxed store with no wakeup; the model spec in
//! `model_specs.rs` proves the checker catches that as a lost-wakeup
//! deadlock.

use std::sync::Arc;

use crate::prim::{
    fence, mutation_armed, AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Condvar, Mutex, Ordering,
};

/// FIFO ticket state for `Block`-policy waiters.
#[derive(Default)]
struct WaitQueue {
    /// Next ticket to hand out.
    next_ticket: u64,
    /// Ticket currently allowed to retry admission.
    next_served: u64,
}

/// The shared admission gate. One per runtime (when `max_pending` is set).
pub(crate) struct AdmissionGate {
    /// High watermark: admission fails (and the gate closes) at this many
    /// pending tasks.
    high: AtomicI64,
    /// Low watermark: a closed gate reopens when pending drains to here.
    low: AtomicI64,
    /// Queued-but-not-started tasks holding admission slots.
    pending: AtomicI64,
    /// High-water mark of `pending` over the gate's lifetime.
    peak: AtomicI64,
    /// Hysteresis flag: true between hitting `high` and draining to `low`.
    closed: AtomicBool,
    /// Terminal: set by [`drain`](Self::drain); admission never succeeds
    /// again and parked spawners are released with `false`.
    draining: AtomicBool,
    /// Ticket queue for blocked spawners.
    q: Mutex<WaitQueue>,
    cv: Condvar,
    /// Lock-free mirror of `next_ticket - next_served`, probed by
    /// [`reopen`](Self::reopen) without taking `q` (see module docs).
    waiter_count: AtomicUsize,
    /// Spawns admitted through the gate.
    admitted: AtomicU64,
    /// `try_spawn` calls rejected while the gate was closed.
    shed: AtomicU64,
    /// Spawns run inline because the gate was closed.
    degraded: AtomicU64,
    /// Spawners that parked at least once waiting for admission.
    blocked: AtomicU64,
    /// Open→closed transitions (gate closes).
    closes: AtomicU64,
}

impl AdmissionGate {
    /// A gate closing at `high` pending tasks and reopening at `low`
    /// (clamped to `0 ≤ low < high`, `high ≥ 1`).
    pub fn new(high: usize, low: usize) -> Arc<Self> {
        let high = (high as i64).max(1);
        let low = (low as i64).clamp(0, high - 1);
        Arc::new(AdmissionGate {
            high: AtomicI64::new(high),
            low: AtomicI64::new(low),
            pending: AtomicI64::new(0),
            peak: AtomicI64::new(0),
            closed: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            q: Mutex::new(WaitQueue::default()),
            cv: Condvar::new(),
            waiter_count: AtomicUsize::new(0),
            admitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            blocked: AtomicU64::new(0),
            closes: AtomicU64::new(0),
        })
    }

    fn close(&self) {
        if !self.closed.swap(true, Ordering::SeqCst) {
            self.closes.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Try to take one admission slot. Never blocks, never overshoots:
    /// on success the pre-increment count was strictly below the high
    /// watermark. Closes the gate when the watermark is reached.
    pub fn try_admit(&self) -> bool {
        if self.draining.load(Ordering::SeqCst) || self.closed.load(Ordering::SeqCst) {
            return false;
        }
        let high = self.high.load(Ordering::SeqCst);
        let mut cur = self.pending.load(Ordering::SeqCst);
        loop {
            if cur >= high {
                self.close();
                return false;
            }
            match self.pending.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        if cur + 1 >= high {
            // This admission filled the last slot: close behind ourselves.
            self.close();
        }
        self.peak.fetch_max(cur + 1, Ordering::Relaxed);
        self.admitted.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Return a slot: the task left the queue (started executing, or was
    /// cancelled at dispatch). Reopens the gate at the low watermark.
    pub fn note_started(&self) {
        let now = self.pending.fetch_sub(1, Ordering::SeqCst) - 1;
        debug_assert!(now >= 0, "admission slot returned twice");
        if now <= self.low.load(Ordering::SeqCst) && self.closed.load(Ordering::SeqCst) {
            self.reopen();
        }
    }

    /// Reopen a closed gate and wake parked spawners.
    fn reopen(&self) {
        if mutation_armed("gate-reopen-relaxed") {
            // Deliberately weakened reopen for the armed mutant: a relaxed
            // flag store with no fence and no wakeup. A spawner that parked
            // concurrently never learns — the model checker must flag the
            // lost wakeup as a deadlock.
            self.closed.store(false, Ordering::Relaxed);
            return;
        }
        self.closed.store(false, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if self.waiter_count.load(Ordering::SeqCst) > 0 {
            let _q = self.q.lock();
            self.cv.notify_all();
        }
    }

    /// Publish the waiter population while holding `q` (see module docs).
    fn sync_waiters(&self, q: &WaitQueue) {
        self.waiter_count
            .store((q.next_ticket - q.next_served) as usize, Ordering::SeqCst);
        fence(Ordering::SeqCst);
    }

    /// Take one admission slot, parking until one frees up. Waiters are
    /// served in arrival (ticket) order. Returns `false` if the gate
    /// started draining — the caller must not queue the task.
    pub fn admit_blocking(&self) -> bool {
        // Barge only when nobody is queued, preserving FIFO fairness.
        if self.waiter_count.load(Ordering::SeqCst) == 0 && self.try_admit() {
            return true;
        }
        let mut q = self.q.lock();
        let ticket = q.next_ticket;
        q.next_ticket += 1;
        self.sync_waiters(&q);
        self.blocked.fetch_add(1, Ordering::Relaxed);
        let admitted = loop {
            if self.draining.load(Ordering::SeqCst) {
                break false;
            }
            if q.next_served == ticket && self.try_admit() {
                break true;
            }
            // Under the model checker the untimed wait keeps the lost-wakeup
            // hazard observable (a timeout would rescue the armed mutant).
            // Production re-checks periodically as defense in depth.
            #[cfg(rpx_model)]
            self.cv.wait(&mut q);
            #[cfg(not(rpx_model))]
            let _ = self
                .cv
                .wait_for(&mut q, std::time::Duration::from_millis(10));
        };
        q.next_served += 1;
        self.sync_waiters(&q);
        // Let the next ticket holder (or fellow drain bail-outs) proceed.
        self.cv.notify_all();
        admitted
    }

    /// Stop admission permanently and release every parked spawner with
    /// `false`. Used by [`Runtime::quiesce`](crate::Runtime::quiesce).
    pub fn drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        let _q = self.q.lock();
        self.cv.notify_all();
    }

    /// Replace the watermarks and re-evaluate the gate against them
    /// immediately (an explicit reconfiguration — by rpx-apex widening or
    /// narrowing admission — is not boundary thrash, so hysteresis does not
    /// apply to the transition itself).
    pub fn set_limits(&self, high: usize, low: usize) {
        let high = (high as i64).max(1);
        let low = (low as i64).clamp(0, high - 1);
        self.high.store(high, Ordering::SeqCst);
        self.low.store(low, Ordering::SeqCst);
        let pending = self.pending.load(Ordering::SeqCst);
        if pending >= high {
            self.close();
        } else if self.closed.load(Ordering::SeqCst) {
            self.reopen();
        }
    }

    pub fn note_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    pub fn note_degraded(&self) {
        self.degraded.fetch_add(1, Ordering::Relaxed);
    }

    pub fn pending(&self) -> i64 {
        self.pending.load(Ordering::SeqCst).max(0)
    }

    pub fn peak(&self) -> i64 {
        self.peak.load(Ordering::Relaxed)
    }

    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    pub fn limits(&self) -> (usize, usize) {
        (
            self.high.load(Ordering::SeqCst) as usize,
            self.low.load(Ordering::SeqCst) as usize,
        )
    }

    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    pub fn degraded(&self) -> u64 {
        self.degraded.load(Ordering::Relaxed)
    }

    pub fn blocked(&self) -> u64 {
        self.blocked.load(Ordering::Relaxed)
    }

    pub fn closes(&self) -> u64 {
        self.closes.load(Ordering::Relaxed)
    }
}

/// A cloneable handle to a runtime's admission gate, for adaptive policy
/// engines (rpx-apex rules) and monitoring code. Obtained from
/// [`Runtime::admission`](crate::Runtime::admission).
#[derive(Clone)]
pub struct AdmissionControl {
    pub(crate) gate: Arc<AdmissionGate>,
}

impl AdmissionControl {
    /// Replace the (high, low) watermarks; the gate state is re-evaluated
    /// immediately against the new limits.
    pub fn set_limits(&self, max_pending: usize, resume_pending: usize) {
        self.gate.set_limits(max_pending, resume_pending);
    }

    /// Current (high, low) watermarks.
    pub fn limits(&self) -> (usize, usize) {
        self.gate.limits()
    }

    /// Tasks currently holding admission slots (queued, not started).
    pub fn pending(&self) -> usize {
        self.gate.pending() as usize
    }

    /// Lifetime high-water mark of `pending`.
    pub fn peak_pending(&self) -> usize {
        self.gate.peak() as usize
    }

    /// Whether the gate is currently refusing admission.
    pub fn is_closed(&self) -> bool {
        self.gate.is_closed()
    }

    /// Lifetime admitted / shed / inline-degraded spawn counts.
    pub fn totals(&self) -> (u64, u64, u64) {
        (self.gate.admitted(), self.gate.shed(), self.gate.degraded())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn wait_until(mut cond: impl FnMut() -> bool) -> bool {
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(5) {
            if cond() {
                return true;
            }
            std::thread::yield_now();
        }
        false
    }

    #[test]
    fn admits_exactly_high_then_closes() {
        let g = AdmissionGate::new(4, 2);
        for _ in 0..4 {
            assert!(g.try_admit());
        }
        assert!(!g.try_admit(), "gate must close at the high watermark");
        assert!(g.is_closed());
        assert_eq!(g.pending(), 4);
        assert_eq!(g.peak(), 4);
        assert_eq!(g.admitted(), 4);
        assert_eq!(g.closes(), 1);
    }

    #[test]
    fn hysteresis_reopens_only_at_low() {
        let g = AdmissionGate::new(4, 2);
        for _ in 0..4 {
            assert!(g.try_admit());
        }
        assert!(g.is_closed());
        g.note_started(); // pending 3 — still above low
        assert!(g.is_closed());
        assert!(!g.try_admit());
        g.note_started(); // pending 2 == low — reopens
        assert!(!g.is_closed());
        assert!(g.try_admit());
        assert_eq!(g.closes(), 1, "one close episode, not a thrash per spawn");
    }

    #[test]
    fn peak_never_exceeds_high_under_contention() {
        let g = AdmissionGate::new(8, 4);
        std::thread::scope(|s| {
            for _ in 0..6 {
                let g = &g;
                s.spawn(move || {
                    for _ in 0..2_000 {
                        if g.try_admit() {
                            g.note_started();
                        }
                    }
                });
            }
        });
        assert!(g.peak() <= 8, "peak {} overshot the watermark", g.peak());
        assert_eq!(g.pending(), 0);
    }

    #[test]
    fn blocking_waiters_are_served_fifo() {
        let g = AdmissionGate::new(1, 0);
        assert!(g.try_admit()); // saturate: everyone after this parks
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        std::thread::scope(|s| {
            for i in 0..4u32 {
                let (g, order) = (&g, order.clone());
                s.spawn(move || {
                    assert!(g.admit_blocking());
                    order.lock().push(i);
                });
                // Admit threads to the ticket queue one at a time so the
                // ticket order is exactly 0..4.
                assert!(wait_until(
                    || g.waiter_count.load(Ordering::SeqCst) == i as usize + 1
                ));
            }
            for want in 0..4usize {
                g.note_started(); // free the slot → head waiter admits
                assert!(wait_until(|| order.lock().len() == want + 1));
            }
        });
        assert_eq!(
            *order.lock(),
            vec![0, 1, 2, 3],
            "waiters served in FIFO order"
        );
        assert_eq!(g.blocked(), 4);
    }

    #[test]
    fn drain_releases_all_waiters() {
        let g = AdmissionGate::new(1, 0);
        assert!(g.try_admit());
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let g = &g;
                    s.spawn(move || g.admit_blocking())
                })
                .collect();
            assert!(wait_until(|| g.waiter_count.load(Ordering::SeqCst) == 3));
            g.drain();
            for h in handles {
                assert!(!h.join().unwrap(), "drained waiters must not admit");
            }
        });
        assert!(!g.try_admit(), "draining is terminal");
    }

    #[test]
    fn set_limits_reevaluates_immediately() {
        let g = AdmissionGate::new(2, 1);
        assert!(g.try_admit());
        assert!(g.try_admit());
        assert!(g.is_closed());
        g.set_limits(8, 4); // widen: pending 2 < 8 → reopen now
        assert!(!g.is_closed());
        assert!(g.try_admit());
        g.set_limits(2, 1); // narrow below pending 3 → close now
        assert!(g.is_closed());
        assert!(!g.try_admit());
    }
}
