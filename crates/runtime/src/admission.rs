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
//! once pending drains to the low watermark, fixed at half the high one.
//! In between, an infallible spawn runs inline in its caller (converting
//! the producer into a consumer) and `try_spawn` hands the closure back.
//! Nobody parks at the gate, so reopening is a flag store with no wakeup.

use std::sync::Arc;

use crate::prim::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// The shared admission gate. One per runtime (when `max_pending` is set).
pub(crate) struct AdmissionGate {
    /// High watermark: admission fails (and the gate closes) at this many
    /// pending tasks. The low watermark, where a closed gate reopens, is
    /// `high / 2`.
    high: AtomicI64,
    /// Queued-but-not-started tasks holding admission slots.
    pending: AtomicI64,
    /// High-water mark of `pending` over the gate's lifetime.
    peak: AtomicI64,
    /// Hysteresis flag: true between hitting `high` and draining to the
    /// low watermark.
    closed: AtomicBool,
    /// Terminal: set by [`drain`](Self::drain); admission never succeeds
    /// again.
    draining: AtomicBool,
    /// Spawns admitted through the gate.
    admitted: AtomicU64,
    /// `try_spawn` calls rejected while the gate was closed.
    shed: AtomicU64,
    /// Spawns run inline because the gate was closed.
    degraded: AtomicU64,
    /// Open→closed transitions (gate closes).
    closes: AtomicU64,
}

impl AdmissionGate {
    /// A gate closing at `high` pending tasks (at least 1) and reopening
    /// at `high / 2`.
    pub fn new(high: usize) -> Arc<Self> {
        Arc::new(AdmissionGate {
            high: AtomicI64::new((high as i64).max(1)),
            pending: AtomicI64::new(0),
            peak: AtomicI64::new(0),
            closed: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            admitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
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
        if now <= self.high.load(Ordering::SeqCst) / 2 && self.closed.load(Ordering::SeqCst) {
            self.closed.store(false, Ordering::SeqCst);
        }
    }

    /// Stop admission permanently. Used by
    /// [`Runtime::quiesce`](crate::Runtime::quiesce).
    pub fn drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Replace the high watermark (at least 1; the low one follows at
    /// half) and re-evaluate the gate against it immediately (an explicit
    /// reconfiguration — by rpx-apex widening or narrowing admission — is
    /// not boundary thrash, so hysteresis does not apply to the transition
    /// itself).
    pub fn set_limits(&self, high: usize) {
        let high = (high as i64).max(1);
        self.high.store(high, Ordering::SeqCst);
        if self.pending.load(Ordering::SeqCst) >= high {
            self.close();
        } else {
            self.closed.store(false, Ordering::SeqCst);
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

    /// The (high, low) watermarks.
    pub fn limits(&self) -> (usize, usize) {
        let high = self.high.load(Ordering::SeqCst) as usize;
        (high, high / 2)
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
    /// Replace the high watermark (the low one follows at half); the gate
    /// state is re-evaluated immediately against the new limits.
    pub fn set_limits(&self, max_pending: usize) {
        self.gate.set_limits(max_pending);
    }

    /// Current (high, low) watermarks.
    pub fn limits(&self) -> (usize, usize) {
        self.gate.limits()
    }

    /// Tasks currently holding admission slots (queued, not started).
    pub fn pending(&self) -> usize {
        self.gate.pending() as usize
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

    #[test]
    fn admits_exactly_high_then_closes() {
        let g = AdmissionGate::new(4);
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
        let g = AdmissionGate::new(4);
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
        let g = AdmissionGate::new(8);
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
    fn set_limits_reevaluates_immediately() {
        let g = AdmissionGate::new(2);
        assert!(g.try_admit());
        assert!(g.try_admit());
        assert!(g.is_closed());
        g.set_limits(8); // widen: pending 2 < 8 → reopen now
        assert!(!g.is_closed());
        assert!(g.try_admit());
        g.set_limits(2); // narrow below pending 3 → close now
        assert!(g.is_closed());
        assert!(!g.try_admit());
    }
}
