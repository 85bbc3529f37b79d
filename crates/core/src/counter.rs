//! The [`Counter`] trait and the generic counter implementations every
//! subsystem builds on: raw gauges, cumulative counters (monotonic,
//! `(sum, count)` averages, `(part, whole)` shares and elapsed time, all
//! with one reset protocol), and settable application values. A counter
//! has one way in, [`Counter::get_value_at`]: its reader hands it the
//! stamp, and a reset is only ever a reset-read.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::prim::{mutation_armed, Mutex};
use crate::value::{CounterInfo, CounterKind, CounterValue};

/// Times any [`CumulativeCounter`] observed its pair source (an average's
/// `(sum, count)` or a share's `(part, whole)`) *below* the stored base —
/// impossible while sources are non-decreasing and rebasing is serialized,
/// so any nonzero value means a broken source (or a regression in the
/// rebase protocol). Process-global because counters are constructed per
/// registry instance; exposed as the
/// `/counters/health/average-underflows` counter and via
/// [`average_underflows`].
static AVERAGE_UNDERFLOWS: AtomicU64 = AtomicU64::new(0);

/// Total average-counter underflow observations in this process.
pub fn average_underflows() -> u64 {
    AVERAGE_UNDERFLOWS.load(Ordering::Relaxed)
}

/// Outcome of one [`Clock::check_drift`] cross-check against `Instant`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockDrift {
    /// The clock runs on `Instant` (no TSC fast path); nothing to check.
    Instant,
    /// TSC vs `Instant` relative error is inside the 500 ppm tolerance
    /// (signed ppm: positive means the TSC reads ahead of `Instant`).
    InTolerance(i64),
    /// The error exceeded tolerance; the 32.32 multiplier was re-derived
    /// from the full epoch→now window. The reported ppm is the error that
    /// triggered the re-derivation.
    Recalibrated(i64),
    /// The TSC proved unstable (two consecutive checks beyond the hard
    /// bound — i.e. re-derivation didn't help — or too many
    /// re-derivations); the clock fell back to `Instant` permanently.
    Disabled(i64),
    /// Another thread's check was in flight, or the observation window was
    /// too short to judge; nothing was done.
    Skipped,
}

/// Monotonic time source shared by a registry and all its counters.
///
/// Timestamps in [`CounterValue`] are nanoseconds since this clock's epoch,
/// so values from different counters of the same registry are comparable.
///
/// On x86-64 hosts with an invariant TSC the clock reads `rdtsc` and
/// scales ticks to nanoseconds with a 32.32 fixed-point multiplier —
/// roughly half the cost of `Instant::now()`, which matters because the
/// runtime's overhead windows bracket sub-100 ns code paths with two reads
/// each (the instrument must be cheaper than the thing it measures).
/// Everywhere else (other architectures, miri, hosts without
/// `constant_tsc`) it falls back to `Instant`.
///
/// The multiplier is first derived from a short (~500 µs) busy-wait window
/// at construction, which bounds its relative error at roughly the
/// clock-read noise divided by the window — good enough for sub-second
/// runs, but over hours even a few-hundred-ppm rate error accumulates into
/// visible skew on every duration counter. [`Clock::check_drift`] is the
/// fix: a periodic cross-check (the runtime calls it from the watchdog
/// tick) compares the TSC-derived elapsed time against `Instant` and
/// re-derives the multiplier from the *entire* epoch→now window — whose
/// relative error shrinks as the run ages — whenever the two disagree by
/// more than 500 ppm. Re-derivation is rate-only and never steps the
/// reported time: the clock value stays continuous and monotone, only its
/// forward rate changes. The offset from `Instant` it leaves in place is
/// not drift, so later checks count error from that point on. A TSC that
/// keeps drifting past the hard bound is declared unstable and the clock
/// falls back to `Instant` permanently (clamped so the switch never steps
/// backwards either).
#[derive(Debug)]
pub struct Clock {
    epoch: Instant,
    tsc: Option<tsc::TscClock>,
    /// Times [`check_drift`](Self::check_drift) re-derived the multiplier
    /// (`/counters/clock/recalibrations`).
    recalibrations: AtomicU64,
    /// Last observed signed TSC−`Instant` error in ppm
    /// (`/counters/clock/drift-ppm`).
    drift_ppm: AtomicI64,
}

/// Relative TSC error (ppm) above which the multiplier is re-derived.
const DRIFT_TOLERANCE_PPM: i64 = 500;
/// Relative error (ppm) treated as a stability strike. One strike still
/// re-derives (the short bootstrap window can easily be a percent off on
/// a noisy host); two *consecutive* strikes mean re-derivation didn't
/// help and the TSC rate itself is untrustworthy.
const DRIFT_UNSTABLE_PPM: i64 = 10_000;
/// Re-derivations after which a still-drifting TSC is declared unstable.
const MAX_RECALIBRATIONS: u64 = 8;
/// Minimum observation window for a drift verdict: below this, scheduling
/// noise on the two paired clock reads dominates the ppm estimate.
const MIN_DRIFT_WINDOW_NS: u64 = 100_000_000;

impl Clock {
    /// A clock whose epoch is "now". Calibration of the TSC fast path
    /// busy-waits ~500µs once per clock; registries share one clock.
    pub fn new() -> Self {
        let epoch = Instant::now();
        let tsc = tsc::TscClock::calibrate(epoch);
        Clock {
            epoch,
            tsc,
            recalibrations: AtomicU64::new(0),
            drift_ppm: AtomicI64::new(0),
        }
    }

    /// Nanoseconds elapsed since the epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        match &self.tsc {
            Some(t) => t.now_ns(self.epoch),
            None => self.epoch.elapsed().as_nanos() as u64,
        }
    }

    /// Cross-check the TSC fast path against `Instant` and correct it.
    ///
    /// Intended to be called periodically (the runtime watchdog ticks it);
    /// concurrent calls are safe — one wins, the rest return
    /// [`ClockDrift::Skipped`]. See the type-level docs for the policy.
    pub fn check_drift(&self) -> ClockDrift {
        let Some(t) = &self.tsc else {
            return ClockDrift::Instant;
        };
        let outcome = t.cross_check(self.epoch);
        match outcome {
            ClockDrift::InTolerance(ppm) | ClockDrift::Disabled(ppm) => {
                self.drift_ppm.store(ppm, Ordering::Relaxed);
            }
            ClockDrift::Recalibrated(ppm) => {
                self.drift_ppm.store(ppm, Ordering::Relaxed);
                self.recalibrations.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        outcome
    }

    /// Times the multiplier was re-derived by [`check_drift`](Self::check_drift).
    pub fn recalibrations(&self) -> u64 {
        self.recalibrations.load(Ordering::Relaxed)
    }

    /// Last signed TSC−`Instant` error observed by a completed drift
    /// check, in ppm (0 before the first check, or on `Instant` clocks).
    pub fn last_drift_ppm(&self) -> i64 {
        self.drift_ppm.load(Ordering::Relaxed)
    }

    /// Whether the TSC fast path is currently in use (false on non-x86
    /// hosts, without invariant TSC, or after a permanent fallback).
    pub fn tsc_active(&self) -> bool {
        self.tsc.as_ref().is_some_and(|t| t.is_active())
    }

    /// Test hook: skew the TSC multiplier by `num/den` so drift-correction
    /// paths can be exercised deterministically. No-op on `Instant` clocks.
    #[doc(hidden)]
    pub fn skew_tsc_for_test(&self, num: u64, den: u64) {
        if let Some(t) = &self.tsc {
            t.skew(num, den);
        }
    }
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
mod tsc {
    use std::sync::atomic::{fence, AtomicU64, Ordering};
    use std::time::{Duration, Instant};

    use super::ClockDrift;

    /// Calibrated TSC reader: `ns = offset + (ticks - base) * mult >> 32`.
    ///
    /// The `(base, offset_ns, mult)` triple forms one *segment* of a
    /// piecewise-linear tick→ns map and must be read consistently, so the
    /// three words sit behind a seqlock: `seq` is even when the segment is
    /// stable and odd while [`cross_check`](Self::cross_check) installs a
    /// new one. Readers retry on a torn read; the writer runs at watchdog
    /// cadence (≤ 1/s), so retries are vanishingly rare and the fast path
    /// costs two extra uncontended loads. `mult == 0` is the permanent
    /// `Instant`-fallback sentinel; `offset_ns` then carries the floor
    /// that keeps the switch monotone.
    #[derive(Debug)]
    pub(super) struct TscClock {
        /// Seqlock word: even = stable, odd = writer in flight.
        seq: AtomicU64,
        /// Tick count at the start of the current segment.
        base: AtomicU64,
        /// Clock value (ns since epoch) at the start of the segment.
        offset_ns: AtomicU64,
        /// Nanoseconds per tick as a 32.32 fixed-point value; 0 disables
        /// the TSC path permanently.
        mult: AtomicU64,
        /// Tick count at the epoch (immutable): re-derivations measure the
        /// rate over the whole epoch→now window, not the short bootstrap
        /// window.
        epoch_ticks: u64,
        /// Re-derivations so far; past [`super::MAX_RECALIBRATIONS`] a
        /// still-drifting TSC is declared unstable.
        recal_count: AtomicU64,
        /// Consecutive checks whose error exceeded the hard bound. The
        /// first one re-derives (the bootstrap window is short and noisy,
        /// so a large initial error is expected and fixable); a second in
        /// a row means re-derivation did not help — the TSC is unstable.
        strikes: AtomicU64,
        /// Clock − `Instant` at the last re-derivation (signed, as i64
        /// bits): the step the rate-only correction did not take. Checks
        /// subtract it, so they measure only the error the current
        /// multiplier has built up; counted again, that old error would
        /// re-derive a correct rate on every check until the TSC is given
        /// up. Written only under the seqlock's writer lock.
        carried_ns: AtomicU64,
    }

    #[inline]
    fn rdtsc() -> u64 {
        // SAFETY: rdtsc is always available on x86-64.
        unsafe { std::arch::x86_64::_rdtsc() }
    }

    /// CPUID leaf 0x8000_0007, EDX bit 8: the TSC runs at a constant
    /// rate and never stops (constant_tsc + nonstop_tsc). Without it,
    /// frequency scaling would silently warp every duration.
    fn invariant_tsc() -> bool {
        if std::arch::x86_64::__cpuid(0x8000_0000).eax < 0x8000_0007 {
            return false;
        }
        std::arch::x86_64::__cpuid(0x8000_0007).edx & (1 << 8) != 0
    }

    impl TscClock {
        pub(super) fn calibrate(epoch: Instant) -> Option<TscClock> {
            // CPUID traps to the hypervisor on virtualized hosts (µs each):
            // it runs before the window opens, so its time lands in neither
            // the window's ticks nor its nanoseconds.
            if !invariant_tsc() {
                return None;
            }
            // The window's start and end are each an `Instant` read beside
            // an `rdtsc`, so the two stamps of a pair see the same moment.
            // Busy-wait, not sleep: a sleeping calibrator can be
            // descheduled for milliseconds, and the spin keeps the
            // window — and thus the relative calibration error
            // (~clock-read noise / window) — tightly bounded.
            let start = Instant::now();
            let base = rdtsc();
            let (ns, ticks) = loop {
                let now = Instant::now();
                let ticks = rdtsc();
                let ns = now.duration_since(start);
                if ns >= Duration::from_micros(500) {
                    break (ns.as_nanos() as u64, ticks.saturating_sub(base));
                }
                std::hint::spin_loop();
            };
            if ticks == 0 || ns == 0 {
                return None;
            }
            let mult = ((ns as u128) << 32) / ticks as u128;
            if mult == 0 || mult > u64::MAX as u128 {
                return None;
            }
            // `base` was read this long after the epoch; the epoch's own
            // tick is extrapolated back at the measured rate.
            let offset_ns = start.duration_since(epoch).as_nanos() as u64;
            let epoch_ticks = base.saturating_sub((((offset_ns as u128) << 32) / mult) as u64);
            Some(TscClock {
                seq: AtomicU64::new(0),
                // First segment covers the whole run so far: `base` ticks
                // ↦ its offset from the epoch.
                base: AtomicU64::new(base),
                offset_ns: AtomicU64::new(offset_ns),
                mult: AtomicU64::new(mult as u64),
                epoch_ticks,
                recal_count: AtomicU64::new(0),
                strikes: AtomicU64::new(0),
                carried_ns: AtomicU64::new(0),
            })
        }

        /// Seqlock read of the current `(base, offset, mult)` segment.
        #[inline]
        fn segment(&self) -> (u64, u64, u64) {
            loop {
                let s1 = self.seq.load(Ordering::Acquire);
                if s1 & 1 == 1 {
                    std::hint::spin_loop();
                    continue;
                }
                let base = self.base.load(Ordering::Relaxed);
                let offset = self.offset_ns.load(Ordering::Relaxed);
                let mult = self.mult.load(Ordering::Relaxed);
                // The Acquire fence orders the data loads before the
                // second seq load: if seq is unchanged (and even), no
                // writer ran in between and the triple is consistent.
                fence(Ordering::Acquire);
                if self.seq.load(Ordering::Relaxed) == s1 {
                    return (base, offset, mult);
                }
            }
        }

        #[inline]
        pub(super) fn now_ns(&self, epoch: Instant) -> u64 {
            let (base, offset, mult) = self.segment();
            if mult == 0 {
                // Permanent fallback: `offset` is the last TSC reading,
                // a floor that keeps the switch to `Instant` monotone.
                return (epoch.elapsed().as_nanos() as u64).max(offset);
            }
            let ticks = rdtsc().saturating_sub(base);
            offset + ((ticks as u128 * mult as u128) >> 32) as u64
        }

        pub(super) fn is_active(&self) -> bool {
            self.segment().2 != 0
        }

        /// Compare the TSC-derived time against `Instant` and, when the
        /// relative error exceeds tolerance, install a new segment whose
        /// rate comes from the whole epoch→now window. The new segment
        /// starts at the clock's *current* reading, so the correction
        /// changes only the forward rate — no step, no backwards jump.
        /// The error is counted from the last correction on
        /// (`carried_ns`), relative to the whole window.
        pub(super) fn cross_check(&self, epoch: Instant) -> ClockDrift {
            let inst_ns = epoch.elapsed().as_nanos() as u64;
            if inst_ns < super::MIN_DRIFT_WINDOW_NS {
                return ClockDrift::Skipped;
            }
            // Writer lock: CAS even → odd. Losing the race means another
            // checker is at it right now; skip rather than queue.
            let s = self.seq.load(Ordering::Relaxed);
            if s & 1 == 1
                || self
                    .seq
                    .compare_exchange(s, s + 1, Ordering::AcqRel, Ordering::Relaxed)
                    .is_err()
            {
                return ClockDrift::Skipped;
            }
            // Data reads below see the stable segment: we hold the lock.
            let base = self.base.load(Ordering::Relaxed);
            let offset = self.offset_ns.load(Ordering::Relaxed);
            let mult = self.mult.load(Ordering::Relaxed);
            let unlock = |this: &Self| this.seq.store(s + 2, Ordering::Release);
            if mult == 0 {
                unlock(self);
                return ClockDrift::Disabled(0);
            }
            let now_ticks = rdtsc();
            let tsc_ns =
                offset + ((now_ticks.saturating_sub(base) as u128 * mult as u128) >> 32) as u64;
            let err_ns = tsc_ns as i64 - inst_ns as i64;
            let drift_ns = err_ns.saturating_sub(self.carried_ns.load(Ordering::Relaxed) as i64);
            let ppm = drift_ns.saturating_mul(1_000_000) / inst_ns as i64;
            if ppm.abs() <= super::DRIFT_TOLERANCE_PPM {
                self.strikes.store(0, Ordering::Relaxed);
                unlock(self);
                return ClockDrift::InTolerance(ppm);
            }
            let window_ticks = now_ticks.saturating_sub(self.epoch_ticks);
            let new_mult = if window_ticks == 0 {
                0
            } else {
                let m = ((inst_ns as u128) << 32) / window_ticks as u128;
                u64::try_from(m).unwrap_or(0)
            };
            // A beyond-hard-bound error earns a strike, but the *first*
            // one still re-derives: the bootstrap calibration window is
            // only ~500 µs, so a multi-percent initial error is common
            // (virtualized hosts especially) and exactly what the
            // whole-window re-derivation fixes. Two strikes in a row —
            // re-derivation didn't help — means the TSC rate itself is
            // untrustworthy.
            let strikes = if ppm.abs() > super::DRIFT_UNSTABLE_PPM {
                self.strikes.fetch_add(1, Ordering::Relaxed) + 1
            } else {
                self.strikes.store(0, Ordering::Relaxed);
                0
            };
            let unstable = strikes >= 2
                || new_mult == 0
                || self.recal_count.fetch_add(1, Ordering::Relaxed) + 1 > super::MAX_RECALIBRATIONS;
            if unstable {
                // Permanent fallback. The current reading becomes the
                // floor for the Instant path so time never steps back.
                self.base.store(now_ticks, Ordering::Relaxed);
                self.offset_ns.store(tsc_ns, Ordering::Relaxed);
                self.mult.store(0, Ordering::Relaxed);
                unlock(self);
                return ClockDrift::Disabled(ppm);
            }
            // Rate-only correction: new segment starts here and now, at
            // the value the old segment reports for this instant.
            self.base.store(now_ticks, Ordering::Relaxed);
            self.offset_ns.store(tsc_ns, Ordering::Relaxed);
            self.mult.store(new_mult, Ordering::Relaxed);
            self.carried_ns.store(err_ns as u64, Ordering::Relaxed);
            unlock(self);
            ClockDrift::Recalibrated(ppm)
        }

        /// Test hook: scale the live multiplier by `num/den`.
        pub(super) fn skew(&self, num: u64, den: u64) {
            let s = self.seq.load(Ordering::Relaxed);
            if s & 1 == 1
                || self
                    .seq
                    .compare_exchange(s, s + 1, Ordering::AcqRel, Ordering::Relaxed)
                    .is_err()
            {
                return;
            }
            let mult = self.mult.load(Ordering::Relaxed);
            if mult != 0 && den != 0 {
                let skewed = (mult as u128 * num as u128 / den as u128).min(u64::MAX as u128);
                self.mult.store(skewed as u64, Ordering::Relaxed);
            }
            self.seq.store(s + 2, Ordering::Release);
        }
    }
}

#[cfg(not(all(target_arch = "x86_64", not(miri))))]
mod tsc {
    use std::time::Instant;

    use super::ClockDrift;

    /// TSC fast path is unavailable; [`super::Clock`] uses `Instant`.
    #[derive(Debug, Clone, Copy)]
    pub(super) enum TscClock {}

    impl TscClock {
        pub(super) fn calibrate(_epoch: Instant) -> Option<TscClock> {
            None
        }

        pub(super) fn now_ns(&self, _epoch: Instant) -> u64 {
            match *self {}
        }

        pub(super) fn is_active(&self) -> bool {
            match *self {}
        }

        pub(super) fn cross_check(&self, _epoch: Instant) -> ClockDrift {
            match *self {}
        }

        pub(super) fn skew(&self, _num: u64, _den: u64) {
            match *self {}
        }
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::new()
    }
}

/// A live performance-counter instance.
///
/// Counters are cheap to evaluate and safe to query from any thread,
/// including concurrently with the instrumented code — this is the property
/// that lets the runtime introspect itself without stopping the world.
pub trait Counter: Send + Sync {
    /// Metadata (canonical name, kind, help text, unit).
    fn info(&self) -> CounterInfo;

    /// Evaluate the counter at the reader's stamp `now_ns`. With `reset`,
    /// atomically restart the counter's accumulation with the read (HPX
    /// `get_counter_value(reset)`); a reset is only ever such a read, and
    /// a composite passes it on to its children. For a
    /// [`CumulativeCounter`] each reset-read returns the interval since the
    /// previous reset, ≥ 0, and the intervals partition the source's
    /// growth. The base is the instance's, and the registry hands every
    /// reader the same instance of a name: one reader's reset also starts
    /// every other reader's interval.
    fn get_value_at(&self, reset: bool, now_ns: u64) -> CounterValue;

    /// Downcast hook for counters with richer payloads than a scalar
    /// (e.g. [`crate::histogram::HistogramCounter`]).
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

/// Closure type used by pull-based counters to read instrumented state.
pub type ValueFn = Arc<dyn Fn() -> i64 + Send + Sync>;

/// Closure type for (sum, count) averages.
pub type PairFn = Arc<dyn Fn() -> (u64, u64) + Send + Sync>;

/// An instantaneous gauge: every evaluation re-reads the source closure.
/// A reset does nothing because the quantity is not accumulated.
pub struct RawCounter {
    info: CounterInfo,
    read: ValueFn,
}

impl RawCounter {
    /// Build from metadata and a source closure. `_clock` is unused: the
    /// reader hands every read its stamp.
    pub fn new(info: CounterInfo, _clock: Arc<Clock>, read: ValueFn) -> Self {
        RawCounter { info, read }
    }
}

impl Counter for RawCounter {
    fn info(&self) -> CounterInfo {
        self.info.clone()
    }

    fn get_value_at(&self, _reset: bool, now_ns: u64) -> CounterValue {
        CounterValue::new((self.read)(), now_ns)
    }
}

/// What a [`CumulativeCounter`]'s source is a running total of, and with
/// that how the growth since the last reset is finished into a value.
#[derive(Clone)]
pub enum Cumulative {
    /// A non-decreasing value (a negative one reads as 0); reads its
    /// growth.
    Monotonic(ValueFn),
    /// A non-decreasing `(sum, count)`, e.g. mean task duration =
    /// cumulative execution time / tasks executed; reads `Δsum / Δcount`,
    /// or `NewData` when no count arrived.
    Average(PairFn),
    /// A non-decreasing `(part, whole)`; reads `Δpart / Δwhole` in units of
    /// 0.01 %, rounded, or 0 when the whole did not grow.
    Share(PairFn),
    /// The read's own stamp: reads the time since creation or the last
    /// reset (`/runtime/uptime`).
    Elapsed,
}

/// A counter over a running total that reports its growth since the last
/// reset. This is what makes per-sample measurement (`evaluate`, `reset`,
/// run, `evaluate`) work while the runtime keeps counting globally.
///
/// One protocol serves every kind: the source is read *under* the lock
/// that holds the base, so each stored base was observed no later than the
/// next caller's read, every reset-read returns an interval ≥ 0, and the
/// reset-reads partition the growth exactly (no increment is lost or
/// counted twice). Rebasing with an unlocked swap instead lets two readers
/// interleave read A → read B → swap B → swap A: A's older base goes back
/// in, A reads negative and the next reader counts B's interval again.
///
/// An elapsed-time source is the stamp its reader hands in, and
/// concurrent readers can hand stamps out of order: a stamp below the base
/// reads 0 and leaves the base where it is.
pub struct CumulativeCounter {
    info: CounterInfo,
    source: Cumulative,
    /// The running total at the last reset (the second word is 0 for a
    /// single-valued source).
    base: Mutex<(u64, u64)>,
}

impl CumulativeCounter {
    /// Build from metadata and a source; an elapsed-time counter starts
    /// counting now.
    pub fn new(info: CounterInfo, clock: Arc<Clock>, source: Cumulative) -> Self {
        let start = match source {
            Cumulative::Elapsed => clock.now_ns(),
            _ => 0,
        };
        CumulativeCounter {
            info,
            source,
            base: Mutex::new((start, 0)),
        }
    }

    fn total(&self, now_ns: u64) -> (u64, u64) {
        match &self.source {
            Cumulative::Monotonic(read) => ((read)().max(0) as u64, 0),
            Cumulative::Average(read) | Cumulative::Share(read) => (read)(),
            Cumulative::Elapsed => (now_ns, 0),
        }
    }

    /// The growth since the last reset and, with `reset`, a new base: one
    /// read and one rebase under one lock.
    fn interval(&self, reset: bool, now_ns: u64) -> (u64, u64) {
        let early = mutation_armed("cumulative-read-before-lock").then(|| self.total(now_ns));
        let mut base = self.base.lock();
        let total = early.unwrap_or_else(|| self.total(now_ns));
        let behind = total.0 < base.0 || total.1 < base.1;
        if behind && matches!(self.source, Cumulative::Average(_) | Cumulative::Share(_)) {
            // A non-decreasing pair read under the lock that stored the
            // base cannot go backwards; don't let saturating_sub silently
            // mask a broken source.
            AVERAGE_UNDERFLOWS.fetch_add(1, Ordering::Relaxed);
        }
        let delta = (
            total.0.saturating_sub(base.0),
            total.1.saturating_sub(base.1),
        );
        // A stale stamp leaves the base where it is.
        if reset && !(behind && matches!(self.source, Cumulative::Elapsed)) {
            *base = total;
        }
        delta
    }
}

impl Counter for CumulativeCounter {
    fn info(&self) -> CounterInfo {
        self.info.clone()
    }

    fn get_value_at(&self, reset: bool, now_ns: u64) -> CounterValue {
        let (delta, count) = self.interval(reset, now_ns);
        match self.source {
            Cumulative::Average(_) if count == 0 => CounterValue::empty(now_ns),
            Cumulative::Average(_) => {
                CounterValue::new((delta / count) as i64, now_ns).with_count(count)
            }
            Cumulative::Share(_) if count == 0 => CounterValue::new(0, now_ns),
            Cumulative::Share(_) => {
                let share = (delta as f64 / count as f64 * 10_000.0).round() as i64;
                CounterValue::new(share, now_ns)
            }
            Cumulative::Monotonic(_) | Cumulative::Elapsed => {
                CounterValue::new(delta as i64, now_ns)
            }
        }
    }
}

/// A settable gauge owned by application code (`register_value`): the
/// producer stores values, consumers read them through the counter API.
pub struct ValueCell {
    info: CounterInfo,
    value: AtomicI64,
}

impl ValueCell {
    /// Build with an initial value of zero.
    pub fn new(info: CounterInfo) -> Self {
        ValueCell {
            info,
            value: AtomicI64::new(0),
        }
    }

    /// Store a new value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Release);
    }

    /// Add to the current value, returning the new value.
    pub fn add(&self, delta: i64) -> i64 {
        self.value.fetch_add(delta, Ordering::AcqRel) + delta
    }
}

impl Counter for ValueCell {
    fn info(&self) -> CounterInfo {
        self.info.clone()
    }

    fn get_value_at(&self, reset: bool, now_ns: u64) -> CounterValue {
        let v = if reset {
            self.value.swap(0, Ordering::AcqRel)
        } else {
            self.value.load(Ordering::Acquire)
        };
        CounterValue::new(v, now_ns)
    }
}

/// Convenience constructor for [`CounterInfo`] used by subsystems.
pub fn info(
    name: impl Into<String>,
    kind: CounterKind,
    help: impl Into<String>,
    unit: impl Into<String>,
) -> CounterInfo {
    CounterInfo::new(name, kind, help, unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicI64 as TestAtomic;

    /// The one clock these tests' counters are built with and read at.
    fn clock() -> Arc<Clock> {
        static CLOCK: std::sync::OnceLock<Arc<Clock>> = std::sync::OnceLock::new();
        CLOCK.get_or_init(|| Arc::new(Clock::new())).clone()
    }

    /// `c` read at a fresh stamp of [`clock`].
    fn read(c: &(impl Counter + ?Sized), reset: bool) -> CounterValue {
        c.get_value_at(reset, clock().now_ns())
    }

    fn test_info(name: &str) -> CounterInfo {
        CounterInfo::new(name, CounterKind::Raw, "test", "1")
    }

    #[test]
    fn raw_counter_reads_source() {
        let src = Arc::new(TestAtomic::new(5));
        let s2 = src.clone();
        let c = RawCounter::new(
            test_info("/t/raw"),
            clock(),
            Arc::new(move || s2.load(Ordering::Relaxed)),
        );
        assert_eq!(read(&c, false).value, 5);
        src.store(9, Ordering::Relaxed);
        assert_eq!(read(&c, true).value, 9); // reset is a no-op
        assert_eq!(read(&c, false).value, 9);
    }

    #[test]
    fn monotonic_counter_reset_rebaselines() {
        let src = Arc::new(TestAtomic::new(0));
        let s2 = src.clone();
        let c = CumulativeCounter::new(
            test_info("/t/mono"),
            clock(),
            Cumulative::Monotonic(Arc::new(move || s2.load(Ordering::Relaxed))),
        );
        src.store(10, Ordering::Relaxed);
        assert_eq!(read(&c, true).value, 10); // read + reset
        src.store(25, Ordering::Relaxed);
        assert_eq!(read(&c, false).value, 15); // delta since reset
        let _ = read(&c, true);
        assert_eq!(read(&c, false).value, 0);
    }

    #[test]
    fn average_counter_divides_deltas() {
        let sum = Arc::new(AtomicU64::new(0));
        let count = Arc::new(AtomicU64::new(0));
        let (s2, c2) = (sum.clone(), count.clone());
        let c = CumulativeCounter::new(
            test_info("/t/avg"),
            clock(),
            Cumulative::Average(Arc::new(move || {
                (s2.load(Ordering::Relaxed), c2.load(Ordering::Relaxed))
            })),
        );
        sum.store(100, Ordering::Relaxed);
        count.store(4, Ordering::Relaxed);
        let v = read(&c, true);
        assert_eq!(v.value, 25);
        assert_eq!(v.count, 4);
        // After reset, only new contributions count.
        sum.store(160, Ordering::Relaxed);
        count.store(6, Ordering::Relaxed);
        let v = read(&c, false);
        assert_eq!(v.value, 30); // (160-100)/(6-4)
        assert_eq!(v.count, 2);
    }

    #[test]
    fn average_counter_concurrent_resets_conserve_counts() {
        // Regression for the lost-increment race: with the baseline held
        // as two independent atomics, resets racing each other (and the
        // source) could re-install a stale baseline, so the per-interval
        // count deltas summed across readers drifted from the true total.
        // With the serialized rebase protocol the reset-read deltas must
        // partition the source exactly: Σ deltas + final remainder ==
        // total increments, on every run.
        let sum = Arc::new(AtomicU64::new(0));
        let count = Arc::new(AtomicU64::new(0));
        let (s2, c2) = (sum.clone(), count.clone());
        let counter = Arc::new(CumulativeCounter::new(
            test_info("/t/avg"),
            clock(),
            Cumulative::Average(Arc::new(move || {
                (s2.load(Ordering::Relaxed), c2.load(Ordering::Relaxed))
            })),
        ));
        let underflows_before = average_underflows();

        const INCREMENTS: u64 = 100_000;
        let writer = {
            let (sum, count) = (sum.clone(), count.clone());
            std::thread::spawn(move || {
                for _ in 0..INCREMENTS {
                    // sum grows by 3 per event, count by 1 — and sum is
                    // bumped first, so a torn read sees sum ahead of
                    // count, never behind (the average stays ≥ 0).
                    sum.fetch_add(3, Ordering::Relaxed);
                    count.fetch_add(1, Ordering::Relaxed);
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let counter = counter.clone();
                std::thread::spawn(move || {
                    let mut harvested = 0u64;
                    for _ in 0..2_000 {
                        harvested += read(&*counter, true).count;
                    }
                    harvested
                })
            })
            .collect();
        writer.join().unwrap();
        let harvested: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        let remainder = read(&*counter, false).count;
        assert_eq!(
            harvested + remainder,
            INCREMENTS,
            "reset-read deltas must partition the source exactly"
        );
        // The underflow checks live in this same test because the detector
        // is process-global: a sibling test tripping it on purpose would
        // race these assertions.
        assert_eq!(
            average_underflows(),
            underflows_before,
            "a monotonic source must never trip the underflow detector"
        );
        // A *broken* (decreasing) source must be surfaced in the health
        // counter instead of being silently clamped by saturating_sub.
        let src = Arc::new(AtomicU64::new(100));
        let s2 = src.clone();
        let broken = CumulativeCounter::new(
            test_info("/t/avg-broken"),
            clock(),
            Cumulative::Average(Arc::new(move || (s2.load(Ordering::Relaxed), 1))),
        );
        let _ = read(&broken, true); // baseline (100, 1)
        src.store(40, Ordering::Relaxed); // source goes backwards
        let v = read(&broken, false);
        assert_eq!(v.count, 0, "clamped, not wrapped");
        assert_eq!(
            average_underflows(),
            underflows_before + 1,
            "underflow recorded"
        );
    }

    #[test]
    fn average_counter_empty_interval_reports_new_data() {
        let c = CumulativeCounter::new(
            test_info("/t/avg"),
            clock(),
            Cumulative::Average(Arc::new(|| (0, 0))),
        );
        let v = read(&c, false);
        assert_eq!(v.status, crate::value::CounterStatus::NewData);
        assert_eq!(v.count, 0);
    }

    #[test]
    fn elapsed_time_counter_grows_and_resets() {
        let c = CumulativeCounter::new(test_info("/t/up"), clock(), Cumulative::Elapsed);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let v1 = read(&c, false).value;
        assert!(v1 >= 1_000_000, "expected >=1ms elapsed, got {v1}ns");
        let _ = read(&c, true);
        let v2 = read(&c, false).value;
        assert!(v2 < v1, "reset should restart the reference point");
    }

    /// Two threads reset-read `counter` `reads` times each; returns every
    /// reading.
    fn reset_read_concurrently(counter: &Arc<dyn Counter>, reads: usize) -> Vec<i64> {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let counter = counter.clone();
                std::thread::spawn(move || {
                    (0..reads)
                        .map(|_| read(&*counter, true).value)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        readers
            .into_iter()
            .flat_map(|r| r.join().unwrap())
            .collect()
    }

    /// The reset-read race on a registry's monotonic counter whose source
    /// sums 16 shards, as the runtime's ledger does, while a writer keeps
    /// growing them: an unlocked rebase (read A → read B → swap B → swap
    /// A) reads negative and counts an interval twice. Every reading is
    /// ≥ 0, and the readings plus what is left since the last reset are
    /// the growth, exactly.
    #[test]
    fn concurrent_reset_reads_of_a_monotonic_counter_partition_the_growth() {
        let reg = crate::registry::CounterRegistry::new();
        let shards: Arc<Vec<TestAtomic>> = Arc::new((0..16).map(|_| TestAtomic::new(0)).collect());
        let sum = |shards: &[TestAtomic]| shards.iter().map(|s| s.load(Ordering::Relaxed)).sum();
        let s2 = shards.clone();
        reg.register_monotonic("/t/grow", "test", "1", Arc::new(move || sum(&s2)));
        let counter = reg.get_counter(&"/t/grow".parse().unwrap()).unwrap();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer = {
            let (shards, stop) = (shards.clone(), stop.clone());
            std::thread::spawn(move || {
                for shard in shards.iter().cycle() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    shard.fetch_add(1, Ordering::Relaxed);
                }
            })
        };
        let readings = reset_read_concurrently(&counter, 400_000);
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
        let negative = readings.iter().filter(|v| **v < 0).count();
        assert_eq!(negative, 0, "negative readings of a monotonic counter");
        let remainder = read(&*counter, false).value;
        assert_eq!(
            readings.iter().sum::<i64>() + remainder,
            sum(&shards),
            "reset-reads plus the remainder must be the growth"
        );
    }

    /// The elapsed-time counterpart: concurrent readers hand their stamps
    /// in out of order, and no interval is counted twice, so the readings
    /// plus the remainder never exceed the time since creation.
    #[test]
    fn concurrent_reset_reads_of_an_elapsed_counter_stay_inside_its_life() {
        let clock = clock();
        let born = clock.now_ns();
        let counter: Arc<dyn Counter> = Arc::new(CumulativeCounter::new(
            test_info("/t/up"),
            clock.clone(),
            Cumulative::Elapsed,
        ));
        let readings = reset_read_concurrently(&counter, 1_000_000);
        assert!(readings.iter().all(|v| *v >= 0), "negative elapsed time");
        let remainder = read(&*counter, false).value;
        let life = clock.now_ns() - born;
        let counted = readings.iter().sum::<i64>() + remainder;
        assert!(
            counted as u64 <= life,
            "{counted} ns counted over a {life} ns life"
        );
    }

    #[test]
    fn value_cell_set_add_reset() {
        let c = ValueCell::new(test_info("/t/cell"));
        c.set(7);
        assert_eq!(read(&c, false).value, 7);
        assert_eq!(c.add(3), 10);
        assert_eq!(read(&c, true).value, 10); // read-and-clear
        assert_eq!(read(&c, false).value, 0);
    }

    #[test]
    fn timestamps_are_monotonic() {
        let c = ValueCell::new(test_info("/t/cell"));
        let t1 = read(&c, false).timestamp_ns;
        let t2 = read(&c, false).timestamp_ns;
        assert!(t2 >= t1);
    }

    /// `Instant` and the clock at one moment: a clock read bracketed by
    /// two `Instant` reads, retried until the bracket is under 2 µs (or
    /// the tightest of 1 000 tries), with the bracket's midpoint. A
    /// preemption between two reads then widens a bracket that is thrown
    /// away instead of passing for clock drift.
    fn bracketed_stamp(c: &Clock) -> (std::time::Instant, u64) {
        let mut best = None;
        for _ in 0..1_000 {
            let before = std::time::Instant::now();
            let ns = c.now_ns();
            let width = before.elapsed();
            if best.is_none_or(|(w, _, _)| width < w) {
                best = Some((width, before + width / 2, ns));
            }
            if width < std::time::Duration::from_micros(2) {
                break;
            }
        }
        let (_, at, ns) = best.expect("at least one try");
        (at, ns)
    }

    /// The TSC-drift regression: over a ≥100 ms window the clock must
    /// agree with `Instant` within tolerance — the one-shot 500 µs
    /// calibration alone does not guarantee this, the periodic
    /// cross-check does. Each end of the window is a bracketed stamp.
    #[test]
    fn clock_tracks_instant_over_long_window() {
        let c = Clock::new();
        let (t0, n0) = bracketed_stamp(&c);
        while t0.elapsed() < std::time::Duration::from_millis(110) {
            std::thread::sleep(std::time::Duration::from_millis(5));
            c.check_drift();
        }
        let (t1, n1) = bracketed_stamp(&c);
        let clock_elapsed = n1.saturating_sub(n0) as i64;
        let instant_elapsed = (t1 - t0).as_nanos() as i64;
        let err = (clock_elapsed - instant_elapsed).abs();
        // 1% over >=100ms: far looser than the 500ppm re-derivation
        // trigger, tight enough to catch an uncorrected bad multiplier
        // (a 2x-skewed mult errs by 100%).
        assert!(
            err * 100 < instant_elapsed,
            "clock drifted {err}ns over {instant_elapsed}ns"
        );
    }

    /// Run drift checks until the clock agrees with `Instant` (the
    /// bootstrap calibration on a noisy/virtualized host can start
    /// percents off; the first checks correct it). Returns `false` when
    /// the host offers no stable TSC to test against.
    fn settle_clock(c: &Clock) -> bool {
        std::thread::sleep(std::time::Duration::from_millis(110));
        for _ in 0..8 {
            match c.check_drift() {
                ClockDrift::InTolerance(_) => return true,
                ClockDrift::Instant | ClockDrift::Disabled(_) => return false,
                ClockDrift::Recalibrated(_) | ClockDrift::Skipped => {
                    std::thread::sleep(std::time::Duration::from_millis(30));
                }
            }
        }
        false
    }

    #[test]
    fn drift_check_recalibrates_a_skewed_multiplier() {
        let c = Clock::new();
        if !settle_clock(&c) {
            return; // Instant-backed or hopelessly noisy host.
        }
        // Skew the rate by +0.5%: past the 500 ppm tolerance but well
        // below the 1% strike bound. The *observed* whole-window error is
        // the skew scaled by skew-time/window-time, so leave the skew in
        // place long enough to dominate the settled prefix.
        let recals = c.recalibrations();
        c.skew_tsc_for_test(1005, 1000);
        std::thread::sleep(std::time::Duration::from_millis(100));
        let before = c.now_ns();
        let verdict = c.check_drift();
        assert!(
            matches!(verdict, ClockDrift::Recalibrated(_)),
            "a 0.5% skew must trigger re-derivation, got {verdict:?}"
        );
        assert_eq!(c.recalibrations(), recals + 1);
        assert_ne!(c.last_drift_ppm(), 0);
        // The correction is rate-only: no backwards step.
        assert!(c.now_ns() >= before, "recalibration must not step back");
        // After the re-derivation the forward rate matches Instant again,
        // and the checks that follow (watchdog cadence) see no drift: the
        // offset the correction kept is not counted again.
        let t0 = std::time::Instant::now();
        let n0 = c.now_ns();
        for _ in 0..6 {
            std::thread::sleep(std::time::Duration::from_millis(20));
            let verdict = c.check_drift();
            assert!(
                matches!(verdict, ClockDrift::InTolerance(_)),
                "the corrected rate must hold, got {verdict:?}"
            );
        }
        assert!(c.tsc_active());
        assert_eq!(c.recalibrations(), recals + 1);
        let clock_elapsed = c.now_ns().saturating_sub(n0) as i64;
        let instant_elapsed = t0.elapsed().as_nanos() as i64;
        let err = (clock_elapsed - instant_elapsed).abs();
        assert!(
            err * 100 < instant_elapsed,
            "post-recalibration rate still off: {err}ns over {instant_elapsed}ns"
        );
    }

    #[test]
    fn unstable_tsc_falls_back_to_instant_monotonically() {
        let c = Clock::new();
        if !c.tsc_active() {
            assert_eq!(c.check_drift(), ClockDrift::Instant);
            return;
        }
        if !settle_clock(&c) {
            return;
        }
        // First 2x skew: far beyond the 1% bound, but a single strike
        // still re-derives (indistinguishable from a bad bootstrap
        // calibration). The second consecutive one proves instability.
        c.skew_tsc_for_test(2, 1);
        std::thread::sleep(std::time::Duration::from_millis(30));
        let verdict = c.check_drift();
        assert!(
            matches!(verdict, ClockDrift::Recalibrated(_)),
            "first strike must re-derive, got {verdict:?}"
        );
        c.skew_tsc_for_test(2, 1);
        std::thread::sleep(std::time::Duration::from_millis(30));
        let before = c.now_ns();
        let verdict = c.check_drift();
        assert!(
            matches!(verdict, ClockDrift::Disabled(_)),
            "second consecutive strike must disable the TSC, got {verdict:?}"
        );
        assert!(!c.tsc_active(), "fallback must be permanent");
        // The switch to Instant is clamped: never a backwards step, and
        // the clock keeps moving forward afterwards.
        let after = c.now_ns();
        assert!(after >= before, "fallback stepped backwards");
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(c.now_ns() >= after);
        // Further checks are inert.
        assert!(matches!(c.check_drift(), ClockDrift::Disabled(_)));
    }

    #[test]
    fn drift_check_within_tolerance_is_a_noop() {
        let c = Clock::new();
        std::thread::sleep(std::time::Duration::from_millis(110));
        match c.check_drift() {
            ClockDrift::InTolerance(ppm) => {
                assert!(ppm.abs() <= 500, "in-tolerance verdict carries {ppm}ppm");
                assert_eq!(c.recalibrations(), 0);
            }
            ClockDrift::Instant => assert!(!c.tsc_active()),
            other => {
                // A genuinely drifting host calibration may recalibrate
                // here; that is the mechanism working, not a failure.
                assert!(matches!(other, ClockDrift::Recalibrated(_)), "{other:?}");
            }
        }
    }
}
