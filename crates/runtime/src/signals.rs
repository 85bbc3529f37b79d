//! Watchdog signals: what the runtime concludes from its own ledger.
//!
//! The paper's position is that runtime health should be *visible* through
//! intrinsic counters; Drebes et al. (arXiv 1405.2916) push further — the
//! counter stream can *detect* anomalies. Every watchdog tick hands the
//! [`Detector`] one [`Sample`] of the ledger. The detector differences it
//! against the previous one and derives four signals, each with one EWMA
//! baseline and one predicate (the idle fraction has one per side):
//!
//! | signal | baseline learns from | predicate | feeds |
//! |---|---|---|---|
//! | steal ratio (steals / executions) | ticks not storming | ≥ 64 steals and ratio > max(1, 4 × baseline) | verdict +1, `StealStorm` episode |
//! | idle fraction (idle / (elapsed × live workers)) | working ticks not spiking | backlog and < 2 % (collapse) | verdict +1 |
//! | | | backlog and > 50 % and > 4 × baseline (spike) | `IdleSpike` episode |
//! | grain (exec ns / executions, ≥ 32 tasks) | ticks not collapsed | 3 warm ticks and 8 × mean < baseline | `GranularityCollapse` episode |
//! | pending depth | every tick | ≥ capacity | verdict +2 |
//! | | | ≥ capacity / 2 and > 1.25 × baseline | verdict +1 |
//!
//! The verdict score maps to an [`OverloadState`] (published as
//! `/runtime/health/overload-state`); downgrades are hysteretic, one step
//! per two consecutive calmer ticks. Anomalies are *episodic*: a predicate
//! that holds for N consecutive ticks is one [`AnomalyEvent`], recorded when
//! it starts ([`AnomalyLog`], `/runtime/anomaly/*`), and its baseline
//! freezes while it holds so a long episode cannot normalize itself away.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// The detector's saturation verdict, least to most severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum OverloadState {
    /// Headroom everywhere: admission open, queues draining.
    #[default]
    Normal = 0,
    /// One pressure signal active — worth widening the sampling lens.
    Elevated = 1,
    /// Multiple signals (or hard saturation): shed/degrade territory.
    Overloaded = 2,
}

impl OverloadState {
    /// Counter encoding (`/runtime/health/overload-state` raw value).
    pub fn as_i64(self) -> i64 {
        self as i64
    }

    /// Decode a counter value (unknown values clamp to `Overloaded`).
    pub fn from_i64(v: i64) -> Self {
        match v {
            0 => OverloadState::Normal,
            1 => OverloadState::Elevated,
            _ => OverloadState::Overloaded,
        }
    }
}

/// What kind of anomaly an event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnomalyKind {
    /// Steal/execution ratio spiked far above its EWMA baseline.
    StealStorm,
    /// Mean net task grain dropped far below its EWMA baseline.
    GranularityCollapse,
    /// Idle fraction spiked while a backlog existed.
    IdleSpike,
}

/// One detected anomaly episode (recorded at episode start).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnomalyEvent {
    /// What happened.
    pub kind: AnomalyKind,
    /// Runtime-clock timestamp of the tick that opened the episode.
    pub at_ns: u64,
    /// The observed signal value that tripped the detector (ratio, mean
    /// grain in ns, or idle fraction — per kind).
    pub value: f64,
    /// The EWMA baseline the value was compared against.
    pub baseline: f64,
}

/// Bounded, thread-safe record of anomaly episodes plus per-kind episode
/// counters (the backing store of the `/runtime/anomaly/*` counters).
pub struct AnomalyLog {
    events: Mutex<VecDeque<AnomalyEvent>>,
    counts: [AtomicU64; 3],
    capacity: usize,
}

impl AnomalyLog {
    pub(crate) fn new(capacity: usize) -> Self {
        AnomalyLog {
            events: Mutex::new(VecDeque::new()),
            counts: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
            capacity: capacity.max(1),
        }
    }

    pub(crate) fn push(&self, event: AnomalyEvent) {
        self.counts[event.kind as usize].fetch_add(1, Ordering::Relaxed);
        let mut events = self.events.lock();
        if events.len() == self.capacity {
            events.pop_front();
        }
        events.push_back(event);
    }

    /// Episodes of `kind` recorded so far.
    pub fn count(&self, kind: AnomalyKind) -> u64 {
        self.counts[kind as usize].load(Ordering::Relaxed)
    }

    /// Total episodes across all kinds.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// The most recent episodes, oldest first.
    pub fn events(&self) -> Vec<AnomalyEvent> {
        self.events.lock().iter().copied().collect()
    }
}

/// One watchdog tick's reading. The sums are cumulative (the detector
/// differences consecutive samples itself); `now_ns` comes from the
/// registry clock, so the idle budget covers the time that really elapsed
/// between two samples, however late the tick ran.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Sample {
    pub now_ns: u64,
    /// Tasks stolen, injected steal-storm steals included.
    pub steals: u64,
    pub executed: u64,
    /// Net nanoseconds spent in task bodies.
    pub exec_ns: u64,
    pub idle_ns: u64,
    /// Workers not retired by the restart breaker.
    pub live_workers: u64,
    /// Queued-but-not-started tasks right now.
    pub pending: i64,
    /// Admission capacity (`max_pending`); 0 when admission control is
    /// off, which disables depth scoring.
    pub capacity: i64,
}

/// EWMA smoothing factor: ~5-tick memory at the watchdog cadence.
const ALPHA: f64 = 0.2;
/// A steal ratio this many times its baseline (and above 1 steal per
/// execution) is a storm.
const STORM_FACTOR: f64 = 4.0;
/// Steals below this per tick are noise, never a storm.
const STORM_MIN_STEALS: f64 = 64.0;
/// Idle fraction below this while a backlog exists is a collapse.
const IDLE_COLLAPSE: f64 = 0.02;
/// Idle fraction must exceed this absolute floor for a spike...
const SPIKE_MIN_IDLE: f64 = 0.5;
/// ... and this many times its baseline.
const SPIKE_FACTOR: f64 = 4.0;
/// Mean net grain below `baseline / COLLAPSE_FACTOR` is a collapse.
const COLLAPSE_FACTOR: f64 = 8.0;
/// Ticks with fewer executed tasks than this neither update nor test the
/// grain baseline (a mean over 3 tasks is noise).
const GRAIN_MIN_TASKS: u64 = 32;
/// Ticks the grain baseline must have seen before a collapse can fire.
const GRAIN_WARMUP_TICKS: u32 = 3;
/// Pending depth this many times its baseline (and at least half the
/// capacity) is growth towards saturation.
const DEPTH_GROWTH: f64 = 1.25;
/// Consecutive calmer ticks required per downgrade step of the verdict.
const CALM_TICKS: u32 = 2;

/// One signal's EWMA baseline and episode latch.
#[derive(Debug, Default)]
struct Signal {
    baseline: f64,
    firing: bool,
}

impl Signal {
    /// Fold one tick's `value`. Returns true exactly once per episode, on
    /// the tick `firing` first holds; the baseline learns only from ticks
    /// that are not firing (and that `learn` admits), so an episode cannot
    /// teach the baseline that it is normal.
    fn observe(&mut self, value: f64, firing: bool, learn: bool) -> bool {
        let opened = firing && !self.firing;
        self.firing = firing;
        if !firing && learn {
            self.baseline += ALPHA * (value - self.baseline);
        }
        opened
    }
}

/// The watchdog's detector; pure state-machine logic, so it unit tests
/// without a runtime.
#[derive(Debug, Default)]
pub(crate) struct Detector {
    last: Option<Sample>,
    steal_ratio: Signal,
    idle_fraction: Signal,
    grain_ns: Signal,
    grain_ticks: u32,
    depth: f64,
    calm_ticks: u32,
    state: OverloadState,
}

impl Detector {
    /// Fold one sample: new anomaly episodes go to `log`, the (possibly
    /// unchanged) verdict is returned. The first sample only primes the
    /// deltas.
    pub fn tick(&mut self, s: Sample, log: &AnomalyLog) -> OverloadState {
        let Some(last) = self.last.replace(s) else {
            self.depth = s.pending as f64;
            return self.state;
        };
        let steals = s.steals.saturating_sub(last.steals) as f64;
        let executed = s.executed.saturating_sub(last.executed);
        let exec_ns = s.exec_ns.saturating_sub(last.exec_ns) as f64;
        let idle_ns = s.idle_ns.saturating_sub(last.idle_ns) as f64;
        let budget_ns = s.now_ns.saturating_sub(last.now_ns) * s.live_workers.max(1);
        let backlog = s.pending > 0;
        let open = |kind, value, baseline| {
            log.push(AnomalyEvent {
                kind,
                at_ns: s.now_ns,
                value,
                baseline,
            })
        };
        let mut score = 0u32;

        // With nothing executed at all the ratio is unbounded: every steal
        // counts.
        let ratio = steals / executed.max(1) as f64;
        let baseline = self.steal_ratio.baseline;
        let storming = steals >= STORM_MIN_STEALS && ratio > (baseline * STORM_FACTOR).max(1.0);
        if self.steal_ratio.observe(ratio, storming, true) {
            open(AnomalyKind::StealStorm, ratio, baseline);
        }
        score += u32::from(storming);

        // The idle baseline is "idle fraction *while working*": a quiet
        // runtime (no backlog, nothing executed) is legitimately idle, and
        // letting those ticks teach the baseline would mask starvation.
        let idle = if budget_ns > 0 {
            (idle_ns / budget_ns as f64).min(1.0)
        } else {
            0.0
        };
        let baseline = self.idle_fraction.baseline;
        let spiking = backlog && idle > SPIKE_MIN_IDLE && idle > baseline * SPIKE_FACTOR;
        if self
            .idle_fraction
            .observe(idle, spiking, backlog || executed > 0)
        {
            open(AnomalyKind::IdleSpike, idle, baseline);
        }
        score += u32::from(backlog && budget_ns > 0 && idle < IDLE_COLLAPSE);

        if executed >= GRAIN_MIN_TASKS {
            let mean = exec_ns / executed as f64;
            let baseline = self.grain_ns.baseline;
            let collapsed =
                self.grain_ticks >= GRAIN_WARMUP_TICKS && mean * COLLAPSE_FACTOR < baseline;
            if self.grain_ns.observe(mean, collapsed, true) {
                open(AnomalyKind::GranularityCollapse, mean, baseline);
            }
            if !collapsed {
                self.grain_ticks = self.grain_ticks.saturating_add(1);
            }
        } else {
            // Too few tasks to judge; a quiet tick also ends any episode.
            self.grain_ns.firing = false;
        }

        // Hard saturation scores double — it alone means the spawn rate
        // beat the drain rate all the way to the cap.
        let depth = s.pending as f64;
        if s.capacity > 0 && s.pending >= s.capacity {
            score += 2;
        } else if s.capacity > 0 && s.pending * 2 >= s.capacity && depth > self.depth * DEPTH_GROWTH
        {
            score += 1;
        }
        self.depth += ALPHA * (depth - self.depth);

        let observed = OverloadState::from_i64(i64::from(score));
        if observed >= self.state {
            // Upgrades (and confirmations) apply immediately.
            self.state = observed;
            self.calm_ticks = 0;
        } else {
            self.calm_ticks += 1;
            if self.calm_ticks >= CALM_TICKS {
                self.state = OverloadState::from_i64(self.state.as_i64() - 1);
                self.calm_ticks = 0;
            }
        }
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TICK_NS: u64 = 1_000_000;

    /// The sample one nominal tick after `prev` on one worker, with the
    /// given deltas (10 µs grain, admission capacity 100).
    fn after(prev: &Sample, steals: u64, executed: u64, idle_ns: u64, pending: i64) -> Sample {
        Sample {
            now_ns: prev.now_ns + TICK_NS,
            steals: prev.steals + steals,
            executed: prev.executed + executed,
            exec_ns: prev.exec_ns + executed * 10_000,
            idle_ns: prev.idle_ns + idle_ns,
            live_workers: 1,
            pending,
            capacity: 100,
        }
    }

    /// A calm tick: busy executing, few steals, 10 % idle, a small backlog.
    fn calm(prev: &Sample) -> Sample {
        after(prev, 2, 200, 100_000, 4)
    }

    /// A quiet tick: no backlog, mostly idle.
    fn quiet(prev: &Sample) -> Sample {
        after(prev, 1, 100, 800_000, 0)
    }

    /// A storm tick: steals ≫ executions.
    fn storm(prev: &Sample) -> Sample {
        after(prev, 10_000, 100, 100_000, 4)
    }

    fn warm_up(d: &mut Detector, log: &AnomalyLog, ticks: u32) -> Sample {
        let mut s = Sample::default();
        for _ in 0..ticks {
            s = calm(&s);
            assert_eq!(d.tick(s, log), OverloadState::Normal);
        }
        s
    }

    #[test]
    fn calm_stream_raises_nothing_and_stays_normal() {
        let mut d = Detector::default();
        let log = AnomalyLog::new(16);
        let mut s = warm_up(&mut d, &log, 20);
        for _ in 0..10 {
            s = quiet(&s);
            assert_eq!(d.tick(s, &log), OverloadState::Normal);
        }
        assert_eq!(log.total(), 0);
    }

    #[test]
    fn saturated_pending_is_overloaded_immediately() {
        let mut d = Detector::default();
        let log = AnomalyLog::new(16);
        let s = Sample::default();
        d.tick(s, &log); // prime
                         // At capacity; idle is fine — depth alone must suffice.
        assert_eq!(
            d.tick(after(&s, 0, 0, 900_000, 100), &log),
            OverloadState::Overloaded
        );
    }

    #[test]
    fn growth_toward_capacity_elevates() {
        let mut d = Detector::default();
        let log = AnomalyLog::new(16);
        let s = Sample::default();
        d.tick(s, &log); // prime: depth baseline 0
                         // ≥ capacity/2 and far above the baseline, no idle collapse.
        assert_eq!(
            d.tick(after(&s, 0, 10, 500_000, 60), &log),
            OverloadState::Elevated
        );
    }

    #[test]
    fn steal_storm_plus_idle_collapse_is_overloaded() {
        let mut d = Detector::default();
        let log = AnomalyLog::new(16);
        let mut s = Sample::default();
        d.tick(s, &log);
        // Admission off (depth scoring disabled): workers execute little,
        // steal a lot, and report < 2 % idle time while a backlog exists.
        s = after(&s, 500, 10, 1_000, 10);
        s.capacity = 0;
        assert_eq!(d.tick(s, &log), OverloadState::Overloaded);
        assert_eq!(log.count(AnomalyKind::StealStorm), 1);
    }

    /// Regression: one batch steal of 4 tasks against 1 execution in a
    /// quiet tick is a ratio of 4 over a zero baseline, but 4 steals are
    /// noise, not a storm.
    #[test]
    fn a_lone_batch_steal_in_a_quiet_tick_stays_normal() {
        let mut d = Detector::default();
        let log = AnomalyLog::new(16);
        let s = Sample::default();
        d.tick(s, &log);
        assert_eq!(
            d.tick(after(&s, 4, 1, 990_000, 0), &log),
            OverloadState::Normal
        );
        assert_eq!(log.total(), 0);
    }

    #[test]
    fn downgrade_needs_sustained_calm() {
        let mut d = Detector::default();
        let log = AnomalyLog::new(16);
        let mut s = Sample::default();
        d.tick(s, &log);
        s = after(&s, 0, 0, 0, 100);
        assert_eq!(d.tick(s, &log), OverloadState::Overloaded);
        // One step down per two calm ticks.
        for expected in [
            OverloadState::Overloaded,
            OverloadState::Elevated,
            OverloadState::Elevated,
            OverloadState::Normal,
        ] {
            s = quiet(&s);
            assert_eq!(d.tick(s, &log), expected);
        }
    }

    #[test]
    fn encoding_round_trips() {
        for st in [
            OverloadState::Normal,
            OverloadState::Elevated,
            OverloadState::Overloaded,
        ] {
            assert_eq!(OverloadState::from_i64(st.as_i64()), st);
        }
        assert_eq!(OverloadState::from_i64(99), OverloadState::Overloaded);
    }

    #[test]
    fn sustained_steal_storm_is_one_episode_and_one_elevation() {
        let mut d = Detector::default();
        let log = AnomalyLog::new(16);
        let mut s = warm_up(&mut d, &log, 10);
        // The verdict and the episode come from the same predicate.
        for _ in 0..5 {
            s = storm(&s);
            assert_eq!(d.tick(s, &log), OverloadState::Elevated);
        }
        assert_eq!(log.count(AnomalyKind::StealStorm), 1, "one episode");
        assert_eq!(log.total(), 1);
        let ev = log.events()[0];
        assert_eq!(ev.kind, AnomalyKind::StealStorm);
        assert!(ev.value > ev.baseline * STORM_FACTOR);
        // After the storm clears, a second storm is a second episode.
        for _ in 0..4 {
            s = calm(&s);
            d.tick(s, &log);
        }
        assert_eq!(d.tick(storm(&s), &log), OverloadState::Elevated);
        assert_eq!(log.count(AnomalyKind::StealStorm), 2);
    }

    #[test]
    fn baseline_freezes_during_episode() {
        let mut d = Detector::default();
        let log = AnomalyLog::new(16);
        let mut s = warm_up(&mut d, &log, 10);
        let baseline_before = d.steal_ratio.baseline;
        for _ in 0..50 {
            s = storm(&s);
            d.tick(s, &log);
        }
        assert_eq!(
            d.steal_ratio.baseline, baseline_before,
            "a 50-tick storm must not teach the baseline that storms are normal"
        );
        assert_eq!(log.count(AnomalyKind::StealStorm), 1);
    }

    #[test]
    fn grain_collapse_fires_once_per_episode() {
        let mut d = Detector::default();
        let log = AnomalyLog::new(16);
        let mut s = warm_up(&mut d, &log, 10); // baseline grain 10µs
        for _ in 0..4 {
            // Grain collapses to 200ns — 50× below baseline.
            s = after(&s, 2, 5_000, 100_000, 4);
            s.exec_ns -= 5_000 * (10_000 - 200);
            d.tick(s, &log);
        }
        assert_eq!(log.count(AnomalyKind::GranularityCollapse), 1);
        let ev = log.events()[0];
        assert!(ev.value * COLLAPSE_FACTOR < ev.baseline);
    }

    #[test]
    fn collapse_needs_warmed_baseline() {
        let mut d = Detector::default();
        let log = AnomalyLog::new(16);
        let mut s = Sample::default();
        // Fine-grained from the first tick: no baseline to collapse from.
        for _ in 0..10 {
            s = after(&s, 0, 5_000, 100_000, 0);
            s.exec_ns -= 5_000 * (10_000 - 200);
            d.tick(s, &log);
        }
        assert_eq!(log.count(AnomalyKind::GranularityCollapse), 0);
    }

    #[test]
    fn idle_spike_requires_backlog() {
        let mut d = Detector::default();
        let log = AnomalyLog::new(16);
        let mut s = warm_up(&mut d, &log, 10); // baseline idle 10%
        for _ in 0..3 {
            // Near-total idleness with no pending work: not an anomaly
            // (the runtime is simply quiet).
            s = after(&s, 0, 0, 990_000, 0);
            d.tick(s, &log);
        }
        assert_eq!(log.count(AnomalyKind::IdleSpike), 0);
        // The same idleness with a backlog is starvation.
        d.tick(after(&s, 0, 0, 990_000, 50), &log);
        assert_eq!(log.count(AnomalyKind::IdleSpike), 1);
    }

    /// Regression: a tick that ran 3× late carries 3× the deltas. Measured
    /// against the nominal interval, 40 % idle reads as 100 % (a false
    /// spike) and 1.5 % as 4.5 % (a hidden collapse); measured against the
    /// elapsed time, both ticks read like their on-time twins.
    #[test]
    fn a_late_tick_is_measured_against_the_time_it_covered() {
        let late = |prev: &Sample, idle_ns: u64| {
            let mut s = after(prev, 6, 600, 3 * idle_ns, 4);
            s.now_ns = prev.now_ns + 3 * TICK_NS;
            s
        };
        let mut d = Detector::default();
        let log = AnomalyLog::new(16);
        let s = warm_up(&mut d, &log, 10); // baseline idle 10%
        assert_eq!(d.tick(late(&s, 400_000), &log), OverloadState::Normal);
        assert_eq!(log.total(), 0, "40 % idle is no spike, however late");

        let mut on_time = Detector::default();
        let mut delayed = Detector::default();
        let s = warm_up(&mut on_time, &log, 10);
        warm_up(&mut delayed, &log, 10);
        assert_eq!(
            delayed.tick(late(&s, 15_000), &log),
            on_time.tick(after(&s, 2, 200, 15_000, 4), &log),
        );
        assert_eq!(delayed.state, OverloadState::Elevated, "idle collapse");
        assert_eq!(log.total(), 0);
    }

    #[test]
    fn log_is_bounded() {
        let log = AnomalyLog::new(3);
        for i in 0..10 {
            log.push(AnomalyEvent {
                kind: AnomalyKind::IdleSpike,
                at_ns: i,
                value: 1.0,
                baseline: 0.0,
            });
        }
        let events = log.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].at_ns, 7, "oldest evicted first");
        assert_eq!(log.count(AnomalyKind::IdleSpike), 10, "counts are exact");
    }
}
