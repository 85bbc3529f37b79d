//! Worker watchdog: a [`TickLoop`] tick that heartbeats the workers,
//! records stall episodes into the `/runtime/health/stalls` counter, and
//! feeds the [signal detector](crate::signals) one ledger reading per tick.
//!
//! Every worker bumps its shard's [`heartbeat`](crate::stats::Shard)
//! once per scheduling-loop iteration, once per work-helping iteration and
//! once per join that runs its child inline — and from nowhere else inside
//! task bodies. The tick samples the heartbeats
//! every [`WATCHDOG_INTERVAL`]: a heartbeat that stays static for longer than
//! [`STALL_THRESHOLD`] while the runtime has live or pending work means the
//! worker is wedged inside a task (a stall). Each episode is counted once
//! (the flag clears when the heartbeat moves again), and the watchdog wakes
//! the sleeping workers so the stalled worker's queued tasks get stolen
//! rather than waiting it out. Retired workers (tripped restart breaker)
//! are skipped — their heartbeat is frozen by design.
//!
//! Worker *panics* are handled one level up: the thread-level supervisor
//! loop in [`Runtime::new`](crate::Runtime::new) catches a panic escaping
//! the worker loop and consults the [`RestartPolicy`] token bucket defined
//! here: within budget, the worker backs off exponentially and re-enters
//! the loop on the same thread (the deque was re-parked during the unwind,
//! so no queued task is lost); an exhausted budget trips the circuit
//! breaker — the worker retires, its deque re-parents into the injector,
//! and effective parallelism shrinks instead of crash-looping.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};
use std::time::Duration;

use rpx_counters::sampler::TickLoop;

use crate::runtime::{RuntimeConfig, RuntimeInner, RuntimeState};
use crate::signals::{Detector, Sample};
use crate::stats::Snapshot;

/// How often the watchdog samples worker heartbeats.
pub(crate) const WATCHDOG_INTERVAL: Duration = Duration::from_millis(20);
/// How long a heartbeat may stay static (while work is live or pending)
/// before the watchdog counts a stall episode.
pub(crate) const STALL_THRESHOLD: Duration = Duration::from_millis(500);
/// Token-bucket refill window for the restart budget; also the calm
/// period after which the consecutive-crash backoff resets.
const RESTART_WINDOW: Duration = Duration::from_secs(10);
/// Backoff before the first respawn of a crash streak; doubles per
/// consecutive crash up to [`RESTART_BACKOFF_MAX`].
const RESTART_BACKOFF: Duration = Duration::from_millis(1);
/// Ceiling of the restart backoff; also the backoff of a sole surviving
/// worker that keeps crashing past its budget.
pub(crate) const RESTART_BACKOFF_MAX: Duration = Duration::from_millis(100);

/// Token-bucket restart budget + exponential backoff parameters (the
/// constants above plus the [`RuntimeConfig::restart_budget`] knob; one
/// copy per worker supervisor).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RestartPolicy {
    /// Maximum respawns per `window` (bucket capacity and refill amount).
    pub budget: u32,
    /// Refill window; also the calm period that resets the consecutive-
    /// crash backoff.
    pub window: Duration,
    /// Backoff before the first respawn of a crash streak.
    pub backoff: Duration,
    /// Backoff ceiling (the exponential doubling stops here).
    pub backoff_max: Duration,
}

impl RestartPolicy {
    pub fn from_config(config: &RuntimeConfig) -> Self {
        RestartPolicy {
            budget: config.restart_budget.max(1),
            window: RESTART_WINDOW,
            backoff: RESTART_BACKOFF,
            backoff_max: RESTART_BACKOFF_MAX,
        }
    }
}

/// What the supervisor must do about a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RestartVerdict {
    /// Respawn after `backoff` (a token was available).
    Respawn { backoff: Duration },
    /// Budget exhausted: trip the breaker and retire the worker.
    Trip,
}

/// Per-worker restart accounting: a continuously-refilling token bucket
/// plus a consecutive-crash counter driving the exponential backoff. Pure
/// logic (the caller supplies the registry clock's `now_ns`), so it unit
/// tests deterministically.
pub(crate) struct RestartState {
    policy: RestartPolicy,
    /// Fractional tokens available; starts full.
    tokens: f64,
    /// Crashes since the last calm period (> window without a crash).
    consecutive: u32,
    /// Clock time of the previous crash (None before the first).
    last_crash_ns: Option<u64>,
}

impl RestartState {
    pub fn new(policy: RestartPolicy) -> Self {
        RestartState {
            policy,
            tokens: policy.budget as f64,
            consecutive: 0,
            last_crash_ns: None,
        }
    }

    /// Account one crash at `now_ns` and decide the worker's fate.
    pub fn on_crash(&mut self, now_ns: u64) -> RestartVerdict {
        let budget = self.policy.budget as f64;
        if let Some(last_ns) = self.last_crash_ns {
            let elapsed = Duration::from_nanos(now_ns.saturating_sub(last_ns));
            // Continuous refill at budget/window, capped at the budget.
            let refill = budget * elapsed.as_secs_f64() / self.policy.window.as_secs_f64();
            self.tokens = (self.tokens + refill).min(budget);
            if elapsed > self.policy.window {
                // A full calm window resets the crash streak.
                self.consecutive = 0;
            }
        }
        self.last_crash_ns = Some(now_ns);
        if self.tokens < 1.0 {
            return RestartVerdict::Trip;
        }
        self.tokens -= 1.0;
        self.consecutive = self.consecutive.saturating_add(1);
        let doubled = self
            .policy
            .backoff
            .saturating_mul(1u32 << (self.consecutive - 1).min(16));
        RestartVerdict::Respawn {
            backoff: doubled.min(self.policy.backoff_max),
        }
    }
}

/// Per-worker stall-observation state.
struct Watch {
    /// Last heartbeat value seen.
    heartbeat: u64,
    /// Registry-clock time that value was first seen.
    since_ns: u64,
    /// Whether the current static stretch was already counted as a stall.
    in_stall: bool,
}

/// Start the watchdog for `inner`: first tick one interval in, then every
/// [`WATCHDOG_INTERVAL`] until the returned loop is stopped or dropped.
pub(crate) fn spawn(inner: &Arc<RuntimeInner>) -> TickLoop {
    let weak: Weak<RuntimeInner> = Arc::downgrade(inner);
    let interval = WATCHDOG_INTERVAL;
    let threshold_ns = STALL_THRESHOLD.as_nanos() as u64;
    // The registry clock's TSC drift cross-check rides the watchdog tick
    // (the Clock holds no back-reference, so this keeps nothing alive).
    let clock = inner.registry.clock();
    let mut watches: Vec<Watch> = Vec::new();
    let mut detector = Detector::default();
    let mut tick: u64 = 0;
    TickLoop::spawn("rpx-watchdog", clock.clone(), interval, move |now_ns| {
        let Some(inner) = weak.upgrade() else {
            return interval;
        };
        // The signals and the stall check below see the tick's one stamp
        // and one ledger reading.
        let snap = observe(&inner.state, &mut detector, tick, now_ns);
        // Clock hygiene: cross-check the TSC fast path and re-derive its
        // multiplier on drift, so long runs don't accumulate skew in every
        // duration counter (counter.rs documents the policy; cheap no-op
        // while the run is younger than the minimum observation window).
        clock.check_drift();
        tick += 1;
        if watches.len() != snap.heartbeats.len() {
            watches = snap
                .heartbeats
                .iter()
                .map(|h| Watch {
                    heartbeat: h.unwrap_or(0),
                    since_ns: now_ns,
                    in_stall: false,
                })
                .collect();
            return interval;
        }
        // Only a static heartbeat *while work exists* is a stall —
        // parked idle workers still beat every park timeout, so
        // this mostly guards against miscounting during startup.
        let busy = snap.flow.live() > 0;
        for (index, (watch, heartbeat)) in watches.iter_mut().zip(&snap.heartbeats).enumerate() {
            // A retired worker's heartbeat is frozen forever; not a stall.
            let Some(heartbeat) = *heartbeat else {
                continue;
            };
            if heartbeat != watch.heartbeat {
                watch.heartbeat = heartbeat;
                watch.since_ns = now_ns;
                watch.in_stall = false;
            } else if busy
                && !watch.in_stall
                && now_ns.saturating_sub(watch.since_ns) >= threshold_ns
            {
                watch.in_stall = true;
                inner.state.ledger.worker(index).note_stall();
                // Kick sleepers so the stalled worker's queued tasks
                // get stolen instead of waiting the stall out.
                inner.scheduler.wake_all();
            }
        }
        interval
    })
    .expect("failed to spawn watchdog thread")
}

/// One tick of observation: read the ledger once, hand the detector the
/// sample, publish its verdict (`/runtime/health/overload-state`; new
/// anomaly episodes land in `state.anomalies`) and return the reading for
/// the stall check. An injected steal storm
/// ([`FaultPlan::steal_storm_ticks`](crate::faults::FaultPlan)) adds
/// synthetic steals here — and only here, so the scheduler's real steal
/// counters stay truthful.
fn observe(state: &RuntimeState, detector: &mut Detector, tick: u64, now_ns: u64) -> Snapshot {
    let snap = state.ledger.snapshot();
    let injected_steals = state
        .faults
        .as_ref()
        .map_or(0, |f| f.steal_storm_steals(tick));
    let (pending, capacity) = match &state.gate {
        Some(gate) => (gate.pending(), gate.limits().0 as i64),
        None => (snap.flow.pending() as i64, 0),
    };
    let verdict = detector.tick(
        Sample {
            now_ns,
            steals: snap.steals + injected_steals,
            executed: snap.executed,
            exec_ns: snap.exec_ns,
            idle_ns: snap.idle_ns,
            live_workers: state.live_workers.load(Ordering::Acquire) as u64,
            pending,
            capacity,
        },
        &state.anomalies,
    );
    state
        .overload_state
        .store(verdict.as_i64(), Ordering::Release);
    snap
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultInjector, FaultPlan};
    use crate::signals::{AnomalyKind, OverloadState};

    /// An injected steal storm reaches the one storm predicate, so the
    /// overload verdict and the anomaly episode move together: Elevated
    /// for exactly the stormy ticks, one episode, and Normal again two
    /// calm ticks later.
    #[test]
    fn injected_steal_storm_moves_verdict_and_episode_together() {
        let plan = FaultPlan {
            steal_storm_ticks: 6,
            ..FaultPlan::default()
        };
        let clock = Arc::new(rpx_counters::counter::Clock::new());
        let state = RuntimeState::new(2, clock, Some(FaultInjector::new(plan)), None);
        let mut detector = Detector::default();
        let verdicts: Vec<i64> = (0..12)
            .map(|tick| {
                observe(&state, &mut detector, tick, tick * 10_000_000);
                state.overload_state.load(Ordering::Acquire)
            })
            .collect();
        let (normal, elevated) = (
            OverloadState::Normal.as_i64(),
            OverloadState::Elevated.as_i64(),
        );
        // Tick 0 primes; ticks 1–6 carry the injected steals; the verdict
        // steps down after two calm ticks.
        let mut expected = vec![normal];
        expected.extend([elevated; 6]);
        expected.extend([elevated, normal, normal, normal, normal]);
        assert_eq!(verdicts, expected);
        assert_eq!(state.anomalies.count(AnomalyKind::StealStorm), 1);
        assert_eq!(state.anomalies.total(), 1);
    }

    /// Milliseconds on the clock `on_crash` is fed from, in ns.
    fn ms(ms: u64) -> u64 {
        ms * 1_000_000
    }

    fn policy(budget: u32, window_ms: u64, backoff_ms: u64, max_ms: u64) -> RestartPolicy {
        RestartPolicy {
            budget,
            window: Duration::from_millis(window_ms),
            backoff: Duration::from_millis(backoff_ms),
            backoff_max: Duration::from_millis(max_ms),
        }
    }

    #[test]
    fn budget_allows_exactly_budget_respawns_then_trips() {
        let mut st = RestartState::new(policy(3, 60_000, 1, 8));
        let t0_ns = 7_000_000_000u64;
        for i in 0..3 {
            let v = st.on_crash(t0_ns + ms(i));
            assert!(
                matches!(v, RestartVerdict::Respawn { .. }),
                "crash {i} within budget must respawn"
            );
        }
        assert_eq!(
            st.on_crash(t0_ns + ms(3)),
            RestartVerdict::Trip,
            "crash budget+1 must trip the breaker"
        );
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut st = RestartState::new(policy(100, 60_000, 2, 10));
        let t0_ns = 7_000_000_000u64;
        let expected_ms = [2, 4, 8, 10, 10];
        for (i, want) in expected_ms.iter().enumerate() {
            match st.on_crash(t0_ns + ms(i as u64)) {
                RestartVerdict::Respawn { backoff } => {
                    assert_eq!(backoff, Duration::from_millis(*want), "crash {i}");
                }
                RestartVerdict::Trip => panic!("budget 100 must not trip"),
            }
        }
    }

    #[test]
    fn calm_window_resets_consecutive_backoff() {
        let mut st = RestartState::new(policy(100, 100, 2, 64));
        let t0_ns = 7_000_000_000u64;
        st.on_crash(t0_ns);
        st.on_crash(t0_ns + ms(1));
        st.on_crash(t0_ns + ms(2)); // backoff now 8ms
        let v = st.on_crash(t0_ns + ms(200)); // > window later
        assert_eq!(
            v,
            RestartVerdict::Respawn {
                backoff: Duration::from_millis(2)
            },
            "a calm window must reset the exponential backoff"
        );
    }

    #[test]
    fn tokens_refill_over_time() {
        let mut st = RestartState::new(policy(2, 100, 1, 1));
        let t0_ns = 7_000_000_000u64;
        assert!(matches!(st.on_crash(t0_ns), RestartVerdict::Respawn { .. }));
        assert!(matches!(
            st.on_crash(t0_ns + ms(1)),
            RestartVerdict::Respawn { .. }
        ));
        // Bucket empty; 1ms later it has refilled only 0.02 tokens.
        assert_eq!(st.on_crash(t0_ns + ms(2)), RestartVerdict::Trip);
        // After a full window the bucket is full again (sustained slow
        // crash rates below budget/window respawn forever).
        assert!(matches!(
            st.on_crash(t0_ns + ms(200)),
            RestartVerdict::Respawn { .. }
        ));
    }

    #[test]
    fn backoff_shift_saturates_on_long_streaks() {
        let mut st = RestartState::new(policy(u32::MAX, 60_000, 1, 5));
        let t0_ns = 7_000_000_000u64;
        for i in 0..40u64 {
            match st.on_crash(t0_ns + ms(i)) {
                RestartVerdict::Respawn { backoff } => {
                    assert!(
                        backoff <= Duration::from_millis(5),
                        "crash {i}: {backoff:?}"
                    )
                }
                RestartVerdict::Trip => panic!("unbounded budget must not trip"),
            }
        }
    }
}
