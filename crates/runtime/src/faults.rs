//! Deterministic fault injection for chaos testing the runtime.
//!
//! A [`FaultPlan`] describes *which* faults to inject and *how often*
//! (rates in parts-per-million, with a hard cap per category); a
//! [`FaultInjector`] draws from a seeded splitmix64 stream and counts every
//! fault it actually injects, so tests can assert that the runtime's
//! `/runtime/health/*` counters match the injected counts **exactly**.
//!
//! Fault categories and where the runtime applies them:
//!
//! - **task panic** — at dispatch, a panic is raised and recovered before
//!   the task body runs (a transient fault followed by retry); the task
//!   still completes and `/runtime/health/recovered-tasks` increments.
//! - **worker kill** — after a task finishes, the worker loop panics; the
//!   thread-level supervisor re-enters the loop (the worker's deque is
//!   re-parented to the respawned loop) and
//!   `/runtime/health/restarts` increments.
//! - **worker stall** — before running a found task the worker sleeps
//!   for the watchdog's stall threshold plus four of its intervals
//!   (580 ms), freezing its heartbeat; the watchdog records the episode in
//!   `/runtime/health/stalls`.
//! - **counter-read failure** — a counter registered through
//!   [`register_flaky_counter`] panics on evaluation; the sampler must
//!   recover and keep sampling the remaining counters.
//!
//! Plans come from the builder API (`faults` on
//! [`RuntimeConfig`](crate::RuntimeConfig)) or from `RPX_FAULT_*` environment variables
//! (see [`FaultPlan::from_env`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rpx_counters::CounterRegistry;

use crate::watchdog::{STALL_THRESHOLD, WATCHDOG_INTERVAL};

/// Synthetic steals added per storming watchdog tick by an injected steal
/// storm — far above any plausible per-tick steal rate, so the anomaly
/// detector's ratio test trips regardless of real workload activity.
pub const STEAL_STORM_PER_TICK: u64 = 10_000;

/// How long an injected stall sleeps: the watchdog's stall threshold plus
/// four of its intervals. Two intervals are the most the watchdog can lag
/// (the tick that first sees the stalled heartbeat comes up to one
/// interval after the stall starts, and the tick that finds it static
/// past the threshold up to one more); the other two absorb a watchdog
/// thread that wakes late on a loaded host. So every injected stall is
/// counted, once.
const INJECTED_STALL: Duration =
    STALL_THRESHOLD.saturating_add(WATCHDOG_INTERVAL.saturating_mul(4));

/// Panic payload used by every injected fault, so tests and panic hooks
/// can tell injected unwinds from real bugs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault(pub &'static str);

impl std::fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected fault: {}", self.0)
    }
}

/// What to inject and how often. Rates are per-million per opportunity
/// (one opportunity = one task dispatch, task completion, or counter
/// read); `max_per_category` bounds every category so chaos runs stay
/// finite and assertable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the deterministic draw stream.
    pub seed: u64,
    /// Probability (ppm) a dispatched task suffers a recovered panic.
    pub task_panic_ppm: u32,
    /// Probability (ppm) the worker loop panics after a task completes.
    pub worker_kill_ppm: u32,
    /// Probability (ppm) a worker stalls, for long enough that the
    /// watchdog counts it, before running a found task.
    pub stall_ppm: u32,
    /// Probability (ppm) a flaky counter read fails.
    pub counter_fail_ppm: u32,
    /// Inject a synthetic steal storm for this many initial watchdog
    /// ticks: the watchdog adds a large fake steal count to the anomaly
    /// detector's signals each of those ticks, which must open exactly one
    /// steal-storm episode (`/runtime/anomaly/steal-storms`). Deterministic
    /// — no ppm draw — so chaos tests can assert the episode count exactly.
    pub steal_storm_ticks: u32,
    /// Hard cap on injections per category.
    pub max_per_category: u64,
}

/// Seed used when no explicit seed is given: `RPX_TEST_SEED` if set (the
/// workspace-wide deterministic-test knob, shared with the proptest shim
/// and the model checker), else a fixed constant.
fn default_seed() -> u64 {
    parse_u64_var("RPX_TEST_SEED").unwrap_or(0x5eed)
}

fn parse_u64_var(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    let v = raw.trim();
    let parsed = v
        .strip_prefix("0x")
        .map(|h| u64::from_str_radix(h, 16).ok())
        .unwrap_or_else(|| v.parse().ok());
    if parsed.is_none() {
        eprintln!("rpx: ignoring unparseable {name}={raw:?} (want decimal or 0x-hex)");
    }
    parsed
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: default_seed(),
            task_panic_ppm: 0,
            worker_kill_ppm: 0,
            stall_ppm: 0,
            counter_fail_ppm: 0,
            steal_storm_ticks: 0,
            max_per_category: u64::MAX,
        }
    }
}

/// The complete set of recognized `RPX_FAULT_*` variables. Anything else
/// with that prefix is a misspelling and gets rejected, not ignored.
pub const KNOWN_FAULT_VARS: [&str; 7] = [
    "RPX_FAULT_SEED",
    "RPX_FAULT_TASK_PANIC_PPM",
    "RPX_FAULT_WORKER_KILL_PPM",
    "RPX_FAULT_STALL_PPM",
    "RPX_FAULT_COUNTER_FAIL_PPM",
    "RPX_FAULT_STEAL_STORM_TICKS",
    "RPX_FAULT_MAX",
];

/// `RPX_FAULT_*`-prefixed environment variables that are not recognized
/// knobs. A silently-ignored misspelling (`RPX_FAULT_TASK_PANICS_PPM`)
/// would run the chaos suite with injection quietly disabled — the error
/// names every offender and lists the valid knobs so the fix is obvious.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownFaultVars(pub Vec<String>);

impl std::fmt::Display for UnknownFaultVars {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown fault-injection variable(s): {}; valid knobs are: {}",
            self.0.join(", "),
            KNOWN_FAULT_VARS.join(", ")
        )
    }
}

impl std::error::Error for UnknownFaultVars {}

impl FaultPlan {
    /// Read a plan from `RPX_FAULT_*` environment variables; `Ok(None)`
    /// when no fault variable is set (the common case — injection fully
    /// disabled). Any `RPX_FAULT_`-prefixed variable outside the table
    /// below is an error, so a misspelled knob fails loudly instead of
    /// silently running the chaos suite with that fault disabled.
    ///
    /// | Variable | Meaning | Default |
    /// |---|---|---|
    /// | `RPX_FAULT_SEED` | draw-stream seed | `RPX_TEST_SEED`, else `0x5eed` |
    /// | `RPX_FAULT_TASK_PANIC_PPM` | recovered task panics (ppm) | 0 |
    /// | `RPX_FAULT_WORKER_KILL_PPM` | worker-loop kills (ppm) | 0 |
    /// | `RPX_FAULT_STALL_PPM` | worker stalls (ppm) | 0 |
    /// | `RPX_FAULT_COUNTER_FAIL_PPM` | counter-read failures (ppm) | 0 |
    /// | `RPX_FAULT_STEAL_STORM_TICKS` | synthetic steal-storm watchdog ticks | 0 |
    /// | `RPX_FAULT_MAX` | cap per category | unlimited |
    pub fn from_env() -> Result<Option<Self>, UnknownFaultVars> {
        let mut unknown: Vec<String> = std::env::vars_os()
            .filter_map(|(name, _)| {
                let name = name.to_string_lossy().into_owned();
                (name.starts_with("RPX_FAULT_") && !KNOWN_FAULT_VARS.contains(&name.as_str()))
                    .then_some(name)
            })
            .collect();
        if !unknown.is_empty() {
            unknown.sort();
            return Err(UnknownFaultVars(unknown));
        }
        // One value per `KNOWN_FAULT_VARS` row, in the table's order.
        let values = KNOWN_FAULT_VARS.map(parse_u64_var);
        if values.iter().all(Option::is_none) {
            return Ok(None);
        }
        let [seed, task_panic, worker_kill, stall, counter_fail, steal_storm, max] = values;
        Ok(Some(FaultPlan {
            seed: seed.unwrap_or_else(default_seed),
            task_panic_ppm: task_panic.unwrap_or(0) as u32,
            worker_kill_ppm: worker_kill.unwrap_or(0) as u32,
            stall_ppm: stall.unwrap_or(0) as u32,
            counter_fail_ppm: counter_fail.unwrap_or(0) as u32,
            steal_storm_ticks: steal_storm.unwrap_or(0) as u32,
            max_per_category: max.unwrap_or(u64::MAX),
        }))
    }

    /// Whether any category can fire at all.
    pub fn is_active(&self) -> bool {
        ((self.task_panic_ppm
            | self.worker_kill_ppm
            | self.stall_ppm
            | self.counter_fail_ppm
            | self.steal_storm_ticks)
            != 0)
            && self.max_per_category > 0
    }
}

/// Draws faults from a seeded stream and counts every injection.
///
/// Each category draws from its own stream: outcome of draw `i` of a
/// category is a pure function of (seed, category, i), so one category's
/// activity never perturbs another's and a run with the same per-category
/// draw counts injects the same faults. The assignment of draws to tasks
/// depends on scheduling, but the *counts* the chaos tests assert on are
/// exact by construction: each `inject_*` method increments its category
/// counter if and only if it tells the caller to inject.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    task_panics: Category,
    worker_kills: Category,
    stalls: Category,
    counter_fails: Category,
}

/// One fault category's draw stream and injection count.
#[derive(Debug, Default)]
struct Category {
    draws: AtomicU64,
    injected: AtomicU64,
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of the most recently constructed *active* injector, for the
/// panic-hook repro line. `u64::MAX` doubles as "none recorded" — plans
/// never draw from that seed in practice (the default is `0x5eed`).
static ACTIVE_SEED: AtomicU64 = AtomicU64::new(u64::MAX);

/// Wrap the current panic hook with a filter that swallows [`InjectedFault`]
/// payloads. Injected faults unwind through `panic_any` thousands of times in
/// a chaos run; without the filter the default hook floods stderr with a
/// backtrace per injection (~1M lines for a fib(23) run at 8% ppm). Real
/// panics still reach the previous hook untouched, prefixed with a one-line
/// reproduction command naming the injection seed — a chaos-test failure is
/// only replayable if the seed that produced the fault schedule is known.
fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedFault>().is_none() {
                let seed = ACTIVE_SEED.load(Ordering::Relaxed);
                if seed != u64::MAX {
                    eprintln!(
                        "rpx: fault injection active (seed {seed:#x}) — reproduce with: \
                         RPX_TEST_SEED={seed:#x} cargo test <failing test>"
                    );
                }
                previous(info);
            }
        }));
    });
}

impl FaultInjector {
    /// Injector for the given plan. Installs a process-wide panic-hook
    /// filter (once) so injected unwinds don't spam stderr.
    pub fn new(plan: FaultPlan) -> Arc<Self> {
        silence_injected_panics();
        if plan.is_active() {
            ACTIVE_SEED.store(plan.seed, Ordering::Relaxed);
        }
        Arc::new(FaultInjector {
            plan,
            task_panics: Category::default(),
            worker_kills: Category::default(),
            stalls: Category::default(),
            counter_fails: Category::default(),
        })
    }

    /// The plan this injector draws from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    fn roll(&self, ppm: u32, cat: &Category, salt: u64) -> bool {
        if ppm == 0 {
            return false;
        }
        let draw = cat.draws.fetch_add(1, Ordering::Relaxed);
        let key = splitmix64(self.plan.seed ^ salt).wrapping_add(draw);
        if splitmix64(key) % 1_000_000 >= u64::from(ppm) {
            return false;
        }
        // Count under the cap atomically so concurrent rolls cannot
        // overshoot — the counter is the ground truth tests compare with.
        cat.injected
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
                (c < self.plan.max_per_category).then_some(c + 1)
            })
            .is_ok()
    }

    /// Should this dispatch suffer a recovered task panic?
    pub fn inject_task_panic(&self) -> bool {
        self.roll(self.plan.task_panic_ppm, &self.task_panics, 1)
    }

    /// Should the worker loop panic now (task already completed)?
    pub fn inject_worker_kill(&self) -> bool {
        self.roll(self.plan.worker_kill_ppm, &self.worker_kills, 2)
    }

    /// Should the worker stall, and for how long (580 ms: the watchdog's
    /// stall threshold plus four of its intervals)?
    pub fn inject_stall(&self) -> Option<Duration> {
        self.roll(self.plan.stall_ppm, &self.stalls, 3)
            .then_some(INJECTED_STALL)
    }

    /// Should this flaky-counter read fail?
    pub fn inject_counter_fail(&self) -> bool {
        self.roll(self.plan.counter_fail_ppm, &self.counter_fails, 4)
    }

    /// Cumulative *synthetic* steals the watchdog folds into the anomaly
    /// detector's steal signal as of its `tick`-th sample (0-based): each
    /// of the first `steal_storm_ticks` ticks contributes
    /// [`STEAL_STORM_PER_TICK`] fake steals, so the per-tick delta is a
    /// storm for exactly that many consecutive ticks and zero afterwards —
    /// one episode, deterministically.
    pub fn steal_storm_steals(&self, tick: u64) -> u64 {
        u64::from(self.plan.steal_storm_ticks).min(tick) * STEAL_STORM_PER_TICK
    }

    /// Recovered task panics injected so far.
    pub fn task_panics(&self) -> u64 {
        self.task_panics.injected.load(Ordering::Relaxed)
    }

    /// Worker-loop kills injected so far.
    pub fn worker_kills(&self) -> u64 {
        self.worker_kills.injected.load(Ordering::Relaxed)
    }

    /// Worker stalls injected so far.
    pub fn stalls(&self) -> u64 {
        self.stalls.injected.load(Ordering::Relaxed)
    }

    /// Counter-read failures injected so far.
    pub fn counter_fails(&self) -> u64 {
        self.counter_fails.injected.load(Ordering::Relaxed)
    }
}

/// Register a raw counter at `type_path` that panics on evaluation whenever
/// the injector says so — the chaos suite points the counter
/// sampler (`rpx_counters::sampler::Sampler`) at it to prove sampling survives
/// counter-read failures.
pub fn register_flaky_counter(
    registry: &Arc<CounterRegistry>,
    injector: &Arc<FaultInjector>,
    type_path: &str,
) {
    let injector = injector.clone();
    registry.register_raw(
        type_path,
        "fault-injection test counter; reads fail on injector demand",
        "1",
        Arc::new(move || {
            if injector.inject_counter_fail() {
                std::panic::panic_any(InjectedFault("counter-read"));
            }
            1
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_never_fires() {
        let inj = FaultInjector::new(FaultPlan::default());
        for _ in 0..1000 {
            assert!(!inj.inject_task_panic());
            assert!(inj.inject_stall().is_none());
        }
        assert_eq!(inj.task_panics(), 0);
    }

    #[test]
    fn counts_match_injections_exactly() {
        let plan = FaultPlan {
            task_panic_ppm: 500_000,
            ..FaultPlan::default()
        };
        let inj = FaultInjector::new(plan);
        let mut fired = 0u64;
        for _ in 0..1000 {
            if inj.inject_task_panic() {
                fired += 1;
            }
        }
        assert!(fired > 0);
        assert_eq!(inj.task_panics(), fired);
    }

    #[test]
    fn cap_bounds_each_category() {
        let plan = FaultPlan {
            worker_kill_ppm: 1_000_000,
            max_per_category: 3,
            ..FaultPlan::default()
        };
        let inj = FaultInjector::new(plan);
        let fired = (0..100).filter(|_| inj.inject_worker_kill()).count();
        assert_eq!(fired, 3);
        assert_eq!(inj.worker_kills(), 3);
    }

    #[test]
    fn same_seed_same_stream() {
        let plan = FaultPlan {
            stall_ppm: 250_000,
            ..FaultPlan::default()
        };
        let a = FaultInjector::new(plan.clone());
        let b = FaultInjector::new(plan);
        let va: Vec<bool> = (0..200).map(|_| a.inject_stall().is_some()).collect();
        let vb: Vec<bool> = (0..200).map(|_| b.inject_stall().is_some()).collect();
        assert_eq!(va, vb);
        assert!(va.iter().any(|&x| x));
    }

    #[test]
    fn env_plan_round_trips() {
        // Serialized access: env vars are process-global, so every
        // RPX_FAULT_*/RPX_TEST_SEED assertion lives in this one test.
        assert_eq!(FaultPlan::from_env().unwrap(), None, "no vars → no plan");

        std::env::set_var("RPX_FAULT_TASK_PANIC_PPM", "1234");
        let plan = FaultPlan::from_env().unwrap().expect("plan when vars set");
        assert_eq!(plan.task_panic_ppm, 1234);

        // RPX_TEST_SEED seeds the draw stream unless RPX_FAULT_SEED
        // overrides it.
        std::env::set_var("RPX_TEST_SEED", "0xabc123");
        assert_eq!(FaultPlan::default().seed, 0xabc123);
        let plan = FaultPlan::from_env().unwrap().expect("plan when vars set");
        assert_eq!(plan.seed, 0xabc123);
        std::env::set_var("RPX_FAULT_SEED", "0x77");
        let plan = FaultPlan::from_env().unwrap().expect("plan when vars set");
        assert_eq!(plan.seed, 0x77);
        std::env::remove_var("RPX_FAULT_SEED");
        std::env::remove_var("RPX_TEST_SEED");

        // Unknown RPX_FAULT_* keys are rejected, not ignored: a misspelled
        // knob silently disabling injection is exactly the failure mode a
        // chaos suite cannot afford.
        // The stall length is derived from the watchdog's timing, so
        // `RPX_FAULT_STALL_MS` is not a knob either.
        std::env::set_var("RPX_FAULT_TASK_PANICS_PPM", "5"); // misspelled
        std::env::set_var("RPX_FAULT_WORKER_KILLS", "1"); // misspelled
        std::env::set_var("RPX_FAULT_STALL_MS", "77"); // removed
        let err = FaultPlan::from_env().expect_err("unknown keys must error");
        assert_eq!(
            err.0,
            vec![
                "RPX_FAULT_STALL_MS".to_string(),
                "RPX_FAULT_TASK_PANICS_PPM".to_string(),
                "RPX_FAULT_WORKER_KILLS".to_string(),
            ],
            "error must name every offender, sorted"
        );
        let msg = err.to_string();
        assert!(
            msg.contains("RPX_FAULT_TASK_PANICS_PPM"),
            "names offender: {msg}"
        );
        for knob in KNOWN_FAULT_VARS {
            assert!(msg.contains(knob), "lists valid knob {knob}: {msg}");
        }
        std::env::remove_var("RPX_FAULT_WORKER_KILLS");
        std::env::remove_var("RPX_FAULT_STALL_MS");
        // One unknown key rejects even with valid keys also present.
        let err = FaultPlan::from_env().expect_err("mixed valid+unknown must error");
        assert_eq!(err.0, vec!["RPX_FAULT_TASK_PANICS_PPM".to_string()]);
        std::env::remove_var("RPX_FAULT_TASK_PANICS_PPM");
        assert!(FaultPlan::from_env().is_ok(), "valid-only env parses again");

        std::env::remove_var("RPX_FAULT_TASK_PANIC_PPM");
    }
}
