//! # rpx-apex — a runtime-adaptive policy engine on intrinsic counters
//!
//! The paper's conclusion (§VII) points at APEX: "a Policy Engine that
//! executes performance analysis functions to enforce policy rules" on top
//! of the counter framework, enabling runtime adaptation. This crate is
//! that extension, minimally and concretely:
//!
//! - a [`Tunable`] is a bounded numeric knob the application (or runtime)
//!   reads on its hot path;
//! - a [`Policy`] names a set of counters, a period, and a rule that turns
//!   fresh counter readings into knob adjustments;
//! - the [`PolicyEngine`] evaluates due policies on a background thread
//!   with the same evaluate/reset protocol the paper's measurements use,
//!   each policy reading through a private [`ScrapeEngine`].
//!
//! ```
//! use std::sync::Arc;
//! use std::sync::atomic::{AtomicI64, Ordering};
//! use rpx_counters::CounterRegistry;
//! use rpx_apex::{Policy, PolicyEngine, Tunable};
//!
//! let registry = CounterRegistry::new();
//! let load = Arc::new(AtomicI64::new(95));
//! let l2 = load.clone();
//! registry.register_raw("/app/load", "load percent", "%", Arc::new(move || l2.load(Ordering::Relaxed)));
//!
//! // Keep a parallelism knob proportional to measured load.
//! let knob = Tunable::new(4, 1, 16);
//! let k2 = knob.clone();
//! let policy = Policy::new("throttle", vec!["/app/load".into()])
//!     .with_period(std::time::Duration::from_millis(5))
//!     .with_rule(move |ctx| {
//!         if let Some(v) = ctx.value("/app/load") {
//!             if v > 90.0 { k2.step(-1); } else if v < 50.0 { k2.step(1); }
//!         }
//!     });
//!
//! let engine = PolicyEngine::start(&registry, vec![policy]).unwrap();
//! while knob.get() == 4 {
//!     std::thread::yield_now(); // wait for the first firing
//! }
//! engine.stop();
//! assert!(knob.get() < 4, "high load must throttle the knob");
//! ```

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rpx_counters::engine::{Batch, ScrapeEngine};
use rpx_counters::sampler::TickLoop;
use rpx_counters::{CounterError, CounterRegistry};

/// A bounded integer knob adjusted by policies and read on hot paths.
#[derive(Clone)]
pub struct Tunable {
    inner: Arc<TunableInner>,
}

struct TunableInner {
    value: AtomicI64,
    min: i64,
    max: i64,
    changes: AtomicU64,
}

impl Tunable {
    /// A knob starting at `initial`, clamped to `[min, max]`.
    pub fn new(initial: i64, min: i64, max: i64) -> Self {
        assert!(min <= max, "empty tunable range");
        Tunable {
            inner: Arc::new(TunableInner {
                value: AtomicI64::new(initial.clamp(min, max)),
                min,
                max,
                changes: AtomicU64::new(0),
            }),
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.inner.value.load(Ordering::Acquire)
    }

    /// Set (clamped). Returns the value actually stored.
    pub fn set(&self, v: i64) -> i64 {
        let clamped = v.clamp(self.inner.min, self.inner.max);
        if self.inner.value.swap(clamped, Ordering::AcqRel) != clamped {
            self.inner.changes.fetch_add(1, Ordering::Relaxed);
        }
        clamped
    }

    /// Add `delta` (clamped). Returns the new value.
    pub fn step(&self, delta: i64) -> i64 {
        self.set(self.get() + delta)
    }

    /// Multiply by `factor` (clamped; rounds to nearest).
    pub fn scale(&self, factor: f64) -> i64 {
        self.set((self.get() as f64 * factor).round() as i64)
    }

    /// How many times the stored value actually changed.
    pub fn changes(&self) -> u64 {
        self.inner.changes.load(Ordering::Relaxed)
    }

    /// The configured bounds.
    pub fn bounds(&self) -> (i64, i64) {
        (self.inner.min, self.inner.max)
    }
}

/// What a rule sees on each firing.
pub struct PolicyContext<'a> {
    /// The policy's counter readings for this period (evaluate-with-reset:
    /// each firing sees only its own interval); a failed read is not ok.
    pub batch: &'a Batch,
    /// How many times this policy has fired before (0 on the first firing).
    pub fires: u64,
}

impl PolicyContext<'_> {
    /// Scaled values of the valid readings whose name starts with `prefix`
    /// (readings are wildcard-expanded, so prefix match is the ergonomic
    /// lookup).
    fn values<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = f64> + 'a {
        self.batch
            .iter()
            .filter(move |(entry, sample)| sample.ok && entry.canonical.starts_with(prefix))
            .map(|(_, sample)| sample.value)
    }

    /// The scaled value of the first reading whose name starts with
    /// `prefix`. Returns `None` if absent or invalid.
    pub fn value(&self, prefix: &str) -> Option<f64> {
        self.values(prefix).next()
    }

    /// Sum of scaled values over readings starting with `prefix`.
    pub fn sum(&self, prefix: &str) -> f64 {
        self.values(prefix).sum()
    }
}

type Rule = Box<dyn FnMut(&PolicyContext<'_>) + Send>;

/// A named adaptation rule over a counter set.
pub struct Policy {
    name: String,
    counters: Vec<String>,
    period: Duration,
    reset_on_read: bool,
    rule: Option<Rule>,
}

impl Policy {
    /// A policy watching `counters` (wildcards allowed).
    pub fn new(name: impl Into<String>, counters: Vec<String>) -> Self {
        Policy {
            name: name.into(),
            counters,
            period: Duration::from_millis(100),
            reset_on_read: true,
            rule: None,
        }
    }

    /// Evaluation period (default 100 ms).
    pub fn with_period(mut self, period: Duration) -> Self {
        self.period = period;
        self
    }

    /// Whether each firing resets the counters (default true: per-interval
    /// deltas, the paper's protocol).
    pub fn with_reset(mut self, reset: bool) -> Self {
        self.reset_on_read = reset;
        self
    }

    /// The rule body.
    pub fn with_rule(mut self, rule: impl FnMut(&PolicyContext<'_>) + Send + 'static) -> Self {
        self.rule = Some(Box::new(rule));
        self
    }
}

/// Built-in rules.
pub mod rules {
    use super::*;

    /// Keep `numerator/denominator` inside `[low, high]` by scaling
    /// `knob`: above the band → multiply by `grow`, below → by `shrink`.
    /// (The generalization of the paper-era "keep scheduling overhead a
    /// small fraction of task duration" policy.)
    pub fn ratio_band(
        numerator: &'static str,
        denominator: &'static str,
        low: f64,
        high: f64,
        knob: Tunable,
        grow: f64,
        shrink: f64,
    ) -> impl FnMut(&PolicyContext<'_>) + Send {
        move |ctx| {
            let (Some(n), Some(d)) = (ctx.value(numerator), ctx.value(denominator)) else {
                return;
            };
            if d <= 0.0 {
                return;
            }
            let ratio = n / d;
            if ratio > high {
                knob.scale(grow);
            } else if ratio < low {
                knob.scale(shrink);
            }
        }
    }

    /// Clamp a knob down while `counter` exceeds `threshold`, release it
    /// back up otherwise (simple hysteresis throttle).
    pub fn threshold_throttle(
        counter: &'static str,
        threshold: f64,
        knob: Tunable,
    ) -> impl FnMut(&PolicyContext<'_>) + Send {
        move |ctx| {
            let Some(v) = ctx.value(counter) else { return };
            if v > threshold {
                knob.step(-1);
            } else {
                knob.step(1);
            }
        }
    }
}

struct ArmedPolicy {
    #[allow(dead_code)] // kept for debugger/diagnostic visibility
    name: String,
    /// The policy's counters, re-resolved when the registry topology moves
    /// (a respawned worker must not leave a `worker-thread#*` policy reading
    /// stale handles).
    engine: ScrapeEngine,
    period_ns: u64,
    reset_on_read: bool,
    rule: Rule,
    /// Registry-clock time of the next firing (0: due at once).
    next_due_ns: u64,
    fires: u64,
}

/// Statistics the engine exposes about itself (observable through a
/// registry like everything else — the engine eats its own dog food).
#[derive(Debug, Default)]
pub struct EngineStats {
    /// Total policy firings.
    pub fires: AtomicU64,
    /// Total rule evaluation time, ns.
    pub rule_ns: AtomicU64,
}

/// The background policy evaluator; dropping it stops the thread.
pub struct PolicyEngine {
    ticks: TickLoop,
    stats: Arc<EngineStats>,
}

impl PolicyEngine {
    /// Resolve every policy's counters against `registry` and start the
    /// evaluation thread. Fails eagerly on unknown counters.
    pub fn start(
        registry: &Arc<CounterRegistry>,
        policies: Vec<Policy>,
    ) -> Result<Self, CounterError> {
        let mut armed = Vec::with_capacity(policies.len());
        for p in policies {
            armed.push(ArmedPolicy {
                name: p.name,
                engine: ScrapeEngine::with(registry, &p.counters, 1, Arc::default())?,
                period_ns: u64::try_from(p.period.as_nanos()).unwrap_or(u64::MAX),
                reset_on_read: p.reset_on_read,
                rule: p.rule.unwrap_or_else(|| Box::new(|_| {})),
                next_due_ns: 0,
                fires: 0,
            });
        }

        let stats = Arc::new(EngineStats::default());
        let stats2 = stats.clone();
        let clock = registry.clock();
        // Each tick fires the policies that are due at its stamp and asks
        // to be run again when the earliest of the rest is.
        let tick = move |now_ns: u64| {
            let mut next_ns = u64::MAX;
            for p in &mut armed {
                if now_ns >= p.next_due_ns {
                    // An accounted batch: a policy's reads cost what a
                    // sampler's do (`/counters/overhead/*`), and a counter
                    // that panics reads as unavailable.
                    let batch = p.engine.read(p.reset_on_read);
                    let t0 = clock.now_ns();
                    let ctx = PolicyContext {
                        batch: &batch,
                        fires: p.fires,
                    };
                    (p.rule)(&ctx);
                    stats2
                        .rule_ns
                        .fetch_add(clock.now_ns().saturating_sub(t0), Ordering::Relaxed);
                    stats2.fires.fetch_add(1, Ordering::Relaxed);
                    p.fires += 1;
                    p.next_due_ns = now_ns.saturating_add(p.period_ns);
                }
                next_ns = next_ns.min(p.next_due_ns);
            }
            Duration::from_nanos(next_ns - now_ns)
        };
        let ticks = TickLoop::spawn(
            "rpx-apex-policy-engine",
            registry.clock(),
            Duration::ZERO,
            tick,
        )?;
        Ok(PolicyEngine { ticks, stats })
    }

    /// Engine self-metrics.
    pub fn stats(&self) -> Arc<EngineStats> {
        self.stats.clone()
    }

    /// Register `/apex/{fires,rule-time}` counters for the engine itself.
    pub fn register_counters(&self, registry: &Arc<CounterRegistry>) {
        let s = self.stats.clone();
        registry.register_monotonic(
            "/apex/fires",
            "policy rule firings",
            "1",
            Arc::new(move || s.fires.load(Ordering::Relaxed) as i64),
        );
        let s = self.stats.clone();
        registry.register_monotonic(
            "/apex/rule-time",
            "cumulative time spent inside policy rules",
            "ns",
            Arc::new(move || s.rule_ns.load(Ordering::Relaxed) as i64),
        );
    }

    /// Stop the engine and join its thread.
    pub fn stop(self) {
        self.ticks.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry_with_gauge(initial: i64) -> (Arc<CounterRegistry>, Arc<AtomicI64>) {
        let reg = CounterRegistry::new();
        let v = Arc::new(AtomicI64::new(initial));
        let v2 = v.clone();
        reg.register_raw(
            "/app/metric",
            "m",
            "1",
            Arc::new(move || v2.load(Ordering::Relaxed)),
        );
        (reg, v)
    }

    fn wait_until(deadline_ms: u64, mut cond: impl FnMut() -> bool) -> bool {
        let t0 = std::time::Instant::now();
        while t0.elapsed() < Duration::from_millis(deadline_ms) {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        cond()
    }

    #[test]
    fn tunable_clamps_and_counts_changes() {
        let t = Tunable::new(5, 1, 10);
        assert_eq!(t.set(99), 10);
        assert_eq!(t.set(-3), 1);
        assert_eq!(t.step(100), 10);
        assert_eq!(t.scale(0.5), 5);
        assert_eq!(t.changes(), 4);
        assert_eq!(t.bounds(), (1, 10));
        // No-op sets don't count as changes.
        let before = t.changes();
        t.set(5);
        assert_eq!(t.changes(), before);
    }

    #[test]
    #[should_panic(expected = "empty tunable range")]
    fn inverted_bounds_panic() {
        let _ = Tunable::new(0, 5, 1);
    }

    #[test]
    fn engine_fires_and_adjusts_knob() {
        let (reg, gauge) = registry_with_gauge(100);
        let knob = Tunable::new(8, 1, 8);
        let k = knob.clone();
        let policy = Policy::new("throttle", vec!["/app/metric".into()])
            .with_period(Duration::from_millis(2))
            .with_reset(false)
            .with_rule(rules::threshold_throttle("/app/metric", 50.0, k));
        let engine = PolicyEngine::start(&reg, vec![policy]).unwrap();

        assert!(
            wait_until(2_000, || knob.get() <= 4),
            "knob should throttle under load"
        );
        // Load drops; the knob recovers.
        gauge.store(10, Ordering::Relaxed);
        assert!(wait_until(2_000, || knob.get() == 8), "knob should recover");
        engine.stop();
    }

    #[test]
    fn ratio_band_rule_steers_both_directions() {
        let reg = CounterRegistry::new();
        let num = Arc::new(AtomicI64::new(90));
        let den = Arc::new(AtomicI64::new(100));
        let (n2, d2) = (num.clone(), den.clone());
        reg.register_raw(
            "/r/num",
            "n",
            "1",
            Arc::new(move || n2.load(Ordering::Relaxed)),
        );
        reg.register_raw(
            "/r/den",
            "d",
            "1",
            Arc::new(move || d2.load(Ordering::Relaxed)),
        );
        let knob = Tunable::new(100, 1, 10_000);
        let k = knob.clone();
        let policy = Policy::new("band", vec!["/r/num".into(), "/r/den".into()])
            .with_period(Duration::from_millis(2))
            .with_reset(false)
            .with_rule(rules::ratio_band("/r/num", "/r/den", 0.1, 0.5, k, 2.0, 0.5));
        let engine = PolicyEngine::start(&reg, vec![policy]).unwrap();

        // ratio = 0.9 > 0.5 → knob grows.
        assert!(
            wait_until(2_000, || knob.get() >= 800),
            "knob should grow: {}",
            knob.get()
        );
        // ratio = 0.01 < 0.1 → knob shrinks.
        num.store(1, Ordering::Relaxed);
        assert!(
            wait_until(2_000, || knob.get() <= 100),
            "knob should shrink: {}",
            knob.get()
        );
        engine.stop();
    }

    #[test]
    fn per_interval_reset_isolates_firings() {
        let reg = CounterRegistry::new();
        let v = Arc::new(AtomicI64::new(0));
        let v2 = v.clone();
        reg.register_monotonic(
            "/m/count",
            "h",
            "1",
            Arc::new(move || v2.load(Ordering::Relaxed)),
        );
        let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let s2 = seen.clone();
        let policy = Policy::new("watch", vec!["/m/count".into()])
            .with_period(Duration::from_millis(3))
            .with_rule(move |ctx| {
                if let Some(x) = ctx.value("/m/count") {
                    s2.lock().push(x as i64);
                }
            });
        let engine = PolicyEngine::start(&reg, vec![policy]).unwrap();
        for _ in 0..5 {
            v.fetch_add(10, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(4));
        }
        engine.stop();
        let observed: i64 = seen.lock().iter().sum();
        let remainder = reg.evaluate("/m/count", false).unwrap().value;
        assert_eq!(
            observed + remainder,
            50,
            "per-interval deltas must sum to the total"
        );
    }

    /// A `worker-thread#*` policy must read the workers of the topology
    /// as it is at each firing, not as it was at start, and each firing's
    /// reads are one batch in `/counters/overhead/*`.
    #[test]
    fn wildcard_policy_follows_topology_and_accounts_its_reads() {
        use rpx_counters::value::{CounterInfo, CounterKind};
        use rpx_counters::{counter::RawCounter, Counter, CounterInstance, CounterName};

        let reg = CounterRegistry::new();
        let workers = Arc::new(AtomicI64::new(1));
        let (w2, clock) = (workers.clone(), reg.clock());
        reg.register_type(
            CounterInfo::new("/threads/count", CounterKind::Raw, "h", "1"),
            Arc::new(move |name, _| {
                let info = CounterInfo::new(name.canonical(), CounterKind::Raw, "h", "1");
                Ok(
                    Arc::new(RawCounter::new(info, clock.clone(), Arc::new(|| 1)))
                        as Arc<dyn Counter>,
                )
            }),
            Some(Arc::new(move |f: &mut dyn FnMut(CounterName)| {
                for w in 0..w2.load(Ordering::Relaxed) {
                    f(CounterName::new("threads", "count")
                        .with_instance(CounterInstance::worker(0, w as u32)));
                }
            })),
        );
        let seen = Arc::new(AtomicI64::new(0));
        let s2 = seen.clone();
        let policy = Policy::new(
            "per-worker",
            vec!["/threads{locality#0/worker-thread#*}/count".into()],
        )
        .with_period(Duration::from_millis(1))
        .with_rule(move |ctx| s2.store(ctx.batch.len() as i64, Ordering::Relaxed));
        let engine = PolicyEngine::start(&reg, vec![policy]).unwrap();
        assert!(wait_until(2_000, || seen.load(Ordering::Relaxed) == 1));

        // A worker joins: one generation bump, and the next firing reads it.
        workers.store(3, Ordering::Relaxed);
        reg.bump_generation();
        assert!(
            wait_until(2_000, || seen.load(Ordering::Relaxed) == 3),
            "policy still reads {} counters",
            seen.load(Ordering::Relaxed)
        );
        let fires = engine.stats().fires.load(Ordering::Relaxed) as i64;
        engine.stop();
        let batches = reg
            .evaluate("/counters{locality#0/total}/overhead/count", false)
            .unwrap();
        assert!(
            batches.value >= fires,
            "every firing is one accounted batch"
        );
    }

    #[test]
    fn a_panicking_counter_does_not_stop_the_policy_engine() {
        let (reg, _gauge) = registry_with_gauge(7);
        let panicked = Arc::new(AtomicI64::new(0));
        let p2 = panicked.clone();
        reg.register_raw(
            "/app/broken",
            "h",
            "1",
            Arc::new(move || {
                p2.fetch_add(1, Ordering::Relaxed);
                panic!("injected counter-read failure")
            }),
        );
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let seen = Arc::new(parking_lot::Mutex::new((None, None)));
        let s2 = seen.clone();
        let policy = Policy::new("mixed", vec!["/app/broken".into(), "/app/metric".into()])
            .with_period(Duration::from_millis(1))
            .with_rule(move |ctx| {
                *s2.lock() = (ctx.value("/app/broken"), ctx.value("/app/metric"))
            });
        let engine = PolicyEngine::start(&reg, vec![policy]).unwrap();
        let fires = || engine.stats().fires.load(Ordering::Relaxed);
        assert!(wait_until(2_000, || panicked.load(Ordering::Relaxed) >= 1));
        let after_panic = fires();
        let alive = wait_until(2_000, || fires() >= after_panic + 3);
        std::panic::set_hook(prev);
        assert!(alive, "policies stopped firing after a counter panicked");
        // The failed reading reached the rule as unavailable, beside a
        // healthy one.
        assert_eq!(*seen.lock(), (None, Some(7.0)));
        engine.stop();
    }

    #[test]
    fn unknown_counter_fails_eagerly() {
        let reg = CounterRegistry::new();
        let policy = Policy::new("bad", vec!["/no/such".into()]);
        assert!(PolicyEngine::start(&reg, vec![policy]).is_err());
    }

    #[test]
    fn engine_self_counters() {
        let (reg, _gauge) = registry_with_gauge(1);
        let policy =
            Policy::new("noop", vec!["/app/metric".into()]).with_period(Duration::from_millis(1));
        let engine = PolicyEngine::start(&reg, vec![policy]).unwrap();
        engine.register_counters(&reg);
        assert!(wait_until(2_000, || {
            reg.evaluate("/apex/fires", false)
                .map(|v| v.value >= 3)
                .unwrap_or(false)
        }));
        engine.stop();
    }

    /// Re-registering `/apex/*` replaces what a read of the first
    /// engine's counters cached: the second engine reports its own totals.
    #[test]
    fn a_second_engine_reports_its_own_fires() {
        let (reg, _gauge) = registry_with_gauge(1);
        let policy = |period| Policy::new("noop", vec!["/app/metric".into()]).with_period(period);
        let fires = |reg: &Arc<CounterRegistry>| reg.evaluate("/apex/fires", false).unwrap().value;

        let a = PolicyEngine::start(&reg, vec![policy(Duration::from_millis(1))]).unwrap();
        a.register_counters(&reg);
        assert!(wait_until(2_000, || fires(&reg) >= 3));
        a.stop();

        // B fires once at start-up and then not for a minute.
        let b = PolicyEngine::start(&reg, vec![policy(Duration::from_secs(60))]).unwrap();
        b.register_counters(&reg);
        let stats = b.stats();
        assert!(wait_until(2_000, || stats.fires.load(Ordering::Relaxed) == 1));
        assert_eq!(
            fires(&reg),
            1,
            "`/apex/fires` still reads the stopped engine"
        );

        let t0 = std::time::Instant::now();
        b.stop();
        let stop = t0.elapsed();
        assert!(stop < Duration::from_millis(50), "stop waited {stop:?}");
    }

    #[test]
    fn context_sum_over_wildcards() {
        let reg = CounterRegistry::new();
        reg.register_raw("/a/x", "h", "1", Arc::new(|| 3));
        reg.register_raw("/a/y", "h", "1", Arc::new(|| 4));
        let specs = ["/a/x".into(), "/a/y".into()];
        let batch = ScrapeEngine::with(&reg, &specs, 1, Arc::default())
            .unwrap()
            .collect();
        let ctx = PolicyContext {
            batch: &batch,
            fires: 0,
        };
        assert_eq!(ctx.sum("/a/"), 7.0);
        assert_eq!(ctx.value("/a/y"), Some(4.0));
        assert_eq!(ctx.value("/nope"), None);
    }
}
