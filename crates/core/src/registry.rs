//! The counter registry: counter *types* are registered with a factory and
//! a discovery function; counter *instances* are created (and cached) on
//! demand when a name is resolved; an *active set* supports the paper's
//! `evaluate_active_counters` / `reset_active_counters` protocol.
//!
//! # The active set is a private scrape engine
//!
//! The active set is one [`ScrapeEngine`] the registry owns (one shard,
//! nothing registered, like a sampler's) whose query `add_active` /
//! `remove_active` edit. It reaches the registry only through a `Weak`, so
//! there is no cycle. An evaluation is one read of that engine: a [`Batch`]
//! at one clock stamp, names borrowed in insertion order, with **no
//! registry lock held**, so a counter may re-enter the registry without
//! self-deadlocking and concurrent `add_active`/`remove_active` calls never
//! block it. Wildcard queries are *live*: a topology change (a type
//! registered late, a worker respawned by the watchdog — signalled through
//! [`CounterRegistry::bump_generation`]) makes the next evaluation
//! re-expand them. See [`crate::engine`] and DESIGN.md §12.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use crate::prim::{AtomicU64, Ordering, RwLock};

use crate::counter::{Clock, Counter, Cumulative, CumulativeCounter, PairFn, RawCounter};
use crate::counter::{ValueCell, ValueFn};
use crate::engine::{Batch, ScrapeEngine};
use crate::error::CounterError;
use crate::name::{CounterInstance, CounterName, InstanceIndex};
use crate::query::read_counter;
use crate::value::{CounterInfo, CounterKind, CounterValue};

/// Factory creating a counter instance for a concrete (non-wildcard) name.
/// The registry is passed so derived counters can resolve their children;
/// no registry locks are held during the call.
pub type CounterFactory = Arc<
    dyn Fn(&CounterName, &Arc<CounterRegistry>) -> Result<Arc<dyn Counter>, CounterError>
        + Send
        + Sync,
>;

/// Discovery function enumerating the concrete instances of a counter type.
pub type CounterDiscoverer = Arc<dyn Fn(&mut dyn FnMut(CounterName)) + Send + Sync>;

/// A wildcard-expanded resolution result: concrete names with their live
/// counter instances.
pub type ResolvedCounters = Vec<(CounterName, Arc<dyn Counter>)>;

struct CounterTypeEntry {
    info: CounterInfo,
    factory: CounterFactory,
    discoverer: Option<CounterDiscoverer>,
}

/// Central registry of counter types and live counter instances.
///
/// One registry exists per runtime (per "locality"); every subsystem
/// registers its counter types here and every consumer resolves names here.
pub struct CounterRegistry {
    clock: Arc<Clock>,
    types: RwLock<BTreeMap<String, CounterTypeEntry>>,
    instances: RwLock<HashMap<String, Arc<dyn Counter>>>,
    /// The active set: a private engine whose query holds the stored
    /// specs and exclusions (and this registry weakly — no cycle).
    active: ScrapeEngine,
    /// Topology generation: bumped on type (un)registration and by the
    /// runtime on worker respawn; a resolved query whose stamp lags this
    /// value is re-expanded on its next refresh.
    generation: AtomicU64,
    /// Self-measurement: cumulative wall time every reader spent
    /// evaluating batches, exposed as `/counters/overhead/time`.
    pub(crate) overhead_time_ns: AtomicU64,
    /// Self-measurement: number of batches evaluated
    /// (`/counters/overhead/count`).
    pub(crate) overhead_batches: AtomicU64,
}

impl CounterRegistry {
    /// An empty registry with a fresh clock. Builtin derived counter types
    /// (`/arithmetics/*`, `/statistics/*`) and the self-measurement
    /// counters (`/counters/overhead/*`) are registered automatically.
    pub fn new() -> Arc<Self> {
        let clock = Arc::new(Clock::new());
        let reg = Arc::new_cyclic(|weak| CounterRegistry {
            active: ScrapeEngine::unresolved(weak.clone(), clock.clone(), 1, Arc::default()),
            clock,
            types: RwLock::new(BTreeMap::new()),
            instances: RwLock::new(HashMap::new()),
            generation: AtomicU64::new(1),
            overhead_time_ns: AtomicU64::new(0),
            overhead_batches: AtomicU64::new(0),
        });
        crate::derived::register_arithmetics(&reg);
        crate::histogram::register_histogram(&reg);
        crate::statistics::register_statistics(&reg);
        register_overhead_counters(&reg);
        reg
    }

    /// The registry's monotonic clock (shared with its counters).
    pub fn clock(&self) -> Arc<Clock> {
        self.clock.clone()
    }

    // ------------------------------------------------------------------
    // Type registration & discovery
    // ------------------------------------------------------------------

    /// Register a counter type. `info.name` must be the type path
    /// (`/object/countername`). Re-registration replaces the entry and
    /// evicts the cached instances the replaced factory made, so the next
    /// read goes through the new one. Registration bumps the topology
    /// [generation](Self::generation), so live wildcard queries pick the
    /// new type's instances up on their next evaluation.
    pub fn register_type(
        &self,
        info: CounterInfo,
        factory: CounterFactory,
        discoverer: Option<CounterDiscoverer>,
    ) {
        let key = info.name.clone();
        let entry = CounterTypeEntry {
            info,
            factory,
            discoverer,
        };
        if self.types.write().insert(key.clone(), entry).is_some() {
            self.evict_instances(&key);
        }
        self.bump_generation();
    }

    /// Remove a counter type and all cached instances of it. Bumps the
    /// topology [generation](Self::generation).
    pub fn unregister_type(&self, type_path: &str) {
        self.types.write().remove(type_path);
        self.evict_instances(type_path);
        self.bump_generation();
    }

    fn evict_instances(&self, type_path: &str) {
        self.instances.write().retain(|name, _| {
            name.parse::<CounterName>()
                .map(|n| n.type_path() != type_path)
                .unwrap_or(true)
        });
    }

    /// The current topology generation. A
    /// [`ResolvedQuery`](crate::query::ResolvedQuery) stamped with
    /// an older value re-expands its wildcards on its next refresh.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Advance the topology generation, invalidating every resolved
    /// query (the active set included). Called internally on type
    /// (un)registration; the runtime calls it when the instance population
    /// behind a discoverer changes (e.g. a worker was respawned by the
    /// watchdog supervisor) so running samplers re-expand `worker-thread#*`
    /// wildcards.
    pub fn bump_generation(&self) {
        self.generation.fetch_add(1, Ordering::AcqRel);
    }

    /// Metadata of every registered counter type, sorted by type path.
    pub fn counter_types(&self) -> Vec<CounterInfo> {
        self.types.read().values().map(|e| e.info.clone()).collect()
    }

    /// Metadata for one type path, if registered.
    pub fn type_info(&self, type_path: &str) -> Option<CounterInfo> {
        self.types.read().get(type_path).map(|e| e.info.clone())
    }

    /// Enumerate the concrete instances a type advertises via its
    /// discoverer (empty if the type has no discoverer).
    pub fn discover_instances(&self, type_path: &str) -> Vec<CounterName> {
        let types = self.types.read();
        let mut out = Vec::new();
        if let Some(entry) = types.get(type_path) {
            if let Some(d) = &entry.discoverer {
                d(&mut |n| out.push(n));
            }
        }
        out
    }

    /// Enumerate every discoverable concrete counter name in the registry.
    pub fn discover_all(&self) -> Vec<CounterName> {
        let discoverers: Vec<CounterDiscoverer> = self
            .types
            .read()
            .values()
            .filter_map(|e| e.discoverer.clone())
            .collect();
        let mut out = Vec::new();
        for d in discoverers {
            d(&mut |n| out.push(n));
        }
        out
    }

    // ------------------------------------------------------------------
    // Instance resolution
    // ------------------------------------------------------------------

    /// Expand a possibly-wildcard name into concrete names.
    ///
    /// Non-wildcard names pass through unchanged (as a single-element vec).
    /// Wildcards are matched against the type's discovered instances.
    pub fn expand(&self, name: &CounterName) -> Result<Vec<CounterName>, CounterError> {
        let rendered = self.expand_rendered(name)?;
        Ok(rendered.into_iter().map(|(_, n)| n).collect())
    }

    /// [`expand`](Self::expand), keeping the canonical string each name
    /// was sorted by so the resolved query renders every name once.
    pub(crate) fn expand_rendered(
        &self,
        name: &CounterName,
    ) -> Result<Vec<(String, CounterName)>, CounterError> {
        if !name.has_wildcard() {
            return Ok(vec![(name.canonical(), name.clone())]);
        }
        let candidates = self.discover_instances(&name.type_path());
        if candidates.is_empty() {
            return Err(CounterError::UnknownInstance(format!(
                "no discoverable instances for wildcard name `{name}`"
            )));
        }
        let mut out: Vec<(String, CounterName)> = candidates
            .into_iter()
            .filter(|c| wildcard_matches(name, c))
            .map(|mut c| {
                c.parameters = name.parameters.clone();
                (c.canonical(), c)
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        if out.is_empty() {
            return Err(CounterError::UnknownInstance(format!(
                "wildcard name `{name}` matched no instances"
            )));
        }
        Ok(out)
    }

    /// Resolve a concrete name to a live counter, creating and caching it on
    /// first use. Wildcard names are rejected — call [`expand`](Self::expand)
    /// first.
    pub fn get_counter(
        self: &Arc<Self>,
        name: &CounterName,
    ) -> Result<Arc<dyn Counter>, CounterError> {
        if name.has_wildcard() {
            return Err(CounterError::InvalidName(format!(
                "cannot instantiate wildcard name `{name}`; expand it first"
            )));
        }
        self.instantiate(name, &name.canonical())
    }

    /// [`get_counter`](Self::get_counter) for a wildcard-free `name` whose
    /// `canonical` form the caller already rendered.
    pub(crate) fn instantiate(
        self: &Arc<Self>,
        name: &CounterName,
        canonical: &str,
    ) -> Result<Arc<dyn Counter>, CounterError> {
        if let Some(c) = self.instances.read().get(canonical) {
            return Ok(c.clone());
        }
        let factory = {
            let types = self.types.read();
            let entry = types
                .get(&name.type_path())
                .ok_or_else(|| CounterError::UnknownCounterType(name.type_path()))?;
            entry.factory.clone()
        };
        // No locks held while the factory runs: derived-counter factories
        // recurse into `get_counter` for their children.
        let counter = factory(name, self)?;
        let mut instances = self.instances.write();
        let entry = instances
            .entry(canonical.to_owned())
            .or_insert_with(|| counter);
        Ok(entry.clone())
    }

    /// Resolve a name string (possibly wildcard) to all matching counters.
    pub fn get_counters(self: &Arc<Self>, name: &str) -> Result<ResolvedCounters, CounterError> {
        let parsed: CounterName = name.parse()?;
        let mut out = Vec::new();
        for n in self.expand(&parsed)? {
            let c = self.get_counter(&n)?;
            out.push((n, c));
        }
        Ok(out)
    }

    /// Evaluate one counter by name (convenience for one-shot queries):
    /// the guarded read at one stamp of this registry's clock, so a counter
    /// that panics reads as not ok.
    pub fn evaluate(
        self: &Arc<Self>,
        name: &str,
        reset: bool,
    ) -> Result<CounterValue, CounterError> {
        let counter = self.get_counter(&name.parse()?)?;
        Ok(read_counter(&*counter, reset, self.clock.now_ns()))
    }

    /// Number of live (cached) counter instances.
    pub fn instance_count(&self) -> usize {
        self.instances.read().len()
    }

    // ------------------------------------------------------------------
    // Active set (the paper's measurement protocol)
    // ------------------------------------------------------------------

    /// Add counters (wildcards allowed) to the active set.
    ///
    /// Resolution errors surface eagerly (an unknown type or a wildcard
    /// matching nothing is an error *now*), but the query itself stays
    /// live afterwards: instances appearing later under the same wildcard
    /// join the set on the evaluation after the next generation bump.
    /// Returns the number of concrete counters the call added.
    pub fn add_active(self: &Arc<Self>, name: &str) -> Result<usize, CounterError> {
        self.active.query.add(self, name.parse()?)
    }

    /// Remove counters from the active set.
    ///
    /// The name is parsed and canonicalized before matching, so any
    /// spelling that parses to the same structured name (`worker-thread#07`
    /// vs `worker-thread#7`, …) removes the counter it added. A name that
    /// matches a stored query (including a wildcard query) removes the
    /// whole query; a concrete name that was expanded *from* a wildcard
    /// query is excluded individually while the query stays live.
    pub fn remove_active(self: &Arc<Self>, name: &str) -> bool {
        // Stored queries are parsed names, so an unparseable one names none.
        let Ok(parsed) = name.parse::<CounterName>() else {
            return false;
        };
        self.active.query.remove(self, &parsed.canonical())
    }

    /// Canonical names currently in the active set, in query insertion
    /// order, re-expanded first if the registry topology moved. Holds no
    /// lock while returning — safe to call from inside a counter's
    /// `get_value_at`.
    pub fn active_names(self: &Arc<Self>) -> Vec<String> {
        self.active.query.refresh();
        self.active.query.names()
    }

    /// Evaluate every active counter (the paper's
    /// `hpx::evaluate_active_counters`): one read of the active set's
    /// engine, in insertion order, with `reset` restarting accumulation
    /// atomically with each read. Every sample carries the batch's stamp; a
    /// counter that panics reads as not ok, and is backed off after its
    /// second failure in a row. The read is in `/counters/overhead/*`.
    pub fn evaluate_active_counters(self: &Arc<Self>, reset: bool) -> Batch {
        self.active.read(reset)
    }

    /// Reset every active counter (`hpx::reset_active_counters`): a
    /// reset-read of the active set with the batch dropped, so it is
    /// guarded, backed off and accounted as an evaluation is. A counter in
    /// backoff is skipped, and so not reset.
    pub fn reset_active_counters(self: &Arc<Self>) {
        self.active.read(true);
    }

    // ------------------------------------------------------------------
    // Convenience registration helpers for simple single-instance types
    // ------------------------------------------------------------------

    /// Register a type whose every instance is `make(info, clock)`, `info`
    /// being the type's with the instance's canonical name filled in.
    fn register_made(
        self: &Arc<Self>,
        info: CounterInfo,
        discoverer: Option<CounterDiscoverer>,
        make: impl Fn(CounterInfo, Arc<Clock>) -> Arc<dyn Counter> + Send + Sync + 'static,
    ) {
        let clock = self.clock();
        let template = info.clone();
        self.register_type(
            info,
            Arc::new(move |name, _reg| {
                let mut info = template.clone();
                info.name = name.canonical();
                Ok(make(info, clock.clone()))
            }),
            discoverer,
        );
    }

    /// Register a pull-based raw gauge under `type_path`, instantiable with
    /// any (or no) instance name.
    pub fn register_raw(self: &Arc<Self>, type_path: &str, help: &str, unit: &str, read: ValueFn) {
        let info = CounterInfo::new(type_path, CounterKind::Raw, help, unit);
        self.register_made(
            info,
            single_instance_discoverer(type_path),
            move |i, clock| Arc::new(RawCounter::new(i, clock, read.clone())),
        );
    }

    /// Register a pull-based monotonic counter under `type_path`.
    pub fn register_monotonic(
        self: &Arc<Self>,
        type_path: &str,
        help: &str,
        unit: &str,
        read: ValueFn,
    ) {
        let info = CounterInfo::new(type_path, CounterKind::MonotonicallyIncreasing, help, unit);
        let source = Cumulative::Monotonic(read);
        self.register_made(
            info,
            single_instance_discoverer(type_path),
            move |i, clock| Arc::new(CumulativeCounter::new(i, clock, source.clone())),
        );
    }

    /// Register a (sum, count) average counter under `type_path`.
    pub fn register_average(
        self: &Arc<Self>,
        type_path: &str,
        help: &str,
        unit: &str,
        read: PairFn,
    ) {
        let info = CounterInfo::new(type_path, CounterKind::Average, help, unit);
        let source = Cumulative::Average(read);
        self.register_made(
            info,
            single_instance_discoverer(type_path),
            move |i, clock| Arc::new(CumulativeCounter::new(i, clock, source.clone())),
        );
    }

    /// Register an application-owned settable value; returns the cell the
    /// application writes through. The counter is immediately instantiable
    /// under `type_path`.
    pub fn register_value(
        self: &Arc<Self>,
        type_path: &str,
        help: &str,
        unit: &str,
    ) -> Arc<ValueCell> {
        let info = CounterInfo::new(type_path, CounterKind::Raw, help, unit);
        let cell = Arc::new(ValueCell::new(info.clone()));
        let c2 = cell.clone();
        self.register_type(
            info,
            // All instances of an app value share the one cell.
            Arc::new(move |_name, _reg| Ok(c2.clone() as Arc<dyn Counter>)),
            single_instance_discoverer(type_path),
        );
        cell
    }
}

impl std::fmt::Debug for CounterRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CounterRegistry")
            .field("types", &self.types.read().len())
            .field("instances", &self.instances.read().len())
            .field("active", &self.active.query.handles().len())
            .field("generation", &self.generation())
            .finish()
    }
}

/// Register the self-measurement counters:
/// `/counters{locality#0/total}/overhead/time` (cumulative evaluation wall
/// time, ns), `/counters{locality#0/total}/overhead/count` (batches
/// evaluated), and `/counters{locality#0/total}/health/average-underflows`
/// (average-counter sources observed going backwards). Factories hold only
/// a `Weak` back-reference so the registry is not kept alive by its own
/// counters.
fn register_overhead_counters(reg: &Arc<CounterRegistry>) {
    type OverheadRead = fn(&CounterRegistry) -> i64;
    let specs: [(&str, &str, &str, OverheadRead); 4] = [
        (
            "/counters/overhead/time",
            "cumulative wall time spent evaluating counter batches",
            "ns",
            |r| r.overhead_time_ns.load(Ordering::Relaxed) as i64,
        ),
        (
            "/counters/overhead/count",
            "number of counter batches evaluated",
            "1",
            |r| r.overhead_batches.load(Ordering::Relaxed) as i64,
        ),
        (
            "/counters/health/average-underflows",
            "times an average counter's (sum, count) source went backwards \
             past its baseline (nonzero means a broken source)",
            "1",
            |_| crate::counter::average_underflows() as i64,
        ),
        (
            "/counters/clock/recalibrations",
            "times the TSC clock multiplier was re-derived by the periodic \
             drift cross-check against Instant",
            "1",
            |r| r.clock.recalibrations() as i64,
        ),
    ];
    for (path, help, unit, read) in specs {
        let weak = Arc::downgrade(reg);
        let source =
            Cumulative::Monotonic(Arc::new(move || weak.upgrade().map_or(0, |r| read(&r))));
        let info = CounterInfo::new(path, CounterKind::MonotonicallyIncreasing, help, unit);
        let Ok(advertised) = path.parse::<CounterName>() else {
            continue;
        };
        let advertised = advertised.with_instance(CounterInstance::total(0));
        let discoverer: CounterDiscoverer = Arc::new(move |f| f(advertised.clone()));
        reg.register_made(info, Some(discoverer), move |i, clock| {
            Arc::new(CumulativeCounter::new(i, clock, source.clone()))
        });
    }
    // Signed gauge: the last TSC−Instant error a completed drift check
    // observed (ppm). Raw, not monotonic — it moves both ways.
    let weak = Arc::downgrade(reg);
    reg.register_raw(
        "/counters/clock/drift-ppm",
        "last signed TSC-vs-Instant relative error observed by the drift \
         cross-check (ppm; 0 on Instant-backed clocks)",
        "ppm",
        Arc::new(move || weak.upgrade().map_or(0, |r| r.clock.last_drift_ppm())),
    );
}

/// Discoverer advertising exactly the bare type path as the only instance.
fn single_instance_discoverer(type_path: &str) -> Option<CounterDiscoverer> {
    let name: CounterName = type_path.parse().ok()?;
    Some(Arc::new(move |f| f(name.clone())))
}

/// Whether concrete name `c` is matched by wildcard pattern `p`.
/// Object and counter must be equal; instance parts match per-component,
/// `#*` matching any concrete index.
fn wildcard_matches(p: &CounterName, c: &CounterName) -> bool {
    if p.object != c.object || p.counter != c.counter {
        return false;
    }
    let (pi, ci) = match (&p.instance, &c.instance) {
        (Some(pi), Some(ci)) => (pi, ci),
        (None, None) => return true,
        _ => return false,
    };
    if pi.children.len() != ci.children.len() {
        return false;
    }
    let part_matches = |pp: &crate::name::InstancePart, cp: &crate::name::InstancePart| -> bool {
        if pp.name != cp.name {
            return false;
        }
        match (&pp.index, &cp.index) {
            (Some(InstanceIndex::All), Some(InstanceIndex::At(_))) => true,
            (a, b) => a == b,
        }
    };
    part_matches(&pi.parent, &ci.parent)
        && pi
            .children
            .iter()
            .zip(&ci.children)
            .all(|(a, b)| part_matches(a, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::CounterInstance;
    use std::sync::atomic::{AtomicI64, Ordering};

    #[test]
    fn register_and_evaluate_raw() {
        let reg = CounterRegistry::new();
        let v = Arc::new(AtomicI64::new(3));
        let v2 = v.clone();
        reg.register_raw(
            "/test/value",
            "a test value",
            "1",
            Arc::new(move || v2.load(Ordering::Relaxed)),
        );
        assert_eq!(reg.evaluate("/test/value", false).unwrap().value, 3);
        v.store(8, Ordering::Relaxed);
        assert_eq!(reg.evaluate("/test/value", false).unwrap().value, 8);
    }

    #[test]
    fn unknown_type_is_an_error() {
        let reg = CounterRegistry::new();
        let e = reg.evaluate("/no/such", false).unwrap_err();
        assert!(matches!(e, CounterError::UnknownCounterType(_)));
    }

    #[test]
    fn instances_are_cached() {
        let reg = CounterRegistry::new();
        reg.register_raw("/test/value", "h", "1", Arc::new(|| 1));
        let n: CounterName = "/test/value".parse().unwrap();
        let a = reg.get_counter(&n).unwrap();
        let b = reg.get_counter(&n).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(reg.instance_count(), 1);
    }

    #[test]
    fn wildcard_rejected_without_expand() {
        let reg = CounterRegistry::new();
        reg.register_raw("/test/value", "h", "1", Arc::new(|| 1));
        let n: CounterName = "/test{locality#0/worker-thread#*}/value".parse().unwrap();
        assert!(reg.get_counter(&n).is_err());
    }

    #[test]
    fn wildcard_expansion_uses_discoverer() {
        let reg = CounterRegistry::new();
        let info = CounterInfo::new("/threads/count", CounterKind::Raw, "h", "1");
        let clock = reg.clock();
        reg.register_type(
            info.clone(),
            Arc::new(move |name, _| {
                let mut i = CounterInfo::new("/threads/count", CounterKind::Raw, "h", "1");
                i.name = name.canonical();
                // Value = worker index, to check instance routing.
                let idx = match &name.instance {
                    Some(inst) => match inst.children.first().and_then(|c| c.index.as_ref()) {
                        Some(InstanceIndex::At(i)) => *i as i64,
                        _ => -1,
                    },
                    None => -1,
                };
                Ok(
                    Arc::new(RawCounter::new(i, clock.clone(), Arc::new(move || idx)))
                        as Arc<dyn Counter>,
                )
            }),
            Some(Arc::new(|f: &mut dyn FnMut(CounterName)| {
                for w in 0..4 {
                    f(CounterName::new("threads", "count")
                        .with_instance(CounterInstance::worker(0, w)));
                }
                f(CounterName::new("threads", "count").with_instance(CounterInstance::total(0)));
            })),
        );

        let resolved = reg
            .get_counters("/threads{locality#0/worker-thread#*}/count")
            .unwrap();
        assert_eq!(resolved.len(), 4);
        let values: Vec<i64> = resolved
            .iter()
            .map(|(_, c)| c.get_value_at(false, 0).value)
            .collect();
        assert_eq!(values, vec![0, 1, 2, 3]);
    }

    #[test]
    fn expansion_error_when_nothing_matches() {
        let reg = CounterRegistry::new();
        reg.register_raw("/test/value", "h", "1", Arc::new(|| 1));
        // The single-instance discoverer advertises only the bare path, so
        // a worker wildcard matches nothing.
        let err = match reg.get_counters("/test{locality#0/worker-thread#*}/value") {
            Ok(_) => panic!("expected wildcard expansion to fail"),
            Err(e) => e,
        };
        assert!(matches!(err, CounterError::UnknownInstance(_)));
    }

    #[test]
    fn active_set_protocol() {
        let reg = CounterRegistry::new();
        let v = Arc::new(AtomicI64::new(0));
        let v2 = v.clone();
        reg.register_monotonic(
            "/test/mono",
            "h",
            "1",
            Arc::new(move || v2.load(Ordering::Relaxed)),
        );
        assert_eq!(reg.add_active("/test/mono").unwrap(), 1);
        // Duplicate adds are ignored.
        assert_eq!(reg.add_active("/test/mono").unwrap(), 0);
        assert_eq!(reg.active_names(), vec!["/test/mono".to_string()]);

        v.store(5, Ordering::Relaxed);
        let vals = reg.evaluate_active_counters(true);
        assert_eq!(vals.len(), 1);
        assert_eq!(vals.samples()[0].value, 5.0);

        v.store(7, Ordering::Relaxed);
        let vals = reg.evaluate_active_counters(false);
        assert_eq!(
            vals.samples()[0].value,
            2.0,
            "evaluate(reset) must rebaseline"
        );

        reg.reset_active_counters();
        let vals = reg.evaluate_active_counters(false);
        assert_eq!(vals.samples()[0].value, 0.0);

        assert!(reg.remove_active("/test/mono"));
        assert!(!reg.remove_active("/test/mono"));
        assert!(reg.evaluate_active_counters(false).is_empty());
    }

    /// An active counter that panics reads as not ok beside a healthy
    /// one, and the caller keeps running; its second failure backs it off
    /// with the counts a plain engine reports
    /// (`a_failing_counter_is_skipped_then_read_again_within_the_cap`);
    /// every sample carries its batch's stamp.
    #[test]
    fn a_panicking_active_counter_reads_as_not_ok_and_backs_off() {
        let reg = CounterRegistry::new();
        let (_broken, evaluations) = crate::engine::tests::register_flaky(&reg);
        reg.register_raw("/test/value", "h", "1", Arc::new(|| 7));
        reg.add_active("/test/flaky").unwrap();
        reg.add_active("/test/value").unwrap();
        // Two failed reads, then 2^2 - 1 skips plus the jitter read 1
        // draws: six reads evaluate the broken counter twice.
        for _ in 0..6 {
            let batch = reg.evaluate_active_counters(false);
            let names: Vec<&str> = batch.iter().map(|(e, _)| e.canonical.as_str()).collect();
            assert_eq!(names, ["/test/flaky", "/test/value"]);
            let [broken, healthy] = batch.samples() else {
                panic!("one sample per active counter");
            };
            assert!(!broken.ok, "a panicking counter reads as not ok");
            assert!(healthy.ok && healthy.value == 7.0);
            for sample in batch.samples() {
                assert_eq!(sample.timestamp_ns, batch.timestamp_ns);
            }
        }
        let stats = reg.active.stats();
        let read_errors = stats.read_errors.load(Ordering::Relaxed);
        assert_eq!(
            (read_errors, stats.backoffs.load(Ordering::Relaxed)),
            (2, 1)
        );
        assert_eq!(
            evaluations.load(Ordering::Relaxed),
            2,
            "skipped reads evaluate nothing"
        );
    }

    /// `reset_active_counters` and `evaluate_active_counters(true)` leave
    /// every kind of counter at the same next reading, the one that counts
    /// from the reset: a cumulative counter, an arithmetic over a monotonic
    /// child (which passes the reset on), a statistics counter, a histogram
    /// and a value cell. The sources grow by 10 and 20 before the reset and
    /// by 40 after it.
    #[test]
    fn a_reset_and_a_reset_read_leave_the_same_next_reading() {
        let rows = [
            ("/x/m", 40.0),
            ("/arithmetics/add@/x/m,/x/g", 40.0 + 70.0),
            ("/statistics/average@/x/g", 70.0),
            ("/statistics/histogram@/x/g,0,100,10", 1.0),
            ("/x/cell", 40.0),
        ];
        let resets: [fn(&Arc<CounterRegistry>); 2] = [
            |reg| reg.reset_active_counters(),
            |reg| drop(reg.evaluate_active_counters(true)),
        ];
        for (name, expected) in rows {
            let next = resets.map(|reset| {
                let reg = CounterRegistry::new();
                let src = Arc::new(AtomicI64::new(0));
                let (s1, s2) = (src.clone(), src.clone());
                reg.register_monotonic(
                    "/x/m",
                    "h",
                    "1",
                    Arc::new(move || s1.load(Ordering::Relaxed)),
                );
                reg.register_raw(
                    "/x/g",
                    "h",
                    "1",
                    Arc::new(move || s2.load(Ordering::Relaxed)),
                );
                let cell = reg.register_value("/x/cell", "h", "1");
                let grow = |by| {
                    src.fetch_add(by, Ordering::Relaxed);
                    cell.add(by);
                };
                reg.add_active(name).unwrap();
                grow(10);
                reg.evaluate_active_counters(false);
                grow(20);
                reset(&reg);
                grow(40);
                reg.evaluate_active_counters(false).samples()[0].value
            });
            assert_eq!(next, [expected; 2], "{name}: after a reset, a reset-read");
        }
    }

    /// The one-shot reads are the guarded read: a counter that panics reads
    /// as not ok through a registry's and a distributed registry's
    /// `evaluate`, and a reset of an active set holding it returns, counts
    /// one read error and is accounted as one batch.
    #[test]
    fn one_shot_reads_and_resets_of_a_panicking_counter_return() {
        let reg = CounterRegistry::new();
        let (_broken, evaluations) = crate::engine::tests::register_flaky(&reg);
        let v = reg.evaluate("/test/flaky", false).unwrap();
        assert!(!v.status.is_ok(), "{v:?}");
        let localities = crate::DistributedRegistry::new(vec![reg.clone()]);
        let read = localities.evaluate("/test/flaky", true).unwrap();
        let [(_, v)] = &read[..] else {
            panic!("one counter, read {read:?}");
        };
        assert!(!v.status.is_ok(), "{v:?}");
        reg.add_active("/test/flaky").unwrap();
        let batches = reg.overhead_batches.load(Ordering::Relaxed);
        reg.reset_active_counters();
        let read_errors = reg.active.stats().read_errors.load(Ordering::Relaxed);
        assert_eq!(read_errors, 1);
        assert_eq!(reg.overhead_batches.load(Ordering::Relaxed), batches + 1);
        assert_eq!(evaluations.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn value_cell_round_trip() {
        let reg = CounterRegistry::new();
        let cell = reg.register_value("/app/progress", "app progress", "%");
        cell.set(42);
        assert_eq!(reg.evaluate("/app/progress", false).unwrap().value, 42);
    }

    #[test]
    fn counter_types_lists_builtins_and_registered() {
        let reg = CounterRegistry::new();
        reg.register_raw("/test/value", "h", "1", Arc::new(|| 1));
        let types = reg.counter_types();
        let names: Vec<&str> = types.iter().map(|t| t.name.as_str()).collect();
        assert!(names.contains(&"/test/value"));
        assert!(names.contains(&"/arithmetics/add"));
        assert!(names.contains(&"/statistics/average"));
    }

    #[test]
    fn unregister_removes_type_and_instances() {
        let reg = CounterRegistry::new();
        reg.register_raw("/test/value", "h", "1", Arc::new(|| 1));
        let _ = reg.evaluate("/test/value", false).unwrap();
        assert_eq!(reg.instance_count(), 1);
        reg.unregister_type("/test/value");
        assert!(reg.evaluate("/test/value", false).is_err());
        assert_eq!(reg.instance_count(), 0);
    }

    #[test]
    fn type_info_round_trip() {
        let reg = CounterRegistry::new();
        reg.register_raw("/test/value", "the help", "µs", Arc::new(|| 1));
        let info = reg.type_info("/test/value").unwrap();
        assert_eq!(info.help, "the help");
        assert_eq!(info.unit, "µs");
        assert!(reg.type_info("/nope/x").is_none());
    }

    /// Register a worker-style type whose discoverer advertises however
    /// many workers `count` currently says exist — a stand-in for the
    /// runtime's live topology.
    fn register_growable(reg: &Arc<CounterRegistry>, count: Arc<AtomicI64>) {
        let info = CounterInfo::new("/threads/count", CounterKind::Raw, "h", "1");
        let clock = reg.clock();
        reg.register_type(
            info,
            Arc::new(move |name, _| {
                let mut i = CounterInfo::new("/threads/count", CounterKind::Raw, "h", "1");
                i.name = name.canonical();
                Ok(Arc::new(RawCounter::new(i, clock.clone(), Arc::new(|| 1))) as Arc<dyn Counter>)
            }),
            Some(Arc::new(move |f: &mut dyn FnMut(CounterName)| {
                for w in 0..count.load(Ordering::Relaxed) {
                    f(CounterName::new("threads", "count")
                        .with_instance(CounterInstance::worker(0, w as u32)));
                }
            })),
        );
    }

    #[test]
    fn wildcard_active_query_tracks_topology_changes() {
        let reg = CounterRegistry::new();
        let workers = Arc::new(AtomicI64::new(2));
        register_growable(&reg, workers.clone());

        let added = reg
            .add_active("/threads{locality#0/worker-thread#*}/count")
            .unwrap();
        assert_eq!(added, 2);
        assert_eq!(reg.evaluate_active_counters(false).len(), 2);

        // Topology grows (e.g. a worker respawned with a new slot); the
        // query is live, so one generation bump re-expands it.
        workers.store(3, Ordering::Relaxed);
        reg.bump_generation();
        let vals = reg.evaluate_active_counters(false);
        assert_eq!(vals.len(), 3, "new instance joins within one evaluation");
        assert!(vals
            .iter()
            .any(|(e, _)| e.canonical == "/threads{locality#0/worker-thread#2}/count"));

        workers.store(1, Ordering::Relaxed);
        reg.bump_generation();
        assert_eq!(reg.evaluate_active_counters(false).len(), 1);
    }

    #[test]
    fn reentrant_counter_in_active_set_does_not_deadlock() {
        let reg = CounterRegistry::new();
        reg.register_raw("/src/child", "h", "1", Arc::new(|| 21));
        // A derived counter whose read path re-enters the registry: it
        // resolves and evaluates another counter *and* inspects the active
        // set while itself being evaluated from the active set.
        let weak = Arc::downgrade(&reg);
        reg.register_raw(
            "/derived/reentrant",
            "h",
            "1",
            Arc::new(move || {
                let Some(r) = weak.upgrade() else { return -1 };
                let names = r.active_names();
                assert!(names.iter().any(|n| n == "/derived/reentrant"));
                r.evaluate("/src/child", false).map_or(-1, |v| v.value * 2)
            }),
        );
        reg.add_active("/derived/reentrant").unwrap();
        let vals = reg.evaluate_active_counters(false);
        assert_eq!(vals.len(), 1);
        assert_eq!(vals.samples()[0].value, 42.0);
    }

    #[test]
    fn statistics_over_active_child_does_not_deadlock() {
        let reg = CounterRegistry::new();
        let v = Arc::new(AtomicI64::new(10));
        let v2 = v.clone();
        reg.register_raw(
            "/src/child",
            "h",
            "1",
            Arc::new(move || v2.load(Ordering::Relaxed)),
        );
        reg.add_active("/src/child").unwrap();
        reg.add_active("/statistics/average@/src/child").unwrap();
        let mut last = 0.0;
        for x in [10, 20, 30] {
            v.store(x, Ordering::Relaxed);
            let vals = reg.evaluate_active_counters(false);
            assert_eq!(vals.len(), 2);
            last = vals
                .iter()
                .find(|(e, _)| e.canonical == "/statistics/average@/src/child")
                .unwrap()
                .1
                .value;
        }
        assert_eq!(last, 20.0);
    }

    #[test]
    fn remove_active_canonicalizes_spelling() {
        let reg = CounterRegistry::new();
        let workers = Arc::new(AtomicI64::new(3));
        register_growable(&reg, workers);
        assert_eq!(
            reg.add_active("/threads{locality#0/worker-thread#2}/count")
                .unwrap(),
            1
        );
        // Leading-zero spelling parses to the same structured name.
        assert!(reg.remove_active("/threads{locality#00/worker-thread#02}/count"));
        assert!(reg.evaluate_active_counters(false).is_empty());
        assert!(!reg.remove_active("/threads{locality#0/worker-thread#2}/count"));
    }

    #[test]
    fn remove_one_expansion_keeps_wildcard_live() {
        let reg = CounterRegistry::new();
        let workers = Arc::new(AtomicI64::new(2));
        register_growable(&reg, workers.clone());
        reg.add_active("/threads{locality#0/worker-thread#*}/count")
            .unwrap();
        // Excluding one concrete expansion keeps the query itself live.
        assert!(reg.remove_active("/threads{locality#0/worker-thread#1}/count"));
        assert_eq!(
            reg.active_names(),
            vec!["/threads{locality#0/worker-thread#0}/count".to_string()]
        );
        // New instances still join; the exclusion sticks.
        workers.store(3, Ordering::Relaxed);
        reg.bump_generation();
        let names = reg.active_names();
        assert_eq!(names.len(), 2);
        assert!(!names
            .iter()
            .any(|n| n == "/threads{locality#0/worker-thread#1}/count"));
        // Re-adding clears the exclusion.
        reg.add_active("/threads{locality#0/worker-thread#*}/count")
            .unwrap();
        assert_eq!(reg.active_names().len(), 3);
    }

    #[test]
    fn overhead_counters_account_for_evaluations() {
        let reg = CounterRegistry::new();
        reg.register_raw("/test/value", "h", "1", Arc::new(|| 1));
        reg.add_active("/test/value").unwrap();
        for _ in 0..64 {
            let _ = reg.evaluate_active_counters(false);
        }
        let count = reg
            .evaluate("/counters{locality#0/total}/overhead/count", false)
            .unwrap();
        assert!(count.value >= 64, "batch count tracks evaluations");
        let time = reg
            .evaluate("/counters{locality#0/total}/overhead/time", false)
            .unwrap();
        assert!(time.value > 0, "evaluation wall time accumulates");
        // The overhead counters are discoverable like any other type.
        let names = reg.discover_all();
        assert!(names
            .iter()
            .any(|n| n.canonical() == "/counters{locality#0/total}/overhead/time"));
    }

    #[test]
    fn evaluation_holds_no_registry_lock() {
        // A counter that mutates the registry *during* evaluation: with a
        // lock held across get_value_at this would deadlock; with snapshots it
        // must merely take effect on the next batch.
        let reg = CounterRegistry::new();
        let weak = Arc::downgrade(&reg);
        reg.register_raw(
            "/test/mutator",
            "h",
            "1",
            Arc::new(move || {
                if let Some(r) = weak.upgrade() {
                    r.register_raw("/late/arrival", "h", "1", Arc::new(|| 9));
                    let _ = r.add_active("/late/arrival");
                }
                1
            }),
        );
        reg.add_active("/test/mutator").unwrap();
        let vals = reg.evaluate_active_counters(false);
        assert_eq!(vals.len(), 1, "current batch uses its own snapshot");
        let vals = reg.evaluate_active_counters(false);
        assert_eq!(vals.len(), 2, "mutation lands on the next batch");
    }
}
