//! The resolved counter set: how a list of counter specs becomes live
//! handles and stays current.
//!
//! A [`ResolvedQuery`] holds counter specs (wildcards allowed), expands
//! them into concrete `Arc<dyn Counter>` handles *once*, stamps the result
//! with the registry's topology [generation](CounterRegistry::generation)
//! and publishes it as an immutable list. Readers clone that list and call
//! [`Counter::get_value`] with no lock held; [`refresh`](ResolvedQuery::refresh)
//! re-expands only when the generation moved (a respawned worker, a
//! late-registered type), so a topology change is observed within one
//! refresh and never on every use. Every consumer goes through this one
//! type: the registry's active set, the
//! [`Sampler`](crate::sampler::Sampler), the command-line printer, the
//! `rpx-serve` scrape engine and the `rpx-apex` policy engine. DESIGN.md
//! §12 has the protocol and its memory-ordering argument.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Weak};

use crate::counter::{Clock, Counter};
use crate::error::CounterError;
use crate::name::CounterName;
use crate::prim::{mutation_armed, Mutex, RwLock};
use crate::registry::CounterRegistry;
use crate::value::CounterValue;

/// One resolved counter: its concrete name (canonical form cached), the
/// live handle, and the consumer's per-counter state.
pub struct QueryHandle<S = ()> {
    /// Concrete (wildcard-free) counter name.
    pub name: CounterName,
    /// `name.canonical()`, cached because rendering a name allocates.
    pub canonical: String,
    /// The resolved counter instance.
    pub counter: Arc<dyn Counter>,
    /// Consumer state attached to this counter (a sampler's backoff, a
    /// scrape engine's export entry). Created when the canonical name
    /// first resolves and carried over every re-expansion for as long as
    /// the name stays resolvable.
    pub slot: S,
}

impl<S> QueryHandle<S> {
    /// Evaluate the counter defensively at the caller's `timestamp_ns`
    /// ([`Counter::get_value_at`]): a panic inside the read becomes an
    /// unavailable placeholder with that stamp, so one broken counter
    /// cannot unwind a periodic reader's thread.
    pub fn read(&self, reset: bool, timestamp_ns: u64) -> CounterValue {
        read_counter(&*self.counter, reset, timestamp_ns)
    }
}

/// [`QueryHandle::read`] for a bare counter: the one guarded read, shared
/// with the scrape engine.
pub(crate) fn read_counter(counter: &dyn Counter, reset: bool, timestamp_ns: u64) -> CounterValue {
    let read = || counter.get_value_at(reset, timestamp_ns);
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(read))
        .unwrap_or_else(|_| CounterValue::unavailable(timestamp_ns))
}

/// What the set resolves: the stored specs (wildcards preserved, insertion
/// order) and the concrete names removed from underneath a wildcard spec.
/// Its mutex serializes re-expansions and is **never** held across a
/// `Counter::get_value` call.
#[derive(Default)]
struct Specs {
    queries: Vec<CounterName>,
    excluded: HashSet<String>,
}

/// The published resolution. The lock around it guards only the swap —
/// readers clone the `Arc` and release immediately.
struct Resolved<S> {
    /// Registry generation the expansion was taken against.
    generation: u64,
    handles: Arc<Vec<QueryHandle<S>>>,
}

/// Creates the slot of a newly resolved counter from its canonical name
/// and handle.
type SlotInit<S> = Box<dyn Fn(&str, &Arc<dyn Counter>) -> S + Send + Sync>;

/// A set of counter specs resolved against a registry, cached per topology
/// generation. `S` is the consumer's per-counter [slot](QueryHandle::slot).
///
/// The registry is held weakly (the registry's own active set is one of
/// these); once it is dropped the set stops refreshing and its reads are
/// no longer accounted.
pub struct ResolvedQuery<S = ()> {
    registry: Weak<CounterRegistry>,
    clock: Arc<Clock>,
    specs: Mutex<Specs>,
    resolved: RwLock<Resolved<S>>,
    init: SlotInit<S>,
}

impl ResolvedQuery {
    /// Parse and resolve `specs` eagerly. Unknown types, unparseable names
    /// and wildcards matching nothing are errors *now*; afterwards the
    /// query is live and failures during re-expansion merely drop the
    /// affected entries until the topology provides them again.
    pub fn resolve(
        registry: &Arc<CounterRegistry>,
        specs: &[String],
    ) -> Result<Self, CounterError> {
        Self::resolve_with(registry, specs, |_, _| ())
    }
}

impl<S: Clone> ResolvedQuery<S> {
    /// [`resolve`](ResolvedQuery::resolve) for a consumer that keeps state
    /// per counter: `init` builds the [slot](QueryHandle::slot) of each
    /// newly resolved counter. It runs in handle order with re-expansions
    /// serialized, so a slot is created exactly once per resolvable name.
    pub fn resolve_with(
        registry: &Arc<CounterRegistry>,
        specs: &[String],
        init: impl Fn(&str, &Arc<dyn Counter>) -> S + Send + Sync + 'static,
    ) -> Result<Self, CounterError> {
        let query = Self::unresolved(Arc::downgrade(registry), registry.clock(), Box::new(init));
        {
            let mut stored = query.specs.lock();
            for spec in specs {
                stored.queries.push(spec.parse()?);
            }
            query.expand(registry, &stored, true)?;
        }
        Ok(query)
    }

    /// An empty set; the registry builds its active set from this.
    pub(crate) fn unresolved(
        registry: Weak<CounterRegistry>,
        clock: Arc<Clock>,
        init: SlotInit<S>,
    ) -> Self {
        ResolvedQuery {
            registry,
            clock,
            specs: Mutex::new(Specs::default()),
            resolved: RwLock::new(Resolved {
                generation: 0,
                handles: Arc::new(Vec::new()),
            }),
            init,
        }
    }

    /// Re-resolve if the registry topology moved since the handles were
    /// published. Safe to call from several threads. Returns `true` when
    /// the set of resolved names changed (not merely the generation stamp)
    /// so consumers can re-emit schema headers.
    pub fn refresh(&self) -> bool {
        let Some(registry) = self.registry.upgrade() else {
            return false;
        };
        let stale = || self.resolved.read().generation != registry.generation();
        if !stale() {
            return false;
        }
        let specs = self.specs.lock();
        // A concurrent refresh may have re-expanded while we waited.
        stale() && self.expand(&registry, &specs, false).unwrap_or(false)
    }

    /// Store `spec` (if new) and re-expand. Resolution errors surface
    /// before anything is stored. Returns how many concrete counters the
    /// call added to the set.
    pub(crate) fn add(
        &self,
        registry: &Arc<CounterRegistry>,
        spec: CounterName,
    ) -> Result<usize, CounterError> {
        let names = registry.expand_rendered(&spec)?;
        for (canonical, name) in &names {
            registry.instantiate(name, canonical)?;
        }
        let mut specs = self.specs.lock();
        // Re-adding un-excludes: the freshest intent wins.
        for (canonical, _) in &names {
            specs.excluded.remove(canonical);
        }
        if !specs.queries.contains(&spec) {
            specs.queries.push(spec);
        }
        let before = self.handles();
        let known: HashSet<&str> = before.iter().map(|h| h.canonical.as_str()).collect();
        self.expand(registry, &specs, false)?;
        Ok(self
            .handles()
            .iter()
            .filter(|h| !known.contains(h.canonical.as_str()))
            .count())
    }

    /// Drop the stored spec whose canonical form is `canonical`; failing
    /// that, exclude the concrete counter of that name from underneath the
    /// wildcard spec that resolved it (the spec stays live). Returns
    /// whether anything was removed.
    pub(crate) fn remove(&self, registry: &Arc<CounterRegistry>, canonical: &str) -> bool {
        let mut specs = self.specs.lock();
        let stored = specs.queries.len();
        specs.queries.retain(|q| q.canonical() != canonical);
        let mut removed = specs.queries.len() != stored;
        if !removed && self.handles().iter().any(|h| h.canonical == canonical) {
            removed = specs.excluded.insert(canonical.to_owned());
        }
        if removed {
            let _ = self.expand(registry, &specs, false);
        }
        removed
    }

    /// Expand the stored specs and publish the result; the caller holds
    /// the `specs` mutex, which serializes expansions. Specs that match
    /// nothing stay stored and contribute no handles (`strict` makes that,
    /// and any other resolution failure, an error instead). Expansion and
    /// instantiation take only the registry's short-lived `types` /
    /// `instances` locks. Returns whether the resolved names changed.
    fn expand(
        &self,
        registry: &Arc<CounterRegistry>,
        specs: &Specs,
        strict: bool,
    ) -> Result<bool, CounterError> {
        // Stamp before expanding: a concurrent bump mid-expansion leaves
        // the published list stale, so the next refresh re-expands —
        // changes are never lost, at worst re-observed once more.
        let mut generation = registry.generation();
        let previous = self.handles();
        let carried: HashMap<&str, &S> = previous
            .iter()
            .map(|h| (h.canonical.as_str(), &h.slot))
            .collect();
        let mut handles: Vec<QueryHandle<S>> = Vec::with_capacity(previous.len());
        let mut seen: HashSet<String> = HashSet::with_capacity(previous.len());
        for query in &specs.queries {
            let names = match registry.expand_rendered(query) {
                Ok(names) => names,
                Err(e) if strict => return Err(e),
                Err(_) => continue,
            };
            for (rendered, name) in names {
                if specs.excluded.contains(&rendered) || seen.contains(&rendered) {
                    continue;
                }
                let counter = match registry.instantiate(&name, &rendered) {
                    Ok(counter) => counter,
                    Err(e) if strict => return Err(e),
                    Err(_) => continue,
                };
                // The handle keeps a copy made now, so a batch walks its
                // strings in address order; `rendered` was allocated in
                // discovery order, before the sort.
                let canonical = rendered.clone();
                seen.insert(rendered);
                let slot = match carried.get(canonical.as_str()) {
                    Some(slot) => (*slot).clone(),
                    None => (self.init)(&canonical, &counter),
                };
                handles.push(QueryHandle {
                    name,
                    canonical,
                    counter,
                    slot,
                });
            }
        }
        if mutation_armed("registry-stamp-after-expand") {
            // Mutant: stamping *after* expansion lets a concurrent bump
            // land mid-expansion and mark a stale expansion as fresh —
            // the lost-topology-change the model-checked specs must catch.
            generation = registry.generation();
        }
        let changed = !handles
            .iter()
            .map(|h| &h.canonical)
            .eq(previous.iter().map(|h| &h.canonical));
        *self.resolved.write() = Resolved {
            generation,
            handles: Arc::new(handles),
        };
        Ok(changed)
    }

    /// The resolved handles, in spec order then expansion order, each
    /// counter once. An immutable list: iterate it with no lock held.
    pub fn handles(&self) -> Arc<Vec<QueryHandle<S>>> {
        self.resolved.read().handles.clone()
    }

    /// Canonical names of the resolved counters, in handle order.
    pub fn names(&self) -> Vec<String> {
        self.handles().iter().map(|h| h.canonical.clone()).collect()
    }

    /// The topology generation the handles were resolved against.
    pub fn generation(&self) -> u64 {
        self.resolved.read().generation
    }

    /// Map `each` over the handles as one accounted batch: no lock is held,
    /// `each` gets the batch's start timestamp (returned with the results),
    /// and the batch's wall time is folded into the registry's overhead
    /// counters — the paper's intrinsic-overhead ratio covers every reader.
    pub fn batch<R>(&self, mut each: impl FnMut(&QueryHandle<S>, u64) -> R) -> (u64, Vec<R>) {
        let t0 = self.clock.now_ns();
        let out = self.handles().iter().map(|h| each(h, t0)).collect();
        if let Some(registry) = self.registry.upgrade() {
            registry.record_query_overhead(self.clock.now_ns().saturating_sub(t0), 1);
        }
        (t0, out)
    }

    /// Evaluate every handle as one [`batch`](Self::batch). Each value
    /// carries a stamp its counter took when read, not the batch's. A
    /// panicking counter unwinds into the caller; periodic readers that
    /// must survive one use [`QueryHandle::read`] per handle instead.
    pub fn evaluate(&self, reset: bool) -> Vec<(String, CounterValue)> {
        self.batch(|h, _| (h.canonical.clone(), h.counter.get_value(reset)))
            .1
    }
}

impl<S: Clone> std::fmt::Debug for ResolvedQuery<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResolvedQuery")
            .field("specs", &self.specs.lock().queries.len())
            .field("handles", &self.handles().len())
            .field("generation", &self.generation())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::CounterInstance;
    use crate::value::{CounterInfo, CounterKind};
    use std::sync::atomic::{AtomicI64, Ordering};

    fn register_workers(reg: &Arc<CounterRegistry>, count: Arc<AtomicI64>) {
        let info = CounterInfo::new("/threads/count", CounterKind::Raw, "h", "1");
        let clock = reg.clock();
        reg.register_type(
            info,
            Arc::new(move |name, _| {
                let mut i = CounterInfo::new("/threads/count", CounterKind::Raw, "h", "1");
                i.name = name.canonical();
                Ok(Arc::new(crate::counter::RawCounter::new(
                    i,
                    clock.clone(),
                    Arc::new(|| 1),
                )) as Arc<dyn Counter>)
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
    fn resolve_is_eager_and_cached() {
        let reg = CounterRegistry::new();
        reg.register_raw("/test/v", "h", "1", Arc::new(|| 7));
        let q = ResolvedQuery::resolve(&reg, &["/test/v".into()]).unwrap();
        assert_eq!(q.names(), vec!["/test/v".to_string()]);
        assert!(ResolvedQuery::resolve(&reg, &["/none/x".into()]).is_err());
    }

    #[test]
    fn refresh_is_a_noop_within_a_generation() {
        let reg = CounterRegistry::new();
        reg.register_raw("/test/v", "h", "1", Arc::new(|| 7));
        let q = ResolvedQuery::resolve(&reg, &["/test/v".into()]).unwrap();
        let g = q.generation();
        assert!(!q.refresh());
        assert_eq!(q.generation(), g);
    }

    #[test]
    fn refresh_tracks_topology_growth() {
        let reg = CounterRegistry::new();
        let workers = Arc::new(AtomicI64::new(2));
        register_workers(&reg, workers.clone());
        let q =
            ResolvedQuery::resolve(&reg, &["/threads{locality#0/worker-thread#*}/count".into()])
                .unwrap();
        assert_eq!(q.handles().len(), 2);

        workers.store(4, Ordering::Relaxed);
        reg.bump_generation();
        assert!(q.refresh(), "grown topology must change the name set");
        assert_eq!(q.handles().len(), 4);

        // A bump without a topology change refreshes but reports no change.
        reg.bump_generation();
        assert!(!q.refresh());
    }

    #[test]
    fn slots_are_created_once_and_follow_their_counter() {
        let reg = CounterRegistry::new();
        let workers = Arc::new(AtomicI64::new(2));
        register_workers(&reg, workers.clone());
        let created = Arc::new(AtomicI64::new(0));
        let c2 = created.clone();
        let q = ResolvedQuery::resolve_with(
            &reg,
            &["/threads{locality#0/worker-thread#*}/count".into()],
            move |_, _| Arc::new(AtomicI64::new(c2.fetch_add(1, Ordering::Relaxed))),
        )
        .unwrap();
        q.handles()[1].slot.store(41, Ordering::Relaxed);

        workers.store(3, Ordering::Relaxed);
        reg.bump_generation();
        assert!(q.refresh());
        let slots: Vec<i64> = q
            .handles()
            .iter()
            .map(|h| h.slot.load(Ordering::Relaxed))
            .collect();
        assert_eq!(slots, vec![0, 41, 2], "stayers keep their slot");

        // A counter that leaves and comes back starts from a fresh slot.
        workers.store(1, Ordering::Relaxed);
        reg.bump_generation();
        q.refresh();
        workers.store(2, Ordering::Relaxed);
        reg.bump_generation();
        q.refresh();
        assert_eq!(q.handles()[1].slot.load(Ordering::Relaxed), 3);
        assert_eq!(created.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn overlapping_specs_resolve_each_counter_once() {
        let reg = CounterRegistry::new();
        register_workers(&reg, Arc::new(AtomicI64::new(2)));
        let q = ResolvedQuery::resolve(
            &reg,
            &[
                "/threads{locality#0/worker-thread#*}/count".into(),
                "/threads{locality#0/worker-thread#1}/count".into(),
            ],
        )
        .unwrap();
        assert_eq!(q.handles().len(), 2);
    }

    #[test]
    fn guarded_read_turns_a_panic_into_a_placeholder() {
        let reg = CounterRegistry::new();
        reg.register_raw("/test/bad", "h", "1", Arc::new(|| panic!("injected")));
        let q = ResolvedQuery::resolve(&reg, &["/test/bad".into()]).unwrap();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let v = q.handles()[0].read(false, 77);
        std::panic::set_hook(prev);
        assert_eq!(v, CounterValue::unavailable(77));
    }

    #[test]
    fn evaluate_records_overhead() {
        let reg = CounterRegistry::new();
        reg.register_raw("/test/v", "h", "1", Arc::new(|| 7));
        let q = ResolvedQuery::resolve(&reg, &["/test/v".into()]).unwrap();
        for _ in 0..32 {
            let vals = q.evaluate(false);
            assert_eq!(vals[0].1.value, 7);
        }
        let batches = reg
            .evaluate("/counters{locality#0/total}/overhead/count", false)
            .unwrap();
        assert!(batches.value >= 32);
    }
}
