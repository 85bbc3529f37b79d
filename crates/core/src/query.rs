//! The resolved counter set: how a list of counter specs becomes live
//! handles and stays current.
//!
//! A [`ResolvedQuery`] holds counter specs (wildcards allowed), expands
//! them into concrete `Arc<dyn Counter>` handles *once*, stamps the result
//! with the registry's topology [generation](CounterRegistry::generation)
//! and publishes it as an immutable list. Readers clone that list and read
//! it with no lock held; [`refresh`](ResolvedQuery::refresh) re-expands
//! only when the generation moved (a respawned worker, a late-registered
//! type), so a topology change is observed within one refresh and never on
//! every use. A query only resolves: a handle is its name, its canonical
//! string and its counter. Every in-process consumer reads through a
//! [`ScrapeEngine`](crate::engine::ScrapeEngine) over one, whose export
//! set carries each counter's reader state across a re-expansion.
//! DESIGN.md §12 has the protocol and its memory-ordering argument.

use std::collections::HashSet;
use std::sync::{Arc, Weak};

use crate::counter::{Clock, Counter};
use crate::error::CounterError;
use crate::name::CounterName;
use crate::prim::{mutation_armed, Mutex, Ordering, RwLock};
use crate::registry::CounterRegistry;
use crate::value::CounterValue;

/// One resolved counter: its name, canonical form and live handle.
pub struct QueryHandle {
    /// The concrete name, never read: held so an expansion's names are not
    /// freed while it copies the canonical strings into their chunks (a
    /// 10 002-counter re-expansion then took about 1.4× as long).
    _name: CounterName,
    /// The concrete name's canonical form, rendered once.
    pub(crate) canonical: String,
    /// The resolved counter instance.
    pub(crate) counter: Arc<dyn Counter>,
}

/// The one guarded read: `counter` at the caller's `timestamp_ns`
/// ([`Counter::get_value_at`]). A panic inside the read becomes an
/// unavailable placeholder with that stamp, so one broken counter cannot
/// unwind its reader.
pub(crate) fn read_counter(counter: &dyn Counter, reset: bool, timestamp_ns: u64) -> CounterValue {
    let read = || counter.get_value_at(reset, timestamp_ns);
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(read))
        .unwrap_or_else(|_| CounterValue::unavailable(timestamp_ns))
}

/// What the set resolves: the stored specs (wildcards preserved, insertion
/// order) and the concrete names removed from underneath a wildcard spec.
/// Its mutex serializes re-expansions and is **never** held across a
/// `Counter::get_value_at` call.
#[derive(Default)]
struct Specs {
    queries: Vec<CounterName>,
    excluded: HashSet<String>,
}

/// The published resolution. The lock around it guards only the swap —
/// readers clone the `Arc` and release immediately.
struct Resolved {
    /// Registry generation the expansion was taken against.
    generation: u64,
    handles: Arc<Vec<QueryHandle>>,
}

/// A set of counter specs resolved against a registry, cached per topology
/// generation.
///
/// The registry is held weakly (the registry's own active set reads
/// through one of these); once it is dropped the set stops refreshing and
/// its reads are no longer accounted.
pub struct ResolvedQuery {
    registry: Weak<CounterRegistry>,
    clock: Arc<Clock>,
    specs: Mutex<Specs>,
    resolved: RwLock<Resolved>,
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
        let query = Self::unresolved(Arc::downgrade(registry), registry.clock());
        query.store(registry, specs)?;
        Ok(query)
    }

    /// Parse, store and resolve `specs` eagerly, as
    /// [`resolve`](ResolvedQuery::resolve) does; a constructor's step.
    pub(crate) fn store(
        &self,
        registry: &Arc<CounterRegistry>,
        specs: &[String],
    ) -> Result<(), CounterError> {
        let mut stored = self.specs.lock();
        for spec in specs {
            stored.queries.push(spec.parse()?);
        }
        self.expand(registry, &stored, true).map(drop)
    }

    /// An empty set.
    pub(crate) fn unresolved(registry: Weak<CounterRegistry>, clock: Arc<Clock>) -> Self {
        ResolvedQuery {
            registry,
            clock,
            specs: Mutex::new(Specs::default()),
            resolved: RwLock::new(Resolved {
                generation: 0,
                handles: Arc::new(Vec::new()),
            }),
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
        let mut handles = Vec::with_capacity(previous.len());
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
                handles.push(QueryHandle {
                    _name: name,
                    canonical,
                    counter,
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
    pub fn handles(&self) -> Arc<Vec<QueryHandle>> {
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

    /// Run `work`, handed its start on the registry clock, and fold its
    /// wall time (returned with its result) into `/counters/overhead/*` as
    /// `batches` batches: every reader's one accounting, so the paper's
    /// overhead ratio covers them all.
    pub(crate) fn charged<R>(&self, batches: u64, work: impl FnOnce(u64) -> R) -> (R, u64) {
        let t0 = self.clock.now_ns();
        let out = work(t0);
        let dt = self.clock.now_ns().saturating_sub(t0);
        if let Some(registry) = self.registry.upgrade() {
            registry.overhead_time_ns.fetch_add(dt, Ordering::Relaxed);
            registry
                .overhead_batches
                .fetch_add(batches, Ordering::Relaxed);
        }
        (out, dt)
    }

    /// Evaluate every handle, in handle order, as one accounted batch: the
    /// guarded read at the batch's one stamp, a panic read as unavailable.
    /// A reader that names values or backs failures off uses an engine.
    pub fn evaluate(&self, reset: bool) -> Vec<CounterValue> {
        let handles = self.handles();
        let read = |t0| {
            handles
                .iter()
                .map(|h| read_counter(&*h.counter, reset, t0))
                .collect()
        };
        self.charged(1, read).0
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
        let v = read_counter(&*q.handles()[0].counter, false, 77);
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
            assert_eq!(vals[0].value, 7);
        }
        let batches = reg
            .evaluate("/counters{locality#0/total}/overhead/count", false)
            .unwrap();
        assert!(batches.value >= 32);
    }
}
