//! The scrape engine: the one read path over a resolved counter set. The
//! registry's active set, the [`Sampler`](crate::sampler::Sampler), the
//! shutdown printer and each `rpx-apex` policy read through a private
//! engine, `rpx-serve`'s endpoints through a shared one. Each published
//! handle list is laid out flat once, an export entry and a read backoff
//! per counter, both carried by name from the previous layout; a scrape
//! reads that layout at one stamp into one sample column, a [`Batch`].
//!
//! ## Scrape-vs-update memory ordering
//!
//! A scrape never takes a registry lock: it clones the
//! [`ResolvedQuery`]'s published handle list and evaluates it with no lock
//! at all (DESIGN.md §12 has the refresh protocol). Counter updates on the
//! hot path are plain relaxed atomic increments inside the runtime; a
//! scrape reads them through `Counter::get_value_at`, which uses acquire
//! loads where a counter maintains multi-word state. The scrape therefore
//! observes each counter atomically but the *batch* is not a cross-counter
//! snapshot — the same contract HPX itself provides. A re-expansion
//! publishes a whole new list, so a scraper sees either the whole old
//! export set or the whole new one.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use crate::counter::Clock;
use crate::prim::{mutation_armed, Mutex};
use crate::query::{read_counter, QueryHandle};
use crate::text;
use crate::value::{CounterInfo, CounterValue};
use crate::{Counter, CounterError, CounterRegistry, ResolvedQuery};

/// One scraped value, stamped with the engine-wide scrape sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Engine-wide scrape sequence number: its batch's
    /// [`sequence`](Batch::sequence) plus one, shared by every counter
    /// sampled in that scrape.
    pub seq: u64,
    /// Registry-clock timestamp (ns since epoch) of the scrape: its
    /// batch's [`timestamp_ns`](Batch::timestamp_ns), the one clock read
    /// every counter of the scrape was handed.
    pub timestamp_ns: u64,
    /// Scaled counter value ([`CounterValue::scaled`]).
    pub value: f64,
    /// Whether the evaluation produced a usable value.
    pub ok: bool,
}

/// One exported counter: stable identity (`id`, `canonical`) and cached
/// metadata. Each layout carries it over from the previous one by
/// canonical name, so it survives topology refreshes as long as the name
/// stays resolvable.
pub struct ExportEntry {
    /// Stable export id: issued once per canonical name in resolution
    /// order, never reissued to another name. A name absent from one
    /// layout gets a new id when it returns.
    pub id: u32,
    /// Canonical counter name (`/object{instance}/counter`).
    pub canonical: String,
    /// Counter metadata at resolution time (kind, help, unit).
    pub info: CounterInfo,
    /// Payload shard, which fixes the export order (see [`ExportSet`]).
    shard: usize,
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Self-measurement of an engine. An engine built with
/// [`ScrapeEngine::new`] exports it as
/// `/counters/serve/{scrape-count,scrape-time,bytes}`; a sampler reports
/// its read errors and backoffs through
/// [`SamplerHealth`](crate::sampler::SamplerHealth).
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Completed scrapes.
    pub scrape_count: AtomicU64,
    /// Total ns spent producing scrape payloads: evaluating batches and
    /// rendering them for the text endpoint.
    pub scrape_time_ns: AtomicU64,
    /// Response payload bytes written to clients.
    pub bytes: AtomicU64,
    /// Counter reads that failed (panicked or returned a non-ok status).
    pub read_errors: AtomicU64,
    /// Times a repeatedly failing counter was put into (a longer) backoff.
    pub backoffs: AtomicU64,
}

/// A published handle list, laid out flat for the scrape once, when the
/// list is first scraped. The export order — the order every payload
/// lists the counters in — is by FNV-1a shard of the canonical name,
/// resolution order within a shard: stable between refreshes because a
/// name never changes shard.
struct ExportSet {
    /// The list this set was built from: compared by identity to tell a
    /// re-expansion, and held so its address cannot be reused.
    handles: Arc<Vec<QueryHandle>>,
    /// The entries, in export order.
    entries: Vec<Arc<ExportEntry>>,
    /// The counters in resolution order, each with its export position.
    sources: Vec<(Arc<dyn Counter>, u32)>,
    /// Each source's read backoff, in resolution order: consecutive failed
    /// reads in the high half, scrapes left to skip in the low half; one
    /// atomic, because scrapes may run concurrently.
    backoff: Vec<AtomicU64>,
    /// The id the next newcomer gets.
    next_id: u32,
    /// The text payload's layout.
    plan: text::Plan,
}

impl ExportSet {
    /// The set of `handles`, laid out after `previous` (the engine's
    /// `export` mutex held): the one place a reader's per-counter state
    /// crosses a re-expansion. A name `previous` exports keeps its entry
    /// and its backoff; a newcomer gets the next id, in resolution order.
    fn new(handles: Arc<Vec<QueryHandle>>, previous: Option<&ExportSet>, shards: usize) -> Self {
        assert!(handles.len() < u32::MAX as usize, "positions fit a u32");
        let mut next_id = previous.map_or(0, |p| p.next_id);
        let mut carried = HashMap::new();
        if let Some(p) = previous {
            for ((_, at), backoff) in p.sources.iter().zip(&p.backoff) {
                let entry = &p.entries[*at as usize];
                carried.insert(entry.canonical.as_str(), (entry, backoff));
            }
        }
        let (resolved, backoff): (Vec<_>, Vec<_>) = handles
            .iter()
            .map(|h| match carried.get(h.canonical.as_str()) {
                Some(&(entry, state)) => (entry.clone(), state.load(Ordering::Relaxed)),
                None => {
                    next_id += 1;
                    let entry = ExportEntry {
                        id: next_id - 1,
                        canonical: h.canonical.clone(),
                        info: h.counter.info(),
                        shard: shard_of(&h.canonical, shards),
                    };
                    (Arc::new(entry), 0)
                }
            })
            .unzip();
        let mut order: Vec<u32> = (0..handles.len() as u32).collect();
        // Stable, so resolution order survives within a shard.
        order.sort_by_key(|&i| resolved[i as usize].shard);
        let mut position = vec![0; handles.len()];
        for (at, &i) in order.iter().enumerate() {
            position[i as usize] = at as u32;
        }
        let entries: Vec<_> = order
            .iter()
            .map(|&i| resolved[i as usize].clone())
            .collect();
        let sources = handles
            .iter()
            .zip(position)
            .map(|(h, at)| (h.counter.clone(), at))
            .collect();
        ExportSet {
            plan: text::Plan::new(&entries),
            handles,
            entries,
            sources,
            backoff: backoff.into_iter().map(AtomicU64::new).collect(),
            next_id,
        }
    }
}

/// One scrape: a sample per exported counter, in export order, beside the
/// export set it was taken from. Iterating it yields `(entry, sample)`
/// pairs.
#[derive(Clone)]
pub struct Batch {
    /// The 0-based number of this scrape among its engine's scrapes (its
    /// samples' `seq` less one).
    pub sequence: u64,
    /// Registry-clock timestamp (ns) at which the scrape started.
    pub timestamp_ns: u64,
    /// Whether this scrape's refresh re-resolved the specs into other
    /// names than before. One batch reports each such change.
    pub renamed: bool,
    set: Arc<ExportSet>,
    samples: Vec<Sample>,
}

impl Batch {
    /// Samples in the batch.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the batch holds no sample.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The samples, one per entry in export order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// `(entry, sample)` pairs in export order.
    pub fn iter(&self) -> BatchIter<'_> {
        self.set.entries.iter().zip(&self.samples)
    }

    pub(crate) fn plan(&self) -> &text::Plan {
        &self.set.plan
    }
}
/// The iterator of a [`Batch`].
pub type BatchIter<'a> =
    std::iter::Zip<std::slice::Iter<'a, Arc<ExportEntry>>, std::slice::Iter<'a, Sample>>;

impl<'a> IntoIterator for &'a Batch {
    type Item = (&'a Arc<ExportEntry>, &'a Sample);
    type IntoIter = BatchIter<'a>;

    fn into_iter(self) -> BatchIter<'a> {
        self.iter()
    }
}

/// Generation-cached scrape engine over one registry, reached only through
/// its query's `Weak`, so the registry can own one: its active set.
pub struct ScrapeEngine {
    /// The resolved counters.
    pub(crate) query: ResolvedQuery,
    /// The flat views of the handle list `query` published last, keyed
    /// by that list's identity: a re-expansion publishes a new `Arc`.
    export: Mutex<Arc<ExportSet>>,
    /// Payload shards, which fix the export order.
    shards: usize,
    seq: AtomicU64,
    stats: Arc<ServeStats>,
}

impl ScrapeEngine {
    /// Resolve `specs` (wildcards allowed; unknown names are an error
    /// *now*). Registers the serve self-measurement counters on
    /// `registry`. `shards` fixes the export order only. `_history_cap` is
    /// ignored: the engine keeps no scrape history. It stays in the
    /// signature until the benchmark driver's calls drop it.
    pub fn new(
        registry: &Arc<CounterRegistry>,
        specs: &[String],
        shards: usize,
        _history_cap: usize,
    ) -> Result<Arc<Self>, CounterError> {
        // Register the self-measurement counters before resolving, so the
        // export specs may include the serve layer's own counters.
        let stats = Arc::new(ServeStats::default());
        register_serve_counters(registry, &stats);
        Self::with(registry, specs, shards, stats).map(Arc::new)
    }

    /// [`new`](Self::new) with no counter registered: a private reader's
    /// engine, its reads accounted in `stats`. One shard exports in
    /// resolution order.
    pub fn with(
        registry: &Arc<CounterRegistry>,
        specs: &[String],
        shards: usize,
        stats: Arc<ServeStats>,
    ) -> Result<Self, CounterError> {
        let engine = Self::unresolved(Arc::downgrade(registry), registry.clock(), shards, stats);
        engine.query.store(registry, specs)?;
        // Lay the export set out now rather than in the first scrape.
        engine.export_set();
        Ok(engine)
    }

    /// An engine over an empty set: the registry's active set, whose query
    /// `add_active` / `remove_active` edit.
    pub(crate) fn unresolved(
        registry: Weak<CounterRegistry>,
        clock: Arc<Clock>,
        shards: usize,
        stats: Arc<ServeStats>,
    ) -> Self {
        let shards = shards.max(1);
        let query = ResolvedQuery::unresolved(registry, clock);
        let export = Mutex::new(Arc::new(ExportSet::new(query.handles(), None, shards)));
        ScrapeEngine {
            query,
            export,
            shards,
            seq: AtomicU64::new(0),
            stats,
        }
    }

    /// Self-measurement counters (shared with the server).
    pub fn stats(&self) -> Arc<ServeStats> {
        self.stats.clone()
    }

    /// The flat views of the currently published handles. They are built
    /// only when `query` published a new list, read under the lock so each
    /// layout follows a list at least as new as the one before.
    fn export_set(&self) -> Arc<ExportSet> {
        let early = mutation_armed("engine-list-before-export-lock").then(|| self.query.handles());
        let mut export = self.export.lock();
        let handles = early.unwrap_or_else(|| self.query.handles());
        if !Arc::ptr_eq(&export.handles, &handles) {
            *export = Arc::new(ExportSet::new(handles, Some(&export), self.shards));
        }
        export.clone()
    }

    /// Every export entry, in export order.
    pub fn entries(&self) -> Vec<Arc<ExportEntry>> {
        self.export_set().entries.clone()
    }

    /// [`read`](Self::read) without reset: a scrape.
    pub fn collect(&self) -> Batch {
        self.read(false)
    }

    /// Read every exported counter, resetting each if `reset`: refresh,
    /// read in resolution order through the backoff (no registry lock; a
    /// counter that panics reads as not ok) at one stamp, write each sample
    /// at its export position. The read is [charged](Self::charged), and
    /// its two ends are its only clock reads.
    pub fn read(&self, reset: bool) -> Batch {
        let renamed = self.query.refresh();
        let batch = self.charged(1, |t0| {
            let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
            let set = self.export_set();
            let unread = Sample {
                seq,
                timestamp_ns: t0,
                value: 0.0,
                ok: false,
            };
            let mut samples = vec![unread; set.sources.len()];
            for ((counter, at), backoff) in set.sources.iter().zip(&set.backoff) {
                let v = self.read_one(backoff, &**counter, reset, t0, seq - 1);
                samples[*at as usize] = Sample {
                    value: v.scaled(),
                    ok: v.status.is_ok(),
                    ..unread
                };
            }
            Batch {
                sequence: seq - 1,
                timestamp_ns: t0,
                renamed,
                set,
                samples,
            }
        });
        self.stats.scrape_count.fetch_add(1, Ordering::Relaxed);
        batch
    }

    /// Read `counter` through its `backoff` word in the scrape with
    /// 0-based number `scrape`. A read that panics or returns a non-ok
    /// status is counted in `stats.read_errors`. A second failure in a row
    /// backs the counter off for 2, 4, … up to 32 scrapes, jittered by one
    /// so counters broken by one cause do not retry in lockstep; each
    /// backoff is counted in `stats.backoffs`. A backed-off counter reads
    /// as unavailable without being evaluated, so a batch keeps every
    /// column.
    fn read_one(
        &self,
        backoff: &AtomicU64,
        counter: &dyn Counter,
        reset: bool,
        t0: u64,
        scrape: u64,
    ) -> CounterValue {
        use Ordering::Relaxed;
        let state = backoff.load(Relaxed);
        if state as u32 > 0 {
            // Two concurrent scrapes may both skip on one decrement.
            let _ = backoff.compare_exchange(state, state - 1, Relaxed, Relaxed);
            return CounterValue::unavailable(t0);
        }
        let v = read_counter(counter, reset, t0);
        if v.status.is_ok() {
            if state != 0 {
                backoff.store(0, Relaxed);
            }
            return v;
        }
        self.stats.read_errors.fetch_add(1, Relaxed);
        let failures = ((state >> 32) as u32).saturating_add(1);
        let mut skip = 0;
        if failures > 1 {
            skip = (1 << failures.min(5)) - 1 + (splitmix64(scrape ^ (failures as u64) << 32) & 1);
            self.stats.backoffs.fetch_add(1, Relaxed);
        }
        backoff.store((failures as u64) << 32 | skip, Relaxed);
        v
    }

    /// Run `work` (handed its start on the registry clock) and fold its
    /// wall time into `/counters/serve/scrape-time` and the query's
    /// accounting, as `batches` batches. The server charges its render
    /// window with `batches = 0`: `collect` counted that batch.
    pub fn charged<R>(&self, batches: u64, work: impl FnOnce(u64) -> R) -> R {
        let (out, dt) = self.query.charged(batches, work);
        self.stats.scrape_time_ns.fetch_add(dt, Ordering::Relaxed);
        out
    }
}

fn shard_of(canonical: &str, shards: usize) -> usize {
    // FNV-1a over the canonical name: stable across refreshes.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in canonical.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    (h % shards as u64) as usize
}

type StatReader = Arc<dyn Fn(&ServeStats) -> u64 + Send + Sync>;

fn register_serve_counters(registry: &Arc<CounterRegistry>, stats: &Arc<ServeStats>) {
    let specs: [(&str, &str, &str, StatReader); 3] = [
        (
            "/counters/serve/scrape-count",
            "completed telemetry scrapes",
            "1",
            Arc::new(|s| s.scrape_count.load(Ordering::Relaxed)),
        ),
        (
            "/counters/serve/scrape-time",
            "total time spent evaluating telemetry scrape batches and rendering \
             them for the text endpoint",
            "ns",
            Arc::new(|s| s.scrape_time_ns.load(Ordering::Relaxed)),
        ),
        (
            "/counters/serve/bytes",
            "telemetry payload bytes written to clients",
            "bytes",
            Arc::new(|s| s.bytes.load(Ordering::Relaxed)),
        ),
    ];
    for (name, help, unit, read) in specs {
        let stats = stats.clone();
        registry.register_monotonic(name, help, unit, Arc::new(move || read(&stats) as i64));
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::AtomicI64;

    /// The seed of this crate's seeded tests: `RPX_TEST_SEED` (decimal, or
    /// hex with `0x`), else `0x5eed`.
    pub(crate) fn test_seed() -> u64 {
        std::env::var("RPX_TEST_SEED")
            .ok()
            .and_then(|raw| match raw.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16).ok(),
                None => raw.parse().ok(),
            })
            .unwrap_or(0x5eed)
    }

    /// A batch of the readings `(name, value)`, `None` for unavailable,
    /// as scrape `sequence` at `timestamp_ns`: a sink's input without a
    /// registry.
    pub(crate) fn scripted_batch(
        sequence: u64,
        timestamp_ns: u64,
        readings: &[(&str, Option<f64>)],
    ) -> Batch {
        use crate::value::CounterKind;
        let entries: Vec<Arc<ExportEntry>> = (0..)
            .zip(readings)
            .map(|(id, (name, _))| {
                Arc::new(ExportEntry {
                    id,
                    canonical: name.to_string(),
                    info: CounterInfo::new(*name, CounterKind::Raw, "h", "1"),
                    shard: 0,
                })
            })
            .collect();
        let seq = sequence + 1;
        let samples = readings
            .iter()
            .map(|(_, value)| Sample {
                seq,
                timestamp_ns,
                value: value.unwrap_or(0.0),
                ok: value.is_some(),
            })
            .collect();
        let set = ExportSet {
            handles: Arc::new(Vec::new()),
            next_id: entries.len() as u32,
            plan: text::Plan::new(&entries),
            entries,
            sources: Vec::new(),
            backoff: Vec::new(),
        };
        Batch {
            sequence,
            timestamp_ns,
            renamed: false,
            set: Arc::new(set),
            samples,
        }
    }

    fn engine_with(specs: &[&str]) -> (Arc<CounterRegistry>, Arc<ScrapeEngine>, Arc<AtomicI64>) {
        let reg = CounterRegistry::new();
        let v = Arc::new(AtomicI64::new(0));
        let v2 = v.clone();
        reg.register_monotonic(
            "/app/requests",
            "h",
            "1",
            Arc::new(move || v2.load(Ordering::Relaxed)),
        );
        let specs: Vec<String> = specs.iter().map(|s| s.to_string()).collect();
        let engine = ScrapeEngine::new(&reg, &specs, 4, 8).unwrap();
        (reg, engine, v)
    }

    #[test]
    fn collect_samples_in_increasing_sequence() {
        let (_reg, engine, v) = engine_with(&["/app/requests"]);
        v.store(3, Ordering::Relaxed);
        let batch = engine.collect();
        assert_eq!(batch.len(), 1);
        let (entry, first) = batch.iter().next().unwrap();
        assert_eq!(entry.canonical, "/app/requests");
        assert_eq!(first.value, 3.0);
        assert!(first.ok);
        v.store(9, Ordering::Relaxed);
        let second = engine.collect().samples()[0];
        assert_eq!(second.value, 9.0);
        // Scrape sequence numbers are engine-wide and increasing.
        assert_eq!(first.seq + 1, second.seq);
    }

    /// `/pool{locality#0/worker-thread#N}/size` for N below `count`: a
    /// stand-in for the runtime's live topology.
    fn register_growable(reg: &Arc<CounterRegistry>, count: Arc<AtomicI64>) {
        use crate::counter::RawCounter;
        use crate::value::CounterKind;
        use crate::{CounterInstance, CounterName};
        let clock = reg.clock();
        reg.register_type(
            CounterInfo::new("/pool/size", CounterKind::Raw, "h", "1"),
            Arc::new(move |name, _| {
                let mut i = CounterInfo::new("/pool/size", CounterKind::Raw, "h", "1");
                i.name = name.canonical();
                Ok(Arc::new(RawCounter::new(i, clock.clone(), Arc::new(|| 1))) as Arc<dyn Counter>)
            }),
            Some(Arc::new(move |f: &mut dyn FnMut(CounterName)| {
                for w in 0..count.load(Ordering::Relaxed) {
                    f(CounterName::new("pool", "size")
                        .with_instance(CounterInstance::worker(0, w as u32)));
                }
            })),
        );
    }

    const POOL: &str = "/pool{locality#0/worker-thread#*}/size";

    /// The serve-side leg of `sampler_picks_up_topology_changes`: after a
    /// bump with a grown discoverer the engine exports the names the
    /// active set and a bare query report, and the entries that stayed
    /// keep their export id.
    #[test]
    fn refresh_preserves_entry_identity_across_generations() {
        let reg = CounterRegistry::new();
        let workers = Arc::new(AtomicI64::new(2));
        register_growable(&reg, workers.clone());
        reg.add_active(POOL).unwrap();
        let query = ResolvedQuery::resolve(&reg, &[POOL.into()]).unwrap();
        let engine = ScrapeEngine::new(&reg, &[POOL.into()], 4, 8).unwrap();
        engine.collect();
        let before: Vec<(String, u32)> = engine
            .entries()
            .iter()
            .map(|e| (e.canonical.clone(), e.id))
            .collect();
        assert_eq!(before.len(), 2);

        workers.store(3, Ordering::Relaxed);
        reg.bump_generation();
        engine.collect();
        let after = engine.entries();
        let mut exported: Vec<String> = after.iter().map(|e| e.canonical.clone()).collect();
        exported.sort();
        assert_eq!(exported, reg.active_names());
        query.refresh();
        assert_eq!(exported, query.names());
        for (canonical, id) in before {
            let entry = after.iter().find(|e| e.canonical == canonical).unwrap();
            assert_eq!(entry.id, id, "export id must survive a bump");
        }
        let newcomer = after.iter().find(|e| e.canonical.contains("#2")).unwrap();
        assert_eq!(newcomer.id, 2, "ids are issued in resolution order");
    }

    /// Two scrapers and a topology that grows under them: every instance
    /// ends up exported, under one dictionary id each.
    #[test]
    fn concurrent_collects_during_bumps_lose_nothing_and_reuse_no_id() {
        const GROWN: i64 = 24;
        let reg = CounterRegistry::new();
        let workers = Arc::new(AtomicI64::new(1));
        register_growable(&reg, workers.clone());
        let engine = ScrapeEngine::new(&reg, &[POOL.into()], 4, 2).unwrap();
        let start = std::sync::Barrier::new(3);
        let seen: Vec<Vec<(u32, String)>> = std::thread::scope(|s| {
            let scrapers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        let mut seen = Vec::new();
                        // Scrape until the fully grown set was exported.
                        loop {
                            let batch = engine.collect();
                            seen.extend(batch.iter().map(|(e, _)| (e.id, e.canonical.clone())));
                            if batch.len() as i64 == GROWN {
                                return seen;
                            }
                        }
                    })
                })
                .collect();
            s.spawn(|| {
                start.wait();
                for w in 2..=GROWN {
                    workers.store(w, Ordering::Relaxed);
                    reg.bump_generation();
                }
            });
            scrapers.into_iter().map(|t| t.join().unwrap()).collect()
        });
        let mut by_id = std::collections::BTreeMap::new();
        for (id, canonical) in seen.into_iter().flatten() {
            let owner = by_id.entry(id).or_insert_with(|| canonical.clone());
            assert_eq!(*owner, canonical, "dictionary id {id} issued twice");
        }
        let names: std::collections::BTreeSet<&String> = by_id.values().collect();
        assert_eq!(names.len(), by_id.len(), "a counter got a second id");
        assert_eq!(by_id.len() as i64, GROWN, "an instance was lost");
        assert_eq!(engine.entries().len() as i64, GROWN);
    }

    /// A layout carries each entry over by name: a name that stays keeps
    /// its entry, one absent from a laid-out set returns under a new id,
    /// and no id ever names two counters.
    #[test]
    fn export_entries_follow_their_name_across_layouts() {
        let reg = CounterRegistry::new();
        let workers = Arc::new(AtomicI64::new(2));
        register_growable(&reg, workers.clone());
        let engine = ScrapeEngine::new(&reg, &[POOL.into()], 4, 8).unwrap();
        let mut owners = std::collections::BTreeMap::new();
        let mut layout = |count: i64| {
            workers.store(count, Ordering::Relaxed);
            reg.bump_generation();
            let entries = engine.collect().set.entries.clone();
            for e in &entries {
                let owner = owners.entry(e.id).or_insert_with(|| e.canonical.clone());
                assert_eq!(*owner, e.canonical, "id {} names two counters", e.id);
            }
            entries
        };
        let find = |entries: &[Arc<ExportEntry>], worker: u32| {
            let instance = format!("worker-thread#{worker}}}");
            entries
                .iter()
                .find(|e| e.canonical.contains(&instance))
                .cloned()
                .unwrap()
        };
        let before = layout(2);
        let grown = layout(3);
        for w in 0..2 {
            assert!(Arc::ptr_eq(&find(&before, w), &find(&grown, w)), "#{w}");
        }
        assert_eq!(find(&grown, 2).id, 2);

        // Shrunk and regrown between two layouts: nothing left a laid-out
        // set, so nothing changes id.
        workers.store(1, Ordering::Relaxed);
        reg.bump_generation();
        assert!(engine.query.refresh());
        let regrown = layout(3);
        assert_eq!(find(&regrown, 2).id, 2);

        // Laid out without #1 and #2: they return under new ids, in
        // resolution order, and #0 keeps its entry throughout.
        layout(1);
        let back = layout(3);
        assert_eq!((find(&back, 1).id, find(&back, 2).id), (3, 4));
        assert!(Arc::ptr_eq(&find(&before, 0), &find(&back, 0)));
        assert_eq!(owners.len(), 5);
    }

    /// A `/test/flaky` counter that panics while the returned flag is set,
    /// and the count of its evaluations.
    pub(crate) fn register_flaky(
        reg: &Arc<CounterRegistry>,
    ) -> (Arc<std::sync::atomic::AtomicBool>, Arc<AtomicU64>) {
        let broken = Arc::new(std::sync::atomic::AtomicBool::new(true));
        let evaluations = Arc::new(AtomicU64::new(0));
        let (b, e) = (broken.clone(), evaluations.clone());
        reg.register_raw(
            "/test/flaky",
            "h",
            "1",
            Arc::new(move || {
                e.fetch_add(1, Ordering::Relaxed);
                if b.load(Ordering::Relaxed) {
                    // Unwinds without running the panic hook: no test noise.
                    std::panic::resume_unwind(Box::new("injected counter failure"));
                }
                1
            }),
        );
        (broken, evaluations)
    }

    /// A counter fails twice, is backed off, recovers meanwhile and reads
    /// ok again within the cap — through a plain engine and through a
    /// sampler, with the same exact counts.
    #[test]
    fn a_failing_counter_is_skipped_then_read_again_within_the_cap() {
        use crate::sampler::{MemorySink, Sampler, SamplerConfig};
        // Two failed reads; then 2^2 - 1 skips plus the jitter scrape 1
        // draws, during which the counter recovers; then ok reads.
        const OK: [bool; 9] = [false, false, false, false, false, false, true, true, true];
        const RECOVERS_AT: usize = 2;

        let reg = CounterRegistry::new();
        let (broken, evaluations) = register_flaky(&reg);
        let engine = ScrapeEngine::new(&reg, &["/test/flaky".into()], 4, 8).unwrap();
        let mut ok = Vec::new();
        for scrape in 0..OK.len() {
            if scrape == RECOVERS_AT {
                broken.store(false, Ordering::Relaxed);
            }
            ok.push(engine.collect().samples()[0].ok);
        }
        assert_eq!(ok, OK);
        let stats = engine.stats();
        let counts = |s: &ServeStats| {
            let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
            (load(&s.read_errors), load(&s.backoffs))
        };
        assert_eq!(counts(&stats), (2, 1));
        assert_eq!(
            evaluations.load(Ordering::Relaxed),
            5,
            "skipped reads evaluate nothing"
        );

        let reg = CounterRegistry::new();
        let (broken, evaluations) = register_flaky(&reg);
        let sink = MemorySink::new();
        let batches = sink.batches();
        let config = SamplerConfig::new(
            vec!["/test/flaky".into()],
            std::time::Duration::from_secs(3600),
        );
        let sampler = Sampler::start(&reg, config, Box::new(sink)).unwrap();
        // The start-up tick, then one tick per flush.
        while batches.lock().is_empty() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        for tick in 1..OK.len() {
            if tick == RECOVERS_AT {
                broken.store(false, Ordering::Relaxed);
            }
            assert!(sampler.flush_now());
        }
        let health = sampler.health();
        sampler.stop();
        let ok: Vec<bool> = batches.lock().iter().map(|b| b.samples()[0].ok).collect();
        assert_eq!(ok, OK);
        assert_eq!((health.read_errors(), health.backoffs()), (2, 1));
        assert_eq!(
            evaluations.load(Ordering::Relaxed),
            5,
            "skipped reads evaluate nothing"
        );
    }

    /// A counter that records every stamp it is handed.
    struct Stamped {
        info: CounterInfo,
        handed: Arc<Mutex<Vec<u64>>>,
    }

    impl Counter for Stamped {
        fn info(&self) -> CounterInfo {
            self.info.clone()
        }

        fn get_value_at(&self, _reset: bool, now_ns: u64) -> CounterValue {
            self.handed.lock().push(now_ns);
            CounterValue::new(1, now_ns)
        }
    }

    /// A counter that stamps its read on its own, ignoring the stamp it is
    /// handed.
    struct OwnStamp;

    impl Counter for OwnStamp {
        fn info(&self) -> CounterInfo {
            CounterInfo::new("/test/own", crate::value::CounterKind::Raw, "h", "1")
        }

        fn get_value_at(&self, _reset: bool, _now_ns: u64) -> CounterValue {
            CounterValue::new(2, u64::MAX)
        }
    }

    /// A scrape reads the clock once: the counter that records its stamp
    /// is handed the batch's — read directly and as the child of a
    /// statistics, an arithmetic and a histogram counter — and every
    /// sample carries it: a monotonic counter's, and one whose own read
    /// stamps differently.
    #[test]
    fn a_scrape_stamps_every_sample_with_its_start() {
        let (reg, _engine, _v) = engine_with(&["/app/requests"]);
        let handed = Arc::new(Mutex::new(Vec::new()));
        let h = handed.clone();
        reg.register_type(
            CounterInfo::new("/test/stamp", crate::value::CounterKind::Raw, "h", "1"),
            Arc::new(move |name, _| {
                let info =
                    CounterInfo::new(name.canonical(), crate::value::CounterKind::Raw, "h", "1");
                let handed = h.clone();
                Ok(Arc::new(Stamped { info, handed }) as Arc<dyn Counter>)
            }),
            None,
        );
        reg.register_type(
            OwnStamp.info(),
            Arc::new(|_, _| Ok(Arc::new(OwnStamp) as Arc<dyn Counter>)),
            None,
        );
        let specs = [
            "/app/requests",
            "/test/stamp",
            "/test/own",
            "/statistics/average@/test/stamp",
            "/arithmetics/add@/test/stamp,/test/stamp",
            "/statistics/histogram@/test/stamp,0,10,5",
        ]
        .map(String::from);
        // The direct read, and one per child of each composite.
        const READS_PER_SCRAPE: usize = 5;
        let engine = ScrapeEngine::new(&reg, &specs, 4, 2).unwrap();
        let mut stamps = Vec::new();
        for _ in 0..3 {
            let batch = engine.collect();
            assert_eq!(batch.len(), specs.len());
            assert!(batch.samples().iter().all(|s| s.ok));
            for (entry, sample) in &batch {
                assert_eq!(
                    sample.timestamp_ns, batch.timestamp_ns,
                    "{}",
                    entry.canonical
                );
            }
            stamps.extend([batch.timestamp_ns; READS_PER_SCRAPE]);
        }
        assert_eq!(*handed.lock(), stamps);
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]));
    }

    /// A name change is reported by the batch whose refresh found it, and
    /// by that batch only.
    #[test]
    fn a_rename_is_reported_by_one_batch() {
        let reg = CounterRegistry::new();
        let workers = Arc::new(AtomicI64::new(2));
        register_growable(&reg, workers.clone());
        let engine = ScrapeEngine::new(&reg, &[POOL.into()], 4, 8).unwrap();
        assert!(!engine.collect().renamed);
        assert!(!engine.collect().renamed, "nothing moved");

        workers.store(3, Ordering::Relaxed);
        reg.bump_generation();
        let batch = engine.collect();
        assert!(batch.renamed, "the batch after the change reports it");
        assert_eq!(batch.len(), 3);
        assert!(!engine.collect().renamed, "…and only that batch");

        // A bump that changes no name is no rename.
        reg.bump_generation();
        assert!(!engine.collect().renamed);
    }

    #[test]
    fn collect_tracks_topology_growth() {
        let (reg, engine, _v) = engine_with(&["/app/requests"]);
        assert_eq!(engine.collect().len(), 1);
        reg.register_raw("/app/errors", "h", "1", Arc::new(|| 0));
        // The new type is only exported if a spec matches it; /app/requests
        // does not, so the set is unchanged…
        assert_eq!(engine.collect().len(), 1);
        // …but self-measurement proves the scrapes were accounted.
        assert!(engine.stats().scrape_count.load(Ordering::Relaxed) >= 2);
    }

    #[test]
    fn unknown_spec_errors_eagerly() {
        let reg = CounterRegistry::new();
        assert!(ScrapeEngine::new(&reg, &["/none/x".into()], 2, 4).is_err());
    }
}
