//! The scrape front-end: a resolved counter set whose handle slots carry
//! the export state — dictionary ids, per-counter history rings — plus
//! exact drop accounting.
//!
//! ## Scrape-vs-update memory ordering
//!
//! A scrape never takes a registry lock: it clones the
//! [`ResolvedQuery`]'s published handle list and evaluates it with no lock
//! at all (DESIGN.md §12 has the refresh protocol). Counter updates on the
//! hot path are plain relaxed atomic increments inside the runtime; a
//! scrape reads them through `Counter::get_value`, which uses acquire
//! loads where a counter maintains multi-word state. The scrape therefore
//! observes each counter atomically but the *batch* is not a cross-counter
//! snapshot — the same contract the in-process sampler and HPX itself
//! provide. A re-expansion publishes a whole new list, so a scraper sees
//! either the whole old export set or the whole new one.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rpx_counters::query::QueryHandle;
use rpx_counters::value::CounterInfo;
use rpx_counters::{CounterError, CounterRegistry, ResolvedQuery};

use crate::text;

/// One scraped value, stamped with the engine-wide scrape sequence so a
/// subscriber that receives both a backfill and the live stream can
/// deduplicate exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Engine-wide scrape sequence number (1-based; every counter sampled
    /// in the same scrape shares it).
    pub seq: u64,
    /// Registry-clock timestamp (ns since epoch) of the scrape.
    pub timestamp_ns: u64,
    /// Scaled counter value ([`rpx_counters::CounterValue::scaled`]).
    pub value: f64,
    /// Whether the evaluation produced a usable value.
    pub ok: bool,
}

/// Fixed-capacity ring of the most recent samples of one exported
/// counter, for late binary-stream subscribers to backfill from.
///
/// Ring-buffer drop rule: an eviction forced by a full ring is counted —
/// in this ring and in the engine-wide total behind
/// `/counters/serve/dropped` — never silent.
pub struct HistoryRing {
    cap: usize,
    state: Mutex<RingState>,
}

struct RingState {
    buf: VecDeque<Sample>,
    dropped: u64,
}

impl HistoryRing {
    fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        HistoryRing {
            cap,
            // Sized once: a ring never holds more than `cap` samples.
            state: Mutex::new(RingState {
                buf: VecDeque::with_capacity(cap),
                dropped: 0,
            }),
        }
    }

    /// Append `s` and return how many samples that evicted; the caller
    /// owes the engine-wide total that many.
    fn push(&self, s: Sample) -> u64 {
        let mut state = self.state.lock();
        let mut evicted = 0;
        while state.buf.len() >= self.cap {
            state.buf.pop_front();
            evicted += 1;
        }
        state.dropped += evicted;
        state.buf.push_back(s);
        evicted
    }

    /// The most recent sample, if any scrape happened yet.
    pub fn latest(&self) -> Option<Sample> {
        self.state.lock().buf.back().copied()
    }

    /// The most recent `n` samples, oldest first.
    pub fn tail(&self, n: usize) -> Vec<Sample> {
        let state = self.state.lock();
        state
            .buf
            .iter()
            .skip(state.buf.len().saturating_sub(n))
            .copied()
            .collect()
    }

    /// Samples evicted from this ring so far (exact).
    pub fn dropped(&self) -> u64 {
        self.state.lock().dropped
    }

    /// Capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

/// One exported counter: stable identity (`id`, `canonical`), cached
/// metadata, its history ring, and what every text payload says about it
/// apart from the value. It lives in the counter's handle slot, so the
/// entry — and with it the ring and the binary-stream dictionary id —
/// survives topology refreshes as long as the canonical name stays
/// resolvable.
pub struct ExportEntry {
    /// Stable dictionary id for the binary stream.
    pub id: u32,
    /// Canonical counter name (`/object{instance}/counter`).
    pub canonical: String,
    /// Counter metadata at resolution time (kind, help, unit).
    pub info: CounterInfo,
    /// Recent samples for subscriber backfill.
    pub ring: HistoryRing,
    /// Text-exposition metric family, resolved from `canonical` once (see
    /// [`text::resolve_exposition`]).
    pub(crate) family: String,
    /// Text-exposition sample line up to the value, resolved likewise.
    pub(crate) head: String,
    /// Position in the export order (see [`ExportSet`]).
    shard: usize,
}

impl ExportEntry {
    pub(crate) fn new(
        id: u32,
        canonical: &str,
        info: CounterInfo,
        history_cap: usize,
        shards: usize,
    ) -> Self {
        let (family, head) = text::resolve_exposition(canonical);
        ExportEntry {
            id,
            canonical: canonical.to_owned(),
            info,
            ring: HistoryRing::new(history_cap),
            family,
            head,
            shard: shard_of(canonical, shards),
        }
    }
}

/// Self-measurement of the serve layer, exported as
/// `/counters/serve/{scrape-count,scrape-time,bytes,dropped}`.
#[derive(Default)]
pub struct ServeStats {
    /// Completed scrapes (text endpoint + publisher ticks).
    pub scrape_count: AtomicU64,
    /// Total ns spent producing scrape payloads: evaluating batches,
    /// rendering them for the text endpoint, encoding them for binary
    /// subscribers.
    pub scrape_time_ns: AtomicU64,
    /// Response/stream payload bytes written to clients.
    pub bytes: AtomicU64,
    /// History-ring evictions, engine-wide: the sum of every ring's
    /// [`HistoryRing::dropped`] whenever no scrape is in flight.
    pub history_dropped: AtomicU64,
    /// Binary-stream frames dropped because a subscriber could not keep
    /// up (its connection is then closed — a stalled stream must not
    /// stall the publisher).
    pub stream_dropped: AtomicU64,
}

impl ServeStats {
    /// All records lost anywhere in the serve pipeline.
    pub fn dropped(&self) -> u64 {
        self.history_dropped.load(Ordering::Relaxed) + self.stream_dropped.load(Ordering::Relaxed)
    }
}

type Handles = Arc<Vec<QueryHandle<Arc<ExportEntry>>>>;

/// A published handle list with the order every payload lists it in: by
/// FNV-1a shard of the canonical name, resolution order within a shard —
/// stable between refreshes because a name never changes shard.
struct ExportSet {
    handles: Handles,
    /// Indices into `handles`, in export order.
    order: Vec<u32>,
}

impl ExportSet {
    fn new(handles: Handles) -> Self {
        let mut order: Vec<u32> = (0..handles.len() as u32).collect();
        // Stable, so resolution order survives within a shard.
        order.sort_by_key(|&i| handles[i as usize].slot.shard);
        ExportSet { handles, order }
    }

    fn iter(&self) -> impl ExactSizeIterator<Item = &QueryHandle<Arc<ExportEntry>>> {
        self.order.iter().map(|&i| &self.handles[i as usize])
    }
}

/// Generation-cached scrape engine over one registry.
pub struct ScrapeEngine {
    registry: Arc<CounterRegistry>,
    /// The export set; each handle's slot is its [`ExportEntry`].
    query: ResolvedQuery<Arc<ExportEntry>>,
    /// The export order of the handle list `query` published last, keyed
    /// by that list's identity: a re-expansion publishes a new `Arc`.
    export: Mutex<Arc<ExportSet>>,
    seq: AtomicU64,
    stats: Arc<ServeStats>,
}

impl ScrapeEngine {
    /// Resolve `specs` (wildcards allowed; unknown names are an error
    /// *now*). Registers the serve self-measurement counters on
    /// `registry`. `shards` fixes the export order only.
    pub fn new(
        registry: &Arc<CounterRegistry>,
        specs: &[String],
        shards: usize,
        history_cap: usize,
    ) -> Result<Arc<Self>, CounterError> {
        // Register the self-measurement counters before resolving, so the
        // export specs may include the serve layer's own counters.
        let stats = Arc::new(ServeStats::default());
        register_serve_counters(registry, &stats);
        let shards = shards.max(1);
        let next_id = AtomicU64::new(0);
        let query = ResolvedQuery::resolve_with(registry, specs, move |canonical, counter| {
            let id = next_id.fetch_add(1, Ordering::Relaxed) as u32;
            Arc::new(ExportEntry::new(
                id,
                canonical,
                counter.info(),
                history_cap,
                shards,
            ))
        })?;
        let export = Mutex::new(Arc::new(ExportSet::new(query.handles())));
        Ok(Arc::new(ScrapeEngine {
            registry: registry.clone(),
            query,
            export,
            seq: AtomicU64::new(0),
            stats,
        }))
    }

    /// The registry this engine scrapes.
    pub fn registry(&self) -> &Arc<CounterRegistry> {
        &self.registry
    }

    /// Self-measurement counters (shared with the server).
    pub fn stats(&self) -> Arc<ServeStats> {
        self.stats.clone()
    }

    /// Re-resolve the specs if the registry topology moved. Entries whose
    /// canonical name survives keep their ring and dictionary id. Returns
    /// `true` if the export set changed.
    pub fn refresh_if_stale(&self) -> bool {
        self.query.refresh()
    }

    /// The currently published handles in export order. The order is
    /// recomputed only when `query` published a new list; concurrent
    /// scrapers holding different lists each get a consistent set.
    fn export_set(&self) -> Arc<ExportSet> {
        let handles = self.query.handles();
        let mut export = self.export.lock();
        if !Arc::ptr_eq(&export.handles, &handles) {
            *export = Arc::new(ExportSet::new(handles));
        }
        export.clone()
    }

    /// Every export entry, in export order.
    pub fn entries(&self) -> Vec<Arc<ExportEntry>> {
        self.export_set().iter().map(|h| h.slot.clone()).collect()
    }

    /// Scrape every exported counter: evaluate the cached handles (no
    /// registry lock; a counter that panics reads as not ok), push each
    /// sample into its entry's history ring, and return the batch. The
    /// batch's wall time is folded into the serve stats *and* the
    /// registry's own query-overhead counters, so the paper's overhead
    /// envelope includes remote scrapers.
    pub fn collect(&self) -> Vec<(Arc<ExportEntry>, Sample)> {
        self.query.refresh();
        let out = self.charged(1, |t0| {
            let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
            let export = self.export_set();
            let mut evicted = 0;
            let mut out = Vec::with_capacity(export.order.len());
            for h in export.iter() {
                let v = h.read(false, t0);
                let sample = Sample {
                    seq,
                    timestamp_ns: v.timestamp_ns,
                    value: v.scaled(),
                    ok: v.status.is_ok(),
                };
                evicted += h.slot.ring.push(sample);
                out.push((h.slot.clone(), sample));
            }
            // One shared-word update per batch, not one per eviction.
            if evicted > 0 {
                self.stats
                    .history_dropped
                    .fetch_add(evicted, Ordering::Relaxed);
            }
            out
        });
        self.stats.scrape_count.fetch_add(1, Ordering::Relaxed);
        out
    }

    /// Run `work` (handed its start on the registry clock) and fold its
    /// wall time into the cost of looking: `/counters/serve/scrape-time`
    /// and the registry's query-overhead counters, as `batches` evaluated
    /// batches. The server charges its render and encode windows with
    /// `batches = 0` — they belong to a batch `collect` already counted.
    pub(crate) fn charged<R>(&self, batches: u64, work: impl FnOnce(u64) -> R) -> R {
        let clock = self.registry.clock();
        let t0 = clock.now_ns();
        let out = work(t0);
        let dt = clock.now_ns().saturating_sub(t0);
        self.stats.scrape_time_ns.fetch_add(dt, Ordering::Relaxed);
        self.registry.record_query_overhead(dt, batches);
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
    let specs: [(&str, &str, &str, StatReader); 4] = [
        (
            "/counters/serve/scrape-count",
            "completed telemetry scrapes (text endpoint and publisher ticks)",
            "1",
            Arc::new(|s| s.scrape_count.load(Ordering::Relaxed)),
        ),
        (
            "/counters/serve/scrape-time",
            "total time spent evaluating telemetry scrape batches, rendering \
             them for the text endpoint and encoding them for binary subscribers",
            "ns",
            Arc::new(|s| s.scrape_time_ns.load(Ordering::Relaxed)),
        ),
        (
            "/counters/serve/bytes",
            "telemetry payload bytes written to clients",
            "bytes",
            Arc::new(|s| s.bytes.load(Ordering::Relaxed)),
        ),
        (
            "/counters/serve/dropped",
            "telemetry records lost (history-ring evictions + stream frames \
             dropped on slow subscribers)",
            "1",
            Arc::new(|s| s.dropped()),
        ),
    ];
    for (name, help, unit, read) in specs {
        let stats = stats.clone();
        registry.register_monotonic(name, help, unit, Arc::new(move || read(&stats) as i64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicI64;

    fn engine_with(
        specs: &[&str],
        history: usize,
    ) -> (Arc<CounterRegistry>, Arc<ScrapeEngine>, Arc<AtomicI64>) {
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
        let engine = ScrapeEngine::new(&reg, &specs, 4, history).unwrap();
        (reg, engine, v)
    }

    #[test]
    fn collect_samples_and_feeds_history() {
        let (_reg, engine, v) = engine_with(&["/app/requests"], 8);
        v.store(3, Ordering::Relaxed);
        let batch = engine.collect();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].0.canonical, "/app/requests");
        assert_eq!(batch[0].1.value, 3.0);
        assert!(batch[0].1.ok);
        v.store(9, Ordering::Relaxed);
        engine.collect();
        let ring = &engine.entries()[0].ring;
        let tail = ring.tail(8);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].value, 3.0);
        assert_eq!(tail[1].value, 9.0);
        // Scrape sequence numbers are engine-wide and increasing.
        assert_eq!(tail[0].seq + 1, tail[1].seq);
    }

    #[test]
    fn history_ring_counts_evictions_exactly() {
        let (_reg, engine, _v) = engine_with(&["/app/requests"], 4);
        for _ in 0..10 {
            engine.collect();
        }
        let entry = &engine.entries()[0];
        assert_eq!(entry.ring.tail(100).len(), 4);
        assert_eq!(entry.ring.dropped(), 6, "10 pushes into 4 slots evict 6");
        assert_eq!(engine.stats().dropped(), 6);
        let exported = engine
            .registry()
            .evaluate("/counters/serve/dropped", false)
            .unwrap();
        assert_eq!(exported.value, 6);
    }

    /// `/pool{locality#0/worker-thread#N}/size` for N below `count`: a
    /// stand-in for the runtime's live topology.
    fn register_growable(reg: &Arc<CounterRegistry>, count: Arc<AtomicI64>) {
        use rpx_counters::counter::{Counter, RawCounter};
        use rpx_counters::value::CounterKind;
        use rpx_counters::{CounterInstance, CounterName};
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
    /// keep their dictionary id and ring contents.
    #[test]
    fn refresh_preserves_entry_identity_across_generations() {
        let reg = CounterRegistry::new();
        let workers = Arc::new(AtomicI64::new(2));
        register_growable(&reg, workers.clone());
        reg.add_active(POOL).unwrap();
        let query = ResolvedQuery::resolve(&reg, &[POOL.into()]).unwrap();
        let engine = ScrapeEngine::new(&reg, &[POOL.into()], 4, 8).unwrap();
        engine.collect();
        let before: Vec<(String, u32, Vec<Sample>)> = engine
            .entries()
            .iter()
            .map(|e| (e.canonical.clone(), e.id, e.ring.tail(8)))
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
        for (canonical, id, ring) in before {
            let entry = after.iter().find(|e| e.canonical == canonical).unwrap();
            assert_eq!(entry.id, id, "dictionary id must survive a bump");
            let tail = entry.ring.tail(8);
            assert_eq!(tail[..ring.len()], ring[..], "ring must survive a bump");
            assert_eq!(tail.len(), ring.len() + 1, "…and keep accumulating");
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

    #[test]
    fn collect_tracks_topology_growth() {
        let (reg, engine, _v) = engine_with(&["/app/requests"], 8);
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
