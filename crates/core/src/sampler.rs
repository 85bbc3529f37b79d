//! Interval-driven counter sampling, mirroring HPX's
//! `--hpx:print-counter` / `--hpx:print-counter-interval` convenience
//! layer: a background thread reads a set of counters periodically and
//! hands each [`Batch`] to a sink (stdout, CSV, JSON, or custom).
//!
//! A [`Sampler`] is a [`TickLoop`] over a private
//! [`ScrapeEngine`], the one periodic read path (DESIGN.md §12): names
//! are resolved once per topology
//! [generation](CounterRegistry::generation), each tick is one
//! [`read`](ScrapeEngine::read), and a topology move re-expands wildcard specs and
//! re-announces the schema to the sink (CSV emits a fresh header row).
//! The engine's per-counter backoff makes sampling *resilient*: a counter
//! whose read fails — or panics — reads as unavailable (an empty CSV
//! cell; rows keep their full width), is counted in [`SamplerHealth`],
//! and is backed off exponentially so a persistently broken counter
//! cannot dominate the sampling budget.

use std::fmt::Write as _;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::counter::Clock;
use crate::engine::{Batch, ScrapeEngine, ServeStats};
use crate::error::CounterError;
use crate::prim;
use crate::registry::CounterRegistry;
use crate::text;

/// Consumer of sample batches.
pub trait SampleSink: Send {
    /// Called once before the first batch with the counter names.
    fn begin(&mut self, names: &[String]) {
        let _ = names;
    }
    /// Called for every batch.
    fn record(&mut self, batch: &Batch);
    /// Called when sampling stops.
    fn finish(&mut self) {}
    /// Cumulative number of records this sink failed to deliver (write
    /// errors, capacity evictions, …). Sinks that can lose data MUST
    /// count every loss here — silent drops corrupt downstream rate
    /// computations invisibly. Mirrored into
    /// [`SamplerHealth::sink_dropped`] and the
    /// `/counters/sampler/dropped` counter by the sampling loop.
    fn dropped(&self) -> u64 {
        0
    }
}

/// Sink writing one CSV row per batch: `sequence,timestamp_ns,<value...>`,
/// each value as the exposition writes it, an unavailable reading as an
/// empty cell.
///
/// A row is built in memory and written with one call; a row whose write
/// fails (full disk, closed pipe) is counted in
/// [`dropped`](SampleSink::dropped) — once per row — instead of being
/// silently swallowed.
pub struct CsvSink<W: Write + Send> {
    out: W,
    /// The row being written, kept for its buffer.
    row: String,
    dropped: u64,
}

impl<W: Write + Send> CsvSink<W> {
    /// Wrap a writer.
    pub fn new(out: W) -> Self {
        CsvSink {
            out,
            row: String::new(),
            dropped: 0,
        }
    }
}

/// RFC 4180 field escaping: a field containing a comma, quote or line
/// break is wrapped in double quotes with inner quotes doubled. Counter
/// names can contain commas (statistics window parameters) and arbitrary
/// parameter text, so the header must escape them or every subsequent
/// column shifts. Shared with the serve-layer CSV merge (`rpx-collect`).
pub fn csv_escape(field: &str) -> std::borrow::Cow<'_, str> {
    if field.contains([',', '"', '\n', '\r']) {
        std::borrow::Cow::Owned(format!("\"{}\"", field.replace('"', "\"\"")))
    } else {
        std::borrow::Cow::Borrowed(field)
    }
}

impl<W: Write + Send> SampleSink for CsvSink<W> {
    fn begin(&mut self, names: &[String]) {
        let _ = write!(self.out, "sequence,timestamp_ns");
        for n in names {
            let _ = write!(self.out, ",{}", csv_escape(n));
        }
        let _ = writeln!(self.out);
    }

    fn record(&mut self, batch: &Batch) {
        let row = &mut self.row;
        row.clear();
        let _ = write!(row, "{},{}", batch.sequence, batch.timestamp_ns);
        for sample in batch.samples() {
            row.push(',');
            if sample.ok {
                text::push_value(row, sample.value);
            }
        }
        row.push('\n');
        if self.out.write_all(row.as_bytes()).is_err() {
            self.dropped += 1;
        }
    }

    fn finish(&mut self) {
        let _ = self.out.flush();
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Sink writing one JSON object per line (JSONL) per batch: `sequence`,
/// `timestamp_ns` and `readings`, a `[name, value]` pair per counter whose
/// value is the CSV cell's number (`null` when unavailable or not finite,
/// which JSON cannot spell). Rows lost to serialization or write failure
/// are counted in [`dropped`](SampleSink::dropped).
pub struct JsonSink<W: Write + Send> {
    out: W,
    /// The row being written, kept for its buffer.
    row: String,
    dropped: u64,
}

impl<W: Write + Send> JsonSink<W> {
    /// Wrap a writer.
    pub fn new(out: W) -> Self {
        JsonSink {
            out,
            row: String::new(),
            dropped: 0,
        }
    }
}

impl<W: Write + Send> SampleSink for JsonSink<W> {
    fn record(&mut self, batch: &Batch) {
        let row = &mut self.row;
        row.clear();
        let _ = write!(
            row,
            "{{\"sequence\":{},\"timestamp_ns\":{},\"readings\":[",
            batch.sequence, batch.timestamp_ns
        );
        let mut ok = true;
        for (i, (entry, sample)) in batch.iter().enumerate() {
            row.push_str(if i == 0 { "[" } else { ",[" });
            match serde_json::to_string(&entry.canonical) {
                Ok(name) => row.push_str(&name),
                Err(_) => ok = false,
            }
            row.push(',');
            if sample.ok && sample.value.is_finite() {
                text::push_value(row, sample.value);
            } else {
                row.push_str("null");
            }
            row.push(']');
        }
        row.push_str("]}\n");
        if !ok || self.out.write_all(row.as_bytes()).is_err() {
            self.dropped += 1;
        }
    }

    fn finish(&mut self) {
        let _ = self.out.flush();
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Sink collecting batches in memory (for tests and harnesses).
///
/// [`bounded`](Self::bounded) turns it into a fixed-capacity ring: the
/// newest batches are kept, each evicted oldest batch counts as exactly
/// one drop — the ring-buffer drop-accounting rule the tracer ring
/// follows too.
#[derive(Default)]
pub struct MemorySink {
    batches: Arc<Mutex<Vec<Batch>>>,
    /// `Some(cap)` bounds the buffer to the `cap` most recent batches.
    capacity: Option<usize>,
    dropped: u64,
}

impl MemorySink {
    /// An empty in-memory sink with unbounded capacity.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// An empty in-memory sink keeping only the `capacity` most recent
    /// batches; evictions are counted exactly in
    /// [`dropped`](SampleSink::dropped).
    pub fn bounded(capacity: usize) -> Self {
        MemorySink {
            capacity: Some(capacity.max(1)),
            ..MemorySink::default()
        }
    }

    /// Shared handle to the collected batches.
    pub fn batches(&self) -> Arc<Mutex<Vec<Batch>>> {
        self.batches.clone()
    }
}

impl SampleSink for MemorySink {
    fn record(&mut self, batch: &Batch) {
        let mut batches = self.batches.lock();
        if let Some(cap) = self.capacity {
            while batches.len() >= cap {
                batches.remove(0);
                self.dropped += 1;
            }
        }
        batches.push(batch.clone());
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Configuration of a sampling run.
pub struct SamplerConfig {
    /// Counter names (wildcards allowed) to sample.
    pub counters: Vec<String>,
    /// Sampling period.
    pub interval: Duration,
    /// Whether each read resets the counters (per-interval deltas).
    pub reset_on_read: bool,
}

impl SamplerConfig {
    /// Sample `counters` every `interval` without resetting.
    pub fn new(counters: Vec<String>, interval: Duration) -> Self {
        SamplerConfig {
            counters,
            interval,
            reset_on_read: false,
        }
    }
}

/// Failure accounting of a sampling run, shared with the caller.
#[derive(Debug, Default)]
pub struct SamplerHealth {
    /// The sampler engine's stats: its read errors and backoffs.
    reads: Arc<ServeStats>,
    /// Records the sink reported dropped (mirror of
    /// [`SampleSink::dropped`], refreshed after every batch).
    sink_dropped: AtomicU64,
}

impl SamplerHealth {
    /// Counter reads that failed (panicked or returned a non-ok status)
    /// so far; each reads as unavailable.
    pub fn read_errors(&self) -> u64 {
        self.reads.read_errors.load(Ordering::Relaxed)
    }

    /// Backoff episodes entered so far.
    pub fn backoffs(&self) -> u64 {
        self.reads.backoffs.load(Ordering::Relaxed)
    }

    /// Records the sink failed to deliver so far (write errors, capacity
    /// evictions); also exported as `/counters/sampler/dropped`.
    pub fn sink_dropped(&self) -> u64 {
        self.sink_dropped.load(Ordering::Relaxed)
    }
}

/// The one owner of a periodic thread: "run `tick` every so often until
/// stopped", for the [`Sampler`], the `rpx-serve` accept poll, the apex
/// policy engine and the runtime's watchdog (DESIGN.md, "Time and
/// ticks").
///
/// The thread waits on a condition variable until its next due time on
/// the registry [`Clock`], a [`flush_now`](Self::flush_now) or a
/// [`stop`](Self::stop), so neither of those waits out a sleep. Each tick
/// is handed one `now_ns` from that clock and returns the delay, counted
/// from that stamp, to the next one.
///
/// The flush rendezvous is a request/completion sequence pair under the
/// one mutex. `flush_now` bumps `requests`; the thread reads `requests`
/// *before* a tick and copies that value into `completed` *after* it, so
/// `completed >= r` proves a complete tick ran entirely after request `r`
/// was made.
pub struct TickLoop {
    shared: Arc<TickShared>,
    thread: prim::Mutex<Option<prim::thread::JoinHandle<()>>>,
}

struct TickShared {
    clock: Arc<Clock>,
    state: prim::Mutex<TickState>,
    /// Notified on every `state` change: the thread waits here between
    /// ticks, flushers wait here for `completed`.
    changed: prim::Condvar,
}

#[derive(Default)]
struct TickState {
    stop: bool,
    requests: u64,
    completed: u64,
}

impl TickLoop {
    /// Start a thread called `name` that runs `tick` after `first` and
    /// then after each delay `tick` returns, until [`stop`](Self::stop)
    /// or drop. Fails with [`CounterError::SpawnFailed`] if the OS refuses
    /// the thread.
    pub fn spawn(
        name: &str,
        clock: Arc<Clock>,
        first: Duration,
        mut tick: impl FnMut(u64) -> Duration + Send + 'static,
    ) -> Result<Self, CounterError> {
        let shared = Arc::new(TickShared {
            clock,
            state: prim::Mutex::new(TickState::default()),
            changed: prim::Condvar::new(),
        });
        let s = shared.clone();
        let thread = prim::thread::Builder::new()
            .name(name.into())
            .spawn(move || {
                let mut due_ns = after(s.clock.now_ns(), first);
                let mut state = s.state.lock();
                while !state.stop {
                    let wait_ns = due_ns.saturating_sub(s.clock.now_ns());
                    if wait_ns > 0 && state.requests <= state.completed {
                        // Woken early or for no reason, the conditions above
                        // are simply read again: only the clock ends a wait.
                        s.changed
                            .wait_for(&mut state, Duration::from_nanos(wait_ns));
                        continue;
                    }
                    // Flush requests made before this point are satisfied by
                    // the tick this iteration runs.
                    let request = state.requests;
                    if prim::mutation_armed("tickloop-complete-before-tick") {
                        state.completed = request;
                        s.changed.notify_all();
                    }
                    drop(state);
                    let now_ns = s.clock.now_ns();
                    due_ns = after(now_ns, tick(now_ns));
                    state = s.state.lock();
                    state.completed = request;
                    s.changed.notify_all();
                }
            })
            .map_err(|e| CounterError::SpawnFailed(format!("{name} thread: {e}")))?;
        Ok(TickLoop {
            shared,
            thread: prim::Mutex::new(Some(thread)),
        })
    }

    /// Force an immediate out-of-cycle tick and block until one *complete*
    /// tick — started entirely after this call — has run. Returns `false`
    /// if that did not happen within ~5 s or the loop was stopped first.
    pub fn flush_now(&self) -> bool {
        let s = &self.shared;
        let deadline_ns = after(s.clock.now_ns(), Duration::from_secs(5));
        let mut state = s.state.lock();
        state.requests += 1;
        let target = state.requests;
        s.changed.notify_all();
        loop {
            let wait_ns = deadline_ns.saturating_sub(s.clock.now_ns());
            if state.completed >= target || state.stop || wait_ns == 0 {
                return state.completed >= target;
            }
            s.changed
                .wait_for(&mut state, Duration::from_nanos(wait_ns));
        }
    }

    /// End the loop after the tick in progress, if any, and join the
    /// thread. Idempotent; dropping the loop does the same.
    pub fn stop(&self) {
        self.shared.state.lock().stop = true;
        self.shared.changed.notify_all();
        if let Some(thread) = self.thread.lock().take() {
            let _ = thread.join();
        }
    }

    /// Whether [`stop`](Self::stop) was called.
    pub fn stopped(&self) -> bool {
        self.shared.state.lock().stop
    }
}

impl Drop for TickLoop {
    fn drop(&mut self) {
        self.stop();
    }
}

/// `now_ns + delay`, saturating (a tick may ask for "never").
fn after(now_ns: u64, delay: Duration) -> u64 {
    now_ns.saturating_add(u64::try_from(delay.as_nanos()).unwrap_or(u64::MAX))
}

/// A running background sampler; dropping it stops sampling.
pub struct Sampler {
    ticks: TickLoop,
    health: Arc<SamplerHealth>,
}

/// A sampler's engine and sink. Dropping it finishes the sink.
pub(crate) struct Sampling {
    engine: ScrapeEngine,
    /// Whether each read resets its counters.
    reset: bool,
    sink: Box<dyn SampleSink>,
    health: Arc<SamplerHealth>,
}

impl Sampling {
    /// Resolve `config`'s counters (eagerly — unknown counters are an
    /// error now) into a private engine whose reads `health` accounts.
    pub(crate) fn new(
        registry: &Arc<CounterRegistry>,
        config: &SamplerConfig,
        sink: Box<dyn SampleSink>,
        health: Arc<SamplerHealth>,
    ) -> Result<Self, CounterError> {
        // One shard, so the export order is the configuration order; the
        // engine's read errors and backoffs are the health's.
        let engine = ScrapeEngine::with(registry, &config.counters, 1, health.reads.clone())?;
        Ok(Sampling {
            engine,
            reset: config.reset_on_read,
            sink,
            health,
        })
    }

    /// Read one batch into the sink, announcing the schema first if the
    /// resolved set changed.
    pub(crate) fn tick(&mut self) {
        let batch = self.engine.read(self.reset);
        if batch.sequence == 0 || batch.renamed {
            let names: Vec<String> = batch.iter().map(|(e, _)| e.canonical.clone()).collect();
            self.sink.begin(&names);
        }
        self.sink.record(&batch);
        self.mirror_drops();
    }

    fn mirror_drops(&self) {
        self.health
            .sink_dropped
            .store(self.sink.dropped(), Ordering::Relaxed);
    }
}

impl Drop for Sampling {
    fn drop(&mut self) {
        self.sink.finish();
        self.mirror_drops();
    }
}

impl Sampler {
    /// Resolve the configured names (eagerly — unknown counters are an
    /// error now) and start the sampling thread. Each tick is one
    /// [`read`](ScrapeEngine::read) of the sampler's engine, which
    /// re-resolves only on a generation bump.
    pub fn start(
        registry: &Arc<CounterRegistry>,
        config: SamplerConfig,
        sink: Box<dyn SampleSink>,
    ) -> Result<Self, CounterError> {
        let health = Arc::new(SamplerHealth::default());
        // Export the sink-drop mirror before resolving, so the sampler can
        // watch its own drops.
        let h = health.clone();
        registry.register_monotonic(
            "/counters/sampler/dropped",
            "records the sampler sink failed to deliver (write errors, capacity evictions)",
            "1",
            Arc::new(move || h.sink_dropped() as i64),
        );
        let mut sampling = Sampling::new(registry, &config, sink, health.clone())?;
        let interval = config.interval;
        let ticks = TickLoop::spawn(
            "rpx-counter-sampler",
            registry.clock(),
            Duration::ZERO,
            move |_| {
                sampling.tick();
                interval
            },
        )?;
        Ok(Sampler { ticks, health })
    }

    /// Force an immediate out-of-cycle sample and block until one
    /// *complete* batch — started entirely after this call — has been
    /// handed to the sink. This is the drain hook's tool: a runtime
    /// quiescing mid-interval flushes a final consistent row instead of
    /// truncating the series up to an interval early. Returns `false` if
    /// the flush did not complete within ~5 s (e.g. the sampler was
    /// stopped concurrently).
    pub fn flush_now(&self) -> bool {
        self.ticks.flush_now()
    }

    /// Failure accounting of this sampling run (live; shared with the
    /// sampling thread).
    pub fn health(&self) -> Arc<SamplerHealth> {
        self.health.clone()
    }

    /// Stop sampling and wait for the thread to flush its sink.
    pub fn stop(self) {
        self.ticks.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::ValueFn;
    use crate::engine::tests::scripted_batch;
    use crate::query::ResolvedQuery;
    use std::sync::atomic::AtomicI64;

    #[test]
    fn sampler_collects_batches() {
        let reg = CounterRegistry::new();
        let v = Arc::new(AtomicI64::new(1));
        let v2 = v.clone();
        reg.register_raw(
            "/test/v",
            "h",
            "1",
            Arc::new(move || v2.load(Ordering::Relaxed)),
        );

        let sink = MemorySink::new();
        let batches = sink.batches();
        let sampler = Sampler::start(
            &reg,
            SamplerConfig::new(vec!["/test/v".into()], Duration::from_millis(5)),
            Box::new(sink),
        )
        .unwrap();

        while batches.lock().len() < 3 {
            std::thread::sleep(Duration::from_millis(2));
        }
        sampler.stop();

        let collected = batches.lock();
        assert!(collected.len() >= 3);
        assert_eq!(collected[0].len(), 1);
        assert_eq!(collected[0].iter().next().unwrap().0.canonical, "/test/v");
        assert_eq!(collected[0].samples()[0].value, 1.0);
        // Sequence numbers are consecutive, timestamps monotone.
        for w in collected.windows(2) {
            assert_eq!(w[1].sequence, w[0].sequence + 1);
            assert!(w[1].timestamp_ns >= w[0].timestamp_ns);
        }
    }

    #[test]
    fn sampler_reset_on_read_yields_deltas() {
        let reg = CounterRegistry::new();
        let v = Arc::new(AtomicI64::new(0));
        let v2 = v.clone();
        reg.register_monotonic(
            "/test/m",
            "h",
            "1",
            Arc::new(move || v2.load(Ordering::Relaxed)),
        );

        let sink = MemorySink::new();
        let batches = sink.batches();
        let mut config = SamplerConfig::new(vec!["/test/m".into()], Duration::from_millis(5));
        config.reset_on_read = true;
        let sampler = Sampler::start(&reg, config, Box::new(sink)).unwrap();

        for _ in 0..5 {
            v.fetch_add(10, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(6));
        }
        sampler.stop();

        let collected = batches.lock();
        let sampled: i64 = collected.iter().map(|b| b.samples()[0].value as i64).sum();
        // Whatever the sampler did not yet see is still pending in the
        // counter; sampled deltas plus the remainder must equal the total
        // increment exactly (no double counting, no loss).
        let remainder = reg.evaluate("/test/m", false).unwrap().value;
        assert_eq!(sampled + remainder, v.load(Ordering::Relaxed));
        assert!(sampled > 0, "sampler should have observed some increments");
    }

    #[test]
    fn sampler_survives_panicking_counter() {
        let reg = CounterRegistry::new();
        reg.register_raw(
            "/test/bad",
            "h",
            "1",
            Arc::new(|| panic!("injected counter failure")),
        );
        let v = Arc::new(AtomicI64::new(5));
        let v2 = v.clone();
        reg.register_raw(
            "/test/good",
            "h",
            "1",
            Arc::new(move || v2.load(Ordering::Relaxed)),
        );

        // Silence the default hook for the intentional panics.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));

        let sink = MemorySink::new();
        let batches = sink.batches();
        let sampler = Sampler::start(
            &reg,
            SamplerConfig::new(
                vec!["/test/bad".into(), "/test/good".into()],
                Duration::from_millis(2),
            ),
            Box::new(sink),
        )
        .unwrap();
        let health = sampler.health();

        while batches.lock().len() < 10 {
            std::thread::sleep(Duration::from_millis(2));
        }
        sampler.stop();
        std::panic::set_hook(prev);

        let collected = batches.lock();
        assert!(collected.len() >= 10);
        assert!(health.read_errors() >= 1, "failures must be recorded");
        assert!(health.backoffs() >= 1, "repeated failure must back off");
        for (i, b) in collected.iter().enumerate() {
            // Every batch keeps the full set of readings: the bad counter
            // is an unavailable placeholder, the good one stays sampled.
            assert_eq!(b.len(), 2, "batch {i} lost a column");
            assert_eq!(b.sequence, i as u64);
            assert!(!b.samples()[0].ok);
        }
        // The good counter was really evaluated, not placeholdered.
        assert!(collected
            .iter()
            .all(|b| { b.samples()[1].ok && b.samples()[1].value == 5.0 }));
        // Backoff throttles the failing counter: far fewer evaluations
        // than batches.
        assert!(health.read_errors() < collected.len() as u64);
    }

    #[test]
    fn csv_rows_keep_width_with_failing_counter() {
        let mut buf = Vec::new();
        {
            let mut sink = CsvSink::new(&mut buf);
            sink.begin(&["/a/bad".into(), "/a/good".into()]);
            sink.record(&scripted_batch(
                0,
                50,
                &[("/a/bad", None), ("/a/good", Some(8.0))],
            ));
            sink.finish();
        }
        let s = String::from_utf8(buf).unwrap();
        assert_eq!(s.lines().nth(1).unwrap(), "0,50,,8");
    }

    #[test]
    fn sampler_unknown_counter_errors_eagerly() {
        let reg = CounterRegistry::new();
        let result = Sampler::start(
            &reg,
            SamplerConfig::new(vec!["/none/x".into()], Duration::from_millis(5)),
            Box::new(MemorySink::new()),
        );
        assert!(result.is_err());
    }

    #[test]
    fn csv_sink_formats_rows() {
        let mut buf = Vec::new();
        {
            let mut sink = CsvSink::new(&mut buf);
            sink.begin(&["/a/b".into()]);
            sink.record(&scripted_batch(0, 123, &[("/a/b", Some(7.0))]));
            sink.finish();
        }
        let s = String::from_utf8(buf).unwrap();
        assert_eq!(s.lines().next().unwrap(), "sequence,timestamp_ns,/a/b");
        assert_eq!(s.lines().nth(1).unwrap(), "0,123,7");
    }

    #[test]
    fn csv_header_escapes_names_with_commas_and_quotes() {
        let mut buf = Vec::new();
        {
            let mut sink = CsvSink::new(&mut buf);
            sink.begin(&[
                "/statistics/median@/src/value,5".into(),
                "/app/\"quoted\"".into(),
                "/plain/name".into(),
            ]);
            sink.record(&scripted_batch(
                0,
                1,
                &[("a", Some(1.0)), ("b", Some(2.0)), ("c", Some(3.0))],
            ));
            sink.finish();
        }
        let s = String::from_utf8(buf).unwrap();
        let header = s.lines().next().unwrap();
        assert_eq!(
            header,
            "sequence,timestamp_ns,\"/statistics/median@/src/value,5\",\
             \"/app/\"\"quoted\"\"\",/plain/name"
        );
        // The data row keeps the same number of fields as the header.
        let fields = |line: &str| {
            let mut n = 0;
            let mut in_quotes = false;
            for c in line.chars() {
                match c {
                    '"' => in_quotes = !in_quotes,
                    ',' if !in_quotes => n += 1,
                    _ => {}
                }
            }
            n + 1
        };
        assert_eq!(fields(header), fields(s.lines().nth(1).unwrap()));
    }

    /// One registry, three consumers of the one resolved-set protocol —
    /// the active set, a bare query and the sampler: after a bump with a
    /// grown discoverer all three report the same new names, and the
    /// sampler's backoff for a failing counter is still in progress.
    #[test]
    fn sampler_picks_up_topology_changes() {
        use crate::counter::{Counter, RawCounter};
        use crate::name::{CounterInstance, CounterName};
        use crate::value::{CounterInfo, CounterKind};

        let reg = CounterRegistry::new();
        let workers = Arc::new(AtomicI64::new(2));
        let w2 = workers.clone();
        let info = CounterInfo::new("/threads/count", CounterKind::Raw, "h", "1");
        let clock = reg.clock();
        reg.register_type(
            info,
            Arc::new(move |name, _| {
                let mut i = CounterInfo::new("/threads/count", CounterKind::Raw, "h", "1");
                i.name = name.canonical();
                // Worker 0's counter fails on every read.
                let broken = i.name.contains("worker-thread#0");
                let read: ValueFn = Arc::new(move || {
                    assert!(!broken, "injected counter failure");
                    1
                });
                Ok(Arc::new(RawCounter::new(i, clock.clone(), read)) as Arc<dyn Counter>)
            }),
            Some(Arc::new(move |f: &mut dyn FnMut(CounterName)| {
                for w in 0..w2.load(Ordering::Relaxed) {
                    f(CounterName::new("threads", "count")
                        .with_instance(CounterInstance::worker(0, w as u32)));
                }
            })),
        );
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));

        let spec = "/threads{locality#0/worker-thread#*}/count".to_string();
        reg.add_active(&spec).unwrap();
        let query = ResolvedQuery::resolve(&reg, std::slice::from_ref(&spec)).unwrap();
        let sink = MemorySink::new();
        let batches = sink.batches();
        // Interval far longer than the test: after the start-up tick, each
        // flush_now is exactly one tick.
        let sampler = Sampler::start(
            &reg,
            SamplerConfig::new(vec![spec], Duration::from_secs(60)),
            Box::new(sink),
        )
        .unwrap();
        let health = sampler.health();
        while batches.lock().is_empty() {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Second consecutive failure: worker 0 enters a >= 3-tick backoff.
        assert!(sampler.flush_now());
        assert_eq!((health.read_errors(), health.backoffs()), (2, 1));
        assert_eq!(batches.lock().last().unwrap().len(), 2);

        // Topology change mid-run: one generation bump, and the next tick
        // re-expands the wildcard without restarting the sampler.
        workers.store(3, Ordering::Relaxed);
        reg.bump_generation();
        assert!(sampler.flush_now());
        sampler.stop();
        std::panic::set_hook(prev);

        let wide = batches.lock().last().cloned().unwrap();
        let sampled: Vec<String> = wide.iter().map(|(e, _)| e.canonical.clone()).collect();
        assert_eq!(sampled.len(), 3, "the post-bump batch samples all three");
        assert!(sampled[2].contains("worker-thread#2"));
        assert_eq!(reg.active_names(), sampled);
        assert!(query.refresh());
        assert_eq!(query.names(), sampled);
        // The backoff survived the re-expansion: worker 0 was skipped, not
        // read a third time, and the newcomer was really evaluated.
        assert_eq!(health.read_errors(), 2);
        assert!(!wide.samples()[0].ok);
        assert_eq!(wide.samples()[2].value, 1.0);
    }

    #[test]
    fn flush_now_forces_an_out_of_cycle_batch() {
        let reg = CounterRegistry::new();
        let v = Arc::new(AtomicI64::new(0));
        let v2 = v.clone();
        reg.register_raw(
            "/test/v",
            "h",
            "1",
            Arc::new(move || v2.load(Ordering::Relaxed)),
        );
        let sink = MemorySink::new();
        let batches = sink.batches();
        // Interval far longer than the test: every batch past the first
        // exists only because flush_now forced it.
        let sampler = Sampler::start(
            &reg,
            SamplerConfig::new(vec!["/test/v".into()], Duration::from_secs(60)),
            Box::new(sink),
        )
        .unwrap();

        v.store(7, Ordering::Relaxed);
        let t0 = std::time::Instant::now();
        assert!(sampler.flush_now(), "flush must complete");
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "flush must not wait out the 60s interval"
        );
        // The flushed batch started after the store above, so it must see
        // the new value — a pre-request in-flight batch doesn't count.
        let last = batches.lock().last().cloned().expect("flushed batch");
        assert_eq!(last.samples()[0].value, 7.0);

        v.store(9, Ordering::Relaxed);
        assert!(sampler.flush_now());
        let last = batches.lock().last().cloned().unwrap();
        assert_eq!(
            last.samples()[0].value,
            9.0,
            "each flush yields a fresh row"
        );
        sampler.stop();
    }

    /// A loop on a fresh clock whose tick counts itself and then asks for
    /// `delay(count)`.
    fn counting_loop(
        first: Duration,
        delay: impl Fn(u64) -> Duration + Send + 'static,
    ) -> (TickLoop, Arc<AtomicU64>) {
        let count = Arc::new(AtomicU64::new(0));
        let c = count.clone();
        let ticks = TickLoop::spawn("test-ticks", Arc::new(Clock::new()), first, move |_| {
            delay(c.fetch_add(1, Ordering::SeqCst) + 1)
        })
        .unwrap();
        (ticks, count)
    }

    const MINUTE: Duration = Duration::from_secs(60);

    #[test]
    fn stop_does_not_wait_out_the_interval() {
        let (ticks, count) = counting_loop(Duration::ZERO, |_| MINUTE);
        assert!(ticks.flush_now());
        let t0 = std::time::Instant::now();
        ticks.stop();
        assert!(
            t0.elapsed() < Duration::from_millis(50),
            "{:?}",
            t0.elapsed()
        );
        assert!(ticks.stopped());
        // The thread is gone: nothing ticks any more, and a second stop
        // has nothing left to join.
        let after_stop = count.load(Ordering::SeqCst);
        ticks.stop();
        assert!(!ticks.flush_now());
        assert_eq!(count.load(Ordering::SeqCst), after_stop);

        let reg = CounterRegistry::new();
        reg.register_raw("/test/v", "h", "1", Arc::new(|| 1));
        let config = SamplerConfig::new(vec!["/test/v".into()], MINUTE);
        let sampler = Sampler::start(&reg, config, Box::new(MemorySink::new())).unwrap();
        assert!(sampler.flush_now());
        let t0 = std::time::Instant::now();
        sampler.stop();
        assert!(
            t0.elapsed() < Duration::from_millis(50),
            "{:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn drop_joins_the_tick_thread() {
        // The tick owns a value whose drop is visible: once the loop is
        // dropped the thread has ended and released what it owned.
        let owned = Arc::new(());
        let o = owned.clone();
        let ticks = TickLoop::spawn("test-ticks", Arc::new(Clock::new()), MINUTE, move |_| {
            let _keep = &o;
            MINUTE
        })
        .unwrap();
        assert_eq!(Arc::strong_count(&owned), 2);
        drop(ticks);
        assert_eq!(Arc::strong_count(&owned), 1);
    }

    #[test]
    fn the_delay_a_tick_returns_is_honoured() {
        // First tick a minute in (never, here); a flush runs tick 1, which
        // asks for 1 ms; tick 2 asks for a minute again.
        let (ticks, count) = counting_loop(MINUTE, |n| {
            if n == 1 {
                Duration::from_millis(1)
            } else {
                MINUTE
            }
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(count.load(Ordering::SeqCst), 0, "first tick is not due");
        assert!(ticks.flush_now());
        let t0 = std::time::Instant::now();
        while count.load(Ordering::SeqCst) < 2 && t0.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(count.load(Ordering::SeqCst), 2, "the 1 ms delay ran tick 2");
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(count.load(Ordering::SeqCst), 2, "tick 3 is a minute away");
    }

    #[test]
    fn flush_racing_stop_never_hangs_or_reports_a_tick_that_did_not_run() {
        for round in 0..200 {
            let (ticks, count) = counting_loop(MINUTE, |_| MINUTE);
            let ticks = Arc::new(ticks);
            let t2 = ticks.clone();
            let flusher = std::thread::spawn(move || t2.flush_now());
            if round % 2 == 0 {
                std::thread::yield_now();
            }
            ticks.stop();
            let flushed = flusher.join().unwrap();
            // Either the flush got its whole tick in before the stop or it
            // was turned away (the tick may still have run, cut off from
            // its report); it never reports a tick that did not run.
            let ran = count.load(Ordering::SeqCst);
            assert!(ran == 1 || (ran == 0 && !flushed), "round {round}");
        }
    }

    #[test]
    fn sampler_records_query_overhead() {
        let reg = CounterRegistry::new();
        reg.register_raw("/test/v", "h", "1", Arc::new(|| 1));
        let sink = MemorySink::new();
        let batches = sink.batches();
        let sampler = Sampler::start(
            &reg,
            SamplerConfig::new(vec!["/test/v".into()], Duration::from_millis(1)),
            Box::new(sink),
        )
        .unwrap();
        while batches.lock().len() < 5 {
            std::thread::sleep(Duration::from_millis(1));
        }
        sampler.stop();
        let n = batches.lock().len() as i64;
        let count = reg
            .evaluate("/counters{locality#0/total}/overhead/count", false)
            .unwrap();
        assert!(count.value >= n, "every tick is one accounted batch");
    }

    fn batch(sequence: u64) -> Batch {
        scripted_batch(sequence, sequence, &[("/a/b", Some(sequence as f64))])
    }

    #[test]
    fn bounded_memory_sink_counts_every_eviction_exactly() {
        let mut sink = MemorySink::bounded(4);
        let batches = sink.batches();
        for s in 0..10 {
            sink.record(&batch(s));
        }
        // Forced wrap: 10 records into capacity 4 evicts exactly 6, and
        // the survivors are the 4 most recent.
        assert_eq!(sink.dropped(), 6);
        let kept: Vec<u64> = batches.lock().iter().map(|b| b.sequence).collect();
        assert_eq!(kept, vec![6, 7, 8, 9]);
    }

    /// Writer that starts failing after `ok_rows` newline-terminated
    /// writes, like a pipe whose reader went away mid-run.
    struct FailingWriter {
        ok_writes: usize,
    }

    impl Write for FailingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.ok_writes == 0 {
                return Err(std::io::Error::other("injected write failure"));
            }
            self.ok_writes -= 1;
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn csv_sink_counts_failed_rows_exactly_once() {
        // A healthy writer records without drops…
        let mut sink = CsvSink::new(FailingWriter { ok_writes: 100 });
        sink.begin(&["/a/b".into()]);
        sink.record(&batch(0));
        assert_eq!(SampleSink::dropped(&sink), 0, "healthy rows are not drops");
        // …a dead writer drops one per row, however many of the row's
        // individual field writes failed.
        let mut sink = CsvSink::new(FailingWriter { ok_writes: 0 });
        sink.begin(&["/a/b".into()]);
        for s in 0..5 {
            sink.record(&batch(s));
        }
        assert_eq!(
            SampleSink::dropped(&sink),
            5,
            "one drop per lost row, not per failed write"
        );
    }

    #[test]
    fn sampler_exports_sink_drop_counter() {
        let reg = CounterRegistry::new();
        reg.register_raw("/test/v", "h", "1", Arc::new(|| 1));
        let sink = MemorySink::bounded(2);
        let batches = sink.batches();
        let sampler = Sampler::start(
            &reg,
            SamplerConfig::new(vec!["/test/v".into()], Duration::from_millis(1)),
            Box::new(sink),
        )
        .unwrap();
        // Run long enough to wrap the 2-slot ring several times.
        while batches.lock().len() < 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        for _ in 0..200 {
            if sampler.health().sink_dropped() >= 3 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let health = sampler.health();
        sampler.stop();
        let mirrored = health.sink_dropped();
        assert!(mirrored >= 3, "ring wrap must surface as sink drops");
        let exported = reg.evaluate("/counters/sampler/dropped", false).unwrap();
        assert_eq!(exported.value as u64, mirrored);
    }

    #[test]
    fn json_sink_emits_parseable_lines() {
        let mut buf = Vec::new();
        {
            let mut sink = JsonSink::new(&mut buf);
            sink.record(&scripted_batch(
                1,
                9,
                &[("/a/b", Some(3.5)), ("/a/c", None)],
            ));
            sink.finish();
        }
        let s = String::from_utf8(buf).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(s.trim()).unwrap();
        assert_eq!(parsed["sequence"], 1);
        assert_eq!(parsed["readings"][0][0], "/a/b");
        // A reading is the CSV cell's value, `null` when unavailable.
        assert_eq!(parsed["readings"][0][1], 3.5);
        assert_eq!(parsed["readings"][1][1], serde_json::Value::Null);
        assert_eq!(
            s,
            "{\"sequence\":1,\"timestamp_ns\":9,\"readings\":[[\"/a/b\",3.5],[\"/a/c\",null]]}\n"
        );
    }

    /// The JSON row of a batch spells each value as its CSV cell does:
    /// an integral value as an integer, a fraction as the exposition
    /// writes it, an unavailable one as `null` against an empty cell.
    #[test]
    fn json_and_csv_rows_of_one_batch_carry_the_same_value_text() {
        let batch = scripted_batch(
            3,
            77,
            &[
                ("/a/count", Some(46367.0)),
                ("/a/mean", Some(3.5)),
                ("/a/gone", None),
                ("/a/neg", Some(-12.0)),
                ("/a/big", Some(1e20)),
                ("/a/\"odd\",name", Some(0.25)),
            ],
        );
        let (mut csv, mut json) = (Vec::new(), Vec::new());
        CsvSink::new(&mut csv).record(&batch);
        JsonSink::new(&mut json).record(&batch);
        let (csv, json) = (
            String::from_utf8(csv).unwrap(),
            String::from_utf8(json).unwrap(),
        );
        assert_eq!(csv, "3,77,46367,3.5,,-12,100000000000000000000,0.25\n");
        let cells: Vec<&str> = csv.trim_end().split(',').skip(2).collect();
        let parsed = serde_json::from_str(json.trim()).unwrap();
        for (i, cell) in cells.iter().enumerate() {
            let reading = &parsed["readings"][i];
            let (name, _) = batch.iter().nth(i).unwrap();
            assert_eq!(reading[0], name.canonical.as_str());
            // The value's text in the row: after the name, up to the `]`.
            let needle = format!("{},", serde_json::to_string(&name.canonical).unwrap());
            let at = json.find(&needle).unwrap() + needle.len();
            let text = &json[at..at + json[at..].find(']').unwrap()];
            match *cell {
                "" => assert_eq!(text, "null"),
                cell => assert_eq!(text, cell, "reading {i}"),
            }
        }
        assert!(json.contains("[\"/a/count\",46367]"), "{json}");
    }
}
