//! Task-lifetime tracing: a bounded in-memory record of task events with a
//! `chrome://tracing` (Trace Event Format) exporter — the post-mortem side
//! of introspection the paper contrasts with external tools: because the
//! runtime emits its own events, there is no per-OS-thread cost, no fixed
//! thread table, and no file per thread.
//!
//! Each span carries the task's *causal* context — the id of the task that
//! spawned it ([`TaskSpan::parent`]) and the source location of the spawn
//! call ([`TaskSpan::site`], resolved via [`site_name`]) — plus the time
//! spent help-executing *other* tasks inside the body's waits
//! ([`TaskSpan::nested_ns`]). Net duration ([`TaskSpan::net_ns`]) is what
//! work/span analysis (the `rpx-causal` crate) and the per-worker profile
//! use: summing gross durations double-counts every help-executed child.
//!
//! Tracing is off by default; enabling it reserves bounded rings so long
//! runs cannot exhaust memory (oldest events are dropped, counted): one
//! per worker, which that worker writes without a lock or an RMW, and one
//! shared by every other thread (DESIGN.md §15, "Span rings"). The runtime
//! times each recording on the clock that stamped the span
//! ([`TaskTracer::overhead_ns`], exported as `/runtime/trace/overhead-time`),
//! so the paper's ≤10 % instrumentation envelope is checkable from inside
//! the process.

use std::cell::Cell;
use std::collections::HashMap;
use std::panic::Location;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::prim::{fence, mutation_armed, AtomicU64, Ordering};

/// Sentinel site id for spans recorded before site tracking existed or
/// from paths that bypass the public spawn API.
pub const UNKNOWN_SITE: u32 = 0;

/// Process-wide spawn-site registry: interns `file:line:column` locations
/// captured by the `#[track_caller]` spawn APIs into dense `u32` ids.
struct SiteRegistry {
    /// (file ptr, line, col) → id. Keyed by the `&'static str` pointer
    /// (not content) — distinct `Location` statics for the same source
    /// line intern to the same string, and pointer compare is cheap.
    ids: HashMap<(usize, u32, u32), u32>,
    /// id → rendered "file:line:column", index = id - 1.
    names: Vec<String>,
}

fn site_registry() -> &'static Mutex<SiteRegistry> {
    static REG: OnceLock<Mutex<SiteRegistry>> = OnceLock::new();
    REG.get_or_init(|| {
        Mutex::new(SiteRegistry {
            ids: HashMap::new(),
            names: Vec::new(),
        })
    })
}

thread_local! {
    /// One-entry per-thread memo of the last resolved spawn site. Spawn
    /// loops hit the same call site repeatedly (fib spawns from exactly one
    /// line), so the global lock is taken roughly once per distinct site
    /// per thread, not once per spawn.
    static LAST_SITE: Cell<(usize, u32)> = const { Cell::new((0, UNKNOWN_SITE)) };
}

/// Intern a spawn location into a stable, dense site id (≥ 1; 0 is
/// [`UNKNOWN_SITE`]). Called by the `#[track_caller]` spawn entry points.
pub fn site_id(loc: &'static Location<'static>) -> u32 {
    let key = loc as *const Location as usize;
    let cached = LAST_SITE.with(|c| c.get());
    if cached.0 == key {
        return cached.1;
    }
    let mut reg = site_registry().lock();
    let k = (loc.file().as_ptr() as usize, loc.line(), loc.column());
    let id = match reg.ids.get(&k) {
        Some(&id) => id,
        None => {
            reg.names
                .push(format!("{}:{}:{}", loc.file(), loc.line(), loc.column()));
            let id = reg.names.len() as u32;
            reg.ids.insert(k, id);
            id
        }
    };
    drop(reg);
    LAST_SITE.with(|c| c.set((key, id)));
    id
}

/// Minimal JSON string quoting for site names (paths: `"`, `\`, and
/// control characters are the only escapes that can occur).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `file:line:column` a site id was interned from (`None` for
/// [`UNKNOWN_SITE`] or ids never issued).
pub fn site_name(site: u32) -> Option<String> {
    if site == UNKNOWN_SITE {
        return None;
    }
    site_registry().lock().names.get(site as usize - 1).cloned()
}

/// One recorded task execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskSpan {
    /// Monotonic task id.
    pub task_id: u64,
    /// Task id of the task whose body issued the spawn (`None` when the
    /// spawn came from outside any task — an external thread or `main`).
    pub parent: Option<u64>,
    /// Spawn-site id (see [`site_name`]); [`UNKNOWN_SITE`] when unknown.
    pub site: u32,
    /// Worker that executed the task.
    pub worker: u32,
    /// Start of execution, ns since the runtime clock's epoch.
    pub start_ns: u64,
    /// End of execution.
    pub end_ns: u64,
    /// Queue wait (spawn → start).
    pub wait_ns: u64,
    /// Time inside `start..end` spent executing *other* tasks (work-helping
    /// waits); gross − nested = net exclusive duration.
    pub nested_ns: u64,
}

impl TaskSpan {
    /// Gross execution duration (`end - start`, including help-execution
    /// of other tasks inside waits).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Net exclusive duration: gross minus time spent help-executing other
    /// tasks. Summing this over any set of spans never double-counts.
    pub fn net_ns(&self) -> u64 {
        self.duration_ns().saturating_sub(self.nested_ns)
    }
}

/// Words of one span in a ring slot (`TaskSpan` is 64 bytes; see
/// [`encode`]).
const SPAN_WORDS: usize = 8;

/// A span as the eight words a ring slot stores. Each word is written and
/// read with its own atomic operation, so a reader racing the writer may
/// copy a torn span but never races on memory; the cursor re-check in
/// [`TaskTracer::spans`] discards every slot a writer may have touched.
fn encode(s: &TaskSpan) -> [u64; SPAN_WORDS] {
    [
        s.task_id,
        s.parent.unwrap_or(0),
        s.parent.is_some() as u64,
        s.site as u64 | (s.worker as u64) << 32,
        s.start_ns,
        s.end_ns,
        s.wait_ns,
        s.nested_ns,
    ]
}

fn decode(w: [u64; SPAN_WORDS]) -> TaskSpan {
    TaskSpan {
        task_id: w[0],
        parent: (w[2] != 0).then_some(w[1]),
        site: w[3] as u32,
        worker: (w[3] >> 32) as u32,
        start_ns: w[4],
        end_ns: w[5],
        wait_ns: w[6],
        nested_ns: w[7],
    }
}

/// Word offsets of the two stamps `spans()` reads before it copies a slot.
const START_WORD: usize = 4;
const END_WORD: usize = 5;

/// One writer's span buffer of `capacity + 1` slots. Span `n` (counted
/// over the ring's life) lives in slot `n % (capacity + 1)`; the writer
/// stores the slot's words, then publishes `cursor = n + 1` with a
/// `Release` store — the `Shard` idiom, no lock and no RMW. The spare slot
/// is the one the next write goes to, so the newest `capacity` spans stay
/// readable while it is under way. Clearing stores `base` (the cursor at
/// the clear) instead of writing the cursor, so the writer stays its only
/// writer.
#[repr(align(128))]
struct Ring {
    /// `(capacity + 1) × SPAN_WORDS` words.
    slots: Box<[AtomicU64]>,
    /// Spans ever recorded here.
    cursor: AtomicU64,
    /// The slot span `cursor` goes to (`cursor % (capacity + 1)`, kept by
    /// the writer so recording divides nothing).
    next_slot: AtomicU64,
    /// `cursor` at the last `clear`: spans before it are out of the window.
    base: AtomicU64,
    /// Nanoseconds the runtime spent recording into this ring.
    overhead_ns: AtomicU64,
    /// Serializes the shared ring's writers (external threads, inline
    /// runs, the public [`TaskTracer::record`]); beside the cursor, so a
    /// hand-off moves one line. Worker rings never take it.
    writer: Mutex<()>,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Ring {
            slots: (0..(capacity + 1) * SPAN_WORDS)
                .map(|_| AtomicU64::new(0))
                .collect(),
            cursor: AtomicU64::new(0),
            next_slot: AtomicU64::new(0),
            base: AtomicU64::new(0),
            overhead_ns: AtomicU64::new(0),
            writer: Mutex::new(()),
        }
    }

    /// Slots in the ring: `capacity + 1`.
    fn len(&self) -> u64 {
        (self.slots.len() / SPAN_WORDS) as u64
    }

    /// The slot span `n` lives in.
    fn slot(&self, n: u64) -> usize {
        (n % self.len()) as usize
    }

    /// The slot after `slot`, wrapping (a compare, not a division: this
    /// is on the recording path).
    fn next(&self, slot: usize) -> usize {
        if slot as u64 + 1 == self.len() {
            0
        } else {
            slot + 1
        }
    }

    /// The slot before `slot`, wrapping.
    fn prev(&self, slot: usize) -> usize {
        slot.checked_sub(1).unwrap_or(self.len() as usize - 1)
    }

    fn words(&self, slot: usize) -> &[AtomicU64] {
        &self.slots[slot * SPAN_WORDS..][..SPAN_WORDS]
    }

    /// Append a span. Callers are the ring's one writer (its worker, or
    /// whoever holds the shared ring's writer lock).
    fn push(&self, span: &TaskSpan) {
        let n = self.cursor.load(Ordering::Relaxed);
        let slot = self.next_slot.load(Ordering::Relaxed) as usize;
        // A reader that copies any word stored below and then fences sees
        // `cursor ≥ n` — the store that published span `n − 1` — so its
        // re-check drops the span this write overwrites.
        fence(Ordering::Release);
        for (word, v) in self.words(slot).iter().zip(encode(span)) {
            word.store(v, Ordering::Relaxed);
        }
        let publish = if mutation_armed("span-ring-cursor-relaxed") {
            Ordering::Relaxed
        } else {
            Ordering::Release
        };
        self.cursor.store(n + 1, publish);
        self.next_slot
            .store(self.next(slot) as u64, Ordering::Relaxed);
    }

    fn word(&self, slot: usize, word: usize) -> u64 {
        self.words(slot)[word].load(Ordering::Relaxed)
    }

    fn read(&self, slot: usize) -> TaskSpan {
        let mut w = [0; SPAN_WORDS];
        for (v, word) in w.iter_mut().zip(self.words(slot)) {
            *v = word.load(Ordering::Relaxed);
        }
        decode(w)
    }
}

/// What `spans()` takes from one ring: spans `lo..hi` are in its window,
/// `from..hi` are the ones it returns, and span `from` is in `from_slot`.
struct Window {
    lo: u64,
    hi: u64,
    from: u64,
    from_slot: usize,
}

/// Bounded task-event recorder of a runtime: one ring per worker, written
/// only by that worker without a lock, and one shared ring for every other
/// writer. Each ring holds the newest `capacity` spans it recorded;
/// [`spans`](Self::spans) returns the newest `capacity` over all of them,
/// so the window has one bound however unevenly the workers fill their
/// rings. Memory: `(workers + 1) × (capacity + 1)` spans of 64 bytes,
/// reserved when tracing is first enabled.
pub struct TaskTracer {
    enabled: AtomicBool,
    capacity: usize,
    workers: usize,
    /// One per worker, then the shared one; reserved at the first
    /// [`enable`](Self::enable).
    rings: OnceLock<Box<[Ring]>>,
}

impl TaskTracer {
    /// A tracer holding up to `capacity` most recent spans, all recorded
    /// through [`record`](Self::record) (the shared ring only).
    pub fn new(capacity: usize) -> Arc<Self> {
        TaskTracer::for_workers(capacity, 0)
    }

    /// A runtime's tracer: a ring for each of `workers` workers besides
    /// the shared one.
    pub(crate) fn for_workers(capacity: usize, workers: usize) -> Arc<Self> {
        Arc::new(TaskTracer {
            enabled: AtomicBool::new(false),
            capacity: capacity.max(1),
            workers,
            rings: OnceLock::new(),
        })
    }

    /// Start recording (the first call reserves the rings).
    pub fn enable(&self) {
        self.rings.get_or_init(|| {
            (0..=self.workers)
                .map(|_| Ring::new(self.capacity))
                .collect()
        });
        self.enabled.store(true, Ordering::Release);
    }

    /// Stop recording (already-captured spans are kept).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Release);
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Acquire)
    }

    fn rings(&self) -> &[Ring] {
        self.rings.get().map_or(&[], |r| r)
    }

    /// Record one span on the shared ring (no-op while disabled). Safe
    /// from any thread; concurrent callers take turns on its writer lock.
    pub fn record(&self, span: TaskSpan) {
        if self.is_enabled() {
            self.record_on(self.workers, span);
        }
    }

    /// Record one span on ring `ring`: worker `ring`'s own, which only that
    /// worker may write, or — for `ring ≥ workers` — the shared one.
    pub(crate) fn record_on(&self, ring: usize, span: TaskSpan) {
        let Some(r) = self.rings().get(ring.min(self.workers)) else {
            return;
        };
        let _writer = (ring >= self.workers).then(|| r.writer.lock());
        r.push(&span);
    }

    /// Account `ns` spent recording one span on ring `ring` (`run_task`
    /// measures it). A worker adds to its own ring's total with a load and
    /// a store; the shared ring's total takes an RMW.
    pub(crate) fn note_overhead(&self, ring: usize, ns: u64) {
        let Some(r) = self.rings().get(ring.min(self.workers)) else {
            return;
        };
        if ring >= self.workers {
            r.overhead_ns.fetch_add(ns, Ordering::Relaxed);
        } else {
            let total = r.overhead_ns.load(Ordering::Relaxed) + ns;
            r.overhead_ns.store(total, Ordering::Relaxed);
        }
    }

    /// Copy out the newest `capacity` spans over all rings (fewer if fewer
    /// were recorded since the last `clear`), sorted by `start_ns`.
    ///
    /// Each ring's window is read off its base and cursor; a merge from the
    /// rings' tails on the end stamp keeps the newest `capacity`; those are
    /// sorted as `(start_ns, ring, slot)` keys and gathered. A writer may
    /// overwrite a slot while it is copied, so afterwards the cursors are
    /// read again and every span a writer may have reached is dropped:
    /// span `n` survives only if `n + capacity ≥ cursor` (the write of span
    /// `n + capacity + 1`, the next to reuse its slot, had not begun).
    pub fn spans(&self) -> Vec<TaskSpan> {
        let rings = self.rings();
        let capacity = self.capacity as u64;
        let mut windows: Vec<Window> = rings
            .iter()
            .map(|r| {
                let base = r.base.load(Ordering::Acquire);
                let hi = r.cursor.load(Ordering::Acquire);
                let lo = base.max(hi.saturating_sub(capacity)).min(hi);
                Window {
                    lo,
                    hi,
                    from: lo,
                    from_slot: r.slot(lo),
                }
            })
            .collect();
        let held: u64 = windows.iter().map(|w| w.hi - w.lo).sum();
        if held > capacity {
            // The end stamp of each ring's next-older span, if any is left.
            let older_end = |r: &Ring, w: &Window| {
                (w.from > w.lo).then(|| r.word(r.prev(w.from_slot), END_WORD))
            };
            let mut ends: Vec<Option<u64>> = Vec::with_capacity(rings.len());
            for (r, w) in rings.iter().zip(windows.iter_mut()) {
                w.from = w.hi;
                w.from_slot = r.slot(w.hi);
                ends.push(older_end(r, w));
            }
            for _ in 0..capacity {
                // `None` orders below every stamp: a used-up ring wins only
                // when all are.
                let newest = ends.iter().enumerate().max_by_key(|&(_, e)| e);
                let Some((i, Some(_))) = newest else { break };
                let (r, w) = (&rings[i], &mut windows[i]);
                w.from -= 1;
                w.from_slot = r.prev(w.from_slot);
                ends[i] = older_end(r, w);
            }
        }
        let mut keys: Vec<(u64, u32, u32)> = Vec::with_capacity(held.min(capacity) as usize);
        for (i, (r, w)) in rings.iter().zip(&windows).enumerate() {
            let mut slot = w.from_slot;
            for _ in w.from..w.hi {
                keys.push((r.word(slot, START_WORD), i as u32, slot as u32));
                slot = r.next(slot);
            }
        }
        keys.sort_unstable();
        let mut out: Vec<TaskSpan> = keys
            .iter()
            .map(|&(_, i, slot)| rings[i as usize].read(slot as usize))
            .collect();

        // The re-check: which spans could a writer have reached meanwhile?
        fence(Ordering::Acquire);
        let mut overwritten = false;
        for (r, w) in rings.iter().zip(windows.iter_mut()) {
            w.hi = r.cursor.load(Ordering::Relaxed);
            overwritten |= w.from + capacity < w.hi;
        }
        if overwritten && !mutation_armed("span-ring-skip-recheck") {
            let mut kept = 0;
            for (k, &(_, i, slot)) in keys.iter().enumerate() {
                let (r, w) = (&rings[i as usize], &windows[i as usize]);
                // The span of `from..=from + capacity` that `slot` holds.
                let n = w.from + (slot as u64 + r.len() - w.from_slot as u64) % r.len();
                if n + capacity >= w.hi {
                    out[kept] = out[k];
                    kept += 1;
                }
            }
            out.truncate(kept);
        }
        out
    }

    /// Spans recorded since the last `clear` that no longer fit the
    /// window: `written − capacity`, clamped at 0.
    pub fn dropped(&self) -> u64 {
        let written: u64 = self
            .rings()
            .iter()
            .map(|r| {
                let base = r.base.load(Ordering::Acquire);
                r.cursor.load(Ordering::Acquire).saturating_sub(base)
            })
            .sum();
        written.saturating_sub(self.capacity as u64)
    }

    /// Cumulative time the runtime spent recording spans (the tracer's
    /// own cost; `/runtime/trace/overhead-time`).
    pub fn overhead_ns(&self) -> u64 {
        self.rings()
            .iter()
            .map(|r| r.overhead_ns.load(Ordering::Relaxed))
            .sum()
    }

    /// Spans recorded since construction (including later-overwritten
    /// ones; `/runtime/trace/records`): the sum of the ring cursors.
    pub fn records(&self) -> u64 {
        self.rings()
            .iter()
            .map(|r| r.cursor.load(Ordering::Acquire))
            .sum()
    }

    /// Clear captured spans and the drop count (the self-measurement
    /// accumulators keep counting — they describe the tracer, not the
    /// capture window). Each ring's base moves up to its cursor; no
    /// writer's cursor is touched.
    pub fn clear(&self) {
        for r in self.rings() {
            r.base
                .store(r.cursor.load(Ordering::Acquire), Ordering::Release);
        }
    }

    /// Export as Chrome Trace Event Format (a JSON array of complete
    /// events, one per task, thread id = worker): load the output in
    /// `chrome://tracing` or Perfetto. `args` carries the causal context:
    /// parent task id (−1 for roots), spawn-site id and name, queue wait,
    /// and net (help-deducted) duration.
    pub fn to_chrome_trace(&self) -> String {
        let spans = self.spans();
        let mut out = String::with_capacity(spans.len() * 160 + 2);
        out.push('[');
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map(|p| p as i64).unwrap_or(-1);
            let site_name = json_string(&site_name(s.site).unwrap_or_default());
            // Times in the format are microseconds.
            out.push_str(&format!(
                "{{\"name\":\"task {}\",\"cat\":\"task\",\"ph\":\"X\",\"ts\":{:.3},\
                 \"dur\":{:.3},\"pid\":0,\"tid\":{},\"args\":{{\"wait_us\":{:.3},\
                 \"net_us\":{:.3},\"parent\":{},\"site\":{},\"site_name\":{}}}}}",
                s.task_id,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.worker,
                s.wait_ns as f64 / 1e3,
                s.net_ns() as f64 / 1e3,
                parent,
                s.site,
                site_name,
            ));
        }
        out.push(']');
        out
    }

    /// Simple per-worker utilization profile over the captured window:
    /// (worker, busy_ns, tasks). Busy time is *net* — help-execution inside
    /// a parent's wait is counted once, in the helped task's span — so the
    /// profiled busy time of a worker never exceeds the window's wall time.
    pub fn per_worker_profile(&self) -> Vec<(u32, u64, u64)> {
        let spans = self.spans();
        let mut map: std::collections::BTreeMap<u32, (u64, u64)> = Default::default();
        for s in spans {
            let e = map.entry(s.worker).or_insert((0, 0));
            e.0 += s.net_ns();
            e.1 += 1;
        }
        map.into_iter()
            .map(|(w, (busy, tasks))| (w, busy, tasks))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, worker: u32, start: u64, end: u64) -> TaskSpan {
        TaskSpan {
            task_id: id,
            parent: id.checked_sub(1),
            site: 0,
            worker,
            start_ns: start,
            end_ns: end,
            wait_ns: 5,
            nested_ns: 0,
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = TaskTracer::new(8);
        t.record(span(1, 0, 0, 10));
        assert!(t.spans().is_empty());
        assert_eq!(t.records(), 0);
    }

    #[test]
    fn enabled_tracer_captures_in_order() {
        let t = TaskTracer::new(8);
        t.enable();
        t.record(span(2, 0, 10, 20));
        t.record(span(1, 1, 0, 5));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].task_id, 1, "sorted by start time");
        assert_eq!(spans[1].duration_ns(), 10);
        assert_eq!(t.dropped(), 0);
        assert_eq!(t.records(), 2);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let t = TaskTracer::new(3);
        t.enable();
        for i in 0..5 {
            t.record(span(i, 0, i * 10, i * 10 + 5));
        }
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.dropped(), 2);
    }

    #[test]
    fn ring_wrap_keeps_newest_in_chronological_order() {
        // Capacity 4, 11 records: the survivors must be exactly the last 4
        // spans, returned sorted by start time, with dropped() exact.
        let t = TaskTracer::new(4);
        t.enable();
        for i in 0..11u64 {
            t.record(span(i, 0, i * 100, i * 100 + 50));
        }
        let spans = t.spans();
        assert_eq!(
            spans.iter().map(|s| s.task_id).collect::<Vec<_>>(),
            vec![7, 8, 9, 10],
            "ring keeps the newest spans"
        );
        assert!(
            spans.windows(2).all(|w| w[0].start_ns <= w[1].start_ns),
            "spans() is chronological after wraparound"
        );
        assert_eq!(t.dropped(), 7, "dropped() counts every overwrite");
    }

    #[test]
    fn chrome_trace_after_wrap_is_valid_json_with_causal_args() {
        let t = TaskTracer::new(3);
        t.enable();
        for i in 0..8u64 {
            t.record(span(i, (i % 2) as u32, i * 10, i * 10 + 7));
        }
        let json = t.to_chrome_trace();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        let events = parsed.as_array().unwrap();
        assert_eq!(events.len(), 3);
        for ev in events {
            assert_eq!(ev["ph"], "X");
            assert!(
                ev["args"]["parent"].as_i64().is_some(),
                "parent arg present"
            );
            assert!(ev["args"]["site"].as_i64().is_some(), "site arg present");
            assert!(ev["args"]["net_us"].as_f64().is_some(), "net arg present");
        }
    }

    #[test]
    fn wrap_survives_concurrent_record_and_clear() {
        // 4 recorders + 1 clearer hammer a tiny ring; afterwards the
        // invariants must hold: parseable export, causal args on every
        // event, chronological spans(), and len ≤ capacity.
        let t = TaskTracer::new(8);
        t.enable();
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for w in 0..4u32 {
            let t = t.clone();
            let stop = stop.clone();
            handles.push(std::thread::spawn(move || {
                let mut i = w as u64 * 1_000_000;
                while !stop.load(Ordering::Relaxed) {
                    t.record(span(i, w, i, i + 3));
                    i += 1;
                }
            }));
        }
        {
            let t = t.clone();
            let stop = stop.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    t.clear();
                    let json = t.to_chrome_trace();
                    let parsed: serde_json::Value =
                        serde_json::from_str(&json).expect("mid-race export parses");
                    for ev in parsed.as_array().unwrap() {
                        assert!(ev["args"]["parent"].as_i64().is_some());
                        assert!(ev["args"]["site"].as_i64().is_some());
                    }
                    std::thread::yield_now();
                }
                stop.store(true, Ordering::Relaxed);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let spans = t.spans();
        assert!(spans.len() <= 8);
        assert!(spans.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
    }

    #[test]
    fn dropped_is_exact_across_wraps() {
        let t = TaskTracer::new(5);
        t.enable();
        let n = 137u64;
        for i in 0..n {
            t.record(span(i, 0, i, i + 1));
        }
        assert_eq!(t.dropped(), n - 5);
        assert_eq!(t.records(), n);
        t.clear();
        assert_eq!(t.dropped(), 0, "clear resets the window's drop count");
        assert_eq!(t.records(), n, "self-measurement survives clear");
    }

    /// Spans recorded as `(ring, span)`, newest `capacity` by end stamp,
    /// in start order: what `spans()` must return.
    fn newest_by_end(recorded: &[(usize, TaskSpan)], capacity: usize) -> Vec<TaskSpan> {
        let mut all: Vec<TaskSpan> = recorded.iter().map(|&(_, s)| s).collect();
        all.sort_by_key(|s| s.end_ns);
        let mut newest = all.split_off(all.len().saturating_sub(capacity));
        newest.sort_by_key(|s| s.start_ns);
        newest
    }

    #[test]
    fn uneven_rings_keep_the_newest_capacity_overall() {
        // Worker 0 wraps its ring, worker 1 records a handful whose ends
        // interleave with worker 0's newest, worker 2 records nothing, the
        // shared ring two old spans.
        let capacity = 8;
        let t = TaskTracer::for_workers(capacity, 3);
        t.enable();
        let mut recorded = Vec::new();
        for i in 0..20u64 {
            recorded.push((0, span(i, 0, i * 100, i * 100 + 50)));
        }
        for (k, end) in [1_425u64, 1_725, 1_999].into_iter().enumerate() {
            recorded.push((1, span(100 + k as u64, 1, end - 30, end)));
        }
        for k in 0..2u64 {
            recorded.push((3, span(200 + k, 3, k, k + 1)));
        }
        for &(ring, s) in &recorded {
            t.record_on(ring, s);
        }
        let written = recorded.len() as u64;
        let spans = t.spans();
        assert_eq!(spans.len(), capacity);
        assert_eq!(spans, newest_by_end(&recorded, capacity));
        assert!(spans.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
        assert_eq!(t.records(), written);
        assert_eq!(t.dropped(), written - capacity as u64);

        // After a clear, the window restarts on every ring at once.
        t.clear();
        t.record_on(2, span(300, 2, 5_000, 5_010));
        assert_eq!(
            t.spans().iter().map(|s| s.task_id).collect::<Vec<_>>(),
            [300]
        );
        assert_eq!((t.records(), t.dropped()), (written + 1, 0));
    }

    #[test]
    fn fewer_spans_than_capacity_are_all_returned() {
        let t = TaskTracer::for_workers(16, 2);
        t.enable();
        let recorded = [
            (0, span(1, 0, 10, 20)),
            (1, span(2, 1, 5, 30)),
            (2, span(3, 2, 7, 8)),
        ];
        for &(ring, s) in &recorded {
            t.record_on(ring, s);
        }
        assert_eq!(t.spans(), newest_by_end(&recorded, 16));
        assert_eq!((t.records(), t.dropped()), (3, 0));
    }

    #[test]
    fn overhead_sums_worker_and_shared_rings() {
        let t = TaskTracer::for_workers(4, 2);
        t.note_overhead(0, 5);
        assert_eq!(t.overhead_ns(), 0, "nothing is reserved before enable");
        t.enable();
        t.note_overhead(0, 5);
        t.note_overhead(1, 7);
        t.note_overhead(2, 11);
        t.note_overhead(9, 13);
        assert_eq!(t.overhead_ns(), 36);
    }

    /// A span whose every field is a function of its id, so a copy mixing
    /// two writes is recognisable.
    fn stamped(id: u64) -> TaskSpan {
        TaskSpan {
            task_id: id,
            parent: (id % 3 != 0).then_some(id * 7),
            site: id as u32 ^ 0x5a5a,
            worker: 0,
            start_ns: id * 10,
            end_ns: id * 10 + 5,
            wait_ns: id + 1,
            nested_ns: id % 5,
        }
    }

    #[test]
    fn readers_racing_an_owner_never_see_a_torn_span() {
        // One owner fills a four-slot worker ring as fast as it can while
        // this thread copies and clears it: every span that comes out must
        // be one the owner wrote, whole, in start order.
        let t = TaskTracer::for_workers(4, 1);
        t.enable();
        let stop = Arc::new(AtomicBool::new(false));
        let owner = {
            let (t, stop) = (t.clone(), stop.clone());
            std::thread::spawn(move || {
                let mut id = 0;
                while !stop.load(Ordering::Relaxed) {
                    t.record_on(0, stamped(id));
                    id += 1;
                }
            })
        };
        for round in 0..20_000 {
            if round % 7 == 0 {
                t.clear();
            }
            let spans = t.spans();
            assert!(spans.len() <= 4);
            for s in &spans {
                assert_eq!(*s, stamped(s.task_id), "torn span");
            }
            assert!(spans.windows(2).all(|w| w[0].start_ns < w[1].start_ns));
        }
        stop.store(true, Ordering::Relaxed);
        owner.join().unwrap();
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let t = TaskTracer::new(8);
        t.enable();
        t.record(TaskSpan {
            task_id: 7,
            parent: Some(3),
            site: 0,
            worker: 2,
            start_ns: 1_000,
            end_ns: 3_500,
            wait_ns: 5,
            nested_ns: 500,
        });
        let json = t.to_chrome_trace();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        let ev = &parsed[0];
        assert_eq!(ev["ph"], "X");
        assert_eq!(ev["tid"], 2);
        assert_eq!(ev["dur"], 2.5);
        assert_eq!(ev["args"]["wait_us"], 0.005);
        assert_eq!(ev["args"]["net_us"], 2.0);
        assert_eq!(ev["args"]["parent"], 3);
    }

    #[test]
    fn per_worker_profile_uses_net_durations() {
        let t = TaskTracer::new(8);
        t.enable();
        // Worker 0: a parent that waited 0..100 but help-executed a child
        // for 60ns of it, plus the child itself (40..100, net 60). Gross
        // sum would be 160 > the 100ns window; net sum is exactly 100.
        t.record(TaskSpan {
            task_id: 1,
            parent: None,
            site: 0,
            worker: 0,
            start_ns: 0,
            end_ns: 100,
            wait_ns: 0,
            nested_ns: 60,
        });
        t.record(TaskSpan {
            task_id: 2,
            parent: Some(1),
            site: 0,
            worker: 0,
            start_ns: 40,
            end_ns: 100,
            wait_ns: 1,
            nested_ns: 0,
        });
        t.record(span(3, 1, 0, 100));
        let profile = t.per_worker_profile();
        assert_eq!(profile, vec![(0, 100, 2), (1, 100, 1)]);
    }

    #[test]
    fn clear_resets_everything() {
        let t = TaskTracer::new(2);
        t.enable();
        for i in 0..4 {
            t.record(span(i, 0, i, i + 1));
        }
        t.clear();
        assert!(t.spans().is_empty());
        assert_eq!(t.dropped(), 0);
        assert_eq!(t.to_chrome_trace(), "[]");
    }

    #[track_caller]
    fn here() -> &'static Location<'static> {
        Location::caller()
    }

    #[test]
    fn site_ids_are_stable_and_named() {
        let a = here();
        let b = here();
        let ia = site_id(a);
        let ib = site_id(b);
        assert_ne!(ia, ib, "distinct lines get distinct sites");
        assert_eq!(site_id(a), ia, "re-interning is stable");
        let name = site_name(ia).expect("issued ids resolve");
        assert!(name.contains("trace.rs"), "name is file:line:col: {name}");
        assert_ne!(ia, UNKNOWN_SITE);
        assert_eq!(site_name(UNKNOWN_SITE), None);
    }

    #[test]
    fn net_ns_deducts_nested_time() {
        let s = TaskSpan {
            task_id: 1,
            parent: None,
            site: 0,
            worker: 0,
            start_ns: 100,
            end_ns: 600,
            wait_ns: 0,
            nested_ns: 150,
        };
        assert_eq!(s.duration_ns(), 500);
        assert_eq!(s.net_ns(), 350);
    }
}
