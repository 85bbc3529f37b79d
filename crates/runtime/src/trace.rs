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
//! times one recording in 64 (`TIMED_EVERY`) on the clock that stamped the
//! span and charges it that many times over ([`TaskTracer::overhead_ns`],
//! exported as `/runtime/trace/overhead-time`), so the paper's ≤10 %
//! instrumentation envelope is checkable from inside the process.

use std::cell::Cell;
use std::collections::HashMap;
use std::ops::Range;
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
        start_ns: w[START_WORD],
        end_ns: w[END_WORD],
        wait_ns: w[6],
        nested_ns: w[7],
    }
}

/// Word offsets of the two stamps: `spans()` cuts the window on the end
/// stamp before it copies a slot.
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

    /// The end stamp of span `n`.
    fn end_of(&self, n: u64) -> u64 {
        self.word(self.slot(n), END_WORD)
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

impl Window {
    /// The slots of spans `from..hi` in ascending order, on a ring of
    /// `len` slots, as two ranges: a wrapped window's head `0..end` before
    /// its tail `from_slot..`.
    fn slots(&self, len: usize) -> [Range<usize>; 2] {
        let end = self.from_slot + (self.hi - self.from) as usize;
        if end > len {
            [0..end - len, self.from_slot..len]
        } else {
            [0..0, self.from_slot..end]
        }
    }
}

/// A slot's place in a sort key's low `bits`: `ring << slot_bits | slot`.
#[derive(Clone, Copy)]
struct Places {
    slot_bits: u32,
    bits: u32,
}

impl Places {
    /// Places for `rings` rings of `len` slots.
    fn new(rings: usize, len: usize) -> Self {
        let bits_for = |n: usize| u64::BITS - (n as u64).saturating_sub(1).leading_zeros();
        let slot_bits = bits_for(len);
        Places {
            slot_bits,
            bits: slot_bits + bits_for(rings),
        }
    }

    fn of(&self, ring: usize, slot: usize) -> u64 {
        (ring as u64) << self.slot_bits | slot as u64
    }

    fn ring(&self, key: u64) -> usize {
        ((key & ((1 << self.bits) - 1)) >> self.slot_bits) as usize
    }

    fn slot(&self, key: u64) -> usize {
        (key & ((1 << self.slot_bits) - 1)) as usize
    }
}

/// The first `n` in `lo..hi` for which `below(n)` is false, when it holds
/// for a prefix of the range (`hi` if it holds throughout).
fn first_not(mut lo: u64, mut hi: u64, below: impl Fn(u64) -> bool) -> u64 {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if below(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Widest digit of [`radix_sort`]: 2 048 counters fit in L1.
const RADIX_BITS: u32 = 11;

/// Sort `keys` on their `bits` bits above the lowest `skip`, stably: a
/// least-significant-digit radix sort through `scratch` (as long as
/// `keys`) in as few digits of at most [`RADIX_BITS`] as cover `bits`,
/// all of one width, every digit's counts taken in one pass, every digit
/// all keys share skipped. Returns whichever of the two holds the result.
fn radix_sort<'a>(
    mut keys: &'a mut [u64],
    mut scratch: &'a mut [u64],
    skip: u32,
    bits: u32,
) -> &'a mut [u64] {
    let digits = bits.div_ceil(RADIX_BITS);
    let width = bits.div_ceil(digits.max(1));
    let digit = |k: u64, d: u32| (k >> (skip + d * width)) as usize & ((1 << width) - 1);
    let mut counts = [[0u32; 1 << RADIX_BITS]; u64::BITS.div_ceil(RADIX_BITS) as usize];
    for &k in keys.iter() {
        for d in 0..digits {
            counts[d as usize][digit(k, d)] += 1;
        }
    }
    for d in 0..digits {
        let at = &mut counts[d as usize][..1 << width];
        if at.iter().any(|&n| n as usize == keys.len()) {
            continue;
        }
        let mut sum = 0;
        for n in at.iter_mut() {
            (*n, sum) = (sum, sum + *n);
        }
        for &k in keys.iter() {
            let slot = &mut at[digit(k, d)];
            scratch[*slot as usize] = k;
            *slot += 1;
        }
        std::mem::swap(&mut keys, &mut scratch);
    }
    keys
}

/// How often `run_task` times a record: the middle one of each block of
/// this many on a ring (cursor ≡ `TIMED_EVERY / 2`), charged to the
/// overhead this many times over. Neither end of the block is
/// representative: the first write of a fresh ring is cold, and a ring's
/// 64-byte slots start 16 bytes into a page (glibc serves the allocation
/// from its own mapping), so the last slot of each 64 straddles a page
/// boundary. Timing either charges its extra cost 64 times over.
pub(crate) const TIMED_EVERY: u64 = 64;

/// A timed ring write that took this long was interrupted (the thread was
/// preempted mid-write) and is not charged: a write is ten stores, and one
/// 4 ms time slice counted 64 times over outweighs a fib(17) run's whole
/// execution.
const INTERRUPTED_NS: u64 = 100_000;

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
            self.record_on(self.workers, span, || 0);
        }
    }

    /// Record one span on ring `ring`: worker `ring`'s own, which only that
    /// worker may write, or — for `ring ≥ workers` — the shared one. When
    /// the write is the middle one of a block of [`TIMED_EVERY`] on the
    /// ring, it is timed between two readings of `now` and its nanoseconds
    /// are returned, unless the window was interrupted (≥
    /// [`INTERRUPTED_NS`]). The choice is made before the first reading, so
    /// the branch on it — taken once in 64, and so mispredicted — is not
    /// part of what is timed.
    pub(crate) fn record_on(
        &self,
        ring: usize,
        span: TaskSpan,
        now: impl Fn() -> u64,
    ) -> Option<u64> {
        let r = self.rings().get(ring.min(self.workers))?;
        let _writer = (ring >= self.workers).then(|| r.writer.lock());
        if r.cursor.load(Ordering::Relaxed) % TIMED_EVERY == TIMED_EVERY / 2 {
            let t0 = now();
            r.push(&span);
            Some(now().saturating_sub(t0)).filter(|&ns| ns < INTERRUPTED_NS)
        } else {
            r.push(&span);
            None
        }
    }

    /// Account `ns` of recording to ring `ring` (`run_task` charges
    /// [`TIMED_EVERY`] × the time of each record it times). A worker adds
    /// to its own ring's total with a load and a store; the shared ring's
    /// total takes an RMW.
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
    /// were recorded since the last `clear`), sorted by `start_ns` (ties by
    /// ring, then slot).
    ///
    /// Each ring's window is read off its base and cursor and cut to the
    /// newest `capacity` spans by end stamp (`select`). Each chosen slot
    /// gets one 8-byte sort key, its start stamp packed above its place
    /// (ring and slot); the keys are radix-sorted and the spans copied in
    /// their order. A writer may overwrite a slot while it is copied, so
    /// afterwards the cursors are read again and every span a writer may
    /// have reached is dropped: span `n` survives only if
    /// `n + capacity ≥ cursor` (the write of span `n + capacity + 1`, the
    /// next to reuse its slot, had not begun).
    pub fn spans(&self) -> Vec<TaskSpan> {
        self.copy(true)
    }

    /// [`spans`](Self::spans), in ring order when not `sorted`.
    fn copy(&self, sorted: bool) -> Vec<TaskSpan> {
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
        let copied = held.min(capacity) as usize;
        // A sort key per chosen slot, in `(ring, slot)` order, with room
        // behind them for the sort's scratch: first the start stamp.
        let mut keys: Vec<u64> = Vec::with_capacity(2 * copied);
        if held > capacity {
            self.select(&mut windows, &mut keys);
            keys.clear();
        }
        let len = self.capacity + 1;
        for (r, w) in rings.iter().zip(&windows) {
            for slots in w.slots(len) {
                keys.extend(slots.map(|slot| r.word(slot, START_WORD)));
            }
        }
        // Each start stamp becomes `start − min` above the slot's place.
        let (min, max) = keys
            .iter()
            .fold((u64::MAX, 0), |(lo, hi), &k| (lo.min(k), hi.max(k)));
        let places = Places::new(rings.len(), len);
        let stamp_bits = u64::BITS - max.saturating_sub(min).leading_zeros();
        let shift = stamp_bits.saturating_sub(u64::BITS - places.bits);
        let mut at = 0;
        for (i, w) in windows.iter().enumerate() {
            for slots in w.slots(len) {
                let count = slots.len();
                for (k, slot) in keys[at..at + count].iter_mut().zip(slots) {
                    *k = ((*k - min) >> shift) << places.bits | places.of(i, slot);
                }
                at += count;
            }
        }
        keys.resize(2 * at, 0);
        let (keys, scratch) = keys.split_at_mut(at);
        let order = match sorted {
            true => radix_sort(keys, scratch, places.bits, stamp_bits - shift),
            false => keys,
        };
        let span_at = |k: u64| (&rings[places.ring(k)], places.slot(k));
        if shift > 0 {
            // The stamps were too far apart for the bits above the place:
            // the keys were sorted on their top bits, so each run of equal
            // top bits is ordered on the whole stamp, read once per span
            // (a writer may be overwriting it).
            for run in order.chunk_by_mut(|a, b| a >> places.bits == b >> places.bits) {
                run.sort_by_cached_key(|&k| {
                    let (r, slot) = span_at(k);
                    (r.word(slot, START_WORD), k)
                });
            }
        }
        let mut out: Vec<TaskSpan> = order
            .iter()
            .map(|&k| {
                let (r, slot) = span_at(k);
                r.read(slot)
            })
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
            for (at, &k) in order.iter().enumerate() {
                let ring = places.ring(k);
                let (r, w, slot) = (&rings[ring], &windows[ring], places.slot(k));
                // The span of `from..=from + capacity` that `slot` holds.
                let n = w.from + (slot as u64 + r.len() - w.from_slot as u64) % r.len();
                if n + capacity >= w.hi {
                    out[kept] = out[at];
                    kept += 1;
                }
            }
            out.truncate(kept);
        }
        out
    }

    /// Cut the windows, which hold more than `capacity` spans together, to
    /// the newest `capacity` by end stamp: the spans a merge from the
    /// rings' tails would take, a tie going to the higher ring and, within
    /// a ring, to the newer span. `scratch` must have room for `capacity`
    /// stamps.
    ///
    /// A worker ring's end stamps never decrease (its worker records each
    /// span just after stamping its end), so its spans at or above a stamp
    /// `v` are a suffix found by binary search, and the cut's stamp is a
    /// binary search over `v`. The shared ring's writers interleave, so its
    /// stamps are first replaced by their running minimum from the tail —
    /// as the merge sees them: an older span with a later end waits behind
    /// the newer span before it, and the shared ring wins every tie.
    fn select(&self, windows: &mut [Window], scratch: &mut Vec<u64>) {
        let rings = self.rings();
        let capacity = self.capacity as u64;
        let shared = rings.len() - 1;
        let (r, w) = (&rings[shared], &windows[shared]);
        let mut min = u64::MAX;
        // Newest first: `scratch[k]` is span `hi − 1 − k`'s stamp.
        for n in (w.lo..w.hi).rev() {
            min = min.min(r.end_of(n));
            scratch.push(min);
        }
        let shared_ends = &scratch[..];
        // Spans of ring `i`'s window `lo..hi` whose stamp is at least `v`.
        let above = |i: usize, lo: u64, hi: u64, v: u64| {
            if i == shared {
                first_not(0, hi - lo, |k| shared_ends[k as usize] >= v)
            } else {
                hi - first_not(lo, hi, |n| rings[i].end_of(n) < v)
            }
        };
        let at_least = |v: u64| -> u64 {
            windows
                .iter()
                .enumerate()
                .map(|(i, w)| above(i, w.lo, w.hi, v))
                .sum()
        };
        // The largest stamp with `capacity` spans at or above it.
        let (mut lo, mut hi) = (0, u64::MAX);
        while lo < hi {
            let mid = hi - (hi - lo) / 2;
            if at_least(mid) >= capacity {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        let cut = lo;
        // Everything above the cut, then the ties, higher rings first (the
        // `min`s only bite on a ring a writer changed under the search).
        let mut left = capacity;
        for i in (0..windows.len()).rev() {
            let w = &windows[i];
            let above_cut = match cut.checked_add(1) {
                Some(v) => above(i, w.lo, w.hi, v),
                None => 0,
            };
            let take = above_cut.min(left);
            left -= take;
            windows[i].from = windows[i].hi - take;
        }
        for i in (0..windows.len()).rev() {
            let w = &windows[i];
            let ties = above(i, w.lo, w.hi, cut).saturating_sub(w.hi - w.from);
            let take = ties.min(left);
            left -= take;
            windows[i].from -= take;
        }
        for (r, w) in rings.iter().zip(windows.iter_mut()) {
            w.from_slot = r.slot(w.from);
        }
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
        use std::fmt::Write;
        let spans = self.spans();
        // Each distinct site's quoted name, resolved once per call.
        let mut names: HashMap<u32, String> = HashMap::new();
        let mut out = String::with_capacity(spans.len() * 160 + 2);
        out.push('[');
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map(|p| p as i64).unwrap_or(-1);
            let site_name = names
                .entry(s.site)
                .or_insert_with(|| json_string(&site_name(s.site).unwrap_or_default()));
            // Times in the format are microseconds.
            write!(
                out,
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
            )
            .expect("writing to a String cannot fail");
        }
        out.push(']');
        out
    }

    /// Simple per-worker utilization profile over the captured window:
    /// (worker, busy_ns, tasks). Busy time is *net* — help-execution inside
    /// a parent's wait is counted once, in the helped task's span — so the
    /// profiled busy time of a worker never exceeds the window's wall time.
    pub fn per_worker_profile(&self) -> Vec<(u32, u64, u64)> {
        // A sum needs the window, not its order.
        let spans = self.copy(false);
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
            t.record_on(ring, s, || 0);
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
        t.record_on(2, span(300, 2, 5_000, 5_010), || 0);
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
            t.record_on(ring, s, || 0);
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

    #[test]
    fn a_fresh_rings_first_write_is_not_timed() {
        // A fresh ring's first write is cold: timing it would charge that
        // cost 64 times over.
        let t = TaskTracer::for_workers(256, 1);
        t.enable();
        for ring in [0, 1] {
            let timed: Vec<u64> = (0..2 * TIMED_EVERY + 1)
                .filter(|&n| t.record_on(ring, span(n, 0, n, n + 1), || n).is_some())
                .collect();
            assert_eq!(
                timed,
                [TIMED_EVERY / 2, TIMED_EVERY + TIMED_EVERY / 2],
                "ring {ring}: one write in {TIMED_EVERY} is timed, never the first"
            );
        }
    }

    #[test]
    fn an_interrupted_timed_write_is_not_charged() {
        let t = TaskTracer::for_workers(256, 1);
        t.enable();
        // One write on a clock that advances `step` per reading, so a
        // timed write's window is `step`.
        let write = |step: u64| {
            let c = Cell::new(0);
            let now = || {
                c.set(c.get() + step);
                c.get()
            };
            t.record_on(0, span(0, 0, 0, 1), now)
        };
        for _ in 0..TIMED_EVERY / 2 {
            assert_eq!(write(1), None);
        }
        assert_eq!(write(40), Some(40), "a timed write is charged");
        for _ in 1..TIMED_EVERY {
            assert_eq!(write(1), None);
        }
        assert_eq!(t.records(), TIMED_EVERY + TIMED_EVERY / 2);
        assert_eq!(write(INTERRUPTED_NS), None, "a preempted window is not");
    }

    /// A span whose every field is a function of its id, so a copy mixing
    /// two writes is recognisable.
    fn stamped(id: u64) -> TaskSpan {
        TaskSpan {
            task_id: id,
            parent: (!id.is_multiple_of(3)).then_some(id * 7),
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
                    t.record_on(0, stamped(id), || 0);
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

    /// The copy as a merge from the rings' tails on the end stamp, a
    /// comparison sort of `(start_ns, ring, slot)` keys and a gather: what
    /// `spans()` must return for rings no writer is touching.
    fn reference_spans(t: &TaskTracer) -> Vec<TaskSpan> {
        let rings = t.rings();
        let capacity = t.capacity as u64;
        let prev = |r: &Ring, slot: usize| slot.checked_sub(1).unwrap_or(r.len() as usize - 1);
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
            let older_end = |r: &Ring, w: &Window| {
                (w.from > w.lo).then(|| r.word(prev(r, w.from_slot), END_WORD))
            };
            let mut ends: Vec<Option<u64>> = Vec::new();
            for (r, w) in rings.iter().zip(windows.iter_mut()) {
                w.from = w.hi;
                w.from_slot = r.slot(w.hi);
                ends.push(older_end(r, w));
            }
            for _ in 0..capacity {
                let newest = ends.iter().enumerate().max_by_key(|&(_, e)| e);
                let Some((i, Some(_))) = newest else { break };
                let (r, w) = (&rings[i], &mut windows[i]);
                w.from -= 1;
                w.from_slot = prev(r, w.from_slot);
                ends[i] = older_end(r, w);
            }
        }
        let mut keys: Vec<(u64, u32, u32)> = Vec::new();
        for (i, (r, w)) in rings.iter().zip(&windows).enumerate() {
            let mut slot = w.from_slot;
            for _ in w.from..w.hi {
                keys.push((r.word(slot, START_WORD), i as u32, slot as u32));
                slot = r.next(slot);
            }
        }
        keys.sort_unstable();
        keys.iter()
            .map(|&(_, i, slot)| rings[i as usize].read(slot as usize))
            .collect()
    }

    /// One random recording history, checked against the reference after
    /// every step: 1–4 worker rings whose end stamps never decrease (ties
    /// within and across rings are common), a shared ring whose end stamps
    /// go anywhere, uneven ring weights, wraps, `clear()`s mid-stream,
    /// repeated start stamps and, now and then, stamps far apart (every
    /// radix digit in play).
    fn spans_match_reference_for(seed: u64) {
        use proptest::test_runner::TestRng;
        let mut rng = TestRng::from_seed(seed);
        let workers = 1 + rng.below(4) as usize;
        let most = if rng.below(4) == 0 { 64 } else { 8 };
        let capacity = 1 + rng.below(most) as usize;
        let t = TaskTracer::for_workers(capacity, workers);
        t.enable();
        let weights: Vec<u64> = (0..=workers).map(|_| rng.below(8)).collect();
        let total: u64 = weights.iter().sum::<u64>().max(1);
        let far = rng.below(3) == 0;
        let mut now = if far { rng.below(1 << 40) } else { 1_000 };
        let mut last_end = vec![0u64; workers];
        let mut last_start = 0;
        let steps = 1 + rng.below(8 * capacity as u64 + 16);
        for id in 0..steps {
            if rng.below(40) == 0 {
                t.clear();
            } else {
                now += rng.below(3);
                let (mut pick, mut ring) = (rng.below(total), workers);
                for (i, &w) in weights.iter().enumerate() {
                    if pick < w {
                        ring = i;
                        break;
                    }
                    pick -= w;
                }
                let end = if ring < workers {
                    last_end[ring] = last_end[ring].max(now);
                    last_end[ring]
                } else {
                    rng.below(now + 5)
                };
                let start = match rng.below(6) {
                    0 => last_start,
                    1 if far => rng.next_u64(),
                    _ => end.saturating_sub(rng.below(8)),
                };
                last_start = start;
                t.record_on(
                    ring,
                    TaskSpan {
                        task_id: id,
                        parent: id.checked_sub(1 + rng.below(3)),
                        site: rng.below(4) as u32,
                        worker: ring as u32,
                        start_ns: start,
                        end_ns: end,
                        wait_ns: rng.below(100),
                        nested_ns: rng.below(3),
                    },
                    || 0,
                );
            }
            let reference = reference_spans(&t);
            assert_eq!(t.spans(), reference, "after step {id}");
            let mut profile = std::collections::BTreeMap::new();
            for s in &reference {
                let e = profile.entry(s.worker).or_insert((0, 0));
                (e.0, e.1) = (e.0 + s.net_ns(), e.1 + 1);
            }
            let profile: Vec<_> = profile.into_iter().map(|(w, (b, n))| (w, b, n)).collect();
            assert_eq!(t.per_worker_profile(), profile, "after step {id}");
        }
    }

    #[test]
    fn spans_match_the_merge_sort_gather_reference() {
        proptest::run_property(
            "spans_match_the_merge_sort_gather_reference",
            &proptest::ProptestConfig::with_cases(512),
            &(0..u64::MAX),
            spans_match_reference_for,
        );
    }

    /// The export's formatting before it cached site names and wrote into
    /// one buffer: the bytes `to_chrome_trace` must reproduce.
    fn reference_chrome_trace(spans: &[TaskSpan]) -> String {
        let mut out = String::with_capacity(spans.len() * 160 + 2);
        out.push('[');
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map(|p| p as i64).unwrap_or(-1);
            let site_name = json_string(&site_name(s.site).unwrap_or_default());
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

    #[test]
    fn chrome_trace_bytes_match_the_reference_formatting() {
        let sites = [UNKNOWN_SITE, site_id(here()), site_id(here()), u32::MAX];
        let t = TaskTracer::for_workers(16, 2);
        t.enable();
        for i in 0..24u64 {
            t.record_on(
                (i % 3) as usize,
                TaskSpan {
                    task_id: i * 7919,
                    parent: (!i.is_multiple_of(4)).then_some(i * 31),
                    site: sites[(i % 4) as usize],
                    worker: (i % 3) as u32,
                    start_ns: i * 1_234_567 + 1,
                    end_ns: i * 1_234_567 + 999 + i,
                    wait_ns: i * 333,
                    nested_ns: i % 5,
                },
                || 0,
            );
        }
        let json = t.to_chrome_trace();
        assert_eq!(json, reference_chrome_trace(&t.spans()));
        assert!(json.contains("trace.rs"), "interned sites are named");
        assert_eq!(
            serde_json::from_str(&json)
                .unwrap()
                .as_array()
                .unwrap()
                .len(),
            16
        );
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
