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
//! Tracing is off by default; enabling it installs a bounded ring buffer
//! so long runs cannot exhaust memory (oldest events are dropped, counted).
//! The runtime times each recording on the clock that stamped the span
//! ([`TaskTracer::overhead_ns`], exported as `/runtime/trace/overhead-time`),
//! so the paper's ≤10 % instrumentation envelope is checkable from inside
//! the process.

use std::cell::Cell;
use std::collections::HashMap;
use std::panic::Location;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

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

/// Bounded task-event recorder shared by all workers of a runtime.
pub struct TaskTracer {
    enabled: AtomicBool,
    capacity: usize,
    ring: Mutex<Ring>,
    /// Self-measurement: time the runtime spent recording spans, so the
    /// tracer's own cost is a counter like any other.
    overhead_ns: AtomicU64,
}

/// The span buffer and its one cursor. Span `n` since the last `clear`
/// lives in slot `n % capacity`, so the drop and record counts are read
/// off the cursor instead of being counted beside it.
#[derive(Default)]
struct Ring {
    spans: Vec<TaskSpan>,
    /// Spans recorded since the last `clear`.
    written: u64,
    /// Spans recorded before it.
    earlier: u64,
}

impl TaskTracer {
    /// A tracer holding up to `capacity` most recent spans.
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(TaskTracer {
            enabled: AtomicBool::new(false),
            capacity: capacity.max(1),
            ring: Mutex::new(Ring::default()),
            overhead_ns: AtomicU64::new(0),
        })
    }

    /// Start recording.
    pub fn enable(&self) {
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

    /// Record one span (no-op while disabled).
    pub fn record(&self, span: TaskSpan) {
        if !self.is_enabled() {
            return;
        }
        let mut ring = self.ring.lock();
        let slot = (ring.written % self.capacity as u64) as usize;
        if slot < ring.spans.len() {
            // Ring behaviour: overwrite the oldest slot.
            ring.spans[slot] = span;
        } else {
            ring.spans.push(span);
        }
        ring.written += 1;
    }

    /// Account `ns` spent recording one span (`run_task` measures it).
    pub(crate) fn note_overhead(&self, ns: u64) {
        self.overhead_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Copy out the captured spans (ring order is not chronological once
    /// the buffer wrapped; sorted by `start_ns` here).
    pub fn spans(&self) -> Vec<TaskSpan> {
        let mut v = self.ring.lock().spans.clone();
        v.sort_by_key(|s| s.start_ns);
        v
    }

    /// Spans that were overwritten after the buffer filled.
    pub fn dropped(&self) -> u64 {
        let ring = self.ring.lock();
        ring.written.saturating_sub(self.capacity as u64)
    }

    /// Cumulative time the runtime spent recording spans (the tracer's
    /// own cost; `/runtime/trace/overhead-time`).
    pub fn overhead_ns(&self) -> u64 {
        self.overhead_ns.load(Ordering::Relaxed)
    }

    /// Spans recorded since construction (including later-overwritten
    /// ones; `/runtime/trace/records`).
    pub fn records(&self) -> u64 {
        let ring = self.ring.lock();
        ring.earlier + ring.written
    }

    /// Clear captured spans and the drop count (the self-measurement
    /// accumulators keep counting — they describe the tracer, not the
    /// capture window).
    pub fn clear(&self) {
        let mut ring = self.ring.lock();
        ring.spans.clear();
        ring.earlier += ring.written;
        ring.written = 0;
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
