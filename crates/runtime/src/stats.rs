//! The runtime's task ledger: one cache-line-aligned [`Shard`] of
//! instrumentation per worker thread plus one shared `external` shard for
//! every other thread, summed only when somebody reads — the per-thread
//! counter-instance design the paper's framework is built on, applied to
//! the runtime's own bookkeeping.
//!
//! A worker's shard is written by that worker alone, so every update is a
//! plain load + store: the per-task path performs no locked RMW and no
//! write to a line another worker reads on *its* per-task path. Threads
//! that are not workers of the runtime (root spawns, inline and deferred
//! runs, queue teardown) share the external shard and pay an RMW there.
//!
//! # Flow counters and quiescence
//!
//! Every task passes `queued → started → finished`, each a monotone
//! counter bumped on the shard of the thread performing the step. The
//! gauges are derived on read: `pending = Σqueued − Σstarted`,
//! `active = Σstarted − Σfinished`, `live = Σqueued − Σfinished`.
//! [`Ledger::flow`] reads the three sums in the order *finished, started,
//! queued* with `Acquire` loads, and writers publish with `Release`
//! stores. A task's `queued` bump happens-before its `finished` bump (via
//! the queue hand-off), and a parent's `queued` bump for a child is
//! sequenced before the parent's own `finished` bump, so a reader that
//! counts a task as finished also counts it — and everything it spawned —
//! as queued. `Σfinished == Σqueued` therefore proves the runtime was
//! quiescent at an instant between the two sums; reading `queued` first
//! can report a false zero (the `ledger-read-queued-first` model mutant).

use crate::prim::{mutation_armed, AtomicBool, AtomicU64, Ordering};

/// Task ids a worker reserves from the shared source at a time.
const TASK_ID_BLOCK: u64 = 1024;

/// Instrumentation accumulators of one thread class: a worker (written by
/// that worker only) or everything external to the runtime (shared).
#[derive(Debug)]
#[repr(align(128))]
pub struct Shard {
    /// Whether several threads write this shard (the external one): its
    /// updates are RMWs instead of load + store.
    shared: bool,
    /// Worker index; the external shard carries the worker count.
    index: u32,
    /// Tasks that entered the ledger through this thread: pushed onto a
    /// queue by it, or (never queued) started by it.
    pub queued: AtomicU64,
    /// Tasks this thread took out of a queue to run or cancel.
    pub started: AtomicU64,
    /// Tasks whose run or cancellation finished on this thread.
    pub finished: AtomicU64,
    /// Tasks whose execution finished on this thread.
    pub executed: AtomicU64,
    /// Nanoseconds spent executing task bodies.
    pub exec_ns: AtomicU64,
    /// Nanoseconds of per-task scheduling cost attributed to this thread
    /// (spawn-path cost accrues on the spawner, dispatch-path cost on the
    /// executing worker).
    pub overhead_ns: AtomicU64,
    /// Nanoseconds tasks executed here spent queued (spawn → start).
    pub wait_ns: AtomicU64,
    /// Tasks this worker stole from another worker's queue.
    pub stolen: AtomicU64,
    /// Tasks this worker spawned.
    pub spawned: AtomicU64,
    /// Nanoseconds spent looking for work unsuccessfully (idle).
    pub idle_ns: AtomicU64,
    /// Liveness heartbeat: bumped every scheduling-loop iteration (and
    /// every work-helping iteration). A static value while work is pending
    /// means the worker is stalled — the watchdog watches exactly this.
    pub heartbeat: AtomicU64,
    /// Times the worker loop was respawned after a panic escaped a task
    /// wrapper (feeds `/runtime/health/restarts`).
    pub restarts: AtomicU64,
    /// Stall episodes the watchdog attributed to this worker (feeds
    /// `/runtime/health/stalls`; the one field its owner does not write).
    pub stalls: AtomicU64,
    /// Tasks skipped at dispatch because their cancel token was cancelled
    /// (feeds `/runtime/health/cancelled-tasks`).
    pub cancelled: AtomicU64,
    /// Injected task panics caught and retried at dispatch
    /// (feeds `/runtime/health/recovered-tasks`).
    pub recovered: AtomicU64,
    /// Nanoseconds the supervisor spent backing off between respawns of
    /// this worker (feeds `/runtime/health/restart-backoff`).
    pub backoff_ns: AtomicU64,
    /// Times this worker's restart budget was exhausted and the breaker
    /// tripped (feeds `/runtime/health/breaker-trips`; 0 or 1 per worker).
    pub breaker_trips: AtomicU64,
    /// Spawns by this thread that took an external cell instead of a slab
    /// slot (feeds `/runtime/slab/fallback-allocs`).
    pub fallback_allocs: AtomicU64,
    /// Set once the breaker trips: the worker thread has exited for good,
    /// its deque was re-parented into the injector, and the watchdog must
    /// stop stall-checking its frozen heartbeat.
    pub retired: AtomicBool,
    /// Unissued remainder `id_next..id_end` of this worker's task-id block.
    id_next: AtomicU64,
    id_end: AtomicU64,
}

impl Shard {
    fn new(index: u32, shared: bool) -> Self {
        let zero = || AtomicU64::new(0);
        Shard {
            shared,
            index,
            queued: zero(),
            started: zero(),
            finished: zero(),
            executed: zero(),
            exec_ns: zero(),
            overhead_ns: zero(),
            wait_ns: zero(),
            stolen: zero(),
            spawned: zero(),
            idle_ns: zero(),
            heartbeat: zero(),
            restarts: zero(),
            stalls: zero(),
            cancelled: zero(),
            recovered: zero(),
            backoff_ns: zero(),
            breaker_trips: zero(),
            fallback_allocs: zero(),
            retired: AtomicBool::new(false),
            id_next: zero(),
            id_end: zero(),
        }
    }

    /// Worker index, or the runtime's worker count for the external shard
    /// (what a task span records as its `worker`).
    pub fn index(&self) -> u32 {
        self.index
    }

    /// Whether this is the external shard, whose writers have no
    /// find-miss edge at which idle waiters get woken.
    pub fn is_shared(&self) -> bool {
        self.shared
    }

    /// Add to a statistic. Owner-only shards use load + store — readers
    /// are cross-thread, the writer is only this thread — so the per-task
    /// path carries no locked RMW (the `Slab::allocs` idiom).
    #[inline]
    fn add(&self, field: &AtomicU64, n: u64) {
        self.add_ordered(field, n, Ordering::Relaxed);
    }

    /// Advance a flow counter; `Release` so that a reader who sees the
    /// new value also sees every ledger write sequenced before it.
    #[inline]
    fn advance(&self, field: &AtomicU64) {
        self.add_ordered(field, 1, Ordering::Release);
    }

    #[inline]
    fn add_ordered(&self, field: &AtomicU64, n: u64, order: Ordering) {
        if self.shared {
            field.fetch_add(n, order);
        } else {
            field.store(field.load(Ordering::Relaxed) + n, order);
        }
    }

    /// A task this thread spawned is about to be pushed onto a queue.
    pub fn note_queued(&self) {
        self.advance(&self.queued);
    }

    /// This thread took a task to run or cancel it. A task that never sat
    /// in a queue (inline or deferred launch) enters the ledger here.
    pub fn note_started(&self, was_queued: bool) {
        if !was_queued {
            self.advance(&self.queued);
        }
        self.advance(&self.started);
    }

    /// The task this thread started has published its outcome.
    pub fn note_finished(&self) {
        self.advance(&self.finished);
    }

    /// Record one finished task execution.
    pub fn record_execution(&self, exec_ns: u64, wait_ns: u64) {
        self.add(&self.executed, 1);
        self.add(&self.exec_ns, exec_ns);
        self.add(&self.wait_ns, wait_ns);
    }

    /// Bump the liveness heartbeat (called from scheduling loops and
    /// run-as-child joins only — never from task bodies' own code, so an
    /// injected stall freezes it).
    pub fn beat(&self) {
        self.add(&self.heartbeat, 1);
    }

    /// Record scheduling-path cost (spawn or dispatch).
    pub fn record_overhead(&self, ns: u64) {
        self.add(&self.overhead_ns, ns);
    }

    /// Record time spent looking for work unsuccessfully (including parked
    /// time). Every find-miss window must land here so the per-worker time
    /// balance (exec + overhead + idle ≈ wall) holds.
    pub fn record_idle(&self, ns: u64) {
        self.add(&self.idle_ns, ns);
    }

    /// Record the tasks one find migrated off other workers' deques.
    pub fn record_steals(&self, n: u64) {
        if n > 0 {
            self.add(&self.stolen, n);
        }
    }

    pub fn note_spawned(&self) {
        self.add(&self.spawned, 1);
    }

    pub fn note_cancelled(&self) {
        self.add(&self.cancelled, 1);
    }

    pub fn note_recovered(&self) {
        self.add(&self.recovered, 1);
    }

    pub fn note_fallback_alloc(&self) {
        self.add(&self.fallback_allocs, 1);
    }

    pub fn note_restart(&self) {
        self.add(&self.restarts, 1);
    }

    pub fn note_backoff(&self, ns: u64) {
        self.add(&self.backoff_ns, ns);
    }

    pub fn note_breaker_trip(&self) {
        self.add(&self.breaker_trips, 1);
    }

    /// The watchdog saw this worker's heartbeat frozen with work live. An
    /// RMW: the watchdog is not the shard's owner.
    pub fn note_stall(&self) {
        self.stalls.fetch_add(1, Ordering::Relaxed);
    }

    /// A process-unique task id. Workers draw from a private block and
    /// call `reserve(n)` (which must hand out `n` consecutive ids nobody
    /// else gets) once per `TASK_ID_BLOCK` spawns; the external shard
    /// reserves one id at a time.
    pub fn next_task_id(&self, reserve: impl FnOnce(u64) -> u64) -> u64 {
        if self.shared {
            return reserve(1);
        }
        let mut next = self.id_next.load(Ordering::Relaxed);
        if next == self.id_end.load(Ordering::Relaxed) {
            next = reserve(TASK_ID_BLOCK);
            self.id_end.store(next + TASK_ID_BLOCK, Ordering::Relaxed);
        }
        self.id_next.store(next + 1, Ordering::Relaxed);
        next
    }
}

/// One consistent reading of the flow counters, summed over all shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flow {
    pub queued: u64,
    pub started: u64,
    pub finished: u64,
}

impl Flow {
    /// Tasks queued but not yet started.
    pub fn pending(&self) -> u64 {
        self.queued.saturating_sub(self.started)
    }

    /// Tasks currently executing.
    pub fn active(&self) -> u64 {
        self.started.saturating_sub(self.finished)
    }

    /// Tasks in the ledger and not yet finished (pending + active).
    pub fn live(&self) -> u64 {
        self.queued.saturating_sub(self.finished)
    }

    /// Starts or finishes the ledger cannot match to an earlier step — the
    /// read order makes this impossible unless an accounting step was
    /// skipped, and a skipped step never heals, so the value only grows.
    /// Exposed as `/runtime/health/pending-underflows`.
    pub fn underflows(&self) -> u64 {
        self.started.saturating_sub(self.queued) + self.finished.saturating_sub(self.started)
    }
}

/// The shards of one runtime: a worker's at its index, the external one
/// last.
#[derive(Debug)]
pub struct Ledger {
    shards: Box<[Shard]>,
}

impl Ledger {
    pub fn new(workers: usize) -> Self {
        Ledger {
            shards: (0..=workers)
                .map(|i| Shard::new(i as u32, i == workers))
                .collect(),
        }
    }

    /// The shard only worker `index` writes.
    pub fn worker(&self, index: usize) -> &Shard {
        &self.workers()[index]
    }

    /// The shard every thread that is not one of the runtime's workers
    /// accounts to.
    pub fn external(&self) -> &Shard {
        &self.shards[self.shards.len() - 1]
    }

    /// The workers' shards, by worker index.
    pub fn workers(&self) -> &[Shard] {
        &self.shards[..self.shards.len() - 1]
    }

    /// Every shard, the external one included — what a `total` counter
    /// instance covers.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Sum a statistic over every shard.
    pub fn total(&self, f: impl Fn(&Shard) -> u64) -> u64 {
        self.shards.iter().map(f).sum()
    }

    /// Read the flow counters, `finished` first and `queued` last, so the
    /// reading never shows more finished than started or more started than
    /// queued, and a balanced one proves quiescence (see the module docs).
    pub fn flow(&self) -> Flow {
        let sum = |field: fn(&Shard) -> &AtomicU64| -> u64 {
            self.shards
                .iter()
                .map(|s| field(s).load(Ordering::Acquire))
                .sum()
        };
        // Mutant: with `queued` summed first, a task that spawns a child
        // and finishes between the sums is counted as finished while its
        // child is not yet counted as queued — a false idle.
        let queued_first = mutation_armed("ledger-read-queued-first").then(|| sum(|s| &s.queued));
        let finished = sum(|s| &s.finished);
        let started = sum(|s| &s.started);
        let queued = queued_first.unwrap_or_else(|| sum(|s| &s.queued));
        Flow {
            queued,
            started,
            finished,
        }
    }

    /// Whether every task that entered the ledger has finished.
    pub fn is_idle(&self) -> bool {
        self.flow().live() == 0
    }

    /// Read everything the watchdog looks at: the flow reading, then one
    /// pass over the shards for the statistic sums and the heartbeats.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot {
            flow: self.flow(),
            steals: 0,
            executed: 0,
            exec_ns: 0,
            idle_ns: 0,
            heartbeats: Vec::with_capacity(self.workers().len()),
        };
        for s in self.shards.iter() {
            snap.steals += s.stolen.load(Ordering::Relaxed);
            snap.executed += s.executed.load(Ordering::Relaxed);
            snap.exec_ns += s.exec_ns.load(Ordering::Relaxed);
            snap.idle_ns += s.idle_ns.load(Ordering::Relaxed);
            if !s.shared {
                let live = !s.retired.load(Ordering::Acquire);
                snap.heartbeats
                    .push(live.then(|| s.heartbeat.load(Ordering::Relaxed)));
            }
        }
        snap
    }
}

/// One reading of the whole ledger, taken by the watchdog once per tick.
#[derive(Debug)]
pub struct Snapshot {
    pub flow: Flow,
    /// Tasks stolen, tasks executed, nanoseconds in task bodies and
    /// nanoseconds idle: cumulative, summed over every shard.
    pub steals: u64,
    pub executed: u64,
    pub exec_ns: u64,
    pub idle_ns: u64,
    /// Each worker's heartbeat, `None` once its breaker tripped (the
    /// heartbeat of a retired worker is frozen by design).
    pub heartbeats: Vec<Option<u64>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_execution_accumulates() {
        let ledger = Ledger::new(1);
        let s = ledger.worker(0);
        s.record_execution(100, 20);
        s.record_execution(300, 40);
        s.record_overhead(10);
        s.record_overhead(30);
        let read = |f: &AtomicU64| f.load(Ordering::Relaxed);
        assert_eq!((read(&s.exec_ns), read(&s.wait_ns)), (400, 60));
        assert_eq!(read(&s.executed), 2);
        assert_eq!(read(&s.overhead_ns), 40);
    }

    #[test]
    fn snapshot_sums_every_shard_and_skips_retired_heartbeats() {
        let ledger = Ledger::new(2);
        ledger.worker(0).record_execution(10, 0);
        ledger.worker(1).record_steals(3);
        ledger.worker(1).record_idle(7);
        ledger.worker(1).beat();
        ledger.external().record_execution(5, 0);
        ledger.external().note_queued();
        ledger.worker(0).retired.store(true, Ordering::Release);
        let snap = ledger.snapshot();
        assert_eq!(
            (snap.steals, snap.executed, snap.exec_ns, snap.idle_ns),
            (3, 2, 15, 7)
        );
        assert_eq!(snap.flow.pending(), 1);
        assert_eq!(snap.heartbeats, vec![None, Some(1)]);
    }

    #[test]
    fn totals_sum_workers_and_the_external_shard() {
        let ledger = Ledger::new(3);
        ledger.worker(0).record_execution(10, 0);
        ledger.worker(2).record_execution(30, 0);
        ledger.external().record_execution(2, 0);
        assert_eq!(ledger.total(|s| s.exec_ns.load(Ordering::Relaxed)), 42);
        assert_eq!(ledger.total(|s| s.executed.load(Ordering::Relaxed)), 3);
        assert_eq!(ledger.workers().len(), 3);
        assert_eq!(ledger.external().index(), 3);
        assert!(ledger.external().is_shared() && !ledger.worker(0).is_shared());
    }

    #[test]
    fn gauges_are_derived_from_the_flow_counters() {
        let ledger = Ledger::new(2);
        assert!(ledger.is_idle());
        ledger.external().note_queued();
        ledger.worker(0).note_queued();
        ledger.worker(1).note_started(true);
        let flow = ledger.flow();
        assert_eq!((flow.pending(), flow.active(), flow.live()), (1, 1, 2));
        // An inline run enters and leaves the ledger on one thread.
        ledger.worker(1).note_started(false);
        assert_eq!(ledger.flow().active(), 2);
        ledger.worker(1).note_finished();
        ledger.worker(1).note_finished();
        ledger.worker(0).note_started(true);
        ledger.worker(0).note_finished();
        assert!(ledger.is_idle());
        assert_eq!(ledger.flow().underflows(), 0);
    }

    #[test]
    fn unmatched_steps_surface_as_underflows() {
        let ledger = Ledger::new(1);
        // A start nobody queued, then (after its own) a finish nobody
        // started.
        ledger.worker(0).note_started(true);
        assert_eq!(ledger.flow().underflows(), 1);
        ledger.worker(0).note_finished();
        ledger.worker(0).note_finished();
        let flow = ledger.flow();
        assert_eq!(flow.underflows(), 2);
        assert_eq!((flow.pending(), flow.live()), (0, 0), "gauges stay clamped");
    }

    #[test]
    fn shards_sit_on_distinct_line_pairs() {
        assert_eq!(std::mem::align_of::<Shard>(), 128);
        assert_eq!(std::mem::size_of::<Shard>() % 128, 0);
        let ledger = Ledger::new(4);
        let lines: Vec<usize> = (0..4)
            .map(|i| ledger.worker(i) as *const Shard as usize)
            .chain([ledger.external() as *const Shard as usize])
            .collect();
        for pair in lines.windows(2) {
            assert_eq!(pair[0] % 128, 0);
            assert!(pair[1] - pair[0] >= 128, "shards share a line: {lines:?}");
        }
    }

    #[test]
    fn task_ids_are_unique_across_workers_and_external_threads() {
        let source = AtomicU64::new(0);
        let reserve = |n| source.fetch_add(n, Ordering::Relaxed);
        let ledger = Ledger::new(2);
        let mut ids = Vec::new();
        for _ in 0..TASK_ID_BLOCK + 5 {
            ids.push(ledger.worker(0).next_task_id(reserve));
            ids.push(ledger.worker(1).next_task_id(reserve));
            ids.push(ledger.external().next_task_id(reserve));
        }
        let issued = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), issued, "a task id was handed out twice");
        // Blocks are reserved only when one runs out: two per worker here.
        assert!(source.load(Ordering::Relaxed) <= 4 * TASK_ID_BLOCK + issued as u64 / 3);
    }
}
