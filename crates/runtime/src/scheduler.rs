//! The task scheduler: per-worker Chase–Lev deques with hierarchical
//! (socket-aware) work stealing (default), or a single global FIFO queue
//! (the `std::async` ordering used by the paper to explain the Floorplan
//! anomaly).
//!
//! The spawn path is lock-light: `push` probes an atomic sleeper count and
//! skips the `sleepers` mutex entirely when no worker is parked (the steady
//! state of a saturated fork/join run). The count and the queues form a
//! Dekker-style flag/flag protocol — see DESIGN.md §"hot path" for the
//! memory-ordering argument.
//!
//! # Topology-aware stealing
//!
//! Workers are grouped into *segments* (one per socket, from
//! `affinity::Topology`). External spawns round-robin across one injector
//! per segment, and `find` works outward: own deque, own-socket injector,
//! own-socket victims, and only then — timed, so the causal profiler can
//! attribute it — remote injectors and remote victims, always in batches
//! so a cross-socket miss is amortized over up to half the victim's queue.

use crossbeam::deque::{Injector, Steal, Stealer, Worker as Deque};
use crossbeam::sync::Unparker;
use rpx_counters::counter::Clock;

use crate::prim::{
    fence, mutation_armed, spin_loop, AtomicU64, AtomicUsize, Mutex, Ordering, Padded,
};
pub(crate) use crate::slab::Task;

/// Queue discipline used by the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerMode {
    /// Per-worker local deques + stealing (HPX-style). Children go to the
    /// spawning worker's queue; idle workers steal FIFO from victims.
    #[default]
    LocalQueues,
    /// One shared FIFO queue for all workers (the GCC `std::async`
    /// single-queue discipline).
    GlobalQueue,
}

impl SchedulerMode {
    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerMode::LocalQueues => "local-queues",
            SchedulerMode::GlobalQueue => "global-queue",
        }
    }
}

/// Result of one [`Scheduler::find`] call. The steal counts follow the
/// PR 3 convention (every migrated task counts, batches included), split
/// by whether the victim shares the finder's socket; `remote_probe_ns`
/// is wall time spent probing remote sockets *whether or not* anything
/// was found there, so idle-time attribution can separate placement
/// misses from granularity (see DESIGN.md §16).
pub(crate) struct FindOutcome {
    pub task: Option<Task>,
    pub stolen_local: u64,
    pub stolen_remote: u64,
    pub remote_probe_ns: u64,
}

impl FindOutcome {
    fn empty() -> Self {
        FindOutcome {
            task: None,
            stolen_local: 0,
            stolen_remote: 0,
            remote_probe_ns: 0,
        }
    }

    fn with_task(mut self, task: Task) -> Self {
        self.task = Some(task);
        self
    }

    /// Total migrated-task count (the legacy `/threads/count/stolen`).
    #[cfg(test)]
    pub fn stolen(&self) -> u64 {
        self.stolen_local + self.stolen_remote
    }
}

pub(crate) struct Scheduler {
    pub mode: SchedulerMode,
    /// One injector segment per socket in use (always exactly one under
    /// `GlobalQueue`). External spawns round-robin across segments;
    /// workers claim from their own segment before probing others.
    pub injectors: Vec<Injector<Task>>,
    /// Injector segment each worker belongs to.
    segment_of: Vec<usize>,
    /// Same-socket victims per worker, in rotation order starting after
    /// the worker itself.
    victims_local: Vec<Vec<usize>>,
    /// Cross-socket victims per worker, same rotation order.
    victims_remote: Vec<Vec<usize>>,
    /// Other segments' injectors per worker, rotation order.
    remote_segments: Vec<Vec<usize>>,
    /// Local deque of each worker, parked here until its thread claims it.
    pub deques: Vec<Mutex<Option<Deque<Task>>>>,
    pub stealers: Vec<Stealer<Task>>,
    // Everything above is written once, at construction, and read by every
    // `push` and `find`; the words below are written while the runtime
    // runs, so each group is padded onto lines of its own.
    /// Round-robin cursor for external pushes.
    next_segment: Padded<AtomicUsize>,
    /// Task-id source. Workers reserve ids in blocks (see
    /// `stats::Shard::next_task_id`), so this is off the per-task path.
    next_id: Padded<AtomicU64>,
    sleep: Padded<Sleepers>,
}

/// Parked workers, written on every park and unpark and probed by every
/// `push`.
struct Sleepers {
    /// Workers currently parked (worker index, unparker), waiting to be
    /// woken on new work.
    list: Mutex<Vec<(usize, Unparker)>>,
    /// Mirror of `list.len()`, written under the `list` lock and probed
    /// lock-free by `wake_one`/`wake_all` so the spawn path skips the
    /// mutex whenever no worker is parked.
    count: AtomicUsize,
}

impl Scheduler {
    /// Single-segment scheduler (every worker on one socket).
    #[cfg(test)]
    pub(crate) fn new(workers: usize, mode: SchedulerMode) -> Self {
        Self::with_topology(workers, mode, &vec![0; workers])
    }

    /// Scheduler with one injector segment per distinct socket id in
    /// `sockets` (the socket each worker is placed on). `GlobalQueue`
    /// collapses to a single segment regardless of topology.
    pub(crate) fn with_topology(workers: usize, mode: SchedulerMode, sockets: &[u32]) -> Self {
        assert_eq!(sockets.len(), workers);
        let mut distinct: Vec<u32> = sockets.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let segments = if mode == SchedulerMode::GlobalQueue {
            1
        } else {
            distinct.len().max(1)
        };
        let segment_of: Vec<usize> = if segments == 1 {
            vec![0; workers]
        } else {
            sockets
                .iter()
                .map(|s| distinct.binary_search(s).unwrap())
                .collect()
        };
        let rotation = |i: usize| (1..workers).map(move |off| (i + off) % workers);
        let victims_local: Vec<Vec<usize>> = (0..workers)
            .map(|i| {
                rotation(i)
                    .filter(|&v| segment_of[v] == segment_of[i])
                    .collect()
            })
            .collect();
        let victims_remote: Vec<Vec<usize>> = (0..workers)
            .map(|i| {
                rotation(i)
                    .filter(|&v| segment_of[v] != segment_of[i])
                    .collect()
            })
            .collect();
        let remote_segments: Vec<Vec<usize>> = (0..workers)
            .map(|i| {
                let own = segment_of[i];
                (1..segments).map(|off| (own + off) % segments).collect()
            })
            .collect();
        let deques: Vec<Deque<Task>> = (0..workers).map(|_| Deque::new_lifo()).collect();
        let stealers = deques.iter().map(|d| d.stealer()).collect();
        Scheduler {
            mode,
            injectors: (0..segments).map(|_| Injector::new()).collect(),
            segment_of,
            victims_local,
            victims_remote,
            remote_segments,
            deques: deques.into_iter().map(|d| Mutex::new(Some(d))).collect(),
            stealers,
            next_segment: Padded(AtomicUsize::new(0)),
            next_id: Padded(AtomicU64::new(0)),
            sleep: Padded(Sleepers {
                list: Mutex::new(Vec::new()),
                count: AtomicUsize::new(0),
            }),
        }
    }

    /// Reserve `n` consecutive task ids nobody else gets; returns the
    /// first.
    pub(crate) fn reserve_task_ids(&self, n: u64) -> u64 {
        self.next_id.fetch_add(n, Ordering::Relaxed)
    }

    /// Injector segments in use (1 unless NUMA placement is active).
    #[cfg(test)]
    pub(crate) fn segments(&self) -> usize {
        self.injectors.len()
    }

    /// Enqueue a task. `local` is the spawning worker's own deque when the
    /// spawn happens on a worker thread (push-local for locality), `None`
    /// for external spawns (which round-robin across the per-socket
    /// injector segments). The spawner has already counted the task into
    /// its ledger shard (`Shard::note_queued`).
    pub(crate) fn push(&self, task: Task, local: Option<&Deque<Task>>) {
        match (self.mode, local) {
            (SchedulerMode::LocalQueues, Some(deque)) => deque.push(task),
            _ => {
                let seg = if self.injectors.len() == 1 {
                    0
                } else {
                    self.next_segment.fetch_add(1, Ordering::Relaxed) % self.injectors.len()
                };
                self.injectors[seg].push(task);
            }
        }
        self.wake_one();
    }

    /// Bound on full find-work sweeps re-run after a `Steal::Retry`-only
    /// pass. A lost CAS means *another* worker claimed the task, so giving
    /// up after a few sweeps cannot strand work: the caller's park gate
    /// re-probes the queues (`has_queued_work`) before sleeping, and the
    /// elapsed spin is accounted to `idle_ns` by the caller instead of
    /// vanishing into an unbounded in-`find` loop.
    const RETRY_SWEEPS: usize = 4;

    /// Find work for worker `index`, working outward: own deque (LIFO),
    /// own-segment injector, same-socket victims, then — timed — remote
    /// injectors and remote victims. Steal counts cover every migrated
    /// task (batches included), split local/remote by victim socket;
    /// injector claims are not steals. `remote_probe_ns` accrues whenever
    /// the remote phase runs, found or not.
    pub(crate) fn find(&self, index: usize, local: &Deque<Task>, clock: &Clock) -> FindOutcome {
        let mut out = FindOutcome::empty();
        if self.mode == SchedulerMode::GlobalQueue {
            // Single-task steals only: batching would strand tasks in the
            // local deque, which this mode never reads.
            for _ in 0..Self::RETRY_SWEEPS {
                match self.injectors[0].steal() {
                    Steal::Success(t) => return out.with_task(t),
                    Steal::Retry => std::hint::spin_loop(),
                    Steal::Empty => return out,
                }
            }
            return out;
        }
        // 1. Own deque (LIFO: most recently spawned child first — cache-hot).
        if let Some(t) = local.pop() {
            return out.with_task(t);
        }
        let seg = self.segment_of[index];
        let has_remote =
            !self.victims_remote[index].is_empty() || !self.remote_segments[index].is_empty();
        for _ in 0..Self::RETRY_SWEEPS {
            let mut contended = false;
            // 2. Own-segment injector (external spawns); batch-refills
            // `local`. Claims are not steals.
            match self.injectors[seg].steal_batch_and_pop_counted(local) {
                Steal::Success((t, _moved)) => return out.with_task(t),
                Steal::Retry => contended = true,
                Steal::Empty => {}
            }
            // 3. Same-socket victims, starting after ourselves to spread
            // load. One batch per victim visit: the returned task plus up
            // to half the victim's queue moved into `local`.
            for &victim in &self.victims_local[index] {
                match self.stealers[victim].steal_batch_and_pop_counted(local) {
                    Steal::Success((t, moved)) => {
                        out.stolen_local = moved as u64 + 1;
                        return out.with_task(t);
                    }
                    Steal::Retry => contended = true,
                    Steal::Empty => {}
                }
            }
            // 4. Remote phase, entered only with the whole local socket
            // dry. Timed so placement misses are attributable separately
            // from granularity in idle-time accounting.
            if has_remote {
                let probe_start = clock.now_ns();
                let mut found: Option<(Task, u64)> = None;
                'remote: {
                    for &rseg in &self.remote_segments[index] {
                        match self.injectors[rseg].steal_batch_and_pop_counted(local) {
                            Steal::Success((t, _moved)) => {
                                found = Some((t, 0));
                                break 'remote;
                            }
                            Steal::Retry => contended = true,
                            Steal::Empty => {}
                        }
                    }
                    for &victim in &self.victims_remote[index] {
                        match self.stealers[victim].steal_batch_and_pop_counted(local) {
                            Steal::Success((t, moved)) => {
                                found = Some((t, moved as u64 + 1));
                                break 'remote;
                            }
                            Steal::Retry => contended = true,
                            Steal::Empty => {}
                        }
                    }
                }
                out.remote_probe_ns += clock.now_ns().saturating_sub(probe_start);
                if let Some((t, stolen)) = found {
                    out.stolen_remote = stolen;
                    return out.with_task(t);
                }
            }
            if !contended {
                return out;
            }
            spin_loop();
        }
        out
    }

    /// Whether any queue (an injector segment or a worker deque) currently
    /// holds a task. A racy snapshot — used as the park gate, where a false
    /// positive costs one extra find pass and a false negative is covered
    /// by the sleeper-registration protocol.
    pub(crate) fn has_queued_work(&self) -> bool {
        self.injectors.iter().any(|i| !i.is_empty()) || self.stealers.iter().any(|s| !s.is_empty())
    }

    /// Park registration: the worker registers its unparker *before* its
    /// final work check so a concurrent push cannot be lost. Re-registering
    /// the same worker is a no-op (the list stays bounded by worker count).
    ///
    /// The trailing `SeqCst` fence orders the registration before the
    /// caller's queue re-probe; it pairs with the fence in
    /// `wake_one`/`wake_all` (push before count probe). One of the two
    /// always observes the other — see DESIGN.md §"hot path".
    pub(crate) fn register_sleeper(&self, index: usize, unparker: Unparker) {
        {
            let mut s = self.sleep.list.lock();
            if !s.iter().any(|(i, _)| *i == index) {
                s.push((index, unparker));
            }
            self.sleep.count.store(s.len(), Ordering::SeqCst);
        }
        fence(Ordering::SeqCst);
    }

    /// Remove the worker's registration after it wakes (by token or timeout).
    pub(crate) fn deregister_sleeper(&self, index: usize) {
        let mut s = self.sleep.list.lock();
        s.retain(|(i, _)| *i != index);
        self.sleep.count.store(s.len(), Ordering::SeqCst);
    }

    /// Wake one parked worker, if any. When none is parked — the steady
    /// state of a saturated run — this is a fence plus one atomic load; the
    /// `sleepers` mutex is never touched.
    pub(crate) fn wake_one(&self) {
        if mutation_armed("sched-wake-fence") {
            // Mutant: an acquire fence does not participate in the SC
            // order, so this probe and a sleeper's queue re-check can
            // both read stale values — the lost wakeup the model-checked
            // park-gate spec must catch.
            fence(Ordering::Acquire);
        } else {
            fence(Ordering::SeqCst);
        }
        if self.sleep.count.load(Ordering::Relaxed) == 0 {
            return;
        }
        let u = {
            let mut s = self.sleep.list.lock();
            let u = s.pop();
            self.sleep.count.store(s.len(), Ordering::SeqCst);
            u
        };
        if let Some((_, u)) = u {
            u.unpark();
        }
    }

    /// Wake every parked worker (shutdown, wait_idle). Same fast path as
    /// [`Scheduler::wake_one`].
    pub(crate) fn wake_all(&self) {
        fence(Ordering::SeqCst);
        if self.sleep.count.load(Ordering::Relaxed) == 0 {
            return;
        }
        let mut s = self.sleep.list.lock();
        for (_, u) in s.drain(..) {
            u.unpark();
        }
        self.sleep.count.store(0, Ordering::SeqCst);
    }

    /// Sleepers currently registered (tests/diagnostics; immediately stale).
    #[cfg(test)]
    pub(crate) fn sleeper_count(&self) -> usize {
        self.sleep.count.load(Ordering::SeqCst)
    }

    /// Move every task parked in worker `index`'s deque into the worker's
    /// own injector segment. Used by the restart circuit breaker: a
    /// retired worker's queued tasks must drain through the survivors.
    /// The ledger is untouched — the tasks are still queued, just
    /// somewhere reachable. Returns the number of tasks moved.
    pub(crate) fn reparent_to_injector(&self, index: usize) -> u64 {
        let guard = self.deques[index].lock();
        let mut moved = 0;
        if let Some(deque) = guard.as_ref() {
            let seg = self.segment_of[index];
            while let Some(task) = deque.pop() {
                self.injectors[seg].push(task);
                moved += 1;
            }
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slab::nop_task as task;
    use crossbeam::sync::Parker;

    fn take(s: &Scheduler, index: usize, local: &Deque<Task>) -> Option<(Task, u64)> {
        let out = s.find(index, local, &Clock::new());
        let stolen = out.stolen();
        out.task.map(|t| (t, stolen))
    }

    #[test]
    fn local_push_pop_is_lifo() {
        let s = Scheduler::new(2, SchedulerMode::LocalQueues);
        let local = s.deques[0].lock().take().unwrap();
        s.push(task(1), Some(&local));
        s.push(task(2), Some(&local));
        let (t, stolen) = take(&s, 0, &local).unwrap();
        assert_eq!(t.id(), 2, "own deque must be LIFO");
        assert_eq!(stolen, 0, "local pops are not steals");
        assert_eq!(take(&s, 0, &local).unwrap().0.id(), 1);
        assert!(take(&s, 0, &local).is_none());
    }

    #[test]
    fn external_push_lands_in_injector_fifo() {
        let s = Scheduler::new(2, SchedulerMode::LocalQueues);
        let local = s.deques[0].lock().take().unwrap();
        s.push(task(1), None);
        s.push(task(2), None);
        let got = take(&s, 0, &local).unwrap().0.id();
        assert_eq!(got, 1, "injector must be FIFO");
    }

    #[test]
    fn stealing_takes_from_victims() {
        let s = Scheduler::new(2, SchedulerMode::LocalQueues);
        let local0 = s.deques[0].lock().take().unwrap();
        let local1 = s.deques[1].lock().take().unwrap();
        s.push(task(1), Some(&local0));
        s.push(task(2), Some(&local0));
        let (t, stolen) = take(&s, 1, &local1).unwrap();
        assert!(stolen >= 1, "victim tasks count as stolen");
        assert_eq!(t.id(), 1, "steals take the oldest task");
    }

    #[test]
    fn batch_steal_reports_every_moved_task() {
        let s = Scheduler::new(2, SchedulerMode::LocalQueues);
        let local0 = s.deques[0].lock().take().unwrap();
        let local1 = s.deques[1].lock().take().unwrap();
        for i in 0..8 {
            s.push(task(i), Some(&local0));
        }
        let out = s.find(1, &local1, &Clock::new());
        let t = out.task.unwrap();
        assert_eq!(t.id(), 0, "the returned task is the victim's oldest");
        assert_eq!(
            out.stolen_local,
            1 + local1.len() as u64,
            "stolen must count the returned task plus every batched task"
        );
        assert_eq!(
            out.stolen_local, 5,
            "half of 8 ride along with the returned task"
        );
        assert_eq!(out.stolen_remote, 0, "same-socket steals are local");
        // The batched tasks now come out of worker 1's own deque as local
        // (non-stolen) finds.
        let (_, restolen) = take(&s, 1, &local1).unwrap();
        assert_eq!(restolen, 0, "batched tasks must not be double-counted");
        // Worker 0 still owns the other three.
        assert_eq!(local0.len(), 3);
    }

    #[test]
    fn injector_batch_claims_are_not_stolen() {
        let s = Scheduler::new(2, SchedulerMode::LocalQueues);
        let local = s.deques[0].lock().take().unwrap();
        for i in 0..6 {
            s.push(task(i), None);
        }
        let (t, stolen) = take(&s, 0, &local).unwrap();
        assert_eq!(t.id(), 0, "injector is FIFO");
        assert_eq!(stolen, 0, "injector claims are not steals");
        assert!(
            !local.is_empty(),
            "the injector batch must refill the local deque"
        );
    }

    #[test]
    fn global_mode_ignores_local_deques() {
        let s = Scheduler::new(2, SchedulerMode::GlobalQueue);
        let local = s.deques[0].lock().take().unwrap();
        s.push(task(7), Some(&local));
        // Task must be findable by the *other* worker too.
        let local1 = s.deques[1].lock().take().unwrap();
        assert_eq!(take(&s, 1, &local1).unwrap().0.id(), 7);
    }

    #[test]
    fn hierarchical_find_prefers_socket_local_victims() {
        // Workers 0,1 on socket 0; workers 2,3 on socket 1.
        let s = Scheduler::with_topology(4, SchedulerMode::LocalQueues, &[0, 0, 1, 1]);
        let local0 = s.deques[0].lock().take().unwrap();
        let local1 = s.deques[1].lock().take().unwrap();
        let local2 = s.deques[2].lock().take().unwrap();
        s.push(task(10), Some(&local1)); // same-socket victim
        s.push(task(20), Some(&local2)); // remote victim
        let out = s.find(0, &local0, &Clock::new());
        assert_eq!(out.task.unwrap().id(), 10, "socket-local victim wins");
        assert_eq!(out.stolen_local, 1);
        assert_eq!(out.stolen_remote, 0);
        assert_eq!(
            out.remote_probe_ns, 0,
            "remote phase must not run while the local socket has work"
        );
    }

    #[test]
    fn remote_steals_are_counted_and_timed_separately() {
        let s = Scheduler::with_topology(4, SchedulerMode::LocalQueues, &[0, 0, 1, 1]);
        let local0 = s.deques[0].lock().take().unwrap();
        let local2 = s.deques[2].lock().take().unwrap();
        s.push(task(20), Some(&local2));
        s.push(task(21), Some(&local2));
        let out = s.find(0, &local0, &Clock::new());
        assert_eq!(out.task.unwrap().id(), 20);
        assert_eq!(out.stolen_local, 0);
        assert!(out.stolen_remote >= 1, "cross-socket tasks count as remote");
        // A miss must still report the remote probe window.
        let local1 = s.deques[1].lock().take().unwrap();
        let drained: Vec<u64> = std::iter::from_fn(|| take(&s, 0, &local0).map(|(t, _)| t.id()))
            .chain(std::iter::from_fn(|| {
                take(&s, 1, &local1).map(|(t, _)| t.id())
            }))
            .collect();
        assert!(drained.contains(&21));
        let miss = s.find(2, &local2, &Clock::new());
        assert!(miss.task.is_none());
    }

    #[test]
    fn external_pushes_round_robin_across_segments() {
        let s = Scheduler::with_topology(2, SchedulerMode::LocalQueues, &[0, 1]);
        assert_eq!(s.segments(), 2);
        for i in 0..4 {
            s.push(task(i), None);
        }
        assert!(!s.injectors[0].is_empty(), "segment 0 got external work");
        assert!(!s.injectors[1].is_empty(), "segment 1 got external work");
        // Every task remains findable from one worker (remote phase).
        let local0 = s.deques[0].lock().take().unwrap();
        let mut ids: Vec<u64> =
            std::iter::from_fn(|| take(&s, 0, &local0).map(|(t, _)| t.id())).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn global_mode_forces_single_segment() {
        let s = Scheduler::with_topology(4, SchedulerMode::GlobalQueue, &[0, 0, 1, 1]);
        assert_eq!(s.segments(), 1, "global FIFO must stay a single queue");
    }

    #[test]
    fn sleeper_count_mirrors_registrations() {
        let s = Scheduler::new(2, SchedulerMode::LocalQueues);
        let p0 = Parker::new();
        let p1 = Parker::new();
        assert_eq!(s.sleeper_count(), 0);
        s.register_sleeper(0, p0.unparker().clone());
        s.register_sleeper(0, p0.unparker().clone()); // idempotent
        assert_eq!(s.sleeper_count(), 1);
        s.register_sleeper(1, p1.unparker().clone());
        assert_eq!(s.sleeper_count(), 2);
        s.wake_one();
        assert_eq!(s.sleeper_count(), 1);
        s.deregister_sleeper(0);
        s.deregister_sleeper(1);
        assert_eq!(s.sleeper_count(), 0);
        // Fast path: waking with nobody parked must not underflow or hang.
        s.wake_one();
        s.wake_all();
        assert_eq!(s.sleeper_count(), 0);
    }

    #[test]
    fn queued_work_probe_sees_injector_and_deques() {
        let s = Scheduler::new(2, SchedulerMode::LocalQueues);
        let local = s.deques[0].lock().take().unwrap();
        assert!(!s.has_queued_work());
        s.push(task(1), None);
        assert!(s.has_queued_work(), "probe must see the injector");
        assert!(take(&s, 0, &local).is_some());
        assert!(!s.has_queued_work());
        s.push(task(2), Some(&local));
        assert!(s.has_queued_work(), "probe must see worker deques");
    }

    #[test]
    fn reparenting_moves_deque_tasks_to_injector() {
        let s = Scheduler::new(2, SchedulerMode::LocalQueues);
        {
            // Queue three tasks on worker 0's (parked) deque, then re-park.
            let local = s.deques[0].lock().take().unwrap();
            for i in 0..3 {
                s.push(task(i), Some(&local));
            }
            *s.deques[0].lock() = Some(local);
        }
        assert_eq!(s.reparent_to_injector(0), 3);
        // Worker 1 drains them from the injector in FIFO order... the
        // batch refill puts extras in its own deque, all still findable.
        let local1 = s.deques[1].lock().take().unwrap();
        let mut ids = Vec::new();
        while let Some((t, _)) = take(&s, 1, &local1) {
            ids.push(t.id());
        }
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2], "no task lost in re-parenting");
        assert_eq!(s.reparent_to_injector(0), 0, "second pass finds nothing");
    }

    #[test]
    fn reserved_task_id_ranges_do_not_overlap() {
        let s = Scheduler::new(1, SchedulerMode::LocalQueues);
        let a = s.reserve_task_ids(1024);
        let b = s.reserve_task_ids(1);
        let c = s.reserve_task_ids(1);
        assert!(b >= a + 1024 && c > b);
    }

    #[test]
    fn run_time_words_sit_apart_from_the_read_mostly_fields() {
        let s = Scheduler::new(2, SchedulerMode::LocalQueues);
        let line = |p: usize| p / 128;
        let read_mostly = [
            &s.injectors as *const _ as usize,
            &s.stealers as *const _ as usize,
            &s.victims_local as *const _ as usize,
        ];
        let written = [
            &s.next_segment as *const _ as usize,
            &s.next_id as *const _ as usize,
            &s.sleep as *const _ as usize,
        ];
        for (i, w) in written.iter().enumerate() {
            assert_eq!(w % 128, 0);
            assert!(read_mostly.iter().all(|r| line(*r) != line(*w)));
            assert!(written[..i].iter().all(|o| line(*o) != line(*w)));
        }
    }
}
