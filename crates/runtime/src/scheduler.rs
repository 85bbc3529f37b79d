//! The task scheduler: per-worker Chase–Lev deques with work stealing,
//! HPX's default discipline and the one the paper reports every native
//! result with. A worker's spawn goes to its own deque; any other spawn
//! goes to the shared injector. (The `std::async` single-queue ordering the
//! paper uses to explain Floorplan is `rpx-simnode`'s `global_queue`.)
//!
//! The spawn path is lock-light: `push` probes an atomic sleeper count and
//! skips the `sleepers` mutex entirely when no worker is parked (the steady
//! state of a saturated fork/join run). The count and the queues form a
//! Dekker-style flag/flag protocol — see DESIGN.md §"hot path" for the
//! memory-ordering argument.

use crossbeam::deque::{Injector, Steal, Stealer, Worker as Deque};
use crossbeam::sync::Unparker;

use crate::prim::{
    fence, mutation_armed, spin_loop, AtomicU64, AtomicUsize, Mutex, Ordering, Padded,
};
pub(crate) use crate::slab::Task;

pub(crate) struct Scheduler {
    /// The other workers, per worker, in rotation order starting after the
    /// worker itself.
    victims: Vec<Vec<usize>>,
    /// Local deque of each worker, parked here until its thread claims it.
    pub deques: Vec<Mutex<Option<Deque<Task>>>>,
    pub stealers: Vec<Stealer<Task>>,
    // Everything above is written once, at construction, and read by every
    // `push` and `find`; the words below are written while the runtime
    // runs, so each group is padded onto lines of its own.
    /// Where external spawns land.
    injector: Padded<Injector<Task>>,
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
    pub(crate) fn new(workers: usize) -> Self {
        let victims = (0..workers)
            .map(|i| (1..workers).map(|off| (i + off) % workers).collect())
            .collect();
        let deques: Vec<Deque<Task>> = (0..workers).map(|_| Deque::new_lifo()).collect();
        let stealers = deques.iter().map(|d| d.stealer()).collect();
        Scheduler {
            victims,
            deques: deques.into_iter().map(|d| Mutex::new(Some(d))).collect(),
            stealers,
            injector: Padded(Injector::new()),
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

    /// Enqueue a task. `local` is the spawning worker's own deque when the
    /// spawn happens on a worker thread (push-local for locality), `None`
    /// for external spawns (which go to the injector). The spawner has
    /// already counted the task into its ledger shard
    /// (`Shard::note_queued`).
    pub(crate) fn push(&self, task: Task, local: Option<&Deque<Task>>) {
        match local {
            Some(deque) => deque.push(task),
            None => self.injector.push(task),
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
    /// the injector, then the other workers in rotation — the last two in
    /// batches that refill `local`. Returns the task and how many tasks
    /// the find migrated off another worker's deque: the returned one plus
    /// every batched extra, so those extras, which later come out of
    /// `local` as plain pops, are counted exactly once. Own-deque pops and
    /// injector claims are not steals.
    pub(crate) fn find(&self, index: usize, local: &Deque<Task>) -> Option<(Task, u64)> {
        // 1. Own deque (LIFO: most recently spawned child first — cache-hot).
        if let Some(t) = local.pop() {
            return Some((t, 0));
        }
        for _ in 0..Self::RETRY_SWEEPS {
            let mut contended = false;
            // 2. The injector (external spawns); batch-refills `local`.
            match self.injector.steal_batch_and_pop_counted(local) {
                Steal::Success((t, _moved)) => return Some((t, 0)),
                Steal::Retry => contended = true,
                Steal::Empty => {}
            }
            // 3. Victims, starting after ourselves to spread load. One
            // batch per victim visit: the returned task plus up to half the
            // victim's queue moved into `local`.
            for &victim in &self.victims[index] {
                match self.stealers[victim].steal_batch_and_pop_counted(local) {
                    Steal::Success((t, moved)) => return Some((t, moved as u64 + 1)),
                    Steal::Retry => contended = true,
                    Steal::Empty => {}
                }
            }
            if !contended {
                return None;
            }
            spin_loop();
        }
        None
    }

    /// Whether any queue (the injector or a worker deque) currently holds a
    /// task. A racy snapshot — used as the park gate, where a false
    /// positive costs one extra find pass and a false negative is covered
    /// by the sleeper-registration protocol.
    pub(crate) fn has_queued_work(&self) -> bool {
        !self.injector.is_empty() || self.stealers.iter().any(|s| !s.is_empty())
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

    /// Move every task parked in worker `index`'s deque into the injector.
    /// Used by the restart circuit breaker: a retired worker's queued tasks
    /// must drain through the survivors. The ledger is untouched — the
    /// tasks are still queued, just somewhere reachable. Returns the number
    /// of tasks moved.
    pub(crate) fn reparent_to_injector(&self, index: usize) -> u64 {
        let guard = self.deques[index].lock();
        let mut moved = 0;
        if let Some(deque) = guard.as_ref() {
            while let Some(task) = deque.pop() {
                self.injector.push(task);
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

    #[test]
    fn local_push_pop_is_lifo() {
        let s = Scheduler::new(2);
        let local = s.deques[0].lock().take().unwrap();
        s.push(task(1), Some(&local));
        s.push(task(2), Some(&local));
        let (t, stolen) = s.find(0, &local).unwrap();
        assert_eq!(t.id(), 2, "own deque must be LIFO");
        assert_eq!(stolen, 0, "local pops are not steals");
        assert_eq!(s.find(0, &local).unwrap().0.id(), 1);
        assert!(s.find(0, &local).is_none());
    }

    #[test]
    fn external_push_lands_in_injector_fifo() {
        let s = Scheduler::new(2);
        let local = s.deques[0].lock().take().unwrap();
        s.push(task(1), None);
        s.push(task(2), None);
        let got = s.find(0, &local).unwrap().0.id();
        assert_eq!(got, 1, "injector must be FIFO");
    }

    #[test]
    fn stealing_takes_from_victims() {
        let s = Scheduler::new(2);
        let local0 = s.deques[0].lock().take().unwrap();
        let local1 = s.deques[1].lock().take().unwrap();
        s.push(task(1), Some(&local0));
        s.push(task(2), Some(&local0));
        let (t, stolen) = s.find(1, &local1).unwrap();
        assert!(stolen >= 1, "victim tasks count as stolen");
        assert_eq!(t.id(), 1, "steals take the oldest task");
    }

    #[test]
    fn batch_steal_reports_every_moved_task() {
        let s = Scheduler::new(2);
        let local0 = s.deques[0].lock().take().unwrap();
        let local1 = s.deques[1].lock().take().unwrap();
        for i in 0..8 {
            s.push(task(i), Some(&local0));
        }
        let (t, stolen) = s.find(1, &local1).unwrap();
        assert_eq!(t.id(), 0, "the returned task is the victim's oldest");
        assert_eq!(
            stolen,
            1 + local1.len() as u64,
            "stolen must count the returned task plus every batched task"
        );
        assert_eq!(stolen, 5, "half of 8 ride along with the returned task");
        // The batched tasks now come out of worker 1's own deque as local
        // (non-stolen) finds.
        let (_, restolen) = s.find(1, &local1).unwrap();
        assert_eq!(restolen, 0, "batched tasks must not be double-counted");
        // Worker 0 still owns the other three.
        assert_eq!(local0.len(), 3);
    }

    #[test]
    fn injector_batch_claims_are_not_stolen() {
        let s = Scheduler::new(2);
        let local = s.deques[0].lock().take().unwrap();
        for i in 0..6 {
            s.push(task(i), None);
        }
        let (t, stolen) = s.find(0, &local).unwrap();
        assert_eq!(t.id(), 0, "injector is FIFO");
        assert_eq!(stolen, 0, "injector claims are not steals");
        assert!(
            !local.is_empty(),
            "the injector batch must refill the local deque"
        );
    }

    #[test]
    fn sleeper_count_mirrors_registrations() {
        let s = Scheduler::new(2);
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
        let s = Scheduler::new(2);
        let local = s.deques[0].lock().take().unwrap();
        assert!(!s.has_queued_work());
        s.push(task(1), None);
        assert!(s.has_queued_work(), "probe must see the injector");
        assert!(s.find(0, &local).is_some());
        assert!(!s.has_queued_work());
        s.push(task(2), Some(&local));
        assert!(s.has_queued_work(), "probe must see worker deques");
    }

    #[test]
    fn reparenting_moves_deque_tasks_to_injector() {
        let s = Scheduler::new(2);
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
        while let Some((t, _)) = s.find(1, &local1) {
            ids.push(t.id());
        }
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2], "no task lost in re-parenting");
        assert_eq!(s.reparent_to_injector(0), 0, "second pass finds nothing");
    }

    #[test]
    fn reserved_task_id_ranges_do_not_overlap() {
        let s = Scheduler::new(1);
        let a = s.reserve_task_ids(1024);
        let b = s.reserve_task_ids(1);
        let c = s.reserve_task_ids(1);
        assert!(b >= a + 1024 && c > b);
    }

    #[test]
    fn run_time_words_sit_apart_from_the_read_mostly_fields() {
        let s = Scheduler::new(2);
        let line = |p: usize| p / 128;
        let read_mostly = [
            &s.deques as *const _ as usize,
            &s.stealers as *const _ as usize,
            &s.victims as *const _ as usize,
        ];
        let written = [
            &s.injector as *const _ as usize,
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
