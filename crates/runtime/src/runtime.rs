//! The runtime facade: configuration, worker lifecycle, and the spawn API.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use rpx_counters::counter::Clock;
use rpx_counters::sampler::TickLoop;
use rpx_counters::CounterRegistry;

use crate::admission::{AdmissionControl, AdmissionGate};
use crate::cancel::CancelToken;
use crate::faults::{FaultInjector, FaultPlan, InjectedFault};
use crate::future::TaskFuture;
use crate::policy::LaunchPolicy;
use crate::prim::{self, Padded};
use crate::scheduler::Scheduler;
use crate::signals::{AnomalyEvent, AnomalyLog, OverloadState};
use crate::slab::{Claimed, Slab, SpawnMeta, SLAB_SLOTS};
use crate::stats::{Ledger, Shard};
use crate::sync::EventGate;
use crate::trace::{TaskSpan, TaskTracer, TIMED_EVERY};
use crate::watchdog::{RestartPolicy, RestartState, RestartVerdict};
use crate::{watchdog, worker};

/// Worker stack size. The paper had to move Alignment's large arrays to
/// the heap because of small task stacks; our workers carry the whole
/// stack, so it is generous.
const WORKER_STACK_BYTES: usize = 8 << 20;

/// Runtime configuration (the knobs of Table IV).
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Number of worker threads ("cores" in the paper's strong-scaling runs).
    pub workers: usize,
    /// Locality id used in counter instance names (single-node: 0).
    pub locality: u32,
    /// Fault-injection plan for chaos testing; defaults to
    /// [`FaultPlan::from_env`] (`None` — disabled — unless `RPX_FAULT_*`
    /// variables are set).
    pub faults: Option<FaultPlan>,
    /// How often the watchdog samples worker heartbeats.
    pub watchdog_interval: Duration,
    /// How long a heartbeat may stay static (while work is live or
    /// pending) before the watchdog counts a stall episode.
    pub stall_threshold: Duration,
    /// Admission high watermark: maximum queued-but-not-started tasks
    /// before the admission gate closes. While it is closed an infallible
    /// spawn runs inline in its caller and [`Runtime::try_spawn`] sheds;
    /// the gate reopens once pending work drains to `max_pending / 2`.
    /// `None` (the default) disables admission control entirely.
    pub max_pending: Option<usize>,
    /// Restart budget per worker: maximum supervisor respawns within the
    /// 10 s refill window before the circuit breaker trips and the worker
    /// is retired (its queued tasks re-parent into the global injector).
    /// The token bucket refills continuously at `budget / window`.
    pub restart_budget: u32,
    /// Upper bound for the exponential restart backoff, which starts at
    /// 1 ms and doubles per consecutive crash.
    pub restart_backoff_max: Duration,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            locality: 0,
            // Fail fast on misspelled RPX_FAULT_* knobs: silently running a
            // chaos suite with injection disabled is worse than aborting.
            faults: FaultPlan::from_env().unwrap_or_else(|e| panic!("rpx: {e}")),
            watchdog_interval: Duration::from_millis(20),
            stall_threshold: Duration::from_millis(500),
            max_pending: None,
            // Generous enough that transient fault-injection storms (tens
            // of kills) never trip in ordinary chaos runs; a genuine crash
            // loop exhausts it within a window.
            restart_budget: 64,
            restart_backoff_max: Duration::from_millis(100),
        }
    }
}

impl RuntimeConfig {
    /// Config with `workers` worker threads and defaults otherwise.
    pub fn with_workers(workers: usize) -> Self {
        RuntimeConfig {
            workers: workers.max(1),
            ..RuntimeConfig::default()
        }
    }
}

/// What a task's lifecycle touches, from spawn to teardown: counters,
/// clock, tracer, fault injector and admission gate. Task cells reach it
/// without going through [`RuntimeInner`] (which owns the queues the cells
/// sit in), so a deferred or still-queued cell may outlive the runtime.
pub(crate) struct RuntimeState {
    pub clock: Arc<Clock>,
    /// Per-thread task accounting; the `live`/`pending`/`active` gauges
    /// are derived from it on read (see [`crate::stats`]).
    pub ledger: Ledger,
    /// Where `wait_idle`/`quiesce` callers park (see
    /// [`RuntimeState::wait_idle`]).
    idle: EventGate,
    /// Optional task-lifetime tracing (off by default; see [`TaskTracer`]).
    pub tracer: Arc<TaskTracer>,
    /// Set by [`Runtime::quiesce`] once the drain deadline passes: queued
    /// tasks are cancelled at dispatch instead of executed.
    pub quiesce_cancel: AtomicBool,
    /// Anomaly episodes the watchdog's detector recorded
    /// (feeds `/runtime/anomaly/*`; see [`crate::signals`]).
    pub anomalies: Arc<AnomalyLog>,
    /// Active fault injector (None when the configured plan is inactive).
    pub faults: Option<Arc<FaultInjector>>,
    /// Admission gate (Some iff `config.max_pending` is set).
    pub gate: Option<Arc<AdmissionGate>>,
    // Everything above is read on the per-task path and written at most a
    // few times in a runtime's life; the words below are rewritten while
    // it runs (the watchdog stores its verdict every tick), so they are
    // padded away.
    /// Workers not retired by a tripped restart breaker (effective
    /// parallelism; feeds `/runtime/health/live-workers`).
    pub live_workers: Padded<AtomicUsize>,
    /// Latest [`OverloadState`] the watchdog's detector published
    /// (feeds `/runtime/health/overload-state`).
    pub overload_state: Padded<AtomicI64>,
}

impl RuntimeState {
    pub(crate) fn new(
        workers: usize,
        clock: Arc<Clock>,
        faults: Option<Arc<FaultInjector>>,
        gate: Option<Arc<AdmissionGate>>,
    ) -> Self {
        RuntimeState {
            clock,
            ledger: Ledger::new(workers),
            idle: EventGate::new(),
            tracer: TaskTracer::for_workers(64 * 1024, workers),
            quiesce_cancel: AtomicBool::new(false),
            anomalies: Arc::new(AnomalyLog::new(256)),
            faults,
            gate,
            live_workers: Padded(AtomicUsize::new(workers)),
            overload_state: Padded(AtomicI64::new(0)),
        }
    }

    /// Block until every task in the ledger has finished, or `timeout`
    /// passes; returns whether the runtime went idle.
    ///
    /// No task touches the idle gate on its way out. Instead every thread
    /// that advances `finished` later passes a `SeqCst` fence and then
    /// probes the gate ([`notify_if_idle`](Self::notify_if_idle)): a
    /// worker at its next find-miss, which it reaches before it can park;
    /// any other thread at once ([`settle_idle`](Self::settle_idle)). The
    /// waiter registers on the gate, fences, and reads the ledger. Of the
    /// fences involved, the last in the `SeqCst` order belongs either to
    /// the waiter — whose reading then includes every finish, so it
    /// returns — or to a finisher, who then sees both the registration and
    /// a balanced ledger, and broadcasts (the `idle-wait-fence-relaxed`
    /// model mutant drops the waiter's fence and loses the wake-up).
    pub(crate) fn wait_idle(&self, timeout: Option<Duration>) -> bool {
        let idle = || {
            if prim::mutation_armed("idle-wait-fence-relaxed") {
                prim::fence(Ordering::Acquire);
            } else {
                prim::fence(Ordering::SeqCst);
            }
            self.ledger.is_idle()
        };
        // A timeout too long to express as a deadline is no timeout.
        match timeout.and_then(|t| std::time::Instant::now().checked_add(t)) {
            None => {
                self.idle.wait_until(idle);
                true
            }
            Some(deadline) => self.idle.wait_deadline(deadline, idle),
        }
    }

    /// Wake the idle waiters if there are any and the ledger balances. The
    /// caller must have passed a `SeqCst` fence since its last ledger
    /// write.
    pub(crate) fn notify_if_idle(&self) {
        if self.idle.waiters() > 0 && self.ledger.is_idle() {
            self.idle.notify();
        }
    }

    /// [`notify_if_idle`](Self::notify_if_idle) for a thread with no
    /// find-miss edge ahead of it: a non-worker that finished a task, a
    /// worker retiring for good.
    pub(crate) fn settle_idle(&self) {
        prim::fence(Ordering::SeqCst);
        self.notify_if_idle();
    }

    #[cfg(test)]
    pub(crate) fn idle_waiters(&self) -> usize {
        self.idle.waiters()
    }
}

/// The next id [`next_runtime_id`] hands out.
static NEXT_RUNTIME_ID: AtomicU64 = AtomicU64::new(0);

/// A process-unique runtime id. Ids are never reused, so an id names at
/// most one runtime for the life of the process: a [`RuntimeHandle`] whose
/// runtime is gone can never match a newer one, wherever that was
/// allocated.
pub(crate) fn next_runtime_id() -> u64 {
    NEXT_RUNTIME_ID.fetch_add(1, Ordering::Relaxed)
}

/// Every runtime started by [`Runtime::new`] and not yet dropped, by id.
/// [`RuntimeHandle`] looks its runtime up here when it is not on one of
/// that runtime's workers. No per-task path reaches this lock: a worker
/// spawning into its own runtime matches ids on its thread-local context.
/// Every update is one `push` or `retain`, so a poisoned lock still guards
/// a valid list and is recovered rather than propagated.
static RUNTIMES: std::sync::Mutex<Vec<(u64, Weak<RuntimeInner>)>> =
    std::sync::Mutex::new(Vec::new());

fn runtimes() -> std::sync::MutexGuard<'static, Vec<(u64, Weak<RuntimeInner>)>> {
    RUNTIMES.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The registered runtime `id`, if it is still alive. The lock is released
/// before the `Arc` is returned: dropping the last `Arc` runs
/// `Drop for RuntimeInner`, which takes the lock itself.
fn live_runtime(id: u64) -> Option<Arc<RuntimeInner>> {
    runtimes()
        .iter()
        .find(|(rid, _)| *rid == id)
        .and_then(|(_, weak)| weak.upgrade())
}

pub(crate) struct RuntimeInner {
    /// This runtime's [`next_runtime_id`]; what a [`RuntimeHandle`] holds.
    pub id: u64,
    pub scheduler: Scheduler,
    /// Per-worker task slabs (the allocation-free spawn path), indexed by
    /// worker. Retired, not dropped, with the runtime: a slab lives until
    /// the last cell out of it is freed (`Slab::retire`).
    pub slabs: Vec<Arc<Slab>>,
    pub state: Arc<RuntimeState>,
    pub registry: Arc<CounterRegistry>,
    pub shutdown: AtomicBool,
    pub config: RuntimeConfig,
    /// Set by [`Runtime::quiesce`]: no new task enters a queue (spawns run
    /// inline, `try_spawn` fails).
    pub draining: AtomicBool,
    /// Callbacks run at the end of a quiesce, after queues drain — the
    /// sampler registers a final-flush here so shutdown under load loses
    /// no counter data.
    pub drain_hooks: Mutex<Vec<Box<dyn Fn() + Send>>>,
}

impl Drop for RuntimeInner {
    fn drop(&mut self) {
        runtimes().retain(|(id, _)| *id != self.id);
        // The workers have exited, so each slab's owner-only counters are
        // final. Cells still out of a slab — futures that outlive the
        // runtime, and tasks the scheduler's queues cancel when they drop
        // after this — free it with their last remote free.
        for slab in self.slabs.drain(..) {
            Slab::retire(slab);
        }
    }
}

/// Why a fallible spawn was refused. The closure is handed back so no
/// work is silently lost — the caller decides to retry, defer, or drop.
pub enum SpawnError<F> {
    /// The admission gate is closed (pending ≥ `max_pending`).
    Overloaded(F),
    /// The runtime is quiescing; it will not queue new work again.
    Draining(F),
}

impl<F> SpawnError<F> {
    /// Recover the rejected closure.
    pub fn into_inner(self) -> F {
        match self {
            SpawnError::Overloaded(f) | SpawnError::Draining(f) => f,
        }
    }
}

impl<F> std::fmt::Debug for SpawnError<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SpawnError::Overloaded(_) => "SpawnError::Overloaded",
            SpawnError::Draining(_) => "SpawnError::Draining",
        })
    }
}

impl<F> std::fmt::Display for SpawnError<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SpawnError::Overloaded(_) => "spawn rejected: runtime overloaded",
            SpawnError::Draining(_) => "spawn rejected: runtime draining",
        })
    }
}

/// What [`Runtime::quiesce`] accomplished by its deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuiesceReport {
    /// All outstanding work finished within the deadline without any task
    /// being cancelled.
    pub drained: bool,
    /// Queued tasks cancelled at dispatch after the deadline passed.
    pub cancelled: u64,
    /// Tasks still live (executing or queued behind a wedged worker) when
    /// the quiesce returned.
    pub remaining: u64,
}

/// A lightweight-task runtime: `N` worker threads, per-worker work-stealing
/// queues, instrumented task lifecycle, and a counter registry exposing
/// `/threads/*`, `/scheduler/*` and `/runtime/*` counters.
///
/// ```
/// use rpx_runtime::{Runtime, RuntimeConfig};
///
/// let rt = Runtime::new(RuntimeConfig::with_workers(2));
/// let f = rt.spawn(|| 21 * 2);
/// assert_eq!(f.get(), 42);
/// let executed = rt
///     .registry()
///     .evaluate("/threads{locality#0/total}/count/cumulative", false)
///     .unwrap();
/// assert!(executed.value >= 1);
/// rt.shutdown();
/// ```
pub struct Runtime {
    inner: Arc<RuntimeInner>,
    threads: Vec<JoinHandle<()>>,
    watchdog: TickLoop,
}

impl Runtime {
    /// Start a runtime with the given configuration.
    pub fn new(config: RuntimeConfig) -> Self {
        let workers = config.workers.max(1);
        let registry = CounterRegistry::new();
        let faults = config
            .faults
            .clone()
            .filter(FaultPlan::is_active)
            .map(FaultInjector::new);
        let gate = config.max_pending.map(AdmissionGate::new);
        let state = Arc::new(RuntimeState::new(workers, registry.clock(), faults, gate));
        let inner = Arc::new(RuntimeInner {
            id: next_runtime_id(),
            scheduler: Scheduler::new(workers),
            slabs: (0..workers)
                .map(|_| Slab::new(SLAB_SLOTS, Some(state.clone())))
                .collect(),
            state,
            registry,
            shutdown: AtomicBool::new(false),
            config: config.clone(),
            draining: AtomicBool::new(false),
            drain_hooks: Mutex::new(Vec::new()),
        });

        runtimes().push((inner.id, Arc::downgrade(&inner)));
        crate::counters::register_runtime_counters(&inner);

        let restart_policy = RestartPolicy::from_config(&config);
        let threads = (0..workers)
            .map(|index| {
                let inner = inner.clone();
                let policy = restart_policy;
                std::thread::Builder::new()
                    .name(format!("rpx-worker-{index}"))
                    .stack_size(WORKER_STACK_BYTES)
                    // Supervisor loop: a panic escaping the worker loop (an
                    // injected worker kill, or a real bug outside a task
                    // wrapper) is caught here; the loop is re-entered on the
                    // same thread and reclaims its re-parked deque, so
                    // queued tasks survive. Respawns are counted in
                    // /runtime/health/restarts, spaced by an exponential
                    // backoff, and budgeted: an exhausted token bucket trips
                    // the circuit breaker (see `supervise_crash`).
                    .spawn(move || {
                        let mut restart = RestartState::new(policy);
                        loop {
                            let result =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    worker::worker_loop(inner.clone(), index)
                                }));
                            match result {
                                Ok(()) => break,
                                Err(_) => {
                                    // Generation bump: live wildcard queries
                                    // (`worker-thread#*`) re-expand on their
                                    // next evaluation and pick up the
                                    // respawned (or retired) worker's
                                    // counters.
                                    inner.registry.bump_generation();
                                    if inner.shutdown.load(Ordering::Acquire) {
                                        break;
                                    }
                                    if !supervise_crash(&inner, index, &mut restart) {
                                        break;
                                    }
                                }
                            }
                        }
                    })
                    .expect("failed to spawn worker thread")
            })
            .collect();

        Runtime {
            watchdog: watchdog::spawn(&inner),
            inner,
            threads,
        }
    }

    /// Spawn with the default (`Async`) policy.
    #[track_caller]
    pub fn spawn<T, F>(&self, f: F) -> TaskFuture<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.spawn_with(LaunchPolicy::Async, f)
    }

    /// Spawn with an explicit launch policy.
    #[track_caller]
    pub fn spawn_with<T, F>(&self, policy: LaunchPolicy, f: F) -> TaskFuture<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let site = crate::trace::site_id(std::panic::Location::caller());
        spawn_inner(&self.inner, self.spawner(), policy, site, f, None)
    }

    /// Fallible spawn (`Async` policy): fails fast — never blocks, never
    /// degrades to inline — when the admission gate is closed
    /// ([`SpawnError::Overloaded`]) or the runtime is quiescing
    /// ([`SpawnError::Draining`]). The closure is handed back inside the
    /// error, so no work is silently lost.
    #[track_caller]
    pub fn try_spawn<T, F>(&self, f: F) -> Result<TaskFuture<T>, SpawnError<F>>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let site = crate::trace::site_id(std::panic::Location::caller());
        try_spawn_inner(&self.inner, self.spawner(), site, f, None)
    }

    /// Spawn a task bound to `token`: if the token is cancelled before the
    /// task is dispatched, the body never runs, the future completes in the
    /// cancelled state ([`TaskFuture::get`] re-raises
    /// [`TaskCancelled`](crate::TaskCancelled)), and the worker's
    /// `/runtime/health/cancelled-tasks` counter increments.
    #[track_caller]
    pub fn spawn_cancellable<T, F>(&self, token: &CancelToken, f: F) -> TaskFuture<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let site = crate::trace::site_id(std::panic::Location::caller());
        let token = Some(token.clone());
        spawn_inner(
            &self.inner,
            self.spawner(),
            LaunchPolicy::Async,
            site,
            f,
            token,
        )
    }

    /// Spawn a task that auto-cancels if not dispatched within `deadline`.
    /// Returns the future and the deadline token (for explicit earlier
    /// cancellation or body-side polling).
    #[track_caller]
    pub fn spawn_with_deadline<T, F>(
        &self,
        deadline: Duration,
        f: F,
    ) -> (TaskFuture<T>, CancelToken)
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let token = CancelToken::with_deadline(deadline);
        (self.spawn_cancellable(&token, f), token)
    }

    /// The calling thread's identity as one of this runtime's workers.
    fn spawner(&self) -> Option<worker::WorkerRef> {
        worker::context_for(self.inner.id).map(|(_, spawner)| spawner)
    }

    /// The active fault injector, if this runtime was configured with an
    /// active [`FaultPlan`]. Chaos tests use it to compare injected counts
    /// against the `/runtime/health/*` counters.
    pub fn fault_injector(&self) -> Option<Arc<FaultInjector>> {
        self.inner.state.faults.clone()
    }

    /// The runtime's counter registry.
    pub fn registry(&self) -> Arc<CounterRegistry> {
        self.inner.registry.clone()
    }

    /// The task tracer (disabled by default; `tracer().enable()` starts
    /// recording task spans for chrome://tracing export).
    pub fn tracer(&self) -> Arc<TaskTracer> {
        self.inner.state.tracer.clone()
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.inner.config.workers
    }

    /// Index of the calling worker thread, if it is one of this runtime's.
    pub fn current_worker() -> Option<usize> {
        worker::current_worker_index()
    }

    /// A cloneable, `'static` handle for spawning from inside tasks.
    pub fn handle(&self) -> RuntimeHandle {
        RuntimeHandle { id: self.inner.id }
    }

    /// Block until no task is pending or running.
    pub fn wait_idle(&self) {
        self.inner.state.wait_idle(None);
    }

    /// Gracefully drain the runtime. The protocol:
    ///
    /// 1. **Stop admission**: infallible spawns run inline from here on
    ///    and [`try_spawn`](Self::try_spawn) fails with
    ///    [`SpawnError::Draining`].
    /// 2. **Drain**: wait up to `deadline` for outstanding work.
    /// 3. **Cancel stragglers**: if work remains, still-queued tasks are
    ///    cancelled at dispatch (their futures complete cancelled, counted
    ///    in `/runtime/health/cancelled-tasks`) and the drain waits up to
    ///    `deadline` once more for tasks already executing.
    /// 4. **Flush**: run the registered drain hooks (e.g. a final sampler
    ///    flush via [`add_drain_hook`](Self::add_drain_hook)), so shutdown
    ///    under load loses no counter data.
    ///
    /// Workers stay up (counters remain readable); call
    /// [`shutdown`](Self::shutdown) afterwards to stop them.
    pub fn quiesce(&self, deadline: Duration) -> QuiesceReport {
        let inner = &self.inner;
        inner.draining.store(true, Ordering::SeqCst);
        if let Some(gate) = &inner.state.gate {
            gate.drain();
        }
        let state = &inner.state;
        let drained = state.wait_idle(Some(deadline));
        let mut cancelled = 0;
        if !drained {
            let cancelled_so_far = || state.ledger.total(|s| s.cancelled.load(Ordering::Relaxed));
            let before = cancelled_so_far();
            state.quiesce_cancel.store(true, Ordering::SeqCst);
            inner.scheduler.wake_all();
            let _ = state.wait_idle(Some(deadline));
            cancelled = cancelled_so_far().saturating_sub(before);
        }
        for hook in inner.drain_hooks.lock().iter() {
            hook();
        }
        QuiesceReport {
            drained,
            cancelled,
            remaining: state.ledger.flow().live(),
        }
    }

    /// Register a callback to run at the end of a [`quiesce`](Self::quiesce)
    /// (after queues drain, before it returns). The sampler's final flush
    /// belongs here.
    pub fn add_drain_hook(&self, hook: impl Fn() + Send + 'static) {
        self.inner.drain_hooks.lock().push(Box::new(hook));
    }

    /// Handle to the admission gate (Some iff `max_pending` was
    /// configured), for adaptive policies and monitoring.
    pub fn admission(&self) -> Option<AdmissionControl> {
        self.inner
            .state
            .gate
            .as_ref()
            .map(|gate| AdmissionControl { gate: gate.clone() })
    }

    /// The overload detector's latest verdict (also exposed as the
    /// `/runtime/health/overload-state` counter).
    pub fn overload_state(&self) -> OverloadState {
        OverloadState::from_i64(self.inner.state.overload_state.load(Ordering::Acquire))
    }

    /// Anomaly episodes the watchdog's detector has recorded so far,
    /// oldest first (episode *counts* are also exposed as the
    /// `/runtime/anomaly/*` counters).
    pub fn anomalies(&self) -> Vec<AnomalyEvent> {
        self.inner.state.anomalies.events()
    }

    /// Drain outstanding work, stop the workers, and join them.
    pub fn shutdown(mut self) {
        self.wait_idle();
        self.stop_workers();
    }

    fn stop_workers(&mut self) {
        // SeqCst so the store participates in the fence pairing of
        // `wake_all` vs. worker sleeper registration: a worker that
        // registered before our `wake_all` probe is unparked; one that
        // registers after must observe the flag in its own probe.
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.scheduler.wake_all();
        self.watchdog.stop();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // Best-effort stop without draining (a no-op after `shutdown()`,
        // which is the call to prefer).
        self.stop_workers();
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("workers", &self.inner.config.workers)
            .finish()
    }
}

thread_local! {
    /// Gross execution time of tasks completed on this thread; used to
    /// compute net (exclusive) task durations under work-helping waits.
    static NESTED_EXEC_NS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Id of the task whose body is currently running on this thread
    /// (`u64::MAX` = none). Saved/restored around each body so spans can
    /// record their causal parent even under nested help-execution.
    static CURRENT_TASK: std::cell::Cell<u64> = const { std::cell::Cell::new(u64::MAX) };
}

/// A cloneable handle to a [`Runtime`], usable from inside tasks. It holds
/// only the runtime's process-unique id: cloning it copies 8 bytes and
/// dropping it does nothing, so passing a handle into every child task
/// writes no reference count that all workers share. It does not keep the
/// runtime alive.
#[derive(Clone)]
pub struct RuntimeHandle {
    id: u64,
}

impl RuntimeHandle {
    /// Run `f` with the runtime and the caller's identity as one of its
    /// workers. A worker of this runtime borrows the runtime its own loop
    /// keeps alive; any other thread looks the id up in the registry of
    /// live runtimes and holds an `Arc` for the call.
    ///
    /// # Panics
    ///
    /// Panics if the runtime has been dropped.
    fn with_runtime<R>(&self, f: impl FnOnce(&RuntimeInner, Option<worker::WorkerRef>) -> R) -> R {
        match worker::context_for(self.id) {
            // SAFETY: the calling thread is inside the worker loop of the
            // runtime with this id, which holds a strong reference to it
            // until after this call returns (see `worker::context_for`).
            // Ids are never reused, so `inner` is that runtime.
            Some((inner, spawner)) => f(unsafe { &*inner }, Some(spawner)),
            None => {
                let inner =
                    live_runtime(self.id).expect("RuntimeHandle used after Runtime was dropped");
                f(&inner, None)
            }
        }
    }

    /// Spawn with the default (`Async`) policy.
    ///
    /// # Panics
    ///
    /// Panics if the runtime has been dropped.
    #[track_caller]
    pub fn spawn<T, F>(&self, f: F) -> TaskFuture<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.spawn_with(LaunchPolicy::Async, f)
    }

    /// Spawn with an explicit launch policy.
    #[track_caller]
    pub fn spawn_with<T, F>(&self, policy: LaunchPolicy, f: F) -> TaskFuture<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let site = crate::trace::site_id(std::panic::Location::caller());
        self.with_runtime(|inner, spawner| spawn_inner(inner, spawner, policy, site, f, None))
    }

    /// Fallible spawn; see [`Runtime::try_spawn`].
    ///
    /// # Panics
    ///
    /// Panics if the runtime has been dropped.
    #[track_caller]
    pub fn try_spawn<T, F>(&self, f: F) -> Result<TaskFuture<T>, SpawnError<F>>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let site = crate::trace::site_id(std::panic::Location::caller());
        self.with_runtime(|inner, spawner| try_spawn_inner(inner, spawner, site, f, None))
    }

    /// Spawn a task bound to `token`; see [`Runtime::spawn_cancellable`].
    #[track_caller]
    pub fn spawn_cancellable<T, F>(&self, token: &CancelToken, f: F) -> TaskFuture<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let site = crate::trace::site_id(std::panic::Location::caller());
        let token = Some(token.clone());
        self.with_runtime(|inner, spawner| {
            spawn_inner(inner, spawner, LaunchPolicy::Async, site, f, token)
        })
    }

    /// Spawn with a dispatch deadline; see [`Runtime::spawn_with_deadline`].
    #[track_caller]
    pub fn spawn_with_deadline<T, F>(
        &self,
        deadline: Duration,
        f: F,
    ) -> (TaskFuture<T>, CancelToken)
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let token = CancelToken::with_deadline(deadline);
        (self.spawn_cancellable(&token, f), token)
    }
}

impl std::fmt::Debug for RuntimeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuntimeHandle")
            .field("alive", &live_runtime(self.id).is_some())
            .finish()
    }
}

/// Handle one worker crash in the supervisor loop: consume a restart token
/// and back off, or trip the breaker and retire the worker. Returns `false`
/// when the worker must not be respawned.
fn supervise_crash(inner: &Arc<RuntimeInner>, index: usize, restart: &mut RestartState) -> bool {
    let stats = inner.state.ledger.worker(index);
    match restart.on_crash(inner.state.clock.now_ns()) {
        RestartVerdict::Respawn { backoff } => {
            stats.note_restart();
            backoff_sleep(inner, stats, backoff);
            true
        }
        RestartVerdict::Trip => {
            // Claim a retirement slot atomically: the last live worker can
            // never trip, or queued tasks would strand with no executor.
            let claimed = inner
                .state
                .live_workers
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                    (n > 1).then_some(n - 1)
                })
                .is_ok();
            if !claimed {
                // Sole survivor: keep respawning, at the maximum backoff.
                stats.note_restart();
                backoff_sleep(inner, stats, inner.config.restart_backoff_max);
                return true;
            }
            stats.note_breaker_trip();
            stats.retired.store(true, Ordering::Release);
            // Re-parent the dead worker's queued tasks into the global
            // injector so the surviving workers drain them — shrinking
            // parallelism loses no task.
            inner.scheduler.reparent_to_injector(index);
            inner.scheduler.wake_all();
            // This worker will not pass another find-miss; if the task it
            // died after was the last one, the idle waiters hear it here.
            inner.state.settle_idle();
            false
        }
    }
}

/// Sleep out a restart backoff (sliced, so shutdown stays responsive) and
/// account it into `/runtime/health/restart-backoff`.
fn backoff_sleep(inner: &Arc<RuntimeInner>, stats: &Shard, backoff: Duration) {
    let clock = &inner.state.clock;
    let t0 = clock.now_ns();
    let elapsed = || Duration::from_nanos(clock.now_ns().saturating_sub(t0));
    while elapsed() < backoff && !inner.shutdown.load(Ordering::Acquire) {
        let remaining = backoff.saturating_sub(elapsed());
        std::thread::sleep(remaining.min(Duration::from_millis(1)));
    }
    stats.note_backoff(elapsed().as_nanos() as u64);
}

/// How a spawn proceeds once policy and admission have had their say.
enum Launch {
    /// Push onto a queue; `holds_gate` means it holds an admission slot.
    Queue { holds_gate: bool },
    /// Run in the caller before `spawn` returns (`Sync`, `Fork` on a
    /// worker, gate closed, or runtime draining).
    Inline,
    /// Park in the future until its first `wait`/`get`.
    Deferred,
}

fn admit_for_queue(inner: &RuntimeInner) -> Launch {
    if inner.draining.load(Ordering::SeqCst) {
        return Launch::Inline;
    }
    let Some(gate) = &inner.state.gate else {
        return Launch::Queue { holds_gate: false };
    };
    if gate.try_admit() {
        return Launch::Queue { holds_gate: true };
    }
    gate.note_degraded();
    Launch::Inline
}

/// A task that left the queue (it either runs now or is cancelled) returns
/// its admission slot so backpressured spawners proceed.
fn return_admission(state: &RuntimeState, spawn: &SpawnMeta) {
    if spawn.holds_gate {
        if let Some(gate) = &state.gate {
            gate.note_started();
        }
    }
}

/// A task's run or cancellation is over and its outcome published:
/// advance `finished` on the thread's shard — the whole of the per-task
/// exit accounting for a worker (see [`RuntimeState::wait_idle`]).
fn finish_task(state: &RuntimeState, shard: &Shard) {
    shard.note_finished();
    if shard.is_shared() {
        state.settle_idle();
    }
}

/// Complete a claimed task as cancelled without running it: at dispatch
/// (token, quiesce deadline) or when its queue handle is dropped un-run.
/// `shard` is the calling thread's shard in `state`'s ledger.
pub(crate) fn cancel_task(state: &RuntimeState, shard: &Shard, task: Claimed) {
    return_admission(state, task.spawn());
    shard.note_started(task.spawn().queued);
    shard.note_cancelled();
    task.cancel();
    finish_task(state, shard);
}

/// Run a claimed task with full instrumentation and publish its outcome.
///
/// All instrumentation happens *before* the publish, so a thread observing
/// the future as ready is guaranteed to see the task in the counters —
/// the ordering the paper's evaluate/reset sampling protocol relies on.
///
/// A cancelled token (or, for queued tasks, a passed quiesce deadline)
/// skips the body and completes the future cancelled. The fault injector
/// adds *recovered* task panics: the runner raises and catches an
/// [`InjectedFault`] unwind, counts it, then runs the real work — the
/// result is still produced, which is what lets chaos tests assert both
/// correct benchmark output and exact recovery counts.
///
/// `shard` is the calling thread's shard in `state`'s ledger — its own if
/// it is one of that runtime's workers, else the external one
/// ([`worker::shard_in`]) — never the slot its index in some other
/// runtime would select.
pub(crate) fn run_task(state: &RuntimeState, shard: &Shard, task: Claimed) {
    let spawn = task.spawn();
    let (task_id, parent, site, spawned_ns, queued) = (
        spawn.task_id,
        spawn.parent,
        spawn.site,
        spawn.spawned_ns,
        spawn.queued,
    );
    let cancelled = spawn.token.as_ref().is_some_and(CancelToken::is_cancelled)
        || (queued && state.quiesce_cancel.load(Ordering::Acquire));
    if cancelled {
        return cancel_task(state, shard, task);
    }
    return_admission(state, spawn);
    if let Some(faults) = &state.faults {
        if faults.inject_task_panic() {
            // Transient-fault-with-retry: exercise the unwind path,
            // recover, and run the real body.
            let _ = std::panic::catch_unwind(|| std::panic::panic_any(InjectedFault("task-panic")));
            shard.note_recovered();
        }
    }
    shard.note_started(queued);
    let nested_before = NESTED_EXEC_NS.with(|c| c.get());
    // Mark this task as the causal parent of anything its body spawns
    // (restored below — help-execution nests bodies on one thread).
    let prev_task = CURRENT_TASK.with(|c| c.replace(task_id));
    let start = state.clock.now_ns();
    let ran = task.run();
    let end = state.clock.now_ns();
    CURRENT_TASK.with(|c| c.set(prev_task));
    // Net execution time: subtract time spent executing *other* tasks
    // while helping inside this task's waits, so `/threads/time/*`
    // counts every task exactly once (HPX suspends the parent; we
    // deduct instead — same accounting, different mechanism).
    let gross = end.saturating_sub(start);
    let nested_during = NESTED_EXEC_NS
        .with(|c| c.get())
        .saturating_sub(nested_before);
    let net = gross.saturating_sub(nested_during);
    NESTED_EXEC_NS.with(|c| c.set(nested_before + gross));
    let wait_ns = start.saturating_sub(spawned_ns);
    if state.tracer.is_enabled() {
        // The span records gross start..end plus `nested_ns`, so readers
        // can reconstruct both views; net (gross − nested) is what the
        // profile and the causal analyzer sum — matching the stats below.
        record_span(
            state,
            shard,
            TaskSpan {
                task_id,
                parent: (parent != u64::MAX).then_some(parent),
                site,
                worker: shard.index(),
                start_ns: start,
                end_ns: end,
                wait_ns,
                nested_ns: nested_during,
            },
        );
    }
    shard.record_execution(net, wait_ns);
    ran.publish();
    finish_task(state, shard);
}

/// Record a finished task's span on the ring of this thread's shard — a
/// worker's own, or the shared one for the external shard (index = worker
/// count). One record in `TIMED_EVERY` is timed on the clock that stamped
/// the span and stands for itself and the ones skipped (DESIGN.md §15).
/// Out of line, so the untraced path of `run_task` does not carry it.
#[inline(never)]
fn record_span(state: &RuntimeState, shard: &Shard, span: TaskSpan) {
    let ring = shard.index() as usize;
    if let Some(ns) = state.tracer.record_on(ring, span, || state.clock.now_ns()) {
        state.tracer.note_overhead(ring, TIMED_EVERY * ns);
    }
}

/// Create the task's cell and launch it as decided.
///
/// For a queued task the overhead window `t0..t1` opens *before* the cell
/// is created, so the measured ns/task includes slot/cell setup.
fn launch<T, F>(
    inner: &RuntimeInner,
    spawner: Option<worker::WorkerRef>,
    how: Launch,
    site: u32,
    f: F,
    token: Option<CancelToken>,
) -> TaskFuture<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let state = &inner.state;
    // The spawner's own shard; external callers share one.
    let shard = match spawner {
        Some(w) => state.ledger.worker(w.index),
        None => state.ledger.external(),
    };
    let (queued, holds_gate) = match how {
        Launch::Queue { holds_gate } => (true, holds_gate),
        Launch::Inline | Launch::Deferred => (false, false),
    };
    let t0 = state.clock.now_ns();
    let spawn = SpawnMeta {
        task_id: shard.next_task_id(|n| inner.scheduler.reserve_task_ids(n)),
        // The task executing on this thread right now, if any.
        parent: CURRENT_TASK.with(|c| c.get()),
        site,
        spawned_ns: t0,
        token,
        holds_gate,
        queued,
    };
    let own_slab = spawner.map(|w| &*inner.slabs[w.index]);
    let (task, join) = crate::slab::place(own_slab, Some(state), spawn, f);
    if !task.is_slab_resident() {
        shard.note_fallback_alloc();
    }
    match how {
        Launch::Queue { .. } => {
            // Counted before the push publishes the task: whoever starts
            // it — and so whoever reads its `started` — sees it `queued`.
            shard.note_queued();
            // SAFETY: `w.local` is the calling worker's own deque (see
            // `WorkerRef`); this is the spawning thread.
            let local = spawner.map(|w| unsafe { &*w.local });
            inner.scheduler.push(task, local);
            let t1 = state.clock.now_ns();
            shard.record_overhead(t1.saturating_sub(t0));
            TaskFuture::new(join)
        }
        Launch::Inline => {
            run_task(state, shard, task.claim());
            TaskFuture::new(join)
        }
        Launch::Deferred => TaskFuture::new(join.deferred(task)),
    }
}

/// Count a spawn by one of the runtime's own workers.
fn note_spawn(inner: &RuntimeInner, spawner: Option<worker::WorkerRef>) {
    if let Some(w) = spawner {
        inner.state.ledger.worker(w.index).note_spawned();
    }
}

/// `spawner` is the caller's identity as a worker of *this* runtime
/// ([`worker::context_for`]): a worker of runtime A spawning into runtime
/// B must not index B's shards and slabs with A's worker index.
fn spawn_inner<T, F>(
    inner: &RuntimeInner,
    spawner: Option<worker::WorkerRef>,
    policy: LaunchPolicy,
    site: u32,
    f: F,
    token: Option<CancelToken>,
) -> TaskFuture<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    note_spawn(inner, spawner);
    let how = match policy {
        LaunchPolicy::Sync => Launch::Inline,
        // Continuation-stealing approximation: the child runs now, on
        // this worker, with no queue round-trip (see LaunchPolicy::Fork).
        LaunchPolicy::Fork if spawner.is_some() => Launch::Inline,
        LaunchPolicy::Deferred => Launch::Deferred,
        LaunchPolicy::Async | LaunchPolicy::Fork => admit_for_queue(inner),
    };
    launch(inner, spawner, how, site, f, token)
}

/// The fallible spawn path: admission failure is the caller's problem —
/// the closure comes back inside the error.
fn try_spawn_inner<T, F>(
    inner: &RuntimeInner,
    spawner: Option<worker::WorkerRef>,
    site: u32,
    f: F,
    token: Option<CancelToken>,
) -> Result<TaskFuture<T>, SpawnError<F>>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    if inner.draining.load(Ordering::SeqCst) {
        return Err(SpawnError::Draining(f));
    }
    let holds_gate = match &inner.state.gate {
        Some(gate) => {
            if !gate.try_admit() {
                gate.note_shed();
                return Err(SpawnError::Overloaded(f));
            }
            true
        }
        None => false,
    };
    note_spawn(inner, spawner);
    let how = Launch::Queue { holds_gate };
    Ok(launch(inner, spawner, how, site, f, token))
}
