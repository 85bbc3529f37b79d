//! Registration of the runtime's intrinsic counters — the `/threads/*`,
//! `/scheduler/*`, and `/runtime/*` names the paper's metrics are built on.
//!
//! | Counter | Paper metric |
//! |---|---|
//! | `/threads/time/average` | Task Duration (grain size) |
//! | `/threads/time/average-overhead` | Task Overhead |
//! | `/threads/time/cumulative` | Task Time (summed; divided by cores in the figures) |
//! | `/threads/time/cumulative-overhead` | Scheduling Overhead |
//! | `/threads/count/cumulative` | number of tasks executed |
//!
//! Every per-worker counter is discoverable as
//! `{locality#L/worker-thread#N}` and aggregated as `{locality#L/total}`.
//! `worker-thread#N` reads worker N's ledger shard — what that thread
//! itself did. `total` adds the external shard: work done for the runtime
//! by threads that are not its workers (the spawn cost of root tasks,
//! inline and deferred runs, queue teardown), which has no instance of
//! its own.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};

use rpx_counters::counter::{AverageCounter, MonotonicCounter, RawCounter};
use rpx_counters::name::{CounterInstance, CounterName, InstanceIndex};
use rpx_counters::registry::CounterRegistry;
use rpx_counters::value::{CounterInfo, CounterKind};
use rpx_counters::CounterError;

use crate::runtime::RuntimeInner;
use crate::stats::Shard;

enum Sel {
    Total,
    One(usize),
}

fn selector(name: &CounterName, workers: usize) -> Result<Sel, CounterError> {
    match &name.instance {
        None => Ok(Sel::Total),
        Some(inst) if inst.is_total() => Ok(Sel::Total),
        Some(inst) => {
            let w = inst
                .children
                .iter()
                .find(|c| c.name == "worker-thread")
                .and_then(|c| match c.index {
                    Some(InstanceIndex::At(i)) => Some(i as usize),
                    _ => None,
                })
                .ok_or_else(|| {
                    CounterError::UnknownInstance(format!(
                        "`{name}`: expected total or worker-thread#N"
                    ))
                })?;
            if w >= workers {
                return Err(CounterError::UnknownInstance(format!(
                    "`{name}`: runtime has {workers} workers"
                )));
            }
            Ok(Sel::One(w))
        }
    }
}

fn worker_discoverer(
    object: &str,
    counter: &str,
    locality: u32,
    workers: usize,
) -> rpx_counters::registry::CounterDiscoverer {
    let base = CounterName::new(object, counter);
    Arc::new(move |f: &mut dyn FnMut(CounterName)| {
        f(base.reinstantiate(CounterInstance::total(locality)));
        for w in 0..workers as u32 {
            f(base.reinstantiate(CounterInstance::worker(locality, w)));
        }
    })
}

/// Register a monotonic per-worker counter whose value is `read(stats)`.
fn register_worker_monotonic(
    registry: &Arc<CounterRegistry>,
    inner: &Arc<RuntimeInner>,
    type_path: &'static str,
    help: &'static str,
    unit: &'static str,
    read: fn(&Shard) -> u64,
) {
    let weak: Weak<RuntimeInner> = Arc::downgrade(inner);
    let (object, counter) = split_type_path(type_path);
    let workers = inner.config.workers;
    let locality = inner.config.locality;
    let clock = registry.clock();
    registry.register_type(
        CounterInfo::new(type_path, CounterKind::MonotonicallyIncreasing, help, unit),
        Arc::new(move |name, _reg| {
            let sel = selector(name, workers)?;
            let weak = weak.clone();
            let value: rpx_counters::counter::ValueFn = Arc::new(move || {
                let Some(inner) = weak.upgrade() else {
                    return 0;
                };
                let ledger = &inner.state.ledger;
                (match sel {
                    Sel::Total => ledger.total(read),
                    Sel::One(w) => read(ledger.worker(w)),
                }) as i64
            });
            let info = CounterInfo::new(
                name.canonical(),
                CounterKind::MonotonicallyIncreasing,
                help,
                unit,
            );
            Ok(Arc::new(MonotonicCounter::new(info, clock.clone(), value))
                as Arc<dyn rpx_counters::Counter>)
        }),
        Some(worker_discoverer(object, counter, locality, workers)),
    );
}

/// Register a monotonic per-worker counter read from that worker's task
/// slab (the allocation-free spawn path) rather than its ledger shard.
fn register_slab_monotonic(
    registry: &Arc<CounterRegistry>,
    inner: &Arc<RuntimeInner>,
    type_path: &'static str,
    help: &'static str,
    read: fn(&crate::slab::Slab) -> u64,
) {
    let weak: Weak<RuntimeInner> = Arc::downgrade(inner);
    let (object, counter) = split_type_path(type_path);
    let workers = inner.config.workers;
    let locality = inner.config.locality;
    let clock = registry.clock();
    registry.register_type(
        CounterInfo::new(type_path, CounterKind::MonotonicallyIncreasing, help, "1"),
        Arc::new(move |name, _reg| {
            let sel = selector(name, workers)?;
            let weak = weak.clone();
            let value: rpx_counters::counter::ValueFn = Arc::new(move || {
                let Some(inner) = weak.upgrade() else {
                    return 0;
                };
                (match sel {
                    Sel::Total => inner.slabs.iter().map(|s| read(s)).sum::<u64>(),
                    Sel::One(w) => read(&inner.slabs[w]),
                }) as i64
            });
            let info = CounterInfo::new(
                name.canonical(),
                CounterKind::MonotonicallyIncreasing,
                help,
                "1",
            );
            Ok(Arc::new(MonotonicCounter::new(info, clock.clone(), value))
                as Arc<dyn rpx_counters::Counter>)
        }),
        Some(worker_discoverer(object, counter, locality, workers)),
    );
}

/// Register an average (sum, count) per-worker counter.
fn register_worker_average(
    registry: &Arc<CounterRegistry>,
    inner: &Arc<RuntimeInner>,
    type_path: &'static str,
    help: &'static str,
    read: fn(&Shard) -> (u64, u64),
) {
    let weak: Weak<RuntimeInner> = Arc::downgrade(inner);
    let (object, counter) = split_type_path(type_path);
    let workers = inner.config.workers;
    let locality = inner.config.locality;
    let clock = registry.clock();
    registry.register_type(
        CounterInfo::new(type_path, CounterKind::Average, help, "ns"),
        Arc::new(move |name, _reg| {
            let sel = selector(name, workers)?;
            let weak = weak.clone();
            let pair: rpx_counters::counter::PairFn = Arc::new(move || {
                let Some(inner) = weak.upgrade() else {
                    return (0, 0);
                };
                let ledger = &inner.state.ledger;
                match sel {
                    Sel::Total => ledger.shards().iter().fold((0, 0), |(s, c), w| {
                        let (ws, wc) = read(w);
                        (s + ws, c + wc)
                    }),
                    Sel::One(w) => read(ledger.worker(w)),
                }
            });
            let info = CounterInfo::new(name.canonical(), CounterKind::Average, help, "ns");
            Ok(Arc::new(AverageCounter::new(info, clock.clone(), pair))
                as Arc<dyn rpx_counters::Counter>)
        }),
        Some(worker_discoverer(object, counter, locality, workers)),
    );
}

/// Register a total-only raw gauge.
fn register_total_raw(
    registry: &Arc<CounterRegistry>,
    inner: &Arc<RuntimeInner>,
    type_path: &'static str,
    help: &'static str,
    unit: &'static str,
    read: fn(&RuntimeInner) -> i64,
) {
    let weak: Weak<RuntimeInner> = Arc::downgrade(inner);
    let (object, counter) = split_type_path(type_path);
    let locality = inner.config.locality;
    let clock = registry.clock();
    registry.register_type(
        CounterInfo::new(type_path, CounterKind::Raw, help, unit),
        Arc::new(move |name, _reg| {
            // Accept the bare name or the total instance.
            match &name.instance {
                None => {}
                Some(i) if i.is_total() => {}
                Some(_) => {
                    return Err(CounterError::UnknownInstance(format!(
                        "`{name}` exists only as the total instance"
                    )))
                }
            }
            let weak = weak.clone();
            let value: rpx_counters::counter::ValueFn =
                Arc::new(move || weak.upgrade().map(|i| read(&i)).unwrap_or(0));
            let info = CounterInfo::new(name.canonical(), CounterKind::Raw, help, unit);
            Ok(Arc::new(RawCounter::new(info, clock.clone(), value))
                as Arc<dyn rpx_counters::Counter>)
        }),
        Some({
            let base = CounterName::new(object, counter);
            Arc::new(move |f: &mut dyn FnMut(CounterName)| {
                f(base.reinstantiate(CounterInstance::total(locality)));
            })
        }),
    );
}

/// Register a total-only monotonically increasing counter.
fn register_total_monotonic(
    registry: &Arc<CounterRegistry>,
    inner: &Arc<RuntimeInner>,
    type_path: &'static str,
    help: &'static str,
    unit: &'static str,
    read: fn(&RuntimeInner) -> i64,
) {
    let weak: Weak<RuntimeInner> = Arc::downgrade(inner);
    let (object, counter) = split_type_path(type_path);
    let locality = inner.config.locality;
    let clock = registry.clock();
    registry.register_type(
        CounterInfo::new(type_path, CounterKind::MonotonicallyIncreasing, help, unit),
        Arc::new(move |name, _reg| {
            match &name.instance {
                None => {}
                Some(i) if i.is_total() => {}
                Some(_) => {
                    return Err(CounterError::UnknownInstance(format!(
                        "`{name}` exists only as the total instance"
                    )))
                }
            }
            let weak = weak.clone();
            let value: rpx_counters::counter::ValueFn =
                Arc::new(move || weak.upgrade().map(|i| read(&i)).unwrap_or(0));
            let info = CounterInfo::new(
                name.canonical(),
                CounterKind::MonotonicallyIncreasing,
                help,
                unit,
            );
            Ok(Arc::new(MonotonicCounter::new(info, clock.clone(), value))
                as Arc<dyn rpx_counters::Counter>)
        }),
        Some({
            let base = CounterName::new(object, counter);
            Arc::new(move |f: &mut dyn FnMut(CounterName)| {
                f(base.reinstantiate(CounterInstance::total(locality)));
            })
        }),
    );
}

fn split_type_path(type_path: &'static str) -> (&'static str, &'static str) {
    let rest = type_path
        .strip_prefix('/')
        .expect("type path starts with /");
    rest.split_once('/')
        .expect("type path has /object/counter form")
}

/// Register every runtime counter with `registry`. Called by
/// [`Runtime::new`](crate::runtime::Runtime::new).
pub(crate) fn register_runtime_counters(
    registry: &Arc<CounterRegistry>,
    inner: &Arc<RuntimeInner>,
) {
    register_worker_monotonic(
        registry,
        inner,
        "/threads/count/cumulative",
        "number of tasks executed",
        "1",
        |s| s.executed.load(Ordering::Relaxed),
    );
    register_worker_monotonic(
        registry,
        inner,
        "/threads/time/cumulative",
        "cumulative time spent executing task bodies",
        "ns",
        |s| s.exec_ns.load(Ordering::Relaxed),
    );
    register_worker_monotonic(
        registry,
        inner,
        "/threads/time/cumulative-overhead",
        "cumulative scheduling cost (spawn + dispatch paths)",
        "ns",
        |s| s.overhead_ns.load(Ordering::Relaxed),
    );
    register_worker_monotonic(
        registry,
        inner,
        "/threads/count/stolen",
        "tasks stolen from other workers' queues",
        "1",
        |s| s.stolen.load(Ordering::Relaxed),
    );
    register_worker_monotonic(
        registry,
        inner,
        "/threads/count/steals-local",
        "steals from victims on this worker's own socket segment",
        "1",
        |s| s.stolen_local.load(Ordering::Relaxed),
    );
    register_worker_monotonic(
        registry,
        inner,
        "/threads/count/steals-remote",
        "steals from victims on a remote socket segment",
        "1",
        |s| s.stolen_remote.load(Ordering::Relaxed),
    );
    register_worker_monotonic(
        registry,
        inner,
        "/threads/time/steal-probe-remote",
        "time spent probing remote-socket queues, hit or miss (idle sub-attribution)",
        "ns",
        |s| s.steal_probe_remote_ns.load(Ordering::Relaxed),
    );
    register_worker_monotonic(
        registry,
        inner,
        "/threads/count/spawned",
        "tasks spawned by this worker",
        "1",
        |s| s.spawned.load(Ordering::Relaxed),
    );
    // Health counters backing the fault-tolerance layer (DESIGN.md §health).
    register_worker_monotonic(
        registry,
        inner,
        "/runtime/health/restarts",
        "worker-loop respawns after a panic escaped a task wrapper",
        "1",
        |s| s.restarts.load(Ordering::Relaxed),
    );
    register_worker_monotonic(
        registry,
        inner,
        "/runtime/health/stalls",
        "stall episodes detected by the watchdog (static heartbeat with work pending)",
        "1",
        |s| s.stalls.load(Ordering::Relaxed),
    );
    register_worker_monotonic(
        registry,
        inner,
        "/runtime/health/cancelled-tasks",
        "tasks skipped at dispatch because their cancel token was cancelled",
        "1",
        |s| s.cancelled.load(Ordering::Relaxed),
    );
    register_worker_monotonic(
        registry,
        inner,
        "/runtime/health/recovered-tasks",
        "injected task panics caught and retried at dispatch",
        "1",
        |s| s.recovered.load(Ordering::Relaxed),
    );
    register_worker_average(
        registry,
        inner,
        "/threads/time/average",
        "average task execution time (Task Duration / grain size)",
        Shard::exec_pair,
    );
    register_worker_average(
        registry,
        inner,
        "/threads/time/average-overhead",
        "average per-task scheduling cost (Task Overhead)",
        Shard::overhead_pair,
    );
    register_worker_average(
        registry,
        inner,
        "/threads/time/average-wait",
        "average time tasks spend queued before execution",
        Shard::wait_pair,
    );

    // Idle rate in units of 0.01% (HPX convention).
    {
        let weak: Weak<RuntimeInner> = Arc::downgrade(inner);
        let workers = inner.config.workers;
        let locality = inner.config.locality;
        let clock = registry.clock();
        registry.register_type(
            CounterInfo::new(
                "/threads/idle-rate",
                CounterKind::Raw,
                "fraction of wall time workers spent without work",
                "0.01%",
            ),
            Arc::new(move |name, _reg| {
                let sel = selector(name, workers)?;
                let weak = weak.clone();
                let value: rpx_counters::counter::ValueFn = Arc::new(move || {
                    let Some(inner) = weak.upgrade() else {
                        return 0;
                    };
                    let ledger = &inner.state.ledger;
                    let idle = |s: &Shard| s.idle_ns.load(Ordering::Relaxed);
                    let busy = |s: &Shard| {
                        s.exec_ns.load(Ordering::Relaxed) + s.overhead_ns.load(Ordering::Relaxed)
                    };
                    let (idle, busy) = match sel {
                        Sel::Total => (ledger.total(idle), ledger.total(busy)),
                        Sel::One(w) => (idle(ledger.worker(w)), busy(ledger.worker(w))),
                    };
                    if idle + busy == 0 {
                        return 0;
                    }
                    ((idle as f64 / (idle + busy) as f64) * 10_000.0).round() as i64
                });
                let info = CounterInfo::new(
                    name.canonical(),
                    CounterKind::Raw,
                    "fraction of wall time workers spent without work",
                    "0.01%",
                );
                Ok(Arc::new(RawCounter::new(info, clock.clone(), value))
                    as Arc<dyn rpx_counters::Counter>)
            }),
            Some(worker_discoverer("threads", "idle-rate", locality, workers)),
        );
    }

    register_total_raw(
        registry,
        inner,
        "/threads/count/instantaneous/active",
        "tasks currently executing",
        "1",
        |i| i.state.ledger.flow().active() as i64,
    );
    register_total_raw(
        registry,
        inner,
        "/threads/count/instantaneous/pending",
        "tasks queued, not yet started",
        "1",
        |i| i.state.ledger.flow().pending() as i64,
    );
    // Accounting drift detector: the derived gauges clamp at zero, so a
    // start or finish the ledger cannot match to an earlier step (a skipped
    // `note_queued`/`note_started`) would otherwise be invisible. Any
    // nonzero value here is a bug.
    register_total_monotonic(
        registry,
        inner,
        "/runtime/health/pending-underflows",
        "task starts and finishes the ledger cannot match to an earlier step (accounting drift)",
        "1",
        |i| i.state.ledger.flow().underflows() as i64,
    );
    register_total_raw(
        registry,
        inner,
        "/scheduler/utilization/instantaneous",
        "executing tasks as a percentage of workers",
        "%",
        |i| {
            let active = i.state.ledger.flow().active() as i64;
            (active * 100 / i.config.workers.max(1) as i64).min(100)
        },
    );

    // Overload-protection counters (DESIGN.md §14). `/runtime/tasks/*`
    // reads the admission gate when one is configured — exact, CAS-guarded
    // accounting — and falls back to the ledger's derived view otherwise.
    register_total_raw(
        registry,
        inner,
        "/runtime/tasks/pending",
        "tasks holding admission slots (queued, not yet started)",
        "1",
        |i| match &i.state.gate {
            Some(gate) => gate.pending(),
            None => i.state.ledger.flow().pending() as i64,
        },
    );
    register_total_raw(
        registry,
        inner,
        "/runtime/tasks/peak-pending",
        "lifetime high-water mark of the pending-task count",
        "1",
        |i| match &i.state.gate {
            Some(gate) => gate.peak(),
            None => 0,
        },
    );
    register_total_monotonic(
        registry,
        inner,
        "/runtime/tasks/admitted",
        "spawns admitted through the task-budget gate",
        "1",
        |i| i.state.gate.as_ref().map_or(0, |g| g.admitted() as i64),
    );
    register_total_monotonic(
        registry,
        inner,
        "/runtime/health/shed",
        "spawns rejected by the admission gate (Shed policy / try_spawn)",
        "1",
        |i| i.state.gate.as_ref().map_or(0, |g| g.shed() as i64),
    );
    register_total_monotonic(
        registry,
        inner,
        "/runtime/health/degraded-spawns",
        "spawns run inline in the caller because the gate was closed",
        "1",
        |i| i.state.gate.as_ref().map_or(0, |g| g.degraded() as i64),
    );
    register_total_monotonic(
        registry,
        inner,
        "/runtime/health/blocked-spawns",
        "spawners that parked at least once waiting for admission",
        "1",
        |i| i.state.gate.as_ref().map_or(0, |g| g.blocked() as i64),
    );
    register_total_monotonic(
        registry,
        inner,
        "/runtime/health/gate-closes",
        "open-to-closed transitions of the admission gate",
        "1",
        |i| i.state.gate.as_ref().map_or(0, |g| g.closes() as i64),
    );
    register_total_raw(
        registry,
        inner,
        "/runtime/health/overload-state",
        "overload detector verdict (0 normal, 1 elevated, 2 overloaded)",
        "1",
        |i| i.state.overload_state.load(Ordering::Acquire),
    );
    register_total_raw(
        registry,
        inner,
        "/runtime/health/live-workers",
        "workers not retired by a tripped restart breaker",
        "1",
        |i| i.state.live_workers.load(Ordering::Acquire) as i64,
    );
    register_worker_monotonic(
        registry,
        inner,
        "/runtime/health/restart-backoff",
        "time the supervisor spent backing off between worker respawns",
        "ns",
        |s| s.backoff_ns.load(Ordering::Relaxed),
    );
    register_worker_monotonic(
        registry,
        inner,
        "/runtime/health/breaker-trips",
        "restart budgets exhausted (worker retired by the circuit breaker)",
        "1",
        |s| s.breaker_trips.load(Ordering::Relaxed),
    );

    // Anomaly-detector episode counts (DESIGN.md §15). Counters expose
    // *episodes*, not ticks: a storm that holds for 50 watchdog ticks is
    // one increment, so a policy thresholding on these reacts to events,
    // not durations.
    register_total_monotonic(
        registry,
        inner,
        "/runtime/anomaly/steal-storms",
        "steal-storm episodes (steal/exec ratio spiked over its EWMA baseline)",
        "1",
        |i| {
            i.state
                .anomalies
                .count(crate::anomaly::AnomalyKind::StealStorm) as i64
        },
    );
    register_total_monotonic(
        registry,
        inner,
        "/runtime/anomaly/granularity-collapses",
        "granularity-collapse episodes (mean task grain fell far below baseline)",
        "1",
        |i| {
            i.state
                .anomalies
                .count(crate::anomaly::AnomalyKind::GranularityCollapse) as i64
        },
    );
    register_total_monotonic(
        registry,
        inner,
        "/runtime/anomaly/idle-spikes",
        "idle-spike episodes (cores starved while a backlog existed)",
        "1",
        |i| {
            i.state
                .anomalies
                .count(crate::anomaly::AnomalyKind::IdleSpike) as i64
        },
    );
    register_total_monotonic(
        registry,
        inner,
        "/runtime/anomaly/events",
        "anomaly episodes of any kind (what an adaptive policy thresholds on)",
        "1",
        |i| i.state.anomalies.total() as i64,
    );

    // Slab health (DESIGN.md §16). An allocation-free steady state shows
    // growing `allocs`/`*-frees` with `exhausted` and `fallback-allocs`
    // flat at zero; anything else means the slab is undersized or spawns
    // are arriving from non-worker threads.
    register_slab_monotonic(
        registry,
        inner,
        "/runtime/slab/allocs",
        "task slots claimed from this worker's slab",
        crate::slab::Slab::allocs,
    );
    register_slab_monotonic(
        registry,
        inner,
        "/runtime/slab/local-frees",
        "slots returned to the owning worker's free list directly",
        crate::slab::Slab::local_frees,
    );
    register_slab_monotonic(
        registry,
        inner,
        "/runtime/slab/remote-frees",
        "slots returned through the cross-worker return stack",
        crate::slab::Slab::remote_frees,
    );
    register_slab_monotonic(
        registry,
        inner,
        "/runtime/slab/exhausted",
        "slab allocation attempts that found no free slot (heap fallback taken)",
        crate::slab::Slab::exhausted,
    );
    register_total_monotonic(
        registry,
        inner,
        "/runtime/slab/fallback-allocs",
        "spawns that took the heap path (oversized closure, external spawner, or slab exhaustion)",
        "1",
        |i| {
            let fallbacks = |s: &Shard| s.fallback_allocs.load(Ordering::Relaxed);
            i.state.ledger.total(fallbacks) as i64
        },
    );

    // Tracer self-measurement (the paper's ≤10% overhead envelope is
    // checked against exactly these).
    register_total_monotonic(
        registry,
        inner,
        "/runtime/trace/overhead-time",
        "time spent inside TaskTracer::record (tracing self-measurement)",
        "ns",
        |i| i.state.tracer.overhead_ns() as i64,
    );
    register_total_monotonic(
        registry,
        inner,
        "/runtime/trace/records",
        "task spans recorded by the tracer (including overwritten ones)",
        "1",
        |i| i.state.tracer.records() as i64,
    );
    register_total_monotonic(
        registry,
        inner,
        "/runtime/trace/dropped",
        "task spans overwritten by ring-buffer wraparound",
        "1",
        |i| i.state.tracer.dropped() as i64,
    );

    registry.register_elapsed("/runtime/uptime", "time since the runtime started");
}
