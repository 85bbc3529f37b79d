//! The runtime's intrinsic counters — the `/threads/*`, `/scheduler/*` and
//! `/runtime/*` names the paper's metrics are built on — as one declaration
//! table ([`COUNTERS`]) over the task ledger, registered by one function.
//!
//! | Counter | Paper metric |
//! |---|---|
//! | `/threads/time/average` | Task Duration (grain size) |
//! | `/threads/time/average-overhead` | Task Overhead |
//! | `/threads/time/cumulative` | Task Time (summed; divided by cores in the figures) |
//! | `/threads/time/cumulative-overhead` | Scheduling Overhead |
//! | `/threads/count/cumulative` | number of tasks executed |
//!
//! A row read from shards or slabs is discoverable per worker as
//! `{locality#L/worker-thread#N}` and aggregated as `{locality#L/total}`.
//! `worker-thread#N` reads worker N's ledger shard — what that thread
//! itself did. `total` adds the external shard: work done for the runtime
//! by threads that are not its workers (the spawn cost of root tasks,
//! inline and deferred runs, queue teardown), which has no instance of
//! its own. A row read from the whole runtime exists only as `total`.

use std::sync::{Arc, Weak};

use rpx_counters::counter::{Counter, Cumulative, CumulativeCounter, RawCounter};
use rpx_counters::name::{CounterInstance, CounterName, InstanceIndex};
use rpx_counters::value::{CounterInfo, CounterKind};
use rpx_counters::CounterError;

use crate::prim::{AtomicU64, Ordering};
use crate::runtime::RuntimeInner;
use crate::signals::AnomalyKind;
use crate::slab::Slab;
use crate::stats::Shard;
use Source::*;

/// Where a counter's value comes from and, with that, its kind: a row
/// cannot pair a source with a counter kind that cannot read it.
#[derive(Clone, Copy)]
enum Source {
    /// Monotone, per worker: a summable ledger-shard field.
    Sum(fn(&Shard) -> &AtomicU64),
    /// Average, per worker: a summable `(sum, count)` of shard statistics.
    Mean(fn(&Shard) -> (u64, u64)),
    /// Raw, per worker: a summable `(part, whole)` of shard statistics,
    /// reported as `Δpart / Δwhole` since the last reset, in units of
    /// 0.01 %.
    Share(fn(&Shard) -> (u64, u64)),
    /// Monotone, per worker: a statistic of the worker's task slab.
    SlabSum(fn(&Slab) -> u64),
    /// Monotone, total only: a count kept by the runtime as a whole.
    Count(fn(&RuntimeInner) -> i64),
    /// Raw, total only: an instantaneous reading of the whole runtime.
    Gauge(fn(&RuntimeInner) -> i64),
    /// Elapsed time on the registry clock: no runtime state, and (as the
    /// registry's own elapsed-time type) any instance name.
    Uptime,
}

/// One counter type: everything registration, discovery and the docs need
/// to know about it.
struct Decl {
    path: &'static str,
    unit: &'static str,
    help: &'static str,
    source: Source,
}

fn load(field: &AtomicU64) -> u64 {
    field.load(Ordering::Relaxed)
}

const COUNTERS: &[Decl] = &[
    Decl {
        path: "/threads/count/cumulative",
        unit: "1",
        help: "number of tasks executed",
        source: Sum(|s| &s.executed),
    },
    Decl {
        path: "/threads/time/cumulative",
        unit: "ns",
        help: "cumulative time spent executing task bodies",
        source: Sum(|s| &s.exec_ns),
    },
    Decl {
        path: "/threads/time/cumulative-overhead",
        unit: "ns",
        help: "cumulative scheduling cost (spawn + dispatch paths)",
        source: Sum(|s| &s.overhead_ns),
    },
    Decl {
        path: "/threads/count/stolen",
        unit: "1",
        help: "tasks stolen from other workers' queues",
        source: Sum(|s| &s.stolen),
    },
    Decl {
        path: "/threads/count/spawned",
        unit: "1",
        help: "tasks spawned by this worker",
        source: Sum(|s| &s.spawned),
    },
    Decl {
        path: "/threads/time/average",
        unit: "ns",
        help: "average task execution time (Task Duration / grain size)",
        source: Mean(|s| (load(&s.exec_ns), load(&s.executed))),
    },
    // HPX reports overhead per executed task, not per scheduling operation.
    Decl {
        path: "/threads/time/average-overhead",
        unit: "ns",
        help: "average per-task scheduling cost (Task Overhead)",
        source: Mean(|s| (load(&s.overhead_ns), load(&s.executed))),
    },
    Decl {
        path: "/threads/time/average-wait",
        unit: "ns",
        help: "average time tasks spend queued before execution",
        source: Mean(|s| (load(&s.wait_ns), load(&s.executed))),
    },
    // Idle over idle + busy, in units of 0.01 % (HPX convention).
    Decl {
        path: "/threads/idle-rate",
        unit: "0.01%",
        help: "fraction of wall time workers spent without work",
        source: Share(|s| {
            let idle = load(&s.idle_ns);
            (idle, idle + load(&s.exec_ns) + load(&s.overhead_ns))
        }),
    },
    Decl {
        path: "/threads/count/instantaneous/active",
        unit: "1",
        help: "tasks currently executing",
        source: Gauge(|i| i.state.ledger.flow().active() as i64),
    },
    Decl {
        path: "/threads/count/instantaneous/pending",
        unit: "1",
        help: "tasks queued, not yet started",
        source: Gauge(|i| i.state.ledger.flow().pending() as i64),
    },
    Decl {
        path: "/scheduler/utilization/instantaneous",
        unit: "%",
        help: "executing tasks as a percentage of workers",
        source: Gauge(|i| {
            let active = i.state.ledger.flow().active() as i64;
            (active * 100 / i.config.workers.max(1) as i64).min(100)
        }),
    },
    // Health counters backing the fault-tolerance layer (DESIGN.md §9).
    Decl {
        path: "/runtime/health/restarts",
        unit: "1",
        help: "worker-loop respawns after a panic escaped a task wrapper",
        source: Sum(|s| &s.restarts),
    },
    Decl {
        path: "/runtime/health/stalls",
        unit: "1",
        help: "stall episodes detected by the watchdog (static heartbeat with work pending)",
        source: Sum(|s| &s.stalls),
    },
    Decl {
        path: "/runtime/health/cancelled-tasks",
        unit: "1",
        help: "tasks skipped at dispatch because their cancel token was cancelled",
        source: Sum(|s| &s.cancelled),
    },
    Decl {
        path: "/runtime/health/recovered-tasks",
        unit: "1",
        help: "injected task panics caught and retried at dispatch",
        source: Sum(|s| &s.recovered),
    },
    Decl {
        path: "/runtime/health/restart-backoff",
        unit: "ns",
        help: "time the supervisor spent backing off between worker respawns",
        source: Sum(|s| &s.backoff_ns),
    },
    Decl {
        path: "/runtime/health/breaker-trips",
        unit: "1",
        help: "restart budgets exhausted (worker retired by the circuit breaker)",
        source: Sum(|s| &s.breaker_trips),
    },
    Decl {
        path: "/runtime/health/live-workers",
        unit: "1",
        help: "workers not retired by a tripped restart breaker",
        source: Gauge(|i| i.state.live_workers.load(Ordering::Acquire) as i64),
    },
    // Accounting drift detector: the derived gauges clamp at zero, so a
    // start or finish the ledger cannot match to an earlier step (a skipped
    // `note_queued`/`note_started`) would otherwise be invisible. Any
    // nonzero value here is a bug.
    Decl {
        path: "/runtime/health/pending-underflows",
        unit: "1",
        help: "task starts and finishes the ledger cannot match to an earlier step (accounting drift)",
        source: Count(|i| i.state.ledger.flow().underflows() as i64),
    },
    // Overload protection (DESIGN.md §14). `/runtime/tasks/*` reads the
    // admission gate when one is configured — exact, CAS-guarded
    // accounting — and `pending` and `admitted` fall back to the ledger's
    // flow counters otherwise.
    Decl {
        path: "/runtime/tasks/pending",
        unit: "1",
        help: "tasks holding admission slots (queued, not yet started)",
        source: Gauge(|i| match &i.state.gate {
            Some(gate) => gate.pending(),
            None => i.state.ledger.flow().pending() as i64,
        }),
    },
    Decl {
        path: "/runtime/tasks/peak-pending",
        unit: "1",
        help: "lifetime high-water mark of the pending-task count",
        source: Gauge(|i| i.state.gate.as_ref().map_or(0, |g| g.peak())),
    },
    Decl {
        path: "/runtime/tasks/admitted",
        unit: "1",
        help: "spawns admitted through the admission gate, or without one every task that entered the ledger",
        source: Count(|i| match &i.state.gate {
            Some(gate) => gate.admitted() as i64,
            None => i.state.ledger.flow().queued as i64,
        }),
    },
    Decl {
        path: "/runtime/health/shed",
        unit: "1",
        help: "try_spawn calls rejected by a closed admission gate",
        source: Count(|i| i.state.gate.as_ref().map_or(0, |g| g.shed() as i64)),
    },
    Decl {
        path: "/runtime/health/degraded-spawns",
        unit: "1",
        help: "spawns run inline in the caller because the gate was closed",
        source: Count(|i| i.state.gate.as_ref().map_or(0, |g| g.degraded() as i64)),
    },
    Decl {
        path: "/runtime/health/gate-closes",
        unit: "1",
        help: "open-to-closed transitions of the admission gate",
        source: Count(|i| i.state.gate.as_ref().map_or(0, |g| g.closes() as i64)),
    },
    Decl {
        path: "/runtime/health/overload-state",
        unit: "1",
        help: "overload detector verdict (0 normal, 1 elevated, 2 overloaded)",
        source: Gauge(|i| i.state.overload_state.load(Ordering::Acquire)),
    },
    // Anomaly episodes, not ticks: a storm that holds for 50 watchdog ticks
    // is one increment, so a policy thresholding on these reacts to events,
    // not durations.
    Decl {
        path: "/runtime/anomaly/steal-storms",
        unit: "1",
        help: "steal-storm episodes (steal/exec ratio spiked over its EWMA baseline)",
        source: Count(|i| i.state.anomalies.count(AnomalyKind::StealStorm) as i64),
    },
    Decl {
        path: "/runtime/anomaly/granularity-collapses",
        unit: "1",
        help: "granularity-collapse episodes (mean task grain fell far below baseline)",
        source: Count(|i| i.state.anomalies.count(AnomalyKind::GranularityCollapse) as i64),
    },
    Decl {
        path: "/runtime/anomaly/idle-spikes",
        unit: "1",
        help: "idle-spike episodes (cores starved while a backlog existed)",
        source: Count(|i| i.state.anomalies.count(AnomalyKind::IdleSpike) as i64),
    },
    Decl {
        path: "/runtime/anomaly/events",
        unit: "1",
        help: "anomaly episodes of any kind (what an adaptive policy thresholds on)",
        source: Count(|i| i.state.anomalies.total() as i64),
    },
    // Slab health (DESIGN.md §16). An allocation-free steady state shows
    // growing `allocs`/`*-frees` with `exhausted` and `fallback-allocs`
    // flat at zero; anything else means the slab is undersized or spawns
    // are arriving from non-worker threads.
    Decl {
        path: "/runtime/slab/allocs",
        unit: "1",
        help: "task slots claimed from this worker's slab",
        source: SlabSum(Slab::allocs),
    },
    Decl {
        path: "/runtime/slab/local-frees",
        unit: "1",
        help: "slots returned to the owning worker's free list directly",
        source: SlabSum(Slab::local_frees),
    },
    Decl {
        path: "/runtime/slab/remote-frees",
        unit: "1",
        help: "slots returned through the cross-worker return stack",
        source: SlabSum(Slab::remote_frees),
    },
    Decl {
        path: "/runtime/slab/exhausted",
        unit: "1",
        help: "slab allocation attempts that found no free slot (heap fallback taken)",
        source: SlabSum(Slab::exhausted),
    },
    Decl {
        path: "/runtime/slab/fallback-allocs",
        unit: "1",
        help: "spawns that took the heap path (oversized closure, external spawner, or slab exhaustion)",
        source: Count(|i| i.state.ledger.total(|s| load(&s.fallback_allocs)) as i64),
    },
    // Tracer self-measurement (the paper's ≤10% overhead envelope is
    // checked against exactly these).
    Decl {
        path: "/runtime/trace/overhead-time",
        unit: "ns",
        help: "time spent recording task spans, estimated from one record in 64: the middle record of each block of 64 on a ring (cursor 32 mod 64) is timed and counts 64 times (sum over rings of floor((cursor+31)/64) records timed)",
        source: Count(|i| i.state.tracer.overhead_ns() as i64),
    },
    Decl {
        path: "/runtime/trace/records",
        unit: "1",
        help: "task spans recorded by the tracer (including overwritten ones)",
        source: Count(|i| i.state.tracer.records() as i64),
    },
    Decl {
        path: "/runtime/trace/dropped",
        unit: "1",
        help: "task spans overwritten by ring-buffer wraparound",
        source: Count(|i| i.state.tracer.dropped() as i64),
    },
    Decl {
        path: "/runtime/uptime",
        unit: "ns",
        help: "time since the runtime started",
        source: Uptime,
    },
];

impl Decl {
    fn kind(&self) -> CounterKind {
        match self.source {
            Sum(_) | SlabSum(_) | Count(_) => CounterKind::MonotonicallyIncreasing,
            Mean(_) => CounterKind::Average,
            Share(_) | Gauge(_) => CounterKind::Raw,
            Uptime => CounterKind::ElapsedTime,
        }
    }

    fn per_worker(&self) -> bool {
        matches!(self.source, Sum(_) | Mean(_) | Share(_) | SlabSum(_))
    }

    /// The worker a concrete instance name selects (`None`: the total).
    fn select(&self, name: &CounterName, workers: usize) -> Result<Option<usize>, CounterError> {
        let inst = match &name.instance {
            Some(inst) if !inst.is_total() && !matches!(self.source, Uptime) => inst,
            _ => return Ok(None),
        };
        let unknown = |why: String| Err(CounterError::UnknownInstance(format!("`{name}`{why}")));
        let worker = inst.children.iter().find(|c| c.name == "worker-thread");
        match worker.and_then(|c| c.index) {
            _ if !self.per_worker() => unknown(" exists only as the total instance".into()),
            Some(InstanceIndex::At(w)) if (w as usize) < workers => Ok(Some(w as usize)),
            Some(InstanceIndex::At(_)) => unknown(format!(": runtime has {workers} workers")),
            _ => unknown(": expected total or worker-thread#N".into()),
        }
    }

    /// The `(sum, count)` of a pair source over the shards `worker` selects.
    fn pair(&self, inner: &RuntimeInner, worker: Option<usize>) -> (u64, u64) {
        let (Mean(pair) | Share(pair)) = self.source else {
            return (0, 0);
        };
        let (shards, _) = scope(inner, worker);
        let sums = shards.iter().map(pair);
        sums.fold((0, 0), |(sum, count), (s, c)| (sum + s, count + c))
    }

    /// The scalar reading of any other source.
    fn value(&self, inner: &RuntimeInner, worker: Option<usize>) -> i64 {
        let (shards, slabs) = scope(inner, worker);
        match self.source {
            Sum(field) => shards.iter().map(|s| load(field(s))).sum::<u64>() as i64,
            SlabSum(stat) => slabs.iter().map(|s| stat(s)).sum::<u64>() as i64,
            Count(read) | Gauge(read) => read(inner),
            Mean(_) | Share(_) | Uptime => 0,
        }
    }
}

/// The shards and slabs an instance covers: one worker's, or for the total
/// all of them (the external shard included).
fn scope(inner: &RuntimeInner, worker: Option<usize>) -> (&[Shard], &[Arc<Slab>]) {
    let shards = inner.state.ledger.shards();
    match worker {
        Some(w) => (&shards[w..=w], &inner.slabs[w..=w]),
        None => (shards, &inner.slabs),
    }
}

/// Register every runtime counter with the runtime's registry. Called by
/// [`Runtime::new`](crate::runtime::Runtime::new). This one function owns
/// what is common to all rows: instance selection, the weak back-reference
/// (a counter must not keep its runtime alive, and reads 0 once it is
/// gone), `total` + `worker-thread#N` discovery, and the choice of counter
/// type by source.
pub(crate) fn register_runtime_counters(inner: &Arc<RuntimeInner>) {
    let (workers, locality) = (inner.config.workers, inner.config.locality);
    for decl in COUNTERS {
        let weak: Weak<RuntimeInner> = Arc::downgrade(inner);
        let clock = inner.registry.clock();
        let base: CounterName = decl.path.parse().expect("declared type paths parse");
        let instances = if decl.per_worker() { workers as u32 } else { 0 };
        inner.registry.register_type(
            CounterInfo::new(decl.path, decl.kind(), decl.help, decl.unit),
            Arc::new(move |name, _registry| {
                let worker = decl.select(name, workers)?;
                let info = CounterInfo::new(name.canonical(), decl.kind(), decl.help, decl.unit);
                let (clock, weak, weak2) = (clock.clone(), weak.clone(), weak.clone());
                let value = Arc::new(move || weak.upgrade().map_or(0, |i| decl.value(&i, worker)));
                let pair =
                    Arc::new(move || weak2.upgrade().map_or((0, 0), |i| decl.pair(&i, worker)));
                let source = match decl.source {
                    Gauge(_) => return Ok(Arc::new(RawCounter::new(info, clock, value))),
                    Mean(_) => Cumulative::Average(pair),
                    Share(_) => Cumulative::Share(pair),
                    Uptime => Cumulative::Elapsed,
                    Sum(_) | SlabSum(_) | Count(_) => Cumulative::Monotonic(value),
                };
                Ok(Arc::new(CumulativeCounter::new(info, clock, source)) as Arc<dyn Counter>)
            }),
            Some(Arc::new(move |found: &mut dyn FnMut(CounterName)| {
                if matches!(decl.source, Uptime) {
                    return found(base.clone());
                }
                found(base.reinstantiate(CounterInstance::total(locality)));
                for w in 0..instances {
                    found(base.reinstantiate(CounterInstance::worker(locality, w)));
                }
            })),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{RuntimeConfig, RuntimeState};
    use crate::scheduler::Scheduler;
    use crate::slab::SLAB_SLOTS;
    use rpx_counters::registry::CounterRegistry;

    /// A runtime's data with its counters registered and no threads, so
    /// the ledger holds exactly what a test writes into it.
    fn thread_less_runtime(workers: usize) -> Arc<RuntimeInner> {
        let registry = CounterRegistry::new();
        let state = Arc::new(RuntimeState::new(workers, registry.clock(), None, None));
        let inner = Arc::new(RuntimeInner {
            id: crate::runtime::next_runtime_id(),
            scheduler: Scheduler::new(workers),
            slabs: (0..workers)
                .map(|_| Slab::new(SLAB_SLOTS, Some(state.clone())))
                .collect(),
            state,
            registry: registry.clone(),
            pmu: rpx_papi::Pmu::new(workers),
            shutdown: Default::default(),
            config: RuntimeConfig::with_workers(workers),
            draining: Default::default(),
            drain_hooks: Default::default(),
        });
        register_runtime_counters(&inner);
        inner
    }

    /// Row by row over the table: `worker-thread#N` reads shard N alone,
    /// `total` every worker plus the external shard.
    #[test]
    fn total_is_every_worker_plus_the_external_shard() {
        let inner = thread_less_runtime(2);
        let ledger = &inner.state.ledger;
        // Every field a row reads holds 3 on worker 0, 5 on worker 1 and 7
        // on the external shard.
        for (shard, n) in [
            (ledger.worker(0), 3),
            (ledger.worker(1), 5),
            (ledger.external(), 7),
        ] {
            for decl in COUNTERS {
                if let Sum(field) = decl.source {
                    field(shard).store(n, Ordering::Relaxed);
                }
            }
            shard.wait_ns.store(n, Ordering::Relaxed);
            shard.idle_ns.store(n, Ordering::Relaxed);
        }
        for decl in COUNTERS.iter().filter(|d| d.per_worker()) {
            let (object, counter) = decl.path[1..].split_once('/').unwrap();
            let eval = |instance: &str| {
                let name = format!("/{object}{{locality#0/{instance}}}/{counter}");
                inner.registry.evaluate(&name, false).unwrap()
            };
            let read = [
                eval("worker-thread#0"),
                eval("worker-thread#1"),
                eval("total"),
            ];
            let (values, counts) = (read.map(|v| v.value), read.map(|v| v.count));
            match decl.source {
                Sum(_) => assert_eq!(values, [3, 5, 15], "{}", decl.path),
                // n nanoseconds over n tasks.
                Mean(_) => assert_eq!((values, counts), ([1; 3], [3, 5, 15]), "{}", decl.path),
                // n idle out of n idle + n executing + n scheduling.
                Share(_) => assert_eq!(values, [3_333; 3], "{}", decl.path),
                // No task ran: the slabs are untouched.
                _ => assert_eq!(values, [0; 3], "{}", decl.path),
            }
        }
    }

    /// Task Overhead is scheduling cost per *executed task*, however many
    /// scheduling operations the cost was recorded in.
    #[test]
    fn average_overhead_divides_by_executed_tasks() {
        let inner = thread_less_runtime(1);
        let shard = inner.state.ledger.worker(0);
        shard.record_overhead(10);
        shard.record_overhead(30);
        shard.record_execution(1000, 0);
        let name = "/threads{locality#0/total}/time/average-overhead";
        assert_eq!(inner.registry.evaluate(name, false).unwrap().value, 40);
    }

    /// `/threads/idle-rate` is per interval after a reset, as in HPX: idle
    /// over idle + busy of what accrued since the last reset-read.
    #[test]
    fn idle_rate_is_per_interval_after_a_reset() {
        let inner = thread_less_runtime(1);
        let shard = inner.state.ledger.worker(0);
        let name = "/threads{locality#0/total}/idle-rate";
        // (idle, idle + exec + overhead) = (30, 100).
        shard.record_idle(30);
        shard.record_execution(60, 0);
        shard.record_overhead(10);
        assert_eq!(inner.registry.evaluate(name, true).unwrap().value, 3_000);
        // (30, 150): the interval since the reset held no idle time.
        shard.record_execution(50, 0);
        assert_eq!(inner.registry.evaluate(name, false).unwrap().value, 0);
    }
}
