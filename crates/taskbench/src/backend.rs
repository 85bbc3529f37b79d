//! One graph, three executions.
//!
//! A [`Backend`] runs an [`rpx_simnode::TaskGraph`] to completion and
//! reports comparable [`RunStats`]. The three implementations cover the
//! paper's whole comparison axis:
//!
//! - [`RuntimeBackend`] — the real `rpx-runtime` work-stealing scheduler.
//!   Dependences are honored by a lock-free countdown driver: each task
//!   body runs its grain, then decrements its dependents' remaining-deps
//!   counters and spawns every task that reaches zero.
//! - [`BaselineBackend`] — the thread-per-task `rpx-baseline` (`std::async`
//!   model), same driver, one OS thread per task.
//! - [`SimBackend`] — `rpx-simnode` consuming the graph directly; "wall
//!   time" is the simulated makespan, so measured and simulated schedules
//!   for the identical graph are directly comparable.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rpx_baseline::BaselineRuntime;
use rpx_runtime::{Runtime, RuntimeConfig, RuntimeHandle};
use rpx_simnode::{simulate, SimConfig, SimRuntimeKind, TaskGraph};
use serde::Serialize;

use crate::grain::GrainCalibration;

/// Comparable outcome of one graph execution on one backend.
#[derive(Debug, Clone, Serialize)]
pub struct RunStats {
    /// Backend name (`rpx`, `baseline`, `sim-hpx`, `sim-std`).
    pub backend: String,
    /// Workers/cores the run used.
    pub workers: usize,
    /// Wall-clock (or virtual, for the simulator) duration of the run, ns.
    pub wall_ns: u64,
    /// Tasks handed to the backend (driver count).
    pub spawned: u64,
    /// Tasks that ran to completion (driver count).
    pub completed: u64,
    /// Σ requested task work, ns (`grain × tasks` for uniform graphs).
    pub total_work_ns: u64,
    /// Critical-path work of the graph, ns (the `T∞` bound).
    pub span_ns: u64,
    /// Tasks spawned as seen by the backend's own counters (`None` where
    /// the backend has no such counter) — the conservation cross-check.
    pub counter_spawned: Option<u64>,
    /// Tasks completed as seen by the backend's own counters.
    pub counter_completed: Option<u64>,
    /// Mean per-task scheduling overhead from the backend's counters, ns.
    pub avg_overhead_ns: Option<f64>,
    /// Successful steals (work-stealing backends only).
    pub steals: Option<u64>,
}

impl RunStats {
    /// Parallel efficiency against the ideal schedule: `T_ideal / T_meas`
    /// with `T_ideal = max(W/P, T∞)` (Brent). Clamped to `[0, 1]`.
    pub fn efficiency(&self) -> f64 {
        if self.wall_ns == 0 || self.workers == 0 {
            return 0.0;
        }
        let ideal = (self.total_work_ns as f64 / self.workers as f64).max(self.span_ns as f64);
        (ideal / self.wall_ns as f64).clamp(0.0, 1.0)
    }
}

/// Why a backend run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// A spawn was rejected (resource model, admission, OS).
    Spawn(String),
    /// `panicked` task bodies panicked; their dependents never ran.
    Panicked {
        /// Task bodies that panicked.
        panicked: u64,
        /// Tasks that still completed.
        completed: u64,
    },
    /// The run ended with fewer completions than tasks (lost work).
    Incomplete {
        /// Tasks that completed.
        completed: u64,
        /// Tasks the graph contains.
        expected: u64,
    },
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::Spawn(e) => write!(f, "spawn failed: {e}"),
            BackendError::Panicked {
                panicked,
                completed,
            } => write!(f, "{panicked} task(s) panicked ({completed} completed)"),
            BackendError::Incomplete {
                completed,
                expected,
            } => write!(f, "run incomplete: {completed}/{expected} tasks"),
        }
    }
}

impl std::error::Error for BackendError {}

/// A task-graph executor.
pub trait Backend {
    /// Stable name (`rpx`, `baseline`, `sim-hpx`, `sim-std`).
    fn name(&self) -> &'static str;

    /// Execute `graph` on `workers` workers, spinning each task body for
    /// its `work_ns` via `cal` (real backends) or charging it virtually
    /// (the simulator).
    fn run(
        &self,
        graph: &TaskGraph,
        workers: usize,
        cal: &GrainCalibration,
    ) -> Result<RunStats, BackendError>;
}

// ---------------------------------------------------------------------
// Dependence-countdown driver (shared by the two real backends)
// ---------------------------------------------------------------------

/// Per-run shared state: remaining-dependence countdowns plus the exact
/// spawn/complete/panic ledger the oracle tests audit.
struct Driver {
    graph: TaskGraph,
    deps: Vec<AtomicU32>,
    spawned: AtomicU64,
    completed: AtomicU64,
    panicked: AtomicU64,
    cal: GrainCalibration,
}

impl Driver {
    fn new(graph: &TaskGraph, cal: GrainCalibration) -> Arc<Self> {
        Arc::new(Driver {
            deps: graph.tasks.iter().map(|t| AtomicU32::new(t.deps)).collect(),
            graph: graph.clone(),
            spawned: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            cal,
        })
    }

    /// Run one task body; returns the dependents that became ready.
    /// A panicking body completes nothing and readies nobody — its whole
    /// downstream cone is deliberately lost, and `finish` reports it.
    fn exec(&self, id: u32) -> Vec<u32> {
        let task = &self.graph.tasks[id as usize];
        let work = task.work_ns;
        let cal = self.cal;
        if std::panic::catch_unwind(move || cal.spin_ns(work)).is_err() {
            self.panicked.fetch_add(1, Ordering::Relaxed);
            return Vec::new();
        }
        self.completed.fetch_add(1, Ordering::Relaxed);
        task.enables
            .iter()
            .copied()
            .filter(|&c| {
                // AcqRel: the last finishing dependency observes every
                // earlier dependency's writes before it spawns the child.
                self.deps[c as usize].fetch_sub(1, Ordering::AcqRel) == 1
            })
            .collect()
    }

    fn finish(
        &self,
        name: &str,
        workers: usize,
        wall_ns: u64,
        counters: (Option<u64>, Option<u64>, Option<f64>, Option<u64>),
    ) -> Result<RunStats, BackendError> {
        let expected = self.graph.len() as u64;
        let completed = self.completed.load(Ordering::Relaxed);
        let panicked = self.panicked.load(Ordering::Relaxed);
        if panicked > 0 {
            return Err(BackendError::Panicked {
                panicked,
                completed,
            });
        }
        if completed != expected {
            return Err(BackendError::Incomplete {
                completed,
                expected,
            });
        }
        let (counter_spawned, counter_completed, avg_overhead_ns, steals) = counters;
        Ok(RunStats {
            backend: name.to_string(),
            workers,
            wall_ns,
            spawned: self.spawned.load(Ordering::Relaxed),
            completed,
            total_work_ns: self.graph.total_work_ns(),
            span_ns: self.graph.critical_path_ns(),
            counter_spawned,
            counter_completed,
            avg_overhead_ns,
            steals,
        })
    }
}

// ---------------------------------------------------------------------
// Real runtime
// ---------------------------------------------------------------------

/// The real `rpx-runtime` work-stealing scheduler.
pub struct RuntimeBackend;

fn spawn_on_runtime(h: &RuntimeHandle, d: &Arc<Driver>, id: u32) {
    d.spawned.fetch_add(1, Ordering::Relaxed);
    let h2 = h.clone();
    let d2 = d.clone();
    // Fire-and-forget: the future is dropped, completion is tracked by the
    // driver ledger and `wait_idle`.
    drop(h.spawn(move || {
        for ready in d2.exec(id) {
            spawn_on_runtime(&h2, &d2, ready);
        }
    }));
}

impl Backend for RuntimeBackend {
    fn name(&self) -> &'static str {
        "rpx"
    }

    fn run(
        &self,
        graph: &TaskGraph,
        workers: usize,
        cal: &GrainCalibration,
    ) -> Result<RunStats, BackendError> {
        let rt = Runtime::new(RuntimeConfig::with_workers(workers.max(1)));
        let d = Driver::new(graph, *cal);
        let h = rt.handle();
        let roots = graph.roots();
        let t0 = Instant::now();
        for root in roots {
            spawn_on_runtime(&h, &d, root);
        }
        rt.wait_idle();
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let reg = rt.registry();
        let read = |name: &str| reg.evaluate(name, false).map(|v| v.value).ok();
        let executed = read("/threads{locality#0/total}/count/cumulative");
        let spawned = read("/runtime{locality#0/total}/tasks/admitted");
        let overhead = read("/threads{locality#0/total}/time/average-overhead");
        let steals = read("/threads{locality#0/total}/count/stolen");
        rt.shutdown();
        d.finish(
            self.name(),
            workers,
            wall_ns,
            (
                spawned.map(|v| v as u64),
                executed.map(|v| v as u64),
                overhead.map(|v| v as f64),
                steals.map(|v| v as u64),
            ),
        )
    }
}

// ---------------------------------------------------------------------
// Thread-per-task baseline
// ---------------------------------------------------------------------

/// The thread-per-task `std::async` baseline.
pub struct BaselineBackend;

fn spawn_on_baseline(rt: &Arc<BaselineRuntime>, d: &Arc<Driver>, id: u32) -> Result<(), String> {
    d.spawned.fetch_add(1, Ordering::Relaxed);
    let rt2 = rt.clone();
    let d2 = d.clone();
    match rt.spawn(move || {
        for ready in d2.exec(id) {
            // A failed downstream spawn surfaces as an incomplete run;
            // the resource model already counted it.
            let _ = spawn_on_baseline(&rt2, &d2, ready);
        }
    }) {
        Ok(f) => {
            f.detach();
            Ok(())
        }
        Err(e) => Err(e.to_string()),
    }
}

impl Backend for BaselineBackend {
    fn name(&self) -> &'static str {
        "baseline"
    }

    fn run(
        &self,
        graph: &TaskGraph,
        workers: usize,
        cal: &GrainCalibration,
    ) -> Result<RunStats, BackendError> {
        // `workers` does not bound a thread-per-task runtime (that is the
        // paper's point); it is recorded for the efficiency denominator.
        let rt = Arc::new(BaselineRuntime::with_defaults());
        let d = Driver::new(graph, *cal);
        let roots = graph.roots();
        let t0 = Instant::now();
        for root in roots {
            spawn_on_baseline(&rt, &d, root).map_err(BackendError::Spawn)?;
        }
        rt.wait_idle();
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let stats = rt.stats();
        let report = rt.quiesce(Duration::from_secs(1));
        debug_assert!(report.drained, "idle runtime must drain instantly");
        let spawn_ns = stats.spawn_ns.load(Ordering::Relaxed);
        let spawned = stats.spawned.load(Ordering::Relaxed);
        d.finish(
            self.name(),
            workers,
            wall_ns,
            (
                Some(spawned),
                Some(stats.completed.load(Ordering::Relaxed)),
                (spawned > 0).then(|| spawn_ns as f64 / spawned as f64),
                None,
            ),
        )
    }
}

// ---------------------------------------------------------------------
// Simulator
// ---------------------------------------------------------------------

/// `rpx-simnode` consuming the graph directly; wall time is virtual.
pub struct SimBackend {
    kind: SimRuntimeKind,
    label: &'static str,
}

impl SimBackend {
    /// Simulated HPX-like work-stealing runtime.
    pub fn hpx() -> Self {
        SimBackend {
            kind: SimRuntimeKind::hpx(),
            label: "sim-hpx",
        }
    }

    /// Simulated thread-per-task runtime.
    pub fn std_async() -> Self {
        SimBackend {
            kind: SimRuntimeKind::std_async(),
            label: "sim-std",
        }
    }
}

impl Backend for SimBackend {
    fn name(&self) -> &'static str {
        self.label
    }

    fn run(
        &self,
        graph: &TaskGraph,
        workers: usize,
        _cal: &GrainCalibration,
    ) -> Result<RunStats, BackendError> {
        let mut cfg = SimConfig::hpx(workers.max(1) as u32);
        cfg.runtime = self.kind.clone();
        let r = simulate(graph, &cfg);
        if let Some(failure) = &r.failed {
            return Err(BackendError::Incomplete {
                completed: failure.completed_tasks,
                expected: graph.len() as u64,
            });
        }
        Ok(RunStats {
            backend: self.label.to_string(),
            workers,
            wall_ns: r.makespan_ns,
            spawned: r.tasks_executed,
            completed: r.tasks_executed,
            total_work_ns: graph.total_work_ns(),
            span_ns: graph.critical_path_ns(),
            counter_spawned: Some(r.tasks_executed),
            counter_completed: Some(r.tasks_executed),
            avg_overhead_ns: Some(r.avg_overhead_ns()),
            steals: Some(r.steals),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::WorkloadSpec;
    use crate::shape::Shape;

    fn tiny(shape: Shape) -> TaskGraph {
        WorkloadSpec::new(shape, 2_000, 11).build()
    }

    #[test]
    fn runtime_backend_completes_exactly() {
        let g = tiny(Shape::Stencil { width: 8, steps: 4 });
        let cal = GrainCalibration::shared();
        let r = RuntimeBackend.run(&g, 2, &cal).unwrap();
        assert_eq!(r.completed, 32);
        assert_eq!(r.spawned, 32);
        assert_eq!(r.counter_completed, Some(32));
        assert!(r.wall_ns > 0);
    }

    #[test]
    fn baseline_backend_completes_exactly() {
        let g = tiny(Shape::Tree { arity: 2, depth: 3 });
        let cal = GrainCalibration::shared();
        let r = BaselineBackend.run(&g, 2, &cal).unwrap();
        assert_eq!(r.completed, 22);
        assert_eq!(r.counter_spawned, Some(22));
        assert_eq!(r.counter_completed, Some(22));
    }

    #[test]
    fn sim_backends_agree_on_task_count() {
        let g = tiny(Shape::Butterfly { points_log2: 3 });
        let cal = GrainCalibration::fixed(50.0);
        for b in [SimBackend::hpx(), SimBackend::std_async()] {
            let r = b.run(&g, 4, &cal).unwrap();
            assert_eq!(r.completed, 32, "{}", b.name());
            assert!(r.wall_ns >= g.critical_path_ns(), "{}", b.name());
        }
    }

    #[test]
    fn efficiency_is_bounded_and_sane() {
        let r = RunStats {
            backend: "x".into(),
            workers: 2,
            wall_ns: 1_000,
            spawned: 4,
            completed: 4,
            total_work_ns: 1_600,
            span_ns: 400,
            counter_spawned: None,
            counter_completed: None,
            avg_overhead_ns: None,
            steals: None,
        };
        assert!((r.efficiency() - 0.8).abs() < 1e-9);
        // Span-bound graph: ideal is T∞, not W/P.
        let chain = RunStats {
            span_ns: 1_000,
            ..r.clone()
        };
        assert!((chain.efficiency() - 1.0).abs() < 1e-9);
    }
}
