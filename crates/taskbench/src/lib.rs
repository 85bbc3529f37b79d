//! # rpx-taskbench — parameterized task-graph workloads with closed-form oracles
//!
//! A Task Bench-style workload generator for the runtime-efficiency
//! experiments: deterministic, seed-driven task graphs over a small set of
//! knobs (shape family, task count, per-task grain, dependence width),
//! runnable unchanged on three backends —
//!
//! 1. the real `rpx-runtime` work-stealing scheduler,
//! 2. the thread-per-task `rpx-baseline` (`std::async` model),
//! 3. the `rpx-simnode` discrete-event simulator.
//!
//! Every deterministic shape ships its closed forms — exact task count,
//! edge count, and critical-path length — so tests assert *equality*
//! against the graph and against what each backend actually executed,
//! not "looks plausible" bounds.
//!
//! [`simulated_metg`] reads the minimum effective task granularity (METG)
//! off a grain ladder on the simulator; the paper harness renders it per
//! shape × simulated runtime × workers. Native METG is timed by
//! `rpx-benchmark`'s `stencil_ladder_w1` workload, the one driver that
//! times the real runtime.
//!
//! ```
//! use rpx_taskbench::{Backend, GrainCalibration, Shape, SimBackend, WorkloadSpec};
//!
//! let spec = WorkloadSpec::new(Shape::Tree { arity: 2, depth: 3 }, 1_000, 42);
//! let graph = spec.build();
//! assert_eq!(graph.len() as u64, spec.shape.task_count());
//!
//! let stats = SimBackend::hpx()
//!     .run(&graph, 4, &GrainCalibration::fixed(50.0))
//!     .unwrap();
//! assert_eq!(stats.completed, spec.shape.task_count());
//! ```

pub mod backend;
pub mod gen;
pub mod grain;
pub mod metg;
pub mod shape;

pub use backend::{Backend, BackendError, BaselineBackend, RunStats, RuntimeBackend, SimBackend};
pub use gen::{edge_count, graph_hash, WorkloadSpec};
pub use grain::{spin_iters, GrainCalibration};
pub use metg::{grain_ladder, simulated_metg, MetgBound, Rung};
pub use shape::Shape;
