//! # rpx — intrinsic performance counters for task-based parallel applications
//!
//! Umbrella crate of the reproduction of Grubel, Kaiser, Huck & Cook,
//! *"Using Intrinsic Performance Counters to Assess Efficiency in
//! Task-based Parallel Applications"* (IPDPS Workshops 2016).
//!
//! Re-exports every subsystem:
//!
//! - [`counters`] — the performance-counter framework (the paper's primary
//!   contribution): named counters, registry, derived/statistics counters,
//!   active-set evaluate/reset protocol, sampler, CLI layer.
//! - [`runtime`] — the HPX-like lightweight task runtime with per-worker
//!   work stealing and full counter instrumentation.
//! - [`baseline`] — the C++11 `std::async` baseline: one OS thread per
//!   task, with the paper's resource-exhaustion behaviour.
//! - [`papi`] — the analytic cache model and the paper's bandwidth
//!   estimate, which the simulator applies for Figures 13–14.
//! - [`simnode`] — the discrete-event multicore-node simulator used to
//!   regenerate the 20-core scaling experiments in virtual time.
//! - [`inncabs`] — the 14 Inncabs benchmarks (native + task-graph forms).
//! - [`tools`] — TAU/HPCToolkit cost models (Table I).
//! - [`apex`] — the APEX-style policy engine (§VII): counter-driven
//!   runtime adaptation.
//! - [`causal`] — the on-line work/span causal profiler over the task-span
//!   stream: per-spawn-site aggregation, critical paths, what-if
//!   projections (DESIGN.md §15).
//!
//! ## Quickstart
//!
//! ```
//! use rpx::runtime::{Runtime, RuntimeConfig};
//!
//! let rt = Runtime::new(RuntimeConfig::with_workers(2));
//! let futures: Vec<_> = (0..64).map(|i| rt.spawn(move || i * i)).collect();
//! let sum: u64 = futures.into_iter().map(|f| f.get()).sum();
//! assert_eq!(sum, (0..64u64).map(|i| i * i).sum::<u64>());
//!
//! // The runtime observed itself while computing:
//! let avg = rt.registry()
//!     .evaluate("/threads{locality#0/total}/time/average", false)
//!     .unwrap();
//! assert!(avg.status.is_ok());
//! rt.shutdown();
//! ```

pub use rpx_apex as apex;
pub use rpx_baseline as baseline;
pub use rpx_causal as causal;
pub use rpx_counters as counters;
pub use rpx_inncabs as inncabs;
pub use rpx_papi as papi;
pub use rpx_runtime as runtime;
pub use rpx_simnode as simnode;
pub use rpx_tools as tools;
