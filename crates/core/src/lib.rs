//! # rpx-counters — intrinsic performance counters for task runtimes
//!
//! This crate is the primary contribution of the reproduction: an HPX-style
//! performance-counter framework that lets a runtime system and the
//! application it hosts observe *themselves* — software events (task
//! durations, scheduling overheads, queue lengths) and hardware events —
//! through one uniform, named, queryable interface, **at runtime**, without
//! external tools.
//!
//! ## Concepts
//!
//! - **Names** ([`name::CounterName`]): counters are addressed by
//!   structured names like
//!   `/threads{locality#0/worker-thread#1}/time/average`. Wildcards
//!   (`worker-thread#*`) expand to every live instance.
//! - **Counters** ([`counter::Counter`]): cheap, thread-safe value sources
//!   with one read method, `get_value_at(reset, now_ns)`: the reader hands
//!   in the stamp, and a reset is only ever a reset-read. Generic kinds (raw
//!   gauge, one cumulative type for monotonic, average, share and
//!   elapsed-time sources, app-owned cells) cover almost every subsystem
//!   need.
//! - **Registry** ([`registry::CounterRegistry`]): counter *types* register
//!   a factory + discovery function; *instances* are created and cached
//!   when names are resolved. Derived counters (`/arithmetics/*`,
//!   `/statistics/*`) combine other counters.
//! - **Resolved set** ([`query::ResolvedQuery`]): the one place a list of
//!   specs becomes live handles and stays current across topology changes;
//!   it only resolves.
//! - **Scrape engine** ([`engine::ScrapeEngine`], [`text`]): the one read
//!   path over a resolved set. A read takes the set into one column of
//!   samples at one stamp with no registry lock, backs a failing counter
//!   off and accounts its own cost; [`text::render`] writes a batch as a
//!   Prometheus exposition. `rpx-serve` serves it over the wire.
//! - **Active set**: `add_active` + [`registry::CounterRegistry::evaluate_active_counters`] /
//!   [`registry::CounterRegistry::reset_active_counters`] implement the
//!   paper's per-sample measurement protocol over a private engine; an
//!   evaluation is that engine's [`engine::Batch`], and a reset is its
//!   reset-read with the batch dropped.
//! - **Sampler & CLI** ([`sampler`], [`cli`]): a `TickLoop` over a private
//!   engine feeding CSV/JSON sinks, and the `--rpx:print-counter*`
//!   command-line options, whose shutdown print is one such read.
//!
//! ## Quick example
//!
//! ```
//! use std::sync::Arc;
//! use std::sync::atomic::{AtomicI64, Ordering};
//! use rpx_counters::registry::CounterRegistry;
//!
//! let registry = CounterRegistry::new();
//!
//! // A subsystem exposes its state…
//! let tasks = Arc::new(AtomicI64::new(0));
//! let t = tasks.clone();
//! registry.register_monotonic(
//!     "/threads/count/cumulative",
//!     "number of tasks executed",
//!     "1",
//!     Arc::new(move || t.load(Ordering::Relaxed)),
//! );
//!
//! // …the application measures one sample interval.
//! registry.add_active("/threads/count/cumulative").unwrap();
//! registry.reset_active_counters();
//! tasks.fetch_add(128, Ordering::Relaxed); // work happens here
//! let batch = registry.evaluate_active_counters(true);
//! assert_eq!(batch.samples()[0].value, 128.0);
//! ```

pub mod cli;
pub mod counter;
pub mod derived;
pub mod engine;
pub mod error;
pub mod histogram;
pub mod locality;
#[cfg(all(test, rpx_model))]
mod model_specs;
pub mod name;
mod prim;
pub mod query;
pub mod registry;
pub mod sampler;
pub mod statistics;
pub mod stats;
pub mod text;
pub mod value;

pub use counter::{Clock, ClockDrift, Counter};
pub use error::CounterError;
pub use locality::DistributedRegistry;
pub use name::{CounterInstance, CounterName, InstanceIndex, InstancePart};
pub use query::ResolvedQuery;
pub use registry::CounterRegistry;
pub use value::{CounterInfo, CounterKind, CounterStatus, CounterValue};
