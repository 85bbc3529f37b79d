//! # rpx-papi — the analytic cache model behind the bandwidth figures
//!
//! The paper reads Ivy Bridge off-core request counters through HPX's PAPI
//! component to estimate memory bandwidth. The reproduction reads no PMU,
//! so the node simulator (`rpx-simnode`) derives off-core requests
//! from each task's memory footprint with the cache model here (see
//! DESIGN.md §3) and applies the paper's `requests × 64 B / time`
//! bandwidth estimate. No `/papi/<EVENT>` counter is registered: a
//! hardware counter that cannot be read is absent, not a made-up number.
//!
//! - [`CacheModel`] and [`MemoryFootprint`] — a three-level hierarchy and
//!   a task's memory behaviour.
//! - [`estimate_offcore`] → [`OffcoreRequests`] — the off-core requests
//!   a footprint generates.
//! - [`bandwidth_gb_per_s`] — the paper's bandwidth estimate.

pub mod model;

pub use model::{
    bandwidth_gb_per_s, estimate_offcore, CacheModel, MemoryFootprint, OffcoreRequests, CACHE_LINE,
};
