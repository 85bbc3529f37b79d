//! # rpx-serve — wire-level live telemetry for rpx counters
//!
//! The paper's premise is that intrinsic counters are cheap enough to stay
//! on in production; this crate is the consumer that premise earns. It
//! exposes a running registry to *other processes* as a Prometheus-style
//! text exposition endpoint, without ever taking a registry lock on the
//! scrape path. Every scrape is pulled by a client; nothing is pushed.
//!
//! ## Architecture
//!
//! - [`engine::ScrapeEngine`] and [`text`], re-exported from
//!   `rpx-counters`, where the sampler reads through the same engine —
//!   the one periodic read path. Counter handles are resolved once per
//!   topology
//!   [generation](rpx_counters::CounterRegistry::generation), and each
//!   published handle list is laid out flat once: the entries in export
//!   order, the counters in resolution order with their export
//!   positions, and the text payload's plan (families in name order,
//!   every line head in one arena). A scrape evaluates those counters
//!   with no registry lock held into one sample column, an
//!   [`engine::Batch`]. [`text`] is the Prometheus text exposition (name
//!   mangling, label escaping, HELP/TYPE metadata) and its parser.
//! - [`server::Server`] — the dependency-free HTTP/1.1 + TCP listener:
//!   `GET /metrics` collects and renders one batch, `GET /healthz` is a
//!   liveness probe, and the engine measures itself
//!   (`/counters/serve/{scrape-time,scrape-count,bytes}`).
//! - [`proto`] — a length-prefixed binary SAMPLE frame, the compact
//!   encoding of one sample. No endpoint serves it.
//! - [`collect`] — `rpx-collect`'s library: scrape N endpoints, parse the
//!   exposition, merge into one CSV/JSON table keyed by (source, metric).
//!
//! ## Quick start
//!
//! ```no_run
//! use rpx_counters::CounterRegistry;
//! use rpx_serve::server::{ServeConfig, Server};
//!
//! let registry = CounterRegistry::new();
//! registry.register_raw("/app/requests", "requests served", "1",
//!     std::sync::Arc::new(|| 42));
//! let server = Server::start(
//!     &registry,
//!     ServeConfig {
//!         specs: vec!["/app/requests".into()],
//!         ..ServeConfig::default()
//!     },
//! )
//! .unwrap();
//! println!("scrape me at http://{}/metrics", server.addr());
//! ```

pub mod collect;
pub mod proto;
pub mod server;

pub use rpx_counters::{engine, text};

pub use engine::{Batch, ExportEntry, Sample, ScrapeEngine, ServeStats};
pub use server::{ServeConfig, Server};
