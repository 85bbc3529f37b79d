//! The dependency-free telemetry listener: HTTP/1.1 text exposition on
//! one TCP port. Every scrape is pulled: `GET /metrics` collects and
//! renders one batch on the shared engine. The accept loop is a
//! [`TickLoop`] tick.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use rpx_counters::sampler::TickLoop;
use rpx_counters::{CounterError, CounterRegistry};

use crate::engine::ScrapeEngine;
use crate::text;

/// Configuration of a telemetry server.
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (see [`Server::addr`]).
    pub addr: String,
    /// Counter specs to export (wildcards allowed).
    pub specs: Vec<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            specs: Vec::new(),
        }
    }
}

/// Payload-order shards of the server's engine (see [`ScrapeEngine::new`]).
const PAYLOAD_SHARDS: usize = 4;

/// How often the listener is polled for new connections.
const ACCEPT_INTERVAL: Duration = Duration::from_millis(5);

/// A running telemetry server; [`shutdown`](Server::shutdown) (or drop)
/// stops it.
pub struct Server {
    addr: SocketAddr,
    engine: Arc<ScrapeEngine>,
    _accept: TickLoop,
}

impl Server {
    /// Bind, resolve the export specs, and start the accept thread.
    pub fn start(
        registry: &Arc<CounterRegistry>,
        config: ServeConfig,
    ) -> Result<Server, CounterError> {
        let engine = ScrapeEngine::new(registry, &config.specs, PAYLOAD_SHARDS, 0)?;
        let (listener, addr) = TcpListener::bind(&config.addr)
            .and_then(|l| l.local_addr().map(|a| (l, a)))
            .map_err(|e| CounterError::SpawnFailed(format!("bind {}: {e}", config.addr)))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| CounterError::SpawnFailed(format!("nonblocking listener: {e}")))?;

        let e = engine.clone();
        let accept = move |_| {
            while let Ok((stream, _)) = listener.accept() {
                serve_http(stream, &e);
            }
            ACCEPT_INTERVAL
        };
        let accept = TickLoop::spawn("rpx-serve-accept", registry.clock(), Duration::ZERO, accept)?;

        Ok(Server {
            addr,
            engine,
            _accept: accept,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The scrape engine behind the endpoints.
    pub fn engine(&self) -> Arc<ScrapeEngine> {
        self.engine.clone()
    }

    /// Stop the listener and join it.
    pub fn shutdown(self) {}
}

/// Minimal HTTP/1.1: read the request head, answer `/metrics` with a
/// fresh scrape and `/healthz` with a liveness probe.
fn serve_http(mut stream: TcpStream, engine: &ScrapeEngine) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let mut req = Vec::new();
    let mut chunk = [0u8; 1024];
    while !req.windows(4).any(|w| w == b"\r\n\r\n") && req.len() < 16 * 1024 {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => req.extend_from_slice(&chunk[..n]),
            Err(_) => return,
        }
    }
    let request_line = match std::str::from_utf8(&req)
        .ok()
        .and_then(|s| s.lines().next())
    {
        Some(l) => l.to_string(),
        None => return,
    };
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain",
            "method not allowed\n".to_string(),
        )
    } else if path == "/metrics" || path.starts_with("/metrics?") {
        let batch = engine.collect();
        // Rendering is part of what this endpoint costs the process.
        let body = engine.charged(0, |_| text::render(&batch));
        ("200 OK", "text/plain; version=0.0.4; charset=utf-8", body)
    } else if path == "/healthz" {
        ("200 OK", "text/plain", "ok\n".to_string())
    } else {
        ("404 Not Found", "text/plain", "not found\n".to_string())
    };
    // Header and body go out as they are: no second copy of the payload.
    let header = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let sent = stream
        .write_all(header.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()));
    if sent.is_ok() {
        engine
            .stats()
            .bytes
            .fetch_add((header.len() + body.len()) as u64, Ordering::Relaxed);
    }
}
