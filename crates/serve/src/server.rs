//! The dependency-free telemetry listener: HTTP/1.1 text exposition on
//! one TCP port. Every scrape is pulled: `GET /metrics` collects and
//! renders one batch on the shared engine. The accept loop is a
//! [`TickLoop`] tick; it hands each connection to one of `HANDLERS`
//! threads, so a client that connects and sends nothing holds up no
//! other.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

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

/// Threads serving connections, and connections that may wait for one:
/// the accept loop waits on clients only when this many are being served
/// and as many more are queued.
const HANDLERS: usize = 8;

/// A running telemetry server; [`shutdown`](Server::shutdown) (or drop)
/// stops it.
pub struct Server {
    addr: SocketAddr,
    engine: Arc<ScrapeEngine>,
    accept: TickLoop,
    handlers: Vec<JoinHandle<()>>,
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

        let (to_handler, connections) = sync_channel::<TcpStream>(HANDLERS);
        let connections = Arc::new(Mutex::new(connections));
        let handlers = (0..HANDLERS)
            .map(|_| {
                let (connections, engine) = (connections.clone(), engine.clone());
                std::thread::Builder::new()
                    .name("rpx-serve-http".into())
                    .spawn(move || handle(&connections, &engine))
                    .map_err(|e| CounterError::SpawnFailed(format!("http handler: {e}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let accept = move |_| {
            while let Ok((stream, _)) = listener.accept() {
                // Fails only once every handler has returned: the
                // connection is then dropped, which closes it.
                let _ = to_handler.send(stream);
            }
            ACCEPT_INTERVAL
        };
        let accept = TickLoop::spawn("rpx-serve-accept", registry.clock(), Duration::ZERO, accept)?;

        Ok(Server {
            addr,
            engine,
            accept,
            handlers,
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

    /// Stop the listener and join it and the handlers (each first serves
    /// the connections it holds or that are queued, within their 2 s read
    /// and write timeouts).
    pub fn shutdown(self) {}
}

impl Drop for Server {
    fn drop(&mut self) {
        // The accept loop owns the channel's sender: once it is joined,
        // every idle handler's receive fails and the handler returns.
        self.accept.stop();
        for handler in self.handlers.drain(..) {
            let _ = handler.join();
        }
    }
}

/// A handler thread: serve the connections the accept loop hands over
/// until it stops.
fn handle(connections: &Mutex<Receiver<TcpStream>>, engine: &ScrapeEngine) {
    loop {
        let next = connections.lock().recv();
        match next {
            Ok(stream) => serve_http(stream, engine),
            Err(_) => return,
        }
    }
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
