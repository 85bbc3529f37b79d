//! The dependency-free telemetry listener: HTTP/1.1 text exposition and
//! binary stream subscribers on one TCP port, plus the publisher thread
//! that feeds history rings and subscribers at a fixed cadence.

use std::collections::HashSet;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use rpx_counters::sampler::TickLoop;
use rpx_counters::value::CounterKind;
use rpx_counters::{CounterError, CounterRegistry};
use rpx_runtime::Runtime;

use crate::engine::{ExportEntry, ScrapeEngine, ServeStats};
use crate::{proto, text};

/// Configuration of a telemetry server.
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (see [`Server::addr`]).
    pub addr: String,
    /// Publisher cadence feeding history rings and binary subscribers.
    pub interval: Duration,
    /// History-ring capacity per exported counter.
    pub history: usize,
    /// Payload-order shards (see [`ScrapeEngine::new`]).
    pub shards: usize,
    /// Counter specs to export (wildcards allowed).
    pub specs: Vec<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            interval: Duration::from_secs(1),
            history: 64,
            shards: 4,
            specs: Vec::new(),
        }
    }
}

struct Subscriber {
    stream: TcpStream,
    /// Dictionary ids already announced on this connection.
    known: HashSet<u32>,
}

struct Shared {
    engine: Arc<ScrapeEngine>,
    stats: Arc<ServeStats>,
    /// The publisher's tick loop; its stop flag also ends the accept loop.
    ticks: TickLoop,
    subscribers: Mutex<Vec<Subscriber>>,
    interval: Duration,
}

impl Shared {
    /// Publish one batch: feed history rings, then stream it to every
    /// subscriber. A subscriber whose socket errors or times out is
    /// disconnected and its undelivered frames are counted as dropped —
    /// a stalled consumer must not stall the publisher.
    fn publish_tick(&self) {
        let batch = self.engine.collect();
        let mut subs = self.subscribers.lock();
        if subs.is_empty() {
            return;
        }
        subs.retain_mut(|sub| {
            let mut frames = 0u64;
            let mut buf = Vec::new();
            for (entry, sample) in &batch {
                if sub.known.insert(entry.id) {
                    buf.extend_from_slice(&proto::encode(&dict_frame(entry)));
                    frames += 1;
                }
                buf.extend_from_slice(&proto::encode(&proto::Frame::Sample {
                    id: entry.id,
                    seq: sample.seq,
                    timestamp_ns: sample.timestamp_ns,
                    value: sample.value,
                    ok: sample.ok,
                }));
                frames += 1;
            }
            buf.extend_from_slice(&proto::encode(&proto::Frame::Stats {
                history_dropped: self.stats.history_dropped.load(Ordering::Relaxed),
                stream_dropped: self.stats.stream_dropped.load(Ordering::Relaxed),
            }));
            frames += 1;
            match sub.stream.write_all(&buf) {
                Ok(()) => {
                    self.stats
                        .bytes
                        .fetch_add(buf.len() as u64, Ordering::Relaxed);
                    true
                }
                Err(_) => {
                    // The whole tick is undelivered for this subscriber.
                    self.stats
                        .stream_dropped
                        .fetch_add(frames, Ordering::Relaxed);
                    false
                }
            }
        });
    }
}

/// A running telemetry server; [`shutdown`](Server::shutdown) (or drop)
/// stops it.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind, resolve the export specs, and start the accept + publisher
    /// threads.
    pub fn start(
        registry: &Arc<CounterRegistry>,
        config: ServeConfig,
    ) -> Result<Server, CounterError> {
        let engine = ScrapeEngine::new(registry, &config.specs, config.shards, config.history)?;
        let listener = TcpListener::bind(&config.addr)
            .and_then(|l| l.local_addr().map(|a| (l, a)))
            .map_err(|e| CounterError::SpawnFailed(format!("bind {}: {e}", config.addr)))?;
        let (listener, addr) = listener;
        listener
            .set_nonblocking(true)
            .map_err(|e| CounterError::SpawnFailed(format!("nonblocking listener: {e}")))?;
        let shared = Arc::new(Shared {
            stats: engine.stats(),
            engine,
            ticks: TickLoop::default(),
            subscribers: Mutex::new(Vec::new()),
            interval: config.interval,
        });

        let accept_shared = shared.clone();
        let accept = std::thread::Builder::new()
            .name("rpx-serve-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .map_err(|e| CounterError::SpawnFailed(format!("accept thread: {e}")))?;

        let publisher = shared.clone();
        let publisher = std::thread::Builder::new()
            .name("rpx-serve-publish".into())
            .spawn(move || {
                publisher
                    .ticks
                    .run(publisher.interval, || publisher.publish_tick())
            })
            .map_err(|e| CounterError::SpawnFailed(format!("publisher thread: {e}")))?;

        Ok(Server {
            addr,
            shared,
            threads: vec![accept, publisher],
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The scrape engine behind the endpoints.
    pub fn engine(&self) -> Arc<ScrapeEngine> {
        self.shared.engine.clone()
    }

    /// Self-measurement counters.
    pub fn stats(&self) -> Arc<ServeStats> {
        self.shared.stats.clone()
    }

    /// Force an immediate publish tick and block until one complete
    /// batch — started entirely after this call — reached the rings and
    /// subscribers. The quiesce-time final scrape.
    pub fn flush_now(&self) -> bool {
        self.shared.ticks.flush_now()
    }

    /// Stop the listener and publisher and join them.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.shared.ticks.stop();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // Final courtesy: close subscriber sockets.
        self.shared.subscribers.lock().clear();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// Wire a server to a runtime so quiescing flushes one final complete
/// scrape into the rings and streams before workers park — the remote
/// twin of the sampler's drain-hook flush.
pub fn attach_runtime(runtime: &Runtime, server: &Server) {
    let shared = server.shared.clone();
    runtime.add_drain_hook(move || {
        if !shared.ticks.stopped() {
            shared.ticks.flush_now();
        }
    });
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    while !shared.ticks.stopped() {
        match listener.accept() {
            Ok((stream, _)) => handle_connection(stream, &shared),
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let mut head = [0u8; 4];
    if stream.read_exact(&mut head).is_err() {
        return;
    }
    if head == proto::MAGIC {
        subscribe(stream, shared);
    } else {
        serve_http(stream, head, shared);
    }
}

/// Complete a binary hello, replay DICT + backfill, and enroll the
/// subscriber with the publisher.
fn subscribe(mut stream: TcpStream, shared: &Arc<Shared>) {
    let mut rest = [0u8; 5];
    if stream.read_exact(&mut rest).is_err() || rest[0] != proto::VERSION {
        return;
    }
    let backfill = u32::from_le_bytes(rest[1..5].try_into().unwrap()) as usize;
    shared.engine.refresh_if_stale();
    let mut known = HashSet::new();
    let mut buf = Vec::new();
    for entry in shared.engine.entries() {
        buf.extend_from_slice(&proto::encode(&dict_frame(&entry)));
        known.insert(entry.id);
        for s in entry.ring.tail(backfill) {
            buf.extend_from_slice(&proto::encode(&proto::Frame::Backfill {
                id: entry.id,
                seq: s.seq,
                timestamp_ns: s.timestamp_ns,
                value: s.value,
                ok: s.ok,
            }));
        }
    }
    if stream.write_all(&buf).is_err() {
        return;
    }
    shared
        .stats
        .bytes
        .fetch_add(buf.len() as u64, Ordering::Relaxed);
    shared.subscribers.lock().push(Subscriber { stream, known });
}

fn dict_frame(entry: &ExportEntry) -> proto::Frame {
    proto::Frame::Dict {
        id: entry.id,
        kind: kind_code(entry.info.kind),
        name: entry.canonical.clone(),
    }
}

fn kind_code(kind: CounterKind) -> u8 {
    match kind {
        CounterKind::Raw => 0,
        CounterKind::MonotonicallyIncreasing => 1,
        CounterKind::Average => 2,
        CounterKind::AggregateStatistics => 3,
        CounterKind::ElapsedTime => 4,
    }
}

/// Minimal HTTP/1.1: read the request head (the 4 sniffed bytes are its
/// start), answer `/metrics` with a fresh scrape and `/healthz` with a
/// liveness probe.
fn serve_http(mut stream: TcpStream, head: [u8; 4], shared: &Arc<Shared>) {
    let mut req = head.to_vec();
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
        let batch = shared.engine.collect();
        (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            text::render(&batch),
        )
    } else if path == "/healthz" {
        ("200 OK", "text/plain", "ok\n".to_string())
    } else {
        ("404 Not Found", "text/plain", "not found\n".to_string())
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    if stream.write_all(response.as_bytes()).is_ok() {
        shared
            .stats
            .bytes
            .fetch_add(response.len() as u64, Ordering::Relaxed);
    }
}
