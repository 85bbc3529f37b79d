//! The dependency-free telemetry listener: HTTP/1.1 text exposition and
//! binary stream subscribers on one TCP port, plus the publisher that
//! feeds the engine's history and subscribers at a fixed cadence. Both are
//! [`TickLoop`] ticks.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
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
    /// Publisher cadence feeding the history and binary subscribers.
    pub interval: Duration,
    /// How many scrapes the engine's history keeps for backfill.
    pub history: usize,
    /// Counter specs to export (wildcards allowed).
    pub specs: Vec<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            interval: Duration::from_secs(1),
            history: 64,
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
    subscribers: Mutex<Vec<Subscriber>>,
}

impl Shared {
    /// Publish one batch: feed the history, then stream it to every
    /// subscriber. The scrape comes before the "no subscribers" return
    /// because the history it fills is the backfill a later subscriber
    /// gets. A subscriber whose socket errors or times out is
    /// disconnected and its undelivered frames are counted as dropped —
    /// a stalled consumer must not stall the publisher.
    fn publish_tick(&self) {
        let batch = self.engine.collect();
        let mut subs = self.subscribers.lock();
        if subs.is_empty() {
            return;
        }
        // The tick's SAMPLE + STATS block is the same for every
        // subscriber: encoded once, and charged to the cost of looking.
        let block = self.engine.charged(0, |_| {
            let mut block = Vec::with_capacity((batch.len() + 1) * proto::SAMPLE_FRAME_LEN);
            for (entry, sample) in &batch {
                let frame = proto::Frame::Sample {
                    id: entry.id,
                    seq: sample.seq,
                    timestamp_ns: sample.timestamp_ns,
                    value: sample.value,
                    ok: sample.ok,
                };
                proto::encode_into(&mut block, &frame);
            }
            let stats = proto::Frame::Stats {
                history_dropped: self.stats.history_dropped.load(Ordering::Relaxed),
                stream_dropped: self.stats.stream_dropped.load(Ordering::Relaxed),
            };
            proto::encode_into(&mut block, &stats);
            block
        });
        subs.retain_mut(|sub| {
            // What differs per subscriber: the DICT frames it still lacks,
            // sent ahead of the block.
            let mut frames = batch.len() as u64 + 1;
            let mut dicts = Vec::new();
            for (entry, _) in &batch {
                if sub.known.insert(entry.id) {
                    proto::encode_into(&mut dicts, &dict_frame(entry));
                    frames += 1;
                }
            }
            let sent = sub
                .stream
                .write_all(&dicts)
                .and_then(|()| sub.stream.write_all(&block));
            match sent {
                Ok(()) => {
                    self.stats
                        .bytes
                        .fetch_add((dicts.len() + block.len()) as u64, Ordering::Relaxed);
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

/// Payload-order shards of the server's engine (see [`ScrapeEngine::new`]).
const PAYLOAD_SHARDS: usize = 4;

/// How often the listener is polled for new connections.
const ACCEPT_INTERVAL: Duration = Duration::from_millis(5);

/// A running telemetry server; [`shutdown`](Server::shutdown) (or drop)
/// stops it.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    // Dropped in this order: stop accepting, then stop publishing; the
    // subscriber sockets close with the last `Shared` reference.
    _accept: TickLoop,
    publisher: Arc<TickLoop>,
}

impl Server {
    /// Bind, resolve the export specs, and start the accept + publisher
    /// threads.
    pub fn start(
        registry: &Arc<CounterRegistry>,
        config: ServeConfig,
    ) -> Result<Server, CounterError> {
        let engine = ScrapeEngine::new(registry, &config.specs, PAYLOAD_SHARDS, config.history)?;
        let (listener, addr) = TcpListener::bind(&config.addr)
            .and_then(|l| l.local_addr().map(|a| (l, a)))
            .map_err(|e| CounterError::SpawnFailed(format!("bind {}: {e}", config.addr)))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| CounterError::SpawnFailed(format!("nonblocking listener: {e}")))?;
        let shared = Arc::new(Shared {
            stats: engine.stats(),
            engine,
            subscribers: Mutex::new(Vec::new()),
        });

        let s = shared.clone();
        let interval = config.interval;
        let publish = move |_| {
            s.publish_tick();
            interval
        };
        let publisher = TickLoop::spawn(
            "rpx-serve-publish",
            registry.clock(),
            Duration::ZERO,
            publish,
        )?;

        let s = shared.clone();
        let accept = move |_| {
            while let Ok((stream, _)) = listener.accept() {
                handle_connection(stream, &s);
            }
            ACCEPT_INTERVAL
        };
        let accept = TickLoop::spawn("rpx-serve-accept", registry.clock(), Duration::ZERO, accept)?;

        Ok(Server {
            addr,
            shared,
            _accept: accept,
            publisher: Arc::new(publisher),
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
    /// batch — started entirely after this call — reached the history and
    /// subscribers. The quiesce-time final scrape.
    pub fn flush_now(&self) -> bool {
        self.publisher.flush_now()
    }

    /// Stop the listener and publisher and join them.
    pub fn shutdown(self) {}
}

/// Wire a server to a runtime so quiescing flushes one final complete
/// scrape into the history and streams before workers park — the remote
/// twin of the sampler's drain-hook flush.
pub fn attach_runtime(runtime: &Runtime, server: &Server) {
    // Weak: the hook outlives the server, and must not keep its publisher
    // running.
    let publisher = Arc::downgrade(&server.publisher);
    runtime.add_drain_hook(move || {
        if let Some(publisher) = publisher.upgrade() {
            publisher.flush_now();
        }
    });
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
/// subscriber with the publisher. The subscriber list stays locked from
/// before the history is read until the subscriber is on it: the
/// publisher streams a tick under the same lock, so every tick is either
/// already in the history read here or streamed to this subscriber live —
/// none falls between backfill and stream.
fn subscribe(mut stream: TcpStream, shared: &Arc<Shared>) {
    let mut rest = [0u8; 5];
    if stream.read_exact(&mut rest).is_err() || rest[0] != proto::VERSION {
        return;
    }
    let backfill = u32::from_le_bytes(rest[1..5].try_into().unwrap()) as usize;
    shared.engine.refresh_if_stale();
    let mut subscribers = shared.subscribers.lock();
    let mut known = HashSet::new();
    let mut buf = Vec::new();
    for entry in shared.engine.entries() {
        proto::encode_into(&mut buf, &dict_frame(&entry));
        known.insert(entry.id);
        for s in shared.engine.tail(entry.id, backfill) {
            let frame = proto::Frame::Backfill {
                id: entry.id,
                seq: s.seq,
                timestamp_ns: s.timestamp_ns,
                value: s.value,
                ok: s.ok,
            };
            proto::encode_into(&mut buf, &frame);
        }
    }
    if stream.write_all(&buf).is_err() {
        return;
    }
    shared
        .stats
        .bytes
        .fetch_add(buf.len() as u64, Ordering::Relaxed);
    subscribers.push(Subscriber { stream, known });
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
        // Rendering is part of what this endpoint costs the process.
        let body = shared.engine.charged(0, |_| text::render(&batch));
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
        shared
            .stats
            .bytes
            .fetch_add((header.len() + body.len()) as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shutdown_does_not_wait_out_the_publish_interval() {
        let registry = CounterRegistry::new();
        registry.register_raw("/app/v", "h", "1", Arc::new(|| 1));
        let config = ServeConfig {
            interval: Duration::from_secs(60),
            specs: vec!["/app/v".into()],
            ..ServeConfig::default()
        };
        let server = Server::start(&registry, config).unwrap();
        assert!(server.flush_now(), "the publisher is up");
        let t0 = std::time::Instant::now();
        server.shutdown();
        let shutdown = t0.elapsed();
        assert!(
            shutdown < Duration::from_millis(50),
            "shutdown waited {shutdown:?}"
        );
    }
}
