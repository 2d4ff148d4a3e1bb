//! Std-only HTTP/1.1 network front-end over the [`Tenants`] registry.
//!
//! This module is the wire boundary of the serving runtime: a
//! [`std::net::TcpListener`] accept loop feeding a **bounded
//! connection-worker pool**, minimal HTTP/1.1 request parsing, and a
//! typed mapping from [`ServeError`] onto 4xx/5xx status codes. It adds
//! no protocol machinery beyond what a load test or a `curl` caller
//! needs — no TLS, no chunked bodies (`501`), no HTTP/2 — and depends on
//! nothing outside `std` and the workspace's own `urcl-json`.
//!
//! ## Protocol surface (DESIGN.md §15)
//!
//! | Route | Replies |
//! |---|---|
//! | `POST /v1/tenants/{name}/forecast` | `200` forecast, or a mapped [`ServeError`] |
//! | `GET /v1/tenants` | `200` registered tenant names |
//! | `GET /v1/healthz` | `200` liveness + tenant count |
//!
//! The forecast request body is JSON: `{"window": [[[..]..]..]}` — an
//! `[M][N][C]` nested array in physical units, exactly the tensor
//! [`crate::TenantClient::submit`] takes. The response carries the
//! `[H][N]` denormalized prediction and the snapshot generation that
//! served it:
//!
//! ```text
//! POST /v1/tenants/metr-la/forecast HTTP/1.1
//! Content-Type: application/json
//! Content-Length: ...
//!
//! {"window": [[[61.2, 120.0], ...], ...]}
//!
//! HTTP/1.1 200 OK
//! Content-Type: application/json
//! Content-Length: ...
//!
//! {"generation": 3, "prediction": [[59.81, 60.02, ...]]}
//! ```
//!
//! ## Status mapping
//!
//! Typed serving errors map onto status codes without losing their
//! meaning — the JSON error body carries a stable `"kind"` string:
//!
//! * [`ServeError::Shed`] → `503` with `Retry-After: 1` (admission
//!   control rejected the request; the body names the tenant and depth),
//! * [`ServeError::UnknownTenant`] → `404`,
//! * [`ServeError::BadRequest`] → `400`,
//! * [`ServeError::NoSnapshot`] / [`ServeError::ShuttingDown`] → `503`,
//! * malformed request line/headers/JSON → `400`, unknown route → `404`,
//!   wrong method → `405` (+ `Allow`), missing `Content-Length` → `411`,
//!   oversized body → `413`, oversized head → `431`, chunked bodies →
//!   `501`, slow requests → `408` after [`HttpConfig::read_timeout`].
//!
//! ## Keep-alive, timeouts, drain
//!
//! Connections are HTTP/1.1 persistent by default (`Connection: close`
//! honored, pipelined requests served back-to-back from the read
//! buffer). Each worker owns one connection at a time, so
//! [`HttpConfig::workers`] bounds concurrent connections and
//! [`HttpConfig::pending_connections`] bounds accepted-but-unserved
//! ones; beyond that the accept loop answers a canned `503` and closes.
//! A request must arrive in full within [`HttpConfig::read_timeout`] of
//! its first byte (slowloris guard → `408`); an idle keep-alive
//! connection that stays silent for the same timeout is closed quietly.
//!
//! Accepted connections wait in the same bounded queue type as a
//! tenant's requests (`queue.rs`), handed out one at a time, so
//! [`HttpServer::shutdown`] (also run on drop) drains gracefully under
//! the same flag-inside-the-mutex protocol: the drain flag flips under
//! the connection-queue lock, the accept loop stops admitting, idle
//! connections close at the next tick, and any request whose bytes
//! already started arriving is parsed, served with `Connection: close`,
//! then closed — so in-flight work completes and the drain finishes
//! within a small multiple of one forward pass.
//!
//! Everything is traced: `serve.http.accepted/requests/parse_errors/...`
//! counters and the `serve.http.latency_seconds` histogram land in the
//! `urcl-trace-v1` snapshot next to the tenant metrics.

use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use urcl_json::Value;
use urcl_tensor::Tensor;

use crate::queue::{BoundedQueue, Rejected};
use crate::server::{BatchPolicy, PendingForecast, ServeError};
use crate::tenant::Tenants;

/// How often blocked reads wake to re-check the drain flag; bounds how
/// stale a shutdown observation can be.
const DRAIN_TICK: Duration = Duration::from_millis(50);

/// Network front-end configuration.
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Address to bind, e.g. `"127.0.0.1:0"` for an ephemeral port (the
    /// default; read the real one back via [`HttpServer::local_addr`]).
    pub addr: String,
    /// Connection-worker pool size. Each worker serves one connection at
    /// a time, so this bounds concurrent (keep-alive) connections.
    pub workers: usize,
    /// Bound on accepted connections waiting for a free worker; beyond
    /// it the accept loop answers `503` and closes immediately.
    pub pending_connections: usize,
    /// Largest accepted request body; larger `Content-Length`s get `413`.
    pub max_body_bytes: usize,
    /// Largest accepted request head (request line + headers); `431`
    /// beyond it.
    pub max_header_bytes: usize,
    /// A request must arrive in full within this much of its first byte
    /// (`408` otherwise — the slowloris guard); an idle keep-alive
    /// connection silent for this long is closed quietly.
    pub read_timeout: Duration,
}

impl Default for HttpConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 16,
            pending_connections: 64,
            max_body_bytes: 4 << 20,
            max_header_bytes: 8192,
            read_timeout: Duration::from_secs(10),
        }
    }
}

/// Point-in-time front-end counters (all atomic reads).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HttpStats {
    /// Connections accepted into the worker pool.
    pub accepted: u64,
    /// Connections rejected with a canned `503` because the pending
    /// queue was full.
    pub rejected: u64,
    /// Requests fully parsed off the wire.
    pub requests: u64,
    /// Responses with 2xx status.
    pub responses_2xx: u64,
    /// Responses with 4xx status.
    pub responses_4xx: u64,
    /// Responses with 5xx status.
    pub responses_5xx: u64,
    /// Malformed request lines, headers, or JSON bodies.
    pub parse_errors: u64,
    /// Requests that ran out the read deadline mid-transfer (`408`).
    pub timeouts: u64,
    /// Failed response writes (client went away mid-response).
    pub write_errors: u64,
    /// `accept(2)` failures (transient; the loop keeps going).
    pub accept_errors: u64,
}

#[derive(Default)]
struct HttpCounters {
    accepted: AtomicU64,
    rejected: AtomicU64,
    requests: AtomicU64,
    responses_2xx: AtomicU64,
    responses_4xx: AtomicU64,
    responses_5xx: AtomicU64,
    parse_errors: AtomicU64,
    timeouts: AtomicU64,
    write_errors: AtomicU64,
    accept_errors: AtomicU64,
}

struct HttpShared {
    tenants: Arc<Tenants>,
    config: HttpConfig,
    /// Accepted connections waiting for a worker, handed out one at a
    /// time.
    conns: BoundedQueue<TcpStream>,
    stop_accept: AtomicBool,
    stats: HttpCounters,
}

/// The running HTTP front-end: an accept thread plus a bounded worker
/// pool serving [`Tenants`] over the wire. Dropping it (or calling
/// [`HttpServer::shutdown`]) drains gracefully.
pub struct HttpServer {
    shared: Arc<HttpShared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds the listener and starts the accept loop and worker pool.
    /// With the default `addr` of `"127.0.0.1:0"` the OS picks an
    /// ephemeral port — read it back with [`HttpServer::local_addr`].
    pub fn bind(tenants: Arc<Tenants>, config: HttpConfig) -> std::io::Result<Self> {
        assert!(config.workers > 0, "workers must be positive");
        assert!(
            config.pending_connections > 0,
            "pending_connections must be positive"
        );
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let one_at_a_time = BatchPolicy {
            max_batch: 1,
            max_delay: Duration::ZERO,
        };
        let shared = Arc::new(HttpShared {
            conns: BoundedQueue::new(config.pending_connections, one_at_a_time),
            tenants,
            config,
            stop_accept: AtomicBool::new(false),
            stats: HttpCounters::default(),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("urcl-http-accept".to_string())
                .spawn(move || accept_loop(&shared, listener))
                .expect("spawn http accept thread")
        };
        let workers = (0..shared.config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("urcl-http-w{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn http worker")
            })
            .collect();
        Ok(Self {
            shared,
            addr,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (with the real port when `addr` asked for an
    /// ephemeral one).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Point-in-time front-end counters.
    pub fn stats(&self) -> HttpStats {
        let s = &self.shared.stats;
        HttpStats {
            accepted: s.accepted.load(Ordering::Relaxed),
            rejected: s.rejected.load(Ordering::Relaxed),
            requests: s.requests.load(Ordering::Relaxed),
            responses_2xx: s.responses_2xx.load(Ordering::Relaxed),
            responses_4xx: s.responses_4xx.load(Ordering::Relaxed),
            responses_5xx: s.responses_5xx.load(Ordering::Relaxed),
            parse_errors: s.parse_errors.load(Ordering::Relaxed),
            timeouts: s.timeouts.load(Ordering::Relaxed),
            write_errors: s.write_errors.load(Ordering::Relaxed),
            accept_errors: s.accept_errors.load(Ordering::Relaxed),
        }
    }

    /// Graceful drain (idempotent; also runs on drop): stop accepting,
    /// close idle connections at the next tick, finish any request whose
    /// bytes already started arriving (answered with `Connection:
    /// close`), then join every thread.
    pub fn shutdown(&mut self) {
        self.shared.conns.drain();
        self.shared.stop_accept.store(true, Ordering::Release);
        // A blocking accept(2) only returns on a connection: poke it.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(shared: &HttpShared, listener: TcpListener) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) if shared.stop_accept.load(Ordering::Acquire) => return,
            Err(_) => {
                shared.stats.accept_errors.fetch_add(1, Ordering::Relaxed);
                if urcl_trace::enabled() {
                    urcl_trace::counter_inc("serve.http.accept_errors");
                }
                continue;
            }
        };
        if shared.stop_accept.load(Ordering::Acquire) {
            // The shutdown poke (or a late real client); either way the
            // front door is closed.
            return;
        }
        match shared.conns.push(stream) {
            Ok(_) => {
                shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
                if urcl_trace::enabled() {
                    urcl_trace::counter_inc("serve.http.accepted");
                }
            }
            // Late arrival during drain: closed unanswered, like a
            // listener that is already gone.
            Err(Rejected::Draining(_)) => {}
            Err(Rejected::Full(mut stream, _)) => {
                shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                if urcl_trace::enabled() {
                    urcl_trace::counter_inc("serve.http.rejected_connections");
                }
                // Best-effort canned 503 with a bounded write; the accept
                // loop must never stall on a slow client.
                let _ = stream.set_write_timeout(Some(DRAIN_TICK));
                let _ = stream.write_all(
                    b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\
                      Connection: close\r\nRetry-After: 1\r\n\r\n",
                );
            }
        }
    }
}

fn worker_loop(shared: &HttpShared) {
    while let Some((conns, _)) = shared.conns.next_batch() {
        for (_, stream) in conns {
            handle_connection(shared, stream);
        }
    }
}

// ---------------------------------------------------------------- parsing

/// One parsed request. `close` folds in the client's `Connection`
/// preference and the HTTP version default.
struct Request {
    method: String,
    path: String,
    close: bool,
    body: Vec<u8>,
}

/// A request that could not be read: either a protocol error to answer
/// (and then close), or a silent close (clean EOF / idle timeout /
/// drain while idle).
enum ReadOutcome {
    Ok(Request),
    /// Answer with this response, then close the connection.
    Fail(Response),
    /// Close without writing anything.
    Close,
}

/// Reads one request from `stream`, carrying pipelined leftovers across
/// calls in `buf`. All waiting is tick-based so the drain flag is
/// observed within [`DRAIN_TICK`] even mid-transfer.
fn read_request(shared: &HttpShared, stream: &mut TcpStream, buf: &mut Vec<u8>) -> ReadOutcome {
    let mut deadline: Option<Instant> = if buf.is_empty() {
        None // idle: the clock starts at the first byte
    } else {
        Some(Instant::now() + shared.config.read_timeout)
    };
    let idle_close = Instant::now() + shared.config.read_timeout;

    // Phase 1: the head, up to the blank line.
    let head_len = loop {
        if let Some(pos) = find_head_end(buf) {
            if pos > shared.config.max_header_bytes {
                return ReadOutcome::Fail(Response::error(
                    431,
                    "request_header_fields_too_large",
                    "request head exceeds the configured limit",
                ));
            }
            break pos;
        }
        if buf.len() > shared.config.max_header_bytes {
            return ReadOutcome::Fail(Response::error(
                431,
                "request_header_fields_too_large",
                "request head exceeds the configured limit",
            ));
        }
        match read_chunk(stream, buf) {
            ReadChunk::Data => {
                deadline.get_or_insert(Instant::now() + shared.config.read_timeout);
            }
            ReadChunk::Eof => {
                return if buf.is_empty() {
                    ReadOutcome::Close // clean keep-alive close
                } else {
                    ReadOutcome::Fail(Response::error(
                        400,
                        "truncated_request",
                        "connection closed mid-request",
                    ))
                };
            }
            ReadChunk::Tick => {
                if buf.is_empty() {
                    // Idle keep-alive connection: close quietly on drain
                    // or after the idle timeout.
                    if shared.conns.is_draining() || Instant::now() >= idle_close {
                        return ReadOutcome::Close;
                    }
                } else if deadline.is_some_and(|d| Instant::now() >= d) {
                    shared.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                    if urcl_trace::enabled() {
                        urcl_trace::counter_inc("serve.http.timeouts");
                    }
                    return ReadOutcome::Fail(Response::error(
                        408,
                        "request_timeout",
                        "request did not arrive within the read timeout",
                    ));
                }
            }
            ReadChunk::Err => return ReadOutcome::Close,
        }
    };

    // Phase 2: parse the head into owned values (the buffer is mutated
    // again below, so nothing may keep borrowing it).
    let (method, path, connection_close, expect_continue, content_length) = {
        let head = match std::str::from_utf8(&buf[..head_len]) {
            Ok(head) => head,
            Err(_) => {
                return ReadOutcome::Fail(Response::error(
                    400,
                    "bad_request",
                    "request head is not valid UTF-8",
                ))
            }
        };
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or("");
        let mut parts = request_line.split(' ');
        let (method, target, version) =
            match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
                _ => {
                    return ReadOutcome::Fail(Response::error(
                        400,
                        "bad_request",
                        "malformed request line",
                    ))
                }
            };
        if version != "HTTP/1.1" && version != "HTTP/1.0" {
            return ReadOutcome::Fail(Response::error(
                505,
                "http_version_not_supported",
                "only HTTP/1.0 and HTTP/1.1 are supported",
            ));
        }
        let mut content_length: Option<usize> = None;
        let mut connection_close = version == "HTTP/1.0";
        let mut expect_continue = false;
        for line in lines {
            if line.is_empty() {
                continue; // the terminating blank line
            }
            let Some((name, value)) = line.split_once(':') else {
                return ReadOutcome::Fail(Response::error(
                    400,
                    "bad_request",
                    "malformed header line",
                ));
            };
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim();
            match name.as_str() {
                "content-length" => match value.parse::<usize>() {
                    Ok(len) => content_length = Some(len),
                    Err(_) => {
                        return ReadOutcome::Fail(Response::error(
                            400,
                            "bad_request",
                            "unparseable Content-Length",
                        ))
                    }
                },
                "transfer-encoding" => {
                    return ReadOutcome::Fail(Response::error(
                        501,
                        "not_implemented",
                        "chunked transfer encoding is not supported",
                    ))
                }
                "connection" => {
                    let v = value.to_ascii_lowercase();
                    if v.contains("close") {
                        connection_close = true;
                    } else if v.contains("keep-alive") {
                        connection_close = false;
                    }
                }
                "expect" => expect_continue = value.eq_ignore_ascii_case("100-continue"),
                _ => {}
            }
        }
        let path = target.split('?').next().unwrap_or(target).to_string();
        (
            method.to_string(),
            path,
            connection_close,
            expect_continue,
            content_length,
        )
    };
    let body_len = match content_length {
        Some(len) => len,
        None if method == "POST" || method == "PUT" => {
            return ReadOutcome::Fail(Response::error(
                411,
                "length_required",
                "POST requires Content-Length (chunked bodies are not supported)",
            ))
        }
        None => 0,
    };
    if body_len > shared.config.max_body_bytes {
        return ReadOutcome::Fail(Response::error(
            413,
            "payload_too_large",
            "request body exceeds the configured limit",
        ));
    }
    if expect_continue && body_len > buf.len() - head_len {
        // The client is holding the body back until we commit.
        if stream.write_all(b"HTTP/1.1 100 Continue\r\n\r\n").is_err() {
            return ReadOutcome::Close;
        }
    }

    // Phase 3: the body (whatever of it is not already buffered).
    let deadline = deadline.unwrap_or_else(|| Instant::now() + shared.config.read_timeout);
    while buf.len() < head_len + body_len {
        match read_chunk(stream, buf) {
            ReadChunk::Data => {}
            ReadChunk::Eof => {
                return ReadOutcome::Fail(Response::error(
                    400,
                    "truncated_request",
                    "connection closed mid-body",
                ))
            }
            ReadChunk::Tick => {
                if Instant::now() >= deadline {
                    shared.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                    if urcl_trace::enabled() {
                        urcl_trace::counter_inc("serve.http.timeouts");
                    }
                    return ReadOutcome::Fail(Response::error(
                        408,
                        "request_timeout",
                        "request body did not arrive within the read timeout",
                    ));
                }
            }
            ReadChunk::Err => return ReadOutcome::Close,
        }
    }
    let body = buf[head_len..head_len + body_len].to_vec();
    // Keep pipelined bytes of the next request.
    buf.drain(..head_len + body_len);
    ReadOutcome::Ok(Request {
        method,
        path,
        close: connection_close,
        body,
    })
}

/// Byte offset just past the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

enum ReadChunk {
    Data,
    Eof,
    Tick,
    Err,
}

/// One tick-bounded read (the connection's read timeout is
/// [`DRAIN_TICK`]): appends whatever arrived within it.
fn read_chunk(stream: &mut TcpStream, buf: &mut Vec<u8>) -> ReadChunk {
    let mut chunk = [0u8; 4096];
    match stream.read(&mut chunk) {
        Ok(0) => ReadChunk::Eof,
        Ok(n) => {
            buf.extend_from_slice(&chunk[..n]);
            ReadChunk::Data
        }
        Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
            ReadChunk::Tick
        }
        Err(e) if e.kind() == ErrorKind::Interrupted => ReadChunk::Tick,
        Err(_) => ReadChunk::Err,
    }
}

// --------------------------------------------------------------- responses

struct Response {
    status: u16,
    body: String,
    /// `Allow` header for 405s.
    allow: Option<&'static str>,
    /// Adds `Retry-After: 1` (shed responses, so well-behaved clients
    /// back off instead of hammering the admission bound).
    retry_after: bool,
}

impl Response {
    fn json(status: u16, body: Value) -> Self {
        Self {
            status,
            body: body.to_string_compact(),
            allow: None,
            retry_after: false,
        }
    }

    /// A JSON error body with a stable machine-readable `kind`.
    fn error(status: u16, kind: &str, message: &str) -> Self {
        Self::json(
            status,
            Value::object().with("kind", kind).with("error", message),
        )
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

fn write_response(
    shared: &HttpShared,
    stream: &mut TcpStream,
    resp: &Response,
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n",
        resp.status,
        reason(resp.status),
        resp.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    if let Some(allow) = resp.allow {
        head.push_str("Allow: ");
        head.push_str(allow);
        head.push_str("\r\n");
    }
    if resp.retry_after {
        head.push_str("Retry-After: 1\r\n");
    }
    head.push_str("\r\n");
    let class = match resp.status {
        200..=299 => &shared.stats.responses_2xx,
        400..=499 => &shared.stats.responses_4xx,
        _ => &shared.stats.responses_5xx,
    };
    class.fetch_add(1, Ordering::Relaxed);
    if urcl_trace::enabled() {
        urcl_trace::counter_inc(&format!("serve.http.responses.{}", resp.status));
    }
    // Head and body leave in one write, so the client never wakes on a
    // head whose body is still in the server.
    let mut parts = [
        IoSlice::new(head.as_bytes()),
        IoSlice::new(resp.body.as_bytes()),
    ];
    let mut parts = &mut parts[..];
    while !parts.is_empty() {
        match stream.write_vectored(parts) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

// ---------------------------------------------------------------- handling

fn handle_connection(shared: &HttpShared, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    // Reads wake every tick to observe the drain flag; a response write
    // to a client that stopped reading gives up after the read timeout.
    let _ = stream.set_read_timeout(Some(DRAIN_TICK));
    let _ = stream.set_write_timeout(Some(shared.config.read_timeout));
    let mut buf = Vec::new();
    loop {
        let request = match read_request(shared, &mut stream, &mut buf) {
            ReadOutcome::Ok(request) => request,
            ReadOutcome::Fail(resp) => {
                if matches!(resp.status, 400 | 431 | 505) {
                    shared.stats.parse_errors.fetch_add(1, Ordering::Relaxed);
                    if urcl_trace::enabled() {
                        urcl_trace::counter_inc("serve.http.parse_errors");
                    }
                }
                let _ = write_response(shared, &mut stream, &resp, false);
                return;
            }
            ReadOutcome::Close => return,
        };
        shared.stats.requests.fetch_add(1, Ordering::Relaxed);
        let traced = urcl_trace::enabled();
        if traced {
            urcl_trace::counter_inc("serve.http.requests");
        }
        let t0 = Instant::now();
        let resp = dispatch(shared, &request);
        if traced {
            urcl_trace::histogram_record("serve.http.latency_seconds", t0.elapsed().as_secs_f64());
        }
        // Drain observed after compute: the answer still goes out, with
        // `Connection: close` so the client re-connects elsewhere.
        let keep_alive = !request.close && !shared.conns.is_draining();
        if write_response(shared, &mut stream, &resp, keep_alive).is_err() {
            // The client went away mid-response (kill -9, reset, …). The
            // forecast was already computed and the tenant moved on; this
            // worker just drops the connection and serves the next one.
            shared.stats.write_errors.fetch_add(1, Ordering::Relaxed);
            if traced {
                urcl_trace::counter_inc("serve.http.write_errors");
            }
            return;
        }
        if !keep_alive {
            return;
        }
    }
}

fn dispatch(shared: &HttpShared, request: &Request) -> Response {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match segments.as_slice() {
        ["v1", "healthz"] => match request.method.as_str() {
            "GET" | "HEAD" => Response::json(
                200,
                Value::object()
                    .with("ok", true)
                    .with("tenants", shared.tenants.len() as u64),
            ),
            _ => method_not_allowed("GET"),
        },
        ["v1", "tenants"] => match request.method.as_str() {
            "GET" => {
                let names = shared.tenants.names().into_iter().map(Value::Str).collect();
                Response::json(200, Value::object().with("tenants", Value::Array(names)))
            }
            _ => method_not_allowed("GET"),
        },
        ["v1", "tenants", name, "forecast"] => match request.method.as_str() {
            "POST" => forecast(shared, name, &request.body),
            _ => method_not_allowed("POST"),
        },
        _ => Response::error(404, "unknown_route", "no such route"),
    }
}

fn method_not_allowed(allow: &'static str) -> Response {
    let mut resp = Response::error(405, "method_not_allowed", "wrong method for this route");
    resp.allow = Some(allow);
    resp
}

fn forecast(shared: &HttpShared, tenant: &str, body: &[u8]) -> Response {
    let client = match shared.tenants.client(tenant) {
        Ok(client) => client,
        Err(e) => return serve_error(&e),
    };
    let text = match std::str::from_utf8(body) {
        Ok(text) => text,
        Err(_) => return json_parse_error(shared, "request body is not valid UTF-8".to_string()),
    };
    let doc = match Value::parse(text) {
        Ok(doc) => doc,
        Err(e) => return json_parse_error(shared, e.to_string()),
    };
    let window = match doc.get("window") {
        Some(window) => match window_from_json(window) {
            Ok(window) => window,
            Err(msg) => return Response::error(400, "bad_window", &msg),
        },
        None => return Response::error(400, "bad_window", "body must carry a \"window\" key"),
    };
    match client.submit(window).and_then(PendingForecast::wait) {
        Ok(forecast) => {
            let shape = forecast.prediction.shape();
            let (h, n) = (shape[0], shape[1]);
            let data = forecast.prediction.data();
            let rows = (0..h)
                .map(|i| urcl_json::f32_array(&data[i * n..(i + 1) * n]))
                .collect();
            Response::json(
                200,
                Value::object()
                    .with("generation", forecast.generation)
                    .with("prediction", Value::Array(rows)),
            )
        }
        Err(e) => serve_error(&e),
    }
}

fn json_parse_error(shared: &HttpShared, msg: String) -> Response {
    shared.stats.parse_errors.fetch_add(1, Ordering::Relaxed);
    if urcl_trace::enabled() {
        urcl_trace::counter_inc("serve.http.parse_errors");
    }
    Response::error(400, "bad_json", &msg)
}

/// The typed 4xx/5xx mapping of [`ServeError`]; the module docs table is
/// generated from exactly this match.
fn serve_error(e: &ServeError) -> Response {
    let (status, kind) = match e {
        ServeError::BadRequest(_) => (400, "bad_request"),
        ServeError::UnknownTenant(_) => (404, "unknown_tenant"),
        ServeError::TenantExists(_) => (409, "tenant_exists"),
        ServeError::Shed { .. } => (503, "shed"),
        ServeError::NoSnapshot => (503, "no_snapshot"),
        ServeError::ShuttingDown => (503, "shutting_down"),
        ServeError::Reload(_) => (500, "reload_failed"),
    };
    let mut resp = Response::error(status, kind, &e.to_string());
    resp.retry_after = matches!(e, ServeError::Shed { .. });
    resp
}

/// Builds the `[M, N, C]` window tensor from its nested-array JSON form,
/// insisting on rectangularity and finite numbers. Shape errors anywhere
/// in the window are reported before any cell's number error.
fn window_from_json(v: &Value) -> Result<Tensor, String> {
    let steps = v
        .as_array()
        .ok_or("\"window\" must be an [M][N][C] nested array")?;
    fn nodes_of(i: usize, step: &Value) -> Result<&[Value], String> {
        step.as_array()
            .ok_or_else(|| format!("window step {i} is not an array of nodes"))
    }
    fn channels_of(i: usize, j: usize, node: &Value) -> Result<&[Value], String> {
        node.as_array()
            .ok_or_else(|| format!("window[{i}][{j}] is not an array of channels"))
    }
    // Step 0 and its node 0 fix the [M, N, C] geometry. Every node is
    // checked against it before the tensor is allocated, so the block
    // holds no more cells than the body carries.
    let first = nodes_of(0, steps.first().ok_or("\"window\" has zero time steps")?)?;
    let nodes = first.len();
    let channels = channels_of(0, 0, first.first().ok_or("\"window\" has zero nodes")?)?.len();
    if channels == 0 {
        return Err("\"window\" has zero channels".to_string());
    }
    let mut node_cells = Vec::new();
    for (i, step) in steps.iter().enumerate() {
        let row = nodes_of(i, step)?;
        if row.len() != nodes {
            return Err(format!(
                "window step {i} has {} nodes, step 0 has {nodes}",
                row.len()
            ));
        }
        for (j, node) in row.iter().enumerate() {
            let vals = channels_of(i, j, node)?;
            if vals.len() != channels {
                return Err(format!(
                    "window[{i}][{j}] has {} channels, [0][0] has {channels}",
                    vals.len()
                ));
            }
            node_cells.push(vals);
        }
    }
    let mut window = Tensor::zeros(&[steps.len(), nodes, channels]);
    let cells = window.data_mut().chunks_exact_mut(channels);
    for (n, (vals, cells)) in node_cells.iter().zip(cells).enumerate() {
        for (k, (x, cell)) in vals.iter().zip(cells).enumerate() {
            let x = x.as_f64().ok_or_else(|| {
                format!("window[{}][{}][{k}] is not a number", n / nodes, n % nodes)
            })?;
            *cell = x as f32;
        }
    }
    Ok(window)
}
