//! Over-the-wire tests for the HTTP/1.1 front-end: correct forecasts,
//! the typed 4xx/5xx mapping, malformed/truncated/oversized requests,
//! slowloris timeouts, keep-alive pipelining, the connection bound's
//! canned `503`, a killed client mid-response, and graceful drain under
//! load within a time budget.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use urcl_core::{CheckpointDir, TrainerConfig, UrclPipeline};
use urcl_json::Value;
use urcl_serve::{BatchPolicy, HttpConfig, HttpServer, ServeConfig, Tenants};
use urcl_stdata::{DatasetConfig, SyntheticDataset};
use urcl_tensor::Tensor;

struct Fixture {
    ds: SyntheticDataset,
    dir: std::path::PathBuf,
    windows: Vec<Tensor>,
}

impl Fixture {
    fn new(tag: &str) -> Self {
        let ds = SyntheticDataset::generate(DatasetConfig::metr_la().tiny());
        let dir = std::env::temp_dir().join(format!("urcl-http-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let slots = CheckpointDir::new(&dir).unwrap();
        let mut pipe = UrclPipeline::new(
            ds.network.clone(),
            ds.config.clone(),
            TrainerConfig::default(),
            11,
        );
        let series = ds.continual_split(2).base.series.clone();
        pipe.observe_period_statistics_only(&series);
        pipe.save_checkpoint(&slots, tag).unwrap();
        let m = ds.config.input_steps;
        let windows = (0..4).map(|i| series.narrow(0, i * 3, m)).collect();
        Self { ds, dir, windows }
    }

    /// A registry with this fixture as tenant `name`, plus the listener.
    fn serve(&self, name: &str, http: HttpConfig) -> (Arc<Tenants>, HttpServer) {
        let tenants = Arc::new(Tenants::new());
        let (model, template) = UrclPipeline::serving_parts_dyn(
            &self.ds.network,
            &self.ds.config,
            &TrainerConfig::default(),
        );
        let client = tenants
            .add(
                name,
                model,
                template,
                CheckpointDir::new(&self.dir).unwrap(),
                ServeConfig {
                    policy: BatchPolicy {
                        max_batch: 4,
                        max_delay: Duration::from_millis(1),
                    },
                    target_channel: self.ds.config.target_channel,
                    workers: 2,
                    ..ServeConfig::default()
                },
            )
            .unwrap();
        assert!(client.has_snapshot());
        let server = HttpServer::bind(Arc::clone(&tenants), http).unwrap();
        (tenants, server)
    }

    fn window_json(&self, i: usize) -> String {
        window_body(&self.windows[i])
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

fn window_body(window: &Tensor) -> String {
    let [m, n, c] = [window.shape()[0], window.shape()[1], window.shape()[2]];
    let data = window.data();
    let steps: Vec<Value> = (0..m)
        .map(|i| {
            Value::Array(
                (0..n)
                    .map(|j| urcl_json::f32_array(&data[(i * n + j) * c..(i * n + j + 1) * c]))
                    .collect(),
            )
        })
        .collect();
    Value::object()
        .with("window", Value::Array(steps))
        .to_string_compact()
}

fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Reads one full HTTP response (head + Content-Length body). `carry`
/// holds over-read bytes of the *next* pipelined response between calls
/// — reads land there first, exactly like the server's own request
/// buffer, so back-to-back responses frame correctly.
fn try_read_response(
    stream: &mut TcpStream,
    carry: &mut Vec<u8>,
) -> std::io::Result<(u16, String, String)> {
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let head_end = loop {
        if let Some(pos) = carry.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        carry.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8(carry[..head_end].to_vec()).unwrap();
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {head:?}"));
    let len: usize = head
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::trim)
                .map(str::to_string)
        })
        .and_then(|v| v.parse().ok())
        .expect("Content-Length header");
    while carry.len() < head_end + len {
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        carry.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8(carry[head_end..head_end + len].to_vec()).unwrap();
    carry.drain(..head_end + len);
    Ok((status, head, body))
}

fn read_response_carry(stream: &mut TcpStream, carry: &mut Vec<u8>) -> (u16, String, String) {
    try_read_response(stream, carry).expect("full response before close")
}

fn read_response(stream: &mut TcpStream) -> (u16, String, String) {
    read_response_carry(stream, &mut Vec::new())
}

/// One-shot request on a fresh connection.
fn roundtrip(server: &HttpServer, raw: &[u8]) -> (u16, String, String) {
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.write_all(raw).unwrap();
    read_response(&mut stream)
}

#[test]
fn forecast_over_the_wire_matches_in_process() {
    let fx = Fixture::new("wire");
    let (tenants, server) = fx.serve("metr-la", HttpConfig::default());
    let reference = tenants
        .client("metr-la")
        .and_then(|client| client.predict(&fx.windows[0]))
        .expect("in-process forecast");

    let (status, _head, body) = roundtrip(
        &server,
        &post("/v1/tenants/metr-la/forecast", &fx.window_json(0)),
    );
    assert_eq!(status, 200, "body: {body}");
    let doc = Value::parse(&body).expect("response json");
    assert_eq!(
        doc.get("generation").and_then(Value::as_u64),
        Some(reference.generation)
    );
    let rows = doc
        .get("prediction")
        .and_then(Value::as_array)
        .expect("prediction rows");
    let shape = reference.prediction.shape();
    assert_eq!(rows.len(), shape[0], "horizon rows");
    let mut flat = Vec::new();
    for row in rows {
        let row = row.as_array().expect("prediction row");
        assert_eq!(row.len(), shape[1], "nodes per row");
        for v in row {
            flat.push(v.as_f64().expect("number") as f32);
        }
    }
    // f32 -> JSON f64 -> f32 is lossless, so the wire forecast is
    // bitwise the in-process one.
    for (i, (a, b)) in flat.iter().zip(reference.prediction.data()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "element {i}: {a} vs {b}");
    }
}

#[test]
fn routing_and_status_mapping() {
    let fx = Fixture::new("routes");
    let (_tenants, server) = fx.serve("metr-la", HttpConfig::default());
    let ok_body = fx.window_json(0);

    // Health + listing.
    let (status, _, body) = roundtrip(&server, b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200);
    assert_eq!(
        Value::parse(&body)
            .unwrap()
            .get("ok")
            .and_then(Value::as_bool),
        Some(true)
    );
    let (status, _, body) = roundtrip(&server, b"GET /v1/tenants HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 200);
    assert!(body.contains("metr-la"), "{body}");

    // Unknown route and unknown tenant.
    let (status, _, _) = roundtrip(&server, b"GET /v2/nope HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 404);
    let (status, _, body) = roundtrip(&server, &post("/v1/tenants/ghost/forecast", &ok_body));
    assert_eq!(status, 404);
    assert!(body.contains("unknown_tenant"), "{body}");

    // Wrong method carries Allow.
    let (status, head, _) = roundtrip(
        &server,
        b"GET /v1/tenants/metr-la/forecast HTTP/1.1\r\nHost: t\r\n\r\n",
    );
    assert_eq!(status, 405);
    assert!(head.contains("Allow: POST"), "{head}");
    let (status, _, _) = roundtrip(&server, &post("/v1/tenants", "{}"));
    assert_eq!(status, 405);

    // Geometry mismatch maps ServeError::BadRequest to 400.
    let tiny = "{\"window\": [[[1.0]]]}";
    let (status, _, body) = roundtrip(&server, &post("/v1/tenants/metr-la/forecast", tiny));
    assert_eq!(status, 400);
    assert!(body.contains("bad_request"), "{body}");

    // A reading beyond f32 range parses to infinity: 400, not a 200
    // with `null` forecast cells.
    let start = ok_body
        .find(|ch: char| ch.is_ascii_digit() || ch == '-')
        .unwrap();
    let end = start + ok_body[start..].find([',', ']']).unwrap();
    let overflow = format!("{}1e39{}", &ok_body[..start], &ok_body[end..]);
    let (status, _, body) = roundtrip(&server, &post("/v1/tenants/metr-la/forecast", &overflow));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("bad_request"), "{body}");
}

#[test]
fn malformed_requests_are_typed_4xx() {
    let fx = Fixture::new("malformed");
    let (_tenants, server) = fx.serve("metr-la", HttpConfig::default());

    // Garbage request line.
    let (status, _, _) = roundtrip(&server, b"NONSENSE\r\n\r\n");
    assert_eq!(status, 400);
    // Unsupported version.
    let (status, _, _) = roundtrip(&server, b"GET /v1/healthz HTTP/2.0\r\n\r\n");
    assert_eq!(status, 505);
    // POST without Content-Length.
    let (status, _, _) = roundtrip(
        &server,
        b"POST /v1/tenants/metr-la/forecast HTTP/1.1\r\nHost: t\r\n\r\n",
    );
    assert_eq!(status, 411);
    // Chunked bodies are not implemented.
    let (status, _, _) = roundtrip(
        &server,
        b"POST /v1/tenants/metr-la/forecast HTTP/1.1\r\nHost: t\r\n\
          Transfer-Encoding: chunked\r\n\r\n",
    );
    assert_eq!(status, 501);
    // Unparseable JSON body.
    let (status, _, body) = roundtrip(&server, &post("/v1/tenants/metr-la/forecast", "{not json"));
    assert_eq!(status, 400);
    assert!(body.contains("bad_json"), "{body}");
    // Missing and ragged windows.
    let (status, _, body) = roundtrip(&server, &post("/v1/tenants/metr-la/forecast", "{\"x\": 1}"));
    assert_eq!(status, 400);
    assert!(body.contains("bad_window"), "{body}");
    let ragged = "{\"window\": [[[1.0, 2.0]], [[1.0, 2.0], [3.0, 4.0]]]}";
    let (status, _, body) = roundtrip(&server, &post("/v1/tenants/metr-la/forecast", ragged));
    assert_eq!(status, 400);
    assert!(body.contains("bad_window"), "{body}");

    // Counted as parse errors: the garbage request line, the bad
    // version, and the unparseable JSON (411/501 are well-formed
    // requests the server declines, not parse failures).
    let stats = server.stats();
    assert!(stats.parse_errors >= 3, "parse errors counted: {stats:?}");
    assert_eq!(stats.responses_2xx, 0);
}

#[test]
fn window_shape_is_checked_before_the_tensor_is_sized() {
    let fx = Fixture::new("wide");
    let (_tenants, server) = fx.serve("metr-la", HttpConfig::default());
    // Step 0 is one node of 2^20 channels; then 500 000 empty steps.
    // Under the default body limit, yet sized from step 0 it would be a
    // [500 000, 1, 2^20] tensor of about 2 TB.
    let (steps, channels) = (500_000, 1 << 20);
    let mut body = String::from("{\"window\": [[[0");
    body.push_str(&",0".repeat(channels - 1));
    body.push_str("]]");
    body.push_str(&",[]".repeat(steps - 1));
    body.push_str("]}");
    assert!(body.len() < HttpConfig::default().max_body_bytes);
    let (status, _, resp) = roundtrip(&server, &post("/v1/tenants/metr-la/forecast", &body));
    assert_eq!(status, 400, "{resp}");
    assert!(resp.contains("bad_window"), "{resp}");
    assert!(resp.contains("window step 1 has 0 nodes"), "{resp}");

    // The server keeps serving.
    let (status, _, resp) = roundtrip(
        &server,
        &post("/v1/tenants/metr-la/forecast", &fx.window_json(0)),
    );
    assert_eq!(status, 200, "{resp}");
}

#[test]
fn oversized_body_and_head_are_rejected() {
    let fx = Fixture::new("oversize");
    let (_tenants, server) = fx.serve(
        "metr-la",
        HttpConfig {
            max_body_bytes: 1024,
            max_header_bytes: 512,
            ..HttpConfig::default()
        },
    );
    // An honest Content-Length over the limit: rejected before the body
    // is even read.
    let (status, _, _) = roundtrip(
        &server,
        b"POST /v1/tenants/metr-la/forecast HTTP/1.1\r\nHost: t\r\n\
          Content-Length: 1000000\r\n\r\n",
    );
    assert_eq!(status, 413);
    // A head that never ends.
    let mut raw = b"GET /v1/healthz HTTP/1.1\r\n".to_vec();
    raw.extend_from_slice(format!("X-Padding: {}\r\n", "y".repeat(1024)).as_bytes());
    raw.extend_from_slice(b"\r\n");
    let (status, _, _) = roundtrip(&server, &raw);
    assert_eq!(status, 431);
}

#[test]
fn truncated_body_is_a_400_not_a_hang() {
    let fx = Fixture::new("truncated");
    let (_tenants, server) = fx.serve("metr-la", HttpConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // Claim 1000 bytes, send 10, then close the write half.
    stream
        .write_all(
            b"POST /v1/tenants/metr-la/forecast HTTP/1.1\r\nHost: t\r\n\
              Content-Length: 1000\r\n\r\n{\"window\"",
        )
        .unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let (status, _, body) = read_response(&mut stream);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("truncated"), "{body}");
}

#[test]
fn slowloris_request_times_out_with_408() {
    let fx = Fixture::new("slowloris");
    let (_tenants, server) = fx.serve(
        "metr-la",
        HttpConfig {
            read_timeout: Duration::from_millis(250),
            ..HttpConfig::default()
        },
    );
    let t0 = Instant::now();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // A header drip that never finishes.
    stream
        .write_all(b"GET /v1/healthz HTTP/1.1\r\nX-Slow: ")
        .unwrap();
    let (status, _, _) = read_response(&mut stream);
    assert_eq!(status, 408);
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "slowloris guard took {:?}",
        t0.elapsed()
    );
    assert!(server.stats().timeouts >= 1);
}

#[test]
fn keep_alive_serves_pipelined_requests_in_order() {
    let fx = Fixture::new("pipeline");
    let (_tenants, server) = fx.serve("metr-la", HttpConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // Three different requests written back-to-back before any read.
    let mut raw = Vec::new();
    raw.extend_from_slice(&post("/v1/tenants/metr-la/forecast", &fx.window_json(0)));
    raw.extend_from_slice(b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    raw.extend_from_slice(&post("/v1/tenants/metr-la/forecast", &fx.window_json(1)));
    stream.write_all(&raw).unwrap();
    let mut carry = Vec::new();
    let (s1, h1, b1) = read_response_carry(&mut stream, &mut carry);
    let (s2, _h2, b2) = read_response_carry(&mut stream, &mut carry);
    let (s3, _h3, b3) = read_response_carry(&mut stream, &mut carry);
    assert_eq!((s1, s2, s3), (200, 200, 200), "{b1} | {b2} | {b3}");
    assert!(h1.contains("keep-alive"), "{h1}");
    assert!(b1.contains("prediction"));
    assert!(b2.contains("ok"));
    assert!(b3.contains("prediction"));
    // The two forecasts came from different windows — responses were not
    // crossed or duplicated.
    assert_ne!(b1, b3);
    assert_eq!(server.stats().requests, 3);

    // An explicit Connection: close is honored.
    let mut req = post("/v1/tenants/metr-la/forecast", &fx.window_json(0));
    let head_insert = "Connection: close\r\n";
    let pos = req.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 2;
    req.splice(pos..pos, head_insert.bytes());
    stream.write_all(&req).unwrap();
    let (s4, h4, _b4) = read_response_carry(&mut stream, &mut carry);
    assert_eq!(s4, 200);
    assert!(h4.contains("Connection: close"), "{h4}");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "server wrote past a closed response");
}

/// The connection bound: with one worker and one pending slot, a third
/// concurrent connection is refused at the door with a canned `503` and
/// `Retry-After: 1`, and the queued connection is served once the
/// worker's keep-alive connection closes.
#[test]
fn connections_beyond_the_pending_bound_get_503() {
    let fx = Fixture::new("bound");
    let (_tenants, server) = fx.serve(
        "metr-la",
        HttpConfig {
            workers: 1,
            pending_connections: 1,
            ..HttpConfig::default()
        },
    );
    let forecast = post("/v1/tenants/metr-la/forecast", &fx.window_json(0));

    // First: a keep-alive connection that holds the only worker.
    let mut held = TcpStream::connect(server.local_addr()).unwrap();
    held.write_all(&forecast).unwrap();
    let (status, head, _) = read_response(&mut held);
    assert_eq!(status, 200);
    assert!(head.contains("keep-alive"), "{head}");

    // Second: accepted into the one pending slot, its request waiting.
    let mut queued = TcpStream::connect(server.local_addr()).unwrap();
    queued.write_all(&forecast).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().accepted < 2 {
        assert!(Instant::now() < deadline, "second connection not accepted");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Third: over the bound, answered at the door and closed.
    let mut refused = TcpStream::connect(server.local_addr()).unwrap();
    let (status, head, _) = read_response(&mut refused);
    assert_eq!(status, 503, "{head}");
    assert!(head.contains("Retry-After: 1"), "{head}");
    let mut rest = Vec::new();
    refused.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "refused connection was not closed");
    assert_eq!(server.stats().rejected, 1);

    // Closing the first connection frees the worker for the second.
    drop(held);
    let (status, _, body) = read_response(&mut queued);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("prediction"), "{body}");
    assert_eq!(server.stats().accepted, 2);
}

#[test]
fn killed_client_mid_response_does_not_wedge_the_server() {
    let fx = Fixture::new("killed");
    let (_tenants, server) = fx.serve("metr-la", HttpConfig::default());
    // A client that submits real work and vanishes without reading.
    for i in 0..4 {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .write_all(&post(
                "/v1/tenants/metr-la/forecast",
                &fx.window_json(i % 4),
            ))
            .unwrap();
        // Vanish without reading the response.
        drop(stream);
    }
    // The server keeps serving new clients promptly.
    let t0 = Instant::now();
    let (status, _, body) = roundtrip(
        &server,
        &post("/v1/tenants/metr-la/forecast", &fx.window_json(0)),
    );
    assert_eq!(status, 200, "{body}");
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "follow-up request took {:?}",
        t0.elapsed()
    );
}

/// Drain under load: concurrent keep-alive clients are mid-burst when
/// the server shuts down. Every response that goes out must be complete,
/// the drain must finish within a wall-clock budget, and the listener
/// must be gone afterwards.
#[test]
fn graceful_drain_under_load_within_budget() {
    let fx = Fixture::new("drain");
    let (_tenants, mut server) = fx.serve("metr-la", HttpConfig::default());
    let addr = server.local_addr();

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut clients = Vec::new();
    for c in 0..4usize {
        let stop = Arc::clone(&stop);
        let body = fx.window_json(c % 4);
        clients.push(std::thread::spawn(move || {
            let mut served = 0u64;
            'outer: while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let Ok(mut stream) = TcpStream::connect(addr) else {
                    break;
                };
                let mut carry = Vec::new();
                // Keep-alive bursts on one connection.
                for _ in 0..32 {
                    if stream
                        .write_all(&post("/v1/tenants/metr-la/forecast", &body))
                        .is_err()
                    {
                        continue 'outer;
                    }
                    // A close mid-response during drain just ends this
                    // connection; a complete response must be 200 or a
                    // shed/drain 503.
                    let Ok((status, head, _body)) = try_read_response(&mut stream, &mut carry)
                    else {
                        continue 'outer;
                    };
                    assert!(
                        status == 200 || status == 503,
                        "unexpected status during drain: {status}"
                    );
                    if status == 200 {
                        served += 1;
                    }
                    if head.to_ascii_lowercase().contains("connection: close") {
                        continue 'outer;
                    }
                }
            }
            served
        }));
    }

    // Let the load establish, then drain while requests are in flight.
    std::thread::sleep(Duration::from_millis(300));
    let t0 = Instant::now();
    server.shutdown();
    let drain = t0.elapsed();
    assert!(
        drain < Duration::from_secs(10),
        "drain took {drain:?}, budget 10s"
    );

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let served: u64 = clients.into_iter().map(|c| c.join().unwrap()).sum();
    assert!(served > 0, "load never got going before the drain");

    // The listener is really gone: new connections are refused or reset,
    // never answered.
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut stream) => {
            let _ = stream.write_all(b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n");
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let mut buf = [0u8; 16];
            match stream.read(&mut buf) {
                Ok(0) | Err(_) => {}
                Ok(n) => panic!(
                    "drained server answered: {:?}",
                    String::from_utf8_lossy(&buf[..n])
                ),
            }
        }
    }
}
