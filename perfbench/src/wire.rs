//! A minimal HTTP/1.1 keep-alive client for the forecast route, and the
//! JSON shapes on both sides of it.

use std::io::{Read, Write};
use std::net::TcpStream;

use urcl::json::Value;

/// The `{"window": [M][N][C]}` request body for one physical-unit window
/// stored row-major as `[M, N, C]`.
pub fn window_body(window: &[f32], n: usize, c: usize) -> String {
    let steps = window
        .chunks(n * c)
        .map(|step| Value::Array(step.chunks(c).map(urcl::json::f32_array).collect()))
        .collect();
    Value::object()
        .with("window", Value::Array(steps))
        .to_string_compact()
}

/// The full request bytes of a forecast `POST` carrying `body`.
pub fn forecast_request(tenant: &str, body: &str) -> Vec<u8> {
    format!(
        "POST /v1/tenants/{tenant}/forecast HTTP/1.1\r\nHost: perfbench\r\n\
         Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The forecast response body the server builds for `prediction` (`[H, N]`
/// row-major) — the benchmark's own copy, to time JSON encoding alone.
pub fn forecast_body(generation: u64, prediction: &[f32], n: usize) -> String {
    let rows = prediction.chunks(n).map(urcl::json::f32_array).collect();
    Value::object()
        .with("generation", generation)
        .with("prediction", Value::Array(rows))
        .to_string_compact()
}

/// Sends one request and reads its response off a keep-alive stream.
/// Returns the status; the body is left in `buf[body_start..]`, whose
/// start is returned too.
pub fn round_trip(
    stream: &mut TcpStream,
    request: &[u8],
    buf: &mut Vec<u8>,
) -> std::io::Result<(u16, usize)> {
    stream.write_all(request)?;
    buf.clear();
    let mut chunk = [0u8; 16 * 1024];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head =
        std::str::from_utf8(&buf[..head_end]).map_err(|_| std::io::ErrorKind::InvalidData)?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or(std::io::ErrorKind::InvalidData)?;
    let len: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .ok_or(std::io::ErrorKind::InvalidData)?;
    while buf.len() < head_end + len {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    Ok((status, head_end))
}

/// A decoded forecast response: its generation and `[H, N]` prediction.
pub struct Forecast {
    pub generation: u64,
    pub prediction: Vec<f32>,
}

/// Decodes a forecast body, insisting on an `[h][n]` prediction of
/// finite numbers.
pub fn parse_forecast(body: &[u8], h: usize, n: usize) -> Option<Forecast> {
    let doc = Value::parse(std::str::from_utf8(body).ok()?).ok()?;
    let generation = doc.get("generation")?.as_u64()?;
    let rows = doc.get("prediction")?.as_array()?;
    if rows.len() != h {
        return None;
    }
    let mut prediction = Vec::with_capacity(h * n);
    for row in rows {
        let row = row.as_array()?;
        if row.len() != n {
            return None;
        }
        for v in row {
            let v = v.as_f64()? as f32;
            if !v.is_finite() {
                return None;
            }
            prediction.push(v);
        }
    }
    Some(Forecast {
        generation,
        prediction,
    })
}
