//! Embedded HTTP/1.1 scrape/stream server over `std::net`.
//!
//! Endpoint contract (all `GET`, all `Connection: close`):
//!
//! * `/metrics` — Prometheus text exposition (format 0.0.4) rendered
//!   from the live [`hipress_metrics::Registry`] snapshot.
//! * `/healthz` — JSON job liveness: run status, uptime, record and
//!   alert counts, and per-rank last-heartbeat ages.
//! * `/report.json` — the final [`RuntimeReport`] once the job has
//!   retired (`{"pending":true,...}` while it is still running).
//! * `/events` — chunked NDJSON stream of per-iteration
//!   [`IterRecord`](crate::IterRecord)s, one JSON object per line,
//!   starting from sequence 0 (or `?from=N`) and terminating once the
//!   job is done and the ring is drained.
//!
//! The server is a handful of blocking threads: one acceptor plus one
//! per connection. Handlers only ever *read* telemetry state (registry
//! snapshot, progress ring, heartbeat table), so a slow or stuck
//! scraper cannot block the training hot path.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hipress_metrics::prom;
use hipress_util::codec::Json;
use hipress_util::{Error, Result};

use crate::{IterRecord, Telemetry};

/// How long `/events` sleeps between ring polls.
const EVENT_POLL: Duration = Duration::from_millis(20);
/// Per-connection socket timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Largest request head we bother parsing.
const MAX_HEAD: usize = 8 * 1024;

/// A running telemetry server. Dropping the handle does *not* stop the
/// server (the CLI keeps serving through its linger window and exits
/// with the process); call [`Server::stop`] for an orderly shutdown.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// serving `telemetry` on background threads.
    pub fn bind(addr: &str, telemetry: Telemetry) -> Result<Server> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| Error::config(format!("telemetry: bind {addr}: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| Error::config(format!("telemetry: local_addr: {e}")))?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("telemetry-accept".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop2.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = conn else { break };
                    let t = telemetry.clone();
                    let _ = std::thread::Builder::new()
                        .name("telemetry-conn".into())
                        .spawn(move || handle(stream, &t));
                }
            })
            .map_err(|e| Error::config(format!("telemetry: spawn acceptor: {e}")))?;
        Ok(Server { addr, stop })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting connections. In-flight handlers finish on their
    /// own; `/events` streams observe the done flag and terminate.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }
}

fn handle(mut stream: TcpStream, t: &Telemetry) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let Some((method, target)) = read_request(&mut stream) else {
        return;
    };
    if method != "GET" {
        let _ = respond(&mut stream, 405, "text/plain", "method not allowed\n");
        return;
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target.as_str(), None),
    };
    let _ = match path {
        "/metrics" => {
            let body = prom::render(&t.registry().snapshot());
            respond(&mut stream, 200, "text/plain; version=0.0.4", &body)
        }
        "/healthz" => {
            t.scan_heartbeats();
            respond(&mut stream, 200, "application/json", &healthz_json(t))
        }
        "/report.json" => {
            let body = t.report_json().unwrap_or_else(|| {
                format!(
                    "{{\"pending\":true,\"records\":{},\"uptime_ns\":{}}}",
                    t.records_published(),
                    t.now_ns()
                )
            });
            respond(&mut stream, 200, "application/json", &body)
        }
        "/events" => stream_events(&mut stream, t, from_param(query)),
        _ => respond(&mut stream, 404, "text/plain", "not found\n"),
    };
}

fn from_param(query: Option<&str>) -> u64 {
    let Some(q) = query else { return 0 };
    q.split('&')
        .find_map(|kv| kv.strip_prefix("from="))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn healthz_json(t: &Telemetry) -> String {
    let status = if t.is_done() { "done" } else { "running" };
    let ranks: Vec<String> = t
        .heartbeat_ages_ns()
        .into_iter()
        .map(|(rank, age)| format!("{{\"rank\":{rank},\"last_beat_age_ns\":{age}}}"))
        .collect();
    format!(
        "{{\"status\":\"{}\",\"uptime_ns\":{},\"records\":{},\"alerts\":{},\"epoch\":{},\"ranks\":[{}]}}",
        status,
        t.now_ns(),
        t.records_published(),
        t.alert_count(),
        t.membership_epoch(),
        ranks.join(",")
    )
}

/// Read and parse the request head; returns `(method, target)`.
fn read_request(stream: &mut TcpStream) -> Option<(String, String)> {
    let mut head = Vec::new();
    let mut buf = [0u8; 512];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        if head.len() > MAX_HEAD {
            return None;
        }
        let n = stream.read(&mut buf).ok()?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
    }
    let head = String::from_utf8_lossy(&head);
    let mut parts = head.lines().next()?.split_whitespace();
    let method = parts.next()?.to_string();
    let target = parts.next()?.to_string();
    Some((method, target))
}

fn respond(stream: &mut TcpStream, status: u16, ctype: &str, body: &str) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    };
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

/// Serve `/events`: chunked NDJSON, one record per chunk, draining the
/// ring until the job is done and no records remain.
fn stream_events(stream: &mut TcpStream, t: &Telemetry, from: u64) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
    )?;
    let mut cursor = from;
    loop {
        let (recs, next) = t.read_events(cursor);
        cursor = next;
        for rec in &recs {
            let line = event_line(rec);
            write!(stream, "{:x}\r\n{line}\r\n", line.len())?;
        }
        if !recs.is_empty() {
            stream.flush()?;
        }
        if t.is_done() && cursor >= t.records_published() {
            break;
        }
        t.scan_heartbeats();
        std::thread::sleep(EVENT_POLL);
    }
    write!(stream, "0\r\n\r\n")?;
    stream.flush()
}

/// One `/events` line: the record's JSON object and a newline.
fn event_line(rec: &IterRecord) -> String {
    let mut line = String::new();
    rec.write_json(&mut line);
    line.push('\n');
    line
}

/// Minimal std-TCP HTTP client for tests and the `hipress scrape`
/// smoke tool: fetch `path` from `addr`, decoding chunked bodies. For
/// streaming endpoints pass `max_lines` to stop after that many
/// newline-terminated lines instead of waiting for the stream to end.
///
/// # Errors
///
/// A failed connection or read, and any response that breaks its
/// framing: a head that is not done within 8 KiB, a bad status line,
/// a chunk size that is not hex or overflows, a chunk not followed by
/// CRLF, a body that disagrees with its content-length, or a chunked
/// stream that ends before its last chunk.
pub fn fetch(addr: &str, path: &str, max_lines: Option<usize>) -> Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)
        .map_err(|e| Error::config(format!("telemetry: connect {addr}: {e}")))?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| Error::config(format!("telemetry: timeout: {e}")))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .and_then(|()| stream.flush())
    .map_err(|e| Error::config(format!("telemetry: request: {e}")))?;

    // Read the response head, bounded like the server's request head.
    let mut raw = Vec::new();
    let mut buf = [0u8; 1024];
    let head_end = loop {
        let seen = &raw[..raw.len().min(MAX_HEAD)];
        if let Some(pos) = seen.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        if raw.len() >= MAX_HEAD {
            return Err(Error::config(format!(
                "telemetry: response head exceeds {MAX_HEAD} bytes"
            )));
        }
        let n = stream
            .read(&mut buf)
            .map_err(|e| Error::config(format!("telemetry: read: {e}")))?;
        if n == 0 {
            return Err(Error::config("telemetry: connection closed before headers"));
        }
        raw.extend_from_slice(&buf[..n]);
    };
    let head = String::from_utf8_lossy(&raw[..head_end]).to_string();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| Error::config(format!("telemetry: bad status line: {head}")))?;
    let header = |name: &str| {
        head.lines().find_map(|l| {
            let (key, value) = l.split_once(':')?;
            key.eq_ignore_ascii_case(name).then(|| value.trim())
        })
    };
    let chunked = header("transfer-encoding").is_some_and(|v| v.contains("chunked"));
    let content_length = header("content-length")
        .map(|v| {
            v.parse::<usize>()
                .map_err(|_| Error::config(format!("telemetry: bad content-length: {v}")))
        })
        .transpose()?;
    let mut body_raw = raw[head_end..].to_vec();

    if !chunked {
        // Connection: close framing — read until EOF.
        loop {
            let n = stream
                .read(&mut buf)
                .map_err(|e| Error::config(format!("telemetry: read body: {e}")))?;
            if n == 0 {
                break;
            }
            body_raw.extend_from_slice(&buf[..n]);
        }
        if let Some(len) = content_length.filter(|&len| len != body_raw.len()) {
            return Err(Error::config(format!(
                "telemetry: body of {} bytes, content-length {len}",
                body_raw.len()
            )));
        }
        return Ok((status, String::from_utf8_lossy(&body_raw).to_string()));
    }

    // Chunked: decode incrementally so `max_lines` can stop early while
    // the server is still streaming.
    let mut body = String::new();
    loop {
        if let Some(max) = max_lines {
            if body.bytes().filter(|&b| b == b'\n').count() >= max {
                return Ok((status, body));
            }
        }
        // Decode every complete chunk currently buffered.
        let mut progressed = true;
        while progressed {
            progressed = false;
            if let Some(nl) = body_raw.windows(2).position(|w| w == b"\r\n") {
                let size_line = String::from_utf8_lossy(&body_raw[..nl]).to_string();
                let size = usize::from_str_radix(size_line.trim(), 16).map_err(|_| {
                    Error::config(format!("telemetry: bad chunk size: {size_line}"))
                })?;
                if size == 0 {
                    return Ok((status, body));
                }
                // Size line, CRLF, data, CRLF; the size is the peer's.
                let data = nl + 2;
                let end = data
                    .checked_add(size)
                    .and_then(|e| e.checked_add(2))
                    .ok_or_else(|| {
                        Error::config(format!("telemetry: chunk size {size_line} overflows"))
                    })?;
                if body_raw.len() >= end {
                    if body_raw[end - 2..end] != *b"\r\n" {
                        return Err(Error::config(format!(
                            "telemetry: chunk of {size} bytes is not followed by CRLF"
                        )));
                    }
                    body.push_str(&String::from_utf8_lossy(&body_raw[data..end - 2]));
                    body_raw.drain(..end);
                    progressed = true;
                }
            }
        }
        if let Some(max) = max_lines {
            if body.bytes().filter(|&b| b == b'\n').count() >= max {
                return Ok((status, body));
            }
        }
        let n = stream
            .read(&mut buf)
            .map_err(|e| Error::config(format!("telemetry: read chunk: {e}")))?;
        if n == 0 {
            return Err(Error::config(
                "telemetry: connection closed before the last chunk",
            ));
        }
        body_raw.extend_from_slice(&buf[..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `fetch` against a scripted peer that reads the request head,
    /// answers `response`, then holds the connection open until the
    /// client hangs up (`hold`) or closes it at once.
    fn fetch_from(response: &[u8], hold: bool) -> Result<(u16, String)> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let response = response.to_vec();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            // Read the whole request first: closing on unread bytes
            // would reset the connection instead of ending the stream.
            let mut head = Vec::new();
            let mut buf = [0u8; 256];
            while !head.windows(4).any(|w| w == b"\r\n\r\n") {
                let n = stream.read(&mut buf).unwrap();
                assert!(n > 0, "client hung up mid-request");
                head.extend_from_slice(&buf[..n]);
            }
            stream.write_all(&response).unwrap();
            if hold {
                while stream.read(&mut buf).is_ok_and(|n| n > 0) {}
            }
        });
        let out = fetch(&addr, "/events", None);
        peer.join().unwrap();
        out
    }

    fn fetch_err(response: &[u8], hold: bool) -> String {
        fetch_from(response, hold).unwrap_err().to_string()
    }

    const CHUNKED: &str = "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n";

    #[test]
    fn fetch_refuses_hostile_chunk_framing() {
        let huge = format!("{CHUNKED}ffffffffffffffff\r\nabc\r\n0\r\n\r\n");
        assert!(fetch_err(huge.as_bytes(), false).contains("overflows"));
        // Fewer and more bytes than the size line claims.
        for wrong in ["5\r\nabc\r\n0\r\n\r\n", "3\r\nabcdef\r\n0\r\n\r\n"] {
            let err = fetch_err(format!("{CHUNKED}{wrong}").as_bytes(), false);
            assert!(err.contains("not followed by CRLF"), "{wrong:?}: {err}");
        }
        let err = fetch_err(format!("{CHUNKED}zz\r\n").as_bytes(), false);
        assert!(err.contains("bad chunk size"), "{err}");
    }

    #[test]
    fn fetch_bounds_the_response_head() {
        let endless = vec![b'X'; MAX_HEAD + 1];
        assert!(fetch_err(&endless, true).contains("exceeds"));
        // Terminated, but only past the bound.
        let mut late = b"HTTP/1.1 200 OK\r\nX-Pad: ".to_vec();
        late.resize(MAX_HEAD, b'p');
        late.extend_from_slice(b"\r\n\r\n");
        assert!(fetch_err(&late, true).contains("exceeds"));
        // A head just inside it is read.
        let mut fits = b"HTTP/1.1 200 OK\r\nX-Pad: ".to_vec();
        fits.resize(MAX_HEAD - 4, b'p');
        fits.extend_from_slice(b"\r\n\r\nok");
        assert_eq!(fetch_from(&fits, false).unwrap(), (200, "ok".into()));
    }

    #[test]
    fn fetch_names_a_stream_cut_at_any_offset() {
        let chunked = format!("{CHUNKED}5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n");
        let last_chunk = chunked.find("0\r\n").unwrap() + 3;
        let sized = "HTTP/1.1 200 OK\r\nContent-Length: 11\r\n\r\nhello world";
        for (response, complete) in [(chunked.as_str(), last_chunk), (sized, sized.len())] {
            for cut in 0..=response.len() {
                match fetch_from(&response.as_bytes()[..cut], false) {
                    Ok(out) if cut >= complete => assert_eq!(out, (200, "hello world".into())),
                    Ok(out) => panic!("cut at {cut} of {response:?} read as {out:?}"),
                    Err(e) => assert!(cut < complete, "cut at {cut}: {e}"),
                }
            }
        }
    }

    /// The exact `/events` line of a record whose fields are all
    /// distinct, captured on the commit before the line was generated
    /// from the record's declaration.
    #[test]
    fn event_line_matches_the_parent_commit() {
        let rec = IterRecord {
            node: 1,
            iter: 2,
            ts_ns: 3,
            span_ns: 4,
            comp_ns: 5,
            commu_ns: 6,
            bytes_wire: 7,
            messages: 8,
            retransmits: 9,
            faults: 10,
            window: 11,
            epoch: 12,
        };
        assert_eq!(
            event_line(&rec),
            concat!(
                r#"{"node":1,"iter":2,"ts_ns":3,"span_ns":4,"comp_ns":5,"commu_ns":6,"#,
                r#""bytes_wire":7,"messages":8,"retransmits":9,"faults":10,"window":11,"#,
                "\"epoch\":12}\n",
            )
        );
    }
}
