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

    // Read the response head.
    let mut raw = Vec::new();
    let mut buf = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
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
    let chunked = head
        .lines()
        .any(|l| l.to_ascii_lowercase().starts_with("transfer-encoding:") && l.contains("chunked"));
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
                let need = nl + 2 + size + 2;
                if body_raw.len() >= need {
                    body.push_str(&String::from_utf8_lossy(&body_raw[nl + 2..nl + 2 + size]));
                    body_raw.drain(..need);
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
            return Ok((status, body));
        }
        body_raw.extend_from_slice(&buf[..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
