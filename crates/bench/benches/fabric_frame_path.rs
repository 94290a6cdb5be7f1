//! The TCP frame path against the socket it rides on: a one-way burst
//! of 2 MiB `Msg::Done { Raw }` messages through a 2-rank loopback
//! `connect_mesh`, versus a bare `TcpStream` `write_all` /
//! `read_exact` of the same byte count.
//!
//! The bare stream is what the kernel charges for moving the bytes;
//! everything the mesh adds — serialization, digest, retention,
//! framing, the reader threads, deserialization, acks — is software
//! overhead. The paper's premise (Table 1, §2.5) is that
//! synchronization cost should be the bytes moved, so the ratio of
//! the two is the number to hold down.
//!
//! `ci.sh` runs this as a gate: the mesh may cost at most
//! [`MAX_OVERHEAD_RATIO`]× the bare stream. Both sides run in this
//! process, alternating, over the same loopback device, so the ratio
//! holds on a slow or noisy host where an absolute time would not.

use hipress::casync::TaskId;
use hipress::fabric::tcp::{connect_mesh, MeshConfig};
use hipress::fabric::{Link, TcpLink, WireMsg};
use hipress::runtime::{Msg, Payload};
use hipress_bench::{banner, Recorder};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ceiling on mesh time / bare-stream time for the same bytes.
/// Measured on a 2-core shared host, twelve alternating runs each:
/// 2.5–3.7 (median 3.0) with two connections per pair of ranks and one
/// writer thread per socket direction, 2.7–3.8 (median 3.05) with the
/// one shared connection per pair it replaced; 5.3–6.9 with the
/// assemble-then-copy frame path (six user-space passes per payload on
/// send, four on receive).
const MAX_OVERHEAD_RATIO: f64 = 4.6;

/// `f32` elements per message: a 2 MiB chunk, the size `big4`'s
/// largest gradient is partitioned into.
const ELEMS: usize = 512 * 1024;
/// Messages per burst, back to back.
const BURST: usize = 16;
/// Alternating (mesh, bare) rounds; the gate takes the median ratio.
const ROUNDS: usize = 9;

const WAIT: Duration = Duration::from_secs(30);

fn marker() -> Msg {
    Msg::Done {
        task: TaskId(0),
        payload: None,
        iter: 0,
    }
}

fn mesh_pair() -> (TcpLink<Msg>, TcpLink<Msg>) {
    let bind = || TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let (l0, l1) = (bind(), bind());
    let peers = [l0.local_addr().unwrap(), l1.local_addr().unwrap()];
    let config = MeshConfig::default();
    std::thread::scope(|scope| {
        let dialer = scope.spawn(|| connect_mesh::<Msg>(1, 2, l1, &peers, &config));
        let a = connect_mesh::<Msg>(0, 2, l0, &peers, &config).expect("rank 0 connects");
        (a, dialer.join().unwrap().expect("rank 1 connects"))
    })
}

fn stream_pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let a = TcpStream::connect(listener.local_addr().unwrap()).expect("connect loopback");
    let (b, _) = listener.accept().expect("accept loopback");
    a.set_nodelay(true).unwrap();
    b.set_nodelay(true).unwrap();
    (a, b)
}

/// One burst through the mesh: the clock stops when the peer, having
/// received every message, answers the end-of-burst marker.
fn mesh_burst(a: &mut TcpLink<Msg>, msg: &Msg) -> Duration {
    let start = Instant::now();
    for _ in 0..BURST {
        a.send(1, msg.clone()).expect("mesh send");
    }
    a.send(1, marker()).expect("mesh send");
    match a.recv_timeout(WAIT) {
        Ok(Some(Msg::Done { .. })) => start.elapsed(),
        Ok(Some(_)) => panic!("mesh burst: expected the echo, got another message"),
        Ok(None) => panic!("mesh burst: no echo within {WAIT:?}"),
        Err(e) => panic!("mesh burst: {e}"),
    }
}

/// The mesh's peer: swallows payload-carrying messages, echoes the
/// marker, leaves on `Abort`.
fn mesh_peer(mut b: TcpLink<Msg>) {
    loop {
        match b.recv_timeout(WAIT) {
            Ok(Some(Msg::Done { payload: None, .. })) => b.send(0, marker()).expect("mesh echo"),
            Ok(Some(Msg::Done { .. })) => {}
            _ => return,
        }
    }
}

/// The same bytes over the bare stream: `BURST` writes of one
/// serialized message each, then a one-byte answer.
fn bare_burst(a: &mut TcpStream, wire: &[u8]) -> Duration {
    let start = Instant::now();
    for _ in 0..BURST {
        a.write_all(wire).expect("bare write");
    }
    let mut done = [0u8; 1];
    a.read_exact(&mut done).expect("bare answer");
    start.elapsed()
}

fn bare_peer(mut b: TcpStream, wire_len: usize) {
    let mut buf = vec![0u8; wire_len];
    loop {
        for _ in 0..BURST {
            if b.read_exact(&mut buf).is_err() {
                return;
            }
        }
        std::hint::black_box(&buf);
        if b.write_all(&[1]).is_err() {
            return;
        }
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn main() {
    banner(
        "fabric_frame_path",
        "2 MiB messages: loopback mesh vs bare TcpStream, same bytes",
    );
    let chunk: Vec<f32> = (0..ELEMS).map(|i| (i as f32).sin()).collect();
    let msg = Msg::Done {
        task: TaskId(0),
        payload: Some(Arc::new(Payload::Raw(chunk))),
        iter: 0,
    };
    let wire = msg.to_bytes();
    let burst_bytes = (BURST * wire.len()) as f64;

    let (mut mesh, mesh_b) = mesh_pair();
    let (mut bare, bare_b) = stream_pair();
    let wire_len = wire.len();
    let (mesh_s, bare_s, ratios) = std::thread::scope(|scope| {
        scope.spawn(move || mesh_peer(mesh_b));
        scope.spawn(move || bare_peer(bare_b, wire_len));
        // Warm both paths (socket buffers autotune, allocator warms).
        mesh_burst(&mut mesh, &msg);
        bare_burst(&mut bare, &wire);
        let (mut mesh_s, mut bare_s, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..ROUNDS {
            let m = mesh_burst(&mut mesh, &msg).as_secs_f64();
            let b = bare_burst(&mut bare, &wire).as_secs_f64();
            mesh_s.push(m);
            bare_s.push(b);
            ratios.push(m / b);
        }
        // Release both peers before the scope joins them.
        let _ = mesh.send(1, Msg::Abort);
        drop(mesh);
        drop(bare);
        (mesh_s, bare_s, ratios)
    });

    let (mesh_gbps, bare_gbps) = (
        burst_bytes / median(mesh_s) / 1e9,
        burst_bytes / median(bare_s) / 1e9,
    );
    let ratio = median(ratios);
    println!(
        "mesh {mesh_gbps:.2} GB/s   bare stream {bare_gbps:.2} GB/s   overhead ratio {ratio:.2} (ceiling {MAX_OVERHEAD_RATIO})"
    );
    let rec = Recorder::new("fabric_frame_path");
    rec.record("mesh_oneway_gbps", &[], mesh_gbps, None);
    rec.record("bare_stream_gbps", &[], bare_gbps, None);
    rec.record("overhead_ratio", &[], ratio, None);
    rec.finish();
    assert!(
        ratio <= MAX_OVERHEAD_RATIO,
        "the mesh costs {ratio:.2}x a bare stream for the same bytes (ceiling {MAX_OVERHEAD_RATIO}x)"
    );
}
