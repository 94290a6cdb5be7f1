//! Overhead of the always-on flight recorder on the TCP fabric: the
//! same two-rank message exchange over a real loopback mesh, with and
//! without a recorder attached. The recorder is the crash-forensics
//! ring every process-backend worker keeps hot — it must be cheap
//! enough to never turn off, so the gate requires its aggregate CPU
//! cost to stay under 5%.
//!
//! Like `chaos_overhead`, the gate compares process CPU time, not
//! wall clock: identical runs on a shared host vary multi-x in wall
//! time with background load, while CPU time measures the work the
//! recorder actually adds. Runs are interleaved in pairs and the
//! *paired* delta is taken, which cancels ambient drift; the median
//! over pairs discards the reps a load burst still splits.

use hipress_bench::{banner, cpu_ticks, median, Recorder};
use hipress_fabric::tcp::{connect_mesh, MeshConfig};
use hipress_fabric::{FlightRecorder, Link};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

const REPS: usize = 7;
const BUDGET_PCT: f64 = 5.0;
const MAX_ATTEMPTS: usize = 3;
/// Messages each rank sends per run; with [`PAYLOAD`] sized so one
/// run costs close to a second of CPU, making a single 10ms tick of
/// the CPU clock the gate reads worth ~1% — fine enough to resolve
/// the 5% budget. Frames stay well under the loopback socket buffers
/// because the exchange is lockstep (at most one data frame and one
/// ack in flight per direction).
const MSGS: usize = 16384;
const PAYLOAD: usize = 8 * 1024;

hipress::util::record! {
    /// An opaque payload; encoding is a length-prefixed copy, so the run
    /// measures the fabric (framing, checksums, acks, recording), not an
    /// application codec.
    struct Blob {
        bytes: Vec<u8>,
    }
}

/// One full exchange: build a fresh two-rank loopback mesh (rank 1 on
/// a helper thread), have both ranks send [`MSGS`] blobs and receive
/// as many, tear the mesh down. Returns the events the recorder
/// captured (0 when recording was off).
fn run_exchange(record: bool) -> u64 {
    let recorders: Vec<Option<Arc<FlightRecorder>>> = (0..2)
        .map(|_| record.then(|| Arc::new(FlightRecorder::new(Instant::now()))))
        .collect();
    let listeners: Vec<TcpListener> = (0..2)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
        .collect();
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr"))
        .collect();
    let config = |rec: &Option<Arc<FlightRecorder>>| MeshConfig {
        recorder: rec.clone(),
        ..MeshConfig::default()
    };

    let mut handles = Vec::new();
    for (rank, listener) in listeners.into_iter().enumerate() {
        let peers = addrs.clone();
        let cfg = config(&recorders[rank]);
        handles.push(std::thread::spawn(move || {
            let mut link = connect_mesh::<Blob>(rank, 2, listener, &peers, &cfg).expect("mesh");
            // Lockstep: send one, wait for the peer's one. Both sides
            // send first, so the exchange cannot deadlock, and at
            // most one data frame (plus its ack) is in flight per
            // direction — far below the loopback socket buffers.
            for _ in 0..MSGS {
                link.send(
                    1 - rank,
                    Blob {
                        bytes: vec![rank as u8; PAYLOAD],
                    },
                )
                .expect("send");
                let msg = loop {
                    match link.recv_timeout(Duration::from_secs(10)).expect("recv") {
                        Some(msg) => break msg,
                        None => panic!("rank {rank}: peer silent mid-exchange"),
                    }
                };
                assert_eq!(msg.bytes.len(), PAYLOAD);
            }
            assert_eq!(link.counters().frames, MSGS as u64);
        }));
    }
    for h in handles {
        h.join().expect("rank thread panicked");
    }
    recorders.iter().flatten().map(|r| r.recorded()).sum()
}

fn main() {
    banner(
        "recorder_overhead",
        "cost of the always-on flight recorder on the TCP fabric",
    );
    let rec = Recorder::new("recorder_overhead");
    println!(
        "\n2 ranks x {MSGS} messages x {}KiB over loopback TCP, {REPS} interleaved \
         pairs per attempt; gate: recorder < {BUDGET_PCT}% extra CPU\n",
        PAYLOAD / 1024
    );
    let mut aggregate = f64::MAX;
    for attempt in 1..=MAX_ATTEMPTS {
        let mut bare = Vec::new();
        let mut deltas = Vec::new();
        let mut events = 0u64;
        for rep in 0..REPS {
            // Alternate which path goes first so warmup and frequency
            // drift cannot systematically favor one side.
            let mut order = [(false, 0usize), (true, 1usize)];
            if rep % 2 == 1 {
                order.swap(0, 1);
            }
            let mut spent = [0i64; 2];
            for (record, slot) in order {
                let before = cpu_ticks();
                let captured = run_exchange(record);
                spent[slot] = (cpu_ticks() - before) as i64;
                if record {
                    assert!(captured > 0, "recorder attached but captured nothing");
                    events = captured;
                }
            }
            bare.push(spent[0]);
            deltas.push(spent[1] - spent[0]);
        }
        let base = median(bare).max(1);
        let delta = median(deltas);
        aggregate = 100.0 * delta as f64 / base as f64;
        let att = attempt.to_string();
        rec.record(
            "recorder_overhead_pct",
            &[("attempt", att.as_str())],
            aggregate,
            None,
        );
        println!(
            "attempt {attempt}: median CPU bare {base} ticks, recorder delta {delta:+} \
             ticks ({aggregate:+.1}%), ring held {events} events"
        );
        if aggregate < BUDGET_PCT {
            break;
        }
        if attempt < MAX_ATTEMPTS {
            println!("  over budget — remeasuring");
        }
    }
    assert!(
        aggregate < BUDGET_PCT,
        "flight recorder CPU overhead {aggregate:.1}% blows the {BUDGET_PCT}% budget \
         on every attempt"
    );
    println!("recorder CPU overhead: {aggregate:+.1}% (< {BUDGET_PCT}% budget)");
    rec.finish();
}
