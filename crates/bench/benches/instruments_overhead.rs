//! What the instruments cost: the same work with and without each
//! attached, as extra process CPU (the paired, tick-sized harness of
//! `hipress_bench::overhead`). Rows:
//!
//! * `recorder` — the always-on flight recorder every process-backend
//!   worker keeps hot, over a real two-rank loopback TCP mesh;
//! * `telemetry` — the live telemetry plane on the pipelined thread
//!   engine: progress hook, watchdog, ring, a bound server and a live
//!   `/events` subscriber streaming every record;
//! * `all` — the telemetry row's run with the tracer and metrics
//!   attached too (measured, not gated);
//! * `chaos` — the fault-tolerant frame protocol (serialization,
//!   sequence numbers, checksums, acks, dedup) under an empty fault
//!   plan against the trusting fast path. Only the compressed cells,
//!   the configurations the system ships, are gated, in aggregate.
//!
//! A gated row must cost under 5 % on one of three attempts.

use hipress::chaos::FaultPlan;
use hipress::obs::{serve, Server, Telemetry};
use hipress::prelude::*;
use hipress::tensor::synth::{generate, GradientShape};
use hipress::tensor::Tensor;
use hipress_bench::overhead::{run_row, Cell, ATTEMPTS, BUDGET_PCT, MIN_BARE_TICKS, PAIRS};
use hipress_bench::{banner, Recorder};
use hipress_fabric::tcp::{connect_mesh, MeshConfig};
use hipress_fabric::{FlightRecorder, Link};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The recorder row's unit of work: an exchange of `MSGS` messages of
/// `PAYLOAD` bytes per rank. The exchange is lockstep, so at most one
/// data frame and one ack are in flight per direction, well under the
/// loopback socket buffers. (The harness sets how many units a sample
/// runs.)
const MSGS: usize = 16384;
const PAYLOAD: usize = 8 * 1024;
/// The telemetry rows' unit: one pipelined sync.
const NODES: usize = 2;
const ITERS: u32 = 1280;
const WINDOW: u32 = 2;

hipress::util::record! {
    /// An opaque payload; encoding is a length-prefixed copy, so the run
    /// measures the fabric (framing, checksums, acks, recording), not an
    /// application codec.
    struct Blob {
        bytes: Vec<u8>,
    }
}

fn grads(sizes: &[usize], stride: usize) -> Vec<Vec<Tensor>> {
    (0..NODES)
        .map(|w| {
            sizes
                .iter()
                .enumerate()
                .map(|(g, &n)| {
                    generate(
                        n,
                        GradientShape::Gaussian { std_dev: 1.0 },
                        (w * stride + g) as u64,
                    )
                })
                .collect()
        })
        .collect()
}

/// One full exchange: build a fresh two-rank loopback mesh (rank 1 on
/// a helper thread), have both ranks send [`MSGS`] blobs and receive
/// as many, tear the mesh down. Returns the events the recorders
/// captured (0 when recording is off).
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
    let handles: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(rank, listener)| {
            let peers = addrs.clone();
            let cfg = MeshConfig {
                recorder: recorders[rank].clone(),
                ..MeshConfig::default()
            };
            std::thread::spawn(move || {
                let mut link = connect_mesh::<Blob>(rank, 2, listener, &peers, &cfg).expect("mesh");
                // Both sides send first, so the lockstep cannot deadlock.
                for _ in 0..MSGS {
                    let bytes = vec![rank as u8; PAYLOAD];
                    link.send(1 - rank, Blob { bytes }).expect("send");
                    let msg = link
                        .recv_timeout(Duration::from_secs(10))
                        .expect("recv")
                        .unwrap_or_else(|| panic!("rank {rank}: peer silent mid-exchange"));
                    assert_eq!(msg.bytes.len(), PAYLOAD);
                }
                assert_eq!(link.counters().frames, MSGS as u64);
            })
        })
        .collect();
    for h in handles {
        h.join().expect("rank thread panicked");
    }
    recorders.iter().flatten().map(|r| r.recorded()).sum()
}

/// What a pipelined sync runs with.
#[derive(Clone, Copy, PartialEq)]
enum Attached {
    Nothing,
    Telemetry,
    Everything,
}

/// One sync of [`ITERS`] iterations at window [`WINDOW`]. Attached,
/// the run publishes every retired iteration into a hub served over a
/// real socket, with an `/events` subscriber consuming the stream end
/// to end, and `Everything` also traces and records metrics into the
/// hub's registry, as the CLI's `--listen` does. Returns the records
/// published (0 when nothing is attached).
fn run_sync(grads: &[Vec<Tensor>], attached: Attached) -> u64 {
    let builder = HiPress::new(Strategy::CaSyncRing)
        .algorithm(Algorithm::OneBit)
        .partitions(2)
        .seed(3)
        .backend(Backend::Threads(NODES))
        .iterations(ITERS)
        .pipeline_window(WINDOW);
    if attached == Attached::Nothing {
        builder.sync(grads).expect("bare sync");
        return 0;
    }
    let hub = Telemetry::new(Registry::new());
    let server = Server::bind("127.0.0.1:0", hub.clone()).expect("bind telemetry");
    let addr = server.addr().to_string();
    let client = std::thread::spawn(move || serve::fetch(&addr, "/events", None));
    let mut builder = builder.telemetry(&hub);
    if attached == Attached::Everything {
        builder = builder
            .trace(&Tracer::new("instruments_overhead"))
            .metrics(&hub.registry().root());
    }
    builder.sync(grads).expect("instrumented sync");
    hub.mark_done();
    let (status, body) = client
        .join()
        .expect("events client")
        .expect("events stream");
    assert_eq!(status, 200);
    let streamed = body.lines().count() as u64;
    server.stop();
    let published = hub.records_published();
    assert_eq!(
        streamed, published,
        "the /events subscriber must see every published record"
    );
    published
}

/// A telemetry row's cell: bare against `attached`; every retired
/// iteration must have published one record.
fn telemetry_cell<'a>(grads: &'a [Vec<Tensor>], attached: Attached, gated: bool) -> Cell<'a> {
    Cell::timed(
        format!("{NODES} x {ITERS} iters (w{WINDOW})"),
        gated,
        move |on| run_sync(grads, if on { attached } else { Attached::Nothing }),
        |on, &published| {
            if on {
                assert_eq!(published, u64::from(ITERS) * NODES as u64);
            }
        },
    )
}

/// Every installed bit of a sync, folded, so a cell can compare its
/// runs without keeping one.
fn digest(out: &SyncOutcome) -> u64 {
    out.flows
        .iter()
        .flat_map(|f| f.per_node.iter().flatten())
        .fold(0xcbf2_9ce4_8422_2325, |h, x| {
            (h ^ u64::from(x.to_bits())).wrapping_mul(0x0100_0000_01b3)
        })
}

/// The frame-protocol cells: each strategy and algorithm on the fast
/// path against the fault-tolerant one with no faults. Every run must
/// install the same bits, and the empty plan inject nothing
/// (retries may be non-zero: a busy receiver acking late is protocol
/// bookkeeping, not a fault).
fn chaos_cells(workers: &[Vec<Tensor>]) -> Vec<Cell<'_>> {
    let mut cells = Vec::new();
    for strategy in [Strategy::CaSyncPs, Strategy::CaSyncRing] {
        for alg in [
            Algorithm::None,
            Algorithm::OneBit,
            Algorithm::TernGrad { bitwidth: 2 },
        ] {
            let fast = HiPress::new(strategy)
                .algorithm(alg)
                .partitions(4)
                .backend(Backend::Threads(NODES));
            let ft = fast
                .clone()
                .fault_tolerance(FaultTolerance::default())
                .chaos(&FaultPlan::none(0));
            let mut reference = None;
            cells.push(Cell::timed(
                format!("{strategy:?} {}", alg.label()),
                alg != Algorithm::None,
                move |on| (if on { &ft } else { &fast }).sync(workers).expect("sync"),
                move |on, out| {
                    let bits = digest(out);
                    assert_eq!(
                        *reference.get_or_insert(bits),
                        bits,
                        "the runs installed different bits"
                    );
                    let injected = out.report.as_ref().map(|r| r.faults.total_injected());
                    assert!(!on || injected == Some(0), "an empty fault plan injected");
                },
            ));
        }
    }
    cells
}

fn main() {
    banner(
        "instruments_overhead",
        "extra CPU of the recorder, telemetry, everything, and the frame protocol",
    );
    let started = Instant::now();
    let rec = Recorder::new("instruments_overhead");
    println!(
        "\n{PAIRS} interleaved pairs per cell, each sample sized to a bare median of \
         >= {MIN_BARE_TICKS} CPU ticks; gated rows: < {BUDGET_PCT}% extra CPU on one of \
         {ATTEMPTS} attempts\n"
    );
    let telemetry_grads = grads(&[131072, 16384], 1000);
    // Multi-megabyte gradients, the scale the paper's models ship,
    // where checksum cost would show if it were material.
    let chaos_grads = grads(&[1 << 23, 1 << 20, 65536], 7919);
    let rows = [
        (
            "recorder",
            vec![Cell::timed(
                format!("2 x {MSGS} x {}KiB TCP", PAYLOAD / 1024),
                true,
                run_exchange,
                |on, &events| assert!(!on || events > 0, "the recorder captured nothing"),
            )],
        ),
        (
            "telemetry",
            vec![telemetry_cell(&telemetry_grads, Attached::Telemetry, true)],
        ),
        (
            "all",
            vec![telemetry_cell(
                &telemetry_grads,
                Attached::Everything,
                false,
            )],
        ),
        ("chaos", chaos_cells(&chaos_grads)),
    ];
    let outcomes: Vec<_> = rows
        .into_iter()
        .map(|(name, cells)| {
            println!("--- {name} ---");
            run_row(name, cells, &rec)
        })
        .collect();
    for o in &outcomes {
        let bare: Vec<i64> = o.readings.iter().flatten().map(|r| r.bare).collect();
        let attempts: Vec<String> = o.pct.iter().map(|p| format!("{p:+.1}%")).collect();
        println!(
            "{:<9} bare {}-{} ticks, attempts {}: {}",
            o.name,
            bare.iter().min().unwrap_or(&0),
            bare.iter().max().unwrap_or(&0),
            attempts.join(" "),
            o.verdict()
        );
    }
    println!("wall {:.0} s", started.elapsed().as_secs_f64());
    rec.finish();
    let failed: Vec<&str> = outcomes
        .iter()
        .filter(|o| o.verdict() == "FAIL")
        .map(|o| o.name)
        .collect();
    assert!(
        failed.is_empty(),
        "over the {BUDGET_PCT}% budget on every attempt: {failed:?}"
    );
}
