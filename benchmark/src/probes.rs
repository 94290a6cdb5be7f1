//! Layer probes: harness-side `Instant` spans around the public call
//! into each layer, on inputs sized to the workload — its algorithm,
//! its largest chunk, its backend — so a probe prices the layer as
//! this workload uses it.
//!
//! A probe that does not apply (codec on an uncompressed workload,
//! process launch on a thread workload) reports 0: the layer is not on
//! that workload's path.

use crate::layers::task_count;
use crate::stats::median;
use crate::workloads::{gradients, Workload};
use crate::Metric;
use hipress::casync::{
    ClusterConfig, CompressionSpec, GradPlan, IterationSpec, SyncGradient, TaskId,
};
use hipress::fabric::frame::{Frame, FrameKind};
use hipress::fabric::tcp::{connect_mesh, MeshConfig};
use hipress::fabric::{
    ChannelFabric, Fabric, Link, LinkTuning, RelRx, RelTx, RxVerdict, TcpLink, WireMsg,
};
use hipress::prelude::*;
use hipress::runtime::{Msg, Payload};
use std::hint::black_box;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Probes per workload; each gets an equal slice of the probe time.
const PROBES: f64 = 12.0;
/// A batch of calls is timed as one span when a single call is too
/// short for the clock: small chunks are batched up to this many.
const MAX_BATCH: usize = 64;
/// Elements per workload gradient in the dispatch-cost probe: small
/// enough that a task is all overhead.
const EMPTY_GRAD_ELEMS: usize = 64;
/// How long a fabric probe waits for its echo before giving up.
const ECHO_TIMEOUT: Duration = Duration::from_secs(10);

/// Median nanoseconds per call of `run` over `slice` (at least one
/// measurement). Each measurement builds `batch` inputs with `setup`
/// off the clock, times the calls back to back, and drops the outputs
/// after the clock stops.
fn time_calls<I, O>(
    slice: Duration,
    batch: usize,
    mut setup: impl FnMut() -> I,
    mut run: impl FnMut(I) -> Result<O, String>,
) -> Result<f64, String> {
    let mut per_call = Vec::new();
    let started = Instant::now();
    loop {
        let inputs: Vec<I> = (0..batch).map(|_| setup()).collect();
        let mut outputs = Vec::with_capacity(batch);
        let t0 = Instant::now();
        for input in inputs {
            outputs.push(black_box(run(black_box(input))));
        }
        per_call.push(t0.elapsed().as_nanos() as f64 / batch as f64);
        outputs.into_iter().collect::<Result<Vec<O>, String>>()?;
        if started.elapsed() >= slice {
            return Ok(median(&per_call));
        }
    }
}

/// A payload-free completion: the smallest message the runtime sends.
/// The fabric probes use it as ping, echo and end-of-burst marker.
fn ping() -> Msg {
    Msg::Done {
        task: TaskId(0),
        payload: None,
        iter: 0,
    }
}

/// The peer side of the fabric probes: echoes every payload-free
/// completion, swallows payload-carrying ones, leaves on `Abort`.
fn echo(mut link: impl Link<Msg = Msg>) {
    loop {
        match link.recv_timeout(ECHO_TIMEOUT) {
            Ok(Some(Msg::Done { payload: None, .. })) => {
                if link.send(0, ping()).is_err() {
                    return;
                }
            }
            Ok(Some(Msg::Done { .. })) => {}
            Ok(Some(_)) | Ok(None) | Err(_) => return,
        }
    }
}

fn await_echo(link: &mut impl Link<Msg = Msg>) -> Result<(), String> {
    match link.recv_timeout(ECHO_TIMEOUT) {
        Ok(Some(Msg::Done { .. })) => Ok(()),
        Ok(other) => Err(format!("fabric probe: expected an echo, got {other:?}")),
        Err(e) => Err(format!("fabric probe: {e}")),
    }
}

/// Round trip of a ping in µs, and one-way goodput in GB/s of `msg`
/// sent `burst` times back to back (the clock stops when the peer
/// echoes the end-of-burst marker, i.e. has received all of it).
fn fabric_probe<L: Link<Msg = Msg>>(
    mut a: L,
    b: L,
    msg: &Msg,
    wire_len: usize,
    slice: Duration,
) -> Result<(f64, f64), String> {
    let burst = (8 * 1024 * 1024 / wire_len).clamp(4, 4096);
    std::thread::scope(|scope| {
        let peer = scope.spawn(move || echo(b));
        let result = (|| {
            let rtt_ns = time_calls(
                slice / 2,
                1,
                || (),
                |()| {
                    a.send(1, ping()).map_err(|e| e.to_string())?;
                    await_echo(&mut a)
                },
            )?;
            let burst_ns = time_calls(
                slice / 2,
                1,
                || (),
                |()| {
                    for _ in 0..burst {
                        a.send(1, msg.clone()).map_err(|e| e.to_string())?;
                    }
                    a.send(1, ping()).map_err(|e| e.to_string())?;
                    await_echo(&mut a)
                },
            )?;
            Ok((rtt_ns / 1e3, (burst * wire_len) as f64 / burst_ns))
        })();
        // Whatever happened, release the peer before joining it.
        let _ = a.send(1, Msg::Abort);
        drop(a);
        peer.join()
            .map_err(|_| "fabric probe: echo thread panicked".to_string())?;
        result
    })
}

/// A two-rank loopback TCP mesh inside this process.
fn tcp_pair() -> Result<(TcpLink<Msg>, TcpLink<Msg>), String> {
    let bind = || TcpListener::bind("127.0.0.1:0").map_err(|e| format!("fabric probe: {e}"));
    let (l0, l1) = (bind()?, bind()?);
    let addr = |l: &TcpListener| l.local_addr().map_err(|e| format!("fabric probe: {e}"));
    let peers = [addr(&l0)?, addr(&l1)?];
    let config = MeshConfig::default();
    std::thread::scope(|scope| {
        let dialer = scope.spawn(|| connect_mesh::<Msg>(1, 2, l1, &peers, &config));
        let a = connect_mesh::<Msg>(0, 2, l0, &peers, &config);
        let b = dialer
            .join()
            .map_err(|_| "fabric probe: dialer panicked".to_string())?;
        Ok((
            a.map_err(|e| format!("fabric probe: rank 0: {e}"))?,
            b.map_err(|e| format!("fabric probe: rank 1: {e}"))?,
        ))
    })
}

/// The iteration spec `HiPress::sync` builds for this workload.
fn iteration_spec(w: &Workload) -> IterationSpec {
    let compressor = w.algorithm.build();
    IterationSpec {
        gradients: w
            .set
            .sizes()
            .iter()
            .enumerate()
            .map(|(g, &n)| SyncGradient {
                name: format!("g{g}"),
                bytes: n as u64 * 4,
                ready_offset_ns: 0,
                plan: GradPlan {
                    compress: compressor.is_some(),
                    partitions: w.ranks,
                },
            })
            .collect(),
        compression: compressor.as_deref().map(CompressionSpec::of),
    }
}

/// Every probe over one workload, in catalogue order.
pub fn run(w: &Workload, seed: u64, seconds: f64) -> Result<Vec<Metric>, String> {
    let slice = Duration::from_secs_f64(seconds / PROBES);
    let elems = w.largest_chunk();
    let batch = (65_536 / elems).clamp(1, MAX_BATCH);
    let chunk = gradients(&[elems], 1, seed).remove(0).remove(0).into_vec();
    let raw_bytes = (elems * 4) as f64;
    let infallible = |v| Ok::<_, String>(v);

    // Codec: the compressor on one largest chunk. GB/s of dense f32
    // consumed (encode) or produced (decode).
    let compressor = w.algorithm.build();
    let (encode_gbps, decode_gbps, payload) = match compressor.as_deref() {
        Some(c) => {
            let encoded = c.encode(&chunk, seed);
            let enc_ns = time_calls(slice, batch, || (), |()| infallible(c.encode(&chunk, seed)))?;
            let dec_ns = time_calls(
                slice,
                batch,
                || (),
                |()| c.decode(&encoded).map_err(|e| e.to_string()),
            )?;
            (
                raw_bytes / enc_ns,
                raw_bytes / dec_ns,
                Payload::Compressed(encoded),
            )
        }
        None => (0.0, 0.0, Payload::Raw(chunk)),
    };

    // Wire: the TLV form of the message that carries that chunk.
    let msg = Msg::Done {
        task: TaskId(0),
        payload: Some(Arc::new(payload)),
        iter: 0,
    };
    let wire = msg.to_bytes();
    let wire_bytes = wire.len() as f64;
    let wire_enc_ns = time_calls(slice, batch, || (), |()| infallible(msg.to_bytes()))?;
    let wire_dec_ns = time_calls(
        slice,
        batch,
        || (),
        |()| Msg::from_bytes(&wire).map_err(|e| e.to_string()),
    )?;

    // Frame: checksummed framing of those wire bytes, as TcpLink does
    // it on send (`new` + `encode`) and its reader thread on receive.
    let frame_enc_ns = time_calls(
        slice,
        batch,
        || wire.clone(),
        |payload| infallible(Frame::new(FrameKind::Data, 0, 0, payload).encode()),
    )?;
    let framed = Frame::new(FrameKind::Data, 0, 0, wire.clone()).encode();
    let frame_dec_ns = time_calls(
        slice,
        batch,
        || (),
        |()| {
            let frame = Frame::decode_body(&framed[4..]).map_err(|e| e.to_string())?;
            if frame.verify() {
                Ok(frame)
            } else {
                Err("frame probe: checksum mismatch".to_string())
            }
        },
    )?;

    // Reliability: one frame through prepare -> accept -> ack.
    let mut tx = RelTx::new(0, LinkTuning::default(), Instant::now());
    let mut rx = RelRx::new();
    let cycle_ns = time_calls(
        slice,
        batch,
        || wire.clone(),
        |payload| {
            let frame = tx.prepare(payload, Instant::now());
            if rx.accept(&frame) == RxVerdict::Deliver && tx.on_ack(frame.seq) {
                Ok(())
            } else {
                Err("reliability probe: frame not delivered".to_string())
            }
        },
    )?;

    // Fabric: the workload's own transport between two ranks.
    let (rtt_us, oneway_gbps) = if w.processes {
        let (a, b) = tcp_pair()?;
        fabric_probe(a, b, &msg, wire.len(), slice * 2)?
    } else {
        let mut fabric: ChannelFabric<Msg> = ChannelFabric::new(2);
        let (a, b) = (fabric.link(0), fabric.link(1));
        fabric_probe(
            a.expect("fresh fabric link"),
            b.expect("fresh fabric link"),
            &msg,
            wire.len(),
            slice * 2,
        )?
    };

    // Scheduler: the pipelined thread driver on this workload's
    // gradient count, window and K with near-empty gradients and no
    // compressor, so wall / tasks is dispatch cost and nothing else.
    let empty = gradients(&vec![EMPTY_GRAD_ELEMS; w.set.sizes().len()], w.ranks, seed);
    let dispatch = HiPress::new(w.strategy)
        .partitions(w.ranks)
        .backend(Backend::Threads(w.ranks))
        .iterations(w.iters)
        .pipeline_window(w.window);
    let mut tasks = 0u64;
    let dispatch_ns = time_calls(
        slice,
        1,
        || (),
        |()| {
            let out = dispatch.sync(&empty).map_err(|e| e.to_string())?;
            tasks = task_count(&out.report.ok_or("dispatch probe: no report")?);
            Ok(())
        },
    )?;

    // Graph construction for the workload's real iteration spec.
    let spec = iteration_spec(w);
    let cluster = ClusterConfig::ec2(w.ranks);
    let build_ns = time_calls(
        slice,
        1,
        || (),
        |()| w.strategy.build(&cluster, &spec).map_err(|e| e.to_string()),
    )?;

    // Process launch: spawn, rendezvous, mesh, one near-empty
    // iteration, outcome, reap.
    let launch_ms = if w.processes {
        let one = gradients(&[EMPTY_GRAD_ELEMS], 2, seed);
        let job = HiPress::new(Strategy::CaSyncPs).backend(Backend::Processes(2));
        let ns = time_calls(
            slice,
            1,
            || (),
            |()| job.sync(&one).map_err(|e| e.to_string()),
        )?;
        ns / 1e6
    } else {
        0.0
    };

    Ok(vec![
        ("codec.encode_gbps", encode_gbps),
        ("codec.decode_gbps", decode_gbps),
        ("wire.encode_gbps", wire_bytes / wire_enc_ns),
        ("wire.decode_gbps", wire_bytes / wire_dec_ns),
        ("frame.encode_gbps", wire_bytes / frame_enc_ns),
        ("frame.decode_gbps", wire_bytes / frame_dec_ns),
        ("rel.frame_cycle_ns", cycle_ns),
        ("fabric.rtt_us", rtt_us),
        ("fabric.oneway_gbps", oneway_gbps),
        ("sched.task_us", dispatch_ns / 1e3 / tasks.max(1) as f64),
        ("core.graph_build_ms", build_ns / 1e6),
        ("process.launch_ms", launch_ms),
    ])
}
