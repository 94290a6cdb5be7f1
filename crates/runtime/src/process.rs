//! Multi-process CaSync-RT: one OS process per node over a loopback
//! TCP mesh.
//!
//! [`run_processes`] is the coordinator. It binds a rendezvous
//! socket, spawns one worker process per node (`hipress node
//! --connect ADDR --rank R --nodes N` — the binary re-executes
//! itself), and speaks a small length-prefixed control protocol with
//! each child:
//!
//! 1. Child binds its mesh listener, dials the coordinator, and sends
//!    [`Ctl::Hello`] with its rank and mesh port.
//! 2. Once every rank has checked in, the coordinator sends each a
//!    [`Ctl::Job`]: the full synchronization spec (strategy,
//!    algorithm, partitions, seed, runtime knobs, pipeline shape),
//!    every rank's mesh port, and *that rank's* gradient tensors
//!    only — each worker owns its own data, exactly as real data
//!    parallel training does.
//! 3. Children build the identical task graph from the spec, connect
//!    the full TCP mesh ([`hipress_fabric::tcp::connect_mesh`]), and
//!    run the pipelined driver ([`crate::pipeline`]) over it.
//! 4. Each child reports [`Ctl::Outcome`] (its updated chunks and
//!    measured report) or [`Ctl::Failed`], then *holds its mesh link
//!    open* until the coordinator's [`Ctl::Shutdown`] — reader
//!    threads keep servicing peers' acks, so a fast finisher never
//!    tears the sockets down under a slow one.
//!
//! The child rebuilds its graph from the same inputs the in-process
//! backends use, and every node's flow lengths are known from the
//! spec (ranks zero-fill the tensors they do not own; the dataflow
//! only ever reads a node's own flows at `Source`). Together with the
//! per-task codec seeding this makes the process backend bit-for-bit
//! identical to [`Backend::Threads`][crate::Backend::Threads] and the
//! interpreter.
//!
//! A worker that dies mid-protocol (crash, kill, [`ProcessConfig::
//! kill_node`] fault injection) surfaces twice: survivors diagnose
//! the dead mesh link and report a structured failure naming the dead
//! rank, and the coordinator sees the child's control stream close
//! without an outcome. Either way [`run_processes`] returns a
//! [`SyncFailure`] naming the dead node — never a hang.

use crate::engine::{
    record_run_metrics, record_run_span, replicate, root_cause, single_node_trace, Cell,
    FlowLayout, Instruments, Msg, NodeMetrics, NodePlan, RunOutcome, RuntimeConfig,
};
use crate::observe::{
    get_trace, put_trace, record_clock_meta, replay_into, ClockSync, PostmortemDump, RankFlight,
    UNKNOWN_NODE,
};
use crate::pipeline::{drive_node, fabric_err, validate, ElasticHooks, PipelineConfig};
use crate::report::{DegradeAction, FaultReport, PrimStat, RuntimeReport, StragglerVerdict};
use hipress_compress::Algorithm;
use hipress_core::{
    ClusterConfig, CompressionSpec, GradPlan, IterationSpec, Strategy, SyncGradient,
};
use hipress_fabric::codec::{read_exact_vec, write_all_vectored};
use hipress_fabric::tcp::{connect_mesh, MeshConfig};
use hipress_fabric::{
    DecodeError, FlightEvent, FlightRecorder, LinkTuning, Reader, WireMsg, Writer,
};
use hipress_metrics::MetricsSnapshot;
use hipress_obs::{IterRecord, ProgressSink};
use hipress_tensor::Tensor;
use hipress_trace::{Trace, Tracer};
use hipress_util::{Error, Result, SyncFailure, SyncFailureKind};
use std::collections::HashMap;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Inherited marker that a process *is* a spawned worker. A worker
/// binary that fails to dispatch the `node` subcommand re-runs its
/// caller's `main` instead; if that path reaches [`run_processes`]
/// again, the guard turns what would be a process fork-bomb into an
/// immediate configuration error.
const SPAWN_GUARD_ENV: &str = "HIPRESS_SPAWNED_WORKER";

pub mod elastic;

/// How the coordinator launches and supervises worker processes.
#[derive(Debug, Clone, Default)]
pub struct ProcessConfig {
    /// The worker binary to execute with `node --connect ...`. When
    /// unset, `HIPRESS_NODE_BIN` is consulted, then the current
    /// executable (the `hipress` CLI re-executes itself).
    pub binary: Option<PathBuf>,
    /// Fault injection: this rank exits mid-protocol right after mesh
    /// setup, exercising the dead-link diagnosis end to end.
    pub kill_node: Option<usize>,
    /// How long workers may take to check in at rendezvous.
    /// `Duration::ZERO` means the 10 s default.
    pub connect_timeout: Duration,
    /// How long each worker may take to report its outcome.
    /// `Duration::ZERO` means the 60 s default.
    pub run_timeout: Duration,
    /// Where to write a serialized [`PostmortemDump`] when the run
    /// fails: every surviving rank's flight-recorder ring plus the
    /// diagnosed root cause, rendered later by `hipress postmortem`.
    /// `None` skips the dump.
    pub flight_dump: Option<PathBuf>,
}

impl ProcessConfig {
    fn connect_deadline(&self) -> Duration {
        if self.connect_timeout.is_zero() {
            Duration::from_secs(10)
        } else {
            self.connect_timeout
        }
    }

    fn run_deadline(&self) -> Duration {
        if self.run_timeout.is_zero() {
            Duration::from_secs(60)
        } else {
            self.run_timeout
        }
    }
}

/// Everything a worker needs to run its share of one synchronization
/// job: the spec to rebuild the graph from, the runtime knobs, the
/// mesh topology, and this rank's own gradients.
struct Job {
    strategy: Strategy,
    algorithm: Algorithm,
    partitions: u32,
    seed: u64,
    nodes: u32,
    rank: u32,
    config: RuntimeConfig,
    iterations: u32,
    window: u32,
    /// Exit mid-protocol after mesh setup (fault injection).
    kill: bool,
    /// Record a per-rank trace and ship it with the outcome.
    want_trace: bool,
    /// Record per-rank metrics and ship a snapshot with the outcome.
    want_metrics: bool,
    /// Stream per-iteration [`Ctl::Progress`] frames back over the
    /// control channel as iterations retire (live telemetry).
    want_progress: bool,
    /// Element count of every gradient (identical across ranks).
    grad_lens: Vec<u32>,
    /// This rank's gradient values, parallel to `grad_lens`.
    grads: Vec<Vec<f32>>,
    /// Every rank's mesh listener port, indexed by rank.
    mesh_ports: Vec<u16>,
    /// This job is one segment of an elastic run: after it ends the
    /// worker must hold its control link and wait for an
    /// [`Msg::EpochBump`] (next segment) or `Shutdown` instead of
    /// exiting, and `rank` is a per-segment *slot*, not the worker's
    /// global rank.
    elastic: bool,
    /// Membership epoch this segment runs under (0 on fixed runs).
    epoch: u64,
    /// Global iteration number of this segment's first iteration —
    /// workers stamp it onto progress records so the coordinator's
    /// timeline is globally numbered across segments.
    base_iter: u32,
    /// Crash injection: exit hard (no abort broadcast) once this many
    /// segment-local iterations have retired.
    die_at_iter: Option<u32>,
}

/// The coordinator-worker control protocol.
enum Ctl {
    /// Worker → coordinator: `rank` is listening for mesh peers on
    /// `mesh_port`.
    Hello { rank: u32, mesh_port: u16 },
    /// Coordinator → worker: the job to run.
    Job(Box<Job>),
    /// Worker → coordinator: the protocol completed; here are the
    /// updated chunk values `(flow, part, elements)`, the measured
    /// report, the optional per-rank trace and metrics snapshot
    /// (JSON), and the flight-recorder ring.
    Outcome {
        cells: Vec<(u32, u32, Vec<f32>)>,
        report: RuntimeReport,
        trace: Option<Trace>,
        metrics: Option<String>,
        flight: Vec<FlightEvent>,
    },
    /// Worker → coordinator: the protocol failed; the flight ring
    /// rides along so the postmortem sees the failing rank's view.
    Failed {
        error: Error,
        flight: Vec<FlightEvent>,
    },
    /// Coordinator → worker: all outcomes collected; tear the mesh
    /// down and exit.
    Shutdown,
    /// Coordinator → worker: clock probe carrying the coordinator's
    /// clock reading `t1` (NTP-style offset estimation during
    /// rendezvous).
    ClockPing { t1: u64 },
    /// Worker → coordinator: `t1` echoed back plus the worker's own
    /// clock reading `t2` at the moment of the answer.
    ClockPong { t1: u64, t2: u64 },
    /// Worker → coordinator: one iteration retired (live telemetry).
    /// Sent between `Job` and `Outcome`/`Failed` when the job asked
    /// for progress; the coordinator restamps `ts_ns` on arrival so
    /// every rank's records share its one clock.
    Progress { rec: IterRecord },
    /// Rendezvous-plane frame in either direction, reusing the
    /// [`Msg`] wire codec: `Join` (joiner → coordinator),
    /// `Welcome` (coordinator → joiner), `EpochBump` (coordinator →
    /// surviving workers between segments).
    Member(Msg),
    /// Worker → coordinator: an elastic segment died under this
    /// worker (a peer vanished, or this worker was the crash victim's
    /// neighbour). `completed` is how many segment-local iterations
    /// had fully retired here; `dead` is the *slot* this worker blames
    /// (`u32::MAX` when it cannot tell).
    Halted { completed: u32, dead: u32 },
}

const CTL_HELLO: u8 = 1;
const CTL_JOB: u8 = 2;
const CTL_OUTCOME: u8 = 3;
const CTL_FAILED: u8 = 4;
const CTL_SHUTDOWN: u8 = 5;
const CTL_CLOCK_PING: u8 = 6;
const CTL_CLOCK_PONG: u8 = 7;
const CTL_PROGRESS: u8 = 8;
const CTL_MEMBER: u8 = 9;
const CTL_HALT: u8 = 10;

fn put_strategy(w: &mut Writer, s: Strategy) {
    w.put_u8(match s {
        Strategy::CaSyncPs => 1,
        Strategy::CaSyncRing => 2,
        Strategy::BytePs => 3,
        Strategy::HorovodRing => 4,
    });
}

fn get_strategy(r: &mut Reader<'_>) -> std::result::Result<Strategy, DecodeError> {
    match r.u8()? {
        1 => Ok(Strategy::CaSyncPs),
        2 => Ok(Strategy::CaSyncRing),
        3 => Ok(Strategy::BytePs),
        4 => Ok(Strategy::HorovodRing),
        t => Err(DecodeError::BadTag {
            what: "strategy",
            tag: u64::from(t),
        }),
    }
}

fn put_algorithm(w: &mut Writer, a: Algorithm) {
    match a {
        Algorithm::None => w.put_u8(0),
        Algorithm::OneBit => w.put_u8(1),
        Algorithm::Tbq { tau } => {
            w.put_u8(2);
            w.put_f32(tau);
        }
        Algorithm::TernGrad { bitwidth } => {
            w.put_u8(3);
            w.put_u8(bitwidth);
        }
        Algorithm::Dgc { rate } => {
            w.put_u8(4);
            w.put_f64(rate);
        }
        Algorithm::GradDrop { rate } => {
            w.put_u8(5);
            w.put_f64(rate);
        }
    }
}

fn get_algorithm(r: &mut Reader<'_>) -> std::result::Result<Algorithm, DecodeError> {
    match r.u8()? {
        0 => Ok(Algorithm::None),
        1 => Ok(Algorithm::OneBit),
        2 => Ok(Algorithm::Tbq { tau: r.f32()? }),
        3 => Ok(Algorithm::TernGrad { bitwidth: r.u8()? }),
        4 => Ok(Algorithm::Dgc { rate: r.f64()? }),
        5 => Ok(Algorithm::GradDrop { rate: r.f64()? }),
        t => Err(DecodeError::BadTag {
            what: "algorithm",
            tag: u64::from(t),
        }),
    }
}

fn put_prim(w: &mut Writer, s: PrimStat) {
    w.put_u64(s.count);
    w.put_u64(s.busy_ns);
}

fn get_prim(r: &mut Reader<'_>) -> std::result::Result<PrimStat, DecodeError> {
    Ok(PrimStat {
        count: r.u64()?,
        busy_ns: r.u64()?,
    })
}

fn put_verdict(w: &mut Writer, v: &StragglerVerdict) {
    let StragglerVerdict {
        node,
        peer,
        waited_ns,
        action,
    } = v;
    w.put_u64(*node as u64);
    w.put_u64(*peer as u64);
    w.put_u64(*waited_ns);
    w.put_u8(match action {
        DegradeAction::Waited => 1,
        DegradeAction::Skipped => 2,
        DegradeAction::Aborted => 3,
    });
}

fn get_verdict(r: &mut Reader<'_>) -> std::result::Result<StragglerVerdict, DecodeError> {
    Ok(StragglerVerdict {
        node: r.u64()? as usize,
        peer: r.u64()? as usize,
        waited_ns: r.u64()?,
        action: match r.u8()? {
            1 => DegradeAction::Waited,
            2 => DegradeAction::Skipped,
            3 => DegradeAction::Aborted,
            t => {
                return Err(DecodeError::BadTag {
                    what: "degrade action",
                    tag: u64::from(t),
                })
            }
        },
    })
}

fn put_faults(w: &mut Writer, f: &FaultReport) {
    // Exhaustive destructuring: adding a FaultReport field without
    // extending this codec is a compile error, not a silent drop.
    let FaultReport {
        injected_drops,
        injected_dups,
        injected_reorders,
        injected_delays,
        injected_corruptions,
        injected_stalls,
        retries,
        nacks,
        duplicates_ignored,
        corruptions_detected,
        degraded_chunks,
        verdicts,
    } = f;
    for v in [
        injected_drops,
        injected_dups,
        injected_reorders,
        injected_delays,
        injected_corruptions,
        injected_stalls,
        retries,
        nacks,
        duplicates_ignored,
        corruptions_detected,
        degraded_chunks,
    ] {
        w.put_u64(*v);
    }
    w.put_u32(verdicts.len() as u32);
    for v in verdicts {
        put_verdict(w, v);
    }
}

fn get_faults(r: &mut Reader<'_>) -> std::result::Result<FaultReport, DecodeError> {
    let mut f = FaultReport::default();
    for v in [
        &mut f.injected_drops,
        &mut f.injected_dups,
        &mut f.injected_reorders,
        &mut f.injected_delays,
        &mut f.injected_corruptions,
        &mut f.injected_stalls,
        &mut f.retries,
        &mut f.nacks,
        &mut f.duplicates_ignored,
        &mut f.corruptions_detected,
        &mut f.degraded_chunks,
    ] {
        *v = r.u64()?;
    }
    for _ in 0..r.u32()? {
        f.verdicts.push(get_verdict(r)?);
    }
    Ok(f)
}

/// Encodes every field of a [`RuntimeReport`]. The exhaustive
/// destructuring (no `..`) makes adding a report field without
/// extending this codec a *compile* error — a field can never
/// silently vanish crossing the process boundary. Run-level fields
/// the coordinator owns (`nodes`, `wall_ns`, `iterations`,
/// `pipeline_window`, `per_node_busy_ns`) still travel; the
/// coordinator's `absorb` simply ignores them.
fn put_report(w: &mut Writer, rep: &RuntimeReport) {
    let RuntimeReport {
        nodes,
        wall_ns,
        source,
        encode,
        decode,
        merge,
        send,
        recv,
        update,
        barrier,
        local_agg_ns,
        bytes_wire,
        bytes_raw,
        messages,
        comp_batch_launches,
        per_node_busy_ns,
        faults,
        fabric_frames,
        fabric_bytes_framed,
        fabric_bytes_payload,
        fabric_retransmits,
        iterations,
        pipeline_window,
        iter_span_ns_total,
        membership,
        evicted,
    } = rep;
    w.put_u64(*nodes as u64);
    w.put_u64(*wall_ns);
    for s in [source, encode, decode, merge, send, recv, update, barrier] {
        put_prim(w, *s);
    }
    for v in [
        local_agg_ns,
        bytes_wire,
        bytes_raw,
        messages,
        comp_batch_launches,
    ] {
        w.put_u64(*v);
    }
    w.put_u32(per_node_busy_ns.len() as u32);
    for &b in per_node_busy_ns {
        w.put_u64(b);
    }
    put_faults(w, faults);
    for v in [
        fabric_frames,
        fabric_bytes_framed,
        fabric_bytes_payload,
        fabric_retransmits,
        iterations,
        pipeline_window,
        iter_span_ns_total,
    ] {
        w.put_u64(*v);
    }
    w.put_u32(membership.len() as u32);
    for m in membership {
        w.put_u64(m.epoch);
        w.put_u64(m.from_iter);
        w.put_u32(m.members.len() as u32);
        for &rk in &m.members {
            w.put_u32(rk);
        }
    }
    w.put_u32(evicted.len() as u32);
    for &rk in evicted {
        w.put_u32(rk);
    }
}

fn get_report(r: &mut Reader<'_>) -> std::result::Result<RuntimeReport, DecodeError> {
    let mut rep = RuntimeReport {
        nodes: r.u64()? as usize,
        wall_ns: r.u64()?,
        ..RuntimeReport::default()
    };
    for s in [
        &mut rep.source,
        &mut rep.encode,
        &mut rep.decode,
        &mut rep.merge,
        &mut rep.send,
        &mut rep.recv,
        &mut rep.update,
        &mut rep.barrier,
    ] {
        *s = get_prim(r)?;
    }
    rep.local_agg_ns = r.u64()?;
    rep.bytes_wire = r.u64()?;
    rep.bytes_raw = r.u64()?;
    rep.messages = r.u64()?;
    rep.comp_batch_launches = r.u64()?;
    for _ in 0..r.u32()? {
        rep.per_node_busy_ns.push(r.u64()?);
    }
    rep.faults = get_faults(r)?;
    rep.fabric_frames = r.u64()?;
    rep.fabric_bytes_framed = r.u64()?;
    rep.fabric_bytes_payload = r.u64()?;
    rep.fabric_retransmits = r.u64()?;
    rep.iterations = r.u64()?;
    rep.pipeline_window = r.u64()?;
    rep.iter_span_ns_total = r.u64()?;
    for _ in 0..r.u32()? {
        let mut m = crate::report::EpochRecord {
            epoch: r.u64()?,
            from_iter: r.u64()?,
            ..Default::default()
        };
        for _ in 0..r.u32()? {
            m.members.push(r.u32()?);
        }
        rep.membership.push(m);
    }
    for _ in 0..r.u32()? {
        rep.evicted.push(r.u32()?);
    }
    Ok(rep)
}

/// Encodes every field of an [`IterRecord`]; exhaustive destructuring
/// keeps the codec honest the same way [`put_report`] does.
fn put_iter_record(w: &mut Writer, rec: &IterRecord) {
    let IterRecord {
        node,
        iter,
        ts_ns,
        span_ns,
        comp_ns,
        commu_ns,
        bytes_wire,
        messages,
        retransmits,
        faults,
        window,
        epoch,
    } = rec;
    w.put_u32(*node);
    w.put_u32(*iter);
    for v in [
        ts_ns,
        span_ns,
        comp_ns,
        commu_ns,
        bytes_wire,
        messages,
        retransmits,
        faults,
    ] {
        w.put_u64(*v);
    }
    w.put_u32(*window);
    w.put_u64(*epoch);
}

fn get_iter_record(r: &mut Reader<'_>) -> std::result::Result<IterRecord, DecodeError> {
    let mut rec = IterRecord {
        node: r.u32()?,
        iter: r.u32()?,
        ..IterRecord::default()
    };
    for v in [
        &mut rec.ts_ns,
        &mut rec.span_ns,
        &mut rec.comp_ns,
        &mut rec.commu_ns,
        &mut rec.bytes_wire,
        &mut rec.messages,
        &mut rec.retransmits,
        &mut rec.faults,
    ] {
        *v = r.u64()?;
    }
    rec.window = r.u32()?;
    rec.epoch = r.u64()?;
    Ok(rec)
}

fn put_error(w: &mut Writer, e: &Error) {
    if let Error::Sync(f) = e {
        w.put_u8(1);
        w.put_u8(match f.kind {
            SyncFailureKind::RecvTimeout => 0,
            SyncFailureKind::LinkDead => 1,
            SyncFailureKind::Straggler => 2,
            SyncFailureKind::InjectedCrash => 3,
            SyncFailureKind::Aborted => 4,
        });
        w.put_u64(f.node as u64);
        match f.peer {
            Some(p) => {
                w.put_u8(1);
                w.put_u64(p as u64);
            }
            None => w.put_u8(0),
        }
        match f.task {
            Some(t) => {
                w.put_u8(1);
                w.put_u32(t);
            }
            None => w.put_u8(0),
        }
        w.put_str(&f.detail);
    } else {
        // Other categories travel as their message.
        w.put_u8(0);
        w.put_str(&e.to_string());
    }
}

fn get_error(r: &mut Reader<'_>) -> std::result::Result<Error, DecodeError> {
    if r.u8()? == 1 {
        let kind = match r.u8()? {
            0 => SyncFailureKind::RecvTimeout,
            1 => SyncFailureKind::LinkDead,
            2 => SyncFailureKind::Straggler,
            3 => SyncFailureKind::InjectedCrash,
            4 => SyncFailureKind::Aborted,
            t => {
                return Err(DecodeError::BadTag {
                    what: "failure kind",
                    tag: u64::from(t),
                })
            }
        };
        let node = r.u64()? as usize;
        let peer = if r.u8()? == 1 {
            Some(r.u64()? as usize)
        } else {
            None
        };
        let task = if r.u8()? == 1 { Some(r.u32()?) } else { None };
        let detail = r.str()?.to_string();
        Ok(Error::sync(SyncFailure {
            kind,
            node,
            peer,
            task,
            detail,
        }))
    } else {
        Ok(Error::sim(r.str()?))
    }
}

impl WireMsg for Ctl {
    fn encode(&self, w: &mut Writer) {
        match self {
            Ctl::Hello { rank, mesh_port } => {
                w.put_u8(CTL_HELLO);
                w.put_u32(*rank);
                w.put_u16(*mesh_port);
            }
            Ctl::Job(j) => {
                w.put_u8(CTL_JOB);
                put_strategy(w, j.strategy);
                put_algorithm(w, j.algorithm);
                w.put_u32(j.partitions);
                w.put_u64(j.seed);
                w.put_u32(j.nodes);
                w.put_u32(j.rank);
                w.put_u8(u8::from(j.config.batch_compression));
                w.put_u64(j.config.comp_batch_max_task_bytes);
                w.put_u64(j.config.inbox_timeout.as_nanos() as u64);
                w.put_u64(j.config.ft_min_wait.as_nanos() as u64);
                w.put_u64(j.config.ft_max_wait.as_nanos() as u64);
                w.put_u64(j.config.ft_heartbeat.as_nanos() as u64);
                w.put_u32(j.iterations);
                w.put_u32(j.window);
                w.put_u8(u8::from(j.kill));
                w.put_u8(u8::from(j.want_trace));
                w.put_u8(u8::from(j.want_metrics));
                w.put_u8(u8::from(j.want_progress));
                w.put_u32(j.grad_lens.len() as u32);
                for &n in &j.grad_lens {
                    w.put_u32(n);
                }
                w.put_u32(j.grads.len() as u32);
                for g in &j.grads {
                    w.put_f32s(g);
                }
                w.put_u32(j.mesh_ports.len() as u32);
                for &p in &j.mesh_ports {
                    w.put_u16(p);
                }
                w.put_u8(u8::from(j.elastic));
                w.put_u64(j.epoch);
                w.put_u32(j.base_iter);
                match j.die_at_iter {
                    Some(d) => {
                        w.put_u8(1);
                        w.put_u32(d);
                    }
                    None => w.put_u8(0),
                }
            }
            Ctl::Outcome {
                cells,
                report,
                trace,
                metrics,
                flight,
            } => {
                w.put_u8(CTL_OUTCOME);
                w.put_u32(cells.len() as u32);
                for (f, p, v) in cells {
                    w.put_u32(*f);
                    w.put_u32(*p);
                    w.put_f32s(v);
                }
                put_report(w, report);
                match trace {
                    Some(t) => {
                        w.put_u8(1);
                        put_trace(w, t);
                    }
                    None => w.put_u8(0),
                }
                match metrics {
                    Some(m) => {
                        w.put_u8(1);
                        w.put_str(m);
                    }
                    None => w.put_u8(0),
                }
                w.put_u32(flight.len() as u32);
                for e in flight {
                    e.encode(w);
                }
            }
            Ctl::Failed { error, flight } => {
                w.put_u8(CTL_FAILED);
                put_error(w, error);
                w.put_u32(flight.len() as u32);
                for e in flight {
                    e.encode(w);
                }
            }
            Ctl::Shutdown => w.put_u8(CTL_SHUTDOWN),
            Ctl::ClockPing { t1 } => {
                w.put_u8(CTL_CLOCK_PING);
                w.put_u64(*t1);
            }
            Ctl::ClockPong { t1, t2 } => {
                w.put_u8(CTL_CLOCK_PONG);
                w.put_u64(*t1);
                w.put_u64(*t2);
            }
            Ctl::Progress { rec } => {
                w.put_u8(CTL_PROGRESS);
                put_iter_record(w, rec);
            }
            Ctl::Member(m) => {
                w.put_u8(CTL_MEMBER);
                m.encode(w);
            }
            Ctl::Halted { completed, dead } => {
                w.put_u8(CTL_HALT);
                w.put_u32(*completed);
                w.put_u32(*dead);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> std::result::Result<Self, DecodeError> {
        match r.u8()? {
            CTL_HELLO => Ok(Ctl::Hello {
                rank: r.u32()?,
                mesh_port: r.u16()?,
            }),
            CTL_JOB => {
                let strategy = get_strategy(r)?;
                let algorithm = get_algorithm(r)?;
                let partitions = r.u32()?;
                let seed = r.u64()?;
                let nodes = r.u32()?;
                let rank = r.u32()?;
                let config = RuntimeConfig {
                    batch_compression: r.u8()? != 0,
                    comp_batch_max_task_bytes: r.u64()?,
                    inbox_timeout: Duration::from_nanos(r.u64()?),
                    ft_min_wait: Duration::from_nanos(r.u64()?),
                    ft_max_wait: Duration::from_nanos(r.u64()?),
                    ft_heartbeat: Duration::from_nanos(r.u64()?),
                };
                let iterations = r.u32()?;
                let window = r.u32()?;
                let kill = r.u8()? != 0;
                let want_trace = r.u8()? != 0;
                let want_metrics = r.u8()? != 0;
                let want_progress = r.u8()? != 0;
                let mut grad_lens = Vec::new();
                for _ in 0..r.u32()? {
                    grad_lens.push(r.u32()?);
                }
                let mut grads = Vec::new();
                for _ in 0..r.u32()? {
                    grads.push(r.f32s()?);
                }
                let mut mesh_ports = Vec::new();
                for _ in 0..r.u32()? {
                    mesh_ports.push(r.u16()?);
                }
                let elastic = r.u8()? != 0;
                let epoch = r.u64()?;
                let base_iter = r.u32()?;
                let die_at_iter = match r.u8()? {
                    0 => None,
                    1 => Some(r.u32()?),
                    t => {
                        return Err(DecodeError::BadTag {
                            what: "die_at_iter",
                            tag: u64::from(t),
                        })
                    }
                };
                Ok(Ctl::Job(Box::new(Job {
                    strategy,
                    algorithm,
                    partitions,
                    seed,
                    nodes,
                    rank,
                    config,
                    iterations,
                    window,
                    kill,
                    want_trace,
                    want_metrics,
                    want_progress,
                    grad_lens,
                    grads,
                    mesh_ports,
                    elastic,
                    epoch,
                    base_iter,
                    die_at_iter,
                })))
            }
            CTL_OUTCOME => {
                let mut cells = Vec::new();
                for _ in 0..r.u32()? {
                    cells.push((r.u32()?, r.u32()?, r.f32s()?));
                }
                let report = get_report(r)?;
                let trace = if r.u8()? == 1 {
                    Some(get_trace(r)?)
                } else {
                    None
                };
                let metrics = if r.u8()? == 1 {
                    Some(r.str()?.to_string())
                } else {
                    None
                };
                let mut flight = Vec::new();
                for _ in 0..r.u32()? {
                    flight.push(FlightEvent::decode(r)?);
                }
                Ok(Ctl::Outcome {
                    cells,
                    report,
                    trace,
                    metrics,
                    flight,
                })
            }
            CTL_FAILED => {
                let error = get_error(r)?;
                let mut flight = Vec::new();
                for _ in 0..r.u32()? {
                    flight.push(FlightEvent::decode(r)?);
                }
                Ok(Ctl::Failed { error, flight })
            }
            CTL_SHUTDOWN => Ok(Ctl::Shutdown),
            CTL_CLOCK_PING => Ok(Ctl::ClockPing { t1: r.u64()? }),
            CTL_CLOCK_PONG => Ok(Ctl::ClockPong {
                t1: r.u64()?,
                t2: r.u64()?,
            }),
            CTL_PROGRESS => Ok(Ctl::Progress {
                rec: get_iter_record(r)?,
            }),
            CTL_MEMBER => Ok(Ctl::Member(Msg::decode(r)?)),
            CTL_HALT => Ok(Ctl::Halted {
                completed: r.u32()?,
                dead: r.u32()?,
            }),
            t => Err(DecodeError::BadTag {
                what: "ctl",
                tag: u64::from(t),
            }),
        }
    }
}

/// Control frames are a plain u32 length prefix + [`WireMsg`] body —
/// the rendezvous channel is point-to-point and short-lived, so the
/// mesh's checksummed reliability discipline would be dead weight.
const CTL_MAX_BYTES: u32 = 1 << 30;

fn ctl_io(detail: impl std::fmt::Display) -> Error {
    Error::sim(format!("process control channel: {detail}"))
}

/// `Job` and `Outcome` carry whole gradient sets, so the body goes
/// out beside its prefix (vectored, not copied behind it) and comes
/// in straight into the buffer it is decoded from.
fn write_ctl(stream: &mut TcpStream, msg: &Ctl) -> Result<()> {
    let body = msg.to_bytes();
    let len = (body.len() as u32).to_le_bytes();
    write_all_vectored(stream, [&len[..], &body[..]]).map_err(ctl_io)
}

fn read_ctl(stream: &mut TcpStream) -> Result<Ctl> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).map_err(ctl_io)?;
    let len = u32::from_le_bytes(len);
    if len > CTL_MAX_BYTES {
        return Err(ctl_io(format!("oversized control frame ({len} bytes)")));
    }
    let body = read_exact_vec(stream, len as usize).map_err(ctl_io)?;
    Ctl::from_bytes(&body).map_err(|e| ctl_io(format!("bad control frame: {e}")))
}

/// Rebuilds the synchronization graph every backend agrees on from a
/// job spec — byte counts and plan flags exactly as the facade derives
/// them from the tensors themselves.
fn build_graph(
    strategy: Strategy,
    algorithm: Algorithm,
    partitions: usize,
    grad_lens: &[u32],
    nodes: usize,
) -> Result<hipress_core::graph::TaskGraph> {
    let compressor = algorithm.build();
    let spec = IterationSpec {
        gradients: grad_lens
            .iter()
            .enumerate()
            .map(|(g, &n)| SyncGradient {
                name: format!("g{g}"),
                bytes: u64::from(n) * 4,
                ready_offset_ns: 0,
                plan: GradPlan {
                    compress: compressor.is_some(),
                    partitions,
                },
            })
            .collect(),
        compression: compressor.as_deref().map(CompressionSpec::of),
    };
    strategy.build(&ClusterConfig::ec2(nodes), &spec)
}

/// Executes the job as `nodes` real OS processes synchronizing over a
/// loopback TCP mesh, returning the same [`RunOutcome`] shape as the
/// in-process backends — and bit-identical flows.
///
/// `worker_grads[w][g]` is worker `w`'s gradient `g`, as in the
/// facade. The report aggregates every worker's measurements and the
/// fabric's framing counters; `wall_ns` covers rendezvous through the
/// last outcome (process spawn cost excluded, mesh setup included).
///
/// With a tracer in `instruments`, every worker records its own
/// timeline against its private monotonic epoch, ships it back over
/// the control channel, and the coordinator merges all of them —
/// clock-corrected by the rendezvous ping exchange — into one global
/// trace (one track per rank, plus per-rank offset metadata on the
/// `clock` track). With a metrics scope, per-rank snapshots are
/// absorbed into the coordinator's registry under the scope's labels.
///
/// # Errors
///
/// Configuration errors for bad shapes or an unresolvable worker
/// binary; a structured [`SyncFailure`] naming the dead node when a
/// worker dies mid-protocol; transport errors from the control
/// channel.
#[allow(clippy::too_many_arguments)]
pub fn run_processes(
    strategy: Strategy,
    algorithm: Algorithm,
    partitions: usize,
    worker_grads: &[Vec<Tensor>],
    seed: u64,
    config: &RuntimeConfig,
    pcfg: &PipelineConfig,
    pconf: &ProcessConfig,
    instruments: Instruments<'_>,
) -> Result<RunOutcome> {
    let nodes = worker_grads.len();
    validate_grads(worker_grads)?;
    validate(pcfg)?;
    if let Some(k) = pconf.kill_node {
        if k >= nodes {
            return Err(Error::config(format!(
                "kill_node {k} out of range for {nodes} workers"
            )));
        }
    }

    // Recursion guard: if the resolved worker binary does not handle
    // the `node` subcommand (a library consumer's own executable, via
    // current_exe), each spawned child would re-run its caller's main
    // and fork-bomb. Workers inherit this marker; a worker that winds
    // up back here is such a re-run and must die, not spawn.
    if std::env::var_os(SPAWN_GUARD_ENV).is_some() {
        return Err(Error::config(
            "recursive worker spawn: the worker binary re-entered run_processes instead of \
             handling the `node` subcommand — point ProcessConfig.binary (or HIPRESS_NODE_BIN) \
             at a binary that dispatches `node` to node_main",
        ));
    }

    let listener = TcpListener::bind("127.0.0.1:0").map_err(ctl_io)?;
    let addr = listener.local_addr().map_err(ctl_io)?;
    let binary = resolve_binary(pconf)?;

    let mut children = Vec::with_capacity(nodes);
    for rank in 0..nodes {
        let child = std::process::Command::new(&binary)
            .env(SPAWN_GUARD_ENV, "1")
            .arg("node")
            .arg("--connect")
            .arg(addr.to_string())
            .arg("--rank")
            .arg(rank.to_string())
            .arg("--nodes")
            .arg(nodes.to_string())
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::inherit())
            .spawn()
            .map_err(|e| {
                Error::config(format!(
                    "failed to spawn worker {rank} ({}): {e}",
                    binary.display()
                ))
            })?;
        children.push(child);
    }

    let result = coordinate(
        &listener,
        strategy,
        algorithm,
        partitions,
        worker_grads,
        seed,
        config,
        pcfg,
        pconf,
        &mut children,
        instruments,
    );
    reap(&mut children);
    result
}

fn validate_grads(worker_grads: &[Vec<Tensor>]) -> Result<()> {
    if worker_grads.len() < 2 {
        return Err(Error::config("synchronization needs at least 2 workers"));
    }
    let first = &worker_grads[0];
    for (w, g) in worker_grads.iter().enumerate() {
        if g.len() != first.len() || g.iter().zip(first).any(|(a, b)| a.len() != b.len()) {
            return Err(Error::config(format!(
                "worker {w} gradient shapes differ from worker 0"
            )));
        }
    }
    Ok(())
}

fn resolve_binary(pconf: &ProcessConfig) -> Result<PathBuf> {
    if let Some(b) = &pconf.binary {
        return Ok(b.clone());
    }
    if let Ok(b) = std::env::var("HIPRESS_NODE_BIN") {
        return Ok(PathBuf::from(b));
    }
    std::env::current_exe().map_err(|e| Error::config(format!("cannot resolve worker binary: {e}")))
}

/// How many ping probes the coordinator sends each rank at
/// rendezvous. The minimum-RTT sample wins, so a handful of probes
/// suffices to dodge scheduler noise on loopback.
const CLOCK_PROBES: usize = 8;

/// Runs the NTP-style offset exchange with one checked-in worker:
/// `CLOCK_PROBES` ping/pong round trips, each stamped `t1` (send) and
/// `t3` (receive) on the coordinator's `clock_epoch` clock with the
/// worker's own reading `t2` in between.
fn probe_clock(stream: &mut TcpStream, clock_epoch: Instant) -> Result<ClockSync> {
    let mut samples = Vec::with_capacity(CLOCK_PROBES);
    for _ in 0..CLOCK_PROBES {
        let t1 = clock_epoch.elapsed().as_nanos() as u64;
        write_ctl(stream, &Ctl::ClockPing { t1 })?;
        let Ctl::ClockPong { t1: echoed, t2 } = read_ctl(stream)? else {
            return Err(ctl_io("worker answered a clock probe with a non-pong"));
        };
        let t3 = clock_epoch.elapsed().as_nanos() as u64;
        if echoed != t1 {
            return Err(ctl_io(format!(
                "clock pong echoed t1 {echoed}, expected {t1}"
            )));
        }
        samples.push((t1, t2, t3));
    }
    Ok(ClockSync::estimate(&samples))
}

/// The coordinator's post-spawn protocol: rendezvous, job dispatch,
/// outcome collection, shutdown, assembly. Factored from
/// [`run_processes`] so tests can drive it with in-process worker
/// threads (`children` may be empty — liveness checks then skip).
#[allow(clippy::too_many_arguments)]
fn coordinate(
    listener: &TcpListener,
    strategy: Strategy,
    algorithm: Algorithm,
    partitions: usize,
    worker_grads: &[Vec<Tensor>],
    seed: u64,
    config: &RuntimeConfig,
    pcfg: &PipelineConfig,
    pconf: &ProcessConfig,
    children: &mut [std::process::Child],
    instruments: Instruments<'_>,
) -> Result<RunOutcome> {
    let nodes = worker_grads.len();
    let grad_lens: Vec<u32> = worker_grads[0].iter().map(|t| t.len() as u32).collect();
    let graph = build_graph(strategy, algorithm, partitions, &grad_lens, nodes)?;
    let flows = hipress_core::interp::gradient_flows(worker_grads);
    let replicated = replicate(&flows);
    let layout = FlowLayout::derive(&graph, nodes, &replicated)?;

    // The coordinator's clock for offset probes. With a tracer it is
    // the tracer's epoch, so corrected worker timestamps land
    // directly on the merged trace's timeline.
    let clock_epoch = instruments
        .tracer
        .map(Tracer::epoch)
        .unwrap_or_else(Instant::now);
    let run_start_ns = instruments.tracer.map(Tracer::now_ns);
    let started = Instant::now();

    // Rendezvous: every rank dials in and names its mesh port, then
    // answers a burst of clock probes so its epoch offset is known.
    listener.set_nonblocking(true).map_err(ctl_io)?;
    let deadline = Instant::now() + pconf.connect_deadline();
    let mut streams: Vec<Option<(TcpStream, u16)>> = (0..nodes).map(|_| None).collect();
    let mut syncs: Vec<ClockSync> = vec![ClockSync::default(); nodes];
    let mut checked_in = 0;
    while checked_in < nodes {
        match listener.accept() {
            Ok((mut stream, _)) => {
                stream.set_nonblocking(false).map_err(ctl_io)?;
                stream.set_nodelay(true).map_err(ctl_io)?;
                stream
                    .set_read_timeout(Some(pconf.connect_deadline()))
                    .map_err(ctl_io)?;
                let Ctl::Hello { rank, mesh_port } = read_ctl(&mut stream)? else {
                    return Err(ctl_io("worker spoke before saying Hello"));
                };
                let slot = streams
                    .get_mut(rank as usize)
                    .ok_or_else(|| ctl_io(format!("Hello from out-of-range rank {rank}")))?;
                if slot.is_some() {
                    return Err(ctl_io(format!("two workers claimed rank {rank}")));
                }
                syncs[rank as usize] = probe_clock(&mut stream, clock_epoch)?;
                *slot = Some((stream, mesh_port));
                checked_in += 1;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                for (rank, child) in children.iter_mut().enumerate() {
                    if let Ok(Some(status)) = child.try_wait() {
                        if streams[rank].is_none() {
                            return Err(Error::sim(format!(
                                "worker {rank} exited during rendezvous ({status})"
                            )));
                        }
                    }
                }
                if Instant::now() >= deadline {
                    return Err(ctl_io(format!(
                        "rendezvous timed out with {checked_in} of {nodes} workers"
                    )));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(ctl_io(e)),
        }
    }
    let mut streams: Vec<(TcpStream, u16)> = streams
        .into_iter()
        .map(|s| s.expect("all ranks in"))
        .collect();
    let mesh_ports: Vec<u16> = streams.iter().map(|&(_, p)| p).collect();

    // Dispatch: each rank gets the spec plus its own tensors only.
    for (rank, (stream, _)) in streams.iter_mut().enumerate() {
        let job = Job {
            strategy,
            algorithm,
            partitions: partitions as u32,
            seed,
            nodes: nodes as u32,
            rank: rank as u32,
            config: *config,
            iterations: pcfg.iterations,
            window: pcfg.window,
            kill: pconf.kill_node == Some(rank),
            want_trace: instruments.tracer.is_some(),
            want_metrics: instruments.metrics.is_some(),
            want_progress: instruments.progress.is_some(),
            grad_lens: grad_lens.clone(),
            grads: worker_grads[rank]
                .iter()
                .map(|t| t.as_slice().to_vec())
                .collect(),
            mesh_ports: mesh_ports.clone(),
            elastic: false,
            epoch: 0,
            base_iter: 0,
            die_at_iter: None,
        };
        write_ctl(stream, &Ctl::Job(Box::new(job)))?;
    }
    if let Some(t) = instruments.progress {
        // Every rank just took a job; seed its heartbeat so /healthz
        // shows it before its first iteration retires.
        for rank in 0..nodes {
            t.beat(rank as u32);
        }
    }

    // Collect one outcome per rank, draining any interleaved
    // Progress frames (live telemetry, republished into the hub under
    // the coordinator's clock) along the way.
    type RankOutcome = (
        HashMap<(u32, u32), Cell>,
        RuntimeReport,
        Option<Trace>,
        Option<String>,
    );
    let collect_one =
        |rank: usize, stream: &mut TcpStream| -> (Result<RankOutcome>, Option<Vec<FlightEvent>>) {
            if let Err(e) = stream.set_read_timeout(Some(pconf.run_deadline())) {
                return (Err(ctl_io(e)), None);
            }
            loop {
                match read_ctl(stream) {
                    Ok(Ctl::Progress { rec }) => {
                        if let Some(t) = instruments.progress {
                            t.publish(rec);
                        }
                    }
                    Ok(Ctl::Outcome {
                        cells,
                        report,
                        trace,
                        metrics,
                        flight,
                    }) => {
                        return (
                            Ok((
                                cells
                                    .into_iter()
                                    .map(|(f, p, v)| {
                                        (
                                            (f, p),
                                            Cell {
                                                acc: v.into(),
                                                updated: true,
                                                ..Cell::default()
                                            },
                                        )
                                    })
                                    .collect(),
                                report,
                                trace,
                                metrics,
                            )),
                            Some(flight),
                        )
                    }
                    Ok(Ctl::Failed { error, flight }) => return (Err(error), Some(flight)),
                    Ok(_) => {
                        return (
                            Err(ctl_io(format!("worker {rank} sent an unexpected message"))),
                            None,
                        )
                    }
                    // EOF or timeout without an outcome: the worker died
                    // mid-protocol — its ring died with it. Name it; the
                    // survivors' rings will show its silence.
                    Err(_) => {
                        return (
                            Err(Error::sync(SyncFailure {
                                kind: SyncFailureKind::LinkDead,
                                node: rank,
                                peer: None,
                                task: None,
                                detail: "worker process exited without reporting an outcome".into(),
                            })),
                            None,
                        )
                    }
                }
            }
        };
    let collected: Vec<(Result<RankOutcome>, Option<Vec<FlightEvent>>)> =
        if instruments.progress.is_some() {
            // One collector thread per rank: progress frames must keep
            // draining while slower ranks still run — a sequential
            // reader would let a fast rank's frames back up in kernel
            // buffers. Without a progress sink (no frames before the
            // outcome) the sequential path below stays byte-identical
            // to the pre-telemetry protocol.
            let collect_one = &collect_one;
            std::thread::scope(|s| {
                let handles: Vec<_> = streams
                    .iter_mut()
                    .enumerate()
                    .map(|(rank, (stream, _))| s.spawn(move || collect_one(rank, stream)))
                    .collect();
                handles
                    .into_iter()
                    .enumerate()
                    .map(|(rank, h)| {
                        h.join().unwrap_or_else(|_| {
                            (
                                Err(Error::sim(format!("rank {rank} collector panicked"))),
                                None,
                            )
                        })
                    })
                    .collect()
            })
        } else {
            streams
                .iter_mut()
                .enumerate()
                .map(|(rank, (stream, _))| collect_one(rank, stream))
                .collect()
        };
    let mut per_rank: Vec<Result<RankOutcome>> = Vec::with_capacity(nodes);
    let mut flights: Vec<RankFlight> = Vec::new();
    for (rank, (res, flight)) in collected.into_iter().enumerate() {
        if let Some(events) = flight {
            flights.push(RankFlight {
                rank: rank as u32,
                sync: syncs[rank],
                events,
            });
        }
        per_rank.push(res);
    }
    let wall_ns = started.elapsed().as_nanos() as u64;

    // Release the mesh: only now may workers drop their links.
    for (stream, _) in &mut streams {
        let _ = write_ctl(stream, &Ctl::Shutdown);
    }

    // Surface the most root-cause-like failure, if any — after
    // writing the flight dump, which wants exactly that diagnosis.
    if per_rank.iter().any(Result::is_err) {
        let worst =
            root_cause(per_rank.into_iter().filter_map(Result::err)).expect("at least one error");
        if let Some(path) = &pconf.flight_dump {
            let dump = PostmortemDump {
                nodes: nodes as u32,
                failed_node: worst
                    .as_sync()
                    .map(|f| f.node as u32)
                    .unwrap_or(UNKNOWN_NODE),
                detail: worst.to_string(),
                ranks: flights,
            };
            if let Err(e) = std::fs::write(path, dump.to_bytes()) {
                eprintln!(
                    "hipress: could not write flight dump {}: {e}",
                    path.display()
                );
            }
        }
        return Err(worst);
    }

    let mut report = RuntimeReport {
        nodes,
        wall_ns,
        per_node_busy_ns: vec![0; nodes],
        iterations: u64::from(pcfg.iterations),
        pipeline_window: u64::from(pcfg.window),
        ..Default::default()
    };
    let mut cells_per_node = Vec::with_capacity(nodes);
    for (rank, r) in per_rank.into_iter().enumerate() {
        let (cells, node_report, wtrace, wmetrics) = r.expect("errors handled above");
        report.absorb(&node_report);
        report.per_node_busy_ns[rank] = node_report.total_busy_ns();
        cells_per_node.push(cells);
        if let Some(tracer) = instruments.tracer {
            if let Some(t) = &wtrace {
                // Stitch this rank's timeline into the global trace,
                // shifted by its measured epoch offset, and record
                // the alignment so validators can honor its
                // uncertainty.
                replay_into(tracer, t, &syncs[rank]);
                record_clock_meta(tracer, rank, &syncs[rank]);
            }
        }
        if let Some(scope) = instruments.metrics {
            if let Some(json) = &wmetrics {
                let snap = MetricsSnapshot::from_json(json)
                    .map_err(|e| ctl_io(format!("worker {rank} metrics snapshot: {e}")))?;
                scope.absorb_snapshot(&snap);
            }
        }
    }
    record_run_span(
        instruments.tracer,
        run_start_ns,
        wall_ns,
        nodes,
        u64::from(pcfg.iterations),
        u64::from(pcfg.window),
        0,
    );
    if let Some(scope) = instruments.metrics {
        record_run_metrics(scope, &report);
    }
    let flows_out = layout.assemble(&cells_per_node)?;
    Ok(RunOutcome {
        flows: flows_out,
        report,
    })
}

/// Waits briefly for children to exit on their own (they just got
/// Shutdown), then kills stragglers — the coordinator never leaks
/// processes, even on error paths.
fn reap(children: &mut [std::process::Child]) {
    let deadline = Instant::now() + Duration::from_secs(5);
    for child in children.iter_mut() {
        loop {
            match child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break;
                }
            }
        }
    }
}

/// What one worker's protocol run concluded.
enum NodeRun {
    /// Protocol complete, outcome reported, shutdown received.
    Completed,
    /// The injected kill fired; the process should exit nonzero.
    Killed,
}

/// Entry point for the `hipress node` subcommand: dial the
/// coordinator at `connect`, run rank `rank` of `nodes`, exit.
/// Re-executed by [`run_processes`]; never useful interactively.
///
/// # Errors
///
/// Transport or protocol failures talking to the coordinator or the
/// mesh. Exits the process with code 13 when the job injects a kill.
pub fn node_main(connect: &str, rank: usize, nodes: usize) -> Result<()> {
    let ctl = TcpStream::connect(connect)
        .map_err(|e| ctl_io(format!("node {rank}: dial coordinator {connect}: {e}")))?;
    match run_node(ctl, rank, nodes)? {
        NodeRun::Completed => Ok(()),
        NodeRun::Killed => {
            eprintln!("node {rank}: injected kill after mesh setup");
            std::process::exit(13);
        }
    }
}

/// Worker-side progress forwarder: ships each retired iteration as a
/// [`Ctl::Progress`] frame on a clone of the control stream. The
/// worker writes nothing else on the control channel between `Job`
/// and `Outcome`, so the frames never interleave with another
/// message; the mutex only serializes the (single) driver thread
/// against itself and satisfies the sink's `Sync` bound. Send errors
/// are swallowed — a torn control stream surfaces on the outcome
/// write, and losing live progress must never fail the job.
///
/// Records leave the pipeline stamped with the per-segment *slot* and
/// segment-local iteration number; the sink rewrites both to the
/// worker's stable global rank and the run-global iteration, and
/// stamps the membership epoch, so the coordinator's timeline reads
/// the same whether or not the run is elastic.
#[derive(Debug)]
struct CtlSink {
    stream: Mutex<TcpStream>,
    /// This worker's global rank (equals the slot on fixed runs).
    global_rank: u32,
    /// Membership epoch of the segment being driven.
    epoch: u64,
    /// Global iteration number of the segment's iteration 0.
    base_iter: u32,
}

impl ProgressSink for CtlSink {
    fn publish(&self, mut rec: IterRecord) {
        rec.node = self.global_rank;
        rec.iter += self.base_iter;
        rec.epoch = self.epoch;
        let mut s = self.stream.lock().expect("ctl sink lock");
        let _ = write_ctl(&mut s, &Ctl::Progress { rec });
    }
}

/// How one job segment ended on the worker side.
enum SegmentEnd {
    /// `Outcome`, `Failed`, or `Halted` was written; the worker now
    /// waits for the coordinator's verdict on the control channel.
    Reported,
    /// The injected kill or elastic crash fired; the process must
    /// exit nonzero without another word to anyone.
    Killed,
}

/// One worker's full protocol over an established control stream.
/// Factored from [`node_main`] so tests can run workers as threads.
///
/// A fixed-membership run passes through the segment loop exactly
/// once: Hello → Job → drive → Outcome → Shutdown. An elastic run
/// loops: after each segment the coordinator answers with either
/// [`Msg::EpochBump`] (membership changed — re-announce on a fresh
/// mesh listener and take the next segment's Job) or `Shutdown`. The
/// worker keeps one control stream and one clock epoch for its whole
/// lifetime, so the rendezvous clock sync stays valid across every
/// segment.
fn run_node(mut ctl: TcpStream, rank: usize, nodes: usize) -> Result<NodeRun> {
    // One epoch anchors everything this worker timestamps: the
    // tracer, the flight recorder, and the clock-probe pongs. The
    // coordinator's measured offset therefore aligns all three at
    // once.
    let epoch = Instant::now();
    let recorder = Arc::new(FlightRecorder::new(epoch));
    ctl.set_nodelay(true).map_err(ctl_io)?;
    ctl.set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(ctl_io)?;
    loop {
        // A fresh mesh listener per segment: every epoch rebuilds the
        // data mesh from scratch over the current member set.
        let mesh_listener = TcpListener::bind("127.0.0.1:0").map_err(ctl_io)?;
        let mesh_port = mesh_listener.local_addr().map_err(ctl_io)?.port();
        write_ctl(
            &mut ctl,
            &Ctl::Hello {
                rank: rank as u32,
                mesh_port,
            },
        )?;
        // The coordinator interleaves clock probes between Hello and
        // Job; answer each with our epoch-relative receive time.
        let job = loop {
            match read_ctl(&mut ctl)? {
                Ctl::ClockPing { t1 } => write_ctl(
                    &mut ctl,
                    &Ctl::ClockPong {
                        t1,
                        t2: epoch.elapsed().as_nanos() as u64,
                    },
                )?,
                Ctl::Job(job) => break job,
                _ => return Err(ctl_io(format!("node {rank}: expected a Job"))),
            }
        };
        if !job.elastic && (job.rank as usize != rank || job.nodes as usize != nodes) {
            return Err(ctl_io(format!(
                "node {rank}: job addressed to rank {} of {}",
                job.rank, job.nodes
            )));
        }
        let elastic = job.elastic;
        let (end, link) = run_job(&mut ctl, *job, rank, mesh_listener, epoch, &recorder)?;
        if matches!(end, SegmentEnd::Killed) {
            return Ok(NodeRun::Killed);
        }
        // Hold the mesh link until the coordinator has everyone's
        // report: our reader threads keep acking peers that are still
        // draining. EOF or timeout counts as permission to leave.
        let next = read_ctl(&mut ctl);
        drop(link);
        if !elastic {
            return Ok(NodeRun::Completed);
        }
        match next {
            // Membership changed: loop around, re-announce, and take
            // the next segment's job at the new epoch.
            Ok(Ctl::Member(Msg::EpochBump { .. })) => continue,
            // Shutdown, a torn control stream, or anything else: the
            // run is over for this worker.
            _ => return Ok(NodeRun::Completed),
        }
    }
}

/// Drives a single job segment: build the graph, connect the mesh
/// over the job's slot numbering, run the pipelined protocol, and
/// report back. Returns the mesh link (if one survived) so the caller
/// can hold it open through the post-segment control read.
fn run_job(
    ctl: &mut TcpStream,
    job: Job,
    global_rank: usize,
    mesh_listener: TcpListener,
    epoch: Instant,
    recorder: &Arc<FlightRecorder>,
) -> Result<(SegmentEnd, Option<hipress_fabric::tcp::TcpLink<Msg>>)> {
    // In an elastic segment `job.rank` is this worker's *slot* in the
    // segment's dense 0..nodes numbering; the global rank is only
    // used for labels the coordinator sees.
    let slot = job.rank as usize;
    let nodes = job.nodes as usize;

    let compressor = job.algorithm.build();
    let graph = build_graph(
        job.strategy,
        job.algorithm,
        job.partitions as usize,
        &job.grad_lens,
        nodes,
    )?;
    #[cfg(debug_assertions)]
    hipress_lint::plan::verify(&graph, nodes).into_result()?;

    // This rank holds only its own gradients; every other rank's slot
    // is zero-filled at the spec'd length. The dataflow only reads a
    // node's own flows (at `Source`), so the zeros are never observed —
    // they exist to satisfy the layout's shape validation.
    let mut flows: crate::engine::Flows = HashMap::new();
    for (g, &len) in job.grad_lens.iter().enumerate() {
        let per_node = (0..nodes)
            .map(|w| {
                if w == slot {
                    Tensor::from_vec(job.grads[g].clone())
                } else {
                    Tensor::zeros(len as usize)
                }
            })
            .collect();
        flows.insert(g as u32, per_node);
    }
    let replicated = replicate(&flows);
    let layout = FlowLayout::derive(&graph, nodes, &replicated)?;
    let plan = NodePlan::derive(&graph, nodes);

    // Per-worker instrumentation, built only when the coordinator
    // asked: the trace rides home inside `Outcome`, the metrics as a
    // JSON snapshot. Both share `epoch` so clock alignment is uniform.
    let tracer = job
        .want_trace
        .then(|| Tracer::at_epoch(&format!("casync-rt/node{global_rank}"), epoch));
    let trace = tracer.as_ref().map(|t| single_node_trace(t, global_rank));
    let registry = job.want_metrics.then(hipress_metrics::Registry::new);
    let metrics = registry
        .as_ref()
        .map(|reg| NodeMetrics::new(&reg.root(), global_rank));

    let mesh = MeshConfig {
        tuning: LinkTuning {
            heartbeat: job.config.ft_heartbeat,
            ..LinkTuning::default()
        },
        connect_timeout: Duration::from_secs(10),
        poll_floor: job.config.ft_min_wait,
        poll_ceiling: job.config.ft_max_wait,
        recorder: Some(Arc::clone(recorder)),
        // Each elastic segment's mesh is stamped with its epoch so a
        // zombie segment's late dial can never splice into the
        // rebuilt mesh.
        epoch: job.epoch,
    };
    let peers: Vec<SocketAddr> = job
        .mesh_ports
        .iter()
        .map(|&p| SocketAddr::from(([127, 0, 0, 1], p)))
        .collect();
    let mut link = connect_mesh::<Msg>(slot, nodes, mesh_listener, &peers, &mesh)
        .map_err(|e| fabric_err(slot, e))?;

    if job.kill {
        // Dropping the link shuts the mesh sockets down; peers
        // diagnose the dead rank on their receive paths.
        return Ok((SegmentEnd::Killed, None));
    }

    let pcfg = PipelineConfig {
        iterations: job.iterations,
        window: job.window,
    };
    let progress_sink = if job.want_progress {
        Some(CtlSink {
            stream: Mutex::new(ctl.try_clone().map_err(ctl_io)?),
            global_rank: global_rank as u32,
            epoch: job.epoch,
            base_iter: job.base_iter,
        })
    } else {
        None
    };
    // Elastic segments carry hooks even without a crash injection:
    // survivors read the retirement counter out of them when a peer
    // dies mid-segment.
    let hooks = job.elastic.then(|| ElasticHooks {
        die_at_iter: job.die_at_iter,
        ..ElasticHooks::default()
    });
    let outcome = drive_node(
        &mut link,
        &graph,
        &replicated,
        &layout,
        &plan,
        compressor.as_deref(),
        job.seed,
        &job.config,
        &pcfg,
        trace,
        metrics,
        progress_sink.as_ref().map(|s| s as &dyn ProgressSink),
        hooks.as_ref(),
    );
    match outcome {
        Ok((cells, report)) => {
            let cells = cells
                .into_iter()
                .filter_map(|((f, p), c)| c.updated.then(|| (f, p, c.acc.into_vec())))
                .collect();
            write_ctl(
                ctl,
                &Ctl::Outcome {
                    cells,
                    report,
                    trace: tracer.map(Tracer::finish),
                    metrics: registry.map(|r| r.snapshot().to_json()),
                    flight: recorder.dump(),
                },
            )?;
        }
        Err(e) => {
            let f = e.as_sync();
            if job.elastic {
                // Our own injected crash: die hard, no goodbye on any
                // channel — peers must discover the loss through the
                // transport exactly as they would a real `kill -9`.
                if f.is_some_and(|f| f.kind == SyncFailureKind::InjectedCrash && f.node == slot) {
                    return Ok((SegmentEnd::Killed, None));
                }
                // A peer vanished under an elastic segment: report how
                // far we got and whom we blame, then stand by for the
                // epoch bump. Anything that is not a sync failure — or
                // is only the echo of a peer's abort — is a real error
                // and still aborts the run below.
                if let Some(f) = f.filter(|f| f.kind != SyncFailureKind::Aborted) {
                    // Blame extraction: the fabric names a lost peer as
                    // the failure's `node` (observer as `peer`); the FT
                    // layer names itself as `node` and the unresponsive
                    // peer as `peer`.
                    let dead = if f.node != slot {
                        f.node as u32
                    } else {
                        f.peer.map(|p| p as u32).unwrap_or(u32::MAX)
                    };
                    write_ctl(
                        ctl,
                        &Ctl::Halted {
                            completed: hooks.as_ref().map(ElasticHooks::completed).unwrap_or(0),
                            dead,
                        },
                    )?;
                    return Ok((SegmentEnd::Reported, Some(link)));
                }
            }
            write_ctl(
                ctl,
                &Ctl::Failed {
                    error: e,
                    flight: recorder.dump(),
                },
            )?;
        }
    }
    Ok((SegmentEnd::Reported, Some(link)))
}

/// Runs the full coordinator protocol with worker *threads* standing
/// in for worker processes — same control channel, same TCP mesh,
/// same clock probes, same pipelined driver; only `fork/exec` is
/// skipped. Deterministic like [`run_processes`], minus process
/// isolation, so tests and benches can exercise the distributed
/// observability path without spawn overhead.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn run_threaded_workers(
    strategy: Strategy,
    algorithm: Algorithm,
    partitions: usize,
    worker_grads: &[Vec<Tensor>],
    seed: u64,
    config: &RuntimeConfig,
    pcfg: &PipelineConfig,
    pconf: &ProcessConfig,
    instruments: Instruments<'_>,
) -> Result<RunOutcome> {
    let nodes = worker_grads.len();
    validate_grads(worker_grads)?;
    validate(pcfg)?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(ctl_io)?;
    let addr = listener.local_addr().map_err(ctl_io)?;
    let workers: Vec<_> = (0..nodes)
        .map(|rank| {
            std::thread::spawn(move || {
                let ctl = TcpStream::connect(addr)
                    .map_err(|e| ctl_io(format!("node {rank}: dial coordinator {addr}: {e}")))?;
                run_node(ctl, rank, nodes)
            })
        })
        .collect();
    let out = coordinate(
        &listener,
        strategy,
        algorithm,
        partitions,
        worker_grads,
        seed,
        config,
        pcfg,
        pconf,
        &mut [],
        instruments,
    );
    for w in workers {
        // Worker errors already surfaced through the coordinator.
        let _ = w.join().expect("worker thread panicked");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run, RunOptions};
    use hipress_core::interp::gradient_flows;
    use hipress_tensor::synth::{generate, GradientShape};

    fn worker_grads(nodes: usize, sizes: &[usize]) -> Vec<Vec<Tensor>> {
        (0..nodes)
            .map(|w| {
                sizes
                    .iter()
                    .enumerate()
                    .map(|(g, &n)| {
                        generate(
                            n,
                            GradientShape::Gaussian { std_dev: 1.0 },
                            (w * 1000 + g) as u64,
                        )
                    })
                    .collect()
            })
            .collect()
    }

    /// Thin wrapper over [`run_threaded_workers`] with the defaults
    /// most tests want: two partitions, no instrumentation.
    fn run_threaded(
        strategy: Strategy,
        algorithm: Algorithm,
        grads: &[Vec<Tensor>],
        seed: u64,
        pcfg: PipelineConfig,
        kill_node: Option<usize>,
    ) -> Result<RunOutcome> {
        let pconf = ProcessConfig {
            kill_node,
            ..ProcessConfig::default()
        };
        run_threaded_workers(
            strategy,
            algorithm,
            2,
            grads,
            seed,
            &RuntimeConfig::default(),
            &pcfg,
            &pconf,
            Instruments::default(),
        )
    }

    /// A worker binary that re-enters `run_processes` (its main
    /// ignores the `node` subcommand) must die with a config error on
    /// the spot — not recursively spawn its own workers.
    #[test]
    fn spawn_guard_stops_recursive_workers() {
        let grads = worker_grads(2, &[16]);
        std::env::set_var(SPAWN_GUARD_ENV, "1");
        let err = run_processes(
            Strategy::CaSyncPs,
            Algorithm::None,
            1,
            &grads,
            1,
            &RuntimeConfig::default(),
            &PipelineConfig::default(),
            &ProcessConfig::default(),
            Instruments::default(),
        )
        .expect_err("guard must trip");
        std::env::remove_var(SPAWN_GUARD_ENV);
        assert!(err.to_string().contains("recursive worker spawn"), "{err}");
    }

    #[test]
    fn socket_mesh_matches_threads_bit_for_bit() {
        let nodes = 3;
        let grads = worker_grads(nodes, &[256, 64]);
        let flows = gradient_flows(&grads);
        let algorithm = Algorithm::OneBit;
        let c = algorithm.build().unwrap();
        let grad_lens: Vec<u32> = grads[0].iter().map(|t| t.len() as u32).collect();
        for strategy in [Strategy::CaSyncPs, Strategy::CaSyncRing] {
            let graph = build_graph(strategy, algorithm, 2, &grad_lens, nodes).unwrap();
            let threads = run(
                &graph,
                nodes,
                &replicate(&flows),
                Some(c.as_ref()),
                7,
                &RunOptions::default(),
            )
            .unwrap();
            let sockets = run_threaded(
                strategy,
                algorithm,
                &grads,
                7,
                PipelineConfig {
                    iterations: 2,
                    window: 2,
                },
                None,
            )
            .unwrap();
            assert_eq!(threads.flows.len(), sockets.flows.len());
            for (a, b) in threads.flows.iter().zip(&sockets.flows) {
                assert_eq!(a.flow, b.flow);
                assert_eq!(a.per_node, b.per_node, "{strategy:?} diverged over TCP");
            }
            // A serializing fabric measures real framed traffic.
            assert!(sockets.report.fabric_frames > 0);
            assert!(sockets.report.fabric_bytes_framed > sockets.report.fabric_bytes_payload);
            assert_eq!(sockets.report.iterations, 2);
        }
    }

    #[test]
    fn killed_worker_yields_a_failure_naming_it() {
        let nodes = 3;
        let grads = worker_grads(nodes, &[128]);
        let err = run_threaded(
            Strategy::CaSyncPs,
            Algorithm::OneBit,
            &grads,
            3,
            PipelineConfig {
                iterations: 2,
                window: 2,
            },
            Some(1),
        )
        .unwrap_err();
        let f = err.as_sync().expect("structured failure");
        assert_eq!(f.node, 1, "failure must name the dead rank: {err}");
        assert!(err.to_string().contains("node 1"), "{err}");
    }

    #[test]
    fn ctl_messages_round_trip() {
        let job = Job {
            strategy: Strategy::CaSyncRing,
            algorithm: Algorithm::Tbq { tau: 0.25 },
            partitions: 3,
            seed: 99,
            nodes: 4,
            rank: 2,
            config: RuntimeConfig::default(),
            iterations: 8,
            window: 4,
            kill: true,
            want_trace: true,
            want_metrics: false,
            want_progress: true,
            grad_lens: vec![16, 32],
            grads: vec![vec![1.0, -2.5], vec![f32::NAN]],
            mesh_ports: vec![4000, 4001, 4002, 4003],
            elastic: true,
            epoch: 6,
            base_iter: 5,
            die_at_iter: Some(7),
        };
        let bytes = Ctl::Job(Box::new(job)).to_bytes();
        let Ctl::Job(back) = Ctl::from_bytes(&bytes).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(back.strategy, Strategy::CaSyncRing);
        assert_eq!(back.algorithm, Algorithm::Tbq { tau: 0.25 });
        assert_eq!(back.partitions, 3);
        assert_eq!(back.rank, 2);
        assert!(back.kill);
        assert!(back.want_trace);
        assert!(!back.want_metrics);
        assert!(back.want_progress);
        assert_eq!(back.grad_lens, vec![16, 32]);
        assert_eq!(back.grads[0], vec![1.0, -2.5]);
        assert!(back.grads[1][0].is_nan());
        assert_eq!(back.mesh_ports.len(), 4);
        assert!(back.elastic);
        assert_eq!(back.epoch, 6);
        assert_eq!(back.base_iter, 5);
        assert_eq!(back.die_at_iter, Some(7));
        assert_eq!(
            back.config.ft_heartbeat,
            RuntimeConfig::default().ft_heartbeat
        );

        let mut rep = RuntimeReport::default();
        rep.update.record(123);
        rep.fabric_frames = 7;
        rep.iter_span_ns_total = 5555;
        let mut trace_in = Trace::new("casync-rt/node0");
        let t = trace_in.thread_track("node0");
        trace_in.push_span(t, "send", "send", 10, 5, &[("task", 3)]);
        let epoch = Instant::now();
        let rec = FlightRecorder::new(epoch);
        rec.record(hipress_fabric::FlightKind::SendData, 1, 9, 64);
        let out = Ctl::Outcome {
            cells: vec![(0, 1, vec![3.5, -0.0])],
            report: rep.clone(),
            trace: Some(trace_in.clone()),
            metrics: Some("{}".into()),
            flight: rec.dump(),
        };
        let Ctl::Outcome {
            cells,
            report,
            trace,
            metrics,
            flight,
        } = Ctl::from_bytes(&out.to_bytes()).unwrap()
        else {
            panic!("wrong variant");
        };
        assert_eq!(cells[0].0, 0);
        assert_eq!(cells[0].2[0], 3.5);
        assert_eq!(report, rep);
        assert_eq!(trace.unwrap(), trace_in);
        assert_eq!(metrics.as_deref(), Some("{}"));
        assert_eq!(flight.len(), 1);
        assert_eq!(flight[0].peer, 1);
        assert_eq!(flight[0].seq, 9);

        let fail = Ctl::Failed {
            error: Error::sync(SyncFailure {
                kind: SyncFailureKind::LinkDead,
                node: 1,
                peer: Some(0),
                task: Some(42),
                detail: "seq 9 unacknowledged".into(),
            }),
            flight: rec.dump(),
        };
        let Ctl::Failed { error: e, flight } = Ctl::from_bytes(&fail.to_bytes()).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(e.as_sync().unwrap().node, 1);
        assert_eq!(e.as_sync().unwrap().task, Some(42));
        assert_eq!(flight.len(), 1);

        let other = Ctl::Failed {
            error: Error::sim("node 2 wedged"),
            flight: Vec::new(),
        };
        let Ctl::Failed { error: e, .. } = Ctl::from_bytes(&other.to_bytes()).unwrap() else {
            panic!("wrong variant");
        };
        assert!(e.as_sync().is_none() && e.to_string().contains("node 2 wedged"));

        let ping = Ctl::ClockPing { t1: 77 };
        let Ctl::ClockPing { t1 } = Ctl::from_bytes(&ping.to_bytes()).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(t1, 77);
        let pong = Ctl::ClockPong { t1: 77, t2: 99 };
        let Ctl::ClockPong { t1, t2 } = Ctl::from_bytes(&pong.to_bytes()).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!((t1, t2), (77, 99));

        // Every IterRecord field gets a distinct value, so a field the
        // codec skips shows up as an equality failure here.
        let rec_in = IterRecord {
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
        let Ctl::Progress { rec } =
            Ctl::from_bytes(&Ctl::Progress { rec: rec_in }.to_bytes()).unwrap()
        else {
            panic!("wrong variant");
        };
        assert_eq!(rec, rec_in);

        // The rendezvous-plane frames ride the control channel by
        // delegating to the Msg wire codec.
        let member = Ctl::Member(Msg::Welcome {
            epoch: 2,
            from_iter: 9,
            members: vec![0, 2, 3],
        });
        let Ctl::Member(Msg::Welcome {
            epoch,
            from_iter,
            members,
        }) = Ctl::from_bytes(&member.to_bytes()).unwrap()
        else {
            panic!("wrong variant");
        };
        assert_eq!((epoch, from_iter), (2, 9));
        assert_eq!(members, vec![0, 2, 3]);

        let halted = Ctl::Halted {
            completed: 4,
            dead: 1,
        };
        let Ctl::Halted { completed, dead } = Ctl::from_bytes(&halted.to_bytes()).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!((completed, dead), (4, 1));
    }

    /// Every [`RuntimeReport`] field must survive the control-channel
    /// codec. Each field carries a distinct value and is asserted via
    /// whole-struct equality, so a new field that the codec forgets
    /// shows up here (and the exhaustive destructuring in
    /// `put_report` makes forgetting a compile error first).
    #[test]
    fn report_codec_covers_every_field() {
        let mut prims = Vec::new();
        for i in 0..8u64 {
            let mut p = PrimStat::default();
            p.count = 10 + i;
            p.busy_ns = 1000 + i;
            prims.push(p);
        }
        let rep = RuntimeReport {
            nodes: 3,
            wall_ns: 123_456,
            source: prims[0],
            encode: prims[1],
            decode: prims[2],
            merge: prims[3],
            send: prims[4],
            recv: prims[5],
            update: prims[6],
            barrier: prims[7],
            local_agg_ns: 777,
            bytes_wire: 2048,
            bytes_raw: 8192,
            messages: 55,
            comp_batch_launches: 4,
            per_node_busy_ns: vec![11, 22, 33],
            faults: FaultReport {
                injected_drops: 1,
                injected_dups: 2,
                injected_reorders: 3,
                injected_delays: 4,
                injected_corruptions: 5,
                injected_stalls: 6,
                retries: 7,
                nacks: 8,
                duplicates_ignored: 9,
                corruptions_detected: 10,
                degraded_chunks: 11,
                verdicts: vec![StragglerVerdict {
                    node: 1,
                    peer: 2,
                    waited_ns: 999,
                    action: DegradeAction::Skipped,
                }],
            },
            fabric_frames: 60,
            fabric_bytes_framed: 61,
            fabric_bytes_payload: 62,
            fabric_retransmits: 63,
            iterations: 16,
            pipeline_window: 5,
            iter_span_ns_total: 424_242,
            membership: vec![
                crate::report::EpochRecord {
                    epoch: 0,
                    from_iter: 0,
                    members: vec![0, 1, 2],
                },
                crate::report::EpochRecord {
                    epoch: 1,
                    from_iter: 9,
                    members: vec![0, 2],
                },
            ],
            evicted: vec![1],
        };
        let mut w = Writer::new();
        put_report(&mut w, &rep);
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes);
        let back = get_report(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, rep);
    }

    /// The pipeline edge configs — a single iteration, a serial
    /// window, and a window wider than the whole run — produce the
    /// same bitstream over the TCP mesh as the single-iteration
    /// thread engine. `window = 1` degenerates to serial execution;
    /// `window > iterations` admits everything up front; both must be
    /// behavioral no-ops for the result.
    #[test]
    fn edge_pipeline_configs_match_serial_over_tcp() {
        let nodes = 2;
        let grads = worker_grads(nodes, &[96]);
        let flows = gradient_flows(&grads);
        let algorithm = Algorithm::OneBit;
        let c = algorithm.build().unwrap();
        let grad_lens: Vec<u32> = grads[0].iter().map(|t| t.len() as u32).collect();
        let graph = build_graph(Strategy::CaSyncPs, algorithm, 2, &grad_lens, nodes).unwrap();
        let serial = run(
            &graph,
            nodes,
            &replicate(&flows),
            Some(c.as_ref()),
            5,
            &RunOptions::default(),
        )
        .unwrap();
        for (iterations, window) in [(1, 1), (3, 1), (2, 5)] {
            let sockets = run_threaded(
                Strategy::CaSyncPs,
                algorithm,
                &grads,
                5,
                PipelineConfig { iterations, window },
                None,
            )
            .unwrap();
            assert_eq!(serial.flows.len(), sockets.flows.len());
            for (a, b) in serial.flows.iter().zip(&sockets.flows) {
                assert_eq!(a.flow, b.flow);
                assert_eq!(
                    a.per_node, b.per_node,
                    "TCP diverged at {iterations}x window {window}"
                );
            }
            assert_eq!(sockets.report.iterations, u64::from(iterations));
            assert_eq!(sockets.report.pipeline_window, u64::from(window));
        }
    }

    /// Degenerate pipeline configs are rejected by the coordinator
    /// before any worker is spawned — the same `validate` gate the
    /// thread path applies.
    #[test]
    fn bad_pipeline_configs_rejected_before_spawn() {
        let grads = worker_grads(2, &[16]);
        for pcfg in [
            PipelineConfig {
                iterations: 0,
                window: 1,
            },
            PipelineConfig {
                iterations: 1,
                window: 0,
            },
        ] {
            let err = run_processes(
                Strategy::CaSyncPs,
                Algorithm::None,
                1,
                &grads,
                1,
                &RuntimeConfig::default(),
                &pcfg,
                &ProcessConfig::default(),
                Instruments::default(),
            )
            .expect_err("validation must reject the config");
            assert!(
                matches!(err, Error::Config(_)),
                "want a config error, got {err}"
            );
        }
    }

    /// With a telemetry hub attached, workers stream `Ctl::Progress`
    /// frames over the control channel and the coordinator republishes
    /// every one: the hub ends the run holding one record per rank per
    /// iteration, restamped on the coordinator's clock.
    #[test]
    fn progress_frames_reach_the_coordinator_hub() {
        let nodes = 2;
        let grads = worker_grads(nodes, &[96]);
        let hub = hipress_obs::Telemetry::new(
            hipress_metrics::Registry::new(),
            hipress_obs::WatchConfig::default(),
        );
        let iterations = 3u32;
        run_threaded_workers(
            Strategy::CaSyncPs,
            Algorithm::OneBit,
            2,
            &grads,
            5,
            &RuntimeConfig::default(),
            &PipelineConfig {
                iterations,
                window: 2,
            },
            &ProcessConfig::default(),
            Instruments {
                tracer: None,
                metrics: None,
                progress: Some(&hub),
            },
        )
        .unwrap();
        assert_eq!(
            hub.records_published(),
            u64::from(iterations) * nodes as u64
        );
        let (recs, _) = hub.read_events(0);
        let mut last_ts = 0;
        for r in &recs {
            assert!(r.span_ns > 0);
            assert!(r.ts_ns >= last_ts, "hub stamps arrivals monotonically");
            last_ts = r.ts_ns;
        }
        for rank in 0..nodes as u32 {
            assert_eq!(
                recs.iter().filter(|r| r.node == rank).count(),
                iterations as usize
            );
        }
        // Dispatch seeded a heartbeat for every rank.
        assert_eq!(hub.heartbeat_ages_ns().len(), nodes);
    }
}
