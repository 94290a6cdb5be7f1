//! Multi-process CaSync-RT: one OS process per node over a loopback
//! TCP mesh.
//!
//! [`run_processes`] binds a rendezvous socket, spawns one worker
//! process per node (`hipress node --connect ADDR --rank R --nodes N`
//! — the binary re-executes itself), and hands both to the one
//! coordinator, [`elastic`]'s segment loop, which speaks a small
//! length-prefixed control protocol with each child:
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
//!    open* until the coordinator's verdict — [`Ctl::Shutdown`], or an
//!    epoch bump into the next segment — so its data readers keep
//!    acking peers' frames and a fast finisher never tears the
//!    sockets down under a slow one.
//!
//! The child rebuilds its graph from the same inputs the in-process
//! backends use and builds only its own flows from it; the coordinator
//! lays the results out by the graph alone. Together with the per-task
//! codec seeding this makes the process backend bit-for-bit identical
//! to [`Backend::Threads`][crate::Backend::Threads] and the
//! interpreter. A worker that cannot set its job up reports why as its
//! [`Ctl::Failed`].
//!
//! A worker that dies mid-protocol (crash, kill, or a crash scripted
//! by [`ProcessConfig::membership`]) surfaces twice: survivors
//! diagnose the dead mesh link and report a structured failure naming
//! the dead rank, and the coordinator sees the child's control stream
//! close without an outcome. Under the default fail-on-loss policy
//! [`run_processes`] then returns a [`SyncFailure`] naming the dead
//! node — never a hang; with [`ProcessConfig::elastic`] the run
//! evicts it and continues over the survivors.

use crate::engine::{
    record_run_metrics, record_run_span, root_cause, single_node_trace, BufPool, Cell, FlowLayout,
    Instruments, Msg, NodeMetrics, RunOutcome,
};
use crate::observe::{
    record_clock_meta, replay_into, ClockSync, PostmortemDump, PostmortemMagic, RankFlight,
    UNKNOWN_NODE,
};
use crate::pipeline::{drive_node, validate, NodeHooks, PipelineConfig};
use crate::report::RuntimeReport;
use hipress_chaos::MembershipPlan;
use hipress_compress::Algorithm;
use hipress_core::sched::DepIndex;
use hipress_core::{
    ClusterConfig, CompressionSpec, GradPlan, IterationSpec, Strategy, SyncGradient,
};
use hipress_fabric::tcp::{connect_mesh, MeshConfig};
use hipress_fabric::{FlightEvent, FlightRecorder};
use hipress_metrics::MetricsSnapshot;
use hipress_obs::{IterRecord, ProgressSink};
use hipress_tensor::Tensor;
use hipress_trace::{Trace, Tracer};
use hipress_util::codec::WireMsg;
use hipress_util::{record, Error, Result, SyncFailureKind};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::Stdio;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Inherited marker that a process *is* a spawned worker. A worker
/// binary that fails to dispatch the `node` subcommand re-runs its
/// caller's `main` instead; if that path reaches [`run_processes`]
/// again, the guard turns what would be a process fork-bomb into an
/// immediate configuration error.
const SPAWN_GUARD_ENV: &str = "HIPRESS_SPAWNED_WORKER";

/// How long workers may take to check in at rendezvous.
const CONNECT_DEADLINE: Duration = Duration::from_secs(10);

/// How long each worker may take to report its outcome.
const RUN_DEADLINE: Duration = Duration::from_secs(60);

mod ctl;
pub mod elastic;

use ctl::{ctl_io, read_ctl, write_ctl, Ctl, Member};

/// How the coordinator launches and supervises worker processes, and
/// what it does when one is lost.
#[derive(Debug, Clone, Default)]
pub struct ProcessConfig {
    /// The worker binary to execute with `node --connect ...`. When
    /// unset, `HIPRESS_NODE_BIN` is consulted, then the current
    /// executable (the `hipress` CLI re-executes itself).
    pub binary: Option<PathBuf>,
    /// Scripted rank loss: each crash kills its rank hard right before
    /// the named iteration (`MembershipPlan::crash(k, 0)` kills rank
    /// `k` right after mesh setup); rejoins respawn it and need
    /// `elastic`. The empty plan changes nothing.
    pub membership: MembershipPlan,
    /// The loss policy. `false` (fail-on-loss): a lost or failed
    /// worker fails the run with a [`SyncFailure`] naming it. `true`
    /// (evict-on-loss): the run drains, evicts the lost rank, and
    /// continues over the survivors at a new membership epoch.
    pub elastic: bool,
    /// Where to write a serialized [`PostmortemDump`] when the run
    /// fails: every surviving rank's flight-recorder ring plus the
    /// diagnosed root cause, rendered later by `hipress postmortem`.
    /// `None` skips the dump.
    pub flight_dump: Option<PathBuf>,
}

record! {
    /// Everything a worker needs to run its share of one synchronization
    /// job: the spec to rebuild the graph from, the iteration schedule,
    /// the mesh topology, and this rank's own gradients.
    struct Job {
        strategy: Strategy,
        algorithm: Algorithm,
        partitions: u32,
        seed: u64,
        nodes: u32,
        rank: u32,
        iterations: u32,
        window: u32,
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
        /// Every member's mesh listener port, indexed by slot.
        mesh_ports: Vec<u16>,
        /// Membership epoch this segment runs under (0 on fixed runs).
        /// `rank` is the worker's *slot* in the segment's member list,
        /// which equals its global rank at epoch 0.
        epoch: u64,
        /// Global iteration number of this segment's first iteration —
        /// workers stamp it onto progress records so the coordinator's
        /// timeline is globally numbered across segments.
        base_iter: u32,
        /// Crash injection: exit hard (no abort broadcast) once this many
        /// segment-local iterations have retired.
        die_at_iter: Option<u32>,
    }
}

/// The synchronization graph every backend runs: gradient `g` of
/// `grad_lens[g]` elements is `g{g}`, ready at once, compressed with
/// `algorithm` (if any) in `partitions` partitions, on an EC2 cluster
/// of `nodes`. The facade builds it from the tensors, a process worker
/// from the job it was sent.
///
/// # Errors
///
/// Whatever the strategy's builder rejects.
pub fn build_graph(
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
/// `pconf.membership` scripts rank loss and `pconf.elastic` picks what
/// a loss does. Under the default fail-on-loss policy the run is one
/// segment at epoch 0 and a lost worker fails it. Under evict-on-loss,
/// crashed ranks exit hard (code 13) and are evicted at the drain
/// boundary, rejoining ranks are respawned with `node --join` and
/// admitted at the next epoch boundary, and the returned flows are
/// the **final epoch's** member set's result; the report then carries
/// the epoch history (`membership`) and every evicted rank.
///
/// # Errors
///
/// Configuration errors for bad shapes, plans or strategy configs, or
/// an unresolvable worker binary — all raised before any worker is
/// spawned; a structured [`SyncFailure`] naming the dead node when a
/// worker dies mid-protocol under fail-on-loss; a configuration error
/// when fewer than two members would survive an eviction; transport
/// errors from the control channel.
#[allow(clippy::too_many_arguments)]
pub fn run_processes(
    strategy: Strategy,
    algorithm: Algorithm,
    partitions: usize,
    worker_grads: &[Vec<Tensor>],
    seed: u64,
    pcfg: &PipelineConfig,
    pconf: &ProcessConfig,
    instruments: Instruments<'_>,
) -> Result<RunOutcome> {
    elastic::run_segments(
        Some(resolve_binary(pconf)?),
        strategy,
        algorithm,
        partitions,
        worker_grads,
        seed,
        pcfg,
        pconf,
        instruments,
    )
}

/// Runs the full coordinator protocol with worker *threads* standing
/// in for worker processes — same control channel, same TCP mesh,
/// same clock probes, same pipelined driver, same membership policy;
/// only `fork/exec` is skipped. Deterministic like [`run_processes`],
/// minus process isolation, so tests and benches can exercise the
/// distributed paths without spawn overhead. A crashed worker's thread
/// returns instead of exiting, dropping its sockets exactly as a dead
/// process would.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn run_threaded_workers(
    strategy: Strategy,
    algorithm: Algorithm,
    partitions: usize,
    worker_grads: &[Vec<Tensor>],
    seed: u64,
    pcfg: &PipelineConfig,
    pconf: &ProcessConfig,
    instruments: Instruments<'_>,
) -> Result<RunOutcome> {
    elastic::run_segments(
        None,
        strategy,
        algorithm,
        partitions,
        worker_grads,
        seed,
        pcfg,
        pconf,
        instruments,
    )
}

/// Rejects a membership plan before anything is spawned. Ranks and
/// iterations must be in range under either policy; rejoins and the
/// two-survivor rule only mean something under evict-on-loss, so a
/// fail-on-loss plan with a rejoin is a configuration error.
fn validate_membership(pconf: &ProcessConfig, nodes: usize, iterations: u32) -> Result<()> {
    let plan = &pconf.membership;
    if pconf.elastic {
        return plan.validate(nodes, iterations).map_err(Error::config);
    }
    if !plan.rejoins.is_empty() {
        return Err(Error::config(
            "a membership plan with rejoins needs ProcessConfig::elastic",
        ));
    }
    plan.check_range(nodes, iterations).map_err(Error::config)
}

/// A started worker.
enum Worker {
    Process(std::process::Child),
    Thread(std::thread::JoinHandle<()>),
}

impl Worker {
    /// How the worker ended, if it already has.
    fn exited(&mut self) -> Option<String> {
        match self {
            Worker::Process(child) => child.try_wait().ok().flatten().map(|s| s.to_string()),
            Worker::Thread(handle) => handle.is_finished().then(|| "thread returned".into()),
        }
    }
}

/// Starts workers that dial the coordinator's rendezvous address, and
/// keeps them so the coordinator can notice one that dies before
/// checking in. Dropping it reaps them all.
struct Launcher {
    connect: String,
    /// The worker binary to re-execute, or `None` to run each worker
    /// as a thread standing in for a process.
    binary: Option<PathBuf>,
    nodes: usize,
    /// Initial ranks first, in rank order; restarted ones after.
    workers: Vec<Worker>,
}

impl Launcher {
    /// Starts global rank `rank`: an initial worker runs as `node
    /// --connect A --rank R --nodes N`, a restarted one (`join`) as
    /// `node --connect A --rank R --join`.
    fn launch(&mut self, rank: u32, join: bool) -> Result<()> {
        let connect = self.connect.clone();
        let nodes = (!join).then_some(self.nodes);
        let worker = match &self.binary {
            Some(binary) => {
                // Recursion guard: if the worker binary does not handle
                // the `node` subcommand (a library consumer's own
                // executable, via current_exe), each spawned child
                // would re-run its caller's main and fork-bomb. Workers
                // inherit this marker; one that winds up spawning again
                // is such a re-run and must die, not spawn.
                if std::env::var_os(SPAWN_GUARD_ENV).is_some() {
                    return Err(Error::config(
                        "recursive worker spawn: the worker binary re-entered run_processes \
                         instead of handling the `node` subcommand — point \
                         ProcessConfig.binary (or HIPRESS_NODE_BIN) at a binary that \
                         dispatches `node` to node_main",
                    ));
                }
                let mut cmd = std::process::Command::new(binary);
                cmd.env(SPAWN_GUARD_ENV, "1")
                    .arg("node")
                    .arg("--connect")
                    .arg(&connect)
                    .arg("--rank")
                    .arg(rank.to_string());
                match nodes {
                    Some(n) => cmd.arg("--nodes").arg(n.to_string()),
                    None => cmd.arg("--join"),
                };
                let child = cmd
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .stderr(Stdio::inherit())
                    .spawn()
                    .map_err(|e| {
                        Error::config(format!(
                            "failed to spawn worker {rank} ({}): {e}",
                            binary.display()
                        ))
                    })?;
                Worker::Process(child)
            }
            None => {
                let handle = std::thread::Builder::new()
                    .name(format!("node{rank}"))
                    .spawn(move || {
                        // A `Killed` return *is* the crash: the thread
                        // drops its sockets and vanishes without a
                        // word, exactly like a killed process. Errors
                        // are also silent — the coordinator diagnoses
                        // them from the stream.
                        let _ = run_worker(&connect, rank as usize, nodes);
                    })
                    .map_err(|e| Error::config(format!("spawn worker thread {rank}: {e}")))?;
                Worker::Thread(handle)
            }
        };
        self.workers.push(worker);
        Ok(())
    }
}

impl Drop for Launcher {
    /// Waits for every worker: threads are joined; processes get a
    /// brief grace to exit on their own (they were just released)
    /// before stragglers are killed — the coordinator never leaks
    /// processes, even on error paths.
    fn drop(&mut self) {
        let deadline = Instant::now() + Duration::from_secs(5);
        for worker in self.workers.drain(..) {
            match worker {
                // A worker that panicked already failed the run
                // through its torn control stream.
                Worker::Thread(handle) => {
                    let _ = handle.join();
                }
                Worker::Process(mut child) => loop {
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
                },
            }
        }
    }
}

/// Checks that `worker_grads[w][g]` describes a synchronization: at
/// least 2 workers, all holding the same gradient shapes.
///
/// # Errors
///
/// [`Error::Config`] naming the first worker whose shapes differ
/// from worker 0's.
pub fn validate_grads(worker_grads: &[Vec<Tensor>]) -> Result<()> {
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

/// What one worker's protocol run concluded.
enum NodeRun {
    /// Every segment reported, and the coordinator released us.
    Completed,
    /// A scripted crash fired; the process must exit nonzero.
    Killed,
}

/// Entry point for the `hipress node` subcommand: dial the
/// coordinator at `connect`, run rank `rank` of `nodes`, exit.
/// Re-executed by [`run_processes`]; never useful interactively.
///
/// # Errors
///
/// Transport or protocol failures talking to the coordinator or the
/// mesh. Exits the process with code 13 when a scripted crash fires.
pub fn node_main(connect: &str, rank: usize, nodes: usize) -> Result<()> {
    exit_if_killed(rank, run_worker(connect, rank, Some(nodes)))
}

/// A worker's whole life: dial the coordinator at `connect` — as
/// initial rank `rank` of `nodes`, or (`None`) as a restarted rank
/// asking to rejoin — then run segments until released.
fn run_worker(connect: &str, rank: usize, nodes: Option<usize>) -> Result<NodeRun> {
    let Some(nodes) = nodes else {
        let (ctl, members) = elastic::attach(connect, rank)?;
        return run_node(ctl, rank, members.len());
    };
    let ctl = TcpStream::connect(connect)
        .map_err(|e| ctl_io(format!("node {rank}: dial coordinator {connect}: {e}")))?;
    run_node(ctl, rank, nodes)
}

/// A scripted crash ends a worker process hard: exit code 13, no
/// goodbye on any channel.
fn exit_if_killed(rank: usize, run: Result<NodeRun>) -> Result<()> {
    if let NodeRun::Killed = run? {
        eprintln!("node {rank}: scripted crash");
        std::process::exit(13);
    }
    Ok(())
}

/// Worker-side progress forwarder: ships each retired iteration as a
/// [`Ctl::Progress`] frame on a clone of the control stream. The
/// worker writes nothing else on the control channel between `Job`
/// and `Outcome` or `Failed`, so the frames never interleave with another
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

/// One worker's full protocol over an established control stream.
///
/// Every run loops over segments: Hello → Job → drive → `Outcome` or
/// `Failed` → the coordinator's verdict. [`Member::EpochBump`]
/// (membership changed) re-announces on a fresh mesh listener and
/// takes the next segment's Job; `Shutdown` or EOF ends the run, which
/// for a fixed-membership run is the first verdict. The worker keeps
/// one control stream and one clock epoch for its whole lifetime, so
/// the rendezvous clock sync stays valid across every segment.
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
        // At epoch 0 every slot is its global rank.
        if job.epoch == 0 && (job.rank as usize != rank || job.nodes as usize != nodes) {
            return Err(ctl_io(format!(
                "node {rank}: job addressed to rank {} of {}",
                job.rank, job.nodes
            )));
        }
        let Some(link) = run_job(&mut ctl, *job, rank, mesh_listener, epoch, &recorder)? else {
            return Ok(NodeRun::Killed);
        };
        // Hold the mesh link until the coordinator has everyone's
        // report: our reader threads keep acking peers that are still
        // draining. Our own resends (timer- or nack-driven) wait for a
        // link call that no longer comes; on TCP they need a checksum
        // failure, and the peer's deadline bounds the wait. EOF or
        // timeout counts as permission to leave.
        let next = read_ctl(&mut ctl);
        drop(link);
        if !matches!(next, Ok(Ctl::Member(Member::EpochBump { .. }))) {
            return Ok(NodeRun::Completed);
        }
    }
}

/// Drives a single job segment: build the graph and this worker's
/// flows, connect the mesh over the job's slot numbering, run the
/// pipelined protocol, and report back. Returns the mesh link so the
/// caller can hold it open through the post-segment control read —
/// `Some(None)` when setup failed and no link was built, and `None`
/// when this worker's scripted crash fired and it must vanish without
/// a word.
fn run_job(
    ctl: &mut TcpStream,
    job: Job,
    global_rank: usize,
    mesh_listener: TcpListener,
    epoch: Instant,
    recorder: &Arc<FlightRecorder>,
) -> Result<Option<Option<hipress_fabric::tcp::TcpLink<Msg>>>> {
    // `job.rank` is this worker's *slot* in the segment's dense
    // 0..nodes numbering; the global rank is only used for labels the
    // coordinator sees.
    let slot = job.rank as usize;
    let nodes = job.nodes as usize;

    // Setup: everything that can fail before the pipeline starts. A
    // failure here is this worker's own, and goes home as `Failed`.
    let setup = || -> Result<_> {
        let graph = build_graph(
            job.strategy,
            job.algorithm,
            job.partitions as usize,
            &job.grad_lens,
            nodes,
        )?;
        #[cfg(debug_assertions)]
        hipress_lint::plan::verify(&graph, nodes).into_result()?;
        // This worker's own flows: one replica per flow.
        let layout = FlowLayout::new(&graph, nodes);
        let own: Vec<Tensor> = job.grads.into_iter().map(Tensor::from_vec).collect();
        let inputs = layout.geometry.inputs(&[own])?;
        let peers: Vec<SocketAddr> = job
            .mesh_ports
            .iter()
            .map(|&p| SocketAddr::from(([127, 0, 0, 1], p)))
            .collect();
        let mesh = MeshConfig {
            recorder: Some(Arc::clone(recorder)),
            // Each segment's mesh is stamped with its epoch so a
            // zombie segment's late dial can never splice into the
            // rebuilt mesh.
            epoch: job.epoch,
        };
        // A mesh that cannot form echoes the rank that could not join
        // it: an abort, which that rank's own failure outranks.
        let link = connect_mesh::<Msg>(slot, nodes, mesh_listener, &peers, &mesh)
            .map_err(|e| Error::sync_at(SyncFailureKind::Aborted, slot, e.to_string()))?;
        Ok((graph, layout, inputs, link))
    };
    let failed = |error, completed| Ctl::Failed {
        error,
        flight: recorder.dump(),
        completed,
    };
    let (graph, layout, inputs, mut link) = match setup() {
        Ok(s) => s,
        Err(e) => {
            let error = e.context(format!("rank {global_rank} could not set up its job"));
            write_ctl(ctl, &failed(error, 0))?;
            return Ok(Some(None));
        }
    };
    let compressor = job.algorithm.build();
    let ix = DepIndex::of(&graph);

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
    // The hooks arm the scripted crash and count retirements, which a
    // failed segment reports so the coordinator can drain.
    let mut hooks = NodeHooks {
        die_at_iter: job.die_at_iter,
        ..NodeHooks::default()
    };
    let outcome = drive_node(
        &mut link,
        &graph,
        &inputs,
        &layout,
        &ix,
        compressor.as_deref(),
        job.seed,
        &pcfg,
        trace,
        metrics,
        progress_sink.as_ref().map(|s| s as &dyn ProgressSink),
        Some(&mut hooks),
        &mut BufPool::default(),
    );
    let msg = match outcome {
        Ok((cells, report)) => Ctl::Outcome {
            cells: cells
                .into_iter()
                .filter_map(|((f, p), c)| c.updated.then(|| (f, p, c.acc.into_vec())))
                .collect(),
            report,
            trace: tracer.map(Tracer::finish),
            metrics: registry.map(|r| r.snapshot().to_json()),
            flight: recorder.dump(),
        },
        // Our own scripted crash: die hard, no goodbye on any channel
        // — peers must discover the loss through the transport exactly
        // as they would a real `kill -9`.
        Err(e)
            if e.as_sync()
                .is_some_and(|f| f.kind == SyncFailureKind::InjectedCrash && f.node == slot) =>
        {
            return Ok(None);
        }
        Err(error) => failed(error, hooks.retired),
    };
    write_ctl(ctl, &msg)?;
    Ok(Some(Some(link)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{replicate, run, RunOptions};
    use hipress_core::graph::FlowGeometry;
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
        pconf: &ProcessConfig,
    ) -> Result<RunOutcome> {
        run_threaded_workers(
            strategy,
            algorithm,
            2,
            grads,
            seed,
            &pcfg,
            pconf,
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
        let algorithm = Algorithm::OneBit;
        let c = algorithm.build().unwrap();
        let grad_lens: Vec<u32> = grads[0].iter().map(|t| t.len() as u32).collect();
        for strategy in [Strategy::CaSyncPs, Strategy::CaSyncRing] {
            let graph = build_graph(strategy, algorithm, 2, &grad_lens, nodes).unwrap();
            let flows = FlowGeometry::of(&graph).inputs(&grads).unwrap();
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
                &ProcessConfig::default(),
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

    /// Fail-on-loss: a crash scripted right after mesh setup fails the
    /// run with a structured failure naming the dead rank — also at two
    /// ranks, where evict-on-loss would refuse the plan outright.
    #[test]
    fn killed_worker_yields_a_failure_naming_it() {
        for nodes in [2, 3] {
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
                &ProcessConfig {
                    membership: MembershipPlan::crash(1, 0),
                    ..ProcessConfig::default()
                },
            )
            .unwrap_err();
            let f = err.as_sync().expect("structured failure");
            assert_eq!(
                f.node, 1,
                "{nodes} ranks: failure must name the dead rank: {err}"
            );
            assert!(err.to_string().contains("node 1"), "{err}");
        }
    }

    /// The flight recorder survives a worker crash: the dump names the
    /// dead rank as the root cause and holds every survivor's ring.
    #[test]
    fn flight_dump_names_the_dead_rank_and_keeps_survivor_rings() {
        let path = std::env::temp_dir().join(format!(
            "hipress-flight-dump-test-{}.bin",
            std::process::id()
        ));
        let grads = worker_grads(3, &[128]);
        let err = run_threaded(
            Strategy::CaSyncPs,
            Algorithm::OneBit,
            &grads,
            3,
            PipelineConfig {
                iterations: 2,
                window: 2,
            },
            &ProcessConfig {
                membership: MembershipPlan::crash(1, 0),
                flight_dump: Some(path.clone()),
                ..ProcessConfig::default()
            },
        )
        .unwrap_err();
        let bytes = std::fs::read(&path).expect("the failed run wrote its flight dump");
        std::fs::remove_file(&path).unwrap();
        let dump = PostmortemDump::from_bytes(&bytes).unwrap();
        assert_eq!(dump.failed_node, 1, "{err}");
        assert_eq!(dump.nodes, 3);
        let ranks: Vec<u32> = dump.ranks.iter().map(|r| r.rank).collect();
        assert_eq!(ranks, vec![0, 2], "one ring per surviving rank");
        assert!(dump.ranks.iter().all(|r| !r.events.is_empty()));
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
        let algorithm = Algorithm::OneBit;
        let c = algorithm.build().unwrap();
        let grad_lens: Vec<u32> = grads[0].iter().map(|t| t.len() as u32).collect();
        let graph = build_graph(Strategy::CaSyncPs, algorithm, 2, &grad_lens, nodes).unwrap();
        let flows = FlowGeometry::of(&graph).inputs(&grads).unwrap();
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
                &ProcessConfig::default(),
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

    /// Degenerate pipeline configs, a strategy the graph builder
    /// refuses, and membership plans the chosen loss policy cannot
    /// honour are all rejected before any worker is spawned.
    #[test]
    fn bad_pipeline_configs_rejected_before_spawn() {
        let grads = worker_grads(2, &[16]);
        let fixed = |membership| ProcessConfig {
            membership,
            ..ProcessConfig::default()
        };
        let serial = PipelineConfig::default();
        for (partitions, pcfg, pconf) in [
            (
                1,
                PipelineConfig {
                    iterations: 0,
                    window: 1,
                },
                ProcessConfig::default(),
            ),
            (
                1,
                PipelineConfig {
                    iterations: 1,
                    window: 0,
                },
                ProcessConfig::default(),
            ),
            (0, serial, ProcessConfig::default()),
            // A rank out of range, and an iteration out of range.
            (1, serial, fixed(MembershipPlan::crash(2, 0))),
            (1, serial, fixed(MembershipPlan::crash(1, 1))),
            // A rejoin needs evict-on-loss.
            (1, serial, fixed(MembershipPlan::crash_then_rejoin(1, 0, 0))),
            // Evicting one of two ranks leaves nobody to sync with.
            (
                1,
                serial,
                ProcessConfig {
                    elastic: true,
                    ..fixed(MembershipPlan::crash(1, 0))
                },
            ),
        ] {
            let err = run_processes(
                Strategy::CaSyncPs,
                Algorithm::None,
                partitions,
                &grads,
                1,
                &pcfg,
                &pconf,
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
        let hub = hipress_obs::Telemetry::new(hipress_metrics::Registry::new());
        let iterations = 3u32;
        run_threaded_workers(
            Strategy::CaSyncPs,
            Algorithm::OneBit,
            2,
            &grads,
            5,
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
