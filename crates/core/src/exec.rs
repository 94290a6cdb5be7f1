//! The CaSync runtime: a discrete-event executor for synchronization
//! task graphs.
//!
//! This is the paper's task manager (§3.1) plus the global
//! coordinator (§3.2), realized over the simulated substrates:
//!
//! * compute tasks (`encode`/`decode`/`merge`/`update`) run on the
//!   node's GPU kernel streams (or, in the on-CPU ablation, on a CPU
//!   executor with PCIe staging copies);
//! * `send`/`recv` pairs run over the NIC fabric; with **bulk
//!   synchronization** enabled, sends destined for the same link are
//!   queued per link by the coordinator and flushed as one batched
//!   transfer when a size threshold or timeout is reached ("the size
//!   of each batch is decided based on a specified timeout or a size
//!   threshold, whichever is met first", §3.2);
//! * **batch compression** groups small codec kernels per node into
//!   one launch with a single callback (§3.2);
//! * disabling **pipelining** serializes each node's compute and
//!   communication through one resource, reproducing the
//!   coarse-grained execution of conventional synchronization.
//!
//! Dependencies are tracked exactly as in Figure 2, by the task
//! manager CaSync-RT runs too ([`crate::sched`]): one node machine per
//! node at one iteration and window 1. A completed task clears its
//! dependents' pending edges in ascending task order and starts any
//! task whose edges are all clear.

use crate::cluster::ClusterConfig;
use crate::graph::{Primitive, TaskGraph, TaskId};
use crate::plan::{CompressionSpec, IterationSpec};
use crate::sched::{DepIndex, Machine};
use hipress_simevent::{Actor, Ctx, Engine, FifoResource, SimTime};
use hipress_simgpu::{CopyPath, DeviceSpec, GpuDevice};
use hipress_simnet::{Fabric, NodeId};
use hipress_trace::Tracer;
use hipress_util::{Error, Result};
use std::collections::HashMap;

/// Coordinator flush threshold per link batch (bulk synchronization,
/// §3.2).
pub const LINK_BATCH_BYTES: u64 = 4 * 1024 * 1024;

/// Coordinator flush timeout per link batch.
pub const LINK_BATCH_TIMEOUT_NS: u64 = 100_000;

/// Codec tasks at or below this raw size are batched into one launch
/// (batch compression, §3.2) — here and in the runtime's node loop.
pub const BATCH_MAX_TASK_BYTES: u64 = 256 * 1024;

/// Codec batch flush threshold.
pub const COMP_BATCH_BYTES: u64 = 2 * 1024 * 1024;

/// Codec batch flush timeout.
pub const COMP_BATCH_TIMEOUT_NS: u64 = 30_000;

/// Kernel streams per GPU used for synchronization work.
pub const GPU_STREAMS: usize = 2;

/// Executor tuning knobs; the Figure 11 ablation toggles these.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Allow compute and communication of different tasks to overlap
    /// on a node. Off = coarse-grained serial execution.
    pub pipelining: bool,
    /// Enable the coordinator's per-link batching of small transfers.
    pub bulk_network: bool,
    /// Enable batching of small codec kernels into single launches.
    pub batch_compression: bool,
    /// Run codec kernels on the CPU (with PCIe staging copies) —
    /// the on-CPU baseline of §2.5/§6.3.
    pub on_cpu_codec: bool,
    /// Run aggregator-side tasks on the host CPU — the BytePS server
    /// architecture (its servers are CPU processes; §2.2). CaSync
    /// aggregates on GPU, which is a large part of its advantage when
    /// compression multiplies server-side work.
    pub cpu_servers: bool,
    /// Extra memory passes per codec kernel (BytePS staging copies).
    pub codec_extra_passes: f64,
    /// Fixed CPU-path cost charged per transmitted message (tensor
    /// registration, RPC marshalling, ZMQ push/pull in BytePS's
    /// engine; effectively zero for NCCL point-to-point).
    pub rpc_overhead_ns: u64,
}

impl ExecConfig {
    /// The full HiPress configuration: everything on.
    pub fn hipress() -> Self {
        Self {
            pipelining: true,
            bulk_network: true,
            batch_compression: true,
            on_cpu_codec: false,
            cpu_servers: false,
            codec_extra_passes: 0.0,
            rpc_overhead_ns: 0,
        }
    }

    /// Baseline runtime (BytePS / Horovod): pipelined execution but no
    /// compression-aware coordinator or kernel batching.
    pub fn baseline() -> Self {
        Self {
            bulk_network: false,
            batch_compression: false,
            ..Self::hipress()
        }
    }

    /// The BytePS runtime: baseline plus CPU-side servers and the
    /// extra staging copies its layered architecture performs (§6.3).
    pub fn byteps() -> Self {
        Self {
            cpu_servers: true,
            codec_extra_passes: 1.0,
            rpc_overhead_ns: 150_000,
            ..Self::baseline()
        }
    }

    /// Disables pipelining (Figure 11 "on-GPU" rung, before the
    /// pipelining optimization is stacked on).
    pub fn without_pipelining(mut self) -> Self {
        self.pipelining = false;
        self
    }

    /// Moves codec kernels to the CPU (Figure 11 "on-CPU" rung).
    pub fn with_cpu_codec(mut self) -> Self {
        self.on_cpu_codec = true;
        self
    }
}

/// Execution statistics for one iteration.
#[derive(Debug, Clone)]
pub struct ExecStats {
    /// Completion time of the last task (ns from backward start).
    pub makespan_ns: u64,
    /// Per-gradient synchronization finish: the latest `Update` (or,
    /// for graphs without updates, the latest task) of each gradient.
    pub grad_finish_ns: Vec<u64>,
    /// Per-node `(uplink, downlink)` busy ns.
    pub network_busy_ns: Vec<(u64, u64)>,
    /// Per-node synchronization-GPU busy ns (codec + merge kernels).
    pub sync_gpu_busy_ns: Vec<u64>,
    /// Per-node CPU busy ns (on-CPU codecs, CPU-side servers).
    pub cpu_busy_ns: Vec<u64>,
    /// Number of batched network flushes the coordinator performed.
    pub link_flushes: u64,
    /// Number of batched codec launches.
    pub comp_batch_launches: u64,
    /// Total events processed.
    pub events: u64,
}

impl ExecStats {
    /// The paper's "communication ratio": the busiest node's network
    /// activity over the makespan (Table 1).
    pub fn comm_ratio(&self) -> f64 {
        if self.makespan_ns == 0 {
            return 0.0;
        }
        let busiest = self
            .network_busy_ns
            .iter()
            .map(|&(u, d)| u.max(d))
            .max()
            .unwrap_or(0);
        busiest as f64 / self.makespan_ns as f64
    }
}

/// Events inside the executor.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Seed the source tasks.
    Kick,
    /// Begin executing a task whose dependencies (and earliest time)
    /// are satisfied.
    Start(TaskId),
    /// A task completed.
    Finished(TaskId),
    /// Coordinator timeout flush for link (src, dst); the generation
    /// guards against stale timers.
    FlushLink { src: u32, dst: u32, gen: u32 },
    /// Timeout flush for a node's codec batch.
    FlushComp { node: u32, gen: u32 },
}

#[derive(Default)]
struct LinkBatch {
    sends: Vec<TaskId>,
    bytes: u64,
    gen: u32,
    /// Whether a timer is pending for the current generation.
    armed: bool,
}

#[derive(Default)]
struct CompBatch {
    tasks: Vec<(TaskId, u64)>, // (task, body cost ns)
    bytes: u64,
    gen: u32,
    armed: bool,
}

/// One buffered span: a task's simulated execution window.
struct SpanRec {
    node: usize,
    category: &'static str,
    ts_ns: u64,
    dur_ns: u64,
    args: Vec<(&'static str, u64)>,
}

/// One buffered instant event (message arrival, batch launch).
struct InstantRec {
    node: usize,
    name: &'static str,
    category: &'static str,
    ts_ns: u64,
    args: Vec<(&'static str, u64)>,
}

/// Span/instant buffer filled while the simulation runs. Events are
/// recorded out of timeline order (the scheduler books windows ahead
/// of the virtual clock), so they are buffered here and lowered onto
/// the tracer's per-node tracks, time-sorted, after the run.
#[derive(Default)]
struct TraceRec {
    spans: Vec<SpanRec>,
    instants: Vec<InstantRec>,
}

/// The scheduler actor: owns all executor state.
struct Scheduler {
    graph: TaskGraph,
    cfg: ExecConfig,
    device: DeviceSpec,
    cpu_device: DeviceSpec,
    compression: Option<CompressionSpec>,
    fabric: Fabric,
    gpus: Vec<GpuDevice>,
    cpus: Vec<FifoResource>,
    /// One serial resource per node used when pipelining is off.
    serial: Vec<FifoResource>,
    ix: DepIndex,
    /// Per node, its task manager over the one iteration.
    machines: Vec<Machine<()>>,
    ready_at: Vec<u64>,
    finish_at: Vec<u64>,
    /// For each `Send` task: the arrival time of its transfer, once
    /// scheduled.
    arrival: HashMap<TaskId, u64>,
    link_batches: HashMap<(u32, u32), LinkBatch>,
    comp_batches: Vec<CompBatch>,
    grad_finish: Vec<u64>,
    link_flushes: u64,
    comp_batch_launches: u64,
    /// Recvs that executed before their batched transfer was flushed:
    /// send task → waiting recv task.
    pending_recvs: HashMap<TaskId, TaskId>,
    /// Buffered trace events when running under a tracer.
    rec: Option<TraceRec>,
}

impl Scheduler {
    /// Buffers a span for `id` over `[start, end)`, with the same
    /// argument set CaSync-RT attaches to its task spans.
    fn record_task_span(&mut self, id: TaskId, start: u64, end: u64) {
        if self.rec.is_none() {
            return;
        }
        let t = self.graph.task(id);
        let (node, category) = (t.node, t.prim.name());
        let mut args = vec![
            ("grad", u64::from(t.chunk.grad)),
            ("part", u64::from(t.chunk.part)),
            ("task", u64::from(id.0)),
        ];
        if t.prim == Primitive::Send {
            args.push(("bytes_wire", t.bytes_wire));
            args.push(("bytes_raw", t.bytes_raw));
        }
        if let Some(rec) = &mut self.rec {
            rec.spans.push(SpanRec {
                node,
                category,
                ts_ns: start,
                dur_ns: end - start,
                args,
            });
        }
    }

    fn codec_passes(&self, prim: Primitive) -> f64 {
        let spec = self.compression.expect("codec task without compression");
        let base = match prim {
            Primitive::Encode => spec.encode_passes,
            Primitive::Decode => spec.decode_passes,
            _ => unreachable!("not a codec primitive"),
        };
        base + self.cfg.codec_extra_passes
    }

    /// Whether a task executes on the host CPU under the current
    /// runtime configuration.
    fn runs_on_cpu(&self, id: TaskId) -> bool {
        let t = self.graph.task(id);
        (self.cfg.on_cpu_codec && matches!(t.prim, Primitive::Encode | Primitive::Decode))
            || (self.cfg.cpu_servers && t.at_aggregator)
    }

    /// Body cost (without launch overhead) of a compute task on the
    /// executing device.
    fn compute_body_ns(&self, id: TaskId) -> u64 {
        let t = self.graph.task(id);
        let dev = if self.runs_on_cpu(id) {
            &self.cpu_device
        } else {
            &self.device
        };
        let bw = dev.effective_bandwidth.as_bytes_per_sec();
        let bytes_moved = match t.prim {
            Primitive::Encode => t.bytes_raw as f64 * self.codec_passes(Primitive::Encode),
            Primitive::Decode => {
                // Sweep the compressed input, write the dense output.
                t.bytes_wire as f64 * self.codec_passes(Primitive::Decode) + t.bytes_raw as f64
            }
            Primitive::Merge => t.bytes_raw as f64 * 3.0,
            Primitive::Update => t.bytes_raw as f64,
            _ => 0.0,
        };
        (bytes_moved / bw * 1e9).ceil() as u64
    }

    /// Launch overhead for a compute task.
    fn launch_ns(&self, id: TaskId) -> u64 {
        let t = self.graph.task(id);
        if self.cfg.on_cpu_codec && matches!(t.prim, Primitive::Encode | Primitive::Decode) {
            // CPU dispatch plus the PCIe staging copy of the dense
            // gradient (D2H before encode, H2D after decode).
            self.cpu_device.kernel_launch_ns + self.device.copy_ns(CopyPath::Pcie, t.bytes_raw)
        } else if self.runs_on_cpu(id) {
            // Server-side CPU work: data arrived in host memory, no
            // PCIe staging.
            self.cpu_device.kernel_launch_ns
        } else {
            self.device.kernel_launch_ns
        }
    }

    /// Runs a task once its dependencies are met, at time `now`.
    fn execute(&mut self, ctx: &mut Ctx<'_, Ev>, id: TaskId, now: u64) {
        let prim = self.graph.task(id).prim;
        match prim {
            Primitive::Source | Primitive::Barrier => {
                self.finish(ctx, id, now);
            }
            Primitive::Encode | Primitive::Decode | Primitive::Merge | Primitive::Update => {
                let is_codec = matches!(prim, Primitive::Encode | Primitive::Decode);
                let on_cpu = self.runs_on_cpu(id);
                let bytes = self.graph.task(id).bytes_raw;
                if self.cfg.batch_compression
                    && is_codec
                    && !on_cpu
                    && self.cfg.pipelining
                    && bytes <= BATCH_MAX_TASK_BYTES
                {
                    self.enqueue_comp_batch(ctx, id, now);
                } else {
                    let dur = self.launch_ns(id) + self.compute_body_ns(id);
                    let node = self.graph.task(id).node;
                    let (start, end) = self.acquire_compute(node, now, dur, on_cpu);
                    self.record_task_span(id, start, end);
                    self.finish_later(ctx, id, end);
                }
            }
            Primitive::Send => {
                // Per-message engine overhead (RPC marshalling) on the
                // sender's CPU path; the transfer is initiated when it
                // clears.
                let now = if self.cfg.rpc_overhead_ns > 0 {
                    let (_, end) = self.cpus[self.graph.task(id).node]
                        .acquire(SimTime::from_ns(now), self.cfg.rpc_overhead_ns);
                    end.as_ns()
                } else {
                    now
                };
                if self.cfg.bulk_network && self.cfg.pipelining {
                    self.enqueue_link_batch(ctx, id, now);
                } else {
                    self.transfer_now(ctx, &[id], now);
                }
                // The send task itself completes at dispatch; the
                // transfer's arrival gates the paired recv.
                self.finish(ctx, id, now);
            }
            Primitive::Recv => {
                let send_dep = self
                    .graph
                    .find_dep(id, Primitive::Send)
                    .expect("validated graphs pair each recv with a send");
                match self.arrival.get(&send_dep) {
                    Some(&arr) => {
                        let t = arr.max(now);
                        self.finish(ctx, id, t);
                    }
                    None => {
                        // The send sits in a pending link batch; the
                        // flush completes this recv at arrival.
                        self.pending_recvs.insert(send_dep, id);
                    }
                }
            }
        }
    }

    fn acquire_compute(&mut self, node: usize, now: u64, dur: u64, on_cpu: bool) -> (u64, u64) {
        let t = SimTime::from_ns(now);
        if !self.cfg.pipelining {
            let (s, e) = self.serial[node].acquire(t, dur);
            return (s.as_ns(), e.as_ns());
        }
        if on_cpu {
            let (s, e) = self.cpus[node].acquire(t, dur);
            return (s.as_ns(), e.as_ns());
        }
        let stream = self.gpus[node].least_busy_stream(t);
        let (s, e) = self.gpus[node].launch_costed(t, stream, dur);
        (s.as_ns(), e.as_ns())
    }

    fn enqueue_comp_batch(&mut self, ctx: &mut Ctx<'_, Ev>, id: TaskId, now: u64) {
        let node = self.graph.task(id).node;
        let body = self.compute_body_ns(id);
        let bytes = self.graph.task(id).bytes_raw;
        // Batching amortizes launches under load; an idle GPU gains
        // nothing from waiting, so flush immediately when a stream is
        // free (the coordinator only delays work that would queue
        // anyway).
        let t = SimTime::from_ns(now);
        let stream = self.gpus[node].least_busy_stream(t);
        let gpu_idle = self.gpus[node].stream_free_at(stream, t) <= t;
        let batch = &mut self.comp_batches[node];
        batch.tasks.push((id, body));
        batch.bytes += bytes;
        if batch.bytes >= COMP_BATCH_BYTES || gpu_idle {
            self.flush_comp(ctx, node, now);
        } else if !batch.armed {
            batch.armed = true;
            let gen = batch.gen;
            ctx.send_self_after(
                COMP_BATCH_TIMEOUT_NS,
                Ev::FlushComp {
                    node: node as u32,
                    gen,
                },
            );
        }
    }

    fn flush_comp(&mut self, ctx: &mut Ctx<'_, Ev>, node: usize, now: u64) {
        let batch = &mut self.comp_batches[node];
        if batch.tasks.is_empty() {
            batch.gen += 1;
            batch.armed = false;
            return;
        }
        let tasks = std::mem::take(&mut batch.tasks);
        batch.bytes = 0;
        batch.gen += 1;
        batch.armed = false;
        // One launch, one callback, for the whole batch (SS3.2).
        let dur: u64 = self.device.kernel_launch_ns + tasks.iter().map(|&(_, b)| b).sum::<u64>();
        let (start, end) = self.acquire_compute(node, now, dur, false);
        self.comp_batch_launches += 1;
        if let Some(rec) = &mut self.rec {
            rec.instants.push(InstantRec {
                node,
                name: "batch",
                category: "batch",
                ts_ns: now,
                args: vec![("size", tasks.len() as u64)],
            });
        }
        for (id, _) in tasks {
            // Batched tasks share the single launch window.
            self.record_task_span(id, start, end);
            self.finish_later(ctx, id, end);
        }
    }

    fn enqueue_link_batch(&mut self, ctx: &mut Ctx<'_, Ev>, id: TaskId, now: u64) {
        let t = self.graph.task(id);
        let key = (t.node as u32, t.peer.expect("send has a peer") as u32);
        // The coordinator transmits on idle links immediately (its
        // job is to pick non-conflicting links, SS3.2); batching only
        // delays transfers that would queue behind a busy link.
        let idle = self.fabric.link_idle(
            SimTime::from_ns(now),
            NodeId(key.0 as usize),
            NodeId(key.1 as usize),
        );
        let batch = self.link_batches.entry(key).or_default();
        batch.sends.push(id);
        batch.bytes += t.bytes_wire;
        if batch.bytes >= LINK_BATCH_BYTES || idle {
            self.flush_link(ctx, key, now);
        } else if !batch.armed {
            batch.armed = true;
            let gen = batch.gen;
            ctx.send_self_after(
                LINK_BATCH_TIMEOUT_NS,
                Ev::FlushLink {
                    src: key.0,
                    dst: key.1,
                    gen,
                },
            );
        }
    }

    fn flush_link(&mut self, ctx: &mut Ctx<'_, Ev>, key: (u32, u32), now: u64) {
        let batch = self.link_batches.entry(key).or_default();
        if batch.sends.is_empty() {
            batch.gen += 1;
            batch.armed = false;
            return;
        }
        let sends = std::mem::take(&mut batch.sends);
        batch.bytes = 0;
        batch.gen += 1;
        batch.armed = false;
        self.link_flushes += 1;
        self.transfer_now(ctx, &sends, now);
    }

    /// Performs (or schedules) the physical transfer for a group of
    /// sends sharing a link, completing their paired recvs at arrival.
    fn transfer_now(&mut self, ctx: &mut Ctx<'_, Ev>, sends: &[TaskId], now: u64) {
        debug_assert!(!sends.is_empty());
        let first = self.graph.task(sends[0]);
        let (src, dst) = (first.node, first.peer.expect("send has a peer"));
        let bytes: u64 = sends.iter().map(|&s| self.graph.task(s).bytes_wire).sum();
        let mut t = SimTime::from_ns(now);
        if !self.cfg.pipelining {
            // Non-pipelined execution: the node is blocked for the
            // serialization window as well, and the transfer cannot
            // start before the node is free.
            let ser = self
                .fabric
                .isolated_transfer_ns(NodeId(src), NodeId(dst), bytes)
                .saturating_sub(self.fabric.spec(NodeId(src)).latency_ns);
            let (start, _) = self.serial[src].acquire(t, ser);
            t = start;
        }
        let plan = self.fabric.transfer(t, NodeId(src), NodeId(dst), bytes);
        let arr = plan.arrive.as_ns();
        let start = t.as_ns();
        for &s in sends {
            self.arrival.insert(s, arr);
            // The send's span is its wire occupancy: transfer start to
            // arrival on the sender's track, plus a message-arrival
            // instant on the receiver's.
            self.record_task_span(s, start, arr);
            if self.rec.is_some() {
                let bytes_wire = self.graph.task(s).bytes_wire;
                if let Some(rec) = &mut self.rec {
                    rec.instants.push(InstantRec {
                        node: dst,
                        name: "msg",
                        category: "fabric",
                        ts_ns: arr,
                        args: vec![("bytes", bytes_wire), ("task", u64::from(s.0))],
                    });
                }
            }
            // If the paired recv already executed and is waiting on
            // this arrival, complete it now.
            if let Some(recv) = self.pending_recvs.remove(&s) {
                self.finish_later(ctx, recv, arr);
            }
        }
    }

    fn finish_later(&mut self, ctx: &mut Ctx<'_, Ev>, id: TaskId, at: u64) {
        let now = ctx.now().as_ns();
        debug_assert!(at >= now);
        ctx.send_after(at - now, ctx.self_id(), Ev::Finished(id));
    }

    fn finish(&mut self, ctx: &mut Ctx<'_, Ev>, id: TaskId, at: u64) {
        debug_assert!(at >= ctx.now().as_ns());
        if at == ctx.now().as_ns() {
            self.complete(ctx, id, at);
        } else {
            self.finish_later(ctx, id, at);
        }
    }

    /// Marks `id` done and promotes dependents (Figure 2 steps 2–3).
    fn complete(&mut self, ctx: &mut Ctx<'_, Ev>, id: TaskId, now: u64) {
        self.finish_at[id.0 as usize] = now;
        let prim = self.graph.task(id).prim;
        if matches!(
            prim,
            Primitive::Source | Primitive::Barrier | Primitive::Recv
        ) {
            // Instantaneous in the cost model: zero-duration marks at
            // completion keep one span per task on the timeline.
            self.record_task_span(id, now, now);
        }
        let t = self.graph.task(id);
        if t.prim == Primitive::Update {
            for m in self.graph.flow_members(t.chunk.grad) {
                let g = m as usize;
                self.grad_finish[g] = self.grad_finish[g].max(now);
            }
        }
        // Edge by edge, across nodes: a dependent that starts at once
        // runs before the next dependent's edge clears.
        for i in 0..self.ix.dependents(id).len() {
            let dep = self.ix.dependents(id)[i];
            let ready = self.ready_at[dep.0 as usize].max(now);
            self.ready_at[dep.0 as usize] = ready;
            if self.machines[self.ix.owner(dep)].clear(0, dep) {
                debug_assert!(ready >= now, "readiness cannot precede completion");
                if ready > now {
                    // A gradient not yet produced by backward (its
                    // earliest time is in the future): start later.
                    ctx.send_after(ready - now, ctx.self_id(), Ev::Start(dep));
                } else {
                    self.execute(ctx, dep, ready);
                }
            }
        }
        self.machines[self.ix.owner(id)].done(0);
    }
}

impl Actor<Ev> for Scheduler {
    fn on_event(&mut self, ctx: &mut Ctx<'_, Ev>, msg: Ev) {
        match msg {
            Ev::Kick => {
                // Seed: every zero-indegree task starts at its
                // earliest time.
                for i in 0..self.graph.len() {
                    let id = TaskId(i as u32);
                    if self.ix.indeg(id) == 0 {
                        ctx.send_self_after(self.ready_at[i], Ev::Start(id));
                    }
                }
            }
            Ev::Start(id) => {
                self.execute(ctx, id, ctx.now().as_ns());
            }
            Ev::Finished(id) => {
                self.complete(ctx, id, ctx.now().as_ns());
            }
            Ev::FlushLink { src, dst, gen } => {
                let key = (src, dst);
                if let Some(b) = self.link_batches.get(&key) {
                    if b.gen == gen && !b.sends.is_empty() {
                        self.flush_link(ctx, key, ctx.now().as_ns());
                    }
                }
            }
            Ev::FlushComp { node, gen } => {
                let b = &self.comp_batches[node as usize];
                if b.gen == gen && !b.tasks.is_empty() {
                    self.flush_comp(ctx, node as usize, ctx.now().as_ns());
                }
            }
        }
    }
}

/// The public executor: builds the scheduler, runs it, and extracts
/// statistics.
pub struct Executor {
    cluster: ClusterConfig,
    cfg: ExecConfig,
}

impl Executor {
    /// Creates an executor for a cluster with the given runtime
    /// configuration.
    pub fn new(cluster: ClusterConfig, cfg: ExecConfig) -> Self {
        Self { cluster, cfg }
    }

    /// Executes one iteration's task graph and returns its timing
    /// statistics. Time zero is the start of the backward pass
    /// (gradient `Source` tasks carry their readiness offsets).
    ///
    /// # Errors
    ///
    /// Returns an error if the graph is invalid for the cluster or the
    /// simulation livelocks.
    pub fn run(&self, graph: &TaskGraph, iter: &IterationSpec) -> Result<ExecStats> {
        self.run_inner(graph, iter, None)
    }

    /// Like [`Executor::run`], additionally lowering every task's
    /// simulated execution window into `tracer`: one `node{i}` thread
    /// track per cluster node (timestamps in simulated nanoseconds,
    /// origin at backward start), span categories matching CaSync-RT's
    /// (`source`/`encode`/…/`barrier`), `msg` arrival instants on the
    /// receiver's track, `batch` instants for batched codec launches,
    /// and a `run` span on the `engine` track covering the makespan.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Executor::run`].
    pub fn run_traced(
        &self,
        graph: &TaskGraph,
        iter: &IterationSpec,
        tracer: &Tracer,
    ) -> Result<ExecStats> {
        self.run_inner(graph, iter, Some(tracer))
    }

    fn run_inner(
        &self,
        graph: &TaskGraph,
        iter: &IterationSpec,
        tracer: Option<&Tracer>,
    ) -> Result<ExecStats> {
        // Structural guard: the scheduler indexes per-node resources
        // and resolves each recv's paired send, so those invariants
        // must hold even in release builds. The full defect catalogue
        // lives in `hipress-lint`, which debug builds run via the
        // strategy/interpreter hooks and `hipress lint` runs offline.
        graph.topo_order()?;
        for t in graph.tasks() {
            if t.node >= self.cluster.nodes {
                return Err(Error::sim(format!(
                    "task {:?} on unknown node {}",
                    t.id, t.node
                )));
            }
            match t.prim {
                Primitive::Send => {
                    let peer = t
                        .peer
                        .ok_or_else(|| Error::sim(format!("send {:?} lacks a peer", t.id)))?;
                    if peer == t.node || peer >= self.cluster.nodes {
                        return Err(Error::sim(format!("send {:?} has bad peer {peer}", t.id)));
                    }
                }
                Primitive::Recv if graph.find_dep(t.id, Primitive::Send).is_none() => {
                    return Err(Error::sim(format!(
                        "recv {:?} has no send dependency",
                        t.id
                    )));
                }
                _ => {}
            }
        }
        let n = self.cluster.nodes;
        let fabric = Fabric::homogeneous(n, self.cluster.effective_link())?;
        let gpus = (0..n)
            .map(|_| GpuDevice::new(self.cluster.gpu, GPU_STREAMS))
            .collect();
        let tasks = graph.len();
        let ix = DepIndex::of(graph);
        let machines = (0..n)
            .map(|node| {
                let mut m = Machine::new(&ix, node, 1, 1);
                m.admit(&ix);
                m
            })
            .collect();
        let scheduler = Scheduler {
            graph: graph.clone(),
            cfg: self.cfg,
            device: self.cluster.gpu,
            cpu_device: DeviceSpec::cpu(),
            compression: iter.compression,
            fabric,
            gpus,
            cpus: vec![FifoResource::new(); n],
            serial: vec![FifoResource::new(); n],
            ix,
            machines,
            ready_at: graph.tasks().iter().map(|t| t.earliest_ns).collect(),
            finish_at: vec![u64::MAX; tasks],
            arrival: HashMap::new(),
            link_batches: HashMap::new(),
            comp_batches: (0..n).map(|_| CompBatch::default()).collect(),
            grad_finish: vec![0; iter.gradients.len()],
            link_flushes: 0,
            comp_batch_launches: 0,
            pending_recvs: HashMap::new(),
            rec: tracer.map(|_| TraceRec::default()),
        };
        let mut engine: Engine<Ev> = Engine::new();
        let actor = engine.add_actor(Box::new(scheduler));
        engine.schedule(SimTime::ZERO, actor, Ev::Kick);
        engine.run(None)?;
        let events = engine.events_handled();
        let s = engine.actor::<Scheduler>(actor);
        let finished = s.finish_at.iter().filter(|&&t| t != u64::MAX).count();
        if finished != tasks {
            return Err(Error::sim(format!(
                "executor stalled: {}/{} tasks completed (deadlocked dependencies?)",
                finished, tasks
            )));
        }
        let makespan = s.finish_at.iter().copied().max().unwrap_or(0);
        if let Some(tr) = tracer {
            let engine_track = tr.thread_track("engine");
            let node_tracks: Vec<_> = (0..n)
                .map(|i| tr.thread_track(&format!("node{i}")))
                .collect();
            if let Some(rec) = &s.rec {
                let mut order: Vec<usize> = (0..rec.spans.len()).collect();
                order.sort_by_key(|&i| (rec.spans[i].ts_ns, rec.spans[i].node));
                for i in order {
                    let sp = &rec.spans[i];
                    tr.record_span(
                        node_tracks[sp.node],
                        sp.category,
                        sp.category,
                        sp.ts_ns,
                        sp.dur_ns,
                        &sp.args,
                    );
                }
                let mut order: Vec<usize> = (0..rec.instants.len()).collect();
                order.sort_by_key(|&i| (rec.instants[i].ts_ns, rec.instants[i].node));
                for i in order {
                    let ev = &rec.instants[i];
                    tr.instant(
                        node_tracks[ev.node],
                        ev.name,
                        ev.category,
                        ev.ts_ns,
                        &ev.args,
                    );
                }
            }
            tr.record_span(
                engine_track,
                "run",
                "run",
                0,
                makespan,
                &[("nodes", n as u64)],
            );
        }
        let network_busy_ns = (0..n)
            .map(|i| {
                (
                    s.fabric.uplink_busy_ns(NodeId(i)),
                    s.fabric.downlink_busy_ns(NodeId(i)),
                )
            })
            .collect();
        let sync_gpu_busy_ns = (0..n).map(|i| s.gpus[i].kernel_busy_ns()).collect();
        let cpu_busy_ns = (0..n).map(|i| s.cpus[i].busy_ns()).collect();
        Ok(ExecStats {
            makespan_ns: makespan,
            grad_finish_ns: s.grad_finish.clone(),
            network_busy_ns,
            sync_gpu_busy_ns,
            cpu_busy_ns,
            link_flushes: s.link_flushes,
            comp_batch_launches: s.comp_batch_launches,
            events,
        })
    }
}
