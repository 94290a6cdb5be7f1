//! The shared core of the CaSync execution engine: what every node
//! loop computes, whichever loop drives it.
//!
//! Each node runs the paper's task manager (§3.1) for real: its share
//! of the task DAG, two queues — `Q_comp` for computing primitives,
//! `Q_commu` for communication primitives — and dependency-count
//! promotion driven by actual completion events. Local dependencies
//! are cleared when the node finishes a task; remote dependencies are
//! cleared by completion messages arriving on the node's inbox, with
//! `Send` completions carrying the payload itself (so the message
//! *is* the transfer). The task manager and the loop around it live
//! in [`crate::pipeline`]; this module holds what they operate on —
//! the static [`NodePlan`], the chunk geometry ([`FlowLayout`]), the
//! message and payload types, the instrumentation handles, and
//! [`NodeCore`], which executes one primitive.
//!
//! The dataflow semantics are exactly those of
//! [`hipress_core::interp`]: the same per-task encode seeds, the same
//! serial merge chains, the same owner-installs-`decode(encode(sum))`
//! rule for replica consistency. A graph executed here and in the
//! discrete-event interpreter produces bit-identical installed
//! parameters — that cross-validation is what lets the simulator and
//! the runtime vouch for each other.
//!
//! [`NodeCore`] is shared between the trusted-fabric loop
//! ([`crate::pipeline`]) and the fault-tolerant worker in
//! [`crate::ft`] (which trusts nothing): both run the same dataflow,
//! so surviving an unreliable fabric cannot change what gets
//! computed — only whether it completes.

use crate::report::RuntimeReport;
use hipress_compress::Compressor;
use hipress_core::graph::{Primitive, SendSrc, TaskGraph, TaskId};
use hipress_core::interp::FlowOutcome;
use hipress_metrics::names;
use hipress_tensor::Tensor;
use hipress_trace::{Counter, Tracer, TrackId};
use hipress_util::{Error, Result};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning knobs for the thread engine.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Group small ready `Encode` tasks into one launch (the batch
    /// compression optimization of §3.2). Semantically neutral; the
    /// report counts launches so the batching is observable.
    pub batch_compression: bool,
    /// Encodes at or below this raw size are eligible for batching.
    pub comp_batch_max_task_bytes: u64,
    /// How long a node thread waits on a silent inbox before
    /// declaring the protocol wedged and unwinding with an error
    /// instead of hanging (a lost peer or malformed graph, not
    /// ordinary slowness).
    pub inbox_timeout: Duration,
    /// Shortest inbox poll the fault-tolerant worker uses between
    /// protocol timer checks (the floor of its adaptive wait).
    pub ft_min_wait: Duration,
    /// Longest inbox poll the fault-tolerant worker allows before
    /// re-checking its retransmission and straggler timers.
    pub ft_max_wait: Duration,
    /// Idle interval after which a fault-tolerant link emits a
    /// heartbeat (also the TCP fabric's link heartbeat).
    pub ft_heartbeat: Duration,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            batch_compression: true,
            comp_batch_max_task_bytes: 256 * 1024,
            inbox_timeout: Duration::from_secs(30),
            ft_min_wait: Duration::from_micros(200),
            ft_max_wait: Duration::from_millis(10),
            ft_heartbeat: Duration::from_millis(25),
        }
    }
}

/// One node thread's tracing handles: its timeline track plus the
/// queue-depth gauges. `None` on the worker means tracing is off and
/// the hot path records nothing (and allocates nothing). Cloneable so
/// the pipelined driver can hand every in-flight iteration's core the
/// same shared handles.
#[derive(Clone)]
pub(crate) struct NodeTrace {
    pub(crate) tracer: Tracer,
    pub(crate) track: TrackId,
    pub(crate) q_comp: Counter,
    pub(crate) q_commu: Counter,
}

/// Optional observers for one run. All are borrowed: the engine
/// records into them but owns none, and a `None` field keeps the
/// corresponding hot path free of any recording work.
#[derive(Debug, Clone, Copy, Default)]
pub struct Instruments<'a> {
    /// Structured timeline recording (`hipress-trace`).
    pub tracer: Option<&'a Tracer>,
    /// Live metric recording (`hipress-metrics`); run-level labels
    /// such as `algorithm`/`strategy` come from the scope, the engine
    /// adds `node`.
    pub metrics: Option<&'a hipress_metrics::Scope>,
    /// Live telemetry hub (`hipress-obs`): per-iteration progress
    /// records, heartbeats, and the SLO watchdog. Costs one ring
    /// publish per *retired iteration*, never per task.
    pub progress: Option<&'a hipress_obs::Telemetry>,
}

/// One node thread's metric handles, all pre-resolved on the main
/// thread so the hot path is pure atomic recording. Every handle
/// carries the `node` label; names come from the shared catalogue
/// ([`hipress_metrics::names`]) so snapshots line up with
/// trace-lowered and simulated runs.
#[derive(Clone)]
pub(crate) struct NodeMetrics {
    /// Per-primitive latency histograms, indexed by [`prim_index`].
    prims: [hipress_metrics::Histogram; 8],
    local_agg: hipress_metrics::Histogram,
    bytes_wire: hipress_metrics::Counter,
    bytes_raw: hipress_metrics::Counter,
    pub(crate) messages: hipress_metrics::Counter,
    pub(crate) batch_launches: hipress_metrics::Counter,
    pub(crate) q_comp_depth: hipress_metrics::Histogram,
    pub(crate) q_commu_depth: hipress_metrics::Histogram,
    /// Per-node link traffic as the fabric counted it (byte counts
    /// stay zero on the channel fabric, which never frames).
    pub(crate) fabric_frames: hipress_metrics::Counter,
    pub(crate) fabric_bytes_framed: hipress_metrics::Counter,
    pub(crate) fabric_bytes_payload: hipress_metrics::Counter,
    pub(crate) fabric_retransmits: hipress_metrics::Counter,
}

impl NodeMetrics {
    pub(crate) fn new(scope: &hipress_metrics::Scope, node: usize) -> Self {
        let s = scope.with(&[("node", &node.to_string())]);
        Self {
            prims: std::array::from_fn(|i| s.histogram(names::PRIM_NS[i], &[])),
            local_agg: s.histogram(names::LOCAL_AGG_NS, &[]),
            bytes_wire: s.counter(names::BYTES_WIRE, &[]),
            bytes_raw: s.counter(names::BYTES_RAW, &[]),
            messages: s.counter(names::MESSAGES, &[]),
            batch_launches: s.counter(names::COMP_BATCH_LAUNCHES, &[]),
            q_comp_depth: s.histogram(names::Q_COMP_DEPTH, &[]),
            q_commu_depth: s.histogram(names::Q_COMMU_DEPTH, &[]),
            fabric_frames: s.counter(names::FABRIC_FRAMES, &[]),
            fabric_bytes_framed: s.counter(names::FABRIC_BYTES_FRAMED, &[]),
            fabric_bytes_payload: s.counter(names::FABRIC_BYTES_PAYLOAD, &[]),
            fabric_retransmits: s.counter(names::FABRIC_RETRANSMITS, &[]),
        }
    }
}

/// Builds the per-node tracing handles (and registers every track up
/// front on the main thread, so the layout is deterministic: engine
/// first, then each node's timeline and queue gauges in node order).
pub(crate) fn build_node_traces(tracer: Option<&Tracer>, nodes: usize) -> Vec<Option<NodeTrace>> {
    let mut node_traces: Vec<Option<NodeTrace>> = Vec::with_capacity(nodes);
    if let Some(tr) = tracer {
        tr.thread_track("engine");
        for node in 0..nodes {
            let track = tr.thread_track(&format!("node{node}"));
            let q_comp = tr.counter(tr.counter_track(&format!("node{node}/Q_comp")));
            let q_commu = tr.counter(tr.counter_track(&format!("node{node}/Q_commu")));
            node_traces.push(Some(NodeTrace {
                tracer: tr.clone(),
                track,
                q_comp,
                q_commu,
            }));
        }
    } else {
        node_traces.resize_with(nodes, || None);
    }
    node_traces
}

/// Builds one rank's tracing handles for a worker process that only
/// hosts that rank (no `engine` track — the coordinator owns the run
/// span, and an empty track would fail trace validation). Track names
/// carry the *global* rank, so merged traces never collide.
pub(crate) fn single_node_trace(tracer: &Tracer, node: usize) -> NodeTrace {
    let track = tracer.thread_track(&format!("node{node}"));
    let q_comp = tracer.counter(tracer.counter_track(&format!("node{node}/Q_comp")));
    let q_commu = tracer.counter(tracer.counter_track(&format!("node{node}/Q_commu")));
    NodeTrace {
        tracer: tracer.clone(),
        track,
        q_comp,
        q_commu,
    }
}

/// Builds the per-node metric handles (resolved up front for the same
/// reason: the worker hot path then touches only atomics).
pub(crate) fn build_node_metrics(
    scope: Option<&hipress_metrics::Scope>,
    nodes: usize,
) -> Vec<Option<NodeMetrics>> {
    let mut node_metrics: Vec<Option<NodeMetrics>> = Vec::with_capacity(nodes);
    if let Some(scope) = scope {
        for node in 0..nodes {
            node_metrics.push(Some(NodeMetrics::new(scope, node)));
        }
    } else {
        node_metrics.resize_with(nodes, || None);
    }
    node_metrics
}

/// Records the run-wall span on the engine track (carrying the same
/// wall measurement the report stores, keeping trace-derived reports
/// exact).
pub(crate) fn record_run_span(
    tracer: Option<&Tracer>,
    run_start_ns: Option<u64>,
    wall_ns: u64,
    nodes: usize,
    iterations: u64,
    pipeline_window: u64,
    epochs: u64,
) {
    if let Some(tr) = tracer {
        let engine = tr.thread_track("engine");
        let mut args = vec![("nodes", nodes as u64)];
        if iterations > 0 {
            // Every trusted-fabric run; only the fault-tolerant
            // worker, which has no iteration notion, reports zero.
            args.push(("iterations", iterations));
            args.push(("window", pipeline_window));
        }
        if epochs > 0 {
            // Elastic runs only; fixed-membership runs carry no epoch
            // arg so their traces stay byte-identical to before.
            args.push(("epochs", epochs));
        }
        tr.record_span(
            engine,
            "run",
            "run",
            run_start_ns.unwrap_or(0),
            wall_ns,
            &args,
        );
    }
}

/// Records the run-level metric gauges derived from the assembled
/// report, at the scope's own labels (no `node`): wall time,
/// throughput in raw gradient bytes synchronized per second, and the
/// wire-volume reduction factor.
pub(crate) fn record_run_metrics(scope: &hipress_metrics::Scope, report: &RuntimeReport) {
    scope.gauge(names::WALL_NS, &[]).set(report.wall_ns as f64);
    scope.gauge(names::NODES, &[]).set(report.nodes as f64);
    if report.wall_ns > 0 {
        scope
            .gauge(names::THROUGHPUT, &[])
            .set(report.bytes_raw as f64 / (report.wall_ns as f64 / 1e9));
    }
    scope
        .gauge(names::COMPRESSION_SAVINGS, &[])
        .set(report.compression_savings());
    scope
        .timeseries(names::ITERATION_NS, &[])
        .push(report.wall_ns as f64);
    if report.fabric_frames > 0 {
        scope
            .counter(names::FABRIC_FRAMES, &[])
            .add(report.fabric_frames);
        scope
            .counter(names::FABRIC_BYTES_FRAMED, &[])
            .add(report.fabric_bytes_framed);
        scope
            .counter(names::FABRIC_BYTES_PAYLOAD, &[])
            .add(report.fabric_bytes_payload);
        scope
            .counter(names::FABRIC_RETRANSMITS, &[])
            .add(report.fabric_retransmits);
    }
    if report.iterations > 1 {
        scope
            .gauge(names::PIPELINE_OVERLAP, &[])
            .set(report.pipeline_overlap());
    }
}

/// The index of a primitive's histogram in [`NodeMetrics::prims`]
/// (same order as [`names::PRIM_NS`] and the report's buckets).
fn prim_index(p: Primitive) -> usize {
    match p {
        Primitive::Source => 0,
        Primitive::Encode => 1,
        Primitive::Decode => 2,
        Primitive::Merge => 3,
        Primitive::Send => 4,
        Primitive::Recv => 5,
        Primitive::Update => 6,
        Primitive::Barrier => 7,
    }
}

/// The span category used for each primitive (also the span name).
/// [`RuntimeReport::from_trace`] keys its buckets on these.
fn prim_category(p: Primitive) -> &'static str {
    match p {
        Primitive::Source => "source",
        Primitive::Encode => "encode",
        Primitive::Decode => "decode",
        Primitive::Merge => "merge",
        Primitive::Send => "send",
        Primitive::Recv => "recv",
        Primitive::Update => "update",
        Primitive::Barrier => "barrier",
    }
}

/// A value on the wire: raw tensor data or a compressed stream.
///
/// Shared by refcount on the channel fabric (a raw one is the sender's
/// accumulator itself), serialized once per link on TCP. Public
/// because the fault-tolerant protocol layer ([`crate::protocol`])
/// checksums it, and corrupts it in chaos runs — through
/// `Arc::make_mut`, so never in the sender's copy.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Uncompressed `f32` data.
    Raw(Vec<f32>),
    /// A codec-encoded stream.
    Compressed(Vec<u8>),
    /// A hole: the degradation policy skipped a straggler's chunk
    /// (bounded-staleness partial aggregation). Carries no bytes;
    /// consumers account for the missing contribution by scaling.
    Skipped,
}

impl Payload {
    /// Bytes this payload occupies on the wire.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            Payload::Raw(v) => (v.len() * 4) as u64,
            Payload::Compressed(b) => b.len() as u64,
            Payload::Skipped => 0,
        }
    }
}

/// Inter-node messages: the entire trusted-fabric protocol. Public
/// so transport fabrics (`hipress-fabric`) can move it between
/// processes; the in-process engine moves it by value and never
/// serializes, so a payload reaches its receivers by refcount.
#[derive(Debug, Clone)]
pub enum Msg {
    /// `task` (on some other node) completed. For `Send` tasks the
    /// payload rides along — the message is the transfer.
    Done {
        /// The remote task that finished.
        task: TaskId,
        /// The transferred bytes, present for `Send` tasks.
        payload: Option<Arc<Payload>>,
        /// Which pipelined iteration the completion belongs to
        /// (always 0 in a one-iteration run).
        iter: u32,
    },
    /// A peer hit an error; unwind.
    Abort,
    /// Rendezvous plane: a restarted (or brand-new) worker asks the
    /// coordinator to admit it into a running job. `epoch` is the
    /// last epoch the worker saw (0 for a fresh process); admission
    /// happens at the next epoch boundary, never mid-segment.
    Join {
        /// The global rank the worker claims.
        rank: u32,
        /// The last membership epoch the worker participated in.
        epoch: u64,
    },
    /// Rendezvous plane: the coordinator's answer to [`Msg::Join`] —
    /// the joiner is admitted and will be dispatched work when epoch
    /// `epoch` begins at iteration `from_iter` over `members`.
    Welcome {
        /// The epoch the joiner becomes a member of.
        epoch: u64,
        /// The first global iteration of that epoch.
        from_iter: u32,
        /// The member set of that epoch (global ranks, ascending).
        members: Vec<u32>,
    },
    /// Rendezvous plane: membership changed. The coordinator bumps
    /// every member to `epoch`, naming the evicted rank (if the bump
    /// was a death rather than a join) and the member set the next
    /// segment runs over. Frames carrying a stale epoch are ignored
    /// by receivers — the stale-epoch safety rule the model checker
    /// exhausts.
    EpochBump {
        /// The new membership epoch.
        epoch: u64,
        /// The rank evicted by this bump, if it was a death.
        evicted: Option<u32>,
        /// The first global iteration of the new epoch.
        from_iter: u32,
        /// The member set of the new epoch (global ranks, ascending).
        members: Vec<u32>,
    },
}

/// A chunk accumulator, copy-on-write and shared by refcount.
///
/// `Source` produces an `Owned` buffer. A raw `Send` moves it into the
/// one `Arc<Payload>` the message needs and keeps a `Shared` handle
/// ([`ChunkBuf::share`]); `Update` of a received raw aggregate keeps
/// the received `Arc`. Writers go through [`ChunkBuf::make_mut`],
/// which is free on an owned or uniquely held buffer and copies once
/// while someone else still holds it. So no path copies more than
/// eager copying would: every share saves one copy, and a later write
/// costs at most that copy back.
#[derive(Debug, Clone)]
pub(crate) enum ChunkBuf {
    /// A private vector.
    Owned(Vec<f32>),
    /// A buffer others may hold too; always a [`Payload::Raw`].
    Shared(Arc<Payload>),
}

impl ChunkBuf {
    /// Shares the buffer: the returned payload is this allocation.
    pub(crate) fn share(&mut self) -> Arc<Payload> {
        let p = match std::mem::take(self) {
            ChunkBuf::Owned(v) => Arc::new(Payload::Raw(v)),
            ChunkBuf::Shared(p) => p,
        };
        *self = ChunkBuf::Shared(Arc::clone(&p));
        p
    }

    /// Mutable access, copying first only if another holder remains.
    pub(crate) fn make_mut(&mut self) -> &mut Vec<f32> {
        match self {
            ChunkBuf::Owned(v) => v,
            ChunkBuf::Shared(p) => match Arc::make_mut(p) {
                Payload::Raw(v) => v,
                _ => unreachable!("a shared chunk buffer holds a raw payload"),
            },
        }
    }

    /// The buffer as a vector: a move when uniquely held, else a copy.
    pub(crate) fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(self.make_mut())
    }
}

impl Default for ChunkBuf {
    fn default() -> Self {
        ChunkBuf::Owned(Vec::new())
    }
}

impl From<Vec<f32>> for ChunkBuf {
    fn from(v: Vec<f32>) -> Self {
        ChunkBuf::Owned(v)
    }
}

impl std::ops::Deref for ChunkBuf {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        match self {
            ChunkBuf::Owned(v) => v,
            ChunkBuf::Shared(p) => match p.as_ref() {
                Payload::Raw(v) => v,
                _ => unreachable!("a shared chunk buffer holds a raw payload"),
            },
        }
    }
}

/// Per-chunk node state: the local accumulator — which `Update`
/// replaces with the installed aggregate — plus degradation
/// bookkeeping (how many contributions merged in, how many were
/// skipped).
#[derive(Debug, Default, Clone)]
pub(crate) struct Cell {
    pub(crate) acc: ChunkBuf,
    /// Whether `Update` ran: `acc` is the installed aggregate, the
    /// chunk's result.
    pub(crate) updated: bool,
    /// Contributions successfully merged into `acc`.
    pub(crate) merged: u32,
    /// Contributions lost to a degradation skip.
    pub(crate) missing: u32,
    /// Whether `acc` has already been rescaled for missing
    /// contributions (the scaling must apply exactly once).
    pub(crate) scaled: bool,
}

impl Cell {
    /// Rescales a degraded accumulator exactly once, approximating the
    /// lost contributions: the cell holds `1 + merged` of the `nodes`
    /// expected contributions, so scale by their ratio (bounded
    /// staleness: the hole is filled with the survivors' mean).
    fn settle_degraded(&mut self, nodes: usize) {
        if self.missing > 0 && !self.scaled {
            self.scale(crate::protocol::degrade_rescale(
                nodes,
                self.merged as usize,
            ));
            self.scaled = true;
        }
    }

    fn scale(&mut self, f: f32) {
        for a in self.acc.make_mut() {
            *a *= f;
        }
    }
}

/// Per-flow input tensors, one replica per node — the shape the
/// interpreter uses.
pub type Flows = HashMap<u32, Vec<Tensor>>;

/// Per-flow input tensors with one or more local replicas per node
/// (multiple local GPUs whose gradients are locally aggregated before
/// synchronization, §3.1).
pub type ReplicaFlows = HashMap<u32, Vec<Vec<Tensor>>>;

/// The result of one runtime execution.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Synchronized per-flow, per-node tensors (same shape as the
    /// interpreter's outcomes).
    pub flows: Vec<FlowOutcome>,
    /// Measured wall-clock statistics.
    pub report: RuntimeReport,
}

/// Sums each node's replica gradients into one tensor per node, in
/// replica order — the reference semantics of local aggregation. The
/// engine performs the same sums internally; this helper produces the
/// equivalent single-replica input for cross-validation against the
/// interpreter.
pub fn sum_replicas(flows: &ReplicaFlows) -> Result<Flows> {
    let mut out = HashMap::new();
    for (&f, per_node) in flows {
        let mut nodes = Vec::with_capacity(per_node.len());
        for reps in per_node {
            let first = reps
                .first()
                .ok_or_else(|| Error::config(format!("flow {f}: node with zero replicas")))?;
            let mut acc = first.clone();
            for r in &reps[1..] {
                acc.add_assign(r);
            }
            nodes.push(acc);
        }
        out.insert(f, nodes);
    }
    Ok(out)
}

/// Wraps single-replica flows (the interpreter's shape) in the
/// replicated shape [`crate::run`] takes.
pub fn replicate(flows: &Flows) -> ReplicaFlows {
    flows
        .iter()
        .map(|(&f, per_node)| (f, per_node.iter().map(|t| vec![t.clone()]).collect()))
        .collect()
}

/// Picks the root cause among several nodes' errors: diagnoses
/// outrank the injected crash that caused them, unstructured errors
/// come next, and the abort echoes a failure triggers come last
/// ([`Error::root_cause_rank`]); ties go to the earliest error in
/// iteration order (the lowest node).
pub(crate) fn root_cause(errors: impl IntoIterator<Item = Error>) -> Option<Error> {
    errors.into_iter().min_by_key(Error::root_cause_rank)
}

/// One node's result: its final-iteration cells and its accumulated
/// report.
pub(crate) type NodeResult = Result<(HashMap<(u32, u32), Cell>, RuntimeReport)>;

/// Folds every node's result into the run's outcome: the root-cause
/// error if any node failed, otherwise `report` (pre-filled with the
/// run-level fields) with every node's measurements absorbed, the
/// run-level metric gauges recorded, and the flows reassembled.
pub(crate) fn conclude(
    layout: &FlowLayout,
    results: Vec<NodeResult>,
    mut report: RuntimeReport,
    metrics: Option<&hipress_metrics::Scope>,
) -> Result<RunOutcome> {
    let mut cells_per_node = Vec::with_capacity(results.len());
    let mut errors = Vec::new();
    for (node, r) in results.into_iter().enumerate() {
        match r {
            Ok((cells, node_report)) => {
                report.absorb(&node_report);
                report.per_node_busy_ns[node] = node_report.total_busy_ns();
                cells_per_node.push(cells);
            }
            Err(e) => errors.push(e),
        }
    }
    if let Some(e) = root_cause(errors) {
        return Err(e);
    }
    if let Some(scope) = metrics {
        record_run_metrics(scope, &report);
    }
    Ok(RunOutcome {
        flows: layout.assemble(&cells_per_node)?,
        report,
    })
}

/// Chunk geometry shared by the workers and the result assembly.
pub(crate) struct FlowLayout {
    pub(crate) nodes: usize,
    /// (flow, part) → element count.
    chunk_elems: HashMap<(u32, u32), usize>,
    /// (flow, part) → start element within the flow.
    chunk_start: HashMap<(u32, u32), usize>,
    /// Sorted flow ids.
    flow_ids: Vec<u32>,
    /// flow → total elements.
    flow_len: HashMap<u32, usize>,
}

impl FlowLayout {
    pub(crate) fn derive(graph: &TaskGraph, nodes: usize, flows: &ReplicaFlows) -> Result<Self> {
        let mut chunk_elems: HashMap<(u32, u32), usize> = HashMap::new();
        for t in graph.tasks() {
            if t.prim == Primitive::Source {
                chunk_elems.insert((t.chunk.grad, t.chunk.part), (t.bytes_raw / 4) as usize);
            }
        }
        let mut flow_ids: Vec<u32> = chunk_elems.keys().map(|&(f, _)| f).collect();
        flow_ids.sort_unstable();
        flow_ids.dedup();
        let mut chunk_start = HashMap::new();
        let mut flow_len = HashMap::new();
        for &f in &flow_ids {
            let mut parts: Vec<u32> = chunk_elems
                .keys()
                .filter(|(ff, _)| *ff == f)
                .map(|&(_, p)| p)
                .collect();
            parts.sort_unstable();
            let mut start = 0usize;
            for p in parts {
                chunk_start.insert((f, p), start);
                start += chunk_elems[&(f, p)];
            }
            let data = flows
                .get(&f)
                .ok_or_else(|| Error::config(format!("missing data for flow {f}")))?;
            if data.len() != nodes {
                return Err(Error::config(format!(
                    "flow {f}: {} node entries for {nodes} nodes",
                    data.len()
                )));
            }
            for (node, reps) in data.iter().enumerate() {
                if reps.is_empty() {
                    return Err(Error::config(format!(
                        "flow {f}: node {node} has zero replicas"
                    )));
                }
                if reps.iter().any(|r| r.len() != start) {
                    return Err(Error::sim(format!(
                        "flow {f}: chunks cover {start} elements but node {node} holds a \
                         different length"
                    )));
                }
            }
            flow_len.insert(f, start);
        }
        Ok(Self {
            nodes,
            chunk_elems,
            chunk_start,
            flow_ids,
            flow_len,
        })
    }

    /// Reassembles dense per-flow, per-node tensors from worker cells.
    pub(crate) fn assemble(
        &self,
        cells_per_node: &[HashMap<(u32, u32), Cell>],
    ) -> Result<Vec<FlowOutcome>> {
        let mut outcomes = Vec::with_capacity(self.flow_ids.len());
        for &f in &self.flow_ids {
            let elems = self.flow_len[&f];
            let mut per_node = Vec::with_capacity(self.nodes);
            for node in 0..self.nodes {
                let mut dense = vec![0.0f32; elems];
                for (&(ff, p), &start) in &self.chunk_start {
                    if ff != f {
                        continue;
                    }
                    let len = self.chunk_elems[&(ff, p)];
                    let cell = cells_per_node[node].get(&(ff, p)).ok_or_else(|| {
                        Error::sim(format!("node {node} never touched chunk ({ff},{p})"))
                    })?;
                    if !cell.updated {
                        return Err(Error::sim(format!(
                            "node {node} never updated chunk ({ff},{p})"
                        )));
                    }
                    dense[start..start + len].copy_from_slice(&cell.acc);
                }
                per_node.push(dense);
            }
            outcomes.push(FlowOutcome { flow: f, per_node });
        }
        Ok(outcomes)
    }
}

/// The static execution plan: per-node dependency counts and edge
/// maps, computed once on the main thread.
pub(crate) struct NodePlan {
    /// pending[node][task.0] = unresolved dependency count (only
    /// meaningful for tasks owned by `node`).
    pub(crate) pending: Vec<HashMap<u32, usize>>,
    /// local_dependents[task.0] = same-node tasks depending on it.
    pub(crate) local_dependents: HashMap<u32, Vec<u32>>,
    /// remote_notify[task.0] = distinct other nodes hosting dependents.
    pub(crate) remote_notify: HashMap<u32, Vec<usize>>,
    /// remote_edges_in[node][remote_task.0] = local dependents.
    pub(crate) remote_edges_in: Vec<HashMap<u32, Vec<u32>>>,
    /// Number of tasks each node owns.
    pub(crate) local_counts: Vec<usize>,
}

impl NodePlan {
    pub(crate) fn derive(graph: &TaskGraph, nodes: usize) -> Self {
        let mut pending: Vec<HashMap<u32, usize>> = vec![HashMap::new(); nodes];
        let mut local_dependents: HashMap<u32, Vec<u32>> = HashMap::new();
        let mut remote_notify: HashMap<u32, Vec<usize>> = HashMap::new();
        let mut remote_edges_in: Vec<HashMap<u32, Vec<u32>>> = vec![HashMap::new(); nodes];
        let mut local_counts = vec![0usize; nodes];
        for t in graph.tasks() {
            local_counts[t.node] += 1;
            pending[t.node].insert(t.id.0, t.deps.len());
            for d in &t.deps {
                let dep_node = graph.task(*d).node;
                if dep_node == t.node {
                    local_dependents.entry(d.0).or_default().push(t.id.0);
                } else {
                    let notify = remote_notify.entry(d.0).or_default();
                    if !notify.contains(&t.node) {
                        notify.push(t.node);
                    }
                    remote_edges_in[t.node].entry(d.0).or_default().push(t.id.0);
                }
            }
        }
        Self {
            pending,
            local_dependents,
            remote_notify,
            remote_edges_in,
            local_counts,
        }
    }
}

/// One node's dataflow state and primitive execution: cells,
/// codec outputs, received payloads, measurements. Shared verbatim
/// between the trusted-fabric loop ([`crate::pipeline`]) and the
/// fault-tolerant worker ([`crate::ft`]) — the fabrics differ, the
/// computation cannot.
pub(crate) struct NodeCore<'a> {
    pub(crate) node: usize,
    pub(crate) graph: &'a TaskGraph,
    pub(crate) flows: &'a ReplicaFlows,
    pub(crate) layout: &'a FlowLayout,
    pub(crate) compressor: Option<&'a dyn Compressor>,
    pub(crate) seed: u64,
    pub(crate) cells: HashMap<(u32, u32), Cell>,
    /// Encoded streams as the `Payload::Compressed` every `Send` of
    /// them shares.
    enc_out: HashMap<u32, Arc<Payload>>,
    dec_out: HashMap<u32, Vec<f32>>,
    recv_payload: HashMap<u32, Arc<Payload>>,
    /// Payloads delivered by remote `Send` completions, keyed by the
    /// sending task.
    pub(crate) inbound: HashMap<u32, Arc<Payload>>,
    /// Recv/Decode tasks whose output is a degradation hole.
    skipped_out: HashSet<u32>,
    pub(crate) report: RuntimeReport,
    /// Tracing handles; `None` keeps the hot path allocation-free.
    pub(crate) trace: Option<NodeTrace>,
    /// Live metric handles; `None` keeps the hot path recording-free.
    pub(crate) metrics: Option<NodeMetrics>,
    /// Which pipelined iteration this core executes (0 in a
    /// one-iteration run). Stamped onto traced spans so
    /// cross-rank Send→Recv pairs match unambiguously.
    pub(crate) iter: u32,
}

impl<'a> NodeCore<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        node: usize,
        graph: &'a TaskGraph,
        flows: &'a ReplicaFlows,
        layout: &'a FlowLayout,
        compressor: Option<&'a dyn Compressor>,
        seed: u64,
        trace: Option<NodeTrace>,
        metrics: Option<NodeMetrics>,
    ) -> Self {
        Self {
            node,
            graph,
            flows,
            layout,
            compressor,
            seed,
            cells: HashMap::new(),
            enc_out: HashMap::new(),
            dec_out: HashMap::new(),
            recv_payload: HashMap::new(),
            inbound: HashMap::new(),
            skipped_out: HashSet::new(),
            report: RuntimeReport::default(),
            trace: None,
            metrics,
            iter: 0,
        }
        .with_trace(trace)
    }

    fn with_trace(mut self, trace: Option<NodeTrace>) -> Self {
        self.trace = trace;
        self
    }

    /// Finds the transitive dependency of `id` matching `pred`,
    /// looking through zero-cost barriers (mirrors the interpreter).
    pub(crate) fn find_dep(&self, id: TaskId, pred: impl Fn(Primitive) -> bool) -> Option<TaskId> {
        let mut stack: Vec<TaskId> = self.graph.task(id).deps.clone();
        while let Some(d) = stack.pop() {
            let dt = self.graph.task(d);
            if pred(dt.prim) {
                return Some(d);
            }
            if dt.prim == Primitive::Barrier {
                stack.extend(dt.deps.iter().copied());
            }
        }
        None
    }

    fn compressor(&self) -> Result<&dyn Compressor> {
        self.compressor
            .ok_or_else(|| Error::sim("codec task without a compressor"))
    }

    fn settle_degraded(&mut self, key: (u32, u32)) {
        let nodes = self.layout.nodes;
        if let Some(cell) = self.cells.get_mut(&key) {
            cell.settle_degraded(nodes);
        }
    }

    /// Executes one primitive, recording its measurement into the
    /// report (and trace/metrics when enabled). Returns the outbound
    /// payload for `Send` tasks; the caller owns completion
    /// bookkeeping (dependency resolution and fabric messaging).
    pub(crate) fn execute_one(&mut self, id: TaskId) -> Result<Option<Arc<Payload>>> {
        let start_ns = self.trace.as_ref().map(|tr| tr.tracer.now_ns());
        let started = Instant::now();
        let t = self.graph.task(id);
        debug_assert_eq!(t.node, self.node, "task scheduled on the wrong node");
        let key = (t.chunk.grad, t.chunk.part);
        let mut outbound: Option<Arc<Payload>> = None;
        let mut sent_bytes: Option<(u64, u64)> = None;
        let mut recv_from: Option<u64> = None;
        match t.prim {
            Primitive::Source => {
                let start = self.layout.chunk_start[&key];
                let len = (t.bytes_raw / 4) as usize;
                let reps = &self.flows[&t.chunk.grad][self.node];
                let mut acc = reps[0].as_slice()[start..start + len].to_vec();
                if reps.len() > 1 {
                    let agg_start_ns = self.trace.as_ref().map(|tr| tr.tracer.now_ns());
                    let agg_started = Instant::now();
                    for r in &reps[1..] {
                        let slice = &r.as_slice()[start..start + len];
                        for (a, &b) in acc.iter_mut().zip(slice) {
                            *a += b;
                        }
                    }
                    let agg_ns = agg_started.elapsed().as_nanos() as u64;
                    self.report.local_agg_ns += agg_ns;
                    if let Some(m) = &self.metrics {
                        m.local_agg.record(agg_ns);
                    }
                    if let Some(tr) = &self.trace {
                        // Nested inside the enclosing source span.
                        tr.tracer.record_span(
                            tr.track,
                            "local_agg",
                            "local_agg",
                            agg_start_ns.unwrap_or(0),
                            agg_ns,
                            &[("replicas", reps.len() as u64)],
                        );
                    }
                }
                self.cells.entry(key).or_default().acc = acc.into();
            }
            Primitive::Encode => {
                self.settle_degraded(key);
                let c = self.compressor()?;
                let cell = self
                    .cells
                    .get(&key)
                    .ok_or_else(|| Error::sim("encode before source"))?;
                // Identical per-task seed derivation to the
                // interpreter — required for bit-level equivalence.
                let task_seed = self.seed ^ (id.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let bytes = c.encode(&cell.acc, task_seed);
                self.enc_out
                    .insert(id.0, Arc::new(Payload::Compressed(bytes)));
            }
            Primitive::Decode => {
                let recv = self
                    .find_dep(id, |p| p == Primitive::Recv)
                    .ok_or_else(|| Error::sim("decode without a recv dependency"))?;
                match self.recv_payload.get(&recv.0).map(|p| p.as_ref()) {
                    Some(Payload::Compressed(bytes)) => {
                        // Sized by the layout, never by the stream: a
                        // header that claims another length is a
                        // codec error, not an allocation.
                        let elems = *self
                            .layout
                            .chunk_elems
                            .get(&key)
                            .ok_or_else(|| Error::sim("decode of a chunk with no source"))?;
                        let mut out = vec![0.0f32; elems];
                        self.compressor()?.decode_into(bytes, &mut out)?;
                        self.dec_out.insert(id.0, out);
                    }
                    Some(Payload::Raw(_)) => {
                        return Err(Error::sim("decode of a raw payload"));
                    }
                    Some(Payload::Skipped) => {
                        // The hole flows through: downstream consumers
                        // handle it by scaling, not by decoding.
                        self.skipped_out.insert(id.0);
                    }
                    None => return Err(Error::sim("decode before recv delivered")),
                }
            }
            Primitive::Merge => {
                // The decoded or received chunk, borrowed where it
                // already lives; `None` is a degradation hole.
                let contribution: Option<&[f32]> =
                    if let Some(d) = self.find_dep(id, |p| p == Primitive::Decode) {
                        if self.skipped_out.contains(&d.0) {
                            None
                        } else {
                            let dec = self.dec_out.get(&d.0);
                            Some(dec.ok_or_else(|| Error::sim("merge before decode"))?)
                        }
                    } else if let Some(r) = self.find_dep(id, |p| p == Primitive::Recv) {
                        match self.recv_payload.get(&r.0).map(|p| p.as_ref()) {
                            Some(Payload::Raw(v)) => Some(v),
                            Some(Payload::Compressed(_)) => {
                                return Err(Error::sim("raw merge of compressed payload"));
                            }
                            Some(Payload::Skipped) => None,
                            None => return Err(Error::sim("merge before recv delivered")),
                        }
                    } else {
                        return Err(Error::sim("merge with nothing to merge"));
                    };
                let cell = self
                    .cells
                    .get_mut(&key)
                    .ok_or_else(|| Error::sim("merge with no accumulator"))?;
                match contribution {
                    Some(contribution) => {
                        if contribution.len() != cell.acc.len() {
                            return Err(Error::sim("merge length mismatch"));
                        }
                        for (a, b) in cell.acc.make_mut().iter_mut().zip(contribution) {
                            *a += b;
                        }
                        cell.merged += 1;
                    }
                    None => {
                        // The contribution was skipped by degradation:
                        // nothing to add; remember the gap so the acc
                        // is rescaled before anyone consumes it.
                        cell.missing += 1;
                    }
                }
            }
            Primitive::Send => {
                // Every send shares what it transmits: the
                // accumulator, the encoded stream or the received
                // payload — a refcount bump, never a copy.
                let payload = match t.send_src {
                    SendSrc::Raw => {
                        self.settle_degraded(key);
                        let cell = self
                            .cells
                            .get_mut(&key)
                            .ok_or_else(|| Error::sim("raw send with no state"))?;
                        cell.acc.share()
                    }
                    SendSrc::Encoded => {
                        let e = self
                            .find_dep(id, |p| p == Primitive::Encode)
                            .ok_or_else(|| Error::sim("encoded send without encode"))?;
                        let p = self.enc_out.get(&e.0);
                        Arc::clone(p.ok_or_else(|| Error::sim("send before encode ran"))?)
                    }
                    SendSrc::Forward => {
                        let r = self
                            .find_dep(id, |p| p == Primitive::Recv)
                            .ok_or_else(|| Error::sim("forward without recv"))?;
                        let p = self.recv_payload.get(&r.0);
                        Arc::clone(p.ok_or_else(|| Error::sim("forward before recv delivered"))?)
                    }
                };
                self.report.bytes_wire += payload.wire_bytes();
                self.report.bytes_raw += t.bytes_raw;
                sent_bytes = Some((payload.wire_bytes(), t.bytes_raw));
                outbound = Some(payload);
            }
            Primitive::Recv => {
                let send = self
                    .find_dep(id, |p| p == Primitive::Send)
                    .ok_or_else(|| Error::sim("recv without its send"))?;
                recv_from = Some(send.0 as u64);
                let payload = self
                    .inbound
                    .remove(&send.0)
                    .ok_or_else(|| Error::sim("recv promoted before its payload arrived"))?;
                if matches!(payload.as_ref(), Payload::Skipped) {
                    self.skipped_out.insert(id.0);
                }
                self.recv_payload.insert(id.0, payload);
            }
            Primitive::Barrier => {}
            Primitive::Update => {
                /// What `Update` installs into the accumulator.
                enum Install<'v> {
                    /// The disseminated aggregate, decoded.
                    Value(&'v [f32]),
                    /// The disseminated aggregate as received raw.
                    Received(&'v Arc<Payload>),
                    /// The aggregate never arrived: the best local
                    /// approximation, the accumulator scaled up to the
                    /// expected contribution count.
                    Degraded,
                    /// Replica consistency: the aggregate's owner
                    /// installs the reconstruction of the bytes it
                    /// disseminated, exactly as every decoding replica
                    /// will.
                    OwnBytes(&'v [u8]),
                    /// Uncompressed owner: the accumulator is the
                    /// aggregate already.
                    Accumulator,
                }
                let install = if let Some(d) = self.find_dep(id, |p| p == Primitive::Decode) {
                    if self.skipped_out.contains(&d.0) {
                        Install::Degraded
                    } else {
                        let dec = self.dec_out.get(&d.0);
                        Install::Value(dec.ok_or_else(|| Error::sim("update before decode"))?)
                    }
                } else if let Some(r) = self.find_dep(id, |p| p == Primitive::Recv) {
                    let p = self.recv_payload.get(&r.0);
                    let p = p.ok_or_else(|| Error::sim("update before recv delivered"))?;
                    match p.as_ref() {
                        Payload::Raw(_) => Install::Received(p),
                        Payload::Compressed(_) => {
                            return Err(Error::sim("raw update of compressed payload"));
                        }
                        Payload::Skipped => Install::Degraded,
                    }
                } else if let Some(e) = self.find_dep(id, |p| p == Primitive::Encode) {
                    match self.enc_out.get(&e.0).map(|p| p.as_ref()) {
                        Some(Payload::Compressed(bytes)) => Install::OwnBytes(bytes),
                        _ => return Err(Error::sim("update before encode ran")),
                    }
                } else {
                    Install::Accumulator
                };
                let nodes = self.layout.nodes;
                let compressor = self.compressor;
                let cell = self
                    .cells
                    .get_mut(&key)
                    .ok_or_else(|| Error::sim("update with no state"))?;
                // The accumulator is the buffer the result is read
                // from: a received raw aggregate becomes it by
                // refcount, a decoded one is copied in, the owner
                // decodes its own bytes straight into it.
                match install {
                    Install::Value(value) => {
                        if value.len() != cell.acc.len() {
                            return Err(Error::sim("update length mismatch"));
                        }
                        cell.acc.make_mut().copy_from_slice(value);
                    }
                    Install::Received(p) => {
                        let value = ChunkBuf::Shared(Arc::clone(p));
                        if value.len() != cell.acc.len() {
                            return Err(Error::sim("update length mismatch"));
                        }
                        cell.acc = value;
                    }
                    Install::Degraded => {
                        cell.scale(crate::protocol::degrade_rescale(
                            nodes,
                            cell.merged as usize,
                        ));
                    }
                    Install::OwnBytes(bytes) => compressor
                        .ok_or_else(|| Error::sim("codec task without a compressor"))?
                        .decode_into(bytes, cell.acc.make_mut())?,
                    Install::Accumulator => cell.settle_degraded(nodes),
                }
                cell.updated = true;
            }
        }
        let ns = started.elapsed().as_nanos() as u64;
        self.report.prim_mut(t.prim).record(ns);
        if let Some(m) = &self.metrics {
            // Same single measurement the report just recorded, so
            // metrics-vs-report parity holds by construction.
            m.prims[prim_index(t.prim)].record(ns);
            if let Some((wire, raw)) = sent_bytes {
                m.bytes_wire.add(wire);
                m.bytes_raw.add(raw);
            }
        }
        if let Some(tr) = &self.trace {
            // The span duration is the very `ns` the report recorded
            // above — one measurement, two consumers — so a report
            // derived from the trace matches this one exactly.
            let name = prim_category(t.prim);
            let mut args = vec![
                ("grad", t.chunk.grad as u64),
                ("part", t.chunk.part as u64),
                ("task", id.0 as u64),
                ("iter", u64::from(self.iter)),
            ];
            if let Some((wire, raw)) = sent_bytes {
                args.push(("bytes_wire", wire));
                args.push(("bytes_raw", raw));
            }
            if let Some(s) = recv_from {
                // The matching Send task: merged multi-process traces
                // pair Send→Recv spans across ranks on this link for
                // the clock-monotonicity check.
                args.push(("send_task", s));
            }
            tr.tracer
                .record_span(tr.track, name, name, start_ns.unwrap_or(0), ns, &args);
        }
        Ok(outbound)
    }

    /// Records a fabric-message instant and the message counter (one
    /// delivered inter-node message).
    pub(crate) fn note_message(&mut self, task: TaskId, wire_bytes: Option<u64>) {
        self.report.messages += 1;
        if let Some(m) = &self.metrics {
            m.messages.inc();
        }
        if let Some(tr) = &self.trace {
            let mut args = vec![("task", task.0 as u64)];
            if let Some(b) = wire_bytes {
                args.push(("bytes", b));
            }
            tr.tracer
                .instant(tr.track, "msg", "fabric", tr.tracer.now_ns(), &args);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run, RunOptions};
    use hipress_compress::Algorithm;
    use hipress_core::interp::{gradient_flows, interpret, reference_sum};
    use hipress_core::plan::{CompressionSpec, GradPlan, IterationSpec, SyncGradient};
    use hipress_core::{ClusterConfig, Strategy};
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

    fn iter_spec(sizes: &[usize], alg: Option<Algorithm>, k: usize) -> IterationSpec {
        IterationSpec {
            gradients: sizes
                .iter()
                .enumerate()
                .map(|(i, &n)| SyncGradient {
                    name: format!("g{i}"),
                    bytes: (n * 4) as u64,
                    ready_offset_ns: 0,
                    plan: GradPlan {
                        compress: true,
                        partitions: k,
                    },
                })
                .collect(),
            compression: alg.map(|a| CompressionSpec::of(a.build().unwrap().as_ref())),
        }
    }

    #[test]
    fn uncompressed_threads_compute_exact_sum() {
        let nodes = 4;
        let sizes = [100usize, 257, 31];
        let grads = worker_grads(nodes, &sizes);
        let iter = iter_spec(&sizes, None, 3);
        let cluster = ClusterConfig::ec2(nodes);
        for strat in [Strategy::CaSyncPs, Strategy::CaSyncRing] {
            let graph = strat.build(&cluster, &iter).unwrap();
            let flows = gradient_flows(&grads);
            let out = run(
                &graph,
                nodes,
                &replicate(&flows),
                None,
                7,
                &RunOptions::default(),
            )
            .unwrap();
            for o in &out.flows {
                assert!(o.replicas_consistent(), "{strat:?} flow {}", o.flow);
                let reference = reference_sum(&flows[&o.flow]);
                assert!(o.max_abs_error(&reference) < 1e-4, "{strat:?}");
            }
            assert_eq!(out.report.nodes, nodes);
            assert!(out.report.wall_ns > 0);
            assert!(out.report.bytes_wire > 0);
        }
    }

    #[test]
    fn threads_match_interpreter_bit_for_bit() {
        let nodes = 3;
        let sizes = [512usize, 64];
        let grads = worker_grads(nodes, &sizes);
        for strat in [Strategy::CaSyncPs, Strategy::CaSyncRing] {
            for alg in [
                Algorithm::OneBit,
                Algorithm::TernGrad { bitwidth: 2 },
                Algorithm::Dgc { rate: 0.1 },
            ] {
                let iter = iter_spec(&sizes, Some(alg), 2);
                let cluster = ClusterConfig::ec2(nodes);
                let graph = strat.build(&cluster, &iter).unwrap();
                let c = alg.build().unwrap();
                let flows = gradient_flows(&grads);
                let sim = interpret(&graph, nodes, &flows, Some(c.as_ref()), 11).unwrap();
                let rt = run(
                    &graph,
                    nodes,
                    &replicate(&flows),
                    Some(c.as_ref()),
                    11,
                    &RunOptions::default(),
                )
                .unwrap();
                assert_eq!(sim.len(), rt.flows.len());
                for (a, b) in sim.iter().zip(&rt.flows) {
                    assert_eq!(a.flow, b.flow);
                    assert_eq!(a.per_node, b.per_node, "{strat:?} {} diverged", c.name());
                }
            }
        }
    }

    #[test]
    fn local_aggregation_sums_replicas() {
        let nodes = 2;
        let elems = 96usize;
        // Two local replicas per node.
        let replicated: ReplicaFlows = HashMap::from([(
            0u32,
            (0..nodes)
                .map(|w| {
                    (0..2)
                        .map(|r| {
                            generate(
                                elems,
                                GradientShape::Gaussian { std_dev: 1.0 },
                                (w * 10 + r) as u64,
                            )
                        })
                        .collect()
                })
                .collect(),
        )]);
        let iter = iter_spec(&[elems], None, 1);
        let cluster = ClusterConfig::ec2(nodes);
        let graph = Strategy::CaSyncPs.build(&cluster, &iter).unwrap();
        let out = run(&graph, nodes, &replicated, None, 3, &RunOptions::default()).unwrap();
        // Equivalent single-replica input through the interpreter.
        let summed = sum_replicas(&replicated).unwrap();
        let sim = interpret(&graph, nodes, &summed, None, 3).unwrap();
        assert_eq!(out.flows[0].per_node, sim[0].per_node);
        assert!(out.report.local_agg_ns > 0);
    }

    #[test]
    fn batch_compression_is_semantically_neutral() {
        let nodes = 3;
        let sizes = [2048usize];
        let grads = worker_grads(nodes, &sizes);
        let iter = iter_spec(&sizes, Some(Algorithm::OneBit), 4);
        let cluster = ClusterConfig::ec2(nodes);
        let graph = Strategy::CaSyncPs.build(&cluster, &iter).unwrap();
        let c = Algorithm::OneBit.build().unwrap();
        let flows = replicate(&gradient_flows(&grads));
        let batched = run(
            &graph,
            nodes,
            &flows,
            Some(c.as_ref()),
            5,
            &RunOptions::default(),
        )
        .unwrap();
        let unbatched = run(
            &graph,
            nodes,
            &flows,
            Some(c.as_ref()),
            5,
            &RunOptions {
                config: RuntimeConfig {
                    batch_compression: false,
                    ..RuntimeConfig::default()
                },
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(batched.flows[0].per_node, unbatched.flows[0].per_node);
        assert!(batched.report.comp_batch_launches > 0);
        assert_eq!(unbatched.report.comp_batch_launches, 0);
        assert_eq!(
            batched.report.encode.count, unbatched.report.encode.count,
            "batching must not change how many encodes run"
        );
    }

    #[test]
    fn compressed_run_moves_fewer_bytes() {
        let nodes = 4;
        let sizes = [1 << 14];
        let grads = worker_grads(nodes, &sizes);
        let cluster = ClusterConfig::ec2(nodes);
        let raw_iter = iter_spec(&sizes, None, 2);
        let cmp_iter = iter_spec(&sizes, Some(Algorithm::OneBit), 2);
        let flows = replicate(&gradient_flows(&grads));
        let raw_graph = Strategy::CaSyncRing.build(&cluster, &raw_iter).unwrap();
        let cmp_graph = Strategy::CaSyncRing.build(&cluster, &cmp_iter).unwrap();
        let c = Algorithm::OneBit.build().unwrap();
        let raw = run(&raw_graph, nodes, &flows, None, 1, &RunOptions::default()).unwrap();
        let cmp = run(
            &cmp_graph,
            nodes,
            &flows,
            Some(c.as_ref()),
            1,
            &RunOptions::default(),
        )
        .unwrap();
        assert!(
            cmp.report.bytes_wire < raw.report.bytes_wire / 8,
            "onebit wire volume must collapse: {} vs {}",
            cmp.report.bytes_wire,
            raw.report.bytes_wire
        );
        assert!(cmp.report.compression_savings() > 8.0);
        assert!((raw.report.compression_savings() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn missing_flow_data_is_rejected() {
        let nodes = 2;
        let iter = iter_spec(&[64], None, 1);
        let cluster = ClusterConfig::ec2(nodes);
        let graph = Strategy::CaSyncPs.build(&cluster, &iter).unwrap();
        let empty: ReplicaFlows = HashMap::new();
        assert!(run(&graph, nodes, &empty, None, 0, &RunOptions::default()).is_err());
    }

    #[test]
    fn codec_graph_without_compressor_aborts_cleanly() {
        let nodes = 3;
        let sizes = [256usize];
        let grads = worker_grads(nodes, &sizes);
        let iter = iter_spec(&sizes, Some(Algorithm::OneBit), 1);
        let cluster = ClusterConfig::ec2(nodes);
        let graph = Strategy::CaSyncPs.build(&cluster, &iter).unwrap();
        let flows = replicate(&gradient_flows(&grads));
        // Compressed graph, no compressor: every node must unwind, not
        // deadlock — and the codec error, not an abort echo, surfaces.
        let err = run(&graph, nodes, &flows, None, 0, &RunOptions::default()).unwrap_err();
        assert!(err.as_sync().is_none(), "echo outranked its cause: {err}");
    }

    #[test]
    fn inbox_timeout_is_configurable() {
        // A shortened deadline still completes healthy runs; the knob
        // exists so a lost peer surfaces as an error, not a hang (the
        // fault-tolerant path in crate::ft exercises the failure
        // side with per-recv deadlines).
        let nodes = 2;
        let sizes = [128usize];
        let grads = worker_grads(nodes, &sizes);
        let iter = iter_spec(&sizes, None, 1);
        let cluster = ClusterConfig::ec2(nodes);
        let graph = Strategy::CaSyncPs.build(&cluster, &iter).unwrap();
        let flows = replicate(&gradient_flows(&grads));
        let opts = RunOptions {
            config: RuntimeConfig {
                inbox_timeout: Duration::from_millis(250),
                ..RuntimeConfig::default()
            },
            ..RunOptions::default()
        };
        let out = run(&graph, nodes, &flows, None, 7, &opts).unwrap();
        assert!(out.flows[0].replicas_consistent());
    }

    #[test]
    fn root_cause_prefers_diagnoses_over_echoes() {
        use hipress_util::{SyncFailure, SyncFailureKind};
        let failure = |kind| {
            Error::sync(SyncFailure {
                kind,
                node: 1,
                peer: Some(0),
                task: None,
                detail: String::new(),
            })
        };
        let dead = failure(SyncFailureKind::LinkDead);
        let echo = failure(SyncFailureKind::Aborted);
        let other = Error::sim("node 2 wedged");
        let pick = |errs: &[&Error]| root_cause(errs.iter().map(|&e| e.clone()));
        assert_eq!(pick(&[&echo, &other, &dead]), Some(dead.clone()));
        assert_eq!(pick(&[&echo, &other, &echo]), Some(other));
        assert_eq!(pick(&[&echo]), Some(echo));
        assert_eq!(pick(&[]), None);
    }

    #[test]
    fn chunk_buf_copies_on_write_only_when_shared() {
        // Share, then write: the holder keeps its bytes, the writer
        // sees its write in a buffer of its own.
        let mut buf = ChunkBuf::from(vec![1.0f32, 2.0, 3.0]);
        let held = buf.share();
        assert_eq!(held.as_ref(), &Payload::Raw(vec![1.0, 2.0, 3.0]));
        buf.make_mut()[0] = 9.0;
        assert_eq!(held.as_ref(), &Payload::Raw(vec![1.0, 2.0, 3.0]));
        assert_eq!(&*buf, &[9.0, 2.0, 3.0]);
        let Payload::Raw(v) = held.as_ref() else {
            unreachable!()
        };
        assert_ne!(buf.as_ptr(), v.as_ptr(), "the write must land in a copy");

        // A write to an unshared buffer keeps its allocation, owned or
        // shared with nobody left.
        let mut own = ChunkBuf::from(vec![0.5f32; 64]);
        let ptr = own.as_ptr();
        own.make_mut()[3] = 1.5;
        assert_eq!(own.as_ptr(), ptr);
        drop(own.share());
        own.make_mut()[4] = 2.5;
        assert_eq!(own.as_ptr(), ptr);

        // `into_vec` of a uniquely held buffer moves, it does not copy.
        let mut unique = ChunkBuf::from(vec![7.0f32; 32]);
        let ptr = unique.as_ptr();
        drop(unique.share());
        assert!(matches!(unique, ChunkBuf::Shared(_)));
        let moved = unique.into_vec();
        assert_eq!(moved.as_ptr(), ptr);
    }

    /// Runs `graph` over the channel fabric, returning every node's
    /// final cells.
    fn drive_all(
        graph: &TaskGraph,
        nodes: usize,
        flows: &ReplicaFlows,
        compressor: Option<&dyn Compressor>,
        pipeline: crate::PipelineConfig,
    ) -> Vec<HashMap<(u32, u32), Cell>> {
        use hipress_fabric::{ChannelFabric, Fabric};
        let layout = FlowLayout::derive(graph, nodes, flows).unwrap();
        let plan = NodePlan::derive(graph, nodes);
        let mut fabric: ChannelFabric<Msg> = ChannelFabric::new(nodes);
        let config = RuntimeConfig::default();
        let results = std::thread::scope(|scope| {
            let handles = (0..nodes)
                .map(|node| {
                    let mut link = fabric.link(node).unwrap();
                    let (layout, plan, config) = (&layout, &plan, &config);
                    scope.spawn(move || {
                        crate::pipeline::drive_node(
                            &mut link, graph, flows, layout, plan, compressor, 5, config,
                            &pipeline, None, None, None, None,
                        )
                    })
                })
                .collect();
            crate::pipeline::join_nodes(handles)
        });
        results.into_iter().map(|r| r.unwrap().0).collect()
    }

    #[test]
    fn dense_ps_installs_one_shared_allocation_per_chunk() {
        let nodes = 2;
        let sizes = [300usize, 64];
        let flows = replicate(&gradient_flows(&worker_grads(nodes, &sizes)));
        let graph = Strategy::CaSyncPs
            .build(&ClusterConfig::ec2(nodes), &iter_spec(&sizes, None, 2))
            .unwrap();
        for window in [1, 4] {
            let pipeline = crate::PipelineConfig {
                iterations: 6,
                window,
            };
            let cells = drive_all(&graph, nodes, &flows, None, pipeline);
            assert_eq!(cells[0].len(), 4);
            for (key, mine) in &cells[0] {
                // The owner's `Send` shared its accumulator; the peer's
                // `Update` kept the received payload — one buffer.
                let theirs = &cells[1][key];
                assert!(mine.updated && theirs.updated);
                assert_eq!(
                    mine.acc.as_ptr(),
                    theirs.acc.as_ptr(),
                    "chunk {key:?} at window {window} was copied"
                );
            }
        }
    }

    /// The ids of `node`'s `prim` tasks on chunk `key`, in graph order.
    fn tasks_of(graph: &TaskGraph, node: usize, prim: Primitive, key: (u32, u32)) -> Vec<TaskId> {
        graph
            .tasks()
            .iter()
            .filter(|t| t.node == node && t.prim == prim && (t.chunk.grad, t.chunk.part) == key)
            .map(|t| t.id)
            .collect()
    }

    #[test]
    fn sends_share_what_they_transmit() {
        // Raw: a 2-node uncompressed PS; node 1 ships chunk (0, 0) to
        // its owner, node 0, and the payload is its accumulator.
        let sizes = [96usize];
        let flows = replicate(&gradient_flows(&worker_grads(2, &sizes)));
        let graph = Strategy::CaSyncPs
            .build(&ClusterConfig::ec2(2), &iter_spec(&sizes, None, 2))
            .unwrap();
        let layout = FlowLayout::derive(&graph, 2, &flows).unwrap();
        let mut core = NodeCore::new(1, &graph, &flows, &layout, None, 3, None, None);
        let key = (0, 0);
        core.execute_one(tasks_of(&graph, 1, Primitive::Source, key)[0])
            .unwrap();
        let send = tasks_of(&graph, 1, Primitive::Send, key)[0];
        let out = core.execute_one(send).unwrap().expect("send payload");
        let Payload::Raw(v) = out.as_ref() else {
            panic!("raw send shipped {out:?}")
        };
        assert_eq!(v.as_ptr(), core.cells[&key].acc.as_ptr());

        // Encoded: a 3-node compressed PS; the owner's one `Encode`
        // feeds N - 1 = 2 `Send`s, which carry one allocation.
        let flows = replicate(&gradient_flows(&worker_grads(3, &sizes)));
        let graph = Strategy::CaSyncPs
            .build(
                &ClusterConfig::ec2(3),
                &iter_spec(&sizes, Some(Algorithm::OneBit), 3),
            )
            .unwrap();
        let layout = FlowLayout::derive(&graph, 3, &flows).unwrap();
        let c = Algorithm::OneBit.build().unwrap();
        let mut core = NodeCore::new(0, &graph, &flows, &layout, Some(c.as_ref()), 3, None, None);
        for t in [Primitive::Source, Primitive::Encode] {
            core.execute_one(tasks_of(&graph, 0, t, key)[0]).unwrap();
        }
        let sends = tasks_of(&graph, 0, Primitive::Send, key);
        assert_eq!(sends.len(), 2);
        let out: Vec<Arc<Payload>> = sends
            .iter()
            .map(|&s| core.execute_one(s).unwrap().expect("send payload"))
            .collect();
        assert!(matches!(out[0].as_ref(), Payload::Compressed(_)));
        assert!(Arc::ptr_eq(&out[0], &out[1]), "one encode, two allocations");
    }

    #[test]
    fn wrong_length_raw_payloads_are_refused_and_install_nothing() {
        // Chunk (0, 0) of a 2-node uncompressed PS is owned by node 0:
        // node 0 merges node 1's chunk, node 1 installs node 0's.
        let sizes = [96usize];
        let flows = replicate(&gradient_flows(&worker_grads(2, &sizes)));
        let graph = Strategy::CaSyncPs
            .build(&ClusterConfig::ec2(2), &iter_spec(&sizes, None, 2))
            .unwrap();
        let layout = FlowLayout::derive(&graph, 2, &flows).unwrap();
        let key = (0, 0);
        for (node, consumer, error) in [
            (0, Primitive::Merge, "merge length mismatch"),
            (1, Primitive::Update, "update length mismatch"),
        ] {
            for len in [0, 47, 49, 4096] {
                let mut core = NodeCore::new(node, &graph, &flows, &layout, None, 3, None, None);
                core.execute_one(tasks_of(&graph, node, Primitive::Source, key)[0])
                    .unwrap();
                let before = core.cells[&key].acc.to_vec();
                let recv = tasks_of(&graph, node, Primitive::Recv, key)[0];
                let send = graph.task(recv).deps[0];
                core.inbound
                    .insert(send.0, Arc::new(Payload::Raw(vec![1.0; len])));
                core.execute_one(recv).unwrap();
                let err = core
                    .execute_one(tasks_of(&graph, node, consumer, key)[0])
                    .unwrap_err();
                assert!(err.to_string().contains(error), "{consumer:?} {len}: {err}");
                let cell = &core.cells[&key];
                assert_eq!(&*cell.acc, &before[..], "{consumer:?} {len} installed");
                assert!(!cell.updated && cell.merged == 0);
            }
        }
    }
}
