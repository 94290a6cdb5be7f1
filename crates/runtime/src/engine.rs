//! The shared core of the CaSync execution engine: what every node
//! loop computes, whichever loop drives it.
//!
//! Each node runs the paper's task manager (§3.1) for real: its share
//! of the task DAG, two queues — `Q_comp` for computing primitives,
//! `Q_commu` for communication primitives — and dependency-count
//! promotion ([`hipress_core::sched`]) driven by actual completion
//! events. Local dependencies are cleared when the node finishes a
//! task; remote dependencies are cleared by completion messages
//! arriving on the node's inbox, with `Send` completions carrying the
//! payload itself (so the message *is* the transfer). The loop that
//! drives the task manager lives in [`crate::pipeline`]; this module
//! holds what it operates on — the chunk geometry ([`FlowLayout`]),
//! the message and payload types, the run's [`Instruments`], and
//! [`NodeCore`], which executes one primitive (and records it through
//! its node's recorder).
//!
//! The dataflow semantics are exactly those of
//! [`hipress_core::interp`]: the same per-task encode seeds, the same
//! serial merge chains (a compressed contribution is summed by
//! [`Compressor::merge_into`], the interpreter's decode and add bit for
//! bit, without densifying a sparse stream), the same
//! owner-installs-`decode(encode(sum))` rule for replica consistency. A graph executed here and in the
//! discrete-event interpreter produces bit-identical installed
//! parameters — that cross-validation is what lets the simulator and
//! the runtime vouch for each other.
//!
//! There is one loop over [`NodeCore`] ([`crate::pipeline`]), whatever
//! link it runs on: a fault-tolerant link ([`crate::ft`]) changes how
//! messages travel, never what gets computed — only whether it
//! completes.

use crate::recorder::{record_run_metrics, Executed, NodeRecorder};
use crate::report::RuntimeReport;
use hipress_compress::Compressor;
use hipress_core::graph::{FlowGeometry, Primitive, SendSrc, TaskGraph, TaskId};
use hipress_core::interp::FlowOutcome;
use hipress_core::sched::DepIndex;
use hipress_tensor::Tensor;
use hipress_trace::Tracer;
use hipress_util::{Error, Result};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};

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

hipress_util::record! {
    /// Inter-node messages: the entire trusted-fabric protocol. Public
    /// so transport fabrics (`hipress-fabric`) can move it between
    /// processes; the in-process engine moves it by value and never
    /// serializes, so a payload reaches its receivers by refcount.
    /// [`crate::wire`] documents the bytes.
    #[derive(Debug, Clone)]
    pub enum Msg ["msg"] {
        /// `task` (on some other node) completed. For `Send` tasks the
        /// payload rides along — the message is the transfer.
        Done {
            /// The remote task that finished.
            task: TaskId,
            /// Which pipelined iteration the completion belongs to
            /// (always 0 in a one-iteration run).
            iter: u32,
            /// The transferred bytes, present for `Send` tasks.
            payload: Option<Arc<Payload>>
                => via(crate::wire::put_payload, crate::wire::get_payload),
        } = 1,
        /// A peer hit an error; unwind.
        Abort = 2,
    }
}

/// A node loop's spare chunk buffers, keyed by length.
///
/// A decode output, a fresh merge sum, an overwritten accumulator and
/// a multi-reader `Update`'s copy are taken from here, so a run's
/// iterations reuse the buffers of those before them instead of
/// faulting fresh gradient-sized allocations in. A buffer comes back
/// only if it never left the node: an `Owned` accumulator that a
/// `Merge` sum or `Update` replaces or that a retiring non-final
/// iteration drops, and decode outputs no one consumed. A buffer that
/// went into an `Arc<Payload>` never comes back, even once its last
/// peer has dropped it: waiting for that costs more than the
/// allocation it saves. So the pool holds no
/// more than the node had live at once, and it is dropped with the
/// run.
#[derive(Debug, Default)]
pub(crate) struct BufPool {
    free: HashMap<usize, Vec<Vec<f32>>>,
    /// What the pool served, for the tests that pin its steady state.
    #[cfg(test)]
    pub(crate) counts: PoolCounts,
}

/// A [`BufPool`]'s counters.
#[cfg(test)]
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct PoolCounts {
    /// The iteration whose task draws from the pool now.
    pub(crate) iter: u32,
    /// Takes the pool could not serve: a fresh allocation followed.
    pub(crate) fresh: u64,
    /// The iteration of the last such take.
    pub(crate) last_fresh_iter: Option<u32>,
    /// Buffers put back.
    pub(crate) returned: u64,
}

impl BufPool {
    /// A free buffer of `len` elements, its contents stale.
    fn take(&mut self, len: usize) -> Option<Vec<f32>> {
        let v = self.free.get_mut(&len).and_then(Vec::pop);
        #[cfg(test)]
        if v.is_none() {
            self.counts.fresh += 1;
            self.counts.last_fresh_iter = Some(self.counts.iter);
        }
        v
    }

    /// A buffer of `len` elements for the caller to overwrite in full:
    /// a free one, else a fresh one.
    fn take_or_alloc(&mut self, len: usize) -> Vec<f32> {
        self.take(len).unwrap_or_else(|| vec![0.0; len])
    }

    /// Puts back a buffer no one else holds.
    fn put(&mut self, v: Vec<f32>) {
        #[cfg(test)]
        {
            self.counts.returned += 1;
        }
        self.free.entry(v.len()).or_default().push(v);
    }
}

/// A chunk accumulator, copy-on-write and shared by refcount.
///
/// `Source` installs a `Shared` handle on the node's input chunk
/// ([`FlowLayout::split_inputs`]); only a node summing local replicas
/// starts from an `Owned` buffer. A raw `Send` moves an owned buffer
/// into the one `Arc<Payload>` the message needs and keeps a `Shared`
/// handle ([`ChunkBuf::share`]); `Update` of a received raw aggregate
/// keeps the received `Arc`. Writers never copy a held buffer only to
/// write over the copy: [`ChunkBuf::add_assign`] sums into a pooled
/// buffer in one pass and [`ChunkBuf::overwrite`] hands out a pooled
/// one. Only the rare in-place rescale goes through
/// [`ChunkBuf::make_mut`], which copies once while someone else still
/// holds the buffer. Every writer is free on an owned or uniquely
/// held buffer. The input table keeps its own reference, so no write
/// ever reaches a run's inputs.
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

    /// The vector itself when no one else holds it.
    fn unique_mut(&mut self) -> Option<&mut Vec<f32>> {
        match self {
            ChunkBuf::Owned(v) => Some(v),
            ChunkBuf::Shared(p) => match Arc::get_mut(p)? {
                Payload::Raw(v) => Some(v),
                _ => unreachable!("a shared chunk buffer holds a raw payload"),
            },
        }
    }

    /// Adds `other` element-wise: in place when unshared, else into a
    /// pooled or fresh vector in one pass (`a + b` either way, so the
    /// bits are the same).
    pub(crate) fn add_assign(&mut self, other: &[f32], pool: &mut BufPool) {
        if let Some(v) = self.unique_mut() {
            for (a, b) in v.iter_mut().zip(other) {
                *a += b;
            }
        } else if let Some(mut v) = pool.take(self.len()) {
            for ((s, a), b) in v.iter_mut().zip(self.iter()).zip(other) {
                *s = a + b;
            }
            *self = ChunkBuf::Owned(v);
        } else {
            *self = ChunkBuf::Owned(self.iter().zip(other).map(|(a, b)| a + b).collect());
        }
    }

    /// A buffer of the same length for the caller to overwrite in
    /// full: this one when unshared, else a pooled or fresh one.
    pub(crate) fn overwrite(&mut self, pool: &mut BufPool) -> &mut [f32] {
        if self.unique_mut().is_none() {
            *self = ChunkBuf::Owned(pool.take_or_alloc(self.len()));
        }
        self.make_mut()
    }

    /// Installs `value`, putting a replaced private buffer back into
    /// `pool`. A shared one is only dropped: it may have left the node.
    fn replace(&mut self, value: ChunkBuf, pool: &mut BufPool) {
        if let ChunkBuf::Owned(v) = std::mem::replace(self, value) {
            pool.put(v);
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
    record_run_metrics(metrics, &report);
    Ok(RunOutcome {
        flows: layout.assemble(&cells_per_node)?,
        report,
    })
}

/// The graph's chunk geometry as the runtime uses it: shared by the
/// workers and the result assembly, plus each node's input chunks.
pub(crate) struct FlowLayout {
    pub(crate) nodes: usize,
    pub(crate) geometry: FlowGeometry,
    /// Per node, its input chunks, split once per run
    /// ([`FlowLayout::split_inputs`]).
    inputs: Vec<OnceLock<InputChunks>>,
}

/// (flow, part) → one node's input chunk, a [`Payload::Raw`].
type InputChunks = HashMap<(u32, u32), Arc<Payload>>;

/// One node's inputs: flow → its local replicas.
pub(crate) type NodeInputs = HashMap<u32, Vec<Tensor>>;

/// `node`'s share of `flows`, sharing the tensors by refcount.
pub(crate) fn node_inputs(flows: &ReplicaFlows, node: usize) -> NodeInputs {
    flows
        .iter()
        .map(|(&f, per_node)| (f, per_node[node].clone()))
        .collect()
}

impl FlowLayout {
    pub(crate) fn new(graph: &TaskGraph, nodes: usize) -> Self {
        Self {
            nodes,
            geometry: FlowGeometry::of(graph),
            inputs: (0..nodes).map(|_| OnceLock::new()).collect(),
        }
    }

    /// `node`'s input chunks as shared raw buffers, split out of
    /// `inputs` (the node's inputs for the run) on the first call and
    /// reused by every iteration after it. The table keeps one
    /// reference for the whole run, so a write to a chunk copies it
    /// and never reaches the inputs. A flow with local replicas has no
    /// entries: the node sums them afresh each iteration.
    pub(crate) fn split_inputs(&self, inputs: &NodeInputs, node: usize) -> &InputChunks {
        self.inputs[node].get_or_init(|| {
            let mut chunks = HashMap::new();
            for f in self.geometry.flows() {
                let [rep] = &inputs[&f.flow][..] else {
                    continue;
                };
                for (part, range) in &f.parts {
                    let chunk = rep.as_slice()[range.clone()].to_vec();
                    chunks.insert((f.flow, *part), Arc::new(Payload::Raw(chunk)));
                }
            }
            chunks
        })
    }

    /// Reassembles dense per-flow, per-node tensors from worker cells.
    pub(crate) fn assemble(
        &self,
        cells_per_node: &[HashMap<(u32, u32), Cell>],
    ) -> Result<Vec<FlowOutcome>> {
        self.geometry.assemble(self.nodes, |node, f, p| {
            cells_per_node[node]
                .get(&(f, p))
                .filter(|c| c.updated)
                .map(|c| &*c.acc)
        })
    }
}

/// One node's dataflow state and primitive execution for one
/// iteration: cells, codec outputs, received payloads, measurements.
/// Whatever link the loop runs on, the computation is this one.
pub(crate) struct NodeCore<'a> {
    pub(crate) node: usize,
    pub(crate) graph: &'a TaskGraph,
    /// This node's inputs.
    pub(crate) inputs: &'a NodeInputs,
    pub(crate) layout: &'a FlowLayout,
    ix: &'a DepIndex,
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
    /// Decode tasks whose output is a degradation hole.
    skipped_out: HashSet<u32>,
    pub(crate) report: RuntimeReport,
    /// Which pipelined iteration this core executes (0 in a
    /// one-iteration run). Stamped onto traced spans so
    /// cross-rank Send→Recv pairs match unambiguously.
    pub(crate) iter: u32,
}

impl<'a> NodeCore<'a> {
    pub(crate) fn new(
        node: usize,
        graph: &'a TaskGraph,
        inputs: &'a NodeInputs,
        layout: &'a FlowLayout,
        ix: &'a DepIndex,
        compressor: Option<&'a dyn Compressor>,
        seed: u64,
    ) -> Self {
        Self {
            node,
            graph,
            inputs,
            layout,
            ix,
            compressor,
            seed,
            cells: HashMap::new(),
            enc_out: HashMap::new(),
            dec_out: HashMap::new(),
            recv_payload: HashMap::new(),
            inbound: HashMap::new(),
            skipped_out: HashSet::new(),
            report: RuntimeReport::default(),
            iter: 0,
        }
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

    /// Whether local task `id` is the only reader of local task `d`'s
    /// output.
    fn sole_reader(&self, d: TaskId, id: TaskId) -> bool {
        let readers = self.ix.dependents(d).iter();
        let mut local = readers.filter(|&&r| self.ix.owner(r) == self.node);
        local.next() == Some(&id) && local.next().is_none()
    }

    /// Whether every local reader of decode `d`'s output is a `Merge`,
    /// which sums the stream itself: then `d` decodes nothing.
    fn merge_only(&self, d: TaskId) -> bool {
        let readers = self.ix.dependents(d).iter();
        let mut local = readers.filter(|&&r| self.ix.owner(r) == self.node);
        local.all(|&r| self.graph.task(r).prim == Primitive::Merge)
    }

    /// Puts this iteration's private buffers back into `pool` as it
    /// retires: its `Owned` accumulators and any decode output no one
    /// consumed.
    pub(crate) fn recycle(self, pool: &mut BufPool) {
        for cell in self.cells.into_values() {
            if let ChunkBuf::Owned(v) = cell.acc {
                pool.put(v);
            }
        }
        for v in self.dec_out.into_values() {
            pool.put(v);
        }
    }

    /// Executes one primitive, recording its measurement through `rec`
    /// into the report. Returns the outbound payload for `Send` tasks;
    /// the caller owns completion bookkeeping (dependency resolution
    /// and fabric messaging). Codec outputs and fresh sums are buffers
    /// from `pool`, the node's for the run.
    pub(crate) fn execute_one(
        &mut self,
        id: TaskId,
        pool: &mut BufPool,
        rec: &NodeRecorder<'_>,
    ) -> Result<Option<Arc<Payload>>> {
        #[cfg(test)]
        {
            pool.counts.iter = self.iter;
        }
        let start = rec.stamp();
        let t = self.graph.task(id);
        debug_assert_eq!(t.node, self.node, "task scheduled on the wrong node");
        let key = (t.chunk.grad, t.chunk.part);
        let mut outbound: Option<Arc<Payload>> = None;
        let mut sent: Option<u64> = None;
        let mut send_task: Option<TaskId> = None;
        match t.prim {
            Primitive::Source => {
                // The input chunk itself, by refcount; local replicas
                // are summed into a buffer of this iteration's own.
                let inputs = self.layout.split_inputs(self.inputs, self.node);
                if let Some(chunk) = inputs.get(&key) {
                    self.cells.entry(key).or_default().acc = ChunkBuf::Shared(Arc::clone(chunk));
                } else {
                    let range = self
                        .layout
                        .geometry
                        .chunk(key.0, key.1)
                        .expect("every source is a chunk of the layout");
                    let reps = &self.inputs[&t.chunk.grad];
                    let mut acc = reps[0].as_slice()[range.clone()].to_vec();
                    let agg = rec.stamp();
                    for r in &reps[1..] {
                        let slice = &r.as_slice()[range.clone()];
                        for (a, &b) in acc.iter_mut().zip(slice) {
                            *a += b;
                        }
                    }
                    rec.local_agg(&mut self.report, agg, reps.len());
                    self.cells.entry(key).or_default().acc = acc.into();
                }
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
                    .graph
                    .find_dep(id, Primitive::Recv)
                    .ok_or_else(|| Error::sim("decode without a recv dependency"))?;
                match self.recv_payload.get(&recv.0).map(|p| p.as_ref()) {
                    Some(Payload::Compressed(_)) if self.merge_only(id) => {
                        // Left in `recv_payload`: the `Merge` reads the
                        // stream itself and sums it without densifying.
                    }
                    Some(Payload::Compressed(bytes)) => {
                        // Sized by the layout, never by the stream: a
                        // header that claims another length is a
                        // codec error, not an allocation. Not zeroed:
                        // `decode_into` writes every element.
                        let elems = self
                            .layout
                            .geometry
                            .chunk(key.0, key.1)
                            .ok_or_else(|| Error::sim("decode of a chunk with no source"))?
                            .len();
                        let mut out = pool.take_or_alloc(elems);
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
                // The contribution as it arrived: a raw chunk straight
                // from its `Recv`, or the stream its `Decode` left
                // undecoded.
                let decode = self.graph.find_dep(id, Primitive::Decode);
                let recv = match decode {
                    Some(d) => self.graph.find_dep(d, Primitive::Recv),
                    None => self.graph.find_dep(id, Primitive::Recv),
                };
                let recv = recv.ok_or_else(|| Error::sim("merge with nothing to merge"))?;
                let payload = self.recv_payload.get(&recv.0);
                let payload = payload.ok_or_else(|| Error::sim("merge before recv delivered"))?;
                let compressor = self.compressor;
                let cell = self
                    .cells
                    .get_mut(&key)
                    .ok_or_else(|| Error::sim("merge with no accumulator"))?;
                match (payload.as_ref(), decode) {
                    (Payload::Raw(v), None) => {
                        if v.len() != cell.acc.len() {
                            return Err(Error::sim("merge length mismatch"));
                        }
                        cell.acc.add_assign(v, pool);
                        cell.merged += 1;
                    }
                    (Payload::Compressed(bytes), Some(_)) => {
                        // The sum goes to a pooled buffer that becomes
                        // the accumulator; a private one it replaces
                        // goes back to the pool.
                        let mut sum = pool.take_or_alloc(cell.acc.len());
                        compressor
                            .ok_or_else(|| Error::sim("codec task without a compressor"))?
                            .merge_into(bytes, &cell.acc, &mut sum)?;
                        cell.acc.replace(sum.into(), pool);
                        cell.merged += 1;
                    }
                    (Payload::Skipped, _) => {
                        // The contribution was skipped by degradation:
                        // nothing to add; remember the gap so the acc
                        // is rescaled before anyone consumes it.
                        cell.missing += 1;
                    }
                    (Payload::Compressed(_), None) => {
                        return Err(Error::sim("raw merge of compressed payload"));
                    }
                    (Payload::Raw(_), Some(_)) => {
                        return Err(Error::sim("decode of a raw payload"));
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
                            .graph
                            .find_dep(id, Primitive::Encode)
                            .ok_or_else(|| Error::sim("encoded send without encode"))?;
                        let p = self.enc_out.get(&e.0);
                        Arc::clone(p.ok_or_else(|| Error::sim("send before encode ran"))?)
                    }
                    SendSrc::Forward => {
                        let r = self
                            .graph
                            .find_dep(id, Primitive::Recv)
                            .ok_or_else(|| Error::sim("forward without recv"))?;
                        let p = self.recv_payload.get(&r.0);
                        Arc::clone(p.ok_or_else(|| Error::sim("forward before recv delivered"))?)
                    }
                };
                sent = Some(payload.wire_bytes());
                outbound = Some(payload);
            }
            Primitive::Recv => {
                let send = self
                    .graph
                    .find_dep(id, Primitive::Send)
                    .ok_or_else(|| Error::sim("recv without its send"))?;
                send_task = Some(send);
                let payload = self
                    .inbound
                    .remove(&send.0)
                    .ok_or_else(|| Error::sim("recv promoted before its payload arrived"))?;
                self.recv_payload.insert(id.0, payload);
            }
            Primitive::Barrier => {}
            Primitive::Update => {
                /// What `Update` installs into the accumulator.
                enum Install<'v> {
                    /// The disseminated aggregate, decoded: the
                    /// decode's own buffer when this `Update` is its
                    /// only reader, else a copy in a pooled buffer.
                    Decoded(Vec<f32>),
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
                let install = if let Some(d) = self.graph.find_dep(id, Primitive::Decode) {
                    if self.skipped_out.contains(&d.0) {
                        Install::Degraded
                    } else {
                        let dec = if self.sole_reader(d, id) {
                            self.dec_out.remove(&d.0)
                        } else {
                            self.dec_out.get(&d.0).map(|v| {
                                let mut copy = pool.take_or_alloc(v.len());
                                copy.copy_from_slice(v);
                                copy
                            })
                        };
                        Install::Decoded(dec.ok_or_else(|| Error::sim("update before decode"))?)
                    }
                } else if let Some(r) = self.graph.find_dep(id, Primitive::Recv) {
                    let p = self.recv_payload.get(&r.0);
                    let p = p.ok_or_else(|| Error::sim("update before recv delivered"))?;
                    match p.as_ref() {
                        Payload::Raw(_) => Install::Received(p),
                        Payload::Compressed(_) => {
                            return Err(Error::sim("raw update of compressed payload"));
                        }
                        Payload::Skipped => Install::Degraded,
                    }
                } else if let Some(e) = self.graph.find_dep(id, Primitive::Encode) {
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
                // refcount, a decoded one by move, and the owner
                // decodes its own bytes straight into it — never into
                // a copy of a buffer someone else holds. A private
                // accumulator it replaces goes back to the pool.
                match install {
                    Install::Decoded(value) => {
                        if value.len() != cell.acc.len() {
                            return Err(Error::sim("update length mismatch"));
                        }
                        cell.acc.replace(value.into(), pool);
                    }
                    Install::Received(p) => {
                        let value = ChunkBuf::Shared(Arc::clone(p));
                        if value.len() != cell.acc.len() {
                            return Err(Error::sim("update length mismatch"));
                        }
                        cell.acc.replace(value, pool);
                    }
                    Install::Degraded => {
                        cell.scale(crate::protocol::degrade_rescale(
                            nodes,
                            cell.merged as usize,
                        ));
                    }
                    Install::OwnBytes(bytes) => compressor
                        .ok_or_else(|| Error::sim("codec task without a compressor"))?
                        .decode_into(bytes, cell.acc.overwrite(pool))?,
                    Install::Accumulator => cell.settle_degraded(nodes),
                }
                cell.updated = true;
            }
        }
        let e = Executed {
            id,
            task: t,
            iter: self.iter,
            start,
            sent,
            send_task,
        };
        rec.task(&mut self.report, e);
        Ok(outbound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run, RunOptions};
    use hipress_compress::Algorithm;
    use hipress_core::interp::{interpret, reference_sum};
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

    /// `grads` as `graph`'s flows, one replica per node.
    fn replicas(graph: &TaskGraph, grads: &[Vec<Tensor>]) -> ReplicaFlows {
        replicate(&FlowGeometry::of(graph).inputs(grads).unwrap())
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
        for strat in Strategy::all() {
            let graph = strat.build(&cluster, &iter).unwrap();
            let flows = FlowGeometry::of(&graph).inputs(&grads).unwrap();
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
                let flows = FlowGeometry::of(&graph).inputs(&grads).unwrap();
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
        // Equivalent single-replica input through the interpreter.
        let summed = sum_replicas(&replicated).unwrap();
        let sim = interpret(&graph, nodes, &summed, None, 3).unwrap();
        // Pipelined too: every iteration sums the replicas afresh, into
        // a buffer of its own.
        for (iterations, window) in [(1, 1), (3, 2)] {
            let opts = RunOptions {
                pipeline: crate::PipelineConfig { iterations, window },
                ..RunOptions::default()
            };
            let out = run(&graph, nodes, &replicated, None, 3, &opts).unwrap();
            assert_eq!(
                out.flows[0].per_node, sim[0].per_node,
                "{iterations}x{window}"
            );
            assert!(out.report.local_agg_ns > 0);
        }
    }

    #[test]
    fn batch_compression_is_semantically_neutral() {
        // Batching is always on: a pipelined onebit run still installs
        // the interpreter's result, launches batches, and runs every
        // encode of every iteration exactly once.
        let (nodes, iterations) = (3, 4);
        let sizes = [2048usize];
        let grads = worker_grads(nodes, &sizes);
        let iter = iter_spec(&sizes, Some(Algorithm::OneBit), 4);
        let cluster = ClusterConfig::ec2(nodes);
        let graph = Strategy::CaSyncPs.build(&cluster, &iter).unwrap();
        let c = Algorithm::OneBit.build().unwrap();
        let single = FlowGeometry::of(&graph).inputs(&grads).unwrap();
        let sim = interpret(&graph, nodes, &single, Some(c.as_ref()), 5).unwrap();
        let opts = RunOptions {
            pipeline: crate::PipelineConfig {
                iterations,
                window: 2,
            },
            ..RunOptions::default()
        };
        let out = run(
            &graph,
            nodes,
            &replicate(&single),
            Some(c.as_ref()),
            5,
            &opts,
        )
        .unwrap();
        for (got, want) in out.flows.iter().zip(&sim) {
            assert_eq!(got.per_node, want.per_node);
        }
        assert!(out.report.comp_batch_launches > 0);
        assert_eq!(
            out.report.encode.count,
            u64::from(iterations) * graph.count(Primitive::Encode) as u64,
            "batching must run every encode exactly once"
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
        let raw_graph = Strategy::CaSyncRing.build(&cluster, &raw_iter).unwrap();
        let flows = replicas(&raw_graph, &grads);
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
        let flows = replicas(&graph, &grads);
        // Compressed graph, no compressor: every node must unwind, not
        // deadlock — and the codec error, not an abort echo, surfaces.
        let err = run(&graph, nodes, &flows, None, 0, &RunOptions::default()).unwrap_err();
        assert!(err.as_sync().is_none(), "echo outranked its cause: {err}");
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

    #[test]
    fn chunk_buf_writers_leave_held_buffers_alone() {
        // A sum into a held buffer lands in a fresh one, with the same
        // bits an in-place sum gives.
        let mut buf = ChunkBuf::from(vec![0.1f32, 0.2, 0.3]);
        let held = buf.share();
        buf.add_assign(&[0.7, 0.4, -0.3], &mut BufPool::default());
        assert_eq!(held.as_ref(), &Payload::Raw(vec![0.1, 0.2, 0.3]));
        let mut in_place = [0.1f32, 0.2, 0.3];
        for (a, b) in in_place.iter_mut().zip([0.7f32, 0.4, -0.3]) {
            *a += b;
        }
        assert_eq!(&*buf, &in_place[..]);
        // Unshared, both writers keep the allocation.
        let ptr = buf.as_ptr();
        buf.add_assign(&[1.0; 3], &mut BufPool::default());
        buf.overwrite(&mut BufPool::default())
            .copy_from_slice(&[5.0; 3]);
        assert_eq!((buf.as_ptr(), &*buf), (ptr, &[5.0f32; 3][..]));
        // An overwrite of a held buffer hands out a fresh one.
        let held = buf.share();
        let fresh = buf.overwrite(&mut BufPool::default());
        assert_eq!(fresh.len(), 3);
        fresh.copy_from_slice(&[6.0; 3]);
        assert_eq!(held.as_ref(), &Payload::Raw(vec![5.0; 3]));
        assert_ne!(buf.as_ptr(), ptr);
    }

    /// Runs `graph` over the channel fabric, returning every node's
    /// final cells and its buffer pool's counters. `layout` keeps the
    /// input chunks the run split.
    fn drive_all(
        graph: &TaskGraph,
        nodes: usize,
        flows: &ReplicaFlows,
        layout: &FlowLayout,
        compressor: Option<&dyn Compressor>,
        pipeline: crate::PipelineConfig,
    ) -> (Vec<HashMap<(u32, u32), Cell>>, Vec<PoolCounts>) {
        use hipress_fabric::Link;
        let ix = DepIndex::of(graph);
        let pools: Vec<std::sync::Mutex<BufPool>> =
            (0..nodes).map(|_| Default::default()).collect();
        let recs = (0..nodes).map(|n| NodeRecorder::new(None, None, None, n, false));
        let results = crate::pipeline::on_threads(
            recs.collect(),
            |mut link: hipress_fabric::ChannelLink<Msg>, rec| {
                let mut pool = pools[link.me()].lock().unwrap();
                let inputs = node_inputs(flows, link.me());
                crate::pipeline::drive_node(
                    &mut link, graph, &inputs, layout, &ix, compressor, 5, &pipeline, rec, None,
                    &mut pool,
                )
            },
        );
        let cells = results.into_iter().map(|r| r.unwrap().0).collect();
        let counts = pools.into_iter().map(|p| p.into_inner().unwrap().counts);
        (cells, counts.collect())
    }

    #[test]
    fn dense_ps_installs_one_shared_allocation_per_chunk() {
        let nodes = 2;
        let sizes = [300usize, 64];
        let graph = Strategy::CaSyncPs
            .build(&ClusterConfig::ec2(nodes), &iter_spec(&sizes, None, 2))
            .unwrap();
        let flows = replicas(&graph, &worker_grads(nodes, &sizes));
        for window in [1, 4] {
            let pipeline = crate::PipelineConfig {
                iterations: 6,
                window,
            };
            let layout = FlowLayout::new(&graph, nodes);
            let (cells, pools) = drive_all(&graph, nodes, &flows, &layout, None, pipeline);
            assert_eq!(cells[0].len(), 4);
            // Every buffer the owners summed into left in a raw `Send`,
            // so none may come back: recycling a shared buffer once its
            // peers let go measured slower than allocating.
            assert!(pools[0].fresh > 0, "the owner's sums draw on the pool");
            for (node, counts) in pools.iter().enumerate() {
                assert_eq!(counts.returned, 0, "node {node} pooled a sent buffer");
            }
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

    #[test]
    fn pooled_ring_allocates_a_window_of_buffers_not_a_run() {
        let nodes = 3;
        let sizes = [3000usize, 700];
        let window = 4;
        let pipeline = crate::PipelineConfig {
            iterations: 32,
            window,
        };
        let grads = worker_grads(nodes, &sizes);
        let alg = Some(Algorithm::OneBit);
        let graph = Strategy::CaSyncRing
            .build(&ClusterConfig::ec2(nodes), &iter_spec(&sizes, alg, nodes))
            .unwrap();
        let single = FlowGeometry::of(&graph).inputs(&grads).unwrap();
        let flows = replicate(&single);
        let c = Algorithm::OneBit.build().unwrap();
        let layout = FlowLayout::new(&graph, nodes);
        let (cells, pools) = drive_all(&graph, nodes, &flows, &layout, Some(c.as_ref()), pipeline);
        // Recycled decode outputs and sums start stale; the installed
        // bits must not notice.
        let sim = interpret(&graph, nodes, &single, Some(c.as_ref()), 5).unwrap();
        for (a, b) in sim.iter().zip(layout.assemble(&cells).unwrap()) {
            assert_eq!(a.per_node, b.per_node);
        }
        for (node, counts) in pools.iter().enumerate() {
            // An iteration holds at most one accumulator per chunk and
            // one output per decode, and no more than `window` are in
            // flight. Which iteration sets the peak depends on thread
            // interleaving; that the peak bounds the run does not.
            let decodes = graph
                .tasks()
                .iter()
                .filter(|t| t.node == node && t.prim == Primitive::Decode)
                .count();
            let chunks: usize = layout.geometry.flows().iter().map(|f| f.parts.len()).sum();
            let live = u64::from(window) * (chunks + decodes) as u64;
            assert!(counts.fresh <= live, "node {node}: {counts:?} over {live}");
            assert!(counts.returned > 0, "node {node} recycled nothing");
        }
    }

    #[test]
    fn source_shares_the_input_chunks_and_never_writes_them() {
        let sizes = [300usize, 64];
        let pipeline = crate::PipelineConfig {
            iterations: 4,
            window: 4,
        };
        for (strategy, nodes, alg) in [
            (Strategy::CaSyncPs, 2, None),
            (Strategy::CaSyncRing, 3, Some(Algorithm::OneBit)),
        ] {
            let grads = worker_grads(nodes, &sizes);
            let graph = strategy
                .build(&ClusterConfig::ec2(nodes), &iter_spec(&sizes, alg, nodes))
                .unwrap();
            let single = FlowGeometry::of(&graph).inputs(&grads).unwrap();
            let flows = replicate(&single);
            let c = alg.map(|a| a.build().unwrap());
            let layout = FlowLayout::new(&graph, nodes);
            let ix = DepIndex::of(&graph);
            // A pipelined run: owners merge into, update and decode
            // over accumulators that start as the shared inputs.
            let (cells, _) = drive_all(&graph, nodes, &flows, &layout, c.as_deref(), pipeline);
            let sim = interpret(&graph, nodes, &single, c.as_deref(), 5).unwrap();
            for (a, b) in sim.iter().zip(layout.assemble(&cells).unwrap()) {
                assert_eq!(a.per_node, b.per_node, "{strategy:?} diverged");
            }
            for (node, grads) in grads.iter().enumerate() {
                // The chunks the run split, still the caller's bits.
                let mine = node_inputs(&flows, node);
                let inputs = layout.split_inputs(&mine, node);
                let chunks: usize = layout.geometry.flows().iter().map(|f| f.parts.len()).sum();
                assert_eq!(inputs.len(), chunks);
                for (&key, chunk) in inputs {
                    let start = layout.geometry.chunk(key.0, key.1).unwrap().start;
                    let Payload::Raw(v) = chunk.as_ref() else {
                        panic!("input chunk {key:?} is {chunk:?}")
                    };
                    let caller = &grads[key.0 as usize].as_slice()[start..start + v.len()];
                    let bits = |x: &[f32]| x.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(v),
                        bits(caller),
                        "{strategy:?} node {node} wrote {key:?}"
                    );
                }
                // A window of iterations, each `Source` the input chunk
                // itself.
                let mut window: Vec<NodeCore> = (0..pipeline.window)
                    .map(|_| NodeCore::new(node, &graph, &mine, &layout, &ix, c.as_deref(), 5))
                    .collect();
                for core in &mut window {
                    for (&key, chunk) in inputs {
                        core.execute_one(
                            tasks_of(&graph, node, Primitive::Source, key)[0],
                            &mut BufPool::default(),
                            &NodeRecorder::default(),
                        )
                        .unwrap();
                        assert!(
                            matches!(&core.cells[&key].acc, ChunkBuf::Shared(p) if Arc::ptr_eq(p, chunk)),
                            "{strategy:?} node {node} copied {key:?}"
                        );
                    }
                }
            }
        }

        // A degraded update rescales a copy, never the input: node 1 of
        // a dense PS installs a skipped aggregate for chunk (0, 0).
        let graph = Strategy::CaSyncPs
            .build(&ClusterConfig::ec2(2), &iter_spec(&sizes, None, 2))
            .unwrap();
        let flows = replicas(&graph, &worker_grads(2, &sizes));
        let layout = FlowLayout::new(&graph, 2);
        let ix = DepIndex::of(&graph);
        let key = (0, 0);
        let mine = node_inputs(&flows, 1);
        let mut core = NodeCore::new(1, &graph, &mine, &layout, &ix, None, 3);
        core.execute_one(
            tasks_of(&graph, 1, Primitive::Source, key)[0],
            &mut BufPool::default(),
            &NodeRecorder::default(),
        )
        .unwrap();
        let recv = tasks_of(&graph, 1, Primitive::Recv, key)[0];
        let send = graph.task(recv).deps[0];
        core.inbound.insert(send.0, Arc::new(Payload::Skipped));
        core.execute_one(recv, &mut BufPool::default(), &NodeRecorder::default())
            .unwrap();
        core.execute_one(
            tasks_of(&graph, 1, Primitive::Update, key)[0],
            &mut BufPool::default(),
            &NodeRecorder::default(),
        )
        .unwrap();
        let input = &layout.split_inputs(&mine, 1)[&key];
        let Payload::Raw(v) = input.as_ref() else {
            unreachable!()
        };
        let scaled: Vec<f32> = v.iter().map(|x| x * 2.0).collect();
        assert_eq!(&*core.cells[&key].acc, &scaled[..]);
        assert_eq!(v[..], flows[&0][1][0].as_slice()[..v.len()]);
    }

    /// The metric histograms and the span names follow one primitive
    /// order.
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
        let graph = Strategy::CaSyncPs
            .build(&ClusterConfig::ec2(2), &iter_spec(&sizes, None, 2))
            .unwrap();
        let flows = replicas(&graph, &worker_grads(2, &sizes));
        let layout = FlowLayout::new(&graph, 2);
        let ix = DepIndex::of(&graph);
        let mine = node_inputs(&flows, 1);
        let mut core = NodeCore::new(1, &graph, &mine, &layout, &ix, None, 3);
        let key = (0, 0);
        core.execute_one(
            tasks_of(&graph, 1, Primitive::Source, key)[0],
            &mut BufPool::default(),
            &NodeRecorder::default(),
        )
        .unwrap();
        let send = tasks_of(&graph, 1, Primitive::Send, key)[0];
        let out = core
            .execute_one(send, &mut BufPool::default(), &NodeRecorder::default())
            .unwrap()
            .expect("send payload");
        let Payload::Raw(v) = out.as_ref() else {
            panic!("raw send shipped {out:?}")
        };
        assert_eq!(v.as_ptr(), core.cells[&key].acc.as_ptr());

        // Encoded: a 3-node compressed PS; the owner's one `Encode`
        // feeds N - 1 = 2 `Send`s, which carry one allocation.
        let graph = Strategy::CaSyncPs
            .build(
                &ClusterConfig::ec2(3),
                &iter_spec(&sizes, Some(Algorithm::OneBit), 3),
            )
            .unwrap();
        let flows = replicas(&graph, &worker_grads(3, &sizes));
        let layout = FlowLayout::new(&graph, 3);
        let ix = DepIndex::of(&graph);
        let c = Algorithm::OneBit.build().unwrap();
        let mine = node_inputs(&flows, 0);
        let mut core = NodeCore::new(0, &graph, &mine, &layout, &ix, Some(c.as_ref()), 3);
        for t in [Primitive::Source, Primitive::Encode] {
            core.execute_one(
                tasks_of(&graph, 0, t, key)[0],
                &mut BufPool::default(),
                &NodeRecorder::default(),
            )
            .unwrap();
        }
        let sends = tasks_of(&graph, 0, Primitive::Send, key);
        assert_eq!(sends.len(), 2);
        let out: Vec<Arc<Payload>> = sends
            .iter()
            .map(|&s| {
                core.execute_one(s, &mut BufPool::default(), &NodeRecorder::default())
                    .unwrap()
                    .expect("send payload")
            })
            .collect();
        assert!(matches!(out[0].as_ref(), Payload::Compressed(_)));
        assert!(Arc::ptr_eq(&out[0], &out[1]), "one encode, two allocations");
    }

    #[test]
    fn wrong_length_raw_payloads_are_refused_and_install_nothing() {
        // Chunk (0, 0) of a 2-node uncompressed PS is owned by node 0:
        // node 0 merges node 1's chunk, node 1 installs node 0's.
        let sizes = [96usize];
        let graph = Strategy::CaSyncPs
            .build(&ClusterConfig::ec2(2), &iter_spec(&sizes, None, 2))
            .unwrap();
        let flows = replicas(&graph, &worker_grads(2, &sizes));
        let layout = FlowLayout::new(&graph, 2);
        let ix = DepIndex::of(&graph);
        let key = (0, 0);
        for (node, consumer, error) in [
            (0, Primitive::Merge, "merge length mismatch"),
            (1, Primitive::Update, "update length mismatch"),
        ] {
            for len in [0, 47, 49, 4096] {
                let mine = node_inputs(&flows, node);
                let mut core = NodeCore::new(node, &graph, &mine, &layout, &ix, None, 3);
                core.execute_one(
                    tasks_of(&graph, node, Primitive::Source, key)[0],
                    &mut BufPool::default(),
                    &NodeRecorder::default(),
                )
                .unwrap();
                let before = core.cells[&key].acc.to_vec();
                let recv = tasks_of(&graph, node, Primitive::Recv, key)[0];
                let send = graph.task(recv).deps[0];
                core.inbound
                    .insert(send.0, Arc::new(Payload::Raw(vec![1.0; len])));
                core.execute_one(recv, &mut BufPool::default(), &NodeRecorder::default())
                    .unwrap();
                let err = core
                    .execute_one(
                        tasks_of(&graph, node, consumer, key)[0],
                        &mut BufPool::default(),
                        &NodeRecorder::default(),
                    )
                    .unwrap_err();
                assert!(err.to_string().contains(error), "{consumer:?} {len}: {err}");
                let cell = &core.cells[&key];
                assert_eq!(&*cell.acc, &before[..], "{consumer:?} {len} installed");
                assert!(!cell.updated && cell.merged == 0);
            }
        }
    }
}
