//! The node loop — CaSync-RT's one task manager — and [`run`], the
//! entry point that drives it on threads.
//!
//! Training synchronizes gradients every iteration, and the next
//! iteration's compression work does not have to wait for the last
//! straggling chunk of the previous one: each node may hold up to
//! `window` iterations in flight, scheduling ready tasks
//! lowest-iteration-first (so older iterations drain ahead of newer
//! ones) and communication-first within an iteration (the engine's
//! discipline — a completed send unblocks a peer). With `window = 1`
//! the loop degenerates to serial back-to-back iterations (exactly
//! the baseline `hipress bench` compares the overlap against), and
//! with `iterations = 1` as well to one plain synchronization — there
//! is no separate single-iteration loop.
//!
//! The driver ([`drive_node`]) is generic over [`Link`], so the same
//! loop runs in-process over the channel fabric ([`run`]), over the
//! fault-tolerant frame link when a fault plan revokes trust in
//! that fabric ([`crate::ft::FtLink`]), and inside each OS process of
//! the TCP mesh ([`crate::process`]). Messages carry their iteration
//! index. Promotion, admission and retirement are the node's
//! [`hipress_core::sched::Machine`]: arrivals for not-yet-admitted
//! iterations wait in its stash and are replayed at admission, so a
//! fast peer racing ahead never wedges a slow one. The loop keeps the
//! queue discipline and the §3.2 batching.
//!
//! Bit-for-bit: every iteration runs the same graph on the same
//! inputs with the same seed, so each iteration's installed
//! parameters equal the single-iteration result — pipelining
//! reorders work across iterations but never inside one chunk's
//! dependency chain. The returned flows are the final iteration's.

use crate::engine::{
    conclude, node_inputs, BufPool, Cell, FlowLayout, Instruments, Msg, NodeCore, NodeInputs,
    NodeResult, Payload, ReplicaFlows, RunOutcome,
};
use crate::ft::{DegradePolicy, FaultTolerance, FtLink};
use crate::recorder::{node_recorders, record_run_span, Fault, NodeRecorder, Queue, Stamp};
use crate::report::RuntimeReport;
use hipress_chaos::{FaultPlan, NodeFaults};
use hipress_compress::Compressor;
use hipress_core::graph::{TaskGraph, TaskId};
use hipress_core::sched::{DepIndex, Machine};
use hipress_core::Primitive;
use hipress_fabric::{ChannelFabric, ChannelLink, Fabric, FabricError, Link};
use hipress_trace::Tracer;
use hipress_util::bulk::BATCH_MAX_TASK_BYTES;
use hipress_util::{Error, Result, SyncFailure, SyncFailureKind};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a node loop waits on a silent inbox before declaring the
/// protocol wedged and unwinding with an error instead of hanging (a
/// lost peer or malformed graph, not ordinary slowness).
pub const INBOX_TIMEOUT: Duration = Duration::from_secs(30);

/// How many iterations to run and how many may overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Total synchronization iterations to execute (≥ 1).
    pub iterations: u32,
    /// Bound on concurrently in-flight iterations (≥ 1; 1 = serial).
    pub window: u32,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            iterations: 1,
            window: 1,
        }
    }
}

/// Everything [`run`] takes besides the job itself, grouped: how many
/// iterations overlap, who observes, and whether the fabric is
/// trusted.
#[derive(Debug, Clone, Default)]
pub struct RunOptions<'a> {
    /// Iteration count and overlap window (default: one iteration).
    pub pipeline: PipelineConfig,
    /// Optional trace / metrics / telemetry observers.
    pub instruments: Instruments<'a>,
    /// `Some` revokes trust in the fabric: the same loop runs over the
    /// fault-tolerant frame link ([`crate::ft`]) under this tuning,
    /// with the plan's faults injected ([`FaultPlan::none`] measures
    /// the protocol alone), for any [`RunOptions::pipeline`]. The one
    /// combination refused, as a configuration error, is
    /// [`DegradePolicy::Partial`] over more than one iteration; so is
    /// a plan naming a node outside the run.
    pub chaos: Option<(FaultTolerance, FaultPlan)>,
}

/// Faults [`drive_node`] injects into its own node, consulted before
/// each task: a hard death once enough iterations have retired
/// (elastic membership) and a fault plan's stall and crash triggers,
/// indexed by local execution count. The hooks also count retired
/// iterations (the retired prefix), which a failed segment still has
/// to report (a returned `Err` loses the loop's state) so an
/// evict-on-loss coordinator can pick the drain boundary.
#[derive(Debug, Default)]
pub(crate) struct NodeHooks {
    /// Crash (hard process death, no abort broadcast) once this many
    /// iterations have retired. `None` never crashes.
    pub die_at_iter: Option<u32>,
    /// The fault plan's stall / crash triggers for this node.
    pub faults: NodeFaults,
    /// Retired iterations: every one below this count finished on the
    /// node. Updated at every retirement.
    pub retired: u32,
}

/// Converts a transport failure into the workspace error type,
/// naming the dead peer as the failing node (that is the rank a CI
/// smoke test greps for) and the observer as the peer.
pub(crate) fn fabric_err(me: usize, e: FabricError) -> Error {
    match e {
        FabricError::PeerLost { peer, detail } => Error::sync(SyncFailure {
            kind: SyncFailureKind::LinkDead,
            node: peer,
            peer: Some(me),
            task: None,
            detail,
        }),
        FabricError::DeadLink {
            peer,
            seq,
            attempts,
        } => Error::sync(SyncFailure {
            kind: SyncFailureKind::LinkDead,
            node: peer,
            peer: Some(me),
            task: None,
            detail: format!("seq {seq} unacknowledged after {attempts} attempts"),
        }),
        FabricError::Sync(failure) => Error::sync(failure),
        other => Error::sim(format!("node {me}: fabric failure: {other}")),
    }
}

/// One admitted iteration's private state: its own cells, ready
/// queues (`Q_comp` / `Q_commu`) and timing — iterations share nothing
/// but the link and the node's [`Machine`].
struct IterState<'a> {
    core: NodeCore<'a>,
    /// Ready computing tasks (encode/decode/merge/update + source).
    q_comp: VecDeque<TaskId>,
    /// Ready communication tasks (send/recv).
    q_commu: VecDeque<TaskId>,
    admitted: Stamp,
}

impl<'a> IterState<'a> {
    /// Admits one iteration around `core`, its queues empty.
    fn new(core: NodeCore<'a>, rec: &NodeRecorder<'_>) -> Self {
        IterState {
            core,
            q_comp: VecDeque::new(),
            q_commu: VecDeque::new(),
            admitted: rec.stamp(),
        }
    }

    fn enqueue(&mut self, t: TaskId, rec: &NodeRecorder<'_>) {
        let prim = self.core.graph.task(t).prim;
        let (q, queue) = match prim {
            Primitive::Send | Primitive::Recv => (Queue::Commu, &mut self.q_commu),
            _ => (Queue::Comp, &mut self.q_comp),
        };
        queue.push_back(t);
        rec.queued(q, queue.len());
    }

    /// Pops the next ready task, communication first: a completed
    /// send unblocks another node, which is what keeps the pipeline
    /// full.
    fn pop_ready(&mut self, rec: &NodeRecorder<'_>) -> Option<TaskId> {
        let (q, t) = match self.q_commu.pop_front() {
            Some(t) => (Queue::Commu, t),
            None => (Queue::Comp, self.q_comp.pop_front()?),
        };
        rec.dequeued(q);
        Some(t)
    }
}

/// One node's pipelined task manager, generic over the transport.
/// Borrows the link rather than owning it: a process-fabric child
/// must keep its `TcpLink` (and the data readers that ack its peers'
/// frames) alive after the protocol completes, until the coordinator
/// calls time — dropping it early would tear the sockets down under
/// peers still finishing.
struct PipeWorker<'a, L: Link<Msg = Msg>> {
    link: &'a mut L,
    graph: &'a TaskGraph,
    inputs: &'a NodeInputs,
    layout: &'a FlowLayout,
    ix: &'a DepIndex,
    compressor: Option<&'a dyn Compressor>,
    seed: u64,
    pcfg: PipelineConfig,
    /// Promotion, admission, the stash of early arrivals (with their
    /// payloads) and retirement.
    machine: Machine<Option<Arc<Payload>>>,
    /// Admitted iterations with tasks left here, in ascending order.
    iters: BTreeMap<u32, IterState<'a>>,
    report: RuntimeReport,
    final_cells: Option<HashMap<(u32, u32), Cell>>,
    /// Where every measurement of the loop goes.
    rec: NodeRecorder<'a>,
    /// Scripted faults of this node (elastic crashes, a fault plan's
    /// stall and crash); `None` on every other run.
    hooks: Option<&'a mut NodeHooks>,
    /// Local tasks executed so far, across iterations (the index the
    /// fault plan's node triggers fire at).
    executed: usize,
    /// The node's spare chunk buffers, lent to every task of every
    /// admitted iteration and refilled as iterations retire.
    pool: &'a mut BufPool,
}

impl<'a, L: Link<Msg = Msg>> PipeWorker<'a, L> {
    fn me(&self) -> usize {
        self.link.me()
    }

    /// Admits iterations while the window has room, seeding each with
    /// its dependency-free tasks and replaying any stashed arrivals.
    fn admit_ready(&mut self) {
        while let Some((iter, stashed)) = self.machine.admit(self.ix) {
            let me = self.link.me();
            let mut core = NodeCore::new(
                me,
                self.graph,
                self.inputs,
                self.layout,
                self.ix,
                self.compressor,
                self.seed,
            );
            core.iter = iter;
            let mut st = IterState::new(core, &self.rec);
            // Seeded with the dependency-free tasks, ascending.
            for t in self.ix.tasks_of(me).filter(|&t| self.ix.indeg(t) == 0) {
                st.enqueue(t, &self.rec);
            }
            self.iters.insert(iter, st);
            for (task, payload) in stashed {
                self.deliver(iter, task, payload);
            }
        }
    }

    /// Takes in the completion of remote task `task` of admitted
    /// iteration `iter`: counts it, stores the payload a `Send` carried
    /// (`None` for a bare completion edge) and clears the edge of every
    /// local task waiting on it.
    fn deliver(&mut self, iter: u32, task: TaskId, payload: Option<Arc<Payload>>) {
        let Some(st) = self.iters.get_mut(&iter) else {
            return; // its tasks here all ran: a duplicate
        };
        let wire_bytes = payload.as_deref().map(Payload::wire_bytes);
        self.rec.message(&mut st.core.report, task, wire_bytes);
        if let Some(p) = payload {
            st.core.inbound.insert(task.0, p);
        }
        let rec = &self.rec;
        self.machine
            .release(self.ix, iter, task, |t| st.enqueue(t, rec));
    }

    fn broadcast_abort(&mut self) {
        for n in 0..self.link.nodes() {
            if n != self.link.me() {
                // A vanished peer already failed; nothing to tell it.
                let _ = self.link.send(n, Msg::Abort);
            }
        }
        let _ = self.link.flush();
    }

    fn handle(&mut self, msg: Msg) -> Result<()> {
        match msg {
            Msg::Abort => Err(Error::sync_at(SyncFailureKind::Aborted, self.me(), "")),
            Msg::Done {
                task,
                payload,
                iter,
            } => {
                // A message for a completed iteration cannot occur on
                // a deduplicating fabric (completion requires every
                // remote edge consumed); it is dropped anyway.
                if let Some(payload) = self.machine.arrive(iter, task, payload) {
                    self.deliver(iter, task, payload);
                }
                Ok(())
            }
        }
    }

    /// Pops the next ready task, oldest iteration first and
    /// communication before computing within it.
    fn next_ready(&mut self) -> Option<(u32, TaskId)> {
        let rec = &self.rec;
        self.iters
            .iter_mut()
            .find_map(|(&iter, st)| st.pop_ready(rec).map(|t| (iter, t)))
    }

    fn execute(&mut self, iter: u32, id: TaskId) -> Result<()> {
        let task = self.graph.task(id);
        // Batch compression across the whole window: gather ready
        // small encodes from *every* admitted iteration so one launch
        // covers work the pipeline made concurrently ready (§3.2
        // batching, extended across overlapping iterations).
        if task.prim == Primitive::Encode && task.bytes_raw <= BATCH_MAX_TASK_BYTES {
            let mut batch = vec![(iter, id)];
            let keys: Vec<u32> = self.iters.keys().copied().collect();
            for k in keys {
                let st = self.iters.get_mut(&k).expect("admitted iteration");
                let mut rest = VecDeque::new();
                while let Some(t) = st.q_comp.pop_front() {
                    let n = self.graph.task(t);
                    if n.prim == Primitive::Encode && n.bytes_raw <= BATCH_MAX_TASK_BYTES {
                        batch.push((k, t));
                    } else {
                        rest.push_back(t);
                    }
                }
                st.q_comp = rest;
            }
            let st = self.iters.get_mut(&iter).expect("initiating iteration");
            self.rec.batch(&mut st.core.report, batch.len());
            for (k, t) in batch {
                let outbound = self
                    .iters
                    .get_mut(&k)
                    .expect("batched iteration")
                    .core
                    .execute_one(t, self.pool, &self.rec)?;
                self.finish(k, t, outbound);
            }
            return Ok(());
        }
        let outbound = self
            .iters
            .get_mut(&iter)
            .expect("scheduled iteration")
            .core
            .execute_one(id, self.pool, &self.rec)?;
        self.finish(iter, id, outbound);
        Ok(())
    }

    /// Fires this node's scripted faults before its next task: a crash
    /// (no abort broadcast — peers discover the loss the way they would
    /// a real one), or the one-off stall peers must notice by silence.
    fn gate(&mut self) -> Result<()> {
        let (me, retired, executed) = (self.me(), self.machine.retired(), self.executed);
        let Some(h) = self.hooks.as_deref_mut() else {
            return Ok(());
        };
        let crash = match (h.die_at_iter, h.faults.crash) {
            (Some(d), _) if retired >= d => Some(format!(
                "elastic crash injection after {retired} retired iterations"
            )),
            (_, Some(c)) if executed >= c.at_task => {
                Some(format!("injected crash before local task {}", c.at_task))
            }
            _ => None,
        };
        if let Some(detail) = crash {
            return Err(Error::sync_at(SyncFailureKind::InjectedCrash, me, detail));
        }
        if let Some(stall) = h.faults.stall.take_if(|s| executed >= s.at_task) {
            self.rec.fault(&mut self.report.faults, Fault::Stall);
            std::thread::sleep(std::time::Duration::from_nanos(stall.dur_ns));
        }
        Ok(())
    }

    /// Marks `id` of iteration `iter` complete: promotes local
    /// dependents, ships completion events to remote nodes, and — when
    /// the iteration's last local task lands — retires the iteration
    /// and admits what the window then has room for.
    fn finish(&mut self, iter: u32, id: TaskId, payload: Option<Arc<Payload>>) {
        self.executed += 1;
        let st = self.iters.get_mut(&iter).expect("finishing iteration");
        let rec = &self.rec;
        self.machine
            .release(self.ix, iter, id, |t| st.enqueue(t, rec));
        let last = self.machine.done(iter);
        for &n in self.ix.notify(id) {
            // A lost peer surfaces on the receive path with its rank;
            // completion only needs the sends attempted.
            let _ = self.link.send(
                n,
                Msg::Done {
                    task: id,
                    payload: payload.clone(),
                    iter,
                },
            );
        }
        if last {
            let mut st = self.iters.remove(&iter).expect("retiring iteration");
            let retired = std::mem::take(&mut st.core.report);
            let counters = || self.link.counters();
            let report = &mut self.report;
            self.rec
                .retire(report, iter, st.admitted, retired, &self.pcfg, counters);
            if iter + 1 == self.pcfg.iterations {
                self.final_cells = Some(std::mem::take(&mut st.core.cells));
            }
            st.core.recycle(self.pool);
            if let Some(h) = self.hooks.as_deref_mut() {
                h.retired = self.machine.retired();
            }
            self.admit_ready();
        }
    }

    fn run(&mut self) -> NodeResult {
        self.admit_ready();
        while self.machine.retired() < self.pcfg.iterations {
            // Drain the inbox without blocking: completion events
            // promote tasks into the queues.
            while let Some(msg) = self.link.try_recv().map_err(|e| fabric_err(self.me(), e))? {
                self.handle(msg)?;
            }
            if let Some((iter, id)) = self.next_ready() {
                self.gate()?;
                if let Err(e) = self.execute(iter, id) {
                    self.broadcast_abort();
                    return Err(e);
                }
            } else {
                match self
                    .link
                    .recv_timeout(INBOX_TIMEOUT)
                    .map_err(|e| fabric_err(self.me(), e))?
                {
                    Some(msg) => self.handle(msg)?,
                    None => {
                        self.broadcast_abort();
                        return Err(Error::sim(format!(
                            "node {} wedged: iteration {} unretired, inbox silent",
                            self.me(),
                            self.machine.retired()
                        )));
                    }
                }
            }
        }
        // The last sends can be what a peer still waits on, and the
        // link is held until the coordinator calls time; they are
        // also counted only once written.
        let _ = self.link.flush();
        self.rec.link(&mut self.report, self.link.counters());
        let cells = self
            .final_cells
            .take()
            .ok_or_else(|| Error::sim("pipelined run retired no final iteration"))?;
        Ok((cells, std::mem::take(&mut self.report)))
    }
}

/// Drives one node's full pipelined execution over `link`, returning
/// its final-iteration cells and its accumulated (all-iterations)
/// report. The loop every run executes: channel-fabric threads,
/// fault-tolerant frame-link threads and TCP-mesh processes.
/// `pool` holds the node's spare chunk buffers for this run; the
/// caller drops it with the run.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive_node<'a, L: Link<Msg = Msg>>(
    link: &'a mut L,
    graph: &'a TaskGraph,
    inputs: &'a NodeInputs,
    layout: &'a FlowLayout,
    ix: &'a DepIndex,
    compressor: Option<&'a dyn Compressor>,
    seed: u64,
    pcfg: &PipelineConfig,
    rec: NodeRecorder<'a>,
    hooks: Option<&'a mut NodeHooks>,
    pool: &'a mut BufPool,
) -> NodeResult {
    // Split once, before the first iteration, so the one copy is not
    // timed as a `Source`: every `Source` is a refcount bump on it.
    layout.split_inputs(inputs, link.me());
    let machine = Machine::new(ix, link.me(), pcfg.iterations, pcfg.window);
    let mut worker = PipeWorker {
        link,
        graph,
        inputs,
        layout,
        ix,
        compressor,
        seed,
        pcfg: *pcfg,
        machine,
        iters: BTreeMap::new(),
        report: RuntimeReport::default(),
        final_cells: None,
        rec,
        hooks,
        executed: 0,
        pool,
    };
    worker.run()
}

/// Validates a pipeline configuration against what the driver
/// supports.
pub(crate) fn validate(pcfg: &PipelineConfig) -> Result<()> {
    if pcfg.iterations == 0 {
        return Err(Error::config("pipelined run needs at least one iteration"));
    }
    if pcfg.window == 0 {
        return Err(Error::config("pipeline window must be at least 1"));
    }
    Ok(())
}

/// Runs `body` once per node on a thread of its own, handing each its
/// endpoint on a fresh channel fabric of `M` and its recorder. Results
/// come back in node order; a panicked node becomes an error naming
/// it.
pub(crate) fn on_threads<'a, M: Send>(
    recs: Vec<NodeRecorder<'a>>,
    body: impl Fn(ChannelLink<M>, NodeRecorder<'a>) -> NodeResult + Sync,
) -> Vec<NodeResult> {
    let mut fabric = ChannelFabric::new(recs.len());
    let body = &body;
    std::thread::scope(|scope| {
        let handles: Vec<_> = recs
            .into_iter()
            .enumerate()
            .map(|(node, rec)| {
                let link = fabric.link(node).expect("fresh fabric link");
                scope.spawn(move || body(link, rec))
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(node, h)| {
                h.join()
                    .unwrap_or_else(|_| Err(Error::sim(format!("node {node} thread panicked"))))
            })
            .collect()
    })
}

/// Executes `graph` on `nodes` OS threads — the one threaded entry
/// point of CaSync-RT.
///
/// `flows` holds one or more local replicas per node (multiple local
/// GPUs), aggregated at `Source` time; wrap single-replica inputs
/// with [`crate::replicate`]. The run lasts
/// `opts.pipeline.iterations` iterations over the in-process channel
/// fabric, overlapping up to `opts.pipeline.window` of them per node;
/// every iteration runs the same graph on the same inputs, so the
/// returned flows are the final iteration's and equal the
/// interpreter's. The report accumulates all iterations and records
/// the window, iteration count, and per-iteration spans
/// ([`RuntimeReport::pipeline_overlap`]). With `opts.chaos` set the
/// fabric's links are fault-tolerant frame links with the plan's
/// faults injected ([`crate::ft`]); the loop is the same.
///
/// Tracing records one `node{i}` thread track per node (primitive
/// spans stamped with their iteration, nested `local_agg` spans,
/// `fabric` message instants, `batch` launch instants, per-iteration
/// `iter_span` spans, a `link` instant carrying the fabric counters,
/// and under chaos the `chaos` / `ft` / `straggler` fault instants),
/// `Q_comp` / `Q_commu` counter tracks per node, and a `run` wall span
/// on the `engine` track. The recorded durations are the very
/// measurements the report accumulates, so
/// [`RuntimeReport::from_trace`] on the trace reproduces the report
/// exactly.
///
/// # Errors
///
/// Configuration errors for a zero iteration count or window, for a
/// fault plan naming a node outside `0..nodes`, and for the
/// [`DegradePolicy::Partial`] straggler policy over more than one
/// iteration; errors for malformed graphs (missing flow data,
/// mismatched replica shapes, chunks that do not tile their flow,
/// decode without a compressor, wedged protocols) — the same
/// conditions the interpreter rejects; and, under chaos, the
/// structured failures of [`crate::ft`].
pub fn run(
    graph: &TaskGraph,
    nodes: usize,
    flows: &ReplicaFlows,
    compressor: Option<&dyn Compressor>,
    seed: u64,
    opts: &RunOptions<'_>,
) -> Result<RunOutcome> {
    let (pcfg, instruments) = (&opts.pipeline, opts.instruments);
    validate(pcfg)?;
    if let Some((ft, fplan)) = &opts.chaos {
        fplan.validate(nodes).map_err(Error::config)?;
        if ft.policy == DegradePolicy::Partial && pcfg.iterations > 1 {
            return Err(Error::config(
                "the Partial straggler policy degrades one iteration: run it with iterations = 1",
            ));
        }
    }
    // Debug builds statically verify the plan before spawning
    // threads: a racy or deadlocking graph aborts here with a
    // diagnostic instead of corrupting replicas or wedging.
    #[cfg(debug_assertions)]
    hipress_lint::plan::verify(graph, nodes).into_result()?;
    let layout = FlowLayout::new(graph, nodes);
    layout.geometry.check(nodes, flows, |reps| &reps[..])?;
    let inputs: Vec<NodeInputs> = (0..nodes).map(|n| node_inputs(flows, n)).collect();
    let ix = DepIndex::of(graph);
    let recs = node_recorders(&instruments, nodes, opts.chaos.is_some());
    let mut report = RuntimeReport {
        nodes,
        per_node_busy_ns: vec![0; nodes],
        iterations: u64::from(pcfg.iterations),
        pipeline_window: u64::from(pcfg.window),
        ..Default::default()
    };
    let (layout, ix) = (&layout, &ix);

    let run_start_ns = instruments.tracer.map(Tracer::now_ns);
    let started = Instant::now();
    let results = match &opts.chaos {
        None => on_threads(recs, |mut link: ChannelLink<Msg>, rec| {
            let mut pool = BufPool::default();
            let inputs = &inputs[link.me()];
            drive_node(
                &mut link, graph, inputs, layout, ix, compressor, seed, pcfg, rec, None, &mut pool,
            )
        }),
        Some(chaos) => on_threads(recs, |inner, rec| {
            let (mut link, mut hooks) = FtLink::new(inner, graph, ix, chaos, opts, rec.clone());
            let hooks = Some(&mut hooks);
            let mut pool = BufPool::default();
            let inputs = &inputs[link.me()];
            let result = drive_node(
                &mut link, graph, inputs, layout, ix, compressor, seed, pcfg, rec, hooks, &mut pool,
            );
            link.finish(result)
        }),
    };
    report.wall_ns = started.elapsed().as_nanos() as u64;
    record_run_span(
        instruments.tracer,
        run_start_ns,
        report.wall_ns,
        nodes,
        report.iterations,
        report.pipeline_window,
        0,
    );
    conclude(layout, results, report, instruments.metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{replicate, sum_replicas};
    use hipress_compress::Algorithm;
    use hipress_core::graph::FlowGeometry;
    use hipress_core::interp::interpret;
    use hipress_core::plan::{CompressionSpec, GradPlan, IterationSpec, SyncGradient};
    use hipress_core::{ClusterConfig, Strategy};
    use hipress_tensor::synth::{generate, GradientShape};
    use hipress_tensor::Tensor;

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

    fn piped(iterations: u32, window: u32) -> RunOptions<'static> {
        RunOptions {
            pipeline: PipelineConfig { iterations, window },
            ..RunOptions::default()
        }
    }

    #[test]
    fn pipelined_matches_single_iteration_bit_for_bit() {
        let nodes = 3;
        let sizes = [512usize, 96];
        let grads = worker_grads(nodes, &sizes);
        let alg = Algorithm::OneBit;
        let c = alg.build().unwrap();
        let cluster = ClusterConfig::ec2(nodes);
        for strat in [Strategy::CaSyncPs, Strategy::CaSyncRing] {
            let graph = strat
                .build(&cluster, &iter_spec(&sizes, Some(alg), 2))
                .unwrap();
            let flows = FlowGeometry::of(&graph).inputs(&grads).unwrap();
            // The reference is the interpreter — an independent
            // implementation, not this loop at another setting.
            let single = interpret(&graph, nodes, &flows, Some(c.as_ref()), 9).unwrap();
            let updates = graph
                .tasks()
                .iter()
                .filter(|t| t.prim == Primitive::Update)
                .count() as u64;
            for (iterations, window) in [(1, 1), (4, 1), (4, 3), (6, 8)] {
                let piped = run(
                    &graph,
                    nodes,
                    &replicate(&flows),
                    Some(c.as_ref()),
                    9,
                    &piped(iterations, window),
                )
                .unwrap();
                assert_eq!(single.len(), piped.flows.len());
                for (a, b) in single.iter().zip(&piped.flows) {
                    assert_eq!(a.flow, b.flow);
                    assert_eq!(
                        a.per_node, b.per_node,
                        "{strat:?} diverged at {iterations}x window {window}"
                    );
                }
                assert_eq!(piped.report.iterations, u64::from(iterations));
                assert_eq!(piped.report.pipeline_window, u64::from(window));
                assert!(piped.report.iter_span_ns_total > 0);
                // Every iteration runs the full graph: primitive
                // counts scale linearly.
                assert_eq!(piped.report.update.count, updates * u64::from(iterations));
                // The channel fabric counts frames (one per delivered
                // message).
                assert_eq!(piped.report.fabric_frames, piped.report.messages);
            }
        }
    }

    #[test]
    fn uncompressed_pipeline_works_too() {
        let nodes = 2;
        let sizes = [128usize];
        let grads = worker_grads(nodes, &sizes);
        let cluster = ClusterConfig::ec2(nodes);
        let graph = Strategy::CaSyncRing
            .build(&cluster, &iter_spec(&sizes, None, 2))
            .unwrap();
        let flows = FlowGeometry::of(&graph).inputs(&grads).unwrap();
        let single = interpret(&graph, nodes, &flows, None, 5).unwrap();
        let piped = run(&graph, nodes, &replicate(&flows), None, 5, &piped(3, 2)).unwrap();
        for (a, b) in single.iter().zip(&piped.flows) {
            assert_eq!(a.per_node, b.per_node);
        }
    }

    /// Local aggregation composes with pipelining: two replicas per
    /// node, summed at every iteration's `Source`, under overlapping
    /// iterations, still equal the interpreter on the pre-summed
    /// input.
    #[test]
    fn replicated_inputs_pipeline_bit_for_bit() {
        let nodes = 3;
        let sizes = [384usize, 40];
        // Flow g, node w, local replica r — all distinct gradients.
        let replicated: ReplicaFlows = (0u32..)
            .zip(sizes)
            .map(|(g, n)| {
                let per_node = (0..nodes as u64)
                    .map(|w| {
                        (0..2)
                            .map(|r| {
                                let seed = w * 100 + u64::from(g) * 10 + r;
                                generate(n, GradientShape::Gaussian { std_dev: 1.0 }, seed)
                            })
                            .collect()
                    })
                    .collect();
                (g, per_node)
            })
            .collect();
        let alg = Algorithm::OneBit;
        let c = alg.build().unwrap();
        let cluster = ClusterConfig::ec2(nodes);
        for strat in [Strategy::CaSyncPs, Strategy::CaSyncRing] {
            let graph = strat
                .build(&cluster, &iter_spec(&sizes, Some(alg), 2))
                .unwrap();
            let summed = sum_replicas(&replicated).unwrap();
            let reference = interpret(&graph, nodes, &summed, Some(c.as_ref()), 13).unwrap();
            let out = run(
                &graph,
                nodes,
                &replicated,
                Some(c.as_ref()),
                13,
                &piped(3, 2),
            )
            .unwrap();
            for (a, b) in reference.iter().zip(&out.flows) {
                assert_eq!(a.flow, b.flow);
                assert_eq!(a.per_node, b.per_node, "{strat:?} diverged");
            }
            assert!(out.report.local_agg_ns > 0);
            assert_eq!(out.report.iterations, 3);
        }
    }

    #[test]
    fn bad_configs_are_rejected() {
        let nodes = 2;
        let sizes = [64usize];
        let grads = worker_grads(nodes, &sizes);
        let cluster = ClusterConfig::ec2(nodes);
        let graph = Strategy::CaSyncPs
            .build(&cluster, &iter_spec(&sizes, None, 1))
            .unwrap();
        let flows = replicate(&FlowGeometry::of(&graph).inputs(&grads).unwrap());
        let chaotic = |iterations, window, policy, plan| RunOptions {
            chaos: Some((
                FaultTolerance {
                    policy,
                    ..FaultTolerance::default()
                },
                plan,
            )),
            ..piped(iterations, window)
        };
        let none = || FaultPlan::none(1);
        for opts in [
            piped(0, 1),
            piped(1, 0),
            // Partial degradation covers one iteration.
            chaotic(2, 1, DegradePolicy::Partial, none()),
            chaotic(3, 2, DegradePolicy::Partial, none()),
            // A plan naming a node the run does not have.
            chaotic(1, 1, DegradePolicy::Wait, FaultPlan::crash(1, 2, 0)),
        ] {
            let err = run(&graph, nodes, &flows, None, 1, &opts).unwrap_err();
            assert!(matches!(err, Error::Config(_)), "{err}");
        }
        // Chaos itself pipelines like any other run.
        for (iterations, window) in [(1, 1), (2, 1), (1, 2), (4, 2)] {
            let out = run(
                &graph,
                nodes,
                &flows,
                None,
                1,
                &chaotic(iterations, window, DegradePolicy::Wait, none()),
            )
            .unwrap();
            assert_eq!(out.report.iterations, u64::from(iterations));
        }
        run(
            &graph,
            nodes,
            &flows,
            None,
            1,
            &chaotic(1, 2, DegradePolicy::Partial, none()),
        )
        .unwrap();
    }

    /// With a telemetry hub attached, every node publishes exactly one
    /// progress record per iteration, records carry real measurements,
    /// and a clean run trips no watchdog alert.
    #[test]
    fn progress_hook_publishes_one_record_per_retired_iteration() {
        let nodes = 2;
        let sizes = [128usize, 32];
        let grads = worker_grads(nodes, &sizes);
        let alg = Algorithm::OneBit;
        let c = alg.build().unwrap();
        let cluster = ClusterConfig::ec2(nodes);
        let graph = Strategy::CaSyncRing
            .build(&cluster, &iter_spec(&sizes, Some(alg), 2))
            .unwrap();
        let flows = FlowGeometry::of(&graph).inputs(&grads).unwrap();
        let hub = hipress_obs::Telemetry::new(hipress_metrics::Registry::new());
        let iterations = 5u32;
        run(
            &graph,
            nodes,
            &replicate(&flows),
            Some(c.as_ref()),
            11,
            &RunOptions {
                instruments: Instruments {
                    tracer: None,
                    metrics: None,
                    progress: Some(&hub),
                },
                ..piped(iterations, 2)
            },
        )
        .unwrap();
        assert_eq!(
            hub.records_published(),
            u64::from(iterations) * nodes as u64
        );
        let (recs, _) = hub.read_events(0);
        for node in 0..nodes as u32 {
            let mut iters: Vec<u32> = recs
                .iter()
                .filter(|r| r.node == node)
                .map(|r| r.iter)
                .collect();
            iters.sort_unstable();
            assert_eq!(iters, (0..iterations).collect::<Vec<_>>());
        }
        for r in &recs {
            assert!(r.span_ns > 0, "span must be measured");
            assert!(r.comp_ns > 0, "compute busy time must be measured");
            assert!(r.messages > 0, "gradient messages flow every iteration");
            assert_eq!(r.window, 2);
        }
        assert_eq!(hub.alert_count(), 0, "clean run must stay alert-free");
    }

    #[test]
    fn traced_pipelined_run_derives_its_report_from_the_trace() {
        let nodes = 2;
        let sizes = [256usize, 64];
        let grads = worker_grads(nodes, &sizes);
        let alg = Algorithm::OneBit;
        let c = alg.build().unwrap();
        let cluster = ClusterConfig::ec2(nodes);
        let graph = Strategy::CaSyncRing
            .build(&cluster, &iter_spec(&sizes, Some(alg), 2))
            .unwrap();
        let flows = FlowGeometry::of(&graph).inputs(&grads).unwrap();
        let tracer = hipress_trace::Tracer::new("casync-rt");
        let piped = run(
            &graph,
            nodes,
            &replicate(&flows),
            Some(c.as_ref()),
            7,
            &RunOptions {
                instruments: Instruments {
                    tracer: Some(&tracer),
                    metrics: None,
                    progress: None,
                },
                ..piped(4, 2)
            },
        )
        .unwrap();
        let trace = tracer.finish();
        trace.validate().unwrap();
        assert_eq!(
            RuntimeReport::from_trace(&trace),
            piped.report,
            "pipelined trace must re-derive the pipelined report exactly"
        );
    }
}
