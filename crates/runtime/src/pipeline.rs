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
//! index; arrivals for not-yet-admitted iterations are stashed and
//! replayed at admission, so a fast peer racing ahead never wedges a
//! slow one.
//!
//! Bit-for-bit: every iteration runs the same graph on the same
//! inputs with the same seed, so each iteration's installed
//! parameters equal the single-iteration result — pipelining
//! reorders work across iterations but never inside one chunk's
//! dependency chain. The returned flows are the final iteration's.

use crate::engine::{
    build_node_metrics, build_node_traces, conclude, node_inputs, record_run_span, BufPool, Cell,
    FlowLayout, Instruments, Msg, NodeCore, NodeInputs, NodeMetrics, NodePlan, NodeResult,
    NodeTrace, Payload, ReplicaFlows, RunOutcome,
};
use crate::ft::{DegradePolicy, FaultTolerance, FtLink};
use crate::report::RuntimeReport;
use hipress_chaos::{FaultPlan, NodeFaults};
use hipress_compress::Compressor;
use hipress_core::exec::BATCH_MAX_TASK_BYTES;
use hipress_core::graph::{TaskGraph, TaskId};
use hipress_core::Primitive;
use hipress_fabric::{ChannelFabric, ChannelLink, Fabric, FabricError, Link, LinkCounters};
use hipress_obs::{IterRecord, ProgressSink};
use hipress_trace::Tracer;
use hipress_util::{Error, Result, SyncFailure, SyncFailureKind};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, OnceLock};
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
/// iterations, which a failed segment still has to report (a returned
/// `Err` loses the driver state) so an evict-on-loss coordinator can
/// pick the drain boundary.
#[derive(Debug, Default)]
pub(crate) struct NodeHooks {
    /// Crash (hard process death, no abort broadcast) once this many
    /// iterations have fully retired. `None` never crashes.
    pub die_at_iter: Option<u32>,
    /// The fault plan's stall / crash triggers for this node.
    pub faults: NodeFaults,
    /// Counts the injected stall, when metrics are on.
    pub stall_metric: Option<hipress_metrics::Counter>,
    /// Fully retired iterations, updated at every retirement.
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

/// Test-only injected slowdown, for exercising the SLO watchdog end to
/// end: `HIPRESS_TELEMETRY_SLOWDOWN_MS` stretches every retired
/// iteration in the second half of a run by this many milliseconds,
/// which the latency-regression detector must flag. Zero (the default,
/// and any unparsable value) is free; the knob is only consulted when a
/// progress sink is attached, so ordinary runs never read it.
fn telemetry_slowdown_ms() -> u64 {
    static KNOB: OnceLock<u64> = OnceLock::new();
    *KNOB.get_or_init(|| {
        std::env::var("HIPRESS_TELEMETRY_SLOWDOWN_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    })
}

/// One admitted iteration's private task-manager state: its own
/// cells, ready queues (`Q_comp` / `Q_commu`), and dependency counts
/// — iterations share nothing but the link.
struct IterState<'a> {
    core: NodeCore<'a>,
    /// Remaining dependency counts for local tasks.
    pending: HashMap<u32, usize>,
    /// Ready computing tasks (encode/decode/merge/update + source).
    q_comp: VecDeque<TaskId>,
    /// Ready communication tasks (send/recv).
    q_commu: VecDeque<TaskId>,
    /// Local tasks completed so far.
    done: usize,
    admitted: Instant,
    /// Trace-clock admission time, for the retired `iter_span` span.
    admitted_ns: Option<u64>,
}

impl<'a> IterState<'a> {
    /// Admits one iteration around `core`: every local dependency
    /// count from the plan, the queues seeded with the
    /// dependency-free tasks (Sources) in deterministic order.
    fn new(core: NodeCore<'a>, plan: &NodePlan) -> Self {
        let pending = plan.pending[core.node].clone();
        let mut ready: Vec<u32> = pending
            .iter()
            .filter(|&(_, &n)| n == 0)
            .map(|(&t, _)| t)
            .collect();
        ready.sort_unstable();
        let mut st = IterState {
            admitted_ns: core.trace.as_ref().map(|tr| tr.tracer.now_ns()),
            core,
            pending,
            q_comp: VecDeque::new(),
            q_commu: VecDeque::new(),
            done: 0,
            admitted: Instant::now(),
        };
        for t in ready {
            st.enqueue(TaskId(t));
        }
        st
    }

    fn enqueue(&mut self, t: TaskId) {
        if matches!(
            self.core.graph.task(t).prim,
            Primitive::Send | Primitive::Recv
        ) {
            self.q_commu.push_back(t);
            // The gauges are shared across admitted iterations (the
            // handles are clones of one counter), so they read as the
            // node's total in-flight depth across the window.
            if let Some(tr) = &self.core.trace {
                tr.q_commu.add(1);
            }
            if let Some(m) = &self.core.metrics {
                m.q_commu_depth.record(self.q_commu.len() as u64);
            }
        } else {
            self.q_comp.push_back(t);
            if let Some(tr) = &self.core.trace {
                tr.q_comp.add(1);
            }
            if let Some(m) = &self.core.metrics {
                m.q_comp_depth.record(self.q_comp.len() as u64);
            }
        }
    }

    /// Clears one dependency edge of local task `t`, promoting it into
    /// its queue when the count reaches zero (Figure 2's promotion).
    fn resolve_dep(&mut self, t: u32) {
        let n = self
            .pending
            .get_mut(&t)
            .expect("resolve_dep on a task this node does not own");
        *n -= 1;
        if *n == 0 {
            self.enqueue(TaskId(t));
        }
    }

    /// A completion message for remote task `task` arrived: accounts
    /// for it, stores the payload a `Send` carried (`None` for a bare
    /// completion edge) and clears the edge of every local task
    /// waiting on it.
    fn deliver(&mut self, plan: &NodePlan, task: TaskId, payload: Option<Arc<Payload>>) {
        self.core
            .note_message(task, payload.as_deref().map(Payload::wire_bytes));
        if let Some(p) = payload {
            self.core.inbound.insert(task.0, p);
        }
        if let Some(deps) = plan.remote_edges_in[self.core.node].get(&task.0) {
            for &d in deps {
                self.resolve_dep(d);
            }
        }
    }

    /// Pops the next ready task, communication first: a completed
    /// send unblocks another node, which is what keeps the pipeline
    /// full.
    fn pop_ready(&mut self) -> Option<TaskId> {
        if let Some(t) = self.q_commu.pop_front() {
            if let Some(tr) = &self.core.trace {
                tr.q_commu.add(-1);
            }
            return Some(t);
        }
        let t = self.q_comp.pop_front()?;
        if let Some(tr) = &self.core.trace {
            tr.q_comp.add(-1);
        }
        Some(t)
    }

    /// Marks local task `id` complete and clears its same-node
    /// dependents' edges; the caller ships the remote completions.
    fn complete(&mut self, plan: &NodePlan, id: TaskId) {
        self.done += 1;
        if let Some(deps) = plan.local_dependents.get(&id.0) {
            for &d in deps {
                self.resolve_dep(d);
            }
        }
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
    plan: &'a NodePlan,
    compressor: Option<&'a dyn Compressor>,
    seed: u64,
    pcfg: PipelineConfig,
    /// Admitted, incomplete iterations in ascending order.
    iters: BTreeMap<u32, IterState<'a>>,
    /// Arrivals for iterations not yet admitted, replayed at
    /// admission.
    stash: HashMap<u32, Vec<(TaskId, Option<Arc<Payload>>)>>,
    next_admit: u32,
    completed: u32,
    report: RuntimeReport,
    final_cells: Option<HashMap<(u32, u32), Cell>>,
    /// Shared tracing handles cloned into every admitted iteration's
    /// core; `None` keeps the hot path recording-free.
    trace: Option<NodeTrace>,
    /// Shared metric handles, likewise cloned per iteration.
    metrics: Option<NodeMetrics>,
    /// Live-telemetry progress sink; one [`IterRecord`] is published
    /// per *retired iteration* (never per task), so `None` keeps the
    /// hot path publication-free.
    progress: Option<&'a dyn ProgressSink>,
    /// Fabric counters at the previous retirement, so each published
    /// record carries this iteration's retransmission delta rather
    /// than a running total.
    last_counters: LinkCounters,
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
        loop {
            let lowest_incomplete = self.iters.keys().next().copied().unwrap_or(self.next_admit);
            if self.next_admit >= self.pcfg.iterations
                || self.next_admit >= lowest_incomplete + self.pcfg.window
            {
                return;
            }
            let iter = self.next_admit;
            self.next_admit += 1;
            let mut core = NodeCore::new(
                self.link.me(),
                self.graph,
                self.inputs,
                self.layout,
                self.plan,
                self.compressor,
                self.seed,
                self.trace.clone(),
                self.metrics.clone(),
            );
            core.iter = iter;
            let mut st = IterState::new(core, self.plan);
            if let Some(msgs) = self.stash.remove(&iter) {
                for (task, payload) in msgs {
                    st.deliver(self.plan, task, payload);
                }
            }
            self.iters.insert(iter, st);
        }
    }

    fn broadcast_abort(&mut self) {
        for n in 0..self.link.nodes() {
            if n != self.link.me() {
                // A vanished peer already failed; nothing to tell it.
                let _ = self.link.send(n, Msg::Abort);
            }
        }
    }

    fn handle(&mut self, msg: Msg) -> Result<()> {
        match msg {
            Msg::Abort => Err(Error::sync(SyncFailure {
                kind: SyncFailureKind::Aborted,
                node: self.me(),
                peer: None,
                task: None,
                detail: String::new(),
            })),
            Msg::Done {
                task,
                payload,
                iter,
            } => {
                if let Some(st) = self.iters.get_mut(&iter) {
                    st.deliver(self.plan, task, payload);
                } else if iter >= self.next_admit {
                    self.stash.entry(iter).or_default().push((task, payload));
                }
                // A message for a completed iteration cannot occur on
                // a deduplicating fabric (completion requires every
                // remote edge consumed); tolerate and drop it anyway.
                Ok(())
            }
        }
    }

    /// Pops the next ready task, oldest iteration first and
    /// communication before computing within it.
    fn next_ready(&mut self) -> Option<(u32, TaskId)> {
        self.iters
            .iter_mut()
            .find_map(|(&iter, st)| st.pop_ready().map(|t| (iter, t)))
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
            self.iters
                .get_mut(&iter)
                .expect("initiating iteration")
                .core
                .report
                .comp_batch_launches += 1;
            if let Some(m) = &self.metrics {
                m.batch_launches.inc();
            }
            if let Some(tr) = &self.trace {
                // The gathered encodes (all but the initiating one,
                // which next_ready already counted) left their queues
                // without individual pops; the shared gauge absorbs
                // them in one step.
                tr.q_comp.add(-(batch.len() as i64 - 1));
                tr.tracer.instant(
                    tr.track,
                    "batch",
                    "batch",
                    tr.tracer.now_ns(),
                    &[("size", batch.len() as u64)],
                );
            }
            for (k, t) in batch {
                let outbound = self
                    .iters
                    .get_mut(&k)
                    .expect("batched iteration")
                    .core
                    .execute_one(t, self.pool)?;
                self.finish(k, t, outbound);
            }
            return Ok(());
        }
        let outbound = self
            .iters
            .get_mut(&iter)
            .expect("scheduled iteration")
            .core
            .execute_one(id, self.pool)?;
        self.finish(iter, id, outbound);
        Ok(())
    }

    /// Fires this node's scripted faults before its next task: a crash
    /// (no abort broadcast — peers discover the loss the way they would
    /// a real one), or the one-off stall peers must notice by silence.
    fn gate(&mut self) -> Result<()> {
        let (me, completed, executed) = (self.me(), self.completed, self.executed);
        let Some(h) = self.hooks.as_deref_mut() else {
            return Ok(());
        };
        let crash = match (h.die_at_iter, h.faults.crash) {
            (Some(d), _) if completed >= d => Some(format!(
                "elastic crash injection after {completed} retired iterations"
            )),
            (_, Some(c)) if executed >= c.at_task => {
                Some(format!("injected crash before local task {}", c.at_task))
            }
            _ => None,
        };
        if let Some(detail) = crash {
            return Err(Error::sync(SyncFailure {
                kind: SyncFailureKind::InjectedCrash,
                node: me,
                peer: None,
                task: None,
                detail,
            }));
        }
        if let Some(stall) = h.faults.stall.take_if(|s| executed >= s.at_task) {
            self.report.faults.injected_stalls += 1;
            if let Some(m) = &h.stall_metric {
                m.inc();
            }
            if let Some(tr) = &self.trace {
                tr.tracer
                    .instant(tr.track, "stall", "chaos", tr.tracer.now_ns(), &[]);
            }
            std::thread::sleep(std::time::Duration::from_nanos(stall.dur_ns));
        }
        Ok(())
    }

    /// Marks `id` of iteration `iter` complete: resolves local
    /// dependents, ships completion events to remote nodes, and — when
    /// the iteration's last local task lands — retires the iteration
    /// and admits the next.
    fn finish(&mut self, iter: u32, id: TaskId, payload: Option<Arc<Payload>>) {
        let plan = self.plan;
        self.executed += 1;
        let st = self.iters.get_mut(&iter).expect("finishing iteration");
        st.complete(plan, id);
        let done = st.done;
        if let Some(nodes) = plan.remote_notify.get(&id.0) {
            for &n in nodes {
                // A lost peer surfaces on the receive path with its
                // rank; completion only needs the sends attempted.
                let _ = self.link.send(
                    n,
                    Msg::Done {
                        task: id,
                        payload: payload.clone(),
                        iter,
                    },
                );
            }
        }
        if done == plan.local_counts[self.link.me()] {
            let mut st = self.iters.remove(&iter).expect("retiring iteration");
            if self.progress.is_some() {
                let ms = telemetry_slowdown_ms();
                if ms > 0 && iter >= self.pcfg.iterations / 2 {
                    // Injected before the span is measured, so the
                    // stretch lands inside `span_ns` and the watchdog
                    // sees it as a genuine iteration slowdown.
                    std::thread::sleep(std::time::Duration::from_millis(ms));
                }
            }
            let span_ns = st.admitted.elapsed().as_nanos() as u64;
            self.report.iter_span_ns_total += span_ns;
            if let Some(tr) = &self.trace {
                // The single measured span feeds both the report and
                // the trace, so trace-derived reports stay exact.
                tr.tracer.record_span(
                    tr.track,
                    "iter_span",
                    "iter_span",
                    st.admitted_ns.unwrap_or(0),
                    span_ns,
                    &[("iter", u64::from(iter))],
                );
            }
            if let Some(sink) = self.progress {
                // The per-iteration delta is exactly the retiring
                // iteration's private report, read before it is folded
                // into the node aggregate below.
                let r = &st.core.report;
                let c = self.link.counters();
                sink.publish(IterRecord {
                    node: self.link.me() as u32,
                    iter,
                    ts_ns: 0, // stamped by the hub on publication
                    span_ns,
                    comp_ns: r.source.busy_ns
                        + r.encode.busy_ns
                        + r.decode.busy_ns
                        + r.merge.busy_ns
                        + r.update.busy_ns
                        + r.barrier.busy_ns
                        + r.local_agg_ns,
                    commu_ns: r.send.busy_ns + r.recv.busy_ns,
                    bytes_wire: r.bytes_wire,
                    messages: r.messages,
                    retransmits: c.retransmits - self.last_counters.retransmits,
                    faults: r.faults.retries
                        + r.faults.nacks
                        + r.faults.duplicates_ignored
                        + r.faults.corruptions_detected
                        + r.faults.degraded_chunks,
                    window: self.pcfg.window,
                    epoch: 0, // stamped by the elastic sink, if any
                });
                self.last_counters = c;
            }
            self.report.absorb(&std::mem::take(&mut st.core.report));
            if iter + 1 == self.pcfg.iterations {
                self.final_cells = Some(std::mem::take(&mut st.core.cells));
            }
            st.core.recycle(self.pool);
            self.completed += 1;
            if let Some(h) = self.hooks.as_deref_mut() {
                h.retired = self.completed;
            }
            self.admit_ready();
        }
    }

    fn run(&mut self) -> NodeResult {
        self.admit_ready();
        while self.completed < self.pcfg.iterations {
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
            } else if self.completed < self.pcfg.iterations {
                match self
                    .link
                    .recv_timeout(INBOX_TIMEOUT)
                    .map_err(|e| fabric_err(self.me(), e))?
                {
                    Some(msg) => self.handle(msg)?,
                    None => {
                        self.broadcast_abort();
                        let (lowest, done) = self
                            .iters
                            .iter()
                            .next()
                            .map(|(&k, s)| (k, s.done))
                            .unwrap_or((self.next_admit, 0));
                        return Err(Error::sim(format!(
                            "node {} wedged: iteration {lowest} at {done} of {} tasks done, \
                             inbox silent",
                            self.me(),
                            self.plan.local_counts[self.me()]
                        )));
                    }
                }
            }
        }
        let c = self.link.counters();
        self.report.fabric_frames += c.frames;
        self.report.fabric_bytes_framed += c.bytes_framed;
        self.report.fabric_bytes_payload += c.bytes_payload;
        self.report.fabric_retransmits += c.retransmits;
        if let Some(tr) = &self.trace {
            // One `link` instant per node carrying the folded
            // counters; trace-derived reports sum them back.
            tr.tracer.instant(
                tr.track,
                "link",
                "link",
                tr.tracer.now_ns(),
                &[
                    ("frames", c.frames),
                    ("bytes_framed", c.bytes_framed),
                    ("bytes_payload", c.bytes_payload),
                    ("retransmits", c.retransmits),
                ],
            );
        }
        if let Some(m) = &self.metrics {
            m.fabric_frames.add(c.frames);
            m.fabric_bytes_framed.add(c.bytes_framed);
            m.fabric_bytes_payload.add(c.bytes_payload);
            m.fabric_retransmits.add(c.retransmits);
        }
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
    plan: &'a NodePlan,
    compressor: Option<&'a dyn Compressor>,
    seed: u64,
    pcfg: &PipelineConfig,
    trace: Option<NodeTrace>,
    metrics: Option<NodeMetrics>,
    progress: Option<&'a dyn ProgressSink>,
    hooks: Option<&'a mut NodeHooks>,
    pool: &'a mut BufPool,
) -> NodeResult {
    // Split once, before the first iteration, so the one copy is not
    // timed as a `Source`: every `Source` is a refcount bump on it.
    layout.split_inputs(inputs, link.me());
    let mut worker = PipeWorker {
        link,
        graph,
        inputs,
        layout,
        plan,
        compressor,
        seed,
        pcfg: *pcfg,
        iters: BTreeMap::new(),
        stash: HashMap::new(),
        next_admit: 0,
        completed: 0,
        report: RuntimeReport::default(),
        final_cells: None,
        trace,
        metrics,
        progress,
        last_counters: LinkCounters::default(),
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
/// endpoint on a fresh channel fabric of `M` and its instruments.
/// Results come back in node order; a panicked node becomes an error
/// naming it.
pub(crate) fn on_threads<M: Send>(
    traces: Vec<Option<NodeTrace>>,
    metrics: Vec<Option<NodeMetrics>>,
    body: impl Fn(ChannelLink<M>, Option<NodeTrace>, Option<NodeMetrics>) -> NodeResult + Sync,
) -> Vec<NodeResult> {
    let mut fabric = ChannelFabric::new(traces.len());
    let body = &body;
    std::thread::scope(|scope| {
        let handles: Vec<_> = traces
            .into_iter()
            .zip(metrics)
            .enumerate()
            .map(|(node, (trace, metrics))| {
                let link = fabric.link(node).expect("fresh fabric link");
                scope.spawn(move || body(link, trace, metrics))
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
    let plan = NodePlan::derive(graph, nodes);
    let node_traces = build_node_traces(instruments.tracer, nodes);
    let node_metrics = build_node_metrics(instruments.metrics, nodes);
    let mut report = RuntimeReport {
        nodes,
        per_node_busy_ns: vec![0; nodes],
        iterations: u64::from(pcfg.iterations),
        pipeline_window: u64::from(pcfg.window),
        ..Default::default()
    };
    let progress = instruments.progress.map(|t| t as &dyn ProgressSink);
    let (layout, plan) = (&layout, &plan);

    let run_start_ns = instruments.tracer.map(Tracer::now_ns);
    let started = Instant::now();
    let results = match &opts.chaos {
        None => on_threads(
            node_traces,
            node_metrics,
            |mut link: ChannelLink<Msg>, tr, m| {
                let mut pool = BufPool::default();
                let inputs = &inputs[link.me()];
                drive_node(
                    &mut link, graph, inputs, layout, plan, compressor, seed, pcfg, tr, m,
                    progress, None, &mut pool,
                )
            },
        ),
        Some(chaos) => on_threads(node_traces, node_metrics, |inner, tr, m| {
            let (mut link, mut hooks) = FtLink::new(inner, graph, plan, chaos, opts, tr.clone());
            let hooks = Some(&mut hooks);
            let mut pool = BufPool::default();
            let inputs = &inputs[link.me()];
            let result = drive_node(
                &mut link, graph, inputs, layout, plan, compressor, seed, pcfg, tr, m, progress,
                hooks, &mut pool,
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
