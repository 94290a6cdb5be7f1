//! The fault-tolerant CaSync-RT execution path.
//!
//! [`crate::run`] with [`crate::RunOptions::chaos`] set executes the
//! same task graphs as the trusted-fabric loop, on the same per-node
//! dataflow core and task manager, but speaks the envelope protocol
//! of [`crate::protocol`] over a fabric wrapped in a
//! [`hipress_chaos::FaultPlan`]: every inter-node message is
//! sequence-numbered and checksummed, receivers verify / dedup / ack,
//! senders retransmit with exponential backoff under a bounded retry
//! budget, and a per-peer EWMA straggler detector drives a
//! configurable degradation policy.
//!
//! The contract, checked by the chaos property harness:
//!
//! * Under any *recoverable* plan (fault cap below the retry budget,
//!   no crashes) the run completes with **bit-for-bit** the fault-free
//!   result — retransmission and dedup are invisible to the dataflow.
//! * Corrupted payloads are always detected (checksums), nacked, and
//!   replaced by clean retransmissions; a corrupt bit can never reach
//!   a gradient.
//! * Under *unrecoverable* plans (crashes, black holes) every node
//!   unwinds within its deadline with a structured
//!   [`SyncFailure`] naming the diagnosing node, the peer, and the
//!   task — no deadlocks, no panics, no hangs.
//!
//! Stalls are survivable three ways ([`DegradePolicy`]): wait them
//! out (bit-exact, slow), skip the straggler's outstanding
//! contributions and rescale the aggregates (bounded-staleness
//! partial aggregation — fast, approximate), or abort with a
//! structured straggler error.

use crate::engine::{
    FlowLayout, NodeCore, NodeMetrics, NodePlan, NodeResult, NodeTrace, Payload, ReplicaFlows,
    RuntimeConfig,
};
use crate::pipeline::{join_nodes, IterState};
use crate::protocol::{self, Body, Envelope, LinkDead, LinkTuning, RelRx, RelTx, RxVerdict};
use crate::report::{DegradeAction, StragglerVerdict};
use hipress_chaos::{ChaosLink, FaultPlan, SendEffects};
use hipress_compress::Compressor;
use hipress_core::graph::{Primitive, TaskGraph, TaskId};
use hipress_metrics::names;
use hipress_util::{Error, Result, SyncFailure, SyncFailureKind};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

// The worker's wait floor/ceiling and heartbeat period live on
// `RuntimeConfig` (`ft_min_wait` / `ft_max_wait` / `ft_heartbeat`) so
// callers — and the socket fabric, which shares the same discipline —
// tune one set of knobs. Heartbeats are what let the straggler
// detector tell *stuck* from *slow*: a busy or blocked node keeps
// pinging on every timer pass, while an injected stall (or a crash)
// silences the node entirely. They also pin each peer's inter-arrival
// EWMA near the heartbeat period, so straggler thresholds converge to
// `straggler_factor × ft_heartbeat` regardless of how chatty the
// algorithm itself is. Tasks that block the executor longer than that
// product can be misflagged — raise `straggler_floor` when driving
// very coarse workloads.

/// What to do about a diagnosed straggler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradePolicy {
    /// Keep waiting: the verdict is recorded but nothing is skipped.
    /// Bit-exact, bounded only by the hard receive deadline.
    #[default]
    Wait,
    /// Skip the straggler's outstanding contributions and rescale the
    /// affected aggregates by `expected / received` (bounded-staleness
    /// partial aggregation). The run completes degraded: exact for the
    /// contributions that did arrive, approximate for the holes.
    Partial,
    /// Abort the run with a structured [`SyncFailure`] naming the
    /// straggler.
    Abort,
}

/// Tuning for the fault-tolerant protocol.
#[derive(Debug, Clone, Copy)]
pub struct FaultTolerance {
    /// Hard bound on progress silence: a node idle this long with
    /// unmet remote dependencies (or an incomplete cluster) unwinds
    /// with a [`SyncFailureKind::RecvTimeout`].
    pub recv_deadline: Duration,
    /// Retransmissions allowed per envelope before the link is
    /// declared dead.
    pub retry_budget: u32,
    /// First retransmission timeout; doubles per attempt.
    pub base_backoff: Duration,
    /// Ceiling on the backed-off retransmission timeout.
    pub max_backoff: Duration,
    /// A peer is a straggler once the time since it was last heard
    /// exceeds `straggler_factor ×` its EWMA inter-arrival gap.
    pub straggler_factor: f64,
    /// Detection floor: peers are never flagged faster than this, no
    /// matter how chatty they were.
    pub straggler_floor: Duration,
    /// What to do once a straggler is diagnosed.
    pub policy: DegradePolicy,
}

impl Default for FaultTolerance {
    fn default() -> Self {
        Self {
            recv_deadline: Duration::from_secs(10),
            retry_budget: 8,
            // Generous first RTO: a receiver busy decoding a large
            // chunk acks late, and a retransmission it did not need
            // is pure overhead.
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(1),
            straggler_factor: 8.0,
            straggler_floor: Duration::from_millis(100),
            policy: DegradePolicy::Wait,
        }
    }
}

/// Per-node metric handles for fault accounting, pre-resolved like
/// the engine's [`crate::engine::Instruments`] handles so the hot
/// path is pure atomic recording.
struct FtMetrics {
    injected: [hipress_metrics::Counter; 6],
    retries: hipress_metrics::Counter,
    nacks: hipress_metrics::Counter,
    dups_ignored: hipress_metrics::Counter,
    corrupt_detected: hipress_metrics::Counter,
    degraded: hipress_metrics::Counter,
    verdicts: [hipress_metrics::Counter; 3],
}

/// Injection kinds in [`FtMetrics::injected`] order (and the trace
/// instant names of the `chaos` category).
const INJECT_KINDS: [&str; 6] = ["drop", "dup", "reorder", "delay", "corrupt", "stall"];
/// Verdict actions in [`FtMetrics::verdicts`] order.
const VERDICT_ACTIONS: [&str; 3] = ["waited", "skipped", "aborted"];

impl FtMetrics {
    fn new(scope: &hipress_metrics::Scope, node: usize) -> Self {
        let s = scope.with(&[("node", &node.to_string())]);
        Self {
            injected: std::array::from_fn(|i| {
                s.counter(names::CHAOS_INJECTED, &[("kind", INJECT_KINDS[i])])
            }),
            retries: s.counter(names::FT_RETRIES, &[]),
            nacks: s.counter(names::FT_NACKS, &[]),
            dups_ignored: s.counter(names::FT_DUPLICATES_IGNORED, &[]),
            corrupt_detected: s.counter(names::FT_CORRUPTIONS_DETECTED, &[]),
            degraded: s.counter(names::FT_DEGRADED_CHUNKS, &[]),
            verdicts: std::array::from_fn(|i| {
                s.counter(
                    names::FT_STRAGGLER_VERDICTS,
                    &[("action", VERDICT_ACTIONS[i])],
                )
            }),
        }
    }
}

/// One directed peer connection: sender-side reliability state,
/// receiver-side integrity state, and the fault-injecting sender.
struct PeerLink {
    tx: RelTx<Envelope>,
    rx: RelRx,
    chaos: ChaosLink<Envelope>,
}

/// Runs every node of `graph` as a fault-tolerant worker thread under
/// `fplan` and returns the per-node results — the untrusted-fabric
/// half of [`crate::run`]. With `FaultPlan::none` this is the
/// fault-free envelope path: same results as the trusted loop, plus
/// checksum/ack overhead (measured by the `chaos_overhead` bench).
///
/// Batch compression is a trusted-loop optimization; the
/// fault-tolerant worker executes tasks singly (the config's other
/// knobs apply).
///
/// A node's `Err` is a structured [`Error::Sync`] failure when the
/// plan is unrecoverable: dead links, receive deadlines, straggler
/// aborts, injected crashes, and the abort echoes those cause.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_nodes(
    graph: &TaskGraph,
    flows: &ReplicaFlows,
    layout: &FlowLayout,
    nplan: &NodePlan,
    compressor: Option<&dyn Compressor>,
    seed: u64,
    config: &RuntimeConfig,
    ft: &FaultTolerance,
    fplan: &FaultPlan,
    node_traces: Vec<Option<NodeTrace>>,
    node_metrics: Vec<Option<NodeMetrics>>,
    scope_metrics: Option<&hipress_metrics::Scope>,
) -> Vec<NodeResult> {
    let nodes = node_traces.len();
    let poison = AtomicBool::new(false);
    let done_nodes = AtomicUsize::new(0);
    let (txs, rxs): (Vec<Sender<Envelope>>, Vec<Receiver<Envelope>>) =
        (0..nodes).map(|_| mpsc::channel()).unzip();
    let tuning = LinkTuning {
        retry_budget: ft.retry_budget,
        base_backoff: ft.base_backoff,
        max_backoff: ft.max_backoff,
        heartbeat: config.ft_heartbeat,
    };

    std::thread::scope(|scope| {
        let handles = rxs
            .into_iter()
            .zip(node_traces.into_iter().zip(node_metrics))
            .enumerate()
            .map(|(node, (rx, (trace, metrics)))| {
                let txs = txs.clone();
                let (poison, done_nodes) = (&poison, &done_nodes);
                let fmetrics = scope_metrics.map(|s| FtMetrics::new(s, node));
                scope.spawn(move || {
                    let now = Instant::now();
                    let links = txs
                        .iter()
                        .enumerate()
                        .map(|(peer, tx)| PeerLink {
                            tx: RelTx::for_items(node as u32, tuning, now),
                            rx: RelRx::new(),
                            chaos: ChaosLink::new(node, peer, tx.clone()),
                        })
                        .collect();
                    let core =
                        NodeCore::new(node, graph, flows, layout, compressor, seed, trace, metrics);
                    let mut worker = FtWorker {
                        st: IterState::new(core, nplan),
                        plan: nplan,
                        fplan,
                        ft: *ft,
                        config: *config,
                        nodes,
                        rx,
                        links,
                        direct: txs,
                        poison,
                        done_nodes,
                        resolved_remote: HashSet::new(),
                        executed: 0,
                        stall_done: false,
                        last_progress: now,
                        last_heard: vec![now; nodes],
                        ewma_gap_ns: vec![ft.straggler_floor.as_nanos() as f64; nodes],
                        flagged: vec![false; nodes],
                        skipped_peers: HashSet::new(),
                        last_beat: now,
                        fmetrics,
                    };
                    worker.run()
                })
            })
            .collect();
        join_nodes(handles)
    })
}

/// One node's fault-tolerant task manager: the engine's dataflow core
/// behind the envelope protocol.
struct FtWorker<'a> {
    /// The one iteration's dataflow core and task-manager state (the
    /// same promotion discipline as the trusted loop).
    st: IterState<'a>,
    plan: &'a NodePlan,
    fplan: &'a FaultPlan,
    ft: FaultTolerance,
    config: RuntimeConfig,
    nodes: usize,
    rx: Receiver<Envelope>,
    links: Vec<PeerLink>,
    /// Raw senders, bypassing fault injection — aborts are
    /// control-plane and always get through.
    direct: Vec<Sender<Envelope>>,
    poison: &'a AtomicBool,
    /// Nodes that finished all local tasks with idle links; everyone
    /// lingers (servicing acks) until this reaches the node count.
    done_nodes: &'a AtomicUsize,
    /// Remote tasks whose completion has been consumed — by a genuine
    /// delivery or a degradation skip. Late deliveries after a skip
    /// are acked and ignored, never double-resolved.
    resolved_remote: HashSet<u32>,
    /// Local executions so far (the coordinate stall/crash triggers
    /// fire on).
    executed: usize,
    stall_done: bool,
    last_progress: Instant,
    last_heard: Vec<Instant>,
    ewma_gap_ns: Vec<f64>,
    /// Peers already carrying a straggler verdict (one per peer).
    flagged: Vec<bool>,
    skipped_peers: HashSet<usize>,
    /// When this node last broadcast a liveness [`Body::Ping`].
    last_beat: Instant,
    fmetrics: Option<FtMetrics>,
}

impl FtWorker<'_> {
    fn node(&self) -> usize {
        self.st.core.node
    }

    fn run(&mut self) -> NodeResult {
        match self.run_inner() {
            Ok(v) => Ok(v),
            Err(e) => {
                // Crashes are silent (peers must diagnose the
                // silence); abort echoes were already broadcast by
                // their origin. Everything else poisons the cluster.
                let silent = matches!(
                    e.as_sync().map(|s| s.kind),
                    Some(SyncFailureKind::InjectedCrash) | Some(SyncFailureKind::Aborted)
                );
                if !silent {
                    self.broadcast_abort();
                }
                Err(e)
            }
        }
    }

    fn run_inner(&mut self) -> NodeResult {
        let total = self.plan.local_counts[self.node()];
        let mut counted_done = false;
        loop {
            if self.poison.load(Ordering::Relaxed) {
                return Err(self.aborted(None));
            }
            loop {
                match self.rx.try_recv() {
                    Ok(env) => self.handle(env)?,
                    Err(_) => break,
                }
            }
            self.tick()?;
            if self.st.done < total {
                if let Some(t) = self.st.pop_ready() {
                    self.node_fault_gate()?;
                    let outbound = self.st.core.execute_one(t)?;
                    self.finish(t, outbound);
                    self.executed += 1;
                    self.last_progress = Instant::now();
                    continue;
                }
                self.idle_checks()?;
                match self.rx.recv_timeout(self.wait_budget()) {
                    Ok(env) => self.handle(env)?,
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => {
                        return Err(self.recv_timeout(None, "fabric disconnected"));
                    }
                }
            } else {
                // Lingering: all local tasks done, but peers may still
                // need acks (or retransmissions) from us. Stay live
                // until every node reports done.
                if !counted_done && self.links_idle() {
                    counted_done = true;
                    self.last_progress = Instant::now();
                    // Last node out wakes everyone: lingering peers
                    // otherwise only notice the counter on their next
                    // poll, stretching every run's tail by a poll
                    // period per node.
                    if self.done_nodes.fetch_add(1, Ordering::SeqCst) + 1 >= self.nodes {
                        for (n, tx) in self.direct.iter().enumerate() {
                            if n != self.node() {
                                let _ = tx.send(Envelope::control(self.node(), Body::Done));
                            }
                        }
                    }
                }
                if counted_done && self.done_nodes.load(Ordering::SeqCst) >= self.nodes {
                    break;
                }
                if self.last_progress.elapsed() > self.ft.recv_deadline {
                    return Err(self.recv_timeout(None, "cluster incomplete after deadline"));
                }
                match self.rx.recv_timeout(self.wait_budget()) {
                    Ok(env) => self.handle(env)?,
                    Err(RecvTimeoutError::Timeout) => {}
                    // Every peer has exited; nothing more can arrive
                    // and nobody needs us.
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
        }
        Ok((
            std::mem::take(&mut self.st.core.cells),
            std::mem::take(&mut self.st.core.report),
        ))
    }

    // ------------------------------------------------------------------
    // Fabric: envelopes in.

    fn handle(&mut self, env: Envelope) -> Result<()> {
        let from = env.src;
        if from != self.node() && from < self.nodes {
            self.heard(from);
        }
        match env.body {
            Body::Abort => Err(self.aborted(Some(from))),
            Body::Ack { seq } => {
                if env.verify() && self.links[from].tx.on_ack(seq) {
                    self.last_progress = Instant::now();
                }
                Ok(())
            }
            Body::Nack { seq } => {
                if !env.verify() {
                    return Ok(());
                }
                match self.links[from].tx.on_nack(seq, Instant::now()) {
                    Ok(Some(resend)) => {
                        self.note_retry();
                        let fx = self.links[from].chaos.send(
                            self.fplan,
                            resend.seq,
                            resend.attempt,
                            resend,
                        );
                        self.note_effects(fx);
                        Ok(())
                    }
                    Ok(None) => Ok(()),
                    Err(dead) => Err(self.dead_link(from, dead)),
                }
            }
            Body::Data { .. } => {
                self.handle_data(env);
                Ok(())
            }
            // Pure wake-up: the loop re-checks the done counter next
            // iteration and exits.
            Body::Done => Ok(()),
            // Liveness only: `heard` above already refreshed the
            // peer's silence clock, which is the ping's entire job.
            // Deliberately not progress — a cluster exchanging only
            // heartbeats must still hit the receive deadline.
            Body::Ping => Ok(()),
        }
    }

    fn handle_data(&mut self, env: Envelope) {
        let from = env.src;
        match self.links[from].rx.accept(&env) {
            RxVerdict::Corrupt => {
                self.st.core.report.faults.corruptions_detected += 1;
                if let Some(m) = &self.fmetrics {
                    m.corrupt_detected.inc();
                }
                self.ft_instant("corrupt_detected");
                self.note_nack();
                self.send_control(from, Body::Nack { seq: env.seq }, env.seq, env.attempt);
            }
            RxVerdict::Duplicate => {
                self.note_dup_ignored();
                // Re-ack: the original ack may have been eaten.
                self.send_control(from, Body::Ack { seq: env.seq }, env.seq, env.attempt);
            }
            RxVerdict::Deliver => {
                self.send_control(from, Body::Ack { seq: env.seq }, env.seq, env.attempt);
                let Body::Data { task, payload } = env.body else {
                    unreachable!("handle_data is only called on Data envelopes");
                };
                if self.resolved_remote.contains(&task.0) {
                    // A late real delivery after a degradation skip:
                    // acked (the sender may retire it) but ignored.
                    self.note_dup_ignored();
                    return;
                }
                self.resolved_remote.insert(task.0);
                self.st.deliver(self.plan, task, payload);
                self.last_progress = Instant::now();
            }
        }
    }

    /// Updates the liveness estimate for `peer` on any arrival.
    fn heard(&mut self, peer: usize) {
        let now = Instant::now();
        let gap = now.duration_since(self.last_heard[peer]).as_nanos() as f64;
        self.ewma_gap_ns[peer] = protocol::ewma_update(self.ewma_gap_ns[peer], gap);
        self.last_heard[peer] = now;
    }

    // ------------------------------------------------------------------
    // Fabric: envelopes out.

    /// Sends an ack/nack for a data envelope through the chaos fabric.
    /// The reply borrows the data's `(seq, attempt)` as its fault
    /// coordinates, so the plan's fault cap bounds loss on the reverse
    /// path exactly as on the forward path (the reversed link indices
    /// decorrelate the draws).
    fn send_control(&mut self, to: usize, body: Body, seq: u64, attempt: u32) {
        let mut env = Envelope::control(self.node(), body);
        env.attempt = attempt; // outside the checksum
        let fx = self.links[to].chaos.send(self.fplan, seq, attempt, env);
        self.note_effects(fx);
    }

    fn broadcast_abort(&mut self) {
        self.poison.store(true, Ordering::Relaxed);
        for (n, tx) in self.direct.iter().enumerate() {
            if n != self.node() {
                let _ = tx.send(Envelope::control(self.node(), Body::Abort));
            }
        }
    }

    // ------------------------------------------------------------------
    // Timers.

    /// Drives everything clock-based: broadcasts liveness heartbeats,
    /// releases chaos-held messages, and retransmits envelopes whose
    /// timers expired.
    fn tick(&mut self) -> Result<()> {
        let now = Instant::now();
        if protocol::heartbeat_due(now.duration_since(self.last_beat), self.config.ft_heartbeat) {
            self.last_beat = now;
            for (n, tx) in self.direct.iter().enumerate() {
                if n != self.node() {
                    let _ = tx.send(Envelope::control(self.node(), Body::Ping));
                }
            }
        }
        for peer in 0..self.nodes {
            if peer == self.node() {
                continue;
            }
            self.links[peer].chaos.flush_due(now);
            let resends = match self.links[peer].tx.due(now) {
                Ok(r) => r,
                Err(dead) => return Err(self.dead_link(peer, dead)),
            };
            for env in resends {
                self.note_retry();
                let fx = self.links[peer]
                    .chaos
                    .send(self.fplan, env.seq, env.attempt, env);
                self.note_effects(fx);
            }
        }
        Ok(())
    }

    /// Straggler detection and the hard receive deadline; called only
    /// when the node has nothing ready to execute.
    fn idle_checks(&mut self) -> Result<()> {
        let now = Instant::now();
        // Collect every overdue peer, stalest first: a peer that went
        // silent because it is itself blocked on the real straggler
        // went silent *later*, so blaming the longest silence finds
        // the origin of a stall cascade, not its first victim.
        let floor = self.ft.straggler_floor.as_nanos() as u64;
        let mut overdue: Vec<(u64, u64, usize)> = self
            .waiting_on()
            .into_iter()
            .filter(|&p| !self.skipped_peers.contains(&p) && !self.flagged[p])
            .map(|p| {
                let idle_ns = now.duration_since(self.last_heard[p]).as_nanos() as u64;
                let threshold = protocol::straggler_threshold_ns(
                    floor,
                    self.ft.straggler_factor,
                    self.ewma_gap_ns[p],
                );
                (idle_ns, threshold, p)
            })
            .filter(|&(idle_ns, threshold, _)| idle_ns > threshold)
            .collect();
        overdue.sort_unstable_by(|a, b| b.0.cmp(&a.0));
        for (idle_ns, threshold, peer) in overdue {
            match self.ft.policy {
                DegradePolicy::Wait => {
                    self.record_verdict(peer, idle_ns, DegradeAction::Waited);
                }
                DegradePolicy::Partial => {
                    self.record_verdict(peer, idle_ns, DegradeAction::Skipped);
                    self.skip_peer(peer);
                }
                DegradePolicy::Abort => {
                    self.record_verdict(peer, idle_ns, DegradeAction::Aborted);
                    return Err(Error::sync(SyncFailure {
                        kind: SyncFailureKind::Straggler,
                        node: self.node(),
                        peer: Some(peer),
                        task: None,
                        detail: format!(
                            "silent for {idle_ns}ns (threshold {threshold}ns), policy is abort"
                        ),
                    }));
                }
            }
        }
        if self.last_progress.elapsed() > self.ft.recv_deadline {
            let peer = self.waiting_on().first().copied();
            return Err(self.recv_timeout(
                peer,
                &format!(
                    "no progress within the {:?} receive deadline",
                    self.ft.recv_deadline
                ),
            ));
        }
        Ok(())
    }

    /// Peers owning unresolved remote tasks this node still needs.
    fn waiting_on(&self) -> Vec<usize> {
        let mut peers: Vec<usize> = self.plan.remote_edges_in[self.node()]
            .keys()
            .filter(|rt| !self.resolved_remote.contains(rt))
            .map(|&rt| self.st.core.graph.task(TaskId(rt)).node)
            .collect();
        peers.sort_unstable();
        peers.dedup();
        peers
    }

    /// Bounded-staleness degradation: consume every outstanding
    /// contribution from `peer` as a hole. Sends synthesize a
    /// [`Payload::Skipped`] inbound (their receivers mark the hole and
    /// the aggregates rescale at consumption); bare completion edges
    /// resolve outright. Late real deliveries are acked and ignored.
    fn skip_peer(&mut self, peer: usize) {
        self.skipped_peers.insert(peer);
        let mut outstanding: Vec<u32> = self.plan.remote_edges_in[self.node()]
            .keys()
            .filter(|rt| !self.resolved_remote.contains(rt))
            .filter(|&&rt| self.st.core.graph.task(TaskId(rt)).node == peer)
            .copied()
            .collect();
        outstanding.sort_unstable();
        for rt in outstanding {
            self.resolved_remote.insert(rt);
            let hole = (self.st.core.graph.task(TaskId(rt)).prim == Primitive::Send)
                .then(|| Arc::new(Payload::Skipped));
            if hole.is_some() {
                self.st.core.report.faults.degraded_chunks += 1;
                if let Some(m) = &self.fmetrics {
                    m.degraded.inc();
                }
                self.ft_instant("skip");
            }
            self.st.consume(self.plan, TaskId(rt), hole);
        }
        self.last_progress = Instant::now();
    }

    // ------------------------------------------------------------------
    // Node faults.

    /// Applies this node's own stall/crash triggers before the
    /// `executed`-th local execution.
    fn node_fault_gate(&mut self) -> Result<()> {
        let Some(nf) = self.fplan.node_faults(self.node()) else {
            return Ok(());
        };
        if let Some(c) = nf.crash {
            if self.executed == c.at_task {
                // Stop cold, telling nobody: the receiver drops, the
                // sends rot unacked, and the peers must diagnose it.
                return Err(Error::sync(SyncFailure {
                    kind: SyncFailureKind::InjectedCrash,
                    node: self.node(),
                    peer: None,
                    task: None,
                    detail: format!("injected crash before local task {}", c.at_task),
                }));
            }
        }
        if let Some(s) = nf.stall {
            if self.executed == s.at_task && !self.stall_done {
                self.stall_done = true;
                self.st.core.report.faults.injected_stalls += 1;
                if let Some(m) = &self.fmetrics {
                    m.injected[5].inc();
                }
                self.chaos_instant("stall");
                std::thread::sleep(Duration::from_nanos(s.dur_ns));
            }
        }
        Ok(())
    }

    /// Marks `id` complete locally and ships enveloped completions to
    /// remote dependents.
    fn finish(&mut self, id: TaskId, payload: Option<Arc<Payload>>) {
        self.st.complete(self.plan, id);
        if let Some(nodes) = self.plan.remote_notify.get(&id.0) {
            let (me, now) = (self.node(), Instant::now());
            for &n in nodes {
                let env = self.links[n]
                    .tx
                    .admit(now, |seq| Envelope::data(me, seq, id, payload.clone()));
                let fx = self.links[n]
                    .chaos
                    .send(self.fplan, env.seq, env.attempt, env);
                self.note_effects(fx);
            }
        }
    }

    fn links_idle(&self) -> bool {
        self.links
            .iter()
            .all(|l| l.tx.idle() && l.chaos.held() == 0)
    }

    /// How long the next blocking receive may sleep: until the
    /// earliest retransmission or chaos-release deadline across all
    /// links, clamped to `[ft_min_wait, ft_max_wait]`. Incoming
    /// envelopes cut the wait short regardless, so a long budget costs
    /// nothing on the fault-free path.
    fn wait_budget(&self) -> Duration {
        let mut next: Option<Instant> = None;
        for l in &self.links {
            for d in l.tx.next_due().into_iter().chain(l.chaos.next_release()) {
                next = Some(next.map_or(d, |cur| cur.min(d)));
            }
        }
        match next {
            Some(d) => d
                .saturating_duration_since(Instant::now())
                .clamp(self.config.ft_min_wait, self.config.ft_max_wait),
            None => self.config.ft_max_wait,
        }
    }

    // ------------------------------------------------------------------
    // Accounting.

    /// Records what a chaos send injected.
    fn note_effects(&mut self, fx: SendEffects) {
        if fx.is_clean() {
            return;
        }
        for (i, (hit, name)) in [
            (fx.dropped, "drop"),
            (fx.duplicated, "dup"),
            (fx.reordered, "reorder"),
            (fx.delayed, "delay"),
            (fx.corrupted, "corrupt"),
        ]
        .into_iter()
        .enumerate()
        {
            if hit {
                let fr = &mut self.st.core.report.faults;
                match i {
                    0 => fr.injected_drops += 1,
                    1 => fr.injected_dups += 1,
                    2 => fr.injected_reorders += 1,
                    3 => fr.injected_delays += 1,
                    _ => fr.injected_corruptions += 1,
                }
                if let Some(m) = &self.fmetrics {
                    m.injected[i].inc();
                }
                self.chaos_instant(name);
            }
        }
    }

    fn note_retry(&mut self) {
        self.st.core.report.faults.retries += 1;
        if let Some(m) = &self.fmetrics {
            m.retries.inc();
        }
        self.ft_instant("retry");
    }

    fn note_nack(&mut self) {
        self.st.core.report.faults.nacks += 1;
        if let Some(m) = &self.fmetrics {
            m.nacks.inc();
        }
        self.ft_instant("nack");
    }

    fn note_dup_ignored(&mut self) {
        self.st.core.report.faults.duplicates_ignored += 1;
        if let Some(m) = &self.fmetrics {
            m.dups_ignored.inc();
        }
        self.ft_instant("dup_ignored");
    }

    fn record_verdict(&mut self, peer: usize, waited_ns: u64, action: DegradeAction) {
        self.flagged[peer] = true;
        self.st.core.report.faults.verdicts.push(StragglerVerdict {
            node: self.node(),
            peer,
            waited_ns,
            action,
        });
        let (name, idx) = match action {
            DegradeAction::Waited => ("waited", 0),
            DegradeAction::Skipped => ("skipped", 1),
            DegradeAction::Aborted => ("aborted", 2),
        };
        if let Some(m) = &self.fmetrics {
            m.verdicts[idx].inc();
        }
        if let Some(tr) = &self.st.core.trace {
            tr.tracer.instant(
                tr.track,
                name,
                "straggler",
                tr.tracer.now_ns(),
                &[
                    ("node", self.node() as u64),
                    ("peer", peer as u64),
                    ("waited_ns", waited_ns),
                ],
            );
        }
    }

    fn chaos_instant(&self, name: &str) {
        if let Some(tr) = &self.st.core.trace {
            tr.tracer
                .instant(tr.track, name, "chaos", tr.tracer.now_ns(), &[]);
        }
    }

    fn ft_instant(&self, name: &str) {
        if let Some(tr) = &self.st.core.trace {
            tr.tracer
                .instant(tr.track, name, "ft", tr.tracer.now_ns(), &[]);
        }
    }

    // ------------------------------------------------------------------
    // Structured failures.

    fn aborted(&self, from: Option<usize>) -> Error {
        Error::sync(SyncFailure {
            kind: SyncFailureKind::Aborted,
            node: self.node(),
            peer: from,
            task: None,
            detail: String::new(),
        })
    }

    fn dead_link(&self, peer: usize, dead: LinkDead) -> Error {
        let unacked = self.links[peer].tx.get(dead.seq);
        Error::sync(SyncFailure {
            kind: SyncFailureKind::LinkDead,
            node: self.node(),
            peer: Some(peer),
            task: unacked.and_then(Envelope::data_task).map(|t| t.0),
            detail: format!("{} transmissions unacknowledged", dead.attempts),
        })
    }

    fn recv_timeout(&self, peer: Option<usize>, detail: &str) -> Error {
        Error::sync(SyncFailure {
            kind: SyncFailureKind::RecvTimeout,
            node: self.node(),
            peer,
            task: None,
            detail: detail.to_string(),
        })
    }
}
