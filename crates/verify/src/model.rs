//! The small-scope protocol model: N nodes exchanging checksummed,
//! sequence-numbered data envelopes over unreliable directed links,
//! driven through the *real* reliability state machines
//! ([`RelTx`]/[`RelRx`] — `hipress_fabric::rel`, the very code the
//! TCP fabric runs over frames and the fault-tolerant runtime over
//! envelopes) and the pure transition functions beside them in
//! `hipress_runtime::protocol` — the checker owns no protocol logic
//! of its own.
//!
//! # Abstractions (and what stands behind them)
//!
//! - **Untimed timers.** A retransmission timer "may fire whenever
//!   the in-flight copy is genuinely gone": the `Timeout` action is
//!   enabled only when neither the data envelope nor its ack/nack is
//!   anywhere in the network, and it drives the same
//!   attempt/budget/backoff bookkeeping through [`RelTx::on_nack`].
//!   The real-time rto arithmetic is pinned by the delegation tests
//!   in `crates/fabric/tests/rel.rs`, not explored here.
//! - **Reorder is free.** Each directed link is a message *multiset*;
//!   any in-flight message may deliver next. Reordering is therefore
//!   always part of the explored alphabet and needs no fault budget.
//! - **Silence detection.** The heartbeat/EWMA straggler machinery
//!   collapses to a `DetectSilence` action, enabled once a peer has
//!   actually crashed while the observer still waits on it — the
//!   untimed shadow of "the straggler threshold elapsed with no
//!   ping". Removing it (the drop-heartbeat mutation) must deadlock
//!   pure waiters, which is exactly what the checker proves.
//! - **Apply = ledger.** Delivering a data envelope appends its seq
//!   to the receiver's apply ledger; the merge itself is the
//!   engine's business. Degrade holes and the shared
//!   [`protocol::degrade_rescale`] factor are modelled explicitly.

use hipress_chaos::Wire;
use hipress_core::graph::TaskId;
use hipress_runtime::engine::Payload;
use hipress_runtime::protocol::{
    self, fnv, Body, Envelope, LinkTuning, RelRx, RelTx, RxVerdict, FNV_OFFSET,
};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::mutate::Mutation;

/// Who sends data to whom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Every node sends `chunks` envelopes to every other node
    /// (gossip / all-reduce shape).
    AllToAll,
    /// Every non-root node sends `chunks` envelopes to node 0
    /// (parameter-server push shape). Pure receivers exist here,
    /// which is what exercises straggler skip + degraded rescale.
    Gather,
}

/// Which fault letters of the chaos alphabet the explorer may inject
/// (reorder is always on — the network is a multiset).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Faults {
    /// Remove any in-flight message.
    pub drop: bool,
    /// Duplicate any in-flight message.
    pub duplicate: bool,
    /// Flip one payload bit of an in-flight data envelope.
    pub corrupt: bool,
}

impl Faults {
    /// No fault injection at all.
    pub const NONE: Faults = Faults {
        drop: false,
        duplicate: false,
        corrupt: false,
    };

    /// Short human label, e.g. `"drop+dup"`.
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if self.drop {
            parts.push("drop");
        }
        if self.duplicate {
            parts.push("dup");
        }
        if self.corrupt {
            parts.push("flip");
        }
        if parts.is_empty() {
            parts.push("none");
        }
        parts.join("+")
    }
}

/// What a waiting node does about a peer gone silent — the model's
/// view of `DegradePolicy` (Abort is Wait with a different label and
/// adds no distinct protocol behaviour worth exploring).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Keep waiting until the hard deadline fails the sync.
    Wait,
    /// Skip the silent peer: record holes and rescale the merge.
    Partial,
}

/// One small-scope configuration for the checker to exhaust.
#[derive(Debug, Clone)]
pub struct Config {
    /// Cluster size (2–3 for exhaustive exploration).
    pub nodes: usize,
    /// Data envelopes per active directed link (1–2).
    pub chunks: u32,
    /// Max unacknowledged envelopes in flight per link (1–2).
    pub window: u32,
    /// Retransmissions allowed past the first before a link dies.
    pub retry_budget: u32,
    /// Traffic shape.
    pub pattern: Pattern,
    /// Enabled fault letters.
    pub faults: Faults,
    /// Total faults the explorer may inject along one execution.
    pub fault_budget: u32,
    /// Degrade policy for silent peers.
    pub policy: Policy,
    /// A node the explorer may crash (at any point, once).
    pub crash: Option<usize>,
}

impl Config {
    /// Data envelopes `src` sends to `dst` in this configuration.
    pub fn sends(&self, src: usize, dst: usize) -> u32 {
        if src == dst {
            return 0;
        }
        match self.pattern {
            Pattern::AllToAll => self.chunks,
            Pattern::Gather => {
                if dst == 0 {
                    self.chunks
                } else {
                    0
                }
            }
        }
    }
}

/// How a node's participation ended when it did not end in `Done`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// A send link exhausted its retry budget (structured
    /// `SyncFailure` in the runtime).
    LinkDead {
        /// The unresponsive peer.
        peer: usize,
    },
    /// The hard receive deadline fired on a silent peer.
    RecvTimeout {
        /// The silent peer.
        peer: usize,
    },
    /// A peer hit an error and broadcast `Abort`; this node unwound
    /// with it (the runtime's cluster-wide poison).
    PeerAbort {
        /// The aborting peer.
        peer: usize,
    },
}

/// Per-node protocol state. `tx`/`rx` are the *shipped* link state
/// machines; everything else is the model's ledger around them.
#[derive(Clone)]
pub struct NodeState {
    /// The node stopped executing entirely (fault injection).
    pub crashed: bool,
    /// Structured failure, if the node gave up.
    pub failed: Option<FailureKind>,
    /// Data envelopes not yet originated, per destination.
    pub remaining: Vec<u32>,
    /// Sender-side reliability state, per destination.
    pub tx: Vec<RelTx<Envelope>>,
    /// Receiver-side integrity + dedup state, per source.
    pub rx: Vec<RelRx>,
    /// Envelopes applied, per source.
    pub got: Vec<u32>,
    /// The apply ledger: every seq applied, per source. This is the
    /// monitor for the no-duplicate-apply property, independent of
    /// the dedup machinery under test.
    pub applied: Vec<BTreeSet<u64>>,
    /// Contributions written off to a degradation skip, per source.
    pub holes: Vec<u32>,
    /// Peers this node has skipped (late arrivals are acked and
    /// ignored, as in the runtime).
    pub skipped: Vec<bool>,
    /// Whether the degraded merge has been rescaled.
    pub rescaled: bool,
}

impl NodeState {
    fn alive(&self) -> bool {
        !self.crashed && self.failed.is_none()
    }
}

/// One in-flight message. `corrupted` is the ground-truth bit the
/// corruption-detection property checks against — the envelope's own
/// checksum is what the protocol under test gets to look at.
#[derive(Clone)]
pub struct Flight {
    /// The message itself.
    pub env: Envelope,
    /// Ground truth: a fault mangled this copy.
    pub corrupted: bool,
}

/// One global protocol state.
#[derive(Clone)]
pub struct State {
    /// Per-node state.
    pub nodes: Vec<NodeState>,
    /// Directed link multisets, indexed `src * n + dst`.
    pub net: Vec<Vec<Flight>>,
    /// Fault injections still allowed on this execution.
    pub faults_left: u32,
}

/// One enabled protocol or fault transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Originate the next data envelope on `src → dst`.
    Send {
        /// Sender.
        src: usize,
        /// Receiver.
        dst: usize,
    },
    /// Deliver in-flight message `idx` on `src → dst`.
    Deliver {
        /// Link source.
        src: usize,
        /// Link destination.
        dst: usize,
        /// Index into the link multiset.
        idx: usize,
    },
    /// A retransmission timer fires for `seq` on `src → dst`
    /// (enabled only when every copy is genuinely lost).
    Timeout {
        /// Sender.
        src: usize,
        /// Receiver.
        dst: usize,
        /// The in-flight sequence number.
        seq: u64,
    },
    /// Fault: remove in-flight message `idx` on `src → dst`.
    Drop {
        /// Link source.
        src: usize,
        /// Link destination.
        dst: usize,
        /// Index into the link multiset.
        idx: usize,
    },
    /// Fault: duplicate in-flight message `idx` on `src → dst`.
    Duplicate {
        /// Link source.
        src: usize,
        /// Link destination.
        dst: usize,
        /// Index into the link multiset.
        idx: usize,
    },
    /// Fault: flip a payload bit of data message `idx` on
    /// `src → dst`.
    Corrupt {
        /// Link source.
        src: usize,
        /// Link destination.
        dst: usize,
        /// Index into the link multiset.
        idx: usize,
    },
    /// Fault: node stops executing.
    Crash {
        /// The victim.
        node: usize,
    },
    /// The straggler detector at `node` concludes crashed `peer` is
    /// gone (heartbeat silence passed the threshold).
    DetectSilence {
        /// The observer.
        node: usize,
        /// The silent peer.
        peer: usize,
    },
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Send { src, dst } => write!(f, "send {src}->{dst}"),
            Action::Deliver { src, dst, idx } => write!(f, "deliver {src}->{dst}[{idx}]"),
            Action::Timeout { src, dst, seq } => write!(f, "timeout {src}->{dst} seq {seq}"),
            Action::Drop { src, dst, idx } => write!(f, "drop {src}->{dst}[{idx}]"),
            Action::Duplicate { src, dst, idx } => write!(f, "dup {src}->{dst}[{idx}]"),
            Action::Corrupt { src, dst, idx } => write!(f, "flip {src}->{dst}[{idx}]"),
            Action::Crash { node } => write!(f, "crash {node}"),
            Action::DetectSilence { node, peer } => write!(f, "silence {node} on {peer}"),
        }
    }
}

/// A property violation: the trace that led here refutes one of the
/// protocol's claimed invariants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A node is neither finished nor failed nor crashed, yet no
    /// transition is enabled — the protocol is stuck.
    Deadlock {
        /// The stuck node.
        node: usize,
    },
    /// A sequence number was applied twice on the same link.
    DuplicateApply {
        /// The receiver.
        node: usize,
        /// The link source.
        src: usize,
        /// The twice-applied sequence number.
        seq: u64,
    },
    /// A corrupted envelope was not classified `Corrupt` before the
    /// protocol acted on it.
    CorruptMissed {
        /// The receiver.
        node: usize,
        /// The link source.
        src: usize,
        /// The corrupted sequence number.
        seq: u64,
    },
    /// An envelope was transmitted more times than the retry budget
    /// allows.
    UnboundedRetry {
        /// The sender.
        node: usize,
        /// The peer.
        peer: usize,
        /// The transmission count that exceeded the budget.
        attempts: u32,
    },
    /// A node completed with degrade holes but never rescaled its
    /// merge.
    MissingRescale {
        /// The hole-carrying node.
        node: usize,
    },
    /// The scenario outgrew the state budget (a checker
    /// configuration error, not a protocol bug).
    StateSpaceExceeded {
        /// States visited when the limit tripped.
        states: usize,
    },
    /// The scenario outgrew the depth budget.
    DepthExceeded {
        /// The depth reached.
        depth: usize,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Deadlock { node } => {
                write!(f, "deadlock: node {node} is stuck, not done and not failed")
            }
            Violation::DuplicateApply { node, src, seq } => {
                write!(f, "node {node} applied seq {seq} from {src} twice")
            }
            Violation::CorruptMissed { node, src, seq } => write!(
                f,
                "node {node} accepted corrupted seq {seq} from {src} without detecting it"
            ),
            Violation::UnboundedRetry {
                node,
                peer,
                attempts,
            } => write!(
                f,
                "node {node} transmitted to {peer} {attempts} times, past the retry budget"
            ),
            Violation::MissingRescale { node } => write!(
                f,
                "node {node} finished with degrade holes but an unrescaled merge"
            ),
            Violation::StateSpaceExceeded { states } => {
                write!(f, "state budget exceeded after {states} states")
            }
            Violation::DepthExceeded { depth } => write!(f, "depth budget exceeded at {depth}"),
        }
    }
}

/// The model: a configuration, an optional seeded defect, and the
/// machinery to enumerate/execute transitions over [`State`].
pub struct Model {
    cfg: Config,
    mutation: Option<Mutation>,
    /// Anchor for the `Instant` parameters the runtime link API
    /// takes; the checker is untimed, so one fixed instant serves
    /// every call and never influences exploration.
    base: Instant,
}

impl Model {
    /// A model for `cfg`, optionally with a seeded protocol defect.
    pub fn new(cfg: Config, mutation: Option<Mutation>) -> Self {
        Self {
            cfg,
            mutation,
            base: Instant::now(),
        }
    }

    /// The checked configuration.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// The initial state: nothing sent, network empty.
    pub fn initial(&self) -> State {
        let n = self.cfg.nodes;
        let backoff = Duration::from_millis(1);
        let tuning = LinkTuning {
            retry_budget: self.cfg.retry_budget,
            base_backoff: backoff,
            max_backoff: backoff * 64,
            ..LinkTuning::default()
        };
        let nodes = (0..n)
            .map(|i| NodeState {
                crashed: false,
                failed: None,
                remaining: (0..n).map(|j| self.cfg.sends(i, j)).collect(),
                tx: (0..n)
                    .map(|_| RelTx::for_items(i as u32, tuning, self.base))
                    .collect(),
                rx: vec![RelRx::new(); n],
                got: vec![0; n],
                applied: vec![BTreeSet::new(); n],
                holes: vec![0; n],
                skipped: vec![false; n],
                rescaled: false,
            })
            .collect();
        State {
            nodes,
            net: vec![Vec::new(); n * n],
            faults_left: self.cfg.fault_budget,
        }
    }

    fn link(&self, src: usize, dst: usize) -> usize {
        src * self.cfg.nodes + dst
    }

    /// True when some copy of data `seq` on `src → dst` — the data
    /// itself, or its ack/nack on the reverse path — is still in
    /// flight, i.e. the sender's timer firing now would be spurious.
    fn copy_in_flight(&self, state: &State, src: usize, dst: usize, seq: u64) -> bool {
        let forward = &state.net[self.link(src, dst)];
        if forward
            .iter()
            .any(|fl| fl.env.seq == seq && matches!(fl.env.body, Body::Data { .. }))
        {
            return true;
        }
        let reverse = &state.net[self.link(dst, src)];
        reverse.iter().any(
            |fl| matches!(fl.env.body, Body::Ack { seq: s } | Body::Nack { seq: s } if s == seq),
        )
    }

    /// Every transition enabled in `state`.
    pub fn enabled(&self, state: &State) -> Vec<Action> {
        let n = self.cfg.nodes;
        let mut out = Vec::new();
        for src in 0..n {
            let node = &state.nodes[src];
            for dst in 0..n {
                if src == dst {
                    continue;
                }
                if node.alive()
                    && node.remaining[dst] > 0
                    && (node.tx[dst].inflight_meta().count() as u32) < self.cfg.window
                {
                    out.push(Action::Send { src, dst });
                }
                if node.alive() {
                    for (seq, _) in node.tx[dst].inflight_meta() {
                        if !self.copy_in_flight(state, src, dst, seq) {
                            out.push(Action::Timeout { src, dst, seq });
                        }
                    }
                }
                let link = &state.net[self.link(src, dst)];
                for idx in 0..link.len() {
                    out.push(Action::Deliver { src, dst, idx });
                    // Aborts are control-plane: the fault model never
                    // touches them (mirrors the runtime's direct,
                    // chaos-free abort channel).
                    let faultable = !matches!(link[idx].env.body, Body::Abort);
                    if state.faults_left > 0 && faultable {
                        if self.cfg.faults.drop {
                            out.push(Action::Drop { src, dst, idx });
                        }
                        if self.cfg.faults.duplicate {
                            out.push(Action::Duplicate { src, dst, idx });
                        }
                        if self.cfg.faults.corrupt
                            && !link[idx].corrupted
                            && matches!(
                                link[idx].env.body,
                                Body::Data {
                                    payload: Some(_),
                                    ..
                                }
                            )
                        {
                            out.push(Action::Corrupt { src, dst, idx });
                        }
                    }
                }
            }
        }
        if let Some(v) = self.cfg.crash {
            if state.nodes[v].alive() {
                out.push(Action::Crash { node: v });
            }
        }
        if self.mutation != Some(Mutation::DropHeartbeat) {
            for node in 0..n {
                for peer in 0..n {
                    if node == peer || !state.nodes[node].alive() {
                        continue;
                    }
                    let ns = &state.nodes[node];
                    let expected = self.cfg.sends(peer, node);
                    if state.nodes[peer].crashed
                        && !ns.skipped[peer]
                        && ns.got[peer] + ns.holes[peer] < expected
                    {
                        out.push(Action::DetectSilence { node, peer });
                    }
                }
            }
        }
        out
    }

    /// Executes `action` on a copy of `state`. `Err` is a property
    /// violation observed while executing it.
    pub fn step(&self, state: &State, action: &Action) -> Result<State, Violation> {
        let mut s = state.clone();
        match *action {
            Action::Send { src, dst } => {
                let node = &mut s.nodes[src];
                node.remaining[dst] -= 1;
                // The payload value is arbitrary; one word keeps the
                // checksum honest and the state space small.
                let payload = Some(Arc::new(Payload::Raw(vec![(src * 8 + dst) as f32])));
                let task = TaskId((dst as u32) << 8 | node.remaining[dst]);
                let env =
                    node.tx[dst].admit(self.base, |seq| Envelope::data(src, seq, task, payload));
                s.net[self.link(src, dst)].push(Flight {
                    env,
                    corrupted: false,
                });
            }
            Action::Deliver { src, dst, idx } => {
                let flight = s.net[self.link(src, dst)].remove(idx);
                if !s.nodes[dst].alive() {
                    return Ok(s); // drained at a crashed/failed node
                }
                match flight.env.body {
                    Body::Data { .. } => self.deliver_data(&mut s, src, dst, flight)?,
                    Body::Ack { seq } => {
                        s.nodes[dst].tx[src].on_ack(seq);
                    }
                    Body::Nack { seq } => {
                        self.retransmit(&mut s, dst, src, seq)?;
                    }
                    // A peer's failure reaches us: unwind with it.
                    // (No rebroadcast — the original failure already
                    // aborted every peer directly, as the runtime's
                    // broadcast_abort does.)
                    Body::Abort => {
                        s.nodes[dst].failed = Some(FailureKind::PeerAbort { peer: src });
                    }
                    // The model never originates Done/Ping wake-ups;
                    // tolerate and drain.
                    Body::Done | Body::Ping => {}
                }
            }
            Action::Timeout { src, dst, seq } => {
                // Untimed timer fire: drives the identical
                // attempt/budget path the runtime uses.
                self.retransmit(&mut s, src, dst, seq)?;
            }
            Action::Drop { src, dst, idx } => {
                s.net[self.link(src, dst)].remove(idx);
                s.faults_left -= 1;
            }
            Action::Duplicate { src, dst, idx } => {
                let copy = s.net[self.link(src, dst)][idx].clone();
                s.net[self.link(src, dst)].push(copy);
                s.faults_left -= 1;
            }
            Action::Corrupt { src, dst, idx } => {
                let flight = &mut s.net[self.link(src, dst)][idx];
                let bits = flight.env.payload_bits().max(1);
                let bit = (flight.env.seq * 7 + 3) % bits;
                flight.env.flip_bit(bit);
                flight.corrupted = true;
                s.faults_left -= 1;
            }
            Action::Crash { node } => {
                s.nodes[node].crashed = true;
            }
            Action::DetectSilence { node, peer } => {
                match self.cfg.policy {
                    Policy::Wait => {
                        // The hard receive deadline: a structured
                        // SyncFailure naming the silent peer.
                        self.fail_node(&mut s, node, FailureKind::RecvTimeout { peer });
                    }
                    Policy::Partial => {
                        let expected = self.cfg.sends(peer, node);
                        let ns = &mut s.nodes[node];
                        ns.holes[peer] = expected - ns.got[peer];
                        ns.skipped[peer] = true;
                        if self.mutation != Some(Mutation::ForgetRescale) {
                            // The shared rescale rule; merged counts
                            // the peers still contributing (self is
                            // the +1 inside degrade_rescale).
                            let merged = (0..self.cfg.nodes)
                                .filter(|&p| p != node && !ns.skipped[p])
                                .count();
                            let f = protocol::degrade_rescale(self.cfg.nodes, merged);
                            debug_assert!(f > 1.0, "skip with no holes");
                            ns.rescaled = true;
                        }
                    }
                }
            }
        }
        Ok(s)
    }

    /// Data arrival at an alive node: classify, apply, reply.
    fn deliver_data(
        &self,
        s: &mut State,
        src: usize,
        dst: usize,
        flight: Flight,
    ) -> Result<(), Violation> {
        let env = flight.env;
        let seq = env.seq;
        let node = &mut s.nodes[dst];
        let verdict = match self.mutation {
            // The real receiver: verify-then-dedup through RelRx,
            // which itself delegates to protocol::classify.
            None
            | Some(Mutation::RetryWithoutBound)
            | Some(Mutation::DropHeartbeat)
            | Some(Mutation::ForgetRescale) => node.rx[src].accept(&env),
            // Seeded defect: the dedup check was deleted.
            Some(Mutation::SkipDedup) => protocol::classify(env.verify(), false),
            // Seeded defect: dedup runs before verification, so a
            // corrupted retransmission of a delivered seq is waved
            // through as a harmless duplicate.
            Some(Mutation::DedupBeforeVerify) => {
                if node.applied[src].contains(&seq) {
                    RxVerdict::Duplicate
                } else {
                    protocol::classify(env.verify(), false)
                }
            }
            // Seeded defect: the payload is applied before the
            // checksum is checked at all.
            Some(Mutation::ApplyBeforeVerify) => {
                if node.applied[src].contains(&seq) {
                    RxVerdict::Duplicate
                } else {
                    RxVerdict::Deliver
                }
            }
        };
        // Property: corruption is always detected before the
        // protocol acts on the envelope.
        if flight.corrupted && verdict != RxVerdict::Corrupt {
            return Err(Violation::CorruptMissed {
                node: dst,
                src,
                seq,
            });
        }
        match verdict {
            RxVerdict::Corrupt => {
                let reply = Envelope::control(dst, Body::Nack { seq });
                s.net[self.link(dst, src)].push(Flight {
                    env: reply,
                    corrupted: false,
                });
            }
            RxVerdict::Duplicate => {
                let reply = Envelope::control(dst, Body::Ack { seq });
                s.net[self.link(dst, src)].push(Flight {
                    env: reply,
                    corrupted: false,
                });
            }
            RxVerdict::Deliver => {
                if node.skipped[src] {
                    // Late arrival from a skipped peer: ack and
                    // ignore, exactly as the runtime does.
                } else {
                    // Property: no seq is ever applied twice.
                    if !node.applied[src].insert(seq) {
                        return Err(Violation::DuplicateApply {
                            node: dst,
                            src,
                            seq,
                        });
                    }
                    node.got[src] += 1;
                }
                let reply = Envelope::control(dst, Body::Ack { seq });
                s.net[self.link(dst, src)].push(Flight {
                    env: reply,
                    corrupted: false,
                });
            }
        }
        Ok(())
    }

    /// Another transmission of `seq` on `src → dst` (timer fire or
    /// nack), through the runtime's bounded-retry bookkeeping.
    fn retransmit(&self, s: &mut State, src: usize, dst: usize, seq: u64) -> Result<(), Violation> {
        match s.nodes[src].tx[dst].on_nack(seq, self.base) {
            Ok(Some(env)) => {
                s.net[self.link(src, dst)].push(Flight {
                    env,
                    corrupted: false,
                });
            }
            Ok(None) => {}
            Err(dead) => {
                if self.mutation == Some(Mutation::RetryWithoutBound) {
                    // Seeded defect: the mutated sender would ignore
                    // the budget and transmit again — which is
                    // exactly what the bounded-retransmit property
                    // observes and rejects.
                    return Err(Violation::UnboundedRetry {
                        node: src,
                        peer: dst,
                        attempts: dead.attempts,
                    });
                }
                self.fail_node(s, src, FailureKind::LinkDead { peer: dst });
            }
        }
        Ok(())
    }

    /// A structured failure: record it and broadcast `Abort` to
    /// every peer (control-plane, never fault-injected), exactly as
    /// the runtime's `broadcast_abort` unwinds the cluster — without
    /// it, a failed node's silence would deadlock peers still
    /// waiting on its data.
    fn fail_node(&self, s: &mut State, node: usize, kind: FailureKind) {
        s.nodes[node].failed = Some(kind);
        for peer in 0..self.cfg.nodes {
            if peer != node {
                s.net[self.link(node, peer)].push(Flight {
                    env: Envelope::control(node, Body::Abort),
                    corrupted: false,
                });
            }
        }
    }

    /// True when node `i` has finished cleanly: everything sent and
    /// acknowledged, everything expected applied or written off to
    /// rescaled holes.
    pub fn done(&self, state: &State, i: usize) -> bool {
        let node = &state.nodes[i];
        node.alive()
            && node.remaining.iter().all(|&r| r == 0)
            && node.tx.iter().all(|tx| tx.idle())
            && (0..self.cfg.nodes).all(|j| node.got[j] + node.holes[j] >= self.cfg.sends(j, i))
    }

    /// Checks the terminal-state properties once no transition is
    /// enabled: every node ended `Done`, crashed, or in a structured
    /// failure, and degraded completions rescaled their merge.
    pub fn terminal_violation(&self, state: &State) -> Option<Violation> {
        for i in 0..self.cfg.nodes {
            let node = &state.nodes[i];
            if node.crashed || node.failed.is_some() {
                continue;
            }
            if !self.done(state, i) {
                return Some(Violation::Deadlock { node: i });
            }
            if node.holes.iter().any(|&h| h > 0) && !node.rescaled {
                return Some(Violation::MissingRescale { node: i });
            }
        }
        None
    }

    /// A 64-bit fingerprint of `state` for the visited set. Timer
    /// deadlines are excluded (the checker is untimed) and each
    /// link's multiset is folded commutatively, so two states that
    /// differ only in queue order hash — and are — identical.
    pub fn fingerprint(&self, state: &State) -> u64 {
        let mut h = FNV_OFFSET;
        h = fnv(h, state.faults_left as u64);
        for node in &state.nodes {
            h = fnv(h, node.crashed as u64);
            h = fnv(
                h,
                match node.failed {
                    None => 0,
                    Some(FailureKind::LinkDead { peer }) => 0x10 | peer as u64,
                    Some(FailureKind::RecvTimeout { peer }) => 0x20 | peer as u64,
                    Some(FailureKind::PeerAbort { peer }) => 0x40 | peer as u64,
                },
            );
            h = fnv(h, node.rescaled as u64);
            for j in 0..self.cfg.nodes {
                h = fnv(h, node.remaining[j] as u64);
                h = fnv(h, node.got[j] as u64);
                h = fnv(h, node.holes[j] as u64);
                h = fnv(h, node.skipped[j] as u64);
                h = fnv(h, node.tx[j].next_seq());
                for (seq, attempt) in node.tx[j].inflight_meta() {
                    h = fnv(h, 0xA000 | seq << 8 | attempt as u64);
                }
                for seq in node.rx[j].seen_seqs() {
                    h = fnv(h, 0xB000 | seq);
                }
                for &seq in &node.applied[j] {
                    h = fnv(h, 0xC000 | seq);
                }
            }
        }
        for link in &state.net {
            let mut fold: u64 = 0x9E37_79B9_7F4A_7C15;
            for flight in link {
                fold = fold.wrapping_add(flight_hash(flight));
            }
            h = fnv(h, fold);
        }
        h
    }
}

fn flight_hash(flight: &Flight) -> u64 {
    let e = &flight.env;
    let mut h = FNV_OFFSET;
    h = fnv(h, e.src as u64);
    h = fnv(h, e.seq);
    h = fnv(h, e.attempt as u64);
    h = fnv(h, e.checksum);
    h = fnv(
        h,
        match e.body {
            Body::Data { .. } => 1,
            Body::Ack { seq } => 0x200 | seq,
            Body::Nack { seq } => 0x300 | seq,
            Body::Abort => 4,
            Body::Done => 5,
            Body::Ping => 6,
        },
    );
    fnv(h, flight.corrupted as u64)
}
