//! The fault-tolerant link: the frame protocol and fault injection
//! as a [`Link`].
//!
//! [`crate::run`] with [`crate::RunOptions::chaos`] set drives the
//! same node loop as every other run ([`crate::pipeline`]: pipelining,
//! §3.2 batching, iteration spans and progress records included), over
//! an [`FtLink`] instead of a plain channel link. The link trusts
//! nothing: every message it carries is serialized once into a
//! sequence-numbered, checksummed data [`Frame`] ([`crate::protocol`])
//! that passes the plan's [`Injector`] on its way out, and decoded
//! once on delivery; receivers verify / dedup / ack,
//! senders retransmit with exponential backoff under a bounded retry
//! budget, and a per-peer EWMA straggler detector drives a
//! configurable degradation policy. The node's own stall and crash
//! triggers fire inside the loop ([`NodeHooks`]).
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

use crate::engine::{Msg, NodeResult, NodeTrace, Payload};
use crate::pipeline::{fabric_err, NodeHooks, RunOptions};
use crate::protocol::{self, LinkDead, LinkTuning, RelRx, RelTx, RxVerdict};
use crate::report::{DegradeAction, FaultReport, StragglerVerdict};
use hipress_chaos::{FaultPlan, Injector, Verdict};
use hipress_core::graph::{Primitive, TaskGraph, TaskId};
use hipress_core::sched::DepIndex;
use hipress_fabric::frame::{Frame, FrameKind};
use hipress_fabric::rel::{POLL_CEILING, POLL_FLOOR};
use hipress_fabric::{ChannelLink, FabricError, Link, LinkCounters, WireMsg};
use hipress_metrics::{names, Counter, Scope};
use hipress_util::{SyncFailure, SyncFailureKind};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

// The wait floor/ceiling and heartbeat rule are the fabric's
// `POLL_FLOOR`, `POLL_CEILING` and `RelTx::heartbeat`, shared with the
// socket fabric. Heartbeats tell *stuck* from *slow*: a node whose loop
// keeps polling its link pings every peer it has sent nothing to for a
// `HEARTBEAT`, a stalled or crashed one goes silent. They also pin
// each peer's inter-arrival EWMA near the period, so thresholds
// converge to `straggler_factor × HEARTBEAT`; a task blocking the loop
// longer than that can be misflagged (raise `straggler_floor` for
// coarse workloads).

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
    /// contributions that did arrive, approximate for the holes. One
    /// iteration only: a run of more is a configuration error.
    Partial,
    /// Abort the run with a structured [`SyncFailure`] naming the
    /// straggler.
    Abort,
}

impl std::str::FromStr for DegradePolicy {
    type Err = String;

    /// Parses a command-line spelling: `wait`, `partial` or `abort`.
    fn from_str(s: &str) -> Result<DegradePolicy, String> {
        match s {
            "wait" => Ok(DegradePolicy::Wait),
            "partial" => Ok(DegradePolicy::Partial),
            "abort" => Ok(DegradePolicy::Abort),
            other => Err(format!("unknown policy '{other}'")),
        }
    }
}

/// Tuning for the fault-tolerant protocol.
#[derive(Debug, Clone, Copy)]
pub struct FaultTolerance {
    /// Hard bound on progress silence: a node idle this long with
    /// unmet remote dependencies (or an incomplete cluster) unwinds
    /// with a [`SyncFailureKind::RecvTimeout`].
    pub recv_deadline: Duration,
    /// Retry budget and backoff of every peer link.
    pub link: LinkTuning,
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
            link: LinkTuning::default(),
            straggler_factor: 8.0,
            straggler_floor: Duration::from_millis(100),
            policy: DegradePolicy::Wait,
        }
    }
}

/// The link-level fault events: what the plan injected, and what the
/// protocol did about it.
#[derive(Debug, Clone, Copy)]
enum Fault {
    Drop,
    Dup,
    Reorder,
    Delay,
    Corrupt,
    Retry,
    Nack,
    DupIgnored,
    CorruptDetected,
    Skip,
}

/// Per [`Fault`], in order: the trace instant `(category, name)` that
/// [`crate::RuntimeReport::from_trace`] counts (`chaos` injections,
/// `ft` recoveries), and the metric that counts it.
const FAULTS: [(&str, &str, &str); 10] = [
    ("chaos", "drop", names::CHAOS_INJECTED),
    ("chaos", "dup", names::CHAOS_INJECTED),
    ("chaos", "reorder", names::CHAOS_INJECTED),
    ("chaos", "delay", names::CHAOS_INJECTED),
    ("chaos", "corrupt", names::CHAOS_INJECTED),
    ("ft", "retry", names::FT_RETRIES),
    ("ft", "nack", names::FT_NACKS),
    ("ft", "dup_ignored", names::FT_DUPLICATES_IGNORED),
    ("ft", "corrupt_detected", names::FT_CORRUPTIONS_DETECTED),
    ("ft", "skip", names::FT_DEGRADED_CHUNKS),
];

/// Per-node metric handles for fault accounting, pre-resolved like
/// the engine's node metrics so the protocol path is pure atomic
/// recording.
struct FtMetrics {
    faults: [Counter; FAULTS.len()],
    /// Indexed by [`DegradeAction`]'s tag less one.
    verdicts: [Counter; 3],
    stall: Counter,
}

impl FtMetrics {
    fn new(scope: &Scope, node: usize) -> Self {
        let s = scope.with(&[("node", &node.to_string())]);
        let injected = |kind| s.counter(names::CHAOS_INJECTED, &[("kind", kind)]);
        Self {
            faults: FAULTS.map(|(category, name, metric)| match category {
                "chaos" => injected(name),
                _ => s.counter(metric, &[]),
            }),
            verdicts: [
                DegradeAction::Waited,
                DegradeAction::Skipped,
                DegradeAction::Aborted,
            ]
            .map(|a| s.counter(names::FT_STRAGGLER_VERDICTS, &[("action", &a.to_string())])),
            stall: injected("stall"),
        }
    }
}

/// One peer as this node's link sees it.
struct Peer {
    /// Send-side reliability for frames to the peer.
    tx: RelTx,
    /// Receive-side integrity for frames from it.
    rx: RelRx,
    /// The plan's faults on the way to it.
    inject: Injector<Frame>,
    /// The completions `(iter, task)` it still owes this node. A
    /// delivery not in here (a late one after a degradation skip) is
    /// acked and ignored, never handed to the loop twice.
    owed: BTreeSet<(u32, u32)>,
    last_heard: Instant,
    ewma_gap_ns: f64,
    /// Carries a straggler verdict (one per peer).
    flagged: bool,
    /// Said [`FrameKind::Done`] (for this node's own slot: announced
    /// it).
    done: bool,
}

/// One node's endpoint on the fault-tolerant fabric: a [`Link`] over
/// a channel link of [`Frame`]s that frames, injects, verifies,
/// acknowledges, retransmits and watches its peers, handing the node
/// loop the same [`Msg`]s a trusted link would. Drive the loop with
/// [`crate::pipeline`] as usual, then [`FtLink::finish`] the run.
pub(crate) struct FtLink<'a> {
    inner: ChannelLink<Frame>,
    graph: &'a TaskGraph,
    fplan: &'a FaultPlan,
    ft: FaultTolerance,
    /// Indexed by rank; this node's own slot only carries `done`.
    peers: Vec<Peer>,
    /// Completions ready for the loop (deliveries and skip holes).
    inbox: VecDeque<Msg>,
    last_progress: Instant,
    /// Data frames sent, first transmissions only.
    frames: u64,
    faults: FaultReport,
    trace: Option<NodeTrace>,
    metrics: Option<FtMetrics>,
}

impl<'a> FtLink<'a> {
    /// Wraps `inner` for `opts`'s run of `graph` under `chaos`'s
    /// tuning and fault plan; the hooks fire the plan's stall and crash
    /// triggers for this node inside its loop.
    pub(crate) fn new(
        inner: ChannelLink<Frame>,
        graph: &'a TaskGraph,
        ix: &DepIndex,
        chaos: &'a (FaultTolerance, FaultPlan),
        opts: &RunOptions<'_>,
        trace: Option<NodeTrace>,
    ) -> (Self, NodeHooks) {
        let (ft, fplan) = chaos;
        let (me, now) = (inner.me(), Instant::now());
        let mut peers: Vec<Peer> = (0..inner.nodes())
            .map(|peer| Peer {
                tx: RelTx::new(me as u32, ft.link, now),
                rx: RelRx::new(),
                inject: Injector::new(me, peer),
                owed: BTreeSet::new(),
                last_heard: now,
                ewma_gap_ns: ft.straggler_floor.as_nanos() as f64,
                flagged: false,
                done: false,
            })
            .collect();
        let ids = (0..graph.len() as u32).map(TaskId);
        for task in ids.filter(|&t| ix.notify(t).contains(&me)) {
            let owner = &mut peers[ix.owner(task)];
            owner
                .owed
                .extend((0..opts.pipeline.iterations).map(|iter| (iter, task.0)));
        }
        let metrics = opts.instruments.metrics.map(|s| FtMetrics::new(s, me));
        let hooks = NodeHooks {
            faults: fplan.node_faults(me).copied().unwrap_or_default(),
            stall_metric: metrics.as_ref().map(|m| m.stall.clone()),
            ..NodeHooks::default()
        };
        let link = Self {
            inner,
            graph,
            fplan,
            ft: *ft,
            peers,
            inbox: VecDeque::new(),
            last_progress: now,
            frames: 0,
            faults: FaultReport::default(),
            trace,
            metrics,
        };
        (link, hooks)
    }

    /// Ends the node's run over this link. A completed loop lingers
    /// ([`FtLink::drain`]) and folds the link's fault accounting into
    /// its report. A failure is broadcast as an abort, unless it is an
    /// injected crash (silent: peers must diagnose it) or itself the
    /// echo of a peer's abort.
    pub(crate) fn finish(mut self, result: NodeResult) -> NodeResult {
        let me = self.me();
        let result = result.and_then(|(cells, mut report)| {
            self.drain().map_err(|e| fabric_err(me, e))?;
            report.faults.absorb(&self.faults);
            Ok((cells, report))
        });
        if let Err(e) = &result {
            let silent = matches!(
                e.as_sync().map(|s| s.kind),
                Some(SyncFailureKind::InjectedCrash | SyncFailureKind::Aborted)
            );
            if !silent {
                self.broadcast(FrameKind::Abort);
            }
        }
        result
    }

    /// Lingers after the node's last task: peers may still need acks
    /// (or retransmissions) from this node. Announces
    /// [`FrameKind::Done`] once everything it sent is acknowledged, and
    /// returns once every peer has announced too — by then every data
    /// frame anywhere is acknowledged, so nobody needs anyone.
    fn drain(&mut self) -> Result<(), FabricError> {
        let me = self.me();
        self.last_progress = Instant::now();
        loop {
            self.pump()?;
            let settled = |p: &Peer| p.tx.idle() && p.inject.held() == 0;
            if !self.peers[me].done && self.peers.iter().all(settled) {
                self.peers[me].done = true;
                self.broadcast(FrameKind::Done);
                self.last_progress = Instant::now();
            }
            if self.peers.iter().all(|p| p.done) {
                return Ok(());
            }
            if self.last_progress.elapsed() > self.ft.recv_deadline {
                return Err(self.failure(
                    SyncFailureKind::RecvTimeout,
                    None,
                    "cluster incomplete after deadline".into(),
                ));
            }
            if let Some(frame) = self.inner.recv_timeout(self.wait_budget())? {
                self.handle(frame)?;
            }
        }
    }

    /// Runs the timers and takes in everything that has arrived.
    fn pump(&mut self) -> Result<(), FabricError> {
        self.tick()?;
        while let Some(frame) = self.inner.try_recv()? {
            self.handle(frame)?;
        }
        Ok(())
    }

    fn handle(&mut self, frame: Frame) -> Result<(), FabricError> {
        let from = frame.src as usize;
        if from != self.me() {
            let p = &mut self.peers[from];
            let now = Instant::now();
            let gap = now.duration_since(p.last_heard).as_nanos() as f64;
            p.ewma_gap_ns = protocol::ewma_update(p.ewma_gap_ns, gap);
            p.last_heard = now;
        }
        match frame.kind {
            FrameKind::Abort => {
                return Err(self.failure(SyncFailureKind::Aborted, Some(from), String::new()));
            }
            FrameKind::Ack => {
                if frame.verify() && self.peers[from].tx.on_ack(frame.seq) {
                    self.last_progress = Instant::now();
                }
            }
            FrameKind::Nack if frame.verify() => {
                match self.peers[from].tx.on_nack(frame.seq, Instant::now()) {
                    Ok(Some(resend)) => {
                        self.note(Fault::Retry);
                        self.inject(from, resend.seq, resend);
                    }
                    Ok(None) => {}
                    Err(dead) => return Err(self.dead_link(from, dead)),
                }
            }
            FrameKind::Nack => {}
            FrameKind::Data => self.handle_data(frame)?,
            FrameKind::Done => self.peers[from].done = true,
            // Liveness only: the silence clock above is the ping's
            // entire job. Deliberately not progress — a cluster
            // exchanging only heartbeats must still hit the deadline.
            // No channel link ever sends a Hello.
            FrameKind::Ping | FrameKind::Hello => {}
        }
        Ok(())
    }

    fn handle_data(&mut self, frame: Frame) -> Result<(), FabricError> {
        let from = frame.src as usize;
        match self.peers[from].rx.accept(&frame) {
            RxVerdict::Corrupt => {
                self.note(Fault::CorruptDetected);
                self.note(Fault::Nack);
                self.reply(from, FrameKind::Nack, &frame);
            }
            RxVerdict::Duplicate => {
                self.note(Fault::DupIgnored);
                // Re-ack: the original ack may have been eaten.
                self.reply(from, FrameKind::Ack, &frame);
            }
            RxVerdict::Deliver => {
                self.reply(from, FrameKind::Ack, &frame);
                // The link frames completions only (`send`).
                let Msg::Done {
                    task,
                    payload,
                    iter,
                } = Msg::from_bytes(&frame.payload).map_err(FabricError::Decode)?
                else {
                    return Ok(());
                };
                if self.peers[from].owed.remove(&(iter, task.0)) {
                    self.inbox.push_back(Msg::Done {
                        task,
                        payload,
                        iter,
                    });
                    self.last_progress = Instant::now();
                } else {
                    // A late real delivery after a degradation skip:
                    // acked (the sender may retire it) but ignored.
                    self.note(Fault::DupIgnored);
                }
            }
        }
        Ok(())
    }

    /// Sends `frame` to `to` through the plan's injector, `seq` being
    /// the fault coordinate it is judged by.
    fn inject(&mut self, to: usize, seq: u64, frame: Frame) {
        let inner = &mut self.inner;
        let verdict = self.peers[to]
            .inject
            .send(self.fplan, seq, frame.attempt, frame, |f| {
                // A vanished peer is the protocol's to diagnose.
                let _ = inner.send(to, f);
            });
        self.note_verdict(verdict);
    }

    /// Answers data frame `data` with an ack or nack. The reply
    /// travels through the injector under the data's `(seq, attempt)`,
    /// so the plan's fault cap bounds loss on the reverse path exactly
    /// as on the forward path (the reversed link decorrelates the
    /// draws).
    fn reply(&mut self, to: usize, kind: FrameKind, data: &Frame) {
        let mut reply = Frame::control(kind, self.me() as u32, data.seq);
        reply.attempt = data.attempt; // outside the checksum
        self.inject(to, data.seq, reply);
    }

    /// Sends a payload-free control frame to every peer past the
    /// injector — aborts and done announcements are never faulted.
    fn broadcast(&mut self, kind: FrameKind) {
        let me = self.me();
        for peer in (0..self.peers.len()).filter(|&p| p != me) {
            let _ = self.inner.send(peer, Frame::control(kind, me as u32, 0));
        }
    }

    /// Drives everything clock-based: liveness heartbeats, releases of
    /// injector-held frames, timer retransmissions.
    fn tick(&mut self) -> Result<(), FabricError> {
        let now = Instant::now();
        let me = self.me();
        for peer in (0..self.peers.len()).filter(|&p| p != me) {
            let inner = &mut self.inner;
            // Pings, like aborts, pass the injector: the fault model
            // stalls nodes, not probes.
            if let Some(ping) = self.peers[peer].tx.heartbeat(now) {
                let _ = inner.send(peer, ping);
            }
            self.peers[peer].inject.release(now, |f| {
                let _ = inner.send(peer, f);
            });
            let resends = self.peers[peer].tx.due(now);
            for frame in resends.map_err(|dead| self.dead_link(peer, dead))? {
                self.note(Fault::Retry);
                self.inject(peer, frame.seq, frame);
            }
        }
        Ok(())
    }

    /// Straggler detection and the hard receive deadline; run only
    /// while the loop has nothing to execute.
    fn idle_checks(&mut self) -> Result<(), FabricError> {
        let now = Instant::now();
        // Collect every overdue peer, stalest first: a peer that went
        // silent because it is itself blocked on the real straggler
        // went silent *later*, so blaming the longest silence finds
        // the origin of a stall cascade, not its first victim.
        let (floor, factor) = (
            self.ft.straggler_floor.as_nanos() as u64,
            self.ft.straggler_factor,
        );
        let mut overdue: Vec<(u64, u64, usize)> = self
            .peers
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.owed.is_empty() && !p.flagged)
            .map(|(peer, p)| {
                let idle_ns = now.duration_since(p.last_heard).as_nanos() as u64;
                let threshold = protocol::straggler_threshold_ns(floor, factor, p.ewma_gap_ns);
                (idle_ns, threshold, peer)
            })
            .filter(|&(idle_ns, threshold, _)| idle_ns > threshold)
            .collect();
        overdue.sort_unstable_by_key(|&(idle_ns, _, _)| std::cmp::Reverse(idle_ns));
        for (idle_ns, threshold, peer) in overdue {
            self.verdict(peer, idle_ns);
            match self.ft.policy {
                DegradePolicy::Wait => {}
                DegradePolicy::Partial => self.skip(peer),
                DegradePolicy::Abort => {
                    return Err(self.failure(
                        SyncFailureKind::Straggler,
                        Some(peer),
                        format!(
                            "silent for {idle_ns}ns (threshold {threshold}ns), policy is abort"
                        ),
                    ));
                }
            }
        }
        if self.last_progress.elapsed() > self.ft.recv_deadline {
            let peer = self.peers.iter().position(|p| !p.owed.is_empty());
            let deadline = self.ft.recv_deadline;
            return Err(self.failure(
                SyncFailureKind::RecvTimeout,
                peer,
                format!("no progress within the {deadline:?} receive deadline"),
            ));
        }
        Ok(())
    }

    /// Bounded-staleness degradation: hands the loop every completion
    /// `peer` still owes as a hole. A `Send` arrives as
    /// [`Payload::Skipped`] (its receiver marks the hole and the
    /// aggregates rescale at consumption); a bare completion edge just
    /// resolves. Late real deliveries are acked and ignored.
    fn skip(&mut self, peer: usize) {
        for (iter, task) in std::mem::take(&mut self.peers[peer].owed) {
            let task = TaskId(task);
            let hole =
                (self.graph.task(task).prim == Primitive::Send).then(|| Arc::new(Payload::Skipped));
            if hole.is_some() {
                self.note(Fault::Skip);
            }
            self.inbox.push_back(Msg::Done {
                task,
                payload: hole,
                iter,
            });
        }
        self.last_progress = Instant::now();
    }

    /// How long the next blocking receive may sleep: until the
    /// earliest retransmission or injector release, clamped to
    /// `[POLL_FLOOR, POLL_CEILING]`. Arrivals cut the wait short
    /// regardless, so a long budget costs nothing on the fault-free
    /// path.
    fn wait_budget(&self) -> Duration {
        self.peers
            .iter()
            .flat_map(|p| p.tx.next_due().into_iter().chain(p.inject.next_release()))
            .min()
            .map_or(POLL_CEILING, |due| {
                due.saturating_duration_since(Instant::now())
                    .clamp(POLL_FLOOR, POLL_CEILING)
            })
    }

    fn note(&mut self, f: Fault) {
        let (category, name, _) = FAULTS[f as usize];
        self.faults.count(name);
        if let Some(m) = &self.metrics {
            m.faults[f as usize].inc();
        }
        if let Some(tr) = &self.trace {
            tr.tracer
                .instant(tr.track, name, category, tr.tracer.now_ns(), &[]);
        }
    }

    /// Records what the injector did to a message.
    fn note_verdict(&mut self, verdict: Verdict) {
        let Verdict::Deliver(d) = verdict else {
            return self.note(Fault::Drop);
        };
        for (hit, f) in [
            (d.duplicate, Fault::Dup),
            (d.reorder, Fault::Reorder),
            (d.delay_ns > 0, Fault::Delay),
            (d.corrupt_bit.is_some(), Fault::Corrupt),
        ] {
            if hit {
                self.note(f);
            }
        }
    }

    /// Records a straggler verdict on `peer`, acted on per the policy.
    fn verdict(&mut self, peer: usize, waited_ns: u64) {
        let node = self.me();
        let action = match self.ft.policy {
            DegradePolicy::Wait => DegradeAction::Waited,
            DegradePolicy::Partial => DegradeAction::Skipped,
            DegradePolicy::Abort => DegradeAction::Aborted,
        };
        self.peers[peer].flagged = true;
        self.faults.verdicts.push(StragglerVerdict {
            node,
            peer,
            waited_ns,
            action,
        });
        if let Some(m) = &self.metrics {
            // Tags start at 1 (`Waited`); the counters at 0.
            m.verdicts[action as usize - 1].inc();
        }
        if let Some(tr) = &self.trace {
            let args = [
                ("node", node as u64),
                ("peer", peer as u64),
                ("waited_ns", waited_ns),
            ];
            let name = action.to_string();
            tr.tracer
                .instant(tr.track, &name, "straggler", tr.tracer.now_ns(), &args);
        }
    }

    fn failure(&self, kind: SyncFailureKind, peer: Option<usize>, detail: String) -> FabricError {
        FabricError::Sync(SyncFailure {
            kind,
            node: self.me(),
            peer,
            task: None,
            detail,
        })
    }

    /// A link out of retries, naming the task its oldest unacknowledged
    /// frame announced.
    fn dead_link(&self, peer: usize, dead: LinkDead) -> FabricError {
        let unacked = self.peers[peer].tx.get(dead.seq);
        let task = match unacked.map(|f| Msg::from_bytes(&f.payload)) {
            Some(Ok(Msg::Done { task, .. })) => Some(task.0),
            _ => None,
        };
        FabricError::Sync(SyncFailure {
            kind: SyncFailureKind::LinkDead,
            node: self.me(),
            peer: Some(peer),
            task,
            detail: format!("{} transmissions unacknowledged", dead.attempts),
        })
    }
}

impl Link for FtLink<'_> {
    type Msg = Msg;

    fn me(&self) -> usize {
        self.inner.me()
    }

    fn nodes(&self) -> usize {
        self.inner.nodes()
    }

    fn send(&mut self, to: usize, msg: Msg) -> Result<(), FabricError> {
        match msg {
            Msg::Done { .. } => {
                let now = Instant::now();
                let frame = self.peers[to].tx.prepare(msg.to_bytes(), now);
                self.frames += 1;
                self.last_progress = now;
                self.inject(to, frame.seq, frame);
            }
            Msg::Abort => {
                let abort = Frame::control(FrameKind::Abort, self.me() as u32, 0);
                let _ = self.inner.send(to, abort);
            }
        }
        Ok(())
    }

    fn try_recv(&mut self) -> Result<Option<Msg>, FabricError> {
        if self.inbox.is_empty() {
            self.pump()?;
        }
        Ok(self.inbox.pop_front())
    }

    /// Waits for the next completion while running the protocol: the
    /// loop calls this only when it has nothing to execute, which is
    /// when silence is judged — straggler verdicts, degradation skips
    /// and the receive deadline happen here.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Msg>, FabricError> {
        let deadline = Instant::now() + timeout;
        loop {
            if self.inbox.is_empty() {
                self.pump()?;
            }
            if self.inbox.is_empty() {
                self.idle_checks()?;
            }
            if let Some(msg) = self.inbox.pop_front() {
                return Ok(Some(msg));
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            let wait = self.wait_budget().min(deadline - now);
            if let Some(frame) = self.inner.recv_timeout(wait)? {
                self.handle(frame)?;
            }
        }
    }

    /// Data frames and their retransmissions. The inner channel link
    /// counts every frame it moves (acks and pings included), so its
    /// counters are not this fabric's.
    fn counters(&self) -> LinkCounters {
        LinkCounters {
            frames: self.frames,
            retransmits: self.peers.iter().map(|p| p.tx.retransmits()).sum(),
            ..LinkCounters::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipress_chaos::Wire;

    fn completion(task: u32, iter: u32, payload: Option<Arc<Payload>>) -> Frame {
        let msg = Msg::Done {
            task: TaskId(task),
            iter,
            payload,
        };
        Frame::new(FrameKind::Data, 0, 1, msg.to_bytes())
    }

    /// A completion's checksum covers the whole serialized message:
    /// every payload bit of every payload shape (a bare edge included)
    /// is guarded, and neither the task nor the iteration can change
    /// under the original checksum.
    #[test]
    fn a_completion_frame_checksums_its_task_and_iteration() {
        for payload in [
            None,
            Some(Arc::new(Payload::Raw(vec![0.5, 1.5, -3.25]))),
            Some(Arc::new(Payload::Compressed(vec![
                0xAB, 0x00, 0xFF, 0x17, 0x80,
            ]))),
            Some(Arc::new(Payload::Skipped)),
        ] {
            let f = completion(2, 3, payload.clone());
            assert!(f.payload_bits() > 0);
            for bit in 0..f.payload_bits() {
                let mut m = f.clone();
                m.flip_bit(bit);
                assert!(!m.verify(), "flip of payload bit {bit} went undetected");
            }
            for (task, iter) in [(2, 4), (9, 3)] {
                let mut moved = completion(task, iter, payload.clone());
                moved.checksum = f.checksum;
                assert!(
                    !moved.verify(),
                    "a completion moved to task {task} iter {iter}"
                );
            }
        }
    }

    #[test]
    fn degrade_policy_parses_its_three_spellings() {
        for (name, policy) in [
            ("wait", DegradePolicy::Wait),
            ("partial", DegradePolicy::Partial),
            ("abort", DegradePolicy::Abort),
        ] {
            assert_eq!(name.parse(), Ok(policy));
        }
        for bad in ["Wait", "skip", ""] {
            assert_eq!(
                bad.parse::<DegradePolicy>(),
                Err(format!("unknown policy '{bad}'"))
            );
        }
    }
}
