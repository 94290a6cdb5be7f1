//! The CaSync plan verifier.
//!
//! Builds a happens-before relation over a [`TaskGraph`] (transitive
//! closure of the dependency edges) plus the fabric's send/recv
//! pairing, then statically replays the interpreter's value-flow
//! rules over every task. Anything the reference interpreter or the
//! concurrent thread engine could trip over at run time — unmatched
//! sends, payloads of the wrong kind, reads of chunks another task
//! may still be writing — becomes a [`Diagnostic`] here, before any
//! engine runs.
//!
//! Beyond single-iteration verification, [`compose`] unrolls a plan
//! into `min(window + 2, iterations)` overlapping pipeline instances
//! joined by per-(node, instance) admission barriers — the static
//! mirror of the runtime's window-`k` admission rule — and
//! [`verify_pipelined`] checks the properties that only exist across
//! iterations: chunk-buffer slot reuse races (`P017`), unbounded
//! channel queue growth (`P018`), and out-of-order admission
//! (`P019`).
//!
//! The diagnostic catalogue (`P001`–`P019`) is documented on
//! [`Code`] and in `DESIGN.md`.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use hipress_core::graph::{task, ChunkId, Primitive, SendSrc, TaskGraph, TaskId, TaskNode};
use hipress_core::sched::DepIndex;

use crate::diag::{Code, Diagnostic, Report, Site};

/// Graphs beyond this many tasks only get the structural checks; the
/// happens-before closure is quadratic in memory (n²/8 bytes) and the
/// deep checks are quadratic per cell/channel.
pub const DEEP_ANALYSIS_LIMIT: usize = 20_000;

/// A chunk replica: one node's accumulator for one gradient chunk.
type Cell = (usize, u32, u32);

/// What a task does to its cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Access {
    Read,
    Write,
}

/// What travels over a wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Raw,
    Compressed,
}

/// Verifies a task graph against a cluster of `cluster_nodes` nodes.
///
/// Runs every check that does not require dependency edges to be
/// well-formed first; if edges are broken (orphan deps, cycles) the
/// deep happens-before phase is skipped — its diagnostics would be
/// noise on top of the structural ones.
pub fn verify(graph: &TaskGraph, cluster_nodes: usize) -> Report {
    let mut report = Report::new();
    let deps_ok = structural(graph, cluster_nodes, &mut report);
    if !deps_ok {
        return report;
    }
    let ix = DepIndex::of(graph);
    let Some(topo) = topo_or_cycle(graph, &ix, &mut report) else {
        return report;
    };
    if graph.len() > DEEP_ANALYSIS_LIMIT {
        report.push(Diagnostic::new(
            Code::AnalysisSkipped,
            Site::Graph,
            format!(
                "graph has {} tasks (> {DEEP_ANALYSIS_LIMIT}); deep analysis skipped",
                graph.len()
            ),
        ));
        return report;
    }
    let hb = Closure::build(graph, &topo);
    value_sources(graph, &hb, &ix, &mut report);
    races(graph, &hb, &mut report);
    fifo_order(graph, &hb, &ix, &mut report);
    completion(graph, &hb, &mut report);
    chunk_sizes(graph, &mut report);
    report
}

/// Short human label for a task: `Send(node 2, g0.p1)`.
fn describe(t: &TaskNode) -> String {
    format!(
        "{:?}(node {}, g{}.p{})",
        t.prim, t.node, t.chunk.grad, t.chunk.part
    )
}

/// Node bounds, dependency sanity, peer sanity, send/recv pairing.
/// Returns false when dependency edges themselves are broken.
fn structural(graph: &TaskGraph, cluster_nodes: usize, report: &mut Report) -> bool {
    let n = graph.len();
    let mut deps_ok = true;
    for t in graph.tasks() {
        if t.node >= cluster_nodes {
            report.push(Diagnostic::new(
                Code::UnknownNode,
                Site::Task(t.id),
                format!(
                    "{} placed on node {} of a {cluster_nodes}-node cluster",
                    describe(t),
                    t.node
                ),
            ));
        }
        for d in &t.deps {
            if d.0 as usize >= n || *d == t.id {
                deps_ok = false;
                report.push(Diagnostic::new(
                    Code::OrphanDep,
                    Site::Task(t.id),
                    format!(
                        "{} depends on nonexistent or self task {}",
                        describe(t),
                        d.0
                    ),
                ));
            }
        }
        match t.prim {
            Primitive::Send | Primitive::Recv => match t.peer {
                None => report.push(Diagnostic::new(
                    Code::BadPeer,
                    Site::Task(t.id),
                    format!("{} lacks a peer", describe(t)),
                )),
                Some(p) if p == t.node || p >= cluster_nodes => report.push(Diagnostic::new(
                    Code::BadPeer,
                    Site::Task(t.id),
                    format!("{} has bad peer {p}", describe(t)),
                )),
                Some(_) => {}
            },
            _ => {}
        }
    }
    if !deps_ok {
        return false;
    }
    for t in graph.tasks() {
        if t.prim != Primitive::Recv {
            continue;
        }
        let sends: Vec<&TaskNode> = t
            .deps
            .iter()
            .map(|d| graph.task(*d))
            .filter(|d| d.prim == Primitive::Send)
            .collect();
        match sends.as_slice() {
            [s] => {
                if t.peer.is_some() && (s.node != t.peer.unwrap() || s.peer != Some(t.node)) {
                    report.push(Diagnostic::new(
                        Code::UnpairedRecv,
                        Site::Tasks(t.id, s.id),
                        format!(
                            "{} expects its payload from node {:?} but is wired to {} ({} -> {:?})",
                            describe(t),
                            t.peer,
                            describe(s),
                            s.node,
                            s.peer
                        ),
                    ));
                } else if s.chunk != t.chunk || s.bytes_wire != t.bytes_wire {
                    report.push(Diagnostic::new(
                        Code::PayloadMismatch,
                        Site::Tasks(t.id, s.id),
                        format!(
                            "{} (g{}.p{}, {} wire bytes) disagrees with {} (g{}.p{}, {} wire bytes)",
                            describe(t),
                            t.chunk.grad,
                            t.chunk.part,
                            t.bytes_wire,
                            describe(s),
                            s.chunk.grad,
                            s.chunk.part,
                            s.bytes_wire
                        ),
                    ));
                }
            }
            _ => report.push(Diagnostic::new(
                Code::UnpairedRecv,
                Site::Task(t.id),
                format!(
                    "{} depends on {} sends (want exactly 1)",
                    describe(t),
                    sends.len()
                ),
            )),
        }
    }
    true
}

/// Kahn order ([`DepIndex::kahn`]), or a cycle diagnostic naming the
/// tasks it leaves stuck.
fn topo_or_cycle(graph: &TaskGraph, ix: &DepIndex, report: &mut Report) -> Option<Vec<TaskId>> {
    let stuck = ix.kahn().map_err(|stuck| {
        let witness = graph.task(stuck[0]);
        report.push(Diagnostic::new(
            Code::DependencyCycle,
            Site::Task(stuck[0]),
            format!(
                "dependency cycle: {} tasks can never run, e.g. {}",
                stuck.len(),
                describe(witness)
            ),
        ));
    });
    stuck.ok()
}

/// Transitive closure of the dependency relation as per-task ancestor
/// bitsets.
struct Closure {
    words: usize,
    rows: Vec<u64>,
}

impl Closure {
    fn build(graph: &TaskGraph, topo: &[TaskId]) -> Self {
        let n = graph.len();
        let words = n.div_ceil(64);
        let mut rows = vec![0u64; n * words];
        for &id in topo {
            let i = id.0 as usize;
            for d in &graph.task(id).deps {
                let di = d.0 as usize;
                let (dst, src) = split_rows(&mut rows, i, di, words);
                for (a, b) in dst.iter_mut().zip(src) {
                    *a |= *b;
                }
                rows[i * words + di / 64] |= 1 << (di % 64);
            }
        }
        Self { words, rows }
    }

    /// True when `anc` happens strictly before `desc` (is an
    /// ancestor).
    fn before(&self, anc: TaskId, desc: TaskId) -> bool {
        let (a, d) = (anc.0 as usize, desc.0 as usize);
        self.rows[d * self.words + a / 64] >> (a % 64) & 1 == 1
    }

    /// True when the two tasks are ordered either way.
    fn ordered(&self, a: TaskId, b: TaskId) -> bool {
        self.before(a, b) || self.before(b, a)
    }
}

/// Borrows row `i` mutably and row `j` immutably from the flat bitset.
fn split_rows(rows: &mut [u64], i: usize, j: usize, words: usize) -> (&mut [u64], &[u64]) {
    debug_assert_ne!(i, j);
    if i < j {
        let (lo, hi) = rows.split_at_mut(j * words);
        (&mut lo[i * words..(i + 1) * words], &hi[..words])
    } else {
        let (lo, hi) = rows.split_at_mut(i * words);
        (&mut hi[..words], &lo[j * words..(j + 1) * words])
    }
}

/// The recvs consuming `send`: those listing it as a direct
/// dependency.
fn recvs_of<'a>(
    graph: &'a TaskGraph,
    ix: &'a DepIndex,
    send: TaskId,
) -> impl Iterator<Item = TaskId> + 'a {
    let deps = ix.dependents(send).iter().copied();
    deps.filter(|&r| graph.task(r).prim == Primitive::Recv)
}

/// The recv consuming `send`, when unique.
fn recv_of(graph: &TaskGraph, ix: &DepIndex, send: TaskId) -> Option<TaskId> {
    let mut recvs = recvs_of(graph, ix, send);
    recvs.next().filter(|_| recvs.next().is_none())
}

/// The payload kind a send puts on the wire (`None` when the forward
/// chain is broken — reported elsewhere).
fn send_kind(graph: &TaskGraph, send: TaskId) -> Option<Kind> {
    let t = graph.task(send);
    match t.send_src {
        SendSrc::Raw => Some(Kind::Raw),
        SendSrc::Encoded => Some(Kind::Compressed),
        SendSrc::Forward => {
            let recv = graph.find_dep(t.id, Primitive::Recv)?;
            let upstream = graph
                .task(recv)
                .deps
                .iter()
                .copied()
                .find(|d| graph.task(*d).prim == Primitive::Send)?;
            send_kind(graph, upstream)
        }
    }
}

/// The payload kind a recv delivers.
fn recv_kind(graph: &TaskGraph, recv: TaskId) -> Option<Kind> {
    let send = graph
        .task(recv)
        .deps
        .iter()
        .copied()
        .find(|d| graph.task(*d).prim == Primitive::Send)?;
    send_kind(graph, send)
}

/// Sources per cell, for initialized-before-read checks.
fn cell_sources(graph: &TaskGraph) -> HashMap<Cell, Vec<TaskId>> {
    let mut m: HashMap<Cell, Vec<TaskId>> = HashMap::new();
    for t in graph.tasks() {
        if t.prim == Primitive::Source {
            m.entry((t.node, t.chunk.grad, t.chunk.part))
                .or_default()
                .push(t.id);
        }
    }
    m
}

/// Statically replays the interpreter's per-primitive value-source
/// resolution: every task must be able to find the data it consumes,
/// of the kind it expects (`P008`, `P009`, `P007`).
fn value_sources(graph: &TaskGraph, hb: &Closure, ix: &DepIndex, report: &mut Report) {
    let sources = cell_sources(graph);
    let initialized = |t: &TaskNode| {
        sources
            .get(&(t.node, t.chunk.grad, t.chunk.part))
            .is_some_and(|ss| ss.iter().any(|s| hb.before(*s, t.id)))
    };
    let missing = |report: &mut Report, t: &TaskNode, what: &str| {
        report.push(Diagnostic::new(
            Code::MissingValueSource,
            Site::Task(t.id),
            format!("{}: {what}", describe(t)),
        ));
    };
    for t in graph.tasks() {
        match t.prim {
            Primitive::Encode => {
                if !initialized(t) {
                    missing(report, t, "encodes a chunk no Source initialized before it");
                }
            }
            Primitive::Decode => match graph.find_dep(t.id, Primitive::Recv) {
                None => missing(report, t, "decode without a recv dependency"),
                Some(r) => {
                    if recv_kind(graph, r) == Some(Kind::Raw) {
                        report.push(Diagnostic::new(
                            Code::PayloadKindMismatch,
                            Site::Tasks(t.id, r),
                            format!("{} decodes a raw payload", describe(t)),
                        ));
                    }
                }
            },
            Primitive::Merge => {
                if !initialized(t) {
                    missing(
                        report,
                        t,
                        "merges into an accumulator no Source initialized",
                    );
                }
                if graph.find_dep(t.id, Primitive::Decode).is_none() {
                    match graph.find_dep(t.id, Primitive::Recv) {
                        None => missing(report, t, "merge with nothing to merge"),
                        Some(r) => {
                            if recv_kind(graph, r) == Some(Kind::Compressed) {
                                report.push(Diagnostic::new(
                                    Code::PayloadKindMismatch,
                                    Site::Tasks(t.id, r),
                                    format!(
                                        "{} raw-merges a compressed payload (missing decode)",
                                        describe(t)
                                    ),
                                ));
                            }
                        }
                    }
                }
            }
            Primitive::Send => {
                match t.send_src {
                    SendSrc::Raw => {
                        if !initialized(t) {
                            missing(report, t, "raw send of a chunk no Source initialized");
                        }
                    }
                    SendSrc::Encoded => {
                        if graph.find_dep(t.id, Primitive::Encode).is_none() {
                            missing(report, t, "encoded send without an encode dependency");
                        }
                    }
                    SendSrc::Forward => {
                        if graph.find_dep(t.id, Primitive::Recv).is_none() {
                            missing(report, t, "forward send without a recv dependency");
                        }
                    }
                }
                if recvs_of(graph, ix, t.id).next().is_none() {
                    report.push(Diagnostic::new(
                        Code::UnconsumedSend,
                        Site::Task(t.id),
                        format!("{} is never consumed by a recv", describe(t)),
                    ));
                }
            }
            Primitive::Update => {
                if !sources.contains_key(&(t.node, t.chunk.grad, t.chunk.part)) {
                    missing(report, t, "commits a chunk replica that has no Source");
                } else if graph.find_dep(t.id, Primitive::Decode).is_some() {
                    // Installs the decoded payload.
                } else if let Some(r) = graph.find_dep(t.id, Primitive::Recv) {
                    if recv_kind(graph, r) == Some(Kind::Compressed) {
                        report.push(Diagnostic::new(
                            Code::PayloadKindMismatch,
                            Site::Tasks(t.id, r),
                            format!(
                                "{} raw-installs a compressed payload (missing decode)",
                                describe(t)
                            ),
                        ));
                    }
                } else if graph.find_dep(t.id, Primitive::Encode).is_some() {
                    // Installs the decode∘encode reconstruction.
                } else if !initialized(t) {
                    missing(report, t, "commits an accumulator no Source initialized");
                }
            }
            _ => {}
        }
    }
}

/// How a task touches its cell, if at all. A foreign-valued `Update`
/// (one that installs a decode/recv/encode product) overwrites the
/// accumulator; a fallback `Update` re-installs the accumulator's own
/// value and is a read.
fn access_of(graph: &TaskGraph, t: &TaskNode) -> Option<Access> {
    match t.prim {
        Primitive::Source => Some(Access::Write),
        Primitive::Encode => Some(Access::Read),
        Primitive::Merge => Some(Access::Write),
        Primitive::Send if t.send_src == SendSrc::Raw => Some(Access::Read),
        Primitive::Update => {
            let foreign = graph.find_dep(t.id, Primitive::Decode).is_some()
                || graph.find_dep(t.id, Primitive::Recv).is_some()
                || graph.find_dep(t.id, Primitive::Encode).is_some();
            Some(if foreign { Access::Write } else { Access::Read })
        }
        _ => None,
    }
}

/// Unordered read/write and write/write pairs on one chunk replica
/// (`P010`, `P011`) — the PR-1 dissemination bug class.
fn races(graph: &TaskGraph, hb: &Closure, report: &mut Report) {
    let mut cells: BTreeMap<Cell, Vec<(TaskId, Access)>> = BTreeMap::new();
    for t in graph.tasks() {
        if let Some(a) = access_of(graph, t) {
            cells
                .entry((t.node, t.chunk.grad, t.chunk.part))
                .or_default()
                .push((t.id, a));
        }
    }
    for ((node, grad, part), accs) in cells {
        for (i, &(a, ka)) in accs.iter().enumerate() {
            for &(b, kb) in &accs[i + 1..] {
                if ka == Access::Read && kb == Access::Read {
                    continue;
                }
                if hb.ordered(a, b) {
                    continue;
                }
                let (code, what) = if ka == Access::Write && kb == Access::Write {
                    (Code::DoubleWrite, "both write")
                } else {
                    (Code::DataRace, "read and write")
                };
                report.push(Diagnostic::new(
                    code,
                    Site::Tasks(a, b),
                    format!(
                        "{} and {} {what} node {node}'s replica of g{grad}.p{part} \
                         with no happens-before edge",
                        describe(graph.task(a)),
                        describe(graph.task(b)),
                    ),
                ));
            }
        }
    }
}

/// Per-channel FIFO consistency (`P012`): if two sends on one
/// `from → to` channel are ordered, their receives must complete in
/// the same order, or a FIFO fabric wedges/crosses payloads.
fn fifo_order(graph: &TaskGraph, hb: &Closure, ix: &DepIndex, report: &mut Report) {
    let mut channels: BTreeMap<(usize, usize), Vec<TaskId>> = BTreeMap::new();
    for t in graph.tasks() {
        if t.prim == Primitive::Send {
            if let Some(p) = t.peer {
                channels.entry((t.node, p)).or_default().push(t.id);
            }
        }
    }
    for ((from, to), sends) in channels {
        for (i, &s1) in sends.iter().enumerate() {
            let Some(r1) = recv_of(graph, ix, s1) else {
                continue;
            };
            for &s2 in &sends[i + 1..] {
                let Some(r2) = recv_of(graph, ix, s2) else {
                    continue;
                };
                let inverted = (hb.before(s1, s2) && hb.before(r2, r1))
                    || (hb.before(s2, s1) && hb.before(r1, r2));
                if inverted {
                    report.push(Diagnostic::new(
                        Code::FifoInversion,
                        Site::Tasks(s1, s2),
                        format!(
                            "sends {} and {} on channel {from} -> {to} are ordered one way \
                             but their recvs are consumed in the opposite order",
                            s1.0, s2.0
                        ),
                    ));
                }
            }
        }
    }
}

/// Every initialized nonzero chunk replica must be committed by an
/// `Update` (`P013`), and every such `Update` must causally follow
/// every node's `Source` for that chunk (`P014`) — otherwise it
/// commits a partial aggregate.
fn completion(graph: &TaskGraph, hb: &Closure, report: &mut Report) {
    let mut chunk_sources: BTreeMap<(u32, u32), Vec<TaskId>> = BTreeMap::new();
    let mut nonzero: BTreeMap<(u32, u32), bool> = BTreeMap::new();
    for t in graph.tasks() {
        if t.prim == Primitive::Source {
            chunk_sources
                .entry((t.chunk.grad, t.chunk.part))
                .or_default()
                .push(t.id);
            *nonzero.entry((t.chunk.grad, t.chunk.part)).or_default() |= t.bytes_raw > 0;
        }
    }
    let mut updates: BTreeMap<Cell, Vec<TaskId>> = BTreeMap::new();
    for t in graph.tasks() {
        if t.prim == Primitive::Update {
            updates
                .entry((t.node, t.chunk.grad, t.chunk.part))
                .or_default()
                .push(t.id);
        }
    }
    for (&(grad, part), srcs) in &chunk_sources {
        if !nonzero[&(grad, part)] {
            continue;
        }
        for &s in srcs {
            let node = graph.task(s).node;
            match updates.get(&(node, grad, part)) {
                None => report.push(Diagnostic::new(
                    Code::MissingCompletion,
                    Site::Task(s),
                    format!(
                        "node {node}'s replica of g{grad}.p{part} is initialized \
                         but never committed by an Update"
                    ),
                )),
                Some(ups) => {
                    for &u in ups {
                        if let Some(&miss) = srcs.iter().find(|&&other| !hb.before(other, u)) {
                            report.push(Diagnostic::new(
                                Code::IncompleteAggregation,
                                Site::Tasks(u, miss),
                                format!(
                                    "{} commits g{grad}.p{part} without node {}'s \
                                     contribution (Source {} is not an ancestor)",
                                    describe(graph.task(u)),
                                    graph.task(miss).node,
                                    miss.0
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }
}

/// All non-barrier tasks touching one chunk must agree on its raw
/// size (`P015`).
fn chunk_sizes(graph: &TaskGraph, report: &mut Report) {
    let mut sizes: BTreeMap<(u32, u32), Vec<(u64, TaskId)>> = BTreeMap::new();
    for t in graph.tasks() {
        if t.prim != Primitive::Barrier {
            sizes
                .entry((t.chunk.grad, t.chunk.part))
                .or_default()
                .push((t.bytes_raw, t.id));
        }
    }
    for ((grad, part), mut seen) in sizes {
        seen.sort_unstable();
        seen.dedup_by_key(|(b, _)| *b);
        if seen.len() > 1 {
            report.push(Diagnostic::new(
                Code::ChunkSizeMismatch,
                Site::Tasks(seen[0].1, seen[seen.len() - 1].1),
                format!(
                    "tasks on g{grad}.p{part} disagree on its raw size: {:?}",
                    seen.iter().map(|(b, _)| *b).collect::<Vec<_>>()
                ),
            ));
        }
    }
}

/// How a plan is pipelined: how many iterations stream through, how
/// many may overlap, and how many buffer generations each chunk
/// replica cycles through. The runtime allocates fresh per-iteration
/// state (`slots` effectively unbounded); an engine that pools
/// buffers sets `slots` to its pool depth, and the composition then
/// proves the window never lets a reusing iteration overlap the
/// owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineSpec {
    /// Total iterations the plan will stream (≥ 1).
    pub iterations: u32,
    /// Bound on concurrently in-flight iterations (≥ 1; 1 = serial).
    pub window: u32,
    /// Buffer generations per chunk replica (≥ 1): iteration `j`
    /// reuses iteration `j - slots`'s buffers.
    pub slots: u32,
}

impl PipelineSpec {
    /// A spec that cannot race on buffers: one more generation than
    /// the window ever holds in flight.
    pub fn unshared(iterations: u32, window: u32) -> Self {
        Self {
            iterations,
            window,
            slots: window + 1,
        }
    }
}

/// A pipelined unrolling of a base plan: `instances` copies of the
/// graph plus admission barriers, with enough provenance to check
/// cross-iteration properties.
#[derive(Debug, Clone)]
pub struct Composed {
    /// The unrolled graph (instance copies, then admission barriers
    /// interleaved per instance).
    pub graph: TaskGraph,
    /// The spec this was composed under.
    pub spec: PipelineSpec,
    /// How many instances were materialized:
    /// `min(window + 2, iterations)` — `window + 1` exhibits every
    /// overlap the admission rule permits, and one more instance
    /// materializes two consecutive barriers per node so the
    /// admission *chain* (and its ordering properties) is visible.
    pub instances: u32,
    /// Each task's iteration index, parallel to the graph.
    pub instance: Vec<u32>,
    /// `(instance, node)` → that instance's admission barrier on that
    /// node (instances below `window` start unconditionally and have
    /// none).
    pub admissions: BTreeMap<(u32, usize), TaskId>,
}

/// Unrolls `base` into overlapping pipeline instances.
///
/// Mirrors the runtime's admission rule (`runtime::pipeline`):
/// iteration `j` is admitted on a node once iteration `j - window`
/// has completed *locally* — modelled as a `Barrier` depending on
/// every task of instance `j - window` on that node, gating every
/// instance-`j` task on the node that has no same-node dependency
/// (tasks with local deps are gated transitively; tasks fed only by
/// remote sends model the runtime's stash-until-admission). Barriers
/// chain per node, because the runtime admits in order.
///
/// # Panics
///
/// When any spec field is zero — the runtime rejects those configs
/// before building anything.
pub fn compose(base: &TaskGraph, spec: &PipelineSpec) -> Composed {
    assert!(
        spec.iterations >= 1 && spec.window >= 1 && spec.slots >= 1,
        "pipeline spec fields must all be >= 1, got {spec:?}"
    );
    let instances = spec.window.saturating_add(2).min(spec.iterations);
    let nodes: BTreeSet<usize> = base.tasks().iter().map(|t| t.node).collect();
    let mut graph = TaskGraph::new();
    let mut instance = Vec::new();
    let mut admissions: BTreeMap<(u32, usize), TaskId> = BTreeMap::new();
    // Start ids of each instance's copies, so deps can be remapped.
    let mut offsets = Vec::with_capacity(instances as usize);
    for j in 0..instances {
        // Admission barriers first (they gate this instance's tasks,
        // and only reference earlier instances — no forward edges).
        if j >= spec.window {
            let prev = j - spec.window;
            for &p in &nodes {
                let mut deps: Vec<TaskId> = base
                    .tasks()
                    .iter()
                    .filter(|t| t.node == p)
                    .map(|t| TaskId(offsets[prev as usize] + t.id.0))
                    .collect();
                if let Some(&chain) = admissions.get(&(j - 1, p)) {
                    deps.push(chain);
                }
                let id = graph.add(TaskNode {
                    deps,
                    ..task(p, Primitive::Barrier, ChunkId { grad: 0, part: 0 })
                });
                instance.push(j);
                admissions.insert((j, p), id);
            }
        }
        let offset = graph.len() as u32;
        offsets.push(offset);
        for t in base.tasks() {
            let mut copy = t.clone();
            copy.deps = t.deps.iter().map(|d| TaskId(offset + d.0)).collect();
            let local_dep = t.deps.iter().any(|d| base.task(*d).node == t.node);
            if !local_dep {
                if let Some(&adm) = admissions.get(&(j, t.node)) {
                    copy.deps.push(adm);
                }
            }
            graph.add(copy);
            instance.push(j);
        }
    }
    Composed {
        graph,
        spec: *spec,
        instances,
        instance,
        admissions,
    }
}

/// Verifies a plan under pipelined execution: the single-iteration
/// checks on the base graph, then — if the base is error-free — the
/// cross-iteration checks on its [`compose`]d unrolling (`P017`,
/// `P018`, `P019`). A broken base short-circuits: composing it would
/// only repeat each defect `window + 1` times.
pub fn verify_pipelined(base: &TaskGraph, cluster_nodes: usize, spec: &PipelineSpec) -> Report {
    let mut report = verify(base, cluster_nodes);
    if report.error_count() > 0 {
        return report;
    }
    let composed = compose(base, spec);
    verify_composed_into(&composed, &mut report);
    report
}

/// The cross-iteration checks alone, on an already-composed (and
/// possibly deliberately tampered) unrolling.
pub fn verify_composed(composed: &Composed) -> Report {
    let mut report = Report::new();
    verify_composed_into(composed, &mut report);
    report
}

fn verify_composed_into(c: &Composed, report: &mut Report) {
    let ix = DepIndex::of(&c.graph);
    let Some(topo) = topo_or_cycle(&c.graph, &ix, report) else {
        return;
    };
    if c.graph.len() > DEEP_ANALYSIS_LIMIT {
        report.push(Diagnostic::new(
            Code::AnalysisSkipped,
            Site::Graph,
            format!(
                "composed pipeline has {} tasks (> {DEEP_ANALYSIS_LIMIT}); \
                 cross-iteration analysis skipped",
                c.graph.len()
            ),
        ));
        return;
    }
    let hb = Closure::build(&c.graph, &topo);
    cross_iter_races(c, &hb, report);
    queue_growth(c, &hb, &ix, report);
    admission_order(c, &hb, report);
}

/// `P017`: instances `j` and `j + slots` write the same physical
/// chunk buffer; unless every access pair across them is ordered,
/// the reusing iteration scribbles over one still in flight. With
/// `slots > window` the admission chain orders them by construction;
/// the race class only opens up when `slots <= window` — i.e. never
/// at `window = 1` with per-window buffers, which is why it is a
/// genuinely pipelined defect.
fn cross_iter_races(c: &Composed, hb: &Closure, report: &mut Report) {
    let mut cells: BTreeMap<Cell, Vec<(u32, TaskId, Access)>> = BTreeMap::new();
    for t in c.graph.tasks() {
        if let Some(a) = access_of(&c.graph, t) {
            cells
                .entry((t.node, t.chunk.grad, t.chunk.part))
                .or_default()
                .push((c.instance[t.id.0 as usize], t.id, a));
        }
    }
    for ((node, grad, part), accs) in cells {
        'pair: for (i, &(j1, a, ka)) in accs.iter().enumerate() {
            for &(j2, b, kb) in &accs[i + 1..] {
                if j1 == j2 || (j2.abs_diff(j1)) % c.spec.slots != 0 {
                    continue;
                }
                if ka == Access::Read && kb == Access::Read {
                    continue;
                }
                if hb.ordered(a, b) {
                    continue;
                }
                report.push(Diagnostic::new(
                    Code::CrossIterRace,
                    Site::Tasks(a, b),
                    format!(
                        "iterations {j1} and {j2} share buffer slot {} of node \
                         {node}'s g{grad}.p{part} ({} and {}) with no \
                         happens-before edge — window {} admits both at once",
                        j1 % c.spec.slots,
                        describe(c.graph.task(a)),
                        describe(c.graph.task(b)),
                        c.spec.window,
                    ),
                ));
                break 'pair; // One witness per cell.
            }
        }
    }
}

/// `P018`: every channel's sends must be gated — at *some* lag — by
/// the consumption of their older counterparts, or the receive queue
/// (the runtime's admission stash) grows with the iteration count,
/// not the window.
///
/// Admission is per-node-local, so consumption may legitimately lag
/// production by more than `window` across multi-hop graphs (a PS
/// worker's next push is ordered after the aggregator consumed its
/// reply only two admissions later). The sound bound the unrolling
/// can witness is its own horizon: the oldest and newest instances
/// sit `window + 1` apart — one more than admission ever holds in
/// flight — so a send still not ordered after the consumption that
/// far back is not gated at any lag. Unrollings shorter than the
/// window (`iterations <= window + 1`) cannot outrun their own
/// horizon and are vacuously bounded.
fn queue_growth(c: &Composed, hb: &Closure, ix: &DepIndex, report: &mut Report) {
    let lag = c.instances - 1;
    if lag <= c.spec.window {
        return;
    }
    let mut channels: BTreeMap<(usize, usize), BTreeMap<u32, Vec<TaskId>>> = BTreeMap::new();
    for t in c.graph.tasks() {
        if t.prim == Primitive::Send {
            if let Some(p) = t.peer {
                channels
                    .entry((t.node, p))
                    .or_default()
                    .entry(c.instance[t.id.0 as usize])
                    .or_default()
                    .push(t.id);
            }
        }
    }
    for ((from, to), by_instance) in channels {
        // Instance copies preserve task order, so the k-th send of the
        // first and last instances are the same logical transfer.
        let (Some(first), Some(last)) = (by_instance.get(&0), by_instance.get(&lag)) else {
            continue;
        };
        for (&s1, &s2) in first.iter().zip(last) {
            let Some(r1) = recv_of(&c.graph, ix, s1) else {
                continue;
            };
            if !hb.before(r1, s2) {
                report.push(Diagnostic::new(
                    Code::QueueGrowth,
                    Site::Tasks(s1, s2),
                    format!(
                        "channel {from} -> {to}: iteration {lag}'s {} can \
                         transmit before iteration 0's payload is consumed \
                         — no admission lag bounds this channel, so the \
                         receive queue grows with the iteration count",
                        describe(c.graph.task(s2)),
                    ),
                ));
                break; // One witness per channel.
            }
        }
    }
}

/// `P019`: each node must admit iterations in ascending order — the
/// runtime increments `next_admit` monotonically, so a composed plan
/// whose admission barriers are inverted or unordered on some node
/// does not model any execution the runtime can produce.
fn admission_order(c: &Composed, hb: &Closure, report: &mut Report) {
    let mut per_node: BTreeMap<usize, Vec<(u32, TaskId)>> = BTreeMap::new();
    for (&(j, p), &id) in &c.admissions {
        per_node.entry(p).or_default().push((j, id));
    }
    for (node, mut adms) in per_node {
        adms.sort_unstable();
        for w in adms.windows(2) {
            let ((j1, a), (j2, b)) = (w[0], w[1]);
            if !hb.before(a, b) {
                report.push(Diagnostic::new(
                    Code::AdmissionInversion,
                    Site::Tasks(a, b),
                    format!(
                        "node {node} does not admit iteration {j1} before \
                         iteration {j2}; the runtime admits strictly in order"
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipress_core::graph::{task, ChunkId, TaskGraph, TaskNode};

    fn chunk() -> ChunkId {
        ChunkId { grad: 0, part: 0 }
    }

    /// A minimal clean two-node exchange: 0 sends its raw chunk, 1
    /// merges it and both commit.
    fn clean_pair() -> TaskGraph {
        let mut g = TaskGraph::new();
        let s0 = g.add(TaskNode {
            bytes_raw: 100,
            bytes_wire: 100,
            ..task(0, Primitive::Source, chunk())
        });
        let s1 = g.add(TaskNode {
            bytes_raw: 100,
            bytes_wire: 100,
            ..task(1, Primitive::Source, chunk())
        });
        let send = g.add(TaskNode {
            peer: Some(1),
            bytes_raw: 100,
            bytes_wire: 100,
            deps: vec![s0],
            ..task(0, Primitive::Send, chunk())
        });
        let recv = g.add(TaskNode {
            peer: Some(0),
            bytes_raw: 100,
            bytes_wire: 100,
            deps: vec![send],
            ..task(1, Primitive::Recv, chunk())
        });
        let merge = g.add(TaskNode {
            bytes_raw: 100,
            bytes_wire: 100,
            deps: vec![recv, s1],
            ..task(1, Primitive::Merge, chunk())
        });
        let back = g.add(TaskNode {
            peer: Some(0),
            bytes_raw: 100,
            bytes_wire: 100,
            deps: vec![merge],
            ..task(1, Primitive::Send, chunk())
        });
        let recv0 = g.add(TaskNode {
            peer: Some(1),
            bytes_raw: 100,
            bytes_wire: 100,
            deps: vec![back],
            ..task(0, Primitive::Recv, chunk())
        });
        g.add(TaskNode {
            bytes_raw: 100,
            bytes_wire: 100,
            deps: vec![recv0],
            ..task(0, Primitive::Update, chunk())
        });
        g.add(TaskNode {
            bytes_raw: 100,
            bytes_wire: 100,
            deps: vec![merge],
            ..task(1, Primitive::Update, chunk())
        });
        g
    }

    #[test]
    fn clean_exchange_passes() {
        let r = verify(&clean_pair(), 2);
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn unknown_node_flagged() {
        let mut g = TaskGraph::new();
        g.add(task(5, Primitive::Source, chunk()));
        assert!(verify(&g, 2).has(Code::UnknownNode));
    }

    #[test]
    fn self_send_flagged() {
        let mut g = TaskGraph::new();
        g.add(TaskNode {
            peer: Some(0),
            ..task(0, Primitive::Send, chunk())
        });
        assert!(verify(&g, 2).has(Code::BadPeer));
    }

    #[test]
    fn recv_without_send_flagged() {
        let mut g = TaskGraph::new();
        g.add(TaskNode {
            peer: Some(0),
            ..task(1, Primitive::Recv, chunk())
        });
        assert!(verify(&g, 2).has(Code::UnpairedRecv));
    }

    #[test]
    fn mismatched_payload_flagged() {
        let mut g = clean_pair();
        g.task_mut(TaskId(3)).bytes_wire = 50;
        assert!(verify(&g, 2).has(Code::PayloadMismatch));
    }

    #[test]
    fn retargeted_recv_flagged() {
        let mut g = clean_pair();
        g.task_mut(TaskId(3)).peer = Some(1);
        let r = verify(&g, 3);
        assert!(
            r.has(Code::UnpairedRecv) || r.has(Code::BadPeer),
            "{}",
            r.render()
        );
    }

    #[test]
    fn cycle_flagged() {
        let mut g = clean_pair();
        // Make the first Source depend on the last Update: a cycle.
        g.task_mut(TaskId(0)).deps.push(TaskId(8));
        assert!(verify(&g, 2).has(Code::DependencyCycle));
    }

    #[test]
    fn orphan_dep_flagged() {
        let mut g = clean_pair();
        g.task_mut(TaskId(2)).deps.push(TaskId(99));
        assert!(verify(&g, 2).has(Code::OrphanDep));
    }

    #[test]
    fn unordered_read_write_flagged_as_race() {
        let mut g = clean_pair();
        // Cut the edge ordering node 1's merge after its own source:
        // Source(1) write now races with nothing ordering it before
        // the merge write.
        g.task_mut(TaskId(4)).deps.retain(|d| *d != TaskId(1));
        let r = verify(&g, 2);
        assert!(
            r.has(Code::DataRace) || r.has(Code::DoubleWrite),
            "{}",
            r.render()
        );
    }

    #[test]
    fn missing_completion_flagged() {
        let mut g = clean_pair();
        // Retarget node 0's update to a different chunk: node 0's
        // replica of g0.p0 is never committed.
        g.task_mut(TaskId(7)).chunk = ChunkId { grad: 1, part: 0 };
        let r = verify(&g, 2);
        assert!(r.has(Code::MissingCompletion), "{}", r.render());
    }

    #[test]
    fn partial_aggregate_flagged() {
        let mut g = clean_pair();
        // Node 1's update no longer waits for the merge — it commits
        // before node 0's contribution arrived.
        let merge = TaskId(4);
        let upd = TaskId(8);
        g.task_mut(upd).deps.retain(|d| *d != merge);
        g.task_mut(upd).deps.push(TaskId(1));
        let r = verify(&g, 2);
        assert!(r.has(Code::IncompleteAggregation), "{}", r.render());
    }

    #[test]
    fn unconsumed_send_warns() {
        let mut g = clean_pair();
        // Depends on node 0's final Update so the extra read races
        // with nothing — the only defect is the dangling payload.
        g.add(TaskNode {
            peer: Some(1),
            bytes_raw: 100,
            bytes_wire: 100,
            deps: vec![TaskId(7)],
            ..task(0, Primitive::Send, chunk())
        });
        let r = verify(&g, 2);
        assert!(r.has(Code::UnconsumedSend));
        assert_eq!(r.error_count(), 0, "{}", r.render());
    }

    #[test]
    fn chunk_size_disagreement_warns() {
        let mut g = clean_pair();
        g.task_mut(TaskId(4)).bytes_raw = 64;
        let r = verify(&g, 2);
        assert!(r.has(Code::ChunkSizeMismatch), "{}", r.render());
    }

    #[test]
    fn decode_of_raw_payload_flagged() {
        let mut g = clean_pair();
        // Insert a decode after node 1's recv of a raw payload.
        g.add(TaskNode {
            bytes_raw: 100,
            bytes_wire: 100,
            deps: vec![TaskId(3)],
            ..task(1, Primitive::Decode, chunk())
        });
        let r = verify(&g, 2);
        assert!(r.has(Code::PayloadKindMismatch), "{}", r.render());
    }

    #[test]
    fn encoded_send_without_encode_flagged() {
        let mut g = clean_pair();
        g.task_mut(TaskId(2)).send_src = SendSrc::Encoded;
        let r = verify(&g, 2);
        assert!(r.has(Code::MissingValueSource), "{}", r.render());
    }

    #[test]
    fn fifo_inversion_flagged() {
        // Two ordered sends 0 -> 1 whose recvs are consumed in the
        // opposite order.
        let mut g = TaskGraph::new();
        let src = g.add(TaskNode {
            bytes_raw: 8,
            bytes_wire: 8,
            ..task(0, Primitive::Source, chunk())
        });
        g.add(TaskNode {
            bytes_raw: 8,
            bytes_wire: 8,
            ..task(1, Primitive::Source, chunk())
        });
        let s1 = g.add(TaskNode {
            peer: Some(1),
            bytes_raw: 8,
            bytes_wire: 8,
            deps: vec![src],
            ..task(0, Primitive::Send, chunk())
        });
        let s2 = g.add(TaskNode {
            peer: Some(1),
            bytes_raw: 8,
            bytes_wire: 8,
            deps: vec![s1],
            ..task(0, Primitive::Send, chunk())
        });
        let r2 = g.add(TaskNode {
            peer: Some(0),
            bytes_raw: 8,
            bytes_wire: 8,
            deps: vec![s2],
            ..task(1, Primitive::Recv, chunk())
        });
        let r1 = g.add(TaskNode {
            peer: Some(0),
            bytes_raw: 8,
            bytes_wire: 8,
            deps: vec![s1, r2],
            ..task(1, Primitive::Recv, chunk())
        });
        let m = g.add(TaskNode {
            bytes_raw: 8,
            bytes_wire: 8,
            deps: vec![r1, TaskId(1)],
            ..task(1, Primitive::Merge, chunk())
        });
        g.add(TaskNode {
            bytes_raw: 8,
            bytes_wire: 8,
            deps: vec![m, src],
            ..task(1, Primitive::Update, chunk())
        });
        g.add(TaskNode {
            bytes_raw: 8,
            bytes_wire: 8,
            deps: vec![s2, src],
            ..task(0, Primitive::Update, chunk())
        });
        let r = verify(&g, 2);
        assert!(r.has(Code::FifoInversion), "{}", r.render());
    }

    /// A one-directional producer: node 0 streams sends node 1
    /// merges, and node 0's completion never waits for node 1 — the
    /// shape whose pipelining outruns its consumer. Zero raw bytes
    /// keeps the aggregation-coverage check out of the picture (a
    /// telemetry stream, not a gradient): the single iteration is
    /// clean, the defect only exists pipelined.
    fn one_way_stream() -> TaskGraph {
        let mut g = TaskGraph::new();
        let s0 = g.add(TaskNode {
            bytes_wire: 8,
            ..task(0, Primitive::Source, chunk())
        });
        let s1 = g.add(TaskNode {
            bytes_wire: 8,
            ..task(1, Primitive::Source, chunk())
        });
        let send = g.add(TaskNode {
            peer: Some(1),
            bytes_wire: 8,
            deps: vec![s0],
            ..task(0, Primitive::Send, chunk())
        });
        let recv = g.add(TaskNode {
            peer: Some(0),
            bytes_wire: 8,
            deps: vec![send],
            ..task(1, Primitive::Recv, chunk())
        });
        let merge = g.add(TaskNode {
            bytes_wire: 8,
            deps: vec![recv, s1],
            ..task(1, Primitive::Merge, chunk())
        });
        g.add(TaskNode {
            bytes_wire: 8,
            deps: vec![merge],
            ..task(1, Primitive::Update, chunk())
        });
        g.add(TaskNode {
            bytes_wire: 8,
            deps: vec![send],
            ..task(0, Primitive::Update, chunk())
        });
        g
    }

    #[test]
    fn composition_shape_matches_spec() {
        let base = clean_pair();
        let spec = PipelineSpec::unshared(6, 2);
        let c = compose(&base, &spec);
        assert_eq!(c.instances, 4);
        // One barrier per node for each instance past the window.
        assert_eq!(c.admissions.len(), 4);
        assert_eq!(c.graph.len(), base.len() * 4 + 4);
        assert_eq!(c.instance.len(), c.graph.len());
        // Composition never invents forward dependencies.
        for t in c.graph.tasks() {
            for d in &t.deps {
                assert!(d.0 < t.id.0, "forward dep {d:?} in composed graph");
            }
        }
        // More iterations than window+2 adds nothing new.
        let deep = compose(&base, &PipelineSpec::unshared(100, 2));
        assert_eq!(deep.graph.len(), c.graph.len());
    }

    #[test]
    fn clean_pipelines_verify_clean() {
        let base = clean_pair();
        for (iterations, window) in [(1, 1), (4, 1), (4, 3), (6, 8)] {
            let r = verify_pipelined(&base, 2, &PipelineSpec::unshared(iterations, window));
            assert!(r.is_clean(), "{iterations}x w{window}: {}", r.render());
        }
        // Single-slot buffers are fine at window 1: the admission
        // barrier orders the reusing iteration after the owner.
        let r = verify_pipelined(
            &base,
            2,
            &PipelineSpec {
                iterations: 4,
                window: 1,
                slots: 1,
            },
        );
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn buffer_reuse_races_only_past_window_one() {
        // The same slots=1 plan that is clean at window 1 races at
        // window 2: iterations j and j+1 are both in flight on one
        // buffer generation.
        let r = verify_pipelined(
            &clean_pair(),
            2,
            &PipelineSpec {
                iterations: 4,
                window: 2,
                slots: 1,
            },
        );
        assert!(r.has(Code::CrossIterRace), "{}", r.render());
    }

    #[test]
    fn one_way_stream_grows_queues() {
        // Clean as a single iteration...
        let base = one_way_stream();
        assert!(verify(&base, 2).is_clean());
        // ...but pipelined, the producer node completes locally
        // without ever waiting for the consumer, so its sends outrun
        // the window.
        let r = verify_pipelined(&base, 2, &PipelineSpec::unshared(4, 2));
        assert!(r.has(Code::QueueGrowth), "{}", r.render());
        // The request-reply pair is bounded: the producer's next
        // round transitively waits on the consumer's recv.
        let r = verify_pipelined(&clean_pair(), 2, &PipelineSpec::unshared(4, 2));
        assert!(!r.has(Code::QueueGrowth), "{}", r.render());
    }

    #[test]
    fn dropped_admission_edges_flagged_as_queue_growth() {
        let base = clean_pair();
        let mut c = compose(&base, &PipelineSpec::unshared(4, 2));
        // Seed the defect: instance 2's admission barriers forget
        // their cross-iteration completion deps (keep only the
        // barrier chain), so iteration 2 no longer waits for 0.
        for (&(_, _), &adm) in c.admissions.clone().iter() {
            let keep: Vec<TaskId> = c
                .graph
                .task(adm)
                .deps
                .iter()
                .copied()
                .filter(|d| c.graph.task(*d).prim == Primitive::Barrier)
                .collect();
            c.graph.task_mut(adm).deps = keep;
        }
        let r = verify_composed(&c);
        assert!(r.has(Code::QueueGrowth), "{}", r.render());
    }

    #[test]
    fn inverted_admission_flagged() {
        // Window 1, 3 instances: barriers for iterations 1 and 2 on
        // each node. Cut everything that orders node 0's second
        // barrier after its first — the node no longer admits in
        // order, an execution the runtime cannot produce.
        let mut c = compose(&clean_pair(), &PipelineSpec::unshared(3, 1));
        assert!(verify_composed(&c).is_clean());
        let a2 = c.admissions[&(2, 0)];
        c.graph.task_mut(a2).deps.clear();
        let r = verify_composed(&c);
        assert!(r.has(Code::AdmissionInversion), "{}", r.render());
    }

    #[test]
    fn strategy_graphs_pipeline_clean() {
        use hipress_core::plan::{CompressionSpec, GradPlan, IterationSpec, SyncGradient};
        use hipress_core::{ClusterConfig, Strategy};
        let spec = IterationSpec {
            gradients: vec![SyncGradient {
                name: "g0".into(),
                bytes: 4096,
                ready_offset_ns: 0,
                plan: GradPlan {
                    compress: true,
                    partitions: 2,
                },
            }],
            compression: Some(CompressionSpec {
                ratio: 1.0 / 32.0,
                metadata_bytes: 8,
                encode_passes: 1.0,
                decode_passes: 1.0,
            }),
        };
        let cluster = ClusterConfig::ec2(3);
        for strat in [Strategy::CaSyncPs, Strategy::CaSyncRing] {
            let graph = strat.build(&cluster, &spec).unwrap();
            for window in [1, 2, 4] {
                let r = verify_pipelined(&graph, 3, &PipelineSpec::unshared(8, window));
                assert!(r.error_count() == 0, "{strat:?} w{window}: {}", r.render());
            }
        }
    }
}
