//! The synchronization task graph.
//!
//! A strategy compiles one training iteration into a DAG whose nodes
//! are instances of the paper's five primitives (plus two bookkeeping
//! pseudo-primitives). The DAG is what both execution backends
//! consume; it is also where CaSync's "task manager with a dependency
//! graph" (§3.1) materializes.

use crate::interp::FlowOutcome;
use crate::sched::DepIndex;
use hipress_tensor::Tensor;
use hipress_util::codec::{DecodeError, Field, Reader, Writer};
use hipress_util::{Error, Result};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::OnceLock;

/// The signature of an installed plan verifier: analyzes a graph for
/// a cluster of the given size and errs on any defect.
pub type DebugVerifier = fn(&TaskGraph, usize) -> Result<()>;

static DEBUG_VERIFIER: OnceLock<DebugVerifier> = OnceLock::new();

/// Installs a plan verifier that debug builds run on every graph a
/// strategy builds and every graph the interpreter executes.
///
/// `hipress-lint` registers its verifier here (via
/// `hipress_lint::install`); the indirection keeps this crate free of
/// a dependency on its own analyzer. Idempotent: the first installed
/// verifier wins.
pub fn install_debug_verifier(v: DebugVerifier) {
    let _ = DEBUG_VERIFIER.set(v);
}

/// Runs the installed verifier, if any (no-op otherwise).
///
/// # Errors
///
/// Propagates the verifier's error on any defect.
pub fn run_debug_verifier(graph: &TaskGraph, cluster_nodes: usize) -> Result<()> {
    match DEBUG_VERIFIER.get() {
        Some(v) => v(graph, cluster_nodes),
        None => Ok(()),
    }
}

/// The synchronization primitives (§3.1), plus bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Primitive {
    /// Pseudo-primitive: the gradient chunk becomes available on its
    /// worker (backward pass produced it, local aggregation done).
    Source,
    /// Compress a chunk (computing primitive).
    Encode,
    /// Decompress a received chunk (computing primitive).
    Decode,
    /// Aggregate a received (decoded or raw) chunk into the local
    /// accumulator (computing primitive).
    Merge,
    /// Transmit a chunk to a peer (communication primitive).
    Send,
    /// Receive a chunk from a peer (communication primitive).
    Recv,
    /// Pseudo-primitive: install the final aggregate locally (model
    /// update hand-off).
    Update,
    /// Pseudo-primitive: a zero-cost synchronization point. Used by
    /// the coarse-grained baseline (conventional Ring-allreduce) whose
    /// collectives are "global, atomic, bulk synchronization
    /// operations" (§2.5) — every step waits for the whole previous
    /// step.
    Barrier,
}

impl Primitive {
    /// Every primitive, in report order: the order of the runtime
    /// report's buckets and of `hipress_metrics::names::PRIM_NS`.
    pub const ALL: [Primitive; 8] = [
        Primitive::Source,
        Primitive::Encode,
        Primitive::Decode,
        Primitive::Merge,
        Primitive::Send,
        Primitive::Recv,
        Primitive::Update,
        Primitive::Barrier,
    ];

    /// The primitive's name: the span name and category both engines
    /// trace it under, which is what lets a simulated and a measured
    /// trace of one plan align track for track.
    pub fn name(self) -> &'static str {
        match self {
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

    /// Whether this primitive executes on the compute queue
    /// (`Q_comp`) as opposed to the communication queue (`Q_commu`).
    pub fn is_compute(&self) -> bool {
        matches!(
            self,
            Primitive::Encode | Primitive::Decode | Primitive::Merge | Primitive::Update
        )
    }
}

/// What a `Send` task transmits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendSrc {
    /// The chunk this node last encoded (normal compressed path).
    Encoded,
    /// The chunk this node last received, forwarded verbatim
    /// (Ring-allreduce dissemination phase — §3.3's "all decode
    /// operators except the last one can overlap with gradient
    /// transmission" relies on this).
    Forward,
    /// The raw local accumulator (no-compression path).
    Raw,
}

/// Identifies a gradient partition: gradient index within the
/// iteration and partition index within the gradient.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChunkId {
    /// Gradient index (forward-layer order).
    pub grad: u32,
    /// Partition index within the gradient.
    pub part: u32,
}

/// Identifies a task within a [`TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

/// The id's `u32`.
impl Field for TaskId {
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
    }

    fn get(r: &mut Reader<'_>) -> std::result::Result<Self, DecodeError> {
        u32::get(r).map(TaskId)
    }
}

/// One primitive instance.
#[derive(Debug, Clone)]
pub struct TaskNode {
    /// The task's id (index in the graph).
    pub id: TaskId,
    /// The cluster node executing the task.
    pub node: usize,
    /// Which primitive this is.
    pub prim: Primitive,
    /// The gradient chunk the task operates on.
    pub chunk: ChunkId,
    /// Uncompressed chunk size in bytes (kernel cost driver).
    pub bytes_raw: u64,
    /// On-the-wire size in bytes (compressed if the chunk is
    /// compressed; equals `bytes_raw` otherwise).
    pub bytes_wire: u64,
    /// Peer node: destination for `Send`, source for `Recv`.
    pub peer: Option<usize>,
    /// What a `Send` transmits (meaningful only for `Send`).
    pub send_src: SendSrc,
    /// Tasks that must complete first.
    pub deps: Vec<TaskId>,
    /// Absolute earliest start (ns from iteration start); used by
    /// `Source` tasks to model backward-pass readiness.
    pub earliest_ns: u64,
    /// Whether this compute task runs on the aggregator (server)
    /// side. BytePS-style servers execute aggregation on the host
    /// CPU; the executor moves these tasks to the CPU when the
    /// runtime config says so.
    pub at_aggregator: bool,
}

/// The per-iteration DAG of synchronization tasks.
#[derive(Debug, Clone, Default)]
pub struct TaskGraph {
    tasks: Vec<TaskNode>,
    /// For flows that carry more than one gradient (the Horovod
    /// baseline's fusion buffers): flow id → `(gradient, elements)` per
    /// member, in concatenation order. Flows absent here represent
    /// exactly their own gradient.
    flow_members: Vec<(u32, Vec<(u32, usize)>)>,
}

impl TaskGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a task and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a dependency refers to a task that does not exist
    /// yet (builders add tasks in dependency order).
    pub fn add(&mut self, mut task: TaskNode) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        for d in &task.deps {
            assert!(
                (d.0 as usize) < self.tasks.len(),
                "dependency {d:?} of task {id:?} does not exist yet"
            );
        }
        task.id = id;
        self.tasks.push(task);
        id
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The task with the given id.
    pub fn task(&self, id: TaskId) -> &TaskNode {
        &self.tasks[id.0 as usize]
    }

    /// Mutable access to the task with the given id. Mainly for tests
    /// that inject defects into otherwise-valid graphs; mutation can
    /// break the no-forward-dependency invariant [`TaskGraph::add`]
    /// enforces, which the verifier then reports.
    pub fn task_mut(&mut self, id: TaskId) -> &mut TaskNode {
        &mut self.tasks[id.0 as usize]
    }

    /// All tasks in insertion order.
    pub fn tasks(&self) -> &[TaskNode] {
        &self.tasks
    }

    /// Counts tasks of a primitive kind (the paper's "up to 3N−2
    /// extra operators per gradient" analysis, §2.5).
    pub fn count(&self, prim: Primitive) -> usize {
        self.tasks.iter().filter(|t| t.prim == prim).count()
    }

    /// Declares that flow `flow` carries the gradients `members`, each
    /// `(gradient, elements)`, concatenated in this order (fusion
    /// buffers). The executor attributes the flow's completion to every
    /// member gradient; [`FlowGeometry::inputs`] fuses by it.
    pub fn set_flow_members(&mut self, flow: u32, members: Vec<(u32, usize)>) {
        self.flow_members.push((flow, members));
    }

    /// The gradients carried by `flow` (defaults to the flow itself).
    pub fn flow_members(&self, flow: u32) -> Vec<u32> {
        self.fused(flow)
            .map_or_else(|| vec![flow], |m| m.iter().map(|&(g, _)| g).collect())
    }

    /// The recorded members of a fusion flow, if `flow` is one.
    fn fused(&self, flow: u32) -> Option<&[(u32, usize)]> {
        let found = self.flow_members.iter().find(|(f, _)| *f == flow);
        found.map(|(_, m)| m.as_slice())
    }

    /// A topological order of the tasks.
    ///
    /// Because `add` only permits dependencies on earlier tasks, the
    /// insertion order *is* topological; this verifies it and returns
    /// Kahn order ([`DepIndex::kahn`]) for interpreters that want
    /// explicit readiness.
    ///
    /// # Errors
    ///
    /// Returns an error if any dependency edge is inconsistent.
    pub fn topo_order(&self) -> Result<Vec<TaskId>> {
        for t in &self.tasks {
            if let Some(d) = t
                .deps
                .iter()
                .find(|d| d.0 as usize >= self.len() || **d == t.id)
            {
                return Err(Error::sim(format!("bad dependency {d:?} on {:?}", t.id)));
            }
        }
        DepIndex::of(self)
            .kahn()
            .map_err(|_| Error::sim("dependency cycle in task graph"))
    }

    /// The dependency of `id` that is a `want` task, looking through
    /// zero-cost barriers, last dependency first: where a task finds
    /// what it consumes, in every engine and the plan verifier.
    pub fn find_dep(&self, id: TaskId, want: Primitive) -> Option<TaskId> {
        self.task(id)
            .deps
            .iter()
            .rev()
            .find_map(|&d| match self.task(d).prim {
                p if p == want => Some(d),
                Primitive::Barrier => self.find_dep(d, want),
                _ => None,
            })
    }
}

/// One flow's layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowChunks {
    /// The flow id (the `grad` field of its chunks).
    pub flow: u32,
    /// The gradients it carries, each `(gradient, elements)`, in
    /// concatenation order.
    pub members: Vec<(u32, usize)>,
    /// (part, element range) in part order, tiling `0..len`.
    pub parts: Vec<(u32, Range<usize>)>,
    /// Total elements.
    pub len: usize,
}

/// The chunk geometry of every flow a graph synchronizes, derived from
/// the graph alone: `Source` tasks size the chunks, and
/// [`TaskGraph::flow_members`] names the gradients each flow carries.
/// Every backend lays flows out by it, and [`FlowGeometry::inputs`] is
/// the one way gradients become flows.
#[derive(Debug, Clone)]
pub struct FlowGeometry {
    /// Sorted by flow id.
    flows: Vec<FlowChunks>,
}

impl FlowGeometry {
    /// Derives the geometry of `graph`.
    pub fn of(graph: &TaskGraph) -> Self {
        let mut chunks: Vec<(u32, u32, usize)> = graph
            .tasks()
            .iter()
            .filter(|t| t.prim == Primitive::Source)
            .map(|t| (t.chunk.grad, t.chunk.part, (t.bytes_raw / 4) as usize))
            .collect();
        chunks.sort_unstable();
        chunks.dedup_by_key(|&mut (flow, part, _)| (flow, part));
        let flow_of = |chunks: &[(u32, u32, usize)]| {
            let (flow, mut len) = (chunks[0].0, 0);
            let mut parts = Vec::with_capacity(chunks.len());
            for &(_, part, n) in chunks {
                parts.push((part, len..len + n));
                len += n;
            }
            let members = graph
                .fused(flow)
                .map_or_else(|| vec![(flow, len)], <[_]>::to_vec);
            FlowChunks {
                flow,
                members,
                parts,
                len,
            }
        };
        let flows = chunks.chunk_by(|a, b| a.0 == b.0).map(flow_of).collect();
        Self { flows }
    }

    /// Every flow, in flow-id order.
    pub fn flows(&self) -> &[FlowChunks] {
        &self.flows
    }

    /// The element range of chunk `part` of `flow`, if it exists.
    pub fn chunk(&self, flow: u32, part: u32) -> Option<Range<usize>> {
        let f = &self.flows[self.flows.binary_search_by_key(&flow, |f| f.flow).ok()?];
        let i = f.parts.binary_search_by_key(&part, |(p, _)| *p).ok()?;
        Some(f.parts[i].1.clone())
    }

    /// The flows of `worker_grads[w][g]`, worker `w`'s gradient `g`:
    /// flow id → per worker, its member gradients concatenated in
    /// member order. A one-gradient flow shares its tensor by
    /// refcount.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] when a worker holds other gradients than the
    /// flows carry, or a member gradient of another length than the
    /// flow recorded for it.
    pub fn inputs(&self, worker_grads: &[Vec<Tensor>]) -> Result<HashMap<u32, Vec<Tensor>>> {
        let carried: usize = self.flows.iter().map(|f| f.members.len()).sum();
        let mut out = HashMap::with_capacity(self.flows.len());
        for f in &self.flows {
            let mut per_worker = Vec::with_capacity(worker_grads.len());
            for (w, grads) in worker_grads.iter().enumerate() {
                let members: Option<Vec<Tensor>> = f
                    .members
                    .iter()
                    .map(|&(g, n)| grads.get(g as usize).filter(|t| t.len() == n).cloned())
                    .collect();
                let flow = members.as_deref().map(|m| match m {
                    [one] => one.clone(),
                    many => Tensor::concat(many),
                });
                let Some(t) = flow.filter(|t| grads.len() == carried && t.len() == f.len) else {
                    let (flow, len) = (f.flow, f.len);
                    return Err(Error::config(format!(
                        "worker {w}'s gradients do not fill flow {flow} ({len} elements of {carried} gradients)"
                    )));
                };
                per_worker.push(t);
            }
            out.insert(f.flow, per_worker);
        }
        Ok(out)
    }

    /// Checks caller-supplied flows: every flow has `nodes` entries,
    /// and each entry's tensors (`tensors(entry)`, at least one) have
    /// the flow's length.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] naming the first flow that does not fit.
    pub fn check<T>(
        &self,
        nodes: usize,
        flows: &HashMap<u32, Vec<T>>,
        tensors: impl Fn(&T) -> &[Tensor],
    ) -> Result<()> {
        for f in &self.flows {
            let fits = |e| {
                let ts = tensors(e);
                !ts.is_empty() && ts.iter().all(|t| t.len() == f.len)
            };
            if !flows
                .get(&f.flow)
                .is_some_and(|d| d.len() == nodes && d.iter().all(fits))
            {
                return Err(Error::config(format!(
                    "flow {}: each of {nodes} nodes needs tensors of its {} elements",
                    f.flow, f.len
                )));
            }
        }
        Ok(())
    }

    /// Reassembles every flow's dense per-node result from its chunks:
    /// `installed(node, flow, part)` is what `node` installed for the
    /// chunk, `None` if it installed nothing.
    ///
    /// # Errors
    ///
    /// [`Error::Sim`] naming the first chunk a node never installed, or
    /// installed at the wrong length.
    pub fn assemble<'a>(
        &self,
        nodes: usize,
        installed: impl Fn(usize, u32, u32) -> Option<&'a [f32]>,
    ) -> Result<Vec<FlowOutcome>> {
        let mut outcomes = Vec::with_capacity(self.flows.len());
        for f in &self.flows {
            let mut per_node = Vec::with_capacity(nodes);
            for node in 0..nodes {
                let mut dense = Vec::with_capacity(f.len);
                for (part, range) in &f.parts {
                    let value = installed(node, f.flow, *part)
                        .filter(|v| v.len() == range.len())
                        .ok_or_else(|| {
                            Error::sim(format!(
                                "node {node} never updated chunk ({},{part})",
                                f.flow
                            ))
                        })?;
                    dense.extend_from_slice(value);
                }
                per_node.push(dense);
            }
            outcomes.push(FlowOutcome {
                flow: f.flow,
                per_node,
            });
        }
        Ok(outcomes)
    }
}

/// Convenience constructor for [`TaskNode`] with defaults.
pub fn task(node: usize, prim: Primitive, chunk: ChunkId) -> TaskNode {
    TaskNode {
        id: TaskId(u32::MAX),
        node,
        prim,
        chunk,
        bytes_raw: 0,
        bytes_wire: 0,
        peer: None,
        send_src: SendSrc::Raw,
        deps: Vec::new(),
        earliest_ns: 0,
        at_aggregator: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk() -> ChunkId {
        ChunkId { grad: 0, part: 0 }
    }

    #[test]
    fn add_assigns_sequential_ids() {
        let mut g = TaskGraph::new();
        let a = g.add(task(0, Primitive::Source, chunk()));
        let b = g.add(TaskNode {
            deps: vec![a],
            ..task(0, Primitive::Encode, chunk())
        });
        assert_eq!(a, TaskId(0));
        assert_eq!(b, TaskId(1));
        assert_eq!(g.len(), 2);
        assert_eq!(g.task(b).deps, vec![a]);
    }

    #[test]
    fn topo_order_is_valid() {
        let mut g = TaskGraph::new();
        let a = g.add(task(0, Primitive::Source, chunk()));
        let b = g.add(TaskNode {
            deps: vec![a],
            ..task(0, Primitive::Encode, chunk())
        });
        let c = g.add(TaskNode {
            deps: vec![a, b],
            ..task(0, Primitive::Merge, chunk())
        });
        let order = g.topo_order().unwrap();
        let pos = |id: TaskId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(a) < pos(b));
        assert!(pos(b) < pos(c));
    }

    /// `find_dep` as an explicit stack of the task's dependencies,
    /// a barrier's pushed on top when met: the oracle for the
    /// allocation-free walk.
    fn find_dep_by_stack(g: &TaskGraph, id: TaskId, want: Primitive) -> Option<TaskId> {
        let mut stack = g.task(id).deps.clone();
        while let Some(d) = stack.pop() {
            let dt = g.task(d);
            if dt.prim == want {
                return Some(d);
            }
            if dt.prim == Primitive::Barrier {
                stack.extend(dt.deps.iter().copied());
            }
        }
        None
    }

    #[test]
    fn find_dep_matches_the_stack_walk_on_every_shipped_builder() {
        use crate::plan::{CompressionSpec, GradPlan, IterationSpec, SyncGradient};
        use crate::{ClusterConfig, Strategy};
        let alg = hipress_compress::Algorithm::OneBit;
        let iter = IterationSpec {
            gradients: [4096u64, 1 << 20, 256]
                .iter()
                .enumerate()
                .map(|(i, &bytes)| SyncGradient {
                    name: format!("g{i}"),
                    bytes,
                    ready_offset_ns: 0,
                    plan: GradPlan {
                        compress: true,
                        partitions: 2,
                    },
                })
                .collect(),
            compression: Some(CompressionSpec::of(alg.build().unwrap().as_ref())),
        };
        let mut barriers_met = 0;
        for strat in Strategy::all() {
            let g = strat.build(&ClusterConfig::ec2(4), &iter).unwrap();
            barriers_met += g.count(Primitive::Barrier);
            for id in (0..g.len() as u32).map(TaskId) {
                for want in Primitive::ALL {
                    assert_eq!(
                        g.find_dep(id, want),
                        find_dep_by_stack(&g, id, want),
                        "{strat:?} task {id:?} {want:?}"
                    );
                }
            }
        }
        assert!(barriers_met > 0, "no builder exercised a barrier");
    }

    #[test]
    fn task_mut_allows_defect_injection() {
        let mut g = TaskGraph::new();
        let a = g.add(task(0, Primitive::Source, chunk()));
        g.task_mut(a).node = 3;
        assert_eq!(g.task(a).node, 3);
    }

    #[test]
    fn uninstalled_verifier_is_a_no_op() {
        let g = TaskGraph::new();
        assert!(run_debug_verifier(&g, 1).is_ok());
    }

    #[test]
    fn compute_vs_communication_queues() {
        assert!(Primitive::Encode.is_compute());
        assert!(Primitive::Merge.is_compute());
        assert!(!Primitive::Send.is_compute());
        assert!(!Primitive::Recv.is_compute());
        assert!(!Primitive::Source.is_compute());
    }

    #[test]
    #[should_panic(expected = "does not exist yet")]
    fn forward_dependency_panics() {
        let mut g = TaskGraph::new();
        g.add(TaskNode {
            deps: vec![TaskId(7)],
            ..task(0, Primitive::Encode, chunk())
        });
    }

    /// A fusion flow concatenates its members in member order, a
    /// one-gradient flow is its own tensor, and a worker whose
    /// gradients do not fill the flows is refused, as is one whose
    /// fused members have each other's lengths.
    #[test]
    fn inputs_follow_the_recorded_members() {
        let source = |grad, elems: u64| TaskNode {
            bytes_raw: elems * 4,
            ..task(0, Primitive::Source, ChunkId { grad, part: 0 })
        };
        let mut g = TaskGraph::new();
        g.add(source(2, 5));
        g.add(source(0, 3));
        g.set_flow_members(2, vec![(2, 3), (1, 2)]);
        let geometry = FlowGeometry::of(&g);
        assert_eq!(geometry.chunk(2, 0), Some(0..5));
        let grads = vec![vec![
            Tensor::from_vec(vec![0.0; 3]),
            Tensor::from_vec(vec![1.0; 2]),
            Tensor::from_vec(vec![2.0; 3]),
        ]];
        let flows = geometry.inputs(&grads).unwrap();
        assert_eq!(flows[&2][0].as_slice(), &[2.0, 2.0, 2.0, 1.0, 1.0]);
        assert_eq!(
            flows[&0][0].as_slice().as_ptr(),
            grads[0][0].as_slice().as_ptr()
        );
        let long = Tensor::from_vec(vec![2.0; 4]);
        let swapped = vec![
            grads[0][0].clone(),
            Tensor::from_vec(vec![1.0; 3]),
            Tensor::from_vec(vec![2.0; 2]),
        ];
        for bad in [
            grads[0][..2].to_vec(),
            vec![grads[0][0].clone(), grads[0][1].clone(), long],
            swapped,
        ] {
            let err = geometry.inputs(&[bad]).unwrap_err();
            assert!(err.to_string().contains("do not fill flow"), "{err}");
        }
    }
}
