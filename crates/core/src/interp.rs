//! Semantic interpreter: runs a synchronization task graph over
//! *real tensors with real compression*.
//!
//! The timing executor only needs task costs; this interpreter
//! instead executes the dataflow the graph describes — encoding with
//! an actual [`Compressor`], moving real bytes between nodes, merging
//! real floats — and checks the protocol-level invariants:
//!
//! * with no compression, every node must end up with the exact
//!   element-wise sum of all workers' gradients;
//! * with compression, every node must end up with **identical**
//!   values (replica consistency — divergent replicas would break
//!   synchronous SGD), and those values must be the correct
//!   composition of the algorithm's lossy steps.
//!
//! This is how we verify that CaSync-PS, CaSync-Ring, and the
//! baselines implement gradient synchronization correctly, not just
//! quickly.
//!
//! The unit of interpretation is a **flow**: one independently
//! synchronized tensor, identified by the `grad` field of the graph's
//! chunk ids. For CaSync and BytePS a flow is a gradient; for the
//! Horovod baseline a flow is a fusion buffer, the concatenation of
//! the member gradients the graph records for it. Callers build flows
//! from gradients with [`FlowGeometry::inputs`], whatever the
//! strategy.

use crate::graph::{FlowGeometry, Primitive, SendSrc, TaskGraph};
use hipress_compress::Compressor;
use hipress_tensor::Tensor;
use hipress_util::{Error, Result};
use std::collections::HashMap;

/// A value on the wire: raw tensor bytes or a compressed stream.
#[derive(Debug, Clone, PartialEq)]
enum Payload {
    Raw(Vec<f32>),
    Compressed(Vec<u8>),
}

/// Per-(node, chunk) interpreter state.
#[derive(Debug, Default)]
struct Cell {
    /// Local accumulator (starts as the local flow chunk).
    acc: Vec<f32>,
    /// Final installed aggregate.
    updated: Option<Vec<f32>>,
}

/// The interpretation result for one flow.
#[derive(Debug, Clone)]
pub struct FlowOutcome {
    /// The flow id (the `grad` field of its chunks).
    pub flow: u32,
    /// The synchronized tensor each node ended up with (dense,
    /// reassembled from chunks).
    pub per_node: Vec<Vec<f32>>,
}

impl FlowOutcome {
    /// Whether all nodes hold bit-identical results (the consistency
    /// invariant of synchronous data parallel training).
    pub fn replicas_consistent(&self) -> bool {
        self.per_node.windows(2).all(|w| w[0] == w[1])
    }

    /// Maximum absolute difference between node 0's result and a
    /// reference tensor.
    pub fn max_abs_error(&self, reference: &[f32]) -> f32 {
        self.per_node[0]
            .iter()
            .zip(reference)
            .fold(0.0f32, |m, (&a, &b)| m.max((a - b).abs()))
    }
}

/// Executes `graph` with the given per-flow, per-node input tensors.
///
/// # Errors
///
/// Returns an error if the graph is semantically malformed (a decode
/// with nothing received, chunks that do not tile their flow, ...) or
/// if required flow data is missing.
pub fn interpret(
    graph: &TaskGraph,
    nodes: usize,
    flows: &HashMap<u32, Vec<Tensor>>,
    compressor: Option<&dyn Compressor>,
    seed: u64,
) -> Result<Vec<FlowOutcome>> {
    // Debug builds verify the plan before executing it (the installed
    // `hipress-lint` analyzer; a no-op when nothing is installed).
    #[cfg(debug_assertions)]
    crate::graph::run_debug_verifier(graph, nodes)?;
    let geometry = FlowGeometry::of(graph);
    geometry.check(nodes, flows, std::slice::from_ref)?;

    // Dataflow values keyed by producing task: what each `Recv`
    // delivered, what each `Encode` and `Decode` produced. Keying by
    // task (rather than one slot per node) keeps concurrent transfers
    // to the same node from clobbering each other — the dependency
    // edges, not program order, define who reads what.
    let mut recv_payload: HashMap<u32, Payload> = HashMap::new();
    let mut enc_out: HashMap<u32, Vec<u8>> = HashMap::new();
    let mut dec_out: HashMap<u32, Vec<f32>> = HashMap::new();
    let mut send_payload: HashMap<u32, Payload> = HashMap::new();

    // Finds the transitive dependency of `id` matching `pred`,
    // looking through zero-cost barriers.
    let find_dep = |id: crate::graph::TaskId, pred: &dyn Fn(Primitive) -> bool| {
        let mut stack: Vec<crate::graph::TaskId> = graph.task(id).deps.clone();
        while let Some(d) = stack.pop() {
            let dt = graph.task(d);
            if pred(dt.prim) {
                return Some(d);
            }
            if dt.prim == Primitive::Barrier {
                stack.extend(dt.deps.iter().copied());
            }
        }
        None
    };

    let mut cells: HashMap<(usize, u32, u32), Cell> = HashMap::new();
    let order = graph.topo_order()?;
    for id in order {
        let t = graph.task(id);
        let key = (t.node, t.chunk.grad, t.chunk.part);
        match t.prim {
            Primitive::Source => {
                let range = geometry
                    .chunk(t.chunk.grad, t.chunk.part)
                    .expect("every source is a chunk of the geometry");
                let data = &flows[&t.chunk.grad][t.node];
                cells.entry(key).or_default().acc = data.as_slice()[range].to_vec();
            }
            Primitive::Encode => {
                let c = compressor.ok_or_else(|| Error::sim("encode without compressor"))?;
                let cell = cells
                    .get(&key)
                    .ok_or_else(|| Error::sim("encode before source"))?;
                let task_seed = seed ^ (id.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                enc_out.insert(id.0, c.encode(&cell.acc, task_seed));
            }
            Primitive::Decode => {
                let c = compressor.ok_or_else(|| Error::sim("decode without compressor"))?;
                let recv = find_dep(id, &|p| p == Primitive::Recv)
                    .ok_or_else(|| Error::sim("decode without a recv dependency"))?;
                match recv_payload.get(&recv.0) {
                    Some(Payload::Compressed(bytes)) => {
                        dec_out.insert(id.0, c.decode(bytes)?);
                    }
                    Some(Payload::Raw(_)) => {
                        return Err(Error::sim("decode of a raw payload"));
                    }
                    None => return Err(Error::sim("decode before recv delivered")),
                }
            }
            Primitive::Merge => {
                // The contribution is the decode (or raw recv) this
                // merge depends on; the accumulator is the node's cell.
                let contribution: Vec<f32> =
                    if let Some(d) = find_dep(id, &|p| p == Primitive::Decode) {
                        dec_out
                            .get(&d.0)
                            .cloned()
                            .ok_or_else(|| Error::sim("merge before decode"))?
                    } else if let Some(r) = find_dep(id, &|p| p == Primitive::Recv) {
                        match recv_payload.get(&r.0) {
                            Some(Payload::Raw(v)) => v.clone(),
                            Some(Payload::Compressed(_)) => {
                                return Err(Error::sim("raw merge of compressed payload"));
                            }
                            None => return Err(Error::sim("merge before recv delivered")),
                        }
                    } else {
                        return Err(Error::sim("merge with nothing to merge"));
                    };
                let cell = cells
                    .get_mut(&key)
                    .ok_or_else(|| Error::sim("merge with no accumulator"))?;
                if contribution.len() != cell.acc.len() {
                    return Err(Error::sim("merge length mismatch"));
                }
                for (a, b) in cell.acc.iter_mut().zip(contribution) {
                    *a += b;
                }
            }
            Primitive::Send => {
                let payload = match t.send_src {
                    SendSrc::Raw => {
                        let cell = cells
                            .get(&key)
                            .ok_or_else(|| Error::sim("raw send with no state"))?;
                        Payload::Raw(cell.acc.clone())
                    }
                    SendSrc::Encoded => {
                        let e = find_dep(id, &|p| p == Primitive::Encode)
                            .ok_or_else(|| Error::sim("encoded send without encode"))?;
                        Payload::Compressed(
                            enc_out
                                .get(&e.0)
                                .cloned()
                                .ok_or_else(|| Error::sim("send before encode ran"))?,
                        )
                    }
                    SendSrc::Forward => {
                        let r = find_dep(id, &|p| p == Primitive::Recv)
                            .ok_or_else(|| Error::sim("forward without recv"))?;
                        recv_payload
                            .get(&r.0)
                            .cloned()
                            .ok_or_else(|| Error::sim("forward before recv delivered"))?
                    }
                };
                send_payload.insert(id.0, payload);
            }
            Primitive::Recv => {
                let send = find_dep(id, &|p| p == Primitive::Send)
                    .ok_or_else(|| Error::sim("recv without its send"))?;
                let payload = send_payload
                    .get(&send.0)
                    .cloned()
                    .ok_or_else(|| Error::sim("recv before send"))?;
                recv_payload.insert(id.0, payload);
            }
            Primitive::Barrier => {}
            Primitive::Update => {
                let value: Vec<f32> = if let Some(d) = find_dep(id, &|p| p == Primitive::Decode) {
                    dec_out
                        .get(&d.0)
                        .cloned()
                        .ok_or_else(|| Error::sim("update before decode"))?
                } else if let Some(r) = find_dep(id, &|p| p == Primitive::Recv) {
                    match recv_payload.get(&r.0) {
                        Some(Payload::Raw(v)) => v.clone(),
                        Some(Payload::Compressed(_)) => {
                            return Err(Error::sim("raw update of compressed payload"));
                        }
                        None => return Err(Error::sim("update before recv delivered")),
                    }
                } else if let Some(e) = find_dep(id, &|p| p == Primitive::Encode) {
                    // The aggregate's owner installs the reconstruction
                    // of the bytes it disseminated, staying consistent
                    // with every decoding replica.
                    let c = compressor.ok_or_else(|| Error::sim("encode without compressor"))?;
                    let bytes = enc_out
                        .get(&e.0)
                        .ok_or_else(|| Error::sim("update before encode ran"))?;
                    c.decode(bytes)?
                } else {
                    // The aggregator/owner installs its own
                    // accumulator (no-compression path).
                    cells
                        .get(&key)
                        .ok_or_else(|| Error::sim("update with no state"))?
                        .acc
                        .clone()
                };
                let cell = cells
                    .get_mut(&key)
                    .ok_or_else(|| Error::sim("update with no state"))?;
                if value.len() != cell.acc.len() {
                    return Err(Error::sim("update length mismatch"));
                }
                cell.acc = value.clone();
                cell.updated = Some(value);
            }
        }
    }

    geometry.assemble(nodes, |node, f, p| {
        cells.get(&(node, f, p)).and_then(|c| c.updated.as_deref())
    })
}

/// Reference result: the element-wise sum of a flow's tensors across
/// nodes.
pub fn reference_sum(flow: &[Tensor]) -> Vec<f32> {
    let elems = flow[0].len();
    let mut sum = vec![0.0f32; elems];
    for t in flow {
        for (s, &x) in sum.iter_mut().zip(t.as_slice()) {
            *s += x;
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::plan::{CompressionSpec, GradPlan, IterationSpec, SyncGradient};
    use crate::strategy::Strategy;
    use hipress_compress::Algorithm;
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

    /// Without compression, every strategy computes the exact sum on
    /// every node.
    #[test]
    fn uncompressed_sync_is_exact_everywhere() {
        let nodes = 4;
        let sizes = [100usize, 257, 31];
        let grads = worker_grads(nodes, &sizes);
        for strat in Strategy::all() {
            let iter = iter_spec(&sizes, None, 3);
            let cluster = ClusterConfig::ec2(nodes);
            let graph = strat.build(&cluster, &iter).unwrap();
            let flows = FlowGeometry::of(&graph).inputs(&grads).unwrap();
            let out = interpret(&graph, nodes, &flows, None, 7).unwrap();
            assert!(!out.is_empty());
            for o in &out {
                assert!(o.replicas_consistent(), "{strat:?} flow {}", o.flow);
                let reference = reference_sum(&flows[&o.flow]);
                let err = o.max_abs_error(&reference);
                assert!(
                    err < 1e-4,
                    "{strat:?} flow {}: max error {err} vs exact sum",
                    o.flow
                );
            }
        }
    }

    /// With compression, all replicas agree bit-for-bit on every
    /// strategy — the consistency invariant lossy compression must
    /// not break.
    #[test]
    fn compressed_sync_replicas_agree() {
        let nodes = 3;
        let sizes = [512usize, 64];
        let grads = worker_grads(nodes, &sizes);
        for strat in Strategy::all() {
            for alg in [
                Algorithm::OneBit,
                Algorithm::Tbq { tau: 0.05 },
                Algorithm::TernGrad { bitwidth: 2 },
                Algorithm::Dgc { rate: 0.1 },
            ] {
                let iter = iter_spec(&sizes, Some(alg), 2);
                let cluster = ClusterConfig::ec2(nodes);
                let graph = strat.build(&cluster, &iter).unwrap();
                let c = alg.build().unwrap();
                let flows = FlowGeometry::of(&graph).inputs(&grads).unwrap();
                let out = interpret(&graph, nodes, &flows, Some(c.as_ref()), 11).unwrap();
                for o in &out {
                    assert!(
                        o.replicas_consistent(),
                        "{strat:?} {} replicas diverged on flow {}",
                        c.name(),
                        o.flow
                    );
                }
            }
        }
    }

    /// Compressed PS with onebit: the result is close to the true sum
    /// in aggregate statistics (onebit preserves subset means).
    #[test]
    fn onebit_ps_preserves_scale() {
        let nodes = 4;
        let sizes = [4096usize];
        let grads = worker_grads(nodes, &sizes);
        let alg = Algorithm::OneBit;
        let iter = iter_spec(&sizes, Some(alg), 1);
        let cluster = ClusterConfig::ec2(nodes);
        let graph = Strategy::CaSyncPs.build(&cluster, &iter).unwrap();
        let c = alg.build().unwrap();
        let flows = FlowGeometry::of(&graph).inputs(&grads).unwrap();
        let out = interpret(&graph, nodes, &flows, Some(c.as_ref()), 3).unwrap();
        let reference = reference_sum(&flows[&0]);
        let ref_norm: f64 = reference
            .iter()
            .map(|&x| (x as f64).powi(2))
            .sum::<f64>()
            .sqrt();
        let got_norm: f64 = out[0].per_node[0]
            .iter()
            .map(|&x| (x as f64).powi(2))
            .sum::<f64>()
            .sqrt();
        // Same order of magnitude (lossy, but not degenerate).
        assert!(
            got_norm > ref_norm * 0.3 && got_norm < ref_norm * 3.0,
            "norm {got_norm} vs reference {ref_norm}"
        );
    }

    /// The selective plan's `compress: false` routes a gradient raw
    /// even when compression is configured.
    #[test]
    fn selective_compression_mixes_paths() {
        let nodes = 3;
        let sizes = [128usize, 1024];
        let grads = worker_grads(nodes, &sizes);
        let mut iter = iter_spec(&sizes, Some(Algorithm::OneBit), 1);
        iter.gradients[0].plan.compress = false; // Small gradient raw.
        let cluster = ClusterConfig::ec2(nodes);
        let graph = Strategy::CaSyncPs.build(&cluster, &iter).unwrap();
        let c = Algorithm::OneBit.build().unwrap();
        let flows = FlowGeometry::of(&graph).inputs(&grads).unwrap();
        let out = interpret(&graph, nodes, &flows, Some(c.as_ref()), 5).unwrap();
        // The raw gradient must be exact.
        let reference = reference_sum(&flows[&0]);
        assert!(out[0].max_abs_error(&reference) < 1e-4);
        assert!(out[0].replicas_consistent());
        assert!(out[1].replicas_consistent());
    }

    /// TernGrad's stochastic rounding must not break consistency: all
    /// replicas decode the same bytes even though encoding is
    /// randomized.
    #[test]
    fn stochastic_quantization_stays_consistent() {
        let nodes = 5;
        let sizes = [777usize];
        let grads = worker_grads(nodes, &sizes);
        let alg = Algorithm::TernGrad { bitwidth: 2 };
        let iter = iter_spec(&sizes, Some(alg), 3);
        let cluster = ClusterConfig::ec2(nodes);
        for strat in [Strategy::CaSyncPs, Strategy::CaSyncRing] {
            let graph = strat.build(&cluster, &iter).unwrap();
            let c = alg.build().unwrap();
            let flows = FlowGeometry::of(&graph).inputs(&grads).unwrap();
            let out = interpret(&graph, nodes, &flows, Some(c.as_ref()), 999).unwrap();
            assert!(out[0].replicas_consistent(), "{strat:?}");
        }
    }
}
