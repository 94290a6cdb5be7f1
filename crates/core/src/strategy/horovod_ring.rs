//! The Horovod-style baseline Ring-allreduce.
//!
//! Gradients are batched into 64 MiB *fusion buffers* in readiness
//! order; each buffer is ring-allreduced as one collective. Two
//! properties distinguish this baseline from CaSync-Ring:
//!
//! * **collectives serialize**: the communication runtime executes
//!   one collective at a time (a single NCCL stream / MPI context),
//!   so buffer `b+1` starts only after buffer `b` completes;
//! * **steps are bulk synchronous** when compression is coupled in
//!   (the Ring-DGC co-design, §2.5): the collective is a "global,
//!   atomic, bulk synchronization operation" — every ring step is a
//!   barrier across all chunks, so compression kernels cannot overlap
//!   the next step's communication.
//!
//! Without compression the per-buffer ring is the classic
//! bandwidth-optimal algorithm and the barrier costs little (chunks
//! are symmetric); with compression, the barrier plus the hop-serial
//! encode/decode chain is exactly what dilutes the compression
//! benefit in Table 1.

use crate::graph::{Primitive, SendSrc, TaskGraph, TaskId};
use crate::plan::IterationSpec;
use crate::strategy::util::{chunk_sizes, Emit};

/// Horovod's default fusion buffer size.
const FUSION_BYTES: u64 = 64 * 1024 * 1024;

/// A fusion buffer: a contiguous batch of gradients.
#[derive(Debug, Clone)]
struct Buffer {
    /// Gradient indices fused into this buffer.
    grads: Vec<usize>,
    /// Total bytes.
    bytes: u64,
    /// Ready when the latest member gradient is ready.
    ready_ns: u64,
}

/// Groups gradients into fusion buffers in readiness order.
fn fuse(iter: &IterationSpec) -> Vec<Buffer> {
    let mut order: Vec<usize> = (0..iter.gradients.len()).collect();
    order.sort_by_key(|&g| (iter.gradients[g].ready_offset_ns, g));
    let mut buffers: Vec<Buffer> = Vec::new();
    let mut current = Buffer {
        grads: Vec::new(),
        bytes: 0,
        ready_ns: 0,
    };
    for g in order {
        let bytes = iter.gradients[g].bytes;
        if !current.grads.is_empty() && current.bytes + bytes > FUSION_BYTES {
            buffers.push(std::mem::replace(
                &mut current,
                Buffer {
                    grads: Vec::new(),
                    bytes: 0,
                    ready_ns: 0,
                },
            ));
        }
        current.grads.push(g);
        current.bytes += bytes;
        current.ready_ns = current.ready_ns.max(iter.gradients[g].ready_offset_ns);
    }
    if !current.grads.is_empty() {
        buffers.push(current);
    }
    buffers
}

/// Builds the Horovod-Ring task graph for one iteration on `n` nodes.
pub(crate) fn build(n: usize, iter: &IterationSpec) -> TaskGraph {
    let mut graph = TaskGraph::new();
    let mut e = Emit {
        graph: &mut graph,
        iter,
    };
    let compressed = iter.compression.is_some();
    let buffers = fuse(iter);
    // The previous collective's completion tasks, gating the next.
    let mut prev_done: Vec<TaskId> = Vec::new();
    for buf in &buffers {
        // The buffer is identified by its first gradient; chunk index
        // enumerates the ring chunks.
        let lead = buf.grads[0];
        let members = buf
            .grads
            .iter()
            .map(|&g| (g as u32, (iter.gradients[g].bytes / 4) as usize));
        e.graph.set_flow_members(lead as u32, members.collect());
        let chunks = chunk_sizes(buf.bytes, n);
        // Sources of the fused buffer on each node, one per ring
        // chunk: ready when the last member gradient is ready AND the
        // previous collective is done (collectives serialize).
        let mut sources: Vec<Vec<TaskId>> = Vec::with_capacity(n);
        for w in 0..n {
            let gate: Vec<TaskId> = prev_done
                .iter()
                .filter(|d| e.graph.task(**d).node == w)
                .copied()
                .collect();
            let mut per_part = Vec::with_capacity(n);
            for (c, &chunk_bytes) in chunks.iter().enumerate() {
                per_part.push(e.graph.add(crate::graph::TaskNode {
                    id: crate::graph::TaskId(u32::MAX),
                    node: w,
                    prim: Primitive::Source,
                    chunk: crate::graph::ChunkId {
                        grad: lead as u32,
                        part: c as u32,
                    },
                    bytes_raw: chunk_bytes,
                    bytes_wire: chunk_bytes,
                    peer: None,
                    send_src: SendSrc::Raw,
                    deps: gate.clone(),
                    earliest_ns: buf.ready_ns,
                    at_aggregator: false,
                }));
            }
            sources.push(per_part);
        }
        let mut done: Vec<TaskId> = Vec::new();

        // Per-chunk ring with (optionally) a global barrier per step.
        // State per chunk: the task whose completion lets the chunk
        // proceed, and which node holds it.
        let mut carry: Vec<TaskId> = Vec::with_capacity(n);
        let mut holder: Vec<usize> = Vec::with_capacity(n);
        for c in 0..n {
            let owner = c; // Chunk c is owned by node c.
            carry.push(sources[(owner + 1) % n][c]);
            holder.push((owner + 1) % n);
        }
        // Aggregation steps.
        for _step in 0..n - 1 {
            let mut step_tasks: Vec<TaskId> = Vec::new();
            for (c, &chunk_bytes) in chunks.iter().enumerate() {
                if chunk_bytes == 0 {
                    continue;
                }
                let u = holder[c];
                let v = (u + 1) % n;
                let wire = wire_for(iter, chunk_bytes);
                let ready = if compressed {
                    e.compute(
                        Primitive::Encode,
                        u,
                        lead,
                        c,
                        chunk_bytes,
                        wire,
                        vec![carry[c]],
                    )
                } else {
                    carry[c]
                };
                let src = if compressed {
                    SendSrc::Encoded
                } else {
                    SendSrc::Raw
                };
                let (_, recv) = e.send_recv(u, v, lead, c, chunk_bytes, wire, src, vec![ready]);
                let contribution = if compressed {
                    e.compute(Primitive::Decode, v, lead, c, chunk_bytes, wire, vec![recv])
                } else {
                    recv
                };
                let merge = e.compute(
                    Primitive::Merge,
                    v,
                    lead,
                    c,
                    chunk_bytes,
                    wire,
                    vec![contribution, sources[v][c]],
                );
                carry[c] = merge;
                holder[c] = v;
                step_tasks.push(merge);
            }
            if compressed {
                // Bulk-synchronous step: all chunks complete the step
                // before any proceeds.
                let barrier = e.barrier(0, lead, step_tasks.clone());
                for c in 0..carry.len() {
                    if chunks[c] > 0 {
                        // Chain the barrier into each chunk's carry.
                        carry[c] = e.barrier(holder[c], lead, vec![carry[c], barrier]);
                    }
                }
            }
        }
        // Dissemination steps (allgather).
        let mut outgoing: Vec<TaskId> = Vec::new();
        for (c, &chunk_bytes) in chunks.iter().enumerate() {
            if chunk_bytes == 0 {
                outgoing.push(carry[c]);
                continue;
            }
            let owner = holder[c];
            let out = if compressed {
                e.compute(
                    Primitive::Encode,
                    owner,
                    lead,
                    c,
                    chunk_bytes,
                    wire_for(iter, chunk_bytes),
                    vec![carry[c]],
                )
            } else {
                carry[c]
            };
            // The owner installs the reconstruction of what it
            // disseminates (the raw sum when uncompressed).
            let upd = e.compute(
                Primitive::Update,
                owner,
                lead,
                c,
                chunk_bytes,
                wire_for(iter, chunk_bytes),
                vec![out],
            );
            done.push(upd);
            outgoing.push(out);
        }
        for step in 0..n - 1 {
            let mut step_tasks: Vec<TaskId> = Vec::new();
            for (c, &chunk_bytes) in chunks.iter().enumerate() {
                if chunk_bytes == 0 {
                    continue;
                }
                let from = holder[c];
                let to = (from + 1) % n;
                let wire = wire_for(iter, chunk_bytes);
                // Only the first hop sends the owner's own buffer;
                // later hops forward the payload just received. Raw
                // on later hops would re-read the local accumulator,
                // racing with the concurrent Update that installs the
                // received value into it.
                let src = match (compressed, step) {
                    (false, 0) => SendSrc::Raw,
                    (true, 0) => SendSrc::Encoded,
                    (_, _) => SendSrc::Forward,
                };
                let (_, recv) =
                    e.send_recv(from, to, lead, c, chunk_bytes, wire, src, vec![outgoing[c]]);
                let installed = if compressed {
                    e.compute(
                        Primitive::Decode,
                        to,
                        lead,
                        c,
                        chunk_bytes,
                        wire,
                        vec![recv],
                    )
                } else {
                    recv
                };
                let upd = e.compute(
                    Primitive::Update,
                    to,
                    lead,
                    c,
                    chunk_bytes,
                    wire,
                    vec![installed],
                );
                done.push(upd);
                outgoing[c] = recv;
                holder[c] = to;
                step_tasks.push(upd);
            }
            if compressed {
                let barrier = e.barrier(0, lead, step_tasks.clone());
                for c in 0..outgoing.len() {
                    if chunks[c] > 0 {
                        outgoing[c] = e.barrier(holder[c], lead, vec![outgoing[c], barrier]);
                    }
                }
            }
        }
        prev_done = done;
    }
    graph
}

fn wire_for(iter: &IterationSpec, chunk_bytes: u64) -> u64 {
    match iter.compression {
        Some(spec) => spec.compressed_bytes(chunk_bytes),
        None => chunk_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{CompressionSpec, GradPlan, SyncGradient};
    use hipress_compress::Algorithm;

    fn spec(sizes: &[u64], compress: bool) -> IterationSpec {
        IterationSpec {
            gradients: sizes
                .iter()
                .enumerate()
                .map(|(i, &bytes)| SyncGradient {
                    name: format!("g{i}"),
                    bytes,
                    ready_offset_ns: (sizes.len() - i) as u64 * 1_000_000,
                    plan: GradPlan::raw(),
                })
                .collect(),
            compression: compress.then(|| {
                CompressionSpec::of(Algorithm::Dgc { rate: 0.01 }.build().unwrap().as_ref())
            }),
        }
    }

    #[test]
    fn fusion_respects_64mib_and_readiness_order() {
        let sizes = vec![40 << 20, 40 << 20, 10 << 20, 5 << 20];
        let iter = spec(&sizes, false);
        let buffers = fuse(&iter);
        // Readiness order is reverse index (backward pass): g3 first.
        // g3(5M)+g2(10M)+g1(40M) = 55M fits; g0 starts a new buffer.
        assert_eq!(buffers.len(), 2);
        assert_eq!(buffers[0].grads, vec![3, 2, 1]);
        assert_eq!(buffers[1].grads, vec![0]);
        assert!(buffers[0].bytes <= FUSION_BYTES);
    }

    #[test]
    fn oversized_gradient_gets_own_buffer() {
        let iter = spec(&[100 << 20], false);
        let buffers = fuse(&iter);
        assert_eq!(buffers.len(), 1);
        assert_eq!(buffers[0].bytes, 100 << 20);
    }

    #[test]
    fn raw_ring_valid_and_barrier_free() {
        let n = 4;
        let g = build(n, &spec(&[16 << 20, 8 << 20], false));
        g.topo_order().unwrap();
        assert_eq!(g.count(Primitive::Barrier), 0);
        assert_eq!(g.count(Primitive::Encode), 0);
    }

    #[test]
    fn compressed_ring_is_bulk_synchronous() {
        let n = 4;
        let g = build(n, &spec(&[16 << 20], true));
        g.topo_order().unwrap();
        assert!(
            g.count(Primitive::Barrier) > 0,
            "coupled compression must barrier"
        );
        assert!(g.count(Primitive::Encode) > 0);
    }

    #[test]
    fn collectives_serialize_across_buffers() {
        let n = 3;
        // Two buffers: the second buffer's sources must depend on the
        // first buffer's updates (same node).
        let g = build(n, &spec(&[60 << 20, 60 << 20], false));
        g.topo_order().unwrap();
        let sources: Vec<_> = g
            .tasks()
            .iter()
            .filter(|t| t.prim == Primitive::Source && !t.deps.is_empty())
            .collect();
        // One source per (node, ring chunk) of the second buffer.
        assert_eq!(sources.len(), n * n, "second buffer's sources are gated");
        for s in sources {
            assert!(s
                .deps
                .iter()
                .all(|d| g.task(*d).prim == Primitive::Update && g.task(*d).node == s.node));
        }
    }

    #[test]
    fn every_node_updates_every_chunk() {
        let n = 4;
        let g = build(n, &spec(&[16 << 20], false));
        assert_eq!(g.count(Primitive::Update), n * n); // n chunks × n nodes.
    }
}
