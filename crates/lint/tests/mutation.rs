//! Mutation-style property test for the plan verifier.
//!
//! Valid graphs come from the real strategy builders across the full
//! algorithm x strategy x cluster-size x partitioning matrix; defects
//! are injected with seeded mutations. The verifier must flag every
//! mutated graph (100% defect detection) and pass every unmutated
//! graph with zero diagnostics (zero false positives).

use hipress_chaos::Wire;
use hipress_compress::Algorithm;
use hipress_core::graph::{Primitive, SendSrc};
use hipress_core::{
    ClusterConfig, CompressionSpec, GradPlan, IterationSpec, Strategy, SyncGradient, TaskGraph,
    TaskId,
};
use hipress_lint::{compose, verify_composed, verify_graph, verify_pipelined, Code, PipelineSpec};
use hipress_runtime::protocol::{Envelope, LinkTuning, RelRx, RelTx, RxVerdict};
use hipress_runtime::Payload;
use hipress_util::rng::{Rng64, Xoshiro256};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ALGORITHMS: [Option<Algorithm>; 6] = [
    None,
    Some(Algorithm::OneBit),
    Some(Algorithm::Tbq { tau: 0.05 }),
    Some(Algorithm::TernGrad { bitwidth: 2 }),
    Some(Algorithm::Dgc { rate: 0.001 }),
    Some(Algorithm::GradDrop { rate: 0.01 }),
];
const NODE_COUNTS: [usize; 3] = [2, 3, 5];
const PARTITIONS: [usize; 2] = [1, 3];

fn spec(algorithm: Option<Algorithm>, partitions: usize) -> IterationSpec {
    let compressor = algorithm.and_then(|a| a.build());
    // Large, medium, and tiny (zero-chunk-producing at K=3 on small
    // element counts) gradients.
    let sizes = [4096u64, 65536, 260];
    IterationSpec {
        gradients: sizes
            .iter()
            .enumerate()
            .map(|(g, &bytes)| SyncGradient {
                name: format!("g{g}"),
                bytes,
                ready_offset_ns: (sizes.len() - g) as u64 * 1000,
                plan: GradPlan {
                    compress: compressor.is_some(),
                    partitions,
                },
            })
            .collect(),
        compression: compressor.as_deref().map(CompressionSpec::of),
    }
}

fn build(strategy: Strategy, nodes: usize, iter: &IterationSpec) -> TaskGraph {
    strategy
        .build(&ClusterConfig::ec2(nodes), iter)
        .expect("builders produce valid graphs")
}

#[derive(Debug, Clone, Copy)]
enum Mutation {
    /// Remove one dependency edge (every builder edge is
    /// load-bearing).
    DropDep,
    /// Flip a Send's source to a different `SendSrc` variant.
    SwapSendSrc,
    /// Point a Recv at a different peer node.
    RetargetRecv,
    /// Corrupt a Recv's wire size so it disagrees with its Send.
    CorruptWire,
}

const MUTATIONS: [Mutation; 4] = [
    Mutation::DropDep,
    Mutation::SwapSendSrc,
    Mutation::RetargetRecv,
    Mutation::CorruptWire,
];

/// Applies the mutation to a random eligible task; returns a
/// description, or `None` when the graph has no eligible task.
fn apply(graph: &mut TaskGraph, m: Mutation, nodes: usize, rng: &mut Xoshiro256) -> Option<String> {
    let pick =
        |graph: &TaskGraph, rng: &mut Xoshiro256, f: &dyn Fn(&&_) -> bool| -> Option<TaskId> {
            let ids: Vec<TaskId> = graph.tasks().iter().filter(f).map(|t| t.id).collect();
            (!ids.is_empty()).then(|| ids[rng.index(ids.len())])
        };
    match m {
        Mutation::DropDep => {
            let id = pick(graph, rng, &|t| !t.deps.is_empty())?;
            let t = graph.task_mut(id);
            let victim = rng.index(t.deps.len());
            let dropped = t.deps.remove(victim);
            Some(format!("dropped dep {dropped:?} of {id:?}"))
        }
        Mutation::SwapSendSrc => {
            let id = pick(graph, rng, &|t| t.prim == Primitive::Send)?;
            let t = graph.task_mut(id);
            let others: [SendSrc; 2] = match t.send_src {
                SendSrc::Raw => [SendSrc::Encoded, SendSrc::Forward],
                SendSrc::Encoded => [SendSrc::Raw, SendSrc::Forward],
                SendSrc::Forward => [SendSrc::Raw, SendSrc::Encoded],
            };
            let new = others[rng.index(2)];
            let old = t.send_src;
            t.send_src = new;
            Some(format!("swapped {id:?} send_src {old:?} -> {new:?}"))
        }
        Mutation::RetargetRecv => {
            let id = pick(graph, rng, &|t| t.prim == Primitive::Recv)?;
            let t = graph.task_mut(id);
            let old = t.peer.expect("builders set recv peers");
            let new = (old + 1) % nodes;
            t.peer = Some(new);
            Some(format!("retargeted {id:?} peer {old} -> {new}"))
        }
        Mutation::CorruptWire => {
            let id = pick(graph, rng, &|t| t.prim == Primitive::Recv)?;
            let t = graph.task_mut(id);
            t.bytes_wire += 4;
            Some(format!("corrupted {id:?} wire size"))
        }
    }
}

/// Every unmutated builder graph across the whole matrix is
/// diagnostic-free — warnings included.
#[test]
fn unmutated_graphs_are_clean_across_matrix() {
    for strategy in Strategy::all() {
        for algorithm in ALGORITHMS {
            for nodes in NODE_COUNTS {
                for partitions in PARTITIONS {
                    let graph = build(strategy, nodes, &spec(algorithm, partitions));
                    let report = verify_graph(&graph, nodes);
                    assert!(
                        report.is_clean(),
                        "{strategy:?} x {algorithm:?} x {nodes} nodes x K={partitions}:\n{}",
                        report.render()
                    );
                }
            }
        }
    }
}

/// Every seeded defect injection on every CaSync configuration is
/// detected as at least one error.
#[test]
fn every_seeded_defect_is_detected() {
    let mut rng = Xoshiro256::new(0x11BE55);
    let mut injections = 0usize;
    for strategy in [Strategy::CaSyncPs, Strategy::CaSyncRing] {
        for algorithm in ALGORITHMS {
            for nodes in NODE_COUNTS {
                for partitions in PARTITIONS {
                    let iter = spec(algorithm, partitions);
                    for mutation in MUTATIONS {
                        // Several random picks per mutation kind, so
                        // the eligible-task sampling covers different
                        // primitives and pipeline stages.
                        for _ in 0..3 {
                            let mut graph = build(strategy, nodes, &iter);
                            let Some(what) = apply(&mut graph, mutation, nodes, &mut rng) else {
                                continue;
                            };
                            let report = verify_graph(&graph, nodes);
                            assert!(
                                report.error_count() >= 1,
                                "{strategy:?} x {algorithm:?} x {nodes} nodes x K={partitions}: \
                                 undetected defect ({what})\n{}",
                                report.render()
                            );
                            injections += 1;
                        }
                    }
                }
            }
        }
    }
    // 2 strategies x 6 algorithm settings x 3 node counts x
    // 2 partitionings x 4 mutations x 3 trials.
    assert_eq!(
        injections,
        2 * 6 * 3 * 2 * 4 * 3,
        "matrix not fully covered"
    );
}

// -------------------------------------------------------------------
// Pipelined-plan mutations: defects that only exist when iterations
// overlap. Each class is injected into the pipelined composition of a
// real strategy graph — either by declaring an unsafe buffer pool
// (slots <= window) or by tampering with the admission barriers the
// composition synthesizes — and the cross-iteration checks (P017,
// P018, P019) must flag every injection while the untampered
// composition stays clean at every window.
// -------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum PipelineMutation {
    /// Reuse one buffer generation per chunk under window 2: two
    /// in-flight iterations share every slot. Must race (P017) — and
    /// the *same* single-slot pool must stay clean at window 1, where
    /// admission orders the reuse; the defect exists only pipelined.
    ReuseBufferSlot,
    /// Strip the cross-iteration completion deps from every admission
    /// barrier (keep only the barrier chain): iteration j no longer
    /// waits for j - window, so sends outrun consumption (P018).
    DropAdmissionEdges,
    /// Disconnect one node's later admission barrier entirely: the
    /// node no longer admits iterations in order (P019).
    ScrambleAdmission,
}

const PIPELINE_MUTATIONS: [PipelineMutation; 3] = [
    PipelineMutation::ReuseBufferSlot,
    PipelineMutation::DropAdmissionEdges,
    PipelineMutation::ScrambleAdmission,
];

/// The compact strategy matrix the pipelined checks sweep; smaller
/// than the single-iteration matrix because each cell composes and
/// re-verifies several unrollings.
fn pipeline_matrix() -> Vec<(Strategy, usize, TaskGraph)> {
    let mut out = Vec::new();
    for strategy in [Strategy::CaSyncPs, Strategy::CaSyncRing] {
        for algorithm in [None, Some(Algorithm::OneBit)] {
            for nodes in [2usize, 3] {
                for partitions in PARTITIONS {
                    let graph = build(strategy, nodes, &spec(algorithm, partitions));
                    out.push((strategy, nodes, graph));
                }
            }
        }
    }
    out
}

/// Every strategy graph pipelines clean at windows 1, 2, and 4 with
/// per-window buffering — zero false positives from the
/// cross-iteration checks across the matrix.
#[test]
fn unmutated_pipelines_are_clean_across_windows() {
    for (strategy, nodes, graph) in pipeline_matrix() {
        for window in [1u32, 2, 4] {
            let report = verify_pipelined(&graph, nodes, &PipelineSpec::unshared(8, window));
            assert!(
                report.is_clean(),
                "{strategy:?} x {nodes} nodes x window {window}:\n{}",
                report.render()
            );
        }
    }
}

/// Every pipelined defect class is detected on every matrix cell with
/// the diagnostic code that names it.
#[test]
fn every_pipelined_defect_is_detected() {
    let mut rng = Xoshiro256::new(0x9199_11E5);
    let mut injections = 0usize;
    for (strategy, nodes, graph) in pipeline_matrix() {
        for mutation in PIPELINE_MUTATIONS {
            let (report, code) = match mutation {
                PipelineMutation::ReuseBufferSlot => {
                    let serial = PipelineSpec {
                        iterations: 4,
                        window: 1,
                        slots: 1,
                    };
                    let clean = verify_pipelined(&graph, nodes, &serial);
                    assert!(
                        !clean.has(Code::CrossIterRace),
                        "{strategy:?} x {nodes}: single-slot pool raced at window 1\n{}",
                        clean.render()
                    );
                    let shared = PipelineSpec {
                        iterations: 4,
                        window: 2,
                        slots: 1,
                    };
                    (
                        verify_pipelined(&graph, nodes, &shared),
                        Code::CrossIterRace,
                    )
                }
                PipelineMutation::DropAdmissionEdges => {
                    let mut c = compose(&graph, &PipelineSpec::unshared(4, 2));
                    for &adm in c.admissions.clone().values() {
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
                    (verify_composed(&c), Code::QueueGrowth)
                }
                PipelineMutation::ScrambleAdmission => {
                    let mut c = compose(&graph, &PipelineSpec::unshared(3, 1));
                    // A random node's second barrier loses every
                    // ordering edge.
                    let victim = rng.index(nodes);
                    let adm = c.admissions[&(2, victim)];
                    c.graph.task_mut(adm).deps.clear();
                    (verify_composed(&c), Code::AdmissionInversion)
                }
            };
            assert!(
                report.has(code),
                "{strategy:?} x {nodes} nodes: {mutation:?} undetected (want {code:?})\n{}",
                report.render()
            );
            injections += 1;
        }
    }
    // 2 strategies x 2 algorithm settings x 2 node counts x
    // 2 partitionings x 3 mutation classes.
    assert_eq!(injections, 2 * 2 * 2 * 2 * 3, "matrix not fully covered");
}

// -------------------------------------------------------------------
// Fault-envelope mutations: the wire-integrity analogue of the plan
// mutations above. Instead of seeding defects into task graphs and
// asking the verifier to flag them, these seed defects into the
// runtime's fault-tolerant envelopes and ask the protocol layer
// (checksum verify, sequence dedup, retry budget) to catch them.
// -------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum EnvMutation {
    /// Flip one bit of the carried checksum; the envelope must fail
    /// verification and be nacked, never delivered.
    CorruptChecksum,
    /// Flip one bit of the payload (raw f32 words or compressed
    /// bytes); the digest must no longer match.
    CorruptPayloadBit,
    /// Deliver the same sequence number twice (a late
    /// retransmission); the second arrival must be classified as a
    /// duplicate, not re-delivered.
    ReplaySeq,
    /// Suppress every acknowledgement; the sender must retransmit
    /// with backoff and then declare the link dead, naming the task.
    DropAck,
}

const ENV_MUTATIONS: [EnvMutation; 4] = [
    EnvMutation::CorruptChecksum,
    EnvMutation::CorruptPayloadBit,
    EnvMutation::ReplaySeq,
    EnvMutation::DropAck,
];

/// The payload shapes an envelope can carry: plain completions, raw
/// gradients (odd element count), compressed bitstreams (length not a
/// multiple of the 8-byte digest word), and degradation holes.
fn payload_variants(rng: &mut Xoshiro256) -> [Option<Arc<Payload>>; 4] {
    let raw: Vec<f32> = (0..97).map(|_| rng.next_f32() * 8.0 - 4.0).collect();
    let compressed: Vec<u8> = (0..61).map(|_| rng.next_u32() as u8).collect();
    [
        None,
        Some(Arc::new(Payload::Raw(raw))),
        Some(Arc::new(Payload::Compressed(compressed))),
        Some(Arc::new(Payload::Skipped)),
    ]
}

/// The envelope link under test: a 1 ms first timeout capped at 8 ms.
fn env_tx(retry_budget: u32, now: Instant) -> RelTx<Envelope> {
    let tuning = LinkTuning {
        retry_budget,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(8),
        ..LinkTuning::default()
    };
    RelTx::for_items(1, tuning, now)
}

/// Unmutated envelopes are clean across every payload shape: they
/// verify, deliver exactly once, and an acknowledged link goes idle
/// with nothing left to retransmit — zero false positives.
#[test]
fn unmutated_envelopes_are_clean() {
    let mut rng = Xoshiro256::new(0xC1EA);
    for (seq, payload) in payload_variants(&mut rng).into_iter().enumerate() {
        let now = Instant::now();
        let mut tx = env_tx(3, now);
        let mut rx = RelRx::new();
        let env = tx.admit(now, |s| {
            Envelope::data(1, s, TaskId(40 + seq as u32), payload)
        });
        assert!(env.verify(), "sealed envelope must verify");
        assert_eq!(rx.accept(&env), RxVerdict::Deliver);
        assert!(tx.on_ack(env.seq), "ack must retire the envelope");
        assert!(tx.idle(), "acked link must hold no in-flight state");
        assert!(
            tx.due(now + Duration::from_secs(60)).unwrap().is_empty(),
            "nothing to retransmit after the ack"
        );
    }
}

/// Every seeded envelope defect across payload shapes and seeds is
/// caught by the integrity layer: corruption is detected (and the
/// clean retransmission still delivers), replays dedup, and dropped
/// acks end in a dead link naming the task.
#[test]
fn every_seeded_envelope_mutation_is_caught() {
    let mut rng = Xoshiro256::new(0xE77E10);
    let mut injections = 0usize;
    for round in 0..4u64 {
        for (pi, payload) in payload_variants(&mut rng).into_iter().enumerate() {
            for mutation in ENV_MUTATIONS {
                let task = TaskId((round * 10 + pi as u64) as u32);
                let env = Envelope::data(pi, round, task, payload.clone());
                let mut rx = RelRx::new();
                match mutation {
                    EnvMutation::CorruptChecksum => {
                        let mut bad = env.clone();
                        bad.checksum ^= 1u64 << rng.index(64);
                        assert!(!bad.verify(), "corrupt checksum went undetected");
                        assert_eq!(rx.accept(&bad), RxVerdict::Corrupt);
                        // The clean retransmission must still deliver:
                        // corrupt arrivals are not marked seen.
                        assert_eq!(rx.accept(&env), RxVerdict::Deliver);
                    }
                    EnvMutation::CorruptPayloadBit => {
                        let bits = env.payload_bits();
                        if bits == 0 {
                            // No corruptible bits (no payload, or a
                            // degradation hole): not eligible.
                            continue;
                        }
                        let mut bad = env.clone();
                        bad.flip_bit(rng.next_below(bits));
                        assert!(!bad.verify(), "payload bitflip went undetected");
                        assert_eq!(rx.accept(&bad), RxVerdict::Corrupt);
                        assert_eq!(rx.accept(&env), RxVerdict::Deliver);
                    }
                    EnvMutation::ReplaySeq => {
                        assert_eq!(rx.accept(&env), RxVerdict::Deliver);
                        // A late retransmission carries a bumped
                        // attempt but the original digest.
                        let mut replay = env.clone();
                        replay.attempt += 1;
                        assert!(replay.verify(), "retransmission digest must hold");
                        assert_eq!(
                            rx.accept(&replay),
                            RxVerdict::Duplicate,
                            "replayed seq was delivered twice"
                        );
                    }
                    EnvMutation::DropAck => {
                        let budget = 3u32;
                        let now = Instant::now();
                        let mut tx = env_tx(budget, now);
                        let sent = tx.admit(now, |s| Envelope::data(pi, s, task, payload.clone()));
                        // With every ack dropped, each expiry bumps
                        // the attempt until the budget is exhausted.
                        let mut clock = now;
                        for expected in 1..=budget {
                            clock += Duration::from_millis(20);
                            let resent = tx.due(clock).expect("within the retry budget");
                            assert_eq!(resent.len(), 1);
                            assert_eq!(resent[0].attempt, expected);
                            assert!(resent[0].verify());
                        }
                        clock += Duration::from_millis(20);
                        let dead = tx.due(clock).expect_err("budget exhausted");
                        assert_eq!(dead.seq, sent.seq);
                        let unacked = tx.get(dead.seq).and_then(Envelope::data_task);
                        assert_eq!(unacked, Some(task), "dead link must name the task");
                        assert_eq!(dead.attempts, budget + 1);
                    }
                }
                injections += 1;
            }
        }
    }
    // 4 rounds x 4 payload shapes x 4 mutations, minus the
    // payload-bitflip cells with nothing to flip (None and Skipped).
    assert_eq!(injections, 4 * 4 * 4 - 4 * 2, "matrix not fully covered");
}
