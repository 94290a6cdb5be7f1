//! Randomized property tests of the synchronization protocols: for
//! arbitrary gradient mixes, partition counts, and cluster sizes,
//! every strategy must build a valid graph whose semantics are exact
//! (no compression) or replica-consistent (with compression).
//!
//! Cases are drawn from the workspace's own deterministic PRNGs
//! (`hipress_util::rng`), so the suite is reproducible offline with
//! no external dependencies.

use hipress_compress::Algorithm;
use hipress_core::graph::FlowGeometry;
use hipress_core::interp::{interpret, reference_sum};
use hipress_core::Strategy as SyncStrategy;
use hipress_core::{
    ClusterConfig, CompressionSpec, ExecConfig, Executor, GradPlan, IterationSpec, SyncGradient,
};
use hipress_tensor::synth::{generate, GradientShape};
use hipress_tensor::Tensor;
use hipress_util::rng::{Rng64, Xoshiro256};

const CASES: usize = 24;

/// An arbitrary iteration: 1..5 gradients of 1..300 elements, each
/// with its own partition count and compression choice.
fn arb_iteration(rng: &mut impl Rng64) -> (Vec<(usize, usize, bool)>, u64) {
    let n = rng.range_u64(1, 5) as usize;
    let grads = (0..n)
        .map(|_| {
            (
                rng.range_u64(1, 300) as usize,
                rng.range_u64(1, 6) as usize,
                rng.bernoulli(0.5),
            )
        })
        .collect();
    (grads, rng.next_u64())
}

fn build_spec(
    grads: &[(usize, usize, bool)],
    compression: Option<CompressionSpec>,
) -> IterationSpec {
    IterationSpec {
        gradients: grads
            .iter()
            .enumerate()
            .map(|(i, &(elems, parts, compress))| SyncGradient {
                name: format!("g{i}"),
                bytes: (elems * 4) as u64,
                ready_offset_ns: (i as u64) * 10_000,
                plan: GradPlan {
                    compress,
                    partitions: parts,
                },
            })
            .collect(),
        compression,
    }
}

fn worker_grads(nodes: usize, grads: &[(usize, usize, bool)], seed: u64) -> Vec<Vec<Tensor>> {
    (0..nodes)
        .map(|w| {
            grads
                .iter()
                .enumerate()
                .map(|(g, &(elems, _, _))| {
                    generate(
                        elems,
                        GradientShape::Gaussian { std_dev: 1.0 },
                        seed ^ ((w * 131 + g) as u64),
                    )
                })
                .collect()
        })
        .collect()
}

/// Uncompressed: every strategy computes the exact sum everywhere,
/// for arbitrary gradient mixes and cluster sizes.
#[test]
fn uncompressed_sum_exact() {
    let mut rng = Xoshiro256::new(0x5150_0001);
    for _ in 0..CASES {
        let (grads, seed) = arb_iteration(&mut rng);
        let nodes = rng.range_u64(2, 6) as usize;
        let iter = build_spec(&grads, None);
        let cluster = ClusterConfig::ec2(nodes);
        let data = worker_grads(nodes, &grads, seed);
        for strat in SyncStrategy::all() {
            let graph = strat.build(&cluster, &iter).unwrap();
            let lint = hipress_lint::verify_graph(&graph, nodes);
            assert!(lint.is_clean(), "{strat:?}:\n{}", lint.render());
            let flows = FlowGeometry::of(&graph).inputs(&data).unwrap();
            let out = interpret(&graph, nodes, &flows, None, seed).unwrap();
            for o in &out {
                assert!(o.replicas_consistent(), "{strat:?}");
                let reference = reference_sum(&flows[&o.flow]);
                assert!(
                    o.max_abs_error(&reference) < 1e-3,
                    "{strat:?} flow {}: wrong sum",
                    o.flow
                );
            }
        }
    }
}

/// Compressed: replicas stay bit-identical under every strategy.
#[test]
fn compressed_replicas_identical() {
    let mut rng = Xoshiro256::new(0x5150_0002);
    for _ in 0..CASES {
        let (grads, seed) = arb_iteration(&mut rng);
        let nodes = rng.range_u64(2, 5) as usize;
        let alg = Algorithm::OneBit;
        let c = alg.build().unwrap();
        let iter = build_spec(&grads, Some(CompressionSpec::of(c.as_ref())));
        let cluster = ClusterConfig::ec2(nodes);
        let data = worker_grads(nodes, &grads, seed);
        for strat in SyncStrategy::all() {
            let graph = strat.build(&cluster, &iter).unwrap();
            let flows = FlowGeometry::of(&graph).inputs(&data).unwrap();
            let out = interpret(&graph, nodes, &flows, Some(c.as_ref()), seed).unwrap();
            for o in &out {
                assert!(o.replicas_consistent(), "{strat:?} flow {}", o.flow);
            }
        }
    }
}

/// The executor terminates with a finite makespan on arbitrary
/// graphs, and every gradient finishes no later than the makespan.
#[test]
fn executor_always_terminates() {
    let mut rng = Xoshiro256::new(0x5150_0003);
    for _ in 0..CASES {
        let (grads, _seed) = arb_iteration(&mut rng);
        let nodes = rng.range_u64(2, 5) as usize;
        let compressed = rng.bernoulli(0.5);
        let compression = if compressed {
            Some(CompressionSpec::of(
                Algorithm::Dgc { rate: 0.1 }.build().unwrap().as_ref(),
            ))
        } else {
            None
        };
        let iter = build_spec(&grads, compression);
        let cluster = ClusterConfig::ec2(nodes);
        for strat in SyncStrategy::all() {
            let graph = strat.build(&cluster, &iter).unwrap();
            for cfg in [
                ExecConfig::hipress(),
                ExecConfig::baseline(),
                ExecConfig::byteps(),
            ] {
                let stats = Executor::new(cluster, cfg).run(&graph, &iter).unwrap();
                assert!(stats.makespan_ns > 0);
                for (g, &f) in stats.grad_finish_ns.iter().enumerate() {
                    assert!(f > 0, "{strat:?}: gradient {g} never finished");
                    assert!(f <= stats.makespan_ns);
                }
            }
        }
    }
}

/// Compressing never moves more bytes: the total wire volume under
/// compression is at most the raw volume (per strategy, when all
/// gradients opt in and are reasonably large).
#[test]
fn compression_reduces_wire_volume() {
    let mut rng = Xoshiro256::new(0x5150_0004);
    for _ in 0..CASES {
        let elems = rng.range_u64(2048, 40_000) as usize;
        let nodes = rng.range_u64(2, 6) as usize;
        let parts = rng.range_u64(1, 5) as usize;
        let grads = vec![(elems, parts, true)];
        let alg = Algorithm::OneBit;
        let c = alg.build().unwrap();
        let raw = build_spec(&grads, None);
        let cmp = build_spec(&grads, Some(CompressionSpec::of(c.as_ref())));
        let cluster = ClusterConfig::ec2(nodes);
        for strat in SyncStrategy::all() {
            let wire = |iter: &IterationSpec| -> u64 {
                strat
                    .build(&cluster, iter)
                    .unwrap()
                    .tasks()
                    .iter()
                    .filter(|t| t.prim == hipress_core::Primitive::Send)
                    .map(|t| t.bytes_wire)
                    .sum()
            };
            assert!(
                wire(&cmp) < wire(&raw),
                "{strat:?}: compressed wire volume must shrink"
            );
        }
    }
}
