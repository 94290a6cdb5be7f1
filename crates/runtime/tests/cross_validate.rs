//! Cross-validation: the thread engine and the discrete-event
//! interpreter must install byte-identical parameters for every
//! compression algorithm on every strategy — the invariant
//! that lets the simulator and the runtime vouch for each other.

use hipress_compress::Algorithm;
use hipress_core::graph::FlowGeometry;
use hipress_core::interp::interpret;
use hipress_core::plan::{CompressionSpec, GradPlan, IterationSpec, SyncGradient};
use hipress_core::{ClusterConfig, Strategy};
use hipress_runtime::{replicate, run, RunOptions};
use hipress_tensor::synth::{generate, GradientShape};
use hipress_tensor::Tensor;

fn workers(nodes: usize, sizes: &[usize]) -> Vec<Vec<Tensor>> {
    (0..nodes)
        .map(|w| {
            sizes
                .iter()
                .enumerate()
                .map(|(g, &n)| {
                    generate(
                        n,
                        GradientShape::HeavyTailed {
                            std_dev: 1.0,
                            outlier_frac: 0.01,
                            outlier_scale: 20.0,
                        },
                        (w * 31 + g) as u64,
                    )
                })
                .collect()
        })
        .collect()
}

fn spec(sizes: &[usize], alg: Algorithm, partitions: usize) -> IterationSpec {
    let compressor = alg.build();
    IterationSpec {
        gradients: sizes
            .iter()
            .enumerate()
            .map(|(g, &n)| SyncGradient {
                name: format!("g{g}"),
                bytes: (n * 4) as u64,
                ready_offset_ns: 0,
                plan: GradPlan {
                    compress: compressor.is_some(),
                    partitions,
                },
            })
            .collect(),
        compression: compressor.as_deref().map(CompressionSpec::of),
    }
}

/// All five paper algorithms × every strategy × several cluster
/// sizes: byte-identical outcomes between the two executions.
#[test]
fn all_algorithms_bit_identical_to_interpreter() {
    let sizes = [700usize, 123];
    for nodes in [2usize, 3, 5] {
        let grads = workers(nodes, &sizes);
        for strategy in Strategy::all() {
            for alg in [
                Algorithm::OneBit,
                Algorithm::Tbq { tau: 0.05 },
                Algorithm::TernGrad { bitwidth: 2 },
                Algorithm::Dgc { rate: 0.001 },
                Algorithm::GradDrop { rate: 0.01 },
            ] {
                let iter = spec(&sizes, alg, 2);
                let cluster = ClusterConfig::ec2(nodes);
                let graph = strategy.build(&cluster, &iter).unwrap();
                let flows = FlowGeometry::of(&graph).inputs(&grads).unwrap();
                let c = alg.build().unwrap();
                let sim = interpret(&graph, nodes, &flows, Some(c.as_ref()), 77).unwrap();
                let rt = run(
                    &graph,
                    nodes,
                    &replicate(&flows),
                    Some(c.as_ref()),
                    77,
                    &RunOptions::default(),
                )
                .unwrap();
                assert_eq!(sim.len(), rt.flows.len());
                for (a, b) in sim.iter().zip(&rt.flows) {
                    assert_eq!(a.flow, b.flow);
                    assert!(b.replicas_consistent(), "{strategy:?} × {}", c.name());
                    assert_eq!(
                        a.per_node,
                        b.per_node,
                        "{strategy:?} × {} × {nodes} nodes diverged",
                        c.name()
                    );
                }
            }
        }
    }
}

/// Uncompressed graphs agree too, across partition counts (including
/// chunk counts that do not divide the gradient evenly).
#[test]
fn uncompressed_bit_identical_across_partitions() {
    let sizes = [997usize];
    let nodes = 4;
    let grads = workers(nodes, &sizes);
    for strategy in [Strategy::CaSyncPs, Strategy::CaSyncRing] {
        for partitions in [1usize, 3, 7] {
            let iter = spec(&sizes, Algorithm::None, partitions);
            let cluster = ClusterConfig::ec2(nodes);
            let graph = strategy.build(&cluster, &iter).unwrap();
            let flows = FlowGeometry::of(&graph).inputs(&grads).unwrap();
            let sim = interpret(&graph, nodes, &flows, None, 0).unwrap();
            let rt = run(
                &graph,
                nodes,
                &replicate(&flows),
                None,
                0,
                &RunOptions::default(),
            )
            .unwrap();
            for (a, b) in sim.iter().zip(&rt.flows) {
                assert_eq!(
                    a.per_node, b.per_node,
                    "{strategy:?} K={partitions} diverged"
                );
            }
        }
    }
}

/// Repeated thread-backend runs are deterministic: scheduling freedom
/// must never leak into the installed parameters.
#[test]
fn thread_backend_is_run_to_run_deterministic() {
    let sizes = [4096usize];
    let nodes = 4;
    let grads = workers(nodes, &sizes);
    let iter = spec(&sizes, Algorithm::TernGrad { bitwidth: 2 }, 4);
    let cluster = ClusterConfig::ec2(nodes);
    let c = Algorithm::TernGrad { bitwidth: 2 }.build().unwrap();
    for strategy in [Strategy::CaSyncPs, Strategy::CaSyncRing] {
        let graph = strategy.build(&cluster, &iter).unwrap();
        let replicated = replicate(&FlowGeometry::of(&graph).inputs(&grads).unwrap());
        let first = run(
            &graph,
            nodes,
            &replicated,
            Some(c.as_ref()),
            9,
            &RunOptions::default(),
        )
        .unwrap();
        for _ in 0..5 {
            let again = run(
                &graph,
                nodes,
                &replicated,
                Some(c.as_ref()),
                9,
                &RunOptions::default(),
            )
            .unwrap();
            for (a, b) in first.flows.iter().zip(&again.flows) {
                assert_eq!(a.per_node, b.per_node, "{strategy:?} nondeterministic");
            }
        }
    }
}
