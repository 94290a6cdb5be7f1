//! Trace/report parity for the traced thread engine.
//!
//! For every compression algorithm on both CaSync strategies, a
//! traced run must produce (a) a trace whose derived
//! [`RuntimeReport`] equals the independently accumulated one
//! *exactly* — the engine feeds each task's single measured duration
//! to both — and (b) Chrome trace-event JSON that round-trips through
//! the crate's own reader without loss.

use hipress_compress::Algorithm;
use hipress_core::graph::FlowGeometry;
use hipress_core::plan::{CompressionSpec, GradPlan, IterationSpec, SyncGradient};
use hipress_core::{ClusterConfig, Strategy};
use hipress_runtime::{
    replicate, run, run_threaded_workers, validate_clock_monotonicity, Instruments, PipelineConfig,
    ProcessConfig, RunOptions, RuntimeReport,
};
use hipress_tensor::synth::{generate, GradientShape};
use hipress_tensor::Tensor;
use hipress_trace::{chrome, Tracer};

/// Default options with only `tracer` attached.
fn traced(tracer: &Tracer) -> RunOptions<'_> {
    RunOptions {
        instruments: Instruments {
            tracer: Some(tracer),
            ..Instruments::default()
        },
        ..RunOptions::default()
    }
}

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

fn iter_spec(sizes: &[usize], alg: Algorithm, partitions: usize) -> IterationSpec {
    IterationSpec {
        gradients: sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| SyncGradient {
                name: format!("g{i}"),
                bytes: (n * 4) as u64,
                ready_offset_ns: 0,
                plan: GradPlan {
                    compress: !matches!(alg, Algorithm::None),
                    partitions,
                },
            })
            .collect(),
        compression: alg.build().map(|c| CompressionSpec::of(c.as_ref())),
    }
}

#[test]
fn traced_matrix_report_parity_and_chrome_round_trip() {
    let nodes = 3;
    let sizes = [768usize, 96];
    let grads = worker_grads(nodes, &sizes);
    let cluster = ClusterConfig::ec2(nodes);
    let algorithms = [
        Algorithm::OneBit,
        Algorithm::Tbq { tau: 0.05 },
        Algorithm::TernGrad { bitwidth: 2 },
        Algorithm::Dgc { rate: 0.1 },
        Algorithm::GradDrop { rate: 0.1 },
    ];
    for strat in [Strategy::CaSyncPs, Strategy::CaSyncRing] {
        for alg in algorithms {
            let iter = iter_spec(&sizes, alg, 2);
            let graph = strat.build(&cluster, &iter).unwrap();
            let flows = FlowGeometry::of(&graph).inputs(&grads).unwrap();
            let c = alg.build().unwrap();
            let tracer = Tracer::new("casync-rt");
            let out = run(
                &graph,
                nodes,
                &replicate(&flows),
                Some(c.as_ref()),
                13,
                &traced(&tracer),
            )
            .unwrap();
            let trace = tracer.finish();

            // Every registered track recorded something.
            assert!(
                trace.validate().is_ok(),
                "{strat:?} {alg:?}: empty tracks {:?}",
                trace.validate().unwrap_err()
            );

            // The trace-derived report equals the accumulated one
            // exactly — same counts, same nanoseconds, same bytes.
            let derived = RuntimeReport::from_trace(&trace);
            assert_eq!(derived, out.report, "{strat:?} {alg:?} parity broke");

            // Chrome export is lossless through the crate's reader,
            // and the reimported trace still derives the same report.
            let json = chrome::export(&trace);
            let back = chrome::import(&json).unwrap();
            assert_eq!(back, trace, "{strat:?} {alg:?} round trip lost data");
            assert_eq!(RuntimeReport::from_trace(&back), out.report);
        }
    }
}

#[test]
fn traced_and_untraced_runs_agree_on_results() {
    let nodes = 3;
    let sizes = [256usize];
    let grads = worker_grads(nodes, &sizes);
    let cluster = ClusterConfig::ec2(nodes);
    let iter = iter_spec(&sizes, Algorithm::OneBit, 2);
    let graph = Strategy::CaSyncRing.build(&cluster, &iter).unwrap();
    let flows = FlowGeometry::of(&graph).inputs(&grads).unwrap();
    let c = Algorithm::OneBit.build().unwrap();
    let tracer = Tracer::new("casync-rt");
    let traced = run(
        &graph,
        nodes,
        &replicate(&flows),
        Some(c.as_ref()),
        21,
        &traced(&tracer),
    )
    .unwrap();
    let plain = run(
        &graph,
        nodes,
        &replicate(&flows),
        Some(c.as_ref()),
        21,
        &RunOptions::default(),
    )
    .unwrap();
    // Tracing is observation only: synchronized tensors are
    // bit-identical with and without it.
    for (a, b) in traced.flows.iter().zip(&plain.flows) {
        assert_eq!(a.per_node, b.per_node);
    }
    // Structure-level counters match too (timings of course differ).
    assert_eq!(traced.report.encode.count, plain.report.encode.count);
    assert_eq!(traced.report.messages, plain.report.messages);
    assert_eq!(traced.report.bytes_wire, plain.report.bytes_wire);
}

/// The distributed path keeps the same parity guarantee: a traced
/// multi-worker run (real control protocol, TCP mesh, clock probes —
/// only `fork/exec` elided) ships every rank's trace home, the
/// coordinator stitches them into one clock-aligned timeline, and
/// that merged timeline re-derives the merged [`RuntimeReport`]
/// exactly. Two seeds guard against a lucky alignment.
#[test]
fn processes_merged_trace_report_parity() {
    let sizes = [512usize, 64];
    for (seed, strat) in [(13u64, Strategy::CaSyncPs), (29, Strategy::CaSyncRing)] {
        let grads = worker_grads(3, &sizes);
        let tracer = Tracer::new("casync-rt");
        let out = run_threaded_workers(
            strat,
            Algorithm::OneBit,
            2,
            &grads,
            seed,
            &PipelineConfig::default(),
            &ProcessConfig::default(),
            Instruments {
                tracer: Some(&tracer),
                metrics: None,
                progress: None,
            },
        )
        .unwrap_or_else(|e| panic!("{strat:?} seed {seed}: {e}"));
        let trace = tracer.finish();

        // One node track per rank made it into the merged timeline.
        for node in 0..3 {
            assert!(
                trace.find_track(&format!("node{node}")).is_some(),
                "{strat:?} seed {seed}: rank {node} missing from merged trace"
            );
        }

        // Clock alignment did its job: every cross-rank send lands
        // before its matching receive on the merged timeline.
        match validate_clock_monotonicity(&trace) {
            Ok(checked) => assert!(
                checked > 0,
                "{strat:?} seed {seed}: no cross-rank pairs checked"
            ),
            Err(violations) => panic!("{strat:?} seed {seed}: clock skew {violations:?}"),
        }

        // The merged trace re-derives the merged report exactly.
        assert_eq!(
            RuntimeReport::from_trace(&trace),
            out.report,
            "{strat:?} seed {seed}: distributed parity broke"
        );

        // And survives the Chrome JSON round trip untouched.
        let back = chrome::import(&chrome::export(&trace)).unwrap();
        assert_eq!(RuntimeReport::from_trace(&back), out.report);
    }
}

#[test]
fn queue_depth_counters_return_to_zero() {
    let nodes = 2;
    let sizes = [128usize];
    let grads = worker_grads(nodes, &sizes);
    let cluster = ClusterConfig::ec2(nodes);
    let iter = iter_spec(&sizes, Algorithm::None, 1);
    let graph = Strategy::CaSyncPs.build(&cluster, &iter).unwrap();
    let flows = FlowGeometry::of(&graph).inputs(&grads).unwrap();
    let tracer = Tracer::new("casync-rt");
    run(&graph, nodes, &replicate(&flows), None, 1, &traced(&tracer)).unwrap();
    let trace = tracer.finish();
    for node in 0..nodes {
        for q in ["Q_comp", "Q_commu"] {
            let id = trace
                .find_track(&format!("node{node}/{q}"))
                .unwrap_or_else(|| panic!("missing node{node}/{q}"));
            let samples = &trace.track(id).samples;
            assert!(!samples.is_empty(), "node{node}/{q} never sampled");
            // All tasks drained: final queue depth is zero.
            assert_eq!(samples.last().unwrap().1, 0.0, "node{node}/{q}");
        }
    }
}
