//! Metrics/report parity for the instrumented thread engine.
//!
//! For every compression algorithm on both CaSync strategies, an
//! instrumented run must produce a metrics snapshot that agrees with
//! the independently accumulated [`RuntimeReport`] *exactly*: the
//! engine feeds each task's single measured duration to both the
//! report counters and the metric histograms, so every shared
//! quantity — per-primitive counts and busy times, wire volume,
//! messages, batch launches, wall time, compression savings — must
//! match. That the report in turn equals the one derived from the
//! run's trace is `trace_parity.rs`'s check.

use hipress_compress::Algorithm;
use hipress_core::graph::FlowGeometry;
use hipress_core::plan::{CompressionSpec, GradPlan, IterationSpec, SyncGradient};
use hipress_core::{ClusterConfig, Strategy};
use hipress_metrics::{names, MetricValue, MetricsSnapshot, Registry};
use hipress_runtime::{replicate, run, Instruments, RunOptions, RuntimeReport};
use hipress_tensor::synth::{generate, GradientShape};
use hipress_tensor::Tensor;

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

fn gauge(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.iter()
        .find(|(k, _)| k.name == name)
        .map(|(_, v)| v.scalar())
        .unwrap_or_else(|| panic!("gauge {name} missing from snapshot"))
}

fn assert_snapshot_matches_report(snap: &MetricsSnapshot, report: &RuntimeReport, ctx: &str) {
    use hipress_core::Primitive;
    let prims = [
        Primitive::Source,
        Primitive::Encode,
        Primitive::Decode,
        Primitive::Merge,
        Primitive::Send,
        Primitive::Recv,
        Primitive::Update,
        Primitive::Barrier,
    ];
    for (i, p) in prims.into_iter().enumerate() {
        let stat = report.prim(p);
        let (count, sum) = snap.hist_totals(names::PRIM_NS[i]);
        assert_eq!(count, stat.count, "{ctx}: {} count", names::PRIM_NS[i]);
        assert_eq!(sum, stat.busy_ns, "{ctx}: {} busy", names::PRIM_NS[i]);
    }
    let (_, local_agg) = snap.hist_totals(names::LOCAL_AGG_NS);
    assert_eq!(local_agg, report.local_agg_ns, "{ctx}: local_agg");
    assert_eq!(
        snap.total_counter(names::BYTES_WIRE),
        report.bytes_wire,
        "{ctx}: bytes_wire"
    );
    assert_eq!(
        snap.total_counter(names::BYTES_RAW),
        report.bytes_raw,
        "{ctx}: bytes_raw"
    );
    assert_eq!(
        snap.total_counter(names::MESSAGES),
        report.messages,
        "{ctx}: messages"
    );
    assert_eq!(
        snap.total_counter(names::COMP_BATCH_LAUNCHES),
        report.comp_batch_launches,
        "{ctx}: batch launches"
    );
}

#[test]
fn instrumented_matrix_metrics_match_report() {
    let nodes = 3;
    let sizes = [768usize, 96];
    let grads = worker_grads(nodes, &sizes);
    let cluster = ClusterConfig::ec2(nodes);
    let algorithms = [
        Algorithm::OneBit,
        Algorithm::Tbq { tau: 0.05 },
        Algorithm::TernGrad { bitwidth: 2 },
        Algorithm::Dgc { rate: 0.05 },
        Algorithm::GradDrop { rate: 0.05 },
    ];
    for strat in [Strategy::CaSyncPs, Strategy::CaSyncRing] {
        for alg in algorithms {
            let ctx = format!("{strat:?}/{}", alg.label());
            let iter = iter_spec(&sizes, alg, 2);
            let graph = strat.build(&cluster, &iter).unwrap();
            let flows = FlowGeometry::of(&graph).inputs(&grads).unwrap();
            let c = alg.build().unwrap();

            let registry = Registry::new();
            let scope = registry.scope(&[("strategy", "casync"), ("algorithm", &alg.label())]);
            let out = run(
                &graph,
                nodes,
                &replicate(&flows),
                Some(c.as_ref()),
                7,
                &RunOptions {
                    instruments: Instruments {
                        tracer: None,
                        metrics: Some(&scope),
                        progress: None,
                    },
                    ..RunOptions::default()
                },
            )
            .unwrap();
            let snap = registry.snapshot();
            assert_snapshot_matches_report(&snap, &out.report, &ctx);

            // Run-level gauges agree with the report's own figures.
            assert_eq!(
                gauge(&snap, names::WALL_NS),
                out.report.wall_ns as f64,
                "{ctx}"
            );
            assert_eq!(gauge(&snap, names::NODES), nodes as f64, "{ctx}");
            let savings = gauge(&snap, names::COMPRESSION_SAVINGS);
            assert!(
                (savings - out.report.compression_savings()).abs() < 1e-9,
                "{ctx}: savings {savings} vs {}",
                out.report.compression_savings()
            );
            let iter_series = snap
                .iter()
                .find(|(k, _)| k.name == names::ITERATION_NS)
                .map(|(_, v)| v.clone())
                .unwrap();
            match iter_series {
                MetricValue::Series(pts) => {
                    assert_eq!(pts.len(), 1, "{ctx}: one iteration, one sample");
                    assert_eq!(pts[0].1, out.report.wall_ns as f64, "{ctx}");
                }
                other => panic!("{ctx}: iteration_ns should be a series, got {other:?}"),
            }
        }
    }
}

/// Every metric the engine records carries the scope's run labels, and
/// per-node quantities carry `node` on top.
#[test]
fn engine_metrics_carry_scope_and_node_labels() {
    let nodes = 2;
    let sizes = [256usize];
    let grads = worker_grads(nodes, &sizes);
    let cluster = ClusterConfig::ec2(nodes);
    let iter = iter_spec(&sizes, Algorithm::OneBit, 1);
    let graph = Strategy::CaSyncPs.build(&cluster, &iter).unwrap();
    let flows = FlowGeometry::of(&graph).inputs(&grads).unwrap();
    let c = Algorithm::OneBit.build().unwrap();
    let registry = Registry::new();
    let scope = registry.scope(&[("algorithm", "onebit"), ("model", "unit")]);
    run(
        &graph,
        nodes,
        &replicate(&flows),
        Some(c.as_ref()),
        3,
        &RunOptions {
            instruments: Instruments {
                tracer: None,
                metrics: Some(&scope),
                progress: None,
            },
            ..RunOptions::default()
        },
    )
    .unwrap();
    let snap = registry.snapshot();
    assert!(!snap.is_empty());
    for key in snap.keys() {
        assert_eq!(key.labels.get("algorithm"), Some("onebit"), "{key}");
        assert_eq!(key.labels.get("model"), Some("unit"), "{key}");
    }
    let encode_nodes: Vec<&str> = snap
        .keys()
        .filter(|k| k.name == names::PRIM_NS[1])
        .filter_map(|k| k.labels.get("node"))
        .collect();
    assert_eq!(encode_nodes, vec!["0", "1"]);
    // Queue occupancy was observed on both queues.
    assert!(snap.hist_totals(names::Q_COMP_DEPTH).0 > 0);
    assert!(snap.hist_totals(names::Q_COMMU_DEPTH).0 > 0);
}
