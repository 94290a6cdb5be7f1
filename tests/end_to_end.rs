//! Cross-crate end-to-end tests: the full HiPress stack wired
//! together through the public facade.

use hipress::compll::algorithms;
use hipress::prelude::*;
use hipress::tensor::synth::{generate, GradientShape};
use hipress::tensor::Tensor;

/// DSL-compiled algorithms flow through the CaSync protocol with real
/// data: compile with CompLL, build a CaSync-Ring graph, execute it
/// over real tensors, and verify replica consistency — the complete
/// §4.3 "automated integration" story.
#[test]
fn compll_algorithm_through_casync_protocol() {
    use hipress::casync::graph::FlowGeometry;
    use hipress::casync::interp::interpret;
    use hipress::casync::{CompressionSpec, GradPlan, IterationSpec, SyncGradient};

    let alg = algorithms::onebit().expect("DSL onebit compiles");
    let nodes = 4;
    let grads: Vec<Vec<Tensor>> = (0..nodes)
        .map(|w| {
            vec![generate(
                600,
                GradientShape::Gaussian { std_dev: 1.0 },
                w as u64,
            )]
        })
        .collect();
    let iter = IterationSpec {
        gradients: vec![SyncGradient {
            name: "g0".into(),
            bytes: 2400,
            ready_offset_ns: 0,
            plan: GradPlan {
                compress: true,
                partitions: 2,
            },
        }],
        compression: Some(CompressionSpec::of(&alg)),
    };
    let cluster = ClusterConfig::ec2(nodes);
    for strat in [Strategy::CaSyncPs, Strategy::CaSyncRing] {
        let graph = strat.build(&cluster, &iter).unwrap();
        let flows = FlowGeometry::of(&graph).inputs(&grads).unwrap();
        let out = interpret(&graph, nodes, &flows, Some(&alg), 5).unwrap();
        assert!(out[0].replicas_consistent(), "{strat:?}");
    }
}

/// The throughput simulation reproduces the paper's headline claim:
/// HiPress beats every baseline on a communication-intensive model,
/// and the margin grows with cluster size.
#[test]
fn hipress_margin_grows_with_cluster() {
    let model = DnnModel::BertLarge;
    let margin = |nodes: usize| {
        let cluster = ClusterConfig::ec2(nodes);
        let hip = simulate(&TrainingJob::hipress(model, cluster, Strategy::CaSyncPs))
            .unwrap()
            .throughput;
        let base = simulate(&TrainingJob::baseline(
            model,
            cluster.with_tcp(),
            Strategy::BytePs,
        ))
        .unwrap()
        .throughput;
        hip / base
    };
    let m4 = margin(4);
    let m16 = margin(16);
    assert!(m4 > 1.0, "HiPress must win at 4 nodes ({m4})");
    assert!(
        m16 >= m4,
        "the margin must not shrink with scale: {m4} -> {m16}"
    );
}

/// The planner's decisions actually pay off in the executor: running
/// VGG19 with planner plans beats both compress-everything-K1 and
/// compress-nothing.
#[test]
fn selective_plans_beat_naive_policies() {
    let cluster = ClusterConfig::ec2(8);
    let model = DnnModel::Vgg19;
    let planned = simulate(&TrainingJob::hipress(model, cluster, Strategy::CaSyncPs)).unwrap();
    let mut naive = TrainingJob::hipress(model, cluster, Strategy::CaSyncPs);
    naive.selective = false; // Compress everything, K = 1.
    let naive = simulate(&naive).unwrap();
    let raw = simulate(
        &TrainingJob::hipress(model, cluster, Strategy::CaSyncPs).with_algorithm(Algorithm::None),
    )
    .unwrap();
    assert!(
        planned.iteration_ns <= naive.iteration_ns,
        "planned {} vs naive {}",
        planned.iteration_ns,
        naive.iteration_ns
    );
    assert!(
        planned.iteration_ns < raw.iteration_ns,
        "planned {} vs raw {}",
        planned.iteration_ns,
        raw.iteration_ns
    );
}

/// Real convergence through the facade: compressed data-parallel
/// training reaches the uncompressed accuracy (Figure 13's claim),
/// with far less traffic.
#[test]
fn convergence_parity_with_less_traffic() {
    use hipress::train::convergence::{run_data_parallel, ConvergenceConfig};
    use hipress::train::nn::data::Classification;
    use hipress::train::nn::Mlp;

    let workers = 4;
    let full = Classification::gaussian_mixture(500 * workers + 600, 12, 5, 4.0, 21);
    let mut shards = full.split(workers + 1);
    let eval = shards.pop().unwrap();
    let run = |alg: Algorithm| {
        let mut reps: Vec<Mlp> = shards
            .iter()
            .map(|s| Mlp::new(&[12, 32, 5], s.clone(), 9))
            .collect();
        run_data_parallel(
            &ConvergenceConfig {
                workers,
                batch_per_worker: 24,
                lr: 0.05,
                momentum: 0.9,
                algorithm: alg,
                iterations: 150,
                eval_every: 10,
                seed: 4,
            },
            &mut reps,
            |m| m.data().len(),
            |m| m.accuracy(&eval),
        )
        .unwrap()
    };
    let baseline = run(Algorithm::None);
    let compressed = run(Algorithm::Dgc { rate: 0.05 });
    assert!(
        compressed.final_metric > baseline.final_metric - 0.05,
        "accuracy parity: {} vs {}",
        compressed.final_metric,
        baseline.final_metric
    );
    assert!(compressed.bytes_per_iteration < baseline.bytes_per_iteration / 4.0);
}

/// The full synchronization matrix, executed for real: for each
/// CaSync strategy and each of the five compression algorithms, both
/// the semantic interpreter and the CaSync-RT thread backend must
/// install byte-identical parameters on every replica — and the two
/// backends must agree with each other bit for bit.
#[test]
fn sync_matrix_replicas_identical_on_both_backends() {
    let nodes = 3;
    let workers: Vec<Vec<Tensor>> = (0..nodes)
        .map(|w| {
            vec![
                generate(1500, GradientShape::Gaussian { std_dev: 1.0 }, w as u64),
                generate(
                    333,
                    GradientShape::Gaussian { std_dev: 0.5 },
                    100 + w as u64,
                ),
            ]
        })
        .collect();
    for strategy in [Strategy::CaSyncPs, Strategy::CaSyncRing] {
        for alg in [
            Algorithm::OneBit,
            Algorithm::Tbq { tau: 0.05 },
            Algorithm::TernGrad { bitwidth: 2 },
            Algorithm::Dgc { rate: 0.001 },
            Algorithm::GradDrop { rate: 0.01 },
        ] {
            let build = || HiPress::new(strategy).algorithm(alg).partitions(2).seed(42);
            let sim = build()
                .backend(Backend::Simulator)
                .sync(&workers)
                .unwrap_or_else(|e| panic!("{strategy:?} × {} (sim): {e}", alg.label()));
            let rt = build()
                .backend(Backend::Threads(nodes))
                .sync(&workers)
                .unwrap_or_else(|e| panic!("{strategy:?} × {} (threads): {e}", alg.label()));
            for out in [&sim, &rt] {
                assert!(
                    out.replicas_consistent(),
                    "{strategy:?} × {}: replicas diverged",
                    alg.label()
                );
            }
            assert_eq!(sim.flows.len(), rt.flows.len());
            for (a, b) in sim.flows.iter().zip(&rt.flows) {
                assert_eq!(a.flow, b.flow);
                assert_eq!(
                    a.per_node,
                    b.per_node,
                    "{strategy:?} × {}: backends disagree",
                    alg.label()
                );
            }
            let report = rt.report.expect("thread backend measures");
            assert!(
                report.compression_savings() > 1.0,
                "{strategy:?} × {}: compression must shrink wire volume",
                alg.label()
            );
        }
    }
}

/// The same matrix across a real process boundary: for each strategy
/// and each of the five compression algorithms (and none), three OS
/// processes synchronizing over a loopback TCP mesh must install the
/// same bytes as the in-process thread engine — and both must agree
/// with the semantic interpreter. The serialized wire protocol, the
/// framed fabric, and the coordinator's reassembly all sit between
/// the two runs, so agreement here certifies the whole stack.
#[test]
fn sync_matrix_survives_the_process_boundary() {
    let nodes = 3;
    let workers: Vec<Vec<Tensor>> = (0..nodes)
        .map(|w| {
            vec![
                generate(700, GradientShape::Gaussian { std_dev: 1.0 }, 50 + w as u64),
                generate(129, GradientShape::Gaussian { std_dev: 0.5 }, 90 + w as u64),
            ]
        })
        .collect();
    let pconf = ProcessConfig {
        binary: Some(env!("CARGO_BIN_EXE_hipress").into()),
        ..Default::default()
    };
    for strategy in Strategy::all() {
        for alg in [
            Algorithm::None,
            Algorithm::OneBit,
            Algorithm::Tbq { tau: 0.05 },
            Algorithm::TernGrad { bitwidth: 2 },
            Algorithm::Dgc { rate: 0.001 },
            Algorithm::GradDrop { rate: 0.01 },
        ] {
            let build = || HiPress::new(strategy).algorithm(alg).partitions(2).seed(31);
            let sim = build()
                .backend(Backend::Simulator)
                .sync(&workers)
                .unwrap_or_else(|e| panic!("{strategy:?} × {} (sim): {e}", alg.label()));
            let threads = build()
                .backend(Backend::Threads(nodes))
                .sync(&workers)
                .unwrap_or_else(|e| panic!("{strategy:?} × {} (threads): {e}", alg.label()));
            let procs = build()
                .backend(Backend::Processes(nodes))
                .process_config(pconf.clone())
                .sync(&workers)
                .unwrap_or_else(|e| panic!("{strategy:?} × {} (processes): {e}", alg.label()));
            assert!(
                procs.replicas_consistent(),
                "{strategy:?} × {}: process replicas diverged",
                alg.label()
            );
            for (label, other) in [("interpreter", &sim), ("threads", &threads)] {
                assert_eq!(procs.flows.len(), other.flows.len());
                for (a, b) in procs.flows.iter().zip(&other.flows) {
                    assert_eq!(a.flow, b.flow);
                    assert_eq!(
                        a.per_node,
                        b.per_node,
                        "{strategy:?} × {}: processes disagree with {label}",
                        alg.label()
                    );
                }
            }
            let report = procs.report.expect("process backend measures");
            assert!(
                report.fabric_frames > 0,
                "{strategy:?} × {}: TCP mesh must actually frame traffic",
                alg.label()
            );
            assert!(report.fabric_bytes_framed > report.fabric_bytes_payload);
        }
    }
}

/// Many tiny frames per iteration: the TCP mesh batches them into
/// few writes, and the pipelined window keeps several iterations'
/// frames in its queues at once. 2 and 3 processes must still install
/// the thread engine's bits exactly.
#[test]
fn tiny_frames_batched_over_tcp_install_the_threads_bits() {
    let pconf = ProcessConfig {
        binary: Some(env!("CARGO_BIN_EXE_hipress").into()),
        ..Default::default()
    };
    for nodes in [2, 3] {
        let workers: Vec<Vec<Tensor>> = (0..nodes)
            .map(|w| {
                (0..32)
                    .map(|g| {
                        let seed = 1_000 * w as u64 + g;
                        generate(2_048, GradientShape::Gaussian { std_dev: 1.0 }, seed)
                    })
                    .collect()
            })
            .collect();
        let build = || {
            HiPress::new(Strategy::CaSyncPs)
                .algorithm(Algorithm::OneBit)
                .iterations(8)
                .pipeline_window(4)
                .seed(5)
        };
        let threads = build()
            .backend(Backend::Threads(nodes))
            .sync(&workers)
            .unwrap_or_else(|e| panic!("{nodes} threads: {e}"));
        let procs = build()
            .backend(Backend::Processes(nodes))
            .process_config(pconf.clone())
            .sync(&workers)
            .unwrap_or_else(|e| panic!("{nodes} processes: {e}"));
        assert_eq!(procs.flows.len(), 32);
        let bits = |out: &SyncOutcome| -> Vec<Vec<Vec<u32>>> {
            out.flows
                .iter()
                .map(|f| {
                    let node = |v: &Vec<f32>| v.iter().map(|x| x.to_bits()).collect();
                    f.per_node.iter().map(node).collect()
                })
                .collect()
        };
        assert!(
            bits(&procs) == bits(&threads),
            "{nodes} processes installed other bits"
        );
        let report = procs.report.expect("process backend measures");
        assert!(
            report.fabric_frames >= 8 * 32,
            "{nodes} processes framed too little"
        );
    }
}

/// Every (strategy × algorithm) combination simulates cleanly on a
/// small model — the generality claim (§3: "not tied to specific
/// algorithms and synchronization strategies").
#[test]
fn full_compatibility_matrix() {
    let cluster = ClusterConfig::local(4);
    for strat in Strategy::all() {
        for alg in [
            Algorithm::None,
            Algorithm::OneBit,
            Algorithm::Tbq { tau: 0.05 },
            Algorithm::TernGrad { bitwidth: 2 },
            Algorithm::Dgc { rate: 0.001 },
            Algorithm::GradDrop { rate: 0.01 },
        ] {
            let job = if strat.is_casync() {
                TrainingJob::hipress(DnnModel::ResNet50, cluster, strat).with_algorithm(alg)
            } else {
                TrainingJob::baseline(DnnModel::ResNet50, cluster, strat).with_algorithm(alg)
            };
            let r = simulate(&job)
                .unwrap_or_else(|e| panic!("{strat:?} × {} failed: {e}", alg.label()));
            assert!(r.throughput > 0.0, "{strat:?} × {}", alg.label());
        }
    }
}

/// Metrics through the facade: a `.metrics()`-instrumented sync on the
/// thread backend fills the registry with totals that agree with the
/// returned report, and every key carries the builder's `algorithm`
/// and `strategy` labels — so one registry can hold a whole matrix.
#[test]
fn facade_metrics_match_report() {
    use hipress::metrics::names;

    let nodes = 3;
    let workers: Vec<Vec<Tensor>> = (0..nodes)
        .map(|w| {
            vec![generate(
                1024,
                GradientShape::Gaussian { std_dev: 1.0 },
                w as u64,
            )]
        })
        .collect();
    let registry = Registry::new();
    let out = HiPress::new(Strategy::CaSyncPs)
        .algorithm(Algorithm::OneBit)
        .partitions(2)
        .seed(11)
        .backend(Backend::Threads(nodes))
        .metrics(&registry.root())
        .sync(&workers)
        .unwrap();
    let report = out.report.expect("thread backend measures");
    let snap = registry.snapshot();
    assert!(!snap.is_empty());
    assert_eq!(snap.total_counter(names::BYTES_WIRE), report.bytes_wire);
    assert_eq!(snap.total_counter(names::BYTES_RAW), report.bytes_raw);
    assert_eq!(snap.total_counter(names::MESSAGES), report.messages);
    for key in snap.keys() {
        assert_eq!(key.labels.get("algorithm"), Some("onebit"), "{key}");
        assert_eq!(key.labels.get("strategy"), Some("CaSync-PS"), "{key}");
    }
    // The simulator backend leaves the registry untouched.
    let untouched = Registry::new();
    HiPress::new(Strategy::CaSyncPs)
        .algorithm(Algorithm::OneBit)
        .metrics(&untouched.root())
        .sync(&workers)
        .unwrap();
    assert!(untouched.snapshot().is_empty());
}

/// Tracing through the facade: a traced `HiPress::sync` on the thread
/// backend yields a trace whose derived report matches the returned
/// one exactly, and a traced simulator run of the same plan exports a
/// comparable timeline that `TraceDiff` lines up category for
/// category.
#[test]
fn facade_tracing_spans_both_engines() {
    use hipress::trace::chrome;

    let nodes = 3;
    let workers: Vec<Vec<Tensor>> = (0..nodes)
        .map(|w| {
            vec![
                generate(2048, GradientShape::Gaussian { std_dev: 1.0 }, w as u64),
                generate(256, GradientShape::Gaussian { std_dev: 0.5 }, 7 + w as u64),
            ]
        })
        .collect();

    // Measured: CaSync-RT through the builder's .trace() hook.
    let rt_tracer = Tracer::new("casync-rt");
    let out = HiPress::new(Strategy::CaSyncRing)
        .algorithm(Algorithm::OneBit)
        .partitions(2)
        .seed(9)
        .backend(Backend::Threads(nodes))
        .trace(&rt_tracer)
        .sync(&workers)
        .unwrap();
    let report = out.report.expect("thread backend measures");
    let rt_trace = rt_tracer.finish();
    assert!(rt_trace.validate().is_ok());
    assert_eq!(RuntimeReport::from_trace(&rt_trace), report);

    // Simulated: the discrete-event executor over an equivalent plan.
    let sim_tracer = Tracer::new("sim");
    let iter = {
        use hipress::casync::{CompressionSpec, GradPlan, IterationSpec, SyncGradient};
        let c = Algorithm::OneBit.build().unwrap();
        IterationSpec {
            gradients: workers[0]
                .iter()
                .enumerate()
                .map(|(g, t)| SyncGradient {
                    name: format!("g{g}"),
                    bytes: t.byte_size(),
                    ready_offset_ns: 0,
                    plan: GradPlan {
                        compress: true,
                        partitions: 2,
                    },
                })
                .collect(),
            compression: Some(CompressionSpec::of(c.as_ref())),
        }
    };
    let cluster = ClusterConfig::ec2(nodes);
    let graph = Strategy::CaSyncRing.build(&cluster, &iter).unwrap();
    Executor::new(cluster, ExecConfig::hipress())
        .run_traced(&graph, &iter, &sim_tracer)
        .unwrap();
    let sim_trace = sim_tracer.finish();
    assert!(sim_trace.validate().is_ok());

    // Same protocol, same task graph: the per-primitive task counts
    // line up between the simulated and the measured timeline.
    let diff = TraceDiff::compare(&sim_trace, &rt_trace);
    for cat in ["encode", "decode", "merge", "update", "send", "recv"] {
        let d = diff
            .categories
            .iter()
            .find(|c| c.category == cat)
            .unwrap_or_else(|| panic!("category {cat} missing from diff"));
        assert!(
            d.counts_match(),
            "{cat}: {} vs {}",
            d.a.count(),
            d.b.count()
        );
    }

    // Both traces round-trip through the Chrome exporter.
    for trace in [&sim_trace, &rt_trace] {
        let back = chrome::import(&chrome::export(trace)).unwrap();
        assert_eq!(&back, trace);
    }
}

/// Degenerate pipeline configs are rejected at the facade boundary
/// with a structured `Error::Config` — on every backend, before any
/// thread or process spawns. A zero iteration count must not silently
/// run one iteration (the Threads backend's non-pipelined path would
/// otherwise do exactly that).
#[test]
fn facade_rejects_degenerate_pipeline_configs() {
    let workers: Vec<Vec<Tensor>> = (0..2)
        .map(|w| {
            vec![generate(
                256,
                GradientShape::Gaussian { std_dev: 1.0 },
                w as u64,
            )]
        })
        .collect();
    for backend in [
        Backend::Simulator,
        Backend::Threads(2),
        Backend::Processes(2),
    ] {
        for (iterations, window) in [(0, 1), (1, 0), (0, 0)] {
            let err = HiPress::new(Strategy::CaSyncRing)
                .backend(backend)
                .iterations(iterations)
                .pipeline_window(window)
                .sync(&workers)
                .expect_err("zero iterations/window must be rejected");
            assert!(
                matches!(err, hipress::util::Error::Config(_)),
                "want Error::Config, got {err:?}"
            );
        }
    }
}
