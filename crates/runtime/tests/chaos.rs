//! The chaos property harness — the correctness gate for the
//! fault-tolerant engine.
//!
//! Three properties, checked across the full algorithm × strategy
//! matrix and many fault-plan seeds:
//!
//! 1. **Recoverable plans are invisible.** Any plan whose fault cap
//!    is below the retry budget (drops, duplicates, reorders, delays,
//!    corruption — no crashes) yields bit-for-bit the fault-free
//!    result.
//! 2. **Corruption is always caught.** A flipped payload bit never
//!    reaches a gradient: the checksum rejects it, the nack recovers
//!    it.
//! 3. **Unrecoverable plans fail clean.** Crashes and black holes
//!    produce a structured `SyncFailure` naming the diagnosing node
//!    (and peer/task where known) within the deadline bound — no
//!    deadlocks, no panics, no hangs.

use hipress_chaos::FaultPlan;
use hipress_compress::Algorithm;
use hipress_core::interp::gradient_flows;
use hipress_core::plan::{CompressionSpec, GradPlan, IterationSpec, SyncGradient};
use hipress_core::{ClusterConfig, Strategy};
use hipress_runtime::{
    replicate, run, DegradeAction, DegradePolicy, FaultTolerance, Instruments, RunOptions,
    RunOutcome, RuntimeReport,
};
use hipress_tensor::synth::{generate, GradientShape};
use hipress_tensor::Tensor;
use hipress_trace::Tracer;
use hipress_util::{Error, SyncFailureKind};
use std::time::{Duration, Instant};

fn worker_grads(nodes: usize, sizes: &[usize]) -> Vec<Vec<Tensor>> {
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
                        (w * 37 + g) as u64,
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

/// Test-sized protocol tuning: tight backoffs so unrecoverable plans
/// fail fast, a straggler detector that trips within a few hundred
/// milliseconds of genuine silence.
fn ft(policy: DegradePolicy) -> FaultTolerance {
    FaultTolerance {
        recv_deadline: Duration::from_secs(8),
        retry_budget: 8,
        base_backoff: Duration::from_millis(3),
        max_backoff: Duration::from_millis(100),
        straggler_factor: 4.0,
        straggler_floor: Duration::from_millis(50),
        policy,
    }
}

fn chaos_run(
    strategy: Strategy,
    alg: Algorithm,
    nodes: usize,
    sizes: &[usize],
    seed: u64,
    tolerance: &FaultTolerance,
    plan: &FaultPlan,
) -> hipress_util::Result<RunOutcome> {
    let grads = worker_grads(nodes, sizes);
    let flows = gradient_flows(&grads);
    let iter = iter_spec(sizes, alg, 2);
    let graph = strategy.build(&ClusterConfig::ec2(nodes), &iter).unwrap();
    let c = alg.build();
    run(
        &graph,
        nodes,
        &replicate(&flows),
        c.as_deref(),
        seed,
        &RunOptions {
            chaos: Some((*tolerance, plan.clone())),
            ..RunOptions::default()
        },
    )
}

fn fault_free(
    strategy: Strategy,
    alg: Algorithm,
    nodes: usize,
    sizes: &[usize],
    seed: u64,
) -> RunOutcome {
    let grads = worker_grads(nodes, sizes);
    let flows = gradient_flows(&grads);
    let iter = iter_spec(sizes, alg, 2);
    let graph = strategy.build(&ClusterConfig::ec2(nodes), &iter).unwrap();
    let c = alg.build();
    run(
        &graph,
        nodes,
        &replicate(&flows),
        c.as_deref(),
        seed,
        &RunOptions::default(),
    )
    .unwrap()
}

fn assert_same_params(
    strategy: Strategy,
    alg: Algorithm,
    tag: &str,
    a: &RunOutcome,
    b: &RunOutcome,
) {
    assert_eq!(a.flows.len(), b.flows.len());
    for (x, y) in a.flows.iter().zip(&b.flows) {
        assert_eq!(
            x.per_node, y.per_node,
            "{strategy:?} × {alg:?} × {tag}: chaos run diverged from fault-free"
        );
    }
}

/// Property 1: the full matrix — five algorithms, both strategies,
/// sixteen fault-plan seeds each — survives the lively recoverable
/// preset (drops + duplicates + reorders + delays + corruption)
/// bit-for-bit.
#[test]
fn recoverable_plans_are_bit_identical_across_matrix() {
    let nodes = 3;
    let sizes = [192usize, 96];
    let tolerance = ft(DegradePolicy::Wait);
    let algorithms = [
        Algorithm::OneBit,
        Algorithm::Tbq { tau: 0.05 },
        Algorithm::TernGrad { bitwidth: 2 },
        Algorithm::Dgc { rate: 0.01 },
        Algorithm::GradDrop { rate: 0.05 },
    ];
    let mut injected = 0u64;
    let mut retried = 0u64;
    for strategy in [Strategy::CaSyncPs, Strategy::CaSyncRing] {
        for alg in algorithms {
            let clean = fault_free(strategy, alg, nodes, &sizes, 41);
            for plan_seed in 0..16u64 {
                let plan = FaultPlan::recoverable(plan_seed);
                assert!(plan.is_recoverable(tolerance.retry_budget));
                let out = chaos_run(strategy, alg, nodes, &sizes, 41, &tolerance, &plan)
                    .unwrap_or_else(|e| {
                        panic!("{strategy:?} × {alg:?} × seed {plan_seed} failed: {e}")
                    });
                injected += out.report.faults.total_injected();
                retried += out.report.faults.retries;
                assert_same_params(strategy, alg, &format!("seed {plan_seed}"), &clean, &out);
            }
        }
    }
    // The matrix must actually have been lively: faults were injected
    // and the protocol actually recovered some of them.
    assert!(injected > 0, "recoverable preset injected nothing");
    assert!(retried > 0, "no retransmission ever happened");
}

/// Property 1, loss-focused: ~60% first-attempt drop on every link
/// still converges to the exact fault-free bits.
#[test]
fn drop_storm_recovers_exactly() {
    let tolerance = ft(DegradePolicy::Wait);
    for strategy in [Strategy::CaSyncPs, Strategy::CaSyncRing] {
        let clean = fault_free(strategy, Algorithm::OneBit, 3, &[256], 7);
        for plan_seed in [1u64, 2, 3, 4] {
            let plan = FaultPlan::drop_storm(plan_seed);
            let out =
                chaos_run(strategy, Algorithm::OneBit, 3, &[256], 7, &tolerance, &plan).unwrap();
            assert!(out.report.faults.injected_drops > 0);
            assert!(out.report.faults.retries > 0);
            assert_same_params(strategy, Algorithm::OneBit, "drop storm", &clean, &out);
        }
    }
}

/// Property 2: heavy payload corruption is always detected by the
/// checksum, nacked, and healed by retransmission — never silently
/// installed.
#[test]
fn corruption_is_always_detected_and_healed() {
    let tolerance = ft(DegradePolicy::Wait);
    let mut detected = 0u64;
    for strategy in [Strategy::CaSyncPs, Strategy::CaSyncRing] {
        for alg in [Algorithm::None, Algorithm::TernGrad { bitwidth: 2 }] {
            let clean = fault_free(strategy, alg, 3, &[200, 80], 23);
            for plan_seed in [5u64, 6, 7, 8] {
                let plan = FaultPlan::corruption_storm(plan_seed);
                let out = chaos_run(strategy, alg, 3, &[200, 80], 23, &tolerance, &plan).unwrap();
                assert_eq!(
                    out.report.faults.injected_corruptions, out.report.faults.corruptions_detected,
                    "{strategy:?} × {alg:?}: a corrupted payload slipped past the checksum"
                );
                detected += out.report.faults.corruptions_detected;
                assert_same_params(strategy, alg, "corruption storm", &clean, &out);
            }
        }
    }
    assert!(detected > 0, "corruption storm never corrupted anything");
}

/// Property 3: a crashed node produces a structured failure naming a
/// node, well within the deadline bound — never a hang.
#[test]
fn crash_fails_fast_with_structured_error() {
    let tolerance = FaultTolerance {
        recv_deadline: Duration::from_millis(1500),
        ..ft(DegradePolicy::Wait)
    };
    for strategy in [Strategy::CaSyncPs, Strategy::CaSyncRing] {
        let plan = FaultPlan::crash(3, 1, 1);
        assert!(!plan.is_recoverable(tolerance.retry_budget));
        let started = Instant::now();
        let err = chaos_run(
            strategy,
            Algorithm::OneBit,
            3,
            &[256],
            11,
            &tolerance,
            &plan,
        )
        .expect_err("a crashed node cannot yield a result");
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(6),
            "{strategy:?}: diagnosis took {elapsed:?}"
        );
        let sync = err.as_sync().unwrap_or_else(|| {
            panic!("{strategy:?}: expected a structured sync failure, got {err}")
        });
        assert!(
            matches!(
                sync.kind,
                SyncFailureKind::RecvTimeout | SyncFailureKind::LinkDead
            ),
            "{strategy:?}: peers should diagnose the silence, got {:?}",
            sync.kind
        );
        // The message names who diagnosed it.
        assert!(err.to_string().contains("node"), "unstructured: {err}");
    }
}

/// Property 3: a black-holed link exhausts the sender's retry budget
/// into a dead-link error (or the receiver's deadline), cleanly.
#[test]
fn blackhole_reports_dead_link() {
    let tolerance = FaultTolerance {
        recv_deadline: Duration::from_millis(1500),
        ..ft(DegradePolicy::Wait)
    };
    let plan = FaultPlan::blackhole(9, 1, 0);
    let started = Instant::now();
    let err = chaos_run(
        Strategy::CaSyncPs,
        Algorithm::OneBit,
        3,
        &[256],
        11,
        &tolerance,
        &plan,
    )
    .expect_err("a black-holed link cannot yield a result");
    assert!(started.elapsed() < Duration::from_secs(6));
    let sync = err.as_sync().expect("structured failure");
    assert!(
        matches!(
            sync.kind,
            SyncFailureKind::LinkDead | SyncFailureKind::RecvTimeout
        ),
        "got {:?}",
        sync.kind
    );
    // Abort echoes must never win root-cause selection.
    assert_ne!(sync.kind, SyncFailureKind::Aborted);
}

/// Straggler policy `Wait`: a stalled node is diagnosed (verdict
/// recorded) but waited out — the result stays bit-exact.
#[test]
fn stall_waited_out_is_bit_exact() {
    let tolerance = ft(DegradePolicy::Wait);
    let clean = fault_free(Strategy::CaSyncPs, Algorithm::OneBit, 3, &[256], 19);
    let plan = FaultPlan::stall(1, 1, Duration::from_millis(400));
    let out = chaos_run(
        Strategy::CaSyncPs,
        Algorithm::OneBit,
        3,
        &[256],
        19,
        &tolerance,
        &plan,
    )
    .unwrap();
    assert_eq!(out.report.faults.injected_stalls, 1);
    assert_same_params(
        Strategy::CaSyncPs,
        Algorithm::OneBit,
        "stall+wait",
        &clean,
        &out,
    );
    assert!(
        out.report
            .faults
            .verdicts
            .iter()
            .any(|v| v.peer == 1 && v.action == DegradeAction::Waited),
        "nobody diagnosed the straggler: {:?}",
        out.report.faults.verdicts
    );
    assert_eq!(out.report.faults.degraded_chunks, 0);
}

/// Straggler policy `Partial`: peers skip the straggler's outstanding
/// contributions, rescale, and complete degraded — fast, no error.
#[test]
fn stall_partial_degrades_and_completes() {
    let tolerance = ft(DegradePolicy::Partial);
    let plan = FaultPlan::stall(2, 1, Duration::from_millis(400));
    let started = Instant::now();
    let out = chaos_run(
        Strategy::CaSyncPs,
        Algorithm::None,
        3,
        &[256],
        19,
        &tolerance,
        &plan,
    )
    .unwrap();
    assert!(started.elapsed() < Duration::from_secs(6));
    assert!(
        out.report.faults.degraded_chunks > 0,
        "partial policy skipped nothing: {:?}",
        out.report.faults
    );
    assert!(out
        .report
        .faults
        .verdicts
        .iter()
        .any(|v| v.peer == 1 && v.action == DegradeAction::Skipped));
    // The degraded values. Node 1 stalls before its second task having
    // sent nothing, so survivors 0 and 2 skip all of it. Chunk 0
    // (elements 0..128, owner 0) merged node 2 alone and was rescaled
    // by 3/2 before the owner sent it. Chunk 1 (owner 1) never came
    // back, so each survivor rescaled its own contribution by 3 — a
    // write to the accumulator it had already raw-sent to node 1, whose
    // full sum must still see the unscaled bytes.
    let grads = worker_grads(3, &[256]);
    let g = |w: usize, i: usize| grads[w][0].as_slice()[i];
    for (node, installed) in out.flows[0].per_node.iter().enumerate() {
        let expected: Vec<f32> = (0..256)
            .map(|i| match (i < 128, node) {
                (true, _) => (g(0, i) + g(2, i)) * 1.5,
                (false, 1) => g(1, i) + g(0, i) + g(2, i),
                (false, survivor) => g(survivor, i) * 3.0,
            })
            .collect();
        assert_eq!(installed, &expected, "node {node}");
    }
}

/// Straggler policy `Abort`: the diagnosis becomes a structured
/// error naming the straggler.
#[test]
fn stall_abort_names_the_straggler() {
    let tolerance = ft(DegradePolicy::Abort);
    let plan = FaultPlan::stall(4, 1, Duration::from_millis(700));
    let err = chaos_run(
        Strategy::CaSyncPs,
        Algorithm::OneBit,
        3,
        &[256],
        19,
        &tolerance,
        &plan,
    )
    .expect_err("abort policy must fail the run");
    let sync = err.as_sync().expect("structured failure");
    assert_eq!(sync.kind, SyncFailureKind::Straggler);
    assert_eq!(sync.peer, Some(1), "wrong straggler named: {err}");
}

/// The fault-free envelope path (a `none` plan) matches the fast path
/// bit-for-bit and injects nothing — the overhead bench's premise.
#[test]
fn envelope_path_with_no_faults_matches_fast_path() {
    let tolerance = ft(DegradePolicy::Wait);
    for strategy in [Strategy::CaSyncPs, Strategy::CaSyncRing] {
        for alg in [Algorithm::None, Algorithm::Dgc { rate: 0.01 }] {
            let clean = fault_free(strategy, alg, 4, &[300, 64], 29);
            let out = chaos_run(
                strategy,
                alg,
                4,
                &[300, 64],
                29,
                &tolerance,
                &FaultPlan::none(0),
            )
            .unwrap();
            // Nothing injected, nothing corrupted, nothing degraded.
            // Retries stay legal: a busy receiver acking late may
            // trigger a (harmless) spurious retransmission.
            assert_eq!(out.report.faults.total_injected(), 0);
            assert_eq!(out.report.faults.corruptions_detected, 0);
            assert_eq!(out.report.faults.degraded_chunks, 0);
            assert_same_params(strategy, alg, "no faults", &clean, &out);
        }
    }
}

/// Chaos runs are observable end to end: the trace carries the
/// injection/recovery instants and `RuntimeReport::from_trace`
/// rebuilds the same fault section the engine accumulated.
#[test]
fn fault_events_round_trip_through_the_trace() {
    let grads = worker_grads(3, &[200, 80]);
    let flows = gradient_flows(&grads);
    let iter = iter_spec(&[200, 80], Algorithm::OneBit, 2);
    let graph = Strategy::CaSyncPs
        .build(&ClusterConfig::ec2(3), &iter)
        .unwrap();
    let c = Algorithm::OneBit.build().unwrap();
    let tracer = Tracer::new("casync-chaos");
    let out = run(
        &graph,
        3,
        &replicate(&flows),
        Some(c.as_ref()),
        31,
        &RunOptions {
            instruments: Instruments {
                tracer: Some(&tracer),
                metrics: None,
                progress: None,
            },
            chaos: Some((ft(DegradePolicy::Wait), FaultPlan::recoverable(12))),
            ..RunOptions::default()
        },
    )
    .unwrap();
    let trace = tracer.finish();
    assert!(out.report.faults.total_injected() > 0);
    assert!(trace.events_of("chaos").count() > 0, "no chaos instants");
    let derived = RuntimeReport::from_trace(&trace);
    assert_eq!(
        derived.faults, out.report.faults,
        "trace-derived fault section diverged"
    );
}

/// Sanity for the facade's error surface: a non-sync error (malformed
/// input) is reported as-is, not wrapped into a sync failure.
#[test]
fn malformed_input_errors_are_not_sync_failures() {
    let grads = worker_grads(2, &[64]);
    let flows = gradient_flows(&grads);
    let iter = iter_spec(&[64], Algorithm::None, 1);
    let graph = Strategy::CaSyncPs
        .build(&ClusterConfig::ec2(2), &iter)
        .unwrap();
    // Wrong node count for the graph: rejected before any thread runs.
    let err = run(
        &graph,
        3,
        &replicate(&flows),
        None,
        0,
        &RunOptions {
            chaos: Some((ft(DegradePolicy::Wait), FaultPlan::none(0))),
            ..RunOptions::default()
        },
    )
    .expect_err("mismatched node count must be rejected");
    assert!(err.as_sync().is_none(), "wrongly classified: {err}");
    let _ = Error::sim("type-check that Error is in scope");
}
