//! Elastic-membership determinism: the epoch boundary is the
//! checkpoint.
//!
//! The pipelined protocol is bit-deterministic in (member set,
//! gradients, seed), so re-planning over survivors after a crash must
//! produce **exactly** the flows a from-scratch run over that member
//! set produces — no drift, no residue from the dead rank. Likewise a
//! crash followed by a rejoin must land back on the full-membership
//! result bit for bit. Both are checked across the algorithm ×
//! strategy × seed matrix, against baselines run through the same
//! worker machinery ([`run_threaded_workers`]) so the only variable
//! is the membership schedule.

use hipress_chaos::MembershipPlan;
use hipress_compress::Algorithm;
use hipress_core::Strategy;
use hipress_runtime::{
    run_threaded_workers, Instruments, PipelineConfig, ProcessConfig, RunOutcome,
};
use hipress_tensor::synth::{generate, GradientShape};
use hipress_tensor::Tensor;

const SIZES: [usize; 2] = [96, 64];
const PARTITIONS: usize = 2;
const ITERATIONS: u32 = 6;

fn worker_grads(nodes: usize, salt: u64) -> Vec<Vec<Tensor>> {
    (0..nodes)
        .map(|w| {
            SIZES
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
                        salt * 1000 + (w * 37 + g) as u64,
                    )
                })
                .collect()
        })
        .collect()
}

fn pcfg() -> PipelineConfig {
    PipelineConfig {
        iterations: ITERATIONS,
        window: 2,
        ..Default::default()
    }
}

fn run_threaded(
    strategy: Strategy,
    algorithm: Algorithm,
    grads: &[Vec<Tensor>],
    seed: u64,
    pconf: &ProcessConfig,
) -> hipress_util::Result<RunOutcome> {
    run_threaded_workers(
        strategy,
        algorithm,
        PARTITIONS,
        grads,
        seed,
        &pcfg(),
        pconf,
        Instruments::default(),
    )
}

/// The evict-on-loss policy running `plan`.
fn evict_on_loss(plan: MembershipPlan) -> ProcessConfig {
    ProcessConfig {
        membership: plan,
        elastic: true,
        ..ProcessConfig::default()
    }
}

fn fixed_baseline(
    strategy: Strategy,
    algorithm: Algorithm,
    grads: &[Vec<Tensor>],
    seed: u64,
) -> RunOutcome {
    run_threaded(strategy, algorithm, grads, seed, &ProcessConfig::default())
        .expect("fixed-membership baseline run")
}

fn assert_same_flows(case: &str, a: &RunOutcome, b: &RunOutcome) {
    assert_eq!(a.flows.len(), b.flows.len(), "{case}: flow count");
    for (fa, fb) in a.flows.iter().zip(&b.flows) {
        assert_eq!(fa.flow, fb.flow, "{case}: flow order");
        assert_eq!(
            fa.per_node.len(),
            fb.per_node.len(),
            "{case}: flow {} replicas",
            fa.flow
        );
        for (i, (x, y)) in fa.per_node.iter().zip(&fb.per_node).enumerate() {
            assert_eq!(x, y, "{case}: flow {} replica {i} diverged", fa.flow);
        }
    }
}

/// Crash at iteration 2 of 6: the run must finish all six iterations
/// on the survivors, report the eviction, and produce bit for bit the
/// flows of a from-scratch run over the survivor set.
#[test]
fn survivor_continuation_is_bit_identical_to_fresh_survivor_run() {
    let nodes = 3;
    let victim = 1u32;
    for strategy in [Strategy::CaSyncPs, Strategy::CaSyncRing] {
        for algorithm in [Algorithm::OneBit, Algorithm::TernGrad { bitwidth: 2 }] {
            for seed in [11u64, 12, 13, 14] {
                let case = format!("{strategy:?}/{algorithm:?}/seed{seed}");
                let grads = worker_grads(nodes, seed);
                let elastic = run_threaded(
                    strategy,
                    algorithm,
                    &grads,
                    seed,
                    &evict_on_loss(MembershipPlan::crash(victim, 2)),
                )
                .unwrap_or_else(|e| panic!("{case}: elastic run failed: {e}"));

                assert!(
                    elastic.report.evicted.contains(&victim),
                    "{case}: victim missing from evicted list {:?}",
                    elastic.report.evicted
                );
                let last = elastic
                    .report
                    .membership
                    .last()
                    .unwrap_or_else(|| panic!("{case}: no epoch records"));
                assert!(last.epoch >= 1, "{case}: epoch never bumped");
                assert_eq!(last.members, vec![0, 2], "{case}: final member set");

                let survivors: Vec<Vec<Tensor>> =
                    [0usize, 2].iter().map(|&w| grads[w].clone()).collect();
                let fresh = fixed_baseline(strategy, algorithm, &survivors, seed);
                assert_same_flows(&case, &elastic, &fresh);
            }
        }
    }
}

/// Crash at iteration 2, rejoin at iteration 4: the final epoch runs
/// at full membership again, and its flows match a run that never
/// crashed at all.
#[test]
fn rejoined_membership_lands_back_on_the_full_run_bitstream() {
    let nodes = 3;
    let victim = 2u32;
    for strategy in [Strategy::CaSyncPs, Strategy::CaSyncRing] {
        for algorithm in [Algorithm::OneBit, Algorithm::TernGrad { bitwidth: 2 }] {
            for seed in [21u64, 22, 23, 24] {
                let case = format!("rejoin/{strategy:?}/{algorithm:?}/seed{seed}");
                let grads = worker_grads(nodes, seed);
                let elastic = run_threaded(
                    strategy,
                    algorithm,
                    &grads,
                    seed,
                    &evict_on_loss(MembershipPlan::crash_then_rejoin(victim, 2, 4)),
                )
                .unwrap_or_else(|e| panic!("{case}: elastic run failed: {e}"));

                let last = elastic
                    .report
                    .membership
                    .last()
                    .unwrap_or_else(|| panic!("{case}: no epoch records"));
                assert_eq!(
                    last.members,
                    vec![0, 1, 2],
                    "{case}: rejoin never restored full membership"
                );
                assert!(
                    elastic.report.evicted.contains(&victim),
                    "{case}: eviction must still be on the record"
                );

                let full = fixed_baseline(strategy, algorithm, &grads, seed);
                assert_same_flows(&case, &elastic, &full);
            }
        }
    }
}

/// The degenerate plan — no crashes, no rejoins — runs one segment at
/// epoch 0 and matches the fixed-membership driver exactly.
#[test]
fn empty_plan_is_the_fixed_membership_run() {
    let grads = worker_grads(3, 7);
    let elastic = run_threaded(
        Strategy::CaSyncPs,
        Algorithm::OneBit,
        &grads,
        7,
        &evict_on_loss(MembershipPlan::none()),
    )
    .expect("elastic run with empty plan");
    assert_eq!(elastic.report.membership.len(), 1, "one epoch record");
    assert!(elastic.report.evicted.is_empty());
    let fixed = fixed_baseline(Strategy::CaSyncPs, Algorithm::OneBit, &grads, 7);
    assert_same_flows("empty-plan", &elastic, &fixed);
}
