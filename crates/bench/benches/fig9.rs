//! Figure 9: GPU utilization timelines — the DNN-computation busy
//! fraction over several training iterations for the no-compression
//! Ring baseline versus the best HiPress configuration.
//!
//! The paper's observation: both peak at ~100%, but Ring's usage is
//! "sparse" (GPUs idle during long gradient transmissions) while
//! HiPress keeps the GPU doing useful work.

use hipress::prelude::*;
use hipress_bench::{banner, Recorder};

/// Characters per rendered strip.
const BUCKETS: u64 = 72;

/// Renders `iters` iterations of a configuration as an ASCII strip
/// ('#' = GPU busy with DNN compute) and returns the utilization.
fn strip(job: &TrainingJob, iters: u64) -> (String, f64) {
    let r = simulate(job).expect("simulation runs");
    let busy = job.model.spec().compute(job.gpu_class).iteration_ns();
    let iter = r.iteration_ns;
    // Forward+backward occupy the GPU back to back from each
    // iteration's start; the sync tail (if any) leaves it idle until
    // the next iteration. Busy time is the union of those intervals.
    let busy_ns = (iters - 1) * busy.min(iter) + busy;
    let horizon = iter * iters;
    let width = horizon as f64 / BUCKETS as f64;
    let strip = (0..BUCKETS)
        .map(|b| {
            let (lo, hi) = (b as f64 * width, (b + 1) as f64 * width);
            let covered: f64 = (0..iters)
                .map(|i| {
                    let start = (i * iter) as f64;
                    ((start + busy as f64).min(hi) - start.max(lo)).max(0.0)
                })
                .sum();
            match covered / width {
                u if u > 0.66 => '#',
                u if u > 0.33 => '+',
                u if u > 0.01 => '-',
                _ => '.',
            }
        })
        .collect();
    (strip, busy_ns as f64 / horizon as f64)
}

fn compare(rec: &Recorder, model: DnnModel, alg: Algorithm, strategy: Strategy) {
    let cluster = ClusterConfig::ec2(16);
    let ring = TrainingJob::baseline(model, cluster, Strategy::HorovodRing);
    let hipress = TrainingJob::hipress(model, cluster, strategy).with_algorithm(alg);
    let (ring_strip, ring_util) = strip(&ring, 4);
    let (hip_strip, hip_util) = strip(&hipress, 4);
    println!("\n--- {} ---", model.name());
    println!("Ring     [{ring_strip}] {:.0}% util", ring_util * 100.0);
    println!("HiPress  [{hip_strip}] {:.0}% util", hip_util * 100.0);
    for (system, util) in [("Ring", ring_util), ("HiPress", hip_util)] {
        rec.record(
            "gpu_utilization",
            &[("model", model.name()), ("system", system)],
            util,
            None,
        );
    }
    assert!(
        hip_util >= ring_util,
        "HiPress must keep the GPU at least as busy"
    );
}

fn main() {
    banner(
        "Figure 9",
        "GPU utilization over 4 iterations, Ring vs HiPress ('#'=busy, '.'=idle)",
    );
    let rec = Recorder::new("fig9");
    compare(
        &rec,
        DnnModel::BertLarge,
        Algorithm::OneBit,
        Strategy::CaSyncRing,
    );
    compare(
        &rec,
        DnnModel::Ugatit,
        Algorithm::TernGrad { bitwidth: 2 },
        Strategy::CaSyncPs,
    );
    println!(
        "\n(paper: Ring's utilization drops to zero during transmissions; HiPress stays busy)"
    );
    rec.finish();
}
