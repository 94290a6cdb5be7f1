//! Overhead of the fault-tolerant frame path with no faults: the
//! same synchronization run on the trusting fast path and on the
//! frame protocol (serialization + sequence numbers + checksums +
//! acks + dedup)
//! under an empty fault plan. The contract is that hardening is
//! cheap: under 5% extra CPU aggregated over the compressed
//! configurations the system actually ships (small payloads make
//! per-message checksums negligible; the uncompressed rows are
//! reported for context but not gated).
//!
//! The gate compares process CPU time, not wall clock. On a shared
//! or oversubscribed host, wall clock measures the scheduler —
//! identical runs here vary 2-5x with background load — while CPU
//! time measures the work the protocol actually adds. Wall minima
//! are still printed for context.

use hipress::chaos::FaultPlan;
use hipress::prelude::*;
use hipress::tensor::synth::{generate, GradientShape};
use hipress::tensor::Tensor;
use hipress_bench::{banner, cpu_ticks, median, pct, Recorder};

const REPS: usize = 7;
const BUDGET_PCT: f64 = 5.0;
const MAX_ATTEMPTS: usize = 3;

fn grads(nodes: usize, sizes: &[usize]) -> Vec<Vec<Tensor>> {
    (0..nodes)
        .map(|w| {
            sizes
                .iter()
                .enumerate()
                .map(|(g, &n)| {
                    generate(
                        n,
                        GradientShape::Gaussian { std_dev: 1.0 },
                        (w * 7919 + g) as u64,
                    )
                })
                .collect()
        })
        .collect()
}

/// One cell's measurements, per path: the median CPU cost of a run,
/// the median *paired* extra CPU of the fault-tolerant run over the
/// fast run it was interleaved with, the best wall time, and the outcome
/// that produced it.
struct Measured {
    cpu_fast: i64,
    cpu_delta: i64,
    wall_fast_ns: u64,
    wall_ft_ns: u64,
    out_fast: SyncOutcome,
    out_ft: SyncOutcome,
}

/// Runs fast/fault-tolerant interleaved back to back [`REPS`] times.
/// Background load here comes in multi-second bursts, so the two
/// runs of a pair see the same ambient conditions; the per-pair CPU
/// delta cancels the drift that makes absolute CPU (let alone wall
/// clock) swing by double digits. The median over pairs discards the
/// reps a burst boundary still splits.
fn measure_pair(fast: &HiPress, ft: &HiPress, workers: &[Vec<Tensor>]) -> Measured {
    let mut cpu_f = Vec::new();
    let mut deltas = Vec::new();
    let mut best: [Option<(u64, SyncOutcome)>; 2] = [None, None];
    for rep in 0..REPS {
        // Alternate which path goes first so warmup and frequency
        // drift cannot systematically favor one side.
        let mut order = [(fast, 0usize), (ft, 1usize)];
        if rep % 2 == 1 {
            order.swap(0, 1);
        }
        let mut spent = [0i64; 2];
        for (builder, slot) in order {
            let before = cpu_ticks();
            let out = builder.sync(workers).expect("sync");
            spent[slot] = (cpu_ticks() - before) as i64;
            let wall = out.report.as_ref().expect("thread backend reports").wall_ns;
            if best[slot].as_ref().is_none_or(|(b, _)| wall < *b) {
                best[slot] = Some((wall, out));
            }
        }
        cpu_f.push(spent[0]);
        deltas.push(spent[1] - spent[0]);
    }
    let [f, e] = best;
    let (wall_fast_ns, out_fast) = f.expect("REPS > 0");
    let (wall_ft_ns, out_ft) = e.expect("REPS > 0");
    Measured {
        cpu_fast: median(cpu_f),
        cpu_delta: median(deltas),
        wall_fast_ns,
        wall_ft_ns,
        out_fast,
        out_ft,
    }
}

fn main() {
    banner(
        "chaos_overhead",
        "fault-free cost of the frame protocol vs the fast path",
    );
    let rec = Recorder::new("chaos_overhead");
    // Two node threads: more would oversubscribe small CI hosts and
    // inflate even the CPU-time comparison with contention.
    let nodes = 2;
    // Multi-megabyte gradients, the scale the paper's models ship:
    // long runs amortize the 10ms granularity of the CPU-tick clock
    // the gate reads, and large payloads are where checksum cost
    // would show if it were material.
    let sizes = [1 << 23, 1 << 20, 65536];
    let workers = grads(nodes, &sizes);
    println!(
        "\n{nodes} node threads, {} tensors, {REPS} interleaved runs per cell; \
         gate: compressed rows < {BUDGET_PCT}% extra CPU\n",
        sizes.len()
    );
    // One measurement attempt can still be spoiled by a long burst of
    // background load (the paired-delta estimator cancels short
    // bursts, not ones spanning many reps); the gate trips only when
    // every attempt exceeds the budget.
    let mut aggregate = f64::MAX;
    for attempt in 1..=MAX_ATTEMPTS {
        println!(
            "{:>12} {:>10} {:>11} {:>11} {:>10} {:>10}",
            "strategy", "algorithm", "fast", "ft", "cpu ovhd", "wall ovhd"
        );
        let mut gated_delta = 0i64;
        let mut gated_base = 0i64;
        let att = attempt.to_string();
        for strategy in [Strategy::CaSyncPs, Strategy::CaSyncRing] {
            for alg in [
                Algorithm::None,
                Algorithm::OneBit,
                Algorithm::TernGrad { bitwidth: 2 },
            ] {
                let fast = HiPress::new(strategy)
                    .algorithm(alg)
                    .partitions(4)
                    .backend(Backend::Threads(nodes));
                let ft = fast
                    .clone()
                    .fault_tolerance(FaultTolerance::default())
                    .chaos(&FaultPlan::none(0));
                let m = measure_pair(&fast, &ft, &workers);
                // Hardening must be invisible to the results, not just
                // cheap: both paths install the same bits.
                for (a, b) in m.out_fast.flows.iter().zip(&m.out_ft.flows) {
                    assert_eq!(
                        a.per_node, b.per_node,
                        "fault-tolerant path changed the result"
                    );
                }
                // Injections must be zero; retries are allowed to be
                // non-zero (a busy receiver acking late is honest
                // protocol bookkeeping, not a fault).
                assert!(
                    m.out_ft
                        .report
                        .as_ref()
                        .is_some_and(|r| r.faults.total_injected() == 0),
                    "an empty fault plan injected something"
                );
                let cpu_overhead = 100.0 * m.cpu_delta as f64 / m.cpu_fast as f64;
                let wall_overhead = pct(m.wall_ft_ns as f64, m.wall_fast_ns as f64);
                let alg_label = alg.label();
                let labels = [
                    ("strategy", strategy.label()),
                    ("algorithm", alg_label.as_str()),
                    ("attempt", att.as_str()),
                ];
                rec.record(
                    "wall_ns",
                    &[labels[0], labels[1], labels[2], ("path", "fast")],
                    m.wall_fast_ns as f64,
                    None,
                );
                rec.record(
                    "wall_ns",
                    &[labels[0], labels[1], labels[2], ("path", "ft")],
                    m.wall_ft_ns as f64,
                    None,
                );
                rec.record("chaos_overhead_pct", &labels, cpu_overhead, None);
                let gated = alg != Algorithm::None;
                if gated {
                    gated_delta += m.cpu_delta;
                    gated_base += m.cpu_fast;
                }
                println!(
                    "{:>12} {:>10} {:>9.2}ms {:>9.2}ms {:>+9.1}% {:>+9.1}%{}",
                    format!("{strategy:?}"),
                    alg.label(),
                    m.wall_fast_ns as f64 / 1e6,
                    m.wall_ft_ns as f64 / 1e6,
                    cpu_overhead,
                    wall_overhead,
                    if gated { "" } else { "  (not gated)" }
                );
            }
            println!();
        }
        aggregate = 100.0 * gated_delta as f64 / gated_base as f64;
        rec.record(
            "chaos_overhead_pct",
            &[("scope", "gated-aggregate"), ("attempt", att.as_str())],
            aggregate,
            None,
        );
        if aggregate < BUDGET_PCT {
            break;
        }
        println!(
            "attempt {attempt}/{MAX_ATTEMPTS}: aggregate CPU overhead {aggregate:+.1}% \
         over budget — remeasuring\n"
        );
    }
    assert!(
        aggregate < BUDGET_PCT,
        "fault-tolerant CPU overhead {aggregate:.1}% blows the {BUDGET_PCT}% budget \
         on every attempt"
    );
    println!(
        "aggregate CPU overhead over compressed cells: {aggregate:+.1}% (< {BUDGET_PCT}% budget)"
    );
    rec.finish();
}
