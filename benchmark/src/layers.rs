//! The traced pass: where an iteration's node-time goes.
//!
//! Extra `sync` calls run with `.trace(&tracer).metrics(&scope)`; the
//! per-primitive busy times, message and frame counts are read from
//! the `RuntimeReport` the program already produces, and cross-checked
//! against the report re-derived from the recorded trace. Traced and
//! untraced calls alternate so `trace.overhead_pct` compares like with
//! like.

use crate::e2e::{prepare, sample};
use crate::probes;
use crate::stats::median;
use crate::workloads::Workload;
use crate::{Metric, Pass};
use hipress::prelude::*;
use std::time::Instant;

/// Fewest traced/untraced call pairs, however short the run.
const MIN_PAIRS: u64 = 3;
/// Share of the run given to the traced pass; the probes get the rest.
const TRACED_SHARE: f64 = 0.5;

/// The eight shares of `nodes × wall_ns`, in catalogue order. Every
/// nanosecond of node-time is in exactly one: the seven traced
/// primitives, or `sched.idle_share` — idle, wait-on-peer, dispatch,
/// barriers, and fabric threads no task span covers. They sum to 1.
pub fn budget(total: &RuntimeReport) -> [(&'static str, f64); 8] {
    let busy = [
        ("codec.encode_share", total.encode.busy_ns),
        ("codec.decode_share", total.decode.busy_ns),
        ("codec.merge_share", total.merge.busy_ns),
        ("fabric.send_share", total.send.busy_ns),
        ("fabric.recv_share", total.recv.busy_ns),
        ("sched.source_share", total.source.busy_ns),
        ("sched.update_share", total.update.busy_ns),
    ];
    let busy_ns: u64 = busy.iter().map(|(_, ns)| ns).sum();
    // Worker clocks are not the coordinator's: should their summed busy
    // time ever exceed the node-time the coordinator saw, the busy time
    // is the better denominator and idle is zero, never negative.
    let node_ns = (total.nodes as u64 * total.wall_ns).max(busy_ns).max(1) as f64;
    let mut out = [("sched.idle_share", 0.0); 8];
    for (slot, (name, ns)) in out.iter_mut().zip(busy) {
        *slot = (name, ns as f64 / node_ns);
    }
    out[7].1 = (node_ns - busy_ns as f64) / node_ns;
    out
}

/// Task executions of every primitive kind in `r`.
pub fn task_count(r: &RuntimeReport) -> u64 {
    [
        r.source, r.encode, r.decode, r.merge, r.send, r.recv, r.update, r.barrier,
    ]
    .iter()
    .map(|s| s.count)
    .sum()
}

/// Sums `r` into `total`. `absorb` adds the per-node statistics; wall
/// time is run-level and added here, so `total` reads as one long run.
fn accumulate(total: &mut RuntimeReport, r: &RuntimeReport) {
    total.absorb(r);
    total.nodes = r.nodes;
    total.wall_ns += r.wall_ns;
}

/// The traced pass and the probes over one workload.
pub fn run(w: &Workload, seed: u64, seconds: f64, smoke: bool) -> Result<Pass, String> {
    let iters = w.iters_for(smoke);
    let p = prepare(w, seed)?;
    let plain = w.facade(w.backend(), iters);
    if sample(w, &plain, &p)?.report.is_none() {
        return Err(format!("{}: warm-up call failed", w.name));
    }

    let mut total = RuntimeReport::default();
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let started = Instant::now();
    let pairs: u64 = if smoke { 1 } else { MIN_PAIRS };
    while attempted < 2 * pairs || started.elapsed().as_secs_f64() < seconds * TRACED_SHARE {
        // Alternate which of the pair goes first, so neither side
        // always runs on what the other left warm.
        for traced in [attempted % 4 == 2, attempted % 4 == 0] {
            attempted += 1;
            if !traced {
                let s = sample(w, &plain, &p)?;
                match &s.report {
                    Some(_) => plain_ms.push(s.ms_per_iter(iters)),
                    None => failed += 1,
                }
                continue;
            }
            let tracer = Tracer::new("benchmark");
            let registry = Registry::new();
            let facade = plain.clone().trace(&tracer).metrics(&registry.root());
            let s = sample(w, &facade, &p)?;
            match &s.report {
                Some(r) if RuntimeReport::from_trace(&tracer.finish()) == *r => {
                    traced_ms.push(s.ms_per_iter(iters));
                    accumulate(&mut total, r);
                }
                Some(_) => {
                    eprintln!(
                        "{}: trace-derived report differs from the measured one",
                        w.name
                    );
                    failed += 1;
                }
                None => failed += 1,
            }
        }
    }
    if traced_ms.is_empty() || plain_ms.is_empty() {
        return Err(format!("{}: no traced/untraced pair completed", w.name));
    }

    let iterations = traced_ms.len() as f64 * f64::from(iters);
    let per_iter = |count: u64| count as f64 / iterations;
    let tasks = task_count(&total);
    let overhead_bytes = total.fabric_bytes_framed - total.fabric_bytes_payload;
    let mut metrics: Vec<Metric> = budget(&total).to_vec();
    metrics.extend([
        ("sched.tasks_per_iter", per_iter(tasks)),
        (
            "sched.batch_launches_per_iter",
            per_iter(total.comp_batch_launches),
        ),
        ("sched.overlap_pct", total.pipeline_overlap() * 100.0),
        ("fabric.msgs_per_iter", per_iter(total.messages)),
        (
            "fabric.framed_bytes_per_iter",
            per_iter(total.fabric_bytes_framed),
        ),
        (
            "fabric.frame_overhead_pct",
            overhead_bytes as f64 * 100.0 / total.fabric_bytes_payload.max(1) as f64,
        ),
        (
            "fabric.retransmits_per_iter",
            per_iter(total.fabric_retransmits),
        ),
        (
            "trace.overhead_pct",
            (median(&traced_ms) / median(&plain_ms) - 1.0) * 100.0,
        ),
    ]);
    metrics.extend(probes::run(w, seed, seconds * (1.0 - TRACED_SHARE))?);

    Ok(Pass {
        attempted,
        failed,
        metrics,
        note: format!(
            "budget over {} traced calls of K={iters}: shares are of nodes x wall = {} x {:.1} ms",
            traced_ms.len(),
            total.nodes,
            total.wall_ns as f64 / 1e6
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipress::runtime::PrimStat;

    fn stat(busy_ns: u64) -> PrimStat {
        PrimStat { count: 1, busy_ns }
    }

    #[test]
    fn shares_sum_to_one_and_idle_is_never_negative() {
        let mut r = RuntimeReport {
            nodes: 3,
            wall_ns: 1_000,
            source: stat(100),
            encode: stat(700),
            decode: stat(650),
            merge: stat(90),
            send: stat(40),
            recv: stat(5),
            update: stat(333),
            barrier: stat(77),
            ..RuntimeReport::default()
        };
        for wall_ns in [1_000, 100, 0] {
            // 3 000 ns of node-time holds the 1 918 busy ns; 300 and 0 do not.
            r.wall_ns = wall_ns;
            let shares = budget(&r);
            let sum: f64 = shares.iter().map(|(_, s)| s).sum();
            assert!((sum - 1.0).abs() < 1e-9, "wall {wall_ns}: sum {sum}");
            assert_eq!(shares[7].0, "sched.idle_share");
            assert!(shares.iter().all(|(_, s)| *s >= 0.0), "{shares:?}");
        }
        r.wall_ns = 1_000;
        let shares = budget(&r);
        assert!((shares[0].1 - 700.0 / 3_000.0).abs() < 1e-12);
        // Barrier time is not a traced share: it lands in idle.
        assert!((shares[7].1 - (3_000.0 - 1_918.0) / 3_000.0).abs() < 1e-12);
    }

    #[test]
    fn an_empty_report_is_all_idle() {
        let shares = budget(&RuntimeReport::default());
        assert_eq!(shares[7], ("sched.idle_share", 1.0));
        assert!(shares[..7].iter().all(|(_, s)| *s == 0.0));
    }
}
