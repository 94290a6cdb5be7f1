//! The end-to-end pass: set-up with its correctness gate, then timed
//! `sync` calls with every instrument off.
//!
//! Closed loop, one harness thread, one `sync` call in flight; the
//! system under test owns its rank threads or processes. One sample is
//! one call of the workload's `K` iterations.

use crate::stats::{checksum, cpu_seconds, median, quartiles};
use crate::workloads::Workload;
use crate::Pass;
use hipress::prelude::*;
use hipress::tensor::Tensor;
use std::time::{Duration, Instant};

/// How many times set-up is repeated; `setup_s` is the median.
const SETUPS: usize = 3;

/// A workload's inputs and the checksum every output must match.
pub struct Prepared {
    pub grads: Vec<Vec<Tensor>>,
    pub reference: u64,
}

/// Generates the inputs and computes the reference: one iteration on
/// the interpreter (`Backend::Simulator`). Pipelined iterations re-run
/// the same graph on the same inputs, so every later output — any
/// backend, any `K`, any window — must carry this checksum.
pub fn prepare(w: &Workload, seed: u64) -> Result<Prepared, String> {
    let grads = w.gradients(seed);
    let reference = w
        .facade(Backend::Simulator, 1)
        .sync(&grads)
        .map_err(|e| format!("{}: interpreter reference failed: {e}", w.name))?;
    if !reference.replicas_consistent() {
        return Err(format!("{}: interpreter replicas diverge", w.name));
    }
    Ok(Prepared {
        reference: checksum(&reference.flows),
        grads,
    })
}

/// One `sync` call: wall and CPU time around the call only, and
/// whether its output is the reference.
pub struct Sample {
    pub wall: Duration,
    pub cpu_s: f64,
    /// `None` when the call failed or its output is wrong.
    pub report: Option<RuntimeReport>,
}

impl Sample {
    /// Wall milliseconds per iteration of a call of `iters` iterations.
    pub fn ms_per_iter(&self, iters: u32) -> f64 {
        self.wall.as_secs_f64() * 1e3 / f64::from(iters)
    }
}

/// Runs `facade` once over the prepared inputs and checks the output.
pub fn sample(w: &Workload, facade: &HiPress, p: &Prepared) -> Result<Sample, String> {
    let cpu0 = cpu_seconds()?;
    let t0 = Instant::now();
    let out = facade.sync(&p.grads);
    let wall = t0.elapsed();
    let cpu_s = cpu_seconds()? - cpu0;
    let report = match out {
        Ok(out) if out.replicas_consistent() && checksum(&out.flows) == p.reference => out.report,
        Ok(_) => {
            eprintln!("{}: output differs from the interpreter reference", w.name);
            None
        }
        Err(e) => {
            eprintln!("{}: sync failed: {e}", w.name);
            None
        }
    };
    Ok(Sample {
        wall,
        cpu_s,
        report,
    })
}

/// Full set-up as a user pays it before the first useful iteration:
/// inputs, reference, the bit-identity gate of the real backend
/// against the interpreter (single iteration, which on threads is the
/// non-pipelined engine), and one discarded warm-up call.
fn setup(w: &Workload, seed: u64, iters: u32) -> Result<Prepared, String> {
    let p = prepare(w, seed)?;
    for (what, k) in [("single-iteration gate", 1), ("warm-up call", iters)] {
        if sample(w, &w.facade(w.backend(), k), &p)?.report.is_none() {
            return Err(format!("{}: {what} failed", w.name));
        }
    }
    Ok(p)
}

/// The end-to-end pass over one workload. Measures for `seconds`
/// (at least one sample); `smoke` cuts `K` to an eighth and sets up
/// once.
pub fn run(w: &Workload, seed: u64, seconds: f64, smoke: bool) -> Result<Pass, String> {
    let iters = w.iters_for(smoke);

    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..if smoke { 1 } else { SETUPS } {
        let t0 = Instant::now();
        prepared = Some(setup(w, seed, iters)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let p = prepared.expect("at least one set-up ran");

    let facade = w.facade(w.backend(), iters);
    let mut iter_ms = Vec::new();
    let mut cpu_s = 0.0;
    let mut wire_bytes = Vec::new();
    let mut attempted = 0u64;
    let started = Instant::now();
    loop {
        let s = sample(w, &facade, &p)?;
        attempted += 1;
        if let Some(report) = &s.report {
            iter_ms.push(s.ms_per_iter(iters));
            cpu_s += s.cpu_s;
            wire_bytes.push(report.bytes_wire as f64 / f64::from(iters));
        }
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let ok = iter_ms.len() as u64;
    if ok == 0 {
        return Err(format!("{}: every timed sample failed", w.name));
    }
    let [q1, _, q3] = quartiles(&iter_ms);
    Ok(Pass {
        attempted,
        failed: attempted - ok,
        metrics: vec![
            ("iter_ms_p50", median(&iter_ms)),
            (
                "cpu_ms_per_iter",
                cpu_s * 1e3 / (ok as f64 * f64::from(iters)),
            ),
            ("wire_bytes_per_iter", median(&wire_bytes)),
            ("setup_s", median(&setup_s)),
        ],
        note: format!(
            "iter_ms over n={ok} samples of K={iters} iterations: q1 {q1:.4} q3 {q3:.4}; \
             no percentile above the median has ten samples beyond it, so none is claimed"
        ),
    })
}
