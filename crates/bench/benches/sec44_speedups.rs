//! §4.4 "Compression performance": wall-clock encode/decode speed of
//! the optimized implementations versus the deliberately naive OSS
//! baselines, measured for real on this machine's CPU.
//!
//! The paper reports CompLL-TBQ >12× faster than OSS-TBQ,
//! CompLL-DGC up to 5.1× faster than OSS-DGC, and CompLL-onebit up
//! to 35.6× faster than the CPU-only OSS-onebit. Our optimized/naive
//! pairs reproduce the *existence and direction* of those gaps (the
//! exact factors depend on the host).
//!
//! `ci.sh` runs this as a gate: besides the simulated pass counts it
//! asserts that the byte-at-a-time onebit and TBQ encoders stay at
//! least [`MIN_KERNEL_SPEEDUP`]× ahead of their per-bit OSS baselines,
//! the sampled-threshold DGC selector [`MIN_DGC_SPEEDUP`]× ahead of
//! the full sort, and DGC's sparse `merge_into`
//! [`MIN_SPARSE_MERGE_SPEEDUP`]× ahead of a dense decode and add. Both
//! sides run in this process on the same gradient, so the ratio holds
//! on a slow or noisy host where an absolute time would not.

use hipress::compress::{Algorithm, Compressor};
use hipress::tensor::synth::{generate, GradientShape};
use hipress_bench::{banner, Recorder};
use std::time::Instant;

/// Floor on optimized-vs-OSS encode wall clock for the two pure
/// bit-packing quantizers (measured: 11–15×). A kernel that falls back
/// to per-element bit I/O lands near 1–2× and fails.
const MIN_KERNEL_SPEEDUP: f64 = 3.0;

/// Floor on DGC encode over OSS-DGC's full sort (measured: 119–210×).
/// A whole-array quickselect over an index vector lands near 19× and
/// fails.
const MIN_DGC_SPEEDUP: f64 = 40.0;

/// Floor on DGC's sparse `merge_into` over decoding the stream into
/// the destination and adding the accumulator there (the default
/// `merge_into`), on a 512 Ki-element chunk at the paper's 0.1 % rate
/// (measured: 1.32–1.50× over 12 runs). Without the sparse override
/// the same comparison reads 0.88–1.03× and fails.
const MIN_SPARSE_MERGE_SPEEDUP: f64 = 1.15;

fn time_encode(c: &dyn Compressor, grad: &[f32], reps: usize) -> f64 {
    // Warm up.
    let _ = c.encode(grad, 0);
    let start = Instant::now();
    for seed in 0..reps as u64 {
        std::hint::black_box(c.encode(std::hint::black_box(grad), seed));
    }
    start.elapsed().as_secs_f64() / reps as f64
}

fn main() {
    banner(
        "SS4.4",
        "optimized vs OSS encode speed (wall clock, 8 MiB gradient)",
    );
    let grad = generate(2 << 20, GradientShape::default_dnn(), 3); // 2M elems = 8 MiB.
    println!(
        "{:<12} {:>14} {:>14} {:>10}",
        "algorithm", "optimized", "OSS", "speedup"
    );
    let pairs = [
        Algorithm::OneBit,
        Algorithm::Tbq { tau: 0.001 },
        Algorithm::TernGrad { bitwidth: 2 },
        Algorithm::Dgc { rate: 0.001 },
    ];
    let rec = Recorder::new("sec44");
    for alg in pairs {
        let opt = alg.build().expect("builds");
        let oss = alg.build_oss().expect("OSS exists for these four");
        // OSS-DGC sorts 2M pairs (~100 ms); the selector it is held
        // against takes ~1 ms, too short to time three times.
        let (reps, oss_reps) = if matches!(alg, Algorithm::Dgc { .. }) {
            (64, 3)
        } else {
            (8, 8)
        };
        let t_opt = time_encode(opt.as_ref(), grad.as_slice(), reps);
        let t_oss = time_encode(oss.as_ref(), grad.as_slice(), oss_reps);
        let speedup = t_oss / t_opt;
        println!(
            "{:<12} {:>11.2} ms {:>11.2} ms {:>9.1}x",
            opt.name(),
            t_opt * 1e3,
            t_oss * 1e3,
            speedup
        );
        rec.record(
            "encode_wallclock_speedup",
            &[("algorithm", opt.name())],
            speedup,
            None,
        );
        let floor = match alg {
            Algorithm::OneBit | Algorithm::Tbq { .. } => MIN_KERNEL_SPEEDUP,
            Algorithm::Dgc { .. } => MIN_DGC_SPEEDUP,
            _ => 0.0,
        };
        assert!(
            speedup >= floor,
            "{}: optimized encode only {speedup:.1}x faster than OSS (floor {floor}x)",
            opt.name()
        );
    }
    // The aggregator's decode → merge step for a sparse stream: one
    // pass that adds the survivors to the accumulator, against the
    // default path, a dense decode into the destination and a dense
    // add there.
    let chunk = &grad.as_slice()[..512 << 10];
    let dgc = Algorithm::Dgc { rate: 0.001 }.build().unwrap();
    let stream = dgc.encode(chunk, 0);
    let acc = generate(chunk.len(), GradientShape::default_dnn(), 4).into_vec();
    let mut out = vec![0.0f32; chunk.len()];
    let reps = 200;
    let time = |f: &mut dyn FnMut()| {
        f();
        let start = Instant::now();
        for _ in 0..reps {
            f();
        }
        start.elapsed().as_secs_f64() / reps as f64
    };
    let t_dense = time(&mut || {
        dgc.decode_into(&stream, &mut out).unwrap();
        for (o, &a) in out.iter_mut().zip(&acc) {
            *o += a;
        }
        std::hint::black_box(&out);
    });
    let t_sparse = time(&mut || {
        dgc.merge_into(&stream, &acc, &mut out).unwrap();
        std::hint::black_box(&out);
    });
    let speedup = t_dense / t_sparse;
    println!(
        "{:<12} {:>11.3} ms {:>11.3} ms {:>9.2}x  (merge_into vs decode_into + add, 512 Ki)",
        "dgc merge",
        t_sparse * 1e3,
        t_dense * 1e3,
        speedup
    );
    rec.record(
        "merge_wallclock_speedup",
        &[("algorithm", dgc.name())],
        speedup,
        None,
    );
    assert!(
        speedup >= MIN_SPARSE_MERGE_SPEEDUP,
        "dgc: merge_into only {speedup:.2}x faster than decode_into + add (floor {MIN_SPARSE_MERGE_SPEEDUP}x)"
    );
    // The gap the cluster simulation charges is the GPU-kernel cost
    // ratio (the paper's numbers are GPU measurements); host
    // wall-clock above shows the same direction on this CPU.
    for alg in pairs {
        let opt = alg.build().unwrap().cost_profile();
        let oss = alg.build_oss().unwrap().cost_profile();
        assert!(
            oss.encode_passes > opt.encode_passes,
            "{}: the OSS kernel must cost more",
            alg.label()
        );
    }
    println!("\nsimulated-GPU kernel cost ratios (what the cluster simulation charges):");
    for alg in pairs {
        let opt = alg.build().unwrap().cost_profile();
        let oss = alg.build_oss().unwrap().cost_profile();
        println!(
            "{:<12} encode passes {:>5.1} vs {:>5.1}  ({:.1}x)",
            alg.label(),
            opt.encode_passes,
            oss.encode_passes,
            oss.encode_passes / opt.encode_passes
        );
        let alg_label = alg.label();
        rec.record(
            "kernel_cost_ratio",
            &[("algorithm", &alg_label)],
            oss.encode_passes / opt.encode_passes,
            None,
        );
    }
    println!("(paper factors: TBQ >12x, DGC up to 5.1x, onebit-on-CPU 35.6x)");
    rec.finish();
}
