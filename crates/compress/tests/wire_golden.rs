//! Golden wire bytes: the FNV-1a digest of `encode` output for a fixed
//! (algorithm, gradient seed, length, encode seed), for every
//! optimized codec.
//!
//! The streams are a cross-rank contract — every replica decodes what
//! another encoded, and the runtime is checked bit-for-bit against the
//! interpreter — so a kernel change that alters a single wire byte
//! must fail here, in `cargo test`, rather than as a checksum mismatch
//! between ranks. The digests were captured at the commit before the
//! byte-at-a-time kernels replaced the per-element bit I/O, and the
//! large-chunk DGC one at the commit before the sampled-threshold
//! selector replaced the whole-array quickselect.

use hipress_compress::Algorithm;
use hipress_tensor::synth::{generate, GradientShape};

/// Byte-wise 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

/// Not a multiple of 8, so every packer's tail byte is pinned too.
const LEN: usize = 4099;
const GRAD_SEED: u64 = 0x601D;
const ENCODE_SEED: u64 = 7;

#[test]
fn encoded_streams_match_pinned_digests() {
    let grad = generate(LEN, GradientShape::Gaussian { std_dev: 1.0 }, GRAD_SEED);
    let pinned: [(Algorithm, u64); 10] = [
        (Algorithm::OneBit, 0xB857_649E_D10C_3082),
        (Algorithm::Tbq { tau: 0.5 }, 0x3EEB_6607_9172_B32F),
        (Algorithm::TernGrad { bitwidth: 1 }, 0xE38C_3F3E_3A80_7E69),
        (Algorithm::TernGrad { bitwidth: 2 }, 0x6860_0569_1789_DC0A),
        (Algorithm::TernGrad { bitwidth: 3 }, 0x0767_2F9E_C01D_965D),
        (Algorithm::TernGrad { bitwidth: 4 }, 0xB8EE_3140_910A_7B69),
        (Algorithm::TernGrad { bitwidth: 8 }, 0x5A9E_B1A9_B02F_9063),
        (Algorithm::Dgc { rate: 0.01 }, 0x414B_A370_5AAB_65B5),
        (Algorithm::GradDrop { rate: 0.01 }, 0xC069_8092_A90F_ED4B),
        (Algorithm::GradDrop { rate: 1.0 }, 0xB570_DE26_C134_AE25),
    ];
    for (alg, want) in pinned {
        let enc = alg.build().unwrap().encode(grad.as_slice(), ENCODE_SEED);
        let got = fnv1a(&enc);
        assert_eq!(
            got,
            want,
            "{}: wire bytes changed ({} bytes, digest {got:#018x})",
            alg.label(),
            enc.len()
        );
    }
}

/// The selector at the size and rate `dgc_ps_thr` runs it: the PS half
/// of the benchmark's 1 Mi-element gradient, 525 survivors.
#[test]
fn dgc_large_chunk_matches_pinned_digest() {
    let grad = generate(524_288, GradientShape::Gaussian { std_dev: 1.0 }, GRAD_SEED);
    let alg = Algorithm::Dgc { rate: 0.001 };
    let enc = alg.build().unwrap().encode(grad.as_slice(), ENCODE_SEED);
    assert_eq!(enc.len(), 8 + 4 + 525 * 8);
    let got = fnv1a(&enc);
    assert_eq!(
        got, 0x2F9E_BB6A_49BA_0385,
        "dgc(0.10%) on 524 288 elements: wire bytes changed (digest {got:#018x})"
    );
}
