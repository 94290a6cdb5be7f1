//! The byte-at-a-time quantizer kernels against straight-line
//! references, the sampled top-k selector against the sort-based
//! oracle, and `decode_into` against `decode` and against hostile
//! streams.
//!
//! The references below are the per-element `BitWriter` loops the
//! kernels replaced, kept here as the specification of the wire
//! bytes: the streams must stay identical for *every* input, including
//! the values a branch-free rewrite is most likely to misplace (NaN,
//! ±0.0, ±inf, subnormals).

use hipress_compress::Algorithm;
use hipress_tensor::synth::{generate, GradientShape};
use hipress_util::bits::BitWriter;
use hipress_util::rng::{Rng64, Xoshiro256};

const MAGIC: u8 = 0xC9;

fn header(algo_id: u8, elems: u32) -> Vec<u8> {
    let mut out = vec![MAGIC, algo_id, 0, 0];
    out.extend_from_slice(&elems.to_le_bytes());
    out
}

fn reference_onebit(grad: &[f32]) -> Vec<u8> {
    let (mut pos_sum, mut pos_n, mut neg_sum, mut neg_n) = (0.0f64, 0u64, 0.0f64, 0u64);
    for &x in grad {
        if x > 0.0 {
            pos_sum += x as f64;
            pos_n += 1;
        } else {
            neg_sum += x as f64;
            neg_n += 1;
        }
    }
    let mean = |sum: f64, n: u64| if n > 0 { (sum / n as f64) as f32 } else { 0.0 };
    let mut out = header(1, grad.len() as u32);
    out.extend_from_slice(&mean(neg_sum, neg_n).to_le_bytes());
    out.extend_from_slice(&mean(pos_sum, pos_n).to_le_bytes());
    let mut bits = BitWriter::new();
    for &x in grad {
        bits.write_bit(x > 0.0);
    }
    out.extend_from_slice(&bits.finish());
    out
}

fn reference_tbq(grad: &[f32], tau: f32) -> Vec<u8> {
    let mut out = header(2, grad.len() as u32);
    out.extend_from_slice(&tau.to_le_bytes());
    let mut bits = BitWriter::new();
    for &x in grad {
        let code = if x >= tau {
            0b01
        } else if x <= -tau {
            0b10
        } else {
            0b00
        };
        bits.write(code, 2);
    }
    out.extend_from_slice(&bits.finish());
    out
}

fn reference_terngrad(grad: &[f32], bitwidth: u8, seed: u64) -> Vec<u8> {
    let mut rng = Xoshiro256::new(seed);
    let (mut min, mut max) = (f32::INFINITY, f32::NEG_INFINITY);
    for &x in grad {
        min = min.min(x);
        max = max.max(x);
    }
    if grad.is_empty() {
        (min, max) = (0.0, 0.0);
    }
    let top = (1u32 << bitwidth) - 1;
    let span = max - min;
    let gap = if span > 0.0 { span / top as f32 } else { 0.0 };
    let mut out = header(3, grad.len() as u32);
    out.push(bitwidth);
    out.extend_from_slice(&min.to_le_bytes());
    out.extend_from_slice(&max.to_le_bytes());
    let mut bits = BitWriter::new();
    for &x in grad {
        let q = if gap > 0.0 {
            let r = (x - min) / gap;
            ((r + rng.next_f32()).floor() as u32).min(top)
        } else {
            0
        };
        bits.write(q as u64, bitwidth as u32);
    }
    out.extend_from_slice(&bits.finish());
    out
}

/// The values a sign test, a threshold or a min/max scan can get
/// wrong. One NaN payload only: which of two *different* NaNs an
/// addition propagates is not specified.
const SEASONING: [f32; 9] = [
    f32::NAN,
    0.0,
    -0.0,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::MIN_POSITIVE / 2.0, // Subnormal.
    -f32::MIN_POSITIVE / 2.0,
    f32::MIN_POSITIVE,
    f32::MAX,
];

/// A Gaussian-ish gradient of `len` elements; with `seasoned`, about
/// one element in eight is a special value.
fn gradient(rng: &mut Xoshiro256, len: usize, seasoned: bool) -> Vec<f32> {
    (0..len)
        .map(|_| {
            if seasoned && rng.index(8) == 0 {
                SEASONING[rng.index(SEASONING.len())]
            } else {
                rng.next_gaussian() as f32
            }
        })
        .collect()
}

fn bits_of(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn quantizer_streams_equal_the_bitwriter_reference() {
    let mut rng = Xoshiro256::new(0xBEEF_0001);
    for case in 0..400usize {
        // Every tail length of the 8-element group, plus longer runs.
        let len = if case < 70 { case } else { rng.index(700) };
        let grad = gradient(&mut rng, len, case % 2 == 1);
        let seed = rng.next_u64();
        assert_eq!(
            Algorithm::OneBit.build().unwrap().encode(&grad, seed),
            reference_onebit(&grad),
            "onebit, case {case}"
        );
        let tau = 0.5;
        assert_eq!(
            Algorithm::Tbq { tau }.build().unwrap().encode(&grad, seed),
            reference_tbq(&grad, tau),
            "tbq, case {case}"
        );
        for bitwidth in [1u8, 2, 3, 4, 8] {
            assert_eq!(
                Algorithm::TernGrad { bitwidth }
                    .build()
                    .unwrap()
                    .encode(&grad, seed),
                reference_terngrad(&grad, bitwidth, seed),
                "terngrad {bitwidth}-bit, case {case}"
            );
        }
    }
}

/// `x > 0.0` decides the onebit subset: NaN and -0.0 are not positive,
/// in the sign bits and in the means alike.
#[test]
fn onebit_keeps_nan_and_negative_zero_non_positive() {
    let c = Algorithm::OneBit.build().unwrap();
    let enc = c.encode(
        &[f32::NAN, -0.0, 0.0, 2.0, -0.0, f32::NAN, 4.0, -0.0, 6.0],
        0,
    );
    assert_eq!(&enc[16..], &[0b0100_1000, 0b0000_0001]);
    let dec = c.decode(&enc).unwrap();
    assert_eq!(dec[3], 4.0, "positive mean is (2 + 4 + 6) / 3");
    assert!(dec[0].is_nan(), "NaN poisons the non-positive mean only");

    let enc = c.encode(&[-0.0, 0.0, -0.0], 0);
    assert_eq!(&enc[8..], &[0, 0, 0, 0, 0, 0, 0, 0, 0], "both levels +0.0");
}

/// The inputs a selector can get wrong: smooth ones where the sample
/// works, and ones built so the cut falls inside a run of equal
/// magnitudes, where only the tie rule (magnitude descending, index
/// ascending) makes the survivor set unique.
fn selection_inputs(rng: &mut Xoshiro256, len: usize) -> Vec<(&'static str, Vec<f32>)> {
    let sign = |i: usize| if i.is_multiple_of(2) { 1.0 } else { -1.0 };
    let mut sparse = vec![0.0f32; len];
    for j in 0..len.min(5) {
        sparse[(j * 7919 + len / 2) % len] = sign(j) * (j + 1) as f32;
    }
    vec![
        ("gaussian", gradient(rng, len, false)),
        (
            "default_dnn",
            generate(len, GradientShape::default_dnn(), rng.next_u64()).into_vec(),
        ),
        ("all-equal", vec![0.25; len]),
        (
            "two-level",
            (0..len)
                .map(|i| sign(i) * if i % 3 == 0 { 2.0 } else { 1.0 })
                .collect(),
        ),
        ("zeros and a handful", sparse),
        (
            "signed zeros",
            (0..len)
                .map(|_| [0.0, -0.0, -0.0, 0.0, 1.0, -1.0][rng.index(6)])
                .collect(),
        ),
        ("seasoned", gradient(rng, len, true)),
    ]
}

/// `Dgc` is the exact top-k under a specified total order, so its
/// stream equals the full sort's byte for byte: across the lengths
/// where the sample's size and the filter's blocks change shape, the
/// chunk lengths the benchmark runs, and rates from sparse to all.
#[test]
fn dgc_stream_equals_the_sorting_oracle() {
    let mut rng = Xoshiro256::new(0xBEEF_0005);
    let lengths = [
        0, 1, 2, 31, 32, 33, 63, 64, 65, // Filter block and first stride.
        130, 131, 132, // The smallest input the sample serves.
        4095, 4096, 4097, // Whole filter blocks, one over and one short.
        349_526, 524_288, // Ring and PS chunks of the 1 Mi gradient.
        540_671, 540_672, 540_673, // The stride grows past its minimum.
    ];
    for len in lengths {
        for (input, grad) in selection_inputs(&mut rng, len) {
            for rate in [0.001, 0.01, 0.1, 0.5, 1.0] {
                let alg = Algorithm::Dgc { rate };
                let got = alg.build().unwrap().encode(&grad, 0);
                let want = alg.build_oss().unwrap().encode(&grad, 0);
                assert!(got == want, "{input}, {len} elements, rate {rate}");
            }
        }
    }
}

fn all_algorithms() -> Vec<Algorithm> {
    vec![
        Algorithm::OneBit,
        Algorithm::Tbq { tau: 0.5 },
        Algorithm::TernGrad { bitwidth: 2 },
        Algorithm::TernGrad { bitwidth: 3 },
        Algorithm::TernGrad { bitwidth: 8 },
        Algorithm::Dgc { rate: 0.1 },
        Algorithm::GradDrop { rate: 0.1 },
    ]
}

#[test]
fn decode_into_equals_decode() {
    let mut rng = Xoshiro256::new(0xBEEF_0002);
    for case in 0..200usize {
        let len = if case < 40 { case } else { rng.index(600) };
        let grad = gradient(&mut rng, len, false);
        let seed = rng.next_u64();
        for alg in all_algorithms() {
            let c = alg.build().unwrap();
            let enc = c.encode(&grad, seed);
            let dense = c.decode(&enc).unwrap();
            // Stale contents must not survive, least of all where a
            // sparsifier writes nothing.
            let mut out = vec![7.5f32; len];
            c.decode_into(&enc, &mut out).unwrap();
            assert_eq!(bits_of(&out), bits_of(&dense), "{}", alg.label());
        }
    }
}

/// The default `decode_into` (here through an OSS baseline, which does
/// not override it) gives `decode`'s values and `decode_into`'s length
/// contract.
#[test]
fn default_decode_into_goes_through_decode() {
    let c = Algorithm::Tbq { tau: 0.5 }.build_oss().unwrap();
    let grad = [0.7, -0.9, 0.1, 3.0, -0.2];
    let enc = c.encode(&grad, 0);
    let mut out = [9.0f32; 5];
    c.decode_into(&enc, &mut out).unwrap();
    assert_eq!(out.to_vec(), c.decode(&enc).unwrap());
    assert!(c.decode_into(&enc, &mut [0.0; 4]).is_err());
}

/// Every optimized codec rejects a stream whose header does not
/// describe exactly the destination — before writing anything.
#[test]
fn decode_into_rejects_a_length_mismatch_untouched() {
    let mut rng = Xoshiro256::new(0xBEEF_0003);
    let grad = gradient(&mut rng, 64, false);
    for alg in all_algorithms() {
        let c = alg.build().unwrap();
        let enc = c.encode(&grad, 1);
        for wrong in [0usize, 63, 65, 128] {
            let mut out = vec![7.5f32; wrong];
            let err = c.decode_into(&enc, &mut out).unwrap_err().to_string();
            assert!(err.contains("codec error"), "{}: {err}", alg.label());
            assert!(out.iter().all(|&v| v == 7.5), "{}", alg.label());
        }
    }
}

/// A 16-byte sparse stream whose header claims `u32::MAX` elements: a
/// `decode` sized by it asks for 16 GiB. `decode_into` is bounded by
/// its destination — it never allocates — and refuses.
#[test]
fn lying_element_count_is_an_error_not_an_allocation() {
    for (alg, algo_id) in [
        (Algorithm::Dgc { rate: 0.01 }, 4u8),
        (Algorithm::GradDrop { rate: 0.01 }, 5u8),
    ] {
        let mut stream = header(algo_id, u32::MAX);
        stream.extend_from_slice(&1u32.to_le_bytes()); // k = 1
        stream.extend_from_slice(&4_000_000_000u32.to_le_bytes()); // index
        assert_eq!(stream.len(), 16);
        let c = alg.build().unwrap();
        let mut out = [7.5f32; 8];
        let err = c.decode_into(&stream, &mut out).unwrap_err().to_string();
        assert!(err.contains("destination holds 8"), "{err}");
        assert_eq!(out, [7.5; 8]);
    }
    // The quantizers' headers lie no better: past the length check
    // their sections are too short for the claim.
    for alg in [
        Algorithm::OneBit,
        Algorithm::Tbq { tau: 0.5 },
        Algorithm::TernGrad { bitwidth: 4 },
    ] {
        let c = alg.build().unwrap();
        let mut enc = c.encode(&[1.0; 8], 0);
        enc[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(c.decode_into(&enc, &mut [0.0; 8]).is_err());
        assert!(c.decode(&enc).is_err(), "bounded by the stream itself");
    }
}

#[test]
fn truncated_streams_are_errors() {
    let mut rng = Xoshiro256::new(0xBEEF_0004);
    let grad = gradient(&mut rng, 77, false);
    for alg in [
        Algorithm::OneBit,
        Algorithm::Tbq { tau: 0.5 },
        Algorithm::TernGrad { bitwidth: 1 },
        Algorithm::TernGrad { bitwidth: 2 },
        Algorithm::TernGrad { bitwidth: 4 },
        Algorithm::TernGrad { bitwidth: 8 },
        Algorithm::Dgc { rate: 0.1 },
        Algorithm::GradDrop { rate: 0.1 },
    ] {
        let c = alg.build().unwrap();
        let enc = c.encode(&grad, 3);
        // Every proper prefix: through the header, the parameters and
        // the packed or sparse section.
        for cut in 0..enc.len() {
            let mut out = vec![7.5f32; grad.len()];
            assert!(
                c.decode_into(&enc[..cut], &mut out).is_err(),
                "{} accepted {cut} of {} bytes",
                alg.label(),
                enc.len()
            );
            assert!(c.decode(&enc[..cut]).is_err());
        }
        // Trailing bytes are not the codec's business.
        let mut longer = enc.clone();
        longer.extend_from_slice(&[0xFF; 3]);
        assert_eq!(
            bits_of(&c.decode(&longer).unwrap()),
            bits_of(&c.decode(&enc).unwrap())
        );
    }
}

/// `0b11` is the one 2-bit code no TBQ encoder emits: anywhere among
/// the elements it is an error (from either entry point), in the
/// padding of the last byte it is ignored like any padding.
#[test]
fn tbq_rejects_the_unused_code() {
    let c = Algorithm::Tbq { tau: 0.5 }.build().unwrap();
    let enc = c.encode(&[0.0; 10], 0); // 12 B prefix + 3 code bytes.
    for elem in 0..10 {
        let mut bad = enc.clone();
        bad[12 + elem / 4] |= 0b11 << (elem % 4 * 2);
        assert!(c.decode(&bad).is_err(), "element {elem}");
        assert!(
            c.decode_into(&bad, &mut [0.0; 10]).is_err(),
            "element {elem}"
        );
    }
    let mut padded = enc.clone();
    padded[14] |= 0b1111_0000; // Elements 10 and 11 do not exist.
    assert_eq!(c.decode(&padded).unwrap(), vec![0.0; 10]);
}
