//! `merge_into` against its definition, `decode_into` followed by
//! `acc + dec` element by element: bit for bit on every optimized
//! codec (the default path, and the sparse override of DGC and
//! GradDrop), with the values an addition is most likely to get
//! wrong, and with the same error on every stream `decode_into`
//! refuses.

use hipress_compress::{Algorithm, Compressor};
use hipress_util::rng::{Rng64, Xoshiro256};

const MAGIC: u8 = 0xC9;
const SIGNALING_NAN: f32 = f32::from_bits(0x7F80_0001);

/// Values whose sums an add that skips zeros, copies instead of
/// adding, or reads the wrong operand gets wrong.
const SPECIALS: [f32; 11] = [
    0.0,
    -0.0,
    f32::NAN,
    SIGNALING_NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::MIN_POSITIVE / 2.0, // Subnormal.
    -f32::MIN_POSITIVE / 2.0,
    f32::MIN_POSITIVE,
    f32::MAX,
    -1.0,
];

fn optimized() -> Vec<Algorithm> {
    vec![
        Algorithm::OneBit,
        Algorithm::Tbq { tau: 0.5 },
        Algorithm::TernGrad { bitwidth: 2 },
        Algorithm::TernGrad { bitwidth: 8 },
        Algorithm::Dgc { rate: 0.1 },
        Algorithm::GradDrop { rate: 0.1 },
    ]
}

/// A Gaussian-ish vector of `len` elements, about a quarter of them
/// special values.
fn values(rng: &mut Xoshiro256, len: usize) -> Vec<f32> {
    (0..len)
        .map(|_| {
            if rng.index(4) == 0 {
                SPECIALS[rng.index(SPECIALS.len())]
            } else {
                rng.next_gaussian() as f32
            }
        })
        .collect()
}

/// A sparse stream under `algo_id` for `elems` elements.
fn sparse(algo_id: u8, elems: u32, survivors: &[(u32, f32)]) -> Vec<u8> {
    let mut out = vec![MAGIC, algo_id, 0, 0];
    out.extend_from_slice(&elems.to_le_bytes());
    out.extend_from_slice(&(survivors.len() as u32).to_le_bytes());
    for &(i, _) in survivors {
        out.extend_from_slice(&i.to_le_bytes());
    }
    for &(_, v) in survivors {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Survivors over `len` elements: none, or a strictly ascending run
/// with special values that includes indices 0 and `len - 1`.
fn survivors(rng: &mut Xoshiro256, len: usize, none: bool) -> Vec<(u32, f32)> {
    if none || len == 0 {
        return Vec::new();
    }
    let mut picked: Vec<u32> = (0..len as u32).filter(|_| rng.index(5) == 0).collect();
    picked.extend([0, len as u32 - 1]);
    picked.sort_unstable();
    picked.dedup();
    let vals = values(rng, picked.len());
    picked.into_iter().zip(vals).collect()
}

fn algo_id(alg: Algorithm) -> Option<u8> {
    match alg {
        Algorithm::Dgc { .. } => Some(4),
        Algorithm::GradDrop { .. } => Some(5),
        _ => None,
    }
}

/// Asserts `merge_into(stream, acc)` is `acc + decode_into(stream)`:
/// the same bits, or the same error. Where both addends are NaN only
/// NaN is asserted: which payload an addition propagates then is not
/// specified.
fn assert_merge_is_decode_plus_add(c: &dyn Compressor, stream: &[u8], acc: &[f32], what: &str) {
    let mut dec = vec![7.5f32; acc.len()];
    let decoded = c.decode_into(stream, &mut dec);
    let mut out = vec![-7.5f32; acc.len()];
    let merged = c.merge_into(stream, acc, &mut out);
    match (decoded, merged) {
        (Ok(()), Ok(())) => {}
        (Err(d), Err(m)) => {
            assert_eq!(m.to_string(), d.to_string(), "{} {what}", c.name());
            return;
        }
        (d, m) => panic!("{} {what}: decode_into {d:?}, merge_into {m:?}", c.name()),
    }
    for (i, ((&a, &d), &o)) in acc.iter().zip(&dec).zip(&out).enumerate() {
        let want = a + d;
        let same = if a.is_nan() && d.is_nan() {
            o.is_nan()
        } else {
            o.to_bits() == want.to_bits()
        };
        assert!(
            same,
            "{} {what}, element {i}: {a:?} + {d:?} = {want:?} ({:#x}), merged {o:?} ({:#x})",
            c.name(),
            want.to_bits(),
            o.to_bits()
        );
    }
}

/// Every length from empty through a few filter blocks and the
/// smallest sampled input, plus a 512 Ki-element chunk (the PS chunk of
/// a 1 Mi gradient on two nodes).
#[test]
fn merge_into_is_decode_into_plus_add_bit_for_bit() {
    let mut rng = Xoshiro256::new(0xBEEF_0006);
    let lengths = (0..=130).chain([512 * 1024]);
    for len in lengths {
        let acc = values(&mut rng, len);
        let grad = values(&mut rng, len);
        let seed = rng.next_u64();
        for alg in optimized() {
            let c = alg.build().unwrap();
            let enc = c.encode(&grad, seed);
            assert_merge_is_decode_plus_add(c.as_ref(), &enc, &acc, &format!("len {len}"));
            let Some(id) = algo_id(alg) else {
                continue;
            };
            // Survivors the encoder would not pick: specials, both
            // ends, and none at all.
            for none in [false, true] {
                let s = survivors(&mut rng, len, none);
                let stream = sparse(id, len as u32, &s);
                let what = format!("len {len}, {} crafted survivors", s.len());
                assert_merge_is_decode_plus_add(c.as_ref(), &stream, &acc, &what);
            }
        }
    }
}

/// A survivor added to `-0.0` reads the original accumulator: `-0.0 +
/// -0.0` is `-0.0`, where `(-0.0 + 0.0) + -0.0` would be `+0.0`.
#[test]
fn a_survivor_adds_to_the_original_accumulator() {
    let c = Algorithm::Dgc { rate: 0.5 }.build().unwrap();
    let stream = sparse(4, 3, &[(0, -0.0), (2, 1.0)]);
    let acc = [-0.0, -0.0, SIGNALING_NAN];
    let mut out = [7.5; 3];
    c.merge_into(&stream, &acc, &mut out).unwrap();
    assert_eq!(out[0].to_bits(), (-0.0f32).to_bits());
    assert_eq!(out[1].to_bits(), 0.0f32.to_bits(), "absent: -0.0 + 0.0");
    assert!(out[2].is_nan() && out[2].to_bits() != SIGNALING_NAN.to_bits());
}

/// Streams `decode_into` refuses, `merge_into` refuses with the same
/// error: indices that descend, repeat or overrun, every truncation,
/// and a destination of the wrong length. An accumulator of the wrong
/// length is refused too.
#[test]
fn hostile_streams_are_refused_as_decode_into_refuses_them() {
    let mut rng = Xoshiro256::new(0xBEEF_0007);
    let len = 40;
    let acc = values(&mut rng, len);
    for alg in optimized() {
        let c = alg.build().unwrap();
        let stream = match algo_id(alg) {
            Some(id) => sparse(id, len as u32, &[(3, 1.0), (9, -2.0), (20, 0.5)]),
            None => c.encode(&values(&mut rng, len), 1),
        };
        let mut hostile: Vec<(String, Vec<u8>)> = (0..stream.len())
            .map(|cut| (format!("cut at {cut}"), stream[..cut].to_vec()))
            .collect();
        if algo_id(alg).is_some() {
            for (what, second) in [
                ("duplicate", 3u32),
                ("descending", 2),
                ("out of bounds", 40),
            ] {
                let mut bad = stream.clone();
                bad[16..20].copy_from_slice(&second.to_le_bytes());
                hostile.push((what.to_string(), bad));
            }
        }
        for (what, bad) in &hostile {
            let mut probe = vec![0.0; len];
            assert!(c.decode_into(bad, &mut probe).is_err(), "{what}");
            assert_merge_is_decode_plus_add(c.as_ref(), bad, &acc, what);
        }
        for wrong in [len - 1, len + 1] {
            let mut out = vec![0.0; wrong];
            let decoded = c.decode_into(&stream, &mut out).unwrap_err().to_string();
            let acc = vec![0.0; wrong];
            let merged = c.merge_into(&stream, &acc, &mut out).unwrap_err();
            assert_eq!(merged.to_string(), decoded, "{}", c.name());
        }
        let err = c.merge_into(&stream, &acc[1..], &mut vec![0.0; len]);
        let err = err.unwrap_err().to_string();
        assert!(err.contains("accumulator holds 39"), "{}: {err}", c.name());
    }
}
