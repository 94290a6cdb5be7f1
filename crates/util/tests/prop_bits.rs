//! Randomized tests for the bit-level reader/writer duality, driven
//! by the workspace's own deterministic PRNGs.

use hipress_util::bits::{pack_codes, packed_len, unpack_codes, BitReader, BitWriter};
use hipress_util::rng::{Rng64, Xoshiro256};

const CASES: usize = 256;

/// A sequence of (value, width) pairs where each value fits its width.
fn codes(rng: &mut impl Rng64) -> Vec<(u64, u32)> {
    let n = rng.index(200);
    (0..n)
        .map(|_| {
            let w = rng.range_u64(1, 65) as u32;
            let v = if w == 64 {
                rng.next_u64()
            } else {
                rng.next_below(1u64 << w)
            };
            (v, w)
        })
        .collect()
}

/// Every sequence of writes reads back identically.
#[test]
fn roundtrip() {
    let mut rng = Xoshiro256::new(0xB175_0001);
    for _ in 0..CASES {
        let codes = codes(&mut rng);
        let mut w = BitWriter::new();
        let mut total_bits = 0usize;
        for &(v, width) in &codes {
            w.write(v, width);
            total_bits += width as usize;
        }
        assert_eq!(w.bit_len(), total_bits);
        let bytes = w.finish();
        assert_eq!(bytes.len(), total_bits.div_ceil(8));
        let mut r = BitReader::new(&bytes);
        for &(v, width) in &codes {
            assert_eq!(r.read(width), Some(v));
        }
        // Anything left is only zero padding within the final byte.
        assert!(r.remaining_bits() < 8);
        while let Some(bit) = r.read_bit() {
            assert!(!bit, "padding bits must be zero");
        }
    }
}

/// Fixed-width packing density matches `packed_len`.
#[test]
fn fixed_width_density() {
    let mut rng = Xoshiro256::new(0xB175_0002);
    for _ in 0..CASES {
        let count = rng.index(500);
        let width = rng.range_u64(1, 17) as u32;
        let mut w = BitWriter::new();
        for i in 0..count {
            let mask = if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            w.write(i as u64 & mask, width);
        }
        assert_eq!(w.finish().len(), packed_len(count, width));
    }
}

/// Skipping n bits is equivalent to reading and discarding them.
#[test]
fn skip_equals_read() {
    let mut rng = Xoshiro256::new(0xB175_0003);
    for _ in 0..CASES {
        let bytes: Vec<u8> = (0..rng.range_u64(1, 64))
            .map(|_| rng.next_u64() as u8)
            .collect();
        let skip = rng.index(256);
        let mut r1 = BitReader::new(&bytes);
        let mut r2 = BitReader::new(&bytes);
        let available = r1.remaining_bits();
        let did_skip = r1.skip(skip).is_some();
        assert_eq!(did_skip, skip <= available);
        if did_skip {
            for _ in 0..skip {
                r2.read_bit();
            }
            assert_eq!(r1.bit_pos(), r2.bit_pos());
            // Remaining streams agree.
            loop {
                let (a, b) = (r1.read_bit(), r2.read_bit());
                assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }
    }
}

/// The bulk kernels are the bit-at-a-time reader/writer, faster: for
/// every width and every length around the 8-code group boundary,
/// `pack_codes` emits `BitWriter`'s bytes and `unpack_codes` returns
/// `BitReader`'s codes — also from a stream with trailing bytes and
/// non-zero padding bits.
#[test]
fn bulk_kernels_equal_bit_io() {
    let mut rng = Xoshiro256::new(0xB175_0004);
    for width in 1..=8u32 {
        for len in 0..=130usize {
            let codes: Vec<u8> = (0..len)
                .map(|_| rng.next_below(1u64 << width) as u8)
                .collect();
            let mut w = BitWriter::new();
            for &c in &codes {
                w.write(u64::from(c), width);
            }
            let reference = w.finish();

            // Appends: whatever `out` already holds stays in front.
            let mut packed = vec![0xEE];
            let mut calls = 0usize;
            pack_codes(&codes, width, &mut packed, |c| {
                calls += 1;
                c
            });
            assert_eq!(calls, len, "one call per element");
            assert_eq!(packed[0], 0xEE);
            assert_eq!(&packed[1..], &reference[..], "width {width} len {len}");

            let mut noisy = reference.clone();
            if let Some(last) = noisy.last_mut() {
                let used = (len * width as usize - 1) % 8 + 1;
                *last |= (0xFFu16 << used) as u8; // Set the padding bits.
            }
            noisy.extend_from_slice(&[0xFF, 0xFF]);
            let mut r = BitReader::new(&noisy);
            let expect: Vec<u8> = (0..len).map(|_| r.read(width).unwrap() as u8).collect();
            assert_eq!(expect, codes);
            let mut got = vec![0u8; len];
            unpack_codes(&noisy, width, &mut got, |c| c);
            assert_eq!(got, codes, "width {width} len {len}");
        }
    }
}

#[test]
#[should_panic(expected = "width must be in 1..=8")]
fn bulk_pack_rejects_wide_codes() {
    pack_codes(&[0u8], 9, &mut Vec::new(), |c| c);
}

#[test]
#[should_panic]
fn bulk_unpack_rejects_short_input() {
    unpack_codes(&[0u8; 2], 2, &mut [0u8; 9], |c| c);
}
