//! Stochastic linear quantization (TernGrad; Wen et al., NeurIPS 2017),
//! generalized over a bitwidth parameter exactly as in the paper's
//! Figure 5 CompLL listing.
//!
//! Encoding maps each element to an integer level in
//! `[0, 2^bitwidth - 1]` between the gradient's min and max, using
//! *stochastic rounding* so the quantizer is unbiased:
//!
//! ```text
//! gap = (max - min) / (2^bitwidth - 1)
//! q   = floor((x - min) / gap + U[0,1))
//! x̂   = min + q * gap
//! ```
//!
//! With `bitwidth = 2` this is the ternary-style low-precision
//! quantizer the paper evaluates; Figure 12b sweeps bitwidth over
//! {2, 4, 8}.
//!
//! Stream layout after the common header:
//!
//! ```text
//! [bitwidth u8][min f32][max f32][elems x bitwidth bits]
//! ```

use crate::header::{read_f32, AlgoId, Header, HEADER_LEN};
use crate::{AlgorithmKind, Compressor, KernelCostProfile};
use hipress_util::bits::{pack_codes, packed_len, unpack_codes};
use hipress_util::rng::{Rng64, Xoshiro256};
use hipress_util::{Error, Result};

/// The optimized stochastic linear quantizer.
#[derive(Debug, Clone, Copy)]
pub struct TernGrad {
    bitwidth: u8,
}

impl TernGrad {
    /// Creates the quantizer with the given bits-per-element.
    ///
    /// # Panics
    ///
    /// Panics unless `bitwidth` is in `1..=8`.
    pub fn new(bitwidth: u8) -> Self {
        assert!(
            (1..=8).contains(&bitwidth),
            "TernGrad bitwidth must be in 1..=8"
        );
        Self { bitwidth }
    }

    /// The configured bits-per-element.
    pub fn bitwidth(&self) -> u8 {
        self.bitwidth
    }

    /// Number of quantization levels (`2^bitwidth`).
    fn levels(&self) -> u32 {
        1u32 << self.bitwidth
    }
}

/// A validated TernGrad stream: bitwidth, range, and a level section
/// long enough for every element the header counts.
struct Stream<'a> {
    header: Header,
    bitwidth: u8,
    min: f32,
    max: f32,
    levels: &'a [u8],
}

impl<'a> Stream<'a> {
    fn parse(data: &'a [u8]) -> Result<Self> {
        let (header, rest) = Header::read_expecting(data, AlgoId::TernGrad)?;
        let bitwidth = *rest
            .first()
            .ok_or_else(|| Error::codec("terngrad stream missing bitwidth"))?;
        if !(1..=8).contains(&bitwidth) {
            return Err(Error::codec(format!(
                "invalid terngrad bitwidth {bitwidth}"
            )));
        }
        let min = read_f32(rest, 1)?;
        let max = read_f32(rest, 5)?;
        let levels = &rest[9..];
        if levels.len() < packed_len(header.elems as usize, bitwidth as u32) {
            return Err(Error::codec("terngrad stream truncated"));
        }
        Ok(Stream {
            header,
            bitwidth,
            min,
            max,
            levels,
        })
    }

    /// Writes the reconstruction of every element into `out`, which
    /// holds exactly `header.elems` slots.
    fn unpack(&self, out: &mut [f32]) {
        let top = (1u32 << self.bitwidth) - 1;
        let (min, max) = (self.min, self.max);
        let gap = if max > min {
            (max - min) / top as f32
        } else {
            0.0
        };
        unpack_codes(self.levels, self.bitwidth as u32, out, |q| {
            min + q as f32 * gap
        });
    }
}

impl Compressor for TernGrad {
    fn name(&self) -> &'static str {
        "terngrad"
    }

    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::Quantization
    }

    fn encode(&self, grad: &[f32], seed: u64) -> Vec<u8> {
        let mut rng = Xoshiro256::new(seed);
        // Pass 1 (fused reduction): min and max.
        let (mut min, mut max) = (f32::INFINITY, f32::NEG_INFINITY);
        for &x in grad {
            min = min.min(x);
            max = max.max(x);
        }
        if grad.is_empty() {
            min = 0.0;
            max = 0.0;
        }
        let span = max - min;
        let gap = if span > 0.0 {
            span / (self.levels() - 1) as f32
        } else {
            0.0
        };

        let mut out = Vec::with_capacity(self.compressed_size(grad.len()) as usize);
        Header::for_len(AlgoId::TernGrad, grad.len()).write(&mut out);
        out.push(self.bitwidth);
        out.extend_from_slice(&min.to_le_bytes());
        out.extend_from_slice(&max.to_le_bytes());

        // Pass 2: stochastic rounding + packing, one PRNG draw per
        // element in element order. A constant gradient draws nothing
        // and packs all-zero levels.
        let width = self.bitwidth as u32;
        let top = self.levels() - 1;
        if gap > 0.0 {
            pack_codes(grad, width, &mut out, |x: f32| {
                let r = (x - min) / gap;
                // `as u32` truncates toward zero and saturates (NaN
                // to 0): on `r + u >= 0` that is `floor`, and below
                // zero both give 0 — without the libm call.
                ((r + rng.next_f32()) as u32).min(top) as u8
            });
        } else {
            out.resize(out.len() + packed_len(grad.len(), width), 0);
        }
        out
    }

    fn decode(&self, data: &[u8]) -> Result<Vec<f32>> {
        let stream = Stream::parse(data)?;
        let mut out = vec![0.0; stream.header.elems as usize];
        stream.unpack(&mut out);
        Ok(out)
    }

    fn decode_into(&self, data: &[u8], out: &mut [f32]) -> Result<()> {
        let stream = Stream::parse(data)?;
        stream.header.expect_elems(out.len())?;
        stream.unpack(out);
        Ok(())
    }

    fn compressed_size(&self, elems: usize) -> u64 {
        (HEADER_LEN + 9 + packed_len(elems, self.bitwidth as u32)) as u64
    }

    fn cost_profile(&self) -> KernelCostProfile {
        // Fused min/max reduction pass + quantize/pack pass on encode;
        // one scatter pass on decode.
        KernelCostProfile {
            encode_passes: 2.0,
            decode_passes: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_snap_to_levels() {
        let c = TernGrad::new(2);
        let grad = [0.0, 1.0, 2.0, 3.0];
        let dec = c.decode(&c.encode(&grad, 1)).unwrap();
        // min=0, max=3, 4 levels => gap=1. Values exactly on levels are
        // preserved... except stochastic rounding can push an interior
        // value up by one level. Error is bounded by gap.
        for (o, d) in grad.iter().zip(&dec) {
            assert!((o - d).abs() <= 1.0 + 1e-6, "{o} vs {d}");
            let level = d / 1.0;
            assert!((level - level.round()).abs() < 1e-6, "not on a level: {d}");
        }
        // Endpoints are always exact.
        assert_eq!(dec[0], 0.0);
        assert_eq!(dec[3], 3.0);
    }

    #[test]
    fn error_bounded_by_gap() {
        for bitwidth in [1u8, 2, 4, 8] {
            let c = TernGrad::new(bitwidth);
            let grad: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.7).sin()).collect();
            let dec = c.decode(&c.encode(&grad, 42)).unwrap();
            let (min, max) = grad
                .iter()
                .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &x| {
                    (lo.min(x), hi.max(x))
                });
            let gap = (max - min) / ((1u32 << bitwidth) - 1).max(1) as f32;
            for (o, d) in grad.iter().zip(&dec) {
                assert!(
                    (o - d).abs() <= gap + 1e-5,
                    "bitwidth {bitwidth}: error {} > gap {gap}",
                    (o - d).abs()
                );
            }
        }
    }

    #[test]
    fn stochastic_rounding_is_unbiased() {
        let c = TernGrad::new(2);
        // A constant interior value: its expectation over many seeds
        // must approach the true value.
        let grad = vec![0.0f32, 3.0, 1.3];
        let mut sum = 0.0f64;
        let trials = 20_000;
        for seed in 0..trials {
            let dec = c.decode(&c.encode(&grad, seed)).unwrap();
            sum += dec[2] as f64;
        }
        let mean = sum / trials as f64;
        assert!((mean - 1.3).abs() < 0.02, "biased mean {mean}");
    }

    #[test]
    fn deterministic_given_seed() {
        let c = TernGrad::new(4);
        let grad: Vec<f32> = (0..257).map(|i| (i as f32).cos()).collect();
        assert_eq!(c.encode(&grad, 9), c.encode(&grad, 9));
        assert_ne!(c.encode(&grad, 9), c.encode(&grad, 10));
    }

    #[test]
    fn constant_gradient() {
        let c = TernGrad::new(2);
        let grad = [5.5f32; 33];
        let dec = c.decode(&c.encode(&grad, 0)).unwrap();
        assert_eq!(dec, vec![5.5; 33]);
    }

    #[test]
    fn empty_gradient() {
        let c = TernGrad::new(8);
        assert!(c.decode(&c.encode(&[], 0)).unwrap().is_empty());
    }

    #[test]
    fn size_scales_with_bitwidth() {
        for (b, expect_bits) in [(1u8, 1usize), (2, 2), (4, 4), (8, 8)] {
            let c = TernGrad::new(b);
            let n = 1024;
            assert_eq!(
                c.compressed_size(n),
                (HEADER_LEN + 9 + n * expect_bits / 8) as u64
            );
        }
    }

    #[test]
    fn decode_rejects_bad_bitwidth() {
        let c = TernGrad::new(2);
        let mut enc = c.encode(&[1.0, 2.0], 0);
        enc[HEADER_LEN] = 13; // Corrupt the bitwidth byte.
        assert!(c.decode(&enc).is_err());
    }

    #[test]
    #[should_panic(expected = "bitwidth must be in 1..=8")]
    fn invalid_bitwidth_panics() {
        TernGrad::new(0);
    }
}
