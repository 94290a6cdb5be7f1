//! 1-bit quantization (Seide et al., "1-bit stochastic gradient
//! descent", Interspeech 2014).
//!
//! Every element is reduced to its sign bit. Reconstruction maps a set
//! bit to the mean of the positive elements and a clear bit to the
//! mean of the non-positive elements, which minimizes the squared
//! reconstruction error for the chosen partition. This is the
//! algorithm AWS integrated into BytePS ("BytePS-onebit") and the one
//! the paper most frequently evaluates.
//!
//! Stream layout after the common header:
//!
//! ```text
//! [neg_mean f32][pos_mean f32][elems x 1 bit, LSB-first, zero padded]
//! ```
//!
//! The data volume reduction is 1/32 of fp32 plus 16 bytes of
//! metadata — the "96.9%" figure quoted in §2.4.

use crate::header::{read_f32, AlgoId, Header, HEADER_LEN};
use crate::{AlgorithmKind, Compressor, KernelCostProfile};
use hipress_util::bits::{pack_codes, packed_len, unpack_codes};
use hipress_util::{Error, Result};

/// The optimized (CompLL-style) 1-bit quantizer.
///
/// Encode makes two passes (mean computation fused into one scan, sign
/// packing in a second), matching the fused-kernel implementation the
/// paper's code generator emits. Both are branch-free and the second
/// packs eight signs per output byte.
#[derive(Debug, Default, Clone, Copy)]
pub struct OneBit;

impl OneBit {
    /// Creates the compressor (it is parameterless).
    pub fn new() -> Self {
        OneBit
    }
}

/// Computes the reconstruction levels: means of the positive and
/// non-positive element subsets. Zero-count subsets get level 0.
///
/// The sign of gradient data is a coin flip a branch predictor loses
/// half the time, so every element is *selected* into one sum while
/// the other adds `+0.0`. That is the identity on both sums — neither
/// can be `-0.0`: they start at `+0.0` and only ever add one sign —
/// so each sum sees the additions a branching loop would make, in the
/// same sequential order, and the levels are bit-identical to it.
fn reconstruction_levels(grad: &[f32]) -> (f32, f32) {
    let (mut pos_sum, mut neg_sum, mut pos_n) = (0.0f64, 0.0f64, 0usize);
    for &x in grad {
        let pos = x > 0.0;
        let x = f64::from(x);
        pos_sum += if pos { x } else { 0.0 };
        neg_sum += if pos { 0.0 } else { x };
        pos_n += usize::from(pos);
    }
    let mean = |sum: f64, n: usize| {
        if n > 0 {
            (sum / n as f64) as f32
        } else {
            0.0
        }
    };
    (mean(neg_sum, grad.len() - pos_n), mean(pos_sum, pos_n))
}

/// A validated onebit stream: the two levels and a sign section long
/// enough for every element the header counts.
struct Stream<'a> {
    header: Header,
    levels: [f32; 2],
    signs: &'a [u8],
}

impl<'a> Stream<'a> {
    fn parse(data: &'a [u8]) -> Result<Self> {
        let (header, rest) = Header::read_expecting(data, AlgoId::OneBit)?;
        let levels = [read_f32(rest, 0)?, read_f32(rest, 4)?];
        let signs = &rest[8..];
        if signs.len() < packed_len(header.elems as usize, 1) {
            return Err(Error::codec("onebit stream truncated"));
        }
        Ok(Stream {
            header,
            levels,
            signs,
        })
    }

    /// Writes the reconstruction of every element into `out`, which
    /// holds exactly `header.elems` slots.
    fn unpack(&self, out: &mut [f32]) {
        let levels = self.levels;
        unpack_codes(self.signs, 1, out, |bit| levels[usize::from(bit & 1)]);
    }
}

impl Compressor for OneBit {
    fn name(&self) -> &'static str {
        "onebit"
    }

    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::Quantization
    }

    fn encode(&self, grad: &[f32], _seed: u64) -> Vec<u8> {
        let (neg_mean, pos_mean) = reconstruction_levels(grad);
        let mut out = Vec::with_capacity(self.compressed_size(grad.len()) as usize);
        Header::for_len(AlgoId::OneBit, grad.len()).write(&mut out);
        out.extend_from_slice(&neg_mean.to_le_bytes());
        out.extend_from_slice(&pos_mean.to_le_bytes());
        // NaN and -0.0 are not `> 0.0`: they stay in the non-positive
        // subset here exactly as they did in the sums above.
        pack_codes(grad, 1, &mut out, |x: f32| u8::from(x > 0.0));
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
        (HEADER_LEN + 8 + packed_len(elems, 1)) as u64
    }

    fn cost_profile(&self) -> KernelCostProfile {
        // One fused reduction pass + one pack pass on encode; a single
        // scatter pass on decode.
        KernelCostProfile {
            encode_passes: 2.0,
            decode_passes: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(grad: &[f32]) -> Vec<f32> {
        let c = OneBit::new();
        let enc = c.encode(grad, 0);
        assert_eq!(enc.len() as u64, c.compressed_size(grad.len()));
        c.decode(&enc).unwrap()
    }

    #[test]
    fn signs_are_preserved() {
        let grad = [1.0, -2.0, 3.0, -4.0, 0.5, -0.1];
        let dec = roundtrip(&grad);
        for (orig, rec) in grad.iter().zip(&dec) {
            assert_eq!(orig.is_sign_positive() && *orig > 0.0, *rec > 0.0);
        }
    }

    #[test]
    fn reconstruction_levels_are_subset_means() {
        let grad = [2.0, 4.0, -1.0, -3.0];
        let dec = roundtrip(&grad);
        assert_eq!(dec, vec![3.0, 3.0, -2.0, -2.0]);
    }

    #[test]
    fn all_positive_gradient() {
        let grad = [1.0, 2.0, 3.0];
        let dec = roundtrip(&grad);
        assert_eq!(dec, vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn all_zero_gradient() {
        let grad = [0.0; 17];
        let dec = roundtrip(&grad);
        assert_eq!(dec, vec![0.0; 17]);
    }

    #[test]
    fn empty_gradient() {
        let dec = roundtrip(&[]);
        assert!(dec.is_empty());
    }

    #[test]
    fn ratio_approaches_one_thirty_second() {
        let c = OneBit::new();
        // For a large gradient, 1 bit per 32-bit element plus small
        // constant metadata: ratio -> 1/32 = 3.125% (96.9% reduction,
        // the figure from SS2.4 of the paper).
        let r = c.ratio(1_000_000);
        assert!((r - 1.0 / 32.0).abs() < 0.001, "ratio {r}");
    }

    #[test]
    fn mean_preserved_in_expectation() {
        // onebit preserves the per-subset means exactly, so the total
        // sum of the reconstruction equals the sum of the original.
        let grad: Vec<f32> = (0..1000)
            .map(|i| ((i * 7919) % 100) as f32 - 49.5)
            .collect();
        let dec = roundtrip(&grad);
        let s1: f64 = grad.iter().map(|&x| x as f64).sum();
        let s2: f64 = dec.iter().map(|&x| x as f64).sum();
        assert!((s1 - s2).abs() / s1.abs().max(1.0) < 1e-3);
    }

    #[test]
    fn decode_rejects_truncation() {
        let c = OneBit::new();
        let enc = c.encode(&[1.0; 100], 0);
        assert!(c.decode(&enc[..enc.len() - 2]).is_err());
        assert!(c.decode(&enc[..4]).is_err());
    }
}
