//! Threshold binary quantization (Strom, "Scalable distributed DNN
//! training using commodity GPU cloud computing", Interspeech 2015).
//!
//! Elements whose magnitude reaches the threshold τ are transmitted as
//! ±τ; everything else becomes zero (and, in training, stays in the
//! sender's residual via [`crate::ErrorFeedback`]). Each element takes
//! two bits: `00` = zero, `01` = +τ, `10` = −τ.
//!
//! Stream layout after the common header:
//!
//! ```text
//! [tau f32][elems x 2 bits, LSB-first, zero padded]
//! ```

use crate::header::{read_f32, AlgoId, Header, HEADER_LEN};
use crate::{AlgorithmKind, Compressor, KernelCostProfile};
use hipress_util::bits::{pack_codes, packed_len, unpack_codes};
use hipress_util::{Error, Result};

/// 2-bit code for +τ (zero is `0b00`).
const CODE_POS: u8 = 0b01;
/// 2-bit code for −τ.
const CODE_NEG: u8 = 0b10;

/// A byte holds a `0b11` pair — the one code no encoder emits — iff
/// this is non-zero: each pair's low bit ANDed with its high bit.
fn invalid_pairs(byte: u8) -> u8 {
    byte & (byte >> 1) & 0b0101_0101
}

/// A validated TBQ stream: the threshold and a code section that holds
/// only the three legal codes for every element the header counts.
struct Stream<'a> {
    header: Header,
    tau: f32,
    codes: &'a [u8],
}

impl<'a> Stream<'a> {
    fn parse(data: &'a [u8]) -> Result<Self> {
        let (header, rest) = Header::read_expecting(data, AlgoId::Tbq)?;
        let tau = read_f32(rest, 0)?;
        let elems = header.elems as usize;
        let codes = rest[4..]
            .get(..packed_len(elems, 2))
            .ok_or_else(|| Error::codec("tbq stream truncated"))?;
        // Check the codes a byte at a time, before anything is
        // written; the padding pairs of the last byte do not count.
        // An OR-fold rather than `any`: without the early exit the
        // scan vectorizes, and a valid stream reads every byte anyway.
        let (whole, tail) = codes.split_at(elems / 4);
        let tail_mask = ((1u16 << (elems % 4 * 2)) - 1) as u8;
        let invalid = whole.iter().fold(0, |acc, &b| acc | invalid_pairs(b))
            | tail.first().map_or(0, |&b| invalid_pairs(b & tail_mask));
        if invalid != 0 {
            return Err(Error::codec("invalid TBQ code 0b11"));
        }
        Ok(Stream { header, tau, codes })
    }

    /// Writes the reconstruction of every element into `out`, which
    /// holds exactly `header.elems` slots.
    fn unpack(&self, out: &mut [f32]) {
        let levels = [0.0, self.tau, -self.tau, 0.0];
        unpack_codes(self.codes, 2, out, |code| levels[usize::from(code & 0b11)]);
    }
}

/// The optimized threshold binary quantizer.
#[derive(Debug, Clone, Copy)]
pub struct Tbq {
    tau: f32,
}

impl Tbq {
    /// Creates the quantizer with threshold `tau`.
    ///
    /// # Panics
    ///
    /// Panics if `tau` is not strictly positive and finite.
    pub fn new(tau: f32) -> Self {
        assert!(
            tau > 0.0 && tau.is_finite(),
            "TBQ threshold must be positive and finite"
        );
        Self { tau }
    }

    /// The configured threshold.
    pub fn tau(&self) -> f32 {
        self.tau
    }
}

impl Compressor for Tbq {
    fn name(&self) -> &'static str {
        "tbq"
    }

    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::Quantization
    }

    fn encode(&self, grad: &[f32], _seed: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.compressed_size(grad.len()) as usize);
        Header::for_len(AlgoId::Tbq, grad.len()).write(&mut out);
        out.extend_from_slice(&self.tau.to_le_bytes());
        // τ > 0, so at most one comparison holds (neither for NaN)
        // and the two bits never collide.
        let tau = self.tau;
        pack_codes(grad, 2, &mut out, |x: f32| {
            (u8::from(x >= tau) * CODE_POS) | (u8::from(x <= -tau) * CODE_NEG)
        });
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
        (HEADER_LEN + 4 + packed_len(elems, 2)) as u64
    }

    fn cost_profile(&self) -> KernelCostProfile {
        // Single-pass threshold + pack on encode, single scatter pass
        // on decode.
        KernelCostProfile {
            encode_passes: 1.0,
            decode_passes: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantizes_to_three_levels() {
        let c = Tbq::new(0.5);
        let grad = [0.7, -0.6, 0.4, -0.3, 0.5, -0.5, 0.0];
        let dec = c.decode(&c.encode(&grad, 0)).unwrap();
        assert_eq!(dec, vec![0.5, -0.5, 0.0, 0.0, 0.5, -0.5, 0.0]);
    }

    #[test]
    fn two_bits_per_element() {
        let c = Tbq::new(1.0);
        // Metadata: 8 header + 4 tau. 100 elements = 200 bits = 25 bytes.
        assert_eq!(c.compressed_size(100), 8 + 4 + 25);
        let r = c.ratio(1_000_000);
        assert!((r - 2.0 / 32.0).abs() < 1e-3, "ratio {r}");
    }

    #[test]
    fn roundtrip_empty() {
        let c = Tbq::new(0.1);
        assert!(c.decode(&c.encode(&[], 0)).unwrap().is_empty());
    }

    #[test]
    fn quantization_error_bounded_by_tau() {
        let c = Tbq::new(0.25);
        let grad: Vec<f32> = (0..500)
            .map(|i| ((i as f32) / 250.0 - 1.0) * 0.24)
            .collect();
        // All magnitudes < tau: everything becomes zero, so the error
        // equals the original magnitude, which is < tau.
        let dec = c.decode(&c.encode(&grad, 0)).unwrap();
        for (o, d) in grad.iter().zip(&dec) {
            assert_eq!(*d, 0.0);
            assert!((o - d).abs() < 0.25);
        }
    }

    #[test]
    fn decode_rejects_truncation() {
        let c = Tbq::new(0.5);
        let enc = c.encode(&[1.0; 64], 0);
        assert!(c.decode(&enc[..enc.len() - 1]).is_err());
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_threshold_panics() {
        Tbq::new(0.0);
    }
}
