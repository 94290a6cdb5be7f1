//! Gradient dropping (Aji & Heafield, "Sparse communication for
//! distributed gradient descent", EMNLP 2017).
//!
//! Drops every element whose magnitude falls below a threshold chosen
//! so that approximately a `rate`-fraction survives. Unlike DGC's
//! exact top-k, GradDrop estimates the threshold from a uniform sample
//! of the gradient (the original paper samples 0.1% of elements),
//! so the survivor count is only approximately `rate * n` — the
//! compressed size is data-dependent.
//!
//! The stream layout is the same sparse (indices, values) format as
//! DGC, under its own algorithm id.

use crate::dgc::{
    decode_sparse, decode_sparse_into, indices_with_key_in, magnitude_key, write_sparse,
};
use crate::header::{AlgoId, Header, HEADER_LEN};
use crate::{AlgorithmKind, Compressor, KernelCostProfile};
use hipress_util::rng::{Rng64, Xoshiro256};
use hipress_util::Result;

/// Minimum number of sampled elements for threshold estimation.
const MIN_SAMPLE: usize = 256;

/// The sampled-threshold gradient dropper.
#[derive(Debug, Clone, Copy)]
pub struct GradDrop {
    rate: f64,
}

impl GradDrop {
    /// Creates the dropper keeping approximately `rate` of the
    /// elements (`0 < rate <= 1`).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `(0, 1]`.
    pub fn new(rate: f64) -> Self {
        assert!(
            rate > 0.0 && rate <= 1.0,
            "GradDrop rate must be in (0, 1], got {rate}"
        );
        Self { rate }
    }

    /// The configured keep-rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Estimates the drop threshold from a uniform random sample of
    /// the gradient magnitudes.
    fn estimate_threshold(&self, grad: &[f32], rng: &mut Xoshiro256) -> f32 {
        let n = grad.len();
        let sample_size = (n / 100).max(MIN_SAMPLE).min(n);
        let mut sample: Vec<f32> = (0..sample_size).map(|_| grad[rng.index(n)].abs()).collect();
        // The survivor fraction `rate` corresponds to the
        // (1-rate)-quantile of magnitudes.
        let keep = ((sample.len() as f64 * self.rate).ceil() as usize).clamp(1, sample.len());
        let cut = sample.len() - keep;
        sample.select_nth_unstable_by(cut, f32::total_cmp);
        sample[cut]
    }
}

/// The ascending indices with `x.abs() >= threshold`, through DGC's
/// block filter: as keys, that is the range from the threshold's up to
/// infinity's. It ends below every NaN, and a NaN threshold leaves it
/// empty, so NaN compares false on either side here too.
fn at_or_above(grad: &[f32], threshold: f32) -> Vec<u32> {
    indices_with_key_in(
        grad,
        magnitude_key(threshold)..=magnitude_key(f32::INFINITY),
    )
}

impl Compressor for GradDrop {
    fn name(&self) -> &'static str {
        "graddrop"
    }

    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::Sparsification
    }

    fn encode(&self, grad: &[f32], seed: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.compressed_size(grad.len()) as usize);
        Header::for_len(AlgoId::GradDrop, grad.len()).write(&mut out);
        if grad.is_empty() {
            write_sparse(&mut out, grad, &[]);
            return out;
        }
        let mut rng = Xoshiro256::new(seed);
        let threshold = self.estimate_threshold(grad, &mut rng);
        let indices = at_or_above(grad, threshold);
        write_sparse(&mut out, grad, &indices);
        out
    }

    fn decode(&self, data: &[u8]) -> Result<Vec<f32>> {
        decode_sparse(data, AlgoId::GradDrop)
    }

    fn decode_into(&self, data: &[u8], out: &mut [f32]) -> Result<()> {
        decode_sparse_into(data, AlgoId::GradDrop, out)
    }

    fn compressed_size(&self, elems: usize) -> u64 {
        // Expected size; the actual stream varies with the sample.
        let k = ((elems as f64 * self.rate).ceil() as usize).min(elems);
        (HEADER_LEN + 4 + k * 8) as u64
    }

    fn cost_profile(&self) -> KernelCostProfile {
        // Sample + filter + compact: two and a half passes on encode
        // (the sample pass touches only ~1% of the data).
        KernelCostProfile {
            encode_passes: 2.5,
            decode_passes: 1.5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipress_tensor::synth::{generate, GradientShape};

    #[test]
    fn survivor_count_close_to_rate() {
        let c = GradDrop::new(0.05);
        let grad = generate(50_000, GradientShape::Gaussian { std_dev: 1.0 }, 3);
        let dec = c.decode(&c.encode(grad.as_slice(), 17)).unwrap();
        let survivors = dec.iter().filter(|&&x| x != 0.0).count();
        let expected = 50_000.0 * 0.05;
        assert!(
            (survivors as f64 - expected).abs() / expected < 0.3,
            "survivors {survivors}, expected ~{expected}"
        );
    }

    #[test]
    fn survivors_are_the_large_elements() {
        let c = GradDrop::new(0.1);
        let grad = generate(10_000, GradientShape::Gaussian { std_dev: 1.0 }, 5);
        let dec = c.decode(&c.encode(grad.as_slice(), 1)).unwrap();
        let min_kept = dec
            .iter()
            .filter(|&&x| x != 0.0)
            .fold(f32::INFINITY, |m, &x| m.min(x.abs()));
        let max_dropped = grad
            .as_slice()
            .iter()
            .zip(dec.iter())
            .filter(|(_, &d)| d == 0.0)
            .fold(0.0f32, |m, (&g, _)| m.max(g.abs()));
        // The threshold separates kept from dropped.
        assert!(
            min_kept >= max_dropped * 0.999,
            "{min_kept} < {max_dropped}"
        );
        // Kept values are exact.
        for (g, d) in grad.as_slice().iter().zip(dec.iter()) {
            if *d != 0.0 {
                assert_eq!(g, d);
            }
        }
    }

    /// The block filter keeps exactly what the per-element float test
    /// it replaced keeps, whatever the threshold: NaN never survives,
    /// not even a NaN threshold, and `-0.0` reaches a `0.0` threshold.
    #[test]
    fn block_filter_equals_the_float_comparison() {
        let specials = [
            f32::NAN,
            -f32::NAN,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE / 2.0, // Subnormal.
            -f32::MIN_POSITIVE / 2.0,
            f32::MIN_POSITIVE,
            f32::MAX,
        ];
        let mut rng = Xoshiro256::new(0x6D);
        for len in [0usize, 1, 31, 32, 33, 64, 1000] {
            let grad: Vec<f32> = (0..len)
                .map(|_| match rng.index(4) {
                    0 => specials[rng.index(specials.len())],
                    _ => rng.next_gaussian() as f32,
                })
                .collect();
            for threshold in specials.iter().map(|t| t.abs()).chain([0.5, 1.0, 3.0]) {
                let want: Vec<u32> = (0..len as u32)
                    .filter(|&i| grad[i as usize].abs() >= threshold)
                    .collect();
                assert_eq!(
                    at_or_above(&grad, threshold),
                    want,
                    "len {len}, threshold {threshold}"
                );
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let c = GradDrop::new(0.02);
        let grad = generate(5000, GradientShape::default_dnn(), 8);
        assert_eq!(c.encode(grad.as_slice(), 33), c.encode(grad.as_slice(), 33));
    }

    #[test]
    fn empty_gradient() {
        let c = GradDrop::new(0.5);
        assert!(c.decode(&c.encode(&[], 0)).unwrap().is_empty());
    }

    #[test]
    fn tiny_gradient_keeps_something() {
        let c = GradDrop::new(0.01);
        let grad = [3.0f32, -1.0];
        let dec = c.decode(&c.encode(&grad, 0)).unwrap();
        assert!(dec.iter().any(|&x| x != 0.0));
    }

    #[test]
    #[should_panic(expected = "rate must be in (0, 1]")]
    fn invalid_rate_panics() {
        GradDrop::new(1.5);
    }
}
