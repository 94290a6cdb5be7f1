//! Deterministic pseudo random number generators.
//!
//! The simulation must be bit-reproducible across runs and platforms:
//! the same seed must produce the same cluster schedule, the same
//! stochastic quantization decisions, and the same synthetic gradients.
//! We therefore avoid `rand`'s thread-local generators in simulation
//! code and use these small, well-known generators instead.

/// Common interface for the 64-bit generators in this module.
///
/// All derived sampling (ranges, floats, Gaussians, shuffles) is
/// implemented on top of [`Rng64::next_u64`], so every implementor gets
/// the full API with a single method.
pub trait Rng64 {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        // Use the top 53 bits for a uniform double in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniformly distributed `f32` in `[0, 1)`.
    #[inline]
    fn next_f32(&mut self) -> f32 {
        // Use the top 24 bits for a uniform float in [0, 1).
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Returns a uniformly distributed integer in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method to avoid modulo
    /// bias.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below bound must be positive");
        // Lemire, "Fast Random Integer Generation in an Interval".
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniformly distributed integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "range_u64 requires lo < hi");
        lo + self.next_below(hi - lo)
    }

    /// Returns a uniformly distributed `usize` in `[0, bound)`.
    fn index(&mut self, bound: usize) -> usize {
        self.next_below(bound as u64) as usize
    }

    /// Returns a uniformly distributed `f64` in `[lo, hi)`.
    fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.next_f64() * (hi - lo)
    }

    /// Returns a standard normal sample (mean 0, variance 1).
    ///
    /// Uses the Box–Muller transform; one of the pair is discarded to
    /// keep the generator stateless beyond its seed word.
    fn next_gaussian(&mut self) -> f64 {
        // Draw u1 in (0, 1] to avoid ln(0).
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Shuffles `slice` in place with the Fisher–Yates algorithm.
    fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }
}

/// SplitMix64: a tiny, fast, high-quality 64-bit generator.
///
/// Primarily used for seeding [`Xoshiro256`] and for cheap independent
/// streams (one generator per simulated node, derived from a master
/// seed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Derives an independent child generator for stream `id`.
    ///
    /// The child is seeded with a hash of the parent state and the id,
    /// so children with distinct ids are statistically independent.
    pub fn derive(&self, id: u64) -> Self {
        let mut tmp = Self::new(self.state ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // Burn one output so that derive(0) != clone().
        let s = tmp.next_u64();
        Self::new(s)
    }
}

impl Rng64 for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Xoshiro256**: the workhorse generator for bulk sampling.
///
/// Used for synthetic gradient generation and stochastic rounding in
/// the quantization compressors, where long non-repeating streams
/// matter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a generator from a 64-bit seed, expanding it through
    /// SplitMix64 as recommended by the xoshiro authors.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Self { s }
    }
}

impl Rng64 for Xoshiro256 {
    // Drawn once per element inside the TernGrad pack kernel, which
    // lives in another crate.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs for seed 1234567 from the public domain
        // SplitMix64 implementation.
        let mut rng = SplitMix64::new(1234567);
        let a = rng.next_u64();
        let b = rng.next_u64();
        assert_ne!(a, b);
        // Determinism: same seed, same stream.
        let mut rng2 = SplitMix64::new(1234567);
        assert_eq!(rng2.next_u64(), a);
        assert_eq!(rng2.next_u64(), b);
    }

    #[test]
    fn xoshiro_determinism() {
        let mut a = Xoshiro256::new(42);
        let mut b = Xoshiro256::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn derive_produces_distinct_streams() {
        let root = SplitMix64::new(7);
        let mut c0 = root.derive(0);
        let mut c1 = root.derive(1);
        let (x0, x1) = (c0.next_u64(), c1.next_u64());
        assert_ne!(x0, x1);
        // derive is a pure function of (state, id).
        assert_eq!(root.derive(0).next_u64(), x0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Xoshiro256::new(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f32_in_unit_interval() {
        let mut rng = Xoshiro256::new(3);
        for _ in 0..10_000 {
            let x = rng.next_f32();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_unbiased_small_bound() {
        let mut rng = Xoshiro256::new(11);
        let mut counts = [0usize; 5];
        let n = 100_000;
        for _ in 0..n {
            counts[rng.next_below(5) as usize] += 1;
        }
        for &c in &counts {
            let expected = n / 5;
            assert!(
                (c as i64 - expected as i64).unsigned_abs() < (expected / 10) as u64,
                "bucket count {c} too far from {expected}"
            );
        }
    }

    #[test]
    fn range_u64_bounds() {
        let mut rng = Xoshiro256::new(5);
        for _ in 0..1000 {
            let x = rng.range_u64(10, 20);
            assert!((10..20).contains(&x));
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = Xoshiro256::new(99);
        let n = 200_000;
        let (mut sum, mut sq) = (0.0f64, 0.0f64);
        for _ in 0..n {
            let x = rng.next_gaussian();
            sum += x;
            sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.03, "variance {var} too far from 1");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SplitMix64::new(1);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        SplitMix64::new(0).next_below(0);
    }
}
