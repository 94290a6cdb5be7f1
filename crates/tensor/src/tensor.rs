//! The flat `f32` gradient buffer.

use hipress_util::rng::Rng64;
use std::sync::Arc;

/// A flat `f32` gradient tensor.
///
/// HiPress treats every gradient as a one-dimensional buffer: the
/// compression algorithms, partitioning, and synchronization are all
/// shape-oblivious, exactly as in the paper (the CompLL API takes
/// `float*` input, Figure 4).
///
/// Copy-on-write: a clone shares the buffer by refcount, and the first
/// write through a handle that is not the only one copies it
/// (`as_mut_slice`, `add_assign`, `scale`, `fill_gaussian`). Handing
/// gradients around by value therefore costs nothing until someone
/// writes.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    data: Arc<Vec<f32>>,
}

impl Tensor {
    /// Creates a tensor from raw values.
    pub fn from_vec(data: Vec<f32>) -> Self {
        Self {
            data: Arc::new(data),
        }
    }

    /// Creates an all-zero tensor with `len` elements.
    pub fn zeros(len: usize) -> Self {
        Self::from_vec(vec![0.0; len])
    }

    /// Creates a tensor by evaluating `f` at each index.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> f32) -> Self {
        Self::from_vec((0..len).map(&mut f).collect())
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size in bytes when stored as fp32 (the unit `m` used throughout
    /// the paper's cost model).
    pub fn byte_size(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<f32>()) as u64
    }

    /// Read-only view of the values.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the values, copied first if another clone
    /// still shares them.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Consumes the tensor and returns the underlying buffer: the
    /// allocation itself when this is the only handle, else a copy.
    pub fn into_vec(self) -> Vec<f32> {
        Arc::unwrap_or_clone(self.data)
    }

    /// Element-wise addition: `self += other`.
    ///
    /// This is the `merge` primitive's arithmetic (gradient
    /// aggregation is summation).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(
            self.len(),
            other.len(),
            "cannot merge tensors of different lengths"
        );
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Multiplies every element by `s` (used for averaging aggregated
    /// gradients across N workers).
    pub fn scale(&mut self, s: f32) {
        for a in self.as_mut_slice() {
            *a *= s;
        }
    }

    /// L2 norm of the tensor.
    pub fn l2_norm(&self) -> f64 {
        self.data
            .iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum::<f64>()
            .sqrt()
    }

    /// Largest absolute element (0 for an empty tensor).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Fraction of exactly-zero elements.
    pub fn sparsity(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        let zeros = self.data.iter().filter(|&&x| x == 0.0).count();
        zeros as f64 / self.data.len() as f64
    }

    /// Maximum absolute element-wise difference to `other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.len(), other.len(), "length mismatch in comparison");
        self.data
            .iter()
            .zip(other.data.iter())
            .fold(0.0f32, |m, (&a, &b)| m.max((a - b).abs()))
    }

    /// Fills the tensor with i.i.d. Gaussian values of the given
    /// standard deviation.
    pub fn fill_gaussian<R: Rng64>(&mut self, rng: &mut R, std_dev: f32) {
        for x in self.as_mut_slice() {
            *x = (rng.next_gaussian() as f32) * std_dev;
        }
    }

    /// Returns the concatenation of `parts`.
    pub fn concat(parts: &[Tensor]) -> Tensor {
        let total: usize = parts.iter().map(|p| p.len()).sum();
        let mut data = Vec::with_capacity(total);
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        Tensor::from_vec(data)
    }
}

impl From<Vec<f32>> for Tensor {
    fn from(v: Vec<f32>) -> Self {
        Self::from_vec(v)
    }
}

impl std::ops::Index<usize> for Tensor {
    type Output = f32;

    fn index(&self, i: usize) -> &f32 {
        &self.data[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipress_util::SplitMix64;

    #[test]
    fn construction_and_size() {
        let t = Tensor::zeros(10);
        assert_eq!(t.len(), 10);
        assert_eq!(t.byte_size(), 40);
        assert!(!t.is_empty());
        assert!(Tensor::zeros(0).is_empty());
    }

    #[test]
    fn from_fn_indexes() {
        let t = Tensor::from_fn(4, |i| i as f32 * 2.0);
        assert_eq!(t.as_slice(), &[0.0, 2.0, 4.0, 6.0]);
        assert_eq!(t[3], 6.0);
    }

    #[test]
    fn add_assign_sums() {
        let mut a = Tensor::from_vec(vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec(vec![0.5, -2.0, 1.0]);
        a.add_assign(&b);
        assert_eq!(a.as_slice(), &[1.5, 0.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "different lengths")]
    fn add_assign_length_mismatch_panics() {
        Tensor::zeros(2).add_assign(&Tensor::zeros(3));
    }

    #[test]
    fn scale_multiplies() {
        let mut a = Tensor::from_vec(vec![2.0, -4.0]);
        a.scale(0.5);
        assert_eq!(a.as_slice(), &[1.0, -2.0]);
    }

    #[test]
    fn norms_and_extrema() {
        let t = Tensor::from_vec(vec![3.0, -4.0, 0.0]);
        assert!((t.l2_norm() - 5.0).abs() < 1e-9);
        assert_eq!(t.max_abs(), 4.0);
        assert!((t.sparsity() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn max_abs_diff_detects_divergence() {
        let a = Tensor::from_vec(vec![1.0, 2.0]);
        let b = Tensor::from_vec(vec![1.0, 2.5]);
        assert_eq!(a.max_abs_diff(&b), 0.5);
        assert_eq!(a.max_abs_diff(&a), 0.0);
    }

    #[test]
    fn gaussian_fill_statistics() {
        let mut t = Tensor::zeros(100_000);
        let mut rng = SplitMix64::new(42);
        t.fill_gaussian(&mut rng, 2.0);
        let mean: f64 = t.as_slice().iter().map(|&x| x as f64).sum::<f64>() / t.len() as f64;
        let var: f64 = t
            .as_slice()
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / t.len() as f64;
        assert!(mean.abs() < 0.05);
        assert!((var - 4.0).abs() < 0.15);
    }

    #[test]
    fn clones_share_until_written() {
        let bits = |t: &Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let original = Tensor::from_fn(64, |i| i as f32 * 0.25 - 3.0);
        let before = bits(&original);
        let ptr = original.as_slice().as_ptr();
        assert_eq!(original.clone().as_slice().as_ptr(), ptr);

        // Every writer on a clone copies first; the original keeps its
        // bits and its allocation.
        let writes: [fn(&mut Tensor); 4] = [
            |t| t.as_mut_slice()[5] = 99.0,
            |t| t.add_assign(&Tensor::from_vec(vec![1.0; 64])),
            |t| t.scale(-2.0),
            |t| t.fill_gaussian(&mut SplitMix64::new(7), 1.0),
        ];
        for write in writes {
            let mut clone = original.clone();
            write(&mut clone);
            assert_ne!(clone.as_slice().as_ptr(), ptr);
            assert_ne!(bits(&clone), before);
            assert_eq!(bits(&original), before);
            assert_eq!(original.as_slice().as_ptr(), ptr);
        }

        // A write through the only handle stays in place.
        let mut unique = original.clone();
        drop(original);
        unique.scale(1.0);
        assert_eq!(unique.as_slice().as_ptr(), ptr);
    }

    #[test]
    fn into_vec_moves_a_unique_buffer_and_copies_a_shared_one() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0]);
        let ptr = t.as_slice().as_ptr();
        let held = t.clone();
        let copied = t.into_vec();
        assert_ne!(copied.as_ptr(), ptr);
        assert_eq!(copied, held.as_slice());
        let moved = held.into_vec();
        assert_eq!(moved.as_ptr(), ptr);
    }

    #[test]
    fn concat_preserves_order() {
        let a = Tensor::from_vec(vec![1.0, 2.0]);
        let b = Tensor::from_vec(vec![3.0]);
        let c = Tensor::concat(&[a, b]);
        assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0]);
    }
}
