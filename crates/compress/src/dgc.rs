//! Deep Gradient Compression top-k sparsification (Lin et al.,
//! ICLR 2018).
//!
//! Keeps only the `rate`-fraction of elements with the largest
//! magnitudes, transmitting them as (index, value) pairs. With the
//! paper's default rate of 0.1% this reduces the data volume roughly
//! 250× (8 bytes per survivor vs 4 bytes per element).
//!
//! The optimized implementation selects the exact top-k with an
//! average-O(n) quickselect over magnitudes (the GPU analogue is the
//! sampled-threshold + trim kernel DGC describes). The OSS baseline in
//! [`crate::oss`] instead sorts the entire gradient, reproducing the
//! up-to-5.1× encode gap reported in §4.4.
//!
//! Stream layout after the common header:
//!
//! ```text
//! [k u32][k x index u32][k x value f32]
//! ```

use crate::header::{read_f32, read_u32, AlgoId, Header, HEADER_LEN};
use crate::{AlgorithmKind, Compressor, KernelCostProfile};
use hipress_util::{Error, Result};

/// The optimized top-k sparsifier.
#[derive(Debug, Clone, Copy)]
pub struct Dgc {
    rate: f64,
}

impl Dgc {
    /// Creates the sparsifier keeping `rate` of the elements
    /// (`0 < rate <= 1`).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `(0, 1]`.
    pub fn new(rate: f64) -> Self {
        assert!(
            rate > 0.0 && rate <= 1.0,
            "DGC rate must be in (0, 1], got {rate}"
        );
        Self { rate }
    }

    /// The configured keep-rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Number of elements kept for an `elems`-element gradient: at
    /// least one (for non-empty input), at most all of them.
    pub fn k_for(&self, elems: usize) -> usize {
        if elems == 0 {
            return 0;
        }
        ((elems as f64 * self.rate).ceil() as usize).clamp(1, elems)
    }
}

/// Selects the indices of the `k` largest-magnitude elements using an
/// average-O(n) partial selection. The returned indices are sorted
/// ascending (coalesced scatter order on a GPU).
pub(crate) fn top_k_indices(grad: &[f32], k: usize) -> Vec<u32> {
    debug_assert!(k <= grad.len());
    if k == 0 {
        return Vec::new();
    }
    if k == grad.len() {
        return (0..grad.len() as u32).collect();
    }
    let mut idx: Vec<u32> = (0..grad.len() as u32).collect();
    // Partition so the k largest magnitudes occupy idx[..k]. Ties are
    // broken arbitrarily by quickselect, which matches GPU behaviour.
    idx.select_nth_unstable_by(k - 1, |&a, &b| {
        grad[b as usize].abs().total_cmp(&grad[a as usize].abs())
    });
    idx.truncate(k);
    idx.sort_unstable();
    idx
}

/// Serializes the sparse (indices, values) representation shared by
/// DGC and GradDrop.
pub(crate) fn write_sparse(out: &mut Vec<u8>, grad: &[f32], indices: &[u32]) {
    out.extend_from_slice(&(indices.len() as u32).to_le_bytes());
    for &i in indices {
        out.extend_from_slice(&i.to_le_bytes());
    }
    for &i in indices {
        out.extend_from_slice(&grad[i as usize].to_le_bytes());
    }
}

/// The survivor count `k` of a sparse stream section, once the section
/// is known to be long enough to hold `k` (index, value) pairs.
fn survivor_count(rest: &[u8]) -> Result<usize> {
    let k = read_u32(rest, 0)? as usize;
    let need = 4 + k * 8;
    if rest.len() < need {
        return Err(Error::codec(format!(
            "sparse stream truncated: need {need} bytes, have {}",
            rest.len()
        )));
    }
    Ok(k)
}

/// Scatters the `k` survivors of a sparse section over an all-zero
/// `out`, whose length is the only bound on the indices.
fn scatter(rest: &[u8], k: usize, out: &mut [f32]) -> Result<()> {
    let elems = out.len();
    for j in 0..k {
        let idx = read_u32(rest, 4 + j * 4)? as usize;
        let slot = out.get_mut(idx).ok_or_else(|| {
            Error::codec(format!(
                "sparse index {idx} out of bounds for {elems} elements"
            ))
        })?;
        *slot = read_f32(rest, 4 + k * 4 + j * 4)?;
    }
    Ok(())
}

/// [`Compressor::decode`] for the sparse layout under `algo`. Only the
/// stream's own header bounds the allocation here; a consumer that
/// knows the length goes through [`decode_sparse_into`].
pub(crate) fn decode_sparse(data: &[u8], algo: AlgoId) -> Result<Vec<f32>> {
    let (h, rest) = Header::read_expecting(data, algo)?;
    let k = survivor_count(rest)?;
    let mut out = vec![0.0; h.elems as usize];
    scatter(rest, k, &mut out)?;
    Ok(out)
}

/// [`Compressor::decode_into`] for the sparse layout under `algo`: a
/// header that does not describe exactly `out.len()` elements is
/// rejected before anything is sized or written by it.
pub(crate) fn decode_sparse_into(data: &[u8], algo: AlgoId, out: &mut [f32]) -> Result<()> {
    let (h, rest) = Header::read_expecting(data, algo)?;
    h.expect_elems(out.len())?;
    let k = survivor_count(rest)?;
    out.fill(0.0);
    scatter(rest, k, out)
}

impl Compressor for Dgc {
    fn name(&self) -> &'static str {
        "dgc"
    }

    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::Sparsification
    }

    fn encode(&self, grad: &[f32], _seed: u64) -> Vec<u8> {
        // First, so an oversized gradient fails before selection
        // narrows its indices to `u32`.
        let header = Header::for_len(AlgoId::Dgc, grad.len());
        let k = self.k_for(grad.len());
        let indices = top_k_indices(grad, k);
        let mut out = Vec::with_capacity(self.compressed_size(grad.len()) as usize);
        header.write(&mut out);
        write_sparse(&mut out, grad, &indices);
        out
    }

    fn decode(&self, data: &[u8]) -> Result<Vec<f32>> {
        decode_sparse(data, AlgoId::Dgc)
    }

    fn decode_into(&self, data: &[u8], out: &mut [f32]) -> Result<()> {
        decode_sparse_into(data, AlgoId::Dgc, out)
    }

    fn compressed_size(&self, elems: usize) -> u64 {
        (HEADER_LEN + 4 + self.k_for(elems) * 8) as u64
    }

    fn cost_profile(&self) -> KernelCostProfile {
        // Sampled-threshold estimation + filter + compact: roughly
        // three passes over the input on encode; decode is a zero-fill
        // plus sparse scatter.
        KernelCostProfile {
            encode_passes: 3.0,
            decode_passes: 1.5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_exactly_k_largest() {
        let c = Dgc::new(0.25);
        let grad = [0.1, -5.0, 0.2, 4.0, -0.3, 0.0, 3.0, 0.05];
        let dec = c.decode(&c.encode(&grad, 0)).unwrap();
        // k = ceil(8 * 0.25) = 2 -> the two largest magnitudes survive.
        assert_eq!(dec, vec![0.0, -5.0, 0.0, 4.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn k_for_boundaries() {
        let c = Dgc::new(0.001);
        assert_eq!(c.k_for(0), 0);
        assert_eq!(c.k_for(1), 1); // At least one element survives.
        assert_eq!(c.k_for(1000), 1);
        assert_eq!(c.k_for(10_000), 10);
        let all = Dgc::new(1.0);
        assert_eq!(all.k_for(7), 7);
    }

    #[test]
    fn survivors_match_reference_selection() {
        let c = Dgc::new(0.1);
        let grad: Vec<f32> = (0..1000)
            .map(|i| ((i * 2654435761u64 as usize) % 1999) as f32 - 999.0)
            .collect();
        let dec = c.decode(&c.encode(&grad, 0)).unwrap();
        let k = c.k_for(grad.len());
        // Reference: sort by magnitude.
        let mut by_mag: Vec<usize> = (0..grad.len()).collect();
        by_mag.sort_by(|&a, &b| grad[b].abs().total_cmp(&grad[a].abs()));
        let survivors: Vec<usize> = (0..grad.len()).filter(|&i| dec[i] != 0.0).collect();
        assert_eq!(survivors.len(), k);
        // The smallest surviving magnitude must be >= the k-th largest.
        let kth = grad[by_mag[k - 1]].abs();
        for &i in &survivors {
            assert!(grad[i].abs() >= kth - 1e-6);
            assert_eq!(dec[i], grad[i], "kept values are exact");
        }
    }

    #[test]
    fn compressed_size_matches_encoding() {
        let c = Dgc::new(0.01);
        for n in [0usize, 1, 100, 12345] {
            let grad: Vec<f32> = (0..n).map(|i| i as f32).collect();
            assert_eq!(
                c.encode(&grad, 0).len() as u64,
                c.compressed_size(n),
                "n={n}"
            );
        }
    }

    #[test]
    fn ratio_tracks_rate() {
        let c = Dgc::new(0.001);
        // 0.1% kept at 8 bytes each vs 4 bytes per original element:
        // ratio ~= 0.002.
        let r = c.ratio(10_000_000);
        assert!((r - 0.002).abs() < 1e-4, "ratio {r}");
    }

    #[test]
    fn empty_gradient() {
        let c = Dgc::new(0.5);
        assert!(c.decode(&c.encode(&[], 0)).unwrap().is_empty());
    }

    #[test]
    fn decode_rejects_out_of_bounds_index() {
        let c = Dgc::new(0.5);
        let mut enc = c.encode(&[1.0, 2.0, 3.0, 4.0], 0);
        // Corrupt the first index to a large value.
        let pos = HEADER_LEN + 4;
        enc[pos..pos + 4].copy_from_slice(&1000u32.to_le_bytes());
        assert!(c.decode(&enc).is_err());
    }

    #[test]
    fn decode_rejects_truncation() {
        let c = Dgc::new(0.5);
        let enc = c.encode(&[1.0; 100], 0);
        assert!(c.decode(&enc[..enc.len() - 3]).is_err());
    }

    #[test]
    #[should_panic(expected = "rate must be in (0, 1]")]
    fn invalid_rate_panics() {
        Dgc::new(0.0);
    }
}
