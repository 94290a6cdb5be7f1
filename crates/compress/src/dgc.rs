//! Deep Gradient Compression top-k sparsification (Lin et al.,
//! ICLR 2018).
//!
//! Keeps only the `rate`-fraction of elements with the largest
//! magnitudes, transmitting them as (index, value) pairs. With the
//! paper's default rate of 0.1% this reduces the data volume roughly
//! 250× (8 bytes per survivor vs 4 bytes per element).
//!
//! The optimized implementation finds the *exact* top-k without
//! ordering the whole gradient — the sampled-threshold + trim kernel
//! DGC describes: a fixed-stride sample yields a threshold that sits
//! below the true k-th magnitude with overwhelming probability, one
//! streaming pass keeps the few elements at or above it, and a
//! quickselect over those candidates trims to exactly k. The sample
//! only sizes the candidate list, it never decides a survivor: when it
//! misleads (fewer than k candidates) or cannot be drawn (input too
//! small, rate too dense), every index is a candidate and the same trim
//! runs over all of them. The OSS baseline in [`crate::oss`] instead
//! sorts the entire gradient, reproducing the up-to-5.1× encode gap
//! reported in §4.4, and doubles as the oracle: both select by
//! (magnitude descending, index ascending), so their streams are equal
//! byte for byte on every input, ties at the cut included.
//!
//! Stream layout after the common header:
//!
//! ```text
//! [k u32][k x index u32][k x value f32]
//! ```
//!
//! Indices ascend strictly; a decoder rejects a stream where they do
//! not.

use crate::header::{read_u32, AlgoId, Header, HEADER_LEN};
use crate::{check_acc_len, AlgorithmKind, Compressor, KernelCostProfile};
use hipress_util::{Error, Result};
use std::ops::RangeInclusive;

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

/// Sampled keys per selection on large inputs: past `SAMPLE *
/// MIN_STRIDE` elements the stride grows to hold the sample near here.
const SAMPLE: usize = 8192;
/// Smallest sampling stride: at most one element in 64 is read.
const MIN_STRIDE: usize = 64;
/// Elements per filter block: 32 measured fastest on sparse survivors.
const BLOCK: usize = 32;

/// The magnitude of `x` as an integer whose unsigned order is that of
/// `x.abs().total_cmp(..)`: NaN above ∞, `-0.0` equal to `+0.0`.
pub(crate) fn magnitude_key(x: f32) -> u32 {
    x.to_bits() & 0x7FFF_FFFF
}

/// The ascending indices of the elements whose [`magnitude_key`] lies
/// in `keys`, in one streaming pass: a branch-free test skips the
/// blocks that cannot hold one, and a block that may is compacted
/// without a per-element branch.
pub(crate) fn indices_with_key_in(grad: &[f32], keys: RangeInclusive<u32>) -> Vec<u32> {
    let mut out = Vec::new();
    // Keys have the sign bit clear, so as `i32` they keep their order,
    // and a start past `i32::MAX` admits none.
    let Ok(lo) = i32::try_from(*keys.start()) else {
        return out;
    };
    if keys.is_empty() {
        return out;
    }
    // `lo <= key <= hi` as one unsigned comparison.
    let span = keys.end() - keys.start();
    for (b, block) in grad.chunks(BLOCK).enumerate() {
        // Whether any key reaches `lo`: an OR of signed compares, which
        // SSE2 does four lanes at a time (it has no unsigned maximum).
        let reaches = block
            .iter()
            .fold(false, |any, &x| any | (magnitude_key(x) as i32 >= lo));
        if reaches {
            let mut hits = [0u32; BLOCK];
            let mut n = 0;
            for (j, &x) in block.iter().enumerate() {
                hits[n] = (b * BLOCK + j) as u32;
                n += usize::from(magnitude_key(x).wrapping_sub(lo as u32) <= span);
            }
            out.extend_from_slice(&hits[..n]);
        }
    }
    out
}

/// Distance between sampled elements of an `n`-element input. Odd, so
/// a power-of-two period in the data cannot hide one phase from the
/// sample.
fn sample_stride(n: usize) -> usize {
    (n / SAMPLE).max(MIN_STRIDE) | 1
}

/// The ascending indices whose key reaches a threshold read off a
/// fixed-stride sample: the sample's r-th largest key, with r four
/// standard deviations above the rank the cut is expected to have in
/// the sample, so that with overwhelming probability at least `k`
/// elements reach it. Whenever `k` or more come back they contain the
/// top-k. Fewer come back when the sample overshot the cut, and none
/// when it holds fewer than r keys (input too small or rate too dense
/// to sample).
fn sampled_candidates(grad: &[f32], k: usize) -> Vec<u32> {
    let stride = sample_stride(grad.len());
    let sampled = grad.len().div_ceil(stride);
    let expected = sampled as f64 * k as f64 / grad.len() as f64;
    let r = (expected + 4.0 * expected.sqrt()).ceil() as usize + 2;
    if r > sampled {
        return Vec::new();
    }
    let mut sample: Vec<u32> = grad
        .iter()
        .step_by(stride)
        .map(|&x| magnitude_key(x))
        .collect();
    let (_, &mut threshold, _) = sample.select_nth_unstable_by(r - 1, |a, b| b.cmp(a));
    indices_with_key_in(grad, threshold..=u32::MAX)
}

/// Selects the indices of the `k` largest-magnitude elements, ordered
/// by ([`magnitude_key`] descending, index ascending) so the survivor
/// set is unique for every input. The returned indices are sorted
/// ascending (coalesced scatter order on a GPU).
///
/// The quickselect runs over [`sampled_candidates`]; only when they
/// are fewer than `k` does it run over every index.
pub(crate) fn top_k_indices(grad: &[f32], k: usize) -> Vec<u32> {
    debug_assert!(k <= grad.len());
    if k == 0 {
        return Vec::new();
    }
    let mut idx = sampled_candidates(grad, k);
    if idx.len() < k {
        idx = (0..grad.len() as u32).collect();
    }
    if idx.len() > k {
        let key = |i: u32| magnitude_key(grad[i as usize]);
        idx.select_nth_unstable_by(k - 1, |&a, &b| key(b).cmp(&key(a)).then(a.cmp(&b)));
        idx.truncate(k);
        idx.sort_unstable();
    }
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

/// The survivors of a sparse stream section, checked whole before
/// anyone writes by them: the section holds its `k` (index, value)
/// pairs, and the indices ascend strictly, as every encoder emits
/// them, and stay below `elems`. A duplicate or a descent would let
/// two different streams decode to one tensor.
struct Survivors<'a> {
    indices: &'a [u8],
    values: &'a [u8],
}

impl<'a> Survivors<'a> {
    fn read(rest: &'a [u8], elems: usize) -> Result<Self> {
        let k = read_u32(rest, 0)? as usize;
        let need = 4 + k * 8;
        if rest.len() < need {
            return Err(Error::codec(format!(
                "sparse stream truncated: need {need} bytes, have {}",
                rest.len()
            )));
        }
        let s = Survivors {
            indices: &rest[4..4 + k * 4],
            values: &rest[4 + k * 4..need],
        };
        let mut prev = None;
        for (j, (idx, _)) in s.iter().enumerate() {
            if prev.is_some_and(|p| idx <= p) {
                return Err(Error::codec(format!(
                    "sparse index {idx} at position {j} does not ascend"
                )));
            }
            if idx >= elems {
                return Err(Error::codec(format!(
                    "sparse index {idx} out of bounds for {elems} elements"
                )));
            }
            prev = Some(idx);
        }
        Ok(s)
    }

    /// The (index, value) pairs, in stream order.
    fn iter(&self) -> impl Iterator<Item = (usize, f32)> + 'a {
        let word = |b: &[u8]| <[u8; 4]>::try_from(b).expect("4-byte chunks");
        let indices = self.indices.chunks_exact(4);
        let values = self.values.chunks_exact(4);
        indices.zip(values).map(move |(i, v)| {
            (
                u32::from_le_bytes(word(i)) as usize,
                f32::from_le_bytes(word(v)),
            )
        })
    }
}

/// [`Compressor::decode`] for the sparse layout under `algo`. Only the
/// stream's own header bounds the allocation here; a consumer that
/// knows the length goes through [`decode_sparse_into`].
pub(crate) fn decode_sparse(data: &[u8], algo: AlgoId) -> Result<Vec<f32>> {
    let (h, rest) = Header::read_expecting(data, algo)?;
    let survivors = Survivors::read(rest, h.elems as usize)?;
    let mut out = vec![0.0; h.elems as usize];
    for (i, v) in survivors.iter() {
        out[i] = v;
    }
    Ok(out)
}

/// [`Compressor::decode_into`] for the sparse layout under `algo`: a
/// stream that does not describe exactly `out.len()` elements, or
/// whose survivors are not valid for them, is rejected before
/// anything is sized or written by it.
pub(crate) fn decode_sparse_into(data: &[u8], algo: AlgoId, out: &mut [f32]) -> Result<()> {
    let (h, rest) = Header::read_expecting(data, algo)?;
    h.expect_elems(out.len())?;
    let survivors = Survivors::read(rest, out.len())?;
    out.fill(0.0);
    for (i, v) in survivors.iter() {
        out[i] = v;
    }
    Ok(())
}

/// [`Compressor::merge_into`] for the sparse layout under `algo`, with
/// [`decode_sparse_into`]'s checks, all made before anything is
/// written. One dense pass adds `+0.0` to every element of `acc`, the
/// absent survivors of a zero-filled decode; then each survivor is
/// added to the *original* `acc[i]`, not to `acc[i] + 0.0`, which
/// differs from it when `acc[i]` is `-0.0`.
pub(crate) fn merge_sparse_into(
    data: &[u8],
    algo: AlgoId,
    acc: &[f32],
    out: &mut [f32],
) -> Result<()> {
    let (h, rest) = Header::read_expecting(data, algo)?;
    h.expect_elems(out.len())?;
    check_acc_len(acc, out)?;
    let survivors = Survivors::read(rest, out.len())?;
    for (o, &a) in out.iter_mut().zip(acc) {
        *o = a + 0.0;
    }
    for (i, v) in survivors.iter() {
        out[i] = acc[i] + v;
    }
    Ok(())
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

    fn merge_into(&self, data: &[u8], acc: &[f32], out: &mut [f32]) -> Result<()> {
        merge_sparse_into(data, AlgoId::Dgc, acc, out)
    }

    fn compressed_size(&self, elems: usize) -> u64 {
        (HEADER_LEN + 4 + self.k_for(elems) * 8) as u64
    }

    fn cost_profile(&self) -> KernelCostProfile {
        // Sampled-threshold estimation + filter + trim: charged as
        // roughly three passes over the input on encode; decode is a
        // zero-fill plus sparse scatter.
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

    /// `(stream, candidates the sample kept)` for `grad` at `rate`,
    /// the stream checked against the sort-based oracle.
    fn encode_against_oracle(grad: &[f32], rate: f64) -> (Vec<u8>, usize) {
        let enc = Dgc::new(rate).encode(grad, 0);
        assert_eq!(enc, crate::oss::OssDgc::new(rate).encode(grad, 0));
        let k = Dgc::new(rate).k_for(grad.len());
        (enc, sampled_candidates(grad, k).len())
    }

    /// Every sampled position huge, everything else tiny: the
    /// threshold lands among the huge values, above the true cut, and
    /// the filter brings back fewer than k. The answer is still exact.
    #[test]
    fn overshooting_sample_under_collects_and_the_answer_stands() {
        let n = 65_536;
        let stride = sample_stride(n);
        let grad: Vec<f32> = (0..n)
            .map(|i| {
                let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
                let scale = if i % stride == 0 { 1e6 } else { 1e-3 };
                sign * scale * (1.0 + (i % 977) as f32)
            })
            .collect();
        let rate = 0.01;
        let k = Dgc::new(rate).k_for(n);
        let (_, candidates) = encode_against_oracle(&grad, rate);
        assert!(
            0 < candidates && candidates < k,
            "{candidates} candidates for k = {k}"
        );
    }

    /// The k largest magnitudes only where the stride never reads: the
    /// sample is blind to every survivor, so its threshold sits low,
    /// the filter over-collects, and the survivors are all among the
    /// candidates.
    #[test]
    fn survivors_the_sample_never_reads_are_still_selected() {
        let n = 65_536;
        let stride = sample_stride(n);
        let rate = 0.01;
        let k = Dgc::new(rate).k_for(n);
        let mut grad: Vec<f32> = (0..n).map(|i| 1e-3 * (1.0 + (i % 977) as f32)).collect();
        let unread = (0..n).filter(|i| i % stride != 0).step_by(7).take(k);
        for (rank, i) in unread.enumerate() {
            grad[i] = -1e6 - rank as f32;
        }
        let (enc, candidates) = encode_against_oracle(&grad, rate);
        assert!(candidates >= k, "{candidates} candidates for k = {k}");
        let dec = Dgc::new(rate).decode(&enc).unwrap();
        assert_eq!(dec.iter().filter(|&&x| x <= -1e6).count(), k);
    }

    /// Too small or too dense to sample: no candidates, every index
    /// goes to the trim.
    #[test]
    fn unsampled_inputs_fall_through_to_all_indices() {
        let grad: Vec<f32> = (0..4096).map(|i| ((i * 37) % 4099) as f32).collect();
        assert_eq!(encode_against_oracle(&grad[..100], 0.01).1, 0);
        assert_eq!(encode_against_oracle(&grad, 1.0).1, 0);
        assert!(encode_against_oracle(&grad, 0.01).1 >= 41);
    }

    /// The key orders magnitudes as `abs().total_cmp` does.
    #[test]
    fn magnitude_key_is_the_total_order_of_abs() {
        let ascending = [
            0.0,
            f32::MIN_POSITIVE / 2.0,
            f32::MIN_POSITIVE,
            1.0,
            f32::MAX,
            f32::INFINITY,
            f32::NAN,
        ];
        for pair in ascending.windows(2) {
            assert!(magnitude_key(pair[0]) < magnitude_key(-pair[1]));
            assert!(magnitude_key(-pair[0]) < magnitude_key(pair[1]));
        }
        assert_eq!(magnitude_key(-0.0), magnitude_key(0.0));
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

    /// Duplicate and descending indices are rejected by position, from
    /// both entry points.
    #[test]
    fn decode_rejects_indices_that_do_not_ascend() {
        let c = Dgc::new(0.5);
        let enc = c.encode(&[1.0, 2.0, 3.0, 4.0], 0); // Survivors 2, 3.
        for second in [2u32, 1] {
            let mut bad = enc.clone();
            let pos = HEADER_LEN + 8;
            bad[pos..pos + 4].copy_from_slice(&second.to_le_bytes());
            let want = format!("sparse index {second} at position 1 does not ascend");
            let err = c.decode(&bad).unwrap_err().to_string();
            assert!(err.contains(&want), "{err}");
            let err = c.decode_into(&bad, &mut [0.0; 4]).unwrap_err().to_string();
            assert!(err.contains(&want), "{err}");
        }
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
