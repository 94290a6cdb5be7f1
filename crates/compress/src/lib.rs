//! Gradient compression algorithms.
//!
//! This crate implements the five state-of-the-art algorithms the
//! paper builds with CompLL (§4.4, Table 5), operating on real `f32`
//! data with real bit-packed output:
//!
//! * [`onebit`] — 1-bit quantization (Seide et al., Interspeech'14),
//! * [`tbq`] — threshold binary quantization (Strom, Interspeech'15),
//! * [`terngrad`] — stochastic linear quantization generalized over a
//!   bitwidth parameter (Wen et al., NeurIPS'17; Figure 5 form),
//! * [`dgc`] — Deep Gradient Compression top-k sparsification (Lin et
//!   al., ICLR'18),
//! * [`graddrop`] — threshold gradient dropping (Aji & Heafield,
//!   EMNLP'17).
//!
//! Each algorithm has two implementations:
//!
//! * the **optimized** one (what CompLL generates in the paper), in
//!   its own module, and
//! * a deliberately naive **OSS baseline** in [`oss`], mirroring the
//!   open-source implementations the paper compares against in §4.4
//!   (full sorts instead of sampled thresholds, per-element buffer
//!   growth, extra copies). The OSS variants produce byte-identical or
//!   semantically identical output but cost more, both in wall time
//!   and in their simulated GPU cost profiles.
//!
//! Compressed gradients are **not directly aggregatable** (§2.5): the
//! synchronization layer must decode → merge → re-encode, which is
//! exactly the behaviour CaSync schedules around.
//!
//! [`feedback::ErrorFeedback`] implements the residual accumulation
//! ("error feedback") that makes lossy compression converge, used by
//! the convergence experiments (Figure 13).

#![forbid(unsafe_code)]

pub mod dgc;
pub mod feedback;
pub mod graddrop;
mod header;
pub mod onebit;
pub mod oss;
pub mod tbq;
pub mod terngrad;

use hipress_util::{Error, Result};

pub use feedback::ErrorFeedback;
pub use header::Header;

/// Broad algorithm family (§2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgorithmKind {
    /// Decreases the precision of every gradient element.
    Quantization,
    /// Filters out insignificant elements, transmitting (index, value)
    /// pairs for the survivors.
    Sparsification,
}

/// Relative GPU cost of an algorithm's kernels, consumed by the
/// simulated GPU to derive `T_enc(m)` / `T_dec(m)`.
///
/// Compression kernels are memory-bound scans (§2.5: "extremely
/// memory-intensive"); their cost is well modelled by the number of
/// sequential passes over the input buffer. The OSS baselines carry
/// larger pass counts, reproducing the §4.4 speedup factors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelCostProfile {
    /// Full memory passes over the input an encode performs.
    pub encode_passes: f64,
    /// Full memory passes over the compressed input a decode performs.
    pub decode_passes: f64,
}

/// A gradient compression algorithm.
///
/// `encode` consumes a gradient and produces a self-describing byte
/// stream; `decode` reverses it into a dense gradient. The `seed`
/// parameter makes stochastic algorithms (TernGrad's stochastic
/// rounding) deterministic: callers derive a fresh seed per
/// (gradient, iteration).
pub trait Compressor: Send + Sync {
    /// Short algorithm name ("onebit", "dgc", ...).
    fn name(&self) -> &'static str;

    /// Which family the algorithm belongs to.
    fn kind(&self) -> AlgorithmKind;

    /// Compresses `grad` into a self-describing byte stream.
    fn encode(&self, grad: &[f32], seed: u64) -> Vec<u8>;

    /// Decompresses a stream produced by [`Compressor::encode`] back
    /// into a dense gradient.
    ///
    /// The output length comes from the stream's own header; a
    /// consumer that knows the length it expects (the runtime always
    /// does) calls [`Compressor::decode_into`] instead.
    fn decode(&self, data: &[u8]) -> Result<Vec<f32>>;

    /// Decompresses a stream into the consumer's own buffer: the
    /// values [`Compressor::decode`] returns, with no gradient-sized
    /// allocation and none sized by the stream.
    ///
    /// Fails — before writing anything — unless the stream describes
    /// exactly `out.len()` elements. After any other error the
    /// contents of `out` are unspecified. The default goes through
    /// `decode`; the optimized codecs decode in place.
    fn decode_into(&self, data: &[u8], out: &mut [f32]) -> Result<()> {
        let dense = self.decode(data)?;
        if dense.len() != out.len() {
            return Err(Error::codec(format!(
                "{} stream holds {} elements, destination holds {}",
                self.name(),
                dense.len(),
                out.len()
            )));
        }
        out.copy_from_slice(&dense);
        Ok(())
    }

    /// Merges a stream into an accumulator: `out = acc + decode(data)`,
    /// element by element and bit for bit, written to the consumer's
    /// own buffer. This is the aggregator's decode → merge step of
    /// CaSync (§3.1) as one call.
    ///
    /// Fails, with the errors [`Compressor::decode_into`] gives, unless
    /// the stream describes exactly `out.len()` elements and `acc` holds
    /// as many. `acc` is never written; after an error the contents of
    /// `out` are unspecified.
    ///
    /// The default decodes into `out` and adds `acc` there, one pass
    /// each. The sparse codecs ([`dgc`], [`graddrop`]) never densify the
    /// stream: they write `acc[i] + 0.0` everywhere and then
    /// `acc[i] + v` at each survivor `(i, v)`. Adding `+0.0` rather than
    /// copying is what keeps the bits those of the dense sum: `-0.0`
    /// becomes `+0.0` and a signaling NaN is quieted, exactly as adding
    /// a zero-filled decode does.
    // `acc + dec`, the operand order of every other sum in the runtime.
    #[allow(clippy::assign_op_pattern)]
    fn merge_into(&self, data: &[u8], acc: &[f32], out: &mut [f32]) -> Result<()> {
        check_acc_len(acc, out)?;
        self.decode_into(data, out)?;
        for (o, &a) in out.iter_mut().zip(acc) {
            *o = a + *o;
        }
        Ok(())
    }

    /// Exact compressed size in bytes for an `elems`-element gradient,
    /// when the size is data-independent. Data-dependent algorithms
    /// (threshold sparsifiers) return their expected size.
    fn compressed_size(&self, elems: usize) -> u64;

    /// Compression rate `r` from the paper's cost model (Table 2):
    /// compressed bytes divided by original bytes.
    fn ratio(&self, elems: usize) -> f64 {
        if elems == 0 {
            return 1.0;
        }
        self.compressed_size(elems) as f64 / (elems as f64 * 4.0)
    }

    /// Relative kernel cost used by the simulated GPU.
    fn cost_profile(&self) -> KernelCostProfile;
}

/// [`Compressor::merge_into`]'s length rule for the accumulator: it
/// holds exactly as many elements as the destination.
pub(crate) fn check_acc_len(acc: &[f32], out: &[f32]) -> Result<()> {
    if acc.len() != out.len() {
        return Err(Error::codec(format!(
            "merge accumulator holds {} elements, destination holds {}",
            acc.len(),
            out.len()
        )));
    }
    Ok(())
}

hipress_util::record! {
    /// Serializable specification of a compression algorithm and its
    /// parameters; the configuration-level handle used across the
    /// framework (training scripts name an `Algorithm`, not a trait
    /// object).
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum Algorithm ["algorithm"] {
        /// No compression (the baseline configuration).
        None = 0,
        /// 1-bit quantization with per-tensor positive/negative means.
        OneBit = 1,
        /// Threshold binary quantization with threshold `tau`.
        Tbq {
            /// Quantization threshold τ; elements within (−τ, τ) become 0.
            tau: f32,
        } = 2,
        /// Stochastic linear quantization with `bitwidth` bits per element.
        TernGrad {
            /// Bits per quantized element (1, 2, 4, or 8).
            bitwidth: u8,
        } = 3,
        /// Top-k sparsification keeping `rate` of the elements.
        Dgc {
            /// Fraction of elements kept (0.001 = 0.1%).
            rate: f64,
        } = 4,
        /// Threshold dropping keeping approximately `rate` of the elements.
        GradDrop {
            /// Target fraction of elements kept.
            rate: f64,
        } = 5,
    }
}

impl Algorithm {
    /// Builds the optimized (CompLL-style) implementation.
    ///
    /// Returns `None` for [`Algorithm::None`], which has no compressor.
    pub fn build(&self) -> Option<Box<dyn Compressor>> {
        match *self {
            Algorithm::None => None,
            Algorithm::OneBit => Some(Box::new(onebit::OneBit::new())),
            Algorithm::Tbq { tau } => Some(Box::new(tbq::Tbq::new(tau))),
            Algorithm::TernGrad { bitwidth } => Some(Box::new(terngrad::TernGrad::new(bitwidth))),
            Algorithm::Dgc { rate } => Some(Box::new(dgc::Dgc::new(rate))),
            Algorithm::GradDrop { rate } => Some(Box::new(graddrop::GradDrop::new(rate))),
        }
    }

    /// Builds the naive open-source baseline implementation (§4.4).
    ///
    /// Returns `None` for [`Algorithm::None`] and for algorithms the
    /// paper had no OSS implementation of (GradDrop, Table 5).
    pub fn build_oss(&self) -> Option<Box<dyn Compressor>> {
        match *self {
            Algorithm::None | Algorithm::GradDrop { .. } => None,
            Algorithm::OneBit => Some(Box::new(oss::OssOneBit::new())),
            Algorithm::Tbq { tau } => Some(Box::new(oss::OssTbq::new(tau))),
            Algorithm::TernGrad { bitwidth } => Some(Box::new(oss::OssTernGrad::new(bitwidth))),
            Algorithm::Dgc { rate } => Some(Box::new(oss::OssDgc::new(rate))),
        }
    }

    /// Short display name used in experiment tables.
    pub fn label(&self) -> String {
        match *self {
            Algorithm::None => "none".into(),
            Algorithm::OneBit => "onebit".into(),
            Algorithm::Tbq { tau } => format!("tbq(tau={tau})"),
            Algorithm::TernGrad { bitwidth } => format!("terngrad({bitwidth}bit)"),
            Algorithm::Dgc { rate } => format!("dgc({:.2}%)", rate * 100.0),
            Algorithm::GradDrop { rate } => format!("graddrop({:.2}%)", rate * 100.0),
        }
    }

    /// The paper's default parameterization for each algorithm
    /// ("we inherit the parameter settings from their original
    /// papers", §6.1).
    pub fn paper_default(name: &str) -> Option<Algorithm> {
        match name {
            "none" => Some(Algorithm::None),
            "onebit" => Some(Algorithm::OneBit),
            "tbq" => Some(Algorithm::Tbq { tau: 0.05 }),
            "terngrad" => Some(Algorithm::TernGrad { bitwidth: 2 }),
            "dgc" => Some(Algorithm::Dgc { rate: 0.001 }),
            "graddrop" => Some(Algorithm::GradDrop { rate: 0.01 }),
            _ => None,
        }
    }
}

impl std::str::FromStr for Algorithm {
    type Err = Error;

    /// Parses `name[:param]`: `none`, `onebit`, `tbq[:tau]`,
    /// `terngrad[:bits]`, `dgc[:rate]` or `graddrop[:rate]`. A bare
    /// name takes [`Algorithm::paper_default`]'s parameter; a parameter
    /// the codec's constructor would reject is an error here.
    fn from_str(spec: &str) -> Result<Algorithm> {
        let (name, param) = match spec.split_once(':') {
            Some((n, p)) => (n, Some(p)),
            None => (spec, None),
        };
        let default = Algorithm::paper_default(name)
            .ok_or_else(|| Error::config(format!("unknown algorithm '{name}'")))?;
        let Some(p) = param else {
            return Ok(default);
        };
        let out_of_range = |rule: &str| Error::config(format!("{name} {rule}, got {p}"));
        let rate = || match p.parse::<f64>() {
            Ok(rate) if rate > 0.0 && rate <= 1.0 => Ok(rate),
            _ => Err(out_of_range("rate must be in (0, 1]")),
        };
        match default {
            Algorithm::None | Algorithm::OneBit => {
                Err(Error::config(format!("{name} takes no parameter")))
            }
            Algorithm::Tbq { .. } => match p.parse::<f32>() {
                Ok(tau) if tau > 0.0 && tau.is_finite() => Ok(Algorithm::Tbq { tau }),
                _ => Err(out_of_range("threshold must be positive and finite")),
            },
            Algorithm::TernGrad { .. } => match p.parse::<u8>() {
                Ok(bitwidth) if (1..=8).contains(&bitwidth) => Ok(Algorithm::TernGrad { bitwidth }),
                _ => Err(out_of_range("bitwidth must be in 1..=8")),
            },
            Algorithm::Dgc { .. } => Ok(Algorithm::Dgc { rate: rate()? }),
            Algorithm::GradDrop { .. } => Ok(Algorithm::GradDrop { rate: rate()? }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_all_algorithms() {
        assert!(Algorithm::None.build().is_none());
        for (alg, name) in [
            (Algorithm::OneBit, "onebit"),
            (Algorithm::Tbq { tau: 0.1 }, "tbq"),
            (Algorithm::TernGrad { bitwidth: 2 }, "terngrad"),
            (Algorithm::Dgc { rate: 0.01 }, "dgc"),
            (Algorithm::GradDrop { rate: 0.01 }, "graddrop"),
        ] {
            let c = alg.build().expect("should build");
            assert_eq!(c.name(), name);
        }
    }

    #[test]
    fn oss_availability_matches_table5() {
        // Table 5: onebit, TBQ, TernGrad, DGC have OSS implementations;
        // GradDrop does not (N/A row).
        assert!(Algorithm::OneBit.build_oss().is_some());
        assert!(Algorithm::Tbq { tau: 0.1 }.build_oss().is_some());
        assert!(Algorithm::TernGrad { bitwidth: 2 }.build_oss().is_some());
        assert!(Algorithm::Dgc { rate: 0.01 }.build_oss().is_some());
        assert!(Algorithm::GradDrop { rate: 0.01 }.build_oss().is_none());
    }

    #[test]
    fn paper_defaults_resolve() {
        for name in ["none", "onebit", "tbq", "terngrad", "dgc", "graddrop"] {
            assert!(Algorithm::paper_default(name).is_some(), "{name}");
        }
        assert!(Algorithm::paper_default("bogus").is_none());
    }

    #[test]
    fn ratio_of_empty_gradient_is_one() {
        let c = Algorithm::OneBit.build().unwrap();
        assert_eq!(c.ratio(0), 1.0);
    }

    #[test]
    fn parses_every_spelling_with_paper_defaults() {
        for (spec, want) in [
            ("none", Algorithm::None),
            ("onebit", Algorithm::OneBit),
            ("tbq", Algorithm::Tbq { tau: 0.05 }),
            ("tbq:0.1", Algorithm::Tbq { tau: 0.1 }),
            ("terngrad", Algorithm::TernGrad { bitwidth: 2 }),
            ("terngrad:1", Algorithm::TernGrad { bitwidth: 1 }),
            ("terngrad:8", Algorithm::TernGrad { bitwidth: 8 }),
            ("dgc", Algorithm::Dgc { rate: 0.001 }),
            ("dgc:1", Algorithm::Dgc { rate: 1.0 }),
            ("graddrop", Algorithm::GradDrop { rate: 0.01 }),
            ("graddrop:0.5", Algorithm::GradDrop { rate: 0.5 }),
        ] {
            assert_eq!(spec.parse::<Algorithm>().unwrap(), want, "{spec}");
        }
        for name in ["none", "onebit", "tbq", "terngrad", "dgc", "graddrop"] {
            assert_eq!(
                name.parse::<Algorithm>().ok(),
                Algorithm::paper_default(name)
            );
        }
        for bad in ["bogus", "", "onebit:1", "none:0", "dgc:", "terngrad:two"] {
            assert!(bad.parse::<Algorithm>().is_err(), "{bad}");
        }
    }

    /// The parser refuses exactly the parameters the codec
    /// constructors panic on, so a parsed algorithm always builds.
    #[test]
    fn parser_rejects_exactly_what_the_constructors_assert() {
        // The refused constructors panic by design; keep them quiet.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let builds = |a: Algorithm| std::panic::catch_unwind(|| a.build()).is_ok();
        let taus = ["-1", "0", "-0", "1e-9", "0.05", "3", "inf", "NaN"];
        for p in taus {
            let tau: f32 = p.parse().unwrap();
            let parsed = format!("tbq:{p}").parse::<Algorithm>();
            assert_eq!(parsed.is_ok(), builds(Algorithm::Tbq { tau }), "tbq:{p}");
        }
        for bitwidth in [0, 1, 2, 4, 8, 9, u8::MAX] {
            let parsed = format!("terngrad:{bitwidth}").parse::<Algorithm>();
            let built = builds(Algorithm::TernGrad { bitwidth });
            assert_eq!(parsed.is_ok(), built, "terngrad:{bitwidth}");
        }
        let rates = [
            "-1",
            "0",
            "1e-9",
            "0.001",
            "1",
            "1.0000001",
            "2",
            "inf",
            "NaN",
        ];
        for p in rates {
            let rate: f64 = p.parse().unwrap();
            for (name, alg) in [
                ("dgc", Algorithm::Dgc { rate }),
                ("graddrop", Algorithm::GradDrop { rate }),
            ] {
                let parsed = format!("{name}:{p}").parse::<Algorithm>();
                assert_eq!(parsed.is_ok(), builds(alg), "{name}:{p}");
            }
        }
        std::panic::set_hook(hook);
        for spec in ["tbq:-1", "terngrad:9", "dgc:2", "graddrop:0"] {
            let err = spec.parse::<Algorithm>().unwrap_err().to_string();
            assert!(err.contains("must be"), "{spec}: {err}");
        }
    }
}
