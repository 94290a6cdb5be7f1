//! The eight models of Table 6.

use crate::compute::{ComputeProfile, GpuClass};
use crate::recipe::{build_sizes, Recipe};
use crate::MIB;

/// One gradient (one parameter tensor) of a model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerGrad {
    /// Stable gradient name ("vgg19.grad17").
    pub name: String,
    /// Size in bytes (fp32).
    pub bytes: u64,
}

/// A fully-specified model: its gradient list (forward-layer order)
/// and compute profiles.
#[derive(Debug, Clone)]
pub struct ModelSpec {
    /// Model name as in Table 6.
    pub name: &'static str,
    /// Per-layer gradients, index 0 nearest the input.
    pub layers: Vec<LayerGrad>,
    v100: ComputeProfile,
}

impl ModelSpec {
    /// Total gradient volume in bytes (Table 6 "Total size").
    pub fn total_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.bytes).sum()
    }

    /// Largest gradient in bytes (Table 6 "Max gradient").
    pub fn max_gradient_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.bytes).max().unwrap_or(0)
    }

    /// Number of gradients (Table 6 "# Gradients").
    pub fn num_gradients(&self) -> usize {
        self.layers.len()
    }

    /// The compute profile on the given GPU class.
    pub fn compute(&self, gpu: GpuClass) -> ComputeProfile {
        self.v100.scaled(gpu.slowdown())
    }

    /// When each gradient becomes ready during the backward pass, as
    /// an offset from the start of backward.
    ///
    /// Backward runs from the output layer towards the input, so the
    /// **last** layer's gradient is ready first. Per-layer backward
    /// time is approximated as proportional to the layer's gradient
    /// size with a small fixed floor per layer (kernel launches).
    pub fn backward_ready_offsets(&self, gpu: GpuClass) -> Vec<u64> {
        let bwd = self.compute(gpu).backward_ns;
        let n = self.layers.len();
        let floor = 1.0; // Relative fixed cost per layer.
        let weights: Vec<f64> = self
            .layers
            .iter()
            .map(|l| l.bytes as f64 / self.total_bytes().max(1) as f64 * n as f64 + floor)
            .collect();
        let wsum: f64 = weights.iter().sum();
        let mut offsets = vec![0u64; n];
        let mut acc = 0.0f64;
        for i in (0..n).rev() {
            acc += weights[i];
            offsets[i] = (bwd as f64 * acc / wsum) as u64;
        }
        offsets
    }
}

/// The models trained in the paper's evaluation (Table 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DnnModel {
    /// VGG19 on ImageNet (computer vision, few huge gradients).
    Vgg19,
    /// ResNet50 on ImageNet (computer vision, many small gradients).
    ResNet50,
    /// U-GAT-IT on selfie2anime (image-to-image GAN, enormous).
    Ugatit,
    /// U-GAT-IT light variant (fits 1080 Ti memory).
    UgatitLight,
    /// BERT base on RTE (NLP, many tiny gradients).
    BertBase,
    /// BERT large on RTE.
    BertLarge,
    /// AWD-LSTM language model on wikitext-2.
    Lstm,
    /// Transformer (WMT17) — the paper's most communication-intensive
    /// model.
    Transformer,
}

impl DnnModel {
    /// All models, in Table 6 order.
    pub fn all() -> [DnnModel; 8] {
        [
            DnnModel::Vgg19,
            DnnModel::ResNet50,
            DnnModel::Ugatit,
            DnnModel::UgatitLight,
            DnnModel::BertBase,
            DnnModel::BertLarge,
            DnnModel::Lstm,
            DnnModel::Transformer,
        ]
    }

    /// The model's display name.
    pub fn name(&self) -> &'static str {
        match self {
            DnnModel::Vgg19 => "VGG19",
            DnnModel::ResNet50 => "ResNet50",
            DnnModel::Ugatit => "UGATIT",
            DnnModel::UgatitLight => "UGATIT-light",
            DnnModel::BertBase => "Bert-base",
            DnnModel::BertLarge => "Bert-large",
            DnnModel::Lstm => "LSTM",
            DnnModel::Transformer => "Transformer",
        }
    }

    /// Looks a model up by its display name (case-insensitive).
    pub fn by_name(name: &str) -> Option<DnnModel> {
        DnnModel::all()
            .into_iter()
            .find(|m| m.name().eq_ignore_ascii_case(name))
    }

    /// Builds the full specification.
    pub fn spec(&self) -> ModelSpec {
        let (layers, v100) = match self {
            DnnModel::Vgg19 => (vgg19_layers(), ComputeProfile::from_ms(32, 62.0, 126.0)),
            DnnModel::ResNet50 => (
                recipe_layers(
                    "resnet50",
                    Recipe {
                        count: 155,
                        total_bytes: mib_f(97.46),
                        max_bytes: mib_f(9.0),
                        small_frac: 0.60,
                        small_range: (1024, 8 * 1024),
                        seed: 0x50,
                    },
                ),
                ComputeProfile::from_ms(32, 30.0, 59.0),
            ),
            DnnModel::Ugatit => (
                recipe_layers(
                    "ugatit",
                    Recipe {
                        count: 148,
                        total_bytes: mib_f(2558.75),
                        max_bytes: mib_f(1024.0),
                        small_frac: 0.35,
                        small_range: (2 * 1024, 64 * 1024),
                        seed: 0x0607,
                    },
                ),
                ComputeProfile::from_ms(4, 230.0, 440.0),
            ),
            DnnModel::UgatitLight => (
                recipe_layers(
                    "ugatit-light",
                    Recipe {
                        count: 148,
                        total_bytes: mib_f(511.25),
                        max_bytes: mib_f(128.0),
                        small_frac: 0.35,
                        small_range: (2 * 1024, 32 * 1024),
                        seed: 0x0608,
                    },
                ),
                ComputeProfile::from_ms(4, 85.0, 165.0),
            ),
            DnnModel::BertBase => (
                recipe_layers(
                    "bert-base",
                    Recipe {
                        count: 207,
                        total_bytes: mib_f(420.02),
                        max_bytes: mib_f(89.42),
                        small_frac: 0.627,
                        small_range: (2 * 1024, 12 * 1024),
                        seed: 0xBE27,
                    },
                ),
                ComputeProfile::from_ms(32, 48.0, 92.0),
            ),
            DnnModel::BertLarge => (
                recipe_layers(
                    "bert-large",
                    Recipe {
                        count: 399,
                        total_bytes: mib_f(1282.60),
                        max_bytes: mib_f(119.23),
                        small_frac: 0.60,
                        small_range: (4 * 1024, 16 * 1024),
                        seed: 0xBE28,
                    },
                ),
                ComputeProfile::from_ms(32, 130.0, 245.0),
            ),
            DnnModel::Lstm => (
                recipe_layers(
                    "lstm",
                    Recipe {
                        count: 10,
                        total_bytes: mib_f(327.97),
                        max_bytes: mib_f(190.42),
                        small_frac: 0.2,
                        small_range: (2 * 1024, 8 * 1024),
                        seed: 0x157,
                    },
                ),
                ComputeProfile::from_ms(80, 65.0, 115.0),
            ),
            DnnModel::Transformer => (
                recipe_layers(
                    "transformer",
                    Recipe {
                        count: 185,
                        total_bytes: mib_f(234.08),
                        max_bytes: mib_f(65.84),
                        small_frac: 0.50,
                        small_range: (2 * 1024, 16 * 1024),
                        seed: 0x7247,
                    },
                ),
                ComputeProfile::from_ms(2048, 38.0, 72.0),
            ),
        };
        ModelSpec {
            name: self.name(),
            layers,
            v100,
        }
    }
}

/// Rounds a MiB quantity from Table 6 to whole f32s.
fn mib_f(mib: f64) -> u64 {
    ((mib * MIB as f64) as u64) / 4 * 4
}

fn recipe_layers(prefix: &str, recipe: Recipe) -> Vec<LayerGrad> {
    build_sizes(&recipe)
        .into_iter()
        .enumerate()
        .map(|(i, bytes)| LayerGrad {
            name: format!("{prefix}.grad{i}"),
            bytes,
        })
        .collect()
}

/// VGG19's exact parameter tensors: 16 convolutions and 3 fully
/// connected layers, each with a weight and a bias — 38 gradients,
/// 548.05 MiB total, fc6's 25088×4096 weight being the documented
/// 392 MiB maximum.
fn vgg19_layers() -> Vec<LayerGrad> {
    // (name, output channels, input channels) for 3x3 convolutions.
    let convs: [(&str, u64, u64); 16] = [
        ("conv1_1", 64, 3),
        ("conv1_2", 64, 64),
        ("conv2_1", 128, 64),
        ("conv2_2", 128, 128),
        ("conv3_1", 256, 128),
        ("conv3_2", 256, 256),
        ("conv3_3", 256, 256),
        ("conv3_4", 256, 256),
        ("conv4_1", 512, 256),
        ("conv4_2", 512, 512),
        ("conv4_3", 512, 512),
        ("conv4_4", 512, 512),
        ("conv5_1", 512, 512),
        ("conv5_2", 512, 512),
        ("conv5_3", 512, 512),
        ("conv5_4", 512, 512),
    ];
    let mut layers = Vec::with_capacity(38);
    for (name, out_c, in_c) in convs {
        layers.push(LayerGrad {
            name: format!("vgg19.{name}.weight"),
            bytes: out_c * in_c * 9 * 4,
        });
        layers.push(LayerGrad {
            name: format!("vgg19.{name}.bias"),
            bytes: out_c * 4,
        });
    }
    // Fully connected: 7*7*512 = 25088 -> 4096 -> 4096 -> 1000.
    let fcs: [(&str, u64, u64); 3] = [
        ("fc6", 25088, 4096),
        ("fc7", 4096, 4096),
        ("fc8", 4096, 1000),
    ];
    for (name, in_f, out_f) in fcs {
        layers.push(LayerGrad {
            name: format!("vgg19.{name}.weight"),
            bytes: in_f * out_f * 4,
        });
        layers.push(LayerGrad {
            name: format!("vgg19.{name}.bias"),
            bytes: out_f * 4,
        });
    }
    layers
}

impl std::str::FromStr for DnnModel {
    type Err = String;

    /// Parses a display name through [`DnnModel::by_name`].
    fn from_str(s: &str) -> Result<DnnModel, String> {
        DnnModel::by_name(s).ok_or_else(|| format!("unknown model '{s}' (try `hipress models`)"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 6 verbatim: (name, total MiB, max MiB, count).
    const TABLE6: [(&str, f64, f64, usize); 8] = [
        ("VGG19", 548.05, 392.0, 38),
        ("ResNet50", 97.46, 9.0, 155),
        ("UGATIT", 2558.75, 1024.0, 148),
        ("UGATIT-light", 511.25, 128.0, 148),
        ("Bert-base", 420.02, 89.42, 207),
        ("Bert-large", 1282.60, 119.23, 399),
        ("LSTM", 327.97, 190.42, 10),
        ("Transformer", 234.08, 65.84, 185),
    ];

    #[test]
    fn all_models_match_table6() {
        for ((model, (name, total_mib, max_mib, count)), _) in
            DnnModel::all().iter().zip(TABLE6).zip(0..)
        {
            let spec = model.spec();
            assert_eq!(spec.name, name);
            assert_eq!(spec.num_gradients(), count, "{name} gradient count");
            let total = spec.total_bytes() as f64 / MIB as f64;
            assert!(
                (total - total_mib).abs() / total_mib < 0.005,
                "{name} total {total} MiB vs table {total_mib}"
            );
            let max = spec.max_gradient_bytes() as f64 / MIB as f64;
            assert!(
                (max - max_mib).abs() / max_mib < 0.005,
                "{name} max {max} MiB vs table {max_mib}"
            );
        }
    }

    #[test]
    fn vgg19_fc6_is_the_documented_max() {
        let spec = DnnModel::Vgg19.spec();
        let fc6 = spec
            .layers
            .iter()
            .find(|l| l.name == "vgg19.fc6.weight")
            .unwrap();
        assert_eq!(fc6.bytes, 25088 * 4096 * 4); // Exactly 392 MiB.
        assert_eq!(spec.max_gradient_bytes(), fc6.bytes);
    }

    #[test]
    fn by_name_roundtrips() {
        for m in DnnModel::all() {
            assert_eq!(DnnModel::by_name(m.name()), Some(m));
            assert_eq!(DnnModel::by_name(&m.name().to_lowercase()), Some(m));
        }
        assert_eq!(DnnModel::by_name("GPT-5"), None);
    }

    #[test]
    fn from_str_parses_every_name_and_rejects_unknown_ones() {
        for m in DnnModel::all() {
            assert_eq!(m.name().parse::<DnnModel>(), Ok(m));
        }
        let err = "GPT-5".parse::<DnnModel>().unwrap_err();
        assert_eq!(err, "unknown model 'GPT-5' (try `hipress models`)");
    }

    #[test]
    fn backward_offsets_reverse_order() {
        let spec = DnnModel::Vgg19.spec();
        let offsets = spec.backward_ready_offsets(GpuClass::V100);
        assert_eq!(offsets.len(), spec.num_gradients());
        // Later layers (higher index) become ready earlier.
        for w in offsets.windows(2) {
            assert!(w[0] >= w[1], "offsets must decrease with depth");
        }
        // The first gradient to be ready is the last layer's, after a
        // nonzero slice of backward; the input layer's gradient marks
        // the end of backward.
        let bwd = spec.compute(GpuClass::V100).backward_ns;
        assert!(*offsets.last().unwrap() > 0);
        let drift = (offsets[0] as i64 - bwd as i64).abs();
        assert!(drift <= 2, "first-layer offset {} vs bwd {bwd}", offsets[0]);
    }

    #[test]
    fn compute_profiles_sane() {
        for m in DnnModel::all() {
            let spec = m.spec();
            let v100 = spec.compute(GpuClass::V100);
            let ti = spec.compute(GpuClass::Gtx1080Ti);
            assert!(v100.iteration_ns() > 0);
            assert!(ti.iteration_ns() > 2 * v100.iteration_ns());
            assert!(v100.single_gpu_throughput() > 0.0);
        }
    }

    #[test]
    fn resnet_throughput_in_published_ballpark() {
        // ResNet50 fp32 on a V100 trains at roughly 300-400 images/s.
        let t = DnnModel::ResNet50
            .spec()
            .compute(GpuClass::V100)
            .single_gpu_throughput();
        assert!((250.0..450.0).contains(&t), "throughput {t}");
    }

    #[test]
    fn specs_are_deterministic() {
        let a = DnnModel::BertLarge.spec();
        let b = DnnModel::BertLarge.spec();
        assert_eq!(a.layers, b.layers);
    }
}
