//! Builders for the model zoo.
//!
//! Every builder produces a [`ClientModel`] whose feature extractor ends in
//! one fully connected layer projecting to the shared `feature_dim`
//! (paper §3.2.1: "convolutional layers followed by a single fully
//! connected layer"), so the classifier shape is identical across all
//! architectures and classifier averaging is well defined.

use crate::classifier::Classifier;
use crate::model::{ClientModel, ModelArch};
use fca_nn::activation::{Dropout, Relu};
use fca_nn::conv::{Conv2d, ConvGeometry};
use fca_nn::linear::Linear;
use fca_nn::norm::BatchNorm2d;
use fca_nn::pool::{GlobalAvgPool, MaxPool2d};
use fca_nn::structure::{ChannelShuffle, Flatten, InceptionBlock, Residual, Sequential};
use fca_tensor::rng::{derived_rng, SnapRng};

/// Input geometry `(channels, height, width)`.
pub type InputShape = (usize, usize, usize);

/// Output extent of a 2×2/stride-2 max pool.
fn half(n: usize) -> usize {
    (n - 2) / 2 + 1
}

/// Build a model of the given architecture.
///
/// `seed` determines all weight initialization (dropout seeds derive from
/// it too), so two builds with equal arguments are identical.
pub fn build_model(
    arch: ModelArch,
    input: InputShape,
    feature_dim: usize,
    num_classes: usize,
    seed: u64,
) -> ClientModel {
    let mut rng = derived_rng(seed, 0xA0DE1);
    let fe = match arch {
        ModelArch::MicroResNet => micro_resnet(input, feature_dim, &mut rng),
        ModelArch::MicroShuffleNet => micro_shufflenet(input, feature_dim, &mut rng),
        ModelArch::MicroGoogLeNet => micro_googlenet(input, feature_dim, &mut rng),
        ModelArch::MicroAlexNet => micro_alexnet(input, feature_dim, seed, &mut rng),
        ModelArch::CnnFedAvg => cnn_fedavg(input, feature_dim, &mut rng),
        ModelArch::ProtoCnn { width_variant } => {
            proto_cnn(input, feature_dim, width_variant, &mut rng)
        }
    };
    let mut crng = derived_rng(seed, 0xC1A55);
    let classifier = Classifier::new(feature_dim, num_classes, &mut crng);
    ClientModel::new(arch, fe, classifier)
}

/// ResNet idiom: stem + identity block + strided projection block +
/// identity block, global average pool, FC projection.
fn micro_resnet(input: InputShape, feature_dim: usize, rng: &mut SnapRng) -> Sequential {
    let (c, _, _) = input;
    let res_identity = |ch: usize, rng: &mut SnapRng| {
        Residual::identity(
            Sequential::new()
                .push(Conv2d::basic(ch, ch, 3, 1, 1, rng))
                .push(BatchNorm2d::new(ch))
                .push(Relu::new())
                .push(Conv2d::basic(ch, ch, 3, 1, 1, rng))
                .push(BatchNorm2d::new(ch)),
        )
    };
    let res_down = |cin: usize, cout: usize, rng: &mut SnapRng| {
        Residual::projected(
            Sequential::new()
                .push(Conv2d::basic(cin, cout, 3, 2, 1, rng))
                .push(BatchNorm2d::new(cout))
                .push(Relu::new())
                .push(Conv2d::basic(cout, cout, 3, 1, 1, rng))
                .push(BatchNorm2d::new(cout)),
            Sequential::new()
                .push(Conv2d::basic(cin, cout, 1, 2, 0, rng))
                .push(BatchNorm2d::new(cout)),
        )
    };
    Sequential::new()
        .push(Conv2d::basic(c, 16, 3, 1, 1, rng))
        .push(BatchNorm2d::new(16))
        .push(Relu::new())
        .push(res_identity(16, rng))
        .push(Relu::new())
        .push(res_down(16, 32, rng))
        .push(Relu::new())
        .push(res_identity(32, rng))
        .push(Relu::new())
        .push(GlobalAvgPool::new())
        .push(Linear::new(32, feature_dim, rng))
}

/// ShuffleNetV2 idiom: grouped 1×1 convs, channel shuffle, depthwise 3×3.
fn micro_shufflenet(input: InputShape, feature_dim: usize, rng: &mut SnapRng) -> Sequential {
    let (c, _, _) = input;
    // Downsampling shuffle unit 16 → 32.
    let down_unit = Sequential::new()
        .push(Conv2d::new(
            ConvGeometry {
                in_channels: 16,
                out_channels: 16,
                kernel: 1,
                stride: 1,
                padding: 0,
                groups: 2,
            },
            rng,
        ))
        .push(BatchNorm2d::new(16))
        .push(Relu::new())
        .push(ChannelShuffle::new(2))
        .push(Conv2d::new(
            ConvGeometry {
                in_channels: 16,
                out_channels: 16,
                kernel: 3,
                stride: 2,
                padding: 1,
                groups: 16,
            },
            rng,
        ))
        .push(BatchNorm2d::new(16))
        .push(Conv2d::basic(16, 32, 1, 1, 0, rng))
        .push(BatchNorm2d::new(32))
        .push(Relu::new());
    // Identity shuffle unit at 32 channels.
    let id_unit = Residual::identity(
        Sequential::new()
            .push(Conv2d::new(
                ConvGeometry {
                    in_channels: 32,
                    out_channels: 32,
                    kernel: 1,
                    stride: 1,
                    padding: 0,
                    groups: 2,
                },
                rng,
            ))
            .push(BatchNorm2d::new(32))
            .push(Relu::new())
            .push(ChannelShuffle::new(2))
            .push(Conv2d::new(
                ConvGeometry {
                    in_channels: 32,
                    out_channels: 32,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                    groups: 32,
                },
                rng,
            ))
            .push(BatchNorm2d::new(32))
            .push(Conv2d::basic(32, 32, 1, 1, 0, rng))
            .push(BatchNorm2d::new(32)),
    );
    let mut seq = Sequential::new()
        .push(Conv2d::basic(c, 16, 3, 1, 1, rng))
        .push(BatchNorm2d::new(16))
        .push(Relu::new());
    seq = seq.push_boxed(Box::new(down_unit));
    seq.push(id_unit)
        .push(Relu::new())
        .push(GlobalAvgPool::new())
        .push(Linear::new(32, feature_dim, rng))
}

/// GoogLeNet idiom: inception blocks with 1×1 / 3×3 / reduced-3×3 branches.
fn micro_googlenet(input: InputShape, feature_dim: usize, rng: &mut SnapRng) -> Sequential {
    let (c, _, _) = input;
    let branch1 = |cin: usize, cout: usize, rng: &mut SnapRng| {
        Sequential::new()
            .push(Conv2d::basic(cin, cout, 1, 1, 0, rng))
            .push(BatchNorm2d::new(cout))
            .push(Relu::new())
    };
    let branch3 = |cin: usize, mid: usize, cout: usize, rng: &mut SnapRng| {
        Sequential::new()
            .push(Conv2d::basic(cin, mid, 1, 1, 0, rng))
            .push(BatchNorm2d::new(mid))
            .push(Relu::new())
            .push(Conv2d::basic(mid, cout, 3, 1, 1, rng))
            .push(BatchNorm2d::new(cout))
            .push(Relu::new())
    };
    let inception1 = InceptionBlock::new(vec![
        branch1(16, 8, rng),
        branch3(16, 8, 12, rng),
        branch3(16, 4, 12, rng),
    ]);
    let inception2 = InceptionBlock::new(vec![
        branch1(32, 8, rng),
        branch3(32, 8, 16, rng),
        branch3(32, 4, 8, rng),
    ]);
    Sequential::new()
        .push(Conv2d::basic(c, 16, 3, 1, 1, rng))
        .push(BatchNorm2d::new(16))
        .push(Relu::new())
        .push(MaxPool2d::new(2, 2))
        .push(inception1)
        .push(MaxPool2d::new(2, 2))
        .push(inception2)
        .push(GlobalAvgPool::new())
        .push(Linear::new(32, feature_dim, rng))
}

/// AlexNet idiom: plain conv stack, max pools, dropout before the FC.
fn micro_alexnet(
    input: InputShape,
    feature_dim: usize,
    seed: u64,
    rng: &mut SnapRng,
) -> Sequential {
    let (c, h, w) = input;
    let (h1, w1) = (half(h), half(w));
    let (h2, w2) = (half(h1), half(w1));
    let (h3, w3) = (half(h2), half(w2));
    assert!(
        h3 >= 1 && w3 >= 1,
        "input {h}x{w} too small for MicroAlexNet"
    );
    Sequential::new()
        .push(Conv2d::basic(c, 12, 3, 1, 1, rng))
        .push(Relu::new())
        .push(MaxPool2d::new(2, 2))
        .push(Conv2d::basic(12, 24, 3, 1, 1, rng))
        .push(Relu::new())
        .push(MaxPool2d::new(2, 2))
        .push(Conv2d::basic(24, 32, 3, 1, 1, rng))
        .push(Relu::new())
        .push(MaxPool2d::new(2, 2))
        .push(Flatten::new())
        .push(Dropout::new(0.25, fca_tensor::rng::derive_seed(seed, 0xD0)))
        .push(Linear::new(32 * h3 * w3, feature_dim, rng))
}

/// The FedAvg paper's two-conv CNN (homogeneous baseline).
fn cnn_fedavg(input: InputShape, feature_dim: usize, rng: &mut SnapRng) -> Sequential {
    let (c, h, w) = input;
    let (h1, w1) = (half(h), half(w));
    let (h2, w2) = (half(h1), half(w1));
    Sequential::new()
        .push(Conv2d::basic(c, 16, 5, 1, 2, rng))
        .push(Relu::new())
        .push(MaxPool2d::new(2, 2))
        .push(Conv2d::basic(16, 32, 5, 1, 2, rng))
        .push(Relu::new())
        .push(MaxPool2d::new(2, 2))
        .push(Flatten::new())
        .push(Linear::new(32 * h2 * w2, feature_dim, rng))
}

/// FedProto's width-varied two-conv CNN: same feature dim, different
/// channel widths per variant (the paper's "less heterogeneous" scheme).
fn proto_cnn(
    input: InputShape,
    feature_dim: usize,
    width_variant: usize,
    rng: &mut SnapRng,
) -> Sequential {
    let (c, h, w) = input;
    let c1 = 8 + 2 * (width_variant % 4);
    let c2 = 16 + 2 * (width_variant % 4);
    let (h1, w1) = (half(h), half(w));
    let (h2, w2) = (half(h1), half(w1));
    Sequential::new()
        .push(Conv2d::basic(c, c1, 3, 1, 1, rng))
        .push(BatchNorm2d::new(c1))
        .push(Relu::new())
        .push(MaxPool2d::new(2, 2))
        .push(Conv2d::basic(c1, c2, 3, 1, 1, rng))
        .push(BatchNorm2d::new(c2))
        .push(Relu::new())
        .push(MaxPool2d::new(2, 2))
        .push(Flatten::new())
        .push(Linear::new(c2 * h2 * w2, feature_dim, rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fca_tensor::rng::seeded_rng;
    use fca_tensor::{Tensor, Workspace};

    const ARCHS: [ModelArch; 6] = [
        ModelArch::MicroResNet,
        ModelArch::MicroShuffleNet,
        ModelArch::MicroGoogLeNet,
        ModelArch::MicroAlexNet,
        ModelArch::CnnFedAvg,
        ModelArch::ProtoCnn { width_variant: 1 },
    ];

    #[test]
    fn all_archs_forward_on_cifar_shape() {
        let mut rng = seeded_rng(421);
        let mut ws = Workspace::new();
        let x = Tensor::randn([2, 3, 32, 32], 1.0, &mut rng);
        for arch in ARCHS {
            let mut m = build_model(arch, (3, 32, 32), 24, 10, 1);
            let (f, l) = m.forward(&x, true, &mut ws);
            assert_eq!(f.dims(), &[2, 24], "{arch:?} feature shape");
            assert_eq!(l.dims(), &[2, 10], "{arch:?} logit shape");
            assert!(!f.has_non_finite(), "{arch:?} produced non-finite features");
        }
    }

    #[test]
    fn all_archs_forward_on_mnist_shape() {
        let mut rng = seeded_rng(422);
        let mut ws = Workspace::new();
        let x = Tensor::randn([2, 1, 28, 28], 1.0, &mut rng);
        for arch in ARCHS {
            let mut m = build_model(arch, (1, 28, 28), 16, 26, 2);
            let (f, l) = m.forward(&x, true, &mut ws);
            assert_eq!(f.dims(), &[2, 16], "{arch:?}");
            assert_eq!(l.dims(), &[2, 26], "{arch:?}");
        }
    }

    /// A model's backward skips its stem's input-gradient product
    /// (`Module::backward_params`), and every parameter gradient is still
    /// the bits a full backward through the extractor adds: every
    /// architecture, 1 and 3 input channels, feature and logit losses.
    #[test]
    fn skipping_the_stems_input_gradient_changes_no_parameter_gradient() {
        use fca_nn::Module;
        let mut rng = seeded_rng(427);
        for (c, hw) in [(1, 12), (3, 14)] {
            let x = Tensor::randn([3, c, hw, hw], 1.0, &mut rng);
            let gf = Tensor::randn([3, 8], 1.0, &mut rng);
            let gl = Tensor::randn([3, 4], 1.0, &mut rng);
            for arch in ARCHS {
                let grads = |full: bool| {
                    let mut ws = Workspace::new();
                    let mut m = build_model(arch, (c, hw, hw), 8, 4, 5);
                    let _ = m.forward(&x, true, &mut ws);
                    if full {
                        let mut d_feat = m.classifier.backward(&gl, &mut ws);
                        d_feat.add_assign(&gf);
                        let dx = m.feature_extractor.backward(&d_feat, &mut ws);
                        assert_eq!(dx.dims(), x.dims());
                    } else {
                        m.backward(Some(&gf), &gl, &mut ws);
                    }
                    let bits = |p: &mut fca_nn::Param| {
                        p.grad
                            .data()
                            .iter()
                            .map(|v| v.to_bits())
                            .collect::<Vec<_>>()
                    };
                    m.params_mut().into_iter().map(bits).collect::<Vec<_>>()
                };
                assert_eq!(grads(false), grads(true), "{arch:?} on {c}x{hw}x{hw}");
            }
        }
    }

    #[test]
    fn all_archs_backward_produce_gradients() {
        let mut rng = seeded_rng(423);
        let mut ws = Workspace::new();
        let x = Tensor::randn([2, 1, 12, 12], 1.0, &mut rng);
        for arch in ARCHS {
            let mut m = build_model(arch, (1, 12, 12), 8, 4, 3);
            m.zero_grad();
            let (f, l) = m.forward(&x, true, &mut ws);
            let gl = Tensor::ones([2, 4]);
            let gf = Tensor::ones([2, 8]);
            m.backward(Some(&gf), &gl, &mut ws);
            let nonzero = m
                .params_mut()
                .iter()
                .filter(|p| p.grad.max_abs() > 0.0)
                .count();
            let total = m.params_mut().len();
            assert!(
                nonzero * 2 >= total,
                "{arch:?}: only {nonzero}/{total} params received gradient"
            );
            let _ = (f, l);
        }
    }

    #[test]
    fn builds_are_deterministic_per_seed() {
        let mut rng = seeded_rng(424);
        let mut ws = Workspace::new();
        let x = Tensor::randn([1, 3, 32, 32], 1.0, &mut rng);
        let mut a = build_model(ModelArch::MicroResNet, (3, 32, 32), 16, 10, 7);
        let mut b = build_model(ModelArch::MicroResNet, (3, 32, 32), 16, 10, 7);
        assert_eq!(a.predict(&x, &mut ws), b.predict(&x, &mut ws));
        let mut c = build_model(ModelArch::MicroResNet, (3, 32, 32), 16, 10, 8);
        assert_ne!(a.predict(&x, &mut ws), c.predict(&x, &mut ws));
    }

    #[test]
    fn resnet_training_step_peaks_at_most_46_percent_of_the_im2col_cache() {
        // One MicroResNet training step — the benchmark's `hetero_train`
        // shape, a 32-image two-view batch of 1×14×14 — on a fresh
        // workspace, recycling nothing: the peak is the keyed slots plus
        // every tensor handed out. The constant is what the same step
        // peaked at while every conv cached its batch's im2col matrix
        // (commit 91e1696, this test run there). Every conv works through
        // the batch image by image with one scratch chunk, on the calling
        // thread: 8 470 228 B (40.8 %).
        const IM2COL_CACHE_PEAK: u64 = 20_780_448;
        let mut rng = seeded_rng(425);
        let mut ws = Workspace::new();
        let x = Tensor::randn([32, 1, 14, 14], 1.0, &mut rng);
        let mut m = build_model(ModelArch::MicroResNet, (1, 14, 14), 32, 10, 5);
        let (f, l) = m.forward(&x, true, &mut ws);
        m.backward(
            Some(&Tensor::ones(f.dims())),
            &Tensor::ones(l.dims()),
            &mut ws,
        );
        let peak = ws.stats().peak_bytes;
        assert!(
            peak * 100 <= IM2COL_CACHE_PEAK * 46,
            "workspace peak {peak} B against {IM2COL_CACHE_PEAK} B"
        );
    }

    #[test]
    fn one_image_fedavg_step_parks_no_packed_copy_of_the_head() {
        // One CnnFedAvg training step on a single 1×28×28 image — a
        // `wire_full_model` client — on a fresh workspace, recycling
        // nothing. The constant is what the same step peaked at while the
        // 1-row forward through `Linear(1568 → 128)` packed all 200 704
        // weights into a second buffer (commit 9c7ec42, this test run
        // there); a forward that still packed the weight would ask the
        // workspace for those 802 816 B again.
        const PACKED_HEAD_PEAK: u64 = 2_737_872;
        let mut rng = seeded_rng(426);
        let mut ws = Workspace::new();
        let x = Tensor::randn([1, 1, 28, 28], 1.0, &mut rng);
        let mut m = build_model(ModelArch::CnnFedAvg, (1, 28, 28), 128, 10, 5);
        let (f, l) = m.forward(&x, true, &mut ws);
        m.backward(
            Some(&Tensor::ones(f.dims())),
            &Tensor::ones(l.dims()),
            &mut ws,
        );
        let peak = ws.stats().peak_bytes;
        assert!(
            peak + 700_000 <= PACKED_HEAD_PEAK,
            "workspace peak {peak} B against {PACKED_HEAD_PEAK} B"
        );
    }

    #[test]
    fn architectures_have_different_param_counts() {
        let counts: Vec<usize> = ARCHS
            .iter()
            .map(|&arch| build_model(arch, (3, 32, 32), 16, 10, 1).param_count())
            .collect();
        // Genuine heterogeneity: the four paper archs differ pairwise.
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(counts[i], counts[j], "{:?} vs {:?}", ARCHS[i], ARCHS[j]);
            }
        }
    }

    #[test]
    fn proto_variants_differ_in_width_not_feature_dim() {
        let mut a = build_model(
            ModelArch::ProtoCnn { width_variant: 0 },
            (1, 28, 28),
            16,
            10,
            1,
        );
        let mut b = build_model(
            ModelArch::ProtoCnn { width_variant: 2 },
            (1, 28, 28),
            16,
            10,
            1,
        );
        assert_ne!(a.param_count(), b.param_count());
        assert_eq!(a.feature_dim(), b.feature_dim());
    }

    #[test]
    fn classifier_shapes_are_shared_across_archs() {
        let dims: Vec<_> = ARCHS
            .iter()
            .map(|&arch| {
                let m = build_model(arch, (3, 32, 32), 24, 10, 1);
                (m.classifier.feature_dim(), m.classifier.num_classes())
            })
            .collect();
        assert!(dims.iter().all(|&d| d == (24, 10)));
    }
}
