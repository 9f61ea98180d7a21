//! [`ClientModel`]: the `f_k = C_k ∘ F_k` decomposition every algorithm in
//! the reproduction operates on.

use crate::classifier::Classifier;
use fca_nn::module::Module;
use fca_nn::structure::Sequential;
use fca_tensor::rng::SnapRng;
use fca_tensor::serialize::encoded_len;
use fca_tensor::{Tensor, Workspace};

/// The architecture families of the zoo (paper §4.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelArch {
    /// Residual-block CNN (ResNet-18 idiom).
    MicroResNet,
    /// Grouped-conv + channel-shuffle CNN (ShuffleNetV2 idiom).
    MicroShuffleNet,
    /// Multi-branch inception CNN (GoogLeNet idiom).
    MicroGoogLeNet,
    /// Plain deep conv stack with dropout (AlexNet idiom).
    MicroAlexNet,
    /// The two-conv CNN of the FedAvg paper (homogeneous experiments).
    CnnFedAvg,
    /// FedProto's width-varied two-conv CNN; `width_variant` perturbs the
    /// channel counts so clients are "less heterogeneous" as in the paper.
    ProtoCnn {
        /// Channel-width variant index (0–3 in the paper's scheme).
        width_variant: usize,
    },
}

impl ModelArch {
    /// The paper's four-architecture rotation: clients `0,4,8,…` get
    /// ResNet, `1,5,9,…` ShuffleNet, `2,6,10,…` GoogLeNet, `3,7,11,…`
    /// AlexNet (matches the client→backbone map under Figure 9).
    pub fn heterogeneous_rotation(client_id: usize) -> ModelArch {
        match client_id % 4 {
            0 => ModelArch::MicroResNet,
            1 => ModelArch::MicroShuffleNet,
            2 => ModelArch::MicroGoogLeNet,
            _ => ModelArch::MicroAlexNet,
        }
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            ModelArch::MicroResNet => "MicroResNet",
            ModelArch::MicroShuffleNet => "MicroShuffleNet",
            ModelArch::MicroGoogLeNet => "MicroGoogLeNet",
            ModelArch::MicroAlexNet => "MicroAlexNet",
            ModelArch::CnnFedAvg => "CnnFedAvg",
            ModelArch::ProtoCnn { .. } => "ProtoCnn",
        }
    }
}

/// A client model: feature extractor `F_k` + classifier `C_k`.
pub struct ClientModel {
    /// Architecture family.
    pub arch: ModelArch,
    /// The feature extractor (backbone + FC to `feature_dim`).
    pub feature_extractor: Sequential,
    /// The shared-shape classifier head.
    pub classifier: Classifier,
    feature_dim: usize,
}

impl ClientModel {
    /// Assemble a model from its parts (used by the zoo builders).
    pub fn new(arch: ModelArch, feature_extractor: Sequential, classifier: Classifier) -> Self {
        let feature_dim = classifier.feature_dim();
        ClientModel {
            arch,
            feature_extractor,
            classifier,
            feature_dim,
        }
    }

    /// Shared feature dimension.
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.classifier.num_classes()
    }

    /// Forward through the extractor only.
    pub fn forward_features(&mut self, x: &Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        let f = self.feature_extractor.forward(x, train, ws);
        assert_eq!(
            f.dims()[1],
            self.feature_dim,
            "extractor produced {} dims, classifier expects {}",
            f.dims()[1],
            self.feature_dim
        );
        f
    }

    /// Full forward: `(features, logits)`.
    pub fn forward(&mut self, x: &Tensor, train: bool, ws: &mut Workspace) -> (Tensor, Tensor) {
        let features = self.forward_features(x, train, ws);
        let logits = self.classifier.forward(&features, train, ws);
        (features, logits)
    }

    /// Inference pass returning logits only (eval mode, still caches —
    /// use for evaluation loops where gradients are discarded).
    pub fn predict(&mut self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        let features = self.feature_extractor.forward(x, false, ws);
        let logits = self.classifier.forward_inference(&features, ws);
        ws.recycle(features);
        logits
    }

    /// Backward for the composite loss: `grad_logits` flows through the
    /// classifier into the features; `grad_features_extra` (e.g. from the
    /// contrastive loss) is added before the extractor backward.
    pub fn backward(
        &mut self,
        grad_features_extra: Option<&Tensor>,
        grad_logits: &Tensor,
        ws: &mut Workspace,
    ) {
        let mut d_feat = self.classifier.backward(grad_logits, ws);
        if let Some(extra) = grad_features_extra {
            d_feat.add_assign(extra);
        }
        // Nothing reads the image gradient: the stem skips its product.
        self.feature_extractor.backward_params(&d_feat, ws);
        ws.recycle(d_feat);
    }

    /// Backward when only a feature-space loss is present (no logits path).
    pub fn backward_features_only(&mut self, grad_features: &Tensor, ws: &mut Workspace) {
        self.feature_extractor.backward_params(grad_features, ws);
    }

    /// All trainable parameters: extractor first, then classifier.
    pub fn params_mut(&mut self) -> Vec<&mut fca_nn::Param> {
        let mut p = self.feature_extractor.params_mut();
        p.extend(self.classifier.params_mut());
        p
    }

    /// Zero all gradients.
    pub fn zero_grad(&mut self) {
        self.feature_extractor.zero_grad();
        self.classifier.zero_grad();
    }

    /// Total trainable scalar count.
    pub fn param_count(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.numel()).sum()
    }

    /// Model-owned random generators (dropout masks in the extractor), in
    /// stable order — their positions travel in a client's paging blob.
    pub fn rng_slots(&mut self) -> Vec<&mut SnapRng> {
        self.feature_extractor.rng_slots()
    }

    /// Full state snapshot (params + buffers): a copy of every tensor
    /// [`ClientModel::try_for_each_state`] visits, in its order. What a
    /// server is seeded from; the wire and the pager go through the visitor
    /// and copy nothing.
    pub fn full_state(&mut self) -> Vec<Tensor> {
        let mut state = Vec::new();
        let _ = self.try_for_each_state(|t| {
            state.push(t.clone());
            Ok::<(), std::convert::Infallible>(())
        });
        state
    }

    /// `(tensor count, summed wire-encoded size)` of the state
    /// [`ClientModel::try_for_each_state`] visits: what a writer needs to
    /// size its buffer and its count field before it encodes from the
    /// tensors.
    pub fn state_extent(&mut self) -> (usize, usize) {
        let (mut count, mut len) = (0, 0);
        let _ = self.try_for_each_state(|t| {
            count += 1;
            len += encoded_len(t);
            Ok::<(), std::convert::Infallible>(())
        });
        (count, len)
    }

    /// Visit every state tensor where it lives (extractor parameters,
    /// extractor buffers, classifier weight and bias), stopping at the
    /// first error. A client snapshot and a full-model wire frame are
    /// written from and read back into the tensors through this, with no
    /// clone between — and with every shape that came from outside held
    /// against the tensor's own, so a foreign state is an `Err`, not an
    /// assertion.
    pub fn try_for_each_state<E>(
        &mut self,
        mut f: impl FnMut(&mut Tensor) -> Result<(), E>,
    ) -> Result<(), E> {
        for p in self.feature_extractor.params_mut() {
            f(&mut p.value)?;
        }
        for b in self.feature_extractor.buffers_mut() {
            f(b)?;
        }
        for p in self.classifier.params_mut() {
            f(&mut p.value)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fca_nn::activation::Relu;
    use fca_nn::linear::Linear;
    use fca_nn::structure::Flatten;
    use fca_tensor::rng::seeded_rng;

    fn tiny_model(seed: u64) -> ClientModel {
        let mut rng = seeded_rng(seed);
        let fe = Sequential::new()
            .push(Flatten::new())
            .push(Linear::new(16, 8, &mut rng))
            .push(Relu::new());
        let cls = Classifier::new(8, 3, &mut rng);
        ClientModel::new(ModelArch::CnnFedAvg, fe, cls)
    }

    #[test]
    fn rotation_covers_four_archs() {
        let archs: Vec<_> = (0..8).map(ModelArch::heterogeneous_rotation).collect();
        assert_eq!(archs[0], ModelArch::MicroResNet);
        assert_eq!(archs[1], ModelArch::MicroShuffleNet);
        assert_eq!(archs[2], ModelArch::MicroGoogLeNet);
        assert_eq!(archs[3], ModelArch::MicroAlexNet);
        assert_eq!(archs[4], ModelArch::MicroResNet);
    }

    #[test]
    fn forward_shapes() {
        let mut m = tiny_model(411);
        let mut rng = seeded_rng(412);
        let mut ws = Workspace::new();
        let x = Tensor::randn([5, 1, 4, 4], 1.0, &mut rng);
        let (f, l) = m.forward(&x, true, &mut ws);
        assert_eq!(f.dims(), &[5, 8]);
        assert_eq!(l.dims(), &[5, 3]);
    }

    #[test]
    fn full_state_roundtrip() {
        let mut a = tiny_model(413);
        let mut b = tiny_model(414);
        let mut rng = seeded_rng(415);
        let mut ws = Workspace::new();
        let x = Tensor::randn([2, 1, 4, 4], 1.0, &mut rng);
        let mut state = a.full_state().into_iter();
        b.try_for_each_state(|t| {
            *t = state.next().ok_or("state too short")?;
            Ok::<(), &str>(())
        })
        .expect("twin architectures");
        let ya = a.predict(&x, &mut ws);
        let yb = b.predict(&x, &mut ws);
        assert_eq!(ya, yb);
    }

    #[test]
    fn state_visitor_walks_full_state_order_in_place() {
        let mut m = tiny_model(419);
        let expect = m.full_state();
        let mut seen = Vec::new();
        m.try_for_each_state(|t| {
            seen.push(t.clone());
            t.fill(0.5);
            Ok::<(), ()>(())
        })
        .expect("infallible visitor");
        assert_eq!(seen, expect);
        assert!(m
            .full_state()
            .iter()
            .all(|t| t.data().iter().all(|&v| v == 0.5)));
        // The first error stops the walk.
        let mut visited = 0;
        let stopped = m.try_for_each_state(|_| {
            visited += 1;
            Err("stop")
        });
        assert_eq!((stopped, visited), (Err("stop"), 1));
    }

    #[test]
    fn backward_accumulates_into_both_parts() {
        let mut m = tiny_model(416);
        let mut rng = seeded_rng(417);
        let mut ws = Workspace::new();
        let x = Tensor::randn([3, 1, 4, 4], 1.0, &mut rng);
        m.zero_grad();
        let (f, l) = m.forward(&x, true, &mut ws);
        let gl = Tensor::ones([3, 3]);
        let gf = Tensor::ones([3, 8]);
        m.backward(Some(&gf), &gl, &mut ws);
        assert!(m.params_mut().iter().any(|p| p.grad.max_abs() > 0.0));
        let _ = (f, l);
    }

    #[test]
    fn param_count_positive() {
        let mut m = tiny_model(418);
        assert_eq!(m.param_count(), 16 * 8 + 8 + 8 * 3 + 3);
    }
}
