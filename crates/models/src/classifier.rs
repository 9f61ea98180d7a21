//! The shared classifier head `C_k`: one fully connected layer whose
//! `(weight, bias)` pair is what FedClassAvg exchanges each round.

use fca_nn::linear::Linear;
use fca_nn::module::Module;
use fca_tensor::rng::SnapRng;
use fca_tensor::{Tensor, Workspace};

/// Classifier weights as a plain value pair — the unit of aggregation and
/// the payload that crosses the wire.
#[derive(Clone, Debug, PartialEq)]
pub struct ClassifierWeights {
    /// Weight matrix, `(num_classes, feature_dim)`.
    pub weight: Tensor,
    /// Bias vector, `(num_classes,)`.
    pub bias: Tensor,
}

impl ClassifierWeights {
    /// Zero-initialized weights of the given geometry.
    pub fn zeros(feature_dim: usize, num_classes: usize) -> Self {
        ClassifierWeights {
            weight: Tensor::zeros([num_classes, feature_dim]),
            bias: Tensor::zeros([num_classes]),
        }
    }

    /// `self += alpha · other` (weighted averaging accumulator).
    pub fn axpy(&mut self, alpha: f32, other: &ClassifierWeights) {
        self.weight.axpy(alpha, &other.weight);
        self.bias.axpy(alpha, &other.bias);
    }

    /// Scalar count (Table 5: `512 × 10` weights plus bias).
    pub fn numel(&self) -> usize {
        self.weight.numel() + self.bias.numel()
    }

    /// L2 distance to another weight set (the proximal term's argument).
    pub fn l2_distance(&self, other: &ClassifierWeights) -> f32 {
        let dw = self.weight.sub(&other.weight).sq_norm();
        let db = self.bias.sub(&other.bias).sq_norm();
        (dw + db).sqrt()
    }
}

/// The classifier layer: a [`Linear`] with weight import/export.
pub struct Classifier {
    linear: Linear,
}

impl Classifier {
    /// New classifier head.
    pub fn new(feature_dim: usize, num_classes: usize, rng: &mut SnapRng) -> Self {
        Classifier {
            linear: Linear::new(feature_dim, num_classes, rng),
        }
    }

    /// Feature dimension this head expects.
    pub fn feature_dim(&self) -> usize {
        self.linear.in_features()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.linear.out_features()
    }

    /// Snapshot the weights.
    pub fn weights(&self) -> ClassifierWeights {
        ClassifierWeights {
            weight: self.linear.weight.value.clone(),
            bias: self.linear.bias.value.clone(),
        }
    }

    /// Overwrite the weights (server → client broadcast).
    pub fn set_weights(&mut self, w: &ClassifierWeights) {
        assert_eq!(
            self.linear.weight.value.dims(),
            w.weight.dims(),
            "classifier shape mismatch"
        );
        assert_eq!(
            self.linear.bias.value.dims(),
            w.bias.dims(),
            "classifier bias shape mismatch"
        );
        self.linear.weight.value = w.weight.clone();
        self.linear.bias.value = w.bias.clone();
    }

    /// Forward producing logits (training mode caches for backward).
    pub fn forward(&mut self, features: &Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        self.linear.forward(features, train, ws)
    }

    /// Inference-only forward (no caching).
    pub fn forward_inference(&self, features: &Tensor, ws: &mut Workspace) -> Tensor {
        self.linear.forward_inference(features, ws)
    }

    /// Backward: accumulate classifier grads, return `∂L/∂features`.
    pub fn backward(&mut self, grad_logits: &Tensor, ws: &mut Workspace) -> Tensor {
        self.linear.backward(grad_logits, ws)
    }

    /// Add the proximal-regularizer gradient `ρ · ∂‖C_k − C‖₂/∂C_k`
    /// directly onto the classifier's accumulated gradients. Returns the
    /// (unweighted) L2 distance.
    pub fn accumulate_proximal(&mut self, global: &ClassifierWeights, rho: f32) -> f32 {
        let dw = self.linear.weight.value.sub(&global.weight);
        let db = self.linear.bias.value.sub(&global.bias);
        let norm = (dw.sq_norm() + db.sq_norm()).sqrt();
        if norm > 1e-12 {
            self.linear.weight.grad.axpy(rho / norm, &dw);
            self.linear.bias.grad.axpy(rho / norm, &db);
        }
        norm
    }

    /// Trainable parameters (stable order: weight, bias).
    pub fn params_mut(&mut self) -> Vec<&mut fca_nn::Param> {
        self.linear.params_mut()
    }

    /// Zero the gradients.
    pub fn zero_grad(&mut self) {
        self.linear.zero_grad();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fca_tensor::rng::seeded_rng;

    #[test]
    fn weights_roundtrip() {
        let mut rng = seeded_rng(401);
        let a = Classifier::new(8, 4, &mut rng);
        let mut b = Classifier::new(8, 4, &mut rng);
        let w = a.weights();
        b.set_weights(&w);
        assert_eq!(b.weights(), w);
    }

    #[test]
    fn axpy_averages() {
        let mut acc = ClassifierWeights::zeros(2, 2);
        let mut rng = seeded_rng(402);
        let a = Classifier::new(2, 2, &mut rng).weights();
        let b = Classifier::new(2, 2, &mut rng).weights();
        acc.axpy(0.5, &a);
        acc.axpy(0.5, &b);
        let expect = a.weight.add(&b.weight).scaled(0.5);
        for (x, y) in acc.weight.data().iter().zip(expect.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn numel_matches_paper_formula() {
        // Paper: 512-dim features, 10 classes → 512·10 + 10 scalars.
        let w = ClassifierWeights::zeros(512, 10);
        assert_eq!(w.numel(), 5130);
    }

    #[test]
    fn proximal_gradient_points_toward_global() {
        let mut rng = seeded_rng(403);
        let mut c = Classifier::new(3, 2, &mut rng);
        let global = ClassifierWeights::zeros(3, 2);
        c.zero_grad();
        let dist = c.accumulate_proximal(&global, 1.0);
        assert!(dist > 0.0);
        // Gradient of ‖w−0‖ is w/‖w‖: same sign as w.
        let w = c.weights();
        let params = c.params_mut();
        for (g, v) in params[0].grad.data().iter().zip(w.weight.data()) {
            assert!(g * v >= 0.0, "grad {g} and weight {v} disagree in sign");
        }
    }

    #[test]
    fn proximal_zero_at_global() {
        let mut rng = seeded_rng(404);
        let mut c = Classifier::new(3, 2, &mut rng);
        let w = c.weights();
        c.zero_grad();
        let dist = c.accumulate_proximal(&w, 0.5);
        assert_eq!(dist, 0.0);
        assert!(c.params_mut().iter().all(|p| p.grad.max_abs() == 0.0));
    }

    #[test]
    fn l2_distance_symmetric() {
        let mut rng = seeded_rng(405);
        let a = Classifier::new(4, 3, &mut rng).weights();
        let b = Classifier::new(4, 3, &mut rng).weights();
        assert!((a.l2_distance(&b) - b.l2_distance(&a)).abs() < 1e-6);
        assert_eq!(a.l2_distance(&a), 0.0);
    }
}
