//! Pointwise activations: ReLU and (inverted) dropout.

use crate::module::{Module, Param};
use fca_tensor::rng::SnapRng;
use fca_tensor::{Tensor, Workspace};

/// Rectified linear unit.
pub struct Relu {
    mask: Vec<bool>,
}

impl Relu {
    /// New ReLU.
    pub fn new() -> Self {
        Relu { mask: Vec::new() }
    }
}

impl Default for Relu {
    fn default() -> Self {
        Self::new()
    }
}

impl Module for Relu {
    fn forward(&mut self, x: &Tensor, _train: bool, ws: &mut Workspace) -> Tensor {
        self.mask.clear();
        self.mask.extend(x.data().iter().map(|&v| v > 0.0));
        let mut y = ws.tensor(x.shape().clone());
        for (yi, &xi) in y.data_mut().iter_mut().zip(x.data()) {
            *yi = xi.max(0.0);
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        assert_eq!(
            grad_out.numel(),
            self.mask.len(),
            "backward before forward on Relu"
        );
        let mut g = ws.tensor(grad_out.shape().clone());
        for ((gi, &go), &m) in g.data_mut().iter_mut().zip(grad_out.data()).zip(&self.mask) {
            *gi = if m { go } else { 0.0 };
        }
        g
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }
}

/// Inverted dropout: at train time zeroes each activation with probability
/// `p` and scales survivors by `1/(1-p)`; identity at eval time.
///
/// The layer owns a seeded generator so training stays deterministic even
/// when clients train on worker threads; its position is exposed via
/// [`Module::rng_slots`] and survives a page-out → page-in cycle of the
/// owning client.
pub struct Dropout {
    p: f32,
    rng: SnapRng,
    mask: Vec<f32>,
}

impl Dropout {
    /// New dropout layer with drop probability `p ∈ [0, 1)`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0,1), got {p}"
        );
        Dropout {
            p,
            rng: SnapRng::seed_from(seed),
            mask: Vec::new(),
        }
    }
}

impl Module for Dropout {
    fn forward(&mut self, x: &Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        if !train || self.p == 0.0 {
            self.mask.clear();
            self.mask.resize(x.numel(), 1.0);
            return ws.tensor_like(x);
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        self.mask.clear();
        self.mask.extend((0..x.numel()).map(|_| {
            if self.rng.unit_f32() < keep {
                scale
            } else {
                0.0
            }
        }));
        let mut y = ws.tensor(x.shape().clone());
        for ((yi, &xi), &m) in y.data_mut().iter_mut().zip(x.data()).zip(&self.mask) {
            *yi = xi * m;
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        assert_eq!(
            grad_out.numel(),
            self.mask.len(),
            "backward before forward on Dropout"
        );
        let mut g = ws.tensor(grad_out.shape().clone());
        for ((gi, &go), &m) in g.data_mut().iter_mut().zip(grad_out.data()).zip(&self.mask) {
            *gi = go * m;
        }
        g
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn rng_slots(&mut self) -> Vec<&mut SnapRng> {
        vec![&mut self.rng]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fca_tensor::rng::seeded_rng;

    #[test]
    fn relu_clamps_and_masks_gradient() {
        let mut ws = Workspace::new();
        let mut relu = Relu::new();
        let x = Tensor::from_vec([1, 4], vec![-1.0, 0.0, 2.0, -3.0]);
        let y = relu.forward(&x, true, &mut ws);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
        let g = relu.backward(&Tensor::ones([1, 4]), &mut ws);
        assert_eq!(g.data(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn dropout_eval_is_identity() {
        let mut ws = Workspace::new();
        let mut d = Dropout::new(0.5, 1);
        let mut rng = seeded_rng(71);
        let x = Tensor::randn([4, 8], 1.0, &mut rng);
        let y = d.forward(&x, false, &mut ws);
        assert_eq!(x, y);
    }

    #[test]
    fn dropout_train_preserves_expectation() {
        let mut ws = Workspace::new();
        let mut d = Dropout::new(0.3, 2);
        let x = Tensor::ones([100, 100]);
        let y = d.forward(&x, true, &mut ws);
        // E[y] = 1; with 10k samples the mean should be within a few percent.
        assert!((y.mean() - 1.0).abs() < 0.05, "mean {}", y.mean());
        // Survivors are exactly scaled by 1/keep.
        let keep = 0.7f32;
        assert!(y
            .data()
            .iter()
            .all(|&v| v == 0.0 || (v - 1.0 / keep).abs() < 1e-6));
    }

    #[test]
    fn dropout_backward_uses_same_mask() {
        let mut ws = Workspace::new();
        let mut d = Dropout::new(0.5, 3);
        let x = Tensor::ones([1, 64]);
        let y = d.forward(&x, true, &mut ws);
        let g = d.backward(&Tensor::ones([1, 64]), &mut ws);
        assert_eq!(y.data(), g.data());
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn dropout_rejects_p_one() {
        Dropout::new(1.0, 0);
    }

    #[test]
    fn dropout_rng_position_roundtrips_through_rng_slots() {
        let mut ws = Workspace::new();
        let x = Tensor::ones([1, 64]);
        let mut d = Dropout::new(0.5, 9);
        for _ in 0..3 {
            d.forward(&x, true, &mut ws);
        }
        let pos = d.rng_slots()[0].state();
        let expected: Vec<f32> = d.forward(&x, true, &mut ws).data().to_vec();
        let mut twin = Dropout::new(0.5, 9);
        *twin.rng_slots()[0] = SnapRng::try_from_state(pos).expect("a live position");
        let got: Vec<f32> = twin.forward(&x, true, &mut ws).data().to_vec();
        assert_eq!(expected, got, "restored dropout drew a different mask");
    }
}
