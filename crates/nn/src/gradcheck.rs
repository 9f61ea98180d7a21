//! Numeric gradient checking for whole modules.
//!
//! Used by this crate's own tests and by `fca-models` to validate that the
//! composed architectures backpropagate correctly end to end.

use crate::module::Module;
use fca_tensor::{Tensor, Workspace};

/// Result of a gradient check: worst relative error observed.
#[derive(Debug, Clone, Copy)]
pub struct GradCheckReport {
    /// Worst `|fd − analytic| / (1 + |fd|)` across checked coordinates.
    pub max_rel_err: f32,
    /// Number of coordinates checked.
    pub checked: usize,
    /// Coordinates skipped because the objective was locally non-smooth
    /// (e.g. a perturbation crossed a ReLU kink or a max-pool argmax flip).
    pub skipped_nonsmooth: usize,
}

/// Finite difference at `orig`: `Some(fd)` where the objective is locally
/// smooth, `None` at kinks. Two tests, one tolerance: the central
/// differences at `h` and `h/2` must agree (a kink *near* the point), and so
/// must the two one-sided slopes at `h/2` (a kink *at* the point, which
/// every central difference reads as the mean of the two slopes and so
/// cannot see).
fn stable_fd(f: &mut dyn FnMut(f32) -> f32, orig: f32, h: f32) -> Option<f32> {
    let half = h / 2.0;
    let fd1 = (f(orig + h) - f(orig - h)) / (2.0 * h);
    let (above, at, below) = (f(orig + half), f(orig), f(orig - half));
    let fd2 = (above - below) / h;
    let (right, left) = ((above - at) / half, (at - below) / half);
    let tol = 0.05 * (1.0 + fd2.abs());
    ((fd1 - fd2).abs() <= tol && (right - left).abs() <= tol).then_some(fd2)
}

/// Check `∂L/∂θ` of `module` against central finite differences, where
/// `L(x) = Σ (module(x) ⊙ probe)` for a fixed random-looking probe.
///
/// Only every `stride`-th parameter coordinate is checked to keep large
/// models affordable. Forward passes run in training mode, so modules with
/// batch statistics are exercised on their training path; modules with
/// stochastic behaviour (dropout) must be checked with dropout disabled.
pub fn check_param_gradients(
    module: &mut dyn Module,
    x: &Tensor,
    probe: &Tensor,
    h: f32,
    stride: usize,
) -> GradCheckReport {
    // Analytic pass.
    let mut ws = Workspace::new();
    module.zero_grad();
    let y = module.forward(x, true, &mut ws);
    assert_eq!(
        y.dims(),
        probe.dims(),
        "probe must match module output shape"
    );
    let _ = module.backward(probe, &mut ws);
    let analytic: Vec<Tensor> = module.params_mut().iter().map(|p| p.grad.clone()).collect();

    let loss = |m: &mut dyn Module, x: &Tensor, ws: &mut Workspace| -> f32 {
        let y = m.forward(x, true, ws);
        let l: f32 = y.data().iter().zip(probe.data()).map(|(a, b)| a * b).sum();
        ws.recycle(y);
        l
    };

    let mut max_rel_err = 0.0f32;
    let mut checked = 0usize;
    let mut skipped_nonsmooth = 0usize;
    let n_params = module.params_mut().len();
    #[expect(
        clippy::needless_range_loop,
        reason = "`pi` also addresses the module's parameters"
    )]
    for pi in 0..n_params {
        let numel = module.params_mut()[pi].value.numel();
        for ci in (0..numel).step_by(stride.max(1)) {
            let orig = module.params_mut()[pi].value.at(ci);
            let mut eval = |v: f32| {
                module.params_mut()[pi].value.data_mut()[ci] = v;
                let l = loss(module, x, &mut ws);
                module.params_mut()[pi].value.data_mut()[ci] = orig;
                l
            };
            match stable_fd(&mut eval, orig, h) {
                Some(fd) => {
                    let an = analytic[pi].at(ci);
                    let rel = (fd - an).abs() / (1.0 + fd.abs());
                    max_rel_err = max_rel_err.max(rel);
                    checked += 1;
                }
                None => skipped_nonsmooth += 1,
            }
        }
    }
    GradCheckReport {
        max_rel_err,
        checked,
        skipped_nonsmooth,
    }
}

/// Check `∂L/∂x` of `module` against central finite differences, same
/// objective as [`check_param_gradients`].
pub fn check_input_gradient(
    module: &mut dyn Module,
    x: &Tensor,
    probe: &Tensor,
    h: f32,
    stride: usize,
) -> GradCheckReport {
    let mut ws = Workspace::new();
    module.zero_grad();
    let y = module.forward(x, true, &mut ws);
    assert_eq!(
        y.dims(),
        probe.dims(),
        "probe must match module output shape"
    );
    let dx = module.backward(probe, &mut ws);

    let loss = |m: &mut dyn Module, x: &Tensor, ws: &mut Workspace| -> f32 {
        let y = m.forward(x, true, ws);
        let l: f32 = y.data().iter().zip(probe.data()).map(|(a, b)| a * b).sum();
        ws.recycle(y);
        l
    };

    let mut max_rel_err = 0.0f32;
    let mut checked = 0usize;
    let mut skipped_nonsmooth = 0usize;
    for ci in (0..x.numel()).step_by(stride.max(1)) {
        let orig = x.at(ci);
        let mut eval = |v: f32| {
            let mut xv = x.clone();
            xv.data_mut()[ci] = v;
            loss(module, &xv, &mut ws)
        };
        match stable_fd(&mut eval, orig, h) {
            Some(fd) => {
                let an = dx.at(ci);
                let rel = (fd - an).abs() / (1.0 + fd.abs());
                max_rel_err = max_rel_err.max(rel);
                checked += 1;
            }
            None => skipped_nonsmooth += 1,
        }
    }
    GradCheckReport {
        max_rel_err,
        checked,
        skipped_nonsmooth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use crate::conv::Conv2d;
    use crate::linear::Linear;
    use crate::norm::BatchNorm2d;
    use crate::pool::{GlobalAvgPool, MaxPool2d};
    use crate::structure::{Flatten, Residual, Sequential};
    use fca_tensor::rng::{seeded_rng, SnapRng};

    #[test]
    fn mlp_gradients_check_out() {
        let mut rng = seeded_rng(121);
        let mut mlp = Sequential::new()
            .push(Linear::new(6, 10, &mut rng))
            .push(Relu::new())
            .push(Linear::new(10, 4, &mut rng));
        let x = Tensor::randn([3, 6], 1.0, &mut rng);
        let probe = Tensor::randn([3, 4], 1.0, &mut rng);
        let rep = check_param_gradients(&mut mlp, &x, &probe, 1e-2, 1);
        assert!(rep.max_rel_err < 3e-2, "param grad err {}", rep.max_rel_err);
        let rep = check_input_gradient(&mut mlp, &x, &probe, 1e-2, 1);
        assert!(rep.max_rel_err < 3e-2, "input grad err {}", rep.max_rel_err);
    }

    fn small_cnn(rng: &mut SnapRng) -> Sequential {
        Sequential::new()
            .push(Conv2d::basic(1, 4, 3, 1, 1, rng))
            .push(BatchNorm2d::new(4))
            .push(Relu::new())
            .push(MaxPool2d::new(2, 2))
            .push(Flatten::new())
            .push(Linear::new(4 * 3 * 3, 2, rng))
    }

    #[test]
    fn small_cnn_gradients_check_out() {
        let mut rng = seeded_rng(122);
        let mut cnn = small_cnn(&mut rng);
        let x = Tensor::randn([2, 1, 6, 6], 1.0, &mut rng);
        let probe = Tensor::randn([2, 2], 1.0, &mut rng);
        let rep = check_param_gradients(&mut cnn, &x, &probe, 1e-2, 3);
        assert!(rep.max_rel_err < 5e-2, "param grad err {}", rep.max_rel_err);
        assert!(rep.checked > 20);
    }

    /// A module whose backward reports its first parameter's gradient 1.2×
    /// too large: the defect the check exists to catch.
    struct OverstatedGrad(Sequential);

    impl Module for OverstatedGrad {
        fn forward(&mut self, x: &Tensor, train: bool, ws: &mut Workspace) -> Tensor {
            self.0.forward(x, train, ws)
        }

        fn backward(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
            let dx = self.0.backward(grad_out, ws);
            for g in self.0.params_mut()[0].grad.data_mut() {
                *g *= 1.2;
            }
            dx
        }

        fn params_mut(&mut self) -> Vec<&mut crate::module::Param> {
            self.0.params_mut()
        }
    }

    #[test]
    fn a_wrong_gradient_fails_the_check() {
        // The network, input and bound of the test above; only the backward
        // differs. Skipping kinks must not have blinded the check.
        let mut rng = seeded_rng(122);
        let mut wrong = OverstatedGrad(small_cnn(&mut rng));
        let x = Tensor::randn([2, 1, 6, 6], 1.0, &mut rng);
        let probe = Tensor::randn([2, 2], 1.0, &mut rng);
        let rep = check_param_gradients(&mut wrong, &x, &probe, 1e-2, 3);
        assert!(
            rep.max_rel_err > 5e-2,
            "a 1.2× conv-weight gradient passed: {rep:?}"
        );
        assert!(rep.checked > 20);
    }

    #[test]
    fn residual_block_gradients_check_out() {
        let mut rng = seeded_rng(123);
        let body = Sequential::new()
            .push(Conv2d::basic(3, 3, 3, 1, 1, &mut rng))
            .push(Relu::new())
            .push(Conv2d::basic(3, 3, 3, 1, 1, &mut rng));
        let mut block = Sequential::new()
            .push(Residual::identity(body))
            .push(GlobalAvgPool::new());
        let x = Tensor::randn([2, 3, 5, 5], 1.0, &mut rng);
        let probe = Tensor::randn([2, 3], 1.0, &mut rng);
        let rep = check_param_gradients(&mut block, &x, &probe, 1e-2, 5);
        assert!(rep.max_rel_err < 5e-2, "param grad err {}", rep.max_rel_err);
        let rep = check_input_gradient(&mut block, &x, &probe, 1e-2, 3);
        assert!(rep.max_rel_err < 5e-2, "input grad err {}", rep.max_rel_err);
    }
}
