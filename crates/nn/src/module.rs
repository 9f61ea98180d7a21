//! The [`Module`] trait and [`Param`] type: the backprop contract every
//! layer implements.

use fca_tensor::rng::SnapRng;
use fca_tensor::{Tensor, Workspace};

/// A trainable parameter: a value tensor plus its accumulated gradient.
#[derive(Clone, Debug)]
pub struct Param {
    /// Human-readable name, used in state dicts and diagnostics.
    pub name: String,
    /// Current parameter values.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
}

impl Param {
    /// Create a parameter with a zeroed gradient.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape().clone());
        Param {
            name: name.into(),
            value,
            grad,
        }
    }

    /// Zero the gradient in place.
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }

    /// Number of scalar parameters.
    pub fn numel(&self) -> usize {
        self.value.numel()
    }
}

/// A neural-network layer (or composite of layers) with manual backprop.
///
/// Contract:
/// * `forward` must cache whatever `backward` needs; calling `backward`
///   without a preceding `forward` on the same batch is a logic error.
/// * `backward` receives `∂L/∂output`, **accumulates** `∂L/∂θ` into each
///   parameter's `grad`, and returns `∂L/∂input`.
/// * Both passes draw output tensors and scratch from the caller's
///   [`Workspace`] instead of allocating. Forward/backward of the same
///   batch must see the **same** workspace (persistent slots carry caches
///   between the two), and a layer's slot contents are only valid until
///   its next forward. Tensors a layer *returns* are pool-backed: the
///   caller owns them and should [`Workspace::recycle`] them once
///   consumed so the steady state allocates nothing.
/// * `params_mut` returns parameters in a stable order (optimizer state is
///   keyed positionally).
/// * `buffers_mut` exposes non-trainable state (e.g. batch-norm running
///   statistics) so federated weight averaging can include it.
pub trait Module: Send {
    /// Run the layer. `train` selects training-time behaviour
    /// (batch statistics, dropout masks).
    fn forward(&mut self, x: &Tensor, train: bool, ws: &mut Workspace) -> Tensor;

    /// Backpropagate: accumulate parameter gradients, return input gradient.
    fn backward(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor;

    /// Backpropagate where nothing reads the input gradient (the first
    /// layer of a model): accumulate the parameter gradients `backward`
    /// would, bit for bit. The default runs `backward` and recycles what it
    /// returns; a layer whose input gradient costs work of its own (a
    /// convolution's product) skips it.
    fn backward_params(&mut self, grad_out: &Tensor, ws: &mut Workspace) {
        let dx = self.backward(grad_out, ws);
        ws.recycle(dx);
    }

    /// All trainable parameters, in stable order.
    fn params_mut(&mut self) -> Vec<&mut Param>;

    /// Non-trainable state tensors (running stats), in stable order.
    fn buffers_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    /// Layer-owned random generators (dropout masks), in stable order.
    ///
    /// These are deliberately *not* buffers: buffers participate in
    /// federated weight averaging, while RNG positions are snapshot state
    /// that must travel bit-exactly when a client is paged out and back in.
    fn rng_slots(&mut self) -> Vec<&mut SnapRng> {
        Vec::new()
    }

    /// Zero all parameter gradients.
    fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Total trainable scalar count.
    fn param_count(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.numel()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::Linear;
    use fca_tensor::rng::seeded_rng;

    #[test]
    fn param_zero_grad() {
        let mut p = Param::new("w", Tensor::ones([2, 2]));
        p.grad = Tensor::ones([2, 2]);
        p.zero_grad();
        assert!(p.grad.data().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn param_count_counts_scalars() {
        let mut rng = seeded_rng(7);
        let mut a = Linear::new(4, 3, &mut rng);
        assert_eq!(a.param_count(), 4 * 3 + 3);
    }
}
