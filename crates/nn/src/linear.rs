//! Fully connected layer.

use crate::init::kaiming_normal;
use crate::module::{Module, Param};
use fca_tensor::linalg::{gemm, Layout};
use fca_tensor::ops::add_bias_rows;
use fca_tensor::rng::SnapRng;
use fca_tensor::{SlotId, Tensor, Workspace};
use fca_trace::OpId;

/// `y = x·Wᵀ + b` with `W: (out, in)`, operating on `(batch, in)` inputs.
///
/// The classifier layer `C_k` of every FedClassAvg client is a single
/// `Linear`, and its `(W, b)` pair is exactly what crosses the wire each
/// communication round.
///
/// The input is cached by copying into a workspace slot (no clone), and
/// backward runs its GEMMs directly into the parameter gradients.
pub struct Linear {
    /// Weight, shape `(out_features, in_features)`.
    pub weight: Param,
    /// Bias, shape `(out_features,)`.
    pub bias: Param,
    /// Input cache, copied here by forward for backward.
    in_slot: SlotId,
    /// Row count of the last cached input (0 before any forward).
    cached_rows: usize,
}

impl Linear {
    /// New layer with Kaiming-normal weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut SnapRng) -> Self {
        Linear {
            weight: Param::new(
                "linear.weight",
                kaiming_normal([out_features, in_features], in_features, rng),
            ),
            bias: Param::new("linear.bias", Tensor::zeros([out_features])),
            in_slot: SlotId::fresh(),
            cached_rows: 0,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.value.dims()[1]
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.value.dims()[0]
    }

    /// Forward without caching (inference-only helper).
    pub fn forward_inference(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        let span = fca_trace::clock();
        let y = self.affine(x, ws);
        fca_trace::op(OpId::LinearForward, span);
        y
    }

    /// `x·Wᵀ + b`, the body of every forward.
    fn affine(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        let n = x.dims()[0];
        let (in_f, out_f) = (self.in_features(), self.out_features());
        // The product accumulates, so the output must start zeroed; packing
        // scratch comes from the workspace pool, keeping the steady state
        // allocation-free.
        let mut y = ws.tensor_zeroed([n, out_f]);
        let w = self.weight.value.data();
        gemm(Layout::Nt, x.data(), w, y.data_mut(), (n, in_f, out_f), ws);
        add_bias_rows(&mut y, &self.bias.value);
        y
    }
}

impl Module for Linear {
    fn forward(&mut self, x: &Tensor, _train: bool, ws: &mut Workspace) -> Tensor {
        let span = fca_trace::clock();
        assert_eq!(
            x.dims()[1],
            self.in_features(),
            "linear expects {} input features, got {}",
            self.in_features(),
            x.dims()[1]
        );
        let y = self.affine(x, ws);
        let n = x.dims()[0];
        let mut cache = ws.take_slot(self.in_slot, n * self.in_features());
        cache.copy_from_slice(x.data());
        ws.put_slot(self.in_slot, cache);
        self.cached_rows = n;
        fca_trace::op(OpId::LinearForward, span);
        y
    }

    fn backward(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let span = fca_trace::clock();
        let n = self.cached_rows;
        assert!(n > 0, "backward before forward on Linear");
        assert_eq!(
            grad_out.dims()[0],
            n,
            "grad batch does not match cached forward batch"
        );
        let (in_f, out_f) = (self.in_features(), self.out_features());
        let cache = ws.take_slot(self.in_slot, n * in_f);
        // dW += dYᵀ·X, db += colsum(dY), dX = dY·W — the parameter GEMMs
        // accumulate straight into the grad tensors, no temporaries.
        let dw = self.weight.grad.data_mut();
        gemm(
            Layout::Tn,
            grad_out.data(),
            &cache,
            dw,
            (out_f, n, in_f),
            ws,
        );
        let db = self.bias.grad.data_mut();
        for row in grad_out.data().chunks(out_f) {
            for (d, g) in db.iter_mut().zip(row) {
                *d += g;
            }
        }
        let mut dx = ws.tensor_zeroed([n, in_f]);
        let w = self.weight.value.data();
        gemm(
            Layout::Nn,
            grad_out.data(),
            w,
            dx.data_mut(),
            (n, out_f, in_f),
            ws,
        );
        ws.put_slot(self.in_slot, cache);
        fca_trace::op(OpId::LinearBackward, span);
        dx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fca_tensor::rng::seeded_rng;

    #[test]
    fn forward_matches_manual() {
        let mut rng = seeded_rng(51);
        let mut ws = Workspace::new();
        let mut l = Linear::new(3, 2, &mut rng);
        l.weight.value = Tensor::from_vec([2, 3], vec![1., 0., -1., 2., 1., 0.]);
        l.bias.value = Tensor::from_vec([2], vec![0.5, -0.5]);
        let x = Tensor::from_vec([1, 3], vec![1., 2., 3.]);
        let y = l.forward(&x, true, &mut ws);
        // y0 = 1*1 + 0*2 + -1*3 + 0.5 = -1.5 ; y1 = 2*1 + 1*2 + 0*3 - 0.5 = 3.5
        assert_eq!(y.data(), &[-1.5, 3.5]);
    }

    #[test]
    fn inference_forward_matches_train_forward() {
        let mut rng = seeded_rng(52);
        let mut ws = Workspace::new();
        let mut l = Linear::new(5, 4, &mut rng);
        let x = Tensor::randn([3, 5], 1.0, &mut rng);
        let a = l.forward(&x, true, &mut ws);
        let b = l.forward_inference(&x, &mut ws);
        assert_eq!(a, b);
    }

    /// A row's output must not depend on how many rows ride along: 17 rows
    /// take the packed engine, one row streams the weight in place.
    #[test]
    fn forward_is_bit_identical_across_batch_sizes() {
        let mut rng = seeded_rng(56);
        let mut ws = Workspace::new();
        let mut l = Linear::new(300, 13, &mut rng);
        l.bias.value = Tensor::randn([13], 1.0, &mut rng);
        let x = Tensor::randn([17, 300], 1.0, &mut rng);
        let bits = |t: &[f32]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for train in [true, false] {
            let batch = l.forward(&x, train, &mut ws);
            for (i, row) in x.data().chunks(300).enumerate() {
                let want = bits(&batch.data()[i * 13..(i + 1) * 13]);
                let xi = Tensor::from_vec([1, 300], row.to_vec());
                let one = l.forward(&xi, train, &mut ws);
                assert_eq!(bits(one.data()), want, "row {i}, train {train}");
                let one = l.forward_inference(&xi, &mut ws);
                assert_eq!(bits(one.data()), want, "row {i}, inference");
            }
        }
    }

    #[test]
    fn steady_state_small_batch_forward_allocates_nothing() {
        let mut rng = seeded_rng(57);
        let mut ws = Workspace::new();
        let mut l = Linear::new(1568, 128, &mut rng);
        let x = Tensor::randn([1, 1568], 1.0, &mut rng);
        let y = l.forward(&x, true, &mut ws);
        ws.recycle(y);
        ws.reset_stats();
        for train in [true, false] {
            let y = l.forward(&x, train, &mut ws);
            ws.recycle(y);
            let y = l.forward_inference(&x, &mut ws);
            ws.recycle(y);
        }
        assert_eq!(ws.stats().allocations, 0);
    }

    #[test]
    fn backward_shapes() {
        let mut rng = seeded_rng(53);
        let mut ws = Workspace::new();
        let mut l = Linear::new(4, 6, &mut rng);
        let x = Tensor::randn([2, 4], 1.0, &mut rng);
        let _ = l.forward(&x, true, &mut ws);
        let g = Tensor::randn([2, 6], 1.0, &mut rng);
        let dx = l.backward(&g, &mut ws);
        assert_eq!(dx.dims(), &[2, 4]);
        assert_eq!(l.weight.grad.dims(), &[6, 4]);
        assert_eq!(l.bias.grad.dims(), &[6]);
    }

    #[test]
    fn gradients_accumulate_across_backwards() {
        let mut rng = seeded_rng(54);
        let mut ws = Workspace::new();
        let mut l = Linear::new(3, 3, &mut rng);
        let x = Tensor::randn([2, 3], 1.0, &mut rng);
        let g = Tensor::ones([2, 3]);
        let _ = l.forward(&x, true, &mut ws);
        let _ = l.backward(&g, &mut ws);
        let first = l.weight.grad.clone();
        let _ = l.forward(&x, true, &mut ws);
        let _ = l.backward(&g, &mut ws);
        let doubled = l.weight.grad.clone();
        assert_eq!(doubled, first.scaled(2.0));
    }
}
