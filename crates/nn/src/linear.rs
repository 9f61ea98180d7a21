//! Fully connected layer.

use crate::init::kaiming_normal;
use crate::module::{Module, Param};
use fca_tensor::linalg::{gemm_nn_ws, gemm_nt_ws, gemm_tn_ws};
use fca_tensor::ops::add_bias_rows;
use fca_tensor::quant::{gemm_quant, Precision};
use fca_tensor::{SlotId, Tensor, Workspace};
use fca_trace::OpId;
use rand::Rng;

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
    /// Compute precision for inference-mode forwards (f32 by default).
    /// Training forwards and the backward pass are always f32.
    eval_precision: Precision,
}

impl Linear {
    /// New layer with Kaiming-normal weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut impl Rng) -> Self {
        Linear {
            weight: Param::new(
                "linear.weight",
                kaiming_normal([out_features, in_features], in_features, rng),
            ),
            bias: Param::new("linear.bias", Tensor::zeros([out_features])),
            in_slot: SlotId::fresh(),
            cached_rows: 0,
            eval_precision: Precision::F32,
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

    /// Forward without caching (inference-only helper). Honors the
    /// configured eval precision.
    pub fn forward_inference(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        let span = fca_trace::clock();
        let y = self.affine(x, self.eval_precision, ws);
        fca_trace::op(OpId::LinearForward, span);
        y
    }

    /// `x·Wᵀ + b` at `precision`, the body of every forward.
    fn affine(&self, x: &Tensor, precision: Precision, ws: &mut Workspace) -> Tensor {
        let n = x.dims()[0];
        let (in_f, out_f) = (self.in_features(), self.out_features());
        // The GEMMs accumulate, so the output must start zeroed. The _ws
        // variant draws packing scratch from the workspace pool, keeping
        // the steady state allocation-free.
        let mut y = ws.tensor_zeroed([n, out_f]);
        if precision == Precision::F32 {
            gemm_nt_ws(
                x.data(),
                self.weight.value.data(),
                y.data_mut(),
                n,
                in_f,
                out_f,
                ws,
            );
        } else {
            gemm_quant(
                x.data(),
                self.weight.value.data(),
                y.data_mut(),
                (n, in_f, out_f),
                (false, true),
                precision,
            );
        }
        add_bias_rows(&mut y, &self.bias.value);
        y
    }
}

impl Module for Linear {
    fn forward(&mut self, x: &Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        let span = fca_trace::clock();
        assert_eq!(
            x.dims()[1],
            self.in_features(),
            "linear expects {} input features, got {}",
            self.in_features(),
            x.dims()[1]
        );
        // Quantized compute is inference-only; training forwards stay f32.
        let precision = if train {
            Precision::F32
        } else {
            self.eval_precision
        };
        let y = self.affine(x, precision, ws);
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
        gemm_tn_ws(
            grad_out.data(),
            &cache,
            self.weight.grad.data_mut(),
            out_f,
            n,
            in_f,
            ws,
        );
        let db = self.bias.grad.data_mut();
        for row in grad_out.data().chunks(out_f) {
            for (d, g) in db.iter_mut().zip(row) {
                *d += g;
            }
        }
        let mut dx = ws.tensor_zeroed([n, in_f]);
        gemm_nn_ws(
            grad_out.data(),
            self.weight.value.data(),
            dx.data_mut(),
            n,
            out_f,
            in_f,
            ws,
        );
        ws.put_slot(self.in_slot, cache);
        fca_trace::op(OpId::LinearBackward, span);
        dx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn set_eval_precision(&mut self, precision: Precision) {
        self.eval_precision = precision;
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
    fn quantized_eval_forward_tracks_f32_and_leaves_training_alone() {
        let mut rng = seeded_rng(55);
        let mut ws = Workspace::new();
        let mut l = Linear::new(32, 10, &mut rng);
        let x = Tensor::randn([4, 32], 1.0, &mut rng);
        let exact = l.forward(&x, false, &mut ws);
        for prec in [Precision::F16, Precision::Int8] {
            l.set_eval_precision(prec);
            let q = l.forward(&x, false, &mut ws);
            let qi = l.forward_inference(&x, &mut ws);
            assert_eq!(q, qi, "{prec:?}: cached vs inference forward diverge");
            for (a, b) in exact.data().iter().zip(q.data()) {
                assert!(
                    (a - b).abs() < 0.35 * (1.0 + a.abs()),
                    "{prec:?} eval drifted: {a} vs {b}"
                );
            }
            // Training forwards must be bit-identical regardless of the
            // configured eval precision.
            let t = l.forward(&x, true, &mut ws);
            assert_eq!(t, exact, "{prec:?} leaked into the training path");
        }
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
