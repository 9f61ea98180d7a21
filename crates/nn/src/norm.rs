//! Batch normalization over NCHW tensors.
//!
//! A statistic here is a long chain of dependent adds — a plane's `f64` sum
//! for the mean and variance, a channel's `f32` sum for `dβ`/`dγ` — and one
//! chain at a time runs at the adder's latency. The passes below advance
//! eight planes' (or channels') chains together: each chain adds the same
//! terms in the same order as on its own, so every statistic is unchanged to
//! the bit, and the eight overlap.

use crate::module::{Module, Param};
use fca_tensor::{SlotId, Tensor, Workspace};

/// Chains advanced together by [`plane_sums`] and [`affine_grad_sums`].
const LANES: usize = 8;

/// `Iterator::sum` of `term(lane, v)` over each of the (up to [`LANES`])
/// consecutive planes in `planes`: every sum starts from −0.0 and adds its
/// plane's terms in order. A short last group fills its spare lanes with
/// the first plane again; their sums are computed and dropped.
fn plane_sums(planes: &[f32], plane: usize, term: impl Fn(usize, f32) -> f64) -> [f64; LANES] {
    let rows: [&[f32]; LANES] = std::array::from_fn(|lane| {
        let row = planes.get(lane * plane..(lane + 1) * plane);
        row.unwrap_or(&planes[..plane])
    });
    let mut sums = [-0.0f64; LANES];
    for i in 0..plane {
        for (lane, (s, row)) in sums.iter_mut().zip(&rows).enumerate() {
            *s += term(lane, row[i]);
        }
    }
    sums
}

/// `(Σ g, Σ g·x̂)` over all samples and pixels of channels `c0..c0 + LANES`
/// (those that exist): per channel two `f32` chains from 0.0, over samples
/// in order and pixels in order.
fn affine_grad_sums(
    grad_out: &[f32],
    xhat: &[f32],
    (c, plane): (usize, usize),
    c0: usize,
) -> ([f32; LANES], [f32; LANES]) {
    let (mut dbeta, mut dgamma) = ([0.0f32; LANES], [0.0f32; LANES]);
    let samples = grad_out
        .chunks_exact(c * plane)
        .zip(xhat.chunks_exact(c * plane));
    for (g_img, xh_img) in samples {
        // Spare lanes of a short last group walk its first channel again.
        let rows: [(&[f32], &[f32]); LANES] = std::array::from_fn(|lane| {
            let ci = if c0 + lane < c { c0 + lane } else { c0 };
            let at = ci * plane..(ci + 1) * plane;
            (&g_img[at.clone()], &xh_img[at])
        });
        for i in 0..plane {
            for ((db, dg), (g, xh)) in dbeta.iter_mut().zip(&mut dgamma).zip(&rows) {
                *db += g[i];
                *dg += g[i] * xh[i];
            }
        }
    }
    (dbeta, dgamma)
}

/// `BatchNorm2d`: per-channel normalization with learned affine parameters
/// and running statistics for inference (PyTorch semantics: `running ←
/// (1−momentum)·running + momentum·batch`, unbiased variance in the running
/// estimate, biased in the normalization itself).
pub struct BatchNorm2d {
    /// Scale γ, shape `(channels,)`.
    pub gamma: Param,
    /// Shift β, shape `(channels,)`.
    pub beta: Param,
    /// Running mean (inference).
    pub running_mean: Tensor,
    /// Running variance (inference).
    pub running_var: Tensor,
    momentum: f32,
    eps: f32,
    // Backward caches (training mode). x̂ lives in a workspace slot.
    xhat_slot: SlotId,
    cached_numel: usize,
    inv_std: Vec<f32>,
    trained_forward: bool,
}

impl BatchNorm2d {
    /// New batch norm over `channels` feature maps.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Param::new("bn.gamma", Tensor::ones([channels])),
            beta: Param::new("bn.beta", Tensor::zeros([channels])),
            running_mean: Tensor::zeros([channels]),
            running_var: Tensor::ones([channels]),
            momentum: 0.1,
            eps: 1e-5,
            xhat_slot: SlotId::fresh(),
            cached_numel: 0,
            inv_std: Vec::new(),
            trained_forward: false,
        }
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.gamma.value.numel()
    }
}

impl Module for BatchNorm2d {
    fn forward(&mut self, x: &Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        let (n, c, h, w) = x.shape().as_nchw();
        assert_eq!(
            c,
            self.channels(),
            "batchnorm expects {} channels, got {c}",
            self.channels()
        );
        let plane = h * w;
        let m = (n * plane) as f32;
        // Every element of `out` is written below, in both branches.
        let mut out = ws.tensor([n, c, h, w]);
        self.inv_std.clear();
        self.inv_std.resize(c, 0.0);

        if train {
            let mut xhat = ws.take_slot(self.xhat_slot, x.numel());
            let (xd, od) = (x.data(), out.data_mut());
            for c0 in (0..c).step_by(LANES) {
                let lanes = LANES.min(c - c0);
                // Batch statistics over (N, H, W), `lanes` channels at a
                // time: per channel, the samples' plane sums added in order.
                let block = |ni: usize| &xd[(ni * c + c0) * plane..][..lanes * plane];
                let mut mean = [0.0f64; LANES];
                for ni in 0..n {
                    let sums = plane_sums(block(ni), plane, |_, v| v as f64);
                    for (m, s) in mean.iter_mut().zip(sums) {
                        *m += s;
                    }
                }
                let mean = mean.map(|sum| (sum / m as f64) as f32);
                let mut var = [0.0f64; LANES];
                for ni in 0..n {
                    let sums = plane_sums(block(ni), plane, |lane, v| {
                        let d = (v - mean[lane]) as f64;
                        d * d
                    });
                    for (v, s) in var.iter_mut().zip(sums) {
                        *v += s;
                    }
                }

                for (ci, (mean, var)) in (c0..c0 + lanes).zip(mean.into_iter().zip(var)) {
                    let var = (var / m as f64) as f32;
                    let inv_std = 1.0 / (var + self.eps).sqrt();
                    self.inv_std[ci] = inv_std;

                    let g = self.gamma.value.at(ci);
                    let b = self.beta.value.at(ci);
                    for ni in 0..n {
                        let at = (ni * c + ci) * plane..(ni * c + ci + 1) * plane;
                        let rows = od[at.clone()].iter_mut().zip(&mut xhat[at.clone()]);
                        for ((o, xh), &v) in rows.zip(&xd[at]) {
                            *xh = (v - mean) * inv_std;
                            *o = g * *xh + b;
                        }
                    }

                    // Running stats (unbiased variance, PyTorch convention).
                    let unbiased = if m > 1.0 { var * m / (m - 1.0) } else { var };
                    let rm = self.running_mean.data_mut();
                    rm[ci] = (1.0 - self.momentum) * rm[ci] + self.momentum * mean;
                    let rv = self.running_var.data_mut();
                    rv[ci] = (1.0 - self.momentum) * rv[ci] + self.momentum * unbiased;
                }
            }
            ws.put_slot(self.xhat_slot, xhat);
            self.cached_numel = x.numel();
            self.trained_forward = true;
        } else {
            for ci in 0..c {
                let mean = self.running_mean.at(ci);
                let inv_std = 1.0 / (self.running_var.at(ci) + self.eps).sqrt();
                self.inv_std[ci] = inv_std;
                let g = self.gamma.value.at(ci);
                let b = self.beta.value.at(ci);
                for ni in 0..n {
                    let at = (ni * c + ci) * plane..(ni * c + ci + 1) * plane;
                    for (o, &v) in out.data_mut()[at.clone()].iter_mut().zip(&x.data()[at]) {
                        *o = g * (v - mean) * inv_std + b;
                    }
                }
            }
            self.trained_forward = false;
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let (n, c, h, w) = grad_out.shape().as_nchw();
        assert_eq!(
            self.inv_std.len(),
            c,
            "backward before forward on BatchNorm2d"
        );
        let plane = h * w;
        let m = (n * plane) as f32;
        // Fully overwritten in both branches.
        let mut dx = ws.tensor([n, c, h, w]);

        if self.trained_forward {
            assert_eq!(
                grad_out.numel(),
                self.cached_numel,
                "backward before forward on BatchNorm2d"
            );
            let xhat = ws.take_slot(self.xhat_slot, self.cached_numel);
            let (gd, dd) = (grad_out.data(), dx.data_mut());
            for c0 in (0..c).step_by(LANES) {
                let (dbeta, dgamma) = affine_grad_sums(gd, &xhat, (c, plane), c0);
                for (ci, (dbeta, dgamma)) in (c0..c).zip(dbeta.into_iter().zip(dgamma)) {
                    self.beta.grad.data_mut()[ci] += dbeta;
                    self.gamma.grad.data_mut()[ci] += dgamma;

                    let scale = self.gamma.value.at(ci) * self.inv_std[ci];
                    let mean_dy = dbeta / m;
                    let mean_dyxhat = dgamma / m;
                    for ni in 0..n {
                        let at = (ni * c + ci) * plane..(ni * c + ci + 1) * plane;
                        let rows = dd[at.clone()].iter_mut().zip(&gd[at.clone()]);
                        for ((d, &g), &xh) in rows.zip(&xhat[at]) {
                            *d = scale * (g - mean_dy - xh * mean_dyxhat);
                        }
                    }
                }
            }
            ws.put_slot(self.xhat_slot, xhat);
        } else {
            // Eval-mode backward: running stats are constants.
            for ci in 0..c {
                let scale = self.gamma.value.at(ci) * self.inv_std[ci];
                for ni in 0..n {
                    let at = (ni * c + ci) * plane..(ni * c + ci + 1) * plane;
                    for (d, &g) in dx.data_mut()[at.clone()]
                        .iter_mut()
                        .zip(&grad_out.data()[at])
                    {
                        *d = scale * g;
                    }
                }
            }
        }
        dx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn buffers_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.running_mean, &mut self.running_var]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fca_tensor::rng::seeded_rng;

    #[test]
    fn train_forward_normalizes_per_channel() {
        let mut rng = seeded_rng(91);
        let mut ws = Workspace::new();
        let x = Tensor::randn([4, 3, 6, 6], 2.0, &mut rng).map(|v| v + 5.0);
        let mut bn = BatchNorm2d::new(3);
        let y = bn.forward(&x, true, &mut ws);
        // Each channel of y should have mean ≈ 0 and var ≈ 1.
        let (n, c, h, w) = y.shape().as_nchw();
        let plane = h * w;
        for ci in 0..c {
            let mut vals = Vec::new();
            for ni in 0..n {
                let base = (ni * c + ci) * plane;
                vals.extend_from_slice(&y.data()[base..base + plane]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "channel {ci} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "channel {ci} var {var}");
        }
    }

    #[test]
    fn running_stats_converge_to_batch_stats() {
        let mut rng = seeded_rng(92);
        let mut ws = Workspace::new();
        let x = Tensor::randn([8, 2, 4, 4], 1.0, &mut rng).map(|v| v * 3.0 + 2.0);
        let mut bn = BatchNorm2d::new(2);
        for _ in 0..200 {
            let y = bn.forward(&x, true, &mut ws);
            ws.recycle(y);
        }
        // Repeating the same batch, running stats converge to the *batch*
        // mean and unbiased batch variance of each channel.
        let (n, c, h, w) = x.shape().as_nchw();
        let plane = h * w;
        let m = (n * plane) as f32;
        for ci in 0..c {
            let mut vals = Vec::new();
            for ni in 0..n {
                let base = (ni * c + ci) * plane;
                vals.extend_from_slice(&x.data()[base..base + plane]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / m;
            let var: f32 = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / (m - 1.0);
            assert!(
                (bn.running_mean.at(ci) - mean).abs() < 1e-2,
                "running mean {} vs batch mean {mean}",
                bn.running_mean.at(ci)
            );
            assert!(
                (bn.running_var.at(ci) - var).abs() < var * 1e-2,
                "running var {} vs batch var {var}",
                bn.running_var.at(ci)
            );
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut ws = Workspace::new();
        let mut bn = BatchNorm2d::new(1);
        bn.running_mean = Tensor::from_vec([1], vec![1.0]);
        bn.running_var = Tensor::from_vec([1], vec![4.0]);
        let x = Tensor::from_vec([1, 1, 1, 2], vec![3.0, 1.0]);
        let y = bn.forward(&x, false, &mut ws);
        assert!((y.at(0) - 1.0).abs() < 1e-3); // (3-1)/2
        assert!(y.at(1).abs() < 1e-3); // (1-1)/2
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = seeded_rng(93);
        let mut ws = Workspace::new();
        let x = Tensor::randn([2, 2, 3, 3], 1.0, &mut rng);
        let gy = Tensor::randn([2, 2, 3, 3], 1.0, &mut rng);
        let mut bn = BatchNorm2d::new(2);
        bn.gamma.value = Tensor::from_vec([2], vec![1.5, 0.7]);
        bn.beta.value = Tensor::from_vec([2], vec![0.1, -0.2]);

        let _ = bn.forward(&x, true, &mut ws);
        let dx = bn.backward(&gy, &mut ws);

        let loss = |bn: &mut BatchNorm2d, x: &Tensor, ws: &mut Workspace| {
            let y = bn.forward(x, true, ws);
            y.data()
                .iter()
                .zip(gy.data())
                .map(|(a, b)| a * b)
                .sum::<f32>()
        };
        let h = 1e-2;
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += h;
            let mut xm = x.clone();
            xm.data_mut()[i] -= h;
            let fd = (loss(&mut bn, &xp, &mut ws) - loss(&mut bn, &xm, &mut ws)) / (2.0 * h);
            let an = dx.at(i);
            assert!(
                (fd - an).abs() < 5e-2 * (1.0 + fd.abs()),
                "elem {i}: fd {fd} vs analytic {an}"
            );
        }
    }

    #[test]
    fn gamma_beta_grads_match_finite_difference() {
        let mut rng = seeded_rng(94);
        let mut ws = Workspace::new();
        let x = Tensor::randn([2, 1, 4, 4], 1.0, &mut rng);
        let mut bn = BatchNorm2d::new(1);
        let _ = bn.forward(&x, true, &mut ws);
        bn.zero_grad();
        let _ = bn.forward(&x, true, &mut ws);
        let _ = bn.backward(&Tensor::ones([2, 1, 4, 4]), &mut ws);
        let h = 1e-2;
        // dgamma.
        let analytic = bn.gamma.grad.at(0);
        let orig = bn.gamma.value.at(0);
        bn.gamma.value.data_mut()[0] = orig + h;
        let fp = bn.forward(&x, true, &mut ws).sum();
        bn.gamma.value.data_mut()[0] = orig - h;
        let fm = bn.forward(&x, true, &mut ws).sum();
        bn.gamma.value.data_mut()[0] = orig;
        let fd = (fp - fm) / (2.0 * h);
        assert!(
            (fd - analytic).abs() < 5e-2 * (1.0 + fd.abs()),
            "dgamma fd {fd} vs {analytic}"
        );
        // dbeta = m (all-ones upstream).
        assert!((bn.beta.grad.at(0) - 32.0).abs() < 1e-3);
    }

    #[test]
    fn buffers_exposed_for_averaging() {
        let mut bn = BatchNorm2d::new(4);
        assert_eq!(bn.buffers_mut().len(), 2);
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|e| e.to_bits()).collect()
    }

    /// The one-chain-at-a-time passes the layer ran before the chains were
    /// overlapped, kept verbatim as the oracle: training-mode
    /// `(out, x̂, running mean, running var)` …
    fn forward_oracle(
        x: &Tensor,
        gamma: &[f32],
        beta: &[f32],
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
        let (n, c, h, w) = x.shape().as_nchw();
        let plane = h * w;
        let (eps, momentum) = (1e-5f32, 0.1f32);
        let mut out = vec![f32::NAN; x.numel()];
        let mut xhat = vec![f32::NAN; x.numel()];
        let m = (n * plane) as f32;
        let (mut rm, mut rv) = (vec![0.0f32; c], vec![1.0f32; c]);
        for ci in 0..c {
            let mut mean = 0.0f64;
            for ni in 0..n {
                let base = (ni * c + ci) * plane;
                mean += x.data()[base..base + plane]
                    .iter()
                    .map(|&v| v as f64)
                    .sum::<f64>();
            }
            let mean = (mean / m as f64) as f32;
            let mut var = 0.0f64;
            for ni in 0..n {
                let base = (ni * c + ci) * plane;
                var += x.data()[base..base + plane]
                    .iter()
                    .map(|&v| {
                        let d = (v - mean) as f64;
                        d * d
                    })
                    .sum::<f64>();
            }
            let var = (var / m as f64) as f32;
            let inv_std = 1.0 / (var + eps).sqrt();
            for ni in 0..n {
                let base = (ni * c + ci) * plane;
                for i in 0..plane {
                    let xh = (x.data()[base + i] - mean) * inv_std;
                    xhat[base + i] = xh;
                    out[base + i] = gamma[ci] * xh + beta[ci];
                }
            }
            let unbiased = if m > 1.0 { var * m / (m - 1.0) } else { var };
            rm[ci] = (1.0 - momentum) * rm[ci] + momentum * mean;
            rv[ci] = (1.0 - momentum) * rv[ci] + momentum * unbiased;
        }
        (out, xhat, rm, rv)
    }

    /// … and `(dβ, dγ, dx)`.
    fn backward_oracle(
        gy: &Tensor,
        xhat: &[f32],
        gamma: &[f32],
        inv_std: &[f32],
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let (n, c, h, w) = gy.shape().as_nchw();
        let plane = h * w;
        let m = (n * plane) as f32;
        let (mut dbetas, mut dgammas) = (vec![0.0f32; c], vec![0.0f32; c]);
        let mut dx = vec![f32::NAN; gy.numel()];
        for ci in 0..c {
            let mut dbeta = 0.0f32;
            let mut dgamma = 0.0f32;
            for ni in 0..n {
                let base = (ni * c + ci) * plane;
                for i in 0..plane {
                    let g = gy.data()[base + i];
                    dbeta += g;
                    dgamma += g * xhat[base + i];
                }
            }
            dbetas[ci] += dbeta;
            dgammas[ci] += dgamma;
            let scale = gamma[ci] * inv_std[ci];
            let mean_dy = dbeta / m;
            let mean_dyxhat = dgamma / m;
            for ni in 0..n {
                let base = (ni * c + ci) * plane;
                for i in 0..plane {
                    let g = gy.data()[base + i];
                    let xh = xhat[base + i];
                    dx[base + i] = scale * (g - mean_dy - xh * mean_dyxhat);
                }
            }
        }
        (dbetas, dgammas, dx)
    }

    #[test]
    fn overlapped_chains_change_no_bit_of_batchnorm() {
        let mut rng = seeded_rng(98);
        let mut ws = Workspace::new();
        // Channel counts below, at and past a whole group of lanes.
        for (n, c, h, w) in [(4, 3, 5, 6), (2, 8, 3, 3), (3, 13, 4, 5), (1, 1, 1, 1)] {
            let x = Tensor::randn([n, c, h, w], 2.0, &mut rng).map(|v| v + 1.5);
            let gy = Tensor::randn([n, c, h, w], 1.0, &mut rng);
            let mut bn = BatchNorm2d::new(c);
            bn.gamma.value = Tensor::randn([c], 1.0, &mut rng);
            bn.beta.value = Tensor::randn([c], 1.0, &mut rng);
            let (gamma, beta) = (
                bn.gamma.value.data().to_vec(),
                bn.beta.value.data().to_vec(),
            );

            let y = bn.forward(&x, true, &mut ws);
            let dx = bn.backward(&gy, &mut ws);
            let xhat = ws.take_slot(bn.xhat_slot, x.numel());
            let (y_ref, xhat_ref, rm, rv) = forward_oracle(&x, &gamma, &beta);
            let (dbeta, dgamma, dx_ref) = backward_oracle(&gy, &xhat_ref, &gamma, &bn.inv_std);
            let on = format!("[{n}, {c}, {h}, {w}]");
            assert_eq!(bits(y.data()), bits(&y_ref), "out {on}");
            assert_eq!(bits(&xhat), bits(&xhat_ref), "xhat {on}");
            assert_eq!(bits(bn.running_mean.data()), bits(&rm), "running mean {on}");
            assert_eq!(bits(bn.running_var.data()), bits(&rv), "running var {on}");
            assert_eq!(bits(dx.data()), bits(&dx_ref), "dx {on}");
            assert_eq!(bits(bn.beta.grad.data()), bits(&dbeta), "dbeta {on}");
            assert_eq!(bits(bn.gamma.grad.data()), bits(&dgamma), "dgamma {on}");
            ws.put_slot(bn.xhat_slot, xhat);
        }
    }
}
