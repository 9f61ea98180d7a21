//! Spatial pooling layers: max and global average pooling.

use crate::module::{Module, Param};
use fca_tensor::{Tensor, Workspace};

/// Max pooling over square windows.
pub struct MaxPool2d {
    kernel: usize,
    stride: usize,
    /// Flat input index of each output element's winner.
    argmax: Vec<u32>,
    in_dims: [usize; 4],
}

impl MaxPool2d {
    /// New max pool with window `kernel` (at most 8: a window's elements
    /// are bits of one `u64`) and the given stride.
    pub fn new(kernel: usize, stride: usize) -> Self {
        assert!((1..=8).contains(&kernel) && stride >= 1);
        MaxPool2d {
            kernel,
            stride,
            argmax: Vec::new(),
            in_dims: [0; 4],
        }
    }

    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            (h - self.kernel) / self.stride + 1,
            (w - self.kernel) / self.stride + 1,
        )
    }
}

impl Module for MaxPool2d {
    /// One loop for every window: its maximum walks its elements in
    /// row-major order from −∞, replaced on a strict `>`, and the winner is
    /// the first element equal to it — where that walk last replaced it, so
    /// the first maximum wins. A window with nothing above −∞ in it (all −∞
    /// or NaN) routes its gradient to its first element.
    fn forward(&mut self, x: &Tensor, _train: bool, ws: &mut Workspace) -> Tensor {
        let (n, c, h, w) = x.shape().as_nchw();
        assert!(
            h >= self.kernel && w >= self.kernel,
            "pool window larger than input"
        );
        assert!(x.numel() <= u32::MAX as usize, "pool indices overflow u32");
        let (oh, ow) = self.out_hw(h, w);
        let (k, s) = (self.kernel, self.stride);
        // Every output element and winner is written below.
        let mut out = ws.tensor([n, c, oh, ow]);
        self.argmax.resize(n * c * oh * ow, 0);
        self.in_dims = [n, c, h, w];
        let dims = (h, w, oh, ow);
        let (out_d, at) = (out.data_mut(), &mut self.argmax[..]);
        // The zoo's one window, with its sizes known to the compiler: the
        // same loop over runtime sizes costs ~2× as much.
        match (k, s) {
            (2, 2) => max_windows(x.data(), dims, (2, 2), out_d, at),
            _ => max_windows(x.data(), dims, (k, s), out_d, at),
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        assert_eq!(
            grad_out.numel(),
            self.argmax.len(),
            "backward before forward on MaxPool2d"
        );
        let [n, c, h, w] = self.in_dims;
        // Scatter-add target: must start zeroed.
        let mut dx = ws.tensor_zeroed([n, c, h, w]);
        let dd = dx.data_mut();
        // Added, not stored: a −0.0 gradient still lands as +0.0.
        for (g, &idx) in grad_out.data().iter().zip(&self.argmax) {
            dd[idx as usize] += g;
        }
        dx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }
}

/// [`MaxPool2d::forward`]'s loop over every window of `x`: the maxima into
/// `out`, their flat input indices into `at`. Each output row reads one
/// slice of `x`, its windows' elements by offset within it. The winner is
/// the lowest set bit of the window's equal-to-the-maximum mask, not a
/// select per element: LLVM turns such a select chain back into branches
/// on AVX2 targets, which mispredict on every other window.
#[inline(always)]
fn max_windows(
    x: &[f32],
    (h, w, oh, ow): (usize, usize, usize, usize),
    (k, s): (usize, usize),
    out: &mut [f32],
    at: &mut [u32],
) {
    let rows = out.chunks_exact_mut(ow).zip(at.chunks_exact_mut(ow));
    for (r, (best_row, at_row)) in rows.enumerate() {
        // Output row `r % oh` of plane `r / oh`.
        let top = (r / oh * h + r % oh * s) * w;
        let span = &x[top..top + (k - 1) * w + (ow - 1) * s + k];
        for (ox, (best, at)) in best_row.iter_mut().zip(at_row).enumerate() {
            let window = &span[ox * s..];
            let mut max = f32::NEG_INFINITY;
            for ky in 0..k {
                for &v in &window[ky * w..ky * w + k] {
                    max = if v > max { v } else { max };
                }
            }
            let mut hits = 0u64;
            for ky in 0..k {
                for (kx, &v) in window[ky * w..ky * w + k].iter().enumerate() {
                    hits |= u64::from(v == max) << (ky * k + kx);
                }
            }
            let p = if max == f32::NEG_INFINITY {
                0
            } else {
                hits.trailing_zeros() as usize
            };
            *best = max;
            *at = (top + ox * s + p / k * w + p % k) as u32;
        }
    }
}

/// Global average pooling: `(N, C, H, W) → (N, C)`.
pub struct GlobalAvgPool {
    in_dims: [usize; 4],
}

impl GlobalAvgPool {
    /// New global average pool.
    pub fn new() -> Self {
        GlobalAvgPool { in_dims: [0; 4] }
    }
}

impl Default for GlobalAvgPool {
    fn default() -> Self {
        Self::new()
    }
}

impl Module for GlobalAvgPool {
    fn forward(&mut self, x: &Tensor, _train: bool, ws: &mut Workspace) -> Tensor {
        let (n, c, h, w) = x.shape().as_nchw();
        self.in_dims = [n, c, h, w];
        let plane = h * w;
        let norm = 1.0 / plane as f32;
        // One write per (n, c) pair covers the whole output.
        let mut out = ws.tensor([n, c]);
        let od = out.data_mut();
        for (i, chunk) in x.data().chunks(plane).enumerate() {
            od[i] = chunk.iter().sum::<f32>() * norm;
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let [n, c, h, w] = self.in_dims;
        assert_eq!(
            grad_out.dims(),
            &[n, c],
            "backward before forward on GlobalAvgPool"
        );
        let plane = h * w;
        let norm = 1.0 / plane as f32;
        // The chunked fill covers every element.
        let mut dx = ws.tensor([n, c, h, w]);
        for (chunk, &g) in dx.data_mut().chunks_mut(plane).zip(grad_out.data()) {
            chunk.fill(g * norm);
        }
        dx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fca_tensor::rng::seeded_rng;

    #[test]
    fn maxpool_picks_window_max() {
        let mut ws = Workspace::new();
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1.0, 5.0, 3.0, 2.0]);
        let mut p = MaxPool2d::new(2, 2);
        let y = p.forward(&x, true, &mut ws);
        assert_eq!(y.dims(), &[1, 1, 1, 1]);
        assert_eq!(y.data(), &[5.0]);
        let dx = p.backward(&Tensor::ones([1, 1, 1, 1]), &mut ws);
        assert_eq!(dx.data(), &[0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn maxpool_overlapping_windows_accumulate_grad() {
        let mut ws = Workspace::new();
        let x = Tensor::from_vec([1, 1, 3, 3], vec![0., 0., 0., 0., 9., 0., 0., 0., 0.]);
        let mut p = MaxPool2d::new(2, 1);
        let y = p.forward(&x, true, &mut ws);
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert!(y.data().iter().all(|&v| v == 9.0));
        let dx = p.backward(&Tensor::ones([1, 1, 2, 2]), &mut ws);
        assert_eq!(dx.data()[4], 4.0);
    }

    #[test]
    fn maxpool_dead_window_keeps_its_gradient_in_its_own_plane() {
        let mut ws = Workspace::new();
        let mut rng = seeded_rng(82);
        let finite = Tensor::randn([2, 2, 4, 4], 1.0, &mut rng);
        let mut x = finite.clone();
        // One window of image 1, channel 1 all −∞, one of image 1,
        // channel 0 all NaN: nothing in either compares above −∞.
        let at = |c: usize, y: usize, xx: usize| ((2 + c) * 4 + y) * 4 + xx;
        for (c, fill) in [(1, f32::NEG_INFINITY), (0, f32::NAN)] {
            for (y, xx) in [(2, 0), (2, 1), (3, 0), (3, 1)] {
                x.data_mut()[at(c, y, xx)] = fill;
            }
        }
        let mut p = MaxPool2d::new(2, 2);
        let _ = p.forward(&x, true, &mut ws);
        let dx = p.backward(&Tensor::ones([2, 2, 2, 2]), &mut ws);
        // Every window's gradient lands in its own window: each sums to 1.
        for plane in dx.data().chunks_exact(16) {
            for (wy, wx) in [(0, 0), (0, 2), (2, 0), (2, 2)] {
                let window = [0, 1, 4, 5].map(|o| plane[wy * 4 + wx + o]);
                assert_eq!(window.iter().sum::<f32>(), 1.0, "{window:?}");
            }
        }
        assert_eq!(dx.data()[at(1, 2, 0)], 1.0, "dead window's first index");

        // Finite inputs: the winners are the strict maxima, as before.
        let y = p.forward(&finite, true, &mut ws);
        let dx = p.backward(&Tensor::ones([2, 2, 2, 2]), &mut ws);
        for (i, &g) in dx.data().iter().enumerate() {
            let (plane, y0, x0) = (i / 16, i / 4 % 4 / 2, i % 4 / 2);
            let is_max = finite.data()[i] == y.data()[plane * 4 + y0 * 2 + x0];
            assert_eq!(g, if is_max { 1.0 } else { 0.0 }, "elem {i}");
        }
    }

    /// The per-window scan the layer ran before the row-at-a-time loop,
    /// kept as its oracle: `(out, argmax)`.
    fn maxpool_oracle(x: &Tensor, k: usize, s: usize) -> (Vec<f32>, Vec<u32>) {
        let (n, c, h, w) = x.shape().as_nchw();
        let (oh, ow) = ((h - k) / s + 1, (w - k) / s + 1);
        let (mut out, mut arg) = (Vec::new(), Vec::new());
        for base in (0..n * c).map(|p| p * h * w) {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = base + oy * s * w + ox * s;
                    for ky in 0..k {
                        for kx in 0..k {
                            let idx = base + (oy * s + ky) * w + ox * s + kx;
                            if x.data()[idx] > best {
                                best = x.data()[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    out.push(best);
                    arg.push(best_idx as u32);
                }
            }
        }
        (out, arg)
    }

    /// Outputs and winners equal the per-window scan's to the bit over
    /// windows 1–3, strides 1–3 (overlapping and gapped windows), ragged
    /// planes, ties (−0.0 against +0.0 too), −∞ and NaN; backward lands a
    /// −0.0 gradient as +0.0.
    #[test]
    fn row_at_a_time_pool_equals_the_per_window_scan() {
        let mut ws = Workspace::new();
        let mut rng = seeded_rng(83);
        for (k, s) in [(2, 2), (1, 1), (2, 1), (3, 2), (3, 3), (2, 3)] {
            for (h, w) in [(4, 4), (7, 5), (3, 9)] {
                if h < k || w < k {
                    continue;
                }
                let mut x = Tensor::randn([2, 3, h, w], 1.0, &mut rng);
                // Ties (rounded values, −0.0 against +0.0), −∞ and NaN.
                for (i, v) in x.data_mut().iter_mut().enumerate() {
                    *v = match i % 11 {
                        3 => f32::NEG_INFINITY,
                        5 => -0.0,
                        7 => f32::NAN,
                        _ => (*v * 2.0).round(),
                    };
                }
                let mut p = MaxPool2d::new(k, s);
                let y = p.forward(&x, true, &mut ws);
                let (want, arg) = maxpool_oracle(&x, k, s);
                let bits = |v: &[f32]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(y.data()), bits(&want), "out k{k} s{s} {h}x{w}");
                assert_eq!(p.argmax, arg, "argmax k{k} s{s} {h}x{w}");
                let dx = p.backward(&Tensor::full(y.shape().clone(), -0.0), &mut ws);
                assert!(dx.data().iter().all(|v| v.to_bits() == 0), "−0.0 landed");
            }
        }
    }

    #[test]
    fn global_avg_pool_shapes_and_values() {
        let mut ws = Workspace::new();
        let mut rng = seeded_rng(81);
        let x = Tensor::randn([3, 4, 5, 5], 1.0, &mut rng);
        let mut p = GlobalAvgPool::new();
        let y = p.forward(&x, true, &mut ws);
        assert_eq!(y.dims(), &[3, 4]);
        let manual: f32 = x.image(0)[0..25].iter().sum::<f32>() / 25.0;
        assert!((y.at(0) - manual).abs() < 1e-5);
        let dx = p.backward(&Tensor::ones([3, 4]), &mut ws);
        assert!((dx.sum() - (3 * 4) as f32).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "window larger")]
    fn pool_rejects_tiny_input() {
        let mut ws = Workspace::new();
        let mut p = MaxPool2d::new(3, 1);
        p.forward(&Tensor::zeros([1, 1, 2, 2]), true, &mut ws);
    }
}
