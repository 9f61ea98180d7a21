//! Spatial pooling layers: max and global average pooling.

use crate::module::{Module, Param};
use fca_tensor::{Tensor, Workspace};

/// Max pooling over square windows.
pub struct MaxPool2d {
    kernel: usize,
    stride: usize,
    /// Flat input index of each output element's winner.
    argmax: Vec<usize>,
    in_dims: [usize; 4],
}

impl MaxPool2d {
    /// New max pool with window `kernel` and the given stride.
    pub fn new(kernel: usize, stride: usize) -> Self {
        assert!(kernel >= 1 && stride >= 1);
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
    fn forward(&mut self, x: &Tensor, _train: bool, ws: &mut Workspace) -> Tensor {
        let (n, c, h, w) = x.shape().as_nchw();
        assert!(
            h >= self.kernel && w >= self.kernel,
            "pool window larger than input"
        );
        let (oh, ow) = self.out_hw(h, w);
        // Every output element is written in order below.
        let mut out = ws.tensor([n, c, oh, ow]);
        self.argmax.clear();
        self.argmax.reserve(n * c * oh * ow);
        self.in_dims = [n, c, h, w];
        let xd = x.data();
        let od = out.data_mut();
        let mut oi = 0;
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        // A window with nothing above −∞ in it (all −∞ or
                        // NaN) still routes its gradient to itself.
                        let mut best_idx = base + oy * self.stride * w + ox * self.stride;
                        for ky in 0..self.kernel {
                            for kx in 0..self.kernel {
                                let iy = oy * self.stride + ky;
                                let ix = ox * self.stride + kx;
                                let idx = base + iy * w + ix;
                                if xd[idx] > best {
                                    best = xd[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        od[oi] = best;
                        self.argmax.push(best_idx);
                        oi += 1;
                    }
                }
            }
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
        for (g, &idx) in grad_out.data().iter().zip(&self.argmax) {
            dd[idx] += g;
        }
        dx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
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
