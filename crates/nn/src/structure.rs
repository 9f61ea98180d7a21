//! Composite modules: sequential containers, residual blocks, inception
//! blocks, flattening, and channel shuffle — the structural idioms of the
//! paper's four CNN families.

use crate::module::{Module, Param};
use fca_tensor::rng::SnapRng;
use fca_tensor::{Tensor, Workspace};

/// A chain of modules applied in order.
///
/// ```
/// use fca_nn::prelude::*;
/// use fca_tensor::{rng::seeded_rng, Tensor, Workspace};
///
/// let mut rng = seeded_rng(1);
/// let mut ws = Workspace::new();
/// let mut mlp = Sequential::new()
///     .push(Linear::new(4, 8, &mut rng))
///     .push(Relu::new())
///     .push(Linear::new(8, 2, &mut rng));
/// let x = Tensor::randn([3, 4], 1.0, &mut rng);
/// let y = mlp.forward(&x, true, &mut ws);
/// assert_eq!(y.dims(), &[3, 2]);
/// let dx = mlp.backward(&Tensor::ones([3, 2]), &mut ws);
/// assert_eq!(dx.dims(), &[3, 4]);
/// ```
pub struct Sequential {
    layers: Vec<Box<dyn Module>>,
}

impl Sequential {
    /// Empty container.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Builder-style push.
    pub fn push(mut self, layer: impl Module + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Push a boxed module.
    pub fn push_boxed(mut self, layer: Box<dyn Module>) -> Self {
        self.layers.push(layer);
        self
    }

    /// Number of child modules.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True if the container has no children.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

/// Back-propagate `grad_out` through `rest`, last layer first: the
/// gradient the layer before `rest` receives, `None` when `rest` is empty
/// (it receives `grad_out` itself).
fn backward_after_first(
    rest: &mut [Box<dyn Module>],
    grad_out: &Tensor,
    ws: &mut Workspace,
) -> Option<Tensor> {
    let mut layers = rest.iter_mut().rev();
    let mut g = layers.next()?.backward(grad_out, ws);
    for layer in layers {
        let next = layer.backward(&g, ws);
        ws.recycle(g);
        g = next;
    }
    Some(g)
}

impl Module for Sequential {
    fn forward(&mut self, x: &Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        let mut layers = self.layers.iter_mut();
        let mut cur = match layers.next() {
            Some(first) => first.forward(x, train, ws),
            None => return ws.tensor_like(x),
        };
        for layer in layers {
            let next = layer.forward(&cur, train, ws);
            ws.recycle(cur);
            cur = next;
        }
        cur
    }

    fn backward(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return ws.tensor_like(grad_out);
        };
        let g = backward_after_first(rest, grad_out, ws);
        let dx = first.backward(g.as_ref().unwrap_or(grad_out), ws);
        if let Some(g) = g {
            ws.recycle(g);
        }
        dx
    }

    /// `backward` with the first layer's input gradient never computed.
    fn backward_params(&mut self, grad_out: &Tensor, ws: &mut Workspace) {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        let g = backward_after_first(rest, grad_out, ws);
        first.backward_params(g.as_ref().unwrap_or(grad_out), ws);
        if let Some(g) = g {
            ws.recycle(g);
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    fn buffers_mut(&mut self) -> Vec<&mut Tensor> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.buffers_mut())
            .collect()
    }

    fn rng_slots(&mut self) -> Vec<&mut SnapRng> {
        self.layers.iter_mut().flat_map(|l| l.rng_slots()).collect()
    }
}

/// Residual block: `y = body(x) + shortcut(x)`.
///
/// `shortcut` is `None` for an identity skip (requires matching shapes) or
/// a projection (1×1 strided conv + norm) when the body changes geometry.
pub struct Residual {
    body: Sequential,
    shortcut: Option<Sequential>,
}

impl Residual {
    /// Identity-skip residual block.
    pub fn identity(body: Sequential) -> Self {
        Residual {
            body,
            shortcut: None,
        }
    }

    /// Projection-skip residual block.
    pub fn projected(body: Sequential, shortcut: Sequential) -> Self {
        Residual {
            body,
            shortcut: Some(shortcut),
        }
    }
}

impl Module for Residual {
    fn forward(&mut self, x: &Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        let mut main = self.body.forward(x, train, ws);
        match &mut self.shortcut {
            Some(s) => {
                let skip = s.forward(x, train, ws);
                assert_eq!(
                    main.dims(),
                    skip.dims(),
                    "residual branch shapes diverge: {:?} vs {:?}",
                    main.dims(),
                    skip.dims()
                );
                main.add_assign(&skip);
                ws.recycle(skip);
            }
            None => {
                assert_eq!(
                    main.dims(),
                    x.dims(),
                    "residual branch shapes diverge: {:?} vs {:?}",
                    main.dims(),
                    x.dims()
                );
                main.add_assign(x);
            }
        }
        main
    }

    fn backward(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let mut gx = self.body.backward(grad_out, ws);
        match &mut self.shortcut {
            Some(s) => {
                let gskip = s.backward(grad_out, ws);
                gx.add_assign(&gskip);
                ws.recycle(gskip);
            }
            None => gx.add_assign(grad_out),
        }
        gx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.body.params_mut();
        if let Some(s) = &mut self.shortcut {
            p.extend(s.params_mut());
        }
        p
    }

    fn buffers_mut(&mut self) -> Vec<&mut Tensor> {
        let mut b = self.body.buffers_mut();
        if let Some(s) = &mut self.shortcut {
            b.extend(s.buffers_mut());
        }
        b
    }

    fn rng_slots(&mut self) -> Vec<&mut SnapRng> {
        let mut r = self.body.rng_slots();
        if let Some(s) = &mut self.shortcut {
            r.extend(s.rng_slots());
        }
        r
    }
}

/// Inception-style block: parallel branches whose NCHW outputs are
/// concatenated along the channel dimension (GoogLeNet idiom).
pub struct InceptionBlock {
    branches: Vec<Sequential>,
    branch_channels: Vec<usize>,
}

impl InceptionBlock {
    /// Block from parallel branches. Channel splits are recorded during the
    /// first forward pass.
    pub fn new(branches: Vec<Sequential>) -> Self {
        assert!(
            !branches.is_empty(),
            "inception block needs at least one branch"
        );
        InceptionBlock {
            branches,
            branch_channels: Vec::new(),
        }
    }
}

impl Module for InceptionBlock {
    fn forward(&mut self, x: &Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        let outs: Vec<Tensor> = self
            .branches
            .iter_mut()
            .map(|b| b.forward(x, train, ws))
            .collect();
        self.branch_channels = outs.iter().map(|o| o.shape().as_nchw().1).collect();
        let (n, _, h, w) = outs[0].shape().as_nchw();
        let c_total: usize = self.branch_channels.iter().sum();
        let plane = h * w;
        // Interleave branch images per sample; every element is written.
        let mut out = ws.tensor([n, c_total, h, w]);
        let od = out.data_mut();
        for ni in 0..n {
            let mut dst = ni * c_total * plane;
            for (o, &bc) in outs.iter().zip(&self.branch_channels) {
                let img = bc * plane;
                od[dst..dst + img].copy_from_slice(&o.data()[ni * img..(ni + 1) * img]);
                dst += img;
            }
        }
        for o in outs {
            ws.recycle(o);
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        assert_eq!(
            self.branch_channels.len(),
            self.branches.len(),
            "backward before forward on InceptionBlock"
        );
        let (n, c_total, h, w) = grad_out.shape().as_nchw();
        let plane = h * w;
        let mut acc: Option<Tensor> = None;
        let mut c_off = 0;
        for (branch, &bc) in self.branches.iter_mut().zip(&self.branch_channels) {
            // Gather this branch's channel slice of grad_out.
            let img = bc * plane;
            let mut g = ws.tensor([n, bc, h, w]);
            {
                let gd = g.data_mut();
                for ni in 0..n {
                    let src = (ni * c_total + c_off) * plane;
                    gd[ni * img..(ni + 1) * img].copy_from_slice(&grad_out.data()[src..src + img]);
                }
            }
            let gx = branch.backward(&g, ws);
            ws.recycle(g);
            match &mut acc {
                Some(a) => {
                    a.add_assign(&gx);
                    ws.recycle(gx);
                }
                None => acc = Some(gx),
            }
            c_off += bc;
        }
        acc.expect("inception block has branches")
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.branches
            .iter_mut()
            .flat_map(|b| b.params_mut())
            .collect()
    }

    fn buffers_mut(&mut self) -> Vec<&mut Tensor> {
        self.branches
            .iter_mut()
            .flat_map(|b| b.buffers_mut())
            .collect()
    }

    fn rng_slots(&mut self) -> Vec<&mut SnapRng> {
        self.branches
            .iter_mut()
            .flat_map(|b| b.rng_slots())
            .collect()
    }
}

/// Flatten `(N, C, H, W) → (N, C·H·W)`.
pub struct Flatten {
    in_dims: [usize; 4],
}

impl Flatten {
    /// New flatten layer.
    pub fn new() -> Self {
        Flatten { in_dims: [0; 4] }
    }
}

impl Default for Flatten {
    fn default() -> Self {
        Self::new()
    }
}

impl Module for Flatten {
    fn forward(&mut self, x: &Tensor, _train: bool, ws: &mut Workspace) -> Tensor {
        let (n, c, h, w) = x.shape().as_nchw();
        self.in_dims = [n, c, h, w];
        let mut y = ws.tensor([n, c * h * w]);
        y.data_mut().copy_from_slice(x.data());
        y
    }

    fn backward(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let [n, c, h, w] = self.in_dims;
        let mut g = ws.tensor([n, c, h, w]);
        g.data_mut().copy_from_slice(grad_out.data());
        g
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }
}

/// ShuffleNet channel shuffle: reshape `(g, c/g)` channel blocks and
/// transpose so grouped convolutions exchange information across groups.
pub struct ChannelShuffle {
    groups: usize,
}

impl ChannelShuffle {
    /// New shuffle over `groups` channel groups.
    pub fn new(groups: usize) -> Self {
        assert!(groups >= 1);
        ChannelShuffle { groups }
    }

    fn permute(&self, x: &Tensor, inverse: bool, ws: &mut Workspace) -> Tensor {
        let (n, c, h, w) = x.shape().as_nchw();
        assert_eq!(
            c % self.groups,
            0,
            "channels {c} not divisible by groups {}",
            self.groups
        );
        let per = c / self.groups;
        let plane = h * w;
        // A permutation: every destination plane is written exactly once.
        let mut out = ws.tensor([n, c, h, w]);
        let xd = x.data();
        let od = out.data_mut();
        for ni in 0..n {
            for ci in 0..c {
                // Forward: channel (g, p) → (p, g).
                let (src, dst) = if !inverse {
                    let g = ci / per;
                    let p = ci % per;
                    (ci, p * self.groups + g)
                } else {
                    let p = ci / self.groups;
                    let g = ci % self.groups;
                    (ci, g * per + p)
                };
                let s = (ni * c + src) * plane;
                let d = (ni * c + dst) * plane;
                od[d..d + plane].copy_from_slice(&xd[s..s + plane]);
            }
        }
        out
    }
}

impl Module for ChannelShuffle {
    fn forward(&mut self, x: &Tensor, _train: bool, ws: &mut Workspace) -> Tensor {
        self.permute(x, false, ws)
    }

    fn backward(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        self.permute(grad_out, true, ws)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use crate::linear::Linear;
    use fca_tensor::rng::seeded_rng;

    #[test]
    fn sequential_chains_layers() {
        let mut rng = seeded_rng(101);
        let mut ws = Workspace::new();
        let mut seq = Sequential::new()
            .push(Linear::new(4, 8, &mut rng))
            .push(Relu::new())
            .push(Linear::new(8, 2, &mut rng));
        let x = Tensor::randn([3, 4], 1.0, &mut rng);
        let y = seq.forward(&x, true, &mut ws);
        assert_eq!(y.dims(), &[3, 2]);
        let gx = seq.backward(&Tensor::ones([3, 2]), &mut ws);
        assert_eq!(gx.dims(), &[3, 4]);
        assert_eq!(seq.params_mut().len(), 4);
    }

    #[test]
    fn residual_identity_adds_input() {
        // Body that multiplies by 0 (zero weights): residual output == input.
        let mut rng = seeded_rng(102);
        let mut ws = Workspace::new();
        let mut lin = Linear::new(3, 3, &mut rng);
        lin.weight.value.fill(0.0);
        let mut res = Residual::identity(Sequential::new().push(lin));
        let x = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let y = res.forward(&x, true, &mut ws);
        assert_eq!(y, x);
        // Gradient doubles through the two branches into dW but the input
        // grad is grad_out (body weights are zero) + grad_out (skip)?
        // Body with zero weight contributes zero input grad, skip passes it.
        let g = res.backward(&Tensor::ones([2, 3]), &mut ws);
        assert_eq!(g.data(), Tensor::ones([2, 3]).data());
    }

    #[test]
    fn flatten_roundtrip() {
        let mut ws = Workspace::new();
        let mut f = Flatten::new();
        let x = Tensor::from_vec([2, 2, 2, 2], (0..16).map(|v| v as f32).collect());
        let y = f.forward(&x, true, &mut ws);
        assert_eq!(y.dims(), &[2, 8]);
        let g = f.backward(&y, &mut ws);
        assert_eq!(g.dims(), &[2, 2, 2, 2]);
        assert_eq!(g.data(), x.data());
    }

    #[test]
    fn channel_shuffle_is_a_permutation() {
        let mut ws = Workspace::new();
        let mut cs = ChannelShuffle::new(2);
        // 4 channels, groups=2: order (0,1,2,3) → channel c goes to slot
        // p*g+gi: ch0→0, ch1→2, ch2→1, ch3→3.
        let x = Tensor::from_vec([1, 4, 1, 1], vec![10., 11., 12., 13.]);
        let y = cs.forward(&x, true, &mut ws);
        assert_eq!(y.data(), &[10., 12., 11., 13.]);
        // Backward must invert the permutation.
        let g = cs.backward(&y, &mut ws);
        assert_eq!(g.data(), x.data());
    }

    #[test]
    fn channel_shuffle_backward_inverts_forward_for_random_input() {
        let mut rng = seeded_rng(103);
        let mut ws = Workspace::new();
        let mut cs = ChannelShuffle::new(3);
        let x = Tensor::randn([2, 6, 3, 3], 1.0, &mut rng);
        let y = cs.forward(&x, true, &mut ws);
        let back = cs.backward(&y, &mut ws);
        assert_eq!(back, x);
    }

    #[test]
    fn inception_concat_and_split() {
        let mut rng = seeded_rng(104);
        let mut ws = Workspace::new();
        use crate::conv::Conv2d;
        let b1 = Sequential::new().push(Conv2d::basic(2, 3, 1, 1, 0, &mut rng));
        let b2 = Sequential::new().push(Conv2d::basic(2, 5, 3, 1, 1, &mut rng));
        let mut inc = InceptionBlock::new(vec![b1, b2]);
        let x = Tensor::randn([2, 2, 4, 4], 1.0, &mut rng);
        let y = inc.forward(&x, true, &mut ws);
        assert_eq!(y.dims(), &[2, 8, 4, 4]);
        let gx = inc.backward(&Tensor::ones([2, 8, 4, 4]), &mut ws);
        assert_eq!(gx.dims(), &[2, 2, 4, 4]);
    }

    #[test]
    fn inception_concat_matches_tensor_concat() {
        let mut rng = seeded_rng(106);
        let mut ws = Workspace::new();
        use crate::conv::Conv2d;
        let mut c1 = Conv2d::basic(2, 3, 1, 1, 0, &mut rng);
        let mut c2 = Conv2d::basic(2, 5, 3, 1, 1, &mut rng);
        let x = Tensor::randn([2, 2, 4, 4], 1.0, &mut rng);
        let y1 = c1.forward(&x, true, &mut ws);
        let y2 = c2.forward(&x, true, &mut ws);
        let expected = Tensor::concat_channels(&[&y1, &y2]);

        let b1 = Sequential::new().push(c1);
        let b2 = Sequential::new().push(c2);
        let mut inc = InceptionBlock::new(vec![b1, b2]);
        let y = inc.forward(&x, true, &mut ws);
        assert_eq!(y, expected);
    }

    #[test]
    #[should_panic(expected = "diverge")]
    fn residual_shape_mismatch_panics() {
        let mut rng = seeded_rng(105);
        let mut ws = Workspace::new();
        let body = Sequential::new().push(Linear::new(3, 4, &mut rng));
        let mut res = Residual::identity(body);
        res.forward(&Tensor::zeros([1, 3]), true, &mut ws);
    }
}
