//! 2-D convolution with stride, zero padding and grouped convolution
//! (needed by the ShuffleNet blocks).
//!
//! The geometry alone picks one of three lowerings (`Path`):
//!
//! * **rows** (every kernel that is neither depthwise nor pointwise, any
//!   stride) — each image is copied once into zero-bordered planes, and all
//!   three products read their activation operand in place through offset
//!   tables ([`Lhs::Rows`], the stride folded into the tables), so only the
//!   weight is packed, once per call. The forward is pixel-major,
//!   `Yᵀ = colᵀ·Wᵀ`, stored transposed straight into the output planes (on
//!   a small plane, several images in one product, through scratch); the
//!   input gradient is one product over all `k²` taps (per phase class of
//!   pixels at stride > 1: `Phase`), read from the output gradient's own
//!   zero-bordered planes, its sum over each tap's output channels a chain
//!   of its own ([`Store::chain`]) — except below `MR` input channels per
//!   group, where that product's lanes would run mostly empty, and for a
//!   strided 1×1 kernel, where the input gradient stays `dcol = Wᵀ·dY` then
//!   col2im; the weight gradient reads the cached planes with the pixels as
//!   its k axis;
//! * **pointwise** (1×1, stride 1, unpadded) — the input is its own im2col
//!   matrix: the forward and the input gradient are packed products with
//!   nothing lowered, the weight gradient is the rows path's;
//! * **stencil** (depthwise) — shifted multiply-adds over the padded
//!   planes, no GEMM at all.
//!
//! Every product runs on the packed engine in [`fca_tensor::gemm`] and adds
//! the bits the im2col lowering on that engine adds (`col` = im2col of the
//! input, `dX` = col2im of `Wᵀ·dY`); the stencil rounds exactly as that
//! engine would. DESIGN.md §7.2 (*Conv lowering*) has the operand table.

use crate::init::kaiming_normal;
use crate::module::{Module, Param};
use fca_tensor::gemm::{
    fmadd, gemm_packed, gemm_packed_arm, pack_a, pack_b, pack_b_at, packed_a_len, packed_b_len,
    Lhs, Store, KC, MR, NR,
};
use fca_tensor::rng::SnapRng;
use fca_tensor::simd::{self, Kernel};
use fca_tensor::workspace::as_u32s_mut;
use fca_tensor::{SlotId, Tensor, Workspace};
use fca_trace::OpId;

/// Convolution geometry, shared by forward and backward.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Square kernel extent.
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding in both dimensions.
    pub padding: usize,
    /// Channel groups (1 = dense convolution).
    pub groups: usize,
}

/// One axis of a phase class of the rows path's input gradient: the input
/// indices `first + s·a` for `a < count`, and the taps `q + s·j` for
/// `j < taps` that reach an output from them — input index `iy` reaches
/// output `(iy + p − kh)/s` exactly when `kh ≡ iy + p (mod s)`. A class is
/// a pair, `(y, x)`; at stride 1 there is one, every pixel with every tap.
#[derive(Clone, Copy)]
struct Phase {
    first: usize,
    count: usize,
    q: usize,
    taps: usize,
}

/// How a geometry is lowered (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Path {
    Stencil,
    Pointwise,
    Rows,
}

impl ConvGeometry {
    /// Output spatial size for an input of `(h, w)`; an axis the kernel does
    /// not fit into even once (`kernel > extent + 2·padding`) reports 0.
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let out = |extent: usize| {
            (extent + 2 * self.padding)
                .checked_sub(self.kernel)
                .map_or(0, |room| room / self.stride + 1)
        };
        (out(h), out(w))
    }

    /// The `s²` phase classes of an `h × w` input, in order of `(qy, qx)`;
    /// every tap belongs to exactly one, every pixel too.
    fn phases(&self, h: usize, w: usize) -> impl Iterator<Item = (Phase, Phase)> {
        let (k, s, p) = (self.kernel, self.stride, self.padding);
        let axis = move |q: usize, extent: usize| {
            let first = (q + s - p % s) % s;
            let (count, taps) = (
                extent.saturating_sub(first).div_ceil(s),
                k.saturating_sub(q).div_ceil(s),
            );
            Phase {
                first,
                count,
                q,
                taps,
            }
        };
        (0..s * s).map(move |q| (axis(q / s, h), axis(q % s, w)))
    }

    fn path(&self) -> Path {
        let depthwise = self.groups == self.in_channels && self.groups == self.out_channels;
        // One output pixel of a depthwise convolution is a `k²`-term
        // product; within one KC block the engine rounds it as a single
        // chain, which is what the stencil reproduces.
        if depthwise && self.kernel * self.kernel <= KC {
            Path::Stencil
        } else if self.kernel == 1 && self.stride == 1 && self.padding == 0 {
            Path::Pointwise
        } else {
            Path::Rows
        }
    }
}

/// `Conv2d` layer over NCHW tensors.
///
/// The weight is stored pre-flattened as `(out_channels, in_channels/groups ·
/// k·k)`, the rows of the im2col lowering's `W`.
///
/// A training forward leaves the batch's zero-bordered input planes in a
/// workspace slot, which backward's weight gradient reads in place, so
/// backward never lowers again and never clones the input.
pub struct Conv2d {
    geom: ConvGeometry,
    /// Flattened kernel weights.
    pub weight: Param,
    /// Per-output-channel bias.
    pub bias: Param,
    /// What a training forward caches for backward: the batch's padded
    /// planes, `Plan::cache_img` per image.
    col_slot: SlotId,
    /// Packed per-group weight panels, repacked by every call: what the
    /// pass's products take as their packed operand.
    wpack_slot: SlotId,
    /// The pass's offset tables, then the transients of the image in flight
    /// (`Plan::scratch_len`). Backward's weight gradient lays its operand
    /// and tables here once the per-image work is done.
    scratch_slot: SlotId,
    /// `[n, c, h, w]` of the last training forward (`n == 0` when there is
    /// none to backpropagate through).
    in_dims: [usize; 4],
}

/// The sizes forward and backward derive from the geometry and one input
/// shape. Both passes take their slots at these lengths, so a slot's
/// contents survive from one to the other.
struct Plan {
    path: Path,
    /// The input gradient as `dcol_g = W_gᵀ·dY_g` on the engine: a
    /// pointwise layer's, whose `dcol` is `dX` itself, and on the rows path,
    /// folded by col2im, below `MR` input channels per group, where the one
    /// product over the taps would fill fewer than half of its 16 lanes,
    /// and for a (strided) 1×1 kernel, whose one tap makes col2im a plain
    /// scatter.
    dcol: bool,
    oh: usize,
    ow: usize,
    icg: usize,
    ocg: usize,
    /// Rows of one group's im2col matrix: `icg · k · k`.
    kdim: usize,
    /// Output pixels of an image: `oh · ow`.
    row_len: usize,
    /// Images one forward product of the rows path reads: 1, or on a small
    /// output plane whose pixels would leave the last of an image's
    /// `MR`-row tiles mostly empty (and a kernel of more than one tap), the
    /// fewest whose pixels fill whole
    /// tiles (up to the batch's): their product goes into scratch, each output
    /// channel one line of all their pixels, then each image's stretch of
    /// a line into its plane.
    fwd_imgs: usize,
    /// Width of a zero-bordered input plane, `w + 2p`, and the distance
    /// between an image's planes, `(h + 2p) · wp`.
    wp: usize,
    plane: usize,
    /// Length of the stencil's *padded-flat* domain, output pixel `(oy, ox)`
    /// at `oy·s·wp + ox·s`: there tap `(kh, kw)` of a plane is the
    /// contiguous view starting `kh·wp + kw` in.
    flat: usize,
    /// The rows path's input gradient reads `dY` from zero-bordered planes
    /// `gw` wide and `gplane` apart, `dY[oy][ox]` at row and column `gb + o`:
    /// pixel `iy` of a phase class reads tap `j` at row `gb + (iy+p−q)/s − j`.
    gb: usize,
    gw: usize,
    gplane: usize,
    /// One image of the training cache in `col_slot`.
    cache_img: usize,
    /// One group's packed weight, the largest either pass packs.
    w_panels: usize,
    /// The `u32` offset tables at the head of scratch, for the pass that
    /// needs the most.
    tables_len: usize,
    /// Images per weight-gradient product: about one `KC` block of pixels
    /// (or the whole batch, if that is less), so the operands of a product
    /// stay cache-sized too.
    dw_imgs: usize,
    /// The whole scratch slot: the tables, then the transients of the image
    /// in flight (or of one batched forward product), whichever pass needs
    /// the most, so scratch stays cache-sized however large the batch is —
    /// or the weight gradient's operands, if those are longer.
    scratch_len: usize,
}

impl Plan {
    /// Where tap `t` (of a `k × k` kernel) starts its view of a padded plane.
    fn tap_at(&self, k: usize, t: usize) -> usize {
        t / k * self.wp + t % k
    }
}

impl Conv2d {
    /// New convolution with Kaiming-normal weights.
    ///
    /// Panics if channel counts are not divisible by `groups`.
    pub fn new(geom: ConvGeometry, rng: &mut SnapRng) -> Self {
        assert!(geom.groups >= 1, "groups must be >= 1");
        assert_eq!(
            geom.in_channels % geom.groups,
            0,
            "in_channels must divide by groups"
        );
        assert_eq!(
            geom.out_channels % geom.groups,
            0,
            "out_channels must divide by groups"
        );
        assert!(geom.stride >= 1, "stride must be >= 1");
        assert!(geom.kernel >= 1, "kernel must be >= 1");
        let k = geom.in_channels / geom.groups * geom.kernel * geom.kernel;
        let fan_in = k;
        Conv2d {
            geom,
            weight: Param::new(
                "conv.weight",
                kaiming_normal([geom.out_channels, k], fan_in, rng),
            ),
            bias: Param::new("conv.bias", Tensor::zeros([geom.out_channels])),
            col_slot: SlotId::fresh(),
            wpack_slot: SlotId::fresh(),
            scratch_slot: SlotId::fresh(),
            in_dims: [0; 4],
        }
    }

    /// Convenience constructor for dense convolutions.
    pub fn basic(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut SnapRng,
    ) -> Self {
        Conv2d::new(
            ConvGeometry {
                in_channels,
                out_channels,
                kernel,
                stride,
                padding,
                groups: 1,
            },
            rng,
        )
    }

    fn plan(&self, n: usize, h: usize, w: usize) -> Plan {
        let g = self.geom;
        let (oh, ow) = g.out_hw(h, w);
        assert!(
            oh > 0 && ow > 0,
            "conv output collapsed to zero for input {h}x{w}"
        );
        let path = g.path();
        let (c, oc) = (g.in_channels, g.out_channels);
        let (k, s, p) = (g.kernel, g.stride, g.padding);
        let taps = k * k;
        let icg = c / g.groups;
        let ocg = oc / g.groups;
        let kdim = icg * taps;
        let row_len = oh * ow;
        let (hp, wp) = (h + 2 * p, w + 2 * p);
        let plane = hp * wp;
        let flat = ((oh - 1) * wp + ow - 1) * s + 1;
        // Room for every output pixel and every row a phase class reads.
        let gb = k.div_ceil(s) - 1;
        let gw = gb + ow.max((w - 1 + p) / s + 1);
        let gplane = (gb + oh.max((h - 1 + p) / s + 1)) * gw;
        // At stride > 1, one phase class of one group's `dX`, pixel-major,
        // before it is scattered into place.
        let phase_tmp = usize::from(s > 1) * icg * h.div_ceil(s) * w.div_ceil(s);
        let dcol = match path {
            Path::Pointwise => true,
            Path::Rows => icg < MR || k == 1,
            Path::Stencil => false,
        };
        // The rows path's `dcol` input gradient: one group's packed `dY_g`
        // and `dcol`.
        let dcol_tmp = usize::from(dcol) * (packed_b_len(ocg, row_len) + kdim * row_len);
        // An image's tiles waste more than an eighth of their rows, on a
        // product long enough to pay for the copy out of scratch: a 1×1
        // kernel's `C_in/G` steps are not (its strided forward read 1.1×
        // the parent's batched, 0.9× image by image).
        let ragged = row_len.div_ceil(MR) * MR * 8 > row_len * 9;
        let fwd_imgs = if path == Path::Rows && ragged && k > 1 {
            // MR is a power of two: this many images' pixels are a multiple.
            (MR >> row_len.trailing_zeros().min(MR.trailing_zeros())).min(n.max(1))
        } else {
            1
        };
        // The batched forward's padded planes (inference) and product, one
        // group's.
        let fwd_tmp = fwd_imgs * c * plane + usize::from(fwd_imgs > 1) * fwd_imgs * row_len * ocg;
        let dw_imgs = (KC / row_len).clamp(1, n.max(1));
        let dw_k = dw_imgs * row_len;
        // The weight gradient: packed `dY_gᵀ` and its operand's two tables.
        let dw_scratch = match path {
            Path::Stencil => 0,
            _ => packed_b_len(dw_k, ocg) + kdim + dw_k,
        };
        let (tables_len, img_len, w_panels) = match path {
            // Forward: an inference image's padded planes, the accumulator.
            // Backward: the spread-out output gradient, a padded `dX` plane.
            Path::Stencil => (0, (c * plane + flat).max(flat + plane), 0),
            // The packed input, or the packed output gradient, every group.
            Path::Pointwise => (
                0,
                g.groups * packed_b_len(kdim, row_len).max(packed_b_len(ocg, row_len)),
                packed_a_len(ocg, kdim).max(packed_a_len(kdim, ocg)),
            ),
            // Forward: pixel and tap tables, the padded planes of an
            // inference product's images, a batched product. Backward: the
            // same for the input gradient, the padded output gradient and a
            // phase class's `dX`.
            Path::Rows => (
                (fwd_imgs * row_len + kdim).max(h * w + taps * ocg),
                fwd_tmp.max(oc * gplane + phase_tmp).max(dcol_tmp),
                packed_b_len(kdim, ocg)
                    .max(packed_b_len(taps * ocg, icg))
                    .max(usize::from(dcol) * packed_a_len(kdim, ocg)),
            ),
        };
        Plan {
            path,
            dcol,
            oh,
            ow,
            icg,
            ocg,
            kdim,
            row_len,
            fwd_imgs,
            wp,
            plane,
            flat,
            gb,
            gw,
            gplane,
            cache_img: c * plane,
            w_panels,
            tables_len,
            dw_imgs,
            scratch_len: (tables_len + img_len).max(dw_scratch),
        }
    }

    /// Pack every group's weight block as the A operand of `m × k` products
    /// (`trans` reads the block as its transpose), `w_panels` apart in
    /// `wpack`, under one pack span: the pointwise path's `W` and `Wᵀ`.
    fn pack_weights(&self, wpack: &mut [f32], plan: &Plan, (m, k): (usize, usize), trans: bool) {
        let span = fca_trace::clock();
        let blocks = self.weight.value.data().chunks_exact(m * k);
        for (w_g, pa) in blocks.zip(wpack.chunks_exact_mut(plan.w_panels)) {
            pack_a(w_g, m, k, trans, pa);
        }
        fca_trace::op(OpId::GemmPack, span);
    }

    /// Pack, for every group, the B operand of one of the rows path's
    /// products, `w_panels` apart, under one pack span: the forward's `W_gᵀ`
    /// (`kdim × ocg`), or, for each phase class in turn, the input
    /// gradient's `taps·ocg × icg` matrix whose row `(t, oc)` holds
    /// `W_g[oc][ci·k² + t]` for every `ci` — the class's taps in col2im's
    /// order, each tap's output channels a chain.
    fn pack_rows_weights(
        &self,
        wpack: &mut [f32],
        plan: &Plan,
        input_grad: Option<(usize, usize)>,
    ) {
        let span = fca_trace::clock();
        let (icg, ocg, kdim) = (plan.icg, plan.ocg, plan.kdim);
        let (k, s) = (self.geom.kernel, self.geom.stride);
        let blocks = self.weight.value.data().chunks_exact(ocg * kdim);
        for (w_g, mut pb) in blocks.zip(wpack.chunks_exact_mut(plan.w_panels)) {
            let Some((h, w)) = input_grad else {
                pack_b(w_g, kdim, ocg, true, pb);
                continue;
            };
            for (y, x) in self.geom.phases(h, w) {
                let rows = y.taps * x.taps * ocg;
                let (class, rest) = pb.split_at_mut(packed_b_len(rows, icg));
                pb = rest;
                for (pn, panel) in class.chunks_exact_mut(rows.max(1) * NR).enumerate() {
                    for (row, lanes) in panel.chunks_exact_mut(NR).enumerate() {
                        let (j, i) = (row / ocg / x.taps, row / ocg % x.taps);
                        let t = (y.q + s * j) * k + x.q + s * i;
                        let w_oc = &w_g[row % ocg * kdim..][..kdim];
                        for (l, d) in lanes.iter_mut().enumerate() {
                            let ci = pn * NR + l;
                            *d = if ci < icg { w_oc[ci * k * k + t] } else { 0.0 };
                        }
                    }
                }
            }
        }
        fca_trace::op(OpId::GemmPack, span);
    }

    /// Input and parameter gradients (`dx`: whether to compute the first).
    fn backprop(&mut self, grad_out: &Tensor, ws: &mut Workspace, dx: bool) -> Option<Tensor> {
        let bwd_span = fca_trace::clock();
        let [n, c, h, w] = self.in_dims;
        assert!(n > 0, "backward before a training forward on Conv2d");
        let g = self.geom;
        let plan = self.plan(n, h, w);
        let (oh, ow, row_len) = (plan.oh, plan.ow, plan.row_len);
        assert_eq!(
            grad_out.dims(),
            &[n, g.out_channels, oh, ow],
            "grad shape does not match the cached forward"
        );
        let gout = grad_out.data();

        // Same length as forward requested, so what it cached survives the
        // take/put round trip — no recompute, no input clone.
        let cache = ws.take_slot(self.col_slot, n * plan.cache_img);
        let mut scratch = ws.take_slot(self.scratch_slot, plan.scratch_len);
        let mut wpack = ws.take_slot(self.wpack_slot, g.groups * plan.w_panels);
        let dx = dx.then(|| {
            let mut dx = ws.tensor([n, c, h, w]);
            self.input_grad(gout, &plan, (&mut wpack, &mut scratch), &mut dx);
            dx
        });

        let dw = self.weight.grad.data_mut();
        match plan.path {
            Path::Stencil => stencil_weight_grad(dw, gout, &cache, &g, &plan),
            _ => {
                let arm = simd::active();
                accumulate_weight_grad(arm, dw, gout, &cache, &g, &plan, &mut scratch);
            }
        }

        // db: every plane of dY is summed pixel by pixel from −0.0, exactly
        // as `Iterator::sum` would, then added to its channel. Eight planes
        // go at a time so that eight independent chains of adds overlap.
        let db = self.bias.grad.data_mut();
        for gy in gout.chunks_exact(g.out_channels * row_len) {
            for (db8, planes) in db.chunks_mut(8).zip(gy.chunks(8 * row_len)) {
                // A short last group leaves its spare lanes empty; their
                // sums are computed and dropped.
                let mut rows: [_; 8] = std::array::from_fn(|lane| {
                    let plane = planes.get(lane * row_len..(lane + 1) * row_len);
                    plane.unwrap_or_default().iter()
                });
                let mut sums = [-0.0f32; 8];
                for _ in 0..row_len {
                    for (s, row) in sums.iter_mut().zip(&mut rows) {
                        *s += row.next().copied().unwrap_or(0.0);
                    }
                }
                for (d, s) in db8.iter_mut().zip(sums) {
                    *d += s;
                }
            }
        }

        ws.put_slot(self.col_slot, cache);
        ws.put_slot(self.scratch_slot, scratch);
        ws.put_slot(self.wpack_slot, wpack);
        fca_trace::op(OpId::ConvBackward, bwd_span);
        dx
    }

    /// `dX` of the last training forward's batch for the output gradient
    /// `gout`, every image of `dx` overwritten, image by image.
    fn input_grad(
        &self,
        gout: &[f32],
        plan: &Plan,
        (wpack, scratch): (&mut [f32], &mut [f32]),
        dx: &mut Tensor,
    ) {
        let g = self.geom;
        let [_, c, h, w] = self.in_dims;
        let (k, s) = (g.kernel, g.stride);
        let Plan {
            ocg, kdim, row_len, ..
        } = *plan;
        let img_sz = c * h * w;
        let out_img_sz = g.out_channels * row_len;
        match plan.path {
            Path::Stencil => {}
            _ if plan.dcol => self.pack_weights(wpack, plan, (kdim, ocg), true),
            _ => self.pack_rows_weights(wpack, plan, Some((h, w))),
        }
        // Phase class by phase class: its input pixels, then its taps of
        // every output channel.
        let (pixels, taps, tmp) = split_tables(scratch, plan, (h * w, k * k * ocg));
        if plan.path == Path::Rows && !plan.dcol {
            assert!(
                g.out_channels * plan.gplane <= u32::MAX as usize,
                "conv offsets overflow u32"
            );
            let (mut pixels, mut taps) = (&mut *pixels, &mut *taps);
            let (gb, gw, p) = (plan.gb, plan.gw, g.padding);
            for (y, x) in g.phases(h, w) {
                let (class, rest) = std::mem::take(&mut pixels).split_at_mut(y.count * x.count);
                pixels = rest;
                let top = gb + (y.first + p - y.q) / s + 1 - y.taps;
                let left = gb + (x.first + p - x.q) / s + 1 - x.taps;
                for (a, row) in class.chunks_exact_mut(x.count.max(1)).enumerate() {
                    for (b, o) in row.iter_mut().enumerate() {
                        *o = ((top + a) * gw + left + b) as u32;
                    }
                }
                let (class, rest) = std::mem::take(&mut taps).split_at_mut(y.taps * x.taps * ocg);
                taps = rest;
                for (t, chain) in class.chunks_exact_mut(ocg).enumerate() {
                    let back = (y.taps - 1 - t / x.taps) * gw + x.taps - 1 - t % x.taps;
                    for (oc, o) in chain.iter_mut().enumerate() {
                        *o = (oc * plan.gplane + back) as u32;
                    }
                }
            }
        }
        let tables = (&*pixels, &*taps);
        let weight = self.weight.value.data();
        for (i, dx_img) in dx.data_mut().chunks_exact_mut(img_sz).enumerate() {
            let gy = &gout[i * out_img_sz..(i + 1) * out_img_sz];
            match plan.path {
                Path::Stencil => {
                    let (dyf, dxp) = tmp.split_at_mut(plan.flat);
                    let dxp = &mut dxp[..plan.plane];
                    stencil_input_grad(gy, weight, &g, plan, (dyf, dxp), dx_img, (h, w));
                }
                _ if plan.dcol => self.dcol_input_grad(plan, wpack, gy, tmp, dx_img),
                _ => self.rows_input_grad(plan, tables, wpack, gy, tmp, dx_img),
            }
        }
    }

    /// The `dcol` input gradient of one image (`Plan::dcol`): per group,
    /// `dcol_g = W_gᵀ·dY_g` on the engine — a pointwise layer's straight
    /// into the group's `dX` planes, a rows-path layer's into scratch that
    /// [`col2im`] folds into them: the im2col lowering's input gradient.
    fn dcol_input_grad(
        &self,
        plan: &Plan,
        wpack: &[f32],
        gy: &[f32],
        tmp: &mut [f32],
        dx_img: &mut [f32],
    ) {
        let g = self.geom;
        let [_, _, h, w] = self.in_dims;
        let (icg, ocg, kdim, row_len) = (plan.icg, plan.ocg, plan.kdim, plan.row_len);
        let (pb, dcol) = tmp.split_at_mut(packed_b_len(ocg, row_len));
        let groups = gy
            .chunks_exact(ocg * row_len)
            .zip(dx_img.chunks_exact_mut(icg * h * w))
            .zip(wpack.chunks_exact(plan.w_panels));
        for ((gy_g, dx_g), pa) in groups {
            let span = fca_trace::clock();
            pack_b(gy_g, ocg, row_len, false, pb);
            fca_trace::op(OpId::GemmPack, span);
            let product = |c: &mut [f32]| {
                c.fill(0.0);
                let span = fca_trace::clock();
                let dims = (kdim, ocg, row_len);
                gemm_packed(Lhs::Packed(pa), pb, c, Store::rows(row_len), dims);
                let flops = 2 * (kdim * ocg * row_len) as u64;
                fca_trace::op_flops(OpId::GemmKernel, span, flops);
            };
            if plan.path == Path::Pointwise {
                product(dx_g);
                continue;
            }
            let dcol = &mut dcol[..kdim * row_len];
            product(dcol);
            let span = fca_trace::clock();
            col2im(dcol, &g, (h, w), (plan.oh, plan.ow), dx_g);
            fca_trace::op(OpId::Col2im, span);
        }
    }

    /// The rows path's `dX` of one image: its output gradient `gy` copied
    /// into zero-bordered planes, then per group and phase class one
    /// product over the class's taps, `C_out/G` steps a chain, stored
    /// transposed into the group's `dX` planes — straight at stride 1,
    /// through `phase_tmp` and a scatter otherwise.
    ///
    /// Every element of `dX` gets one add of its total over the taps, onto
    /// +0.0: that is the total's bits, and the total is col2im's sum of the
    /// `dcol` chains in its tap order. A tap that reads a border (output
    /// pixel off the map) adds a chain of +0.0 products, which is +0.0 and
    /// changes no bit of a total from +0.0; col2im skips it.
    fn rows_input_grad(
        &self,
        plan: &Plan,
        (pixels, taps): (&[u32], &[u32]),
        wpack: &[f32],
        gy: &[f32],
        tmp: &mut [f32],
        dx_img: &mut [f32],
    ) {
        let g = self.geom;
        let [_, _, h, w] = self.in_dims;
        let (icg, ocg, s) = (plan.icg, plan.ocg, g.stride);
        let (gyp, tmp) = tmp.split_at_mut(g.out_channels * plan.gplane);
        let span = fca_trace::clock();
        pad_planes(gy, (plan.oh, plan.ow), (plan.gb, plan.gw), gyp);
        fca_trace::op(OpId::Col2im, span);
        dx_img.fill(0.0);
        let span = fca_trace::clock();
        let mut flops = 0;
        let groups = gyp
            .chunks_exact(ocg * plan.gplane)
            .zip(dx_img.chunks_exact_mut(icg * h * w))
            .zip(wpack.chunks_exact(plan.w_panels));
        for ((src, dx_g), mut pb) in groups {
            let (mut pixels, mut taps) = (pixels, taps);
            for (y, x) in g.phases(h, w) {
                let (m, k) = (y.count * x.count, y.taps * x.taps * ocg);
                let a = Lhs::Rows {
                    src,
                    rows: &pixels[..m],
                    ks: &taps[..k],
                };
                let pb_c = &pb[..packed_b_len(k, icg)];
                (pixels, taps, pb) = (&pixels[m..], &taps[k..], &pb[pb_c.len()..]);
                if m * k == 0 {
                    continue;
                }
                flops += 2 * (m * k * icg) as u64;
                let store = Store::cols(m, Some(ocg));
                if s == 1 {
                    gemm_packed(a, pb_c, dx_g, store, (m, k, icg));
                    continue;
                }
                let class = &mut tmp[..icg * m];
                class.fill(0.0);
                gemm_packed(a, pb_c, class, store, (m, k, icg));
                for (dx_c, class_c) in dx_g.chunks_exact_mut(h * w).zip(class.chunks_exact(m)) {
                    for (a, row) in class_c.chunks_exact(x.count).enumerate() {
                        let dst = &mut dx_c[(y.first + a * s) * w + x.first..];
                        for (d, &v) in dst.iter_mut().step_by(s).zip(row) {
                            *d = v;
                        }
                    }
                }
            }
        }
        fca_trace::op_flops(OpId::GemmKernel, span, flops);
    }
}

/// Add `dcol` — one group's `icg·k² × oh·ow` input-gradient columns, rows
/// in `(ci, kh, kw)` order — into that group's `dx` planes (`icg × h × w`),
/// zeroed first: every input pixel gets the values of the taps that reach
/// it in `(kh, kw)` order, from +0.0, as the im2col lowering's col2im adds
/// them. `dcol` is scratch: at stride 1 on a plane as wide as its output, a
/// tap's rows land at one shift of the plane, so its valid span is added in
/// one pass with the columns that would wrap round a row edge zeroed first
/// — adding those +0.0s changes no bit, as `dx` started from +0.0 and a sum
/// from there never rounds to −0.0.
fn col2im(
    dcol: &mut [f32],
    g: &ConvGeometry,
    (h, w): (usize, usize),
    (oh, ow): (usize, usize),
    dx: &mut [f32],
) {
    let (k, s, p) = (g.kernel, g.stride, g.padding);
    // The outputs `o` whose input `o·s + t − p` lies in `0..extent`.
    let valid = |t: usize, extent: usize, outs: usize| {
        let lo = p.saturating_sub(t).div_ceil(s);
        let hi = (extent + p)
            .checked_sub(t)
            .map_or(0, |room| room.div_ceil(s));
        (lo.min(outs), hi.min(outs))
    };
    dx.fill(0.0);
    let add = |dst: &mut [f32], src: &[f32]| {
        for (d, &v) in dst.iter_mut().zip(src) {
            *d += v;
        }
    };
    for (plane, rows) in dx
        .chunks_exact_mut(h * w)
        .zip(dcol.chunks_exact_mut(k * k * oh * ow))
    {
        for (t, src) in rows.chunks_exact_mut(oh * ow).enumerate() {
            let (kh, kw) = (t / k, t % k);
            let ((y_lo, y_hi), (x_lo, x_hi)) = (valid(kh, h, oh), valid(kw, w, ow));
            if x_lo >= x_hi || y_lo >= y_hi {
                continue;
            }
            let at = |oy: usize, ox: usize| (oy * s + kh - p) * w + ox * s + kw - p;
            if s == 1 && ow == w {
                for row in src[y_lo * ow..y_hi * ow].chunks_exact_mut(ow) {
                    row[..x_lo].fill(0.0);
                    row[x_hi..].fill(0.0);
                }
                let span = &src[y_lo * ow + x_lo..(y_hi - 1) * ow + x_hi];
                let start = at(y_lo, x_lo);
                add(&mut plane[start..start + span.len()], span);
                continue;
            }
            for oy in y_lo..y_hi {
                let src = &src[oy * ow..][x_lo..x_hi];
                if s == 1 {
                    add(&mut plane[at(oy, x_lo)..], src);
                } else {
                    let dst = plane[at(oy, x_lo)..].iter_mut().step_by(s);
                    for (d, &v) in dst.zip(src) {
                        *d += v;
                    }
                }
            }
        }
    }
}

/// Cut the head of `scratch` into a pass's two `u32` offset tables of
/// `lens` (both empty off the rows path, which alone reads any) and hand
/// back the rest, the image in flight's chunk.
fn split_tables<'a>(
    scratch: &'a mut [f32],
    plan: &Plan,
    lens: (usize, usize),
) -> (&'a mut [u32], &'a mut [u32], &'a mut [f32]) {
    let (a, b) = if plan.path == Path::Rows {
        lens
    } else {
        (0, 0)
    };
    let (tables, tmp) = scratch.split_at_mut(plan.tables_len);
    let (first, second) = as_u32s_mut(tables).split_at_mut(a);
    (first, &mut second[..b], tmp)
}

/// Copy the planes of `img` (`h × w` each) into the zero-bordered planes of
/// `dst`, each `dst.len() / planes` long and `wp` wide, pixel `(y, x)` at
/// row and column `p + y`, `p + x`. Every float of `dst` is written —
/// borders too — so what the buffer held before (another layer's data,
/// NaN) never shows.
fn pad_planes(img: &[f32], (h, w): (usize, usize), (p, wp): (usize, usize), dst: &mut [f32]) {
    let planes = img.chunks_exact(h * w);
    let plane = dst.len() / (img.len() / (h * w));
    for (src, dst) in planes.zip(dst.chunks_exact_mut(plane)) {
        dst.fill(0.0);
        for (iy, row) in src.chunks_exact(w).enumerate() {
            let at = (iy + p) * wp + p;
            dst[at..at + w].copy_from_slice(row);
        }
    }
}

/// Depthwise forward of one image from its padded planes: per channel, one
/// multiply-add per tap over the padded-flat domain, in the engine's tap
/// order and rounding — a chain of [`fmadd`]s from 0.0, added to the bias —
/// then the output pixels are picked out of `acc` (`flat` long).
fn stencil_forward(
    padded: &[f32],
    weight: &[f32],
    bias: &[f32],
    geom: &ConvGeometry,
    plan: &Plan,
    acc: &mut [f32],
    out_img: &mut [f32],
) {
    let (k, s) = (geom.kernel, geom.stride);
    let channels = padded
        .chunks_exact(plan.plane)
        .zip(weight.chunks_exact(k * k));
    let outs = out_img.chunks_exact_mut(plan.row_len).zip(bias);
    for ((xp, taps), (out_c, &b)) in channels.zip(outs) {
        acc.fill(0.0);
        for (t, &wt) in taps.iter().enumerate() {
            let at = plan.tap_at(k, t);
            for (a, &x) in acc.iter_mut().zip(&xp[at..at + plan.flat]) {
                *a = fmadd(wt, x, *a);
            }
        }
        for (orow, arow) in out_c.chunks_exact_mut(plan.ow).zip(acc.chunks(s * plan.wp)) {
            for (o, &a) in orow.iter_mut().zip(arow.iter().step_by(s)) {
                *o = b + a;
            }
        }
    }
}

/// Depthwise input gradient of one image, the mirror of [`stencil_forward`]:
/// the output gradient is spread over the padded-flat domain (`dyf`, zero
/// between output pixels), each tap adds `w · dyf` into a padded `dX` plane
/// (`dxp`) at its shift — in col2im's tap order, product rounded before the
/// add as the engine's `dcol` is — and the interior is copied out. The zeros
/// in `dyf` add ±0.0 to sums that started at +0.0 and so change no bit.
fn stencil_input_grad(
    gy_img: &[f32],
    weight: &[f32],
    geom: &ConvGeometry,
    plan: &Plan,
    (dyf, dxp): (&mut [f32], &mut [f32]),
    dx_img: &mut [f32],
    (h, w): (usize, usize),
) {
    let (k, s, p) = (geom.kernel, geom.stride, geom.padding);
    let channels = gy_img
        .chunks_exact(plan.row_len)
        .zip(weight.chunks_exact(k * k));
    for ((gy_c, taps), dx_c) in channels.zip(dx_img.chunks_exact_mut(h * w)) {
        dyf.fill(0.0);
        for (grow, frow) in gy_c.chunks_exact(plan.ow).zip(dyf.chunks_mut(s * plan.wp)) {
            for (d, &g) in frow.iter_mut().step_by(s).zip(grow) {
                *d = g;
            }
        }
        dxp.fill(0.0);
        for (t, &wt) in taps.iter().enumerate() {
            let at = plan.tap_at(k, t);
            for (d, &g) in dxp[at..at + plan.flat].iter_mut().zip(&*dyf) {
                *d += wt * g;
            }
        }
        for (iy, row) in dx_c.chunks_exact_mut(w).enumerate() {
            let at = (iy + p) * plan.wp + p;
            row.copy_from_slice(&dxp[at..at + w]);
        }
    }
}

/// Depthwise weight gradient: per channel and tap, the running dot product
/// of the output gradient with the tap's view of the cached padded plane —
/// pixels in im2col order, `dw_imgs` images per product, one chain of
/// [`fmadd`]s from 0.0 per KC block of pixels added into `dw`: exactly the
/// engine's sequence for `dW_g += dY_g · col_gᵀ`.
fn stencil_weight_grad(
    dw: &mut [f32],
    gout: &[f32],
    cache: &[f32],
    geom: &ConvGeometry,
    plan: &Plan,
) {
    let k = geom.kernel;
    let mut offsets = [0usize; KC];
    for (t, at) in offsets.iter_mut().enumerate().take(k * k) {
        *at = plan.tap_at(k, t);
    }
    // A tap count known at compile time keeps the chains in registers.
    match k * k {
        9 => stencil_chains(&mut [0.0; 9], &offsets[..9], dw, gout, cache, geom, plan),
        taps => {
            let acc = &mut [0.0; KC][..taps];
            stencil_chains(acc, &offsets[..taps], dw, gout, cache, geom, plan)
        }
    }
}

/// [`stencil_weight_grad`]'s loops, one chain in `acc` per tap offset.
#[inline(always)]
fn stencil_chains(
    acc: &mut [f32],
    offsets: &[usize],
    dw: &mut [f32],
    gout: &[f32],
    cache: &[f32],
    geom: &ConvGeometry,
    plan: &Plan,
) {
    let out_img_sz = geom.out_channels * plan.row_len;
    let n = gout.len() / out_img_sz;
    for first in (0..n).step_by(plan.dw_imgs) {
        let imgs = first..n.min(first + plan.dw_imgs);
        for (ch, dw_c) in dw.chunks_exact_mut(offsets.len()).enumerate() {
            let mut end_block = |acc: &mut [f32]| {
                for (d, a) in dw_c.iter_mut().zip(acc) {
                    *d += *a;
                    *a = 0.0;
                }
            };
            acc.fill(0.0);
            let mut in_block = 0;
            for ni in imgs.clone() {
                let xp = &cache[ni * plan.cache_img + ch * plan.plane..][..plan.plane];
                let gy = &gout[ni * out_img_sz + ch * plan.row_len..][..plan.row_len];
                for (oy, grow) in gy.chunks_exact(plan.ow).enumerate() {
                    for (ox, &g) in grow.iter().enumerate() {
                        let x = &xp[(oy * plan.wp + ox) * geom.stride..];
                        for (a, &at) in acc.iter_mut().zip(offsets) {
                            *a = fmadd(g, x[at], *a);
                        }
                        in_block += 1;
                        if in_block == KC {
                            end_block(acc);
                            in_block = 0;
                        }
                    }
                }
            }
            if in_block > 0 {
                end_block(acc);
            }
        }
    }
}

/// `dW_g += dY_g · col_gᵀ` for every group, reduced over pixels and images,
/// on the engine (every path but the stencil).
///
/// The batch is taken `dw_imgs` images at a time. The product is taken the
/// other way round, `dW_gᵀ += col_g · dY_gᵀ`, stored transposed into `dw`:
/// row `(ci, kh, kw)` of `col_g` is the view `ci·plane + kh·wp + kw` of the
/// cached padded planes, read in place through an offset table
/// ([`Lhs::Rows`]) at every output pixel's `oy·s·wp + ox·s`, pixels in
/// im2col's order, and only `dY_gᵀ` is packed, image by image into its
/// k-segment of `scratch`. An exact product is symmetric, so a `dw` element
/// sees the partial sums of `dY_g · col_gᵀ` on the engine, fixed by the
/// shapes alone, and comes out bit-identical whatever the kernel `arm`.
fn accumulate_weight_grad(
    arm: Kernel,
    dw: &mut [f32],
    gout: &[f32],
    cache: &[f32],
    geom: &ConvGeometry,
    plan: &Plan,
    scratch: &mut [f32],
) {
    let &Plan {
        ocg,
        icg,
        kdim,
        row_len,
        dw_imgs,
        cache_img,
        ..
    } = plan;
    let (k, s) = (geom.kernel, geom.stride);
    let out_img_sz = geom.out_channels * row_len;
    let n = gout.len() / out_img_sz;
    let dw_k = dw_imgs * row_len;
    let (pb, rest) = scratch.split_at_mut(packed_b_len(dw_k, ocg));
    let (rows, ks) = as_u32s_mut(&mut rest[..kdim + dw_k]).split_at_mut(kdim);
    assert!(
        dw_imgs * cache_img <= u32::MAX as usize,
        "conv offsets overflow u32"
    );
    for (r, row) in rows.iter_mut().enumerate() {
        *row = (r / (k * k) * plan.plane + plan.tap_at(k, r % (k * k))) as u32;
    }
    for (i, ks_img) in ks.chunks_exact_mut(row_len).enumerate() {
        for (oy, ks_row) in ks_img.chunks_exact_mut(plan.ow).enumerate() {
            let at = i * cache_img + oy * s * plan.wp;
            for (ox, o) in ks_row.iter_mut().enumerate() {
                *o = (at + ox * s) as u32;
            }
        }
    }
    let store = Store::cols(kdim, None);
    for first in (0..n).step_by(dw_imgs) {
        let imgs = dw_imgs.min(n - first);
        let k = imgs * row_len;
        for (grp, dw_g) in dw.chunks_exact_mut(ocg * kdim).enumerate() {
            let span = fca_trace::clock();
            for i in 0..imgs {
                let ni = first + i;
                let gy_g = &gout[ni * out_img_sz + grp * ocg * row_len..][..ocg * row_len];
                pack_b_at(gy_g, row_len, ocg, true, pb, (k, i * row_len));
            }
            fca_trace::op(OpId::GemmPack, span);
            let span = fca_trace::clock();
            let a = Lhs::Rows {
                src: &cache[first * cache_img + grp * icg * plan.plane..],
                rows,
                ks: &ks[..k],
            };
            gemm_packed_arm(arm, a, pb, dw_g, store, (kdim, k, ocg));
            fca_trace::op_flops(OpId::GemmKernel, span, 2 * (ocg * k * kdim) as u64);
        }
    }
}

impl Module for Conv2d {
    fn forward(&mut self, x: &Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        let fwd_span = fca_trace::clock();
        let (n, c, h, w) = x.shape().as_nchw();
        let g = self.geom;
        assert_eq!(
            c, g.in_channels,
            "conv expects {} channels, got {c}",
            g.in_channels
        );
        let plan = self.plan(n, h, w);
        let Plan {
            oh,
            ow,
            icg,
            ocg,
            kdim,
            row_len,
            cache_img,
            ..
        } = plan;
        let (k, s) = (g.kernel, g.stride);
        let img_sz = c * h * w;
        let out_img_sz = g.out_channels * row_len;

        // Every element of `out` is overwritten, so unspecified pool
        // contents are fine.
        let mut out = ws.tensor([n, g.out_channels, oh, ow]);
        // Only a training forward keeps its padded planes; an inference
        // forward pads each image into scratch and leaves the slot alone.
        let mut cache = train.then(|| ws.take_slot(self.col_slot, n * cache_img));
        let mut scratch = ws.take_slot(self.scratch_slot, plan.scratch_len);
        // Each group's weight is packed once per call and read by every
        // image.
        let mut wpack = ws.take_slot(self.wpack_slot, g.groups * plan.w_panels);
        match plan.path {
            Path::Pointwise => self.pack_weights(&mut wpack, &plan, (ocg, kdim), false),
            Path::Rows => self.pack_rows_weights(&mut wpack, &plan, None),
            Path::Stencil => {}
        }
        // Output pixel (oy, ox) and tap (ci, kh, kw) of the padded planes.
        let (pixels, taps, tmp) =
            split_tables(&mut scratch, &plan, (plan.fwd_imgs * row_len, kdim));
        if plan.path == Path::Rows {
            let imgs = plan.fwd_imgs;
            assert!(
                imgs * cache_img <= u32::MAX as usize,
                "conv offsets overflow u32"
            );
            for (i, img) in pixels.chunks_exact_mut(row_len).enumerate() {
                for (oy, row) in img.chunks_exact_mut(ow).enumerate() {
                    for (ox, o) in row.iter_mut().enumerate() {
                        *o = (i * cache_img + (oy * plan.wp + ox) * s) as u32;
                    }
                }
            }
            for (r, o) in taps.iter_mut().enumerate() {
                *o = (r / (k * k) * plan.plane + plan.tap_at(k, r % (k * k))) as u32;
            }
        }
        let (pixels, taps) = (&*pixels, &*taps);
        let weight = self.weight.value.data();
        let bias = self.bias.value.data();
        let x_data = x.data();
        let fill_bias = |rows: &mut [f32]| {
            for (row, &b) in rows.chunks_exact_mut(row_len).zip(bias) {
                row.fill(b);
            }
        };

        let out_all = out.data_mut();
        let cache_all = cache.as_deref_mut().unwrap_or_default();
        if plan.path == Path::Pointwise {
            for (i, out_img) in out_all.chunks_exact_mut(out_img_sz).enumerate() {
                let img = &x_data[i * img_sz..(i + 1) * img_sz];
                // The input is its own im2col matrix; only a training
                // forward copies it, for the weight gradient.
                if train {
                    cache_all[i * cache_img..(i + 1) * cache_img].copy_from_slice(img);
                }
                let span = fca_trace::clock();
                let panels = packed_b_len(kdim, row_len);
                let groups = img.chunks_exact(kdim * row_len);
                for (x_g, pb) in groups.zip(tmp.chunks_exact_mut(panels)) {
                    pack_b(x_g, kdim, row_len, false, pb);
                }
                fca_trace::op(OpId::GemmPack, span);
                fill_bias(out_img);
                let span = fca_trace::clock();
                for ((y_g, pb), pa) in out_img
                    .chunks_exact_mut(ocg * row_len)
                    .zip(tmp.chunks_exact(panels))
                    .zip(wpack.chunks_exact(plan.w_panels))
                {
                    gemm_packed(
                        Lhs::Packed(pa),
                        pb,
                        y_g,
                        Store::rows(row_len),
                        (ocg, kdim, row_len),
                    );
                }
                let flops = 2 * (g.out_channels * kdim * row_len) as u64;
                fca_trace::op_flops(OpId::GemmKernel, span, flops);
            }
        } else {
            // `fwd_imgs` images at a time (one off the rows path).
            let batches = out_all.chunks_mut(plan.fwd_imgs * out_img_sz);
            for (b, out_b) in batches.enumerate() {
                let (first, imgs) = (b * plan.fwd_imgs, out_b.len() / out_img_sz);
                let x_b = &x_data[first * img_sz..][..imgs * img_sz];
                // The padded planes: written into the cache by a training
                // forward, into scratch otherwise.
                let pad_len = if train { 0 } else { plan.fwd_imgs * cache_img };
                let (pad_tmp, acc) = tmp.split_at_mut(pad_len);
                let padded = if train {
                    &mut cache_all[first * cache_img..][..imgs * cache_img]
                } else {
                    &mut pad_tmp[..imgs * cache_img]
                };
                let span = fca_trace::clock();
                for (img, dst) in x_b
                    .chunks_exact(img_sz)
                    .zip(padded.chunks_exact_mut(cache_img))
                {
                    pad_planes(img, (h, w), (g.padding, plan.wp), dst);
                }
                fca_trace::op(OpId::Im2col, span);
                if plan.path == Path::Stencil {
                    let acc = &mut acc[..plan.flat];
                    stencil_forward(padded, weight, bias, &g, &plan, acc, out_b);
                    continue;
                }
                let span = fca_trace::clock();
                let rows = &pixels[..imgs * row_len];
                let m = rows.len();
                // One image's product goes straight into its planes; several
                // images' into scratch, each output channel one line of all
                // their pixels, from which each image's stretch is its plane.
                let direct = plan.fwd_imgs == 1;
                for (grp, pb) in wpack.chunks_exact(plan.w_panels).enumerate() {
                    let a = Lhs::Rows {
                        src: &padded[grp * icg * plan.plane..],
                        rows,
                        ks: taps,
                    };
                    let y = if direct {
                        &mut out_b[grp * ocg * row_len..][..ocg * row_len]
                    } else {
                        &mut acc[..ocg * m]
                    };
                    for (line, &b) in y.chunks_exact_mut(m).zip(&bias[grp * ocg..]) {
                        line.fill(b);
                    }
                    gemm_packed(a, pb, y, Store::cols(m, None), (m, kdim, ocg));
                    if direct {
                        continue;
                    }
                    for (i, out_img) in out_b.chunks_exact_mut(out_img_sz).enumerate() {
                        let y_g = &mut out_img[grp * ocg * row_len..][..ocg * row_len];
                        let lines = y_g.chunks_exact_mut(row_len).zip(acc.chunks_exact(m));
                        for (plane, line) in lines {
                            plane.copy_from_slice(&line[i * row_len..][..row_len]);
                        }
                    }
                }
                let flops = 2 * (g.out_channels * kdim * m) as u64;
                fca_trace::op_flops(OpId::GemmKernel, span, flops);
            }
        }

        if let Some(cache) = cache {
            ws.put_slot(self.col_slot, cache);
        }
        ws.put_slot(self.scratch_slot, scratch);
        ws.put_slot(self.wpack_slot, wpack);
        // An inference forward caches nothing to backpropagate through.
        self.in_dims = if train { [n, c, h, w] } else { [0; 4] };
        fca_trace::op(OpId::ConvForward, fwd_span);
        out
    }

    fn backward(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        self.backprop(grad_out, ws, true)
            .expect("backprop returns dX when asked for it")
    }

    /// The parameter gradients alone: no input-gradient product at all.
    fn backward_params(&mut self, grad_out: &Tensor, ws: &mut Workspace) {
        self.backprop(grad_out, ws, false);
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }
}

/// Naive direct convolution, used as a test oracle.
pub fn conv2d_reference(x: &Tensor, weight: &Tensor, bias: &Tensor, geom: &ConvGeometry) -> Tensor {
    let (n, c, h, w) = x.shape().as_nchw();
    assert_eq!(c, geom.in_channels);
    let (oh, ow) = geom.out_hw(h, w);
    let icg = geom.in_channels / geom.groups;
    let ocg = geom.out_channels / geom.groups;
    let k = geom.kernel;
    let mut out = Tensor::zeros([n, geom.out_channels, oh, ow]);
    for ni in 0..n {
        for ocix in 0..geom.out_channels {
            let grp = ocix / ocg;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias.at(ocix);
                    for ci in 0..icg {
                        let cin = grp * icg + ci;
                        for kh in 0..k {
                            for kw in 0..k {
                                let iy = (oy * geom.stride + kh) as isize - geom.padding as isize;
                                let ix = (ox * geom.stride + kw) as isize - geom.padding as isize;
                                if iy < 0 || iy >= h as isize || ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let xi =
                                    x.data()[((ni * c + cin) * h + iy as usize) * w + ix as usize];
                                let wi = weight.data()[ocix * icg * k * k + (ci * k + kh) * k + kw];
                                acc += xi * wi;
                            }
                        }
                    }
                    out.data_mut()[((ni * geom.out_channels + ocix) * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }
    out
}

/// Naive direct convolution gradients, used as a test oracle: straight
/// loops over the definition, fresh buffers, f64 accumulators. Returns
/// `(dX, dW, db)` for an upstream gradient `grad_out`, with `dW` in the
/// layer's flattened `(out_channels, in_channels/groups · k·k)` layout.
pub fn conv2d_backward_reference(
    x: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    geom: &ConvGeometry,
) -> (Tensor, Tensor, Tensor) {
    let (n, c, h, w) = x.shape().as_nchw();
    assert_eq!(c, geom.in_channels);
    let (oh, ow) = geom.out_hw(h, w);
    assert_eq!(grad_out.dims(), &[n, geom.out_channels, oh, ow]);
    let icg = geom.in_channels / geom.groups;
    let ocg = geom.out_channels / geom.groups;
    let k = geom.kernel;
    let mut dx = vec![0.0f64; x.numel()];
    let mut dw = vec![0.0f64; weight.numel()];
    let mut db = vec![0.0f64; geom.out_channels];
    for ni in 0..n {
        #[expect(
            clippy::needless_range_loop,
            reason = "the reference reads as the seven-deep sum it is"
        )]
        for ocix in 0..geom.out_channels {
            let grp = ocix / ocg;
            for oy in 0..oh {
                for ox in 0..ow {
                    let gy = grad_out.data()[((ni * geom.out_channels + ocix) * oh + oy) * ow + ox];
                    db[ocix] += gy as f64;
                    for ci in 0..icg {
                        let cin = grp * icg + ci;
                        for kh in 0..k {
                            for kw in 0..k {
                                let iy = (oy * geom.stride + kh) as isize - geom.padding as isize;
                                let ix = (ox * geom.stride + kw) as isize - geom.padding as isize;
                                if iy < 0 || iy >= h as isize || ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let xi = ((ni * c + cin) * h + iy as usize) * w + ix as usize;
                                let wi = ocix * icg * k * k + (ci * k + kh) * k + kw;
                                dx[xi] += weight.data()[wi] as f64 * gy as f64;
                                dw[wi] += x.data()[xi] as f64 * gy as f64;
                            }
                        }
                    }
                }
            }
        }
    }
    let narrow = |v: Vec<f64>| v.into_iter().map(|e| e as f32).collect::<Vec<f32>>();
    (
        Tensor::from_vec(x.shape().clone(), narrow(dx)),
        Tensor::from_vec(weight.shape().clone(), narrow(dw)),
        Tensor::from_vec([geom.out_channels], narrow(db)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fca_tensor::rng::seeded_rng;

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.dims(), b.dims());
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "elem {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn forward_matches_reference_dense() {
        let mut rng = seeded_rng(61);
        let mut ws = Workspace::new();
        for &(stride, padding) in &[(1, 0), (1, 1), (2, 1)] {
            let geom = ConvGeometry {
                in_channels: 3,
                out_channels: 5,
                kernel: 3,
                stride,
                padding,
                groups: 1,
            };
            let mut conv = Conv2d::new(geom, &mut rng);
            let x = Tensor::randn([2, 3, 8, 8], 1.0, &mut rng);
            let y = conv.forward(&x, true, &mut ws);
            let yref = conv2d_reference(&x, &conv.weight.value, &conv.bias.value, &geom);
            assert_close(&y, &yref, 1e-4);
        }
    }

    #[test]
    fn forward_matches_reference_grouped() {
        let mut rng = seeded_rng(62);
        let mut ws = Workspace::new();
        let geom = ConvGeometry {
            in_channels: 4,
            out_channels: 8,
            kernel: 3,
            stride: 1,
            padding: 1,
            groups: 2,
        };
        let mut conv = Conv2d::new(geom, &mut rng);
        let x = Tensor::randn([2, 4, 6, 6], 1.0, &mut rng);
        let y = conv.forward(&x, true, &mut ws);
        let yref = conv2d_reference(&x, &conv.weight.value, &conv.bias.value, &geom);
        assert_close(&y, &yref, 1e-4);
    }

    #[test]
    fn output_geometry() {
        let geom = |kernel, stride, padding| ConvGeometry {
            in_channels: 1,
            out_channels: 1,
            kernel,
            stride,
            padding,
            groups: 1,
        };
        assert_eq!(geom(3, 2, 1).out_hw(32, 32), (16, 16));
        assert_eq!(geom(3, 2, 1).out_hw(28, 28), (14, 14));
        // (kernel, stride, padding, extent) -> outputs along that axis. The
        // kernel fitting exactly once gives 1; one larger gives 0, not 1.
        for &(k, s, p, extent, out) in &[
            (3, 1, 0, 3, 1),
            (4, 1, 0, 3, 0),
            (5, 1, 1, 3, 1),
            (6, 1, 1, 3, 0),
            (5, 2, 2, 1, 1),
            (7, 2, 2, 2, 0),
            (1, 1, 0, 1, 1),
            (3, 2, 0, 8, 3),
        ] {
            assert_eq!(
                geom(k, s, p).out_hw(extent, 9).0,
                out,
                "k{k} s{s} p{p} on {extent}"
            );
            assert_eq!(
                geom(k, s, p).out_hw(9, extent).1,
                out,
                "k{k} s{s} p{p} on {extent}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "collapsed")]
    fn oversized_kernel_panics_instead_of_yielding_a_bogus_map() {
        let mut rng = seeded_rng(69);
        let mut ws = Workspace::new();
        let mut conv = Conv2d::basic(1, 2, 5, 1, 0, &mut rng);
        conv.forward(&Tensor::zeros([1, 1, 4, 6]), true, &mut ws);
    }

    #[test]
    fn one_by_one_conv_is_channel_mix() {
        let mut rng = seeded_rng(63);
        let mut ws = Workspace::new();
        let geom = ConvGeometry {
            in_channels: 2,
            out_channels: 3,
            kernel: 1,
            stride: 1,
            padding: 0,
            groups: 1,
        };
        let mut conv = Conv2d::new(geom, &mut rng);
        let x = Tensor::randn([1, 2, 4, 4], 1.0, &mut rng);
        let y = conv.forward(&x, true, &mut ws);
        assert_eq!(y.dims(), &[1, 3, 4, 4]);
        let yref = conv2d_reference(&x, &conv.weight.value, &conv.bias.value, &geom);
        assert_close(&y, &yref, 1e-4);
    }

    #[test]
    fn backward_input_grad_matches_finite_difference() {
        let mut rng = seeded_rng(64);
        let mut ws = Workspace::new();
        let geom = ConvGeometry {
            in_channels: 2,
            out_channels: 3,
            kernel: 3,
            stride: 2,
            padding: 1,
            groups: 1,
        };
        let mut conv = Conv2d::new(geom, &mut rng);
        let x = Tensor::randn([1, 2, 5, 5], 1.0, &mut rng);
        let gy_template = Tensor::randn([1, 3, 3, 3], 1.0, &mut rng);

        let y = conv.forward(&x, true, &mut ws);
        assert_eq!(y.dims(), gy_template.dims());
        let dx = conv.backward(&gy_template, &mut ws);

        let loss = |conv: &mut Conv2d, x: &Tensor, ws: &mut Workspace| {
            let y = conv.forward(x, true, ws);
            y.data()
                .iter()
                .zip(gy_template.data())
                .map(|(a, b)| a * b)
                .sum::<f32>()
        };
        let h = 1e-2;
        for i in (0..x.numel()).step_by(7) {
            let mut xp = x.clone();
            xp.data_mut()[i] += h;
            let mut xm = x.clone();
            xm.data_mut()[i] -= h;
            let fd = (loss(&mut conv, &xp, &mut ws) - loss(&mut conv, &xm, &mut ws)) / (2.0 * h);
            let an = dx.at(i);
            assert!(
                (fd - an).abs() < 5e-2 * (1.0 + fd.abs()),
                "elem {i}: fd {fd} vs analytic {an}"
            );
        }
    }

    #[test]
    fn backward_weight_grad_matches_finite_difference() {
        let mut rng = seeded_rng(65);
        let mut ws = Workspace::new();
        let geom = ConvGeometry {
            in_channels: 2,
            out_channels: 2,
            kernel: 3,
            stride: 1,
            padding: 1,
            groups: 2,
        };
        let mut conv = Conv2d::new(geom, &mut rng);
        let x = Tensor::randn([2, 2, 4, 4], 1.0, &mut rng);
        let gy = Tensor::ones([2, 2, 4, 4]);

        let _ = conv.forward(&x, true, &mut ws);
        conv.zero_grad();
        let _ = conv.forward(&x, true, &mut ws);
        let _ = conv.backward(&gy, &mut ws);
        let analytic = conv.weight.grad.clone();

        let h = 1e-2;
        for i in 0..conv.weight.value.numel() {
            let orig = conv.weight.value.at(i);
            conv.weight.value.data_mut()[i] = orig + h;
            let fp = conv.forward(&x, true, &mut ws).sum();
            conv.weight.value.data_mut()[i] = orig - h;
            let fm = conv.forward(&x, true, &mut ws).sum();
            conv.weight.value.data_mut()[i] = orig;
            let fd = (fp - fm) / (2.0 * h);
            let an = analytic.at(i);
            assert!(
                (fd - an).abs() < 5e-2 * (1.0 + fd.abs()),
                "w[{i}]: fd {fd} vs analytic {an}"
            );
        }
    }

    #[test]
    fn backward_reuses_the_forward_cache_and_a_steady_state_allocates_nothing() {
        // Two identical forward/backward pairs must produce identical
        // gradients — proving the slot round trip preserves the cache —
        // and the second pair must be served entirely from the workspace,
        // on every lowering.
        let mut rng = seeded_rng(67);
        let geom = |stride, groups| ConvGeometry {
            in_channels: 4,
            out_channels: 4,
            kernel: 3,
            stride,
            padding: 1,
            groups,
        };
        for geom in [geom(1, 1), geom(2, 1), geom(1, 4), geom(2, 4)] {
            let mut ws = Workspace::new();
            let mut conv = Conv2d::new(geom, &mut rng);
            let (oh, ow) = geom.out_hw(6, 7);
            let x = Tensor::randn([2, 4, 6, 7], 1.0, &mut rng);
            let gy = Tensor::randn([2, 4, oh, ow], 1.0, &mut rng);

            let y1 = conv.forward(&x, true, &mut ws);
            let dx1 = conv.backward(&gy, &mut ws);
            let g1 = conv.weight.grad.clone();
            let dx1_bits = dx1.data().to_vec();
            ws.recycle(y1);
            ws.recycle(dx1);
            conv.zero_grad();
            ws.reset_stats();
            let _ = conv.forward(&x, true, &mut ws);
            let dx2 = conv.backward(&gy, &mut ws);
            assert_eq!(dx1_bits, dx2.data());
            assert_eq!(g1.data(), conv.weight.grad.data());
            let stats = ws.stats();
            assert_eq!(
                stats.allocations, 0,
                "steady-state pair allocated on {geom:?}: {stats:?}"
            );
            assert!(stats.reuses > 0, "workspace was never exercised: {stats:?}");
        }
    }

    #[test]
    #[should_panic(expected = "training forward")]
    fn backward_after_an_inference_forward_panics() {
        let mut rng = seeded_rng(70);
        let mut ws = Workspace::new();
        let mut conv = Conv2d::basic(2, 3, 1, 1, 0, &mut rng);
        let x = Tensor::randn([1, 2, 4, 4], 1.0, &mut rng);
        let y = conv.forward(&x, false, &mut ws);
        conv.backward(&y, &mut ws);
    }

    /// The per-pixel im2col: row `(ci, kh, kw)` of `col` holds, for every
    /// output pixel, the input that tap reads, or zero where it reads
    /// padding. With [`col2im_oracle`], the lowering every product of the
    /// layer is held to.
    fn im2col_oracle(img: &[f32], h: usize, w: usize, geom: &ConvGeometry, col: &mut [f32]) {
        let (k, s, p) = (geom.kernel, geom.stride, geom.padding);
        let (oh, ow) = geom.out_hw(h, w);
        let row_len = oh * ow;
        let mut row = 0;
        for plane in img.chunks(h * w) {
            for kh in 0..k {
                for kw in 0..k {
                    let dst = &mut col[row * row_len..(row + 1) * row_len];
                    for oy in 0..oh {
                        let iy = (oy * s + kh) as isize - p as isize;
                        for ox in 0..ow {
                            let ix = (ox * s + kw) as isize - p as isize;
                            let inside = iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize;
                            dst[oy * ow + ox] = if inside {
                                plane[iy as usize * w + ix as usize]
                            } else {
                                0.0
                            };
                        }
                    }
                    row += 1;
                }
            }
        }
    }

    /// The per-pixel col2im: fold `col` back into the (zeroed) planes of
    /// `dimg`, every input pixel's contributions added in `(kh, kw)` order.
    fn col2im_oracle(col: &[f32], h: usize, w: usize, geom: &ConvGeometry, dimg: &mut [f32]) {
        let (k, s, p) = (geom.kernel, geom.stride, geom.padding);
        let (oh, ow) = geom.out_hw(h, w);
        let row_len = oh * ow;
        let mut row = 0;
        for plane in dimg.chunks_mut(h * w) {
            for kh in 0..k {
                for kw in 0..k {
                    let src = &col[row * row_len..(row + 1) * row_len];
                    for oy in 0..oh {
                        let iy = (oy * s + kh) as isize - p as isize;
                        for ox in 0..ow {
                            let ix = (ox * s + kw) as isize - p as isize;
                            if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                plane[iy as usize * w + ix as usize] += src[oy * ow + ox];
                            }
                        }
                    }
                    row += 1;
                }
            }
        }
    }

    /// kernel × stride × padding × groups × batch over one input size, minus
    /// the geometries whose output collapses. `groups == 0` stands for
    /// depthwise.
    fn sweep((h, w): (usize, usize), mut case: impl FnMut(ConvGeometry, usize, usize, usize)) {
        let c = 4;
        for kernel in [1, 3, 5] {
            for stride in [1, 2] {
                for padding in [0, 1, 2] {
                    for groups in [1, 2, 0] {
                        let geom = ConvGeometry {
                            in_channels: c,
                            // 6 = 3 per group of 2: never a multiple of MR.
                            out_channels: if groups == 0 { c } else { 6 },
                            kernel,
                            stride,
                            padding,
                            groups: if groups == 0 { c } else { groups },
                        };
                        if geom.out_hw(h, w).0.min(geom.out_hw(h, w).1) == 0 {
                            continue;
                        }
                        for n in [1, 32] {
                            case(geom, n, h, w);
                        }
                    }
                }
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|e| e.to_bits()).collect()
    }

    /// Every product of the layer through the im2col lowering on the
    /// engine, as all geometries once ran: the oracle every lowering must
    /// match to the bit. Fresh buffers, one explicit kernel arm, the
    /// per-pixel [`im2col_oracle`] and [`col2im_oracle`]. Returns
    /// `(y, dX, dW)`, the weight gradient accumulated onto `dw`.
    fn gemm_lowering(
        arm: Kernel,
        conv: &Conv2d,
        x: &Tensor,
        gy: &Tensor,
        mut dw: Vec<f32>,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        use fca_tensor::gemm::pack_a_at;
        let g = conv.geom;
        let (n, c, h, w) = x.shape().as_nchw();
        let (oh, ow) = g.out_hw(h, w);
        let (icg, ocg) = (c / g.groups, g.out_channels / g.groups);
        let (kdim, row_len) = (icg * g.kernel * g.kernel, oh * ow);
        let col_img = g.groups * kdim * row_len;
        let weight = conv.weight.value.data();
        let mut cols = vec![f32::NAN; n * col_img];
        let mut y = vec![f32::NAN; n * g.out_channels * row_len];
        let mut dx = vec![0.0; x.numel()];
        let mut dcol = vec![f32::NAN; col_img];
        let mut pa = vec![f32::NAN; packed_a_len(ocg, kdim).max(packed_a_len(kdim, ocg))];
        let mut pb = vec![f32::NAN; packed_b_len(kdim, row_len).max(packed_b_len(ocg, row_len))];
        for ni in 0..n {
            let col = &mut cols[ni * col_img..(ni + 1) * col_img];
            im2col_oracle(&x.data()[ni * c * h * w..][..c * h * w], h, w, &g, col);
            for grp in 0..g.groups {
                let w_g = &weight[grp * ocg * kdim..][..ocg * kdim];
                let at = (ni * g.groups + grp) * ocg * row_len;
                let y_g = &mut y[at..at + ocg * row_len];
                for (plane, &b) in y_g
                    .chunks_exact_mut(row_len)
                    .zip(&conv.bias.value.data()[grp * ocg..])
                {
                    plane.fill(b);
                }
                pack_a(w_g, ocg, kdim, false, &mut pa);
                let col_g = &col[grp * kdim * row_len..][..kdim * row_len];
                pack_b(col_g, kdim, row_len, false, &mut pb);
                let dims = (ocg, kdim, row_len);
                gemm_packed_arm(arm, Lhs::Packed(&pa), &pb, y_g, Store::rows(row_len), dims);

                let dcol_g = &mut dcol[grp * kdim * row_len..][..kdim * row_len];
                dcol_g.fill(0.0);
                pack_a(w_g, kdim, ocg, true, &mut pa);
                pack_b(
                    &gy.data()[at..at + ocg * row_len],
                    ocg,
                    row_len,
                    false,
                    &mut pb,
                );
                let dims = (kdim, ocg, row_len);
                gemm_packed_arm(
                    arm,
                    Lhs::Packed(&pa),
                    &pb,
                    dcol_g,
                    Store::rows(row_len),
                    dims,
                );
            }
            col2im_oracle(&dcol, h, w, &g, &mut dx[ni * c * h * w..][..c * h * w]);
        }

        assert_eq!(dw.len(), weight.len());
        let dw_imgs = (KC / row_len).clamp(1, n);
        let mut pa = vec![f32::NAN; packed_a_len(ocg, dw_imgs * row_len)];
        let mut pb = vec![f32::NAN; packed_b_len(dw_imgs * row_len, kdim)];
        for first in (0..n).step_by(dw_imgs) {
            let imgs = dw_imgs.min(n - first);
            let k = imgs * row_len;
            for (grp, dw_g) in dw.chunks_exact_mut(ocg * kdim).enumerate() {
                for i in 0..imgs {
                    let at = ((first + i) * g.groups + grp) * ocg * row_len;
                    let gy_g = &gy.data()[at..at + ocg * row_len];
                    let col_g = &cols[(first + i) * col_img + grp * kdim * row_len..];
                    pack_a_at(gy_g, ocg, row_len, false, &mut pa, (k, i * row_len));
                    let col_g = &col_g[..kdim * row_len];
                    pack_b_at(col_g, row_len, kdim, true, &mut pb, (k, i * row_len));
                }
                gemm_packed_arm(
                    arm,
                    Lhs::Packed(&pa),
                    &pb,
                    dw_g,
                    Store::rows(kdim),
                    (ocg, k, kdim),
                );
            }
        }
        (y, dx, dw)
    }

    /// Every convolution the six architectures build on 12×12, 14×14 and
    /// 28×28 inputs of 1 and 3 channels, as `(geometry, h, w)`.
    fn zoo_geometries() -> Vec<(ConvGeometry, usize, usize)> {
        let geom = |c: [usize; 2], kernel, stride, padding, groups| ConvGeometry {
            in_channels: c[0],
            out_channels: c[1],
            kernel,
            stride,
            padding,
            groups,
        };
        let half = |n: usize| (n - 2) / 2 + 1;
        let mut all = Vec::new();
        for s in [12, 14, 28] {
            let (s2, s4) = (half(s), half(half(s)));
            for c in [1, 3] {
                // The stems: ResNet, ShuffleNet and GoogLeNet, AlexNet,
                // the FedAvg CNN, the four ProtoCnn widths.
                for oc in [16, 12, 8, 10, 12, 14] {
                    all.push((geom([c, oc], 3, 1, 1, 1), s, s));
                }
                all.push((geom([c, 16], 5, 1, 2, 1), s, s));
            }
            // MicroResNet.
            all.push((geom([16, 16], 3, 1, 1, 1), s, s));
            all.push((geom([16, 32], 3, 2, 1, 1), s, s));
            all.push((geom([16, 32], 1, 2, 0, 1), s, s));
            let s_down = (s - 1) / 2 + 1;
            all.push((geom([32, 32], 3, 1, 1, 1), s_down, s_down));
            // MicroShuffleNet.
            all.push((geom([16, 16], 1, 1, 0, 2), s, s));
            all.push((geom([16, 16], 3, 2, 1, 16), s, s));
            for (c, g) in [([16, 32], 1), ([32, 32], 2), ([32, 32], 1)] {
                all.push((geom(c, 1, 1, 0, g), s_down, s_down));
            }
            all.push((geom([32, 32], 3, 1, 1, 32), s_down, s_down));
            // MicroGoogLeNet, after one and two pools.
            for c in [[16, 8], [16, 4]] {
                all.push((geom(c, 1, 1, 0, 1), s2, s2));
            }
            for c in [[8, 12], [4, 12]] {
                all.push((geom(c, 3, 1, 1, 1), s2, s2));
            }
            for c in [[32, 8], [32, 4]] {
                all.push((geom(c, 1, 1, 0, 1), s4, s4));
            }
            for c in [[8, 16], [4, 8]] {
                all.push((geom(c, 3, 1, 1, 1), s4, s4));
            }
            // MicroAlexNet, the FedAvg CNN, ProtoCnn.
            all.push((geom([12, 24], 3, 1, 1, 1), s2, s2));
            all.push((geom([24, 32], 3, 1, 1, 1), s4, s4));
            all.push((geom([16, 32], 5, 1, 2, 1), s2, s2));
            for v in 0..4 {
                all.push((geom([8 + 2 * v, 16 + 2 * v], 3, 1, 1, 1), s2, s2));
            }
        }
        all
    }

    /// One case of the sweeps below: `proto`'s weights and bias, `dw0` in
    /// `weight.grad`, a training forward on `x` and backward on `gy`, run on
    /// slots adopted NaN-filled from a retired tenant, and held to the
    /// im2col lowering under every arm the machine has — output, input
    /// gradient and weight gradient to the bit. Returns `(y, dX, dW, db)`.
    fn lowering_case(
        proto: &Conv2d,
        x: &Tensor,
        gy: &Tensor,
        dw0: &Tensor,
        on: &str,
    ) -> [Tensor; 4] {
        let geom = proto.geom;
        let (n, _, h, w) = x.shape().as_nchw();
        // A retired tenant's slots, NaN-filled, for this layer to adopt.
        let mut ws = Workspace::new();
        let tenant = Conv2d::new(geom, &mut seeded_rng(1));
        let plan = tenant.plan(n, h, w);
        for (slot, len) in [
            (tenant.col_slot, n * plan.cache_img),
            (tenant.scratch_slot, plan.scratch_len),
            (tenant.wpack_slot, geom.groups * plan.w_panels),
        ] {
            let mut buf = ws.take_slot(slot, len);
            buf.fill(f32::NAN);
            ws.put_slot(slot, buf);
        }
        ws.retire_slots();
        let mut conv = Conv2d::new(geom, &mut seeded_rng(0));
        conv.weight.value = proto.weight.value.clone();
        conv.bias.value = proto.bias.value.clone();
        conv.weight.grad = dw0.clone();
        let y = conv.forward(x, true, &mut ws);
        let dx = conv.backward(gy, &mut ws);
        let one = [y, dx, conv.weight.grad, conv.bias.grad];
        for arm in simd::available() {
            let (y, dx, dw) = gemm_lowering(arm, proto, x, gy, dw0.data().to_vec());
            let arm = arm.as_str();
            assert_eq!(bits(one[0].data()), bits(&y), "forward {on}, arm {arm}");
            assert_eq!(bits(one[1].data()), bits(&dx), "dX {on}, arm {arm}");
            assert_eq!(bits(one[2].data()), bits(&dw), "dW {on}, arm {arm}");
        }
        one
    }

    /// The sweep: every zoo geometry, then every kernel 1/3/5 × stride 1/2
    /// × padding 0/1/2 × groups 1/2/depthwise on a ragged plane and on one
    /// smaller than the largest kernel (`C_in/G` below `MR`, `C_out/G` not
    /// a multiple of `MR` or `NR`); the rows path's own input gradient at
    /// `C_in/G` 12 and 16 (a ragged and a full 8-row tile of input
    /// channels) × groups 1/2 × kernel 3/5 × padding "same"/0 × stride 1/2
    /// on the ragged plane; and wide
    /// layers: `C_in/G` past one 16-lane panel, `C_out/G` past one KC
    /// block (two slabs in every tap's chain). Batches of 1, 2, 13 and 32, a
    /// pre-filled `dW`, random and all −0.0 output gradients; each case to
    /// the bit against the im2col lowering (see [`lowering_case`]), and
    /// within rounding of the naive references.
    #[test]
    fn every_product_matches_the_im2col_lowering_to_the_bit_across_threads_and_arms() {
        let mut rng = seeded_rng(72);
        let mut cases = zoo_geometries();
        // Non-square, and a plane smaller than the largest kernel.
        for hw in [(7, 10), (3, 4)] {
            sweep(hw, |geom, n, h, w| {
                if n == 1 {
                    cases.push((geom, h, w));
                }
            });
        }
        for icg in [12, 16] {
            for groups in [1, 2] {
                for kernel in [3, 5] {
                    for padding in [kernel / 2, 0] {
                        for stride in [1, 2] {
                            let geom = ConvGeometry {
                                in_channels: icg * groups,
                                out_channels: (icg + 2) * groups,
                                kernel,
                                stride,
                                padding,
                                groups,
                            };
                            cases.push((geom, 7, 10));
                        }
                    }
                }
            }
        }
        for (c, k, s) in [([20, 18], 3, 1), ([20, 18], 5, 2), ([2, 2 * KC + 4], 3, 1)] {
            let groups = if c[1] > KC { 2 } else { 1 };
            let geom = ConvGeometry {
                in_channels: c[0],
                out_channels: c[1],
                kernel: k,
                stride: s,
                padding: k / 2,
                groups,
            };
            cases.push((geom, 6, 5));
        }
        let (mut paths, mut wide) = (Vec::new(), (false, false));
        let (mut odd_panels, mut odd_rows) = (false, false);
        // The rows path's input-gradient product (not `Plan::dcol`), grouped
        // and unpadded, at each stride.
        let mut grouped_rows = [false; 2];
        for (geom, h, w) in cases {
            paths.push(geom.path());
            let rows_dx = geom.path() == Path::Rows
                && geom.in_channels / geom.groups >= fca_tensor::gemm::MR
                && geom.kernel > 1;
            if rows_dx && geom.groups > 1 && geom.padding == 0 {
                grouped_rows[geom.stride - 1] = true;
            }
            wide.0 |= geom.in_channels / geom.groups > NR && geom.path() == Path::Rows;
            wide.1 |= geom.out_channels / geom.groups > KC;
            let (oh, ow) = geom.out_hw(h, w);
            odd_panels |= (oh * ow) % NR != 0;
            odd_rows |= (geom.out_channels / geom.groups) % fca_tensor::gemm::MR != 0;
            let mut proto = Conv2d::new(geom, &mut rng);
            proto.bias.value = Tensor::randn([geom.out_channels], 1.0, &mut rng);
            let dw0 = Tensor::randn(proto.weight.grad.shape().clone(), 1.0, &mut rng);
            // 13 images: the batch's last forward product on a small plane
            // takes fewer images than the others.
            for n in [1, 2, 13, 32] {
                let x = Tensor::randn([n, geom.in_channels, h, w], 1.0, &mut rng);
                let random = Tensor::randn([n, geom.out_channels, oh, ow], 1.0, &mut rng);
                let negative_zeros = Tensor::full(random.shape().clone(), -0.0);
                let (pw, pb) = (&proto.weight.value, &proto.bias.value);
                let y_ref = conv2d_reference(&x, pw, pb, &geom);
                for (gy, sign) in [(random, "random"), (negative_zeros, "−0.0")] {
                    let on = format!("{geom:?} x{n} on {h}x{w}, {sign} dY");
                    let [y, dx, dw, db] = lowering_case(&proto, &x, &gy, &dw0, &on);
                    let (dx_ref, dw_ref, db_ref) = conv2d_backward_reference(&x, pw, &gy, &geom);
                    assert_close(&y, &y_ref, 1e-4);
                    assert_close(&dx, &dx_ref, 1e-4);
                    assert_close(&dw.sub(&dw0), &dw_ref, 1e-4);
                    assert_close(&db, &db_ref, 1e-4);
                }
            }
        }
        assert!(wide.0 && wide.1, "sweep lost its wide layers");
        assert!(odd_panels && odd_rows, "sweep lost its ragged panels");
        assert!(
            grouped_rows == [true; 2],
            "sweep lost the rows input gradient's grouped, unpadded layers"
        );
        for path in [Path::Stencil, Path::Pointwise, Path::Rows] {
            assert!(paths.contains(&path), "sweep never took {path:?}");
        }
    }

    /// An inference forward pads into scratch (or not at all) and must
    /// agree with the training one to the bit.
    #[test]
    fn inference_forward_equals_the_training_forward() {
        let mut rng = seeded_rng(77);
        let mut ws = Workspace::new();
        sweep((7, 10), |geom, n, h, w| {
            let conv = &mut Conv2d::new(geom, &mut rng);
            conv.bias.value = Tensor::randn([geom.out_channels], 1.0, &mut rng);
            let x = Tensor::randn([n, geom.in_channels, h, w], 1.0, &mut rng);
            let y = conv.forward(&x, true, &mut ws);
            let y_eval = conv.forward(&x, false, &mut ws);
            assert_eq!(bits(y_eval.data()), bits(y.data()), "{geom:?} x{n}");
            ws.recycle(y);
            ws.recycle(y_eval);
        });
    }

    /// A first layer's `backward_params` adds the parameter gradients
    /// `backward` adds, to the bit, with no input gradient: every zoo stem
    /// (and the sweep's geometries) over a pre-filled gradient.
    #[test]
    fn backward_params_adds_what_backward_adds() {
        let mut rng = seeded_rng(78);
        let mut cases: Vec<_> = zoo_geometries()
            .into_iter()
            .filter(|(g, _, _)| g.in_channels <= 3)
            .collect();
        sweep((5, 6), |geom, n, h, w| {
            if n == 1 {
                cases.push((geom, h, w));
            }
        });
        for (geom, h, w) in cases {
            let (oh, ow) = geom.out_hw(h, w);
            let proto = Conv2d::new(geom, &mut rng);
            let dw0 = Tensor::randn(proto.weight.grad.shape().clone(), 1.0, &mut rng);
            let x = Tensor::randn([3, geom.in_channels, h, w], 1.0, &mut rng);
            let gy = Tensor::randn([3, geom.out_channels, oh, ow], 1.0, &mut rng);
            let grads = |params_only: bool| {
                let mut ws = Workspace::new();
                let mut conv = Conv2d::new(geom, &mut seeded_rng(0));
                conv.weight.value = proto.weight.value.clone();
                conv.weight.grad = dw0.clone();
                let _ = conv.forward(&x, true, &mut ws);
                if params_only {
                    conv.backward_params(&gy, &mut ws);
                } else {
                    let _ = conv.backward(&gy, &mut ws);
                }
                (bits(conv.weight.grad.data()), bits(conv.bias.grad.data()))
            };
            assert_eq!(grads(true), grads(false), "{geom:?} on {h}x{w}");
        }
    }

    #[test]
    fn a_second_gradient_accumulates_onto_the_first_to_the_bit() {
        // The rows path adds into `dW` through a transposed store, the
        // stencil from registers: both must continue from what
        // `weight.grad` holds.
        let mut rng = seeded_rng(74);
        let mut ws = Workspace::new();
        sweep((5, 6), |geom, n, h, w| {
            if n > 1 {
                return;
            }
            let (oh, ow) = geom.out_hw(h, w);
            let mut conv = Conv2d::new(geom, &mut rng);
            let x = Tensor::randn([2, geom.in_channels, h, w], 1.0, &mut rng);
            let gy = Tensor::randn([2, geom.out_channels, oh, ow], 1.0, &mut rng);
            let _ = conv.forward(&x, true, &mut ws);
            let _ = conv.backward(&gy, &mut ws);
            let _ = conv.backward(&gy, &mut ws);
            let zeros = vec![0.0; conv.weight.grad.numel()];
            let (_, _, once) = gemm_lowering(simd::active(), &conv, &x, &gy, zeros);
            let (_, _, twice) = gemm_lowering(simd::active(), &conv, &x, &gy, once);
            assert_eq!(bits(conv.weight.grad.data()), bits(&twice), "{geom:?}");
        });
    }

    #[test]
    fn a_forward_on_adopted_nan_filled_slots_reads_none_of_it() {
        // A paged client's layers adopt the slots a previous tenant
        // retired: borders and slack of the padded planes are written by
        // every forward, never assumed to be zero.
        let mut rng = seeded_rng(75);
        sweep((6, 7), |geom, n, h, w| {
            if n > 1 {
                return;
            }
            let (oh, ow) = geom.out_hw(h, w);
            let x = Tensor::randn([3, geom.in_channels, h, w], 1.0, &mut rng);
            let gy = Tensor::randn([3, geom.out_channels, oh, ow], 1.0, &mut rng);
            let step = |conv: &mut Conv2d, ws: &mut Workspace| {
                let y_eval = conv.forward(&x, false, ws);
                let y = conv.forward(&x, true, ws);
                let dx = conv.backward(&gy, ws);
                [y_eval, y, dx].map(|t| bits(t.data()))
            };
            let mut tenant = Conv2d::new(geom, &mut rng);
            let clean = step(&mut tenant, &mut Workspace::new());
            let clean_dw = bits(tenant.weight.grad.data());

            let mut ws = Workspace::new();
            let plan = tenant.plan(3, h, w);
            for (slot, len) in [
                (tenant.col_slot, 3 * plan.cache_img),
                (tenant.scratch_slot, plan.scratch_len),
                (tenant.wpack_slot, geom.groups * plan.w_panels),
            ] {
                let mut buf = ws.take_slot(slot, len);
                buf.fill(f32::NAN);
                ws.put_slot(slot, buf);
            }
            ws.retire_slots();
            ws.reset_stats();
            let mut next = Conv2d::new(geom, &mut seeded_rng(0));
            next.weight.value = tenant.weight.value.clone();
            assert_eq!(step(&mut next, &mut ws), clean, "{geom:?}");
            assert_eq!(bits(next.weight.grad.data()), clean_dw, "{geom:?}");
            // The three tensors `step` returns; every slot was adopted.
            assert_eq!(ws.stats().allocations, 3, "slots not adopted: {geom:?}");
        });
    }

    #[test]
    #[should_panic(expected = "channels")]
    fn channel_mismatch_panics() {
        let mut rng = seeded_rng(66);
        let mut ws = Workspace::new();
        let mut conv = Conv2d::basic(3, 4, 3, 1, 1, &mut rng);
        let x = Tensor::zeros([1, 2, 8, 8]);
        conv.forward(&x, true, &mut ws);
    }
}
