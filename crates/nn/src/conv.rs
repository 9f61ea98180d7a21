//! 2-D convolution, lowered to im2col + GEMM, with stride, zero padding,
//! and grouped convolution (needed by the ShuffleNet blocks).
//!
//! Every product — forward, input gradient and weight gradient — runs on
//! the packed engine in [`fca_tensor::gemm`], and every byte the lowering
//! moves is moved by a row copy: the valid output range of a kernel tap is
//! worked out once per `(kh, kw)`, never per pixel. DESIGN.md §7.2 (*Conv
//! lowering*) has the operand table.

use crate::init::kaiming_normal;
use crate::module::{Module, Param};
use fca_tensor::gemm::{
    gemm_packed, gemm_packed_arm, pack_a, pack_a_at, pack_b, pack_b_at, packed_a_len, packed_b_len,
    KC,
};
use fca_tensor::quant::{gemm_quant, Precision};
use fca_tensor::simd::{self, Kernel};
use fca_tensor::{SlotId, Tensor, Workspace};
use fca_trace::OpId;
use rand::Rng;
use rayon::prelude::*;

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

    /// True for a 1×1, stride-1, unpadded convolution: its im2col matrix is
    /// the input itself, so nothing needs lowering.
    fn is_pointwise(&self) -> bool {
        self.kernel == 1 && self.stride == 1 && self.padding == 0
    }

    /// Output positions `[lo, hi)` along one axis whose tap `k` reads inside
    /// the input (`0 <= o·stride + k − padding < extent`); the rest of
    /// `[0, out)` reads padding.
    fn valid_outputs(&self, k: usize, extent: usize, out: usize) -> (usize, usize) {
        let hi = (extent + self.padding)
            .saturating_sub(k)
            .div_ceil(self.stride)
            .min(out);
        let lo = self.padding.saturating_sub(k).div_ceil(self.stride).min(hi);
        (lo, hi)
    }
}

/// `Conv2d` layer over NCHW tensors.
///
/// The weight is stored pre-flattened as `(out_channels, in_channels/groups ·
/// k·k)` so the forward pass is a single GEMM per image per group.
///
/// A training forward leaves the whole batch's im2col matrix in a workspace
/// slot; the backward pass reads it back, so it never re-runs im2col and
/// never clones the input.
pub struct Conv2d {
    geom: ConvGeometry,
    /// Flattened kernel weights.
    pub weight: Param,
    /// Per-output-channel bias.
    pub bias: Param,
    /// Batch im2col matrix, cached by a training forward for backward.
    col_slot: SlotId,
    /// Packed per-group weight panels: `W` in forward, `Wᵀ` in backward
    /// (repacked by every call).
    wpack_slot: SlotId,
    /// One chunk per rayon thread: the packed B panels of the image in
    /// flight and, where a pass lowers into a transient, that image's
    /// im2col-space matrix. Backward's weight gradient packs its operands
    /// here once the per-image work is done.
    scratch_slot: SlotId,
    /// `[n, c, h, w]` of the last training forward (`n == 0` when there is
    /// none to backpropagate through).
    in_dims: [usize; 4],
    /// Compute precision for inference-mode forwards (f32 by default).
    /// Training forwards and the backward pass are always f32.
    eval_precision: Precision,
}

/// The sizes forward and backward derive from the geometry and one input
/// shape. Both passes take their slots at these lengths, so a slot's
/// contents survive from one to the other.
struct Plan {
    oh: usize,
    ow: usize,
    ocg: usize,
    /// Rows of one group's im2col matrix: `icg · k · k`.
    kdim: usize,
    /// Columns of an image's im2col matrix: `oh · ow`.
    row_len: usize,
    /// One image's im2col matrix, all groups.
    col_img: usize,
    /// One group's packed im2col panels (forward B operand).
    col_panels: usize,
    /// One group's packed output-gradient panels (input-gradient B operand).
    gy_panels: usize,
    /// One group's packed weight block, as `W` or as `Wᵀ`.
    w_panels: usize,
    /// Consecutive images one rayon task works through with one scratch
    /// chunk: the batch is cut into a run per thread, so scratch stays
    /// cache-sized however large the batch is.
    run: usize,
    /// The panels at the head of a scratch chunk, all groups of one image.
    panels_len: usize,
    /// One scratch chunk: the panels, then one image's im2col-space matrix.
    scratch_run: usize,
    /// Images per weight-gradient product: about one `KC` block of pixels
    /// (or the whole batch, if that is less), so the operands of a product
    /// stay cache-sized too.
    dw_imgs: usize,
    /// The whole scratch slot.
    scratch_len: usize,
}

impl Conv2d {
    /// New convolution with Kaiming-normal weights.
    ///
    /// Panics if channel counts are not divisible by `groups`.
    pub fn new(geom: ConvGeometry, rng: &mut impl Rng) -> Self {
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
            eval_precision: Precision::F32,
        }
    }

    /// Convenience constructor for dense convolutions.
    pub fn basic(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut impl Rng,
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

    /// The layer's geometry.
    pub fn geometry(&self) -> ConvGeometry {
        self.geom
    }

    fn plan(&self, n: usize, h: usize, w: usize) -> Plan {
        let g = self.geom;
        let (oh, ow) = g.out_hw(h, w);
        assert!(
            oh > 0 && ow > 0,
            "conv output collapsed to zero for input {h}x{w}"
        );
        let icg = g.in_channels / g.groups;
        let ocg = g.out_channels / g.groups;
        let kdim = icg * g.kernel * g.kernel;
        let row_len = oh * ow;
        let col_panels = packed_b_len(kdim, row_len);
        let gy_panels = packed_b_len(ocg, row_len);
        let panels_len = g.groups * col_panels.max(gy_panels);
        let col_img = g.groups * kdim * row_len;
        let scratch_run = panels_len + if g.is_pointwise() { 0 } else { col_img };
        let threads = rayon::current_num_threads().max(1);
        let run = n.div_ceil(threads).max(1);
        let dw_imgs = (KC / row_len).clamp(1, n.max(1));
        let dw_k = dw_imgs * row_len;
        let dw_operands = packed_a_len(ocg, dw_k) + packed_b_len(dw_k, kdim);
        Plan {
            oh,
            ow,
            ocg,
            kdim,
            row_len,
            col_img,
            col_panels,
            gy_panels,
            w_panels: packed_a_len(ocg, kdim).max(packed_a_len(kdim, ocg)),
            run,
            panels_len,
            scratch_run,
            dw_imgs,
            scratch_len: (n.div_ceil(run) * scratch_run).max(dw_operands),
        }
    }

    /// Pack every group's weight block as the A operand of `m × k` products
    /// (`trans` reads the block as its transpose), `stride` apart in
    /// `wpack`, under one pack span.
    fn pack_weights(&self, wpack: &mut [f32], stride: usize, (m, k): (usize, usize), trans: bool) {
        let span = fca_trace::clock();
        let blocks = self.weight.value.data().chunks_exact(m * k);
        for (w_g, pa) in blocks.zip(wpack.chunks_exact_mut(stride)) {
            pack_a(w_g, m, k, trans, pa);
        }
        fca_trace::op(OpId::GemmPack, span);
    }
}

/// Fill `col` (`c·k·k` rows of `oh·ow`) from the `c` planes of `img`: row
/// `(ci, kh, kw)` holds, for every output pixel, the input that tap reads,
/// or zero where it reads padding.
fn im2col(
    img: &[f32],
    h: usize,
    w: usize,
    geom: &ConvGeometry,
    oh: usize,
    ow: usize,
    col: &mut [f32],
) {
    let k = geom.kernel;
    let (s, p) = (geom.stride, geom.padding);
    let row_len = oh * ow;
    debug_assert_eq!(col.len(), img.len() / (h * w) * k * k * row_len);
    let planes = img.chunks_exact(h * w);
    for (plane, rows) in planes.zip(col.chunks_exact_mut(k * k * row_len)) {
        for (tap, dst) in rows.chunks_exact_mut(row_len).enumerate() {
            let (kh, kw) = (tap / k, tap % k);
            let (oy_lo, oy_hi) = geom.valid_outputs(kh, h, oh);
            let (ox_lo, ox_hi) = geom.valid_outputs(kw, w, ow);
            if oy_lo == oy_hi || ox_lo == ox_hi {
                dst.fill(0.0);
                continue;
            }
            // Input index of output pixel (oy_lo, ox_lo); non-negative by
            // the definition of the valid range.
            let src0 = (oy_lo * s + kh - p) * w + ox_lo * s + kw - p;
            if s == 1 && ow == w {
                // A "same" convolution: output pixel j reads input j + δ for
                // one δ per tap, so the valid span is a single shifted copy.
                // The few pixels per row that wrapped round a row edge (the
                // right padding of one row runs into the left padding of
                // the next) are zeroed afterwards.
                let (lo, hi) = (oy_lo * ow + ox_lo, (oy_hi - 1) * ow + ox_hi);
                dst[..lo].fill(0.0);
                dst[lo..hi].copy_from_slice(&plane[src0..src0 + hi - lo]);
                dst[hi..].fill(0.0);
                zero_seams(&mut dst[oy_lo * ow..oy_hi * ow], ow, ox_lo, ox_hi);
                continue;
            }
            if (oy_hi - oy_lo) * (ox_hi - ox_lo) < row_len {
                dst.fill(0.0);
            }
            for (oy, drow) in dst.chunks_exact_mut(ow).enumerate().take(oy_hi).skip(oy_lo) {
                let src = &plane[src0 + (oy - oy_lo) * s * w..];
                let valid = &mut drow[ox_lo..ox_hi];
                if s == 1 {
                    valid.copy_from_slice(&src[..valid.len()]);
                } else {
                    for (d, &v) in valid.iter_mut().zip(src.iter().step_by(s)) {
                        *d = v;
                    }
                }
            }
        }
    }
}

/// Zero, between each pair of consecutive `ow`-pixel rows of `rows`, the
/// pixels from column `ox_hi` of one row to column `ox_lo` of the next:
/// where a span copied or added across whole rows wraps round a row edge.
/// At most `2·padding` pixels per seam, so the walk is down the rows, one
/// seam column at a time.
fn zero_seams(rows: &mut [f32], ow: usize, ox_lo: usize, ox_hi: usize) {
    let seams = rows.len() / ow - 1;
    for column in ox_hi..ow + ox_lo {
        for v in rows.iter_mut().skip(column).step_by(ow).take(seams) {
            *v = 0.0;
        }
    }
}

/// Fold `col` (the gradient of the im2col matrix, `c·k·k` rows of `oh·ow`)
/// back into the `c` planes of the gradient image `dimg`: zero it, then
/// scatter-add. Taps are visited in `(kh, kw)` order, which fixes the order
/// every input pixel's contributions are added in. `col` is scratch: the
/// "same"-convolution path zeroes pixels in it.
fn col2im(
    col: &mut [f32],
    h: usize,
    w: usize,
    geom: &ConvGeometry,
    oh: usize,
    ow: usize,
    dimg: &mut [f32],
) {
    let k = geom.kernel;
    let (s, p) = (geom.stride, geom.padding);
    let row_len = oh * ow;
    debug_assert_eq!(col.len(), dimg.len() / (h * w) * k * k * row_len);
    dimg.fill(0.0);
    let planes = dimg.chunks_exact_mut(h * w);
    for (plane, rows) in planes.zip(col.chunks_exact_mut(k * k * row_len)) {
        for (tap, src) in rows.chunks_exact_mut(row_len).enumerate() {
            let (kh, kw) = (tap / k, tap % k);
            let (oy_lo, oy_hi) = geom.valid_outputs(kh, h, oh);
            let (ox_lo, ox_hi) = geom.valid_outputs(kw, w, ow);
            if oy_lo == oy_hi || ox_lo == ox_hi {
                continue;
            }
            let dst0 = (oy_lo * s + kh - p) * w + ox_lo * s + kw - p;
            if s == 1 && ow == w {
                // The mirror of im2col's shifted copy: one long add over the
                // valid span, with the pixels that wrap round a row edge
                // zeroed first. Adding those zeros changes no bit: `dimg`
                // started from +0.0 and a sum never rounds to −0.0 from
                // there, so no element is ever the one value (−0.0) that
                // `+ 0.0` would alter.
                zero_seams(&mut src[oy_lo * ow..oy_hi * ow], ow, ox_lo, ox_hi);
                let span = &src[oy_lo * ow + ox_lo..(oy_hi - 1) * ow + ox_hi];
                for (d, &v) in plane[dst0..dst0 + span.len()].iter_mut().zip(span) {
                    *d += v;
                }
                continue;
            }
            for (oy, srow) in src.chunks_exact(ow).enumerate().take(oy_hi).skip(oy_lo) {
                let valid = &srow[ox_lo..ox_hi];
                let dst = &mut plane[dst0 + (oy - oy_lo) * s * w..];
                if s == 1 {
                    for (d, &v) in dst[..valid.len()].iter_mut().zip(valid) {
                        *d += v;
                    }
                } else {
                    for (d, &v) in dst.iter_mut().step_by(s).zip(valid) {
                        *d += v;
                    }
                }
            }
        }
    }
}

/// Hand every run of consecutive images to `body`, runs in parallel: the
/// run's index, its slice of `a`, its slice of `col` (an empty slice when
/// `col` is empty) and a scratch chunk of its own. Sizes are per run.
fn for_each_run<F>(
    (a, a_run): (&mut [f32], usize),
    (col, col_run): (&mut [f32], usize),
    (scratch, scratch_run): (&mut [f32], usize),
    body: F,
) where
    F: Fn(usize, &mut [f32], &mut [f32], &mut [f32]) + Sync + Send,
{
    let runs = a
        .par_chunks_mut(a_run)
        .zip(scratch.par_chunks_mut(scratch_run))
        .enumerate();
    if col.is_empty() {
        runs.for_each(|(r, (a, s))| body(r, a, &mut [], s));
    } else {
        runs.zip(col.par_chunks_mut(col_run))
            .for_each(|((r, (a, s)), c)| body(r, a, c, s));
    }
}

/// `dW_g += dY_g · col_gᵀ` for every group, reduced over pixels and images.
///
/// The batch is taken `dw_imgs` images at a time; each product packs both
/// operands image by image into their k-segment of `scratch` and the engine
/// reduces it in its fixed KC-block order. The sequence of products depends
/// on the shapes alone, so `dw` comes out bit-identical whatever the thread
/// count or kernel `arm`.
fn accumulate_weight_grad(
    arm: Kernel,
    dw: &mut [f32],
    gout: &[f32],
    col_all: &[f32],
    plan: &Plan,
    scratch: &mut [f32],
) {
    let &Plan {
        ocg,
        kdim,
        row_len,
        col_img,
        dw_imgs,
        ..
    } = plan;
    let out_img_sz = dw.len() / kdim * row_len;
    let n = gout.len() / out_img_sz;
    let (pa, pb) = scratch.split_at_mut(packed_a_len(ocg, dw_imgs * row_len));
    for first in (0..n).step_by(dw_imgs) {
        let imgs = dw_imgs.min(n - first);
        let k = imgs * row_len;
        for (grp, dw_g) in dw.chunks_exact_mut(ocg * kdim).enumerate() {
            let span = fca_trace::clock();
            for i in 0..imgs {
                let ni = first + i;
                let gy_g = &gout[ni * out_img_sz + grp * ocg * row_len..][..ocg * row_len];
                let col_g = &col_all[ni * col_img + grp * kdim * row_len..][..kdim * row_len];
                pack_a_at(gy_g, ocg, row_len, false, pa, (k, i * row_len));
                pack_b_at(col_g, row_len, kdim, true, pb, (k, i * row_len));
            }
            fca_trace::op(OpId::GemmPack, span);
            let span = fca_trace::clock();
            gemm_packed_arm(arm, pa, pb, dw_g, ocg, k, kdim);
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
            ocg,
            kdim,
            row_len,
            col_img,
            ..
        } = plan;
        let img_sz = c * h * w;
        let out_img_sz = g.out_channels * row_len;
        // Inference-only quantized path: `gemm_quant` owns its own
        // quantize-on-pack (thread-local scratch, sequential driver), so it
        // needs no shared f32 panels.
        let quantized = !train && self.eval_precision != Precision::F32;

        // Every element of `out` is overwritten (bias fill, then GEMM
        // accumulation on top), so unspecified pool contents are fine.
        let mut out = ws.tensor([n, g.out_channels, oh, ow]);
        // Only a training forward keeps the batch's im2col matrix; an
        // inference forward lowers each image into its run's scratch and
        // leaves the slot alone (resizing it would cost the next training
        // forward a batch-sized zero fill).
        let mut col_all = train.then(|| ws.take_slot(self.col_slot, n * col_img));
        let mut scratch = ws.take_slot(self.scratch_slot, plan.scratch_len);
        // Each group's weight is packed into MR-panels once per call and
        // shared read-only by every image in the rayon region.
        let mut wpack = ws.take_slot(self.wpack_slot, g.groups * plan.w_panels);
        if !quantized {
            self.pack_weights(&mut wpack, plan.w_panels, (ocg, kdim), false);
        }
        let weight = self.weight.value.data();
        let bias = self.bias.value.data();
        let x_data = x.data();

        for_each_run(
            (out.data_mut(), plan.run * out_img_sz),
            (
                col_all.as_deref_mut().unwrap_or_default(),
                plan.run * col_img,
            ),
            (&mut scratch, plan.scratch_run),
            |r, out_run, col_run, scratch| {
                let (panels, col_tmp) = scratch.split_at_mut(plan.panels_len);
                for (i, out_img) in out_run.chunks_exact_mut(out_img_sz).enumerate() {
                    let ni = r * plan.run + i;
                    let img = &x_data[ni * img_sz..(ni + 1) * img_sz];
                    // A pointwise convolution's im2col matrix is its input:
                    // nothing is lowered, and only a training forward copies
                    // it, for backward's weight gradient.
                    let lowered: &[f32] = if train || !g.is_pointwise() {
                        let col = if train {
                            &mut col_run[i * col_img..(i + 1) * col_img]
                        } else {
                            &mut *col_tmp
                        };
                        let span = fca_trace::clock();
                        if g.is_pointwise() {
                            col.copy_from_slice(img);
                        } else {
                            im2col(img, h, w, &g, oh, ow, col);
                        }
                        fca_trace::op(OpId::Im2col, span);
                        col
                    } else {
                        img
                    };
                    for (plane, &b) in out_img.chunks_exact_mut(row_len).zip(bias) {
                        plane.fill(b);
                    }
                    let cols = lowered.chunks_exact(kdim * row_len);
                    if quantized {
                        let dims = (ocg, kdim, row_len);
                        for ((y_g, col_g), w_g) in out_img
                            .chunks_exact_mut(ocg * row_len)
                            .zip(cols)
                            .zip(weight.chunks_exact(ocg * kdim))
                        {
                            gemm_quant(w_g, col_g, y_g, dims, (false, false), self.eval_precision);
                        }
                        continue;
                    }
                    let span = fca_trace::clock();
                    for (col_g, pb) in cols.zip(panels.chunks_exact_mut(plan.col_panels)) {
                        pack_b(col_g, kdim, row_len, false, pb);
                    }
                    fca_trace::op(OpId::GemmPack, span);
                    let span = fca_trace::clock();
                    for ((y_g, pb), pa) in out_img
                        .chunks_exact_mut(ocg * row_len)
                        .zip(panels.chunks_exact(plan.col_panels))
                        .zip(wpack.chunks_exact(plan.w_panels))
                    {
                        gemm_packed(pa, pb, y_g, ocg, kdim, row_len);
                    }
                    let flops = 2 * (g.out_channels * kdim * row_len) as u64;
                    fca_trace::op_flops(OpId::GemmKernel, span, flops);
                }
            },
        );

        if let Some(col_all) = col_all {
            ws.put_slot(self.col_slot, col_all);
        }
        ws.put_slot(self.scratch_slot, scratch);
        ws.put_slot(self.wpack_slot, wpack);
        // An inference forward caches nothing to backpropagate through.
        self.in_dims = if train { [n, c, h, w] } else { [0; 4] };
        fca_trace::op(OpId::ConvForward, fwd_span);
        out
    }

    fn backward(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let bwd_span = fca_trace::clock();
        let [n, c, h, w] = self.in_dims;
        assert!(n > 0, "backward before a training forward on Conv2d");
        let g = self.geom;
        let plan = self.plan(n, h, w);
        let Plan {
            oh,
            ow,
            ocg,
            kdim,
            row_len,
            col_img,
            ..
        } = plan;
        assert_eq!(
            grad_out.dims(),
            &[n, g.out_channels, oh, ow],
            "grad shape does not match the cached forward"
        );
        let img_sz = c * h * w;
        let out_img_sz = g.out_channels * row_len;
        let gout = grad_out.data();

        // Same length as forward requested, so the cached im2col contents
        // survive the take/put round trip — no recompute, no input clone.
        let col_all = ws.take_slot(self.col_slot, n * col_img);
        let mut scratch = ws.take_slot(self.scratch_slot, plan.scratch_len);
        // Pack Wᵀ per group once (`dCol = Wᵀ·dY` reads the weight with the
        // roles of its axes swapped — a pack-time layout choice).
        let mut wpack = ws.take_slot(self.wpack_slot, g.groups * plan.w_panels);
        self.pack_weights(&mut wpack, plan.w_panels, (kdim, ocg), true);
        // Every image of `dx` is zeroed just before it is accumulated into
        // (by col2im, or below for a pointwise convolution).
        let mut dx = ws.tensor([n, c, h, w]);

        // dX: parallel over runs of images.
        for_each_run(
            (dx.data_mut(), plan.run * img_sz),
            (&mut [], 0),
            (&mut scratch, plan.scratch_run),
            |r, dx_run, _, scratch| {
                let (panels, dcol) = scratch.split_at_mut(plan.panels_len);
                for (i, dx_img) in dx_run.chunks_exact_mut(img_sz).enumerate() {
                    let ni = r * plan.run + i;
                    let gy = &gout[ni * out_img_sz..(ni + 1) * out_img_sz];
                    let span = fca_trace::clock();
                    for (gy_g, pb) in gy
                        .chunks_exact(ocg * row_len)
                        .zip(panels.chunks_exact_mut(plan.gy_panels))
                    {
                        pack_b(gy_g, ocg, row_len, false, pb);
                    }
                    fca_trace::op(OpId::GemmPack, span);
                    // A pointwise convolution's im2col-space gradient is dX
                    // itself; otherwise it is a transient that col2im folds.
                    let dcol_img: &mut [f32] = if g.is_pointwise() {
                        &mut *dx_img
                    } else {
                        &mut *dcol
                    };
                    dcol_img.fill(0.0);
                    let span = fca_trace::clock();
                    for ((dcol_g, pb), pa) in dcol_img
                        .chunks_exact_mut(kdim * row_len)
                        .zip(panels.chunks_exact(plan.gy_panels))
                        .zip(wpack.chunks_exact(plan.w_panels))
                    {
                        gemm_packed(pa, pb, dcol_g, kdim, ocg, row_len);
                    }
                    let flops = 2 * (g.out_channels * kdim * row_len) as u64;
                    fca_trace::op_flops(OpId::GemmKernel, span, flops);
                    if !g.is_pointwise() {
                        let span = fca_trace::clock();
                        col2im(dcol, h, w, &g, oh, ow, dx_img);
                        fca_trace::op(OpId::Col2im, span);
                    }
                }
            },
        );

        let dw = self.weight.grad.data_mut();
        accumulate_weight_grad(simd::active(), dw, gout, &col_all, &plan, &mut scratch);

        // db: every plane of dY is summed pixel by pixel from −0.0, exactly
        // as `Iterator::sum` would, then added to its channel. Eight planes
        // go at a time so that eight independent chains of adds overlap.
        let db = self.bias.grad.data_mut();
        for gy in gout.chunks_exact(out_img_sz) {
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

        ws.put_slot(self.col_slot, col_all);
        ws.put_slot(self.scratch_slot, scratch);
        ws.put_slot(self.wpack_slot, wpack);
        fca_trace::op(OpId::ConvBackward, bwd_span);
        dx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn set_eval_precision(&mut self, precision: Precision) {
        self.eval_precision = precision;
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
    fn quantized_eval_forward_tracks_f32_and_leaves_training_alone() {
        let mut rng = seeded_rng(68);
        let mut ws = Workspace::new();
        let geom = ConvGeometry {
            in_channels: 3,
            out_channels: 5,
            kernel: 3,
            stride: 1,
            padding: 1,
            groups: 1,
        };
        let mut conv = Conv2d::new(geom, &mut rng);
        let x = Tensor::randn([2, 3, 8, 8], 1.0, &mut rng);
        let exact = conv.forward(&x, false, &mut ws);
        for prec in [Precision::F16, Precision::Int8] {
            conv.set_eval_precision(prec);
            let q = conv.forward(&x, false, &mut ws);
            assert_close(&q, &exact, 0.25);
            // Training forwards must stay bit-identical f32.
            let t = conv.forward(&x, true, &mut ws);
            assert_eq!(t.data(), exact.data(), "{prec:?} leaked into training");
        }
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
    fn backward_reuses_forward_im2col_cache() {
        // Two identical forward/backward pairs must produce identical
        // gradients — proving the slot round trip preserves the cache —
        // and the second pair must be served entirely from the workspace.
        let mut rng = seeded_rng(67);
        let mut ws = Workspace::new();
        let geom = ConvGeometry {
            in_channels: 3,
            out_channels: 4,
            kernel: 3,
            stride: 1,
            padding: 1,
            groups: 1,
        };
        let mut conv = Conv2d::new(geom, &mut rng);
        let x = Tensor::randn([2, 3, 6, 6], 1.0, &mut rng);
        let gy = Tensor::randn([2, 4, 6, 6], 1.0, &mut rng);

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
            "steady-state pair allocated: {stats:?}"
        );
        assert!(stats.reuses > 0, "workspace was never exercised: {stats:?}");
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

    /// The pre-rewrite per-pixel im2col, kept as the oracle for the
    /// row-copy one.
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

    /// The pre-rewrite per-pixel col2im, kept as the oracle likewise.
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

    #[test]
    fn lowering_equals_the_per_pixel_oracles_to_the_bit() {
        let mut rng = seeded_rng(71);
        // Non-square, a single row (no seam to zero), and a plane smaller
        // than the largest kernel.
        for hw in [(7, 10), (1, 9), (3, 3)] {
            sweep(hw, |geom, n, h, w| {
                if n > 1 {
                    return; // the lowering works on one image
                }
                let (oh, ow) = geom.out_hw(h, w);
                let c = geom.in_channels;
                let col_len = c * geom.kernel * geom.kernel * oh * ow;
                let img = Tensor::randn([c * h * w], 1.0, &mut rng);
                let mut col = vec![f32::NAN; col_len];
                let mut col_ref = vec![f32::NAN; col_len];
                im2col(img.data(), h, w, &geom, oh, ow, &mut col);
                im2col_oracle(img.data(), h, w, &geom, &mut col_ref);
                assert_eq!(bits(&col), bits(&col_ref), "im2col {geom:?} on {hw:?}");

                // Random gradients, then all −0.0: the one input for which
                // an added +0.0 would show.
                let random = Tensor::randn([col_len], 1.0, &mut rng);
                for dcol in [random.data().to_vec(), vec![-0.0f32; col_len]] {
                    let mut dimg = vec![f32::NAN; c * h * w];
                    let mut dimg_ref = vec![0.0f32; c * h * w];
                    col2im_oracle(&dcol, h, w, &geom, &mut dimg_ref);
                    col2im(&mut dcol.clone(), h, w, &geom, oh, ow, &mut dimg);
                    assert_eq!(bits(&dimg), bits(&dimg_ref), "col2im {geom:?} on {hw:?}");
                }
            });
        }
    }

    #[test]
    fn forward_and_all_gradients_match_the_naive_references() {
        let mut rng = seeded_rng(72);
        let mut ws = Workspace::new();
        let (mut odd_panels, mut odd_rows) = (false, false);
        sweep((7, 10), |geom, n, h, w| {
            let (oh, ow) = geom.out_hw(h, w);
            odd_panels |= (oh * ow) % fca_tensor::gemm::NR != 0;
            odd_rows |= (geom.out_channels / geom.groups) % fca_tensor::gemm::MR != 0;
            let mut conv = Conv2d::new(geom, &mut rng);
            conv.bias.value = Tensor::randn([geom.out_channels], 1.0, &mut rng);
            let x = Tensor::randn([n, geom.in_channels, h, w], 1.0, &mut rng);
            let gy = Tensor::randn([n, geom.out_channels, oh, ow], 1.0, &mut rng);
            let y = conv.forward(&x, true, &mut ws);
            let dx = conv.backward(&gy, &mut ws);
            let y_ref = conv2d_reference(&x, &conv.weight.value, &conv.bias.value, &geom);
            let (dx_ref, dw_ref, db_ref) =
                conv2d_backward_reference(&x, &conv.weight.value, &gy, &geom);
            assert_close(&y, &y_ref, 1e-4);
            assert_close(&dx, &dx_ref, 1e-4);
            assert_close(&conv.weight.grad, &dw_ref, 1e-4);
            assert_close(&conv.bias.grad, &db_ref, 1e-4);
            // An inference forward lowers into scratch (or not at all) and
            // must agree with the training one to the bit.
            let y_eval = conv.forward(&x, false, &mut ws);
            assert_eq!(bits(y_eval.data()), bits(y.data()), "eval forward {geom:?}");
            for t in [y, dx, y_eval] {
                ws.recycle(t);
            }
        });
        assert!(odd_panels && odd_rows, "sweep lost its ragged panels");
    }

    #[test]
    fn gradients_are_bit_identical_across_thread_counts_and_arms() {
        let mut rng = seeded_rng(73);
        let geom = |c: [usize; 2], kernel, stride, padding, groups| ConvGeometry {
            in_channels: c[0],
            out_channels: c[1],
            kernel,
            stride,
            padding,
            groups,
        };
        for (geom, n, h, w) in [
            // Dense 3×3 with ragged panels; more images than one dW product.
            (geom([5, 11], 3, 1, 1, 1), 9, 7, 10),
            // Depthwise, strided.
            (geom([6, 6], 3, 2, 1, 6), 5, 9, 8),
            // Pointwise, grouped.
            (geom([8, 12], 1, 1, 0, 2), 7, 6, 5),
        ] {
            let (oh, ow) = geom.out_hw(h, w);
            let proto = Conv2d::new(geom, &mut rng);
            let x = Tensor::randn([n, geom.in_channels, h, w], 1.0, &mut rng);
            let gy = Tensor::randn([n, geom.out_channels, oh, ow], 1.0, &mut rng);
            let run = |threads: usize| {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("pool");
                pool.install(|| {
                    let mut ws = Workspace::new();
                    let mut conv = Conv2d::new(geom, &mut seeded_rng(0));
                    conv.weight.value = proto.weight.value.clone();
                    let y = conv.forward(&x, true, &mut ws);
                    let dx = conv.backward(&gy, &mut ws);
                    (
                        bits(y.data()),
                        bits(dx.data()),
                        bits(conv.weight.grad.data()),
                    )
                })
            };
            let one = run(1);
            assert_eq!(one, run(4), "thread count changed bits for {geom:?}");

            // Every arm, on the same operands the layer used.
            let mut ws = Workspace::new();
            let mut conv = Conv2d::new(geom, &mut seeded_rng(0));
            conv.weight.value = proto.weight.value.clone();
            let _ = conv.forward(&x, true, &mut ws);
            let plan = conv.plan(n, h, w);
            let col_all = ws.take_slot(conv.col_slot, n * plan.col_img);
            let mut scratch = vec![f32::NAN; plan.scratch_len];
            for arm in simd::available() {
                let mut dw = vec![0.0f32; conv.weight.grad.numel()];
                accumulate_weight_grad(arm, &mut dw, gy.data(), &col_all, &plan, &mut scratch);
                assert_eq!(
                    bits(&dw),
                    one.2,
                    "arm {} changed dW for {geom:?}",
                    arm.as_str()
                );
            }
        }
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
