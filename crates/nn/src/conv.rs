//! 2-D convolution with stride, zero padding and grouped convolution
//! (needed by the ShuffleNet blocks).
//!
//! The geometry alone picks one of three lowerings (`Path`):
//!
//! * **view** (stride 1) — each image is copied once into zero-bordered
//!   planes, in which every kernel tap is a contiguous shifted view: the
//!   forward packs its operand straight from that copy and the weight
//!   gradient reads it in place, so the im2col matrix is never written; with
//!   at least `MR` input channels per group the input gradient adds tap by
//!   tap into padded planes of its own, so neither is its gradient;
//! * **stencil** (depthwise) — shifted multiply-adds over the same padded
//!   planes, no GEMM at all;
//! * **im2col** (stride > 1) — the lowered matrix, every byte of it moved by
//!   a row copy.
//!
//! Every product of the first and last runs on the packed engine in
//! [`fca_tensor::gemm`], in one `k` order; the stencil rounds exactly as that
//! engine would. DESIGN.md §7.2 (*Conv lowering*) has the operand table.

use crate::init::kaiming_normal;
use crate::module::{Module, Param};
use fca_tensor::gemm::{
    fmadd, gemm_packed, gemm_packed_arm, pack_a, pack_a_at, pack_b, pack_b_at, packed_a_len,
    packed_b_len, Lhs, KC, MR, NR,
};
use fca_tensor::rng::SnapRng;
use fca_tensor::simd::{self, Kernel};
use fca_tensor::workspace::as_u32s_mut;
use fca_tensor::{SlotId, Tensor, Workspace};
use fca_trace::OpId;
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

/// How a geometry is lowered (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Path {
    Stencil,
    View,
    Im2col,
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

    /// True for a 1×1, stride-1, unpadded convolution: its padded planes are
    /// the input itself, so the forward copies nothing to pack from.
    fn is_pointwise(&self) -> bool {
        self.kernel == 1 && self.stride == 1 && self.padding == 0
    }

    fn path(&self) -> Path {
        let depthwise = self.groups == self.in_channels && self.groups == self.out_channels;
        // One output pixel of a depthwise convolution is a `k²`-term
        // product; within one KC block the engine rounds it as a single
        // chain, which is what the stencil reproduces.
        if depthwise && self.kernel * self.kernel <= KC {
            Path::Stencil
        } else if self.stride == 1 {
            Path::View
        } else {
            Path::Im2col
        }
    }

    /// True when a view-path layer's input gradient is accumulated tap by
    /// tap into padded planes rather than folded from `dcol` by col2im: one
    /// product per tap has `C_in/G` rows, so it needs a full register tile
    /// of them (every layer timed with 1–6 read 1.08–2.4× slower that way,
    /// EXPERIMENTS.md *Conv backward in place*), and `C_out/G` must
    /// fit one KC block, where a product's sum over output channels is a
    /// single chain — across two blocks `dcol`'s rounding would differ.
    fn input_grad_by_taps(&self) -> bool {
        self.path() == Path::View
            && !self.is_pointwise()
            && self.in_channels / self.groups >= MR
            && self.out_channels / self.groups <= KC
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
/// A training forward leaves what backward's weight gradient reads in a
/// workspace slot — the batch's zero-bordered input planes, or its im2col
/// matrix where the geometry is lowered that way — so backward never
/// lowers again and never clones the input.
pub struct Conv2d {
    geom: ConvGeometry,
    /// Flattened kernel weights.
    pub weight: Param,
    /// Per-output-channel bias.
    pub bias: Param,
    /// What a training forward caches for backward: the batch's padded
    /// planes (`Plan::cache_img` per image), or its im2col matrix.
    col_slot: SlotId,
    /// Packed per-group weight panels: `W` in forward, `Wᵀ` — or its rows
    /// tap by tap — in backward (repacked by every call).
    wpack_slot: SlotId,
    /// One chunk per rayon thread: the packed B panels of the image in
    /// flight and that image's transients (`Plan::tail_len`). Backward's
    /// weight gradient lays its operand and offset tables here once the
    /// per-image work is done.
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
    /// [`ConvGeometry::input_grad_by_taps`].
    by_taps: bool,
    oh: usize,
    ow: usize,
    icg: usize,
    ocg: usize,
    /// Rows of one group's im2col matrix: `icg · k · k`.
    kdim: usize,
    /// Output pixels of an image: `oh · ow`.
    row_len: usize,
    /// Height and width of a zero-bordered plane: `h + 2p`, `w + 2p`.
    hp: usize,
    wp: usize,
    /// Distance between the planes of a padded image: `hp · wp` and, for the
    /// view path, the slack that lets the last panel be packed by full-width
    /// copies.
    plane: usize,
    /// Length of the *padded-flat* domain, output pixel `(oy, ox)` at
    /// `oy·s·wp + ox·s`: there tap `(kh, kw)` of a plane is the contiguous
    /// view starting `kh·wp + kw` in. The positions in between (for stride
    /// 1, the `k − 1` seam columns after each row) are computed and dropped.
    flat: usize,
    /// One image of the training cache in `col_slot`.
    cache_img: usize,
    /// One image's im2col matrix, all groups.
    col_img: usize,
    /// One group's packed forward B operand.
    col_panels: usize,
    /// One group's packed output-gradient panels (input-gradient B operand):
    /// `dY_g` as it is, or spread over the padded-flat domain (`by_taps`).
    gy_panels: usize,
    /// One tap's rows of `W_gᵀ` (`icg × ocg`), packed.
    tap_panels: usize,
    /// One group's packed weight block, as `W`, as `Wᵀ` or as `k²` blocks of
    /// `tap_panels`.
    w_panels: usize,
    /// Consecutive images one rayon task works through with one scratch
    /// chunk: the batch is cut into a run per thread, so scratch stays
    /// cache-sized however large the batch is.
    run: usize,
    /// The panels at the head of a scratch chunk, all groups of one image.
    panels_len: usize,
    /// The view path's product of one image with its seams still in:
    /// `out_channels · flat`, at the head of the tail (0 where there are
    /// no seams to drop).
    seamed_len: usize,
    /// The rest of a scratch chunk: one image's transients, whichever pass
    /// needs the most (see the `split_at_mut`s in forward and backward).
    tail_len: usize,
    /// Images per weight-gradient product: about one `KC` block of pixels
    /// (or the whole batch, if that is less), so the operands of a product
    /// stay cache-sized too.
    dw_imgs: usize,
    /// The whole scratch slot.
    scratch_len: usize,
}

impl Plan {
    fn scratch_run(&self) -> usize {
        self.panels_len + self.tail_len
    }

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
        let icg = c / g.groups;
        let ocg = oc / g.groups;
        let kdim = icg * g.kernel * g.kernel;
        let row_len = oh * ow;
        let col_img = g.groups * kdim * row_len;
        let (hp, wp) = (h + 2 * g.padding, w + 2 * g.padding);
        let flat = match path {
            Path::Im2col => row_len,
            _ => ((oh - 1) * wp + ow - 1) * g.stride + 1,
        };
        let col_panels = packed_b_len(kdim, flat);
        let by_taps = g.input_grad_by_taps();
        let gy_panels = packed_b_len(ocg, if by_taps { flat } else { row_len });
        let plane = match path {
            // The last panel's copies run up to NR − 1 floats past `flat`.
            Path::View if !g.is_pointwise() => hp * wp + col_panels / kdim - flat,
            _ => hp * wp,
        };
        let threads = rayon::current_num_threads().max(1);
        let run = n.div_ceil(threads).max(1);
        let dw_imgs = (KC / row_len).clamp(1, n.max(1));
        let dw_k = dw_imgs * row_len;
        let dw_operands = packed_a_len(ocg, dw_k) + packed_b_len(dw_k, kdim);
        let seamed_len = match path {
            Path::View if flat != row_len => oc * flat,
            _ => 0,
        };
        let tap_panels = packed_a_len(icg, ocg);
        let w_panels = match path {
            Path::Stencil => 0,
            _ if by_taps => packed_a_len(ocg, kdim).max(g.kernel * g.kernel * tap_panels),
            _ => packed_a_len(ocg, kdim).max(packed_a_len(kdim, ocg)),
        };
        let (cache_img, tail_len, dw_scratch) = match path {
            // Forward: an inference image's padded planes, the accumulator.
            // Backward: the spread-out output gradient, a padded `dX` plane.
            Path::Stencil => {
                let tail = (c * plane + flat).max(flat + hp * wp);
                (c * plane, tail, 0)
            }
            // A pointwise layer pads nothing, folds nothing and packs its
            // weight gradient from the cache as it is.
            Path::View if g.is_pointwise() => (c * plane, 0, dw_operands),
            // Forward: the product with its seams still in, an inference
            // image's padded planes. Backward: one group's spread-out output
            // gradient and the image's padded `dX` planes, or `dcol`. The
            // weight gradient: packed `dY_gᵀ`, the transposed `dW`, and the
            // row and pixel offset tables of its in-place A.
            Path::View => {
                let backward = if by_taps {
                    ocg * flat + c * plane
                } else {
                    col_img
                };
                let dw_views = packed_b_len(dw_k, ocg) + oc * kdim + kdim + dw_k;
                (c * plane, (seamed_len + c * plane).max(backward), dw_views)
            }
            // An inference forward's `col`, backward's `dcol`.
            Path::Im2col => (col_img, col_img, dw_operands),
        };
        let panels_len = match path {
            Path::Stencil => 0,
            _ => g.groups * col_panels.max(gy_panels),
        };
        Plan {
            path,
            by_taps,
            oh,
            ow,
            icg,
            ocg,
            kdim,
            row_len,
            hp,
            wp,
            plane,
            flat,
            cache_img,
            col_img,
            col_panels,
            gy_panels,
            tap_panels,
            w_panels,
            run,
            panels_len,
            seamed_len,
            tail_len,
            dw_imgs,
            scratch_len: (n.div_ceil(run) * (panels_len + tail_len)).max(dw_scratch),
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

    /// Pack, for every group and tap `t`, the A operand of that tap's input
    /// gradient product: rows `(ci, t)` of `W_gᵀ`, `icg × ocg`, element
    /// `(ci, oc) = W_g[oc][ci·k² + t]`, into `k²` blocks of `tap_panels`,
    /// `w_panels` apart per group, under one pack span.
    fn pack_tap_weights(&self, wpack: &mut [f32], plan: &Plan) {
        let span = fca_trace::clock();
        let (icg, ocg, kdim) = (plan.icg, plan.ocg, plan.kdim);
        let taps = self.geom.kernel * self.geom.kernel;
        let blocks = self.weight.value.data().chunks_exact(ocg * kdim);
        for (w_g, pw) in blocks.zip(wpack.chunks_exact_mut(plan.w_panels)) {
            for (t, pa) in pw.chunks_exact_mut(plan.tap_panels).take(taps).enumerate() {
                for (p, panel) in pa.chunks_exact_mut(ocg * MR).enumerate() {
                    for (w_oc, lanes) in w_g.chunks_exact(kdim).zip(panel.chunks_exact_mut(MR)) {
                        for (l, d) in lanes.iter_mut().enumerate() {
                            let ci = p * MR + l;
                            *d = if ci < icg { w_oc[ci * taps + t] } else { 0.0 };
                        }
                    }
                }
            }
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

/// Copy the planes of `img` (`h × w` each) into the zero-bordered planes of
/// `dst`. Every float of `dst` is written — borders and slack too — so what
/// the buffer held before (another layer's data, NaN) never shows.
fn pad_planes(img: &[f32], (h, w): (usize, usize), p: usize, plan: &Plan, dst: &mut [f32]) {
    let planes = img.chunks_exact(h * w);
    for (src, dst) in planes.zip(dst.chunks_exact_mut(plan.plane)) {
        dst.fill(0.0);
        for (iy, row) in src.chunks_exact(w).enumerate() {
            let at = (iy + p) * plan.wp + p;
            dst[at..at + w].copy_from_slice(row);
        }
    }
}

/// Pack one group's `kdim × flat` forward operand into B panels straight
/// from its padded planes: row `(ci, kh, kw)` — the engine's `k` order, as
/// im2col lays it out — is the view `kh·wp + kw` into plane `ci`, so a panel
/// row is one full-width copy.
fn pack_view(planes: &[f32], k: usize, plan: &Plan, pb: &mut [f32]) {
    for (pn, panel) in pb.chunks_exact_mut(plan.kdim * NR).enumerate() {
        let channels = panel.chunks_exact_mut(k * k * NR);
        for (rows, plane) in channels.zip(planes.chunks_exact(plan.plane)) {
            for (kh, rows) in rows.chunks_exact_mut(k * NR).enumerate() {
                let at = kh * plan.wp + pn * NR;
                let taps = &plane[at..at + k - 1 + NR];
                for (kw, row) in rows.chunks_exact_mut(NR).enumerate() {
                    row.copy_from_slice(&taps[kw..kw + NR]);
                }
            }
        }
    }
}

/// Compact product rows from the padded-flat domain (`flat` per channel,
/// `wp` per image row) into the `oh × ow` planes of `out`.
fn drop_seams(c: &[f32], plan: &Plan, out: &mut [f32]) {
    let channels = c.chunks_exact(plan.flat);
    for (src, dst) in channels.zip(out.chunks_exact_mut(plan.row_len)) {
        for (drow, srow) in dst.chunks_exact_mut(plan.ow).zip(src.chunks(plan.wp)) {
            drow.copy_from_slice(&srow[..plan.ow]);
        }
    }
}

/// Spread one group's output gradient (`ocg` planes of `oh × ow`) over the
/// padded-flat domain: row `oy` of a plane lands at `oy·wp` of its `flat`
/// row of `dyf`, and the `wp − ow` seam positions after it are zero.
fn spread_rows(gy_g: &[f32], plan: &Plan, dyf: &mut [f32]) {
    let (ow, wp) = (plan.ow, plan.wp);
    let planes = gy_g.chunks_exact(plan.row_len);
    for (src, dst) in planes.zip(dyf.chunks_exact_mut(plan.flat)) {
        for (srow, drow) in src.chunks_exact(ow).zip(dst.chunks_mut(wp)) {
            drow[..ow].copy_from_slice(srow);
            drow[ow..].fill(0.0);
        }
    }
}

/// Copy the interior `h × w` of every padded plane of `padded` into the
/// planes of `img`: the inverse of [`pad_planes`].
fn unpad_planes(padded: &[f32], (h, w): (usize, usize), p: usize, plan: &Plan, img: &mut [f32]) {
    let planes = padded.chunks_exact(plan.plane);
    for (src, dst) in planes.zip(img.chunks_exact_mut(h * w)) {
        for (iy, row) in dst.chunks_exact_mut(w).enumerate() {
            let at = (iy + p) * plan.wp + p;
            row.copy_from_slice(&src[at..at + w]);
        }
    }
}

/// Input gradient of one image, tap by tap, into its zeroed padded `dX`
/// planes `dxp` (a view-path layer with `by_taps`). Per group, `dY_g` is
/// spread over the padded-flat domain and packed once as B (`ocg × flat`);
/// then for every tap `(kh, kw)`, in col2im's order, the engine adds
/// `W_gᵀ`'s rows for that tap times `dY_g` (`icg × ocg × flat`, A packed by
/// [`Conv2d::pack_tap_weights`]) into the group's planes at the tap's
/// shift, C's rows `plane` apart.
///
/// Every `(ci, tap, pixel)` gets the chain `dcol` holds for it, and an input
/// pixel's chains arrive in col2im's tap order. What else lands on an
/// interior pixel comes from a seam position of the spread `dY`: a chain of
/// products with +0.0 that started at +0.0 is +0.0, and adding ±0.0 to a sum
/// that started at +0.0 changes no bit. So once the interior is copied out,
/// `dX` is bit-identical to `dcol` folded by col2im.
fn input_grad_by_taps(
    gy: &[f32],
    wpack: &[f32],
    geom: &ConvGeometry,
    plan: &Plan,
    (panels, dyf): (&mut [f32], &mut [f32]),
    dxp: &mut [f32],
) {
    let &Plan {
        icg,
        ocg,
        flat,
        plane,
        row_len,
        ..
    } = plan;
    let k = geom.kernel;
    let pb = &mut panels[..plan.gy_panels];
    dxp.fill(0.0);
    let groups = gy
        .chunks_exact(ocg * row_len)
        .zip(wpack.chunks_exact(plan.w_panels));
    for (grp, (gy_g, w_g)) in groups.enumerate() {
        let span = fca_trace::clock();
        spread_rows(gy_g, plan, dyf);
        pack_b(dyf, ocg, flat, false, pb);
        fca_trace::op(OpId::GemmPack, span);
        let span = fca_trace::clock();
        let taps = w_g.chunks_exact(plan.tap_panels).take(k * k);
        for (t, pa) in taps.enumerate() {
            let at = grp * icg * plane + plan.tap_at(k, t);
            gemm_packed(Lhs::Packed(pa), pb, &mut dxp[at..], plane, (icg, ocg, flat));
        }
        let flops = 2 * (k * k * icg * ocg * flat) as u64;
        fca_trace::op_flops(OpId::GemmKernel, span, flops);
    }
}

/// Transpose every `rows × cols` block of `src` into `dst`: how `dW` moves
/// to and from the `kdim × ocg` blocks the view path's weight gradient
/// accumulates into.
fn transpose_blocks(src: &[f32], dst: &mut [f32], rows: usize, cols: usize) {
    let blocks = src
        .chunks_exact(rows * cols)
        .zip(dst.chunks_exact_mut(rows * cols));
    for (s, d) in blocks {
        for (r, row) in s.chunks_exact(cols).enumerate() {
            for (d, &v) in d[r..].iter_mut().step_by(rows).zip(row) {
                *d = v;
            }
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
        unpad_planes(dxp, (h, w), p, plan, dx_c);
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
/// The batch is taken `dw_imgs` images at a time; each product packs its
/// operands image by image into their k-segment of `scratch` and the engine
/// reduces it in its fixed KC-block order. `cache` is what the training
/// forward left. Where it is the im2col matrix (strided and pointwise
/// layers) `dY_g` is A and `col_gᵀ` is packed as B, transposed as it goes.
/// Where it is the padded planes (the view path) the product is taken the
/// other way round, `dW_gᵀ += col_g · dY_gᵀ`: row `(ci, kh, kw)` of `col_g`
/// is the view `ci·plane + kh·wp + kw` of the planes, read in place through
/// an offset table ([`Lhs::Rows`]), pixels in im2col's order with the seams
/// skipped, and only `dY_gᵀ` is packed; the products add into a transposed
/// copy of `dw`. An exact product is symmetric, so either way a `dw`
/// element sees the same sequence of partial sums, fixed by the shapes
/// alone, and `dw` comes out bit-identical whatever the path, thread count
/// or kernel `arm`.
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
    let view = plan.path == Path::View && !geom.is_pointwise();
    let out_img_sz = dw.len() / kdim * row_len;
    let n = gout.len() / out_img_sz;
    let dw_k = dw_imgs * row_len;
    let (pb, rest) = scratch.split_at_mut(packed_b_len(dw_k, if view { ocg } else { kdim }));
    let (pa, rest) = rest.split_at_mut(if view { 0 } else { packed_a_len(ocg, dw_k) });
    let (dwt, rest) = rest.split_at_mut(if view { dw.len() } else { 0 });
    let tables = as_u32s_mut(&mut rest[..if view { kdim + dw_k } else { 0 }]);
    let (rows, ks) = tables.split_at_mut(if view { kdim } else { 0 });
    if view {
        let taps = geom.kernel * geom.kernel;
        assert!(
            dw_imgs * cache_img <= u32::MAX as usize,
            "conv offsets overflow u32"
        );
        for (r, row) in rows.iter_mut().enumerate() {
            *row = (r / taps * plan.plane + plan.tap_at(geom.kernel, r % taps)) as u32;
        }
        for (i, ks_img) in ks.chunks_exact_mut(row_len).enumerate() {
            for (oy, ks_row) in ks_img.chunks_exact_mut(plan.ow).enumerate() {
                let at = i * cache_img + oy * plan.wp;
                for (ox, o) in ks_row.iter_mut().enumerate() {
                    *o = (at + ox) as u32;
                }
            }
        }
        transpose_blocks(dw, dwt, ocg, kdim);
    }
    for first in (0..n).step_by(dw_imgs) {
        let imgs = dw_imgs.min(n - first);
        let k = imgs * row_len;
        let target = if view { &mut *dwt } else { &mut *dw };
        for (grp, dw_g) in target.chunks_exact_mut(ocg * kdim).enumerate() {
            let span = fca_trace::clock();
            for i in 0..imgs {
                let ni = first + i;
                let gy_g = &gout[ni * out_img_sz + grp * ocg * row_len..][..ocg * row_len];
                let at = (k, i * row_len);
                if view {
                    pack_b_at(gy_g, row_len, ocg, true, pb, at);
                } else {
                    pack_a_at(gy_g, ocg, row_len, false, pa, at);
                    let col_g = &cache[ni * cache_img + grp * kdim * row_len..];
                    pack_b_at(&col_g[..kdim * row_len], row_len, kdim, true, pb, at);
                }
            }
            fca_trace::op(OpId::GemmPack, span);
            let span = fca_trace::clock();
            if view {
                let src = &cache[first * cache_img + grp * icg * plan.plane..];
                let a = Lhs::Rows {
                    src,
                    rows,
                    ks: &ks[..k],
                };
                gemm_packed_arm(arm, a, pb, dw_g, ocg, (kdim, k, ocg));
            } else {
                gemm_packed_arm(arm, Lhs::Packed(pa), pb, dw_g, kdim, (ocg, k, kdim));
            }
            fca_trace::op_flops(OpId::GemmKernel, span, 2 * (ocg * k * kdim) as u64);
        }
    }
    if view {
        transpose_blocks(dwt, dw, kdim, ocg);
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
            flat,
            col_img,
            cache_img,
            ..
        } = plan;
        let img_sz = c * h * w;
        let out_img_sz = g.out_channels * row_len;
        // An inference image's padded planes, in scratch.
        let pad_tmp_len = if g.is_pointwise() { 0 } else { c * plan.plane };

        // Every element of `out` is overwritten, so unspecified pool
        // contents are fine.
        let mut out = ws.tensor([n, g.out_channels, oh, ow]);
        // Only a training forward keeps what it lowered; an inference
        // forward lowers each image into its run's scratch and leaves the
        // slot alone.
        let mut cache = train.then(|| ws.take_slot(self.col_slot, n * cache_img));
        let mut scratch = ws.take_slot(self.scratch_slot, plan.scratch_len);
        // Each group's weight is packed into MR-panels once per call and
        // shared read-only by every image in the rayon region.
        let mut wpack = ws.take_slot(self.wpack_slot, g.groups * plan.w_panels);
        if plan.path != Path::Stencil {
            self.pack_weights(&mut wpack, plan.w_panels, (ocg, kdim), false);
        }
        let weight = self.weight.value.data();
        let bias = self.bias.value.data();
        let x_data = x.data();
        let fill_bias = |rows: &mut [f32], len: usize| {
            for (row, &b) in rows.chunks_exact_mut(len).zip(bias) {
                row.fill(b);
            }
        };
        // `C_g += W_g · B_g` for every group of one image, `n` columns.
        let products = |c_img: &mut [f32], panels: &[f32], n: usize| {
            let span = fca_trace::clock();
            for ((y_g, pb), pa) in c_img
                .chunks_exact_mut(ocg * n)
                .zip(panels.chunks_exact(plan.col_panels))
                .zip(wpack.chunks_exact(plan.w_panels))
            {
                gemm_packed(Lhs::Packed(pa), pb, y_g, n, (ocg, kdim, n));
            }
            let flops = 2 * (g.out_channels * kdim * row_len) as u64;
            fca_trace::op_flops(OpId::GemmKernel, span, flops);
        };

        for_each_run(
            (out.data_mut(), plan.run * out_img_sz),
            (
                cache.as_deref_mut().unwrap_or_default(),
                plan.run * cache_img,
            ),
            (&mut scratch, plan.scratch_run()),
            |r, out_run, cache_run, scratch| {
                let (panels, tail) = scratch.split_at_mut(plan.panels_len);
                for (i, out_img) in out_run.chunks_exact_mut(out_img_sz).enumerate() {
                    let ni = r * plan.run + i;
                    let img = &x_data[ni * img_sz..(ni + 1) * img_sz];
                    let cached = if train {
                        &mut cache_run[i * cache_img..(i + 1) * cache_img]
                    } else {
                        &mut []
                    };
                    if plan.path == Path::Im2col {
                        // A pointwise convolution's im2col matrix is its input.
                        let lowered: &[f32] = if g.is_pointwise() {
                            img
                        } else {
                            let col = if train { cached } else { &mut tail[..col_img] };
                            let span = fca_trace::clock();
                            im2col(img, h, w, &g, oh, ow, col);
                            fca_trace::op(OpId::Im2col, span);
                            col
                        };
                        fill_bias(out_img, row_len);
                        let cols = lowered.chunks_exact(kdim * row_len);
                        let span = fca_trace::clock();
                        for (col_g, pb) in cols.zip(panels.chunks_exact_mut(plan.col_panels)) {
                            pack_b(col_g, kdim, row_len, false, pb);
                        }
                        fca_trace::op(OpId::GemmPack, span);
                        products(out_img, panels, row_len);
                        continue;
                    }

                    // The padded planes: written into the cache by a
                    // training forward, into scratch otherwise. A pointwise
                    // convolution's are its input, which only a training
                    // forward copies, for backward's weight gradient.
                    let (seamed, tmp) = tail.split_at_mut(plan.seamed_len);
                    let (pad_tmp, acc) = tmp.split_at_mut(pad_tmp_len);
                    let span = fca_trace::clock();
                    let padded: &[f32] = if g.is_pointwise() {
                        if train {
                            cached.copy_from_slice(img);
                        }
                        img
                    } else {
                        let dst = if train { cached } else { pad_tmp };
                        pad_planes(img, (h, w), g.padding, &plan, dst);
                        dst
                    };
                    fca_trace::op(OpId::Im2col, span);

                    if plan.path == Path::Stencil {
                        stencil_forward(padded, weight, bias, &g, &plan, &mut acc[..flat], out_img);
                        continue;
                    }
                    let span = fca_trace::clock();
                    let groups = padded.chunks_exact(icg * plan.plane);
                    for (planes, pb) in groups.zip(panels.chunks_exact_mut(plan.col_panels)) {
                        if g.is_pointwise() {
                            pack_b(planes, kdim, row_len, false, pb);
                        } else {
                            pack_view(planes, g.kernel, &plan, pb);
                        }
                    }
                    fca_trace::op(OpId::GemmPack, span);
                    if flat == row_len {
                        // A 1×1 kernel leaves no seams.
                        fill_bias(out_img, row_len);
                        products(out_img, panels, row_len);
                    } else {
                        fill_bias(seamed, flat);
                        products(seamed, panels, flat);
                        drop_seams(seamed, &plan, out_img);
                    }
                }
            },
        );

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

        // Same length as forward requested, so what it cached survives the
        // take/put round trip — no recompute, no input clone.
        let cache = ws.take_slot(self.col_slot, n * plan.cache_img);
        let mut scratch = ws.take_slot(self.scratch_slot, plan.scratch_len);
        // Pack Wᵀ per group once (`dCol = Wᵀ·dY` reads the weight with the
        // roles of its axes swapped — a pack-time layout choice), or its
        // rows tap by tap.
        let mut wpack = ws.take_slot(self.wpack_slot, g.groups * plan.w_panels);
        if plan.by_taps {
            self.pack_tap_weights(&mut wpack, &plan);
        } else if plan.path != Path::Stencil {
            self.pack_weights(&mut wpack, plan.w_panels, (kdim, ocg), true);
        }
        let weight = self.weight.value.data();
        // Every image of `dx` is zeroed or overwritten before it is
        // accumulated into (by col2im, the stencil, or below for a
        // pointwise convolution), or overwritten from the padded planes
        // the taps accumulate into.
        let mut dx = ws.tensor([n, c, h, w]);

        // dX: parallel over runs of images.
        for_each_run(
            (dx.data_mut(), plan.run * img_sz),
            (&mut [], 0),
            (&mut scratch, plan.scratch_run()),
            |r, dx_run, _, scratch| {
                let (panels, tail) = scratch.split_at_mut(plan.panels_len);
                for (i, dx_img) in dx_run.chunks_exact_mut(img_sz).enumerate() {
                    let ni = r * plan.run + i;
                    let gy = &gout[ni * out_img_sz..(ni + 1) * out_img_sz];
                    if plan.path == Path::Stencil {
                        let (dyf, dxp) = tail.split_at_mut(plan.flat);
                        let dxp = &mut dxp[..plan.hp * plan.wp];
                        stencil_input_grad(gy, weight, &g, &plan, (dyf, dxp), dx_img, (h, w));
                        continue;
                    }
                    if plan.by_taps {
                        let (dyf, dxp) = tail.split_at_mut(ocg * plan.flat);
                        let dxp = &mut dxp[..c * plan.plane];
                        input_grad_by_taps(gy, &wpack, &g, &plan, (panels, dyf), dxp);
                        let span = fca_trace::clock();
                        unpad_planes(dxp, (h, w), g.padding, &plan, dx_img);
                        fca_trace::op(OpId::Col2im, span);
                        continue;
                    }
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
                        &mut tail[..col_img]
                    };
                    dcol_img.fill(0.0);
                    let span = fca_trace::clock();
                    for ((dcol_g, pb), pa) in dcol_img
                        .chunks_exact_mut(kdim * row_len)
                        .zip(panels.chunks_exact(plan.gy_panels))
                        .zip(wpack.chunks_exact(plan.w_panels))
                    {
                        gemm_packed(Lhs::Packed(pa), pb, dcol_g, row_len, (kdim, ocg, row_len));
                    }
                    let flops = 2 * (g.out_channels * kdim * row_len) as u64;
                    fca_trace::op_flops(OpId::GemmKernel, span, flops);
                    if !g.is_pointwise() {
                        let span = fca_trace::clock();
                        col2im(&mut tail[..col_img], h, w, &g, oh, ow, dx_img);
                        fca_trace::op(OpId::Col2im, span);
                    }
                }
            },
        );

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

        ws.put_slot(self.col_slot, cache);
        ws.put_slot(self.scratch_slot, scratch);
        ws.put_slot(self.wpack_slot, wpack);
        fca_trace::op(OpId::ConvBackward, bwd_span);
        dx
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

    /// Every product of the layer through the im2col lowering on the
    /// engine, as all geometries ran before the padded-plane views and the
    /// stencil: the oracle those must match to the bit. Fresh buffers, one
    /// explicit kernel arm. Returns `(y, dX, dW)`, the weight gradient
    /// accumulated onto `dw`.
    fn gemm_lowering(
        arm: Kernel,
        conv: &Conv2d,
        x: &Tensor,
        gy: &Tensor,
        mut dw: Vec<f32>,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let g = conv.geom;
        let (n, c, h, w) = x.shape().as_nchw();
        let (oh, ow) = g.out_hw(h, w);
        let (icg, ocg) = (c / g.groups, g.out_channels / g.groups);
        let (kdim, row_len) = (icg * g.kernel * g.kernel, oh * ow);
        let col_img = g.groups * kdim * row_len;
        let weight = conv.weight.value.data();
        let mut cols = vec![f32::NAN; n * col_img];
        let mut y = vec![f32::NAN; n * g.out_channels * row_len];
        let mut dx = vec![f32::NAN; x.numel()];
        let mut dcol = vec![f32::NAN; col_img];
        let mut pa = vec![f32::NAN; packed_a_len(ocg, kdim).max(packed_a_len(kdim, ocg))];
        let mut pb = vec![f32::NAN; packed_b_len(kdim, row_len).max(packed_b_len(ocg, row_len))];
        for ni in 0..n {
            let col = &mut cols[ni * col_img..(ni + 1) * col_img];
            im2col(
                &x.data()[ni * c * h * w..][..c * h * w],
                h,
                w,
                &g,
                oh,
                ow,
                col,
            );
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
                pack_b(
                    &col[grp * kdim * row_len..][..kdim * row_len],
                    kdim,
                    row_len,
                    false,
                    &mut pb,
                );
                gemm_packed_arm(
                    arm,
                    Lhs::Packed(&pa),
                    &pb,
                    y_g,
                    row_len,
                    (ocg, kdim, row_len),
                );

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
                gemm_packed_arm(
                    arm,
                    Lhs::Packed(&pa),
                    &pb,
                    dcol_g,
                    row_len,
                    (kdim, ocg, row_len),
                );
            }
            col2im(
                &mut dcol,
                h,
                w,
                &g,
                oh,
                ow,
                &mut dx[ni * c * h * w..][..c * h * w],
            );
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
                gemm_packed_arm(arm, Lhs::Packed(&pa), &pb, dw_g, kdim, (ocg, k, kdim));
            }
        }
        (y, dx, dw)
    }

    #[test]
    fn every_product_matches_the_im2col_lowering_to_the_bit_and_the_naive_references() {
        let mut rng = seeded_rng(72);
        let mut ws = Workspace::new();
        let (mut odd_panels, mut odd_rows) = (false, false);
        let mut paths = Vec::new();
        // Non-square, and a plane smaller than the largest kernel.
        for hw in [(7, 10), (3, 4)] {
            sweep(hw, |geom, n, h, w| {
                let (oh, ow) = geom.out_hw(h, w);
                odd_panels |= (oh * ow) % NR != 0;
                odd_rows |= (geom.out_channels / geom.groups) % fca_tensor::gemm::MR != 0;
                paths.push(geom.path());
                let mut conv = Conv2d::new(geom, &mut rng);
                conv.bias.value = Tensor::randn([geom.out_channels], 1.0, &mut rng);
                let x = Tensor::randn([n, geom.in_channels, h, w], 1.0, &mut rng);
                let gy = Tensor::randn([n, geom.out_channels, oh, ow], 1.0, &mut rng);
                let y = conv.forward(&x, true, &mut ws);
                let dx = conv.backward(&gy, &mut ws);

                // Whatever arm the engine ran the oracle on.
                for arm in simd::available() {
                    let zeros = vec![0.0; conv.weight.grad.numel()];
                    let (y_gemm, dx_gemm, dw_gemm) = gemm_lowering(arm, &conv, &x, &gy, zeros);
                    let on = format!("{geom:?} x{n} on {hw:?}, arm {}", arm.as_str());
                    assert_eq!(bits(y.data()), bits(&y_gemm), "forward {on}");
                    assert_eq!(bits(dx.data()), bits(&dx_gemm), "dX {on}");
                    assert_eq!(bits(conv.weight.grad.data()), bits(&dw_gemm), "dW {on}");
                }

                let y_ref = conv2d_reference(&x, &conv.weight.value, &conv.bias.value, &geom);
                let (dx_ref, dw_ref, db_ref) =
                    conv2d_backward_reference(&x, &conv.weight.value, &gy, &geom);
                assert_close(&y, &y_ref, 1e-4);
                assert_close(&dx, &dx_ref, 1e-4);
                assert_close(&conv.weight.grad, &dw_ref, 1e-4);
                assert_close(&conv.bias.grad, &db_ref, 1e-4);
                // An inference forward lowers into scratch (or not at all)
                // and must agree with the training one to the bit.
                let y_eval = conv.forward(&x, false, &mut ws);
                assert_eq!(bits(y_eval.data()), bits(y.data()), "eval forward {geom:?}");
                for t in [y, dx, y_eval] {
                    ws.recycle(t);
                }
            });
        }
        assert!(odd_panels && odd_rows, "sweep lost its ragged panels");
        for path in [Path::Stencil, Path::View, Path::Im2col] {
            assert!(paths.contains(&path), "sweep never took {path:?}");
        }
    }

    /// Both input-gradient routes of the view path — `dcol` + col2im below
    /// `MR` input channels per group, tap by tap from there — and the
    /// row-view weight gradient, against the im2col lowering to the bit:
    /// `C_in/G` of 1, 4, 12 and 16 (a ragged and two full 8-row panels per
    /// tap), 1 and 2 groups, 3×3 and 5×5 kernels padded "same" and not at
    /// all, 1, 2 and 32 images, `C_out/G` below and above one 16-lane panel.
    /// Each case runs on 1 and 4 threads, with a pre-filled `dW`, on slots
    /// adopted NaN-filled from a retired tenant, for random and all −0.0
    /// output gradients, and is held against the lowering under every arm.
    #[test]
    fn view_backward_matches_the_im2col_lowering_across_channels_threads_and_slots() {
        let mut rng = seeded_rng(76);
        let (h, w) = (7, 10);
        let mut routes = Vec::new();
        for icg in [1, 4, 12, 16] {
            for groups in [1, 2] {
                for kernel in [3, 5] {
                    for padding in [kernel / 2, 0] {
                        let geom = ConvGeometry {
                            in_channels: icg * groups,
                            out_channels: (icg + 2) * groups,
                            kernel,
                            stride: 1,
                            padding,
                            groups,
                        };
                        routes.push(geom.input_grad_by_taps());
                        let (oh, ow) = geom.out_hw(h, w);
                        let proto = Conv2d::new(geom, &mut rng);
                        let dw0 = Tensor::randn(proto.weight.grad.shape().clone(), 1.0, &mut rng);
                        for n in [1, 2, 32] {
                            let x = Tensor::randn([n, geom.in_channels, h, w], 1.0, &mut rng);
                            let random =
                                Tensor::randn([n, geom.out_channels, oh, ow], 1.0, &mut rng);
                            let negative_zeros = Tensor::full(random.shape().clone(), -0.0);
                            for gy in [random, negative_zeros] {
                                let on = format!("{geom:?} x{n}");
                                view_backward_case(&proto, &x, &gy, &dw0, &on);
                            }
                        }
                    }
                }
            }
        }
        assert!(
            routes.contains(&true) && routes.contains(&false),
            "a dX route went untested"
        );
    }

    /// One case of the test above: `proto`'s weights and bias, `dw0` in
    /// `weight.grad`, forward and backward on `x` and `gy`.
    fn view_backward_case(proto: &Conv2d, x: &Tensor, gy: &Tensor, dw0: &Tensor, on: &str) {
        let geom = proto.geom;
        let (n, _, h, w) = x.shape().as_nchw();
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            pool.install(|| {
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
                let _ = conv.forward(x, true, &mut ws);
                let dx = conv.backward(gy, &mut ws);
                (bits(dx.data()), bits(conv.weight.grad.data()))
            })
        };
        let one = run(1);
        assert_eq!(one, run(4), "threads changed bits: {on}");
        for arm in simd::available() {
            let (_, dx, dw) = gemm_lowering(arm, proto, x, gy, dw0.data().to_vec());
            let arm = arm.as_str();
            assert_eq!(one.0, bits(&dx), "dX {on}, arm {arm}");
            assert_eq!(one.1, bits(&dw), "dW {on}, arm {arm}");
        }
    }

    #[test]
    fn a_second_gradient_accumulates_onto_the_first_to_the_bit() {
        // The view path reduces into a transposed copy of `dW`, the stencil
        // into registers: both must continue from what `weight.grad` holds.
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
    fn products_are_bit_identical_across_thread_counts() {
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
            // The same, strided: the im2col lowering.
            (geom([5, 11], 3, 2, 1, 1), 9, 7, 10),
            // Grouped 5×5 on views.
            (geom([6, 4], 5, 1, 2, 2), 5, 6, 9),
            // Depthwise, strided and not.
            (geom([6, 6], 3, 2, 1, 6), 5, 9, 8),
            (geom([6, 6], 3, 1, 1, 6), 5, 9, 8),
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
                        bits(conv.bias.grad.data()),
                    )
                })
            };
            assert_eq!(run(1), run(4), "thread count changed bits for {geom:?}");
        }
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
