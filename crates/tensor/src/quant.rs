//! Quantized (f16 / int8) GEMM compute path: quantize-on-pack, f32
//! accumulation.
//!
//! Eval/inference rounds are memory-bound at fleet scale, so the win is
//! moving fewer panel bytes, not changing the arithmetic: operands are
//! quantized *while packing* into the same MR/NR panel geometry the f32
//! engine uses, the microkernel inner loop streams the small-type panels,
//! and every product accumulates in f32. Training numerics never touch
//! this module — the eval precision is opt-in per forward pass (see
//! [`Precision`] and `FedConfig::eval_precision` downstream).
//!
//! # Arm-invariance
//!
//! Quantization itself happens in shared *scalar* code here (one rounding
//! decision per element, at pack time), so every kernel arm consumes
//! byte-identical panels. The kernels then follow the same determinism
//! contract as the f32 engine (ascending KC slabs, sequential-k f32
//! accumulation, one add into C per slab):
//!
//! * **f16**: decoding is exact (`f16 → f32` is injective), and the AVX2
//!   arm's `vcvtph2ps` matches the software converter lane-for-lane, so
//!   scalar and SIMD arms are bit-identical.
//! * **int8**: products are at most `127² = 16129` and a KC slab sums at
//!   most 256 of them (`≈ 4.1M < 2²⁴`), so f32 accumulation is *exact*
//!   integer arithmetic — order- and FMA-invariant — and the per-slab
//!   dequantize step (`c = fmadd(acc, scale_row·scale_col, c)`) performs
//!   the identical two floating-point ops on every arm.
//!
//! # Panel scales (int8)
//!
//! A carries one scale per logical **row** (`scale = maxabs/127` over the
//! row, `q = round(v·127/maxabs)` clamped to ±127; all-zero rows get
//! scale 0 and zero codes), B one scale per logical **column**. Scale
//! vectors are padded to the MR/NR panel multiple so microkernels can
//! slice them per tile without bounds branches.

use crate::gemm::{axpy_row, fmadd, packed_a_len, packed_b_len, KC, MR, NR};
use crate::serialize::{f16_bits_to_f32, f32_to_f16_bits};
use crate::simd::{self, Kernel};
use fca_trace::OpId;
use std::cell::RefCell;
use std::sync::OnceLock;

/// Numeric precision for the eval-only GEMM compute path.
///
/// `F32` is the training path (bit-exact packed engine); `F16`/`Int8`
/// quantize on pack and accumulate in f32. [`Precision::as_str`] gives
/// the lowercase form recorded in traces.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Precision {
    /// Full f32 compute (default; identical to the training path).
    #[default]
    F32,
    /// IEEE binary16 storage with f32 accumulation.
    F16,
    /// Symmetric int8 with per-row/per-column scales, f32 accumulation.
    Int8,
}

impl Precision {
    /// Stable lowercase name (`f32` / `f16` / `int8`), as recorded in the
    /// trace `run_start` event.
    pub fn as_str(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::F16 => "f16",
            Precision::Int8 => "int8",
        }
    }
}

static F16_LUT: OnceLock<Vec<f32>> = OnceLock::new();

/// Decode table for all 2¹⁶ f16 bit patterns, built once from the exact
/// software converter. Keeps the scalar kernel (the oracle the SIMD arms
/// are tested against) at table-lookup speed.
pub(crate) fn f16_lut() -> &'static [f32] {
    F16_LUT.get_or_init(|| (0..=u16::MAX).map(f16_bits_to_f32).collect())
}

/// Logical element (i, kk) of A under the transpose flag.
#[inline(always)]
fn a_at(a: &[f32], m: usize, k: usize, trans: bool, i: usize, kk: usize) -> f32 {
    if trans {
        a[kk * m + i]
    } else {
        a[i * k + kk]
    }
}

/// Logical element (kk, j) of B under the transpose flag.
#[inline(always)]
fn b_at(b: &[f32], k: usize, n: usize, trans: bool, kk: usize, j: usize) -> f32 {
    if trans {
        b[j * k + kk]
    } else {
        b[kk * n + j]
    }
}

/// Pack A into f16 MR-panels (same layout as [`crate::gemm::pack_a`],
/// elements round-to-nearest-even encoded).
pub(crate) fn pack_a_f16(a: &[f32], m: usize, k: usize, trans: bool, out: &mut [u16]) {
    out.fill(0);
    for i in 0..m {
        let base = (i / MR) * MR * k + i % MR;
        for kk in 0..k {
            out[base + kk * MR] = f32_to_f16_bits(a_at(a, m, k, trans, i, kk));
        }
    }
}

/// Pack B into f16 NR-panels (same layout as [`crate::gemm::pack_b`]).
pub(crate) fn pack_b_f16(b: &[f32], k: usize, n: usize, trans: bool, out: &mut [u16]) {
    out.fill(0);
    for j in 0..n {
        let base = (j / NR) * NR * k + j % NR;
        for kk in 0..k {
            out[base + kk * NR] = f32_to_f16_bits(b_at(b, k, n, trans, kk, j));
        }
    }
}

/// Symmetric int8 quantization parameters for one row/column.
#[inline(always)]
fn i8_params(maxabs: f32) -> (f32, f32) {
    if maxabs > 0.0 {
        (127.0 / maxabs, maxabs / 127.0)
    } else {
        (0.0, 0.0)
    }
}

#[inline(always)]
fn quantize_i8(v: f32, inv: f32) -> i8 {
    (v * inv).round().clamp(-127.0, 127.0) as i8
}

/// Pack A into int8 MR-panels with one scale per logical row. `scales`
/// must hold the MR-padded row count; padded rows get scale 0.
pub(crate) fn pack_a_i8(
    a: &[f32],
    m: usize,
    k: usize,
    trans: bool,
    out: &mut [i8],
    scales: &mut [f32],
) {
    out.fill(0);
    scales.fill(0.0);
    #[allow(clippy::needless_range_loop)] // `i` also addresses `a` and the packed panel
    for i in 0..m {
        let mut maxabs = 0.0f32;
        for kk in 0..k {
            maxabs = maxabs.max(a_at(a, m, k, trans, i, kk).abs());
        }
        let (inv, scale) = i8_params(maxabs);
        scales[i] = scale;
        let base = (i / MR) * MR * k + i % MR;
        for kk in 0..k {
            out[base + kk * MR] = quantize_i8(a_at(a, m, k, trans, i, kk), inv);
        }
    }
}

/// Pack B into int8 NR-panels with one scale per logical column.
pub(crate) fn pack_b_i8(
    b: &[f32],
    k: usize,
    n: usize,
    trans: bool,
    out: &mut [i8],
    scales: &mut [f32],
) {
    out.fill(0);
    scales.fill(0.0);
    #[allow(clippy::needless_range_loop)] // `j` also addresses `b` and the packed panel
    for j in 0..n {
        let mut maxabs = 0.0f32;
        for kk in 0..k {
            maxabs = maxabs.max(b_at(b, k, n, trans, kk, j).abs());
        }
        let (inv, scale) = i8_params(maxabs);
        scales[j] = scale;
        let base = (j / NR) * NR * k + j % NR;
        for kk in 0..k {
            out[base + kk * NR] = quantize_i8(b_at(b, k, n, trans, kk, j), inv);
        }
    }
}

/// Scalar f16 microkernel: one MR×NR tile, one KC slab. The oracle for
/// the F16C arm — decodes through the shared [`f16_lut`].
///
/// # Safety
///
/// `c` must be valid for `mr × nr` read/writes at row stride `ldc`, with
/// no concurrent aliasing (same contract as `gemm::microkernel`).
// SAFETY: the only raw access below is the per-row C slice, clipped to
// the caller-guaranteed mr×nr region.
pub(crate) unsafe fn microkernel_f16_scalar(
    pa: &[u16],
    pb: &[u16],
    c: *mut f32,
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    let lut = f16_lut();
    let mut rows = [[0.0f32; NR]; MR];
    for (af, bf) in pa.chunks_exact(MR).zip(pb.chunks_exact(NR)) {
        let mut bv = [0.0f32; NR];
        for (d, &h) in bv.iter_mut().zip(bf) {
            *d = lut[h as usize];
        }
        for (row, &h) in rows.iter_mut().zip(af) {
            axpy_row(row, lut[h as usize], &bv);
        }
    }
    for (i, row) in rows.iter().enumerate().take(mr) {
        let crow = core::slice::from_raw_parts_mut(c.add(i * ldc), nr);
        for (cj, &v) in crow.iter_mut().zip(row) {
            *cj += v;
        }
    }
}

/// Scalar int8 microkernel: one MR×NR tile, one KC slab; `clip` is
/// `(mr, nr)`, `scales` the `(row, col)` slices for this tile. The oracle
/// for the AVX2 arm.
///
/// # Safety
///
/// Same `c` contract as [`microkernel_f16_scalar`]; `scales.0`/`scales.1`
/// must hold at least `mr`/`nr` entries.
// SAFETY: the only raw access below is the per-row C slice, clipped to
// the caller-guaranteed mr×nr region.
pub(crate) unsafe fn microkernel_i8_scalar(
    pa: &[i8],
    pb: &[i8],
    c: *mut f32,
    ldc: usize,
    clip: (usize, usize),
    scales: (&[f32], &[f32]),
) {
    let (mr, nr) = clip;
    let (sa, sb) = scales;
    let mut rows = [[0.0f32; NR]; MR];
    for (af, bf) in pa.chunks_exact(MR).zip(pb.chunks_exact(NR)) {
        let mut bv = [0.0f32; NR];
        for (d, &q) in bv.iter_mut().zip(bf) {
            *d = q as f32;
        }
        for (row, &q) in rows.iter_mut().zip(af) {
            axpy_row(row, q as f32, &bv);
        }
    }
    for (i, row) in rows.iter().enumerate().take(mr) {
        let crow = core::slice::from_raw_parts_mut(c.add(i * ldc), nr);
        for ((cj, &v), &sbj) in crow.iter_mut().zip(row).zip(sb) {
            *cj = fmadd(v, sa[i] * sbj, *cj);
        }
    }
}

/// Grow-only per-thread scratch for quantized panels and scales. Mirrors
/// `linalg`'s `PACK_SCRATCH` so eval loops stay allocation-free and the
/// driver remains callable inside rayon regions (e.g. per-image conv).
struct QuantScratch {
    pa16: Vec<u16>,
    pb16: Vec<u16>,
    pa8: Vec<i8>,
    pb8: Vec<i8>,
    sa: Vec<f32>,
    sb: Vec<f32>,
}

thread_local! {
    static QUANT_SCRATCH: RefCell<QuantScratch> = const {
        RefCell::new(QuantScratch {
            pa16: Vec::new(),
            pb16: Vec::new(),
            pa8: Vec::new(),
            pb8: Vec::new(),
            sa: Vec::new(),
            sb: Vec::new(),
        })
    };
}

fn resized<T: Copy>(v: &mut Vec<T>, len: usize, fill: T) -> &mut [T] {
    if v.len() < len {
        v.resize(len, fill);
    }
    &mut v[..len]
}

/// Quantized GEMM: `C += op_a(A) · op_b(B)` at the requested precision,
/// with f32 accumulation. `dims` is `(m, k, n)`, `trans` the per-operand
/// transpose flags (same convention as the f32 engine). `Precision::F32`
/// falls through to the packed f32 engine, so callers can route
/// unconditionally.
///
/// The driver is sequential (no macro-tile rayon) by design: eval batches
/// are already parallelized one level up (per-image / per-client), and a
/// sequential driver stays callable inside those rayon regions.
pub fn gemm_quant(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    dims: (usize, usize, usize),
    trans: (bool, bool),
    precision: Precision,
) {
    let (m, k, n) = dims;
    assert_eq!(a.len(), m * k, "quant gemm: A length");
    assert_eq!(b.len(), k * n, "quant gemm: B length");
    assert_eq!(c.len(), m * n, "quant gemm: C length");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if precision == Precision::F32 {
        crate::linalg::gemm_thread_local(a, b, c, m, k, n, trans);
        return;
    }
    let arm = simd::active();
    QUANT_SCRATCH.with(|cell| {
        let scratch = &mut *cell.borrow_mut();
        let (alen, blen) = (packed_a_len(m, k), packed_b_len(k, n));
        match precision {
            Precision::F32 => unreachable!("handled above"),
            Precision::F16 => {
                let span = fca_trace::clock();
                let pa = resized(&mut scratch.pa16, alen, 0);
                pack_a_f16(a, m, k, trans.0, pa);
                let pb = resized(&mut scratch.pb16, blen, 0);
                pack_b_f16(b, k, n, trans.1, pb);
                fca_trace::op_bytes(OpId::QuantPack, span, 2 * (alen + blen) as u64);
                let span = fca_trace::clock();
                gemm_panels_f16(arm, &scratch.pa16[..alen], &scratch.pb16[..blen], c, dims);
                fca_trace::op_flops(OpId::GemmKernel, span, 2 * (m * k * n) as u64);
            }
            Precision::Int8 => {
                let span = fca_trace::clock();
                let pa = resized(&mut scratch.pa8, alen, 0);
                let sa = resized(&mut scratch.sa, m.div_ceil(MR) * MR, 0.0);
                pack_a_i8(a, m, k, trans.0, pa, sa);
                let pb = resized(&mut scratch.pb8, blen, 0);
                let sb = resized(&mut scratch.sb, n.div_ceil(NR) * NR, 0.0);
                pack_b_i8(b, k, n, trans.1, pb, sb);
                fca_trace::op_bytes(OpId::QuantPack, span, (alen + blen) as u64);
                let span = fca_trace::clock();
                gemm_panels_i8(
                    arm,
                    (&scratch.pa8[..alen], &scratch.pb8[..blen]),
                    c,
                    dims,
                    (&scratch.sa, &scratch.sb),
                );
                fca_trace::op_flops(OpId::GemmKernel, span, 2 * (m * k * n) as u64);
            }
        }
    });
}

/// Sequential slab/panel driver over f16 panels.
fn gemm_panels_f16(
    arm: Kernel,
    pa: &[u16],
    pb: &[u16],
    c: &mut [f32],
    dims: (usize, usize, usize),
) {
    let (m, k, n) = dims;
    let cp = c.as_mut_ptr();
    let mut kc_lo = 0;
    while kc_lo < k {
        let kc_hi = (kc_lo + KC).min(k);
        let klen = kc_hi - kc_lo;
        let mut jr = 0;
        while jr < n {
            let nr = NR.min(n - jr);
            let pbp = &pb[(jr / NR) * NR * k + kc_lo * NR..][..klen * NR];
            let mut ir = 0;
            while ir < m {
                let mr = MR.min(m - ir);
                let pap = &pa[(ir / MR) * MR * k + kc_lo * MR..][..klen * MR];
                // SAFETY: cp addresses the caller's m×n C buffer; each
                // (ir, jr) tile is clipped to mr×nr in bounds, and this
                // driver is single-threaded over C.
                unsafe { simd::microkernel_f16_arm(arm, pap, pbp, cp.add(ir * n + jr), n, mr, nr) };
                ir += MR;
            }
            jr += NR;
        }
        kc_lo += KC;
    }
}

/// Sequential slab/panel driver over int8 panels (`panels` = `(pa, pb)`,
/// `scales` = `(row, col)` full padded vectors).
fn gemm_panels_i8(
    arm: Kernel,
    panels: (&[i8], &[i8]),
    c: &mut [f32],
    dims: (usize, usize, usize),
    scales: (&[f32], &[f32]),
) {
    let (pa, pb) = panels;
    let (sa, sb) = scales;
    let (m, k, n) = dims;
    let cp = c.as_mut_ptr();
    let mut kc_lo = 0;
    while kc_lo < k {
        let kc_hi = (kc_lo + KC).min(k);
        let klen = kc_hi - kc_lo;
        let mut jr = 0;
        while jr < n {
            let nr = NR.min(n - jr);
            let pbp = &pb[(jr / NR) * NR * k + kc_lo * NR..][..klen * NR];
            let mut ir = 0;
            while ir < m {
                let mr = MR.min(m - ir);
                let pap = &pa[(ir / MR) * MR * k + kc_lo * MR..][..klen * MR];
                // SAFETY: cp addresses the caller's m×n C buffer; each
                // (ir, jr) tile is clipped to mr×nr in bounds, and this
                // driver is single-threaded over C.
                unsafe {
                    simd::microkernel_i8_arm(
                        arm,
                        pap,
                        pbp,
                        cp.add(ir * n + jr),
                        n,
                        (mr, nr),
                        (&sa[ir..], &sb[jr..]),
                    )
                };
                ir += MR;
            }
            jr += NR;
        }
        kc_lo += KC;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::tests_support::fill;

    fn reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f64; m * n];
        for i in 0..m {
            for kk in 0..k {
                let av = a[i * k + kk] as f64;
                for j in 0..n {
                    c[i * n + j] += av * b[kk * n + j] as f64;
                }
            }
        }
        c.into_iter().map(|v| v as f32).collect()
    }

    fn quant_product(m: usize, k: usize, n: usize, precision: Precision) -> Vec<f32> {
        let mut seed = 0x5EED5EED;
        let mut a = vec![0.0f32; m * k];
        let mut b = vec![0.0f32; k * n];
        fill(&mut a, &mut seed);
        fill(&mut b, &mut seed);
        let mut c = vec![0.0f32; m * n];
        gemm_quant(&a, &b, &mut c, (m, k, n), (false, false), precision);
        c
    }

    /// Max |quant - reference| relative to the row·col magnitude bound.
    fn max_err(m: usize, k: usize, n: usize, precision: Precision) -> f32 {
        let mut seed = 0x5EED5EED;
        let mut a = vec![0.0f32; m * k];
        let mut b = vec![0.0f32; k * n];
        fill(&mut a, &mut seed);
        fill(&mut b, &mut seed);
        let mut c = vec![0.0f32; m * n];
        gemm_quant(&a, &b, &mut c, (m, k, n), (false, false), precision);
        let r = reference(&a, &b, m, k, n);
        c.iter()
            .zip(&r)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max)
    }

    #[test]
    fn f16_error_is_bounded() {
        // Inputs are in [-0.5, 0.5]; f16 relative error is 2⁻¹¹ per
        // element, so |Δc| ≲ k · max|a||b| · 2⁻¹⁰.
        for &(m, k, n) in &[(5, 7, 9), (16, 64, 32), (33, 129, 47)] {
            let bound = k as f32 * 0.25 * 2.0f32.powi(-10) + 1e-5;
            let err = max_err(m, k, n, Precision::F16);
            assert!(err <= bound, "f16 err {err} > bound {bound} at {m}x{k}x{n}");
        }
    }

    #[test]
    fn int8_error_is_bounded() {
        // Per element |Δ| ≤ scale/2 ≤ maxabs/254; products accumulate k
        // of them against ~0.5-magnitude partners.
        for &(m, k, n) in &[(5, 7, 9), (16, 64, 32), (33, 129, 47)] {
            let bound = k as f32 * 0.5 * (0.5 / 127.0) * 2.0 + 1e-5;
            let err = max_err(m, k, n, Precision::Int8);
            assert!(
                err <= bound,
                "int8 err {err} > bound {bound} at {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn f32_precision_falls_through_to_packed_engine() {
        let (m, k, n) = (9, 21, 13);
        let c = quant_product(m, k, n, Precision::F32);
        let mut seed = 0x5EED5EED;
        let mut a = vec![0.0f32; m * k];
        let mut b = vec![0.0f32; k * n];
        fill(&mut a, &mut seed);
        fill(&mut b, &mut seed);
        let mut expect = vec![0.0f32; m * n];
        crate::linalg::gemm_thread_local(&a, &b, &mut expect, m, k, n, (false, false));
        assert_eq!(c, expect);
    }

    #[test]
    fn quant_arms_are_bit_identical_to_scalar_oracle() {
        // The dispatcher owns arm choice inside gemm_quant, so compare
        // the per-arm panel drivers directly on shared packed panels.
        for &(m, k, n) in &[
            (1, 1, 1),
            (MR - 1, KC - 1, NR - 1),
            (MR + 3, KC + 5, NR + 7),
            (2 * MR, 2 * KC + 1, 2 * NR),
            (10, 64, 33),
        ] {
            let mut seed = 0xACE0FBA5E;
            let mut a = vec![0.0f32; m * k];
            let mut b = vec![0.0f32; k * n];
            fill(&mut a, &mut seed);
            fill(&mut b, &mut seed);
            let mut pa16 = vec![0u16; packed_a_len(m, k)];
            let mut pb16 = vec![0u16; packed_b_len(k, n)];
            pack_a_f16(&a, m, k, false, &mut pa16);
            pack_b_f16(&b, k, n, false, &mut pb16);
            let mut pa8 = vec![0i8; packed_a_len(m, k)];
            let mut pb8 = vec![0i8; packed_b_len(k, n)];
            let mut sa = vec![0.0f32; m.div_ceil(MR) * MR];
            let mut sb = vec![0.0f32; n.div_ceil(NR) * NR];
            pack_a_i8(&a, m, k, false, &mut pa8, &mut sa);
            pack_b_i8(&b, k, n, false, &mut pb8, &mut sb);

            let mut oracle16 = vec![0.0f32; m * n];
            gemm_panels_f16(Kernel::Scalar, &pa16, &pb16, &mut oracle16, (m, k, n));
            let mut oracle8 = vec![0.0f32; m * n];
            gemm_panels_i8(
                Kernel::Scalar,
                (&pa8, &pb8),
                &mut oracle8,
                (m, k, n),
                (&sa, &sb),
            );
            for arm in simd::available() {
                let mut c16 = vec![0.0f32; m * n];
                gemm_panels_f16(arm, &pa16, &pb16, &mut c16, (m, k, n));
                assert_eq!(c16, oracle16, "f16 arm {} at {m}x{k}x{n}", arm.as_str());
                let mut c8 = vec![0.0f32; m * n];
                gemm_panels_i8(arm, (&pa8, &pb8), &mut c8, (m, k, n), (&sa, &sb));
                assert_eq!(c8, oracle8, "int8 arm {} at {m}x{k}x{n}", arm.as_str());
            }
        }
    }

    #[test]
    fn transposed_operands_match_explicit_transpose() {
        let (m, k, n) = (11, 19, 17);
        let mut seed = 0xBEEF;
        let mut a = vec![0.0f32; m * k];
        let mut b = vec![0.0f32; k * n];
        fill(&mut a, &mut seed);
        fill(&mut b, &mut seed);
        let mut at = vec![0.0f32; m * k]; // k×m storage
        for i in 0..m {
            for kk in 0..k {
                at[kk * m + i] = a[i * k + kk];
            }
        }
        let mut bt = vec![0.0f32; k * n]; // n×k storage
        for kk in 0..k {
            for j in 0..n {
                bt[j * k + kk] = b[kk * n + j];
            }
        }
        for precision in [Precision::F16, Precision::Int8] {
            let mut plain = vec![0.0f32; m * n];
            gemm_quant(&a, &b, &mut plain, (m, k, n), (false, false), precision);
            let mut trans = vec![0.0f32; m * n];
            gemm_quant(&at, &bt, &mut trans, (m, k, n), (true, true), precision);
            assert_eq!(plain, trans, "{}", precision.as_str());
        }
    }

    #[test]
    fn zero_dims_are_noops() {
        let mut c = vec![1.0f32; 0];
        gemm_quant(&[], &[], &mut c, (0, 3, 0), (false, false), Precision::F16);
        let mut c = vec![5.0f32; 6];
        gemm_quant(&[], &[], &mut c, (2, 0, 3), (false, false), Precision::Int8);
        assert!(c.iter().all(|&v| v == 5.0), "k==0 must leave C unchanged");
    }

    #[test]
    fn precision_default_and_as_str() {
        assert_eq!(Precision::default(), Precision::F32);
        assert_eq!(Precision::F16.as_str(), "f16");
        assert_eq!(Precision::Int8.as_str(), "int8");
        assert_eq!(Precision::F32.as_str(), "f32");
    }
}
