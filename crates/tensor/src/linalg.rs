//! Matrix multiplication kernels.
//!
//! All three GEMM variants needed by backprop are provided:
//!
//! * [`matmul`]    — `C = A·B`       (forward passes)
//! * [`matmul_tn`] — `C = Aᵀ·B`      (weight gradients: `dW = Xᵀ·dY`)
//! * [`matmul_nt`] — `C = A·Bᵀ`      (input gradients: `dX = dY·Wᵀ`)
//!
//! All variants route through the packed, register-blocked engine in
//! [`crate::gemm`]: the operands are packed into MR/NR panels (the
//! transpose variants are pack-time layout choices) and multiplied by one
//! microkernel with 2D macro-tile parallelism. Results are bit-identical
//! across thread counts.
//!
//! Packing scratch comes from one of two places:
//!
//! * the `gemm_nn`/`gemm_tn`/`gemm_nt` entry points keep a pair of
//!   per-thread recycled buffers (they are callable from inside rayon
//!   regions, e.g. the per-image conv loop, where no [`Workspace`] can
//!   follow);
//! * the `*_ws` twins draw from a [`Workspace`] recycle pool instead, so a
//!   training loop that threads its workspace through stays allocation-free
//!   and observable via [`crate::WorkspaceStats`].
//!
//! The pre-packing seed kernels survive as `gemm_*_naive` — the perf
//! baseline for `fca-bench`'s snapshot tooling and a second reference for
//! property tests.
//!
//! Every entry point carries `fca-trace` probes: pack time and kernel time
//! are split ([`fca_trace::OpId::GemmPack`] vs. `GemmKernel`, the latter
//! with the canonical `2·m·k·n` flop count), and each public variant adds
//! its own call/latency row. Probes observe and never branch, so traced
//! results are bit-identical to untraced ones; with tracing inactive each
//! probe is one relaxed atomic load.

use crate::gemm::{
    gemm_packed_arm, pack_a, pack_a_rowmajor, pack_b, packed_a_len, packed_b_len, skinny_applies,
    NR,
};
use crate::simd::Kernel;
use crate::tensor::Tensor;
use crate::workspace::Workspace;
use fca_trace::OpId;
use rayon::prelude::*;
use std::cell::RefCell;

/// Below this many multiply-adds the naive kernels stay single-threaded.
const PAR_THRESHOLD: usize = 64 * 1024;

thread_local! {
    /// Per-thread packing scratch for the workspace-less entry points.
    /// Grow-only, so steady-state calls never touch the allocator.
    static PACK_SCRATCH: RefCell<(Vec<f32>, Vec<f32>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Pack both operands (reading A/B transposed per the flags) and run the
/// blocked engine, with packing scratch borrowed from `buffers`.
#[allow(clippy::too_many_arguments)]
fn gemm_into(
    buffers: (&mut Vec<f32>, &mut Vec<f32>),
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    trans: (bool, bool),
) {
    gemm_buffers_arm(crate::simd::active(), buffers, (a, b), c, (m, k, n), trans);
}

/// The engine a product runs on, chosen from its dimensions and B's storage
/// order alone; every path adds the same bits to C (see [`crate::gemm`]).
#[derive(Clone, Copy)]
enum Path {
    /// Both operands packed into panels, the blocked engine.
    Packed,
    /// Short m, B row-major `k × n`: A laid out row-major, B streamed.
    SkinnyNn,
    /// Short m, B stored `n × k`: Aᵀ packed as one NR-lane panel, B streamed.
    SkinnyNt,
}

impl Path {
    fn of(m: usize, k: usize, n: usize, trans_b: bool) -> Path {
        match (skinny_applies(m, k, n, trans_b), trans_b) {
            (false, _) => Path::Packed,
            (true, false) => Path::SkinnyNn,
            (true, true) => Path::SkinnyNt,
        }
    }

    /// Pack-scratch lengths `(A, B)`: a skinny product packs its small A
    /// alone.
    fn pack_lens(self, m: usize, k: usize, n: usize) -> (usize, usize) {
        match self {
            Path::Packed => (packed_a_len(m, k), packed_b_len(k, n)),
            Path::SkinnyNn => (m * k, 0),
            Path::SkinnyNt => (k * NR, 0),
        }
    }
}

/// [`gemm_into`] with an explicit kernel arm: packs what the product's
/// [`Path`] needs packed and runs its kernel.
fn gemm_buffers_arm(
    arm: Kernel,
    buffers: (&mut Vec<f32>, &mut Vec<f32>),
    ab: (&[f32], &[f32]),
    c: &mut [f32],
    dims: (usize, usize, usize),
    trans: (bool, bool),
) {
    let (a, b) = ab;
    let (m, k, n) = dims;
    let (pa, pb) = buffers;
    let path = Path::of(m, k, n, trans.1);
    let (alen, blen) = path.pack_lens(m, k, n);
    if pa.len() < alen {
        pa.resize(alen, 0.0);
    }
    if pb.len() < blen {
        pb.resize(blen, 0.0);
    }
    let (pa, pb) = (&mut pa[..alen], &mut pb[..blen]);
    let span = fca_trace::clock();
    match path {
        Path::Packed => {
            pack_a(a, m, k, trans.0, pa);
            pack_b(b, k, n, trans.1, pb);
        }
        Path::SkinnyNn => pack_a_rowmajor(a, m, k, trans.0, pa),
        // Aᵀ (`k × m`) is one B-shaped panel: `a` is its `n × k` storage
        // unless A itself arrives transposed.
        Path::SkinnyNt => pack_b(a, k, m, !trans.0, pa),
    }
    fca_trace::op(OpId::GemmPack, span);
    let span = fca_trace::clock();
    match path {
        Path::Packed => gemm_packed_arm(arm, pa, pb, c, m, k, n),
        Path::SkinnyNn => crate::simd::skinny_arm(arm, pa, b, c, m, k, n),
        Path::SkinnyNt => crate::simd::skinny_nt_arm(arm, pa, b, c, m, k, n),
    }
    fca_trace::op_flops(OpId::GemmKernel, span, 2 * (m * k * n) as u64);
}

pub(crate) fn gemm_thread_local(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    trans: (bool, bool),
) {
    PACK_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        let (pa, pb) = &mut *scratch;
        gemm_into((pa, pb), a, b, c, m, k, n, trans);
    });
}

/// `C += op_a(A) · op_b(B)` with an explicit kernel arm instead of the
/// process-wide dispatch, using the per-thread pack scratch. `dims` is
/// `(m, k, n)`, `trans` the per-operand transpose flags. This is the
/// test hook for comparing arms (including the skinny path) inside one
/// process; results are bit-identical across arms.
#[cfg(test)]
pub(crate) fn gemm_arm(
    arm: Kernel,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    dims: (usize, usize, usize),
    trans: (bool, bool),
) {
    PACK_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        let (pa, pb) = &mut *scratch;
        gemm_buffers_arm(arm, (pa, pb), (a, b), c, dims, trans);
    });
}

#[allow(clippy::too_many_arguments)]
fn gemm_workspace(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    trans: (bool, bool),
    ws: &mut Workspace,
) {
    // A skinny product never touches packed-B scratch: ask the pool for none.
    let (alen, blen) = Path::of(m, k, n, trans.1).pack_lens(m, k, n);
    let mut pa = ws.alloc(alen);
    let mut pb = if blen > 0 { ws.alloc(blen) } else { Vec::new() };
    gemm_into((&mut pa, &mut pb), a, b, c, m, k, n, trans);
    ws.recycle_vec(pa);
    if blen > 0 {
        ws.recycle_vec(pb);
    }
}

/// `C = A·B` for `A: (m,k)` and `B: (k,n)`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.shape().as_matrix();
    let (kb, n) = b.shape().as_matrix();
    assert_eq!(k, kb, "matmul inner-dimension mismatch: {k} vs {kb}");
    let mut c = Tensor::zeros([m, n]);
    gemm_nn(a.data(), b.data(), c.data_mut(), m, k, n);
    c
}

/// `C = Aᵀ·B` for `A: (k,m)` and `B: (k,n)`.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = a.shape().as_matrix();
    let (kb, n) = b.shape().as_matrix();
    assert_eq!(k, kb, "matmul_tn inner-dimension mismatch: {k} vs {kb}");
    let mut c = Tensor::zeros([m, n]);
    gemm_tn(a.data(), b.data(), c.data_mut(), m, k, n);
    c
}

/// `C = A·Bᵀ` for `A: (m,k)` and `B: (n,k)`.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.shape().as_matrix();
    let (n, kb) = b.shape().as_matrix();
    assert_eq!(k, kb, "matmul_nt inner-dimension mismatch: {k} vs {kb}");
    let mut c = Tensor::zeros([m, n]);
    gemm_nt(a.data(), b.data(), c.data_mut(), m, k, n);
    c
}

/// Raw `C += A·B` on flat slices, `A: m×k`, `B: k×n`, `C: m×n`.
pub fn gemm_nn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    let span = fca_trace::clock();
    gemm_thread_local(a, b, c, m, k, n, (false, false));
    fca_trace::op(OpId::GemmNn, span);
}

/// Raw `C += Aᵀ·B` on flat slices, `A: k×m`, `B: k×n`, `C: m×n`.
pub fn gemm_tn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    let span = fca_trace::clock();
    gemm_thread_local(a, b, c, m, k, n, (true, false));
    fca_trace::op(OpId::GemmTn, span);
}

/// Raw `C += A·Bᵀ` on flat slices, `A: m×k`, `B: n×k`, `C: m×n`.
pub fn gemm_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    let span = fca_trace::clock();
    gemm_thread_local(a, b, c, m, k, n, (false, true));
    fca_trace::op(OpId::GemmNt, span);
}

/// [`gemm_nn`] with packing scratch drawn from `ws`'s recycle pool.
///
/// Bit-identical to [`gemm_nn`]; use it wherever a workspace is already
/// threaded through so packing stays visible to [`crate::WorkspaceStats`].
pub fn gemm_nn_ws(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    ws: &mut Workspace,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    let span = fca_trace::clock();
    gemm_workspace(a, b, c, m, k, n, (false, false), ws);
    fca_trace::op(OpId::GemmNn, span);
}

/// [`gemm_tn`] with packing scratch drawn from `ws`'s recycle pool.
pub fn gemm_tn_ws(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    ws: &mut Workspace,
) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    let span = fca_trace::clock();
    gemm_workspace(a, b, c, m, k, n, (true, false), ws);
    fca_trace::op(OpId::GemmTn, span);
}

/// [`gemm_nt`] with packing scratch drawn from `ws`'s recycle pool.
pub fn gemm_nt_ws(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    ws: &mut Workspace,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    let span = fca_trace::clock();
    gemm_workspace(a, b, c, m, k, n, (false, true), ws);
    fca_trace::op(OpId::GemmNt, span);
}

/// Seed `ikj` kernel for `C += A·B` (row-parallel, no packing). Kept as
/// a test oracle.
pub fn gemm_nn_naive(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    let body = |(i, c_row): (usize, &mut [f32])| {
        let a_row = &a[i * k..(i + 1) * k];
        for (kk, &aik) in a_row.iter().enumerate() {
            if aik != 0.0 {
                let b_row = &b[kk * n..(kk + 1) * n];
                for (cj, &bj) in c_row.iter_mut().zip(b_row) {
                    *cj += aik * bj;
                }
            }
        }
    };
    let span = fca_trace::clock();
    if m * k * n >= PAR_THRESHOLD && n > 0 {
        c.par_chunks_mut(n).enumerate().for_each(body);
    } else if n > 0 {
        c.chunks_mut(n).enumerate().for_each(body);
    }
    fca_trace::op_flops(OpId::GemmNaive, span, 2 * (m * k * n) as u64);
}

/// Seed kernel for `C += Aᵀ·B` (row-parallel, strided A reads).
pub fn gemm_tn_naive(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    let body = |(i, c_row): (usize, &mut [f32])| {
        for kk in 0..k {
            let aik = a[kk * m + i];
            if aik != 0.0 {
                let b_row = &b[kk * n..(kk + 1) * n];
                for (cj, &bj) in c_row.iter_mut().zip(b_row) {
                    *cj += aik * bj;
                }
            }
        }
    };
    let span = fca_trace::clock();
    if m * k * n >= PAR_THRESHOLD && n > 0 {
        c.par_chunks_mut(n).enumerate().for_each(body);
    } else if n > 0 {
        c.chunks_mut(n).enumerate().for_each(body);
    }
    fca_trace::op_flops(OpId::GemmNaive, span, 2 * (m * k * n) as u64);
}

/// Seed kernel for `C += A·Bᵀ` (row-dot products).
pub fn gemm_nt_naive(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    let body = |(i, c_row): (usize, &mut [f32])| {
        let a_row = &a[i * k..(i + 1) * k];
        for (j, cj) in c_row.iter_mut().enumerate() {
            let b_row = &b[j * k..(j + 1) * k];
            *cj += dot(a_row, b_row);
        }
    };
    let span = fca_trace::clock();
    if m * k * n >= PAR_THRESHOLD && n > 0 {
        c.par_chunks_mut(n).enumerate().for_each(body);
    } else if n > 0 {
        c.chunks_mut(n).enumerate().for_each(body);
    }
    fca_trace::op_flops(OpId::GemmNaive, span, 2 * (m * k * n) as u64);
}

/// Dot product with 8 independent accumulators.
///
/// Eight parallel chains keep two FMA/add pipes busy on wide SIMD targets
/// while still reducing deterministically (fixed tree, independent of
/// length rounding). Backs [`gemm_nt_naive`], which reduces over contiguous
/// rows.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 8];
    let chunks = a.len() / 8;
    for (av, bv) in a.chunks_exact(8).zip(b.chunks_exact(8)).take(chunks) {
        for ((s, &x), &y) in acc.iter_mut().zip(av).zip(bv) {
            *s += x * y;
        }
    }
    let mut s = ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]));
    for (&x, &y) in a[chunks * 8..].iter().zip(&b[chunks * 8..]) {
        s += x * y;
    }
    s
}

/// Naive triple-loop reference GEMM, used by tests and property checks.
pub fn matmul_reference(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.shape().as_matrix();
    let (kb, n) = b.shape().as_matrix();
    assert_eq!(k, kb);
    let mut c = Tensor::zeros([m, n]);
    for i in 0..m {
        for j in 0..n {
            let mut s = 0.0;
            for kk in 0..k {
                s += a.get2(i, kk) * b.get2(kk, j);
            }
            c.set2(i, j, s);
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.dims(), b.dims());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "{x} vs {y}"
            );
        }
    }

    #[test]
    fn matmul_matches_reference() {
        let mut rng = seeded_rng(11);
        for &(m, k, n) in &[(1, 1, 1), (3, 4, 5), (17, 9, 23), (64, 64, 64)] {
            let a = Tensor::randn([m, k], 1.0, &mut rng);
            let b = Tensor::randn([k, n], 1.0, &mut rng);
            assert_close(&matmul(&a, &b), &matmul_reference(&a, &b), 1e-4);
        }
    }

    #[test]
    fn matmul_tn_matches_transpose() {
        let mut rng = seeded_rng(12);
        let a = Tensor::randn([7, 5], 1.0, &mut rng);
        let b = Tensor::randn([7, 9], 1.0, &mut rng);
        assert_close(&matmul_tn(&a, &b), &matmul(&a.transpose(), &b), 1e-4);
    }

    #[test]
    fn matmul_nt_matches_transpose() {
        let mut rng = seeded_rng(13);
        let a = Tensor::randn([6, 5], 1.0, &mut rng);
        let b = Tensor::randn([8, 5], 1.0, &mut rng);
        assert_close(&matmul_nt(&a, &b), &matmul(&a, &b.transpose()), 1e-4);
    }

    #[test]
    fn large_parallel_path_matches_reference() {
        let mut rng = seeded_rng(14);
        let a = Tensor::randn([96, 80], 1.0, &mut rng);
        let b = Tensor::randn([80, 112], 1.0, &mut rng);
        assert_close(&matmul(&a, &b), &matmul_reference(&a, &b), 1e-3);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = seeded_rng(15);
        let a = Tensor::randn([5, 5], 1.0, &mut rng);
        let mut eye = Tensor::zeros([5, 5]);
        for i in 0..5 {
            eye.set2(i, i, 1.0);
        }
        assert_close(&matmul(&a, &eye), &a, 1e-6);
        assert_close(&matmul(&eye, &a), &a, 1e-6);
    }

    #[test]
    #[should_panic(expected = "inner-dimension mismatch")]
    fn mismatched_inner_dims_panic() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        matmul(&a, &b);
    }

    /// The packed kernels must agree with the seed kernels they replaced
    /// (to tolerance: the reduction trees differ).
    #[test]
    fn packed_variants_match_naive_kernels() {
        let mut rng = seeded_rng(16);
        for &(m, k, n) in &[(3, 5, 4), (20, 33, 41), (70, 40, 150)] {
            let a = Tensor::randn([m * k], 1.0, &mut rng);
            let b = Tensor::randn([k * n], 1.0, &mut rng);
            type K = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);
            for (fast, naive) in [
                (gemm_nn as K, gemm_nn_naive as K),
                (gemm_tn as K, gemm_tn_naive as K),
                (gemm_nt as K, gemm_nt_naive as K),
            ] {
                let mut c1 = vec![0.0f32; m * n];
                let mut c2 = vec![0.0f32; m * n];
                fast(a.data(), b.data(), &mut c1, m, k, n);
                naive(a.data(), b.data(), &mut c2, m, k, n);
                for (x, y) in c1.iter().zip(&c2) {
                    assert!(
                        (x - y).abs() <= 1e-4 * (1.0 + y.abs().max(x.abs())),
                        "{m}x{k}x{n}: {x} vs {y}"
                    );
                }
            }
        }
    }

    /// Workspace-pooled packing must be bit-identical to the thread-local
    /// path, and the second call must be served entirely from the pool.
    #[test]
    fn ws_variants_are_bit_identical_and_reuse_pool() {
        let mut rng = seeded_rng(17);
        let mut ws = Workspace::new();
        let (m, k, n) = (33, 47, 29);
        let a = Tensor::randn([m * k], 1.0, &mut rng);
        let b = Tensor::randn([k * n], 1.0, &mut rng);
        type K = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);
        type KW = fn(&[f32], &[f32], &mut [f32], usize, usize, usize, &mut Workspace);
        for (plain, pooled) in [
            (gemm_nn as K, gemm_nn_ws as KW),
            (gemm_tn as K, gemm_tn_ws as KW),
            (gemm_nt as K, gemm_nt_ws as KW),
        ] {
            let mut c1 = vec![0.0f32; m * n];
            let mut c2 = vec![0.0f32; m * n];
            plain(a.data(), b.data(), &mut c1, m, k, n);
            pooled(a.data(), b.data(), &mut c2, m, k, n, &mut ws);
            assert_eq!(c1, c2);
        }
        ws.reset_stats();
        let mut c = vec![0.0f32; m * n];
        gemm_nn_ws(a.data(), b.data(), &mut c, m, k, n, &mut ws);
        assert_eq!(ws.stats().allocations, 0, "packing buffers not recycled");
    }

    /// Each public variant, bit-identical across 1/2/8-thread pools.
    #[test]
    fn variants_bit_exact_across_thread_counts() {
        let mut rng = seeded_rng(18);
        let (m, k, n) = (130, 65, 260);
        let a = Tensor::randn([m * k], 1.0, &mut rng);
        let b = Tensor::randn([k * n], 1.0, &mut rng);
        type K = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);
        for kernel in [gemm_nn as K, gemm_tn as K, gemm_nt as K] {
            let run = || {
                let mut c = vec![0.0f32; m * n];
                kernel(a.data(), b.data(), &mut c, m, k, n);
                c
            };
            let baseline = rayon::ThreadPoolBuilder::new()
                .num_threads(1)
                .build()
                .expect("pool")
                .install(run);
            for threads in [2, 8] {
                let got = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("pool")
                    .install(run);
                assert_eq!(baseline, got, "{threads} threads changed bits");
            }
        }
    }

    /// Remainder-heavy dot coverage around the 8-lane unroll.
    #[test]
    fn dot_handles_remainders() {
        for len in 1..=17usize {
            let a: Vec<f32> = (1..=len).map(|x| x as f32).collect();
            let b = vec![1.0f32; len];
            let expect = (len * (len + 1) / 2) as f32;
            assert_eq!(dot(&a, &b), expect, "len {len}");
        }
        assert_eq!(dot(&[], &[]), 0.0);
    }
}
