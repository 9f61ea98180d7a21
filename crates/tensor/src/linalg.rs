//! Matrix products on flat slices and tensors.
//!
//! There is one slice-level entry, [`gemm`]: `C += op(A)·op(B)` in the three
//! storage orders backprop needs, picked by a [`Layout`]:
//!
//! * [`Layout::Nn`] — `C += A·B`   (input gradients: `dX = dY·W`)
//! * [`Layout::Tn`] — `C += Aᵀ·B`  (weight gradients: `dW = dYᵀ·X`)
//! * [`Layout::Nt`] — `C += A·Bᵀ`  (forward passes: `y = x·Wᵀ`)
//!
//! It asserts every slice's length against `(m, k, n)` in every build — the
//! kernels below it store through raw pointers and check nothing — then
//! routes through the packed, register-blocked engine in [`crate::gemm`]:
//! the operands are packed into MR/NR panels (a transpose is a pack-time
//! layout choice) and multiplied by one microkernel over macro-tiles on
//! the caller's thread, or, for a short `m`, through a skinny kernel that
//! streams B where it lies. Results are bit-identical across paths and
//! kernel arms.
//!
//! Packing scratch comes from the caller's [`Workspace`] recycle pool, so a
//! training loop that threads its workspace through stays allocation-free
//! and observable via [`crate::WorkspaceStats`]. [`matmul`], the
//! tensor-level `C = A·B` for callers that have no workspace (the SupCon
//! loss), keeps a pair of grow-only per-thread buffers instead; nothing else
//! does.
//!
//! [`matmul_reference`] is the independent triple-loop oracle the property
//! tests compare against; the pre-packing seed kernels live on beside this
//! module's unit tests as a second one.
//!
//! Every product carries `fca-trace` probes: pack time and kernel time are
//! split ([`fca_trace::OpId::GemmPack`] vs. `GemmKernel`, the latter with
//! the canonical `2·m·k·n` flop count), and each layout adds its own
//! call/latency row. Probes observe and never branch, so traced results are
//! bit-identical to untraced ones; with tracing inactive each probe is one
//! relaxed atomic load.

use crate::gemm::{
    gemm_packed_arm, is_len, pack_a, pack_a_rowmajor, pack_b, packed_a_len, packed_b_len,
    skinny_applies, Lhs, Store, NR,
};
use crate::simd::Kernel;
use crate::tensor::Tensor;
use crate::workspace::Workspace;
use fca_trace::OpId;
use std::cell::RefCell;

thread_local! {
    /// Per-thread packing scratch for [`matmul`], which has no workspace.
    /// Grow-only, so steady-state calls never touch the allocator.
    static PACK_SCRATCH: RefCell<(Vec<f32>, Vec<f32>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Which operand of [`gemm`] is stored transposed. `dims` is `(m, k, n)` of
/// the logical product throughout: `C` is always row-major `m × n`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// `C += A·B`: `A` stored `m × k`, `B` stored `k × n`.
    Nn,
    /// `C += Aᵀ·B`: `A` stored `k × m`, `B` stored `k × n`.
    Tn,
    /// `C += A·Bᵀ`: `A` stored `m × k`, `B` stored `n × k`.
    Nt,
}

impl Layout {
    /// The journal row this layout's calls land on.
    fn op(self) -> OpId {
        match self {
            Layout::Nn => OpId::GemmNn,
            Layout::Tn => OpId::GemmTn,
            Layout::Nt => OpId::GemmNt,
        }
    }
}

/// The engine a product runs on, chosen from its dimensions and B's storage
/// order alone; every path adds the same bits to C (see [`crate::gemm`]).
/// Only [`Path::of`] makes one, after checking the slices, so holding a
/// `Path` means the lengths the kernels rely on have been asserted.
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
    /// Check the three slices against `dims`, then pick the path.
    ///
    /// # Panics
    ///
    /// In every build, when a slice is not exactly as long as `dims` says:
    /// the skinny SIMD kernels and the packed engine's tiles read B and
    /// store C through raw pointers, and this is their only bounds check.
    fn of(layout: Layout, ab: (&[f32], &[f32]), c: &[f32], dims: (usize, usize, usize)) -> Path {
        let (m, k, n) = dims;
        assert!(is_len(ab.0.len(), m, k), "gemm: A is not m × k");
        assert!(is_len(ab.1.len(), k, n), "gemm: B is not k × n");
        assert!(is_len(c.len(), m, n), "gemm: C is not m × n");
        let trans_b = layout == Layout::Nt;
        match (skinny_applies(m, k, n, trans_b), trans_b) {
            (false, _) => Path::Packed,
            (true, false) => Path::SkinnyNn,
            (true, true) => Path::SkinnyNt,
        }
    }

    /// Pack-scratch lengths `(A, B)`: a skinny product packs its small A
    /// alone.
    fn pack_lens(self, (m, k, n): (usize, usize, usize)) -> (usize, usize) {
        match self {
            Path::Packed => (packed_a_len(m, k), packed_b_len(k, n)),
            Path::SkinnyNn => (m * k, 0),
            Path::SkinnyNt => (k * NR, 0),
        }
    }

    /// Pack what this path needs packed into `buffers` (grown to fit) and
    /// run its kernel on `arm`.
    fn run(
        self,
        arm: Kernel,
        layout: Layout,
        buffers: (&mut Vec<f32>, &mut Vec<f32>),
        ab: (&[f32], &[f32]),
        c: &mut [f32],
        dims: (usize, usize, usize),
    ) {
        let (a, b) = ab;
        let (m, k, n) = dims;
        let (pa, pb) = buffers;
        let (alen, blen) = self.pack_lens(dims);
        if pa.len() < alen {
            pa.resize(alen, 0.0);
        }
        if pb.len() < blen {
            pb.resize(blen, 0.0);
        }
        let (pa, pb) = (&mut pa[..alen], &mut pb[..blen]);
        let trans_a = layout == Layout::Tn;
        let span = fca_trace::clock();
        match self {
            Path::Packed => {
                pack_a(a, m, k, trans_a, pa);
                pack_b(b, k, n, layout == Layout::Nt, pb);
            }
            Path::SkinnyNn => pack_a_rowmajor(a, m, k, trans_a, pa),
            // Aᵀ (`k × m`) is one B-shaped panel, and `a` its `n × k` storage.
            Path::SkinnyNt => pack_b(a, k, m, true, pa),
        }
        fca_trace::op(OpId::GemmPack, span);
        let span = fca_trace::clock();
        match self {
            Path::Packed => gemm_packed_arm(arm, Lhs::Packed(pa), pb, c, Store::rows(n), dims),
            Path::SkinnyNn => crate::simd::skinny_arm(arm, pa, b, c, m, k, n),
            Path::SkinnyNt => crate::simd::skinny_nt_arm(arm, pa, b, c, m, k, n),
        }
        fca_trace::op_flops(OpId::GemmKernel, span, 2 * (m * k * n) as u64);
    }
}

/// `C += op(A)·op(B)` on flat slices, the one slice-level product: `layout`
/// says which operand is stored transposed, `dims` is `(m, k, n)`, and `C`
/// is row-major `m × n` and accumulated into (zero it first for a plain
/// product). Packing scratch is drawn from `ws`'s recycle pool and returned
/// to it, so steady-state calls allocate nothing.
///
/// # Panics
///
/// In every build, when `a`, `b` or `c` is not exactly as long as `layout`
/// and `dims` say.
pub fn gemm(
    layout: Layout,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    dims: (usize, usize, usize),
    ws: &mut Workspace,
) {
    let span = fca_trace::clock();
    let path = Path::of(layout, (a, b), c, dims);
    // A skinny product never touches packed-B scratch: ask the pool for none.
    let (alen, blen) = path.pack_lens(dims);
    let mut pa = ws.alloc(alen);
    let mut pb = if blen > 0 { ws.alloc(blen) } else { Vec::new() };
    let arm = crate::simd::active();
    path.run(arm, layout, (&mut pa, &mut pb), (a, b), c, dims);
    ws.recycle_vec(pa);
    if blen > 0 {
        ws.recycle_vec(pb);
    }
    fca_trace::op(layout.op(), span);
}

/// [`gemm`] on an explicit kernel arm, packing into the per-thread scratch:
/// [`matmul`]'s body, and the hook the tests use to compare arms (including
/// the skinny paths) inside one process. Bit-identical to [`gemm`].
pub(crate) fn gemm_arm(
    arm: Kernel,
    layout: Layout,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    dims: (usize, usize, usize),
) {
    let span = fca_trace::clock();
    let path = Path::of(layout, (a, b), c, dims);
    PACK_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        let (pa, pb) = &mut *scratch;
        path.run(arm, layout, (pa, pb), (a, b), c, dims);
    });
    fca_trace::op(layout.op(), span);
}

/// `C = A·B` for `A: (m,k)` and `B: (k,n)`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.shape().as_matrix();
    let (kb, n) = b.shape().as_matrix();
    assert_eq!(k, kb, "matmul inner-dimension mismatch: {k} vs {kb}");
    let mut c = Tensor::zeros([m, n]);
    let arm = crate::simd::active();
    gemm_arm(arm, Layout::Nn, a.data(), b.data(), c.data_mut(), (m, k, n));
    c
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
    use std::panic::{catch_unwind, AssertUnwindSafe};

    const LAYOUTS: [Layout; 3] = [Layout::Nn, Layout::Tn, Layout::Nt];

    /// Seed `ikj` kernel for `C += A·B` (no packing): an oracle.
    fn gemm_nn_naive(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        for i in 0..m {
            for kk in 0..k {
                let aik = a[i * k + kk];
                for j in 0..n {
                    c[i * n + j] += aik * b[kk * n + j];
                }
            }
        }
    }

    /// Seed kernel for `C += Aᵀ·B` (strided A reads): an oracle.
    fn gemm_tn_naive(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        for i in 0..m {
            for kk in 0..k {
                let aik = a[kk * m + i];
                for j in 0..n {
                    c[i * n + j] += aik * b[kk * n + j];
                }
            }
        }
    }

    /// Seed kernel for `C += A·Bᵀ` (row-dot products): an oracle.
    fn gemm_nt_naive(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        for i in 0..m {
            for j in 0..n {
                c[i * n + j] += dot(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
            }
        }
    }

    /// Dot product with 8 independent accumulators, reduced in a fixed tree
    /// (independent of length rounding). Backs [`gemm_nt_naive`].
    fn dot(a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len());
        let mut acc = [0.0f32; 8];
        let chunks = a.len() / 8;
        for (av, bv) in a.chunks_exact(8).zip(b.chunks_exact(8)).take(chunks) {
            for ((s, &x), &y) in acc.iter_mut().zip(av).zip(bv) {
                *s += x * y;
            }
        }
        let mut s =
            ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]));
        for (&x, &y) in a[chunks * 8..].iter().zip(&b[chunks * 8..]) {
            s += x * y;
        }
        s
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.dims(), b.dims());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "{x} vs {y}"
            );
        }
    }

    /// `op(A)·op(B)` through [`gemm`] into a zeroed `m × n` tensor.
    fn product(layout: Layout, a: &Tensor, b: &Tensor, dims: (usize, usize, usize)) -> Tensor {
        let mut c = Tensor::zeros([dims.0, dims.2]);
        let mut ws = Workspace::new();
        gemm(layout, a.data(), b.data(), c.data_mut(), dims, &mut ws);
        c
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
    fn gemm_tn_matches_transpose() {
        let mut rng = seeded_rng(12);
        let a = Tensor::randn([7, 5], 1.0, &mut rng);
        let b = Tensor::randn([7, 9], 1.0, &mut rng);
        let tn = product(Layout::Tn, &a, &b, (5, 7, 9));
        assert_close(&tn, &matmul(&a.transpose(), &b), 1e-4);
    }

    #[test]
    fn gemm_nt_matches_transpose() {
        let mut rng = seeded_rng(13);
        let a = Tensor::randn([6, 5], 1.0, &mut rng);
        let b = Tensor::randn([8, 5], 1.0, &mut rng);
        let nt = product(Layout::Nt, &a, &b, (6, 5, 8));
        assert_close(&nt, &matmul(&a, &b.transpose()), 1e-4);
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
        let mut ws = Workspace::new();
        for &(m, k, n) in &[(3, 5, 4), (20, 33, 41), (70, 40, 150)] {
            let a = Tensor::randn([m * k], 1.0, &mut rng);
            let b = Tensor::randn([k * n], 1.0, &mut rng);
            type K = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);
            for (layout, naive) in [
                (Layout::Nn, gemm_nn_naive as K),
                (Layout::Tn, gemm_tn_naive as K),
                (Layout::Nt, gemm_nt_naive as K),
            ] {
                let mut c1 = vec![0.0f32; m * n];
                let mut c2 = vec![0.0f32; m * n];
                gemm(layout, a.data(), b.data(), &mut c1, (m, k, n), &mut ws);
                naive(a.data(), b.data(), &mut c2, m, k, n);
                for (x, y) in c1.iter().zip(&c2) {
                    assert!(
                        (x - y).abs() <= 1e-4 * (1.0 + y.abs().max(x.abs())),
                        "{layout:?} {m}x{k}x{n}: {x} vs {y}"
                    );
                }
            }
        }
    }

    /// Workspace-pooled packing must be bit-identical to the thread-local
    /// scratch [`matmul`] packs into, and the second call must be served
    /// entirely from the pool.
    #[test]
    fn ws_variants_are_bit_identical_and_reuse_pool() {
        let mut rng = seeded_rng(17);
        let mut ws = Workspace::new();
        let (m, k, n) = (33, 47, 29);
        let a = Tensor::randn([m * k], 1.0, &mut rng);
        let b = Tensor::randn([k * n], 1.0, &mut rng);
        let arm = crate::simd::active();
        for layout in LAYOUTS {
            let mut c1 = vec![0.0f32; m * n];
            let mut c2 = vec![0.0f32; m * n];
            gemm_arm(arm, layout, a.data(), b.data(), &mut c1, (m, k, n));
            gemm(layout, a.data(), b.data(), &mut c2, (m, k, n), &mut ws);
            assert_eq!(c1, c2, "{layout:?}");
        }
        let (at, bt) = (a.reshaped([m, k]), b.reshaped([k, n]));
        assert_eq!(
            matmul(&at, &bt).data(),
            product(Layout::Nn, &at, &bt, (m, k, n)).data()
        );
        ws.reset_stats();
        let mut c = vec![0.0f32; m * n];
        gemm(Layout::Nn, a.data(), b.data(), &mut c, (m, k, n), &mut ws);
        assert_eq!(ws.stats().allocations, 0, "packing buffers not recycled");
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

    /// A `C` one strip short and an `A` one element short must be refused
    /// before any kernel runs, on every arm, skinny (`4×8×64`) and packed
    /// (`32×8×32`) alike. Release is the configuration that matters: there
    /// the inner `debug_assert!`s are compiled out and, before the entry
    /// asserted, the call returned with 8.0 written past the end of the
    /// slice; a debug run passed even then.
    #[test]
    fn gemm_refuses_short_slices_on_every_arm() {
        for arm in crate::simd::available() {
            for (m, k, n) in [(4, 8, 64), (32, 8, 32)] {
                for layout in LAYOUTS {
                    let a = vec![1.0f32; m * k];
                    let b = vec![1.0f32; k * n];
                    let mut c = vec![0.0f32; m * n];
                    let short = m * n - 16;
                    let refused = catch_unwind(AssertUnwindSafe(|| {
                        gemm_arm(arm, layout, &a, &b, &mut c[..short], (m, k, n));
                    }));
                    let at = format!("{} {layout:?} {m}x{k}x{n}", arm.as_str());
                    assert!(refused.is_err(), "short C accepted: {at}");
                    assert!(c.iter().all(|&v| v == 0.0), "C written to: {at}");
                    let refused = catch_unwind(AssertUnwindSafe(|| {
                        gemm_arm(arm, layout, &a[1..], &b, &mut c, (m, k, n));
                    }));
                    assert!(refused.is_err(), "short A accepted: {at}");
                    let refused = catch_unwind(AssertUnwindSafe(|| {
                        gemm_arm(arm, layout, &a, &b[1..], &mut c, (m, k, n));
                    }));
                    assert!(refused.is_err(), "short B accepted: {at}");
                    assert!(c.iter().all(|&v| v == 0.0), "C written to: {at}");
                }
            }
        }
    }

    /// The public entry itself, skinny shape: the panic is the entry's own.
    #[test]
    #[should_panic(expected = "gemm: C is not m × n")]
    fn gemm_short_c_panics() {
        let (m, k, n) = (4, 8, 64);
        let (a, b) = (vec![1.0f32; m * k], vec![1.0f32; k * n]);
        let mut c = vec![0.0f32; m * n - 16];
        gemm(Layout::Nn, &a, &b, &mut c, (m, k, n), &mut Workspace::new());
    }

    /// The public entry, packed shape, `A` one element short.
    #[test]
    #[should_panic(expected = "gemm: A is not m × k")]
    fn gemm_short_a_panics() {
        let (m, k, n) = (32, 8, 32);
        let (a, b) = (vec![1.0f32; m * k - 1], vec![1.0f32; k * n]);
        let mut c = vec![0.0f32; m * n];
        gemm(Layout::Nn, &a, &b, &mut c, (m, k, n), &mut Workspace::new());
    }

    /// Dimensions whose product wraps must not pass for a short slice.
    #[test]
    #[should_panic(expected = "gemm: A is not m × k")]
    fn gemm_overflowing_dims_panic() {
        let mut c = [0.0f32; 0];
        let dims = (usize::MAX / 2 + 1, 2, 0);
        gemm(Layout::Nn, &[], &[], &mut c, dims, &mut Workspace::new());
    }
}
