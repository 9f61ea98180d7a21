//! Explicit-SIMD microkernels and runtime kernel dispatch.
//!
//! This module is the **only** place in the workspace allowed to touch
//! `std::arch`/`core::arch` intrinsics or `is_x86_feature_detected!`
//! (enforced by `scripts/ci.sh`'s K1 check), so every ISA decision is auditable
//! in one file. Everything else selects a kernel through [`active`] /
//! [`Kernel`] and calls the `*_arm` dispatch shims below.
//!
//! # Kernel arms
//!
//! * [`Kernel::Scalar`] — the safe autovectorized engine from
//!   [`crate::gemm`]: the portable packed kernel and the portable row-view
//!   one. Portable fallback **and** bit-exactness oracle.
//! * [`Kernel::Avx2Fma`] — one AVX2+FMA row-view kernel: the 8×16 tile as
//!   two 4×16 register passes (8 YMM accumulators + 2 B vectors + 1
//!   broadcast stay inside the 16-register file), for a row-view A and a
//!   packed panel read as one (`gemm::RowTile::panel`), the transposed
//!   store turned in 8 × 8 blocks (with it `hetero_train` ran 1.44× as
//!   fast as on the portable row kernel, EXPERIMENTS.md *Read in place,
//!   second pass*). Skinny-m products run the portable
//!   kernels: an AVX2 one measured level with them end to end
//!   (EXPERIMENTS.md, *Paid for, or gone*).
//! * [`Kernel::Avx512`] — AVX-512F variant: one ZMM covers the full
//!   `NR = 16` tile width, so all 8 rows accumulate in a single pass. The
//!   one arm with a packed-A kernel of its own beside its row-view one
//!   (with which `hetero_train` ran 1.06× as fast as on the portable
//!   kernel, EXPERIMENTS.md *Conv backward in place*), and with kernels
//!   for the skinny shapes: row-major B in 16-column strips, a B stored
//!   `n × k` as sixteen rows transposed in registers.
//!
//! The arm also picks the Box–Muller evaluator of [`crate::rng`]'s normal
//! fills (`box_muller_arm`): AVX-512 has one of its own, eight pairs of
//! words to a ZMM of `f64` lanes with `logf`'s table held in registers;
//! every other arm runs the portable loop. Like the GEMM arms, it performs
//! the portable code's operations one for one (separate multiplies and
//! adds, no contraction), so it gives the same bits.
//!
//! # Determinism contract
//!
//! Every arm performs the *identical* per-element arithmetic: KC slabs in
//! ascending order, sequential-k accumulation from 0.0 within a slab, one
//! f32 add into C per slab, and the same fused-vs-unfused multiply-add
//! choice (the crate-wide `BASE_FMA` constant, captured *outside* any
//! `#[target_feature]` context so it reflects the build flags rather than
//! the kernel's enabled features). Vector lanes are just parallel copies
//! of the scalar chain, so **kernel choice never affects result bits** —
//! property-tested exhaustively in this module and relied on by the
//! seeded-run reproducibility guarantees.
//!
//! # Bounds
//!
//! The kernels here store through raw pointers and check no length in a
//! release build. The lengths are the *caller's*: [`crate::linalg::gemm`] and
//! [`crate::gemm::gemm_packed_arm`] `assert!` every slice against `(m, k, n)`
//! before any of them runs, and nothing outside this crate can reach them
//! another way.

use crate::gemm::{
    add_tile, microkernel, microkernel_rows, skinny_nt_scalar, skinny_scalar, RowTile, KC, MR, NR,
};
use crate::rng::{box_muller_portable, LANES};
use std::sync::OnceLock;

/// True when the crate itself is compiled with FMA codegen (e.g.
/// `-C target-cpu=native` from `.cargo/config.toml`). The explicit kernels
/// branch on this so their multiply-add contraction always matches the
/// scalar oracle's [`crate::gemm::fmadd`], whatever features a build enables.
pub(crate) const BASE_FMA: bool = cfg!(target_feature = "fma");

/// A GEMM kernel arm, resolved once per process by [`active`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// Safe autovectorized fallback (also the bit-exactness oracle).
    Scalar,
    /// Explicit AVX2+FMA packed microkernels.
    Avx2Fma,
    /// Explicit AVX-512F microkernels.
    Avx512,
}

impl Kernel {
    /// Stable lowercase name, as recorded in the trace `run_start` event
    /// and the `FCA_GEMM_KERNEL` override.
    pub fn as_str(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Avx2Fma => "avx2_fma",
            Kernel::Avx512 => "avx512",
        }
    }
}

/// What runtime detection resolved, cached for the process lifetime.
static RESOLVED: OnceLock<Kernel> = OnceLock::new();

/// The kernel arm every GEMM entry point dispatches to, resolved once from
/// CPUID (plus the `FCA_GEMM_KERNEL` override: `scalar` forces the
/// fallback, `avx2_fma`/`avx512` force an arm that must be available,
/// `auto`/unset picks the best detected).
pub fn active() -> Kernel {
    *RESOLVED.get_or_init(resolve)
}

/// All arms the current machine can run, scalar first. Test and bench
/// harnesses iterate this to compare arms bit-for-bit in one process.
pub fn available() -> Vec<Kernel> {
    let mut arms = vec![Kernel::Scalar];
    if detect(Kernel::Avx2Fma) {
        arms.push(Kernel::Avx2Fma);
    }
    if detect(Kernel::Avx512) {
        arms.push(Kernel::Avx512);
    }
    arms
}

fn resolve() -> Kernel {
    match std::env::var("FCA_GEMM_KERNEL") {
        Ok(v) => match v.as_str() {
            "" | "auto" => best(),
            "scalar" => Kernel::Scalar,
            "avx2" | "avx2_fma" => forced(Kernel::Avx2Fma),
            "avx512" => forced(Kernel::Avx512),
            other => panic!(
                "FCA_GEMM_KERNEL={other:?} is not a kernel \
                 (expected auto|scalar|avx2_fma|avx512)"
            ),
        },
        Err(_) => best(),
    }
}

fn forced(arm: Kernel) -> Kernel {
    assert!(
        detect(arm),
        "FCA_GEMM_KERNEL forces {} but the CPU does not support it",
        arm.as_str()
    );
    arm
}

fn best() -> Kernel {
    if detect(Kernel::Avx512) {
        Kernel::Avx512
    } else if detect(Kernel::Avx2Fma) {
        Kernel::Avx2Fma
    } else {
        Kernel::Scalar
    }
}

#[cfg(target_arch = "x86_64")]
fn detect(arm: Kernel) -> bool {
    match arm {
        Kernel::Scalar => true,
        Kernel::Avx2Fma => {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        }
        Kernel::Avx512 => {
            std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("fma")
        }
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect(arm: Kernel) -> bool {
    arm == Kernel::Scalar
}

// ---------------------------------------------------------------------------
// Dispatch shims: one `match` per microkernel invocation (microkernels cost
// thousands of cycles each, so the predicted branch is free) and no fn
// pointers, which keeps `#[target_feature]` coercion rules out of play.
// ---------------------------------------------------------------------------

/// f32 microkernel for one MR×NR tile of a packed A on the given arm:
/// AVX-512 has one of its own, AVX2 runs its row-view kernel over the
/// panel ([`RowTile::panel`]), the scalar arm the portable packed kernel.
///
/// # Safety
///
/// `c` must be valid for `mr × nr` read/writes at row stride `ldc` with
/// no concurrent aliasing.
/// Non-scalar arms additionally require that `arm` was reported available
/// by [`available`]/[`active`] (runtime CPUID detection).
// SAFETY: each match arm forwards the caller's contract unchanged; the
// ISA-specific arms are only reachable for arms that runtime detection
// reported available.
pub(crate) unsafe fn microkernel_arm(
    arm: Kernel,
    pa: &[f32],
    pb: &[f32],
    c: *mut f32,
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    match arm {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx512 => x86::microkernel_avx512(pa, pb, c, ldc, mr, nr),
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2Fma => {
            microkernel_rows_arm(arm, RowTile::panel(pa), pb, (c, ldc, false), mr, nr)
        }
        _ => microkernel(pa, pb, c, ldc, mr, nr),
    }
}

/// Row-view microkernel (A read in place, [`crate::gemm::Lhs::Rows`]; k
/// summed in chains, C `(c, ldc, trans)` transposed under `trans`,
/// [`crate::gemm::Store`]) for one MR×NR tile on the given arm: AVX2 and
/// AVX-512 have one each, the scalar arm runs the portable one.
///
/// # Safety
///
/// As [`microkernel_arm`], the region transposed under `trans`; every
/// `a.src[row + kk]` the tile reads must be in bounds (`gemm_packed_arm`
/// asserts it for the whole operand before any tile runs).
// SAFETY: each match arm forwards the caller's contract unchanged; the
// AVX2 and AVX-512 arms are only reachable when runtime detection
// reported them.
// Never inlined: the portable kernel's chains inlined into the tile loop
// cost a packed-A product ~2× (measured at 8×16×196 on AVX-512).
#[inline(never)]
pub(crate) unsafe fn microkernel_rows_arm(
    arm: Kernel,
    a: RowTile<'_>,
    pb: &[f32],
    c: (*mut f32, usize, bool),
    mr: usize,
    nr: usize,
) {
    match arm {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2Fma => x86::microkernel_rows_avx2(a, pb, c, mr, nr),
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx512 => x86::microkernel_rows_avx512(a, pb, c, mr, nr),
        _ => microkernel_rows(a, pb, c, mr, nr),
    }
}

/// Skinny-m kernel (`C += A_rowmajor · B`, B read directly, no packing)
/// on the given arm: AVX-512 has one of its own, every other arm runs the
/// portable one. Safe: operates on checked slices — `arow` is `m·k`, `b`
/// is `k·n` and `c` is `m·n`, asserted by [`crate::linalg::gemm`], the one
/// caller outside the tests.
pub(crate) fn skinny_arm(
    arm: Kernel,
    arow: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    match arm {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: runtime detection established AVX-512F before handing
        // out this `Kernel` value.
        Kernel::Avx512 => unsafe { x86::skinny_avx512(arow, b, c, m, k, n) },
        _ => skinny_scalar(arow, b, c, m, k, n),
    }
}

/// Skinny-m kernel for B stored `n × k` (`C += A·Bᵀ`, B read in place, `at`
/// the one-panel pack of Aᵀ — see [`skinny_nt_scalar`]) on the given arm.
/// Safe: operates on checked slices — `at` is `k·NR`, `b` is `n·k` and `c` is
/// `m·n`, asserted by [`crate::linalg::gemm`]. Only AVX-512 has a kernel of its own,
/// and only where it is faster (`m ≤ 8`); every other arm and shape runs the
/// portable code.
pub(crate) fn skinny_nt_arm(
    arm: Kernel,
    at: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    match arm {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: runtime detection established AVX-512F before handing
        // out this `Kernel` value.
        Kernel::Avx512 if m <= x86::SKINNY_NT_MAX_M => unsafe {
            x86::skinny_nt_avx512(at, b, c, m, k, n)
        },
        _ => skinny_nt_scalar(at, b, c, m, k, n),
    }
}

/// Box–Muller evaluator of [`crate::rng`]'s normal fills on the given arm:
/// `r·cos θ` of each pair of `words` into `cos` and, under `SIN`, `r·sin θ`
/// into `sin` — `r = √(−2 ln u₁)` on `rng`'s port of `logf`, `sinf` and
/// `cosf`, bit for bit. AVX-512 has one of its own, a ZMM of `f64` lanes per eight pairs;
/// every other arm runs the portable loop. Safe: `words` is whole groups of
/// [`LANES`] and `cos` (under `SIN`, `sin` too) is as long, asserted here.
pub(crate) fn box_muller_arm<const SIN: bool>(
    arm: Kernel,
    words: &[[u64; 2]],
    cos: &mut [f32],
    sin: &mut [f32],
) {
    assert!(
        words.len().is_multiple_of(LANES)
            && cos.len() == words.len()
            && (!SIN || sin.len() == words.len()),
        "box_muller: lanes are not whole groups of {LANES}"
    );
    match arm {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: runtime detection established AVX-512F before handing
        // out this `Kernel` value; the lengths are asserted above.
        Kernel::Avx512 => unsafe { x86::box_muller_avx512::<SIN>(words, cos, sin) },
        _ => box_muller_portable::<SIN>(words, cos, sin),
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{add_tile, RowTile, BASE_FMA, KC, LANES, MR, NR};
    use crate::rng::{
        COS_POLY, HPI, HPI_INV, LN2, LOG_OFF, LOG_POLY, LOG_TABLE, SIN_POLY, UNIT_F32,
    };
    use core::arch::x86_64::*;

    /// Multiply-add matching the scalar [`crate::gemm::fmadd`] contraction choice: the
    /// `BASE_FMA` branch is a compile-time constant, so this folds to one
    /// instruction either way.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA. The body is intrinsics on
    /// registers with no memory access; it is reached only from kernels
    /// that dispatch resolved as AVX2+FMA-capable at startup.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn fm256(a: __m256, b: __m256, c: __m256) -> __m256 {
        if BASE_FMA {
            _mm256_fmadd_ps(a, b, c)
        } else {
            _mm256_add_ps(_mm256_mul_ps(a, b), c)
        }
    }

    /// [`fm256`] at ZMM width.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F. The body is intrinsics on registers
    /// with no memory access; it is reached only from the AVX-512 kernels,
    /// which dispatch gates on avx512f support.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn fm512(a: __m512, b: __m512, c: __m512) -> __m512 {
        if BASE_FMA {
            _mm512_fmadd_ps(a, b, c)
        } else {
            _mm512_add_ps(_mm512_mul_ps(a, b), c)
        }
    }

    /// [`microkernel_rows_avx512`] on AVX2+FMA: two passes of four rows
    /// (8 YMM accumulators + 2 B vectors + 1 broadcast stay inside the
    /// 16-register file), each row's `a` broadcast from its view; chains
    /// and store as in [`crate::gemm::microkernel_rows`], bit for bit. Also
    /// the arm's packed kernel ([`RowTile::panel`]): with the portable row
    /// kernel in its place, `hetero_train` under `FCA_GEMM_KERNEL=avx2_fma`
    /// ran 0.70× as fast (EXPERIMENTS.md *Read in place, second pass*).
    /// Transposed, the
    /// tile is turned as two 8 × 8 blocks and lane `j`'s `mr` pixels land
    /// as one (masked when `mr < MR`) add at `c + j·ldc`.
    ///
    /// # Safety
    ///
    /// AVX2+FMA must be available; `c` valid for `mr × nr` read/writes at
    /// stride `ldc` (transposed under `trans`), exclusive to this call;
    /// `a.rows` holds `mr` offsets, `pb` `a.ks.len()` panel steps, and every
    /// `a.src[row + kk]` is in bounds.
    // SAFETY: a ragged tile's spare rows reuse row 0's offset, so every
    // load is one the caller vouched for; each pass's `bp` walks exactly
    // the `a.ks.len()` panel steps of `pb`; stores stay in the `mr × nr`
    // region (masked lanes `< mr` of `nr` runs when transposed).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn microkernel_rows_avx2(
        a: RowTile<'_>,
        pb: &[f32],
        (c, ldc, trans): (*mut f32, usize, bool),
        mr: usize,
        nr: usize,
    ) {
        debug_assert_eq!(pb.len(), a.ks.len() * NR);
        let rp: [*const f32; MR] = std::array::from_fn(|i| {
            let row = a.rows[if i < mr { i } else { 0 }] as usize;
            a.src.as_ptr().add(row)
        });
        let zero = [_mm256_setzero_ps(); 2];
        let mut total = [zero; MR];
        let passes = rp.chunks_exact(4).zip(total.chunks_exact_mut(4));
        for (rp, total) in passes.take(mr.div_ceil(4)) {
            let mut bp = pb.as_ptr();
            for ks in a.ks.chunks(a.chain) {
                let mut sum = [zero; 4];
                for (slab, ks) in ks.chunks(KC).enumerate() {
                    let mut acc = [zero; 4];
                    for &kk in ks {
                        let kk = kk as usize;
                        let (b0, b1) = (_mm256_loadu_ps(bp), _mm256_loadu_ps(bp.add(8)));
                        for (accr, p) in acc.iter_mut().zip(rp) {
                            let av = _mm256_set1_ps(*p.add(kk));
                            accr[0] = fm256(av, b0, accr[0]);
                            accr[1] = fm256(av, b1, accr[1]);
                        }
                        bp = bp.add(NR);
                    }
                    for (s, a) in sum.iter_mut().zip(&acc) {
                        for (s, &a) in s.iter_mut().zip(a) {
                            *s = if slab == 0 { a } else { _mm256_add_ps(*s, a) };
                        }
                    }
                }
                for (t, s) in total.iter_mut().zip(&sum) {
                    for (t, &s) in t.iter_mut().zip(s) {
                        *t = _mm256_add_ps(*t, s);
                    }
                }
            }
        }
        if !trans {
            // Two YMM are one 16-lane row: the portable store takes the tile.
            let rows: [[f32; NR]; MR] = std::mem::transmute(total);
            return add_tile(&rows, c, (ldc, false), mr, nr);
        }
        let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(mr as i32), lanes);
        for half in 0..nr.div_ceil(8) {
            let mut t: [__m256; 8] = total.map(|row| row[half]);
            transpose8(&mut t);
            for (j, &tj) in t.iter().enumerate().take(nr - 8 * half) {
                let cp = c.add((8 * half + j) * ldc);
                if mr == MR {
                    _mm256_storeu_ps(cp, _mm256_add_ps(_mm256_loadu_ps(cp), tj));
                } else {
                    let sum = _mm256_add_ps(_mm256_maskload_ps(cp, mask), tj);
                    _mm256_maskstore_ps(cp, mask, sum);
                }
            }
        }
    }

    /// In-register transpose of an 8 × 8 f32 block: `t[q]` lane `l` becomes
    /// the old `t[l]` lane `q`. Interleave 32-bit pairs, then 64-bit pairs
    /// within 128-bit lanes, then swap 128-bit halves (24 shuffles).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX. The body shuffles registers and indexes
    /// `t` only with in-bounds constants; it is reached only from the AVX2
    /// row-view kernel, which dispatch gates on avx2 support.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn transpose8(t: &mut [__m256; 8]) {
        let mut u = [_mm256_setzero_ps(); 8];
        for i in 0..4 {
            u[2 * i] = _mm256_unpacklo_ps(t[2 * i], t[2 * i + 1]);
            u[2 * i + 1] = _mm256_unpackhi_ps(t[2 * i], t[2 * i + 1]);
        }
        // v[4g + c], 128-bit half H: column 4H + c of rows 4g..4g + 4.
        let mut v = [_mm256_setzero_ps(); 8];
        for g in 0..2 {
            // 0x44 keeps elements 0 and 1 of each operand, 0xEE 2 and 3.
            v[4 * g] = _mm256_shuffle_ps::<0x44>(u[4 * g], u[4 * g + 2]);
            v[4 * g + 1] = _mm256_shuffle_ps::<0xEE>(u[4 * g], u[4 * g + 2]);
            v[4 * g + 2] = _mm256_shuffle_ps::<0x44>(u[4 * g + 1], u[4 * g + 3]);
            v[4 * g + 3] = _mm256_shuffle_ps::<0xEE>(u[4 * g + 1], u[4 * g + 3]);
        }
        for c in 0..4 {
            // 0x20 joins the low halves, 0x31 the high ones.
            t[c] = _mm256_permute2f128_ps::<0x20>(v[c], v[4 + c]);
            t[4 + c] = _mm256_permute2f128_ps::<0x31>(v[c], v[4 + c]);
        }
    }

    /// AVX-512F f32 microkernel: one ZMM spans the NR=16 tile width, so
    /// all 8 rows accumulate in a single pass (8 accumulators + 1 B
    /// vector). Bit-identical to [`crate::gemm::microkernel_rows`] over
    /// the panel.
    ///
    /// # Safety
    ///
    /// AVX-512F must be available; `c` valid for `mr × nr` read/writes at
    /// stride `ldc`, exclusive to this call.
    // SAFETY: loads walk exactly kc panel rows; stores are clipped to the
    // caller's mr×nr region (spill path for partial tiles).
    #[target_feature(enable = "avx512f", enable = "fma")]
    pub(super) unsafe fn microkernel_avx512(
        pa: &[f32],
        pb: &[f32],
        c: *mut f32,
        ldc: usize,
        mr: usize,
        nr: usize,
    ) {
        let kc = pb.len() / NR;
        debug_assert_eq!(pa.len(), kc * MR);
        let mut acc = [_mm512_setzero_ps(); MR];
        let mut ap = pa.as_ptr();
        let mut bp = pb.as_ptr();
        for _ in 0..kc {
            let b = _mm512_loadu_ps(bp);
            for (r, accr) in acc.iter_mut().enumerate() {
                *accr = fm512(_mm512_set1_ps(*ap.add(r)), b, *accr);
            }
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        add_tile_avx512(&acc, c, ldc, mr, nr);
    }

    /// [`microkernel_avx512`] with A's rows read in place: per k step, each
    /// row's `a` is broadcast straight from its view; chains and store as
    /// in [`crate::gemm::microkernel_rows`], bit for bit.
    ///
    /// # Safety
    ///
    /// As [`microkernel_avx512`], C's region transposed under `trans`;
    /// `a.rows` holds `mr` offsets, `pb` `a.ks.len()` panel steps, and every
    /// `a.src[row + kk]` is in bounds.
    // SAFETY: a ragged tile's spare rows reuse row 0's offset, so every
    // load is one the caller vouched for; `bp` walks exactly the
    // `a.ks.len()` panel steps of `pb`; stores stay in the `mr × nr` region
    // (masked lanes `< mr` of `nr` runs when transposed).
    #[target_feature(enable = "avx512f", enable = "fma")]
    pub(super) unsafe fn microkernel_rows_avx512(
        a: RowTile<'_>,
        pb: &[f32],
        (c, ldc, trans): (*mut f32, usize, bool),
        mr: usize,
        nr: usize,
    ) {
        debug_assert_eq!(pb.len(), a.ks.len() * NR);
        let base = a.src.as_ptr();
        let rp: [*const f32; MR] = std::array::from_fn(|i| {
            let row = a.rows[if i < mr { i } else { 0 }] as usize;
            base.add(row)
        });
        let mut total = [_mm512_setzero_ps(); MR];
        let mut bp = pb.as_ptr();
        for ks in a.ks.chunks(a.chain) {
            let mut sum = [_mm512_setzero_ps(); MR];
            for (slab, ks) in ks.chunks(KC).enumerate() {
                let mut acc = [_mm512_setzero_ps(); MR];
                for &kk in ks {
                    let kk = kk as usize;
                    let b = _mm512_loadu_ps(bp);
                    for (accr, p) in acc.iter_mut().zip(&rp) {
                        *accr = fm512(_mm512_set1_ps(*p.add(kk)), b, *accr);
                    }
                    bp = bp.add(NR);
                }
                for (s, &a) in sum.iter_mut().zip(&acc) {
                    *s = if slab == 0 { a } else { _mm512_add_ps(*s, a) };
                }
            }
            for (t, &s) in total.iter_mut().zip(&sum) {
                *t = _mm512_add_ps(*t, s);
            }
        }
        if !trans {
            return add_tile_avx512(&total, c, ldc, mr, nr);
        }
        // Transposed: the tile is turned in registers (its upper eight rows
        // zero), and lane `j`'s `mr` pixels land as one masked add, which
        // touches nothing past them, at `c + j·ldc`.
        let mut t = [_mm512_setzero_ps(); NR];
        t[..MR].copy_from_slice(&total);
        transpose16(&mut t);
        let mask = ((1u32 << mr) - 1) as __mmask16;
        for (j, &tj) in t.iter().enumerate().take(nr) {
            let cp = c.add(j * ldc);
            let sum = _mm512_add_ps(_mm512_maskz_loadu_ps(mask, cp), tj);
            _mm512_mask_storeu_ps(cp, mask, sum);
        }
    }

    /// Add the `mr × nr` corner of an AVX-512 register tile into C.
    ///
    /// # Safety
    ///
    /// AVX-512F must be available and `c` valid for `mr × nr` read/writes
    /// at stride `ldc`, exclusive to this call.
    // SAFETY: stores are clipped to the caller's mr×nr region (spill path
    // for partial tiles).
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn add_tile_avx512(acc: &[__m512; MR], c: *mut f32, ldc: usize, mr: usize, nr: usize) {
        for (i, accr) in acc.iter().enumerate().take(mr) {
            let cp = c.add(i * ldc);
            if nr == NR {
                _mm512_storeu_ps(cp, _mm512_add_ps(_mm512_loadu_ps(cp), *accr));
            } else {
                let mut spill = [0.0f32; NR];
                _mm512_storeu_ps(spill.as_mut_ptr(), *accr);
                for (j, &v) in spill.iter().take(nr).enumerate() {
                    *cp.add(j) += v;
                }
            }
        }
    }

    /// Skinny-m driver: 16-column strips, B read directly from row-major
    /// storage (no pack), scalar column tail. One 16-lane register covers
    /// a whole strip, and with 32 vector registers the row group stretches
    /// to the full skinny range (`m ≤ 16`), so each strip streams B exactly
    /// once with one load per `k` step feeding up to 16 FMAs. Per-lane
    /// accumulation chains are identical to the scalar strips, so results
    /// stay bit-for-bit equal.
    ///
    /// # Safety
    ///
    /// AVX-512F must be available, and the bounds are the caller's: `arow`
    /// must be `m·k`, `b` `k·n` and `c` `m·n` long. Nothing below checks
    /// them in a release build; [`crate::linalg::gemm`] asserts them before
    /// it dispatches here.
    // SAFETY: given those lengths, every group call reads rows below `m`,
    // columns below `n` and k steps below `k`.
    pub(super) unsafe fn skinny_avx512(
        arow: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        debug_assert_eq!(arow.len(), m * k);
        debug_assert_eq!(b.len(), k * n);
        debug_assert_eq!(c.len(), m * n);
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        let nstrip = n - n % NR;
        let cp = c.as_mut_ptr();
        let mut j0 = 0;
        while j0 < nstrip {
            let mut i0 = 0;
            while i0 + 16 <= m {
                skinny_avx512_group::<16>(arow, b, cp, i0, j0, (k, n));
                i0 += 16;
            }
            // One group per remainder size: a single B pass per strip
            // (16 accumulators + B + broadcast still fit in 32 ZMMs).
            match m - i0 {
                0 => {}
                1 => skinny_avx512_group::<1>(arow, b, cp, i0, j0, (k, n)),
                2 => skinny_avx512_group::<2>(arow, b, cp, i0, j0, (k, n)),
                3 => skinny_avx512_group::<3>(arow, b, cp, i0, j0, (k, n)),
                4 => skinny_avx512_group::<4>(arow, b, cp, i0, j0, (k, n)),
                5 => skinny_avx512_group::<5>(arow, b, cp, i0, j0, (k, n)),
                6 => skinny_avx512_group::<6>(arow, b, cp, i0, j0, (k, n)),
                7 => skinny_avx512_group::<7>(arow, b, cp, i0, j0, (k, n)),
                8 => skinny_avx512_group::<8>(arow, b, cp, i0, j0, (k, n)),
                9 => skinny_avx512_group::<9>(arow, b, cp, i0, j0, (k, n)),
                10 => skinny_avx512_group::<10>(arow, b, cp, i0, j0, (k, n)),
                11 => skinny_avx512_group::<11>(arow, b, cp, i0, j0, (k, n)),
                12 => skinny_avx512_group::<12>(arow, b, cp, i0, j0, (k, n)),
                13 => skinny_avx512_group::<13>(arow, b, cp, i0, j0, (k, n)),
                14 => skinny_avx512_group::<14>(arow, b, cp, i0, j0, (k, n)),
                _ => skinny_avx512_group::<15>(arow, b, cp, i0, j0, (k, n)),
            }
            j0 += NR;
        }
        if nstrip < n {
            crate::gemm::skinny_tail(arow, b, c, m, k, n, nstrip);
        }
    }

    /// One `R`-row × 16-column block of the AVX-512 skinny kernel over all
    /// KC slabs (`R ≤ 16`: R accumulators + 1 B vector + 1 broadcast).
    ///
    /// # Safety
    ///
    /// Rows `[i0, i0+R)` and columns `[j0, j0+16)` must be in bounds for
    /// `arow` (`m × k` row-major), `b` (`k × n`), and `c` (`m × n`).
    // SAFETY: every load/store below indexes row < i0+R, col < j0+16,
    // k < kn.0, all inside the caller-guaranteed bounds.
    #[target_feature(enable = "avx512f")]
    unsafe fn skinny_avx512_group<const R: usize>(
        arow: &[f32],
        b: &[f32],
        c: *mut f32,
        i0: usize,
        j0: usize,
        kn: (usize, usize),
    ) {
        let (k, n) = kn;
        let ap = arow.as_ptr();
        let bp = b.as_ptr();
        let mut kc_lo = 0;
        while kc_lo < k {
            let kc_hi = (kc_lo + KC).min(k);
            let mut acc = [_mm512_setzero_ps(); R];
            for kk in kc_lo..kc_hi {
                let bv = _mm512_loadu_ps(bp.add(kk * n + j0));
                for (r, accr) in acc.iter_mut().enumerate() {
                    let av = _mm512_set1_ps(*ap.add((i0 + r) * k + kk));
                    *accr = fm512(av, bv, *accr);
                }
            }
            for (r, accr) in acc.iter().enumerate() {
                let crow = c.add((i0 + r) * n + j0);
                _mm512_storeu_ps(crow, _mm512_add_ps(_mm512_loadu_ps(crow), *accr));
            }
            kc_lo += KC;
        }
    }

    /// Largest m [`skinny_nt_avx512`] accepts: its accumulators are one
    /// register per row of A beside the sixteen of a transposed block.
    pub(super) const SKINNY_NT_MAX_M: usize = 8;

    /// Skinny `nt` kernel whose lanes are sixteen *rows of B*: each
    /// 16 × 16 block of B is loaded as sixteen row vectors and transposed in
    /// registers, so one FMA serves sixteen elements of a row of C where the
    /// portable kernel's broadcast serves `m` of its sixteen lanes — 3.3× at
    /// `1 × 1568 × 128`, level with it by `m = 16`. Every element still sums
    /// its own chain (KC slabs ascending, sequential k from 0.0, one add
    /// into C per slab), so the bits are the portable kernel's.
    ///
    /// # Safety
    ///
    /// AVX-512F must be available and `m ≤ SKINNY_NT_MAX_M`. `at` is the
    /// `k × NR` panel of Aᵀ (lanes `m..NR` zero), `b` is `n × k`, `c` is
    /// `m × n`; the group calls stay inside those bounds.
    // SAFETY: the lengths are asserted here; the group reads `at` and `b`
    // below `k·NR` and `n·k` and writes `c` below `m·n`.
    pub(super) unsafe fn skinny_nt_avx512(
        at: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        assert!(m <= SKINNY_NT_MAX_M);
        assert_eq!(at.len(), k * NR);
        assert_eq!(b.len(), n * k);
        assert_eq!(c.len(), m * n);
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        // Rows past m are the panel's zero lanes: multiplied, never stored.
        match m {
            1 => skinny_nt_avx512_rows::<1>(at, b, c, m, k, n),
            2 => skinny_nt_avx512_rows::<2>(at, b, c, m, k, n),
            3 | 4 => skinny_nt_avx512_rows::<4>(at, b, c, m, k, n),
            _ => skinny_nt_avx512_rows::<8>(at, b, c, m, k, n),
        }
    }

    /// [`skinny_nt_avx512`] with `R ≥ m` accumulators held in registers.
    ///
    /// # Safety
    ///
    /// As [`skinny_nt_avx512`], with `m ≤ R ≤ NR`.
    // SAFETY: B is read at rows `< n`, columns `< k` (the slab tail is a
    // masked load, which touches no masked-off lane); `at` at `kk·NR + i`,
    // `kk < k`, `i < R ≤ NR`; C at rows `< m`, columns `< n`.
    #[target_feature(enable = "avx512f", enable = "fma")]
    unsafe fn skinny_nt_avx512_rows<const R: usize>(
        at: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        let (ap, bp, cp) = (at.as_ptr(), b.as_ptr(), c.as_mut_ptr());
        let mut j0 = 0;
        while j0 < n {
            let rows = NR.min(n - j0);
            let mut kc_lo = 0;
            while kc_lo < k {
                let kc_hi = (kc_lo + KC).min(k);
                let mut acc = [_mm512_setzero_ps(); R];
                let mut kk = kc_lo;
                while kk < kc_hi {
                    let valid = NR.min(kc_hi - kk);
                    let mask = (1u32 << valid).wrapping_sub(1) as __mmask16;
                    let mut t = [_mm512_setzero_ps(); NR];
                    for (r, tr) in t.iter_mut().enumerate() {
                        let j = if r < rows { j0 + r } else { j0 };
                        *tr = _mm512_maskz_loadu_ps(mask, bp.add(j * k + kk));
                    }
                    transpose16(&mut t);
                    // Only the slab's own k steps: a padding step would add
                    // `+0.0` to a chain, which is not the identity on `-0.0`.
                    for (q, &tq) in t.iter().enumerate().take(valid) {
                        for (i, acci) in acc.iter_mut().enumerate() {
                            let av = _mm512_set1_ps(*ap.add((kk + q) * NR + i));
                            *acci = fm512(tq, av, *acci);
                        }
                    }
                    kk += NR;
                }
                for (i, acci) in acc.iter().enumerate().take(m) {
                    let crow = cp.add(i * n + j0);
                    if rows == NR {
                        _mm512_storeu_ps(crow, _mm512_add_ps(_mm512_loadu_ps(crow), *acci));
                    } else {
                        let mut spill = [0.0f32; NR];
                        _mm512_storeu_ps(spill.as_mut_ptr(), *acci);
                        for (r, &v) in spill.iter().enumerate().take(rows) {
                            *crow.add(r) += v;
                        }
                    }
                }
                kc_lo += KC;
            }
            j0 += NR;
        }
    }

    /// In-register transpose of a 16 × 16 f32 block: `t[q]` lane `l`
    /// becomes the old `t[l]` lane `q`. Interleave 32-bit pairs, then 64-bit
    /// pairs, then two rounds of 128-bit lane shuffles (64 shuffles in all).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F. The body shuffles registers and
    /// indexes `t` only with in-bounds constants, so it touches no other
    /// memory; it is reached only from the AVX-512 arms, which
    /// dispatch gates on avx512f support.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn transpose16(t: &mut [__m512; NR]) {
        let mut u = [_mm512_setzero_ps(); NR];
        for i in 0..8 {
            u[2 * i] = _mm512_unpacklo_ps(t[2 * i], t[2 * i + 1]);
            u[2 * i + 1] = _mm512_unpackhi_ps(t[2 * i], t[2 * i + 1]);
        }
        // v[4g + c], 128-bit lane L: column 4L + c of rows 4g..4g + 4.
        let mut v = [_mm512_setzero_ps(); NR];
        for g in 0..4 {
            let (a, b) = (_mm512_castps_pd(u[4 * g]), _mm512_castps_pd(u[4 * g + 2]));
            v[4 * g] = _mm512_castpd_ps(_mm512_unpacklo_pd(a, b));
            v[4 * g + 1] = _mm512_castpd_ps(_mm512_unpackhi_pd(a, b));
            let (a, b) = (
                _mm512_castps_pd(u[4 * g + 1]),
                _mm512_castps_pd(u[4 * g + 3]),
            );
            v[4 * g + 2] = _mm512_castpd_ps(_mm512_unpacklo_pd(a, b));
            v[4 * g + 3] = _mm512_castpd_ps(_mm512_unpackhi_pd(a, b));
        }
        for c in 0..4 {
            // 0x88 keeps lanes 0 and 2 of each operand, 0xDD lanes 1 and 3.
            let ab_even = _mm512_shuffle_f32x4::<0x88>(v[c], v[4 + c]);
            let ab_odd = _mm512_shuffle_f32x4::<0xDD>(v[c], v[4 + c]);
            let cd_even = _mm512_shuffle_f32x4::<0x88>(v[8 + c], v[12 + c]);
            let cd_odd = _mm512_shuffle_f32x4::<0xDD>(v[8 + c], v[12 + c]);
            t[c] = _mm512_shuffle_f32x4::<0x88>(ab_even, cd_even);
            t[4 + c] = _mm512_shuffle_f32x4::<0x88>(ab_odd, cd_odd);
            t[8 + c] = _mm512_shuffle_f32x4::<0xDD>(ab_even, cd_even);
            t[12 + c] = _mm512_shuffle_f32x4::<0xDD>(ab_odd, cd_odd);
        }
    }

    /// `logf`'s table, one column: entry `i` is `LOG_TABLE[i][col]`.
    const fn log_column(col: usize) -> [f64; 16] {
        let mut out = [0.0; 16];
        let mut i = 0;
        while i < 16 {
            out[i] = f64::from_bits(LOG_TABLE[i][col]);
            i += 1;
        }
        out
    }
    const INV_C: [f64; 16] = log_column(0);
    const LN_C: [f64; 16] = log_column(1);

    /// The two columns in four registers, as [`box_muller_lanes`] reads them.
    ///
    /// # Safety
    ///
    /// AVX-512F must be available.
    // SAFETY: each load reads eight of a column's sixteen entries.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn log_table() -> [__m512d; 4] {
        [&INV_C[..8], &INV_C[8..], &LN_C[..8], &LN_C[8..]].map(|h| _mm512_loadu_pd(h.as_ptr()))
    }

    /// The portable evaluator's arithmetic over eight pairs of words, `lo`
    /// holding pairs 0–3 and `hi` pairs 4–7 as they lie in memory:
    /// `(r, sin θ, cos θ)` per lane. The uniforms in `f32` lanes, the
    /// port's `f64` steps in ZMM lanes with separate multiplies and adds,
    /// `logf`'s 16-entry table read from registers (`tab`: its `1/c` and
    /// `ln c` columns, eight entries a register) by `vpermt2pd`.
    ///
    /// # Safety
    ///
    /// AVX-512F must be available. Registers only, no memory access.
    #[inline]
    #[target_feature(enable = "avx512f", enable = "avx2")]
    unsafe fn box_muller_lanes(
        lo: __m512i,
        hi: __m512i,
        tab: &[__m512d; 4],
    ) -> (__m256, __m256, __m256) {
        let pd = _mm512_set1_pd;
        let (add, mul, sub) = (_mm512_add_pd, _mm512_mul_pd, _mm512_sub_pd);
        // Round towards −∞ without raising the inexact flag.
        let floor = |x| _mm512_roundscale_pd::<{ _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC }>(x);

        // The uniforms: each word's top 24 bits, exact in an `f32`.
        let first = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
        let second = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
        let unit = |idx| {
            let top = _mm512_srli_epi64::<40>(_mm512_permutex2var_epi64(lo, idx, hi));
            let top = _mm256_cvtepi32_ps(_mm512_cvtepi64_epi32(top));
            _mm256_mul_ps(top, _mm256_set1_ps(UNIT_F32))
        };
        let (eps, one) = (_mm256_set1_ps(f32::EPSILON), _mm256_set1_ps(1.0));
        let u1 = _mm256_add_ps(eps, _mm256_mul_ps(_mm256_sub_ps(one, eps), unit(first)));
        // `range_f32` steps back to `lo` when rounding lands on `hi`.
        let u1 = _mm256_blendv_ps(eps, u1, _mm256_cmp_ps::<_CMP_LT_OQ>(u1, one));
        let theta = _mm256_mul_ps(_mm256_set1_ps(2.0 * std::f32::consts::PI), unit(second));

        // `ln u₁` as `rng::ln`: `k·ln 2 + ln c + ln(z/c)`.
        let i32s = _mm256_set1_epi32;
        let ix = _mm256_castps_si256(u1);
        let tmp = _mm256_sub_epi32(ix, i32s(LOG_OFF as i32));
        let cell = _mm256_and_si256(_mm256_srli_epi32::<19>(tmp), i32s(15));
        let cell = _mm512_cvtepu32_epi64(cell);
        let inv_c = _mm512_permutex2var_pd(tab[0], cell, tab[1]);
        let ln_c = _mm512_permutex2var_pd(tab[2], cell, tab[3]);
        let k = _mm512_cvtepi32_pd(_mm256_srai_epi32::<23>(tmp));
        let z = _mm256_sub_epi32(ix, _mm256_and_si256(tmp, i32s(0xff80_0000_u32 as i32)));
        let z = _mm512_cvtps_pd(_mm256_castsi256_ps(z));
        let r = sub(mul(z, inv_c), pd(1.0));
        let r2 = mul(r, r);
        let y = add(
            mul(pd(LOG_POLY[0]), r2),
            add(mul(pd(LOG_POLY[1]), r), pd(LOG_POLY[2])),
        );
        let ln_u1 = add(mul(y, r2), add(add(ln_c, mul(k, pd(LN2))), r));
        let ln_u1 = _mm512_cvtpd_ps(ln_u1);
        let radius = _mm256_sqrt_ps(_mm256_mul_ps(_mm256_set1_ps(-2.0), ln_u1));

        // `(sin θ, cos θ)` as `rng::sin_cos`.
        let x = _mm512_cvtps_pd(theta);
        let n = floor(add(floor(mul(x, pd(HPI_INV))), pd(f64::from(0x80_0000))));
        let n = floor(mul(n, pd(f64::from(1u32 << 24).recip())));
        let x = sub(x, mul(n, pd(HPI)));
        let x2 = mul(x, x);
        let x3 = mul(x, x2);
        let s = add(x, mul(x3, pd(SIN_POLY[0])));
        let s = add(
            s,
            mul(mul(x3, x2), add(pd(SIN_POLY[1]), mul(x2, pd(SIN_POLY[2])))),
        );
        let x4 = mul(x2, x2);
        let c = add(
            add(pd(COS_POLY[0]), mul(x2, pd(COS_POLY[1]))),
            mul(x4, pd(COS_POLY[2])),
        );
        let c = add(
            c,
            mul(mul(x4, x2), add(pd(COS_POLY[3]), mul(x2, pd(COS_POLY[4])))),
        );
        let q = add(n, pd(f64::from_bits(0x4330_0000_0000_0000)));
        let q = _mm512_and_si512(_mm512_castpd_si512(q), _mm512_set1_epi64(3));
        let odd = _mm512_test_epi64_mask(q, _mm512_set1_epi64(1));
        let (s, c) = (
            _mm512_mask_blend_pd(odd, s, c),
            _mm512_mask_blend_pd(odd, c, s),
        );
        // Bit 1 of `q` (sine) and of `q + 1` (cosine) becomes the sign bit.
        let q = _mm512_cvtepi64_epi32(q);
        let signed = |v, q| {
            let sign = _mm256_slli_epi32::<30>(_mm256_and_si256(q, i32s(2)));
            _mm256_castsi256_ps(_mm256_xor_si256(
                _mm256_castps_si256(_mm512_cvtpd_ps(v)),
                sign,
            ))
        };
        let sin_t = signed(s, q);
        let cos_t = signed(c, _mm256_add_epi32(q, i32s(1)));
        (radius, sin_t, cos_t)
    }

    /// The AVX-512 Box–Muller evaluator: [`box_muller_lanes`] over each
    /// group of eight pairs, `r·cos θ` (and under `SIN` `r·sin θ`) stored.
    ///
    /// # Safety
    ///
    /// AVX-512F must be available; `words.len()` is a multiple of
    /// [`LANES`] and `cos` (under `SIN`, `sin` too) at least as long.
    // SAFETY: group `g` loads the 16 words of pairs `8g..8g + 8` and stores
    // lanes `8g..8g + 8`, all below `words.len()`.
    #[target_feature(enable = "avx512f", enable = "avx2")]
    pub(super) unsafe fn box_muller_avx512<const SIN: bool>(
        words: &[[u64; 2]],
        cos: &mut [f32],
        sin: &mut [f32],
    ) {
        debug_assert!(words.len().is_multiple_of(LANES) && cos.len() >= words.len());
        debug_assert!(!SIN || sin.len() >= words.len());
        let tab = log_table();
        for (g, pairs) in words.chunks_exact(LANES).enumerate() {
            let w = pairs.as_ptr().cast::<u64>();
            let (lo, hi) = (
                _mm512_loadu_epi64(w.cast()),
                _mm512_loadu_epi64(w.add(8).cast()),
            );
            let (r, sin_t, cos_t) = box_muller_lanes(lo, hi, &tab);
            _mm256_storeu_ps(cos.as_mut_ptr().add(g * LANES), _mm256_mul_ps(r, cos_t));
            if SIN {
                _mm256_storeu_ps(sin.as_mut_ptr().add(g * LANES), _mm256_mul_ps(r, sin_t));
            }
        }
    }

    /// [`box_muller_lanes`] over one group of eight pairs, as arrays:
    /// `[r, sin θ, cos θ]`, for the tests' sweep against the scalar path.
    ///
    /// # Safety
    ///
    /// AVX-512F must be available.
    // SAFETY: the loads read the group's 16 words, the stores write the
    // three 8-lane arrays.
    #[cfg(test)]
    #[target_feature(enable = "avx512f", enable = "avx2")]
    pub(super) unsafe fn box_muller_parts_avx512(words: &[[u64; 2]; LANES]) -> [[f32; LANES]; 3] {
        let tab = log_table();
        let w = words.as_ptr().cast::<u64>();
        let (lo, hi) = (
            _mm512_loadu_epi64(w.cast()),
            _mm512_loadu_epi64(w.add(8).cast()),
        );
        let (r, sin_t, cos_t) = box_muller_lanes(lo, hi, &tab);
        let mut out = [[0.0; LANES]; 3];
        for (o, v) in out.iter_mut().zip([r, sin_t, cos_t]) {
            _mm256_storeu_ps(o.as_mut_ptr(), v);
        }
        out
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;
    use crate::rng::{ln, pair_uniforms, sin_cos};

    /// The AVX-512 Box–Muller lanes are the scalar path bit for bit — radius,
    /// sine and cosine apart — on every input a draw can hand them: the 2²⁴
    /// values of a word's top 24 bits, each as both words of a pair, as in
    /// `rng`'s `the_port_is_glibc_on_every_drawable_input`.
    #[test]
    fn the_avx512_box_muller_is_the_port_on_every_drawable_input() {
        if !available().contains(&Kernel::Avx512) {
            return;
        }
        let mut bad = [0u32; 3];
        for k0 in (0..1u64 << 24).step_by(LANES) {
            let words: [[u64; 2]; LANES] = std::array::from_fn(|j| {
                let w = (k0 + j as u64) << 40;
                [w, w]
            });
            // SAFETY: AVX-512F was detected above.
            let got = unsafe { x86::box_muller_parts_avx512(&words) };
            for (j, &w) in words.iter().enumerate() {
                let (u1, theta) = pair_uniforms(w);
                let (s, c) = sin_cos(theta);
                let r = (-2.0 * ln(u1)).sqrt();
                for (b, (g, want)) in bad.iter_mut().zip(got.iter().zip([r, s, c])) {
                    *b += u32::from(g[j].to_bits() != want.to_bits());
                }
            }
        }
        assert_eq!(bad, [0; 3], "mismatches (radius, sin, cos)");
    }
}
