//! Packed, register-blocked GEMM engine.
//!
//! This is the single kernel behind all three layouts of
//! [`crate::linalg::gemm`] (`C += A·B`, `C += Aᵀ·B`, `C += A·Bᵀ`). It follows the
//! classic BLIS/OpenBLAS decomposition:
//!
//! 1. **Pack** A into row-panels of [`MR`] rows (k-major within a panel)
//!    and B into column-panels of [`NR`] columns, with zero padding up to
//!    the panel width. The transpose variants differ *only* in how the
//!    packing reads its source — after packing, one microkernel serves all
//!    three. Packing also removes the `aik != 0.0` skip branch the old
//!    `ikj` kernels carried, which defeated vectorization on dense data.
//! 2. **Microkernel**: an [`MR`]×[`NR`] register tile of independent
//!    accumulators, written as one fixed-size array per output row so LLVM
//!    keeps each row in a single vector register chain and autovectorizes
//!    the FMA (measured at >60 GFLOP/s single-threaded with
//!    `target-cpu=native` on AVX-512, ~4× the old loops).
//! 3. **Blocking**: the k loop is chopped into [`KC`]-length slabs so the
//!    active B panel (`NR·KC` floats) stays L1-resident and the active A
//!    macro-block (`MC·KC` floats) stays L2-resident.
//! 4. **Macro-tiles**: C is walked in [`MC`]×[`NC`] macro-tiles, one
//!    after another on the caller's thread. A client is the unit of
//!    parallelism (`fca-core`'s fleet runs clients in waves); a product runs
//!    where it is called.
//!
//! A need not be packed: an [`Lhs::Rows`] operand is read where it lies,
//! each row a view of one buffer through an offset table (a convolution's
//! pixels and taps are views of its zero-bordered planes), and C's rows
//! may be any stride apart ([`Store::rows`]), so a product can add into
//! shifted windows of a larger buffer; against a row view C may also be
//! stored transposed and summed in chains (a convolution's `Yᵀ = colᵀ·Wᵀ`
//! lands in NCHW planes).
//!
//! # Determinism contract
//!
//! Every C element belongs to one macro-tile; within it the KC slabs are
//! visited in ascending order and each slab's partial sum is accumulated in
//! registers over sequential k. Nothing here runs on another thread, so a
//! result's bits depend only on the shapes — not on the thread count, nor
//! (see [`crate::simd`]) on the kernel arm — which the reproduction's
//! seeded-run guarantees rely on.

use crate::simd::Kernel;

/// Microkernel rows: A panels are this many rows wide.
pub const MR: usize = 8;
/// Microkernel columns: B panels are this many columns wide (one or two
/// SIMD vectors of f32 depending on ISA).
pub const NR: usize = 16;
/// k-slab length; one B panel slab is `NR·KC·4 B = 16 KiB` (L1-resident).
pub const KC: usize = 256;
/// Macro-tile rows; one A block slab is `MC·KC·4 B = 64 KiB` (L2-resident).
pub const MC: usize = 64;
/// Macro-tile columns; with `MC` the block C is walked in.
pub const NC: usize = 128;

/// Fused multiply-add when the target has hardware FMA (single rounding),
/// plain mul+add otherwise — `mul_add` without hardware support would fall
/// back to a libm call per element. Every kernel arm multiplies and adds
/// through this choice; code that must round as the engine does without
/// calling it (the depthwise stencil in `fca-nn`) uses it too.
#[inline(always)]
pub fn fmadd(a: f32, b: f32, c: f32) -> f32 {
    if cfg!(target_feature = "fma") {
        a.mul_add(b, c)
    } else {
        c + a * b
    }
}

/// `len == rows · cols`, false when the product overflows: the length check
/// the checked entries make before a kernel stores through a raw pointer.
#[inline]
pub(crate) fn is_len(len: usize, rows: usize, cols: usize) -> bool {
    rows.checked_mul(cols) == Some(len)
}

/// Length of the packed-A buffer for an `m × k` operand.
#[inline]
pub fn packed_a_len(m: usize, k: usize) -> usize {
    m.div_ceil(MR) * MR * k
}

/// Length of the packed-B buffer for a `k × n` operand.
#[inline]
pub fn packed_b_len(k: usize, n: usize) -> usize {
    n.div_ceil(NR) * NR * k
}

/// Pack the logical `m × k` matrix A into MR-row panels, k-major within
/// each panel: element `(i, kk)` lands at `panel(i/MR) + kk·MR + i%MR`.
/// Rows past `m` in the last panel are zero-filled.
///
/// `trans = false` reads A stored row-major `m × k` (`a[i*k + kk]`);
/// `trans = true` reads A stored row-major `k × m` (`a[kk*m + i]`), i.e.
/// packs the transpose without materializing it.
///
/// Every element of `out[..packed_a_len(m, k)]` is overwritten, so reused
/// (stale) buffers are fine.
pub fn pack_a(a: &[f32], m: usize, k: usize, trans: bool, out: &mut [f32]) {
    pack_a_at(a, m, k, trans, out, (k, 0));
}

/// [`pack_a`] for one k-segment of a longer product: `a` holds columns
/// `[k0, k0 + k)` of a logical `m × ktot` A (`at = (ktot, k0)`) and is
/// written into the panels of `out[..packed_a_len(m, ktot)]` at that k
/// offset. Packing every segment of a partition of `[0, ktot)` fills the
/// panels exactly as one [`pack_a`] of the concatenated operand would —
/// how a reduction over a batch (`k = images × pixels`) is packed image by
/// image without materializing the concatenation.
pub fn pack_a_at(a: &[f32], m: usize, k: usize, trans: bool, out: &mut [f32], at: (usize, usize)) {
    let (ktot, k0) = at;
    debug_assert_eq!(a.len(), m * k);
    debug_assert!(k0 + k <= ktot);
    debug_assert!(out.len() >= packed_a_len(m, ktot));
    if k == 0 {
        return;
    }
    for p in 0..m.div_ceil(MR) {
        let i0 = p * MR;
        let rows = MR.min(m - i0);
        let dst = &mut out[(p * ktot + k0) * MR..][..k * MR];
        if trans {
            pack_rows::<MR>(&a[i0..], m, rows, dst);
        } else {
            pack_cols::<MR>(&a[i0 * k..], k, rows, dst);
        }
    }
}

/// Pack the logical `k × n` matrix B into NR-column panels, k-major within
/// each panel: element `(kk, j)` lands at `panel(j/NR) + kk·NR + j%NR`.
/// Columns past `n` in the last panel are zero-filled.
///
/// `trans = false` reads B stored row-major `k × n` (`b[kk*n + j]`);
/// `trans = true` reads B stored row-major `n × k` (`b[j*k + kk]`).
///
/// Every element of `out[..packed_b_len(k, n)]` is overwritten.
pub fn pack_b(b: &[f32], k: usize, n: usize, trans: bool, out: &mut [f32]) {
    pack_b_at(b, k, n, trans, out, (k, 0));
}

/// [`pack_b`] for one k-segment of a longer product: `b` holds rows
/// `[k0, k0 + k)` of a logical `ktot × n` B (`at = (ktot, k0)`), written
/// into the panels of `out[..packed_b_len(ktot, n)]` at that k offset. See
/// [`pack_a_at`].
pub fn pack_b_at(b: &[f32], k: usize, n: usize, trans: bool, out: &mut [f32], at: (usize, usize)) {
    let (ktot, k0) = at;
    debug_assert_eq!(b.len(), k * n);
    debug_assert!(k0 + k <= ktot);
    debug_assert!(out.len() >= packed_b_len(ktot, n));
    if k == 0 {
        return;
    }
    for p in 0..n.div_ceil(NR) {
        let j0 = p * NR;
        let cols = NR.min(n - j0);
        let dst = &mut out[(p * ktot + k0) * NR..][..k * NR];
        if trans {
            pack_cols::<NR>(&b[j0 * k..], k, cols, dst);
        } else {
            pack_rows::<NR>(&b[j0..], n, cols, dst);
        }
    }
}

/// Fill one `W`-wide panel from a source whose panel lanes are contiguous:
/// `dst[kk·W + l] = src[kk·ld + l]` for `l < lanes`, zero for the rest. A
/// full panel (`lanes == W`) moves fixed-size rows, which compile to plain
/// vector loads and stores; only the edge panel pays for a variable length.
fn pack_rows<const W: usize>(src: &[f32], ld: usize, lanes: usize, dst: &mut [f32]) {
    if lanes == W {
        for (kk, d) in dst.chunks_exact_mut(W).enumerate() {
            d.copy_from_slice(&src[kk * ld..kk * ld + W]);
        }
    } else {
        for (kk, d) in dst.chunks_exact_mut(W).enumerate() {
            d[..lanes].copy_from_slice(&src[kk * ld..kk * ld + lanes]);
            d[lanes..].fill(0.0);
        }
    }
}

/// Fill one `W`-wide panel from a source whose k axis is contiguous (the
/// transposing direction): `dst[kk·W + l] = src[l·k + kk]` for `l < lanes`,
/// zero for the rest.
fn pack_cols<const W: usize>(src: &[f32], k: usize, lanes: usize, dst: &mut [f32]) {
    if lanes < W {
        dst.fill(0.0);
    }
    for (l, row) in src.chunks_exact(k).take(lanes).enumerate() {
        for (d, &v) in dst[l..].iter_mut().step_by(W).zip(row) {
            *d = v;
        }
    }
}

/// The `m × k` A operand of [`gemm_packed`].
#[derive(Clone, Copy, Debug)]
pub enum Lhs<'a> {
    /// MR-row panels written by [`pack_a`] / [`pack_a_at`].
    Packed(&'a [f32]),
    /// Read in place: `a(r, kk) = src[rows[r] + ks[kk]]`. Row `r` is the
    /// view of `src` starting at `rows[r]`, and `ks` picks the same `k`
    /// positions out of every view.
    Rows {
        /// The buffer every row views.
        src: &'a [f32],
        /// Where each of the `m` rows starts in `src`.
        rows: &'a [u32],
        /// The `k` offsets into every row, in the product's k order.
        ks: &'a [u32],
    },
}

/// Where [`gemm_packed`] adds the elements of C, and how it sums each one:
/// [`Store::rows`] or [`Store::cols`], the only store that chains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Store {
    /// Distance in `c` between consecutive rows of C: element `(i, j)` is
    /// `c[i·ld + j]` — or, with `trans`, between its columns: `c[j·ld + i]`.
    ld: usize,
    /// Store C transposed (see `ld`). Row-view A only.
    trans: bool,
    /// `Some(l)`: cut k into chains of `l` steps, each summed as a product of
    /// its own onto a zeroed C, add them in order into a total from 0.0 and
    /// that into C once. `None`: each KC slab's sum is added into C as it
    /// ends (the same bits when C is zero and `k ≤ l ≤ KC`). Transposed
    /// stores only.
    chain: Option<usize>,
}

impl Store {
    /// C row-major, rows `ld` apart (`ld = n`: a plain `m × n` matrix).
    pub const fn rows(ld: usize) -> Store {
        let (trans, chain) = (false, None);
        Store { ld, trans, chain }
    }

    /// C stored transposed, columns `ld` apart, summed in `chain`s (see
    /// the struct's fields). Row-view A only.
    pub const fn cols(ld: usize, chain: Option<usize>) -> Store {
        let trans = true;
        Store { ld, trans, chain }
    }
}

/// One register tile's rows of an [`Lhs::Rows`] operand over one kernel
/// call's k steps: `mr` row offsets, the steps' offsets `ks`, cut into
/// chains of `chain` steps ([`Store::chain`]; a lone KC slab is one).
#[derive(Clone, Copy)]
pub(crate) struct RowTile<'a> {
    pub(crate) src: &'a [f32],
    pub(crate) rows: &'a [u32],
    pub(crate) ks: &'a [u32],
    pub(crate) chain: usize,
}

impl<'a> RowTile<'a> {
    /// A [`pack_a`] panel slab (k steps of `MR` floats, at most one KC
    /// slab) as a row view: row `i` at offset `i`, step `t` at `t·MR`, one
    /// chain. The AVX2 arm runs packed products through its row-view
    /// kernel this way.
    pub(crate) fn panel(pa: &'a [f32]) -> RowTile<'a> {
        const ROWS: [u32; MR] = [0, 1, 2, 3, 4, 5, 6, 7];
        static KS: [u32; KC] = {
            let mut ks = [0; KC];
            let mut t = 0;
            while t < KC {
                ks[t] = (t * MR) as u32;
                t += 1;
            }
            ks
        };
        let k = pa.len() / MR;
        RowTile {
            src: pa,
            rows: &ROWS,
            ks: &KS[..k],
            chain: k,
        }
    }
}

/// `C_tile += panelA · panelB` for one MR×NR register tile: the portable
/// packed kernel. `pa`/`pb` are the k-major panel slabs of the tile's
/// rows and columns (equal k length); `c` points at the tile's first
/// element of C, rows `ldc` apart. The accumulators run the full MR×NR
/// shape (panel padding is zero); only the `mr × nr` corner is stored.
/// The same sums as [`microkernel_rows`] over the panel as a row view
/// ([`RowTile::panel`]), without its offset table: on the scalar arm
/// that route read 0.97× the parent's `hetero_train`, this one 1.03×.
///
/// # Safety
///
/// `c` must be valid for reads/writes of `mr` rows × `nr` columns at row
/// stride `ldc`, and no other thread may access that region concurrently.
#[inline(always)]
// SAFETY: the contract above is `add_tile`'s for an untransposed store.
pub(crate) unsafe fn microkernel(
    pa: &[f32],
    pb: &[f32],
    c: *mut f32,
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    let mut r0 = [0.0f32; NR];
    let mut r1 = [0.0f32; NR];
    let mut r2 = [0.0f32; NR];
    let mut r3 = [0.0f32; NR];
    let mut r4 = [0.0f32; NR];
    let mut r5 = [0.0f32; NR];
    let mut r6 = [0.0f32; NR];
    let mut r7 = [0.0f32; NR];
    for (af, bf) in pa.chunks_exact(MR).zip(pb.chunks_exact(NR)) {
        let bf: &[f32; NR] = bf.try_into().expect("NR-sized chunk");
        axpy_row(&mut r0, af[0], bf);
        axpy_row(&mut r1, af[1], bf);
        axpy_row(&mut r2, af[2], bf);
        axpy_row(&mut r3, af[3], bf);
        axpy_row(&mut r4, af[4], bf);
        axpy_row(&mut r5, af[5], bf);
        axpy_row(&mut r6, af[6], bf);
        axpy_row(&mut r7, af[7], bf);
    }
    let rows = [r0, r1, r2, r3, r4, r5, r6, r7];
    add_tile(&rows, c, (ldc, false), mr, nr);
}

/// One register-tile row update: `acc += a · b`, elementwise over NR lanes.
///
/// Kept as a named helper on fixed-size arrays: this exact shape is what
/// convinces LLVM to hold each accumulator row in vector registers instead
/// of round-tripping a 2D array through the stack (a ~14× difference).
#[inline(always)]
fn axpy_row(acc: &mut [f32; NR], a: f32, b: &[f32; NR]) {
    for (av, &bv) in acc.iter_mut().zip(b) {
        *av = fmadd(a, bv, *av);
    }
}

/// `C_tile += A · panelB` for one MR×NR register tile, A's rows read in
/// place ([`Lhs::Rows`], or a packed panel as [`RowTile::panel`]), summed
/// chain by chain ([`RowTile::chain`]) into a total from 0.0 that is added
/// into C once, transposed under `trans`. A chain from 0.0 is never −0.0,
/// so a lone chain (one KC slab) adds its sum into C unchanged. The
/// portable kernel, and the oracle of every arm's.
///
/// # Safety
///
/// `c` valid for reads/writes of the `mr × nr` corner at row stride `ldc`
/// (transposed under `trans`), no other thread touching it. `a.rows` holds
/// `mr` offsets, `pb` `a.ks.len()` panel steps, and every `src[row + kk]`
/// is in bounds (`gemm_packed_arm` asserts it for the whole operand).
#[inline(always)]
// SAFETY: the tile stores are the contract's C; the unchecked reads of
// `tile_chain` are its `src[row + kk]`, each view starting at its row.
pub(crate) unsafe fn microkernel_rows(
    a: RowTile<'_>,
    pb: &[f32],
    (c, ldc, trans): (*mut f32, usize, bool),
    mr: usize,
    nr: usize,
) {
    // A ragged tile's missing rows read row 0's view: computed, never stored.
    let v: [&[f32]; MR] =
        std::array::from_fn(|i| &a.src[a.rows[if i < mr { i } else { 0 }] as usize..]);
    if a.ks.len() <= a.chain.min(KC) {
        // A lone chain in one slab, a packed panel's: its sum is the total.
        let steps = a.ks.iter().map(|&kk| kk as usize);
        return add_tile(&tile_chain(&v, steps, pb), c, (ldc, trans), mr, nr);
    }
    let mut total = [[0.0f32; NR]; MR];
    for (ks, pb) in a.ks.chunks(a.chain).zip(pb.chunks(a.chain * NR)) {
        let mut sum = [[0.0f32; NR]; MR];
        for (ks, pb) in ks.chunks(KC).zip(pb.chunks(KC * NR)) {
            let steps = ks.iter().map(|&kk| kk as usize);
            add_rows(&mut sum, &tile_chain(&v, steps, pb));
        }
        add_rows(&mut total, &sum);
    }
    add_tile(&total, c, (ldc, trans), mr, nr);
}

/// `total += rows`, elementwise.
#[inline(always)]
fn add_rows(total: &mut [[f32; NR]; MR], rows: &[[f32; NR]; MR]) {
    for (t, r) in total.iter_mut().zip(rows) {
        for (t, &r) in t.iter_mut().zip(r) {
            *t += r;
        }
    }
}

/// One chain of a register tile: its eight rows, from 0.0, over the k
/// steps `ks` — offsets into the row views `v` — and their panel rows `pb`.
///
/// # Safety
///
/// Every offset `ks` yields must be in bounds for every view in `v`.
#[inline(always)]
// SAFETY: the reads `v[i][kk]` are the contract above; `gemm_packed_arm`
// asserts that no row offset plus step offset of the operand reaches past
// its `src` before any tile runs, and `microkernel_rows` cuts each view
// at its row's offset, so they hold for every view and step of a tile.
unsafe fn tile_chain(
    v: &[&[f32]; MR],
    ks: impl Iterator<Item = usize>,
    pb: &[f32],
) -> [[f32; NR]; MR] {
    let mut r0 = [0.0f32; NR];
    let mut r1 = [0.0f32; NR];
    let mut r2 = [0.0f32; NR];
    let mut r3 = [0.0f32; NR];
    let mut r4 = [0.0f32; NR];
    let mut r5 = [0.0f32; NR];
    let mut r6 = [0.0f32; NR];
    let mut r7 = [0.0f32; NR];
    for (kk, bf) in ks.zip(pb.chunks_exact(NR)) {
        let bf: &[f32; NR] = bf.try_into().expect("NR-sized chunk");
        axpy_row(&mut r0, *v[0].get_unchecked(kk), bf);
        axpy_row(&mut r1, *v[1].get_unchecked(kk), bf);
        axpy_row(&mut r2, *v[2].get_unchecked(kk), bf);
        axpy_row(&mut r3, *v[3].get_unchecked(kk), bf);
        axpy_row(&mut r4, *v[4].get_unchecked(kk), bf);
        axpy_row(&mut r5, *v[5].get_unchecked(kk), bf);
        axpy_row(&mut r6, *v[6].get_unchecked(kk), bf);
        axpy_row(&mut r7, *v[7].get_unchecked(kk), bf);
    }
    [r0, r1, r2, r3, r4, r5, r6, r7]
}

/// Add the `mr × nr` corner of a register tile into C at row stride `ldc`
/// — or, `trans`, tile row `i`, lane `j` into `c[j·ldc + i]`.
///
/// # Safety
///
/// As [`microkernel_rows`]'s C.
#[inline(always)]
// SAFETY: every store targets element `(i, j)`, `i < mr`, `j < nr`, of the
// caller's exclusive region at stride `ldc`.
pub(crate) unsafe fn add_tile(
    rows: &[[f32; NR]; MR],
    c: *mut f32,
    (ldc, trans): (usize, bool),
    mr: usize,
    nr: usize,
) {
    if !trans && mr == MR && nr == NR {
        // Hot full-tile path: fixed trip counts, no per-row masking.
        for (i, row) in rows.iter().enumerate() {
            let crow = std::slice::from_raw_parts_mut(c.add(i * ldc), NR);
            for (cj, &rv) in crow.iter_mut().zip(row) {
                *cj += rv;
            }
        }
        return;
    }
    let (row_step, col_step) = if trans { (1, ldc) } else { (ldc, 1) };
    for (i, row) in rows.iter().enumerate().take(mr) {
        for (j, &rv) in row.iter().enumerate().take(nr) {
            *c.add(i * row_step + j * col_step) += rv;
        }
    }
}

/// Compute one MC×NC macro-tile of C: rows `[i0, i1)`, columns `[j0, j1)`.
///
/// KC slabs are visited in ascending order; within a slab, B panels (jr)
/// outer and A panels (ir) inner, so the current B panel slab stays
/// L1-resident across the A panel sweep. A chained store takes all of k as
/// one slab: its kernel adds into C once.
///
/// # Safety
///
/// `c` must be the base pointer of an `m × n` matrix stored as `st` says,
/// valid for this tile's region, and no other thread may touch rows
/// `[i0, i1)` × columns `[j0, j1)` concurrently. `i0`/`j0` must be
/// multiples of MR/NR respectively (they are multiples of MC/NC by
/// construction), and an [`Lhs::Rows`] operand's reads must have been
/// checked against its `src` ([`gemm_packed_arm`] does).
// SAFETY: the only unsafe op below is the arm-dispatched microkernel call
// at C's element `(ir, jr)` with `ir < i1 <= m`, `jr < j1 <= n`, and mr/nr
// clipped to the tile edge — exactly the mr × nr region (transposed under
// `st.trans`) at stride `st.ld` the microkernel contract requires, inside
// this tile's exclusive area.
unsafe fn compute_tile(
    arm: Kernel,
    (a, pb): (Lhs<'_>, &[f32]),
    (c, st): (*mut f32, Store),
    k: usize,
    (i0, i1): (usize, usize),
    (j0, j1): (usize, usize),
) {
    let (row_step, col_step) = if st.trans { (1, st.ld) } else { (st.ld, 1) };
    let slab = if st.chain.is_some() { k } else { KC };
    let mut kc_lo = 0;
    while kc_lo < k {
        let kc_hi = (kc_lo + slab).min(k);
        let klen = kc_hi - kc_lo;
        let mut jr = j0;
        while jr < j1 {
            let nr = NR.min(j1 - jr);
            let pbp = &pb[(jr / NR) * NR * k + kc_lo * NR..][..klen * NR];
            let mut ir = i0;
            while ir < i1 {
                let mr = MR.min(i1 - ir);
                let ct = c.add(ir * row_step + jr * col_step);
                match a {
                    Lhs::Packed(pa) => {
                        let pap = &pa[(ir / MR) * MR * k + kc_lo * MR..][..klen * MR];
                        crate::simd::microkernel_arm(arm, pap, pbp, ct, st.ld, mr, nr);
                    }
                    Lhs::Rows { src, rows, ks } => {
                        let tile = RowTile {
                            src,
                            rows: &rows[ir..ir + mr],
                            ks: &ks[kc_lo..kc_hi],
                            chain: st.chain.unwrap_or(klen),
                        };
                        let c = (ct, st.ld, st.trans);
                        crate::simd::microkernel_rows_arm(arm, tile, pbp, c, mr, nr);
                    }
                }
                ir += MR;
            }
            jr += NR;
        }
        kc_lo += slab;
    }
}

/// `C += A · PB` for a logical `m × k` · `k × n` product (`dims`), where
/// `PB` was produced by [`pack_b`] and A is either [`pack_a`]'s panels or
/// rows read in place ([`Lhs`]). C lies in `c` as `st` says — for
/// [`Store::rows`]`(ldc)`, its `m` rows of `n` are `ldc` apart — and is
/// accumulated into (zero it first for a plain product); nothing else in
/// `c` is touched.
///
/// Runs on the caller's thread; results are bit-identical across kernel
/// arms, and a row view adds the bits its packed copy would (see module
/// docs and [`crate::simd`]).
pub fn gemm_packed(a: Lhs<'_>, pb: &[f32], c: &mut [f32], st: Store, dims: (usize, usize, usize)) {
    gemm_packed_arm(crate::simd::active(), a, pb, c, st, dims);
}

/// [`gemm_packed`] with an explicit kernel arm instead of the
/// process-wide dispatch — the hook test and bench harnesses use to
/// compare arms bit-for-bit within one process.
///
/// # Panics
///
/// In every build, when packed A or `pb` is shorter than
/// [`packed_a_len`]/[`packed_b_len`], a row view's tables are not `m` and
/// `k` long or reach past its `src`, `c` cannot hold C as `st` lays it
/// out, a chain is empty, or a packed A is asked for a transposed
/// store: the tiles below read and store through raw pointers, so
/// these are the checks their safety rests on.
pub fn gemm_packed_arm(
    arm: Kernel,
    a: Lhs<'_>,
    pb: &[f32],
    c: &mut [f32],
    st: Store,
    (m, k, n): (usize, usize, usize),
) {
    assert!(st.chain != Some(0), "gemm: a chain is empty");
    match a {
        Lhs::Packed(pa) => {
            assert!(pa.len() >= packed_a_len(m, k), "gemm: packed A is short");
            assert!(!st.trans, "gemm: a transposed store needs a row-view A");
        }
        Lhs::Rows { src, rows, ks } => {
            assert!(
                rows.len() == m && ks.len() == k,
                "gemm: A's tables are not m and k long"
            );
            let last = |t: &[u32]| t.iter().max().map_or(0, |&o| o as usize);
            let reach = last(rows).checked_add(last(ks));
            assert!(
                m == 0 || k == 0 || reach.is_some_and(|r| r < src.len()),
                "gemm: A's rows reach past its source"
            );
        }
    }
    assert!(pb.len() >= packed_b_len(k, n), "gemm: packed B is short");
    // C as stored: `lines` runs of `line` elements, `st.ld` apart.
    let (lines, line) = if st.trans { (n, m) } else { (m, n) };
    let c_need = lines
        .checked_sub(1)
        .map_or(Some(0), |r| r.checked_mul(st.ld)?.checked_add(line));
    assert!(
        (lines <= 1 || st.ld >= line) && c_need.is_some_and(|need| line == 0 || c.len() >= need),
        "gemm: C is short of m rows of n at stride ldc"
    );
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    for i0 in (0..m).step_by(MC) {
        for j0 in (0..n).step_by(NC) {
            // SAFETY: the asserts above keep every element of the tile's
            // rows [i0, i0+MC) × cols [j0, j0+NC) of C inside `c` (`ld` is at
            // least a stored line, so distinct (row, column) pairs are
            // distinct elements), and `c` is borrowed mutably for the call.
            unsafe {
                compute_tile(
                    arm,
                    (a, pb),
                    (c.as_mut_ptr(), st),
                    k,
                    (i0, (i0 + MC).min(m)),
                    (j0, (j0 + NC).min(n)),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Skinny-shape paths.
//
// Short-m products waste most of the 8×16 register tile and pay a full
// pack_b for a B that is touched once. The skinny paths pack only A
// (trivially small) and read B where it lies, one kernel per storage order:
//
// * B row-major `k × n` (`nn`/`tn`: the `dW = Xᵀ·dY` weight gradient,
//   m = classes ≈ 10): A is laid out row-major and B is streamed in
//   16-column strips — lanes are C's columns.
// * B stored `n × k` (`nt`: a small-batch `Linear` forward `x·Wᵀ`): Aᵀ is
//   packed as one zero-padded 16-lane panel and eight rows of B each
//   broadcast one scalar per k — lanes are C's *rows*, the tile is `Cᵀ`.
//   (The AVX-512 arm in `crate::simd` turns sixteen rows of B into lanes
//   instead, for `m ≤ 8`; it reads the same panel.)
//
// Per-element arithmetic — KC slabs ascending, one sequential `fmadd`
// chain from 0.0 per slab, one add into C per slab — is the packed
// engine's in all of them, and a lane is only a parallel copy of that
// chain, so the results are bit-for-bit the same (property-tested below).
// ---------------------------------------------------------------------------

/// Largest m the skinny paths accept (the lane count of the `nt` kernel's
/// Aᵀ panel, so it may not exceed [`NR`]).
pub(crate) const SKINNY_MAX_M: usize = NR;
/// Smallest n for which strip-streaming a row-major B beats the packed
/// engine.
pub(crate) const SKINNY_MIN_N: usize = 4 * NR;

/// True when `C += A·op(B)` should take a skinny-m path: [`skinny_arm`]
/// for B stored row-major `k × n` (`trans_b = false`), [`skinny_nt_arm`] for
/// B stored `n × k`.
///
/// [`skinny_arm`]: crate::simd::skinny_arm
/// [`skinny_nt_arm`]: crate::simd::skinny_nt_arm
pub(crate) fn skinny_applies(m: usize, k: usize, n: usize, trans_b: bool) -> bool {
    let min_n = if trans_b { 1 } else { SKINNY_MIN_N };
    (1..=SKINNY_MAX_M).contains(&m) && n >= min_n && k > 0
}

/// Materialize the logical `m × k` A row-major (resolving `trans`), the
/// only packing the skinny path needs.
pub(crate) fn pack_a_rowmajor(a: &[f32], m: usize, k: usize, trans: bool, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert!(out.len() >= m * k);
    if trans {
        for i in 0..m {
            for kk in 0..k {
                out[i * k + kk] = a[kk * m + i];
            }
        }
    } else {
        out[..m * k].copy_from_slice(a);
    }
}

/// Scalar skinny kernel: `C += A·B` with A row-major `m × k`, B row-major
/// `k × n` read in place. One row × 16-column strip at a time with a
/// fixed-size accumulator (the [`axpy_row`] shape LLVM keeps in vector
/// registers), scalar tail for the last `n % NR` columns. Bit-identical
/// to the packed engine and to the SIMD skinny arms.
pub(crate) fn skinny_scalar(arow: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(arow.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let nstrip = n - n % NR;
    let mut j0 = 0;
    while j0 < nstrip {
        for i in 0..m {
            let ar = &arow[i * k..(i + 1) * k];
            let mut kc_lo = 0;
            while kc_lo < k {
                let kc_hi = (kc_lo + KC).min(k);
                let mut acc = [0.0f32; NR];
                for (kk, &av) in ar.iter().enumerate().take(kc_hi).skip(kc_lo) {
                    let bf: &[f32; NR] = b[kk * n + j0..kk * n + j0 + NR]
                        .try_into()
                        .expect("NR-sized strip");
                    axpy_row(&mut acc, av, bf);
                }
                let crow = &mut c[i * n + j0..i * n + j0 + NR];
                for (cj, &v) in crow.iter_mut().zip(&acc) {
                    *cj += v;
                }
                kc_lo += KC;
            }
        }
        j0 += NR;
    }
    skinny_tail(arow, b, c, m, k, n, nstrip);
}

/// Column tail of the skinny path: columns `[j_lo, n)` one at a time,
/// same slab/sequential-k arithmetic. Shared by the scalar and SIMD arms
/// so their tails are trivially identical.
pub(crate) fn skinny_tail(
    arow: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    j_lo: usize,
) {
    for i in 0..m {
        let ar = &arow[i * k..(i + 1) * k];
        for j in j_lo..n {
            let mut kc_lo = 0;
            while kc_lo < k {
                let kc_hi = (kc_lo + KC).min(k);
                let mut acc = 0.0f32;
                for (kk, &av) in ar.iter().enumerate().take(kc_hi).skip(kc_lo) {
                    acc = fmadd(av, b[kk * n + j], acc);
                }
                c[i * n + j] += acc;
                kc_lo += KC;
            }
        }
    }
}

/// Portable skinny kernel for the other storage order: `C += A·Bᵀ` with B
/// stored `n × k` and read in place. `at` is Aᵀ as one NR-lane panel
/// (`at[kk·NR + i] = A[i][kk]`, lanes `m..NR` zero — what
/// `pack_b(a, k, m, true, ..)` writes for `m ≤ NR`).
///
/// The register tile is `Cᵀ`: [`MR`] rows of B broadcast a scalar each per
/// `k` into accumulators whose lanes are the `m` rows of A — the packed
/// microkernel with the operands' roles swapped, B's rows standing where the
/// packed A panel would. Each row of B is walked once, front to back.
pub(crate) fn skinny_nt_scalar(at: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert!(m <= NR);
    debug_assert_eq!(at.len(), k * NR);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let mut j0 = 0;
    while j0 < n {
        let rows = MR.min(n - j0);
        let mut kc_lo = 0;
        while kc_lo < k {
            let klen = KC.min(k - kc_lo);
            // A ragged last tile points its missing rows at row `j0`:
            // computed like any other, never stored.
            let w: [&[f32]; MR] = std::array::from_fn(|r| {
                let j = if r < rows { j0 + r } else { j0 };
                &b[j * k + kc_lo..][..klen]
            });
            let mut r0 = [0.0f32; NR];
            let mut r1 = [0.0f32; NR];
            let mut r2 = [0.0f32; NR];
            let mut r3 = [0.0f32; NR];
            let mut r4 = [0.0f32; NR];
            let mut r5 = [0.0f32; NR];
            let mut r6 = [0.0f32; NR];
            let mut r7 = [0.0f32; NR];
            for (kk, p) in at[kc_lo * NR..][..klen * NR].chunks_exact(NR).enumerate() {
                let p: &[f32; NR] = p.try_into().expect("NR-sized chunk");
                axpy_row(&mut r0, w[0][kk], p);
                axpy_row(&mut r1, w[1][kk], p);
                axpy_row(&mut r2, w[2][kk], p);
                axpy_row(&mut r3, w[3][kk], p);
                axpy_row(&mut r4, w[4][kk], p);
                axpy_row(&mut r5, w[5][kk], p);
                axpy_row(&mut r6, w[6][kk], p);
                axpy_row(&mut r7, w[7][kk], p);
            }
            let acc = [r0, r1, r2, r3, r4, r5, r6, r7];
            for (r, lanes) in acc.iter().enumerate().take(rows) {
                for (i, &v) in lanes.iter().enumerate().take(m) {
                    c[i * n + j0 + r] += v;
                }
            }
            kc_lo += KC;
        }
        j0 += MR;
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    /// Deterministic LCG fill in `[-0.5, 0.5)`, shared by sibling
    /// modules' tests so every oracle sees the same inputs.
    pub(crate) fn fill(v: &mut [f32], seed: &mut u64) {
        for x in v {
            *seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *x = ((*seed >> 33) as f32 / (1u64 << 31) as f32) - 0.5;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::fill;
    use super::*;

    fn reference_nn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0f64;
                for kk in 0..k {
                    s += a[i * k + kk] as f64 * b[kk * n + j] as f64;
                }
                c[i * n + j] = s as f32;
            }
        }
        c
    }

    fn packed_product(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut pa = vec![f32::NAN; packed_a_len(m, k).max(1)];
        let mut pb = vec![f32::NAN; packed_b_len(k, n).max(1)];
        pack_a(a, m, k, false, &mut pa);
        pack_b(b, k, n, false, &mut pb);
        let mut c = vec![0.0f32; m * n];
        gemm_packed(Lhs::Packed(&pa), &pb, &mut c, Store::rows(n), (m, k, n));
        c
    }

    /// Exhaustive small shapes: everything up to 2·MR × 2·NR output tiles
    /// plus primes and the KC/MC/NC block boundaries.
    #[test]
    fn packed_matches_reference_exhaustively() {
        let ms: Vec<usize> = (1..=2 * MR).chain([17, 31, MC - 1, MC, MC + 1]).collect();
        let ns: Vec<usize> = (1..=2 * NR).chain([37, NC - 1, NC, NC + 1]).collect();
        let ks = [1, 2, 3, 5, 7, 13, 17, 31, 64];
        let mut seed = 0xC0FFEE;
        for &m in &ms {
            for &n in &ns {
                for &k in &ks {
                    let mut a = vec![0.0f32; m * k];
                    let mut b = vec![0.0f32; k * n];
                    fill(&mut a, &mut seed);
                    fill(&mut b, &mut seed);
                    let c = packed_product(&a, &b, m, k, n);
                    let r = reference_nn(&a, &b, m, k, n);
                    for (i, (x, y)) in c.iter().zip(&r).enumerate() {
                        assert!(
                            (x - y).abs() <= 1e-4 * (1.0 + y.abs()),
                            "shape {m}x{k}x{n} elem {i}: {x} vs {y}"
                        );
                    }
                }
            }
        }
    }

    /// KC boundary: k straddling one and two slabs must agree with the
    /// reference (the slab partials are summed in slab order).
    #[test]
    fn kc_slab_boundaries_match_reference() {
        let mut seed = 0xBEEF;
        for &k in &[KC - 1, KC, KC + 1, 2 * KC + 3] {
            let (m, n) = (5, 19);
            let mut a = vec![0.0f32; m * k];
            let mut b = vec![0.0f32; k * n];
            fill(&mut a, &mut seed);
            fill(&mut b, &mut seed);
            let c = packed_product(&a, &b, m, k, n);
            let r = reference_nn(&a, &b, m, k, n);
            for (x, y) in c.iter().zip(&r) {
                assert!((x - y).abs() <= 2e-4 * (1.0 + y.abs()), "k={k}: {x} vs {y}");
            }
        }
    }

    /// Transposed packing reads must land elements in the same panel spots.
    #[test]
    fn pack_trans_equals_pack_of_explicit_transpose() {
        let (rows, cols) = (13, 9);
        let mut seed = 7;
        let mut mat = vec![0.0f32; rows * cols];
        fill(&mut mat, &mut seed);
        let mut t = vec![0.0f32; rows * cols];
        for r in 0..rows {
            for cc in 0..cols {
                t[cc * rows + r] = mat[r * cols + cc];
            }
        }
        // A: pack mat (rows×cols) vs trans-pack of t (cols×rows storage).
        let mut pa1 = vec![0.0f32; packed_a_len(rows, cols)];
        let mut pa2 = vec![0.0f32; packed_a_len(rows, cols)];
        pack_a(&mat, rows, cols, false, &mut pa1);
        pack_a(&t, rows, cols, true, &mut pa2);
        assert_eq!(pa1, pa2);
        // B: pack mat (rows=k × cols=n) vs trans-pack of t (n×k storage).
        let mut pb1 = vec![0.0f32; packed_b_len(rows, cols)];
        let mut pb2 = vec![0.0f32; packed_b_len(rows, cols)];
        pack_b(&mat, rows, cols, false, &mut pb1);
        pack_b(&t, rows, cols, true, &mut pb2);
        assert_eq!(pb1, pb2);
    }

    /// Packing a product's k axis segment by segment must fill the panels
    /// exactly as one pack of the concatenated operand does, for both
    /// operands, both storage orders and ragged edge panels.
    #[test]
    fn segment_packing_equals_one_pack_of_the_whole() {
        let (m, n) = (MR + 3, NR + 5);
        let segs = [4usize, 1, 7];
        let ktot: usize = segs.iter().sum();
        let mut seed = 0x5E6;
        for trans in [false, true] {
            // `free` is the operand's non-k extent; a segment is stored
            // `free × k` when k is contiguous, `k × free` otherwise.
            for (free, is_a) in [(m, true), (n, false)] {
                let k_contiguous = if is_a { !trans } else { trans };
                let parts: Vec<Vec<f32>> = segs
                    .iter()
                    .map(|&k| {
                        let mut v = vec![0.0f32; free * k];
                        fill(&mut v, &mut seed);
                        v
                    })
                    .collect();
                let mut whole = vec![0.0f32; free * ktot];
                let mut k0 = 0;
                for (part, &k) in parts.iter().zip(&segs) {
                    for f in 0..free {
                        for kk in 0..k {
                            let (src, dst) = if k_contiguous {
                                (f * k + kk, f * ktot + k0 + kk)
                            } else {
                                (kk * free + f, (k0 + kk) * free + f)
                            };
                            whole[dst] = part[src];
                        }
                    }
                    k0 += k;
                }
                let len = if is_a {
                    packed_a_len(m, ktot)
                } else {
                    packed_b_len(ktot, n)
                };
                let mut once = vec![f32::NAN; len];
                let mut pieces = vec![f32::NAN; len];
                let mut k0 = 0;
                if is_a {
                    pack_a(&whole, m, ktot, trans, &mut once);
                } else {
                    pack_b(&whole, ktot, n, trans, &mut once);
                }
                for (part, &k) in parts.iter().zip(&segs) {
                    if is_a {
                        pack_a_at(part, m, k, trans, &mut pieces, (ktot, k0));
                    } else {
                        pack_b_at(part, k, n, trans, &mut pieces, (ktot, k0));
                    }
                    k0 += k;
                }
                let bits = |v: &[f32]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&once), bits(&pieces), "trans {trans}, A {is_a}");
            }
        }
    }

    /// Degenerate dimensions must be no-ops, not panics.
    #[test]
    fn zero_sized_dims_are_noops() {
        for &(m, k, n) in &[(0usize, 3usize, 4usize), (3, 0, 4), (3, 4, 0)] {
            let a = vec![1.0f32; m * k];
            let b = vec![1.0f32; k * n];
            let c = packed_product(&a, &b, m, k, n);
            assert!(c.iter().all(|&v| v == 0.0));
        }
    }

    /// gemm_packed accumulates: padding lanes must never leak into C.
    #[test]
    fn accumulation_and_padding_are_clean() {
        let (m, k, n) = (MR + 3, 11, NR + 5);
        let mut seed = 99;
        let mut a = vec![0.0f32; m * k];
        let mut b = vec![0.0f32; k * n];
        fill(&mut a, &mut seed);
        fill(&mut b, &mut seed);
        let once = packed_product(&a, &b, m, k, n);
        // Run twice into the same C: must be exactly 2× the single product.
        let mut pa = vec![0.0f32; packed_a_len(m, k)];
        let mut pb = vec![0.0f32; packed_b_len(k, n)];
        pack_a(&a, m, k, false, &mut pa);
        pack_b(&b, k, n, false, &mut pb);
        let mut c = vec![0.0f32; m * n];
        gemm_packed(Lhs::Packed(&pa), &pb, &mut c, Store::rows(n), (m, k, n));
        gemm_packed(Lhs::Packed(&pa), &pb, &mut c, Store::rows(n), (m, k, n));
        for (x, y) in c.iter().zip(&once) {
            assert_eq!(*x, 2.0 * y);
        }
    }

    fn packed_product_arm(
        arm: Kernel,
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
    ) -> Vec<f32> {
        let mut pa = vec![f32::NAN; packed_a_len(m, k).max(1)];
        let mut pb = vec![f32::NAN; packed_b_len(k, n).max(1)];
        pack_a(a, m, k, false, &mut pa);
        pack_b(b, k, n, false, &mut pb);
        let mut c = vec![0.0f32; m * n];
        gemm_packed_arm(
            arm,
            Lhs::Packed(&pa),
            &pb,
            &mut c,
            Store::rows(n),
            (m, k, n),
        );
        c
    }

    /// Tentpole acceptance: every explicit-SIMD arm must be bit-identical
    /// to the scalar oracle over an exhaustive sweep of every m/n
    /// remainder around the MR/NR register tile plus KC slab boundaries
    /// (the narrow-nr, clipped-mr, and partial-slab store paths all get
    /// hit).
    #[test]
    fn explicit_arms_match_scalar_bit_for_bit() {
        let arms = crate::simd::available();
        let ms: Vec<usize> = (1..=2 * MR + 1).collect();
        let ns: Vec<usize> = (1..=2 * NR + 1).collect();
        let ks = [1, 3, 7, 64, KC - 1, KC, KC + 1, 2 * KC + 3];
        let mut seed = 0xA11CE;
        for &k in &ks {
            for &m in &ms {
                for &n in &ns {
                    let mut a = vec![0.0f32; m * k];
                    let mut b = vec![0.0f32; k * n];
                    fill(&mut a, &mut seed);
                    fill(&mut b, &mut seed);
                    let oracle = packed_product_arm(Kernel::Scalar, &a, &b, m, k, n);
                    for &arm in &arms {
                        if arm == Kernel::Scalar {
                            continue;
                        }
                        let got = packed_product_arm(arm, &a, &b, m, k, n);
                        assert_eq!(got, oracle, "arm {} diverged at {m}x{k}x{n}", arm.as_str());
                    }
                }
            }
        }
    }

    /// Larger multi-macro-tile shapes: arms must agree where the tile grid
    /// and tile-edge clipping both engage.
    #[test]
    fn explicit_arms_match_scalar_on_macro_tiles() {
        let mut seed = 0x5CA1E;
        for &(m, k, n) in &[
            (MC - 1, 65, NC + 3),
            (MC + 1, KC + 1, NC - 1),
            (2 * MC + 2, 65, 2 * NC + 4),
        ] {
            let mut a = vec![0.0f32; m * k];
            let mut b = vec![0.0f32; k * n];
            fill(&mut a, &mut seed);
            fill(&mut b, &mut seed);
            let oracle = packed_product_arm(Kernel::Scalar, &a, &b, m, k, n);
            for arm in crate::simd::available() {
                let got = packed_product_arm(arm, &a, &b, m, k, n);
                assert_eq!(got, oracle, "arm {} at {m}x{k}x{n}", arm.as_str());
            }
        }
    }

    /// The skinny path (every arm) must be bit-identical to the packed
    /// engine — it is substituted silently inside `linalg::gemm`, so this is
    /// what keeps training gradients reproducible across the dispatch
    /// boundary. Sweep covers strip remainders, row-group remainders, and
    /// KC slab boundaries.
    #[test]
    fn skinny_path_is_bit_identical_to_packed_engine() {
        let mut seed = 0x51131;
        let ns = [SKINNY_MIN_N, SKINNY_MIN_N + 1, 79, 512, 5 * NR + 3];
        let ks = [1, 7, 64, KC - 1, KC, KC + 1];
        for m in 1..=SKINNY_MAX_M {
            for &n in &ns {
                for &k in &ks {
                    let mut a = vec![0.0f32; m * k];
                    let mut b = vec![0.0f32; k * n];
                    fill(&mut a, &mut seed);
                    fill(&mut b, &mut seed);
                    assert!(skinny_applies(m, k, n, false));
                    let oracle = packed_product(&a, &b, m, k, n);
                    for arm in crate::simd::available() {
                        let mut c = vec![0.0f32; m * n];
                        crate::simd::skinny_arm(arm, &a, &b, &mut c, m, k, n);
                        assert_eq!(c, oracle, "skinny {} at {m}x{k}x{n}", arm.as_str());
                    }
                }
            }
        }
    }

    /// The `nt` skinny path, reached the way callers reach it (`gemm_arm`
    /// with a transposed B), must add exactly what the packed engine adds
    /// to a C that already holds values — for every arm, every m it
    /// accepts, ragged and full 8-row tiles of B, every KC slab boundary
    /// and the FedAvg head's k.
    #[test]
    fn skinny_nt_path_is_bit_identical_to_packed_engine() {
        let mut seed = 0x57A7;
        let bits = |v: &[f32]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        for m in 1..=SKINNY_MAX_M {
            for n in [1, 5, 16, 17, 128, 130] {
                for k in [1, 7, KC - 1, KC, KC + 1, 1568] {
                    assert!(skinny_applies(m, k, n, true));
                    let mut a = vec![0.0f32; m * k];
                    let mut b = vec![0.0f32; n * k];
                    let mut c0 = vec![0.0f32; m * n];
                    fill(&mut a, &mut seed);
                    fill(&mut b, &mut seed);
                    fill(&mut c0, &mut seed);
                    let mut pa = vec![f32::NAN; packed_a_len(m, k)];
                    let mut pb = vec![f32::NAN; packed_b_len(k, n)];
                    pack_a(&a, m, k, false, &mut pa);
                    pack_b(&b, k, n, true, &mut pb);
                    for arm in crate::simd::available() {
                        let mut oracle = c0.clone();
                        gemm_packed_arm(
                            arm,
                            Lhs::Packed(&pa),
                            &pb,
                            &mut oracle,
                            Store::rows(n),
                            (m, k, n),
                        );
                        let mut c = c0.clone();
                        let nt = crate::linalg::Layout::Nt;
                        crate::linalg::gemm_arm(arm, nt, &a, &b, &mut c, (m, k, n));
                        let on = format!("skinny nt {} at {m}x{k}x{n}", arm.as_str());
                        assert_eq!(bits(&c), bits(&oracle), "{on}");
                    }
                }
            }
        }
    }

    /// `gemm_packed_arm` with a `C` one row short or a packed `A` one element
    /// short must panic before a tile stores through its raw pointer, on
    /// every arm. Release is the configuration that matters: there the
    /// `debug_assert!`s this replaced were compiled out and the call
    /// returned with 8.0 written past the end of `c`.
    #[test]
    fn packed_engine_refuses_short_slices_on_every_arm() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let (m, k, n) = (32, 8, 32);
        let pa = vec![1.0f32; packed_a_len(m, k)];
        let pb = vec![1.0f32; packed_b_len(k, n)];
        for arm in crate::simd::available() {
            let mut c = vec![0.0f32; m * n];
            let short = (m - 1) * n;
            let refused = catch_unwind(AssertUnwindSafe(|| {
                gemm_packed_arm(
                    arm,
                    Lhs::Packed(&pa),
                    &pb,
                    &mut c[..short],
                    Store::rows(n),
                    (m, k, n),
                );
            }));
            assert!(refused.is_err(), "short C accepted on {}", arm.as_str());
            let refused = catch_unwind(AssertUnwindSafe(|| {
                gemm_packed_arm(
                    arm,
                    Lhs::Packed(&pa[1..]),
                    &pb,
                    &mut c,
                    Store::rows(n),
                    (m, k, n),
                );
            }));
            assert!(refused.is_err(), "short A accepted on {}", arm.as_str());
            assert!(
                c.iter().all(|&v| v == 0.0),
                "C written to on {}",
                arm.as_str()
            );
        }
    }

    /// A row-view A must add exactly what `pack_a` of the same matrix adds,
    /// on every arm, into C rows `ldc > n` apart whose gaps
    /// stay untouched: ragged and full 8-row tiles, 16-lane panels and
    /// their edges, every KC boundary. The views overlap and skip, as a
    /// convolution's taps over padded planes do.
    #[test]
    fn row_view_a_matches_packed_a_bit_for_bit() {
        let mut seed = 0x20E5;
        let bits = |v: &[f32]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        for m in [1, 5, MR, MR + 3, 3 * MR, MC + 1] {
            for n in [1, 6, NR, NR + 2, NC + 1] {
                for k in [1, 7, KC - 1, KC, KC + 1, 2 * KC + 3] {
                    // Row r starts 3r in; column kk is 2kk + kk / 5 along.
                    let rows: Vec<u32> = (0..m as u32).map(|r| 3 * r).collect();
                    let ks: Vec<u32> = (0..k as u32).map(|kk| 2 * kk + kk / 5).collect();
                    let mut src = vec![0.0f32; 3 * m + 3 * k];
                    fill(&mut src, &mut seed);
                    let a: Vec<f32> = rows
                        .iter()
                        .flat_map(|&r| ks.iter().map(move |&kk| (r + kk) as usize))
                        .map(|at| src[at])
                        .collect();
                    let mut b = vec![0.0f32; k * n];
                    fill(&mut b, &mut seed);
                    let ldc = n + 3;
                    let mut c0 = vec![0.0f32; m * ldc];
                    fill(&mut c0, &mut seed);
                    let mut pa = vec![f32::NAN; packed_a_len(m, k)];
                    let mut pb = vec![f32::NAN; packed_b_len(k, n)];
                    pack_a(&a, m, k, false, &mut pa);
                    pack_b(&b, k, n, false, &mut pb);
                    let mut oracle = c0.clone();
                    gemm_packed_arm(
                        Kernel::Scalar,
                        Lhs::Packed(&pa),
                        &pb,
                        &mut oracle,
                        Store::rows(ldc),
                        (m, k, n),
                    );
                    let view = Lhs::Rows {
                        src: &src,
                        rows: &rows,
                        ks: &ks,
                    };
                    for arm in crate::simd::available() {
                        let mut c = c0.clone();
                        gemm_packed_arm(arm, view, &pb, &mut c, Store::rows(ldc), (m, k, n));
                        let on = format!("{} at {m}x{k}x{n}", arm.as_str());
                        assert_eq!(bits(&c), bits(&oracle), "{on}");
                    }
                    for (row, row0) in oracle.chunks_exact(ldc).zip(c0.chunks_exact(ldc)) {
                        assert_eq!(bits(&row[n..]), bits(&row0[n..]), "a gap was written");
                    }
                }
            }
        }
    }

    /// A row view into a transposed store, chained or not, must add exactly what
    /// the packed engine adds chain by chain onto zeroed buffers, summed
    /// from 0.0 in k order, then added into C — transposed where asked — on
    /// every arm: ragged and full tiles, lanes past `n`,
    /// chains of one step, of a whole KC slab, past one (two slabs each),
    /// and a short last chain. Without a chain, a transposed store adds what
    /// the packed product adds into the transpose of C. Gaps stay untouched.
    #[test]
    fn transposed_chained_store_equals_packed_chains_plus_a_transpose() {
        let mut seed = 0x7A5;
        let bits = |v: &[f32]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        let shapes = [
            (7, None),
            (KC + 1, None),
            (9 * 16, Some(16)),
            (5, Some(1)),
            (3 * 7 + 2, Some(7)),
            (2 * KC, Some(KC)),
            (2 * (KC + 5), Some(KC + 5)),
        ];
        for m in [1, 5, MR, MR + 3, MC + 1] {
            for n in [1, 6, NR, NR + 2] {
                for (k, chain) in shapes {
                    let rows: Vec<u32> = (0..m as u32).map(|r| 3 * r).collect();
                    let ks: Vec<u32> = (0..k as u32).map(|kk| 2 * kk + kk / 5).collect();
                    let mut src = vec![0.0f32; 3 * m + 3 * k];
                    fill(&mut src, &mut seed);
                    let a: Vec<f32> = rows
                        .iter()
                        .flat_map(|&r| ks.iter().map(move |&kk| (r + kk) as usize))
                        .map(|at| src[at])
                        .collect();
                    let mut b = vec![0.0f32; k * n];
                    fill(&mut b, &mut seed);
                    let mut pb = vec![f32::NAN; packed_b_len(k, n)];
                    pack_b(&b, k, n, false, &mut pb);
                    // The sum each element adds into C, row-major `m × n`.
                    let mut sum = vec![0.0f32; m * n];
                    let len = chain.unwrap_or(k);
                    for k0 in (0..k).step_by(len) {
                        let kl = len.min(k - k0);
                        let part: Vec<f32> = a
                            .chunks_exact(k)
                            .flat_map(|row| row[k0..k0 + kl].iter().copied())
                            .collect();
                        let mut one = packed_product(&part, &b[k0 * n..(k0 + kl) * n], m, kl, n);
                        if chain.is_none() {
                            sum = one;
                            break;
                        }
                        add_rows_oracle(&mut sum, &mut one);
                    }
                    // A chain comes only with a transposed store.
                    let orients: &[bool] = if chain.is_some() {
                        &[true]
                    } else {
                        &[false, true]
                    };
                    for &trans in orients {
                        let (lines, line) = if trans { (n, m) } else { (m, n) };
                        let ld = line + 2;
                        let mut c0 = vec![0.0f32; lines * ld];
                        fill(&mut c0, &mut seed);
                        let at = |i: usize, j: usize| if trans { j * ld + i } else { i * ld + j };
                        let mut oracle = c0.clone();
                        if chain.is_none() {
                            // The packed engine adds each slab into C itself.
                            let mut c_rm: Vec<f32> =
                                (0..m * n).map(|e| c0[at(e / n, e % n)]).collect();
                            let mut pa = vec![f32::NAN; packed_a_len(m, k)];
                            pack_a(&a, m, k, false, &mut pa);
                            gemm_packed_arm(
                                Kernel::Scalar,
                                Lhs::Packed(&pa),
                                &pb,
                                &mut c_rm,
                                Store::rows(n),
                                (m, k, n),
                            );
                            for (e, &v) in c_rm.iter().enumerate() {
                                oracle[at(e / n, e % n)] = v;
                            }
                        } else {
                            for (e, &v) in sum.iter().enumerate() {
                                oracle[at(e / n, e % n)] += v;
                            }
                        }
                        let view = Lhs::Rows {
                            src: &src,
                            rows: &rows,
                            ks: &ks,
                        };
                        let store = if trans {
                            Store::cols(ld, chain)
                        } else {
                            Store::rows(ld)
                        };
                        for arm in crate::simd::available() {
                            let mut c = c0.clone();
                            gemm_packed_arm(arm, view, &pb, &mut c, store, (m, k, n));
                            let on = format!("{} at {m}x{k}x{n}, {store:?}", arm.as_str());
                            assert_eq!(bits(&c), bits(&oracle), "{on}");
                        }
                        for (l, l0) in oracle.chunks_exact(ld).zip(c0.chunks_exact(ld)) {
                            assert_eq!(bits(&l[line..]), bits(&l0[line..]), "a gap was written");
                        }
                    }
                }
            }
        }
    }

    /// `total += part`, elementwise: the oracle's fold of chain sums.
    fn add_rows_oracle(total: &mut [f32], part: &mut [f32]) {
        for (t, &p) in total.iter_mut().zip(part.iter()) {
            *t += p;
        }
    }

    /// A packed A cannot take a transposed store (nor so a chained one):
    /// its kernels have neither.
    #[test]
    #[should_panic(expected = "needs a row-view A")]
    fn packed_a_refuses_a_transposed_store() {
        let pa = vec![1.0f32; packed_a_len(2, 2)];
        let pb = vec![1.0f32; packed_b_len(2, 2)];
        let mut c = vec![0.0f32; 4];
        gemm_packed(
            Lhs::Packed(&pa),
            &pb,
            &mut c,
            Store::cols(2, None),
            (2, 2, 2),
        );
    }

    /// A row view whose reach passes its source must be refused before any
    /// tile reads it.
    #[test]
    #[should_panic(expected = "gemm: A's rows reach past its source")]
    fn row_view_past_its_source_panics() {
        let src = vec![1.0f32; 10];
        let pb = vec![1.0f32; packed_b_len(2, 1)];
        let mut c = vec![0.0f32; 2];
        let a = Lhs::Rows {
            src: &src,
            rows: &[0, 8],
            ks: &[0, 2],
        };
        gemm_packed(a, &pb, &mut c, Store::rows(1), (2, 2, 1));
    }

    /// The dispatching entry, same defect: the panic is the entry's own.
    #[test]
    #[should_panic(expected = "gemm: C is short")]
    fn gemm_packed_short_c_panics() {
        let (m, k, n) = (32, 8, 32);
        let pa = vec![1.0f32; packed_a_len(m, k)];
        let pb = vec![1.0f32; packed_b_len(k, n)];
        let mut c = vec![0.0f32; (m - 1) * n];
        gemm_packed(Lhs::Packed(&pa), &pb, &mut c, Store::rows(n), (m, k, n));
    }

    /// Shapes the skinny heuristic must refuse — wide m, empty m or k in
    /// either storage order of B, a narrow row-major B — and the one the
    /// `nt` order adds: any n at all, since its tiles are rows of B.
    #[test]
    fn skinny_heuristic_bounds() {
        for trans_b in [false, true] {
            assert!(skinny_applies(10, 64, 512, trans_b));
            assert!(skinny_applies(SKINNY_MAX_M, 64, 512, trans_b));
            assert!(!skinny_applies(SKINNY_MAX_M + 1, 64, 512, trans_b));
            assert!(!skinny_applies(10, 0, 512, trans_b));
            assert!(!skinny_applies(0, 64, 512, trans_b));
            assert!(!skinny_applies(10, 64, 0, trans_b));
        }
        assert!(!skinny_applies(10, 64, SKINNY_MIN_N - 1, false));
        assert!(skinny_applies(10, 64, 1, true));
    }

    /// `pack_a_rowmajor` with `trans` must equal packing the explicit
    /// transpose.
    #[test]
    fn pack_a_rowmajor_trans_round_trip() {
        let (m, k) = (6, 11);
        let mut seed = 3;
        let mut a = vec![0.0f32; m * k];
        fill(&mut a, &mut seed);
        let mut at = vec![0.0f32; m * k]; // k×m storage
        for i in 0..m {
            for kk in 0..k {
                at[kk * m + i] = a[i * k + kk];
            }
        }
        let mut out = vec![0.0f32; m * k];
        pack_a_rowmajor(&at, m, k, true, &mut out);
        assert_eq!(out, a);
        let mut out2 = vec![0.0f32; m * k];
        pack_a_rowmajor(&a, m, k, false, &mut out2);
        assert_eq!(out2, a);
    }
}
