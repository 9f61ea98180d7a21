//! The one generator.
//!
//! Every stochastic component in the reproduction (weight init, data
//! synthesis, partitioning, augmentation, client sampling, dropout, fault
//! plans) draws from a [`SnapRng`] derived from a single experiment seed,
//! so runs are bit-reproducible and clients can be trained in parallel
//! without sharing RNG state. What a seed means — the word stream and how
//! each kind of draw consumes it — is defined here and nowhere else; the
//! recipes are the ones every committed fingerprint ran on, pinned by
//! `draws_match_the_streams_every_committed_number_ran_on` and
//! `normal_draws_match_the_stream_every_committed_number_ran_on`.
//!
//! That includes the normal draws' arithmetic: Box–Muller runs on a private
//! port of Arm optimized-routines' single-precision `sinf`, `cosf` and
//! `logf` (the code glibc ships since 2.28, whose bits every committed
//! number ran on), not on the host's libm, so a seed draws the same normals
//! on every platform. The fills draw a chunk of raw words in stream order
//! — the generator's one serial step — and then convert and evaluate the
//! port over whole groups of `LANES` (8) pairs on the kernel arm
//! [`simd::active`] picks: an explicit AVX-512 evaluator
//! (`simd::box_muller_arm`), or on every other arm a branch-free loop that
//! LLVM vectorises; every arm gives the same bits.

use crate::simd::{self, box_muller_arm, Kernel};

/// [`SnapRng::unit_f32`] of a word.
#[inline(always)]
fn unit_of(word: u64) -> f32 {
    (word >> 40) as f32 * UNIT_F32
}

/// `2⁻²⁴`: one step of [`SnapRng::unit_f32`].
pub(crate) const UNIT_F32: f32 = 1.0 / (1u32 << 24) as f32;

/// [`SnapRng::range_f32`] of a word.
#[inline(always)]
fn range_of(word: u64, lo: f32, hi: f32) -> f32 {
    let v = lo + (hi - lo) * unit_of(word);
    if v < hi {
        v
    } else {
        lo
    }
}

/// A seeded deterministic generator.
pub fn seeded_rng(seed: u64) -> SnapRng {
    SnapRng::seed_from(seed)
}

/// Derive an independent stream seed from a base seed and a tag.
///
/// Uses the SplitMix64 finalizer, which distributes consecutive tags to
/// well-separated 64-bit outputs, so `derive_seed(s, 0)`, `derive_seed(s, 1)`
/// … behave as independent streams.
pub fn derive_seed(base: u64, tag: u64) -> u64 {
    let mut z = base ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Convenience: derive a generator for stream `tag` of base seed `base`.
pub fn derived_rng(base: u64, tag: u64) -> SnapRng {
    seeded_rng(derive_seed(base, tag))
}

/// xoshiro256++ with SplitMix64 seeding: the generator behind every
/// seed-derived bit.
///
/// Its position is a value: the 256-bit state can be read out with
/// [`SnapRng::state`] and later re-entered with [`SnapRng::try_from_state`],
/// resuming the stream mid-flight bit-for-bit. The paging layer relies on
/// it — a dehydrated client's RNG position travels in its snapshot blob, so
/// a page-out → page-in cycle draws exactly the numbers a never-paged client
/// would have drawn — and any other holder of a generator can checkpoint it
/// the same way.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapRng {
    s: [u64; 4],
}

impl SnapRng {
    /// Seed the generator; the 64-bit seed is expanded to the full 256-bit
    /// state through SplitMix64, per the xoshiro authors' recommendation.
    pub fn seed_from(seed: u64) -> Self {
        let mut s = [0u64; 4];
        let mut acc = seed;
        for slot in &mut s {
            // SplitMix64 sequence over the seed (the same finalizer as
            // `derive_seed`, applied to an incrementing counter).
            acc = acc.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = acc;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *slot = z ^ (z >> 31);
        }
        if s == [0; 4] {
            s[0] = 1; // xoshiro forbids the all-zero state
        }
        SnapRng { s }
    }

    /// The current 256-bit position of the stream.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Re-enter a stream at a position captured by [`SnapRng::state`].
    /// `None` for the all-zero state: no stream passes through it (xoshiro
    /// would stay there forever), so words read back as zeros are damage.
    pub fn try_from_state(s: [u64; 4]) -> Option<Self> {
        (s != [0; 4]).then_some(SnapRng { s })
    }

    /// The next 64 random bits: one xoshiro256++ step. Every other draw is
    /// a function of these words.
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, 1)`: the top 24 bits of one word, times 2⁻²⁴.
    pub fn unit_f32(&mut self) -> f32 {
        unit_of(self.next_u64())
    }

    /// Uniform in `[0, 1)`: the top 53 bits of one word, times 2⁻⁵³.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, span)` without modulo bias: words above the largest
    /// multiple of `span` are rejected, the first one kept is reduced.
    /// A `span` of 0 stands for 2⁶⁴ (what an inclusive range over every
    /// `i64` wraps to): the word itself.
    fn below(&mut self, span: u64) -> u64 {
        if span == 0 {
            return self.next_u64();
        }
        let zone = u64::MAX - (u64::MAX % span + 1) % span;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % span;
            }
        }
    }

    /// A uniform index in `0..n`; panics when `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        self.below(n as u64) as usize
    }

    /// A uniform integer in `lo..=hi`: `lo` plus a draw below the span.
    /// Panics when `lo > hi`.
    pub fn inclusive(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range");
        let span = (i128::from(hi) - i128::from(lo) + 1) as u64;
        (i128::from(lo) + i128::from(self.below(span))) as i64
    }

    /// Uniform in `[lo, hi)`: `lo + (hi − lo)·unit_f32()`, stepping back to
    /// `lo` when rounding lands on `hi`. Panics when `lo >= hi`.
    pub fn range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo < hi, "empty range");
        range_of(self.next_u64(), lo, hi)
    }

    /// Uniform in `[lo, hi)`, the `f64` twin of [`SnapRng::range_f32`].
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range");
        let v = lo + (hi - lo) * self.unit_f64();
        if v < hi {
            v
        } else {
            lo
        }
    }

    /// `true` with probability `p`: `unit_f64() < p`, one word either way.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.unit_f64() < p
    }

    /// Fisher–Yates from the back: element `i` swaps with a uniform
    /// position in `0..=i`.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.index(i + 1));
        }
    }

    /// Standard normals, one per slot: the cosine branch of a Box–Muller
    /// pair, two words each.
    pub fn fill_normal(&mut self, out: &mut [f32]) {
        self.fill_normal_on(simd::active(), out);
    }

    /// [`SnapRng::fill_normal`] on the given arm's evaluator.
    fn fill_normal_on(&mut self, arm: Kernel, out: &mut [f32]) {
        let mut bm = BoxMuller::new();
        for part in out.chunks_mut(CHUNK) {
            let lanes = bm.draw(self, part.len());
            box_muller_arm::<false>(arm, &bm.words[..lanes], &mut bm.cos[..lanes], &mut []);
            part.copy_from_slice(&bm.cos[..part.len()]);
        }
    }

    /// Standard normals, both Box–Muller branches of each pair of words,
    /// cosine first; an odd tail still draws a whole pair and drops its sine.
    pub fn fill_normal_pairs(&mut self, out: &mut [f32]) {
        self.fill_normal_pairs_scaled(out, 1.0);
    }

    /// [`SnapRng::fill_normal_pairs`] times `std`, each output `(r·cos θ)·std`
    /// or `(r·sin θ)·std`: one pass where a fill and a scaling loop would
    /// take two, and the same bits (`x·1` is `x`).
    pub(crate) fn fill_normal_pairs_scaled(&mut self, out: &mut [f32], std: f32) {
        self.fill_normal_pairs_on(simd::active(), out, std);
    }

    /// [`SnapRng::fill_normal_pairs_scaled`] on the given arm's evaluator.
    fn fill_normal_pairs_on(&mut self, arm: Kernel, out: &mut [f32], std: f32) {
        let mut bm = BoxMuller::new();
        for part in out.chunks_mut(2 * CHUNK) {
            let lanes = bm.draw(self, part.len().div_ceil(2));
            let (cos, sin) = (&mut bm.cos[..lanes], &mut bm.sin[..lanes]);
            box_muller_arm::<true>(arm, &bm.words[..lanes], cos, sin);
            for (o, (&c, &s)) in part.chunks_mut(2).zip(bm.cos.iter().zip(&bm.sin)) {
                o[0] = c * std;
                if let Some(o) = o.get_mut(1) {
                    *o = s * std;
                }
            }
        }
    }
}

/// How many pairs of words a normal fill draws before it computes them.
const CHUNK: usize = 64;
/// Pairs an evaluator computes side by side: the `f64` lanes of a ZMM.
pub(crate) const LANES: usize = 8;

/// One chunk of a normal fill: its pairs of words, and the cosine and sine
/// branches computed from them.
struct BoxMuller {
    words: [[u64; 2]; CHUNK],
    cos: [f32; CHUNK],
    sin: [f32; CHUNK],
}

impl BoxMuller {
    fn new() -> Self {
        BoxMuller {
            words: [[0; 2]; CHUNK],
            cos: [0.0; CHUNK],
            sin: [0.0; CHUNK],
        }
    }

    /// Draw `pairs` fresh pairs of words in stream order, the generator's
    /// one serial step; the evaluator converts them to uniforms. Returns
    /// the lanes to evaluate: `pairs` rounded up to whole [`LANES`] groups,
    /// whose spare lanes hold earlier (or zero) words, any of which is a
    /// valid input, and are never read back.
    fn draw(&mut self, rng: &mut SnapRng, pairs: usize) -> usize {
        for w in &mut self.words[..pairs] {
            *w = [rng.next_u64(), rng.next_u64()];
        }
        pairs.next_multiple_of(LANES)
    }
}

/// The uniforms a Box–Muller pair of words stands for, as the one-pair
/// draws made them: `u₁ = range_f32(ε, 1)` of the first word (off zero so
/// the logarithm is finite), `θ = 2π·range_f32(0, 1)` of the second.
#[inline(always)]
pub(crate) fn pair_uniforms([w1, w2]: [u64; 2]) -> (f32, f32) {
    let u1 = range_of(w1, f32::EPSILON, 1.0);
    let theta = 2.0 * std::f32::consts::PI * range_of(w2, 0.0, 1.0);
    (u1, theta)
}

/// The portable evaluator: `r·cos θ` of each pair of `words` into `cos`
/// and, under `SIN`, `r·sin θ` into `sin`, without a branch, which LLVM
/// vectorises. Every arm but AVX-512's runs it.
pub(crate) fn box_muller_portable<const SIN: bool>(
    words: &[[u64; 2]],
    cos: &mut [f32],
    sin: &mut [f32],
) {
    let (mut u1, mut theta) = ([0.0; CHUNK], [0.0; CHUNK]);
    for (i, words) in words.chunks(CHUNK).enumerate() {
        // Every pair's uniforms first, then the port over them: two loops,
        // where one over the words vectorised worse.
        for ((u, t), &w) in u1.iter_mut().zip(&mut theta).zip(words) {
            (*u, *t) = pair_uniforms(w);
        }
        let lanes = i * CHUNK..i * CHUNK + words.len();
        let uniforms = u1.iter().zip(&theta).take(words.len());
        if SIN {
            let out = cos[lanes.clone()].iter_mut().zip(&mut sin[lanes]);
            for ((c, s), (&u, &t)) in out.zip(uniforms) {
                let r = (-2.0 * ln(u)).sqrt();
                let (sin_t, cos_t) = sin_cos(t);
                (*c, *s) = (r * cos_t, r * sin_t);
            }
        } else {
            for (c, (&u, &t)) in cos[lanes].iter_mut().zip(uniforms) {
                let r = (-2.0 * ln(u)).sqrt();
                *c = r * sin_cos(t).1;
            }
        }
    }
}

// Single-precision sine, cosine and logarithm for the normal draws: a port of
// Arm optimized-routines' `sinf`/`cosf`/`logf` (sincosf.h, sincosf_data.c,
// logf.c, logf_data.c), the implementation glibc ships since 2.28, so these
// give glibc's `sinf`/`cosf`/`logf` bits on every host. Each evaluates a
// table entry and an `f64` polynomial with separate multiplies and adds, as
// glibc's build does; the constants are the sources' `f64` values.

/// `2/π·2²⁴`: the quadrant lands in bits 24–31 of the scaled argument.
pub(crate) const HPI_INV: f64 = f64::from_bits(0x4164_5f30_6dc9_c883);
/// `π/2`.
pub(crate) const HPI: f64 = f64::from_bits(0x3ff9_21fb_5444_2d18);
/// Cosine polynomial `c0 + c1·x² + … + c4·x⁸` on `[−π/4, π/4]`.
pub(crate) const COS_POLY: [f64; 5] = [
    1.0,
    f64::from_bits(0xbfdf_ffff_fd0c_621c),
    f64::from_bits(0x3fa5_5553_e106_8f19),
    f64::from_bits(0xbf56_c087_e89a_359d),
    f64::from_bits(0x3ef9_9343_027b_f8c3),
];
/// Sine polynomial `x + s1·x³ + s2·x⁵ + s3·x⁷` on `[−π/4, π/4]`.
pub(crate) const SIN_POLY: [f64; 3] = [
    f64::from_bits(0xbfc5_5554_5995_a603),
    f64::from_bits(0x3f81_1076_0523_0bc4),
    f64::from_bits(0xbf29_94eb_3774_cf24),
];

/// `(sin θ, cos θ)` for `0 ≤ θ < 120`, glibc's fast-reduction range: `θ`
/// less the nearest multiple `n·π/2`, both polynomials on the remainder
/// `x`, then the quadrant `q = n mod 4` picks and signs them —
/// `sin(x + qπ/2)` cycles `S, C, −S, −C` and `cos(x + qπ/2)` cycles
/// `C, −S, −C, S`. Below `0.75` (glibc's unreduced path) `n` is 0 and the
/// same polynomials apply, and below `2⁻¹²` they round to `θ` and 1, as
/// glibc returns there.
pub(crate) fn sin_cos(theta: f32) -> (f32, f32) {
    debug_assert!(
        (0.0..120.0).contains(&theta),
        "{theta} outside the fast range"
    );
    let x = f64::from(theta);
    // glibc's `n = ((int32_t) r + 0x800000) >> 24` in exact `f64` steps,
    // which vectorise where a float-to-int cast does not.
    let n =
        (((x * HPI_INV).floor() + f64::from(0x80_0000)) * f64::from(1u32 << 24).recip()).floor();
    let x = x - n * HPI;
    let x2 = x * x;
    let x3 = x * x2;
    let s = x + x3 * SIN_POLY[0] + x3 * x2 * (SIN_POLY[1] + x2 * SIN_POLY[2]);
    let x4 = x2 * x2;
    let c = COS_POLY[0]
        + x2 * COS_POLY[1]
        + x4 * COS_POLY[2]
        + x4 * x2 * (COS_POLY[3] + x2 * COS_POLY[4]);
    // Adding 2⁵² puts the integer `n` in the low bits of the mantissa.
    let q = (n + f64::from_bits(0x4330_0000_0000_0000)).to_bits() as u32 & 3;
    let (s, c) = if q & 1 == 0 { (s, c) } else { (c, s) };
    // Sine is negative in quadrants 2 and 3, cosine in 1 and 2: bit 1 of
    // `q` and of `q + 1` becomes the sign bit.
    let signed = |v: f64, q: u32| f32::from_bits((v as f32).to_bits() ^ (q & 2) << 30);
    (signed(s, q), signed(c, q + 1))
}

/// `logf`'s table offset: subtracting its bits splits `x = 2ᵏ·z` with `z` in
/// `[0.6992, 1.3984)` (this float and twice it), a range of 16 cells.
pub(crate) const LOG_OFF: u32 = 0x3f33_0000;
/// Per cell the bits of `(1/c, ln c)` for `c` near the cell's centre.
pub(crate) const LOG_TABLE: [[u64; 2]; 16] = [
    [0x3ff6_61ec_79f8_f3be, 0xbfd5_7bf7_808c_aade],
    [0x3ff5_71ed_4aaf_883d, 0xbfd2_bef0_a7c0_6ddb],
    [0x3ff4_9539_f0f0_10b0, 0xbfd0_1eae_7f51_3a67],
    [0x3ff3_c995_b0b8_0385, 0xbfcb_31d8_a682_24e9],
    [0x3ff3_0d19_0c88_64a5, 0xbfc6_574f_0ac0_7758],
    [0x3ff2_5e22_7b0b_8ea0, 0xbfc1_aa2b_c79c_8100],
    [0x3ff1_bb4a_4a1a_343f, 0xbfba_4e76_ce8c_0e5e],
    [0x3ff1_2358_f08a_e5ba, 0xbfb1_973c_5a61_1ccc],
    [0x3ff0_953f_4199_00a7, 0xbfa2_52f4_38e1_0c1e],
    [0x3ff0_0000_0000_0000, 0],
    [0x3fee_608c_fd9a_47ac, 0x3faa_a5aa_5df2_5984],
    [0x3fec_a4b3_1f02_6aa0, 0x3fbc_5e53_aa36_2eb4],
    [0x3feb_2036_576a_fce6, 0x3fc5_26e5_7720_db08],
    [0x3fe9_c2d1_63a1_aa2d, 0x3fcb_c286_0d22_4770],
    [0x3fe8_86e6_0378_41ed, 0x3fd1_058b_c8a0_7ee1],
    [0x3fe7_67dc_f553_4862, 0x3fd4_0430_57b6_ee09],
];
/// `ln 2`.
pub(crate) const LN2: f64 = f64::from_bits(0x3fe6_2e42_fefa_39ef);
/// `ln(1 + r) − r ≈ a0·r⁴ + a1·r³ + a2·r²` on a cell.
pub(crate) const LOG_POLY: [f64; 3] = [
    f64::from_bits(0xbfd0_0ea3_48b8_8334),
    f64::from_bits(0x3fd5_575b_0be0_0b6a),
    f64::from_bits(0xbfdf_fffe_f20a_4123),
];

/// `ln x` for a positive normal finite `x`: `k·ln 2 + ln c + ln(z/c)`.
pub(crate) fn ln(x: f32) -> f32 {
    debug_assert!(x.is_normal() && x > 0.0, "{x} outside the normal range");
    let ix = x.to_bits();
    let tmp = ix.wrapping_sub(LOG_OFF);
    let [inv_c, ln_c] = LOG_TABLE[(tmp >> 19) as usize & 15].map(f64::from_bits);
    let k = (tmp as i32) >> 23;
    let z = f64::from(f32::from_bits(ix.wrapping_sub(tmp & 0xff80_0000)));
    let r = z * inv_c - 1.0;
    let r2 = r * r;
    let y = LOG_POLY[0] * r2 + (LOG_POLY[1] * r + LOG_POLY[2]);
    (y * r2 + (ln_c + f64::from(k) * LN2 + r)) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let draw = |seed| -> Vec<u64> {
            let mut r = seeded_rng(seed);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn derived_streams_differ() {
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
        assert_ne!(derived_rng(9, 0).next_u64(), derived_rng(9, 1).next_u64());
    }

    #[test]
    fn derive_is_pure() {
        assert_eq!(derive_seed(123, 456), derive_seed(123, 456));
    }

    #[test]
    fn state_roundtrip_resumes_mid_stream() {
        let mut a = SnapRng::seed_from(99);
        for _ in 0..37 {
            a.next_u64();
        }
        let mut b = SnapRng::try_from_state(a.state()).expect("a live position");
        let xs: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys, "resumed stream diverged from the original");
        assert_eq!(SnapRng::try_from_state([0; 4]), None);
    }

    #[test]
    fn floats_cover_unit_interval() {
        let mut r = SnapRng::seed_from(3);
        let xs: Vec<f32> = (0..1000).map(|_| r.unit_f32()).collect();
        assert!(xs.iter().all(|x| (0.0..1.0).contains(x)));
        let mean = xs.iter().sum::<f32>() / xs.len() as f32;
        assert!((mean - 0.5).abs() < 0.05, "suspicious mean {mean}");
    }

    #[test]
    fn the_widest_integer_range_is_the_word_itself() {
        let (mut a, mut b) = (SnapRng::seed_from(4), SnapRng::seed_from(4));
        let word = b.next_u64() as i64;
        assert_eq!(a.inclusive(i64::MIN, i64::MAX), i64::MIN.wrapping_add(word));
    }

    #[test]
    fn normals_share_their_words_and_have_unit_scale() {
        let (mut a, mut b) = (SnapRng::seed_from(5), SnapRng::seed_from(5));
        let mut xs = vec![0.0; 2000];
        let mut pairs = vec![0.0; 4000];
        a.fill_normal(&mut xs);
        b.fill_normal_pairs(&mut pairs);
        assert!(xs
            .iter()
            .zip(pairs.iter().step_by(2))
            .all(|(x, p)| x.to_bits() == p.to_bits()));
        assert_eq!(a, b, "one draw and a pair consume the same two words");
        let var = pairs.iter().map(|x| x * x).sum::<f32>() / pairs.len() as f32;
        assert!((var - 1.0).abs() < 0.1, "suspicious variance {var}");
    }

    /// Every arm's evaluator fills the scalar arm's bits and stops at its
    /// position, whatever the length's remainder against a chunk and a
    /// group of lanes — 38 435 is MicroResNet's parameter count, 144 one
    /// 12×12 image — and the scaled pairs are the pairs times `std`.
    #[test]
    fn fills_match_across_arms() {
        let lengths = [0, 1, 2, 3, 63, 64, 65, 129, 144, 38_435];
        for arm in simd::available() {
            for (seed, n) in lengths.into_iter().enumerate() {
                let fresh = || SnapRng::seed_from(100 + seed as u64);
                let (mut got, mut want) = (vec![0.0f32; n], vec![0.0f32; n]);
                let (mut a, mut b) = (fresh(), fresh());
                a.fill_normal_on(arm, &mut got);
                b.fill_normal_on(Kernel::Scalar, &mut want);
                assert_eq!(bits(&got), bits(&want), "{arm:?} fill_normal, length {n}");
                assert_eq!(a, b, "{arm:?} fill_normal position, length {n}");

                for std in [1.0, 0.37] {
                    let (mut a, mut b) = (fresh(), fresh());
                    a.fill_normal_pairs_on(arm, &mut got, std);
                    b.fill_normal_pairs_on(Kernel::Scalar, &mut want, 1.0);
                    want.iter_mut().for_each(|v| *v *= std);
                    let what = format!("{arm:?} fill_normal_pairs × {std}, length {n}");
                    assert_eq!(bits(&got), bits(&want), "{what}");
                    assert_eq!(a, b, "{what}: position");
                }
            }
        }
    }

    /// What the fills ran as before the port: Box–Muller on the host's
    /// `f32::ln`/`cos`/`sin`, one pair at a time, cosine first.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    fn std_normal_pair(r: &mut SnapRng) -> (f32, f32) {
        let u1 = r.range_f32(f32::EPSILON, 1.0);
        let theta = 2.0 * std::f32::consts::PI * r.range_f32(0.0, 1.0);
        let radius = (-2.0 * u1.ln()).sqrt();
        (radius * theta.cos(), radius * theta.sin())
    }

    /// Both fills are the one-pair-at-a-time loop on glibc's libm, whatever
    /// the length's remainder against a chunk, and stop at its position.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    #[test]
    fn fills_match_the_libm_loop_and_its_position() {
        let lengths = [
            0,
            1,
            2,
            3,
            CHUNK - 1,
            CHUNK,
            CHUNK + 1,
            2 * CHUNK + 1,
            38_435,
        ];
        for (seed, n) in lengths.into_iter().enumerate() {
            let (mut fill, mut oracle) = (
                SnapRng::seed_from(seed as u64),
                SnapRng::seed_from(seed as u64),
            );
            let mut got = vec![0.0f32; n];
            fill.fill_normal(&mut got);
            let want: Vec<f32> = (0..n).map(|_| std_normal_pair(&mut oracle).0).collect();
            assert_eq!(bits(&got), bits(&want), "fill_normal, length {n}");
            assert_eq!(fill, oracle, "fill_normal position, length {n}");

            fill.fill_normal_pairs(&mut got);
            let mut want = Vec::with_capacity(n + 1);
            while want.len() < n {
                let (c, s) = std_normal_pair(&mut oracle);
                want.extend([c, s]);
            }
            want.truncate(n);
            assert_eq!(bits(&got), bits(&want), "fill_normal_pairs, length {n}");
            assert_eq!(fill, oracle, "fill_normal_pairs position, length {n}");
        }
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// The port is glibc's `sinf`/`cosf`/`logf` on every input a draw can
    /// hand it: each of the 2²⁴ angles `2π·k·2⁻²⁴` and radius uniforms
    /// `range_f32(ε, 1)` of the same `k`.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    #[test]
    fn the_port_is_glibc_on_every_drawable_input() {
        let (mut sin_bad, mut cos_bad, mut ln_bad) = (0u32, 0u32, 0u32);
        for k in 0..1u32 << 24 {
            let unit = k as f32 * (1.0 / (1u32 << 24) as f32);
            let theta = 2.0 * std::f32::consts::PI * unit;
            let (s, c) = sin_cos(theta);
            sin_bad += u32::from(s.to_bits() != theta.sin().to_bits());
            cos_bad += u32::from(c.to_bits() != theta.cos().to_bits());
            let u1 = f32::EPSILON + (1.0 - f32::EPSILON) * unit;
            let u1 = if u1 < 1.0 { u1 } else { f32::EPSILON };
            ln_bad += u32::from(ln(u1).to_bits() != u1.ln().to_bits());
        }
        assert_eq!(
            (sin_bad, cos_bad, ln_bad),
            (0, 0, 0),
            "mismatches (sin, cos, ln)"
        );
    }

    /// The normal draws' bits, printed by the one-pair-at-a-time
    /// `normal_pair`/`normal` every committed number before the fills ran
    /// on: per seed, 9 `fill_normal_pairs` outputs (the fifth pair's sine
    /// dropped), then 5 `fill_normal` outputs, then the next word. Unlike
    /// the oracle above, this holds on any libm.
    #[test]
    fn normal_draws_match_the_stream_every_committed_number_ran_on() {
        for (seed, want) in [0u64, 1, 42, u64::MAX].into_iter().zip(NORMAL_GOLDEN) {
            let mut r = SnapRng::seed_from(seed);
            let (mut pairs, mut singles) = ([0.0f32; 9], [0.0f32; 5]);
            r.fill_normal_pairs(&mut pairs);
            r.fill_normal(&mut singles);
            let mut o: Vec<u64> = pairs
                .iter()
                .chain(&singles)
                .map(|x| u64::from(x.to_bits()))
                .collect();
            o.push(r.next_u64());
            assert_eq!(o, want, "seed {seed:#x}");
        }
    }

    const NORMAL_GOLDEN: [[u64; 15]; 4] = [
        [
            0xbf8dcff1,
            0x3f8176ec,
            0x3fb696f8,
            0x3dd2a3c5,
            0x3f967929,
            0x3e1c6b38,
            0x3ea07b0b,
            0xbeea8617,
            0x3fb2ab9b,
            0x3fb22664,
            0x3fe24580,
            0xbff1f7cc,
            0x3f3a57f2,
            0xbf9cf9c1,
            0x46e91feb4535fbdc,
        ],
        [
            0xbc408fe0,
            0xbf2560d4,
            0xbd50d99e,
            0xc009420f,
            0xbfc642bf,
            0xbf7d511e,
            0xbe24a9af,
            0xbcc33a7f,
            0x3fb7edf6,
            0xbe6733a0,
            0xbfe7454d,
            0x3f9c18f6,
            0xbf887218,
            0xbe3c287d,
            0x439401c53ed0d70b,
        ],
        [
            0xbe8986e4,
            0x3f14fc0f,
            0xbd5f13d0,
            0xbe2fe6b6,
            0xbf141d83,
            0xbeb710ef,
            0xbfcdfec0,
            0xbfa00a4d,
            0x3fcf51be,
            0x3f223223,
            0x3f4bb69f,
            0xbfa564ca,
            0x3fd60289,
            0xbf836a09,
            0x296566311008aaa4,
        ],
        [
            0x3f98a1f4,
            0xbf5c6627,
            0xbd9249f3,
            0x3ef41d5d,
            0xbf402517,
            0x3f07b5db,
            0xbefd88df,
            0x3d2abfdb,
            0x3f14691b,
            0xbf6849e4,
            0x3ebdc7fa,
            0xbf415c24,
            0x3ed3d94e,
            0x3fa4b140,
            0x32c14ddbee71348c,
        ],
    ];

    /// The oracle that outlives the `rand` crate: a fixed script over every
    /// draw method, compared with what the stand-in this workspace was built
    /// against until commit `2e9d814` (`benchmark/standins/rand`, whose
    /// default generator is the same xoshiro256++) produced for it.
    ///
    /// The constants were printed once, at that commit, by this script
    /// written line for line against that crate's traits, on its default
    /// generator built with `seed_from_u64(seed)`: `next_u64` as is;
    /// `unit_f32()` / `unit_f64()` as `gen::<f32>()` / `gen::<f64>()`;
    /// `index(n)` as `gen_range(0..n)`; `inclusive(-3, 3)` and `(5, 5)` as
    /// `gen_range(lo..=hi)` on `i32`, `inclusive(1, 12)` on `u64`;
    /// `range_f32(lo, hi)` / `range_f64(lo, hi)` as `gen_range(lo..hi)`;
    /// `chance(p)` as `gen_bool(p)`; `r.shuffle(&mut v)` as
    /// `v.shuffle(&mut r)`; every value pushed as its bits (`to_bits`, or
    /// `as i64 as u64` for the signed ones). EXPERIMENTS.md has the program.
    #[test]
    fn draws_match_the_streams_every_committed_number_ran_on() {
        for (seed, want) in [0u64, 1, 42, u64::MAX].into_iter().zip(GOLDEN) {
            let mut r = SnapRng::seed_from(seed);
            let mut o: Vec<u64> = vec![r.next_u64()];
            o.push(u64::from(r.unit_f32().to_bits()));
            o.push(r.unit_f64().to_bits());
            o.push(r.index(1) as u64);
            o.push(r.index(10) as u64);
            // More than half of all words are rejected for this span.
            o.push(r.index(usize::MAX / 2 + 2) as u64);
            o.push(r.inclusive(-3, 3) as u64);
            o.push(r.inclusive(5, 5) as u64);
            o.push(r.inclusive(1, 12) as u64);
            o.push(u64::from(r.range_f32(0.4, 1.0).to_bits()));
            for _ in 0..8 {
                // Three floats wide: a quarter of the draws round onto `hi`.
                let v = r.range_f32(1.0, 1.0 + 2.0 * f32::EPSILON);
                o.push(u64::from(v.to_bits()));
            }
            o.push(r.range_f64(f64::EPSILON, 1.0).to_bits());
            o.push(r.range_f64(-2.5, 7.25).to_bits());
            for p in [0.0, 1.0, 0.5, 0.5, 0.5, 0.5] {
                o.push(u64::from(r.chance(p)));
            }
            let mut v: Vec<u64> = (0..13).collect();
            r.shuffle(&mut v);
            o.extend(v);
            o.push(r.next_u64());
            assert_eq!(o, want, "seed {seed:#x}");
        }
    }

    const GOLDEN: [[u64; 40]; 4] = [
        [
            0x53175d61490b23df,
            0x3ec3b4de,
            0x3fd703f7e47b269e,
            0x0,
            0x4,
            0x543c37757f08d9a,
            0xfffffffffffffffd,
            0x5,
            0xc,
            0x3ee39ac8,
            0x3f800001,
            0x3f800000,
            0x3f800000,
            0x3f800000,
            0x3f800000,
            0x3f800001,
            0x3f800001,
            0x3f800000,
            0x3fd4ef8a1f7b4d7f,
            0x3ff6e29895e2adc0,
            0x0,
            0x1,
            0x1,
            0x1,
            0x1,
            0x1,
            0x6,
            0x5,
            0x4,
            0x1,
            0xc,
            0x3,
            0xa,
            0x0,
            0x8,
            0x2,
            0x9,
            0xb,
            0x7,
            0xb6362d8b640aec49,
        ],
        [
            0xcfc5d07f6f03c29b,
            0x3f3f4241,
            0x3fb9a37d5757aaf0,
            0x0,
            0x0,
            0x18bae5b30d334bd0,
            0x2,
            0x5,
            0x4,
            0x3ee30d10,
            0x3f800001,
            0x3f800000,
            0x3f800000,
            0x3f800001,
            0x3f800001,
            0x3f800000,
            0x3f800001,
            0x3f800001,
            0x3fe967f65e19fa20,
            0xbfee7a65259bae82,
            0x0,
            0x1,
            0x0,
            0x1,
            0x0,
            0x0,
            0x1,
            0x4,
            0x5,
            0xc,
            0x8,
            0x3,
            0x9,
            0x6,
            0xb,
            0xa,
            0x2,
            0x7,
            0x0,
            0x7fbb09eab8d1b4d7,
        ],
        [
            0xd0764d4f4476689f,
            0x3ea33c82,
            0x3fef7c0f9f61849d,
            0x0,
            0x1,
            0x201718ff221a3556,
            0xffffffffffffffff,
            0x5,
            0x5,
            0x3f3c5863,
            0x3f800000,
            0x3f800001,
            0x3f800000,
            0x3f800001,
            0x3f800001,
            0x3f800000,
            0x3f800000,
            0x3f800001,
            0x3fdde132e2789208,
            0xbfed8c6b74347574,
            0x0,
            0x1,
            0x0,
            0x0,
            0x1,
            0x1,
            0xb,
            0xa,
            0x5,
            0x6,
            0x9,
            0x4,
            0x2,
            0x8,
            0x0,
            0x1,
            0xc,
            0x3,
            0x7,
            0xcca7e752da48d83d,
        ],
        [
            0x56ccf8ce948e27b2,
            0x3f668588,
            0x3fec7d36b4902339,
            0x0,
            0x1,
            0x66f1fb2ac9402c14,
            0xffffffffffffffff,
            0x5,
            0x6,
            0x3f6994c2,
            0x3f800001,
            0x3f800001,
            0x3f800000,
            0x3f800000,
            0x3f800001,
            0x3f800001,
            0x3f800000,
            0x3f800000,
            0x3fd752dba3b47623,
            0xbffd1f555b4de4e3,
            0x0,
            0x1,
            0x1,
            0x0,
            0x1,
            0x0,
            0xc,
            0xa,
            0x4,
            0x9,
            0x5,
            0x7,
            0x1,
            0x2,
            0x6,
            0x0,
            0xb,
            0x8,
            0x3,
            0x3d916fb9e73c648b,
        ],
    ];
}
