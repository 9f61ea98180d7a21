//! Offline stand-in for `rand` 0.8: the surface this repository uses.
//!
//! `StdRng` here is xoshiro256++ seeded through SplitMix64, not ChaCha12, so
//! streams differ from the published crate: a benchmark record made with
//! these stand-ins is stamped `deps: standins` and compares only with its
//! own kind. Everything is deterministic in the seed.

use std::fmt;
use std::ops::{Range, RangeInclusive};

/// The error `try_fill_bytes` can return (never constructed here).
#[derive(Debug)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("random source failed")
    }
}

impl std::error::Error for Error {}

/// The core of a generator: raw words and bytes.
pub trait RngCore {
    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fill `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
    /// Fill `dest`, reporting a failing source.
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error>;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        (**self).try_fill_bytes(dest)
    }
}

/// A generator that can be built from a seed.
pub trait SeedableRng: Sized {
    /// Build the generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Distributions: only `Standard` and the `Distribution` trait.
pub mod distributions {
    use super::RngCore;

    /// A way to draw a `T` from a generator.
    pub trait Distribution<T> {
        /// Draw one value.
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// Uniform over the whole type for integers, `[0, 1)` for floats.
    #[derive(Clone, Copy, Debug)]
    pub struct Standard;

    macro_rules! standard_int {
        ($($t:ty => $via:ident),*) => {$(
            impl Distribution<$t> for Standard {
                fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> $t {
                    rng.$via() as $t
                }
            }
        )*};
    }
    standard_int!(u8 => next_u32, u16 => next_u32, u32 => next_u32, u64 => next_u64,
                  usize => next_u64, i32 => next_u32, i64 => next_u64, isize => next_u64);

    impl Distribution<bool> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> bool {
            rng.next_u32() >> 31 == 1
        }
    }

    impl Distribution<f32> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f32 {
            (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
        }
    }

    impl Distribution<f64> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
            (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

use distributions::{Distribution, Standard};

/// A type `gen_range` can draw uniformly.
pub trait SampleUniform: Sized {
    /// Uniform in `[lo, hi)`; panics on an empty range.
    fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
    /// Uniform in `[lo, hi]`; panics when `lo > hi`.
    fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
}

/// Uniform in `[0, span)` without modulo bias; `span == 0` means the full
/// 64-bit range.
fn below<R: RngCore + ?Sized>(span: u64, rng: &mut R) -> u64 {
    if span == 0 {
        return rng.next_u64();
    }
    let zone = u64::MAX - (u64::MAX % span + 1) % span;
    loop {
        let v = rng.next_u64();
        if v <= zone {
            return v % span;
        }
    }
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo < hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128) as u64;
                (lo as i128 + below(span, rng) as i128) as $t
            }
            fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo <= hi, "gen_range: empty range");
                // A span of 2^64 wraps to 0, which `below` reads as "all".
                let span = (hi as i128 - lo as i128 + 1) as u64;
                (lo as i128 + below(span, rng) as i128) as $t
            }
        }
    )*};
}
uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo < hi, "gen_range: empty range");
                let u: $t = Standard.sample(rng);
                let v = lo + (hi - lo) * u;
                // Rounding can land on `hi`; step back inside the range.
                if v < hi { v } else { lo }
            }
            fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo <= hi, "gen_range: empty range");
                let u: $t = Standard.sample(rng);
                lo + (hi - lo) * u
            }
        }
    )*};
}
uniform_float!(f32, f64);

/// A range `gen_range` accepts.
pub trait SampleRange<T> {
    /// Draw one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        T::sample_inclusive(lo, hi, rng)
    }
}

/// The user-facing generator methods, implemented for every `RngCore`.
pub trait Rng: RngCore {
    /// A value of `T` from the `Standard` distribution.
    fn gen<T>(&mut self) -> T
    where
        Standard: Distribution<T>,
    {
        Standard.sample(self)
    }

    /// A value uniform in `range`.
    fn gen_range<T: SampleUniform, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p out of range");
        let u: f64 = Standard.sample(self);
        u < p
    }

    /// A value from `dist`.
    fn sample<T, D: Distribution<T>>(&mut self, dist: D) -> T {
        dist.sample(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Named generators.
pub mod rngs {
    use super::{Error, RngCore, SeedableRng};

    /// The default deterministic generator (xoshiro256++ here).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut s = [0u64; 4];
            let mut acc = seed;
            for slot in &mut s {
                acc = acc.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = acc;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                *slot = z ^ (z >> 31);
            }
            if s == [0; 4] {
                s[0] = 1;
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
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

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let bytes = self.next_u64().to_le_bytes();
                chunk.copy_from_slice(&bytes[..chunk.len()]);
            }
        }

        fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
            self.fill_bytes(dest);
            Ok(())
        }
    }
}

/// Sequence helpers.
pub mod seq {
    use super::Rng;

    /// Random operations on slices.
    pub trait SliceRandom {
        /// The element type.
        type Item;
        /// Shuffle in place (Fisher–Yates).
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
        /// One element uniformly, `None` when empty.
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.gen_range(0..=i));
            }
        }

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

/// The usual glob import.
pub mod prelude {
    pub use super::rngs::StdRng;
    pub use super::seq::SliceRandom;
    pub use super::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn same_seed_same_stream_and_ranges_hold() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
            let x: f32 = a.gen_range(0.25..0.5);
            assert!((0.25..0.5).contains(&x));
            let k = a.gen_range(-3..=3);
            assert!((-3..=3).contains(&k));
            let u = a.gen_range(0..5usize);
            assert!(u < 5);
            b.gen_range(0.25..0.5f32);
            b.gen_range(-3..=3);
            b.gen_range(0..5usize);
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<usize> = (0..100).collect();
        v.shuffle(&mut StdRng::seed_from_u64(1));
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
    }
}
