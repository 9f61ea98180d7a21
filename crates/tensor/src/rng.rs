//! Deterministic randomness plumbing.
//!
//! Every stochastic component in the reproduction (weight init, data
//! synthesis, partitioning, augmentation, client sampling) receives a
//! generator derived from a single experiment seed, so runs are
//! bit-reproducible and clients can be trained in parallel without sharing
//! RNG state.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// A seeded deterministic generator.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
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
pub fn derived_rng(base: u64, tag: u64) -> StdRng {
    seeded_rng(derive_seed(base, tag))
}

/// A deterministic generator whose position is a value: the 256-bit state
/// can be read out with [`SnapRng::state`] and later re-entered with
/// [`SnapRng::try_from_state`], resuming the stream mid-flight bit-for-bit.
///
/// The paging layer needs this: a dehydrated client's RNG position travels
/// in its snapshot blob, so a page-out → page-in cycle draws exactly the
/// numbers a never-paged client would have drawn. (`StdRng` deliberately
/// hides its state, so every client-held generator uses `SnapRng`
/// instead.) The core is xoshiro256++ with SplitMix64 seeding.
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
}

impl rand::RngCore for SnapRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        // xoshiro256++ step.
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

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, RngCore};

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u32> = {
            let mut r = seeded_rng(42);
            (0..8).map(|_| r.gen()).collect()
        };
        let b: Vec<u32> = {
            let mut r = seeded_rng(42);
            (0..8).map(|_| r.gen()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn derived_streams_differ() {
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
        let mut r0 = derived_rng(9, 0);
        let mut r1 = derived_rng(9, 1);
        let x0: u64 = r0.gen();
        let x1: u64 = r1.gen();
        assert_ne!(x0, x1);
    }

    #[test]
    fn derive_is_pure() {
        assert_eq!(derive_seed(123, 456), derive_seed(123, 456));
    }

    #[test]
    fn snap_rng_is_deterministic_per_seed() {
        let draw = |seed| -> Vec<u64> {
            let mut r = SnapRng::seed_from(seed);
            (0..16).map(|_| r.gen()).collect()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn snap_rng_state_roundtrip_resumes_mid_stream() {
        let mut a = SnapRng::seed_from(99);
        for _ in 0..37 {
            let _: u64 = a.gen();
        }
        let mut b = SnapRng::try_from_state(a.state()).expect("a live position");
        let xs: Vec<u64> = (0..32).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.gen()).collect();
        assert_eq!(xs, ys, "resumed stream diverged from the original");
        assert_eq!(SnapRng::try_from_state([0; 4]), None);
    }

    #[test]
    fn snap_rng_floats_cover_unit_interval() {
        let mut r = SnapRng::seed_from(3);
        let xs: Vec<f32> = (0..1000).map(|_| r.gen::<f32>()).collect();
        assert!(xs.iter().all(|x| (0.0..1.0).contains(x)));
        let mean = xs.iter().sum::<f32>() / xs.len() as f32;
        assert!((mean - 0.5).abs() < 0.05, "suspicious mean {mean}");
    }

    #[test]
    fn snap_rng_fill_bytes_matches_u64_stream() {
        let mut a = SnapRng::seed_from(11);
        let mut b = SnapRng::seed_from(11);
        let mut buf = [0u8; 11];
        a.fill_bytes(&mut buf);
        let w0 = b.next_u64().to_le_bytes();
        let w1 = b.next_u64().to_le_bytes();
        assert_eq!(&buf[..8], &w0);
        assert_eq!(&buf[8..], &w1[..3]);
    }
}
