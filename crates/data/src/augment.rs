//! Stochastic image augmentations producing the two "views" `x'`, `x''`
//! that feed the supervised contrastive loss (paper Figure 1B).
//!
//! The pipeline mirrors the standard SupCon recipe scaled to small images:
//! random shift-crop, horizontal flip (multi-channel datasets only, like
//! CIFAR practice), brightness jitter, additive Gaussian noise, and cutout.

use fca_tensor::rng::SnapRng;
use fca_tensor::Tensor;

/// Augmentation configuration.
#[derive(Clone, Copy, Debug)]
pub struct AugmentConfig {
    /// Maximum shift (pixels) of the random crop.
    pub max_shift: usize,
    /// Enable horizontal flips (disabled for character-like datasets).
    pub hflip: bool,
    /// Brightness jitter half-range (scale drawn from `1 ± range`).
    pub brightness: f32,
    /// Additive Gaussian noise std.
    pub noise_std: f32,
    /// Cutout square size (0 disables).
    pub cutout: usize,
}

impl AugmentConfig {
    /// Standard recipe for 28×28 grayscale images (no flips — characters
    /// and garments are orientation-sensitive).
    pub fn mnist_like() -> Self {
        AugmentConfig {
            max_shift: 2,
            hflip: false,
            brightness: 0.1,
            noise_std: 0.05,
            cutout: 5,
        }
    }

    /// Size-aware recipe: scales the geometric perturbations to the image
    /// extent so augmentation strength is proportionally the same at
    /// 14×14 as at 28×28 (a fixed 5-pixel cutout erases 13% of a 14×14
    /// image but only 3% of a 28×28 one).
    pub fn for_image(channels: usize, height: usize, width: usize) -> Self {
        let extent = height.min(width);
        AugmentConfig {
            max_shift: (extent / 10).max(1),
            hflip: channels >= 3,
            brightness: if channels >= 3 { 0.15 } else { 0.1 },
            noise_std: 0.05,
            cutout: (extent / 6).max(2),
        }
    }

    /// Identity pipeline (for ablation).
    pub fn identity() -> Self {
        AugmentConfig {
            max_shift: 0,
            hflip: false,
            brightness: 0.0,
            noise_std: 0.0,
            cutout: 0,
        }
    }

    /// Augment a whole NCHW batch, returning a new tensor.
    pub fn augment_batch(&self, batch: &Tensor, rng: &mut SnapRng) -> Tensor {
        let (n, c, h, w) = batch.shape().as_nchw();
        let mut out = batch.clone();
        for i in 0..n {
            self.augment_image(out.image_mut(i), c, h, w, rng);
        }
        out
    }

    /// Generate the two contrastive views of a batch.
    pub fn two_views(&self, batch: &Tensor, rng: &mut SnapRng) -> (Tensor, Tensor) {
        (
            self.augment_batch(batch, rng),
            self.augment_batch(batch, rng),
        )
    }

    fn augment_image(&self, img: &mut [f32], c: usize, h: usize, w: usize, rng: &mut SnapRng) {
        let plane = h * w;

        // Shift-crop: translate with zero padding.
        if self.max_shift > 0 {
            let s = self.max_shift as i64;
            let dx = rng.inclusive(-s, s) as isize;
            let dy = rng.inclusive(-s, s) as isize;
            if dx != 0 || dy != 0 {
                let src = img.to_vec();
                for ci in 0..c {
                    for y in 0..h {
                        let sy = y as isize + dy;
                        for x in 0..w {
                            let sx = x as isize + dx;
                            img[ci * plane + y * w + x] =
                                if sy >= 0 && sy < h as isize && sx >= 0 && sx < w as isize {
                                    src[ci * plane + sy as usize * w + sx as usize]
                                } else {
                                    0.0
                                };
                        }
                    }
                }
            }
        }

        // Horizontal flip.
        if self.hflip && rng.chance(0.5) {
            for ci in 0..c {
                for y in 0..h {
                    let row = &mut img[ci * plane + y * w..ci * plane + (y + 1) * w];
                    row.reverse();
                }
            }
        }

        // Brightness jitter.
        if self.brightness > 0.0 {
            let scale = 1.0 + rng.range_f32(-self.brightness, self.brightness);
            for v in img.iter_mut() {
                *v *= scale;
            }
        }

        // Additive noise.
        if self.noise_std > 0.0 {
            let mut noise = [0.0; 256];
            for part in img.chunks_mut(noise.len()) {
                let noise = &mut noise[..part.len()];
                rng.fill_normal(noise);
                for (v, n) in part.iter_mut().zip(noise) {
                    *v += *n * self.noise_std;
                }
            }
        }

        // Cutout: zero a random square across all channels.
        if self.cutout > 0 && self.cutout <= h.min(w) {
            let cy = rng.index(h);
            let cx = rng.index(w);
            let half = self.cutout / 2;
            let y0 = cy.saturating_sub(half);
            let y1 = (cy + half + self.cutout % 2).min(h);
            let x0 = cx.saturating_sub(half);
            let x1 = (cx + half + self.cutout % 2).min(w);
            for ci in 0..c {
                for y in y0..y1 {
                    img[ci * plane + y * w + x0..ci * plane + y * w + x1].fill(0.0);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fca_tensor::rng::seeded_rng;

    #[test]
    fn identity_config_is_identity() {
        let mut rng = seeded_rng(301);
        let batch = Tensor::randn([2, 1, 8, 8], 1.0, &mut rng);
        let out = AugmentConfig::identity().augment_batch(&batch, &mut rng);
        assert_eq!(batch, out);
    }

    #[test]
    fn two_views_differ_from_each_other() {
        let mut rng = seeded_rng(302);
        let batch = Tensor::randn([2, 1, 12, 12], 1.0, &mut rng);
        let (a, b) = AugmentConfig::mnist_like().two_views(&batch, &mut rng);
        assert_ne!(a, b);
        assert_ne!(a, batch);
    }

    #[test]
    fn shapes_preserved() {
        let mut rng = seeded_rng(303);
        let batch = Tensor::randn([3, 3, 16, 16], 1.0, &mut rng);
        let out = AugmentConfig::for_image(3, 16, 16).augment_batch(&batch, &mut rng);
        assert_eq!(out.dims(), batch.dims());
    }

    #[test]
    fn cutout_zeroes_a_region() {
        let mut rng = seeded_rng(304);
        let cfg = AugmentConfig {
            max_shift: 0,
            hflip: false,
            brightness: 0.0,
            noise_std: 0.0,
            cutout: 4,
        };
        let batch = Tensor::ones([1, 1, 10, 10]);
        let out = cfg.augment_batch(&batch, &mut rng);
        let zeros = out.data().iter().filter(|&&v| v == 0.0).count();
        assert!(zeros >= 4, "cutout left {zeros} zeros");
        assert!(zeros <= 16 + 8, "cutout too large: {zeros}");
    }

    #[test]
    fn augmentation_is_deterministic_per_rng_state() {
        let batch = {
            let mut r = seeded_rng(305);
            Tensor::randn([2, 1, 8, 8], 1.0, &mut r)
        };
        let a = {
            let mut r = seeded_rng(306);
            AugmentConfig::mnist_like().augment_batch(&batch, &mut r)
        };
        let b = {
            let mut r = seeded_rng(306);
            AugmentConfig::mnist_like().augment_batch(&batch, &mut r)
        };
        assert_eq!(a, b);
    }

    #[test]
    fn for_image_scales_with_extent() {
        let big = AugmentConfig::for_image(1, 28, 28);
        let small = AugmentConfig::for_image(1, 14, 14);
        assert!(big.cutout > small.cutout);
        assert!(big.max_shift >= small.max_shift);
        // Proportional erasure: cutout²/extent² stays in the same band.
        let frac = |c: AugmentConfig, e: f32| (c.cutout * c.cutout) as f32 / (e * e);
        let fb = frac(big, 28.0);
        let fs = frac(small, 14.0);
        assert!((fb - fs).abs() < 0.02, "erasure fractions {fb} vs {fs}");
        // RGB images flip, grayscale do not.
        assert!(AugmentConfig::for_image(3, 16, 16).hflip);
        assert!(!AugmentConfig::for_image(1, 16, 16).hflip);
    }

    #[test]
    fn brightness_only_scales() {
        let mut rng = seeded_rng(307);
        let cfg = AugmentConfig {
            max_shift: 0,
            hflip: false,
            brightness: 0.2,
            noise_std: 0.0,
            cutout: 0,
        };
        let batch = Tensor::ones([1, 1, 4, 4]);
        let out = cfg.augment_batch(&batch, &mut rng);
        let first = out.at(0);
        assert!(out.data().iter().all(|&v| (v - first).abs() < 1e-6));
        assert!((0.8..1.2).contains(&first));
    }
}
