//! Procedural class-conditional image generators — the stand-ins for
//! CIFAR-10, Fashion-MNIST, and EMNIST-Letters (see crate docs for the
//! substitution rationale).
//!
//! Each class owns a prototype texture: a sum of oriented gratings plus a
//! Gaussian blob, blended with a dataset-wide shared background (the blend
//! ratio `class_sep` controls task difficulty). Instances are cyclic-shifted
//! jittered, brightness-scaled, noisy renderings of their class prototype —
//! enough intra-class variation that feature extractors must generalize,
//! and enough class structure that they can.

use crate::dataset::Dataset;
use fca_tensor::rng::{derived_rng, SnapRng};
use fca_tensor::Tensor;

/// Configuration of a synthetic dataset.
#[derive(Clone, Debug)]
pub struct SynthConfig {
    /// Dataset name (used in reports).
    pub name: String,
    /// Image channels.
    pub channels: usize,
    /// Image height.
    pub height: usize,
    /// Image width.
    pub width: usize,
    /// Number of classes.
    pub num_classes: usize,
    /// Training examples to generate.
    pub train_size: usize,
    /// Test examples to generate.
    pub test_size: usize,
    /// Additive Gaussian pixel noise.
    pub noise_std: f32,
    /// Maximum cyclic shift (pixels) applied per instance.
    pub jitter: usize,
    /// Blend ratio of class-unique texture vs shared background in `(0, 1]`.
    /// Lower values make classes harder to separate.
    pub class_sep: f32,
    /// Master seed; all generation derives from it.
    pub seed: u64,
}

impl SynthConfig {
    /// CIFAR-10 stand-in: 3×32×32, 10 classes, hardest setting.
    pub fn synth_cifar(seed: u64) -> Self {
        SynthConfig {
            name: "SynthCIFAR-10".into(),
            channels: 3,
            height: 32,
            width: 32,
            num_classes: 10,
            train_size: 8000,
            test_size: 2000,
            noise_std: 0.7,
            jitter: 5,
            class_sep: 0.45,
            seed,
        }
    }

    /// Fashion-MNIST stand-in: 1×28×28, 10 classes, easiest setting.
    pub fn synth_fashion(seed: u64) -> Self {
        SynthConfig {
            name: "SynthFashion-MNIST".into(),
            channels: 1,
            height: 28,
            width: 28,
            num_classes: 10,
            train_size: 8000,
            test_size: 2000,
            noise_std: 0.45,
            jitter: 3,
            class_sep: 0.6,
            seed,
        }
    }

    /// EMNIST-Letters stand-in: 1×28×28, 26 classes.
    pub fn synth_emnist(seed: u64) -> Self {
        SynthConfig {
            name: "SynthEMNIST-Letters".into(),
            channels: 1,
            height: 28,
            width: 28,
            num_classes: 26,
            train_size: 10400,
            test_size: 2600,
            noise_std: 0.5,
            jitter: 4,
            class_sep: 0.55,
            seed,
        }
    }

    /// Downscaled sizes for tests and quick runs.
    pub fn with_sizes(mut self, train: usize, test: usize) -> Self {
        self.train_size = train;
        self.test_size = test;
        self
    }

    /// Generate the dataset (prototypes + train/test splits).
    pub fn generate(&self) -> SynthDataset {
        assert!(self.num_classes >= 2, "need at least two classes");
        assert!((0.0..=1.0).contains(&self.class_sep) && self.class_sep > 0.0);
        let plane = self.height * self.width;
        let img_sz = self.channels * plane;

        // Shared background texture (stream 0).
        let mut bg_rng = derived_rng(self.seed, 0);
        let background = self.render_texture(&mut bg_rng);

        // Per-class prototypes (streams 1..=K).
        let prototypes: Vec<Vec<f32>> = (0..self.num_classes)
            .map(|c| {
                let mut rng = derived_rng(self.seed, 1 + c as u64);
                let unique = self.render_texture(&mut rng);
                unique
                    .iter()
                    .zip(&background)
                    .map(|(u, b)| self.class_sep * u + (1.0 - self.class_sep) * b)
                    .collect()
            })
            .collect();

        let train = self.render_split(&prototypes, self.train_size, derived_rng(self.seed, 10_001));
        let test = self.render_split(&prototypes, self.test_size, derived_rng(self.seed, 10_002));

        SynthDataset {
            config: self.clone(),
            prototypes: prototypes
                .into_iter()
                .map(|p| Tensor::from_vec([self.channels, self.height, self.width], p))
                .collect(),
            train,
            test,
            _img_sz: img_sz,
        }
    }

    /// A random texture: 3 oriented gratings + a Gaussian blob, per channel
    /// with correlated but distinct phases.
    fn render_texture(&self, rng: &mut SnapRng) -> Vec<f32> {
        let (h, w, c) = (self.height, self.width, self.channels);
        let mut tex = vec![0.0f32; c * h * w];
        let scale = h.max(w) as f32;

        // Gratings shared across channels (channel phase offsets below).
        let gratings: Vec<(f32, f32, f32, f32)> = (0..3)
            .map(|_| {
                let amp = rng.range_f32(0.4, 1.0);
                let freq = rng.range_f32(1.5, 4.5);
                let theta = rng.range_f32(0.0, std::f32::consts::PI);
                let phase = rng.range_f32(0.0, 2.0 * std::f32::consts::PI);
                (amp, freq, theta, phase)
            })
            .collect();
        let blob_x = rng.range_f32(0.2, 0.8) * w as f32;
        let blob_y = rng.range_f32(0.2, 0.8) * h as f32;
        let blob_sigma = rng.range_f32(0.12, 0.28) * scale;
        let blob_amp: f32 = if rng.chance(0.5) { 1.0 } else { -1.0 };
        let chan_phase: Vec<f32> = (0..c).map(|_| rng.range_f32(0.0, 0.8)).collect();

        for ci in 0..c {
            for y in 0..h {
                for x in 0..w {
                    let mut v = 0.0f32;
                    for &(amp, freq, theta, phase) in &gratings {
                        let proj = theta.cos() * x as f32 + theta.sin() * y as f32;
                        v += amp
                            * (2.0 * std::f32::consts::PI * freq * proj / scale
                                + phase
                                + chan_phase[ci])
                                .cos();
                    }
                    let dx = x as f32 - blob_x;
                    let dy = y as f32 - blob_y;
                    v += blob_amp * (-(dx * dx + dy * dy) / (2.0 * blob_sigma * blob_sigma)).exp();
                    tex[ci * h * w + y * w + x] = v * 0.5;
                }
            }
        }
        tex
    }

    fn render_split(&self, prototypes: &[Vec<f32>], count: usize, mut rng: SnapRng) -> Dataset {
        let (h, w, c) = (self.height, self.width, self.channels);
        let img_sz = c * h * w;
        let mut data = Vec::with_capacity(count * img_sz);
        let mut labels = Vec::with_capacity(count);
        for i in 0..count {
            // Round-robin labels keep the oracle dataset balanced, matching
            // the benchmark datasets the paper uses.
            let label = i % self.num_classes;
            labels.push(label);
            self.render_instance(&prototypes[label], &mut rng, &mut data);
        }
        // Shuffle example order (labels were round-robin): example `j`
        // becomes the rendered example `order[j]`.
        let mut order: Vec<usize> = (0..count).collect();
        rng.shuffle(&mut order);
        let labels = order.iter().map(|&i| labels[i]).collect();
        permute_images(&mut data, img_sz, &mut order);
        Dataset::new(
            Tensor::from_vec([count, c, h, w], data),
            labels,
            self.num_classes,
        )
    }

    /// Render one instance of `proto` into `out` (appended).
    fn render_instance(&self, proto: &[f32], rng: &mut SnapRng, out: &mut Vec<f32>) {
        let (h, w, c) = (self.height, self.width, self.channels);
        let j = self.jitter as i64;
        // No jitter, no draw.
        let mut shift = || if j > 0 { rng.inclusive(-j, j) } else { 0 } as isize;
        let (dx, dy) = (shift(), shift());
        let brightness = rng.range_f32(0.85, 1.15);
        // The image's noise is drawn into its slots first, then each pixel
        // adds the shifted, brightened prototype under it.
        let start = out.len();
        out.resize(start + c * h * w, 0.0);
        let img = &mut out[start..];
        rng.fill_normal(img);
        // Pixel `x` of a row reads the prototype at `(x + dx) mod w`: the
        // row's first `w − off` pixels from `off` on, the rest from 0.
        let off = dx.rem_euclid(w as isize) as usize;
        for (plane, out) in proto.chunks_exact(h * w).zip(img.chunks_exact_mut(h * w)) {
            for (y, row) in out.chunks_exact_mut(w).enumerate() {
                let sy = (y as isize + dy).rem_euclid(h as isize) as usize;
                let src = &plane[sy * w..(sy + 1) * w];
                let (head, tail) = row.split_at_mut(w - off);
                for (out, src) in [(head, &src[off..]), (tail, &src[..off])] {
                    for (v, &p) in out.iter_mut().zip(src) {
                        *v = p * brightness + *v * self.noise_std;
                    }
                }
            }
        }
    }
}

/// Reorder `data`'s images of `img_sz` floats in place so that image `j`
/// becomes the old image `order[j]`, one cycle of `order` at a time with one
/// image held aside; `order` is left as the identity.
fn permute_images(data: &mut [f32], img_sz: usize, order: &mut [usize]) {
    let mut held = vec![0.0f32; img_sz];
    for start in 0..order.len() {
        if order[start] == start {
            continue;
        }
        held.copy_from_slice(&data[start * img_sz..(start + 1) * img_sz]);
        let mut j = start;
        while order[j] != start {
            let from = order[j];
            data.copy_within(from * img_sz..(from + 1) * img_sz, j * img_sz);
            order[j] = j;
            j = from;
        }
        data[j * img_sz..(j + 1) * img_sz].copy_from_slice(&held);
        order[j] = j;
    }
}

/// A generated synthetic dataset: train/test splits plus the class
/// prototypes (useful for analysis and tests).
pub struct SynthDataset {
    /// The generating configuration.
    pub config: SynthConfig,
    /// Per-class prototype images.
    pub prototypes: Vec<Tensor>,
    /// Training split.
    pub train: Dataset,
    /// Test split.
    pub test: Dataset,
    _img_sz: usize,
}

impl SynthDataset {
    /// Nearest-prototype classification accuracy on the test split — a
    /// learnability diagnostic (well above chance, well below perfect).
    pub fn prototype_classifier_accuracy(&self) -> f32 {
        let mut correct = 0usize;
        for i in 0..self.test.len() {
            let img = self.test.images.image(i);
            let mut best = f32::INFINITY;
            let mut best_c = 0;
            for (ci, proto) in self.prototypes.iter().enumerate() {
                let d: f32 = img
                    .iter()
                    .zip(proto.data())
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                if d < best {
                    best = d;
                    best_c = ci;
                }
            }
            if best_c == self.test.labels[i] {
                correct += 1;
            }
        }
        correct as f32 / self.test.len().max(1) as f32
    }
}

/// Deterministic tiny dataset for unit tests across the workspace.
pub fn tiny_dataset(num_classes: usize, train: usize, test: usize, seed: u64) -> SynthDataset {
    let mut cfg = SynthConfig::synth_fashion(seed).with_sizes(train, test);
    cfg.num_classes = num_classes;
    cfg.height = 12;
    cfg.width = 12;
    cfg.jitter = 1;
    cfg.generate()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = SynthConfig::synth_fashion(7).with_sizes(40, 20).generate();
        let b = SynthConfig::synth_fashion(7).with_sizes(40, 20).generate();
        assert_eq!(a.train.images, b.train.images);
        assert_eq!(a.train.labels, b.train.labels);
        assert_eq!(a.test.images, b.test.images);
    }

    #[test]
    fn different_seeds_differ() {
        let a = SynthConfig::synth_fashion(1).with_sizes(10, 5).generate();
        let b = SynthConfig::synth_fashion(2).with_sizes(10, 5).generate();
        assert_ne!(a.train.images, b.train.images);
    }

    #[test]
    fn shapes_match_config() {
        let d = SynthConfig::synth_cifar(3).with_sizes(12, 6).generate();
        assert_eq!(d.train.images.dims(), &[12, 3, 32, 32]);
        assert_eq!(d.test.images.dims(), &[6, 3, 32, 32]);
        assert_eq!(d.prototypes.len(), 10);
        assert_eq!(d.prototypes[0].dims(), &[3, 32, 32]);
    }

    #[test]
    fn splits_are_roughly_balanced() {
        let d = SynthConfig::synth_fashion(5)
            .with_sizes(200, 100)
            .generate();
        let h = d.train.class_histogram();
        assert!(h.iter().all(|&c| c == 20), "histogram {h:?}");
    }

    #[test]
    fn classes_are_learnable_but_not_trivial() {
        let d = SynthConfig::synth_fashion(11)
            .with_sizes(200, 400)
            .generate();
        let acc = d.prototype_classifier_accuracy();
        assert!(
            acc > 0.5,
            "prototype accuracy {acc} — classes not separable"
        );
        // Noise and jitter should keep the task non-trivial.
        assert!(acc < 0.999, "prototype accuracy {acc} — task degenerate");
    }

    #[test]
    fn cifar_preset_is_harder_than_fashion() {
        let f = SynthConfig::synth_fashion(13)
            .with_sizes(100, 300)
            .generate();
        let c = SynthConfig::synth_cifar(13).with_sizes(100, 300).generate();
        assert!(
            c.prototype_classifier_accuracy() < f.prototype_classifier_accuracy() + 0.05,
            "cifar should not be much easier than fashion"
        );
    }

    #[test]
    fn emnist_has_26_classes() {
        let d = SynthConfig::synth_emnist(17).with_sizes(52, 26).generate();
        assert_eq!(d.train.num_classes, 26);
        let mut seen: Vec<usize> = d.train.labels.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 26);
    }

    #[test]
    fn tiny_dataset_helper_works() {
        let d = tiny_dataset(4, 40, 16, 99);
        assert_eq!(d.train.num_classes, 4);
        assert_eq!(d.train.len(), 40);
        assert_eq!(d.test.len(), 16);
        assert_eq!(d.train.image_shape(), (1, 12, 12));
    }
}
