//! In-memory labeled image datasets and batching.

use fca_tensor::rng::SnapRng;
use fca_tensor::Tensor;

/// A labeled image dataset held as one NCHW tensor plus a label vector.
#[derive(Clone)]
pub struct Dataset {
    /// Images, `(N, C, H, W)`.
    pub images: Tensor,
    /// One label per image.
    pub labels: Vec<usize>,
    /// Number of distinct classes in the task (not necessarily all present).
    pub num_classes: usize,
}

impl Dataset {
    /// Build a dataset; validates lengths and label range.
    pub fn new(images: Tensor, labels: Vec<usize>, num_classes: usize) -> Self {
        let (n, _, _, _) = images.shape().as_nchw();
        assert_eq!(n, labels.len(), "image/label count mismatch");
        assert!(
            labels.iter().all(|&l| l < num_classes),
            "label out of range for {num_classes} classes"
        );
        Dataset {
            images,
            labels,
            num_classes,
        }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True if the dataset has no examples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Image shape `(c, h, w)`.
    pub fn image_shape(&self) -> (usize, usize, usize) {
        let (_, c, h, w) = self.images.shape().as_nchw();
        (c, h, w)
    }

    /// Materialize the subset selected by `indices` (order preserved,
    /// duplicates allowed).
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let (_, c, h, w) = self.images.shape().as_nchw();
        let img_sz = c * h * w;
        let mut data = Vec::with_capacity(indices.len() * img_sz);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            data.extend_from_slice(self.images.image(i));
            labels.push(self.labels[i]);
        }
        Dataset::new(
            Tensor::from_vec([indices.len(), c, h, w], data),
            labels,
            self.num_classes,
        )
    }

    /// Batch `indices` into an NCHW tensor + labels (no copy avoidance —
    /// batches are consumed immediately by training).
    pub fn gather_batch(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        let sub = self.subset(indices);
        (sub.images, sub.labels)
    }

    /// Gather `indices` into caller-owned buffers, reusing their capacity.
    /// `images` ends up holding the batch in NCHW layout
    /// (`indices.len() × c·h·w` floats); `labels` the matching labels.
    pub fn gather_batch_into(
        &self,
        indices: &[usize],
        images: &mut Vec<f32>,
        labels: &mut Vec<usize>,
    ) {
        images.clear();
        labels.clear();
        for &i in indices {
            images.extend_from_slice(self.images.image(i));
            labels.push(self.labels[i]);
        }
    }

    /// Shuffled mini-batch index lists covering the whole dataset once.
    pub fn batch_indices(&self, batch_size: usize, rng: &mut SnapRng) -> Vec<Vec<usize>> {
        assert!(batch_size >= 1);
        let mut order: Vec<usize> = (0..self.len()).collect();
        rng.shuffle(&mut order);
        order.chunks(batch_size).map(|c| c.to_vec()).collect()
    }

    /// Per-class example counts.
    pub fn class_histogram(&self) -> Vec<usize> {
        let mut h = vec![0usize; self.num_classes];
        for &l in &self.labels {
            h[l] += 1;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fca_tensor::rng::seeded_rng;

    fn toy() -> Dataset {
        let images = Tensor::from_vec([4, 1, 2, 2], (0..16).map(|v| v as f32).collect());
        Dataset::new(images, vec![0, 1, 0, 1], 2)
    }

    #[test]
    fn subset_selects_images_and_labels() {
        let d = toy();
        let s = d.subset(&[2, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.labels, vec![0, 0]);
        assert_eq!(s.images.image(0), d.images.image(2));
        assert_eq!(s.images.image(1), d.images.image(0));
    }

    #[test]
    fn batch_indices_cover_everything_once() {
        let d = toy();
        let mut rng = seeded_rng(211);
        let batches = d.batch_indices(3, &mut rng);
        let mut all: Vec<usize> = batches.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
    }

    #[test]
    fn gather_batch_into_matches_gather_batch() {
        let d = toy();
        let (imgs, labs) = d.gather_batch(&[3, 1]);
        let mut buf = Vec::new();
        let mut lbuf = Vec::new();
        d.gather_batch_into(&[3, 1], &mut buf, &mut lbuf);
        assert_eq!(buf, imgs.data());
        assert_eq!(lbuf, labs);
        // Reuse keeps capacity: a smaller gather must not shrink it.
        let cap = buf.capacity();
        d.gather_batch_into(&[0], &mut buf, &mut lbuf);
        assert_eq!(buf.capacity(), cap);
        assert_eq!(lbuf, vec![0]);
    }

    #[test]
    fn class_histogram_counts() {
        let d = toy();
        assert_eq!(d.class_histogram(), vec![2, 2]);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_out_of_range_labels() {
        let images = Tensor::zeros([1, 1, 2, 2]);
        Dataset::new(images, vec![5], 2);
    }

    #[test]
    #[should_panic(expected = "count mismatch")]
    fn rejects_length_mismatch() {
        let images = Tensor::zeros([2, 1, 2, 2]);
        Dataset::new(images, vec![0], 2);
    }
}
