//! The dense `f32` tensor type.

use crate::rng::SnapRng;
use crate::shape::Shape;
use std::fmt;

/// A dense, contiguous, row-major `f32` tensor.
///
/// `Tensor` owns its buffer; views are expressed as slices over the flat
/// data (see [`Tensor::row`], [`Tensor::rows`]) rather than strided views,
/// which keeps every kernel operating on contiguous memory.
///
/// ```
/// use fca_tensor::Tensor;
///
/// let a = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0]);
/// let b = a.map(|x| x * 10.0);
/// assert_eq!(b.row(1), &[30.0, 40.0]);
/// assert_eq!(a.add(&b).sum(), 110.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    // ---------------------------------------------------------------- ctor

    /// Tensor filled with zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Tensor filled with ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 1.0)
    }

    /// Tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// Tensor from an existing buffer. Panics if the length mismatches.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Self {
        let shape = shape.into();
        assert_eq!(
            shape.numel(),
            data.len(),
            "buffer length {} does not match shape {shape}",
            data.len()
        );
        Tensor { shape, data }
    }

    /// Standard-normal initialized tensor scaled by `std`.
    pub fn randn(shape: impl Into<Shape>, std: f32, rng: &mut SnapRng) -> Self {
        let shape = shape.into();
        // malloc, as before the fills: `vec![0.0; n]` allocates through
        // calloc, and traced training runs with it took more page faults
        // and ran their convolutions ≈ 10 % slower.
        let mut data = Vec::with_capacity(shape.numel());
        data.resize(shape.numel(), 0.0);
        rng.fill_normal_pairs_scaled(&mut data, std);
        Tensor { shape, data }
    }

    // ------------------------------------------------------------ accessors

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension extents.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total element count.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Flat data slice.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat data slice.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a flat index.
    pub fn at(&self, i: usize) -> f32 {
        self.data[i]
    }

    /// Matrix element accessor (rank-2 tensors).
    pub fn get2(&self, r: usize, c: usize) -> f32 {
        let (_, cols) = self.shape.as_matrix();
        self.data[r * cols + c]
    }

    /// Mutable matrix element accessor (rank-2 tensors).
    pub fn set2(&mut self, r: usize, c: usize, v: f32) {
        let (_, cols) = self.shape.as_matrix();
        self.data[r * cols + c] = v;
    }

    /// Row `r` of a rank-2 tensor as a contiguous slice.
    pub fn row(&self, r: usize) -> &[f32] {
        let (rows, cols) = self.shape.as_matrix();
        assert!(r < rows, "row {r} out of bounds for {rows} rows");
        &self.data[r * cols..(r + 1) * cols]
    }

    /// Mutable row `r` of a rank-2 tensor.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let (rows, cols) = self.shape.as_matrix();
        assert!(r < rows, "row {r} out of bounds for {rows} rows");
        &mut self.data[r * cols..(r + 1) * cols]
    }

    /// Rows `lo..hi` of a rank-2 tensor as a new tensor.
    pub fn rows(&self, lo: usize, hi: usize) -> Tensor {
        let (rows, cols) = self.shape.as_matrix();
        assert!(lo <= hi && hi <= rows, "row range {lo}..{hi} out of bounds");
        Tensor::from_vec([hi - lo, cols], self.data[lo * cols..hi * cols].to_vec())
    }

    /// Image `n` of a rank-4 NCHW tensor as a contiguous slice.
    pub fn image(&self, n: usize) -> &[f32] {
        let (batch, c, h, w) = self.shape.as_nchw();
        assert!(n < batch, "image {n} out of bounds for batch {batch}");
        let sz = c * h * w;
        &self.data[n * sz..(n + 1) * sz]
    }

    /// Mutable image `n` of a rank-4 NCHW tensor.
    pub fn image_mut(&mut self, n: usize) -> &mut [f32] {
        let (batch, c, h, w) = self.shape.as_nchw();
        assert!(n < batch, "image {n} out of bounds for batch {batch}");
        let sz = c * h * w;
        &mut self.data[n * sz..(n + 1) * sz]
    }

    // ------------------------------------------------------------ reshaping

    /// Reinterpret the buffer with a new shape of equal element count.
    pub fn reshape(mut self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            shape.numel(),
            self.data.len(),
            "cannot reshape {} elements into {shape}",
            self.data.len()
        );
        self.shape = shape;
        self
    }

    /// Borrowing variant of [`Tensor::reshape`].
    pub fn reshaped(&self, shape: impl Into<Shape>) -> Tensor {
        self.clone().reshape(shape)
    }

    /// Transpose of a rank-2 tensor (materialized).
    pub fn transpose(&self) -> Tensor {
        let (rows, cols) = self.shape.as_matrix();
        let mut out = vec![0.0f32; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                out[c * rows + r] = self.data[r * cols + c];
            }
        }
        Tensor::from_vec([cols, rows], out)
    }

    /// Concatenate rank-2 tensors along dim 0 (stack rows).
    pub fn concat_rows(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_rows of zero tensors");
        let cols = parts[0].shape.as_matrix().1;
        let mut rows = 0;
        let mut data = Vec::new();
        for p in parts {
            let (r, c) = p.shape.as_matrix();
            assert_eq!(c, cols, "column mismatch in concat_rows");
            rows += r;
            data.extend_from_slice(&p.data);
        }
        Tensor::from_vec([rows, cols], data)
    }

    /// Concatenate rank-4 tensors along the channel dimension.
    pub fn concat_channels(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_channels of zero tensors");
        let (n0, _, h0, w0) = parts[0].shape.as_nchw();
        let total_c: usize = parts
            .iter()
            .map(|p| {
                let (n, c, h, w) = p.shape.as_nchw();
                assert_eq!(
                    (n, h, w),
                    (n0, h0, w0),
                    "batch/spatial mismatch in concat_channels"
                );
                c
            })
            .sum();
        let mut out = Tensor::zeros([n0, total_c, h0, w0]);
        let plane = h0 * w0;
        for n in 0..n0 {
            let mut c_off = 0;
            for p in parts {
                let (_, c, _, _) = p.shape.as_nchw();
                let src = &p.data[n * c * plane..(n + 1) * c * plane];
                let dst_base = n * total_c * plane + c_off * plane;
                out.data[dst_base..dst_base + c * plane].copy_from_slice(src);
                c_off += c;
            }
        }
        out
    }

    // ----------------------------------------------------------- arithmetic

    /// Elementwise sum into a new tensor.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise difference into a new tensor.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a - b)
    }

    /// In-place elementwise add.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "shape mismatch in add_assign");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place `self += alpha * other` (axpy).
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "shape mismatch in axpy");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Scale every element in place.
    pub fn scale(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Scaled copy.
    pub fn scaled(&self, alpha: f32) -> Tensor {
        let mut t = self.clone();
        t.scale(alpha);
        t
    }

    /// Apply `f` elementwise into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape, other.shape,
            "shape mismatch: {} vs {}",
            self.shape, other.shape
        );
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Reset all elements to zero, keeping the allocation.
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }

    // ----------------------------------------------------------- reductions

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Squared L2 norm.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// L2 norm.
    pub fn norm(&self) -> f32 {
        self.sq_norm().sqrt()
    }

    /// Largest absolute element (0 for empty tensors).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Per-row argmax of a rank-2 tensor.
    pub fn argmax_rows(&self) -> Vec<usize> {
        let (rows, _) = self.shape.as_matrix();
        (0..rows)
            .map(|r| {
                let row = self.row(r);
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={}, ", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, "data={:?})", self.data)
        } else {
            write!(
                f,
                "data=[{:.4}, {:.4}, … ; n={}])",
                self.data[0],
                self.data[1],
                self.data.len()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    #[test]
    fn zeros_and_full() {
        let z = Tensor::zeros([2, 3]);
        assert_eq!(z.numel(), 6);
        assert!(z.data().iter().all(|&x| x == 0.0));
        let f = Tensor::full([2, 2], 3.5);
        assert!(f.data().iter().all(|&x| x == 3.5));
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_length_check() {
        Tensor::from_vec([2, 3], vec![1.0; 5]);
    }

    #[test]
    fn randn_moments() {
        let mut rng = seeded_rng(7);
        let t = Tensor::randn([100, 100], 1.0, &mut rng);
        assert!(t.mean().abs() < 0.05, "mean {} too far from 0", t.mean());
        let var = t.data().iter().map(|x| x * x).sum::<f32>() / t.numel() as f32;
        assert!((var - 1.0).abs() < 0.05, "variance {var} too far from 1");
    }

    #[test]
    fn transpose_roundtrip() {
        let mut rng = seeded_rng(1);
        let t = Tensor::randn([3, 5], 1.0, &mut rng);
        let tt = t.transpose().transpose();
        assert_eq!(t, tt);
    }

    #[test]
    fn rows_slicing() {
        let t = Tensor::from_vec([3, 2], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(t.row(1), &[3., 4.]);
        let mid = t.rows(1, 3);
        assert_eq!(mid.dims(), &[2, 2]);
        assert_eq!(mid.data(), &[3., 4., 5., 6.]);
    }

    #[test]
    fn concat_rows_stacks() {
        let a = Tensor::from_vec([1, 2], vec![1., 2.]);
        let b = Tensor::from_vec([2, 2], vec![3., 4., 5., 6.]);
        let c = Tensor::concat_rows(&[&a, &b]);
        assert_eq!(c.dims(), &[3, 2]);
        assert_eq!(c.data(), &[1., 2., 3., 4., 5., 6.]);
    }

    #[test]
    fn concat_channels_stacks_each_image() {
        let mut rng = seeded_rng(3);
        let a = Tensor::randn([2, 3, 4, 4], 1.0, &mut rng);
        let b = Tensor::randn([2, 2, 4, 4], 1.0, &mut rng);
        let cat = Tensor::concat_channels(&[&a, &b]);
        assert_eq!(cat.dims(), &[2, 5, 4, 4]);
        for n in 0..2 {
            assert_eq!(cat.image(n), [a.image(n), b.image(n)].concat());
        }
    }

    #[test]
    fn arithmetic_ops() {
        let a = Tensor::from_vec([2, 2], vec![1., 2., 3., 4.]);
        let b = Tensor::from_vec([2, 2], vec![4., 3., 2., 1.]);
        assert_eq!(a.add(&b).data(), &[5., 5., 5., 5.]);
        assert_eq!(a.sub(&b).data(), &[-3., -1., 1., 3.]);
        let mut c = a.clone();
        c.axpy(2.0, &b);
        assert_eq!(c.data(), &[9., 8., 7., 6.]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec([2, 2], vec![1., -2., 3., -4.]);
        assert_eq!(t.sum(), -2.0);
        assert_eq!(t.mean(), -0.5);
        assert_eq!(t.max_abs(), 4.0);
        assert_eq!(t.sq_norm(), 30.0);
        assert!(!t.has_non_finite());
        let bad = Tensor::from_vec([1, 1], vec![f32::NAN]);
        assert!(bad.has_non_finite());
    }

    #[test]
    fn argmax_rows_picks_columns() {
        let t = Tensor::from_vec([2, 3], vec![0.1, 0.9, 0.0, 0.5, 0.2, 0.7]);
        assert_eq!(t.argmax_rows(), vec![1, 2]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let r = t.reshaped([3, 2]);
        assert_eq!(r.dims(), &[3, 2]);
        assert_eq!(r.data(), &[1., 2., 3., 4., 5., 6.]);
    }

    #[test]
    fn image_access() {
        let t = Tensor::from_vec([2, 1, 2, 2], vec![1., 2., 3., 4., 5., 6., 7., 8.]);
        assert_eq!(t.image(1), &[5., 6., 7., 8.]);
    }
}
