//! `par_chunks` / `par_chunks_mut` on slices.

use crate::iter::ParallelIterator;

/// Parallel views of a shared slice.
pub trait ParallelSlice<T: Sync> {
    /// The slice itself.
    fn as_parallel_slice(&self) -> &[T];

    /// Non-overlapping chunks of `chunk_size` items (the last may be short).
    fn par_chunks(&self, chunk_size: usize) -> Chunks<'_, T> {
        assert!(chunk_size != 0, "chunk_size must not be zero");
        Chunks {
            size: chunk_size,
            slice: self.as_parallel_slice(),
        }
    }
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn as_parallel_slice(&self) -> &[T] {
        self
    }
}

/// Parallel views of an exclusive slice.
pub trait ParallelSliceMut<T: Send> {
    /// The slice itself.
    fn as_parallel_slice_mut(&mut self) -> &mut [T];

    /// Non-overlapping mutable chunks of `chunk_size` items (the last may be
    /// short).
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMut<'_, T> {
        assert!(chunk_size != 0, "chunk_size must not be zero");
        ChunksMut {
            size: chunk_size,
            slice: self.as_parallel_slice_mut(),
        }
    }
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn as_parallel_slice_mut(&mut self) -> &mut [T] {
        self
    }
}

/// See [`ParallelSlice::par_chunks`].
pub struct Chunks<'data, T> {
    size: usize,
    slice: &'data [T],
}

impl<'data, T: Sync> ParallelIterator for Chunks<'data, T> {
    type Item = &'data [T];
    type Seq = std::slice::Chunks<'data, T>;
    fn length(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }
    fn cut(self, mid: usize) -> (Self, Self) {
        let at = (mid * self.size).min(self.slice.len());
        let (a, b) = self.slice.split_at(at);
        (
            Chunks {
                size: self.size,
                slice: a,
            },
            Chunks {
                size: self.size,
                slice: b,
            },
        )
    }
    fn into_seq(self) -> Self::Seq {
        self.slice.chunks(self.size)
    }
}

/// See [`ParallelSliceMut::par_chunks_mut`].
pub struct ChunksMut<'data, T> {
    size: usize,
    slice: &'data mut [T],
}

impl<'data, T: Send> ParallelIterator for ChunksMut<'data, T> {
    type Item = &'data mut [T];
    type Seq = std::slice::ChunksMut<'data, T>;
    fn length(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }
    fn cut(self, mid: usize) -> (Self, Self) {
        let at = (mid * self.size).min(self.slice.len());
        let (a, b) = self.slice.split_at_mut(at);
        (
            ChunksMut {
                size: self.size,
                slice: a,
            },
            ChunksMut {
                size: self.size,
                slice: b,
            },
        )
    }
    fn into_seq(self) -> Self::Seq {
        self.slice.chunks_mut(self.size)
    }
}
