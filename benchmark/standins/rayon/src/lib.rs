//! Offline stand-in for `rayon` 1.x: a real fixed-size thread pool with
//! `join`, `scope` and indexed parallel iterators over slices, vectors and
//! integer ranges.
//!
//! How it differs from the published crate, for whoever compares numbers:
//!
//! * A pool of `n` threads is `n - 1` workers plus the calling thread, which
//!   runs jobs while it waits. With one thread nothing is ever queued and
//!   every parallel call runs inline on the caller.
//! * Work is split statically into at most `4 * n` contiguous pieces by
//!   index, so `sum`/`reduce` combine partial results in a fixed order for a
//!   given length and pool size.
//! * One shared queue under a mutex, not per-worker deques.

mod pool;

pub mod iter;
pub mod slice;

pub use pool::{
    current_num_threads, join, scope, Scope, ThreadPool, ThreadPoolBuildError, ThreadPoolBuilder,
};

/// The usual glob import.
pub mod prelude {
    pub use crate::iter::{
        FromParallelIterator, IndexedParallelIterator, IntoParallelIterator,
        IntoParallelRefIterator, IntoParallelRefMutIterator, ParallelIterator,
    };
    pub use crate::slice::{ParallelSlice, ParallelSliceMut};
}
