//! A counting global allocator: live bytes and their high-water mark.
//!
//! `peak_heap_mb` comes from here rather than from the process's resident
//! set, which moved 4 % between identical runs; a count of requested bytes
//! repeats exactly when the program allocates the same things.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Forwards to the system allocator and keeps two counters.
pub struct Counting;

// Relaxed throughout: the counters are statistics and publish no data.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's own arguments,
// so `System`'s guarantees carry over; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Bytes allocated and not yet freed.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// High-water mark of [`live_bytes`] since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Restart the high-water mark from the current live bytes.
pub fn reset_peak() {
    PEAK.store(live_bytes(), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The test binary installs `Counting` too (see `main.rs`). Other test
    /// threads allocate concurrently, so the assertions are one-sided.
    #[test]
    fn peak_follows_a_large_allocation_and_resets() {
        const BIG: usize = 64 << 20;
        reset_peak();
        let before = peak_bytes();
        let block = vec![1u8; BIG];
        assert!(live_bytes() >= BIG, "live bytes missed the block");
        assert!(peak_bytes() >= before.max(BIG), "peak missed the block");
        let grown = {
            let mut v = block;
            v.reserve_exact(BIG);
            v
        };
        assert!(peak_bytes() >= 2 * BIG, "peak missed the realloc");
        drop(grown);
        reset_peak();
        assert!(
            peak_bytes() < BIG,
            "peak did not restart from live bytes after the block was freed"
        );
    }
}
