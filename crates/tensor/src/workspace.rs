//! Reusable scratch-buffer arena threaded through forward/backward passes.
//!
//! Training touches the same layer stack thousands of times per client
//! (`clients × rounds × epochs × batches`), so per-call `Vec`/`Tensor`
//! allocations dominate the allocator. A [`Workspace`] amortizes them:
//!
//! * **Keyed slots** — persistent per-layer scratch (e.g. a convolution's
//!   padded input planes) addressed by a [`SlotId`] minted once per layer
//!   instance. A slot survives between `take_slot`/`put_slot` pairs, so a
//!   forward pass can cache data in it and the matching backward pass can
//!   take it back without recomputing or cloning.
//! * **Recycle pool** — anonymous buffers for layer outputs and transient
//!   scratch. `alloc`/`tensor`/`tensor_zeroed` hand out the best-fitting
//!   recycled buffer (grow-only: capacity is kept), and `recycle` returns a
//!   no-longer-needed tensor's storage to the pool.
//! * **Retired slots** — a shared workspace outlives the layer stack that
//!   keyed its slots (a paged client is rebuilt with fresh [`SlotId`]s), so
//!   [`Workspace::retire_slots`] parks a departing tenant's keyed buffers
//!   and the next tenant's first `take_slot` under each new id adopts one.
//!   The parked list is kept apart from the recycle pool: `alloc` never
//!   draws from it, so a workspace that never retires allocates exactly as
//!   if the list did not exist.
//!
//! Buffers handed out by either path contain **stale garbage** unless
//! zeroed; callers must either fully overwrite them or request
//! [`Workspace::tensor_zeroed`]. This is load-bearing for determinism: the
//! GEMM kernels in [`crate::linalg`] accumulate into their output. Debug
//! builds make the garbage loud: every anonymous hand-out and every first
//! take of a slot is filled with NaN.
//!
//! [`Workspace::stats`] counts hand-outs that were served from existing
//! capacity (`reuses`) versus ones that had to touch the allocator
//! (`allocations`), so tests can assert a steady state allocates nothing.

use crate::{Shape, Tensor};
use std::sync::atomic::{AtomicU64, Ordering};

/// Stable identity of a persistent workspace slot.
///
/// Each layer instance mints its ids once at construction
/// ([`SlotId::fresh`]) and uses them for every subsequent call, so the
/// same buffer is rediscovered across batches, epochs, and rounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SlotId(u64);

impl SlotId {
    /// Mint a process-unique slot id.
    pub fn fresh() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        SlotId(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

/// Allocation-behaviour counters for a [`Workspace`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Hand-outs that required new heap capacity (fresh or grown buffer).
    pub allocations: u64,
    /// Hand-outs served entirely from already-owned capacity.
    pub reuses: u64,
    /// High-water mark of total f32 capacity owned by this workspace, in
    /// bytes (slots + pool + checked-out buffers).
    pub peak_bytes: u64,
}

/// Grow-only arena of reusable `f32` buffers. See the module docs.
///
/// A workspace is single-threaded by design (`&mut` threading): each
/// client trains on its own thread with its own workspace, and every
/// kernel runs on the thread that owns the workspace it was handed.
///
/// # Examples
///
/// Keyed-slot reuse — the second `take_slot` of the same [`SlotId`] hands
/// back the same storage with its contents intact, and the counters show
/// the steady state no longer touches the allocator:
///
/// ```
/// use fca_tensor::{SlotId, Workspace};
///
/// let mut ws = Workspace::new();
/// let id = SlotId::fresh();
///
/// let mut buf = ws.take_slot(id, 4); // first take: allocates
/// buf.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
/// ws.put_slot(id, buf);
///
/// let buf = ws.take_slot(id, 4); // same storage, contents preserved
/// assert_eq!(buf, [1.0, 2.0, 3.0, 4.0]);
/// ws.put_slot(id, buf);
///
/// assert_eq!(ws.stats().allocations, 1);
/// assert_eq!(ws.stats().reuses, 1);
/// ```
///
/// Anonymous buffers flow through the recycle pool instead:
///
/// ```
/// use fca_tensor::Workspace;
///
/// let mut ws = Workspace::new();
/// let t = ws.tensor_zeroed([8, 8]);
/// ws.recycle(t); // retire the storage…
/// ws.reset_stats();
/// let _t2 = ws.tensor_zeroed([4, 16]); // …and the next request reuses it
/// assert_eq!(ws.stats().allocations, 0);
/// ```
#[derive(Debug, Default)]
pub struct Workspace {
    #[expect(
        clippy::disallowed_types,
        reason = "a keyed lookup on every layer call; the one walk (retire_slots) only decides which parked buffer a first take adopts, and every buffer is overwritten before use, so the order never reaches a result"
    )]
    slots: std::collections::HashMap<SlotId, Vec<f32>>,
    pool: Vec<Vec<f32>>,
    /// Keyed buffers of departed tenants, for first takes to adopt.
    retired: Vec<Vec<f32>>,
    stats: WorkspaceStats,
    /// Total f32 capacity currently owned or checked out, in elements.
    live_elems: u64,
}

impl Workspace {
    /// Empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counters accumulated since construction (or the last [`Self::reset_stats`]).
    pub fn stats(&self) -> WorkspaceStats {
        self.stats
    }

    /// Zero the counters (capacity high-water mark included).
    pub fn reset_stats(&mut self) {
        self.stats = WorkspaceStats {
            peak_bytes: self.live_elems * 4,
            ..Default::default()
        };
    }

    fn note_capacity(&mut self, old_cap: usize, new_cap: usize) {
        if new_cap > old_cap {
            self.stats.allocations += 1;
            self.live_elems += (new_cap - old_cap) as u64;
            self.stats.peak_bytes = self.stats.peak_bytes.max(self.live_elems * 4);
        } else {
            self.stats.reuses += 1;
        }
    }

    /// Take the persistent buffer for `id`, resized to `len` (grow-only
    /// capacity). Contents beyond what the caller last wrote are
    /// unspecified. Pair with [`Self::put_slot`] to return it.
    ///
    /// The first take under an id this workspace holds no buffer for adopts
    /// the best-fitting buffer a previous tenant retired
    /// ([`Self::retire_slots`]) before it touches the allocator; what the
    /// adopted buffer holds is the previous tenant's garbage.
    pub fn take_slot(&mut self, id: SlotId, len: usize) -> Vec<f32> {
        let (mut buf, first_take) = match self.slots.remove(&id) {
            Some(buf) => (buf, false),
            None => (best_fit(&mut self.retired, len).unwrap_or_default(), true),
        };
        let old_cap = buf.capacity();
        buf.resize(len, 0.0);
        if first_take && cfg!(debug_assertions) {
            buf.fill(f32::NAN);
        }
        self.note_capacity(old_cap, buf.capacity());
        buf
    }

    /// Return a slot buffer taken with [`Self::take_slot`]. The contents are
    /// preserved for the next `take_slot` of the same id.
    pub fn put_slot(&mut self, id: SlotId, buf: Vec<f32>) {
        self.slots.insert(id, buf);
    }

    /// Hand out an anonymous buffer of exactly `len` elements with
    /// **unspecified contents**, preferring the best-fitting recycled
    /// buffer. Only what grows past the buffer's previous length is written
    /// (zeros); the rest is whatever its last user left.
    pub fn alloc(&mut self, len: usize) -> Vec<f32> {
        let mut buf = best_fit(&mut self.pool, len).unwrap_or_default();
        let old_cap = buf.capacity();
        buf.resize(len, 0.0);
        if cfg!(debug_assertions) {
            buf.fill(f32::NAN);
        }
        self.note_capacity(old_cap, buf.capacity());
        buf
    }

    /// An output tensor of `shape` with **unspecified contents** — the
    /// caller must fully overwrite every element.
    pub fn tensor(&mut self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        let buf = self.alloc(shape.numel());
        Tensor::from_vec(shape, buf)
    }

    /// An output tensor of `shape`, zero-filled (required before any
    /// accumulating kernel such as the GEMMs or a gradient scatter).
    pub fn tensor_zeroed(&mut self, shape: impl Into<Shape>) -> Tensor {
        let mut t = self.tensor(shape);
        t.data_mut().fill(0.0);
        t
    }

    /// A tensor with the same shape and contents as `src`, storage drawn
    /// from the pool.
    pub fn tensor_like(&mut self, src: &Tensor) -> Tensor {
        let mut t = self.tensor(src.shape().clone());
        t.data_mut().copy_from_slice(src.data());
        t
    }

    /// Retire a tensor's storage into the pool for future `alloc`s.
    ///
    /// Only recycle buffers that originated from this workspace (`alloc`/
    /// `tensor*`); feeding it foreign tensors grows the pool without bound.
    pub fn recycle(&mut self, t: Tensor) {
        self.pool.push(t.into_vec());
    }

    /// Retire a raw buffer into the pool.
    pub fn recycle_vec(&mut self, v: Vec<f32>) {
        self.pool.push(v);
    }

    /// Park every keyed slot for the next tenant to adopt.
    ///
    /// A shared workspace outlives the layer stack that keyed its slots:
    /// when a paged client is rebuilt, its layers mint fresh [`SlotId`]s,
    /// so the previous hydration's keyed buffers would sit dead in the map
    /// forever. Retired buffers serve the first [`Self::take_slot`] of each
    /// new id instead, so a stream of same-shaped tenants settles on one
    /// set of buffers. Adoption is by capacity alone, so the hash map's
    /// iteration order never shows in which capacity a take is served.
    pub fn retire_slots(&mut self) {
        self.retired.extend(self.slots.drain().map(|(_, v)| v));
    }

    /// Total f32 capacity parked in this workspace (free list, retired and
    /// keyed slots) — how "warm" the arena is for its next tenant.
    pub fn retained_capacity(&self) -> usize {
        let parked = self.pool.iter().chain(&self.retired);
        parked.chain(self.slots.values()).map(Vec::capacity).sum()
    }
}

/// View an `f32` buffer — a keyed slot, say — as `u32`s: how an offset
/// table (a [`crate::gemm::Lhs::Rows`] operand's) lives in a slot beside the
/// floats, adopted and reused with them, instead of in an allocation of
/// its own.
pub fn as_u32s_mut(buf: &mut [f32]) -> &mut [u32] {
    // SAFETY: `f32` and `u32` have the same size and alignment and every
    // bit pattern is a valid value of both; the borrow carries over.
    unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast::<u32>(), buf.len()) }
}

/// Remove and return the best fit for `len` from `free`: the smallest
/// capacity that holds `len`, else the largest (for the caller to grow).
fn best_fit(free: &mut Vec<Vec<f32>>, len: usize) -> Option<Vec<f32>> {
    let mut best: Option<(usize, usize)> = None; // (index, capacity)
    for (i, b) in free.iter().enumerate() {
        let cap = b.capacity();
        let fits = cap >= len;
        best = match best {
            None => Some((i, cap)),
            Some((_, bc)) if fits && (bc < len || cap < bc) => Some((i, cap)),
            Some((_, bc)) if !fits && bc < len && cap > bc => Some((i, cap)),
            keep => keep,
        };
    }
    best.map(|(i, _)| free.swap_remove(i))
}

/// Counters describing a [`WorkspacePool`]'s lifetime behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Total checkouts served (pool hits + fresh builds).
    pub checkouts: u64,
    /// Workspaces created because the free list was empty.
    pub created: u64,
    /// Workspaces currently checked out.
    pub resident: u64,
    /// Maximum simultaneously checked-out workspaces ever observed — the
    /// bound the paging scheduler's flat-memory claim is asserted against.
    pub high_water: u64,
}

/// A shared, thread-safe pool of [`Workspace`] arenas.
///
/// Cross-device-scale fleets cannot afford one arena per client: the pool
/// holds only as many workspaces as are ever simultaneously resident
/// (bounded by the paging scheduler's wave size), and each page-in checks
/// one out for the duration of the client's local work.
///
/// Checked-in workspaces keep their grown capacity — free list and retired
/// slots both — so after the first wave the pool serves warm arenas, each
/// tenant's layers adopt the previous tenant's buffers, and steady-state
/// paging stops touching the allocator. Contents are stale garbage by the
/// same contract as [`Workspace`] itself — numerics never read
/// uninitialized scratch, which is what makes pool assignment order
/// irrelevant to results.
#[derive(Debug, Default)]
pub struct WorkspacePool {
    free: std::sync::Mutex<Vec<Workspace>>,
    checkouts: AtomicU64,
    created: AtomicU64,
    resident: AtomicU64,
    high_water: AtomicU64,
}

impl WorkspacePool {
    /// Empty pool; workspaces are created lazily on first checkout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take a workspace (the warmest one when available, otherwise fresh).
    pub fn checkout(&self) -> Workspace {
        let ws = {
            let mut free = self.free.lock().unwrap_or_else(|p| p.into_inner());
            // Prefer the arena with the most retained capacity so a cold
            // workspace checked in after a warm one cannot shadow it
            // (ties go to the most recently checked in).
            free.iter()
                .enumerate()
                .max_by_key(|(i, w)| (w.retained_capacity(), *i))
                .map(|(i, _)| i)
                .map(|i| free.swap_remove(i))
        };
        let ws = ws.unwrap_or_else(|| {
            self.created.fetch_add(1, Ordering::Relaxed);
            Workspace::new()
        });
        self.checkouts.fetch_add(1, Ordering::Relaxed);
        let now = self.resident.fetch_add(1, Ordering::Relaxed) + 1;
        self.high_water.fetch_max(now, Ordering::Relaxed);
        ws
    }

    /// Return a workspace to the free list, retiring its keyed slots so
    /// the next tenant (a freshly built layer stack with new [`SlotId`]s)
    /// adopts them on its first takes.
    pub fn checkin(&self, mut ws: Workspace) {
        ws.retire_slots();
        self.resident.fetch_sub(1, Ordering::Relaxed);
        let mut free = self.free.lock().unwrap_or_else(|p| p.into_inner());
        free.push(ws);
    }

    /// Bytes of f32 capacity the parked workspaces hold between tenants.
    pub fn retained_bytes(&self) -> u64 {
        let free = self.free.lock().unwrap_or_else(|p| p.into_inner());
        free.iter().map(|w| 4 * w.retained_capacity() as u64).sum()
    }

    /// Largest [`WorkspaceStats::peak_bytes`] among the parked workspaces.
    pub fn peak_bytes(&self) -> u64 {
        let free = self.free.lock().unwrap_or_else(|p| p.into_inner());
        free.iter().map(|w| w.stats().peak_bytes).max().unwrap_or(0)
    }

    /// Snapshot of the pool's counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            checkouts: self.checkouts.load(Ordering::Relaxed),
            created: self.created.load(Ordering::Relaxed),
            resident: self.resident.load(Ordering::Relaxed),
            high_water: self.high_water.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slot_holds_offsets_through_a_u32_view() {
        let mut ws = Workspace::new();
        let id = SlotId::fresh();
        let mut buf = ws.take_slot(id, 3);
        as_u32s_mut(&mut buf).copy_from_slice(&[0, 7, u32::MAX]);
        ws.put_slot(id, buf);
        let mut buf = ws.take_slot(id, 3);
        assert_eq!(as_u32s_mut(&mut buf), [0, 7, u32::MAX]);
    }

    #[test]
    fn slot_ids_are_unique() {
        let a = SlotId::fresh();
        let b = SlotId::fresh();
        assert_ne!(a, b);
    }

    #[test]
    fn slot_persists_contents() {
        let mut ws = Workspace::new();
        let id = SlotId::fresh();
        let mut buf = ws.take_slot(id, 4);
        buf.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        ws.put_slot(id, buf);
        let buf = ws.take_slot(id, 4);
        assert_eq!(buf, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn slot_is_grow_only_and_counts_reuse() {
        let mut ws = Workspace::new();
        let id = SlotId::fresh();
        let buf = ws.take_slot(id, 100);
        ws.put_slot(id, buf);
        assert_eq!(ws.stats().allocations, 1);
        let buf = ws.take_slot(id, 50); // shrink: reuse
        ws.put_slot(id, buf);
        let buf = ws.take_slot(id, 100); // back up within capacity: reuse
        ws.put_slot(id, buf);
        assert_eq!(ws.stats().allocations, 1);
        assert_eq!(ws.stats().reuses, 2);
        let buf = ws.take_slot(id, 200); // grow: allocation
        ws.put_slot(id, buf);
        assert_eq!(ws.stats().allocations, 2);
    }

    #[test]
    fn pool_recycles_buffers() {
        let mut ws = Workspace::new();
        let t = ws.tensor_zeroed([4, 4]);
        ws.recycle(t);
        let stats0 = ws.stats();
        let t = ws.tensor_zeroed([2, 8]); // same numel: must reuse
        assert_eq!(ws.stats().allocations, stats0.allocations);
        assert_eq!(ws.stats().reuses, stats0.reuses + 1);
        assert!(t.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn pool_best_fit_prefers_smallest_sufficient() {
        let mut ws = Workspace::new();
        let small = ws.alloc(10);
        let big = ws.alloc(1000);
        ws.recycle_vec(small);
        ws.recycle_vec(big);
        let got = ws.alloc(8);
        assert!(got.capacity() < 1000, "should pick the 10-cap buffer");
    }

    #[test]
    fn peak_bytes_tracks_high_water() {
        let mut ws = Workspace::new();
        let a = ws.alloc(256);
        ws.recycle_vec(a);
        let peak = ws.stats().peak_bytes;
        assert!(peak >= 256 * 4);
        let b = ws.alloc(100); // within capacity
        ws.recycle_vec(b);
        assert_eq!(ws.stats().peak_bytes, peak);
    }

    #[test]
    fn tensor_like_copies() {
        let mut ws = Workspace::new();
        let src = Tensor::from_vec([3], vec![1.0, 2.0, 3.0]);
        let t = ws.tensor_like(&src);
        assert_eq!(t.data(), src.data());
        assert_eq!(t.dims(), src.dims());
    }

    #[test]
    fn steady_state_allocates_nothing() {
        let mut ws = Workspace::new();
        let id = SlotId::fresh();
        for _ in 0..3 {
            let s = ws.take_slot(id, 64);
            ws.put_slot(id, s);
            let t = ws.tensor_zeroed([8, 8]);
            ws.recycle(t);
        }
        ws.reset_stats();
        for _ in 0..10 {
            let s = ws.take_slot(id, 64);
            ws.put_slot(id, s);
            let t = ws.tensor_zeroed([8, 8]);
            ws.recycle(t);
        }
        assert_eq!(ws.stats().allocations, 0);
        assert_eq!(ws.stats().reuses, 20);
    }

    #[test]
    fn retired_slot_serves_the_next_tenants_first_take() {
        let mut ws = Workspace::new();
        let id = SlotId::fresh();
        let buf = ws.take_slot(id, 128);
        ws.put_slot(id, buf);
        let anon = ws.alloc(100);
        ws.recycle_vec(anon);
        ws.retire_slots();
        ws.reset_stats();
        // A fresh SlotId (a rebuilt layer) adopts the retired buffer.
        let id = SlotId::fresh();
        let buf = ws.take_slot(id, 64);
        assert_eq!(buf.len(), 64);
        assert!(buf.capacity() >= 128, "did not adopt the retired buffer");
        assert_eq!(
            ws.stats().allocations,
            0,
            "first take went to the allocator"
        );
        ws.put_slot(id, buf);
        // The anonymous list is left alone: it still serves its own buffer,
        // and once empty it goes to the allocator, never to a retired slot.
        let anon = ws.alloc(100);
        assert_eq!(ws.stats().allocations, 0);
        ws.retire_slots();
        let second = ws.alloc(100);
        assert_eq!(
            ws.stats().allocations,
            1,
            "alloc must not draw from the retired list"
        );
        ws.recycle_vec(anon);
        ws.recycle_vec(second);
    }

    #[test]
    fn first_take_grows_the_largest_retired_buffer_when_none_fits() {
        let mut ws = Workspace::new();
        for len in [16, 48] {
            let id = SlotId::fresh();
            let buf = ws.take_slot(id, len);
            ws.put_slot(id, buf);
        }
        ws.retire_slots();
        let before = ws.retained_capacity();
        let id = SlotId::fresh();
        let buf = ws.take_slot(id, 100);
        ws.put_slot(id, buf);
        assert_eq!(
            ws.retained_capacity(),
            before - 48 + 100,
            "the 48-element buffer should have been the one grown"
        );
    }

    /// One paged client's life in a pooled workspace: fresh slot ids (its
    /// layers were just built), a training-sized take and a larger
    /// evaluation-sized retake per slot, some anonymous traffic.
    fn tenant(pool: &WorkspacePool, slot_lens: &[usize]) -> Workspace {
        let mut ws = pool.checkout();
        let ids: Vec<SlotId> = slot_lens.iter().map(|_| SlotId::fresh()).collect();
        for grow in [1, 2] {
            for (&id, &len) in ids.iter().zip(slot_lens) {
                let buf = ws.take_slot(id, len * grow);
                ws.put_slot(id, buf);
                let out = ws.tensor([len]);
                ws.recycle(out);
            }
        }
        ws
    }

    /// `(retained capacity, parked buffers, allocations so far)` of the
    /// pool's one workspace.
    fn parked(pool: &WorkspacePool) -> (usize, usize, u64) {
        let ws = pool.checkout();
        let buffers = ws.pool.len() + ws.retired.len();
        let point = (ws.retained_capacity(), buffers, ws.stats().allocations);
        pool.checkin(ws);
        point
    }

    #[test]
    fn same_shaped_tenants_hold_memory_flat() {
        let pool = WorkspacePool::new();
        let lens = [64, 1000, 17, 512, 64];
        pool.checkin(tenant(&pool, &lens));
        pool.checkin(tenant(&pool, &lens));
        let settled = parked(&pool);
        for round in 2..50 {
            pool.checkin(tenant(&pool, &lens));
            assert_eq!(parked(&pool), settled, "memory moved at tenant {round}");
        }
        assert_eq!(pool.stats().created, 1);
    }

    #[test]
    fn alternating_tenants_are_bounded_by_the_larger() {
        let pool = WorkspacePool::new();
        let small = [64, 1000, 17];
        let large = [2000, 8, 8, 300, 40];
        for lens in [&small[..], &large[..], &small[..], &large[..]] {
            pool.checkin(tenant(&pool, lens));
        }
        let settled = parked(&pool);
        // Anonymous buffers: one per distinct live output; keyed: the larger
        // tenant's slot count. Neither tenant adds to the other's.
        assert!(settled.1 <= large.len() + 1, "parked {} buffers", settled.1);
        for round in 4..50 {
            let lens = if round % 2 == 0 {
                &small[..]
            } else {
                &large[..]
            };
            pool.checkin(tenant(&pool, lens));
            assert_eq!(parked(&pool), settled, "memory moved at tenant {round}");
        }
    }

    #[test]
    fn pool_checkout_checkin_reuses_and_tracks_high_water() {
        let pool = WorkspacePool::new();
        let mut a = pool.checkout();
        let b = pool.checkout();
        assert_eq!(pool.stats().resident, 2);
        assert_eq!(pool.stats().created, 2);
        // Warm up `a`, return both, and check the next tenant gets warmth.
        let t = a.tensor_zeroed([32, 32]);
        a.recycle(t);
        pool.checkin(a);
        pool.checkin(b);
        assert_eq!(pool.stats().resident, 0);
        assert_eq!(pool.stats().high_water, 2);
        let mut c = pool.checkout();
        assert_eq!(
            pool.stats().created,
            2,
            "free list must serve the third checkout"
        );
        c.reset_stats();
        let t = c.tensor_zeroed([32, 32]);
        assert_eq!(
            c.stats().allocations,
            0,
            "pooled workspace lost its capacity"
        );
        c.recycle(t);
        pool.checkin(c);
        assert_eq!(pool.stats().checkouts, 3);
        assert_eq!(
            pool.stats().high_water,
            2,
            "high water must not grow past peak"
        );
    }

    #[test]
    fn pool_checkin_retires_keyed_slots() {
        let pool = WorkspacePool::new();
        let mut ws = pool.checkout();
        let id = SlotId::fresh();
        let buf = ws.take_slot(id, 256);
        ws.put_slot(id, buf);
        pool.checkin(ws);
        let mut ws = pool.checkout();
        ws.reset_stats();
        let id = SlotId::fresh();
        let buf = ws.take_slot(id, 200);
        assert_eq!(
            ws.stats().allocations,
            0,
            "previous tenant's keyed slot must serve the next tenant's first take"
        );
        ws.put_slot(id, buf);
        let anon = ws.alloc(200);
        assert_eq!(
            ws.stats().allocations,
            1,
            "the anonymous list must not be fed by retired slots"
        );
        ws.recycle_vec(anon);
        pool.checkin(ws);
    }

    #[test]
    fn reused_hand_outs_are_not_refilled() {
        let mut ws = Workspace::new();
        let mut a = ws.alloc(8);
        a.fill(7.0);
        ws.recycle_vec(a);
        let b = ws.alloc(6);
        // Debug builds poison what release builds leave as the last user
        // wrote it; neither spends a pass on zeros.
        let expect = if cfg!(debug_assertions) {
            f32::NAN
        } else {
            7.0
        };
        assert!(b.iter().all(|v| v.to_bits() == expect.to_bits()));
        ws.recycle_vec(b);
        let t = ws.tensor_zeroed([8]);
        assert!(t.data().iter().all(|&v| v == 0.0));
    }
}
