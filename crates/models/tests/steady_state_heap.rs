//! W1 (DESIGN.md §7.5): once warm, a training step and a prediction take
//! every per-batch buffer from the `Workspace`. What a step may still
//! allocate is shape headers — tens of bytes each — never a buffer sized
//! by the batch, in any layer, helper, model or the classifier.
//!
//! Its own test binary, so the counting allocator sees nothing else, on a
//! one-thread pool, so it does not see the pool's job queue grow either
//! (how deep that gets depends on thread timing).

use fca_models::{build_model, ClientModel, ModelArch};
use fca_tensor::rng::seeded_rng;
use fca_tensor::{Tensor, Workspace};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Largest single allocation a warm step may make: above every shape
/// header (144 B at most), below the smallest per-batch buffer (an 8-row
/// batch of 16 features is 512 B).
const MAX_ALLOC: usize = 256;

static ARMED: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

/// `System`, noting the largest allocation made while [`ARMED`].
/// `GlobalAlloc`'s `alloc_zeroed` and `realloc` go through `alloc`.
struct Counting;

// SAFETY: both methods hand their arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches atomics only
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One training forward + backward, with the outputs recycled the way
/// `Client` does, then one prediction.
fn step(model: &mut ClientModel, x: &Tensor, d_logits: &Tensor, ws: &mut Workspace) {
    let (features, logits) = model.forward(x, true, ws);
    ws.recycle(features);
    ws.recycle(logits);
    model.backward(None, d_logits, ws);
    let logits = model.predict(x, ws);
    ws.recycle(logits);
}

#[test]
fn a_warm_step_allocates_no_batch_sized_buffer() {
    // Read once, when the first parallel call starts the global pool.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let mut rng = seeded_rng(25);
    let x = Tensor::randn([8, 1, 14, 14], 1.0, &mut rng);
    let d_logits = Tensor::randn([8, 10], 0.1, &mut rng);
    for arch in [
        ModelArch::MicroResNet,
        ModelArch::MicroShuffleNet,
        ModelArch::MicroGoogLeNet,
        ModelArch::MicroAlexNet,
        ModelArch::CnnFedAvg,
        ModelArch::ProtoCnn { width_variant: 1 },
    ] {
        let mut model = build_model(arch, (1, 14, 14), 16, 10, 7);
        let mut ws = Workspace::new();
        for _ in 0..3 {
            step(&mut model, &x, &d_logits, &mut ws);
        }
        LARGEST.store(0, Ordering::Relaxed);
        ARMED.store(true, Ordering::Relaxed);
        step(&mut model, &x, &d_logits, &mut ws);
        ARMED.store(false, Ordering::Relaxed);
        let largest = LARGEST.load(Ordering::Relaxed);
        assert!(
            largest <= MAX_ALLOC,
            "{}: a warm step allocated {largest} B at once",
            arch.name()
        );
    }
}
