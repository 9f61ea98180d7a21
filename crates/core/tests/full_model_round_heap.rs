//! Once warm, a full-model round allocates no large block: the broadcast,
//! every uplink and every socket read land in recycled frames
//! (`fedclassavg::frame`), a client reads its downlink into its own model,
//! and the server folds the replies from their frames into the global
//! state where it lies. What a round may still allocate is bookkeeping —
//! reply lists, byte ranges, queue nodes — never a model-sized buffer.
//!
//! Its own test binary, so the counting allocator sees nothing else, on a
//! one-thread pool, so it does not see the pool's job queue grow either.

use fca_data::partition::Partitioner;
use fca_data::synth::tiny_dataset;
use fca_models::ModelArch;
use fedclassavg::algo::{Algorithm, FedAvg};
use fedclassavg::comm::Network;
use fedclassavg::config::{FedConfig, HyperParams};
use fedclassavg::sim::build_fleet;
use fedclassavg::transport::{ChannelTransport, SocketTransport, Transport};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Smallest block a warm round must not allocate: the frame pool's
/// threshold, under the test model's 0.3 MB frames (and its 0.3 MB
/// feature weight) and above any bookkeeping a round of four clients does.
const LARGE: usize = 64 << 10;

const CLIENTS: usize = 4;

static ARMED: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

/// `System`, noting the largest allocation made while [`ARMED`], on any
/// thread (the socket backend's readers included). `GlobalAlloc`'s
/// `alloc_zeroed` and `realloc` go through `alloc`.
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

/// The largest block rounds 3 and 4 of a four-client FedAvg run over
/// `transport` allocate.
fn largest_in_warm_rounds(transport: Box<dyn Transport>) -> usize {
    let hp = HyperParams::micro_default();
    // CnnFedAvg on 12×12 images, with 128 features: a 576 × 128 weight.
    let data = tiny_dataset(3, 24 * CLIENTS, 12 * CLIENTS, 751);
    let cfg = FedConfig {
        feature_dim: 128,
        ..FedConfig::new(CLIENTS, hp, 1, 751)
    };
    let arch = |_| ModelArch::CnnFedAvg;
    let mut fleet = build_fleet(&data, Partitioner::Dirichlet { alpha: 0.5 }, &cfg, &arch);
    let all: Vec<usize> = (0..CLIENTS).collect();
    let mut algo = FedAvg::new(fleet.client_mut(0).model.full_state());
    let mut net = Network::over(transport);
    for round in 1..=4 {
        if round == 3 {
            LARGEST.store(0, Ordering::Relaxed);
            ARMED.store(true, Ordering::Relaxed);
        }
        net.begin_round(round, &all);
        algo.round(round, &mut fleet, &all, &net, &hp);
    }
    ARMED.store(false, Ordering::Relaxed);
    assert_eq!(net.take_round_faults(), (0, 0));
    LARGEST.load(Ordering::Relaxed)
}

#[test]
fn a_warm_full_model_round_allocates_no_large_block() {
    // Read once, when the first parallel call starts the global pool.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let unix = || SocketTransport::unix(CLIENTS).expect("a Unix-socket loopback");
    let backends: [(&str, Box<dyn Transport>); 2] = [
        ("channel", Box::new(ChannelTransport::new(CLIENTS))),
        ("unix", Box::new(unix())),
    ];
    for (name, transport) in backends {
        let largest = largest_in_warm_rounds(transport);
        assert!(
            largest < LARGE,
            "{name}: a warm round allocated a {largest}-byte block"
        );
    }
}
