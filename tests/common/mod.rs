//! Fixtures the integration tests share: a small four-class federation and
//! one bit-level comparator for whole runs.

use fedclassavg_suite::data::synth::{SynthConfig, SynthDataset};
use fedclassavg_suite::fed::config::{FedConfig, HyperParams};
use fedclassavg_suite::fed::{RoundMetrics, RunResult};

pub const CLASSES: usize = 4;
pub const FEAT: usize = 12;

/// 320 train and 160 test images of `CLASSES` classes, 14×14.
pub fn small_data(seed: u64) -> SynthDataset {
    let mut cfg = SynthConfig::synth_fashion(seed).with_sizes(320, 160);
    cfg.num_classes = CLASSES;
    cfg.height = 14;
    cfg.width = 14;
    cfg.generate()
}

/// Four clients with `FEAT` features at lr 3e-3; every round is an eval
/// (= checkpoint) boundary, like the paper configurations.
pub fn small_cfg(seed: u64, rounds: usize) -> FedConfig {
    FedConfig {
        feature_dim: FEAT,
        ..FedConfig::new(4, HyperParams::micro_default().with_lr(3e-3), rounds, seed)
    }
}

/// Every field of two runs, floats compared bit for bit. The destructuring
/// is exhaustive, so a field added to either struct must be added here.
pub fn assert_bit_identical(a: &RunResult, b: &RunResult, label: &str) {
    let (algo_a, acc_a, final_a, totals_a) = summary(a);
    let (algo_b, acc_b, final_b, totals_b) = summary(b);
    assert_eq!(algo_a, algo_b, "{label}: algorithm");
    assert_eq!(acc_a, acc_b, "{label}: per-client accuracies diverged");
    assert_eq!(final_a, final_b, "{label}: final mean and std diverged");
    assert_eq!(
        totals_a, totals_b,
        "{label}: totals (down, up, rounds, dropped, corrupt, stale, expired)"
    );
    assert_eq!(a.curve.len(), b.curve.len(), "{label}: curve length");
    for (p, q) in a.curve.iter().zip(&b.curve) {
        assert_eq!(
            point(p),
            point(q),
            "{label}: curve point (round, epochs, mean, std, dropped, corrupt, stale, expired)"
        );
    }
}

/// Everything of a run but its curve, floats as bits.
fn summary(r: &RunResult) -> (&str, Vec<u32>, [u32; 2], [u64; 7]) {
    let RunResult {
        algo,
        curve: _,
        per_client_acc,
        final_mean,
        final_std,
        downlink_bytes,
        uplink_bytes,
        rounds,
        dropped,
        corrupt,
        stale,
        expired,
    } = r;
    (
        algo,
        per_client_acc.iter().map(|x| x.to_bits()).collect(),
        [final_mean.to_bits(), final_std.to_bits()],
        [
            *downlink_bytes,
            *uplink_bytes,
            *rounds as u64,
            *dropped,
            *corrupt,
            *stale,
            *expired,
        ],
    )
}

/// One curve point, floats as bits.
fn point(p: &RoundMetrics) -> [u64; 8] {
    let RoundMetrics {
        round,
        epochs,
        mean_acc,
        std_acc,
        dropped,
        corrupt,
        stale,
        expired,
    } = *p;
    [
        round as u64,
        epochs as u64,
        mean_acc.to_bits().into(),
        std_acc.to_bits().into(),
        dropped,
        corrupt,
        stale,
        expired,
    ]
}
