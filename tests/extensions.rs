//! Integration tests of the beyond-paper extensions: half-precision
//! classifier exchange and FedMD.

use fedclassavg_suite::data::partition::Partitioner;
use fedclassavg_suite::data::synth::SynthConfig;
use fedclassavg_suite::fed::algo::{FedClassAvg, FedMd};
use fedclassavg_suite::fed::config::{FedConfig, HyperParams};
use fedclassavg_suite::fed::sim::{build_fleet, run_federation};
use fedclassavg_suite::models::ModelArch;

const CLASSES: usize = 4;
const FEAT: usize = 12;

fn data(seed: u64) -> fedclassavg_suite::data::synth::SynthDataset {
    let mut cfg = SynthConfig::synth_fashion(seed).with_sizes(240, 120);
    cfg.num_classes = CLASSES;
    cfg.height = 12;
    cfg.width = 12;
    cfg.generate()
}

fn cfg(seed: u64, rounds: usize) -> FedConfig {
    FedConfig {
        feature_dim: FEAT,
        eval_every: rounds,
        ..FedConfig::new(4, HyperParams::micro_default().with_lr(3e-3), rounds, seed)
    }
}

#[test]
fn f16_federation_matches_f32_within_tolerance_and_halves_traffic() {
    let run = |half: bool| {
        let d = data(61);
        let c = cfg(61, 6);
        let mut fleet = build_fleet(
            &d,
            Partitioner::Dirichlet { alpha: 0.5 },
            &c,
            &ModelArch::heterogeneous_rotation,
        );
        let mut algo = FedClassAvg::new(FEAT, CLASSES, c.seed);
        if half {
            algo = algo.with_half_precision();
        }
        run_federation(&mut fleet, &mut algo, &c)
    };
    let full = run(false);
    let half = run(true);
    // Byte savings: payload halves; headers are a few bytes per message.
    let ratio = half.downlink_bytes as f64 / full.downlink_bytes as f64;
    assert!(
        (0.45..0.62).contains(&ratio),
        "f16 downlink ratio {ratio} not ≈ 0.5 ({} vs {})",
        half.downlink_bytes,
        full.downlink_bytes
    );
    // Accuracy unharmed (quantization noise ≪ training noise).
    assert!(
        (half.final_mean - full.final_mean).abs() < 0.1,
        "f16 accuracy {:.3} diverged from f32 {:.3}",
        half.final_mean,
        full.final_mean
    );
}

#[test]
fn fedmd_learns_above_chance_on_heterogeneous_fleet() {
    let d = data(67);
    let c = cfg(67, 5);
    let mut public_cfg = SynthConfig::synth_fashion(68).with_sizes(32, 1);
    public_cfg.num_classes = CLASSES;
    public_cfg.height = 12;
    public_cfg.width = 12;
    let public = public_cfg.generate().train.images;
    let mut fleet = build_fleet(
        &d,
        Partitioner::Dirichlet { alpha: 0.5 },
        &c,
        &ModelArch::heterogeneous_rotation,
    );
    let mut algo = FedMd::new(public).with_local_epochs(2);
    let r = run_federation(&mut fleet, &mut algo, &c);
    assert!(
        r.final_mean > 0.3,
        "FedMD final accuracy {:.3} not above chance",
        r.final_mean
    );
    assert!(r.downlink_bytes > 0 && r.uplink_bytes > 0);
}
