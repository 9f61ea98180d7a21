//! End-to-end integration tests: every algorithm runs on a small synthetic
//! federation, learns above chance, stays finite, and its wire traffic
//! matches the analytic payload sizes.

use fedclassavg_suite::data::partition::Partitioner;
use fedclassavg_suite::data::synth::SynthConfig;
use fedclassavg_suite::fed::algo::{
    Algorithm, FedAvg, FedClassAvg, FedProto, FedProx, KtPfl, KtPflWeight, LocalOnly,
};
use fedclassavg_suite::fed::comm::WireMessage;
use fedclassavg_suite::fed::config::FedConfig;
use fedclassavg_suite::fed::sim::{build_fleet, run_federation, RunResult};
use fedclassavg_suite::models::classifier::ClassifierWeights;
use fedclassavg_suite::models::ModelArch;

#[expect(dead_code, reason = "this file compares no two runs")]
mod common;
use common::{small_data, CLASSES, FEAT};

/// The shared config with one accuracy point, at the end of the run.
fn small_cfg(seed: u64, rounds: usize) -> FedConfig {
    FedConfig {
        eval_every: rounds.max(1),
        ..common::small_cfg(seed, rounds)
    }
}

fn run_algo(
    seed: u64,
    rounds: usize,
    dist: Partitioner,
    heterogeneous: bool,
    make: impl FnOnce(&FedConfig, &fedclassavg_suite::data::synth::SynthDataset) -> Box<dyn Algorithm>,
) -> RunResult {
    let data = small_data(seed);
    let cfg = small_cfg(seed, rounds);
    let arch: Box<dyn Fn(usize) -> ModelArch> = if heterogeneous {
        Box::new(ModelArch::heterogeneous_rotation)
    } else {
        Box::new(|_| ModelArch::CnnFedAvg)
    };
    let mut fleet = build_fleet(&data, dist, &cfg, arch.as_ref());
    let mut algo = make(&cfg, &data);
    run_federation(&mut fleet, algo.as_mut(), &cfg)
}

fn assert_learned(r: &RunResult, label: &str) {
    assert!(
        r.per_client_acc.iter().all(|a| a.is_finite()),
        "{label}: non-finite accuracy"
    );
    // Chance level is 1/CLASSES = 0.25.
    assert!(
        r.final_mean > 0.3,
        "{label}: final accuracy {:.3} is not above chance",
        r.final_mean
    );
}

#[test]
fn local_only_learns_above_chance() {
    let r = run_algo(1, 8, Partitioner::Dirichlet { alpha: 0.5 }, true, |_, _| {
        Box::new(LocalOnly::new())
    });
    assert_learned(&r, "local-only");
    assert_eq!(r.downlink_bytes + r.uplink_bytes, 0);
}

#[test]
fn fedclassavg_learns_above_chance_heterogeneous() {
    let r = run_algo(
        2,
        8,
        Partitioner::Dirichlet { alpha: 0.5 },
        true,
        |cfg, _| Box::new(FedClassAvg::new(cfg.feature_dim, CLASSES, cfg.seed)),
    );
    assert_learned(&r, "fedclassavg");
    assert!(r.uplink_bytes > 0);
}

#[test]
fn fedclassavg_traffic_matches_classifier_payload() {
    let rounds = 5;
    let r = run_algo(
        3,
        rounds,
        Partitioner::Dirichlet { alpha: 0.5 },
        true,
        |cfg, _| Box::new(FedClassAvg::new(cfg.feature_dim, CLASSES, cfg.seed)),
    );
    let payload =
        WireMessage::Classifier(ClassifierWeights::zeros(FEAT, CLASSES)).encoded_len() as u64;
    // Per round: 4 broadcasts + 4 uploads of exactly one classifier each.
    assert_eq!(r.downlink_bytes, rounds as u64 * 4 * payload);
    assert_eq!(r.uplink_bytes, rounds as u64 * 4 * payload);
}

#[test]
fn fedavg_learns_above_chance_homogeneous() {
    let r = run_algo(
        4,
        8,
        Partitioner::Dirichlet { alpha: 0.5 },
        false,
        |cfg, data| {
            let (c, h, w) = data.train.image_shape();
            let mut reference = fedclassavg_suite::models::build_model(
                ModelArch::CnnFedAvg,
                (c, h, w),
                cfg.feature_dim,
                CLASSES,
                99,
            );
            Box::new(FedAvg::new(reference.full_state()))
        },
    );
    assert_learned(&r, "fedavg");
}

#[test]
fn fedprox_learns_above_chance_homogeneous() {
    let r = run_algo(
        5,
        8,
        Partitioner::Dirichlet { alpha: 0.5 },
        false,
        |cfg, data| {
            let (c, h, w) = data.train.image_shape();
            let mut reference = fedclassavg_suite::models::build_model(
                ModelArch::CnnFedAvg,
                (c, h, w),
                cfg.feature_dim,
                CLASSES,
                98,
            );
            Box::new(FedProx::new(reference.full_state(), 0.1))
        },
    );
    assert_learned(&r, "fedprox");
}

#[test]
fn fedproto_learns_above_chance() {
    let data = small_data(6);
    let cfg = small_cfg(6, 8);
    let mut fleet = build_fleet(&data, Partitioner::Dirichlet { alpha: 0.5 }, &cfg, &|k| {
        ModelArch::ProtoCnn {
            width_variant: k % 4,
        }
    });
    let mut algo = FedProto::new(cfg.feature_dim, CLASSES, 1.0);
    let r = run_federation(&mut fleet, &mut algo, &cfg);
    assert_learned(&r, "fedproto");
}

#[test]
fn ktpfl_learns_above_chance() {
    let public = {
        let mut c = SynthConfig::synth_fashion(600).with_sizes(32, 1);
        c.num_classes = CLASSES;
        c.height = 14;
        c.width = 14;
        c.generate().train.images
    };
    let r = run_algo(7, 4, Partitioner::Dirichlet { alpha: 0.5 }, true, |_, _| {
        Box::new(KtPfl::new(public, 4).with_local_epochs(2))
    });
    assert_learned(&r, "kt-pfl");
}

#[test]
fn ktpfl_weight_learns_above_chance() {
    let r = run_algo(
        8,
        8,
        Partitioner::Dirichlet { alpha: 0.5 },
        false,
        |_, _| Box::new(KtPflWeight::new(4)),
    );
    assert_learned(&r, "kt-pfl +weight");
}

#[test]
fn fedclassavg_weight_learns_above_chance() {
    let r = run_algo(
        9,
        8,
        Partitioner::Dirichlet { alpha: 0.5 },
        false,
        |cfg, data| {
            let (c, h, w) = data.train.image_shape();
            let mut reference = fedclassavg_suite::models::build_model(
                ModelArch::CnnFedAvg,
                (c, h, w),
                cfg.feature_dim,
                CLASSES,
                97,
            );
            Box::new(FedClassAvg::with_full_weight_sharing(
                cfg.feature_dim,
                CLASSES,
                cfg.seed,
                reference.full_state(),
            ))
        },
    );
    assert_learned(&r, "fedclassavg +weight");
}

#[test]
fn partial_participation_works() {
    let data = small_data(11);
    let mut cfg = small_cfg(11, 6);
    cfg.num_clients = 6;
    cfg.sample_rate = 0.5;
    let mut fleet = build_fleet(
        &data,
        Partitioner::Dirichlet { alpha: 0.5 },
        &cfg,
        &ModelArch::heterogeneous_rotation,
    );
    let mut algo = FedClassAvg::new(cfg.feature_dim, CLASSES, cfg.seed);
    let r = run_federation(&mut fleet, &mut algo, &cfg);
    assert!(r.per_client_acc.iter().all(|a| a.is_finite()));
    // Only 3 of 6 clients communicate per round.
    let payload =
        WireMessage::Classifier(ClassifierWeights::zeros(FEAT, CLASSES)).encoded_len() as u64;
    assert_eq!(r.downlink_bytes, 6 * 3 * payload);
}
