//! Failure-injection tests: degenerate federations and malformed inputs
//! must fail loudly (or degrade cleanly where the paper's protocol allows).

use fedclassavg_suite::data::partition::Partitioner;
use fedclassavg_suite::data::synth::SynthConfig;
use fedclassavg_suite::data::Dataset;
use fedclassavg_suite::fed::algo::Algorithm;
use fedclassavg_suite::fed::algo::{FedClassAvg, FedProto};
use fedclassavg_suite::fed::client::Client;
use fedclassavg_suite::fed::comm::{Network, WireMessage};
use fedclassavg_suite::fed::config::{FedConfig, HyperParams};
use fedclassavg_suite::fed::sim::{build_fleet, run_federation};
use fedclassavg_suite::models::classifier::ClassifierWeights;
use fedclassavg_suite::models::{build_model, ModelArch};
use fedclassavg_suite::tensor::Tensor;

fn small_data(seed: u64) -> fedclassavg_suite::data::synth::SynthDataset {
    let mut cfg = SynthConfig::synth_fashion(seed).with_sizes(160, 80);
    cfg.num_classes = 4;
    cfg.height = 12;
    cfg.width = 12;
    cfg.generate()
}

fn small_cfg(seed: u64) -> FedConfig {
    FedConfig {
        feature_dim: 8,
        ..FedConfig::new(4, HyperParams::micro_default(), 2, seed)
    }
}

#[test]
fn dropped_clients_mid_training_is_fine() {
    // Clients sampled in round 1 but never again: their classifiers stop
    // contributing but the federation keeps running.
    let data = small_data(21);
    let mut cfg = small_cfg(21);
    cfg.sample_rate = 0.25; // one client per round
    cfg.rounds = 4;
    let mut fleet = build_fleet(
        &data,
        Partitioner::Dirichlet { alpha: 0.5 },
        &cfg,
        &ModelArch::heterogeneous_rotation,
    );
    let mut algo = FedClassAvg::new(cfg.feature_dim, 4, cfg.seed);
    let r = run_federation(&mut fleet, &mut algo, &cfg);
    assert!(r.per_client_acc.iter().all(|a| a.is_finite()));
}

#[test]
fn client_with_single_class_trains() {
    // A degenerate shard: one class only. SupCon has positives (two views
    // of the same class), CE is trivially learnable; must not NaN.
    let data = small_data(22);
    let keep: Vec<usize> = (0..data.train.len())
        .filter(|&i| data.train.labels[i] == 0)
        .collect();
    let shard = data.train.subset(&keep[..20.min(keep.len())]);
    let test = data.test.subset(&[0, 1, 2]);
    let model = build_model(ModelArch::MicroResNet, (1, 12, 12), 8, 4, 1);
    let hp = HyperParams::micro_default();
    let mut client = Client::new(
        0,
        model,
        shard,
        test,
        fedclassavg_suite::data::augment::AugmentConfig::mnist_like(),
        1.0,
        &hp,
        1,
    );
    let global = ClassifierWeights::zeros(8, 4);
    let stats = client.local_update_fedclassavg(
        Some(&global),
        &hp,
        fedclassavg_suite::fed::client::LocalObjective {
            contrastive: true,
            rho: 0.1,
        },
    );
    assert!(stats.ce_loss.is_finite());
    assert!(stats.cl_loss.is_finite());
    let acc = client.evaluate();
    assert!(acc.is_finite());
}

#[test]
#[should_panic(expected = "empty training shard")]
fn zero_sample_client_rejected() {
    let data = small_data(23);
    let model = build_model(ModelArch::MicroAlexNet, (1, 12, 12), 8, 4, 2);
    let hp = HyperParams::micro_default();
    let _ = Client::new(
        0,
        model,
        data.train.subset(&[]),
        data.test,
        fedclassavg_suite::data::augment::AugmentConfig::identity(),
        1.0,
        &hp,
        2,
    );
}

#[test]
#[should_panic(expected = "classifier shape mismatch")]
fn mismatched_feature_dims_rejected() {
    let mut model = build_model(ModelArch::CnnFedAvg, (1, 12, 12), 8, 4, 3);
    let wrong = ClassifierWeights::zeros(16, 4);
    model.classifier.set_weights(&wrong);
}

#[test]
fn fedproto_skips_mismatched_prototype_dims() {
    let data = small_data(24);
    let cfg = small_cfg(24);
    let mut fleet = build_fleet(&data, Partitioner::Dirichlet { alpha: 0.5 }, &cfg, &|k| {
        ModelArch::ProtoCnn {
            width_variant: k % 4,
        }
    });
    // Server configured for the wrong feature dimension: every uplink
    // prototype is mis-sized, so aggregation must treat each one like a
    // corrupt payload — skipped, leaving every global prototype unset —
    // rather than crashing the round.
    let mut algo = FedProto::new(cfg.feature_dim + 1, 4, 1.0);
    let net = Network::new(cfg.num_clients);
    algo.round(0, &mut fleet, &[0, 1, 2, 3], &net, &cfg.hp);
    assert!(
        algo.prototypes().iter().all(|p| p.is_none()),
        "a mis-sized prototype leaked into aggregation"
    );
}

#[test]
fn malformed_wire_bytes_are_rejected() {
    let garbage = bytes::Bytes::copy_from_slice(&[42u8, 1, 0, 0, 0, 7, 7, 7]);
    assert!(WireMessage::decode(garbage).is_err());
}

#[test]
fn empty_class_histogram_is_consistent() {
    // A dataset where one class never appears still partitions cleanly.
    let data = small_data(25);
    let keep: Vec<usize> = (0..data.train.len())
        .filter(|&i| data.train.labels[i] != 3)
        .collect();
    let train = data.train.subset(&keep);
    let splits = Partitioner::Dirichlet { alpha: 0.5 }.split(&train, &data.test, 3, 9);
    let mut all: Vec<usize> = splits
        .iter()
        .flat_map(|s| s.train_indices.clone())
        .collect();
    let n = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), n);
    let hist: Vec<usize> = {
        let mut h = vec![0usize; 4];
        for s in &splits {
            for &i in &s.train_indices {
                h[train.labels[i]] += 1;
            }
        }
        h
    };
    assert_eq!(hist[3], 0, "phantom examples of the removed class");
}

#[test]
fn evaluate_on_empty_test_set_returns_zero() {
    let data = small_data(26);
    let model = build_model(ModelArch::CnnFedAvg, (1, 12, 12), 8, 4, 4);
    let hp = HyperParams::micro_default();
    let empty_test = Dataset::new(Tensor::zeros([0, 1, 12, 12]), vec![], 4);
    let mut client = Client::new(
        0,
        model,
        data.train.subset(&[0, 1, 2, 3]),
        empty_test,
        fedclassavg_suite::data::augment::AugmentConfig::identity(),
        1.0,
        &hp,
        5,
    );
    assert_eq!(client.evaluate(), 0.0);
}
