//! Integration tests of the training substrate itself: a micro model must
//! actually fit data end to end, the composite FedClassAvg objective must
//! cooperate with the optimizer, and BatchNorm must behave across
//! train/eval boundaries.

use fedclassavg_suite::data::augment::AugmentConfig;
use fedclassavg_suite::data::synth::SynthConfig;
use fedclassavg_suite::fed::client::{Client, LocalObjective};
use fedclassavg_suite::fed::config::HyperParams;
use fedclassavg_suite::models::classifier::ClassifierWeights;
use fedclassavg_suite::models::{build_model, ModelArch};
use fedclassavg_suite::nn::loss::{accuracy, cross_entropy};
use fedclassavg_suite::nn::optim::{Adam, Optimizer};
use fedclassavg_suite::tensor::Workspace;

fn tiny_data(seed: u64) -> fedclassavg_suite::data::synth::SynthDataset {
    let mut cfg = SynthConfig::synth_fashion(seed).with_sizes(120, 60);
    cfg.num_classes = 3;
    cfg.height = 12;
    cfg.width = 12;
    cfg.noise_std = 0.2;
    cfg.generate()
}

/// Every architecture in the zoo can overfit a small shard to high
/// training accuracy — the basic "the gradients are right" signal.
#[test]
fn every_arch_fits_small_data() {
    for arch in [
        ModelArch::MicroResNet,
        ModelArch::MicroShuffleNet,
        ModelArch::MicroGoogLeNet,
        ModelArch::MicroAlexNet,
        ModelArch::CnnFedAvg,
        ModelArch::ProtoCnn { width_variant: 1 },
    ] {
        let data = tiny_data(31);
        let mut model = build_model(arch, (1, 12, 12), 12, 3, 5);
        let mut opt = Adam::new(3e-3);
        let mut ws = Workspace::new();
        let idx: Vec<usize> = (0..48).collect();
        let (x, y) = data.train.gather_batch(&idx);
        let mut last_acc = 0.0;
        for _ in 0..40 {
            model.zero_grad();
            let (features, logits) = model.forward(&x, true, &mut ws);
            let (_, d_logits) = cross_entropy(&logits, &y);
            model.backward(None, &d_logits, &mut ws);
            opt.step(&mut model.params_mut());
            last_acc = accuracy(&logits, &y);
            ws.recycle(features);
            ws.recycle(logits);
        }
        assert!(
            last_acc > 0.8,
            "{arch:?} failed to fit 48 samples: train acc {last_acc}"
        );
    }
}

/// The full FedClassAvg objective must reduce all of its components over
/// successive local updates.
#[test]
fn composite_objective_decreases() {
    let data = tiny_data(32);
    let model = build_model(ModelArch::MicroResNet, (1, 12, 12), 12, 3, 7);
    let hp = HyperParams::micro_default().with_lr(3e-3);
    let mut client = Client::new(
        0,
        model,
        data.train.clone(),
        data.test.clone(),
        AugmentConfig::mnist_like(),
        1.0,
        &hp,
        8,
    );
    let global = ClassifierWeights::zeros(12, 3);
    let obj = LocalObjective {
        contrastive: true,
        rho: 0.1,
    };
    let first = client.local_update_fedclassavg(Some(&global), &hp, obj);
    for _ in 0..6 {
        client.local_update_fedclassavg(Some(&global), &hp, obj);
    }
    let last = client.local_update_fedclassavg(Some(&global), &hp, obj);
    assert!(
        last.ce_loss < first.ce_loss,
        "CE did not decrease: {} → {}",
        first.ce_loss,
        last.ce_loss
    );
    assert!(
        last.cl_loss < first.cl_loss + 0.5,
        "contrastive loss diverged: {} → {}",
        first.cl_loss,
        last.cl_loss
    );
}

/// Proximal regularization keeps the classifier near the global one.
#[test]
fn proximal_bounds_classifier_drift() {
    let data = tiny_data(33);
    let hp = HyperParams::micro_default().with_lr(5e-3);
    let drift = |rho: f32| {
        let model = build_model(ModelArch::CnnFedAvg, (1, 12, 12), 12, 3, 9);
        let mut client = Client::new(
            0,
            model,
            data.train.clone(),
            data.test.clone(),
            AugmentConfig::identity(),
            1.0,
            &hp,
            10,
        );
        let global = client.model.classifier.weights();
        for _ in 0..6 {
            client.local_update_fedclassavg(
                Some(&global),
                &hp,
                LocalObjective {
                    contrastive: false,
                    rho,
                },
            );
        }
        client.model.classifier.weights().l2_distance(&global)
    };
    let free = drift(0.0);
    let tight = drift(5.0);
    assert!(
        tight < free,
        "ρ=5 classifier drifted {tight} vs unregularized {free}"
    );
}

/// BatchNorm-bearing models evaluate sanely right after training (running
/// stats must be usable, not garbage).
#[test]
fn batchnorm_eval_consistency() {
    let data = tiny_data(34);
    let mut model = build_model(ModelArch::MicroResNet, (1, 12, 12), 12, 3, 11);
    let mut opt = Adam::new(3e-3);
    let mut ws = Workspace::new();
    let idx: Vec<usize> = (0..60).collect();
    let (x, y) = data.train.gather_batch(&idx);
    for _ in 0..30 {
        model.zero_grad();
        let (features, logits) = model.forward(&x, true, &mut ws);
        let (_, d) = cross_entropy(&logits, &y);
        model.backward(None, &d, &mut ws);
        opt.step(&mut model.params_mut());
        ws.recycle(features);
        ws.recycle(logits);
    }
    // Eval-mode predictions on the training data should also be good —
    // running statistics track the (repeated) batch statistics.
    let logits_eval = model.predict(&x, &mut ws);
    let acc_eval = accuracy(&logits_eval, &y);
    assert!(acc_eval > 0.7, "eval-mode accuracy collapsed: {acc_eval}");
    assert!(!logits_eval.has_non_finite());
}

/// Deterministic local training: same client seed, same shard, same
/// result — the foundation of reproducible experiments.
#[test]
fn local_training_is_deterministic() {
    let run = || {
        let data = tiny_data(35);
        let model = build_model(ModelArch::MicroShuffleNet, (1, 12, 12), 12, 3, 13);
        let hp = HyperParams::micro_default();
        let mut client = Client::new(
            0,
            model,
            data.train,
            data.test,
            AugmentConfig::mnist_like(),
            1.0,
            &hp,
            14,
        );
        let global = ClassifierWeights::zeros(12, 3);
        client.local_update_fedclassavg(
            Some(&global),
            &hp,
            LocalObjective {
                contrastive: true,
                rho: 0.1,
            },
        );
        client.model.classifier.weights()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "two identical local updates diverged");
}
