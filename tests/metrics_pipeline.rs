//! Integration of the analysis pipeline (the Figures 8–9 machinery) on a
//! real trained mini-fleet: feature extraction → t-SNE → clustering
//! statistics, and conductance → rank agreement, plus the fairness
//! summaries over a federation's outcome.

use fedclassavg_suite::data::partition::Partitioner;
use fedclassavg_suite::data::synth::SynthConfig;
use fedclassavg_suite::fed::algo::{FedClassAvg, LocalOnly};
use fedclassavg_suite::fed::config::{FedConfig, HyperParams};
use fedclassavg_suite::fed::fleet::Fleet;
use fedclassavg_suite::fed::sim::{build_fleet, run_federation};
use fedclassavg_suite::metrics::conductance::{
    layer_conductance, mean_pairwise_rank_agreement, rank_scores,
};
use fedclassavg_suite::metrics::eval::extract_fleet_features;
use fedclassavg_suite::metrics::fairness::fairness_summary;
use fedclassavg_suite::metrics::tsne::{nearest_neighbor_label_agreement, tsne, TsneConfig};
use fedclassavg_suite::models::ModelArch;
use fedclassavg_suite::nn::Module as _;
use fedclassavg_suite::tensor::Workspace;

fn trained_fleet(seed: u64, federated: bool) -> (Fleet, fedclassavg_suite::fed::sim::RunResult) {
    let mut dcfg = SynthConfig::synth_fashion(seed).with_sizes(240, 120);
    dcfg.num_classes = 4;
    dcfg.height = 12;
    dcfg.width = 12;
    let data = dcfg.generate();
    let cfg = FedConfig {
        feature_dim: 12,
        eval_every: 6,
        ..FedConfig::new(4, HyperParams::micro_default().with_lr(3e-3), 6, seed)
    };
    let mut fleet = build_fleet(
        &data,
        Partitioner::Skewed {
            classes_per_client: 2,
        },
        &cfg,
        &ModelArch::heterogeneous_rotation,
    );
    let result = if federated {
        let mut algo = FedClassAvg::new(cfg.feature_dim, 4, cfg.seed);
        run_federation(&mut fleet, &mut algo, &cfg)
    } else {
        let mut algo = LocalOnly::new();
        run_federation(&mut fleet, &mut algo, &cfg)
    };
    (fleet, result)
}

#[test]
fn tsne_pipeline_runs_on_trained_features() {
    let (mut fleet, _) = trained_fleet(41, true);
    let ff = extract_fleet_features(&mut fleet, 10);
    assert!(ff.features.dims()[0] >= 20);
    let y = tsne(
        &ff.features,
        &TsneConfig {
            perplexity: 8.0,
            iterations: 120,
            seed: 1,
            ..Default::default()
        },
    );
    assert_eq!(y.dims(), &[ff.labels.len(), 2]);
    assert!(!y.has_non_finite(), "t-SNE diverged on trained features");
    let label_agreement = nearest_neighbor_label_agreement(&y, &ff.labels);
    // Trained features must cluster far above the 1/4 chance level.
    assert!(label_agreement > 0.4, "label agreement {label_agreement}");
}

#[test]
fn conductance_pipeline_on_trained_classifiers() {
    let (mut fleet, _) = trained_fleet(43, true);
    // Shared probe: first test image of client 0.
    let (x, y) = fleet.client_mut(0).test_data.gather_batch(&[0]);
    let label = y[0];
    let mut ws = Workspace::new();
    let mut ranks = Vec::new();
    for c in fleet.clients_mut() {
        let feats = c.model.feature_extractor.forward(&x, false, &mut ws);
        let baseline = vec![0.0f32; feats.dims()[1]];
        let cond = layer_conductance(
            &c.model.classifier.weights(),
            feats.row(0),
            &baseline,
            label,
            4,
        );
        // Completeness must hold on real weights too: the attributions sum
        // to f_label(features) − f_label(baseline) of the linear head.
        let weights = c.model.classifier.weights();
        let w = weights.weight.row(label);
        let delta: f32 = w.iter().zip(feats.row(0)).map(|(w, z)| w * z).sum();
        let total: f32 = cond.iter().sum();
        assert!(
            (total - delta).abs() < 1e-3 * (1.0 + delta.abs()),
            "completeness violated: {total} vs {delta}"
        );
        ranks.push(rank_scores(&cond));
    }
    let agreement = mean_pairwise_rank_agreement(&ranks);
    assert!((-1.0..=1.0).contains(&agreement));
}

#[test]
fn rank_agreement_statistic_is_well_defined_for_both_regimes() {
    // The *directional* Figure 9 claim (federated > local agreement) needs
    // converged models and is exercised by the `fig9_conductance`
    // experiment binary; at this miniature scale (6 rounds) the statistic
    // is dominated by initialization noise. Here we pin down that the
    // pipeline yields a valid, finite Spearman mean for both regimes and
    // that identical classifiers + identical features give agreement 1.
    for federated in [false, true] {
        let (mut fleet, _) = trained_fleet(47, federated);
        let (x, y) = fleet.client_mut(0).test_data.gather_batch(&[0]);
        let label = y[0];
        let mut ws = Workspace::new();
        let mut ranks = Vec::new();
        for c in fleet.clients_mut() {
            let feats = c.model.feature_extractor.forward(&x, false, &mut ws);
            let baseline = vec![0.0f32; feats.dims()[1]];
            let cond = layer_conductance(
                &c.model.classifier.weights(),
                feats.row(0),
                &baseline,
                label,
                4,
            );
            ranks.push(rank_scores(&cond));
        }
        let agreement = mean_pairwise_rank_agreement(&ranks);
        assert!(
            (-1.0..=1.0).contains(&agreement) && agreement.is_finite(),
            "invalid agreement {agreement} (federated = {federated})"
        );
        // Self-consistency: duplicating one client's ranks gives perfect
        // agreement for that pair.
        let dup = vec![ranks[0].clone(), ranks[0].clone()];
        assert!((mean_pairwise_rank_agreement(&dup) - 1.0).abs() < 1e-6);
    }
}

#[test]
fn fairness_summary_of_federation_outcome() {
    let (_, result) = trained_fleet(53, true);
    let s = fairness_summary(&result.per_client_acc);
    assert!((0.0..=1.0).contains(&s.mean));
    assert!(s.min <= s.mean && s.mean <= s.max);
    assert!(s.worst_decile_mean <= s.mean + 1e-6);
    assert!((0.0..=1.0 + 1e-6).contains(&s.jain_index));
}
