//! A Table-2-style run end to end: 20 clients, four architectures, skewed
//! two-class labels, FedClassAvg vs the local-only baseline — then a t-SNE
//! of everyone's features to see the collaborative structure (the paper's
//! Figure 8 analysis, as library calls).
//!
//! ```sh
//! cargo run --release --example heterogeneous_fleet
//! ```

use fedclassavg_suite::data::partition::Partitioner;
use fedclassavg_suite::data::synth::SynthConfig;
use fedclassavg_suite::fed::algo::{Algorithm, FedClassAvg, LocalOnly};
use fedclassavg_suite::fed::config::{FedConfig, HyperParams};
use fedclassavg_suite::fed::sim::{build_fleet, run_federation};
use fedclassavg_suite::metrics::eval::extract_fleet_features;
use fedclassavg_suite::metrics::fairness::fairness_summary;
use fedclassavg_suite::metrics::tsne::{nearest_neighbor_label_agreement, tsne, TsneConfig};
use fedclassavg_suite::models::ModelArch;

fn main() {
    let data = SynthConfig::synth_fashion(11)
        .with_sizes(1600, 400)
        .generate();
    let cfg = FedConfig {
        feature_dim: 32,
        eval_every: 5,
        ..FedConfig::new(20, HyperParams::micro_default(), 10, 11)
    };

    let mut summaries = Vec::new();
    for (name, mut algo) in [
        (
            "baseline".to_string(),
            Box::new(LocalOnly::new()) as Box<dyn Algorithm>,
        ),
        (
            "FedClassAvg".to_string(),
            Box::new(FedClassAvg::new(
                cfg.feature_dim,
                data.train.num_classes,
                cfg.seed,
            )),
        ),
    ] {
        let mut fleet = build_fleet(
            &data,
            Partitioner::Skewed {
                classes_per_client: 2,
            },
            &cfg,
            &ModelArch::heterogeneous_rotation,
        );
        let result = run_federation(&mut fleet, algo.as_mut(), &cfg);
        println!(
            "{name}: final accuracy {:.4} ± {:.4}",
            result.final_mean, result.final_std
        );
        let fairness = fairness_summary(&result.per_client_acc);
        println!(
            "  fairness: worst client {:.3}, worst decile {:.3}, Jain index {:.3}",
            fairness.min, fairness.worst_decile_mean, fairness.jain_index
        );

        // Embed everyone's features: do same-label points from different
        // clients mix (the Figure 8 signature of FedClassAvg)?
        let ff = extract_fleet_features(&mut fleet, 8);
        let y = tsne(
            &ff.features,
            &TsneConfig {
                perplexity: 12.0,
                iterations: 150,
                seed: 1,
                ..Default::default()
            },
        );
        let by_label = nearest_neighbor_label_agreement(&y, &ff.labels);
        let by_client = nearest_neighbor_label_agreement(&y, &ff.client_ids);
        println!("  t-SNE neighbours share label: {by_label:.3}, share client: {by_client:.3}");
        summaries.push((name, result.final_mean, by_label));
    }

    let (ref b_name, b_acc, b_label) = summaries[0];
    let (ref o_name, o_acc, o_label) = summaries[1];
    println!(
        "\n{o_name} vs {b_name}: accuracy {:+.4}, label-clustering {:+.3}",
        o_acc - b_acc,
        o_label - b_label
    );
}
