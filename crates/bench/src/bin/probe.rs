//! Calibration probe (not a paper artifact): run a configurable subset of
//! methods on one dataset/distribution and print final accuracies fast.
//! Used to sanity-check that the micro-scale setup preserves the paper's
//! orderings before launching the long table runs.
//!
//! `probe [--quick] [--dataset fashion] [--dist dir|skew]
//!        [--methods baseline,proposed,ca,ktpfl,fedproto]`

#![expect(
    clippy::disallowed_methods,
    reason = "bench binaries time wall-clock by design"
)]

use fca_bench::experiments::{run_heterogeneous, DatasetKind, ExperimentContext, Method};
use fca_data::partition::Partitioner;

fn main() {
    let ctx = ExperimentContext::from_env();
    let args: Vec<String> = std::env::args().collect();
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let dataset = match get("--dataset").as_deref() {
        Some("cifar") => DatasetKind::Cifar,
        Some("emnist") => DatasetKind::Emnist,
        _ => DatasetKind::Fashion,
    };
    let dist = match get("--dist").as_deref() {
        Some("skew") => Partitioner::Skewed {
            classes_per_client: 2,
        },
        _ => Partitioner::Dirichlet { alpha: 0.5 },
    };
    let rho = dataset.hyperparams().rho;
    let wanted = get("--methods").unwrap_or_else(|| "baseline,proposed".into());
    let methods: Vec<(String, Method)> = wanted
        .split(',')
        .filter_map(|m| {
            let method = match m {
                "baseline" => Method::Baseline,
                "proposed" => Method::FedClassAvg,
                "ktpfl" => Method::KtPfl,
                "fedproto" => Method::FedProto,
                "ca" => Method::Ablation {
                    contrastive: false,
                    rho: 0.0,
                },
                "ca_pr" => Method::Ablation {
                    contrastive: false,
                    rho,
                },
                "ca_cl" => Method::Ablation {
                    contrastive: true,
                    rho: 0.0,
                },
                _ => return None,
            };
            Some((m.to_string(), method))
        })
        .collect();

    println!(
        "probe: {} / {:?} / clients {} / epochs {} / feat {} / train {}",
        dataset.name(),
        dist,
        ctx.num_clients(),
        ctx.epoch_budget(),
        ctx.feature_dim(),
        ctx.train_size(dataset),
    );
    for (name, m) in methods {
        let t0 = std::time::Instant::now();
        let r = run_heterogeneous(&ctx, dataset, dist, m);
        println!(
            "{name:<10} acc {:.4} ± {:.4}  ({:.0}s, curve {})",
            r.final_mean,
            r.final_std,
            t0.elapsed().as_secs_f32(),
            r.curve
                .iter()
                .map(|p| format!("{:.2}", p.mean_acc))
                .collect::<Vec<_>>()
                .join(">")
        );
    }
}
