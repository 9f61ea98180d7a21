//! Reproduce **Table 2**: average test accuracy ± std on 20 clients with
//! heterogeneous models (MicroResNet / MicroShuffleNet / MicroGoogLeNet /
//! MicroAlexNet), under Dir(0.5) and two-class-skew label distributions,
//! for the baseline, FedProto, KT-pFL, and FedClassAvg.
//!
//! Usage: `cargo run --release -p fca-bench --bin table2_heterogeneous
//! [--quick] [--seed N] [--dataset cifar|fashion|emnist]`

#![expect(
    clippy::disallowed_methods,
    reason = "bench binaries time wall-clock by design"
)]

use fca_bench::experiments::{run_heterogeneous, DatasetKind, ExperimentContext, Method};
use fca_bench::report::{
    comparison_table, comparisons_value, ordering_holds, write_json, Comparison,
};
use fca_data::partition::Partitioner;

/// Paper Table 2 means, indexed `[method][dataset × dist]` in the order
/// (CIFAR Dir, CIFAR Skew, Fashion Dir, Fashion Skew, EMNIST Dir, EMNIST Skew).
const PAPER: [(&str, [f64; 6]); 4] = [
    (
        "Baseline (local training)",
        [0.6894, 0.8871, 0.8840, 0.9430, 0.9149, 0.9671],
    ),
    ("FedProto", [0.4742, 0.8359, 0.6042, 0.6364, 0.2249, 0.2183]),
    ("KT-pFL", [0.6228, 0.8721, 0.9039, 0.9737, 0.9055, 0.9921]),
    ("Proposed", [0.7670, 0.9202, 0.9303, 0.9800, 0.9305, 0.9957]),
];

fn main() {
    let ctx = ExperimentContext::from_env();
    let args: Vec<String> = std::env::args().collect();
    let only_dataset = args
        .iter()
        .position(|a| a == "--dataset")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.to_lowercase());
    let datasets: Vec<DatasetKind> = DatasetKind::ALL
        .into_iter()
        .filter(|d| match &only_dataset {
            None => true,
            Some(s) => d.name().to_lowercase().starts_with(s),
        })
        .collect();
    let methods = [
        Method::Baseline,
        Method::FedProto,
        Method::KtPfl,
        Method::FedClassAvg,
    ];
    let dists: [(&str, Partitioner); 2] = [
        ("Dir(0.5)", Partitioner::Dirichlet { alpha: 0.5 }),
        (
            "Skewed",
            Partitioner::Skewed {
                classes_per_client: 2,
            },
        ),
    ];

    let mut rows: Vec<Comparison> = Vec::new();
    for &d in &datasets {
        for (dist_name, dist) in dists {
            for &m in &methods {
                let t0 = std::time::Instant::now();
                let result = run_heterogeneous(&ctx, d, dist, m);
                let setting = format!("{} {}", d.name(), dist_name);
                let col = dataset_dist_column(d, dist_name);
                let paper = PAPER
                    .iter()
                    .find(|(name, _)| *name == m.name())
                    .map(|(_, v)| v[col])
                    .unwrap_or(f64::NAN);
                eprintln!(
                    "[table2] {:<26} {:<22} acc {:.4} ± {:.4}  ({:.1}s)",
                    m.name(),
                    setting,
                    result.final_mean,
                    result.final_std,
                    t0.elapsed().as_secs_f32()
                );
                rows.push(Comparison {
                    method: m.name(),
                    setting,
                    paper,
                    measured: result.final_mean as f64,
                    measured_std: Some(result.final_std as f64),
                });
            }
        }
    }

    println!(
        "{}",
        comparison_table("Table 2 — heterogeneous personalized FL", &rows)
    );

    // The reproduction criterion: FedClassAvg beats KT-pFL and FedProto in
    // every setting it did in the paper.
    for &d in &datasets {
        for (dist_name, _) in dists {
            let setting = format!("{} {}", d.name(), dist_name);
            for competitor in ["KT-pFL", "FedProto"] {
                if let Some(holds) = ordering_holds(&rows, "Proposed", competitor, &setting) {
                    println!(
                        "ordering Proposed > {competitor:<10} [{setting}]: {}",
                        if holds { "HOLDS" } else { "VIOLATED" }
                    );
                }
            }
        }
    }

    match write_json("table2_heterogeneous", &comparisons_value(&rows)) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write results JSON: {e}"),
    }
}

fn dataset_dist_column(d: DatasetKind, dist: &str) -> usize {
    let base = match d {
        DatasetKind::Cifar => 0,
        DatasetKind::Fashion => 2,
        DatasetKind::Emnist => 4,
    };
    base + usize::from(dist == "Skewed")
}
