//! Reproduce **Table 3**: average test accuracy on homogeneous models
//! under Dir(0.5), for 20 clients (full participation) and 100 clients
//! (sampling rate 0.1); FedAvg, FedProx, KT-pFL (±weight) and FedClassAvg
//! (±weight).
//!
//! `--clients 20|100` restricts to one fleet size (default: both, but 100
//! only at full scale — it is the expensive column).

#![expect(
    clippy::disallowed_methods,
    reason = "bench binaries time wall-clock by design"
)]

use fca_bench::experiments::{run_homogeneous, DatasetKind, ExperimentContext, Method};
use fca_bench::report::{
    comparison_table, comparisons_value, ordering_holds, write_json, Comparison,
};

/// Paper Table 3 means, columns = (20 clients, 100 clients) per dataset in
/// order CIFAR / Fashion / EMNIST.
const PAPER: [(&str, [f64; 6]); 6] = [
    ("FedAvg", [0.7729, 0.6336, 0.8988, 0.7471, 0.9343, 0.8662]),
    ("FedProx", [0.8123, 0.6505, 0.9025, 0.7477, 0.9462, 0.8677]),
    ("KT-pFL", [0.5433, 0.4777, 0.8954, 0.6114, 0.8505, 0.6589]),
    (
        "KT-pFL +weight",
        [0.6809, 0.5624, 0.9113, 0.8647, 0.6774, 0.8441],
    ),
    ("Proposed", [0.7653, 0.5096, 0.9294, 0.6712, 0.9361, 0.7097]),
    (
        "Proposed +weight",
        [0.8546, 0.7817, 0.9361, 0.9057, 0.9464, 0.9166],
    ),
];

fn main() {
    let ctx = ExperimentContext::from_env();
    let args: Vec<String> = std::env::args().collect();
    let only_clients: Option<usize> = args
        .iter()
        .position(|a| a == "--clients")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok());
    let only_dataset = args
        .iter()
        .position(|a| a == "--dataset")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.to_lowercase());

    let fleets: Vec<(usize, f32)> = [(20usize, 1.0f32), (100, 0.1)]
        .into_iter()
        .filter(|(n, _)| only_clients.map(|c| c == *n).unwrap_or(true))
        .collect();
    let methods = [
        Method::FedAvg,
        Method::FedProx,
        Method::KtPfl,
        Method::KtPflWeight,
        Method::FedClassAvg,
        Method::FedClassAvgWeight,
    ];

    let mut rows = Vec::new();
    for d in DatasetKind::ALL {
        if let Some(s) = &only_dataset {
            if !d.name().to_lowercase().starts_with(s.as_str()) {
                continue;
            }
        }
        for &(n, q) in &fleets {
            for m in methods {
                let t0 = std::time::Instant::now();
                let result = run_homogeneous(&ctx, d, n, q, m);
                let setting = format!("{} {n} clients", d.name());
                let col = 2 * match d {
                    DatasetKind::Cifar => 0,
                    DatasetKind::Fashion => 1,
                    DatasetKind::Emnist => 2,
                } + usize::from(n == 100);
                let paper = PAPER
                    .iter()
                    .find(|(name, _)| *name == m.name())
                    .map(|(_, v)| v[col])
                    .unwrap_or(f64::NAN);
                eprintln!(
                    "[table3] {:<20} {:<24} acc {:.4} ± {:.4}  ({:.1}s)",
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
        comparison_table("Table 3 — homogeneous federated learning", &rows)
    );
    for d in DatasetKind::ALL {
        for &(n, _) in &fleets {
            let setting = format!("{} {n} clients", d.name());
            if let Some(holds) = ordering_holds(&rows, "Proposed +weight", "FedAvg", &setting) {
                println!(
                    "ordering Proposed+weight > FedAvg [{setting}]: {}",
                    if holds { "HOLDS" } else { "VIOLATED" }
                );
            }
        }
    }
    match write_json("table3_homogeneous", &comparisons_value(&rows)) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write results JSON: {e}"),
    }
}
