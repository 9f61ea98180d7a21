//! Reproduce **Table 4**: the ablation over FedClassAvg's building blocks —
//! classifier averaging alone (CA), with proximal regularization (+PR),
//! with the contrastive loss (+CL), and with both (+PR,CL) — on 20
//! heterogeneous clients under Dir(0.5).

#![expect(
    clippy::disallowed_methods,
    reason = "bench binaries time wall-clock by design"
)]

use fca_bench::experiments::{run_heterogeneous, DatasetKind, ExperimentContext, Method};
use fca_bench::report::{comparison_table, comparisons_value, write_json, Comparison};
use fca_data::partition::Partitioner;

/// Paper Table 4 values per dataset: (CA, +PR, +CL, +PR,CL).
const PAPER: [(DatasetKind, [f64; 4]); 3] = [
    (DatasetKind::Cifar, [0.615, 0.6311, 0.7509, 0.7670]),
    (DatasetKind::Fashion, [0.8578, 0.8971, 0.924, 0.9303]),
    (DatasetKind::Emnist, [0.915, 0.8993, 0.9186, 0.9305]),
];

fn main() {
    let ctx = ExperimentContext::from_env();
    let args: Vec<String> = std::env::args().collect();
    let only_dataset = args
        .iter()
        .position(|a| a == "--dataset")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.to_lowercase());
    let dist = Partitioner::Dirichlet { alpha: 0.5 };

    let mut rows = Vec::new();
    for (d, paper_vals) in PAPER {
        if let Some(s) = &only_dataset {
            if !d.name().to_lowercase().starts_with(s.as_str()) {
                continue;
            }
        }
        let rho = d.hyperparams().rho;
        let variants: [(Method, f64); 4] = [
            (
                Method::Ablation {
                    contrastive: false,
                    rho: 0.0,
                },
                paper_vals[0],
            ),
            (
                Method::Ablation {
                    contrastive: false,
                    rho,
                },
                paper_vals[1],
            ),
            (
                Method::Ablation {
                    contrastive: true,
                    rho: 0.0,
                },
                paper_vals[2],
            ),
            (
                Method::Ablation {
                    contrastive: true,
                    rho,
                },
                paper_vals[3],
            ),
        ];
        for (m, paper) in variants {
            let t0 = std::time::Instant::now();
            let result = run_heterogeneous(&ctx, d, dist, m);
            eprintln!(
                "[table4] {:<10} {:<14} acc {:.4} ± {:.4}  ({:.1}s)",
                m.name(),
                d.name(),
                result.final_mean,
                result.final_std,
                t0.elapsed().as_secs_f32()
            );
            rows.push(Comparison {
                method: m.name(),
                setting: d.name().into(),
                paper,
                measured: result.final_mean as f64,
                measured_std: Some(result.final_std as f64),
            });
        }
    }

    println!(
        "{}",
        comparison_table("Table 4 — ablation (CA / PR / CL)", &rows)
    );
    // Paper's claim: the full objective (CA+PR+CL) is best in all cases.
    for (d, _) in PAPER {
        let setting = d.name();
        let full = rows
            .iter()
            .find(|r| r.setting == setting && r.method == "CA+PR+CL")
            .map(|r| r.measured);
        if let Some(full) = full {
            let best_other = rows
                .iter()
                .filter(|r| r.setting == setting && r.method != "CA+PR+CL")
                .map(|r| r.measured)
                .fold(f64::NEG_INFINITY, f64::max);
            if best_other.is_finite() {
                println!(
                    "full objective best on {setting}: {}",
                    if full >= best_other {
                        "HOLDS"
                    } else {
                        "VIOLATED"
                    }
                );
            }
        }
    }
    match write_json("table4_ablation", &comparisons_value(&rows)) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write results JSON: {e}"),
    }
}
