//! Reproduce **Figures 4–5**: learning curves of heterogeneous-model
//! training (20 clients), baseline vs KT-pFL vs FedClassAvg, with the
//! x-axis in cumulative **local epochs** (the paper's fairness convention —
//! KT-pFL spends many local epochs per communication round).
//!
//! `--dist dirichlet` → Figure 4 (Dir(0.5)); `--dist skewed` → Figure 5.
//! Default runs both.

use fca_bench::experiments::{run_heterogeneous, DatasetKind, ExperimentContext, Method};
use fca_bench::report::{curve_points, object, write_json};
use fca_data::partition::Partitioner;
use fca_metrics::eval::{curve_sparkline, curve_table};
use serde_json::Value;

fn main() {
    let ctx = ExperimentContext::from_env();
    let args: Vec<String> = std::env::args().collect();
    let which = args
        .iter()
        .position(|a| a == "--dist")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.to_lowercase());
    let dists: Vec<(u8, &str, Partitioner)> = [
        (4u8, "Dir(0.5)", Partitioner::Dirichlet { alpha: 0.5 }),
        (
            5u8,
            "Skewed",
            Partitioner::Skewed {
                classes_per_client: 2,
            },
        ),
    ]
    .into_iter()
    .filter(|(_, name, _)| match &which {
        None => true,
        Some(w) => name.to_lowercase().starts_with(w) || (w == "dirichlet" && *name == "Dir(0.5)"),
    })
    .collect();

    let methods = [Method::Baseline, Method::KtPfl, Method::FedClassAvg];
    let mut records = Vec::new();
    for (fig, dist_name, dist) in dists {
        for d in DatasetKind::ALL {
            println!("== Figure {fig} ({dist_name}) — {} ==", d.name());
            for m in methods {
                let result = run_heterogeneous(&ctx, d, dist, m);
                println!("-- {} --", m.name());
                println!("{}", curve_table(&result.curve));
                println!("   {}", curve_sparkline(&result.curve));
                records.push(object([
                    ("figure", fig.into()),
                    ("dataset", d.name().into()),
                    ("distribution", dist_name.into()),
                    ("method", m.name().into()),
                    ("points", curve_points(&result.curve)),
                ]));
            }
        }
    }
    match write_json("fig4_5_curves", &Value::Array(records)) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write results JSON: {e}"),
    }
}
