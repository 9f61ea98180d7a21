//! Reproduce **Figures 6–7**: learning curves of homogeneous-model
//! training under Dir(0.5) — Figure 6 with 20 clients (full
//! participation), Figure 7 with 100 clients at sampling rate 0.1.
//!
//! `--fig 6|7` restricts to one figure.

use fca_bench::experiments::{run_homogeneous, DatasetKind, ExperimentContext, Method};
use fca_bench::report::{curve_points, object, write_json};
use fca_metrics::eval::{curve_sparkline, curve_table};
use serde_json::Value;

fn main() {
    let ctx = ExperimentContext::from_env();
    let args: Vec<String> = std::env::args().collect();
    let only_fig: Option<u8> = args
        .iter()
        .position(|a| a == "--fig")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok());

    let settings: Vec<(u8, usize, f32)> = [(6u8, 20usize, 1.0f32), (7, 100, 0.1)]
        .into_iter()
        .filter(|(f, _, _)| only_fig.map(|x| x == *f).unwrap_or(true))
        .collect();
    let methods = [
        Method::FedAvg,
        Method::KtPflWeight,
        Method::FedClassAvg,
        Method::FedClassAvgWeight,
    ];

    let mut records = Vec::new();
    for (fig, n, q) in settings {
        for d in DatasetKind::ALL {
            println!("== Figure {fig} — {} ({n} clients, q={q}) ==", d.name());
            for m in methods {
                let result = run_homogeneous(&ctx, d, n, q, m);
                println!("-- {} --", m.name());
                println!("{}", curve_table(&result.curve));
                println!("   {}", curve_sparkline(&result.curve));
                records.push(object([
                    ("figure", fig.into()),
                    ("dataset", d.name().into()),
                    ("clients", n.into()),
                    ("method", m.name().into()),
                    ("points", curve_points(&result.curve)),
                ]));
            }
        }
    }
    match write_json("fig6_7_homo_curves", &Value::Array(records)) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write results JSON: {e}"),
    }
}
