//! Reproduce **Figure 8**: t-SNE of the feature representations extracted
//! by every client model on sampled test images — baseline (top row: local
//! training only) vs FedClassAvg (bottom row).
//!
//! The paper's qualitative claim is quantified here: after FedClassAvg,
//! same-label features from *different* clients cluster together, so the
//! nearest-neighbour **label** agreement of the embedding rises relative to
//! the baseline while the nearest-neighbour **client** agreement falls
//! (clients' clusters split up to mix by label).

use fca_bench::experiments::{run, DatasetKind, ExperimentContext, Method, Setting};
use fca_bench::report::{field, num, object, write_json};
use fca_bench::tables::DIR;
use fca_metrics::eval::extract_fleet_features;
use fca_metrics::tsne::{nearest_neighbor_label_agreement, tsne, TsneConfig};
use serde_json::Value;

fn main() {
    let ctx = ExperimentContext::from_env();
    // Paper: Fashion-MNIST features from 1,000 sampled test images. The
    // micro fleet uses fewer points per client, same analysis.
    let setting = Setting::heterogeneous(DatasetKind::Fashion, DIR);
    let per_client = if ctx.quick { 12 } else { 25 };

    let mut records = Vec::new();
    for m in [Method::Baseline, Method::FedClassAvg] {
        eprintln!("[fig8] training {}…", m.name());
        let (_, mut fleet) = run(&ctx, &setting, m, ctx.seed);
        let ff = extract_fleet_features(&mut fleet, per_client);
        eprintln!("[fig8] embedding {} feature rows…", ff.labels.len());
        let cfg = TsneConfig {
            perplexity: 15.0,
            iterations: if ctx.quick { 150 } else { 350 },
            seed: ctx.seed,
            ..Default::default()
        };
        let y = tsne(&ff.features, &cfg);
        let label_agreement = nearest_neighbor_label_agreement(&y, &ff.labels);
        let client_agreement = nearest_neighbor_label_agreement(&y, &ff.client_ids);
        println!(
            "{:<28} NN label agreement {:.3} | NN client agreement {:.3}",
            m.name(),
            label_agreement,
            client_agreement
        );
        let points = (0..ff.labels.len())
            .map(|i| {
                // `[x, y, label, client]` per embedded point.
                let (x, y) = (y.row(i)[0], y.row(i)[1]);
                Value::Array(vec![
                    num(x),
                    num(y),
                    ff.labels[i].into(),
                    ff.client_ids[i].into(),
                ])
            })
            .collect();
        records.push(object([
            ("method", m.name().into()),
            ("label_agreement", num(label_agreement)),
            ("client_agreement", num(client_agreement)),
            ("points", Value::Array(points)),
        ]));
    }

    // The figure's claim, as measurable statements.
    if let [base, ours] = records.as_slice() {
        let (base_label, ours_label) = (
            field(base, "label_agreement"),
            field(ours, "label_agreement"),
        );
        println!(
            "label clustering improves with FedClassAvg: {} ({base_label:.3} → {ours_label:.3})",
            if ours_label >= base_label {
                "HOLDS"
            } else {
                "VIOLATED"
            },
        );
        let (base_client, ours_client) = (
            field(base, "client_agreement"),
            field(ours, "client_agreement"),
        );
        println!(
            "client clusters break up with FedClassAvg:  {} ({base_client:.3} → {ours_client:.3})",
            if ours_client <= base_client {
                "HOLDS"
            } else {
                "VIOLATED"
            },
        );
    }
    match write_json("fig8_tsne", &Value::Array(records)) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write results JSON: {e}"),
    }
}
