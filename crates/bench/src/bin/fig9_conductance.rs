//! Reproduce **Figure 9**: layer-conductance unit attributions at each
//! client's classifier, converted to rank scores and compared across the
//! heterogeneous clients that classify a sampled image correctly.
//!
//! The paper's claim is that despite model heterogeneity, clients trained
//! with FedClassAvg assign similar importance ranks to the same feature
//! units. We print the rank heat map and the mean pairwise Spearman
//! agreement, contrasted with the local-only baseline.

use fca_bench::experiments::{run, DatasetKind, ExperimentContext, Method, Setting};
use fca_bench::report::{field, num, object, write_json};
use fca_bench::tables::DIR;
use fca_metrics::conductance::{
    layer_conductance, mean_pairwise_rank_agreement, rank_heatmap, rank_scores,
};
use serde_json::Value;

fn main() {
    let ctx = ExperimentContext::from_env();
    let mut records = Vec::new();

    for d in DatasetKind::ALL {
        for m in [Method::Baseline, Method::FedClassAvg] {
            eprintln!("[fig9] training {} on {}…", m.name(), d.name());
            let (_, mut fleet) = run(&ctx, &Setting::heterogeneous(d, DIR), m, ctx.seed);

            // Find the label with the most clients answering correctly on a
            // shared probe image (the paper samples such labels).
            let probe_data = d.generate(&ctx).test;
            let mut ws = fca_tensor::Workspace::new();
            let mut best: Option<(usize, usize, Vec<usize>)> = None; // (label, img_idx, correct clients)
            for i in 0..probe_data.len().min(60) {
                let (x, y) = probe_data.gather_batch(&[i]);
                let label = y[0];
                let mut correct: Vec<usize> = Vec::new();
                for c in fleet.clients_mut() {
                    let logits = c.model.predict(&x, &mut ws);
                    let hit = logits.argmax_rows()[0] == label;
                    ws.recycle(logits);
                    if hit {
                        correct.push(c.id);
                    }
                }
                if best
                    .as_ref()
                    .map(|(_, _, b)| correct.len() > b.len())
                    .unwrap_or(true)
                {
                    best = Some((label, i, correct));
                }
            }
            let (label, img_idx, correct) = best.expect("probe set non-empty");
            let (x, _) = probe_data.gather_batch(&[img_idx]);

            // Conductance ranks at each correct client's classifier.
            use fca_nn::Module as _;
            let mut ranks: Vec<Vec<usize>> = Vec::new();
            for c in fleet.clients_mut() {
                if !correct.contains(&c.id) {
                    continue;
                }
                let feats = c.model.feature_extractor.forward(&x, false, &mut ws);
                let baseline = vec![0.0f32; feats.dims()[1]];
                let cond = layer_conductance(
                    &c.model.classifier.weights(),
                    feats.row(0),
                    &baseline,
                    label,
                    8,
                );
                ranks.push(rank_scores(&cond));
            }
            let agreement = mean_pairwise_rank_agreement(&ranks);
            println!(
                "== Figure 9 — {} / {}: label {label}, {} clients correct, rank agreement {:.3} ==",
                d.name(),
                m.name(),
                ranks.len(),
                agreement
            );
            if !ranks.is_empty() {
                println!("{}", rank_heatmap(&ranks, 16));
            }
            records.push(object([
                ("dataset", d.name().into()),
                ("method", m.name().into()),
                ("label", label.into()),
                ("clients_correct", ranks.len().into()),
                ("mean_rank_agreement", num(agreement)),
            ]));
        }
    }

    // Claim: FedClassAvg clients agree more on unit importance than
    // independently trained clients.
    for d in DatasetKind::ALL {
        let get = |m: &str| {
            records
                .iter()
                .find(|r| {
                    r["dataset"].as_str() == Some(d.name()) && r["method"].as_str() == Some(m)
                })
                .map(|r| field(r, "mean_rank_agreement"))
        };
        if let (Some(b), Some(o)) = (get("Baseline (local training)"), get("Proposed")) {
            println!(
                "rank agreement rises with FedClassAvg on {}: {} ({:.3} → {:.3})",
                d.name(),
                if o >= b { "HOLDS" } else { "VIOLATED" },
                b,
                o
            );
        }
    }
    match write_json("fig9_conductance", &Value::Array(records)) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write results JSON: {e}"),
    }
}
