//! Reproduce **Figures 2–3**: the non-iid label distribution across 20
//! clients under Dir(0.5) and two-class skew, for CIFAR-10 (Fig. 2, with
//! Fashion-MNIST "similarly distributed") and EMNIST (Fig. 3).
//!
//! The paper shows these as bubble plots; we print the per-client label
//! histograms (one row per client, one column per class) and write the raw
//! counts to `results/`.

use fca_bench::experiments::{DatasetKind, ExperimentContext};
use fca_bench::report::{object, write_json};
use fca_data::partition::{histogram_table, Partitioner};
use serde_json::Value;

fn main() {
    let ctx = ExperimentContext::from_env();
    let mut records = Vec::new();
    for (fig, d) in [(2, DatasetKind::Cifar), (3, DatasetKind::Emnist)] {
        let data = d.generate(&ctx);
        for (dist_name, dist) in [
            ("Dir(0.5)", Partitioner::Dirichlet { alpha: 0.5 }),
            (
                "Skewed (2 classes)",
                Partitioner::Skewed {
                    classes_per_client: 2,
                },
            ),
        ] {
            let splits = dist.split(&data.train, &data.test, ctx.num_clients(), ctx.seed);
            println!("== Figure {fig}: {} — {dist_name} ==", d.name());
            println!("{}", histogram_table(&data.train, &splits));

            let histogram: Vec<Vec<usize>> = splits
                .iter()
                .map(|s| {
                    let mut h = vec![0usize; data.train.num_classes];
                    for &i in &s.train_indices {
                        h[data.train.labels[i]] += 1;
                    }
                    h
                })
                .collect();
            // The figures' defining properties, checked here so the binary
            // fails loudly if the partitioner regresses.
            let sizes: Vec<usize> = histogram.iter().map(|h| h.iter().sum()).collect();
            let (min, max) = (
                *sizes.iter().min().expect("clients"),
                *sizes.iter().max().expect("clients"),
            );
            assert!(max - min <= 1, "client shards not equal-sized: {sizes:?}");
            records.push(object([
                ("dataset", d.name().into()),
                ("distribution", dist_name.into()),
                // `histogram[client][class]` counts.
                ("histogram", histogram.into()),
            ]));
        }
    }
    match write_json("fig2_3_partitions", &Value::Array(records)) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write results JSON: {e}"),
    }
}
