//! Reproduce **Table 5**: per-round per-client communication cost of
//! full-model sharing (ResNet-18), KT-pFL (public data), and FedClassAvg
//! (classifier only), at **paper scale** (512-dim features, 10 classes,
//! 3,000 public CIFAR images) — and, as a cross-check, the *measured*
//! wire traffic of our micro-scale simulation for the same three regimes.

use fca_bench::experiments::{run, DatasetKind, ExperimentContext, Method, Setting};
use fca_bench::report::{object, write_json};
use fca_bench::tables::DIR;
use fca_models::descriptors::{
    classifier_bytes, fedproto_bytes, ktpfl_public_bytes, resnet18_descriptor,
};
use serde_json::Value;

fn human(bytes: u64) -> String {
    if bytes >= 1_048_576 {
        format!("{:.2} MB", bytes as f64 / 1_048_576.0)
    } else if bytes >= 1024 {
        format!("{:.1} KB", bytes as f64 / 1024.0)
    } else {
        format!("{bytes} B")
    }
}

fn main() {
    let ctx = ExperimentContext::from_env();

    // --- Paper-scale analytic costs -------------------------------------
    let resnet = resnet18_descriptor(512, 10).state_bytes(200) as u64;
    let ktpfl = ktpfl_public_bytes(3000, 3 * 32 * 32) as u64;
    let ours = classifier_bytes(512, 10) as u64;
    let proto = fedproto_bytes(512, 10) as u64;

    // (method, the paper's MB, our analytic bytes)
    let rows = [
        ("Model sharing (ResNet-18)", 43.73, resnet),
        ("KT-pFL (3000 public imgs)", 8.9, ktpfl),
        ("Proposed (512×10 classifier)", 22.0 / 1024.0, ours),
        ("FedProto (§5.4, 512×10 prototypes)", f64::NAN, proto),
    ];

    println!("== Table 5 — communication cost per client per round (paper scale) ==");
    println!("{:<38} {:>12} {:>14}", "method", "paper", "ours (analytic)");
    for &(method, paper_mb, bytes) in &rows {
        let paper = if paper_mb.is_nan() {
            "-".to_string()
        } else if paper_mb < 1.0 {
            format!("{:.0} KB", paper_mb * 1024.0)
        } else {
            format!("{paper_mb:.2} MB")
        };
        println!("{:<38} {:>12} {:>14}", method, paper, human(bytes));
    }
    assert!(ours < ktpfl && ktpfl < resnet, "Table 5 ordering violated");
    println!(
        "\nratios: model-sharing / proposed = {:.0}×, KT-pFL / proposed = {:.0}×",
        resnet as f64 / ours as f64,
        ktpfl as f64 / ours as f64
    );

    // --- Micro-scale measured traffic ------------------------------------
    println!("\n-- measured wire traffic of the micro simulation (per client per round) --");
    let setting = Setting::heterogeneous(DatasetKind::Fashion, DIR);
    let mut measured = Vec::new();
    for m in [Method::FedClassAvg, Method::KtPfl, Method::FedProto] {
        let (result, _) = run(&ctx, &setting, m, ctx.seed);
        let per = result.bytes_per_client_round(ctx.num_clients());
        println!("{:<28} {:>12.0} B  ({})", m.name(), per, human(per as u64));
        measured.push((m.name(), per));
    }
    // Shape check at micro scale too: classifier exchange ≪ KT-pFL.
    let get = |n: &str| {
        measured
            .iter()
            .find(|(m, _)| m == n)
            .map_or(f64::NAN, |&(_, per)| per)
    };
    println!(
        "measured ordering Proposed < KT-pFL: {}",
        if get("Proposed") < get("KT-pFL") {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    );

    let rows = rows
        .iter()
        .map(|&(method, paper_mb, bytes)| {
            object([
                ("method", method.into()),
                ("paper_mb", paper_mb.into()),
                ("analytic_bytes", bytes.into()),
                ("analytic_human", human(bytes).into()),
            ])
        })
        .collect();
    let measured = measured
        .into_iter()
        .map(|(method, per)| {
            object([
                ("method", method.into()),
                ("measured_bytes_per_client_round", per.into()),
            ])
        })
        .collect();
    let json = Value::Array(vec![Value::Array(rows), Value::Array(measured)]);
    match write_json("table5_comm_cost", &json) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write results JSON: {e}"),
    }
}
