//! Extension experiment (beyond the paper): **half-precision classifier
//! exchange**. FedClassAvg's selling point is its tiny per-round payload;
//! transmitting the classifier in IEEE binary16 halves it again. This
//! binary measures the accuracy cost of the quantization (expected: none —
//! relative error per weight is ≤ 2⁻¹¹, far below SGD noise) and the exact
//! byte savings.
//!
//! Also runs **FedMD** (Li & Wang 2019, the paper's ref \[17\]) next to
//! KT-pFL, isolating the value of learned transfer coefficients over
//! uniform consensus distillation.

use fca_bench::experiments::{public_data, DatasetKind, ExperimentContext};
use fca_bench::report::{field, num, object, write_json};
use fca_data::partition::Partitioner;
use fca_models::ModelArch;
use fedclassavg::algo::{Algorithm, FedClassAvg, FedMd, KtPfl};
use fedclassavg::sim::{build_fleet, run_federation};
use serde_json::Value;

fn main() {
    let ctx = ExperimentContext::from_env();
    let d = DatasetKind::Fashion;
    let dist = Partitioner::Dirichlet { alpha: 0.5 };
    let data = d.generate(&ctx);
    let feat = ctx.feature_dim();
    let classes = d.num_classes();

    let mut records = Vec::new();
    let mut run = |name: &str, mut algo: Box<dyn Algorithm>| {
        let epochs_per_round = algo.epochs_per_round(&d.hyperparams()).max(1);
        let rounds = (ctx.epoch_budget() / epochs_per_round).max(1);
        let cfg = ctx.fed_config(d, ctx.num_clients(), 1.0, rounds);
        let mut fleet = build_fleet(&data, dist, &cfg, &ModelArch::heterogeneous_rotation);
        let r = run_federation(&mut fleet, algo.as_mut(), &cfg);
        let per = r.bytes_per_client_round(ctx.num_clients());
        println!(
            "{name:<24} acc {:.4} ± {:.4}   {:>8.0} B/client-round",
            r.final_mean, r.final_std, per
        );
        records.push(object([
            ("method", name.into()),
            ("final_mean", num(r.final_mean)),
            ("final_std", num(r.final_std)),
            ("bytes_per_client_round", per.into()),
        ]));
    };

    run(
        "FedClassAvg (f32)",
        Box::new(FedClassAvg::new(feat, classes, ctx.seed)),
    );
    run(
        "FedClassAvg (f16)",
        Box::new(FedClassAvg::new(feat, classes, ctx.seed).with_half_precision()),
    );
    let public = public_data(&ctx, d);
    run(
        "FedMD",
        Box::new(FedMd::new(public.clone()).with_local_epochs(ctx.ktpfl_local_epochs())),
    );
    run(
        "KT-pFL",
        Box::new(KtPfl::new(public, ctx.num_clients()).with_local_epochs(ctx.ktpfl_local_epochs())),
    );

    // The extension's claims, checked.
    let get = |n: &str| {
        let r = records
            .iter()
            .find(|r| r["method"].as_str() == Some(n))
            .expect("ran");
        (field(r, "final_mean"), field(r, "bytes_per_client_round"))
    };
    let (f32_mean, f32_bytes) = get("FedClassAvg (f32)");
    let (f16_mean, f16_bytes) = get("FedClassAvg (f16)");
    println!(
        "\nf16 byte savings: {:.1}% ({:.0} → {:.0} B/client-round)",
        100.0 * (1.0 - f16_bytes / f32_bytes),
        f32_bytes,
        f16_bytes
    );
    println!(
        "f16 accuracy impact: {:+.4} (quantization is {})",
        f16_mean - f32_mean,
        if (f16_mean - f32_mean).abs() < 0.03 {
            "free"
        } else {
            "NOT free"
        }
    );

    match write_json("ext_quantized_comm", &Value::Array(records)) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write results JSON: {e}"),
    }
}
