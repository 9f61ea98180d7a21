//! Quickstart: 8 clients with four different CNN architectures learn a
//! 10-class synthetic image task collaboratively with FedClassAvg,
//! exchanging **only their classifier layers** each round.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Flags:
//!
//! * `--quick` — a 4-round run on a quarter of the data (the CI smoke
//!   configuration; the learning bar is relaxed accordingly).
//! * `--trace` — journal the run to `results/trace/quickstart.jsonl` and
//!   print where it landed; render it with
//!   `cargo run --release -p fca-bench --bin trace_report`.
//! * `--backend <channel|tcp|unix>` — pick the wire transport. Every
//!   backend replays the same seed bit-identically; CI diffs the metrics
//!   across backends to hold the repo to that.
//! * `--buffered` — switch the server from the synchronous barrier to
//!   FedBuff-style buffered aggregation (close each round after 6 of 8
//!   uplinks; stragglers fold into later rounds with staleness-decayed
//!   weight). Same-seed runs stay bit-identical; CI diffs two `--buffered
//!   --quick` runs to hold the repo to that.

use fedclassavg_suite::data::partition::Partitioner;
use fedclassavg_suite::data::synth::SynthConfig;
use fedclassavg_suite::fed::algo::FedClassAvg;
use fedclassavg_suite::fed::config::{Aggregation, FedConfig, HyperParams, TransportKind};
use fedclassavg_suite::fed::sim::{build_fleet, run_federation};
use fedclassavg_suite::models::ModelArch;
use fedclassavg_suite::trace;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let traced = args.iter().any(|a| a == "--trace");
    let buffered = args.iter().any(|a| a == "--buffered");
    let mut transport = TransportKind::InProcess;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" | "--trace" | "--buffered" => {}
            "--backend" => {
                let kind = it.next().expect("--backend needs <channel|tcp|unix>");
                transport = match kind.as_str() {
                    "channel" => TransportKind::InProcess,
                    "tcp" => TransportKind::Tcp,
                    "unix" => TransportKind::UnixSocket,
                    other => panic!("unknown backend {other} (channel|tcp|unix)"),
                };
            }
            other => panic!(
                "unknown flag {other} (usage: quickstart [--quick] [--trace] [--buffered] [--backend <channel|tcp|unix>])"
            ),
        }
    }

    // Tracing observes without steering: with or without `--trace`, the
    // same seed produces bit-identical results (tests/trace_e2e.rs holds
    // the repo to that).
    let journal = std::path::PathBuf::from("results/trace/quickstart.jsonl");
    let guard = traced.then(|| {
        let label = if quick {
            "quickstart --quick"
        } else {
            "quickstart"
        };
        let kernel = fedclassavg_suite::tensor::simd::active().as_str();
        trace::install_file(&journal, label, kernel, "f32").expect("install trace journal")
    });

    // 1. A synthetic Fashion-MNIST-like dataset (1×28×28, 10 classes).
    let (train_n, test_n) = if quick { (600, 200) } else { (1200, 400) };
    let data = SynthConfig::synth_fashion(42)
        .with_sizes(train_n, test_n)
        .generate();

    // 2. Federation setup: 8 clients, non-iid Dir(0.5) label split, and the
    //    paper's hyperparameter shape adapted to micro scale.
    let rounds = if quick { 4 } else { 12 };
    let cfg = FedConfig {
        feature_dim: 32,
        eval_every: if quick { 2 } else { 3 },
        transport,
        aggregation: if buffered {
            Aggregation::Buffered {
                goal_k: 6,
                max_staleness: 2,
            }
        } else {
            Aggregation::Sync
        },
        ..FedConfig::new(8, HyperParams::micro_default(), rounds, 42)
    };
    let mut fleet = build_fleet(
        &data,
        Partitioner::Dirichlet { alpha: 0.5 },
        &cfg,
        // Rotate ResNet / ShuffleNet / GoogLeNet / AlexNet idioms — genuine
        // model heterogeneity; only the classifier shape is shared.
        &ModelArch::heterogeneous_rotation,
    );
    for m in fleet.metas() {
        println!("client {} runs {}", m.id, m.arch.name());
    }

    // 3. Run FedClassAvg.
    let mut algo = FedClassAvg::new(cfg.feature_dim, data.train.num_classes, cfg.seed);
    let result = run_federation(&mut fleet, &mut algo, &cfg);

    // 4. Inspect the learning curve and the wire cost.
    println!("\nround  epochs  mean_acc  std");
    for p in &result.curve {
        println!(
            "{:>5} {:>7} {:>9.4} {:>6.4}",
            p.round, p.epochs, p.mean_acc, p.std_acc
        );
    }
    println!(
        "\nfinal accuracy {:.4} ± {:.4} over {} clients",
        result.final_mean,
        result.final_std,
        result.per_client_acc.len()
    );
    println!(
        "total traffic: {} B down / {} B up ({} B per client-round)",
        result.downlink_bytes,
        result.uplink_bytes,
        result.bytes_per_client_round(cfg.num_clients) as u64,
    );
    if let Some(guard) = guard {
        drop(guard); // flush run_end before pointing at the journal
        println!("trace journal: {}", journal.display());
    }
    let bar = if quick { 0.12 } else { 0.3 };
    assert!(result.final_mean > bar, "federation failed to learn");
}
