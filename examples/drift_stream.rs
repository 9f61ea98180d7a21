//! Streaming drift: the fleet's label distributions shift mid-run and the
//! clients have to adapt.
//!
//! The run configures a [`DriftSchedule`] that linearly interpolates every
//! client's label mix from its initial Dir(α) draw toward an independent
//! target draw across a window of rounds. The example executes the
//! federation one round per segment (the checkpoint/resume path) so it can
//! evaluate **every client after every round**, then folds the per-client
//! accuracy series into the continual-learning metrics from
//! `fca-metrics::drift`: forgetting (pre-drift peak never regained),
//! adaptation (recovery from the post-drift trough), and recovery rounds.
//!
//! ```sh
//! cargo run --release --example drift_stream            # 12 rounds, drift over 4..8
//! cargo run --release --example drift_stream -- --quick # 6 rounds, drift over 2..4 (CI smoke)
//! ```
//!
//! Determinism: the drifted shards are a pure function of `(seed, λ)`, so
//! the whole scenario replays bit-identically at the same seed — segmented
//! execution included.

use fedclassavg_suite::data::partition::Partitioner;
use fedclassavg_suite::data::synth::SynthConfig;
use fedclassavg_suite::fed::algo::FedClassAvg;
use fedclassavg_suite::fed::config::{DriftSchedule, FedConfig, HyperParams};
use fedclassavg_suite::fed::sim::{build_fleet, run_federation_from, RunState};
use fedclassavg_suite::metrics::drift::{
    forgetting, mean_adaptation, mean_forgetting, recovery_rounds,
};
use fedclassavg_suite::models::ModelArch;

fn main() {
    let quick = std::env::args().skip(1).any(|a| match a.as_str() {
        "--quick" => true,
        other => panic!("unknown flag {other} (usage: drift_stream [--quick])"),
    });

    let (rounds, drift_start, drift_end) = if quick { (6, 2, 4) } else { (12, 4, 8) };
    let (train_n, test_n) = if quick { (600, 240) } else { (1200, 480) };
    let data = SynthConfig::synth_fashion(77)
        .with_sizes(train_n, test_n)
        .generate();

    let cfg = FedConfig {
        feature_dim: 32,
        drift: DriftSchedule::over(drift_start, drift_end),
        ..FedConfig::new(8, HyperParams::micro_default(), rounds, 77)
    };
    println!(
        "streaming drift: {} rounds, label mix interpolates over rounds {}..{} (Dir(0.5) → Dir(0.5) target)",
        rounds, drift_start, drift_end
    );

    let mut fleet = build_fleet(
        &data,
        Partitioner::Dirichlet { alpha: 0.5 },
        &cfg,
        &ModelArch::heterogeneous_rotation,
    );
    let mut algo = FedClassAvg::new(cfg.feature_dim, data.train.num_classes, cfg.seed);

    // One segment per round so every client is evaluated after every
    // round: `run_federation_from` ends each segment with a full-fleet
    // sweep, which becomes one point in each client's accuracy series.
    let mut series: Vec<Vec<f32>> = vec![Vec::new(); cfg.num_clients];
    let mut state = RunState::fresh();
    let mut final_result = None;
    for r in 1..=rounds {
        let mut seg = cfg.clone();
        seg.rounds = r;
        let (result, next) = run_federation_from(&mut fleet, &mut algo, &seg, state);
        state = next;
        for (k, acc) in result.per_client_acc.iter().enumerate() {
            series[k].push(*acc);
        }
        if r == rounds {
            final_result = Some(result);
        }
    }
    let result = final_result.expect("at least one round ran");

    println!("\nround  mean_acc  std");
    for p in &result.curve {
        if p.round > 0 {
            println!("{:>5} {:>9.4} {:>6.4}", p.round, p.mean_acc, p.std_acc);
        }
    }

    // Series index r-1 holds the round-r evaluation; the last pre-drift
    // point is round `drift_start` (λ first exceeds zero at the next one).
    let drift_at = drift_start - 1;
    println!("\nclient  forgetting  adaptation  recovery");
    for (k, s) in series.iter().enumerate() {
        let rec = match recovery_rounds(s, drift_at) {
            Some(n) => format!("{n} rounds"),
            None => "not yet".into(),
        };
        println!(
            "{k:>6} {:>11.4} {:>11.4}  {rec}",
            forgetting(s),
            fedclassavg_suite::metrics::drift::adaptation(s, drift_at)
        );
    }
    println!(
        "\nfleet mean: forgetting {:.4}, adaptation {:.4}, final accuracy {:.4} ± {:.4}",
        mean_forgetting(&series),
        mean_adaptation(&series, drift_at),
        result.final_mean,
        result.final_std
    );

    // The smoke bar: the fleet must still be learning through the drift.
    let bar = if quick { 0.12 } else { 0.25 };
    assert!(
        result.final_mean > bar,
        "fleet failed to adapt through the drift (final {:.4} ≤ bar {bar})",
        result.final_mean
    );
}
