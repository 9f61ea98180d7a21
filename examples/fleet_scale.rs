//! Fleet virtualization at cross-device scale: **100,000 clients on one
//! box**. Every client starts cold (a meta record, no model); each round
//! samples 0.1% of the fleet and the scheduler pages just those clients
//! in, trains them, and pages them back out to compact snapshot blobs.
//! Resident memory scales with the residency cap (32 models here), not
//! the fleet.
//!
//! ```sh
//! cargo run --release --example fleet_scale            # 100k clients
//! cargo run --release --example fleet_scale -- --quick # 1k-client smoke
//! ```
//!
//! Add `--trace` to journal the run (pool occupancy and paging traffic
//! land in `Event::Pool` rows; render with `trace_report`).

use fedclassavg_suite::data::partition::Partitioner;
use fedclassavg_suite::data::synth::tiny_dataset;
use fedclassavg_suite::fed::algo::FedClassAvg;
use fedclassavg_suite::fed::config::{FedConfig, HyperParams};
use fedclassavg_suite::fed::sim::{build_fleet_paged, run_federation_from, RunState};
use fedclassavg_suite::models::ModelArch;
use fedclassavg_suite::trace;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let traced = args.iter().any(|a| a == "--trace");
    for a in &args {
        assert!(
            a == "--quick" || a == "--trace",
            "unknown flag {a} (usage: fleet_scale [--quick] [--trace])"
        );
    }

    // The smoke run checks that the pool's scratch stops growing after the
    // first round. Which pooled arena a hydration lands in is a scheduling
    // accident on more than one thread, so only a one-thread run repeats.
    if quick {
        rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build_global()
            .expect("the global rayon pool is not built yet");
    }

    let journal = std::path::PathBuf::from("results/trace/fleet_scale.jsonl");
    let guard = traced.then(|| {
        let label = if quick {
            "fleet_scale --quick"
        } else {
            "fleet_scale"
        };
        let kernel = fedclassavg_suite::tensor::simd::active().as_str();
        trace::install_file(&journal, label, kernel, "f32").expect("install trace journal")
    });

    // The fleet: 100k clients, one training image each (the cross-device
    // regime — per-device data is tiny, the population is huge). The CI
    // smoke shrinks the population 100×, not the shape of the run.
    let (num_clients, sample_rate, max_resident, eval_sample) = if quick {
        (1_000usize, 0.01f32, 4usize, 8usize)
    } else {
        (100_000, 0.001, 32, 32)
    };
    let cfg = FedConfig {
        sample_rate,
        feature_dim: 8,
        eval_sample,
        ..FedConfig::new(num_clients, HyperParams::micro_default(), 2, 1000)
    };
    println!(
        "fleet: {num_clients} clients, {} sampled/round, residency cap {max_resident}",
        cfg.clients_per_round()
    );

    let data = tiny_dataset(3, num_clients, num_clients / 10, cfg.seed);
    let mut fleet = build_fleet_paged(
        &data,
        Partitioner::Dirichlet { alpha: 0.5 },
        &cfg,
        max_resident,
        &ModelArch::heterogeneous_rotation,
    );
    assert_eq!(fleet.len(), num_clients);
    assert_eq!(
        fleet.clients().count(),
        0,
        "a paged fleet starts with zero materialized clients"
    );

    // One round per segment, so the scratch the workspace pool holds can be
    // read between rounds: it must stop growing once every architecture has
    // been through the pool, however many clients page through after that.
    let mut algo = FedClassAvg::new(cfg.feature_dim, data.train.num_classes, cfg.seed);
    let mut state = RunState::fresh();
    let mut retained = Vec::new();
    let mut result = None;
    for round in 1..=cfg.rounds {
        let segment = FedConfig {
            rounds: round,
            ..cfg.clone()
        };
        let (so_far, next) = run_federation_from(&mut fleet, &mut algo, &segment, state);
        state = next;
        result = Some(so_far);
        retained.push(fleet.pool_retained_bytes());
    }
    let result = result.expect("at least one round");

    println!("\nround  mean_acc  std     (over {eval_sample} sampled clients)");
    for p in &result.curve {
        println!("{:>5} {:>9.4} {:>6.4}", p.round, p.mean_acc, p.std_acc);
    }

    let paging = fleet.paging_stats();
    let pool = fleet.pool_stats();
    println!(
        "\npaging: {} page-ins, {} page-outs, {} snapshot bytes written",
        paging.page_ins, paging.page_outs, paging.page_bytes
    );
    println!(
        "pool: {} workspaces created, high-water {} (cap {max_resident}), {} checkouts",
        pool.created, pool.high_water, pool.checkouts
    );
    let (first, last) = (retained[0], retained[retained.len() - 1]);
    println!(
        "pool scratch retained: {first} B after round 1, {last} B after round {}",
        cfg.rounds
    );
    println!(
        "resident after run: {} of {} clients materialized",
        fleet.clients().count(),
        fleet.len()
    );
    if let Some(guard) = guard {
        drop(guard);
        println!("trace journal: {}", journal.display());
    }

    // The scale claims, checked: training and evaluation both paged, the
    // pool never exceeded the residency cap, and nothing stayed resident.
    assert!(paging.page_ins > 0, "a paged run must page clients in");
    assert!(paging.page_outs > 0, "training must page clients back out");
    assert!(paging.page_bytes > 0);
    assert!(
        pool.high_water as usize <= max_resident,
        "pool high-water {} exceeded the residency cap {max_resident}",
        pool.high_water
    );
    assert_eq!(
        fleet.clients().count(),
        0,
        "no client may stay materialized"
    );
    // Round 1 took every architecture through the pool; later rounds page
    // other clients through the same buffers.
    assert!(
        !quick || first == last,
        "pool scratch grew from {first} B to {last} B after the first round"
    );
    assert_eq!(result.per_client_acc.len(), eval_sample);
    assert!(result.curve.iter().all(|p| p.mean_acc.is_finite()));
}
