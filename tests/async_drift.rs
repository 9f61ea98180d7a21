//! Buffered asynchronous aggregation and streaming drift, end-to-end:
//! same-seed replays are bit-identical (stragglers, staleness buffer, and
//! drift re-shards included), checkpoint/resume preserves the staleness
//! buffer and the drift position, and buffered aggregation degrades to
//! the synchronous barrier when nothing straggles.

use fedclassavg_suite::data::partition::Partitioner;
use fedclassavg_suite::data::synth::SynthConfig;
use fedclassavg_suite::fed::algo::FedClassAvg;
use fedclassavg_suite::fed::checkpoint::Checkpoint;
use fedclassavg_suite::fed::comm::FaultPlan;
use fedclassavg_suite::fed::config::{Aggregation, DriftSchedule, FedConfig, HyperParams};
use fedclassavg_suite::fed::fleet::Fleet;
use fedclassavg_suite::fed::sim::{build_fleet, run_federation, run_federation_from, RunState};
use fedclassavg_suite::fed::{RoundMetrics, RunResult};
use fedclassavg_suite::models::ModelArch;

const CLASSES: usize = 4;
const FEAT: usize = 12;

fn small_data(seed: u64) -> fedclassavg_suite::data::synth::SynthDataset {
    let mut cfg = SynthConfig::synth_fashion(seed).with_sizes(320, 160);
    cfg.num_classes = CLASSES;
    cfg.height = 14;
    cfg.width = 14;
    cfg.generate()
}

fn small_cfg(seed: u64, rounds: usize) -> FedConfig {
    FedConfig {
        num_clients: 4,
        sample_rate: 1.0,
        rounds,
        feature_dim: FEAT,
        eval_every: 1,
        seed,
        hp: HyperParams::micro_default().with_lr(3e-3),
        faults: FaultPlan::none(),
        eval_sample: 0,
        eval_precision: fedclassavg_suite::tensor::quant::Precision::F32,
        transport: Default::default(),
        aggregation: Default::default(),
        drift: Default::default(),
    }
}

fn fresh_run(cfg: &FedConfig) -> RunResult {
    let data = small_data(cfg.seed);
    let mut fleet = build_fleet(
        &data,
        Partitioner::Dirichlet { alpha: 0.5 },
        cfg,
        &ModelArch::heterogeneous_rotation,
    );
    let mut algo = FedClassAvg::new(cfg.feature_dim, data.train.num_classes, cfg.seed);
    run_federation(&mut fleet, &mut algo, cfg)
}

fn assert_bit_identical(a: &RunResult, b: &RunResult, label: &str) {
    assert_eq!(a.final_mean.to_bits(), b.final_mean.to_bits(), "{label}");
    assert_eq!(a.final_std.to_bits(), b.final_std.to_bits(), "{label}");
    assert_eq!(a.per_client_acc.len(), b.per_client_acc.len(), "{label}");
    for (x, y) in a.per_client_acc.iter().zip(&b.per_client_acc) {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: per-client diverged");
    }
    assert_eq!(a.curve.len(), b.curve.len(), "{label}: curve length");
    for (x, y) in a.curve.iter().zip(&b.curve) {
        assert_eq!(x.round, y.round, "{label}");
        assert_eq!(x.mean_acc.to_bits(), y.mean_acc.to_bits(), "{label}");
        assert_eq!(x.std_acc.to_bits(), y.std_acc.to_bits(), "{label}");
        assert_eq!(x.dropped, y.dropped, "{label}");
        assert_eq!(x.stale, y.stale, "{label}: stale counter diverged");
        assert_eq!(x.expired, y.expired, "{label}: expired counter diverged");
    }
    assert_eq!(a.stale, b.stale, "{label}: total stale");
    assert_eq!(a.expired, b.expired, "{label}: total expired");
    assert_eq!(a.downlink_bytes, b.downlink_bytes, "{label}");
    assert_eq!(a.uplink_bytes, b.uplink_bytes, "{label}");
}

/// ISSUE acceptance: a buffered run at 30% stragglers is deterministic —
/// two fresh same-seed runs match bit-for-bit, staleness buffer and all.
#[test]
fn buffered_run_with_stragglers_replays_bit_identically() {
    let mut cfg = small_cfg(523, 6);
    cfg.faults = FaultPlan::new(523, 0.0, 0.3, 0.0);
    cfg.aggregation = Aggregation::Buffered {
        goal_k: 2,
        max_staleness: 2,
    };
    let a = fresh_run(&cfg);
    let b = fresh_run(&cfg);
    assert_bit_identical(&a, &b, "buffered 30% stragglers");
    assert!(
        a.stale > 0,
        "30% stragglers over 6 rounds never exercised the staleness buffer"
    );
}

/// With no stragglers and `goal_k` = fleet size, the buffered collector
/// sees every uplink fresh, buffers nothing, and the run is bit-identical
/// to the synchronous barrier — the modes only diverge when time does.
#[test]
fn buffered_equals_sync_exactly_when_nothing_straggles() {
    let sync_cfg = small_cfg(91, 5);
    let mut buf_cfg = sync_cfg.clone();
    buf_cfg.aggregation = Aggregation::Buffered {
        goal_k: 4,
        max_staleness: 3,
    };
    let sync = fresh_run(&sync_cfg);
    let buffered = fresh_run(&buf_cfg);
    assert_bit_identical(&sync, &buffered, "sync vs buffered, no stragglers");
    assert_eq!(buffered.stale, 0);
    assert_eq!(buffered.expired, 0);
}

/// With `goal_k` below the fleet size the collector closes each round
/// early and defers the excess; at 0% stragglers the deferred updates all
/// fold one round later at staleness 1, and accuracy stays within noise
/// of the synchronous run.
#[test]
fn buffered_accuracy_stays_within_noise_of_sync_at_zero_stragglers() {
    let sync_cfg = small_cfg(137, 6);
    let mut buf_cfg = sync_cfg.clone();
    buf_cfg.aggregation = Aggregation::Buffered {
        goal_k: 3,
        max_staleness: 2,
    };
    let sync = fresh_run(&sync_cfg);
    let buffered = fresh_run(&buf_cfg);
    assert!(buffered.stale > 0, "goal_k 3 of 4 must defer uplinks");
    assert!(
        (sync.final_mean - buffered.final_mean).abs() < 0.15,
        "buffered aggregation drifted out of noise: sync {:.4} vs buffered {:.4}",
        sync.final_mean,
        buffered.final_mean
    );
}

/// ISSUE acceptance: a buffered run interrupted mid-stream — checkpoint
/// through the binary codec, fresh objects, restore — continues
/// bit-identically. The in-flight staleness buffer rides in the
/// checkpoint; dropping it would change which updates fold after resume.
#[test]
fn buffered_checkpoint_resume_is_bit_identical() {
    let mut cfg = small_cfg(641, 6);
    cfg.faults = FaultPlan::new(641, 0.0, 0.3, 0.0);
    cfg.aggregation = Aggregation::Buffered {
        goal_k: 2,
        max_staleness: 2,
    };
    let full = fresh_run(&cfg);
    assert!(full.stale > 0, "the scenario must exercise the buffer");

    let data = small_data(cfg.seed);
    let make_fleet = |cfg: &FedConfig| -> Fleet {
        build_fleet(
            &data,
            Partitioner::Dirichlet { alpha: 0.5 },
            cfg,
            &ModelArch::heterogeneous_rotation,
        )
    };
    let mut cfg_prefix = cfg.clone();
    cfg_prefix.rounds = 3;
    let mut fleet = make_fleet(&cfg);
    let mut algo = FedClassAvg::new(cfg.feature_dim, data.train.num_classes, cfg.seed);
    let (_, state) = run_federation_from(&mut fleet, &mut algo, &cfg_prefix, RunState::fresh());
    assert!(
        !state.buffer.is_empty(),
        "stop-point must leave updates in flight for the resume to matter"
    );

    let ckpt = Checkpoint::capture(&mut fleet, &algo, &cfg, &state).expect("capture");
    let bytes = ckpt.encode().expect("encode");
    let ckpt = Checkpoint::decode(&bytes).expect("decode");

    let mut fleet = make_fleet(&cfg);
    let mut algo = FedClassAvg::new(cfg.feature_dim, data.train.num_classes, cfg.seed);
    let state = ckpt.restore(&mut fleet, &mut algo, &cfg).expect("restore");
    let (resumed, _) = run_federation_from(&mut fleet, &mut algo, &cfg, state);
    assert_bit_identical(&resumed, &full, "buffered resume");
}

/// A run's fault totals are the sums of its curve's per-point counts, for a
/// resumed run too: the run state keeps no totals of its own, so the curve
/// the checkpoint carries is all the resumed segment counts on.
#[test]
fn run_totals_are_the_curve_sums_across_a_resume() {
    let mut cfg = small_cfg(907, 8);
    cfg.eval_every = 2;
    cfg.faults = FaultPlan::new(907, 0.2, 0.4, 0.2);
    cfg.aggregation = Aggregation::Buffered {
        goal_k: 2,
        max_staleness: 1,
    };
    let full = fresh_run(&cfg);

    let data = small_data(cfg.seed);
    let make_fleet = |cfg: &FedConfig| -> Fleet {
        build_fleet(
            &data,
            Partitioner::Dirichlet { alpha: 0.5 },
            cfg,
            &ModelArch::heterogeneous_rotation,
        )
    };
    let mut cfg_prefix = cfg.clone();
    cfg_prefix.rounds = 4;
    let mut fleet = make_fleet(&cfg);
    let mut algo = FedClassAvg::new(cfg.feature_dim, data.train.num_classes, cfg.seed);
    let (_, state) = run_federation_from(&mut fleet, &mut algo, &cfg_prefix, RunState::fresh());
    let ckpt = Checkpoint::capture(&mut fleet, &algo, &cfg, &state).expect("capture");
    let ckpt = Checkpoint::decode(&ckpt.encode().expect("encode")).expect("decode");
    let mut fleet = make_fleet(&cfg);
    let mut algo = FedClassAvg::new(cfg.feature_dim, data.train.num_classes, cfg.seed);
    let state = ckpt.restore(&mut fleet, &mut algo, &cfg).expect("restore");
    let (resumed, _) = run_federation_from(&mut fleet, &mut algo, &cfg, state);
    assert_bit_identical(&resumed, &full, "resume");

    for (what, run) in [("full", &full), ("resumed", &resumed)] {
        let sum = |count: fn(&RoundMetrics) -> u64| run.curve.iter().map(count).sum::<u64>();
        assert_eq!(
            (run.dropped, run.corrupt, run.stale, run.expired),
            (
                sum(|p| p.dropped),
                sum(|p| p.corrupt),
                sum(|p| p.stale),
                sum(|p| p.expired)
            ),
            "{what}"
        );
    }
    assert!(
        full.dropped > 0 && full.corrupt > 0 && full.stale > 0 && full.expired > 0,
        "every counter must move: {:?}",
        (full.dropped, full.corrupt, full.stale, full.expired)
    );
}

/// Streaming drift is deterministic too: the λ-interpolated re-shards are
/// a pure function of `(seed, λ)`, so a drift run replays bit-identically
/// and survives a mid-drift checkpoint/resume (the resumed segment
/// re-applies its λ position onto the rebuilt fleet before training).
#[test]
fn drift_run_replays_and_resumes_bit_identically() {
    let mut cfg = small_cfg(808, 6);
    cfg.drift = DriftSchedule::over(2, 4);

    let a = fresh_run(&cfg);
    let b = fresh_run(&cfg);
    assert_bit_identical(&a, &b, "drift replay");

    // Checkpoint at round 3 — mid-interpolation, λ = 500‰.
    let data = small_data(cfg.seed);
    let make_fleet = |cfg: &FedConfig| -> Fleet {
        build_fleet(
            &data,
            Partitioner::Dirichlet { alpha: 0.5 },
            cfg,
            &ModelArch::heterogeneous_rotation,
        )
    };
    let mut cfg_prefix = cfg.clone();
    cfg_prefix.rounds = 3;
    let mut fleet = make_fleet(&cfg);
    let mut algo = FedClassAvg::new(cfg.feature_dim, data.train.num_classes, cfg.seed);
    let (_, state) = run_federation_from(&mut fleet, &mut algo, &cfg_prefix, RunState::fresh());

    let ckpt = Checkpoint::capture(&mut fleet, &algo, &cfg, &state).expect("capture");
    let bytes = ckpt.encode().expect("encode");
    let ckpt = Checkpoint::decode(&bytes).expect("decode");

    let mut fleet = make_fleet(&cfg);
    let mut algo = FedClassAvg::new(cfg.feature_dim, data.train.num_classes, cfg.seed);
    let state = ckpt.restore(&mut fleet, &mut algo, &cfg).expect("restore");
    let (resumed, _) = run_federation_from(&mut fleet, &mut algo, &cfg, state);
    assert_bit_identical(&resumed, &a, "mid-drift resume");
}

/// Multi-phase protocols (FedMd, KtPfl) need every client present in
/// every phase; the engine refuses to run them under buffered
/// aggregation instead of silently desynchronizing the phases.
#[test]
#[should_panic(expected = "requires Aggregation::Sync")]
fn multi_phase_protocols_refuse_buffered_aggregation() {
    let mut cfg = small_cfg(11, 2);
    cfg.aggregation = Aggregation::Buffered {
        goal_k: 2,
        max_staleness: 1,
    };
    let data = small_data(cfg.seed);
    let mut fleet = build_fleet(
        &data,
        Partitioner::Dirichlet { alpha: 0.5 },
        &cfg,
        &ModelArch::heterogeneous_rotation,
    );
    let mut public_cfg = SynthConfig::synth_fashion(11).with_sizes(16, 1);
    public_cfg.num_classes = CLASSES;
    public_cfg.height = 14;
    public_cfg.width = 14;
    let public = public_cfg.generate().train.images;
    let mut algo = fedclassavg_suite::fed::algo::FedMd::new(public);
    run_federation(&mut fleet, &mut algo, &cfg);
}
