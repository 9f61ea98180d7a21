//! The engine's own journal events, end to end: a traced drift run,
//! checkpointed to disk and resumed, writes each segment's `transport`
//! event before its first round, one `drift` event per round where the
//! schedule moves λ (carrying that λ), and a `checkpoint` event for the
//! save and for the load, each carrying the encoded checkpoint's length.
//!
//! One test function: the collector is a process-wide singleton, so
//! concurrent `#[test]`s would interleave their events.

use fedclassavg_suite::data::partition::Partitioner;
use fedclassavg_suite::data::synth::tiny_dataset;
use fedclassavg_suite::fed::algo::FedClassAvg;
use fedclassavg_suite::fed::checkpoint::Checkpoint;
use fedclassavg_suite::fed::config::{DriftSchedule, FedConfig, HyperParams};
use fedclassavg_suite::fed::sim::{build_fleet, run_federation_from, RunState};
use fedclassavg_suite::models::ModelArch;
use fedclassavg_suite::trace::{self, Event};

const SEED: u64 = 913;
const ROUNDS: usize = 6;
const CLIENTS: u64 = 4;
/// The prefix segment's last round; the checkpoint resumes at the next.
const CUT: usize = 3;

#[test]
fn drift_and_checkpoint_events_carry_what_the_engine_did() {
    let mut cfg =
        FedConfig::paper_20_clients(HyperParams::micro_default().with_lr(5e-3), ROUNDS, SEED);
    cfg.num_clients = CLIENTS as usize;
    cfg.feature_dim = 8;
    cfg.eval_every = ROUNDS;
    cfg.drift = DriftSchedule::over(2, 5);
    let data = tiny_dataset(3, 96, 48, SEED);
    let fresh = || {
        let fleet = build_fleet(
            &data,
            Partitioner::Dirichlet { alpha: 0.5 },
            &cfg,
            &ModelArch::heterogeneous_rotation,
        );
        (fleet, FedClassAvg::new(cfg.feature_dim, 3, cfg.seed))
    };
    let tmp = std::env::temp_dir();
    let journal = tmp.join(format!("fca-trace-events-{}.jsonl", std::process::id()));
    let ckpt_path = tmp.join(format!("fca-trace-events-{}.ckpt", std::process::id()));

    let kernel = fedclassavg_suite::tensor::simd::active().as_str();
    let guard = trace::install_file(&journal, "trace_events", kernel, "f32").expect("install");
    let mut prefix = cfg.clone();
    prefix.rounds = CUT;
    let (mut fleet, mut algo) = fresh();
    let (_, state) = run_federation_from(&mut fleet, &mut algo, &prefix, RunState::fresh());
    let ckpt = Checkpoint::capture(&mut fleet, &algo, &cfg, &state).expect("capture");
    let encoded = ckpt.encode().expect("encode").len() as u64;
    ckpt.save(&ckpt_path).expect("save");
    let loaded = Checkpoint::load(&ckpt_path).expect("load");
    let (mut fleet, mut algo) = fresh();
    let state = loaded
        .restore(&mut fleet, &mut algo, &cfg)
        .expect("restore");
    run_federation_from(&mut fleet, &mut algo, &cfg, state);
    drop(guard);

    let text = std::fs::read_to_string(&journal).expect("journal written");
    std::fs::remove_file(&journal).ok();
    std::fs::remove_file(&ckpt_path).ok();
    let events: Vec<Event> = text
        .lines()
        .map(|l| Event::parse(l).expect("schema-valid line"))
        .collect();
    let at = |pred: &dyn Fn(&Event) -> bool| -> Vec<usize> {
        events
            .iter()
            .enumerate()
            .filter(|(_, e)| pred(e))
            .map(|(i, _)| i)
            .collect()
    };
    let round_at = |r: u64| {
        let found = at(&|e| matches!(e, Event::Round { round, .. } if *round == r));
        assert_eq!(found.len(), 1, "round {r} journaled {} times", found.len());
        found[0]
    };

    // Each segment opens with exactly one transport event, before its first
    // round: one before round 1, one between the cut and the resumed round.
    let transports = at(&|e| {
        matches!(e, Event::Transport { backend, clients }
            if backend == "channel" && *clients == CLIENTS)
    });
    assert_eq!(
        transports.len(),
        2,
        "one channel transport event per segment"
    );
    assert!(transports[0] < round_at(1));
    let resumed = round_at(CUT as u64 + 1);
    assert!(round_at(CUT as u64) < transports[1] && transports[1] < resumed);

    // One drift event per round where the schedule moves λ, carrying that λ.
    let lambda = |r: usize| cfg.drift.lambda_permille(r);
    let expected: Vec<(u64, u64)> = (1..=ROUNDS)
        .filter(|&r| lambda(r) > 0 && lambda(r) != lambda(r - 1))
        .map(|r| (r as u64, lambda(r)))
        .collect();
    assert_eq!(expected, [(3, 333), (4, 666), (5, 1000)]);
    let drifts: Vec<(u64, u64)> = events
        .iter()
        .filter_map(|e| match e {
            Event::Drift {
                round,
                lambda_permille,
                clients,
            } => {
                assert_eq!(*clients, CLIENTS);
                Some((*round, *lambda_permille))
            }
            _ => None,
        })
        .collect();
    assert_eq!(drifts, expected);

    // A save and then a load, each of the encoded checkpoint's length.
    let checkpoints: Vec<(&str, u64, u64, u64)> = events
        .iter()
        .filter_map(|e| match e {
            Event::Checkpoint {
                dir,
                round,
                bytes,
                clients,
            } => Some((dir.as_str(), *round, *bytes, *clients)),
            _ => None,
        })
        .collect();
    let next = CUT as u64 + 1;
    assert_eq!(
        checkpoints,
        [
            ("save", next, encoded, CLIENTS),
            ("load", next, encoded, CLIENTS)
        ]
    );
}
