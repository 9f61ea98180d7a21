//! The engine's own journal events, end to end: a traced drift run,
//! checkpointed to disk and resumed, writes each segment's `transport`
//! event before its first round, one `drift` event per round where the
//! schedule moves λ (carrying that λ), and a `checkpoint` event for the
//! save and for the load, each carrying the encoded checkpoint's length.
//!
//! One test function installs the collector: it is a process-wide
//! singleton, so concurrent installs would interleave their events. The
//! golden tests beside it only encode, and pin the journal's bytes and
//! registry names, which a round trip through `parse` alone would not.

use fedclassavg_suite::data::partition::Partitioner;
use fedclassavg_suite::data::synth::tiny_dataset;
use fedclassavg_suite::fed::algo::FedClassAvg;
use fedclassavg_suite::fed::checkpoint::Checkpoint;
use fedclassavg_suite::fed::config::{DriftSchedule, FedConfig, HyperParams};
use fedclassavg_suite::fed::sim::{build_fleet, run_federation_from, RunState};
use fedclassavg_suite::models::ModelArch;
use fedclassavg_suite::trace::{self, Event, OpId, PhaseId};

const SEED: u64 = 913;
const ROUNDS: usize = 6;
const CLIENTS: u64 = 4;
/// The prefix segment's last round; the checkpoint resumes at the next.
const CUT: usize = 3;

#[test]
fn drift_and_checkpoint_events_carry_what_the_engine_did() {
    let hp = HyperParams::micro_default().with_lr(5e-3);
    let cfg = FedConfig {
        feature_dim: 8,
        eval_every: ROUNDS,
        drift: DriftSchedule::over(2, 5),
        ..FedConfig::new(CLIENTS as usize, hp, ROUNDS, SEED)
    };
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

/// The exact line each of the ten event kinds encodes to: field names,
/// their order and the string escapes are the journal's wire format.
#[test]
fn every_event_kind_encodes_to_its_golden_line() {
    let golden: [(Event, &str); 10] = [
        (
            Event::RunStart {
                schema: 6,
                label: "a\"b\\c\td\ne λ \u{1}".into(),
                kernel: "avx2_fma".into(),
                precision: "f32".into(),
            },
            r#"{"ev":"run_start","schema":6,"label":"a\"b\\c\td\ne λ \u0001","kernel":"avx2_fma","precision":"f32"}"#,
        ),
        (
            Event::Phase {
                round: 3,
                phase: "local_train".into(),
                calls: 2,
                total_us: 41,
            },
            r#"{"ev":"phase","round":3,"phase":"local_train","calls":2,"total_us":41}"#,
        ),
        (
            Event::Op {
                round: 3,
                op: "gemm_kernel".into(),
                calls: 5,
                total_us: 7,
                flops: 11,
                bytes: 13,
            },
            r#"{"ev":"op","round":3,"op":"gemm_kernel","calls":5,"total_us":7,"flops":11,"bytes":13}"#,
        ),
        (
            Event::Workspace {
                round: 4,
                clients: 8,
                allocations: 1,
                reuses: 2,
                peak_bytes: 4096,
            },
            r#"{"ev":"workspace","round":4,"clients":8,"allocations":1,"reuses":2,"peak_bytes":4096}"#,
        ),
        (
            Event::Pool {
                round: 4,
                resident: 1,
                high_water: 2,
                checkouts: 3,
                page_ins: 4,
                page_outs: 5,
                page_bytes: 6,
            },
            r#"{"ev":"pool","round":4,"resident":1,"high_water":2,"checkouts":3,"page_ins":4,"page_outs":5,"page_bytes":6}"#,
        ),
        (
            Event::Round {
                round: 5,
                dur_us: 1,
                downlink_bytes: 2,
                uplink_bytes: 3,
                downlink_physical_bytes: 4,
                uplink_physical_bytes: 5,
                dropped: 6,
                corrupt: 7,
                stale: 8,
                expired: 9,
            },
            r#"{"ev":"round","round":5,"dur_us":1,"downlink_bytes":2,"uplink_bytes":3,"downlink_physical_bytes":4,"uplink_physical_bytes":5,"dropped":6,"corrupt":7,"stale":8,"expired":9}"#,
        ),
        (
            Event::Drift {
                round: 6,
                lambda_permille: 250,
                clients: 20,
            },
            r#"{"ev":"drift","round":6,"lambda_permille":250,"clients":20}"#,
        ),
        (
            Event::Transport {
                backend: "unix".into(),
                clients: 20,
            },
            r#"{"ev":"transport","backend":"unix","clients":20}"#,
        ),
        (
            Event::Checkpoint {
                dir: "save".into(),
                round: 7,
                bytes: 1024,
                clients: 20,
            },
            r#"{"ev":"checkpoint","dir":"save","round":7,"bytes":1024,"clients":20}"#,
        ),
        (
            Event::RunEnd {
                rounds: 12,
                wall_us: 345,
            },
            r#"{"ev":"run_end","rounds":12,"wall_us":345}"#,
        ),
    ];
    assert_eq!(
        trace::SCHEMA_VERSION,
        6,
        "a schema bump rewrites these lines"
    );
    for (event, line) in golden {
        assert_eq!(event.to_json(), line);
        assert_eq!(Event::parse(line), Ok(event), "{line}");
    }
}

/// The op and phase registries in counter-array order: the names a
/// journal carries and the order `trace_report` prints them in.
#[test]
fn registry_names_are_pinned_in_order() {
    let ops: Vec<&str> = OpId::ALL.iter().map(|o| o.as_str()).collect();
    assert_eq!(
        ops,
        [
            "gemm_pack",
            "gemm_kernel",
            "gemm_nn",
            "gemm_tn",
            "gemm_nt",
            "im2col",
            "col2im",
            "conv_forward",
            "conv_backward",
            "linear_forward",
            "linear_backward",
        ]
    );
    assert_eq!(OpId::COUNT, ops.len());
    let phases: Vec<&str> = PhaseId::ALL.iter().map(|p| p.as_str()).collect();
    assert_eq!(
        phases,
        [
            "drift_reshard",
            "broadcast",
            "local_train",
            "collect",
            "aggregate",
            "evaluate",
        ]
    );
    assert_eq!(PhaseId::COUNT, phases.len());
}
