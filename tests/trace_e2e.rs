//! The observability layer's determinism contract, end to end: a traced
//! federated run must be **bit-identical** to an untraced one at the same
//! seed — probes observe, they never branch — and the journal it writes
//! must parse back under the strict schema with the expected structure.
//!
//! Everything lives in ONE test function: the collector is a process-wide
//! singleton, so concurrent `#[test]`s would interleave their events.

use fedclassavg_suite::data::partition::Partitioner;
use fedclassavg_suite::data::synth::tiny_dataset;
use fedclassavg_suite::fed::algo::FedClassAvg;
use fedclassavg_suite::fed::comm::FaultPlan;
use fedclassavg_suite::fed::config::{FedConfig, HyperParams};
use fedclassavg_suite::fed::sim::{build_fleet, build_fleet_paged, run_federation, RunResult};
use fedclassavg_suite::models::ModelArch;
use fedclassavg_suite::trace::{self, Event, SCHEMA_VERSION};

#[expect(dead_code, reason = "this file uses only the run comparator")]
mod common;
use common::assert_bit_identical;

const SEED: u64 = 907;
const ROUNDS: usize = 3;

fn run_once(max_resident: Option<usize>) -> RunResult {
    let cfg = FedConfig {
        feature_dim: 8,
        // Faults on, so the drop/corrupt counters cross the journal too.
        faults: FaultPlan::new(55, 0.3, 0.1, 0.1),
        ..FedConfig::new(4, HyperParams::micro_default().with_lr(5e-3), ROUNDS, SEED)
    };
    let data = tiny_dataset(3, 96, 48, cfg.seed);
    let dist = Partitioner::Dirichlet { alpha: 0.5 };
    let mut fleet = match max_resident {
        None => build_fleet(&data, dist, &cfg, &ModelArch::heterogeneous_rotation),
        Some(r) => build_fleet_paged(&data, dist, &cfg, r, &ModelArch::heterogeneous_rotation),
    };
    let mut algo = FedClassAvg::new(cfg.feature_dim, 3, cfg.seed);
    run_federation(&mut fleet, &mut algo, &cfg)
}

#[test]
fn traced_run_is_bit_identical_and_journal_is_schema_valid() {
    let untraced = run_once(None);

    let journal = std::env::temp_dir().join(format!("fca-trace-e2e-{}.jsonl", std::process::id()));
    let kernel = fedclassavg_suite::tensor::simd::active().as_str();
    let guard = trace::install_file(&journal, "trace_e2e", kernel, "f32").expect("install journal");
    let traced = run_once(None);
    drop(guard);

    // Determinism: tracing observed the run without perturbing one bit.
    assert_bit_identical(&untraced, &traced, "traced vs untraced");

    // The journal parses line by line under the strict schema.
    let text = std::fs::read_to_string(&journal).expect("journal written");
    std::fs::remove_file(&journal).ok();
    let events: Vec<Event> = text
        .lines()
        .map(|l| Event::parse(l).expect("schema-valid line"))
        .collect();

    // Framing: run_start (current schema) first, run_end last.
    assert!(
        matches!(events.first(), Some(Event::RunStart { schema, .. }) if *schema == SCHEMA_VERSION),
        "first event must be run_start at v{SCHEMA_VERSION}"
    );
    assert!(
        matches!(events.last(), Some(Event::RunEnd { rounds, .. }) if *rounds == ROUNDS as u64),
        "last event must be run_end reporting {ROUNDS} rounds"
    );

    // One round event per round, each with some traffic recorded.
    let rounds: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::Round {
                round,
                downlink_bytes,
                ..
            } => Some((*round, *downlink_bytes)),
            _ => None,
        })
        .collect();
    assert_eq!(
        rounds.iter().map(|(r, _)| *r).collect::<Vec<_>>(),
        (1..=ROUNDS as u64).collect::<Vec<_>>()
    );
    assert!(
        rounds.iter().any(|(_, down)| *down > 0),
        "no round recorded downlink traffic"
    );

    // The phases and ops a FedClassAvg round must exercise all showed up.
    let phase_names: Vec<&str> = events
        .iter()
        .filter_map(|e| match e {
            Event::Phase { phase, .. } => Some(phase.as_str()),
            _ => None,
        })
        .collect();
    for expect in ["broadcast", "local_train", "collect", "evaluate"] {
        assert!(
            phase_names.contains(&expect),
            "phase {expect:?} missing from journal (saw {phase_names:?})"
        );
    }
    let mut kernel_flops = 0u64;
    let mut op_names: Vec<&str> = Vec::new();
    for e in &events {
        if let Event::Op { op, flops, .. } = e {
            op_names.push(op.as_str());
            if op == "gemm_kernel" {
                kernel_flops += flops;
            }
        }
    }
    for expect in ["gemm_kernel", "gemm_pack", "conv_forward", "linear_forward"] {
        assert!(
            op_names.contains(&expect),
            "op {expect:?} missing from journal"
        );
    }
    assert!(kernel_flops > 0, "gemm_kernel rows carried no flops");

    // Workspace counters were journaled and the fleet actually recycled.
    assert!(
        events.iter().any(|e| matches!(
            e,
            Event::Workspace { clients, reuses, .. } if *clients == 4 && *reuses > 0
        )),
        "no workspace event with fleet-wide reuse recorded"
    );
    // A resident fleet journals pool points too — with zero paging.
    assert!(
        events.iter().any(|e| matches!(
            e,
            Event::Pool {
                page_ins: 0,
                page_outs: 0,
                ..
            }
        )),
        "resident run missing its (pageless) pool event"
    );

    // Same run again with a 2-client residency cap: still bit-identical,
    // and the journal now carries real page-in/page-out counts.
    let paged_journal =
        std::env::temp_dir().join(format!("fca-trace-e2e-paged-{}.jsonl", std::process::id()));
    let guard = trace::install_file(&paged_journal, "trace_e2e paged", kernel, "f32")
        .expect("install journal");
    let paged = run_once(Some(2));
    drop(guard);
    assert_eq!(
        untraced.per_client_acc, paged.per_client_acc,
        "paging changed the numerics under tracing"
    );
    let text = std::fs::read_to_string(&paged_journal).expect("paged journal written");
    std::fs::remove_file(&paged_journal).ok();
    let paged_events: Vec<Event> = text
        .lines()
        .map(|l| Event::parse(l).expect("schema-valid line"))
        .collect();
    assert!(
        paged_events.iter().any(|e| matches!(
            e,
            Event::Pool { page_ins, page_outs, page_bytes, .. }
                if *page_ins > 0 && *page_outs > 0 && *page_bytes > 0
        )),
        "paged run journaled no paging traffic"
    );
    assert!(
        paged_events.iter().any(|e| matches!(
            e,
            Event::Pool { high_water, .. } if *high_water > 0
        )),
        "paged run never recorded pool occupancy"
    );
}
