//! The virtualized fleet's refactor oracle, end to end: a run over a
//! *paged* fleet (bounded residency, clients dehydrated to snapshot blobs
//! between rounds) must be **bit-identical** to the same run over a fully
//! resident fleet — same learning curve, same per-client accuracies, same
//! wire bytes, same fault counts. Paging changes memory, never numerics.

use fedclassavg_suite::data::partition::Partitioner;
use fedclassavg_suite::data::synth::tiny_dataset;
use fedclassavg_suite::fed::algo::{Algorithm, FedClassAvg, FedProto, LocalOnly};
use fedclassavg_suite::fed::comm::FaultPlan;
use fedclassavg_suite::fed::config::{FedConfig, HyperParams};
use fedclassavg_suite::fed::sim::{build_fleet, build_fleet_paged, run_federation, RunResult};
use fedclassavg_suite::models::ModelArch;

#[expect(dead_code, reason = "this file uses only the run comparator")]
mod common;
use common::assert_bit_identical;

const CLIENTS: usize = 6;

fn cfg(seed: u64, rounds: usize) -> FedConfig {
    let hp = HyperParams::micro_default().with_lr(5e-3);
    FedConfig {
        feature_dim: 8,
        ..FedConfig::new(CLIENTS, hp, rounds, seed)
    }
}

fn run(
    cfg: &FedConfig,
    max_resident: Option<usize>,
    make: impl FnOnce() -> Box<dyn Algorithm>,
) -> RunResult {
    let data = tiny_dataset(3, 24 * CLIENTS, 12 * CLIENTS, cfg.seed);
    let dist = Partitioner::Dirichlet { alpha: 0.5 };
    let mut fleet = match max_resident {
        None => build_fleet(&data, dist, cfg, &ModelArch::heterogeneous_rotation),
        Some(r) => build_fleet_paged(&data, dist, cfg, r, &ModelArch::heterogeneous_rotation),
    };
    let mut algo = make();
    run_federation(&mut fleet, algo.as_mut(), cfg)
}

#[test]
fn paged_fedclassavg_is_bit_identical_to_resident() {
    let c = cfg(1201, 3);
    let resident = run(&c, None, || {
        Box::new(FedClassAvg::new(c.feature_dim, 3, c.seed))
    });
    // Tighter than the per-round sample: clients must round-trip through
    // their snapshot blobs between rounds.
    let paged = run(&c, Some(2), || {
        Box::new(FedClassAvg::new(c.feature_dim, 3, c.seed))
    });
    assert_bit_identical(&resident, &paged, "fedclassavg");
}

#[test]
fn paged_local_only_is_bit_identical_to_resident() {
    let c = cfg(1202, 2);
    let resident = run(&c, None, || Box::new(LocalOnly::new()));
    let paged = run(&c, Some(1), || Box::new(LocalOnly::new()));
    assert_bit_identical(&resident, &paged, "local-only");
    assert_eq!(paged.downlink_bytes + paged.uplink_bytes, 0);
}

#[test]
fn paged_fedproto_is_bit_identical_to_resident() {
    // FedProto exercises the prototype path (Adam state, per-class tensors)
    // through the snapshot codec.
    let c = cfg(1203, 2);
    let data = tiny_dataset(3, 24 * CLIENTS, 12 * CLIENTS, c.seed);
    let dist = Partitioner::Dirichlet { alpha: 0.5 };
    let arch = |k: usize| ModelArch::ProtoCnn {
        width_variant: k % 4,
    };
    let run_with = |max_resident: Option<usize>| {
        let mut fleet = match max_resident {
            None => build_fleet(&data, dist, &c, &arch),
            Some(r) => build_fleet_paged(&data, dist, &c, r, &arch),
        };
        let mut algo = FedProto::new(c.feature_dim, 3, 1.0);
        run_federation(&mut fleet, &mut algo, &c)
    };
    let resident = run_with(None);
    let paged = run_with(Some(2));
    assert_bit_identical(&resident, &paged, "fedproto");
}

#[test]
fn paged_run_under_thirty_percent_faults_is_bit_identical() {
    // The hardest case: dropout and corruption interleave with paging, so
    // a client can be dehydrated right after its uplink was dropped. The
    // fault plan is seeded off the round, not the residency, so outcomes
    // must not move.
    let mut c = cfg(1204, 4);
    c.faults = FaultPlan::new(77, 0.3, 0.1, 0.1);
    let resident = run(&c, None, || {
        Box::new(FedClassAvg::new(c.feature_dim, 3, c.seed))
    });
    let paged = run(&c, Some(2), || {
        Box::new(FedClassAvg::new(c.feature_dim, 3, c.seed))
    });
    assert!(
        resident.dropped + resident.corrupt > 0,
        "fault plan fired nothing; the test is vacuous"
    );
    assert_bit_identical(&resident, &paged, "faulty");
}

#[test]
fn paged_run_with_eval_subsample_is_bit_identical() {
    // eval_sample composes with paging: both runs evaluate the same seeded
    // subset, and the paged run only hydrates that subset.
    let c = cfg(1205, 2).with_eval_sample(3);
    let resident = run(&c, None, || {
        Box::new(FedClassAvg::new(c.feature_dim, 3, c.seed))
    });
    let paged = run(&c, Some(2), || {
        Box::new(FedClassAvg::new(c.feature_dim, 3, c.seed))
    });
    assert_eq!(resident.per_client_acc.len(), 3);
    assert_bit_identical(&resident, &paged, "eval-subsampled");
}

#[test]
fn partial_participation_pages_only_the_sampled() {
    // At 50% sampling with a 2-client residency cap, the round loop pages
    // through the sampled half; results still match the resident fleet.
    let mut c = cfg(1206, 3);
    c.sample_rate = 0.5;
    let resident = run(&c, None, || {
        Box::new(FedClassAvg::new(c.feature_dim, 3, c.seed))
    });
    let paged = run(&c, Some(2), || {
        Box::new(FedClassAvg::new(c.feature_dim, 3, c.seed))
    });
    assert_bit_identical(&resident, &paged, "partial participation");
}
