//! Fault-tolerance integration tests: malformed wire bytes must decode to
//! errors (never panic), and federations under seeded dropout/corruption
//! must finish every round deterministically.

use std::panic::{catch_unwind, AssertUnwindSafe};

use fedclassavg_suite::data::partition::Partitioner;
use fedclassavg_suite::data::synth::SynthConfig;
use fedclassavg_suite::fed::algo::FedClassAvg;
use fedclassavg_suite::fed::comm::{FaultPlan, WireMessage};
use fedclassavg_suite::fed::config::{FedConfig, HyperParams};
use fedclassavg_suite::fed::sim::{build_fleet, run_federation, RunResult};
use fedclassavg_suite::models::classifier::ClassifierWeights;
use fedclassavg_suite::models::ModelArch;
use fedclassavg_suite::tensor::Tensor;

const CLASSES: usize = 4;
const FEAT: usize = 8;

/// One representative message per wire variant.
fn sample_messages() -> Vec<WireMessage> {
    let w = ClassifierWeights::zeros(FEAT, CLASSES);
    vec![
        WireMessage::Classifier(w.clone()),
        WireMessage::FullModel(vec![Tensor::full([3, 2], 1.5), Tensor::zeros([4])]),
        WireMessage::Prototypes(vec![Some(Tensor::full([FEAT], 0.25)), None]),
        WireMessage::SoftPredictions(Tensor::full([2, CLASSES], 0.25)),
        WireMessage::SoftTargets(Tensor::full([2, CLASSES], 0.5)),
        WireMessage::PublicData(Tensor::full([2, 1, 4, 4], 0.1)),
        WireMessage::ClassifierF16(w),
    ]
}

/// Decode behind a panic guard; fuzzed bytes may do anything except panic.
fn decode_no_panic(bytes: &[u8]) -> Result<WireMessage, String> {
    let buf = bytes::Bytes::copy_from_slice(bytes);
    catch_unwind(AssertUnwindSafe(|| WireMessage::decode(buf)))
        .expect("decode panicked on malformed input")
        .map_err(|e| e.to_string())
}

#[test]
fn truncation_at_every_offset_errors_cleanly() {
    for msg in sample_messages() {
        let full = msg.encode().expect("encode");
        assert_eq!(full.len(), msg.encoded_len(), "encoded_len mismatch");
        // The complete encoding round-trips.
        assert!(
            decode_no_panic(&full).is_ok(),
            "full message failed to decode"
        );
        // Every strict prefix is a framing error, never a panic.
        for cut in 0..full.len() {
            let r = decode_no_panic(&full[..cut]);
            assert!(
                r.is_err(),
                "truncation to {cut}/{} bytes decoded as {:?}",
                full.len(),
                r
            );
        }
    }
}

#[test]
fn header_bit_flips_never_panic() {
    // Flip bits in the 5-byte header (tag + u32 count). The result must be
    // a clean error or a *different* well-formed message (e.g. a tag flip
    // landing on another valid tag), never a panic and never a silent
    // round-trip of the original.
    for msg in sample_messages() {
        let full = msg.encode().expect("encode");
        for byte in 0..5.min(full.len()) {
            for mask in [0x01u8, 0x10, 0x80, 0xFF] {
                let mut mangled = full.to_vec();
                mangled[byte] ^= mask;
                if let Ok(got) = decode_no_panic(&mangled) {
                    assert_ne!(
                        got, msg,
                        "header byte {byte} flipped by {mask:#04x} went unnoticed"
                    );
                }
            }
        }
    }
}

#[test]
fn body_corruption_truncated_tail_always_errors() {
    // The network's corruption model (flip a byte, drop the last) must be
    // detectable for every variant — this is what guarantees corrupt
    // uplinks surface as `corrupt` counts rather than bad aggregates.
    for msg in sample_messages() {
        let full = msg.encode().expect("encode");
        let mut mangled = full.to_vec();
        let i = 2.min(mangled.len() - 1);
        mangled[i] ^= 0xA5;
        mangled.pop();
        assert!(
            decode_no_panic(&mangled).is_err(),
            "flipped+truncated payload decoded successfully"
        );
    }
}

// ------------------------------------------------------------------
// End-to-end: a federation under 30% dropout plus corruption finishes
// every round and is bit-identical across same-seed runs.
// ------------------------------------------------------------------

fn faulty_run(seed: u64, rounds: usize, plan: FaultPlan) -> RunResult {
    let mut data_cfg = SynthConfig::synth_fashion(seed).with_sizes(160, 80);
    data_cfg.num_classes = CLASSES;
    data_cfg.height = 12;
    data_cfg.width = 12;
    let data = data_cfg.generate();
    let cfg = FedConfig {
        feature_dim: FEAT,
        faults: plan,
        ..FedConfig::new(4, HyperParams::micro_default(), rounds, seed)
    };
    let mut fleet = build_fleet(
        &data,
        Partitioner::Dirichlet { alpha: 0.5 },
        &cfg,
        &ModelArch::heterogeneous_rotation,
    );
    let mut algo = FedClassAvg::new(cfg.feature_dim, CLASSES, cfg.seed);
    run_federation(&mut fleet, &mut algo, &cfg)
}

#[test]
fn thirty_percent_dropout_run_completes_and_is_deterministic() {
    let rounds = 6;
    let plan = FaultPlan::new(91, 0.3, 0.0, 0.1);
    let a = faulty_run(91, rounds, plan);
    assert_eq!(a.rounds, rounds, "run stopped early under faults");
    assert_eq!(a.curve.len(), rounds + 1, "missing evaluation points");
    assert!(
        a.per_client_acc.iter().all(|x| x.is_finite()),
        "non-finite accuracy under faults"
    );
    assert!(
        a.dropped > 0,
        "30% dropout over {rounds} rounds × 4 clients produced no drops"
    );
    // Per-point fault counts reconcile with the run totals.
    let (d, c): (u64, u64) = a
        .curve
        .iter()
        .fold((0, 0), |(d, c), p| (d + p.dropped, c + p.corrupt));
    assert_eq!((d, c), (a.dropped, a.corrupt));

    // Same seed ⇒ bit-identical replay, faults included.
    let b = faulty_run(91, rounds, plan);
    assert_eq!(a.per_client_acc, b.per_client_acc, "accuracies diverged");
    assert_eq!(a.curve, b.curve, "learning curves diverged");
    assert_eq!((a.dropped, a.corrupt), (b.dropped, b.corrupt));
    assert_eq!(
        (a.downlink_bytes, a.uplink_bytes),
        (b.downlink_bytes, b.uplink_bytes),
        "byte accounting diverged"
    );
}

#[test]
fn total_blackout_still_finishes_every_round() {
    let rounds = 3;
    let r = faulty_run(17, rounds, FaultPlan::with_dropout(17, 1.0));
    assert_eq!(r.rounds, rounds);
    // Every sampled uplink was lost; the server aggregated nothing and the
    // run still produced a full (chance-level) evaluation curve.
    assert_eq!(r.dropped, rounds as u64 * 4);
    assert_eq!(r.corrupt, 0);
    assert!(r.per_client_acc.iter().all(|x| x.is_finite()));
}
