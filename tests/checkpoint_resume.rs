//! Checkpoint/resume end-to-end: a federation stopped at a round
//! boundary, persisted, restored into freshly built objects (optionally
//! with a different residency cap — elastic resize), and run to
//! completion must land on the exact bits of the uninterrupted run.

use fedclassavg_suite::data::partition::Partitioner;
use fedclassavg_suite::fed::algo::{
    Algorithm, FedAvg, FedClassAvg, FedProto, KtPfl, KtPflWeight, LocalOnly,
};
use fedclassavg_suite::fed::checkpoint::Checkpoint;
use fedclassavg_suite::fed::comm::FaultPlan;
use fedclassavg_suite::fed::config::FedConfig;
use fedclassavg_suite::fed::fleet::Fleet;
use fedclassavg_suite::fed::sim::{
    build_fleet, build_fleet_paged, run_federation, run_federation_from, RunState,
};
use fedclassavg_suite::models::ModelArch;

mod common;
use common::{assert_bit_identical, small_cfg, small_data, CLASSES};

/// Run `rounds` rounds uninterrupted; then the same federation split at
/// `stop_after` with a full encode→decode checkpoint cycle in between,
/// resuming into freshly built fleet + algorithm.
fn save_restore_matches(
    seed: u64,
    rounds: usize,
    stop_after: usize,
    faults: FaultPlan,
    make_fleet: &dyn Fn(&FedConfig) -> Fleet,
    make_algo: &dyn Fn(&FedConfig) -> Box<dyn Algorithm>,
    label: &str,
) {
    let mut cfg = small_cfg(seed, rounds);
    cfg.faults = faults;

    let mut fleet = make_fleet(&cfg);
    let mut algo = make_algo(&cfg);
    let full = run_federation(&mut fleet, algo.as_mut(), &cfg);

    // Segment 1: fresh objects, stop early.
    let mut cfg_prefix = cfg.clone();
    cfg_prefix.rounds = stop_after;
    let mut fleet = make_fleet(&cfg);
    let mut algo = make_algo(&cfg);
    let (_, state) = run_federation_from(&mut fleet, algo.as_mut(), &cfg_prefix, RunState::fresh());
    assert_eq!(state.next_round, stop_after + 1, "{label}: segment cursor");

    // Persist through the binary codec, as a restart would.
    let ckpt = Checkpoint::capture(&mut fleet, algo.as_ref(), &cfg, &state).expect("capture");
    let encoded = ckpt.encode().expect("encode");
    let ckpt = Checkpoint::decode(&encoded).expect("decode");

    // Segment 2: a brand-new process would rebuild everything from the
    // config, then restore.
    let mut fleet = make_fleet(&cfg);
    let mut algo = make_algo(&cfg);
    let state = ckpt
        .restore(&mut fleet, algo.as_mut(), &cfg)
        .expect("restore");
    let (resumed, end_state) = run_federation_from(&mut fleet, algo.as_mut(), &cfg, state);

    assert_bit_identical(&resumed, &full, label);
    assert_eq!(end_state.next_round, rounds + 1);
}

#[test]
fn fedclassavg_resume_is_bit_identical() {
    let data = small_data(31);
    save_restore_matches(
        31,
        4,
        2,
        FaultPlan::none(),
        &|cfg| {
            build_fleet(
                &data,
                Partitioner::Dirichlet { alpha: 0.5 },
                cfg,
                &ModelArch::heterogeneous_rotation,
            )
        },
        &|cfg| Box::new(FedClassAvg::new(cfg.feature_dim, CLASSES, cfg.seed)),
        "FedClassAvg",
    );
}

#[test]
fn resume_under_faults_replays_the_same_fates() {
    // The fault plan is positional (seeded by round), so the resumed
    // segment must see exactly the drops the uninterrupted run saw.
    let data = small_data(32);
    save_restore_matches(
        32,
        5,
        3,
        FaultPlan::new(77, 0.25, 0.1, 0.1),
        &|cfg| {
            build_fleet(
                &data,
                Partitioner::Dirichlet { alpha: 0.5 },
                cfg,
                &ModelArch::heterogeneous_rotation,
            )
        },
        &|cfg| Box::new(FedClassAvg::new(cfg.feature_dim, CLASSES, cfg.seed)),
        "FedClassAvg+faults",
    );
}

#[test]
fn fedavg_resume_is_bit_identical() {
    let data = small_data(33);
    save_restore_matches(
        33,
        4,
        1,
        FaultPlan::none(),
        &|cfg| {
            build_fleet(&data, Partitioner::Dirichlet { alpha: 100.0 }, cfg, &|_| {
                ModelArch::CnnFedAvg
            })
        },
        &|cfg| {
            // FedAvg's initial global state comes from a deterministic
            // client-0 model build, same as the quickstart wiring.
            let mut fleet =
                build_fleet(&data, Partitioner::Dirichlet { alpha: 100.0 }, cfg, &|_| {
                    ModelArch::CnnFedAvg
                });
            Box::new(FedAvg::new(fleet.client_mut(0).model.full_state()))
        },
        "FedAvg",
    );
}

#[test]
fn fedproto_resume_is_bit_identical() {
    let data = small_data(34);
    save_restore_matches(
        34,
        4,
        2,
        FaultPlan::none(),
        &|cfg| {
            build_fleet(
                &data,
                Partitioner::Dirichlet { alpha: 0.5 },
                cfg,
                &ModelArch::heterogeneous_rotation,
            )
        },
        &|cfg| Box::new(FedProto::new(cfg.feature_dim, CLASSES, 1.0)),
        "FedProto",
    );
}

#[test]
fn elastic_resize_on_resume_is_bit_identical() {
    // Capture from a fleet paged at 2 resident clients, restore into one
    // paged at 1 — the pool geometry is a property of the process, not of
    // the federation state.
    let data = small_data(35);
    let cfg = small_cfg(35, 4);

    let mut fleet = build_fleet_paged(
        &data,
        Partitioner::Dirichlet { alpha: 0.5 },
        &cfg,
        2,
        &ModelArch::heterogeneous_rotation,
    );
    let mut algo = FedClassAvg::new(cfg.feature_dim, CLASSES, cfg.seed);
    let full = run_federation(&mut fleet, &mut algo, &cfg);

    let mut cfg_prefix = cfg.clone();
    cfg_prefix.rounds = 2;
    let mut fleet = build_fleet_paged(
        &data,
        Partitioner::Dirichlet { alpha: 0.5 },
        &cfg,
        2,
        &ModelArch::heterogeneous_rotation,
    );
    let mut algo = FedClassAvg::new(cfg.feature_dim, CLASSES, cfg.seed);
    let (_, state) = run_federation_from(&mut fleet, &mut algo, &cfg_prefix, RunState::fresh());
    let ckpt = Checkpoint::capture(&mut fleet, &algo, &cfg, &state).expect("capture");
    let encoded = ckpt.encode().expect("encode");

    let ckpt = Checkpoint::decode(&encoded).expect("decode");
    let mut fleet = build_fleet_paged(
        &data,
        Partitioner::Dirichlet { alpha: 0.5 },
        &cfg,
        1, // resized pool
        &ModelArch::heterogeneous_rotation,
    );
    let mut algo = FedClassAvg::new(cfg.feature_dim, CLASSES, cfg.seed);
    let state = ckpt.restore(&mut fleet, &mut algo, &cfg).expect("restore");
    let (resumed, _) = run_federation_from(&mut fleet, &mut algo, &cfg, state);

    assert_bit_identical(&resumed, &full, "elastic resize");
}

#[test]
fn checkpoint_survives_a_disk_round_trip() {
    let data = small_data(36);
    let cfg = small_cfg(36, 2);
    let mut fleet = build_fleet(
        &data,
        Partitioner::Dirichlet { alpha: 0.5 },
        &cfg,
        &ModelArch::heterogeneous_rotation,
    );
    let mut algo = FedClassAvg::new(cfg.feature_dim, CLASSES, cfg.seed);
    let mut cfg1 = cfg.clone();
    cfg1.rounds = 1;
    let (_, state) = run_federation_from(&mut fleet, &mut algo, &cfg1, RunState::fresh());
    let ckpt = Checkpoint::capture(&mut fleet, &algo, &cfg, &state).expect("capture");

    let path = std::env::temp_dir().join(format!("fca-ckpt-test-{}.bin", std::process::id()));
    ckpt.save(&path).expect("save");
    let loaded = Checkpoint::load(&path).expect("load");
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        loaded.encode().expect("re-encode"),
        ckpt.encode().expect("encode")
    );
}

#[test]
fn restore_rejects_mismatched_federations() {
    let data = small_data(37);
    let cfg = small_cfg(37, 2);
    let mut fleet = build_fleet(
        &data,
        Partitioner::Dirichlet { alpha: 0.5 },
        &cfg,
        &ModelArch::heterogeneous_rotation,
    );
    let mut algo = FedClassAvg::new(cfg.feature_dim, CLASSES, cfg.seed);
    let mut cfg1 = cfg.clone();
    cfg1.rounds = 1;
    let (_, state) = run_federation_from(&mut fleet, &mut algo, &cfg1, RunState::fresh());
    let ckpt = Checkpoint::capture(&mut fleet, &algo, &cfg, &state).expect("capture");

    // Wrong algorithm.
    let mut other = KtPfl::new(
        fedclassavg_suite::tensor::Tensor::zeros([4, 1, 14, 14]),
        cfg.num_clients,
    );
    let mut fleet2 = build_fleet(
        &data,
        Partitioner::Dirichlet { alpha: 0.5 },
        &cfg,
        &ModelArch::heterogeneous_rotation,
    );
    assert!(ckpt.restore(&mut fleet2, &mut other, &cfg).is_err());

    // Wrong seed.
    let mut cfg_wrong = cfg.clone();
    cfg_wrong.seed ^= 1;
    let mut algo2 = FedClassAvg::new(cfg.feature_dim, CLASSES, cfg.seed);
    assert!(ckpt.restore(&mut fleet2, &mut algo2, &cfg_wrong).is_err());

    // Wrong fleet size.
    let mut cfg_small = cfg.clone();
    cfg_small.num_clients = 3;
    let mut fleet3 = build_fleet(
        &data,
        Partitioner::Dirichlet { alpha: 0.5 },
        &cfg_small,
        &ModelArch::heterogeneous_rotation,
    );
    assert!(ckpt.restore(&mut fleet3, &mut algo2, &cfg).is_err());

    // Server state that is not the algorithm's own — none at all, as a
    // stateless algorithm leaves it, or the other weight-sharing mode's —
    // under the right name, seed and fleet size. Each algorithm takes its
    // own state back and refuses the one offered.
    let mut blob_of = |algo: &dyn Algorithm| {
        let ckpt = Checkpoint::capture(&mut fleet, algo, &cfg, &state).expect("capture");
        ckpt.algo_blob
    };
    let model = fleet2.client_mut(0).model.full_state();
    let new_plain = || FedClassAvg::new(cfg.feature_dim, CLASSES, cfg.seed);
    let (mut plain, mut plain_again) = (new_plain(), new_plain());
    let mut shared =
        FedClassAvg::with_full_weight_sharing(cfg.feature_dim, CLASSES, cfg.seed, model.clone());
    let mut fedavg = FedAvg::new(model);
    let mut fedproto = FedProto::new(cfg.feature_dim, CLASSES, 1.0);
    let stateless = blob_of(&LocalOnly);
    let (of_plain, of_shared) = (blob_of(&plain), blob_of(&shared));
    let offers: [(&mut dyn Algorithm, &Vec<u8>); 5] = [
        (&mut plain, &stateless),
        (&mut fedavg, &stateless),
        (&mut fedproto, &stateless),
        (&mut shared, &of_plain),
        (&mut plain_again, &of_shared),
    ];
    for (algo, offered) in offers {
        let name = algo.name();
        for (blob, fits) in [(blob_of(algo), true), (offered.clone(), false)] {
            let ckpt = Checkpoint {
                algo_name: name.clone(),
                algo_blob: blob,
                ..ckpt.clone()
            };
            let got = ckpt.restore(&mut fleet2, algo, &cfg);
            assert_eq!(got.is_ok(), fits, "{name}: {:?}", got.err());
        }
    }
}

/// The bits of an algorithm's server state: per group, per tensor, the
/// dims and then the values' bit patterns.
fn state_bits(algo: &dyn Algorithm) -> Vec<Option<Vec<Vec<u32>>>> {
    let bits = |t: &&fedclassavg_suite::tensor::Tensor| {
        let dims = t.dims().iter().map(|&d| d as u32);
        dims.chain(t.data().iter().map(|v| v.to_bits())).collect()
    };
    let groups = algo.server_state().into_iter();
    groups
        .map(|g| g.map(|g| g.iter().map(bits).collect()))
        .collect()
}

#[test]
fn corrupted_checkpoint_bytes_error_instead_of_panicking() {
    let data = small_data(38);
    let cfg = small_cfg(38, 2);
    let mut fleet = build_fleet(
        &data,
        Partitioner::Dirichlet { alpha: 0.5 },
        &cfg,
        &ModelArch::heterogeneous_rotation,
    );
    let mut algo = FedClassAvg::new(cfg.feature_dim, CLASSES, cfg.seed);
    let mut cfg1 = cfg.clone();
    cfg1.rounds = 1;
    let (_, state) = run_federation_from(&mut fleet, &mut algo, &cfg1, RunState::fresh());
    let ckpt = Checkpoint::capture(&mut fleet, &algo, &cfg, &state).expect("capture");
    let bytes = ckpt.encode().expect("encode");

    // Truncation at a spread of offsets (every offset is covered by the
    // unit suite; here we prove it on a real federation-sized blob).
    for cut in (0..bytes.len()).step_by(97) {
        assert!(Checkpoint::decode(&bytes[..cut]).is_err(), "cut {cut}");
    }
    // Trailing garbage.
    let mut long = bytes.clone();
    long.extend_from_slice(&[0; 3]);
    assert!(Checkpoint::decode(&long).is_err());
    // Header bit flips.
    for at in 0..16.min(bytes.len()) {
        let mut bad = bytes.clone();
        bad[at] ^= 0x80;
        // Must error or decode to something; never panic. (Flipping a
        // float payload bit can still decode — that is what the seed and
        // name checks at restore time are for.)
        let _ = Checkpoint::decode(&bad);
    }

    // Damage inside the blobs `Checkpoint::decode` does not look into: one
    // round of each stateful algorithm, captured; then the state blob cut
    // at every offset and each of its first 64 bytes flipped, restored
    // onto a freshly built algorithm. `Ok` or `Err`, no panic; and after
    // an `Err` the algorithm's state is bit for bit what it was.
    let cfg = cfg1;
    let hetero = |cfg: &FedConfig| {
        build_fleet(
            &data,
            Partitioner::Dirichlet { alpha: 0.5 },
            cfg,
            &ModelArch::heterogeneous_rotation,
        )
    };
    let homo = |cfg: &FedConfig| {
        build_fleet(&data, Partitioner::Dirichlet { alpha: 0.5 }, cfg, &|_| {
            ModelArch::ProtoCnn { width_variant: 0 }
        })
    };
    let model = homo(&cfg).client_mut(0).model.full_state();
    let public = data.test.images.clone();
    type Make<'a> = Box<dyn Fn() -> Box<dyn Algorithm> + 'a>;
    let (feat, seed) = (cfg.feature_dim, cfg.seed);
    let cases: Vec<(bool, Make)> = vec![
        (false, Box::new(|| Box::new(FedAvg::new(model.clone())))),
        (
            true,
            Box::new(|| Box::new(FedClassAvg::new(feat, CLASSES, seed))),
        ),
        (
            false,
            Box::new(|| {
                let state = model.clone();
                Box::new(FedClassAvg::with_full_weight_sharing(
                    feat, CLASSES, seed, state,
                ))
            }),
        ),
        (
            true,
            Box::new(|| Box::new(FedProto::new(feat, CLASSES, 1.0))),
        ),
        (
            true,
            Box::new(|| Box::new(KtPfl::new(public.clone(), 4).with_local_epochs(1))),
        ),
        (false, Box::new(|| Box::new(KtPflWeight::new(4)))),
    ];
    let mut snapshot = None;
    for (heterogeneous, make) in cases {
        let fleet_for = |cfg: &FedConfig| {
            if heterogeneous {
                hetero(cfg)
            } else {
                homo(cfg)
            }
        };
        let (mut fleet, mut algo) = (fleet_for(&cfg), make());
        let (_, state) = run_federation_from(&mut fleet, algo.as_mut(), &cfg, RunState::fresh());
        let ckpt = Checkpoint::capture(&mut fleet, algo.as_ref(), &cfg, &state).expect("capture");
        let name = algo.name();
        let trained = state_bits(algo.as_ref());
        assert!(!trained.is_empty(), "{name}: no server state");

        let (mut fleet, mut algo) = (fleet_for(&cfg), make());
        let fresh = state_bits(algo.as_ref());
        let mut offer = |algo: &mut dyn Algorithm, blob: Vec<u8>, what: String| {
            let before = state_bits(algo);
            let mutant = Checkpoint {
                algo_blob: blob,
                ..ckpt.clone()
            };
            match mutant.restore(&mut fleet, algo, &cfg) {
                Ok(_) => {}
                Err(_) => assert!(state_bits(algo) == before, "{name}: {what}: state moved"),
            }
        };
        let blob = &ckpt.algo_blob;
        for cut in 0..blob.len() {
            offer(algo.as_mut(), blob[..cut].to_vec(), format!("cut at {cut}"));
            assert!(state_bits(algo.as_ref()) == fresh, "{name}: cut at {cut}");
        }
        for at in 0..blob.len().min(64) {
            for bit in [0x01, 0x80] {
                let mut flipped = blob.clone();
                flipped[at] ^= bit;
                offer(algo.as_mut(), flipped, format!("flip {bit:#x} at {at}"));
            }
        }
        offer(algo.as_mut(), blob.clone(), "the blob itself".into());
        assert!(
            state_bits(algo.as_ref()) == trained,
            "{name}: restored state"
        );
        snapshot = snapshot.or(heterogeneous
            .then(|| ckpt.clients[1].blob.clone())
            .flatten());
    }

    // One trained client's snapshot blob, onto a twin of its architecture.
    let blob = snapshot.expect("a trained heterogeneous client");
    let mut fleet = hetero(&cfg);
    let twin = fleet.client_mut(1);
    for cut in 0..blob.len() {
        assert!(twin.restore_snapshot(&blob[..cut]).is_err(), "cut at {cut}");
    }
    let mut zeroed = blob.to_vec();
    for at in (0..blob.len()).step_by(8) {
        let end = (at + 8).min(blob.len());
        zeroed[at..end].fill(0);
        let _ = twin.restore_snapshot(&zeroed);
        zeroed[at..end].copy_from_slice(&blob[at..end]);
    }
    twin.restore_snapshot(&blob).expect("the blob itself");
}
