//! Adversarial decode sweeps: whatever bytes arrive on the wire — or come
//! back off a disk in a client snapshot or a checkpoint —
//! `WireMessage::decode`, the tensor codec, `Client::restore_snapshot` and
//! `Checkpoint::{decode, restore}` must return a `WireError`: never panic,
//! never allocate absurd buffers, never accept a frame that disagrees with
//! its own length.

use bytes::{BufMut, Bytes, BytesMut};
use fedclassavg_suite::data::augment::AugmentConfig;
use fedclassavg_suite::data::partition::Partitioner;
use fedclassavg_suite::data::synth::tiny_dataset;
use fedclassavg_suite::fed::algo::FedClassAvg;
use fedclassavg_suite::fed::checkpoint::Checkpoint;
use fedclassavg_suite::fed::client::Client;
use fedclassavg_suite::fed::comm::WireMessage;
use fedclassavg_suite::fed::config::{FedConfig, HyperParams};
use fedclassavg_suite::fed::sim::{build_fleet_paged, run_federation_from, RunState};
use fedclassavg_suite::models::classifier::ClassifierWeights;
use fedclassavg_suite::models::{build_model, ModelArch};
use fedclassavg_suite::tensor::serialize::{decode_tensor, WireError, MAX_WIRE_NUMEL};
use fedclassavg_suite::tensor::Tensor;

/// One message of every wire variant, with non-trivial shapes.
fn sample_messages() -> Vec<WireMessage> {
    let cw = ClassifierWeights {
        weight: Tensor::from_vec([3, 4], (0..12).map(|i| i as f32 * 0.25).collect()),
        bias: Tensor::from_vec([4], vec![0.5, -1.0, 2.0, 0.0]),
    };
    vec![
        WireMessage::Classifier(cw.clone()),
        WireMessage::ClassifierF16(cw),
        WireMessage::FullModel(vec![
            Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0]),
            Tensor::from_vec([3], vec![-1.0, 0.0, 1.0]),
        ]),
        WireMessage::Prototypes(vec![
            Some(Tensor::from_vec([4], vec![1.0, 2.0, 3.0, 4.0])),
            None,
            Some(Tensor::from_vec([4], vec![5.0, 6.0, 7.0, 8.0])),
        ]),
        WireMessage::SoftPredictions(Tensor::from_vec([2, 3], vec![0.1; 6])),
        WireMessage::SoftTargets(Tensor::from_vec([2, 3], vec![0.2; 6])),
        WireMessage::PublicData(Tensor::from_vec([1, 2, 2], vec![0.3; 4])),
    ]
}

#[test]
fn every_variant_round_trips() {
    for msg in sample_messages() {
        let bytes = msg.encode().expect("encode");
        assert_eq!(bytes.len(), msg.encoded_len(), "encoded_len disagrees");
        let back = WireMessage::decode(bytes).expect("decode");
        assert_eq!(back, msg);
    }
}

#[test]
fn truncation_at_every_byte_offset_errors_cleanly() {
    for msg in sample_messages() {
        let bytes = msg.encode().expect("encode").to_vec();
        for cut in 0..bytes.len() {
            let got = WireMessage::decode(Bytes::copy_from_slice(&bytes[..cut]));
            assert!(
                got.is_err(),
                "prefix of {cut}/{} bytes decoded",
                bytes.len()
            );
        }
    }
}

#[test]
fn trailing_bytes_are_rejected_for_every_variant() {
    for msg in sample_messages() {
        let mut bytes = msg.encode().expect("encode").to_vec();
        bytes.push(0);
        assert!(
            matches!(
                WireMessage::decode(Bytes::copy_from_slice(&bytes)),
                Err(WireError::TrailingBytes { extra: 1 })
            ),
            "one trailing byte slipped through"
        );
        bytes.extend_from_slice(&[0xAA; 7]);
        assert!(matches!(
            WireMessage::decode(Bytes::copy_from_slice(&bytes)),
            Err(WireError::TrailingBytes { extra: 8 })
        ));
    }
}

/// Raw tensor header with attacker-chosen dims; no data bytes attached.
fn raw_tensor_header(dims: &[u32]) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_u8(dims.len() as u8);
    for &d in dims {
        buf.put_u32_le(d);
    }
    buf.freeze()
}

#[test]
fn overflowing_shape_math_is_caught_before_allocation() {
    // Products that overflow u64/usize multiplication outright…
    for dims in [
        vec![u32::MAX, u32::MAX],
        vec![u32::MAX, u32::MAX, u32::MAX],
        vec![1 << 31, 1 << 31, 1 << 31, 1 << 31],
    ] {
        let mut buf = raw_tensor_header(&dims);
        assert_eq!(
            decode_tensor(&mut buf),
            Err(WireError::ShapeTooLarge),
            "dims {dims:?}"
        );
    }
    // …and products that fit in usize but exceed the wire cap. Either way
    // the decoder must refuse before reserving a single element.
    let just_over = (MAX_WIRE_NUMEL + 1) as u32;
    let mut buf = raw_tensor_header(&[just_over]);
    assert_eq!(decode_tensor(&mut buf), Err(WireError::ShapeTooLarge));
    let mut buf = raw_tensor_header(&[1 << 16, 1 << 16]); // 2^32 elements
    assert_eq!(decode_tensor(&mut buf), Err(WireError::ShapeTooLarge));
}

#[test]
fn absurd_tensor_counts_do_not_reserve_memory() {
    // FullModel claiming u32::MAX tensors with an empty body: the decoder
    // must fail on the missing first tensor, not try to reserve 4 billion
    // slots up front.
    let mut buf = BytesMut::new();
    buf.put_u8(2); // TAG_FULL_MODEL
    buf.put_u32_le(u32::MAX);
    assert_eq!(WireMessage::decode(buf.freeze()), Err(WireError::Truncated));
}

#[test]
fn unknown_tags_are_identified_before_any_payload_work() {
    for tag in [0u8, 8, 9, 42, 0xFF] {
        let mut buf = BytesMut::new();
        buf.put_u8(tag);
        buf.put_u32_le(1);
        // Arbitrary garbage payload after the header.
        buf.put_slice(&[0xDE, 0xAD, 0xBE, 0xEF]);
        assert_eq!(
            WireMessage::decode(buf.freeze()),
            Err(WireError::UnknownTag(tag))
        );
    }
}

/// Tiny deterministic xorshift: the fuzz corpus must not depend on
/// ambient RNG state so a failure reproduces from the seed alone.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn byte(&mut self) -> u8 {
        (self.next() >> 32) as u8
    }
}

#[test]
fn corrupt_frame_fuzz_sweep_never_panics() {
    let mut rng = XorShift(0x5EED_F0CA_C01A_F00D);
    let corpus: Vec<Vec<u8>> = sample_messages()
        .iter()
        .map(|m| m.encode().expect("encode").to_vec())
        .collect();
    let mut decoded = 0usize;
    let mut rejected = 0usize;

    // Pure random byte strings of assorted lengths.
    for len in 0..256usize {
        let bytes: Vec<u8> = (0..len).map(|_| rng.byte()).collect();
        match WireMessage::decode(Bytes::from(bytes)) {
            Ok(_) => decoded += 1,
            Err(_) => rejected += 1,
        }
    }

    // Mutations of valid encodings: single-byte flips, swaps, and random
    // splices — the decoder sees near-valid frames, the hardest class.
    for base in &corpus {
        for trial in 0..400usize {
            let mut bytes = base.clone();
            match trial % 4 {
                0 => {
                    let at = rng.next() as usize % bytes.len();
                    bytes[at] ^= rng.byte() | 1;
                }
                1 => {
                    let at = rng.next() as usize % bytes.len();
                    bytes.truncate(at);
                }
                2 => {
                    let at = rng.next() as usize % bytes.len();
                    let extra = 1 + rng.next() as usize % 9;
                    let splice: Vec<u8> = (0..extra).map(|_| rng.byte()).collect();
                    bytes.splice(at..at, splice);
                }
                _ => {
                    let a = rng.next() as usize % bytes.len();
                    let b = rng.next() as usize % bytes.len();
                    bytes.swap(a, b);
                }
            }
            match WireMessage::decode(Bytes::from(bytes)) {
                Ok(_) => decoded += 1,
                Err(_) => rejected += 1,
            }
        }
    }
    // Reaching this line at all is the guarantee (no panic, no abort);
    // the counters document that the sweep actually exercised both paths.
    assert!(rejected > 1000, "sweep rejected only {rejected}");
    assert!(
        decoded < rejected,
        "decoded {decoded} vs rejected {rejected}"
    );
}

// --------------------------------------------------------------------
// Client snapshots and checkpoints: the same bytes, read back off a disk.
// --------------------------------------------------------------------

const ZOO: [ModelArch; 6] = [
    ModelArch::MicroResNet,
    ModelArch::MicroShuffleNet,
    ModelArch::MicroGoogLeNet,
    ModelArch::MicroAlexNet,
    ModelArch::CnnFedAvg,
    ModelArch::ProtoCnn { width_variant: 1 },
];

fn zoo_client(arch: ModelArch, hp: &HyperParams) -> Client {
    let d = tiny_dataset(3, 8, 4, 71);
    let model = build_model(arch, (1, 12, 12), 8, 3, 72);
    let augment = AugmentConfig::mnist_like();
    Client::new(0, model, d.train, d.test, augment, 1.0, hp, 73)
}

/// A well-formed `FullModel` frame that does not fit the model it is
/// meant for — a tensor missing or too many, any one tensor transposed or
/// flattened, the frame cut anywhere or a byte too long — is refused whole:
/// an `Err`, and not one bit of the model written. (The two ways to get
/// this wrong: assert on a peer's shapes, or check while filling and so
/// overwrite every tensor in front of the bad one.)
#[test]
fn full_model_frames_for_another_shape_are_refused_with_the_model_untouched() {
    for arch in ZOO {
        let mut sender = build_model(arch, (1, 12, 12), 8, 3, 72);
        let mut receiver = build_model(arch, (1, 12, 12), 8, 3, 74);
        let good = sender.full_state();
        let before = receiver.full_state();
        let whole = WireMessage::FullModel(good.clone())
            .encode()
            .expect("encode");
        let mut from_model = Vec::new();
        WireMessage::encode_full_model(&mut sender, &mut from_model).expect("encode");
        assert_eq!(
            &from_model[..],
            &whole[..],
            "{arch:?}: two encoders disagree"
        );

        let mut mutants: Vec<(String, Vec<u8>)> = Vec::new();
        let mut add = |what: String, state: Vec<Tensor>| {
            let frame = WireMessage::FullModel(state).encode().expect("encode");
            mutants.push((what, frame.to_vec()));
        };
        add(
            "last tensor missing".into(),
            good[..good.len() - 1].to_vec(),
        );
        add("first tensor missing".into(), good[1..].to_vec());
        add(
            "one tensor too many".into(),
            [&good[..], &good[..1]].concat(),
        );
        add("no tensors".into(), Vec::new());
        for (i, t) in good.iter().enumerate() {
            let d = t.dims();
            if d.len() >= 2 && d.first() != d.last() {
                let dims: Vec<usize> = d.iter().rev().copied().collect();
                let mut state = good.clone();
                state[i] = Tensor::from_vec(
                    fedclassavg_suite::tensor::Shape::new(&dims),
                    t.data().to_vec(),
                );
                add(format!("tensor {i} transposed"), state);
            }
            if d.len() != 1 {
                let mut state = good.clone();
                state[i] = Tensor::from_vec([t.numel()], t.data().to_vec());
                add(format!("tensor {i} flattened"), state);
            }
        }
        // Cut at every offset of the headers in front and of the tail, and
        // sparsely in between; and one byte too long.
        for cut in (0..whole.len()).filter(|&c| c < 64 || c + 64 > whole.len() || c % 997 == 0) {
            mutants.push((format!("cut at {cut}"), whole[..cut].to_vec()));
        }
        let mut long = whole.to_vec();
        long.push(0);
        mutants.push(("one trailing byte".into(), long));
        let mut retagged = whole.to_vec();
        retagged[0] = 1; // a classifier's tag
        mutants.push(("another message's tag".into(), retagged));

        for (what, frame) in mutants {
            assert!(
                WireMessage::decode_full_model_into(&frame, &mut receiver).is_err(),
                "{arch:?}: {what}: accepted"
            );
            assert!(
                receiver.full_state() == before,
                "{arch:?}: {what}: the model was written to"
            );
        }
        WireMessage::decode_full_model_into(&whole, &mut receiver).expect("the frame itself");
        assert!(receiver.full_state() == good, "{arch:?}: state differs");
    }
}

/// The byte ranges of `blob` that hold tensor payloads, found by walking
/// the snapshot layout (`u8 version | f32 lr | u64 step | u32 n | n tensors
/// | rng | u32 n | n rngs | u32 n | n tensors`, a tensor being `u8 rank |
/// rank × u32 dims | f32 data`). Everything outside them is structure.
fn snapshot_payloads(blob: &[u8]) -> Vec<std::ops::Range<usize>> {
    let u32_at = |at: usize| u32::from_le_bytes(blob[at..at + 4].try_into().unwrap()) as usize;
    let mut payloads = Vec::new();
    let mut at = 1 + 4 + 8;
    for list in 0..2 {
        let tensors = u32_at(at);
        at += 4;
        for _ in 0..tensors {
            let rank = blob[at] as usize;
            let numel: usize = (0..rank).map(|d| u32_at(at + 1 + 4 * d)).product();
            at += 1 + 4 * rank;
            payloads.push(at..at + 4 * numel);
            at += 4 * numel;
        }
        if list == 0 {
            at += 32;
            at += 4 + 32 * u32_at(at);
        }
    }
    assert_eq!(at, blob.len(), "the walk disagrees with the blob's length");
    payloads
}

/// Every structural byte of a blob, and within each payload its first and
/// last bytes and every 251st between: a sweep over these costs
/// `O(tensors)` decodes of an `O(bytes)` blob, not `O(bytes²)`.
fn sweep_offsets(len: usize, payloads: &[std::ops::Range<usize>]) -> Vec<usize> {
    let mut offsets = Vec::new();
    let mut at = 0;
    for p in payloads {
        offsets.extend(at..p.start);
        offsets.extend(p.clone().step_by(251));
        offsets.extend(p.end.checked_sub(1).filter(|last| p.contains(last)));
        at = p.end;
    }
    offsets.extend(at..len);
    offsets
}

#[test]
fn snapshot_blobs_round_trip_and_every_mutant_is_an_error_or_a_valid_client() {
    let hp = HyperParams::micro_default();
    for arch in ZOO {
        let mut trained = zoo_client(arch, &hp);
        trained.local_update_supervised(1, &hp);
        let blob = trained.snapshot_blob();
        let payloads = snapshot_payloads(&blob);
        assert!(
            payloads.len() > 4,
            "{arch:?}: a step leaves optimizer slots"
        );

        // Unmutated: the twin takes the exact bits and re-encodes them.
        let mut twin = zoo_client(arch, &hp);
        twin.restore_snapshot(&blob).expect("restore");
        assert_eq!(twin.snapshot_blob(), blob, "{arch:?}: re-encode differs");
        let bits = |c: &mut Client| -> Vec<u32> {
            let state = c.model.full_state();
            let values = state.iter().flat_map(|t| t.data());
            values.map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&mut twin), bits(&mut trained));

        // One twin takes every mutant in turn: a refused restore may
        // leave it partly overwritten but never misshapen, so the next
        // mutant, the re-encode and the training step at the end all
        // still find a structurally valid client.
        let offsets = sweep_offsets(blob.len(), &payloads);
        for &cut in &offsets {
            let got = twin.restore_snapshot(&blob[..cut]);
            assert!(got.is_err(), "{arch:?}: accepted {cut} of {}", blob.len());
        }
        let mut mutant = blob.clone();
        let mut refused = 0usize;
        for &at in &offsets {
            for bit in 0..8 {
                mutant[at] ^= 1 << bit;
                refused += usize::from(twin.restore_snapshot(&mutant).is_err());
                mutant[at] ^= 1 << bit;
            }
        }
        // Flips in a count, a rank or a dim are refused; flips in a
        // value (lr, step, an rng word, a weight) restore.
        assert!(refused > offsets.len(), "{arch:?}: sweep refused {refused}");
        assert_eq!(twin.snapshot_blob().len(), blob.len(), "{arch:?}");
        twin.local_update_supervised(1, &hp);
    }
}

/// A 4-client paged FedClassAvg federation, one round in, as an encoded
/// checkpoint, with what is needed to rebuild the fleet it restores onto.
fn paged_checkpoint() -> (
    Vec<u8>,
    FedConfig,
    fedclassavg_suite::data::synth::SynthDataset,
) {
    let data = tiny_dataset(3, 96, 48, 74);
    let cfg = FedConfig {
        feature_dim: 8,
        ..FedConfig::new(4, HyperParams::micro_default(), 1, 74)
    };
    let mut fleet = fresh_fleet(&data, &cfg);
    let mut algo = FedClassAvg::new(cfg.feature_dim, 3, cfg.seed);
    let (_, state) = run_federation_from(&mut fleet, &mut algo, &cfg, RunState::fresh());
    let ckpt = Checkpoint::capture(&mut fleet, &algo, &cfg, &state).expect("capture");
    (ckpt.encode().expect("encode"), cfg, data)
}

fn fresh_fleet(
    data: &fedclassavg_suite::data::synth::SynthDataset,
    cfg: &FedConfig,
) -> fedclassavg_suite::fed::Fleet {
    build_fleet_paged(
        data,
        Partitioner::Dirichlet { alpha: 0.5 },
        cfg,
        2,
        &ModelArch::heterogeneous_rotation,
    )
}

#[test]
fn checkpoint_mutants_are_refused_up_front_or_resume() {
    let (bytes, cfg, data) = paged_checkpoint();
    let clean = Checkpoint::decode(&bytes).expect("decode");
    assert_eq!(clean.encode().expect("encode"), bytes, "re-encode differs");

    // The client entries are the file's tail: `f32 weight | u8 flag | u32
    // len | blob` each. Payload ranges inside each blob, as file offsets.
    let blobs: Vec<&[u8]> = clean
        .clients
        .iter()
        .map(|c| &c.blob.as_ref().unwrap()[..])
        .collect();
    let tail: usize = blobs.iter().map(|b| 4 + 1 + 4 + b.len()).sum();
    let first_blob = bytes.len() - tail + 4 + 1 + 4;
    let mut at = first_blob;
    let mut payloads = Vec::new();
    for blob in &blobs {
        assert_eq!(&bytes[at..at + blob.len()], *blob);
        let inside = snapshot_payloads(blob);
        payloads.extend(inside.into_iter().map(|p| at + p.start..at + p.end));
        at += blob.len() + 4 + 1 + 4;
    }

    // Decode, restore onto a freshly built fleet, then touch every client
    // the way a round would: hydrate it and run it.
    let resume = |mutant: &[u8]| -> Result<(), WireError> {
        let ckpt = Checkpoint::decode(mutant)?;
        let mut fleet = fresh_fleet(&data, &cfg);
        let mut algo = FedClassAvg::new(cfg.feature_dim, 3, cfg.seed);
        ckpt.restore(&mut fleet, &mut algo, &cfg)?;
        let accs = fleet.evaluate_ids(&[0, 1, 2, 3]);
        assert_eq!(accs.len(), 4);
        Ok(())
    };
    resume(&bytes).expect("the unmutated checkpoint resumes");

    let offsets = sweep_offsets(bytes.len(), &payloads);
    for &cut in &offsets {
        assert!(
            resume(&bytes[..cut]).is_err(),
            "accepted {cut} of {}",
            bytes.len()
        );
    }
    // Every bit of the checkpoint's own fields; inside the blobs, whose
    // layout the snapshot sweep above covers bit by bit, one bit of every
    // seventh swept byte — enough that a damaged blob anywhere in the file
    // has to be caught by `restore`, since nothing later may panic.
    let mut mutant = bytes.clone();
    let mut refused = 0usize;
    for (i, &at) in offsets.iter().enumerate() {
        let bits = match at < first_blob {
            true => 0..8,
            false if i % 7 == 0 => at % 8..at % 8 + 1,
            false => continue,
        };
        for bit in bits {
            mutant[at] ^= 1 << bit;
            refused += usize::from(resume(&mutant).is_err());
            mutant[at] ^= 1 << bit;
        }
    }
    assert!(refused > 100, "sweep refused {refused}");
}
