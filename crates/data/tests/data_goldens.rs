//! The synthetic data's bits, pinned: FNV-1a over every image's `f32` bits
//! and every label of the generators' outputs, and over the index lists of
//! both partitioners' splits. The constants were printed by this file at
//! the commit before normal fills and instance rendering were restructured
//! (`aa48bcb`), so any change to a draw, its order or a pixel's arithmetic
//! shows here; the benchmark's fingerprints hash accuracies only and cannot
//! stand in. Runs on whichever kernel arm `FCA_GEMM_KERNEL` selects.

use fca_data::dataset::Dataset;
use fca_data::partition::{ClientSplit, Partitioner};
use fca_data::synth::{tiny_dataset, SynthConfig, SynthDataset};

/// 64-bit FNV-1a over a stream of words, each fed as its 8 little-endian
/// bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn dataset(&mut self, d: &Dataset) {
        self.word(d.len() as u64);
        for x in d.images.data() {
            self.word(u64::from(x.to_bits()));
        }
        for &l in &d.labels {
            self.word(l as u64);
        }
    }
}

fn data_hash(d: &SynthDataset) -> u64 {
    let mut h = Fnv::new();
    h.dataset(&d.train);
    h.dataset(&d.test);
    for p in &d.prototypes {
        for x in p.data() {
            h.word(u64::from(x.to_bits()));
        }
    }
    h.0
}

fn split_hash(splits: &[ClientSplit]) -> u64 {
    let mut h = Fnv::new();
    for s in splits {
        h.word(s.client_id as u64);
        for list in [&s.train_indices, &s.test_indices] {
            h.word(list.len() as u64);
            for &i in list {
                h.word(i as u64);
            }
        }
    }
    h.0
}

/// `(seed, hash)` for each case below; print with `--nocapture` to re-derive.
fn check(what: &str, got: &[(u64, u64)], want: &[(u64, u64)]) {
    for (seed, hash) in got {
        println!("{what}: seed {seed} -> {hash:#018x}");
    }
    assert_eq!(got, want, "{what}");
}

const SEEDS: [u64; 2] = [1, 41];

#[test]
fn tiny_dataset_bits_are_pinned() {
    let got: Vec<_> = SEEDS
        .iter()
        .map(|&s| (s, data_hash(&tiny_dataset(3, 10_000, 300, s))))
        .collect();
    check("tiny_dataset(3, 10 000, 300)", &got, &TINY);
}

#[test]
fn jittered_fashion_bits_are_pinned() {
    let got: Vec<_> = SEEDS
        .iter()
        .map(|&s| {
            let mut cfg = SynthConfig::synth_fashion(s).with_sizes(600, 200);
            (cfg.height, cfg.width) = (14, 14);
            assert!(cfg.jitter > 0);
            (s, data_hash(&cfg.generate()))
        })
        .collect();
    check("synth_fashion 14×14", &got, &FASHION);
}

#[test]
fn three_channel_cifar_bits_are_pinned() {
    let got: Vec<_> = SEEDS
        .iter()
        .map(|&s| {
            let cfg = SynthConfig::synth_cifar(s).with_sizes(120, 40);
            (s, data_hash(&cfg.generate()))
        })
        .collect();
    check("synth_cifar", &got, &CIFAR);
}

#[test]
fn partition_index_lists_are_pinned() {
    let data = tiny_dataset(10, 2_000, 400, 5);
    let schemes = [
        Partitioner::Dirichlet { alpha: 0.5 },
        Partitioner::Skewed {
            classes_per_client: 2,
        },
    ];
    for (scheme, want) in schemes.iter().zip([&DIRICHLET, &SKEWED]) {
        let got: Vec<_> = SEEDS
            .iter()
            .map(|&s| (s, split_hash(&scheme.split(&data.train, &data.test, 20, s))))
            .collect();
        check(&format!("{scheme:?}"), &got, want);
    }
}

const TINY: [(u64, u64); 2] = [(1, 0xa887_e62b_d0f9_a320), (41, 0x509a_22b0_99fd_c321)];
const FASHION: [(u64, u64); 2] = [(1, 0x08d1_7230_ed11_2a03), (41, 0x3727_7dd7_42fc_2bc2)];
const CIFAR: [(u64, u64); 2] = [(1, 0x5188_8982_9210_2035), (41, 0x2e20_9cf0_121b_4ed8)];
const DIRICHLET: [(u64, u64); 2] = [(1, 0x7e69_e45b_b17c_0599), (41, 0x3839_d476_283a_1c63)];
const SKEWED: [(u64, u64); 2] = [(1, 0xe8de_27ed_731b_6eaf), (41, 0xf4ad_3a4f_ccc3_5946)];
