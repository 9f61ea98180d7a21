//! Property tests over the numeric substrate and the federation invariants:
//! each property runs on [`CASES`] cases whose sizes and seeds are drawn from
//! one seeded stream, so a run is the same run every time.

use fedclassavg_suite::data::partition::Partitioner;
use fedclassavg_suite::data::synth::SynthConfig;
use fedclassavg_suite::fed::comm::WireMessage;
use fedclassavg_suite::models::classifier::ClassifierWeights;
use fedclassavg_suite::nn::conv::{conv2d_reference, Conv2d, ConvGeometry};
use fedclassavg_suite::nn::loss::{cross_entropy, supervised_contrastive};
use fedclassavg_suite::nn::Module;
use fedclassavg_suite::tensor::linalg::{gemm, matmul, matmul_reference, Layout};
use fedclassavg_suite::tensor::ops::{logsumexp_rows, softmax_rows};
use fedclassavg_suite::tensor::rng::{derive_seed, seeded_rng, SnapRng};
use fedclassavg_suite::tensor::serialize::{decode_tensor, to_bytes};
use fedclassavg_suite::tensor::{Shape, Tensor, Workspace};
use std::ops::Range;

/// Cases per property.
const CASES: u64 = 24;
/// Seed of the stream every case seed is drawn from.
const SWEEP_SEED: u64 = 0xFCA_5EED;

fn close(a: f32, b: f32, tol: f32) -> bool {
    (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
}

/// One case of a property: a generator of its own, and a record of what was
/// drawn from it, printed if the case panics.
struct Case {
    property: &'static str,
    seed: u64,
    rng: SnapRng,
    drawn: Vec<String>,
}

impl Case {
    /// A size from `range`, recorded under `name`.
    fn size(&mut self, name: &str, range: Range<usize>) -> usize {
        let v = range.start + self.rng.index(range.len());
        self.drawn.push(format!("{name} = {v}"));
        v
    }

    /// A real from `range`, recorded under `name`.
    fn real(&mut self, name: &str, range: Range<f64>) -> f64 {
        let v = self.rng.range_f64(range.start, range.end);
        self.drawn.push(format!("{name} = {v:?}"));
        v
    }

    /// Any `u64`, for seeding the data of the case.
    fn seed(&mut self) -> u64 {
        let v = self.rng.next_u64();
        self.drawn.push(format!("seed = {v:#x}"));
        v
    }

    /// A `[rows, cols]` normal tensor with both sizes in `1..=max_dim`.
    fn matrix(&mut self, max_dim: usize) -> Tensor {
        let (rows, cols) = (
            self.size("rows", 1..max_dim + 1),
            self.size("cols", 1..max_dim + 1),
        );
        Tensor::randn([rows, cols], 1.0, &mut seeded_rng(self.seed()))
    }
}

impl Drop for Case {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "property {} failed on case seed {:#x}: {}",
                self.property,
                self.seed,
                self.drawn.join(", ")
            );
        }
    }
}

/// Run `body` on [`CASES`] cases of `property`. The case seeds come from one
/// stream, seeded by [`SWEEP_SEED`] and the property's name.
fn sweep(property: &'static str, body: impl Fn(&mut Case)) {
    let stream_seed = property
        .bytes()
        .fold(SWEEP_SEED, |s, b| derive_seed(s, u64::from(b)));
    let mut stream = seeded_rng(stream_seed);
    for _ in 0..CASES {
        let seed = stream.next_u64();
        body(&mut Case {
            property,
            seed,
            rng: seeded_rng(seed),
            drawn: Vec::new(),
        });
    }
}

#[test]
fn gemm_matches_reference() {
    sweep("gemm_matches_reference", |c| {
        let (m, k, n) = (c.size("m", 1..12), c.size("k", 1..12), c.size("n", 1..12));
        let mut rng = seeded_rng(c.seed());
        let a = Tensor::randn([m, k], 1.0, &mut rng);
        let b = Tensor::randn([k, n], 1.0, &mut rng);
        let fast = matmul(&a, &b);
        let slow = matmul_reference(&a, &b);
        for (x, y) in fast.data().iter().zip(slow.data()) {
            assert!(close(*x, *y, 1e-4));
        }
    });
}

/// The one slice-level entry in its three layouts, each handed the explicit
/// transpose it says it is reading, must add `A·B` (by the triple-loop
/// reference) to what `C` already holds. Every case runs a shape on each
/// side of the path choice: `m ≤ 16` with `n ≥ 64` streams B through a
/// skinny kernel in every layout, `m > 16` takes the packed engine.
#[test]
fn gemm_transpose_variants_agree() {
    sweep("gemm_transpose_variants_agree", |c| {
        let k = c.size("k", 1..24);
        let shapes = [
            (c.size("skinny m", 1..17), c.size("skinny n", 64..97)),
            (c.size("packed m", 17..33), c.size("packed n", 1..64)),
        ];
        let mut rng = seeded_rng(c.seed());
        let mut ws = Workspace::new();
        for (m, n) in shapes {
            let a = Tensor::randn([m, k], 1.0, &mut rng);
            let b = Tensor::randn([k, n], 1.0, &mut rng);
            let before = Tensor::randn([m, n], 1.0, &mut rng);
            let product = matmul_reference(&a, &b);
            let (at, bt) = (a.transpose(), b.transpose());
            for (layout, x, y) in [
                (Layout::Nn, &a, &b),
                (Layout::Tn, &at, &b),
                (Layout::Nt, &a, &bt),
            ] {
                let mut after = before.clone();
                let dims = (m, k, n);
                gemm(layout, x.data(), y.data(), after.data_mut(), dims, &mut ws);
                for ((got, c0), p) in after.data().iter().zip(before.data()).zip(product.data()) {
                    assert!(close(*got, c0 + p, 1e-4), "{layout:?} {m}x{k}x{n}");
                }
            }
        }
    });
}

#[test]
fn conv_forward_matches_direct() {
    sweep("conv_forward_matches_direct", |c| {
        let geom = ConvGeometry {
            in_channels: c.size("cin", 1..4),
            out_channels: c.size("cout", 1..4),
            kernel: 3,
            stride: c.size("stride", 1..3),
            padding: c.size("padding", 0..2),
            groups: 1,
        };
        let mut rng = seeded_rng(c.seed());
        if geom.out_hw(7, 7).0 == 0 {
            return;
        }
        let mut conv = Conv2d::new(geom, &mut rng);
        let x = Tensor::randn([2, geom.in_channels, 7, 7], 1.0, &mut rng);
        let mut ws = Workspace::new();
        let fast = conv.forward(&x, true, &mut ws);
        let slow = conv2d_reference(&x, &conv.weight.value, &conv.bias.value, &geom);
        for (a, b) in fast.data().iter().zip(slow.data()) {
            assert!(close(*a, *b, 1e-3));
        }
    });
}

#[test]
fn softmax_rows_are_distributions() {
    sweep("softmax_rows_are_distributions", |c| {
        let s = softmax_rows(&c.matrix(10));
        let (rows, _) = s.shape().as_matrix();
        for r in 0..rows {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-4);
            assert!(s.row(r).iter().all(|&p| p >= 0.0));
        }
    });
}

#[test]
fn logsumexp_bounds() {
    sweep("logsumexp_bounds", |c| {
        // max ≤ logsumexp ≤ max + ln(n)
        let t = c.matrix(10);
        let lse = logsumexp_rows(&t);
        let (rows, cols) = t.shape().as_matrix();
        assert_eq!(lse.len(), rows);
        for (r, &l) in lse.iter().enumerate() {
            let mx = t.row(r).iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            assert!(l >= mx - 1e-4);
            assert!(l <= mx + (cols as f32).ln() + 1e-4);
        }
    });
}

#[test]
fn wire_roundtrip_any_shape() {
    sweep("wire_roundtrip_any_shape", |c| {
        let rank = c.size("rank", 0..4);
        let dims: Vec<usize> = (0..rank).map(|_| c.size("dim", 1..6)).collect();
        let mut rng = seeded_rng(c.seed());
        let t = Tensor::randn(Shape::new(&dims), 1.0, &mut rng);
        let mut bytes = to_bytes(&t).expect("encode");
        let back = decode_tensor(&mut bytes).expect("roundtrip");
        assert_eq!(t, back);
    });
}

#[test]
fn classifier_message_roundtrip() {
    sweep("classifier_message_roundtrip", |c| {
        let (feat, classes) = (c.size("feat", 1..24), c.size("classes", 2..12));
        let mut rng = seeded_rng(c.seed());
        let w = ClassifierWeights {
            weight: Tensor::randn([classes, feat], 1.0, &mut rng),
            bias: Tensor::randn([classes], 1.0, &mut rng),
        };
        let msg = WireMessage::Classifier(w);
        let decoded = WireMessage::decode(msg.encode().expect("encode")).expect("decode");
        assert_eq!(decoded, msg);
    });
}

#[test]
fn cross_entropy_nonnegative_and_grad_sums_zero() {
    sweep("cross_entropy_nonnegative_and_grad_sums_zero", |c| {
        let (rows, cols) = (c.size("rows", 1..8), c.size("cols", 2..10));
        let mut rng = seeded_rng(c.seed());
        let logits = Tensor::randn([rows, cols], 2.0, &mut rng);
        let targets: Vec<usize> = (0..rows).map(|i| i % cols).collect();
        let (loss, grad) = cross_entropy(&logits, &targets);
        assert!(loss >= 0.0);
        for r in 0..rows {
            let s: f32 = grad.row(r).iter().sum();
            assert!(s.abs() < 1e-4);
        }
    });
}

#[test]
fn supcon_invariant_to_anchor_permutation() {
    sweep("supcon_invariant_to_anchor_permutation", |c| {
        let mut rng = seeded_rng(c.seed());
        let feats = Tensor::randn([6, 5], 1.0, &mut rng);
        let labels = vec![0usize, 1, 0, 1, 2, 2];
        let (l1, _) = supervised_contrastive(&feats, &labels, 0.5);
        // Permute rows (and labels identically): loss must be unchanged.
        let perm = [3usize, 0, 5, 1, 4, 2];
        let mut pdata = Vec::new();
        let mut plabels = Vec::new();
        for &i in &perm {
            pdata.extend_from_slice(feats.row(i));
            plabels.push(labels[i]);
        }
        let pfeats = Tensor::from_vec([6, 5], pdata);
        let (l2, _) = supervised_contrastive(&pfeats, &plabels, 0.5);
        assert!(close(l1, l2, 1e-4));
    });
}

#[test]
fn classifier_averaging_idempotent_and_permutation_invariant() {
    sweep(
        "classifier_averaging_idempotent_and_permutation_invariant",
        |c| {
            let mut rng = seeded_rng(c.seed());
            let k = c.size("k", 2..6);
            let parts: Vec<ClassifierWeights> = (0..k)
                .map(|_| ClassifierWeights {
                    weight: Tensor::randn([3, 4], 1.0, &mut rng),
                    bias: Tensor::randn([3], 1.0, &mut rng),
                })
                .collect();
            let avg = |order: &[usize]| {
                let mut acc = ClassifierWeights::zeros(4, 3);
                for &i in order {
                    acc.axpy(1.0 / k as f32, &parts[i]);
                }
                acc
            };
            let fwd: Vec<usize> = (0..k).collect();
            let rev: Vec<usize> = (0..k).rev().collect();
            let a = avg(&fwd);
            let b = avg(&rev);
            for (x, y) in a.weight.data().iter().zip(b.weight.data()) {
                assert!(close(*x, *y, 1e-4));
            }
            // Averaging identical classifiers returns them unchanged.
            let same = ClassifierWeights {
                weight: parts[0].weight.clone(),
                bias: parts[0].bias.clone(),
            };
            let mut acc = ClassifierWeights::zeros(4, 3);
            for _ in 0..k {
                acc.axpy(1.0 / k as f32, &same);
            }
            for (x, y) in acc.weight.data().iter().zip(same.weight.data()) {
                assert!(close(*x, *y, 1e-4));
            }
        },
    );
}

#[test]
fn f16_roundtrip_error_bound() {
    use fedclassavg_suite::tensor::serialize::{f16_bits_to_f32, f32_to_f16_bits};
    sweep("f16_roundtrip_error_bound", |c| {
        let v = c.real("v", -1e4..1e4) as f32;
        let back = f16_bits_to_f32(f32_to_f16_bits(v));
        // binary16: 11-bit significand → relative error ≤ 2⁻¹¹ for
        // normal values; 6e-5 absolute floor covers the subnormal range.
        assert!(
            (back - v).abs() <= v.abs() * f32::powi(2.0, -11) + 6e-5,
            "{v} → {back}"
        );
    });
}

#[test]
fn f16_conversion_preserves_order() {
    use fedclassavg_suite::tensor::serialize::{f16_bits_to_f32, f32_to_f16_bits};
    sweep("f16_conversion_preserves_order", |c| {
        let (a, b) = (
            c.real("a", -100.0..100.0) as f32,
            c.real("b", -100.0..100.0) as f32,
        );
        let fa = f16_bits_to_f32(f32_to_f16_bits(a));
        let fb = f16_bits_to_f32(f32_to_f16_bits(b));
        if a <= b {
            assert!(fa <= fb, "order flipped: {a}→{fa}, {b}→{fb}");
        }
    });
}

#[test]
fn partition_conserves_examples() {
    sweep("partition_conserves_examples", |c| {
        let (clients, alpha, seed) = (c.size("clients", 2..8), c.real("alpha", 0.1..4.0), c.seed());
        let mut cfg = SynthConfig::synth_fashion(seed).with_sizes(120, 40);
        cfg.num_classes = 4;
        cfg.height = 10;
        cfg.width = 10;
        let d = cfg.generate();
        let splits = Partitioner::Dirichlet { alpha }.split(&d.train, &d.test, clients, seed);
        let mut all: Vec<usize> = splits
            .iter()
            .flat_map(|s| s.train_indices.clone())
            .collect();
        let total = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), total, "duplicate assignment");
        assert!(total <= d.train.len());
        // Equal shares (±1).
        let sizes: Vec<usize> = splits.iter().map(|s| s.train_indices.len()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1, "unequal shards {:?}", sizes);
    });
}
