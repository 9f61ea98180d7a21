//! Shared experiment runners used by the table/figure binaries and the
//! Criterion benches.
//!
//! The micro-scale knobs (dataset sizes, rounds, feature dim) and their
//! paper-scale counterparts are documented in EXPERIMENTS.md; pass
//! `--quick` (or set `FCA_QUICK=1`) to any binary for a fast smoke run.

use fca_data::partition::Partitioner;
use fca_data::synth::{SynthConfig, SynthDataset};
use fca_models::ModelArch;
use fca_tensor::rng::derive_seed;
use fedclassavg::algo::{
    Algorithm, FedAvg, FedClassAvg, FedProto, FedProx, KtPfl, KtPflWeight, LocalOnly,
};
use fedclassavg::comm::FaultPlan;
use fedclassavg::config::{FedConfig, HyperParams};
use fedclassavg::fleet::Fleet;
use fedclassavg::sim::{build_fleet, run_federation, RunResult};

/// The three benchmark datasets (synthetic stand-ins; DESIGN.md §3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DatasetKind {
    /// SynthCIFAR-10: 3×32×32, 10 classes.
    Cifar,
    /// SynthFashion-MNIST: 1×28×28, 10 classes.
    Fashion,
    /// SynthEMNIST-Letters: 1×28×28, 26 classes.
    Emnist,
}

impl DatasetKind {
    /// All three, in the paper's column order.
    pub const ALL: [DatasetKind; 3] = [
        DatasetKind::Cifar,
        DatasetKind::Fashion,
        DatasetKind::Emnist,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::Cifar => "CIFAR-10",
            DatasetKind::Fashion => "Fashion-MNIST",
            DatasetKind::Emnist => "EMNIST",
        }
    }

    /// Generate the synthetic dataset at the context's scale.
    ///
    /// At micro scale the image extents are halved (16×16 / 14×14) — the
    /// dominant cost lever on CPU; set `FCA_FULL_DIMS=1` to keep the
    /// original 32×32 / 28×28 geometry. Class structure, channel counts,
    /// and class counts are unchanged.
    pub fn generate(&self, ctx: &ExperimentContext) -> SynthDataset {
        let seed = derive_seed(ctx.seed, 0xDA7A + *self as u64);
        let mut cfg = match self {
            DatasetKind::Cifar => SynthConfig::synth_cifar(seed),
            DatasetKind::Fashion => SynthConfig::synth_fashion(seed),
            DatasetKind::Emnist => SynthConfig::synth_emnist(seed),
        };
        let full_dims = std::env::var("FCA_FULL_DIMS")
            .map(|v| v == "1")
            .unwrap_or(false);
        if !full_dims {
            cfg.height /= 2;
            cfg.width /= 2;
            cfg.jitter = (cfg.jitter / 2).max(1);
        }
        cfg.with_sizes(ctx.train_size(*self), ctx.test_size(*self))
            .generate()
    }

    /// Micro-adapted per-dataset hyperparameters. Learning rates are
    /// scaled up from the paper's Table 1 (tuned for full-size models);
    /// ρ keeps the paper's values.
    pub fn hyperparams(&self) -> HyperParams {
        let base = HyperParams::micro_default();
        match self {
            DatasetKind::Cifar => base.with_rho(0.1),
            DatasetKind::Fashion => base.with_rho(0.4662),
            DatasetKind::Emnist => base.with_rho(0.1),
        }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        match self {
            DatasetKind::Emnist => 26,
            _ => 10,
        }
    }
}

/// The methods appearing across Tables 2–4.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Method {
    /// Local-only baseline.
    Baseline,
    /// FedProto (prototype exchange).
    FedProto,
    /// KT-pFL (knowledge transfer via public data).
    KtPfl,
    /// FedClassAvg (full objective).
    FedClassAvg,
    /// FedAvg (homogeneous only).
    FedAvg,
    /// FedProx (homogeneous only).
    FedProx,
    /// FedClassAvg with full weight sharing (homogeneous "+weight").
    FedClassAvgWeight,
    /// KT-pFL with weight mixing (homogeneous "+weight").
    KtPflWeight,
    /// FedClassAvg ablation with explicit loss-term switches (Table 4).
    Ablation {
        /// Contrastive loss on/off.
        contrastive: bool,
        /// Proximal weight (0 = off).
        rho: f32,
    },
}

impl Method {
    /// Display name matching the paper's row labels.
    pub fn name(&self) -> String {
        match self {
            Method::Baseline => "Baseline (local training)".into(),
            Method::FedProto => "FedProto".into(),
            Method::KtPfl => "KT-pFL".into(),
            Method::FedClassAvg => "Proposed".into(),
            Method::FedAvg => "FedAvg".into(),
            Method::FedProx => "FedProx".into(),
            Method::FedClassAvgWeight => "Proposed +weight".into(),
            Method::KtPflWeight => "KT-pFL +weight".into(),
            Method::Ablation { contrastive, rho } => {
                let mut n = "CA".to_string();
                if *rho > 0.0 {
                    n.push_str("+PR");
                }
                if *contrastive {
                    n.push_str("+CL");
                }
                n
            }
        }
    }
}

/// Scale and seed shared by all experiments.
#[derive(Clone, Copy, Debug)]
pub struct ExperimentContext {
    /// Master seed.
    pub seed: u64,
    /// Quick (smoke) scale vs full reproduction scale.
    pub quick: bool,
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

impl ExperimentContext {
    /// Build from CLI args / environment: `--quick` or `FCA_QUICK=1`
    /// selects the smoke scale; `--seed N` overrides the seed.
    ///
    /// Fine-grained overrides (for calibration runs): `FCA_EPOCHS`,
    /// `FCA_TRAIN_PER_CLASS`, `FCA_TEST_PER_CLASS`, `FCA_FEAT`,
    /// `FCA_CLIENTS`, `FCA_PUBLIC`.
    pub fn from_env() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let quick = args.iter().any(|a| a == "--quick")
            || std::env::var("FCA_QUICK")
                .map(|v| v == "1")
                .unwrap_or(false);
        let seed = args
            .iter()
            .position(|a| a == "--seed")
            .and_then(|i| args.get(i + 1))
            .and_then(|s| s.parse().ok())
            .unwrap_or(42);
        ExperimentContext { seed, quick }
    }

    /// Fixed context (tests).
    pub fn fixed(seed: u64, quick: bool) -> Self {
        ExperimentContext { seed, quick }
    }

    /// Training-set size (paper: 50k–125k; micro scale keeps ≥60 images
    /// per client).
    pub fn train_size(&self, d: DatasetKind) -> usize {
        let per_class =
            env_usize("FCA_TRAIN_PER_CLASS").unwrap_or(if self.quick { 40 } else { 80 });
        per_class * d.num_classes()
    }

    /// Test-set size.
    pub fn test_size(&self, d: DatasetKind) -> usize {
        let per_class = env_usize("FCA_TEST_PER_CLASS").unwrap_or(if self.quick { 15 } else { 30 });
        per_class * d.num_classes()
    }

    /// Epoch budget for learning curves (paper: 300–500 local epochs).
    pub fn epoch_budget(&self) -> usize {
        env_usize("FCA_EPOCHS").unwrap_or(if self.quick { 10 } else { 36 })
    }

    /// Shared feature dimension (paper: 512).
    pub fn feature_dim(&self) -> usize {
        env_usize("FCA_FEAT").unwrap_or(if self.quick { 16 } else { 32 })
    }

    /// Clients in the standard setting (paper: 20).
    pub fn num_clients(&self) -> usize {
        env_usize("FCA_CLIENTS").unwrap_or(if self.quick { 8 } else { 20 })
    }

    /// KT-pFL local epochs per round (paper: 20; micro scale uses 4 so the
    /// epoch budget spans several communication rounds).
    pub fn ktpfl_local_epochs(&self) -> usize {
        if self.quick {
            2
        } else {
            4
        }
    }

    /// KT-pFL public-set size (paper: 3,000).
    pub fn public_size(&self) -> usize {
        env_usize("FCA_PUBLIC").unwrap_or(if self.quick { 64 } else { 200 })
    }

    /// Federation config for `clients` clients at sampling rate `q`.
    pub fn fed_config(&self, d: DatasetKind, clients: usize, q: f32, rounds: usize) -> FedConfig {
        FedConfig {
            num_clients: clients,
            sample_rate: q,
            rounds,
            feature_dim: self.feature_dim(),
            eval_every: (rounds / 10).max(1),
            seed: self.seed,
            hp: d.hyperparams(),
            faults: FaultPlan::none(),
            eval_sample: 0,
            eval_precision: fca_tensor::quant::Precision::F32,
            transport: Default::default(),
            aggregation: Default::default(),
            drift: Default::default(),
        }
    }
}

/// Which architecture client `k` runs.
type ArchMap = Box<dyn Fn(usize) -> ModelArch>;

/// Build the method's server-side algorithm (and pick the fleet's
/// architecture map) for a heterogeneous experiment.
fn hetero_algorithm(
    method: Method,
    ctx: &ExperimentContext,
    d: DatasetKind,
    data: &SynthDataset,
) -> (Box<dyn Algorithm>, ArchMap) {
    let feat = ctx.feature_dim();
    let classes = d.num_classes();
    match method {
        Method::Baseline => (
            Box::new(LocalOnly::new()),
            Box::new(ModelArch::heterogeneous_rotation),
        ),
        Method::FedClassAvg => (
            Box::new(FedClassAvg::new(feat, classes, ctx.seed)),
            Box::new(ModelArch::heterogeneous_rotation),
        ),
        Method::Ablation { contrastive, rho } => (
            Box::new(FedClassAvg::ablation(
                feat,
                classes,
                ctx.seed,
                contrastive,
                rho,
            )),
            Box::new(ModelArch::heterogeneous_rotation),
        ),
        Method::KtPfl => {
            let public = public_data(ctx, d, data);
            (
                Box::new(
                    KtPfl::new(public, ctx.num_clients())
                        .with_local_epochs(ctx.ktpfl_local_epochs()),
                ),
                Box::new(ModelArch::heterogeneous_rotation),
            )
        }
        Method::FedProto => (
            // Paper: FedProto runs the *less heterogeneous* width-varied
            // CNN scheme because prototypes must share dimensions.
            Box::new(FedProto::new(feat, classes, 1.0)),
            Box::new(|k: usize| ModelArch::ProtoCnn {
                width_variant: k % 4,
            }),
        ),
        other => panic!("{other:?} is a homogeneous-only method"),
    }
}

/// KT-pFL public data: an extra synthetic split from the same generator
/// family (the paper assumes public data distributionally similar to the
/// private data).
pub fn public_data(
    ctx: &ExperimentContext,
    d: DatasetKind,
    data: &SynthDataset,
) -> fca_tensor::Tensor {
    let seed = derive_seed(ctx.seed, 0x9B11C + d as u64);
    let mut cfg = match d {
        DatasetKind::Cifar => SynthConfig::synth_cifar(seed),
        DatasetKind::Fashion => SynthConfig::synth_fashion(seed),
        DatasetKind::Emnist => SynthConfig::synth_emnist(seed),
    };
    // Match the private data's geometry exactly (incl. the micro-scale
    // halving applied in `DatasetKind::generate`).
    let (_, h, w) = data.train.image_shape();
    cfg.jitter = cfg.jitter * h / cfg.height.max(1);
    cfg.height = h;
    cfg.width = w;
    cfg.jitter = cfg.jitter.max(1);
    cfg.with_sizes(ctx.public_size(), 1).generate().train.images
}

/// Run one heterogeneous experiment (Tables 2 & 4, Figures 4 & 5).
pub fn run_heterogeneous(
    ctx: &ExperimentContext,
    d: DatasetKind,
    dist: Partitioner,
    method: Method,
) -> RunResult {
    run_heterogeneous_keep_fleet(ctx, d, dist, method).0
}

/// [`run_heterogeneous`], also returning the trained fleet — the Figure 8
/// (t-SNE) and Figure 9 (conductance) analyses need the client models.
pub fn run_heterogeneous_keep_fleet(
    ctx: &ExperimentContext,
    d: DatasetKind,
    dist: Partitioner,
    method: Method,
) -> (RunResult, Fleet) {
    let data = d.generate(ctx);
    let (mut algo, arch_of) = hetero_algorithm(method, ctx, d, &data);
    let epochs_per_round = algo.epochs_per_round(&d.hyperparams()).max(1);
    let rounds = (ctx.epoch_budget() / epochs_per_round).max(1);
    let cfg = ctx.fed_config(d, ctx.num_clients(), 1.0, rounds);
    let mut fleet = build_fleet(&data, dist, &cfg, arch_of.as_ref());
    let result = run_federation(&mut fleet, algo.as_mut(), &cfg);
    (result, fleet)
}

/// Run one homogeneous experiment (Table 3, Figures 6 & 7).
pub fn run_homogeneous(
    ctx: &ExperimentContext,
    d: DatasetKind,
    num_clients: usize,
    sample_rate: f32,
    method: Method,
) -> RunResult {
    let data = d.generate(ctx);
    let feat = ctx.feature_dim();
    let classes = d.num_classes();
    // Paper: FedAvg/FedProx/KT-pFL use the FedAvg-paper CNN; FedClassAvg
    // uses the ResNet backbone.
    let arch: ModelArch = match method {
        Method::FedClassAvg | Method::FedClassAvgWeight => ModelArch::MicroResNet,
        _ => ModelArch::CnnFedAvg,
    };
    let (c, h, w) = {
        let (c, h, w) = data.train.image_shape();
        (c, h, w)
    };
    let init_state = || {
        let mut reference = fca_models::build_model(
            arch,
            (c, h, w),
            feat,
            classes,
            derive_seed(ctx.seed, 0x610B),
        );
        reference.full_state()
    };
    let mut algo: Box<dyn Algorithm> = match method {
        Method::Baseline => Box::new(LocalOnly::new()),
        Method::FedAvg => Box::new(FedAvg::new(init_state())),
        Method::FedProx => Box::new(FedProx::new(init_state(), 0.1)),
        Method::FedClassAvg => Box::new(FedClassAvg::new(feat, classes, ctx.seed)),
        Method::FedClassAvgWeight => Box::new(FedClassAvg::with_full_weight_sharing(
            feat,
            classes,
            ctx.seed,
            init_state(),
        )),
        Method::KtPfl => {
            let public = public_data(ctx, d, &data);
            Box::new(KtPfl::new(public, num_clients).with_local_epochs(ctx.ktpfl_local_epochs()))
        }
        Method::KtPflWeight => Box::new(KtPflWeight::new(num_clients)),
        Method::FedProto | Method::Ablation { .. } => {
            panic!("{method:?} is not a Table 3 method")
        }
    };
    let epochs_per_round = algo.epochs_per_round(&d.hyperparams()).max(1);
    let rounds = (ctx.epoch_budget() / epochs_per_round).max(1);
    let cfg = ctx.fed_config(d, num_clients, sample_rate, rounds);
    let mut fleet = build_fleet(&data, Partitioner::Dirichlet { alpha: 0.5 }, &cfg, &|_| {
        arch
    });
    run_federation(&mut fleet, algo.as_mut(), &cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_ctx() -> ExperimentContext {
        ExperimentContext::fixed(7, true)
    }

    #[test]
    fn dataset_kinds_generate_correct_shapes() {
        let ctx = quick_ctx();
        // Micro scale halves image extents (FCA_FULL_DIMS=1 restores
        // 32×32/28×28); channels and class counts are unchanged.
        let c = DatasetKind::Cifar.generate(&ctx);
        assert_eq!(c.train.image_shape(), (3, 16, 16));
        let f = DatasetKind::Fashion.generate(&ctx);
        assert_eq!(f.train.image_shape(), (1, 14, 14));
        let e = DatasetKind::Emnist.generate(&ctx);
        assert_eq!(e.train.num_classes, 26);
    }

    #[test]
    fn method_names_match_paper_rows() {
        assert_eq!(Method::FedClassAvg.name(), "Proposed");
        assert_eq!(Method::Baseline.name(), "Baseline (local training)");
        assert_eq!(
            Method::Ablation {
                contrastive: false,
                rho: 0.0
            }
            .name(),
            "CA"
        );
        assert_eq!(
            Method::Ablation {
                contrastive: true,
                rho: 0.1
            }
            .name(),
            "CA+PR+CL"
        );
    }

    #[test]
    fn context_scales_differ() {
        let q = ExperimentContext::fixed(1, true);
        let f = ExperimentContext::fixed(1, false);
        assert!(q.train_size(DatasetKind::Cifar) < f.train_size(DatasetKind::Cifar));
        assert!(q.epoch_budget() < f.epoch_budget());
    }

    #[test]
    fn public_data_has_requested_size() {
        let ctx = quick_ctx();
        let d = DatasetKind::Fashion.generate(&ctx);
        let p = public_data(&ctx, DatasetKind::Fashion, &d);
        assert_eq!(p.shape().as_nchw().0, ctx.public_size());
    }
}
