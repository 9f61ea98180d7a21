//! The experiment runner behind the paper binaries: [`run`] trains one
//! method on one setting at one seed, and [`reproduce`] runs a table
//! declaration ([`crate::tables`]) over every setting × seed × method.
//!
//! The micro-scale knobs (dataset sizes, rounds, feature dim) and their
//! paper-scale counterparts are documented in EXPERIMENTS.md; pass
//! `--quick` to any binary for a fast smoke run.

use fca_data::partition::Partitioner;
use fca_data::synth::{SynthConfig, SynthDataset};
use fca_models::ModelArch;
use fca_tensor::rng::derive_seed;
use fedclassavg::algo::{
    Algorithm, FedAvg, FedClassAvg, FedProto, FedProx, KtPfl, KtPflWeight, LocalOnly,
};
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

    /// The dataset's generator seeded `seed`, at the reproduction's
    /// geometry: image extents are halved (16×16 / 14×14) — the dominant
    /// cost lever on CPU — unless `FCA_FULL_DIMS=1` keeps the original
    /// 32×32 / 28×28. Class structure, channel counts, and class counts are
    /// unchanged.
    fn synth_config(self, seed: u64) -> SynthConfig {
        let mut cfg = match self {
            DatasetKind::Cifar => SynthConfig::synth_cifar(seed),
            DatasetKind::Fashion => SynthConfig::synth_fashion(seed),
            DatasetKind::Emnist => SynthConfig::synth_emnist(seed),
        };
        if std::env::var("FCA_FULL_DIMS").as_deref() != Ok("1") {
            cfg.height /= 2;
            cfg.width /= 2;
            cfg.jitter = (cfg.jitter / 2).max(1);
        }
        cfg
    }

    /// Generate the synthetic dataset at the context's scale.
    pub fn generate(&self, ctx: &ExperimentContext) -> SynthDataset {
        self.synth_config(derive_seed(ctx.seed, 0xDA7A + *self as u64))
            .with_sizes(ctx.train_size(*self), ctx.test_size(*self))
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
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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
        /// Proximal term at the dataset's ρ, or off.
        proximal: bool,
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
            Method::Ablation {
                contrastive,
                proximal,
            } => {
                let mut n = "CA".to_string();
                if *proximal {
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

/// Seeds a full-scale [`reproduce`] runs per setting.
const SEEDS: u64 = 5;
/// Seeds a `--quick` [`reproduce`] runs per setting.
const QUICK_SEEDS: u64 = 3;

/// Scale, seed and setting filter shared by all experiments.
#[derive(Clone, Debug)]
pub struct ExperimentContext {
    /// Master seed: the first of a multi-seed run's seeds.
    pub seed: u64,
    /// Quick (smoke) scale vs full reproduction scale.
    pub quick: bool,
    /// Keep only the settings whose name contains this (case-insensitive).
    pub filter: Option<String>,
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

impl ExperimentContext {
    /// Build from the command line: `--quick` selects the smoke scale,
    /// `--seed N` the master seed (default 42), `--setting NAME` a filter
    /// on the table's settings. Exits with status 2 on any other argument
    /// or a malformed value.
    ///
    /// Fine-grained overrides (for calibration runs): `FCA_EPOCHS`,
    /// `FCA_TRAIN_PER_CLASS`, `FCA_TEST_PER_CLASS`, `FCA_FEAT`,
    /// `FCA_CLIENTS`, `FCA_PUBLIC`, `FCA_FULL_DIMS`.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("{e}\nusage: [--quick] [--seed N] [--setting NAME]");
            std::process::exit(2)
        })
    }

    /// [`Self::from_env`] over the given arguments.
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut ctx = ExperimentContext::fixed(42, false);
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut value = || args.next().ok_or(format!("{arg} needs a value"));
            match arg.as_str() {
                "--quick" => ctx.quick = true,
                "--seed" => {
                    let v = value()?;
                    ctx.seed = v
                        .parse()
                        .map_err(|_| format!("--seed {v:?} is not a seed"))?;
                }
                "--setting" => ctx.filter = Some(value()?),
                _ => return Err(format!("unknown argument {arg:?}")),
            }
        }
        Ok(ctx)
    }

    /// The context at `seed` and scale `quick`, unfiltered.
    pub fn fixed(seed: u64, quick: bool) -> Self {
        ExperimentContext {
            seed,
            quick,
            filter: None,
        }
    }

    /// The seeds a multi-seed run trains at, starting at [`Self::seed`].
    pub fn seeds(&self) -> Vec<u64> {
        let n = if self.quick { QUICK_SEEDS } else { SEEDS };
        (0..n).map(|i| self.seed.wrapping_add(i)).collect()
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
            sample_rate: q,
            feature_dim: self.feature_dim(),
            eval_every: (rounds / 10).max(1),
            ..FedConfig::new(clients, d.hyperparams(), rounds, self.seed)
        }
    }
}

/// KT-pFL public data: an extra synthetic split from the same generator
/// family and geometry (the paper assumes public data distributionally
/// similar to the private data).
pub fn public_data(ctx: &ExperimentContext, d: DatasetKind) -> fca_tensor::Tensor {
    d.synth_config(derive_seed(ctx.seed, 0x9B11C + d as u64))
        .with_sizes(ctx.public_size(), 1)
        .generate()
        .train
        .images
}

/// One column of a table: the data, how its labels are spread, and the
/// fleet that trains on it.
#[derive(Clone, Copy, Debug)]
pub struct Setting {
    /// The dataset.
    pub dataset: DatasetKind,
    /// How labels are spread across clients.
    pub partitioner: Partitioner,
    /// Fleet size; `None` is the context's standard fleet
    /// ([`ExperimentContext::num_clients`]).
    pub clients: Option<usize>,
    /// Fraction of clients sampled per round.
    pub sample_rate: f32,
    /// Every client runs one architecture (Table 3) rather than the
    /// four-family rotation (Tables 2 and 4).
    pub homogeneous: bool,
}

impl Setting {
    /// The standard heterogeneous fleet on `dataset` under `partitioner`.
    pub const fn heterogeneous(dataset: DatasetKind, partitioner: Partitioner) -> Setting {
        Setting {
            dataset,
            partitioner,
            clients: None,
            sample_rate: 1.0,
            homogeneous: false,
        }
    }

    /// Display name: the dataset and what the table varies beside it.
    pub fn name(&self) -> String {
        match self.clients {
            Some(n) => format!("{} {n} clients", self.dataset.name()),
            None => format!("{} {}", self.dataset.name(), self.distribution()),
        }
    }

    /// The label distribution's name, as the paper labels it.
    pub fn distribution(&self) -> String {
        match self.partitioner {
            Partitioner::Dirichlet { alpha } => format!("Dir({alpha})"),
            Partitioner::Skewed { .. } => "Skewed".into(),
        }
    }

    /// Fleet size at the context's scale.
    pub fn num_clients(&self, ctx: &ExperimentContext) -> usize {
        self.clients.unwrap_or_else(|| ctx.num_clients())
    }
}

/// Which architecture client `k` runs.
type ArchMap = Box<dyn Fn(usize) -> ModelArch>;

/// Build the method's server-side algorithm and pick the fleet's
/// architecture map.
fn algorithm(
    method: Method,
    ctx: &ExperimentContext,
    setting: &Setting,
    data: &SynthDataset,
) -> (Box<dyn Algorithm>, ArchMap) {
    let d = setting.dataset;
    let (feat, classes, seed) = (ctx.feature_dim(), d.num_classes(), ctx.seed);
    let clients = setting.num_clients(ctx);
    // Paper: FedProto runs the *less heterogeneous* width-varied CNN scheme
    // because prototypes must share dimensions; homogeneous fleets run the
    // FedAvg-paper CNN, except FedClassAvg's ResNet backbone.
    let arch_of: ArchMap = match method {
        Method::FedProto => Box::new(|k| ModelArch::ProtoCnn {
            width_variant: k % 4,
        }),
        _ if !setting.homogeneous => Box::new(ModelArch::heterogeneous_rotation),
        Method::FedClassAvg | Method::FedClassAvgWeight => Box::new(|_| ModelArch::MicroResNet),
        _ => Box::new(|_| ModelArch::CnnFedAvg),
    };
    let init_state = || {
        let shape = data.train.image_shape();
        let model_seed = derive_seed(seed, 0x610B);
        fca_models::build_model(arch_of(0), shape, feat, classes, model_seed).full_state()
    };
    let algo: Box<dyn Algorithm> = match method {
        Method::Baseline => Box::new(LocalOnly::new()),
        Method::FedProto => Box::new(FedProto::new(feat, classes, 1.0)),
        Method::KtPfl => Box::new(
            KtPfl::new(public_data(ctx, d), clients).with_local_epochs(ctx.ktpfl_local_epochs()),
        ),
        Method::FedClassAvg => Box::new(FedClassAvg::new(feat, classes, seed)),
        Method::Ablation {
            contrastive,
            proximal,
        } => {
            let rho = if proximal { d.hyperparams().rho } else { 0.0 };
            Box::new(FedClassAvg::ablation(feat, classes, seed, contrastive, rho))
        }
        Method::FedAvg => Box::new(FedAvg::new(init_state())),
        Method::FedProx => Box::new(FedProx::new(init_state(), 0.1)),
        Method::FedClassAvgWeight => Box::new(FedClassAvg::with_full_weight_sharing(
            feat,
            classes,
            seed,
            init_state(),
        )),
        Method::KtPflWeight => Box::new(KtPflWeight::new(clients)),
    };
    (algo, arch_of)
}

/// Train `method` on `setting` at `seed` for the context's epoch budget;
/// also returns the trained fleet (Figures 8–9 analyse the client models).
/// Every method at one (setting, seed) draws the same dataset, partition
/// and (empty) fault plan.
pub fn run(
    ctx: &ExperimentContext,
    setting: &Setting,
    method: Method,
    seed: u64,
) -> (RunResult, Fleet) {
    let ctx = &ExperimentContext::fixed(seed, ctx.quick);
    let d = setting.dataset;
    let data = d.generate(ctx);
    let (mut algo, arch_of) = algorithm(method, ctx, setting, &data);
    let epochs_per_round = algo.epochs_per_round(&d.hyperparams()).max(1);
    let rounds = (ctx.epoch_budget() / epochs_per_round).max(1);
    let cfg = ctx.fed_config(d, setting.num_clients(ctx), setting.sample_rate, rounds);
    let mut fleet = build_fleet(&data, setting.partitioner, &cfg, arch_of.as_ref());
    let result = run_federation(&mut fleet, algo.as_mut(), &cfg);
    (result, fleet)
}

/// A paper table as data: what to run, what the paper reported, and which
/// orderings it claims ([`crate::tables`] holds Tables 2–4).
#[derive(Debug)]
pub struct Table {
    /// Heading printed above the table.
    pub title: &'static str,
    /// Stem of the `results/*.json` file an unfiltered run writes.
    pub file: &'static str,
    /// The columns.
    pub settings: &'static [Setting],
    /// The rows: each method with the paper's value in every setting, in
    /// `settings` order.
    pub rows: &'static [(Method, &'static [f64])],
    /// The paper's claims: `(better, worse)` rows, `better` ahead in
    /// every setting.
    pub orderings: &'static [(Method, Method)],
    /// The learning-curve figures drawn from the first seed's runs: their
    /// results file and the methods they plot.
    pub curves: Option<(&'static str, &'static [Method])>,
}

impl Table {
    /// Index of `method` among the rows.
    pub(crate) fn row(&self, method: Method) -> Option<usize> {
        self.rows.iter().position(|(m, _)| *m == method)
    }
}

/// Every run of one [`reproduce`] call.
#[derive(Debug)]
pub struct Reproduction<'t> {
    /// The table run.
    pub table: &'t Table,
    /// Indices of the settings the filter kept.
    pub settings: Vec<usize>,
    /// The seeds, first to last.
    pub seeds: Vec<u64>,
    /// `runs[setting][row][seed]`, `setting` indexing [`Self::settings`].
    pub runs: Vec<Vec<Vec<RunResult>>>,
}

/// Run every setting × seed × method of `table` that the context's filter
/// keeps. A filter that keeps no setting is an error, before anything
/// runs.
#[expect(
    clippy::disallowed_methods,
    reason = "bench binaries time wall-clock by design"
)]
pub fn reproduce<'t>(
    ctx: &ExperimentContext,
    table: &'t Table,
) -> Result<Reproduction<'t>, String> {
    let settings: Vec<usize> = (0..table.settings.len())
        .filter(|&s| {
            ctx.filter.as_ref().is_none_or(|f| {
                let name = table.settings[s].name().to_lowercase();
                name.contains(&f.to_lowercase())
            })
        })
        .collect();
    if settings.is_empty() {
        let names: Vec<String> = table.settings.iter().map(Setting::name).collect();
        return Err(format!(
            "--setting {:?} matches none of {}'s settings: {}",
            ctx.filter.as_deref().unwrap_or_default(),
            table.file,
            names.join(", ")
        ));
    }
    let seeds = ctx.seeds();
    let mut runs = Vec::with_capacity(settings.len());
    for &s in &settings {
        let setting = &table.settings[s];
        let mut by_row: Vec<Vec<RunResult>> = table.rows.iter().map(|_| Vec::new()).collect();
        for &seed in &seeds {
            for ((method, _), cell) in table.rows.iter().zip(&mut by_row) {
                let t0 = std::time::Instant::now();
                let (result, _) = run(ctx, setting, *method, seed);
                eprintln!(
                    "[{}] {:<26} {:<24} seed {seed:<4} acc {:.4} ± {:.4}  ({:.1}s)",
                    table.file,
                    method.name(),
                    setting.name(),
                    result.final_mean,
                    result.final_std,
                    t0.elapsed().as_secs_f32()
                );
                cell.push(result);
            }
        }
        runs.push(by_row);
    }
    Ok(Reproduction {
        table,
        settings,
        seeds,
        runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::{TABLE2, TABLE3, TABLE4};

    fn quick_ctx() -> ExperimentContext {
        ExperimentContext::fixed(7, true)
    }

    fn args(s: &str) -> Result<ExperimentContext, String> {
        ExperimentContext::parse(s.split_whitespace().map(String::from))
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
                proximal: false
            }
            .name(),
            "CA"
        );
        assert_eq!(
            Method::Ablation {
                contrastive: true,
                proximal: true
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
        assert_eq!(q.seeds(), [1, 2, 3]);
        assert_eq!(f.seeds(), [1, 2, 3, 4, 5]);
    }

    #[test]
    fn public_data_has_requested_size_and_the_private_geometry() {
        let ctx = quick_ctx();
        let d = DatasetKind::Fashion.generate(&ctx);
        let p = public_data(&ctx, DatasetKind::Fashion);
        let (n, c, h, w) = p.shape().as_nchw();
        assert_eq!(n, ctx.public_size());
        assert_eq!((c, h, w), d.train.image_shape());
    }

    #[test]
    fn malformed_arguments_are_errors() {
        let ctx = args("--quick --seed 7 --setting fashion").expect("well-formed");
        assert_eq!((ctx.seed, ctx.quick), (7, true));
        assert_eq!(ctx.filter.as_deref(), Some("fashion"));
        assert_eq!(args("").expect("no arguments").seed, 42);
        for bad in [
            "--seed abc",
            "--seed",
            "--setting",
            "--dataset fashion",
            "quick",
        ] {
            assert!(args(bad).is_err(), "{bad:?} was accepted");
        }
    }

    #[test]
    fn a_filter_matching_no_setting_is_an_error_before_anything_runs() {
        let mut ctx = quick_ctx();
        ctx.filter = Some("xyz".into());
        for table in [&TABLE2, &TABLE3, &TABLE4] {
            let err = reproduce(&ctx, table).expect_err("nothing matches");
            assert!(err.contains("xyz"), "{err}");
        }
    }

    #[test]
    fn every_method_at_one_setting_and_seed_trains_on_the_same_shards() {
        // Table 2's four methods build three kinds of fleet (the rotation,
        // FedProto's width-varied CNNs) and KT-pFL runs fewer, longer
        // rounds; the shards under them must still be the same.
        let ctx = quick_ctx();
        let setting = &TABLE2.settings[3];
        assert_eq!(setting.name(), "Fashion-MNIST Skewed");
        let runs: Vec<(Method, usize, Vec<f32>)> = TABLE2
            .rows
            .iter()
            .map(|&(m, _)| {
                let (result, fleet) = run(&ctx, setting, m, ctx.seed);
                let weights = (0..fleet.len()).map(|k| fleet.weight(k)).collect();
                (m, result.rounds, weights)
            })
            .collect();
        let (_, rounds, weights) = &runs[0];
        assert_eq!(weights.len(), ctx.num_clients());
        for (m, r, w) in &runs {
            assert_eq!(w, weights, "{m:?} trained on other shards");
            if *m == Method::KtPfl {
                assert!(r < rounds, "KT-pFL ran {r} rounds, the baseline {rounds}");
            }
        }
    }

    #[test]
    fn fedclassavg_vs_local_on_skewed_labels() {
        // The paper's core claim: under label skew, classifier averaging +
        // representation learning beats isolated local training. At this
        // micro scale the paired runs do not resolve that ordering on
        // skewed Fashion-MNIST (EXPERIMENTS.md, Table 2), so what is
        // asserted is what they do say: with the same seed, partition and
        // budget in both arms, both learn on every seed and FedClassAvg is
        // on average no worse. ROADMAP item 1's scale ladder owns the
        // ordering.
        static SETTINGS: [Setting; 1] = [TABLE2.settings[3]];
        static PAPER: [(Method, &[f64]); 2] = [
            (Method::Baseline, &[0.9430]),
            (Method::FedClassAvg, &[0.9800]),
        ];
        let table = Table {
            title: "Baseline vs Proposed, Fashion-MNIST Skewed",
            file: "parity",
            settings: &SETTINGS,
            rows: &PAPER,
            orderings: &[(Method::FedClassAvg, Method::Baseline)],
            curves: None,
        };
        let ctx = ExperimentContext::fixed(42, true);
        let rep = reproduce(&ctx, &table).expect("one setting");
        let chance = 1.0 / SETTINGS[0].dataset.num_classes() as f32;
        for (row, runs) in rep.runs[0].iter().enumerate() {
            assert_eq!(runs.len(), 3);
            for (r, seed) in runs.iter().zip(&rep.seeds) {
                assert!(
                    r.per_client_acc.iter().all(|a| a.is_finite()) && r.final_mean > chance + 0.05,
                    "{} did not learn at seed {seed}: {:.3}",
                    table.rows[row].0.name(),
                    r.final_mean
                );
            }
        }
        let verdicts = rep.verdicts();
        let v = &verdicts[0];
        println!("{}", crate::report::render(&rep));
        assert!(
            v.mean > -0.05,
            "FedClassAvg fell behind local-only by {:+.3} on average",
            v.mean
        );
    }
}
