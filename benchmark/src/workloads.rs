//! The four workloads: their constants, their set-up, and one rep of each.
//!
//! Nothing here is sized at run time. A rep is a fixed amount of work, so a
//! parent commit and a change always do the same thing and the only number
//! that moves is how long it takes.
//!
//! The sizes are what this box (two shared vCPUs, ~1.7 s for one
//! MicroResNet round on 64 images of 28×28) lets a 30 s run repeat about a
//! hundred times: a run is never extended, so the 60 timed reps it should
//! reach need room for a machine, or a commit, that is half as slow again.
//! Images use the repository's own micro geometry (14×14, as `fca-bench`'s
//! `DatasetKind::generate` halves them) except where a workload says
//! otherwise.

use fca_data::partition::Partitioner;
use fca_data::synth::{tiny_dataset, SynthConfig, SynthDataset};
use fca_models::{build_model, ModelArch};
use fca_tensor::quant::Precision;
use fca_tensor::rng::derive_seed;
use fca_tensor::{PoolStats, Tensor, WorkspaceStats};
use fedclassavg::algo::{
    Algorithm, FedAvg, FedClassAvg, FedMd, FedProto, FedProx, KtPfl, LocalOnly,
};
use fedclassavg::comm::{Fate, FaultPlan};
use fedclassavg::config::{Aggregation, DriftSchedule, FedConfig, HyperParams, TransportKind};
use fedclassavg::fleet::{Fleet, PagingStats};
use fedclassavg::sim::{
    build_fleet, build_fleet_paged, run_federation_from, sample_clients, RunResult, RunState,
};
use fedclassavg::Checkpoint;
use std::time::Instant;

/// What `BENCHMARK.json` states as `run_seconds`.
pub const RUN_SECONDS: u64 = 30;
/// Reps run and thrown away before timing: lazy kernel detection,
/// allocator growth, page cache.
pub const WARMUP_REPS: usize = 3;
/// A full-length run (`--seconds >= RUN_SECONDS`) should time at least this
/// many reps. A run that does not says so on a `PROTOCOL` line and stays
/// `correct`: a neighbour on the host can halve the reps of unchanged code,
/// and the driver refuses a benchmark of which one run in ninety fails.
pub const MIN_TIMED_REPS: usize = 60;
/// Every rep sample should last at least this long (`PROTOCOL` line if not).
pub const MIN_REP_SECS: f64 = 0.100;
/// Every set-up sample (`setups_per_sample` set-ups) should last this long
/// (`PROTOCOL` line if not).
pub const MIN_SETUP_SECS: f64 = 0.050;

const MICRO_HW: usize = 14;
const DIRICHLET: Partitioner = Partitioner::Dirichlet { alpha: 0.5 };

// hetero_train
const HETERO_CLIENTS: usize = 4;
const HETERO_TRAIN_PER_CLIENT: usize = 16;
const HETERO_TEST_PER_CLIENT: usize = 8;
const HETERO_FEATURE_DIM: usize = 32;
const HETERO_ROUNDS: usize = 2;
// The untimed learning check: a rep is too short to learn anything.
const LEARN_TRAIN_PER_CLIENT: usize = 64;
const LEARN_TEST_PER_CLIENT: usize = 32;
const LEARN_ROUNDS: usize = 8;
/// `final_mean` of the learning check must beat its round-0 accuracy by this.
/// Over 330 seeds the gain was 0.11–0.48 (mean 0.27, deviation 0.075, both
/// accuracies being counts over 128 images): the floor is three deviations
/// down, so that no seed the driver picks fails a trainer that works.
pub const LEARN_FLOOR_GAIN: f32 = 0.04;

// paged_fleet
const PAGED_CLIENTS: usize = 10_000;
const PAGED_CLASSES: usize = 3;
const PAGED_TEST_IMAGES: usize = 300;
const PAGED_MAX_RESIDENT: usize = 8;
const PAGED_SAMPLED: usize = 16;
const PAGED_EVAL_SAMPLE: usize = 8;
const PAGED_FEATURE_DIM: usize = 8;
const PAGED_ROUNDS_BEFORE: usize = 1;
const PAGED_ROUNDS_AFTER: usize = 1;
// One architecture for the whole fleet: which clients a round samples depends
// on the seed, and with the four-way rotation so would the work per rep
// (a MicroResNet step costs five MicroAlexNet steps) and the checkpoint's
// size. MicroResNet has the zoo's largest snapshot, so paging and the
// checkpoint codec carry the most bytes.
const PAGED_ARCH: ModelArch = ModelArch::MicroResNet;

// wire_full_model
const WIRE_CLIENTS: usize = 8;
const WIRE_HW: usize = 28;
const WIRE_FEATURE_DIM: usize = 128;
const WIRE_ROUNDS: usize = 3;
const WIRE_ARCH: ModelArch = ModelArch::CnnFedAvg;
const WIRE_RATES: (f32, f32, f32) = (0.08, 0.05, 0.10);
// Four uplinks dropped (three clients offline, one late) and three corrupt.
const WIRE_OFFLINE: u64 = 3;
const WIRE_STRAGGLERS: u64 = 1;
const WIRE_CORRUPT: u64 = 3;

// algo_mix
const MIX_CLIENTS: usize = 6;
const MIX_TRAIN_PER_CLIENT: usize = 4;
const MIX_TEST_PER_CLIENT: usize = 4;
const MIX_FEATURE_DIM: usize = 16;
const MIX_PUBLIC_IMAGES: usize = 8;
const MIX_ROUNDS: usize = 2;
const MIX_BUFFERED_ROUNDS: usize = 3;
const MIX_GOAL_K: usize = 4;
const MIX_MAX_STALENESS: usize = 2;
const MIX_STRAGGLER_RATE: f32 = 0.2;
const MIX_STRAGGLERS: u64 = 3;
// One straggler in each round leaves five fresh replies for a `goal_k` of 4.
const MIX_SPILLED: u64 = 3;
const MIX_FEDPROX_MU: f32 = 0.1;
const MIX_FEDPROTO_LAMBDA: f32 = 1.0;
/// Leg names, in the order they run; `algo.round_ms.<name>` reports each.
pub const MIX_LEGS: [&str; 6] = [
    "localonly",
    "fedprox",
    "fedproto",
    "fedmd",
    "ktpfl",
    "fedclassavg_buffered",
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    HeteroTrain,
    PagedFleet,
    WireFullModel,
    AlgoMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::HeteroTrain,
        Workload::PagedFleet,
        Workload::WireFullModel,
        Workload::AlgoMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HeteroTrain => "hetero_train",
            Workload::PagedFleet => "paged_fleet",
            Workload::WireFullModel => "wire_full_model",
            Workload::AlgoMix => "algo_mix",
        }
    }

    /// Why the workload exists, as `BENCHMARK.json` states it.
    pub fn why(self) -> &'static str {
        match self {
            Workload::HeteroTrain => "The paper's setting: four resident clients, one per architecture, two-view SupCon + CE + proximal training; model forward/backward, losses, Adam and GEMM lead, comm and paging do almost nothing.",
            Workload::PagedFleet => "10 000 cold one-image clients under an 8-client residency cap, then a checkpoint restored onto a second fleet: hydrate/evict, the snapshot and checkpoint codecs and model builds lead, kernels do not.",
            Workload::WireFullModel => "FedAvg full-model exchange (~1.6 MB per client-round) over a Unix socket under a pinned fault plan: message and tensor codecs, frame I/O, the count-driven collect and the aggregate fold lead.",
            Workload::AlgoMix => "Six short legs over TCP (LocalOnly, FedProx, FedProto, FedMD, KT-pFL, buffered FedClassAvg with stragglers and drift): holds every protocol still against a change made for FedClassAvg.",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Set-ups timed back to back as one set-up sample, so that the sample
    /// clears [`MIN_SETUP_SECS`] by half as much again (one set-up takes
    /// about 1.2, 40, 26 and 4.8 ms on the four workloads when the machine is
    /// quiet) and still clears it when the machine runs a fifth faster, as
    /// it does for seconds at a time.
    pub fn setups_per_sample(self) -> usize {
        match self {
            Workload::HeteroTrain => 64,
            Workload::PagedFleet => 2,
            Workload::WireFullModel => 3,
            Workload::AlgoMix => 16,
        }
    }

    /// How many of a sample's set-ups a rep consumes; the rest are dropped
    /// as they are built so they never add to the heap's high-water mark.
    pub fn setups_per_rep(self) -> usize {
        match self {
            // The second one is the fleet the checkpoint is restored onto.
            Workload::PagedFleet => 2,
            _ => 1,
        }
    }

    /// Rounds in one rep, over all its legs.
    pub fn rounds_per_rep(self) -> u64 {
        (match self {
            Workload::HeteroTrain => HETERO_ROUNDS,
            Workload::PagedFleet => PAGED_ROUNDS_BEFORE + PAGED_ROUNDS_AFTER,
            Workload::WireFullModel => WIRE_ROUNDS,
            Workload::AlgoMix => 5 * MIX_ROUNDS + MIX_BUFFERED_ROUNDS,
        }) as u64
    }

    /// Clients sampled in every round.
    pub fn clients_per_round(self) -> u64 {
        (match self {
            Workload::HeteroTrain => HETERO_CLIENTS,
            Workload::PagedFleet => PAGED_SAMPLED,
            Workload::WireFullModel => WIRE_CLIENTS,
            Workload::AlgoMix => MIX_CLIENTS,
        }) as u64
    }

    /// Client steps — (round, sampled client) pairs — in one rep.
    pub fn client_steps_per_rep(self) -> u64 {
        self.rounds_per_rep() * self.clients_per_round()
    }
}

/// What a leg's fault plan will do over its rounds, worked out from
/// [`FaultPlan::fate`] before anything runs. Each kind of fate is counted on
/// its own because each is different work: an offline client does not train,
/// a straggler trains and sends for nothing, a corrupt uplink is decoded and
/// thrown away.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCounts {
    pub offline: u64,
    pub stragglers: u64,
    pub corrupt: u64,
    /// Fresh replies of a round beyond its `goal_k`, which spill into the
    /// staleness buffer (buffered aggregation only).
    pub spilled: u64,
    buffered_mode: bool,
}

impl PlanCounts {
    /// Uplinks the server never sees: offline clients, and stragglers under
    /// the synchronous barrier.
    pub fn lost(&self) -> u64 {
        self.offline
            + if self.buffered_mode {
                0
            } else {
                self.stragglers
            }
    }

    /// Uplinks that enter the staleness buffer.
    pub fn buffered(&self) -> u64 {
        self.spilled
            + if self.buffered_mode {
                self.stragglers
            } else {
                0
            }
    }
}

/// Count what `plan` injects into a federation configured by `cfg`.
pub fn plan_counts(cfg: &FedConfig, plan: &FaultPlan) -> PlanCounts {
    let mut out = PlanCounts {
        buffered_mode: cfg.aggregation.is_buffered(),
        ..PlanCounts::default()
    };
    for round in 1..=cfg.rounds {
        let mut healthy = 0usize;
        for k in sample_clients(cfg.num_clients, cfg.clients_per_round(), cfg.seed, round) {
            match plan.fate(round, k) {
                Fate::Healthy => healthy += 1,
                Fate::Dropped => out.offline += 1,
                Fate::Straggler => out.stragglers += 1,
                Fate::Corrupt => out.corrupt += 1,
            }
        }
        if let Aggregation::Buffered { goal_k, .. } = cfg.aggregation {
            out.spilled += healthy.saturating_sub(goal_k) as u64;
        }
    }
    out
}

/// The first fault seed, tried in a fixed order from `seed`, whose plan at
/// `rates` (dropout, straggler, corruption) injects what `accept` wants into
/// `cfg`. Pinning the counts keeps the work per rep the same for every
/// `--seed`.
pub fn pinned_plan(
    cfg: &FedConfig,
    seed: u64,
    rates: (f32, f32, f32),
    accept: impl Fn(&PlanCounts) -> bool,
) -> (FaultPlan, PlanCounts) {
    (0..1_000_000u64)
        .map(|attempt| {
            let fault_seed = derive_seed(seed, 0xFA17_5EED_0000 + attempt);
            let plan = FaultPlan::new(fault_seed, rates.0, rates.1, rates.2);
            (plan, plan_counts(cfg, &plan))
        })
        .find(|(_, counts)| accept(counts))
        .unwrap_or_else(|| panic!("no fault seed is accepted at rates {rates:?}"))
}

/// One federation a rep runs: a fleet, its algorithm and its config.
pub struct Leg {
    pub name: &'static str,
    pub fleet: Fleet,
    pub algo: Box<dyn Algorithm>,
    pub cfg: FedConfig,
    pub plan: PlanCounts,
}

/// The product of one set-up.
pub struct Prepared {
    pub legs: Vec<Leg>,
}

/// Everything a run works out once from `--seed`; a set-up turns it into a
/// federation ready to run.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    /// One `(plan, counts)` per leg that injects faults, by leg name.
    plans: Vec<(&'static str, FaultPlan, PlanCounts)>,
}

fn base_cfg(clients: usize, rounds: usize, feature_dim: usize, seed: u64) -> FedConfig {
    let cfg = FedConfig {
        num_clients: clients,
        sample_rate: 1.0,
        rounds,
        feature_dim,
        // One curve point before training and one after it.
        eval_every: rounds,
        seed,
        hp: HyperParams::micro_default(),
        faults: FaultPlan::none(),
        eval_sample: 0,
        eval_precision: Precision::F32,
        transport: TransportKind::InProcess,
        aggregation: Aggregation::Sync,
        drift: DriftSchedule::off(),
    };
    cfg.validate();
    cfg
}

fn micro_fashion(seed: u64, hw: usize, train: usize, test: usize) -> SynthDataset {
    let mut cfg = SynthConfig::synth_fashion(derive_seed(seed, 0xDA7A)).with_sizes(train, test);
    cfg.jitter = (cfg.jitter * hw / cfg.height).max(1);
    cfg.height = hw;
    cfg.width = hw;
    cfg.generate()
}

fn hetero_data(seed: u64, train_per_client: usize, test_per_client: usize) -> SynthDataset {
    micro_fashion(
        seed,
        MICRO_HW,
        HETERO_CLIENTS * train_per_client,
        HETERO_CLIENTS * test_per_client,
    )
}

/// One-image shards for `clients` clients.
fn paged_data(seed: u64, clients: usize) -> SynthDataset {
    tiny_dataset(
        PAGED_CLASSES,
        clients,
        PAGED_TEST_IMAGES.min(clients),
        derive_seed(seed, 0xDA7A),
    )
}

fn hetero_cfg(seed: u64, rounds: usize) -> FedConfig {
    base_cfg(HETERO_CLIENTS, rounds, HETERO_FEATURE_DIM, seed)
}

fn paged_cfg(seed: u64, rounds: usize) -> FedConfig {
    let mut cfg = base_cfg(PAGED_CLIENTS, rounds, PAGED_FEATURE_DIM, seed);
    cfg.sample_rate = PAGED_SAMPLED as f32 / PAGED_CLIENTS as f32;
    cfg.eval_sample = PAGED_EVAL_SAMPLE;
    assert_eq!(cfg.clients_per_round(), PAGED_SAMPLED);
    cfg
}

fn wire_cfg(seed: u64) -> FedConfig {
    base_cfg(WIRE_CLIENTS, WIRE_ROUNDS, WIRE_FEATURE_DIM, seed)
        .with_transport(TransportKind::UnixSocket)
}

fn mix_cfg(seed: u64, rounds: usize) -> FedConfig {
    base_cfg(MIX_CLIENTS, rounds, MIX_FEATURE_DIM, seed).with_transport(TransportKind::Tcp)
}

fn mix_buffered_cfg(seed: u64) -> FedConfig {
    mix_cfg(seed, MIX_BUFFERED_ROUNDS)
        .with_aggregation(Aggregation::Buffered {
            goal_k: MIX_GOAL_K,
            max_staleness: MIX_MAX_STALENESS,
        })
        .with_drift(DriftSchedule::over(1, MIX_BUFFERED_ROUNDS))
}

impl Inputs {
    pub fn new(workload: Workload, seed: u64) -> Inputs {
        let plans = match workload {
            Workload::WireFullModel => {
                let (plan, counts) = pinned_plan(&wire_cfg(seed), seed, WIRE_RATES, |c| {
                    (c.offline, c.stragglers, c.corrupt)
                        == (WIRE_OFFLINE, WIRE_STRAGGLERS, WIRE_CORRUPT)
                });
                vec![("fedavg", plan, counts)]
            }
            Workload::AlgoMix => {
                let rates = (0.0, MIX_STRAGGLER_RATE, 0.0);
                let (plan, counts) = pinned_plan(&mix_buffered_cfg(seed), seed, rates, |c| {
                    (c.stragglers, c.spilled) == (MIX_STRAGGLERS, MIX_SPILLED)
                });
                vec![(MIX_LEGS[5], plan, counts)]
            }
            Workload::HeteroTrain | Workload::PagedFleet => Vec::new(),
        };
        Inputs {
            workload,
            seed,
            plans,
        }
    }

    /// The pinned plan of `leg` and what it injects (nothing for a leg
    /// without faults).
    pub fn plan(&self, leg: &str) -> (FaultPlan, PlanCounts) {
        self.plans
            .iter()
            .find(|(name, ..)| *name == leg)
            .map_or((FaultPlan::none(), PlanCounts::default()), |&(_, p, c)| {
                (p, c)
            })
    }
}

/// Clients in the capped fleets the traced run's probes build.
const PROBE_CLIENTS: usize = 16;

/// A workload's main federation before it is built: its data, config and
/// model map. The set-up builds the rep's fleet from it and the traced run's
/// probes take their shapes from it.
pub struct Shape {
    pub data: SynthDataset,
    pub cfg: FedConfig,
    pub arch_of: fn(usize) -> ModelArch,
    /// `Some` when the workload builds its fleet paged.
    pub max_resident: Option<usize>,
}

impl Shape {
    pub fn fleet(&self) -> Fleet {
        match self.max_resident {
            Some(cap) => build_fleet_paged(&self.data, DIRICHLET, &self.cfg, cap, &self.arch_of),
            None => build_fleet(&self.data, DIRICHLET, &self.cfg, &self.arch_of),
        }
    }
}

/// The main federation of the workload (for `algo_mix`, the buffered
/// FedClassAvg leg). `capped` keeps at most [`PROBE_CLIENTS`] clients, so
/// that probes which need every client resident stay small on `paged_fleet`;
/// the other workloads are below the cap anyway.
pub fn shape(inp: &Inputs, capped: bool) -> Shape {
    let seed = inp.seed;
    let rotation = ModelArch::heterogeneous_rotation;
    type ArchOf = fn(usize) -> ModelArch;
    let (data, cfg, arch_of, max_resident): (_, _, ArchOf, _) = match inp.workload {
        Workload::HeteroTrain => (
            hetero_data(seed, HETERO_TRAIN_PER_CLIENT, HETERO_TEST_PER_CLIENT),
            hetero_cfg(seed, HETERO_ROUNDS),
            rotation,
            None,
        ),
        Workload::PagedFleet if capped => (
            paged_data(seed, PROBE_CLIENTS),
            base_cfg(PROBE_CLIENTS, PAGED_ROUNDS_BEFORE, PAGED_FEATURE_DIM, seed),
            |_| PAGED_ARCH,
            Some(PAGED_MAX_RESIDENT),
        ),
        Workload::PagedFleet => (
            paged_data(seed, PAGED_CLIENTS),
            paged_cfg(seed, PAGED_ROUNDS_BEFORE),
            |_| PAGED_ARCH,
            Some(PAGED_MAX_RESIDENT),
        ),
        Workload::WireFullModel => (
            micro_fashion(seed, WIRE_HW, WIRE_CLIENTS, WIRE_CLIENTS),
            wire_cfg(seed).with_faults(inp.plan("fedavg").0),
            |_| WIRE_ARCH,
            None,
        ),
        Workload::AlgoMix => (
            micro_fashion(
                seed,
                MICRO_HW,
                MIX_CLIENTS * MIX_TRAIN_PER_CLIENT,
                MIX_CLIENTS * MIX_TEST_PER_CLIENT,
            ),
            mix_buffered_cfg(seed).with_faults(inp.plan(MIX_LEGS[5]).0),
            proto_cnn,
            None,
        ),
    };
    Shape {
        data,
        cfg,
        arch_of,
        max_resident,
    }
}

/// From the seed to a federation ready to run: data synthesis, the
/// partition, the fleet, public data where the protocol needs it, and the
/// algorithm. This is what `setup_s` times.
pub fn set_up(inp: &Inputs) -> Prepared {
    let main = shape(inp, false);
    let legs = match inp.workload {
        Workload::AlgoMix => algo_mix_legs(inp, main),
        Workload::WireFullModel => {
            let init = initial_state(WIRE_ARCH, &main.data, WIRE_FEATURE_DIM, inp.seed);
            vec![Leg {
                name: "fedavg",
                fleet: main.fleet(),
                algo: Box::new(FedAvg::new(init)),
                cfg: main.cfg,
                plan: inp.plan("fedavg").1,
            }]
        }
        Workload::HeteroTrain | Workload::PagedFleet => vec![fedclassavg_leg("fedclassavg", main)],
    };
    Prepared { legs }
}

/// FedClassAvg over `main`, fault-free.
fn fedclassavg_leg(name: &'static str, main: Shape) -> Leg {
    Leg {
        name,
        fleet: main.fleet(),
        algo: Box::new(FedClassAvg::new(
            main.cfg.feature_dim,
            main.data.train.num_classes,
            main.cfg.seed,
        )),
        cfg: main.cfg,
        plan: PlanCounts::default(),
    }
}

/// The state every client of a homogeneous fleet starts the server from.
fn initial_state(
    arch: ModelArch,
    data: &SynthDataset,
    feature_dim: usize,
    seed: u64,
) -> Vec<Tensor> {
    build_model(
        arch,
        data.train.image_shape(),
        feature_dim,
        data.train.num_classes,
        derive_seed(seed, 0x610B),
    )
    .full_state()
}

/// FedProto's width-varied CNNs: heterogeneous, and cheap enough that the two
/// distillation protocols (five passes per client and round over the public
/// set) and the three buffered rounds fit in a rep beside the others. The
/// zoo's four architectures train in the LocalOnly leg and on `hetero_train`.
fn proto_cnn(k: usize) -> ModelArch {
    ModelArch::ProtoCnn {
        width_variant: k % 4,
    }
}

/// The six legs of `algo_mix`; `main` is the last one's federation, whose
/// data the others share.
fn algo_mix_legs(inp: &Inputs, main: Shape) -> Vec<Leg> {
    let seed = inp.seed;
    let data = &main.data;
    let classes = data.train.num_classes;
    // Public data for the distillation protocols: a further draw from the
    // same generator family, as `fca-bench` does.
    let public = micro_fashion(derive_seed(seed, 0x9B11C), MICRO_HW, MIX_PUBLIC_IMAGES, 1)
        .train
        .images;
    let plain = mix_cfg(seed, MIX_ROUNDS);
    let fleet_of =
        |arch_of: &dyn Fn(usize) -> ModelArch| build_fleet(data, DIRICHLET, &plain, arch_of);
    let leg = |name, fleet, algo: Box<dyn Algorithm>| Leg {
        name,
        fleet,
        algo,
        cfg: plain.clone(),
        plan: PlanCounts::default(),
    };
    let mut legs = vec![
        leg(
            MIX_LEGS[0],
            fleet_of(&ModelArch::heterogeneous_rotation),
            Box::new(LocalOnly::new()),
        ),
        leg(
            MIX_LEGS[1],
            fleet_of(&|_| ModelArch::CnnFedAvg),
            Box::new(FedProx::new(
                initial_state(ModelArch::CnnFedAvg, data, MIX_FEATURE_DIM, seed),
                MIX_FEDPROX_MU,
            )),
        ),
        leg(
            MIX_LEGS[2],
            fleet_of(&proto_cnn),
            Box::new(FedProto::new(MIX_FEATURE_DIM, classes, MIX_FEDPROTO_LAMBDA)),
        ),
        leg(
            MIX_LEGS[3],
            fleet_of(&proto_cnn),
            Box::new(FedMd::new(public.clone())),
        ),
        leg(
            MIX_LEGS[4],
            fleet_of(&proto_cnn),
            Box::new(KtPfl::new(public, MIX_CLIENTS).with_local_epochs(1)),
        ),
    ];
    let mut buffered = fedclassavg_leg(MIX_LEGS[5], main);
    buffered.plan = inp.plan(MIX_LEGS[5]).1;
    legs.push(buffered);
    legs
}

/// Times and size of the checkpoint path inside a `paged_fleet` rep.
#[derive(Clone, Copy, Debug, Default)]
pub struct CheckpointTimes {
    pub capture_s: f64,
    pub encode_s: f64,
    pub decode_s: f64,
    pub restore_s: f64,
    pub bytes: u64,
}

/// What one leg did.
pub struct LegOutcome {
    pub name: &'static str,
    pub secs: f64,
    pub rounds: usize,
    /// (round, sampled client) pairs the leg ran.
    pub client_steps: u64,
    pub result: RunResult,
}

/// What one rep did, beyond how long it took.
pub struct RepOutcome {
    pub legs: Vec<LegOutcome>,
    /// Why client steps or checkpoints count as failed; `failed` is its
    /// length. Injected fates are the workload, not failures: only an
    /// outcome that differs from the fault plan lands here.
    pub failures: Vec<String>,
    pub checkpoint: Option<CheckpointTimes>,
    pub paging: PagingStats,
    pub pool: PoolStats,
    pub workspace: WorkspaceStats,
}

impl RepOutcome {
    pub fn client_steps(&self) -> u64 {
        self.legs.iter().map(|l| l.client_steps).sum()
    }

    pub fn wire_bytes(&self) -> u64 {
        self.legs
            .iter()
            .map(|l| l.result.downlink_bytes + l.result.uplink_bytes)
            .sum()
    }

    /// FNV-1a over every number a leg's learning curve and traffic carry.
    /// The same seed gives the same fingerprint while the arithmetic is
    /// left alone; a change to numerics, sampling or the wire shows here.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        for leg in &self.legs {
            let r = &leg.result;
            for p in &r.curve {
                for v in [
                    p.round as u64,
                    p.epochs as u64,
                    p.dropped,
                    p.corrupt,
                    p.stale,
                    p.expired,
                ] {
                    h.u64(v);
                }
                h.u64(u64::from(p.mean_acc.to_bits()));
                h.u64(u64::from(p.std_acc.to_bits()));
            }
            for acc in &r.per_client_acc {
                h.u64(u64::from(acc.to_bits()));
            }
            for v in [
                r.downlink_bytes,
                r.uplink_bytes,
                r.dropped,
                r.corrupt,
                r.stale,
                r.expired,
            ] {
                h.u64(v);
            }
        }
        h.0
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Run `leg` from `state` to its `cfg.rounds` and hold its outcome against
/// its fault plan.
fn run_leg(leg: &mut Leg, state: RunState, failures: &mut Vec<String>) -> (LegOutcome, RunState) {
    let cfg = &leg.cfg;
    let first_round = state.next_round;
    let started = Instant::now();
    let (result, state) = run_federation_from(&mut leg.fleet, leg.algo.as_mut(), cfg, state);
    let secs = started.elapsed().as_secs_f64();
    let mut expect = |what: &str, got: u64, want: u64| {
        if got != want {
            failures.push(format!("{}: {what}: {got}, the plan says {want}", leg.name));
        }
    };
    expect("uplinks lost", result.dropped, leg.plan.lost());
    expect("uplinks corrupt", result.corrupt, leg.plan.corrupt);
    // Everything that entered the staleness buffer was folded in, expired,
    // or is still in flight when the run ends.
    expect(
        "buffered uplinks folded, expired or in flight",
        result.stale + result.expired + state.buffer.len() as u64,
        leg.plan.buffered(),
    );
    let rounds = cfg.rounds + 1 - first_round;
    let outcome = LegOutcome {
        name: leg.name,
        secs,
        rounds,
        client_steps: (rounds * cfg.clients_per_round()) as u64,
        result,
    };
    (outcome, state)
}

/// One rep: the workload's `run_federation` call(s) on a fresh set-up.
/// `spare` is `paged_fleet`'s second fleet, the one its checkpoint is
/// restored onto.
pub fn run_rep(workload: Workload, mut first: Prepared, mut spare: Option<Prepared>) -> RepOutcome {
    let mut failures = Vec::new();
    let mut legs = Vec::with_capacity(first.legs.len());
    let mut checkpoint = None;
    if workload == Workload::PagedFleet {
        let leg = &mut first.legs[0];
        let target = spare
            .as_mut()
            .and_then(|p| p.legs.first_mut())
            .expect("paged_fleet needs a second set-up to restore onto");
        let (before, state) = run_leg(leg, RunState::fresh(), &mut failures);
        let (times, mut after) = checkpoint_and_resume(leg, state, target, &mut failures);
        // The resumed result carries the whole run's curve and traffic;
        // only the time and the steps of the first segment are added.
        after.secs += before.secs;
        after.rounds += before.rounds;
        after.client_steps += before.client_steps;
        checkpoint = Some(times);
        legs.push(after);
    } else {
        for leg in &mut first.legs {
            legs.push(run_leg(leg, RunState::fresh(), &mut failures).0);
        }
    }
    let mut paging = PagingStats::default();
    let mut pool = PoolStats::default();
    let mut workspace = WorkspaceStats::default();
    let used = first.legs.iter().chain(spare.iter().flat_map(|p| &p.legs));
    for fleet in used.map(|leg| &leg.fleet) {
        let (p, q, w) = (
            fleet.paging_stats(),
            fleet.pool_stats(),
            fleet.live_workspace_point().1,
        );
        paging.page_ins += p.page_ins;
        paging.page_outs += p.page_outs;
        paging.page_bytes += p.page_bytes;
        pool.checkouts += q.checkouts;
        pool.created += q.created;
        pool.high_water = pool.high_water.max(q.high_water);
        workspace.allocations += w.allocations;
        workspace.reuses += w.reuses;
        workspace.peak_bytes = workspace.peak_bytes.max(w.peak_bytes);
    }
    RepOutcome {
        legs,
        failures,
        checkpoint,
        paging,
        pool,
        workspace,
    }
}

/// `Checkpoint::capture → encode → decode → restore` onto `target`, then the
/// remaining round(s) there through `run_federation_from`.
fn checkpoint_and_resume(
    leg: &mut Leg,
    state: RunState,
    target: &mut Leg,
    failures: &mut Vec<String>,
) -> (CheckpointTimes, LegOutcome) {
    target.cfg.rounds = leg.cfg.rounds + PAGED_ROUNDS_AFTER;
    let mut times = CheckpointTimes::default();
    let timed = |slot: &mut f64, started: Instant| *slot = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let captured = Checkpoint::capture(&mut leg.fleet, leg.algo.as_ref(), &leg.cfg, &state)
        .expect("a FedClassAvg checkpoint captures");
    timed(&mut times.capture_s, started);

    let started = Instant::now();
    let bytes = captured.encode().expect("a captured checkpoint encodes");
    timed(&mut times.encode_s, started);
    times.bytes = bytes.len() as u64;

    let started = Instant::now();
    let decoded = Checkpoint::decode(&bytes);
    timed(&mut times.decode_s, started);

    let resumed_from = match decoded {
        Ok(decoded) => {
            if decoded.encode().ok().as_deref() != Some(&bytes[..]) {
                failures.push(
                    "checkpoint: decode(encode(c)) does not re-encode byte-identically".into(),
                );
            }
            let started = Instant::now();
            let restored = decoded.restore(&mut target.fleet, target.algo.as_mut(), &target.cfg);
            timed(&mut times.restore_s, started);
            restored
        }
        Err(e) => Err(e),
    };
    // A checkpoint that does not round-trip is a failure; the rep still
    // finishes its rounds from the in-memory state so its work is the same.
    let state = resumed_from.unwrap_or_else(|e| {
        failures.push(format!("checkpoint: did not round-trip: {e}"));
        state
    });
    let (outcome, _) = run_leg(target, state, failures);
    (times, outcome)
}

/// The untimed learning check of `hetero_train`: the same fleet on more data
/// for more rounds. Returns `(round-0 accuracy, final accuracy)`.
pub fn learning_check(seed: u64) -> (f32, f32) {
    let mut leg = fedclassavg_leg(
        "fedclassavg",
        Shape {
            data: hetero_data(seed, LEARN_TRAIN_PER_CLIENT, LEARN_TEST_PER_CLIENT),
            cfg: hetero_cfg(seed, LEARN_ROUNDS),
            arch_of: ModelArch::heterogeneous_rotation,
            max_resident: None,
        },
    );
    let (outcome, _) = run_leg(&mut leg, RunState::fresh(), &mut Vec::new());
    (outcome.result.curve[0].mean_acc, outcome.result.final_mean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_seed_search_is_deterministic_and_finds_the_wanted_counts() {
        for seed in [1, 2, 77] {
            let wire = Inputs::new(Workload::WireFullModel, seed);
            let (plan, counts) = wire.plan("fedavg");
            assert_eq!(
                (counts.offline, counts.stragglers, counts.corrupt),
                (WIRE_OFFLINE, WIRE_STRAGGLERS, WIRE_CORRUPT)
            );
            assert_eq!((counts.lost(), counts.buffered()), (4, 0));
            // Counted again from the plan alone, and found again from the seed.
            assert_eq!(plan_counts(&wire_cfg(seed), &plan), counts);
            assert_eq!(
                Inputs::new(Workload::WireFullModel, seed).plan("fedavg").0,
                plan
            );

            let mix = Inputs::new(Workload::AlgoMix, seed);
            let (plan, counts) = mix.plan(MIX_LEGS[5]);
            assert_eq!(
                (counts.stragglers, counts.spilled),
                (MIX_STRAGGLERS, MIX_SPILLED)
            );
            assert_eq!((counts.lost(), counts.buffered()), (0, 6));
            assert_eq!(plan_counts(&mix_buffered_cfg(seed), &plan), counts);
            assert_eq!(mix.plan(MIX_LEGS[0]).1, PlanCounts::default());
        }
        let a = Inputs::new(Workload::WireFullModel, 1).plan("fedavg").0;
        let b = Inputs::new(Workload::WireFullModel, 2).plan("fedavg").0;
        assert_ne!(a.seed, b.seed, "the search does not follow --seed");
    }

    #[test]
    fn declared_sizes_add_up() {
        assert_eq!(Workload::HeteroTrain.client_steps_per_rep(), 8);
        assert_eq!(Workload::PagedFleet.client_steps_per_rep(), 32);
        assert_eq!(Workload::WireFullModel.client_steps_per_rep(), 24);
        assert_eq!(Workload::AlgoMix.client_steps_per_rep(), 78);
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.setups_per_rep() <= w.setups_per_sample());
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
