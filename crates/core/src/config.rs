//! Experiment configuration, including the paper's Table 1 hyperparameters.

use crate::comm::FaultPlan;
use fca_tensor::quant::Precision;

/// Local-update hyperparameters (paper Table 1).
#[derive(Clone, Copy, Debug)]
pub struct HyperParams {
    /// Learning rate.
    pub lr: f32,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Proximal regularization weight ρ.
    pub rho: f32,
    /// Local epochs per communication round.
    pub local_epochs: usize,
    /// Supervised-contrastive temperature τ.
    pub temperature: f32,
}

impl HyperParams {
    /// Paper Table 1, CIFAR-10 row: lr 1e-4, batch 64, ρ 0.1, 1 epoch.
    pub fn paper_cifar10() -> Self {
        HyperParams {
            lr: 1e-4,
            batch_size: 64,
            rho: 0.1,
            local_epochs: 1,
            temperature: 0.5,
        }
    }

    /// Paper Table 1, Fashion-MNIST row: lr 6e-4, batch 64, ρ 0.4662.
    pub fn paper_fashion_mnist() -> Self {
        HyperParams {
            lr: 6e-4,
            batch_size: 64,
            rho: 0.4662,
            local_epochs: 1,
            temperature: 0.5,
        }
    }

    /// Paper Table 1, EMNIST row: lr 5e-4, batch 64, ρ 0.1.
    pub fn paper_emnist() -> Self {
        HyperParams {
            lr: 5e-4,
            batch_size: 64,
            rho: 0.1,
            local_epochs: 1,
            temperature: 0.5,
        }
    }

    /// Micro-scale defaults: the paper's rates are tuned for full-size
    /// models on real data; the micro models train well with a moderately
    /// larger Adam step and smaller batches (documented in EXPERIMENTS.md).
    pub fn micro_default() -> Self {
        HyperParams {
            lr: 2e-3,
            batch_size: 32,
            rho: 0.1,
            local_epochs: 1,
            temperature: 0.5,
        }
    }

    /// Builder-style learning-rate override.
    pub fn with_lr(mut self, lr: f32) -> Self {
        self.lr = lr;
        self
    }

    /// Builder-style ρ override.
    pub fn with_rho(mut self, rho: f32) -> Self {
        self.rho = rho;
        self
    }

    /// Builder-style local-epoch override.
    pub fn with_epochs(mut self, e: usize) -> Self {
        self.local_epochs = e;
        self
    }
}

/// Which transport backend moves wire frames between server and clients.
///
/// Every backend replays a seed bit-identically (faults are injected above
/// the transport); the socket kinds exist to run the real frame protocol —
/// in one process for the byte-identity check, or across processes via
/// `examples/socket_federation`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransportKind {
    /// Queues and one `std::sync::mpsc` uplink in one process — the fast
    /// default.
    #[default]
    InProcess,
    /// A Unix-domain socket pair in one process; every frame crosses the
    /// kernel through the length-prefixed protocol.
    UnixSocket,
    /// A TCP loopback connection in one process.
    Tcp,
}

impl TransportKind {
    /// Backend name as stamped into traces (matches
    /// `Transport::backend()`).
    pub fn as_str(&self) -> &'static str {
        match self {
            TransportKind::InProcess => "channel",
            TransportKind::UnixSocket => "unix",
            TransportKind::Tcp => "tcp",
        }
    }
}

/// How the server closes a communication round over client uplinks.
///
/// `Sync` is the classic FedAvg-style barrier: the round waits for every
/// deliverable uplink. `Buffered` is a FedBuff-style asynchronous mode:
/// the round closes after the first `goal_k` deliverable uplinks, and
/// late updates (capacity overflow or `Fate::Straggler` delays) are held
/// in a seeded staleness buffer and folded into a later round's aggregate
/// with polynomially decayed weights. See DESIGN.md §7.8 for the state
/// machine and the determinism contract.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Aggregation {
    /// Wait for every deliverable uplink before aggregating (the default).
    #[default]
    Sync,
    /// Close the round after the first `goal_k` deliverable uplinks;
    /// buffer the rest and fold them in later with staleness decay.
    Buffered {
        /// Uplinks that close the round; overflow beyond this spills into
        /// the staleness buffer for a later round.
        goal_k: usize,
        /// Maximum rounds an update may age in the buffer before it is
        /// discarded as expired instead of folded in.
        max_staleness: usize,
    },
}

impl Aggregation {
    /// True for the buffered asynchronous mode.
    pub fn is_buffered(&self) -> bool {
        matches!(self, Aggregation::Buffered { .. })
    }
}

/// A time-indexed label-distribution drift schedule for streaming
/// non-stationarity (ROADMAP item 5).
///
/// Each client's class mix interpolates linearly between two independent
/// Dirichlet draws as rounds progress: before `start_round` the client
/// sees its initial distribution, after `end_round` the drifted one, and
/// in between the mix moves by `λ(t) = (t − start) / (end − start)`.
/// The schedule is off (λ ≡ 0 forever) when `end_round == 0` — the
/// default.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DriftSchedule {
    /// First round of the interpolation window (λ = 0 at and before it).
    pub start_round: usize,
    /// Last round of the interpolation window (λ = 1 at and after it).
    /// `0` disables the schedule entirely.
    pub end_round: usize,
}

/// Dirichlet concentration of every drift *target* mix: the paper's α = 0.5.
const DRIFT_ALPHA: f64 = 0.5;

impl DriftSchedule {
    /// The disabled schedule (the `Default`).
    pub fn off() -> Self {
        DriftSchedule::default()
    }

    /// A schedule interpolating over `[start_round, end_round]` toward a
    /// `Dir(0.5)` target mix.
    pub fn over(start_round: usize, end_round: usize) -> Self {
        let s = DriftSchedule {
            start_round,
            end_round,
        };
        s.validate();
        s
    }

    /// The target-mix Dirichlet concentration.
    pub fn alpha(&self) -> f64 {
        DRIFT_ALPHA
    }

    /// Whether any round ever sees a non-initial distribution.
    pub fn is_active(&self) -> bool {
        self.end_round > 0
    }

    /// Interpolation coefficient for `round` in integer permille
    /// (0 ..= 1000), clamped at the window edges. Integer so the value can
    /// cross the trace journal's integer-only schema exactly.
    pub fn lambda_permille(&self, round: usize) -> u64 {
        if !self.is_active() || round <= self.start_round {
            return 0;
        }
        if round >= self.end_round {
            return 1000;
        }
        let span = (self.end_round - self.start_round) as u64;
        ((round - self.start_round) as u64 * 1000) / span
    }

    /// Panic on windows that cannot be interpolated.
    pub fn validate(&self) {
        if self.is_active() {
            assert!(
                self.end_round > self.start_round,
                "drift end_round ({}) must exceed start_round ({})",
                self.end_round,
                self.start_round
            );
        }
    }
}

/// Federation-level configuration.
#[derive(Clone, Debug)]
pub struct FedConfig {
    /// Number of clients `K`.
    pub num_clients: usize,
    /// Client sampling rate per round (1.0 = all clients).
    pub sample_rate: f32,
    /// Communication rounds `T`.
    pub rounds: usize,
    /// Shared feature dimension (paper: 512; micro default: 64).
    pub feature_dim: usize,
    /// Evaluate average client accuracy every this many rounds.
    pub eval_every: usize,
    /// Master seed.
    pub seed: u64,
    /// Local-update hyperparameters.
    pub hp: HyperParams,
    /// Fault-injection schedule for the simulated network (no faults by
    /// default).
    pub faults: FaultPlan,
    /// Number of clients evaluated per accuracy point, drawn as a seeded
    /// deterministic subsample of the fleet; `0` (the default) evaluates
    /// every client. At cross-device scale a full sweep would hydrate the
    /// whole fleet, so scale runs set this to a few hundred.
    pub eval_sample: usize,
    /// Compute precision of every forward: f32, the one value there is.
    /// Nothing reads it; the field stays because `benchmark/` writes it in a
    /// config literal, and leaves with that literal (ROADMAP item 4).
    pub eval_precision: Precision,
    /// Transport backend for the run (`InProcess`, the default, keeps
    /// frames in in-process queues; the socket kinds route every frame
    /// through a real kernel socket). Results are bit-identical across
    /// backends at the same seed.
    pub transport: TransportKind,
    /// Round-closure policy (`Sync`, the default, waits for every
    /// deliverable uplink; `Buffered` closes after `goal_k` uplinks and
    /// folds stragglers in later with staleness-decayed weights).
    pub aggregation: Aggregation,
    /// Label-distribution drift schedule (off by default: data is
    /// stationary).
    pub drift: DriftSchedule,
}

impl FedConfig {
    /// The run configuration every caller starts from: `num_clients`
    /// clients at full participation, feature dimension 64, an accuracy
    /// point every round, and the optional fields at their defaults (no
    /// faults, full evaluation, f32, in-process transport, synchronous
    /// aggregation, no drift). With 20 clients this is the paper's
    /// full-participation setting; its 100-client setting sets
    /// `sample_rate: 0.1` on top. Override other fields with struct-update
    /// syntax or the `with_*` builders.
    pub fn new(num_clients: usize, hp: HyperParams, rounds: usize, seed: u64) -> Self {
        let cfg = FedConfig {
            num_clients,
            sample_rate: 1.0,
            rounds,
            feature_dim: 64,
            eval_every: 1,
            seed,
            hp,
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

    /// Builder-style eval-subsample override (`0` = evaluate every client).
    pub fn with_eval_sample(mut self, eval_sample: usize) -> Self {
        self.eval_sample = eval_sample;
        self
    }

    /// Builder-style transport-backend override.
    pub fn with_transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// Builder-style fault-plan override.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        faults.validate();
        self.faults = faults;
        self
    }

    /// Builder-style round-closure override.
    pub fn with_aggregation(mut self, aggregation: Aggregation) -> Self {
        self.aggregation = aggregation;
        self.validate();
        self
    }

    /// Builder-style drift-schedule override.
    pub fn with_drift(mut self, drift: DriftSchedule) -> Self {
        drift.validate();
        self.drift = drift;
        self
    }

    /// Panic on configurations that would silently misbehave downstream —
    /// in particular a zero sampling rate, which used to be quietly
    /// clamped to one client per round instead of failing here.
    pub fn validate(&self) {
        assert!(self.num_clients > 0, "num_clients must be positive");
        assert!(
            self.sample_rate > 0.0 && self.sample_rate <= 1.0,
            "sample_rate must be in (0, 1]; got {} — a rate of 0 samples no clients",
            self.sample_rate
        );
        assert!(self.feature_dim > 0, "feature_dim must be positive");
        self.faults.validate();
        if let Aggregation::Buffered {
            goal_k,
            max_staleness,
        } = self.aggregation
        {
            assert!(goal_k >= 1, "buffered aggregation needs goal_k >= 1");
            assert!(
                max_staleness >= 1,
                "buffered aggregation needs max_staleness >= 1"
            );
        }
        self.drift.validate();
    }

    /// Number of clients sampled per round (at least one).
    pub fn clients_per_round(&self) -> usize {
        ((self.num_clients as f32 * self.sample_rate).round() as usize).clamp(1, self.num_clients)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table1_values() {
        let c = HyperParams::paper_cifar10();
        assert_eq!(c.lr, 1e-4);
        assert_eq!(c.batch_size, 64);
        assert_eq!(c.rho, 0.1);
        assert_eq!(c.local_epochs, 1);
        let f = HyperParams::paper_fashion_mnist();
        assert_eq!(f.lr, 6e-4);
        assert!((f.rho - 0.4662).abs() < 1e-6);
        let e = HyperParams::paper_emnist();
        assert_eq!(e.lr, 5e-4);
        assert_eq!(e.rho, 0.1);
    }

    #[test]
    fn clients_per_round_rounding() {
        let cfg = FedConfig {
            sample_rate: 0.1,
            ..FedConfig::new(100, HyperParams::micro_default(), 10, 0)
        };
        assert_eq!(cfg.clients_per_round(), 10);
        let all = FedConfig::new(20, HyperParams::micro_default(), 10, 0);
        assert_eq!(all.clients_per_round(), 20);
    }

    #[test]
    fn clients_per_round_never_zero() {
        let mut cfg = FedConfig::new(20, HyperParams::micro_default(), 1, 0);
        cfg.num_clients = 3;
        cfg.sample_rate = 0.01;
        assert_eq!(cfg.clients_per_round(), 1);
    }

    #[test]
    fn builders_override() {
        let hp = HyperParams::micro_default()
            .with_lr(0.5)
            .with_rho(0.2)
            .with_epochs(3);
        assert_eq!(hp.lr, 0.5);
        assert_eq!(hp.rho, 0.2);
        assert_eq!(hp.local_epochs, 3);
    }

    #[test]
    fn drift_lambda_clamps_and_interpolates() {
        let d = DriftSchedule::over(4, 8);
        assert_eq!(d.lambda_permille(0), 0);
        assert_eq!(d.lambda_permille(4), 0);
        assert_eq!(d.lambda_permille(5), 250);
        assert_eq!(d.lambda_permille(6), 500);
        assert_eq!(d.lambda_permille(8), 1000);
        assert_eq!(d.lambda_permille(999), 1000);
        assert_eq!(DriftSchedule::off().lambda_permille(7), 0);
    }

    #[test]
    #[should_panic(expected = "goal_k >= 1")]
    fn zero_goal_k_fails_loudly() {
        let mut cfg = FedConfig::new(20, HyperParams::micro_default(), 1, 0);
        cfg.aggregation = Aggregation::Buffered {
            goal_k: 0,
            max_staleness: 2,
        };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "sample_rate must be in (0, 1]")]
    fn zero_sample_rate_fails_loudly() {
        let mut cfg = FedConfig::new(20, HyperParams::micro_default(), 1, 0);
        cfg.sample_rate = 0.0;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn invalid_fault_rate_fails_loudly() {
        let mut cfg = FedConfig::new(20, HyperParams::micro_default(), 1, 0);
        cfg.faults = FaultPlan {
            seed: 1,
            dropout: -0.5,
            straggler: 0.0,
            corruption: 0.0,
        };
        cfg.validate();
    }

    #[test]
    fn with_faults_builder_attaches_plan() {
        let cfg = FedConfig::new(20, HyperParams::micro_default(), 1, 0)
            .with_faults(FaultPlan::with_dropout(9, 0.3));
        assert_eq!(cfg.faults.dropout, 0.3);
        assert_eq!(cfg.faults.seed, 9);
    }
}
