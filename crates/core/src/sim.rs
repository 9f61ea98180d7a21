//! The synchronous-round simulation engine: fleet construction, client
//! sampling, the round loop, and learning-curve collection.

use crate::algo::Algorithm;
use crate::comm::Network;
use crate::config::{FedConfig, TransportKind};
use crate::fleet::Fleet;
use crate::transport::{ChannelTransport, SocketTransport, Transport};
use fca_data::partition::Partitioner;
use fca_data::synth::SynthDataset;
use fca_models::ModelArch;
use fca_tensor::rng::{derived_rng, SnapRng};
use fca_trace::{Event, PhaseId};

/// One evaluation point on the learning curve.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RoundMetrics {
    /// Communication round (1-based, 0 = before training).
    pub round: usize,
    /// Cumulative local epochs — the paper's x-axis (KT-pFL spends 20
    /// epochs per round, the others 1, so rounds are not comparable).
    pub epochs: usize,
    /// Mean client test accuracy.
    pub mean_acc: f32,
    /// Std of client test accuracies.
    pub std_acc: f32,
    /// Uplinks lost to dropout/stragglers since the previous curve point.
    pub dropped: u64,
    /// Uplinks discarded as corrupt since the previous curve point.
    pub corrupt: u64,
    /// Buffered straggler updates folded into aggregates (with
    /// staleness-decayed weight) since the previous curve point. Always 0
    /// under synchronous aggregation.
    pub stale: u64,
    /// Buffered updates discarded for exceeding `max_staleness` since the
    /// previous curve point.
    pub expired: u64,
}

/// Outcome of a full federated run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Algorithm display name.
    pub algo: String,
    /// Learning curve (one point per evaluation).
    pub curve: Vec<RoundMetrics>,
    /// Final per-client accuracies — one entry per evaluated client
    /// (the whole fleet unless `FedConfig::eval_sample` subsamples).
    pub per_client_acc: Vec<f32>,
    /// Final mean accuracy (the paper's table entries).
    pub final_mean: f32,
    /// Final std (the paper's ± columns).
    pub final_std: f32,
    /// Total server→client bytes.
    pub downlink_bytes: u64,
    /// Total client→server bytes.
    pub uplink_bytes: u64,
    /// Rounds executed.
    pub rounds: usize,
    /// Total uplinks lost to dropout/stragglers over the whole run. This
    /// and the three totals below are sums over the curve's points.
    pub dropped: u64,
    /// Total uplinks discarded as corrupt over the whole run.
    pub corrupt: u64,
    /// Total buffered straggler updates folded into later rounds'
    /// aggregates (buffered aggregation only).
    pub stale: u64,
    /// Total buffered updates discarded for exceeding `max_staleness`.
    pub expired: u64,
}

impl RunResult {
    /// Mean per-round per-client traffic in bytes (Table 5's unit),
    /// counting both directions.
    pub fn bytes_per_client_round(&self, clients_per_round: usize) -> f64 {
        if self.rounds == 0 || clients_per_round == 0 {
            return 0.0;
        }
        (self.downlink_bytes + self.uplink_bytes) as f64 / (self.rounds * clients_per_round) as f64
    }
}

/// The engine's resumable position between rounds: everything
/// [`run_federation_from`] needs — beyond the fleet and algorithm state —
/// to continue a run as if it had never stopped. Rides inside
/// [`crate::checkpoint::Checkpoint`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunState {
    /// The next round to execute (1 for a fresh run; `rounds + 1` after a
    /// completed one).
    pub next_round: usize,
    /// Learning-curve points collected so far (round-0 point included).
    /// Every segment ends on a point, so the curve also holds the run's
    /// cumulative epochs (its last point's) and fault totals (its sums).
    pub curve: Vec<RoundMetrics>,
    /// Server→client bytes accumulated by *earlier segments* of the run —
    /// each segment's network counts from zero, so the totals in
    /// [`RunResult`] are `prior + this segment`.
    pub prior_downlink: u64,
    /// Client→server bytes accumulated by earlier segments.
    pub prior_uplink: u64,
    /// The staleness buffer's in-flight entries
    /// (`(ready_round, origin_round, client, payload)`), exported at the
    /// segment boundary so a buffered run resumes bit-identically —
    /// updates admitted before the checkpoint still fold into rounds
    /// after it. Empty under synchronous aggregation.
    pub buffer: Vec<(u64, u64, u64, Vec<u8>)>,
}

impl RunState {
    /// The state a brand-new run starts from.
    pub fn fresh() -> RunState {
        RunState {
            next_round: 1,
            ..RunState::default()
        }
    }
}

/// Build the transport `cfg.transport` names. The socket variants stand up
/// a loopback federation (real OS sockets, frame protocol and all) inside
/// this process — the same code path `examples/socket_federation` splits
/// across processes.
#[expect(
    clippy::panic,
    reason = "environment bootstrap before any round runs; no wire bytes have been read yet and a silent fallback would mask a broken harness"
)]
fn build_transport(kind: TransportKind, num_clients: usize) -> Box<dyn Transport> {
    let built = match kind {
        TransportKind::InProcess => return Box::new(ChannelTransport::new(num_clients)),
        #[cfg(unix)]
        TransportKind::UnixSocket => SocketTransport::unix(num_clients),
        // Unix-domain sockets are unavailable off unix; TCP loopback is
        // the closest faithful substitute.
        #[cfg(not(unix))]
        TransportKind::UnixSocket => SocketTransport::tcp(num_clients),
        TransportKind::Tcp => SocketTransport::tcp(num_clients),
    };
    // Transport construction is environment, not data: failing to bind a
    // loopback socket is unrecoverable for the run and loud is correct.
    Box::new(
        built.unwrap_or_else(|e| panic!("failed to construct {} transport: {e}", kind.as_str())),
    )
}

/// Mean and (population) standard deviation.
pub fn mean_std(xs: &[f32]) -> (f32, f32) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f32>() / xs.len() as f32;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / xs.len() as f32;
    (mean, var.sqrt())
}

/// Build a fully resident fleet over a synthetic dataset — every client
/// materialized up front, the classic cross-silo shape.
///
/// `arch_of(client_id)` selects each client's architecture — pass
/// [`ModelArch::heterogeneous_rotation`] for the paper's four-family
/// rotation or a constant for homogeneous fleets.
pub fn build_fleet(
    data: &SynthDataset,
    partitioner: Partitioner,
    cfg: &FedConfig,
    arch_of: &dyn Fn(usize) -> ModelArch,
) -> Fleet {
    let splits = partitioner.split(&data.train, &data.test, cfg.num_clients, cfg.seed);
    Fleet::from_splits(
        &data.train,
        &data.test,
        &splits,
        cfg.feature_dim,
        cfg.hp,
        cfg.seed,
        None,
        arch_of,
    )
}

/// Build a *paged* fleet: every client starts cold (no model built), and
/// at most `max_resident` clients are materialized at any moment during
/// training. Bit-identical to [`build_fleet`] at the same seed — the
/// residency cap changes memory, never numerics.
pub fn build_fleet_paged(
    data: &SynthDataset,
    partitioner: Partitioner,
    cfg: &FedConfig,
    max_resident: usize,
    arch_of: &dyn Fn(usize) -> ModelArch,
) -> Fleet {
    let splits = partitioner.split(&data.train, &data.test, cfg.num_clients, cfg.seed);
    Fleet::from_splits(
        &data.train,
        &data.test,
        &splits,
        cfg.feature_dim,
        cfg.hp,
        cfg.seed,
        Some(max_resident.max(1)),
        arch_of,
    )
}

/// Sample `m` distinct clients for a round, deterministically per
/// `(seed, round)`. `m` must be positive — a misconfigured sampling rate
/// should fail loudly ([`FedConfig::validate`]), not quietly train one
/// client per round.
pub fn sample_clients(num_clients: usize, m: usize, seed: u64, round: usize) -> Vec<usize> {
    assert!(
        m > 0,
        "cannot sample zero clients per round — check sample_rate"
    );
    let rng = derived_rng(seed, 0x5A3B_0000 + round as u64);
    sorted_sample(num_clients, m, rng)
}

/// `m` distinct ids out of `0..num_clients` (all of them when `m` covers
/// the fleet), ascending: the first `m` of a shuffle, sorted.
fn sorted_sample(num_clients: usize, m: usize, mut rng: SnapRng) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..num_clients).collect();
    rng.shuffle(&mut ids);
    ids.truncate(m);
    ids.sort_unstable();
    ids
}

/// The client ids evaluated at a curve point: the whole fleet when
/// `cfg.eval_sample` is 0 (or covers everyone), otherwise a sorted
/// subsample drawn deterministically per `(seed, round)` — so a paged
/// 100k-client run hydrates a few hundred clients per point, not the
/// fleet.
pub fn eval_ids(cfg: &FedConfig, num_clients: usize, round: usize) -> Vec<usize> {
    if cfg.eval_sample == 0 || cfg.eval_sample >= num_clients {
        return (0..num_clients).collect();
    }
    let rng = derived_rng(cfg.seed, 0xE7A1_0000 + round as u64);
    sorted_sample(num_clients, cfg.eval_sample, rng)
}

/// Emit the fleet's allocator/paging counters as one trace point: a
/// `Workspace` event folding the *materialized* clients' arena counters
/// (O(resident), not O(fleet) — cold clients carry no workspace) and a
/// `Pool` event with the shared pool's occupancy plus the fleet's paging
/// totals.
fn emit_workspace_point(round: u64, fleet: &Fleet) {
    if !fca_trace::is_active() {
        return;
    }
    let (clients, ws) = fleet.live_workspace_point();
    fca_trace::emit(Event::Workspace {
        round,
        clients,
        allocations: ws.allocations,
        reuses: ws.reuses,
        peak_bytes: ws.peak_bytes,
    });
    let pool = fleet.pool_stats();
    let paging = fleet.paging_stats();
    fca_trace::emit(Event::Pool {
        round,
        resident: pool.resident,
        high_water: pool.high_water,
        checkouts: pool.checkouts,
        page_ins: paging.page_ins,
        page_outs: paging.page_outs,
        page_bytes: paging.page_bytes,
    });
}

/// Drive a full federated run: `cfg.rounds` rounds of `algo` over the
/// fleet, evaluating every `cfg.eval_every` rounds.
///
/// Client failure is an outcome, not a crash: `cfg.faults` seeds the
/// network's [`crate::comm::FaultPlan`], each round opens with
/// [`Network::begin_round`] fixing the sampled clients' fates, algorithms
/// aggregate whatever survives, and per-round drop/corruption counts land
/// on the learning curve.
///
/// The fleet may be resident ([`build_fleet`]) or paged
/// ([`build_fleet_paged`]); the run is bit-identical either way at the
/// same seed. The transport backend comes from `cfg.transport` — and the
/// run is bit-identical across backends too, because fault fates are
/// decided above the transport and every source of randomness derives
/// from `(seed, round)`.
pub fn run_federation(fleet: &mut Fleet, algo: &mut dyn Algorithm, cfg: &FedConfig) -> RunResult {
    run_federation_from(fleet, algo, cfg, RunState::fresh()).0
}

/// [`run_federation`], but starting from a saved [`RunState`]: executes
/// rounds `state.next_round..=cfg.rounds` and returns both the (full-run)
/// result and the final state. Together with
/// [`crate::checkpoint::Checkpoint`] this is the resume path — a restored
/// segment continues bit-identically to the uninterrupted run when the
/// checkpoint was taken at an evaluation boundary.
pub fn run_federation_from(
    fleet: &mut Fleet,
    algo: &mut dyn Algorithm,
    cfg: &FedConfig,
    state: RunState,
) -> (RunResult, RunState) {
    cfg.validate();
    assert!(
        !cfg.aggregation.is_buffered() || algo.supports_buffered_aggregation(),
        "{} is a multi-phase protocol and requires Aggregation::Sync",
        algo.name()
    );
    let mut net = Network::over(build_transport(cfg.transport, fleet.len()))
        .with_fault_plan(cfg.faults)
        .with_aggregation(cfg.aggregation, cfg.seed);
    fca_trace::emit(Event::Transport {
        backend: net.backend().into(),
        clients: fleet.len() as u64,
    });
    let RunState {
        next_round,
        mut curve,
        prior_downlink,
        prior_uplink,
        buffer,
    } = state;
    // A resumed buffered segment re-seeds the staleness buffer with the
    // checkpoint's in-flight updates; they fold into upcoming rounds
    // exactly as they would have in the uninterrupted run.
    net.import_buffer(buffer);

    // Round 0 point: untrained average accuracy. A resumed segment
    // already carries it (and everything since) in its curve.
    if curve.is_empty() {
        let span = fca_trace::clock();
        let accs = fleet.evaluate_ids(&eval_ids(cfg, fleet.len(), 0));
        fca_trace::phase(PhaseId::Evaluate, span);
        let (m0, s0) = mean_std(&accs);
        curve.push(RoundMetrics {
            round: 0,
            epochs: 0,
            mean_acc: m0,
            std_acc: s0,
            ..RoundMetrics::default()
        });
        emit_workspace_point(0, fleet);
        fca_trace::flush_ops(0);
    }

    // λ the fleet's shards currently sit at. `None` forces the first
    // active round of a segment to re-apply its drift position — a
    // resumed fleet is rebuilt from the λ = 0 partition, so the segment
    // must move the data back under it before training.
    let mut applied_lambda: Option<u64> = None;
    // What the round-`cfg.rounds` curve point measured, per client.
    let mut last_point: Option<Vec<f32>> = None;
    // Where the last point left the x-axis, and what has gone wrong since.
    let mut epochs = curve.last().map_or(0, |p| p.epochs);
    let mut since_point = RoundMetrics::default();

    for round in next_round..=cfg.rounds {
        if cfg.drift.is_active() {
            let lambda = cfg.drift.lambda_permille(round);
            if lambda > 0 && applied_lambda != Some(lambda) {
                let span = fca_trace::clock();
                fleet.drift_to(cfg.seed, cfg.drift.alpha(), lambda);
                fca_trace::phase(PhaseId::Drift, span);
                fca_trace::emit(Event::Drift {
                    round: round as u64,
                    lambda_permille: lambda,
                    clients: fleet.len() as u64,
                });
                applied_lambda = Some(lambda);
            }
        }

        // Tracing observes the round, never steers it: the timer and byte
        // snapshots feed the journal and touch nothing the algorithms see.
        let round_span = fca_trace::clock();
        let traffic = |net: &Network| {
            let s = net.stats();
            [
                s.downlink_bytes(),
                s.uplink_bytes(),
                s.downlink_physical_bytes(),
                s.uplink_physical_bytes(),
            ]
        };
        let before = traffic(&net);

        let sampled = sample_clients(fleet.len(), cfg.clients_per_round(), cfg.seed, round);
        net.begin_round(round, &sampled);
        algo.round(round, fleet, &sampled, &net, &cfg.hp);
        epochs += algo.epochs_per_round(&cfg.hp);

        let (d, c) = net.take_round_faults();
        let (st, ex) = net.take_round_async();
        let after = traffic(&net);
        let [down, up, down_physical, up_physical] = [0, 1, 2, 3].map(|i| after[i] - before[i]);
        since_point.dropped += d;
        since_point.corrupt += c;
        since_point.stale += st;
        since_point.expired += ex;

        if round % cfg.eval_every.max(1) == 0 || round == cfg.rounds {
            let span = fca_trace::clock();
            let accs = fleet.evaluate_ids(&eval_ids(cfg, fleet.len(), round));
            fca_trace::phase(PhaseId::Evaluate, span);
            let (m, s) = mean_std(&accs);
            curve.push(RoundMetrics {
                round,
                epochs,
                mean_acc: m,
                std_acc: s,
                ..std::mem::take(&mut since_point)
            });
            emit_workspace_point(round as u64, fleet);
            if round == cfg.rounds {
                last_point = Some(accs);
            }
        }

        fca_trace::flush_ops(round as u64);
        if let Some(started) = round_span {
            fca_trace::emit(Event::Round {
                round: round as u64,
                dur_us: started.elapsed().as_micros() as u64,
                downlink_bytes: down,
                uplink_bytes: up,
                downlink_physical_bytes: down_physical,
                uplink_physical_bytes: up_physical,
                dropped: d,
                corrupt: c,
                stale: st,
                expired: ex,
            });
        }
    }

    // Final sweep — the round-`cfg.rounds` eval selection, so subsampled
    // runs report the same clients the last curve point measured. A segment
    // that ran that round has just measured them, and evaluation changes
    // nothing, so the point's accuracies are the sweep's; only a segment
    // that ran no round evaluates here.
    let per_client_acc = last_point.unwrap_or_else(|| {
        let span = fca_trace::clock();
        let accs = fleet.evaluate_ids(&eval_ids(cfg, fleet.len(), cfg.rounds));
        fca_trace::phase(PhaseId::Evaluate, span);
        // The final fleet evaluation lands on the last round's op/phase rows
        // (the report aggregates additively per `(round, name)` key).
        fca_trace::flush_ops(cfg.rounds as u64);
        accs
    });
    let (final_mean, final_std) = mean_std(&per_client_acc);
    // This segment's network counted from zero; earlier segments'
    // traffic rides in on the prior_* fields.
    let downlink_bytes = prior_downlink + net.stats().downlink_bytes();
    let uplink_bytes = prior_uplink + net.stats().uplink_bytes();
    let total = |count: fn(&RoundMetrics) -> u64| curve.iter().map(count).sum();
    let result = RunResult {
        algo: algo.name(),
        curve: curve.clone(),
        per_client_acc,
        final_mean,
        final_std,
        downlink_bytes,
        uplink_bytes,
        rounds: cfg.rounds,
        dropped: total(|p| p.dropped),
        corrupt: total(|p| p.corrupt),
        stale: total(|p| p.stale),
        expired: total(|p| p.expired),
    };
    let state = RunState {
        next_round: cfg.rounds + 1,
        curve,
        prior_downlink: downlink_bytes,
        prior_uplink: uplink_bytes,
        buffer: net.export_buffer(),
    };
    (result, state)
}

/// Fixture builders shared by the algorithm unit tests.
pub mod test_support {
    use super::*;
    use crate::config::HyperParams;
    use fca_data::synth::tiny_dataset;
    use fca_tensor::Tensor;

    /// A tiny heterogeneous fleet (rotating micro-architectures) with a
    /// fresh network, 3 classes on 12×12 grayscale images.
    pub fn tiny_fleet(n: usize, seed: u64) -> (Fleet, Network) {
        tiny_fleet_hp(n, seed, HyperParams::micro_default())
    }

    /// [`tiny_fleet`] with explicit hyperparameters (the optimizer is built
    /// from them at client construction, so lr overrides must go here).
    pub fn tiny_fleet_hp(n: usize, seed: u64, hp: HyperParams) -> (Fleet, Network) {
        let data = tiny_dataset(3, 24 * n.max(2), 12 * n.max(2), seed);
        let mut cfg = FedConfig::paper_20_clients(hp, 1, seed);
        cfg.num_clients = n;
        cfg.feature_dim = 8;
        let fleet = build_fleet(
            &data,
            Partitioner::Dirichlet { alpha: 0.5 },
            &cfg,
            &ModelArch::heterogeneous_rotation,
        );
        (fleet, Network::new(n))
    }

    /// A tiny homogeneous fleet (all `CnnFedAvg`).
    pub fn tiny_fleet_homogeneous(n: usize, seed: u64) -> (Fleet, Network) {
        tiny_fleet_homogeneous_hp(n, seed, HyperParams::micro_default())
    }

    /// [`tiny_fleet_homogeneous`] with explicit hyperparameters.
    pub fn tiny_fleet_homogeneous_hp(n: usize, seed: u64, hp: HyperParams) -> (Fleet, Network) {
        let data = tiny_dataset(3, 24 * n.max(2), 12 * n.max(2), seed);
        let mut cfg = FedConfig::paper_20_clients(hp, 1, seed);
        cfg.num_clients = n;
        cfg.feature_dim = 8;
        let fleet = build_fleet(&data, Partitioner::Dirichlet { alpha: 0.5 }, &cfg, &|_| {
            ModelArch::CnnFedAvg
        });
        (fleet, Network::new(n))
    }

    /// Public data for KT-pFL tests (12×12 grayscale).
    pub fn tiny_public_data(n: usize, seed: u64) -> Tensor {
        let d = tiny_dataset(3, n, 4, seed);
        d.train.images
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{FedClassAvg, LocalOnly};
    use crate::config::HyperParams;
    use fca_data::synth::tiny_dataset;

    fn small_cfg(seed: u64, rounds: usize) -> FedConfig {
        let mut cfg =
            FedConfig::paper_20_clients(HyperParams::micro_default().with_lr(5e-3), rounds, seed);
        cfg.num_clients = 4;
        cfg.feature_dim = 8;
        cfg
    }

    #[test]
    fn sampling_is_deterministic_and_sorted() {
        let a = sample_clients(10, 4, 1, 3);
        let b = sample_clients(10, 4, 1, 3);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        let c = sample_clients(10, 4, 1, 4);
        assert_ne!(a, c, "different rounds should sample differently");
    }

    #[test]
    fn sampling_respects_bounds() {
        assert_eq!(sample_clients(5, 99, 0, 0).len(), 5);
    }

    #[test]
    #[should_panic(expected = "cannot sample zero clients")]
    fn sampling_zero_clients_panics() {
        sample_clients(5, 0, 0, 0);
    }

    #[test]
    fn mean_std_basic() {
        let (m, s) = mean_std(&[1.0, 3.0]);
        assert_eq!(m, 2.0);
        assert_eq!(s, 1.0);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }

    #[test]
    fn eval_ids_full_sweep_by_default() {
        let cfg = small_cfg(800, 1);
        assert_eq!(eval_ids(&cfg, 4, 0), vec![0, 1, 2, 3]);
        // A sample covering the fleet degenerates to the full sweep too.
        let cfg = cfg.with_eval_sample(9);
        assert_eq!(eval_ids(&cfg, 4, 3), vec![0, 1, 2, 3]);
    }

    #[test]
    fn eval_ids_subsample_is_seeded_sorted_and_round_varying() {
        let cfg = small_cfg(806, 1).with_eval_sample(3);
        let a = eval_ids(&cfg, 10, 2);
        let b = eval_ids(&cfg, 10, 2);
        assert_eq!(a, b, "eval subsample must be deterministic");
        assert_eq!(a.len(), 3);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        let rounds: Vec<Vec<usize>> = (0..8).map(|r| eval_ids(&cfg, 10, r)).collect();
        assert!(
            rounds.windows(2).any(|w| w[0] != w[1]),
            "eval subsample never varied across rounds"
        );
    }

    #[test]
    fn run_federation_produces_curve_and_traffic() {
        let cfg = small_cfg(801, 3);
        let data = tiny_dataset(3, 96, 48, cfg.seed);
        let mut fleet = build_fleet(
            &data,
            Partitioner::Dirichlet { alpha: 0.5 },
            &cfg,
            &ModelArch::heterogeneous_rotation,
        );
        let mut algo = FedClassAvg::new(cfg.feature_dim, 3, cfg.seed);
        let result = run_federation(&mut fleet, &mut algo, &cfg);
        assert_eq!(result.curve.len(), 4); // round 0 + 3 evals
        assert_eq!(result.per_client_acc.len(), 4);
        assert!(result.downlink_bytes > 0);
        assert!(result.uplink_bytes > 0);
        assert!(result
            .curve
            .iter()
            .all(|p| (0.0..=1.0).contains(&p.mean_acc)));
        assert!(!result.final_mean.is_nan());
    }

    #[test]
    fn local_only_run_has_zero_traffic() {
        let cfg = small_cfg(802, 2);
        let data = tiny_dataset(3, 96, 48, cfg.seed);
        let mut fleet = build_fleet(
            &data,
            Partitioner::Dirichlet { alpha: 0.5 },
            &cfg,
            &ModelArch::heterogeneous_rotation,
        );
        let mut algo = LocalOnly::new();
        let result = run_federation(&mut fleet, &mut algo, &cfg);
        assert_eq!(result.downlink_bytes + result.uplink_bytes, 0);
    }

    #[test]
    fn runs_are_reproducible() {
        let run = || {
            let cfg = small_cfg(803, 2);
            let data = tiny_dataset(3, 96, 48, cfg.seed);
            let mut fleet = build_fleet(
                &data,
                Partitioner::Dirichlet { alpha: 0.5 },
                &cfg,
                &ModelArch::heterogeneous_rotation,
            );
            let mut algo = FedClassAvg::new(cfg.feature_dim, 3, cfg.seed);
            run_federation(&mut fleet, &mut algo, &cfg)
        };
        let a = run();
        let b = run();
        assert_eq!(a.per_client_acc, b.per_client_acc, "non-deterministic run");
        assert_eq!(a.downlink_bytes, b.downlink_bytes);
    }

    #[test]
    fn paged_run_is_bit_identical_to_resident_run() {
        let run = |max_resident: Option<usize>| {
            let cfg = small_cfg(807, 2);
            let data = tiny_dataset(3, 96, 48, cfg.seed);
            let part = Partitioner::Dirichlet { alpha: 0.5 };
            let mut fleet = match max_resident {
                None => build_fleet(&data, part, &cfg, &ModelArch::heterogeneous_rotation),
                Some(r) => {
                    build_fleet_paged(&data, part, &cfg, r, &ModelArch::heterogeneous_rotation)
                }
            };
            let mut algo = FedClassAvg::new(cfg.feature_dim, 3, cfg.seed);
            run_federation(&mut fleet, &mut algo, &cfg)
        };
        let resident = run(None);
        let paged = run(Some(2));
        assert_eq!(
            resident.per_client_acc, paged.per_client_acc,
            "paging changed the numerics"
        );
        assert_eq!(resident.downlink_bytes, paged.downlink_bytes);
        assert_eq!(resident.uplink_bytes, paged.uplink_bytes);
        for (a, b) in resident.curve.iter().zip(&paged.curve) {
            assert_eq!(a.mean_acc.to_bits(), b.mean_acc.to_bits());
            assert_eq!(a.std_acc.to_bits(), b.std_acc.to_bits());
        }
    }

    #[test]
    fn socket_backends_replay_the_channel_run_bit_identically() {
        let run = |kind: TransportKind| {
            let mut cfg = small_cfg(809, 2);
            cfg.transport = kind;
            let data = tiny_dataset(3, 96, 48, cfg.seed);
            let mut fleet = build_fleet(
                &data,
                Partitioner::Dirichlet { alpha: 0.5 },
                &cfg,
                &ModelArch::heterogeneous_rotation,
            );
            let mut algo = FedClassAvg::new(cfg.feature_dim, 3, cfg.seed);
            run_federation(&mut fleet, &mut algo, &cfg)
        };
        let channel = run(TransportKind::InProcess);
        let tcp = run(TransportKind::Tcp);
        let unix = run(TransportKind::UnixSocket);
        for (name, other) in [("tcp", &tcp), ("unix", &unix)] {
            assert_eq!(
                channel.per_client_acc, other.per_client_acc,
                "{name} backend diverged from in-process numerics"
            );
            assert_eq!(channel.downlink_bytes, other.downlink_bytes, "{name}");
            assert_eq!(channel.uplink_bytes, other.uplink_bytes, "{name}");
            for (a, b) in channel.curve.iter().zip(&other.curve) {
                assert_eq!(a.mean_acc.to_bits(), b.mean_acc.to_bits(), "{name}");
            }
        }
    }

    #[test]
    fn segmented_run_matches_uninterrupted_run() {
        let build = || {
            let cfg = small_cfg(810, 4);
            let data = tiny_dataset(3, 96, 48, cfg.seed);
            let fleet = build_fleet(
                &data,
                Partitioner::Dirichlet { alpha: 0.5 },
                &cfg,
                &ModelArch::heterogeneous_rotation,
            );
            let algo = FedClassAvg::new(cfg.feature_dim, 3, cfg.seed);
            (cfg, fleet, algo)
        };
        // Uninterrupted 4 rounds.
        let (cfg, mut fleet, mut algo) = build();
        let full = run_federation(&mut fleet, &mut algo, &cfg);
        // Same run split 2 + 2 on the SAME fleet/algo (state handoff only
        // through RunState — the checkpoint tests cover serialization).
        let (mut cfg2, mut fleet2, mut algo2) = build();
        cfg2.rounds = 2;
        let (_, mid) = run_federation_from(&mut fleet2, &mut algo2, &cfg2, RunState::fresh());
        assert_eq!(mid.next_round, 3);
        cfg2.rounds = 4;
        let (resumed, _) = run_federation_from(&mut fleet2, &mut algo2, &cfg2, mid);
        assert_eq!(full.per_client_acc, resumed.per_client_acc);
        assert_eq!(full.downlink_bytes, resumed.downlink_bytes);
        assert_eq!(full.uplink_bytes, resumed.uplink_bytes);
        assert_eq!(full.dropped, resumed.dropped);
        assert_eq!(full.curve.len(), resumed.curve.len());
        for (a, b) in full.curve.iter().zip(&resumed.curve) {
            assert_eq!(a.mean_acc.to_bits(), b.mean_acc.to_bits());
            assert_eq!(a.std_acc.to_bits(), b.std_acc.to_bits());
        }
    }

    #[test]
    fn eval_subsample_shrinks_the_final_sweep() {
        let cfg = small_cfg(808, 2).with_eval_sample(2);
        let data = tiny_dataset(3, 96, 48, cfg.seed);
        let mut fleet = build_fleet(
            &data,
            Partitioner::Dirichlet { alpha: 0.5 },
            &cfg,
            &ModelArch::heterogeneous_rotation,
        );
        let mut algo = LocalOnly::new();
        let result = run_federation(&mut fleet, &mut algo, &cfg);
        assert_eq!(result.per_client_acc.len(), 2);
        assert!(result.curve.iter().all(|p| !p.mean_acc.is_nan()));
    }

    #[test]
    fn the_final_sweep_is_the_last_curve_point() {
        let cfg = small_cfg(811, 2).with_eval_sample(2);
        let data = tiny_dataset(3, 96, 48, cfg.seed);
        let part = Partitioner::Dirichlet { alpha: 0.5 };
        let mut fleet = build_fleet_paged(&data, part, &cfg, 1, &ModelArch::heterogeneous_rotation);
        let mut algo = FedClassAvg::new(cfg.feature_dim, 3, cfg.seed);
        let (result, done) = run_federation_from(&mut fleet, &mut algo, &cfg, RunState::fresh());
        let page_ins = |fleet: &Fleet| fleet.paging_stats().page_ins;
        let bits = |v: &[f32]| v.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
        // One page-in per sampled client per round, `eval_sample` per curve
        // point, and none for the final sweep.
        let trained = (cfg.rounds * cfg.clients_per_round()) as u64;
        assert_eq!(page_ins(&fleet), trained + 2 * result.curve.len() as u64);

        // Measured again, the sweep's clients read what the run reported,
        // and the last point is their mean: a sweep pages in each of them.
        let before = page_ins(&fleet);
        let again = fleet.evaluate_ids(&eval_ids(&cfg, fleet.len(), cfg.rounds));
        let sweep_page_ins = page_ins(&fleet) - before;
        assert_eq!(sweep_page_ins, 2);
        assert_eq!(bits(&result.per_client_acc), bits(&again));
        let last = result.curve.last().expect("a curve");
        let (mean, std) = mean_std(&again);
        assert_eq!(
            (last.mean_acc.to_bits(), last.std_acc.to_bits()),
            (mean.to_bits(), std.to_bits())
        );

        // A segment that runs no round still sweeps: that costs it exactly
        // the page-ins a sweep costs, which a segment that ran the last
        // round no longer pays.
        let before = page_ins(&fleet);
        let (tail, _) = run_federation_from(&mut fleet, &mut algo, &cfg, done);
        assert_eq!(page_ins(&fleet) - before, sweep_page_ins);
        assert_eq!(bits(&tail.per_client_acc), bits(&result.per_client_acc));
    }

    #[test]
    fn faulty_run_completes_and_reports_losses() {
        use crate::comm::FaultPlan;
        let run = || {
            let mut cfg = small_cfg(805, 4);
            cfg.faults = FaultPlan::new(55, 0.3, 0.1, 0.1);
            let data = tiny_dataset(3, 96, 48, cfg.seed);
            let mut fleet = build_fleet(
                &data,
                Partitioner::Dirichlet { alpha: 0.5 },
                &cfg,
                &ModelArch::heterogeneous_rotation,
            );
            let mut algo = FedClassAvg::new(cfg.feature_dim, 3, cfg.seed);
            run_federation(&mut fleet, &mut algo, &cfg)
        };
        let a = run();
        assert_eq!(a.curve.len(), 5, "faults must not shorten the run");
        assert!(
            a.dropped + a.corrupt > 0,
            "a 50% joint fault rate over 16 client-rounds fired nothing"
        );
        let curve_losses: u64 = a.curve.iter().map(|p| p.dropped + p.corrupt).sum();
        assert_eq!(
            curve_losses,
            a.dropped + a.corrupt,
            "curve and totals disagree"
        );
        // Bit-identical replay under the same seeds.
        let b = run();
        assert_eq!(
            a.per_client_acc, b.per_client_acc,
            "faulty run not reproducible"
        );
        assert_eq!(a.dropped, b.dropped);
        assert_eq!(a.corrupt, b.corrupt);
    }

    #[test]
    fn fleet_weights_sum_to_one() {
        let cfg = small_cfg(804, 1);
        let data = tiny_dataset(3, 96, 48, cfg.seed);
        let fleet = build_fleet(
            &data,
            Partitioner::Dirichlet { alpha: 0.5 },
            &cfg,
            &ModelArch::heterogeneous_rotation,
        );
        let total: f32 = fleet.metas().iter().map(|m| m.weight).sum();
        assert!((total - 1.0).abs() < 1e-5);
    }

    const SHARDED_CLIENTS: usize = 4;
    const SHARDED_ROUNDS: usize = 2;
    /// Which clients each of the two shards hosts.
    const SHARDS: [[usize; 2]; 2] = [[0, 1], [2, 3]];

    /// What a run leaves behind that every backend must agree on, bit for
    /// bit: the server's global tensors, each round's `(dropped, corrupt)`,
    /// and the logical tallies `(downlink, uplink, messages)`.
    #[derive(Debug, PartialEq)]
    struct Agreed {
        global_bits: Vec<Vec<u32>>,
        faults: Vec<(u64, u64)>,
        tallies: (u64, u64, u64),
    }

    /// Run `SHARDED_ROUNDS` rounds of an algorithm over the channel backend
    /// and again as one server and two shards — three threads, each with a
    /// fleet of its own built from the same seed, talking through real
    /// sockets — under a plan that takes one client offline and corrupts
    /// another's uplink, and hold the two to the same [`Agreed`]; then
    /// check the server wrote one frame per shard per broadcast.
    ///
    /// `turn` is the algorithm's client region for one client. The shards
    /// take their clients' turns one after another, not through rayon:
    /// a turn blocks until the server's broadcast arrives, and blocked
    /// pool workers would starve the other shard's training.
    fn sharded_run_agrees_with_the_channel_backend<A: Algorithm>(
        fleet: impl Fn() -> Fleet + Sync,
        algo: impl Fn(&mut Fleet) -> A + Sync,
        turn: impl Fn(&A, &mut crate::client::Client, &Network) + Sync,
        global: impl Fn(&A) -> Vec<fca_tensor::Tensor>,
    ) {
        use crate::comm::{Fate, FaultPlan};
        use crate::transport::{SocketListener, SocketTransport};
        use std::time::Duration;

        let hp = HyperParams::micro_default();
        let all: Vec<usize> = (0..SHARDED_CLIENTS).collect();
        let budget = Duration::from_secs(60);
        let plan = (0..)
            .map(|seed| FaultPlan::new(seed, 0.25, 0.0, 0.25))
            .find(|plan| {
                let count = |fate| all.iter().filter(|&&k| plan.fate(1, k) == fate).count();
                count(Fate::Dropped) == 1 && count(Fate::Corrupt) == 1
            })
            .expect("some seed gives round 1 one offline and one corrupt client");
        let drive = |a: &mut A, fleet: &mut Fleet, net: &mut Network| -> Vec<(u64, u64)> {
            (1..=SHARDED_ROUNDS)
                .map(|round| {
                    net.begin_round(round, &all);
                    a.round(round, fleet, &all, net, &hp);
                    net.take_round_faults()
                })
                .collect()
        };
        let bits = |a: &A| -> Vec<Vec<u32>> {
            global(a)
                .iter()
                .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
                .collect()
        };

        let reference = {
            let mut f = fleet();
            let mut a = algo(&mut f);
            let mut net = Network::new(SHARDED_CLIENTS).with_fault_plan(plan);
            let faults = drive(&mut a, &mut f, &mut net);
            let s = net.stats();
            Agreed {
                global_bits: bits(&a),
                faults,
                tallies: (s.downlink_bytes(), s.uplink_bytes(), s.messages()),
            }
        };
        assert!(
            reference.faults[0] == (1, 1),
            "round 1 lost {:?}",
            reference.faults[0]
        );
        // Every round broadcasts one message to every client.
        let message_len = reference.tallies.0 / (SHARDED_CLIENTS * SHARDED_ROUNDS) as u64;

        let kinds: &[&str] = if cfg!(unix) {
            &["tcp", "unix"]
        } else {
            &["tcp"]
        };
        for &kind in kinds {
            let listener = match kind {
                "tcp" => SocketListener::tcp("127.0.0.1:0"),
                #[cfg(unix)]
                _ => SocketListener::unix_auto(),
                #[cfg(not(unix))]
                _ => unreachable!(),
            }
            .expect("bind");
            let addr = listener.local_addr().expect("addr");
            let (sharded, downlink_physical) = std::thread::scope(|s| {
                let shards: Vec<_> = SHARDS
                    .iter()
                    .map(|owned| {
                        let (addr, all, fleet, algo, turn) = (&addr, &all, &fleet, &algo, &turn);
                        s.spawn(move || {
                            let transport = match kind {
                                "tcp" => SocketTransport::connect_tcp(addr, SHARDED_CLIENTS, owned),
                                #[cfg(unix)]
                                _ => SocketTransport::connect_unix(addr, SHARDED_CLIENTS, owned),
                                #[cfg(not(unix))]
                                _ => unreachable!(),
                            }
                            .expect("connect");
                            let mut net = Network::over(Box::new(transport))
                                .with_fault_plan(plan)
                                .with_collect_budget(budget);
                            let mut f = fleet();
                            let a = algo(&mut f);
                            for round in 1..=SHARDED_ROUNDS {
                                net.begin_round(round, all);
                                for &k in owned {
                                    turn(&a, f.client_mut(k), &net);
                                }
                            }
                            (net.stats().uplink_bytes(), net.stats().messages())
                        })
                    })
                    .collect();
                // The server: its own clients all look offline to it (a
                // server process hosts none), the uplinks come off the wire.
                let transport = listener
                    .accept_federation(SHARDED_CLIENTS, SHARDS.len())
                    .expect("rendezvous");
                let mut net = Network::over(Box::new(transport))
                    .with_fault_plan(plan)
                    .with_collect_budget(budget);
                let mut f = fleet();
                let mut a = algo(&mut f);
                let faults = drive(&mut a, &mut f, &mut net);
                let (mut uplink, mut messages) = (0, net.stats().messages());
                for shard in shards {
                    let (bytes, sent) = shard.join().expect("shard thread");
                    uplink += bytes;
                    messages += sent;
                }
                assert_eq!(
                    net.stats().uplink_bytes(),
                    0,
                    "{kind}: the server sent an uplink"
                );
                let agreed = Agreed {
                    global_bits: bits(&a),
                    faults,
                    tallies: (net.stats().downlink_bytes(), uplink, messages),
                };
                (agreed, net.stats().downlink_physical_bytes())
            });
            assert_eq!(
                sharded, reference,
                "{kind}: diverged from the channel backend"
            );
            // One multicast frame per shard with someone online, per round:
            // header, count, the online ids, one copy of the message.
            let frames: u64 = (1..=SHARDED_ROUNDS)
                .flat_map(|round| SHARDS.iter().map(move |owned| (round, owned)))
                .map(|(round, owned)| {
                    let online = owned
                        .iter()
                        .filter(|&&k| plan.fate(round, k) != Fate::Dropped)
                        .count() as u64;
                    if online == 0 {
                        0
                    } else {
                        8 + 4 + 4 * online + message_len
                    }
                })
                .sum();
            assert_eq!(downlink_physical, frames, "{kind}: frames on the downlink");
        }
    }

    #[test]
    fn two_shard_fedavg_matches_the_channel_backend() {
        use crate::algo::FedAvg;
        let hp = HyperParams::micro_default();
        sharded_run_agrees_with_the_channel_backend(
            || test_support::tiny_fleet_homogeneous(SHARDED_CLIENTS, 811).0,
            |fleet| FedAvg::new(fleet.client_mut(0).model.full_state()),
            |_, c, net| {
                FedAvg::client_turn(c, net, |c| c.local_update_supervised(hp.local_epochs, &hp))
            },
            |a| a.global_state().to_vec(),
        );
    }

    #[test]
    fn two_shard_fedclassavg_matches_the_channel_backend() {
        let hp = HyperParams::micro_default();
        sharded_run_agrees_with_the_channel_backend(
            || test_support::tiny_fleet(SHARDED_CLIENTS, 812).0,
            |_| FedClassAvg::new(8, 3, 812),
            |a, c, net| FedClassAvg::client_turn(c, net, &hp, a.objective_for(&hp)),
            |a| {
                let global = a.global_classifier();
                vec![global.weight.clone(), global.bias.clone()]
            },
        );
    }
}
