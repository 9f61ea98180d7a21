//! **FedClassAvg** (the paper's contribution, Algorithm 1).
//!
//! Per round: the server broadcasts the global classifier `C`; sampled
//! clients overwrite their local classifier, train the composite objective
//! `L^CL + L^CE + ρ·L^R` (Eq. 4), and upload their classifiers; the server
//! forms the new global classifier as the data-weighted average (Eq. 3).
//!
//! Two knobs extend the base algorithm to the paper's other experiments:
//!
//! * the [`LocalObjective`] flags reproduce the Table 4 ablation
//!   (CA alone, +PR, +CL, +PR,CL);
//! * the `+weight` constructor reproduces the homogeneous rows of Table 3
//!   (all weights averaged, proximal still classifier-only).

use super::{
    classifier_fits, exactly, exchange, Algorithm, Downlink, FedAvg, Leg, Reply, OTHER_STATE,
};
use crate::client::{Client, LocalObjective, LocalStats};
use crate::comm::{Network, WireMessage};
use crate::config::HyperParams;
use crate::fleet::Fleet;
use crate::frame::Frame;
use fca_models::classifier::ClassifierWeights;
use fca_tensor::rng::derived_rng;
use fca_tensor::serialize::WireError;
use fca_tensor::Tensor;

/// FedClassAvg server.
pub struct FedClassAvg {
    global: ClassifierWeights,
    payload: Payload,
    objective: LocalObjective,
}

/// What crosses the wire each round.
enum Payload {
    /// The classifier, in f32.
    Classifier,
    /// The classifier, in IEEE binary16.
    ClassifierF16,
    /// The whole model (`+weight`): a FedAvg exchange, whose global
    /// state's last two tensors are the classifier.
    FullModel(FedAvg),
}

impl FedClassAvg {
    /// Standard FedClassAvg: classifier exchange, contrastive + proximal
    /// local objective with weight ρ taken from the hyperparameters at
    /// round time.
    pub fn new(feature_dim: usize, num_classes: usize, seed: u64) -> Self {
        // The classifier shape is public, so the server can initialize the
        // round-0 global classifier itself.
        let mut rng = derived_rng(seed, 0x5E4E4);
        let init = fca_models::classifier::Classifier::new(feature_dim, num_classes, &mut rng);
        FedClassAvg {
            global: init.weights(),
            payload: Payload::Classifier,
            objective: LocalObjective {
                contrastive: true,
                rho: f32::NAN,
            },
        }
    }

    /// Exchange classifiers in IEEE binary16, halving the (already tiny)
    /// per-round payload. Relative quantization error is ≤ 2⁻¹¹ per
    /// weight; `ext_quantized_comm` measures the accuracy impact.
    pub fn with_half_precision(mut self) -> Self {
        assert!(
            !matches!(self.payload, Payload::FullModel(_)),
            "half precision applies to classifier exchange"
        );
        self.payload = Payload::ClassifierF16;
        self
    }

    /// Ablation constructor (Table 4): select which loss terms are active.
    /// `rho = 0` disables proximal regularization; `contrastive = false`
    /// disables the supervised contrastive term.
    pub fn ablation(
        feature_dim: usize,
        num_classes: usize,
        seed: u64,
        contrastive: bool,
        rho: f32,
    ) -> Self {
        let mut a = Self::new(feature_dim, num_classes, seed);
        a.objective = LocalObjective { contrastive, rho };
        a
    }

    /// Homogeneous "+weight" variant (Table 3): clients share the entire
    /// model state; only the classifier is proximally regularized.
    /// `initial_state` seeds the global model (all clients must share the
    /// architecture).
    pub fn with_full_weight_sharing(
        feature_dim: usize,
        num_classes: usize,
        seed: u64,
        initial_state: Vec<Tensor>,
    ) -> Self {
        let mut a = Self::new(feature_dim, num_classes, seed);
        assert!(
            initial_state.len() >= 2,
            "full state must contain at least the classifier"
        );
        a.payload = Payload::FullModel(FedAvg::new(initial_state));
        a.sync_classifier();
        a
    }

    /// Current global classifier (for analysis and tests).
    pub fn global_classifier(&self) -> &ClassifierWeights {
        &self.global
    }

    /// Keep the standalone global classifier consistent with the one
    /// embedded at the end of the `+weight` global state.
    fn sync_classifier(&mut self) {
        if let Payload::FullModel(full) = &self.payload {
            if let [.., weight, bias] = full.global_state() {
                self.global = ClassifierWeights {
                    weight: weight.clone(),
                    bias: bias.clone(),
                };
            }
        }
    }

    /// A sampled client's turn in a classifier exchange: take the round's
    /// broadcast, train on it, upload in the precision it came in. A client
    /// that was sent nothing, another variant, or a classifier that is not
    /// its model's, sits the round out unchanged.
    pub(crate) fn client_turn(
        c: &mut Client,
        net: &Network,
        hp: &HyperParams,
        obj: LocalObjective,
    ) {
        type Wrap = fn(ClassifierWeights) -> WireMessage;
        let (global, reply) = match net.client_recv(c.id) {
            Some(WireMessage::Classifier(g)) => (g, WireMessage::Classifier as Wrap),
            Some(WireMessage::ClassifierF16(g)) => (g, WireMessage::ClassifierF16 as Wrap),
            _ => return,
        };
        let own = &mut c.model.classifier;
        if !classifier_fits(&global, own.feature_dim(), own.num_classes()) {
            return;
        }
        own.set_weights(&global);
        c.local_update_fedclassavg(Some(&global), hp, obj);
        let _ = net.send_to_server(c.id, &reply(c.model.classifier.weights()));
    }

    /// The `+weight` local update: FedClassAvg's objective, its proximal
    /// pull towards the classifier the full model just loaded.
    pub(crate) fn weight_train(
        hp: &HyperParams,
        obj: LocalObjective,
    ) -> impl Fn(&mut Client) -> LocalStats + Sync + '_ {
        move |c| {
            let global_cls = c.model.classifier.weights();
            c.local_update_fedclassavg(Some(&global_cls), hp, obj)
        }
    }

    pub(crate) fn objective_for(&self, hp: &HyperParams) -> LocalObjective {
        LocalObjective {
            contrastive: self.objective.contrastive,
            rho: if self.objective.rho.is_nan() {
                hp.rho
            } else {
                self.objective.rho
            },
        }
    }

    /// A reply is usable when it is a classifier of the global's shape, in
    /// either precision.
    fn accept(&self, _client: usize, frame: Frame) -> Option<ClassifierWeights> {
        let dims = self.global.weight.dims();
        match WireMessage::decode(&frame) {
            Ok(WireMessage::Classifier(cw) | WireMessage::ClassifierF16(cw)) => {
                classifier_fits(&cw, dims[1], dims[0]).then_some(cw)
            }
            _ => None,
        }
    }

    /// Eq. 3: the new global classifier is the weighted average of the
    /// replies, accumulated from zero in reply order.
    fn fold(&mut self, replies: Vec<Reply<ClassifierWeights>>) {
        let dims = self.global.weight.dims();
        let mut acc = ClassifierWeights::zeros(dims[1], dims[0]);
        for r in &replies {
            acc.axpy(r.weight, &r.payload);
        }
        self.global = acc;
    }
}

impl Algorithm for FedClassAvg {
    fn name(&self) -> String {
        match self.payload {
            Payload::Classifier => "FedClassAvg",
            Payload::ClassifierF16 => "FedClassAvg (f16)",
            Payload::FullModel(_) => "FedClassAvg (+weight)",
        }
        .into()
    }

    fn round(
        &mut self,
        round: usize,
        fleet: &mut Fleet,
        sampled: &[usize],
        net: &Network,
        hp: &HyperParams,
    ) {
        let obj = self.objective_for(hp);
        let mut leg = Leg::new(round, fleet, sampled, net);
        let down = match &mut self.payload {
            Payload::FullModel(full) => {
                // The full state goes from the frame into the model and
                // back; the classifier it just loaded is the round's
                // global one.
                let folded = full.exchange(&mut leg, Self::weight_train(hp, obj));
                if folded {
                    self.sync_classifier();
                }
                return;
            }
            Payload::Classifier => WireMessage::Classifier(self.global.clone()),
            Payload::ClassifierF16 => WireMessage::ClassifierF16(self.global.clone()),
        };
        let turn = |c: &mut Client| Self::client_turn(c, net, hp, obj);
        let uplink = (self, &mut Self::accept as _, &mut Self::fold as _);
        exchange(&mut leg, Downlink::All(down), turn, Some(uplink));
    }

    fn server_state(&self) -> Vec<Option<Vec<&Tensor>>> {
        let full = match &self.payload {
            Payload::FullModel(full) => Some(full.global_state().iter().collect()),
            _ => None,
        };
        vec![Some(vec![&self.global.weight, &self.global.bias]), full]
    }

    fn load_server_state(&mut self, groups: Vec<Option<Vec<Tensor>>>) -> Result<(), WireError> {
        let [Some(classifier), full] = exactly(groups)? else {
            return Err(OTHER_STATE);
        };
        let [weight, bias] = exactly(classifier)?;
        if weight.dims() != self.global.weight.dims() || bias.dims() != self.global.bias.dims() {
            return Err(WireError::Malformed(
                "checkpoint classifier shape does not match the configuration",
            ));
        }
        match (&mut self.payload, full) {
            (Payload::FullModel(own), Some(state)) => own.restore_state(state)?,
            (Payload::Classifier | Payload::ClassifierF16, None) => {}
            _ => {
                return Err(WireError::Malformed(
                    "checkpoint weight-sharing mode does not match the configuration",
                ))
            }
        }
        self.global = ClassifierWeights { weight, bias };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::test_support::{tiny_fleet, tiny_fleet_homogeneous, tiny_fleet_hp};

    #[test]
    fn round_updates_global_classifier() {
        let (mut fleet, net) = tiny_fleet(3, 711);
        let hp = HyperParams::micro_default();
        let mut algo = FedClassAvg::new(8, 3, 1);
        let before = algo.global_classifier().weight.clone();
        algo.round(0, &mut fleet, &[0, 1, 2], &net, &hp);
        assert_ne!(algo.global_classifier().weight, before);
    }

    #[test]
    fn clients_start_round_from_global() {
        let hp = HyperParams::micro_default().with_lr(0.0); // freeze training
        let (mut fleet, net) = tiny_fleet_hp(2, 712, hp);
        let mut algo = FedClassAvg::new(8, 3, 2);
        let global = algo.global_classifier().clone();
        algo.round(0, &mut fleet, &[0, 1], &net, &hp);
        // With lr = 0 clients return exactly the broadcast classifier, and
        // the weighted average of identical classifiers is itself.
        let after = algo.global_classifier();
        for (a, b) in after.weight.data().iter().zip(global.weight.data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn aggregation_is_weighted_average() {
        let hp = HyperParams::micro_default().with_lr(0.0);
        let (mut fleet, net) = tiny_fleet_hp(2, 713, hp);
        fleet.set_weight(0, 3.0);
        fleet.set_weight(1, 1.0);
        let mut algo = FedClassAvg::new(8, 3, 3);
        algo.round(0, &mut fleet, &[0, 1], &net, &hp);
        // lr = 0: both clients return the broadcast classifier; any weights
        // must still produce that classifier (sanity of normalization).
        let g = algo.global_classifier().clone();
        algo.round(1, &mut fleet, &[0, 1], &net, &hp);
        for (a, b) in algo
            .global_classifier()
            .weight
            .data()
            .iter()
            .zip(g.weight.data())
        {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn classifier_only_traffic_is_small() {
        let (mut fleet, net) = tiny_fleet(4, 714);
        let hp = HyperParams::micro_default();
        let mut algo = FedClassAvg::new(8, 3, 4);
        algo.round(0, &mut fleet, &[0, 1, 2, 3], &net, &hp);
        // Classifier = 8·3 + 3 floats; per client down+up ≈ 2 × ~140 B.
        let per_client = net.stats().total_bytes() / 4;
        assert!(
            per_client < 1024,
            "per-client traffic {per_client} B too large"
        );
    }

    #[test]
    fn full_weight_variant_averages_whole_model() {
        let (mut fleet, net) = tiny_fleet_homogeneous(2, 715);
        let hp = HyperParams::micro_default();
        let init = fleet.client_mut(0).model.full_state();
        let mut algo = FedClassAvg::with_full_weight_sharing(8, 3, 5, init);
        algo.round(0, &mut fleet, &[0, 1], &net, &hp);
        // Traffic must be much larger than classifier-only.
        let per_client = net.stats().total_bytes() / 2;
        assert!(
            per_client > 10_000,
            "per-client traffic {per_client} B too small for +weight"
        );
        // And both clients hold identical weights at round start of next
        // round (broadcast dominates); check global state exists.
        assert!(matches!(algo.payload, Payload::FullModel(_)));
    }

    #[test]
    fn half_precision_round_halves_traffic() {
        let run = |half: bool| {
            let (mut fleet, net) = tiny_fleet(3, 716);
            let hp = HyperParams::micro_default();
            let mut algo = FedClassAvg::new(8, 3, 9);
            if half {
                algo = algo.with_half_precision();
            }
            algo.round(0, &mut fleet, &[0, 1, 2], &net, &hp);
            (net.stats().total_bytes(), algo.global_classifier().clone())
        };
        let (full_bytes, full_global) = run(false);
        let (half_bytes, half_global) = run(true);
        assert!(
            half_bytes < full_bytes,
            "f16 traffic {half_bytes} not below f32 traffic {full_bytes}"
        );
        // The aggregated classifiers stay close despite quantization.
        let dist = full_global.l2_distance(&half_global);
        let scale = full_global.weight.norm();
        assert!(
            dist < 0.05 * (1.0 + scale),
            "quantized run diverged: {dist}"
        );
    }

    #[test]
    fn survivor_weights_renormalize_to_one_under_dropout() {
        use crate::comm::{Fate, FaultPlan};
        let hp = HyperParams::micro_default().with_lr(0.0); // freeze training
        let (mut fleet, _) = tiny_fleet_hp(3, 717, hp);
        // Find a round where exactly one of the three clients drops.
        let plan = FaultPlan::with_dropout(21, 0.5);
        let round = (1..)
            .find(|&r| (0..3).filter(|&c| plan.fate(r, c) == Fate::Dropped).count() == 1)
            .expect("some round drops exactly one client");
        let mut net = Network::new(3).with_fault_plan(plan);
        net.begin_round(round, &[0, 1, 2]);
        let mut algo = FedClassAvg::new(8, 3, 2);
        let global = algo.global_classifier().clone();
        algo.round(round, &mut fleet, &[0, 1, 2], &net, &hp);
        // lr = 0: every survivor returns the broadcast classifier. The
        // aggregate equals the broadcast iff survivor weights were
        // renormalized to sum to 1; un-renormalized weights would shrink
        // it by the missing client's share.
        for (a, b) in algo
            .global_classifier()
            .weight
            .data()
            .iter()
            .zip(global.weight.data())
        {
            assert!((a - b).abs() < 1e-5, "survivor weights not renormalized");
        }
        let (dropped, corrupt) = net.take_round_faults();
        assert_eq!((dropped, corrupt), (1, 0));
    }

    #[test]
    fn staleness_decayed_weights_renormalize_to_one() {
        use crate::comm::FaultPlan;
        use crate::config::Aggregation;
        let hp = HyperParams::micro_default().with_lr(0.0); // freeze training
        let (mut fleet, _) = tiny_fleet_hp(3, 719, hp);
        // goal_k = 2 over 3 clients guarantees capacity spills, and the
        // straggler rate adds buffer admissions on top — so rounds mix
        // fresh (s = 0) and stale (s ≥ 1) contributors.
        let mut net = Network::new(3)
            .with_fault_plan(FaultPlan::new(31, 0.0, 0.5, 0.0))
            .with_aggregation(
                Aggregation::Buffered {
                    goal_k: 2,
                    max_staleness: 3,
                },
                719,
            );
        let mut algo = FedClassAvg::new(8, 3, 2);
        let global = algo.global_classifier().clone();
        let mut total_stale = 0u64;
        for round in 1..=8 {
            net.begin_round(round, &[0, 1, 2]);
            algo.round(round, &mut fleet, &[0, 1, 2], &net, &hp);
            let (stale, _expired) = net.take_round_async();
            total_stale += stale;
            // lr = 0: every contribution, fresh or stale, is the broadcast
            // classifier, so the aggregate equals it iff the decayed
            // weights `|D_k|·(1+s)^(-1/2)` renormalize to Σw = 1; without
            // renormalization the decay would shrink the global each round.
            for (a, b) in algo
                .global_classifier()
                .weight
                .data()
                .iter()
                .zip(global.weight.data())
            {
                assert!((a - b).abs() < 1e-4, "staleness weights not renormalized");
            }
        }
        assert!(total_stale > 0, "no stale fold was ever exercised");
    }

    #[test]
    fn zero_survivors_skip_round_keeping_global() {
        use crate::comm::FaultPlan;
        let hp = HyperParams::micro_default();
        let (mut fleet, _) = tiny_fleet_hp(2, 718, hp);
        let mut net = Network::new(2).with_fault_plan(FaultPlan::with_dropout(5, 1.0));
        net.begin_round(1, &[0, 1]);
        let mut algo = FedClassAvg::new(8, 3, 6);
        let global = algo.global_classifier().clone();
        algo.round(1, &mut fleet, &[0, 1], &net, &hp);
        assert_eq!(
            algo.global_classifier().weight,
            global.weight,
            "round with zero survivors must leave the global untouched"
        );
        assert_eq!(net.take_round_faults(), (2, 0));
    }

    /// The classifier exchange as `FedClassAvg::round` and `client_turn`
    /// wrote it out before there was a driver — broadcast, client region,
    /// collect, variant filter, weights, fold, each by hand — kept as the
    /// oracle the driver is held to. (The collection has since merged its
    /// two parallel vectors; nothing else is changed.)
    struct HandWritten {
        global: ClassifierWeights,
        half_precision: bool,
    }

    impl HandWritten {
        fn contribution_weights(fleet: &Fleet, contributors: &[(usize, usize)]) -> Vec<f32> {
            let raw: Vec<f32> = contributors
                .iter()
                .map(|&(k, s)| fleet.weight(k) * (1.0 + s as f32).powf(-0.5))
                .collect();
            let total: f32 = raw.iter().sum();
            assert!(total > 0.0, "contributing clients have zero total weight");
            raw.into_iter().map(|w| w / total).collect()
        }

        fn client_turn(c: &mut Client, net: &Network, hp: &HyperParams, obj: LocalObjective) {
            let Some(msg) = net.client_recv(c.id) else {
                return;
            };
            match msg {
                WireMessage::Classifier(global) => {
                    c.model.classifier.set_weights(&global);
                    c.local_update_fedclassavg(Some(&global), hp, obj);
                    let _ = net.send_to_server(
                        c.id,
                        &WireMessage::Classifier(c.model.classifier.weights()),
                    );
                }
                WireMessage::ClassifierF16(global) => {
                    c.model.classifier.set_weights(&global);
                    c.local_update_fedclassavg(Some(&global), hp, obj);
                    let _ = net.send_to_server(
                        c.id,
                        &WireMessage::ClassifierF16(c.model.classifier.weights()),
                    );
                }
                _ => {}
            }
        }

        fn round(
            &mut self,
            round: usize,
            fleet: &mut Fleet,
            sampled: &[usize],
            net: &Network,
            hp: &HyperParams,
        ) {
            let obj = LocalObjective {
                contrastive: true,
                rho: hp.rho,
            };
            let msg = if self.half_precision {
                WireMessage::ClassifierF16(self.global.clone())
            } else {
                WireMessage::Classifier(self.global.clone())
            };
            let _ = net.broadcast(sampled, &msg);
            fleet.for_sampled_parallel(sampled, |c| Self::client_turn(c, net, hp, obj));
            let replies = net.collect_round(round, sampled.len());
            if replies.is_empty() {
                return;
            }
            let classifiers: Vec<(usize, usize, ClassifierWeights)> = replies
                .iter()
                .filter_map(|(k, s, frame)| match WireMessage::decode(frame) {
                    Ok(WireMessage::Classifier(cw) | WireMessage::ClassifierF16(cw)) => {
                        Some((*k, *s, cw))
                    }
                    _ => None,
                })
                .collect();
            if !classifiers.is_empty() {
                let contributors: Vec<(usize, usize)> =
                    classifiers.iter().map(|&(k, s, _)| (k, s)).collect();
                let weights = Self::contribution_weights(fleet, &contributors);
                let mut acc = ClassifierWeights::zeros(
                    self.global.weight.dims()[1],
                    self.global.weight.dims()[0],
                );
                for ((_, _, cw), &w) in classifiers.iter().zip(&weights) {
                    acc.axpy(w, cw);
                }
                self.global = acc;
            }
        }
    }

    #[test]
    fn the_driver_reproduces_the_hand_written_round_bit_for_bit() {
        use crate::comm::FaultPlan;
        use crate::config::Aggregation;
        let hp = HyperParams::micro_default();
        let all = [0, 1, 2, 3];
        let buffered = Aggregation::Buffered {
            goal_k: 2,
            max_staleness: 3,
        };
        let runs = [
            (
                Aggregation::Sync,
                FaultPlan::new(41, 0.1, 0.1, 0.1),
                6,
                false,
            ),
            (buffered, FaultPlan::new(43, 0.15, 0.3, 0.1), 8, false),
            (buffered, FaultPlan::new(47, 0.15, 0.3, 0.1), 8, true),
        ];
        for (agg, plan, rounds, half) in runs {
            let net = || {
                Network::new(4)
                    .with_fault_plan(plan)
                    .with_aggregation(agg, 720)
            };
            let (mut fleet, mut oracle_fleet) = (tiny_fleet(4, 720).0, tiny_fleet(4, 720).0);
            let (mut net, mut oracle_net) = (net(), net());
            let mut algo = FedClassAvg::new(8, 3, 7);
            if half {
                algo = algo.with_half_precision();
            }
            let mut oracle = HandWritten {
                global: algo.global_classifier().clone(),
                half_precision: half,
            };
            let mut lost = [0u64; 4];
            for round in 1..=rounds {
                net.begin_round(round, &all);
                algo.round(round, &mut fleet, &all, &net, &hp);
                oracle_net.begin_round(round, &all);
                oracle.round(round, &mut oracle_fleet, &all, &oracle_net, &hp);
                let bits = |g: &ClassifierWeights| -> Vec<u32> {
                    let values = g.weight.data().iter().chain(g.bias.data());
                    values.map(|v| v.to_bits()).collect()
                };
                assert_eq!(
                    bits(algo.global_classifier()),
                    bits(&oracle.global),
                    "{agg:?} round {round}: global classifier"
                );
                let outcome = |net: &Network| {
                    let ((dropped, corrupt), (stale, expired)) =
                        (net.take_round_faults(), net.take_round_async());
                    [dropped, corrupt, stale, expired]
                };
                let counts = outcome(&net);
                assert_eq!(
                    counts,
                    outcome(&oracle_net),
                    "{agg:?} round {round}: counts"
                );
                (0..4).for_each(|i| lost[i] += counts[i]);
            }
            // The plan did lose, mangle and — buffered — delay uplinks.
            assert!(lost[0] > 0 && lost[1] > 0, "{agg:?}: {lost:?}");
            assert_eq!(lost[2] > 0, agg != Aggregation::Sync, "{agg:?}: {lost:?}");
        }
    }

    /// A fleet of three and a classifier-exchange server for it.
    fn classifier_setup(half: bool) -> (Fleet, FedClassAvg) {
        let algo = FedClassAvg::new(8, 3, 11);
        let algo = if half {
            algo.with_half_precision()
        } else {
            algo
        };
        (tiny_fleet(3, 721).0, algo)
    }

    #[test]
    fn a_wrong_shaped_classifier_reply_is_a_corrupt_reply() {
        use crate::algo::testing::assert_forged_reply_is_a_lost_reply;
        let cw = |weight: Tensor, bias: Tensor| ClassifierWeights { weight, bias };
        let forgeries = [
            (
                "transposed",
                cw(Tensor::full([8, 3], 1.0), Tensor::full([3], 1.0)),
            ),
            (
                "flattened",
                cw(Tensor::full([24], 1.0), Tensor::full([3], 1.0)),
            ),
            (
                "a class too many",
                cw(Tensor::full([4, 8], 1.0), Tensor::full([4], 1.0)),
            ),
            (
                "a bias of another rank",
                cw(Tensor::full([3, 8], 1.0), Tensor::full([3, 1], 1.0)),
            ),
        ];
        for (what, forged) in forgeries {
            for half in [false, true] {
                let wrap = if half {
                    WireMessage::ClassifierF16
                } else {
                    WireMessage::Classifier
                };
                // First reply of three, last of three, and the only one.
                for (k, lost) in [(0, &[][..]), (2, &[][..]), (1, &[0, 2][..])] {
                    assert_forged_reply_is_a_lost_reply(
                        &format!("{what}, f16 {half}, from client {k}, {} lost", lost.len()),
                        || classifier_setup(half),
                        k,
                        wrap(forged.clone()),
                        lost,
                    );
                }
            }
        }
        // Another message altogether is no more usable.
        assert_forged_reply_is_a_lost_reply(
            "prototypes",
            || classifier_setup(false),
            1,
            WireMessage::Prototypes(vec![None; 3]),
            &[],
        );
    }

    #[test]
    fn a_wrong_shaped_full_model_reply_is_a_corrupt_reply() {
        use crate::algo::testing::assert_forged_reply_is_a_lost_reply;
        let setup = || {
            let (mut fleet, _) = tiny_fleet_homogeneous(3, 722);
            let init = fleet.client_mut(0).model.full_state();
            (fleet, FedClassAvg::with_full_weight_sharing(8, 3, 12, init))
        };
        let good = setup().0.client_mut(0).model.full_state();
        let mut flat = good.clone();
        flat[0] = Tensor::zeros([good[0].numel()]);
        let forgeries = [
            ("one tensor short", good[..good.len() - 1].to_vec()),
            ("one tensor too many", [&good[..], &good[..1]].concat()),
            ("a flattened weight", flat),
            ("classifier only", good[good.len() - 2..].to_vec()),
        ];
        for (what, forged) in forgeries {
            for (k, lost) in [(0, &[][..]), (2, &[][..]), (1, &[0, 2][..])] {
                assert_forged_reply_is_a_lost_reply(
                    &format!("{what}, from client {k}, {} lost", lost.len()),
                    setup,
                    k,
                    WireMessage::FullModel(forged.clone()),
                    lost,
                );
            }
        }
    }

    #[test]
    fn a_classifier_of_another_shape_is_a_lost_downlink_not_a_panic() {
        use crate::algo::testing::snapshots;
        use std::time::Duration;
        let hp = HyperParams::micro_default();
        for half in [false, true] {
            // (feature_dim, num_classes) the fleet's models do not have.
            for (feature_dim, num_classes) in [(9, 3), (8, 4), (3, 8)] {
                let (mut fleet, _) = tiny_fleet(2, 723);
                let before = snapshots(&mut fleet);
                let mut algo = FedClassAvg::new(feature_dim, num_classes, 13);
                if half {
                    algo = algo.with_half_precision();
                }
                let global = algo.global_classifier().clone();
                // The clients refuse the broadcast and upload nothing; the
                // collect's safety net is all that ends the round.
                let net = Network::new(2).with_collect_budget(Duration::from_millis(50));
                algo.round(1, &mut fleet, &[0, 1], &net, &hp);
                assert_eq!(net.stats().uplink_bytes(), 0);
                assert_eq!(net.take_round_faults(), (2, 0));
                assert_eq!(algo.global_classifier(), &global);
                let after = snapshots(&mut fleet);
                assert_eq!(after, before, "a client was written to");
            }
        }
    }

    #[test]
    fn ablation_flags_propagate() {
        let algo = FedClassAvg::ablation(8, 3, 6, false, 0.0);
        assert!(!algo.objective.contrastive);
        assert_eq!(algo.objective.rho, 0.0);
        let hp = HyperParams::micro_default();
        let obj = algo.objective_for(&hp);
        assert_eq!(obj.rho, 0.0);
        let default_algo = FedClassAvg::new(8, 3, 7);
        assert_eq!(default_algo.objective_for(&hp).rho, hp.rho);
    }
}
