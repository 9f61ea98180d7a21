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
//! * `share_full_weights` reproduces the homogeneous "+weight" rows of
//!   Table 3 (all weights averaged, proximal still classifier-only).

use super::{average_full_models, contribution_weights, Algorithm, FedAvg};
use crate::checkpoint::{
    expect_empty, put_tensor, put_tensor_list, take_tensor, take_tensor_list, take_u8,
};
use crate::client::{Client, LocalObjective};
use crate::comm::{Network, WireMessage};
use crate::config::HyperParams;
use crate::fleet::Fleet;
use bytes::{BufMut, Bytes, BytesMut};
use fca_models::classifier::ClassifierWeights;
use fca_tensor::rng::derived_rng;
use fca_tensor::serialize::WireError;
use fca_tensor::Tensor;
use fca_trace::PhaseId;

/// FedClassAvg server.
pub struct FedClassAvg {
    global: ClassifierWeights,
    global_state: Option<Vec<Tensor>>,
    objective: LocalObjective,
    share_full_weights: bool,
    half_precision: bool,
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
            global_state: None,
            objective: LocalObjective {
                contrastive: true,
                rho: f32::NAN,
            },
            share_full_weights: false,
            half_precision: false,
        }
    }

    /// Exchange classifiers in IEEE binary16, halving the (already tiny)
    /// per-round payload. Relative quantization error is ≤ 2⁻¹¹ per
    /// weight; `ext_quantized_comm` measures the accuracy impact.
    pub fn with_half_precision(mut self) -> Self {
        assert!(
            !self.share_full_weights,
            "half precision applies to classifier exchange"
        );
        self.half_precision = true;
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
        a.share_full_weights = true;
        // Keep the classifier embedded in the state consistent with the
        // standalone global classifier.
        assert!(
            initial_state.len() >= 2,
            "full state must contain at least the classifier"
        );
        if let [.., weight, bias] = &initial_state[..] {
            a.global = ClassifierWeights {
                weight: weight.clone(),
                bias: bias.clone(),
            };
        }
        a.global_state = Some(initial_state);
        a
    }

    /// Current global classifier (for analysis and tests).
    pub fn global_classifier(&self) -> &ClassifierWeights {
        &self.global
    }

    /// A sampled client's turn: take the round's broadcast, train on it,
    /// upload. A client that was sent nothing, or something it cannot use,
    /// sits the round out unchanged.
    pub(crate) fn client_turn(
        c: &mut Client,
        net: &Network,
        hp: &HyperParams,
        obj: LocalObjective,
        share_full: bool,
    ) {
        if share_full {
            // The full state goes from the frame into the model and back;
            // the classifier it just loaded is the round's global one.
            FedAvg::client_turn(c, net, |c| {
                let global_cls = c.model.classifier.weights();
                c.local_update_fedclassavg(Some(&global_cls), hp, obj)
            });
            return;
        }
        let Some(msg) = net.client_recv(c.id) else {
            return;
        };
        match msg {
            WireMessage::Classifier(global) => {
                c.model.classifier.set_weights(&global);
                c.local_update_fedclassavg(Some(&global), hp, obj);
                let _ = net
                    .send_to_server(c.id, &WireMessage::Classifier(c.model.classifier.weights()));
            }
            WireMessage::ClassifierF16(global) => {
                c.model.classifier.set_weights(&global);
                c.local_update_fedclassavg(Some(&global), hp, obj);
                let _ = net.send_to_server(
                    c.id,
                    &WireMessage::ClassifierF16(c.model.classifier.weights()),
                );
            }
            // A broadcast that decoded to an unexpected variant is
            // treated like a lost broadcast: sit the round out.
            _ => {}
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
}

impl Algorithm for FedClassAvg {
    fn name(&self) -> String {
        let mut n = "FedClassAvg".to_string();
        if self.share_full_weights {
            n.push_str(" (+weight)");
        }
        if self.half_precision {
            n.push_str(" (f16)");
        }
        n
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

        // Broadcast: one message for the round, encoded once.
        let span = fca_trace::clock();
        let msg = if self.share_full_weights {
            WireMessage::FullModel(
                self.global_state
                    .as_ref()
                    // fca-lint: allow(P1, reason = "invariant set by the only constructor that enables share_full_weights; never reachable from wire input")
                    .expect("+weight state initialized")
                    .clone(),
            )
        } else if self.half_precision {
            WireMessage::ClassifierF16(self.global.clone())
        } else {
            WireMessage::Classifier(self.global.clone())
        };
        // A closed endpoint is an offline client; the count-driven
        // collect already tolerates the missing reply.
        let _ = net.broadcast(sampled, &msg);
        fca_trace::phase(PhaseId::Broadcast, span);

        // Local updates (parallel). Offline clients received nothing and
        // sit the round out.
        let share_full = self.share_full_weights;
        let span = fca_trace::clock();
        fleet.for_sampled_parallel(sampled, |c| Self::client_turn(c, net, hp, obj, share_full));
        fca_trace::phase(PhaseId::LocalTrain, span);

        // Aggregate (Eq. 3) over whatever survived the round — fresh
        // survivors plus, under buffered aggregation, staleness-decayed
        // late arrivals — deterministically ordered by client id;
        // contributor weights are renormalized to sum to 1 so the average
        // stays unbiased. Zero survivors skip the round: the previous
        // global stands.
        let span = fca_trace::clock();
        let collected = net.collect_round(round, sampled.len());
        fca_trace::phase(PhaseId::Collect, span);
        if collected.replies.is_empty() {
            return;
        }
        let span = fca_trace::clock();

        // Wrong-variant replies count as corrupt and are skipped below;
        // weights renormalize over the survivors. Zero usable replies
        // leave the previous global standing.
        if self.share_full_weights {
            // A corrupt short reply can seed the average with fewer
            // tensors than the classifier needs; keep the previous global
            // standing, like a zero-survivor round.
            if let Some(acc) = average_full_models(fleet, collected) {
                if let [.., weight, bias] = &acc[..] {
                    self.global = ClassifierWeights {
                        weight: weight.clone(),
                        bias: bias.clone(),
                    };
                    self.global_state = Some(acc);
                }
            }
        } else {
            let classifiers: Vec<(usize, usize, &ClassifierWeights)> = collected
                .replies
                .iter()
                .zip(&collected.staleness)
                .filter_map(|((k, msg), &s)| match msg {
                    WireMessage::Classifier(cw) | WireMessage::ClassifierF16(cw) => {
                        Some((*k, s, cw))
                    }
                    _ => None,
                })
                .collect();
            if !classifiers.is_empty() {
                let contributors: Vec<(usize, usize)> =
                    classifiers.iter().map(|&(k, s, _)| (k, s)).collect();
                let weights = contribution_weights(fleet, &contributors);
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
        fca_trace::phase(PhaseId::Aggregate, span);
    }

    fn checkpoint_state(&self) -> Result<Option<Vec<u8>>, WireError> {
        let mut buf = BytesMut::new();
        put_tensor(&mut buf, &self.global.weight)?;
        put_tensor(&mut buf, &self.global.bias)?;
        match &self.global_state {
            None => buf.put_u8(0),
            Some(state) => {
                buf.put_u8(1);
                put_tensor_list(&mut buf, state)?;
            }
        }
        Ok(Some(buf.freeze().to_vec()))
    }

    fn restore_checkpoint_state(&mut self, blob: &[u8]) -> Result<(), WireError> {
        let mut buf = Bytes::copy_from_slice(blob);
        let weight = take_tensor(&mut buf)?;
        let bias = take_tensor(&mut buf)?;
        let state = match take_u8(&mut buf)? {
            0 => None,
            1 => Some(take_tensor_list(&mut buf)?),
            _ => return Err(WireError::Malformed("bad option flag in FedClassAvg state")),
        };
        expect_empty(&buf)?;
        if weight.dims() != self.global.weight.dims() || bias.dims() != self.global.bias.dims() {
            return Err(WireError::Malformed(
                "checkpoint classifier shape does not match the configuration",
            ));
        }
        if state.is_some() != self.global_state.is_some() {
            return Err(WireError::Malformed(
                "checkpoint weight-sharing mode does not match the configuration",
            ));
        }
        self.global = ClassifierWeights { weight, bias };
        self.global_state = state;
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
        assert!(algo.global_state.is_some());
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
