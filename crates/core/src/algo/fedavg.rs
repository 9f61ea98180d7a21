//! FedAvg (McMahan et al. 2017) and FedProx (Li et al. 2020) — the
//! homogeneous full-weight-sharing baselines of Table 3.

use super::{exactly, exchange, same_shapes, Algorithm, Downlink, Leg, Reply, OTHER_STATE};
use crate::client::{Client, LocalStats};
use crate::comm::{Network, WireMessage};
use crate::config::HyperParams;
use crate::fleet::Fleet;
use crate::frame::Frame;
use fca_tensor::serialize::WireError;
use fca_tensor::Tensor;
use std::ops::Range;

/// An accepted full-model reply: its frame, and the byte range of each
/// tensor's values in it, in state order.
pub(crate) struct ModelFrame {
    frame: Frame,
    payloads: Vec<Range<usize>>,
}

/// FedAvg server: weighted full-model averaging.
pub struct FedAvg {
    global_state: Vec<Tensor>,
}

impl FedAvg {
    /// New server seeded with an initial global model state
    /// (all clients must share the architecture).
    pub fn new(initial_state: Vec<Tensor>) -> Self {
        assert!(!initial_state.is_empty(), "initial state empty");
        FedAvg {
            global_state: initial_state,
        }
    }

    /// Current global state (for tests/analysis).
    pub fn global_state(&self) -> &[Tensor] {
        &self.global_state
    }

    /// One full-model exchange, whatever `train` is — FedAvg's, FedProx's
    /// and FedClassAvg `+weight`'s round: the global state goes down as
    /// one message, encoded from where it lies, each client trains on it,
    /// and the replies of the global's own shapes are averaged into the
    /// global, from their frames. True when a new global was formed.
    pub(crate) fn exchange(
        &mut self,
        leg: &mut Leg<'_>,
        train: impl Fn(&mut Client) -> LocalStats + Sync,
    ) -> bool {
        let net = leg.net;
        let len = WireMessage::full_state_len(&self.global_state);
        let encode = |buf: &mut Vec<u8>| WireMessage::encode_full_state(&self.global_state, buf);
        // A state that cannot be framed reaches nobody, as a broadcast
        // that failed to encode would not.
        let down = Frame::encode(len, encode).map_or(Downlink::Each(Vec::new()), Downlink::Encoded);
        let turn = |c: &mut Client| Self::client_turn(c, net, &train);
        exchange(
            leg,
            down,
            turn,
            Some((self, &mut Self::accept, &mut Self::fold)),
        )
        .is_some()
    }

    /// A sampled client's turn: read the global state into the model,
    /// `train`, upload the model's state. A client that was sent nothing,
    /// or a frame its model refuses, sits the round out unchanged.
    pub(crate) fn client_turn(
        c: &mut Client,
        net: &Network,
        train: impl FnOnce(&mut Client) -> LocalStats,
    ) {
        if !net.client_recv_full_model_into(c.id, &mut c.model) {
            return; // offline this round
        }
        train(c);
        let _ = net.send_full_model(c.id, &mut c.model);
    }

    /// A reply is usable when it is a full model of the global's shapes:
    /// kept as its frame, with where each tensor's values lie in it.
    fn accept(&self, _client: usize, frame: Frame) -> Option<ModelFrame> {
        let payloads = WireMessage::full_model_payloads(&frame, &self.global_state).ok()?;
        Some(ModelFrame { frame, payloads })
    }

    /// The weighted average of the replies becomes the global state,
    /// written over it from the frames: the first reply scaled, then each
    /// other one added in reply order — `Tensor::scale` and
    /// `Tensor::axpy`'s arithmetic on the values where they lie.
    fn fold(&mut self, replies: Vec<Reply<ModelFrame>>) {
        for (i, r) in replies.iter().enumerate() {
            let ModelFrame { frame, payloads } = &r.payload;
            for (t, range) in self.global_state.iter_mut().zip(payloads) {
                let values = frame[range.clone()].chunks_exact(4);
                let values = values.map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]));
                let dst = t.data_mut().iter_mut().zip(values);
                if i == 0 {
                    dst.for_each(|(a, v)| *a = v * r.weight);
                } else {
                    dst.for_each(|(a, v)| *a += r.weight * v);
                }
            }
        }
    }

    /// Replace the global state with one of the same shapes (a checkpoint's).
    pub(crate) fn restore_state(&mut self, state: Vec<Tensor>) -> Result<(), WireError> {
        if !same_shapes(&state, &self.global_state) {
            return Err(WireError::Malformed(
                "checkpoint model shape does not match the configuration",
            ));
        }
        self.global_state = state;
        Ok(())
    }
}

impl FedAvg {
    /// FedAvg's local update: supervised epochs from the global model.
    fn train(hp: &HyperParams) -> impl Fn(&mut Client) -> LocalStats + Sync + '_ {
        |c| c.local_update_supervised(hp.local_epochs, hp)
    }
}

impl Algorithm for FedAvg {
    fn name(&self) -> String {
        "FedAvg".into()
    }

    fn round(
        &mut self,
        round: usize,
        fleet: &mut Fleet,
        sampled: &[usize],
        net: &Network,
        hp: &HyperParams,
    ) {
        let mut leg = Leg::new(round, fleet, sampled, net);
        self.exchange(&mut leg, Self::train(hp));
    }

    fn server_state(&self) -> Vec<Option<Vec<&Tensor>>> {
        vec![Some(self.global_state.iter().collect())]
    }

    fn load_server_state(&mut self, groups: Vec<Option<Vec<Tensor>>>) -> Result<(), WireError> {
        let [Some(state)] = exactly(groups)? else {
            return Err(OTHER_STATE);
        };
        self.restore_state(state)
    }
}

/// FedProx server: FedAvg aggregation, but local updates add
/// `(μ/2)‖w − w_global‖²` on every parameter.
pub struct FedProx {
    inner: FedAvg,
    mu: f32,
}

impl FedProx {
    /// New FedProx server with proximal weight `mu`.
    pub fn new(initial_state: Vec<Tensor>, mu: f32) -> Self {
        assert!(mu >= 0.0, "mu must be non-negative");
        FedProx {
            inner: FedAvg::new(initial_state),
            mu,
        }
    }

    /// Current global state.
    pub fn global_state(&self) -> &[Tensor] {
        self.inner.global_state()
    }
}

impl FedProx {
    /// FedProx's local update: supervised epochs pulled towards the
    /// global model with weight `mu`.
    fn train(mu: f32, hp: &HyperParams) -> impl Fn(&mut Client) -> LocalStats + Sync + '_ {
        move |c| {
            // Snapshot the just-loaded global parameters in params_mut
            // order so the proximal pull aligns exactly.
            let snapshot: Vec<Tensor> = c
                .model
                .params_mut()
                .iter()
                .map(|p| p.value.clone())
                .collect();
            c.local_update_fedprox(&snapshot, mu, hp)
        }
    }
}

impl Algorithm for FedProx {
    fn name(&self) -> String {
        "FedProx".into()
    }

    fn round(
        &mut self,
        round: usize,
        fleet: &mut Fleet,
        sampled: &[usize],
        net: &Network,
        hp: &HyperParams,
    ) {
        let mut leg = Leg::new(round, fleet, sampled, net);
        self.inner.exchange(&mut leg, Self::train(self.mu, hp));
    }

    fn server_state(&self) -> Vec<Option<Vec<&Tensor>>> {
        self.inner.server_state()
    }

    fn load_server_state(&mut self, groups: Vec<Option<Vec<Tensor>>>) -> Result<(), WireError> {
        self.inner.load_server_state(groups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::test_support::{tiny_fleet_homogeneous, tiny_fleet_homogeneous_hp};

    #[test]
    fn fedavg_synchronizes_clients() {
        let hp = HyperParams::micro_default().with_lr(0.0);
        let (mut fleet, net) = tiny_fleet_homogeneous_hp(3, 721, hp);
        let init = fleet.client_mut(0).model.full_state();
        let mut algo = FedAvg::new(init.clone());
        algo.round(0, &mut fleet, &[0, 1, 2], &net, &hp);
        // lr = 0: every client returned the broadcast, so the new global
        // equals the old one.
        for (a, b) in algo.global_state().iter().zip(&init) {
            for (x, y) in a.data().iter().zip(b.data()) {
                assert!((x - y).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn fedavg_moves_global_when_training() {
        let (mut fleet, net) = tiny_fleet_homogeneous(2, 722);
        let hp = HyperParams::micro_default();
        let init = fleet.client_mut(0).model.full_state();
        let mut algo = FedAvg::new(init.clone());
        algo.round(0, &mut fleet, &[0, 1], &net, &hp);
        let moved = algo
            .global_state()
            .iter()
            .zip(&init)
            .any(|(a, b)| a.sub(b).max_abs() > 1e-6);
        assert!(moved, "global state did not move");
    }

    #[test]
    fn fedprox_stays_closer_to_global_than_fedavg() {
        // Several batches per round so the proximal pull (zero on the very
        // first batch, when weights still equal the global) takes effect.
        let hp = HyperParams::micro_default().with_lr(5e-3).with_epochs(4);
        let drift = |mu: f32, seed: u64| -> f32 {
            let mut hp = hp;
            hp.batch_size = 8;
            let (mut fleet, net) = tiny_fleet_homogeneous_hp(2, seed, hp);
            let init = fleet.client_mut(0).model.full_state();
            let mut algo = FedProx::new(init.clone(), mu);
            algo.round(0, &mut fleet, &[0, 1], &net, &hp);
            algo.global_state()
                .iter()
                .zip(&init)
                .map(|(a, b)| a.sub(b).sq_norm())
                .sum::<f32>()
                .sqrt()
        };
        // Large μ must shrink the round's drift (same seed, same data).
        let loose = drift(0.0, 723);
        let tight = drift(25.0, 723);
        assert!(
            tight < loose,
            "FedProx μ=25 drifted {tight} vs FedAvg-equivalent {loose}"
        );
    }

    #[test]
    fn fedavg_survives_total_dropout() {
        use crate::comm::{FaultPlan, Network};
        let hp = HyperParams::micro_default();
        let (mut fleet, _) = tiny_fleet_homogeneous_hp(2, 725, hp);
        let init = fleet.client_mut(0).model.full_state();
        let mut algo = FedAvg::new(init.clone());
        let mut net = Network::new(2).with_fault_plan(FaultPlan::with_dropout(3, 1.0));
        net.begin_round(1, &[0, 1]);
        algo.round(1, &mut fleet, &[0, 1], &net, &hp);
        for (a, b) in algo.global_state().iter().zip(&init) {
            assert_eq!(a, b, "global moved despite zero survivors");
        }
        assert_eq!(net.take_round_faults(), (2, 0));
    }

    #[test]
    fn a_global_of_another_shape_is_a_lost_downlink_not_a_panic() {
        use crate::comm::Network;
        use std::time::Duration;
        let hp = HyperParams::micro_default();
        let (mut fleet, _) = tiny_fleet_homogeneous_hp(2, 726, hp);
        let before: Vec<Vec<Tensor>> = (0..2)
            .map(|k| fleet.client_mut(k).model.full_state())
            .collect();
        // Well-formed on the wire, wrong for every client: a tensor short,
        // and the first weight flattened.
        let mut foreign = before[0].clone();
        foreign.pop();
        foreign[0] = Tensor::zeros([foreign[0].numel()]);
        let mut algo = FedAvg::new(foreign.clone());
        // The clients refuse the frame and upload nothing; the collect's
        // safety net is all that ends the round.
        let net = Network::new(2).with_collect_budget(Duration::from_millis(50));
        algo.round(1, &mut fleet, &[0, 1], &net, &hp);
        assert_eq!(net.stats().uplink_bytes(), 0);
        assert_eq!(net.take_round_faults(), (2, 0));
        assert_eq!(algo.global_state(), &foreign[..]);
        for (k, state) in before.iter().enumerate() {
            assert_eq!(&fleet.client_mut(k).model.full_state(), state);
        }
    }

    #[test]
    fn a_wrong_shaped_full_model_reply_is_a_corrupt_reply() {
        use crate::algo::testing::assert_forged_reply_is_a_lost_reply;
        let fleet = || tiny_fleet_homogeneous(3, 727).0;
        let good = fleet().client_mut(0).model.full_state();
        // A weight with two unequal axes, to transpose.
        let at = (0..good.len())
            .find(|&i| matches!(*good[i].dims(), [a, b] if a != b))
            .expect("a non-square matrix");
        let with = |i: usize, t: Tensor| {
            let mut state = good.clone();
            state[i] = t;
            state
        };
        let dims = good[at].dims();
        let forgeries = [
            ("one tensor short", good[..good.len() - 1].to_vec()),
            ("one tensor too many", [&good[..], &good[..1]].concat()),
            (
                "a transposed weight",
                with(at, Tensor::full([dims[1], dims[0]], 1.0)),
            ),
            (
                "a weight of another rank",
                with(at, Tensor::full([good[at].numel()], 1.0)),
            ),
            ("no tensor at all", Vec::new()),
        ];
        for (what, forged) in forgeries {
            // First reply of three, last of three, and the only one: alone
            // it must not become the global, first it must not seed the sum.
            for (k, lost) in [(0, &[][..]), (2, &[][..]), (1, &[0, 2][..])] {
                let what = format!("{what}, from client {k}, {} lost", lost.len());
                let forged = WireMessage::FullModel(forged.clone());
                assert_forged_reply_is_a_lost_reply(
                    &format!("FedAvg: {what}"),
                    || (fleet(), FedAvg::new(good.clone())),
                    k,
                    forged.clone(),
                    lost,
                );
                assert_forged_reply_is_a_lost_reply(
                    &format!("FedProx: {what}"),
                    || (fleet(), FedProx::new(good.clone(), 0.1)),
                    k,
                    forged,
                    lost,
                );
            }
        }
    }

    #[test]
    fn a_mangled_full_model_reply_is_refused_before_the_first_write() {
        use crate::algo::testing::{assert_forged_reply_is_a_lost_reply, Forgery, Mangle};
        // Each leaves the frame unreadable as the global's full model: the
        // message check refuses the first two, the fold's shape walk the
        // rest.
        let mangles: [(&str, Mangle); 5] = [
            ("truncated", |b, _| {
                b.pop();
            }),
            ("a byte too long", |b, _| b.push(0)),
            ("its tag bit-flipped", |b, at| b[at] ^= 0x04),
            // The first tensor's rank, then its first extent.
            ("a rank bit-flipped", |b, at| b[at + 5] ^= 0x01),
            ("an extent bit-flipped", |b, at| b[at + 6] ^= 0x01),
        ];
        use crate::algo::FedClassAvg;
        let fleet = || tiny_fleet_homogeneous(3, 728).0;
        let init = || fleet().client_mut(0).model.full_state();
        for (what, mangle) in mangles {
            // First reply of three, last of three, and the only one.
            for (k, lost) in [(0, &[][..]), (2, &[][..]), (1, &[0, 2][..])] {
                let what = format!("{what}, from client {k}, {} lost", lost.len());
                let forged = Forgery::Mangled(mangle);
                assert_forged_reply_is_a_lost_reply(
                    &format!("FedAvg: {what}"),
                    || (fleet(), FedAvg::new(init())),
                    k,
                    forged.clone(),
                    lost,
                );
                assert_forged_reply_is_a_lost_reply(
                    &format!("FedProx: {what}"),
                    || (fleet(), FedProx::new(init(), 0.1)),
                    k,
                    forged.clone(),
                    lost,
                );
                assert_forged_reply_is_a_lost_reply(
                    &format!("FedClassAvg +weight: {what}"),
                    || {
                        let algo = FedClassAvg::with_full_weight_sharing(8, 3, 728, init());
                        (fleet(), algo)
                    },
                    k,
                    forged,
                    lost,
                );
            }
        }
    }

    /// The decode-then-fold exchange every full-model round ran before the
    /// fold read frames: the broadcast encoded from a clone of the state,
    /// each reply decoded into tensors, the first one scaled where it lies
    /// and the others added onto it.
    fn decode_then_fold(
        state: &mut Vec<Tensor>,
        leg: &mut Leg<'_>,
        train: impl Fn(&mut Client) -> LocalStats + Sync,
    ) -> bool {
        let net = leg.net;
        let down = Downlink::All(WireMessage::FullModel(state.clone()));
        let turn = |c: &mut Client| FedAvg::client_turn(c, net, &train);
        let accept = &mut |global: &Vec<Tensor>, _, frame: Frame| match WireMessage::decode(&frame)
        {
            Ok(WireMessage::FullModel(s)) if same_shapes(&s, global) => Some(s),
            _ => None,
        };
        let fold = &mut |global: &mut Vec<Tensor>, replies: Vec<Reply<Vec<Tensor>>>| {
            let mut replies = replies.into_iter();
            let Some(first) = replies.next() else {
                return;
            };
            let mut acc = first.payload;
            acc.iter_mut().for_each(|t| t.scale(first.weight));
            for r in replies {
                for (ai, ti) in acc.iter_mut().zip(&r.payload) {
                    ai.axpy(r.weight, ti);
                }
            }
            *global = acc;
        };
        crate::algo::exchange(leg, down, turn, Some((state, accept, fold))).is_some()
    }

    #[test]
    fn folding_from_frames_matches_decoding_then_folding_to_the_bit() {
        use crate::algo::testing::snapshots;
        use crate::algo::FedClassAvg;
        use crate::comm::{FaultPlan, Network};
        use crate::config::Aggregation;
        let hp = HyperParams::micro_default();
        let all: Vec<usize> = (0..5).collect();
        let plan = FaultPlan::new(31, 0.15, 0.2, 0.2);
        let obj = FedClassAvg::new(8, 3, 0).objective_for(&hp);
        type Train<'a> = Box<dyn Fn(&mut Client) -> LocalStats + Sync + 'a>;
        let trains: [(&str, Train); 3] = [
            ("FedAvg", Box::new(FedAvg::train(&hp))),
            ("FedProx", Box::new(FedProx::train(0.1, &hp))),
            (
                "FedClassAvg +weight",
                Box::new(FedClassAvg::weight_train(&hp, obj)),
            ),
        ];
        let buffered = Aggregation::Buffered {
            goal_k: 2,
            max_staleness: 2,
        };
        let bits = |state: &[Tensor]| -> Vec<u32> {
            state
                .iter()
                .flat_map(|t| t.data().iter().map(|v| v.to_bits()))
                .collect()
        };
        for agg in [Aggregation::Sync, buffered] {
            for (name, train) in &trains {
                let net = || {
                    Network::new(5)
                        .with_fault_plan(plan)
                        .with_aggregation(agg, 77)
                };
                let (mut fleet_a, mut fleet_b) = (
                    tiny_fleet_homogeneous(5, 729).0,
                    tiny_fleet_homogeneous(5, 729).0,
                );
                let init = fleet_a.client_mut(0).model.full_state();
                let (mut server, mut oracle) = (FedAvg::new(init.clone()), init);
                let (mut net_a, mut net_b) = (net(), net());
                let (mut folds, mut corrupt, mut stale) = (0, 0, 0);
                for round in 1..=6 {
                    let what = format!("{name}, {agg:?}, round {round}");
                    net_a.begin_round(round, &all);
                    net_b.begin_round(round, &all);
                    let a =
                        server.exchange(&mut Leg::new(round, &mut fleet_a, &all, &net_a), train);
                    let b = decode_then_fold(
                        &mut oracle,
                        &mut Leg::new(round, &mut fleet_b, &all, &net_b),
                        train,
                    );
                    assert_eq!(a, b, "{what}");
                    assert_eq!(bits(server.global_state()), bits(&oracle), "{what}");
                    let faults = net_a.take_round_faults();
                    assert_eq!(faults, net_b.take_round_faults(), "{what}");
                    let late = net_a.take_round_async();
                    assert_eq!(late, net_b.take_round_async(), "{what}");
                    folds += a as usize;
                    corrupt += faults.1;
                    stale += late.0;
                }
                assert_eq!(snapshots(&mut fleet_a), snapshots(&mut fleet_b), "{name}");
                assert!(folds > 0 && corrupt > 0, "{name}, {agg:?}: nothing tested");
                assert_eq!(stale > 0, agg == buffered, "{name}, {agg:?}");
            }
        }
    }

    #[test]
    fn full_model_traffic_dwarfs_classifier_traffic() {
        let (mut fleet, net) = tiny_fleet_homogeneous(2, 724);
        let hp = HyperParams::micro_default();
        let init = fleet.client_mut(0).model.full_state();
        let mut algo = FedAvg::new(init);
        algo.round(0, &mut fleet, &[0, 1], &net, &hp);
        let full_traffic = net.stats().total_bytes();
        // The classifier for this fleet is 8×3+3 floats ≈ 0.1 KB; the
        // CnnFedAvg model is tens of thousands of floats.
        assert!(full_traffic > 50 * 1024, "traffic {full_traffic} B");
    }
}
