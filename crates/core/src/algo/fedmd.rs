//! FedMD (Li & Wang 2019, the paper's reference \[17\]): the simplest
//! knowledge-transfer baseline for heterogeneous models — clients train
//! locally, publish soft predictions on shared public data, and distill
//! toward the **uniform consensus** of everyone's predictions (KT-pFL's
//! ancestor, without the learned coefficient matrix).
//!
//! Included as an extension beyond the paper's comparison set: it isolates
//! how much of KT-pFL's behaviour comes from the *personalized* transfer
//! coefficients versus plain consensus distillation.

use super::{exchange, Algorithm, Downlink, Leg, Reply, NO_UPLINK};
use crate::client::Client;
use crate::comm::{Network, WireMessage};
use crate::config::HyperParams;
use crate::fleet::Fleet;
use crate::frame::Frame;
use fca_tensor::ops::softmax_rows;
use fca_tensor::Tensor;

/// What FedMD and KT-pFL share: the public set, the distillation knobs,
/// and the two legs of a knowledge-transfer round.
pub(crate) struct Transfer {
    pub public: Tensor,
    pub temperature: f32,
    pub local_epochs: usize,
    distill_steps: usize,
    distill_batch: usize,
}

impl Transfer {
    /// Temperature-2 distillation, 4 steps of 32 public images.
    pub fn new(public: Tensor, local_epochs: usize) -> Self {
        Transfer {
            public,
            temperature: 2.0,
            local_epochs,
            distill_steps: 4,
            distill_batch: 32,
        }
    }

    /// First leg: the public set goes down, each client trains on its own
    /// shard and uploads its temperature-softened predictions on the public
    /// set, and `fold` gets the usable ones — `[public rows, classes]`
    /// matrices, the class count being the first accepted reply's. A client
    /// sent anything but images of its own shape sits the round out.
    pub fn publish<S, R>(
        &self,
        leg: &mut Leg<'_>,
        hp: &HyperParams,
        server: &mut S,
        fold: &mut dyn FnMut(&mut S, Vec<Reply<Tensor>>) -> R,
    ) -> Option<R> {
        let net = leg.net;
        let turn = |c: &mut Client| {
            let Some(WireMessage::PublicData(images)) = net.client_recv(c.id) else {
                return; // offline this round
            };
            let own = c.train_data.image_shape();
            if !matches!(*images.dims(), [n, ch, h, w] if n > 0 && (ch, h, w) == own) {
                return; // not this model's input: a lost downlink
            }
            c.local_update_supervised(self.local_epochs, hp);
            let logits = c.logits_on(&images);
            let soft = softmax_rows(&logits.scaled(1.0 / self.temperature));
            let _ = net.send_to_server(c.id, &WireMessage::SoftPredictions(soft));
        };
        let (rows, mut classes) = (self.public.dims()[0], None);
        let accept = &mut |_: &S, _, frame: Frame| match WireMessage::decode(&frame) {
            Ok(WireMessage::SoftPredictions(t)) => {
                let fits =
                    matches!(*t.dims(), [r, c] if r == rows && c == *classes.get_or_insert(c));
                fits.then_some(t)
            }
            _ => None,
        };
        let down = Downlink::All(WireMessage::PublicData(self.public.clone()));
        exchange(leg, down, turn, Some((server, accept, fold)))
    }

    /// Second leg: soft targets go down and every client that gets a
    /// `[public rows, own classes]` matrix distills toward it; nothing
    /// comes back. Stragglers and corrupt uplinks still trained and may
    /// distill; offline clients, and clients sent nothing, skip.
    pub fn distill(&self, leg: &mut Leg<'_>, down: Downlink) {
        let net = leg.net;
        let turn = |c: &mut Client| {
            let Some(WireMessage::SoftTargets(t)) = net.client_recv(c.id) else {
                return;
            };
            if t.dims() != [self.public.dims()[0], c.model.num_classes()] {
                return; // not targets for this model: a lost downlink
            }
            let (steps, batch) = (self.distill_steps, self.distill_batch);
            c.distill(&self.public, &t, self.temperature, steps, batch);
        };
        exchange(leg, down, turn, NO_UPLINK);
    }
}

/// FedMD server.
pub struct FedMd(Transfer);

impl FedMd {
    /// New server sharing `public` data across the federation.
    pub fn new(public: Tensor) -> Self {
        FedMd(Transfer::new(public, 1))
    }

    /// Override the local-epoch budget.
    pub fn with_local_epochs(mut self, e: usize) -> Self {
        self.0.local_epochs = e;
        self
    }
}

/// The uniform mean of the usable predictions.
fn consensus(_: &mut (), replies: Vec<Reply<Tensor>>) -> Option<Tensor> {
    let scale = 1.0 / replies.len() as f32;
    let mut replies = replies.into_iter().map(|r| r.payload);
    let mut mean = replies.next()?;
    replies.for_each(|t| mean.add_assign(&t));
    mean.scale(scale);
    Some(mean)
}

impl Algorithm for FedMd {
    fn name(&self) -> String {
        "FedMD".into()
    }

    fn supports_buffered_aggregation(&self) -> bool {
        // The consensus phase replays every client's logits back to the
        // whole cohort in the same round; a buffered late arrival has no
        // consensus to distill against, so FedMD keeps the sync barrier.
        false
    }

    fn epochs_per_round(&self, _hp: &HyperParams) -> usize {
        self.0.local_epochs
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
        // With no usable prediction there is nothing to distill toward, and
        // the round ends after local training.
        let consensus = self.0.publish(&mut leg, hp, &mut (), &mut consensus);
        if let Some(consensus) = consensus.flatten() {
            let down = Downlink::All(WireMessage::SoftTargets(consensus));
            self.0.distill(&mut leg, down);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::testing::snapshots;
    use crate::sim::test_support::{tiny_fleet, tiny_public_data};

    #[test]
    fn round_runs_and_exchanges_predictions() {
        let (mut fleet, net) = tiny_fleet(3, 751);
        let public = tiny_public_data(12, 752);
        let hp = HyperParams::micro_default();
        let mut algo = FedMd::new(public).with_local_epochs(1);
        algo.round(0, &mut fleet, &[0, 1, 2], &net, &hp);
        assert!(net.stats().uplink_bytes() > 0);
        assert!(net.stats().downlink_bytes() > net.stats().uplink_bytes());
    }

    #[test]
    fn consensus_pulls_predictions_together() {
        let (mut fleet, net) = tiny_fleet(3, 753);
        let public = tiny_public_data(16, 754);
        let hp = HyperParams::micro_default();

        // Pairwise disagreement of public-set predictions before/after.
        let disagreement = |fleet: &mut Fleet| -> f32 {
            let preds: Vec<Vec<usize>> = fleet
                .clients_mut()
                .map(|c| c.logits_on(&public).argmax_rows())
                .collect();
            let mut diff = 0usize;
            let mut total = 0usize;
            for i in 0..preds.len() {
                for j in (i + 1)..preds.len() {
                    diff += preds[i]
                        .iter()
                        .zip(&preds[j])
                        .filter(|(a, b)| a != b)
                        .count();
                    total += preds[i].len();
                }
            }
            diff as f32 / total.max(1) as f32
        };

        let before = disagreement(&mut fleet);
        let mut algo = FedMd::new(public.clone()).with_local_epochs(1);
        for r in 0..4 {
            algo.round(r, &mut fleet, &[0, 1, 2], &net, &hp);
        }
        let after = disagreement(&mut fleet);
        assert!(
            after <= before + 0.05,
            "consensus distillation increased disagreement: {before} → {after}"
        );
    }

    #[test]
    fn epochs_per_round_reflects_budget() {
        let public = tiny_public_data(8, 755);
        let algo = FedMd::new(public).with_local_epochs(7);
        assert_eq!(algo.epochs_per_round(&HyperParams::micro_default()), 7);
    }

    #[test]
    fn wrong_shaped_soft_predictions_are_corrupt_replies() {
        use crate::algo::testing::assert_forged_reply_is_a_lost_reply;
        // 12 public images, 3 classes.
        let forgeries = [
            ("a row short", Tensor::full([11, 3], 0.3)),
            ("transposed", Tensor::full([3, 12], 0.3)),
            ("flattened", Tensor::full([36], 0.3)),
        ];
        for (what, forged) in forgeries {
            for (k, lost) in [(0, &[][..]), (2, &[][..]), (1, &[0, 2][..])] {
                assert_forged_reply_is_a_lost_reply(
                    &format!("{what}, from client {k}, {} lost", lost.len()),
                    || (tiny_fleet(3, 756).0, FedMd::new(tiny_public_data(12, 757))),
                    k,
                    WireMessage::SoftPredictions(forged.clone()),
                    lost,
                );
            }
        }
        // The class count is the first accepted reply's: a wider matrix
        // behind honest ones is refused.
        assert_forged_reply_is_a_lost_reply(
            "a class too many, from the last client",
            || (tiny_fleet(3, 756).0, FedMd::new(tiny_public_data(12, 757))),
            2,
            WireMessage::SoftPredictions(Tensor::full([12, 4], 0.25)),
            &[],
        );
    }

    #[test]
    fn public_data_of_another_shape_is_a_lost_downlink_not_a_panic() {
        use std::time::Duration;
        let hp = HyperParams::micro_default();
        // The fleet trains on 1×12×12 images.
        for dims in [
            &[6, 1, 10, 10][..],
            &[6, 3, 12, 12],
            &[6, 144],
            &[0, 1, 12, 12],
        ] {
            let (mut fleet, _) = tiny_fleet(2, 758);
            let before = snapshots(&mut fleet);
            let mut algo = FedMd::new(Tensor::zeros(fca_tensor::Shape::new(dims)));
            let net = Network::new(2).with_collect_budget(Duration::from_millis(50));
            algo.round(1, &mut fleet, &[0, 1], &net, &hp);
            assert_eq!(net.stats().uplink_bytes(), 0, "{dims:?}");
            assert_eq!(net.take_round_faults(), (2, 0), "{dims:?}");
            let after = snapshots(&mut fleet);
            assert_eq!(after, before, "{dims:?}: a client was written to");
        }
    }

    #[test]
    fn soft_targets_of_another_shape_are_a_lost_downlink_not_a_panic() {
        let public = tiny_public_data(12, 759);
        for dims in [&[11, 3][..], &[12, 4], &[3, 12], &[36]] {
            let (mut fleet, net) = tiny_fleet(2, 760);
            let before = snapshots(&mut fleet);
            let targets = Tensor::full(fca_tensor::Shape::new(dims), 1.0 / 3.0);
            let down = Downlink::All(WireMessage::SoftTargets(targets));
            let mut leg = Leg::new(1, &mut fleet, &[0, 1], &net);
            Transfer::new(public.clone(), 1).distill(&mut leg, down);
            let after = snapshots(&mut fleet);
            assert_eq!(after, before, "{dims:?}: a client was written to");
        }
        // The right shape is taken.
        let (mut fleet, net) = tiny_fleet(2, 760);
        let before = snapshots(&mut fleet);
        let down = Downlink::All(WireMessage::SoftTargets(Tensor::full([12, 3], 1.0 / 3.0)));
        Transfer::new(public, 1).distill(&mut Leg::new(1, &mut fleet, &[0, 1], &net), down);
        let after = snapshots(&mut fleet);
        assert_ne!(after, before, "nobody distilled");
    }
}
