//! FedMD (Li & Wang 2019, the paper's reference [17]): the simplest
//! knowledge-transfer baseline for heterogeneous models — clients train
//! locally, publish soft predictions on shared public data, and distill
//! toward the **uniform consensus** of everyone's predictions (KT-pFL's
//! ancestor, without the learned coefficient matrix).
//!
//! Included as an extension beyond the paper's comparison set: it isolates
//! how much of KT-pFL's behaviour comes from the *personalized* transfer
//! coefficients versus plain consensus distillation.

use super::Algorithm;
use crate::comm::{Network, WireMessage};
use crate::config::HyperParams;
use crate::fleet::Fleet;
use fca_tensor::ops::softmax_rows;
use fca_tensor::Tensor;
use fca_trace::PhaseId;

/// FedMD server.
pub struct FedMd {
    public: Tensor,
    temperature: f32,
    local_epochs: usize,
    distill_steps: usize,
    distill_batch: usize,
}

impl FedMd {
    /// New server sharing `public` data across the federation.
    pub fn new(public: Tensor) -> Self {
        FedMd {
            public,
            temperature: 2.0,
            local_epochs: 1,
            distill_steps: 4,
            distill_batch: 32,
        }
    }

    /// Override the local-epoch budget.
    pub fn with_local_epochs(mut self, e: usize) -> Self {
        self.local_epochs = e;
        self
    }
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
        self.local_epochs
    }

    fn round(
        &mut self,
        _round: usize,
        fleet: &mut Fleet,
        sampled: &[usize],
        net: &Network,
        hp: &HyperParams,
    ) {
        // Phase A: broadcast public data, local training, soft predictions.
        let span = fca_trace::clock();
        // A closed endpoint is an offline client; the count-driven
        // collect already tolerates the missing reply.
        let _ = net.broadcast(sampled, &WireMessage::PublicData(self.public.clone()));
        fca_trace::phase(PhaseId::Broadcast, span);
        let temp = self.temperature;
        let local_epochs = self.local_epochs;
        let span = fca_trace::clock();
        fleet.for_sampled_parallel(sampled, |c| {
            let Some(WireMessage::PublicData(public)) = net.client_recv(c.id) else {
                return; // offline this round
            };
            c.local_update_supervised(local_epochs, hp);
            let logits = c.logits_on(&public);
            let soft = softmax_rows(&logits.scaled(1.0 / temp));
            let _ = net.send_to_server(c.id, &WireMessage::SoftPredictions(soft));
        });
        fca_trace::phase(PhaseId::LocalTrain, span);

        // Uniform consensus over the survivors; with no survivors there is
        // nothing to distill toward, so the round ends after local training.
        let span = fca_trace::clock();
        let replies = net
            .server_collect_deadline(sampled.len(), net.collect_budget())
            .replies;
        fca_trace::phase(PhaseId::Collect, span);
        let span = fca_trace::clock();
        // Wrong-variant replies count as corrupt and are skipped; the
        // uniform consensus averages over the usable predictions only.
        let mut consensus: Option<Tensor> = None;
        let mut usable = 0usize;
        for (_, msg) in &replies {
            let WireMessage::SoftPredictions(t) = msg else {
                continue;
            };
            usable += 1;
            match &mut consensus {
                None => consensus = Some(t.clone()),
                Some(acc) => acc.add_assign(t),
            }
        }
        let Some(mut consensus) = consensus else {
            return;
        };
        consensus.scale(1.0 / usable as f32);

        // Phase B: every reachable client distills toward the consensus
        // (stragglers and corrupt uplinks still trained and may distill;
        // offline clients get nothing).
        let _ = net.broadcast(sampled, &WireMessage::SoftTargets(consensus));
        fca_trace::phase(PhaseId::Aggregate, span);
        let (steps, batch) = (self.distill_steps, self.distill_batch);
        let public = self.public.clone();
        let span = fca_trace::clock();
        fleet.for_sampled_parallel(sampled, |c| {
            let Some(WireMessage::SoftTargets(t)) = net.client_recv(c.id) else {
                return;
            };
            c.distill(&public, &t, temp, steps, batch);
        });
        fca_trace::phase(PhaseId::LocalTrain, span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
}
