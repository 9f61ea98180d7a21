//! FedProto (Tan et al. 2021): clients exchange per-class feature
//! prototypes instead of weights; local training adds a regularizer
//! pulling features toward the global prototypes.

use super::{exactly, exchange, Algorithm, Downlink, Leg, Reply};
use crate::client::Client;
use crate::comm::{Network, WireMessage};
use crate::config::HyperParams;
use crate::fleet::Fleet;
use crate::frame::Frame;
use fca_tensor::serialize::WireError;
use fca_tensor::Tensor;

/// FedProto server: per-class weighted prototype averaging.
pub struct FedProto {
    num_classes: usize,
    feature_dim: usize,
    lambda: f32,
    global_protos: Vec<Option<Tensor>>,
}

/// Is `protos` one prototype slot per class, each filled one
/// `feature_dim` long? Asked by the server of every reply and by a client
/// of every downlink.
fn prototypes_fit(protos: &[Option<Tensor>], num_classes: usize, feature_dim: usize) -> bool {
    protos.len() == num_classes && protos.iter().flatten().all(|p| p.dims() == [feature_dim])
}

impl FedProto {
    /// New server. `lambda` weights the prototype regularizer (the paper's
    /// recommended value is 1.0).
    pub fn new(feature_dim: usize, num_classes: usize, lambda: f32) -> Self {
        FedProto {
            num_classes,
            feature_dim,
            lambda,
            global_protos: vec![None; num_classes],
        }
    }

    /// Current global prototypes.
    pub fn prototypes(&self) -> &[Option<Tensor>] {
        &self.global_protos
    }

    /// Average per class over the replies, each weighted by its client's
    /// data share decayed by staleness (clients lacking a class contribute
    /// nothing to it). The per-class mass renormalizes over whoever
    /// reported the class, so lost uplinks shrink no prototype.
    fn fold(&mut self, replies: Vec<Reply<Vec<Option<Tensor>>>>) {
        let mut sums: Vec<Tensor> = vec![Tensor::zeros([self.feature_dim]); self.num_classes];
        let mut mass = vec![0.0f32; self.num_classes];
        for r in &replies {
            for (c, p) in r.payload.iter().enumerate() {
                if let Some(p) = p {
                    sums[c].axpy(r.raw, p);
                    mass[c] += r.raw;
                }
            }
        }
        for (c, (mut s, m)) in sums.into_iter().zip(mass).enumerate() {
            if m > 0.0 {
                s.scale(1.0 / m);
                self.global_protos[c] = Some(s);
            }
            // Classes nobody saw this round keep their previous prototype.
        }
    }
}

impl Algorithm for FedProto {
    fn name(&self) -> String {
        "FedProto".into()
    }

    fn round(
        &mut self,
        round: usize,
        fleet: &mut Fleet,
        sampled: &[usize],
        net: &Network,
        hp: &HyperParams,
    ) {
        let lambda = self.lambda;
        let down = Downlink::All(WireMessage::Prototypes(self.global_protos.clone()));
        let turn = |c: &mut Client| {
            let Some(WireMessage::Prototypes(protos)) = net.client_recv(c.id) else {
                return; // offline this round
            };
            if !prototypes_fit(&protos, c.model.num_classes(), c.model.feature_dim()) {
                return; // not this model's prototypes: a lost downlink
            }
            c.local_update_fedproto(&protos, lambda, hp);
            let local = c.compute_prototypes();
            let _ = net.send_to_server(c.id, &WireMessage::Prototypes(local));
        };
        let accept = &mut |server: &Self, _, frame: Frame| match WireMessage::decode(&frame) {
            Ok(WireMessage::Prototypes(protos)) => {
                prototypes_fit(&protos, server.num_classes, server.feature_dim).then_some(protos)
            }
            _ => None,
        };
        let mut leg = Leg::new(round, fleet, sampled, net);
        exchange(&mut leg, down, turn, Some((self, accept, &mut Self::fold)));
    }

    fn server_state(&self) -> Vec<Option<Vec<&Tensor>>> {
        let protos = self.global_protos.iter();
        protos.map(|p| p.as_ref().map(|p| vec![p])).collect()
    }

    fn load_server_state(&mut self, groups: Vec<Option<Vec<Tensor>>>) -> Result<(), WireError> {
        let protos = groups
            .into_iter()
            .map(|group| group.map(|g| exactly(g).map(|[p]| p)).transpose())
            .collect::<Result<Vec<_>, _>>()?;
        if !prototypes_fit(&protos, self.num_classes, self.feature_dim) {
            return Err(WireError::Malformed(
                "checkpoint prototypes do not match the configuration",
            ));
        }
        self.global_protos = protos;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::test_support::tiny_fleet;

    #[test]
    fn prototypes_populate_after_one_round() {
        let (mut fleet, net) = tiny_fleet(3, 731);
        let hp = HyperParams::micro_default();
        let mut algo = FedProto::new(8, 3, 1.0);
        assert!(algo.prototypes().iter().all(|p| p.is_none()));
        algo.round(0, &mut fleet, &[0, 1, 2], &net, &hp);
        // The tiny fleet's shards jointly cover all 3 classes.
        assert!(
            algo.prototypes().iter().filter(|p| p.is_some()).count() >= 2,
            "too few prototypes materialized"
        );
    }

    #[test]
    fn prototype_traffic_scales_with_classes_not_model() {
        let (mut fleet, net) = tiny_fleet(2, 732);
        let hp = HyperParams::micro_default();
        let mut algo = FedProto::new(8, 3, 1.0);
        algo.round(0, &mut fleet, &[0, 1], &net, &hp);
        // ≤ 3 prototypes × 8 floats each way per client, plus headers.
        let per_client = net.stats().total_bytes() / 2;
        assert!(per_client < 2048, "per-client traffic {per_client} B");
    }

    #[test]
    fn unseen_class_keeps_previous_prototype() {
        let (mut fleet, net) = tiny_fleet(2, 733);
        let hp = HyperParams::micro_default();
        let mut algo = FedProto::new(8, 3, 1.0);
        // Seed class 2 with a sentinel prototype, then restrict every
        // client to classes {0, 1} so nobody reports class 2.
        let sentinel = Tensor::full([8], 9.0);
        algo.global_protos[2] = Some(sentinel.clone());
        for c in fleet.clients_mut() {
            let keep: Vec<usize> = (0..c.train_data.len())
                .filter(|&i| c.train_data.labels[i] < 2)
                .collect();
            c.train_data = c.train_data.subset(&keep);
        }
        algo.round(0, &mut fleet, &[0, 1], &net, &hp);
        assert_eq!(algo.prototypes()[2], Some(sentinel));
    }

    #[test]
    fn wrong_shaped_prototype_replies_are_corrupt_replies() {
        use crate::algo::testing::assert_forged_reply_is_a_lost_reply;
        let proto = |dims: &[usize]| Some(Tensor::full(fca_tensor::Shape::new(dims), 1.0));
        let forgeries = [
            ("a class short", vec![proto(&[8]), None]),
            (
                "a class too many",
                vec![proto(&[8]), None, None, proto(&[8])],
            ),
            ("a narrower prototype", vec![proto(&[8]), proto(&[7]), None]),
            (
                "a prototype of another rank",
                vec![None, None, proto(&[1, 8])],
            ),
        ];
        for (what, forged) in forgeries {
            for (k, lost) in [(0, &[][..]), (2, &[][..]), (1, &[0, 2][..])] {
                assert_forged_reply_is_a_lost_reply(
                    &format!("{what}, from client {k}, {} lost", lost.len()),
                    || (tiny_fleet(3, 734).0, FedProto::new(8, 3, 1.0)),
                    k,
                    WireMessage::Prototypes(forged.clone()),
                    lost,
                );
            }
        }
    }

    #[test]
    fn prototypes_of_another_shape_are_a_lost_downlink_not_a_panic() {
        use crate::algo::testing::snapshots;
        use std::time::Duration;
        let hp = HyperParams::micro_default();
        // A class count and a feature width the fleet's models do not have.
        for (feature_dim, num_classes) in [(8, 4), (9, 3)] {
            let (mut fleet, _) = tiny_fleet(2, 735);
            let before = snapshots(&mut fleet);
            let mut algo = FedProto::new(feature_dim, num_classes, 1.0);
            algo.global_protos[0] = Some(Tensor::full([feature_dim], 1.0));
            let protos = algo.global_protos.clone();
            // The clients refuse the broadcast and upload nothing; the
            // collect's safety net is all that ends the round.
            let net = Network::new(2).with_collect_budget(Duration::from_millis(50));
            algo.round(1, &mut fleet, &[0, 1], &net, &hp);
            assert_eq!(net.stats().uplink_bytes(), 0);
            assert_eq!(net.take_round_faults(), (2, 0));
            assert_eq!(algo.prototypes(), &protos[..]);
            let after = snapshots(&mut fleet);
            assert_eq!(after, before, "a client was written to");
        }
    }
}
