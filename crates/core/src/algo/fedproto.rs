//! FedProto (Tan et al. 2021): clients exchange per-class feature
//! prototypes instead of weights; local training adds a regularizer
//! pulling features toward the global prototypes.

use super::{staleness_decay, Algorithm};
use crate::checkpoint::{expect_empty, put_opt_tensor, take_opt_tensor};
use crate::comm::{Network, WireMessage};
use crate::config::HyperParams;
use crate::fleet::Fleet;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use fca_tensor::serialize::WireError;
use fca_tensor::Tensor;
use fca_trace::PhaseId;

/// FedProto server: per-class weighted prototype averaging.
pub struct FedProto {
    num_classes: usize,
    feature_dim: usize,
    lambda: f32,
    global_protos: Vec<Option<Tensor>>,
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
        let span = fca_trace::clock();
        // A closed endpoint is an offline client; the count-driven
        // collect already tolerates the missing reply.
        let _ = net.broadcast(
            sampled,
            &WireMessage::Prototypes(self.global_protos.clone()),
        );
        fca_trace::phase(PhaseId::Broadcast, span);
        let lambda = self.lambda;
        let span = fca_trace::clock();
        fleet.for_sampled_parallel(sampled, |c| {
            let Some(WireMessage::Prototypes(protos)) = net.client_recv(c.id) else {
                return; // offline this round
            };
            c.local_update_fedproto(&protos, lambda, hp);
            let local = c.compute_prototypes();
            let _ = net.send_to_server(c.id, &WireMessage::Prototypes(local));
        });
        fca_trace::phase(PhaseId::LocalTrain, span);

        // Aggregate per class over the survivors, weighting each
        // contribution by the client's data share decayed by staleness for
        // buffered late arrivals (clients lacking a class contribute
        // nothing to it). The per-class mass already renormalizes over
        // whoever reported, so lost uplinks shrink no prototype; zero
        // survivors keep every previous prototype.
        let span = fca_trace::clock();
        let collected = net.collect_round(round, sampled.len());
        fca_trace::phase(PhaseId::Collect, span);
        if collected.replies.is_empty() {
            return;
        }
        let span = fca_trace::clock();
        let mut sums: Vec<Tensor> = vec![Tensor::zeros([self.feature_dim]); self.num_classes];
        let mut mass = vec![0.0f32; self.num_classes];
        // A reply with the wrong variant, the wrong class count, or a
        // mis-sized prototype is treated like a corrupt payload: its
        // contribution is skipped rather than crashing the server.
        for ((k, msg), &s) in collected.replies.iter().zip(&collected.staleness) {
            let WireMessage::Prototypes(protos) = msg else {
                continue;
            };
            if protos.len() != self.num_classes {
                continue;
            }
            let w = fleet.weight(*k) * staleness_decay(s);
            for (c, p) in protos.iter().enumerate() {
                if let Some(p) = p {
                    if p.numel() != self.feature_dim {
                        continue;
                    }
                    sums[c].axpy(w, p);
                    mass[c] += w;
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
        fca_trace::phase(PhaseId::Aggregate, span);
    }

    fn checkpoint_state(&self) -> Result<Option<Vec<u8>>, WireError> {
        let mut buf = BytesMut::new();
        buf.put_u32_le(
            u32::try_from(self.global_protos.len())
                .map_err(|_| WireError::Unencodable("prototype count exceeds u32"))?,
        );
        for p in &self.global_protos {
            put_opt_tensor(&mut buf, p.as_ref())?;
        }
        Ok(Some(buf.freeze().to_vec()))
    }

    fn restore_checkpoint_state(&mut self, blob: &[u8]) -> Result<(), WireError> {
        let mut buf = Bytes::copy_from_slice(blob);
        if buf.remaining() < 4 {
            return Err(WireError::Truncated);
        }
        let count = buf.get_u32_le() as usize;
        if count != self.num_classes {
            return Err(WireError::Malformed(
                "checkpoint class count does not match the configuration",
            ));
        }
        let mut protos = Vec::with_capacity(count);
        for _ in 0..count {
            let p = take_opt_tensor(&mut buf)?;
            if let Some(p) = &p {
                if p.numel() != self.feature_dim {
                    return Err(WireError::Malformed(
                        "checkpoint prototype size does not match the configuration",
                    ));
                }
            }
            protos.push(p);
        }
        expect_empty(&buf)?;
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
}
