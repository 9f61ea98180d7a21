//! The paper's baseline: purely local training, no communication.

use super::{exchange, Algorithm, Downlink, Leg, NO_UPLINK};
use crate::client::Client;
use crate::comm::Network;
use crate::config::HyperParams;
use crate::fleet::Fleet;

/// Local-only training — the "Baseline (local training)" rows of Tables
/// 2–3. Each round every sampled client trains `local_epochs` on its own
/// shard; nothing crosses the wire.
#[derive(Default)]
pub struct LocalOnly;

impl LocalOnly {
    /// New baseline runner.
    pub fn new() -> Self {
        LocalOnly
    }
}

impl Algorithm for LocalOnly {
    fn name(&self) -> String {
        "Baseline (local training)".into()
    }

    fn round(
        &mut self,
        round: usize,
        fleet: &mut Fleet,
        sampled: &[usize],
        net: &Network,
        hp: &HyperParams,
    ) {
        let turn = |c: &mut Client| {
            c.local_update_supervised(hp.local_epochs, hp);
        };
        let mut leg = Leg::new(round, fleet, sampled, net);
        exchange(&mut leg, Downlink::Each(Vec::new()), turn, NO_UPLINK);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::test_support::tiny_fleet;

    #[test]
    fn local_only_sends_no_bytes() {
        let (mut fleet, net) = tiny_fleet(3, 701);
        let hp = HyperParams::micro_default();
        let mut algo = LocalOnly::new();
        algo.round(0, &mut fleet, &[0, 1, 2], &net, &hp);
        assert_eq!(net.stats().total_bytes(), 0);
    }

    #[test]
    fn only_sampled_clients_train() {
        let (mut fleet, net) = tiny_fleet(2, 702);
        let hp = HyperParams::micro_default().with_lr(0.05);
        let before: Vec<f32> = fleet
            .clients_mut()
            .map(|c| c.model.params_mut()[0].value.sum())
            .collect();
        let mut algo = LocalOnly::new();
        algo.round(0, &mut fleet, &[0], &net, &hp);
        let after: Vec<f32> = fleet
            .clients_mut()
            .map(|c| c.model.params_mut()[0].value.sum())
            .collect();
        assert_ne!(before[0], after[0], "sampled client 0 did not train");
        assert_eq!(before[1], after[1], "unsampled client 1 changed");
    }
}
