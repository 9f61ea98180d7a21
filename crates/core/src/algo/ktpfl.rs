//! KT-pFL (Zhang et al. 2021): parameterized knowledge transfer.
//!
//! Clients train many local epochs, publish soft predictions on a shared
//! public dataset, and the server learns a **knowledge-coefficient matrix**
//! `c` deciding how much each client should learn from every other; clients
//! then distill toward their personalized soft-target mixture.
//!
//! [`KtPflWeight`] is the paper's homogeneous "+weight" variant: the server
//! maintains a personalized global *model* per client, linearly combined
//! through `c`, and ships weights instead of soft predictions.

use super::fedmd::Transfer;
use super::{exactly, exchange, Algorithm, Downlink, Leg, Reply, OTHER_STATE};
use crate::client::Client;
use crate::comm::{Network, WireMessage};
use crate::config::HyperParams;
use crate::fleet::Fleet;
use crate::frame::Frame;
use fca_tensor::ops::softmax_rows;
use fca_tensor::serialize::WireError;
use fca_tensor::Tensor;

/// Soft-prediction KT-pFL server.
pub struct KtPfl {
    transfer: Transfer,
    coeff: Coefficients,
}

/// The knowledge-coefficient matrix and how it is learned.
struct Coefficients {
    /// Row-softmax logits of the matrix.
    theta: Tensor,
    lr: f32,
    steps: usize,
}

/// Client `k`'s personalized target over the round's soft predictions,
/// `t_k = Σ_l c_kl · s_l` normalized by the row mass `Σ_l c_kl`, and that
/// mass.
fn mixture(coeff: &Tensor, k: usize, soft: &[(usize, Tensor)]) -> (Tensor, f32) {
    let mut t = Tensor::zeros(soft[0].1.shape().clone());
    let mut mass = 0.0f32;
    for (l, s_l) in soft {
        let c_kl = coeff.get2(k, *l);
        t.axpy(c_kl, s_l);
        mass += c_kl;
    }
    if mass > 0.0 {
        t.scale(1.0 / mass);
    }
    (t, mass)
}

impl Coefficients {
    /// Gradient passes on the coefficient logits of the round's survivors
    /// — `soft` is their `(id, predictions)`, ids ascending: minimize
    /// `Σ_k KL(t_k ‖ s_k)` with `t_k = Σ_l c_kl · s_l`. Rows and columns of
    /// lost clients are untouched.
    fn update(&mut self, soft: &[(usize, Tensor)]) {
        let n_items = soft[0].1.numel();
        for _ in 0..self.steps {
            let coeff = softmax_rows(&self.theta);
            for (k, s_k) in soft {
                let (t, row_mass) = mixture(&coeff, *k, soft);
                if row_mass <= 0.0 {
                    continue;
                }
                // g_l = Σ_j s_l[j] · (log(t_j / s_k[j]) + 1) / n.
                let g_of = |s_l: &Tensor| {
                    let mut acc = 0.0f32;
                    for j in 0..n_items {
                        let tj = t.at(j).max(1e-12);
                        let sj = s_k.at(j).max(1e-12);
                        acc += s_l.at(j) * ((tj / sj).ln() + 1.0);
                    }
                    acc / n_items as f32
                };
                let g: Vec<f32> = soft.iter().map(|(_, s_l)| g_of(s_l)).collect();
                // Softmax-Jacobian chain onto θ row k (survivor columns).
                let c_k = |l: usize| coeff.get2(*k, l);
                let cdotg: f32 = soft.iter().zip(&g).map(|((l, _), g)| c_k(*l) * g).sum();
                for ((l, _), g) in soft.iter().zip(&g) {
                    let grad = c_k(*l) * (g - cdotg);
                    let cur = self.theta.get2(*k, *l);
                    self.theta.set2(*k, *l, cur - self.lr * grad);
                }
            }
        }
    }

    /// A round's fold: learn from the survivors' predictions, then mix
    /// each survivor its personalized soft targets.
    fn targets(&mut self, replies: Vec<Reply<Tensor>>) -> Vec<(usize, WireMessage)> {
        let soft: Vec<(usize, Tensor)> =
            replies.into_iter().map(|r| (r.client, r.payload)).collect();
        self.update(&soft);
        let coeff = softmax_rows(&self.theta);
        let target = |k: usize| WireMessage::SoftTargets(mixture(&coeff, k, &soft).0);
        soft.iter().map(|(k, _)| (*k, target(*k))).collect()
    }
}

impl KtPfl {
    /// New server over `num_clients` clients sharing `public` data.
    ///
    /// Defaults follow the paper's protocol: 20 local epochs per round,
    /// temperature-2 distillation.
    pub fn new(public: Tensor, num_clients: usize) -> Self {
        let theta = Tensor::zeros([num_clients, num_clients]);
        KtPfl {
            transfer: Transfer::new(public, 20),
            coeff: Coefficients {
                theta,
                lr: 0.5,
                steps: 5,
            },
        }
    }

    /// Override the local-epoch budget (for quick tests).
    pub fn with_local_epochs(mut self, e: usize) -> Self {
        self.transfer.local_epochs = e;
        self
    }

    /// Current knowledge-coefficient matrix (rows softmax-normalized).
    pub fn coefficients(&self) -> Tensor {
        softmax_rows(&self.coeff.theta)
    }
}

impl Algorithm for KtPfl {
    fn name(&self) -> String {
        "KT-pFL".into()
    }

    fn supports_buffered_aggregation(&self) -> bool {
        // Personalized soft predictions are recomputed from the full logit
        // matrix and sent back within the round; a buffered straggler's
        // logits cannot join a later round's matrix, so KT-pFL keeps the
        // sync barrier.
        false
    }

    fn epochs_per_round(&self, _hp: &HyperParams) -> usize {
        self.transfer.local_epochs
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
        // First leg: the public data goes down (the payload Table 5
        // prices), clients train and upload softened predictions; the
        // server learns coefficients and builds personalized targets over
        // the survivors only. With none, coefficients and targets stand.
        let (transfer, coeff) = (&self.transfer, &mut self.coeff);
        let targets = transfer.publish(&mut leg, hp, coeff, &mut Coefficients::targets);
        // Second leg: surviving clients distill toward their targets (lost
        // clients got no target and skip).
        if let Some(targets) = targets {
            transfer.distill(&mut leg, Downlink::Each(targets));
        }
    }

    fn server_state(&self) -> Vec<Option<Vec<&Tensor>>> {
        vec![Some(vec![&self.coeff.theta])]
    }

    fn load_server_state(&mut self, groups: Vec<Option<Vec<Tensor>>>) -> Result<(), WireError> {
        self.coeff.theta = theta_like(&self.coeff.theta, groups)?;
        Ok(())
    }
}

/// The coefficient logits at the head of a checkpoint's `groups` — a group
/// of one tensor, of `own`'s shape — with no group left behind it.
fn theta_like(own: &Tensor, groups: Vec<Option<Vec<Tensor>>>) -> Result<Tensor, WireError> {
    let [Some(theta)] = exactly(groups)? else {
        return Err(OTHER_STATE);
    };
    let [theta] = exactly(theta)?;
    if theta.dims() != own.dims() {
        return Err(WireError::Malformed(
            "checkpoint coefficient shape does not match the fleet",
        ));
    }
    Ok(theta)
}

/// The homogeneous "+weight" KT-pFL variant: personalized global *models*
/// mixed through the coefficient matrix.
pub struct KtPflWeight {
    states: Vec<Option<Vec<Tensor>>>,
    theta: Tensor,
    local_epochs: usize,
    coeff_sharpness: f32,
}

impl KtPflWeight {
    /// New server for `num_clients` homogeneous clients.
    pub fn new(num_clients: usize) -> Self {
        KtPflWeight {
            states: vec![None; num_clients],
            theta: Tensor::zeros([num_clients, num_clients]),
            local_epochs: 1,
            coeff_sharpness: 1.0,
        }
    }

    /// Override the local-epoch budget.
    pub fn with_local_epochs(mut self, e: usize) -> Self {
        self.local_epochs = e;
        self
    }

    /// Refresh θ from pairwise weight distances: clients with similar
    /// weights teach each other more (softmax over `−d²/σ²`, a
    /// similarity-driven stand-in for the parameterized update — see
    /// DESIGN.md substitutions).
    fn refresh_coefficients(&mut self) {
        // Bind each known id to its state up front so the pair loop needs
        // no per-access unwrapping.
        let known: Vec<(usize, &Vec<Tensor>)> = self
            .states
            .iter()
            .enumerate()
            .filter_map(|(k, s)| s.as_ref().map(|s| (k, s)))
            .collect();
        if known.len() < 2 {
            return;
        }
        let mut d2 = vec![vec![0.0f32; known.len()]; known.len()];
        let mut mean = 0.0f32;
        let mut pairs = 0usize;
        for (i, &(_, sa)) in known.iter().enumerate() {
            for (j, &(_, sb)) in known.iter().enumerate().skip(i + 1) {
                let dist: f32 = sa.iter().zip(sb).map(|(x, y)| x.sub(y).sq_norm()).sum();
                d2[i][j] = dist;
                d2[j][i] = dist;
                mean += dist;
                pairs += 1;
            }
        }
        let sigma2 = (mean / pairs.max(1) as f32).max(1e-6);
        for (i, &(a, _)) in known.iter().enumerate() {
            for (j, &(b, _)) in known.iter().enumerate() {
                self.theta
                    .set2(a, b, -self.coeff_sharpness * d2[i][j] / sigma2);
            }
        }
    }

    /// Personalized global state for client `k` (mixture over known
    /// states), or `None` when nothing is known yet.
    fn personalized_state(&self, k: usize) -> Option<Vec<Tensor>> {
        let coeff = softmax_rows(&self.theta);
        let mut acc: Option<Vec<Tensor>> = None;
        let mut mass = 0.0f32;
        for (l, state) in self.states.iter().enumerate() {
            let Some(state) = state else { continue };
            let w = coeff.get2(k, l);
            mass += w;
            match &mut acc {
                None => acc = Some(state.iter().map(|t| t.scaled(w)).collect()),
                Some(a) => {
                    for (ai, ti) in a.iter_mut().zip(state) {
                        ai.axpy(w, ti);
                    }
                }
            }
        }
        let mut acc = acc?;
        if mass > 0.0 {
            for t in &mut acc {
                t.scale(1.0 / mass);
            }
        }
        Some(acc)
    }
}

impl Algorithm for KtPflWeight {
    fn name(&self) -> String {
        "KT-pFL (+weight)".into()
    }

    fn supports_buffered_aggregation(&self) -> bool {
        // Same two-phase exchange as plain KT-pFL.
        false
    }

    fn epochs_per_round(&self, _hp: &HyperParams) -> usize {
        self.local_epochs
    }

    fn round(
        &mut self,
        round: usize,
        fleet: &mut Fleet,
        sampled: &[usize],
        net: &Network,
        hp: &HyperParams,
    ) {
        // Personalized mixtures go down where available (round 0 has
        // nothing to send — clients start from their own weights).
        let mixtures = sampled
            .iter()
            .filter_map(|&k| Some((k, WireMessage::FullModel(self.personalized_state(k)?))))
            .collect();
        let local_epochs = self.local_epochs;
        let turn = |c: &mut Client| {
            if !net.client_online(c.id) {
                return; // offline this round
            }
            // Round 0 legitimately broadcasts nothing, and a mixture the
            // model refuses changes nothing: either way the client starts
            // from its own weights.
            let _ = net.client_recv_full_model_into(c.id, &mut c.model);
            c.local_update_supervised(local_epochs, hp);
            let _ = net.send_full_model(c.id, &mut c.model);
        };
        // The fleet is homogeneous: a usable reply has the shapes of the
        // states the server already holds, or — before it holds any — of
        // the round's first reply. Anything else leaves the client's last
        // known state standing.
        let shapes = |state: &[Tensor]| -> Vec<Vec<usize>> {
            state.iter().map(|t| t.dims().to_vec()).collect()
        };
        let mut known = self.states.iter().flatten().next().map(|s| shapes(s));
        let accept = &mut |_: &Self, _, frame: Frame| match WireMessage::decode(&frame) {
            Ok(WireMessage::FullModel(state)) => {
                let fits = *known.get_or_insert_with(|| shapes(&state)) == shapes(&state);
                fits.then_some(state)
            }
            _ => None,
        };
        let fold = &mut |server: &mut Self, replies: Vec<Reply<Vec<Tensor>>>| {
            for r in replies {
                server.states[r.client] = Some(r.payload);
            }
            server.refresh_coefficients();
        };
        let mut leg = Leg::new(round, fleet, sampled, net);
        let down = Downlink::Each(mixtures);
        exchange(&mut leg, down, turn, Some((self, accept, fold)));
    }

    fn server_state(&self) -> Vec<Option<Vec<&Tensor>>> {
        let states = self.states.iter();
        std::iter::once(Some(vec![&self.theta]))
            .chain(states.map(|s| s.as_ref().map(|s| s.iter().collect())))
            .collect()
    }

    fn load_server_state(&mut self, mut groups: Vec<Option<Vec<Tensor>>>) -> Result<(), WireError> {
        if groups.len() != 1 + self.states.len() {
            return Err(OTHER_STATE);
        }
        let states = groups.split_off(1);
        self.theta = theta_like(&self.theta, groups)?;
        self.states = states;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::test_support::{tiny_fleet, tiny_fleet_homogeneous, tiny_public_data};

    #[test]
    fn coefficients_are_row_stochastic() {
        let public = tiny_public_data(16, 741);
        let algo = KtPfl::new(public, 4);
        let c = algo.coefficients();
        for r in 0..4 {
            let s: f32 = c.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn round_runs_and_counts_public_broadcast() {
        let (mut fleet, net) = tiny_fleet(3, 742);
        let public = tiny_public_data(12, 743);
        let public_bytes = WireMessage::PublicData(public.clone()).encoded_len() as u64;
        let hp = HyperParams::micro_default();
        let mut algo = KtPfl::new(public, 3).with_local_epochs(1);
        algo.round(0, &mut fleet, &[0, 1, 2], &net, &hp);
        // Downlink ≥ 3 public broadcasts (plus small soft targets).
        assert!(net.stats().downlink_bytes() >= 3 * public_bytes);
    }

    #[test]
    fn coefficient_update_shifts_theta() {
        let (mut fleet, net) = tiny_fleet(3, 744);
        let public = tiny_public_data(12, 745);
        let hp = HyperParams::micro_default();
        let mut algo = KtPfl::new(public, 3).with_local_epochs(1);
        let theta0 = algo.coeff.theta.clone();
        algo.round(0, &mut fleet, &[0, 1, 2], &net, &hp);
        assert_ne!(algo.coeff.theta, theta0, "coefficient matrix never updated");
    }

    #[test]
    fn round_tolerates_dropped_clients() {
        use crate::comm::{Fate, FaultPlan, Network};
        let (mut fleet, _) = tiny_fleet(3, 748);
        let public = tiny_public_data(12, 749);
        let hp = HyperParams::micro_default();
        let mut algo = KtPfl::new(public, 3).with_local_epochs(1);
        let plan = FaultPlan::with_dropout(77, 0.5);
        let round = (1..)
            .find(|&r| (0..3).filter(|&c| plan.fate(r, c) == Fate::Dropped).count() == 1)
            .expect("some round drops exactly one client");
        let dropped: usize = (0..3)
            .find(|&c| plan.fate(round, c) == Fate::Dropped)
            .unwrap();
        let mut net = Network::new(3).with_fault_plan(plan);
        net.begin_round(round, &[0, 1, 2]);
        let theta0 = algo.coeff.theta.clone();
        algo.round(round, &mut fleet, &[0, 1, 2], &net, &hp);
        // The dropped client's coefficient row is untouched; survivors'
        // rows moved.
        for col in 0..3 {
            assert_eq!(
                algo.coeff.theta.get2(dropped, col),
                theta0.get2(dropped, col),
                "dropped client's coefficients updated without its data"
            );
        }
        assert_ne!(
            algo.coeff.theta, theta0,
            "survivor coefficients never updated"
        );
        assert_eq!(net.take_round_faults(), (1, 0));
    }

    #[test]
    fn weight_variant_first_round_uses_own_weights() {
        let (mut fleet, net) = tiny_fleet_homogeneous(2, 746);
        let hp = HyperParams::micro_default();
        let mut algo = KtPflWeight::new(2);
        algo.round(0, &mut fleet, &[0, 1], &net, &hp);
        // No broadcast on round 0 (nothing known), but uploads happen.
        assert!(algo.states.iter().all(|s| s.is_some()));
        assert!(net.stats().uplink_bytes() > 0);
        let up_after_r0 = net.stats().downlink_bytes();
        assert_eq!(up_after_r0, 0, "round 0 should not broadcast");
        algo.round(1, &mut fleet, &[0, 1], &net, &hp);
        assert!(
            net.stats().downlink_bytes() > 0,
            "round 1 must broadcast mixtures"
        );
    }

    #[test]
    fn weight_variant_coefficients_row_stochastic_after_refresh() {
        let (mut fleet, net) = tiny_fleet_homogeneous(3, 747);
        let hp = HyperParams::micro_default();
        let mut algo = KtPflWeight::new(3);
        algo.round(0, &mut fleet, &[0, 1, 2], &net, &hp);
        let c = softmax_rows(&algo.theta);
        for r in 0..3 {
            let s: f32 = c.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn wrong_shaped_soft_predictions_are_corrupt_replies() {
        use crate::algo::testing::assert_forged_reply_is_a_lost_reply;
        let setup = || {
            let algo = KtPfl::new(tiny_public_data(12, 761), 3).with_local_epochs(1);
            (tiny_fleet(3, 762).0, algo)
        };
        let forgeries = [
            ("a row short", Tensor::full([11, 3], 0.3)),
            ("transposed", Tensor::full([3, 12], 0.3)),
        ];
        for (what, forged) in forgeries {
            for (k, lost) in [(0, &[][..]), (2, &[][..]), (1, &[0, 2][..])] {
                assert_forged_reply_is_a_lost_reply(
                    &format!("{what}, from client {k}, {} lost", lost.len()),
                    setup,
                    k,
                    WireMessage::SoftPredictions(forged.clone()),
                    lost,
                );
            }
        }
        assert_forged_reply_is_a_lost_reply(
            "a class too many, from the last client",
            setup,
            2,
            WireMessage::SoftPredictions(Tensor::full([12, 4], 0.25)),
            &[],
        );
    }

    #[test]
    fn weight_variant_refuses_a_state_of_another_shape() {
        use crate::algo::testing::assert_forged_reply_is_a_lost_reply;
        let hp = HyperParams::micro_default();
        let fresh = || (tiny_fleet_homogeneous(3, 763).0, KtPflWeight::new(3));
        // One honest round first: the server then knows every client's state.
        let warmed = || {
            let (mut fleet, mut algo) = fresh();
            algo.round(0, &mut fleet, &[0, 1, 2], &Network::new(3), &hp);
            (fleet, algo)
        };
        let good = fresh().0.client_mut(0).model.full_state();
        let mut flat = good.clone();
        flat[0] = Tensor::zeros([good[0].numel()]);
        let forgeries = [
            ("one tensor short", good[..good.len() - 1].to_vec()),
            ("one tensor too many", [&good[..], &good[..1]].concat()),
            ("a flattened weight", flat),
        ];
        for (what, forged) in forgeries {
            let forged = WireMessage::FullModel(forged);
            for (k, lost) in [(0, &[][..]), (2, &[][..]), (1, &[0, 2][..])] {
                let what = format!("{what}, from client {k}, {} lost", lost.len());
                assert_forged_reply_is_a_lost_reply(&what, warmed, k, forged.clone(), lost);
            }
            // Before any state is known the first reply sets the shapes.
            assert_forged_reply_is_a_lost_reply(what, fresh, 2, forged, &[]);
        }
    }
}
