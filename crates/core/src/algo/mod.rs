//! The federated algorithms: the paper's FedClassAvg plus the four
//! baselines it is compared against. Every algorithm implements
//! [`Algorithm`] and is driven by the same synchronous-round engine in
//! [`crate::sim`], exchanging serialized messages through
//! [`crate::comm::Network`].

pub mod fedavg;
pub mod fedclassavg;
pub mod fedmd;
pub mod fedproto;
pub mod ktpfl;
pub mod local;

pub use fedavg::{FedAvg, FedProx};
pub use fedclassavg::FedClassAvg;
pub use fedmd::FedMd;
pub use fedproto::FedProto;
pub use ktpfl::{KtPfl, KtPflWeight};
pub use local::LocalOnly;

use crate::comm::{Collected, Network, WireMessage};
use crate::config::HyperParams;
use crate::fleet::Fleet;
use fca_tensor::serialize::WireError;
use fca_tensor::Tensor;

/// A federated-learning algorithm: server state + one synchronous round.
pub trait Algorithm: Send {
    /// Display name used in reports.
    fn name(&self) -> String;

    /// Local epochs a client spends per round — the paper plots accuracy
    /// against cumulative local epochs for fairness (KT-pFL trains 20
    /// epochs per round, the others 1).
    fn epochs_per_round(&self, hp: &HyperParams) -> usize {
        hp.local_epochs
    }

    /// Run one communication round over the sampled clients.
    ///
    /// Implementations broadcast through `net`, train sampled clients in
    /// parallel, collect uplink messages, and update server state.
    ///
    /// Client failure is an outcome, not an error: implementations must
    /// skip clients the network reports offline, aggregate over whatever
    /// [`Network::collect_round`] returns (renormalizing weights over the
    /// survivors, decayed by staleness for buffered late arrivals), and
    /// leave server state untouched when zero replies arrive.
    fn round(
        &mut self,
        round: usize,
        fleet: &mut Fleet,
        sampled: &[usize],
        net: &Network,
        hp: &HyperParams,
    );

    /// Serialize the *mutable* server state a checkpoint must carry to
    /// resume this algorithm mid-run (global classifier, prototypes,
    /// coefficient matrix, …). `Ok(None)` marks a stateless algorithm —
    /// the default. Construction-time configuration (temperatures, loss
    /// flags, public data) does not belong here: a resume reconstructs
    /// the algorithm the same way the original run did and only the
    /// evolving state rides in the blob.
    fn checkpoint_state(&self) -> Result<Option<Vec<u8>>, WireError> {
        Ok(None)
    }

    /// Restore state captured by [`Algorithm::checkpoint_state`]. Called
    /// only when the checkpoint carries a blob, so the stateless default
    /// rejects any blob as an algorithm mismatch.
    fn restore_checkpoint_state(&mut self, _blob: &[u8]) -> Result<(), WireError> {
        Err(WireError::Malformed(
            "algorithm carries no checkpoint state",
        ))
    }

    /// Whether this algorithm's round can run under buffered asynchronous
    /// aggregation ([`crate::config::Aggregation::Buffered`]). True for
    /// single-uplink algorithms, whose one reply per client folds cleanly
    /// into a later round; multi-phase protocols (FedMD, KT-pFL) exchange
    /// several coupled messages per round and must keep the synchronous
    /// barrier, so they override this to `false` and the engine rejects
    /// the combination up front.
    fn supports_buffered_aggregation(&self) -> bool {
        true
    }
}

/// Exponent of the polynomial staleness decay `(1 + s)^(-α)` applied to
/// buffered late arrivals (FedBuff's recommended α = 1/2).
pub(crate) const STALENESS_DECAY_ALPHA: f32 = 0.5;

/// The staleness decay factor for an update that aged `staleness` rounds
/// in the buffer: `(1 + s)^(-1/2)`, so a fresh update (s = 0) keeps full
/// weight and older ones shrink polynomially.
pub(crate) fn staleness_decay(staleness: usize) -> f32 {
    (1.0 + staleness as f32).powf(-STALENESS_DECAY_ALPHA)
}

/// Staleness-aware aggregation weights over a round's contributors:
/// `|D_k| · (1 + s_k)^(-1/2)`, renormalized to sum to 1 over everyone who
/// actually contributed (fresh survivors *and* buffered late arrivals) —
/// the plain data-share weights `|D_k| / Σ|D_j|` fall out when every
/// staleness is 0. Reads only the fleet's always-resident meta records,
/// so it never hydrates a paged-out client.
pub(crate) fn contribution_weights(fleet: &Fleet, contributors: &[(usize, usize)]) -> Vec<f32> {
    let raw: Vec<f32> = contributors
        .iter()
        .map(|&(k, s)| fleet.weight(k) * staleness_decay(s))
        .collect();
    let total: f32 = raw.iter().sum();
    assert!(total > 0.0, "contributing clients have zero total weight");
    raw.into_iter().map(|w| w / total).collect()
}

/// The [`contribution_weights`]-weighted average of a collection's
/// `FullModel` replies, folded into the first reply's own tensors: it is
/// scaled where it lies and the others are added onto it. Wrong-variant
/// replies count as corrupt and are skipped, the weights renormalizing
/// over the rest; `None` when no reply is usable.
pub(crate) fn average_full_models(fleet: &Fleet, collected: Collected) -> Option<Vec<Tensor>> {
    let states: Vec<(usize, usize, Vec<Tensor>)> = collected
        .replies
        .into_iter()
        .zip(collected.staleness)
        .filter_map(|((k, msg), s)| match msg {
            WireMessage::FullModel(state) => Some((k, s, state)),
            _ => None,
        })
        .collect();
    if states.is_empty() {
        return None;
    }
    let contributors: Vec<(usize, usize)> = states.iter().map(|&(k, s, _)| (k, s)).collect();
    let weights = contribution_weights(fleet, &contributors);
    let mut weighted = states.into_iter().map(|(_, _, state)| state).zip(weights);
    let (mut acc, w) = weighted.next()?;
    acc.iter_mut().for_each(|t| t.scale(w));
    for (state, w) in weighted {
        for (ai, ti) in acc.iter_mut().zip(&state) {
            ai.axpy(w, ti);
        }
    }
    Some(acc)
}
