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

use crate::client::Client;
use crate::comm::{Network, WireMessage};
use crate::config::HyperParams;
use crate::fleet::Fleet;
use crate::frame::Frame;
use fca_models::classifier::ClassifierWeights;
use fca_tensor::serialize::WireError;
use fca_tensor::Tensor;
use fca_trace::PhaseId;

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
    /// Implementations say what goes down, what a client does with it,
    /// which replies they can use and how those fold into server state;
    /// `exchange` runs the round from that, and with it the rules every
    /// algorithm shares. Client failure is an outcome, not an error:
    /// offline clients are skipped, the aggregate is over whatever
    /// [`Network::collect_round`] returns and the algorithm accepts
    /// (weights renormalized over those, decayed by staleness for buffered
    /// late arrivals), and server state is untouched when none is usable.
    fn round(
        &mut self,
        round: usize,
        fleet: &mut Fleet,
        sampled: &[usize],
        net: &Network,
        hp: &HyperParams,
    );

    /// The *mutable* server state a checkpoint must carry to resume this
    /// algorithm mid-run (global classifier, prototypes, coefficient
    /// matrix, …), as groups of tensors in an order of the algorithm's
    /// choosing; `None` is a group the run has not filled yet. A stateless
    /// algorithm has no groups — the default. The checkpoint turns groups
    /// into bytes and back; an algorithm never sees the bytes.
    /// Construction-time configuration (temperatures, loss flags, public
    /// data) does not belong here: a resume reconstructs the algorithm the
    /// way the original run did and only the evolving state is carried.
    fn server_state(&self) -> Vec<Option<Vec<&Tensor>>> {
        Vec::new()
    }

    /// Take over state captured by [`Algorithm::server_state`] — of this
    /// algorithm, or of whatever a damaged or foreign checkpoint held:
    /// group count, group lengths and tensor shapes are held against the
    /// algorithm's own, and on `Err` nothing of it has changed.
    fn load_server_state(&mut self, groups: Vec<Option<Vec<Tensor>>>) -> Result<(), WireError> {
        let [] = exactly(groups)?;
        Ok(())
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

/// A checkpoint's server state has another algorithm's (or another
/// configuration's) groups.
pub(crate) const OTHER_STATE: WireError =
    WireError::Malformed("checkpoint server state does not match the algorithm");

/// `items` as exactly `N` of them, or [`OTHER_STATE`].
pub(crate) fn exactly<T, const N: usize>(items: Vec<T>) -> Result<[T; N], WireError> {
    items.try_into().map_err(|_| OTHER_STATE)
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

/// The arguments of [`Algorithm::round`] an exchange runs on.
pub(crate) struct Leg<'a> {
    pub round: usize,
    pub fleet: &'a mut Fleet,
    pub sampled: &'a [usize],
    pub net: &'a Network,
}

impl<'a> Leg<'a> {
    pub fn new(round: usize, fleet: &'a mut Fleet, sampled: &'a [usize], net: &'a Network) -> Self {
        Leg {
            round,
            fleet,
            sampled,
            net,
        }
    }
}

/// What the server sends at the start of an exchange.
pub(crate) enum Downlink {
    /// One message for every sampled client, encoded once.
    All(WireMessage),
    /// One message for every sampled client, already encoded.
    Encoded(Frame),
    /// A message of its own for each of the listed clients — none at all,
    /// for purely local training.
    Each(Vec<(usize, WireMessage)>),
}

/// One reply an algorithm accepted, with its weight `|D_k| · (1 + s)^(-1/2)`:
/// `raw` as it stands, `weight` renormalized to sum to 1 over the round's
/// accepted replies, fresh and late alike (the plain data share
/// `|D_k| / Σ|D_j|` when every staleness is 0).
pub(crate) struct Reply<T> {
    pub client: usize,
    pub raw: f32,
    pub weight: f32,
    pub payload: T,
}

/// The uplink half of an exchange, `(state, accept, fold)`: the server
/// state `S` the replies fold into; `accept(&state, client, frame)`, which
/// decodes or validates the reply's message and answers `Some(payload)` for
/// one of the right variant *and* of shapes the fold can take, judged
/// against the server's own state — a frame it cannot read is refused like
/// any other; and
/// `fold(&mut state, replies)`, which is handed the accepted replies — never
/// none — in `(client, staleness)` order.
pub(crate) type Uplink<'a, S, T, R> = (
    &'a mut S,
    &'a mut dyn FnMut(&S, usize, Frame) -> Option<T>,
    &'a mut dyn FnMut(&mut S, Vec<Reply<T>>) -> R,
);

/// An exchange nobody answers: the second leg of FedMD and KT-pFL, local
/// training.
pub(crate) const NO_UPLINK: Option<Uplink<'static, (), (), ()>> = None;

/// One exchange of Algorithm 1, the only place it is written (DESIGN.md
/// §4): the downlink (a closed endpoint is an offline client), the sampled
/// clients' `turn`s, and — when an uplink is expected — the one collect,
/// `accept`'s verdict on each reply (a refusal is a corrupt reply), the
/// weights over the accepted ones, and the fold, which is not called when
/// none is usable: the server state stands and `None` comes back. The four
/// phase spans are opened and closed here and nowhere else.
///
/// `turn` is a closure over the client, not a message-to-message hook, so
/// that a full model can go from the frame into the model's own tensors
/// and back out of them ([`FedAvg::client_turn`]). A turn checks what it
/// was sent against the client's own shapes before it writes anything: a
/// refused downlink is a lost downlink.
pub(crate) fn exchange<S, T, R>(
    leg: &mut Leg<'_>,
    downlink: Downlink,
    turn: impl Fn(&mut Client) + Sync,
    uplink: Option<Uplink<'_, S, T, R>>,
) -> Option<R> {
    let (sampled, net) = (leg.sampled, leg.net);
    let span = fca_trace::clock();
    match downlink {
        Downlink::All(msg) => {
            let _ = net.broadcast(sampled, &msg);
        }
        Downlink::Encoded(frame) => {
            let _ = net.broadcast_frame(sampled, &frame);
        }
        Downlink::Each(msgs) => {
            for (k, msg) in msgs {
                let _ = net.send_to_client(k, &msg);
            }
        }
    }
    fca_trace::phase(PhaseId::Broadcast, span);

    let span = fca_trace::clock();
    leg.fleet.for_sampled_parallel(sampled, turn);
    fca_trace::phase(PhaseId::LocalTrain, span);
    let (state, accept, fold) = uplink?;

    let span = fca_trace::clock();
    let replies = net.collect_round(leg.round, sampled.len());
    fca_trace::phase(PhaseId::Collect, span);

    let span = fca_trace::clock();
    let arrived = replies.len();
    let mut accepted: Vec<Reply<T>> = Vec::with_capacity(arrived);
    for (client, staleness, frame) in replies {
        if let Some(payload) = accept(state, client, frame) {
            // A meta-record read: it never hydrates a paged-out client.
            let raw = leg.fleet.weight(client) * staleness_decay(staleness);
            accepted.push(Reply {
                client,
                raw,
                weight: raw, // renormalized below, once the total is known
                payload,
            });
        }
    }
    net.count_rejected(arrived - accepted.len());
    let folded = if accepted.is_empty() {
        None
    } else {
        let total: f32 = accepted.iter().map(|r| r.raw).sum();
        assert!(total > 0.0, "contributing clients have zero total weight");
        accepted.iter_mut().for_each(|r| r.weight = r.raw / total);
        Some(fold(state, accepted))
    };
    fca_trace::phase(PhaseId::Aggregate, span);
    folded
}

/// Do two tensor lists agree in length and, tensor by tensor, in shape?
pub(crate) fn same_shapes(a: &[Tensor], b: &[Tensor]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.dims() == y.dims())
}

/// Is `w` a classifier over `features` inputs and `classes` outputs? Asked
/// by the server of every reply and by a client of every downlink.
pub(crate) fn classifier_fits(w: &ClassifierWeights, features: usize, classes: usize) -> bool {
    w.weight.dims() == [classes, features] && w.bias.dims() == [classes]
}

/// Fixtures for the per-algorithm fold tests: a transport that tampers
/// with uplinks in flight, and a one-round driver over it.
#[cfg(test)]
pub(crate) mod testing {
    use super::Algorithm;
    use crate::checkpoint::put_groups;
    use crate::comm::{Network, WireMessage};
    use crate::config::HyperParams;
    use crate::fleet::Fleet;
    use crate::frame::Frame;
    use crate::transport::{ChannelTransport, Transport};
    use fca_tensor::serialize::WireError;
    use std::collections::BTreeMap;
    use std::time::Duration;

    /// What becomes of the uplinks of the listed clients: `Some(forgery)`
    /// goes up in place of what the client sent, and `None` means the
    /// upload is lost.
    pub(crate) type Tampering = BTreeMap<usize, Option<Forgery>>;

    /// Mangles an encoded uplink in its buffer: handed the buffer and
    /// where the message starts in it.
    pub(crate) type Mangle = fn(&mut Vec<u8>, usize);

    /// An uplink in place of a client's own.
    #[derive(Clone)]
    pub(crate) enum Forgery {
        /// Another message — well-formed, so it decodes.
        Message(WireMessage),
        /// The client's own message, mangled once it is encoded.
        Mangled(Mangle),
    }

    impl From<WireMessage> for Forgery {
        fn from(msg: WireMessage) -> Forgery {
            Forgery::Message(msg)
        }
    }

    struct Tamper {
        inner: ChannelTransport,
        uplinks: Tampering,
    }

    impl Transport for Tamper {
        fn num_clients(&self) -> usize {
            self.inner.num_clients()
        }
        fn backend(&self) -> &'static str {
            "tamper"
        }
        fn broadcast_to_clients(&self, clients: &[usize], frame: &Frame) -> Result<u64, WireError> {
            self.inner.broadcast_to_clients(clients, frame)
        }
        fn recv_frame_at_client(
            &self,
            client: usize,
            wait: Duration,
        ) -> Result<Option<Frame>, WireError> {
            self.inner.recv_frame_at_client(client, wait)
        }
        fn send_to_server_with(
            &self,
            client: usize,
            len: usize,
            fill: &mut dyn FnMut(&mut Vec<u8>) -> Result<(), WireError>,
        ) -> Result<u64, WireError> {
            match self.uplinks.get(&client) {
                None => self.inner.send_to_server_with(client, len, fill),
                Some(None) => Ok(0),
                Some(Some(Forgery::Message(forged))) => {
                    self.inner
                        .send_to_server_with(client, forged.encoded_len(), &mut |buf| {
                            forged.encode_into(buf)
                        })
                }
                Some(Some(Forgery::Mangled(mangle))) => {
                    self.inner.send_to_server_with(client, len, &mut |buf| {
                        let start = buf.len();
                        fill(buf)?;
                        mangle(buf, start);
                        Ok(())
                    })
                }
            }
        }
        fn recv_frame_at_server(
            &self,
            wait: Duration,
        ) -> Result<Option<(usize, Frame)>, WireError> {
            self.inner.recv_frame_at_server(wait)
        }
    }

    /// Every client's snapshot blob: model, optimizer and RNG positions.
    pub(crate) fn snapshots(fleet: &mut Fleet) -> Vec<Vec<u8>> {
        fleet.clients_mut().map(|c| c.snapshot_blob()).collect()
    }

    /// What a round left behind: the server's state as a checkpoint would
    /// carry it, every client's snapshot blob, and the round's
    /// `(dropped, corrupt)`.
    #[derive(Debug, PartialEq)]
    pub(crate) struct Outcome {
        pub server: Vec<u8>,
        pub clients: Vec<Vec<u8>>,
        pub faults: (u64, u64),
    }

    /// One round of `algo` over `fleet` (every client sampled) with the
    /// uplinks tampered with as listed. A lost upload is waited for, for
    /// the length of a short collect budget.
    pub(crate) fn tampered_round(
        mut fleet: Fleet,
        mut algo: impl Algorithm,
        uplinks: Tampering,
    ) -> Outcome {
        let all: Vec<usize> = (0..fleet.len()).collect();
        let transport = Tamper {
            inner: ChannelTransport::new(all.len()),
            uplinks,
        };
        let net = Network::over(Box::new(transport)).with_collect_budget(Duration::from_millis(50));
        algo.round(1, &mut fleet, &all, &net, &HyperParams::micro_default());
        Outcome {
            server: put_groups(&algo.server_state()).expect("server state encodes"),
            clients: snapshots(&mut fleet),
            faults: net.take_round_faults(),
        }
    }

    /// Hold a round in which client `k` uploads `forged` — and the clients
    /// in `lost` nothing — to the same round with `k`'s upload lost too:
    /// same server, same clients, one more corrupt reply and one fewer
    /// dropped one, no panic.
    pub(crate) fn assert_forged_reply_is_a_lost_reply<A: Algorithm>(
        what: &str,
        setup: impl Fn() -> (Fleet, A),
        k: usize,
        forged: impl Into<Forgery>,
        lost: &[usize],
    ) {
        let mut uplinks: Tampering = lost.iter().map(|&l| (l, None)).collect();
        uplinks.insert(k, None);
        let (fleet, algo) = setup();
        let without = tampered_round(fleet, algo, uplinks.clone());
        uplinks.insert(k, Some(forged.into()));
        let (fleet, algo) = setup();
        let with = tampered_round(fleet, algo, uplinks);
        assert_eq!(with.server, without.server, "{what}: server state differs");
        assert_eq!(
            with.clients, without.clients,
            "{what}: client state differs"
        );
        assert_eq!(without.faults, (lost.len() as u64 + 1, 0), "{what}");
        assert_eq!(with.faults, (lost.len() as u64, 1), "{what}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{Fate, FaultPlan};
    use crate::config::Aggregation;
    use crate::sim::test_support::tiny_fleet;

    const CLIENTS: usize = 6;
    const LIAR: usize = 4;

    /// `(client, raw weight, weight)` of every reply one fold was handed.
    type Fold = Vec<(usize, f32, f32)>;

    /// The toy protocol: a tensor goes down as `SoftTargets`, every client
    /// that gets it sends it back as `SoftPredictions` — client `LIAR` as
    /// `PublicData` — and the fold records what it was handed.
    fn echo(leg: &mut Leg<'_>, folds: &mut Vec<Fold>) -> Option<usize> {
        let net = leg.net;
        let sent = Tensor::full([2, 2], 0.5);
        let turn = |c: &mut Client| {
            let Some(WireMessage::SoftTargets(t)) = net.client_recv(c.id) else {
                return;
            };
            let reply = if c.id == LIAR {
                WireMessage::PublicData(t)
            } else {
                WireMessage::SoftPredictions(t)
            };
            let _ = net.send_to_server(c.id, &reply);
        };
        let accept = &mut |_: &Vec<Fold>, _, frame: Frame| match WireMessage::decode(&frame) {
            Ok(WireMessage::SoftPredictions(t)) if t == sent => Some(t),
            _ => None,
        };
        let fold = &mut |folds: &mut Vec<Fold>, replies: Vec<Reply<Tensor>>| {
            let seen = replies.iter().map(|r| (r.client, r.raw, r.weight));
            folds.push(seen.collect());
            folds.len()
        };
        let down = Downlink::All(WireMessage::SoftTargets(sent.clone()));
        exchange(leg, down, turn, Some((folds, accept, fold)))
    }

    /// A plan whose round 1 has one client offline, one late and one
    /// corrupt among the honest ones.
    fn one_of_each() -> FaultPlan {
        (0..)
            .map(|seed| FaultPlan::new(seed, 0.2, 0.2, 0.2))
            .find(|plan| {
                let count = |fate| {
                    (0..CLIENTS)
                        .filter(|&k| k != LIAR && plan.fate(1, k) == fate)
                        .count()
                };
                plan.fate(1, LIAR) == Fate::Healthy
                    && [Fate::Dropped, Fate::Straggler, Fate::Corrupt].map(count) == [1, 1, 1]
            })
            .expect("some seed gives round 1 one of each fate")
    }

    #[test]
    fn exchange_contract_on_an_echo_protocol() {
        let plan = one_of_each();
        let all: Vec<usize> = (0..CLIENTS).collect();
        let buffered = Aggregation::Buffered {
            goal_k: 2,
            max_staleness: 3,
        };
        for agg in [Aggregation::Sync, buffered] {
            let (mut fleet, _) = tiny_fleet(CLIENTS, 771);
            let share: Vec<f32> = all.iter().map(|&k| fleet.weight(k)).collect();
            let mut net = Network::new(CLIENTS)
                .with_fault_plan(plan)
                .with_aggregation(agg, 771);
            let mut folds: Vec<Fold> = Vec::new();
            let (mut stale_seen, mut corrupt_seen) = (0, 0);
            for round in 1..=8 {
                net.begin_round(round, &all);
                let before = folds.len();
                let folded = echo(&mut Leg::new(round, &mut fleet, &all, &net), &mut folds);
                // The fold ran at most once, and what it returned came back.
                assert_eq!(folded, (folds.len() > before).then_some(folds.len()));
                let (_, corrupt) = net.take_round_faults();
                corrupt_seen += corrupt;
                let honest = |fate| {
                    all.iter()
                        .filter(|&&k| k != LIAR && plan.fate(round, k) == fate)
                        .count()
                };
                if agg == Aggregation::Sync {
                    // Corrupt in flight, or decoded and not accepted:
                    // both are corrupt replies, and the liar's is one or
                    // the other whenever it arrives.
                    let lied =
                        matches!(plan.fate(round, LIAR), Fate::Healthy | Fate::Corrupt) as usize;
                    assert_eq!(corrupt as usize, honest(Fate::Corrupt) + lied);
                    let fresh: Vec<usize> = all
                        .iter()
                        .copied()
                        .filter(|&k| k != LIAR && plan.fate(round, k) == Fate::Healthy)
                        .collect();
                    let folded: Vec<usize> = folds[before..]
                        .iter()
                        .flat_map(|f| f.iter().map(|r| r.0))
                        .collect();
                    assert_eq!(folded, fresh, "round {round}");
                }
                for fold in &folds[before..] {
                    assert!(!fold.is_empty(), "the fold was handed no reply");
                    let total: f32 = fold.iter().map(|r| r.1).sum();
                    let sum: f32 = fold.iter().map(|r| r.2).sum();
                    assert!((sum - 1.0).abs() < 1e-6, "weights sum to {sum}");
                    for &(k, raw, weight) in fold {
                        assert_ne!(k, LIAR, "a reply of another variant was folded");
                        assert_eq!(weight.to_bits(), (raw / total).to_bits());
                        // |D_k| for a fresh reply, less for a stale one.
                        assert!(raw <= share[k]);
                        stale_seen += (raw < share[k]) as usize;
                    }
                    // (client, staleness) order: ids ascend, and one
                    // client's replies go from fresh to stale.
                    for pair in fold.windows(2) {
                        let ((a, raw_a, _), (b, raw_b, _)) = (pair[0], pair[1]);
                        assert!(a < b || (a == b && raw_a > raw_b), "order {fold:?}");
                    }
                }
            }
            assert!(corrupt_seen > 0);
            match agg {
                Aggregation::Sync => assert_eq!(stale_seen, 0),
                _ => assert!(stale_seen > 0, "no stale reply was ever folded"),
            }
        }
    }

    #[test]
    fn with_no_usable_reply_the_fold_is_not_called() {
        let all: Vec<usize> = (0..CLIENTS).collect();
        let (mut fleet, _) = tiny_fleet(CLIENTS, 772);
        // Everyone offline: nothing arrives.
        let mut net = Network::new(CLIENTS).with_fault_plan(FaultPlan::with_dropout(1, 1.0));
        net.begin_round(1, &all);
        let mut folds = Vec::new();
        assert_eq!(
            echo(&mut Leg::new(1, &mut fleet, &all, &net), &mut folds),
            None
        );
        assert_eq!(net.take_round_faults(), (CLIENTS as u64, 0));
        // Only the liar sampled: a reply arrives, and none is usable.
        let net = Network::new(CLIENTS);
        assert_eq!(
            echo(&mut Leg::new(1, &mut fleet, &[LIAR], &net), &mut folds),
            None
        );
        assert_eq!(net.take_round_faults(), (0, 1));
        assert!(folds.is_empty());
    }
}
