//! The communication substrate.
//!
//! The paper runs 20 clients over MPI; here each client is a rayon task
//! and the server exchanges **serialized** messages with it over a
//! pluggable [`Transport`] (in-process channels by default, real sockets
//! on request — see [`crate::transport`]). Serialization is not
//! decorative: every payload is encoded to its wire form and the
//! [`Network`] tallies real uplink/downlink bytes, which is how the
//! Table 5 communication-cost comparison is measured.
//!
//! Unlike the paper's MPI setup, the simulated network does not assume
//! every sampled client answers: a seeded [`FaultPlan`] can drop clients,
//! delay their uplinks past the round deadline, or corrupt payloads in
//! flight, and [`Network::collect_round`] returns whatever actually
//! arrived instead of blocking on the missing replies. Faults
//! are injected *above* the transport — a dropped frame is never handed
//! to it — so the same seed produces the same round on every backend.
//!
//! A frame is built once, where it is written from, in a recycled buffer
//! ([`crate::frame`]). A downlink with many recipients is one
//! [`Network::broadcast`]: encoded once, tallied and fated per client, and
//! handed to the transport as one shared [`Frame`]. An uplink is encoded
//! by the transport's own writer ([`Transport::send_to_server_with`]) — on
//! a socket, into the connection's write buffer. And a full model never
//! exists as a `Vec<Tensor>` on either side of the wire:
//! [`Network::client_recv_full_model_into`] checks a frame whole against
//! the model's own shapes and then reads it into the tensors where they
//! live, [`Network::send_full_model`] encodes from them, and
//! [`Network::collect_round`] hands the server frames, which a full-model
//! fold reads in place ([`WireMessage::full_model_payloads`]).
//!
//! [`CommStats`] keeps two tallies. The *logical* one is Table 5's: every
//! message a sender paid for, at its encoded size, per client — whatever
//! became of it. The *physical* one is what the transport's writes were
//! handed, framing included: a broadcast over one socket counts once, a
//! dropped or straggling message not at all.

// C1: a length, count or id narrowed by `as` wraps silently; use `try_from`.
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use crate::config::Aggregation;
use crate::frame::Frame;
use crate::transport::{ChannelTransport, Transport};
use bytes::{BufMut, Bytes, BytesMut};
use fca_models::classifier::ClassifierWeights;
use fca_models::ClientModel;
use fca_tensor::rng::derived_rng;
use fca_tensor::serialize::{
    encode_tensor, encode_tensor_f16, encoded_len, encoded_len_f16, Reader, WireError,
};
use fca_tensor::Tensor;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{LazyLock, Mutex};
use std::time::{Duration, Instant};

/// A message crossing the simulated network.
#[derive(Clone, Debug, PartialEq)]
pub enum WireMessage {
    /// Classifier weights (FedClassAvg's per-round payload).
    Classifier(ClassifierWeights),
    /// A full model state dict (FedAvg/FedProx/`+weight` variants).
    FullModel(Vec<Tensor>),
    /// Per-class feature prototypes; classes a client never saw are `None`
    /// (encoded as empty tensors).
    Prototypes(Vec<Option<Tensor>>),
    /// Soft predictions on the public set (KT-pFL uplink).
    SoftPredictions(Tensor),
    /// Personalized soft targets (KT-pFL downlink).
    SoftTargets(Tensor),
    /// The public dataset broadcast (KT-pFL setup; paper Table 5 prices
    /// KT-pFL's round cost by this payload).
    PublicData(Tensor),
    /// Classifier weights in IEEE binary16 — the half-precision
    /// communication extension (halves FedClassAvg's already-small
    /// payload; accuracy impact measured by `ext_quantized_comm`).
    ClassifierF16(ClassifierWeights),
}

/// Message-type tags on the wire.
const TAG_CLASSIFIER: u8 = 1;
const TAG_FULL_MODEL: u8 = 2;
const TAG_PROTOTYPES: u8 = 3;
const TAG_SOFT_PRED: u8 = 4;
const TAG_SOFT_TARGET: u8 = 5;
const TAG_PUBLIC_DATA: u8 = 6;
const TAG_CLASSIFIER_F16: u8 = 7;

/// `u8 tag | u32 tensor count`, in front of every message's tensors.
const MESSAGE_HEADER_LEN: usize = 1 + 4;

impl WireMessage {
    /// Encode to the wire format: `tag | u32 count | tensors…`.
    ///
    /// # Errors
    ///
    /// [`WireError::Unencodable`] when a tensor's rank or a dimension
    /// extent does not fit the wire header (the old encoder silently
    /// truncated them via `as` casts, corrupting the frame), or when a
    /// message carries more than `u32::MAX` tensors.
    pub fn encode(&self) -> Result<Bytes, WireError> {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        self.encode_into(&mut buf)?;
        Ok(buf.freeze())
    }

    /// What the codec needs of a variant: its tag, whether its tensors
    /// travel in binary16, and the tensors in wire order (an empty tensor
    /// stands in for a prototype no client saw).
    fn parts(&self) -> (u8, bool, Vec<&Tensor>) {
        static EMPTY: LazyLock<Tensor> = LazyLock::new(|| Tensor::zeros([0]));
        fn pair(w: &ClassifierWeights) -> Vec<&Tensor> {
            vec![&w.weight, &w.bias]
        }
        match self {
            WireMessage::Classifier(w) => (TAG_CLASSIFIER, false, pair(w)),
            WireMessage::ClassifierF16(w) => (TAG_CLASSIFIER_F16, true, pair(w)),
            WireMessage::FullModel(state) => (TAG_FULL_MODEL, false, state.iter().collect()),
            WireMessage::Prototypes(protos) => {
                let filled = protos.iter().map(|p| p.as_ref().unwrap_or(&EMPTY));
                (TAG_PROTOTYPES, false, filled.collect())
            }
            WireMessage::SoftPredictions(t) => (TAG_SOFT_PRED, false, vec![t]),
            WireMessage::SoftTargets(t) => (TAG_SOFT_TARGET, false, vec![t]),
            WireMessage::PublicData(t) => (TAG_PUBLIC_DATA, false, vec![t]),
        }
    }

    /// [`WireMessage::encode`], appended to a buffer the caller owns.
    pub fn encode_into<B: BufMut>(&self, buf: &mut B) -> Result<(), WireError> {
        let (tag, half, tensors) = self.parts();
        buf.put_u8(tag);
        buf.put_u32_le(checked_count(tensors.len())?);
        tensors.into_iter().try_for_each(|t| {
            if half {
                encode_tensor_f16(t, buf)
            } else {
                encode_tensor(t, buf)
            }
        })
    }

    /// Exact encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        let (_, half, tensors) = self.parts();
        let len = if half { encoded_len_f16 } else { encoded_len };
        MESSAGE_HEADER_LEN + tensors.into_iter().map(len).sum::<usize>()
    }

    /// Decode from the wire. `buf` must hold exactly one message.
    ///
    /// Framing errors are reported precisely: an unrecognized tag byte is
    /// [`WireError::UnknownTag`] (checked before any tensor is decoded),
    /// a tensor count that contradicts the tagged type is
    /// [`WireError::CountMismatch`], and bytes left over after a complete
    /// message are [`WireError::TrailingBytes`] — on a framed stream a
    /// disagreement between frame and message boundaries means the stream
    /// is desynchronized or the peer is smuggling data.
    pub fn decode(buf: impl AsRef<[u8]>) -> Result<WireMessage, WireError> {
        let mut r = Reader::new(buf.as_ref());
        let (tag, got) = Self::open(&mut r)?;
        let msg = match tag {
            TAG_CLASSIFIER => {
                let (weight, bias) = (r.tensor()?, r.tensor()?);
                WireMessage::Classifier(ClassifierWeights { weight, bias })
            }
            TAG_CLASSIFIER_F16 => {
                let (weight, bias) = (r.tensor_f16()?, r.tensor_f16()?);
                WireMessage::ClassifierF16(ClassifierWeights { weight, bias })
            }
            TAG_FULL_MODEL => {
                WireMessage::FullModel((0..got).map(|_| r.tensor()).collect::<Result<_, _>>()?)
            }
            TAG_PROTOTYPES => {
                let seen = |t: Tensor| Some(t).filter(|t| t.numel() != 0);
                let protos = (0..got).map(|_| r.tensor().map(seen));
                WireMessage::Prototypes(protos.collect::<Result<_, _>>()?)
            }
            TAG_SOFT_PRED => WireMessage::SoftPredictions(r.tensor()?),
            TAG_SOFT_TARGET => WireMessage::SoftTargets(r.tensor()?),
            TAG_PUBLIC_DATA => WireMessage::PublicData(r.tensor()?),
            other => return Err(WireError::UnknownTag(other)),
        };
        r.finish()?;
        Ok(msg)
    }

    /// Every check [`WireMessage::decode`] makes and none of its copies:
    /// a frame passes exactly when it decodes. The collect holds each
    /// uplink to this, so a frame it hands on is a message.
    pub fn check(frame: &[u8]) -> Result<(), WireError> {
        let mut r = Reader::new(frame);
        let (tag, got) = Self::open(&mut r)?;
        (0..got).try_for_each(|_| r.skip_tensor(tag == TAG_CLASSIFIER_F16))?;
        r.finish()
    }

    /// Read a message's header: its tag and tensor count, the count held
    /// against the tag's. An unrecognized tag is
    /// [`WireError::UnknownTag`], checked before any tensor is read.
    fn open(r: &mut Reader) -> Result<(u8, usize), WireError> {
        let tag = r.u8()?;
        // A tensor is at least its rank byte.
        let got = r.count(1)?;
        let expected = match tag {
            TAG_CLASSIFIER | TAG_CLASSIFIER_F16 => 2,
            TAG_SOFT_PRED | TAG_SOFT_TARGET | TAG_PUBLIC_DATA => 1,
            TAG_FULL_MODEL | TAG_PROTOTYPES => got,
            other => return Err(WireError::UnknownTag(other)),
        };
        if got != expected {
            return Err(WireError::CountMismatch { expected, got });
        }
        Ok((tag, got))
    }
}

/// A tensor count for the message header; counts beyond `u32` cannot be
/// framed.
fn checked_count(n: usize) -> Result<u32, WireError> {
    u32::try_from(n).map_err(|_| WireError::Unencodable("tensor count exceeds u32"))
}

/// The `FullModel` message of a model's state, between the wire and the
/// tensors themselves: the same bytes as
/// `WireMessage::FullModel(model.full_state())`, with no `Vec<Tensor>`
/// in between.
impl WireMessage {
    /// Append `model`'s state as a `FullModel` message, each tensor
    /// encoded from where it lives.
    pub fn encode_full_model<B: BufMut>(
        model: &mut ClientModel,
        buf: &mut B,
    ) -> Result<(), WireError> {
        buf.put_u8(TAG_FULL_MODEL);
        buf.put_u32_le(checked_count(model.state_extent().0)?);
        model.try_for_each_state(|t| encode_tensor(t, buf))
    }

    /// Read a `FullModel` message into `model`'s own tensors. The frame is
    /// walked whole first — tag, tensor count, every tensor header against
    /// the shape of the tensor it would fill, the total length, trailing
    /// bytes — so a frame for another architecture, a short one or a long
    /// one is an `Err` that leaves every bit of `model` as it was.
    pub fn decode_full_model_into(frame: &[u8], model: &mut ClientModel) -> Result<(), WireError> {
        let mut body = Reader::new(frame);
        if body.u8()? != TAG_FULL_MODEL {
            return Err(WireError::Malformed("expected a full-model message"));
        }
        let got = body.count(1)?;
        let mut walk = body;
        let mut expected = 0usize;
        model.try_for_each_state(|t| {
            expected += 1;
            walk.skip_tensor_like(t)
        })?;
        if got != expected {
            return Err(WireError::CountMismatch { expected, got });
        }
        walk.finish()?;
        model.try_for_each_state(|t| body.tensor_into(t))
    }

    /// The encoded size of `state` as a `FullModel` message.
    pub fn full_state_len(state: &[Tensor]) -> usize {
        MESSAGE_HEADER_LEN + state.iter().map(encoded_len).sum::<usize>()
    }

    /// Append `state` as a `FullModel` message: the bytes of
    /// `WireMessage::FullModel(state.to_vec())`, with no copy of the state.
    pub fn encode_full_state(state: &[Tensor], buf: &mut Vec<u8>) -> Result<(), WireError> {
        buf.put_u8(TAG_FULL_MODEL);
        buf.put_u32_le(checked_count(state.len())?);
        state.iter().try_for_each(|t| encode_tensor(t, buf))
    }

    /// Where the values of each of `like`'s tensors lie in `frame`, a
    /// `FullModel` message of exactly `like`'s shapes: byte ranges of
    /// little-endian `f32`s, in order. Every check
    /// [`WireMessage::decode_full_model_into`] makes, none of its writes.
    pub fn full_model_payloads(
        frame: &[u8],
        like: &[Tensor],
    ) -> Result<Vec<Range<usize>>, WireError> {
        let mut r = Reader::new(frame);
        if r.u8()? != TAG_FULL_MODEL {
            return Err(WireError::Malformed("expected a full-model message"));
        }
        let got = r.count(1)?;
        if got != like.len() {
            return Err(WireError::CountMismatch {
                expected: like.len(),
                got,
            });
        }
        let ranges = like
            .iter()
            .map(|t| {
                let values = r.payload_like(t)?;
                let end = frame.len() - r.remaining();
                Ok(end - values.len()..end)
            })
            .collect::<Result<_, WireError>>()?;
        r.finish()?;
        Ok(ranges)
    }
}

// --------------------------------------------------------------------
// Fault injection.
//
// The paper's MPI deployment assumes every sampled client answers every
// round; real federations lose clients to crashes, network partitions and
// stragglers. The [`FaultPlan`] makes those failures a *deterministic,
// seeded* property of the simulation: each (round, client) pair is
// assigned a [`Fate`] from an independent RNG stream, so a faulty run is
// exactly as reproducible as a healthy one.
// --------------------------------------------------------------------

/// What happens to one sampled client in one round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fate {
    /// Participates normally.
    Healthy,
    /// Offline for the whole round: never receives the broadcast, never
    /// trains, never uploads.
    Dropped,
    /// Receives the broadcast and trains, but the uplink misses the
    /// collection deadline — the server observes a drop.
    Straggler,
    /// Uplink arrives, but corrupted in flight; the server's decode fails
    /// and the reply is discarded.
    Corrupt,
}

/// A deterministic, seeded per-round fault schedule.
///
/// Rates are independent per (round, client): with probability `dropout`
/// the client is [`Fate::Dropped`], else with `straggler` it is
/// [`Fate::Straggler`], else with `corruption` its uplink is
/// [`Fate::Corrupt`]. The three rates must sum to at most 1.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault RNG stream (independent of the training seed).
    pub seed: u64,
    /// Probability a sampled client is offline for the round.
    pub dropout: f32,
    /// Probability a sampled client's uplink misses the deadline.
    pub straggler: f32,
    /// Probability a sampled client's uplink is corrupted in flight.
    pub corruption: f32,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// No faults: every client is healthy every round.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            dropout: 0.0,
            straggler: 0.0,
            corruption: 0.0,
        }
    }

    /// Dropout-only plan.
    pub fn with_dropout(seed: u64, dropout: f32) -> Self {
        FaultPlan {
            seed,
            dropout,
            straggler: 0.0,
            corruption: 0.0,
        }
    }

    /// Fully specified plan.
    pub fn new(seed: u64, dropout: f32, straggler: f32, corruption: f32) -> Self {
        let plan = FaultPlan {
            seed,
            dropout,
            straggler,
            corruption,
        };
        plan.validate();
        plan
    }

    /// True when no fault can ever fire.
    pub fn is_none(&self) -> bool {
        self.dropout == 0.0 && self.straggler == 0.0 && self.corruption == 0.0
    }

    /// Panic unless every rate is a probability and the rates are jointly
    /// feasible (a client has exactly one fate per round).
    pub fn validate(&self) {
        for (name, p) in [
            ("dropout", self.dropout),
            ("straggler", self.straggler),
            ("corruption", self.corruption),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "fault rate {name} = {p} outside [0, 1]"
            );
        }
        let total = self.dropout + self.straggler + self.corruption;
        assert!(
            total <= 1.0 + 1e-6,
            "fault rates sum to {total} > 1; a client has one fate per round"
        );
    }

    /// The deterministic fate of `client` in `round`.
    ///
    /// Each (round, client) pair gets its own derived RNG stream, so fates
    /// are independent of sampling order, thread timing, and each other.
    pub fn fate(&self, round: usize, client: usize) -> Fate {
        if self.is_none() {
            return Fate::Healthy;
        }
        let tag = 0xFA17_0000_0000_0000_u64
            ^ (round as u64).wrapping_mul(0x0000_0001_0000_0001)
            ^ (client as u64);
        let u = derived_rng(self.seed, tag).unit_f32();
        if u < self.dropout {
            Fate::Dropped
        } else if u < self.dropout + self.straggler {
            Fate::Straggler
        } else if u < self.dropout + self.straggler + self.corruption {
            Fate::Corrupt
        } else {
            Fate::Healthy
        }
    }
}

/// Cumulative traffic statistics: the logical tally of what senders paid
/// for (Table 5's unit) and the physical tally of what the transport's
/// writes were handed — see the module docs.
#[derive(Debug, Default)]
pub struct CommStats {
    downlink: AtomicU64,
    uplink: AtomicU64,
    messages: AtomicU64,
    downlink_physical: AtomicU64,
    uplink_physical: AtomicU64,
}

impl CommStats {
    /// Total server→client bytes, per recipient (logical).
    pub fn downlink_bytes(&self) -> u64 {
        self.downlink.load(Ordering::Relaxed)
    }

    /// Total client→server bytes (logical).
    pub fn uplink_bytes(&self) -> u64 {
        self.uplink.load(Ordering::Relaxed)
    }

    /// Server→client bytes handed to transport writes, framing included:
    /// one copy of a broadcast per socket connection, none for an offline
    /// recipient.
    pub fn downlink_physical_bytes(&self) -> u64 {
        self.downlink_physical.load(Ordering::Relaxed)
    }

    /// Client→server bytes handed to transport writes, framing included:
    /// nothing for an uplink that was dropped, or late and buffered.
    pub fn uplink_physical_bytes(&self) -> u64 {
        self.uplink_physical.load(Ordering::Relaxed)
    }

    /// Total messages in both directions.
    pub fn messages(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// Total traffic.
    pub fn total_bytes(&self) -> u64 {
        self.downlink_bytes() + self.uplink_bytes()
    }
}

/// The simulated network: a pluggable [`Transport`] underneath, with byte
/// accounting on every transmission and an optional [`FaultPlan`] that
/// drops, delays, or corrupts traffic deterministically — always *above*
/// the transport, so every backend replays a seed identically.
pub struct Network {
    transport: Box<dyn Transport>,
    stats: CommStats,
    plan: FaultPlan,
    /// Per-client fates for the round opened by [`Network::begin_round`];
    /// read-only during the round (clients only read their own slot).
    fates: Vec<Fate>,
    /// Uplinks the current round will actually deliver (healthy + corrupt
    /// senders). `usize::MAX` until `begin_round` is first called, which
    /// makes [`Network::collect_round`] trust its `expected` argument on
    /// fault-free networks driven without the round engine.
    expected_deliveries: usize,
    /// Faults observed by the most recent collection (for the engine to
    /// harvest into [`crate::sim::RoundMetrics`]).
    round_dropped: AtomicU64,
    round_corrupt: AtomicU64,
    collect_budget: Duration,
    /// Round-closure policy. `Sync` (the default) keeps the classic
    /// barrier; `Buffered` activates the staleness buffer below.
    agg: Aggregation,
    /// Seed of the buffer-admission RNG streams (the run's master seed,
    /// independent of the fault seed).
    agg_seed: u64,
    /// The round opened by [`Network::begin_round`] — buffer admissions
    /// key their delay streams off it.
    current_round: u64,
    /// The staleness buffer: `(ready_round, origin_round, client)` →
    /// encoded uplink frame. A `BTreeMap` so drain order is a pure
    /// function of the keys (the determinism contract, DESIGN.md §7.8);
    /// a `Mutex` because admission happens on client threads.
    buffer: Mutex<BTreeMap<(u64, u64, u64), Frame>>,
    /// Uplinks admitted to the buffer since `begin_round` (deferred, not
    /// dropped — the collection subtracts them from its drop count).
    round_buffered: AtomicU64,
    /// Buffered updates folded in / discarded by the latest collection.
    round_stale: AtomicU64,
    round_expired: AtomicU64,
}

/// Default real-time safety net for one round's collection. Collection is
/// count-driven and normally returns without waiting; the budget only
/// matters if a send path hangs, turning a deadlock into a bounded wait.
pub const DEFAULT_COLLECT_BUDGET: Duration = Duration::from_secs(5);

impl Network {
    /// Build a fault-free network for `num_clients` clients over the
    /// in-process channel backend.
    pub fn new(num_clients: usize) -> Self {
        Network::over(Box::new(ChannelTransport::new(num_clients)))
    }

    /// Build a fault-free network over an explicit transport backend.
    pub fn over(transport: Box<dyn Transport>) -> Self {
        let num_clients = transport.num_clients();
        Network {
            transport,
            stats: CommStats::default(),
            plan: FaultPlan::none(),
            fates: vec![Fate::Healthy; num_clients],
            expected_deliveries: usize::MAX,
            round_dropped: AtomicU64::new(0),
            round_corrupt: AtomicU64::new(0),
            collect_budget: DEFAULT_COLLECT_BUDGET,
            agg: Aggregation::Sync,
            agg_seed: 0,
            current_round: 0,
            buffer: Mutex::new(BTreeMap::new()),
            round_buffered: AtomicU64::new(0),
            round_stale: AtomicU64::new(0),
            round_expired: AtomicU64::new(0),
        }
    }

    /// Name of the transport backend underneath (stamped into traces).
    pub fn backend(&self) -> &'static str {
        self.transport.backend()
    }

    /// Attach a fault plan (builder style).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        plan.validate();
        self.plan = plan;
        self
    }

    /// Override the real-time collection safety net.
    pub fn with_collect_budget(mut self, budget: Duration) -> Self {
        self.collect_budget = budget;
        self
    }

    /// Attach a round-closure policy (builder style). `seed` keys the
    /// derived RNG streams that draw buffer-admission delays; pass the
    /// run's master seed so buffered replay is bit-identical.
    pub fn with_aggregation(mut self, agg: Aggregation, seed: u64) -> Self {
        self.agg = agg;
        self.agg_seed = seed;
        self
    }

    /// Open a round: fix every sampled client's fate for `round` and
    /// precompute how many uplinks will actually be delivered, and let the
    /// frame pool shed what earlier rounds needed and this run does not
    /// ([`crate::frame::round_begins`]). Called by
    /// the round engine before the algorithm runs; algorithms driven
    /// without it see a fault-free network.
    pub fn begin_round(&mut self, round: usize, sampled: &[usize]) {
        crate::frame::round_begins();
        self.fates.iter_mut().for_each(|f| *f = Fate::Healthy);
        let mut deliveries = 0usize;
        for &k in sampled {
            let fate = self.plan.fate(round, k);
            self.fates[k] = fate;
            if matches!(fate, Fate::Healthy | Fate::Corrupt) {
                deliveries += 1;
            }
        }
        self.expected_deliveries = deliveries;
        self.current_round = round as u64;
        self.round_dropped.store(0, Ordering::Relaxed);
        self.round_corrupt.store(0, Ordering::Relaxed);
        self.round_buffered.store(0, Ordering::Relaxed);
        self.round_stale.store(0, Ordering::Relaxed);
        self.round_expired.store(0, Ordering::Relaxed);
    }

    /// Number of clients on the network.
    pub fn num_clients(&self) -> usize {
        self.transport.num_clients()
    }

    /// Is `client` reachable this round? Offline ([`Fate::Dropped`])
    /// clients receive no broadcast, skip training, and upload nothing.
    pub fn client_online(&self, client: usize) -> bool {
        self.fates[client] != Fate::Dropped
    }

    /// Server → clients broadcast of one message: encoded once, paid for
    /// once per recipient (the logical tally does not know recipients
    /// share a payload), swallowed by the simulated network for each
    /// offline recipient, and handed to the transport as one buffer for
    /// everyone else.
    ///
    /// # Errors
    ///
    /// [`WireError::ChannelClosed`] when a client endpoint is gone (its
    /// receiver was dropped); every reachable recipient has been served by
    /// then. Callers may treat this like an offline client: the round
    /// proceeds without it.
    pub fn broadcast(&self, clients: &[usize], msg: &WireMessage) -> Result<(), WireError> {
        let frame = Frame::encode(msg.encoded_len(), |buf| msg.encode_into(buf))?;
        self.broadcast_frame(clients, &frame)
    }

    /// [`Network::broadcast`] of a message already encoded into `frame`.
    pub fn broadcast_frame(&self, clients: &[usize], frame: &Frame) -> Result<(), WireError> {
        let recipients = clients.len() as u64;
        self.stats
            .downlink
            .fetch_add(recipients * frame.len() as u64, Ordering::Relaxed);
        self.stats.messages.fetch_add(recipients, Ordering::Relaxed);
        let online: Vec<usize> = clients
            .iter()
            .copied()
            .filter(|&k| self.fates[k] != Fate::Dropped)
            .collect();
        if online.is_empty() {
            return Ok(());
        }
        let wrote = self.transport.broadcast_to_clients(&online, frame)?;
        self.stats
            .downlink_physical
            .fetch_add(wrote, Ordering::Relaxed);
        Ok(())
    }

    /// [`Network::broadcast`] to one client.
    pub fn send_to_client(&self, client: usize, msg: &WireMessage) -> Result<(), WireError> {
        self.broadcast(&[client], msg)
    }

    /// The next downlink frame for `client`, or `None` when none was
    /// delivered. Algorithms queue broadcasts before the client region
    /// runs, so a missing frame means "not coming", never "not yet" — the
    /// collect budget only bounds the wait on socket backends, where
    /// delivery is asynchronous.
    fn recv_frame(&self, client: usize) -> Option<Frame> {
        // The fate gate, not the transport, decides that an offline client
        // sees nothing: its broadcast was never handed to the transport,
        // so waiting for it would burn the whole budget.
        if self.fates.get(client).copied() == Some(Fate::Dropped) {
            return None;
        }
        self.transport
            .recv_frame_at_client(client, self.collect_budget)
            .ok()?
    }

    /// Client-side receive. Returns `None` when no broadcast was delivered
    /// (offline client, or an algorithm that legitimately skipped the
    /// send) or the payload fails to decode.
    pub fn client_recv(&self, client: usize) -> Option<WireMessage> {
        WireMessage::decode(self.recv_frame(client)?).ok()
    }

    /// Client-side receive of a `FullModel` broadcast, read straight into
    /// `model`'s tensors ([`WireMessage::decode_full_model_into`]). `false`
    /// when no broadcast was delivered or the frame was refused — another
    /// message, another architecture's shapes, a short or a long frame —
    /// and then `model` is untouched: a refused downlink is a lost
    /// downlink.
    pub fn client_recv_full_model_into(&self, client: usize, model: &mut ClientModel) -> bool {
        self.recv_frame(client)
            .is_some_and(|frame| WireMessage::decode_full_model_into(&frame, model).is_ok())
    }

    /// Client → server upload. The client always pays for the
    /// transmission; the fault plan then decides whether the payload
    /// arrives intact, arrives corrupted, or misses the deadline.
    ///
    /// # Errors
    ///
    /// [`WireError::ChannelClosed`] when the server endpoint is gone.
    /// From the client's perspective this is indistinguishable from its
    /// reply being dropped in flight, and the count-driven collect on the
    /// server side already tolerates missing replies.
    pub fn send_to_server(&self, client: usize, msg: &WireMessage) -> Result<(), WireError> {
        self.uplink(client, msg.encoded_len(), &mut |buf| msg.encode_into(buf))
    }

    /// [`Network::send_to_server`] of `model`'s state as a `FullModel`
    /// message, encoded from the tensors where they live.
    pub fn send_full_model(&self, client: usize, model: &mut ClientModel) -> Result<(), WireError> {
        let len = MESSAGE_HEADER_LEN + model.state_extent().1;
        self.uplink(client, len, &mut |buf| {
            WireMessage::encode_full_model(model, buf)
        })
    }

    /// One uplink of `len` encoded bytes, which `encode` appends to the
    /// buffer it is given. A healthy or corrupt uplink is encoded by the
    /// transport's writer, into the buffer it sends from; an offline
    /// client's is never encoded at all.
    fn uplink(
        &self,
        client: usize,
        len: usize,
        encode: &mut dyn FnMut(&mut Vec<u8>) -> Result<(), WireError>,
    ) -> Result<(), WireError> {
        self.stats.uplink.fetch_add(len as u64, Ordering::Relaxed);
        self.stats.messages.fetch_add(1, Ordering::Relaxed);
        let fate = self.fates[client];
        match fate {
            Fate::Dropped => return Ok(()),
            // Stragglers transmit, but the reply outlives the round's
            // deadline. Synchronous rounds lose it; buffered aggregation
            // parks it in the staleness buffer for a later round.
            Fate::Straggler => {
                if let Aggregation::Buffered { max_staleness, .. } = self.agg {
                    let frame = Frame::encode(len, encode)?;
                    self.admit_to_buffer(client, frame, max_staleness);
                }
                return Ok(());
            }
            Fate::Healthy | Fate::Corrupt => {}
        }
        let wrote = self
            .transport
            .send_to_server_with(client, len, &mut |buf| {
                let start = buf.len();
                encode(buf)?;
                if fate == Fate::Corrupt {
                    corrupt_payload(buf, start);
                }
                Ok(())
            })?;
        self.stats
            .uplink_physical
            .fetch_add(wrote, Ordering::Relaxed);
        Ok(())
    }

    /// Park a straggler's already-paid-for uplink in the staleness buffer.
    ///
    /// The delivery delay is drawn from a derived RNG stream keyed on
    /// `(agg_seed, round, client)` — a pure function of the seed, so a
    /// replay admits the same bytes at the same future round regardless of
    /// thread timing. Delays span `1..=2·max_staleness`: the longer half
    /// exceeds the fold window and exercises the expiry path.
    fn admit_to_buffer(&self, client: usize, frame: Frame, max_staleness: usize) {
        let round = self.current_round;
        let tag =
            0xB0FF_0000_0000_0000_u64 ^ round.wrapping_mul(0x0000_0001_0000_0001) ^ (client as u64);
        let delay =
            derived_rng(self.agg_seed, tag).inclusive(1, 2 * max_staleness.max(1) as i64) as u64;
        let mut buf = self.buffer.lock().unwrap_or_else(|p| p.into_inner());
        buf.insert((round + delay, round, client as u64), frame);
        self.round_buffered.fetch_add(1, Ordering::Relaxed);
    }

    /// Close `round`'s collection under the configured [`Aggregation`] —
    /// the one collect there is. `Sync` is the buffered policy with no
    /// cutoff and nothing ever admitted to the buffer, so both run this
    /// body:
    ///
    /// 1. **Drain** every deliverable fresh uplink. The network knows (from
    ///    [`Network::begin_round`]) how many uplinks the round will
    ///    deliver, so the drain returns as soon as they are in — missing
    ///    clients cost no wall-clock time and cannot deadlock the round,
    ///    and the same set is seen on every backend. The collect budget is
    ///    a real-time safety net on top of that count.
    ///    A frame that is not a message ([`WireMessage::check`]) is a
    ///    corrupt uplink.
    /// 2. **Spill** — if more than `goal_k` fresh replies arrived, a
    ///    seeded per-round permutation picks which `goal_k` made the
    ///    cutoff; the rest go into the buffer as they came, with
    ///    `ready = round + 1` (they "arrive" next round, one round stale).
    /// 3. **Fold** — every buffer entry with `ready ≤ round` is drained
    ///    in `BTreeMap` key order: entries aged `≤ max_staleness` join the
    ///    reply set with their staleness recorded, older ones are counted
    ///    expired and discarded.
    ///
    /// Returns the replies as `(client, staleness, frame)`, sorted by
    /// `(client, staleness)`; each frame holds one message, which the
    /// round's algorithm decodes or folds from where it lies. Staleness is the number of rounds a late
    /// update aged in the buffer: 0 for every fresh reply, and so for every
    /// reply under synchronous aggregation. The round's dropped, corrupt,
    /// stale and expired counts go to the per-round counters
    /// ([`Network::take_round_faults`], [`Network::take_round_async`]).
    /// Which replies are usable, their weight decay and the renormalization
    /// over the usable set happen in `crate::algo`'s exchange driver.
    #[expect(
        clippy::disallowed_methods,
        reason = "real-time safety net only; collection is count-driven via expected_deliveries, so the clock never decides *which* replies are seen, only bounds how long an impossible wait can last; the second read is the remaining budget for the transport recv safety net"
    )]
    pub fn collect_round(&self, round: usize, expected: usize) -> Vec<(usize, usize, Frame)> {
        let (goal_k, max_staleness) = match self.agg {
            Aggregation::Sync => (usize::MAX, 0),
            Aggregation::Buffered {
                goal_k,
                max_staleness,
            } => (goal_k, max_staleness),
        };
        let deadline = Instant::now() + self.collect_budget;
        let will_arrive = expected.min(self.expected_deliveries);
        let mut merged: Vec<(usize, usize, Frame)> = Vec::with_capacity(will_arrive);
        let mut corrupt = 0usize;
        while merged.len() + corrupt < will_arrive {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match self.transport.recv_frame_at_server(remaining) {
                Ok(Some((k, frame))) => match WireMessage::check(&frame) {
                    Ok(()) => merged.push((k, 0, frame)),
                    Err(_) => corrupt += 1,
                },
                // Budget exhausted or transport gone: whatever is still
                // missing is dropped.
                Ok(None) | Err(_) => break,
            }
        }
        merged.sort_by_key(|&(k, _, _)| k);
        // Stragglers parked in the buffer are deferred, not dropped.
        #[expect(
            clippy::cast_possible_truncation,
            reason = "counts this round's parked uplinks, at most one per sampled client, so it fits the usize it was added from"
        )]
        let buffered = self.round_buffered.swap(0, Ordering::Relaxed) as usize;
        let dropped = expected.saturating_sub(merged.len() + corrupt + buffered);

        let mut buf = self.buffer.lock().unwrap_or_else(|p| p.into_inner());
        // Capacity cutoff: a seeded permutation decides which goal_k fresh
        // uplinks beat the buzzer — a stand-in for arrival order that is a
        // pure function of (seed, round), not of thread timing.
        if merged.len() > goal_k {
            let mut order: Vec<usize> = (0..merged.len()).collect();
            let tag =
                0xB0FF_4B00_0000_0000_u64 ^ (round as u64).wrapping_mul(0x0000_0001_0000_0001);
            derived_rng(self.agg_seed, tag).shuffle(&mut order);
            let mut in_time = vec![false; merged.len()];
            order[..goal_k].iter().for_each(|&i| in_time[i] = true);
            let mut in_time = in_time.into_iter();
            let mut kept = Vec::with_capacity(goal_k);
            for reply in merged.drain(..) {
                if in_time.next() == Some(true) {
                    kept.push(reply);
                } else {
                    let (k, _, frame) = reply;
                    buf.insert((round as u64 + 1, round as u64, k as u64), frame);
                }
            }
            merged = kept;
        }

        // Fold matured buffer entries, oldest keys first (BTreeMap order).
        let (mut stale, mut expired) = (0usize, 0usize);
        let matured: Vec<(u64, u64, u64)> = buf
            .range(..=(round as u64, u64::MAX, u64::MAX))
            .map(|(key, _)| *key)
            .collect();
        for key in matured {
            let Some(frame) = buf.remove(&key) else {
                continue;
            };
            let (_ready, origin, client) = key;
            // A key that does not fit a usize is damage, counted like a
            // body that does not decode.
            let (Ok(age), Ok(client)) = (
                usize::try_from((round as u64).saturating_sub(origin)),
                usize::try_from(client),
            ) else {
                corrupt += 1;
                continue;
            };
            if age > max_staleness {
                expired += 1;
                continue;
            }
            // An entry a checkpoint restored has not been checked yet.
            match WireMessage::check(&frame) {
                Ok(()) => {
                    stale += 1;
                    merged.push((client, age, frame));
                }
                Err(_) => corrupt += 1,
            }
        }
        drop(buf);
        merged.sort_by_key(|&(k, s, _)| (k, s));

        self.round_dropped
            .fetch_add(dropped as u64, Ordering::Relaxed);
        self.round_corrupt
            .fetch_add(corrupt as u64, Ordering::Relaxed);
        self.round_stale.fetch_add(stale as u64, Ordering::Relaxed);
        self.round_expired
            .fetch_add(expired as u64, Ordering::Relaxed);
        merged
    }

    /// Count `n` replies the round's algorithm refused — not the message
    /// or the shapes it can fold — as corrupt uplinks.
    pub(crate) fn count_rejected(&self, n: usize) {
        self.round_corrupt.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Faults observed since [`Network::begin_round`], reset to zero.
    /// Returns `(dropped, corrupt)`.
    pub fn take_round_faults(&self) -> (u64, u64) {
        (
            self.round_dropped.swap(0, Ordering::Relaxed),
            self.round_corrupt.swap(0, Ordering::Relaxed),
        )
    }

    /// Staleness-buffer activity observed since [`Network::begin_round`],
    /// reset to zero. Returns `(stale folds, expired discards)` — both 0
    /// under synchronous aggregation.
    pub fn take_round_async(&self) -> (u64, u64) {
        (
            self.round_stale.swap(0, Ordering::Relaxed),
            self.round_expired.swap(0, Ordering::Relaxed),
        )
    }

    /// Snapshot the pending staleness buffer as
    /// `(ready_round, origin_round, client, encoded bytes)` entries in
    /// key order — the shape a federation checkpoint persists so a resume
    /// folds the same late updates into the same future rounds.
    pub fn export_buffer(&self) -> Vec<(u64, u64, u64, Vec<u8>)> {
        let buf = self.buffer.lock().unwrap_or_else(|p| p.into_inner());
        buf.iter()
            .map(|(&(ready, origin, client), frame)| (ready, origin, client, frame.to_vec()))
            .collect()
    }

    /// Restore buffer entries captured by [`Network::export_buffer`]
    /// (checkpoint resume). Entries merge into whatever is already
    /// pending; identical keys overwrite.
    pub fn import_buffer(&self, entries: Vec<(u64, u64, u64, Vec<u8>)>) {
        let mut buf = self.buffer.lock().unwrap_or_else(|p| p.into_inner());
        for (ready, origin, client, bytes) in entries {
            buf.insert((ready, origin, client), Frame::from(bytes));
        }
    }

    /// Traffic statistics.
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }
}

/// Deterministically mangle the payload at `buf[start..]`, where it lies,
/// so that decoding reliably fails: flip a byte inside the header region
/// and cut the final byte, which leaves the last tensor short
/// ([`WireError::Truncated`]) no matter what the flipped byte did to the
/// framing.
fn corrupt_payload(buf: &mut Vec<u8>, start: usize) {
    if buf.len() > start {
        let mid = start + (buf.len() - start - 1).min(2);
        buf[mid] ^= 0xA5;
        buf.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fca_tensor::rng::seeded_rng;

    /// Client ids of a collection's replies, in reply order.
    fn ids(got: &[(usize, usize, Frame)]) -> Vec<usize> {
        got.iter().map(|&(k, _, _)| k).collect()
    }

    /// `(client, staleness)` of a collection's replies, in reply order.
    fn contributors(got: &[(usize, usize, Frame)]) -> Vec<(usize, usize)> {
        got.iter().map(|&(k, s, _)| (k, s)).collect()
    }

    #[test]
    fn classifier_roundtrip() {
        let mut rng = seeded_rng(501);
        let w = ClassifierWeights {
            weight: Tensor::randn([10, 64], 1.0, &mut rng),
            bias: Tensor::randn([10], 1.0, &mut rng),
        };
        let msg = WireMessage::Classifier(w.clone());
        let bytes = msg.encode().expect("encode");
        assert_eq!(bytes.len(), msg.encoded_len());
        match WireMessage::decode(bytes).expect("decode") {
            WireMessage::Classifier(back) => assert_eq!(back, w),
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn prototypes_preserve_missing_classes() {
        let mut rng = seeded_rng(502);
        let protos = vec![
            Some(Tensor::randn([8], 1.0, &mut rng)),
            None,
            Some(Tensor::randn([8], 1.0, &mut rng)),
        ];
        let msg = WireMessage::Prototypes(protos.clone());
        match WireMessage::decode(msg.encode().expect("encode")).expect("decode") {
            WireMessage::Prototypes(back) => {
                assert_eq!(back.len(), 3);
                assert!(back[1].is_none());
                assert_eq!(back[0], protos[0]);
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn full_model_roundtrip() {
        let mut rng = seeded_rng(503);
        let state = vec![
            Tensor::randn([4, 4], 1.0, &mut rng),
            Tensor::randn([4], 1.0, &mut rng),
        ];
        let msg = WireMessage::FullModel(state.clone());
        match WireMessage::decode(msg.encode().expect("encode")).expect("decode") {
            WireMessage::FullModel(back) => assert_eq!(back, state),
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn classifier_payload_matches_paper_scale() {
        // 512-dim features, 10 classes: the paper reports ≈22 KB.
        let w = ClassifierWeights::zeros(512, 10);
        let msg = WireMessage::Classifier(w);
        let kb = msg.encoded_len() as f64 / 1024.0;
        assert!(
            (19.0..22.5).contains(&kb),
            "classifier wire size {kb:.2} KB"
        );
    }

    #[test]
    fn network_counts_bytes_both_ways() {
        let net = Network::new(2);
        let w = ClassifierWeights::zeros(8, 4);
        let msg = WireMessage::Classifier(w);
        let len = msg.encoded_len() as u64;
        net.send_to_client(0, &msg).expect("send");
        net.send_to_client(1, &msg).expect("send");
        assert_eq!(net.stats().downlink_bytes(), 2 * len);
        let got = net.client_recv(0).expect("broadcast delivered");
        assert_eq!(got, msg);
        net.send_to_server(1, &msg).expect("send");
        assert_eq!(net.stats().uplink_bytes(), len);
        assert_eq!(ids(&net.collect_round(0, 1)), vec![1]);
        assert_eq!(net.stats().messages(), 3);
    }

    #[test]
    fn sync_collect_orders_by_client_id_and_nothing_is_stale() {
        let net = Network::new(3);
        let msg = WireMessage::SoftPredictions(Tensor::zeros([2, 2]));
        net.send_to_server(2, &msg).expect("send");
        net.send_to_server(0, &msg).expect("send");
        net.send_to_server(1, &msg).expect("send");
        let got = net.collect_round(1, 3);
        assert_eq!(contributors(&got), vec![(0, 0), (1, 0), (2, 0)]);
        assert_eq!(net.take_round_faults(), (0, 0));
        assert_eq!(net.take_round_async(), (0, 0));
        assert_eq!(net.export_buffer().len(), 0);
    }

    #[test]
    fn classifier_f16_roundtrip_halves_payload() {
        let mut rng = seeded_rng(504);
        let w = ClassifierWeights {
            weight: Tensor::randn([10, 64], 1.0, &mut rng),
            bias: Tensor::randn([10], 1.0, &mut rng),
        };
        let full = WireMessage::Classifier(w.clone());
        let half = WireMessage::ClassifierF16(w.clone());
        // Headers are format-independent: 5 B message framing plus one
        // tensor header (1 B rank + 4 B per dim) for the rank-2 weight and
        // the rank-1 bias.
        let headers = 5 + (1 + 4 * 2) + (1 + 4);
        assert_eq!(full.encoded_len(), headers + 4 * w.numel());
        assert_eq!(half.encoded_len(), headers + 2 * w.numel());
        // So the f16 payload is exactly 2 bytes-per-element smaller.
        assert_eq!(full.encoded_len() - half.encoded_len(), 2 * w.numel());
        // Round trip within f16 precision.
        match WireMessage::decode(half.encode().expect("encode")).expect("decode") {
            WireMessage::ClassifierF16(back) => {
                for (a, b) in back.weight.data().iter().zip(w.weight.data()) {
                    assert!((a - b).abs() <= b.abs() * 1e-3 + 1e-6);
                }
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        let garbage = Bytes::from_static(&[9, 1, 0, 0, 0, 1, 2]);
        assert!(WireMessage::decode(garbage).is_err());
    }

    #[test]
    fn decode_reports_unknown_tag() {
        let garbage = Bytes::from_static(&[0xEE, 1, 0, 0, 0, 1, 2]);
        assert_eq!(
            WireMessage::decode(garbage),
            Err(WireError::UnknownTag(0xEE))
        );
    }

    #[test]
    fn decode_reports_count_mismatch() {
        // A classifier message whose header claims 3 tensors.
        let w = ClassifierWeights::zeros(4, 2);
        let msg = WireMessage::Classifier(w);
        let mut bytes = msg.encode().expect("encode").to_vec();
        bytes[1] = 3;
        assert_eq!(
            WireMessage::decode(Bytes::from(bytes)),
            Err(WireError::CountMismatch {
                expected: 2,
                got: 3
            })
        );
        // Soft predictions claiming zero tensors.
        let soft = WireMessage::SoftPredictions(Tensor::zeros([2, 2]));
        let mut bytes = soft.encode().expect("encode").to_vec();
        bytes[1] = 0;
        assert_eq!(
            WireMessage::decode(Bytes::from(bytes)),
            Err(WireError::CountMismatch {
                expected: 1,
                got: 0
            })
        );
    }

    #[test]
    fn fault_plan_fates_are_deterministic_and_rate_shaped() {
        let plan = FaultPlan::new(99, 0.3, 0.1, 0.1);
        let mut counts = [0usize; 4];
        for round in 0..50 {
            for client in 0..20 {
                let a = plan.fate(round, client);
                let b = plan.fate(round, client);
                assert_eq!(a, b, "fate must be a pure function of (round, client)");
                counts[match a {
                    Fate::Healthy => 0,
                    Fate::Dropped => 1,
                    Fate::Straggler => 2,
                    Fate::Corrupt => 3,
                }] += 1;
            }
        }
        let total = 50.0 * 20.0;
        assert!(
            (counts[1] as f32 / total - 0.3).abs() < 0.05,
            "dropout rate off"
        );
        assert!(
            (counts[2] as f32 / total - 0.1).abs() < 0.05,
            "straggler rate off"
        );
        assert!(
            (counts[3] as f32 / total - 0.1).abs() < 0.05,
            "corruption rate off"
        );
        // A different seed reshuffles individual fates.
        let other = FaultPlan::new(100, 0.3, 0.1, 0.1);
        assert!(
            (0..50).any(|r| (0..20).any(|c| plan.fate(r, c) != other.fate(r, c))),
            "seed does not influence fates"
        );
    }

    #[test]
    fn none_plan_never_faults() {
        let plan = FaultPlan::none();
        for round in 0..10 {
            for client in 0..10 {
                assert_eq!(plan.fate(round, client), Fate::Healthy);
            }
        }
    }

    #[test]
    #[should_panic(expected = "sum to")]
    fn infeasible_fault_rates_rejected() {
        FaultPlan::new(1, 0.8, 0.8, 0.8);
    }

    /// A plan whose rates pin every sampled client to one fate, letting
    /// tests script exact failure patterns.
    fn all_fate_plan(fate: Fate) -> FaultPlan {
        match fate {
            Fate::Healthy => FaultPlan::none(),
            Fate::Dropped => FaultPlan::new(7, 1.0, 0.0, 0.0),
            Fate::Straggler => FaultPlan::new(7, 0.0, 1.0, 0.0),
            Fate::Corrupt => FaultPlan::new(7, 0.0, 0.0, 1.0),
        }
    }

    #[test]
    fn dropped_client_gets_no_broadcast_and_is_offline() {
        let mut net = Network::new(2).with_fault_plan(all_fate_plan(Fate::Dropped));
        net.begin_round(1, &[0, 1]);
        assert!(!net.client_online(0));
        let msg = WireMessage::Classifier(ClassifierWeights::zeros(4, 2));
        net.send_to_client(0, &msg).expect("send");
        assert!(
            net.client_recv(0).is_none(),
            "offline client received a broadcast"
        );
        // The transmission itself is still paid for.
        assert_eq!(net.stats().downlink_bytes(), msg.encoded_len() as u64);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "asserts on real elapsed time by design"
    )]
    fn straggler_uplink_counts_as_drop_without_blocking() {
        let mut net = Network::new(2)
            .with_fault_plan(all_fate_plan(Fate::Straggler))
            .with_collect_budget(Duration::from_secs(30));
        net.begin_round(1, &[0, 1]);
        let msg = WireMessage::Classifier(ClassifierWeights::zeros(4, 2));
        net.send_to_server(0, &msg).expect("send");
        net.send_to_server(1, &msg).expect("send");
        let start = Instant::now();
        let got = net.collect_round(1, 2);
        // Count-driven return: no real-time wait despite the huge budget.
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "collection waited on stragglers"
        );
        assert!(got.is_empty());
        assert_eq!(net.take_round_faults(), (2, 0));
    }

    #[test]
    fn corrupt_uplink_is_discarded_and_counted() {
        let mut net = Network::new(3).with_fault_plan(all_fate_plan(Fate::Corrupt));
        net.begin_round(1, &[0, 1, 2]);
        // Heal everyone but client 1 so exactly one uplink corrupts; the
        // delivery count (3) is unchanged, corrupt uplinks still arrive.
        net.fates[0] = Fate::Healthy;
        net.fates[2] = Fate::Healthy;
        let msg = WireMessage::Classifier(ClassifierWeights::zeros(4, 2));
        net.send_to_server(0, &msg).expect("send");
        net.send_to_server(1, &msg).expect("send");
        net.send_to_server(2, &msg).expect("send");
        let got = net.collect_round(1, 3);
        assert_eq!(ids(&got), vec![0, 2]);
        assert_eq!(net.take_round_faults(), (0, 1));
    }

    #[test]
    fn collect_survives_zero_replies() {
        let mut net = Network::new(2).with_fault_plan(all_fate_plan(Fate::Dropped));
        net.begin_round(3, &[0, 1]);
        let got = net.collect_round(3, 2);
        assert!(got.is_empty());
        assert_eq!(net.take_round_faults(), (2, 0));
    }

    #[test]
    fn corrupt_payload_never_decodes() {
        let mut rng = seeded_rng(505);
        let messages = vec![
            WireMessage::Classifier(ClassifierWeights {
                weight: Tensor::randn([3, 4], 1.0, &mut rng),
                bias: Tensor::randn([3], 1.0, &mut rng),
            }),
            WireMessage::FullModel(vec![Tensor::randn([2, 2], 1.0, &mut rng)]),
            WireMessage::Prototypes(vec![None, Some(Tensor::randn([4], 1.0, &mut rng))]),
            WireMessage::SoftPredictions(Tensor::randn([2, 3], 1.0, &mut rng)),
        ];
        for msg in messages {
            // Behind a frame header's worth of bytes, as in a socket's
            // write buffer: those are not the payload's to mangle.
            for start in [0usize, 8] {
                let mut buf = vec![0x11u8; start];
                msg.encode_into(&mut buf).expect("encode");
                super::corrupt_payload(&mut buf, start);
                assert!(buf[..start].iter().all(|&b| b == 0x11));
                assert_eq!(buf.len(), start + msg.encoded_len() - 1);
                assert!(
                    WireMessage::decode(Bytes::from(buf[start..].to_vec())).is_err(),
                    "corruption survived decode"
                );
            }
        }
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let msg = WireMessage::Classifier(ClassifierWeights::zeros(4, 2));
        let mut bytes = msg.encode().expect("encode").to_vec();
        bytes.extend_from_slice(&[0xDE, 0xAD]);
        assert_eq!(
            WireMessage::decode(Bytes::from(bytes)),
            Err(WireError::TrailingBytes { extra: 2 })
        );
    }

    #[test]
    fn encode_rejects_unframeable_rank() {
        // 256 singleton dims: numel 1, but the rank byte cannot hold 256.
        let deep = Tensor::zeros(fca_tensor::Shape::new(&vec![1usize; 256]));
        let msg = WireMessage::SoftPredictions(deep);
        assert_eq!(
            msg.encode(),
            Err(WireError::Unencodable("tensor rank exceeds 255"))
        );
    }

    #[test]
    fn network_over_socket_backend_matches_channel_semantics() {
        use crate::transport::SocketTransport;
        let transports: Vec<Box<dyn Transport>> = vec![
            Box::new(SocketTransport::tcp(2).expect("tcp loopback")),
            #[cfg(unix)]
            Box::new(SocketTransport::unix(2).expect("unix loopback")),
        ];
        for transport in transports {
            let net = Network::over(transport);
            let msg = WireMessage::Classifier(ClassifierWeights::zeros(8, 4));
            let len = msg.encoded_len() as u64;
            net.send_to_client(0, &msg).expect("send");
            assert_eq!(net.client_recv(0).expect("broadcast delivered"), msg);
            net.send_to_server(1, &msg).expect("send");
            assert_eq!(ids(&net.collect_round(0, 1)), vec![1]);
            assert_eq!(net.stats().downlink_bytes(), len);
            assert_eq!(net.stats().uplink_bytes(), len);
        }
    }

    /// Drive `net` through empty follow-up rounds, harvesting buffer folds
    /// until the staleness buffer drains. Returns (folded (client,
    /// staleness) pairs, expired count).
    fn drain_buffer(net: &mut Network, from_round: usize) -> (Vec<(usize, usize)>, usize) {
        let mut folds = Vec::new();
        let mut expired = 0usize;
        let mut round = from_round;
        while !net.export_buffer().is_empty() {
            round += 1;
            net.begin_round(round, &[]);
            let got = net.collect_round(round, 0);
            folds.extend(contributors(&got));
            expired += net.take_round_async().1 as usize;
            assert!(round < from_round + 64, "buffer never drained");
        }
        (folds, expired)
    }

    #[test]
    fn buffered_straggler_folds_into_a_later_round_with_staleness() {
        let max_staleness = 2usize;
        let mut net = Network::new(2)
            .with_fault_plan(all_fate_plan(Fate::Straggler))
            .with_aggregation(
                Aggregation::Buffered {
                    goal_k: 2,
                    max_staleness,
                },
                4242,
            );
        net.begin_round(1, &[0, 1]);
        let msg = WireMessage::Classifier(ClassifierWeights::zeros(4, 2));
        net.send_to_server(0, &msg).expect("send");
        net.send_to_server(1, &msg).expect("send");
        let got = net.collect_round(1, 2);
        // Deferred, not dropped: both uplinks are parked in the buffer.
        assert!(got.is_empty());
        assert_eq!(net.take_round_faults(), (0, 0));
        assert_eq!(net.export_buffer().len(), 2);

        let (folds, expired) = drain_buffer(&mut net, 1);
        assert_eq!(folds.len() + expired, 2, "every admission is resolved");
        for (_, s) in &folds {
            assert!(
                (1..=max_staleness).contains(s),
                "fold staleness {s} outside window"
            );
        }
        // Replay: the same seed admits and resolves identically.
        let mut replay = Network::new(2)
            .with_fault_plan(all_fate_plan(Fate::Straggler))
            .with_aggregation(
                Aggregation::Buffered {
                    goal_k: 2,
                    max_staleness,
                },
                4242,
            );
        replay.begin_round(1, &[0, 1]);
        replay.send_to_server(0, &msg).expect("send");
        replay.send_to_server(1, &msg).expect("send");
        let _ = replay.collect_round(1, 2);
        let (folds2, expired2) = drain_buffer(&mut replay, 1);
        assert_eq!(folds, folds2);
        assert_eq!(expired, expired2);
    }

    #[test]
    fn buffered_goal_k_defers_overflow_to_the_next_round() {
        let mut net = Network::new(3).with_aggregation(
            Aggregation::Buffered {
                goal_k: 1,
                max_staleness: 3,
            },
            7,
        );
        net.begin_round(1, &[0, 1, 2]);
        let msg = WireMessage::Classifier(ClassifierWeights::zeros(4, 2));
        for k in 0..3 {
            net.send_to_server(k, &msg).expect("send");
        }
        let got = net.collect_round(1, 3);
        assert_eq!(got.len(), 1, "round closes at goal_k");
        assert_eq!(got[0].1, 0);
        assert_eq!(
            net.take_round_faults(),
            (0, 0),
            "overflow is deferred, not dropped"
        );
        assert_eq!(net.export_buffer().len(), 2);

        net.begin_round(2, &[]);
        let next = net.collect_round(2, 0);
        // The cutoff gates *fresh* uplinks only: both spilled replies
        // mature at round 2 and fold in together, one round stale.
        assert_eq!(next.len(), 2);
        assert!(next.iter().all(|&(_, s, _)| s == 1));
        assert_eq!(net.take_round_async(), (2, 0));
        assert_eq!(net.export_buffer().len(), 0);
    }

    #[test]
    fn buffer_export_import_round_trips_across_networks() {
        let agg = Aggregation::Buffered {
            goal_k: 2,
            max_staleness: 4,
        };
        let mut net = Network::new(2)
            .with_fault_plan(all_fate_plan(Fate::Straggler))
            .with_aggregation(agg, 99);
        net.begin_round(3, &[0, 1]);
        let msg = WireMessage::Classifier(ClassifierWeights::zeros(4, 2));
        net.send_to_server(0, &msg).expect("send");
        net.send_to_server(1, &msg).expect("send");
        let _ = net.collect_round(3, 2);
        let exported = net.export_buffer();
        assert_eq!(exported.len(), 2);

        let mut resumed = Network::new(2).with_aggregation(agg, 99);
        resumed.import_buffer(exported.clone());
        assert_eq!(resumed.export_buffer(), exported);
        let (folds_a, expired_a) = drain_buffer(&mut net, 3);
        let (folds_b, expired_b) = drain_buffer(&mut resumed, 3);
        assert_eq!(folds_a, folds_b, "resumed buffer folds differently");
        assert_eq!(expired_a, expired_b);
    }

    #[test]
    fn broadcast_pays_per_client_and_writes_per_connection() {
        use crate::transport::SocketTransport;
        let msg = WireMessage::Classifier(ClassifierWeights::zeros(8, 4));
        let len = msg.encoded_len() as u64;
        // (transport, physical bytes of one broadcast to two live clients,
        // physical bytes of one uplink)
        let backends: Vec<(Box<dyn Transport>, u64, u64)> = vec![
            (Box::new(ChannelTransport::new(3)), 2 * len, len),
            // One multicast frame: header, count, two ids, one message.
            #[cfg(unix)]
            (
                Box::new(SocketTransport::unix(3).expect("unix loopback")),
                8 + 4 + 2 * 4 + len,
                8 + len,
            ),
            (
                Box::new(SocketTransport::tcp(3).expect("tcp loopback")),
                8 + 4 + 2 * 4 + len,
                8 + len,
            ),
        ];
        for (transport, downlink_physical, uplink_physical) in backends {
            let mut net = Network::over(transport);
            net.begin_round(1, &[0, 1, 2]);
            // Client 1 offline, client 2 corrupt (set below): two arrivals.
            net.fates[1] = Fate::Dropped;
            net.expected_deliveries = 2;
            net.broadcast(&[0, 1, 2], &msg).expect("broadcast");
            // The logical tally is per recipient, offline ones included.
            assert_eq!(net.stats().downlink_bytes(), 3 * len);
            assert_eq!(net.stats().messages(), 3);
            assert_eq!(net.stats().downlink_physical_bytes(), downlink_physical);
            assert_eq!(net.client_recv(0), Some(msg.clone()));
            assert_eq!(net.client_recv(1), None);
            assert_eq!(net.client_recv(2), Some(msg.clone()));
            // Uplinks: healthy and corrupt ones are written (the corrupt
            // one a byte short), an offline client's is not.
            net.fates[2] = Fate::Corrupt;
            for k in 0..3 {
                net.send_to_server(k, &msg).expect("uplink");
            }
            assert_eq!(net.stats().uplink_bytes(), 3 * len);
            assert_eq!(net.stats().uplink_physical_bytes(), 2 * uplink_physical - 1);
            let got = net.collect_round(1, 3);
            assert_eq!((ids(&got), net.take_round_faults()), (vec![0], (1, 1)));
        }
    }

    /// A small two-conv model and a second one of the same architecture
    /// with other weights.
    fn twin_models() -> (ClientModel, ClientModel) {
        use fca_models::{build_model, ModelArch};
        let build = |seed| build_model(ModelArch::CnnFedAvg, (1, 12, 12), 8, 3, seed);
        (build(1), build(2))
    }

    #[test]
    fn full_model_moves_between_the_wire_and_the_tensors_themselves() {
        let (mut a, mut b) = twin_models();
        let state = a.full_state();
        let msg = WireMessage::FullModel(state.clone());
        // Encoded from the model: the bytes of the message built from a copy.
        let mut from_model = Vec::new();
        WireMessage::encode_full_model(&mut a, &mut from_model).expect("encode");
        assert_eq!(&from_model[..], &msg.encode().expect("encode")[..]);
        assert_eq!(
            a.state_extent(),
            (state.len(), msg.encoded_len() - MESSAGE_HEADER_LEN)
        );
        // Through a network, both ways.
        let net = Network::new(1);
        net.send_to_client(0, &msg).expect("downlink");
        assert_ne!(b.full_state(), state);
        assert!(net.client_recv_full_model_into(0, &mut b));
        assert_eq!(b.full_state(), state);
        net.send_full_model(0, &mut b).expect("uplink");
        assert_eq!(net.stats().uplink_bytes(), msg.encoded_len() as u64);
        let got = net.collect_round(0, 1);
        assert_eq!(contributors(&got), vec![(0, 0)]);
        assert_eq!(WireMessage::decode(&got[0].2), Ok(msg));
        // Nothing queued: nothing read.
        assert!(!net.client_recv_full_model_into(0, &mut b));
    }

    #[test]
    fn a_wrong_shaped_full_model_is_refused_whole() {
        let (mut a, mut b) = twin_models();
        let good = a.full_state();
        let before = b.full_state();
        let transposed = |t: &Tensor| {
            let dims: Vec<usize> = t.dims().iter().rev().copied().collect();
            Tensor::from_vec(fca_tensor::Shape::new(&dims), t.data().to_vec())
        };
        let flat = |t: &Tensor| Tensor::from_vec([t.numel()], t.data().to_vec());
        // The last tensor with more than one axis and unequal extents:
        // everything in front of it would be written by a reader that
        // checked as it went.
        let at = (0..good.len())
            .rev()
            .find(|&i| {
                let d = good[i].dims();
                d.len() >= 2 && d.first() != d.last()
            })
            .expect("a non-square weight");
        let with = |i: usize, t: Tensor| {
            let mut state = good.clone();
            state[i] = t;
            WireMessage::FullModel(state).encode().expect("encode")
        };
        let whole = WireMessage::FullModel(good.clone())
            .encode()
            .expect("encode");
        let mut long = whole.to_vec();
        long.push(0);
        let frames: Vec<(&str, Bytes)> = vec![
            (
                "a tensor missing",
                WireMessage::FullModel(good[..good.len() - 1].to_vec())
                    .encode()
                    .expect("encode"),
            ),
            (
                "a tensor too many",
                WireMessage::FullModel([&good[..], &good[..1]].concat())
                    .encode()
                    .expect("encode"),
            ),
            ("a transposed shape", with(at, transposed(&good[at]))),
            ("another rank", with(at, flat(&good[at]))),
            ("one byte short", whole.slice(..whole.len() - 1)),
            ("one trailing byte", Bytes::from(long)),
            (
                "another message",
                WireMessage::Classifier(ClassifierWeights::zeros(8, 3))
                    .encode()
                    .expect("encode"),
            ),
            ("an empty frame", Bytes::new()),
        ];
        let net = Network::new(1);
        for (what, frame) in frames {
            assert!(
                WireMessage::decode_full_model_into(&frame, &mut b).is_err(),
                "{what}: accepted"
            );
            net.transport.send_to_client(0, frame).expect("queue");
            assert!(
                !net.client_recv_full_model_into(0, &mut b),
                "{what}: accepted off the network"
            );
            assert_eq!(b.full_state(), before, "{what}: the model was written to");
        }
        net.transport.send_to_client(0, whole).expect("queue");
        assert!(net.client_recv_full_model_into(0, &mut b));
        assert_eq!(b.full_state(), good);
    }

    #[test]
    fn socket_backend_applies_fates_above_the_transport() {
        use crate::transport::SocketTransport;
        let transport = Box::new(SocketTransport::tcp(2).expect("tcp loopback"));
        let mut net = Network::over(transport).with_fault_plan(all_fate_plan(Fate::Dropped));
        net.begin_round(1, &[0, 1]);
        let msg = WireMessage::Classifier(ClassifierWeights::zeros(4, 2));
        net.send_to_client(0, &msg).expect("send");
        // The fate gate answers without waiting on the socket.
        assert!(net.client_recv(0).is_none());
        assert!(net.collect_round(1, 2).is_empty());
        assert_eq!(net.take_round_faults(), (2, 0));
    }
}
