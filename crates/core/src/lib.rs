//! # fedclassavg
//!
//! The paper's contribution: **FedClassAvg**, personalized federated
//! learning for heterogeneous neural networks via classifier-weight
//! averaging plus local representation learning — together with the
//! baselines it is evaluated against (local-only training, FedAvg, FedProx,
//! FedProto, KT-pFL) and the byte-accounted communication substrate the
//! simulation runs on.
//!
//! ## Layout
//!
//! * [`comm`] — wire messages, per-round byte accounting (Table 5), and
//!   deterministic fault injection (dropout / stragglers / corruption).
//! * [`frame`] — the recycled buffers messages cross the transport in.
//! * [`transport`] — how framed bytes move: in-process channels, loopback
//!   sockets, or genuinely separate server/shard OS processes.
//! * [`checkpoint`] — snapshot/restore of full federation state so a run
//!   survives process restarts and can elastically resize.
//! * [`client`] — a federated client: local dataset + model + trainer.
//! * [`fleet`] — the virtualized client fleet: bounded residency, cold
//!   clients paged out as snapshot blobs, a shared workspace pool.
//! * [`algo`] — one module per algorithm, all driven by the same
//!   synchronous-round [`sim`] engine.
//! * [`sim`] — the round loop: client sampling, parallel local training
//!   (rayon), server aggregation, periodic evaluation.
//! * [`config`] — experiment configuration incl. the paper's Table 1
//!   hyperparameters, the aggregation mode (synchronous barrier or
//!   FedBuff-style buffered), and the streaming-drift schedule.

#![warn(missing_docs)]
// P1: a client or peer failure is an outcome (skip, or a `WireError`), not a
// crash. The panics left carry an `#[expect]` naming the local invariant they
// assert; test code is exempt through clippy.toml.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod algo;
pub mod checkpoint;
pub mod client;
pub mod comm;
pub mod config;
pub mod fleet;
pub mod frame;
pub mod sim;
pub mod transport;

pub use checkpoint::Checkpoint;
pub use comm::{Fate, FaultPlan, Network};
pub use config::{FedConfig, HyperParams, TransportKind};
pub use fleet::{ClientMeta, Fleet, PagingStats};
pub use sim::{RoundMetrics, RunResult, RunState};
pub use transport::Transport;
