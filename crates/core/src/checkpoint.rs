//! Checkpoint/resume of full federation state.
//!
//! A [`Checkpoint`] captures everything a run needs to continue after a
//! process restart: the run's identity (algorithm name, seed, fleet
//! size), the engine's [`RunState`] (next round, cumulative epochs, the
//! learning curve so far, fault and traffic totals), the algorithm's
//! mutable server state ([`crate::algo::Algorithm::server_state`]: groups
//! of tensors, which this module — and nothing else — turns into bytes),
//! and one snapshot blob per client — the same versioned little-endian
//! blobs the fleet pager writes ([`crate::client::Client::snapshot_blob`]).
//!
//! Because every source of randomness in a run is derived from
//! `(seed, round)` — client sampling, eval subsampling, fault fates, and
//! each client's private streams (whose positions ride in the snapshot
//! blobs) — restoring a checkpoint and running rounds `next_round..=R`
//! is **bit-identical** to an uninterrupted run of rounds `1..=R`,
//! provided the checkpoint was taken at an evaluation boundary (so the
//! curve points and their fault counters line up). The resumed fleet may
//! use a different residency cap (elastic resize); paging never changes
//! numerics. Under buffered aggregation the pending straggler buffer —
//! every update admitted but not yet folded or expired — rides in the
//! [`RunState`] too, keyed by `(ready_round, origin_round, client)`, so
//! the resumed run folds exactly the updates the uninterrupted run would
//! have.
//!
//! The encoding is strict in the same way the wire layer is: every read
//! goes through the checked [`Reader`], every structural error maps into
//! [`WireError`], and trailing bytes are rejected. The server-state and
//! client snapshot blobs are opaque to [`Checkpoint::decode`];
//! [`Checkpoint::restore`] decodes the one and has the fleet restore each
//! of the others onto a scratch twin before it accepts any, so a damaged
//! file is refused there and never reaches a round or a hydration.
//!
//! A blob is copied twice on its way through a file and no more: into the
//! encoded buffer, and out of the decoded one. Capture shares the fleet's
//! blobs and restore hands them to the fleet by reference count.

// C1: a length, count or id narrowed by `as` wraps silently; use `try_from`.
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use crate::algo::Algorithm;
use crate::client::SnapshotBlob;
use crate::config::FedConfig;
use crate::fleet::Fleet;
use crate::sim::{RoundMetrics, RunState};
use bytes::BufMut;
use fca_tensor::serialize::{encode_tensor, Reader, WireError};
use fca_tensor::Tensor;

/// Magic bytes opening every encoded checkpoint.
const MAGIC: [u8; 4] = *b"FCKP";
/// Format version; bump on any layout change. v2 added the staleness
/// counters (per-point and cumulative) and the buffered-aggregation
/// straggler buffer to the encoded [`RunState`]; v3 added the logical and
/// physical byte tallies, per point and pending; v4 made the server state
/// tensor groups ([`put_groups`]) where each algorithm had a layout of its
/// own; v5 dropped v3's byte tallies again (the journal's `round` events
/// carry every round's bytes).
const VERSION: u16 = 5;
/// Cap on the algorithm-name field (corruption guard).
const MAX_NAME_LEN: usize = 256;
/// Bytes per encoded curve point (2×u64 + 2×f32 + 4×u64).
const CURVE_POINT_LEN: usize = 8 + 8 + 4 + 4 + 8 * 4;
/// Bytes of a [`RunState`]'s fixed fields: 12×u64 and the curve length.
const RUN_STATE_FIXED_LEN: usize = 8 * 12 + 4;
/// Minimum bytes per encoded straggler-buffer entry (3×u64 key + u32 len).
const BUFFER_ENTRY_MIN_LEN: usize = 8 + 8 + 8 + 4;

/// One client's entry in a checkpoint.
#[derive(Clone, Debug, PartialEq)]
pub struct ClientCheckpoint {
    /// The client's aggregation weight at checkpoint time.
    pub weight: f32,
    /// Snapshot blob, or `None` for a client that has never trained.
    pub blob: Option<SnapshotBlob>,
}

/// Full federation state at a round boundary. See module docs.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Display name of the algorithm that produced the state; restore
    /// refuses a mismatched algorithm.
    pub algo_name: String,
    /// The run's seed (restore refuses a mismatched config).
    pub seed: u64,
    /// Fleet size the checkpoint covers.
    pub num_clients: usize,
    /// Engine state: next round, epochs, curve, fault/traffic totals.
    pub state: RunState,
    /// The groups of [`Algorithm::server_state`], encoded (`u32 groups |
    /// per group: u8 present | u32 count | tensors`); a stateless
    /// algorithm's is the empty group list.
    pub algo_blob: Vec<u8>,
    /// Per-client weight + snapshot blob, indexed by client id.
    pub clients: Vec<ClientCheckpoint>,
}

impl Checkpoint {
    /// Capture the federation's state between rounds. `state` is the
    /// [`RunState`] returned by [`crate::sim::run_federation_from`] for
    /// the segment just finished.
    pub fn capture(
        fleet: &mut Fleet,
        algo: &dyn Algorithm,
        cfg: &FedConfig,
        state: &RunState,
    ) -> Result<Checkpoint, WireError> {
        let weights: Vec<f32> = (0..fleet.len()).map(|k| fleet.weight(k)).collect();
        let clients = weights
            .into_iter()
            .zip(fleet.export_snapshots())
            .map(|(weight, blob)| ClientCheckpoint { weight, blob })
            .collect();
        Ok(Checkpoint {
            algo_name: algo.name(),
            seed: cfg.seed,
            num_clients: fleet.len(),
            state: state.clone(),
            algo_blob: put_groups(&algo.server_state())?,
            clients,
        })
    }

    /// Restore the captured state onto a freshly constructed fleet and
    /// algorithm (built the same way the original run built them), and
    /// hand back the [`RunState`] to pass to
    /// [`crate::sim::run_federation_from`]. The fleet's residency cap may
    /// differ from the capturing run's.
    pub fn restore(
        &self,
        fleet: &mut Fleet,
        algo: &mut dyn Algorithm,
        cfg: &FedConfig,
    ) -> Result<RunState, WireError> {
        if algo.name() != self.algo_name {
            return Err(WireError::Malformed("checkpoint is for another algorithm"));
        }
        if cfg.seed != self.seed {
            return Err(WireError::Malformed("checkpoint is for another seed"));
        }
        if fleet.len() != self.num_clients {
            return Err(WireError::Malformed(
                "checkpoint client count does not match the fleet",
            ));
        }
        algo.load_server_state(take_groups(&self.algo_blob)?)?;
        for (k, c) in self.clients.iter().enumerate() {
            fleet.set_weight(k, c.weight);
        }
        fleet.restore_snapshots(self.clients.iter().map(|c| c.blob.clone()).collect())?;
        Ok(self.state.clone())
    }

    /// Encode to the strict binary format (see module docs).
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        if self.clients.len() != self.num_clients {
            return Err(WireError::Malformed(
                "checkpoint client list does not match its declared count",
            ));
        }
        let mut buf = Vec::with_capacity(self.encoded_len());
        buf.put_slice(&MAGIC);
        buf.put_u16_le(VERSION);
        buf.put_u64_le(self.seed);
        buf.put_u32_le(checked_u32(self.num_clients, "client count exceeds u32")?);
        if self.algo_name.len() > MAX_NAME_LEN {
            return Err(WireError::Unencodable("algorithm name exceeds 256 bytes"));
        }
        buf.put_u32_le(checked_u32(self.algo_name.len(), "name length")?);
        buf.put_slice(self.algo_name.as_bytes());
        encode_run_state(&mut buf, &self.state)?;
        put_bytes(&mut buf, &self.algo_blob)?;
        for c in &self.clients {
            buf.put_u32_le(c.weight.to_bits());
            buf.put_u8(u8::from(c.blob.is_some()));
            if let Some(blob) = &c.blob {
                put_bytes(&mut buf, blob)?;
            }
        }
        Ok(buf)
    }

    /// Exactly the bytes [`Checkpoint::encode`] writes.
    fn encoded_len(&self) -> usize {
        let buffered: usize = self.state.buffer.iter().map(|e| e.3.len()).sum();
        let blob_len = |c: &ClientCheckpoint| c.blob.as_ref().map_or(0, |b| 4 + b.len());
        (4 + 2 + 8 + 4 + 4 + self.algo_name.len())
            + (RUN_STATE_FIXED_LEN + CURVE_POINT_LEN * self.state.curve.len())
            + (4 + BUFFER_ENTRY_MIN_LEN * self.state.buffer.len() + buffered)
            + (4 + self.algo_blob.len())
            + self
                .clients
                .iter()
                .map(|c| 4 + 1 + blob_len(c))
                .sum::<usize>()
    }

    /// Strictly decode an encoded checkpoint: checked lengths before any
    /// allocation, version/magic verification, trailing-byte rejection.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, WireError> {
        let mut r = Reader::new(bytes);
        if r.bytes(4)? != MAGIC {
            return Err(WireError::Malformed("bad checkpoint magic"));
        }
        if r.u16()? != VERSION {
            return Err(WireError::Malformed("unsupported checkpoint version"));
        }
        let seed = r.u64()?;
        let num_clients = r.u32()? as usize;
        let name_len = r.u32()? as usize;
        if name_len > MAX_NAME_LEN {
            return Err(WireError::Malformed("algorithm name too long"));
        }
        let algo_name = std::str::from_utf8(r.bytes(name_len)?)
            .map_err(|_| WireError::Malformed("algorithm name is not utf-8"))?
            .to_string();
        let state = decode_run_state(&mut r)?;
        let algo_blob = take_bytes(&mut r)?;
        // The client count sits far in front of the entries, so nothing is
        // reserved for it: the list grows as entries are actually read.
        let clients = (0..num_clients)
            .map(|_| {
                let weight = f32::from_bits(r.u32()?);
                let blob = match r.u8()? {
                    0 => None,
                    1 => Some(SnapshotBlob::new(take_bytes(&mut r)?)),
                    _ => return Err(WireError::Malformed("bad option flag")),
                };
                Ok(ClientCheckpoint { weight, blob })
            })
            .collect::<Result<_, _>>()?;
        r.finish()?;
        Ok(Checkpoint {
            algo_name,
            seed,
            num_clients,
            state,
            algo_blob,
            clients,
        })
    }

    /// Encode and write to `path`, emitting a `checkpoint save` trace
    /// event. Encoding errors surface as `InvalidData`.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        let bytes = self
            .encode()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        std::fs::write(path, &bytes)?;
        fca_trace::emit(fca_trace::Event::Checkpoint {
            dir: "save".into(),
            round: self.state.next_round as u64,
            bytes: bytes.len() as u64,
            clients: self.num_clients as u64,
        });
        Ok(())
    }

    /// Read and strictly decode a checkpoint from `path`, emitting a
    /// `checkpoint load` trace event.
    pub fn load(path: &std::path::Path) -> std::io::Result<Checkpoint> {
        let bytes = std::fs::read(path)?;
        let ckpt = Checkpoint::decode(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        fca_trace::emit(fca_trace::Event::Checkpoint {
            dir: "load".into(),
            round: ckpt.state.next_round as u64,
            bytes: bytes.len() as u64,
            clients: ckpt.num_clients as u64,
        });
        Ok(ckpt)
    }
}

fn encode_run_state(buf: &mut Vec<u8>, s: &RunState) -> Result<(), WireError> {
    buf.put_u64_le(s.next_round as u64);
    buf.put_u64_le(s.epochs as u64);
    buf.put_u64_le(s.point_dropped);
    buf.put_u64_le(s.point_corrupt);
    buf.put_u64_le(s.point_stale);
    buf.put_u64_le(s.point_expired);
    buf.put_u64_le(s.total_dropped);
    buf.put_u64_le(s.total_corrupt);
    buf.put_u64_le(s.total_stale);
    buf.put_u64_le(s.total_expired);
    buf.put_u64_le(s.prior_downlink);
    buf.put_u64_le(s.prior_uplink);
    buf.put_u32_le(checked_u32(s.curve.len(), "curve length exceeds u32")?);
    for p in &s.curve {
        buf.put_u64_le(p.round as u64);
        buf.put_u64_le(p.epochs as u64);
        buf.put_u32_le(p.mean_acc.to_bits());
        buf.put_u32_le(p.std_acc.to_bits());
        buf.put_u64_le(p.dropped);
        buf.put_u64_le(p.corrupt);
        buf.put_u64_le(p.stale);
        buf.put_u64_le(p.expired);
    }
    buf.put_u32_le(checked_u32(s.buffer.len(), "buffer count exceeds u32")?);
    for (ready, origin, client, bytes) in &s.buffer {
        buf.put_u64_le(*ready);
        buf.put_u64_le(*origin);
        buf.put_u64_le(*client);
        put_bytes(buf, bytes)?;
    }
    Ok(())
}

fn decode_run_state(r: &mut Reader) -> Result<RunState, WireError> {
    // Fields are read in the order they are written here, which is the
    // order `encode_run_state` wrote them in.
    Ok(RunState {
        next_round: u64_usize(r)?,
        epochs: u64_usize(r)?,
        point_dropped: r.u64()?,
        point_corrupt: r.u64()?,
        point_stale: r.u64()?,
        point_expired: r.u64()?,
        total_dropped: r.u64()?,
        total_corrupt: r.u64()?,
        total_stale: r.u64()?,
        total_expired: r.u64()?,
        prior_downlink: r.u64()?,
        prior_uplink: r.u64()?,
        curve: (0..r.count(CURVE_POINT_LEN)?)
            .map(|_| {
                Ok(RoundMetrics {
                    round: u64_usize(r)?,
                    epochs: u64_usize(r)?,
                    mean_acc: f32::from_bits(r.u32()?),
                    std_acc: f32::from_bits(r.u32()?),
                    dropped: r.u64()?,
                    corrupt: r.u64()?,
                    stale: r.u64()?,
                    expired: r.u64()?,
                })
            })
            .collect::<Result<_, WireError>>()?,
        buffer: (0..r.count(BUFFER_ENTRY_MIN_LEN)?)
            .map(|_| Ok((r.u64()?, r.u64()?, r.u64()?, take_bytes(r)?)))
            .collect::<Result<_, WireError>>()?,
    })
}

/// A round or epoch count, written as a `u64` from a `usize`.
fn u64_usize(r: &mut Reader) -> Result<usize, WireError> {
    usize::try_from(r.u64()?)
        .map_err(|_| WireError::Malformed("round or epoch count exceeds usize"))
}

fn checked_u32(n: usize, what: &'static str) -> Result<u32, WireError> {
    u32::try_from(n).map_err(|_| WireError::Unencodable(what))
}

/// `u32 len | bytes`.
fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) -> Result<(), WireError> {
    buf.put_u32_le(checked_u32(b.len(), "blob length exceeds u32")?);
    buf.put_slice(b);
    Ok(())
}

fn take_bytes(r: &mut Reader) -> Result<Vec<u8>, WireError> {
    let len = r.count(1)?;
    Ok(r.bytes(len)?.to_vec())
}

/// The one codec of an algorithm's server state
/// ([`Algorithm::server_state`]): `u32 groups | per group: u8 present |
/// u32 count | count × tensor`, an absent group ending at its flag.
pub(crate) fn put_groups(groups: &[Option<Vec<&Tensor>>]) -> Result<Vec<u8>, WireError> {
    let mut buf = Vec::new();
    buf.put_u32_le(checked_u32(groups.len(), "state group count exceeds u32")?);
    for group in groups {
        buf.put_u8(u8::from(group.is_some()));
        if let Some(tensors) = group {
            buf.put_u32_le(checked_u32(tensors.len(), "tensor count exceeds u32")?);
            tensors
                .iter()
                .try_for_each(|t| encode_tensor(t, &mut buf))?;
        }
    }
    Ok(buf)
}

/// Inverse of [`put_groups`]. A group is at least its flag and a tensor at
/// least its rank byte, which bounds both counts by the blob's length.
pub(crate) fn take_groups(blob: &[u8]) -> Result<Vec<Option<Vec<Tensor>>>, WireError> {
    let mut r = Reader::new(blob);
    let groups = (0..r.count(1)?)
        .map(|_| match r.u8()? {
            0 => Ok(None),
            1 => (0..r.count(1)?)
                .map(|_| r.tensor())
                .collect::<Result<_, _>>()
                .map(Some),
            _ => Err(WireError::Malformed("bad option flag")),
        })
        .collect::<Result<_, _>>()?;
    r.finish()?;
    Ok(groups)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            algo_name: "FedClassAvg".into(),
            seed: 42,
            num_clients: 3,
            state: RunState {
                next_round: 5,
                epochs: 4,
                curve: vec![
                    RoundMetrics {
                        round: 0,
                        epochs: 0,
                        mean_acc: 0.25,
                        std_acc: 0.01,
                        ..RoundMetrics::default()
                    },
                    RoundMetrics {
                        round: 4,
                        epochs: 4,
                        mean_acc: 0.625,
                        std_acc: 0.125,
                        dropped: 2,
                        corrupt: 1,
                        stale: 3,
                        expired: 1,
                    },
                ],
                point_dropped: 0,
                point_corrupt: 0,
                point_stale: 1,
                point_expired: 0,
                total_dropped: 2,
                total_corrupt: 1,
                total_stale: 3,
                total_expired: 1,
                prior_downlink: 1234,
                prior_uplink: 987,
                buffer: vec![(6, 4, 2, vec![0xAA, 0xBB, 0xCC]), (7, 5, 0, Vec::new())],
            },
            algo_blob: vec![1, 2, 3, 4],
            clients: vec![
                ClientCheckpoint {
                    weight: 0.5,
                    blob: Some(SnapshotBlob::new(vec![9, 8, 7])),
                },
                ClientCheckpoint {
                    weight: 0.25,
                    blob: None,
                },
                ClientCheckpoint {
                    weight: 0.25,
                    blob: Some(SnapshotBlob::default()),
                },
            ],
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let ckpt = sample();
        let bytes = ckpt.encode().expect("encode");
        assert_eq!(bytes.len(), ckpt.encoded_len());
        assert_eq!(
            bytes.capacity(),
            bytes.len(),
            "encode was not sized exactly"
        );
        let back = Checkpoint::decode(&bytes).expect("decode");
        assert_eq!(back, ckpt);
    }

    #[test]
    fn decode_rejects_truncation_at_every_offset() {
        let bytes = sample().encode().expect("encode");
        for cut in 0..bytes.len() {
            assert!(
                Checkpoint::decode(&bytes[..cut]).is_err(),
                "accepted a checkpoint truncated to {cut} of {} bytes",
                bytes.len()
            );
        }
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let mut bytes = sample().encode().expect("encode");
        bytes.push(0);
        assert_eq!(
            Checkpoint::decode(&bytes),
            Err(WireError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn decode_rejects_bad_magic_and_version() {
        let good = sample().encode().expect("encode");
        assert_eq!(&good[..4], &MAGIC);
        let mut bad_magic = good.clone();
        bad_magic[0] = !MAGIC[0];
        assert_eq!(
            Checkpoint::decode(&bad_magic),
            Err(WireError::Malformed("bad checkpoint magic"))
        );
        // A checkpoint from a future format revision must be rejected, not
        // misread: flip the version field to one past the current VERSION.
        // So must one from the previous revision, whose curve points were
        // 16 bytes longer.
        for version in [VERSION + 1, VERSION - 1] {
            let mut bad_version = good.clone();
            bad_version[4..6].copy_from_slice(&version.to_le_bytes());
            assert_eq!(
                Checkpoint::decode(&bad_version),
                Err(WireError::Malformed("unsupported checkpoint version"))
            );
        }
    }

    #[test]
    fn decode_rejects_absurd_counts_without_allocating() {
        // Claim 2³²−1 clients with a near-empty body: rejected by the
        // remaining-bytes bound, not by an OOM.
        let mut ckpt = sample();
        ckpt.clients.clear();
        ckpt.num_clients = 0;
        let mut bytes = ckpt.encode().expect("encode");
        // num_clients field sits at offset 4 + 2 + 8.
        bytes[14..18].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Checkpoint::decode(&bytes).is_err());
    }

    #[test]
    fn decode_rejects_absurd_buffer_counts_without_allocating() {
        // With an empty algo blob, no clients, and an empty straggler buffer
        // the encoding ends `buffer_count (u32) | algo_blob len (u32)`;
        // claim 2³²−1 buffer entries against that tail.
        let mut ckpt = sample();
        ckpt.state.buffer.clear();
        ckpt.algo_blob.clear();
        ckpt.clients.clear();
        ckpt.num_clients = 0;
        let mut bytes = ckpt.encode().expect("encode");
        let n = bytes.len();
        bytes[n - 8..n - 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Checkpoint::decode(&bytes).is_err());
    }

    #[test]
    fn state_groups_round_trip_and_refuse_damage() {
        let t = Tensor::from_vec([2, 3], vec![1.0, -2.5, 3.25, 0.0, 4.5, 6.0]);
        let b = Tensor::from_vec([3], vec![0.5, 0.25, -1.0]);
        for groups in [
            vec![],
            vec![None],
            vec![Some(vec![])],
            vec![Some(vec![&t, &b]), None, Some(vec![&b])],
        ] {
            let blob = put_groups(&groups).expect("encode");
            let back = take_groups(&blob).expect("decode");
            let owned =
                |g: &Option<Vec<&Tensor>>| g.as_ref().map(|g| g.iter().copied().cloned().collect());
            assert_eq!(back, groups.iter().map(owned).collect::<Vec<_>>());
            for cut in 0..blob.len() {
                assert!(take_groups(&blob[..cut]).is_err(), "cut at {cut}");
            }
            let long = [&blob[..], &[0]].concat();
            assert_eq!(
                take_groups(&long),
                Err(WireError::TrailingBytes { extra: 1 })
            );
        }
        // Layout: `u32 groups | u8 present | u32 count | tensors`.
        let blob = put_groups(&[None, Some(vec![&b])]).expect("encode");
        assert_eq!(&blob[..10], &[2, 0, 0, 0, 0, 1, 1, 0, 0, 0]);
        assert_eq!(blob.len(), 4 + 1 + 1 + 4 + (1 + 4 + 4 * 3));
        // A flag that is neither, and counts no blob could hold.
        let mut bad_flag = blob.clone();
        bad_flag[4] = 2;
        assert_eq!(
            take_groups(&bad_flag),
            Err(WireError::Malformed("bad option flag"))
        );
        for at in [0, 6] {
            let mut absurd = blob.clone();
            absurd[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert_eq!(take_groups(&absurd), Err(WireError::Truncated), "at {at}");
        }
    }
}
