//! Checkpoint/resume of full federation state.
//!
//! A [`Checkpoint`] captures everything a run needs to continue after a
//! process restart: the run's identity (algorithm name, seed, fleet
//! size), the engine's [`RunState`] (next round, cumulative epochs, the
//! learning curve so far, fault and traffic totals), the algorithm's
//! mutable server state ([`crate::algo::Algorithm::checkpoint_state`]),
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
//! The encoding is strict in the same way the wire layer is: checked
//! length arithmetic before any allocation, every structural error mapped
//! into [`WireError`], and trailing bytes rejected. Client snapshot blobs
//! are opaque to the codec; [`Checkpoint::restore`] has the fleet restore
//! each onto a scratch twin before it accepts any, so a damaged file is
//! refused there and never reaches a hydration.
//!
//! A blob is copied twice on its way through a file and no more: into the
//! encoded buffer, and out of the decoded one. Capture shares the fleet's
//! blobs and restore hands them to the fleet by reference count.

use crate::algo::Algorithm;
use crate::client::SnapshotBlob;
use crate::config::FedConfig;
use crate::fleet::Fleet;
use crate::sim::{RoundMetrics, RunState};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use fca_tensor::serialize::{decode_tensor, encode_tensor, WireError};
use fca_tensor::Tensor;

/// Magic bytes opening every encoded checkpoint.
const MAGIC: [u8; 4] = *b"FCKP";
/// Format version; bump on any layout change. v2 added the staleness
/// counters (per-point and cumulative) and the buffered-aggregation
/// straggler buffer to the encoded [`RunState`]; v3 added the logical and
/// physical byte tallies, per point and pending.
const VERSION: u16 = 3;
/// Cap on the algorithm-name field (corruption guard).
const MAX_NAME_LEN: usize = 256;
/// Bytes per encoded curve point (2×u64 + 2×f32 + 6×u64).
const CURVE_POINT_LEN: usize = 8 + 8 + 4 + 4 + 8 * 6;
/// Bytes of a [`RunState`]'s fixed fields: 14×u64 and the curve length.
const RUN_STATE_FIXED_LEN: usize = 8 * 14 + 4;
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
    /// The algorithm's serialized server state (`None` = stateless).
    pub algo_blob: Option<Vec<u8>>,
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
            algo_blob: algo.checkpoint_state()?,
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
        if let Some(blob) = &self.algo_blob {
            algo.restore_checkpoint_state(blob)?;
        }
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
        put_opt_bytes(&mut buf, self.algo_blob.as_deref())?;
        for c in &self.clients {
            buf.put_u32_le(c.weight.to_bits());
            put_opt_bytes(&mut buf, c.blob.as_ref().map(|b| &b[..]))?;
        }
        Ok(buf)
    }

    /// Exactly the bytes [`Checkpoint::encode`] writes.
    fn encoded_len(&self) -> usize {
        let opt_len = |b: Option<usize>| 1 + b.map_or(0, |len| 4 + len);
        let buffered: usize = self.state.buffer.iter().map(|e| e.3.len()).sum();
        let blobs = self
            .clients
            .iter()
            .map(|c| c.blob.as_ref().map(|b| b.len()));
        (4 + 2 + 8 + 4 + 4 + self.algo_name.len())
            + (RUN_STATE_FIXED_LEN + CURVE_POINT_LEN * self.state.curve.len())
            + (4 + BUFFER_ENTRY_MIN_LEN * self.state.buffer.len() + buffered)
            + opt_len(self.algo_blob.as_ref().map(Vec::len))
            + blobs.map(|b| 4 + opt_len(b)).sum::<usize>()
    }

    /// Strictly decode an encoded checkpoint: checked lengths before any
    /// allocation, version/magic verification, trailing-byte rejection.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, WireError> {
        let mut buf = bytes;
        let mut magic = [0u8; 4];
        need(&buf, 4)?;
        buf.copy_to_slice(&mut magic);
        if magic != MAGIC {
            return Err(WireError::Malformed("bad checkpoint magic"));
        }
        need(&buf, 2)?;
        let version = buf.get_u16_le();
        if version != VERSION {
            return Err(WireError::Malformed("unsupported checkpoint version"));
        }
        need(&buf, 8 + 4)?;
        let seed = buf.get_u64_le();
        let num_clients = buf.get_u32_le() as usize;
        need(&buf, 4)?;
        let name_len = buf.get_u32_le() as usize;
        if name_len > MAX_NAME_LEN {
            return Err(WireError::Malformed("algorithm name too long"));
        }
        let algo_name = std::str::from_utf8(take_bytes(&mut buf, name_len)?)
            .map_err(|_| WireError::Malformed("algorithm name is not utf-8"))?
            .to_string();
        let state = decode_run_state(&mut buf)?;
        let algo_blob = take_opt_bytes(&mut buf)?;
        // Each client entry is at least 5 bytes (weight + flag) — reject a
        // count the remaining buffer cannot possibly satisfy before
        // reserving anything.
        if num_clients
            .checked_mul(5)
            .is_none_or(|min| min > buf.remaining())
        {
            return Err(WireError::Truncated);
        }
        let mut clients = Vec::with_capacity(num_clients);
        for _ in 0..num_clients {
            need(&buf, 4)?;
            let weight = f32::from_bits(buf.get_u32_le());
            let blob = take_opt_bytes(&mut buf)?.map(SnapshotBlob::new);
            clients.push(ClientCheckpoint { weight, blob });
        }
        if buf.has_remaining() {
            return Err(WireError::TrailingBytes {
                extra: buf.remaining(),
            });
        }
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
        fca_trace::emit_checkpoint(
            "save",
            self.state.next_round as u64,
            bytes.len() as u64,
            self.num_clients as u64,
        );
        Ok(())
    }

    /// Read and strictly decode a checkpoint from `path`, emitting a
    /// `checkpoint load` trace event.
    pub fn load(path: &std::path::Path) -> std::io::Result<Checkpoint> {
        let bytes = std::fs::read(path)?;
        let ckpt = Checkpoint::decode(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        fca_trace::emit_checkpoint(
            "load",
            ckpt.state.next_round as u64,
            bytes.len() as u64,
            ckpt.num_clients as u64,
        );
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
    buf.put_u64_le(s.point_logical_bytes);
    buf.put_u64_le(s.point_physical_bytes);
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
        buf.put_u64_le(p.logical_bytes);
        buf.put_u64_le(p.physical_bytes);
    }
    buf.put_u32_le(checked_u32(s.buffer.len(), "buffer count exceeds u32")?);
    for (ready, origin, client, bytes) in &s.buffer {
        buf.put_u64_le(*ready);
        buf.put_u64_le(*origin);
        buf.put_u64_le(*client);
        buf.put_u32_le(checked_u32(bytes.len(), "buffer entry exceeds u32")?);
        buf.put_slice(bytes);
    }
    Ok(())
}

fn decode_run_state(buf: &mut &[u8]) -> Result<RunState, WireError> {
    need(buf, RUN_STATE_FIXED_LEN)?;
    let next_round = buf.get_u64_le() as usize;
    let epochs = buf.get_u64_le() as usize;
    let point_dropped = buf.get_u64_le();
    let point_corrupt = buf.get_u64_le();
    let point_stale = buf.get_u64_le();
    let point_expired = buf.get_u64_le();
    let point_logical_bytes = buf.get_u64_le();
    let point_physical_bytes = buf.get_u64_le();
    let total_dropped = buf.get_u64_le();
    let total_corrupt = buf.get_u64_le();
    let total_stale = buf.get_u64_le();
    let total_expired = buf.get_u64_le();
    let prior_downlink = buf.get_u64_le();
    let prior_uplink = buf.get_u64_le();
    let curve_len = buf.get_u32_le() as usize;
    // Length math is checked before the allocation: a corrupt count either
    // overflows (rejected) or demands more bytes than remain (rejected).
    if curve_len
        .checked_mul(CURVE_POINT_LEN)
        .is_none_or(|need_bytes| need_bytes > buf.remaining())
    {
        return Err(WireError::Truncated);
    }
    let mut curve = Vec::with_capacity(curve_len);
    for _ in 0..curve_len {
        curve.push(RoundMetrics {
            round: buf.get_u64_le() as usize,
            epochs: buf.get_u64_le() as usize,
            mean_acc: f32::from_bits(buf.get_u32_le()),
            std_acc: f32::from_bits(buf.get_u32_le()),
            dropped: buf.get_u64_le(),
            corrupt: buf.get_u64_le(),
            stale: buf.get_u64_le(),
            expired: buf.get_u64_le(),
            logical_bytes: buf.get_u64_le(),
            physical_bytes: buf.get_u64_le(),
        });
    }
    need(buf, 4)?;
    let buffer_len = buf.get_u32_le() as usize;
    // Same checked bound for the straggler buffer: every entry carries at
    // least its fixed key + length prefix.
    if buffer_len
        .checked_mul(BUFFER_ENTRY_MIN_LEN)
        .is_none_or(|need_bytes| need_bytes > buf.remaining())
    {
        return Err(WireError::Truncated);
    }
    let mut buffer = Vec::with_capacity(buffer_len);
    for _ in 0..buffer_len {
        need(buf, BUFFER_ENTRY_MIN_LEN)?;
        let ready = buf.get_u64_le();
        let origin = buf.get_u64_le();
        let client = buf.get_u64_le();
        let len = buf.get_u32_le() as usize;
        buffer.push((ready, origin, client, take_bytes(buf, len)?.to_vec()));
    }
    Ok(RunState {
        next_round,
        epochs,
        curve,
        point_dropped,
        point_corrupt,
        point_stale,
        point_expired,
        point_logical_bytes,
        point_physical_bytes,
        total_dropped,
        total_corrupt,
        total_stale,
        total_expired,
        prior_downlink,
        prior_uplink,
        buffer,
    })
}

/// `Err(Truncated)` unless `buf` holds at least `n` more bytes.
fn need(buf: &impl Buf, n: usize) -> Result<(), WireError> {
    if buf.remaining() < n {
        return Err(WireError::Truncated);
    }
    Ok(())
}

/// Split the next `n` bytes off the front of `buf`, borrowed.
fn take_bytes<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    need(buf, n)?;
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

fn checked_u32(n: usize, what: &'static str) -> Result<u32, WireError> {
    u32::try_from(n).map_err(|_| WireError::Unencodable(what))
}

/// `u8` presence flag, then `u32 len | bytes` when present.
fn put_opt_bytes(buf: &mut Vec<u8>, b: Option<&[u8]>) -> Result<(), WireError> {
    match b {
        None => buf.put_u8(0),
        Some(b) => {
            buf.put_u8(1);
            buf.put_u32_le(checked_u32(b.len(), "blob length exceeds u32")?);
            buf.put_slice(b);
        }
    }
    Ok(())
}

fn take_opt_bytes(buf: &mut &[u8]) -> Result<Option<Vec<u8>>, WireError> {
    need(buf, 1)?;
    match buf.get_u8() {
        0 => Ok(None),
        1 => {
            need(buf, 4)?;
            let len = buf.get_u32_le() as usize;
            Ok(Some(take_bytes(buf, len)?.to_vec()))
        }
        _ => Err(WireError::Malformed("bad option flag")),
    }
}

// ---- tensor-blob helpers shared by the algorithms' checkpoint codecs ----

/// Encode one tensor (wire format) into an algorithm state blob.
pub(crate) fn put_tensor(buf: &mut BytesMut, t: &Tensor) -> Result<(), WireError> {
    encode_tensor(t, buf)
}

/// Decode one tensor from an algorithm state blob.
pub(crate) fn take_tensor(buf: &mut Bytes) -> Result<Tensor, WireError> {
    decode_tensor(buf)
}

/// `u32 count | count × tensor`.
pub(crate) fn put_tensor_list(buf: &mut BytesMut, ts: &[Tensor]) -> Result<(), WireError> {
    buf.put_u32_le(checked_u32(ts.len(), "tensor count exceeds u32")?);
    for t in ts {
        encode_tensor(t, buf)?;
    }
    Ok(())
}

/// Inverse of [`put_tensor_list`]. Each tensor header is at least 1 byte,
/// so the count is bounded by the remaining buffer before any allocation.
pub(crate) fn take_tensor_list(buf: &mut Bytes) -> Result<Vec<Tensor>, WireError> {
    need(buf, 4)?;
    let count = buf.get_u32_le() as usize;
    if count > buf.remaining() {
        return Err(WireError::Truncated);
    }
    let mut ts = Vec::with_capacity(count);
    for _ in 0..count {
        ts.push(decode_tensor(buf)?);
    }
    Ok(ts)
}

/// `u8 presence flag`, then the tensor when present.
pub(crate) fn put_opt_tensor(buf: &mut BytesMut, t: Option<&Tensor>) -> Result<(), WireError> {
    match t {
        None => {
            buf.put_u8(0);
            Ok(())
        }
        Some(t) => {
            buf.put_u8(1);
            encode_tensor(t, buf)
        }
    }
}

/// Inverse of [`put_opt_tensor`].
pub(crate) fn take_opt_tensor(buf: &mut Bytes) -> Result<Option<Tensor>, WireError> {
    need(buf, 1)?;
    match buf.get_u8() {
        0 => Ok(None),
        1 => Ok(Some(decode_tensor(buf)?)),
        _ => Err(WireError::Malformed("bad option flag")),
    }
}

/// `u8` grab for algorithm codecs.
pub(crate) fn take_u8(buf: &mut Bytes) -> Result<u8, WireError> {
    need(buf, 1)?;
    Ok(buf.get_u8())
}

/// Reject undecoded trailing bytes at the end of a state blob.
pub(crate) fn expect_empty(buf: &Bytes) -> Result<(), WireError> {
    if buf.has_remaining() {
        return Err(WireError::TrailingBytes {
            extra: buf.remaining(),
        });
    }
    Ok(())
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
                        logical_bytes: 44_800,
                        physical_bytes: 23_744,
                    },
                ],
                point_dropped: 0,
                point_corrupt: 0,
                point_stale: 1,
                point_expired: 0,
                point_logical_bytes: 11_200,
                point_physical_bytes: 5_936,
                total_dropped: 2,
                total_corrupt: 1,
                total_stale: 3,
                total_expired: 1,
                prior_downlink: 1234,
                prior_uplink: 987,
                buffer: vec![(6, 4, 2, vec![0xAA, 0xBB, 0xCC]), (7, 5, 0, Vec::new())],
            },
            algo_blob: Some(vec![1, 2, 3, 4]),
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
        let mut bad_version = good;
        bad_version[4..6].copy_from_slice(&(VERSION + 1).to_le_bytes());
        assert_eq!(
            Checkpoint::decode(&bad_version),
            Err(WireError::Malformed("unsupported checkpoint version"))
        );
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
        // With no algo blob, no clients, and an empty straggler buffer the
        // encoding ends `buffer_count (u32) | algo_blob flag (u8)`; claim
        // 2³²−1 buffer entries against an empty tail.
        let mut ckpt = sample();
        ckpt.state.buffer.clear();
        ckpt.algo_blob = None;
        ckpt.clients.clear();
        ckpt.num_clients = 0;
        let mut bytes = ckpt.encode().expect("encode");
        let n = bytes.len();
        bytes[n - 5..n - 1].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Checkpoint::decode(&bytes).is_err());
    }

    #[test]
    fn tensor_helpers_round_trip() {
        let t = Tensor::from_vec([2, 3], vec![1.0, -2.5, 3.25, 0.0, 4.5, 6.0]);
        let mut buf = BytesMut::new();
        put_tensor_list(&mut buf, std::slice::from_ref(&t)).expect("encode");
        put_opt_tensor(&mut buf, None).expect("encode");
        put_opt_tensor(&mut buf, Some(&t)).expect("encode");
        let mut bytes = buf.freeze();
        assert_eq!(take_tensor_list(&mut bytes).expect("list"), vec![t.clone()]);
        assert_eq!(take_opt_tensor(&mut bytes).expect("none"), None);
        assert_eq!(take_opt_tensor(&mut bytes).expect("some"), Some(t));
        expect_empty(&bytes).expect("fully consumed");
    }
}
