//! Frames: the buffers messages cross the transport in, recycled.
//!
//! A [`Frame`] is an immutable, shareable view of one encoded message (or
//! of a socket payload holding one), like `Bytes`, except that the buffer
//! under it goes back to a pool when its last view drops. A full-model
//! round moves megabytes of frames — the broadcast, one uplink per client,
//! a socket's reads — and without the pool each round's land on pages the
//! allocator has just handed back to the kernel, which fault in afresh
//! (DESIGN.md §7.7).
//!
//! Who owns a frame, and when it returns:
//!
//! * A writer takes an empty buffer with [`buffer_for`], fills it, and
//!   freezes it with `Frame::from`: the broadcast's encode, the channel
//!   backend's uplink, a socket reader's payload.
//! * A frame is handed on by value — into a mailbox, an uplink queue, the
//!   staleness buffer — and read in place by whoever holds it: a client
//!   decodes its downlink into its model, the server checks, decodes or
//!   folds an uplink from it.
//! * When the last view drops, the buffer returns to the pool, unless it
//!   is small ([`POOLED_MIN`]) or the pool already holds as many buffers
//!   as were out at once in the current round or the one before it.
//!
//! The pool is the process's, not a transport's: every federation run
//! builds its own transport, and a pool that died with it would hand each
//! run's first round fresh pages again. Its bound follows the rounds
//! instead: [`round_begins`] (called as [`crate::comm::Network::begin_round`]
//! opens each round) frees the idle buffers past what the last two rounds
//! had in flight, so after a wide run the next, narrower one keeps only
//! what it needs from its second round on. Its lock is a leaf: it is taken
//! only inside [`buffer_for`], [`round_begins`] and a buffer's drop, with
//! nothing else held by this module and nothing taken under it.

use bytes::Bytes;
use fca_tensor::serialize::WireError;
use std::ops::{Deref, Range};
use std::sync::{Arc, Mutex};

/// Buffers below this capacity are not pooled: the allocator recycles
/// them well on its own, and only a large block comes back as fresh
/// pages.
pub const POOLED_MIN: usize = 64 << 10;

/// Idle pooled buffers, and how many are out in frames.
struct Pool {
    idle: Vec<Vec<u8>>,
    /// Pooled-size buffers held by live frames.
    live: usize,
    /// The most `live` has been since the current round began, and in the
    /// round before: the pool keeps no more buffers, idle and live
    /// together, than the larger of the two.
    peak: usize,
    last_peak: usize,
}

impl Pool {
    const fn new() -> Pool {
        Pool {
            idle: Vec::new(),
            live: 0,
            peak: 0,
            last_peak: 0,
        }
    }

    /// How many buffers the pool may hold, idle and live together.
    fn bound(&self) -> usize {
        self.peak.max(self.last_peak)
    }

    /// The idle buffer that fits `len` best: the smallest that holds it,
    /// else the largest.
    fn take(&mut self, len: usize) -> Option<Vec<u8>> {
        let fits = |v: &&Vec<u8>| v.capacity() >= len;
        let idle = self.idle.iter().enumerate();
        let best = idle
            .clone()
            .filter(|(_, v)| fits(v))
            .min_by_key(|(_, v)| v.capacity())
            .or_else(|| idle.max_by_key(|(_, v)| v.capacity()))
            .map(|(i, _)| i)?;
        Some(self.idle.swap_remove(best))
    }

    /// A pooled-size buffer is now held by a frame.
    fn lend(&mut self) {
        self.live += 1;
        self.peak = self.peak.max(self.live);
    }

    /// A frame let go of `buf`: kept if the bound has room, else handed
    /// back to be freed.
    fn give_back(&mut self, buf: Vec<u8>) -> Option<Vec<u8>> {
        self.live -= 1;
        if self.idle.len() + self.live < self.bound() {
            self.idle.push(buf);
            return None;
        }
        Some(buf)
    }

    /// A round begins: the one that ended becomes the last, and the idle
    /// buffers past the new bound are handed back to be freed.
    fn round_begins(&mut self) -> Vec<Vec<u8>> {
        self.last_peak = self.peak;
        self.peak = self.live;
        let keep = self.bound().saturating_sub(self.live);
        self.idle.split_off(keep.min(self.idle.len()))
    }
}

static POOL: Mutex<Pool> = Mutex::new(Pool::new());

fn pool() -> std::sync::MutexGuard<'static, Pool> {
    // The pool's state stays consistent across a panic: each critical
    // section is one push, pop or count update.
    POOL.lock().unwrap_or_else(|p| p.into_inner())
}

/// An empty buffer to write a message of about `len` bytes into: for a
/// pooled size, the idle buffer that fits it best (the smallest that
/// holds `len`, else the largest), otherwise a new one. Nothing is
/// reserved: a writer that trusts `len` reserves it, a socket reader
/// reserves as the bytes arrive.
pub fn buffer_for(len: usize) -> Vec<u8> {
    if len < POOLED_MIN {
        return Vec::new();
    }
    let mut buf = pool().take(len).unwrap_or_default();
    buf.clear();
    buf
}

/// Mark the start of a round: the pool keeps from now on no more buffers
/// than the round that just ended or the one before it had in flight, and
/// frees its idle ones past that.
pub fn round_begins() {
    let freed = pool().round_begins();
    // Freed after the lock is released.
    drop(freed);
}

/// The owner of a frame's bytes; gives them back to the pool on drop.
struct Buffer(Vec<u8>);

impl Drop for Buffer {
    fn drop(&mut self) {
        if self.0.capacity() < POOLED_MIN {
            return;
        }
        let buf = std::mem::take(&mut self.0);
        // A buffer past the bound is freed after the lock is released.
        let freed = pool().give_back(buf);
        drop(freed);
    }
}

/// A shared, immutable view of bytes in a (possibly pooled) buffer. Clones
/// share the buffer; see the module docs for its lifecycle.
#[derive(Clone)]
pub struct Frame {
    buf: Arc<Buffer>,
    range: Range<usize>,
}

impl Frame {
    /// Encode a message of `len` bytes (a reservation hint) with `fill`,
    /// which appends it to the buffer it is handed, into a frame.
    pub fn encode(
        len: usize,
        fill: impl FnOnce(&mut Vec<u8>) -> Result<(), WireError>,
    ) -> Result<Frame, WireError> {
        let mut buf = buffer_for(len);
        buf.reserve(len);
        fill(&mut buf)?;
        Ok(Frame::from(buf))
    }

    /// The bytes at `range` of this frame, sharing its buffer.
    ///
    /// # Panics
    ///
    /// When `range` does not lie inside the frame.
    pub fn slice(&self, range: Range<usize>) -> Frame {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "frame slice out of range"
        );
        Frame {
            buf: Arc::clone(&self.buf),
            range: self.range.start + range.start..self.range.start + range.end,
        }
    }

    /// A copy of the bytes as a `Bytes`, for callers that keep one.
    pub fn to_bytes(&self) -> Bytes {
        Bytes::copy_from_slice(self)
    }
}

impl From<Vec<u8>> for Frame {
    fn from(bytes: Vec<u8>) -> Frame {
        if bytes.capacity() >= POOLED_MIN {
            pool().lend();
        }
        Frame {
            range: 0..bytes.len(),
            buf: Arc::new(Buffer(bytes)),
        }
    }
}

impl From<&[u8]> for Frame {
    /// A copy of `bytes` in a pooled buffer.
    fn from(bytes: &[u8]) -> Frame {
        let mut buf = buffer_for(bytes.len());
        buf.extend_from_slice(bytes);
        Frame::from(buf)
    }
}

impl Deref for Frame {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf.0[self.range.clone()]
    }
}

impl AsRef<[u8]> for Frame {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl PartialEq for Frame {
    fn eq(&self, other: &Frame) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for Frame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Frame({} bytes)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_view_keeps_its_buffer_alive_after_the_frame_drops() {
        let mut bytes = vec![0u8; 3 * POOLED_MIN];
        bytes[8..16].copy_from_slice(b"abcdefgh");
        let frame = Frame::from(bytes);
        let view = frame.slice(8..16);
        drop(frame);
        assert_eq!(&*view, b"abcdefgh");
        assert_eq!(view.slice(2..4), Frame::from(&b"cd"[..]));
    }

    #[test]
    fn small_frames_stay_out_of_the_pool() {
        assert_eq!(buffer_for(POOLED_MIN - 1).capacity(), 0);
        let small = Frame::from(&b"hello"[..]);
        assert_eq!(&*small, b"hello");
        assert_eq!(small.slice(1..3).to_bytes(), Bytes::from_static(b"el"));
    }

    /// A wide round's buffers outlive it by one round at most: the pool
    /// then holds what the narrower rounds after it had in flight.
    #[test]
    fn the_bound_follows_the_last_two_rounds() {
        let mut pool = Pool::new();
        let round = |pool: &mut Pool, frames: usize| {
            drop(pool.round_begins());
            let bufs: Vec<Vec<u8>> = (0..frames)
                .map(|_| {
                    let buf = pool.take(POOLED_MIN).unwrap_or_default();
                    pool.lend();
                    buf
                })
                .collect();
            for buf in bufs {
                drop(pool.give_back(buf));
            }
            pool.idle.len()
        };
        assert_eq!(round(&mut pool, 6), 6);
        assert_eq!(round(&mut pool, 2), 6, "the wide round is the last one");
        assert_eq!(round(&mut pool, 2), 2, "the wide round is two back");
        assert_eq!(round(&mut pool, 3), 3);
        assert_eq!(pool.live, 0);
    }

    #[test]
    fn encode_keeps_what_fill_wrote_and_reports_its_error() {
        let frame = Frame::encode(4, |b| {
            b.extend_from_slice(&[1, 2, 3, 4]);
            Ok(())
        })
        .expect("the fill succeeds");
        assert_eq!(&*frame, &[1, 2, 3, 4]);
        let err = Frame::encode(4, |_| Err(WireError::Truncated));
        assert!(matches!(err, Err(WireError::Truncated)));
    }
}
