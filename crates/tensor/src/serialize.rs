//! Wire serialization for tensors.
//!
//! The FL communication layer measures *actual serialized bytes* per round
//! (paper Table 5), so tensors get a compact little-endian wire format:
//!
//! ```text
//! u8 rank | rank × u32 dims | numel × f32 data
//! ```

// C1: a length, count or id narrowed by `as` wraps silently; use `try_from`.
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use crate::shape::Shape;
use crate::tensor::Tensor;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Errors produced while decoding a tensor (or a tensor-carrying message)
/// from the wire.
#[derive(Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the declared payload was complete.
    Truncated,
    /// The declared shape is implausibly large (corruption guard).
    ShapeTooLarge,
    /// The message tag byte names no known message type.
    UnknownTag(u8),
    /// The tagged message type carries a fixed tensor count and the header
    /// declared a different one.
    CountMismatch {
        /// Tensor count the tag requires.
        expected: usize,
        /// Tensor count the header declared.
        got: usize,
    },
    /// The buffer decoded to a complete message but bytes remain. On a
    /// framed stream this means the frame boundary and the message
    /// boundary disagree — accepting it would let a peer smuggle bytes
    /// or desynchronize the stream.
    TrailingBytes {
        /// Number of undecoded bytes left after the message.
        extra: usize,
    },
    /// A frame header declared a length above the transport's cap.
    FrameTooLarge {
        /// Declared frame length in bytes.
        len: u64,
        /// The cap it exceeded.
        cap: u64,
    },
    /// The value cannot be represented in the wire format (tensor rank
    /// above 255 or a dimension extent above 2³² − 1). Encode-side: the
    /// old behaviour silently truncated via `as` casts, corrupting the
    /// frame for the peer.
    Unencodable(&'static str),
    /// A structured blob (frame hello, checkpoint, …) is syntactically
    /// valid but semantically wrong — bad magic, unsupported version,
    /// mismatched identity.
    Malformed(&'static str),
    /// The peer's channel is closed: the process on the other side is
    /// gone (crashed client, shut-down server). Transport-level rather
    /// than decode-level, but surfaced through the same error type so
    /// send paths stay panic-free.
    ChannelClosed,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire buffer truncated"),
            WireError::ShapeTooLarge => write!(f, "declared tensor shape too large"),
            WireError::UnknownTag(tag) => write!(f, "unknown wire message tag {tag}"),
            WireError::CountMismatch { expected, got } => {
                write!(
                    f,
                    "wire message declares {got} tensors, tag requires {expected}"
                )
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after a complete message")
            }
            WireError::FrameTooLarge { len, cap } => {
                write!(f, "frame of {len} bytes exceeds the {cap}-byte cap")
            }
            WireError::Unencodable(what) => {
                write!(f, "value not representable on the wire: {what}")
            }
            WireError::Malformed(what) => write!(f, "malformed blob: {what}"),
            WireError::ChannelClosed => write!(f, "peer channel closed"),
        }
    }
}

impl std::error::Error for WireError {}

/// Maximum element count accepted by the decoder (guards against
/// corrupted length prefixes allocating unbounded memory).
pub const MAX_WIRE_NUMEL: usize = 1 << 28;

/// Number of bytes [`encode_tensor`] will produce for this tensor.
pub fn encoded_len(t: &Tensor) -> usize {
    1 + 4 * t.shape().rank() + 4 * t.numel()
}

/// Check that a tensor's shape fits the wire header (`u8` rank,
/// `u32` dims). The old encoder truncated via `as` casts instead,
/// silently corrupting the frame for the peer.
fn check_encodable(t: &Tensor) -> Result<(), WireError> {
    if t.shape().rank() > u8::MAX as usize {
        return Err(WireError::Unencodable("tensor rank exceeds 255"));
    }
    if t.dims().iter().any(|&d| d > u32::MAX as usize) {
        return Err(WireError::Unencodable("tensor dimension exceeds u32"));
    }
    Ok(())
}

/// Append the shared `u8 rank | u32 dims…` header. The checked
/// conversions mirror [`check_encodable`], which the encoders run before
/// writing anything, so a failed encode never leaves `buf` holding a
/// partial header.
fn put_header<B: BufMut>(t: &Tensor, buf: &mut B) -> Result<(), WireError> {
    let rank = u8::try_from(t.shape().rank())
        .map_err(|_| WireError::Unencodable("tensor rank exceeds 255"))?;
    buf.put_u8(rank);
    for &d in t.dims() {
        let d =
            u32::try_from(d).map_err(|_| WireError::Unencodable("tensor dimension exceeds u32"))?;
        buf.put_u32_le(d);
    }
    Ok(())
}

/// Read the shared header: the declared shape and its element count,
/// bounded by [`MAX_WIRE_NUMEL`].
fn take_header<B: Buf>(buf: &mut B) -> Result<(Shape, usize), WireError> {
    if buf.remaining() < 1 {
        return Err(WireError::Truncated);
    }
    let rank = buf.get_u8() as usize;
    if buf.remaining() < 4 * rank {
        return Err(WireError::Truncated);
    }
    let dims: Vec<usize> = (0..rank).map(|_| buf.get_u32_le() as usize).collect();
    let shape = Shape::new(&dims);
    // Checked product: dims come off the wire, so the product can wrap
    // `usize` and slide a huge payload under MAX_WIRE_NUMEL. Overflow is
    // by definition too large, so it maps to the same error.
    match shape.checked_numel() {
        Some(n) if n <= MAX_WIRE_NUMEL => Ok((shape, n)),
        _ => Err(WireError::ShapeTooLarge),
    }
}

/// Values the f32 payload loops convert per block: a payload moves as
/// 1 KiB slices, not as one `put`/`get` call per value.
const BLOCK: usize = 256;

/// Append the tensor's wire encoding to `buf`. The sink grows as it needs
/// to; a caller that knows the total ([`encoded_len`]) sizes it up front.
pub fn encode_tensor<B: BufMut>(t: &Tensor, buf: &mut B) -> Result<(), WireError> {
    check_encodable(t)?;
    put_header(t, buf)?;
    let mut block = [0u8; 4 * BLOCK];
    for values in t.data().chunks(BLOCK) {
        let bytes = &mut block[..4 * values.len()];
        for (b, v) in bytes.chunks_exact_mut(4).zip(values) {
            b.copy_from_slice(&v.to_le_bytes());
        }
        buf.put_slice(bytes);
    }
    Ok(())
}

/// Encode a tensor into a standalone buffer.
pub fn to_bytes(t: &Tensor) -> Result<Bytes, WireError> {
    let mut buf = BytesMut::with_capacity(encoded_len(t));
    encode_tensor(t, &mut buf)?;
    Ok(buf.freeze())
}

/// Fill `dst` from the front of `buf`, which the caller has checked holds
/// `4 · dst.len()` bytes.
fn take_f32s<B: Buf>(buf: &mut B, dst: &mut [f32]) {
    let mut block = [0u8; 4 * BLOCK];
    for values in dst.chunks_mut(BLOCK) {
        let bytes = &mut block[..4 * values.len()];
        buf.copy_to_slice(bytes);
        for (v, b) in values.iter_mut().zip(bytes.chunks_exact(4)) {
            *v = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        }
    }
}

/// Decode one tensor from the front of `buf`, advancing it.
pub fn decode_tensor<B: Buf>(buf: &mut B) -> Result<Tensor, WireError> {
    let (shape, numel) = take_header(buf)?;
    if buf.remaining() < 4 * numel {
        return Err(WireError::Truncated);
    }
    let mut data = vec![0.0; numel];
    take_f32s(buf, &mut data);
    Ok(Tensor::from_vec(shape, data))
}

/// Take the header at the front of `buf`, hold it against `like`'s shape
/// and check that the whole payload follows; returns the element count.
fn take_header_like<B: Buf>(buf: &mut B, like: &Tensor) -> Result<usize, WireError> {
    let (shape, numel) = take_header(buf)?;
    if shape.dims() != like.dims() {
        return Err(WireError::Malformed(
            "tensor shape does not match its destination",
        ));
    }
    if buf.remaining() < 4 * numel {
        return Err(WireError::Truncated);
    }
    Ok(numel)
}

/// Decode one tensor from the front of `buf` into `dst`, which must
/// already have the encoded shape: the reader restores state onto a twin
/// of known architecture, so a header that disagrees is corruption, not a
/// resize. On `Err`, `dst` is untouched.
pub fn decode_tensor_into<B: Buf>(buf: &mut B, dst: &mut Tensor) -> Result<(), WireError> {
    take_header_like(buf, dst)?;
    take_f32s(buf, dst.data_mut());
    Ok(())
}

/// Step over one encoded tensor of `like`'s shape without reading its
/// values: every check [`decode_tensor_into`] makes, none of its writes.
/// A reader that must refuse a message whole walks it with this first.
pub fn skip_tensor_like<B: Buf>(buf: &mut B, like: &Tensor) -> Result<(), WireError> {
    let numel = take_header_like(buf, like)?;
    buf.advance(4 * numel);
    Ok(())
}

// --------------------------------------------------------------------
// Half-precision (IEEE 754 binary16) wire variant.
//
// FedClassAvg's selling point is communication efficiency; halving the
// payload with f16 is the natural next step the paper's §5.4 cost model
// invites. Conversion is implemented in-repo (no `half` dependency) and
// is exact for zeros/infinities, round-to-nearest-even otherwise.
// --------------------------------------------------------------------

/// Convert an `f32` to IEEE binary16 bits (round-to-nearest-even,
/// overflow to ±inf, flush of sub-subnormals to ±0).
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let mant = bits & 0x007F_FFFF;

    if exp == 0xFF {
        // Inf / NaN.
        return sign | 0x7C00 | if mant != 0 { 0x0200 } else { 0 };
    }
    // Re-bias: f32 exp-127, f16 exp-15.
    let unbiased = exp - 127;
    if unbiased > 15 {
        return sign | 0x7C00; // overflow → inf
    }
    if unbiased >= -14 {
        // Normal f16: keep 10 mantissa bits with round-to-nearest-even.
        let exp16 = (unbiased + 15) as u32;
        let mant16 = mant >> 13;
        let round_bit = (mant >> 12) & 1;
        let sticky = mant & 0x0FFF;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "exp16 ≤ 30 and mant16 < 2^10, so the value is below 2^15"
        )]
        let mut out = ((exp16 << 10) | mant16) as u16;
        if round_bit == 1 && (sticky != 0 || (mant16 & 1) == 1) {
            out += 1; // may carry into the exponent — that is correct
        }
        sign | out
    } else if unbiased >= -24 {
        // Subnormal f16: value = mant16 · 2⁻²⁴, so the 24-bit significand
        // (implicit bit included) shifts right by −unbiased−1 ∈ 14..=23.
        let shift = (-1 - unbiased) as u32;
        let full = mant | 0x0080_0000;
        let mant16 = full >> shift;
        let round_bit = (full >> (shift - 1)) & 1;
        let sticky = full & ((1 << (shift - 1)) - 1);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a 24-bit significand shifted right by at least 14 is below 2^10"
        )]
        let mut out = mant16 as u16;
        if round_bit == 1 && (sticky != 0 || (out & 1) == 1) {
            out += 1;
        }
        sign | out
    } else {
        sign // underflow → ±0
    }
}

/// Convert IEEE binary16 bits back to `f32` (exact).
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h as u32) & 0x8000) << 16;
    let exp = ((h >> 10) & 0x1F) as u32;
    let mant = (h & 0x03FF) as u32;
    let bits = if exp == 0x1F {
        sign | 0x7F80_0000 | (mant << 13)
    } else if exp == 0 {
        if mant == 0 {
            sign
        } else {
            // Subnormal: value = mant·2⁻²⁴; normalize so bit 10 is the
            // implicit leading one, giving exponent −14−k for k shifts.
            let mut k = 0i32;
            let mut m = mant;
            while m & 0x0400 == 0 {
                m <<= 1;
                k += 1;
            }
            let exp32 = (127 - 14 - k) as u32;
            sign | (exp32 << 23) | ((m & 0x03FF) << 13)
        }
    } else {
        sign | ((exp + 127 - 15) << 23) | (mant << 13)
    };
    f32::from_bits(bits)
}

/// Bytes [`encode_tensor_f16`] will produce.
pub fn encoded_len_f16(t: &Tensor) -> usize {
    1 + 4 * t.shape().rank() + 2 * t.numel()
}

/// Append the tensor's half-precision wire encoding to `buf` (same
/// header as the f32 format; the caller's framing distinguishes them).
pub fn encode_tensor_f16<B: BufMut>(t: &Tensor, buf: &mut B) -> Result<(), WireError> {
    check_encodable(t)?;
    put_header(t, buf)?;
    for &v in t.data() {
        buf.put_u16_le(f32_to_f16_bits(v));
    }
    Ok(())
}

/// Decode one half-precision tensor from the front of `buf`.
pub fn decode_tensor_f16<B: Buf>(buf: &mut B) -> Result<Tensor, WireError> {
    let (shape, numel) = take_header(buf)?;
    if buf.remaining() < 2 * numel {
        return Err(WireError::Truncated);
    }
    let mut data = Vec::with_capacity(numel);
    for _ in 0..numel {
        data.push(f16_bits_to_f32(buf.get_u16_le()));
    }
    Ok(Tensor::from_vec(shape, data))
}

/// A checked cursor over bytes nobody trusts — a frame off a socket, a blob
/// out of a file. Every read is a `Result`: one that needs more bytes than
/// remain is [`WireError::Truncated`] and consumes nothing, so a decoder
/// written on it has no bounds check of its own to forget. After any `Err`
/// the position is unspecified; a decoder returns the error.
#[derive(Clone, Copy, Debug)]
pub struct Reader<'a>(&'a [u8]);

macro_rules! reader_le {
    ($($t:ident),*) => {$(
        #[doc = concat!("The next little-endian `", stringify!($t), "`.")]
        pub fn $t(&mut self) -> Result<$t, WireError> {
            let (head, rest) = self.0.split_first_chunk().ok_or(WireError::Truncated)?;
            self.0 = rest;
            Ok($t::from_le_bytes(*head))
        }
    )*};
}

impl<'a> Reader<'a> {
    /// A cursor at the front of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader(bytes)
    }

    reader_le!(u8, u16, u32, u64, f32);

    /// The next `n` bytes, borrowed from the input.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let (head, rest) = self.0.split_at_checked(n).ok_or(WireError::Truncated)?;
        self.0 = rest;
        Ok(head)
    }

    /// A `u32` element count, held against what remains: `count` elements
    /// of at least `min_bytes_each` bytes must still fit, so a caller may
    /// reserve for the count it is handed. The product is checked — a
    /// count that overflows it cannot fit either.
    pub fn count(&mut self, min_bytes_each: usize) -> Result<usize, WireError> {
        let count = self.u32()? as usize;
        match count.checked_mul(min_bytes_each) {
            Some(need) if need <= self.0.len() => Ok(count),
            _ => Err(WireError::Truncated),
        }
    }

    /// [`decode_tensor`] at the cursor.
    pub fn tensor(&mut self) -> Result<Tensor, WireError> {
        decode_tensor(&mut self.0)
    }

    /// [`decode_tensor_f16`] at the cursor.
    pub fn tensor_f16(&mut self) -> Result<Tensor, WireError> {
        decode_tensor_f16(&mut self.0)
    }

    /// [`decode_tensor_into`] at the cursor.
    pub fn tensor_into(&mut self, dst: &mut Tensor) -> Result<(), WireError> {
        decode_tensor_into(&mut self.0, dst)
    }

    /// [`skip_tensor_like`] at the cursor.
    pub fn skip_tensor_like(&mut self, like: &Tensor) -> Result<(), WireError> {
        skip_tensor_like(&mut self.0, like)
    }

    /// [`Reader::skip_tensor_like`], returning what it stepped over: the
    /// tensor's values as little-endian `f32` bytes.
    pub fn payload_like(&mut self, like: &Tensor) -> Result<&'a [u8], WireError> {
        let numel = take_header_like(&mut self.0, like)?;
        self.bytes(4 * numel)
    }

    /// Step over one encoded tensor of any shape — `f32` values, or
    /// binary16 ones when `half` — making every check [`decode_tensor`]
    /// (or [`decode_tensor_f16`]) makes and copying nothing.
    pub fn skip_tensor(&mut self, half: bool) -> Result<(), WireError> {
        let (_, numel) = take_header(&mut self.0)?;
        let width = if half { 2 } else { 4 };
        let len = numel.checked_mul(width).ok_or(WireError::Truncated)?;
        self.bytes(len).map(drop)
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.0.len()
    }

    /// The end of the decode: bytes left over are
    /// [`WireError::TrailingBytes`].
    pub fn finish(self) -> Result<(), WireError> {
        match self.0.len() {
            0 => Ok(()),
            extra => Err(WireError::TrailingBytes { extra }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    #[test]
    fn roundtrip_preserves_tensor() {
        let mut rng = seeded_rng(31);
        for dims in [vec![], vec![7], vec![3, 4], vec![2, 3, 4, 5]] {
            let t = Tensor::randn(Shape::new(&dims), 1.0, &mut rng);
            let mut wire = to_bytes(&t).unwrap();
            let back = decode_tensor(&mut wire).unwrap();
            assert_eq!(t, back);
            assert_eq!(wire.remaining(), 0);
        }
    }

    #[test]
    fn payload_blocks_round_trip_at_every_boundary() {
        // Lengths around the block size, through the sinks and sources the
        // snapshot and checkpoint codecs use (`Vec<u8>` and `&[u8]`).
        let mut rng = seeded_rng(32);
        for n in [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7] {
            let t = Tensor::randn([n], 1.0, &mut rng);
            let mut wire = Vec::new();
            encode_tensor(&t, &mut wire).unwrap();
            assert_eq!(wire.len(), encoded_len(&t));
            assert_eq!(&wire[..], &to_bytes(&t).unwrap()[..]);
            let mut cursor = &wire[..];
            assert_eq!(decode_tensor(&mut cursor).unwrap(), t);
            assert!(cursor.is_empty());
            let mut twin = Tensor::zeros([n]);
            decode_tensor_into(&mut &wire[..], &mut twin).unwrap();
            assert_eq!(twin, t);
        }
    }

    #[test]
    fn decode_into_refuses_another_shape_and_leaves_dst_alone() {
        let wire = to_bytes(&Tensor::ones([2, 3])).unwrap();
        for dims in [vec![3, 2], vec![6], vec![2, 3, 1]] {
            let mut dst = Tensor::zeros(Shape::new(&dims));
            assert_eq!(
                decode_tensor_into(&mut wire.clone(), &mut dst),
                Err(WireError::Malformed(
                    "tensor shape does not match its destination"
                ))
            );
            assert!(dst.data().iter().all(|&v| v == 0.0));
        }
        let mut dst = Tensor::zeros([2, 3]);
        let mut cut = wire.slice(..wire.len() - 1);
        assert_eq!(
            decode_tensor_into(&mut cut, &mut dst),
            Err(WireError::Truncated)
        );
        assert!(dst.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn skip_makes_every_check_of_decode_into_and_lands_where_it_does() {
        let mut wire = Vec::new();
        encode_tensor(&Tensor::ones([2, 3]), &mut wire).unwrap();
        wire.push(0xEE);
        let like = Tensor::zeros([2, 3]);
        let mut cursor = &wire[..];
        skip_tensor_like(&mut cursor, &like).unwrap();
        assert_eq!(cursor, &[0xEE][..]);
        assert_eq!(
            skip_tensor_like(&mut &wire[..], &Tensor::zeros([3, 2])),
            Err(WireError::Malformed(
                "tensor shape does not match its destination"
            ))
        );
        for cut in 0..wire.len() - 1 {
            assert_eq!(
                skip_tensor_like(&mut &wire[..cut], &like),
                Err(WireError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn skip_tensor_fails_exactly_where_decode_fails() {
        let mut wire = Vec::new();
        encode_tensor(&Tensor::ones([2, 3]), &mut wire).unwrap();
        encode_tensor_f16(&Tensor::ones([5]), &mut wire).unwrap();
        wire.push(0xEE);
        for cut in 0..=wire.len() {
            let bytes = &wire[..cut];
            let (mut skip, mut dec) = (Reader::new(bytes), Reader::new(bytes));
            let skipped = skip
                .skip_tensor(false)
                .and_then(|()| skip.skip_tensor(true));
            let decoded = dec.tensor().and_then(|_| dec.tensor_f16()).map(drop);
            assert_eq!(skipped, decoded, "cut at {cut}");
            if skipped.is_ok() {
                assert_eq!(skip.remaining(), dec.remaining(), "cut at {cut}");
            }
        }
        let like = Tensor::zeros([2, 3]);
        let payload = Reader::new(&wire).payload_like(&like).unwrap();
        assert_eq!(payload, &wire[1 + 2 * 4..1 + 2 * 4 + 6 * 4]);
    }

    #[test]
    fn encoded_len_is_exact() {
        let t = Tensor::zeros([4, 6]);
        assert_eq!(to_bytes(&t).unwrap().len(), encoded_len(&t));
        assert_eq!(encoded_len(&t), 1 + 8 + 4 * 24);
    }

    #[test]
    fn truncated_buffer_errors() {
        let t = Tensor::zeros([4, 4]);
        let full = to_bytes(&t).unwrap();
        let mut cut = full.slice(0..full.len() - 3);
        assert_eq!(decode_tensor(&mut cut), Err(WireError::Truncated));
    }

    #[test]
    fn empty_buffer_errors() {
        let mut empty = Bytes::new();
        assert_eq!(decode_tensor(&mut empty), Err(WireError::Truncated));
    }

    #[test]
    fn oversized_shape_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(2);
        buf.put_u32_le(u32::MAX);
        buf.put_u32_le(u32::MAX);
        let mut wire = buf.freeze();
        assert_eq!(decode_tensor(&mut wire), Err(WireError::ShapeTooLarge));
    }

    #[test]
    fn f16_roundtrip_exact_values() {
        // Values exactly representable in binary16 survive unchanged.
        for v in [0.0f32, -0.0, 1.0, -1.0, 0.5, 2.0, 65504.0, -65504.0, 0.25] {
            let back = f16_bits_to_f32(f32_to_f16_bits(v));
            assert_eq!(back, v, "f16 roundtrip of {v}");
        }
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::INFINITY)).is_infinite());
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
    }

    #[test]
    fn f16_relative_error_bounded() {
        let mut rng = seeded_rng(37);
        let t = Tensor::randn([64, 8], 1.0, &mut rng);
        for &v in t.data() {
            let back = f16_bits_to_f32(f32_to_f16_bits(v));
            // binary16 has 11 significand bits → rel. error ≤ 2^-11.
            assert!(
                (back - v).abs() <= v.abs() * f32::powi(2.0, -11) + 1e-7,
                "{v} → {back}"
            );
        }
    }

    #[test]
    fn f16_overflow_saturates_to_infinity() {
        assert!(f16_bits_to_f32(f32_to_f16_bits(1e6)).is_infinite());
        assert!(f16_bits_to_f32(f32_to_f16_bits(-1e6)).is_infinite());
    }

    #[test]
    fn f16_subnormals_roundtrip() {
        // Smallest positive f16 subnormal is 2^-24.
        let tiny = f32::powi(2.0, -24);
        let back = f16_bits_to_f32(f32_to_f16_bits(tiny));
        assert_eq!(back, tiny);
        // Below half of it, flush to zero.
        let below = f32::powi(2.0, -26);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(below)), 0.0);
    }

    #[test]
    fn f16_tensor_roundtrip_and_size() {
        let mut rng = seeded_rng(38);
        let t = Tensor::randn([10, 6], 1.0, &mut rng);
        let mut buf = BytesMut::new();
        encode_tensor_f16(&t, &mut buf).unwrap();
        assert_eq!(buf.len(), encoded_len_f16(&t));
        // Half the payload bytes of the f32 format (same 9-byte header).
        assert_eq!(encoded_len(&t) - encoded_len_f16(&t), 2 * t.numel());
        let mut wire = buf.freeze();
        let back = decode_tensor_f16(&mut wire).expect("decode");
        assert_eq!(back.dims(), t.dims());
        for (a, b) in back.data().iter().zip(t.data()) {
            assert!((a - b).abs() <= b.abs() * 1e-3 + 1e-6);
        }
    }

    #[test]
    fn f16_truncated_errors() {
        let t = Tensor::zeros([4]);
        let mut buf = BytesMut::new();
        encode_tensor_f16(&t, &mut buf).unwrap();
        let full = buf.freeze();
        let mut cut = full.slice(0..full.len() - 1);
        assert_eq!(decode_tensor_f16(&mut cut), Err(WireError::Truncated));
    }

    #[test]
    fn reader_methods_at_zero_one_short_and_exact_lengths() {
        // Each fixed-width read, and `bytes`, against 0, n − 1 and n bytes.
        fn probe<T: PartialEq + std::fmt::Debug>(
            n: usize,
            want: T,
            read: impl Fn(&mut Reader) -> Result<T, WireError>,
        ) {
            let wire: Vec<u8> = (1..=n as u8).collect();
            for short in [0, n - 1] {
                let mut r = Reader::new(&wire[..short]);
                assert_eq!(read(&mut r), Err(WireError::Truncated), "{n} at {short}");
                assert_eq!(r.0.len(), short, "a refused read consumed bytes");
            }
            let mut r = Reader::new(&wire);
            assert_eq!(read(&mut r), Ok(want));
            assert_eq!(r.finish(), Ok(()));
        }
        probe(1, 0x01, |r| r.u8());
        probe(2, 0x0201, |r| r.u16());
        probe(4, 0x0403_0201, |r| r.u32());
        probe(8, 0x0807_0605_0403_0201, |r| r.u64());
        probe(4, f32::from_bits(0x0403_0201), |r| r.f32());
        probe(3, vec![1, 2, 3], |r| r.bytes(3).map(<[u8]>::to_vec));
        assert_eq!(Reader::new(&[]).bytes(0), Ok(&[][..]));
        assert_eq!(
            Reader::new(&[7, 7]).finish(),
            Err(WireError::TrailingBytes { extra: 2 })
        );
    }

    #[test]
    fn reader_count_is_bounded_by_what_remains() {
        // The largest count a u32 can claim, at element sizes whose product
        // with it fits a usize and does not: refused before a caller could
        // reserve for it.
        let mut wire = u32::MAX.to_le_bytes().to_vec();
        wire.extend_from_slice(&[0; 64]);
        for min_bytes_each in [1, 5, 28, usize::MAX] {
            let got = Reader::new(&wire).count(min_bytes_each);
            assert_eq!(got, Err(WireError::Truncated), "{min_bytes_each}");
        }
        // 3 elements of 5 bytes: 14 bytes behind the count are one short.
        let mut wire = 3u32.to_le_bytes().to_vec();
        wire.extend_from_slice(&[0; 15]);
        assert_eq!(Reader::new(&wire).count(5), Ok(3));
        assert_eq!(
            Reader::new(&wire[..4 + 14]).count(5),
            Err(WireError::Truncated)
        );
        assert_eq!(Reader::new(&wire[..3]).count(0), Err(WireError::Truncated));
        assert_eq!(Reader::new(&0u32.to_le_bytes()).count(28), Ok(0));
    }

    #[test]
    fn reader_tensor_methods_are_the_tensor_decoders() {
        let t = Tensor::from_vec([2, 3], vec![1.0, -2.5, 3.25, 0.0, 4.5, 6.0]);
        let mut wire = Vec::new();
        encode_tensor(&t, &mut wire).unwrap();
        encode_tensor_f16(&t, &mut wire).unwrap();
        encode_tensor(&t, &mut wire).unwrap();
        encode_tensor(&t, &mut wire).unwrap();
        let mut r = Reader::new(&wire);
        assert_eq!(r.tensor(), Ok(t.clone()));
        assert_eq!(r.tensor_f16(), Ok(t.clone()));
        let mut twin = Tensor::zeros([2, 3]);
        r.tensor_into(&mut twin).unwrap();
        assert_eq!(twin, t);
        r.skip_tensor_like(&twin).unwrap();
        assert_eq!(r.finish(), Ok(()));
        // Every cut of one f32 and one f16 tensor: an `Err`, at 0 bytes and
        // at n − 1 as anywhere between.
        let (full, half) = (encoded_len(&t), encoded_len_f16(&t));
        for cut in 0..full {
            let mut r = Reader::new(&wire[..cut]);
            assert_eq!(r.tensor(), Err(WireError::Truncated), "cut at {cut}");
            assert!(Reader::new(&wire[..cut]).tensor_into(&mut twin).is_err());
            assert!(Reader::new(&wire[..cut]).skip_tensor_like(&twin).is_err());
        }
        for cut in 0..half {
            let mut r = Reader::new(&wire[full..full + cut]);
            assert_eq!(r.tensor_f16(), Err(WireError::Truncated), "cut at {cut}");
        }
    }

    #[test]
    fn multiple_tensors_stream() {
        let a = Tensor::from_vec([2], vec![1.0, 2.0]);
        let b = Tensor::from_vec([1, 2], vec![3.0, 4.0]);
        let mut buf = BytesMut::new();
        encode_tensor(&a, &mut buf).unwrap();
        encode_tensor(&b, &mut buf).unwrap();
        let mut wire = buf.freeze();
        assert_eq!(decode_tensor(&mut wire).unwrap(), a);
        assert_eq!(decode_tensor(&mut wire).unwrap(), b);
    }
}
