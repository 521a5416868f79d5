//! Byte-oriented encoding: a growable write buffer ([`BytesMut`]), a
//! cursor trait over `&[u8]` ([`Buf`]), and the
//! [`ByteEncode`]/[`ByteDecode`] serialization traits with the
//! derive-free [`impl_codec!`] macro.
//!
//! Multi-byte integers have explicit endianness at every call site:
//! `put_u64` / `get_u64` are big-endian (the network order the ledger
//! hashes over), `put_u64_le` / `get_u64_le` are little-endian (the
//! chain export format). Nothing is implicit, so encoded bytes are
//! identical on every platform.
//!
//! [`impl_codec!`]: crate::impl_codec

use std::fmt;
use std::ops::Deref;

/// A growable byte buffer with endian-explicit write methods — the
/// subset of `bytes::BytesMut` the ledger codec uses.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut { buf: Vec::new() }
    }

    /// An empty buffer with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut { buf: Vec::with_capacity(cap) }
    }

    /// Number of bytes written.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`, big-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a `u32`, big-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32_le(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, big-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64_le(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u128`, big-endian.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a `u128`, little-endian.
    pub fn put_u128_le(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i128`, big-endian.
    pub fn put_i128(&mut self, v: i128) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends an `i128`, little-endian.
    pub fn put_i128_le(&mut self, v: i128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes.
    pub fn put_slice(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a `u64` as an LEB128 varint (1–10 bytes, low groups
    /// first, high bit set on every byte but the last). Small counts
    /// and lengths — the overwhelming majority on the wire — take a
    /// single byte instead of eight.
    pub fn put_uvarint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push((v as u8) | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Appends a varint length prefix followed by the bytes themselves.
    pub fn put_varint_slice(&mut self, v: &[u8]) {
        self.put_uvarint(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Copies the contents into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.buf.clone()
    }

    /// Consumes the buffer, yielding its bytes without copying.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BytesMut({} bytes)", self.buf.len())
    }
}

/// A read cursor over bytes — the subset of `bytes::Buf` the ledger
/// decoder uses, implemented for `&[u8]` so `&mut &[u8]` advances in
/// place.
///
/// # Panics
///
/// Like `bytes`, the `get_*`/`advance`/`take_slice` methods panic when
/// fewer bytes remain than requested — they are for *trusted* input
/// whose length the caller already established. Anything decoding
/// **untrusted peer bytes** must use the fallible `try_*` family (or
/// [`ByteDecode`]), which maps shortfall to [`DecodeError::Truncated`]
/// instead of aborting the process.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// Skips `n` bytes.
    fn advance(&mut self, n: usize);

    /// Reads the next `n` bytes as a slice without copying.
    fn take_slice(&mut self, n: usize) -> &[u8];

    /// Fallible [`Buf::take_slice`]: `Err(Truncated)` instead of a
    /// panic when fewer than `n` bytes remain (the cursor is left
    /// unmoved on failure).
    fn try_take_slice(&mut self, n: usize) -> Result<&[u8], DecodeError>;

    /// Fallible [`Buf::advance`].
    fn try_advance(&mut self, n: usize) -> Result<(), DecodeError> {
        self.try_take_slice(n).map(|_| ())
    }

    /// Fallible [`Buf::get_u8`].
    fn try_get_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.try_take_slice(1)?[0])
    }

    /// Fallible [`Buf::get_u64`] (big-endian).
    fn try_get_u64(&mut self) -> Result<u64, DecodeError> {
        // lint:allow(no-panic-in-lib): try_take_slice returned exactly the requested length
        Ok(u64::from_be_bytes(self.try_take_slice(8)?.try_into().expect("8 bytes")))
    }

    /// Fallible [`Buf::get_u64_le`] (little-endian).
    fn try_get_u64_le(&mut self) -> Result<u64, DecodeError> {
        // lint:allow(no-panic-in-lib): try_take_slice returned exactly the requested length
        Ok(u64::from_le_bytes(self.try_take_slice(8)?.try_into().expect("8 bytes")))
    }

    /// Fallible [`Buf::get_u128`] (big-endian).
    fn try_get_u128(&mut self) -> Result<u128, DecodeError> {
        // lint:allow(no-panic-in-lib): try_take_slice returned exactly the requested length
        Ok(u128::from_be_bytes(self.try_take_slice(16)?.try_into().expect("16 bytes")))
    }

    /// Fallible [`Buf::get_u128_le`] (little-endian).
    fn try_get_u128_le(&mut self) -> Result<u128, DecodeError> {
        // lint:allow(no-panic-in-lib): try_take_slice returned exactly the requested length
        Ok(u128::from_le_bytes(self.try_take_slice(16)?.try_into().expect("16 bytes")))
    }

    /// Fallible [`Buf::get_i128`] (big-endian).
    fn try_get_i128(&mut self) -> Result<i128, DecodeError> {
        // lint:allow(no-panic-in-lib): try_take_slice returned exactly the requested length
        Ok(i128::from_be_bytes(self.try_take_slice(16)?.try_into().expect("16 bytes")))
    }

    /// Fallible [`Buf::get_i128_le`] (little-endian).
    fn try_get_i128_le(&mut self) -> Result<i128, DecodeError> {
        // lint:allow(no-panic-in-lib): try_take_slice returned exactly the requested length
        Ok(i128::from_le_bytes(self.try_take_slice(16)?.try_into().expect("16 bytes")))
    }

    /// Fallible LEB128 `u64` read, the inverse of
    /// [`BytesMut::put_uvarint`]. Rejects truncated varints, encodings
    /// longer than ten bytes, and final-byte bits that would overflow
    /// `u64` — a byzantine peer cannot make the decoder run off the end
    /// or wrap a length around.
    fn try_get_uvarint(&mut self) -> Result<u64, DecodeError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.try_get_u8()?;
            let group = u64::from(byte & 0x7f);
            // The tenth byte (shift 63) may only carry the top bit.
            if shift == 63 && group > 1 {
                return Err(DecodeError::LengthOverflow(u64::MAX));
            }
            v |= group << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(DecodeError::LengthOverflow(u64::MAX))
    }

    /// Fallible zero-copy read of a varint-length-prefixed slice, the
    /// inverse of [`BytesMut::put_varint_slice`]. The declared length
    /// is checked against both `max` and the bytes actually remaining
    /// before anything is sliced.
    fn try_get_varint_slice(&mut self, max: u64) -> Result<&[u8], DecodeError> {
        let n = self.try_get_uvarint()?;
        if n > max {
            return Err(DecodeError::LengthOverflow(n));
        }
        let n = usize::try_from(n).map_err(|_| DecodeError::LengthOverflow(n))?;
        self.try_take_slice(n)
    }

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        self.take_slice(1)[0]
    }

    /// Reads a big-endian `u64`.
    fn get_u64(&mut self) -> u64 {
        // lint:allow(no-panic-in-lib): take_slice returned exactly the requested length
        u64::from_be_bytes(self.take_slice(8).try_into().expect("8 bytes"))
    }

    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        // lint:allow(no-panic-in-lib): take_slice returned exactly the requested length
        u64::from_le_bytes(self.take_slice(8).try_into().expect("8 bytes"))
    }

    /// Reads a big-endian `u128`.
    fn get_u128(&mut self) -> u128 {
        // lint:allow(no-panic-in-lib): take_slice returned exactly the requested length
        u128::from_be_bytes(self.take_slice(16).try_into().expect("16 bytes"))
    }

    /// Reads a little-endian `u128`.
    fn get_u128_le(&mut self) -> u128 {
        // lint:allow(no-panic-in-lib): take_slice returned exactly the requested length
        u128::from_le_bytes(self.take_slice(16).try_into().expect("16 bytes"))
    }

    /// Reads a big-endian `i128`.
    fn get_i128(&mut self) -> i128 {
        // lint:allow(no-panic-in-lib): take_slice returned exactly the requested length
        i128::from_be_bytes(self.take_slice(16).try_into().expect("16 bytes"))
    }

    /// Reads a little-endian `i128`.
    fn get_i128_le(&mut self) -> i128 {
        // lint:allow(no-panic-in-lib): take_slice returned exactly the requested length
        i128::from_le_bytes(self.take_slice(16).try_into().expect("16 bytes"))
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance({n}) past end ({} left)", self.len());
        *self = &self[n..];
    }

    fn take_slice(&mut self, n: usize) -> &[u8] {
        assert!(n <= self.len(), "read of {n} bytes with {} left", self.len());
        let (head, tail) = self.split_at(n);
        *self = tail;
        head
    }

    fn try_take_slice(&mut self, n: usize) -> Result<&[u8], DecodeError> {
        if n > self.len() {
            return Err(DecodeError::Truncated);
        }
        let (head, tail) = self.split_at(n);
        *self = tail;
        Ok(head)
    }
}

/// Decoding failure for [`ByteDecode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer bytes remained than the type needs.
    Truncated,
    /// An enum/option discriminant byte was out of range.
    BadTag(u8),
    /// A declared length exceeded the decoder's sanity bound.
    LengthOverflow(u64),
    /// Embedded string bytes were not UTF-8.
    BadUtf8,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "input truncated"),
            DecodeError::BadTag(t) => write!(f, "unknown tag {t}"),
            DecodeError::LengthOverflow(n) => write!(f, "declared length {n} too large"),
            DecodeError::BadUtf8 => write!(f, "string bytes are not UTF-8"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Sanity bound for declared collection lengths, so corrupt input
/// cannot trigger a giant allocation.
pub const MAX_DECODE_LEN: u64 = 1 << 32;

/// Checked read of `n` bytes, mapping shortfall to an error instead of
/// a panic.
fn need<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], DecodeError> {
    if buf.len() < n {
        return Err(DecodeError::Truncated);
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

/// Value → bytes, self-describing enough for [`ByteDecode`] to invert.
pub trait ByteEncode {
    /// Appends this value's encoding to `buf`.
    fn encode(&self, buf: &mut BytesMut);

    /// Convenience: encodes into a fresh byte vector.
    fn encode_to_vec(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        self.encode(&mut buf);
        buf.into_vec()
    }
}

/// Bytes → value, the inverse of [`ByteEncode`].
pub trait ByteDecode: Sized {
    /// Decodes one value, advancing `buf` past it.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated, corrupt, or oversized
    /// input.
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError>;

    /// Convenience: decodes a value that must consume all of `bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Truncated`] when trailing bytes remain,
    /// plus any error from [`ByteDecode::decode`].
    fn decode_all(mut bytes: &[u8]) -> Result<Self, DecodeError> {
        let v = Self::decode(&mut bytes)?;
        if bytes.is_empty() {
            Ok(v)
        } else {
            Err(DecodeError::Truncated)
        }
    }
}

macro_rules! impl_codec_int {
    ($($t:ty),*) => {$(
        impl ByteEncode for $t {
            fn encode(&self, buf: &mut BytesMut) {
                buf.put_slice(&self.to_le_bytes());
            }
        }
        impl ByteDecode for $t {
            fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
                let raw = need(buf, std::mem::size_of::<$t>())?;
                // lint:allow(no-panic-in-lib): `need` already guaranteed the exact length
                Ok(<$t>::from_le_bytes(raw.try_into().expect("sized read")))
            }
        }
    )*};
}

impl_codec_int!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128);

// `usize` travels as `u64` so encodings are identical across word
// sizes.
impl ByteEncode for usize {
    fn encode(&self, buf: &mut BytesMut) {
        (*self as u64).encode(buf);
    }
}

impl ByteDecode for usize {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let v = u64::decode(buf)?;
        usize::try_from(v).map_err(|_| DecodeError::LengthOverflow(v))
    }
}

impl ByteEncode for f64 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_slice(&self.to_bits().to_le_bytes());
    }
}

impl ByteDecode for f64 {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(f64::from_bits(u64::decode(buf)?))
    }
}

impl ByteEncode for f32 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_slice(&self.to_bits().to_le_bytes());
    }
}

impl ByteDecode for f32 {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(f32::from_bits(u32::decode(buf)?))
    }
}

impl ByteEncode for bool {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(u8::from(*self));
    }
}

impl ByteDecode for bool {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

impl<const N: usize> ByteEncode for [u8; N] {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_slice(self);
    }
}

impl<const N: usize> ByteDecode for [u8; N] {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let raw = need(buf, N)?;
        // lint:allow(no-panic-in-lib): `need` already guaranteed the exact length
        Ok(raw.try_into().expect("sized read"))
    }
}

impl ByteEncode for String {
    fn encode(&self, buf: &mut BytesMut) {
        self.len().encode(buf);
        buf.put_slice(self.as_bytes());
    }
}

impl ByteDecode for String {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let n = decode_len(buf)?;
        let raw = need(buf, n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }
}

impl<T: ByteEncode> ByteEncode for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        self.len().encode(buf);
        for item in self {
            item.encode(buf);
        }
    }
}

impl<T: ByteDecode> ByteDecode for Vec<T> {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let n = decode_len(buf)?;
        // Guard the preallocation: a corrupt length must not OOM even
        // when each element is tiny.
        let mut out = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            out.push(T::decode(buf)?);
        }
        Ok(out)
    }
}

impl<T: ByteEncode> ByteEncode for Option<T> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }
}

impl<T: ByteDecode> ByteDecode for Option<T> {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(buf)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

impl<A: ByteEncode, B: ByteEncode> ByteEncode for (A, B) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
}

impl<A: ByteDecode, B: ByteDecode> ByteDecode for (A, B) {
    fn decode(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
}

/// Reads a length prefix and bounds it.
fn decode_len(buf: &mut &[u8]) -> Result<usize, DecodeError> {
    let n = u64::decode(buf)?;
    if n > MAX_DECODE_LEN {
        return Err(DecodeError::LengthOverflow(n));
    }
    usize::try_from(n).map_err(|_| DecodeError::LengthOverflow(n))
}

/// Implements [`ByteEncode`] and [`ByteDecode`] for a struct or a
/// fieldless-or-tuple enum by listing its fields — the derive-free
/// replacement for `#[derive(Serialize, Deserialize)]`:
///
/// ```
/// use tradefl_runtime::impl_codec;
/// use tradefl_runtime::codec::{ByteDecode, ByteEncode};
///
/// #[derive(Debug, PartialEq)]
/// struct Quote { price: f64, level: usize, tag: String }
/// impl_codec!(struct Quote { price, level, tag });
///
/// let q = Quote { price: 1.5, level: 2, tag: "ask".into() };
/// let bytes = q.encode_to_vec();
/// assert_eq!(Quote::decode_all(&bytes).unwrap(), q);
/// ```
#[macro_export]
macro_rules! impl_codec {
    (struct $ty:ty { $($field:ident),* $(,)? }) => {
        impl $crate::codec::ByteEncode for $ty {
            fn encode(&self, buf: &mut $crate::codec::BytesMut) {
                $($crate::codec::ByteEncode::encode(&self.$field, buf);)*
            }
        }
        impl $crate::codec::ByteDecode for $ty {
            fn decode(
                buf: &mut &[u8],
            ) -> Result<Self, $crate::codec::DecodeError> {
                Ok(Self { $($field: $crate::codec::ByteDecode::decode(buf)?,)* })
            }
        }
    };
    (enum $ty:ty { $($tag:literal => $variant:ident),* $(,)? }) => {
        impl $crate::codec::ByteEncode for $ty {
            fn encode(&self, buf: &mut $crate::codec::BytesMut) {
                match self {
                    $(Self::$variant => buf.put_u8($tag),)*
                }
            }
        }
        impl $crate::codec::ByteDecode for $ty {
            fn decode(
                buf: &mut &[u8],
            ) -> Result<Self, $crate::codec::DecodeError> {
                match $crate::codec::ByteDecode::decode(buf)? {
                    $($tag => Ok(Self::$variant),)*
                    t => Err($crate::codec::DecodeError::BadTag(t)),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytesmut_endianness_is_explicit() {
        let mut buf = BytesMut::with_capacity(32);
        buf.put_u64(1);
        buf.put_u64_le(1);
        assert_eq!(&buf[..8], &[0, 0, 0, 0, 0, 0, 0, 1]);
        assert_eq!(&buf[8..], &[1, 0, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn buf_cursor_advances_in_place() {
        let bytes = [1u8, 2, 3, 4, 5, 6, 7, 8, 9];
        let mut cur: &[u8] = &bytes;
        assert_eq!(cur.get_u8(), 1);
        assert_eq!(cur.remaining(), 8);
        assert_eq!(cur.get_u64_le(), u64::from_le_bytes([2, 3, 4, 5, 6, 7, 8, 9]));
        assert_eq!(cur.remaining(), 0);
    }

    #[test]
    fn buf_roundtrips_every_width() {
        let mut buf = BytesMut::new();
        buf.put_u8(7);
        buf.put_u128_le(u128::MAX - 3);
        buf.put_i128_le(-42);
        buf.put_u128(12345);
        buf.put_i128(-12345);
        let mut cur: &[u8] = &buf;
        assert_eq!(cur.get_u8(), 7);
        assert_eq!(cur.get_u128_le(), u128::MAX - 3);
        assert_eq!(cur.get_i128_le(), -42);
        assert_eq!(cur.get_u128(), 12345);
        assert_eq!(cur.get_i128(), -12345);
    }

    #[test]
    fn primitives_roundtrip_through_byte_codec() {
        let mut buf = BytesMut::new();
        42u64.encode(&mut buf);
        (-3i128).encode(&mut buf);
        1.5f64.encode(&mut buf);
        true.encode(&mut buf);
        "hello".to_string().encode(&mut buf);
        vec![1u32, 2, 3].encode(&mut buf);
        Some(9usize).encode(&mut buf);
        let mut cur: &[u8] = &buf;
        assert_eq!(u64::decode(&mut cur).unwrap(), 42);
        assert_eq!(i128::decode(&mut cur).unwrap(), -3);
        assert_eq!(f64::decode(&mut cur).unwrap(), 1.5);
        assert!(bool::decode(&mut cur).unwrap());
        assert_eq!(String::decode(&mut cur).unwrap(), "hello");
        assert_eq!(Vec::<u32>::decode(&mut cur).unwrap(), vec![1, 2, 3]);
        assert_eq!(Option::<usize>::decode(&mut cur).unwrap(), Some(9));
        assert!(cur.is_empty());
    }

    #[test]
    fn try_getters_error_on_shortfall_without_moving_the_cursor() {
        let bytes = [1u8, 2, 3];
        let mut cur: &[u8] = &bytes;
        assert_eq!(cur.try_get_u64(), Err(DecodeError::Truncated));
        assert_eq!(cur.try_get_u64_le(), Err(DecodeError::Truncated));
        assert_eq!(cur.try_get_u128(), Err(DecodeError::Truncated));
        assert_eq!(cur.try_get_i128_le(), Err(DecodeError::Truncated));
        assert_eq!(cur.try_advance(4), Err(DecodeError::Truncated));
        assert_eq!(cur.remaining(), 3, "failed reads must not consume bytes");
        assert_eq!(cur.try_get_u8(), Ok(1));
        assert_eq!(cur.try_take_slice(2), Ok(&[2u8, 3][..]));
        assert_eq!(cur.try_get_u8(), Err(DecodeError::Truncated));
    }

    #[test]
    fn try_getters_match_panicking_getters_on_valid_input() {
        let mut buf = BytesMut::new();
        buf.put_u8(9);
        buf.put_u64(77);
        buf.put_u64_le(78);
        buf.put_u128(1 << 100);
        buf.put_u128_le(2 << 100);
        buf.put_i128(-5);
        buf.put_i128_le(-6);
        let mut a: &[u8] = &buf;
        let mut b: &[u8] = &buf;
        assert_eq!(a.try_get_u8().unwrap(), b.get_u8());
        assert_eq!(a.try_get_u64().unwrap(), b.get_u64());
        assert_eq!(a.try_get_u64_le().unwrap(), b.get_u64_le());
        assert_eq!(a.try_get_u128().unwrap(), b.get_u128());
        assert_eq!(a.try_get_u128_le().unwrap(), b.get_u128_le());
        assert_eq!(a.try_get_i128().unwrap(), b.get_i128());
        assert_eq!(a.try_get_i128_le().unwrap(), b.get_i128_le());
        assert_eq!(a.remaining(), 0);
    }

    #[test]
    fn truncated_input_errors_instead_of_panicking() {
        let bytes = 42u64.encode_to_vec();
        let mut cur: &[u8] = &bytes[..5];
        assert_eq!(u64::decode(&mut cur), Err(DecodeError::Truncated));
        assert_eq!(u64::decode_all(&bytes[..5]), Err(DecodeError::Truncated));
    }

    #[test]
    fn corrupt_length_is_bounded() {
        let mut buf = BytesMut::new();
        buf.put_u64_le(u64::MAX); // absurd Vec length prefix
        let mut cur: &[u8] = &buf;
        assert!(matches!(
            Vec::<u8>::decode(&mut cur),
            Err(DecodeError::LengthOverflow(_))
        ));
    }

    #[test]
    fn uvarint_roundtrips_and_width_scales() {
        for (v, width) in [
            (0u64, 1usize),
            (1, 1),
            (127, 1),
            (128, 2),
            (16383, 2),
            (16384, 3),
            (u64::from(u32::MAX), 5),
            (u64::MAX, 10),
        ] {
            let mut buf = BytesMut::new();
            buf.put_uvarint(v);
            assert_eq!(buf.len(), width, "width of {v}");
            let mut cur: &[u8] = &buf;
            assert_eq!(cur.try_get_uvarint(), Ok(v));
            assert_eq!(cur.remaining(), 0);
        }
    }

    #[test]
    fn uvarint_rejects_truncation_and_overflow() {
        // Continuation bit set on the last available byte.
        let mut cur: &[u8] = &[0x80, 0x80];
        assert_eq!(cur.try_get_uvarint(), Err(DecodeError::Truncated));
        // Ten continuation bytes: no terminator within the u64 range.
        let eleven = [0x80u8; 11];
        let mut cur: &[u8] = &eleven;
        assert!(matches!(cur.try_get_uvarint(), Err(DecodeError::LengthOverflow(_))));
        // Tenth byte carries bits beyond 2^64.
        let mut wide = [0x80u8; 10];
        wide[9] = 0x02;
        let mut cur: &[u8] = &wide;
        assert!(matches!(cur.try_get_uvarint(), Err(DecodeError::LengthOverflow(_))));
    }

    #[test]
    fn varint_slice_is_zero_copy_and_bounded() {
        let mut buf = BytesMut::new();
        buf.put_varint_slice(b"settlement");
        let mut cur: &[u8] = &buf;
        let got = cur.try_get_varint_slice(1 << 20).unwrap();
        assert_eq!(got, b"settlement");
        // Zero-copy: the returned slice aliases the input buffer.
        assert_eq!(got.as_ptr(), buf[1..].as_ptr());
        assert_eq!(cur.remaining(), 0);
        // A declared length beyond `max` is rejected before slicing.
        let mut cur: &[u8] = &buf;
        assert!(matches!(
            cur.try_get_varint_slice(3),
            Err(DecodeError::LengthOverflow(10))
        ));
        // A declared length beyond the remaining bytes is truncation.
        let mut short: &[u8] = &buf[..4];
        assert_eq!(short.try_get_varint_slice(1 << 20), Err(DecodeError::Truncated));
    }

    #[derive(Debug, PartialEq)]
    struct Pair {
        a: u64,
        b: Vec<f64>,
    }
    impl_codec!(struct Pair { a, b });

    #[derive(Debug, PartialEq)]
    enum Mode {
        Fast,
        Slow,
    }
    impl_codec!(enum Mode { 0 => Fast, 1 => Slow });

    #[test]
    fn macro_codec_roundtrips() {
        let p = Pair { a: 9, b: vec![1.0, -2.5] };
        assert_eq!(Pair::decode_all(&p.encode_to_vec()).unwrap(), p);
        assert_eq!(Mode::decode_all(&Mode::Slow.encode_to_vec()).unwrap(), Mode::Slow);
        assert_eq!(Mode::decode_all(&[7]), Err(DecodeError::BadTag(7)));
    }
}
