//! Minimal binary (de)serialization: fixed-width little-endian primitives
//! and LEB128 variable-length integers over a growable byte buffer.
//!
//! The journal and snapshot formats are built from these primitives, and so
//! is `alex-core`'s domain encoding. Fixed-width little-endian keeps the
//! framing trivially seekable and byte-stable across runs — the resume
//! determinism property depends on the *decoded state* being exact, so
//! `f64`s round-trip through their raw bit patterns, never through text.
//! Lengths are LEB128 ([`ByteWriter::varint`]): most are small, and each
//! value has exactly one encoding.

use std::fmt;

/// A decoding failure: truncated input or a value out of its domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// What was being decoded.
    pub context: &'static str,
    /// Byte offset at which decoding failed.
    pub offset: usize,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "malformed record: {} at byte offset {}",
            self.context, self.offset
        )
    }
}

impl std::error::Error for CodecError {}

/// Append-only binary writer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The serialized bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64` as LEB128: seven bits a byte, low bits first, the
    /// high bit set on every byte but the last.
    pub fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Write an `f64` as its raw bit pattern (exact round-trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Write a byte slice prefixed with its LEB128 length.
    pub fn bytes(&mut self, v: &[u8]) {
        self.varint(v.len() as u64);
        self.buf.extend_from_slice(v);
    }
}

/// Sequential binary reader over a byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError {
                context,
                offset: self.pos,
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn u8(&mut self, context: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, context)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self, context: &'static str) -> Result<u32, CodecError> {
        let b = self.take(4, context)?;
        let mut raw = [0u8; 4];
        raw.copy_from_slice(b);
        Ok(u32::from_le_bytes(raw))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self, context: &'static str) -> Result<u64, CodecError> {
        let b = self.take(8, context)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(b);
        Ok(u64::from_le_bytes(raw))
    }

    /// Read a LEB128 `u64` written by [`ByteWriter::varint`]. A padded
    /// encoding (a last byte of zero) or one past 64 bits is an error.
    pub fn varint(&mut self, context: &'static str) -> Result<u64, CodecError> {
        let (offset, mut v) = (self.pos, 0u128);
        for i in 0..10 {
            let b = self.u8(context)?;
            v |= u128::from(b & 0x7f) << (7 * i);
            if b < 0x80 {
                let padded = b == 0 && i > 0;
                let v = u64::try_from(v).ok().filter(|_| !padded);
                return v.ok_or(CodecError { context, offset });
            }
        }
        Err(CodecError { context, offset })
    }

    /// Read a LEB128 collection length. Guards against absurd lengths from
    /// corrupt input before any allocation.
    pub fn len(&mut self, context: &'static str) -> Result<usize, CodecError> {
        let v = self.varint(context)?;
        // A single record/snapshot never holds more entries than it has
        // remaining bytes; anything larger is corruption, not data.
        if v > self.remaining() as u64 {
            return Err(CodecError {
                context,
                offset: self.pos,
            });
        }
        Ok(v as usize)
    }

    /// Read an `f64` from its raw bit pattern.
    pub fn f64(&mut self, context: &'static str) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    /// Read a length-prefixed byte slice.
    pub fn bytes(&mut self, context: &'static str) -> Result<&'a [u8], CodecError> {
        let n = self.len(context)?;
        self.take(n, context)
    }

    /// Assert the input is fully consumed (catches format drift).
    pub fn expect_exhausted(&self, context: &'static str) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError {
                context,
                offset: self.pos,
            })
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.f64(-0.1234567891011);
        w.bytes(b"payload");
        let buf = w.finish();

        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64("c").unwrap(), u64::MAX - 3);
        assert_eq!(
            r.f64("d").unwrap().to_bits(),
            (-0.1234567891011f64).to_bits()
        );
        assert_eq!(r.bytes("e").unwrap(), b"payload");
        assert!(r.expect_exhausted("end").is_ok());
    }

    #[test]
    fn truncated_input_errors_with_context() {
        let mut w = ByteWriter::new();
        w.u64(42);
        let buf = w.finish();
        let mut r = ByteReader::new(&buf[..5]);
        let err = r.u64("episode").unwrap_err();
        assert_eq!(err.context, "episode");
        assert!(err.to_string().contains("episode"));
    }

    #[test]
    fn varints_round_trip_in_their_shortest_form() {
        for (v, len) in [
            (0, 1),
            (1, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            (u64::from(u32::MAX), 5),
            (u64::MAX, 10),
        ] {
            let mut w = ByteWriter::new();
            w.varint(v);
            let buf = w.finish();
            assert_eq!(buf.len(), len, "{v}");
            let mut r = ByteReader::new(&buf);
            assert_eq!(r.varint("v").unwrap(), v);
            assert!(r.expect_exhausted("end").is_ok());
        }
        // A padded encoding of 1, and one that overflows 64 bits.
        assert!(ByteReader::new(&[0x81, 0x00]).varint("padded").is_err());
        assert!(ByteReader::new(&[0x81, 0x00, 0x05])
            .varint("padded")
            .is_err());
        let mut over = [0xff; 10];
        over[9] = 0x02;
        assert!(ByteReader::new(&over).varint("overflow").is_err());
        assert!(ByteReader::new(&[0x80]).varint("truncated").is_err());
    }

    #[test]
    fn absurd_length_is_rejected_before_allocation() {
        let mut w = ByteWriter::new();
        w.varint(u64::MAX); // claims a collection longer than the input
        let buf = w.finish();
        let mut r = ByteReader::new(&buf);
        assert!(r.len("items").is_err());
    }

    #[test]
    fn nan_and_negative_zero_round_trip_exactly() {
        for v in [f64::NAN, -0.0, f64::INFINITY, f64::MIN_POSITIVE] {
            let mut w = ByteWriter::new();
            w.f64(v);
            let buf = w.finish();
            let got = ByteReader::new(&buf).f64("v").unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
        }
    }
}
