//! The byte-level codec: little-endian primitive writers and readers
//! with structured, panic-free decode errors.
//!
//! Every wire structure in the workspace — frames, runtime messages,
//! process-coordinator envelopes — serializes through [`Writer`] and
//! parses through [`Reader`]. The reader *never* panics and never
//! allocates more than the input holds: length prefixes are validated
//! against the remaining input before any allocation, so truncated,
//! bit-flipped, or garbage inputs yield a [`DecodeError`], not an
//! abort or an out-of-memory hang.
//!
//! The two stream helpers at the bottom — [`write_all_vectored`] and
//! [`read_exact_vec`] — are how a serialized buffer crosses a socket
//! without being copied into (or zero-filled as) a staging buffer
//! first; the frame path and the process control channel share them.

use std::fmt;
use std::io::{self, IoSlice, Read, Write};

/// A structured decode failure. Every variant names what went wrong
/// so protocol layers can distinguish framing damage (retransmit)
/// from version skew (abort).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before a field: `needed` more bytes, `left`
    /// remained.
    Truncated {
        /// Bytes the next field required.
        needed: usize,
        /// Bytes actually remaining.
        left: usize,
    },
    /// The frame did not start with the fabric magic.
    BadMagic(u32),
    /// The frame's protocol version is not one this build speaks.
    BadVersion(u16),
    /// An unknown frame kind byte.
    BadKind(u8),
    /// An enum tag no variant claims; `what` names the enum.
    BadTag {
        /// The enum being decoded.
        what: &'static str,
        /// The unrecognized tag value.
        tag: u64,
    },
    /// A declared length exceeds the fabric's frame-size ceiling.
    FrameTooLarge(u64),
    /// The value decoded cleanly but input bytes were left over.
    TrailingBytes(usize),
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { needed, left } => {
                write!(f, "truncated: needed {needed} bytes, {left} left")
            }
            DecodeError::BadMagic(m) => write!(f, "bad magic {m:#010x}"),
            DecodeError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            DecodeError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            DecodeError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            DecodeError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds the ceiling"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            DecodeError::BadUtf8 => write!(f, "length-prefixed string is not UTF-8"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Appends little-endian primitives to a growable byte buffer.
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian IEEE-754 `f32` (bit pattern, so NaNs
    /// round-trip bit-exactly).
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Appends a little-endian IEEE-754 `f64` (bit pattern).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a `u32` length prefix followed by the bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.reserve(4 + v.len());
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Appends a `u32` element-count prefix followed by each `f32`, as
    /// one reserved block: an iterator of fixed-size arrays has an
    /// exact length, so `extend` writes it with no capacity check per
    /// element and no zero-fill first — on a little-endian target, a
    /// block copy.
    pub fn put_f32s(&mut self, v: &[f32]) {
        self.buf.reserve(4 + 4 * v.len());
        self.put_u32(v.len() as u32);
        self.buf.extend(v.iter().flat_map(|x| x.to_le_bytes()));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Parses little-endian primitives from a byte slice, returning
/// [`DecodeError::Truncated`] instead of panicking when input runs
/// out.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at its start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated {
                needed: n,
                left: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] at end of input.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] at end of input.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] at end of input.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] at end of input.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a little-endian `f32` bit pattern.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] at end of input.
    pub fn f32(&mut self) -> Result<f32, DecodeError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Reads a little-endian `f64` bit pattern.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] at end of input.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u32`-length-prefixed byte string. The declared length
    /// is validated against the remaining input *before* any
    /// allocation, so a flipped length byte cannot trigger a huge
    /// allocation.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] when the prefix or body runs past
    /// the input.
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Reads a `u32`-count-prefixed `f32` vector (same pre-allocation
    /// validation as [`Self::bytes`]).
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] when the prefix or body runs past
    /// the input.
    pub fn f32s(&mut self) -> Result<Vec<f32>, DecodeError> {
        let n = self.u32()? as usize;
        let raw = self.take(n.saturating_mul(4))?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_bits(u32::from_le_bytes([c[0], c[1], c[2], c[3]])))
            .collect())
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] on short input,
    /// [`DecodeError::BadUtf8`] on invalid UTF-8.
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| DecodeError::BadUtf8)
    }

    /// Asserts the input was fully consumed.
    ///
    /// # Errors
    ///
    /// [`DecodeError::TrailingBytes`] when bytes remain.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.remaining() != 0 {
            return Err(DecodeError::TrailingBytes(self.remaining()));
        }
        Ok(())
    }
}

/// Writes `parts` back to back as if they were one contiguous buffer,
/// without assembling that buffer: one `write_vectored` per call the
/// sink accepts, resuming mid-part after a short write.
///
/// # Errors
///
/// Propagates I/O errors; a sink that accepts nothing is
/// [`io::ErrorKind::WriteZero`].
pub fn write_all_vectored<const N: usize>(
    w: &mut impl Write,
    mut parts: [&[u8]; N],
) -> io::Result<()> {
    let mut first = 0;
    loop {
        while first < N && parts[first].is_empty() {
            first += 1;
        }
        if first == N {
            return Ok(());
        }
        let iov = parts.map(IoSlice::new);
        let mut n = match w.write_vectored(&iov[first..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        for part in &mut parts[first..] {
            let taken = n.min(part.len());
            *part = &part[taken..];
            n -= taken;
        }
    }
}

/// Reads exactly `n` bytes into a fresh buffer of exactly that
/// capacity, straight into its spare capacity — no zero-fill pass
/// before the read, no copy after it. The caller bounds `n` (a length
/// prefix must be ceiling-checked *before* it gets here).
///
/// # Errors
///
/// I/O errors, and [`io::ErrorKind::UnexpectedEof`] when the stream
/// ends before `n` bytes arrived.
pub fn read_exact_vec(r: &mut impl Read, n: usize) -> io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    buf.try_reserve_exact(n)?;
    if r.take(n as u64).read_to_end(&mut buf)? != n {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("stream ended {} bytes into a {n}-byte block", buf.len()),
        ));
    }
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f32(-0.5);
        w.put_f64(f64::NAN);
        w.put_bytes(b"abc");
        w.put_f32s(&[1.0, f32::NEG_INFINITY]);
        w.put_str("hé");
        let buf = w.into_vec();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f32().unwrap(), -0.5);
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.bytes().unwrap(), b"abc");
        let v = r.f32s().unwrap();
        assert_eq!(v[0], 1.0);
        assert_eq!(v[1], f32::NEG_INFINITY);
        assert_eq!(r.str().unwrap(), "hé");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_structured() {
        let mut w = Writer::new();
        w.put_bytes(&[1, 2, 3, 4, 5]);
        let buf = w.into_vec();
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(matches!(r.bytes(), Err(DecodeError::Truncated { .. })));
        }
    }

    #[test]
    fn hostile_length_prefix_does_not_allocate() {
        // A length prefix claiming 4 GiB with 2 bytes of body must be
        // rejected before any allocation happens.
        let mut w = Writer::new();
        w.put_u32(u32::MAX);
        w.put_u8(0);
        w.put_u8(0);
        let buf = w.into_vec();
        let mut r = Reader::new(&buf);
        assert!(matches!(r.bytes(), Err(DecodeError::Truncated { .. })));
        let mut r = Reader::new(&buf);
        assert!(matches!(r.f32s(), Err(DecodeError::Truncated { .. })));
    }
}
