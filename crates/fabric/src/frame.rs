//! The fabric's wire frame: a versioned, checksummed, length-prefixed
//! envelope around an opaque payload.
//!
//! The frame promotes the fault-tolerant envelope discipline of the
//! runtime's in-process protocol — sequence numbers, FNV-1a
//! checksums, attempt counters — into the actual framing layer of the
//! socket fabric. On a stream the frame travels as:
//!
//! ```text
//! u32  body_len           (bytes after this field)
//! u32  magic  "HPFB"
//! u16  version            (currently 1)
//! u8   kind               (Data / Ack / Nack / Ping / Hello)
//! u8   reserved           (0)
//! u32  src                (sender rank)
//! u64  seq                (per-link sequence number)
//! u32  attempt            (retransmission counter, excluded from the
//!                          checksum so resends carry one digest)
//! u32  payload_len
//! [payload bytes]
//! u64  checksum           (FNV-1a over header-sans-attempt + payload)
//! ```
//!
//! Structural damage (truncation, bad magic, version skew, hostile
//! lengths) surfaces as a [`DecodeError`]; payload damage surfaces as
//! a failed [`Frame::verify`], which the reliability layer answers
//! with a nack rather than an abort — exactly the split the chaos
//! protocol uses in-process.
//!
//! The payload is a shared buffer (`Arc<Vec<u8>>`): the serialized
//! message is wrapped, never copied, so the copy the reliability
//! layer retains for retransmission and the frame handed to the
//! socket are one allocation. Everything before the payload — the
//! first 32 bytes — has exactly one encoder ([`Frame::head`]) and one
//! parser (`Header::parse`). [`Frame::write_to`] sends
//! `[head, payload, checksum]` as one vectored write, so a frame is
//! never assembled on the way out; [`Frame::read_from`] reads the
//! payload straight into the buffer the frame will own, so it is
//! never copied on the way in. [`Frame::encode`] remains as the
//! layout's contiguous reference, built from the same head.

use crate::codec::{read_exact_vec, write_all_vectored, DecodeError, Reader};
use std::io;
use std::sync::Arc;

/// The four bytes every fabric frame starts with (`"HPFB"`).
pub const MAGIC: u32 = 0x4850_4642;

/// The wire-protocol version this build speaks.
pub const VERSION: u16 = 1;

/// Ceiling on one frame's body: length prefixes above this are
/// rejected before allocation (a garbage or hostile prefix must not
/// become a multi-gigabyte allocation).
pub const MAX_FRAME_BYTES: u64 = 256 * 1024 * 1024;

/// Bytes before the payload on a stream: the `body_len` prefix and
/// the header, through `payload_len`.
pub const HEAD_BYTES: usize = 32;

/// Bytes after the payload: the checksum.
const TRAILER_BYTES: usize = 8;

/// Body bytes that are not payload (the body excludes the prefix).
const BODY_OVERHEAD: usize = HEAD_BYTES - 4 + TRAILER_BYTES;

/// The FNV-1a offset basis every digest in the workspace starts from.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01B3;

/// One FNV-1a step folding a whole 64-bit word (not a byte): one
/// xor-multiply per 8 payload bytes keeps checksumming multi-megabyte
/// gradients off the critical path, and the multiply still diffuses a
/// single flipped bit anywhere in the word. The one fold every
/// checksum in the workspace (frames, envelopes, checker
/// fingerprints) is built from.
pub fn fnv(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV_PRIME)
}

/// Folds `bytes` into `h` eight at a time (little-endian words, the
/// tail zero-padded). Whole words are loaded in place; only the tail
/// is staged through a padded copy.
pub fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = fnv(
            h,
            u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]),
        );
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        h = fnv(h, u64::from_le_bytes(word));
    }
    h
}

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// An application payload (acknowledged, retransmitted).
    Data,
    /// Acknowledges receipt of the data frame with this `seq`.
    Ack,
    /// Reports the data frame with this `seq` arrived corrupt.
    Nack,
    /// A liveness heartbeat on an otherwise idle link.
    Ping,
    /// The first frame on a connection: identifies the sender's rank.
    Hello,
}

impl FrameKind {
    fn tag(self) -> u8 {
        match self {
            FrameKind::Data => 1,
            FrameKind::Ack => 2,
            FrameKind::Nack => 3,
            FrameKind::Ping => 4,
            FrameKind::Hello => 5,
        }
    }

    fn from_tag(t: u8) -> Result<Self, DecodeError> {
        Ok(match t {
            1 => FrameKind::Data,
            2 => FrameKind::Ack,
            3 => FrameKind::Nack,
            4 => FrameKind::Ping,
            5 => FrameKind::Hello,
            other => return Err(DecodeError::BadKind(other)),
        })
    }
}

/// One wire frame. See the module docs for the byte layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the frame carries.
    pub kind: FrameKind,
    /// Sender rank.
    pub src: u32,
    /// Per-link sequence number (for [`FrameKind::Ack`] /
    /// [`FrameKind::Nack`], the sequence being answered).
    pub seq: u64,
    /// Retransmission attempt, 0 for the first send. Excluded from
    /// the checksum so a resend carries the original digest.
    pub attempt: u32,
    /// Opaque payload bytes (the encoded application message),
    /// shared: cloning a frame bumps a refcount, it does not copy.
    pub payload: Arc<Vec<u8>>,
    /// FNV-1a digest as carried on the wire; equals
    /// [`Frame::digest`] for intact frames.
    pub checksum: u64,
}

/// The fixed-size fields of a frame body, between the stream's
/// length prefix and the payload.
struct Header {
    kind: FrameKind,
    src: u32,
    seq: u64,
    attempt: u32,
    payload_len: usize,
}

impl Header {
    /// The one header parser: [`Frame::decode_body`] runs it over a
    /// whole body, [`Frame::read_from`] over the head it has read.
    fn parse(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let magic = r.u32()?;
        if magic != MAGIC {
            return Err(DecodeError::BadMagic(magic));
        }
        let version = r.u16()?;
        if version != VERSION {
            return Err(DecodeError::BadVersion(version));
        }
        let kind = FrameKind::from_tag(r.u8()?)?;
        let _reserved = r.u8()?;
        Ok(Header {
            kind,
            src: r.u32()?,
            seq: r.u64()?,
            attempt: r.u32()?,
            payload_len: r.u32()? as usize,
        })
    }

    fn frame(self, payload: Vec<u8>, checksum: u64) -> Frame {
        Frame {
            kind: self.kind,
            src: self.src,
            seq: self.seq,
            attempt: self.attempt,
            payload: Arc::new(payload),
            checksum,
        }
    }
}

fn invalid(e: DecodeError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

impl Frame {
    /// Builds a frame of `kind` with a freshly computed checksum.
    /// `payload` is wrapped, not copied.
    pub fn new(kind: FrameKind, src: u32, seq: u64, payload: Vec<u8>) -> Self {
        let mut f = Frame {
            kind,
            src,
            seq,
            attempt: 0,
            payload: Arc::new(payload),
            checksum: 0,
        };
        f.checksum = f.digest();
        f
    }

    /// A payload-free control frame (ack/nack/ping/hello).
    pub fn control(kind: FrameKind, src: u32, seq: u64) -> Self {
        Self::new(kind, src, seq, Vec::new())
    }

    /// The FNV-1a digest over the header (minus `attempt`) and the
    /// payload, folded 8 bytes at a time.
    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        h = fnv(h, u64::from(MAGIC));
        h = fnv(h, u64::from(VERSION));
        h = fnv(h, u64::from(self.kind.tag()));
        h = fnv(h, u64::from(self.src));
        h = fnv(h, self.seq);
        h = fnv(h, self.payload.len() as u64);
        fnv_bytes(h, &self.payload)
    }

    /// True when the carried checksum matches the recomputed digest —
    /// the frame survived the wire intact.
    pub fn verify(&self) -> bool {
        self.checksum == self.digest()
    }

    /// Bytes the frame occupies on a stream.
    pub fn wire_len(&self) -> usize {
        HEAD_BYTES + self.payload.len() + TRAILER_BYTES
    }

    /// Everything that precedes the payload on a stream: the
    /// `body_len` prefix and the header. The one place the header
    /// layout is written.
    pub fn head(&self) -> [u8; HEAD_BYTES] {
        let mut h = [0u8; HEAD_BYTES];
        let body_len = (BODY_OVERHEAD + self.payload.len()) as u32;
        h[0..4].copy_from_slice(&body_len.to_le_bytes());
        h[4..8].copy_from_slice(&MAGIC.to_le_bytes());
        h[8..10].copy_from_slice(&VERSION.to_le_bytes());
        h[10] = self.kind.tag();
        h[12..16].copy_from_slice(&self.src.to_le_bytes());
        h[16..24].copy_from_slice(&self.seq.to_le_bytes());
        h[24..28].copy_from_slice(&self.attempt.to_le_bytes());
        h[28..32].copy_from_slice(&(self.payload.len() as u32).to_le_bytes());
        h
    }

    /// `head()[skip..]`, the payload and the checksum in one exactly
    /// sized buffer.
    fn assemble(&self, skip: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len() - skip);
        out.extend_from_slice(&self.head()[skip..]);
        out.extend_from_slice(&self.payload);
        out.extend_from_slice(&self.checksum.to_le_bytes());
        out
    }

    /// Encodes the frame body (everything after the stream-level
    /// `body_len` prefix).
    pub fn encode_body(&self) -> Vec<u8> {
        self.assemble(4)
    }

    /// Encodes the full stream representation: `u32 body_len` then
    /// the body. The contiguous reference for [`Frame::write_to`],
    /// which puts the same bytes on a stream without building this.
    pub fn encode(&self) -> Vec<u8> {
        self.assemble(0)
    }

    /// Parses one frame body (no stream length prefix). The checksum
    /// is *parsed*, not enforced: call [`Frame::verify`] and answer
    /// damage with a nack. Structural problems are decode errors.
    ///
    /// # Errors
    ///
    /// Any [`DecodeError`] for truncated, mis-tagged, oversized, or
    /// trailing-byte input.
    pub fn decode_body(buf: &[u8]) -> Result<Frame, DecodeError> {
        if buf.len() as u64 > MAX_FRAME_BYTES {
            return Err(DecodeError::FrameTooLarge(buf.len() as u64));
        }
        let mut r = Reader::new(buf);
        let header = Header::parse(&mut r)?;
        let payload = r.take(header.payload_len)?.to_vec();
        let checksum = r.u64()?;
        r.finish()?;
        Ok(header.frame(payload, checksum))
    }

    /// Reads one length-prefixed frame from a stream, the payload
    /// straight into the buffer the frame owns. Returns `Ok(None)` on
    /// clean end-of-stream at a frame boundary. Both declared lengths
    /// are checked — against the ceiling and against each other —
    /// before anything is allocated.
    ///
    /// # Errors
    ///
    /// I/O errors, mid-frame end-of-stream, hostile or inconsistent
    /// lengths, and header decode errors, all as [`std::io::Error`]
    /// with the decode diagnostic as the message.
    pub fn read_from(r: &mut impl io::Read) -> io::Result<Option<Frame>> {
        let mut head = [0u8; HEAD_BYTES];
        let mut filled = 0;
        while filled < 4 {
            match r.read(&mut head[filled..4]) {
                Ok(0) if filled == 0 => return Ok(None),
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "stream ended inside a frame length prefix",
                    ))
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let body_len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as usize;
        if body_len as u64 > MAX_FRAME_BYTES {
            return Err(invalid(DecodeError::FrameTooLarge(body_len as u64)));
        }
        if body_len < BODY_OVERHEAD {
            return Err(invalid(DecodeError::Truncated {
                needed: BODY_OVERHEAD,
                left: body_len,
            }));
        }
        r.read_exact(&mut head[4..])?;
        let header = Header::parse(&mut Reader::new(&head[4..])).map_err(invalid)?;
        // The body must hold exactly the payload it declares.
        let payload_room = body_len - BODY_OVERHEAD;
        if header.payload_len > payload_room {
            return Err(invalid(DecodeError::Truncated {
                needed: header.payload_len + TRAILER_BYTES,
                left: payload_room + TRAILER_BYTES,
            }));
        }
        if header.payload_len < payload_room {
            return Err(invalid(DecodeError::TrailingBytes(
                payload_room - header.payload_len,
            )));
        }
        let payload = read_exact_vec(r, header.payload_len)?;
        let mut checksum = [0u8; TRAILER_BYTES];
        r.read_exact(&mut checksum)?;
        Ok(Some(header.frame(payload, u64::from_le_bytes(checksum))))
    }

    /// Writes the full stream representation of the frame — head,
    /// payload and checksum as one vectored write, resumed after a
    /// short write — without assembling it first.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_to(&self, w: &mut impl io::Write) -> io::Result<()> {
        write_all_vectored(
            w,
            [
                &self.head()[..],
                &self.payload[..],
                &self.checksum.to_le_bytes()[..],
            ],
        )?;
        w.flush()
    }
}

impl crate::rel::Sealed for Frame {
    fn seq(&self) -> u64 {
        self.seq
    }

    fn attempt(&self) -> u32 {
        self.attempt
    }

    fn bump(&mut self) {
        self.attempt += 1;
    }

    fn verify(&self) -> bool {
        Frame::verify(self)
    }
}

/// Chaos can corrupt a frame's payload bits in transit; the checksum
/// (and the nack/retransmit discipline above it) is what catches the
/// damage — same contract as the in-process envelope protocol.
impl hipress_chaos::Wire for Frame {
    fn payload_bits(&self) -> u64 {
        match self.kind {
            FrameKind::Data => (self.payload.len() as u64) * 8,
            _ => 0,
        }
    }

    fn flip_bit(&mut self, bit: u64) {
        let byte = (bit / 8) as usize;
        if byte < self.payload.len() {
            // Copy-on-write: only a chaos-corrupted frame ever copies
            // a payload the reliability layer still retains.
            Arc::make_mut(&mut self.payload)[byte] ^= 1u8 << (bit % 8);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipress_chaos::Wire;

    fn sample() -> Frame {
        Frame::new(FrameKind::Data, 2, 41, vec![1, 2, 3, 4, 5, 6, 7, 8, 9])
    }

    #[test]
    fn body_round_trips() {
        let f = sample();
        let body = f.encode_body();
        let back = Frame::decode_body(&body).unwrap();
        assert_eq!(back, f);
        assert!(back.verify());
    }

    #[test]
    fn stream_round_trips() {
        let frames = vec![
            sample(),
            Frame::control(FrameKind::Ack, 0, 41),
            Frame::control(FrameKind::Ping, 1, 0),
        ];
        let mut buf = Vec::new();
        for f in &frames {
            f.write_to(&mut buf).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        for f in &frames {
            assert_eq!(&Frame::read_from(&mut cursor).unwrap().unwrap(), f);
        }
        assert!(Frame::read_from(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn attempt_does_not_change_digest() {
        let mut f = sample();
        let d = f.digest();
        f.attempt = 5;
        assert_eq!(f.digest(), d);
        assert!(f.verify());
    }

    #[test]
    fn flipped_payload_bit_fails_verify() {
        let mut f = sample();
        assert!(f.payload_bits() > 0);
        f.flip_bit(11);
        assert!(!f.verify());
        // The frame still *decodes* — damage is a verdict, not a
        // parse failure.
        let back = Frame::decode_body(&f.encode_body()).unwrap();
        assert!(!back.verify());
    }

    #[test]
    fn every_truncation_errors() {
        let body = sample().encode_body();
        for cut in 0..body.len() {
            assert!(Frame::decode_body(&body[..cut]).is_err());
        }
    }

    #[test]
    fn hostile_stream_length_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0; 16]);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(Frame::read_from(&mut cursor).is_err());
    }
}
