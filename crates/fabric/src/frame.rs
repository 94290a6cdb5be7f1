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

use crate::codec::{DecodeError, Reader, Writer};

/// The four bytes every fabric frame starts with (`"HPFB"`).
pub const MAGIC: u32 = 0x4850_4642;

/// The wire-protocol version this build speaks.
pub const VERSION: u16 = 1;

/// Ceiling on one frame's body: length prefixes above this are
/// rejected before allocation (a garbage or hostile prefix must not
/// become a multi-gigabyte allocation).
pub const MAX_FRAME_BYTES: u64 = 256 * 1024 * 1024;

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
/// tail zero-padded).
pub fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
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
    /// Opaque payload bytes (the encoded application message).
    pub payload: Vec<u8>,
    /// FNV-1a digest as carried on the wire; equals
    /// [`Frame::digest`] for intact frames.
    pub checksum: u64,
}

impl Frame {
    /// Builds a frame of `kind` with a freshly computed checksum.
    pub fn new(kind: FrameKind, src: u32, seq: u64, payload: Vec<u8>) -> Self {
        let mut f = Frame {
            kind,
            src,
            seq,
            attempt: 0,
            payload,
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

    /// Encodes the frame body (everything after the stream-level
    /// `body_len` prefix).
    pub fn encode_body(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u32(MAGIC);
        w.put_u16(VERSION);
        w.put_u8(self.kind.tag());
        w.put_u8(0);
        w.put_u32(self.src);
        w.put_u64(self.seq);
        w.put_u32(self.attempt);
        w.put_bytes(&self.payload);
        w.put_u64(self.checksum);
        w.into_vec()
    }

    /// Encodes the full stream representation: `u32 body_len` then
    /// the body.
    pub fn encode(&self) -> Vec<u8> {
        let body = self.encode_body();
        let mut w = Writer::new();
        w.put_u32(body.len() as u32);
        let mut out = w.into_vec();
        out.extend_from_slice(&body);
        out
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
        let src = r.u32()?;
        let seq = r.u64()?;
        let attempt = r.u32()?;
        let payload = r.bytes()?.to_vec();
        let checksum = r.u64()?;
        r.finish()?;
        Ok(Frame {
            kind,
            src,
            seq,
            attempt,
            payload,
            checksum,
        })
    }

    /// Reads one length-prefixed frame from a stream. Returns
    /// `Ok(None)` on clean end-of-stream at a frame boundary.
    ///
    /// # Errors
    ///
    /// I/O errors, mid-frame end-of-stream, hostile length prefixes,
    /// and body decode errors, all as [`std::io::Error`] with the
    /// decode diagnostic as the message.
    pub fn read_from(r: &mut impl std::io::Read) -> std::io::Result<Option<Frame>> {
        let mut len = [0u8; 4];
        let mut filled = 0;
        while filled < 4 {
            match r.read(&mut len[filled..])? {
                0 if filled == 0 => return Ok(None),
                0 => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "stream ended inside a frame length prefix",
                    ))
                }
                n => filled += n,
            }
        }
        let body_len = u32::from_le_bytes(len) as u64;
        if body_len > MAX_FRAME_BYTES {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                DecodeError::FrameTooLarge(body_len).to_string(),
            ));
        }
        let mut body = vec![0u8; body_len as usize];
        r.read_exact(&mut body)?;
        Frame::decode_body(&body)
            .map(Some)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Writes the full stream representation of the frame.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_to(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        w.write_all(&self.encode())?;
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
        let mask = 1u8 << (bit % 8);
        if let Some(b) = self.payload.get_mut(byte) {
            *b ^= mask;
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
