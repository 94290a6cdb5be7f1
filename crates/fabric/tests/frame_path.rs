//! The zero-copy frame path against its references.
//!
//! `Frame::write_to` never assembles a frame, `frame::write_frames`
//! never assembles a batch and `Frame::read_from` never stages a
//! frame, so all three are checked differentially against the
//! contiguous forms (`Frame::encode` / `Frame::decode_body`) over
//! sinks and sources that split the stream at every possible point.
//! The bulk codec kernels (`put_f32s`, `fnv_bytes`) are checked
//! against per-element references of the same definition, and the
//! stream parser against hostile and truncated input.

use hipress_fabric::frame::{self, fnv, fnv_bytes, Frame, FrameKind, FNV_OFFSET, HEAD_BYTES};
use hipress_fabric::frame::{read_exact_vec, write_all_vectored};
use hipress_util::codec::{Reader, Writer};
use hipress_util::{Rng64, SplitMix64};
use std::io::{self, Cursor, IoSlice, Read, Write};

/// Payload lengths: every small one (all head/payload/trailer split
/// geometries, every digest tail), then a ladder to 3 MiB.
fn lengths() -> impl Iterator<Item = usize> {
    (0..=130).chain([1024, 4099, 65_537, 1 << 20, 3 << 20])
}

fn payload(len: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(len as u64 ^ 0xF4A3_E0FF);
    (0..len).map(|_| rng.next_u32() as u8).collect()
}

fn data(len: usize) -> Frame {
    let mut f = Frame::new(FrameKind::Data, 2, 41 + len as u64, payload(len));
    f.attempt = (len % 3) as u32;
    f
}

/// A sink that accepts exactly `first` bytes on its first call and a
/// seeded 1..=n of the n offered on every later one — counted across
/// the slices of a vectored write, so a call can end anywhere inside
/// any part.
struct Dribble {
    out: Vec<u8>,
    first: Option<usize>,
    rng: SplitMix64,
}

impl Dribble {
    fn new(first: Option<usize>, seed: u64) -> Self {
        Self {
            out: Vec::new(),
            first,
            rng: SplitMix64::new(seed),
        }
    }

    fn quota(&mut self, offered: usize) -> usize {
        match self.first.take() {
            Some(n) => n.min(offered),
            None => 1 + self.rng.index(offered),
        }
    }
}

impl Write for Dribble {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.write_vectored(&[IoSlice::new(buf)])
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        let offered: usize = bufs.iter().map(|b| b.len()).sum();
        if offered == 0 {
            return Ok(0);
        }
        let quota = self.quota(offered);
        let mut left = quota;
        for b in bufs {
            let k = left.min(b.len());
            self.out.extend_from_slice(&b[..k]);
            left -= k;
        }
        Ok(quota)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A source that yields at most `step` bytes per call.
struct Trickle<'a> {
    bytes: &'a [u8],
    step: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.step.min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

#[test]
fn vectored_write_equals_encode_at_every_resume_point() {
    for len in lengths() {
        let f = data(len);
        let want = f.encode();
        assert_eq!(want.len(), f.wire_len());
        assert_eq!(want[..HEAD_BYTES], f.head());
        // Small frames: a first short write at every offset — inside
        // the head, at each part boundary, inside the trailer — then
        // seeded dribbling. Large ones: seeded dribbling only.
        let cuts: Vec<Option<usize>> = if len <= 130 {
            (1..=want.len()).map(Some).collect()
        } else {
            vec![None, Some(HEAD_BYTES - 5), Some(HEAD_BYTES + len + 3)]
        };
        for first in cuts {
            let mut sink = Dribble::new(first, len as u64);
            f.write_to(&mut sink).unwrap();
            assert!(sink.out == want, "len {len}, first write of {first:?}");
        }
    }
}

/// A batch written as one vectored write is the concatenation of its
/// frames' encodings, wherever the sink cuts it, and every frame reads
/// back with its boundaries intact; `holds_frame` says whether the
/// bytes left over still hold a whole frame.
#[test]
fn a_batch_write_equals_the_concatenated_encodings() {
    let frames: Vec<Frame> = [0, 1, 150, 9, 4099, 0, 130, 65_537]
        .into_iter()
        .map(data)
        .chain([Frame::control(FrameKind::Ack, 1, 7)])
        .collect();
    let want: Vec<u8> = frames.iter().flat_map(Frame::encode).collect();
    for seed in 0..32 {
        let mut sink = Dribble::new(None, seed);
        frame::write_frames(&mut sink, &frames).unwrap();
        assert!(sink.out == want, "seed {seed}");
    }
    let mut rest = &want[..];
    for f in &frames {
        assert!(frame::holds_frame(rest));
        assert!(!frame::holds_frame(&rest[..f.wire_len() - 1]));
        assert_eq!(&Frame::read_from(&mut rest).unwrap().unwrap(), f);
    }
    assert!(!frame::holds_frame(rest));
}

#[test]
fn vectored_write_survives_one_byte_sinks_and_reports_dead_ones() {
    struct OneByte(Vec<u8>);
    impl Write for OneByte {
        // No `write_vectored`: the default forwards the first
        // non-empty slice to `write`, which takes a single byte.
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.extend_from_slice(&buf[..1.min(buf.len())]);
            Ok(1.min(buf.len()))
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
    let f = data(77);
    let mut sink = OneByte(Vec::new());
    f.write_to(&mut sink).unwrap();
    assert_eq!(sink.0, f.encode());

    struct Dead;
    impl Write for Dead {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Ok(0)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
    let err = write_all_vectored(&mut Dead, [&b"ab"[..], &b""[..]]).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    // Nothing to write is not a dead sink.
    write_all_vectored(&mut Dead, [&b""[..], &b""[..]]).unwrap();
}

#[test]
fn stream_read_equals_decode_body_however_the_bytes_arrive() {
    for len in lengths() {
        let f = data(len);
        let bytes = f.encode();
        let want = Frame::decode_body(&bytes[4..]).unwrap();
        assert_eq!(want, f);
        for step in [1, 7, usize::MAX] {
            let mut src = Trickle {
                bytes: &bytes,
                step,
            };
            let got = Frame::read_from(&mut src).unwrap().unwrap();
            assert!(got == want, "len {len}, {step} byte(s) per read");
            assert!(got.verify());
            // Read in place: the buffer was sized once, by the
            // declared length, and never grown.
            assert_eq!(got.payload.capacity(), len);
            assert!(Frame::read_from(&mut src).unwrap().is_none());
        }
    }
}

#[test]
fn back_to_back_frames_keep_their_boundaries_through_a_bufreader() {
    let frames: Vec<Frame> = [0, 9, 130, 20_000, 1, 0].into_iter().map(data).collect();
    let mut stream = Vec::new();
    for f in &frames {
        f.write_to(&mut stream).unwrap();
    }
    // 8 KiB of buffer with a 20 000-byte payload in the middle: the
    // large read bypasses the buffer, the small ones share it.
    let mut r = io::BufReader::new(Trickle {
        bytes: &stream,
        step: 4096,
    });
    for f in &frames {
        assert_eq!(&Frame::read_from(&mut r).unwrap().unwrap(), f);
    }
    assert!(Frame::read_from(&mut r).unwrap().is_none());
}

#[test]
fn end_of_stream_at_every_offset_is_an_error_except_at_a_boundary() {
    for len in [0, 9, 130] {
        let bytes = data(len).encode();
        assert!(Frame::read_from(&mut Cursor::new(&bytes[..0]))
            .unwrap()
            .is_none());
        for cut in 1..bytes.len() {
            let err = Frame::read_from(&mut Cursor::new(&bytes[..cut])).unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::UnexpectedEof,
                "len {len} cut at {cut}: {err}"
            );
        }
    }
}

/// A stream head with the given declared lengths over an otherwise
/// valid header, followed by `tail` bytes of zeros.
fn forged(body_len: u32, payload_len: u32, tail: usize) -> Vec<u8> {
    let mut head = data(0).head();
    head[0..4].copy_from_slice(&body_len.to_le_bytes());
    head[28..32].copy_from_slice(&payload_len.to_le_bytes());
    let mut bytes = head.to_vec();
    bytes.resize(HEAD_BYTES + tail, 0);
    bytes
}

fn rejected(bytes: &[u8]) -> String {
    let err = Frame::read_from(&mut Cursor::new(bytes)).unwrap_err();
    // Rejected on the declared lengths — not by running out of input
    // after allocating for them.
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    err.to_string()
}

#[test]
fn hostile_lengths_are_rejected_before_allocation() {
    // A body too short to hold a header and a checksum.
    for body_len in [0, 1, 27, 28, 35] {
        assert!(rejected(&forged(body_len, 0, 64)).contains("truncated"));
    }
    // A body above the ceiling, with plenty of input behind it.
    let over = frame::MAX_FRAME_BYTES as u32 + 1;
    assert!(rejected(&forged(over, over - 36, 64)).contains("exceeds the ceiling"));
    assert!(rejected(&forged(u32::MAX, 0, 64)).contains("exceeds the ceiling"));
    // A payload length that disagrees with the body length, both ways
    // — including one that would be a 4 GiB allocation if believed.
    assert!(rejected(&forged(36, u32::MAX, 64)).contains("truncated"));
    assert!(rejected(&forged(36 + 8, 9, 64)).contains("truncated"));
    assert!(rejected(&forged(36 + 8, 7, 64)).contains("trailing"));
    // `decode_body` refuses the same three bodies.
    for (body_len, payload_len) in [(36u32, u32::MAX), (44, 9), (44, 7)] {
        let bytes = forged(body_len, payload_len, body_len as usize - 28);
        assert!(Frame::decode_body(&bytes[4..]).is_err());
    }
    // Consistent lengths under the ceiling but no bytes behind them:
    // the read fails as end-of-stream, within the declared bound.
    let err = Frame::read_from(&mut Cursor::new(forged(36 + 4096, 4096, 10))).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
}

#[test]
fn read_exact_vec_reads_exactly_and_sizes_exactly() {
    let bytes = payload(10_000);
    for step in [1, 4096, usize::MAX] {
        let mut src = Trickle {
            bytes: &bytes,
            step,
        };
        let head = read_exact_vec(&mut src, 9_000).unwrap();
        assert_eq!(head, bytes[..9_000]);
        assert_eq!(head.capacity(), 9_000);
        // The rest of the stream is untouched...
        assert_eq!(src.bytes.len(), 1_000);
        assert!(read_exact_vec(&mut src, 0).unwrap().is_empty());
        // ...and asking for more than it holds is end-of-stream.
        let err = read_exact_vec(&mut src, 1_001).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}

/// Floats whose bit patterns a lossy conversion would disturb.
fn seasoned(n: usize) -> Vec<f32> {
    let mut rng = SplitMix64::new(n as u64 ^ 0x5EA5_0DED);
    (0..n)
        .map(|i| match i % 11 {
            0 => f32::from_bits(0x7FC0_1234), // quiet NaN with a payload
            1 => f32::from_bits(0xFFA5_5AA5), // signalling NaN, sign set
            2 => 0.0,
            3 => -0.0,
            4 => f32::INFINITY,
            5 => f32::NEG_INFINITY,
            6 => f32::from_bits(0x0000_0001),  // smallest subnormal
            7 => -f32::from_bits(0x007F_FFFF), // largest subnormal
            _ => f32::from_bits(rng.next_u32()),
        })
        .collect()
}

#[test]
fn bulk_f32_encode_equals_the_per_element_reference() {
    for n in 0..=130 {
        let v = seasoned(n);
        let mut bulk = Writer::new();
        bulk.put_u8(0xAB); // an odd offset: the block is not aligned
        bulk.put_f32s(&v);
        let mut reference = Writer::new();
        reference.put_u8(0xAB);
        reference.put_u32(n as u32);
        for &x in &v {
            reference.put_f32(x);
        }
        let bytes = bulk.into_vec();
        assert_eq!(bytes, reference.into_vec(), "{n} elements");
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xAB);
        let back = r.f32s().unwrap();
        r.finish().unwrap();
        assert_eq!(back.len(), n);
        assert!(back.iter().zip(&v).all(|(a, b)| a.to_bits() == b.to_bits()));
    }
}

#[test]
fn bulk_bytes_encode_equals_the_reference() {
    for n in [0, 1, 130, 5000] {
        let v = payload(n);
        let mut w = Writer::new();
        w.put_bytes(&v);
        let bytes = w.into_vec();
        assert_eq!(bytes[..4], (n as u32).to_le_bytes());
        assert_eq!(bytes[4..], v);
    }
}

/// The digest's definition, one byte at a time: little-endian words
/// of eight bytes, the last one zero-padded.
fn fnv_bytes_reference(mut h: u64, bytes: &[u8]) -> u64 {
    let mut at = 0;
    while at < bytes.len() {
        let mut word = 0u64;
        for (i, &b) in bytes[at..].iter().take(8).enumerate() {
            word |= u64::from(b) << (8 * i);
        }
        h = fnv(h, word);
        at += 8;
    }
    h
}

#[test]
fn word_fold_digest_equals_the_bytewise_reference_for_every_tail() {
    let bytes = payload(64);
    for start in 0..8 {
        for len in 0..=40 {
            let slice = &bytes[start..start + len];
            for h in [FNV_OFFSET, 0, u64::MAX] {
                assert_eq!(
                    fnv_bytes(h, slice),
                    fnv_bytes_reference(h, slice),
                    "start {start} len {len}"
                );
            }
        }
    }
    assert_eq!(fnv_bytes(FNV_OFFSET, &[]), FNV_OFFSET);
}
