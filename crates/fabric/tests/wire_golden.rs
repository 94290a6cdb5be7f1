//! Golden wire bytes: the frame layout, the word-fold digest and the
//! runtime message TLV, pinned as digests captured on the commit
//! *before* the frame path was rewritten to serialize once and write
//! vectored. A change to any of them must fail here, in `cargo test`,
//! not as a cross-process nack storm between two builds.
//!
//! The digest of the encoded bytes is a classic byte-at-a-time FNV-1a
//! written out below — deliberately not the fabric's own `fnv_bytes`,
//! which is one of the things under test.

use hipress_core::graph::TaskId;
use hipress_fabric::frame::{self, Frame, FrameKind};
use hipress_fabric::WireMsg;
use hipress_runtime::engine::{Msg, Payload};
use hipress_util::{Rng64, SplitMix64};
use std::sync::Arc;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

fn seeded_bytes(n: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(0x601D_B17E);
    (0..n).map(|_| rng.next_u32() as u8).collect()
}

fn done(payload: Payload) -> Msg {
    Msg::Done {
        task: TaskId(7),
        payload: Some(Arc::new(payload)),
        iter: 3,
    }
}

#[test]
fn wire_version_is_one() {
    assert_eq!(frame::VERSION, 1);
}

#[test]
fn encoded_frames_match_the_parent_commit() {
    for (len, want) in [
        (0usize, 0xd8c6_ef30_f40c_d99a_u64),
        (9, 0x1fbc_11a9_1e59_e957),
        (4099, 0x0425_cc03_9de7_bb79),
    ] {
        let bytes = Frame::new(FrameKind::Data, 2, 41, seeded_bytes(len)).encode();
        assert_eq!(bytes.len(), 4 + 36 + len);
        assert_eq!(fnv1a(&bytes), want, "payload of {len} bytes");
    }
}

#[test]
fn frame_checksum_field_matches_the_parent_commit() {
    let f = Frame::new(FrameKind::Data, 2, 41, seeded_bytes(4099));
    assert_eq!(f.checksum, 0x2e56_9680_9a63_9a76);
    assert!(f.verify());
}

#[test]
fn runtime_messages_match_the_parent_commit() {
    let mut rng = SplitMix64::new(0xC0DE_C0DE);
    let chunk: Vec<f32> = (0..1031).map(|_| f32::from_bits(rng.next_u32())).collect();
    let raw = done(Payload::Raw(chunk)).to_bytes();
    assert_eq!(raw.len(), 1 + 4 + 4 + 1 + 4 + 4 * 1031);
    assert_eq!(fnv1a(&raw), 0xc4f0_391a_53f3_2e62);
    let compressed = done(Payload::Compressed(seeded_bytes(517))).to_bytes();
    assert_eq!(compressed.len(), 1 + 4 + 4 + 1 + 4 + 517);
    assert_eq!(fnv1a(&compressed), 0xe9bb_4241_dc79_3b54);
}
