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
use hipress_fabric::{FlightEvent, FlightKind, WireMsg};
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

/// Every other `Msg` shape, pinned as digests captured on the commit
/// before `Msg` became a declared record. (The membership frames that
/// were `Msg` variants then are pinned, with the same digests, as the
/// control stream's `Member` record.)
#[test]
fn every_msg_variant_matches_the_parent_commit() {
    let rows = [
        (
            "done/none",
            Msg::Done {
                task: TaskId(7),
                payload: None,
                iter: 3,
            },
            0x97b6_e7eb_911d_9808,
        ),
        (
            "done/skipped",
            done(Payload::Skipped),
            0x97b6_eaeb_911d_9d21,
        ),
        ("abort", Msg::Abort, 0xaf63_bf4c_8601_bb45),
    ];
    for (name, msg, want) in rows {
        let bytes = msg.to_bytes();
        assert_eq!(fnv1a(&bytes), want, "{name}: {:#x}", fnv1a(&bytes));
    }
}

/// One flight event per kind, pinned as digests captured on the
/// commit before `FlightKind` became a declared record: the kind's
/// tag byte is the only byte that differs between rows.
#[test]
fn every_flight_kind_matches_the_parent_commit() {
    let rows = [
        (FlightKind::SendData, 0x354a_614e_b9d2_c4d3),
        (FlightKind::RecvData, 0xaf14_d325_12a2_289a),
        (FlightKind::DupData, 0x33d0_1afc_d83c_2ab9),
        (FlightKind::CorruptData, 0x0999_c2a4_b1cc_6388),
        (FlightKind::AckSent, 0xf56b_7843_7ea7_d0cf),
        (FlightKind::AckRecv, 0xe523_bfcd_3a59_d116),
        (FlightKind::NackSent, 0xbf8f_965a_c579_77d5),
        (FlightKind::NackRecv, 0x9559_3e02_9f09_b0a4),
        (FlightKind::Retransmit, 0x3091_c227_627c_b23b),
        (FlightKind::HeartbeatSent, 0x0b14_08f6_9362_fda2),
        (FlightKind::HeartbeatRecv, 0x8fcf_50ce_58fc_ffc1),
        (FlightKind::PeerLost, 0x251e_6a7a_f7d3_48d0),
        (FlightKind::Hello, 0x10f0_2019_c4ae_b617),
        (FlightKind::Mark, 0x8aba_91f0_1d7e_19de),
    ];
    for (kind, want) in rows {
        let ev = FlightEvent {
            ts_ns: 1_234_567,
            kind,
            peer: 3,
            seq: 41,
            bytes: 4096,
        };
        let bytes = ev.to_bytes();
        assert_eq!(fnv1a(&bytes), want, "{kind:?}: {:#x}", fnv1a(&bytes));
    }
}
