//! The runtime message on the wire: [`Msg`] is a declared record
//! (`hipress_util::record!`), so it crosses a serializing transport
//! (the TCP mesh) exactly as it crosses a channel in-process. Only its
//! payload, whose absence shares the tag byte, is coded by hand here.
//!
//! The encoding is a plain tagged union over the little-endian codec:
//!
//! ```text
//! Msg::Done      = u8 1 | u32 task | u32 iter | payload
//! Msg::Abort     = u8 2
//! payload        = u8 0                       (none)
//!                | u8 1 | u32 n | n × f32     (raw)
//!                | u8 2 | u32 n | n bytes     (compressed)
//!                | u8 3                       (skipped)
//! ```
//!
//! Floats travel as IEEE-754 bit patterns, so a decoded gradient is
//! bit-identical to the encoded one — the property the
//! processes-vs-threads cross-validation rests on. Decoding never
//! panics: every malformed input (truncation, unknown tags, hostile
//! length prefixes) is a structured [`DecodeError`].
//!
//! [`Msg`]: crate::engine::Msg

use crate::engine::Payload;
use hipress_util::codec::{DecodeError, Reader, Writer};
use std::sync::Arc;

const PAYLOAD_NONE: u8 = 0;
const PAYLOAD_RAW: u8 = 1;
const PAYLOAD_COMPRESSED: u8 = 2;
const PAYLOAD_SKIPPED: u8 = 3;

/// Writes a [`Msg::Done`](crate::engine::Msg::Done) payload: its tag byte, then its body.
pub(crate) fn put_payload(w: &mut Writer, p: &Option<Arc<Payload>>) {
    match p.as_deref() {
        None => w.put_u8(PAYLOAD_NONE),
        Some(Payload::Raw(v)) => {
            w.put_u8(PAYLOAD_RAW);
            w.put_f32s(v);
        }
        Some(Payload::Compressed(b)) => {
            w.put_u8(PAYLOAD_COMPRESSED);
            w.put_bytes(b);
        }
        Some(Payload::Skipped) => w.put_u8(PAYLOAD_SKIPPED),
    }
}

/// Reads what [`put_payload`] wrote.
pub(crate) fn get_payload(r: &mut Reader<'_>) -> Result<Option<Arc<Payload>>, DecodeError> {
    let payload = match r.u8()? {
        PAYLOAD_NONE => return Ok(None),
        PAYLOAD_RAW => Payload::Raw(r.f32s()?),
        PAYLOAD_COMPRESSED => Payload::Compressed(r.bytes()?.to_vec()),
        PAYLOAD_SKIPPED => Payload::Skipped,
        tag => {
            return Err(DecodeError::BadTag {
                what: "payload",
                tag: u64::from(tag),
            })
        }
    };
    Ok(Some(Arc::new(payload)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Msg;
    use hipress_core::graph::TaskId;
    use hipress_util::codec::{check_record, WireMsg};
    use hipress_util::{Rng64, SplitMix64};

    fn same(a: &Msg, b: &Msg) -> bool {
        match (a, b) {
            (Msg::Abort, Msg::Abort) => true,
            (
                Msg::Done {
                    task: ta,
                    payload: pa,
                    iter: ia,
                },
                Msg::Done {
                    task: tb,
                    payload: pb,
                    iter: ib,
                },
            ) => {
                ta == tb
                    && ia == ib
                    && match (pa.as_deref(), pb.as_deref()) {
                        (None, None) => true,
                        (Some(Payload::Skipped), Some(Payload::Skipped)) => true,
                        (Some(Payload::Compressed(x)), Some(Payload::Compressed(y))) => x == y,
                        (Some(Payload::Raw(x)), Some(Payload::Raw(y))) => {
                            // Bit-pattern equality: NaNs must round-trip.
                            x.len() == y.len()
                                && x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits())
                        }
                        _ => false,
                    }
            }
            _ => false,
        }
    }

    /// A seeded arbitrary message covering every variant and payload
    /// shape, including adversarial floats (NaN, infinities, -0.0).
    fn arbitrary(rng: &mut SplitMix64) -> Msg {
        if rng.bernoulli(0.1) {
            return Msg::Abort;
        }
        let payload = match rng.index(4) {
            0 => None,
            1 => {
                let n = rng.index(64);
                let v: Vec<f32> = (0..n)
                    .map(|_| match rng.index(8) {
                        0 => f32::NAN,
                        1 => f32::INFINITY,
                        2 => f32::NEG_INFINITY,
                        3 => -0.0,
                        _ => f32::from_bits(rng.next_u32()),
                    })
                    .collect();
                Some(Payload::Raw(v))
            }
            2 => {
                let n = rng.index(96);
                Some(Payload::Compressed(
                    (0..n).map(|_| rng.next_u32() as u8).collect(),
                ))
            }
            _ => Some(Payload::Skipped),
        };
        Msg::Done {
            task: TaskId(rng.next_u32()),
            payload: payload.map(Arc::new),
            iter: rng.next_u32(),
        }
    }

    #[test]
    fn every_variant_round_trips() {
        let mut rng = SplitMix64::new(0x5EED_F00D);
        for _ in 0..500 {
            let msg = arbitrary(&mut rng);
            let bytes = msg.to_bytes();
            let back = Msg::from_bytes(&bytes).unwrap();
            assert!(same(&msg, &back), "round trip changed {msg:?}");
        }
    }

    #[test]
    fn every_truncation_is_a_structured_error() {
        let mut rng = SplitMix64::new(0xDEAD_5EED);
        for _ in 0..50 {
            let msg = arbitrary(&mut rng);
            let bytes = msg.to_bytes();
            for cut in 0..bytes.len() {
                // Must error (not panic, not hang, not succeed).
                assert!(
                    Msg::from_bytes(&bytes[..cut]).is_err(),
                    "truncation at {cut} of {} decoded",
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn bit_flips_never_panic() {
        let mut rng = SplitMix64::new(0xB17_F11B5);
        for _ in 0..50 {
            let msg = arbitrary(&mut rng);
            let bytes = msg.to_bytes();
            for _ in 0..64 {
                let mut hurt = bytes.clone();
                let bit = rng.index(hurt.len() * 8);
                hurt[bit / 8] ^= 1 << (bit % 8);
                // Either decodes to *some* message or errors
                // structurally; both are fine, panicking is not.
                let _ = Msg::from_bytes(&hurt);
            }
        }
    }

    #[test]
    fn garbage_never_panics() {
        let mut rng = SplitMix64::new(0x6A12_BA6E);
        for _ in 0..200 {
            let n = rng.index(128);
            let junk: Vec<u8> = (0..n).map(|_| rng.next_u32() as u8).collect();
            let _ = Msg::from_bytes(&junk);
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = Msg::Abort.to_bytes();
        bytes.push(0);
        assert!(matches!(
            Msg::from_bytes(&bytes),
            Err(DecodeError::TrailingBytes(1))
        ));
    }

    #[test]
    fn unknown_tags_name_the_enum() {
        // 3–5 are the control stream's membership frames, which never
        // travel on the data mesh.
        for tag in [3, 4, 5, 9] {
            assert!(matches!(
                Msg::from_bytes(&[tag]),
                Err(DecodeError::BadTag { what: "msg", .. })
            ));
        }
        let mut w = Writer::new();
        w.put_u8(1); // Done
        w.put_u32(3);
        w.put_u32(0);
        w.put_u8(7);
        assert!(matches!(
            Msg::from_bytes(&w.into_vec()),
            Err(DecodeError::BadTag {
                what: "payload",
                ..
            })
        ));
    }

    /// Every variant, and every payload shape, survives hostile bytes
    /// (see [`check_record`]).
    #[test]
    fn every_variant_survives_hostile_bytes() {
        let done = |payload: Option<Payload>| Msg::Done {
            task: TaskId(7),
            iter: 3,
            payload: payload.map(Arc::new),
        };
        for msg in [
            done(None),
            done(Some(Payload::Raw(vec![1.5, -0.0, f32::NAN]))),
            done(Some(Payload::Compressed(vec![9, 8, 7, 6]))),
            done(Some(Payload::Skipped)),
            Msg::Abort,
        ] {
            check_record(&msg);
        }
    }
}
