//! Common self-describing header for compressed gradient streams.
//!
//! Every algorithm prefixes its payload with this fixed header so that
//! a receiver can decode without out-of-band metadata — mirroring the
//! paper's observation that compressed gradients carry metadata that
//! prevents direct aggregation (§2.5).

use hipress_util::{Error, Result};

/// Identifies the producing algorithm in a compressed stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgoId {
    /// 1-bit quantization.
    OneBit = 1,
    /// Threshold binary quantization.
    Tbq = 2,
    /// Stochastic linear quantization.
    TernGrad = 3,
    /// Top-k sparsification.
    Dgc = 4,
    /// Threshold dropping.
    GradDrop = 5,
}

impl AlgoId {
    fn from_u8(v: u8) -> Option<AlgoId> {
        match v {
            1 => Some(AlgoId::OneBit),
            2 => Some(AlgoId::Tbq),
            3 => Some(AlgoId::TernGrad),
            4 => Some(AlgoId::Dgc),
            5 => Some(AlgoId::GradDrop),
            _ => None,
        }
    }
}

/// Fixed 8-byte header: magic byte, algorithm id, reserved flags, and
/// the element count of the original gradient.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Producing algorithm.
    pub algo: AlgoId,
    /// Number of `f32` elements in the original gradient.
    pub elems: u32,
}

/// First byte of every compressed stream.
const MAGIC: u8 = 0xC9;

/// Serialized header length in bytes.
pub(crate) const HEADER_LEN: usize = 8;

impl Header {
    /// The header of an `algo` stream for a `len`-element gradient —
    /// the one place a gradient length becomes the wire's `u32`.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds `u32::MAX`: the format cannot describe
    /// such a gradient, and a silently truncated count would decode
    /// to the wrong length on every replica. Partition it first.
    pub(crate) fn for_len(algo: AlgoId, len: usize) -> Header {
        let elems = u32::try_from(len).unwrap_or_else(|_| {
            panic!("gradient of {len} elements exceeds the u32 element count of the wire header")
        });
        Header { algo, elems }
    }

    /// Verifies the stream describes exactly the `out_len` elements
    /// its consumer has room for. `decode_into` runs this before it
    /// touches memory, so a lying header can neither size an
    /// allocation nor leave part of the destination stale.
    pub(crate) fn expect_elems(&self, out_len: usize) -> Result<()> {
        if self.elems as usize != out_len {
            return Err(Error::codec(format!(
                "{:?} stream holds {} elements, destination holds {out_len}",
                self.algo, self.elems
            )));
        }
        Ok(())
    }

    /// Appends the serialized header to `out`.
    pub fn write(&self, out: &mut Vec<u8>) {
        out.push(MAGIC);
        out.push(self.algo as u8);
        out.extend_from_slice(&[0, 0]); // Reserved.
        out.extend_from_slice(&self.elems.to_le_bytes());
    }

    /// Parses a header from the front of `data`, returning it and the
    /// remaining payload.
    pub fn read(data: &[u8]) -> Result<(Header, &[u8])> {
        if data.len() < HEADER_LEN {
            return Err(Error::codec(format!(
                "stream too short for header: {} bytes",
                data.len()
            )));
        }
        if data[0] != MAGIC {
            return Err(Error::codec(format!("bad magic byte {:#x}", data[0])));
        }
        let algo = AlgoId::from_u8(data[1])
            .ok_or_else(|| Error::codec(format!("unknown algorithm id {}", data[1])))?;
        let elems = u32::from_le_bytes([data[4], data[5], data[6], data[7]]);
        Ok((Header { algo, elems }, &data[HEADER_LEN..]))
    }

    /// Parses a header and verifies it names the expected algorithm.
    pub fn read_expecting(data: &[u8], expected: AlgoId) -> Result<(Header, &[u8])> {
        let (h, rest) = Self::read(data)?;
        if h.algo != expected {
            return Err(Error::codec(format!(
                "expected {:?} stream, found {:?}",
                expected, h.algo
            )));
        }
        Ok((h, rest))
    }
}

/// Reads a little-endian `f32` at `offset` in `data`.
pub(crate) fn read_f32(data: &[u8], offset: usize) -> Result<f32> {
    let bytes: [u8; 4] = data
        .get(offset..offset + 4)
        .ok_or_else(|| Error::codec("truncated f32 field"))?
        .try_into()
        .expect("slice has length 4");
    Ok(f32::from_le_bytes(bytes))
}

/// Reads a little-endian `u32` at `offset` in `data`.
pub(crate) fn read_u32(data: &[u8], offset: usize) -> Result<u32> {
    let bytes: [u8; 4] = data
        .get(offset..offset + 4)
        .ok_or_else(|| Error::codec("truncated u32 field"))?
        .try_into()
        .expect("slice has length 4");
    Ok(u32::from_le_bytes(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let h = Header {
            algo: AlgoId::TernGrad,
            elems: 123_456,
        };
        let mut buf = Vec::new();
        h.write(&mut buf);
        assert_eq!(buf.len(), HEADER_LEN);
        let (parsed, rest) = Header::read(&buf).unwrap();
        assert_eq!(parsed, h);
        assert!(rest.is_empty());
    }

    #[test]
    fn for_len_carries_the_length() {
        let h = Header::for_len(AlgoId::Tbq, 77);
        assert_eq!((h.algo, h.elems), (AlgoId::Tbq, 77));
        assert_eq!(
            Header::for_len(AlgoId::Dgc, u32::MAX as usize).elems,
            u32::MAX
        );
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "exceeds the u32 element count")]
    fn for_len_refuses_to_truncate() {
        Header::for_len(AlgoId::OneBit, u32::MAX as usize + 1);
    }

    #[test]
    fn expect_elems_requires_the_exact_length() {
        let h = Header::for_len(AlgoId::Dgc, 9);
        assert!(h.expect_elems(9).is_ok());
        let err = h.expect_elems(8).unwrap_err().to_string();
        assert!(
            err.contains("holds 9 elements") && err.contains("holds 8"),
            "{err}"
        );
    }

    #[test]
    fn rejects_short_stream() {
        assert!(Header::read(&[MAGIC, 1]).is_err());
    }

    #[test]
    fn rejects_bad_magic() {
        let mut buf = Vec::new();
        Header {
            algo: AlgoId::OneBit,
            elems: 1,
        }
        .write(&mut buf);
        buf[0] = 0x00;
        assert!(Header::read(&buf).is_err());
    }

    #[test]
    fn rejects_unknown_algorithm() {
        let mut buf = Vec::new();
        Header {
            algo: AlgoId::OneBit,
            elems: 1,
        }
        .write(&mut buf);
        buf[1] = 99;
        assert!(Header::read(&buf).is_err());
    }

    #[test]
    fn read_expecting_checks_algo() {
        let mut buf = Vec::new();
        Header {
            algo: AlgoId::Dgc,
            elems: 9,
        }
        .write(&mut buf);
        assert!(Header::read_expecting(&buf, AlgoId::Dgc).is_ok());
        assert!(Header::read_expecting(&buf, AlgoId::OneBit).is_err());
    }

    #[test]
    fn scalar_readers_bounds_check() {
        let data = [0u8; 6];
        assert!(read_f32(&data, 0).is_ok());
        assert!(read_f32(&data, 3).is_err());
        assert!(read_u32(&data, 2).is_ok());
        assert!(read_u32(&data, 5).is_err());
    }
}
