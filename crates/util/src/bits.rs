//! LSB-first bit-level I/O over byte buffers.
//!
//! The quantization compressors (onebit, TBQ, TernGrad) emit streams of
//! 1-, 2-, or 4-bit codes, and CompLL's generated kernels store arrays
//! of sub-byte types (`uint1`, `uint2`, `uint4`) compactly. Both use
//! this module.
//!
//! Bits are packed least-significant-bit first within each byte: the
//! first value written occupies the lowest bits of byte 0. The total
//! number of bits is padded with zeros to a byte boundary, mirroring
//! the paper's CompLL code generator ("minimal zero padding to ensure
//! the total number of bits is a multiple of 8", §4.3).
//!
//! [`BitWriter`] / [`BitReader`] move one variable-width value per
//! call and define the layout. [`pack_codes`] / [`unpack_codes`] are
//! the kernels for the fixed-width case the quantizers live in: the
//! same bytes, produced and consumed eight codes at a time.

/// Incremental writer that packs variable-width codes into a `Vec<u8>`.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Number of valid bits in the last byte of `buf` (0 means the last
    /// byte is full or `buf` is empty).
    partial_bits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer with room for `bits` bits.
    pub fn with_capacity_bits(bits: usize) -> Self {
        Self {
            buf: Vec::with_capacity(bits.div_ceil(8)),
            partial_bits: 0,
        }
    }

    /// Appends the low `width` bits of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64, or if `value` has
    /// bits set above `width`.
    pub fn write(&mut self, value: u64, width: u32) {
        assert!((1..=64).contains(&width), "width must be in 1..=64");
        assert!(
            width == 64 || value < (1u64 << width),
            "value {value} does not fit in {width} bits"
        );
        let mut remaining = width;
        let mut v = value;
        while remaining > 0 {
            if self.partial_bits == 0 {
                self.buf.push(0);
            }
            let free = 8 - self.partial_bits;
            let take = free.min(remaining);
            let last = self.buf.last_mut().expect("buffer is non-empty here");
            *last |= ((v & ((1u16 << take) as u64 - 1)) as u8) << self.partial_bits;
            v >>= take;
            self.partial_bits = (self.partial_bits + take) % 8;
            // If the byte filled exactly, partial_bits wrapped to 0 and
            // the next iteration (or call) pushes a fresh byte.
            remaining -= take;
        }
    }

    /// Appends a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.write(bit as u64, 1);
    }

    /// Appends a full byte (8 bits).
    pub fn write_u8(&mut self, v: u8) {
        self.write(v as u64, 8);
    }

    /// Appends a little-endian `u32`.
    pub fn write_u32(&mut self, v: u32) {
        self.write(v as u64, 32);
    }

    /// Appends a little-endian `f32` bit pattern.
    pub fn write_f32(&mut self, v: f32) {
        self.write(v.to_bits() as u64, 32);
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        if self.partial_bits == 0 {
            self.buf.len() * 8
        } else {
            (self.buf.len() - 1) * 8 + self.partial_bits as usize
        }
    }

    /// Finishes the stream, zero-padding to a byte boundary, and
    /// returns the packed bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Sequential reader over a bit stream produced by [`BitWriter`].
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    /// Absolute bit cursor.
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `buf`, starting at bit 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Number of bits remaining.
    pub fn remaining_bits(&self) -> usize {
        self.buf.len() * 8 - self.pos
    }

    /// Current absolute bit position.
    pub fn bit_pos(&self) -> usize {
        self.pos
    }

    /// Reads the next `width` bits as the low bits of a `u64`.
    ///
    /// Returns `None` if fewer than `width` bits remain.
    pub fn read(&mut self, width: u32) -> Option<u64> {
        assert!((1..=64).contains(&width), "width must be in 1..=64");
        if self.remaining_bits() < width as usize {
            return None;
        }
        let mut out = 0u64;
        let mut got = 0u32;
        while got < width {
            let byte = self.buf[self.pos / 8];
            let bit_off = (self.pos % 8) as u32;
            let avail = 8 - bit_off;
            let take = avail.min(width - got);
            let mask = ((1u16 << take) - 1) as u8;
            let chunk = (byte >> bit_off) & mask;
            out |= (chunk as u64) << got;
            got += take;
            self.pos += take as usize;
        }
        Some(out)
    }

    /// Reads one bit.
    pub fn read_bit(&mut self) -> Option<bool> {
        self.read(1).map(|b| b != 0)
    }

    /// Reads a full byte.
    pub fn read_u8(&mut self) -> Option<u8> {
        self.read(8).map(|v| v as u8)
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&mut self) -> Option<u32> {
        self.read(32).map(|v| v as u32)
    }

    /// Reads a little-endian `f32` bit pattern.
    pub fn read_f32(&mut self) -> Option<f32> {
        self.read(32).map(|v| f32::from_bits(v as u32))
    }

    /// Skips `bits` bits. Returns `None` (without moving) if fewer
    /// remain.
    pub fn skip(&mut self, bits: usize) -> Option<()> {
        if self.remaining_bits() < bits {
            return None;
        }
        self.pos += bits;
        Some(())
    }
}

/// Number of bytes needed to store `count` values of `width` bits each.
pub fn packed_len(count: usize, width: u32) -> usize {
    (count * width as usize).div_ceil(8)
}

/// Packs one `width`-bit code per element of `src` onto the end of
/// `out`: byte for byte what one [`BitWriter::write`] per element and
/// a [`BitWriter::finish`] produce, [`packed_len`] bytes in all.
///
/// Eight codes of any width in `1..=8` fill exactly `width` bytes, so
/// each step gathers eight codes in a register and stores whole
/// bytes; only the last, partial group is zero padded. The function is
/// generic over `code`, so it is compiled — and the per-element code
/// inlined — inside the calling crate.
///
/// `code` runs exactly once per element, in order: it may carry state
/// (a running sum, a PRNG) and still see the elements sequentially.
///
/// # Panics
///
/// Panics if `width` is outside `1..=8`. A `code` result with bits
/// above `width` corrupts the neighbouring codes (checked in debug
/// builds only; this is the hot path).
#[inline]
pub fn pack_codes<T: Copy, F: FnMut(T) -> u8>(src: &[T], width: u32, out: &mut Vec<u8>, code: F) {
    match width {
        1 => pack_width::<1, T, F>(src, out, code),
        2 => pack_width::<2, T, F>(src, out, code),
        3 => pack_width::<3, T, F>(src, out, code),
        4 => pack_width::<4, T, F>(src, out, code),
        5 => pack_width::<5, T, F>(src, out, code),
        6 => pack_width::<6, T, F>(src, out, code),
        7 => pack_width::<7, T, F>(src, out, code),
        8 => pack_width::<8, T, F>(src, out, code),
        _ => panic!("bulk code width must be in 1..=8, got {width}"),
    }
}

/// Gathers up to eight `W`-bit codes, first code lowest.
#[inline]
fn gather<const W: usize, T: Copy>(group: &[T], code: &mut impl FnMut(T) -> u8) -> u64 {
    let mut word = 0u64;
    for (i, &x) in group.iter().enumerate() {
        let c = code(x);
        debug_assert!(u32::from(c) >> W == 0, "code {c} does not fit in {W} bits");
        word |= u64::from(c) << (i * W);
    }
    word
}

#[inline]
fn pack_width<const W: usize, T: Copy, F: FnMut(T) -> u8>(
    src: &[T],
    out: &mut Vec<u8>,
    mut code: F,
) {
    let start = out.len();
    out.resize(start + packed_len(src.len(), W as u32), 0);
    // The last, partial group may itself fill up to `W` bytes, so
    // split where the whole groups end rather than at a multiple of
    // `W`.
    let (whole, tail) = out[start..].split_at_mut(src.len() / 8 * W);
    let mut groups = src.chunks_exact(8);
    for (group, dst) in (&mut groups).zip(whole.chunks_exact_mut(W)) {
        dst.copy_from_slice(&gather::<W, T>(group, &mut code).to_le_bytes()[..W]);
    }
    let word = gather::<W, T>(groups.remainder(), &mut code);
    tail.copy_from_slice(&word.to_le_bytes()[..tail.len()]);
}

/// Unpacks `dst.len()` codes of `width` bits from the front of
/// `packed`, storing `value(code)` per element: the bulk inverse of
/// [`pack_codes`], code for code what [`BitReader::read`] returns.
///
/// Bytes of `packed` beyond [`packed_len`]`(dst.len(), width)` and the
/// padding bits of the last byte are ignored. `value` runs once per
/// element, in order.
///
/// # Panics
///
/// Panics if `width` is outside `1..=8` or `packed` is shorter than
/// [`packed_len`]`(dst.len(), width)` — callers decoding outside input
/// check the length first and return an error.
#[inline]
pub fn unpack_codes<T, F: FnMut(u8) -> T>(packed: &[u8], width: u32, dst: &mut [T], value: F) {
    match width {
        1 => unpack_width::<1, T, F>(packed, dst, value),
        2 => unpack_width::<2, T, F>(packed, dst, value),
        3 => unpack_width::<3, T, F>(packed, dst, value),
        4 => unpack_width::<4, T, F>(packed, dst, value),
        5 => unpack_width::<5, T, F>(packed, dst, value),
        6 => unpack_width::<6, T, F>(packed, dst, value),
        7 => unpack_width::<7, T, F>(packed, dst, value),
        8 => unpack_width::<8, T, F>(packed, dst, value),
        _ => panic!("bulk code width must be in 1..=8, got {width}"),
    }
}

/// Scatters the `W`-bit codes of `bytes` (at most `W` of them, first
/// code lowest) over `group`.
#[inline]
fn scatter<const W: usize, T>(bytes: &[u8], group: &mut [T], value: &mut impl FnMut(u8) -> T) {
    let mut le = [0u8; 8];
    le[..bytes.len()].copy_from_slice(bytes);
    let word = u64::from_le_bytes(le);
    let mask = (1u64 << W) - 1;
    for (i, slot) in group.iter_mut().enumerate() {
        *slot = value(((word >> (i * W)) & mask) as u8);
    }
}

#[inline]
fn unpack_width<const W: usize, T, F: FnMut(u8) -> T>(packed: &[u8], dst: &mut [T], mut value: F) {
    let packed = &packed[..packed_len(dst.len(), W as u32)];
    let (whole, tail) = packed.split_at(dst.len() / 8 * W);
    let mut groups = dst.chunks_exact_mut(8);
    for (group, src) in (&mut groups).zip(whole.chunks_exact(W)) {
        scatter::<W, T>(src, group, &mut value);
    }
    scatter::<W, T>(tail, groups.into_remainder(), &mut value);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_single_bits() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true, false, true];
        for &b in &pattern {
            w.write_bit(b);
        }
        assert_eq!(w.bit_len(), 9);
        let bytes = w.finish();
        assert_eq!(bytes.len(), 2);
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit(), Some(b));
        }
    }

    #[test]
    fn roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        w.write(0b101, 3);
        w.write(0xDEADBEEF, 32);
        w.write(1, 1);
        w.write(0x3F, 6);
        w.write(u64::MAX, 64);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read(3), Some(0b101));
        assert_eq!(r.read(32), Some(0xDEADBEEF));
        assert_eq!(r.read(1), Some(1));
        assert_eq!(r.read(6), Some(0x3F));
        assert_eq!(r.read(64), Some(u64::MAX));
    }

    #[test]
    fn f32_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bit(true); // Misalign on purpose.
        w.write_f32(std::f32::consts::PI);
        w.write_f32(-0.0);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bit(), Some(true));
        assert_eq!(r.read_f32(), Some(std::f32::consts::PI));
        assert_eq!(r.read_f32().map(f32::to_bits), Some((-0.0f32).to_bits()));
    }

    #[test]
    fn read_past_end_returns_none() {
        let mut w = BitWriter::new();
        w.write(0b11, 2);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read(2), Some(0b11));
        // Padding bits are readable (they are real zero bits)...
        assert_eq!(r.read(6), Some(0));
        // ...but past the final byte there is nothing.
        assert_eq!(r.read(1), None);
    }

    #[test]
    fn packed_len_matches_writer() {
        for count in 0..100 {
            for width in [1u32, 2, 3, 4, 7, 8, 13] {
                let mut w = BitWriter::new();
                for i in 0..count {
                    w.write((i as u64) & ((1u64 << width) - 1), width);
                }
                assert_eq!(w.finish().len(), packed_len(count, width));
            }
        }
    }

    #[test]
    fn bit_len_tracks_writes() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write(1, 1);
        assert_eq!(w.bit_len(), 1);
        w.write(0, 7);
        assert_eq!(w.bit_len(), 8);
        w.write(0x1FF, 9);
        assert_eq!(w.bit_len(), 17);
    }

    #[test]
    fn skip_moves_cursor() {
        let mut w = BitWriter::new();
        w.write_u32(0xABCD_1234);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.skip(8), Some(()));
        assert_eq!(r.read(8), Some(0x12));
        assert_eq!(r.skip(100), None);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_value_panics() {
        BitWriter::new().write(4, 2);
    }
}
