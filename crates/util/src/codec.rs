//! The byte-level codec: little-endian primitive writers and readers
//! with structured, panic-free decode errors, and the [`record!`]
//! declarations every wire type in the workspace is written in.
//!
//! Every wire structure — frames, runtime messages, the process
//! control protocol, reports, flight rings — serializes through
//! [`Writer`] and parses through [`Reader`]. The reader *never* panics
//! and never allocates more than the input holds: length prefixes are
//! validated against the remaining input before any allocation, so
//! truncated, bit-flipped, or garbage inputs yield a [`DecodeError`],
//! not an abort or an out-of-memory hang.
//!
//! A type crosses a process boundary by implementing [`Field`], and
//! almost every one does so by being declared with [`record!`]: one
//! field list (or variant list, with a tag byte per variant) yields
//! the type, its codec, and on request its `absorb` and its JSON
//! object. [`WireMsg`] is the standalone-bytes form of any `Field`.
//! The codec lives here, at the bottom of the crate graph, so every
//! crate can declare its own wire types.

use std::fmt;

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
        // Fixed-size chunks vectorize; `chunks_exact(4)` compiled to a
        // scalar loop whose speed swung 2x with its code alignment.
        Ok(raw
            .as_chunks::<4>()
            .0
            .iter()
            .map(|c| f32::from_le_bytes(*c))
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

/// A value with one wire form, so a [`record!`] can encode a field of
/// its type by naming the type alone.
pub trait Field: Sized {
    /// Appends the value.
    fn put(&self, w: &mut Writer);

    /// Parses one value, or a structured [`DecodeError`] for any
    /// malformed input.
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError>;

    /// Appends a list: a `u32` count, then each element.
    fn put_list(v: &[Self], w: &mut Writer) {
        w.put_u32(v.len() as u32);
        for x in v {
            x.put(w);
        }
    }

    /// Parses a list. It grows as elements arrive and never reserves
    /// from the count, so a hostile count fails at the end of the
    /// input instead of allocating for it.
    fn get_list(r: &mut Reader<'_>) -> Result<Vec<Self>, DecodeError> {
        let mut out = Vec::new();
        for _ in 0..r.u32()? {
            out.push(Self::get(r)?);
        }
        Ok(out)
    }
}

macro_rules! le_fields {
    ($($t:ty: $put:ident, $get:ident;)*) => {$(
        impl Field for $t {
            fn put(&self, w: &mut Writer) {
                w.$put(*self);
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                r.$get()
            }
        }
    )*};
}

le_fields! {
    u16: put_u16, u16;
    u32: put_u32, u32;
    u64: put_u64, u64;
    f64: put_f64, f64;
}

/// `Vec<u8>` (an opaque body) travels as one bulk block.
impl Field for u8 {
    fn put(&self, w: &mut Writer) {
        w.put_u8(*self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.u8()
    }
    fn put_list(v: &[Self], w: &mut Writer) {
        w.put_bytes(v);
    }
    fn get_list(r: &mut Reader<'_>) -> Result<Vec<Self>, DecodeError> {
        Ok(r.bytes()?.to_vec())
    }
}

/// `Vec<f32>` (a gradient) travels as one bulk block.
impl Field for f32 {
    fn put(&self, w: &mut Writer) {
        w.put_f32(*self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.f32()
    }
    fn put_list(v: &[Self], w: &mut Writer) {
        w.put_f32s(v);
    }
    fn get_list(r: &mut Reader<'_>) -> Result<Vec<Self>, DecodeError> {
        r.f32s()
    }
}

/// One byte, 0 or 1; any other byte is [`DecodeError::BadTag`].
impl Field for bool {
    fn put(&self, w: &mut Writer) {
        w.put_u8(u8::from(*self));
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(DecodeError::BadTag {
                what: "flag",
                tag: u64::from(t),
            }),
        }
    }
}

/// Zigzag-encodes a signed value so small magnitudes of either sign
/// stay small as a `u64`.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Types that travel as a `u64`: `usize` as is, `i64` zigzagged.
macro_rules! u64_fields {
    ($($t:ty: $to:expr, $from:expr;)*) => {$(
        impl Field for $t {
            fn put(&self, w: &mut Writer) {
                w.put_u64($to(*self));
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                Ok($from(r.u64()?))
            }
        }
    )*};
}

u64_fields! {
    usize: |v: usize| v as u64, |v: u64| v as usize;
    i64: zigzag, unzigzag;
}

impl Field for String {
    fn put(&self, w: &mut Writer) {
        w.put_str(self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(r.str()?.to_owned())
    }
}

impl<T: Field> Field for Box<T> {
    fn put(&self, w: &mut Writer) {
        T::put(self, w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        T::get(r).map(Box::new)
    }
}

impl<T: Field> Field for Vec<T> {
    fn put(&self, w: &mut Writer) {
        T::put_list(self, w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        T::get_list(r)
    }
}

/// A presence flag (a `bool`), then the value when present.
impl<T: Field> Field for Option<T> {
    fn put(&self, w: &mut Writer) {
        self.is_some().put(w);
        if let Some(v) = self {
            v.put(w);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        bool::get(r)?.then(|| T::get(r)).transpose()
    }
}

/// Tuples travel element by element.
macro_rules! tuple_fields {
    ($(($($t:ident $i:tt),*))*) => {$(
        impl<$($t: Field),*> Field for ($($t,)*) {
            fn put(&self, w: &mut Writer) {
                $(self.$i.put(w);)*
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                Ok(($($t::get(r)?,)*))
            }
        }
    )*};
}

tuple_fields! { (A 0, B 1) (A 0, B 1, C 2) }

/// A value's JSON form: a number, an array, or the object a `[json]`
/// [`record!`] renders from its fields.
pub trait Json {
    /// Appends the value's JSON form.
    fn write_json(&self, out: &mut String);
}

macro_rules! json_numbers {
    ($($t:ty),*) => {$(
        impl Json for $t {
            fn write_json(&self, out: &mut String) {
                out.push_str(&self.to_string());
            }
        }
    )*};
}

json_numbers!(u32, u64, usize);

impl<T: Json> Json for Vec<T> {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write_json(out);
        }
        out.push(']');
    }
}

/// Appends `{"name":value,...}` in the order given.
pub fn write_json_object(out: &mut String, fields: &[(&str, &dyn Json)]) {
    out.push('{');
    for (i, (name, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(name);
        out.push_str("\":");
        v.write_json(out);
    }
    out.push('}');
}

/// Declares a wire record: one field list yields the type itself
/// (attributes, docs and visibility as written) and a [`Field`] impl.
///
/// A `struct` writes and reads its fields in declaration order.
/// Options in brackets after the name add an `absorb` method
/// (`[absorb]`) and a [`Json`] impl (`[json]`).
///
/// ```
/// hipress_util::record! {
///     /// Per-peer counters.
///     #[derive(Debug, Default)]
///     pub struct Tally [absorb, json] {
///         /// Frames seen.
///         pub frames: u64 => sum,
///         /// Peers heard from.
///         pub peers: Vec<u32> => append,
///     }
/// }
/// ```
///
/// A field's kind, after `=>`, says how `absorb` merges it: `sum`
/// (`+=`), `keep` (ignored), `append` (extend a `Vec`) or `absorb`
/// (the field's own `absorb`). It is required only on records that
/// ask for `absorb`. A field whose type has no [`Field`] impl names
/// its codec instead: `=> via(put_fn, get_fn)`, with
/// `put_fn(&mut Writer, &T)` and `get_fn(&mut Reader) -> Result<T,
/// DecodeError>`.
///
/// An `enum` writes a tag byte, then the variant's fields in
/// declaration order. Every variant states its tag after `=`, and the
/// bracket after the name is the label an unknown tag's
/// [`DecodeError::BadTag`] carries. Variants may be unit, one-field
/// tuple or named-field variants; fields take `=> via(..)` as in a
/// struct. An enum whose variants are all units keeps the tags as its
/// discriminants.
///
/// ```
/// hipress_util::record! {
///     /// A request.
///     #[derive(Debug, PartialEq)]
///     pub enum Req ["req"] {
///         /// Stop.
///         Stop = 1,
///         /// Read `len` bytes at `at`.
///         Read { at: u64, len: u32 } = 2,
///         /// Say something.
///         Say(String) = 3,
///     }
/// }
/// ```
#[macro_export]
macro_rules! record {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident $([$($opt:ident),*])? {
            $(
                $(#[$fmeta:meta])*
                $fvis:vis $field:ident: $ty:ty $(=> $kind:ident $(($($arg:tt)*))?)?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $ty,)*
        }

        impl $crate::codec::Field for $name {
            fn put(&self, w: &mut $crate::codec::Writer) {
                $($crate::record!(@put [$($kind $(($($arg)*))?)?] w &self.$field, $ty);)*
            }

            fn get(
                r: &mut $crate::codec::Reader<'_>,
            ) -> ::core::result::Result<Self, $crate::codec::DecodeError> {
                ::core::result::Result::Ok(Self {
                    $($field: $crate::record!(@get [$($kind $(($($arg)*))?)?] r, $ty)?,)*
                })
            }
        }

        $crate::record!(@opts $name [$($($opt)*)?] {$($field $($kind)?),*});
    };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident [$what:literal] {
            $($(#[$vmeta:meta])* $variant:ident = $tag:literal),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $($(#[$vmeta])* $variant = $tag,)*
        }

        impl $crate::codec::Field for $name {
            fn put(&self, w: &mut $crate::codec::Writer) {
                w.put_u8(match self {
                    $(Self::$variant => $tag,)*
                });
            }

            fn get(
                r: &mut $crate::codec::Reader<'_>,
            ) -> ::core::result::Result<Self, $crate::codec::DecodeError> {
                match r.u8()? {
                    $($tag => ::core::result::Result::Ok(Self::$variant),)*
                    tag => $crate::record!(@bad_tag $what, tag),
                }
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident [$what:literal] {
            $(
                $(#[$vmeta:meta])*
                $variant:ident
                $(($tty:ty $(=> $tkind:ident $(($($targ:tt)*))?)?))?
                $({
                    $(
                        $(#[$fmeta:meta])*
                        $field:ident: $fty:ty $(=> $fkind:ident $(($($farg:tt)*))?)?
                    ),* $(,)?
                })?
                = $tag:literal
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $variant $(($tty))? $({$($(#[$fmeta])* $field: $fty,)*})?,
            )*
        }

        impl $crate::codec::Field for $name {
            fn put(&self, w: &mut $crate::codec::Writer) {
                match self {
                    $(Self::$variant $(($crate::record!(@bind v $tty)))? $({$($field),*})? => {
                        w.put_u8($tag);
                        $($crate::record!(@put [$($tkind $(($($targ)*))?)?] w v, $tty);)?
                        $($($crate::record!(@put [$($fkind $(($($farg)*))?)?] w $field, $fty);)*)?
                    })*
                }
            }

            fn get(
                r: &mut $crate::codec::Reader<'_>,
            ) -> ::core::result::Result<Self, $crate::codec::DecodeError> {
                ::core::result::Result::Ok(match r.u8()? {
                    $($tag => Self::$variant
                        $(($crate::record!(@get [$($tkind $(($($targ)*))?)?] r, $tty)?))?
                        $({$($field: $crate::record!(@get [$($fkind $(($($farg)*))?)?] r, $fty)?,)*})?,
                    )*
                    tag => return $crate::record!(@bad_tag $what, tag),
                })
            }
        }
    };
    // A tuple variant's binding. It takes the type only so that the
    // optional group it sits in has a metavariable to repeat on.
    (@bind $v:ident $ty:ty) => {
        $v
    };
    (@bad_tag $what:literal, $tag:ident) => {
        ::core::result::Result::Err($crate::codec::DecodeError::BadTag {
            what: $what,
            tag: u64::from($tag),
        })
    };
    (@put [via($put:path, $get:path)] $w:ident $v:expr, $ty:ty) => {
        $put($w, $v)
    };
    (@put [$($kind:tt)*] $w:ident $v:expr, $ty:ty) => {
        <$ty as $crate::codec::Field>::put($v, $w)
    };
    (@get [via($put:path, $get:path)] $r:ident, $ty:ty) => {
        $get($r)
    };
    (@get [$($kind:tt)*] $r:ident, $ty:ty) => {
        <$ty as $crate::codec::Field>::get($r)
    };
    (@opts $name:ident [] $fields:tt) => {};
    (@opts $name:ident [$opt:ident $($rest:ident)*] $fields:tt) => {
        $crate::record!(@$opt $name $fields);
        $crate::record!(@opts $name [$($rest)*] $fields);
    };
    (@absorb $name:ident {$($field:ident $($kind:ident)?),*}) => {
        impl $name {
            /// Merges `other` into this record, each field by its
            /// declared merge kind.
            pub fn absorb(&mut self, other: &Self) {
                $($crate::record!(@merge self other $field $($kind)?);)*
            }
        }
    };
    (@merge $s:tt $o:tt $f:ident sum) => {
        $s.$f += $o.$f
    };
    (@merge $s:tt $o:tt $f:ident keep) => {};
    (@merge $s:tt $o:tt $f:ident append) => {
        $s.$f.extend_from_slice(&$o.$f)
    };
    (@merge $s:tt $o:tt $f:ident absorb) => {
        $s.$f.absorb(&$o.$f)
    };
    (@merge $s:tt $o:tt $f:ident $($kind:tt)*) => {
        compile_error!(concat!(
            "record field `",
            stringify!($f),
            "` needs a merge kind: sum, keep, append or absorb"
        ))
    };
    (@json $name:ident {$($field:ident $($kind:ident)?),*}) => {
        impl $crate::codec::Json for $name {
            fn write_json(&self, out: &mut ::std::string::String) {
                $crate::codec::write_json_object(out, &[$((stringify!($field), &self.$field)),*]);
            }
        }
    };
}

/// A [`Field`] as a standalone byte vector: what a serializing
/// fabric moves. Every `Field` that can cross a thread is one.
pub trait WireMsg: Field + Send + 'static {
    /// The value's encoding, alone in a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        encode(self)
    }

    /// Parses a standalone byte vector, requiring full consumption.
    ///
    /// # Errors
    ///
    /// A structured [`DecodeError`] for any malformed input, including
    /// [`DecodeError::TrailingBytes`]; never panics.
    fn from_bytes(buf: &[u8]) -> Result<Self, DecodeError> {
        decode_all(buf)
    }
}

impl<T: Field + Send + 'static> WireMsg for T {}

fn encode<T: Field>(v: &T) -> Vec<u8> {
    let mut w = Writer::new();
    v.put(&mut w);
    w.into_vec()
}

/// Decodes `bytes` as exactly one `T`.
fn decode_all<T: Field>(bytes: &[u8]) -> Result<T, DecodeError> {
    let mut r = Reader::new(bytes);
    let v = T::get(&mut r)?;
    r.finish()?;
    Ok(v)
}

/// The hostile-input check every record's test runs on a value whose
/// fields are all distinct and non-default.
///
/// # Panics
///
/// Unless: the value decodes and re-encodes to the same bytes (so no
/// field is dropped or reordered); every strict prefix fails to
/// decode; any four bytes overwritten with `0xFF` decode without
/// panicking; and a list claiming `u32::MAX` elements over a short
/// body fails without allocating for the count.
pub fn check_record<T: Field>(value: &T) {
    let bytes = encode(value);
    let back = decode_all::<T>(&bytes).expect("the encoding decodes");
    assert_eq!(encode(&back), bytes, "decode then encode changed the bytes");
    for cut in 0..bytes.len() {
        assert!(
            decode_all::<T>(&bytes[..cut]).is_err(),
            "a {cut}-byte prefix of {} decoded",
            bytes.len()
        );
    }
    for at in 0..bytes.len().saturating_sub(3) {
        let mut hostile = bytes.clone();
        hostile[at..at + 4].copy_from_slice(&[0xFF; 4]);
        let _ = decode_all::<T>(&hostile);
    }
    let mut hostile = u32::MAX.to_le_bytes().to_vec();
    hostile.extend_from_slice(&bytes);
    assert!(decode_all::<Vec<T>>(&hostile).is_err());
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

    fn put_doubled(w: &mut Writer, v: &u32) {
        w.put_u32(v * 2);
    }

    fn get_halved(r: &mut Reader<'_>) -> Result<u32, DecodeError> {
        Ok(r.u32()? / 2)
    }

    crate::record! {
        #[derive(Debug, Clone, PartialEq)]
        enum Shape ["shape"] {
            Empty = 0,
            Boxed(Box<Vec<u8>>) = 3,
            Named {
                a: u16,
                b: u32 => via(put_doubled, get_halved),
                c: Option<String>,
            } = 7,
        }
    }

    crate::record! {
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Unit ["unit"] {
            A = 4,
            B = 9,
        }
    }

    #[test]
    fn enum_records_write_the_tag_then_the_fields() {
        let named = Shape::Named {
            a: 1,
            b: 21,
            c: Some("x".into()),
        };
        let bytes = named.to_bytes();
        assert_eq!(bytes, [7, 1, 0, 42, 0, 0, 0, 1, 1, 0, 0, 0, b'x']);
        assert_eq!(Shape::from_bytes(&bytes), Ok(named.clone()));
        let boxed = Shape::Boxed(Box::new(vec![5, 6]));
        assert_eq!(boxed.to_bytes(), [3, 2, 0, 0, 0, 5, 6]);
        assert_eq!(Shape::Empty.to_bytes(), [0]);
        for v in [Shape::Empty, boxed, named] {
            check_record(&v);
        }
        assert_eq!(Unit::B as u8, 9);
        assert_eq!(Unit::from_bytes(&[4]), Ok(Unit::A));
        check_record(&Unit::B);
    }

    #[test]
    fn unknown_enum_tags_name_the_enum() {
        assert_eq!(
            Shape::from_bytes(&[1]),
            Err(DecodeError::BadTag {
                what: "shape",
                tag: 1
            })
        );
        assert_eq!(
            Unit::from_bytes(&[5]),
            Err(DecodeError::BadTag {
                what: "unit",
                tag: 5
            })
        );
    }
}
