//! The snapshot codec: a compact, versioned, dependency-free binary
//! format for mission state.
//!
//! Snapshots exist to make *every* piece of mutable co-simulation state
//! explicit (DESIGN.md §4e): each component serializes its dynamic state
//! with [`SnapWriter`] and restores it with [`SnapReader`]. The format is
//! deliberately primitive — little-endian fixed-width integers, `f64`
//! bit patterns, and length-prefixed byte strings — so that
//! serialize → deserialize → serialize is byte-identical by construction
//! and no external serialization crate is required.
//!
//! # The "no hidden state" contract
//!
//! A component's `save_state` must begin with an exhaustive destructuring
//! of `self` (`let Self { a, b, c } = self;` — **no `..` rest pattern**),
//! so adding a field to a snapshot-covered struct breaks the build until
//! the author decides whether the field is dynamic state (serialize it)
//! or structural configuration (rebuilt from `MissionConfig` on resume,
//! bind it to `_`). The SNAP001 lint enforces the no-rest-pattern rule.
//!
//! # Sections
//!
//! Component boundaries are marked with [`SnapWriter::section`] magics.
//! A reader that drifts out of alignment (a component reading more or
//! fewer bytes than were written) fails fast at the next section check
//! with both magics in the error, instead of silently misinterpreting
//! another component's bytes.

use std::fmt;

/// A snapshot decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer ended before the value's bytes.
    Truncated {
        /// Bytes the read needed.
        wanted: usize,
        /// Bytes left in the buffer.
        available: usize,
    },
    /// A tag byte had no defined meaning at this position.
    BadTag {
        /// What was being decoded.
        context: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A section magic did not match — the reader is misaligned.
    BadSection {
        /// The magic the reader expected.
        expected: u32,
        /// The magic actually found.
        found: u32,
    },
    /// The snapshot's format version is not supported.
    BadVersion {
        /// The newest version this build understands.
        supported: u32,
        /// The version in the snapshot header.
        found: u32,
    },
    /// Bytes remained after the final field was read.
    TrailingBytes {
        /// How many bytes were left over.
        count: usize,
    },
    /// A length prefix exceeded the bytes that remain in the buffer.
    BadLength {
        /// The claimed length.
        len: u64,
        /// Bytes left in the buffer.
        available: usize,
    },
    /// A string field held invalid UTF-8.
    BadUtf8,
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated { wanted, available } => {
                write!(f, "snapshot truncated: wanted {wanted} bytes, {available} available")
            }
            SnapError::BadTag { context, tag } => {
                write!(f, "bad tag {tag:#04x} decoding {context}")
            }
            SnapError::BadSection { expected, found } => write!(
                f,
                "section mismatch: expected {expected:#010x}, found {found:#010x}"
            ),
            SnapError::BadVersion { supported, found } => write!(
                f,
                "unsupported snapshot version {found} (this build supports <= {supported})"
            ),
            SnapError::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after final field")
            }
            SnapError::BadLength { len, available } => {
                write!(f, "length prefix {len} exceeds {available} available bytes")
            }
            SnapError::BadUtf8 => write!(f, "invalid UTF-8 in string field"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Appends snapshot fields to a growable buffer.
#[derive(Debug, Default, Clone)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> SnapWriter {
        SnapWriter::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes a section magic marking a component boundary.
    pub fn section(&mut self, magic: u32) {
        self.u32(magic);
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u128`.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (platform-independent width).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` as its IEEE-754 bit pattern — bit-exact, including
    /// NaN payloads and signed zeros.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Writes a length-prefixed byte string.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Writes an optional `f64` (presence byte + value).
    pub fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.f64(x);
            }
            None => self.u8(0),
        }
    }

    /// Writes an optional `u64` (presence byte + value).
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
            None => self.u8(0),
        }
    }

    /// Writes an optional length-prefixed byte string.
    pub fn opt_bytes(&mut self, v: Option<&[u8]>) {
        match v {
            Some(b) => {
                self.u8(1);
                self.bytes(b);
            }
            None => self.u8(0),
        }
    }
}

/// Reads snapshot fields back in write order.
#[derive(Debug, Clone)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader over `buf` positioned at the start.
    pub fn new(buf: &'a [u8]) -> SnapReader<'a> {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts the buffer was consumed exactly.
    ///
    /// # Errors
    ///
    /// [`SnapError::TrailingBytes`] if any bytes remain.
    pub fn finish(self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::TrailingBytes {
                count: self.remaining(),
            })
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated {
                wanted: n,
                available: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Checks the next section magic.
    ///
    /// # Errors
    ///
    /// [`SnapError::BadSection`] on mismatch (reader misalignment).
    pub fn section(&mut self, magic: u32) -> Result<(), SnapError> {
        let found = self.u32()?;
        if found == magic {
            Ok(())
        } else {
            Err(SnapError::BadSection {
                expected: magic,
                found,
            })
        }
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] if the buffer is exhausted.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] if the buffer is exhausted.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        // rose-lint: allow(PANIC002, take(2) returned exactly 2 bytes; the conversion is infallible)
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] if the buffer is exhausted.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        // rose-lint: allow(PANIC002, take(4) returned exactly 4 bytes; the conversion is infallible)
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] if the buffer is exhausted.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        // rose-lint: allow(PANIC002, take(8) returned exactly 8 bytes; the conversion is infallible)
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads a little-endian `u128`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] if the buffer is exhausted.
    pub fn u128(&mut self) -> Result<u128, SnapError> {
        let mut v = [0u8; 16];
        v.copy_from_slice(self.take(16)?);
        Ok(u128::from_le_bytes(v))
    }

    /// Reads a little-endian `i64`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] if the buffer is exhausted.
    pub fn i64(&mut self) -> Result<i64, SnapError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads a `usize` written by [`SnapWriter::usize`].
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] if the buffer is exhausted, or
    /// [`SnapError::BadLength`] if the value exceeds the remaining buffer
    /// (a `usize` field is always an index or count bounded by the data
    /// that follows, so this catches corrupt prefixes early).
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapError::BadLength {
            len: v,
            available: self.remaining(),
        })
    }

    /// Reads an `f64` bit pattern.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] if the buffer is exhausted.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool byte.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] on exhaustion, [`SnapError::BadTag`] if
    /// the byte is neither 0 nor 1.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(SnapError::BadTag {
                context: "bool",
                tag,
            }),
        }
    }

    /// Reads a length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// [`SnapError::BadLength`] if the prefix exceeds the buffer,
    /// [`SnapError::Truncated`] on exhaustion.
    pub fn bytes(&mut self) -> Result<Vec<u8>, SnapError> {
        let range = self.byte_range()?;
        Ok(self.buf[range].to_vec())
    }

    /// Reads a length-prefixed byte string without copying it: returns
    /// where the string sits in the reader's buffer.
    ///
    /// # Errors
    ///
    /// As [`SnapReader::bytes`].
    pub fn byte_range(&mut self) -> Result<std::ops::Range<usize>, SnapError> {
        let len = self.u64()?;
        if len > self.remaining() as u64 {
            return Err(SnapError::BadLength {
                len,
                available: self.remaining(),
            });
        }
        let start = self.pos;
        self.take(len as usize)?;
        Ok(start..self.pos)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// As [`SnapReader::bytes`], plus [`SnapError::BadUtf8`].
    pub fn string(&mut self) -> Result<String, SnapError> {
        String::from_utf8(self.bytes()?).map_err(|_| SnapError::BadUtf8)
    }

    /// Reads an optional `f64`.
    ///
    /// # Errors
    ///
    /// As [`SnapReader::bool`] and [`SnapReader::f64`].
    pub fn opt_f64(&mut self) -> Result<Option<f64>, SnapError> {
        Ok(if self.bool()? { Some(self.f64()?) } else { None })
    }

    /// Reads an optional `u64`.
    ///
    /// # Errors
    ///
    /// As [`SnapReader::bool`] and [`SnapReader::u64`].
    pub fn opt_u64(&mut self) -> Result<Option<u64>, SnapError> {
        Ok(if self.bool()? { Some(self.u64()?) } else { None })
    }

    /// Reads an optional byte string.
    ///
    /// # Errors
    ///
    /// As [`SnapReader::bool`] and [`SnapReader::bytes`].
    pub fn opt_bytes(&mut self) -> Result<Option<Vec<u8>>, SnapError> {
        Ok(if self.bool()? {
            Some(self.bytes()?)
        } else {
            None
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_every_primitive() {
        let mut w = SnapWriter::new();
        w.section(0x5eed_0001);
        w.u8(0xab);
        w.u16(0x1234);
        w.u32(0xdead_beef);
        w.u64(0x0123_4567_89ab_cdef);
        w.i64(-42);
        w.usize(7);
        w.f64(-0.0);
        w.f64(f64::from_bits(0x7ff8_dead_beef_0001)); // NaN payload
        w.bool(true);
        w.bytes(&[1, 2, 3]);
        w.str("hello");
        w.opt_f64(Some(1.5));
        w.opt_f64(None);
        w.opt_u64(Some(9));
        w.opt_bytes(Some(&[4, 5]));
        w.opt_bytes(None);
        let bytes = w.into_bytes();

        let mut r = SnapReader::new(&bytes);
        r.section(0x5eed_0001).unwrap();
        assert_eq!(r.u8().unwrap(), 0xab);
        assert_eq!(r.u16().unwrap(), 0x1234);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.usize().unwrap(), 7);
        let z = r.f64().unwrap();
        assert_eq!(z.to_bits(), (-0.0f64).to_bits(), "signed zero preserved");
        assert_eq!(r.f64().unwrap().to_bits(), 0x7ff8_dead_beef_0001);
        assert!(r.bool().unwrap());
        assert_eq!(r.bytes().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.string().unwrap(), "hello");
        assert_eq!(r.opt_f64().unwrap(), Some(1.5));
        assert_eq!(r.opt_f64().unwrap(), None);
        assert_eq!(r.opt_u64().unwrap(), Some(9));
        assert_eq!(r.opt_bytes().unwrap(), Some(vec![4, 5]));
        assert_eq!(r.opt_bytes().unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_detected() {
        let mut w = SnapWriter::new();
        w.u64(1);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..4]);
        assert_eq!(
            r.u64(),
            Err(SnapError::Truncated {
                wanted: 8,
                available: 4
            })
        );
    }

    #[test]
    fn section_mismatch_is_detected() {
        let mut w = SnapWriter::new();
        w.section(0x1111_1111);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(
            r.section(0x2222_2222),
            Err(SnapError::BadSection {
                expected: 0x2222_2222,
                found: 0x1111_1111
            })
        );
    }

    #[test]
    fn bad_length_prefix_is_detected() {
        let mut w = SnapWriter::new();
        w.u64(1_000_000); // length prefix far beyond the buffer
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(r.bytes(), Err(SnapError::BadLength { .. })));
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut w = SnapWriter::new();
        w.u8(1);
        w.u8(2);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        r.u8().unwrap();
        assert_eq!(r.finish(), Err(SnapError::TrailingBytes { count: 1 }));
    }

    #[test]
    fn bad_bool_tag_is_detected() {
        let bytes = [7u8];
        let mut r = SnapReader::new(&bytes);
        assert_eq!(
            r.bool(),
            Err(SnapError::BadTag {
                context: "bool",
                tag: 7
            })
        );
    }
}
