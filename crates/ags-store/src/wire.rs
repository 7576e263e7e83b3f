//! Bounds-checked binary encode/decode helpers.
//!
//! All multi-byte values are little-endian. Floats are stored via
//! `to_bits`/`from_bits` so round-trips are bit-exact — a restored run must
//! reproduce the interrupted run's trajectory to the last mantissa bit.

use crate::error::StoreError;

/// Append-only binary encoder.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
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
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes an `f32` as its IEEE-754 bit pattern (exact round-trip).
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Writes an `f64` as its IEEE-754 bit pattern (exact round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes an optional `f32` as a presence byte plus the bit pattern.
    pub fn put_opt_f32(&mut self, v: Option<f32>) {
        match v {
            Some(x) => {
                self.put_u8(1);
                self.put_f32(x);
            }
            None => self.put_u8(0),
        }
    }

    /// Writes raw bytes (length is *not* prefixed — callers encode it).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Bounds-checked binary decoder over a byte slice.
///
/// Every read returns [`StoreError::Corrupt`] on overrun instead of
/// panicking: a truncated record must be a recoverable error, never a crash.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Corrupt(format!(
                "truncated record: wanted {n} bytes at offset {}, {} left",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, StoreError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("slice length")))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("slice length")))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("slice length")))
    }

    /// Reads a `u64` and converts it to `usize`, rejecting overflow.
    pub fn get_usize(&mut self) -> Result<usize, StoreError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| StoreError::Corrupt(format!("length {v} overflows usize")))
    }

    /// Reads a `usize` used as an element count, rejecting values that could
    /// not possibly fit in the remaining bytes (`min_elem_bytes` per item).
    /// Guards `Vec::with_capacity` against hostile lengths.
    pub fn get_count(&mut self, min_elem_bytes: usize) -> Result<usize, StoreError> {
        let n = self.get_usize()?;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(StoreError::Corrupt(format!(
                "count {n} exceeds remaining payload ({} bytes)",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Reads an `f32` bit pattern.
    pub fn get_f32(&mut self) -> Result<f32, StoreError> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Reads an `f64` bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads an optional `f32` (presence byte plus bit pattern).
    pub fn get_opt_f32(&mut self) -> Result<Option<f32>, StoreError> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.get_f32()?)),
            b => Err(StoreError::Corrupt(format!("invalid option tag {b}"))),
        }
    }

    /// Reads `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        self.take(n)
    }

    /// Asserts the payload was fully consumed.
    pub fn finish(self) -> Result<(), StoreError> {
        if self.remaining() != 0 {
            return Err(StoreError::Corrupt(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// Test support for decoders of bytes that arrive from disk or a socket:
/// `bytes` (a valid encoding) decodes, every strict prefix of it decodes to
/// `Err`, and 4 000 `seed`-drawn single-byte mutations of it each decode to
/// `Ok` or `Err` — never a panic. `decode` returns whether its input
/// decoded. Both outcomes must occur among the mutations, so they reach
/// past the header: value bytes decode, lengths and tags are rejected.
#[cfg(test)]
pub(crate) fn assert_prefixes_fail_and_mutations_never_panic(
    bytes: &[u8],
    seed: u64,
    decode: impl Fn(&[u8]) -> bool,
) {
    // `Some(decoded)`, or `None` when the decoder panicked.
    let run = |payload: &[u8]| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| decode(payload))).ok()
    };
    assert_eq!(run(bytes), Some(true), "the valid encoding must decode");
    for cut in 0..bytes.len() {
        assert_eq!(run(&bytes[..cut]), Some(false), "decoding the first {cut} bytes");
    }
    let mut rng = ags_math::Pcg32::seeded(seed);
    let mut decoded = 0;
    let mutations = 4_000;
    for i in 0..mutations {
        let mut mutated = bytes.to_vec();
        let at = rng.index(bytes.len());
        // A non-zero XOR mask always changes the byte.
        mutated[at] ^= 1 + rng.range_u32(255) as u8;
        let outcome = run(&mutated);
        assert!(outcome.is_some(), "mutation {i} (byte {at} = {:#04x}) panicked", mutated[at]);
        decoded += usize::from(outcome == Some(true));
    }
    assert!(0 < decoded && decoded < mutations, "{decoded} of {mutations} decoded");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_scalar_kinds() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u16(65535);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX - 1);
        w.put_usize(42);
        w.put_f32(-0.0);
        w.put_f64(std::f64::consts::PI);
        w.put_opt_f32(None);
        w.put_opt_f32(Some(f32::NAN));
        w.put_bytes(b"xyz");
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 65535);
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_usize().unwrap(), 42);
        assert_eq!(r.get_f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(r.get_f64().unwrap(), std::f64::consts::PI);
        assert_eq!(r.get_opt_f32().unwrap(), None);
        assert!(r.get_opt_f32().unwrap().unwrap().is_nan());
        assert_eq!(r.get_bytes(3).unwrap(), b"xyz");
        r.finish().unwrap();
    }

    #[test]
    fn overrun_is_a_corrupt_error_not_a_panic() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(matches!(r.get_u64(), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = ByteWriter::new();
        w.put_u32(1);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        r.get_u16().unwrap();
        assert!(matches!(r.finish(), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn hostile_count_is_rejected_before_allocation() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.get_count(4), Err(StoreError::Corrupt(_))));
    }
}
