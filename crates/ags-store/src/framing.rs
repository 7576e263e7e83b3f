//! Checksummed, versioned record framing.
//!
//! Every value written to a [`MapStore`](crate::MapStore) is wrapped as
//!
//! ```text
//! ┌───────┬─────────┬──────┬─────────────┬───────────┬─────────┐
//! │ magic │ version │ kind │ payload len │ CRC-32    │ payload │
//! │ 4 B   │ u16     │ u8   │ u64         │ u32       │ …       │
//! └───────┴─────────┴──────┴─────────────┴───────────┴─────────┘
//! ```
//!
//! A torn write (truncated payload), a bit flip (CRC mismatch), a format
//! bump (version mismatch) or a misfiled record (kind mismatch) all surface
//! as [`StoreError::Corrupt`] — the restore path then falls back to the
//! previous good checkpoint generation instead of loading garbage.

use crate::error::StoreError;
use crate::wire::{ByteReader, ByteWriter};

/// Magic bytes identifying an AGS checkpoint record.
pub const MAGIC: [u8; 4] = *b"AGSK";

/// Current framing format version.
///
/// v2 introduced the chunked quantized splat encoding inside Base and Delta
/// payloads (see `delta::encode_cloud_payload`); v1 records are rejected
/// rather than misdecoded.
pub const VERSION: u16 = 2;

/// Record kinds stored by the epoch log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RecordKind {
    /// Full Gaussian-cloud snapshot at one epoch.
    Base = 1,
    /// Changed/added/pruned splats between two persisted epochs.
    Delta = 2,
    /// Opaque auxiliary stream state (poses, codec, optimiser, key frames).
    Aux = 3,
    /// Checkpoint generation root — written last, read first.
    Manifest = 4,
}

impl RecordKind {
    fn from_u8(v: u8) -> Result<Self, StoreError> {
        match v {
            1 => Ok(RecordKind::Base),
            2 => Ok(RecordKind::Delta),
            3 => Ok(RecordKind::Aux),
            4 => Ok(RecordKind::Manifest),
            other => Err(StoreError::Corrupt(format!("unknown record kind {other}"))),
        }
    }
}

/// One byte's worth of the bitwise CRC-32 recurrence per entry, derived at
/// compile time from the reflected polynomial.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the classic
/// zlib/PNG checksum, one [`CRC_TABLE`] lookup per byte.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[usize::from(crc as u8 ^ b)];
    }
    !crc
}

/// Wraps `payload` in the checksummed frame for `kind`.
pub fn frame(kind: RecordKind, payload: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_bytes(&MAGIC);
    w.put_u16(VERSION);
    w.put_u8(kind as u8);
    w.put_u64(payload.len() as u64);
    w.put_u32(crc32(payload));
    w.put_bytes(payload);
    w.into_bytes()
}

/// Validates the frame around a record and returns its payload.
///
/// Checks, in order: magic, version, record kind, declared length against
/// actual bytes, and the CRC-32 of the payload.
pub fn unframe(expected: RecordKind, bytes: &[u8]) -> Result<&[u8], StoreError> {
    let mut r = ByteReader::new(bytes);
    let magic = r.get_bytes(4)?;
    if magic != MAGIC {
        return Err(StoreError::Corrupt("bad magic".into()));
    }
    let version = r.get_u16()?;
    if version != VERSION {
        return Err(StoreError::Corrupt(format!("unsupported version {version}")));
    }
    let kind = RecordKind::from_u8(r.get_u8()?)?;
    if kind != expected {
        return Err(StoreError::Corrupt(format!("expected {expected:?} record, found {kind:?}")));
    }
    let len = r.get_usize()?;
    let crc = r.get_u32()?;
    if r.remaining() != len {
        return Err(StoreError::Corrupt(format!(
            "torn record: header declares {len} payload bytes, {} present",
            r.remaining()
        )));
    }
    let payload = r.get_bytes(len)?;
    if crc32(payload) != crc {
        return Err(StoreError::Corrupt("checksum mismatch".into()));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard test vector for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_roundtrips() {
        let payload = b"hello epoch".to_vec();
        let framed = frame(RecordKind::Delta, &payload);
        assert_eq!(unframe(RecordKind::Delta, &framed).unwrap(), payload.as_slice());
    }

    #[test]
    fn torn_write_is_detected() {
        let framed = frame(RecordKind::Base, &[7u8; 64]);
        for cut in [0, 4, 10, framed.len() - 1] {
            let torn = &framed[..cut];
            assert!(matches!(unframe(RecordKind::Base, torn), Err(StoreError::Corrupt(_))));
        }
    }

    #[test]
    fn bit_flip_is_detected() {
        let mut framed = frame(RecordKind::Aux, b"state bytes");
        let last = framed.len() - 1;
        framed[last] ^= 0x40;
        assert!(matches!(unframe(RecordKind::Aux, &framed), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn kind_and_version_mismatches_are_detected() {
        let framed = frame(RecordKind::Base, b"x");
        assert!(matches!(unframe(RecordKind::Manifest, &framed), Err(StoreError::Corrupt(_))));
        let mut wrong_version = framed.clone();
        wrong_version[4] = 99;
        assert!(matches!(unframe(RecordKind::Base, &wrong_version), Err(StoreError::Corrupt(_))));
        // Records written before the chunked splat encoding (v1) must be
        // rejected up front — the payload layout changed.
        let mut v1 = framed.clone();
        v1[4] = 1;
        v1[5] = 0;
        assert!(matches!(unframe(RecordKind::Base, &v1), Err(StoreError::Corrupt(_))));
        let mut wrong_magic = framed;
        wrong_magic[0] = b'Z';
        assert!(matches!(unframe(RecordKind::Base, &wrong_magic), Err(StoreError::Corrupt(_))));
    }
}
