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

/// The bitwise CRC-32 recurrence tabulated for slicing-by-8, derived at
/// compile time from the reflected polynomial: `CRC_TABLES[0][b]` advances
/// the register over byte `b`, and `CRC_TABLES[k][b]` over byte `b` followed
/// by `k` zero bytes — so eight lookups advance it over eight bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the classic
/// zlib/PNG checksum, eight bytes per step of `CRC_TABLES` lookups.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        let byte = |v: u32, shift: u32| ((v >> shift) & 0xff) as usize;
        crc = t[7][byte(lo, 0)]
            ^ t[6][byte(lo, 8)]
            ^ t[5][byte(lo, 16)]
            ^ t[4][byte(lo, 24)]
            ^ t[3][byte(hi, 0)]
            ^ t[2][byte(hi, 8)]
            ^ t[1][byte(hi, 16)]
            ^ t[0][byte(hi, 24)];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][usize::from(crc as u8 ^ b)];
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

    /// The one-lookup-per-byte recurrence the sliced version replaced.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][usize::from(crc as u8 ^ b)];
        }
        !crc
    }

    #[test]
    fn sliced_crc32_matches_the_bytewise_recurrence() {
        // xorshift64: no dependency, every byte value.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut bytes = vec![0u8; (1 << 20) + 8];
        for b in &mut bytes {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *b = (state >> 24) as u8;
        }
        for offset in 0..8 {
            for len in 0..=1024 {
                let slice = &bytes[offset..offset + len];
                assert_eq!(crc32(slice), crc32_bytewise(slice), "offset {offset}, length {len}");
            }
        }
        let mib = &bytes[3..3 + (1 << 20)];
        assert_eq!(crc32(mib), crc32_bytewise(mib));
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

    /// Every prefix of a framed record fails, and every single-byte
    /// mutation is rejected: a payload byte by the CRC-32, which catches any
    /// one-byte change, a header byte by the magic, version, kind, length or
    /// CRC check. Nothing panics.
    #[test]
    fn truncated_or_mutated_record_is_always_rejected() {
        let mut rng = ags_math::Pcg32::seeded(0xf7a3);
        let payload: Vec<u8> = (0..40).map(|_| rng.range_u32(256) as u8).collect();
        for (kind, seed) in [(RecordKind::Base, 1), (RecordKind::Manifest, 2)] {
            for payload in [&payload[..], &[]] {
                let framed = frame(kind, payload);
                let decoded = crate::wire::mutations_decoded(&framed, seed, 256, |b| {
                    unframe(kind, b).is_ok()
                });
                assert_eq!(decoded, 0, "{kind:?} record of {} payload bytes", payload.len());
            }
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
