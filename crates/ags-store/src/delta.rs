//! Gaussian-cloud serialization: full snapshots and per-epoch deltas.
//!
//! The mapping stage mutates a small working set per frame (the Adam step
//! touches trainable splats, densify appends, prune drops), so persisting
//! only the diff against the last persisted epoch keeps checkpoint traffic
//! far below a full snapshot. [`CloudDelta::diff`] compares two clouds
//! positionally — Gaussian ids are slab indices and mapping only ever
//! rewrites in place, appends at the tail, or compacts via `retain`, so a
//! positional diff plus the new length captures all three.
//!
//! ## Chunked quantized encoding
//!
//! Splat runs (full snapshots and delta `added` tails) are written in
//! [`QUANT_CHUNK`]-splat chunks. Each chunk carries a one-byte tag: either
//! the 14 raw `f32` lanes per splat, or — when the chunk's values are
//! *verified* to reconstruct bit-exactly from a per-lane affine grid — the
//! 14 grid headers plus one `u8` code per lane per splat (~4× smaller).
//! Chunks snapped by the in-map cold-splat quantizer qualify by
//! construction (the snap is grid-idempotent); everything else falls back
//! to raw floats, so the wire format is always lossless.

use crate::error::StoreError;
use crate::wire::{ByteReader, ByteWriter};
use ags_math::{Quat, Vec3};
use ags_splat::compact::{lane_value, set_lane_value, Grid, GAUSSIAN_LANES, QUANT_CHUNK};
use ags_splat::{Gaussian, GaussianCloud};

fn put_vec3(w: &mut ByteWriter, v: Vec3) {
    w.put_f32(v.x);
    w.put_f32(v.y);
    w.put_f32(v.z);
}

fn get_vec3(r: &mut ByteReader) -> Result<Vec3, StoreError> {
    Ok(Vec3::new(r.get_f32()?, r.get_f32()?, r.get_f32()?))
}

/// Encodes one Gaussian as its 14 parameter floats (bit-exact).
pub(crate) fn put_gaussian(w: &mut ByteWriter, g: &Gaussian) {
    put_vec3(w, g.position);
    put_vec3(w, g.log_scale);
    w.put_f32(g.rotation.w);
    w.put_f32(g.rotation.x);
    w.put_f32(g.rotation.y);
    w.put_f32(g.rotation.z);
    put_vec3(w, g.color);
    w.put_f32(g.opacity_logit);
}

/// Decodes one Gaussian.
pub(crate) fn get_gaussian(r: &mut ByteReader) -> Result<Gaussian, StoreError> {
    let position = get_vec3(r)?;
    let log_scale = get_vec3(r)?;
    let rotation = Quat::new(r.get_f32()?, r.get_f32()?, r.get_f32()?, r.get_f32()?);
    let color = get_vec3(r)?;
    let opacity_logit = r.get_f32()?;
    Ok(Gaussian { position, log_scale, rotation, color, opacity_logit })
}

/// Bytes one Gaussian occupies on the wire.
pub(crate) const GAUSSIAN_BYTES: usize = 14 * 4;

/// Chunk tag: splats follow as raw `f32` lanes.
const TAG_FULL: u8 = 0;

/// Chunk tag: splats follow as per-lane grids plus `u8` codes.
const TAG_QUANTIZED: u8 = 1;

/// Smallest possible wire footprint per splat (one code byte per lane in a
/// quantized chunk) — used to guard length prefixes before allocation.
const MIN_SPLAT_WIRE_BYTES: usize = GAUSSIAN_LANES;

/// Derives per-lane grids for `splats` and returns the code stream iff every
/// lane of every splat dequantizes back to its input bit-exactly.
fn try_quantized_chunk(splats: &[Gaussian]) -> Option<([Grid; GAUSSIAN_LANES], Vec<u8>)> {
    let mut grids = [Grid { min: 0.0, max: 0.0 }; GAUSSIAN_LANES];
    for (lane, grid) in grids.iter_mut().enumerate() {
        *grid = Grid::from_values(splats.iter().map(|g| lane_value(g, lane)))?;
    }
    let mut codes = Vec::with_capacity(splats.len() * GAUSSIAN_LANES);
    for g in splats {
        for (lane, grid) in grids.iter().enumerate() {
            let v = lane_value(g, lane);
            let code = grid.quantize(v);
            if grid.dequantize(code).to_bits() != v.to_bits() {
                return None;
            }
            codes.push(code);
        }
    }
    Some((grids, codes))
}

/// Writes `splats` as tagged [`QUANT_CHUNK`]-splat chunks (the final partial
/// chunk, if any, is always raw). The splat count is *not* prefixed.
fn encode_splats_chunked(w: &mut ByteWriter, splats: &[Gaussian]) {
    for chunk in splats.chunks(QUANT_CHUNK) {
        if chunk.len() == QUANT_CHUNK {
            if let Some((grids, codes)) = try_quantized_chunk(chunk) {
                w.put_u8(TAG_QUANTIZED);
                for grid in &grids {
                    w.put_f32(grid.min);
                    w.put_f32(grid.max);
                }
                w.put_bytes(&codes);
                continue;
            }
        }
        w.put_u8(TAG_FULL);
        for g in chunk {
            put_gaussian(w, g);
        }
    }
}

/// Reads `n` splats written by [`encode_splats_chunked`].
fn decode_splats_chunked(r: &mut ByteReader, n: usize) -> Result<Vec<Gaussian>, StoreError> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let k = QUANT_CHUNK.min(n - out.len());
        match r.get_u8()? {
            TAG_FULL => {
                for _ in 0..k {
                    out.push(get_gaussian(r)?);
                }
            }
            TAG_QUANTIZED => {
                if k != QUANT_CHUNK {
                    return Err(StoreError::Corrupt(format!(
                        "quantized chunk in a {k}-splat tail"
                    )));
                }
                let mut grids = [Grid { min: 0.0, max: 0.0 }; GAUSSIAN_LANES];
                for grid in grids.iter_mut() {
                    grid.min = r.get_f32()?;
                    grid.max = r.get_f32()?;
                }
                let codes = r.get_bytes(QUANT_CHUNK * GAUSSIAN_LANES)?;
                for s in 0..QUANT_CHUNK {
                    let mut g = Gaussian {
                        position: Vec3::new(0.0, 0.0, 0.0),
                        log_scale: Vec3::new(0.0, 0.0, 0.0),
                        rotation: Quat::new(1.0, 0.0, 0.0, 0.0),
                        color: Vec3::new(0.0, 0.0, 0.0),
                        opacity_logit: 0.0,
                    };
                    for (lane, grid) in grids.iter().enumerate() {
                        set_lane_value(
                            &mut g,
                            lane,
                            grid.dequantize(codes[s * GAUSSIAN_LANES + lane]),
                        );
                    }
                    out.push(g);
                }
            }
            other => {
                return Err(StoreError::Corrupt(format!("unknown splat chunk tag {other}")));
            }
        }
    }
    Ok(out)
}

/// Appends a full cloud (length-prefixed, chunk-encoded) to `w`.
pub fn encode_cloud_payload(w: &mut ByteWriter, cloud: &GaussianCloud) {
    w.put_usize(cloud.len());
    encode_splats_chunked(w, cloud.gaussians());
}

/// Reads a full cloud written by [`encode_cloud_payload`].
pub fn decode_cloud_payload(r: &mut ByteReader) -> Result<GaussianCloud, StoreError> {
    let n = r.get_count(MIN_SPLAT_WIRE_BYTES)?;
    Ok(decode_splats_chunked(r, n)?.into_iter().collect())
}

/// The diff between two persisted epochs of one cloud.
#[derive(Debug, Clone, PartialEq)]
pub struct CloudDelta {
    /// Epoch this delta applies on top of.
    pub parent_epoch: u64,
    /// Epoch this delta produces.
    pub epoch: u64,
    /// Length of the parent cloud (validated on apply so a delta can never
    /// be applied to the wrong base).
    pub parent_len: u64,
    /// Length of the resulting cloud; shorter than `parent_len` means the
    /// tail was pruned.
    pub new_len: u64,
    /// In-place parameter changes at surviving indices.
    pub changed: Vec<(u32, Gaussian)>,
    /// Splats appended beyond the parent length.
    pub added: Vec<Gaussian>,
}

impl CloudDelta {
    /// Diffs `child` (at `epoch`) against `parent` (at `parent_epoch`).
    pub fn diff(
        parent: &GaussianCloud,
        parent_epoch: u64,
        child: &GaussianCloud,
        epoch: u64,
    ) -> Self {
        let p = parent.gaussians();
        let c = child.gaussians();
        let common = p.len().min(c.len());
        let mut changed = Vec::new();
        for i in 0..common {
            if p[i] != c[i] {
                changed.push((i as u32, c[i]));
            }
        }
        let added = c[common..].to_vec();
        Self {
            parent_epoch,
            epoch,
            parent_len: p.len() as u64,
            new_len: c.len() as u64,
            changed,
            added,
        }
    }

    /// Applies the delta to `parent`, reconstructing the child cloud.
    pub fn apply(&self, parent: &GaussianCloud) -> Result<GaussianCloud, StoreError> {
        if parent.len() as u64 != self.parent_len {
            return Err(StoreError::Corrupt(format!(
                "delta for epoch {} expects parent of {} splats, got {}",
                self.epoch,
                self.parent_len,
                parent.len()
            )));
        }
        let new_len = usize::try_from(self.new_len)
            .map_err(|_| StoreError::Corrupt("delta new_len overflows usize".into()))?;
        let mut out: Vec<Gaussian> = parent.gaussians().to_vec();
        out.truncate(new_len);
        let survivors = out.len();
        for &(idx, g) in &self.changed {
            let idx = idx as usize;
            if idx >= survivors {
                return Err(StoreError::Corrupt(format!(
                    "delta changed index {idx} out of bounds ({survivors} survivors)"
                )));
            }
            out[idx] = g;
        }
        out.extend_from_slice(&self.added);
        if out.len() != new_len {
            return Err(StoreError::Corrupt(format!(
                "delta for epoch {} reconstructs {} splats, header says {new_len}",
                self.epoch,
                out.len()
            )));
        }
        Ok(out.into_iter().collect())
    }

    /// Serializes the delta payload (framing is applied by the epoch log).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(self.parent_epoch);
        w.put_u64(self.epoch);
        w.put_u64(self.parent_len);
        w.put_u64(self.new_len);
        w.put_usize(self.changed.len());
        for &(idx, ref g) in &self.changed {
            w.put_u32(idx);
            put_gaussian(&mut w, g);
        }
        w.put_usize(self.added.len());
        encode_splats_chunked(&mut w, &self.added);
        w.into_bytes()
    }

    /// Deserializes a delta payload written by [`CloudDelta::encode`].
    pub fn decode(payload: &[u8]) -> Result<Self, StoreError> {
        let mut r = ByteReader::new(payload);
        let parent_epoch = r.get_u64()?;
        let epoch = r.get_u64()?;
        let parent_len = r.get_u64()?;
        let new_len = r.get_u64()?;
        let n_changed = r.get_count(4 + GAUSSIAN_BYTES)?;
        let mut changed = Vec::with_capacity(n_changed);
        for _ in 0..n_changed {
            let idx = r.get_u32()?;
            changed.push((idx, get_gaussian(&mut r)?));
        }
        let n_added = r.get_count(MIN_SPLAT_WIRE_BYTES)?;
        let added = decode_splats_chunked(&mut r, n_added)?;
        r.finish()?;
        Ok(Self { parent_epoch, epoch, parent_len, new_len, changed, added })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gaussian(seed: f32) -> Gaussian {
        Gaussian::isotropic(
            Vec3::new(seed, seed * 2.0, -seed),
            0.1 + seed.abs() * 0.01,
            Vec3::splat(0.5),
            0.6,
        )
    }

    fn cloud(n: usize) -> GaussianCloud {
        (0..n).map(|i| gaussian(i as f32)).collect()
    }

    #[test]
    fn cloud_payload_roundtrips_bit_exactly() {
        let c = cloud(17);
        let mut w = ByteWriter::new();
        encode_cloud_payload(&mut w, &c);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = decode_cloud_payload(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn snapped_chunks_encode_quantized_and_roundtrip_bit_exactly() {
        // 2 full chunks + a 17-splat tail; snap the first two so they take
        // the quantized wire path, leave the tail raw.
        let mut c = cloud(2 * QUANT_CHUNK + 17);
        for lo in [0, QUANT_CHUNK] {
            assert!(ags_splat::compact::quantize_chunk_in_place(
                &mut c.gaussians_mut()[lo..lo + QUANT_CHUNK]
            ));
        }
        let mut w = ByteWriter::new();
        encode_cloud_payload(&mut w, &c);
        let bytes = w.into_bytes();

        // Both snapped chunks must actually compress: 8 (len) + 2 quantized
        // chunks + 1 raw tail chunk.
        let quantized_chunk = 1 + GAUSSIAN_LANES * 8 + QUANT_CHUNK * GAUSSIAN_LANES;
        let raw_tail = 1 + 17 * GAUSSIAN_BYTES;
        assert_eq!(bytes.len(), 8 + 2 * quantized_chunk + raw_tail);
        assert!(bytes.len() < 8 + c.len() * GAUSSIAN_BYTES, "snapped cloud should shrink");

        let mut r = ByteReader::new(&bytes);
        let back = decode_cloud_payload(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn unsnapped_chunks_fall_back_to_raw_and_stay_lossless() {
        // Irrational-ish spread values do not sit on any 256-level grid, so
        // every chunk must take the raw path and still roundtrip bit-exact.
        let c = cloud(QUANT_CHUNK + 3);
        let mut w = ByteWriter::new();
        encode_cloud_payload(&mut w, &c);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 8 + 2 + c.len() * GAUSSIAN_BYTES);
        let mut r = ByteReader::new(&bytes);
        assert_eq!(decode_cloud_payload(&mut r).unwrap(), c);
    }

    #[test]
    fn bad_chunk_tag_is_rejected() {
        let c = cloud(3);
        let mut w = ByteWriter::new();
        encode_cloud_payload(&mut w, &c);
        let mut bytes = w.into_bytes();
        bytes[8] = 7; // first chunk tag
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(decode_cloud_payload(&mut r), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn delta_added_tail_uses_chunked_encoding() {
        let parent = cloud(2);
        let mut child = parent.clone();
        for i in 0..QUANT_CHUNK + 5 {
            child.push(gaussian(50.0 + i as f32));
        }
        let d = CloudDelta::diff(&parent, 1, &child, 2);
        assert_eq!(d.added.len(), QUANT_CHUNK + 5);
        let back = CloudDelta::decode(&d.encode()).unwrap();
        assert_eq!(back, d);
        assert_eq!(back.apply(&parent).unwrap(), child);
    }

    #[test]
    fn diff_apply_roundtrips_change_add_prune() {
        let parent = cloud(10);
        // Child: mutate two, append three, via normal cloud ops.
        let mut child = parent.clone();
        child.gaussians_mut()[3].opacity_logit = 2.5;
        child.gaussians_mut()[7].position.x += 1.0;
        for i in 0..3 {
            child.push(gaussian(100.0 + i as f32));
        }
        let d = CloudDelta::diff(&parent, 4, &child, 5);
        assert_eq!(d.changed.len(), 2);
        assert_eq!(d.added.len(), 3);
        assert_eq!(d.apply(&parent).unwrap(), child);

        // Prune: retain compacts the slab, which positionally is a big
        // rewrite plus a shorter length — still exactly reconstructed.
        let mut pruned = child.clone();
        pruned.retain(|i, _| i % 2 == 0);
        let d2 = CloudDelta::diff(&child, 5, &pruned, 6);
        assert!(d2.new_len < d2.parent_len);
        assert_eq!(d2.apply(&child).unwrap(), pruned);
    }

    #[test]
    fn delta_encoding_roundtrips() {
        let parent = cloud(6);
        let mut child = parent.clone();
        child.gaussians_mut()[0].color = Vec3::new(0.1, 0.2, 0.3);
        child.push(gaussian(42.0));
        let d = CloudDelta::diff(&parent, 1, &child, 2);
        let back = CloudDelta::decode(&d.encode()).unwrap();
        assert_eq!(back, d);
        assert_eq!(back.apply(&parent).unwrap(), child);
    }

    #[test]
    fn apply_rejects_wrong_parent() {
        let parent = cloud(5);
        let child = cloud(6);
        let d = CloudDelta::diff(&parent, 1, &child, 2);
        let wrong = cloud(4);
        assert!(matches!(d.apply(&wrong), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn empty_to_empty_and_empty_to_full() {
        let empty = GaussianCloud::new();
        let d = CloudDelta::diff(&empty, 0, &empty, 1);
        assert_eq!(d.apply(&empty).unwrap(), empty);
        let full = cloud(4);
        let d2 = CloudDelta::diff(&empty, 0, &full, 1);
        assert_eq!(d2.added.len(), 4);
        assert_eq!(d2.apply(&empty).unwrap(), full);
    }

    #[test]
    fn truncated_or_mutated_delta_never_panics() {
        // Two in-place changes, then an appended tail of one snapped chunk
        // (quantized on the wire) and five raw splats.
        let parent = cloud(8);
        let mut child = cloud(8 + QUANT_CHUNK + 5);
        child.gaussians_mut()[1].opacity_logit += 0.5;
        child.gaussians_mut()[6].opacity_logit -= 0.5;
        assert!(ags_splat::compact::quantize_chunk_in_place(
            &mut child.gaussians_mut()[8..8 + QUANT_CHUNK]
        ));
        let bytes = CloudDelta::diff(&parent, 3, &child, 4).encode();
        crate::wire::assert_prefixes_fail_and_mutations_never_panic(&bytes, 0xde17a, 256, |b| {
            CloudDelta::decode(b).is_ok()
        });
    }
}
