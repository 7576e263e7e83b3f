//! Map compaction under a per-stream byte budget: cold-splat quantization
//! and negligibility pruning.
//!
//! The mapping stage only ever grows the cloud (densify appends, Adam
//! rewrites in place), so every map-sized cost — copy-on-write slab copies,
//! snapshot publishes, checkpoint deltas — compounds with runtime. A stream
//! with a map budget (`AgsConfig::map_bytes_budget` in `ags-core`) bounds
//! [`map_bytes`] with the two shrinking levers this module provides, pulled
//! in order whenever an epoch publishes above the budget:
//!
//! 1. **Cold-tier quantization** ([`quantize_chunk_in_place`]): LAQ-style
//!    per-chunk affine quantization of every id-aligned chunk untouched for
//!    at least one published epoch. The **dequantized value becomes the
//!    canonical parameter** — rendering, training, snapshots and the wire
//!    codec all see the exact same bits, so determinism across pipeline
//!    modes and checkpoint/restore is preserved by construction, and the
//!    wire codec can re-derive the 8-bit codes losslessly (see `ags-store`).
//! 2. **Pruning** ([`prune_cloud`]): drop the most-negligible splats and
//!    return a [`Remap`] table so every id-indexed side structure (skip
//!    sets, contribution counts, optimizer moments, cold-tier flags) can be
//!    compacted consistently instead of invalidated.
//!
//! All decisions are pure functions of the cloud and the caller's stage
//! state — no clocks, no RNG — which is what lets compaction run inside
//! `MapStage::process` bit-identically across the serial, overlapped and
//! map-overlapped drivers at any worker count.

use crate::gaussian::{Gaussian, GaussianCloud};
use crate::idset::IdSet;

/// Number of f32 parameter lanes per Gaussian (3 position + 3 log-scale +
/// 4 rotation + 3 color + 1 opacity logit).
pub const GAUSSIAN_LANES: usize = 14;

/// Bytes one full-precision splat occupies (14 f32).
pub const FULL_SPLAT_BYTES: u64 = GAUSSIAN_LANES as u64 * 4;

/// Splats per quantization chunk. Chunks are **id-aligned** (`[c·64, c·64+64)`)
/// so the wire codec's chunking lines up with the in-memory tier and verified
/// re-quantization round-trips exactly.
pub const QUANT_CHUNK: usize = 64;

/// Code bytes one quantized splat occupies (one u8 per lane).
pub const QUANT_SPLAT_CODE_BYTES: u64 = GAUSSIAN_LANES as u64;

/// Per-chunk header: a `(min, max)` f32 pair per lane.
pub const QUANT_CHUNK_HEADER_BYTES: u64 = GAUSSIAN_LANES as u64 * 8;

/// Largest quantization code (8-bit codes).
pub const QUANT_MAX_CODE: u8 = u8::MAX;

/// Estimated resident bytes of the quantized tier: per-splat code bytes plus
/// amortized per-chunk lane headers.
pub fn quantized_tier_bytes(quantized: usize) -> u64 {
    if quantized == 0 {
        return 0;
    }
    let chunks = (quantized as u64).div_ceil(QUANT_CHUNK as u64);
    quantized as u64 * QUANT_SPLAT_CODE_BYTES + chunks * QUANT_CHUNK_HEADER_BYTES
}

/// Estimated map parameter bytes with `quantized` of `len` splats in the
/// cold quantized tier. This is the quantity a stream's map budget bounds.
pub fn map_bytes(len: usize, quantized: usize) -> u64 {
    let quantized = quantized.min(len);
    (len - quantized) as u64 * FULL_SPLAT_BYTES + quantized_tier_bytes(quantized)
}

// ---------------------------------------------------------------------------
// Id remapping.
// ---------------------------------------------------------------------------

/// Marker for a pruned id inside the remap table.
const REMOVED: u32 = u32::MAX;

/// The old-id → new-id mapping a prune pass produces.
///
/// Gaussian ids are slab indices, so removing splats shifts every survivor
/// down. A `Remap` captures that shift once and is then applied to every
/// id-indexed side table — optimizer moments, contribution counts, skip
/// sets, cold-tier flags — keeping them consistent instead of resetting them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Remap {
    target: Vec<u32>,
    new_len: usize,
}

impl Remap {
    /// Builds the remap from a per-id keep mask.
    pub fn from_keep(keep: &[bool]) -> Self {
        assert!(keep.len() < REMOVED as usize, "cloud too large to remap");
        let mut target = Vec::with_capacity(keep.len());
        let mut next = 0u32;
        for &k in keep {
            if k {
                target.push(next);
                next += 1;
            } else {
                target.push(REMOVED);
            }
        }
        Self { target, new_len: next as usize }
    }

    /// Number of ids before the prune.
    pub fn old_len(&self) -> usize {
        self.target.len()
    }

    /// Number of surviving ids.
    pub fn new_len(&self) -> usize {
        self.new_len
    }

    /// Number of pruned ids.
    pub fn removed(&self) -> usize {
        self.target.len() - self.new_len
    }

    /// True when nothing was pruned.
    pub fn is_identity(&self) -> bool {
        self.removed() == 0
    }

    /// The new id of `old`, or `None` when it was pruned (or out of range).
    pub fn target(&self, old: usize) -> Option<usize> {
        match self.target.get(old) {
            Some(&t) if t != REMOVED => Some(t as usize),
            _ => None,
        }
    }

    /// The smallest pruned old id (`None` for the identity remap). Ids below
    /// it keep their positions, so id-aligned chunks wholly below it survive
    /// a prune untouched.
    pub fn first_removed(&self) -> Option<usize> {
        self.target.iter().position(|&t| t == REMOVED)
    }

    /// Number of survivors among ids `< bound` — remaps a prefix boundary
    /// such as a recorded table length.
    pub fn survivors_below(&self, bound: usize) -> usize {
        self.target[..bound.min(self.target.len())].iter().filter(|&&t| t != REMOVED).count()
    }

    /// Compacts a per-id value array. Arrays shorter than `old_len` are
    /// treated as a prefix (lazily-grown tables); entries beyond the remap
    /// are dropped (they cannot exist after the prune).
    pub fn gather<T: Copy>(&self, values: &[T]) -> Vec<T> {
        let n = values.len().min(self.target.len());
        let mut out = Vec::with_capacity(self.new_len.min(n));
        for (old, &v) in values.iter().enumerate().take(n) {
            if self.target[old] != REMOVED {
                out.push(v);
            }
        }
        out
    }

    /// Compacts a flat per-id array with `stride` values per id (optimizer
    /// moment layout). Prefix semantics as in [`Remap::gather`].
    pub fn gather_strided(&self, values: &[f32], stride: usize) -> Vec<f32> {
        assert!(stride > 0, "stride must be positive");
        let ids = (values.len() / stride).min(self.target.len());
        let mut out = Vec::with_capacity(self.survivors_below(ids) * stride);
        for old in 0..ids {
            if self.target[old] != REMOVED {
                out.extend_from_slice(&values[old * stride..(old + 1) * stride]);
            }
        }
        out
    }

    /// Rebuilds an id bitset under the remap. The new capacity is the number
    /// of survivors below the old capacity, so prefix-sized sets (e.g. a skip
    /// set over the recorded prefix) stay prefix-sized.
    pub fn rebuild_idset(&self, set: &IdSet) -> IdSet {
        let mut out = IdSet::with_capacity(self.survivors_below(set.capacity()));
        for old in set.iter() {
            if let Some(new) = self.target(old) {
                out.insert(new);
            }
        }
        out
    }
}

/// Removes every splat `keep` rejects and returns the id remap. The cloud is
/// untouched when nothing is pruned (the returned remap is the identity).
pub fn prune_cloud(
    cloud: &mut GaussianCloud,
    mut keep: impl FnMut(usize, &Gaussian) -> bool,
) -> Remap {
    let mask: Vec<bool> = cloud.gaussians().iter().enumerate().map(|(i, g)| keep(i, g)).collect();
    let remap = Remap::from_keep(&mask);
    if !remap.is_identity() {
        cloud.retain(|i, _| mask[i]);
    }
    remap
}

// ---------------------------------------------------------------------------
// Per-chunk affine quantization (LAQ-style).
// ---------------------------------------------------------------------------

/// Deterministic rounding used by [`Grid::quantize`] (half away from zero —
/// `f32::round` semantics, identical on every platform).
#[inline]
pub fn round(x: f32) -> f32 {
    x.round()
}

/// One lane's affine quantization grid over a chunk: 8-bit codes spread
/// uniformly over `[min, max]`.
///
/// Both endpoints dequantize **exactly** (`0 → min`, `255 → max`), which
/// makes the snap operation a bit-exact fixed point: re-deriving the grid
/// from already-snapped values reproduces the identical `(min, max)` pair,
/// and every snapped value re-quantizes to its own code. The quantization
/// property tests pin this down.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Grid {
    /// Smallest value in the chunk (code 0).
    pub min: f32,
    /// Largest value in the chunk (code 255).
    pub max: f32,
}

impl Grid {
    /// Derives the grid from a chunk's values. Returns `None` when the chunk
    /// is empty, contains a non-finite value, or spans a range too wide for
    /// a finite step — such chunks are left at full precision.
    pub fn from_values(values: impl IntoIterator<Item = f32>) -> Option<Self> {
        let mut min = f32::INFINITY;
        let mut max = f32::NEG_INFINITY;
        let mut any = false;
        for v in values {
            if !v.is_finite() {
                return None;
            }
            any = true;
            min = min.min(v);
            max = max.max(v);
        }
        if !any {
            return None;
        }
        let grid = Self { min, max };
        grid.scale().is_finite().then_some(grid)
    }

    /// Step between adjacent codes.
    #[inline]
    pub fn scale(&self) -> f32 {
        (self.max - self.min) / QUANT_MAX_CODE as f32
    }

    /// Quantizes `v` to its nearest 8-bit code (clamped to the grid).
    #[inline]
    pub fn quantize(&self, v: f32) -> u8 {
        let scale = self.scale();
        if scale <= 0.0 {
            return 0;
        }
        let code = round((v - self.min) / scale);
        if code <= 0.0 {
            0
        } else if code >= QUANT_MAX_CODE as f32 {
            QUANT_MAX_CODE
        } else {
            code as u8
        }
    }

    /// Dequantizes a code back to the canonical parameter value. Endpoint
    /// codes return the stored endpoints exactly.
    #[inline]
    pub fn dequantize(&self, code: u8) -> f32 {
        let scale = self.scale();
        if scale <= 0.0 {
            return self.min;
        }
        match code {
            0 => self.min,
            QUANT_MAX_CODE => self.max,
            c => self.min + c as f32 * scale,
        }
    }
}

/// Reads parameter lane `lane` of a Gaussian (see [`GAUSSIAN_LANES`] for the
/// layout). Shared with the `ags-store` wire codec so both sides agree on
/// the lane order.
#[inline]
pub fn lane_value(g: &Gaussian, lane: usize) -> f32 {
    match lane {
        0 => g.position.x,
        1 => g.position.y,
        2 => g.position.z,
        3 => g.log_scale.x,
        4 => g.log_scale.y,
        5 => g.log_scale.z,
        6 => g.rotation.w,
        7 => g.rotation.x,
        8 => g.rotation.y,
        9 => g.rotation.z,
        10 => g.color.x,
        11 => g.color.y,
        12 => g.color.z,
        13 => g.opacity_logit,
        _ => panic!("lane {lane} out of range"),
    }
}

/// Writes parameter lane `lane` of a Gaussian.
#[inline]
pub fn set_lane_value(g: &mut Gaussian, lane: usize, v: f32) {
    match lane {
        0 => g.position.x = v,
        1 => g.position.y = v,
        2 => g.position.z = v,
        3 => g.log_scale.x = v,
        4 => g.log_scale.y = v,
        5 => g.log_scale.z = v,
        6 => g.rotation.w = v,
        7 => g.rotation.x = v,
        8 => g.rotation.y = v,
        9 => g.rotation.z = v,
        10 => g.color.x = v,
        11 => g.color.y = v,
        12 => g.color.z = v,
        13 => g.opacity_logit = v,
        _ => panic!("lane {lane} out of range"),
    }
}

/// Snaps every splat in the chunk onto its per-lane quantization grid: each
/// parameter is replaced by `dequantize(quantize(value))`, making the 8-bit
/// representation the canonical one while the in-memory type stays f32.
///
/// Returns `false` (leaving the chunk untouched) when any lane holds a
/// non-finite value or spans an unquantizable range — the NaN/∞ guard.
/// Applying the snap twice is a bit-exact no-op the second time.
pub fn quantize_chunk_in_place(splats: &mut [Gaussian]) -> bool {
    if splats.is_empty() {
        return false;
    }
    let mut grids = [Grid { min: 0.0, max: 0.0 }; GAUSSIAN_LANES];
    for (lane, slot) in grids.iter_mut().enumerate() {
        match Grid::from_values(splats.iter().map(|g| lane_value(g, lane))) {
            Some(grid) => *slot = grid,
            None => return false,
        }
    }
    for g in splats.iter_mut() {
        for (lane, grid) in grids.iter().enumerate() {
            set_lane_value(g, lane, grid.dequantize(grid.quantize(lane_value(g, lane))));
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use ags_math::{Pcg32, Vec3};

    fn gaussian(seed: f32) -> Gaussian {
        Gaussian::isotropic(
            Vec3::new(seed, -seed * 0.5, seed * 2.0 + 1.0),
            0.05 + seed.abs() * 0.01,
            Vec3::new(0.2, 0.5, 0.8),
            0.6,
        )
    }

    fn cloud(n: usize) -> GaussianCloud {
        (0..n).map(|i| gaussian(i as f32)).collect()
    }

    #[test]
    fn remap_from_keep_maps_survivors_in_order() {
        let remap = Remap::from_keep(&[true, false, true, true, false]);
        assert_eq!(remap.old_len(), 5);
        assert_eq!(remap.new_len(), 3);
        assert_eq!(remap.removed(), 2);
        assert!(!remap.is_identity());
        assert_eq!(remap.target(0), Some(0));
        assert_eq!(remap.target(1), None);
        assert_eq!(remap.target(2), Some(1));
        assert_eq!(remap.target(3), Some(2));
        assert_eq!(remap.target(4), None);
        assert_eq!(remap.target(99), None);
        assert_eq!(remap.survivors_below(0), 0);
        assert_eq!(remap.survivors_below(2), 1);
        assert_eq!(remap.survivors_below(100), 3);
    }

    #[test]
    fn prune_cloud_removes_and_returns_remap() {
        let mut c = cloud(10);
        let remap = prune_cloud(&mut c, |i, _| i % 3 != 0);
        assert_eq!(c.len(), 6);
        assert_eq!(remap.new_len(), 6);
        // Survivor 0 is old id 1.
        assert_eq!(c.gaussians()[0], gaussian(1.0));
        assert_eq!(remap.target(1), Some(0));
        // Identity prune leaves the cloud alone.
        let before = c.clone();
        let id = prune_cloud(&mut c, |_, _| true);
        assert!(id.is_identity());
        assert_eq!(c, before);
    }

    #[test]
    fn gather_compacts_values_and_prefixes() {
        let remap = Remap::from_keep(&[true, false, true, true]);
        assert_eq!(remap.gather(&[10, 11, 12, 13]), vec![10, 12, 13]);
        // Prefix-sized tables (lazily grown) compact by prefix.
        assert_eq!(remap.gather(&[10, 11, 12]), vec![10, 12]);
        let strided = remap.gather_strided(&[0.0, 0.1, 1.0, 1.1, 2.0, 2.1, 3.0, 3.1], 2);
        assert_eq!(strided, vec![0.0, 0.1, 2.0, 2.1, 3.0, 3.1]);
        assert_eq!(remap.gather_strided(&[0.0, 0.1, 1.0, 1.1], 2), vec![0.0, 0.1]);
    }

    #[test]
    fn rebuild_idset_remaps_members_and_capacity() {
        let remap = Remap::from_keep(&[true, false, true, true, false, true]);
        let mut set = IdSet::with_capacity(4); // prefix-sized (recorded_len = 4)
        set.insert(0);
        set.insert(1); // pruned
        set.insert(3);
        let rebuilt = remap.rebuild_idset(&set);
        assert_eq!(rebuilt.capacity(), 3); // survivors below 4
        assert!(rebuilt.contains(0));
        assert!(rebuilt.contains(2));
        assert_eq!(rebuilt.count(), 2);
    }

    #[test]
    fn repeated_prunes_compose() {
        // Remap-table correctness under repeated prunes: following an old id
        // through both passes' tables lands on the survivor it became.
        let mut c = cloud(12);
        let tagged: Vec<Vec3> = c.gaussians().iter().map(|g| g.position).collect();
        let first = prune_cloud(&mut c, |i, _| i % 2 == 0); // keep evens
        let second = prune_cloud(&mut c, |i, _| i != 1); // drop new id 1 (old 2)
        assert_eq!(first.old_len(), 12);
        assert_eq!(second.new_len(), c.len());
        for (old, tag) in tagged.iter().enumerate() {
            match first.target(old).and_then(|mid| second.target(mid)) {
                Some(new) => assert_eq!(c.gaussians()[new].position, *tag, "old id {old}"),
                None => assert!(old % 2 == 1 || old == 2),
            }
        }
    }

    #[test]
    fn grid_endpoints_dequantize_exactly() {
        let grid = Grid::from_values([0.137f32, -2.4, 9.75, 3.3]).unwrap();
        assert_eq!(grid.min, -2.4);
        assert_eq!(grid.max, 9.75);
        assert_eq!(grid.quantize(grid.min), 0);
        assert_eq!(grid.quantize(grid.max), QUANT_MAX_CODE);
        assert_eq!(grid.dequantize(0).to_bits(), (-2.4f32).to_bits());
        assert_eq!(grid.dequantize(QUANT_MAX_CODE).to_bits(), 9.75f32.to_bits());
        // Out-of-range inputs clamp instead of wrapping.
        assert_eq!(grid.quantize(-100.0), 0);
        assert_eq!(grid.quantize(100.0), QUANT_MAX_CODE);
    }

    #[test]
    fn constant_chunk_is_preserved() {
        let grid = Grid::from_values([1.25f32, 1.25, 1.25]).unwrap();
        assert_eq!(grid.scale(), 0.0);
        assert_eq!(grid.quantize(1.25), 0);
        assert_eq!(grid.dequantize(0).to_bits(), 1.25f32.to_bits());
        let mut splats = vec![gaussian(2.0); 5];
        let before = splats.clone();
        assert!(quantize_chunk_in_place(&mut splats));
        // Every lane is constant across the chunk → snap is the identity.
        assert_eq!(splats, before);
    }

    #[test]
    fn non_finite_values_guard_the_chunk() {
        assert!(Grid::from_values([1.0f32, f32::NAN]).is_none());
        assert!(Grid::from_values([f32::INFINITY, 0.0]).is_none());
        assert!(Grid::from_values(std::iter::empty()).is_none());
        // A full-range chunk whose span overflows f32 is also rejected.
        assert!(Grid::from_values([f32::MIN, f32::MAX]).is_none());
        let mut splats: Vec<Gaussian> = (0..4).map(|i| gaussian(i as f32)).collect();
        splats[2].position.y = f32::NAN;
        let before = splats.clone();
        assert!(!quantize_chunk_in_place(&mut splats));
        assert_eq!(
            splats.iter().map(|g| g.position.x.to_bits()).collect::<Vec<_>>(),
            before.iter().map(|g| g.position.x.to_bits()).collect::<Vec<_>>()
        );
        assert!(splats[2].position.y.is_nan());
    }

    fn bits(splats: &[Gaussian]) -> Vec<u32> {
        splats
            .iter()
            .flat_map(|g| (0..GAUSSIAN_LANES).map(|l| lane_value(g, l).to_bits()))
            .collect()
    }

    #[test]
    fn quantize_dequantize_is_bit_exactly_idempotent() {
        // Satellite property test: quantize∘dequantize is a fixed point —
        // snapping a chunk twice produces the identical bits, over many
        // pseudo-random chunks including tiny and near-constant ranges.
        let mut rng = Pcg32::seeded(0xc0_1d);
        for case in 0..50 {
            let n = 1 + (case % QUANT_CHUNK);
            let scale_span = 10f32.powi((case % 7) as i32 - 3);
            let mut splats: Vec<Gaussian> = (0..n)
                .map(|_| {
                    let mut g = gaussian(rng.range_f32(0.0, 3.0));
                    for lane in 0..GAUSSIAN_LANES {
                        set_lane_value(
                            &mut g,
                            lane,
                            rng.range_f32(-scale_span, scale_span) + lane as f32,
                        );
                    }
                    g
                })
                .collect();
            assert!(quantize_chunk_in_place(&mut splats), "case {case}");
            let once = bits(&splats);
            assert!(quantize_chunk_in_place(&mut splats), "case {case}");
            assert_eq!(bits(&splats), once, "second snap must be a no-op (case {case})");
        }
    }

    #[test]
    fn snapped_values_requantize_to_their_own_codes() {
        let mut rng = Pcg32::seeded(7);
        let values: Vec<f32> = (0..QUANT_CHUNK).map(|_| rng.range_f32(-5.0, 5.0)).collect();
        let grid = Grid::from_values(values.iter().copied()).unwrap();
        for &v in &values {
            let code = grid.quantize(v);
            let snapped = grid.dequantize(code);
            assert_eq!(grid.quantize(snapped), code);
            assert_eq!(grid.dequantize(grid.quantize(snapped)).to_bits(), snapped.to_bits());
        }
    }

    #[test]
    fn byte_accounting_matches_layout() {
        assert_eq!(map_bytes(100, 0), 100 * 56);
        // 64 quantized: 64 codes ×14 B + one chunk header (14 lanes × 8 B).
        assert_eq!(quantized_tier_bytes(64), 64 * 14 + 112);
        assert_eq!(quantized_tier_bytes(65), 65 * 14 + 2 * 112);
        assert_eq!(map_bytes(100, 64), 36 * 56 + 64 * 14 + 112);
        // Quantization must actually help for a full chunk.
        assert!(quantized_tier_bytes(QUANT_CHUNK) < QUANT_CHUNK as u64 * FULL_SPLAT_BYTES / 3);
        assert_eq!(map_bytes(10, 50), quantized_tier_bytes(10));
    }
}
