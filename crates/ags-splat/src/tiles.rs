//! Tile binning and per-tile Gaussian tables.
//!
//! Step ② of the 3DGS pipeline (paper Fig. 2a): splats are assigned to every
//! `TILE_SIZE`² tile their extent intersects, and each tile lists them
//! front-to-back by depth. The sorted per-tile lists are the paper's
//! *Gaussian tables* — the structures that both the rasterizer and the AGS
//! mapping engine's GS logging/skipping tables consume.
//!
//! # Sort once, bin a prefix, deepen on demand
//!
//! [`GaussianTables::build`] sorts the *visible splats* once by
//! `(depth under f32::total_cmp, splat_index)` — a strict total order, so the
//! result does not depend on the sorting algorithm — and pushes them into
//! their tiles in that order: no per-tile sort. The push is the second of
//! two passes. The first walks the splats in index order — sequentially
//! through memory — and leaves each one's tile rectangle and depth in a
//! 12-byte record, counting what every tile and every splat will hold, so
//! [`total_pairs`](GaussianTables::total_pairs), the per-splat tile counts
//! and every tile's full length ([`GaussianTables::table_len`]) are exact
//! whatever the second pass builds. The second walks the depth order, which
//! is a random order over the splats, reading those records instead of the
//! 60-byte [`Splat2d`]s (a fifth of the cache lines).
//!
//! Rows walk a table front to back and stop when they saturate, which on an
//! opaque map is a few hundred entries into tables thousands deep (the
//! benchmark's `jerky_track` bins 29 M pairs a pass and walks 3 % of them).
//! So the second pass fills each tile only to its first
//! `min(`[`PREFIX`]`, table_len)` entries — a tile deeper than that is
//! *truncated* — and stops as soon as every tile holds that many. The first
//! walk that needs an entry behind a truncated prefix *deepens*: one pass
//! over the kept depth order, from the first position any prefix filled at,
//! completes every truncated tile of the build at once. The result sits in
//! one [`OnceLock`] per build, so tile workers that need it at the same time
//! share one pass.
//!
//! # The order contract: prefix, complete table, canonical tail
//!
//! Depth ties are common (coplanar seeds, duplicates, the quantized tier's
//! snapped positions) and blending is order-sensitive, so the order *within*
//! a tie is part of every number this repository has printed. That order is
//! history, not design: each tile used to bin its entries in splat-index
//! order and run `sort_unstable_by(depth.total_cmp)` over them, and whatever
//! that call does to equal depths — a property of the toolchain, not of this
//! crate — is what trajectories, PSNRs and map sizes were produced with.
//!
//! Any two depth-sorted arrangements of a tile agree on every position before
//! its first tie (the first entry whose depth equals its successor's). A walk
//! therefore moves through up to three tables, each agreeing with the next on
//! every entry it is trusted for ([`GaussianTables::walk_table`]):
//!
//! 1. the prefix ([`GaussianTables::prefix`]), trusted for its first
//!    [`GaussianTables::unique_len`] entries: up to its first tie, and in a
//!    truncated tile no further than `PREFIX − 1`, because the unbuilt next
//!    entry may tie with the last built one;
//! 2. a truncated tile's complete table, in `(depth, index)` order, trusted
//!    up to its first tie;
//! 3. [`GaussianTables::canonical`]: the same entries put back into index
//!    order and sorted by the historical call — trusted to the end, built on
//!    first use, and only for a tile that has a tie.
//!
//! A tile kernel may switch tables whenever a row needs the first entry the
//! current one is not trusted for; what it accumulated stays valid because
//! the tables agree before that. Rows usually saturate inside the prefix, and
//! then nothing deepens and nothing sorts. A change that accepts the
//! `(depth, index)` order everywhere deletes `canonical`, the third stage and
//! the test oracle — and moves numerics, so it owes an accuracy study.

use crate::idset::IdSet;
use crate::project::{Projection, Splat2d};
use crate::TILE_SIZE;
use ags_math::parallel::Parallelism;
use ags_scene::PinholeCamera;
use std::cell::RefCell;
use std::sync::OnceLock;

/// Entries [`GaussianTables::build`] puts into a tile's table up front: eight
/// of the vectorized kernel's 64-entry slab blocks, about twice what rows of
/// the benchmark's late-stream maps walk before they saturate.
pub const PREFIX: usize = 512;

/// The tile decomposition of an image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileGrid {
    /// Number of tile columns.
    pub cols: usize,
    /// Number of tile rows.
    pub rows: usize,
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
}

impl TileGrid {
    /// Builds the grid covering a camera's image plane.
    pub fn for_camera(camera: &PinholeCamera) -> Self {
        Self {
            cols: camera.width.div_ceil(TILE_SIZE),
            rows: camera.height.div_ceil(TILE_SIZE),
            width: camera.width,
            height: camera.height,
        }
    }

    /// Total number of tiles.
    #[inline]
    pub fn num_tiles(&self) -> usize {
        self.cols * self.rows
    }

    /// Pixel bounds `(x0, y0, x1, y1)` of tile `t` (exclusive upper bounds,
    /// clamped to the image).
    pub fn tile_bounds(&self, t: usize) -> (usize, usize, usize, usize) {
        let col = t % self.cols;
        let row = t / self.cols;
        let x0 = col * TILE_SIZE;
        let y0 = row * TILE_SIZE;
        (x0, y0, (x0 + TILE_SIZE).min(self.width), (y0 + TILE_SIZE).min(self.height))
    }
}

/// One entry of a per-tile Gaussian table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableEntry {
    /// Index into [`Projection::splats`].
    pub splat_index: u32,
    /// Depth used for ordering.
    pub depth: f32,
}

/// Per-tile, depth-sorted Gaussian tables (see the module docs for the order
/// contract between [`prefix`](Self::prefix), the complete tables and
/// [`canonical`](Self::canonical)).
#[derive(Debug)]
pub struct GaussianTables {
    /// Tile decomposition.
    pub grid: TileGrid,
    /// Total number of (splat, tile) pairs — the paper's per-frame workload
    /// proxy for sorting and table construction.
    pub total_pairs: u64,
    prefixes: Vec<Vec<TableEntry>>,
    table_len: Vec<u32>,
    unique_len: Vec<u32>,
    /// What deepening needs; `None` when no tile is truncated.
    rest: Option<Rest>,
    complete: OnceLock<Complete>,
    canonical: Vec<OnceLock<Vec<TableEntry>>>,
    /// Tiles each splat was binned into, by splat index.
    tiles_per_splat: Vec<u32>,
}

/// The part of a build that completing its truncated tiles reads again.
#[derive(Debug)]
struct Rest {
    /// Depth-order position of `order[0]`: the first position after the
    /// earliest one at which a truncated tile's prefix filled.
    start: usize,
    /// The depth order's splat indices from `start` on.
    order: Vec<u32>,
    footprints: Vec<Footprint>,
    /// Per tile, the depth-order position its built table filled at
    /// (`u32::MAX` for an empty tile). A truncated tile's missing entries are
    /// exactly the splats covering it at later positions.
    filled_at: Vec<u32>,
}

/// The truncated tiles' complete tables in `(depth, index)` order (empty for
/// the other tiles), and the index of each one's first depth tie.
#[derive(Debug)]
struct Complete {
    tables: Vec<Vec<TableEntry>>,
    first_tie: Vec<u32>,
}

/// Maps `f32::total_cmp`'s order onto `u32`'s: negative floats have all bits
/// flipped, the rest only the sign bit.
#[inline]
fn depth_key(depth: f32) -> u32 {
    let bits = depth.to_bits();
    bits ^ (((bits as i32 >> 31) as u32) | 0x8000_0000)
}

/// Index of the first entry whose depth equals its successor's, or the
/// table's length when no two depths are equal.
fn first_tie(table: &[TableEntry]) -> u32 {
    let tied = |pair: &[TableEntry]| pair[0].depth.to_bits() == pair[1].depth.to_bits();
    table.windows(2).position(tied).unwrap_or(table.len()) as u32
}

/// Pass 1's record of one splat: the inclusive tile-column and tile-row
/// ranges it covers, and its depth.
#[derive(Debug, Clone, Copy)]
struct Footprint {
    cols: [u16; 2],
    rows: [u16; 2],
    depth: f32,
}

impl Footprint {
    /// Indices of the tiles covered in one tile row of `grid`.
    #[inline]
    fn tiles_in_row(&self, row: u16, grid: &TileGrid) -> std::ops::RangeInclusive<usize> {
        let row_start = row as usize * grid.cols;
        row_start + self.cols[0] as usize..=row_start + self.cols[1] as usize
    }
}

/// A build's buffers — the radix sort's pair and the footprints.
#[derive(Default)]
struct BinScratch {
    items: Vec<u64>,
    scratch: Vec<u64>,
    footprints: Vec<Footprint>,
}

std::thread_local! {
    /// Kept across builds: fresh buffers per build (≈ 0.5 MiB on a
    /// late-stream map, seven times a frame) fragmented the heap into
    /// +10 MiB of peak RSS.
    static BIN_SCRATCH: RefCell<BinScratch> = RefCell::default();
}

/// Fills `items` with the splats as `depth_key << 32 | splat_index`,
/// ascending: a stable LSD radix sort over the four key bytes, starting from
/// index order, ping-ponging between `items` and `scratch`.
fn depth_order(splats: &[Splat2d], items: &mut Vec<u64>, scratch: &mut Vec<u64>) {
    items.clear();
    let keyed = |(si, splat): (usize, &Splat2d)| (depth_key(splat.depth) as u64) << 32 | si as u64;
    items.extend(splats.iter().enumerate().map(keyed));
    let mut counts = [[0usize; 256]; 4];
    for &item in items.iter() {
        for (byte, counts) in counts.iter_mut().enumerate() {
            counts[(item >> (32 + 8 * byte)) as usize & 0xff] += 1;
        }
    }
    // Stale contents are fine: a pass writes every slot before the swap.
    scratch.resize(items.len(), 0);
    for (byte, counts) in counts.iter_mut().enumerate() {
        // Every key shares this byte (depths span a narrow range): the pass
        // would copy the items across unchanged.
        if counts.contains(&items.len()) {
            continue;
        }
        let mut offset = 0;
        for count in counts.iter_mut() {
            offset += std::mem::replace(count, offset);
        }
        for &item in items.iter() {
            let slot = &mut counts[(item >> (32 + 8 * byte)) as usize & 0xff];
            scratch[*slot] = item;
            *slot += 1;
        }
        std::mem::swap(items, scratch);
    }
}

impl GaussianTables {
    /// Bins the splats of a projection into depth-sorted per-tile tables
    /// filled to [`PREFIX`] entries: one radix sort and the two passes of the
    /// module docs, on the calling thread.
    pub fn build(projection: &Projection, camera: &PinholeCamera) -> Self {
        Self::build_to(projection, camera, PREFIX)
    }

    /// [`build`](Self::build) for callers that carry a parallelism knob. The
    /// build is ≈ 0.3 ms at 10 k visible splats — too little to fork for —
    /// and its order is a strict total order, so the tables are the same
    /// whatever `_parallelism` says.
    pub fn build_with(
        projection: &Projection,
        camera: &PinholeCamera,
        _parallelism: &Parallelism,
    ) -> Self {
        Self::build(projection, camera)
    }

    /// [`build`](Self::build) with every table filled to its full length up
    /// front: what the build cost before it stopped at a prefix.
    pub fn build_complete(projection: &Projection, camera: &PinholeCamera) -> Self {
        Self::build_to(projection, camera, usize::MAX)
    }

    /// The per-tile build this module replaced, kept as the oracle
    /// [`canonical`](Self::canonical) and the tile kernels are tested against:
    /// every tile in index order, sorted by the historical call. Its tables
    /// claim no ties, so kernels walk them as they are.
    #[cfg(test)]
    pub(crate) fn build_reference(projection: &Projection, camera: &PinholeCamera) -> Self {
        let mut reference = Self::build_complete(projection, camera);
        for (table, unique_len) in reference.prefixes.iter_mut().zip(&mut reference.unique_len) {
            table.sort_unstable_by_key(|entry| entry.splat_index);
            table.sort_unstable_by(|a, b| a.depth.total_cmp(&b.depth));
            *unique_len = table.len() as u32;
        }
        reference
    }

    /// Sorts the splats by depth and bins them, each tile to `prefix` entries.
    pub(crate) fn build_to(projection: &Projection, camera: &PinholeCamera, prefix: usize) -> Self {
        BIN_SCRATCH.with(|cell| {
            let BinScratch { items, scratch, footprints } = &mut *cell.borrow_mut();
            depth_order(&projection.splats, items, scratch);
            Self::bin(projection, camera, footprints, items, prefix)
        })
    }

    /// Pushes the splats into the tiles they overlap in `order` (splat
    /// indices in the low 32 bits), each tile to at most `prefix` entries.
    fn bin(
        projection: &Projection,
        camera: &PinholeCamera,
        footprints: &mut Vec<Footprint>,
        order: &[u64],
        prefix: usize,
    ) -> Self {
        let grid = TileGrid::for_camera(camera);
        assert!(grid.cols.max(grid.rows) <= 1 << 16, "tile coordinates are kept in 16 bits");
        assert!(prefix > 0, "a prefix holds at least the entry a walk starts on");

        // Pass 1, index order: where each splat goes, how much goes where.
        // A splat adds its tile rectangle to a difference grid with four
        // updates, whatever its size; a prefix sum turns the grid into every
        // tile's count.
        footprints.clear();
        footprints.reserve(projection.splats.len());
        let stride = grid.cols + 1;
        let mut corners = vec![0i32; stride * (grid.rows + 1)];
        let mut tiles_per_splat = Vec::with_capacity(projection.splats.len());
        let mut total_pairs = 0u64;
        for splat in &projection.splats {
            let (c0, c1, r0, r1) = splat_tile_range(splat, &grid);
            corners[r0 * stride + c0] += 1;
            corners[r0 * stride + c1 + 1] -= 1;
            corners[(r1 + 1) * stride + c0] -= 1;
            corners[(r1 + 1) * stride + c1 + 1] += 1;
            let tiles = (c1 - c0 + 1) * (r1 - r0 + 1);
            tiles_per_splat.push(tiles as u32);
            total_pairs += tiles as u64;
            footprints.push(Footprint {
                cols: [c0 as u16, c1 as u16],
                rows: [r0 as u16, r1 as u16],
                depth: splat.depth,
            });
        }
        let mut table_len = vec![0u32; grid.num_tiles()];
        for row in 0..grid.rows {
            // This row's corners summed up to `col`, plus the tile above.
            let mut run = 0;
            for col in 0..grid.cols {
                run += corners[row * stride + col];
                let above = if row > 0 { table_len[(row - 1) * grid.cols + col] } else { 0 };
                table_len[row * grid.cols + col] = (above as i32 + run) as u32;
            }
        }

        // Pass 2, in `order`: fill tables that never grow, each to its
        // prefix, and stop once every one is full.
        let prefix = prefix.min(u32::MAX as usize) as u32;
        let mut room: Vec<u32> = table_len.iter().map(|&len| len.min(prefix)).collect();
        let mut prefixes: Vec<Vec<TableEntry>> =
            room.iter().map(|&room| Vec::with_capacity(room as usize)).collect();
        let mut filled_at = vec![u32::MAX; grid.num_tiles()];
        let mut unfilled = room.iter().filter(|&&room| room > 0).count();
        for (pos, &item) in order.iter().enumerate() {
            if unfilled == 0 {
                break;
            }
            let si = item as u32;
            let footprint = footprints[si as usize];
            let entry = TableEntry { splat_index: si, depth: footprint.depth };
            for row in footprint.rows[0]..=footprint.rows[1] {
                let covered = footprint.tiles_in_row(row, &grid);
                let tiles = prefixes[covered.clone()].iter_mut().zip(&mut room[covered.clone()]);
                for ((table, room), filled_at) in tiles.zip(&mut filled_at[covered]) {
                    if *room > 0 {
                        table.push(entry);
                        *room -= 1;
                        if *room == 0 {
                            *filled_at = pos as u32;
                            unfilled -= 1;
                        }
                    }
                }
            }
        }

        let truncated = |t: &usize| prefixes[*t].len() < table_len[*t] as usize;
        let start =
            (0..grid.num_tiles()).filter(truncated).map(|t| filled_at[t] as usize + 1).min();
        // Copies, not the scratch buffers themselves: those are refilled by
        // the next build (see `BIN_SCRATCH`; taking them cost +10 MiB of peak
        // RSS on `steady_map`).
        let rest = start.map(|start| Rest {
            start,
            order: order[start..].iter().map(|&item| item as u32).collect(),
            footprints: footprints.clone(),
            filled_at,
        });
        let unique_len = prefixes
            .iter()
            .zip(&table_len)
            .map(|(table, &len)| {
                let unique = first_tie(table);
                // The unbuilt successor of a truncated prefix may tie with its
                // last entry.
                if table.len() < len as usize {
                    unique.min(table.len() as u32 - 1)
                } else {
                    unique
                }
            })
            .collect();
        let canonical = (0..grid.num_tiles()).map(|_| OnceLock::new()).collect();
        Self {
            grid,
            total_pairs,
            prefixes,
            table_len,
            unique_len,
            rest,
            complete: OnceLock::new(),
            canonical,
            tiles_per_splat,
        }
    }

    /// Tile `t`'s built entries: the first `min(PREFIX, table_len(t))` by
    /// `(depth, splat_index)`. Only the first [`unique_len`](Self::unique_len)
    /// are in the order blending must follow.
    #[inline]
    pub fn prefix(&self, t: usize) -> &[TableEntry] {
        &self.prefixes[t]
    }

    /// Number of splats intersecting tile `t` — its table's full length,
    /// whether or not the build has filled it.
    #[inline]
    pub fn table_len(&self, t: usize) -> usize {
        self.table_len[t] as usize
    }

    /// How many leading entries of [`prefix`](Self::prefix) are in blending
    /// order: the index of its first entry whose depth equals its
    /// successor's, its length when no two depths are equal — and in a
    /// truncated tile at most `PREFIX − 1`.
    #[inline]
    pub fn unique_len(&self, t: usize) -> usize {
        self.unique_len[t] as usize
    }

    /// Whether tile `t`'s build stopped short of its full length.
    #[inline]
    pub(crate) fn truncated(&self, t: usize) -> bool {
        self.prefixes[t].len() < self.table_len(t)
    }

    /// Completes every truncated tile in one pass over the kept depth order,
    /// on first use.
    fn complete(&self) -> &Complete {
        self.complete.get_or_init(|| {
            let rest = self.rest.as_ref().expect("only a build with a truncated tile deepens");
            let mut tables: Vec<Vec<TableEntry>> = (0..self.grid.num_tiles())
                .map(|t| {
                    if !self.truncated(t) {
                        return Vec::new();
                    }
                    let mut table = Vec::with_capacity(self.table_len(t));
                    table.extend_from_slice(&self.prefixes[t]);
                    table
                })
                .collect();
            for (pos, &si) in (rest.start..).zip(&rest.order) {
                let footprint = rest.footprints[si as usize];
                let entry = TableEntry { splat_index: si, depth: footprint.depth };
                for row in footprint.rows[0]..=footprint.rows[1] {
                    let covered = footprint.tiles_in_row(row, &self.grid);
                    for (table, &filled_at) in
                        tables[covered.clone()].iter_mut().zip(&rest.filled_at[covered])
                    {
                        // A tile that is not truncated holds no splat past
                        // the position it filled at.
                        if pos > filled_at as usize {
                            table.push(entry);
                        }
                    }
                }
            }
            let first_tie = tables.iter().map(|table| first_tie(table)).collect();
            Complete { tables, first_tie }
        })
    }

    /// Tile `t`'s complete table in `(depth, index)` order and the index of
    /// its first depth tie (deepening the build if `t` is truncated).
    fn complete_table(&self, t: usize) -> (&[TableEntry], usize) {
        if !self.truncated(t) {
            return (&self.prefixes[t], self.unique_len(t));
        }
        let complete = self.complete();
        (&complete.tables[t], complete.first_tie[t] as usize)
    }

    /// Index of the first depth tie in tile `t`'s complete table (its length
    /// when it has none).
    pub(crate) fn first_tie(&self, t: usize) -> usize {
        self.complete_table(t).1
    }

    /// Tile `t`'s table in the order blending must follow: the per-tile
    /// build's (see the module docs). Built on first use; a tile without
    /// depth ties is its `(depth, index)` table.
    pub fn canonical(&self, t: usize) -> &[TableEntry] {
        let (table, first_tie) = self.complete_table(t);
        if first_tie == table.len() {
            return table;
        }
        self.canonical[t].get_or_init(|| {
            let mut entries = table.to_vec();
            entries.sort_unstable_by_key(|entry| entry.splat_index);
            entries.sort_unstable_by(|a, b| a.depth.total_cmp(&b.depth));
            entries
        })
    }

    /// The table a walk of tile `t` continues on once a row needs entry `k`,
    /// and how many of its leading entries are in blending order — the next
    /// stage of the module docs' contract whose trust reaches past `k`. A
    /// kernel starts with `walk_table(t, 0)` and asks again when a row needs
    /// the first entry it was not trusted for.
    pub fn walk_table(&self, t: usize, k: usize) -> (&[TableEntry], usize) {
        if k < self.unique_len(t) {
            return (&self.prefixes[t], self.unique_len(t));
        }
        let (complete, first_tie) = self.complete_table(t);
        if k < first_tie {
            return (complete, first_tie);
        }
        let canonical = self.canonical(t);
        (canonical, canonical.len())
    }

    /// (splat, tile) pairs whose splat is in `skip`.
    pub(crate) fn skipped_pairs(&self, projection: &Projection, skip: &IdSet) -> u64 {
        let binned = projection.splats.iter().zip(&self.tiles_per_splat);
        binned.filter(|(splat, _)| skip.contains(splat.id as usize)).map(|(_, &n)| n as u64).sum()
    }
}

/// Inclusive tile-coordinate range `(col0, col1, row0, row1)` a splat covers.
fn splat_tile_range(splat: &Splat2d, grid: &TileGrid) -> (usize, usize, usize, usize) {
    // Through `i32`: a cheaper saturating conversion than `usize`'s, and the
    // same result once clamped to a 16-bit grid.
    let clamp_col = |v: f32| (v.max(0.0) as i32 as usize).min(grid.cols.saturating_sub(1));
    let clamp_row = |v: f32| (v.max(0.0) as i32 as usize).min(grid.rows.saturating_sub(1));
    let c0 = clamp_col((splat.mean.x - splat.radius) / TILE_SIZE as f32);
    let c1 = clamp_col((splat.mean.x + splat.radius) / TILE_SIZE as f32);
    let r0 = clamp_row((splat.mean.y - splat.radius) / TILE_SIZE as f32);
    let r1 = clamp_row((splat.mean.y + splat.radius) / TILE_SIZE as f32);
    (c0, c1, r0, r1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compact::{quantize_chunk_in_place, QUANT_CHUNK};
    use crate::gaussian::{Gaussian, GaussianCloud};
    use crate::project::project_gaussians;
    use ags_math::{Parallelism, Pcg32, Se3, Vec3};

    fn camera() -> PinholeCamera {
        PinholeCamera::from_fov(64, 48, 1.2)
    }

    /// Clouds whose tables hold depth ties at the identity pose: a
    /// fronto-parallel wall, the same wall with every splat duplicated, a random
    /// cloud snapped by the quantized tier, and a random cloud with a handful of
    /// shared depths.
    fn tied_clouds() -> Vec<(&'static str, GaussianCloud)> {
        let mut rng = Pcg32::seeded(0x71e5);
        let splat = |rng: &mut Pcg32, position: Vec3| {
            Gaussian::isotropic(
                position,
                rng.range_f32(0.03, 0.5),
                Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32()),
                rng.range_f32(0.02, 0.6),
            )
        };
        let mut wall = GaussianCloud::new();
        for i in 0..600 {
            let (x, y) = ((i % 30) as f32 / 29.0 - 0.5, (i / 30) as f32 / 19.0 - 0.5);
            wall.push(splat(&mut rng, Vec3::new(3.0 * x, 2.2 * y, 2.0)));
        }
        let mut doubled = wall.clone();
        for g in wall.gaussians() {
            doubled.push(*g);
        }
        let mut random = GaussianCloud::new();
        for _ in 0..1536 {
            let position = Vec3::new(
                rng.range_f32(-1.5, 1.5),
                rng.range_f32(-1.0, 1.0),
                rng.range_f32(0.8, 4.0),
            );
            random.push(splat(&mut rng, position));
        }
        let mut snapped = random.clone();
        for chunk in snapped.gaussians_mut().chunks_exact_mut(QUANT_CHUNK) {
            assert!(quantize_chunk_in_place(chunk), "finite chunks must snap");
        }
        let mut shared = random;
        for (i, g) in shared.gaussians_mut().iter_mut().enumerate() {
            if i % 3 != 0 {
                g.position.z = 1.0 + (i % 7) as f32 * 0.5;
            }
        }
        vec![
            ("wall", wall),
            ("doubled wall", doubled),
            ("snapped", snapped),
            ("shared depths", shared),
        ]
    }

    #[test]
    fn grid_covers_image() {
        let grid = TileGrid::for_camera(&camera());
        assert_eq!(grid.cols, 4);
        assert_eq!(grid.rows, 3);
        assert_eq!(grid.num_tiles(), 12);
        let (x0, y0, x1, y1) = grid.tile_bounds(11);
        assert_eq!((x0, y0), (48, 32));
        assert_eq!((x1, y1), (64, 48));
    }

    #[test]
    fn grid_clamps_partial_tiles() {
        let cam = PinholeCamera::from_fov(20, 20, 1.0);
        let grid = TileGrid::for_camera(&cam);
        assert_eq!(grid.cols, 2);
        let (.., x1, y1) = grid.tile_bounds(3);
        assert_eq!((x1, y1), (20, 20));
    }

    #[test]
    fn small_central_splat_lands_in_one_tile() {
        let mut cloud = GaussianCloud::new();
        // Tiny Gaussian projecting near the center of tile (1,1).
        cloud.push(Gaussian::isotropic(Vec3::new(-0.22, -0.12, 4.0), 0.01, Vec3::ONE, 0.5));
        let cam = camera();
        let proj = project_gaussians(&cloud, &cam, &Se3::IDENTITY);
        assert_eq!(proj.splats.len(), 1);
        let tables = GaussianTables::build(&proj, &cam);
        let occupied: Vec<usize> =
            (0..tables.grid.num_tiles()).filter(|&t| tables.table_len(t) > 0).collect();
        assert_eq!(occupied.len(), 1, "tiny splat should occupy one tile, got {occupied:?}");
    }

    #[test]
    fn large_splat_covers_multiple_tiles() {
        let mut cloud = GaussianCloud::new();
        cloud.push(Gaussian::isotropic(Vec3::new(0.0, 0.0, 2.0), 0.8, Vec3::ONE, 0.5));
        let cam = camera();
        let proj = project_gaussians(&cloud, &cam, &Se3::IDENTITY);
        let tables = GaussianTables::build(&proj, &cam);
        let occupied = (0..tables.grid.num_tiles()).filter(|&t| tables.table_len(t) > 0).count();
        assert!(occupied > 4, "large splat should cover many tiles, got {occupied}");
        assert_eq!(tables.total_pairs, occupied as u64);
    }

    #[test]
    fn tables_sorted_front_to_back() {
        let mut cloud = GaussianCloud::new();
        for z in [5.0, 2.0, 8.0, 3.0] {
            cloud.push(Gaussian::isotropic(Vec3::new(0.0, 0.0, z), 0.3, Vec3::ONE, 0.5));
        }
        let cam = camera();
        let proj = project_gaussians(&cloud, &cam, &Se3::IDENTITY);
        let tables = GaussianTables::build(&proj, &cam);
        for t in 0..tables.grid.num_tiles() {
            for pair in tables.prefix(t).windows(2) {
                assert!(pair[0].depth <= pair[1].depth, "table not sorted");
            }
        }
    }

    fn random_cloud(seed: u64, n: usize) -> GaussianCloud {
        let mut cloud = GaussianCloud::new();
        let mut rng = Pcg32::seeded(seed);
        for _ in 0..n {
            cloud.push(Gaussian::isotropic(
                Vec3::new(
                    rng.range_f32(-1.5, 1.5),
                    rng.range_f32(-1.0, 1.0),
                    rng.range_f32(0.5, 6.0),
                ),
                rng.range_f32(0.01, 0.3),
                Vec3::ONE,
                0.5,
            ));
        }
        cloud
    }

    #[test]
    fn parallel_build_is_bit_identical_to_serial() {
        let cam = camera();
        let proj = project_gaussians(&random_cloud(7, 1500), &cam, &Se3::IDENTITY);
        let serial = GaussianTables::build_with(&proj, &cam, &Parallelism::serial());
        for threads in [2, 4, 7] {
            let parallel = GaussianTables::build_with(
                &proj,
                &cam,
                &Parallelism::with_threads(threads).min_items(0),
            );
            assert_eq!(serial.total_pairs, parallel.total_pairs);
            assert_eq!(serial.grid, parallel.grid);
            assert_eq!(serial.prefixes, parallel.prefixes, "{threads} threads");
            assert_eq!(serial.unique_len, parallel.unique_len, "{threads} threads");
        }
    }

    #[test]
    fn depth_sort_is_nan_total() {
        // total_cmp orders NaN depths deterministically instead of leaving
        // them wherever the comparator's Equal fallback happened to put them.
        let mut entries = [
            TableEntry { splat_index: 0, depth: f32::NAN },
            TableEntry { splat_index: 1, depth: 2.0 },
            TableEntry { splat_index: 2, depth: 1.0 },
        ];
        entries.sort_unstable_by(|a, b| a.depth.total_cmp(&b.depth));
        assert_eq!(entries[0].splat_index, 2);
        assert_eq!(entries[1].splat_index, 1);
        assert!(entries[2].depth.is_nan());
    }

    #[test]
    fn tile_ranges_clamp_like_a_usize_conversion() {
        let grid = TileGrid::for_camera(&camera());
        let usize_clamp = |v: f32, n: usize| (v.max(0.0) as usize).min(n - 1);
        let edges = [f32::NAN, f32::NEG_INFINITY, -1e30, -3.5, -0.5, 0.0, 0.99, 1.0, 2.5, 3.0];
        let far = [4.0, 1e9, 2147483648.0, 4294967296.0, 1e30, f32::INFINITY];
        for &x in edges.iter().chain(&far) {
            for radius in [0.0, 16.0, 1e20] {
                let splat = Splat2d {
                    id: 0,
                    mean: ags_math::Vec2::new(16.0 * x, 16.0 * x),
                    depth: 1.0,
                    conic: (1.0, 0.0, 1.0),
                    radius,
                    color: Vec3::ONE,
                    opacity: 0.5,
                    p_cam: Vec3::ONE,
                };
                let (c0, c1, r0, r1) = splat_tile_range(&splat, &grid);
                let at = |v: f32, n| usize_clamp(v / TILE_SIZE as f32, n);
                let (lo, hi) = (splat.mean.x - radius, splat.mean.x + radius);
                assert_eq!((c0, c1), (at(lo, grid.cols), at(hi, grid.cols)), "{x} ± {radius}");
                assert_eq!((r0, r1), (at(lo, grid.rows), at(hi, grid.rows)), "{x} ± {radius}");
            }
        }
    }

    #[test]
    fn depth_key_orders_like_total_cmp() {
        let subnormal = f32::from_bits(1);
        let mut depths = vec![
            0.0,
            -0.0,
            subnormal,
            -subnormal,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::MAX,
            f32::MIN,
            1.0,
            -1.0,
        ];
        let mut rng = Pcg32::seeded(3);
        depths.extend((0..200).map(|_| f32::from_bits(rng.next_u32())));
        for &a in &depths {
            for &b in &depths {
                assert_eq!(depth_key(a).cmp(&depth_key(b)), a.total_cmp(&b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn depth_order_sorts_by_depth_then_index() {
        let cam = camera();
        // From one shared depth (every byte pass skipped) to random depths.
        let (mut items, mut scratch) = (Vec::new(), Vec::new());
        for (name, cloud) in tied_clouds().into_iter().chain([("random", random_cloud(11, 3000))]) {
            let proj = project_gaussians(&cloud, &cam, &Se3::IDENTITY);
            let mut expect: Vec<u32> = (0..proj.splats.len() as u32).collect();
            expect.sort_by(|&a, &b| {
                let (da, db) = (proj.splats[a as usize].depth, proj.splats[b as usize].depth);
                da.total_cmp(&db).then(a.cmp(&b))
            });
            // Reused buffers, as the build reuses them (longer and shorter
            // inputs follow each other here).
            depth_order(&proj.splats, &mut items, &mut scratch);
            let got: Vec<u32> = items.iter().map(|&item| item as u32).collect();
            assert_eq!(got, expect, "{name}");
        }
        depth_order(&[], &mut items, &mut scratch);
        assert!(items.is_empty());
    }

    /// The contract of the module docs for tables built to `cap` entries,
    /// against the eager build and the per-tile build: what the build keeps,
    /// what every stage of a walk is trusted for, and the canonical tables.
    /// Returns the tiles with a tie and those whose `(depth, index)` order
    /// differs from the canonical one.
    fn assert_contract(
        name: &str,
        proj: &Projection,
        cam: &PinholeCamera,
        cap: usize,
    ) -> (usize, usize) {
        let tables = GaussianTables::build_to(proj, cam, cap);
        let eager = GaussianTables::build_complete(proj, cam);
        let reference = GaussianTables::build_reference(proj, cam);
        assert_eq!(tables.total_pairs, reference.total_pairs, "{name}");
        assert_eq!(tables.tiles_per_splat, reference.tiles_per_splat, "{name}");
        assert!(eager.rest.is_none(), "{name}: the eager build truncates nothing");
        let (mut tied, mut reordered) = (0, 0);
        for t in 0..reference.grid.num_tiles() {
            let name = format!("{name}, cap {cap}: tile {t}");
            let (expect, complete) = (reference.prefix(t), eager.prefix(t));
            assert_eq!(tables.table_len(t), expect.len(), "{name}");
            assert_eq!(reference.unique_len(t), expect.len(), "{name}");
            assert_eq!(tables.prefix(t), &complete[..complete.len().min(cap)], "{name}");
            let first_tie = expect.windows(2).position(|pair| pair[0].depth == pair[1].depth);
            let first_tie = first_tie.unwrap_or(expect.len());
            let trusted = if tables.truncated(t) { cap - 1 } else { expect.len() };
            assert_eq!(tables.unique_len(t), first_tie.min(trusted), "{name}");
            // Every stage hands out entries in blending order, and trusts
            // itself past the entry it was asked for.
            for k in [0, tables.unique_len(t), first_tie, expect.len().saturating_sub(1)] {
                if k < expect.len() {
                    let (table, trusted) = tables.walk_table(t, k);
                    assert!(trusted > k && trusted <= table.len(), "{name}: k {k}");
                    assert_eq!(table[..trusted], expect[..trusted], "{name}: k {k}");
                }
            }
            assert_eq!(tables.first_tie(t), first_tie, "{name}");
            assert_eq!(tables.canonical(t), expect, "{name}");
            tied += usize::from(first_tie < expect.len());
            reordered += usize::from(complete != expect);
        }
        (tied, reordered)
    }

    #[test]
    fn canonical_tables_are_the_per_tile_build_and_prefixes_agree() {
        let cam = camera();
        let mut reordered_somewhere = false;
        for (name, cloud) in tied_clouds() {
            let proj = project_gaussians(&cloud, &cam, &Se3::IDENTITY);
            let (tied, reordered) = assert_contract(name, &proj, &cam, PREFIX);
            assert!(tied > 0, "{name}: fixture must hold depth ties");
            reordered_somewhere |= reordered > 0;
        }
        // Without this the fast order would be indistinguishable from the
        // historical one and the switch untested.
        assert!(reordered_somewhere, "no fixture's ties sort differently by index");
        for seed in 0..4 {
            let cloud = random_cloud(seed, 2000);
            let pose = Se3::from_translation(Vec3::new(0.1 * seed as f32, 0.0, -0.3));
            let proj = project_gaussians(&cloud, &cam, &pose);
            assert_contract("random", &proj, &cam, PREFIX);
        }
    }

    /// Truncation at caps from one entry up: each cap puts the end of some
    /// prefix before, on and after some tile's first tie, and the wall
    /// fixtures tie whole tables.
    #[test]
    fn truncated_tables_deepen_to_the_eager_build_at_every_cap() {
        let cam = camera();
        let clouds = tied_clouds().into_iter().chain([("random", random_cloud(9, 2000))]);
        for (name, cloud) in clouds {
            let proj = project_gaussians(&cloud, &cam, &Se3::IDENTITY);
            for cap in [1, 2, 3, 7, 64, 200] {
                assert_contract(name, &proj, &cam, cap);
            }
        }
        // A cap too small to hold a whole tie group.
        let mut cloud = GaussianCloud::new();
        for i in 0..40 {
            let x = (i % 8) as f32 * 0.1 - 0.35;
            cloud.push(Gaussian::isotropic(Vec3::new(x, 0.0, 2.0), 0.3, Vec3::ONE, 0.5));
        }
        let proj = project_gaussians(&cloud, &cam, &Se3::IDENTITY);
        let (tied, _) = assert_contract("one depth", &proj, &cam, 3);
        assert!(tied > 0);
    }

    /// The build stops scanning the depth order once every prefix is full,
    /// and deepening scans only from where the first one filled.
    #[test]
    fn the_scatter_stops_when_every_prefix_is_full() {
        let cam = PinholeCamera::from_fov(13, 9, 1.2);
        let proj = project_gaussians(&random_cloud(21, 300), &cam, &Se3::IDENTITY);
        let n = proj.splats.len();
        assert!(n > 100);
        let tables = GaussianTables::build_to(&proj, &cam, 10);
        let rest = tables.rest.as_ref().expect("one deep tile truncates");
        // One tile: its prefix is the first ten splats by depth.
        assert_eq!(rest.filled_at[0], 9);
        assert_eq!((rest.start, rest.order.len()), (10, n - 10));
        assert_eq!(tables.canonical(0).len(), n);
        let untruncated = GaussianTables::build_to(&proj, &cam, n);
        assert!(untruncated.rest.is_none());
    }

    /// Walks of many tiles deepening one build at the same time share one
    /// pass and read the same tables.
    #[test]
    fn concurrent_walks_deepen_one_build_once() {
        let cam = camera();
        for (name, cloud) in tied_clouds() {
            let proj = project_gaussians(&cloud, &cam, &Se3::IDENTITY);
            let tables = GaussianTables::build_to(&proj, &cam, 5);
            let reference = GaussianTables::build_reference(&proj, &cam);
            let tiles = tables.grid.num_tiles();
            let barrier = std::sync::Barrier::new(7);
            // Per worker, the address of the table each tile's walk moved to.
            let seen: Vec<Vec<usize>> = std::thread::scope(|scope| {
                let walkers: Vec<_> = (0..7)
                    .map(|worker| {
                        let (tables, reference, barrier) = (&tables, &reference, &barrier);
                        scope.spawn(move || {
                            barrier.wait();
                            let mut seen = vec![0; tiles];
                            for i in 0..tiles {
                                let t = (i + worker * 5) % tiles;
                                let (table, _) = tables.walk_table(t, tables.unique_len(t));
                                assert_eq!(tables.canonical(t), reference.prefix(t), "tile {t}");
                                seen[t] = table.as_ptr() as usize;
                            }
                            seen
                        })
                    })
                    .collect();
                walkers.into_iter().map(|walker| walker.join().unwrap()).collect()
            });
            assert!(seen.iter().all(|s| *s == seen[0]), "{name}: workers read different tables");
            assert!((0..tiles).any(|t| tables.truncated(t)), "{name}");
        }
    }

    /// The two passes agree at the extremes: nothing visible, a one-tile
    /// image, and a splat over every tile among small ones.
    #[test]
    fn tables_are_sized_exactly_from_nothing_visible_to_full_cover() {
        let exact = |name: &str, cloud: &GaussianCloud, cam: &PinholeCamera| {
            let proj = project_gaussians(cloud, cam, &Se3::IDENTITY);
            assert_contract(name, &proj, cam, PREFIX);
            let tables = GaussianTables::build(&proj, cam);
            for table in &tables.prefixes {
                assert_eq!(
                    table.capacity(),
                    table.len(),
                    "{name}: pass 1 counts what pass 2 pushes"
                );
            }
            let pairs: usize = (0..tables.grid.num_tiles()).map(|t| tables.table_len(t)).sum();
            assert_eq!(tables.total_pairs, pairs as u64, "{name}");
            (proj, tables)
        };
        let cam = camera();
        let mut behind = GaussianCloud::new();
        behind.push(Gaussian::isotropic(Vec3::new(0.0, 0.0, -2.0), 0.3, Vec3::ONE, 0.5));
        for (name, cloud) in [("empty", GaussianCloud::new()), ("behind", behind)] {
            let (proj, tables) = exact(name, &cloud, &cam);
            assert!(proj.splats.is_empty());
            assert_eq!(tables.total_pairs, 0);
            assert!((0..12).all(|t| tables.canonical(t).is_empty() && tables.unique_len(t) == 0));
        }

        let one_tile = PinholeCamera::from_fov(13, 9, 1.2);
        let cloud = random_cloud(21, 300);
        let (proj, tables) = exact("one tile", &cloud, &one_tile);
        assert_eq!(tables.grid.num_tiles(), 1);
        assert!(!proj.splats.is_empty());
        assert_eq!(tables.table_len(0), proj.splats.len());

        let mut cloud = random_cloud(22, 300);
        cloud.push(Gaussian::isotropic(Vec3::new(0.0, 0.0, 1.5), 2.0, Vec3::ONE, 0.5));
        let (proj, tables) = exact("full cover", &cloud, &cam);
        let big = proj.splats.iter().position(|s| s.id as usize == cloud.len() - 1).unwrap();
        assert_eq!(tables.tiles_per_splat[big], 12);
        let holds_big = |t: usize| {
            tables.canonical(t).iter().filter(|e| e.splat_index as usize == big).count() == 1
        };
        assert!((0..12).all(holds_big));
    }

    #[test]
    fn skipped_pairs_counts_the_binned_pairs_of_skipped_splats() {
        let cam = camera();
        let cloud = random_cloud(5, 800);
        let proj = project_gaussians(&cloud, &cam, &Se3::IDENTITY);
        let tables = GaussianTables::build(&proj, &cam);
        let mut skip = IdSet::with_capacity(cloud.len());
        for id in (0..cloud.len()).step_by(3) {
            skip.insert(id);
        }
        let expect = (0..tables.grid.num_tiles())
            .flat_map(|t| tables.canonical(t))
            .filter(|e| skip.contains(proj.splats[e.splat_index as usize].id as usize))
            .count() as u64;
        assert!(expect > 0);
        assert_eq!(tables.skipped_pairs(&proj, &skip), expect);
    }
}
