//! Tile binning and per-tile Gaussian tables.
//!
//! Step ② of the 3DGS pipeline (paper Fig. 2a): splats are assigned to every
//! `TILE_SIZE`² tile their extent intersects, and each tile lists them
//! front-to-back by depth. The sorted per-tile lists are the paper's
//! *Gaussian tables* — the structures that both the rasterizer and the AGS
//! mapping engine's GS logging/skipping tables consume.
//!
//! # Sort once, bin in depth order, in two passes
//!
//! [`GaussianTables::build`] sorts the *visible splats* once by
//! `(depth under f32::total_cmp, splat_index)` — a strict total order, so the
//! result does not depend on the sorting algorithm — and pushes them into
//! their tiles in that order: no per-tile sort. The push is the second of
//! two passes. The first walks the splats in index order — sequentially
//! through memory — and leaves each one's tile rectangle and depth in a
//! 12-byte record, counting what every tile and every splat will hold. The
//! second walks the depth order, which is a random order over the splats,
//! reading those records instead of the 60-byte [`Splat2d`]s (a fifth of the
//! cache lines), and pushes into tables allocated at their final length.
//!
//! # The order contract: unique prefix, canonical tail
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
//! the first tie, so each table carries [`GaussianTables::unique_len`] — the
//! index of the first entry whose depth equals its successor's — and a lazily
//! built [`GaussianTables::canonical`] table: the same entries put back into
//! index order and sorted by the historical call. A tile kernel may walk the
//! fast table while `k < unique_len(t)` and must continue on `canonical(t)`
//! once a row needs entry `unique_len(t)`; what it accumulated stays valid
//! because the prefixes are equal. Rows usually saturate before the first
//! tie, and then the historical sort never runs. A change that accepts the
//! `(depth, index)` order everywhere deletes `canonical`, the kernels' switch
//! and the test oracle — and moves numerics, so it owes an accuracy study.

use crate::idset::IdSet;
use crate::project::{Projection, Splat2d};
use crate::TILE_SIZE;
use ags_math::parallel::Parallelism;
use ags_scene::PinholeCamera;
use std::cell::RefCell;
use std::sync::OnceLock;

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
/// contract between [`tables`](Self::tables), [`unique_len`](Self::unique_len)
/// and [`canonical`](Self::canonical)).
#[derive(Debug, Clone)]
pub struct GaussianTables {
    /// Tile decomposition.
    pub grid: TileGrid,
    /// Total number of (splat, tile) pairs — the paper's per-frame workload
    /// proxy for sorting and table construction.
    pub total_pairs: u64,
    tables: Vec<Vec<TableEntry>>,
    unique_len: Vec<u32>,
    canonical: Vec<OnceLock<Vec<TableEntry>>>,
    /// Tiles each splat was binned into, by splat index.
    tiles_per_splat: Vec<u32>,
}

/// Maps `f32::total_cmp`'s order onto `u32`'s: negative floats have all bits
/// flipped, the rest only the sign bit.
#[inline]
fn depth_key(depth: f32) -> u32 {
    let bits = depth.to_bits();
    bits ^ (((bits as i32 >> 31) as u32) | 0x8000_0000)
}

/// Pass 1's record of one splat: the inclusive tile-column and tile-row
/// ranges it covers, and its depth.
#[derive(Clone, Copy)]
struct Footprint {
    cols: [u16; 2],
    rows: [u16; 2],
    depth: f32,
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
    /// Bins the splats of a projection into depth-sorted per-tile tables:
    /// one radix sort and the two passes of the module docs, on the calling
    /// thread.
    pub fn build(projection: &Projection, camera: &PinholeCamera) -> Self {
        BIN_SCRATCH.with(|cell| {
            let BinScratch { items, scratch, footprints } = &mut *cell.borrow_mut();
            depth_order(&projection.splats, items, scratch);
            Self::bin(projection, camera, footprints, items.iter().map(|&item| item as u32))
        })
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

    /// The per-tile build this module replaced, kept as the oracle
    /// [`canonical`](Self::canonical) and the tile kernels are tested against:
    /// bin in splat-index order, sort every tile with the historical call.
    /// Its tables claim no ties, so kernels walk them as they are.
    #[cfg(test)]
    pub(crate) fn build_reference(projection: &Projection, camera: &PinholeCamera) -> Self {
        let order = 0..projection.splats.len() as u32;
        let mut reference = Self::bin(projection, camera, &mut Vec::new(), order);
        for (table, unique_len) in reference.tables.iter_mut().zip(&mut reference.unique_len) {
            table.sort_unstable_by(|a, b| a.depth.total_cmp(&b.depth));
            *unique_len = table.len() as u32;
        }
        reference
    }

    /// Pushes the splats into the tiles they overlap, in `order`.
    fn bin(
        projection: &Projection,
        camera: &PinholeCamera,
        footprints: &mut Vec<Footprint>,
        order: impl Iterator<Item = u32>,
    ) -> Self {
        let grid = TileGrid::for_camera(camera);
        assert!(grid.cols.max(grid.rows) <= 1 << 16, "tile coordinates are kept in 16 bits");

        // Pass 1, index order: where each splat goes, how much goes where.
        footprints.clear();
        let mut counts = vec![0u32; grid.num_tiles()];
        let mut tiles_per_splat = Vec::with_capacity(projection.splats.len());
        let mut total_pairs = 0u64;
        for splat in &projection.splats {
            let (c0, c1, r0, r1) = splat_tile_range(splat, &grid);
            for row in r0..=r1 {
                for count in &mut counts[row * grid.cols + c0..=row * grid.cols + c1] {
                    *count += 1;
                }
            }
            let tiles = (c1 - c0 + 1) * (r1 - r0 + 1);
            tiles_per_splat.push(tiles as u32);
            total_pairs += tiles as u64;
            footprints.push(Footprint {
                cols: [c0 as u16, c1 as u16],
                rows: [r0 as u16, r1 as u16],
                depth: splat.depth,
            });
        }

        // Pass 2, in `order`: fill tables that never grow.
        let mut tables: Vec<Vec<TableEntry>> =
            counts.iter().map(|&count| Vec::with_capacity(count as usize)).collect();
        for si in order {
            let Footprint { cols, rows, depth } = footprints[si as usize];
            let entry = TableEntry { splat_index: si, depth };
            for row in rows[0]..=rows[1] {
                let row_start = row as usize * grid.cols;
                let covered = row_start + cols[0] as usize..=row_start + cols[1] as usize;
                for table in &mut tables[covered] {
                    table.push(entry);
                }
            }
        }
        let first_tie = |table: &Vec<TableEntry>| {
            let tied = |pair: &[TableEntry]| pair[0].depth.to_bits() == pair[1].depth.to_bits();
            table.windows(2).position(tied).unwrap_or(table.len()) as u32
        };
        let unique_len = tables.iter().map(first_tie).collect();
        let canonical = vec![OnceLock::new(); grid.num_tiles()];
        Self { grid, total_pairs, tables, unique_len, canonical, tiles_per_splat }
    }

    /// `tables()[t]` lists the splats intersecting tile `t` by
    /// `(depth, splat_index)`. Only the first [`unique_len`](Self::unique_len)
    /// entries are in the order blending must follow.
    #[inline]
    pub fn tables(&self) -> &[Vec<TableEntry>] {
        &self.tables
    }

    /// Index of tile `t`'s first entry whose depth equals its successor's, or
    /// the table's length when no two depths are equal.
    #[inline]
    pub fn unique_len(&self, t: usize) -> usize {
        self.unique_len[t] as usize
    }

    /// Tile `t`'s table in the order blending must follow: the per-tile
    /// build's (see the module docs). Built on first use; a tile without
    /// depth ties is its fast table.
    pub fn canonical(&self, t: usize) -> &[TableEntry] {
        let table = &self.tables[t];
        if self.unique_len(t) == table.len() {
            return table;
        }
        self.canonical[t].get_or_init(|| {
            let mut entries = table.clone();
            entries.sort_unstable_by_key(|entry| entry.splat_index);
            entries.sort_unstable_by(|a, b| a.depth.total_cmp(&b.depth));
            entries
        })
    }

    /// (splat, tile) pairs whose splat is in `skip`.
    pub(crate) fn skipped_pairs(&self, projection: &Projection, skip: &IdSet) -> u64 {
        let binned = projection.splats.iter().zip(&self.tiles_per_splat);
        binned.filter(|(splat, _)| skip.contains(splat.id as usize)).map(|(_, &n)| n as u64).sum()
    }
}

/// Inclusive tile-coordinate range `(col0, col1, row0, row1)` a splat covers.
fn splat_tile_range(splat: &Splat2d, grid: &TileGrid) -> (usize, usize, usize, usize) {
    let clamp_col = |v: f32| (v.max(0.0) as usize).min(grid.cols.saturating_sub(1));
    let clamp_row = |v: f32| (v.max(0.0) as usize).min(grid.rows.saturating_sub(1));
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
        let occupied: Vec<usize> = tables
            .tables()
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_empty())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(occupied.len(), 1, "tiny splat should occupy one tile, got {occupied:?}");
    }

    #[test]
    fn large_splat_covers_multiple_tiles() {
        let mut cloud = GaussianCloud::new();
        cloud.push(Gaussian::isotropic(Vec3::new(0.0, 0.0, 2.0), 0.8, Vec3::ONE, 0.5));
        let cam = camera();
        let proj = project_gaussians(&cloud, &cam, &Se3::IDENTITY);
        let tables = GaussianTables::build(&proj, &cam);
        let occupied = tables.tables().iter().filter(|t| !t.is_empty()).count();
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
        for table in tables.tables() {
            for pair in table.windows(2) {
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
            assert_eq!(serial.tables(), parallel.tables(), "{threads} threads");
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

    /// The contract of the module docs, against the per-tile build.
    fn assert_contract(name: &str, proj: &Projection, cam: &PinholeCamera) -> (usize, usize) {
        let tables = GaussianTables::build(proj, cam);
        let reference = GaussianTables::build_reference(proj, cam);
        assert_eq!(tables.total_pairs, reference.total_pairs, "{name}");
        assert_eq!(tables.tiles_per_splat, reference.tiles_per_splat, "{name}");
        let (mut tied, mut reordered) = (0, 0);
        for (t, expect) in reference.tables().iter().enumerate() {
            let unique = tables.unique_len(t);
            assert_eq!(tables.canonical(t), &expect[..], "{name}: tile {t}");
            assert_eq!(tables.tables()[t][..unique], expect[..unique], "{name}: tile {t}");
            assert_eq!(reference.unique_len(t), expect.len(), "{name}: tile {t}");
            let first_tie = expect.windows(2).position(|pair| pair[0].depth == pair[1].depth);
            assert_eq!(unique, first_tie.unwrap_or(expect.len()), "{name}: tile {t}");
            tied += usize::from(unique < expect.len());
            reordered += usize::from(tables.tables()[t] != *expect);
        }
        (tied, reordered)
    }

    #[test]
    fn canonical_tables_are_the_per_tile_build_and_prefixes_agree() {
        let cam = camera();
        let mut reordered_somewhere = false;
        for (name, cloud) in tied_clouds() {
            let proj = project_gaussians(&cloud, &cam, &Se3::IDENTITY);
            let (tied, reordered) = assert_contract(name, &proj, &cam);
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
            assert_contract("random", &proj, &cam);
        }
    }

    /// The two passes agree at the extremes: nothing visible, a one-tile
    /// image, and a splat over every tile among small ones.
    #[test]
    fn tables_are_sized_exactly_from_nothing_visible_to_full_cover() {
        let exact = |name: &str, cloud: &GaussianCloud, cam: &PinholeCamera| {
            let proj = project_gaussians(cloud, cam, &Se3::IDENTITY);
            assert_contract(name, &proj, cam);
            let tables = GaussianTables::build(&proj, cam);
            for table in tables.tables() {
                assert_eq!(
                    table.capacity(),
                    table.len(),
                    "{name}: pass 1 counts what pass 2 pushes"
                );
            }
            let pairs: usize = tables.tables().iter().map(Vec::len).sum();
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
        assert_eq!(tables.tables()[0].len(), proj.splats.len());

        let mut cloud = random_cloud(22, 300);
        cloud.push(Gaussian::isotropic(Vec3::new(0.0, 0.0, 1.5), 2.0, Vec3::ONE, 0.5));
        let (proj, tables) = exact("full cover", &cloud, &cam);
        let big = proj.splats.iter().position(|s| s.id as usize == cloud.len() - 1).unwrap();
        assert_eq!(tables.tiles_per_splat[big], 12);
        let holds_big = |table: &Vec<TableEntry>| {
            table.iter().filter(|e| e.splat_index as usize == big).count() == 1
        };
        assert!(tables.tables().iter().all(holds_big));
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
        let expect = tables
            .tables()
            .iter()
            .flatten()
            .filter(|e| skip.contains(proj.splats[e.splat_index as usize].id as usize))
            .count() as u64;
        assert!(expect > 0);
        assert_eq!(tables.skipped_pairs(&proj, &skip), expect);
    }
}
