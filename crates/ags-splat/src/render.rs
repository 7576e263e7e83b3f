//! Forward rasterization: per-pixel front-to-back alpha blending.
//!
//! Step ③ of the 3DGS pipeline. Each tile's Gaussian table is traversed
//! front-to-back per pixel; a Gaussian contributes
//! `α = opacity · exp(-½ dᵀ K d)` and updates the transmittance
//! `T ← T·(1-α)`. Contributions below [`crate::ALPHA_THRESHOLD`] are skipped
//! (and optionally *recorded* — the raw signal behind AGS's
//! contribution-aware mapping), and pixels terminate early once
//! `T < `[`crate::TRANSMITTANCE_MIN`].
//!
//! A `match` on [`BackendKind`] picks the tile kernel. The reference kernel
//! here walks each pixel on its own (`walk_pixel`, the scalar oracle the
//! reference backward replays as well); the vectorized kernel in
//! [`crate::backend`] — the default — walks rows, with the row early-out
//! and the tile-interior fast path, and is bit-identical to it.

use crate::backend::{rasterize_tile_vec, BackendKind};
use crate::backward::BlendTape;
use crate::gaussian::GaussianCloud;
use crate::idset::IdSet;
use crate::project::{falloff, project_gaussians, Projection, Splat2d};
use crate::tiles::{GaussianTables, TableEntry};
use crate::{ALPHA_THRESHOLD, TRANSMITTANCE_MIN};
use ags_image::{DepthImage, GrayImage, RgbImage};
use ags_math::parallel::{par_map, Parallelism};
use ags_math::{Se3, Vec2, Vec3};
use ags_scene::PinholeCamera;
use std::sync::Arc;

/// Options controlling a render pass.
#[derive(Debug, Clone, Default)]
pub struct RenderOptions {
    /// Gaussian ids to exclude entirely (selective mapping's skip set).
    /// `Arc`'d so per-iteration mapping renders share one set by refcount
    /// instead of cloning the bitset every call.
    pub skip: Option<Arc<IdSet>>,
    /// Record per-Gaussian contribution statistics (key-frame full mapping).
    pub record_contributions: bool,
    /// Collect per-tile per-pixel Gaussian counts for the cycle-level
    /// hardware simulator.
    pub collect_tile_work: bool,
    /// Thread-level parallelism of binning and rasterization. Tiles are
    /// rasterized independently and merged in tile order, so the parallel
    /// path is bit-identical to [`Parallelism::serial()`].
    pub parallelism: Parallelism,
    /// Which kernel implementation renders the tiles (both produce
    /// bit-identical output; see [`crate::backend`]).
    pub backend: BackendKind,
}

/// Per-Gaussian contribution statistics from one render.
///
/// `touched[g]` counts pixels whose blending loop evaluated Gaussian `g`;
/// `negligible[g]` counts those where its α fell below `Threshα` — the
/// quantity the GS logging table accumulates (paper Fig. 8).
#[derive(Debug, Clone, Default)]
pub struct ContributionStats {
    /// Pixels that evaluated each Gaussian.
    pub touched: Vec<u32>,
    /// Pixels where the Gaussian's α was below the threshold.
    pub negligible: Vec<u32>,
}

impl ContributionStats {
    fn new(n: usize) -> Self {
        Self { touched: vec![0; n], negligible: vec![0; n] }
    }

    /// Ids whose negligible-pixel count exceeds `thresh_n` — the paper's
    /// non-contributory designation.
    pub fn non_contributory(&self, thresh_n: u32) -> IdSet {
        let mut set = IdSet::with_capacity(self.touched.len());
        for (id, &neg) in self.negligible.iter().enumerate() {
            if neg > thresh_n {
                set.insert(id);
            }
        }
        set
    }
}

/// Per-tile rasterization workload (input for the cycle-level GPE model).
#[derive(Debug, Clone)]
pub struct TileWork {
    /// Tile index in the grid.
    pub tile: u32,
    /// For each pixel of the tile (row-major within the tile), the number of
    /// Gaussians whose α stage was evaluated before termination.
    pub per_pixel_evals: Vec<u16>,
    /// For each pixel, the number of Gaussians that passed the α threshold
    /// and entered the blend stage.
    pub per_pixel_blends: Vec<u16>,
}

/// Aggregate statistics of one render pass.
#[derive(Debug, Clone, Default)]
pub struct RenderStats {
    /// α-stage evaluations (Eqn. 1 of the paper).
    pub alpha_evals: u64,
    /// Blend-stage operations (Eqn. 2).
    pub blend_ops: u64,
    /// (splat, tile) pairs in the Gaussian tables.
    pub pairs: u64,
    /// Splats surviving projection.
    pub visible_splats: u64,
    /// Gaussians culled during projection.
    pub culled: u64,
    /// Gaussians skipped by the skip set (counted once per (splat, tile)).
    pub skipped_pairs: u64,
    /// Pixels that terminated early (T below threshold).
    pub early_terminated_pixels: u64,
    /// Tile pixel rows whose blending loop stopped before exhausting the
    /// tile's Gaussian table because **every** pixel of the row saturated
    /// (`T` below threshold) — the per-tile T-saturation early-out.
    pub saturated_rows: u64,
    /// (splat, tile) pairs some pixel row's table walk reached, summed over
    /// tiles: a tile's walk depth is the deepest index any of its rows got to
    /// before saturating. The table depth actually paid for, beside `pairs`
    /// (the depth binned). Diagnostic only — not part of any work model.
    pub walked_pairs: u64,
    /// Tiles whose walk reached the first depth tie of their table and so
    /// continued on [`GaussianTables::canonical`] — the tiles that paid the
    /// historical per-tile sort. Diagnostic only, like `walked_pairs`.
    pub canonical_tiles: u64,
    /// Tiles the build truncated ([`crate::tiles::PREFIX`]) whose walk
    /// needed an entry the prefix does not vouch for, so the build's tables
    /// were completed. Diagnostic only, like `walked_pairs`.
    pub deepened_tiles: u64,
    /// Walked (splat, tile) pairs that took the tile-interior fast path: the
    /// splat's α provably stays at or above [`ALPHA_THRESHOLD`] on every
    /// pixel of the tile, so the per-pixel falloff bound check before the
    /// blend stage is skipped (bit-identical to the checked path). Entries no
    /// row reaches are not classified, so they are not counted.
    pub interior_pairs: u64,
    /// Per-tile workload detail (only when requested).
    pub tile_work: Vec<TileWork>,
}

impl RenderStats {
    /// Adds `other`'s counters to these, field by field, and appends its
    /// per-tile work: the statistics of both renders together.
    pub fn merge(&mut self, other: &RenderStats) {
        // Destructured so a new field cannot be left out of the sum.
        let RenderStats {
            alpha_evals,
            blend_ops,
            pairs,
            visible_splats,
            culled,
            skipped_pairs,
            early_terminated_pixels,
            saturated_rows,
            walked_pairs,
            canonical_tiles,
            deepened_tiles,
            interior_pairs,
            tile_work,
        } = other;
        self.alpha_evals += alpha_evals;
        self.blend_ops += blend_ops;
        self.pairs += pairs;
        self.visible_splats += visible_splats;
        self.culled += culled;
        self.skipped_pairs += skipped_pairs;
        self.early_terminated_pixels += early_terminated_pixels;
        self.saturated_rows += saturated_rows;
        self.walked_pairs += walked_pairs;
        self.canonical_tiles += canonical_tiles;
        self.deepened_tiles += deepened_tiles;
        self.interior_pairs += interior_pairs;
        self.tile_work.extend_from_slice(tile_work);
    }
}

/// Output of a render pass.
#[derive(Debug, Clone)]
pub struct RenderOutput {
    /// Blended color (background = black).
    pub color: RgbImage,
    /// Expected depth `Σ Tᵢαᵢzᵢ` (SplaTAM-style, not normalised).
    pub depth: DepthImage,
    /// Accumulated opacity `1 - T_final` — SplaTAM's silhouette.
    pub silhouette: GrayImage,
    /// Workload statistics.
    pub stats: RenderStats,
    /// Contribution statistics when requested.
    pub contributions: Option<ContributionStats>,
}

/// Projects, bins and rasterizes the cloud in one call.
pub fn render(
    cloud: &GaussianCloud,
    camera: &PinholeCamera,
    pose: &Se3,
    options: &RenderOptions,
) -> RenderOutput {
    let projection = project_gaussians(cloud, camera, pose);
    let tables = GaussianTables::build_with(&projection, camera, &options.parallelism);
    rasterize(cloud, &projection, &tables, camera, options)
}

/// Everything one tile produces: local framebuffers plus workload counters,
/// merged into the frame-level output in tile order. Returned by the tile
/// kernels, [`rasterize_tile`] and [`crate::backend::rasterize_tile_vec`].
pub(crate) struct TileRaster {
    pub(crate) color: Vec<Vec3>,
    pub(crate) depth: Vec<f32>,
    pub(crate) silhouette: Vec<f32>,
    pub(crate) alpha_evals: u64,
    pub(crate) blend_ops: u64,
    pub(crate) early_terminated: u64,
    pub(crate) saturated_rows: u64,
    pub(crate) walked_pairs: u64,
    pub(crate) interior_pairs: u64,
    pub(crate) work: Option<TileWork>,
    /// `(gaussian id, touched pixels, negligible pixels)` per table entry.
    pub(crate) contributions: Vec<(u32, u32, u32)>,
}

impl TileRaster {
    /// Empty tile-local buffers, optionally carrying a tile-work collector.
    pub(crate) fn empty(
        tile_idx: usize,
        tile_w: usize,
        tile_h: usize,
        collect_tile_work: bool,
    ) -> Self {
        let work = collect_tile_work.then(|| TileWork {
            tile: tile_idx as u32,
            per_pixel_evals: vec![0; tile_w * tile_h],
            per_pixel_blends: vec![0; tile_w * tile_h],
        });
        Self {
            color: Vec::new(),
            depth: Vec::new(),
            silhouette: Vec::new(),
            alpha_evals: 0,
            blend_ops: 0,
            early_terminated: 0,
            saturated_rows: 0,
            walked_pairs: 0,
            interior_pairs: 0,
            work,
            contributions: Vec::new(),
        }
    }
}

/// Conservative tile-interior test: `true` only when the splat's α provably
/// stays at or above [`ALPHA_THRESHOLD`] on **every** pixel of the tile, so
/// the per-pixel `alpha < ALPHA_THRESHOLD` bound check is dead and the
/// blending loop may skip it.
///
/// The quadratic `q = dᵀ K d` is convex, so its maximum over the tile's
/// pixel rectangle sits at one of the four corners. Two guards keep the
/// decision sound under f32 rounding, so skipping the check stays
/// bit-identical to evaluating it:
///
/// * `b² < 0.998·ac` bounds the conic away from degeneracy, which
///   guarantees the three-term quadratic cannot round to a negative value
///   at any pixel (the falloff kernel maps `q < 0` to α = 0);
/// * the corner maximum is inflated by 1 % and the threshold by 5 % —
///   orders of magnitude beyond the ~1e-5 relative error between the corner
///   bound and any per-pixel evaluation.
pub(crate) fn splat_covers_tile(splat: &Splat2d, bounds: (usize, usize, usize, usize)) -> bool {
    let (a, b, c) = splat.conic;
    if !(a > 0.0 && c > 0.0 && b * b < 0.998 * a * c) {
        return false;
    }
    let (x0, y0, x1, y1) = bounds;
    let corners = [
        Vec2::new(x0 as f32, y0 as f32),
        Vec2::new((x1 - 1) as f32, y0 as f32),
        Vec2::new(x0 as f32, (y1 - 1) as f32),
        Vec2::new((x1 - 1) as f32, (y1 - 1) as f32),
    ];
    let mut q_max = 0.0f32;
    for corner in corners {
        let d = corner - splat.mean;
        let q = a * d.x * d.x + 2.0 * b * d.x * d.y + c * d.y * d.y;
        if !q.is_finite() {
            return false;
        }
        q_max = q_max.max(q);
    }
    splat.opacity * (-0.5 * q_max * 1.01).exp() >= ALPHA_THRESHOLD * 1.05
}

/// One blend of a [`walk_pixel`]: Eqn. 2's operands for one entry on one
/// pixel.
#[derive(Clone, Copy)]
pub(crate) struct Blend {
    pub(crate) alpha: f32,
    /// The falloff `g` that α came from (`α = min(o·g, 0.99)`).
    pub(crate) g: f32,
    pub(crate) t_before: f32,
    /// Whether `o·g` exceeded 0.99, so α was clamped there.
    pub(crate) clamped: bool,
}

/// A tile's canonical table with its skipped entries resolved away: (table
/// position, splat) for every entry [`walk_pixel`] evaluates, in blend order.
pub(crate) fn walk_entries<'a>(
    projection: &'a Projection,
    table: &[TableEntry],
    skip: Option<&IdSet>,
) -> Vec<(usize, &'a Splat2d)> {
    let splats = table.iter().map(|entry| &projection.splats[entry.splat_index as usize]);
    let unskipped =
        |(_, splat): &(usize, &Splat2d)| !skip.is_some_and(|s| s.contains(splat.id as usize));
    splats.enumerate().filter(unskipped).collect()
}

/// The scalar blend walk of Eqn. 1–2, the oracle both reference passes run:
/// one pixel front to back over a tile's [`walk_entries`]. Per entry, `visit`
/// gets its table position, the splat and the blend — `None` when α falls
/// below [`ALPHA_THRESHOLD`] (evaluated, negligible, not blended). The walk
/// stops once `T < `[`TRANSMITTANCE_MIN`] and returns the final `T` with,
/// when it saturated, the table position past the entry that saturated it.
pub(crate) fn walk_pixel<'a>(
    entries: &[(usize, &'a Splat2d)],
    pixel: Vec2,
    mut visit: impl FnMut(usize, &'a Splat2d, Option<Blend>),
) -> (f32, Option<usize>) {
    let mut t = 1.0f32;
    for &(k, splat) in entries {
        let g = falloff(splat.conic, pixel - splat.mean);
        let raw_alpha = splat.opacity * g;
        let alpha = raw_alpha.min(0.99);
        if alpha < ALPHA_THRESHOLD {
            visit(k, splat, None);
            continue;
        }
        visit(k, splat, Some(Blend { alpha, g, t_before: t, clamped: raw_alpha > 0.99 }));
        t *= 1.0 - alpha;
        if t < TRANSMITTANCE_MIN {
            return (t, Some(k + 1));
        }
    }
    (t, None)
}

/// Rasterizes one tile into tile-local buffers (row-major within the tile):
/// the reference kernel, [`walk_pixel`] per pixel over the tile's canonical
/// table, taken up front instead of switching to it when a walk reaches the
/// first depth tie.
///
/// The row counters the vectorized kernel books as its rows walk follow from
/// each pixel's stop point: a row reaches as deep as its deepest pixel, and
/// is a saturated row ([`RenderStats::saturated_rows`]) when that is short of
/// the table's end. The tile's walk depth is its deepest row; its interior
/// pairs are the walked, unskipped entries [`splat_covers_tile`] accepts.
pub(crate) fn rasterize_tile(
    projection: &Projection,
    tables: &GaussianTables,
    tile_idx: usize,
    options: &RenderOptions,
) -> TileRaster {
    let table = tables.canonical(tile_idx);
    let bounds = tables.grid.tile_bounds(tile_idx);
    let (x0, y0, x1, y1) = bounds;
    let tile_w = x1 - x0;
    let tile_h = y1 - y0;
    let mut out = TileRaster::empty(tile_idx, tile_w, tile_h, options.collect_tile_work);
    if table.is_empty() {
        return out;
    }
    out.color = vec![Vec3::ZERO; tile_w * tile_h];
    out.depth = vec![0.0; tile_w * tile_h];
    out.silhouette = vec![0.0; tile_w * tile_h];
    if options.record_contributions {
        out.contributions =
            table.iter().map(|e| (projection.splats[e.splat_index as usize].id, 0, 0)).collect();
    }
    let entries = walk_entries(projection, table, options.skip.as_deref());

    // Deepest table index (+1) any row of this tile walks to.
    let mut walked = 0usize;
    for py in y0..y1 {
        let mut reached = 0usize;
        for px in x0..x1 {
            let (mut color, mut depth) = (Vec3::ZERO, 0.0f32);
            let (mut evals, mut blends) = (0u32, 0u32);
            let pixel = Vec2::new(px as f32, py as f32);
            let (t, stop) = walk_pixel(&entries, pixel, |k, splat, blend| {
                evals += 1;
                // `contributions` is empty unless they are recorded.
                if let Some(entry_stats) = out.contributions.get_mut(k) {
                    entry_stats.1 += 1;
                    entry_stats.2 += u32::from(blend.is_none());
                }
                if let Some(Blend { alpha, t_before, .. }) = blend {
                    blends += 1;
                    color += splat.color * (t_before * alpha);
                    depth += splat.depth * (t_before * alpha);
                }
            });
            out.early_terminated += u64::from(stop.is_some());
            reached = reached.max(stop.unwrap_or(table.len()));

            out.alpha_evals += evals as u64;
            out.blend_ops += blends as u64;
            let i = (py - y0) * tile_w + (px - x0);
            out.color[i] = color;
            out.depth[i] = depth;
            out.silhouette[i] = 1.0 - t;
            if let Some(w) = out.work.as_mut() {
                // The cycle model's per-pixel counters are u16; tables deeper
                // than 65535 entries saturate instead of wrapping.
                w.per_pixel_evals[i] = evals.min(u16::MAX as u32) as u16;
                w.per_pixel_blends[i] = blends.min(u16::MAX as u32) as u16;
            }
        }
        out.saturated_rows += u64::from(reached < table.len());
        walked = walked.max(reached);
    }

    out.walked_pairs = walked as u64;
    let interior =
        |&&(k, splat): &&(usize, &Splat2d)| k < walked && splat_covers_tile(splat, bounds);
    out.interior_pairs = entries.iter().filter(interior).count() as u64;
    out
}

/// Rasterizes pre-projected splats (lets callers reuse projection products
/// across the forward and backward passes).
///
/// Tiles are independent: `options.parallelism` distributes them across
/// workers and the per-tile outcomes are merged in tile order, making the
/// parallel output bit-identical to the serial path.
pub fn rasterize(
    cloud: &GaussianCloud,
    projection: &Projection,
    tables: &GaussianTables,
    camera: &PinholeCamera,
    options: &RenderOptions,
) -> RenderOutput {
    rasterize_taped(cloud, projection, tables, camera, options, None)
}

/// [`rasterize`] for a render that is going to be differentiated: a backend
/// that tapes records every pixel's blends into `tape` (sized here, one
/// [`crate::backward::TileTape`] per tile) for
/// [`crate::backward::backward_taped`]. Output and statistics are those of
/// [`rasterize`].
pub(crate) fn rasterize_taped(
    cloud: &GaussianCloud,
    projection: &Projection,
    tables: &GaussianTables,
    camera: &PinholeCamera,
    options: &RenderOptions,
    mut tape: Option<&mut BlendTape>,
) -> RenderOutput {
    if let Some(tape) = tape.as_deref_mut() {
        tape.reset(tables.grid.num_tiles());
    }
    let tape = tape.as_deref();
    let mut color = RgbImage::filled(camera.width, camera.height, Vec3::ZERO);
    let mut depth = DepthImage::new(camera.width, camera.height);
    let mut silhouette = GrayImage::new(camera.width, camera.height);
    let mut stats = RenderStats {
        pairs: tables.total_pairs,
        visible_splats: projection.splats.len() as u64,
        culled: projection.culled as u64,
        skipped_pairs: options.skip.as_ref().map_or(0, |s| tables.skipped_pairs(projection, s)),
        ..RenderStats::default()
    };
    let mut contributions =
        options.record_contributions.then(|| ContributionStats::new(cloud.len()));

    // Small frames on the SLAM hot path carry too little blending work to
    // amortise thread spawns; auto mode drops to serial below ~1k pairs.
    // The workload estimate weights each (splat, tile) pair by the tile's
    // pixel count — a pair is up to a full tile of α/blend work, hundreds
    // of elementary ops, so pair counts alone would starve the
    // `min_items_per_worker` floor on frames that parallelise well.
    let pair_work = crate::TILE_SIZE * crate::TILE_SIZE;
    let par =
        options.parallelism.for_workload(tables.total_pairs as usize * pair_work, 1024 * pair_work);
    let outcomes = par_map(&par, tables.grid.num_tiles(), 1, |tile_idx| match options.backend {
        BackendKind::Reference => rasterize_tile(projection, tables, tile_idx, options),
        BackendKind::Vectorized => {
            let mut tile_tape =
                tape.map(|t| t.tiles[tile_idx].lock().expect("a worker panicked while taping"));
            rasterize_tile_vec(
                projection,
                tables,
                tile_idx,
                options.skip.as_deref(),
                options.record_contributions,
                options.collect_tile_work,
                tile_tape.as_deref_mut(),
            )
        }
    });

    for (tile_idx, outcome) in outcomes.into_iter().enumerate() {
        stats.alpha_evals += outcome.alpha_evals;
        stats.blend_ops += outcome.blend_ops;
        stats.early_terminated_pixels += outcome.early_terminated;
        stats.saturated_rows += outcome.saturated_rows;
        stats.walked_pairs += outcome.walked_pairs;
        // A walk deeper than the prefix's trusted entries needed the complete
        // table (already built then), and one deeper than its first tie the
        // canonical one.
        let walked = outcome.walked_pairs as usize;
        if walked > tables.unique_len(tile_idx) {
            stats.deepened_tiles += u64::from(tables.truncated(tile_idx));
            stats.canonical_tiles += u64::from(walked > tables.first_tie(tile_idx));
        }
        stats.interior_pairs += outcome.interior_pairs;
        if let Some(w) = outcome.work {
            stats.tile_work.push(w);
        }
        if let Some(c) = contributions.as_mut() {
            for &(id, touched, negligible) in &outcome.contributions {
                c.touched[id as usize] += touched;
                c.negligible[id as usize] += negligible;
            }
        }
        // Empty tiles produced no buffers; the background fill already
        // matches their contents.
        if outcome.color.is_empty() {
            continue;
        }
        let (x0, y0, x1, y1) = tables.grid.tile_bounds(tile_idx);
        let tile_w = x1 - x0;
        for py in y0..y1 {
            for px in x0..x1 {
                let i = (py - y0) * tile_w + (px - x0);
                color.set(px, py, outcome.color[i]);
                depth.set(px, py, outcome.depth[i]);
                silhouette.set(px, py, outcome.silhouette[i]);
            }
        }
    }

    RenderOutput { color, depth, silhouette, stats, contributions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::Gaussian;
    use ags_math::Parallelism;

    fn camera() -> PinholeCamera {
        PinholeCamera::from_fov(32, 32, 1.2)
    }

    fn single_gaussian_cloud(opacity: f32) -> GaussianCloud {
        let mut cloud = GaussianCloud::new();
        cloud.push(Gaussian::isotropic(
            Vec3::new(0.0, 0.0, 2.0),
            0.25,
            Vec3::new(1.0, 0.0, 0.0),
            opacity,
        ));
        cloud
    }

    #[test]
    fn single_gaussian_renders_red_center() {
        let out = render(
            &single_gaussian_cloud(0.9),
            &camera(),
            &Se3::IDENTITY,
            &RenderOptions::default(),
        );
        let c = out.color.at(15, 15);
        assert!(c.x > 0.5, "center should be strongly red, got {c:?}");
        assert!(c.y < 0.05 && c.z < 0.05);
        assert!(out.silhouette.at(15, 15) > 0.8);
        // Depth is alpha-weighted: close to 2.0 * accumulated alpha.
        assert!(out.depth.at(15, 15) > 1.0);
    }

    #[test]
    fn empty_cloud_renders_black() {
        let out =
            render(&GaussianCloud::new(), &camera(), &Se3::IDENTITY, &RenderOptions::default());
        assert_eq!(out.color.at(5, 5), Vec3::ZERO);
        assert_eq!(out.stats.alpha_evals, 0);
        assert_eq!(out.stats.visible_splats, 0);
    }

    #[test]
    fn skip_set_removes_gaussian() {
        let cloud = single_gaussian_cloud(0.9);
        let mut skip = IdSet::with_capacity(cloud.len());
        skip.insert(0);
        let options = RenderOptions { skip: Some(Arc::new(skip)), ..Default::default() };
        let out = render(&cloud, &camera(), &Se3::IDENTITY, &options);
        assert_eq!(out.color.at(15, 15), Vec3::ZERO);
        assert!(out.stats.skipped_pairs > 0);
        assert_eq!(out.stats.alpha_evals, 0);
    }

    #[test]
    fn front_gaussian_occludes_back() {
        let mut cloud = GaussianCloud::new();
        // Nearly opaque red in front, green behind.
        cloud.push(Gaussian::isotropic(
            Vec3::new(0.0, 0.0, 2.0),
            0.3,
            Vec3::new(1.0, 0.0, 0.0),
            0.99,
        ));
        cloud.push(Gaussian::isotropic(
            Vec3::new(0.0, 0.0, 4.0),
            0.3,
            Vec3::new(0.0, 1.0, 0.0),
            0.99,
        ));
        let out = render(&cloud, &camera(), &Se3::IDENTITY, &RenderOptions::default());
        let c = out.color.at(15, 15);
        assert!(c.x > 10.0 * c.y, "front red should dominate: {c:?}");
    }

    #[test]
    fn early_termination_fires_with_opaque_stack() {
        let mut cloud = GaussianCloud::new();
        for i in 0..8 {
            cloud.push(Gaussian::isotropic(
                Vec3::new(0.0, 0.0, 2.0 + i as f32 * 0.2),
                0.4,
                Vec3::ONE,
                0.995,
            ));
        }
        let out = render(&cloud, &camera(), &Se3::IDENTITY, &RenderOptions::default());
        assert!(out.stats.early_terminated_pixels > 0);
        // Early termination means not all pairs were blended for those pixels.
        assert!(out.stats.blend_ops < out.stats.pairs * 200);
    }

    #[test]
    fn saturated_rows_cut_the_table_walk_on_opaque_scenes() {
        // Frame-filling opaque Gaussians: every pixel of the interior tile
        // rows saturates with table entries to spare, so the row-level
        // T-saturation early-out must fire and be counted.
        let mut cloud = GaussianCloud::new();
        for i in 0..12 {
            cloud.push(Gaussian::isotropic(
                Vec3::new(0.0, 0.0, 2.0 + i as f32 * 0.1),
                3.0,
                Vec3::ONE,
                0.99,
            ));
        }
        let out = render(&cloud, &camera(), &Se3::IDENTITY, &RenderOptions::default());
        assert!(out.stats.saturated_rows > 0, "opaque rows should cut the table walk short");
        assert!(out.stats.early_terminated_pixels > 0);
        // A transparent scene never saturates a row.
        let mut faint = GaussianCloud::new();
        faint.push(Gaussian::isotropic(Vec3::new(0.0, 0.0, 2.0), 3.0, Vec3::ONE, 0.1));
        let out = render(&faint, &camera(), &Se3::IDENTITY, &RenderOptions::default());
        assert_eq!(out.stats.saturated_rows, 0);
    }

    /// Renders `cloud` with the reference backend: the scalar walk.
    fn reference(
        cloud: &GaussianCloud,
        cam: &PinholeCamera,
        options: &RenderOptions,
    ) -> RenderOutput {
        let options = RenderOptions { backend: BackendKind::Reference, ..options.clone() };
        render(cloud, cam, &Se3::IDENTITY, &options)
    }

    #[test]
    fn default_render_matches_the_reference_walk() {
        use ags_math::Pcg32;
        let mut cloud = GaussianCloud::new();
        let mut rng = Pcg32::seeded(7);
        for _ in 0..400 {
            cloud.push(Gaussian::isotropic(
                Vec3::new(
                    rng.range_f32(-1.0, 1.0),
                    rng.range_f32(-1.0, 1.0),
                    rng.range_f32(0.5, 5.0),
                ),
                rng.range_f32(0.02, 0.4),
                Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32()),
                rng.range_f32(0.1, 0.995),
            ));
        }
        let mut skip = IdSet::with_capacity(cloud.len());
        for id in (0..cloud.len()).step_by(5) {
            skip.insert(id);
        }
        let cam = PinholeCamera::from_fov(64, 48, 1.2);
        let options = RenderOptions {
            skip: Some(Arc::new(skip)),
            record_contributions: true,
            collect_tile_work: true,
            parallelism: Parallelism::serial(),
            backend: BackendKind::default(),
        };
        let expect = reference(&cloud, &cam, &options);
        let got = render(&cloud, &cam, &Se3::IDENTITY, &options);
        assert_eq!(expect.color.pixels(), got.color.pixels());
        assert_eq!(expect.depth.pixels(), got.depth.pixels());
        assert_eq!(expect.silhouette.pixels(), got.silhouette.pixels());
        assert_eq!(expect.stats.alpha_evals, got.stats.alpha_evals);
        assert_eq!(expect.stats.blend_ops, got.stats.blend_ops);
        assert_eq!(expect.stats.skipped_pairs, got.stats.skipped_pairs);
        assert_eq!(expect.stats.early_terminated_pixels, got.stats.early_terminated_pixels);
        assert_eq!(expect.stats.tile_work.len(), got.stats.tile_work.len());
        for (a, b) in expect.stats.tile_work.iter().zip(&got.stats.tile_work) {
            assert_eq!(a.tile, b.tile);
            assert_eq!(a.per_pixel_evals, b.per_pixel_evals);
            assert_eq!(a.per_pixel_blends, b.per_pixel_blends);
        }
        let (ec, gc) = (expect.contributions.unwrap(), got.contributions.unwrap());
        assert_eq!(ec.touched, gc.touched);
        assert_eq!(ec.negligible, gc.negligible);
    }

    #[test]
    fn interior_fast_path_fires_and_matches_reference() {
        use ags_math::Pcg32;
        // Frame-filling opaque splats trigger the tile-interior fast path on
        // interior tiles; a mix of small faint splats keeps the checked path
        // busy too. Output and every counter must match the reference walk
        // bit for bit.
        let mut cloud = GaussianCloud::new();
        let mut rng = Pcg32::seeded(21);
        for i in 0..4 {
            cloud.push(Gaussian::isotropic(
                Vec3::new(0.0, 0.0, 2.0 + i as f32 * 0.5),
                2.5,
                Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32()),
                0.6,
            ));
        }
        for _ in 0..80 {
            cloud.push(Gaussian::isotropic(
                Vec3::new(
                    rng.range_f32(-1.0, 1.0),
                    rng.range_f32(-1.0, 1.0),
                    rng.range_f32(0.5, 5.0),
                ),
                rng.range_f32(0.02, 0.2),
                Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32()),
                rng.range_f32(0.005, 0.9),
            ));
        }
        let mut skip = IdSet::with_capacity(cloud.len());
        for id in (0..cloud.len()).step_by(7) {
            skip.insert(id);
        }
        let cam = PinholeCamera::from_fov(64, 48, 1.2);
        let options = RenderOptions {
            skip: Some(Arc::new(skip)),
            record_contributions: true,
            collect_tile_work: true,
            parallelism: Parallelism::serial(),
            backend: BackendKind::default(),
        };
        let got = render(&cloud, &cam, &Se3::IDENTITY, &options);
        assert!(got.stats.interior_pairs > 0, "frame-filling splats must take the fast path");
        let expect = reference(&cloud, &cam, &options);
        assert_eq!(expect.color.pixels(), got.color.pixels());
        assert_eq!(expect.depth.pixels(), got.depth.pixels());
        assert_eq!(expect.silhouette.pixels(), got.silhouette.pixels());
        assert_eq!(expect.stats.alpha_evals, got.stats.alpha_evals);
        assert_eq!(expect.stats.blend_ops, got.stats.blend_ops);
        assert_eq!(expect.stats.skipped_pairs, got.stats.skipped_pairs);
        assert_eq!(expect.stats.early_terminated_pixels, got.stats.early_terminated_pixels);
        for (a, b) in expect.stats.tile_work.iter().zip(&got.stats.tile_work) {
            assert_eq!(a.per_pixel_evals, b.per_pixel_evals);
            assert_eq!(a.per_pixel_blends, b.per_pixel_blends);
        }
        let (ec, gc) = (expect.contributions.unwrap(), got.contributions.unwrap());
        assert_eq!(ec.touched, gc.touched);
        assert_eq!(ec.negligible, gc.negligible);
    }

    #[test]
    fn faint_splats_never_take_the_interior_path() {
        // A frame-filling but nearly transparent splat: its α sits below the
        // threshold everywhere, so the conservative test must reject it.
        let mut faint = GaussianCloud::new();
        faint.push(Gaussian::isotropic(Vec3::new(0.0, 0.0, 2.0), 3.0, Vec3::ONE, 0.003));
        let out = render(&faint, &camera(), &Se3::IDENTITY, &RenderOptions::default());
        assert_eq!(out.stats.interior_pairs, 0);
        // Skipped splats are excluded from the count even when they would
        // qualify geometrically.
        let mut opaque = GaussianCloud::new();
        opaque.push(Gaussian::isotropic(Vec3::new(0.0, 0.0, 2.0), 3.0, Vec3::ONE, 0.9));
        let covered = render(&opaque, &camera(), &Se3::IDENTITY, &RenderOptions::default());
        assert!(covered.stats.interior_pairs > 0);
        let mut skip = IdSet::with_capacity(1);
        skip.insert(0);
        let options = RenderOptions { skip: Some(Arc::new(skip)), ..Default::default() };
        let skipped = render(&opaque, &camera(), &Se3::IDENTITY, &options);
        assert_eq!(skipped.stats.interior_pairs, 0);
    }

    #[test]
    fn contribution_recording_flags_faint_gaussians() {
        let mut cloud = GaussianCloud::new();
        // Strong central Gaussian and an extremely faint one.
        cloud.push(Gaussian::isotropic(Vec3::new(0.0, 0.0, 2.0), 0.3, Vec3::ONE, 0.9));
        cloud.push(Gaussian::isotropic(Vec3::new(0.0, 0.0, 3.0), 0.3, Vec3::ONE, 0.002));
        let options = RenderOptions { record_contributions: true, ..Default::default() };
        let out = render(&cloud, &camera(), &Se3::IDENTITY, &options);
        let stats = out.contributions.expect("requested contributions");
        assert!(stats.touched[1] > 0);
        assert_eq!(stats.negligible[1], stats.touched[1], "faint gaussian never contributes");
        // The strong Gaussian contributes on some pixels; the faint one on none,
        // so its negligible count is strictly larger.
        assert!(stats.negligible[0] < stats.touched[0]);
        assert!(stats.negligible[1] > stats.negligible[0]);
        let non_contrib = stats.non_contributory(stats.negligible[0]);
        assert!(non_contrib.contains(1));
        assert!(!non_contrib.contains(0));
    }

    #[test]
    fn tile_work_collection_matches_dimensions() {
        let options = RenderOptions { collect_tile_work: true, ..Default::default() };
        let out = render(&single_gaussian_cloud(0.9), &camera(), &Se3::IDENTITY, &options);
        assert_eq!(out.stats.tile_work.len(), 4, "32x32 with 16px tiles -> 4 tiles");
        let total_evals: u64 = out
            .stats
            .tile_work
            .iter()
            .flat_map(|w| w.per_pixel_evals.iter())
            .map(|&e| e as u64)
            .sum();
        assert_eq!(total_evals, out.stats.alpha_evals);
    }

    #[test]
    fn parallel_rasterize_is_bit_identical_to_serial() {
        use ags_math::Pcg32;
        let mut cloud = GaussianCloud::new();
        let mut rng = Pcg32::seeded(42);
        for _ in 0..300 {
            cloud.push(Gaussian::isotropic(
                Vec3::new(
                    rng.range_f32(-1.0, 1.0),
                    rng.range_f32(-1.0, 1.0),
                    rng.range_f32(0.5, 5.0),
                ),
                rng.range_f32(0.02, 0.3),
                Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32()),
                rng.range_f32(0.1, 0.95),
            ));
        }
        let mut skip = IdSet::with_capacity(cloud.len());
        for id in (0..cloud.len()).step_by(3) {
            skip.insert(id);
        }
        let cam = PinholeCamera::from_fov(64, 48, 1.2);
        let base = RenderOptions {
            skip: Some(Arc::new(skip)),
            record_contributions: true,
            collect_tile_work: true,
            parallelism: Parallelism::serial(),
            backend: BackendKind::default(),
        };
        let serial = render(&cloud, &cam, &Se3::IDENTITY, &base);
        for threads in [2, 4, 7] {
            let options = RenderOptions {
                parallelism: Parallelism::with_threads(threads).min_items(0),
                ..base.clone()
            };
            let parallel = render(&cloud, &cam, &Se3::IDENTITY, &options);
            assert_eq!(serial.color.pixels(), parallel.color.pixels(), "{threads} threads");
            assert_eq!(serial.depth.pixels(), parallel.depth.pixels());
            assert_eq!(serial.silhouette.pixels(), parallel.silhouette.pixels());
            assert_eq!(serial.stats.alpha_evals, parallel.stats.alpha_evals);
            assert_eq!(serial.stats.blend_ops, parallel.stats.blend_ops);
            assert_eq!(serial.stats.skipped_pairs, parallel.stats.skipped_pairs);
            assert_eq!(
                serial.stats.early_terminated_pixels,
                parallel.stats.early_terminated_pixels
            );
            assert_eq!(serial.stats.saturated_rows, parallel.stats.saturated_rows);
            assert_eq!(serial.stats.interior_pairs, parallel.stats.interior_pairs);
            assert_eq!(serial.stats.tile_work.len(), parallel.stats.tile_work.len());
            for (a, b) in serial.stats.tile_work.iter().zip(&parallel.stats.tile_work) {
                assert_eq!(a.tile, b.tile);
                assert_eq!(a.per_pixel_evals, b.per_pixel_evals);
                assert_eq!(a.per_pixel_blends, b.per_pixel_blends);
            }
            let (sc, pc) =
                (serial.contributions.as_ref().unwrap(), parallel.contributions.as_ref().unwrap());
            assert_eq!(sc.touched, pc.touched);
            assert_eq!(sc.negligible, pc.negligible);
        }
    }

    #[test]
    fn alpha_is_clamped_below_one() {
        // opacity 0.999 clamps to 0.99 per splat; transmittance stays positive.
        let out = render(
            &single_gaussian_cloud(0.999),
            &camera(),
            &Se3::IDENTITY,
            &RenderOptions::default(),
        );
        assert!(out.silhouette.at(15, 15) <= 1.0);
        assert!(out.silhouette.at(15, 15) > 0.9);
    }
}
