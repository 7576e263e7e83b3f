//! Backward pass: gradients of the rendering loss.
//!
//! Step ④ of the 3DGS pipeline. Implements exact reverse-mode gradients of
//! the blended color/depth w.r.t. every Gaussian parameter (position,
//! log-scale, rotation quaternion, color, opacity logit) and w.r.t. the
//! camera pose (a 6-DoF twist on the world-to-camera transform) for tracking.
//!
//! The chain follows the original 3DGS formulation:
//!
//! ```text
//! L → C, D                    per-pixel loss gradients (from `loss`)
//!   → αᵢ, cᵢ, zᵢ              reverse alpha-blending with suffix sums
//!   → q (Mahalanobis), o      α = o · exp(-½q)
//!   → mean2d, conic           q = dᵀ K d
//!   → Σ2d → Σ3d → (R, S)      EWA projection and M = R·S
//!   → position / pose twist   projection Jacobian
//! ```
//!
//! The per-pixel reverse traversal (`reverse_blend_pixel`) consumes the
//! pixel's `Contribution`s in forward blend order. The reference backend
//! obtains them by replaying the forward traversal pixel by pixel
//! (`backward_tile_chunk`); a backend that tapes hands over the
//! [`BlendTape`] its forward pass recorded and only the reverse stage runs
//! (`reverse_tile`, see [`crate::backend`]). Either way tiles are cut into
//! fixed chunks merged in chunk order, so gradients are bit-identical across
//! backends, thread counts and taped/stand-alone calls.
//!
//! All covariance dependencies are differentiated, including the projection
//! Jacobian's dependence on the camera-space mean (∂J/∂p_cam) and, for pose
//! tracking, the EWA `W` factor's dependence on the camera rotation.
//! Finite-difference tests validate every path (unit tests check each path tightly on controlled
//! fixtures; the integration test bounds error on dense random scenes, where
//! the piecewise-smooth rasterizer makes finite differences noisier).

use crate::backend::BackendKind;
use crate::gaussian::GaussianCloud;
use crate::loss::LossResult;
use crate::project::{falloff, projection_jacobian, Projection};
use crate::tiles::GaussianTables;
use crate::{ALPHA_THRESHOLD, TRANSMITTANCE_MIN};
use ags_math::parallel::{par_map, Parallelism};
use ags_math::{Mat2, Mat3, Quat, Se3, Vec2, Vec3};
use ags_scene::PinholeCamera;
use std::sync::Mutex;

/// Per-parameter gradient buffers, indexed by Gaussian id.
#[derive(Debug, Clone)]
pub struct GradBuffers {
    /// ∂L/∂position.
    pub position: Vec<Vec3>,
    /// ∂L/∂log_scale.
    pub log_scale: Vec<Vec3>,
    /// ∂L/∂rotation (w, x, y, z).
    pub rotation: Vec<[f32; 4]>,
    /// ∂L/∂color.
    pub color: Vec<Vec3>,
    /// ∂L/∂opacity_logit.
    pub opacity_logit: Vec<f32>,
    /// Whether a Gaussian received any gradient this pass.
    pub touched: Vec<bool>,
}

impl GradBuffers {
    /// Zero-initialised buffers for `n` Gaussians.
    pub fn zeros(n: usize) -> Self {
        Self {
            position: vec![Vec3::ZERO; n],
            log_scale: vec![Vec3::ZERO; n],
            rotation: vec![[0.0; 4]; n],
            color: vec![Vec3::ZERO; n],
            opacity_logit: vec![0.0; n],
            touched: vec![false; n],
        }
    }

    /// Number of Gaussians that received gradients.
    pub fn touched_count(&self) -> usize {
        self.touched.iter().filter(|&&t| t).count()
    }
}

/// Gradient of the loss w.r.t. a left-multiplied twist on the world-to-camera
/// transform (`[v, ω]`, translation first) — the tracking signal.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PoseGrad {
    /// The 6-vector `∂L/∂ξ`.
    pub twist: [f32; 6],
}

/// What the backward pass should differentiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GradMode {
    /// Gradients w.r.t. Gaussian parameters (mapping).
    Map,
    /// Gradients w.r.t. the camera pose only (tracking; Gaussians frozen).
    Track,
    /// Both.
    Both,
}

/// Backward-pass statistics (cost-model inputs).
#[derive(Debug, Clone, Copy, Default)]
pub struct BackwardStats {
    /// Gradient-accumulation operations (per Gaussian per pixel).
    pub grad_ops: u64,
    /// Pixels processed.
    pub pixels: u64,
}

/// Output of [`backward`].
#[derive(Debug)]
pub struct BackwardOutput {
    /// Parameter gradients (present unless mode is `Track`).
    pub grads: Option<GradBuffers>,
    /// Pose gradient (present unless mode is `Map`).
    pub pose: Option<PoseGrad>,
    /// Workload statistics.
    pub stats: BackwardStats,
}

/// Scratch entry for one pixel's forward replay.
#[derive(Clone, Copy)]
pub(crate) struct Contribution {
    pub(crate) splat_index: u32,
    pub(crate) alpha: f32,
    pub(crate) weight: f32, // falloff g
    pub(crate) t_before: f32,
    pub(crate) clamped: bool,
}

/// One blend the forward walk performed, as taped: 8 bytes. α, the clamp
/// flag and `T` are recomputed from these and the splat's opacity in blend
/// order — the same f32 operations on the same operands, so bit-exactly —
/// when the reverse stage expands a pixel into [`Contribution`]s.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TapeEntry {
    pub(crate) splat_index: u32,
    pub(crate) weight: f32, // falloff g
}

/// One tile's blend tape: every pixel's blends in forward order, pixels
/// row-major within the tile.
#[derive(Debug, Default)]
pub struct TileTape {
    entries: Vec<TapeEntry>,
    /// End offset into `entries` per pixel (a pixel starts where the previous
    /// one ends).
    ends: Vec<u32>,
}

impl TileTape {
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.ends.clear();
    }

    /// Appends the next pixel's blends (forward order).
    pub(crate) fn push_pixel(&mut self, blends: &[TapeEntry]) {
        self.entries.extend_from_slice(blends);
        self.ends.push(self.entries.len() as u32);
    }

    fn pixel(&self, p: usize) -> &[TapeEntry] {
        let start = if p == 0 { 0 } else { self.ends[p - 1] as usize };
        &self.entries[start..self.ends[p] as usize]
    }
}

/// A frame's blend tape, one [`TileTape`] per tile: recorded by a taped
/// forward pass ([`crate::render::rasterize_taped`]), consumed by
/// [`backward_taped`]. The per-tile locks are uncontended — each tile is
/// written by the one worker that rasterizes it.
#[derive(Debug, Default)]
pub struct BlendTape {
    pub(crate) tiles: Vec<Mutex<TileTape>>,
}

impl BlendTape {
    /// Sizes the tape for `num_tiles` tiles, keeping every buffer's capacity.
    /// Tile kernels clear their own tile before recording.
    pub(crate) fn reset(&mut self, num_tiles: usize) {
        self.tiles.resize_with(num_tiles, Mutex::default);
    }

    /// Blend operations currently recorded (8 bytes each).
    pub fn blend_ops(&self) -> usize {
        self.tiles
            .iter()
            .map(|t| t.lock().expect("a worker panicked while taping").entries.len())
            .sum()
    }
}

/// Tiles per fork-join work chunk. The partition is a **fixed** function of
/// the tile count — never of the thread budget — so every `Parallelism`
/// (including serial) walks identical chunks and merges them in identical
/// order, keeping gradients bit-identical across thread counts.
const TILES_PER_CHUNK: usize = 4;

/// Screen-space gradient of one splat accumulated within one tile chunk.
#[derive(Clone, Copy)]
pub(crate) struct ScreenGrad {
    d_mean: Vec2,
    d_conic: [f32; 3],
    d_z: f32,
    d_color: Vec3,
    d_opacity: f32,
}

impl ScreenGrad {
    const ZERO: Self = Self {
        d_mean: Vec2::ZERO,
        d_conic: [0.0; 3],
        d_z: 0.0,
        d_color: Vec3::ZERO,
        d_opacity: 0.0,
    };
}

/// Per-chunk sparse gradient buffer: splats in first-touch order plus their
/// accumulated screen-space gradients. Returned by
/// [`crate::backend::RenderBackend::backward_chunk`].
#[derive(Default)]
pub struct ChunkGrads {
    pub(crate) splats: Vec<u32>,
    pub(crate) grads: Vec<ScreenGrad>,
    pub(crate) stats: BackwardStats,
}

/// Looks up (or allocates) the chunk-local slot of splat `si`.
#[inline]
fn chunk_slot(
    si: u32,
    slot_of: &mut [u32],
    splats: &mut Vec<u32>,
    grads: &mut Vec<ScreenGrad>,
) -> usize {
    let s = slot_of[si as usize];
    if s != u32::MAX {
        return s as usize;
    }
    let new = splats.len() as u32;
    slot_of[si as usize] = new;
    splats.push(si);
    grads.push(ScreenGrad::ZERO);
    new as usize
}

std::thread_local! {
    /// Per-worker splat→slot lookup table, reused across chunks (and across
    /// backward passes on long-lived threads). Invariant outside an active
    /// chunk: every entry is `u32::MAX` — each chunk resets exactly the
    /// entries it touched, so reuse costs O(touched) instead of an
    /// O(n_splats) allocation + fill per 4-tile chunk.
    static SLOT_SCRATCH: std::cell::RefCell<Vec<u32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Runs a chunk body against the thread-local splat→slot scratch table,
/// restoring the all-`u32::MAX` invariant afterwards. Shared by every
/// backend's [`crate::backend::RenderBackend::backward_chunk`].
pub(crate) fn chunk_with_scratch<F>(n_splats: usize, body: F) -> ChunkGrads
where
    F: FnOnce(&mut [u32]) -> ChunkGrads,
{
    SLOT_SCRATCH.with(|cell| {
        let mut slot_of = cell.borrow_mut();
        if slot_of.len() < n_splats {
            slot_of.resize(n_splats, u32::MAX);
        }
        let out = body(&mut slot_of);
        // Restore the all-MAX invariant, touching only what this chunk used.
        for &si in &out.splats {
            slot_of[si as usize] = u32::MAX;
        }
        out
    })
}

/// Accumulates the screen-space gradients of one chunk of tiles.
pub(crate) fn backward_tile_chunk(
    projection: &Projection,
    tables: &GaussianTables,
    camera: &PinholeCamera,
    loss: &LossResult,
    skip: Option<&crate::idset::IdSet>,
    tile_range: std::ops::Range<usize>,
) -> ChunkGrads {
    chunk_with_scratch(projection.splats.len(), |slot_of| {
        backward_tile_chunk_with(projection, tables, camera, loss, skip, tile_range, slot_of)
    })
}

/// [`backward_tile_chunk`] body operating on a caller-provided slot table
/// whose entries are all `u32::MAX` on entry.
#[allow(clippy::too_many_arguments)]
fn backward_tile_chunk_with(
    projection: &Projection,
    tables: &GaussianTables,
    camera: &PinholeCamera,
    loss: &LossResult,
    skip: Option<&crate::idset::IdSet>,
    tile_range: std::ops::Range<usize>,
    slot_of: &mut [u32],
) -> ChunkGrads {
    let mut splats: Vec<u32> = Vec::new();
    let mut grads: Vec<ScreenGrad> = Vec::new();
    let mut stats = BackwardStats::default();
    let width = camera.width;
    let mut scratch: Vec<Contribution> = Vec::with_capacity(64);

    for tile_idx in tile_range {
        // The oracle replays the order blending must follow from entry 0.
        let table = tables.canonical(tile_idx);
        if table.is_empty() {
            continue;
        }
        let (x0, y0, x1, y1) = tables.grid.tile_bounds(tile_idx);
        for py in y0..y1 {
            for px in x0..x1 {
                let pi = py * width + px;
                let dl_dc = loss.d_color[pi];
                let dl_dd = loss.d_depth[pi];
                if dl_dc == Vec3::ZERO && dl_dd == 0.0 {
                    continue;
                }
                stats.pixels += 1;
                let pixel = Vec2::new(px as f32, py as f32);

                // Replay the forward traversal, recording contributions.
                scratch.clear();
                let mut t = 1.0f32;
                for entry in table {
                    let splat = &projection.splats[entry.splat_index as usize];
                    if let Some(skip) = skip {
                        if skip.contains(splat.id as usize) {
                            continue;
                        }
                    }
                    let g = falloff(splat.conic, pixel - splat.mean);
                    let raw_alpha = splat.opacity * g;
                    let alpha = raw_alpha.min(0.99);
                    if alpha < ALPHA_THRESHOLD {
                        continue;
                    }
                    scratch.push(Contribution {
                        splat_index: entry.splat_index,
                        alpha,
                        weight: g,
                        t_before: t,
                        clamped: raw_alpha > 0.99,
                    });
                    t *= 1.0 - alpha;
                    if t < TRANSMITTANCE_MIN {
                        break;
                    }
                }

                reverse_blend_pixel(
                    projection,
                    pixel,
                    dl_dc,
                    dl_dd,
                    &scratch,
                    slot_of,
                    &mut splats,
                    &mut grads,
                    &mut stats,
                );
            }
        }
    }
    ChunkGrads { splats, grads, stats }
}

/// Reverse traversal of one pixel's recorded contributions with suffix
/// accumulators — the single source of truth for the gradient-accumulation
/// arithmetic. Both backends call it with contributions recorded in forward
/// blend order, so the accumulation (and the chunk's first-touch slot order)
/// is bit-identical between them.
#[allow(clippy::too_many_arguments)]
pub(crate) fn reverse_blend_pixel(
    projection: &Projection,
    pixel: Vec2,
    dl_dc: Vec3,
    dl_dd: f32,
    scratch: &[Contribution],
    slot_of: &mut [u32],
    splats: &mut Vec<u32>,
    grads: &mut Vec<ScreenGrad>,
    stats: &mut BackwardStats,
) {
    let mut accum_c = Vec3::ZERO;
    let mut accum_z = 0.0f32;
    for contrib in scratch.iter().rev() {
        let si = contrib.splat_index as usize;
        let splat = &projection.splats[si];
        let w = contrib.t_before * contrib.alpha;
        let one_minus = (1.0 - contrib.alpha).max(1e-6);
        let slot = chunk_slot(contrib.splat_index, slot_of, splats, grads);
        let acc = &mut grads[slot];

        // Color gradient.
        acc.d_color += dl_dc * w;

        // Alpha gradient through color and depth channels.
        let dc_dalpha = splat.color * contrib.t_before - accum_c / one_minus;
        let dd_dalpha = splat.depth * contrib.t_before - accum_z / one_minus;
        let dl_dalpha = dl_dc.dot(dc_dalpha) + dl_dd * dd_dalpha;

        // Depth gradient (z enters blending linearly).
        acc.d_z += dl_dd * w;

        if !contrib.clamped {
            // α = o·g: ∂α/∂o = g ; ∂α/∂q = -½α.
            acc.d_opacity += dl_dalpha * contrib.weight;
            let dl_dq = dl_dalpha * (-0.5 * contrib.alpha);

            // q = dᵀ K d.
            let d = pixel - splat.mean;
            let (ka, kb, kc) = splat.conic;
            let kd = Vec2::new(ka * d.x + kb * d.y, kb * d.x + kc * d.y);
            // ∂q/∂mean = -2 K d.
            acc.d_mean += kd * (-2.0 * dl_dq);
            // ∂q/∂K = d dᵀ (symmetric; off-diagonal doubled).
            acc.d_conic[0] += dl_dq * d.x * d.x;
            acc.d_conic[1] += dl_dq * 2.0 * d.x * d.y;
            acc.d_conic[2] += dl_dq * d.y * d.y;
        }

        accum_c += splat.color * w;
        accum_z += splat.depth * w;
        stats.grad_ops += 1;
    }
}

/// Reverse stage of one taped tile: every pixel with a loss gradient expands
/// its taped blends into [`Contribution`]s — the reference replay's loop with
/// the falloff evaluation and threshold tests already done — and runs them
/// through [`reverse_blend_pixel`], in the replay's pixel order (row-major),
/// so first-touch slot order and every f32 accumulation match the scalar
/// chunk kernel bit for bit. Pixels with zero loss gradient are skipped
/// exactly as the replay skips them.
pub(crate) fn reverse_tile(
    projection: &Projection,
    loss: &LossResult,
    width: usize,
    (x0, y0, x1, y1): (usize, usize, usize, usize),
    tape: &TileTape,
    slot_of: &mut [u32],
    out: &mut ChunkGrads,
) {
    debug_assert_eq!(tape.ends.len(), (x1 - x0) * (y1 - y0), "tape does not match the tile");
    let mut scratch: Vec<Contribution> = Vec::with_capacity(64);
    for py in y0..y1 {
        for px in x0..x1 {
            let pi = py * width + px;
            let dl_dc = loss.d_color[pi];
            let dl_dd = loss.d_depth[pi];
            if dl_dc == Vec3::ZERO && dl_dd == 0.0 {
                continue;
            }
            out.stats.pixels += 1;

            scratch.clear();
            let mut t = 1.0f32;
            for blend in tape.pixel((py - y0) * (x1 - x0) + (px - x0)) {
                let raw_alpha =
                    projection.splats[blend.splat_index as usize].opacity * blend.weight;
                let alpha = raw_alpha.min(0.99);
                scratch.push(Contribution {
                    splat_index: blend.splat_index,
                    alpha,
                    weight: blend.weight,
                    t_before: t,
                    clamped: raw_alpha > 0.99,
                });
                t *= 1.0 - alpha;
            }

            reverse_blend_pixel(
                projection,
                Vec2::new(px as f32, py as f32),
                dl_dc,
                dl_dd,
                &scratch,
                slot_of,
                &mut out.splats,
                &mut out.grads,
                &mut out.stats,
            );
        }
    }
}

/// Runs the backward pass over pre-projected splats.
///
/// `projection` and `tables` must come from the same cloud/camera/pose as the
/// forward pass that produced `loss` (the renderer's
/// [`crate::render::rasterize`] makes this easy to guarantee).
///
/// Tiles ride the same fork-join `par` knob as the forward rasterizer: the
/// tile list is cut into fixed-size chunks, each chunk accumulates private
/// per-splat gradient buffers, and the chunks are merged back in chunk order
/// — so the result is bit-identical for every thread count.
#[allow(clippy::too_many_arguments)]
pub fn backward(
    cloud: &GaussianCloud,
    projection: &Projection,
    tables: &GaussianTables,
    camera: &PinholeCamera,
    loss: &LossResult,
    mode: GradMode,
    skip: Option<&crate::idset::IdSet>,
    par: &Parallelism,
) -> BackwardOutput {
    backward_with(BackendKind::default(), cloud, projection, tables, camera, loss, mode, skip, par)
}

/// [`backward`] with an explicit [`BackendKind`] — the vectorized backend's
/// gradient chunks are bit-identical to the reference, so the choice only
/// affects speed.
#[allow(clippy::too_many_arguments)]
pub fn backward_with(
    backend: BackendKind,
    cloud: &GaussianCloud,
    projection: &Projection,
    tables: &GaussianTables,
    camera: &PinholeCamera,
    loss: &LossResult,
    mode: GradMode,
    skip: Option<&crate::idset::IdSet>,
    par: &Parallelism,
) -> BackwardOutput {
    backward_taped(backend, cloud, projection, tables, camera, loss, mode, skip, par, None)
}

/// [`backward_with`] consuming the [`BlendTape`] the forward pass recorded
/// over the same `projection`/`tables`/`skip`, when there is one: a backend
/// that tapes then runs only its reverse stage. Without a tape (or on the
/// reference backend, which never records one) each chunk re-walks its tiles.
#[allow(clippy::too_many_arguments)]
pub(crate) fn backward_taped(
    backend: BackendKind,
    cloud: &GaussianCloud,
    projection: &Projection,
    tables: &GaussianTables,
    camera: &PinholeCamera,
    loss: &LossResult,
    mode: GradMode,
    skip: Option<&crate::idset::IdSet>,
    par: &Parallelism,
    tape: Option<&BlendTape>,
) -> BackwardOutput {
    let n_splats = projection.splats.len();
    // Screen-space gradient accumulators per splat.
    let mut d_mean = vec![Vec2::ZERO; n_splats];
    let mut d_conic = vec![[0.0f32; 3]; n_splats];
    let mut d_z = vec![0.0f32; n_splats];
    let mut d_color = vec![Vec3::ZERO; n_splats];
    let mut d_opacity = vec![0.0f32; n_splats];
    let mut stats = BackwardStats::default();

    let num_tiles = tables.grid.num_tiles();
    let num_chunks = num_tiles.div_ceil(TILES_PER_CHUNK);
    // Small frames carry too little gradient work to amortise thread spawns;
    // auto mode drops to the serial path there (the chunk partition — and
    // thus the numerics — is unchanged either way). Pairs are weighted by
    // the tile's pixel count, as in the forward rasterizer: one pair is up
    // to a full tile of gradient work.
    let pair_work = crate::TILE_SIZE * crate::TILE_SIZE;
    let par = par.for_workload(tables.total_pairs as usize * pair_work, 1024 * pair_work);
    let backend = backend.backend();
    let chunks = par_map(&par, num_chunks, 1, |ci| {
        let start = ci * TILES_PER_CHUNK;
        let end = (start + TILES_PER_CHUNK).min(num_tiles);
        backend.backward_chunk(projection, tables, camera, loss, skip, start..end, tape)
    });
    for chunk in chunks {
        stats.grad_ops += chunk.stats.grad_ops;
        stats.pixels += chunk.stats.pixels;
        for (k, &si) in chunk.splats.iter().enumerate() {
            let g = &chunk.grads[k];
            let si = si as usize;
            d_mean[si] += g.d_mean;
            d_conic[si][0] += g.d_conic[0];
            d_conic[si][1] += g.d_conic[1];
            d_conic[si][2] += g.d_conic[2];
            d_z[si] += g.d_z;
            d_color[si] += g.d_color;
            d_opacity[si] += g.d_opacity;
        }
    }

    // Lift screen-space gradients to parameters / pose.
    let want_params = matches!(mode, GradMode::Map | GradMode::Both);
    let want_pose = matches!(mode, GradMode::Track | GradMode::Both);
    let mut grads = want_params.then(|| GradBuffers::zeros(cloud.len()));
    let mut pose = want_pose.then(PoseGrad::default);

    let rot_wc = projection.world_to_cam.rotation_matrix();
    let rot_cw = rot_wc.transpose();

    for (si, splat) in projection.splats.iter().enumerate() {
        let gid = splat.id as usize;
        let has_any = d_mean[si] != Vec2::ZERO
            || d_color[si] != Vec3::ZERO
            || d_opacity[si] != 0.0
            || d_z[si] != 0.0
            || d_conic[si] != [0.0; 3];
        if !has_any {
            continue;
        }

        let (a_mat, j) = projection_jacobian(camera, splat.p_cam, &rot_wc);
        let gauss = &cloud.gaussians()[gid];

        // ∂L/∂p_cam from the mean path plus the depth channel.
        let dm = d_mean[si];
        let mut dp_cam = Vec3::new(
            j.at(0, 0) * dm.x + j.at(1, 0) * dm.y,
            j.at(0, 1) * dm.x + j.at(1, 1) * dm.y,
            j.at(0, 2) * dm.x + j.at(1, 2) * dm.y + d_z[si],
        );

        // Covariance chain shared by the parameter and position/pose paths.
        let gk = d_conic[si];
        let mut d_sigma3: Option<Mat3> = None;
        if gk != [0.0; 3] {
            let k = Mat2::from_rows(splat.conic.0, splat.conic.1, splat.conic.1, splat.conic.2);
            let gk_m = Mat2::from_rows(gk[0], gk[1] * 0.5, gk[1] * 0.5, gk[2]);
            // ∂L/∂Σ2 = -K G K (K symmetric).
            let neg = k * gk_m * k;
            let d_sigma2_full = Mat3::from_rows(
                -neg.cols[0].x,
                -neg.cols[1].x,
                0.0,
                -neg.cols[0].y,
                -neg.cols[1].y,
                0.0,
                0.0,
                0.0,
                0.0,
            );
            d_sigma3 = Some(a_mat.transpose() * d_sigma2_full * a_mat);

            // Σ2 also depends on p_cam through J: Σ2 = J B Jᵀ with
            // B = W Σ3 Wᵀ. ∂L/∂J = (G + Gᵀ) J B, then chain ∂J/∂p_cam.
            let cov3 = gauss.covariance();
            let b = rot_wc * cov3 * rot_cw;
            let g_sym = d_sigma2_full + d_sigma2_full.transpose();
            let dlj = g_sym * j * b;
            let (x, y, z) = (splat.p_cam.x, splat.p_cam.y, splat.p_cam.z);
            let z2 = z * z;
            let z3 = z2 * z;
            let (fx, fy) = (camera.fx, camera.fy);
            dp_cam.x += dlj.at(0, 2) * (-fx / z2);
            dp_cam.y += dlj.at(1, 2) * (-fy / z2);
            dp_cam.z += dlj.at(0, 0) * (-fx / z2)
                + dlj.at(0, 2) * (2.0 * fx * x / z3)
                + dlj.at(1, 1) * (-fy / z2)
                + dlj.at(1, 2) * (2.0 * fy * y / z3);

            // Rotational pose path through W: a left twist rotates the
            // world-to-camera rotation, W' = R(δω)·W, so
            // ∂L/∂ωₖ = ⟨Jᵀ·(G+Gᵀ)·A·Σ3 , [eₖ]× · W⟩.
            if let Some(p) = pose.as_mut() {
                let dl_dw_mat = j.transpose() * (g_sym * a_mat * cov3);
                for (k, axis) in [Vec3::X, Vec3::Y, Vec3::Z].into_iter().enumerate() {
                    let dw = Mat3::skew(axis) * rot_wc;
                    p.twist[3 + k] += mat3_inner(&dl_dw_mat, &dw);
                }
            }
        }

        if let Some(p) = pose.as_mut() {
            // p_cam' ≈ p_cam + v + ω × p_cam under a left twist update.
            p.twist[0] += dp_cam.x;
            p.twist[1] += dp_cam.y;
            p.twist[2] += dp_cam.z;
            let w_grad = splat.p_cam.cross(dp_cam);
            p.twist[3] += w_grad.x;
            p.twist[4] += w_grad.y;
            p.twist[5] += w_grad.z;
        }

        if let Some(g) = grads.as_mut() {
            g.touched[gid] = true;
            g.color[gid] += d_color[si];
            // Opacity logit: α path uses o directly; o = σ(logit).
            let o = splat.opacity;
            g.opacity_logit[gid] += d_opacity[si] * o * (1.0 - o);
            // Position through the camera rotation (mean + covariance paths).
            g.position[gid] += rot_cw.mul_vec(dp_cam);

            // Covariance chain: Σ3 → (log-scale, quaternion).
            if let Some(d_sigma3) = d_sigma3 {
                // M = R·S ; Σ3 = M Mᵀ ; ∂L/∂M = 2 ∂L/∂Σ3 · M.
                let r = gauss.rotation.to_matrix();
                let s = gauss.scales();
                let m = Mat3::from_cols(r.cols[0] * s.x, r.cols[1] * s.y, r.cols[2] * s.z);
                let d_m = (d_sigma3 + d_sigma3.transpose()) * m;

                // Log-scale gradient: ∂L/∂sₖ = ⟨col_k(R), col_k(∂L/∂M)⟩ · sₖ.
                let dls = Vec3::new(
                    r.cols[0].dot(d_m.cols[0]) * s.x,
                    r.cols[1].dot(d_m.cols[1]) * s.y,
                    r.cols[2].dot(d_m.cols[2]) * s.z,
                );
                g.log_scale[gid] += dls;

                // Rotation gradient: ∂L/∂R = ∂L/∂M · diag(s), then to quat.
                let d_r = Mat3::from_cols(d_m.cols[0] * s.x, d_m.cols[1] * s.y, d_m.cols[2] * s.z);
                let dq = quat_grad(&d_r, gauss.rotation);
                for (acc, dqi) in g.rotation[gid].iter_mut().zip(dq) {
                    *acc += dqi;
                }
            }
        }
    }

    BackwardOutput { grads, pose, stats }
}

/// Frobenius inner product of two 3×3 matrices.
#[inline]
fn mat3_inner(a: &Mat3, b: &Mat3) -> f32 {
    a.cols[0].dot(b.cols[0]) + a.cols[1].dot(b.cols[1]) + a.cols[2].dot(b.cols[2])
}

/// Gradient of a scalar w.r.t. a unit quaternion given `G = ∂L/∂R`.
fn quat_grad(g: &Mat3, q: Quat) -> [f32; 4] {
    let (w, x, y, z) = (q.w, q.x, q.y, q.z);
    let gr = |r: usize, c: usize| g.at(r, c);
    let dw = 2.0
        * (-z * gr(0, 1) + y * gr(0, 2) + z * gr(1, 0) - x * gr(1, 2) - y * gr(2, 0)
            + x * gr(2, 1));
    let dx = 2.0
        * (y * gr(0, 1) + z * gr(0, 2) + y * gr(1, 0) - 2.0 * x * gr(1, 1) - w * gr(1, 2)
            + z * gr(2, 0)
            + w * gr(2, 1)
            - 2.0 * x * gr(2, 2));
    let dy = 2.0
        * (-2.0 * y * gr(0, 0) + x * gr(0, 1) + w * gr(0, 2) + x * gr(1, 0) + z * gr(1, 2)
            - w * gr(2, 0)
            + z * gr(2, 1)
            - 2.0 * y * gr(2, 2));
    let dz = 2.0
        * (-2.0 * z * gr(0, 0) - w * gr(0, 1) + x * gr(0, 2) + w * gr(1, 0) - 2.0 * z * gr(1, 1)
            + y * gr(1, 2)
            + x * gr(2, 0)
            + y * gr(2, 1));
    [dw, dx, dy, dz]
}

/// Applies a twist update to a camera-to-world pose given the gradient on the
/// world-to-camera transform: gradient descent `ξ = -lr · ∂L/∂ξ`, then
/// `T_wc ← exp(ξ) · T_wc`.
pub fn apply_pose_gradient(pose_c2w: &Se3, grad: &PoseGrad, lr: f32) -> Se3 {
    let twist = [
        -lr * grad.twist[0],
        -lr * grad.twist[1],
        -lr * grad.twist[2],
        -lr * grad.twist[3],
        -lr * grad.twist[4],
        -lr * grad.twist[5],
    ];
    let w2c = pose_c2w.inverse();
    let updated = Se3::exp(&twist) * w2c;
    updated.inverse().renormalized()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::Gaussian;
    use crate::loss::{compute_loss, LossConfig, LossKind};
    use crate::project::project_gaussians;
    use crate::render::{rasterize, RenderOptions};
    use ags_image::{DepthImage, RgbImage};
    use ags_math::Pcg32;

    #[test]
    fn parallel_backward_is_bit_identical_to_serial() {
        // Dense random scene with a skip set; both gradient modes; the chunked
        // fork-join path must match the serial path bit-for-bit at every
        // thread count.
        let mut cloud = GaussianCloud::new();
        let mut rng = Pcg32::seeded(77);
        for _ in 0..250 {
            cloud.push(Gaussian::isotropic(
                Vec3::new(
                    rng.range_f32(-0.8, 0.8),
                    rng.range_f32(-0.6, 0.6),
                    rng.range_f32(1.0, 4.0),
                ),
                rng.range_f32(0.03, 0.25),
                Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32()),
                rng.range_f32(0.2, 0.95),
            ));
        }
        let mut skip = crate::idset::IdSet::with_capacity(cloud.len());
        for id in (0..cloud.len()).step_by(5) {
            skip.insert(id);
        }
        let cam = PinholeCamera::from_fov(64, 48, 1.2);
        let projection = project_gaussians(&cloud, &cam, &Se3::IDENTITY);
        let tables = GaussianTables::build(&projection, &cam);
        let out = rasterize(&cloud, &projection, &tables, &cam, &RenderOptions::default());
        let mut gt_rng = Pcg32::seeded(5);
        let gt_rgb = RgbImage::from_vec(
            cam.width,
            cam.height,
            (0..cam.num_pixels()).map(|_| Vec3::splat(gt_rng.next_f32())).collect(),
        );
        let gt_depth = DepthImage::filled(cam.width, cam.height, 2.0);
        let loss = compute_loss(&out, &gt_rgb, &gt_depth, &l2_config());

        let serial = backward(
            &cloud,
            &projection,
            &tables,
            &cam,
            &loss,
            GradMode::Both,
            Some(&skip),
            &Parallelism::serial(),
        );
        let sg = serial.grads.as_ref().unwrap();
        assert!(sg.touched_count() > 0, "fixture must produce gradients");
        for threads in [2, 4, 7] {
            let parallel = backward(
                &cloud,
                &projection,
                &tables,
                &cam,
                &loss,
                GradMode::Both,
                Some(&skip),
                &Parallelism::with_threads(threads).min_items(0),
            );
            let pg = parallel.grads.as_ref().unwrap();
            assert_eq!(sg.position, pg.position, "{threads} threads");
            assert_eq!(sg.log_scale, pg.log_scale);
            assert_eq!(sg.rotation, pg.rotation);
            assert_eq!(sg.color, pg.color);
            assert_eq!(sg.opacity_logit, pg.opacity_logit);
            assert_eq!(sg.touched, pg.touched);
            assert_eq!(serial.pose.unwrap().twist, parallel.pose.unwrap().twist);
            assert_eq!(serial.stats.grad_ops, parallel.stats.grad_ops);
            assert_eq!(serial.stats.pixels, parallel.stats.pixels);
        }
    }

    fn camera() -> PinholeCamera {
        PinholeCamera::from_fov(24, 24, 1.2)
    }

    fn l2_config() -> LossConfig {
        LossConfig {
            kind: LossKind::L2,
            color_weight: 1.0,
            depth_weight: 0.3,
            silhouette_mask: false,
            mask_threshold: 0.0,
        }
    }

    /// Renders + losses a cloud, returning (loss value, backward output).
    fn loss_and_grads(
        cloud: &GaussianCloud,
        pose: &Se3,
        gt_rgb: &RgbImage,
        gt_depth: &DepthImage,
        mode: GradMode,
    ) -> (f32, BackwardOutput) {
        let cam = camera();
        let projection = project_gaussians(cloud, &cam, pose);
        let tables = GaussianTables::build(&projection, &cam);
        let out = rasterize(cloud, &projection, &tables, &cam, &RenderOptions::default());
        let loss = compute_loss(&out, gt_rgb, gt_depth, &l2_config());
        let back =
            backward(cloud, &projection, &tables, &cam, &loss, mode, None, &Parallelism::serial());
        (loss.total, back)
    }

    fn loss_only(
        cloud: &GaussianCloud,
        pose: &Se3,
        gt_rgb: &RgbImage,
        gt_depth: &DepthImage,
    ) -> f64 {
        let cam = camera();
        let projection = project_gaussians(cloud, &cam, pose);
        let tables = GaussianTables::build(&projection, &cam);
        let out = rasterize(cloud, &projection, &tables, &cam, &RenderOptions::default());
        compute_loss(&out, gt_rgb, gt_depth, &l2_config()).total_f64
    }

    fn test_fixture() -> (GaussianCloud, RgbImage, DepthImage) {
        let mut cloud = GaussianCloud::new();
        let mut g =
            Gaussian::isotropic(Vec3::new(0.05, -0.08, 2.0), 0.15, Vec3::new(0.8, 0.4, 0.2), 0.7);
        g.rotation = Quat::from_axis_angle(Vec3::new(0.3, 1.0, 0.2), 0.4);
        g.log_scale = Vec3::new(0.12f32.ln(), 0.2f32.ln(), 0.08f32.ln());
        cloud.push(g);
        cloud.push(Gaussian::isotropic(
            Vec3::new(-0.1, 0.1, 2.6),
            0.2,
            Vec3::new(0.2, 0.6, 0.9),
            0.5,
        ));
        // Non-trivial ground truth so residuals are neither zero nor sign-flipping.
        let mut rng = Pcg32::seeded(42);
        let cam = camera();
        let gt_rgb = RgbImage::from_vec(
            cam.width,
            cam.height,
            (0..cam.num_pixels())
                .map(|_| Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32()) * 0.4)
                .collect(),
        );
        let gt_depth = DepthImage::filled(cam.width, cam.height, 2.2);
        (cloud, gt_rgb, gt_depth)
    }

    /// Central finite difference of the loss w.r.t. one scalar mutation.
    fn fd(
        cloud: &GaussianCloud,
        gt_rgb: &RgbImage,
        gt_depth: &DepthImage,
        mutate: impl Fn(&mut GaussianCloud, f32),
        eps: f32,
    ) -> f32 {
        let mut plus = cloud.clone();
        mutate(&mut plus, eps);
        let mut minus = cloud.clone();
        mutate(&mut minus, -eps);
        ((loss_only(&plus, &Se3::IDENTITY, gt_rgb, gt_depth)
            - loss_only(&minus, &Se3::IDENTITY, gt_rgb, gt_depth))
            / (2.0 * eps as f64)) as f32
    }

    fn check_close(analytic: f32, numeric: f32, label: &str) {
        let scale = analytic.abs().max(numeric.abs()).max(1e-6);
        assert!(
            (analytic - numeric).abs() / scale < 0.08,
            "{label}: analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn color_gradient_matches_finite_difference() {
        let (cloud, gt_rgb, gt_depth) = test_fixture();
        let (_, back) = loss_and_grads(&cloud, &Se3::IDENTITY, &gt_rgb, &gt_depth, GradMode::Map);
        let grads = back.grads.unwrap();
        for ch in 0..3 {
            let numeric = fd(
                &cloud,
                &gt_rgb,
                &gt_depth,
                |c, e| {
                    let g = &mut c.gaussians_mut()[0];
                    match ch {
                        0 => g.color.x += e,
                        1 => g.color.y += e,
                        _ => g.color.z += e,
                    }
                },
                1e-3,
            );
            let analytic = [grads.color[0].x, grads.color[0].y, grads.color[0].z][ch];
            check_close(analytic, numeric, &format!("color[{ch}]"));
        }
    }

    #[test]
    fn opacity_gradient_matches_finite_difference() {
        let (cloud, gt_rgb, gt_depth) = test_fixture();
        let (_, back) = loss_and_grads(&cloud, &Se3::IDENTITY, &gt_rgb, &gt_depth, GradMode::Map);
        let grads = back.grads.unwrap();
        let numeric = fd(
            &cloud,
            &gt_rgb,
            &gt_depth,
            |c, e| {
                c.gaussians_mut()[0].opacity_logit += e;
            },
            1e-3,
        );
        check_close(grads.opacity_logit[0], numeric, "opacity_logit");
    }

    #[test]
    fn position_gradient_matches_finite_difference() {
        let (cloud, gt_rgb, gt_depth) = test_fixture();
        let (_, back) = loss_and_grads(&cloud, &Se3::IDENTITY, &gt_rgb, &gt_depth, GradMode::Map);
        let grads = back.grads.unwrap();
        for axis in 0..3 {
            let numeric = fd(
                &cloud,
                &gt_rgb,
                &gt_depth,
                |c, e| {
                    c.gaussians_mut()[0].position[axis] += e;
                },
                2e-4,
            );
            check_close(grads.position[0][axis], numeric, &format!("position[{axis}]"));
        }
    }

    #[test]
    fn log_scale_gradient_matches_finite_difference() {
        let (cloud, gt_rgb, gt_depth) = test_fixture();
        let (_, back) = loss_and_grads(&cloud, &Se3::IDENTITY, &gt_rgb, &gt_depth, GradMode::Map);
        let grads = back.grads.unwrap();
        for axis in 0..3 {
            let numeric = fd(
                &cloud,
                &gt_rgb,
                &gt_depth,
                |c, e| {
                    c.gaussians_mut()[0].log_scale[axis] += e;
                },
                1e-3,
            );
            check_close(grads.log_scale[0][axis], numeric, &format!("log_scale[{axis}]"));
        }
    }

    #[test]
    fn rotation_gradient_matches_finite_difference() {
        let (cloud, gt_rgb, gt_depth) = test_fixture();
        let (_, back) = loss_and_grads(&cloud, &Se3::IDENTITY, &gt_rgb, &gt_depth, GradMode::Map);
        let grads = back.grads.unwrap();
        // Perturb raw quaternion components (renormalised inside covariance()
        // via to_matrix(), matching the optimizer's update-then-normalize).
        let comps: [fn(&mut Quat, f32); 4] =
            [|q, e| q.w += e, |q, e| q.x += e, |q, e| q.y += e, |q, e| q.z += e];
        // Use a directional check: the analytic gradient must predict the FD
        // directional derivative along a random direction of quat space.
        let dir = [0.4f32, -0.7, 0.2, 0.5];
        let numeric = fd(
            &cloud,
            &gt_rgb,
            &gt_depth,
            |c, e| {
                let q = &mut c.gaussians_mut()[0].rotation;
                for (f, d) in comps.iter().zip(dir) {
                    f(q, e * d);
                }
            },
            1e-3,
        );
        let analytic: f32 = grads.rotation[0].iter().zip(dir).map(|(g, d)| g * d).sum();
        check_close(analytic, numeric, "rotation directional");
    }

    #[test]
    fn pose_gradient_matches_finite_difference() {
        let (cloud, gt_rgb, gt_depth) = test_fixture();
        let (_, back) = loss_and_grads(&cloud, &Se3::IDENTITY, &gt_rgb, &gt_depth, GradMode::Track);
        let pose_grad = back.pose.unwrap();
        let mut numeric = [0.0f32; 6];
        for (k, slot) in numeric.iter_mut().enumerate() {
            let eps = 2e-4;
            let mut twist_p = [0.0f32; 6];
            twist_p[k] = eps;
            let mut twist_m = [0.0f32; 6];
            twist_m[k] = -eps;
            // Perturb the world-to-camera transform by the twist.
            let pose_p = (Se3::exp(&twist_p) * Se3::IDENTITY.inverse()).inverse();
            let pose_m = (Se3::exp(&twist_m) * Se3::IDENTITY.inverse()).inverse();
            *slot = ((loss_only(&cloud, &pose_p, &gt_rgb, &gt_depth)
                - loss_only(&cloud, &pose_m, &gt_rgb, &gt_depth))
                / (2.0 * eps as f64)) as f32;
        }
        // Norm-wise comparison: tiny components are FD-noise-limited, so the
        // error is bounded relative to the gradient magnitude.
        let norm: f32 = numeric.iter().map(|v| v * v).sum::<f32>().sqrt();
        for (k, &num) in numeric.iter().enumerate() {
            let err = (pose_grad.twist[k] - num).abs();
            assert!(
                err < 0.05 * norm.max(1e-6),
                "twist[{k}]: analytic {} vs numeric {} (norm {norm})",
                pose_grad.twist[k],
                numeric[k]
            );
        }
    }

    #[test]
    fn track_mode_has_no_param_grads() {
        let (cloud, gt_rgb, gt_depth) = test_fixture();
        let (_, back) = loss_and_grads(&cloud, &Se3::IDENTITY, &gt_rgb, &gt_depth, GradMode::Track);
        assert!(back.grads.is_none());
        assert!(back.pose.is_some());
        let (_, back) = loss_and_grads(&cloud, &Se3::IDENTITY, &gt_rgb, &gt_depth, GradMode::Both);
        assert!(back.grads.is_some() && back.pose.is_some());
    }

    #[test]
    fn pose_optimization_reduces_loss() {
        let (cloud, _, _) = test_fixture();
        let cam = camera();
        // Ground truth rendered at identity; start from a perturbed pose.
        let gt = crate::render::render(&cloud, &cam, &Se3::IDENTITY, &RenderOptions::default());
        let mut pose =
            Se3::new(Quat::from_axis_angle(Vec3::Y, 0.02), Vec3::new(0.02, -0.015, 0.01));
        let initial = loss_only(&cloud, &pose, &gt.color, &gt.depth);
        let mut adam = crate::optim::PoseAdam::with_rates(2e-3, 2e-3);
        for _ in 0..60 {
            let (_, back) = loss_and_grads(&cloud, &pose, &gt.color, &gt.depth, GradMode::Track);
            if let Some(pg) = back.pose {
                pose = adam.step(&pose, &pg);
            }
        }
        let final_loss = loss_only(&cloud, &pose, &gt.color, &gt.depth);
        assert!(
            final_loss < initial * 0.6,
            "pose optimization should reduce loss: {initial} -> {final_loss}"
        );
        // The recovered pose should be close to identity.
        assert!(pose.translation.norm() < 0.02);
    }

    #[test]
    fn apply_pose_gradient_descends_one_step() {
        let (cloud, _, _) = test_fixture();
        let cam = camera();
        let gt = crate::render::render(&cloud, &cam, &Se3::IDENTITY, &RenderOptions::default());
        let pose = Se3::from_translation(Vec3::new(0.02, 0.0, 0.0));
        let initial = loss_only(&cloud, &pose, &gt.color, &gt.depth);
        let (_, back) = loss_and_grads(&cloud, &pose, &gt.color, &gt.depth, GradMode::Track);
        let stepped = apply_pose_gradient(&pose, &back.pose.unwrap(), 0.5);
        let after = loss_only(&cloud, &stepped, &gt.color, &gt.depth);
        assert!(after < initial, "single small GD step must descend: {initial} -> {after}");
    }

    #[test]
    fn untouched_gaussians_have_zero_grads() {
        let (cloud, gt_rgb, gt_depth) = test_fixture();
        let mut far_cloud = cloud.clone();
        // A Gaussian far outside the frustum.
        far_cloud.push(Gaussian::isotropic(Vec3::new(50.0, 0.0, 2.0), 0.1, Vec3::ONE, 0.5));
        let (_, back) =
            loss_and_grads(&far_cloud, &Se3::IDENTITY, &gt_rgb, &gt_depth, GradMode::Map);
        let grads = back.grads.unwrap();
        assert!(!grads.touched[2]);
        assert_eq!(grads.position[2], Vec3::ZERO);
        assert_eq!(grads.touched_count(), 2);
    }
}
