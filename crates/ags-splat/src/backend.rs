//! Pluggable render backends behind one trait.
//!
//! The splat pipeline's four kernels — projection (①), tile binning (②),
//! forward rasterization (③) and the backward pass (④) — sit behind
//! [`RenderBackend`] so alternative implementations can slot in per stream.
//! Two CPU backends ship today:
//!
//! * [`ReferenceBackend`] — the scalar row kernels in [`crate::render`] /
//!   [`crate::backward`], the bit-exactness anchor every other backend is
//!   measured against. Its backward pass *replays* the forward traversal per
//!   pixel; that scalar replay is the oracle the tape below is tested
//!   against.
//! * [`VectorizedBackend`] — one tile kernel that repacks the tile's
//!   Gaussian table into structure-of-arrays slabs, evaluates the Mahalanobis
//!   quadratic four pixels wide with `std::arch` SSE2/NEON kernels (portable
//!   chunked fallback elsewhere), and skips the `exp` for provably negligible
//!   pixels (α-cut). **Bit-identical to the reference**: per-lane SIMD
//!   mul/add/sub are IEEE-exact, the quadratic replicates the scalar
//!   operation order term for term, and blending keeps the scalar branch
//!   structure — so outputs, gradients and every workload counter match the
//!   reference bit for bit (enforced by the tests in this module; the
//!   determinism suites run on it, since it is the default).
//!
//! # One blend walk per training iteration
//!
//! The vectorized backend never replays. When a render is going to be
//! differentiated ([`crate::train::train_pass`]), the tile kernel also
//! *tapes* each blend it performs — the splat index and the falloff `g`
//! already in registers — per pixel lane while a row runs, flushed in pixel
//! order when the row ends. The backward pass then runs only its reverse
//! stage (`backward::reverse_tile`) over the tape: per pixel it rebuilds α,
//! the clamp flag and `T` from `g` and the splat's opacity with the forward
//! pass's own f32 operations, in blend order, and accumulates in the
//! reference's chunk, pixel and blend order, so every per-splat f32 sum —
//! hence every gradient — is unchanged. A stand-alone
//! [`crate::backward::backward_with`] has no tape to consume, so each chunk
//! first records its tiles' tapes with the same kernel: there is one blend
//! walk in this backend, not a forward one and a replay.
//!
//! The slab is **depth-lazy**: entries are repacked and classified
//! (`qcut`, tile-interior test) in blocks of `SLAB_BLOCK` as the row walk
//! first reaches them. On an opaque map rows saturate a few hundred entries
//! into tables that are thousands deep (the benchmark's `steady_map` bins
//! ≈ 2 070 entries per tile and walks ≈ 240), and the entries behind that
//! are never touched ([`crate::render::RenderStats::walked_pairs`] against
//! `pairs`).
//!
//! # Which table a tile walks
//!
//! Blending follows [`GaussianTables::canonical`] — the historical per-tile
//! sort's order, ties included (the contract in [`crate::tiles`]). The
//! reference kernels are the oracle and take that table up front. The
//! vectorized kernel walks the sort-once table and fills its slab no further
//! than the tile's first depth tie; the first row that needs the tied entry
//! switches the tile to the canonical table (built then, once). On an opaque
//! map rows saturate first and no tile sorts anything
//! ([`crate::render::RenderStats::canonical_tiles`]).
//!
//! **Row cull:** a splat whose α-cut ellipse `q ≤ qcut` ends above or below a
//! pixel row is negligible on all of it; the slab keeps the ellipse's squared
//! y half-extent (`cut_half_height_sq`) and such a row books its counters
//! without evaluating the quadratic — most (entry, row) pairs of a thin map.
//!
//! Tape memory: 8 bytes per blend operation (`backward::TapeEntry`), so a
//! pass holds `8 × RenderStats::blend_ops` bytes — bounded by pixels ×
//! blends-to-saturation, never by table depth. On the 96×72 kernel-bench
//! frame that is ≈ 300 k blends (43 per pixel on that thin ten-frame map) =
//! 2.3 MiB; on the benchmark's opaque `steady_map` frames (56×42, 23 blends
//! per pixel) 0.4 MiB, 1.6 MiB at its peak. The tape lives in a
//! [`crate::train::TrainScratch`] the caller keeps across iterations and is
//! cleared, not reallocated, each pass; the per-lane row buffers are
//! thread-local like the slab. Renders that are not differentiated
//! (`render`, `rasterize`, densify pre-renders, audits) record nothing.
//!
//! A future `wgpu` backend implements the same trait; the tables produced by
//! [`RenderBackend::build_tables`], blended in their canonical order, are the
//! inter-stage contract it must honour.

use crate::backward::{
    chunk_with_scratch, reverse_tile, BlendTape, ChunkGrads, TapeEntry, TileTape,
};
use crate::gaussian::GaussianCloud;
use crate::idset::IdSet;
use crate::loss::LossResult;
use crate::project::{project_gaussians, Projection};
use crate::render::{rasterize_tile, splat_covers_tile, RenderOptions, TileRaster};
use crate::tiles::{GaussianTables, TableEntry};
use crate::{ALPHA_THRESHOLD, TILE_SIZE, TRANSMITTANCE_MIN};
use ags_math::parallel::Parallelism;
use ags_math::{Se3, Vec3};
use ags_scene::PinholeCamera;

/// Which render backend executes the splat kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Scalar row kernels — the bit-exact reference implementation, kept as
    /// the oracle the tests compare the vectorized kernels against.
    Reference,
    /// SoA + SIMD kernels, bit-identical to the reference (see module docs).
    #[default]
    Vectorized,
}

impl BackendKind {
    /// Stable lower-case name (used in stats and benches).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Reference => "reference",
            BackendKind::Vectorized => "vectorized",
        }
    }

    /// Parses a [`BackendKind::name`] back into the kind.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "reference" => Some(BackendKind::Reference),
            "vectorized" => Some(BackendKind::Vectorized),
            _ => None,
        }
    }

    /// The backend implementation for this kind (static, zero-cost).
    pub fn backend(self) -> &'static dyn RenderBackend {
        match self {
            BackendKind::Reference => &ReferenceBackend,
            BackendKind::Vectorized => &VectorizedBackend,
        }
    }
}

/// One implementation of the four splat kernels.
///
/// Steps ① (projection) and ② (binning) have shared default bodies — their
/// outputs are the inter-stage contract (sorted per-tile tables of
/// [`TableEntry`]), and a backend overriding them must reproduce the same
/// entries in the same canonical order. Steps ③ and ④ are the per-tile hot
/// loops each backend supplies.
pub trait RenderBackend: Send + Sync + std::fmt::Debug {
    /// Which [`BackendKind`] this backend implements.
    fn kind(&self) -> BackendKind;

    /// Stable short name (used in stream stats and bench output).
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Step ①: projects the cloud to screen-space splats.
    fn project(&self, cloud: &GaussianCloud, camera: &PinholeCamera, pose: &Se3) -> Projection {
        project_gaussians(cloud, camera, pose)
    }

    /// Step ②: bins projected splats into depth-sorted per-tile tables.
    fn build_tables(
        &self,
        projection: &Projection,
        camera: &PinholeCamera,
        parallelism: &Parallelism,
    ) -> GaussianTables {
        GaussianTables::build_with(projection, camera, parallelism)
    }

    /// Step ③: rasterizes tile `tile_idx` of `tables` into tile-local
    /// buffers, blending in the order of [`GaussianTables::canonical`] — by
    /// walking it, or by walking the fast table up to the first depth tie and
    /// switching (the order contract in [`crate::tiles`]). `tape` is `Some`
    /// when the render is going to be differentiated: a backend that tapes
    /// records the tile's blends into it, one that replays ignores it.
    fn rasterize_tile(
        &self,
        projection: &Projection,
        tables: &GaussianTables,
        tile_idx: usize,
        options: &RenderOptions,
        tape: Option<&mut TileTape>,
    ) -> TileRaster;

    /// Step ④: accumulates screen-space gradients over a chunk of tiles.
    /// `tape` is what [`rasterize_tile`](Self::rasterize_tile) recorded for
    /// the same projection, tables and skip set, when the caller kept it.
    #[allow(clippy::too_many_arguments)]
    fn backward_chunk(
        &self,
        projection: &Projection,
        tables: &GaussianTables,
        camera: &PinholeCamera,
        loss: &LossResult,
        skip: Option<&IdSet>,
        tile_range: std::ops::Range<usize>,
        tape: Option<&BlendTape>,
    ) -> ChunkGrads;
}

/// The scalar reference backend — today's row kernels, unchanged.
#[derive(Debug)]
pub struct ReferenceBackend;

impl RenderBackend for ReferenceBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Reference
    }

    fn rasterize_tile(
        &self,
        projection: &Projection,
        tables: &GaussianTables,
        tile_idx: usize,
        options: &RenderOptions,
        _tape: Option<&mut TileTape>,
    ) -> TileRaster {
        rasterize_tile(projection, tables, tile_idx, options)
    }

    fn backward_chunk(
        &self,
        projection: &Projection,
        tables: &GaussianTables,
        camera: &PinholeCamera,
        loss: &LossResult,
        skip: Option<&IdSet>,
        tile_range: std::ops::Range<usize>,
        _tape: Option<&BlendTape>,
    ) -> ChunkGrads {
        crate::backward::backward_tile_chunk(projection, tables, camera, loss, skip, tile_range)
    }
}

/// The SoA/SIMD backend (see module docs for the bit-identity argument).
#[derive(Debug)]
pub struct VectorizedBackend;

impl RenderBackend for VectorizedBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Vectorized
    }

    fn rasterize_tile(
        &self,
        projection: &Projection,
        tables: &GaussianTables,
        tile_idx: usize,
        options: &RenderOptions,
        tape: Option<&mut TileTape>,
    ) -> TileRaster {
        rasterize_tile_vec(
            projection,
            tables,
            tile_idx,
            options.skip.as_deref(),
            options.record_contributions,
            options.collect_tile_work,
            tape,
        )
    }

    fn backward_chunk(
        &self,
        projection: &Projection,
        tables: &GaussianTables,
        camera: &PinholeCamera,
        loss: &LossResult,
        skip: Option<&IdSet>,
        tile_range: std::ops::Range<usize>,
        tape: Option<&BlendTape>,
    ) -> ChunkGrads {
        chunk_with_scratch(projection.splats.len(), |slot_of| {
            let mut out = ChunkGrads::default();
            // A stand-alone backward has no forward tape: each tile's is
            // recorded here, by the same kernel, just before its reverse stage.
            let mut standalone = TileTape::default();
            for tile_idx in tile_range {
                if tables.tables()[tile_idx].is_empty() {
                    continue;
                }
                let bounds = tables.grid.tile_bounds(tile_idx);
                let forward =
                    tape.map(|t| t.tiles[tile_idx].lock().expect("a worker panicked while taping"));
                if forward.is_none() {
                    let tape = Some(&mut standalone);
                    rasterize_tile_vec(projection, tables, tile_idx, skip, false, false, tape);
                }
                let tile_tape = forward.as_deref().unwrap_or(&standalone);
                reverse_tile(projection, loss, camera.width, bounds, tile_tape, slot_of, &mut out);
            }
            out
        })
    }
}

// ---------------------------------------------------------------------------
// Row-wide Mahalanobis quadratic kernel.
// ---------------------------------------------------------------------------

/// Per-(entry, row) coefficients of the Mahalanobis quadratic
/// `q(x) = a·dx² + 2b·dx·dy + c·dy²` with `dy` fixed for the row.
///
/// `s2b = 2·b` and `t3 = (c·dy)·dy` are precomputed with exactly the scalar
/// reference's operation order, so the per-lane evaluation
/// `q = ((a·dx)·dx + ((s2b·dx)·dy)) + t3` reproduces
/// [`crate::project::falloff`]'s quadratic bit for bit (f32 `*`/`+`/`-` are
/// IEEE-exact per lane on every SIMD path used here).
#[derive(Clone, Copy)]
struct QuadCoeffs {
    mean_x: f32,
    a: f32,
    s2b: f32,
    dy: f32,
    t3: f32,
}

/// Scalar evaluation of one lane, shared by every tail/fallback path.
#[inline(always)]
fn quad_lane(fx: f32, c: &QuadCoeffs) -> f32 {
    let dx = fx - c.mean_x;
    let t1 = (c.a * dx) * dx;
    let t2 = (c.s2b * dx) * c.dy;
    (t1 + t2) + c.t3
}

/// Evaluates the quadratic for a row of pixel centers `fx` into `out`.
#[inline]
fn quad_row(fx: &[f32], out: &mut [f32], c: &QuadCoeffs) {
    debug_assert!(out.len() >= fx.len());
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    {
        quad_row_sse2(fx, out, c);
    }
    #[cfg(target_arch = "aarch64")]
    {
        quad_row_neon(fx, out, c);
    }
    #[cfg(not(any(
        all(target_arch = "x86_64", target_feature = "sse2"),
        target_arch = "aarch64"
    )))]
    {
        quad_row_portable(fx, out, c);
    }
}

/// Name of the active quadratic row kernel (for bench/diagnostic output).
pub fn quad_kernel_name() -> &'static str {
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    {
        "sse2"
    }
    #[cfg(target_arch = "aarch64")]
    {
        "neon"
    }
    #[cfg(not(any(
        all(target_arch = "x86_64", target_feature = "sse2"),
        target_arch = "aarch64"
    )))]
    {
        "portable"
    }
}

/// SSE2 quadratic row: four lanes of `dx = fx - μx`, `(a·dx)·dx`,
/// `(2b·dx)·dy` and the final adds — each a per-lane IEEE operation, so the
/// result is bit-identical to [`quad_lane`].
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
#[inline]
fn quad_row_sse2(fx: &[f32], out: &mut [f32], c: &QuadCoeffs) {
    use std::arch::x86_64::{
        _mm_add_ps, _mm_loadu_ps, _mm_mul_ps, _mm_set1_ps, _mm_storeu_ps, _mm_sub_ps,
    };
    let n = fx.len();
    let mut i = 0usize;
    // SAFETY: SSE2 is statically enabled (cfg above); each unaligned load and
    // store touches 4 f32s at `i` with `i + 4 <= n`, inside both slices
    // (`out.len() >= fx.len()` is debug-asserted by the dispatcher and
    // guaranteed by the callers' fixed-size row buffers).
    unsafe {
        let va = _mm_set1_ps(c.a);
        let vs2b = _mm_set1_ps(c.s2b);
        let vdy = _mm_set1_ps(c.dy);
        let vt3 = _mm_set1_ps(c.t3);
        let vmx = _mm_set1_ps(c.mean_x);
        while i + 4 <= n {
            let vfx = _mm_loadu_ps(fx.as_ptr().add(i));
            let dx = _mm_sub_ps(vfx, vmx);
            let t1 = _mm_mul_ps(_mm_mul_ps(va, dx), dx);
            let t2 = _mm_mul_ps(_mm_mul_ps(vs2b, dx), vdy);
            let q = _mm_add_ps(_mm_add_ps(t1, t2), vt3);
            _mm_storeu_ps(out.as_mut_ptr().add(i), q);
            i += 4;
        }
    }
    while i < n {
        out[i] = quad_lane(fx[i], c);
        i += 1;
    }
}

/// NEON quadratic row: the same per-lane IEEE operations as the SSE2 kernel
/// (`vmulq_f32`/`vaddq_f32`/`vsubq_f32` do not fuse), four lanes wide.
#[cfg(target_arch = "aarch64")]
#[inline]
fn quad_row_neon(fx: &[f32], out: &mut [f32], c: &QuadCoeffs) {
    use std::arch::aarch64::{vaddq_f32, vdupq_n_f32, vld1q_f32, vmulq_f32, vst1q_f32, vsubq_f32};
    let n = fx.len();
    let mut i = 0usize;
    // SAFETY: NEON is baseline on aarch64; each load/store touches 4 f32s at
    // `i` with `i + 4 <= n`, inside both slices.
    unsafe {
        let va = vdupq_n_f32(c.a);
        let vs2b = vdupq_n_f32(c.s2b);
        let vdy = vdupq_n_f32(c.dy);
        let vt3 = vdupq_n_f32(c.t3);
        let vmx = vdupq_n_f32(c.mean_x);
        while i + 4 <= n {
            let vfx = vld1q_f32(fx.as_ptr().add(i));
            let dx = vsubq_f32(vfx, vmx);
            let t1 = vmulq_f32(vmulq_f32(va, dx), dx);
            let t2 = vmulq_f32(vmulq_f32(vs2b, dx), vdy);
            let q = vaddq_f32(vaddq_f32(t1, t2), vt3);
            vst1q_f32(out.as_mut_ptr().add(i), q);
            i += 4;
        }
    }
    while i < n {
        out[i] = quad_lane(fx[i], c);
        i += 1;
    }
}

/// Width of the portable lane group (one SSE2/NEON register of f32s).
#[allow(dead_code)] // only the fallback target dispatches to it
const QUAD_LANES: usize = 4;

/// Portable quadratic row: fixed-width lane groups plus a scalar tail. The
/// lanes are independent per-element f32 chains, so the branch-free inner
/// loop autovectorises while staying bit-identical to [`quad_lane`].
#[allow(dead_code)]
#[inline]
fn quad_row_portable(fx: &[f32], out: &mut [f32], c: &QuadCoeffs) {
    let n = fx.len();
    let mut i = 0usize;
    while i + QUAD_LANES <= n {
        for l in 0..QUAD_LANES {
            out[i + l] = quad_lane(fx[i + l], c);
        }
        i += QUAD_LANES;
    }
    while i < n {
        out[i] = quad_lane(fx[i], c);
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// α-threshold cut.
// ---------------------------------------------------------------------------

/// Quadratic cut above which a splat's α is provably negligible: any `q`
/// with `q > qcut(opacity)` has `(opacity·exp(-½q)).min(0.99) <
/// ALPHA_THRESHOLD`, so the `exp` — whose value the scalar path computes and
/// then discards on that branch — can be skipped without changing anything
/// observable.
///
/// Derived in f64 with a `+0.5` margin: `q > 2·ln(o/τ) + 0.5` implies
/// `o·exp(-½q) < τ·e^(-0.25) ≈ 0.78·τ`, a 22 % gap that f32 `exp` and
/// multiply rounding (a few ulp) cannot bridge — the classification is
/// value-identical to evaluating α and comparing (tested below).
#[inline]
fn qcut(opacity: f32) -> f32 {
    (2.0 * (opacity as f64 / ALPHA_THRESHOLD as f64).ln() + 0.5) as f32
}

/// Squared y half-extent of the ellipse `q ≤ qcut`: a pixel row with
/// `dy² > hy²` has `q > qcut` on every pixel, so the row kernel books the
/// negligible evaluations without computing a single `q`.
///
/// For fixed `dy` the quadratic's minimum over `dx` is `(ac − b²)/a · dy²`,
/// which exceeds `qcut` exactly when `dy² > qcut·a/(ac − b²)`. Derived in f64
/// under the guards of `render::splat_covers_tile` — `b² < 0.998·ac` keeps
/// every f32 evaluation of `q` within 10⁻³ of its exact value — and inflated by
/// 1 %; a faint splat (`qcut < 0`, negligible wherever `q` is a number) gets
/// extent zero. A conic outside the guards is never cut (`+∞`).
fn cut_half_height_sq((a, b, c): (f32, f32, f32), qcut: f32) -> f32 {
    if !(a > 0.0 && c > 0.0 && b * b < 0.998 * a * c) {
        return f32::INFINITY;
    }
    let (a, b, c) = (a as f64, b as f64, c as f64);
    let hy2 = 1.01 * (qcut.max(0.0) as f64) * a / (a * c - b * b);
    if hy2.is_finite() {
        hy2 as f32
    } else {
        f32::INFINITY
    }
}

// ---------------------------------------------------------------------------
// SoA tile slab.
// ---------------------------------------------------------------------------

/// Entries repacked per [`TileSlab::fill_block`] call.
const SLAB_BLOCK: usize = 64;

/// Structure-of-arrays repack of one tile's Gaussian table: the per-entry
/// fields the row kernel streams, split into contiguous slabs. Filled a
/// block at a time as the row walk first reaches each index, so entries
/// behind the depth every row saturates at are never repacked or classified.
struct TileSlab {
    mean_x: Vec<f32>,
    mean_y: Vec<f32>,
    a: Vec<f32>,
    s2b: Vec<f32>,
    c: Vec<f32>,
    opacity: Vec<f32>,
    qcut: Vec<f32>,
    /// Squared y half-extent of the α-cut ellipse ([`cut_half_height_sq`]).
    hy2: Vec<f32>,
    color: Vec<Vec3>,
    depth: Vec<f32>,
    skipped: Vec<bool>,
    interior: Vec<bool>,
}

impl TileSlab {
    const fn new() -> Self {
        Self {
            mean_x: Vec::new(),
            mean_y: Vec::new(),
            a: Vec::new(),
            s2b: Vec::new(),
            c: Vec::new(),
            opacity: Vec::new(),
            qcut: Vec::new(),
            hy2: Vec::new(),
            color: Vec::new(),
            depth: Vec::new(),
            skipped: Vec::new(),
            interior: Vec::new(),
        }
    }

    fn clear(&mut self) {
        self.mean_x.clear();
        self.mean_y.clear();
        self.a.clear();
        self.s2b.clear();
        self.c.clear();
        self.opacity.clear();
        self.qcut.clear();
        self.hy2.clear();
        self.color.clear();
        self.depth.clear();
        self.skipped.clear();
        self.interior.clear();
    }

    /// Table entries repacked so far.
    fn len(&self) -> usize {
        self.mean_x.len()
    }

    /// Repacks and classifies the next [`SLAB_BLOCK`] entries of `table` (or
    /// as many as it has left).
    fn fill_block(
        &mut self,
        projection: &Projection,
        table: &[TableEntry],
        skip: Option<&IdSet>,
        bounds: (usize, usize, usize, usize),
    ) {
        let start = self.len();
        for entry in &table[start..(start + SLAB_BLOCK).min(table.len())] {
            let splat = &projection.splats[entry.splat_index as usize];
            let skipped = skip.is_some_and(|s| s.contains(splat.id as usize));
            let (ca, cb, cc) = splat.conic;
            self.mean_x.push(splat.mean.x);
            self.mean_y.push(splat.mean.y);
            self.a.push(ca);
            self.s2b.push(2.0 * cb);
            self.c.push(cc);
            let interior = !skipped && splat_covers_tile(splat, bounds);
            let cut = qcut(splat.opacity);
            self.opacity.push(splat.opacity);
            self.qcut.push(cut);
            // Interior entries blend on every pixel: no row of theirs is cut.
            self.hy2.push(if interior {
                f32::INFINITY
            } else {
                cut_half_height_sq(splat.conic, cut)
            });
            self.color.push(splat.color);
            self.depth.push(splat.depth);
            self.skipped.push(skipped);
            self.interior.push(interior);
        }
    }
}

/// Per-worker kernel state: the tile slab and, for taped renders, one
/// contribution buffer per pixel lane of the row being walked.
struct VecScratch {
    slab: TileSlab,
    lanes: [Vec<TapeEntry>; TILE_SIZE],
}

std::thread_local! {
    /// Reused across tiles (and across passes on long-lived threads) so the
    /// SoA repack and the tape's lane buffers cost no allocation on the hot
    /// path.
    static VEC_SCRATCH: std::cell::RefCell<VecScratch> = const {
        std::cell::RefCell::new(VecScratch {
            slab: TileSlab::new(),
            lanes: [const { Vec::new() }; TILE_SIZE],
        })
    };
}

// ---------------------------------------------------------------------------
// Vectorized tile kernel.
// ---------------------------------------------------------------------------

/// One slab entry's walk over a pixel row: the SoA fields plus the row-local
/// accumulators it blends into (the vectorized twin of `render::RowPass`).
struct VecRowPass<'a> {
    splat_index: u32,
    opacity: f32,
    color: Vec3,
    depth: f32,
    qcut: f32,
    /// Precomputed `q` per pixel of the row (from [`quad_row`]).
    qrow: &'a [f32],
    /// `(id, touched, negligible)` counters of this entry, when recording.
    contrib: Option<&'a mut (u32, u32, u32)>,
    /// Per-pixel tape buffers of the row (only pushed to when `TAPED`).
    lanes: &'a mut [Vec<TapeEntry>],
    active: &'a mut Vec<u32>,
    row_t: &'a mut [f32],
    row_c: &'a mut [Vec3],
    row_d: &'a mut [f32],
    row_evals: &'a mut [u32],
    row_blends: &'a mut [u32],
    /// Entries the row cull has skipped so far in this row: α evaluations a
    /// pixel is owed when it leaves the active list.
    culled: u32,
    early_terminated: &'a mut u64,
}

/// Blends one slab entry across a row's active pixels, consuming the
/// vector-evaluated `q` row. Branch structure and blend arithmetic replicate
/// `render::blend_entry_row` exactly; the only deviation is the α-cut
/// (`q > qcut`), which skips an `exp` whose value the scalar path provably
/// discards — so counters and outputs stay bit-identical. `TAPED` also
/// records each blend's [`TapeEntry`] from the values already in registers:
/// what the reference backward's replay re-derives pixel by pixel.
#[inline(always)]
fn blend_entry_row_vec<const INTERIOR: bool, const TAPED: bool>(pass: &mut VecRowPass<'_>) {
    let mut i = 0usize;
    while i < pass.active.len() {
        let px_off = pass.active[i] as usize;
        pass.row_evals[px_off] += 1;
        let q = pass.qrow[px_off];
        if !INTERIOR && (q < 0.0 || q > pass.qcut) {
            // Provably negligible: the scalar path computes α here, records
            // the same counters, and takes its `alpha < ALPHA_THRESHOLD`
            // continue. α's value is never observed, so exp is skipped.
            if let Some(entry_stats) = pass.contrib.as_deref_mut() {
                entry_stats.1 += 1;
                entry_stats.2 += 1;
            }
            i += 1;
            continue;
        }
        let g = if q < 0.0 { 0.0 } else { (-0.5 * q).exp() };
        let alpha = (pass.opacity * g).min(0.99);
        if INTERIOR {
            debug_assert!(alpha >= ALPHA_THRESHOLD, "interior test must be conservative");
        }
        if let Some(entry_stats) = pass.contrib.as_deref_mut() {
            entry_stats.1 += 1;
            if !INTERIOR && alpha < ALPHA_THRESHOLD {
                entry_stats.2 += 1;
            }
        }
        if !INTERIOR && alpha < ALPHA_THRESHOLD {
            i += 1;
            continue;
        }
        pass.row_blends[px_off] += 1;
        let t = pass.row_t[px_off];
        if TAPED {
            pass.lanes[px_off].push(TapeEntry { splat_index: pass.splat_index, weight: g });
        }
        pass.row_c[px_off] += pass.color * (t * alpha);
        pass.row_d[px_off] += pass.depth * (t * alpha);
        let t = t * (1.0 - alpha);
        pass.row_t[px_off] = t;
        if t < TRANSMITTANCE_MIN {
            *pass.early_terminated += 1;
            pass.row_evals[px_off] += pass.culled;
            pass.active.swap_remove(i);
        } else {
            i += 1;
        }
    }
}

/// The vectorized backend's one blend walk: SoA slab (filled only as deep as
/// rows walk) + row-wide quadratic evaluation + α-cut, structured exactly
/// like `render::rasterize_tile` so outputs and every workload counter are
/// bit-identical to it. With a `tape`, each row's blends are recorded per
/// lane while the row runs and flushed in pixel order when it ends.
///
/// The walk starts on the tile's fast table and moves to its canonical table
/// when a row first needs the entry at `unique_len` (the order contract in
/// [`crate::tiles`]): everything before that index is the same entry in both.
fn rasterize_tile_vec(
    projection: &Projection,
    tables: &GaussianTables,
    tile_idx: usize,
    skip: Option<&IdSet>,
    record_contributions: bool,
    collect_tile_work: bool,
    mut tape: Option<&mut TileTape>,
) -> TileRaster {
    let mut table: &[TableEntry] = &tables.tables()[tile_idx];
    // How far into `table` the slab may fill: to the first depth tie until
    // the walk has switched tables, to the end after.
    let mut trusted = tables.unique_len(tile_idx);
    let bounds = tables.grid.tile_bounds(tile_idx);
    let (x0, y0, x1, y1) = bounds;
    let tile_w = x1 - x0;
    let tile_h = y1 - y0;
    let mut out = TileRaster::empty(tile_idx, tile_w, tile_h, collect_tile_work);
    if let Some(tape) = tape.as_deref_mut() {
        tape.clear();
    }
    if table.is_empty() {
        return out;
    }
    out.color = vec![Vec3::ZERO; tile_w * tile_h];
    out.depth = vec![0.0; tile_w * tile_h];
    out.silhouette = vec![0.0; tile_w * tile_h];
    if record_contributions {
        out.contributions =
            table.iter().map(|e| (projection.splats[e.splat_index as usize].id, 0, 0)).collect();
    }

    VEC_SCRATCH.with(|cell| {
        let VecScratch { slab, lanes } = &mut *cell.borrow_mut();
        slab.clear();
        // Deepest table index (+1) any row of this tile walks to.
        let mut walked = 0usize;

        // Pixel-center x coordinates of the row, shared by every entry.
        let mut fx = [0.0f32; TILE_SIZE];
        for (i, f) in fx.iter_mut().enumerate().take(tile_w) {
            *f = (x0 + i) as f32;
        }
        let mut qrow = [0.0f32; TILE_SIZE];

        // Row-local accumulators, reused across rows.
        let mut row_t = vec![1.0f32; tile_w];
        let mut row_c = vec![Vec3::ZERO; tile_w];
        let mut row_d = vec![0.0f32; tile_w];
        let mut row_evals = vec![0u32; tile_w];
        let mut row_blends = vec![0u32; tile_w];
        let mut active: Vec<u32> = Vec::with_capacity(tile_w);

        for py in y0..y1 {
            row_t.fill(1.0);
            row_c.fill(Vec3::ZERO);
            row_d.fill(0.0);
            row_evals.fill(0);
            row_blends.fill(0);
            active.clear();
            active.extend(0..tile_w as u32);
            let fy = py as f32;
            let mut reached = table.len();
            // Entries of this row the cull skipped: each is one α evaluation
            // on every pixel active at the time, booked when the pixel leaves
            // the active list or the row ends.
            let mut culled = 0u32;

            for k in 0..table.len() {
                if k == slab.len() {
                    if k == trusted {
                        table = tables.canonical(tile_idx);
                        trusted = table.len();
                        // No row has touched an entry from here on: only the
                        // ids the counters are booked under change.
                        for (stats, entry) in out.contributions.iter_mut().zip(table).skip(k) {
                            stats.0 = projection.splats[entry.splat_index as usize].id;
                        }
                    }
                    slab.fill_block(projection, &table[..trusted], skip, bounds);
                }
                if slab.skipped[k] {
                    continue;
                }
                let dy = fy - slab.mean_y[k];
                let contrib = record_contributions.then(|| out.contributions.get_mut(k)).flatten();
                if dy * dy > slab.hy2[k] {
                    // The α-cut ellipse ends above or below this row: every
                    // lane would take the kernel's negligible branch.
                    culled += 1;
                    if let Some(entry_stats) = contrib {
                        entry_stats.1 += active.len() as u32;
                        entry_stats.2 += active.len() as u32;
                    }
                    continue;
                }
                let t3 = (slab.c[k] * dy) * dy;
                let coeffs =
                    QuadCoeffs { mean_x: slab.mean_x[k], a: slab.a[k], s2b: slab.s2b[k], dy, t3 };
                quad_row(&fx[..tile_w], &mut qrow[..tile_w], &coeffs);
                let mut pass = VecRowPass {
                    splat_index: table[k].splat_index,
                    opacity: slab.opacity[k],
                    color: slab.color[k],
                    depth: slab.depth[k],
                    qcut: slab.qcut[k],
                    qrow: &qrow[..tile_w],
                    contrib,
                    lanes: &mut lanes[..],
                    active: &mut active,
                    row_t: &mut row_t,
                    row_c: &mut row_c,
                    row_d: &mut row_d,
                    row_evals: &mut row_evals,
                    row_blends: &mut row_blends,
                    culled,
                    early_terminated: &mut out.early_terminated,
                };
                match (slab.interior[k], tape.is_some()) {
                    (true, true) => blend_entry_row_vec::<true, true>(&mut pass),
                    (true, false) => blend_entry_row_vec::<true, false>(&mut pass),
                    (false, true) => blend_entry_row_vec::<false, true>(&mut pass),
                    (false, false) => blend_entry_row_vec::<false, false>(&mut pass),
                }
                if active.is_empty() {
                    if k + 1 < table.len() {
                        out.saturated_rows += 1;
                    }
                    reached = k + 1;
                    break;
                }
            }
            walked = walked.max(reached);
            for &px_off in active.iter() {
                row_evals[px_off as usize] += culled;
            }

            let row_base = (py - y0) * tile_w;
            for px_off in 0..tile_w {
                out.alpha_evals += row_evals[px_off] as u64;
                out.blend_ops += row_blends[px_off] as u64;
                let i = row_base + px_off;
                out.color[i] = row_c[px_off];
                out.depth[i] = row_d[px_off];
                out.silhouette[i] = 1.0 - row_t[px_off];
                if let Some(w) = out.work.as_mut() {
                    w.per_pixel_evals[i] = row_evals[px_off].min(u16::MAX as u32) as u16;
                    w.per_pixel_blends[i] = row_blends[px_off].min(u16::MAX as u32) as u16;
                }
            }
            if let Some(tape) = tape.as_deref_mut() {
                for lane in &mut lanes[..tile_w] {
                    tape.push_pixel(lane);
                    lane.clear();
                }
            }
        }
        out.walked_pairs = walked as u64;
        out.interior_pairs = slab.interior[..walked].iter().filter(|&&fast| fast).count() as u64;
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backward::{backward_with, BackwardOutput, GradMode};
    use crate::gaussian::Gaussian;
    use crate::loss::{compute_loss, LossConfig, LossKind};
    use crate::render::{rasterize, render, RenderOutput, RenderStats};
    use crate::tiles::TileGrid;
    use crate::train::{train_pass, TrainScratch};
    use ags_image::{DepthImage, RgbImage};
    use ags_math::{Pcg32, Vec3};
    use std::sync::Arc;

    #[test]
    fn backend_names_round_trip() {
        for kind in [BackendKind::Reference, BackendKind::Vectorized] {
            assert_eq!(BackendKind::from_name(kind.name()), Some(kind));
            assert_eq!(kind.backend().kind(), kind);
            assert_eq!(kind.backend().name(), kind.name());
        }
        assert_eq!(BackendKind::from_name("gpu"), None);
    }

    #[test]
    fn quad_kernel_name_matches_target() {
        let name = quad_kernel_name();
        #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
        assert_eq!(name, "sse2");
        #[cfg(target_arch = "aarch64")]
        assert_eq!(name, "neon");
        assert!(!name.is_empty());
    }

    /// The SIMD row kernel must reproduce the scalar falloff quadratic bit
    /// for bit: random coefficients, every width 0..2·TILE_SIZE, unaligned
    /// slice offsets and tail remainders below the 4-lane width.
    #[test]
    fn quad_row_matches_scalar_reference_bitwise() {
        let mut rng = Pcg32::seeded(99);
        let mut buf = vec![0.0f32; 3 * TILE_SIZE + 8];
        let mut out = vec![0.0f32; 3 * TILE_SIZE + 8];
        for trial in 0..200 {
            let c0 = rng.range_f32(1e-4, 2.0);
            let c1 = rng.range_f32(-0.5, 0.5);
            let c2 = rng.range_f32(1e-4, 2.0);
            let mean_x = rng.range_f32(-10.0, 70.0);
            let dy = rng.range_f32(-20.0, 20.0);
            for v in buf.iter_mut() {
                *v = rng.range_f32(-5.0, 70.0);
            }
            let width = trial % (2 * TILE_SIZE + 1);
            let offset = trial % 5; // exercises unaligned starts
            let fx = &buf[offset..offset + width];
            let coeffs = QuadCoeffs { mean_x, a: c0, s2b: 2.0 * c1, dy, t3: (c2 * dy) * dy };
            quad_row(fx, &mut out[offset..offset + width], &coeffs);
            for (lane, &x) in fx.iter().enumerate() {
                let dx = x - mean_x;
                // The scalar reference expression, verbatim from `falloff`.
                let q_ref = c0 * dx * dx + 2.0 * c1 * dx * dy + c2 * dy * dy;
                assert_eq!(
                    out[offset + lane].to_bits(),
                    q_ref.to_bits(),
                    "trial {trial} lane {lane}: {} vs {q_ref}",
                    out[offset + lane]
                );
            }
        }
    }

    /// Every `q > qcut` must map to an α strictly below the threshold — the
    /// soundness condition that lets the vectorized kernels skip the exp.
    #[test]
    fn alpha_cut_is_sound_at_the_boundary() {
        let mut rng = Pcg32::seeded(31);
        for _ in 0..500 {
            let opacity = rng.range_f32(2e-4, 0.9999);
            let cut = qcut(opacity);
            // Walk upward from the cut (or from 0 for faint splats whose cut
            // is negative — q is never negative on the exp path).
            let mut q = cut.max(0.0);
            for step in 0..40 {
                q = if step == 0 { f32::from_bits(q.to_bits() + 1) } else { q * 1.05 + 1e-3 };
                if q <= cut {
                    continue;
                }
                let alpha = (opacity * (-0.5 * q).exp()).min(0.99);
                assert!(
                    alpha < ALPHA_THRESHOLD,
                    "opacity {opacity}: q {q} > qcut {cut} but alpha {alpha} above threshold"
                );
            }
        }
    }

    /// A culled row must be one the lane loop would have booked as negligible
    /// on every pixel: random conics down to the degeneracy guard, opacities on
    /// both sides of `qcut`'s sign change, rows on both sides of the bound,
    /// full and edge-tile widths.
    #[test]
    fn culled_rows_are_negligible_on_every_lane() {
        let mut rng = Pcg32::seeded(77);
        let (mut culled_rows, mut kept_rows, mut unguarded) = (0u32, 0u32, 0u32);
        let mut q = [0.0f32; TILE_SIZE];
        for trial in 0..4000 {
            let (a, c) = (rng.range_f32(1e-3, 3.3), rng.range_f32(1e-3, 3.3));
            // Half the correlations are mild, half within 10⁻¹…10⁻⁵ of ±1:
            // up to and past the degeneracy guard (|ρ| < 0.999).
            let near_one = 1.0 - 10f32.powf(-rng.range_f32(1.0, 5.0));
            let rho = rng.range_f32(-1.0, 1.0) * [1.0, near_one][trial % 2];
            let rho = if trial % 4 == 3 { near_one.copysign(rho) } else { rho };
            let conic = (a, rho * (a * c).sqrt(), c);
            // ALPHA_THRESHOLD·e^-0.25 ≈ 0.00305 is where qcut changes sign.
            let opacity = [rng.range_f32(1e-4, 0.004), rng.range_f32(0.004, 0.999)][trial / 4 % 2];
            let cut = qcut(opacity);
            let hy2 = cut_half_height_sq(conic, cut);
            if hy2 == f32::INFINITY {
                unguarded += 1;
                continue;
            }
            let width = [16, 13, 3][trial % 3];
            let x0 = rng.range_f32(0.0, 600.0).floor();
            let fx: Vec<f32> = (0..width).map(|i| x0 + i as f32).collect();
            let mean_x = x0 + rng.range_f32(-40.0, 56.0);
            let bound = hy2.sqrt();
            for row in 0..32 {
                // Rows from well inside the ellipse to well outside, dense
                // around the bound.
                let dy = bound * (0.9 + 0.2 * row as f32 / 31.0) * [1.0, -1.0][row % 2]
                    + [0.0, 0.0, 7.5, -30.0][row % 4];
                let coeffs = QuadCoeffs {
                    mean_x,
                    a: conic.0,
                    s2b: 2.0 * conic.1,
                    dy,
                    t3: (conic.2 * dy) * dy,
                };
                quad_row(&fx, &mut q[..width], &coeffs);
                if dy * dy > hy2 {
                    culled_rows += 1;
                    for (lane, &q) in q[..width].iter().enumerate() {
                        assert!(
                            q < 0.0 || q > cut,
                            "trial {trial} lane {lane}: conic {conic:?} opacity {opacity} dy {dy} \
                             culled (hy² {hy2}) but q {q} ≤ qcut {cut}"
                        );
                    }
                } else {
                    kept_rows += 1;
                }
            }
        }
        assert!(culled_rows > 10_000 && kept_rows > 10_000, "{culled_rows} / {kept_rows}");
        assert!(unguarded > 100, "near-degenerate conics must fall outside the guard");
        // Outside the guards nothing is culled.
        assert_eq!(cut_half_height_sq((1.0, 1.0, 1.0), 5.0), f32::INFINITY);
        assert_eq!(cut_half_height_sq((0.0, 0.0, 1.0), 5.0), f32::INFINITY);
        assert_eq!(cut_half_height_sq((f32::NAN, 0.0, 1.0), 5.0), f32::INFINITY);
    }

    fn random_cloud(seed: u64, n: usize, opacity_range: (f32, f32)) -> GaussianCloud {
        let mut cloud = GaussianCloud::new();
        let mut rng = Pcg32::seeded(seed);
        for _ in 0..n {
            cloud.push(Gaussian::isotropic(
                Vec3::new(
                    rng.range_f32(-1.0, 1.0),
                    rng.range_f32(-1.0, 1.0),
                    rng.range_f32(0.5, 5.0),
                ),
                rng.range_f32(0.02, 0.4),
                Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32()),
                rng.range_f32(opacity_range.0, opacity_range.1),
            ));
        }
        cloud
    }

    /// Mixed scene exercising every path: frame-filling opaque splats
    /// (interior fast path + row saturation), faint splats (negligible
    /// recording), a skip set, and a camera whose edge tiles are narrower
    /// than a SIMD register.
    fn stress_scene() -> (GaussianCloud, IdSet, PinholeCamera) {
        let mut cloud = random_cloud(7, 400, (0.005, 0.995));
        for i in 0..4 {
            cloud.push(Gaussian::isotropic(
                Vec3::new(0.0, 0.0, 2.0 + i as f32 * 0.3),
                2.5,
                Vec3::new(0.8, 0.6, 0.4),
                0.8,
            ));
        }
        let mut skip = IdSet::with_capacity(cloud.len());
        for id in (0..cloud.len()).step_by(5) {
            skip.insert(id);
        }
        // 61×45: right/bottom edge tiles are 13 and 3 pixels wide — tail
        // lanes below the 4-wide SIMD width.
        let cam = PinholeCamera::from_fov(61, 45, 1.2);
        (cloud, skip, cam)
    }

    /// Every output and counter of two renders must agree bit for bit.
    fn assert_renders_equal(reference: &RenderOutput, vectorized: &RenderOutput, what: &str) {
        assert_eq!(reference.color.pixels(), vectorized.color.pixels(), "{what}");
        assert_eq!(reference.depth.pixels(), vectorized.depth.pixels(), "{what}");
        assert_eq!(reference.silhouette.pixels(), vectorized.silhouette.pixels(), "{what}");
        let (rs, vs) = (&reference.stats, &vectorized.stats);
        assert_eq!(rs.alpha_evals, vs.alpha_evals, "{what}");
        assert_eq!(rs.blend_ops, vs.blend_ops, "{what}");
        assert_eq!(rs.pairs, vs.pairs, "{what}");
        assert_eq!(rs.skipped_pairs, vs.skipped_pairs, "{what}");
        assert_eq!(rs.early_terminated_pixels, vs.early_terminated_pixels, "{what}");
        assert_eq!(rs.saturated_rows, vs.saturated_rows, "{what}");
        assert_eq!(rs.walked_pairs, vs.walked_pairs, "{what}");
        assert_eq!(rs.interior_pairs, vs.interior_pairs, "{what}");
        assert_eq!(rs.tile_work.len(), vs.tile_work.len(), "{what}");
        for (a, b) in rs.tile_work.iter().zip(&vs.tile_work) {
            assert_eq!(a.tile, b.tile, "{what}");
            assert_eq!(a.per_pixel_evals, b.per_pixel_evals, "{what}");
            assert_eq!(a.per_pixel_blends, b.per_pixel_blends, "{what}");
        }
        let (rc, vc) = (reference.contributions.as_ref(), vectorized.contributions.as_ref());
        assert_eq!(rc.map(|c| &c.touched), vc.map(|c| &c.touched), "{what}");
        assert_eq!(rc.map(|c| &c.negligible), vc.map(|c| &c.negligible), "{what}");
    }

    #[test]
    fn vectorized_render_is_bit_identical_to_reference() {
        let (cloud, skip, cam) = stress_scene();
        let base = RenderOptions {
            skip: Some(Arc::new(skip)),
            record_contributions: true,
            collect_tile_work: true,
            parallelism: Parallelism::serial(),
            backend: BackendKind::Reference,
        };
        let reference = render(&cloud, &cam, &Se3::IDENTITY, &base);
        let options = RenderOptions { backend: BackendKind::Vectorized, ..base };
        let vectorized = render(&cloud, &cam, &Se3::IDENTITY, &options);
        assert_renders_equal(&reference, &vectorized, "stress scene");
        assert!(reference.stats.interior_pairs > 0, "stress scene must hit the interior path");
        assert!(reference.stats.saturated_rows > 0, "stress scene must saturate rows");
        assert!(reference.contributions.is_some());
    }

    #[test]
    fn vectorized_parallel_render_is_bit_identical_to_serial() {
        let (cloud, skip, cam) = stress_scene();
        let base = RenderOptions {
            skip: Some(Arc::new(skip)),
            record_contributions: true,
            collect_tile_work: false,
            parallelism: Parallelism::serial(),
            backend: BackendKind::Vectorized,
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
            assert_eq!(serial.stats.alpha_evals, parallel.stats.alpha_evals);
            assert_eq!(serial.stats.blend_ops, parallel.stats.blend_ops);
        }
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

    #[test]
    fn vectorized_backward_is_bit_identical_to_reference() {
        let (cloud, skip, cam) = stress_scene();
        let projection = project_gaussians(&cloud, &cam, &Se3::IDENTITY);
        let tables = GaussianTables::build(&projection, &cam);
        let options =
            RenderOptions { skip: Some(Arc::new(skip.clone())), ..RenderOptions::default() };
        let out = rasterize(&cloud, &projection, &tables, &cam, &options);
        let mut gt_rng = Pcg32::seeded(5);
        let gt_rgb = RgbImage::from_vec(
            cam.width,
            cam.height,
            (0..cam.num_pixels()).map(|_| Vec3::splat(gt_rng.next_f32())).collect(),
        );
        let gt_depth = DepthImage::filled(cam.width, cam.height, 2.0);
        let loss = compute_loss(&out, &gt_rgb, &gt_depth, &l2_config());

        let run = |backend: BackendKind, threads: Option<usize>| {
            let par = match threads {
                None => Parallelism::serial(),
                Some(t) => Parallelism::with_threads(t).min_items(0),
            };
            backward_with(
                backend,
                &cloud,
                &projection,
                &tables,
                &cam,
                &loss,
                GradMode::Both,
                Some(&skip),
                &par,
            )
        };
        let reference = run(BackendKind::Reference, None);
        let rg = reference.grads.as_ref().unwrap();
        assert!(rg.touched_count() > 0, "fixture must produce gradients");
        for threads in [None, Some(2), Some(7)] {
            let vectorized = run(BackendKind::Vectorized, threads);
            let vg = vectorized.grads.as_ref().unwrap();
            assert_eq!(rg.position, vg.position, "{threads:?} threads");
            assert_eq!(rg.log_scale, vg.log_scale);
            assert_eq!(rg.rotation, vg.rotation);
            assert_eq!(rg.color, vg.color);
            assert_eq!(rg.opacity_logit, vg.opacity_logit);
            assert_eq!(rg.touched, vg.touched);
            assert_eq!(reference.pose.unwrap().twist, vectorized.pose.unwrap().twist);
            assert_eq!(reference.stats.grad_ops, vectorized.stats.grad_ops);
            assert_eq!(reference.stats.pixels, vectorized.stats.pixels);
        }
    }

    /// ≥ 2 000-entry tables behind an opaque front layer: a stack of opaque
    /// discs saturates most pixels within a few entries, and its soft edge
    /// crosses tiles, so rows of one tile walk to very different depths.
    fn deep_scene() -> (GaussianCloud, IdSet, PinholeCamera) {
        let mut cloud = GaussianCloud::new();
        for i in 0..6 {
            cloud.push(Gaussian::isotropic(
                Vec3::new(-0.15, -0.05, 1.0 + i as f32 * 0.05),
                0.55,
                Vec3::new(0.7, 0.5, 0.3),
                0.999,
            ));
        }
        let mut rng = Pcg32::seeded(2024);
        for _ in 0..2400 {
            cloud.push(Gaussian::isotropic(
                Vec3::new(
                    rng.range_f32(-0.6, 0.6),
                    rng.range_f32(-0.4, 0.4),
                    rng.range_f32(2.0, 4.0),
                ),
                rng.range_f32(2.5, 3.5),
                Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32()),
                rng.range_f32(0.002, 0.06),
            ));
        }
        let mut skip = IdSet::with_capacity(cloud.len());
        for id in (0..cloud.len()).step_by(7) {
            skip.insert(id);
        }
        (cloud, skip, PinholeCamera::from_fov(64, 48, 1.2))
    }

    #[test]
    fn deep_scene_walks_a_fraction_of_its_tables() {
        let (cloud, _, cam) = deep_scene();
        let projection = project_gaussians(&cloud, &cam, &Se3::IDENTITY);
        let tables = GaussianTables::build(&projection, &cam);
        let shallowest = tables.tables().iter().map(Vec::len).min().unwrap();
        assert!(shallowest >= 2000, "every table must be deep, got {shallowest}");
        let options = RenderOptions {
            collect_tile_work: true,
            backend: BackendKind::Vectorized,
            ..RenderOptions::default()
        };
        let out = rasterize(&cloud, &projection, &tables, &cam, &options);
        let stats = &out.stats;
        assert!(stats.walked_pairs > 0 && stats.walked_pairs < stats.pairs / 4, "{stats:?}");
        // Some tile has rows whose walks end more than a slab block apart.
        let uneven = stats.tile_work.iter().any(|w| {
            let bounds = tables.grid.tile_bounds(w.tile as usize);
            let depths: Vec<u16> = w
                .per_pixel_evals
                .chunks(bounds.2 - bounds.0)
                .map(|row| *row.iter().max().unwrap())
                .collect();
            let (lo, hi) = (depths.iter().min().unwrap(), depths.iter().max().unwrap());
            (hi - lo) as usize > SLAB_BLOCK
        });
        assert!(uneven, "fixture must mix row depths within a tile");
    }

    /// Frame-filling faint splats on `n` distinct depths, so every tile's
    /// table holds all of them and skip ids land on chosen table indices. Ids
    /// are scattered over the depth ranks: a table in index order would be
    /// sorted already, and a sort that finds nothing to do tells ties nothing.
    fn layered_cloud(n: usize) -> (GaussianCloud, IdSet) {
        let mut rng = Pcg32::seeded(n as u64 + 1);
        let mut cloud = GaussianCloud::new();
        let mut skip = IdSet::with_capacity(n);
        for id in 0..n {
            // 37 divides none of the sizes used, so this permutes the ranks.
            let rank = (id * 37 + 11) % n;
            cloud.push(Gaussian::isotropic(
                Vec3::new(
                    rng.range_f32(-0.3, 0.3),
                    rng.range_f32(-0.3, 0.3),
                    1.5 + 1.5 * rank as f32 / n as f32,
                ),
                2.5,
                Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32()),
                rng.range_f32(0.001, 0.03),
            ));
            // Skipped entries on both sides of the first two block edges and
            // at the ends.
            if [0, 62, 63, 64, 65, 127, 128, n - 1].contains(&rank) {
                skip.insert(id);
            }
        }
        (cloud, skip)
    }

    #[test]
    fn lazy_slab_matches_reference_at_every_table_depth() {
        // 61×45 has 13-pixel edge tiles, 51×35 has 3-pixel ones.
        for (w, h) in [(61, 45), (51, 35)] {
            let cam = PinholeCamera::from_fov(w, h, 1.2);
            for n in [0usize, 1, SLAB_BLOCK - 1, SLAB_BLOCK, SLAB_BLOCK + 1, 4096] {
                let (cloud, skip) = layered_cloud(n);
                let projection = project_gaussians(&cloud, &cam, &Se3::IDENTITY);
                let tables = GaussianTables::build(&projection, &cam);
                assert!(tables.tables().iter().all(|t| t.len() == n), "tables must hold all {n}");
                for skip in [None, Some(Arc::new(skip))] {
                    let what = format!("{w}x{h}, {n} entries, skip {}", skip.is_some());
                    let base = RenderOptions {
                        skip,
                        record_contributions: true,
                        collect_tile_work: true,
                        parallelism: Parallelism::serial(),
                        backend: BackendKind::Reference,
                    };
                    let reference = rasterize(&cloud, &projection, &tables, &cam, &base);
                    let options = RenderOptions { backend: BackendKind::Vectorized, ..base };
                    let vectorized = rasterize(&cloud, &projection, &tables, &cam, &options);
                    assert_renders_equal(&reference, &vectorized, &what);
                    assert!(reference.stats.walked_pairs <= reference.stats.pairs, "{what}");
                    if n == 4096 {
                        assert!(reference.stats.saturated_rows > 0, "{what}: must stop early");
                        assert!(reference.stats.walked_pairs < reference.stats.pairs, "{what}");
                    } else {
                        assert_eq!(reference.stats.walked_pairs, reference.stats.pairs, "{what}");
                    }
                }
            }
        }
    }

    fn assert_backward_equal(a: &BackwardOutput, b: &BackwardOutput, what: &str) {
        assert_eq!(a.grads.is_some(), b.grads.is_some(), "{what}");
        if let (Some(ag), Some(bg)) = (&a.grads, &b.grads) {
            assert_eq!(ag.position, bg.position, "{what}");
            assert_eq!(ag.log_scale, bg.log_scale, "{what}");
            assert_eq!(ag.rotation, bg.rotation, "{what}");
            assert_eq!(ag.color, bg.color, "{what}");
            assert_eq!(ag.opacity_logit, bg.opacity_logit, "{what}");
            assert_eq!(ag.touched, bg.touched, "{what}");
        }
        assert_eq!(a.pose.map(|p| p.twist), b.pose.map(|p| p.twist), "{what}");
        assert_eq!(a.stats.grad_ops, b.stats.grad_ops, "{what}");
        assert_eq!(a.stats.pixels, b.stats.pixels, "{what}");
    }

    /// Random ground truth with some invalid depth; every third pixel copies
    /// `render` exactly, so its loss gradient is zero and backward must skip
    /// it the way the replay does.
    fn gt_for(render: &RenderOutput, seed: u64) -> (RgbImage, DepthImage) {
        let (w, h) = (render.color.width(), render.color.height());
        let mut rng = Pcg32::seeded(seed);
        let mut rgb = RgbImage::filled(w, h, Vec3::ZERO);
        let mut depth = DepthImage::filled(w, h, 2.0);
        for i in 0..w * h {
            let (x, y) = (i % w, i / w);
            rgb.set(x, y, Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32()));
            if i % 3 == 0 {
                rgb.set(x, y, render.color.at(x, y));
                depth.set(x, y, render.depth.at(x, y));
            } else if i % 11 == 0 {
                depth.set(x, y, 0.0);
            }
        }
        (rgb, depth)
    }

    /// Everything that consumes the sorted tables against the oracle — the
    /// scalar kernels over the per-tile build's tables
    /// ([`GaussianTables::build_reference`]) — bit for bit: renders by both
    /// backends, the stand-alone backward of both and the taped vectorized
    /// training pass, at three thread counts; with and without the skip set,
    /// three losses, three gradient modes. Returns the stats of the
    /// vectorized render without the skip set.
    fn check_against_oracle(
        (cloud, skip, cam): (GaussianCloud, IdSet, PinholeCamera),
    ) -> RenderStats {
        let pose = Se3::IDENTITY;
        let projection = project_gaussians(&cloud, &cam, &pose);
        let oracle = GaussianTables::build_reference(&projection, &cam);
        let tables = GaussianTables::build(&projection, &cam);
        let skip = Arc::new(skip);
        let mut scratch = TrainScratch::default();
        let mut unskipped = None;
        let pars = || [1, 2, 7].map(|threads| Parallelism::with_threads(threads).min_items(0));
        for skip in [None, Some(&skip)] {
            let reference_options = RenderOptions {
                skip: skip.cloned(),
                record_contributions: true,
                collect_tile_work: true,
                parallelism: Parallelism::serial(),
                backend: BackendKind::Reference,
            };
            let reference = rasterize(&cloud, &projection, &oracle, &cam, &reference_options);
            assert_eq!(reference.stats.canonical_tiles, 0, "the oracle's tables claim no ties");
            for backend in [BackendKind::Reference, BackendKind::Vectorized] {
                for parallelism in pars() {
                    let what =
                        format!("render, skip {}, {backend:?}, {parallelism:?}", skip.is_some());
                    let options =
                        RenderOptions { parallelism, backend, ..reference_options.clone() };
                    let got = rasterize(&cloud, &projection, &tables, &cam, &options);
                    assert_renders_equal(&reference, &got, &what);
                    let first = unskipped.get_or_insert_with(|| got.stats.clone());
                    if skip.is_none() {
                        assert_eq!(first.canonical_tiles, got.stats.canonical_tiles, "{what}");
                    }
                }
            }
            let (gt_rgb, gt_depth) = gt_for(&reference, 5);
            // The mask threshold sits between saturated and thin pixels.
            let masked = LossConfig { mask_threshold: 0.9995, ..LossConfig::tracking() };
            for loss_config in [LossConfig::mapping(), masked, l2_config()] {
                let loss = compute_loss(&reference, &gt_rgb, &gt_depth, &loss_config);
                for mode in [GradMode::Map, GradMode::Track, GradMode::Both] {
                    let what = format!("skip {}, {loss_config:?}, {mode:?}", skip.is_some());
                    let backward = |backend, tables: &GaussianTables, par: &Parallelism| {
                        let skip = skip.map(Arc::as_ref);
                        backward_with(
                            backend,
                            &cloud,
                            &projection,
                            tables,
                            &cam,
                            &loss,
                            mode,
                            skip,
                            par,
                        )
                    };
                    let replay = backward(BackendKind::Reference, &oracle, &Parallelism::serial());
                    // Thin fixtures have no pixel above the masked loss's threshold.
                    let some = replay.stats.grad_ops > 0 || loss_config.silhouette_mask;
                    assert!(some, "{what}: fixture must produce gradients");
                    assert!(
                        (replay.stats.pixels as usize) < cam.num_pixels() * 3 / 4,
                        "{what}: pixels without a loss gradient must be skipped"
                    );
                    for parallelism in pars() {
                        let what = format!("{what}, {parallelism:?}");
                        for backend in [BackendKind::Reference, BackendKind::Vectorized] {
                            let standalone = backward(backend, &tables, &parallelism);
                            assert_backward_equal(
                                &replay,
                                &standalone,
                                &format!("{what}, {backend:?}"),
                            );
                        }
                        let options = RenderOptions {
                            parallelism,
                            backend: BackendKind::Vectorized,
                            ..reference_options.clone()
                        };
                        let taped = train_pass(
                            &mut scratch,
                            &cloud,
                            &cam,
                            &pose,
                            &gt_rgb,
                            &gt_depth,
                            &loss_config,
                            mode,
                            &options,
                            None,
                        );
                        assert_renders_equal(&reference, &taped.render, &what);
                        assert_eq!(loss.total_f64.to_bits(), taped.loss.total_f64.to_bits());
                        assert_backward_equal(&replay, &taped.backward, &what);
                        let taped_ops = scratch.taped_blend_ops() as u64;
                        assert_eq!(taped_ops, taped.render.stats.blend_ops, "{what}");
                    }
                }
            }
        }
        unskipped.expect("rendered")
    }

    #[test]
    fn taped_backward_is_bit_identical_to_reference_replay_on_the_stress_scene() {
        check_against_oracle(stress_scene());
    }

    #[test]
    fn taped_backward_is_bit_identical_to_reference_replay_on_the_deep_scene() {
        check_against_oracle(deep_scene());
    }

    /// Gives the `group` entries from depth rank `rank` on one depth: a tie
    /// group starting at table index `rank` of every tile they all cover.
    /// Returns their ids.
    fn tie_depths(cloud: &mut GaussianCloud, rank: usize, group: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..cloud.len()).collect();
        let splats = cloud.gaussians_mut();
        order.sort_by(|&a, &b| {
            splats[a].position.z.total_cmp(&splats[b].position.z).then(a.cmp(&b))
        });
        let tied = order[rank..rank + group].to_vec();
        for &id in &tied {
            splats[id].position.z = splats[tied[0]].position.z;
        }
        tied
    }

    /// Tiles whose canonical order differs from `(depth, index)`.
    fn reordered_tiles(cloud: &GaussianCloud, cam: &PinholeCamera) -> usize {
        let projection = project_gaussians(cloud, cam, &Se3::IDENTITY);
        let tables = GaussianTables::build(&projection, cam);
        let reordered = |t: &usize| tables.tables()[*t] != tables.canonical(*t);
        (0..tables.tables().len()).filter(reordered).count()
    }

    /// The switch to the canonical table at every slab-block phase: the first
    /// tie at index 0, 1 and around the first block edge of tables every row
    /// walks to the end, with skip ids inside the tie group.
    #[test]
    fn walks_that_reach_a_tie_continue_on_the_canonical_table() {
        // 61×45 has 13-pixel edge tiles, 51×35 has 3-pixel ones.
        for (w, h) in [(61, 45), (51, 35)] {
            let cam = PinholeCamera::from_fov(w, h, 1.2);
            let tiles = TileGrid::for_camera(&cam).num_tiles() as u64;
            let mut reordered = 0;
            for first_tie in [0, 1, SLAB_BLOCK - 1, SLAB_BLOCK, SLAB_BLOCK + 1] {
                let (mut cloud, skip) = layered_cloud(3 * SLAB_BLOCK);
                let tied = tie_depths(&mut cloud, first_tie, SLAB_BLOCK);
                assert!(tied.iter().any(|&id| skip.contains(id)), "no skip id in the tie group");
                reordered += reordered_tiles(&cloud, &cam);
                let stats = check_against_oracle((cloud, skip, cam));
                assert_eq!(stats.walked_pairs, stats.pairs, "every row walks every entry");
                assert_eq!(stats.canonical_tiles, tiles, "first tie at {first_tie}");
            }
            // Otherwise walking the fast table to the end would pass too.
            assert!(reordered > 0, "no fixture's tie group sorts differently by index");
        }
    }

    /// Ties no row reaches cost nothing: the walk never leaves the fast table.
    #[test]
    fn ties_behind_the_walk_never_build_a_canonical_table() {
        let cam = PinholeCamera::from_fov(61, 45, 1.2);
        let (mut cloud, skip) = layered_cloud(4096);
        tie_depths(&mut cloud, 4000, 40);
        assert!(reordered_tiles(&cloud, &cam) > 0);
        let stats = check_against_oracle((cloud, skip, cam));
        assert!(stats.saturated_rows > 0 && stats.walked_pairs < stats.pairs, "{stats:?}");
        assert_eq!(stats.canonical_tiles, 0);
    }

    /// Rows of one tile stopping on both sides of the first tie: the rows
    /// before it never see the switch, the rows after it all walk the
    /// canonical table, whichever row got there first.
    #[test]
    fn rows_on_both_sides_of_the_first_tie_agree_with_the_oracle() {
        let (mut cloud, skip, cam) = deep_scene();
        let first_tie = 40;
        tie_depths(&mut cloud, first_tie, 60);
        assert!(reordered_tiles(&cloud, &cam) > 0);
        let stats = check_against_oracle((cloud, skip, cam));
        let grid = TileGrid::for_camera(&cam);
        assert!(stats.canonical_tiles > 0, "{stats:?}");
        let straddled = stats.tile_work.iter().any(|w| {
            let (x0, _, x1, _) = grid.tile_bounds(w.tile as usize);
            let deepest = |row: &[u16]| *row.iter().max().unwrap() as usize;
            let rows: Vec<usize> = w.per_pixel_evals.chunks(x1 - x0).map(deepest).collect();
            rows.iter().any(|&d| d < first_tie) && rows.iter().any(|&d| d > first_tie + 60)
        });
        assert!(straddled, "fixture must stop rows of one tile before and after the tie");
    }

    #[test]
    fn tape_entries_are_eight_bytes() {
        assert_eq!(std::mem::size_of::<TapeEntry>(), 8);
    }

    /// A scratch carries nothing from one frame into the next: two different
    /// frames (different clouds, tile grids and skip sets) through one
    /// scratch give what two fresh scratches give.
    #[test]
    fn reused_train_scratch_matches_fresh_scratches() {
        let frames = [stress_scene(), deep_scene(), stress_scene()];
        let mut reused = TrainScratch::default();
        for (i, (cloud, skip, cam)) in frames.iter().enumerate() {
            let options = RenderOptions {
                skip: (i != 1).then(|| Arc::new(skip.clone())),
                backend: BackendKind::Vectorized,
                ..RenderOptions::default()
            };
            let (gt_rgb, gt_depth) =
                gt_for(&render(cloud, cam, &Se3::IDENTITY, &options), 9 + i as u64);
            let run = |scratch: &mut TrainScratch| {
                let cfg = LossConfig::tracking();
                let pose = Se3::IDENTITY;
                let pass = train_pass(
                    scratch,
                    cloud,
                    cam,
                    &pose,
                    &gt_rgb,
                    &gt_depth,
                    &cfg,
                    GradMode::Both,
                    &options,
                    None,
                );
                (pass, scratch.taped_blend_ops())
            };
            let (fresh, fresh_ops) = run(&mut TrainScratch::default());
            let (again, again_ops) = run(&mut reused);
            assert_renders_equal(&fresh.render, &again.render, "reused scratch");
            assert_backward_equal(&fresh.backward, &again.backward, "reused scratch");
            assert_eq!(fresh_ops, again_ops, "frame {i}: stale tape entries survived");
        }
    }
}
