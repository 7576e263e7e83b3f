//! Render backends: which tile kernel runs steps ③ and ④.
//!
//! Projection (①) and tile binning (②) are one implementation for every
//! backend ([`crate::project::project_gaussians`],
//! [`GaussianTables::build_with`]); their tables, blended in canonical order,
//! are the inter-stage contract. The forward raster (③) and the backward
//! pass (④) each pick a tile kernel with a `match` on [`BackendKind`]. The
//! kernel API is the one place a backend is chosen
//! ([`crate::render::RenderOptions::backend`], the first argument of
//! [`crate::backward::backward_with`]): the SLAM pipeline above it always
//! runs the vectorized kernel, and only the oracle tests pick the reference:
//!
//! * [`BackendKind::Reference`] — the scalar oracle: one per-pixel blend walk
//!   (`render::walk_pixel`, Eqn. 1–2 written once), which the forward kernel
//!   runs per pixel and the backward pass *replays* per pixel to collect the
//!   blends it reverses. Every other kernel is measured against it.
//! * [`BackendKind::Vectorized`] — one tile kernel that repacks the tile's
//!   Gaussian table into structure-of-arrays slabs, evaluates the Mahalanobis
//!   quadratic four pixels wide with `std::arch` SSE2/NEON kernels (portable
//!   chunked fallback elsewhere), walks the table row by row, stopping a row
//!   once every pixel of it saturates and skipping the α-threshold check for
//!   entries that provably pass it on the whole tile (the tile-interior fast
//!   path), and visits only the pixels whose α can pass: the row kernel also
//!   returns the α-cut's reject mask (`q < 0` or `q > qcut`), and the row's
//!   still-active pixels are a lane mask, so a blend walks `active & !reject`
//!   bit by bit and books the rejected lanes by popcount, without an `exp` or
//!   a visit. **Bit-identical to the reference**: per-lane SIMD mul/add/sub
//!   are IEEE-exact, the quadratic replicates the scalar operation order term
//!   for term, and every pixel gets the same value by the same branches —
//!   only the order in which pixels are visited differs, and no pixel's state
//!   depends on another's. Outputs, gradients and every workload counter
//!   match the reference bit for bit (enforced by the tests in this module;
//!   the determinism suites run on it, since the pipeline runs nothing
//!   else).
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
//! `pairs`) — past the build's [`crate::tiles::PREFIX`] not even binned.
//!
//! # Which table a tile walks
//!
//! Blending follows [`GaussianTables::canonical`] — the historical per-tile
//! sort's order, ties included (the contract in [`crate::tiles`]). The
//! reference walk is the oracle and takes that table up front, so it
//! completes every truncated table of a build. The vectorized kernel loops to
//! the tile's full [`GaussianTables::table_len`] but walks the order
//! contract's stages as rows need them ([`GaussianTables::walk_table`]): the
//! prefix the build filled, up to its first depth tie and at most
//! `PREFIX − 1` entries; then, once a row needs more, the tile's complete
//! table (deepening the build, once, for every tile) up to its first tie;
//! then the canonical tail, sorted then. On an opaque map rows saturate
//! inside the prefix and no tile deepens or sorts anything
//! ([`crate::render::RenderStats::deepened_tiles`],
//! [`crate::render::RenderStats::canonical_tiles`]).
//!
//! **Row cull:** a splat whose α-cut ellipse `q ≤ qcut` ends above or below a
//! pixel row is negligible on all of it; the slab keeps the ellipse's squared
//! y half-extent (`cut_half_height_sq`) and such a row books its counters
//! without evaluating the quadratic — about half the (entry, row) pairs the
//! benchmark's `steady_map` walks. Within the rows that are evaluated, the
//! reject mask drops ≈ 60 % of the active pixels before the lane loop.
//! Neither is counted per visit: a row counts the non-skipped entries it has
//! walked and stamps that count into a pixel's α evaluations when the pixel
//! saturates or the row ends.
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
//! A future `wgpu` backend adds a [`BackendKind`] arm in those two matches;
//! the tables [`GaussianTables::build_with`] produces, blended in their
//! canonical order, are the inter-stage contract it must honour.

use crate::backward::{
    chunk_with_scratch, reverse_tile, BlendTape, ChunkGrads, TapeEntry, TileTape,
};
use crate::idset::IdSet;
use crate::loss::LossResult;
use crate::project::Projection;
use crate::render::{splat_covers_tile, TileRaster};
use crate::tiles::{GaussianTables, TableEntry};
use crate::{ALPHA_THRESHOLD, TILE_SIZE, TRANSMITTANCE_MIN};
use ags_math::Vec3;
use ags_scene::PinholeCamera;

/// Which render backend executes the splat kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// The scalar per-pixel walk — the bit-exact reference implementation,
    /// kept as the oracle the tests compare the vectorized kernels against.
    Reference,
    /// SoA + SIMD kernels, bit-identical to the reference (see module docs).
    #[default]
    Vectorized,
}

/// The vectorized backward over a chunk of tiles: each tile's reverse stage
/// over the tape the forward pass recorded, or, without one, over a tape
/// recorded here by the same kernel just before it.
pub(crate) fn backward_chunk_vec(
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
        let mut standalone = TileTape::default();
        for tile_idx in tile_range {
            if tables.table_len(tile_idx) == 0 {
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

/// The α-cut's per-pixel predicate: `q` is negative (α = 0) or above the
/// entry's `qcut` (α provably below [`ALPHA_THRESHOLD`]). A NaN `q` or `qcut`
/// rejects nothing, like the scalar comparisons it mirrors.
#[inline(always)]
fn rejects(q: f32, qcut: f32) -> bool {
    q < 0.0 || q > qcut
}

/// Bit `i` set where [`rejects`] holds for `q[i]`.
#[inline]
fn reject_mask(q: &[f32], qcut: f32) -> u32 {
    q.iter().enumerate().fold(0, |mask, (i, &q)| mask | u32::from(rejects(q, qcut)) << i)
}

/// Evaluates the quadratic for a row of pixel centers `fx` into `out` and
/// returns the lanes the α-cut rejects: bit `i` is [`rejects`]`(out[i], qcut)`.
#[inline]
fn quad_row(fx: &[f32], out: &mut [f32], c: &QuadCoeffs, qcut: f32) -> u32 {
    debug_assert!(out.len() >= fx.len() && fx.len() <= 32);
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    {
        quad_row_sse2(fx, out, c, qcut)
    }
    #[cfg(target_arch = "aarch64")]
    {
        quad_row_neon(fx, out, c);
        reject_mask(&out[..fx.len()], qcut)
    }
    #[cfg(not(any(
        all(target_arch = "x86_64", target_feature = "sse2"),
        target_arch = "aarch64"
    )))]
    {
        quad_row_portable(fx, out, c);
        reject_mask(&out[..fx.len()], qcut)
    }
}

/// SSE2 quadratic row: four lanes of `dx = fx - μx`, `(a·dx)·dx`,
/// `(2b·dx)·dy` and the final adds — each a per-lane IEEE operation, so the
/// result is bit-identical to [`quad_lane`]. The α-cut's reject mask comes
/// from the same registers: `cmplt`/`cmpgt` are ordered compares (false on
/// NaN, `-0.0 < 0.0` false), exactly [`rejects`].
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
#[inline]
fn quad_row_sse2(fx: &[f32], out: &mut [f32], c: &QuadCoeffs, qcut: f32) -> u32 {
    use std::arch::x86_64::{
        _mm_add_ps, _mm_cmpgt_ps, _mm_cmplt_ps, _mm_loadu_ps, _mm_movemask_ps, _mm_mul_ps,
        _mm_or_ps, _mm_set1_ps, _mm_setzero_ps, _mm_storeu_ps, _mm_sub_ps,
    };
    let n = fx.len();
    let mut i = 0usize;
    let mut reject = 0u32;
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
        let vcut = _mm_set1_ps(qcut);
        let zero = _mm_setzero_ps();
        while i + 4 <= n {
            let vfx = _mm_loadu_ps(fx.as_ptr().add(i));
            let dx = _mm_sub_ps(vfx, vmx);
            let t1 = _mm_mul_ps(_mm_mul_ps(va, dx), dx);
            let t2 = _mm_mul_ps(_mm_mul_ps(vs2b, dx), vdy);
            let q = _mm_add_ps(_mm_add_ps(t1, t2), vt3);
            _mm_storeu_ps(out.as_mut_ptr().add(i), q);
            let cut = _mm_or_ps(_mm_cmplt_ps(q, zero), _mm_cmpgt_ps(q, vcut));
            reject |= (_mm_movemask_ps(cut) as u32) << i;
            i += 4;
        }
    }
    let tail = i;
    while i < n {
        out[i] = quad_lane(fx[i], c);
        i += 1;
    }
    if tail < n {
        reject |= reject_mask(&out[tail..n], qcut) << tail;
    }
    reject
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

// A row's pixels are one `u32` lane mask.
const _: () = assert!(TILE_SIZE <= 32);

/// Accumulators of the pixel row being walked, one slot per pixel of a
/// full-width tile (slots past a narrower tile's width are never active).
#[derive(Default)]
struct PixelRow {
    t: [f32; TILE_SIZE],
    color: [Vec3; TILE_SIZE],
    depth: [f32; TILE_SIZE],
    evals: [u32; TILE_SIZE],
    blends: [u32; TILE_SIZE],
}

impl PixelRow {
    /// A row no entry has blended into yet. `evals` is stamped per pixel
    /// when it saturates or the row ends, so it needs no reset.
    fn start(&mut self) {
        self.t = [1.0; TILE_SIZE];
        self.color = [Vec3::ZERO; TILE_SIZE];
        self.depth = [0.0; TILE_SIZE];
        self.blends = [0; TILE_SIZE];
    }
}

/// One slab entry's walk over a pixel row: the SoA fields plus the row-local
/// accumulators it blends into.
struct VecRowPass<'a> {
    splat_index: u32,
    opacity: f32,
    color: Vec3,
    depth: f32,
    /// Precomputed `q` per pixel of the row (from [`quad_row`]).
    qrow: &'a [f32; TILE_SIZE],
    /// Pixels whose `q` the α-cut rejects (bit per pixel, from [`quad_row`]).
    reject: u32,
    /// `(id, touched, negligible)` counters of this entry, when recording.
    contrib: Option<&'a mut (u32, u32, u32)>,
    /// Per-pixel tape buffers of the row (only pushed to when `TAPED`).
    lanes: &'a mut [Vec<TapeEntry>; TILE_SIZE],
    /// Pixels of the row still accumulating, one bit per pixel.
    active: &'a mut u32,
    row: &'a mut PixelRow,
    /// Non-skipped entries of the row so far, this one included: the α
    /// evaluations of a pixel that saturates here, stamped when it does.
    evals: u32,
    early_terminated: &'a mut u64,
}

/// Blends one slab entry across a row's active pixels, consuming the
/// vector-evaluated `q` row. Each pixel gets the same value as in the
/// reference's `render::walk_pixel` — same branches, same blend arithmetic,
/// same counters — but pixels are visited in lane-mask order, and only those
/// whose α can pass: the α-cut's rejects (`q < 0` or `q > qcut`) skip an
/// `exp` whose value the scalar path provably discards, and are booked as
/// negligible by popcount. No pixel's state depends on another's, so the
/// order changes no value. α evaluations are not counted per visit: the
/// row's `evals` is stamped into the pixel's slot when it saturates (or, by
/// the caller, when the row ends). `TAPED` also records each blend's
/// [`TapeEntry`] from the values already in registers: what the reference
/// backward's replay re-derives pixel by pixel.
#[inline(always)]
fn blend_entry_row_vec<const INTERIOR: bool, const TAPED: bool>(pass: &mut VecRowPass<'_>) {
    let active = *pass.active;
    let reject = if INTERIOR { 0 } else { pass.reject };
    // Candidates whose α still falls below the threshold.
    let mut faint = 0u32;
    let mut lanes = active & !reject;
    while lanes != 0 {
        let px_off = lanes.trailing_zeros() as usize;
        lanes &= lanes - 1;
        let q = pass.qrow[px_off];
        let g = if q < 0.0 { 0.0 } else { (-0.5 * q).exp() };
        let alpha = (pass.opacity * g).min(0.99);
        if INTERIOR {
            debug_assert!(alpha >= ALPHA_THRESHOLD, "interior test must be conservative");
        }
        if !INTERIOR && alpha < ALPHA_THRESHOLD {
            faint += 1;
            continue;
        }
        let row = &mut *pass.row;
        row.blends[px_off] += 1;
        let t = row.t[px_off];
        if TAPED {
            pass.lanes[px_off].push(TapeEntry { splat_index: pass.splat_index, weight: g });
        }
        row.color[px_off] += pass.color * (t * alpha);
        row.depth[px_off] += pass.depth * (t * alpha);
        let t = t * (1.0 - alpha);
        row.t[px_off] = t;
        if t < TRANSMITTANCE_MIN {
            *pass.early_terminated += 1;
            row.evals[px_off] = pass.evals;
            *pass.active &= !(1 << px_off);
        }
    }
    if let Some(entry_stats) = pass.contrib.as_deref_mut() {
        entry_stats.1 += active.count_ones();
        entry_stats.2 += (active & reject).count_ones() + faint;
    }
}

/// The vectorized backend's one blend walk: SoA slab (filled only as deep as
/// rows walk) + row-wide quadratic evaluation + α-cut lane masks, walking
/// entries per row and giving every pixel the value `render::walk_pixel`
/// gives it, so outputs and every workload counter are bit-identical to the
/// reference's `render::rasterize_tile`. A row stops once every pixel of it
/// saturates (booked in [`crate::render::RenderStats::saturated_rows`]).
/// With a `tape`, each row's blends are recorded per lane while the row runs
/// and flushed in pixel order when it ends.
///
/// The walk starts on the tile's prefix and moves to the next table of the
/// order contract ([`GaussianTables::walk_table`]) when a row first needs an
/// entry the current one is not trusted for: everything before that index is
/// the same entry in both. It loops to the tile's full
/// [`GaussianTables::table_len`], so a row that walks past the prefix deepens
/// the build.
pub(crate) fn rasterize_tile_vec(
    projection: &Projection,
    tables: &GaussianTables,
    tile_idx: usize,
    skip: Option<&IdSet>,
    record_contributions: bool,
    collect_tile_work: bool,
    mut tape: Option<&mut TileTape>,
) -> TileRaster {
    let len = tables.table_len(tile_idx);
    // How far into `table` the slab may fill before the walk asks for the
    // next table.
    let (mut table, mut trusted) = tables.walk_table(tile_idx, 0);
    let bounds = tables.grid.tile_bounds(tile_idx);
    let (x0, y0, x1, y1) = bounds;
    let tile_w = x1 - x0;
    let tile_h = y1 - y0;
    let mut out = TileRaster::empty(tile_idx, tile_w, tile_h, collect_tile_work);
    if let Some(tape) = tape.as_deref_mut() {
        tape.clear();
    }
    if len == 0 {
        return out;
    }
    out.color = vec![Vec3::ZERO; tile_w * tile_h];
    out.depth = vec![0.0; tile_w * tile_h];
    out.silhouette = vec![0.0; tile_w * tile_h];
    let id_of = |entry: &TableEntry| (projection.splats[entry.splat_index as usize].id, 0, 0);
    if record_contributions {
        out.contributions = table.iter().map(id_of).collect();
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
        let mut row = PixelRow::default();
        let all_pixels = u32::MAX >> (32 - tile_w);

        for py in y0..y1 {
            row.start();
            let mut active = all_pixels;
            let fy = py as f32;
            let mut reached = len;
            // Non-skipped entries this row has walked: one α evaluation each
            // on every pixel still active.
            let mut evals = 0u32;

            for k in 0..len {
                if k == slab.len() {
                    if k == trusted {
                        (table, trusted) = tables.walk_table(tile_idx, k);
                        // No row has touched an entry from here on: only the
                        // ids the counters are booked under change.
                        if record_contributions {
                            out.contributions.truncate(k);
                            out.contributions.extend(table[k..].iter().map(id_of));
                        }
                    }
                    slab.fill_block(projection, &table[..trusted], skip, bounds);
                }
                if slab.skipped[k] {
                    continue;
                }
                evals += 1;
                let dy = fy - slab.mean_y[k];
                let contrib = record_contributions.then(|| out.contributions.get_mut(k)).flatten();
                if dy * dy > slab.hy2[k] {
                    // The α-cut ellipse ends above or below this row: every
                    // lane would take the kernel's negligible branch.
                    if let Some(entry_stats) = contrib {
                        entry_stats.1 += active.count_ones();
                        entry_stats.2 += active.count_ones();
                    }
                    continue;
                }
                let t3 = (slab.c[k] * dy) * dy;
                let coeffs =
                    QuadCoeffs { mean_x: slab.mean_x[k], a: slab.a[k], s2b: slab.s2b[k], dy, t3 };
                let reject = quad_row(&fx[..tile_w], &mut qrow[..tile_w], &coeffs, slab.qcut[k]);
                let mut pass = VecRowPass {
                    splat_index: table[k].splat_index,
                    opacity: slab.opacity[k],
                    color: slab.color[k],
                    depth: slab.depth[k],
                    qrow: &qrow,
                    reject,
                    contrib,
                    lanes,
                    active: &mut active,
                    row: &mut row,
                    evals,
                    early_terminated: &mut out.early_terminated,
                };
                match (slab.interior[k], tape.is_some()) {
                    (true, true) => blend_entry_row_vec::<true, true>(&mut pass),
                    (true, false) => blend_entry_row_vec::<true, false>(&mut pass),
                    (false, true) => blend_entry_row_vec::<false, true>(&mut pass),
                    (false, false) => blend_entry_row_vec::<false, false>(&mut pass),
                }
                if active == 0 {
                    if k + 1 < len {
                        out.saturated_rows += 1;
                    }
                    reached = k + 1;
                    break;
                }
            }
            walked = walked.max(reached);
            while active != 0 {
                row.evals[active.trailing_zeros() as usize] = evals;
                active &= active - 1;
            }

            let row_base = (py - y0) * tile_w;
            for px_off in 0..tile_w {
                out.alpha_evals += row.evals[px_off] as u64;
                out.blend_ops += row.blends[px_off] as u64;
                let i = row_base + px_off;
                out.color[i] = row.color[px_off];
                out.depth[i] = row.depth[px_off];
                out.silhouette[i] = 1.0 - row.t[px_off];
                if let Some(w) = out.work.as_mut() {
                    w.per_pixel_evals[i] = row.evals[px_off].min(u16::MAX as u32) as u16;
                    w.per_pixel_blends[i] = row.blends[px_off].min(u16::MAX as u32) as u16;
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
    use crate::gaussian::{logit, Gaussian, GaussianCloud};
    use crate::loss::{compute_loss, LossConfig, LossKind};
    use crate::project::project_gaussians;
    use crate::render::{rasterize, render, RenderOptions, RenderOutput, RenderStats};
    use crate::tiles::{TileGrid, PREFIX};
    use crate::train::{train_pass, TrainScratch};
    use ags_image::{DepthImage, RgbImage};
    use ags_math::{Parallelism, Pcg32, Se3, Vec3};
    use std::sync::Arc;

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
            quad_row(fx, &mut out[offset..offset + width], &coeffs, f32::INFINITY);
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
                let reject = quad_row(&fx, &mut q[..width], &coeffs, cut);
                if dy * dy > hy2 {
                    culled_rows += 1;
                    assert_eq!(reject, u32::MAX >> (32 - width), "trial {trial}: dy {dy}");
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

    /// The reject mask [`quad_row`] returns is the scalar α-cut predicate,
    /// bit for bit, at every row width: `q` ∈ {±0, NaN, ±∞, subnormals,
    /// `qcut` and its neighbouring floats, ordinary values} against `qcut` ∈
    /// {NaN, −∞ (a zero-opacity splat), 0, finite of both signs}.
    #[test]
    fn reject_mask_matches_the_scalar_predicate() {
        assert_eq!(qcut(0.0), f32::NEG_INFINITY, "a zero-opacity splat cuts every q");
        let tiny = f32::from_bits(1);
        let neighbours = |x: f32| {
            let bits = x.to_bits();
            if x == 0.0 {
                [-tiny, tiny]
            } else {
                [f32::from_bits(bits - 1), f32::from_bits(bits + 1)]
            }
        };
        let mut q = [0.0f32; TILE_SIZE];
        for cut in [f32::NAN, qcut(0.0), 0.0, 7.25, -3.0, qcut(0.5)] {
            let mut values = vec![
                -0.0,
                0.0,
                f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::MIN_POSITIVE / 2.0,
                -f32::MIN_POSITIVE / 3.0,
                tiny,
                -tiny,
                1.0,
                -1.0,
                1e30,
            ];
            if cut.is_finite() {
                values.push(cut);
                values.extend(neighbours(cut));
            }
            let expected = |q: &[f32]| {
                let lane = |(i, &q): (usize, &f32)| u32::from(q < 0.0 || q > cut) << i;
                q.iter().enumerate().map(lane).fold(0, |mask, bit| mask | bit)
            };
            for width in 1..=TILE_SIZE {
                // One value in every lane: `q = ((−0·dx)·dx + (−0·dx)·1) + v`
                // is `(−0 + −0) + v = v` for `dx > 0`, signed zeros included.
                let fx: Vec<f32> = (1..=width).map(|x| x as f32).collect();
                for &v in &values {
                    let coeffs = QuadCoeffs { mean_x: 0.0, a: -0.0, s2b: -0.0, dy: 1.0, t3: v };
                    let mask = quad_row(&fx, &mut q[..width], &coeffs, cut);
                    for &got in &q[..width] {
                        let planted = got.to_bits() == v.to_bits() || got.is_nan() && v.is_nan();
                        assert!(planted, "{v} planted as {got}");
                    }
                    assert_eq!(mask, expected(&q[..width]), "q {v}, qcut {cut}, width {width}");
                }
                // A different value in every lane: `q = ((0·x)·x + x) − 0`,
                // which is `x` for finite non-zero `x`.
                for shift in 0..values.len() {
                    let fx: Vec<f32> =
                        (0..width).map(|i| values[(i + shift) % values.len()]).collect();
                    let coeffs = QuadCoeffs { mean_x: 0.0, a: 0.0, s2b: 1.0, dy: 1.0, t3: -0.0 };
                    let mask = quad_row(&fx, &mut q[..width], &coeffs, cut);
                    assert_eq!(mask, expected(&q[..width]), "q {:?}, qcut {cut}", &q[..width]);
                }
            }
        }
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
        deep_scene_with((0.002, 0.06))
    }

    /// [`deep_scene`] with the background's opacities drawn from `faint`.
    fn deep_scene_with(faint: (f32, f32)) -> (GaussianCloud, IdSet, PinholeCamera) {
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
                rng.range_f32(faint.0, faint.1),
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
        let tiles = tables.grid.num_tiles();
        let shallowest = (0..tiles).map(|t| tables.table_len(t)).min().unwrap();
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
                let tiles = tables.grid.num_tiles();
                assert!((0..tiles).all(|t| tables.table_len(t) == n), "tables must hold all {n}");
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

    /// Rows whose pixels saturate at different entries: small opaque splats
    /// in front of a frame-filling opaque back layer, faint splats among
    /// them, a skip set, and a zero-opacity splat (`qcut = −∞`) centred on a
    /// pixel row, so that row evaluates its quadratic and rejects every lane.
    fn lane_mask_scene(width: usize, height: usize) -> (GaussianCloud, IdSet, PinholeCamera) {
        let mut cloud = random_cloud(11, 240, (0.9, 0.995));
        cloud.extend(random_cloud(12, 160, (0.001, 0.02)).gaussians().iter().copied());
        for i in 0..3 {
            let back = Vec3::new(0.1 * i as f32, -0.1, 6.0 + i as f32);
            cloud.push(Gaussian::isotropic(back, 4.0, Vec3::new(0.2, 0.3, 0.4), 0.99));
        }
        // Centred on the optical axis: its mean is the principal point, a
        // pixel row for an odd height.
        let mut zero = Gaussian::isotropic(Vec3::new(0.0, 0.0, 0.8), 0.3, Vec3::ONE, 0.5);
        zero.opacity_logit = -200.0;
        assert_eq!(zero.opacity(), 0.0);
        cloud.push(zero);
        let mut skip = IdSet::with_capacity(cloud.len());
        for id in (0..cloud.len()).step_by(6) {
            skip.insert(id);
        }
        (cloud, skip, PinholeCamera::from_fov(width, height, 1.2))
    }

    /// The lane-mask walk against the oracle where it differs most from a
    /// pixel list: pixels of one row leaving it at different entries, every
    /// lane rejected at once, and 16-, 13- and 3-pixel tile widths.
    #[test]
    fn lane_mask_walk_matches_the_oracle_where_rows_saturate_unevenly() {
        // 61 px wide: 16- and 13-pixel tiles; 51: 16- and 3-pixel ones.
        for (w, h) in [(61, 45), (51, 35)] {
            let scene = lane_mask_scene(w, h);
            let (cloud, cam) = (&scene.0, scene.2);
            let projection = project_gaussians(cloud, &cam, &Se3::IDENTITY);
            let zero = projection.splats.iter().find(|s| s.opacity == 0.0).expect("visible");
            assert_eq!(zero.mean.y, cam.cy, "{w}x{h}");
            assert_eq!(cam.cy.fract(), 0.0, "{w}x{h}: the principal point must be a pixel row");
            let stats = check_against_oracle_with(scene, false);
            assert!(stats.saturated_rows > 0, "{w}x{h}: rows must saturate");
            let grid = TileGrid::for_camera(&cam);
            // Three distinct counts in a row: at least two pixels left it at
            // different entries before the row ended.
            let uneven = stats.tile_work.iter().any(|work| {
                let (x0, _, x1, _) = grid.tile_bounds(work.tile as usize);
                work.per_pixel_evals.chunks(x1 - x0).any(|row| {
                    let mut counts = row.to_vec();
                    counts.sort_unstable();
                    counts.dedup();
                    counts.len() >= 3
                })
            });
            assert!(uneven, "{w}x{h}: pixels of a row must saturate at different entries");
        }
    }

    /// A splat whose mean projects to pixel `(u, v)` at depth `z`, with
    /// screen-space standard deviations `(sx, sy)` (before the blur).
    fn splat_at(cam: &PinholeCamera, (u, v): (f32, f32), z: f32, (sx, sy): (f32, f32)) -> Gaussian {
        let world = |px: f32| px * z / cam.fx;
        let mean = Vec3::new(world(u - cam.cx), world(v - cam.cy), z);
        let mut splat = Gaussian::isotropic(mean, 1.0, Vec3::new(0.6, 0.5, 0.4), 0.95);
        splat.log_scale = Vec3::new(world(sx).ln(), world(sy).ln(), world(sx.min(sy)).ln());
        splat
    }

    /// One tile row of four tiles, A | B | X | C, each holding a boundary of
    /// the reference's row statistics. Front to back: a band on pixel row 3
    /// across the frame (α 0.95 there), a wide opaque blob centred on C, two
    /// frame-filling walls (α 0.95 each, so T ≈ 0.0025 behind them), then
    /// tile-local splats. A pixel saturates on the second wall where the band
    /// or the blob took T down far enough in front of it, and nowhere else.
    ///
    /// * A's table ends on the second wall: its band row's pixels saturate on
    ///   the final entry, so it is not a saturated row and A walks it all.
    /// * B's table ends in two skipped splats: its band row is a saturated
    ///   row whose walk stops before them.
    /// * X holds the blob's edge: rows whose pixels saturate on one side and
    ///   never on the other.
    /// * C saturates every row on the blob, and a splat covering C sits
    ///   behind the walls, unskipped and never walked.
    fn row_boundary_scene() -> (GaussianCloud, IdSet, PinholeCamera) {
        let cam = PinholeCamera::from_fov(64, 16, 1.2);
        let (cx, cy) = (cam.cx, cam.cy);
        let mut cloud = GaussianCloud::new();
        cloud.push(splat_at(&cam, (cx, 3.0), 2.0, (1000.0, 0.5)));
        let mut blob = splat_at(&cam, (55.5, cy), 3.0, (60.0, 60.0));
        blob.opacity_logit = logit(0.999);
        cloud.push(blob);
        for z in [10.0, 11.0] {
            cloud.push(splat_at(&cam, (cx, cy), z, (1000.0, 1000.0)));
        }
        cloud.push(splat_at(&cam, (55.5, cy), 25.0, (6.0, 6.0)));
        let mut skip = IdSet::with_capacity(cloud.len() + 2);
        for (v, z) in [(4.0, 30.0), (11.0, 31.0)] {
            skip.insert(cloud.push(splat_at(&cam, (24.0, v), z, (1.0, 1.0))));
        }
        (cloud, skip, cam)
    }

    #[test]
    fn derived_row_statistics_match_the_oracle_at_their_boundaries() {
        let scene = row_boundary_scene();
        let (cloud, cam) = (&scene.0, scene.2);
        let projection = project_gaussians(cloud, &cam, &Se3::IDENTITY);
        let tables = GaussianTables::build_reference(&projection, &cam);
        let options = RenderOptions {
            skip: Some(Arc::new(scene.1.clone())),
            collect_tile_work: true,
            backend: BackendKind::Reference,
            ..RenderOptions::default()
        };
        let tile = |t| crate::render::rasterize_tile(&projection, &tables, t, &options);
        let [a, b, x, c] = [0, 1, 2, 3].map(tile);
        // (table length, walked pairs, saturated rows, interior pairs)
        let rows = |t: usize, r: &TileRaster| {
            (tables.table_len(t) as u64, r.walked_pairs, r.saturated_rows, r.interior_pairs)
        };
        // A: the band row's 16 pixels saturate on the final entry.
        assert_eq!(rows(0, &a), (4, 4, 0, 3));
        let band_row = &a.work.as_ref().expect("collected").per_pixel_evals[3 * TILE_SIZE..][..16];
        assert_eq!((a.early_terminated, band_row), (16, &[4; 16][..]));
        // B: the band row stops on the walls, ahead of the two skipped splats;
        // the other rows walk to the end.
        assert_eq!(rows(1, &b), (6, 6, 1, 3));
        // X: pixels saturate in rows that are not saturated rows.
        assert!(x.saturated_rows < 16 && x.early_terminated > 16 * x.saturated_rows);
        // C: every row stops on the walls; the entry behind them covers C.
        assert_eq!(rows(3, &c), (5, 4, 16, 3));
        let behind = &projection.splats[tables.canonical(3)[4].splat_index as usize];
        assert!(splat_covers_tile(behind, tables.grid.tile_bounds(3)));
        check_against_oracle_with(scene, false);
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
    fn check_against_oracle(scene: (GaussianCloud, IdSet, PinholeCamera)) -> RenderStats {
        check_against_oracle_with(scene, true)
    }

    /// [`check_against_oracle`] for fixtures that test which tables a walk
    /// reads: every table-walking path, but `all_losses` false trains with
    /// one loss in one gradient mode — the losses and modes differ after the
    /// walk, not in it.
    fn check_against_oracle_with(
        (cloud, skip, cam): (GaussianCloud, IdSet, PinholeCamera),
        all_losses: bool,
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
            assert_eq!(reference.stats.deepened_tiles, 0, "the oracle's tables are complete");
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
                        assert_eq!(first.deepened_tiles, got.stats.deepened_tiles, "{what}");
                    }
                }
            }
            let (gt_rgb, gt_depth) = gt_for(&reference, 5);
            // The mask threshold sits between saturated and thin pixels.
            let masked = LossConfig { mask_threshold: 0.9995, ..LossConfig::tracking() };
            let losses = if all_losses {
                &[LossConfig::mapping(), masked, l2_config()][..]
            } else {
                &[l2_config()]
            };
            let modes = if all_losses {
                &[GradMode::Map, GradMode::Track, GradMode::Both][..]
            } else {
                &[GradMode::Both]
            };
            for &loss_config in losses {
                let loss = compute_loss(&reference, &gt_rgb, &gt_depth, &loss_config);
                for &mode in modes {
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

    /// The deep scene behind a fainter background: rows off the opaque front
    /// walk past the prefix before they saturate, rows under it do not.
    #[test]
    fn taped_backward_is_bit_identical_to_reference_replay_where_walks_cross_the_prefix() {
        let (cam, tiles) = (deep_scene().2, deep_scene().2.width.div_ceil(TILE_SIZE) * 3);
        let stats = check_against_oracle(deep_scene_with((0.002, 0.02)));
        let (deepened, walked) = (stats.deepened_tiles, stats.walked_pairs);
        assert!(deepened > 0 && stats.saturated_rows > 0, "{deepened} deepened");
        assert!(walked > (PREFIX * tiles) as u64 / 2 && walked < stats.pairs / 2, "{walked}");
        assert_eq!(TileGrid::for_camera(&cam).num_tiles(), tiles);
    }

    /// Gives the `group` entries from depth rank `rank` on one depth: a tie
    /// group starting at table index `rank` of every tile they all cover.
    /// Returns their ids.
    fn tie_depths(cloud: &mut GaussianCloud, rank: usize, group: usize) -> Vec<usize> {
        let tied = by_depth(cloud)[rank..rank + group].to_vec();
        let splats = cloud.gaussians_mut();
        for &id in &tied {
            splats[id].position.z = splats[tied[0]].position.z;
        }
        tied
    }

    /// Splat ids by `(depth, id)`: table order for frame-filling splats.
    fn by_depth(cloud: &GaussianCloud) -> Vec<usize> {
        let mut order: Vec<usize> = (0..cloud.len()).collect();
        let z = |id: usize| cloud.gaussians()[id].position.z;
        order.sort_by(|&a, &b| z(a).total_cmp(&z(b)).then(a.cmp(&b)));
        order
    }

    /// Tiles whose canonical order differs from `(depth, index)`.
    fn reordered_tiles(cloud: &GaussianCloud, cam: &PinholeCamera) -> usize {
        let projection = project_gaussians(cloud, cam, &Se3::IDENTITY);
        let tables = GaussianTables::build_complete(&projection, cam);
        let reordered = |t: &usize| tables.prefix(*t) != tables.canonical(*t);
        (0..tables.grid.num_tiles()).filter(reordered).count()
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

    /// Tables one short of the prefix, exactly it, one past it and twice it,
    /// all of which rows walk into: built whole up to the cap, truncated past
    /// it and completed by the first row that walks off the prefix.
    #[test]
    fn tables_around_the_prefix_match_the_oracle() {
        let cam = PinholeCamera::from_fov(61, 45, 1.2);
        let tiles = TileGrid::for_camera(&cam).num_tiles() as u64;
        for n in [PREFIX - 1, PREFIX, PREFIX + 1, 2 * PREFIX] {
            let (cloud, skip) = layered_cloud(n);
            let stats = check_against_oracle_with((cloud, skip, cam), false);
            assert_eq!(stats.deepened_tiles, if n > PREFIX { tiles } else { 0 }, "{n} entries");
            if n <= PREFIX + 1 {
                assert_eq!(stats.walked_pairs, stats.pairs, "{n} entries: rows walk every entry");
            } else {
                let walked = stats.walked_pairs;
                assert!(walked > tiles * PREFIX as u64 && walked < stats.pairs, "{n}: {walked}");
            }
            assert_eq!(stats.canonical_tiles, 0, "{n} entries");
        }
    }

    /// Tie groups around the cap, in tables rows walk to the end of: first
    /// ties a block before it, just before it, on its last entry (the group
    /// straddles the cap), on its first unbuilt entry and past it.
    #[test]
    fn ties_around_the_prefix_match_the_oracle() {
        let cam = PinholeCamera::from_fov(51, 35, 1.2);
        let tiles = TileGrid::for_camera(&cam).num_tiles() as u64;
        let mut reordered = 0;
        for (first_tie, group) in [
            (PREFIX - SLAB_BLOCK - 1, 4),
            (PREFIX - 3, 2),
            (PREFIX - 2, 5),
            (PREFIX - 1, 2),
            (PREFIX - 1, SLAB_BLOCK),
            (PREFIX, 3),
            (PREFIX + SLAB_BLOCK - 1, 4),
        ] {
            let (mut cloud, skip) = layered_cloud(PREFIX + 2 * SLAB_BLOCK);
            tie_depths(&mut cloud, first_tie, group);
            reordered += reordered_tiles(&cloud, &cam);
            let what = format!("tie of {group} at {first_tie}");
            let stats = check_against_oracle_with((cloud, skip, cam), false);
            assert_eq!(stats.walked_pairs, stats.pairs, "{what}: every row walks every entry");
            assert_eq!(stats.deepened_tiles, tiles, "{what}");
            assert_eq!(stats.canonical_tiles, tiles, "{what}");
        }
        assert!(reordered > 0, "no fixture's tie group sorts differently by index");
    }

    /// Every row stops in a run of opaque frame-filling splats starting a
    /// few entries either side of the cap and up to a slab block past it, so
    /// walks end on the prefix, just off it and at every phase of the block
    /// after it — with a tie in the complete table the walks never reach.
    #[test]
    fn walks_ending_around_the_prefix_match_the_oracle() {
        let cam = PinholeCamera::from_fov(61, 45, 1.2);
        let tiles = TileGrid::for_camera(&cam).num_tiles();
        for stop in [
            PREFIX - 4,
            PREFIX - 1,
            PREFIX,
            PREFIX + 1,
            PREFIX + SLAB_BLOCK / 2,
            PREFIX + SLAB_BLOCK - 1,
            PREFIX + SLAB_BLOCK,
        ] {
            let (mut cloud, skip) = layered_cloud(2 * PREFIX);
            tie_depths(&mut cloud, 2 * PREFIX - 8, 4);
            let order = by_depth(&cloud);
            for &id in &order[stop..stop + 8] {
                let splat = &mut cloud.gaussians_mut()[id];
                splat.opacity_logit = crate::gaussian::logit(0.999);
            }
            let what = format!("opaque from {stop}");
            let stats = check_against_oracle_with((cloud, skip, cam), false);
            let walked = stats.walked_pairs as usize;
            assert!(walked > tiles * stop && walked <= tiles * (stop + 8), "{what}: {walked}");
            let deepened = if walked > tiles * (PREFIX - 1) { tiles } else { 0 };
            assert_eq!(stats.deepened_tiles as usize, deepened, "{what}");
            assert_eq!(stats.canonical_tiles, 0, "{what}");
        }
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
