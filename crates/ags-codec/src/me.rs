//! Block motion estimation: full search and diamond search.

use crate::covisibility::Covisibility;
use crate::plane::LumaPlane;
use ags_math::parallel::{par_map_ranges, Parallelism};

/// Search strategy for block matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchKind {
    /// Exhaustive search over the whole `±search_range` window. This is the
    /// reference result: guaranteed minimum SAD.
    FullSearch,
    /// Diamond search (LDSP/SDSP) — the strategy real encoders use; visits a
    /// small fraction of candidates and usually lands on the same minimum.
    #[default]
    Diamond,
}

/// Macro-block edge length in pixels: the CODEC searches 8×8 blocks, as
/// the paper does.
pub const MB_SIZE: usize = 8;

/// Mean-absolute-difference (per pixel) treated as "no covisibility" when
/// normalising SAD sums into a covisibility score. Calibrated so smooth
/// 30 Hz motion (MAD ≈ 3–6 after motion compensation) lands above the
/// paper's `ThreshT = 0.9` and fast-motion bursts (MAD ≥ 15) fall below it.
pub const NORM_MAD: f32 = 80.0;

/// Static configuration of the CODEC's motion-estimation stage, which
/// searches [`MB_SIZE`]×[`MB_SIZE`] macro-blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct CodecConfig {
    /// Maximum motion-vector magnitude per axis, in pixels.
    pub search_range: i32,
    /// Search strategy.
    pub search: SearchKind,
    /// Thread-level parallelism of [`MotionEstimator::estimate`]. The
    /// parallel path distributes macro-block rows across the pool's workers
    /// and is bit-identical to `Parallelism::serial()`.
    pub parallelism: Parallelism,
}

impl Default for CodecConfig {
    fn default() -> Self {
        Self { search_range: 8, search: SearchKind::Diamond, parallelism: Parallelism::default() }
    }
}

/// Best match found for one macro-block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MbMatch {
    /// Motion vector (reference position − current position), in pixels.
    pub mv: (i32, i32),
    /// Minimum SAD over the search.
    pub min_sad: u32,
}

/// Per-MB motion field for one frame pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MotionField {
    /// Number of MB columns.
    pub mb_cols: usize,
    /// Number of MB rows.
    pub mb_rows: usize,
    /// Row-major per-MB matches.
    pub entries: Vec<MbMatch>,
}

impl MotionField {
    /// Match for the MB at `(col, row)`.
    pub fn at(&self, col: usize, row: usize) -> MbMatch {
        self.entries[row * self.mb_cols + col]
    }

    /// Sum of min-SADs over all MBs — the quantity the AGS FC detection
    /// engine accumulates (paper Eqn. Σᵢ SADᵢmin).
    pub fn total_min_sad(&self) -> u64 {
        self.entries.iter().map(|e| e.min_sad as u64).sum()
    }

    /// Mean motion-vector magnitude in pixels.
    pub fn mean_motion(&self) -> f32 {
        if self.entries.is_empty() {
            return 0.0;
        }
        let sum: f32 =
            self.entries.iter().map(|e| ((e.mv.0 * e.mv.0 + e.mv.1 * e.mv.1) as f32).sqrt()).sum();
        sum / self.entries.len() as f32
    }
}

/// Result of motion estimation between one frame pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MotionResult {
    /// Per-MB motion field.
    pub field: MotionField,
    /// Number of SAD block evaluations performed (cost-model input).
    pub sad_evaluations: u64,
    /// Number of pixels covered by MBs (excludes partial border blocks).
    pub covered_pixels: u64,
}

impl MotionResult {
    /// Normalised covisibility of the frame pair: one minus the mean
    /// min-SAD per covered pixel over [`NORM_MAD`], clamped to `[0, 1]`.
    pub fn covisibility(&self) -> Covisibility {
        let denom = self.covered_pixels as f32 * NORM_MAD;
        if denom <= 0.0 {
            return Covisibility::new(1.0);
        }
        let dissimilarity = (self.field.total_min_sad() as f32 / denom).min(1.0);
        Covisibility::new(1.0 - dissimilarity)
    }
}

/// Software model of the CODEC motion-estimation engine.
#[derive(Debug, Clone)]
pub struct MotionEstimator {
    config: CodecConfig,
}

impl MotionEstimator {
    /// Creates an estimator with the given configuration.
    pub fn new(config: CodecConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CodecConfig {
        &self.config
    }

    /// Runs motion estimation of `current` against `reference`.
    ///
    /// Macro-block rows are distributed across the worker pool according to
    /// `config.parallelism`; per-MB results are merged back in row-major
    /// order, so the output is bit-identical to the serial path.
    ///
    /// # Panics
    ///
    /// Panics when plane dimensions differ or are smaller than one MB.
    pub fn estimate(&self, current: &LumaPlane, reference: &LumaPlane) -> MotionResult {
        assert_eq!(current.width(), reference.width(), "plane width mismatch");
        assert_eq!(current.height(), reference.height(), "plane height mismatch");
        assert!(current.width() >= MB_SIZE && current.height() >= MB_SIZE, "plane smaller than MB");

        let mb_cols = current.width() / MB_SIZE;
        let mb_rows = current.height() / MB_SIZE;

        // The serial-fallback workload estimate counts SAD evaluations, not
        // macro-blocks: a full-search MB probes the whole (2r+1)² window
        // while a diamond MB converges in ~13 candidates — and each diamond
        // SAD is cheap (bounded, early-exit against the running best), so
        // its *effective* weight is ~6 full-cost evaluations. Weighting it
        // higher made mid-size diamond frames fan out across the pool even
        // though the per-row work couldn't amortize the queue round-trip
        // (0.79× speedup on a 512×384 plane). Frames too small to feed
        // every pool executor `min_items_per_worker` evaluations run inline
        // — bit-identical, and no queue overhead on tiny SLAM frames.
        const DIAMOND_EVALS_PER_MB: usize = 6;
        let evals_per_mb = match self.config.search {
            SearchKind::FullSearch => {
                let side = (2 * self.config.search_range + 1).max(1) as usize;
                side * side
            }
            SearchKind::Diamond => DIAMOND_EVALS_PER_MB,
        };
        let work = mb_cols * mb_rows * evals_per_mb;
        let par = self.config.parallelism.for_workload(work, 512 * DIAMOND_EVALS_PER_MB);
        // One job per MB row. Per-MB searches are independent, so the
        // schedule never changes results.
        let chunks = par_map_ranges(&par, mb_rows, 1, |rows| {
            let mut entries = Vec::with_capacity(rows.len() * mb_cols);
            let mut evals = 0u64;
            let mut scratch = SearchScratch::new(self.config.search_range);
            for row in rows {
                for col in 0..mb_cols {
                    let (x, y) = (col * MB_SIZE, row * MB_SIZE);
                    let (m, e) = match self.config.search {
                        SearchKind::FullSearch => self.full_search(current, reference, x, y),
                        SearchKind::Diamond => {
                            self.diamond_search(current, reference, x, y, &mut scratch)
                        }
                    };
                    evals += e;
                    entries.push(m);
                }
            }
            (entries, evals)
        });

        let mut field =
            MotionField { mb_cols, mb_rows, entries: Vec::with_capacity(mb_cols * mb_rows) };
        let mut sad_evaluations = 0u64;
        for (entries, evals) in chunks {
            field.entries.extend(entries);
            sad_evaluations += evals;
        }
        MotionResult {
            field,
            sad_evaluations,
            covered_pixels: (mb_cols * mb_rows * MB_SIZE * MB_SIZE) as u64,
        }
    }

    /// SAD of the candidate at displacement `(dx, dy)`, abandoned early once
    /// it provably exceeds `bound` (see [`LumaPlane::block_sad_bounded`]).
    /// `None` when the candidate block falls outside the reference picture.
    #[allow(clippy::too_many_arguments)]
    fn candidate_sad(
        &self,
        current: &LumaPlane,
        reference: &LumaPlane,
        x: usize,
        y: usize,
        dx: i32,
        dy: i32,
        bound: u32,
    ) -> Option<u32> {
        let rx = x as i32 + dx;
        let ry = y as i32 + dy;
        if rx < 0
            || ry < 0
            || rx as usize + MB_SIZE > reference.width()
            || ry as usize + MB_SIZE > reference.height()
        {
            return None;
        }
        Some(current.block_sad_bounded(x, y, reference, rx as usize, ry as usize, bound))
    }

    fn full_search(
        &self,
        current: &LumaPlane,
        reference: &LumaPlane,
        x: usize,
        y: usize,
    ) -> (MbMatch, u64) {
        let r = self.config.search_range;
        let mut best = MbMatch { mv: (0, 0), min_sad: u32::MAX };
        let mut evals = 0u64;
        for dy in -r..=r {
            for dx in -r..=r {
                // `bound = best.min_sad` keeps every SAD that could win —
                // including ties, which the mv-cost rule below arbitrates —
                // exact, so the bounded search picks the same match as the
                // unbounded one.
                if let Some(sad) =
                    self.candidate_sad(current, reference, x, y, dx, dy, best.min_sad)
                {
                    evals += 1;
                    // Prefer the zero vector on ties (hardware behaviour —
                    // shorter MVs cost fewer bits).
                    if sad < best.min_sad
                        || (sad == best.min_sad && mv_cost(dx, dy) < mv_cost(best.mv.0, best.mv.1))
                    {
                        best = MbMatch { mv: (dx, dy), min_sad: sad };
                    }
                }
            }
        }
        if best.min_sad == u32::MAX {
            best.min_sad = 0;
        }
        (best, evals)
    }

    fn diamond_search(
        &self,
        current: &LumaPlane,
        reference: &LumaPlane,
        x: usize,
        y: usize,
        scratch: &mut SearchScratch,
    ) -> (MbMatch, u64) {
        const LDSP: [(i32, i32); 9] =
            [(0, 0), (0, -2), (1, -1), (2, 0), (1, 1), (0, 2), (-1, 1), (-2, 0), (-1, -1)];
        const SDSP: [(i32, i32); 5] = [(0, 0), (0, -1), (1, 0), (0, 1), (-1, 0)];

        let r = self.config.search_range;
        let mut center = (0i32, 0i32);
        let mut evals = 0u64;
        let mut best_sad = u32::MAX;
        scratch.begin_block();

        // Large diamond until the center wins (bounded by the search range).
        loop {
            let mut best_offset = (0, 0);
            let mut improved = false;
            for &(ox, oy) in &LDSP {
                let dx = (center.0 + ox).clamp(-r, r);
                let dy = (center.1 + oy).clamp(-r, r);
                // Successive LDSP steps overlap (and clamping aliases
                // candidates); each position is evaluated — and counted —
                // once. A revisited candidate can never beat the best SAD
                // recorded at its first evaluation, so skipping is exact.
                if !scratch.first_visit(dx, dy) {
                    continue;
                }
                if let Some(sad) = self.candidate_sad(current, reference, x, y, dx, dy, best_sad) {
                    evals += 1;
                    if sad < best_sad {
                        best_sad = sad;
                        best_offset = (dx - center.0, dy - center.1);
                        improved = true;
                    }
                }
            }
            if !improved || best_offset == (0, 0) {
                break;
            }
            center = (center.0 + best_offset.0, center.1 + best_offset.1);
            if center.0.abs() >= r && center.1.abs() >= r {
                break;
            }
        }

        // Small diamond refinement.
        let mut best = MbMatch { mv: center, min_sad: best_sad };
        for &(ox, oy) in &SDSP {
            let dx = (center.0 + ox).clamp(-r, r);
            let dy = (center.1 + oy).clamp(-r, r);
            if !scratch.first_visit(dx, dy) {
                continue;
            }
            if let Some(sad) = self.candidate_sad(current, reference, x, y, dx, dy, best.min_sad) {
                evals += 1;
                if sad < best.min_sad {
                    best = MbMatch { mv: (dx, dy), min_sad: sad };
                }
            }
        }
        if best.min_sad == u32::MAX {
            best.min_sad = 0;
        }
        (best, evals)
    }
}

/// Reusable visited-candidate table for one search worker.
///
/// Stamp-based: `begin_block` bumps a generation counter instead of clearing
/// the table, so the per-MB cost is O(1) while lookups stay exact.
#[derive(Debug, Clone)]
struct SearchScratch {
    visited: Vec<u32>,
    stamp: u32,
    side: i32,
}

impl SearchScratch {
    fn new(search_range: i32) -> Self {
        let side = 2 * search_range + 1;
        Self { visited: vec![0; (side * side) as usize], stamp: 0, side }
    }

    fn begin_block(&mut self) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Wrapped: old entries could alias the fresh stamp; reset.
            self.visited.fill(0);
            self.stamp = 1;
        }
    }

    /// Marks `(dx, dy)` visited; returns `false` when it already was.
    fn first_visit(&mut self, dx: i32, dy: i32) -> bool {
        let r = (self.side - 1) / 2;
        debug_assert!(dx.abs() <= r && dy.abs() <= r);
        let idx = ((dy + r) * self.side + (dx + r)) as usize;
        if self.visited[idx] == self.stamp {
            false
        } else {
            self.visited[idx] = self.stamp;
            true
        }
    }
}

#[inline]
fn mv_cost(dx: i32, dy: i32) -> i32 {
    dx.abs() + dy.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn textured_plane(w: usize, h: usize, shift: usize) -> LumaPlane {
        LumaPlane::from_fn(w, h, |x, y| {
            let xs = x + shift;
            (((xs * 13 + y * 7) ^ (xs * y / 3 + 5)) % 251) as u8
        })
    }

    #[test]
    fn identical_frames_zero_sad_zero_mv() {
        let p = textured_plane(32, 32, 0);
        for search in [SearchKind::FullSearch, SearchKind::Diamond] {
            let est = MotionEstimator::new(CodecConfig { search, ..CodecConfig::default() });
            let result = est.estimate(&p, &p);
            assert_eq!(result.field.total_min_sad(), 0, "{search:?}");
            assert!(result.field.entries.iter().all(|e| e.mv == (0, 0)), "{search:?}");
        }
    }

    #[test]
    fn full_search_finds_global_translation() {
        // reference(x) = f(x + 3), current(x) = f(x): the block at x in the
        // current frame matches the reference at x - 3 -> mv = (-3, 0).
        let reference = textured_plane(48, 32, 3);
        let current = textured_plane(48, 32, 0);
        let est = MotionEstimator::new(CodecConfig {
            search: SearchKind::FullSearch,
            ..CodecConfig::default()
        });
        let result = est.estimate(&current, &reference);
        // Interior MBs should find the exact shift with zero SAD.
        let interior = result.field.at(2, 2);
        assert_eq!(interior.min_sad, 0);
        assert_eq!(interior.mv, (-3, 0));
    }

    #[test]
    fn diamond_matches_full_search_on_smooth_motion() {
        let reference = textured_plane(48, 32, 2);
        let current = textured_plane(48, 32, 0);
        let full = MotionEstimator::new(CodecConfig {
            search: SearchKind::FullSearch,
            ..CodecConfig::default()
        })
        .estimate(&current, &reference);
        let diamond = MotionEstimator::new(CodecConfig {
            search: SearchKind::Diamond,
            ..CodecConfig::default()
        })
        .estimate(&current, &reference);
        // Diamond should find the same (zero-SAD) minimum on interior MBs
        // with far fewer evaluations.
        assert_eq!(diamond.field.at(2, 2).min_sad, full.field.at(2, 2).min_sad);
        assert!(diamond.sad_evaluations < full.sad_evaluations / 3);
    }

    #[test]
    fn parallel_estimate_is_bit_identical_to_serial() {
        let reference = textured_plane(96, 72, 3);
        let current = textured_plane(96, 72, 0);
        for search in [SearchKind::FullSearch, SearchKind::Diamond] {
            let serial = MotionEstimator::new(CodecConfig {
                search,
                parallelism: Parallelism::serial(),
                ..CodecConfig::default()
            })
            .estimate(&current, &reference);
            for threads in [2, 4, 7] {
                // min_items(0): this frame is below the small-work floor;
                // the test must still exercise the executor path.
                let parallel = MotionEstimator::new(CodecConfig {
                    search,
                    parallelism: Parallelism::with_threads(threads).min_items(0),
                    ..CodecConfig::default()
                })
                .estimate(&current, &reference);
                assert_eq!(serial, parallel, "{search:?} with {threads} threads");
            }
        }
    }

    #[test]
    fn diamond_counts_each_candidate_once() {
        // On identical frames the first LDSP round terminates immediately:
        // 9 LDSP candidates, and the SDSP ring adds 4 fresh ones (its center
        // is the already-visited LDSP center) -> 13 unique candidates per MB,
        // minus those falling outside the reference picture. The old code
        // re-evaluated the SDSP center, over-counting by one per MB.
        const UNIQUE: [(i32, i32); 13] = [
            (0, 0),
            (0, -2),
            (1, -1),
            (2, 0),
            (1, 1),
            (0, 2),
            (-1, 1),
            (-2, 0),
            (-1, -1),
            (0, -1),
            (1, 0),
            (0, 1),
            (-1, 0),
        ];
        let (w, h, mb) = (32usize, 32usize, MB_SIZE as i32);
        let p = textured_plane(w, h, 0);
        let est = MotionEstimator::new(CodecConfig {
            search: SearchKind::Diamond,
            ..CodecConfig::default()
        });
        let result = est.estimate(&p, &p);
        let mut expected = 0u64;
        for row in 0..result.field.mb_rows {
            for col in 0..result.field.mb_cols {
                let (x, y) = (col as i32 * mb, row as i32 * mb);
                expected += UNIQUE
                    .iter()
                    .filter(|(dx, dy)| {
                        x + dx >= 0
                            && y + dy >= 0
                            && x + dx + mb <= w as i32
                            && y + dy + mb <= h as i32
                    })
                    .count() as u64;
            }
        }
        assert_eq!(result.sad_evaluations, expected);
    }

    #[test]
    fn diamond_min_sad_never_beats_full_search() {
        // Full search is exhaustive: per MB its minimum is a lower bound on
        // whatever the heuristic diamond search settles on.
        for shift in [0usize, 1, 2, 5] {
            let reference = textured_plane(64, 48, shift);
            let current = textured_plane(64, 48, 0);
            let full = MotionEstimator::new(CodecConfig {
                search: SearchKind::FullSearch,
                ..CodecConfig::default()
            })
            .estimate(&current, &reference);
            let diamond = MotionEstimator::new(CodecConfig {
                search: SearchKind::Diamond,
                ..CodecConfig::default()
            })
            .estimate(&current, &reference);
            for (f, d) in full.field.entries.iter().zip(&diamond.field.entries) {
                assert!(d.min_sad >= f.min_sad, "shift {shift}: {d:?} vs {f:?}");
            }
        }
    }

    #[test]
    fn covisibility_ordering() {
        let base = textured_plane(64, 64, 0);
        let near = textured_plane(64, 64, 1);
        let far = LumaPlane::from_fn(64, 64, |x, y| ((x * 31 + y * 17 + 97) % 255) as u8);
        let est = MotionEstimator::new(CodecConfig::default());
        let cov_same = est.estimate(&base, &base).covisibility();
        let cov_near = est.estimate(&near, &base).covisibility();
        let cov_far = est.estimate(&far, &base).covisibility();
        assert!(cov_same.value() >= cov_near.value());
        assert!(cov_near.value() > cov_far.value(), "near {cov_near:?} far {cov_far:?}");
    }

    #[test]
    fn covisibility_bounded() {
        let a = LumaPlane::from_fn(16, 16, |_, _| 0);
        let b = LumaPlane::from_fn(16, 16, |_, _| 255);
        let cov = MotionEstimator::new(CodecConfig::default()).estimate(&a, &b).covisibility();
        assert!(cov.value() >= 0.0 && cov.value() <= 1.0);
        assert!(cov.value() < 0.05, "opposite planes should have ~0 covisibility");
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn dimension_mismatch_panics() {
        let a = LumaPlane::new(16, 16);
        let b = LumaPlane::new(24, 16);
        MotionEstimator::new(CodecConfig::default()).estimate(&a, &b);
    }

    #[test]
    fn partial_border_blocks_are_skipped() {
        // 20x20 with MB 8 -> 2x2 MBs cover 16x16 px.
        let p = textured_plane(20, 20, 0);
        let result = MotionEstimator::new(CodecConfig::default()).estimate(&p, &p);
        assert_eq!(result.field.mb_cols, 2);
        assert_eq!(result.field.mb_rows, 2);
        assert_eq!(result.covered_pixels, 256);
    }

    #[test]
    fn mean_motion_reflects_shift() {
        let reference = textured_plane(64, 32, 4);
        let current = textured_plane(64, 32, 0);
        let est = MotionEstimator::new(CodecConfig {
            search: SearchKind::FullSearch,
            ..CodecConfig::default()
        });
        let result = est.estimate(&current, &reference);
        assert!(result.field.mean_motion() > 2.0);
    }
}
