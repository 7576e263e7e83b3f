//! AGS hyper-parameters (paper §4.3 and §6.6).

use ags_codec::CodecConfig;
use ags_math::{Parallelism, WorkerPool};
use ags_slam::SlamConfig;
use ags_splat::BackendKind;
use ags_track::coarse::CoarseConfig;
use std::sync::Arc;

/// Where the stages of the pipeline run (paper Fig. 9). Placement never
/// changes results: at equal [`PipelineConfig::map_slack`] every mode is
/// bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PipelineMode {
    /// One thread runs FC → track → map per frame, in order.
    #[default]
    Serial,
    /// CODEC FC detection runs on a dedicated worker thread connected by a
    /// bounded channel, overlapping frame `N+1`'s FC work with frame `N`'s
    /// tracking/mapping (Fig. 9b).
    Overlapped,
    /// The second pipeline axis on top of [`PipelineMode::Overlapped`]:
    /// mapping also moves to its own worker thread, so Track(N+1) overlaps
    /// Map(N) — which needs `map_slack ≥ 1` to overlap anything.
    MapOverlapped,
}

/// How the stage graph is driven (see `ags_core::pipelined`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Serial or overlapped execution.
    pub mode: PipelineMode,
    /// Frames of FC lookahead in [`PipelineMode::Overlapped`] and
    /// [`PipelineMode::MapOverlapped`]: the bounded stage channel buffers at
    /// most this many frames ahead of the SLAM stage (clamped to `1..=8` by
    /// the driver). The paper's Fig. 9(b) corresponds to a depth of 1.
    pub depth: usize,
    /// Staleness of the map snapshot tracking reads, in epochs, in every
    /// mode: Track(N+1) reads the snapshot published by Map(N − `map_slack`),
    /// independent of thread timing (clamped to `0..=8`). `0` (the default)
    /// is the classic read-after-map semantics; `1` is the minimum that lets
    /// Track(N+1) run while Map(N) is still in flight under
    /// [`PipelineMode::MapOverlapped`]. `Serial` with slack `k` is the
    /// deferred-map reference a `MapOverlapped` run at slack `k` matches.
    pub map_slack: usize,
    /// Test-only backpressure knob: stalls every map-stage invocation by
    /// this many milliseconds so stress tests can force the FC worker to
    /// run ahead and block on the bounded channel. Keep `0` in production.
    pub stress_map_stall_ms: u64,
    /// Test-only backpressure knob: stalls the FC worker by this many
    /// milliseconds per frame so tests can force the driver to wait on the
    /// FC result channel (counted in `StageTimes::stall_s`). Never changes
    /// decisions. Keep `0` in production.
    pub stress_fc_stall_ms: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            mode: PipelineMode::Serial,
            depth: 1,
            map_slack: 0,
            stress_map_stall_ms: 0,
            stress_fc_stall_ms: 0,
        }
    }
}

impl PipelineConfig {
    /// Overlapped execution with the given lookahead depth.
    pub fn overlapped(depth: usize) -> Self {
        Self { mode: PipelineMode::Overlapped, depth, ..Self::default() }
    }

    /// Two-axis overlapped execution (FC ‖ Track ‖ Map) with the given FC
    /// lookahead depth and map-snapshot staleness.
    pub fn map_overlapped(depth: usize, map_slack: usize) -> Self {
        Self { mode: PipelineMode::MapOverlapped, depth, map_slack, ..Self::default() }
    }

    /// The lookahead depth clamped to the supported range.
    pub fn clamped_depth(&self) -> usize {
        self.depth.clamp(1, 8)
    }

    /// The map staleness the driver uses: `map_slack` clamped to `0..=8`,
    /// whatever the mode.
    pub fn effective_map_slack(&self) -> usize {
        self.map_slack.min(MAX_MAP_SLACK)
    }
}

/// The largest map slack a driver runs at (and a checkpoint may carry).
pub(crate) const MAX_MAP_SLACK: usize = 8;

/// When `MultiStreamServer` commits a checkpoint generation to a stream's
/// attached store on its own (`StreamPolicy::with_checkpoint_policy`),
/// instead of — in addition to — caller-driven `checkpoint_stream` calls.
/// Nothing is written to the store between commits, so the commit points
/// alone decide what a crash loses and what the store holds.
/// Automatic commits quiesce the stream exactly like a manual checkpoint;
/// any frame records drained on the way are buffered and handed back on
/// subsequent `push_frame` calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckpointPolicy {
    /// Caller-driven commits only (the PR-6 behaviour).
    #[default]
    Manual,
    /// Commit every N completed frames (one map epoch per frame), so a
    /// crash loses at most N epochs. N is clamped to at least 1.
    EveryNEpochs(usize),
}

/// Configuration of the AGS pipeline.
///
/// Paper reference values (640×480): `ThreshT = 90 %`, `IterT = 20`,
/// `ThreshM = 50 %`, `Threshα = 1/255`, `ThreshN = 450` pixels. This
/// workspace renders smaller frames, so `ThreshN` is expressed as a
/// *fraction* of the frame and converted per resolution
/// ([`AgsConfig::thresh_n_pixels`]); `IterT` keeps the paper's ratio to the
/// baseline tracking budget (20/200 → scaled via the `SlamConfig`).
#[derive(Debug, Clone, PartialEq)]
pub struct AgsConfig {
    /// Covisibility above which the coarse pose estimate suffices
    /// (`ThreshT`, fraction in `[0, 1]`).
    pub thresh_t: f32,
    /// 3DGS pose-refinement iterations for low-covisibility frames
    /// (`IterT`).
    pub iter_t: u32,
    /// Covisibility (vs the last key frame) above which a frame is non-key
    /// (`ThreshM`, fraction in `[0, 1]`).
    pub thresh_m: f32,
    /// Fraction of frame pixels for the non-contributory designation
    /// (`ThreshN` as a resolution-independent fraction; the paper's 450 px
    /// at 640×480 ≈ 0.146 %).
    pub thresh_n_fraction: f32,
    /// Baseline SLAM configuration AGS wraps (mapping budget, densify, ...).
    pub slam: SlamConfig,
    /// Coarse tracker configuration.
    pub coarse: CoarseConfig,
    /// CODEC motion-estimation configuration. [`AgsConfig::resolve`]
    /// replaces its `parallelism` with the stage knob [`Self::parallelism`].
    pub codec: CodecConfig,
    /// Record the ground-truth non-contributory sets on non-key frames to
    /// measure the false-positive rate (§6.2). Costs an extra audit render.
    pub audit_false_positives: bool,
    /// Thread-level parallelism of the hot kernels (CODEC motion estimation,
    /// tile binning, rasterization, backward pass): [`AgsConfig::resolve`]
    /// copies it, with its pool, into `codec.parallelism`. Parallel
    /// execution is bit-identical to [`Parallelism::serial()`].
    pub parallelism: Parallelism,
    /// Stage-graph execution: where FC and mapping run (Fig. 9b) and how
    /// stale a map tracking reads.
    pub pipeline: PipelineConfig,
    /// Read nowhere: every stage runs the vectorized kernel (the scalar
    /// oracle is picked only through `ags_splat::RenderOptions::backend`).
    /// Only user: the struct literal at `benchmark/src/sut.rs:197`; kept
    /// until the next `benchmark` PR drops it there (`benchmark/` may not be
    /// edited).
    #[doc(hidden)]
    pub backend: BackendKind,
    /// Read nowhere: mapping always projects through its epoch-delta
    /// `ags_splat::ProjectionCache`. Only user: the struct literal at
    /// `benchmark/src/sut.rs:198`; kept until the next `benchmark` PR drops
    /// it there (`benchmark/` may not be edited).
    #[doc(hidden)]
    pub projection_cache: bool,
    /// Soft ceiling on the map's resident parameter bytes
    /// (`ags_splat::compact::map_bytes`; 0 = unlimited). When an epoch
    /// publishes above it, the mapping stage escalates: first it quantizes
    /// every chunk cold for ≥ 1 epoch, then it prunes the most-negligible
    /// recorded splats until the map fits or candidates run out.
    pub map_bytes_budget: u64,
}

impl Default for AgsConfig {
    fn default() -> Self {
        Self {
            thresh_t: 0.90,
            iter_t: 8,
            thresh_m: 0.50,
            thresh_n_fraction: 450.0 / (640.0 * 480.0),
            slam: SlamConfig::default(),
            coarse: CoarseConfig::default(),
            codec: CodecConfig::default(),
            audit_false_positives: false,
            parallelism: Parallelism::default(),
            pipeline: PipelineConfig::default(),
            backend: BackendKind::default(),
            projection_cache: false,
            map_bytes_budget: 0,
        }
    }
}

impl AgsConfig {
    /// A fast configuration for unit tests.
    pub fn tiny() -> Self {
        Self { iter_t: 4, slam: SlamConfig::tiny(), ..Self::default() }
    }

    /// `ThreshN` in absolute pixels for a given frame resolution (the count
    /// of negligible-α pixels above which a Gaussian is skipped).
    pub fn thresh_n_pixels(&self, width: usize, height: usize) -> u32 {
        ((width * height) as f32 * self.thresh_n_fraction).round().max(1.0) as u32
    }

    /// Resolves derived settings. The driver calls this on construction:
    ///
    /// * One knob rules the whole pipeline — the CODEC runs on the
    ///   system-level parallelism setting; whatever `codec.parallelism`
    ///   held is replaced.
    /// * One **executor** rules the whole pipeline — a single shared
    ///   [`WorkerPool`] handle is installed into every stage's knob, so the
    ///   FC worker thread and the SLAM stages of
    ///   [`crate::pipeline::AgsSlam`] submit to the same set of
    ///   threads instead of oversubscribing the machine. A caller-installed
    ///   pool handle (multi-stream servers share one pool across streams)
    ///   is respected and propagated.
    pub fn resolve(mut self) -> Self {
        if self.parallelism.enabled && self.parallelism.pool().is_none() {
            // Materialised lazily: a fully serial configuration must not
            // spawn the global pool's worker threads.
            self.parallelism = self.parallelism.on_pool(Arc::clone(WorkerPool::global()));
        }
        self.codec.parallelism = self.parallelism.clone();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = AgsConfig::default();
        assert_eq!(c.thresh_t, 0.90);
        assert_eq!(c.thresh_m, 0.50);
        // Paper: 450 px at 640x480.
        assert_eq!(c.thresh_n_pixels(640, 480), 450);
    }

    #[test]
    fn thresh_n_scales_with_resolution() {
        let c = AgsConfig::default();
        let small = c.thresh_n_pixels(128, 96);
        assert!((17..=19).contains(&small), "128x96 -> ~18 px, got {small}");
        assert!(c.thresh_n_pixels(64, 48) >= 1);
    }

    #[test]
    fn resolve_installs_one_shared_pool_across_stages() {
        let config = AgsConfig::tiny().resolve();
        let stage_pool = config.parallelism.pool().expect("stage pool installed");
        let codec_pool = config.codec.parallelism.pool().expect("codec pool installed");
        assert!(Arc::ptr_eq(stage_pool, codec_pool), "FC and SLAM stages share one executor");

        // A caller-provided pool is respected and propagated to the codec.
        let custom = Arc::new(WorkerPool::new(1));
        let mut config = AgsConfig::tiny();
        config.parallelism = Parallelism::with_pool(Arc::clone(&custom));
        let config = config.resolve();
        assert!(Arc::ptr_eq(config.parallelism.pool().unwrap(), &custom));
        assert!(Arc::ptr_eq(config.codec.parallelism.pool().unwrap(), &custom));

        // Serial mode installs no executor anywhere.
        let mut config = AgsConfig::tiny();
        config.parallelism = Parallelism::serial();
        let config = config.resolve();
        assert!(config.parallelism.pool().is_none());
        assert!(config.codec.parallelism.pool().is_none());
    }

    #[test]
    fn map_slack_applies_in_every_mode() {
        let mut c = PipelineConfig::default();
        assert_eq!(c.effective_map_slack(), 0, "the default reads the freshest map");
        assert_eq!(PipelineConfig::overlapped(2).effective_map_slack(), 0);
        for mode in [PipelineMode::Serial, PipelineMode::Overlapped, PipelineMode::MapOverlapped] {
            c.mode = mode;
            c.map_slack = 2;
            assert_eq!(c.effective_map_slack(), 2, "{mode:?}");
            c.map_slack = 99;
            assert_eq!(c.effective_map_slack(), MAX_MAP_SLACK, "{mode:?}: clamped");
        }
        assert_eq!(PipelineConfig::map_overlapped(2, 0).effective_map_slack(), 0);
    }

    #[test]
    fn iter_t_keeps_paper_ratio() {
        let c = AgsConfig::default();
        // Paper: IterT/N_T = 20/200 = 0.1; allow some slack for scaling.
        let ratio = c.iter_t as f32 / c.slam.tracking_iterations as f32;
        assert!(ratio <= 0.5, "IterT must be much smaller than N_T, ratio {ratio}");
    }
}
