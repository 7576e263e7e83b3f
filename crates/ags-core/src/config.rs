//! AGS hyper-parameters (paper §4.3 and §6.6).

use ags_codec::CodecConfig;
use ags_math::{Parallelism, WorkerPool};
use ags_slam::SlamConfig;
use ags_splat::BackendKind;
use ags_track::coarse::CoarseConfig;
use std::sync::Arc;

/// Execution strategy of the assembled pipeline (paper Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PipelineMode {
    /// One thread runs FC → track → map per frame, in order.
    #[default]
    Serial,
    /// CODEC FC detection runs on a dedicated worker thread connected by a
    /// bounded channel, overlapping frame `N+1`'s FC work with frame `N`'s
    /// tracking/mapping (Fig. 9b). Bit-identical to [`PipelineMode::Serial`].
    Overlapped,
    /// The second pipeline axis on top of [`PipelineMode::Overlapped`]:
    /// mapping also moves to its own worker thread, so Track(N+1) overlaps
    /// Map(N). Tracking reads an epoch-stale map snapshot — Track(N+1)
    /// always sees the map published by Map(N − [`PipelineConfig::map_slack`]),
    /// **independent of thread timing** — so the mode is bit-identical to
    /// the serial *deferred-map* reference ([`crate::pipeline::AgsSlam`]
    /// constructed with this same mode), not to [`PipelineMode::Serial`].
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
    /// Staleness of the map snapshot tracking reads in
    /// [`PipelineMode::MapOverlapped`], in epochs: Track(N+1) reads the
    /// snapshot published by Map(N − `map_slack`). `1` (the default) is the
    /// minimum that lets Track(N+1) run while Map(N) is still in flight;
    /// `0` degenerates to the classic serial read-after-map semantics (no
    /// overlap, but still two threads). Ignored in the other modes.
    pub map_slack: usize,
    /// Test-only backpressure knob: stalls every map-stage invocation by
    /// this many milliseconds so stress tests can force the FC worker to
    /// run ahead and block on the bounded channel. Keep `0` in production.
    pub stress_map_stall_ms: u64,
    /// Bounds [`stress_map_stall_ms`](Self::stress_map_stall_ms) to a
    /// *pulse*: when nonzero, only frames with index below this value stall.
    /// Overload tests use the pulse to model a burst that clears — escalate
    /// under pressure, then verify the decay back to full service — with a
    /// schedule that is a pure function of the frame index. `0` means every
    /// frame stalls (the PR-4 behaviour).
    pub stress_map_stall_frames: u64,
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
            map_slack: 1,
            stress_map_stall_ms: 0,
            stress_map_stall_frames: 0,
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

    /// The map staleness the configured mode actually uses: `map_slack`
    /// (clamped to `0..=8`) under [`PipelineMode::MapOverlapped`], `0` —
    /// tracking always reads the freshest map — otherwise. Both drivers
    /// derive their semantics from this one value, which is what makes the
    /// serial deferred-map reference and the threaded driver comparable.
    pub fn effective_map_slack(&self) -> usize {
        match self.mode {
            PipelineMode::MapOverlapped => self.map_slack.min(8),
            _ => 0,
        }
    }
}

/// Graceful-degradation ladder of the per-stream QoS controller
/// (`MultiStreamServer`): each level does deterministically *less* work per
/// frame than the one before. Levels are totally ordered; the controller
/// escalates one rung at a time under sustained pressure and decays one
/// rung at a time once pressure clears (see [`QosConfig`]).
///
/// Every level's effect is a pure function of the frame stream and the
/// admission schedule — never of thread timing — so a shed schedule replays
/// bit-identically on any worker count. The level each frame was admitted
/// under is a semantic field of `TraceFrame` (part of `canonical_bytes`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum ShedLevel {
    /// Full service: the stream's configured policy, untouched.
    #[default]
    Full = 0,
    /// The map snapshot slack is forced to `0` — the classic serial
    /// read-after-map semantics of `StreamPolicy::serial()` — so the stream
    /// stops holding divergent copy-on-write snapshots and queued map
    /// epochs. (Frames still flow through the stream's worker threads; only
    /// the overlap semantics degrade.)
    ForceSerial = 1,
    /// On top of [`ForceSerial`](Self::ForceSerial): non-key frames skip
    /// tracking and mapping entirely after the (cheap, CODEC-side) FC
    /// decision. The frame repeats the last estimated pose and publishes an
    /// unchanged map epoch, so the frame↔epoch contract every driver and
    /// checkpoint relies on still holds. Key frames are always processed in
    /// full — the map keeps absorbing genuinely new content.
    DropNonKey = 2,
    /// `push_frame` refuses new frames with `StreamError::Overloaded`
    /// (non-sticky). Rejected pushes count toward the decay probation, so a
    /// caller that keeps offering frames re-admits automatically once
    /// pressure clears.
    RejectAdmission = 3,
}

impl ShedLevel {
    /// One rung up the ladder (saturating).
    pub fn escalate(self) -> Self {
        Self::from_u8(self as u8 + 1)
    }

    /// One rung down the ladder (saturating).
    pub fn decay(self) -> Self {
        Self::from_u8((self as u8).saturating_sub(1))
    }

    /// The level encoded in traces/checkpoints (values above the ladder
    /// clamp to [`RejectAdmission`](Self::RejectAdmission)).
    pub fn from_u8(value: u8) -> Self {
        match value {
            0 => Self::Full,
            1 => Self::ForceSerial,
            2 => Self::DropNonKey,
            _ => Self::RejectAdmission,
        }
    }
}

/// Per-stream QoS / admission-control policy of `MultiStreamServer`
/// (`StreamPolicy::with_qos`).
///
/// The controller consumes each frame's *recorded* stage times — already
/// part of the deterministic trace — in completion order. A frame is
/// **pressured** when its `stall_s` exceeds [`stall_budget_s`] or its map
/// or track stage exceeds [`stage_budget_s`] (the watchdog: exceeding it
/// also increments `StreamStats::watchdog_flags`). Every [`window`]
/// completed frames the controller decides once:
///
/// * at least [`escalate_at`] pressured frames → escalate one
///   [`ShedLevel`] (clamped to [`max_level`]);
/// * zero pressured frames → after [`decay_after`] consecutive such
///   windows, decay one level (hysteresis — a single quiet window does not
///   flap the ladder);
/// * anything in between → hold, and reset the decay streak.
///
/// While admission is rejected no frames complete; every [`window`]
/// *rejected* pushes count as one quiet window instead, so the stream walks
/// back down the ladder under a caller that keeps offering frames.
///
/// Determinism: the decision inputs are measured wall times, so the shed
/// schedule is machine-dependent at mid-range budgets and fully
/// deterministic at decisive ones (budgets far below or above every real
/// stage time, e.g. against the `stress_map_stall_ms` pulse the overload
/// tests force).
///
/// [`stall_budget_s`]: Self::stall_budget_s
/// [`stage_budget_s`]: Self::stage_budget_s
/// [`window`]: Self::window
/// [`escalate_at`]: Self::escalate_at
/// [`decay_after`]: Self::decay_after
/// [`max_level`]: Self::max_level
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosConfig {
    /// Per-frame pipeline stall (seconds) above which a frame is pressured.
    pub stall_budget_s: f64,
    /// Watchdog budget (seconds) on the map and track stages: a frame whose
    /// map or track time exceeds it is flagged *and* pressured.
    /// `f64::INFINITY` disables the watchdog.
    pub stage_budget_s: f64,
    /// Completed frames per shed decision (clamped to at least 1).
    pub window: usize,
    /// Pressured frames within a window that trigger an escalation.
    pub escalate_at: usize,
    /// Consecutive fully-quiet windows before one level of decay.
    pub decay_after: usize,
    /// The worst level the controller may escalate to. `ShedLevel::Full`
    /// turns the controller into a pure watchdog (flags, never sheds).
    pub max_level: ShedLevel,
}

impl Default for QosConfig {
    /// Pressure past 250 ms stalls or 1 s stages, decide every 8 frames,
    /// escalate when half the window is pressured, decay after 2 quiet
    /// windows, full ladder available.
    fn default() -> Self {
        Self {
            stall_budget_s: 0.25,
            stage_budget_s: 1.0,
            window: 8,
            escalate_at: 4,
            decay_after: 2,
            max_level: ShedLevel::RejectAdmission,
        }
    }
}

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
    /// Commit whenever the QoS controller changes the stream's
    /// [`ShedLevel`] — overload is exactly when a crash is most likely and
    /// a fresh restore point is cheapest relative to the work being shed.
    OnShed,
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
    /// CODEC motion-estimation configuration.
    pub codec: CodecConfig,
    /// Record the ground-truth non-contributory sets on non-key frames to
    /// measure the false-positive rate (§6.2). Costs an extra audit render.
    pub audit_false_positives: bool,
    /// Thread-level parallelism of the hot kernels (CODEC motion estimation,
    /// tile binning, rasterization, backward pass). Applied on top of
    /// `codec.parallelism` by [`AgsConfig::resolve`]; parallel execution is
    /// bit-identical to [`Parallelism::serial()`].
    pub parallelism: Parallelism,
    /// Stage-graph execution strategy: serial, or FC overlapped with
    /// tracking/mapping on a worker thread (Fig. 9b).
    pub pipeline: PipelineConfig,
    /// Render backend the splat kernels (projection, rasterization,
    /// backward) execute on. Every backend is bit-identical to the scalar
    /// reference; the knob trades nothing but speed. Defaults to the
    /// vectorized backend.
    pub backend: BackendKind,
    /// Reuse per-splat projections across mapping iterations and frames
    /// whose pose and splat parameters are unchanged
    /// (`ags_splat::ProjectionCache`). Result-identical to recomputing —
    /// only wall time and the observational hit counters change.
    pub projection_cache: bool,
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

    /// Resolves derived settings. Both pipeline drivers call this on
    /// construction:
    ///
    /// * One knob rules the whole pipeline — the CODEC inherits the
    ///   system-level parallelism setting unless the caller configured the
    ///   codec's own knob away from its default.
    /// * One **executor** rules the whole pipeline — a single shared
    ///   [`WorkerPool`] handle is installed into every stage's knob, so the
    ///   FC worker thread and the SLAM stages of
    ///   [`crate::pipelined::PipelinedAgsSlam`] submit to the same set of
    ///   threads instead of oversubscribing the machine. A caller-installed
    ///   pool handle (multi-stream servers share one pool across streams)
    ///   is respected and propagated.
    /// * Covisibility-guided mapping ([`SlamConfig::covis_window`]) needs
    ///   per-keyframe FC for the whole mapping window, so the codec's
    ///   key-frame reference window is widened to cover it.
    pub fn resolve(mut self) -> Self {
        if self.codec.parallelism == Parallelism::default()
            && self.codec.parallelism.pool().is_none()
        {
            self.codec.parallelism = self.parallelism.clone();
        }
        if self.slam.covis_window {
            self.codec.keyframe_window = self.codec.keyframe_window.max(self.slam.mapping_window);
        }
        let stages_need_pool = self.parallelism.enabled && self.parallelism.pool().is_none();
        let codec_needs_pool =
            self.codec.parallelism.enabled && self.codec.parallelism.pool().is_none();
        if stages_need_pool || codec_needs_pool {
            // Materialised lazily: a fully serial configuration must not
            // spawn the global pool's worker threads.
            let pool: Arc<WorkerPool> = match self.parallelism.pool() {
                Some(pool) => Arc::clone(pool),
                None => Arc::clone(WorkerPool::global()),
            };
            if stages_need_pool {
                self.parallelism = self.parallelism.on_pool(Arc::clone(&pool));
            }
            if codec_needs_pool {
                self.codec.parallelism = self.codec.parallelism.on_pool(pool);
            }
        }
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
    fn resolve_widens_codec_window_for_covis_mapping() {
        let mut config = AgsConfig::tiny();
        config.slam.covis_window = true;
        config.slam.mapping_window = 5;
        let resolved = config.resolve();
        assert!(resolved.codec.keyframe_window >= 5);
        // Without the flag the codec keeps its classic single reference.
        let classic = AgsConfig::tiny().resolve();
        assert_eq!(classic.codec.keyframe_window, 1);
    }

    #[test]
    fn map_slack_only_applies_in_map_overlapped_mode() {
        let mut c = PipelineConfig::default();
        assert_eq!(c.effective_map_slack(), 0, "serial mode reads the freshest map");
        c.mode = PipelineMode::Overlapped;
        assert_eq!(c.effective_map_slack(), 0, "FC overlap alone changes nothing");
        assert_eq!(PipelineConfig::map_overlapped(1, 2).effective_map_slack(), 2);
        assert_eq!(PipelineConfig::map_overlapped(2, 0).effective_map_slack(), 0);
        assert_eq!(PipelineConfig::map_overlapped(1, 99).effective_map_slack(), 8, "clamped");
    }

    #[test]
    fn shed_ladder_is_ordered_and_saturates() {
        use ShedLevel::*;
        assert!(Full < ForceSerial && ForceSerial < DropNonKey && DropNonKey < RejectAdmission);
        assert_eq!(Full.escalate(), ForceSerial);
        assert_eq!(DropNonKey.escalate(), RejectAdmission);
        assert_eq!(RejectAdmission.escalate(), RejectAdmission, "top rung saturates");
        assert_eq!(RejectAdmission.decay(), DropNonKey);
        assert_eq!(Full.decay(), Full, "bottom rung saturates");
        for level in [Full, ForceSerial, DropNonKey, RejectAdmission] {
            assert_eq!(ShedLevel::from_u8(level as u8), level, "u8 round-trip");
        }
        assert_eq!(ShedLevel::from_u8(250), RejectAdmission, "out-of-ladder clamps");
    }

    #[test]
    fn iter_t_keeps_paper_ratio() {
        let c = AgsConfig::default();
        // Paper: IterT/N_T = 20/200 = 0.1; allow some slack for scaling.
        let ratio = c.iter_t as f32 / c.slam.tracking_iterations as f32;
        assert!(ratio <= 0.5, "IterT must be much smaller than N_T, ratio {ratio}");
    }
}
