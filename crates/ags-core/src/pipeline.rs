//! The assembled AGS pipeline (paper Fig. 7 + walk-through Fig. 9b).
//!
//! Per incoming frame:
//!
//! 1. The CODEC computes covisibility against the previous frame and the
//!    last key frame ([`crate::stages::FcStage`]).
//! 2. **Movement-adaptive tracking** ([`crate::stages::TrackStage`]): the
//!    coarse Droid-style estimator runs on every frame; frames with
//!    `FC < ThreshT` additionally run `IterT` 3DGS pose-refinement
//!    iterations.
//! 3. **Gaussian contribution-aware mapping**
//!    ([`crate::stages::MapStage`]): frames with `FC(keyframe) < ThreshM`
//!    are key frames running full mapping with contribution recording;
//!    other frames run selective mapping that skips the predicted
//!    non-contributory Gaussians.
//!
//! [`AgsSlam`] drives the three stages serially on the calling thread —
//! including, under [`crate::config::PipelineMode::MapOverlapped`], the
//! serial *deferred-map reference* semantics where tracking reads a
//! `map_slack`-stale snapshot of the map. [`crate::pipelined::PipelinedAgsSlam`]
//! runs the same stage graph with real threads (FC worker, and a map worker
//! in `MapOverlapped`) — with bit-identical results to this driver under
//! the matching mode.

use crate::checkpoint::StreamState;
use crate::config::{AgsConfig, ShedLevel};
use crate::fc::{FcDecision, FcDetectorState};
use crate::stages::{
    FcStage, FrameImages, FrameInput, MapOutput, MapStage, TrackOutput, TrackStage,
};
use crate::trace::{StageTimes, TraceFrame, WorkloadTrace};
use ags_image::{DepthImage, RgbImage};
use ags_math::Se3;
use ags_scene::PinholeCamera;
use ags_splat::snapshot::{CloudSnapshot, SharedCloud, SnapshotWindow};
use ags_splat::GaussianCloud;
use std::time::Instant;

/// Per-frame AGS processing record.
#[derive(Debug, Clone)]
pub struct AgsFrameRecord {
    /// The trace entry (workloads + decisions).
    pub trace: TraceFrame,
    /// Estimated camera-to-world pose.
    pub estimated_pose: Se3,
    /// Gaussians skipped by selective mapping this frame.
    pub skipped_gaussians: usize,
}

/// Starts a frame's trace record from its FC decision. Shared by both
/// drivers so their records are constructed field-for-field identically.
pub(crate) fn begin_trace_frame(frame_index: usize, decision: &FcDecision) -> TraceFrame {
    let mut record = TraceFrame { frame_index, ..TraceFrame::default() };
    record.fc_prev = decision.fc_prev.map(|c| c.value());
    record.fc_keyframe = decision.fc_keyframe.map(|c| c.value());
    record.codec.sad_evals = decision.sad_evals;
    record.is_keyframe = decision.is_keyframe;
    record
}

/// Copies a tracking result into the frame's trace record.
pub(crate) fn apply_track_output(record: &mut TraceFrame, tracked: &TrackOutput) {
    record.coarse = tracked.coarse;
    record.refine = tracked.refine;
    record.refined = tracked.refined;
}

/// Moves a mapping result into the frame's trace record.
pub(crate) fn apply_map_output(record: &mut TraceFrame, mapped: MapOutput, num_gaussians: usize) {
    record.mapping = mapped.mapping;
    record.tile_work = mapped.tile_work;
    record.fp_rate = mapped.fp_rate;
    record.num_gaussians = num_gaussians;
    record.pruned = mapped.pruned;
    record.quantized_splats = mapped.quantized_splats;
    record.map_bytes = mapped.map_bytes;
    record.backend = mapped.backend;
    record.projection_cache_hits = mapped.projection_cache_hits;
    record.projection_cache_misses = mapped.projection_cache_misses;
}

/// Everything downstream of FC detection: the tracking and mapping stages
/// plus the state they share (map, trajectory, trace), executed serially.
///
/// The map lives behind a copy-on-write [`SharedCloud`]. With zero map
/// slack (modes `Serial`/`Overlapped`) tracking peeks at the live map —
/// classic read-after-map semantics, no snapshot is ever published and no
/// copy is ever paid. With `MapOverlapped` slack this body becomes the
/// **serial deferred-map reference**: after each frame's mapping the map is
/// published into a [`SnapshotWindow`], and tracking reads the window's
/// `slack`-stale epoch — byte-identical semantics to the threaded
/// Track ‖ Map driver, enforced by the determinism suite.
#[derive(Debug)]
pub(crate) struct SlamBody {
    config: AgsConfig,
    track: TrackStage,
    map: MapStage,
    shared: SharedCloud,
    window: SnapshotWindow,
    slack: usize,
    trajectory: Vec<Se3>,
    frame_count: usize,
    trace: WorkloadTrace,
    /// Current QoS shed level (server-driven; `Full` outside a server).
    /// `ForceSerial`+ reads the live map regardless of the configured
    /// slack; `DropNonKey`+ sheds non-key frames entirely. Not part of the
    /// checkpoint state: the server re-derives and re-applies it on restore
    /// from the persisted trace.
    shed: ShedLevel,
}

impl SlamBody {
    /// Builds the body from a **resolved** configuration.
    pub(crate) fn new(config: AgsConfig) -> Self {
        let slack = config.pipeline.effective_map_slack();
        Self {
            track: TrackStage::new(&config),
            map: MapStage::new(&config),
            config,
            shared: SharedCloud::new(),
            window: SnapshotWindow::new(slack),
            slack,
            trajectory: Vec::new(),
            frame_count: 0,
            trace: WorkloadTrace::default(),
            shed: ShedLevel::Full,
        }
    }

    /// Rebuilds the body from a checkpoint (`state.fc` is the front end's
    /// share and is ignored here). The map clouds come back as the restored
    /// snapshots' slabs — refcount bumps, not copies; normal copy-on-write
    /// diverges them on the first post-restore mutation.
    pub(crate) fn from_state(config: AgsConfig, state: StreamState) -> Self {
        let slack = config.pipeline.effective_map_slack();
        let head = state.window.last().expect("checkpoint window is never empty");
        let (shared, window) = if slack == 0 {
            // Zero-slack drivers never publish: the writer handle stays at
            // epoch 0 (see `MapStage::process`'s publish contract).
            (SharedCloud::from_parts(head.cloud_arc(), 0), SnapshotWindow::new(0))
        } else {
            let shared = SharedCloud::from_parts(head.cloud_arc(), head.epoch());
            (shared, SnapshotWindow::from_snapshots(slack, state.window))
        };
        let mut track = TrackStage::new(&config);
        track.restore_state(&state.track);
        Self {
            track,
            map: MapStage::from_state(&config, state.map),
            config,
            shared,
            window,
            slack,
            trajectory: state.trajectory,
            frame_count: state.frame_count,
            trace: state.trace,
            shed: ShedLevel::Full,
        }
    }

    /// Captures the body's half of a [`StreamState`]; the caller supplies
    /// the FC front end's share.
    pub(crate) fn export_state(&self, fc: FcDetectorState) -> StreamState {
        let window: Vec<CloudSnapshot> = if self.slack == 0 {
            // Never-published live map: stamp it with its frame count so the
            // epoch-delta log has a monotonic id.
            vec![self.shared.snapshot_at(self.frame_count as u64)]
        } else {
            self.window.snapshots().cloned().collect()
        };
        StreamState {
            frame_count: self.frame_count,
            trajectory: self.trajectory.clone(),
            trace: self.trace.clone(),
            fc,
            track: self.track.export_state(),
            map: self.map.export_state(),
            slack: self.slack,
            window,
        }
    }

    pub(crate) fn set_shed(&mut self, level: ShedLevel) {
        self.shed = level;
    }

    pub(crate) fn config(&self) -> &AgsConfig {
        &self.config
    }

    pub(crate) fn cloud(&self) -> &GaussianCloud {
        self.shared.read()
    }

    pub(crate) fn trajectory(&self) -> &[Se3] {
        &self.trajectory
    }

    pub(crate) fn trace(&self) -> &WorkloadTrace {
        &self.trace
    }

    pub(crate) fn into_trace(self) -> WorkloadTrace {
        self.trace
    }

    pub(crate) fn take_trace(&mut self) -> WorkloadTrace {
        std::mem::take(&mut self.trace)
    }

    /// Runs tracking + mapping for one frame whose FC decision is already
    /// available, recording the trace entry. `stall_s` is backpressure wait
    /// the driver already paid for this frame (FC-channel wait in the
    /// pipelined driver; `0` in the serial one).
    pub(crate) fn advance(
        &mut self,
        camera: &PinholeCamera,
        images: FrameImages<'_>,
        decision: FcDecision,
        fc_s: f64,
        stall_s: f64,
    ) -> AgsFrameRecord {
        if self.trace.frames.is_empty() {
            self.trace.width = camera.width;
            self.trace.height = camera.height;
        }
        let frame_index = self.frame_count;
        self.frame_count += 1;
        let input = FrameInput { frame_index, camera, images };
        let mut record = begin_trace_frame(frame_index, &decision);
        record.shed_level = self.shed as u8;

        if self.shed >= ShedLevel::DropNonKey && !decision.is_keyframe {
            // Shed: after the (cheap) FC decision the frame does no
            // tracking or mapping — it repeats the last pose and publishes
            // an unchanged map epoch so the frame↔epoch contract holds.
            // Frame 0 is always a key frame, so a previous pose exists.
            record.dropped = true;
            let pose = self.trajectory.last().copied().unwrap_or(Se3::IDENTITY);
            self.trajectory.push(pose);
            let map_start = Instant::now();
            let mapped = self.map.process_dropped(&self.shared);
            let map_s = map_start.elapsed().as_secs_f64();
            self.publish_epoch();
            apply_map_output(&mut record, mapped, self.shared.read().len());
            record.stage_times = StageTimes { fc_s, track_s: 0.0, map_s, stall_s };
            self.trace.frames.push(record.clone());
            return AgsFrameRecord { trace: record, estimated_pose: pose, skipped_gaussians: 0 };
        }

        let track_start = Instant::now();
        // Zero slack: peek at the live map (dropped before mapping mutates,
        // so the copy-on-write never triggers). Deferred reference: read the
        // window's stale epoch — exactly what the threaded driver waits for.
        // A shed level of `ForceSerial`+ reads the live map even when the
        // configured slack keeps a window (serial read-after-map semantics).
        let serial_read = self.slack == 0 || self.shed >= ShedLevel::ForceSerial;
        let snapshot = if serial_read { self.shared.peek() } else { self.window.stale().clone() };
        let tracked = self.track.process(&input, &decision, &snapshot);
        drop(snapshot);
        let track_s = track_start.elapsed().as_secs_f64();
        apply_track_output(&mut record, &tracked);
        let pose = tracked.pose;
        self.trajectory.push(pose);

        let map_start = Instant::now();
        let mapped = self.map.process(&input, &decision, pose, &mut self.shared);
        let map_s = map_start.elapsed().as_secs_f64();
        self.publish_epoch();
        let skipped_gaussians = mapped.skipped_gaussians;
        apply_map_output(&mut record, mapped, self.shared.read().len());
        record.stage_times = StageTimes { fc_s, track_s, map_s, stall_s };

        let trace_frame = record.clone();
        self.trace.frames.push(trace_frame);
        AgsFrameRecord { trace: record, estimated_pose: pose, skipped_gaussians }
    }

    /// Publishes this frame's map epoch into the snapshot window.
    /// Zero-slack drivers never publish (no snapshot, no copy): a checkpoint
    /// stamps the live map with its frame count instead.
    fn publish_epoch(&mut self) {
        if self.slack > 0 {
            self.window.push(self.shared.publish());
        }
    }
}

/// The AGS-accelerated 3DGS-SLAM system (serial stage execution).
#[derive(Debug)]
pub struct AgsSlam {
    fc: FcStage,
    body: SlamBody,
}

impl AgsSlam {
    /// Creates an AGS system.
    pub fn new(config: AgsConfig) -> Self {
        let config = config.resolve();
        Self { fc: FcStage::new(&config), body: SlamBody::new(config) }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AgsConfig {
        self.body.config()
    }

    /// The current Gaussian map.
    pub fn cloud(&self) -> &GaussianCloud {
        self.body.cloud()
    }

    /// Estimated trajectory so far.
    pub fn trajectory(&self) -> &[Se3] {
        self.body.trajectory()
    }

    /// The workload trace accumulated so far.
    pub fn trace(&self) -> &WorkloadTrace {
        self.body.trace()
    }

    /// Consumes the system, returning the trace.
    pub fn into_trace(self) -> WorkloadTrace {
        self.body.into_trace()
    }

    /// Processes the next RGB-D frame.
    pub fn process_frame(
        &mut self,
        camera: &PinholeCamera,
        rgb: &RgbImage,
        depth: &DepthImage,
    ) -> AgsFrameRecord {
        let fc_start = Instant::now();
        let decision = self.fc.process(rgb);
        let fc_s = fc_start.elapsed().as_secs_f64();
        self.body.advance(camera, FrameImages::Borrowed { rgb, depth }, decision, fc_s, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ags_scene::dataset::{Dataset, DatasetConfig, SceneId};
    use ags_track::ate::ate_rmse;

    fn run_ags(mut config: AgsConfig, frames: usize) -> (AgsSlam, Dataset) {
        config.slam.tile_work_interval = 0;
        let dconfig = DatasetConfig {
            width: 64,
            height: 48,
            num_frames: frames * 4,
            ..DatasetConfig::tiny()
        };
        let mut data = Dataset::generate(SceneId::Xyz, &dconfig);
        data.truncate(frames);
        let mut slam = AgsSlam::new(config);
        for frame in &data.frames {
            slam.process_frame(&data.camera, &frame.rgb, &frame.depth);
        }
        (slam, data)
    }

    #[test]
    fn tracks_and_maps_with_bounded_error() {
        let (slam, data) = run_ags(AgsConfig::tiny(), 8);
        assert!(slam.cloud().len() > 100);
        let ate = ate_rmse(slam.trajectory(), &data.gt_trajectory());
        assert!(ate < 0.08, "AGS ATE {ate}");
    }

    #[test]
    fn high_covisibility_frames_skip_refinement() {
        let (slam, _) = run_ags(AgsConfig::tiny(), 8);
        let trace = slam.trace();
        // The smooth Xyz prefix should have mostly high-FC frames.
        assert!(
            trace.refinement_skip_rate() > 0.4,
            "skip rate {} too low",
            trace.refinement_skip_rate()
        );
        // Skipped frames carry no 3DGS tracking iterations.
        for f in &trace.frames {
            if !f.refined {
                assert_eq!(f.refine.iterations, 0);
                assert!(f.coarse.nn_macs > 0, "coarse stage always runs");
            }
        }
    }

    #[test]
    fn non_key_frames_skip_gaussians() {
        let (slam, _) = run_ags(AgsConfig::tiny(), 8);
        let trace = slam.trace();
        let non_key: Vec<_> = trace.frames.iter().filter(|f| !f.is_keyframe).collect();
        assert!(!non_key.is_empty(), "expected non-key frames");
        let skipped: u64 = non_key.iter().map(|f| f.mapping.skipped_pairs).sum();
        assert!(skipped > 0, "selective mapping should skip pairs");
        assert!(trace.pair_skip_rate() > 0.0);
    }

    #[test]
    fn first_frame_is_keyframe_and_refined() {
        let (slam, _) = run_ags(AgsConfig::tiny(), 2);
        let trace = slam.trace();
        assert!(trace.frames[0].is_keyframe);
        assert!(trace.frames[0].refined);
        assert_eq!(slam.trajectory()[0], Se3::IDENTITY);
    }

    #[test]
    fn ags_does_less_tracking_work_than_baseline() {
        let (ags, data) = run_ags(AgsConfig::tiny(), 8);
        // Run the baseline on the same frames.
        let mut baseline = ags_slam::BaselineSlam::new(ags_slam::SlamConfig::tiny());
        let mut records = Vec::new();
        for frame in &data.frames {
            records.push(baseline.process_frame(&data.camera, &frame.rgb, &frame.depth));
        }
        let base_trace =
            WorkloadTrace::from_baseline(&records, data.camera.width, data.camera.height);
        let ags_gs_tracking: u64 = ags.trace().frames.iter().map(|f| f.refine.render_alpha).sum();
        let base_gs_tracking: u64 = base_trace.frames.iter().map(|f| f.refine.render_alpha).sum();
        assert!(
            ags_gs_tracking < base_gs_tracking / 2,
            "AGS 3DGS tracking work {ags_gs_tracking} should be well below baseline {base_gs_tracking}"
        );
    }

    #[test]
    fn codec_inherits_system_parallelism_unless_set_explicitly() {
        use ags_math::Parallelism;
        // Default codec knob inherits the system-level setting.
        let mut config = AgsConfig::tiny();
        config.parallelism = Parallelism::with_threads(4);
        let slam = AgsSlam::new(config);
        assert_eq!(slam.config().codec.parallelism, Parallelism::with_threads(4));
        // An explicitly configured codec knob survives.
        let mut config = AgsConfig::tiny();
        config.codec.parallelism = Parallelism::serial();
        config.parallelism = Parallelism::with_threads(4);
        let slam = AgsSlam::new(config);
        assert_eq!(slam.config().codec.parallelism, Parallelism::serial());
    }

    #[test]
    fn fp_audit_produces_rates() {
        let config = AgsConfig { audit_false_positives: true, ..AgsConfig::tiny() };
        let (slam, _) = run_ags(config, 8);
        let rates: Vec<f32> = slam.trace().frames.iter().filter_map(|f| f.fp_rate).collect();
        assert!(!rates.is_empty(), "audit should produce FP rates");
        for r in &rates {
            assert!((0.0..=1.0).contains(r));
        }
    }

    #[test]
    fn projection_cache_is_result_identical() {
        // Same stream, cache off vs on, with compaction active so the
        // harder dirty sites (quantize snapping, prune remaps) are
        // exercised. The trajectory, map and full canonical trace must be
        // bit-identical — the cache may only change wall time and the
        // observational hit counters.
        let mut config = AgsConfig::tiny();
        config.audit_false_positives = true;
        config.slam.compaction = ags_splat::compact::CompactionConfig {
            prune_interval: 2,
            quantize_cold_after: 1,
            ..Default::default()
        };
        let (plain, _) = run_ags(config.clone(), 8);
        config.projection_cache = true;
        let (cached, _) = run_ags(config, 8);
        assert_eq!(plain.trajectory(), cached.trajectory());
        assert_eq!(plain.cloud().gaussians(), cached.cloud().gaussians());
        assert_eq!(plain.trace().canonical_bytes(), cached.trace().canonical_bytes());
        let last = cached.trace().frames.last().unwrap();
        assert!(last.projection_cache_hits > 0, "the cache must actually hit");
        assert!(last.projection_cache_misses > 0, "dirty splats must recompute");
        let plain_last = plain.trace().frames.last().unwrap();
        assert_eq!(plain_last.projection_cache_hits, 0, "disabled cache never hits");
    }

    #[test]
    fn stage_times_are_recorded() {
        let (slam, _) = run_ags(AgsConfig::tiny(), 4);
        let totals = slam.trace().stage_time_totals();
        assert!(totals.track_s > 0.0, "tracking time must be measured");
        assert!(totals.map_s > 0.0, "mapping time must be measured");
        // FC runs on every frame, including the reference-free first one.
        assert_eq!(slam.trace().frames.len(), 4);
        for f in &slam.trace().frames {
            assert!(f.stage_times.map_s > 0.0, "frame {} map time", f.frame_index);
        }
    }
}
