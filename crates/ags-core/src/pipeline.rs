//! The assembled AGS pipeline (paper Fig. 7 + walk-through Fig. 9b).
//!
//! Per incoming frame:
//!
//! 1. The CODEC computes covisibility against the previous frame and the
//!    last key frame ([`crate::fc::FcStage`]).
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
//! [`AgsSlam`] is the one driver of that stage graph. Tracking always runs
//! on the calling thread; FC and mapping run inline or on their own worker
//! threads as [`crate::config::PipelineMode`] says (see
//! [`crate::pipelined`]). Frame `N` is tracked against the map published
//! after frame `N − map_slack` ([`crate::config::PipelineConfig::map_slack`])
//! in every mode, so the modes are bit-identical at equal slack: `Serial`
//! with `map_slack = k` is the deferred-map reference the threaded
//! `MapOverlapped` run is checked against.

use crate::checkpoint::StreamState;
use crate::config::AgsConfig;
use crate::fc::{FcDecision, FcStage};
use crate::pipelined::{map_publishes, Decided, FcFrontEnd, Frame, MapBackEnd, MapDone, MapJob};
use crate::stages::{MapOutput, MapStage, TrackOutput, TrackStage};
use crate::trace::{StageTimes, TraceFrame, WorkloadTrace};
use ags_image::{DepthImage, RgbImage};
use ags_math::Se3;
use ags_scene::PinholeCamera;
use ags_splat::snapshot::{CloudSnapshot, SharedCloud, SnapshotWindow};
use ags_splat::GaussianCloud;
use std::collections::VecDeque;
use std::sync::Arc;
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

/// Starts a frame's trace record from its FC decision.
fn begin_trace_frame(frame_index: usize, decision: &FcDecision) -> TraceFrame {
    let mut record = TraceFrame { frame_index, ..TraceFrame::default() };
    record.fc_prev = decision.fc_prev.map(|c| c.value());
    record.fc_keyframe = decision.fc_keyframe.map(|c| c.value());
    record.codec.sad_evals = decision.sad_evals;
    record.is_keyframe = decision.is_keyframe;
    record
}

/// Copies a tracking result into the frame's trace record.
fn apply_track_output(record: &mut TraceFrame, tracked: &TrackOutput) {
    record.coarse = tracked.coarse;
    record.refine = tracked.refine;
    record.refined = tracked.refined;
}

/// Moves a mapping result into the frame's trace record.
fn apply_map_output(record: &mut TraceFrame, mapped: MapOutput, num_gaussians: usize) {
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

/// Splits a checkpoint window (ascending by epoch) around the contractual
/// epoch the next frame must read, `frame_count − slack`: entries up to and
/// including it re-seed the retained window, the entry at it becomes
/// `latest`, fresher ones queue as `ahead`. `None` when the window does not
/// hold the contractual epoch.
fn split_at_contract(
    window: Vec<CloudSnapshot>,
    frame_count: usize,
    slack: usize,
) -> Option<(SnapshotWindow, CloudSnapshot, VecDeque<CloudSnapshot>)> {
    let needed = frame_count.saturating_sub(slack) as u64;
    let (retained, ahead): (Vec<_>, Vec<_>) =
        window.into_iter().partition(|snap| snap.epoch() <= needed);
    let latest = retained.last().filter(|snap| snap.epoch() == needed)?.clone();
    Some((SnapshotWindow::from_snapshots(slack, retained), latest, ahead.into()))
}

/// The AGS-accelerated 3DGS-SLAM system: one driver over the stage graph
/// `FcStage → TrackStage → MapStage`.
///
/// [`PipelineMode::Serial`](crate::config::PipelineMode::Serial) runs every
/// stage on the calling thread and every [`push_frame`](Self::push_frame)
/// returns its record immediately. `Overlapped` moves FC to a worker
/// thread; `MapOverlapped` additionally moves mapping to its own worker, so
/// Track(N+1) overlaps Map(N).
///
/// Streaming protocol (overlapped modes): [`push_frame`](Self::push_frame)
/// returns `None` while the FC lookahead (and the map pipeline) fills, then
/// one completed record per push. Call [`finish`](Self::finish) after the
/// last frame to drain everything.
pub struct AgsSlam {
    config: AgsConfig,
    fc: FcFrontEnd,
    track: TrackStage,
    map: MapBackEnd,
    /// Snapshot staleness: frame `N` tracks against epoch
    /// `max(0, N − slack)` (`PipelineConfig::effective_map_slack`, or the
    /// checkpoint's on restore).
    slack: usize,
    /// Newest snapshot tracking has advanced to. The drain advances it to
    /// **exactly** the epoch a frame must read — never further, even when
    /// fresher epochs are already at hand. Unused by a map that never
    /// publishes.
    latest: CloudSnapshot,
    /// The last `slack + 1` snapshots `latest` advanced through — the
    /// window a checkpoint captures.
    retained: SnapshotWindow,
    /// Published epochs `latest` has not advanced to yet whose records are
    /// already complete: inline maps, and fresher checkpoint epochs after a
    /// restore.
    ahead: VecDeque<CloudSnapshot>,
    /// Tracked frames whose map result the worker still owes.
    awaiting: VecDeque<AgsFrameRecord>,
    /// Completed records not yet returned.
    completed: VecDeque<AgsFrameRecord>,
    trajectory: Vec<Se3>,
    frame_count: usize,
    trace: WorkloadTrace,
}

impl std::fmt::Debug for AgsSlam {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AgsSlam")
            .field("mode", &self.config.pipeline.mode)
            .field("slack", &self.slack)
            .field("frame_count", &self.frame_count)
            .finish_non_exhaustive()
    }
}

impl AgsSlam {
    /// Creates an AGS system; `config.pipeline` selects where the stages run
    /// and the map slack.
    pub fn new(config: AgsConfig) -> Self {
        let config = config.resolve();
        let slack = config.pipeline.effective_map_slack();
        let (fc, track, map) =
            (FcStage::new(&config), TrackStage::new(&config), MapStage::new(&config));
        Self::with_stages(config, slack, fc, track, map, SharedCloud::new())
    }

    /// A driver at frame 0 around the given stages.
    fn with_stages(
        config: AgsConfig,
        slack: usize,
        fc: FcStage,
        track: TrackStage,
        map: MapStage,
        shared: SharedCloud,
    ) -> Self {
        Self {
            fc: FcFrontEnd::new(&config, fc),
            track,
            map: MapBackEnd::new(&config, slack, map, shared),
            slack,
            latest: CloudSnapshot::empty(),
            retained: SnapshotWindow::new(slack),
            ahead: VecDeque::new(),
            awaiting: VecDeque::new(),
            completed: VecDeque::new(),
            trajectory: Vec::new(),
            frame_count: 0,
            trace: WorkloadTrace::default(),
            config,
        }
    }

    /// Rebuilds a driver from a [`StreamState`] captured by
    /// [`checkpoint`](Self::checkpoint). The restored driver continues the
    /// stream bit-identically to one that was never interrupted — in any
    /// pipeline mode and at any worker count, as long as `config` matches
    /// the checkpointing run's. The checkpoint's slack wins over the
    /// config's.
    ///
    /// # Panics
    ///
    /// When `state.window` does not hold the contractual epoch
    /// `frame_count − slack` (`decode_aux` rejects such states).
    pub fn restore(config: AgsConfig, state: StreamState) -> Self {
        let config = config.resolve();
        let slack = state.slack;
        let (retained, latest, ahead) = split_at_contract(state.window, state.frame_count, slack)
            .expect("checkpoint window covers the contractual epoch");
        let head = ahead.back().unwrap_or(&latest);
        let publishes = map_publishes(&config, slack);
        // A publishing map resumes from the checkpoint head: its next publish
        // is head + 1, contiguous with `ahead`. One that never publishes
        // stays at epoch 0 (see `MapStage::process`).
        let shared =
            SharedCloud::from_parts(head.cloud_arc(), if publishes { head.epoch() } else { 0 });
        let fc = FcStage::from_state(&config, state.fc);
        let mut track = TrackStage::new(&config);
        track.restore_state(&state.track);
        let map = MapStage::from_state(&config, state.map);
        let mut slam = Self::with_stages(config, slack, fc, track, map, shared);
        if publishes {
            (slam.retained, slam.latest, slam.ahead) = (retained, latest, ahead);
        }
        slam.trajectory = state.trajectory;
        slam.frame_count = state.frame_count;
        slam.trace = state.trace;
        slam
    }

    /// Quiesces the pipeline and captures a restorable [`StreamState`].
    ///
    /// Equivalent to [`finish`](Self::finish) — the drained records are
    /// returned — followed by a state capture; worker threads are stopped to
    /// read their stage state and respawned around the same stages, so the
    /// stream keeps accepting frames afterwards. Not a hot-path operation:
    /// call it at checkpoint cadence, not per frame.
    pub fn checkpoint(&mut self) -> (Vec<AgsFrameRecord>, StreamState) {
        let records = self.finish();
        let window = if self.map.publishes() {
            while !self.ahead.is_empty() {
                self.pump_one();
            }
            let window: Vec<_> = self.retained.snapshots().cloned().collect();
            // Continue from exactly the state a restore of this checkpoint
            // builds, so checkpointing in place is invisible to the stream.
            (self.retained, self.latest, self.ahead) =
                split_at_contract(window.clone(), self.frame_count, self.slack)
                    .expect("the retained window covers the contractual epoch");
            window
        } else {
            // A never-published live map is stamped with its frame count so
            // the epoch-delta log has a monotonic id.
            let live = self.map.live().expect("only inline maps skip publishing");
            vec![live.snapshot_at(self.frame_count as u64)]
        };
        let state = StreamState {
            frame_count: self.frame_count,
            trajectory: self.trajectory.clone(),
            trace: self.trace.clone(),
            fc: self.fc.export_state(&self.config),
            track: self.track.export_state(),
            map: self.map.export_state(&self.config),
            slack: self.slack,
            window,
        };
        (records, state)
    }

    /// The configuration in use.
    pub fn config(&self) -> &AgsConfig {
        &self.config
    }

    /// The current Gaussian map: the live map when mapping runs inline, the
    /// newest published snapshot when it runs on a worker — the final map
    /// once [`finish`](Self::finish) has run.
    pub fn cloud(&self) -> &GaussianCloud {
        match self.map.live() {
            Some(shared) => shared.read(),
            None => self.ahead.back().unwrap_or(&self.latest).cloud(),
        }
    }

    /// Estimated trajectory of all *tracked* frames.
    pub fn trajectory(&self) -> &[Se3] {
        &self.trajectory
    }

    /// The workload trace of all completed frames.
    pub fn trace(&self) -> &WorkloadTrace {
        &self.trace
    }

    /// Takes the accumulated trace out of the driver, leaving an empty one.
    /// Call [`finish`](Self::finish) first so all pushed frames are in it.
    pub fn take_trace(&mut self) -> WorkloadTrace {
        std::mem::take(&mut self.trace)
    }

    /// Frames pushed but not yet tracked.
    pub fn pending_frames(&self) -> usize {
        self.fc.pending()
    }

    /// Submits the next RGB-D frame.
    ///
    /// Serial mode at zero slack returns the frame's record immediately;
    /// otherwise this returns the oldest newly completed record — or `None`
    /// while the pipeline is still filling.
    pub fn push_frame(
        &mut self,
        camera: &PinholeCamera,
        rgb: Arc<RgbImage>,
        depth: Arc<DepthImage>,
    ) -> Option<AgsFrameRecord> {
        let decided = self.fc.push(Frame { camera: *camera, rgb, depth })?;
        self.advance(decided)
    }

    /// Convenience wrapper for borrowed images (pays one copy per frame to
    /// share them with the stages; prefer [`push_frame`](Self::push_frame)
    /// with pre-shared frames on the hot path).
    pub fn push_frame_cloned(
        &mut self,
        camera: &PinholeCamera,
        rgb: &RgbImage,
        depth: &DepthImage,
    ) -> Option<AgsFrameRecord> {
        self.push_frame(camera, Arc::new(rgb.clone()), Arc::new(depth.clone()))
    }

    /// Drains the pipeline after the last [`push_frame`](Self::push_frame),
    /// returning the remaining records in stream order. Tracking's place on
    /// the staleness schedule is untouched, so pushing on afterwards is
    /// still bit-identical to never having drained.
    pub fn finish(&mut self) -> Vec<AgsFrameRecord> {
        let mut records = Vec::new();
        while let Some(decided) = self.fc.pop() {
            records.extend(self.advance(decided));
        }
        while !self.awaiting.is_empty() {
            let done = self.map.recv();
            self.complete(done);
        }
        records.extend(self.completed.drain(..));
        records
    }

    /// Tracks one frame against its contractual snapshot epoch and maps it
    /// (inline, or by submitting the job to the map worker); returns the
    /// oldest completed record, if any.
    fn advance(&mut self, decided: Decided) -> Option<AgsFrameRecord> {
        let Decided { frame, decision, fc_s, wait_s } = decided;
        if self.trace.frames.is_empty() {
            self.trace.width = frame.camera.width;
            self.trace.height = frame.camera.height;
        }
        let frame_index = self.frame_count;
        self.frame_count += 1;

        // The staleness contract: frame N reads epoch max(0, N − slack) —
        // the map published after Map(N − slack − 1). Drain exactly up to it,
        // blocking if mapping is behind (backpressure), ignoring fresher
        // epochs if it is ahead.
        let publishes = self.map.publishes();
        let mut stall_s = wait_s;
        if publishes {
            let needed = frame_index.saturating_sub(self.slack) as u64;
            let start = Instant::now();
            while self.latest.epoch() < needed {
                self.pump_one();
            }
            stall_s += start.elapsed().as_secs_f64();
        }

        let mut record = begin_trace_frame(frame_index, &decision);
        let start = Instant::now();
        // A map that never publishes is peeked at live; the handle is
        // dropped before mapping mutates, so copy-on-write never copies.
        let snapshot = if publishes {
            self.latest.clone()
        } else {
            self.map.live().expect("only inline maps skip publishing").peek()
        };
        let tracked = self.track.process(&frame.input(frame_index), &decision, &snapshot);
        drop(snapshot);
        apply_track_output(&mut record, &tracked);
        let pose = tracked.pose;
        let track_s = start.elapsed().as_secs_f64();
        self.trajectory.push(pose);
        record.stage_times = StageTimes { fc_s, track_s, map_s: 0.0, stall_s };
        self.awaiting.push_back(AgsFrameRecord {
            trace: record,
            estimated_pose: pose,
            skipped_gaussians: 0,
        });
        let job = MapJob { frame_index, frame, decision, pose };
        if let Some(done) = self.map.submit(job) {
            self.complete(done);
        }
        self.completed.pop_front()
    }

    /// Completes the oldest awaiting record with its map result, queueing the
    /// epoch it published.
    fn complete(&mut self, done: MapDone) {
        let mut record = self.awaiting.pop_front().expect("one awaiting record per map job");
        record.skipped_gaussians = done.mapped.skipped_gaussians;
        record.trace.stage_times.map_s = done.map_s;
        apply_map_output(&mut record.trace, done.mapped, done.num_gaussians);
        self.trace.frames.push(record.trace.clone());
        self.completed.push_back(record);
        self.ahead.extend(done.snapshot);
    }

    /// Advances `latest` by exactly one epoch, receiving the map worker's
    /// next result when no published epoch is at hand.
    fn pump_one(&mut self) {
        if self.ahead.is_empty() {
            let done = self.map.recv();
            self.complete(done);
        }
        let snapshot = self.ahead.pop_front().expect("a publishing map yields one epoch per job");
        debug_assert_eq!(snapshot.epoch(), self.latest.epoch() + 1, "epochs arrive in order");
        self.retained.push(snapshot.clone());
        self.latest = snapshot;
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
            slam.push_frame_cloned(&data.camera, &frame.rgb, &frame.depth);
        }
        slam.finish();
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
        // Same stream, cache off vs on, under a map budget whose escalation
        // both snaps cold chunks and prunes, so the harder dirty sites
        // (quantize snapping, prune remaps) are exercised. The trajectory,
        // map and full canonical trace must be bit-identical — the cache may
        // only change wall time and the observational hit counters.
        let mut config = AgsConfig::tiny();
        config.audit_false_positives = true;
        config.map_bytes_budget = 64 * 1024;
        let (plain, _) = run_ags(config.clone(), 8);
        config.projection_cache = true;
        let (cached, _) = run_ags(config, 8);
        assert_eq!(plain.trajectory(), cached.trajectory());
        assert_eq!(plain.cloud().gaussians(), cached.cloud().gaussians());
        assert_eq!(plain.trace().canonical_bytes(), cached.trace().canonical_bytes());
        let last = cached.trace().frames.last().unwrap();
        assert!(last.projection_cache_hits > 0, "the cache must actually hit");
        assert!(last.projection_cache_misses > 0, "dirty splats must recompute");
        let frames = &cached.trace().frames;
        assert!(frames.iter().any(|f| f.quantized_splats > 0), "the budget must snap chunks");
        assert!(frames.iter().any(|f| f.pruned > 0), "the budget must prune");
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

    #[test]
    fn zero_slack_inline_map_never_publishes_or_copies() {
        // Serial and Overlapped at zero slack track against the live map: it
        // stays at epoch 0 and its slab is mutated in place on every frame —
        // a copy-on-write copy would put the map behind a new allocation.
        use crate::config::PipelineConfig;
        let data = {
            let dconfig =
                DatasetConfig { width: 48, height: 36, num_frames: 24, ..DatasetConfig::tiny() };
            let mut data = Dataset::generate(SceneId::Xyz, &dconfig);
            data.truncate(6);
            data
        };
        for pipeline in [PipelineConfig::default(), PipelineConfig::overlapped(1)] {
            let mut slam = AgsSlam::new(AgsConfig { pipeline, ..AgsConfig::tiny() });
            let slab = |slam: &AgsSlam| {
                let live = slam.map.live().expect("inline map");
                assert_eq!(live.epoch(), 0, "{pipeline:?}: the map never publishes");
                Arc::as_ptr(&live.peek().cloud_arc())
            };
            let first = slab(&slam);
            for frame in &data.frames {
                slam.push_frame_cloned(&data.camera, &frame.rgb, &frame.depth);
                assert_eq!(slab(&slam), first, "{pipeline:?}: no copy-on-write copy");
            }
            slam.finish();
            assert_eq!(slab(&slam), first);
            assert_eq!(slam.latest.epoch(), 0, "{pipeline:?}: tracking never drains");
            assert!(slam.ahead.is_empty() && slam.retained.snapshots().count() == 1);
            assert_eq!(slam.trace().frames.len(), data.frames.len());
        }
    }
}
