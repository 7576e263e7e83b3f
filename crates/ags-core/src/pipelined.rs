//! The stage graph's two movable ends: the FC front end and the map back
//! end, each either inline on the driving thread or on a worker thread
//! behind bounded channels. [`crate::pipeline::AgsSlam`] composes them;
//! [`crate::config::PipelineMode`] says which runs where.
//!
//! **FC ‖ SLAM** (`Overlapped` and `MapOverlapped`, paper Fig. 9b): the FC
//! stream is computed purely from the RGB sequence and its own key-frame
//! decisions ([`crate::stages::FcStage`] is self-contained), so a worker
//! computes frame `N+1`'s covisibility while the SLAM stages process frame
//! `N`. The bounded channel ([`crate::config::PipelineConfig::depth`] frames)
//! makes the worker block, instead of buffering, when the SLAM stages fall
//! behind.
//!
//! **Track ‖ Map** (`MapOverlapped`): mapping moves to its own worker, which
//! owns the copy-on-write map ([`SharedCloud`]) and publishes an epoch-tagged
//! [`CloudSnapshot`] after every frame. The driver drains results up to
//! exactly the epoch the staleness contract names, so the epoch a frame is
//! tracked against is a function of the frame index alone, never of thread
//! timing.
//!
//! Kernel parallelism: [`crate::config::AgsConfig::resolve`] installs one
//! shared `WorkerPool` handle into every stage's `Parallelism` knob, so both
//! workers and the driving thread submit to the **same** executor instead of
//! spawning competing thread sets.

use crate::config::{AgsConfig, PipelineMode};
use crate::fc::{FcDecision, FcDetectorState};
use crate::stages::{FcStage, FrameImages, FrameInput, MapOutput, MapStage, MapStageState};
use ags_image::{DepthImage, RgbImage};
use ags_math::Se3;
use ags_scene::PinholeCamera;
use ags_splat::snapshot::{CloudSnapshot, SharedCloud};
use std::collections::VecDeque;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// One RGB-D frame as the stage graph carries it: `Arc`-shared, so handing
/// it to a worker or storing it as a key frame bumps refcounts, never copies.
pub(crate) struct Frame {
    pub camera: PinholeCamera,
    pub rgb: Arc<RgbImage>,
    pub depth: Arc<DepthImage>,
}

impl Frame {
    /// The tracking/mapping stage input for stream position `frame_index`.
    pub fn input(&self, frame_index: usize) -> FrameInput<'_> {
        let images = FrameImages::Shared { rgb: &self.rgb, depth: &self.depth };
        FrameInput { frame_index, camera: &self.camera, images }
    }
}

/// A frame with its FC decision, ready for tracking.
pub(crate) struct Decided {
    pub frame: Frame,
    pub decision: FcDecision,
    /// FC stage wall time.
    pub fc_s: f64,
    /// Time the driver blocked on the FC result channel for this frame.
    pub wait_s: f64,
}

/// FC result shipped back from the worker thread.
pub(crate) struct FcResult {
    decision: FcDecision,
    fc_s: f64,
}

/// Front end of the stage graph: FC inline (`Serial`) or on a worker thread
/// (both overlapped modes). The worker returns its [`FcStage`] when its frame
/// channel hangs up, so a checkpoint can stop it, read the detector state
/// and respawn around the same stage.
pub(crate) enum FcFrontEnd {
    Inline(FcStage),
    Worker {
        frames_tx: Option<SyncSender<Arc<RgbImage>>>,
        results_rx: Receiver<FcResult>,
        handle: Option<JoinHandle<FcStage>>,
        /// Frames submitted to the worker whose decision is not consumed yet.
        pending: VecDeque<Frame>,
        depth: usize,
    },
}

impl FcFrontEnd {
    /// Runs `fc` where `config.pipeline.mode` puts it.
    pub fn new(config: &AgsConfig, mut fc: FcStage) -> Self {
        if config.pipeline.mode == PipelineMode::Serial {
            return Self::Inline(fc);
        }
        let depth = config.pipeline.clamped_depth();
        let stress_fc_stall_ms = config.pipeline.stress_fc_stall_ms;
        // At most `depth` undecoded frames plus `depth` undelivered decisions
        // in flight: the worker runs 1–2 frames ahead and no further.
        let (frames_tx, frames_rx) = sync_channel::<Arc<RgbImage>>(depth);
        let (results_tx, results_rx) = sync_channel::<FcResult>(depth);
        let handle = std::thread::Builder::new()
            .name("ags-fc-stage".into())
            .spawn(move || {
                while let Ok(rgb) = frames_rx.recv() {
                    if stress_fc_stall_ms > 0 {
                        // Test-only backpressure: see
                        // `PipelineConfig::stress_fc_stall_ms`.
                        std::thread::sleep(std::time::Duration::from_millis(stress_fc_stall_ms));
                    }
                    let start = Instant::now();
                    let decision = fc.process(&rgb);
                    let fc_s = start.elapsed().as_secs_f64();
                    if results_tx.send(FcResult { decision, fc_s }).is_err() {
                        break; // driver dropped
                    }
                }
                fc
            })
            .expect("spawn FC stage worker");
        Self::Worker {
            frames_tx: Some(frames_tx),
            results_rx,
            handle: Some(handle),
            pending: VecDeque::new(),
            depth,
        }
    }

    /// Submits a frame and returns the oldest frame whose decision is due:
    /// this one when FC runs inline, `None` while the worker's lookahead
    /// window fills.
    pub fn push(&mut self, frame: Frame) -> Option<Decided> {
        let full = match self {
            Self::Inline(fc) => {
                let start = Instant::now();
                let decision = fc.process(&frame.rgb);
                let fc_s = start.elapsed().as_secs_f64();
                return Some(Decided { frame, decision, fc_s, wait_s: 0.0 });
            }
            Self::Worker { frames_tx, pending, depth, .. } => {
                let rgb = Arc::clone(&frame.rgb);
                frames_tx.as_ref().expect("FC channel open").send(rgb).expect("FC worker alive");
                pending.push_back(frame);
                pending.len() > *depth
            }
        };
        if full {
            self.pop()
        } else {
            None
        }
    }

    /// The oldest submitted frame with its decision, blocking on the worker;
    /// `None` when nothing is pending.
    pub fn pop(&mut self) -> Option<Decided> {
        let Self::Worker { results_rx, pending, .. } = self else { return None };
        let frame = pending.pop_front()?;
        // FIFO channels: this result belongs to exactly this frame. Time
        // blocked here is FC backpressure — the FC worker, not the SLAM
        // stages, is the bottleneck — and counts toward the frame's stall.
        let start = Instant::now();
        let FcResult { decision, fc_s } = results_rx.recv().expect("FC stage worker alive");
        Some(Decided { frame, decision, fc_s, wait_s: start.elapsed().as_secs_f64() })
    }

    /// Frames submitted but not yet handed to tracking.
    pub fn pending(&self) -> usize {
        match self {
            Self::Inline(_) => 0,
            Self::Worker { pending, .. } => pending.len(),
        }
    }

    /// The FC stage's checkpoint state (call with nothing pending). A worker
    /// is stopped to read it and respawned around the same stage.
    pub fn export_state(&mut self, config: &AgsConfig) -> FcDetectorState {
        if let Self::Inline(fc) = self {
            return fc.export_state();
        }
        let fc = self.join_worker().expect("FC stage worker joins");
        let state = fc.export_state();
        *self = Self::new(config, fc);
        state
    }

    /// Hangs up the worker's frame channel, drains its results so it is
    /// never blocked on a send, and joins it.
    fn join_worker(&mut self) -> Option<FcStage> {
        let Self::Worker { frames_tx, results_rx, handle, .. } = self else { return None };
        drop(frames_tx.take());
        while results_rx.try_recv().is_ok() {}
        handle.take()?.join().ok()
    }
}

impl Drop for FcFrontEnd {
    fn drop(&mut self) {
        self.join_worker();
    }
}

/// One frame's mapping work order.
pub(crate) struct MapJob {
    pub frame_index: usize,
    pub frame: Frame,
    pub decision: FcDecision,
    pub pose: Se3,
}

/// One frame's mapping result, with the epoch it published (a refcount
/// bump; `None` from a map that never publishes).
pub(crate) struct MapDone {
    pub mapped: MapOutput,
    pub snapshot: Option<CloudSnapshot>,
    pub num_gaussians: usize,
    pub map_s: f64,
}

/// Whether a map runs publishing one snapshot per frame: always on the
/// worker, inline only when tracking reads a stale epoch. A zero-slack
/// inline map never publishes — tracking peeks at the live map, so no
/// copy-on-write copy is ever paid.
pub(crate) fn map_publishes(config: &AgsConfig, slack: usize) -> bool {
    config.pipeline.mode == PipelineMode::MapOverlapped || slack > 0
}

fn map_frame(map: &mut MapStage, shared: &mut SharedCloud, job: &MapJob, publish: bool) -> MapDone {
    let start = Instant::now();
    let mapped = map.process(&job.frame.input(job.frame_index), &job.decision, job.pose, shared);
    let snapshot = publish.then(|| shared.publish());
    let map_s = start.elapsed().as_secs_f64();
    MapDone { mapped, snapshot, num_gaussians: shared.read().len(), map_s }
}

/// Back end of the stage graph: the mapping stage and the live map, inline
/// (`Serial`, `Overlapped`) or on a worker thread (`MapOverlapped`). The
/// worker returns both when its job channel hangs up, so a checkpoint can
/// stop it, export the stage and respawn without cloning either.
pub(crate) enum MapBackEnd {
    Inline {
        map: Box<MapStage>,
        shared: SharedCloud,
        publish: bool,
    },
    Worker {
        jobs_tx: Option<SyncSender<MapJob>>,
        done_rx: Receiver<MapDone>,
        handle: Option<JoinHandle<(MapStage, SharedCloud)>>,
        slack: usize,
    },
}

impl MapBackEnd {
    /// Runs `map` over `shared` where `config.pipeline.mode` puts it.
    pub fn new(
        config: &AgsConfig,
        slack: usize,
        mut map: MapStage,
        mut shared: SharedCloud,
    ) -> Self {
        if config.pipeline.mode != PipelineMode::MapOverlapped {
            let publish = map_publishes(config, slack);
            return Self::Inline { map: Box::new(map), shared, publish };
        }
        // Sized to the maximum in-flight frames (slack + 1 maps can be
        // outstanding before tracking must wait); one extra slot keeps the
        // worker off the send() edge.
        let (jobs_tx, jobs_rx) = sync_channel::<MapJob>(slack + 2);
        let (done_tx, done_rx) = sync_channel::<MapDone>(slack + 2);
        let handle = std::thread::Builder::new()
            .name("ags-map-stage".into())
            .spawn(move || {
                while let Ok(job) = jobs_rx.recv() {
                    if done_tx.send(map_frame(&mut map, &mut shared, &job, true)).is_err() {
                        break; // driver dropped
                    }
                }
                (map, shared)
            })
            .expect("spawn map stage worker");
        Self::Worker { jobs_tx: Some(jobs_tx), done_rx, handle: Some(handle), slack }
    }

    /// Whether the map publishes one epoch per frame (see [`map_publishes`]).
    pub fn publishes(&self) -> bool {
        !matches!(self, Self::Inline { publish: false, .. })
    }

    /// The live map of an inline back end; the worker's is visible only
    /// through the snapshots it publishes.
    pub fn live(&self) -> Option<&SharedCloud> {
        match self {
            Self::Inline { shared, .. } => Some(shared),
            Self::Worker { .. } => None,
        }
    }

    /// Maps one frame: inline right away, returning the result, or queued
    /// on the worker (`None`; collect it with [`recv`](Self::recv)).
    pub fn submit(&mut self, job: MapJob) -> Option<MapDone> {
        match self {
            Self::Inline { map, shared, publish } => Some(map_frame(map, shared, &job, *publish)),
            Self::Worker { jobs_tx, .. } => {
                jobs_tx.as_ref().expect("jobs channel open").send(job).expect("map worker alive");
                None
            }
        }
    }

    /// The worker's next result, in submission order.
    pub fn recv(&self) -> MapDone {
        let Self::Worker { done_rx, .. } = self else {
            unreachable!("inline maps complete on submit")
        };
        done_rx.recv().expect("map stage worker alive")
    }

    /// The mapping stage's checkpoint state (call with no job in flight). A
    /// worker is stopped to read it and respawned around the same stage.
    pub fn export_state(&mut self, config: &AgsConfig) -> MapStageState {
        let slack = match self {
            Self::Inline { map, .. } => return map.export_state(),
            Self::Worker { slack, .. } => *slack,
        };
        let (map, shared) = self.join_worker().expect("map stage worker joins");
        let state = map.export_state();
        *self = Self::new(config, slack, map, shared);
        state
    }

    /// Hangs up the job channel so the worker's loop ends, keeps receiving
    /// so it is never blocked on a send, and joins it.
    fn join_worker(&mut self) -> Option<(MapStage, SharedCloud)> {
        let Self::Worker { jobs_tx, done_rx, handle, .. } = self else { return None };
        drop(jobs_tx.take());
        while done_rx.recv().is_ok() {}
        handle.take()?.join().ok()
    }
}

impl Drop for MapBackEnd {
    fn drop(&mut self) {
        self.join_worker();
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{AgsConfig, PipelineConfig};
    use crate::pipeline::AgsSlam;
    use ags_scene::dataset::{Dataset, DatasetConfig, SceneId};
    use std::sync::Arc;

    fn tiny_dataset(frames: usize) -> Dataset {
        let dconfig = DatasetConfig {
            width: 64,
            height: 48,
            num_frames: frames * 4,
            ..DatasetConfig::tiny()
        };
        let mut data = Dataset::generate(SceneId::Xyz, &dconfig);
        data.truncate(frames);
        data
    }

    #[test]
    fn serial_mode_returns_records_immediately() {
        let data = tiny_dataset(3);
        let mut slam = AgsSlam::new(AgsConfig::tiny());
        for frame in &data.frames {
            let record = slam.push_frame(
                &data.camera,
                Arc::new(frame.rgb.clone()),
                Arc::new(frame.depth.clone()),
            );
            assert!(record.is_some(), "serial mode is synchronous");
        }
        assert!(slam.finish().is_empty());
        assert_eq!(slam.trajectory().len(), 3);
    }

    #[test]
    fn overlapped_mode_fills_then_streams() {
        let data = tiny_dataset(4);
        let config = AgsConfig { pipeline: PipelineConfig::overlapped(2), ..AgsConfig::tiny() };
        let mut slam = AgsSlam::new(config);
        let mut completed = 0usize;
        for (i, frame) in data.frames.iter().enumerate() {
            let record = slam.push_frame_cloned(&data.camera, &frame.rgb, &frame.depth);
            if i < 2 {
                assert!(record.is_none(), "frame {i} fills the lookahead window");
            } else {
                let record = record.expect("pipeline full: one record per push");
                assert_eq!(record.trace.frame_index, i - 2);
                completed += 1;
            }
        }
        assert_eq!(slam.pending_frames(), 2);
        let rest = slam.finish();
        assert_eq!(rest.len(), 2);
        assert_eq!(completed + rest.len(), 4);
        assert_eq!(slam.trajectory().len(), 4);
        assert_eq!(rest.last().unwrap().trace.frame_index, 3);
    }

    #[test]
    fn map_overlapped_mode_streams_all_records_in_order() {
        let data = tiny_dataset(6);
        let config =
            AgsConfig { pipeline: PipelineConfig::map_overlapped(1, 1), ..AgsConfig::tiny() };
        let mut slam = AgsSlam::new(config);
        let mut records = Vec::new();
        for frame in &data.frames {
            records.extend(slam.push_frame_cloned(&data.camera, &frame.rgb, &frame.depth));
        }
        assert!(records.len() < 6, "pipeline fill delays the first records");
        records.extend(slam.finish());
        assert_eq!(records.len(), 6, "every frame completes");
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.trace.frame_index, i, "records arrive in stream order");
        }
        assert_eq!(slam.trajectory().len(), 6);
        assert_eq!(slam.trace().frames.len(), 6);
        assert!(!slam.cloud().is_empty(), "finish leaves the final map visible");
    }

    #[test]
    fn map_overlapped_records_map_time_and_stalls() {
        let mut config = AgsConfig::tiny();
        config.pipeline = PipelineConfig::map_overlapped(1, 1);
        // A stalled map stage forces tracking to wait for its snapshot.
        config.pipeline.stress_map_stall_ms = 3;
        let data = tiny_dataset(5);
        let mut slam = AgsSlam::new(config);
        for frame in &data.frames {
            slam.push_frame_cloned(&data.camera, &frame.rgb, &frame.depth);
        }
        slam.finish();
        let totals = slam.trace().stage_time_totals();
        assert!(totals.map_s > 0.0, "worker-side map time must flow into the trace");
        assert!(totals.stall_s > 0.0, "a stalled map must show up as tracking stall time");
    }

    #[test]
    fn overlapped_records_fc_wall_time_from_worker() {
        let data = tiny_dataset(3);
        let config = AgsConfig { pipeline: PipelineConfig::overlapped(1), ..AgsConfig::tiny() };
        let mut slam = AgsSlam::new(config);
        for frame in &data.frames {
            slam.push_frame_cloned(&data.camera, &frame.rgb, &frame.depth);
        }
        slam.finish();
        // Frames beyond the first have codec references to compare against,
        // so their FC stage spends measurable time on the worker.
        let fc_total = slam.trace().stage_time_totals().fc_s;
        assert!(fc_total > 0.0, "worker-side FC time must flow into the trace");
    }

    #[test]
    fn fc_backpressure_counts_toward_stall_time() {
        // A deliberately slow FC worker makes the driver block on the FC
        // result channel; that wait must land in stall_s (it used to count
        // only the map-snapshot wait).
        let mut config = AgsConfig::tiny();
        config.pipeline = PipelineConfig::overlapped(1);
        config.pipeline.stress_fc_stall_ms = 4;
        let data = tiny_dataset(4);
        let mut slam = AgsSlam::new(config);
        for frame in &data.frames {
            slam.push_frame_cloned(&data.camera, &frame.rgb, &frame.depth);
        }
        slam.finish();
        let totals = slam.trace().stage_time_totals();
        assert!(totals.stall_s > 0.0, "FC-channel wait must show up as stall time");
    }

    #[test]
    fn dropping_mid_stream_joins_workers_cleanly() {
        let data = tiny_dataset(3);
        for pipeline in [PipelineConfig::overlapped(2), PipelineConfig::map_overlapped(2, 1)] {
            let config = AgsConfig { pipeline, ..AgsConfig::tiny() };
            let mut slam = AgsSlam::new(config);
            for frame in &data.frames {
                slam.push_frame_cloned(&data.camera, &frame.rgb, &frame.depth);
            }
            // Frames still pending; Drop must not deadlock or panic.
            drop(slam);
        }
    }

    /// Runs `data` through one driver under `pipeline`, drained.
    fn run(pipeline: PipelineConfig, data: &Dataset) -> AgsSlam {
        let mut slam = AgsSlam::new(AgsConfig { pipeline, ..AgsConfig::tiny() });
        for frame in &data.frames {
            slam.push_frame_cloned(&data.camera, &frame.rgb, &frame.depth);
        }
        slam.finish();
        slam
    }

    #[test]
    fn matches_serial_driver_quickly() {
        // Smoke-level equivalence (the full determinism suite lives in
        // tests/pipeline_determinism.rs).
        let data = tiny_dataset(4);
        let serial = run(PipelineConfig::default(), &data);
        let overlapped = run(PipelineConfig::overlapped(1), &data);
        assert_eq!(serial.trajectory(), overlapped.trajectory());
        assert_eq!(
            serial.trace().canonical_bytes(),
            overlapped.trace().canonical_bytes(),
            "overlapped trace must be canonically identical to serial"
        );
    }

    #[test]
    fn matches_deferred_serial_reference_quickly() {
        // Smoke-level Track ‖ Map equivalence (full suite in
        // tests/pipeline_determinism.rs): the threaded map must match the
        // inline one at the same slack, not the zero-slack serial run.
        let data = tiny_dataset(5);
        let reference = run(PipelineConfig { map_slack: 1, ..PipelineConfig::default() }, &data);
        let overlapped = run(PipelineConfig::map_overlapped(1, 1), &data);
        assert_eq!(reference.trajectory(), overlapped.trajectory());
        assert_eq!(reference.cloud().gaussians(), overlapped.cloud().gaussians());
        assert_eq!(
            reference.trace().canonical_bytes(),
            overlapped.trace().canonical_bytes(),
            "Track ‖ Map must be canonically identical to the deferred-serial reference"
        );
    }
}
