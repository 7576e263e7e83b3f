//! Pipelined AGS driver: two overlap axes over the stage graph.
//!
//! **Axis 1 — FC ‖ SLAM** ([`crate::config::PipelineMode::Overlapped`],
//! paper Fig. 9b): the FC stream is computed purely from the RGB sequence
//! and its own key-frame decisions ([`crate::stages::FcStage`] is
//! self-contained), so a dedicated worker thread computes frame `N+1`'s
//! covisibility while the SLAM stages process frame `N`. A **bounded**
//! channel (1–2 frames of lookahead, [`crate::config::PipelineConfig::depth`])
//! connects the stages, so the worker blocks — instead of buffering
//! unboundedly — when the SLAM stage falls behind. Bit-identical to the
//! serial driver.
//!
//! **Axis 2 — Track ‖ Map** ([`crate::config::PipelineMode::MapOverlapped`]):
//! mapping also moves to its own worker thread, which owns the
//! copy-on-write map ([`ags_splat::SharedCloud`]) and publishes an
//! epoch-tagged [`CloudSnapshot`] after every frame. Tracking never touches
//! the live map; it reads **exactly** the snapshot published by
//! Map(N − [`crate::config::PipelineConfig::map_slack`]) — the driver drains
//! map results until that epoch has arrived and then stops, so the epoch a
//! frame is tracked against is a function of the frame index alone,
//! independent of thread timing. This makes the mode bit-identical to the
//! serial *deferred-map* reference ([`crate::pipeline::AgsSlam`] under the
//! same mode), which the determinism suite enforces across worker counts,
//! depths and slow-map backpressure.
//!
//! Kernel parallelism: [`crate::config::AgsConfig::resolve`] installs one
//! shared `WorkerPool` handle into every stage's `Parallelism` knob, so the
//! FC worker's (batched) motion estimation, the map worker's
//! rasterization/backward kernels and the tracking thread's refinement all
//! submit to the **same** executor instead of spawning competing thread
//! sets.

use crate::checkpoint::StreamState;
use crate::config::{AgsConfig, PipelineMode, ShedLevel};
use crate::fc::{FcDecision, FcDetectorState};
use crate::pipeline::{
    apply_map_output, apply_track_output, begin_trace_frame, AgsFrameRecord, SlamBody,
};
use crate::stages::{FcStage, FrameImages, FrameInput, MapOutput, MapStage, TrackStage};
use crate::trace::{StageTimes, WorkloadTrace};
use ags_image::{DepthImage, RgbImage};
use ags_math::Se3;
use ags_scene::PinholeCamera;
use ags_splat::snapshot::{CloudSnapshot, SharedCloud, SnapshotWindow};
use ags_splat::GaussianCloud;
use std::collections::VecDeque;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// FC result shipped back from the worker thread.
struct FcResult {
    decision: FcDecision,
    fc_s: f64,
}

/// A frame submitted to the FC stage whose SLAM half is still outstanding.
#[derive(Debug)]
struct PendingFrame {
    camera: PinholeCamera,
    rgb: Arc<RgbImage>,
    depth: Arc<DepthImage>,
}

/// Front end of the stage graph: FC inline (serial mode) or on a worker
/// thread behind bounded channels (both overlapped modes). The worker
/// returns its [`FcStage`] when its frame channel hangs up, so a checkpoint
/// can stop it, read the detector state, and respawn around the same stage.
enum FcFrontEnd {
    Inline(FcStage),
    Worker {
        frames_tx: Option<SyncSender<Arc<RgbImage>>>,
        results_rx: Receiver<FcResult>,
        handle: Option<JoinHandle<FcStage>>,
    },
}

/// Spawns the FC worker thread around an existing stage (fresh on startup,
/// carried over on checkpoint/restore).
fn spawn_fc_worker(config: &AgsConfig, depth: usize, mut fc: FcStage) -> FcFrontEnd {
    let stress_fc_stall_ms = config.pipeline.stress_fc_stall_ms;
    // Bounded stage channels: at most `depth` undecoded frames plus `depth`
    // undelivered decisions in flight, so the FC worker can run 1–2 frames
    // ahead and no further.
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
    FcFrontEnd::Worker { frames_tx: Some(frames_tx), results_rx, handle: Some(handle) }
}

impl std::fmt::Debug for FcFrontEnd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FcFrontEnd::Inline(_) => f.write_str("FcFrontEnd::Inline"),
            FcFrontEnd::Worker { .. } => f.write_str("FcFrontEnd::Worker"),
        }
    }
}

/// One frame's mapping work order, shipped to the map worker after tracking.
struct MapJob {
    frame_index: usize,
    camera: PinholeCamera,
    rgb: Arc<RgbImage>,
    depth: Arc<DepthImage>,
    decision: FcDecision,
    pose: Se3,
    /// Load-shedding: the frame was dropped before tracking, so mapping
    /// publishes an unchanged epoch instead of integrating the frame.
    dropped: bool,
}

/// One frame's mapping result, shipped back with the freshly published
/// snapshot (a refcount bump — the slab itself stays on the worker until
/// copy-on-write diverges it).
struct MapDone {
    mapped: MapOutput,
    snapshot: CloudSnapshot,
    num_gaussians: usize,
    map_s: f64,
}

/// A frame whose tracking finished but whose mapping result is outstanding.
struct PendingRecord {
    record: crate::trace::TraceFrame,
    pose: Se3,
}

/// Spawns the map worker thread around an existing stage and live map
/// (fresh on startup, carried over on checkpoint/restore). The worker
/// returns both when its job channel hangs up, so a checkpoint can stop it,
/// export the stage state, and respawn without cloning either.
#[allow(clippy::type_complexity)]
fn spawn_map_worker(
    slack: usize,
    mut map: MapStage,
    mut shared: SharedCloud,
) -> (SyncSender<MapJob>, Receiver<MapDone>, JoinHandle<(MapStage, SharedCloud)>) {
    // Bounded job/result channels sized to the maximum in-flight frames
    // (slack + 1 maps can be outstanding before tracking must wait); one
    // extra slot keeps the worker off the send() edge.
    let capacity = slack + 2;
    let (jobs_tx, jobs_rx) = sync_channel::<MapJob>(capacity);
    let (done_tx, done_rx) = sync_channel::<MapDone>(capacity);
    let handle = std::thread::Builder::new()
        .name("ags-map-stage".into())
        .spawn(move || {
            while let Ok(job) = jobs_rx.recv() {
                let start = Instant::now();
                let mapped = if job.dropped {
                    map.process_dropped(&shared)
                } else {
                    let input = FrameInput {
                        frame_index: job.frame_index,
                        camera: &job.camera,
                        images: FrameImages::Shared { rgb: &job.rgb, depth: &job.depth },
                    };
                    map.process(&input, &job.decision, job.pose, &mut shared)
                };
                let snapshot = shared.publish();
                let map_s = start.elapsed().as_secs_f64();
                let num_gaussians = shared.read().len();
                if done_tx.send(MapDone { mapped, snapshot, num_gaussians, map_s }).is_err() {
                    break; // driver dropped
                }
            }
            (map, shared)
        })
        .expect("spawn map stage worker");
    (jobs_tx, done_rx, handle)
}

/// The Track ‖ Map half of the stage graph: tracking state on the driver
/// thread, the mapping stage (and the live map) on a worker thread.
struct MapOverlapBody {
    config: AgsConfig,
    track: TrackStage,
    /// Snapshot staleness (`PipelineConfig::effective_map_slack`, or the
    /// checkpointed value on restore). It sizes the worker channels and the
    /// retained window, and sets the drain rule.
    slack: usize,
    /// Current load-shedding level. `ForceSerial`+ collapses the effective
    /// slack to 0 (serial read-after-map semantics on the existing worker);
    /// `DropNonKey`+ sheds non-key frames entirely. Not part of the
    /// checkpoint state — the server re-derives it from the persisted trace
    /// on restore and re-applies it.
    shed: ShedLevel,
    /// Newest drained snapshot. The drain loop advances it to **exactly**
    /// the epoch frame `N` must read (`max(0, N − slack)`) — never further,
    /// even when fresher results already sit in the channel.
    latest: CloudSnapshot,
    trajectory: Vec<Se3>,
    frame_count: usize,
    trace: WorkloadTrace,
    awaiting: VecDeque<PendingRecord>,
    completed: VecDeque<AgsFrameRecord>,
    /// Checkpoint snapshots fresher than the contractual epoch a restored
    /// run resumes at. Their frames completed before the checkpoint, so the
    /// pump consumes them *without* record side effects — they only advance
    /// `latest` along the exact epoch schedule the original run followed.
    replay: VecDeque<CloudSnapshot>,
    /// The last `slack + 1` drained snapshots — exactly the window a
    /// checkpoint must capture so a restored run can replay the staleness
    /// schedule bit-identically.
    retained: SnapshotWindow,
    jobs_tx: Option<SyncSender<MapJob>>,
    done_rx: Receiver<MapDone>,
    handle: Option<JoinHandle<(MapStage, SharedCloud)>>,
}

impl std::fmt::Debug for MapOverlapBody {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MapOverlapBody")
            .field("slack", &self.slack)
            .field("frame_count", &self.frame_count)
            .field("awaiting", &self.awaiting.len())
            .finish_non_exhaustive()
    }
}

/// Splits a checkpoint window (ascending by epoch) around the contractual
/// epoch the next frame must read, `frame_count − slack`: entries up to and
/// including it re-seed the retained window, the entry at it becomes
/// `latest`, fresher ones queue as replay. `None` when the window does not
/// hold the contractual epoch.
fn split_at_contract(
    window: Vec<CloudSnapshot>,
    frame_count: usize,
    slack: usize,
) -> Option<(SnapshotWindow, CloudSnapshot, VecDeque<CloudSnapshot>)> {
    let needed = frame_count.saturating_sub(slack) as u64;
    let (retained, replay): (Vec<_>, Vec<_>) =
        window.into_iter().partition(|snap| snap.epoch() <= needed);
    let latest = retained.last().filter(|snap| snap.epoch() == needed)?.clone();
    Some((SnapshotWindow::from_snapshots(slack, retained), latest, replay.into()))
}

impl MapOverlapBody {
    fn new(config: AgsConfig) -> Self {
        let slack = config.pipeline.effective_map_slack();
        let (jobs_tx, done_rx, handle) =
            spawn_map_worker(slack, MapStage::new(&config), SharedCloud::new());
        Self {
            track: TrackStage::new(&config),
            slack,
            shed: ShedLevel::Full,
            config,
            latest: CloudSnapshot::empty(),
            trajectory: Vec::new(),
            frame_count: 0,
            trace: WorkloadTrace::default(),
            awaiting: VecDeque::new(),
            completed: VecDeque::new(),
            replay: VecDeque::new(),
            retained: SnapshotWindow::new(slack),
            jobs_tx: Some(jobs_tx),
            done_rx,
            handle: Some(handle),
        }
    }

    /// Rebuilds a body from a checkpoint. The captured window is split
    /// around the contractual epoch the next frame must read
    /// (`frame_count − slack`): that entry becomes `latest`, older entries
    /// re-seed the retained window, and *fresher* entries — published by the
    /// original run while tracking lagged behind — queue as replay so the
    /// restored run walks the identical staleness schedule instead of
    /// seeing the head early.
    fn from_state(config: AgsConfig, state: StreamState) -> Self {
        let slack = state.slack;
        let (retained, latest, replay) = split_at_contract(state.window, state.frame_count, slack)
            .expect("checkpoint window covers the contractual epoch");
        let head = replay.back().cloned().unwrap_or_else(|| latest.clone());
        let mut track = TrackStage::new(&config);
        track.restore_state(&state.track);
        let map = MapStage::from_state(&config, state.map);
        // The worker resumes from the checkpoint head: its first live
        // publish is epoch head + 1, contiguous with the replay queue.
        let shared = SharedCloud::from_parts(head.cloud_arc(), head.epoch());
        let (jobs_tx, done_rx, handle) = spawn_map_worker(slack, map, shared);
        Self {
            track,
            slack,
            shed: ShedLevel::Full,
            config,
            latest,
            trajectory: state.trajectory,
            frame_count: state.frame_count,
            trace: state.trace,
            awaiting: VecDeque::new(),
            completed: VecDeque::new(),
            replay,
            retained,
            jobs_tx: Some(jobs_tx),
            done_rx,
            handle: Some(handle),
        }
    }

    /// Advances `latest` by exactly one epoch: replayed checkpoint
    /// snapshots first (their records were delivered before the
    /// checkpoint), then live results — each of which completes the oldest
    /// awaiting record.
    fn pump_one(&mut self) {
        let snapshot = if let Some(snapshot) = self.replay.pop_front() {
            snapshot
        } else {
            let done = self.done_rx.recv().expect("map stage worker alive");
            let pending = self.awaiting.pop_front().expect("one awaiting record per map job");
            let mut record = pending.record;
            record.stage_times.map_s = done.map_s;
            let skipped_gaussians = done.mapped.skipped_gaussians;
            apply_map_output(&mut record, done.mapped, done.num_gaussians);
            self.trace.frames.push(record.clone());
            self.completed.push_back(AgsFrameRecord {
                trace: record,
                estimated_pose: pending.pose,
                skipped_gaussians,
            });
            done.snapshot
        };
        debug_assert_eq!(snapshot.epoch(), self.latest.epoch() + 1, "epochs arrive in order");
        self.retained.push(snapshot.clone());
        self.latest = snapshot;
    }

    /// Stops the map worker and takes back its stage and live map. Only
    /// callable with no jobs in flight (i.e. after [`Self::finish`]).
    fn stop_worker(&mut self) -> (MapStage, SharedCloud) {
        drop(self.jobs_tx.take());
        while self.done_rx.recv().is_ok() {} // empty after finish; drain defensively
        self.handle.take().expect("map worker handle").join().expect("map stage worker joins")
    }

    /// Restarts the map worker around the stage and map returned by
    /// [`Self::stop_worker`].
    fn respawn_worker(&mut self, map: MapStage, shared: SharedCloud) {
        let (jobs_tx, done_rx, handle) = spawn_map_worker(self.slack, map, shared);
        self.jobs_tx = Some(jobs_tx);
        self.done_rx = done_rx;
        self.handle = Some(handle);
    }

    /// Captures the full stream state (call after [`Self::finish`]). Stops
    /// the map worker to export its stage, then respawns it around the same
    /// stage so the stream can keep running.
    fn export_state(&mut self, fc: FcDetectorState) -> StreamState {
        let (map, shared) = self.stop_worker();
        let state = StreamState {
            frame_count: self.frame_count,
            trajectory: self.trajectory.clone(),
            trace: self.trace.clone(),
            fc,
            track: self.track.export_state(),
            map: map.export_state(),
            slack: self.slack,
            window: self.retained.snapshots().cloned().collect(),
        };
        self.respawn_worker(map, shared);
        state
    }

    /// Tracks one frame against its contractual snapshot epoch and submits
    /// its mapping job; returns the oldest newly completed record, if any.
    /// `fc_wait_s` is the time the driver already spent blocked on the FC
    /// result channel for this frame — it lands in the frame's `stall_s`
    /// alongside the snapshot wait measured here.
    fn advance(
        &mut self,
        camera: &PinholeCamera,
        rgb: &Arc<RgbImage>,
        depth: &Arc<DepthImage>,
        decision: FcDecision,
        fc_s: f64,
        fc_wait_s: f64,
    ) -> Option<AgsFrameRecord> {
        if self.frame_count == 0 {
            self.trace.width = camera.width;
            self.trace.height = camera.height;
        }
        let frame_index = self.frame_count;
        self.frame_count += 1;

        // The staleness contract: frame N reads epoch max(0, N − slack) —
        // the map state published after Map(N − slack − 1). Drain exactly up
        // to it — blocking if mapping is behind (backpressure), ignoring
        // fresher results if it is ahead. `ForceSerial` shedding collapses
        // the effective slack to 0: the frame reads the epoch published by
        // its own predecessor, i.e. serial read-after-map semantics. Dropped
        // frames drain too — the pump cadence keeps the bounded channels
        // from filling during a long shed episode.
        let effective_slack = if self.shed >= ShedLevel::ForceSerial { 0 } else { self.slack };
        let needed_epoch = frame_index.saturating_sub(effective_slack) as u64;
        let wait_start = Instant::now();
        while self.latest.epoch() < needed_epoch {
            self.pump_one();
        }
        let map_wait_s = wait_start.elapsed().as_secs_f64();
        let stall_s = fc_wait_s + map_wait_s;

        let mut record = begin_trace_frame(frame_index, &decision);
        record.shed_level = self.shed as u8;

        if self.shed >= ShedLevel::DropNonKey && !decision.is_keyframe {
            // Shed the frame: no tracking, no map integration. The pose
            // repeats the last estimate and the map worker publishes an
            // unchanged epoch so the one-epoch-per-frame contract (and every
            // downstream epoch consumer) is undisturbed.
            record.dropped = true;
            let pose = self.trajectory.last().copied().unwrap_or(Se3::IDENTITY);
            self.trajectory.push(pose);
            record.stage_times = StageTimes { fc_s, track_s: 0.0, map_s: 0.0, stall_s };
            self.submit_map_job(frame_index, camera, rgb, depth, decision, pose, true);
            self.awaiting.push_back(PendingRecord { record, pose });
            return self.completed.pop_front();
        }

        let track_start = Instant::now();
        let input = FrameInput { frame_index, camera, images: FrameImages::Shared { rgb, depth } };
        let tracked = self.track.process(&input, &decision, &self.latest);
        let track_s = track_start.elapsed().as_secs_f64();
        apply_track_output(&mut record, &tracked);
        record.stage_times = StageTimes { fc_s, track_s, map_s: 0.0, stall_s };
        let pose = tracked.pose;
        self.trajectory.push(pose);

        self.submit_map_job(frame_index, camera, rgb, depth, decision, pose, false);
        self.awaiting.push_back(PendingRecord { record, pose });
        self.completed.pop_front()
    }

    #[allow(clippy::too_many_arguments)]
    fn submit_map_job(
        &mut self,
        frame_index: usize,
        camera: &PinholeCamera,
        rgb: &Arc<RgbImage>,
        depth: &Arc<DepthImage>,
        decision: FcDecision,
        pose: Se3,
        dropped: bool,
    ) {
        self.jobs_tx
            .as_ref()
            .expect("jobs channel open")
            .send(MapJob {
                frame_index,
                camera: *camera,
                rgb: Arc::clone(rgb),
                depth: Arc::clone(depth),
                decision,
                pose,
                dropped,
            })
            .expect("map stage worker alive");
    }

    /// Re-winds `latest` to the contractual epoch the *next* frame must
    /// read (`frame_count − slack`), queueing the fresher retained
    /// snapshots as replay — the same split [`Self::from_state`] performs.
    ///
    /// A quiesce ([`Self::finish`]) drains `latest` all the way to the
    /// head, which is fresher than the staleness contract allows the next
    /// frame to see; without this re-wind, a stream that checkpoints
    /// in-place and keeps running would read a fresher snapshot at the
    /// seam than either an uninterrupted or a restored run — breaking
    /// checkpoint-is-invisible bit-identity under `MapOverlapped`.
    fn rewind_to_contract(&mut self) {
        let window = self.retained.snapshots().cloned().collect();
        // A window that does not reach back to the contractual epoch (a
        // checkpoint taken within the first `slack` frames) keeps the
        // drained head — exactly what a restored run sees in that case.
        if let Some((retained, latest, replay)) =
            split_at_contract(window, self.frame_count, self.slack)
        {
            self.retained = retained;
            self.latest = latest;
            self.replay = replay;
        }
    }

    /// Drains every outstanding mapping result — and any un-replayed
    /// checkpoint snapshots, so `latest` lands on the true head — returning
    /// the completed records in stream order.
    fn finish(&mut self) -> Vec<AgsFrameRecord> {
        while !self.awaiting.is_empty() || !self.replay.is_empty() {
            self.pump_one();
        }
        self.completed.drain(..).collect()
    }
}

impl Drop for MapOverlapBody {
    fn drop(&mut self) {
        // Hang up the job channel so the worker's recv() loop ends, keep
        // receiving so it is never blocked on send, then join.
        drop(self.jobs_tx.take());
        while self.done_rx.recv().is_ok() {}
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Back end of the stage graph: tracking + mapping inline on the calling
/// thread, or mapping on its own worker (Track ‖ Map overlap).
#[derive(Debug)]
enum SlamBackEnd {
    Inline(Box<SlamBody>),
    MapWorker(Box<MapOverlapBody>),
}

impl SlamBackEnd {
    fn advance(
        &mut self,
        camera: &PinholeCamera,
        rgb: &Arc<RgbImage>,
        depth: &Arc<DepthImage>,
        decision: FcDecision,
        fc_s: f64,
        fc_wait_s: f64,
    ) -> Option<AgsFrameRecord> {
        match self {
            SlamBackEnd::Inline(body) => Some(body.advance(
                camera,
                FrameImages::Shared { rgb, depth },
                decision,
                fc_s,
                fc_wait_s,
            )),
            SlamBackEnd::MapWorker(body) => {
                body.advance(camera, rgb, depth, decision, fc_s, fc_wait_s)
            }
        }
    }

    fn finish(&mut self) -> Vec<AgsFrameRecord> {
        match self {
            SlamBackEnd::Inline(_) => Vec::new(),
            SlamBackEnd::MapWorker(body) => body.finish(),
        }
    }

    fn config(&self) -> &AgsConfig {
        match self {
            SlamBackEnd::Inline(body) => body.config(),
            SlamBackEnd::MapWorker(body) => &body.config,
        }
    }

    fn cloud(&self) -> &GaussianCloud {
        match self {
            SlamBackEnd::Inline(body) => body.cloud(),
            // The newest *drained* map state; after `finish` this is the
            // final map.
            SlamBackEnd::MapWorker(body) => body.latest.cloud(),
        }
    }

    fn trajectory(&self) -> &[Se3] {
        match self {
            SlamBackEnd::Inline(body) => body.trajectory(),
            SlamBackEnd::MapWorker(body) => &body.trajectory,
        }
    }

    fn trace(&self) -> &WorkloadTrace {
        match self {
            SlamBackEnd::Inline(body) => body.trace(),
            SlamBackEnd::MapWorker(body) => &body.trace,
        }
    }

    fn take_trace(&mut self) -> WorkloadTrace {
        match self {
            SlamBackEnd::Inline(body) => body.take_trace(),
            SlamBackEnd::MapWorker(body) => std::mem::take(&mut body.trace),
        }
    }

    fn set_shed(&mut self, level: ShedLevel) {
        match self {
            SlamBackEnd::Inline(body) => body.set_shed(level),
            SlamBackEnd::MapWorker(body) => body.shed = level,
        }
    }

    fn export_state(&mut self, fc: FcDetectorState) -> StreamState {
        match self {
            SlamBackEnd::Inline(body) => body.export_state(fc),
            SlamBackEnd::MapWorker(body) => body.export_state(fc),
        }
    }

    /// Re-applies the staleness contract after a quiesce (no-op for the
    /// inline back end, whose slack is always zero).
    fn rewind_to_contract(&mut self) {
        if let SlamBackEnd::MapWorker(body) = self {
            body.rewind_to_contract();
        }
    }
}

/// AGS driver with an explicit stage graph: `FcStage ‖ (TrackStage ‖
/// MapStage)`.
///
/// [`PipelineMode::Serial`] runs all stages inline and every
/// [`push_frame`](Self::push_frame) returns its record immediately.
/// [`PipelineMode::Overlapped`] moves the FC stage to a worker thread.
/// [`PipelineMode::MapOverlapped`] additionally moves the mapping stage to
/// its own worker, so Track(N+1) overlaps Map(N) under the deterministic
/// one-epoch-stale snapshot contract.
///
/// Streaming protocol (overlapped modes): [`push_frame`](Self::push_frame)
/// returns `None` while the lookahead window (and, under `MapOverlapped`,
/// the map pipeline) fills, then one completed record per push. Call
/// [`finish`](Self::finish) after the last frame to drain everything.
#[derive(Debug)]
pub struct PipelinedAgsSlam {
    back: SlamBackEnd,
    front: FcFrontEnd,
    pending: VecDeque<PendingFrame>,
    depth: usize,
}

impl PipelinedAgsSlam {
    /// Creates a pipelined AGS system; `config.pipeline.mode` selects the
    /// overlap axes.
    pub fn new(config: AgsConfig) -> Self {
        let config = config.resolve();
        let depth = config.pipeline.clamped_depth();
        let front = match config.pipeline.mode {
            PipelineMode::Serial => FcFrontEnd::Inline(FcStage::new(&config)),
            PipelineMode::Overlapped | PipelineMode::MapOverlapped => {
                spawn_fc_worker(&config, depth, FcStage::new(&config))
            }
        };
        let back = match config.pipeline.mode {
            PipelineMode::MapOverlapped => {
                SlamBackEnd::MapWorker(Box::new(MapOverlapBody::new(config)))
            }
            _ => SlamBackEnd::Inline(Box::new(SlamBody::new(config))),
        };
        Self { back, front, pending: VecDeque::new(), depth }
    }

    /// Rebuilds a driver from a [`StreamState`] captured by
    /// [`checkpoint`](Self::checkpoint) (typically decoded from a
    /// [`MapStore`](ags_store::MapStore) after a crash). The restored driver
    /// continues the stream bit-identically to one that was never
    /// interrupted — across pipeline modes and worker counts, as long as
    /// `config` matches the checkpointing run's.
    pub fn restore(config: AgsConfig, state: StreamState) -> Self {
        let config = config.resolve();
        let depth = config.pipeline.clamped_depth();
        let fc = FcStage::from_state(&config, state.fc.clone());
        let front = match config.pipeline.mode {
            PipelineMode::Serial => FcFrontEnd::Inline(fc),
            PipelineMode::Overlapped | PipelineMode::MapOverlapped => {
                spawn_fc_worker(&config, depth, fc)
            }
        };
        let back = match config.pipeline.mode {
            PipelineMode::MapOverlapped => {
                SlamBackEnd::MapWorker(Box::new(MapOverlapBody::from_state(config, state)))
            }
            _ => SlamBackEnd::Inline(Box::new(SlamBody::from_state(config, state))),
        };
        Self { back, front, pending: VecDeque::new(), depth }
    }

    /// Quiesces the pipeline and captures a restorable [`StreamState`].
    ///
    /// Equivalent to [`finish`](Self::finish) — the drained records are
    /// returned — followed by a state capture; the worker threads are
    /// stopped to read their stage state and respawned around the same
    /// stages, so the stream keeps accepting frames afterwards. Not a
    /// hot-path operation: call it at checkpoint cadence, not per frame
    /// (nothing is persisted between checkpoints).
    pub fn checkpoint(&mut self) -> (Vec<AgsFrameRecord>, StreamState) {
        let records = self.finish();
        let config = self.config().clone();
        // Swap in a throwaway inline front end so the worker variant can be
        // consumed by value (FcStage::new is cheap).
        let front = std::mem::replace(&mut self.front, FcFrontEnd::Inline(FcStage::new(&config)));
        let fc = match front {
            FcFrontEnd::Inline(fc) => fc,
            FcFrontEnd::Worker { frames_tx, results_rx, handle } => {
                // After finish() every submitted frame's result was
                // consumed, so hanging up the frame channel ends the worker
                // immediately and no results are in flight.
                drop(frames_tx);
                while results_rx.try_recv().is_ok() {}
                handle.expect("FC worker handle").join().expect("FC stage worker joins")
            }
        };
        let fc_state = fc.export_state();
        self.front = match config.pipeline.mode {
            PipelineMode::Serial => FcFrontEnd::Inline(fc),
            PipelineMode::Overlapped | PipelineMode::MapOverlapped => {
                spawn_fc_worker(&config, self.depth, fc)
            }
        };
        let state = self.back.export_state(fc_state);
        // The quiesce drained `latest` to the head; re-wind it onto the
        // contractual staleness schedule so continuing in place is
        // bit-identical to restoring this very state elsewhere.
        self.back.rewind_to_contract();
        (records, state)
    }

    /// Sets the load-shedding level applied to frames pushed from now on.
    ///
    /// Shedding is a *dynamic* overlay on the configured pipeline mode — no
    /// threads are stopped or respawned, so escalating and decaying are both
    /// cheap and cannot disturb in-flight frames. [`ShedLevel::ForceSerial`]
    /// collapses the effective snapshot slack to 0 (serial read-after-map
    /// semantics); [`ShedLevel::DropNonKey`] additionally sheds non-key
    /// frames — their pose repeats the last estimate and the map publishes
    /// an unchanged epoch, keeping the frame↔epoch contract intact.
    /// [`ShedLevel::RejectAdmission`] is enforced by the caller (the server
    /// rejects pushes before they reach the driver); inside the driver it
    /// behaves like `DropNonKey`.
    ///
    /// The level is stamped into every frame's
    /// [`TraceFrame::shed_level`](crate::trace::TraceFrame::shed_level), so
    /// a shed schedule is part of the canonical trace and must replay
    /// bit-identically.
    pub fn set_shed_level(&mut self, level: ShedLevel) {
        self.back.set_shed(level);
    }

    /// The configuration in use.
    pub fn config(&self) -> &AgsConfig {
        self.back.config()
    }

    /// The current Gaussian map. Under [`PipelineMode::MapOverlapped`] this
    /// is the newest snapshot the driver has consumed — the final map once
    /// [`finish`](Self::finish) has run.
    pub fn cloud(&self) -> &GaussianCloud {
        self.back.cloud()
    }

    /// Estimated trajectory of all *tracked* frames.
    pub fn trajectory(&self) -> &[Se3] {
        self.back.trajectory()
    }

    /// The workload trace of all completed frames.
    pub fn trace(&self) -> &WorkloadTrace {
        self.back.trace()
    }

    /// Takes the accumulated trace out of the driver, leaving an empty one.
    /// Call [`finish`](Self::finish) first so all pushed frames are in it.
    pub fn take_trace(&mut self) -> WorkloadTrace {
        self.back.take_trace()
    }

    /// Frames pushed but not yet tracked.
    pub fn pending_frames(&self) -> usize {
        self.pending.len()
    }

    /// Submits the next RGB-D frame.
    ///
    /// Serial mode returns the frame's record immediately. Overlapped modes
    /// return the oldest newly completed record — or `None` while the
    /// pipeline is still filling.
    pub fn push_frame(
        &mut self,
        camera: &PinholeCamera,
        rgb: Arc<RgbImage>,
        depth: Arc<DepthImage>,
    ) -> Option<AgsFrameRecord> {
        match &mut self.front {
            FcFrontEnd::Inline(fc) => {
                let start = Instant::now();
                let decision = fc.process(&rgb);
                let fc_s = start.elapsed().as_secs_f64();
                self.back.advance(camera, &rgb, &depth, decision, fc_s, 0.0)
            }
            FcFrontEnd::Worker { frames_tx, .. } => {
                frames_tx
                    .as_ref()
                    .expect("frames channel open")
                    .send(Arc::clone(&rgb))
                    .expect("FC stage worker alive");
                self.pending.push_back(PendingFrame { camera: *camera, rgb, depth });
                if self.pending.len() > self.depth {
                    self.complete_oldest()
                } else {
                    None
                }
            }
        }
    }

    /// Convenience wrapper for borrowed images (pays one copy per frame to
    /// share them with the worker threads; prefer
    /// [`push_frame`](Self::push_frame) with pre-shared frames on the hot
    /// path).
    pub fn push_frame_cloned(
        &mut self,
        camera: &PinholeCamera,
        rgb: &RgbImage,
        depth: &DepthImage,
    ) -> Option<AgsFrameRecord> {
        self.push_frame(camera, Arc::new(rgb.clone()), Arc::new(depth.clone()))
    }

    /// Drains the pipeline after the last [`push_frame`](Self::push_frame),
    /// returning the remaining records in stream order. A no-op in serial
    /// mode.
    pub fn finish(&mut self) -> Vec<AgsFrameRecord> {
        let mut records = Vec::with_capacity(self.pending.len());
        while !self.pending.is_empty() {
            records.extend(self.complete_oldest());
        }
        records.extend(self.back.finish());
        records
    }

    /// Tracks (and submits the mapping of) the oldest pending frame using
    /// its (possibly already computed) FC decision.
    fn complete_oldest(&mut self) -> Option<AgsFrameRecord> {
        let frame = self.pending.pop_front().expect("pending frame");
        let FcFrontEnd::Worker { results_rx, .. } = &self.front else {
            unreachable!("pending frames only exist in overlapped modes");
        };
        // FIFO channels: this result belongs to exactly this frame. Time
        // blocked here is FC-channel backpressure — the FC worker, not the
        // SLAM stages, is the bottleneck — and counts toward the frame's
        // `stall_s`.
        let wait_start = Instant::now();
        let result = results_rx.recv().expect("FC stage worker alive");
        let fc_wait_s = wait_start.elapsed().as_secs_f64();
        self.back.advance(
            &frame.camera,
            &frame.rgb,
            &frame.depth,
            result.decision,
            result.fc_s,
            fc_wait_s,
        )
    }
}

impl Drop for PipelinedAgsSlam {
    fn drop(&mut self) {
        if let FcFrontEnd::Worker { frames_tx, results_rx, handle } = &mut self.front {
            // Hang up the frame channel so the worker's recv() loop ends,
            // drain any in-flight results so it is not blocked on send, then
            // join. (The map worker, if any, joins in MapOverlapBody::drop.)
            drop(frames_tx.take());
            while results_rx.try_recv().is_ok() {}
            if let Some(handle) = handle.take() {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::pipeline::AgsSlam;
    use ags_scene::dataset::{Dataset, DatasetConfig, SceneId};

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
        let mut slam = PipelinedAgsSlam::new(AgsConfig::tiny());
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
        let mut slam = PipelinedAgsSlam::new(config);
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
        let mut slam = PipelinedAgsSlam::new(config);
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
        let mut slam = PipelinedAgsSlam::new(config);
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
        let mut slam = PipelinedAgsSlam::new(config);
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
        let mut slam = PipelinedAgsSlam::new(config);
        for frame in &data.frames {
            slam.push_frame_cloned(&data.camera, &frame.rgb, &frame.depth);
        }
        slam.finish();
        let totals = slam.trace().stage_time_totals();
        assert!(totals.stall_s > 0.0, "FC-channel wait must show up as stall time");
    }

    #[test]
    fn drop_non_key_repeats_pose_and_keeps_the_epoch_contract() {
        use crate::config::ShedLevel;
        // Inline driver under DropNonKey: non-key frames skip track+map,
        // repeat the previous pose and still publish their (unchanged)
        // epoch — one epoch per frame survives shedding.
        let data = tiny_dataset(8);
        let mut slam = PipelinedAgsSlam::new(AgsConfig::tiny());
        for (i, frame) in data.frames.iter().enumerate() {
            if i == 2 {
                slam.set_shed_level(ShedLevel::DropNonKey);
            }
            if i == 6 {
                slam.set_shed_level(ShedLevel::Full);
            }
            slam.push_frame_cloned(&data.camera, &frame.rgb, &frame.depth);
        }
        slam.finish();
        let trace = slam.trace();
        assert_eq!(trace.frames.len(), 8);
        assert!(
            trace.frames.iter().any(|f| f.dropped),
            "the shed window must drop at least one non-key frame"
        );
        for (i, frame) in trace.frames.iter().enumerate() {
            if frame.dropped {
                assert!((2..6).contains(&i), "drops only inside the shed window");
                assert_eq!(frame.shed_level, ShedLevel::DropNonKey as u8);
                assert_eq!(
                    slam.trajectory()[i],
                    slam.trajectory()[i - 1],
                    "a dropped frame repeats the previous pose"
                );
                assert_eq!(frame.stage_times.track_s, 0.0);
                // `map_s` is the measured `process_dropped` bookkeeping —
                // O(1), nowhere near a real mapping pass.
                assert!(frame.stage_times.map_s < 0.01);
            }
        }
        assert!(!trace.frames[7].dropped, "full service resumes after the window");
        assert_eq!(trace.frames[7].shed_level, ShedLevel::Full as u8);
    }

    #[test]
    fn dropping_mid_stream_joins_workers_cleanly() {
        let data = tiny_dataset(3);
        for pipeline in [PipelineConfig::overlapped(2), PipelineConfig::map_overlapped(2, 1)] {
            let config = AgsConfig { pipeline, ..AgsConfig::tiny() };
            let mut slam = PipelinedAgsSlam::new(config);
            for frame in &data.frames {
                slam.push_frame_cloned(&data.camera, &frame.rgb, &frame.depth);
            }
            // Frames still pending; Drop must not deadlock or panic.
            drop(slam);
        }
    }

    #[test]
    fn matches_serial_driver_quickly() {
        // Smoke-level equivalence (the full determinism suite lives in
        // tests/pipeline_determinism.rs).
        let data = tiny_dataset(4);
        let mut serial = AgsSlam::new(AgsConfig::tiny());
        for frame in &data.frames {
            serial.process_frame(&data.camera, &frame.rgb, &frame.depth);
        }
        let config = AgsConfig { pipeline: PipelineConfig::overlapped(1), ..AgsConfig::tiny() };
        let mut overlapped = PipelinedAgsSlam::new(config);
        for frame in &data.frames {
            overlapped.push_frame_cloned(&data.camera, &frame.rgb, &frame.depth);
        }
        overlapped.finish();
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
        // tests/pipeline_determinism.rs): the threaded driver must match the
        // serial deferred-map reference, not the classic serial driver.
        let data = tiny_dataset(5);
        let config =
            AgsConfig { pipeline: PipelineConfig::map_overlapped(1, 1), ..AgsConfig::tiny() };
        let mut reference = AgsSlam::new(config.clone());
        for frame in &data.frames {
            reference.process_frame(&data.camera, &frame.rgb, &frame.depth);
        }
        let mut overlapped = PipelinedAgsSlam::new(config);
        for frame in &data.frames {
            overlapped.push_frame_cloned(&data.camera, &frame.rgb, &frame.depth);
        }
        overlapped.finish();
        assert_eq!(reference.trajectory(), overlapped.trajectory());
        assert_eq!(reference.cloud().gaussians(), overlapped.cloud().gaussians());
        assert_eq!(
            reference.trace().canonical_bytes(),
            overlapped.trace().canonical_bytes(),
            "Track ‖ Map must be canonically identical to the deferred-serial reference"
        );
    }
}
