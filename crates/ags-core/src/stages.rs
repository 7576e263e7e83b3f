//! The AGS stage graph: the pipeline of Fig. 7 decomposed into three
//! free-standing units with typed inputs/outputs.
//!
//! * [`FcStage`](crate::fc::FcStage) — CODEC push, covisibility decisions
//!   and key-frame reference marking. Consumes **only** the RGB stream and
//!   its own key-frame decisions — never poses or the map — so it can
//!   legally run ahead of the SLAM stages on another thread with
//!   bit-identical results (the property the FC worker of
//!   [`crate::pipelined`] exploits).
//! * [`TrackStage`] — movement-adaptive tracking: coarse Droid-style
//!   estimate on every frame, conditional 3DGS refinement below `ThreshT`.
//! * [`MapStage`] — Gaussian contribution-aware mapping: densification,
//!   selective mapping with the skip set, contribution recording, the
//!   optional FP audit and key-frame storage.
//!
//! The one driver, [`crate::pipeline::AgsSlam`], composes these stages with
//! FC and mapping inline or on worker threads; at equal map slack every
//! placement produces identical traces, trajectories and maps. Tracking
//! reads the map only through epoch-tagged
//! [`CloudSnapshot`]s and mapping mutates it only through the
//! copy-on-write [`SharedCloud`], which is what makes the Track ‖ Map
//! overlap legal.

use crate::config::AgsConfig;
use crate::contribution::{ContributionState, ContributionTracker};
use crate::fc::FcDecision;
use ags_image::{DepthImage, RgbImage};
use ags_math::{Pcg32, Se3};
use ags_scene::PinholeCamera;
use ags_slam::keyframes::{KeyframeStore, StoredKeyframe};
use ags_slam::WorkUnits;
use ags_splat::backward::GradMode;
use ags_splat::cache::ProjectionCache;
use ags_splat::compact::{prune_cloud, quantize_chunk_in_place, FULL_SPLAT_BYTES, QUANT_CHUNK};
use ags_splat::densify::densify_from_frame;
use ags_splat::optim::{Adam, AdamState};
use ags_splat::project::{project_gaussians, Projection};
use ags_splat::render::{rasterize, RenderOptions, RenderOutput, TileWork};
use ags_splat::snapshot::{CloudSnapshot, SharedCloud};
use ags_splat::tiles::GaussianTables;
use ags_splat::train::{train_pass, TrainPass, TrainScratch};
use ags_splat::{GaussianCloud, IdSet, Remap};
use ags_track::coarse::{CoarseTracker, CoarseTrackerState};
use ags_track::fine::{GsPoseRefiner, RefineConfig};
use std::sync::Arc;

/// A frame's images as reference-counted handles, shared with the worker
/// threads and stored key frames without copying pixels.
///
/// One variant: `benchmark/src/sut.rs` names `FrameImages::Shared`, so the
/// enum stays until the next `benchmark` PR (see ROADMAP item 4's table).
#[derive(Debug, Clone, Copy)]
pub enum FrameImages<'a> {
    /// Reference-counted images shared across threads.
    Shared {
        /// Color image.
        rgb: &'a Arc<RgbImage>,
        /// Depth image.
        depth: &'a Arc<DepthImage>,
    },
}

impl<'a> FrameImages<'a> {
    /// The color image.
    pub fn rgb(&self) -> &'a RgbImage {
        let FrameImages::Shared { rgb, .. } = *self;
        rgb
    }

    /// The depth image.
    pub fn depth(&self) -> &'a DepthImage {
        let FrameImages::Shared { depth, .. } = *self;
        depth
    }

    /// `Arc` handles for long-term storage (key frames): refcount bumps.
    pub fn to_shared(&self) -> (Arc<RgbImage>, Arc<DepthImage>) {
        let FrameImages::Shared { rgb, depth } = *self;
        (Arc::clone(rgb), Arc::clone(depth))
    }
}

/// Typed input shared by the tracking and mapping stages.
#[derive(Debug, Clone, Copy)]
pub struct FrameInput<'a> {
    /// Stream index of the frame.
    pub frame_index: usize,
    /// Camera intrinsics.
    pub camera: &'a PinholeCamera,
    /// The frame's images.
    pub images: FrameImages<'a>,
}

/// Output of the tracking stage.
#[derive(Debug, Clone, Copy)]
pub struct TrackOutput {
    /// Estimated camera-to-world pose.
    pub pose: Se3,
    /// Coarse-tracking work (NN MACs + GN rows).
    pub coarse: WorkUnits,
    /// 3DGS refinement work (zero when skipped).
    pub refine: WorkUnits,
    /// Whether the pose is refined (3DGS refinement ran, or frame 0's anchor).
    pub refined: bool,
}

/// Stage ②: movement-adaptive tracking.
#[derive(Debug)]
pub struct TrackStage {
    coarse: CoarseTracker,
    refiner: GsPoseRefiner,
}

impl TrackStage {
    /// Builds the stage from a resolved [`AgsConfig`].
    pub fn new(config: &AgsConfig) -> Self {
        let refiner = GsPoseRefiner::new(RefineConfig {
            iterations: config.iter_t,
            learning_rate: config.slam.tracking_lr,
            loss: config.slam.tracking_loss,
            convergence_eps: 1e-4,
            parallelism: config.parallelism.clone(),
            backend: config.backend,
        });
        let coarse = CoarseTracker::new(config.coarse);
        Self { coarse, refiner }
    }

    /// Estimates the frame's pose against an epoch-tagged snapshot of the
    /// map. Which epoch the caller hands in is the pipeline's staleness
    /// contract: the live map of a zero-slack inline map, else the snapshot
    /// published by Map(N − `map_slack`) — never a live cloud a map worker
    /// is mutating.
    pub fn process(
        &mut self,
        input: &FrameInput<'_>,
        decision: &FcDecision,
        map: &CloudSnapshot,
    ) -> TrackOutput {
        let rgb = input.images.rgb();
        let depth = input.images.depth();
        let coarse_result =
            self.coarse.track_owned(input.camera, rgb.to_gray(), depth, Se3::IDENTITY);
        let coarse = WorkUnits {
            nn_macs: coarse_result.backbone.total_macs(),
            gn_rows: coarse_result.gn_rows,
            ..WorkUnits::default()
        };
        let mut pose = coarse_result.pose;

        let mut refine_work = WorkUnits::default();
        let refine = input.frame_index > 0 && decision.needs_refinement && !map.cloud().is_empty();
        if refine {
            let result = self.refiner.refine_snapshot(map, input.camera, pose, rgb, depth);
            refine_work.add_render(&result.workload.render);
            refine_work.grad_ops += result.workload.grad_ops;
            refine_work.iterations += result.workload.iterations;
            pose = result.pose;
            // Chain subsequent coarse estimates off the refined pose.
            self.coarse.correct_pose(pose);
        }
        let refined = refine || input.frame_index == 0;
        if input.frame_index == 0 {
            pose = Se3::IDENTITY;
            self.coarse.correct_pose(pose);
        }
        TrackOutput { pose, coarse, refine: refine_work, refined }
    }

    /// Exports the coarse-tracker state for checkpointing. The refiner is
    /// stateless (pure function of config + inputs), so nothing else needs
    /// to be captured.
    pub fn export_state(&self) -> CoarseTrackerState {
        self.coarse.export_state()
    }

    /// Restores the coarse-tracker state from [`Self::export_state`].
    pub fn restore_state(&mut self, state: &CoarseTrackerState) {
        self.coarse.restore_state(state);
    }
}

/// Output of the mapping stage.
#[derive(Debug, Clone)]
pub struct MapOutput {
    /// Mapping work (includes densification renders and table traffic).
    pub mapping: WorkUnits,
    /// Gaussians skipped by selective mapping this frame.
    pub skipped_gaussians: usize,
    /// Sampled per-tile rasterization workload (empty unless sampled).
    pub tile_work: Vec<TileWork>,
    /// Measured false-positive rate of the skip prediction, when audited.
    pub fp_rate: Option<f32>,
    /// Splats removed this frame by the map budget's negligibility prune
    /// (always 0 without a budget).
    pub pruned: usize,
    /// Splats currently resident in the cold quantized tier.
    pub quantized_splats: usize,
    /// Estimated resident map parameter bytes after this frame's update
    /// (full-precision splats plus the quantized tier) — the quantity
    /// [`AgsConfig::map_bytes_budget`] bounds. Without a budget nothing is
    /// quantized, so this is the full-precision size of the map.
    pub map_bytes: u64,
    /// Name of the render backend the stage's kernels ran on
    /// (observational; every backend is bit-identical).
    pub backend: &'static str,
    /// Cumulative projection-cache hits over the stage's lifetime
    /// (observational; zero with the cache disabled).
    pub projection_cache_hits: u64,
    /// Cumulative projection-cache misses over the stage's lifetime
    /// (observational; zero with the cache disabled).
    pub projection_cache_misses: u64,
}

/// Serializable snapshot of a [`MapStage`] — checkpointing support.
///
/// Everything except the map cloud itself (which travels through the
/// epoch-delta store) and the resolved config (which the restoring driver
/// supplies): contribution tables, Adam moments, stored key frames, the RNG
/// position and the stage counters.
#[derive(Debug, Clone)]
pub struct MapStageState {
    /// Contribution tracker tables (skip set, counts, recorded length).
    pub contribution: ContributionState,
    /// Adam moment vectors and step count.
    pub adam: AdamState,
    /// Stored key frames (poses, epochs and `Arc`-shared images).
    pub keyframes: Vec<StoredKeyframe>,
    /// PCG32 state word.
    pub rng_state: u64,
    /// PCG32 increment word.
    pub rng_inc: u64,
    /// Frames mapped so far (the epoch counter).
    pub frames_mapped: u64,
    /// Per-splat epoch of the last parameter change (compaction coldness;
    /// empty without a map budget).
    pub last_touched: Vec<u64>,
    /// Per 64-splat chunk: resident in the cold quantized tier (empty
    /// without a map budget).
    pub quantized_chunks: Vec<bool>,
}

/// Stage ③: Gaussian contribution-aware mapping.
#[derive(Debug)]
pub struct MapStage {
    config: AgsConfig,
    contribution: ContributionTracker,
    adam: Adam,
    keyframes: KeyframeStore,
    rng: Pcg32,
    /// Frames mapped so far — frame `f`'s update publishes as epoch `f + 1`.
    frames_mapped: u64,
    /// Scratch slot carrying sampled tile work out of `map_step`.
    last_tile_work: Option<Vec<TileWork>>,
    /// Per-splat epoch of the last parameter change (Adam touch or densify
    /// birth). Drives cold detection; only maintained under a map budget.
    last_touched: Vec<u64>,
    /// Per id-aligned 64-splat chunk: currently snapped onto its 8-bit
    /// affine grid. Any later touch or boundary-shifting prune evicts the
    /// chunk from the tier (it re-qualifies once cold again).
    quantized_chunks: Vec<bool>,
    /// Epoch-delta projection cache (only consulted when
    /// `AgsConfig::projection_cache` is set). Deliberately **transient** —
    /// not part of [`MapStageState`] — because a restored stage producing
    /// identical results from a cold cache is exactly the cache's
    /// correctness contract; only the observational hit counters differ.
    cache: ProjectionCache,
    /// Blend tape of the training pass, reused across iterations and frames
    /// (transient, like the cache).
    train_scratch: TrainScratch,
}

impl MapStage {
    /// Builds the stage from a resolved [`AgsConfig`].
    pub fn new(config: &AgsConfig) -> Self {
        Self {
            config: config.clone(),
            contribution: ContributionTracker::new(),
            adam: Adam::default(),
            keyframes: KeyframeStore::new(),
            rng: Pcg32::seeded(0xa65),
            frames_mapped: 0,
            last_tile_work: None,
            last_touched: Vec::new(),
            quantized_chunks: Vec::new(),
            // Enough pose slots for the mapping-window rotation (current
            // frame + window key frames) plus the densify/audit renders.
            cache: ProjectionCache::with_capacity(config.slam.mapping_window + 2),
            train_scratch: TrainScratch::default(),
        }
    }

    /// The key frames stored so far, with their poses and publish epochs.
    pub fn keyframes(&self) -> &KeyframeStore {
        &self.keyframes
    }

    /// Exports the full mapping state for checkpointing: contribution
    /// tables, optimizer moments, stored key frames, RNG position and
    /// counters. Together with the map cloud this pins every input the
    /// stage's future decisions depend on.
    pub fn export_state(&self) -> MapStageState {
        let (rng_state, rng_inc) = self.rng.state_parts();
        MapStageState {
            contribution: self.contribution.export_state(),
            adam: self.adam.export_state(),
            keyframes: self.keyframes.frames().to_vec(),
            rng_state,
            rng_inc,
            frames_mapped: self.frames_mapped,
            last_touched: self.last_touched.clone(),
            quantized_chunks: self.quantized_chunks.clone(),
        }
    }

    /// Rebuilds the stage from a resolved config and [`Self::export_state`].
    pub fn from_state(config: &AgsConfig, state: MapStageState) -> Self {
        let mut keyframes = KeyframeStore::new();
        for kf in state.keyframes {
            keyframes.push(kf);
        }
        Self {
            config: config.clone(),
            contribution: ContributionTracker::from_state(state.contribution),
            adam: Adam::from_state(Default::default(), state.adam),
            keyframes,
            rng: Pcg32::from_state_parts(state.rng_state, state.rng_inc),
            frames_mapped: state.frames_mapped,
            last_tile_work: None,
            last_touched: state.last_touched,
            quantized_chunks: state.quantized_chunks,
            cache: ProjectionCache::with_capacity(config.slam.mapping_window + 2),
            train_scratch: TrainScratch::default(),
        }
    }

    /// Runs densification + (selective) mapping for one frame, mutating the
    /// shared map through its copy-on-write handle and storing the frame as
    /// a key frame when designated. The caller publishes the result
    /// afterwards; key frames are stamped with that upcoming publish epoch.
    pub fn process(
        &mut self,
        input: &FrameInput<'_>,
        decision: &FcDecision,
        pose: Se3,
        shared: &mut SharedCloud,
    ) -> MapOutput {
        let stall_ms = self.config.pipeline.stress_map_stall_ms;
        if stall_ms > 0 {
            // Test-only backpressure: see `PipelineConfig::stress_map_stall_ms`.
            std::thread::sleep(std::time::Duration::from_millis(stall_ms));
        }
        // The epoch under which this frame's map update becomes visible to
        // tracking: one epoch per mapped frame, counted by the stage itself
        // so the stamp is identical whether or not the driver publishes
        // snapshots (the zero-slack serial driver never does).
        self.frames_mapped += 1;
        let publish_epoch = self.frames_mapped;
        debug_assert!(
            shared.epoch() == 0 || publish_epoch == shared.next_epoch(),
            "publishing drivers must publish exactly once per mapped frame"
        );
        // One copy-on-write resolution per frame: with snapshots outstanding
        // this pays a single slab copy, after which every mapping iteration
        // mutates in place.
        let cloud = shared.make_mut();
        let camera = input.camera;
        let rgb = input.images.rgb();
        let depth = input.images.depth();
        let frame_index = input.frame_index;
        let is_keyframe = decision.is_keyframe;
        let mut out = MapOutput {
            mapping: WorkUnits::default(),
            skipped_gaussians: 0,
            tile_work: Vec::new(),
            fp_rate: None,
            pruned: 0,
            quantized_splats: 0,
            map_bytes: 0,
            backend: self.config.backend.name(),
            projection_cache_hits: 0,
            projection_cache_misses: 0,
        };
        let budget = self.config.map_bytes_budget;
        if budget > 0 {
            // Splats unseen by the tracker (first frame after a restore from
            // a pre-compaction checkpoint) are stamped hot at this epoch.
            self.sync_splat_tracking(cloud.len(), publish_epoch);
        }

        // Densification every frame, as in the baseline: selective mapping
        // skips *computation* on recorded Gaussians, it does not stop the map
        // from growing where new content appears.
        let options = RenderOptions {
            parallelism: self.config.parallelism.clone(),
            backend: self.config.backend,
            ..RenderOptions::default()
        };
        let rendered = self.render_full(cloud, camera, &pose, &options);
        out.mapping.add_render(&rendered.stats);
        densify_from_frame(
            cloud,
            camera,
            &pose,
            rgb,
            depth,
            &rendered,
            &self.config.slam.densify,
            &mut self.rng,
        );
        if budget > 0 {
            // Newborn splats are hot: stamped with this publish epoch.
            self.sync_splat_tracking(cloud.len(), publish_epoch);
        }

        let thresh_n = self.config.thresh_n_pixels(camera.width, camera.height);
        // Keyframe images are Arc-shared: the window clones reference
        // counts, never pixels.
        let window = self.keyframes.mapping_window(self.config.slam.mapping_window, &mut self.rng);
        let window_data: Vec<(Se3, Arc<RgbImage>, Arc<DepthImage>)> =
            window.iter().map(|kf| (kf.pose, Arc::clone(&kf.rgb), Arc::clone(&kf.depth))).collect();
        drop(window);

        // Arc'd once per frame: each mapping iteration's `RenderOptions`
        // shares the set by refcount instead of cloning the bitset.
        let skip =
            if is_keyframe { None } else { self.contribution.skip_set(cloud.len()).map(Arc::new) };
        if let Some(s) = &skip {
            out.skipped_gaussians = s.count();
            // Reading the skipping table from DRAM (hardware: GS skipping
            // table fetch, Fig. 12).
            out.mapping.table_bytes += self.contribution.table_bytes();
        }

        let sample_tiles = self.config.slam.tile_work_interval > 0
            && frame_index % self.config.slam.tile_work_interval == 0;

        for iter in 0..self.config.slam.mapping_iterations {
            let slot = iter as usize % (window_data.len() + 1);
            let (p, r, d) = if slot == 0 {
                (pose, None, None)
            } else {
                let (kp, ref kr, ref kd) = window_data[slot - 1];
                (kp, Some(kr.as_ref()), Some(kd.as_ref()))
            };
            // Contribution recording on the key frame's last current-frame
            // iteration (the hardware records while rendering; once per key
            // frame is enough to refresh the table).
            let record_contrib =
                is_keyframe && slot == 0 && iter + 1 >= self.config.slam.mapping_iterations;
            let collect = sample_tiles && iter == 0;
            let (loss, stats, contributions) = self.map_step(
                cloud,
                camera,
                &p,
                r.unwrap_or(rgb),
                d.unwrap_or(depth),
                skip.as_ref(),
                record_contrib,
                collect,
            );
            let _ = loss;
            out.mapping.merge(&stats);
            out.mapping.iterations += 1;
            if let Some(c) = contributions {
                self.contribution.record(&c, thresh_n);
                // Writing the logging table back to DRAM (Fig. 11).
                out.mapping.table_bytes += self.contribution.table_bytes();
            }
            if collect {
                out.tile_work = self.last_tile_work.take().unwrap_or_default();
            }
        }

        // --- FP audit (optional, §6.2): compare prediction vs actual. ---
        if self.config.audit_false_positives && !is_keyframe && skip.is_some() {
            let audit = self.render_full(
                cloud,
                camera,
                &pose,
                &RenderOptions {
                    record_contributions: true,
                    parallelism: self.config.parallelism.clone(),
                    backend: self.config.backend,
                    ..Default::default()
                },
            );
            if let Some(stats) = audit.contributions {
                out.fp_rate = Some(self.contribution.false_positive_rate(&stats, thresh_n));
            }
        }

        // --- Keyframe bookkeeping (FC-side marking lives in `FcStage`). ---
        if is_keyframe {
            let (rgb_arc, depth_arc) = input.images.to_shared();
            self.keyframes.push(StoredKeyframe {
                frame_index,
                pose,
                epoch: publish_epoch,
                rgb: rgb_arc,
                depth: depth_arc,
            });
        }

        // --- Map budget: cold-tier quantization, then a negligibility
        // prune. Pure functions of stage state and the frame stream, so
        // every driver (serial, overlapped, map-overlapped, any worker
        // count) reproduces the decisions bit-identically.
        if budget > 0 {
            if self.resident_bytes(cloud.len()) > budget {
                // Escalation 1: snap everything cold for even one epoch.
                self.quantize_cold_chunks(cloud, publish_epoch, 1);
                let over = self.resident_bytes(cloud.len()).saturating_sub(budget);
                if over > 0 {
                    // Escalation 2: prune the most-negligible recorded
                    // splats. The ceiling is soft — candidates can run out,
                    // and evicted chunks count full-precision until the next
                    // pass re-snaps them.
                    let need = over.div_ceil(FULL_SPLAT_BYTES) as usize;
                    let victims = self.negligibility_victims(cloud.len(), need);
                    let remap = prune_cloud(cloud, |id, _| !victims[id]);
                    out.pruned = self.apply_remap(cloud, &remap);
                }
            }
            out.quantized_splats = self.quantized_splat_count();
        }
        out.map_bytes = ags_splat::compact::map_bytes(cloud.len(), out.quantized_splats);
        let (hits, misses) = self.cache.stats();
        out.projection_cache_hits = hits;
        out.projection_cache_misses = misses;
        out
    }

    /// Projects the cloud through the epoch-delta cache when enabled, else
    /// straight through the configured backend.
    fn project(&mut self, cloud: &GaussianCloud, camera: &PinholeCamera, pose: &Se3) -> Projection {
        if self.config.projection_cache {
            self.cache.project(cloud, camera, pose)
        } else {
            project_gaussians(cloud, camera, pose)
        }
    }

    /// One full forward render routed through the configured backend and
    /// the projection cache — the densify pre-render and the FP audit share
    /// this path with `map_step`, so every projection in the stage is
    /// cache-eligible.
    fn render_full(
        &mut self,
        cloud: &GaussianCloud,
        camera: &PinholeCamera,
        pose: &Se3,
        options: &RenderOptions,
    ) -> RenderOutput {
        let projection = self.project(cloud, camera, pose);
        let tables = GaussianTables::build_with(&projection, camera, &options.parallelism);
        rasterize(cloud, &projection, &tables, camera, options)
    }

    /// Grows the per-splat compaction tracking to `len`, stamping unseen
    /// splats as touched at `epoch`.
    fn sync_splat_tracking(&mut self, len: usize, epoch: u64) {
        if self.last_touched.len() < len {
            self.last_touched.resize(len, epoch);
        }
        self.quantized_chunks.resize(len / QUANT_CHUNK, false);
    }

    /// Records that splat `id`'s parameters changed at `epoch`, evicting its
    /// chunk from the cold quantized tier.
    fn mark_touched(&mut self, id: usize, epoch: u64) {
        if let Some(t) = self.last_touched.get_mut(id) {
            *t = epoch;
        }
        if let Some(q) = self.quantized_chunks.get_mut(id / QUANT_CHUNK) {
            *q = false;
        }
    }

    /// Threads a prune's id remap through every id-indexed side structure:
    /// optimizer moments, contribution tables, the projection cache and the
    /// compaction tracking itself. Returns the number removed.
    fn apply_remap(&mut self, cloud: &mut GaussianCloud, remap: &Remap) -> usize {
        if remap.is_identity() {
            return 0;
        }
        self.adam.remap(remap);
        self.contribution.remap(remap);
        self.last_touched = remap.gather(&self.last_touched);
        self.cache.remap(remap);
        // Chunks wholly below the first removed id keep their alignment and
        // stay snapped. Chunks at or past it shift — but where every
        // survivor came out of a snapped (hence cold) chunk, the chunk
        // re-snaps eagerly onto its new grid instead of silently dropping
        // to the full-precision tier until a later cold pass re-qualifies
        // it, so a prune never deflates the quantized tier beyond the
        // unavoidable tail-alignment loss.
        let was_quantized = std::mem::take(&mut self.quantized_chunks);
        let old_ids: Vec<u32> = (0..remap.old_len() as u32).collect();
        let old_of = remap.gather(&old_ids);
        let stable = remap.first_removed().map_or(0, |id| id / QUANT_CHUNK);
        let new_chunks = remap.new_len() / QUANT_CHUNK;
        let splats = cloud.gaussians_mut();
        self.quantized_chunks = (0..new_chunks)
            .map(|c| {
                if c < stable {
                    return was_quantized.get(c).copied().unwrap_or(false);
                }
                let lo = c * QUANT_CHUNK;
                let hi = lo + QUANT_CHUNK;
                let all_cold = old_of[lo..hi].iter().all(|&old| {
                    was_quantized.get(old as usize / QUANT_CHUNK).copied().unwrap_or(false)
                });
                let snapped = all_cold && quantize_chunk_in_place(&mut splats[lo..hi]);
                if snapped {
                    // Snapping onto the new grid rewrites the chunk.
                    (lo..hi).for_each(|id| self.cache.mark_dirty(id));
                }
                snapped
            })
            .collect();
        remap.removed()
    }

    /// Snaps every fully-cold, not-yet-snapped id-aligned chunk onto its
    /// 8-bit affine grid (see `ags_splat::compact`). The snapped values are
    /// the canonical parameters from here on — every driver, snapshot and
    /// the wire codec see identical bits.
    fn quantize_cold_chunks(&mut self, cloud: &mut GaussianCloud, epoch: u64, cold_after: u64) {
        let chunks = cloud.len() / QUANT_CHUNK;
        self.quantized_chunks.resize(chunks, false);
        let splats = cloud.gaussians_mut();
        for c in 0..chunks {
            if self.quantized_chunks[c] {
                continue;
            }
            let lo = c * QUANT_CHUNK;
            let hi = lo + QUANT_CHUNK;
            let cold =
                self.last_touched[lo..hi].iter().all(|&t| t.saturating_add(cold_after) <= epoch);
            if cold && quantize_chunk_in_place(&mut splats[lo..hi]) {
                self.quantized_chunks[c] = true;
                if self.config.projection_cache {
                    // Snapping rewrites the chunk's parameters.
                    for id in lo..hi {
                        self.cache.mark_dirty(id);
                    }
                }
            }
        }
    }

    /// Splats currently resident in the cold quantized tier.
    fn quantized_splat_count(&self) -> usize {
        self.quantized_chunks.iter().filter(|&&q| q).count() * QUANT_CHUNK
    }

    /// Estimated resident map bytes given the current tier occupancy.
    fn resident_bytes(&self, len: usize) -> u64 {
        ags_splat::compact::map_bytes(len, self.quantized_splat_count())
    }

    /// Keep-mask complement for a budget-pressure prune: the `need` splats
    /// with the highest recorded negligible-pixel counts (ties to the lower
    /// id). Splats without a recorded count are never pressure-pruned.
    fn negligibility_victims(&self, len: usize, need: usize) -> Vec<bool> {
        let counts = self.contribution.counts();
        let mut candidates: Vec<(u32, usize)> = counts
            .iter()
            .take(len)
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(id, &c)| (c, id))
            .collect();
        candidates.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut victims = vec![false; len];
        for &(_, id) in candidates.iter().take(need) {
            victims[id] = true;
        }
        victims
    }

    /// One (selective) mapping iteration. Returns the loss, the phase work
    /// and optionally the recorded contribution statistics.
    #[allow(clippy::too_many_arguments)]
    fn map_step(
        &mut self,
        cloud: &mut GaussianCloud,
        camera: &PinholeCamera,
        pose: &Se3,
        rgb: &RgbImage,
        depth: &DepthImage,
        skip: Option<&Arc<IdSet>>,
        record_contributions: bool,
        collect_tile_work: bool,
    ) -> (f32, WorkUnits, Option<ags_splat::render::ContributionStats>) {
        let options = RenderOptions {
            // Refcount bump per iteration, not a bitset clone.
            skip: skip.map(Arc::clone),
            record_contributions,
            collect_tile_work,
            parallelism: self.config.parallelism.clone(),
            backend: self.config.backend,
        };
        let TrainPass { loss, mut render, backward: back } = train_pass(
            &mut self.train_scratch,
            cloud,
            camera,
            pose,
            rgb,
            depth,
            &self.config.slam.mapping_loss,
            GradMode::Map,
            &options,
            self.config.projection_cache.then_some(&mut self.cache),
        );
        let track_touches = self.config.map_bytes_budget > 0;
        let use_cache = self.config.projection_cache;
        let epoch = self.frames_mapped;
        if let Some(grads) = back.grads.as_ref() {
            self.adam.step(cloud, grads);
            if track_touches || use_cache {
                for (id, &touched) in grads.touched.iter().enumerate() {
                    if touched {
                        if track_touches {
                            self.mark_touched(id, epoch);
                        }
                        if use_cache {
                            self.cache.mark_dirty(id);
                        }
                    }
                }
            }
        }
        let mut work = WorkUnits::default();
        work.add_render(&render.stats);
        work.grad_ops = back.stats.grad_ops;
        if collect_tile_work {
            // The render is dropped on return: move the sampled tile work
            // out instead of cloning it every iteration.
            self.last_tile_work = Some(std::mem::take(&mut render.stats.tile_work));
        }
        (loss.total, work, render.contributions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fc::FcStage;
    use ags_scene::dataset::{Dataset, DatasetConfig, SceneId};

    /// Drives the raw stage graph over six 48×36 Xyz frames the way a
    /// publishing driver would: one publish per mapped frame.
    fn drive_six_frames(config: AgsConfig) -> MapStage {
        let dconfig =
            DatasetConfig { width: 48, height: 36, num_frames: 6, ..DatasetConfig::tiny() };
        let data = Dataset::generate(SceneId::Xyz, &dconfig);
        let config = config.resolve();
        let mut fc = FcStage::new(&config);
        let mut track = TrackStage::new(&config);
        let mut map = MapStage::new(&config);
        let mut shared = SharedCloud::new();
        for (i, frame) in data.frames.iter().enumerate() {
            let decision = fc.process(&frame.rgb);
            let (rgb, depth) = (Arc::new(frame.rgb.clone()), Arc::new(frame.depth.clone()));
            let input = FrameInput {
                frame_index: i,
                camera: &data.camera,
                images: FrameImages::Shared { rgb: &rgb, depth: &depth },
            };
            let snapshot = shared.peek();
            let tracked = track.process(&input, &decision, &snapshot);
            drop(snapshot);
            map.process(&input, &decision, tracked.pose, &mut shared);
            shared.publish();
        }
        map
    }

    #[test]
    fn keyframes_are_stamped_with_their_publish_epoch() {
        // Every stored key frame must carry the epoch its map update became
        // visible under (frame index + 1), regardless of which frames were
        // key frames.
        let map = drive_six_frames(AgsConfig::tiny());
        let stored = map.keyframes();
        assert!(!stored.is_empty(), "frame 0 is always a key frame");
        for kf in stored.frames() {
            assert_eq!(
                kf.epoch,
                kf.frame_index as u64 + 1,
                "key frame {} must carry its publish epoch",
                kf.frame_index
            );
        }
    }

    #[test]
    fn only_a_budgeted_stream_carries_compaction_bookkeeping() {
        // Without a budget the map never shrinks, so the per-splat touch
        // epochs and the quantized-chunk flags (both checkpointed in the
        // aux record) must stay empty instead of growing with the map.
        let unbudgeted = drive_six_frames(AgsConfig::tiny()).export_state();
        assert!(unbudgeted.last_touched.is_empty());
        assert!(unbudgeted.quantized_chunks.is_empty());
        let budgeted =
            drive_six_frames(AgsConfig { map_bytes_budget: 32 * 1024, ..AgsConfig::tiny() })
                .export_state();
        assert!(!budgeted.last_touched.is_empty());
        assert!(!budgeted.quantized_chunks.is_empty());
    }

    #[test]
    fn prune_remap_is_chunk_stable_for_cold_quantized_chunks() {
        // Three fully cold, snapped chunks; removing one early splat shifts
        // every later id. The shifted survivors are still cold and still
        // quantized data, so the remap must re-snap them chunk-aligned —
        // before this, every chunk past the first removal silently fell out
        // of the quantized tier.
        let config = AgsConfig::tiny().resolve();
        let mut map = MapStage::new(&config);
        let mut cloud = GaussianCloud::new();
        let mut rng = Pcg32::seeded(11);
        for _ in 0..3 * QUANT_CHUNK {
            cloud.push(ags_splat::Gaussian::isotropic(
                ags_math::Vec3::new(
                    rng.range_f32(-1.0, 1.0),
                    rng.range_f32(-1.0, 1.0),
                    rng.range_f32(1.5, 3.0),
                ),
                0.1,
                ags_math::Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32()),
                0.9,
            ));
        }
        map.last_touched = vec![0; cloud.len()];
        map.quantize_cold_chunks(&mut cloud, 10, 1);
        assert_eq!(map.quantized_splat_count(), 3 * QUANT_CHUNK, "all chunks snap");

        let remap = prune_cloud(&mut cloud, |id, _| id != 5);
        map.apply_remap(&mut cloud, &remap);
        let full_chunks = cloud.len() / QUANT_CHUNK;
        assert_eq!(
            map.quantized_splat_count(),
            full_chunks * QUANT_CHUNK,
            "quantized_splats must not collapse across a prune: every \
             surviving full chunk stays resident in the quantized tier"
        );
    }
}
