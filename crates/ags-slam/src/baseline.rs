//! The baseline 3DGS-SLAM system (SplaTAM-style, serial execution).

use crate::config::SlamConfig;
use crate::keyframes::{KeyframeStore, StoredKeyframe};
use crate::work::WorkUnits;
use ags_image::{DepthImage, RgbImage};
use ags_math::{Pcg32, Se3};
use ags_scene::PinholeCamera;
use ags_splat::backward::GradMode;
use ags_splat::densify::densify_from_frame;
use ags_splat::optim::Adam;
use ags_splat::render::{RenderOptions, TileWork};
use ags_splat::train::{train_pass, TrainPass, TrainScratch};
use ags_splat::GaussianCloud;
use ags_track::fine::{GsPoseRefiner, RefineConfig};
use std::sync::Arc;

/// Per-frame processing record: pose, workloads and map size.
#[derive(Debug, Clone)]
pub struct FrameRecord {
    /// Stream index.
    pub frame_index: usize,
    /// Estimated camera-to-world pose.
    pub estimated_pose: Se3,
    /// Tracking-phase workload.
    pub tracking: WorkUnits,
    /// Mapping-phase workload (includes densification renders).
    pub mapping: WorkUnits,
    /// Final tracking loss.
    pub tracking_loss: f32,
    /// Final mapping loss.
    pub mapping_loss: f32,
    /// Whether this frame was stored as a keyframe.
    pub is_keyframe: bool,
    /// Map size after this frame.
    pub num_gaussians: usize,
    /// Sampled per-tile rasterization workload (empty unless sampled).
    pub tile_work: Vec<TileWork>,
}

/// A serial SplaTAM-style 3DGS-SLAM system.
///
/// Feed frames in streaming order with [`BaselineSlam::process_frame`]; the
/// first frame anchors the world frame at the identity pose.
#[derive(Debug)]
pub struct BaselineSlam {
    config: SlamConfig,
    cloud: GaussianCloud,
    adam: Adam,
    keyframes: KeyframeStore,
    refiner: GsPoseRefiner,
    rng: Pcg32,
    trajectory: Vec<Se3>,
    velocity: Se3,
    frame_count: usize,
    /// Blend tape of the mapping passes, reused across iterations and frames.
    train_scratch: TrainScratch,
}

impl BaselineSlam {
    /// Creates a system with the given configuration.
    pub fn new(config: SlamConfig) -> Self {
        let refiner = GsPoseRefiner::new(RefineConfig {
            iterations: config.tracking_iterations,
            learning_rate: config.tracking_lr,
            loss: config.tracking_loss,
            convergence_eps: 1e-4,
            ..RefineConfig::default()
        });
        Self {
            config,
            cloud: GaussianCloud::new(),
            adam: Adam::default(),
            keyframes: KeyframeStore::new(),
            refiner,
            rng: Pcg32::seeded(0x51a1),
            trajectory: Vec::new(),
            velocity: Se3::IDENTITY,
            frame_count: 0,
            train_scratch: TrainScratch::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SlamConfig {
        &self.config
    }

    /// The current Gaussian map.
    pub fn cloud(&self) -> &GaussianCloud {
        &self.cloud
    }

    /// Estimated trajectory so far.
    pub fn trajectory(&self) -> &[Se3] {
        &self.trajectory
    }

    /// The keyframe store.
    pub fn keyframes(&self) -> &KeyframeStore {
        &self.keyframes
    }

    /// Processes the next RGB-D frame.
    pub fn process_frame(
        &mut self,
        camera: &PinholeCamera,
        rgb: &RgbImage,
        depth: &DepthImage,
    ) -> FrameRecord {
        let frame_index = self.frame_count;
        self.frame_count += 1;
        let mut tracking = WorkUnits::default();
        let mut tracking_loss = 0.0;

        // --- Tracking (paper Fig. 2b left): N_T pose-only iterations. ---
        let pose = if frame_index == 0 {
            Se3::IDENTITY
        } else {
            let init = (self.velocity * *self.trajectory.last().unwrap()).renormalized();
            let result = self.refiner.refine(&self.cloud, camera, init, rgb, depth);
            tracking.add_render(&result.workload.render);
            tracking.grad_ops += result.workload.grad_ops;
            tracking.iterations += result.workload.iterations;
            tracking_loss = result.final_loss;
            result.pose
        };
        if let Some(last) = self.trajectory.last() {
            self.velocity = (pose * last.inverse()).renormalized();
        }
        self.trajectory.push(pose);

        // --- Densification (every frame). ---
        let mut mapping = WorkUnits::default();
        let rendered =
            ags_splat::render::render(&self.cloud, camera, &pose, &RenderOptions::default());
        mapping.add_render(&rendered.stats);
        densify_from_frame(
            &mut self.cloud,
            camera,
            &pose,
            rgb,
            depth,
            &rendered,
            &self.config.densify,
            &mut self.rng,
        );

        // --- Mapping: N_M iterations over the window (current + keyframes). ---
        // Keyframe images are Arc-shared: the window clones reference counts,
        // never pixels.
        let window = self.keyframes.mapping_window(self.config.mapping_window, &mut self.rng);
        let window_data: Vec<(Se3, Arc<RgbImage>, Arc<DepthImage>)> =
            window.iter().map(|kf| (kf.pose, Arc::clone(&kf.rgb), Arc::clone(&kf.depth))).collect();
        drop(window);

        let mut mapping_loss = 0.0;
        let mut tile_work = Vec::new();
        let sample_tiles =
            self.config.tile_work_interval > 0 && frame_index % self.config.tile_work_interval == 0;
        for iter in 0..self.config.mapping_iterations {
            // Round-robin: current frame first, then window frames.
            let slot = iter as usize % (window_data.len() + 1);
            let (p, r, d) = if slot == 0 {
                (pose, None, None)
            } else {
                let (kp, ref kr, ref kd) = window_data[slot - 1];
                (kp, Some(kr.as_ref()), Some(kd.as_ref()))
            };
            let collect = sample_tiles && iter == 0;
            let report = self.map_step(camera, &p, r.unwrap_or(rgb), d.unwrap_or(depth), collect);
            mapping.add_render(&report.render.stats);
            mapping.grad_ops += report.backward.stats.grad_ops;
            mapping.iterations += 1;
            if slot == 0 {
                mapping_loss = report.loss.total;
            }
            if collect {
                tile_work = report.render.stats.tile_work.clone();
            }
        }

        // --- Keyframe bookkeeping. ---
        let is_keyframe = frame_index % self.config.keyframe_interval == 0;
        if is_keyframe {
            self.keyframes.push(StoredKeyframe {
                frame_index,
                pose,
                epoch: 0, // the baseline publishes no map snapshots
                rgb: Arc::new(rgb.clone()),
                depth: Arc::new(depth.clone()),
            });
        }

        FrameRecord {
            frame_index,
            estimated_pose: pose,
            tracking,
            mapping,
            tracking_loss,
            mapping_loss,
            is_keyframe,
            num_gaussians: self.cloud.len(),
            tile_work,
        }
    }

    /// One mapping iteration with optional tile-work collection.
    fn map_step(
        &mut self,
        camera: &PinholeCamera,
        pose: &Se3,
        rgb: &RgbImage,
        depth: &DepthImage,
        collect_tile_work: bool,
    ) -> TrainPass {
        let options = RenderOptions { collect_tile_work, ..Default::default() };
        let pass = train_pass(
            &mut self.train_scratch,
            &self.cloud,
            camera,
            pose,
            rgb,
            depth,
            &self.config.mapping_loss,
            GradMode::Map,
            &options,
            None,
        );
        if let Some(grads) = pass.backward.grads.as_ref() {
            self.adam.step(&mut self.cloud, grads);
        }
        pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ags_scene::dataset::{Dataset, DatasetConfig, SceneId};
    use ags_track::ate::ate_rmse;

    fn run_slam(config: SlamConfig, frames: usize) -> (BaselineSlam, Dataset, Vec<FrameRecord>) {
        // Parameterise the trajectory at 30 Hz-like density (4x the processed
        // frames) and process a prefix, so per-frame motion is realistic.
        let dconfig = DatasetConfig {
            width: 64,
            height: 48,
            num_frames: frames * 4,
            ..DatasetConfig::tiny()
        };
        let mut data = Dataset::generate(SceneId::Xyz, &dconfig);
        data.truncate(frames);
        let mut slam = BaselineSlam::new(config);
        let mut records = Vec::new();
        for frame in &data.frames {
            records.push(slam.process_frame(&data.camera, &frame.rgb, &frame.depth));
        }
        (slam, data, records)
    }

    #[test]
    fn builds_map_and_tracks() {
        let (slam, data, records) = run_slam(SlamConfig::tiny(), 6);
        assert!(slam.cloud().len() > 100, "map should grow, got {}", slam.cloud().len());
        assert_eq!(slam.trajectory().len(), 6);
        // Trajectory error must be bounded (tiny test budget, loose bound).
        let gt = data.gt_trajectory();
        let ate = ate_rmse(slam.trajectory(), &gt);
        assert!(ate < 0.1, "baseline ATE {ate}");
        // Work accounting: tracking on every frame after the first.
        assert!(records[0].tracking.is_empty());
        assert!(!records[1].tracking.is_empty());
        assert!(!records[1].mapping.is_empty());
        assert_eq!(records[0].frame_index, 0);
    }

    #[test]
    fn first_frame_is_identity_and_keyframe() {
        let (_, _, records) = run_slam(SlamConfig::tiny(), 2);
        assert_eq!(records[0].estimated_pose, Se3::IDENTITY);
        assert!(records[0].is_keyframe);
    }

    #[test]
    fn keyframes_respect_interval() {
        let config = SlamConfig { keyframe_interval: 3, ..SlamConfig::tiny() };
        let (slam, _, records) = run_slam(config, 7);
        let kf_indices: Vec<usize> =
            records.iter().filter(|r| r.is_keyframe).map(|r| r.frame_index).collect();
        assert_eq!(kf_indices, vec![0, 3, 6]);
        assert_eq!(slam.keyframes().len(), 3);
    }

    #[test]
    fn tile_work_sampled_on_interval() {
        let config = SlamConfig { tile_work_interval: 2, ..SlamConfig::tiny() };
        let (_, _, records) = run_slam(config, 4);
        assert!(!records[0].tile_work.is_empty(), "frame 0 sampled");
        assert!(records[1].tile_work.is_empty(), "frame 1 not sampled");
        assert!(!records[2].tile_work.is_empty(), "frame 2 sampled");
    }

    #[test]
    fn mapping_reduces_loss_over_frames() {
        let (_, _, records) = run_slam(SlamConfig::tiny(), 8);
        // The map improves: late-frame mapping loss below the first mapped value.
        let first = records[0].mapping_loss;
        let last = records.last().unwrap().mapping_loss;
        assert!(last < first, "mapping loss should drop: {first} -> {last}");
    }
}
