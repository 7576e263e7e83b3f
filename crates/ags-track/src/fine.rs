//! Fine-grained pose refinement against the 3DGS map.
//!
//! This is the paper's stage Ⓑ: `IterT` 3DGS training iterations that update
//! the camera pose while freezing Gaussians. The baseline (SplaTAM) runs the
//! same loop for its full tracking budget (`N_T` iterations); AGS only runs
//! it on low-covisibility frames, with far fewer iterations.

use ags_image::{DepthImage, RgbImage};
use ags_math::parallel::Parallelism;
use ags_math::Se3;
use ags_scene::PinholeCamera;
use ags_splat::backward::GradMode;
use ags_splat::cache::ProjectionCache;
use ags_splat::loss::LossConfig;
use ags_splat::optim::PoseAdam;
use ags_splat::render::{RenderOptions, RenderStats};
use ags_splat::train::{train_pass, TrainPass, TrainScratch};
use ags_splat::{BackendKind, CloudSnapshot, GaussianCloud};

/// Configuration of the 3DGS pose refiner.
#[derive(Debug, Clone, PartialEq)]
pub struct RefineConfig {
    /// Training iterations per invocation.
    pub iterations: u32,
    /// Pose Adam learning rate.
    pub learning_rate: f32,
    /// Loss used for tracking (silhouette-masked by default).
    pub loss: LossConfig,
    /// Stop early when the loss improves by less than this fraction.
    pub convergence_eps: f32,
    /// Thread-level parallelism of the per-iteration render + backward
    /// kernels (bit-identical to serial at any thread count).
    pub parallelism: Parallelism,
    /// Render backend the per-iteration kernels execute on (bit-identical
    /// across backends).
    pub backend: BackendKind,
}

impl Default for RefineConfig {
    fn default() -> Self {
        Self {
            iterations: 20,
            learning_rate: 2e-3,
            loss: LossConfig::tracking(),
            convergence_eps: 1e-4,
            parallelism: Parallelism::default(),
            backend: BackendKind::default(),
        }
    }
}

/// Aggregated workload of one refinement call (cost-model input).
#[derive(Debug, Clone, Default)]
pub struct RefineWorkload {
    /// Iterations actually executed (early stop may reduce them).
    pub iterations: u32,
    /// Sum of render statistics over all iterations.
    pub render: RenderStats,
    /// Gradient ops over all iterations.
    pub grad_ops: u64,
}

/// Result of pose refinement.
#[derive(Debug, Clone)]
pub struct RefineResult {
    /// Refined camera-to-world pose.
    pub pose: Se3,
    /// Loss at the first iteration.
    pub initial_loss: f32,
    /// Loss at the last iteration.
    pub final_loss: f32,
    /// Workload for the hardware model.
    pub workload: RefineWorkload,
}

/// Refines camera poses by differentiable rendering against a fixed map.
#[derive(Debug, Clone)]
pub struct GsPoseRefiner {
    config: RefineConfig,
}

impl GsPoseRefiner {
    /// Creates a refiner.
    pub fn new(config: RefineConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &RefineConfig {
        &self.config
    }

    /// Runs up to `config.iterations` pose-only training iterations.
    pub fn refine(
        &self,
        cloud: &GaussianCloud,
        camera: &PinholeCamera,
        initial_pose: Se3,
        gt_rgb: &RgbImage,
        gt_depth: &DepthImage,
    ) -> RefineResult {
        self.refine_with_iterations(
            cloud,
            camera,
            initial_pose,
            gt_rgb,
            gt_depth,
            self.config.iterations,
        )
    }

    /// Refines against an epoch-tagged [`CloudSnapshot`] of the map — the
    /// form the Track ‖ Map pipeline hands tracking, which must never read
    /// the live (concurrently mutated) cloud. The refinement itself is
    /// identical to [`refine`](Self::refine) on the snapshotted cloud.
    pub fn refine_snapshot(
        &self,
        map: &CloudSnapshot,
        camera: &PinholeCamera,
        initial_pose: Se3,
        gt_rgb: &RgbImage,
        gt_depth: &DepthImage,
    ) -> RefineResult {
        self.refine(map.cloud(), camera, initial_pose, gt_rgb, gt_depth)
    }

    /// Runs up to `iterations` pose-only training iterations (used by the
    /// baseline pipeline, which has a different budget than AGS).
    pub fn refine_with_iterations(
        &self,
        cloud: &GaussianCloud,
        camera: &PinholeCamera,
        initial_pose: Se3,
        gt_rgb: &RgbImage,
        gt_depth: &DepthImage,
        iterations: u32,
    ) -> RefineResult {
        // The map is frozen for the call, so each Gaussian's pose-independent
        // terms are derived once and serve every iteration; tracking passes
        // never take one of the cache's pose slots.
        let mut cache = ProjectionCache::with_capacity(1);
        self.refine_loop(
            cloud,
            camera,
            initial_pose,
            gt_rgb,
            gt_depth,
            iterations,
            Some(&mut cache),
        )
    }

    /// The refinement loop, projecting through `cache` when there is one.
    #[allow(clippy::too_many_arguments)]
    fn refine_loop(
        &self,
        cloud: &GaussianCloud,
        camera: &PinholeCamera,
        initial_pose: Se3,
        gt_rgb: &RgbImage,
        gt_depth: &DepthImage,
        iterations: u32,
        mut cache: Option<&mut ProjectionCache>,
    ) -> RefineResult {
        let mut pose = initial_pose;
        let mut best_pose = initial_pose;
        let mut adam = PoseAdam::new(self.config.learning_rate);
        let mut workload = RefineWorkload::default();
        let mut initial_loss = 0.0f32;
        let mut best_loss = f32::INFINITY;
        let mut prev_loss = f32::INFINITY;

        let options = RenderOptions {
            parallelism: self.config.parallelism.clone(),
            backend: self.config.backend,
            ..RenderOptions::default()
        };
        let mut scratch = TrainScratch::default();

        for iter in 0..iterations {
            let TrainPass { loss, render, backward: back } = train_pass(
                &mut scratch,
                cloud,
                camera,
                &pose,
                gt_rgb,
                gt_depth,
                &self.config.loss,
                GradMode::Track,
                &options,
                cache.as_deref_mut(),
            );
            workload.render.merge(&render.stats);
            workload.grad_ops += back.stats.grad_ops;
            workload.iterations += 1;

            if iter == 0 {
                initial_loss = loss.total;
            }
            if loss.total < best_loss {
                best_loss = loss.total;
                best_pose = pose;
            }
            let Some(pg) = back.pose else { break };
            pose = adam.step(&pose, &pg);

            // Relative-improvement early stop.
            if prev_loss.is_finite() {
                let impr = (prev_loss - loss.total) / prev_loss.abs().max(1e-9);
                if impr.abs() < self.config.convergence_eps && iter > 2 {
                    break;
                }
            }
            prev_loss = loss.total;
        }

        RefineResult {
            pose: best_pose,
            initial_loss,
            final_loss: best_loss.min(initial_loss),
            workload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ags_math::{Pcg32, Quat, Vec3};
    use ags_splat::render::{render, RenderOptions};
    use ags_splat::Gaussian;

    fn camera() -> PinholeCamera {
        PinholeCamera::from_fov(48, 36, 1.2)
    }

    /// A dense opaque surface of Gaussians with real depth structure
    /// (a fronto-parallel plane would leave the classic x-translation /
    /// y-rotation gauge direction unobservable).
    fn wall_cloud() -> GaussianCloud {
        let mut rng = Pcg32::seeded(10);
        let mut cloud = GaussianCloud::new();
        for gy in 0..12 {
            for gx in 0..16 {
                let z = 1.7
                    + 0.4 * ((gx * 7 + gy * 3) % 5) as f32 / 5.0
                    + 0.3 * ((gx as f32 * 0.8).sin() * (gy as f32 * 0.6).cos());
                cloud.push(Gaussian::isotropic(
                    Vec3::new((gx as f32 - 7.5) * 0.22, (gy as f32 - 5.5) * 0.22, z),
                    0.16,
                    Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32()),
                    0.95,
                ));
            }
        }
        cloud
    }

    #[test]
    fn recovers_small_pose_offset() {
        let cloud = wall_cloud();
        let cam = camera();
        let gt_pose = Se3::IDENTITY;
        let gt = render(&cloud, &cam, &gt_pose, &RenderOptions::default());
        let off = Se3::new(Quat::from_axis_angle(Vec3::Y, 0.015), Vec3::new(0.02, -0.01, 0.015));
        let refiner = GsPoseRefiner::new(RefineConfig { iterations: 40, ..Default::default() });
        let result = refiner.refine(&cloud, &cam, off, &gt.color, &gt.depth);
        let before_t = off.translation_distance(&gt_pose);
        let after_t = result.pose.translation_distance(&gt_pose);
        assert!(after_t < before_t * 0.5, "translation {before_t} -> {after_t}");
        assert!(result.final_loss <= result.initial_loss);
        assert!(result.workload.iterations > 0);
        assert!(result.workload.render.alpha_evals > 0);
    }

    #[test]
    fn snapshot_refinement_matches_direct_cloud_refinement() {
        use ags_splat::SharedCloud;
        let cloud = wall_cloud();
        let cam = camera();
        let gt = render(&cloud, &cam, &Se3::IDENTITY, &RenderOptions::default());
        let off = Se3::from_translation(Vec3::new(0.02, -0.01, 0.0));
        let refiner = GsPoseRefiner::new(RefineConfig { iterations: 6, ..Default::default() });
        let direct = refiner.refine(&cloud, &cam, off, &gt.color, &gt.depth);
        let mut shared = SharedCloud::new();
        shared.make_mut().extend(cloud.gaussians().iter().copied());
        let snap = shared.publish();
        let via_snapshot = refiner.refine_snapshot(&snap, &cam, off, &gt.color, &gt.depth);
        assert_eq!(direct.pose, via_snapshot.pose);
        assert_eq!(direct.final_loss, via_snapshot.final_loss);
        assert_eq!(direct.workload.iterations, via_snapshot.workload.iterations);
    }

    /// A few frames of a mapping loop over a generated sequence: seeded from
    /// depth, trained, partly snapped onto the quantized tier — the mixed,
    /// partly off-screen map refinement meets mid-stream.
    fn mid_stream_map() -> (GaussianCloud, ags_scene::dataset::Dataset) {
        use ags_scene::dataset::{Dataset, DatasetConfig, SceneId};
        use ags_splat::compact::{quantize_chunk_in_place, QUANT_CHUNK};
        use ags_splat::densify::{densify_from_frame, DensifyConfig};
        use ags_splat::optim::Adam;

        let data = Dataset::generate(SceneId::Room, &DatasetConfig::tiny());
        let mut cloud = GaussianCloud::new();
        let (mut adam, mut scratch) = (Adam::default(), TrainScratch::default());
        let mut rng = Pcg32::seeded(3);
        let options = RenderOptions::default();
        for frame in data.frames.iter().step_by(3) {
            let rendered = render(&cloud, &data.camera, &frame.gt_pose, &options);
            densify_from_frame(
                &mut cloud,
                &data.camera,
                &frame.gt_pose,
                &frame.rgb,
                &frame.depth,
                &rendered,
                &DensifyConfig::default(),
                &mut rng,
            );
            for _ in 0..4 {
                let pass = train_pass(
                    &mut scratch,
                    &cloud,
                    &data.camera,
                    &frame.gt_pose,
                    &frame.rgb,
                    &frame.depth,
                    &LossConfig::mapping(),
                    GradMode::Map,
                    &options,
                    None,
                );
                adam.step(&mut cloud, pass.backward.grads.as_ref().expect("map grads"));
            }
        }
        for chunk in cloud.gaussians_mut().chunks_exact_mut(QUANT_CHUNK).step_by(2) {
            quantize_chunk_in_place(chunk);
        }
        (cloud, data)
    }

    /// Projecting from kept terms moves nothing: pose bits, losses and every
    /// workload counter equal the uncached loop's.
    #[test]
    fn refinement_with_kept_terms_equals_the_uncached_loop() {
        let wall = wall_cloud();
        let cam = camera();
        let gt = render(&wall, &cam, &Se3::IDENTITY, &RenderOptions::default());
        let off = Se3::new(Quat::from_axis_angle(Vec3::Y, 0.015), Vec3::new(0.02, -0.01, 0.015));
        let (map, data) = mid_stream_map();
        let late = data.frames.last().expect("frames");
        let earlier = data.frames[data.frames.len() - 3].gt_pose;
        assert!(map.len() > 1000, "the fixture must hold a real map, got {}", map.len());
        let cases = [
            (&wall, &cam, off, &gt.color, &gt.depth),
            (&map, &data.camera, earlier, &late.rgb, &late.depth),
        ];
        for backend in [BackendKind::Reference, BackendKind::Vectorized] {
            let refiner = GsPoseRefiner::new(RefineConfig {
                iterations: 12,
                convergence_eps: 0.0,
                backend,
                ..Default::default()
            });
            for (cloud, camera, start, rgb, depth) in cases {
                let kept = refiner.refine(cloud, camera, start, rgb, depth);
                let plain = refiner.refine_loop(cloud, camera, start, rgb, depth, 12, None);
                assert_eq!(kept.pose, plain.pose);
                assert_ne!(kept.pose, start, "the pose must have moved");
                assert_eq!(kept.initial_loss.to_bits(), plain.initial_loss.to_bits());
                assert_eq!(kept.final_loss.to_bits(), plain.final_loss.to_bits());
                let (k, p) = (&kept.workload, &plain.workload);
                assert_eq!((k.iterations, k.grad_ops), (p.iterations, p.grad_ops));
                assert!(k.render.culled > 0 || cloud.len() == wall.len());
                assert_eq!(format!("{:?}", k.render), format!("{:?}", p.render));
            }
        }
    }

    /// The workload's render statistics are the field-wise sum of every
    /// iteration's `train_pass` render, walk diagnostics included.
    #[test]
    fn refinement_render_stats_sum_every_iteration() {
        let cloud = wall_cloud();
        let cam = camera();
        let gt = render(&cloud, &cam, &Se3::IDENTITY, &RenderOptions::default());
        let start = Se3::from_translation(Vec3::new(0.02, -0.01, 0.0));
        let iterations = 5;
        let config = RefineConfig { iterations, convergence_eps: 0.0, ..Default::default() };
        let refiner = GsPoseRefiner::new(config.clone());
        let result = refiner.refine(&cloud, &cam, start, &gt.color, &gt.depth);
        assert_eq!(result.workload.iterations, iterations);

        // The same iterations, one `train_pass` at a time.
        let options = RenderOptions {
            parallelism: config.parallelism.clone(),
            backend: config.backend,
            ..RenderOptions::default()
        };
        let (mut pose, mut adam) = (start, PoseAdam::new(config.learning_rate));
        let mut scratch = TrainScratch::default();
        let mut renders = Vec::new();
        for _ in 0..iterations {
            let pass = train_pass(
                &mut scratch,
                &cloud,
                &cam,
                &pose,
                &gt.color,
                &gt.depth,
                &config.loss,
                GradMode::Track,
                &options,
                None,
            );
            pose = adam.step(&pose, &pass.backward.pose.expect("pose gradient"));
            renders.push(pass.render.stats);
        }
        let sum = |field: fn(&RenderStats) -> u64| renders.iter().map(field).sum::<u64>();
        let got = &result.workload.render;
        assert_eq!(got.alpha_evals, sum(|s| s.alpha_evals));
        assert_eq!(got.blend_ops, sum(|s| s.blend_ops));
        assert_eq!(got.pairs, sum(|s| s.pairs));
        assert_eq!(got.visible_splats, sum(|s| s.visible_splats));
        assert_eq!(got.culled, sum(|s| s.culled));
        assert_eq!(got.skipped_pairs, sum(|s| s.skipped_pairs));
        assert_eq!(got.early_terminated_pixels, sum(|s| s.early_terminated_pixels));
        assert_eq!(got.saturated_rows, sum(|s| s.saturated_rows));
        assert_eq!(got.walked_pairs, sum(|s| s.walked_pairs));
        assert_eq!(got.canonical_tiles, sum(|s| s.canonical_tiles));
        assert_eq!(got.deepened_tiles, sum(|s| s.deepened_tiles));
        assert_eq!(got.interior_pairs, sum(|s| s.interior_pairs));
        assert!(got.tile_work.is_empty() && renders.iter().all(|s| s.tile_work.is_empty()));
        // The walk diagnostics the sum used to drop are not zero here.
        let walk = (got.walked_pairs, got.canonical_tiles, got.interior_pairs);
        assert!(walk.0 > 0 && walk.1 > 0 && walk.2 > 0, "{got:?}");
    }

    #[test]
    fn zero_iterations_returns_initial() {
        let cloud = wall_cloud();
        let cam = camera();
        let gt = render(&cloud, &cam, &Se3::IDENTITY, &RenderOptions::default());
        let refiner = GsPoseRefiner::new(RefineConfig { iterations: 0, ..Default::default() });
        let start = Se3::from_translation(Vec3::new(0.05, 0.0, 0.0));
        let result = refiner.refine(&cloud, &cam, start, &gt.color, &gt.depth);
        assert_eq!(result.pose, start);
        assert_eq!(result.workload.iterations, 0);
    }

    #[test]
    fn returns_best_pose_not_last() {
        // With an aggressive learning rate the last iterate may overshoot;
        // the refiner must return the best pose seen.
        let cloud = wall_cloud();
        let cam = camera();
        let gt = render(&cloud, &cam, &Se3::IDENTITY, &RenderOptions::default());
        let refiner = GsPoseRefiner::new(RefineConfig {
            iterations: 15,
            learning_rate: 0.05,
            ..Default::default()
        });
        let start = Se3::from_translation(Vec3::new(0.02, 0.0, 0.0));
        let result = refiner.refine(&cloud, &cam, start, &gt.color, &gt.depth);
        assert!(result.final_loss <= result.initial_loss);
    }

    #[test]
    fn more_iterations_do_not_hurt() {
        let cloud = wall_cloud();
        let cam = camera();
        let gt = render(&cloud, &cam, &Se3::IDENTITY, &RenderOptions::default());
        let off = Se3::from_translation(Vec3::new(0.03, 0.01, 0.0));
        let short = GsPoseRefiner::new(RefineConfig {
            iterations: 4,
            convergence_eps: 0.0,
            ..Default::default()
        })
        .refine(&cloud, &cam, off, &gt.color, &gt.depth);
        let long = GsPoseRefiner::new(RefineConfig {
            iterations: 40,
            convergence_eps: 0.0,
            ..Default::default()
        })
        .refine(&cloud, &cam, off, &gt.color, &gt.depth);
        assert!(long.final_loss <= short.final_loss * 1.05);
        assert!(long.workload.render.alpha_evals > short.workload.render.alpha_evals);
    }
}
