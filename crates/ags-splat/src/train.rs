//! The training pass: forward, loss and backward behind one seam.
//!
//! Every differentiated render in the workspace — the AGS map stage, the
//! baseline's map step, pose refinement — goes through [`train_pass`], which
//! is what asks the forward pass for a blend tape and hands it to the
//! backward pass (forward returns state, backward takes it). Renders that are
//! never differentiated call [`crate::render::rasterize`] and record nothing.

use crate::backend::BackendKind;
use crate::backward::{backward_taped, BackwardOutput, BlendTape, GradMode};
use crate::cache::ProjectionCache;
use crate::gaussian::GaussianCloud;
use crate::loss::{compute_loss, LossConfig, LossResult};
use crate::render::{rasterize_taped, RenderOptions, RenderOutput};
use ags_image::{DepthImage, RgbImage};
use ags_math::parallel::Parallelism;
use ags_math::Se3;
use ags_scene::PinholeCamera;

/// Buffers a caller keeps across training passes (per map stage, per
/// refinement call): the blend tape is cleared and refilled each pass, not
/// reallocated.
#[derive(Debug, Default)]
pub struct TrainScratch {
    tape: BlendTape,
}

impl TrainScratch {
    /// Blend operations the last pass taped (8 bytes each; 0 on a backend
    /// that replays instead of taping).
    pub fn taped_blend_ops(&self) -> usize {
        self.tape.blend_ops()
    }
}

/// Products of one training pass.
#[derive(Debug)]
pub struct TrainPass {
    /// Loss of the forward render, with its per-pixel gradients.
    pub loss: LossResult,
    /// The render produced during the forward pass.
    pub render: RenderOutput,
    /// Parameter and/or pose gradients, by `mode`.
    pub backward: BackwardOutput,
}

/// One training pass at `pose`: project → bin → rasterize → loss → backward,
/// steps ①–④ of the paper's Fig. 2(b) loops (the caller applies the update).
///
/// `options.skip` excludes Gaussians from the render *and* from the
/// gradients — the hook selective mapping uses. `cache` routes the projection
/// through an epoch-delta [`ProjectionCache`] (result-identical): kept terms
/// always, and a pose slot unless `mode` is [`GradMode::Track`], whose pose
/// moves every pass.
#[allow(clippy::too_many_arguments)]
pub fn train_pass(
    scratch: &mut TrainScratch,
    cloud: &GaussianCloud,
    camera: &PinholeCamera,
    pose: &Se3,
    gt_rgb: &RgbImage,
    gt_depth: &DepthImage,
    loss_config: &LossConfig,
    mode: GradMode,
    options: &RenderOptions,
    cache: Option<&mut ProjectionCache>,
) -> TrainPass {
    let backend = options.backend.backend();
    let projection = match cache {
        Some(cache) if mode == GradMode::Track => cache.project_unkeyed(cloud, camera, pose),
        Some(cache) => cache.project(cloud, camera, pose),
        None => backend.project(cloud, camera, pose),
    };
    let tables = backend.build_tables(&projection, camera, &options.parallelism);
    let tape = Some(&mut scratch.tape);
    let render = rasterize_taped(cloud, &projection, &tables, camera, options, tape);
    let loss = compute_loss(&render, gt_rgb, gt_depth, loss_config);
    let backward = backward_taped(
        options.backend,
        cloud,
        &projection,
        &tables,
        camera,
        &loss,
        mode,
        options.skip.as_deref(),
        &options.parallelism,
        Some(&scratch.tape),
    );
    TrainPass { loss, render, backward }
}

/// Runs one *tracking* gradient evaluation: render → loss → pose gradient.
/// Gaussians are left untouched; the caller applies the pose update (see
/// [`crate::optim::PoseAdam`]). `par` drives both the forward rasterizer and
/// the backward tile walk. One-shot: loops should call [`train_pass`] with a
/// [`TrainScratch`] they keep.
#[allow(clippy::too_many_arguments)]
pub fn tracking_gradient_with(
    backend: BackendKind,
    cloud: &GaussianCloud,
    camera: &PinholeCamera,
    pose: &Se3,
    gt_rgb: &RgbImage,
    gt_depth: &DepthImage,
    loss_config: &LossConfig,
    par: &Parallelism,
) -> (LossResult, BackwardOutput, RenderOutput) {
    let options = RenderOptions { parallelism: par.clone(), backend, ..RenderOptions::default() };
    let pass = train_pass(
        &mut TrainScratch::default(),
        cloud,
        camera,
        pose,
        gt_rgb,
        gt_depth,
        loss_config,
        GradMode::Track,
        &options,
        None,
    );
    (pass.loss, pass.backward, pass.render)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::densify::{densify_from_frame, DensifyConfig};
    use crate::gaussian::Gaussian;
    use crate::idset::IdSet;
    use crate::optim::{Adam, AdamConfig};
    use crate::render::render;
    use ags_math::{Pcg32, Vec3};
    use std::sync::Arc;

    fn camera() -> PinholeCamera {
        PinholeCamera::from_fov(32, 24, 1.2)
    }

    /// One mapping iteration at the identity pose: training pass + Adam
    /// update. Returns the loss before the update.
    fn mapping_step(
        scratch: &mut TrainScratch,
        cloud: &mut GaussianCloud,
        adam: &mut Adam,
        gt_rgb: &RgbImage,
        gt_depth: &DepthImage,
        skip: Option<&Arc<IdSet>>,
    ) -> f32 {
        let options = RenderOptions { skip: skip.cloned(), ..RenderOptions::default() };
        let (cam, cfg) = (camera(), LossConfig::mapping());
        let pose = Se3::IDENTITY;
        let pass = train_pass(
            scratch,
            cloud,
            &cam,
            &pose,
            gt_rgb,
            gt_depth,
            &cfg,
            GradMode::Map,
            &options,
            None,
        );
        adam.step(cloud, pass.backward.grads.as_ref().expect("map mode yields grads"));
        pass.loss.total
    }

    /// Builds a "ground truth" scene of a few Gaussians and a target render.
    fn gt_setup() -> (GaussianCloud, RgbImage, DepthImage) {
        let mut gt_cloud = GaussianCloud::new();
        gt_cloud.push(Gaussian::isotropic(
            Vec3::new(-0.2, 0.0, 2.0),
            0.25,
            Vec3::new(0.9, 0.2, 0.1),
            0.9,
        ));
        gt_cloud.push(Gaussian::isotropic(
            Vec3::new(0.25, 0.1, 2.4),
            0.3,
            Vec3::new(0.1, 0.8, 0.3),
            0.9,
        ));
        let out = render(&gt_cloud, &camera(), &Se3::IDENTITY, &RenderOptions::default());
        (gt_cloud, out.color, out.depth)
    }

    #[test]
    fn mapping_iterations_reduce_loss() {
        let (gt_cloud, gt_rgb, gt_depth) = gt_setup();
        // Start from the GT cloud with perturbed colors.
        let mut cloud = gt_cloud.clone();
        for g in cloud.gaussians_mut() {
            g.color = Vec3::splat(0.5);
        }
        let mut adam = Adam::new(AdamConfig { lr_color: 0.05, ..Default::default() });
        let mut scratch = TrainScratch::default();
        let first = mapping_step(&mut scratch, &mut cloud, &mut adam, &gt_rgb, &gt_depth, None);
        let mut last = first;
        for _ in 0..40 {
            last = mapping_step(&mut scratch, &mut cloud, &mut adam, &gt_rgb, &gt_depth, None);
        }
        assert!(last < first * 0.5, "mapping should converge: {first} -> {last}");
    }

    #[test]
    fn densify_then_train_reconstructs_plane() {
        // End-to-end: empty map + one RGB-D frame -> densify -> train -> PSNR.
        let cam = camera();
        let gt_rgb = RgbImage::filled(cam.width, cam.height, Vec3::new(0.3, 0.5, 0.7));
        let gt_depth = DepthImage::filled(cam.width, cam.height, 2.0);
        let mut cloud = GaussianCloud::new();
        let empty = render(&cloud, &cam, &Se3::IDENTITY, &RenderOptions::default());
        let mut rng = Pcg32::seeded(7);
        densify_from_frame(
            &mut cloud,
            &cam,
            &Se3::IDENTITY,
            &gt_rgb,
            &gt_depth,
            &empty,
            &DensifyConfig::default(),
            &mut rng,
        );
        let mut adam = Adam::new(AdamConfig::default());
        let mut scratch = TrainScratch::default();
        for _ in 0..25 {
            mapping_step(&mut scratch, &mut cloud, &mut adam, &gt_rgb, &gt_depth, None);
        }
        let out = render(&cloud, &cam, &Se3::IDENTITY, &RenderOptions::default());
        let psnr = ags_image::metrics::psnr(&out.color, &gt_rgb);
        assert!(psnr > 20.0, "reconstruction PSNR too low: {psnr}");
        let depth_err = ags_image::metrics::depth_l1(&out.depth, &gt_depth);
        assert!(depth_err < 0.3, "depth error too high: {depth_err}");
    }

    #[test]
    fn skip_set_freezes_skipped_gaussians() {
        let (gt_cloud, gt_rgb, gt_depth) = gt_setup();
        let mut cloud = gt_cloud.clone();
        for g in cloud.gaussians_mut() {
            g.color = Vec3::splat(0.5);
        }
        let mut skip = IdSet::with_capacity(cloud.len());
        skip.insert(1);
        let frozen_before = cloud.gaussians()[1];
        let mut adam = Adam::new(AdamConfig::default());
        let mut scratch = TrainScratch::default();
        let skip = Arc::new(skip);
        mapping_step(&mut scratch, &mut cloud, &mut adam, &gt_rgb, &gt_depth, Some(&skip));
        assert_eq!(cloud.gaussians()[1], frozen_before, "skipped gaussian must not move");
        assert_ne!(cloud.gaussians()[0].color, Vec3::splat(0.5), "active gaussian trains");
    }

    #[test]
    fn tracking_gradient_is_nonzero_off_pose() {
        let (gt_cloud, gt_rgb, gt_depth) = gt_setup();
        let off_pose = Se3::from_translation(Vec3::new(0.03, 0.0, 0.0));
        let (_, back, _) = tracking_gradient_with(
            BackendKind::default(),
            &gt_cloud,
            &camera(),
            &off_pose,
            &gt_rgb,
            &gt_depth,
            &LossConfig::tracking(),
            &Parallelism::default(),
        );
        let pg = back.pose.unwrap();
        let norm: f32 = pg.twist.iter().map(|t| t * t).sum::<f32>();
        assert!(norm > 0.0, "off-pose tracking gradient must be non-zero");
    }

    /// Independent oracle for the taped path: central finite differences of
    /// the L2 loss against the gradients the vectorized training pass tapes
    /// and reverses (position, colour, opacity, pose).
    #[test]
    fn taped_gradients_match_finite_differences() {
        let cam = PinholeCamera::from_fov(24, 24, 1.2);
        let mut cloud = GaussianCloud::new();
        let mut tilted =
            Gaussian::isotropic(Vec3::new(0.05, -0.08, 2.0), 0.15, Vec3::new(0.8, 0.4, 0.2), 0.7);
        tilted.rotation = ags_math::Quat::from_axis_angle(Vec3::new(0.3, 1.0, 0.2), 0.4);
        tilted.log_scale = Vec3::new(0.12f32.ln(), 0.2f32.ln(), 0.08f32.ln());
        cloud.push(tilted);
        cloud.push(Gaussian::isotropic(
            Vec3::new(-0.1, 0.1, 2.6),
            0.2,
            Vec3::new(0.2, 0.6, 0.9),
            0.5,
        ));
        let mut rng = Pcg32::seeded(42);
        let gt_rgb = RgbImage::from_vec(
            cam.width,
            cam.height,
            (0..cam.num_pixels())
                .map(|_| Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32()) * 0.4)
                .collect(),
        );
        let gt_depth = DepthImage::filled(cam.width, cam.height, 2.2);
        let l2 = LossConfig {
            kind: crate::loss::LossKind::L2,
            color_weight: 1.0,
            depth_weight: 0.3,
            silhouette_mask: false,
            mask_threshold: 0.0,
        };
        let options =
            RenderOptions { backend: BackendKind::Vectorized, ..RenderOptions::default() };
        let mut scratch = TrainScratch::default();
        let mut pass = |cloud: &GaussianCloud, pose: &Se3| {
            let mode = GradMode::Both;
            train_pass(
                &mut scratch,
                cloud,
                &cam,
                pose,
                &gt_rgb,
                &gt_depth,
                &l2,
                mode,
                &options,
                None,
            )
        };
        let analytic = pass(&cloud, &Se3::IDENTITY);
        let grads = analytic.backward.grads.as_ref().unwrap();
        let twist = analytic.backward.pose.unwrap().twist;

        let mut check = |label: &str, value: f32, eps: f32, nudge: &dyn Fn(&mut Gaussian, f32)| {
            let loss_at = |e: f32, pass: &mut dyn FnMut(&GaussianCloud, &Se3) -> TrainPass| {
                let mut moved = cloud.clone();
                nudge(&mut moved.gaussians_mut()[0], e);
                pass(&moved, &Se3::IDENTITY).loss.total_f64
            };
            let numeric =
                ((loss_at(eps, &mut pass) - loss_at(-eps, &mut pass)) / (2.0 * eps as f64)) as f32;
            let scale = value.abs().max(numeric.abs()).max(1e-6);
            assert!((value - numeric).abs() / scale < 0.08, "{label}: {value} vs {numeric}");
        };
        for axis in 0..3 {
            check("position", grads.position[0][axis], 2e-4, &|g, e| g.position[axis] += e);
        }
        check("color.x", grads.color[0].x, 1e-3, &|g, e| g.color.x += e);
        check("color.y", grads.color[0].y, 1e-3, &|g, e| g.color.y += e);
        check("color.z", grads.color[0].z, 1e-3, &|g, e| g.color.z += e);
        check("opacity", grads.opacity_logit[0], 1e-3, &|g, e| g.opacity_logit += e);

        // Pose: norm-wise, tiny components are finite-difference noise.
        let mut numeric = [0.0f32; 6];
        for (k, slot) in numeric.iter_mut().enumerate() {
            let eps = 2e-4;
            let mut loss_at = |e: f32| {
                let mut xi = [0.0f32; 6];
                xi[k] = e;
                pass(&cloud, &Se3::exp(&xi).inverse()).loss.total_f64
            };
            *slot = ((loss_at(eps) - loss_at(-eps)) / (2.0 * eps as f64)) as f32;
        }
        let norm = numeric.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-6);
        for k in 0..6 {
            let err = (twist[k] - numeric[k]).abs();
            assert!(err < 0.05 * norm, "twist[{k}]: {} vs {} (norm {norm})", twist[k], numeric[k]);
        }
    }
}
