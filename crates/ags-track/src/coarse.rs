//! Coarse pose estimation: Droid-style backbone + dense RGB-D Gauss–Newton.
//!
//! The paper's coarse stage "builds on the backbone of Droid-SLAM": a
//! convolutional feature extractor followed by GRU update iterations. The
//! learned update operator cannot be reproduced without the authors'
//! weights, so this implementation keeps the *structure and workload* —
//! the [`ags_neural::DroidBackbone`] runs for real and its MACs feed the
//! hardware model — while the pose update itself is an analytically-derived
//! damped Gauss–Newton step over dense photometric + geometric residuals
//! (classic direct RGB-D odometry), iterated coarse-to-fine exactly like
//! Droid's recurrent refinement: the learned update operator is the one
//! component substituted, the backbone's workload is kept.

use ags_image::pyramid::RgbdPyramid;
use ags_image::{DepthImage, GrayImage};
use ags_math::solve::NormalEquations;
use ags_math::{Mat3, Se3, Vec2, Vec3};
use ags_neural::{BackboneReport, DroidBackbone};
use ags_scene::PinholeCamera;

/// Configuration of the coarse tracker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoarseConfig {
    /// Pyramid levels (level 0 = full resolution).
    pub pyramid_levels: usize,
    /// Gauss–Newton iterations per level.
    pub iterations_per_level: usize,
    /// Pixel stride when sampling residuals (1 = dense).
    pub stride: usize,
    /// Huber threshold on photometric residuals.
    pub huber_photo: f32,
    /// Huber threshold on depth residuals (meters).
    pub huber_depth: f32,
    /// Weight of depth residuals relative to photometric.
    pub depth_weight: f32,
    /// Levenberg-Marquardt damping.
    pub damping: f32,
    /// GRU iterations of the neural backbone (workload model).
    pub gru_iterations: u32,
}

impl Default for CoarseConfig {
    fn default() -> Self {
        Self {
            pyramid_levels: 3,
            iterations_per_level: 8,
            stride: 2,
            huber_photo: 0.07,
            huber_depth: 0.08,
            depth_weight: 0.6,
            damping: 1e-3,
            gru_iterations: 8,
        }
    }
}

/// Result of coarse estimation for one frame.
#[derive(Debug, Clone)]
pub struct CoarseResult {
    /// Estimated camera-to-world pose of the current frame.
    pub pose: Se3,
    /// Final mean absolute photometric residual.
    pub photometric_error: f32,
    /// Final mean absolute depth residual (meters).
    pub depth_error: f32,
    /// Residual samples used in the final iteration.
    pub samples: usize,
    /// Neural backbone workload (for the cost models).
    pub backbone: BackboneReport,
    /// Gauss–Newton solver workload: residual rows accumulated.
    pub gn_rows: u64,
}

/// A stateful coarse tracker holding the previous frame.
#[derive(Debug)]
pub struct CoarseTracker {
    config: CoarseConfig,
    backbone: DroidBackbone,
    previous: Option<PreviousFrame>,
    /// Constant-velocity motion model: last relative motion (prev→cur).
    velocity: Se3,
}

/// Level 0 of `pyramid` is the full-resolution frame itself: the backbone's
/// `previous` input and what [`CoarseTracker::export_state`] stores.
#[derive(Debug)]
struct PreviousFrame {
    pyramid: RgbdPyramid,
    pose: Se3,
}

/// Serializable snapshot of the previous-frame reference.
///
/// Only full-resolution images are stored; the pyramid is rebuilt
/// deterministically on restore from the same inputs `track` built it from.
#[derive(Debug, Clone, PartialEq)]
pub struct PreviousFrameState {
    /// Full-resolution luminance of the previous frame.
    pub gray: GrayImage,
    /// Full-resolution depth of the previous frame.
    pub depth: DepthImage,
    /// Stored (possibly refinement-corrected) pose of the previous frame.
    pub pose: Se3,
}

/// Serializable tracker state — what a stream checkpoint captures. The
/// neural backbone is seeded from configuration and every `run` overwrites
/// its activation buffers before reading them, so it carries no state of
/// its own.
#[derive(Debug, Clone, PartialEq)]
pub struct CoarseTrackerState {
    /// Previous-frame reference, `None` before the first frame.
    pub previous: Option<PreviousFrameState>,
    /// Constant-velocity motion-model state.
    pub velocity: Se3,
}

impl CoarseTracker {
    /// Creates a tracker.
    pub fn new(config: CoarseConfig) -> Self {
        Self {
            config,
            backbone: DroidBackbone::new(0xd201d, config.gru_iterations),
            previous: None,
            velocity: Se3::IDENTITY,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CoarseConfig {
        &self.config
    }

    /// [`Self::track_owned`] on a copy of `gray`, for callers that keep
    /// their luminance image.
    pub fn track(
        &mut self,
        camera: &PinholeCamera,
        gray: &GrayImage,
        depth: &DepthImage,
        initial_pose: Se3,
    ) -> CoarseResult {
        self.track_owned(camera, gray.clone(), depth, initial_pose)
    }

    /// Tracks the next frame, returning the coarse pose estimate. `gray`
    /// becomes level 0 of the frame's pyramid, which the tracker keeps as
    /// the next frame's reference.
    ///
    /// The first frame returns `initial_pose` unchanged (by convention SLAM
    /// anchors the first camera). Subsequent frames are aligned against the
    /// previous frame with the constant-velocity model as initialisation.
    pub fn track_owned(
        &mut self,
        camera: &PinholeCamera,
        gray: GrayImage,
        depth: &DepthImage,
        initial_pose: Se3,
    ) -> CoarseResult {
        let pyramid = RgbdPyramid::build(gray, depth.clone(), self.config.pyramid_levels);

        let Some(prev) = self.previous.take() else {
            self.previous = Some(PreviousFrame { pyramid, pose: initial_pose });
            return CoarseResult {
                pose: initial_pose,
                photometric_error: 0.0,
                depth_error: 0.0,
                samples: 0,
                backbone: BackboneReport::default(),
                gn_rows: 0,
            };
        };

        // Run the neural backbone (workload + feature state).
        let (_, backbone_report) = self.backbone.run(&pyramid.gray[0], &prev.pyramid.gray[0]);

        // Initialise relative pose (prev cam -> cur cam) from the motion model.
        let mut rel = self.velocity;
        let mut photometric_error = 0.0;
        let mut depth_error = 0.0;
        let mut samples = 0usize;
        let mut gn_rows = 0u64;

        for level in (0..self.config.pyramid_levels).rev() {
            let scale = 1.0 / (1 << level) as f32;
            let cam_l = camera.scaled(scale);
            for _ in 0..self.config.iterations_per_level {
                let (ne, stats) = self.build_system(
                    &cam_l,
                    &prev.pyramid.gray[level],
                    &prev.pyramid.depth[level],
                    &pyramid.gray[level],
                    &pyramid.depth[level],
                    &rel,
                );
                gn_rows += ne.rows() as u64;
                if ne.rows() < 12 {
                    break;
                }
                match ne.solve(self.config.damping) {
                    Ok(delta) => {
                        // Rows were added with residual -r, so `delta` is
                        // already the Gauss-Newton descent step.
                        let twist = [delta[0], delta[1], delta[2], delta[3], delta[4], delta[5]];
                        rel = (Se3::exp(&twist) * rel).renormalized();
                        photometric_error = stats.0;
                        depth_error = stats.1;
                        samples = ne.rows();
                    }
                    Err(_) => break,
                }
            }
        }

        // rel maps prev-camera coords to cur-camera coords:
        // c2w_cur = c2w_prev * rel⁻¹.
        let pose = (prev.pose * rel.inverse()).renormalized();
        self.velocity = rel;
        self.previous = Some(PreviousFrame { pyramid, pose });

        CoarseResult {
            pose,
            photometric_error,
            depth_error,
            samples,
            backbone: backbone_report,
            gn_rows,
        }
    }

    /// Snapshots the tracker state for checkpointing. The pyramid is not
    /// serialized — level 0 holds the full-resolution inputs it was built
    /// from, so restore rebuilds it bit-identically.
    pub fn export_state(&self) -> CoarseTrackerState {
        CoarseTrackerState {
            previous: self.previous.as_ref().map(|prev| PreviousFrameState {
                gray: prev.pyramid.gray[0].clone(),
                depth: prev.pyramid.depth[0].clone(),
                pose: prev.pose,
            }),
            velocity: self.velocity,
        }
    }

    /// Restores the tracker mid-stream from a checkpointed state.
    pub fn restore_state(&mut self, state: &CoarseTrackerState) {
        self.previous = state.previous.as_ref().map(|prev| PreviousFrame {
            pyramid: RgbdPyramid::build(
                prev.gray.clone(),
                prev.depth.clone(),
                self.config.pyramid_levels,
            ),
            pose: prev.pose,
        });
        self.velocity = state.velocity;
    }

    /// Overrides the stored pose of the previous frame (called after fine
    /// refinement corrects the coarse estimate, so the next frame chains
    /// from the refined pose).
    ///
    /// Only the pose is replaced. The constant-velocity model deliberately
    /// keeps the coarse estimate of the last relative motion, although that
    /// motion ended at the uncorrected pose: it only seeds the next frame's
    /// Gauss–Newton iterations.
    pub fn correct_pose(&mut self, refined: Se3) {
        if let Some(prev) = self.previous.as_mut() {
            prev.pose = refined;
        }
    }

    /// Builds the 6-DoF normal equations for one pyramid level.
    #[allow(clippy::too_many_arguments)]
    fn build_system(
        &self,
        cam: &PinholeCamera,
        prev_gray: &GrayImage,
        prev_depth: &DepthImage,
        cur_gray: &GrayImage,
        cur_depth: &DepthImage,
        rel: &Se3,
    ) -> (NormalEquations, (f32, f32)) {
        let mut ne = NormalEquations::new(6);
        let mut photo_sum = 0.0f64;
        let mut depth_sum = 0.0f64;
        let mut photo_n = 0usize;
        let mut depth_n = 0usize;
        let rot = rel.rotation_matrix();

        for y in (1..prev_gray.height().saturating_sub(1)).step_by(self.config.stride) {
            for x in (1..prev_gray.width().saturating_sub(1)).step_by(self.config.stride) {
                let z = prev_depth.at(x, y);
                if z <= 0.0 {
                    continue;
                }
                let p_prev = cam.unproject(Vec2::new(x as f32, y as f32), z);
                let p_cur = rot.mul_vec(p_prev) + rel.translation;
                if p_cur.z < 0.05 {
                    continue;
                }
                let Some(uv) = cam.project(p_cur) else { continue };
                if !cam.contains(uv) {
                    continue;
                }
                let Some(i_cur) = cur_gray.sample_bilinear(uv) else { continue };
                let i_prev = prev_gray.at(x, y);

                // Projection Jacobian at p_cur and twist Jacobian
                // d p_cur / d ξ = [I | -[p_cur]×].
                let z_inv = 1.0 / p_cur.z;
                let z_inv2 = z_inv * z_inv;
                let j00 = cam.fx * z_inv;
                let j02 = -cam.fx * p_cur.x * z_inv2;
                let j11 = cam.fy * z_inv;
                let j12 = -cam.fy * p_cur.y * z_inv2;

                // du/dξ rows (2x6).
                let px = Mat3::skew(p_cur);
                let mut du = [[0.0f32; 6]; 2];
                for k in 0..3 {
                    // translation part
                    let dp = Vec3::new(
                        if k == 0 { 1.0 } else { 0.0 },
                        if k == 1 { 1.0 } else { 0.0 },
                        if k == 2 { 1.0 } else { 0.0 },
                    );
                    du[0][k] = j00 * dp.x + j02 * dp.z;
                    du[1][k] = j11 * dp.y + j12 * dp.z;
                    // rotation part: dp = -[p]× e_k = column k of -skew(p)
                    let dpr = Vec3::new(-px.at(0, k), -px.at(1, k), -px.at(2, k));
                    du[0][3 + k] = j00 * dpr.x + j02 * dpr.z;
                    du[1][3 + k] = j11 * dpr.y + j12 * dpr.z;
                }

                // Photometric residual.
                let grad = interp_gradient(cur_gray, uv);
                let r_photo = i_cur - i_prev;
                let mut jac = [0.0f32; 6];
                for k in 0..6 {
                    jac[k] = grad.x * du[0][k] + grad.y * du[1][k];
                }
                let w = huber_weight(r_photo, self.config.huber_photo);
                ne.add_row(&jac, -r_photo, w);
                photo_sum += r_photo.abs() as f64;
                photo_n += 1;

                // Geometric residual: predicted z vs observed current depth.
                if let Some(d_cur) = cur_depth.sample_bilinear(uv) {
                    if d_cur > 0.0 {
                        let r_depth = p_cur.z - d_cur;
                        // dz/dξ = e_zᵀ [I | -[p]×] − ∇D·du/dξ (the observed
                        // depth moves with the reprojected pixel). Samples on
                        // depth discontinuities are skipped — their gradient
                        // is an occlusion artifact, not surface slope.
                        let gd = interp_gradient(cur_depth, uv);
                        if gd.norm() < 0.3 {
                            let mut jz = [0.0f32; 6];
                            jz[0] = -(gd.x * du[0][0] + gd.y * du[1][0]);
                            jz[1] = -(gd.x * du[0][1] + gd.y * du[1][1]);
                            jz[2] = 1.0 - (gd.x * du[0][2] + gd.y * du[1][2]);
                            for k in 0..3 {
                                jz[3 + k] =
                                    -px.at(2, k) - (gd.x * du[0][3 + k] + gd.y * du[1][3 + k]);
                            }
                            let wz = self.config.depth_weight
                                * huber_weight(r_depth, self.config.huber_depth);
                            ne.add_row(&jz, -r_depth, wz);
                            depth_sum += r_depth.abs() as f64;
                            depth_n += 1;
                        }
                    }
                }
            }
        }

        let photo_mean = if photo_n > 0 { (photo_sum / photo_n as f64) as f32 } else { 0.0 };
        let depth_mean = if depth_n > 0 { (depth_sum / depth_n as f64) as f32 } else { 0.0 };
        (ne, (photo_mean, depth_mean))
    }
}

fn interp_gradient(img: &GrayImage, uv: Vec2) -> Vec2 {
    let x = uv.x.round().clamp(0.0, img.width() as f32 - 1.0) as usize;
    let y = uv.y.round().clamp(0.0, img.height() as f32 - 1.0) as usize;
    img.gradient_at(x, y)
}

#[inline]
fn huber_weight(r: f32, k: f32) -> f32 {
    let a = r.abs();
    if a <= k {
        1.0
    } else {
        k / a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ags_scene::dataset::{Dataset, DatasetConfig, SceneId};

    fn track_scene(id: SceneId, frames: usize) -> (Vec<Se3>, Vec<Se3>) {
        let config =
            DatasetConfig { width: 64, height: 48, num_frames: frames, ..DatasetConfig::tiny() };
        let data = Dataset::generate(id, &config);
        let mut tracker = CoarseTracker::new(CoarseConfig::default());
        let mut estimated = Vec::new();
        for frame in &data.frames {
            let gray = frame.rgb.to_gray();
            let result = tracker.track(&data.camera, &gray, &frame.depth, data.frames[0].gt_pose);
            estimated.push(result.pose);
        }
        (estimated, data.gt_trajectory())
    }

    #[test]
    fn first_frame_anchors_to_initial_pose() {
        let config = DatasetConfig::tiny();
        let data = Dataset::generate(SceneId::Xyz, &config);
        let mut tracker = CoarseTracker::new(CoarseConfig::default());
        let gray = data.frames[0].rgb.to_gray();
        let r = tracker.track(&data.camera, &gray, &data.frames[0].depth, data.frames[0].gt_pose);
        assert_eq!(r.pose, data.frames[0].gt_pose);
        assert_eq!(r.samples, 0);
    }

    #[test]
    fn tracks_smooth_motion_accurately() {
        // Enough frames that per-frame motion matches a 30 Hz stream (the
        // trajectory spans a fixed path regardless of frame count).
        let (est, gt) = track_scene(SceneId::Xyz, 30);
        // Odometry accumulates drift, so assert per-step relative accuracy
        // plus a bound on the aligned trajectory error.
        for i in 1..est.len() {
            let rel_e = est[i - 1].relative_to(&est[i]);
            let rel_g = gt[i - 1].relative_to(&gt[i]);
            let terr = (rel_e.translation - rel_g.translation).norm();
            assert!(terr < 0.02, "step {i} relative translation error {terr}");
        }
        let ate = crate::ate::ate_rmse(&est, &gt);
        assert!(ate < 0.05, "coarse ATE {ate}");
    }

    #[test]
    fn static_camera_stays_put() {
        let config =
            DatasetConfig { width: 64, height: 48, num_frames: 1, ..DatasetConfig::tiny() };
        let data = Dataset::generate(SceneId::Desk, &config);
        let frame = &data.frames[0];
        let gray = frame.rgb.to_gray();
        let mut tracker = CoarseTracker::new(CoarseConfig::default());
        tracker.track(&data.camera, &gray, &frame.depth, frame.gt_pose);
        // Feed the identical frame again: relative motion must be ~0.
        let r = tracker.track(&data.camera, &gray, &frame.depth, frame.gt_pose);
        assert!(
            r.pose.translation_distance(&frame.gt_pose) < 2e-3,
            "drift {}",
            r.pose.translation_distance(&frame.gt_pose)
        );
        assert!(r.pose.rotation_angle_to(&frame.gt_pose) < 2e-3);
    }

    #[test]
    fn backbone_workload_is_reported() {
        let config =
            DatasetConfig { width: 64, height: 48, num_frames: 2, ..DatasetConfig::tiny() };
        let data = Dataset::generate(SceneId::Desk, &config);
        let mut tracker = CoarseTracker::new(CoarseConfig::default());
        for frame in &data.frames {
            let gray = frame.rgb.to_gray();
            let r = tracker.track(&data.camera, &gray, &frame.depth, data.frames[0].gt_pose);
            if frame.index > 0 {
                assert!(r.backbone.total_macs() > 0);
                assert!(r.gn_rows > 0);
            }
        }
    }

    #[test]
    fn correct_pose_rebases_next_frame() {
        let config =
            DatasetConfig { width: 64, height: 48, num_frames: 3, ..DatasetConfig::tiny() };
        let data = Dataset::generate(SceneId::Xyz, &config);
        let mut tracker = CoarseTracker::new(CoarseConfig::default());
        let g0 = data.frames[0].rgb.to_gray();
        tracker.track(&data.camera, &g0, &data.frames[0].depth, data.frames[0].gt_pose);
        // Externally "refine" frame 0's pose to a shifted value.
        let shifted = Se3::from_translation(Vec3::new(10.0, 0.0, 0.0)) * data.frames[0].gt_pose;
        tracker.correct_pose(shifted);
        let g1 = data.frames[1].rgb.to_gray();
        let r = tracker.track(&data.camera, &g1, &data.frames[1].depth, data.frames[0].gt_pose);
        // The next estimate chains from the corrected pose.
        assert!(r.pose.translation.x > 5.0);
    }

    #[test]
    fn exported_state_is_the_input_frame_and_restores_bit_identically() {
        let config =
            DatasetConfig { width: 64, height: 48, num_frames: 3, ..DatasetConfig::tiny() };
        let data = Dataset::generate(SceneId::Xyz, &config);
        let grays: Vec<GrayImage> = data.frames.iter().map(|f| f.rgb.to_gray()).collect();
        let mut tracker = CoarseTracker::new(CoarseConfig::default());
        for (gray, frame) in grays.iter().zip(&data.frames).take(2) {
            tracker.track(&data.camera, gray, &frame.depth, Se3::IDENTITY);
        }
        // The state stores the full-resolution inputs of the last frame —
        // pyramid level 0, not a separate copy.
        let state = tracker.export_state();
        let previous = state.previous.as_ref().expect("two frames tracked");
        assert_eq!(previous.gray, grays[1]);
        assert_eq!(previous.depth, data.frames[1].depth);

        let mut restored = CoarseTracker::new(CoarseConfig::default());
        restored.restore_state(&state);
        assert_eq!(restored.export_state(), state);
        let depth = &data.frames[2].depth;
        let a = tracker.track(&data.camera, &grays[2], depth, Se3::IDENTITY);
        let b = restored.track_owned(&data.camera, grays[2].clone(), depth, Se3::IDENTITY);
        assert_eq!(a.pose, b.pose);
        assert_eq!((a.backbone, a.gn_rows, a.samples), (b.backbone, b.gn_rows, b.samples));
    }

    #[test]
    fn huber_weight_downweights_outliers() {
        assert_eq!(huber_weight(0.01, 0.05), 1.0);
        assert!((huber_weight(0.1, 0.05) - 0.5).abs() < 1e-6);
        assert!(huber_weight(1.0, 0.05) < 0.06);
    }
}
