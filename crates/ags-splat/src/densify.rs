//! Map densification (SplaTAM-style).
//!
//! SplaTAM adds Gaussians where the rendered *silhouette* says the map has no
//! geometry, or where the rendered depth disagrees strongly with the sensor.
//! New Gaussians are back-projected from the RGB-D frame with a size matched
//! to the pixel footprint at that depth. The map only shrinks under a map
//! budget (see [`crate::compact`]).

use crate::gaussian::{Gaussian, GaussianCloud};
use crate::render::RenderOutput;
use ags_image::{DepthImage, RgbImage};
#[cfg(test)]
use ags_math::Vec3;
use ags_math::{Pcg32, Se3, Vec2};
use ags_scene::PinholeCamera;

/// Densification configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DensifyConfig {
    /// Pixels with rendered silhouette below this are "unobserved".
    pub silhouette_threshold: f32,
    /// Relative depth error above which a pixel re-seeds a Gaussian.
    pub depth_error_threshold: f32,
    /// Sample every `stride`-th pixel in x and y.
    pub stride: usize,
    /// New-Gaussian σ as a multiple of the pixel footprint (`z / fx`).
    pub sigma_scale: f32,
    /// Initial opacity of new Gaussians.
    pub opacity_init: f32,
    /// Upper bound on Gaussians added per call.
    pub max_new: usize,
    /// Opacity floor of a transparency prune. No mapping path prunes by it:
    /// its one reader is the benchmark's replay rig (`benchmark/src/sut.rs`),
    /// whose `map.compact_ms` times a prune at this floor.
    pub prune_opacity: f32,
}

impl Default for DensifyConfig {
    fn default() -> Self {
        Self {
            silhouette_threshold: 0.5,
            depth_error_threshold: 0.08,
            stride: 2,
            sigma_scale: 0.8,
            opacity_init: 0.8,
            max_new: 4000,
            prune_opacity: 0.005,
        }
    }
}

/// Outcome of one densification call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DensifyReport {
    /// Gaussians added.
    pub added: usize,
    /// Candidate pixels that were unobserved (silhouette gap).
    pub silhouette_pixels: usize,
    /// Candidate pixels with large depth error.
    pub depth_error_pixels: usize,
}

/// Adds Gaussians for unobserved / geometrically wrong pixels of a frame.
///
/// `rendered` must be a render of `cloud` from `pose` (same camera).
/// Candidates are subsampled with `config.stride` and jittered by `rng` so
/// repeated densification of the same region does not stack Gaussians at
/// identical positions.
#[allow(clippy::too_many_arguments)]
pub fn densify_from_frame(
    cloud: &mut GaussianCloud,
    camera: &PinholeCamera,
    pose: &Se3,
    gt_rgb: &RgbImage,
    gt_depth: &DepthImage,
    rendered: &RenderOutput,
    config: &DensifyConfig,
    rng: &mut Pcg32,
) -> DensifyReport {
    let mut report = DensifyReport::default();
    let stride = config.stride.max(1);
    let mut new_gaussians = Vec::new();

    for y in (0..camera.height).step_by(stride) {
        for x in (0..camera.width).step_by(stride) {
            let gt_z = gt_depth.at(x, y);
            if gt_z <= 0.0 {
                continue;
            }
            let sil = rendered.silhouette.at(x, y);
            let unobserved = sil < config.silhouette_threshold;
            // Rendered depth is alpha-weighted; normalise by silhouette to
            // compare against the sensor where the map is confident.
            let depth_wrong = if sil > 0.5 {
                let rendered_z = rendered.depth.at(x, y) / sil.max(1e-4);
                (rendered_z - gt_z).abs() / gt_z > config.depth_error_threshold
            } else {
                false
            };
            if unobserved {
                report.silhouette_pixels += 1;
            }
            if depth_wrong {
                report.depth_error_pixels += 1;
            }
            if !(unobserved || depth_wrong) {
                continue;
            }
            if new_gaussians.len() >= config.max_new {
                continue;
            }

            let jitter = Vec2::new(rng.range_f32(-0.4, 0.4), rng.range_f32(-0.4, 0.4));
            let pixel = Vec2::new(x as f32 + jitter.x, y as f32 + jitter.y);
            let p_cam = camera.unproject(pixel, gt_z);
            let p_world = pose.transform_point(p_cam);
            let sigma = (gt_z / camera.fx * config.sigma_scale * stride as f32).max(1e-4);
            new_gaussians.push(Gaussian::isotropic(
                p_world,
                sigma,
                gt_rgb.at(x, y),
                config.opacity_init,
            ));
        }
    }

    report.added = new_gaussians.len();
    cloud.extend(new_gaussians);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::{render, RenderOptions};

    fn camera() -> PinholeCamera {
        PinholeCamera::from_fov(32, 24, 1.2)
    }

    fn flat_frame(z: f32) -> (RgbImage, DepthImage) {
        (RgbImage::filled(32, 24, Vec3::splat(0.5)), DepthImage::filled(32, 24, z))
    }

    #[test]
    fn empty_map_densifies_everywhere() {
        let mut cloud = GaussianCloud::new();
        let cam = camera();
        let (rgb, depth) = flat_frame(2.0);
        let rendered = render(&cloud, &cam, &Se3::IDENTITY, &RenderOptions::default());
        let mut rng = Pcg32::seeded(1);
        let report = densify_from_frame(
            &mut cloud,
            &cam,
            &Se3::IDENTITY,
            &rgb,
            &depth,
            &rendered,
            &DensifyConfig::default(),
            &mut rng,
        );
        assert!(report.added > 50, "expected many new Gaussians, got {}", report.added);
        assert_eq!(report.added, cloud.len());
        assert_eq!(report.silhouette_pixels, report.added);
        // All new Gaussians sit near the z=2 plane in front of the camera.
        for g in cloud.gaussians() {
            assert!((g.position.z - 2.0).abs() < 0.05);
        }
    }

    #[test]
    fn well_covered_map_adds_nothing() {
        let mut cloud = GaussianCloud::new();
        let cam = camera();
        let (rgb, depth) = flat_frame(2.0);
        // First densify from scratch, then render and densify again.
        let empty_render = render(&cloud, &cam, &Se3::IDENTITY, &RenderOptions::default());
        let mut rng = Pcg32::seeded(2);
        let config = DensifyConfig { stride: 1, ..DensifyConfig::default() };
        densify_from_frame(
            &mut cloud,
            &cam,
            &Se3::IDENTITY,
            &rgb,
            &depth,
            &empty_render,
            &config,
            &mut rng,
        );
        let covered = render(&cloud, &cam, &Se3::IDENTITY, &RenderOptions::default());
        let before = cloud.len();
        let report = densify_from_frame(
            &mut cloud,
            &cam,
            &Se3::IDENTITY,
            &rgb,
            &depth,
            &covered,
            &config,
            &mut rng,
        );
        assert!(
            report.added < before / 10,
            "covered map should add few Gaussians: added {} of {}",
            report.added,
            before
        );
    }

    #[test]
    fn max_new_caps_additions() {
        let mut cloud = GaussianCloud::new();
        let cam = camera();
        let (rgb, depth) = flat_frame(1.5);
        let rendered = render(&cloud, &cam, &Se3::IDENTITY, &RenderOptions::default());
        let mut rng = Pcg32::seeded(3);
        let config = DensifyConfig { max_new: 10, stride: 1, ..DensifyConfig::default() };
        let report = densify_from_frame(
            &mut cloud,
            &cam,
            &Se3::IDENTITY,
            &rgb,
            &depth,
            &rendered,
            &config,
            &mut rng,
        );
        assert_eq!(report.added, 10);
    }

    #[test]
    fn invalid_depth_pixels_are_skipped() {
        let mut cloud = GaussianCloud::new();
        let cam = camera();
        let rgb = RgbImage::filled(32, 24, Vec3::splat(0.5));
        let depth = DepthImage::new(32, 24); // all invalid
        let rendered = render(&cloud, &cam, &Se3::IDENTITY, &RenderOptions::default());
        let mut rng = Pcg32::seeded(4);
        let report = densify_from_frame(
            &mut cloud,
            &cam,
            &Se3::IDENTITY,
            &rgb,
            &depth,
            &rendered,
            &DensifyConfig::default(),
            &mut rng,
        );
        assert_eq!(report.added, 0);
    }

    #[test]
    fn new_gaussian_size_scales_with_depth() {
        let cam = camera();
        let mut near_cloud = GaussianCloud::new();
        let mut far_cloud = GaussianCloud::new();
        let rendered = render(&near_cloud, &cam, &Se3::IDENTITY, &RenderOptions::default());
        let mut rng = Pcg32::seeded(5);
        let config = DensifyConfig::default();
        let (rgb_n, depth_n) = flat_frame(1.0);
        let (rgb_f, depth_f) = flat_frame(4.0);
        densify_from_frame(
            &mut near_cloud,
            &cam,
            &Se3::IDENTITY,
            &rgb_n,
            &depth_n,
            &rendered,
            &config,
            &mut rng,
        );
        densify_from_frame(
            &mut far_cloud,
            &cam,
            &Se3::IDENTITY,
            &rgb_f,
            &depth_f,
            &rendered,
            &config,
            &mut rng,
        );
        let near_sigma = near_cloud.gaussians()[0].max_scale();
        let far_sigma = far_cloud.gaussians()[0].max_scale();
        assert!((far_sigma / near_sigma - 4.0).abs() < 0.1);
    }
}
