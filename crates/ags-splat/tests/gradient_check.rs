//! Integration-level finite-difference validation of the full
//! render → loss → backward chain for camera-pose gradients.

use ags_image::{DepthImage, RgbImage};
use ags_math::parallel::Parallelism;
use ags_math::{Pcg32, Se3, Vec3};
use ags_scene::PinholeCamera;
use ags_splat::backward::{backward_with, GradMode};
use ags_splat::loss::{compute_loss, LossConfig, LossKind};
use ags_splat::project::project_gaussians;
use ags_splat::render::{rasterize, RenderOptions};
use ags_splat::tiles::GaussianTables;
use ags_splat::{BackendKind, Gaussian, GaussianCloud};

/// The gradients checked against finite differences are the scalar replay's
/// — the oracle the vectorized tape is held bit-identical to in `backend.rs`.
const ORACLE: BackendKind = BackendKind::Reference;

fn l2() -> LossConfig {
    LossConfig {
        kind: LossKind::L2,
        color_weight: 1.0,
        depth_weight: 0.2,
        silhouette_mask: false,
        mask_threshold: 0.0,
    }
}

fn loss_only(
    cloud: &GaussianCloud,
    pose: &Se3,
    cam: &PinholeCamera,
    gt_rgb: &RgbImage,
    gt_depth: &DepthImage,
) -> f64 {
    let projection = project_gaussians(cloud, cam, pose);
    let tables = GaussianTables::build(&projection, cam);
    let out = rasterize(cloud, &projection, &tables, cam, &RenderOptions::default());
    compute_loss(&out, gt_rgb, gt_depth, &l2()).total_f64
}

fn fixture(
    num_gaussians: usize,
    seed: u64,
) -> (GaussianCloud, PinholeCamera, RgbImage, DepthImage) {
    let cam = PinholeCamera::from_fov(24, 24, 1.2);
    let mut rng = Pcg32::seeded(seed);
    let mut cloud = GaussianCloud::new();
    for _ in 0..num_gaussians {
        let mut g = Gaussian::isotropic(
            Vec3::new(rng.range_f32(-0.3, 0.3), rng.range_f32(-0.3, 0.3), rng.range_f32(1.6, 2.6)),
            rng.range_f32(0.06, 0.18),
            Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32()),
            rng.range_f32(0.3, 0.9),
        );
        g.rotation = ags_math::Quat::from_rotation_vector(Vec3::new(
            rng.range_f32(-0.5, 0.5),
            rng.range_f32(-0.5, 0.5),
            rng.range_f32(-0.5, 0.5),
        ));
        g.log_scale = Vec3::new(
            rng.range_f32(0.05, 0.2).ln(),
            rng.range_f32(0.05, 0.2).ln(),
            rng.range_f32(0.05, 0.2).ln(),
        );
        cloud.push(g);
    }
    let gt_rgb = RgbImage::from_vec(
        cam.width,
        cam.height,
        (0..cam.num_pixels())
            .map(|_| Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32()) * 0.5)
            .collect(),
    );
    let gt_depth = DepthImage::filled(cam.width, cam.height, 2.1);
    (cloud, cam, gt_rgb, gt_depth)
}

/// On dense random scenes the rasterized loss is only *piecewise* smooth
/// (α-threshold crossings, tile-binning changes), so finite differences do
/// not converge for small twist components — the controlled unit tests in
/// `backward` validate each gradient path tightly instead. What must hold on
/// any scene is the descent property: stepping along the negative analytic
/// gradient reduces the loss.
#[test]
fn pose_gradient_descends_on_dense_scenes() {
    for seed in [3u64, 11, 29, 41] {
        let (cloud, cam, gt_rgb, gt_depth) = fixture(6, seed);
        let projection = project_gaussians(&cloud, &cam, &Se3::IDENTITY);
        let tables = GaussianTables::build(&projection, &cam);
        let out = rasterize(&cloud, &projection, &tables, &cam, &RenderOptions::default());
        let loss = compute_loss(&out, &gt_rgb, &gt_depth, &l2());
        let back = backward_with(
            ORACLE,
            &cloud,
            &projection,
            &tables,
            &cam,
            &loss,
            GradMode::Track,
            None,
            &Parallelism::serial(),
        );
        let pg = back.pose.expect("track mode produces pose grads");

        let norm_sq: f32 = pg.twist.iter().map(|v| v * v).sum();
        assert!(norm_sq > 0.0, "seed {seed}: zero pose gradient on a lossy scene");

        // Armijo-style check over a small set of step sizes: at least one
        // must achieve a meaningful fraction of the first-order prediction.
        let base = loss.total_f64;
        let mut best_reduction = f64::MIN;
        for eta in [0.25f32, 0.5, 1.0, 2.0] {
            let step: [f32; 6] = std::array::from_fn(|k| -eta * pg.twist[k]);
            let stepped = (Se3::exp(&step) * Se3::IDENTITY.inverse()).inverse();
            let new_loss = loss_only(&cloud, &stepped, &cam, &gt_rgb, &gt_depth);
            let predicted = (eta * norm_sq) as f64;
            best_reduction = best_reduction.max((base - new_loss) / predicted);
        }
        assert!(
            best_reduction > 0.25,
            "seed {seed}: gradient step achieved {best_reduction:.3} of the predicted reduction"
        );
    }
}

/// Parameter gradients across a multi-Gaussian cloud match finite
/// differences in a random direction of the full parameter space.
#[test]
fn parameter_gradient_matches_fd_directional() {
    let (cloud, cam, gt_rgb, gt_depth) = fixture(5, 17);
    let projection = project_gaussians(&cloud, &cam, &Se3::IDENTITY);
    let tables = GaussianTables::build(&projection, &cam);
    let out = rasterize(&cloud, &projection, &tables, &cam, &RenderOptions::default());
    let loss = compute_loss(&out, &gt_rgb, &gt_depth, &l2());
    let back = backward_with(
        ORACLE,
        &cloud,
        &projection,
        &tables,
        &cam,
        &loss,
        GradMode::Map,
        None,
        &Parallelism::serial(),
    );
    let grads = back.grads.expect("map mode produces parameter grads");

    // Random direction over (position, log_scale, color, opacity) of every
    // Gaussian.
    let mut rng = Pcg32::seeded(99);
    let n = cloud.len();
    let dirs: Vec<[f32; 10]> =
        (0..n).map(|_| std::array::from_fn(|_| rng.range_f32(-1.0, 1.0))).collect();

    let apply = |cloud: &GaussianCloud, eps: f32| -> GaussianCloud {
        let mut c = cloud.clone();
        for (g, d) in c.gaussians_mut().iter_mut().zip(&dirs) {
            g.position += Vec3::new(d[0], d[1], d[2]) * eps;
            g.log_scale += Vec3::new(d[3], d[4], d[5]) * eps;
            g.color += Vec3::new(d[6], d[7], d[8]) * eps;
            g.opacity_logit += d[9] * eps;
        }
        c
    };

    let eps = 1e-4;
    let numeric = ((loss_only(&apply(&cloud, eps), &Se3::IDENTITY, &cam, &gt_rgb, &gt_depth)
        - loss_only(&apply(&cloud, -eps), &Se3::IDENTITY, &cam, &gt_rgb, &gt_depth))
        / (2.0 * eps as f64)) as f32;

    let mut analytic = 0.0f32;
    for (i, d) in dirs.iter().enumerate().take(n) {
        analytic += grads.position[i].dot(Vec3::new(d[0], d[1], d[2]));
        analytic += grads.log_scale[i].dot(Vec3::new(d[3], d[4], d[5]));
        analytic += grads.color[i].dot(Vec3::new(d[6], d[7], d[8]));
        analytic += grads.opacity_logit[i] * d[9];
    }
    let scale = analytic.abs().max(numeric.abs()).max(1e-6);
    assert!(
        (analytic - numeric).abs() / scale < 0.05,
        "directional derivative: analytic {analytic} vs numeric {numeric}"
    );
}
