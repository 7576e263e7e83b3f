//! Preprocessing: projecting 3D Gaussians to 2D screen-space splats.
//!
//! This is step ① of the 3DGS pipeline (paper Fig. 2a): each visible
//! Gaussian is transformed into the camera frame, its 3D covariance is
//! projected through the local affine approximation of the pinhole projection
//! (EWA splatting), and a conservative screen-space radius is derived for
//! tile binning.
//!
//! # One routine, pose-independent terms
//!
//! Every projection — [`project_gaussians`], a [`crate::cache::ProjectionCache`]
//! slot refresh, a tracking iteration — runs [`project_with_terms`]. What it
//! needs of a Gaussian besides the mean and the colour does not depend on the
//! pose: Σ3, the peak opacity and the largest scale ([`SplatTerms`], three
//! `exp`, a quaternion → matrix, two 3×3 products and a sigmoid to derive).
//! The routine asks for them only once the mean has passed the near plane, so
//! a caller that derives on the fly pays for them as late as it used to, and
//! a caller that keeps them ([`crate::cache::ProjectionCache`]) pays once per
//! parameter change instead of once per pose.
//!
//! # The early frustum reject
//!
//! About a quarter of a late-stream map sits in front of the camera but off
//! screen; without help such a splat runs the whole covariance chain to learn
//! its `radius` and fails the image test at the very end. The radius is
//! bounded from quantities known before the chain: with `A = J·W`,
//! `Σ2 = A Σ3 Aᵀ + COV2D_BLUR·I`, `W` and the Gaussian's `R` orthonormal,
//!
//! ```text
//! λmax(Σ2) ≤ ‖J‖_F² · s_max² + COV2D_BLUR,
//! ‖J‖_F² = (fx/z)² + (fy/z)² + (fx·x/z²)² + (fy·y/z²)²
//! radius = ⌈3·√λmax⌉ ≤ r_bound = 3·√(1.02·‖J‖_F²·s_max² + COV2D_BLUR)·1.02 + 2
//! ```
//!
//! The margins are far wider than what they cover: `R` and `W` come out of
//! normalised quaternions and are orthonormal to a few ulp, the f32 chain
//! moves Σ2's entries by ~10⁻⁶ relative, and the code's `mid² − det`
//! cancellation inflates `λmax` by at most `2√ε ≈ 5·10⁻⁴` relative — all
//! inside the two factors of 1.02 — while `⌈·⌉` adds less than one of the two
//! pixels. A splat whose mean ± `r_bound` misses the image by the late test's
//! own four comparisons is culled right there; since `radius ≤ r_bound` and
//! f32 addition is monotone, the late test would have culled it too. The
//! reject only fires while `r_bound < EARLY_REJECT_MAX_RADIUS`, which keeps
//! every intermediate of the chain finite (no `inf − inf` the analysis does
//! not cover) and is false for a NaN or infinite bound; [`SplatTerms`] poison
//! `s_max²` with NaN when Σ3 itself is not finite.

use crate::gaussian::{Gaussian, GaussianCloud};
use ags_math::{Mat2, Mat3, Se3, Vec2, Vec3};
use ags_scene::PinholeCamera;

/// Numerical blur added to the 2D covariance diagonal (standard 3DGS uses
/// 0.3 px² to guarantee splats cover at least a fraction of a pixel).
pub const COV2D_BLUR: f32 = 0.3;

/// The early frustum reject stands down at or above this radius bound (px):
/// below it `‖J‖_F²·s_max² < 1.1·10¹⁷`, so no product of the covariance chain
/// overflows and the bound's derivation (module docs) applies as written.
const EARLY_REJECT_MAX_RADIUS: f32 = 1e9;

/// A Gaussian projected into screen space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Splat2d {
    /// Id of the source Gaussian in the cloud.
    pub id: u32,
    /// Screen-space mean in pixels.
    pub mean: Vec2,
    /// Camera-space depth (z) of the center.
    pub depth: f32,
    /// Conic (inverse 2D covariance): `(a, b, c)` for `a·dx² + 2b·dx·dy + c·dy²`.
    pub conic: (f32, f32, f32),
    /// Conservative screen-space radius in pixels (3σ of the major axis).
    pub radius: f32,
    /// Color copied from the Gaussian.
    pub color: Vec3,
    /// Peak opacity (sigmoid of the logit).
    pub opacity: f32,
    /// Camera-space center (kept for pose gradients).
    pub p_cam: Vec3,
}

/// Projection products shared by forward and backward passes.
#[derive(Debug, Clone)]
pub struct Projection {
    /// Visible splats (culled Gaussians are absent).
    pub splats: Vec<Splat2d>,
    /// Number of Gaussians culled by the near-plane / frustum test.
    pub culled: usize,
    /// World-to-camera transform used.
    pub world_to_cam: Se3,
}

/// What projecting a Gaussian needs of it that no pose changes (32 bytes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplatTerms {
    /// Σ3's distinct entries `[xx, xy, xz, yy, yz, zz]`: `m·mᵀ` sums the same
    /// products in the same order on both sides of the diagonal, so the
    /// other three are bit copies.
    cov: [f32; 6],
    /// `sigmoid(opacity_logit)`.
    opacity: f32,
    /// Square of the largest scale — `λmax(Σ3)` up to rounding; NaN when Σ3
    /// is not finite, which disarms the early reject.
    max_scale_sq: f32,
}

impl SplatTerms {
    /// Derives the terms from a Gaussian's current parameters.
    pub fn of(g: &Gaussian) -> Self {
        let c = g.covariance();
        let cov = [c.at(0, 0), c.at(0, 1), c.at(0, 2), c.at(1, 1), c.at(1, 2), c.at(2, 2)];
        let max_scale = g.max_scale();
        let finite = cov.iter().all(|v| v.is_finite());
        Self {
            cov,
            opacity: g.opacity(),
            max_scale_sq: if finite { max_scale * max_scale } else { f32::NAN },
        }
    }

    fn covariance(&self) -> Mat3 {
        let [xx, xy, xz, yy, yz, zz] = self.cov;
        Mat3::from_rows(xx, xy, xz, xy, yy, yz, xz, yz, zz)
    }

    /// The early frustum reject of the module docs: true only when the
    /// covariance chain would end in a cull for this Gaussian centred at
    /// `p_cam` (in front of the near plane) and projecting to `mean`.
    #[inline]
    pub fn rejects_early(&self, camera: &PinholeCamera, p_cam: Vec3, mean: Vec2) -> bool {
        // A mean on the image misses it at no radius: most visible splats
        // leave here, four comparisons in.
        if !misses_image(camera, mean, 0.0) {
            return false;
        }
        let z_inv = 1.0 / p_cam.z;
        let (jx, jy) = (camera.fx * z_inv, camera.fy * z_inv);
        let (jxz, jyz) = (jx * p_cam.x * z_inv, jy * p_cam.y * z_inv);
        let j_frob_sq = jx * jx + jy * jy + jxz * jxz + jyz * jyz;
        let r_bound = 3.0 * (1.02 * j_frob_sq * self.max_scale_sq + COV2D_BLUR).sqrt() * 1.02 + 2.0;
        r_bound < EARLY_REJECT_MAX_RADIUS && misses_image(camera, mean, r_bound)
    }
}

/// Projects every Gaussian in the cloud; `pose` is camera-to-world.
///
/// Gaussians behind the near plane (z < 0.05) or projecting entirely outside
/// the (margin-expanded) image are culled, mirroring the paper's
/// "preprocess" stage. Terms are derived on the fly, for the splats in front
/// of the near plane.
pub fn project_gaussians(cloud: &GaussianCloud, camera: &PinholeCamera, pose: &Se3) -> Projection {
    project_cloud(cloud, camera, pose, |_, g| SplatTerms::of(g))
}

/// Projects every Gaussian in the cloud through [`project_with_terms`];
/// `terms_of(id, gaussian)` is asked for the terms of a Gaussian in front of
/// the near plane.
pub(crate) fn project_cloud(
    cloud: &GaussianCloud,
    camera: &PinholeCamera,
    pose: &Se3,
    mut terms_of: impl FnMut(usize, &Gaussian) -> SplatTerms,
) -> Projection {
    let world_to_cam = pose.inverse();
    let rot_wc = world_to_cam.rotation_matrix();
    let mut splats = Vec::with_capacity(cloud.len());
    let mut culled = 0usize;

    for (id, g) in cloud.gaussians().iter().enumerate() {
        let terms = || terms_of(id, g);
        match project_with_terms(g, terms, id as u32, camera, &world_to_cam, &rot_wc) {
            Some(splat) => splats.push(splat),
            None => culled += 1,
        }
    }

    Projection { splats, culled, world_to_cam }
}

/// True when a disc of `radius` around `mean` lies wholly outside the image.
#[inline]
fn misses_image(camera: &PinholeCamera, mean: Vec2, radius: f32) -> bool {
    mean.x + radius < -0.5
        || mean.y + radius < -0.5
        || mean.x - radius > camera.width as f32 - 0.5
        || mean.y - radius > camera.height as f32 - 0.5
}

/// Projects a single Gaussian, returning `None` when it is culled — the one
/// projection arithmetic of the crate. `terms` yields the Gaussian's
/// [`SplatTerms`] (kept, or derived on the spot) and is only called for a
/// mean in front of the near plane.
pub fn project_with_terms(
    g: &Gaussian,
    terms: impl FnOnce() -> SplatTerms,
    id: u32,
    camera: &PinholeCamera,
    world_to_cam: &Se3,
    rot_wc: &Mat3,
) -> Option<Splat2d> {
    let p_cam = world_to_cam.transform_point(g.position);
    if p_cam.z < 0.05 {
        return None;
    }
    let mean = camera.project(p_cam)?;
    let terms = terms();
    if terms.rejects_early(camera, p_cam, mean) {
        return None;
    }

    // EWA: Σ2 = J W Σ3 Wᵀ Jᵀ with J the projection Jacobian at p_cam.
    let (jw, _) = projection_jacobian(camera, p_cam, rot_wc);
    let cov2 = project_cov(&jw, &terms.covariance());
    let (a, b, c) = (cov2.cols[0].x + COV2D_BLUR, cov2.cols[1].x, cov2.cols[1].y + COV2D_BLUR);

    let det = a * c - b * b;
    if det <= 1e-12 {
        return None;
    }
    let inv = 1.0 / det;
    let conic = (c * inv, -b * inv, a * inv);

    // 3σ radius from the larger eigenvalue of Σ2.
    let mid = 0.5 * (a + c);
    let disc = (mid * mid - det).max(0.0).sqrt();
    let lambda_max = mid + disc;
    let radius = (3.0 * lambda_max.sqrt()).ceil();

    // Frustum cull with the splat's own extent as margin.
    if misses_image(camera, mean, radius) {
        return None;
    }

    Some(Splat2d {
        id,
        mean,
        depth: p_cam.z,
        conic,
        radius,
        color: g.color,
        opacity: terms.opacity,
        p_cam,
    })
}

/// Returns `(A, J)` where `A = J · W` is the 2×3 affine projection used for
/// covariance propagation (rows packed into a `Mat3` whose third row is zero)
/// and `J` the bare projection Jacobian.
pub fn projection_jacobian(camera: &PinholeCamera, p_cam: Vec3, rot_wc: &Mat3) -> (Mat3, Mat3) {
    let z_inv = 1.0 / p_cam.z;
    let z_inv2 = z_inv * z_inv;
    // J = [fx/z, 0, -fx·x/z²; 0, fy/z, -fy·y/z²] packed into rows 0..2 of a Mat3.
    let j = Mat3::from_rows(
        camera.fx * z_inv,
        0.0,
        -camera.fx * p_cam.x * z_inv2,
        0.0,
        camera.fy * z_inv,
        -camera.fy * p_cam.y * z_inv2,
        0.0,
        0.0,
        0.0,
    );
    (j * *rot_wc, j)
}

/// Projects a 3D covariance through the 2×3 affine map `A` (stored in the
/// top two rows of a `Mat3`), returning the 2×2 result as a [`Mat2`].
pub fn project_cov(a: &Mat3, cov3: &Mat3) -> Mat2 {
    let full = *a * *cov3 * a.transpose();
    Mat2::from_rows(full.at(0, 0), full.at(0, 1), full.at(1, 0), full.at(1, 1))
}

/// Evaluates the (unclamped) Gaussian falloff `exp(-½ dᵀ K d)` for an offset
/// `d` from the splat mean.
#[inline]
pub fn falloff(conic: (f32, f32, f32), d: Vec2) -> f32 {
    let q = conic.0 * d.x * d.x + 2.0 * conic.1 * d.x * d.y + conic.2 * d.y * d.y;
    if q < 0.0 {
        return 0.0;
    }
    (-0.5 * q).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ags_math::Pcg32;

    fn camera() -> PinholeCamera {
        PinholeCamera::from_fov(64, 48, 1.2)
    }

    /// The projection before terms and the early reject existed, kept as the
    /// oracle: Σ3 and the opacity straight from the Gaussian, one frustum
    /// test at the end.
    fn project_one_reference(
        g: &Gaussian,
        id: u32,
        camera: &PinholeCamera,
        world_to_cam: &Se3,
        rot_wc: &Mat3,
    ) -> Option<Splat2d> {
        let p_cam = world_to_cam.transform_point(g.position);
        if p_cam.z < 0.05 {
            return None;
        }
        let mean = camera.project(p_cam)?;
        let (jw, _) = projection_jacobian(camera, p_cam, rot_wc);
        let cov2 = project_cov(&jw, &g.covariance());
        let (a, b, c) = (cov2.cols[0].x + COV2D_BLUR, cov2.cols[1].x, cov2.cols[1].y + COV2D_BLUR);
        let det = a * c - b * b;
        if det <= 1e-12 {
            return None;
        }
        let inv = 1.0 / det;
        let conic = (c * inv, -b * inv, a * inv);
        let mid = 0.5 * (a + c);
        let disc = (mid * mid - det).max(0.0).sqrt();
        let lambda_max = mid + disc;
        let radius = (3.0 * lambda_max.sqrt()).ceil();
        if mean.x + radius < -0.5
            || mean.y + radius < -0.5
            || mean.x - radius > camera.width as f32 - 0.5
            || mean.y - radius > camera.height as f32 - 0.5
        {
            return None;
        }
        let (depth, color, opacity) = (p_cam.z, g.color, g.opacity());
        Some(Splat2d { id, mean, depth, conic, radius, color, opacity, p_cam })
    }

    /// Bit equality, except that any NaN equals any NaN (a non-finite
    /// Gaussian projects to NaN fields whose payload is not pinned).
    fn assert_splat_bits_eq(expect: Option<Splat2d>, got: Option<Splat2d>, what: &str) {
        let fields = |s: Splat2d| {
            let (m, k, c, p) = (s.mean, s.conic, s.color, s.p_cam);
            [m.x, m.y, s.depth, k.0, k.1, k.2, s.radius, c.x, c.y, c.z, s.opacity, p.x, p.y, p.z]
        };
        match (expect, got) {
            (None, None) => {}
            (Some(e), Some(g)) => {
                assert_eq!(e.id, g.id, "{what}");
                for (e, g) in fields(e).into_iter().zip(fields(g)) {
                    let same = e.to_bits() == g.to_bits() || (e.is_nan() && g.is_nan());
                    assert!(same, "{what}: {e:?} vs {g:?}");
                }
            }
            (e, g) => panic!("{what}: {e:?} vs {g:?}"),
        }
    }

    /// A Gaussian built to sit on one of the projection's decision
    /// boundaries: near plane, an image edge at about one radius, far off
    /// screen — with scales from e⁻⁶ to e^0.5, anisotropy up to 1:500,
    /// unnormalised rotations and the odd non-finite parameter.
    fn boundary_gaussian(rng: &mut Pcg32, cam: &PinholeCamera, pose: &Se3) -> Gaussian {
        let z = match rng.next_u32() % 8 {
            0 => rng.range_f32(0.03, 0.08),
            1 => rng.range_f32(0.05, 0.5),
            _ => rng.range_f32(0.3, 8.0),
        };
        let top = rng.range_f32(-6.0, 0.5);
        let mut log_scale = Vec3::splat(top);
        if rng.next_u32() % 2 == 0 {
            let thin = |rng: &mut Pcg32| top - rng.range_f32(0.0, 500f32.ln());
            log_scale = match rng.next_u32() % 3 {
                0 => Vec3::new(top, thin(rng), thin(rng)),
                1 => Vec3::new(thin(rng), top, thin(rng)),
                _ => Vec3::new(thin(rng), thin(rng), top),
            };
        }
        let (w, h) = (cam.width as f32, cam.height as f32);
        // Distance past an edge: about the splat's own 3σ radius, or anything.
        let radius = 3.0 * cam.fx * top.exp() / z + 1.0;
        let past = |rng: &mut Pcg32| match rng.next_u32() % 2 {
            0 => radius * rng.range_f32(0.6, 1.4),
            _ => rng.range_f32(-40.0, 40.0),
        };
        let (u, v) = (rng.range_f32(-20.0, w + 20.0), rng.range_f32(-20.0, h + 20.0));
        let pixel = match rng.next_u32() % 6 {
            0 => Vec2::new(-0.5 - past(rng), v),
            1 => Vec2::new(w - 0.5 + past(rng), v),
            2 => Vec2::new(u, -0.5 - past(rng)),
            3 => Vec2::new(u, h - 0.5 + past(rng)),
            4 => Vec2::new(rng.range_f32(-3000.0, 3000.0), rng.range_f32(-3000.0, 3000.0)),
            _ => Vec2::new(u, v),
        };
        let stretch = rng.range_f32(0.1, 3.0);
        let mut g = Gaussian {
            position: pose.transform_point(cam.unproject(pixel, z)),
            log_scale,
            rotation: ags_math::Quat::new(
                rng.range_f32(-1.0, 1.0) * stretch,
                rng.range_f32(-1.0, 1.0) * stretch,
                rng.range_f32(-1.0, 1.0) * stretch,
                rng.range_f32(-1.0, 1.0) * stretch,
            ),
            color: Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32()),
            opacity_logit: rng.range_f32(-6.0, 6.0),
        };
        if rng.next_u32() % 64 == 0 {
            let bad = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e30, -1e30, 90.0];
            let bad = bad[rng.next_u32() as usize % bad.len()];
            match rng.next_u32() % 6 {
                0 => g.position.x = bad,
                1 => g.position.z = bad,
                2 => g.log_scale.y = bad,
                3 => g.rotation.x = bad,
                4 => g.opacity_logit = bad,
                _ => g.rotation = ags_math::Quat::new(0.0, 0.0, 0.0, 0.0),
            }
        }
        g
    }

    #[test]
    fn early_reject_only_drops_what_the_late_test_drops() {
        let cam = PinholeCamera::from_fov(60, 45, 1.2);
        let pose = Se3::new(
            ags_math::Quat::from_axis_angle(Vec3::new(0.2, 1.0, -0.1), 0.3),
            Vec3::new(0.4, -0.2, 0.1),
        );
        let world_to_cam = pose.inverse();
        let rot_wc = world_to_cam.rotation_matrix();
        let mut rng = Pcg32::seeded(0xf2u64);
        let mut cloud = GaussianCloud::new();
        let (mut rejected, mut late_only, mut visible) = (0, 0, 0);
        for id in 0..120_000u32 {
            let g = boundary_gaussian(&mut rng, &cam, &pose);
            cloud.push(g);
            let expect = project_one_reference(&g, id, &cam, &world_to_cam, &rot_wc);
            let terms = SplatTerms::of(&g);
            let kept = project_with_terms(&g, || terms, id, &cam, &world_to_cam, &rot_wc);
            assert_splat_bits_eq(expect, kept, &format!("{g:?}"));

            let p_cam = world_to_cam.transform_point(g.position);
            let Some(mean) = cam.project(p_cam).filter(|_| p_cam.z >= 0.05) else { continue };
            if terms.rejects_early(&cam, p_cam, mean) {
                assert!(expect.is_none(), "early reject dropped a visible splat: {g:?}");
                rejected += 1;
            } else if expect.is_none() {
                late_only += 1;
            } else {
                visible += 1;
            }
        }
        // The fixture sits on the boundary from both sides, and even there
        // (thin splats seen edge-on are where the bound is loosest) the early
        // test takes most of what the late one would.
        assert!(rejected > 20_000 && visible > 20_000, "{rejected} rejected, {visible} visible");
        assert!(late_only * 2 < rejected, "{late_only} late culls vs {rejected} early");

        // The cloud-level entry point derives terms on the fly.
        let got = project_gaussians(&cloud, &cam, &pose);
        let mut splats = got.splats.iter().copied();
        let mut culled = 0;
        for (id, g) in cloud.gaussians().iter().enumerate() {
            match project_one_reference(g, id as u32, &cam, &world_to_cam, &rot_wc) {
                Some(expect) => assert_splat_bits_eq(Some(expect), splats.next(), "cloud"),
                None => culled += 1,
            }
        }
        assert_eq!(splats.next(), None);
        assert_eq!(got.culled, culled);
    }

    fn single(g: Gaussian) -> GaussianCloud {
        let mut c = GaussianCloud::new();
        c.push(g);
        c
    }

    #[test]
    fn center_gaussian_projects_to_principal_point() {
        let cloud = single(Gaussian::isotropic(Vec3::new(0.0, 0.0, 2.0), 0.1, Vec3::ONE, 0.5));
        let proj = project_gaussians(&cloud, &camera(), &Se3::IDENTITY);
        assert_eq!(proj.splats.len(), 1);
        let s = &proj.splats[0];
        assert!((s.mean.x - camera().cx).abs() < 1e-3);
        assert!((s.mean.y - camera().cy).abs() < 1e-3);
        assert!((s.depth - 2.0).abs() < 1e-5);
    }

    #[test]
    fn behind_camera_is_culled() {
        let cloud = single(Gaussian::isotropic(Vec3::new(0.0, 0.0, -1.0), 0.1, Vec3::ONE, 0.5));
        let proj = project_gaussians(&cloud, &camera(), &Se3::IDENTITY);
        assert!(proj.splats.is_empty());
        assert_eq!(proj.culled, 1);
    }

    #[test]
    fn far_off_screen_is_culled() {
        let cloud = single(Gaussian::isotropic(Vec3::new(100.0, 0.0, 2.0), 0.01, Vec3::ONE, 0.5));
        let proj = project_gaussians(&cloud, &camera(), &Se3::IDENTITY);
        assert_eq!(proj.culled, 1);
    }

    #[test]
    fn closer_gaussian_has_larger_radius() {
        let near = single(Gaussian::isotropic(Vec3::new(0.0, 0.0, 1.0), 0.2, Vec3::ONE, 0.5));
        let far = single(Gaussian::isotropic(Vec3::new(0.0, 0.0, 6.0), 0.2, Vec3::ONE, 0.5));
        let cam = camera();
        let rn = project_gaussians(&near, &cam, &Se3::IDENTITY).splats[0].radius;
        let rf = project_gaussians(&far, &cam, &Se3::IDENTITY).splats[0].radius;
        assert!(rn > rf, "near radius {rn} vs far {rf}");
    }

    #[test]
    fn isotropic_conic_is_isotropic_at_center() {
        let cloud = single(Gaussian::isotropic(Vec3::new(0.0, 0.0, 3.0), 0.3, Vec3::ONE, 0.5));
        let s = project_gaussians(&cloud, &camera(), &Se3::IDENTITY).splats[0];
        // On-axis, the conic should be (nearly) diagonal with equal entries
        // for a square-pixel camera.
        assert!((s.conic.0 - s.conic.2).abs() / s.conic.0 < 1e-2);
        assert!(s.conic.1.abs() / s.conic.0 < 1e-3);
    }

    #[test]
    fn falloff_peaks_at_mean() {
        let conic = (0.5, 0.0, 0.5);
        assert!((falloff(conic, Vec2::ZERO) - 1.0).abs() < 1e-6);
        assert!(falloff(conic, Vec2::new(1.0, 0.0)) < 1.0);
        // Monotone decay with distance.
        assert!(falloff(conic, Vec2::new(1.0, 0.0)) > falloff(conic, Vec2::new(2.0, 0.0)));
    }

    #[test]
    fn pose_translation_moves_projection() {
        let cloud = single(Gaussian::isotropic(Vec3::new(0.0, 0.0, 4.0), 0.2, Vec3::ONE, 0.5));
        let cam = camera();
        // Move the camera right: the splat should move left in the image.
        let pose = Se3::from_translation(Vec3::new(0.5, 0.0, 0.0));
        let centered = project_gaussians(&cloud, &cam, &Se3::IDENTITY).splats[0].mean;
        let shifted = project_gaussians(&cloud, &cam, &pose).splats[0].mean;
        assert!(shifted.x < centered.x - 1.0);
    }

    #[test]
    fn projected_covariance_matches_scale_over_depth() {
        // For an isotropic Gaussian on the optical axis the 2D σ should be
        // roughly fx·σ/z (plus blur).
        let sigma = 0.3f32;
        let z = 3.0f32;
        let cloud = single(Gaussian::isotropic(Vec3::new(0.0, 0.0, z), sigma, Vec3::ONE, 0.5));
        let cam = camera();
        let s = project_gaussians(&cloud, &cam, &Se3::IDENTITY).splats[0];
        let expected_var = (cam.fx * sigma / z).powi(2) + COV2D_BLUR;
        // conic.0 ≈ 1/expected_var for a diagonal covariance.
        assert!(
            (1.0 / s.conic.0 - expected_var).abs() / expected_var < 0.05,
            "var {} vs expected {expected_var}",
            1.0 / s.conic.0
        );
    }
}
