//! Property-based tests over the core data structures and invariants.
//!
//! The workspace vendors no property-testing crate; each property runs over
//! a sweep of deterministic [`Pcg32`]-seeded cases instead, which keeps
//! failures exactly reproducible from the printed seed.

use ags::prelude::*;
use ags::splat::render::{render, RenderOptions};
use ags::splat::tiles::GaussianTables;
use ags::splat::{project::project_gaussians, Gaussian, GaussianCloud, IdSet};
use ags::track::ate::ate_rmse;
use ags_codec::SearchKind;

const CASES: u64 = 64;

fn rand_vec3(rng: &mut Pcg32, range: f32) -> Vec3 {
    Vec3::new(
        rng.range_f32(-range, range),
        rng.range_f32(-range, range),
        rng.range_f32(-range, range),
    )
}

fn rand_quat(rng: &mut Pcg32) -> Quat {
    Quat::from_rotation_vector(rand_vec3(rng, 2.0))
}

fn rand_pose(rng: &mut Pcg32) -> Se3 {
    Se3::new(rand_quat(rng), rand_vec3(rng, 5.0))
}

fn rand_cloud(rng: &mut Pcg32, max: usize) -> GaussianCloud {
    let mut cloud = GaussianCloud::new();
    for _ in 0..rng.index(max) + 1 {
        cloud.push(Gaussian::isotropic(
            Vec3::new(rng.range_f32(-1.0, 1.0), rng.range_f32(-1.0, 1.0), rng.range_f32(0.5, 4.0)),
            rng.range_f32(0.02, 0.4),
            Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32()),
            rng.range_f32(0.05, 0.95),
        ));
    }
    cloud
}

/// Rotations preserve vector length.
#[test]
fn rotation_preserves_norm() {
    for seed in 0..CASES {
        let mut rng = Pcg32::seeded(seed);
        let q = rand_quat(&mut rng);
        let v = rand_vec3(&mut rng, 10.0);
        let rotated = q.rotate(v);
        assert!((rotated.norm() - v.norm()).abs() < 1e-3, "seed {seed}");
    }
}

/// Pose composition with the inverse is the identity.
#[test]
fn pose_inverse_composes_to_identity() {
    for seed in 0..CASES {
        let mut rng = Pcg32::seeded(seed);
        let p = rand_pose(&mut rng);
        let id = p * p.inverse();
        assert!(id.translation.norm() < 1e-3, "seed {seed}");
        assert!(id.rotation.angle_to(Quat::IDENTITY) < 1e-3, "seed {seed}");
    }
}

/// Transforming a point and inverting recovers the point.
#[test]
fn pose_transform_roundtrip() {
    for seed in 0..CASES {
        let mut rng = Pcg32::seeded(seed);
        let p = rand_pose(&mut rng);
        let v = rand_vec3(&mut rng, 10.0);
        let back = p.inverse().transform_point(p.transform_point(v));
        assert!((back - v).norm() < 1e-2, "seed {seed}");
    }
}

/// SE(3) exp/log roundtrip for bounded twists.
#[test]
fn se3_exp_log_roundtrip() {
    for seed in 0..CASES {
        let mut rng = Pcg32::seeded(seed);
        let mut t = [0f32; 6];
        for v in &mut t {
            *v = rng.range_f32(-0.5, 0.5);
        }
        let pose = Se3::exp(&t);
        let back = pose.log();
        for k in 0..6 {
            assert!((back[k] - t[k]).abs() < 1e-3, "seed {seed} component {k}");
        }
    }
}

/// The covisibility metric is always within [0, 1] and identical frames
/// score higher than heavily perturbed ones.
#[test]
fn covisibility_bounds_and_ordering() {
    for seed in 0..CASES {
        let mut rng = Pcg32::seeded(seed);
        let base = LumaPlane::from_fn(32, 32, |x, y| ((x * 7 + y * 13 + rng.index(8)) % 250) as u8);
        let mut rng2 = Pcg32::seeded(seed ^ 0xffff);
        let noisy = LumaPlane::from_fn(32, 32, |_, _| rng2.range_u32(250) as u8);
        let config = CodecConfig::default();
        let est = MotionEstimator::new(config.clone());
        let same = est.estimate(&base, &base).covisibility(&config).value();
        let diff = est.estimate(&noisy, &base).covisibility(&config).value();
        assert!((0.0..=1.0).contains(&same), "seed {seed}");
        assert!((0.0..=1.0).contains(&diff), "seed {seed}");
        assert!(same >= diff, "seed {seed}");
    }
}

/// Rendering invariants: silhouette in [0, 1], depth non-negative, and
/// skipping Gaussians never increases the α-stage workload.
#[test]
fn render_invariants() {
    for seed in 0..CASES {
        let mut rng = Pcg32::seeded(seed);
        let cloud = rand_cloud(&mut rng, 20);
        let camera = PinholeCamera::from_fov(32, 24, 1.2);
        let full = render(&cloud, &camera, &Se3::IDENTITY, &RenderOptions::default());
        for (&s, &d) in full.silhouette.pixels().iter().zip(full.depth.pixels()) {
            assert!((0.0..=1.0 + 1e-5).contains(&s), "seed {seed}");
            assert!(d >= 0.0, "seed {seed}");
        }
        // Skip half the Gaussians: alpha evaluations must not increase.
        let mut skip = IdSet::with_capacity(cloud.len());
        for id in (0..cloud.len()).step_by(2) {
            skip.insert(id);
        }
        let partial = render(
            &cloud,
            &camera,
            &Se3::IDENTITY,
            &RenderOptions { skip: Some(std::sync::Arc::new(skip)), ..Default::default() },
        );
        assert!(partial.stats.alpha_evals <= full.stats.alpha_evals, "seed {seed}");
    }
}

/// ATE is invariant to a rigid transform of the estimated trajectory.
#[test]
fn ate_rigid_invariance() {
    for seed in 0..CASES {
        let mut rng = Pcg32::seeded(seed);
        let offset = rand_pose(&mut rng);
        let mut gt = vec![Se3::IDENTITY];
        for _ in 0..10 {
            let step = Se3::new(
                Quat::from_rotation_vector(Vec3::new(
                    rng.range_f32(-0.1, 0.1),
                    rng.range_f32(-0.1, 0.1),
                    rng.range_f32(-0.1, 0.1),
                )),
                Vec3::new(rng.range_f32(-0.2, 0.2), rng.range_f32(-0.2, 0.2), 0.2),
            );
            let last = *gt.last().unwrap();
            gt.push((last * step).renormalized());
        }
        let moved: Vec<Se3> = gt.iter().map(|p| (offset * *p).renormalized()).collect();
        let ate = ate_rmse(&moved, &gt);
        assert!(ate < 1e-2, "seed {seed}: rigidly moved trajectory must align back, ate {ate}");
    }
}

/// Gaussian covariance is always symmetric positive semi-definite.
#[test]
fn covariance_is_spd() {
    for seed in 0..CASES {
        let mut rng = Pcg32::seeded(seed);
        let q = rand_quat(&mut rng);
        let s = [rng.range_f32(0.01, 0.5), rng.range_f32(0.01, 0.5), rng.range_f32(0.01, 0.5)];
        let p = rand_vec3(&mut rng, 3.0);
        let mut g = Gaussian::isotropic(p, 0.1, Vec3::ONE, 0.5);
        g.rotation = q;
        g.log_scale = Vec3::new(s[0].ln(), s[1].ln(), s[2].ln());
        let cov = g.covariance();
        // Symmetry.
        assert!((cov.at(0, 1) - cov.at(1, 0)).abs() < 1e-5, "seed {seed}");
        assert!((cov.at(0, 2) - cov.at(2, 0)).abs() < 1e-5, "seed {seed}");
        assert!((cov.at(1, 2) - cov.at(2, 1)).abs() < 1e-5, "seed {seed}");
        // PSD via quadratic forms on the axes and a random-ish direction.
        for v in [Vec3::X, Vec3::Y, Vec3::Z, Vec3::new(0.3, -0.7, 0.64)] {
            assert!(v.dot(cov.mul_vec(v)) >= -1e-6, "seed {seed}");
        }
        // Determinant equals the squared product of scales.
        let expect = (s[0] * s[1] * s[2]).powi(2);
        assert!((cov.det() - expect).abs() / expect < 1e-2, "seed {seed}");
    }
}

/// IdSet operations: inserted ids are members, jaccard is symmetric and
/// bounded.
#[test]
fn idset_properties() {
    for seed in 0..CASES {
        let mut rng = Pcg32::seeded(seed);
        let ids_a: Vec<usize> = (0..rng.index(40)).map(|_| rng.index(256)).collect();
        let ids_b: Vec<usize> = (0..rng.index(40)).map(|_| rng.index(256)).collect();
        let mut a = IdSet::with_capacity(256);
        let mut b = IdSet::with_capacity(256);
        for &id in &ids_a {
            a.insert(id);
        }
        for &id in &ids_b {
            b.insert(id);
        }
        for &id in &ids_a {
            assert!(a.contains(id), "seed {seed}");
        }
        let j_ab = a.jaccard(&b);
        let j_ba = b.jaccard(&a);
        assert!((j_ab - j_ba).abs() < 1e-6, "seed {seed}");
        assert!((0.0..=1.0).contains(&j_ab), "seed {seed}");
        assert!((a.overlap_fraction(&a) - 1.0).abs() < 1e-6, "seed {seed}");
    }
}

/// Parallel motion estimation is bit-identical to the serial reference for
/// random frames, both search strategies, any thread count.
#[test]
fn parallel_estimate_matches_serial() {
    for seed in 0..16u64 {
        let mut rng = Pcg32::seeded(seed);
        let shift = rng.index(5);
        let reference = LumaPlane::from_fn(72, 56, |x, y| (((x + shift) * 13 + y * 7) % 251) as u8);
        let noise_seed = rng.next_u64();
        let mut noise = Pcg32::seeded(noise_seed);
        let current =
            LumaPlane::from_fn(72, 56, |x, y| ((x * 13 + y * 7 + noise.index(6)) % 251) as u8);
        for search in [SearchKind::FullSearch, SearchKind::Diamond] {
            let serial = MotionEstimator::new(CodecConfig {
                search,
                parallelism: Parallelism::serial(),
                ..CodecConfig::default()
            })
            .estimate(&current, &reference);
            for threads in [2usize, 5] {
                // min_items(0): tiny frames must still exercise the executor.
                let parallel = MotionEstimator::new(CodecConfig {
                    search,
                    parallelism: Parallelism::with_threads(threads).min_items(0),
                    ..CodecConfig::default()
                })
                .estimate(&current, &reference);
                assert_eq!(serial, parallel, "seed {seed} {search:?} threads {threads}");
            }
        }
    }
}

/// Parallel tile binning + rasterization is bit-identical to serial on random
/// clouds: same tables, same framebuffers, same workload counters.
#[test]
fn parallel_rasterize_matches_serial() {
    for seed in 0..12u64 {
        let mut rng = Pcg32::seeded(seed);
        let cloud = rand_cloud(&mut rng, 120);
        let camera = PinholeCamera::from_fov(64, 48, 1.2);
        let pose = Se3::IDENTITY;

        let projection = project_gaussians(&cloud, &camera, &pose);
        let serial_tables =
            GaussianTables::build_with(&projection, &camera, &Parallelism::serial());
        let parallel_tables = GaussianTables::build_with(
            &projection,
            &camera,
            &Parallelism::with_threads(4).min_items(0),
        );
        assert_eq!(serial_tables.total_pairs, parallel_tables.total_pairs, "seed {seed}");
        assert_eq!(serial_tables.tables(), parallel_tables.tables(), "seed {seed}");

        let serial = render(
            &cloud,
            &camera,
            &pose,
            &RenderOptions { parallelism: Parallelism::serial(), ..Default::default() },
        );
        let parallel = render(
            &cloud,
            &camera,
            &pose,
            &RenderOptions {
                parallelism: Parallelism::with_threads(4).min_items(0),
                ..Default::default()
            },
        );
        assert_eq!(serial.color.pixels(), parallel.color.pixels(), "seed {seed}");
        assert_eq!(serial.depth.pixels(), parallel.depth.pixels(), "seed {seed}");
        assert_eq!(serial.silhouette.pixels(), parallel.silhouette.pixels(), "seed {seed}");
        assert_eq!(serial.stats.alpha_evals, parallel.stats.alpha_evals, "seed {seed}");
        assert_eq!(serial.stats.blend_ops, parallel.stats.blend_ops, "seed {seed}");
    }
}

/// Full search is exhaustive, so per macro-block its minimum SAD lower-bounds
/// whatever the diamond heuristic finds.
#[test]
fn diamond_never_beats_full_search() {
    for seed in 0..24u64 {
        let mut rng = Pcg32::seeded(seed);
        let shift = rng.index(7);
        let reference =
            LumaPlane::from_fn(64, 48, |x, y| (((x + shift) * 11 + y * 17) % 253) as u8);
        let mut noise = Pcg32::seeded(seed ^ 0xabcd);
        let current =
            LumaPlane::from_fn(64, 48, |x, y| ((x * 11 + y * 17 + noise.index(9)) % 253) as u8);
        let full = MotionEstimator::new(CodecConfig {
            search: SearchKind::FullSearch,
            ..CodecConfig::default()
        })
        .estimate(&current, &reference);
        let diamond = MotionEstimator::new(CodecConfig {
            search: SearchKind::Diamond,
            ..CodecConfig::default()
        })
        .estimate(&current, &reference);
        for (i, (f, d)) in full.field.entries.iter().zip(&diamond.field.entries).enumerate() {
            assert!(d.min_sad >= f.min_sad, "seed {seed} mb {i}: {d:?} vs {f:?}");
        }
        // And the heuristic must pay fewer SAD evaluations for that.
        assert!(diamond.sad_evaluations < full.sad_evaluations, "seed {seed}");
    }
}

/// The early-exit bounded SAD agrees with the unbounded SAD: exact whenever
/// the result could still win (<= bound), provably losing otherwise.
#[test]
fn bounded_sad_matches_unbounded() {
    for seed in 0..CASES {
        let mut rng = Pcg32::seeded(seed);
        let a_seed = rng.next_u64();
        let b_seed = rng.next_u64();
        let mut ra = Pcg32::seeded(a_seed);
        let mut rb = Pcg32::seeded(b_seed);
        let a = LumaPlane::from_fn(24, 24, |_, _| ra.range_u32(256) as u8);
        let b = LumaPlane::from_fn(24, 24, |_, _| rb.range_u32(256) as u8);
        for _ in 0..16 {
            let x = rng.index(16);
            let y = rng.index(16);
            let rx = rng.index(16);
            let ry = rng.index(16);
            let exact = a.block_sad(x, y, &b, rx, ry, 8);
            let bound = rng.range_u32(exact.max(1) * 2);
            let bounded = a.block_sad_bounded(x, y, &b, rx, ry, 8, bound);
            if bounded <= bound {
                assert_eq!(bounded, exact, "seed {seed}: in-bound result must be exact");
            } else {
                assert!(exact > bound, "seed {seed}: early exit implies the exact SAD loses");
                assert!(bounded <= exact, "seed {seed}: partial sum cannot exceed the exact SAD");
            }
        }
    }
}
