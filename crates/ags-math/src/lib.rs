//! Minimal, dependency-free linear algebra for the AGS workspace.
//!
//! The crate provides exactly the math the AGS reproduction needs:
//!
//! * [`Vec2`], [`Vec3`], [`Vec4`] — small `f32` vectors used by the splatting
//!   rasterizer and the scene ray-caster.
//! * [`Mat2`], [`Mat3`], [`Mat4`] — column-major small matrices.
//! * [`Quat`] — unit quaternions for rotations.
//! * [`Se3`] — rigid-body poses with `exp`/`log` maps, used by the trackers.
//! * [`solve`] — small dense solvers (Cholesky / Gaussian elimination) with
//!   `f64` accumulation for the 6×6 Gauss–Newton systems.
//! * [`svd3`] — Jacobi eigendecomposition / SVD of 3×3 matrices, used by the
//!   Umeyama trajectory alignment inside ATE evaluation.
//! * [`rng`] — a tiny deterministic PCG32 generator so library behaviour never
//!   depends on external RNG crate versions.
//! * [`stats`] — means, geometric means and percentiles for the experiment
//!   harness.
//! * [`parallel`] — the persistent [`WorkerPool`] executor and the
//!   [`Parallelism`] knob, plus deterministic chunk-ordered map helpers used
//!   by the motion-estimation and rasterization hot paths.
//!
//! # Example
//!
//! ```
//! use ags_math::{Vec3, Se3};
//!
//! let pose = Se3::from_translation(Vec3::new(1.0, 0.0, 0.0));
//! let p = pose.transform_point(Vec3::ZERO);
//! assert_eq!(p, Vec3::new(1.0, 0.0, 0.0));
//! ```

#![warn(missing_docs)]

pub mod mat;
pub mod parallel;
pub mod quat;
pub mod rng;
pub mod se3;
pub mod solve;
pub mod stats;
pub mod svd3;
pub mod vec;

pub use mat::{Mat2, Mat3, Mat4};
pub use parallel::{Parallelism, WorkerPool};
pub use quat::Quat;
pub use rng::Pcg32;
pub use se3::Se3;
pub use vec::{Vec2, Vec3, Vec4};

/// Linear interpolation `a + t * (b - a)`.
#[inline]
pub fn lerp(a: f32, b: f32, t: f32) -> f32 {
    a + t * (b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lerp_endpoints() {
        assert_eq!(lerp(2.0, 4.0, 0.0), 2.0);
        assert_eq!(lerp(2.0, 4.0, 1.0), 4.0);
        assert_eq!(lerp(2.0, 4.0, 0.5), 3.0);
    }
}
