//! Rigid-body transforms in SE(3).

use crate::mat::{Mat3, Mat4};
use crate::quat::Quat;
use crate::vec::Vec3;
use std::ops::Mul;

/// A rigid-body pose: rotation followed by translation (`p' = R p + t`).
///
/// Poses are stored as a unit quaternion plus translation. In this workspace a
/// camera pose maps **camera-frame points to world-frame points**
/// (camera-to-world); `inverse()` gives the world-to-camera transform the
/// rasterizer consumes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Se3 {
    /// Rotation component.
    pub rotation: Quat,
    /// Translation component.
    pub translation: Vec3,
}

impl Se3 {
    /// The identity transform.
    pub const IDENTITY: Self = Self {
        rotation: Quat { w: 1.0, x: 0.0, y: 0.0, z: 0.0 },
        translation: Vec3 { x: 0.0, y: 0.0, z: 0.0 },
    };

    /// Creates a pose from rotation and translation.
    #[inline]
    pub const fn new(rotation: Quat, translation: Vec3) -> Self {
        Self { rotation, translation }
    }

    /// Pure translation.
    #[inline]
    pub const fn from_translation(t: Vec3) -> Self {
        Self { rotation: Quat { w: 1.0, x: 0.0, y: 0.0, z: 0.0 }, translation: t }
    }

    /// Pure rotation.
    #[inline]
    pub const fn from_rotation(r: Quat) -> Self {
        Self { rotation: r, translation: Vec3 { x: 0.0, y: 0.0, z: 0.0 } }
    }

    /// Transforms a point.
    #[inline]
    pub fn transform_point(&self, p: Vec3) -> Vec3 {
        self.rotation.rotate(p) + self.translation
    }

    /// Rotates a direction (ignores translation).
    #[inline]
    pub fn transform_dir(&self, d: Vec3) -> Vec3 {
        self.rotation.rotate(d)
    }

    /// Inverse transform.
    #[inline]
    pub fn inverse(&self) -> Self {
        let r_inv = self.rotation.conjugate();
        Self::new(r_inv, -1.0 * r_inv.rotate(self.translation))
    }

    /// Homogeneous 4×4 matrix.
    #[inline]
    pub fn to_matrix(&self) -> Mat4 {
        Mat4::from_rotation_translation(self.rotation.to_matrix(), self.translation)
    }

    /// Exponential map from a twist `[v, w]` (translation part first).
    ///
    /// Uses the first-order approximation `t = v` for the translation coupling,
    /// which is standard practice for the small per-iteration updates produced
    /// by Gauss-Newton trackers.
    pub fn exp(twist: &[f32; 6]) -> Self {
        let v = Vec3::new(twist[0], twist[1], twist[2]);
        let w = Vec3::new(twist[3], twist[4], twist[5]);
        Self::new(Quat::from_rotation_vector(w), v)
    }

    /// Logarithm map producing a twist `[v, w]` (inverse of [`Se3::exp`] under
    /// the same first-order convention).
    pub fn log(&self) -> [f32; 6] {
        let w = self.rotation.to_rotation_vector();
        let v = self.translation;
        [v.x, v.y, v.z, w.x, w.y, w.z]
    }

    /// Translational distance to another pose.
    #[inline]
    pub fn translation_distance(&self, other: &Se3) -> f32 {
        (self.translation - other.translation).norm()
    }

    /// Rotational distance to another pose in radians.
    #[inline]
    pub fn rotation_angle_to(&self, other: &Se3) -> f32 {
        self.rotation.angle_to(other.rotation)
    }

    /// Renormalises the rotation quaternion (call after many composed
    /// floating-point updates).
    #[inline]
    pub fn renormalized(&self) -> Self {
        Self::new(self.rotation.normalized(), self.translation)
    }

    /// Relative transform taking this pose's frame into `other`'s frame:
    /// `other = result * self`.
    #[inline]
    pub fn relative_to(&self, other: &Se3) -> Se3 {
        *other * self.inverse()
    }

    /// Rotation as a 3×3 matrix.
    #[inline]
    pub fn rotation_matrix(&self) -> Mat3 {
        self.rotation.to_matrix()
    }
}

impl Mul for Se3 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self::new(
            (self.rotation * rhs.rotation).normalized(),
            self.rotation.rotate(rhs.translation) + self.translation,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f32::consts::FRAC_PI_2;

    fn close(a: Vec3, b: Vec3) -> bool {
        (a - b).norm() < 1e-4
    }

    #[test]
    fn inverse_composition_is_identity() {
        let p = Se3::new(
            Quat::from_axis_angle(Vec3::new(1.0, 0.2, -0.4), 0.9),
            Vec3::new(1.0, -2.0, 3.0),
        );
        let id = p * p.inverse();
        assert!(id.translation.norm() < 1e-4);
        assert!(id.rotation.angle_to(Quat::IDENTITY) < 1e-4);
    }

    #[test]
    fn transform_point_rotation_then_translation() {
        let p = Se3::new(Quat::from_axis_angle(Vec3::Z, FRAC_PI_2), Vec3::new(1.0, 0.0, 0.0));
        // X rotates to Y, then translate by (1, 0, 0).
        assert!(close(p.transform_point(Vec3::X), Vec3::new(1.0, 1.0, 0.0)));
    }

    #[test]
    fn exp_log_roundtrip() {
        let twist = [0.1, -0.2, 0.3, 0.05, 0.02, -0.08];
        let p = Se3::exp(&twist);
        let back = p.log();
        for i in 0..6 {
            assert!((back[i] - twist[i]).abs() < 1e-5, "component {i}");
        }
    }

    #[test]
    fn relative_to_recovers_other() {
        let a = Se3::new(Quat::from_axis_angle(Vec3::X, 0.2), Vec3::new(1.0, 2.0, 3.0));
        let b = Se3::new(Quat::from_axis_angle(Vec3::Z, -0.5), Vec3::new(-1.0, 0.5, 2.0));
        let rel = a.relative_to(&b);
        let recovered = rel * a;
        assert!(recovered.translation_distance(&b) < 1e-4);
        assert!(recovered.rotation_angle_to(&b) < 1e-4);
    }

    #[test]
    fn direction_ignores_translation() {
        let p = Se3::from_translation(Vec3::new(5.0, 5.0, 5.0));
        assert!(close(p.transform_dir(Vec3::X), Vec3::X));
    }
}
