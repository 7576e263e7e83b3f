//! Unit quaternions for 3D rotations.

use crate::mat::Mat3;
use crate::vec::Vec3;
use std::ops::Mul;

/// A quaternion `w + xi + yj + zk`, kept (approximately) unit-length when used
/// as a rotation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quat {
    /// Scalar part.
    pub w: f32,
    /// Vector part x.
    pub x: f32,
    /// Vector part y.
    pub y: f32,
    /// Vector part z.
    pub z: f32,
}

impl Default for Quat {
    fn default() -> Self {
        Self::IDENTITY
    }
}

impl Quat {
    /// Identity rotation.
    pub const IDENTITY: Self = Self { w: 1.0, x: 0.0, y: 0.0, z: 0.0 };

    /// Creates a quaternion from components `(w, x, y, z)`.
    #[inline]
    pub const fn new(w: f32, x: f32, y: f32, z: f32) -> Self {
        Self { w, x, y, z }
    }

    /// Rotation of `angle` radians about (unit) `axis`.
    pub fn from_axis_angle(axis: Vec3, angle: f32) -> Self {
        let axis = axis.normalized();
        let half = angle * 0.5;
        let s = half.sin();
        Self::new(half.cos(), axis.x * s, axis.y * s, axis.z * s)
    }

    /// Exponential map: converts a rotation vector (axis * angle) into a
    /// quaternion. Safe for small angles.
    pub fn from_rotation_vector(v: Vec3) -> Self {
        let angle = v.norm();
        if angle < 1e-8 {
            // First-order expansion keeps gradients usable near zero.
            Self::new(1.0, v.x * 0.5, v.y * 0.5, v.z * 0.5).normalized()
        } else {
            Self::from_axis_angle(v / angle, angle)
        }
    }

    /// Logarithmic map: rotation vector (axis * angle) of this quaternion.
    pub fn to_rotation_vector(self) -> Vec3 {
        let q = if self.w < 0.0 { self.conjugate_neg() } else { self };
        let v = Vec3::new(q.x, q.y, q.z);
        let s = v.norm();
        if s < 1e-8 {
            v * 2.0
        } else {
            let angle = 2.0 * s.atan2(q.w);
            v * (angle / s)
        }
    }

    /// Negates all components (same rotation, opposite hemisphere).
    #[inline]
    fn conjugate_neg(self) -> Self {
        Self::new(-self.w, -self.x, -self.y, -self.z)
    }

    /// Quaternion conjugate (inverse rotation for unit quaternions).
    #[inline]
    pub fn conjugate(self) -> Self {
        Self::new(self.w, -self.x, -self.y, -self.z)
    }

    /// Norm of the quaternion.
    #[inline]
    pub fn norm(self) -> f32 {
        (self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }

    /// Returns a unit-length copy; identity if the norm is ~0.
    #[inline]
    pub fn normalized(self) -> Self {
        let n = self.norm();
        if n < 1e-20 {
            Self::IDENTITY
        } else {
            Self::new(self.w / n, self.x / n, self.y / n, self.z / n)
        }
    }

    /// Rotates a vector.
    #[inline]
    pub fn rotate(self, v: Vec3) -> Vec3 {
        // v' = v + 2 u × (u × v + w v), u = (x, y, z)
        let u = Vec3::new(self.x, self.y, self.z);
        let t = u.cross(v) * 2.0;
        v + t * self.w + u.cross(t)
    }

    /// Converts to a rotation matrix.
    pub fn to_matrix(self) -> Mat3 {
        let Self { w, x, y, z } = self.normalized();
        Mat3::from_rows(
            1.0 - 2.0 * (y * y + z * z),
            2.0 * (x * y - w * z),
            2.0 * (x * z + w * y),
            2.0 * (x * y + w * z),
            1.0 - 2.0 * (x * x + z * z),
            2.0 * (y * z - w * x),
            2.0 * (x * z - w * y),
            2.0 * (y * z + w * x),
            1.0 - 2.0 * (x * x + y * y),
        )
    }

    /// Builds from a rotation matrix (Shepperd's method).
    pub fn from_matrix(m: &Mat3) -> Self {
        let trace = m.at(0, 0) + m.at(1, 1) + m.at(2, 2);
        let q = if trace > 0.0 {
            let s = (trace + 1.0).sqrt() * 2.0;
            Self::new(
                0.25 * s,
                (m.at(2, 1) - m.at(1, 2)) / s,
                (m.at(0, 2) - m.at(2, 0)) / s,
                (m.at(1, 0) - m.at(0, 1)) / s,
            )
        } else if m.at(0, 0) > m.at(1, 1) && m.at(0, 0) > m.at(2, 2) {
            let s = (1.0 + m.at(0, 0) - m.at(1, 1) - m.at(2, 2)).sqrt() * 2.0;
            Self::new(
                (m.at(2, 1) - m.at(1, 2)) / s,
                0.25 * s,
                (m.at(0, 1) + m.at(1, 0)) / s,
                (m.at(0, 2) + m.at(2, 0)) / s,
            )
        } else if m.at(1, 1) > m.at(2, 2) {
            let s = (1.0 + m.at(1, 1) - m.at(0, 0) - m.at(2, 2)).sqrt() * 2.0;
            Self::new(
                (m.at(0, 2) - m.at(2, 0)) / s,
                (m.at(0, 1) + m.at(1, 0)) / s,
                0.25 * s,
                (m.at(1, 2) + m.at(2, 1)) / s,
            )
        } else {
            let s = (1.0 + m.at(2, 2) - m.at(0, 0) - m.at(1, 1)).sqrt() * 2.0;
            Self::new(
                (m.at(1, 0) - m.at(0, 1)) / s,
                (m.at(0, 2) + m.at(2, 0)) / s,
                (m.at(1, 2) + m.at(2, 1)) / s,
                0.25 * s,
            )
        };
        q.normalized()
    }

    /// Angular distance in radians between two rotations.
    pub fn angle_to(self, other: Self) -> f32 {
        (self.conjugate() * other).to_rotation_vector().norm()
    }
}

impl Mul for Quat {
    type Output = Self;
    #[inline]
    fn mul(self, r: Self) -> Self {
        Self::new(
            self.w * r.w - self.x * r.x - self.y * r.y - self.z * r.z,
            self.w * r.x + self.x * r.w + self.y * r.z - self.z * r.y,
            self.w * r.y - self.x * r.z + self.y * r.w + self.z * r.x,
            self.w * r.z + self.x * r.y - self.y * r.x + self.z * r.w,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f32::consts::{FRAC_PI_2, PI};

    fn close(a: Vec3, b: Vec3) -> bool {
        (a - b).norm() < 1e-4
    }

    #[test]
    fn rotate_quarter_turn() {
        let q = Quat::from_axis_angle(Vec3::Z, FRAC_PI_2);
        assert!(close(q.rotate(Vec3::X), Vec3::Y));
        assert!(close(q.rotate(Vec3::Y), -1.0 * Vec3::X));
    }

    #[test]
    fn matrix_roundtrip() {
        let q = Quat::from_axis_angle(Vec3::new(1.0, 2.0, -0.5), 1.1);
        let q2 = Quat::from_matrix(&q.to_matrix());
        // Same rotation regardless of hemisphere.
        assert!(q.angle_to(q2) < 1e-4);
    }

    #[test]
    fn matrix_roundtrip_large_angle() {
        // Exercise all Shepperd branches with rotations near pi.
        for axis in [Vec3::X, Vec3::Y, Vec3::Z, Vec3::new(1.0, 1.0, 1.0)] {
            let q = Quat::from_axis_angle(axis, PI - 0.01);
            let q2 = Quat::from_matrix(&q.to_matrix());
            assert!(q.angle_to(q2) < 1e-3, "axis {axis:?}");
        }
    }

    #[test]
    fn exp_log_roundtrip() {
        let v = Vec3::new(0.2, -0.4, 0.7);
        let q = Quat::from_rotation_vector(v);
        assert!(close(q.to_rotation_vector(), v));
        // Small-angle branch.
        let v = Vec3::new(1e-10, 0.0, 0.0);
        let q = Quat::from_rotation_vector(v);
        assert!(q.to_rotation_vector().norm() < 1e-8);
    }

    #[test]
    fn composition_matches_matrix_product() {
        let a = Quat::from_axis_angle(Vec3::X, 0.3);
        let b = Quat::from_axis_angle(Vec3::Y, 0.8);
        let v = Vec3::new(0.1, 0.5, -0.9);
        let via_quat = (a * b).rotate(v);
        let via_mat = (a.to_matrix() * b.to_matrix()).mul_vec(v);
        assert!(close(via_quat, via_mat));
    }

    #[test]
    fn conjugate_is_inverse() {
        let q = Quat::from_axis_angle(Vec3::new(0.3, 1.0, -2.0), 0.7);
        let id = q * q.conjugate();
        assert!(id.angle_to(Quat::IDENTITY) < 1e-5);
    }
}
