//! Small fixed-size `f32` vectors.

use std::fmt;
use std::ops::{
    Add, AddAssign, Div, DivAssign, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign,
};

macro_rules! impl_vec_ops {
    ($name:ident, $($field:ident),+) => {
        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self { $($field: self.$field + rhs.$field),+ }
            }
        }
        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self { $($field: self.$field - rhs.$field),+ }
            }
        }
        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self { $($field: -self.$field),+ }
            }
        }
        impl Mul<f32> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f32) -> Self {
                Self { $($field: self.$field * rhs),+ }
            }
        }
        impl Mul<$name> for f32 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name { $($field: self * rhs.$field),+ }
            }
        }
        impl Div<f32> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f32) -> Self {
                Self { $($field: self.$field / rhs),+ }
            }
        }
        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                $(self.$field += rhs.$field;)+
            }
        }
        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                $(self.$field -= rhs.$field;)+
            }
        }
        impl MulAssign<f32> for $name {
            #[inline]
            fn mul_assign(&mut self, rhs: f32) {
                $(self.$field *= rhs;)+
            }
        }
        impl DivAssign<f32> for $name {
            #[inline]
            fn div_assign(&mut self, rhs: f32) {
                $(self.$field /= rhs;)+
            }
        }

        impl $name {
            /// Component-wise product.
            #[inline]
            pub fn mul_elem(self, rhs: Self) -> Self {
                Self { $($field: self.$field * rhs.$field),+ }
            }
            /// Dot product.
            #[inline]
            pub fn dot(self, rhs: Self) -> f32 {
                let mut acc = 0.0;
                $(acc += self.$field * rhs.$field;)+
                acc
            }
            /// Squared Euclidean norm.
            #[inline]
            pub fn norm_sq(self) -> f32 {
                self.dot(self)
            }
            /// Euclidean norm.
            #[inline]
            pub fn norm(self) -> f32 {
                self.norm_sq().sqrt()
            }
            /// Returns the vector scaled to unit length, or zero if the norm
            /// is (nearly) zero.
            #[inline]
            pub fn normalized(self) -> Self {
                let n = self.norm();
                if n <= 1e-20 { Self::ZERO } else { self / n }
            }
            /// Component-wise minimum.
            #[inline]
            pub fn min_elem(self, rhs: Self) -> Self {
                Self { $($field: self.$field.min(rhs.$field)),+ }
            }
            /// Component-wise maximum.
            #[inline]
            pub fn max_elem(self, rhs: Self) -> Self {
                Self { $($field: self.$field.max(rhs.$field)),+ }
            }
            /// Component-wise absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self { $($field: self.$field.abs()),+ }
            }
            /// Largest component.
            #[inline]
            pub fn max_component(self) -> f32 {
                let mut m = f32::NEG_INFINITY;
                $(m = m.max(self.$field);)+
                m
            }
            /// True when every component is finite.
            #[inline]
            pub fn is_finite(self) -> bool {
                true $(&& self.$field.is_finite())+
            }
        }
    };
}

/// A 2-component `f32` vector.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
}

/// A 3-component `f32` vector.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
    /// Z component.
    pub z: f32,
}

/// A 4-component `f32` vector.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec4 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
    /// Z component.
    pub z: f32,
    /// W component.
    pub w: f32,
}

impl_vec_ops!(Vec2, x, y);
impl_vec_ops!(Vec3, x, y, z);
impl_vec_ops!(Vec4, x, y, z, w);

impl Vec2 {
    /// The zero vector.
    pub const ZERO: Self = Self { x: 0.0, y: 0.0 };
    /// All-ones vector.
    pub const ONE: Self = Self { x: 1.0, y: 1.0 };

    /// Creates a vector from components.
    #[inline]
    pub const fn new(x: f32, y: f32) -> Self {
        Self { x, y }
    }

    /// 2D cross product (z-component of the 3D cross product).
    #[inline]
    pub fn cross(self, rhs: Self) -> f32 {
        self.x * rhs.y - self.y * rhs.x
    }
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Self = Self { x: 0.0, y: 0.0, z: 0.0 };
    /// All-ones vector.
    pub const ONE: Self = Self { x: 1.0, y: 1.0, z: 1.0 };
    /// Unit X.
    pub const X: Self = Self { x: 1.0, y: 0.0, z: 0.0 };
    /// Unit Y.
    pub const Y: Self = Self { x: 0.0, y: 1.0, z: 0.0 };
    /// Unit Z.
    pub const Z: Self = Self { x: 0.0, y: 0.0, z: 1.0 };

    /// Creates a vector from components.
    #[inline]
    pub const fn new(x: f32, y: f32, z: f32) -> Self {
        Self { x, y, z }
    }

    /// Creates a vector with all components equal to `v`.
    #[inline]
    pub const fn splat(v: f32) -> Self {
        Self { x: v, y: v, z: v }
    }

    /// Cross product.
    #[inline]
    pub fn cross(self, rhs: Self) -> Self {
        Self::new(
            self.y * rhs.z - self.z * rhs.y,
            self.z * rhs.x - self.x * rhs.z,
            self.x * rhs.y - self.y * rhs.x,
        )
    }

    /// Projects to 2D by dropping the z component.
    #[inline]
    pub fn xy(self) -> Vec2 {
        Vec2::new(self.x, self.y)
    }

    /// Extends to a [`Vec4`] with the given w.
    #[inline]
    pub fn extend(self, w: f32) -> Vec4 {
        Vec4::new(self.x, self.y, self.z, w)
    }
}

impl Vec4 {
    /// The zero vector.
    pub const ZERO: Self = Self { x: 0.0, y: 0.0, z: 0.0, w: 0.0 };

    /// Creates a vector from components.
    #[inline]
    pub const fn new(x: f32, y: f32, z: f32, w: f32) -> Self {
        Self { x, y, z, w }
    }

    /// Truncates to a [`Vec3`] by dropping the w component.
    #[inline]
    pub fn xyz(self) -> Vec3 {
        Vec3::new(self.x, self.y, self.z)
    }
}

impl Index<usize> for Vec3 {
    type Output = f32;
    #[inline]
    fn index(&self, i: usize) -> &f32 {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index {i} out of range"),
        }
    }
}

impl IndexMut<usize> for Vec3 {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f32 {
        match i {
            0 => &mut self.x,
            1 => &mut self.y,
            2 => &mut self.z,
            _ => panic!("Vec3 index {i} out of range"),
        }
    }
}

impl fmt::Display for Vec3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.4}, {:.4}, {:.4})", self.x, self.y, self.z)
    }
}

impl From<[f32; 3]> for Vec3 {
    #[inline]
    fn from(a: [f32; 3]) -> Self {
        Self::new(a[0], a[1], a[2])
    }
}

impl From<Vec3> for [f32; 3] {
    #[inline]
    fn from(v: Vec3) -> Self {
        [v.x, v.y, v.z]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec3_arithmetic() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!(a + b, Vec3::new(5.0, 7.0, 9.0));
        assert_eq!(b - a, Vec3::new(3.0, 3.0, 3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(a.dot(b), 32.0);
    }

    #[test]
    fn vec3_cross_orthogonal() {
        let c = Vec3::X.cross(Vec3::Y);
        assert_eq!(c, Vec3::Z);
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-2.0, 0.5, 4.0);
        let c = a.cross(b);
        assert!(c.dot(a).abs() < 1e-5);
        assert!(c.dot(b).abs() < 1e-5);
    }

    #[test]
    fn normalized_handles_zero() {
        assert_eq!(Vec3::ZERO.normalized(), Vec3::ZERO);
        let n = Vec3::new(3.0, 4.0, 0.0).normalized();
        assert!((n.norm() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn index_roundtrip() {
        let mut v = Vec3::ZERO;
        for i in 0..3 {
            v[i] = i as f32;
        }
        assert_eq!(v, Vec3::new(0.0, 1.0, 2.0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_out_of_range_panics() {
        let v = Vec3::ZERO;
        let _ = v[3];
    }

    #[test]
    fn min_max_abs() {
        let a = Vec3::new(-1.0, 5.0, 2.0);
        let b = Vec3::new(0.0, 4.0, -3.0);
        assert_eq!(a.min_elem(b), Vec3::new(-1.0, 4.0, -3.0));
        assert_eq!(a.max_elem(b), Vec3::new(0.0, 5.0, 2.0));
        assert_eq!(a.abs(), Vec3::new(1.0, 5.0, 2.0));
        assert_eq!(a.max_component(), 5.0);
    }
}
