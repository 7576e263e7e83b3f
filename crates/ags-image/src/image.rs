//! Generic row-major image grids.

use ags_math::{Vec2, Vec3};

/// A row-major 2D grid of pixels.
#[derive(Debug, Clone, PartialEq)]
pub struct Image<T> {
    width: usize,
    height: usize,
    data: Vec<T>,
}

/// RGB image with linear components in `[0, 1]`.
pub type RgbImage = Image<Vec3>;
/// Single-channel luminance image.
pub type GrayImage = Image<f32>;
/// Metric depth image in meters; `0.0` marks invalid depth.
pub type DepthImage = Image<f32>;

impl<T: Copy + Default> Image<T> {
    /// Creates an image filled with `T::default()`.
    pub fn new(width: usize, height: usize) -> Self {
        Self::filled(width, height, T::default())
    }
}

impl<T: Copy> Image<T> {
    /// Creates an image filled with `value`.
    pub fn filled(width: usize, height: usize, value: T) -> Self {
        Self { width, height, data: vec![value; width * height] }
    }

    /// Creates an image from existing row-major data.
    ///
    /// # Panics
    ///
    /// Panics when `data.len() != width * height`.
    pub fn from_vec(width: usize, height: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), width * height, "image data length mismatch");
        Self { width, height, data }
    }

    /// Image width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total number of pixels.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the image has zero pixels.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Pixel accessor.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds (debug-friendly; use [`Image::get`] for the
    /// checked variant).
    #[inline]
    pub fn at(&self, x: usize, y: usize) -> T {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x]
    }

    /// Checked pixel accessor.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> Option<T> {
        if x < self.width && y < self.height {
            Some(self.data[y * self.width + x])
        } else {
            None
        }
    }

    /// Sets a pixel.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: T) {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x] = v;
    }

    /// Pixel accessor with coordinates clamped to the border.
    #[inline]
    pub fn at_clamped(&self, x: isize, y: isize) -> T {
        let cx = x.clamp(0, self.width as isize - 1) as usize;
        let cy = y.clamp(0, self.height as isize - 1) as usize;
        self.at(cx, cy)
    }

    /// Raw row-major pixel slice.
    #[inline]
    pub fn pixels(&self) -> &[T] {
        &self.data
    }

    /// Mutable raw pixel slice.
    #[inline]
    pub fn pixels_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Applies `f` to every pixel, producing a new image.
    pub fn map<U: Copy>(&self, mut f: impl FnMut(T) -> U) -> Image<U> {
        Image {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }
}

impl GrayImage {
    /// Bilinearly samples at floating-point coordinates (pixel centers at
    /// integer coordinates); returns `None` outside the valid interpolation
    /// domain.
    pub fn sample_bilinear(&self, p: Vec2) -> Option<f32> {
        bilinear(self.width, self.height, p, |x, y| self.at(x, y), |a, b, t| a + (b - a) * t)
    }

    /// Central-difference gradient `(d/dx, d/dy)` at integer coordinates.
    pub fn gradient_at(&self, x: usize, y: usize) -> Vec2 {
        let xi = x as isize;
        let yi = y as isize;
        let gx = 0.5 * (self.at_clamped(xi + 1, yi) - self.at_clamped(xi - 1, yi));
        let gy = 0.5 * (self.at_clamped(xi, yi + 1) - self.at_clamped(xi, yi - 1));
        Vec2::new(gx, gy)
    }

    /// Mean of all pixels; `0.0` when empty.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().map(|&v| v as f64).sum::<f64>() as f32 / self.data.len() as f32
    }
}

impl RgbImage {
    /// Converts to luminance using Rec. 601 weights.
    pub fn to_gray(&self) -> GrayImage {
        self.map(|c| 0.299 * c.x + 0.587 * c.y + 0.114 * c.z)
    }

    /// Bilinearly samples RGB at floating-point coordinates.
    pub fn sample_bilinear(&self, p: Vec2) -> Option<Vec3> {
        bilinear(self.width, self.height, p, |x, y| self.at(x, y), |a, b, t| a + (b - a) * t)
    }
}

impl DepthImage {
    /// Fraction of pixels with valid (positive) depth.
    pub fn valid_fraction(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().filter(|&&d| d > 0.0).count() as f32 / self.data.len() as f32
    }
}

fn bilinear<T: Copy>(
    width: usize,
    height: usize,
    p: Vec2,
    at: impl Fn(usize, usize) -> T,
    lerp: impl Fn(T, T, f32) -> T,
) -> Option<T> {
    if !(p.x.is_finite() && p.y.is_finite()) {
        return None;
    }
    let x0f = p.x.floor();
    let y0f = p.y.floor();
    if x0f < 0.0 || y0f < 0.0 {
        return None;
    }
    let x0 = x0f as usize;
    let y0 = y0f as usize;
    if x0 + 1 >= width || y0 + 1 >= height {
        return None;
    }
    let tx = p.x - x0f;
    let ty = p.y - y0f;
    let top = lerp(at(x0, y0), at(x0 + 1, y0), tx);
    let bottom = lerp(at(x0, y0 + 1), at(x0 + 1, y0 + 1), tx);
    Some(lerp(top, bottom, ty))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut img: GrayImage = Image::new(4, 3);
        assert_eq!(img.width(), 4);
        assert_eq!(img.height(), 3);
        assert_eq!(img.len(), 12);
        img.set(2, 1, 7.0);
        assert_eq!(img.at(2, 1), 7.0);
        assert_eq!(img.get(4, 0), None);
        assert_eq!(img.get(2, 1), Some(7.0));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn from_vec_rejects_bad_length() {
        let _ = GrayImage::from_vec(2, 2, vec![0.0; 3]);
    }

    #[test]
    fn clamped_access_at_borders() {
        let mut img: GrayImage = Image::new(2, 2);
        img.set(0, 0, 1.0);
        img.set(1, 1, 4.0);
        assert_eq!(img.at_clamped(-5, -5), 1.0);
        assert_eq!(img.at_clamped(10, 10), 4.0);
    }

    #[test]
    fn bilinear_interpolates_center() {
        let img = GrayImage::from_vec(2, 2, vec![0.0, 1.0, 2.0, 3.0]);
        let v = img.sample_bilinear(Vec2::new(0.5, 0.5)).unwrap();
        assert!((v - 1.5).abs() < 1e-6);
        // Exact grid point.
        assert_eq!(img.sample_bilinear(Vec2::new(0.0, 0.0)).unwrap(), 0.0);
        // Outside.
        assert_eq!(img.sample_bilinear(Vec2::new(-0.1, 0.0)), None);
        assert_eq!(img.sample_bilinear(Vec2::new(1.5, 0.5)), None);
        assert_eq!(img.sample_bilinear(Vec2::new(f32::NAN, 0.5)), None);
    }

    #[test]
    fn gradient_of_ramp() {
        // f(x, y) = 2x -> df/dx = 2, df/dy = 0 in the interior.
        let img = GrayImage::from_vec(4, 3, (0..12).map(|i| 2.0 * (i % 4) as f32).collect());
        let g = img.gradient_at(1, 1);
        assert!((g.x - 2.0).abs() < 1e-6);
        assert!(g.y.abs() < 1e-6);
    }

    #[test]
    fn rgb_to_gray_weights() {
        let img = RgbImage::filled(1, 1, Vec3::new(1.0, 0.0, 0.0));
        assert!((img.to_gray().at(0, 0) - 0.299).abs() < 1e-6);
        let img = RgbImage::filled(1, 1, Vec3::ONE);
        assert!((img.to_gray().at(0, 0) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn depth_valid_fraction() {
        let img = DepthImage::from_vec(2, 2, vec![0.0, 1.0, 2.0, 0.0]);
        assert_eq!(img.valid_fraction(), 0.5);
    }

    #[test]
    fn map_preserves_dimensions() {
        let img = GrayImage::filled(3, 2, 2.0);
        let doubled = img.map(|v| v * 2.0);
        assert_eq!(doubled.width(), 3);
        assert_eq!(doubled.height(), 2);
        assert!(doubled.pixels().iter().all(|&v| v == 4.0));
    }
}
