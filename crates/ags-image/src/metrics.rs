//! Image quality metrics: PSNR, SSIM, L1 and depth error.
//!
//! PSNR is the headline mapping-quality metric of the paper (Fig. 14,
//! Table 4, Figs. 19–21); SSIM and L1 are provided for the extended audits.

use crate::image::{DepthImage, GrayImage, RgbImage};

/// Mean squared error between two RGB images, averaged over channels.
///
/// # Panics
///
/// Panics when dimensions differ.
pub fn mse(a: &RgbImage, b: &RgbImage) -> f32 {
    assert_dims(a, b);
    if a.is_empty() {
        return 0.0;
    }
    let mut acc = 0.0f64;
    for (pa, pb) in a.pixels().iter().zip(b.pixels()) {
        let d = *pa - *pb;
        acc += (d.x * d.x + d.y * d.y + d.z * d.z) as f64;
    }
    (acc / (3.0 * a.len() as f64)) as f32
}

/// Peak signal-to-noise ratio in dB for images with peak value 1.0.
///
/// Identical images return 99 dB (capped) rather than infinity so the value
/// stays usable in tables and geomeans.
///
/// # Panics
///
/// Panics when dimensions differ.
pub fn psnr(a: &RgbImage, b: &RgbImage) -> f32 {
    let m = mse(a, b);
    if m <= 1e-12 {
        return 99.0;
    }
    (10.0 * (1.0 / m as f64).log10() as f32).min(99.0)
}

/// Structural similarity index (global statistics variant) on luminance.
///
/// This implements the standard SSIM formula with `C1 = (0.01)²`,
/// `C2 = (0.03)²` computed over the whole image rather than a sliding
/// window — sufficient for tracking relative quality across experiment
/// configurations on the small frames this workspace uses.
///
/// # Panics
///
/// Panics when dimensions differ.
pub fn ssim(a: &RgbImage, b: &RgbImage) -> f32 {
    assert_dims(a, b);
    let ga = a.to_gray();
    let gb = b.to_gray();
    ssim_gray(&ga, &gb)
}

/// SSIM on luminance images; see [`ssim`].
///
/// # Panics
///
/// Panics when dimensions differ.
pub fn ssim_gray(a: &GrayImage, b: &GrayImage) -> f32 {
    assert_eq!(a.width(), b.width(), "image width mismatch");
    assert_eq!(a.height(), b.height(), "image height mismatch");
    if a.is_empty() {
        return 1.0;
    }
    let n = a.len() as f64;
    let mu_a = a.pixels().iter().map(|&v| v as f64).sum::<f64>() / n;
    let mu_b = b.pixels().iter().map(|&v| v as f64).sum::<f64>() / n;
    let mut var_a = 0.0;
    let mut var_b = 0.0;
    let mut cov = 0.0;
    for (&pa, &pb) in a.pixels().iter().zip(b.pixels()) {
        let da = pa as f64 - mu_a;
        let db = pb as f64 - mu_b;
        var_a += da * da;
        var_b += db * db;
        cov += da * db;
    }
    var_a /= n;
    var_b /= n;
    cov /= n;
    const C1: f64 = 0.01 * 0.01;
    const C2: f64 = 0.03 * 0.03;
    let num = (2.0 * mu_a * mu_b + C1) * (2.0 * cov + C2);
    let den = (mu_a * mu_a + mu_b * mu_b + C1) * (var_a + var_b + C2);
    (num / den) as f32
}

/// Mean absolute depth error over pixels where both depths are valid (> 0).
///
/// Returns `0.0` when no pixel is jointly valid.
///
/// # Panics
///
/// Panics when dimensions differ.
pub fn depth_l1(a: &DepthImage, b: &DepthImage) -> f32 {
    assert_eq!(a.width(), b.width(), "image width mismatch");
    assert_eq!(a.height(), b.height(), "image height mismatch");
    let mut acc = 0.0f64;
    let mut count = 0usize;
    for (&da, &db) in a.pixels().iter().zip(b.pixels()) {
        if da > 0.0 && db > 0.0 {
            acc += (da - db).abs() as f64;
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        (acc / count as f64) as f32
    }
}

fn assert_dims(a: &RgbImage, b: &RgbImage) {
    assert_eq!(a.width(), b.width(), "image width mismatch");
    assert_eq!(a.height(), b.height(), "image height mismatch");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::Image;
    use ags_math::Vec3;

    #[test]
    fn psnr_identical_is_capped() {
        let a = RgbImage::filled(4, 4, Vec3::splat(0.3));
        assert_eq!(psnr(&a, &a), 99.0);
    }

    #[test]
    fn psnr_known_value() {
        // Constant difference 0.1 in every channel: MSE = 0.01, PSNR = 20 dB.
        let a = RgbImage::filled(4, 4, Vec3::splat(0.5));
        let b = RgbImage::filled(4, 4, Vec3::splat(0.6));
        assert!((psnr(&a, &b) - 20.0).abs() < 1e-3);
    }

    #[test]
    fn psnr_monotone_in_error() {
        let a = RgbImage::filled(4, 4, Vec3::splat(0.5));
        let b = RgbImage::filled(4, 4, Vec3::splat(0.55));
        let c = RgbImage::filled(4, 4, Vec3::splat(0.7));
        assert!(psnr(&a, &b) > psnr(&a, &c));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn mismatched_dims_panic() {
        let a = RgbImage::filled(2, 2, Vec3::ZERO);
        let b = RgbImage::filled(3, 2, Vec3::ZERO);
        let _ = mse(&a, &b);
    }

    #[test]
    fn ssim_identical_is_one() {
        let mut a = RgbImage::filled(8, 8, Vec3::splat(0.4));
        // Add structure so variance is non-zero.
        for y in 0..8 {
            for x in 0..8 {
                a.set(x, y, Vec3::splat(((x + y) % 2) as f32 * 0.5 + 0.25));
            }
        }
        assert!((ssim(&a, &a) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn ssim_decreases_with_noise() {
        let mut a = RgbImage::filled(8, 8, Vec3::splat(0.5));
        for y in 0..8 {
            for x in 0..8 {
                a.set(x, y, Vec3::splat((x as f32) / 8.0));
            }
        }
        let b = a.map(|c| c + Vec3::splat(0.2));
        let noisy = a.map(|c| Vec3::new(1.0 - c.x, c.y, c.z));
        assert!(ssim(&a, &b) > ssim(&a, &noisy));
    }

    #[test]
    fn depth_l1_ignores_invalid() {
        let a = DepthImage::from_vec(2, 1, vec![1.0, 0.0]);
        let b = DepthImage::from_vec(2, 1, vec![1.5, 3.0]);
        assert!((depth_l1(&a, &b) - 0.5).abs() < 1e-6);
        let empty_a = DepthImage::from_vec(1, 1, vec![0.0]);
        let empty_b = DepthImage::from_vec(1, 1, vec![0.0]);
        assert_eq!(depth_l1(&empty_a, &empty_b), 0.0);
    }

    #[test]
    fn mse_empty_image() {
        let a: RgbImage = Image::new(0, 0);
        let b: RgbImage = Image::new(0, 0);
        assert_eq!(mse(&a, &b), 0.0);
    }
}
