//! Summary statistics used by the experiment harness.

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().map(|&x| x as f64).sum::<f64>() as f32 / xs.len() as f32
}

/// Geometric mean of strictly positive values; `0.0` when the slice is empty
/// or contains non-positive entries.
///
/// The paper reports "GeoMean" columns for speedups and accuracy across
/// scenes; this is the implementation those columns use.
pub fn geomean(xs: &[f32]) -> f32 {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0) {
        return 0.0;
    }
    let log_sum: f64 = xs.iter().map(|&x| (x as f64).ln()).sum();
    (log_sum / xs.len() as f64).exp() as f32
}

/// `p`-th percentile (0..=100) by linear interpolation; `0.0` when empty.
pub fn percentile(xs: &[f32], p: f32) -> f32 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f32> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f32;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        crate::lerp(sorted[lo], sorted[hi], rank - lo as f32)
    }
}

/// Median (50th percentile).
pub fn median(xs: &[f32]) -> f32 {
    percentile(xs, 50.0)
}

/// Minimum; `f32::INFINITY` when empty.
pub fn min(xs: &[f32]) -> f32 {
    xs.iter().copied().fold(f32::INFINITY, f32::min)
}

/// Maximum; `f32::NEG_INFINITY` when empty.
pub fn max(xs: &[f32]) -> f32 {
    xs.iter().copied().fold(f32::NEG_INFINITY, f32::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_values_and_of_nothing() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn geomean_matches_hand_computation() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-5);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-5);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
        assert_eq!(geomean(&[1.0, -1.0]), 0.0);
    }

    #[test]
    fn geomean_below_arithmetic_mean() {
        let xs = [1.0, 10.0, 100.0];
        assert!(geomean(&xs) < mean(&xs));
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(percentile(&xs, 50.0), 2.5);
    }

    #[test]
    fn min_max() {
        let xs = [3.0, -1.0, 2.0];
        assert_eq!(min(&xs), -1.0);
        assert_eq!(max(&xs), 3.0);
    }
}
