//! Order statistics used by every timing metric.
//!
//! The pipeline is bit-deterministic, so frame `i` does identical work in
//! every pass of a run; the per-frame **median across passes** removes a
//! one-off stall from a frame without touching its neighbours, and every
//! reported timing is computed from those medians.

/// Median of `values` (mean of the two middle values for an even count).
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) by the *lower* rule: the sorted value at
/// index `⌊p·(n−1)⌋`. For the p90 of 99 or 100 frames this leaves exactly
/// ten samples beyond the reported one, which is the smallest tail the
/// metric guide accepts. `0.0` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = (p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).floor() as usize;
    sorted[idx]
}

/// Samples strictly beyond the value [`percentile`] reports.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - (p.clamp(0.0, 1.0) * (n - 1) as f64).floor() as usize
}

/// Element-wise median across passes: `out[i] = median(passes[k][i])`.
/// Passes of differing length are a caller bug (the op sequence of a
/// workload is deterministic); the result is cut to the shortest pass.
pub fn median_of_passes(passes: &[Vec<f64>]) -> Vec<f64> {
    let len = passes.iter().map(Vec::len).min().unwrap_or(0);
    let mut column = Vec::with_capacity(passes.len());
    (0..len)
        .map(|i| {
            column.clear();
            column.extend(passes.iter().map(|p| p[i]));
            median(&column)
        })
        .collect()
}

/// Quartiles `(q1, q2, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes them —
/// the rule the acceptance check applies to ten runs of a metric. Needs at
/// least two values; fewer return the single value three times.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    match n {
        0 => return (0.0, 0.0, 0.0),
        1 => return (data[0], data[0], data[0]),
        _ => {}
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median — the spread the acceptance
/// check compares against a metric's bound.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Coefficient of variation (sample standard deviation ÷ mean).
pub fn cv(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0);
    var.sqrt() / mean.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p90_leaves_ten_samples_beyond_for_99_and_100_frames() {
        for n in [99usize, 100] {
            let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let p90 = percentile(&values, 0.9);
            let beyond = values.iter().filter(|&&v| v > p90).count();
            assert_eq!(beyond, 10, "n = {n}");
            assert_eq!(samples_beyond(n, 0.9), 10, "n = {n}");
        }
        assert_eq!(percentile(&[5.0], 0.9), 5.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.0), 1.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 1.0), 3.0);
    }

    #[test]
    fn median_of_passes_drops_a_one_off_stall() {
        // Frame 1 stalls in pass 0 only; frame 2 stalls in pass 2 only.
        let passes = vec![vec![10.0, 90.0, 12.0], vec![10.5, 11.0, 12.5], vec![9.5, 11.5, 80.0]];
        assert_eq!(median_of_passes(&passes), vec![10.0, 11.5, 12.5]);
        // Two passes: the mean of the pair.
        assert_eq!(median_of_passes(&passes[..2]), vec![10.25, 50.5, 12.25]);
        // Ragged input is cut to the shortest pass.
        assert_eq!(median_of_passes(&[vec![1.0, 2.0], vec![3.0]]), vec![2.0]);
        assert!(median_of_passes(&[]).is_empty());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 5.5, 8.25));
        // statistics.quantiles([2, 4, 4, 5, 7, 9, 11], n=4) == [4.0, 5.0, 9.0]
        assert_eq!(quartiles(&[9.0, 2.0, 4.0, 11.0, 4.0, 5.0, 7.0]), (4.0, 5.0, 9.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 2.0, 3.5));
        assert!((iqr_share(&values) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cv_of_constant_and_spread_samples() {
        assert_eq!(cv(&[2.0, 2.0, 2.0]), 0.0);
        let c = cv(&[9.0, 10.0, 11.0]);
        assert!((c - 0.1).abs() < 1e-12, "{c}");
    }
}
