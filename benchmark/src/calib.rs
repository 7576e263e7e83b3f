//! Host-speed normalisation.
//!
//! On a small shared VM the same deterministic pass drifts by several
//! percent over minutes (CPU time tracks wall time, so it is the host, not
//! the scheduler). Immediately before every timed operation the driver
//! thread times a fixed, benchmark-owned kernel; each timed span is then
//! scaled by `CAL_REF_MS / cal_local`, where `cal_local` is the median of the
//! five calibration samples nearest in time. A span measured while the host
//! ran 20 % slow is paired with calibration samples that were 20 % slow too,
//! and the two cancel.
//!
//! The kernel is an `exp` + FMA alpha-blend over four `f32` arrays — the
//! same instruction mix as the splat rasterizer's inner loop, but never
//! program code, so a change to the program cannot move the yardstick.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Median wall time of [`Calibrator::sample`] on the reference host, in
/// milliseconds. Scaled timings are "milliseconds on the reference host".
pub const CAL_REF_MS: f64 = 0.30;

/// Elements per array of the calibration kernel.
const CAL_ELEMS: usize = 64 * 1024;

/// Calibration samples either side of a span that vote on its host speed.
const CAL_HALF_WINDOW: usize = 2;

/// The calibration kernel and its working set.
pub struct Calibrator {
    dist: Vec<f32>,
    opacity: Vec<f32>,
    color: Vec<f32>,
    accum: Vec<f32>,
}

impl Calibrator {
    /// Builds the four arrays (deterministic contents; no RNG state).
    pub fn new() -> Self {
        let ramp = |scale: f32, phase: f32| -> Vec<f32> {
            (0..CAL_ELEMS).map(|i| ((i as f32 * scale + phase).sin() * 0.5 + 0.5) * 0.98).collect()
        };
        Self {
            dist: ramp(0.37, 0.0).into_iter().map(|v| v * 3.0).collect(),
            opacity: ramp(0.11, 1.0),
            color: ramp(0.05, 2.0),
            accum: vec![0.5; CAL_ELEMS],
        }
    }

    /// Runs the kernel once and returns its wall time in milliseconds.
    pub fn sample(&mut self) -> f64 {
        let start = Instant::now();
        let dist = black_box(&self.dist);
        let opacity = black_box(&self.opacity);
        let color = black_box(&self.color);
        for (((acc, &d), &o), &c) in self.accum.iter_mut().zip(dist).zip(opacity).zip(color) {
            // alpha = o * exp(-d²); acc = acc * (1 - alpha) + alpha * c.
            // `acc` stays inside the hull of `color`, so the loop never
            // drifts into denormals or infinities however often it runs.
            let alpha = o * (-(d * d)).exp();
            *acc = alpha.mul_add(c - *acc, *acc);
        }
        black_box(&mut self.accum);
        start.elapsed().as_secs_f64() * 1e3
    }
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

/// The run's sequence of calibration samples. [`HostClock::tick`] is called
/// on the driver thread right before each timed operation and returns the
/// sample's index, which the operation's span keeps; scale factors are
/// resolved at the end of the run, when every sample's later neighbours
/// exist.
pub struct HostClock {
    calibrator: Calibrator,
    samples_ms: Vec<f64>,
    /// When each sample was taken, for spans recorded off the driver thread.
    taken_at: Vec<Instant>,
}

impl HostClock {
    /// A clock with a warmed-up kernel (first touches paid).
    pub fn new() -> Self {
        let mut calibrator = Calibrator::new();
        for _ in 0..8 {
            calibrator.sample();
        }
        Self { calibrator, samples_ms: Vec::new(), taken_at: Vec::new() }
    }

    /// Takes one calibration sample; returns its index.
    pub fn tick(&mut self) -> usize {
        self.taken_at.push(Instant::now());
        let ms = self.calibrator.sample();
        self.samples_ms.push(ms);
        self.samples_ms.len() - 1
    }

    /// Index of the last sample taken at or before `at` (the first sample
    /// if `at` precedes them all) — the calibration of a span that some
    /// other thread started at `at`.
    pub fn sample_before(&self, at: Instant) -> usize {
        self.taken_at.partition_point(|&t| t <= at).saturating_sub(1)
    }

    /// All samples so far, in milliseconds.
    pub fn samples_ms(&self) -> &[f64] {
        &self.samples_ms
    }

    /// Per-sample scale factors (see [`scale_factors`]).
    pub fn scales(&self) -> Vec<f64> {
        scale_factors(&self.samples_ms, CAL_REF_MS)
    }

    /// The factor of the stretch of samples taken since sample `from`: what
    /// a span that covered all of them is scaled by.
    pub fn scale_since(&self, from: usize) -> f64 {
        let local = median(self.samples_ms.get(from..).unwrap_or(&[]));
        if local > 0.0 {
            CAL_REF_MS / local
        } else {
            1.0
        }
    }
}

impl Default for HostClock {
    fn default() -> Self {
        Self::new()
    }
}

/// `out[i] = cal_ref / median(samples[i−2 ..= i+2])` (window clipped at the
/// ends). Multiplying a span by the factor of the sample taken just before
/// it converts "time on this host, now" into "time on the reference host".
pub fn scale_factors(samples_ms: &[f64], cal_ref_ms: f64) -> Vec<f64> {
    (0..samples_ms.len())
        .map(|i| {
            let lo = i.saturating_sub(CAL_HALF_WINDOW);
            let hi = (i + CAL_HALF_WINDOW + 1).min(samples_ms.len());
            let local = median(&samples_ms[lo..hi]);
            if local > 0.0 {
                cal_ref_ms / local
            } else {
                1.0
            }
        })
        .collect()
}

/// Raises every factor to `exponent`. A workload whose threads run side by
/// side loses more than the single-thread yardstick when the host is
/// contended (its wall time needs both vCPUs, the yardstick one); its spans
/// are scaled by `factor^exponent` with an exponent fitted on the reference
/// host (see [`crate::workload::Workload::host_exponent`]).
pub fn with_exponent(scales: &[f64], exponent: f64) -> Vec<f64> {
    if exponent == 1.0 {
        return scales.to_vec();
    }
    scales.iter().map(|s| s.powf(exponent)).collect()
}

/// Scales `raw[i]` by the factor of calibration sample `cal_index[i]`.
pub fn normalise(raw: &[f64], cal_index: &[usize], scales: &[f64]) -> Vec<f64> {
    raw.iter().zip(cal_index).map(|(&v, &c)| v * scales.get(c).copied().unwrap_or(1.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic ±`amp` jitter.
    fn jitter(i: usize, amp: f64) -> f64 {
        1.0 + amp * ((i * 2654435761usize % 1000) as f64 / 500.0 - 1.0)
    }

    #[test]
    fn uniform_slowdown_cancels() {
        let n = 300;
        let cal: Vec<f64> = (0..n).map(|i| 0.4 * jitter(i, 0.02)).collect();
        let spans: Vec<f64> = (0..n).map(|i| 50.0 + (i % 7) as f64).collect();
        let idx: Vec<usize> = (0..n).collect();
        let base = normalise(&spans, &idx, &scale_factors(&cal, 0.4));

        let slow_cal: Vec<f64> = cal.iter().map(|c| c * 1.2).collect();
        let slow_spans: Vec<f64> = spans.iter().map(|s| s * 1.2).collect();
        let slow = normalise(&slow_spans, &idx, &scale_factors(&slow_cal, 0.4));

        let (a, b): (f64, f64) = (base.iter().sum(), slow.iter().sum());
        assert!((b / a - 1.0).abs() < 0.005, "x1.2 on both must cancel: {a} vs {b}");
        // Without normalisation the slowdown is fully visible.
        let raw: f64 = slow_spans.iter().sum::<f64>() / spans.iter().sum::<f64>();
        assert!((raw - 1.2).abs() < 1e-9);
    }

    #[test]
    fn slowdown_that_starts_mid_run_cancels_too() {
        // The host slows by 20 % from sample 140 on: calibration and spans
        // move together at the same index, so every span is still scaled by
        // samples from its own side of the step.
        let n = 300;
        let step = |i: usize| if i >= 140 { 1.2 } else { 1.0 };
        let cal: Vec<f64> = (0..n).map(|i| 0.4 * jitter(i, 0.02) * step(i)).collect();
        let spans: Vec<f64> = (0..n).map(|i| 50.0 * step(i)).collect();
        let idx: Vec<usize> = (0..n).collect();
        let scaled = normalise(&spans, &idx, &scale_factors(&cal, 0.4));
        let total: f64 = scaled.iter().sum();
        assert!((total / (50.0 * n as f64) - 1.0).abs() < 0.005, "{total}");
        for (i, s) in scaled.iter().enumerate() {
            assert!((s / 50.0 - 1.0).abs() < 0.03, "span {i} scaled to {s}");
        }
    }

    #[test]
    fn a_single_calibration_outlier_does_not_move_its_neighbours() {
        let mut cal = vec![0.4; 11];
        cal[5] = 4.0; // preempted while calibrating
        let scales = scale_factors(&cal, 0.4);
        assert!(scales.iter().all(|&s| (s - 1.0).abs() < 1e-12), "{scales:?}");
    }

    #[test]
    fn reference_host_reads_unity_and_windows_clip_at_the_ends() {
        assert_eq!(scale_factors(&[0.4], 0.4), vec![1.0]);
        assert_eq!(scale_factors(&[], 0.4), Vec::<f64>::new());
        let scales = scale_factors(&[0.2, 0.2, 0.2, 0.8, 0.8, 0.8], 0.4);
        assert_eq!(scales[0], 2.0);
        assert_eq!(scales[5], 0.5);
        // A span whose calibration index is out of range is left unscaled.
        assert_eq!(normalise(&[3.0], &[9], &scales), vec![3.0]);
        // The exponent steepens the correction around unity.
        assert_eq!(with_exponent(&[2.0, 1.0, 0.5], 1.0), vec![2.0, 1.0, 0.5]);
        assert_eq!(with_exponent(&[4.0, 1.0, 0.25], 1.5), vec![8.0, 1.0, 0.125]);
    }

    #[test]
    fn kernel_runs_and_stays_finite() {
        let mut clock = HostClock::new();
        let a = clock.tick();
        let b = clock.tick();
        assert_eq!((a, b), (0, 1));
        assert!(clock.samples_ms().iter().all(|&ms| ms > 0.0 && ms.is_finite()));
        assert!(clock.calibrator.accum.iter().all(|v| v.is_finite() && (0.0..=1.0).contains(v)));
        assert_eq!(clock.scales().len(), 2);
        // Spans started on other threads find their sample by time.
        let between = clock.taken_at[1];
        assert_eq!(clock.sample_before(between), 1);
        assert_eq!(clock.sample_before(clock.taken_at[0]), 0);
        assert_eq!(clock.sample_before(Instant::now()), 1);
    }
}
