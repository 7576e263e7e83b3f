//! The assembled Droid-style backbone: feature encoder + ConvGRU updates.

use crate::layers::{Conv2d, ConvGru, GruScratch};
use crate::tensor::Tensor;
use ags_image::GrayImage;
use ags_math::Pcg32;

/// Workload report for one backbone invocation (cost-model input).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackboneReport {
    /// Multiply-accumulates in the feature encoder.
    pub encoder_macs: u64,
    /// Multiply-accumulates across all GRU iterations.
    pub gru_macs: u64,
    /// GRU iterations executed.
    pub iterations: u32,
    /// Bytes of activations produced (4 bytes per element).
    pub activation_bytes: u64,
}

impl BackboneReport {
    /// Total MACs.
    pub fn total_macs(&self) -> u64 {
        self.encoder_macs + self.gru_macs
    }
}

/// A Droid-SLAM-style backbone: a 3-stage strided convolutional encoder
/// (1/8 resolution features) and a ConvGRU update operator iterated a fixed
/// number of times per frame pair.
#[derive(Debug, Clone)]
pub struct DroidBackbone {
    enc1: Conv2d,
    enc2: Conv2d,
    enc3: Conv2d,
    gru: ConvGru,
    /// GRU iterations per frame (Droid-SLAM uses ~8–12 update steps).
    pub gru_iterations: u32,
    /// Activation buffers reused across GRU iterations and frames. Every
    /// [`Self::run`] overwrites all of them before reading, so they carry
    /// no state from one run to the next.
    scratch: Activations,
}

#[derive(Debug, Clone, Default)]
struct Activations {
    input: Tensor,
    enc1_out: Tensor,
    enc2_out: Tensor,
    features: Tensor,
    hidden: Tensor,
    gru: GruScratch,
}

impl DroidBackbone {
    /// Feature channels at 1/8 resolution.
    pub const FEATURE_CHANNELS: usize = 16;
    /// Hidden state channels of the update GRU.
    pub const HIDDEN_CHANNELS: usize = 16;

    /// Builds the backbone with deterministic weights from `seed`.
    pub fn new(seed: u64, gru_iterations: u32) -> Self {
        let mut rng = Pcg32::seeded(seed);
        Self {
            enc1: Conv2d::new(2, 8, 3, 2, 1, &mut rng),
            enc2: Conv2d::new(8, 12, 3, 2, 1, &mut rng),
            enc3: Conv2d::new(12, Self::FEATURE_CHANNELS, 3, 2, 1, &mut rng),
            gru: ConvGru::new(Self::HIDDEN_CHANNELS, Self::FEATURE_CHANNELS, &mut rng),
            gru_iterations,
            scratch: Activations::default(),
        }
    }

    /// Total parameter count (encoder and update operator).
    pub fn num_params(&self) -> usize {
        self.enc1.num_params()
            + self.enc2.num_params()
            + self.enc3.num_params()
            + self.gru.num_params()
    }

    /// Runs the backbone over a frame pair (current + previous luminance),
    /// returning the final hidden state and the workload report.
    ///
    /// The hidden state is what a learned Droid head would decode into flow
    /// revisions; in this reproduction the geometric solve happens in
    /// `ags-track`, so the hidden state is returned for inspection/testing
    /// and the report feeds the hardware cost models.
    ///
    /// # Panics
    ///
    /// Panics when the two images have different dimensions.
    pub fn run(&mut self, current: &GrayImage, previous: &GrayImage) -> (&Tensor, BackboneReport) {
        assert_eq!(current.width(), previous.width(), "frame width mismatch");
        assert_eq!(current.height(), previous.height(), "frame height mismatch");
        let Activations { input, enc1_out, enc2_out, features, hidden, gru } = &mut self.scratch;

        // Two-channel input: current frame and temporal difference.
        input.resize(2, current.height(), current.width());
        let (frame, diff) = input.data_mut().split_at_mut(current.len());
        frame.copy_from_slice(current.pixels());
        for ((d, &c), &p) in diff.iter_mut().zip(current.pixels()).zip(previous.pixels()) {
            *d = c - p;
        }

        let mut report = BackboneReport::default();
        report.encoder_macs += self.enc1.macs(input.height(), input.width());
        self.enc1.forward_into(&[input], enc1_out);
        enc1_out.relu_inplace();
        report.encoder_macs += self.enc2.macs(enc1_out.height(), enc1_out.width());
        self.enc2.forward_into(&[enc1_out], enc2_out);
        enc2_out.relu_inplace();
        report.encoder_macs += self.enc3.macs(enc2_out.height(), enc2_out.width());
        self.enc3.forward_into(&[enc2_out], features);
        features.relu_inplace();
        report.activation_bytes +=
            4 * (enc1_out.len() as u64 + enc2_out.len() as u64 + features.len() as u64);

        hidden.resize(Self::HIDDEN_CHANNELS, features.height(), features.width());
        hidden.data_mut().fill(0.0);
        for _ in 0..self.gru_iterations {
            report.gru_macs += self.gru.macs(features.height(), features.width());
            self.gru.step(hidden, features, gru);
            report.activation_bytes += 4 * hidden.len() as u64;
        }
        report.iterations = self.gru_iterations;
        (hidden, report)
    }

    /// Predicted MACs for a `(width, height)` frame without running.
    pub fn predict_macs(&self, width: usize, height: usize) -> u64 {
        let (h1, w1) = self.enc1.output_size(height, width);
        let (h2, w2) = self.enc2.output_size(h1, w1);
        let (h3, w3) = self.enc3.output_size(h2, w2);
        self.enc1.macs(height, width)
            + self.enc2.macs(h1, w1)
            + self.enc3.macs(h2, w2)
            + self.gru.macs(h3, w3) * self.gru_iterations as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(seed: u64) -> GrayImage {
        frame_sized(seed, 32, 24)
    }

    fn frame_sized(seed: u64, w: usize, h: usize) -> GrayImage {
        let mut rng = Pcg32::seeded(seed);
        GrayImage::from_vec(w, h, (0..w * h).map(|_| rng.next_f32()).collect())
    }

    #[test]
    fn run_produces_eighth_resolution_state() {
        let mut bb = DroidBackbone::new(1, 4);
        let (hidden, report) = bb.run(&frame(1), &frame(2));
        assert_eq!(hidden.channels(), DroidBackbone::HIDDEN_CHANNELS);
        assert_eq!(hidden.height(), 3); // 24 / 8
        assert_eq!(hidden.width(), 4); // 32 / 8
        assert_eq!(report.iterations, 4);
        assert!(report.encoder_macs > 0 && report.gru_macs > 0);
    }

    #[test]
    fn report_matches_prediction() {
        let mut bb = DroidBackbone::new(2, 6);
        let (_, report) = bb.run(&frame(3), &frame(4));
        assert_eq!(report.total_macs(), bb.predict_macs(32, 24));
        // The benchmark's frame sizes (odd halvings included).
        for (w, h) in [(56, 42), (60, 45), (44, 33)] {
            let img = GrayImage::new(w, h);
            let (_, report) = bb.run(&img, &img);
            assert_eq!(report.total_macs(), bb.predict_macs(w, h), "{w}x{h}");
        }
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = DroidBackbone::new(9, 3);
        let mut b = DroidBackbone::new(9, 3);
        let (ha, _) = a.run(&frame(5), &frame(6));
        let (hb, _) = b.run(&frame(5), &frame(6));
        assert_eq!(ha.data(), hb.data());
    }

    #[test]
    fn different_inputs_different_states() {
        let mut bb = DroidBackbone::new(4, 3);
        let ha = bb.run(&frame(1), &frame(2)).0.clone();
        let (hb, _) = bb.run(&frame(7), &frame(8));
        assert_ne!(ha.data(), hb.data());
    }

    #[test]
    fn scratch_reuse_leaks_no_state() {
        // Same inputs after an unrelated run — at another frame size, so
        // every buffer was re-dimensioned in between — give the same bits
        // and the same report as a fresh backbone.
        let mut bb = DroidBackbone::new(4, 3);
        let (first, first_report) = bb.run(&frame(1), &frame(2));
        let first = first.clone();
        let big = GrayImage::from_vec(40, 40, vec![0.7; 1600]);
        bb.run(&big, &frame_sized(9, 40, 40));
        let (again, again_report) = bb.run(&frame(1), &frame(2));
        assert_eq!(again.bits(), first.bits());
        assert_eq!(again_report, first_report);
        let mut fresh = DroidBackbone::new(4, 3);
        assert_eq!(fresh.run(&frame(1), &frame(2)).0.bits(), first.bits());
    }

    #[test]
    fn num_params_counts_encoder_and_gru() {
        // enc1 2→8, enc2 8→12, enc3 12→16, three 32→16 gate convs, all 3×3.
        let encoder = (2 * 8 * 9 + 8) + (8 * 12 * 9 + 12) + (12 * 16 * 9 + 16);
        let gru = 3 * (32 * 16 * 9 + 16);
        assert_eq!(DroidBackbone::new(1, 8).num_params(), encoder + gru);
        assert_eq!(encoder + gru, 16_644);
    }

    #[test]
    fn more_iterations_more_macs() {
        let short = DroidBackbone::new(1, 2);
        let long = DroidBackbone::new(1, 8);
        assert!(long.predict_macs(64, 48) > short.predict_macs(64, 48));
        // Encoder cost identical; difference is exactly 6 GRU steps.
        let diff = long.predict_macs(64, 48) - short.predict_macs(64, 48);
        assert_eq!(diff % 6, 0);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn mismatched_frames_panic() {
        let mut bb = DroidBackbone::new(1, 1);
        let a = GrayImage::new(16, 16);
        let b = GrayImage::new(8, 16);
        let _ = bb.run(&a, &b);
    }
}
