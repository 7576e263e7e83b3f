//! Stage ①: frame covisibility detection (algorithm side).
//!
//! Pushes each incoming frame through the CODEC substrate, which accumulates
//! the per-MB min-SADs into the covisibility metric, and converts the two
//! covisibility signals into the tracking/mapping decisions of §4.

use crate::config::AgsConfig;
use ags_codec::{Covisibility, VideoCodec, VideoCodecState};
use ags_image::RgbImage;

/// Decisions derived from one frame's covisibility signals.
#[derive(Debug, Clone)]
pub struct FcDecision {
    /// Covisibility with the previous frame (`None` for the first frame).
    pub fc_prev: Option<Covisibility>,
    /// Covisibility with the last key frame (`None` before one exists).
    pub fc_keyframe: Option<Covisibility>,
    /// Whether movement-adaptive tracking must run fine refinement
    /// (low covisibility with the previous frame).
    pub needs_refinement: bool,
    /// Whether the frame is a mapping key frame (low covisibility with the
    /// previous key frame, or no key frame exists yet).
    pub is_keyframe: bool,
    /// SAD block evaluations spent by the CODEC for this frame.
    pub sad_evals: u64,
}

/// Stage ①: CODEC-side frame-covisibility detection — the CODEC plus the
/// `ThreshT` / `ThreshM` thresholds.
///
/// Self-contained: the key-frame reference is updated *inside* the stage
/// (immediately after a frame is designated a key frame), so the decision
/// stream depends only on the pushed RGB sequence.
#[derive(Debug)]
pub struct FcStage {
    codec: VideoCodec,
    thresh_t: f32,
    thresh_m: f32,
}

impl FcStage {
    /// Builds the stage from a resolved [`AgsConfig`].
    pub fn new(config: &AgsConfig) -> Self {
        Self::from_codec(config, VideoCodec::new(config.codec.clone()))
    }

    /// Rebuilds the stage from a resolved config and [`Self::export_state`]
    /// (the thresholds come back from the config).
    pub fn from_state(config: &AgsConfig, state: VideoCodecState) -> Self {
        Self::from_codec(config, VideoCodec::from_state(config.codec.clone(), state))
    }

    fn from_codec(config: &AgsConfig, codec: VideoCodec) -> Self {
        Self { codec, thresh_t: config.thresh_t, thresh_m: config.thresh_m }
    }

    /// Pushes one frame: covisibility decisions plus key-frame marking.
    ///
    /// Convention for the first frames: with no previous frame, refinement is
    /// required (the pose cannot be trusted); with no key frame, the frame
    /// becomes one.
    pub fn process(&mut self, rgb: &RgbImage) -> FcDecision {
        let report = self.codec.push_rgb(rgb);
        let below =
            |fc: Option<Covisibility>, thresh: f32| fc.map_or(true, |fc| fc.value() < thresh);
        let decision = FcDecision {
            fc_prev: report.fc_prev,
            fc_keyframe: report.fc_keyframe,
            needs_refinement: below(report.fc_prev, self.thresh_t),
            is_keyframe: below(report.fc_keyframe, self.thresh_m),
            sad_evals: report.sad_evaluations,
        };
        if decision.is_keyframe {
            // Mark immediately: equivalent to the monolithic pipeline, which
            // marked after mapping but before the next push, and required for
            // running ahead of the SLAM stages.
            self.codec.mark_keyframe();
        }
        decision
    }

    /// Exports the CODEC reference pictures for checkpointing.
    pub fn export_state(&self) -> VideoCodecState {
        self.codec.export_state()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ags_math::{Pcg32, Vec3};

    fn noisy_frame(seed: u64) -> RgbImage {
        let mut rng = Pcg32::seeded(seed);
        RgbImage::from_vec(32, 32, (0..32 * 32).map(|_| Vec3::splat(rng.next_f32())).collect())
    }

    fn stage() -> FcStage {
        FcStage::new(&AgsConfig { thresh_t: 0.9, thresh_m: 0.5, ..AgsConfig::default() })
    }

    #[test]
    fn first_frame_needs_refinement_and_is_keyframe() {
        let d = stage().process(&noisy_frame(1));
        assert!(d.needs_refinement);
        assert!(d.is_keyframe);
        assert!(d.fc_prev.is_none());
    }

    #[test]
    fn identical_frame_skips_refinement() {
        let mut fc = stage();
        let f = noisy_frame(2);
        fc.process(&f); // the first frame is marked as the key frame
        let d = fc.process(&f);
        assert!(!d.needs_refinement, "identical frame has full covisibility");
        assert!(!d.is_keyframe);
        assert!(d.fc_prev.unwrap().value() > 0.95);
    }

    #[test]
    fn unrelated_frame_triggers_both() {
        let mut fc = stage();
        fc.process(&noisy_frame(3));
        let d = fc.process(&noisy_frame(99));
        assert!(d.needs_refinement, "unrelated content -> low FC");
        assert!(d.is_keyframe);
        assert!(d.sad_evals > 0);
    }
}
