//! Frame covisibility detection engine (algorithm side).
//!
//! Wraps the CODEC substrate: pushes each incoming frame, accumulates the
//! per-MB min-SADs into the covisibility metric, and converts the two
//! covisibility signals into the tracking/mapping decisions of §4.

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

/// The FC detection engine: CODEC + thresholds.
#[derive(Debug)]
pub struct FcDetector {
    codec: VideoCodec,
    thresh_t: f32,
    thresh_m: f32,
}

impl FcDetector {
    /// Creates a detector with the AGS thresholds.
    pub fn new(codec_config: ags_codec::CodecConfig, thresh_t: f32, thresh_m: f32) -> Self {
        Self { codec: VideoCodec::new(codec_config), thresh_t, thresh_m }
    }

    /// Pushes a frame and derives the AGS decisions.
    ///
    /// Convention for the first frames: with no previous frame, refinement is
    /// required (the pose cannot be trusted); with no key frame, the frame
    /// becomes one.
    pub fn push(&mut self, rgb: &RgbImage) -> FcDecision {
        let report = self.codec.push_rgb(rgb);
        let needs_refinement = match report.fc_prev {
            Some(fc) => fc.value() < self.thresh_t,
            None => true,
        };
        let is_keyframe = match report.fc_keyframe {
            Some(fc) => fc.value() < self.thresh_m,
            None => true,
        };
        FcDecision {
            fc_prev: report.fc_prev,
            fc_keyframe: report.fc_keyframe,
            needs_refinement,
            is_keyframe,
            sad_evals: report.sad_evaluations,
        }
    }

    /// Marks the most recently pushed frame as the key-frame reference.
    pub fn mark_keyframe(&mut self) {
        self.codec.mark_keyframe();
    }

    /// Total SAD evaluations spent so far.
    pub fn total_sad_evals(&self) -> u64 {
        self.codec.total_sad_evaluations()
    }

    /// Exports the codec-side state for checkpointing (the thresholds come
    /// back from the config on restore).
    pub fn export_state(&self) -> FcDetectorState {
        FcDetectorState { codec: self.codec.export_state() }
    }

    /// Rebuilds a detector from a configuration and [`Self::export_state`].
    pub fn from_state(
        codec_config: ags_codec::CodecConfig,
        thresh_t: f32,
        thresh_m: f32,
        state: FcDetectorState,
    ) -> Self {
        Self { codec: VideoCodec::from_state(codec_config, state.codec), thresh_t, thresh_m }
    }
}

/// Serializable snapshot of an [`FcDetector`] — checkpointing support.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FcDetectorState {
    /// Reference pictures and counters of the underlying CODEC.
    pub codec: VideoCodecState,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ags_codec::CodecConfig;
    use ags_math::{Pcg32, Vec3};

    fn noisy_frame(seed: u64) -> RgbImage {
        let mut rng = Pcg32::seeded(seed);
        RgbImage::from_vec(32, 32, (0..32 * 32).map(|_| Vec3::splat(rng.next_f32())).collect())
    }

    #[test]
    fn first_frame_needs_refinement_and_is_keyframe() {
        let mut det = FcDetector::new(CodecConfig::default(), 0.9, 0.5);
        let d = det.push(&noisy_frame(1));
        assert!(d.needs_refinement);
        assert!(d.is_keyframe);
        assert!(d.fc_prev.is_none());
    }

    #[test]
    fn identical_frame_skips_refinement() {
        let mut det = FcDetector::new(CodecConfig::default(), 0.9, 0.5);
        let f = noisy_frame(2);
        det.push(&f);
        det.mark_keyframe();
        let d = det.push(&f);
        assert!(!d.needs_refinement, "identical frame has full covisibility");
        assert!(!d.is_keyframe);
        assert!(d.fc_prev.unwrap().value() > 0.95);
    }

    #[test]
    fn unrelated_frame_triggers_both() {
        let mut det = FcDetector::new(CodecConfig::default(), 0.9, 0.5);
        det.push(&noisy_frame(3));
        det.mark_keyframe();
        let d = det.push(&noisy_frame(99));
        assert!(d.needs_refinement, "unrelated content -> low FC");
        assert!(d.is_keyframe);
        assert!(d.sad_evals > 0);
    }
}
