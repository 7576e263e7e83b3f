//! Streaming CODEC front end with reference-picture management.
//!
//! AGS needs two covisibility signals per incoming frame (paper §4):
//!
//! 1. FC against the **previous frame** — steers movement-adaptive tracking
//!    (`ThreshT`).
//! 2. FC against the **last key frame** — steers key/non-key frame
//!    designation (`ThreshM`).
//!
//! Hardware CODECs already keep reference pictures for inter prediction, so
//! every estimate reuses the ME engine. [`VideoCodec`] models exactly that:
//! push frames in streaming order, read back the per-frame report, and mark
//! key frames so the key-frame reference is updated. Each frame runs one
//! [`MotionEstimator::estimate`] per reference it has.

use crate::covisibility::Covisibility;
use crate::me::{CodecConfig, MotionEstimator, MotionResult};
use crate::plane::LumaPlane;
use ags_image::RgbImage;

/// Covisibility report for one streamed frame.
#[derive(Debug, Clone)]
pub struct CodecFrameReport {
    /// Frame index in stream order.
    pub frame_index: usize,
    /// FC against the previous frame (`None` for the first frame).
    pub fc_prev: Option<Covisibility>,
    /// FC against the last key frame (`None` before any key frame exists).
    pub fc_keyframe: Option<Covisibility>,
    /// Motion-estimation result against the previous frame, if computed.
    pub me_prev: Option<MotionResult>,
    /// Motion-estimation result against the key frame, if computed.
    pub me_keyframe: Option<MotionResult>,
    /// Total SAD block evaluations spent on this frame (cost-model input).
    pub sad_evaluations: u64,
}

/// Serializable reference-picture state of a [`VideoCodec`] — everything a
/// restored codec needs to keep emitting bit-identical covisibility reports
/// mid-stream. The default is the state before the first frame.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VideoCodecState {
    /// The previous-frame reference plane.
    pub previous: Option<LumaPlane>,
    /// The key-frame reference: its stream index and plane.
    pub keyframe: Option<(usize, LumaPlane)>,
    /// Frames pushed so far.
    pub frame_index: usize,
}

/// Streaming CODEC model holding the previous-frame and key-frame
/// references.
#[derive(Debug)]
pub struct VideoCodec {
    estimator: MotionEstimator,
    previous: Option<LumaPlane>,
    /// The last marked key frame: its stream index and plane.
    keyframe: Option<(usize, LumaPlane)>,
    frame_index: usize,
}

impl VideoCodec {
    /// Creates a codec with the given ME configuration.
    pub fn new(config: CodecConfig) -> Self {
        Self::from_state(config, VideoCodecState::default())
    }

    /// The ME configuration.
    pub fn config(&self) -> &CodecConfig {
        self.estimator.config()
    }

    /// Pushes the next RGB frame and returns its covisibility report.
    pub fn push_rgb(&mut self, rgb: &RgbImage) -> CodecFrameReport {
        self.push_plane(LumaPlane::from_rgb(rgb))
    }

    /// Pushes the next luminance plane and returns its covisibility report.
    pub fn push_plane(&mut self, plane: LumaPlane) -> CodecFrameReport {
        let me_prev = self.previous.as_ref().map(|prev| self.estimator.estimate(&plane, prev));
        let me_keyframe =
            self.keyframe.as_ref().map(|(_, key)| self.estimator.estimate(&plane, key));
        let report = CodecFrameReport {
            frame_index: self.frame_index,
            fc_prev: me_prev.as_ref().map(|me| me.covisibility()),
            fc_keyframe: me_keyframe.as_ref().map(|me| me.covisibility()),
            sad_evaluations: me_prev.iter().chain(&me_keyframe).map(|me| me.sad_evaluations).sum(),
            me_prev,
            me_keyframe,
        };
        self.previous = Some(plane);
        self.frame_index += 1;
        report
    }

    /// Marks the most recently pushed frame as the key frame; future frames
    /// report `fc_keyframe` against it.
    ///
    /// # Panics
    ///
    /// Panics when no frame has been pushed yet.
    pub fn mark_keyframe(&mut self) {
        let prev = self.previous.as_ref().expect("mark_keyframe before any frame was pushed");
        let index = self.frame_index - 1;
        // Idempotent per frame: re-marking the same frame copies nothing.
        if self.keyframe.as_ref().is_some_and(|(i, _)| *i == index) {
            return;
        }
        self.keyframe = Some((index, prev.clone()));
    }

    /// Snapshots the reference-picture state for checkpointing. The motion
    /// estimator itself is configuration-only and is rebuilt on restore.
    pub fn export_state(&self) -> VideoCodecState {
        VideoCodecState {
            previous: self.previous.clone(),
            keyframe: self.keyframe.clone(),
            frame_index: self.frame_index,
        }
    }

    /// Rebuilds a codec mid-stream from a checkpointed state.
    pub fn from_state(config: CodecConfig, state: VideoCodecState) -> Self {
        Self {
            estimator: MotionEstimator::new(config),
            previous: state.previous,
            keyframe: state.keyframe,
            frame_index: state.frame_index,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane(shift: usize) -> LumaPlane {
        LumaPlane::from_fn(32, 32, |x, y| (((x + shift) * 13 + y * 7) % 240) as u8)
    }

    #[test]
    fn first_frame_has_no_references() {
        let mut codec = VideoCodec::new(CodecConfig::default());
        let report = codec.push_plane(plane(0));
        assert!(report.fc_prev.is_none());
        assert!(report.fc_keyframe.is_none());
        assert_eq!(report.sad_evaluations, 0);
    }

    #[test]
    fn second_frame_reports_fc_prev() {
        let mut codec = VideoCodec::new(CodecConfig::default());
        codec.push_plane(plane(0));
        let report = codec.push_plane(plane(1));
        let fc = report.fc_prev.expect("fc_prev should exist");
        assert!(fc.value() > 0.5, "small shift keeps covisibility high: {fc}");
        assert!(report.fc_keyframe.is_none(), "no key frame marked yet");
    }

    #[test]
    fn keyframe_reference_tracks_marked_frame() {
        let mut codec = VideoCodec::new(CodecConfig::default());
        codec.push_plane(plane(0));
        codec.mark_keyframe(); // key = shift 0
        codec.push_plane(plane(1));
        let near = codec.push_plane(plane(2)).fc_keyframe.unwrap();
        let far = codec.push_plane(plane(14)).fc_keyframe.unwrap();
        assert!(near.value() > far.value(), "drifting away lowers key-frame FC");
        // A newer mark replaces the reference: shift 15 is now compared
        // against shift 14, not shift 0.
        codec.mark_keyframe();
        let replaced = codec.push_plane(plane(15)).fc_keyframe.unwrap();
        assert!(replaced.value() > far.value(), "the newest key frame is the reference");
    }

    #[test]
    fn mark_keyframe_is_idempotent_per_frame() {
        let mut codec = VideoCodec::new(CodecConfig::default());
        codec.push_plane(plane(0));
        codec.mark_keyframe();
        let once = codec.export_state();
        codec.mark_keyframe();
        assert_eq!(codec.export_state(), once);
        assert_eq!(once.keyframe.map(|(i, _)| i), Some(0));
    }

    #[test]
    #[should_panic(expected = "before any frame")]
    fn mark_keyframe_without_frames_panics() {
        VideoCodec::new(CodecConfig::default()).mark_keyframe();
    }

    #[test]
    fn export_restore_continues_bit_identically() {
        let config = CodecConfig::default();
        let mut reference = VideoCodec::new(config.clone());
        let mut interrupted = VideoCodec::new(config.clone());
        for shift in 0..4 {
            reference.push_plane(plane(shift * 3));
            interrupted.push_plane(plane(shift * 3));
            if shift % 2 == 0 {
                reference.mark_keyframe();
                interrupted.mark_keyframe();
            }
        }
        // "Crash" and restore mid-stream.
        let mut restored = VideoCodec::from_state(config, interrupted.export_state());
        drop(interrupted);
        for shift in 4..8 {
            let a = reference.push_plane(plane(shift * 3));
            let b = restored.push_plane(plane(shift * 3));
            assert_eq!(a.fc_prev, b.fc_prev);
            assert_eq!(a.fc_keyframe, b.fc_keyframe);
            assert_eq!(a.sad_evaluations, b.sad_evaluations);
            if shift % 2 == 0 {
                reference.mark_keyframe();
                restored.mark_keyframe();
            }
        }
        assert_eq!(reference.export_state(), restored.export_state());
    }

    #[test]
    fn sad_evaluation_accounting_accumulates() {
        let mut codec = VideoCodec::new(CodecConfig::default());
        codec.push_plane(plane(0));
        codec.mark_keyframe();
        let r1 = codec.push_plane(plane(1));
        // Both references were compared, and the frame's count is theirs.
        let (prev, key) = (r1.me_prev.unwrap(), r1.me_keyframe.unwrap());
        assert!(prev.sad_evaluations > 0 && key.sad_evaluations > 0);
        assert_eq!(r1.sad_evaluations, prev.sad_evaluations + key.sad_evaluations);
    }
}
