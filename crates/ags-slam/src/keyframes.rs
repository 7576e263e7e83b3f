//! Keyframe storage and mapping-window selection.

use ags_image::{DepthImage, RgbImage};
use ags_math::{Pcg32, Se3};
use std::sync::Arc;

/// A stored keyframe with its estimated pose.
///
/// Images sit behind [`Arc`] so mapping windows (and the pipelined driver's
/// FC worker thread) share them by reference count instead of deep-copying
/// the whole window every frame.
#[derive(Debug, Clone)]
pub struct StoredKeyframe {
    /// Stream index of the frame.
    pub frame_index: usize,
    /// Estimated camera-to-world pose at storage time.
    pub pose: Se3,
    /// Map epoch under which this keyframe's mapping update is published —
    /// the id tracking uses to reason about snapshot staleness. Pipelines
    /// without snapshot publishing (the baseline) store `0`.
    pub epoch: u64,
    /// Color image (shared, immutable once stored).
    pub rgb: Arc<RgbImage>,
    /// Depth image (shared, immutable once stored).
    pub depth: Arc<DepthImage>,
}

/// The keyframe database used by mapping.
///
/// Mapping trains not only on the current frame but also on previous
/// keyframes (`Pose_x, 0 < x < t` in the paper's Fig. 2b), which prevents
/// the map from forgetting previously seen geometry.
#[derive(Debug, Default)]
pub struct KeyframeStore {
    frames: Vec<StoredKeyframe>,
}

impl KeyframeStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored keyframes.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True when no keyframes are stored.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Stores a keyframe.
    pub fn push(&mut self, kf: StoredKeyframe) {
        self.frames.push(kf);
    }

    /// All stored keyframes.
    pub fn frames(&self) -> &[StoredKeyframe] {
        &self.frames
    }

    /// Selects up to `window` keyframes for mapping: always the most recent,
    /// plus random earlier ones (SplaTAM's window selection).
    pub fn mapping_window(&self, window: usize, rng: &mut Pcg32) -> Vec<&StoredKeyframe> {
        if self.frames.is_empty() || window == 0 {
            return Vec::new();
        }
        let mut selected = vec![self.frames.last().unwrap()];
        if self.frames.len() > 1 {
            let mut candidates: Vec<usize> = (0..self.frames.len() - 1).collect();
            rng.shuffle(&mut candidates);
            for &idx in candidates.iter().take(window.saturating_sub(1)) {
                selected.push(&self.frames[idx]);
            }
        }
        selected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ags_math::Vec3;

    fn kf(i: usize) -> StoredKeyframe {
        StoredKeyframe {
            frame_index: i,
            pose: Se3::from_translation(Vec3::splat(i as f32)),
            epoch: i as u64 + 1,
            rgb: Arc::new(RgbImage::filled(2, 2, Vec3::ZERO)),
            depth: Arc::new(DepthImage::filled(2, 2, 1.0)),
        }
    }

    #[test]
    fn window_shares_images_without_copying() {
        let mut store = KeyframeStore::new();
        store.push(kf(0));
        let before = Arc::strong_count(&store.frames()[0].rgb);
        let mut rng = Pcg32::seeded(1);
        let window = store.mapping_window(1, &mut rng);
        // Borrowed references: no new Arc handles, no pixel copies.
        assert_eq!(Arc::strong_count(&window[0].rgb), before);
        let cloned = Arc::clone(&window[0].rgb);
        assert_eq!(Arc::strong_count(&cloned), before + 1);
    }

    #[test]
    fn window_includes_most_recent() {
        let mut store = KeyframeStore::new();
        for i in 0..5 {
            store.push(kf(i));
        }
        let mut rng = Pcg32::seeded(1);
        let window = store.mapping_window(3, &mut rng);
        assert_eq!(window.len(), 3);
        assert_eq!(window[0].frame_index, 4, "most recent first");
        // Others are earlier frames, distinct.
        assert!(window[1].frame_index < 4);
        assert_ne!(window[1].frame_index, window[2].frame_index);
    }

    #[test]
    fn window_on_empty_store() {
        let store = KeyframeStore::new();
        let mut rng = Pcg32::seeded(1);
        assert!(store.mapping_window(2, &mut rng).is_empty());
        assert!(store.is_empty());
    }

    #[test]
    fn window_larger_than_store() {
        let mut store = KeyframeStore::new();
        store.push(kf(0));
        let mut rng = Pcg32::seeded(1);
        assert_eq!(store.mapping_window(5, &mut rng).len(), 1);
    }
}
