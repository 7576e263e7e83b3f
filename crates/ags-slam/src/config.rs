//! SLAM pipeline configuration.

use ags_splat::compact::CompactionConfig;
use ags_splat::densify::DensifyConfig;
use ags_splat::loss::LossConfig;
use ags_splat::optim::AdamConfig;
use ags_splat::BackendKind;

/// Which 3DGS-SLAM backbone to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backbone {
    /// SplaTAM-style: single global map, silhouette densification.
    #[default]
    Splatam,
    /// Gaussian-SLAM-style: sub-maps — Gaussians older than the active
    /// sub-map are rendered but frozen, and scales are regularised.
    GaussianSlam,
}

/// Configuration of a baseline 3DGS-SLAM run.
///
/// The paper's reference iteration counts are `N_T = 200` tracking and
/// `N_M = 30` mapping at 640×480. This workspace runs scaled-down frames,
/// so the defaults preserve the *ratio* (tracking ≫ mapping) at lower
/// absolute counts; see DESIGN.md's scaling note.
#[derive(Debug, Clone, PartialEq)]
pub struct SlamConfig {
    /// Backbone variant.
    pub backbone: Backbone,
    /// Tracking iterations per frame (`N_T`).
    pub tracking_iterations: u32,
    /// Mapping iterations per frame (`N_M`).
    pub mapping_iterations: u32,
    /// Pose learning rate for tracking.
    pub tracking_lr: f32,
    /// Adam configuration for mapping.
    pub adam: AdamConfig,
    /// Densification configuration.
    pub densify: DensifyConfig,
    /// Tracking loss.
    pub tracking_loss: LossConfig,
    /// Mapping loss.
    pub mapping_loss: LossConfig,
    /// Add a key frame every `keyframe_interval` frames.
    pub keyframe_interval: usize,
    /// Size of the mapping window (key frames re-trained with the current
    /// frame, SplaTAM-style).
    pub mapping_window: usize,
    /// Select the mapping window by CODEC covisibility instead of randomly:
    /// the most recent key frame plus the highest-covisibility earlier ones
    /// (requires the pipeline to feed per-keyframe FC, which AGS derives for
    /// free from the batched window motion estimation).
    pub covis_window: bool,
    /// Densify every `densify_interval` frames.
    pub densify_interval: usize,
    /// Map compaction policy: scheduled pruning, cold-splat quantization and
    /// the per-stream memory budget. Disabled by default.
    pub compaction: CompactionConfig,
    /// Start a new sub-map every this many key frames (Gaussian-SLAM only).
    pub submap_interval: usize,
    /// Scale-regularisation strength (Gaussian-SLAM only).
    pub scale_regularisation: f32,
    /// Collect per-tile workload samples every `tile_work_interval` frames
    /// (0 = never) for the cycle-level simulator.
    pub tile_work_interval: usize,
    /// Render backend for the splat kernels (tracking refinement and
    /// mapping). Bit-identical across backends; defaults to the vectorized
    /// one.
    pub backend: BackendKind,
}

impl Default for SlamConfig {
    fn default() -> Self {
        Self {
            backbone: Backbone::Splatam,
            tracking_iterations: 24,
            mapping_iterations: 6,
            tracking_lr: 2e-3,
            adam: AdamConfig::default(),
            densify: DensifyConfig::default(),
            tracking_loss: LossConfig::tracking(),
            mapping_loss: LossConfig::mapping(),
            keyframe_interval: 4,
            mapping_window: 2,
            covis_window: false,
            densify_interval: 1,
            compaction: CompactionConfig::default(),
            submap_interval: 4,
            scale_regularisation: 0.0,
            tile_work_interval: 8,
            backend: BackendKind::default(),
        }
    }
}

impl SlamConfig {
    /// A fast configuration for unit tests.
    pub fn tiny() -> Self {
        Self {
            tracking_iterations: 6,
            mapping_iterations: 3,
            mapping_window: 1,
            tile_work_interval: 0,
            ..Self::default()
        }
    }

    /// The Gaussian-SLAM-style variant of this configuration.
    pub fn gaussian_slam(mut self) -> Self {
        self.backbone = Backbone::GaussianSlam;
        self.scale_regularisation = 0.01;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_preserve_paper_ratio() {
        let c = SlamConfig::default();
        // Tracking must dominate mapping (paper: 200 vs 30).
        assert!(c.tracking_iterations >= 3 * c.mapping_iterations);
    }

    #[test]
    fn gaussian_slam_toggles_backbone() {
        let c = SlamConfig::default().gaussian_slam();
        assert_eq!(c.backbone, Backbone::GaussianSlam);
        assert!(c.scale_regularisation > 0.0);
    }
}
