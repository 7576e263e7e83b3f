//! SLAM pipeline configuration.

use ags_splat::densify::DensifyConfig;
use ags_splat::loss::LossConfig;
use ags_splat::optim::AdamConfig;
use ags_splat::BackendKind;

/// Configuration of a baseline 3DGS-SLAM run.
///
/// The paper's reference iteration counts are `N_T = 200` tracking and
/// `N_M = 30` mapping at 640×480. This workspace runs scaled-down frames,
/// so the defaults preserve the *ratio* (tracking ≫ mapping) at lower
/// absolute counts: what the reproduction keeps is each result's shape,
/// not the paper's absolute iteration budget.
#[derive(Debug, Clone, PartialEq)]
pub struct SlamConfig {
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
            tracking_iterations: 24,
            mapping_iterations: 6,
            tracking_lr: 2e-3,
            adam: AdamConfig::default(),
            densify: DensifyConfig::default(),
            tracking_loss: LossConfig::tracking(),
            mapping_loss: LossConfig::mapping(),
            keyframe_interval: 4,
            mapping_window: 2,
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
}
