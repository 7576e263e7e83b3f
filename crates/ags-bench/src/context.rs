//! Shared experiment context: runs each scene once and caches the results.

use ags_core::trace::WorkloadTrace;
use ags_core::{AgsConfig, AgsSlam};
use ags_scene::dataset::{Dataset, DatasetConfig, SceneId};
use ags_slam::{evaluate_map, BaselineSlam, EvalSummary, SlamConfig};
use ags_splat::audit::audit_contributions;
use ags_track::ate::ate_rmse;
use ags_track::classical::{ClassicalConfig, ClassicalTracker};
use std::collections::HashMap;

/// Workload scale of a benchmark run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchProfile {
    /// Frame width.
    pub width: usize,
    /// Frame height.
    pub height: usize,
    /// Frames per sequence.
    pub frames: usize,
    /// Baseline tracking iterations (`N_T`, scaled).
    pub tracking_iterations: u32,
    /// Mapping iterations (`N_M`, scaled).
    pub mapping_iterations: u32,
    /// AGS refinement iterations (`IterT`, scaled).
    pub iter_t: u32,
}

impl Default for BenchProfile {
    fn default() -> Self {
        Self {
            width: 64,
            height: 48,
            frames: 32,
            tracking_iterations: 16,
            mapping_iterations: 5,
            iter_t: 4,
        }
    }
}

impl BenchProfile {
    /// Smaller profile for parameter sweeps.
    pub fn sweep() -> Self {
        Self { frames: 20, ..Self::default() }
    }

    /// Dataset configuration for a scene. The trajectory is parameterised
    /// at 3x the processed frame count so per-frame motion matches a 30 Hz
    /// stream; `run_scene` processes the first `frames` frames.
    pub fn dataset_config(&self) -> DatasetConfig {
        DatasetConfig {
            width: self.width,
            height: self.height,
            num_frames: self.frames * 3,
            ..DatasetConfig::default()
        }
    }

    /// The baseline SLAM configuration at this scale.
    pub fn slam_config(&self) -> SlamConfig {
        SlamConfig {
            tracking_iterations: self.tracking_iterations,
            mapping_iterations: self.mapping_iterations,
            mapping_window: 2,
            tile_work_interval: 8,
            ..SlamConfig::default()
        }
    }

    /// The AGS configuration at this scale.
    pub fn ags_config(&self) -> AgsConfig {
        AgsConfig {
            iter_t: self.iter_t,
            slam: self.slam_config(),
            audit_false_positives: true,
            ..AgsConfig::default()
        }
    }
}

/// Cached results of running one scene through every system.
#[derive(Debug)]
pub struct SceneRun {
    /// The generated dataset.
    pub dataset: Dataset,
    /// Baseline quality metrics.
    pub eval_baseline: EvalSummary,
    /// AGS quality metrics.
    pub eval_ags: EvalSummary,
    /// Classical-tracker ATE in centimeters (Table 2's Orb-SLAM2 row).
    pub classical_ate_cm: f32,
    /// Baseline workload trace.
    pub trace_baseline: WorkloadTrace,
    /// AGS workload trace.
    pub trace_ags: WorkloadTrace,
    /// Mean fraction of touched Gaussians that are fully non-contributory
    /// (Fig. 5's measurement, averaged over sampled frames).
    pub non_contributory_fraction: f32,
    /// Mean false-positive rate of the skip prediction (§6.2).
    pub mean_fp_rate: f32,
    /// Final AGS Gaussian map (for post-run audits).
    pub ags_cloud: ags_splat::GaussianCloud,
    /// AGS estimated trajectory.
    pub ags_trajectory: Vec<ags_math::Se3>,
}

impl SceneRun {
    /// The final AGS map.
    pub fn final_cloud(&self) -> &ags_splat::GaussianCloud {
        &self.ags_cloud
    }
}

/// Runs scenes on demand and caches them.
#[derive(Debug, Default)]
pub struct Context {
    /// The profile used for all runs.
    pub profile: BenchProfile,
    cache: HashMap<SceneId, SceneRun>,
}

impl Context {
    /// Creates a context with the given profile.
    pub fn new(profile: BenchProfile) -> Self {
        Self { profile, cache: HashMap::new() }
    }

    /// Runs (or returns the cached run of) a scene.
    pub fn run(&mut self, id: SceneId) -> &SceneRun {
        if !self.cache.contains_key(&id) {
            let run = run_scene(id, &self.profile, self.profile.ags_config());
            self.cache.insert(id, run);
        }
        &self.cache[&id]
    }
}

/// Runs one scene through baseline, AGS and the classical tracker.
pub fn run_scene(id: SceneId, profile: &BenchProfile, ags_config: AgsConfig) -> SceneRun {
    let mut dataset = Dataset::generate(id, &profile.dataset_config());
    dataset.truncate(profile.frames);

    // Baseline (SplaTAM-style, serial).
    let mut baseline = BaselineSlam::new(profile.slam_config());
    let mut base_records = Vec::new();
    for frame in &dataset.frames {
        base_records.push(baseline.process_frame(&dataset.camera, &frame.rgb, &frame.depth));
    }
    let eval_baseline =
        evaluate_map(baseline.cloud(), &dataset.camera, baseline.trajectory(), &dataset, 4);
    let trace_baseline = WorkloadTrace::from_baseline(&base_records, profile.width, profile.height);

    // AGS.
    let mut ags = AgsSlam::new(ags_config);
    for frame in &dataset.frames {
        ags.push_frame_cloned(&dataset.camera, &frame.rgb, &frame.depth);
    }
    ags.finish();
    let eval_ags = evaluate_map(ags.cloud(), &dataset.camera, ags.trajectory(), &dataset, 4);

    // Fig. 5 measurement on the final AGS map at sampled poses.
    let mut frac_sum = 0.0f32;
    let mut frac_n = 0u32;
    for pose in ags.trajectory().iter().step_by(8) {
        let audit = audit_contributions(ags.cloud(), &dataset.camera, pose);
        frac_sum += audit.non_contributory_fraction();
        frac_n += 1;
    }
    let fp_rates: Vec<f32> = ags.trace().frames.iter().filter_map(|f| f.fp_rate).collect();
    let mean_fp_rate = if fp_rates.is_empty() {
        0.0
    } else {
        fp_rates.iter().sum::<f32>() / fp_rates.len() as f32
    };
    let ags_cloud = ags.cloud().clone();
    let ags_trajectory = ags.trajectory().to_vec();
    let trace_ags = ags.take_trace();

    // Classical tracker (Orb-SLAM2 stand-in).
    let mut classical = ClassicalTracker::new(ClassicalConfig::default());
    let mut classical_traj = Vec::new();
    for frame in &dataset.frames {
        let gray = frame.rgb.to_gray();
        classical_traj.push(
            classical.track(&dataset.camera, &gray, &frame.depth, dataset.frames[0].gt_pose).pose,
        );
    }
    let classical_ate_cm = ate_rmse(&classical_traj, &dataset.gt_trajectory()) * 100.0;

    SceneRun {
        dataset,
        eval_baseline,
        eval_ags,
        classical_ate_cm,
        trace_baseline,
        trace_ags,
        non_contributory_fraction: if frac_n > 0 { frac_sum / frac_n as f32 } else { 0.0 },
        mean_fp_rate,
        ags_cloud,
        ags_trajectory,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_profile() -> BenchProfile {
        BenchProfile {
            width: 48,
            height: 36,
            frames: 6,
            tracking_iterations: 4,
            mapping_iterations: 2,
            iter_t: 2,
        }
    }

    #[test]
    fn scene_run_produces_consistent_artifacts() {
        let profile = tiny_profile();
        let run = run_scene(SceneId::Xyz, &profile, profile.ags_config());
        assert_eq!(run.trace_baseline.frames.len(), 6);
        assert_eq!(run.trace_ags.frames.len(), 6);
        assert!(run.eval_baseline.psnr_db > 5.0);
        assert!(run.eval_ags.psnr_db > 5.0);
        assert!(run.classical_ate_cm >= 0.0);
        assert!(run.non_contributory_fraction >= 0.0);
    }

    #[test]
    fn context_caches_runs() {
        let mut ctx = Context::new(tiny_profile());
        let ptr1 = ctx.run(SceneId::Xyz) as *const SceneRun;
        let ptr2 = ctx.run(SceneId::Xyz) as *const SceneRun;
        assert_eq!(ptr1, ptr2, "second access must hit the cache");
    }
}
