//! Cross-crate integration tests: the full AGS stack on tiny scenes.

use ags::core::trace::WorkloadTrace;
use ags::prelude::*;
use ags::sim::platform::AgsFeatures;
use ags::slam::evaluate_map;

fn tiny_dataset(id: SceneId, frames: usize) -> Dataset {
    let config =
        DatasetConfig { width: 64, height: 48, num_frames: frames * 4, ..DatasetConfig::default() };
    let mut data = Dataset::generate(id, &config);
    data.truncate(frames);
    data
}

/// End to end: dataset → AGS → trace → hardware models → speedup, with the
/// paper's qualitative relationships holding on a tiny run.
#[test]
fn ags_pipeline_to_speedup() {
    let data = tiny_dataset(SceneId::Desk, 8);

    let mut baseline = BaselineSlam::new(SlamConfig::tiny());
    let mut records = Vec::new();
    for frame in &data.frames {
        records.push(baseline.process_frame(&data.camera, &frame.rgb, &frame.depth));
    }
    let base_trace = WorkloadTrace::from_baseline(&records, 64, 48);

    let mut ags = AgsSlam::new(AgsConfig::tiny());
    for frame in &data.frames {
        ags.push_frame_cloned(&data.camera, &frame.rgb, &frame.depth);
    }
    let ags_eval = evaluate_map(ags.cloud(), &data.camera, ags.trajectory(), &data, 2);
    let ags_trace = ags.take_trace();

    // Quality: bounded trajectory error on this easy prefix.
    assert!(ags_eval.ate_cm < 10.0, "ATE {} cm", ags_eval.ate_cm);
    assert!(ags_eval.psnr_db > 12.0, "PSNR {}", ags_eval.psnr_db);

    // Hardware: AGS-Full beats the GPU baseline, edge gains exceed server
    // gains (paper Fig. 15's headline relationship).
    let base_server = GpuModel::a100().run_trace(&base_trace).total_ms;
    let base_edge = GpuModel::xavier().run_trace(&base_trace).total_ms;
    let ags_server = AgsModel::new(AgsVariant::server()).run_trace(&ags_trace).total_ms;
    let ags_edge = AgsModel::new(AgsVariant::edge()).run_trace(&ags_trace).total_ms;
    let speedup_server = base_server / ags_server;
    let speedup_edge = base_edge / ags_edge;
    assert!(speedup_server > 1.0, "server speedup {speedup_server}");
    assert!(speedup_edge > speedup_server, "edge {speedup_edge} vs server {speedup_server}");
}

/// The ablation ladder is monotone: each added feature may only help.
#[test]
fn ablation_ladder_is_monotone() {
    let data = tiny_dataset(SceneId::Desk2, 8);
    let mut ags = AgsSlam::new(AgsConfig::tiny());
    for frame in &data.frames {
        ags.push_frame_cloned(&data.camera, &frame.rgb, &frame.depth);
    }
    let trace = ags.take_trace();

    let mat = AgsFeatures { mat: true, gcm: false, scheduler: false, overlap: false };
    let gcm = AgsFeatures { gcm: true, ..mat };
    let sched = AgsFeatures { scheduler: true, ..gcm };
    let full = AgsFeatures::full();
    let mut last = f64::INFINITY;
    for (name, f) in [("MAT", mat), ("MAT+GCM", gcm), ("+sched", sched), ("full", full)] {
        let t = AgsModel::with_features(AgsVariant::server(), f).run_trace(&trace).total_ms;
        assert!(t <= last * 1.0001, "{name} regressed: {t} > {last}");
        last = t;
    }
}

/// The codec's covisibility agrees with ground-truth camera motion: the
/// fastest frames (by GT pose delta) must not be classified high-FC.
#[test]
fn covisibility_tracks_ground_truth_motion() {
    let config = DatasetConfig { width: 64, height: 48, num_frames: 30, ..Default::default() };
    let data = Dataset::generate(SceneId::Room, &config);
    let mut codec = VideoCodec::new(CodecConfig::default());
    let mut rows = Vec::new();
    for frame in &data.frames {
        let report = codec.push_rgb(&frame.rgb);
        if let Some(fc) = report.fc_prev {
            let motion = data.frames[frame.index - 1].gt_pose.translation_distance(&frame.gt_pose)
                + data.frames[frame.index - 1].gt_pose.rotation_angle_to(&frame.gt_pose);
            rows.push((motion, fc.value()));
        }
    }
    // Correlation: the fastest quartile must have lower mean FC than the
    // slowest quartile.
    rows.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    let q = rows.len() / 4;
    let slow_fc: f32 = rows[..q].iter().map(|r| r.1).sum::<f32>() / q as f32;
    let fast_fc: f32 = rows[rows.len() - q..].iter().map(|r| r.1).sum::<f32>() / q as f32;
    assert!(
        slow_fc > fast_fc + 0.02,
        "slow-motion FC {slow_fc} should exceed fast-motion FC {fast_fc}"
    );
}

/// Selective mapping must not change rendering output for frames where the
/// skip set is empty, and must strictly reduce work when it is not.
#[test]
fn selective_mapping_reduces_work_only() {
    let data = tiny_dataset(SceneId::Xyz, 8);
    let mut ags = AgsSlam::new(AgsConfig::tiny());
    for frame in &data.frames {
        ags.push_frame_cloned(&data.camera, &frame.rgb, &frame.depth);
    }
    let trace = ags.trace();
    let skipped: u64 = trace.frames.iter().map(|f| f.mapping.skipped_pairs).sum();
    assert!(skipped > 0, "non-key frames should skip pairs");
    // Tracking-side work never includes mapping skips.
    for f in &trace.frames {
        assert_eq!(f.refine.skipped_pairs, 0);
        assert_eq!(f.coarse.skipped_pairs, 0);
    }
}
