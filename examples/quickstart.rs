//! Quickstart: run AGS on a generated scene and print per-frame decisions.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use ags::prelude::*;

fn main() {
    // A small Desk-style RGB-D sequence (procedural TUM stand-in).
    let config = DatasetConfig { width: 96, height: 72, num_frames: 24, ..Default::default() };
    let data = Dataset::generate(SceneId::Desk, &config);
    println!(
        "generated {} frames of '{}' at {}x{}",
        data.frames.len(),
        data.id,
        config.width,
        config.height
    );

    // Run the AGS-accelerated SLAM system.
    let mut slam = AgsSlam::new(AgsConfig { iter_t: 4, ..AgsConfig::default() });
    for frame in &data.frames {
        let record = slam
            .push_frame_cloned(&data.camera, &frame.rgb, &frame.depth)
            .expect("serial mode completes every frame on push");
        let fc = record
            .trace
            .fc_prev
            .map(|v| format!("{:5.1}%", v * 100.0))
            .unwrap_or_else(|| "  n/a".into());
        println!(
            "frame {:2}: FC(prev) {fc} | {} | {} | skipped {:4} gaussians | map {}",
            record.trace.frame_index,
            if record.trace.refined { "refined " } else { "coarse  " },
            if record.trace.is_keyframe { "KEY    " } else { "non-key" },
            record.skipped_gaussians,
            record.trace.num_gaussians,
        );
    }

    // Evaluate tracking accuracy against ground truth.
    let ate = ate_rmse(slam.trajectory(), &data.gt_trajectory()) * 100.0;
    let trace = slam.trace();
    println!("\nATE RMSE: {ate:.2} cm");
    println!("refinement skipped on {:.0}% of frames", trace.refinement_skip_rate() * 100.0);
    println!(
        "selective mapping skipped {:.0}% of (gaussian, tile) pairs",
        trace.pair_skip_rate() * 100.0
    );
}
