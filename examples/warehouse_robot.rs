//! The paper's motivating scenario: a construction/warehouse robot must
//! finish scene modelling quickly before starting deliveries. Compares the
//! baseline (SplaTAM-style) against AGS on the same stream, reporting both
//! quality and modelled wall-clock on edge hardware.
//!
//! ```sh
//! cargo run --release --example warehouse_robot
//! ```

use ags::core::trace::WorkloadTrace;
use ags::prelude::*;
use ags::slam::evaluate_map;

fn main() {
    let config = DatasetConfig { width: 96, height: 72, num_frames: 24, ..Default::default() };
    let data = Dataset::generate(SceneId::House, &config);
    println!("house walkthrough: {} frames", data.frames.len());

    // Baseline SplaTAM-style run.
    let mut baseline = BaselineSlam::new(SlamConfig::default());
    let mut base_records = Vec::new();
    for frame in &data.frames {
        base_records.push(baseline.process_frame(&data.camera, &frame.rgb, &frame.depth));
    }
    let base_eval = evaluate_map(baseline.cloud(), &data.camera, baseline.trajectory(), &data, 4);
    let base_trace = WorkloadTrace::from_baseline(&base_records, config.width, config.height);

    // AGS run.
    let mut ags = AgsSlam::new(AgsConfig::default());
    for frame in &data.frames {
        ags.push_frame_cloned(&data.camera, &frame.rgb, &frame.depth);
    }
    let ags_eval = evaluate_map(ags.cloud(), &data.camera, ags.trajectory(), &data, 4);
    let ags_trace = ags.take_trace();

    // Model edge-device execution.
    let gpu = GpuModel::xavier();
    let accel = AgsModel::new(AgsVariant::edge());
    let gpu_ms = gpu.run_trace(&base_trace).total_ms;
    let ags_ms = accel.run_trace(&ags_trace).total_ms;

    println!("\n              {:>12} {:>12}", "baseline", "AGS");
    println!("ATE (cm)      {:>12.2} {:>12.2}", base_eval.ate_cm, ags_eval.ate_cm);
    println!("PSNR (dB)     {:>12.2} {:>12.2}", base_eval.psnr_db, ags_eval.psnr_db);
    println!("edge time(ms) {:>12.1} {:>12.1}", gpu_ms, ags_ms);
    println!(
        "\nmodelled edge speedup: {:.2}x — the robot starts delivering sooner",
        gpu_ms / ags_ms
    );
}
