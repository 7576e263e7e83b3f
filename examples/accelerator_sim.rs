//! Drives the cycle-level hardware models directly: runs one scene, then
//! sweeps the ablation ladder (GPU-Base → GPU-AGS → AGS-MAT → +GCM → Full)
//! and prints the area table.
//!
//! ```sh
//! cargo run --release --example accelerator_sim
//! ```

use ags::core::trace::WorkloadTrace;
use ags::prelude::*;
use ags::sim::area::total_area;
use ags::sim::energy::efficiency_ratio;
use ags::sim::platform::AgsFeatures;

fn main() {
    let config = DatasetConfig { width: 96, height: 72, num_frames: 20, ..Default::default() };
    let data = Dataset::generate(SceneId::Desk2, &config);

    // Collect the baseline and AGS workload traces.
    let mut baseline = BaselineSlam::new(SlamConfig::default());
    let mut records = Vec::new();
    for frame in &data.frames {
        records.push(baseline.process_frame(&data.camera, &frame.rgb, &frame.depth));
    }
    let base_trace = WorkloadTrace::from_baseline(&records, config.width, config.height);

    let mut ags = AgsSlam::new(AgsConfig::default());
    for frame in &data.frames {
        ags.push_frame_cloned(&data.camera, &frame.rgb, &frame.depth);
    }
    let ags_trace = ags.take_trace();

    let gpu = GpuModel::a100();
    let gpu_base = gpu.run_trace(&base_trace).total_ms;
    println!("GPU-Base (server):      {gpu_base:9.2} ms   1.00x");
    let gpu_ags = gpu.run_trace(&ags_trace).total_ms;
    println!("GPU-AGS:                {gpu_ags:9.2} ms   {:.2}x", gpu_base / gpu_ags);

    let ladder = [
        ("AGS-MAT", AgsFeatures { mat: true, gcm: false, scheduler: false, overlap: false }),
        ("AGS-MAT+GCM", AgsFeatures { mat: true, gcm: true, scheduler: false, overlap: false }),
        ("AGS-Full", AgsFeatures::full()),
    ];
    for (name, features) in ladder {
        let t = AgsModel::with_features(AgsVariant::server(), features).run_trace(&ags_trace);
        println!("{name:<23} {:9.2} ms   {:.2}x", t.total_ms, gpu_base / t.total_ms);
    }

    // Energy and area summaries.
    let accel = AgsModel::new(AgsVariant::server());
    let eff = efficiency_ratio(
        &gpu,
        &base_trace,
        &gpu.run_trace(&base_trace),
        &accel,
        &ags_trace,
        &accel.run_trace(&ags_trace),
    );
    let (edge_mm2, server_mm2) = total_area();
    println!("\nenergy efficiency vs A100: {eff:.1}x");
    println!("accelerator area: {edge_mm2:.2} mm2 (edge), {server_mm2:.2} mm2 (server) @ 28nm");
}
