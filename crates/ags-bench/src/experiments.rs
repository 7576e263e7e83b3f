//! One generator per paper table/figure.

use crate::context::{run_scene, BenchProfile, Context};
use crate::table::{d2, f2, pct, Table};
use ags_codec::{Covisibility, CovisibilityBand};
use ags_math::stats::geomean;
use ags_scene::dataset::SceneId;
use ags_sim::energy::efficiency_ratio;
use ags_sim::platform::{AgsFeatures, AgsModel, AgsVariant, GpuModel, GsCoreModel};
use ags_sim::{area_table, AreaRow};

fn tum(ctx: &mut Context) -> Vec<SceneId> {
    SceneId::TUM.to_vec().tap(|ids| {
        for id in ids.iter() {
            ctx.run(*id);
        }
    })
}

trait Tap: Sized {
    fn tap(self, f: impl FnOnce(&Self)) -> Self {
        f(&self);
        self
    }
}
impl<T> Tap for T {}

/// Table 1: category comparison (measured rows for the implemented systems).
pub fn table1(ctx: &mut Context) -> Table {
    let mut t = Table::new(
        "table1",
        "SLAM category comparison on the Desk stand-in (measured)",
        &["System", "Tracking ATE (cm)", "Mapping PSNR (dB)", "Latency (ms/frame, GPU-Server)"],
    );
    let gpu = GpuModel::a100();
    let run = ctx.run(SceneId::Desk);
    let base_ms =
        gpu.run_trace(&run.trace_baseline).total_ms / run.trace_baseline.frames.len() as f64;
    let ags_model = AgsModel::new(AgsVariant::server());
    let ags_ms = ags_model.run_trace(&run.trace_ags).total_ms / run.trace_ags.frames.len() as f64;
    t.push_row(vec![
        "SplaTAM-style 3DGS-SLAM (baseline)".into(),
        f2(run.eval_baseline.ate_cm),
        f2(run.eval_baseline.psnr_db),
        d2(base_ms),
    ]);
    t.push_row(vec![
        "Trad-SLAM (ORB-SLAM2 stand-in)".into(),
        f2(run.classical_ate_cm),
        "n/a (sparse map)".into(),
        "<0.1".into(),
    ]);
    t.push_row(vec![
        "AGS (this work)".into(),
        f2(run.eval_ags.ate_cm),
        f2(run.eval_ags.psnr_db),
        d2(ags_ms),
    ]);
    t
}

/// Table 2: tracking accuracy (ATE RMSE, cm) on the TUM stand-ins.
pub fn table2(ctx: &mut Context) -> Table {
    let ids = tum(ctx);
    let mut t = Table::new(
        "table2",
        "Tracking accuracy ATE RMSE (cm), lower is better",
        &["System", "Desk", "Desk2", "Room", "Xyz", "House", "GeoMean"],
    );
    let mut rows: Vec<(&str, Vec<f32>)> = vec![
        ("SplaTAM (3DGS)", ids.iter().map(|id| ctx.run(*id).eval_baseline.ate_cm).collect()),
        ("AGS (3DGS)", ids.iter().map(|id| ctx.run(*id).eval_ags.ate_cm).collect()),
        ("Orb-SLAM2 (Trad)", ids.iter().map(|id| ctx.run(*id).classical_ate_cm).collect()),
    ];
    for (name, vals) in rows.drain(..) {
        let mut cells = vec![name.to_string()];
        cells.extend(vals.iter().map(|v| f2(*v)));
        cells.push(f2(geomean(&vals)));
        t.push_row(cells);
    }
    t
}

/// Fig. 3: execution-time breakdown of the baseline (tracking vs mapping).
pub fn fig03(ctx: &mut Context) -> Table {
    let ids = tum(ctx);
    let gpu = GpuModel::a100();
    let mut t = Table::new(
        "fig03",
        "Baseline time per frame on GPU-Server (ms): tracking dominates",
        &["Scene", "Tracking", "Mapping", "Tracking share"],
    );
    let mut shares = Vec::new();
    for id in ids {
        let run = ctx.run(id);
        let times = gpu.run_trace(&run.trace_baseline);
        let n = run.trace_baseline.frames.len() as f64;
        let track = times.tracking_ms() / n;
        let map = times.mapping_ms / n;
        let share = track / (track + map);
        shares.push(share as f32);
        t.push_row(vec![id.name().into(), d2(track), d2(map), pct(share as f32)]);
    }
    t.push_row(vec!["GeoMean".into(), "".into(), "".into(), pct(geomean(&shares))]);
    t
}

/// Fig. 4: accuracy under reduced *baseline* tracking iterations, split by
/// FC (the paper reduces the baseline's training iterations for high/low-FC
/// frame groups and reports the accuracy loss).
pub fn fig04(profile: &BenchProfile) -> Table {
    use ags_codec::{CodecConfig, LumaPlane, MotionEstimator};
    use ags_scene::dataset::Dataset;
    use ags_slam::BaselineSlam;
    let mut t = Table::new(
        "fig04",
        "Pose accuracy (%) vs baseline tracking iterations, high- vs low-FC frames",
        &["Iterations", "High-FC accuracy", "Low-FC accuracy"],
    );
    let sweep = BenchProfile::sweep();
    let mut dataset = Dataset::generate(SceneId::Desk, &sweep.dataset_config());
    dataset.truncate(sweep.frames);
    // Per-adjacent-frame covisibility from the codec.
    let est = MotionEstimator::new(CodecConfig::default());
    let mut fc = vec![None];
    for w in dataset.frames.windows(2) {
        let a = LumaPlane::from_rgb(&w[0].rgb);
        let b = LumaPlane::from_rgb(&w[1].rgb);
        fc.push(Some(est.estimate(&b, &a).covisibility()));
    }
    let gt = dataset.gt_trajectory();
    let budgets = [profile.tracking_iterations, 8, 4, 2];
    let mut base_high = 0.0f32;
    let mut base_low = 0.0f32;
    for (i, iters) in budgets.iter().enumerate() {
        let mut config = sweep.slam_config();
        config.tracking_iterations = *iters;
        let mut slam = BaselineSlam::new(config);
        for frame in &dataset.frames {
            slam.process_frame(&dataset.camera, &frame.rgb, &frame.depth);
        }
        let mut high_err = Vec::new();
        let mut low_err = Vec::new();
        for (k, pose) in slam.trajectory().iter().enumerate() {
            let Some(Some(c)) = fc.get(k) else { continue };
            let err = pose.translation_distance(&gt[k]);
            if c.value() >= 0.9 {
                high_err.push(err);
            } else {
                low_err.push(err);
            }
        }
        let high = ags_math::stats::mean(&high_err).max(1e-6);
        let low = ags_math::stats::mean(&low_err).max(1e-6);
        if i == 0 {
            base_high = high;
            base_low = low;
        }
        let acc = |err: f32, base: f32| 100.0 * (base / err).min(1.0);
        t.push_row(vec![iters.to_string(), f2(acc(high, base_high)), f2(acc(low, base_low))]);
    }
    t
}

/// Fig. 5: fraction of non-contributory Gaussians per scene.
pub fn fig05(ctx: &mut Context) -> Table {
    let ids = tum(ctx);
    let mut t = Table::new(
        "fig05",
        "Gaussians with no contribution to any pixel (share of touched)",
        &["Scene", "Non-contributory", "Contributory"],
    );
    let mut fracs = Vec::new();
    for id in ids {
        let f = ctx.run(id).non_contributory_fraction;
        fracs.push(f);
        t.push_row(vec![id.name().into(), pct(f), pct(1.0 - f)]);
    }
    t.push_row(vec!["Mean".into(), pct(ags_math::stats::mean(&fracs)), "".into()]);
    t
}

/// Fig. 6: contribution-set similarity vs covisibility level.
pub fn fig06(ctx: &mut Context) -> Table {
    use ags_splat::audit::{audit_contributions, contribution_similarity};
    let mut t = Table::new(
        "fig06",
        "Share of non-contributory Gaussians remaining non-contributory, by FC level",
        &["FC level", "Desk", "Desk2"],
    );
    let mut columns: Vec<Vec<(u8, f32)>> = Vec::new();
    for id in [SceneId::Desk, SceneId::Desk2] {
        let run = ctx.run(id);
        let codec = ags_codec::MotionEstimator::new(ags_codec::CodecConfig::default());
        let mut samples = Vec::new();
        // Sample frame pairs at several temporal offsets: nearby pairs give
        // the high-FC levels, distant pairs the low ones.
        let n = run.dataset.frames.len();
        let mut pairs = Vec::new();
        for offset in [1usize, 3, 6, 10, 16] {
            for i in (0..n.saturating_sub(offset)).step_by(4) {
                pairs.push((i, i + offset));
            }
        }
        for (i, j) in pairs {
            let fc = {
                let a = ags_codec::LumaPlane::from_rgb(&run.dataset.frames[i].rgb);
                let b = ags_codec::LumaPlane::from_rgb(&run.dataset.frames[j].rgb);
                codec.estimate(&b, &a).covisibility()
            };
            let map = run.final_cloud();
            let audit_a =
                audit_contributions(map, &run.dataset.camera, &run.dataset.frames[i].gt_pose);
            let audit_b =
                audit_contributions(map, &run.dataset.camera, &run.dataset.frames[j].gt_pose);
            samples.push((fc.level().0, contribution_similarity(&audit_a, &audit_b)));
        }
        columns.push(samples);
    }
    for level in 1..=5u8 {
        let cell = |samples: &[(u8, f32)]| {
            let vals: Vec<f32> =
                samples.iter().filter(|(l, _)| *l == level).map(|(_, s)| *s).collect();
            if vals.is_empty() {
                "-".to_string()
            } else {
                pct(ags_math::stats::mean(&vals))
            }
        };
        t.push_row(vec![format!("level {level}"), cell(&columns[0]), cell(&columns[1])]);
    }
    t
}

/// Table 3: area breakdown of the AGS design points.
pub fn table3() -> Table {
    let mut t = Table::new(
        "table3",
        "Area of AGS (28 nm): Edge / Server",
        &["Module", "Component", "Remarks", "Edge (mm2)", "Server (mm2)"],
    );
    let rows: Vec<AreaRow> = area_table();
    for r in &rows {
        t.push_row(vec![
            r.module.into(),
            r.component.into(),
            r.remarks.clone(),
            d2(r.edge_mm2),
            d2(r.server_mm2),
        ]);
    }
    let (edge, server) = ags_sim::area::total_area();
    t.push_row(vec!["Total".into(), "".into(), "Edge/Server".into(), d2(edge), d2(server)]);
    t
}

/// Fig. 14: PSNR of baseline vs AGS across all scenes.
pub fn fig14(ctx: &mut Context) -> Table {
    let mut t = Table::new(
        "fig14",
        "Mapping quality PSNR (dB): baseline vs AGS",
        &["Scene", "Baseline", "AGS", "Delta"],
    );
    let mut base = Vec::new();
    let mut ags = Vec::new();
    for id in SceneId::ALL {
        let run = ctx.run(id);
        base.push(run.eval_baseline.psnr_db);
        ags.push(run.eval_ags.psnr_db);
        t.push_row(vec![
            id.name().into(),
            f2(run.eval_baseline.psnr_db),
            f2(run.eval_ags.psnr_db),
            f2(run.eval_ags.psnr_db - run.eval_baseline.psnr_db),
        ]);
    }
    t.push_row(vec![
        "GeoMean".into(),
        f2(geomean(&base)),
        f2(geomean(&ags)),
        f2(geomean(&ags) - geomean(&base)),
    ]);
    t
}

/// Fig. 15: speedups of AGS over GPUs and GSCore (server + edge).
pub fn fig15(ctx: &mut Context) -> Table {
    let mut t = Table::new(
        "fig15",
        "Speedup over the GPU baseline (higher is better)",
        &["Scene", "GSCore-Server", "AGS-Server", "GSCore-Edge", "AGS-Edge"],
    );
    let mut cols: [Vec<f32>; 4] = Default::default();
    for id in SceneId::ALL {
        let run = ctx.run(id);
        let base_s = GpuModel::a100().run_trace(&run.trace_baseline).total_ms;
        let base_e = GpuModel::xavier().run_trace(&run.trace_baseline).total_ms;
        let gs_s = base_s / GsCoreModel::server().run_trace(&run.trace_baseline).total_ms;
        let ags_s = base_s / AgsModel::new(AgsVariant::server()).run_trace(&run.trace_ags).total_ms;
        let gs_e = base_e / GsCoreModel::edge().run_trace(&run.trace_baseline).total_ms;
        let ags_e = base_e / AgsModel::new(AgsVariant::edge()).run_trace(&run.trace_ags).total_ms;
        for (c, v) in cols.iter_mut().zip([gs_s, ags_s, gs_e, ags_e]) {
            c.push(v as f32);
        }
        t.push_row(vec![id.name().into(), d2(gs_s), d2(ags_s), d2(gs_e), d2(ags_e)]);
    }
    t.push_row(vec![
        "GeoMean".into(),
        f2(geomean(&cols[0])),
        f2(geomean(&cols[1])),
        f2(geomean(&cols[2])),
        f2(geomean(&cols[3])),
    ]);
    t
}

/// Fig. 16: energy efficiency of AGS over the GPUs.
pub fn fig16(ctx: &mut Context) -> Table {
    let mut t = Table::new(
        "fig16",
        "Energy efficiency (GPU energy / AGS energy)",
        &["Scene", "AGS-Server vs A100", "AGS-Edge vs Xavier"],
    );
    let mut cols: [Vec<f32>; 2] = Default::default();
    for id in SceneId::ALL {
        let run = ctx.run(id);
        let gpu_s = GpuModel::a100();
        let gpu_e = GpuModel::xavier();
        let ags_s = AgsModel::new(AgsVariant::server());
        let ags_e = AgsModel::new(AgsVariant::edge());
        let r_s = efficiency_ratio(
            &gpu_s,
            &run.trace_baseline,
            &gpu_s.run_trace(&run.trace_baseline),
            &ags_s,
            &run.trace_ags,
            &ags_s.run_trace(&run.trace_ags),
        );
        let r_e = efficiency_ratio(
            &gpu_e,
            &run.trace_baseline,
            &gpu_e.run_trace(&run.trace_baseline),
            &ags_e,
            &run.trace_ags,
            &ags_e.run_trace(&run.trace_ags),
        );
        cols[0].push(r_s as f32);
        cols[1].push(r_e as f32);
        t.push_row(vec![id.name().into(), d2(r_s), d2(r_e)]);
    }
    t.push_row(vec!["GeoMean".into(), f2(geomean(&cols[0])), f2(geomean(&cols[1]))]);
    t
}

/// Fig. 17: tracking vs mapping speedups on the TUM scenes.
pub fn fig17(ctx: &mut Context) -> Table {
    let ids = tum(ctx);
    let mut t = Table::new(
        "fig17",
        "Per-task speedup of AGS over the GPU baseline",
        &["Scene", "Tracking (Server)", "Tracking (Edge)", "Mapping (Server)", "Mapping (Edge)"],
    );
    let mut cols: [Vec<f32>; 4] = Default::default();
    for id in ids {
        let run = ctx.run(id);
        let g_s = GpuModel::a100().run_trace(&run.trace_baseline);
        let g_e = GpuModel::xavier().run_trace(&run.trace_baseline);
        let a_s = AgsModel::new(AgsVariant::server()).run_trace(&run.trace_ags);
        let a_e = AgsModel::new(AgsVariant::edge()).run_trace(&run.trace_ags);
        let vals = [
            g_s.tracking_ms() / a_s.tracking_ms().max(1e-9),
            g_e.tracking_ms() / a_e.tracking_ms().max(1e-9),
            g_s.mapping_ms / a_s.mapping_ms.max(1e-9),
            g_e.mapping_ms / a_e.mapping_ms.max(1e-9),
        ];
        for (c, v) in cols.iter_mut().zip(vals) {
            c.push(v as f32);
        }
        t.push_row(vec![id.name().into(), d2(vals[0]), d2(vals[1]), d2(vals[2]), d2(vals[3])]);
    }
    t.push_row(vec![
        "GeoMean".into(),
        f2(geomean(&cols[0])),
        f2(geomean(&cols[1])),
        f2(geomean(&cols[2])),
        f2(geomean(&cols[3])),
    ]);
    t
}

/// Fig. 18: contribution of each algorithm/architecture feature.
pub fn fig18(ctx: &mut Context) -> Table {
    let ids = tum(ctx);
    let mut t = Table::new(
        "fig18",
        "Ablation: speedup over GPU-Base (GPU-Server baseline)",
        &["Scene", "GPU-AGS", "AGS-MAT", "AGS-MAT+GCM", "AGS-Full"],
    );
    let off = AgsFeatures { mat: true, gcm: false, scheduler: false, overlap: false };
    let gcm = AgsFeatures { gcm: true, ..off };
    let mut cols: [Vec<f32>; 4] = Default::default();
    for id in ids {
        let run = ctx.run(id);
        let gpu = GpuModel::a100();
        let base = gpu.run_trace(&run.trace_baseline).total_ms;
        // GPU-AGS: the AGS algorithm executed on the GPU (serial FC + tables).
        let gpu_ags = base / gpu.run_trace(&run.trace_ags).total_ms;
        let mat = base
            / AgsModel::with_features(AgsVariant::server(), off).run_trace(&run.trace_ags).total_ms;
        let mat_gcm = base
            / AgsModel::with_features(AgsVariant::server(), gcm).run_trace(&run.trace_ags).total_ms;
        let full = base / AgsModel::new(AgsVariant::server()).run_trace(&run.trace_ags).total_ms;
        for (c, v) in cols.iter_mut().zip([gpu_ags, mat, mat_gcm, full]) {
            c.push(v as f32);
        }
        t.push_row(vec![id.name().into(), d2(gpu_ags), d2(mat), d2(mat_gcm), d2(full)]);
    }
    t.push_row(vec![
        "GeoMean".into(),
        f2(geomean(&cols[0])),
        f2(geomean(&cols[1])),
        f2(geomean(&cols[2])),
        f2(geomean(&cols[3])),
    ]);
    t
}

/// Table 4: AGS vs directly integrating the coarse tracker with SplaTAM.
pub fn table4(ctx: &mut Context) -> Table {
    let ids = tum(ctx);
    let mut t = Table::new(
        "table4",
        "PSNR (dB): AGS vs Droid+SplatAM (coarse poses without refinement)",
        &["System", "Desk", "Desk2", "Room", "Xyz", "House", "GeoMean"],
    );
    let profile = ctx.profile;
    let mut ags_row = vec!["AGS".to_string()];
    let mut droid_row = vec!["Droid+SplatAM".to_string()];
    let mut ags_vals = Vec::new();
    let mut droid_vals = Vec::new();
    for id in ids {
        let ags_psnr = ctx.run(id).eval_ags.psnr_db;
        // Droid+SplatAM: never refine the coarse pose.
        let mut config = profile.ags_config();
        config.thresh_t = -1.0;
        config.audit_false_positives = false;
        let run = run_scene(id, &profile, config);
        ags_row.push(f2(ags_psnr));
        droid_row.push(f2(run.eval_ags.psnr_db));
        ags_vals.push(ags_psnr);
        droid_vals.push(run.eval_ags.psnr_db);
    }
    ags_row.push(f2(geomean(&ags_vals)));
    droid_row.push(f2(geomean(&droid_vals)));
    t.push_row(ags_row);
    t.push_row(droid_row);
    t
}

/// Figs. 19–21: hyper-parameter sensitivity sweeps on Desk.
pub fn fig19_21(profile: &BenchProfile) -> (Table, Table, Table) {
    let sweep = BenchProfile::sweep();
    let gpu = GpuModel::a100();
    let base_run = run_scene(SceneId::Desk, &sweep, sweep.ags_config());
    let base_ms = gpu.run_trace(&base_run.trace_baseline).total_ms;

    // Fig. 19: IterT.
    let mut t19 = Table::new(
        "fig19",
        "Sensitivity of IterT (refinement iterations)",
        &["IterT", "PSNR (dB)", "Speedup vs GPU"],
    );
    for iter_t in [1u32, 2, 4, 8, 12] {
        let mut config = sweep.ags_config();
        config.iter_t = iter_t;
        config.audit_false_positives = false;
        let run = run_scene(SceneId::Desk, &sweep, config);
        let ags_ms = AgsModel::new(AgsVariant::server()).run_trace(&run.trace_ags).total_ms;
        t19.push_row(vec![iter_t.to_string(), f2(run.eval_ags.psnr_db), d2(base_ms / ags_ms)]);
    }

    // Fig. 20: ThreshM (key-frame designation).
    let mut t20 = Table::new(
        "fig20",
        "Sensitivity of ThreshM (key/non-key designation)",
        &["ThreshM", "PSNR (dB)", "Theoretical saving"],
    );
    for thresh_m in [0.50f32, 0.70, 0.80, 0.88, 0.93] {
        let mut config = sweep.ags_config();
        config.thresh_m = thresh_m;
        config.audit_false_positives = false;
        let run = run_scene(SceneId::Desk, &sweep, config);
        t20.push_row(vec![
            pct(thresh_m),
            f2(run.eval_ags.psnr_db),
            pct(run.trace_ags.pair_skip_rate()),
        ]);
    }

    // Fig. 21: ThreshN (non-contributory designation), swept as multiples of
    // the paper-equivalent fraction.
    let mut t21 = Table::new(
        "fig21",
        "Sensitivity of ThreshN (non-contributory pixel count)",
        &["ThreshN (x paper fraction)", "PSNR (dB)", "Theoretical saving"],
    );
    for mult in [1.0f32, 10.0, 50.0, 200.0, 1000.0] {
        let mut config = sweep.ags_config();
        config.thresh_n_fraction *= mult;
        config.audit_false_positives = false;
        let run = run_scene(SceneId::Desk, &sweep, config);
        t21.push_row(vec![
            format!("{mult}x"),
            f2(run.eval_ags.psnr_db),
            pct(run.trace_ags.pair_skip_rate()),
        ]);
    }
    let _ = profile;
    (t19, t20, t21)
}

/// Fig. 22: distribution of adjacent-frame covisibility bands.
pub fn fig22(ctx: &mut Context) -> Table {
    let ids = tum(ctx);
    let mut t = Table::new(
        "fig22",
        "Share of adjacent frames by covisibility band",
        &["Scene", "High", "Medium", "Low"],
    );
    let mut highs = Vec::new();
    for id in ids {
        let run = ctx.run(id);
        let mut counts = [0usize; 3];
        let mut n = 0usize;
        for f in &run.trace_ags.frames {
            if let Some(fc) = f.fc_prev {
                let idx = match Covisibility::new(fc).band() {
                    CovisibilityBand::High => 0,
                    CovisibilityBand::Medium => 1,
                    CovisibilityBand::Low => 2,
                };
                counts[idx] += 1;
                n += 1;
            }
        }
        let frac = |c: usize| c as f32 / n.max(1) as f32;
        highs.push(frac(counts[0]));
        t.push_row(vec![
            id.name().into(),
            pct(frac(counts[0])),
            pct(frac(counts[1])),
            pct(frac(counts[2])),
        ]);
    }
    t.push_row(vec!["GeoMean".into(), pct(geomean(&highs)), "".into(), "".into()]);
    t
}

/// §6.2's false-positive metric as a small table.
pub fn fp_rate(ctx: &mut Context) -> Table {
    let ids = tum(ctx);
    let mut t = Table::new(
        "fp_rate",
        "False-positive rate of the non-contributory prediction",
        &["Scene", "FP rate"],
    );
    let mut vals = Vec::new();
    for id in ids {
        let v = ctx.run(id).mean_fp_rate;
        vals.push(v.max(1e-4));
        t.push_row(vec![id.name().into(), pct(v)]);
    }
    t.push_row(vec!["Mean".into(), pct(ags_math::stats::mean(&vals))]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::BenchProfile;

    fn tiny() -> BenchProfile {
        BenchProfile {
            width: 48,
            height: 36,
            frames: 5,
            tracking_iterations: 3,
            mapping_iterations: 2,
            iter_t: 2,
        }
    }

    #[test]
    fn table3_is_static_and_complete() {
        let t = table3();
        assert_eq!(t.rows.len(), 12, "11 components + total");
        assert!(t.to_markdown().contains("GS Array"));
    }

    #[test]
    fn table2_and_fig14_generate() {
        let mut ctx = Context::new(tiny());
        // Only exercise one scene by restricting via direct runs — the full
        // generators loop over TUM/ALL which would be slow in unit tests, so
        // this test only checks the cheapest generator end to end.
        let t1 = table1(&mut ctx);
        assert_eq!(t1.rows.len(), 3);
        assert!(t1.to_markdown().contains("AGS"));
    }
}
