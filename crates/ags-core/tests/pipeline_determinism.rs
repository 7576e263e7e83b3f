//! Determinism of the one driver across stage placements: `AgsSlam` with FC
//! on a worker (`Overlapped`) and with mapping on a worker too
//! (`MapOverlapped`) must produce **byte-identical** traces (canonical
//! encoding), trajectories and final Gaussian clouds to `Serial` at the same
//! map slack — moving a stage off the critical path never changes results.

use ags_core::config::PipelineConfig;
use ags_core::{AgsConfig, AgsSlam, PipelineMode};
use ags_scene::dataset::{Dataset, DatasetConfig, SceneId};
use std::sync::Arc;

fn dataset(scene: SceneId, frames: usize) -> Dataset {
    let dconfig =
        DatasetConfig { width: 64, height: 48, num_frames: frames * 4, ..DatasetConfig::tiny() };
    let mut data = Dataset::generate(scene, &dconfig);
    data.truncate(frames);
    data
}

/// Streams `data` through the driver under `mode` — keeping the config's
/// map slack — and drains it.
fn run(mut config: AgsConfig, mode: PipelineMode, depth: usize, data: &Dataset) -> AgsSlam {
    config.pipeline.mode = mode;
    config.pipeline.depth = depth;
    let mut slam = AgsSlam::new(config);
    // Pre-share the images once, as a zero-copy producer would.
    let shared: Vec<_> =
        data.frames.iter().map(|f| (Arc::new(f.rgb.clone()), Arc::new(f.depth.clone()))).collect();
    for (rgb, depth_img) in &shared {
        slam.push_frame(&data.camera, Arc::clone(rgb), Arc::clone(depth_img));
    }
    slam.finish();
    slam
}

/// The reference: every stage inline, at the config's map slack (for a
/// `MapOverlapped` config that is the deferred-map reference).
fn run_serial(config: AgsConfig, data: &Dataset) -> AgsSlam {
    run(config, PipelineMode::Serial, 1, data)
}

fn run_overlapped(config: AgsConfig, data: &Dataset, depth: usize) -> AgsSlam {
    run(config, PipelineMode::Overlapped, depth, data)
}

fn run_map_overlapped(config: AgsConfig, data: &Dataset, depth: usize) -> AgsSlam {
    run(config, PipelineMode::MapOverlapped, depth, data)
}

fn assert_bit_identical(reference: &AgsSlam, subject: &AgsSlam, label: &str) {
    assert_eq!(reference.trajectory(), subject.trajectory(), "{label}: trajectory");
    assert_eq!(
        reference.cloud().gaussians(),
        subject.cloud().gaussians(),
        "{label}: final Gaussian cloud"
    );
    assert_eq!(
        reference.trace().canonical_bytes(),
        subject.trace().canonical_bytes(),
        "{label}: canonical trace bytes"
    );
}

#[test]
fn overlapped_is_bit_identical_to_serial_across_scenes() {
    for scene in [SceneId::Xyz, SceneId::Desk2] {
        let data = dataset(scene, 8);
        let serial = run_serial(AgsConfig::tiny(), &data);
        for depth in [1usize, 2] {
            let overlapped = run_overlapped(AgsConfig::tiny(), &data, depth);
            assert_bit_identical(&serial, &overlapped, &format!("{scene:?} depth {depth}"));
        }
    }
}

#[test]
fn overlapped_matches_serial_with_audit_and_tile_work() {
    // Exercise the optional trace payloads (FP audit renders, sampled tile
    // work) through both placements.
    let mut config = AgsConfig::tiny();
    config.audit_false_positives = true;
    config.slam.tile_work_interval = 2;
    let data = dataset(SceneId::Xyz, 6);
    let serial = run_serial(config.clone(), &data);
    let overlapped = run_overlapped(config, &data, 2);
    assert_bit_identical(&serial, &overlapped, "audit+tile-work");
    // The payloads must actually be present, or this test checks nothing.
    assert!(serial.trace().frames.iter().any(|f| f.fp_rate.is_some()));
    assert!(serial.trace().frames.iter().any(|f| !f.tile_work.is_empty()));
}

#[test]
fn depth_one_with_slow_map_stage_stays_correct_under_backpressure() {
    // Stress: a deliberately stalled map stage makes the FC worker run ahead
    // and block on the bounded depth-1 channel. The run must neither
    // deadlock nor diverge from the serial reference.
    let mut config = AgsConfig::tiny();
    config.pipeline.stress_map_stall_ms = 5;
    let data = dataset(SceneId::Xyz, 6);
    let serial = run_serial(config.clone(), &data);
    let overlapped = run_overlapped(config, &data, 1);
    assert_bit_identical(&serial, &overlapped, "slow map stage, depth 1");
}

#[test]
fn batched_window_fc_is_bit_identical_across_drivers_and_thread_counts() {
    // The batched mapping-FC path: the codec retains an 8-keyframe window,
    // estimates it as one batch per frame, and mapping selects its window by
    // covisibility. Serial ≡ overlapped ≡ any worker count —
    // the full serial ≡ overlapped ≡ batched chain.
    use ags_math::Parallelism;
    let mut config = AgsConfig::tiny();
    config.codec.keyframe_window = 8;
    config.slam.covis_window = true;
    config.slam.mapping_window = 2;
    let data = dataset(SceneId::Desk2, 8);
    let serial_exec = {
        let mut c = config.clone();
        c.parallelism = Parallelism::serial();
        run_serial(c, &data)
    };
    for threads in [2usize, 8] {
        let mut c = config.clone();
        // min_items(0): tiny test frames must still exercise the executor.
        c.parallelism = Parallelism::with_threads(threads).min_items(0);
        let parallel = run_serial(c, &data);
        assert_eq!(serial_exec.trajectory(), parallel.trajectory(), "{threads} threads");
        assert_eq!(
            serial_exec.trace().canonical_bytes(),
            parallel.trace().canonical_bytes(),
            "{threads} threads"
        );
    }
    for depth in [1usize, 2] {
        let overlapped = run_overlapped(config.clone(), &data, depth);
        assert_eq!(serial_exec.trajectory(), overlapped.trajectory(), "depth {depth}");
        assert_eq!(
            serial_exec.cloud().gaussians(),
            overlapped.cloud().gaussians(),
            "depth {depth}"
        );
        assert_eq!(
            serial_exec.trace().canonical_bytes(),
            overlapped.trace().canonical_bytes(),
            "depth {depth}"
        );
    }
}

#[test]
fn covis_window_changes_selection_but_not_decisions() {
    // Covisibility-guided mapping reorders which keyframes train the map —
    // the FC decision stream itself (refine/keyframe designation) must stay
    // exactly the classic one, since it never depended on window selection.
    let data = dataset(SceneId::Desk2, 8);
    let classic = run_serial(AgsConfig::tiny(), &data);
    let mut config = AgsConfig::tiny();
    config.slam.covis_window = true;
    config.slam.mapping_window = 2;
    config.codec.keyframe_window = 4;
    let covis = run_serial(config, &data);
    let decisions = |slam: &AgsSlam| {
        slam.trace().frames.iter().map(|f| (f.refined, f.is_keyframe)).collect::<Vec<_>>()
    };
    assert_eq!(decisions(&classic), decisions(&covis));
}

// ---------------------------------------------------------------------------
// Track ‖ Map overlap (PipelineMode::MapOverlapped): the threaded map must be
// bit-identical to the serial *deferred-map* reference — `Serial` at the same
// map slack, where tracking reads the slack-stale epoch inline — independent
// of worker counts, FC lookahead depth, map slack and map-stage timing.
// ---------------------------------------------------------------------------

#[test]
fn map_overlapped_matches_deferred_serial_across_workers_depths_and_slack() {
    use ags_math::Parallelism;
    let data = dataset(SceneId::Xyz, 6);
    for slack in [1usize, 2] {
        let mut config = AgsConfig::tiny();
        config.pipeline = PipelineConfig::map_overlapped(1, slack);
        // One serial deferred-map reference per slack, serial kernels.
        let reference = {
            let mut c = config.clone();
            c.parallelism = Parallelism::serial();
            run_serial(c, &data)
        };
        for depth in [1usize, 2] {
            for threads in [1usize, 2, 8] {
                let mut c = config.clone();
                c.parallelism = if threads == 1 {
                    Parallelism::serial()
                } else {
                    // min_items(0): keep the executor path on tiny frames.
                    Parallelism::with_threads(threads).min_items(0)
                };
                let overlapped = run_map_overlapped(c, &data, depth);
                assert_bit_identical(
                    &reference,
                    &overlapped,
                    &format!("slack {slack} depth {depth} workers {threads}"),
                );
            }
        }
    }
}

#[test]
fn map_overlapped_survives_slow_map_backpressure() {
    // Stress: a deliberately stalled map stage forces tracking to block on
    // its contractual snapshot epoch while the FC worker saturates the
    // depth-1 channel. No deadlock, no divergence from the reference.
    let mut config = AgsConfig::tiny();
    config.pipeline = PipelineConfig::map_overlapped(1, 1);
    config.pipeline.stress_map_stall_ms = 5;
    let data = dataset(SceneId::Xyz, 6);
    let reference = run_serial(config.clone(), &data);
    let overlapped = run_map_overlapped(config, &data, 1);
    assert_bit_identical(&reference, &overlapped, "slow map stage, slack 1, depth 1");
}

#[test]
fn map_overlapped_matches_reference_with_audit_tile_work_and_covis_window() {
    // The optional trace payloads (FP audit, sampled tile work) and the
    // batched covisibility-window mapping path through the threaded
    // map.
    let mut config = AgsConfig::tiny();
    config.audit_false_positives = true;
    config.slam.tile_work_interval = 2;
    config.codec.keyframe_window = 4;
    config.slam.covis_window = true;
    config.slam.mapping_window = 2;
    config.pipeline = PipelineConfig::map_overlapped(2, 1);
    let data = dataset(SceneId::Desk2, 6);
    let reference = run_serial(config.clone(), &data);
    let overlapped = run_map_overlapped(config, &data, 2);
    assert_bit_identical(&reference, &overlapped, "audit+tile-work+covis window");
    assert!(reference.trace().frames.iter().any(|f| f.fp_rate.is_some()));
    assert!(reference.trace().frames.iter().any(|f| !f.tile_work.is_empty()));
}

#[test]
fn map_slack_defers_refinement_by_exactly_slack_epochs() {
    // White-box staleness semantics, the same in every mode: force every
    // frame to want refinement (thresh_t > 1). With slack s, frames 1..=s
    // still read the initial empty snapshot — their refinement is
    // structurally skipped — and frame s+1 is the first to refine against
    // Map(0)'s output. Slack 0 refines from frame 1 on.
    let data = dataset(SceneId::Xyz, 6);
    let mut config = AgsConfig::tiny();
    config.thresh_t = 1.01;
    for slack in [0usize, 1, 2] {
        config.pipeline.map_slack = slack;
        for mode in [PipelineMode::Serial, PipelineMode::Overlapped, PipelineMode::MapOverlapped] {
            let slam = run(config.clone(), mode, 1, &data);
            let flags: Vec<bool> = slam.trace().frames.iter().map(|f| f.refined).collect();
            assert!(flags[0], "{mode:?}: frame 0 anchors the trajectory");
            for (f, &flag) in flags.iter().enumerate().take(slack + 1).skip(1) {
                assert!(!flag, "{mode:?} slack {slack}: frame {f} sees the empty epoch-0 map");
            }
            assert!(
                flags[slack + 1..].iter().all(|&r| r),
                "{mode:?} slack {slack}: later frames refine"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Map compaction (contribution-driven pruning, cold-splat quantization and
// the per-stream byte budget) runs inside the map stage, so its decisions
// must be part of the same bit-identity contract: every placement, worker count
// and lookahead depth sees the exact same prunes, the exact same snapped
// parameters and the exact same byte accounting. The compaction trace fields
// are covered by `canonical_bytes()`, so the assertions below check them for
// free.
// ---------------------------------------------------------------------------

/// Aggressive compaction: every frame is a key frame (`thresh_m` > 1), so
/// contribution-driven pruning is scheduled often, and a tight byte budget
/// keeps the pressure path hot.
fn compaction_prune_config() -> AgsConfig {
    let mut config = AgsConfig::tiny();
    config.thresh_m = 1.01;
    config.slam.compaction = ags_splat::CompactionConfig {
        prune_interval: 2,
        prune_contribution_opacity: 0.9,
        quantize_cold_after: 1,
        map_bytes_budget: 48 * 1024,
    };
    config
}

/// Quantization-only compaction: chunks untouched for one published epoch
/// are snapped onto their 8-bit grids; nothing is ever pruned.
fn compaction_quantize_config() -> AgsConfig {
    let mut config = AgsConfig::tiny();
    config.slam.compaction =
        ags_splat::CompactionConfig { quantize_cold_after: 1, ..Default::default() };
    config
}

#[test]
fn compaction_is_bit_identical_across_drivers_and_worker_counts() {
    use ags_math::Parallelism;
    let data = dataset(SceneId::Xyz, 8);
    for (label, config, engages_prune) in [
        ("prune+budget", compaction_prune_config(), true),
        ("quantize-cold", compaction_quantize_config(), false),
    ] {
        let reference = {
            let mut c = config.clone();
            c.parallelism = Parallelism::serial();
            run_serial(c, &data)
        };
        // The compaction paths must actually fire, or the identity below
        // proves nothing about them.
        let frames = &reference.trace().frames;
        if engages_prune {
            assert!(frames.iter().any(|f| f.pruned > 0), "{label}: prune never fired");
        } else {
            assert!(
                frames.iter().any(|f| f.quantized_splats > 0),
                "{label}: quantizer never fired"
            );
        }
        for threads in [2usize, 8] {
            let mut c = config.clone();
            c.parallelism = Parallelism::with_threads(threads).min_items(0);
            let parallel = run_serial(c, &data);
            assert_eq!(
                reference.cloud().gaussians(),
                parallel.cloud().gaussians(),
                "{label}: cloud, {threads} threads"
            );
            assert_eq!(
                reference.trace().canonical_bytes(),
                parallel.trace().canonical_bytes(),
                "{label}: trace, {threads} threads"
            );
        }
        for depth in [1usize, 2] {
            let overlapped = run_overlapped(config.clone(), &data, depth);
            assert_bit_identical(&reference, &overlapped, &format!("{label} depth {depth}"));
        }
    }
}

#[test]
fn compaction_map_overlapped_matches_deferred_serial() {
    use ags_math::Parallelism;
    let data = dataset(SceneId::Xyz, 6);
    for (label, mut config) in [
        ("prune+budget", compaction_prune_config()),
        ("quantize-cold", compaction_quantize_config()),
    ] {
        config.pipeline = PipelineConfig::map_overlapped(1, 1);
        let reference = {
            let mut c = config.clone();
            c.parallelism = Parallelism::serial();
            run_serial(c, &data)
        };
        for depth in [1usize, 2] {
            for threads in [2usize, 8] {
                let mut c = config.clone();
                c.parallelism = Parallelism::with_threads(threads).min_items(0);
                let overlapped = run_map_overlapped(c, &data, depth);
                assert_bit_identical(
                    &reference,
                    &overlapped,
                    &format!("{label} depth {depth} workers {threads}"),
                );
            }
        }
    }
}

#[test]
fn compaction_shrinks_the_map_within_ate_tolerance() {
    use ags_track::ate::ate_rmse;
    let data = dataset(SceneId::Xyz, 8);
    let full = run_serial(AgsConfig::tiny(), &data);
    let mut config = AgsConfig::tiny();
    config.slam.compaction = ags_splat::CompactionConfig {
        prune_interval: 1,
        prune_contribution_opacity: 0.9,
        quantize_cold_after: 1,
        map_bytes_budget: 32 * 1024,
    };
    let compacted = run_serial(config, &data);
    let gt = data.gt_trajectory();
    let (ate_full, ate_compact) =
        (ate_rmse(full.trajectory(), &gt), ate_rmse(compacted.trajectory(), &gt));
    assert!(
        ate_compact <= ate_full + 0.02,
        "compaction must not wreck tracking: {ate_compact} vs {ate_full}"
    );
    let resident = |slam: &AgsSlam| slam.trace().frames.last().unwrap().map_bytes;
    let (full_bytes, compact_bytes) = (resident(&full), resident(&compacted));
    assert!(
        compact_bytes * 10 <= full_bytes * 8,
        "steady-state map at least 20% smaller: {compact_bytes} vs {full_bytes} bytes"
    );
}

#[test]
fn compaction_at_a_tight_budget_sheds_a_map_heavy_stream() {
    // Refinement on every frame (S2's handheld-jerky motion), ten mapping
    // iterations, FullSearch FC over a keyframe window: a budget at 60 % of
    // the uncompacted footprint must leave the steady-state map ≥ 30 %
    // smaller without wrecking tracking.
    use ags_track::ate::ate_rmse;
    let dconfig = DatasetConfig { width: 96, height: 72, num_frames: 8, ..DatasetConfig::tiny() };
    let data = Dataset::generate(SceneId::S2, &dconfig);
    let mut config = AgsConfig::tiny();
    config.slam.tile_work_interval = 0;
    config.slam.mapping_iterations = 10;
    config.codec.search = ags_codec::SearchKind::FullSearch;
    config.codec.search_range = 16;
    config.codec.keyframe_window = 4;
    config.parallelism = ags_math::Parallelism::serial();
    let full = run_serial(config.clone(), &data);
    let resident = |slam: &AgsSlam| slam.trace().frames.last().unwrap().map_bytes;
    config.slam.compaction = ags_splat::CompactionConfig {
        prune_interval: 1,
        prune_contribution_opacity: 0.9,
        quantize_cold_after: 1,
        map_bytes_budget: resident(&full) * 3 / 5,
    };
    let compacted = run_serial(config, &data);
    let (full_bytes, compact_bytes) = (resident(&full), resident(&compacted));
    assert!(
        compact_bytes * 10 <= full_bytes * 7,
        "compaction must shed >= 30% of the steady-state map: {compact_bytes} vs {full_bytes}"
    );
    let gt = data.gt_trajectory();
    let (ate_full, ate_compact) =
        (ate_rmse(full.trajectory(), &gt), ate_rmse(compacted.trajectory(), &gt));
    assert!(
        ate_compact <= ate_full + 0.05,
        "compaction must not wreck tracking: {ate_compact} vs {ate_full}"
    );
}
