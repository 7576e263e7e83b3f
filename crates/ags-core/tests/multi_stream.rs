//! Multi-stream server determinism, fairness and isolation.
//!
//! The contract: `S` streams driven through one [`MultiStreamServer`] —
//! sharing a single worker pool — produce, per stream,
//! **bit-identical** trajectories, final Gaussian clouds and canonical
//! traces to running that stream alone (`AgsSlam` in `Serial` mode at the
//! stream's map slack is the solo reference — for a `MapOverlapped` stream
//! that is the deferred-map reference). Sharing the executor is pure
//! scheduling; it must never leak between streams.

use ags_core::{
    AgsConfig, AgsSlam, MultiStreamServer, PipelineConfig, ServerConfig, StreamError, StreamPolicy,
};
use ags_scene::dataset::{Dataset, DatasetConfig, SceneId};
use std::sync::Arc;

fn dataset(scene: SceneId, frames: usize) -> Dataset {
    let dconfig =
        DatasetConfig { width: 64, height: 48, num_frames: frames * 4, ..DatasetConfig::tiny() };
    let mut data = Dataset::generate(scene, &dconfig);
    data.truncate(frames);
    data
}

/// The per-stream workload mix: distinct scenes so cross-stream leakage
/// cannot cancel out, and one policy per supported pipeline mode.
fn stream_mix(streams: usize) -> Vec<(SceneId, StreamPolicy)> {
    let mix = [
        (SceneId::Xyz, StreamPolicy::map_overlapped(1, 1)),
        (SceneId::Desk2, StreamPolicy::serial()),
        (SceneId::Room0, StreamPolicy::overlapped(2)),
        (SceneId::Office0, StreamPolicy::map_overlapped(2, 2)),
    ];
    mix.into_iter().cycle().take(streams).collect()
}

/// Everything semantic a stream produces.
type StreamResult = (Vec<ags_math::Se3>, Vec<ags_splat::Gaussian>, Vec<u8>);

/// Base config whose kernel knob is pinned parallel with the small-work
/// fallback disabled: these frames are tiny, and the whole point of the
/// suite is that every stream's kernel submissions really flow through the
/// shared pool. (The default codec knob inherits this, pool and all.)
fn pooled_base() -> AgsConfig {
    let mut base = AgsConfig::tiny();
    base.parallelism = ags_math::Parallelism::with_threads(4).min_items(0);
    base
}

/// The solo serial reference for one stream: `AgsSlam` with every stage
/// inline at the stream's map slack, serial kernels.
fn solo_reference(policy: StreamPolicy, data: &Dataset) -> StreamResult {
    let mut config = AgsConfig::tiny();
    config.pipeline = PipelineConfig { map_slack: policy.pipeline.map_slack, ..Default::default() };
    config.parallelism = ags_math::Parallelism::serial();
    let mut slam = AgsSlam::new(config);
    for frame in &data.frames {
        slam.push_frame_cloned(&data.camera, &frame.rgb, &frame.depth);
    }
    (slam.trajectory().to_vec(), slam.cloud().gaussians().to_vec(), slam.trace().canonical_bytes())
}

fn server_result(server: &MultiStreamServer, stream: usize) -> StreamResult {
    let slam = server.stream(stream).expect("stream in range");
    (slam.trajectory().to_vec(), slam.cloud().gaussians().to_vec(), slam.trace().canonical_bytes())
}

#[test]
fn shared_pool_streams_match_solo_references() {
    // S ∈ {1, 2, 4} mixed-mode streams × pool workers ∈ {1, 2, 8}: every
    // stream must be bit-identical to its solo serial reference.
    let frames = 5;
    let mix = stream_mix(4);
    let datasets: Vec<Dataset> = mix.iter().map(|(scene, _)| dataset(*scene, frames)).collect();
    let references: Vec<StreamResult> = mix
        .iter()
        .zip(&datasets)
        .map(|((_, policy), data)| solo_reference(*policy, data))
        .collect();

    for streams in [1usize, 2, 4] {
        for workers in [1usize, 2, 8] {
            let config = ServerConfig {
                streams,
                base: pooled_base(),
                per_stream: mix.iter().map(|(_, policy)| *policy).collect(),
                pool_workers: Some(workers),
            };
            let mut server = MultiStreamServer::new(config);
            // Round-robin across streams, as a capture mux would.
            for f in 0..frames {
                for (s, data) in datasets.iter().enumerate().take(streams) {
                    server
                        .push_frame(
                            s,
                            &data.camera,
                            Arc::new(data.frames[f].rgb.clone()),
                            Arc::new(data.frames[f].depth.clone()),
                        )
                        .expect("healthy stream");
                }
            }
            server.finish_all();
            for (s, reference) in references.iter().enumerate().take(streams) {
                assert_eq!(
                    *reference,
                    server_result(&server, s),
                    "stream {s} of {streams} on {workers} pool workers"
                );
            }
        }
    }
}

#[test]
fn a_slow_map_stream_cannot_starve_a_fast_stream() {
    // Stream 0: MapOverlapped with a deliberately stalled map stage, its
    // kernel submissions flooding the shared pool. Stream 1: serial-mode —
    // every push must return its record immediately (completion keeps exact
    // pace with pushes), no matter how far stream 0's backlog grows.
    let frames = 6;
    let slow_data = dataset(SceneId::Xyz, frames);
    let fast_data = dataset(SceneId::Desk2, frames);
    let mut slow_policy = StreamPolicy::map_overlapped(1, 1);
    slow_policy.pipeline.stress_map_stall_ms = 15;
    let config = ServerConfig {
        streams: 2,
        base: pooled_base(),
        per_stream: vec![slow_policy, StreamPolicy::serial()],
        pool_workers: Some(2),
    };
    let mut server = MultiStreamServer::new(config);
    let mut fast_completed = 0usize;
    for f in 0..frames {
        server
            .push_frame(
                0,
                &slow_data.camera,
                Arc::new(slow_data.frames[f].rgb.clone()),
                Arc::new(slow_data.frames[f].depth.clone()),
            )
            .expect("slow stream");
        let record = server
            .push_frame(
                1,
                &fast_data.camera,
                Arc::new(fast_data.frames[f].rgb.clone()),
                Arc::new(fast_data.frames[f].depth.clone()),
            )
            .expect("fast stream");
        fast_completed += record.is_some() as usize;
        assert_eq!(
            fast_completed,
            f + 1,
            "fast stream frame {f} must complete before the next push — slow stream \
             backpressure may not leak across streams"
        );
    }
    server.finish_all();
    // Both streams still finish correctly, and the slow stream's stall time
    // (snapshot waits behind its stalled mapper) is visible in the stats.
    assert_eq!(server.stream(0).unwrap().trajectory().len(), frames);
    assert_eq!(server.stream(1).unwrap().trajectory().len(), frames);
    let stats = server.stats();
    assert_eq!(stats.completed_frames(), 2 * frames);
    assert!(
        stats.per_stream[0].stage_totals.stall_s > 0.0,
        "the stalled map stage must surface as stream-0 stall time"
    );
    assert_eq!(
        stats.per_stream[1].stage_totals.stall_s, 0.0,
        "a serial stream never blocks on pipeline backpressure"
    );
    assert!(stats.total.stall_s >= stats.max.stall_s);
}

#[test]
fn a_panicking_stream_does_not_poison_the_pool_or_its_neighbours() {
    let frames = 4;
    let good_data = dataset(SceneId::Xyz, frames);
    let reference = solo_reference(StreamPolicy::map_overlapped(1, 1), &good_data);
    let config = ServerConfig {
        streams: 2,
        base: pooled_base(),
        // The panicking stream runs serially so the panic surfaces on the
        // push itself (worker-thread panics surface one push later).
        per_stream: vec![StreamPolicy::serial(), StreamPolicy::map_overlapped(1, 1)],
        pool_workers: Some(2),
    };
    let mut server = MultiStreamServer::new(config);
    // Frame 0 on both streams is healthy.
    for (s, data) in [&good_data, &good_data].into_iter().enumerate() {
        server
            .push_frame(
                s,
                &data.camera,
                Arc::new(data.frames[0].rgb.clone()),
                Arc::new(data.frames[0].depth.clone()),
            )
            .expect("healthy pushes");
    }
    // Stream 0 then receives a frame of the wrong resolution — the codec
    // panics on the plane-dimension mismatch.
    let bad = dataset(SceneId::Xyz, 2);
    let bad_rgb = {
        let dconfig = DatasetConfig { width: 32, height: 24, ..DatasetConfig::tiny() };
        let wrong = Dataset::generate(SceneId::Xyz, &dconfig);
        Arc::new(wrong.frames[0].rgb.clone())
    };
    let err = server
        .push_frame(0, &bad.camera, bad_rgb, Arc::new(bad.frames[0].depth.clone()))
        .unwrap_err();
    let StreamError::Poisoned { stream: 0, panic } = err else {
        panic!("expected stream 0 poisoned, got {err:?}");
    };
    assert!(!panic.is_empty(), "the panic payload message is captured");
    assert!(server.is_poisoned(0));
    assert!(!server.is_poisoned(1));
    // Every further use of stream 0 stays rejected — and still carries the
    // original panic context, not a bare index.
    let later = server
        .push_frame(
            0,
            &good_data.camera,
            Arc::new(good_data.frames[1].rgb.clone()),
            Arc::new(good_data.frames[1].depth.clone()),
        )
        .unwrap_err();
    assert_eq!(later, StreamError::Poisoned { stream: 0, panic: panic.clone() });
    // …while stream 1 — submitting to the same pool — runs to completion
    // bit-identically to its solo reference.
    for f in 1..frames {
        server
            .push_frame(
                1,
                &good_data.camera,
                Arc::new(good_data.frames[f].rgb.clone()),
                Arc::new(good_data.frames[f].depth.clone()),
            )
            .expect("healthy stream survives its neighbour's panic");
    }
    let finished = server.finish_all();
    assert!(finished[0].is_empty(), "poisoned stream drains nothing");
    assert_eq!(reference, server_result(&server, 1), "stream 1 unaffected by the panic");
    assert!(server.stats().per_stream[0].poisoned);
}

#[test]
fn per_stream_byte_budgets_cap_maps_and_surface_in_stats() {
    // Stream 0 carries a map-byte budget through its policy; stream 1 runs
    // the same scene uncapped. The budget must engage compaction on stream 0
    // only, and the per-stream memory footprint must be visible in stats().
    let frames = 8;
    let data = dataset(SceneId::Xyz, frames);
    let config = ServerConfig {
        streams: 2,
        base: pooled_base(),
        per_stream: vec![
            StreamPolicy::map_overlapped(1, 1).with_map_bytes_budget(48 * 1024),
            StreamPolicy::map_overlapped(1, 1),
        ],
        pool_workers: Some(2),
    };
    let mut server = MultiStreamServer::new(config);
    for f in 0..frames {
        for s in 0..2 {
            server
                .push_frame(
                    s,
                    &data.camera,
                    Arc::new(data.frames[f].rgb.clone()),
                    Arc::new(data.frames[f].depth.clone()),
                )
                .expect("healthy stream");
        }
    }
    server.finish_all();

    let pruned_total = |s: usize| -> usize {
        server.stream(s).unwrap().trace().frames.iter().map(|f| f.pruned).sum()
    };
    assert!(pruned_total(0) > 0, "budget pressure must prune the capped stream");
    assert_eq!(pruned_total(1), 0, "the uncapped stream is never compacted");

    let stats = server.stats();
    let (capped, free) = (&stats.per_stream[0], &stats.per_stream[1]);
    assert!(
        capped.map_bytes < free.map_bytes,
        "same scene, budgeted stream must be smaller: {} vs {}",
        capped.map_bytes,
        free.map_bytes
    );
    // The stats mirror the live streams exactly.
    assert_eq!(capped.map_splats, server.stream(0).unwrap().cloud().len());
    assert_eq!(free.map_splats, server.stream(1).unwrap().cloud().len());
    assert_eq!(free.map_bytes, free.map_splats as u64 * 56, "uncapped stream stays full precision");
    assert_eq!(stats.map_bytes_total(), capped.map_bytes + free.map_bytes);
}

#[test]
fn stats_aggregate_sums_and_maxima_across_streams() {
    let frames = 4;
    let mix = stream_mix(3);
    let datasets: Vec<Dataset> = mix.iter().map(|(scene, _)| dataset(*scene, frames)).collect();
    let config = ServerConfig {
        streams: 3,
        base: pooled_base(),
        per_stream: mix.iter().map(|(_, policy)| *policy).collect(),
        pool_workers: Some(1),
    };
    let mut server = MultiStreamServer::new(config);
    for f in 0..frames {
        for (s, data) in datasets.iter().enumerate() {
            server
                .push_frame(
                    s,
                    &data.camera,
                    Arc::new(data.frames[f].rgb.clone()),
                    Arc::new(data.frames[f].depth.clone()),
                )
                .expect("healthy stream");
        }
    }
    server.finish_all();
    let stats = server.stats();
    assert_eq!(stats.per_stream.len(), 3);
    assert_eq!(stats.completed_frames(), 3 * frames);
    let mut track_sum = 0.0;
    let mut track_max = 0.0f64;
    for s in &stats.per_stream {
        assert_eq!(s.pushed, frames);
        assert_eq!(s.completed, frames);
        assert!(s.stage_totals.track_s > 0.0);
        track_sum += s.stage_totals.track_s;
        track_max = track_max.max(s.stage_totals.track_s);
    }
    assert!((stats.total.track_s - track_sum).abs() < 1e-12);
    assert!((stats.max.track_s - track_max).abs() < 1e-12);
    assert!(stats.total.map_s >= stats.max.map_s);
}
