//! Micro-benchmarks of the performance-critical kernels.
//!
//! Times the hot paths the AGS hardware accelerates — the SAD row kernel,
//! CODEC motion estimation and tile rasterization — in serial and parallel
//! mode, checks the parallel output is bit-identical before trusting its
//! timing, then times the **end-to-end** `process_frame` pipeline (serial
//! driver vs the thread-parallel kernels vs the FC-overlapped pipelined
//! driver of Fig. 9b), prints a table and writes the machine-readable
//! `BENCH_kernels.json` into the workspace root so the perf trajectory is
//! tracked from PR 1 onwards (the CI perf gate compares the end-to-end
//! numbers against the committed file).
//!
//! Run: `cargo bench -p ags-bench --bench kernels`
//! Env: `AGS_BENCH_THREADS=<n>` overrides the parallel worker count.

use ags_codec::{sad_kernel_name, CodecConfig, LumaPlane, MotionEstimator, SearchKind};
use ags_core::config::PipelineConfig;
use ags_core::{AgsConfig, AgsSlam, PipelinedAgsSlam};
use ags_math::parallel::Parallelism;
use ags_math::{Se3, Vec2, Vec3};
use ags_neural::DroidBackbone;
use ags_scene::dataset::{Dataset, DatasetConfig, SceneId};
use ags_scene::PinholeCamera;
use ags_sim::{GpeArrayConfig, GpeArraySim};
use ags_splat::backward::{backward_with, GradMode};
use ags_splat::cache::ProjectionCache;
use ags_splat::loss::compute_loss;
use ags_splat::project::{project_gaussians, SplatTerms};
use ags_splat::render::{rasterize, render, RenderOptions};
use ags_splat::tiles::GaussianTables;
use ags_splat::train::{train_pass, TrainScratch};
use ags_splat::{BackendKind, Gaussian, GaussianCloud};
use ags_track::coarse::{CoarseConfig, CoarseTracker};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Median wall-clock seconds of one invocation over `samples` timed batches.
fn time_it<F: FnMut()>(samples: usize, iters: usize, f: F) -> f64 {
    time_spread(samples, iters, f).median
}

/// Median-of-N timing with the spread it was taken from, in seconds.
struct Spread {
    median: f64,
    min: f64,
    max: f64,
}

impl Spread {
    fn scaled(self, factor: f64) -> Self {
        Self { median: self.median * factor, min: self.min * factor, max: self.max * factor }
    }

    /// `"<name>_ms"`, `"<name>_ms_min"` and `"<name>_ms_max"` JSON members.
    fn json_ms(&self, name: &str) -> String {
        format!(
            r#""{name}_ms": {:.4}, "{name}_ms_min": {:.4}, "{name}_ms_max": {:.4}"#,
            self.median, self.min, self.max
        )
    }
}

/// Wall-clock seconds of one invocation over `samples` timed batches.
fn time_spread<F: FnMut()>(samples: usize, iters: usize, mut f: F) -> Spread {
    f(); // warm-up
    let mut per_iter: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    per_iter.sort_unstable_by(f64::total_cmp);
    Spread {
        median: per_iter[per_iter.len() / 2],
        min: per_iter[0],
        max: per_iter[per_iter.len() - 1],
    }
}

struct MeResult {
    serial_blocks_per_s: f64,
    parallel_blocks_per_s: f64,
    speedup: f64,
    sad_evaluations: u64,
}

fn bench_motion_estimation(search: SearchKind, parallel: Parallelism) -> MeResult {
    let (w, h) = (512usize, 384usize);
    let reference = LumaPlane::from_fn(w, h, |x, y| (((x * 13 + y * 7) ^ (x * y / 5)) % 251) as u8);
    let current = LumaPlane::from_fn(w, h, |x, y| {
        ((((x + 3) * 13 + (y + 1) * 7) ^ ((x + 3) * (y + 1) / 5)) % 251) as u8
    });
    let serial_est = MotionEstimator::new(CodecConfig {
        search,
        parallelism: Parallelism::serial(),
        ..CodecConfig::default()
    });
    let parallel_est = MotionEstimator::new(CodecConfig {
        search,
        parallelism: parallel,
        ..CodecConfig::default()
    });

    let expect = serial_est.estimate(&current, &reference);
    assert_eq!(
        expect,
        parallel_est.estimate(&current, &reference),
        "parallel ME must be bit-identical"
    );
    let blocks = (expect.field.mb_cols * expect.field.mb_rows) as f64;

    // Interleaved min-of-N with alternating leg order: the minimum is the
    // least noise-sensitive statistic for a fixed workload, interleaving
    // decorrelates slow drift from the serial/parallel comparison, and
    // alternating which estimator is timed first removes ordering bias
    // (cache warmth, frequency ramps). With the small-work serial fallback,
    // a host whose pool would be starved runs both knobs through the
    // identical inline path — the ratio then measures noise only and must
    // sit at ~1.0.
    let (samples, iters) = match search {
        SearchKind::Diamond => (10, 20),
        SearchKind::FullSearch => (6, 2),
    };
    black_box(serial_est.estimate(&current, &reference)); // warm-up
    let mut serial_times = Vec::with_capacity(samples);
    let mut parallel_times = Vec::with_capacity(samples);
    let time_leg = |est: &MotionEstimator| {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(est.estimate(black_box(&current), black_box(&reference)));
        }
        start.elapsed().as_secs_f64() / iters as f64
    };
    for sample in 0..samples {
        if sample % 2 == 0 {
            serial_times.push(time_leg(&serial_est));
            parallel_times.push(time_leg(&parallel_est));
        } else {
            parallel_times.push(time_leg(&parallel_est));
            serial_times.push(time_leg(&serial_est));
        }
    }
    let min = |times: &[f64]| times.iter().copied().fold(f64::INFINITY, f64::min);
    let (t_serial, t_parallel) = (min(&serial_times), min(&parallel_times));
    MeResult {
        serial_blocks_per_s: blocks / t_serial,
        parallel_blocks_per_s: blocks / t_parallel,
        speedup: t_serial / t_parallel,
        sad_evaluations: expect.sad_evaluations,
    }
}

struct BatchedMeResult {
    pairs: usize,
    looped_pairs_per_s: f64,
    batched_pairs_per_s: f64,
    speedup: f64,
}

/// Times one frame's mapping-FC workload — ME of the current frame against
/// an 8-keyframe window — as 8 sequential `estimate` calls (8 executor
/// round-trips with a join barrier between pairs) versus one
/// `estimate_batch` submission scheduling all rows of all pairs at once.
///
/// Sized at SLAM frame scale (the resolution the mapping-FC stage actually
/// pushes per frame), where per-call setup and scheduling are a real
/// fraction of a pair's search work — the cost the batch amortises 8×.
/// With the small-work serial fallback this window is below the
/// `min_items_per_worker` floor for the two planned executors, so both
/// schedules run inline: the entry now tracks the *per-call overhead* the
/// batch amortises (and would regress if a change started paying the pool
/// on small work again). Interleaved min-of-N timing.
fn bench_batched_me(parallel: &Parallelism) -> BatchedMeResult {
    let (w, h, pairs) = (128usize, 96usize, 8usize);
    let current = LumaPlane::from_fn(w, h, |x, y| (((x * 13 + y * 7) ^ (x * y / 5)) % 251) as u8);
    let references: Vec<LumaPlane> = (1..=pairs)
        .map(|s| {
            LumaPlane::from_fn(w, h, |x, y| {
                ((((x + s) * 13 + y * 7) ^ ((x + s) * y / 5)) % 251) as u8
            })
        })
        .collect();
    let refs: Vec<&LumaPlane> = references.iter().collect();
    let threads = parallel.effective_threads().max(2);
    let pool = Arc::new(ags_math::WorkerPool::new(threads - 1));
    let est = MotionEstimator::new(CodecConfig {
        parallelism: Parallelism::with_threads(threads).on_pool(pool),
        ..CodecConfig::default()
    });

    // Bit-identity between the two schedules (and the serial reference)
    // before trusting any timing.
    let serial = MotionEstimator::new(CodecConfig {
        parallelism: Parallelism::serial(),
        ..CodecConfig::default()
    });
    let expect: Vec<_> = refs.iter().map(|r| serial.estimate(&current, r)).collect();
    let looped: Vec<_> = refs.iter().map(|r| est.estimate(&current, r)).collect();
    let batched = est.estimate_batch(&current, &refs);
    assert_eq!(expect, looped, "pooled per-pair ME must match serial");
    assert_eq!(expect, batched, "batched ME must match the per-pair loop");

    let (samples, iters) = (10usize, 16usize);
    let mut looped_times = Vec::with_capacity(samples);
    let mut batched_times = Vec::with_capacity(samples);
    let time_looped = || {
        let start = Instant::now();
        for _ in 0..iters {
            for r in &refs {
                black_box(est.estimate(black_box(&current), black_box(r)));
            }
        }
        start.elapsed().as_secs_f64() / iters as f64
    };
    let time_batched = || {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(est.estimate_batch(black_box(&current), black_box(&refs)));
        }
        start.elapsed().as_secs_f64() / iters as f64
    };
    // Alternate which schedule is timed first (see bench_motion_estimation).
    for sample in 0..samples {
        if sample % 2 == 0 {
            looped_times.push(time_looped());
            batched_times.push(time_batched());
        } else {
            batched_times.push(time_batched());
            looped_times.push(time_looped());
        }
    }
    let min = |times: &[f64]| times.iter().copied().fold(f64::INFINITY, f64::min);
    let (t_looped, t_batched) = (min(&looped_times), min(&batched_times));
    BatchedMeResult {
        pairs,
        looped_pairs_per_s: pairs as f64 / t_looped,
        batched_pairs_per_s: pairs as f64 / t_batched,
        speedup: t_looped / t_batched,
    }
}

struct RasterResult {
    tiles: usize,
    serial_tiles_per_s: f64,
    parallel_tiles_per_s: f64,
    speedup: f64,
}

fn bench_rasterization(parallel: Parallelism) -> RasterResult {
    let mut cloud = GaussianCloud::new();
    let mut rng = ags_math::Pcg32::seeded(1);
    for _ in 0..4000 {
        cloud.push(Gaussian::isotropic(
            Vec3::new(rng.range_f32(-2.0, 2.0), rng.range_f32(-1.5, 1.5), rng.range_f32(1.0, 5.0)),
            rng.range_f32(0.02, 0.1),
            Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32()),
            rng.range_f32(0.3, 0.9),
        ));
    }
    let camera = PinholeCamera::from_fov(256, 192, 1.3);
    let serial_opts = RenderOptions { parallelism: Parallelism::serial(), ..Default::default() };
    let parallel_opts = RenderOptions { parallelism: parallel, ..Default::default() };

    let expect = render(&cloud, &camera, &Se3::IDENTITY, &serial_opts);
    let got = render(&cloud, &camera, &Se3::IDENTITY, &parallel_opts);
    assert_eq!(expect.color.pixels(), got.color.pixels(), "parallel raster must be bit-identical");
    let tiles = ags_splat::tiles::TileGrid::for_camera(&camera).num_tiles();

    let t_serial = time_it(5, 3, || {
        black_box(render(black_box(&cloud), &camera, &Se3::IDENTITY, &serial_opts));
    });
    let t_parallel = time_it(5, 3, || {
        black_box(render(black_box(&cloud), &camera, &Se3::IDENTITY, &parallel_opts));
    });
    RasterResult {
        tiles,
        serial_tiles_per_s: tiles as f64 / t_serial,
        parallel_tiles_per_s: tiles as f64 / t_parallel,
        speedup: t_serial / t_parallel,
    }
}

struct SadResult {
    kernel: &'static str,
    scalar_mpix_per_s: f64,
    simd_mpix_per_s: f64,
    speedup: f64,
}

/// Times the dispatched SIMD SAD kernel (SSE2/NEON whole-block kernels for
/// 8×8 and 16×16 macro-blocks, portable chunked fallback) against the
/// scalar reference over a dense grid of block comparisons (the exact shape
/// the ME search issues).
fn bench_sad_kernel(block: usize) -> SadResult {
    let (w, h) = (512usize, 384usize);
    let a = LumaPlane::from_fn(w, h, |x, y| (((x * 31 + y * 17) ^ (x / 3 + y)) % 253) as u8);
    let b = LumaPlane::from_fn(w, h, |x, y| (((x * 29 + y * 23) ^ (x + y / 2 + 7)) % 253) as u8);
    let positions: Vec<(usize, usize, usize, usize)> = (0..h - block)
        .step_by(block)
        .flat_map(|y| {
            (0..w - block).step_by(block).map(move |x| {
                // A small deterministic reference offset, as the search would probe.
                let rx = (x + (x * 7 + y) % 5).min(w - block);
                let ry = (y + (y * 3 + x) % 5).min(h - block);
                (x, y, rx, ry)
            })
        })
        .collect();
    // Bit-identity before trusting timings (integer sums: must match exactly).
    let simd_sum: u64 =
        positions.iter().map(|&(x, y, rx, ry)| a.block_sad(x, y, &b, rx, ry, block) as u64).sum();
    let scalar_sum: u64 = positions
        .iter()
        .map(|&(x, y, rx, ry)| a.block_sad_scalar(x, y, &b, rx, ry, block) as u64)
        .sum();
    assert_eq!(simd_sum, scalar_sum, "SIMD SAD kernel must match the scalar reference");

    let pixels = (positions.len() * block * block) as f64;
    let t_scalar = time_it(5, 20, || {
        let mut acc = 0u64;
        for &(x, y, rx, ry) in &positions {
            acc += a.block_sad_scalar(x, y, black_box(&b), rx, ry, block) as u64;
        }
        black_box(acc);
    });
    let t_simd = time_it(5, 20, || {
        let mut acc = 0u64;
        for &(x, y, rx, ry) in &positions {
            acc += a.block_sad(x, y, black_box(&b), rx, ry, block) as u64;
        }
        black_box(acc);
    });
    SadResult {
        kernel: sad_kernel_name(),
        scalar_mpix_per_s: pixels / t_scalar / 1e6,
        simd_mpix_per_s: pixels / t_simd / 1e6,
        speedup: t_scalar / t_simd,
    }
}

struct E2eResult {
    frames: usize,
    width: usize,
    height: usize,
    serial_fps: f64,
    parallel_fps: f64,
    overlapped_fps: f64,
    overlap_speedup: f64,
    fc_ms: f64,
    track_ms: f64,
    map_ms: f64,
    vectorized_map_ms: f64,
    vectorized_map_speedup: f64,
    /// Lowest and highest reference/vectorized map-time ratio over the
    /// interleaved sample pairs — the spread the `perf_gate` floor must clear.
    vectorized_map_speedup_range: (f64, f64),
}

/// End-to-end `process_frame` workload: a short synthetic stream through the
/// full AGS pipeline. FullSearch ME over a widened window keeps the FC stage
/// a meaningful share of the frame so the Fig. 9(b) overlap is measurable on
/// multi-core hosts (on a single core the two drivers time-share and should
/// land at parity — the overlap can hide FC time only behind real idle
/// cycles).
fn e2e_config() -> AgsConfig {
    let mut config = AgsConfig::tiny();
    config.slam.tile_work_interval = 0;
    config.codec.search = SearchKind::FullSearch;
    config.codec.search_range = 16;
    // Mapping-side FC over a keyframe window: every frame's references go
    // through one estimate_batch submission (the batched FC path).
    config.codec.keyframe_window = 4;
    config.parallelism = Parallelism::serial();
    // The end-to-end rows time the scalar reference kernels, as they always
    // have; `vectorized_map_ms` is the row that overrides this.
    config.backend = BackendKind::Reference;
    config
}

fn e2e_dataset(frames: usize, width: usize, height: usize) -> Dataset {
    let dconfig = DatasetConfig { width, height, num_frames: frames * 4, ..DatasetConfig::tiny() };
    let mut data = Dataset::generate(SceneId::Xyz, &dconfig);
    data.truncate(frames);
    data
}

fn run_serial_driver(config: &AgsConfig, data: &Dataset) -> (f64, ags_core::WorkloadTrace) {
    let start = Instant::now();
    let mut slam = AgsSlam::new(config.clone());
    for frame in &data.frames {
        black_box(slam.process_frame(&data.camera, &frame.rgb, &frame.depth));
    }
    (start.elapsed().as_secs_f64(), slam.into_trace())
}

fn run_overlapped_driver(
    config: &AgsConfig,
    data: &Dataset,
    shared: &[(Arc<ags_image::RgbImage>, Arc<ags_image::DepthImage>)],
) -> (f64, ags_core::WorkloadTrace) {
    let mut config = config.clone();
    config.pipeline = PipelineConfig::overlapped(1);
    let start = Instant::now();
    let mut slam = PipelinedAgsSlam::new(config);
    for (rgb, depth) in shared {
        black_box(slam.push_frame(&data.camera, Arc::clone(rgb), Arc::clone(depth)));
    }
    black_box(slam.finish());
    let elapsed = start.elapsed().as_secs_f64();
    (elapsed, slam.take_trace())
}

fn bench_end_to_end(parallel: Parallelism) -> E2eResult {
    let (frames, width, height) = (10usize, 96usize, 72usize);
    let data = e2e_dataset(frames, width, height);
    let config = e2e_config();
    let shared: Vec<_> =
        data.frames.iter().map(|f| (Arc::new(f.rgb.clone()), Arc::new(f.depth.clone()))).collect();

    // Bit-identity between the serial and overlapped drivers before trusting
    // any timing (the determinism tests enforce this too; the bench refuses
    // to publish numbers for diverging pipelines).
    let (_, serial_trace) = run_serial_driver(&config, &data);
    let (_, overlapped_trace) = run_overlapped_driver(&config, &data, &shared);
    assert_eq!(
        serial_trace.canonical_bytes(),
        overlapped_trace.canonical_bytes(),
        "overlapped pipeline must be bit-identical to serial"
    );

    // The vectorized backend plus the epoch-delta projection cache must
    // reproduce the reference trajectory and map to the bit: the canonical
    // trace comparison covers both before the speedup is published.
    let mut vectorized_config = e2e_config();
    vectorized_config.backend = BackendKind::Vectorized;
    vectorized_config.projection_cache = true;
    let (_, vectorized_trace) = run_serial_driver(&vectorized_config, &data);
    assert_eq!(
        serial_trace.canonical_bytes(),
        vectorized_trace.canonical_bytes(),
        "vectorized backend + projection cache must be bit-identical to the reference backend"
    );

    // Interleaved min-of-N timing: the minimum is the least noise-sensitive
    // statistic for a fixed workload, and interleaving decorrelates slow
    // drift (thermal, background load) from the driver comparison.
    let samples = 5usize;
    let mut parallel_config = e2e_config();
    parallel_config.parallelism = parallel;
    let mut serial_times = Vec::new();
    let mut parallel_times = Vec::new();
    let mut overlapped_times = Vec::new();
    let mut map_times = Vec::new();
    let mut vectorized_map_times = Vec::new();
    let mut last_serial_trace = serial_trace;
    for _ in 0..samples {
        let (t, trace) = run_serial_driver(&config, &data);
        serial_times.push(t);
        map_times.push(trace.stage_time_totals().map_s);
        last_serial_trace = trace;
        let (_, trace) = run_serial_driver(&vectorized_config, &data);
        vectorized_map_times.push(trace.stage_time_totals().map_s);
        overlapped_times.push(run_overlapped_driver(&config, &data, &shared).0);
        parallel_times.push(run_serial_driver(&parallel_config, &data).0);
    }
    let min = |times: &[f64]| times.iter().copied().fold(f64::INFINITY, f64::min);
    let t_serial = min(&serial_times);
    let t_parallel = min(&parallel_times);
    let t_overlapped = min(&overlapped_times);
    let t_map = min(&map_times);
    let t_vectorized_map = min(&vectorized_map_times);
    let ratios = map_times.iter().zip(&vectorized_map_times).map(|(m, v)| m / v);
    let vectorized_map_speedup_range =
        ratios.fold((f64::INFINITY, 0.0f64), |(lo, hi), r| (lo.min(r), hi.max(r)));

    let stage = last_serial_trace.stage_time_totals();
    let per_frame = |s: f64| s / frames as f64 * 1e3;
    E2eResult {
        frames,
        width,
        height,
        serial_fps: frames as f64 / t_serial,
        parallel_fps: frames as f64 / t_parallel,
        overlapped_fps: frames as f64 / t_overlapped,
        overlap_speedup: t_serial / t_overlapped,
        fc_ms: per_frame(stage.fc_s),
        track_ms: per_frame(stage.track_s),
        map_ms: per_frame(t_map),
        vectorized_map_ms: per_frame(t_vectorized_map),
        vectorized_map_speedup: t_map / t_vectorized_map,
        vectorized_map_speedup_range,
    }
}

struct MapHeavyResult {
    frames: usize,
    width: usize,
    height: usize,
    mapping_iterations: u32,
    map_slack: usize,
    overlapped_fps: f64,
    map_overlapped_fps: f64,
    speedup: f64,
    stall_ms_per_frame: f64,
}

fn run_map_overlapped_driver(
    config: &AgsConfig,
    data: &Dataset,
    shared: &[(Arc<ags_image::RgbImage>, Arc<ags_image::DepthImage>)],
) -> (f64, ags_core::WorkloadTrace) {
    let mut config = config.clone();
    config.pipeline = PipelineConfig::map_overlapped(1, 1);
    let start = Instant::now();
    let mut slam = PipelinedAgsSlam::new(config);
    for (rgb, depth) in shared {
        black_box(slam.push_frame(&data.camera, Arc::clone(rgb), Arc::clone(depth)));
    }
    black_box(slam.finish());
    let elapsed = start.elapsed().as_secs_f64();
    (elapsed, slam.take_trace())
}

/// The Track ‖ Map axis on a map-heavy configuration (mapping ≥ 2× the
/// tracking time): the FC-overlapped driver still serialises Track(N+1)
/// after Map(N), while `PipelineMode::MapOverlapped` runs them concurrently
/// under the one-epoch-stale snapshot contract.
///
/// The workload is the S2 handheld-scan stand-in, whose motion keeps FC
/// below `ThreshT` so 3DGS refinement runs on every frame — the regime the
/// Track ‖ Map axis targets. On multi-core hosts the overlap can hide the
/// whole tracking stage (up to `1 + track/map` ≈ 1.4× here); on a single
/// core the drivers time-share and the measured win reduces to the
/// stale-read savings the one-epoch-stale contract buys tracking (warmup
/// refinements are structurally skipped and every refinement reads the
/// previous, smaller epoch).
fn bench_map_heavy_overlap() -> MapHeavyResult {
    let (frames, width, height) = (8usize, 96usize, 72usize);
    // Full S2 trajectory compressed into the bench frames: handheld-jerky
    // inter-frame motion, low FC, refinement on every frame.
    let dconfig = DatasetConfig { width, height, num_frames: frames, ..DatasetConfig::tiny() };
    let data = Dataset::generate(SceneId::S2, &dconfig);
    let mut config = e2e_config();
    // Map-heavy: grow the tiny mapping budget until map ≥ 2× track, the
    // paper's full-scale stage balance.
    config.slam.mapping_iterations = 10;
    let shared: Vec<_> =
        data.frames.iter().map(|f| (Arc::new(f.rgb.clone()), Arc::new(f.depth.clone()))).collect();

    // Determinism before timing: the threaded Track ‖ Map driver must match
    // the serial deferred-map reference on this exact configuration.
    let reference_trace = {
        let mut c = config.clone();
        c.pipeline = PipelineConfig::map_overlapped(1, 1);
        let mut slam = AgsSlam::new(c);
        for frame in &data.frames {
            black_box(slam.process_frame(&data.camera, &frame.rgb, &frame.depth));
        }
        slam.into_trace()
    };
    let (_, overlapped_trace) = run_map_overlapped_driver(&config, &data, &shared);
    assert_eq!(
        reference_trace.canonical_bytes(),
        overlapped_trace.canonical_bytes(),
        "Track ‖ Map must be bit-identical to the deferred-serial reference"
    );

    let samples = 5usize;
    let mut fc_times = Vec::new();
    let mut map_times = Vec::new();
    let mut last_trace = overlapped_trace;
    for _ in 0..samples {
        fc_times.push(run_overlapped_driver(&config, &data, &shared).0);
        let (t, trace) = run_map_overlapped_driver(&config, &data, &shared);
        map_times.push(t);
        last_trace = trace;
    }
    let min = |times: &[f64]| times.iter().copied().fold(f64::INFINITY, f64::min);
    let (t_fc, t_map) = (min(&fc_times), min(&map_times));
    MapHeavyResult {
        frames,
        width,
        height,
        mapping_iterations: config.slam.mapping_iterations,
        map_slack: 1,
        overlapped_fps: frames as f64 / t_fc,
        map_overlapped_fps: frames as f64 / t_map,
        speedup: t_fc / t_map,
        stall_ms_per_frame: last_trace.stage_time_totals().stall_s / frames as f64 * 1e3,
    }
}

struct MultiStreamScale {
    streams: usize,
    aggregate_fps: f64,
    stall_ms_per_frame: f64,
}

struct MultiStreamResult {
    frames: usize,
    width: usize,
    height: usize,
    pool_workers: usize,
    scales: Vec<MultiStreamScale>,
    s2_scaling_vs_s1: f64,
}

/// The multi-stream server: S identical `MapOverlapped` streams (three
/// threads each) over **one** stream-tagged worker pool, driven round-robin
/// as a capture mux would. `aggregate_frames_per_s` is total frames
/// completed across streams per wall second; per-stream results are
/// asserted bit-identical to the solo serial reference before any timing
/// is trusted. On multi-core hosts S=2 should land well above S=1 (each
/// stream's stage threads fill the other's idle cycles); on a single core
/// the streams time-share and the aggregate stays at parity — the entry
/// then tracks scheduling overhead and the per-stream stall profile.
fn bench_multi_stream() -> MultiStreamResult {
    use ags_core::{MultiStreamServer, ServerConfig};
    let (frames, width, height) = (6usize, 96usize, 72usize);
    let dconfig = DatasetConfig { width, height, num_frames: frames, ..DatasetConfig::tiny() };
    let data = Dataset::generate(SceneId::S2, &dconfig);
    let shared: Vec<_> =
        data.frames.iter().map(|f| (Arc::new(f.rgb.clone()), Arc::new(f.depth.clone()))).collect();
    let mut base = e2e_config();
    base.parallelism = Parallelism::default();
    base.pipeline = PipelineConfig::map_overlapped(1, 1);

    let server_config = |streams: usize| ServerConfig::uniform(streams, base.clone());
    let run_server = |streams: usize| -> (f64, MultiStreamServer) {
        let mut server = MultiStreamServer::new(server_config(streams));
        let start = Instant::now();
        for (rgb, depth) in &shared {
            for s in 0..streams {
                black_box(
                    server
                        .push_frame(s, &data.camera, Arc::clone(rgb), Arc::clone(depth))
                        .expect("healthy stream"),
                );
            }
        }
        black_box(server.finish_all());
        (start.elapsed().as_secs_f64(), server)
    };

    // Determinism before timing: every stream of a two-stream server must be
    // bit-identical to the stream run alone serially (deferred-map
    // reference).
    let reference_trace = {
        let mut c = base.clone();
        c.parallelism = Parallelism::serial();
        let mut slam = AgsSlam::new(c);
        for frame in &data.frames {
            black_box(slam.process_frame(&data.camera, &frame.rgb, &frame.depth));
        }
        slam.into_trace()
    };
    let (_, check) = run_server(2);
    for s in 0..2 {
        assert_eq!(
            reference_trace.canonical_bytes(),
            check.stream(s).unwrap().trace().canonical_bytes(),
            "stream {s} on the shared pool must match its solo serial reference"
        );
    }
    let pool_workers = check.pool().workers();
    drop(check);

    let samples = 3usize;
    let mut scales = Vec::new();
    for &streams in &[1usize, 2, 4] {
        // Keep the stall profile paired with the run whose wall time is
        // reported, so the entry never mixes best-case throughput with
        // another run's stall behaviour.
        let mut best_t = f64::INFINITY;
        let mut best_stall = 0.0;
        for _ in 0..samples {
            let (t, server) = run_server(streams);
            if t < best_t {
                best_t = t;
                best_stall = server.stats().total.stall_s;
            }
        }
        let total_frames = (streams * frames) as f64;
        scales.push(MultiStreamScale {
            streams,
            aggregate_fps: total_frames / best_t,
            stall_ms_per_frame: best_stall / total_frames * 1e3,
        });
    }
    let s2_scaling_vs_s1 = scales[1].aggregate_fps / scales[0].aggregate_fps;
    MultiStreamResult { frames, width, height, pool_workers, scales, s2_scaling_vs_s1 }
}

struct CheckpointResult {
    frames: usize,
    width: usize,
    height: usize,
    delta_bytes_per_epoch: f64,
    full_snapshot_bytes: f64,
}

/// Sizes the epoch-delta log of one stream over `base`: a checkpoint is
/// committed after every frame, so each epoch is persisted as its own
/// delta. The store is attached once the first frame is in, so the chain's
/// base is that frame's full snapshot rather than the empty map.
fn size_epoch_log(
    base: AgsConfig,
    camera: &PinholeCamera,
    frames: &[(Arc<ags_image::RgbImage>, Arc<ags_image::DepthImage>)],
) -> ags_store::StoreStats {
    use ags_core::{MultiStreamServer, ServerConfig};
    use ags_store::{CheckpointConfig, MemoryStore};
    let mut server = MultiStreamServer::new(ServerConfig::uniform(1, base));
    for (f, (rgb, depth)) in frames.iter().enumerate() {
        black_box(
            server
                .push_frame(0, camera, Arc::clone(rgb), Arc::clone(depth))
                .expect("healthy stream"),
        );
        if f == 0 {
            let store = Box::new(MemoryStore::new());
            server.attach_store(0, store, CheckpointConfig::default()).unwrap();
        } else {
            server.checkpoint_stream(0).unwrap();
        }
    }
    server.store_stats(0).unwrap()
}

/// The durability layer of the Track ‖ Map driver. Nothing is written
/// between commits, so a stream with a store attached runs the same code as
/// one without until it checkpoints — there is no hot-path overhead to
/// time. What is measured is the epoch-delta log itself:
/// `delta_bytes_per_epoch` and `full_snapshot_bytes`, from a run that
/// commits every epoch ([`size_epoch_log`]). Restore fidelity is asserted
/// first: a crash mid-sequence, restored into a fresh server, must finish
/// bit-identical to the uninterrupted run.
fn bench_checkpoint() -> CheckpointResult {
    use ags_core::{MultiStreamServer, ServerConfig};
    use ags_store::{CheckpointConfig, MemoryStore};
    let (frames, width, height) = (8usize, 96usize, 72usize);
    let dconfig = DatasetConfig { width, height, num_frames: frames, ..DatasetConfig::tiny() };
    let data = Dataset::generate(SceneId::S2, &dconfig);
    let shared: Vec<_> =
        data.frames.iter().map(|f| (Arc::new(f.rgb.clone()), Arc::new(f.depth.clone()))).collect();
    let mut base = e2e_config();
    base.parallelism = Parallelism::default();
    base.pipeline = PipelineConfig::map_overlapped(1, 1);
    base.slam.mapping_iterations = 10;

    let result_of = |server: &MultiStreamServer| {
        let slam = server.stream(0).unwrap();
        (
            slam.trajectory().to_vec(),
            slam.cloud().gaussians().to_vec(),
            slam.trace().canonical_bytes(),
        )
    };
    let push_range = |server: &mut MultiStreamServer, range: std::ops::Range<usize>| {
        for f in range {
            let (rgb, depth) = &shared[f];
            black_box(
                server
                    .push_frame(0, &data.camera, Arc::clone(rgb), Arc::clone(depth))
                    .expect("healthy stream"),
            );
        }
    };

    // Restore fidelity: checkpoint at the cut, crash with later frames
    // unpersisted, restore into a fresh server, finish.
    let reference = {
        let mut server = MultiStreamServer::new(ServerConfig::uniform(1, base.clone()));
        push_range(&mut server, 0..frames);
        server.finish_all();
        result_of(&server)
    };
    let cut = frames / 2;
    let backing = MemoryStore::new();
    {
        let mut crashed = MultiStreamServer::new(ServerConfig::uniform(1, base.clone()));
        crashed.attach_store(0, Box::new(backing.clone()), CheckpointConfig::default()).unwrap();
        push_range(&mut crashed, 0..cut);
        crashed.checkpoint_stream(0).unwrap();
        push_range(&mut crashed, cut..frames - 1);
    }
    let mut restored = MultiStreamServer::new(ServerConfig::uniform(1, base.clone()));
    restored.attach_store(0, Box::new(backing), CheckpointConfig::default()).unwrap();
    restored.restore_stream(0).unwrap();
    push_range(&mut restored, cut..frames);
    restored.finish_all();
    assert_eq!(
        reference,
        result_of(&restored),
        "restored stream must be bit-identical to the uninterrupted run"
    );
    drop(restored);

    let stats = size_epoch_log(base, &data.camera, &shared);
    let full_snapshot_bytes = if stats.base_records == 0 {
        0.0
    } else {
        stats.base_bytes as f64 / stats.base_records as f64
    };

    CheckpointResult {
        frames,
        width,
        height,
        delta_bytes_per_epoch: stats.delta_bytes_per_record(),
        full_snapshot_bytes,
    }
}

struct MigrationResult {
    frames: usize,
    width: usize,
    height: usize,
    migration_gap_ms: f64,
    restore_bytes: u64,
}

/// Elastic stream migration: the cut-over gap of a live cross-server
/// hand-off through a loopback remote store (`StoreServer` + `RemoteStore`
/// over real TCP), and the store bytes an attach + restore fetches.
/// `migration_gap_ms` — final source checkpoint → destination restored and
/// accepting frames — is gated in CI as an **absolute** ceiling;
/// `restore_bytes` (the delta chain, fetched once) is gated as a
/// lower-is-better baseline regression. Hand-off fidelity is
/// asserted before any timing: the migrated stream must finish
/// bit-identical to checkpointing and continuing in place.
fn bench_migration() -> MigrationResult {
    use ags_core::{migrate_stream, MultiStreamServer, ServerConfig, StreamPolicy};
    use ags_store::{
        CheckpointConfig, MapStore, MemoryStore, RemoteStore, RetryPolicy, StoreError, StoreServer,
    };
    use std::time::Duration;
    let (frames, width, height) = (8usize, 96usize, 72usize);
    let dconfig = DatasetConfig { width, height, num_frames: frames, ..DatasetConfig::tiny() };
    let data = Dataset::generate(SceneId::S2, &dconfig);
    let shared: Vec<_> =
        data.frames.iter().map(|f| (Arc::new(f.rgb.clone()), Arc::new(f.depth.clone()))).collect();
    let mut base = e2e_config();
    base.parallelism = Parallelism::default();
    base.pipeline = PipelineConfig::map_overlapped(1, 1);
    base.slam.mapping_iterations = 10;
    let policy = StreamPolicy { pipeline: base.pipeline, ..StreamPolicy::default() };
    let retry = RetryPolicy::new(4, Duration::from_millis(1000), Duration::from_millis(1));
    let cut = frames / 2;

    let result_of = |server: &MultiStreamServer, stream: usize| {
        let slam = server.stream(stream).unwrap();
        (
            slam.trajectory().to_vec(),
            slam.cloud().gaussians().to_vec(),
            slam.trace().canonical_bytes(),
        )
    };
    let push_range =
        |server: &mut MultiStreamServer, stream: usize, range: std::ops::Range<usize>| {
            for f in range {
                let (rgb, depth) = &shared[f];
                black_box(
                    server
                        .push_frame(stream, &data.camera, Arc::clone(rgb), Arc::clone(depth))
                        .expect("healthy stream"),
                );
            }
        };

    // The migration reference: checkpoint at the cut and keep going in
    // place on one server.
    let reference = {
        let mut server = MultiStreamServer::new(ServerConfig::uniform(1, base.clone()));
        server.attach_store(0, Box::new(MemoryStore::new()), CheckpointConfig::default()).unwrap();
        push_range(&mut server, 0, 0..cut);
        server.checkpoint_stream(0).unwrap();
        push_range(&mut server, 0, cut..frames);
        server.finish_all();
        result_of(&server, 0)
    };

    // One hand-off through a fresh loopback store server: returns the
    // cut-over gap and the migrated stream's final semantic state.
    let run_migration = || {
        let store_server = StoreServer::spawn("127.0.0.1:0", Box::new(MemoryStore::new()))
            .expect("bind loopback store server");
        let addr = store_server.local_addr();
        let mut source = MultiStreamServer::new(ServerConfig::uniform(1, base.clone()));
        let direct = RemoteStore::connect(addr, retry).expect("dial store");
        source.attach_store(0, Box::new(direct), CheckpointConfig::default()).unwrap();
        push_range(&mut source, 0, 0..cut);
        let mut dest = MultiStreamServer::new(ServerConfig {
            streams: 0,
            per_stream: vec![],
            pool_workers: None,
            base: base.clone(),
        });
        let report = migrate_stream(
            &mut source,
            0,
            &mut dest,
            policy,
            &CheckpointConfig::default(),
            &mut |_end| -> Result<Box<dyn MapStore>, StoreError> {
                Ok(Box::new(RemoteStore::connect(addr, retry)?))
            },
        )
        .expect("loopback migration completes");
        let gap_ms = report.cutover.as_secs_f64() * 1e3;
        push_range(&mut dest, report.dest_stream, cut..frames);
        dest.finish_all();
        (gap_ms, result_of(&dest, report.dest_stream))
    };

    // Fidelity once, then min-of-N on the cut-over gap.
    let (first_gap, migrated) = run_migration();
    assert_eq!(
        reference, migrated,
        "migrated stream must be bit-identical to checkpoint-and-continue in place"
    );
    let mut migration_gap_ms = first_gap;
    for _ in 0..2 {
        migration_gap_ms = migration_gap_ms.min(run_migration().0);
    }

    // Restore cost over a 3-generation chain (all kept).
    let config = CheckpointConfig { keep_manifests: 3, ..CheckpointConfig::default() };
    let backing = MemoryStore::new();
    {
        let mut server = MultiStreamServer::new(ServerConfig::uniform(1, base.clone()));
        server.attach_store(0, Box::new(backing.clone()), config.clone()).unwrap();
        for f in 0..frames {
            push_range(&mut server, 0, f..f + 1);
            if f == 2 || f == 5 {
                server.checkpoint_stream(0).unwrap();
            }
        }
        server.finish_all();
        server.checkpoint_stream(0).unwrap();
    }
    let mut server = MultiStreamServer::new(ServerConfig::uniform(1, base.clone()));
    server.attach_store(0, Box::new(backing), config).unwrap();
    server.restore_stream(0).unwrap();
    let restore_bytes = server.store_stats(0).unwrap().read_bytes;
    assert!(restore_bytes > 0, "a restore must fetch the chain");

    MigrationResult { frames, width, height, migration_gap_ms, restore_bytes }
}

struct OverloadResult {
    frames: usize,
    width: usize,
    height: usize,
    plain_fps: f64,
    qos_fps: f64,
    shed_overhead_pct: f64,
}

/// The overload-control machinery on the hot path: a stream with a QoS
/// controller installed but never pressured (budgets far above any real
/// stage time, so the ladder never leaves `Full`) vs the same stream with
/// no controller at all. The per-frame cost is one stage-time
/// classification per completed record plus a shed-level check per frame;
/// `shed_overhead_pct` is gated in CI as an **absolute** ceiling (≤ 5 %).
/// An idle controller must also be semantically invisible — canonical
/// traces are asserted identical before any timing (the shed-level stamps
/// are `Full` either way).
fn bench_overload() -> OverloadResult {
    use ags_core::{MultiStreamServer, QosConfig, ServerConfig, ShedLevel, StreamPolicy};
    let (frames, width, height) = (8usize, 96usize, 72usize);
    let dconfig = DatasetConfig { width, height, num_frames: frames, ..DatasetConfig::tiny() };
    let data = Dataset::generate(SceneId::S2, &dconfig);
    let shared: Vec<_> =
        data.frames.iter().map(|f| (Arc::new(f.rgb.clone()), Arc::new(f.depth.clone()))).collect();
    let mut base = e2e_config();
    base.parallelism = Parallelism::default();
    base.pipeline = PipelineConfig::map_overlapped(1, 1);
    base.slam.mapping_iterations = 10;

    let idle_qos = QosConfig {
        stall_budget_s: 1e9,
        stage_budget_s: 1e9,
        window: 4,
        escalate_at: 2,
        decay_after: 2,
        max_level: ShedLevel::RejectAdmission,
    };
    let server_with = |qos: Option<QosConfig>| {
        let mut policy = StreamPolicy::map_overlapped(1, 1);
        if let Some(qos) = qos {
            policy = policy.with_qos(qos);
        }
        MultiStreamServer::new(ServerConfig {
            streams: 1,
            base: base.clone(),
            per_stream: vec![policy],
            pool_workers: None,
        })
    };
    let run = |qos: Option<QosConfig>| -> (f64, Vec<u8>) {
        let mut server = server_with(qos);
        let start = Instant::now();
        for (rgb, depth) in &shared {
            black_box(
                server
                    .push_frame(0, &data.camera, Arc::clone(rgb), Arc::clone(depth))
                    .expect("healthy stream"),
            );
        }
        black_box(server.finish_all());
        let t = start.elapsed().as_secs_f64();
        (t, server.stream(0).unwrap().trace().canonical_bytes())
    };

    // Invisibility before timing: an idle controller must not perturb the
    // canonical trace.
    let (_, plain_bytes) = run(None);
    let (_, qos_bytes) = run(Some(idle_qos));
    assert_eq!(plain_bytes, qos_bytes, "an idle QoS controller must be semantically invisible");

    // Interleaved min-of-N, as in the checkpoint bench.
    let samples = 5usize;
    let mut plain_times = Vec::with_capacity(samples);
    let mut qos_times = Vec::with_capacity(samples);
    for sample in 0..samples {
        if sample % 2 == 0 {
            plain_times.push(run(None).0);
            qos_times.push(run(Some(idle_qos)).0);
        } else {
            qos_times.push(run(Some(idle_qos)).0);
            plain_times.push(run(None).0);
        }
    }
    let min = |times: &[f64]| times.iter().copied().fold(f64::INFINITY, f64::min);
    let (t_plain, t_qos) = (min(&plain_times), min(&qos_times));
    OverloadResult {
        frames,
        width,
        height,
        plain_fps: frames as f64 / t_plain,
        qos_fps: frames as f64 / t_qos,
        shed_overhead_pct: (t_qos / t_plain - 1.0) * 100.0,
    }
}

struct CompactionResult {
    frames: usize,
    width: usize,
    height: usize,
    full_map_bytes: u64,
    compacted_map_bytes: u64,
    reduction_pct: f64,
    pruned_splats: usize,
    quantized_splats: usize,
    uncompacted_fps: f64,
    compacted_fps: f64,
    ate_uncompacted: f64,
    ate_compacted: f64,
    delta_bytes_per_epoch: f64,
}

/// Map compaction on the map-heavy configuration: contribution-driven
/// pruning, cold-splat quantization and the byte budget together against the
/// same run uncompacted. The entry reports the steady-state resident map
/// bytes of both runs (the budget is set to 60 % of the measured uncompacted
/// footprint), the frame rates (compaction must not cost throughput — the
/// prune work is repaid by smaller maps everywhere downstream), ATE for both
/// (compaction must not wreck tracking) and the epoch-delta wire bytes of
/// the compacted run — snapping rewrites cold chunks through the delta log,
/// so the gate tracks that churn cost against the committed baseline, while
/// snapped splats themselves ride the ~4× chunked wire encoding in base
/// snapshots and `added` runs. Compaction decisions are asserted
/// bit-identical in the threaded Track ‖ Map driver before anything is
/// timed.
fn bench_compaction() -> CompactionResult {
    use ags_track::ate::ate_rmse;
    let (frames, width, height) = (8usize, 96usize, 72usize);
    let dconfig = DatasetConfig { width, height, num_frames: frames, ..DatasetConfig::tiny() };
    let data = Dataset::generate(SceneId::S2, &dconfig);
    let mut full_config = e2e_config();
    full_config.slam.mapping_iterations = 10;

    let run = |config: &AgsConfig| -> (f64, AgsSlam) {
        let start = Instant::now();
        let mut slam = AgsSlam::new(config.clone());
        for frame in &data.frames {
            black_box(slam.process_frame(&data.camera, &frame.rgb, &frame.depth));
        }
        (start.elapsed().as_secs_f64(), slam)
    };

    let (_, full_slam) = run(&full_config);
    let full_bytes = full_slam.trace().frames.last().expect("frames ran").map_bytes;

    let mut compact_config = full_config.clone();
    compact_config.slam.compaction = ags_splat::CompactionConfig {
        prune_interval: 1,
        prune_contribution_opacity: 0.9,
        quantize_cold_after: 1,
        // 60 % of the uncompacted footprint. Quantization alone clears this
        // budget, which is the intended steady state: pressure pruning
        // un-snaps every chunk past the first removed id (the remap shifts
        // them), so a budget tight enough to force pruning on a
        // well-quantized map *costs* bytes. The prune paths are exercised
        // and gated bit-identical by the determinism and durability tests.
        map_bytes_budget: full_bytes * 3 / 5,
    };

    // Determinism before timing: the compacted map (pruned ids, snapped
    // bits, byte accounting) must be identical in the threaded driver.
    let reference_trace = {
        let mut c = compact_config.clone();
        c.pipeline = PipelineConfig::map_overlapped(1, 1);
        let mut slam = AgsSlam::new(c);
        for frame in &data.frames {
            black_box(slam.process_frame(&data.camera, &frame.rgb, &frame.depth));
        }
        slam.into_trace()
    };
    let shared: Vec<_> =
        data.frames.iter().map(|f| (Arc::new(f.rgb.clone()), Arc::new(f.depth.clone()))).collect();
    let (_, threaded_trace) = run_map_overlapped_driver(&compact_config, &data, &shared);
    assert_eq!(
        reference_trace.canonical_bytes(),
        threaded_trace.canonical_bytes(),
        "compaction must be bit-identical across drivers"
    );

    let (_, compact_slam) = run(&compact_config);
    let compact_trace = compact_slam.trace();
    let compacted_bytes = compact_trace.frames.last().expect("frames ran").map_bytes;
    let pruned_splats: usize = compact_trace.frames.iter().map(|f| f.pruned).sum();
    let quantized_splats = compact_trace.frames.last().expect("frames ran").quantized_splats;
    assert!(
        compacted_bytes * 10 <= full_bytes * 7,
        "compaction must shed >= 30% of the steady-state map: {compacted_bytes} vs {full_bytes}"
    );
    let gt = data.gt_trajectory();
    let ate_uncompacted = ate_rmse(full_slam.trajectory(), &gt);
    let ate_compacted = ate_rmse(compact_slam.trajectory(), &gt);
    assert!(
        ate_compacted <= ate_uncompacted + 0.05,
        "compaction must not wreck tracking: {ate_compacted} vs {ate_uncompacted}"
    );

    // Interleaved min-of-N timing of the serial driver with and without
    // compaction (see bench_motion_estimation for the discipline).
    let samples = 5usize;
    let mut full_times = Vec::with_capacity(samples);
    let mut compact_times = Vec::with_capacity(samples);
    for sample in 0..samples {
        if sample % 2 == 0 {
            full_times.push(run(&full_config).0);
            compact_times.push(run(&compact_config).0);
        } else {
            compact_times.push(run(&compact_config).0);
            full_times.push(run(&full_config).0);
        }
    }
    let min = |times: &[f64]| times.iter().copied().fold(f64::INFINITY, f64::min);
    let (t_full, t_compact) = (min(&full_times), min(&compact_times));

    // Size the epoch-delta log under compaction: snapped cold chunks ride
    // the quantized wire encoding, pruned splats shrink the base snapshots.
    let delta_bytes_per_epoch = {
        let mut durable_base = compact_config.clone();
        durable_base.parallelism = Parallelism::default();
        durable_base.pipeline = PipelineConfig::map_overlapped(1, 1);
        size_epoch_log(durable_base, &data.camera, &shared).delta_bytes_per_record()
    };

    CompactionResult {
        frames,
        width,
        height,
        full_map_bytes: full_bytes,
        compacted_map_bytes: compacted_bytes,
        reduction_pct: (1.0 - compacted_bytes as f64 / full_bytes as f64) * 100.0,
        pruned_splats,
        quantized_splats,
        uncompacted_fps: frames as f64 / t_full,
        compacted_fps: frames as f64 / t_compact,
        ate_uncompacted: f64::from(ate_uncompacted),
        ate_compacted: f64::from(ate_compacted),
        delta_bytes_per_epoch,
    }
}

struct BackboneResult {
    width: usize,
    height: usize,
    gru_iterations: u32,
    macs: u64,
    samples: usize,
    /// One `DroidBackbone::run` (encoder + GRU iterations).
    backbone_ms: Spread,
    gmac_per_s: f64,
    /// One `CoarseTracker::track` of a frame after the first: pyramid,
    /// backbone and the Gauss–Newton alignment.
    coarse_track_ms: Spread,
}

/// The coarse tracker's always-on cost at the end-to-end bench's frame
/// size: the neural backbone alone, and the whole coarse `track` call.
fn bench_backbone() -> BackboneResult {
    const SAMPLES: usize = 9;
    let coarse = CoarseConfig::default();
    let data = e2e_dataset(10, 96, 72);
    let (width, height) = (data.camera.width, data.camera.height);
    let grays: Vec<_> = data.frames.iter().map(|f| f.rgb.to_gray()).collect();

    let mut backbone = DroidBackbone::new(1, coarse.gru_iterations);
    let macs = backbone.predict_macs(width, height);
    let (hidden, report) = backbone.run(&grays[1], &grays[0]);
    let hidden = hidden.clone();
    assert_eq!(report.total_macs(), macs, "backbone report disagrees with predict_macs");
    assert_eq!(backbone.run(&grays[1], &grays[0]).0, &hidden, "backbone run is not repeatable");
    let backbone_time = time_spread(SAMPLES, 20, || {
        black_box(backbone.run(black_box(&grays[1]), black_box(&grays[0])));
    });

    let tracked = grays.len() - 1;
    let coarse_track_time = time_spread(SAMPLES, 1, || {
        let mut tracker = CoarseTracker::new(coarse);
        for (gray, frame) in grays.iter().zip(&data.frames) {
            black_box(tracker.track(&data.camera, gray, &frame.depth, Se3::IDENTITY));
        }
    });

    BackboneResult {
        width,
        height,
        gru_iterations: coarse.gru_iterations,
        macs,
        samples: SAMPLES,
        gmac_per_s: macs as f64 / backbone_time.median / 1e9,
        backbone_ms: backbone_time.scaled(1e3),
        coarse_track_ms: coarse_track_time.scaled(1e3 / tracked as f64),
    }
}

struct TrainIterationResult {
    width: usize,
    height: usize,
    samples: usize,
    splats: usize,
    /// (splat, tile) pairs binned vs pairs some row's walk reached.
    pairs: u64,
    walked_pairs: u64,
    blend_ops: u64,
    /// Bytes the pass's blend tape holds.
    tape_bytes: usize,
    /// The vectorized training pass: project → bin → taped forward → loss →
    /// reverse stage off the tape.
    taped_ms: Spread,
    /// The same products from stand-alone calls: `rasterize`, then a
    /// `backward_with` that has to re-walk every tile for its tape.
    standalone_ms: Spread,
    /// Project → bin → untaped forward: a render nobody differentiates.
    forward_ms: Spread,
}

impl TrainIterationResult {
    fn json(&self) -> String {
        format!(
            r#"{{
    "frame": [{}, {}],
    "samples": {},
    "splats": {},
    "pairs": {},
    "walked_pairs": {},
    "blend_ops": {},
    "tape_bytes": {},
    {},
    {},
    {},
    "taped_speedup": {:.3},
    "taped_speedup_min": {:.3}
  }}"#,
            self.width,
            self.height,
            self.samples,
            self.splats,
            self.pairs,
            self.walked_pairs,
            self.blend_ops,
            self.tape_bytes,
            self.taped_ms.json_ms("taped"),
            self.standalone_ms.json_ms("standalone"),
            self.forward_ms.json_ms("forward"),
            self.standalone_ms.median / self.taped_ms.median,
            self.standalone_ms.min / self.taped_ms.max,
        )
    }
}

/// One mapping iteration's render work (forward + loss + backward, no Adam)
/// on the end-to-end bench scene: the map the vectorized serial driver has
/// built after its ten 96×72 frames, trained against the last frame.
fn bench_train_iteration() -> TrainIterationResult {
    const SAMPLES: usize = 9;
    let data = e2e_dataset(10, 96, 72);
    let mut config = e2e_config();
    config.backend = BackendKind::Vectorized;
    let mut slam = AgsSlam::new(config.clone());
    for frame in &data.frames {
        black_box(slam.process_frame(&data.camera, &frame.rgb, &frame.depth));
    }
    let (cloud, camera) = (slam.cloud(), &data.camera);
    let pose = *slam.trajectory().last().expect("ten frames tracked");
    let frame = data.frames.last().expect("ten frames");
    let loss_config = config.slam.mapping_loss;
    let options = RenderOptions {
        parallelism: Parallelism::serial(),
        backend: BackendKind::Vectorized,
        ..RenderOptions::default()
    };
    let backend = options.backend.backend();

    let forward = || {
        let projection = backend.project(cloud, camera, &pose);
        let tables = backend.build_tables(&projection, camera, &options.parallelism);
        let out = rasterize(cloud, &projection, &tables, camera, &options);
        (projection, tables, out)
    };
    let standalone = || {
        let (projection, tables, out) = forward();
        let loss = compute_loss(&out, &frame.rgb, &frame.depth, &loss_config);
        let par = &options.parallelism;
        let mode = GradMode::Map;
        backward_with(options.backend, cloud, &projection, &tables, camera, &loss, mode, None, par)
    };
    let taped = |scratch: &mut TrainScratch| {
        let (rgb, depth, mode) = (&frame.rgb, &frame.depth, GradMode::Map);
        train_pass(scratch, cloud, camera, &pose, rgb, depth, &loss_config, mode, &options, None)
    };
    let mut scratch = TrainScratch::default();

    // The tape must hand backward exactly what the stand-alone walk finds.
    let (pass, replay) = (taped(&mut scratch), standalone());
    let (tg, sg) = (pass.backward.grads.expect("map grads"), replay.grads.expect("map grads"));
    assert_eq!(tg.position, sg.position, "taped and stand-alone backward diverge");
    assert_eq!(tg.opacity_logit, sg.opacity_logit, "taped and stand-alone backward diverge");
    assert_eq!(pass.backward.stats.grad_ops, replay.stats.grad_ops);
    let stats = pass.render.stats;
    let tape_bytes = scratch.taped_blend_ops() * 8;

    let taped_time = time_spread(SAMPLES, 10, || {
        black_box(taped(&mut scratch));
    });
    let standalone_time = time_spread(SAMPLES, 10, || {
        black_box(standalone());
    });
    let forward_time = time_spread(SAMPLES, 10, || {
        black_box(forward());
    });
    TrainIterationResult {
        width: camera.width,
        height: camera.height,
        samples: SAMPLES,
        splats: cloud.len(),
        pairs: stats.pairs,
        walked_pairs: stats.walked_pairs,
        blend_ops: stats.blend_ops,
        tape_bytes,
        taped_ms: taped_time.scaled(1e3),
        standalone_ms: standalone_time.scaled(1e3),
        forward_ms: forward_time.scaled(1e3),
    }
}

struct BinResult {
    width: usize,
    height: usize,
    samples: usize,
    splats: usize,
    visible: usize,
    pairs: u64,
    /// Tiles with a depth tie in their table, and those of them a vectorized
    /// render's walk reached the tie in.
    tied_tiles: usize,
    canonical_tiles: u64,
    /// `GaussianTables::build_with`: one sort of the visible splats, one
    /// scatter.
    build_ms: Spread,
    /// The build plus every tile's canonical table — what each build cost
    /// while every tile ran its own comparator sort.
    build_plus_canonical_all_ms: Spread,
}

impl BinResult {
    fn json(&self) -> String {
        format!(
            r#"{{
    "frame": [{}, {}],
    "samples": {},
    "splats": {},
    "visible": {},
    "pairs": {},
    "tied_tiles": {},
    "canonical_tiles": {},
    {},
    {},
    "bin_speedup": {:.3},
    "bin_speedup_min": {:.3}
  }}"#,
            self.width,
            self.height,
            self.samples,
            self.splats,
            self.visible,
            self.pairs,
            self.tied_tiles,
            self.canonical_tiles,
            self.build_ms.json_ms("build"),
            self.build_plus_canonical_all_ms.json_ms("build_plus_canonical_all"),
            self.build_plus_canonical_all_ms.median / self.build_ms.median,
            self.build_plus_canonical_all_ms.min / self.build_ms.max,
        )
    }
}

/// Step ② on a late-stream map: 38 k splats around the camera, a quarter of
/// them in view at ≥ 2 k entries per tile, opaque enough that rows saturate a
/// few hundred entries in, with a fronto-parallel wall of equal depths behind
/// the front layers — the shape `steady_map` has from frame 50 on.
fn bench_bin() -> BinResult {
    const SAMPLES: usize = 9;
    let mut cloud = GaussianCloud::new();
    let mut rng = ags_math::Pcg32::seeded(15);
    let mut push = |rng: &mut ags_math::Pcg32, position: Vec3| {
        cloud.push(Gaussian::isotropic(
            position,
            rng.range_f32(0.04, 0.16),
            Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32()),
            rng.range_f32(0.2, 0.9),
        ));
    };
    for _ in 0..36_000 {
        let position =
            Vec3::new(rng.range_f32(-5.0, 5.0), rng.range_f32(-4.0, 4.0), rng.range_f32(-6.0, 6.0));
        push(&mut rng, position);
    }
    for _ in 0..2_000 {
        let position = Vec3::new(rng.range_f32(-2.0, 2.0), rng.range_f32(-1.5, 1.5), 2.5);
        push(&mut rng, position);
    }
    let camera = PinholeCamera::from_fov(64, 48, 1.2);
    let options = RenderOptions {
        parallelism: Parallelism::serial(),
        backend: BackendKind::Vectorized,
        ..RenderOptions::default()
    };
    let projection = options.backend.backend().project(&cloud, &camera, &Se3::IDENTITY);
    let build = || GaussianTables::build_with(&projection, &camera, &options.parallelism);

    let tables = build();
    let tiles = tables.grid.num_tiles();
    let shallowest = tables.tables().iter().map(Vec::len).min().unwrap_or(0);
    assert!(shallowest >= 2000, "late-stream tables must be deep, got {shallowest}");
    let tied_tiles =
        (0..tiles).filter(|&t| tables.unique_len(t) < tables.tables()[t].len()).count();
    assert!(tied_tiles > 0, "the wall must put depth ties into the tables");
    let stats = rasterize(&cloud, &projection, &tables, &camera, &options).stats;

    let build_time = time_spread(SAMPLES, 20, || {
        black_box(build());
    });
    let all_time = time_spread(SAMPLES, 20, || {
        let tables = build();
        for t in 0..tiles {
            black_box(tables.canonical(t));
        }
    });
    BinResult {
        width: camera.width,
        height: camera.height,
        samples: SAMPLES,
        splats: cloud.len(),
        visible: projection.splats.len(),
        pairs: tables.total_pairs,
        tied_tiles,
        canonical_tiles: stats.canonical_tiles,
        build_ms: build_time.scaled(1e3),
        build_plus_canonical_all_ms: all_time.scaled(1e3),
    }
}

struct FrontEndResult {
    width: usize,
    height: usize,
    samples: usize,
    splats: usize,
    visible: usize,
    /// In front of the near plane, culled: by the early reject, and of those
    /// it let by, by the radius test at the end of the covariance chain.
    early_rejected: usize,
    late_culled: usize,
    /// `project_gaussians`: terms derived on the fly, then projected.
    project_cold_ms: Spread,
    /// A cache that kept the terms, at a pose it has not seen.
    project_warm_ms: Spread,
}

impl FrontEndResult {
    fn json(&self) -> String {
        format!(
            r#"{{
    "frame": [{}, {}],
    "samples": {},
    "splats": {},
    "visible": {},
    "early_rejected": {},
    "late_culled": {},
    {},
    {},
    "terms_speedup": {:.3},
    "terms_speedup_min": {:.3}
  }}"#,
            self.width,
            self.height,
            self.samples,
            self.splats,
            self.visible,
            self.early_rejected,
            self.late_culled,
            self.project_cold_ms.json_ms("project_cold"),
            self.project_warm_ms.json_ms("project_warm"),
            self.project_cold_ms.median / self.project_warm_ms.median,
            self.project_cold_ms.min / self.project_warm_ms.max,
        )
    }
}

/// Step ① on a late-stream-shaped map: 56 k splats, two fifths in view, a
/// quarter in front of the camera but off screen, the rest behind it — what a
/// pose-refinement iteration re-projects twenty times a frame on
/// `jerky_track`.
fn bench_front_end() -> FrontEndResult {
    const SAMPLES: usize = 9;
    let camera = PinholeCamera::from_fov(60, 45, 1.2);
    let (w, h) = (camera.width as f32, camera.height as f32);
    let mut rng = ags_math::Pcg32::seeded(16);
    let mut cloud = GaussianCloud::new();
    for i in 0..56_000 {
        let z = rng.range_f32(0.5, 6.0);
        let position = match i % 20 {
            0..=7 => camera.unproject(Vec2::new(rng.range_f32(0.0, w), rng.range_f32(0.0, h)), z),
            8..=12 => {
                // Past an image edge by 30 to 400 pixels.
                let past = rng.range_f32(30.0, 400.0);
                let (u, v) = (rng.range_f32(-400.0, w + 400.0), rng.range_f32(-400.0, h + 400.0));
                let pixel = match rng.next_u32() % 4 {
                    0 => Vec2::new(-past, v),
                    1 => Vec2::new(w + past, v),
                    2 => Vec2::new(u, -past),
                    _ => Vec2::new(u, h + past),
                };
                camera.unproject(pixel, z)
            }
            _ => Vec3::new(rng.range_f32(-5.0, 5.0), rng.range_f32(-4.0, 4.0), -z),
        };
        cloud.push(Gaussian::isotropic(
            position,
            rng.range_f32(0.02, 0.12),
            Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32()),
            rng.range_f32(0.2, 0.9),
        ));
    }
    // A refinement's poses: small steps away from where the map was seen.
    let pose_at = |step: usize| Se3::from_translation(Vec3::new(1e-3 * step as f32, -5e-4, 2e-3));

    let projection = project_gaussians(&cloud, &camera, &pose_at(0));
    let world_to_cam = pose_at(0).inverse();
    let (mut early_rejected, mut in_front) = (0, 0);
    for g in cloud.gaussians() {
        let p_cam = world_to_cam.transform_point(g.position);
        if let Some(mean) = camera.project(p_cam).filter(|_| p_cam.z >= 0.05) {
            in_front += 1;
            early_rejected += usize::from(SplatTerms::of(g).rejects_early(&camera, p_cam, mean));
        }
    }
    let visible = projection.splats.len();
    assert!(visible * 100 >= cloud.len() * 35, "two fifths must be in view, got {visible}");
    assert!(early_rejected * 5 >= cloud.len(), "a fifth must be rejected early: {early_rejected}");

    let mut cache = ProjectionCache::with_capacity(1);
    let warm = cache.project_unkeyed(&cloud, &camera, &pose_at(0));
    assert_eq!(warm.splats, projection.splats, "kept terms must not move a bit");
    assert_eq!(warm.culled, projection.culled);

    let mut step = 0;
    let cold_time = time_spread(SAMPLES, 10, || {
        step += 1;
        black_box(project_gaussians(&cloud, &camera, &pose_at(step)));
    });
    let warm_time = time_spread(SAMPLES, 10, || {
        step += 1;
        black_box(cache.project_unkeyed(&cloud, &camera, &pose_at(step)));
    });
    FrontEndResult {
        width: camera.width,
        height: camera.height,
        samples: SAMPLES,
        splats: cloud.len(),
        visible,
        early_rejected,
        late_culled: in_front - visible - early_rejected,
        project_cold_ms: cold_time.scaled(1e3),
        project_warm_ms: warm_time.scaled(1e3),
    }
}

fn bench_gpe_sim() -> f64 {
    let sim = GpeArraySim::new(GpeArrayConfig::default());
    let evals: Vec<u16> = (0..256).map(|i| 10 + (i % 37) as u16).collect();
    let blends: Vec<u16> = evals.iter().map(|&e| e / 2).collect();
    time_it(5, 2000, || {
        black_box(sim.tile_cycles(black_box(&evals), black_box(&blends)));
    }) * 1e9
}

fn out_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_kernels.json")
}

fn main() {
    let threads =
        std::env::var("AGS_BENCH_THREADS").ok().and_then(|v| v.parse::<usize>().ok()).unwrap_or(0);
    let parallel =
        if threads > 0 { Parallelism::with_threads(threads) } else { Parallelism::default() };
    let workers = parallel.effective_threads();
    println!("kernel benchmarks — {workers} parallel worker(s)\n");

    let sad = bench_sad_kernel(8);
    println!(
        "sad kernel 8x8 blocks          512x384: scalar {:>10.1} Mpix/s   {:<8} {:>10.1} Mpix/s   speedup {:.2}x",
        sad.scalar_mpix_per_s, sad.kernel, sad.simd_mpix_per_s, sad.speedup
    );
    let sad16 = bench_sad_kernel(16);
    println!(
        "sad kernel 16x16 blocks        512x384: scalar {:>10.1} Mpix/s   {:<8} {:>10.1} Mpix/s   speedup {:.2}x",
        sad16.scalar_mpix_per_s, sad16.kernel, sad16.simd_mpix_per_s, sad16.speedup
    );
    let diamond = bench_motion_estimation(SearchKind::Diamond, parallel.clone());
    println!(
        "motion estimation / diamond    512x384: serial {:>12.0} blocks/s  parallel {:>12.0} blocks/s  speedup {:.2}x",
        diamond.serial_blocks_per_s, diamond.parallel_blocks_per_s, diamond.speedup
    );
    // Diamond frames this size must never pay the pool: the workload
    // heuristic routes them inline, so the "parallel" knob times the same
    // code path and the ratio may only wobble with measurement noise.
    assert!(
        diamond.speedup >= 0.95,
        "parallel diamond ME regressed below serial: {:.3}x",
        diamond.speedup
    );
    let full = bench_motion_estimation(SearchKind::FullSearch, parallel.clone());
    println!(
        "motion estimation / full       512x384: serial {:>12.0} blocks/s  parallel {:>12.0} blocks/s  speedup {:.2}x",
        full.serial_blocks_per_s, full.parallel_blocks_per_s, full.speedup
    );
    let batched = bench_batched_me(&parallel);
    println!(
        "batched window ME / diamond    128x96:  looped {:>12.2} pairs/s   batched  {:>12.2} pairs/s   speedup {:.2}x ({} pairs)",
        batched.looped_pairs_per_s, batched.batched_pairs_per_s, batched.speedup, batched.pairs
    );
    let raster = bench_rasterization(parallel.clone());
    println!(
        "rasterization 4k gaussians     256x192: serial {:>12.0} tiles/s   parallel {:>12.0} tiles/s   speedup {:.2}x",
        raster.serial_tiles_per_s, raster.parallel_tiles_per_s, raster.speedup
    );
    let gpe_ns = bench_gpe_sim();
    println!("gpe cycle model                 256 px: {gpe_ns:>12.0} ns/tile");
    let bb = bench_backbone();
    println!(
        "coarse-tracking backbone       {}x{}:  run {:>7.3} ms [{:.3}..{:.3}]  {:>6.2} GMAC/s   coarse track {:>7.3} ms/frame [{:.3}..{:.3}]",
        bb.width,
        bb.height,
        bb.backbone_ms.median,
        bb.backbone_ms.min,
        bb.backbone_ms.max,
        bb.gmac_per_s,
        bb.coarse_track_ms.median,
        bb.coarse_track_ms.min,
        bb.coarse_track_ms.max
    );
    let train = bench_train_iteration();
    println!(
        "training iteration (vectorized) {}x{}:  taped {:>7.3} ms [{:.3}..{:.3}]  stand-alone {:>7.3} ms [{:.3}..{:.3}]  forward only {:>7.3} ms   pairs {} walked {}  tape {} KiB",
        train.width,
        train.height,
        train.taped_ms.median,
        train.taped_ms.min,
        train.taped_ms.max,
        train.standalone_ms.median,
        train.standalone_ms.min,
        train.standalone_ms.max,
        train.forward_ms.median,
        train.pairs,
        train.walked_pairs,
        train.tape_bytes / 1024
    );
    let front = bench_front_end();
    println!(
        "projection (late-stream map)    {}x{}:  cold {:>7.3} ms [{:.3}..{:.3}]  terms kept {:>7.3} ms [{:.3}..{:.3}]  ({:.2}x)   visible {} of {}  early-rejected {}  late-culled {}",
        front.width,
        front.height,
        front.project_cold_ms.median,
        front.project_cold_ms.min,
        front.project_cold_ms.max,
        front.project_warm_ms.median,
        front.project_warm_ms.min,
        front.project_warm_ms.max,
        front.project_cold_ms.median / front.project_warm_ms.median,
        front.visible,
        front.splats,
        front.early_rejected,
        front.late_culled
    );
    let bin = bench_bin();
    println!(
        "tile binning (late-stream map)  {}x{}:  build {:>7.3} ms [{:.3}..{:.3}]  + canonical on every tile {:>7.3} ms [{:.3}..{:.3}]  ({:.2}x)   visible {} of {}  pairs {}  tied tiles {}  canonical tiles {}",
        bin.width,
        bin.height,
        bin.build_ms.median,
        bin.build_ms.min,
        bin.build_ms.max,
        bin.build_plus_canonical_all_ms.median,
        bin.build_plus_canonical_all_ms.min,
        bin.build_plus_canonical_all_ms.max,
        bin.build_plus_canonical_all_ms.median / bin.build_ms.median,
        bin.visible,
        bin.splats,
        bin.pairs,
        bin.tied_tiles,
        bin.canonical_tiles
    );
    let e2e = bench_end_to_end(parallel);
    println!(
        "end-to-end process_frame       {}x{}:  serial {:>8.2} frames/s  parallel {:>8.2} frames/s  overlapped {:>8.2} frames/s ({:.2}x)",
        e2e.width, e2e.height, e2e.serial_fps, e2e.parallel_fps, e2e.overlapped_fps, e2e.overlap_speedup
    );
    println!(
        "  stage breakdown (serial, per frame): fc {:.2} ms | track {:.2} ms | map {:.2} ms",
        e2e.fc_ms, e2e.track_ms, e2e.map_ms
    );
    println!(
        "  map stage by backend: reference {:.2} ms | vectorized+cache {:.2} ms  speedup {:.2}x [{:.2}..{:.2}]",
        e2e.map_ms,
        e2e.vectorized_map_ms,
        e2e.vectorized_map_speedup,
        e2e.vectorized_map_speedup_range.0,
        e2e.vectorized_map_speedup_range.1
    );
    let heavy = bench_map_heavy_overlap();
    println!(
        "map-heavy Track ‖ Map overlap  {}x{}:  fc-overlapped {:>8.2} frames/s  map-overlapped {:>8.2} frames/s ({:.2}x, stall {:.2} ms/frame)",
        heavy.width, heavy.height, heavy.overlapped_fps, heavy.map_overlapped_fps, heavy.speedup,
        heavy.stall_ms_per_frame
    );
    let multi = bench_multi_stream();
    println!(
        "multi-stream server            {}x{}:  S=1 {:>7.2} fps  S=2 {:>7.2} fps  S=4 {:>7.2} fps  aggregate (S=2 scaling {:.2}x, {} pool workers)",
        multi.width,
        multi.height,
        multi.scales[0].aggregate_fps,
        multi.scales[1].aggregate_fps,
        multi.scales[2].aggregate_fps,
        multi.s2_scaling_vs_s1,
        multi.pool_workers
    );
    let stall_line = multi
        .scales
        .iter()
        .map(|s| format!("S={} {:.2} ms", s.streams, s.stall_ms_per_frame))
        .collect::<Vec<_>>()
        .join(" | ");
    println!("  per-frame stall: {stall_line}");
    let ckpt = bench_checkpoint();
    println!(
        "durable checkpoint log         {}x{}:  delta {:.0} B/epoch, base {:.0} B",
        ckpt.width, ckpt.height, ckpt.delta_bytes_per_epoch, ckpt.full_snapshot_bytes
    );
    let overload = bench_overload();
    println!(
        "overload control (idle QoS)    {}x{}:  plain {:>8.2} frames/s  qos {:>8.2} frames/s  (shed overhead {:+.2}%)",
        overload.width, overload.height, overload.plain_fps, overload.qos_fps,
        overload.shed_overhead_pct
    );
    let compaction = bench_compaction();
    println!(
        "map compaction                 {}x{}:  full {:>8} B  compacted {:>8} B (-{:.1}%, pruned {}, quantized {})  fps {:.2} -> {:.2}  ate {:.4} -> {:.4}  delta {:.0} B/epoch",
        compaction.width,
        compaction.height,
        compaction.full_map_bytes,
        compaction.compacted_map_bytes,
        compaction.reduction_pct,
        compaction.pruned_splats,
        compaction.quantized_splats,
        compaction.uncompacted_fps,
        compaction.compacted_fps,
        compaction.ate_uncompacted,
        compaction.ate_compacted,
        compaction.delta_bytes_per_epoch
    );
    let migration = bench_migration();
    println!(
        "stream migration (remote store) {}x{}:  cut-over gap {:>7.2} ms  restore {:>8} B",
        migration.width, migration.height, migration.migration_gap_ms, migration.restore_bytes,
    );

    let json = format!(
        r#"{{
  "bench": "kernels",
  "threads": {workers},
  "sad_kernel": {{
    "frame": [512, 384],
    "block": 8,
    "kernel": "{}",
    "scalar_mpix_per_s": {:.1},
    "simd_mpix_per_s": {:.1},
    "speedup": {:.3}
  }},
  "sad_kernel_16": {{
    "frame": [512, 384],
    "block": 16,
    "kernel": "{}",
    "scalar_mpix_per_s": {:.1},
    "simd_mpix_per_s": {:.1},
    "speedup": {:.3}
  }},
  "motion_estimation": {{
    "frame": [512, 384],
    "mb_size": 8,
    "diamond": {{
      "serial_blocks_per_s": {:.1},
      "parallel_blocks_per_s": {:.1},
      "speedup": {:.3},
      "sad_evaluations": {}
    }},
    "full_search": {{
      "serial_blocks_per_s": {:.1},
      "parallel_blocks_per_s": {:.1},
      "speedup": {:.3},
      "sad_evaluations": {}
    }},
    "batched_window": {{
      "frame": [128, 96],
      "pairs": {},
      "looped_pairs_per_s": {:.2},
      "batched_pairs_per_s": {:.2},
      "speedup": {:.3}
    }}
  }},
  "rasterization": {{
    "frame": [256, 192],
    "gaussians": 4000,
    "tiles": {},
    "serial_tiles_per_s": {:.1},
    "parallel_tiles_per_s": {:.1},
    "speedup": {:.3}
  }},
  "gpe_sim_ns_per_tile": {:.1},
  "backbone": {{
    "frame": [{}, {}],
    "gru_iterations": {},
    "macs": {},
    "samples": {},
    "backbone_ms": {:.4},
    "backbone_ms_min": {:.4},
    "backbone_ms_max": {:.4},
    "backbone_gmac_s": {:.3},
    "coarse_track_ms": {:.4},
    "coarse_track_ms_min": {:.4},
    "coarse_track_ms_max": {:.4}
  }},
  "train_iteration": {},
  "front_end": {},
  "bin": {},
  "end_to_end": {{
    "frame": [{}, {}],
    "frames": {},
    "pipeline_depth": 1,
    "serial_frames_per_s": {:.3},
    "parallel_frames_per_s": {:.3},
    "overlapped_frames_per_s": {:.3},
    "overlap_speedup": {:.3},
    "stage_ms": {{
      "fc": {:.3},
      "track": {:.3},
      "map": {:.3},
      "map_vectorized": {:.3}
    }},
    "vectorized_map_speedup": {:.3},
    "vectorized_map_speedup_min": {:.3},
    "vectorized_map_speedup_max": {:.3},
    "map_heavy": {{
      "frame": [{}, {}],
      "frames": {},
      "mapping_iterations": {},
      "map_slack": {},
      "overlapped_frames_per_s": {:.3},
      "map_overlapped_frames_per_s": {:.3},
      "map_overlap_speedup": {:.3},
      "track_stall_ms_per_frame": {:.3}
    }}
  }},
  "multi_stream": {{
    "frame": [{}, {}],
    "frames_per_stream": {},
    "pool_workers": {},
    "pipeline": "map_overlapped(1, 1)",
    "s1_aggregate_frames_per_s": {:.3},
    "s1_stall_ms_per_frame": {:.3},
    "s2_aggregate_frames_per_s": {:.3},
    "s2_stall_ms_per_frame": {:.3},
    "s4_aggregate_frames_per_s": {:.3},
    "s4_stall_ms_per_frame": {:.3},
    "s2_scaling_vs_s1": {:.3}
  }},
  "checkpoint": {{
    "frame": [{}, {}],
    "frames": {},
    "pipeline": "map_overlapped(1, 1)",
    "delta_bytes_per_epoch": {:.1},
    "full_snapshot_bytes": {:.1}
  }},
  "overload": {{
    "frame": [{}, {}],
    "frames": {},
    "pipeline": "map_overlapped(1, 1)",
    "plain_frames_per_s": {:.3},
    "qos_frames_per_s": {:.3},
    "shed_overhead_pct": {:.3}
  }},
  "compaction": {{
    "frame": [{}, {}],
    "frames": {},
    "mapping_iterations": 10,
    "full_map_bytes": {},
    "compacted_map_bytes": {},
    "map_bytes_reduction_pct": {:.1},
    "compaction_pruned_splats": {},
    "compaction_quantized_splats": {},
    "uncompacted_frames_per_s": {:.3},
    "compacted_frames_per_s": {:.3},
    "ate_uncompacted": {:.5},
    "ate_compacted": {:.5},
    "compaction_delta_bytes_per_epoch": {:.1}
  }},
  "migration": {{
    "frame": [{}, {}],
    "frames": {},
    "pipeline": "map_overlapped(1, 1)",
    "migration_gap_ms": {:.3},
    "restore_bytes": {}
  }}
}}
"#,
        sad.kernel,
        sad.scalar_mpix_per_s,
        sad.simd_mpix_per_s,
        sad.speedup,
        sad16.kernel,
        sad16.scalar_mpix_per_s,
        sad16.simd_mpix_per_s,
        sad16.speedup,
        diamond.serial_blocks_per_s,
        diamond.parallel_blocks_per_s,
        diamond.speedup,
        diamond.sad_evaluations,
        full.serial_blocks_per_s,
        full.parallel_blocks_per_s,
        full.speedup,
        full.sad_evaluations,
        batched.pairs,
        batched.looped_pairs_per_s,
        batched.batched_pairs_per_s,
        batched.speedup,
        raster.tiles,
        raster.serial_tiles_per_s,
        raster.parallel_tiles_per_s,
        raster.speedup,
        gpe_ns,
        bb.width,
        bb.height,
        bb.gru_iterations,
        bb.macs,
        bb.samples,
        bb.backbone_ms.median,
        bb.backbone_ms.min,
        bb.backbone_ms.max,
        bb.gmac_per_s,
        bb.coarse_track_ms.median,
        bb.coarse_track_ms.min,
        bb.coarse_track_ms.max,
        train.json(),
        front.json(),
        bin.json(),
        e2e.width,
        e2e.height,
        e2e.frames,
        e2e.serial_fps,
        e2e.parallel_fps,
        e2e.overlapped_fps,
        e2e.overlap_speedup,
        e2e.fc_ms,
        e2e.track_ms,
        e2e.map_ms,
        e2e.vectorized_map_ms,
        e2e.vectorized_map_speedup,
        e2e.vectorized_map_speedup_range.0,
        e2e.vectorized_map_speedup_range.1,
        heavy.width,
        heavy.height,
        heavy.frames,
        heavy.mapping_iterations,
        heavy.map_slack,
        heavy.overlapped_fps,
        heavy.map_overlapped_fps,
        heavy.speedup,
        heavy.stall_ms_per_frame,
        multi.width,
        multi.height,
        multi.frames,
        multi.pool_workers,
        multi.scales[0].aggregate_fps,
        multi.scales[0].stall_ms_per_frame,
        multi.scales[1].aggregate_fps,
        multi.scales[1].stall_ms_per_frame,
        multi.scales[2].aggregate_fps,
        multi.scales[2].stall_ms_per_frame,
        multi.s2_scaling_vs_s1,
        ckpt.width,
        ckpt.height,
        ckpt.frames,
        ckpt.delta_bytes_per_epoch,
        ckpt.full_snapshot_bytes,
        overload.width,
        overload.height,
        overload.frames,
        overload.plain_fps,
        overload.qos_fps,
        overload.shed_overhead_pct,
        compaction.width,
        compaction.height,
        compaction.frames,
        compaction.full_map_bytes,
        compaction.compacted_map_bytes,
        compaction.reduction_pct,
        compaction.pruned_splats,
        compaction.quantized_splats,
        compaction.uncompacted_fps,
        compaction.compacted_fps,
        compaction.ate_uncompacted,
        compaction.ate_compacted,
        compaction.delta_bytes_per_epoch,
        migration.width,
        migration.height,
        migration.frames,
        migration.migration_gap_ms,
        migration.restore_bytes,
    );
    let path = out_path();
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nwarning: could not write {}: {e}", path.display()),
    }
}
