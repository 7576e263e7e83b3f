//! Micro-benchmarks of the performance-critical kernels.
//!
//! Times the hot paths the AGS hardware accelerates — the SAD row kernel,
//! CODEC motion estimation, tile rasterization, the coarse-tracking
//! backbone, one training iteration, projection and tile binning — checks
//! each fast path bit-identical to its reference (parallel vs serial, SIMD
//! vs scalar, vectorized vs the scalar reference backend) before trusting
//! its timing, times one live stream migration's cut-over gap, prints a
//! table and writes the machine-readable `BENCH_kernels.json` into the
//! workspace root (the CI perf gate compares it against the committed
//! file). End-to-end frame rates of the configuration that ships come from
//! the repo's benchmark (`BENCHMARK.json`, `benchmark/`), not from here.
//!
//! Run: `cargo bench -p ags-bench --bench kernels`
//! Env: `AGS_BENCH_THREADS=<n>` overrides the parallel worker count.

use ags_codec::{sad_kernel_name, CodecConfig, LumaPlane, MotionEstimator, SearchKind, MB_SIZE};
use ags_core::config::PipelineConfig;
use ags_core::{AgsConfig, AgsSlam};
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

/// The median of N samples (seconds, or a ratio of two timings) with the
/// spread it was taken from.
struct Spread {
    median: f64,
    min: f64,
    max: f64,
}

impl Spread {
    fn of(mut samples: Vec<f64>) -> Self {
        samples.sort_unstable_by(f64::total_cmp);
        Self {
            median: samples[samples.len() / 2],
            min: samples[0],
            max: samples[samples.len() - 1],
        }
    }

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

/// Wall-clock seconds of one invocation, over one batch of `iters`.
fn batch(iters: usize, f: &mut impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() / iters as f64
}

/// Wall-clock seconds of one invocation over `samples` timed batches.
fn time_spread<F: FnMut()>(samples: usize, iters: usize, mut f: F) -> Spread {
    f(); // warm-up
    Spread::of((0..samples).map(|_| batch(iters, &mut f)).collect())
}

/// [`time_spread`] of two workloads whose batches are interleaved (the one
/// timed first alternates), plus the spread of the per-sample `a / b` ratio.
fn time_pair(
    samples: usize,
    iters: usize,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> (Spread, Spread, Spread) {
    a(); // warm-up
    b();
    let (mut ta, mut tb) = (Vec::with_capacity(samples), Vec::with_capacity(samples));
    for sample in 0..samples {
        if sample % 2 == 0 {
            ta.push(batch(iters, &mut a));
            tb.push(batch(iters, &mut b));
        } else {
            tb.push(batch(iters, &mut b));
            ta.push(batch(iters, &mut a));
        }
    }
    let ratios = ta.iter().zip(&tb).map(|(a, b)| a / b).collect();
    (Spread::of(ta), Spread::of(tb), Spread::of(ratios))
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
    let estimate = |est: &MotionEstimator| {
        black_box(est.estimate(black_box(&current), black_box(&reference)));
    };
    let (serial_times, parallel_times, _) =
        time_pair(samples, iters, || estimate(&serial_est), || estimate(&parallel_est));
    let (t_serial, t_parallel) = (serial_times.min, parallel_times.min);
    MeResult {
        serial_blocks_per_s: blocks / t_serial,
        parallel_blocks_per_s: blocks / t_parallel,
        speedup: t_serial / t_parallel,
        sad_evaluations: expect.sad_evaluations,
    }
}

struct PairMeResult {
    pairs: usize,
    /// Best sample (the gated key).
    looped_pairs_per_s: f64,
    /// Median and slowest sample: recorded so the host's spread shows
    /// beside the gated best, not gated.
    looped_pairs_per_s_median: f64,
    looped_pairs_per_s_worst: f64,
}

/// Times per-pair motion estimation at SLAM frame scale: one frame against
/// 8 references as 8 sequential `estimate` calls on a pooled estimator.
/// The streaming codec runs the same call once per reference (previous
/// frame + key frame) on every frame.
///
/// At this size each pair is below the `min_items_per_worker` floor for the
/// two planned executors, so every call runs inline: the entry tracks the
/// per-call cost of small-frame ME (and would regress if a change started
/// paying the pool on small work again). Min-of-N timing, with the median
/// and slowest of the N reported beside it.
fn bench_pair_me(parallel: &Parallelism) -> PairMeResult {
    let (w, h, pairs) = (128usize, 96usize, 8usize);
    let current = LumaPlane::from_fn(w, h, |x, y| (((x * 13 + y * 7) ^ (x * y / 5)) % 251) as u8);
    let references: Vec<LumaPlane> = (1..=pairs)
        .map(|s| {
            LumaPlane::from_fn(w, h, |x, y| {
                ((((x + s) * 13 + y * 7) ^ ((x + s) * y / 5)) % 251) as u8
            })
        })
        .collect();
    let threads = parallel.effective_threads().max(2);
    let pool = Arc::new(ags_math::WorkerPool::new(threads - 1));
    let est = MotionEstimator::new(CodecConfig {
        parallelism: Parallelism::with_threads(threads).on_pool(pool),
        ..CodecConfig::default()
    });

    // Bit-identity with the serial reference before trusting any timing.
    let serial = MotionEstimator::new(CodecConfig {
        parallelism: Parallelism::serial(),
        ..CodecConfig::default()
    });
    for r in &references {
        assert_eq!(serial.estimate(&current, r), est.estimate(&current, r), "pooled ME");
    }

    let looped = time_spread(10, 16, || {
        for r in &references {
            black_box(est.estimate(black_box(&current), black_box(r)));
        }
    });
    let per_s = |seconds: f64| pairs as f64 / seconds;
    PairMeResult {
        pairs,
        looped_pairs_per_s: per_s(looped.min),
        looped_pairs_per_s_median: per_s(looped.median),
        looped_pairs_per_s_worst: per_s(looped.max),
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

/// Times the whole-block SAD kernel (SSE2/NEON on 8×8 macro-blocks, the
/// scalar oracle elsewhere) against the scalar oracle over a dense grid of
/// block comparisons (the exact shape the ME search issues).
fn bench_sad_kernel() -> SadResult {
    let (w, h, block) = (512usize, 384usize, MB_SIZE);
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
        positions.iter().map(|&(x, y, rx, ry)| a.block_sad(x, y, &b, rx, ry) as u64).sum();
    let scalar_sum: u64 =
        positions.iter().map(|&(x, y, rx, ry)| a.block_sad_scalar(x, y, &b, rx, ry) as u64).sum();
    assert_eq!(simd_sum, scalar_sum, "SIMD SAD kernel must match the scalar reference");

    let pixels = (positions.len() * block * block) as f64;
    let t_scalar = time_it(5, 20, || {
        let mut acc = 0u64;
        for &(x, y, rx, ry) in &positions {
            acc += a.block_sad_scalar(x, y, black_box(&b), rx, ry) as u64;
        }
        black_box(acc);
    });
    let t_simd = time_it(5, 20, || {
        let mut acc = 0u64;
        for &(x, y, rx, ry) in &positions {
            acc += a.block_sad(x, y, black_box(&b), rx, ry) as u64;
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

/// The driver configuration `train_iteration` builds its map with and the
/// `migration` row streams: FullSearch ME (one `estimate` per reference
/// of every frame), every stage inline on one thread.
fn e2e_config() -> AgsConfig {
    let mut config = AgsConfig::tiny();
    config.slam.tile_work_interval = 0;
    config.codec.search = SearchKind::FullSearch;
    config.codec.search_range = 16;
    config.parallelism = Parallelism::serial();
    config
}

fn e2e_dataset(frames: usize, width: usize, height: usize) -> Dataset {
    let dconfig = DatasetConfig { width, height, num_frames: frames * 4, ..DatasetConfig::tiny() };
    let mut data = Dataset::generate(SceneId::Xyz, &dconfig);
    data.truncate(frames);
    data
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

/// The coarse tracker's always-on cost at `train_iteration`'s frame size:
/// the neural backbone alone, and the whole coarse `track` call.
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
    /// The same pass on the scalar reference backend, its batches
    /// interleaved with `taped_ms`'s.
    reference_taped_ms: Spread,
    /// Reference over vectorized time, per interleaved sample pair.
    vectorized_speedup: Spread,
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
    {},
    "taped_speedup": {:.3},
    "taped_speedup_min": {:.3},
    "vectorized_speedup": {:.3},
    "vectorized_speedup_min": {:.3},
    "vectorized_speedup_max": {:.3}
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
            self.reference_taped_ms.json_ms("reference_taped"),
            self.standalone_ms.json_ms("standalone"),
            self.forward_ms.json_ms("forward"),
            self.standalone_ms.median / self.taped_ms.median,
            self.standalone_ms.min / self.taped_ms.max,
            self.vectorized_speedup.median,
            self.vectorized_speedup.min,
            self.vectorized_speedup.max,
        )
    }
}

/// One mapping iteration's render work (forward + loss + backward, no Adam)
/// on the driver's 96×72 `Xyz` scene: the map a serial run has built after
/// ten frames, trained against the last frame — on the vectorized backend,
/// and on the scalar reference for `vectorized_speedup`.
fn bench_train_iteration() -> TrainIterationResult {
    const SAMPLES: usize = 9;
    let data = e2e_dataset(10, 96, 72);
    let config = e2e_config();
    let mut slam = AgsSlam::new(config.clone());
    for f in &data.frames {
        slam.push_frame(&data.camera, Arc::new(f.rgb.clone()), Arc::new(f.depth.clone()));
    }
    slam.finish();
    let (cloud, camera) = (slam.cloud(), &data.camera);
    let pose = *slam.trajectory().last().expect("ten frames tracked");
    let frame = data.frames.last().expect("ten frames");
    let loss_config = config.slam.mapping_loss;
    let options = RenderOptions {
        parallelism: Parallelism::serial(),
        backend: BackendKind::Vectorized,
        ..RenderOptions::default()
    };
    let reference = RenderOptions { backend: BackendKind::Reference, ..options.clone() };
    let forward = || {
        let projection = project_gaussians(cloud, camera, &pose);
        let tables = GaussianTables::build_with(&projection, camera, &options.parallelism);
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
    let taped = |scratch: &mut TrainScratch, options: &RenderOptions| {
        let (rgb, depth, mode) = (&frame.rgb, &frame.depth, GradMode::Map);
        train_pass(scratch, cloud, camera, &pose, rgb, depth, &loss_config, mode, options, None)
    };
    let (mut scratch, mut reference_scratch) = (TrainScratch::default(), TrainScratch::default());

    // The tape must hand backward exactly what the stand-alone walk finds,
    // and the scalar oracle must find the same gradients.
    let (pass, replay) = (taped(&mut scratch, &options), standalone());
    let oracle = taped(&mut reference_scratch, &reference).backward.grads.expect("map grads");
    let (tg, sg) = (pass.backward.grads.expect("map grads"), replay.grads.expect("map grads"));
    assert_eq!(tg.position, sg.position, "taped and stand-alone backward diverge");
    assert_eq!(tg.opacity_logit, sg.opacity_logit, "taped and stand-alone backward diverge");
    assert_eq!(pass.backward.stats.grad_ops, replay.stats.grad_ops);
    assert!(
        tg.position == oracle.position
            && tg.log_scale == oracle.log_scale
            && tg.rotation == oracle.rotation
            && tg.color == oracle.color
            && tg.opacity_logit == oracle.opacity_logit,
        "vectorized and reference gradients diverge"
    );
    let stats = pass.render.stats;
    let tape_bytes = scratch.taped_blend_ops() * 8;

    let (reference_time, taped_time, vectorized_speedup) = time_pair(
        SAMPLES,
        10,
        || {
            black_box(taped(&mut reference_scratch, &reference));
        },
        || {
            black_box(taped(&mut scratch, &options));
        },
    );
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
        reference_taped_ms: reference_time.scaled(1e3),
        vectorized_speedup,
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
    /// Entries the prefix build puts into the tables, of `pairs`.
    prefix_pairs: u64,
    /// Tiles with a depth tie in their table; of a vectorized render, the
    /// tiles whose walk left the prefix and those whose walk reached the tie.
    tied_tiles: usize,
    deepened_tiles: u64,
    canonical_tiles: u64,
    /// `GaussianTables::build_with`: one sort of the visible splats, one
    /// scatter that stops once every tile holds its prefix.
    build_ms: Spread,
    /// `GaussianTables::build_complete`: the same sort, every table filled.
    build_complete_ms: Spread,
    /// The complete build plus every tile's canonical table — what each
    /// build cost while every tile ran its own comparator sort.
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
    "prefix_pairs": {},
    "tied_tiles": {},
    "deepened_tiles": {},
    "canonical_tiles": {},
    {},
    {},
    {},
    "prefix_speedup": {:.3},
    "prefix_speedup_min": {:.3},
    "bin_speedup": {:.3},
    "bin_speedup_min": {:.3}
  }}"#,
            self.width,
            self.height,
            self.samples,
            self.splats,
            self.visible,
            self.pairs,
            self.prefix_pairs,
            self.tied_tiles,
            self.deepened_tiles,
            self.canonical_tiles,
            self.build_ms.json_ms("build"),
            self.build_complete_ms.json_ms("build_complete"),
            self.build_plus_canonical_all_ms.json_ms("build_plus_canonical_all"),
            self.build_complete_ms.median / self.build_ms.median,
            self.build_complete_ms.min / self.build_ms.max,
            self.build_plus_canonical_all_ms.median / self.build_complete_ms.median,
            self.build_plus_canonical_all_ms.min / self.build_complete_ms.max,
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
    let projection = project_gaussians(&cloud, &camera, &Se3::IDENTITY);
    let build = || GaussianTables::build_with(&projection, &camera, &options.parallelism);
    let build_complete = || GaussianTables::build_complete(&projection, &camera);

    let (tables, complete) = (build(), build_complete());
    let tiles = tables.grid.num_tiles();
    let shallowest = (0..tiles).map(|t| tables.table_len(t)).min().unwrap_or(0);
    assert!(shallowest >= 2000, "late-stream tables must be deep, got {shallowest}");
    let tied = |&t: &usize| complete.unique_len(t) < complete.table_len(t);
    let tied_tiles = (0..tiles).filter(tied).count();
    assert!(tied_tiles > 0, "the wall must put depth ties into the tables");
    let prefix_pairs = (0..tiles).map(|t| tables.prefix(t).len() as u64).sum();
    let stats = rasterize(&cloud, &projection, &tables, &camera, &options).stats;
    // The two builds must blend the same order once the prefixes deepen.
    for t in 0..tiles {
        assert_eq!(tables.canonical(t), complete.canonical(t), "tile {t}: deepening diverged");
    }

    let build_time = time_spread(SAMPLES, 20, || {
        black_box(build());
    });
    let complete_time = time_spread(SAMPLES, 20, || {
        black_box(build_complete());
    });
    let all_time = time_spread(SAMPLES, 20, || {
        let tables = build_complete();
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
        prefix_pairs,
        tied_tiles,
        deepened_tiles: stats.deepened_tiles,
        canonical_tiles: stats.canonical_tiles,
        build_ms: build_time.scaled(1e3),
        build_complete_ms: complete_time.scaled(1e3),
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

    let sad = bench_sad_kernel();
    println!(
        "sad kernel 8x8 blocks          512x384: scalar {:>10.1} Mpix/s   {:<8} {:>10.1} Mpix/s   speedup {:.2}x",
        sad.scalar_mpix_per_s, sad.kernel, sad.simd_mpix_per_s, sad.speedup
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
    let pair_me = bench_pair_me(&parallel);
    println!(
        "per-pair ME / diamond          128x96:  looped {:>12.2} pairs/s   ({} pairs; median {:.2}, worst {:.2})",
        pair_me.looped_pairs_per_s,
        pair_me.pairs,
        pair_me.looped_pairs_per_s_median,
        pair_me.looped_pairs_per_s_worst
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
        "training iteration (vectorized) {}x{}:  taped {:>7.3} ms [{:.3}..{:.3}]  reference {:>7.3} ms [{:.3}..{:.3}] ({:.2}x [{:.2}..{:.2}])  stand-alone {:>7.3} ms [{:.3}..{:.3}]  forward only {:>7.3} ms   pairs {} walked {}  tape {} KiB",
        train.width,
        train.height,
        train.taped_ms.median,
        train.taped_ms.min,
        train.taped_ms.max,
        train.reference_taped_ms.median,
        train.reference_taped_ms.min,
        train.reference_taped_ms.max,
        train.vectorized_speedup.median,
        train.vectorized_speedup.min,
        train.vectorized_speedup.max,
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
        "tile binning (late-stream map)  {}x{}:  prefix build {:>7.3} ms [{:.3}..{:.3}]  complete build {:>7.3} ms [{:.3}..{:.3}]  ({:.2}x)  + canonical on every tile {:>7.3} ms [{:.3}..{:.3}]  ({:.2}x)   visible {} of {}  pairs {} prefix pairs {}  tied tiles {}  deepened tiles {}  canonical tiles {}",
        bin.width,
        bin.height,
        bin.build_ms.median,
        bin.build_ms.min,
        bin.build_ms.max,
        bin.build_complete_ms.median,
        bin.build_complete_ms.min,
        bin.build_complete_ms.max,
        bin.build_complete_ms.median / bin.build_ms.median,
        bin.build_plus_canonical_all_ms.median,
        bin.build_plus_canonical_all_ms.min,
        bin.build_plus_canonical_all_ms.max,
        bin.build_plus_canonical_all_ms.median / bin.build_complete_ms.median,
        bin.visible,
        bin.splats,
        bin.pairs,
        bin.prefix_pairs,
        bin.tied_tiles,
        bin.deepened_tiles,
        bin.canonical_tiles
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
      "looped_pairs_per_s_median": {:.2},
      "looped_pairs_per_s_worst": {:.2}
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
        diamond.serial_blocks_per_s,
        diamond.parallel_blocks_per_s,
        diamond.speedup,
        diamond.sad_evaluations,
        full.serial_blocks_per_s,
        full.parallel_blocks_per_s,
        full.speedup,
        full.sad_evaluations,
        pair_me.pairs,
        pair_me.looped_pairs_per_s,
        pair_me.looped_pairs_per_s_median,
        pair_me.looped_pairs_per_s_worst,
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
