//! The four stream workloads, in benchmark-owned terms. `sut.rs` turns a
//! [`Workload`] into program configuration; nothing here names a program
//! item.

/// Frame size of `steady_map` and `durable_failover`. At the issue's 96×72
/// a pass took 12–13 s on the 2-vCPU reference host and three of them do not
/// fit the per-run cap, so the resolution was lowered — not the frame count
/// and not the pass count. Each size below puts its workload's pass at
/// 4.7–6.8 reference-host seconds, mid-way in the window in which a 20 s
/// run makes three passes.
pub const FRAME: (usize, usize) = (56, 42);

/// Frame size of `jerky_track`, whose three mapping iterations make frames
/// cheaper.
pub const JERKY_FRAME: (usize, usize) = (60, 45);

/// Frame size of `fleet_overlap`: two streams are twice the frames, so its
/// frames are smaller again. (At 40×30 tracking diverges — ATE of a metre —
/// so this is as small as the workload goes.)
pub const FLEET_FRAME: (usize, usize) = (44, 33);

/// Generated scene + camera path of one input stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scene {
    /// Replica `room0` stand-in: smooth pan, one mild burst, no jitter.
    Room0,
    /// TUM `fr1/room` stand-in: wide pan, three strong bursts, jitter.
    Room,
    /// TUM `fr1/desk` stand-in: orbit, two bursts.
    Desk,
    /// ScanNet++ stand-in: house-scale pan, two bursts.
    S2,
}

/// One input stream of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSpec {
    /// Scene and camera path.
    pub scene: Scene,
    /// Frames generated for the stream.
    pub generated_frames: usize,
    /// Play the generated frames forward, then back without repeating the
    /// turning point (`2n − 1` frames): continuous motion whose second half
    /// revisits a map that is already built.
    pub ping_pong: bool,
}

impl StreamSpec {
    /// Frames the stream pushes.
    pub fn frames(&self) -> usize {
        play_order(self.generated_frames, self.ping_pong).len()
    }
}

/// How the stage graph of each stream is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pipeline {
    /// FC → Track → Map inline on the pushing thread.
    Serial,
    /// FC on a worker thread with this lookahead depth.
    Overlapped(usize),
    /// FC and Map on worker threads: `(depth, map_slack)`.
    MapOverlapped(usize, usize),
}

/// Durability of a workload: a checkpoint policy, a loopback remote store
/// and scheduled server losses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Durability {
    /// Commit a checkpoint generation every this many completed frames.
    pub commit_every: usize,
    /// The server is dropped, without a final checkpoint, right after the
    /// push of each of these frame indices.
    pub crash_after: Vec<usize>,
}

/// One benchmark workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists (one line, as in `BENCHMARK.json`).
    pub why: &'static str,
    /// Frame width in pixels.
    pub width: usize,
    /// Frame height in pixels.
    pub height: usize,
    /// Input streams, all on one server.
    pub streams: Vec<StreamSpec>,
    /// Stage-graph execution of every stream.
    pub pipeline: Pipeline,
    /// Kernel parallelism off (`true`) or the program default.
    pub serial_kernels: bool,
    /// Pose-refinement iterations on low-covisibility frames; `None` keeps
    /// the program default.
    pub iter_t: Option<u32>,
    /// Mapping iterations per frame; `None` keeps the program default.
    pub mapping_iterations: Option<u32>,
    /// Per-stream resident map ceiling in bytes (`0` = none).
    pub map_bytes_budget: u64,
    /// Checkpointing and scheduled crashes, if any.
    pub durability: Option<Durability>,
    /// Name of a workload whose final trace, trajectory and map this one
    /// must reproduce bit for bit.
    pub must_equal: Option<&'static str>,
    /// Exponent of the host-speed correction (see `calib`). `1.0` for a
    /// workload whose work runs on the driver thread. Workloads that keep
    /// worker threads busy beside it were fitted on the reference host:
    /// over 100 passes while the host drifted by a third, `log(pass time)`
    /// against `log(calibration time)` had slope 1.0–1.2 on the two serial
    /// workloads and 1.2–1.75 on the two threaded ones; at exponent 1 the
    /// threaded ones kept a residual cv of 3.5–5 %, at 1.5 of 2.5 %.
    pub host_exponent: f64,
}

impl Workload {
    /// Unique stream frames per pass, summed over streams.
    pub fn unique_frames(&self) -> usize {
        self.streams.iter().map(StreamSpec::frames).sum()
    }
}

/// The suite, in reporting order.
pub fn all() -> Vec<Workload> {
    let steady = StreamSpec { scene: Scene::Room0, generated_frames: 100, ping_pong: false };
    vec![
        Workload {
            name: "steady_map",
            why: "smooth motion, serial: refinement almost never runs, Map is most of the frame",
            width: FRAME.0,
            height: FRAME.1,
            streams: vec![steady],
            pipeline: Pipeline::Serial,
            serial_kernels: true,
            iter_t: None,
            mapping_iterations: None,
            map_bytes_budget: 0,
            durability: None,
            must_equal: None,
            host_exponent: 1.0,
        },
        Workload {
            name: "jerky_track",
            why:
                "bursty ping-pong motion, paper IterT: refined frames make Track most of the frame",
            width: JERKY_FRAME.0,
            height: JERKY_FRAME.1,
            streams: vec![StreamSpec { scene: Scene::Room, generated_frames: 50, ping_pong: true }],
            pipeline: Pipeline::Serial,
            serial_kernels: true,
            iter_t: Some(20),
            mapping_iterations: Some(3),
            map_bytes_budget: 0,
            durability: None,
            must_equal: None,
            host_exponent: 1.0,
        },
        Workload {
            name: "fleet_overlap",
            why:
                "two streams, Track || Map on one pool under a map budget: pipeline and compaction",
            width: FLEET_FRAME.0,
            height: FLEET_FRAME.1,
            streams: vec![
                StreamSpec { scene: Scene::Desk, generated_frames: 100, ping_pong: false },
                StreamSpec { scene: Scene::S2, generated_frames: 100, ping_pong: false },
            ],
            pipeline: Pipeline::MapOverlapped(1, 1),
            serial_kernels: false,
            iter_t: None,
            mapping_iterations: None,
            map_bytes_budget: FLEET_MAP_BUDGET,
            durability: None,
            must_equal: None,
            host_exponent: THREADED_HOST_EXPONENT,
        },
        Workload {
            name: "durable_failover",
            why: "steady_map stream checkpointed over loopback TCP, server lost twice and restored",
            width: FRAME.0,
            height: FRAME.1,
            streams: vec![steady],
            pipeline: Pipeline::Overlapped(1),
            serial_kernels: true,
            iter_t: None,
            mapping_iterations: None,
            map_bytes_budget: 0,
            durability: Some(Durability { commit_every: 10, crash_after: vec![39, 79] }),
            must_equal: Some("steady_map"),
            host_exponent: THREADED_HOST_EXPONENT,
        },
    ]
}

/// [`Workload::host_exponent`] of the workloads with busy worker threads.
pub const THREADED_HOST_EXPONENT: f64 = 1.5;

/// Per-stream map ceiling of `fleet_overlap`. The issue sized it (3 MiB) for
/// 96×72 frames; maps grow with the pixel count, so the ceiling is scaled by
/// it to stay as binding as the issue meant it.
pub const FLEET_MAP_BUDGET: u64 =
    3 * 1024 * 1024 * (FLEET_FRAME.0 * FLEET_FRAME.1) as u64 / (96 * 72);

/// The workload named `name`.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// Order in which `n` generated frames are pushed: `0..n`, and for a
/// ping-pong stream then `n−2 ..= 0`.
pub fn play_order(n: usize, ping_pong: bool) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    if ping_pong {
        order.extend((0..n.saturating_sub(1)).rev());
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_pong_order_is_mirrored_and_does_not_repeat_the_turn() {
        let order = play_order(50, true);
        assert_eq!(order.len(), 99);
        assert_eq!(order[49], 49);
        assert_eq!(order[50], 48, "the turning frame is pushed once");
        for i in 0..99 {
            assert_eq!(order[i], order[98 - i], "position {i} mirrors {}", 98 - i);
        }
        assert_eq!(play_order(3, false), vec![0, 1, 2]);
        assert_eq!(play_order(1, true), vec![0]);
        assert!(play_order(0, true).is_empty());
    }

    #[test]
    fn suite_shape_matches_the_issue() {
        let suite = all();
        let names: Vec<_> = suite.iter().map(|w| w.name).collect();
        assert_eq!(names, ["steady_map", "jerky_track", "fleet_overlap", "durable_failover"]);
        let frames: Vec<_> = suite.iter().map(Workload::unique_frames).collect();
        assert_eq!(frames, [100, 99, 200, 100], "n >= 99 latency samples per pass");
        assert_eq!(suite[3].streams, suite[0].streams, "failover replays the steady stream");
        assert_eq!(suite[3].must_equal, Some("steady_map"));
        for w in &suite {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert_eq!(by_name(w.name).as_ref(), Some(w));
        }
        assert!(by_name("nope").is_none());
    }
}
