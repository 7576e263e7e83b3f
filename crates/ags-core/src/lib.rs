//! AGS: CODEC-assisted frame-covisibility acceleration of 3DGS-SLAM.
//!
//! This crate is the paper's primary contribution — the algorithm layer of
//! the AGS framework (§4):
//!
//! * [`fc::FcDetector`] — frame covisibility detection from the video
//!   CODEC's min-SAD values (§4.1): one covisibility signal against the
//!   previous frame (steers tracking) and one against the last mapping key
//!   frame (steers key/non-key designation).
//! * **Movement-adaptive tracking** (§4.2): every frame gets a coarse
//!   Droid-style pose estimate; only frames whose covisibility falls below
//!   `ThreshT` pay for `IterT` iterations of 3DGS pose refinement.
//! * [`contribution::ContributionTracker`] — **Gaussian contribution-aware
//!   mapping** (§4.3): key frames run full mapping and record, per Gaussian,
//!   on how many pixels its α stayed below `Threshα`; Gaussians negligible
//!   on more than `ThreshN` pixels are skipped on subsequent non-key frames.
//! * [`stages`] — the pipeline decomposed into an explicit stage graph:
//!   [`stages::FcStage`], [`stages::TrackStage`] and [`stages::MapStage`]
//!   with typed inputs/outputs.
//! * [`pipeline::AgsSlam`] — the assembled system (serial stage execution),
//!   emitting a [`trace::WorkloadTrace`] the `ags-sim` hardware models
//!   consume.
//! * [`pipelined::PipelinedAgsSlam`] — the execution flow of Fig. 9(b) with
//!   real threads, on two axes: FC detection of frame `N+1` overlaps
//!   tracking/mapping of frame `N` over a bounded channel
//!   ([`config::PipelineMode::Overlapped`], bit-identical to the serial
//!   driver), and mapping runs on its own worker so Track(N+1) ‖ Map(N)
//!   over an epoch-snapshotted copy-on-write map
//!   ([`config::PipelineMode::MapOverlapped`], bit-identical to the serial
//!   deferred-map reference under the same `map_slack`).
//! * [`server::MultiStreamServer`] — `S` concurrent streams, one
//!   [`PipelinedAgsSlam`] each with a per-stream pipeline policy, all
//!   sharing a single stream-tagged worker pool with round-robin fairness
//!   lanes; per-stream results stay bit-identical to running the stream
//!   alone.
//!
//! # Example
//!
//! ```no_run
//! use ags_core::{AgsConfig, AgsSlam};
//! use ags_scene::dataset::{Dataset, DatasetConfig, SceneId};
//!
//! let data = Dataset::generate(SceneId::Desk, &DatasetConfig::default());
//! let mut slam = AgsSlam::new(AgsConfig::default());
//! for frame in &data.frames {
//!     slam.process_frame(&data.camera, &frame.rgb, &frame.depth);
//! }
//! println!("ATE available via ags_track::ate::ate_rmse");
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
pub mod config;
pub mod contribution;
pub mod fc;
pub mod pipeline;
pub mod pipelined;
pub mod server;
pub mod stages;
pub mod trace;

pub use checkpoint::{decode_aux, encode_aux, StreamState};
pub use config::{AgsConfig, CheckpointPolicy, PipelineConfig, PipelineMode, QosConfig, ShedLevel};
pub use contribution::{ContributionState, ContributionTracker};
pub use fc::{FcDetector, FcDetectorState};
pub use pipeline::{AgsFrameRecord, AgsSlam};
pub use pipelined::PipelinedAgsSlam;
pub use server::{
    migrate_stream, MigrationEnd, MigrationError, MigrationReport, MultiStreamServer, ServerConfig,
    ServerStats, StoreAttachOptions, StreamError, StreamPolicy, StreamStats,
};
pub use stages::{FcStage, FrameImages, FrameInput, MapStage, TrackStage};
pub use trace::{StageTimes, TraceFrame, WorkloadTrace};
