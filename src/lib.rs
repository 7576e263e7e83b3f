//! AGS — Accelerating 3D Gaussian Splatting SLAM via CODEC-Assisted Frame
//! Covisibility Detection (ASPLOS'26 reproduction).
//!
//! This façade crate re-exports the whole workspace. The typical entry
//! points are:
//!
//! * [`core::AgsSlam`] — the AGS-accelerated SLAM system, one driver whose
//!   [`core::PipelineConfig`] places FC and mapping inline or on worker
//!   threads (paper Fig. 9b) at the same results.
//! * [`slam::BaselineSlam`] — the SplaTAM-style baseline it accelerates.
//! * [`scene::Dataset`] — procedural RGB-D benchmark sequences.
//! * [`sim`] — the hardware cost models turning workload traces into
//!   speedup/energy numbers.
//!
//! # Quickstart
//!
//! ```
//! use ags::prelude::*;
//!
//! let config = DatasetConfig { width: 48, height: 36, num_frames: 4, ..Default::default() };
//! let data = Dataset::generate(SceneId::Desk, &config);
//! let pipeline = PipelineConfig::overlapped(1); // FC on its own thread
//! let mut slam = AgsSlam::new(AgsConfig { pipeline, ..AgsConfig::tiny() });
//! for frame in &data.frames {
//!     slam.push_frame_cloned(&data.camera, &frame.rgb, &frame.depth);
//! }
//! slam.finish(); // drain the frames still in flight
//! assert_eq!(slam.trajectory().len(), 4);
//! ```

#![warn(missing_docs)]

pub use ags_bench as bench;
pub use ags_codec as codec;
pub use ags_core as core;
pub use ags_image as image;
pub use ags_math as math;
pub use ags_neural as neural;
pub use ags_scene as scene;
pub use ags_sim as sim;
pub use ags_slam as slam;
pub use ags_splat as splat;
pub use ags_track as track;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use ags_codec::{CodecConfig, Covisibility, LumaPlane, MotionEstimator, VideoCodec};
    pub use ags_core::{AgsConfig, AgsSlam, PipelineConfig, PipelineMode, WorkloadTrace};
    pub use ags_image::{DepthImage, GrayImage, RgbImage};
    pub use ags_math::{Parallelism, Pcg32, Quat, Se3, Vec2, Vec3, WorkerPool};
    pub use ags_scene::dataset::{Dataset, DatasetConfig, SceneId};
    pub use ags_scene::PinholeCamera;
    pub use ags_sim::{AgsModel, AgsVariant, GpuModel, GsCoreModel};
    pub use ags_slam::{BaselineSlam, EvalSummary, SlamConfig};
    pub use ags_splat::{Gaussian, GaussianCloud};
    pub use ags_track::{ate_rmse, ClassicalTracker, CoarseTracker};
}
