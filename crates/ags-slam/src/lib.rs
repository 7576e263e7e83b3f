//! 3DGS-SLAM pipeline: the baseline system AGS accelerates.
//!
//! This crate assembles the substrates into a complete dense RGB-D SLAM
//! system following the paper's Fig. 2(b):
//!
//! * [`baseline::BaselineSlam`] — a SplaTAM-style system: per frame, `N_T`
//!   3DGS training iterations estimate the pose (photometric tracking
//!   against the map), then `N_M` iterations update the Gaussians (mapping),
//!   with silhouette-guided densification and a keyframe window.
//! * [`work::WorkUnits`] — the workload currency shared with `ags-core` and
//!   consumed by the hardware cost models.
//!
//! SplaTAM is the one backbone: the paper's Gaussian-SLAM generality study
//! (Fig. 23) is not reproduced.
//!
//! The pipeline is deliberately *serial* (tracking waits for mapping of
//! the previous frame), matching the paper's Fig. 9(a) baseline execution
//! flow that AGS's pipelined executor then beats.

#![warn(missing_docs)]

pub mod baseline;
pub mod config;
pub mod eval;
pub mod keyframes;
pub mod work;

pub use baseline::{BaselineSlam, FrameRecord};
pub use config::SlamConfig;
pub use eval::{evaluate_map, EvalSummary};
pub use keyframes::{KeyframeStore, StoredKeyframe};
pub use work::WorkUnits;
