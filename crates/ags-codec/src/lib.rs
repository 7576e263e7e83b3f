//! Video CODEC motion-estimation substrate.
//!
//! Real SoCs running SLAM ship a hardware video CODEC whose motion-estimation
//! (ME) stage already computes, for every macro-block (MB) of the current
//! frame, the **minimum sum-of-absolute-differences (SAD)** against the
//! reference frame. The AGS paper's key hardware observation is that these
//! min-SAD values quantify inter-frame similarity for free: accumulating them
//! yields a *frame covisibility* (FC) metric that steers both tracking and
//! mapping (paper §2.3, §4.1).
//!
//! This crate implements that substrate in software:
//!
//! * [`LumaPlane`] — 8-bit luminance planes, the representation hardware ME
//!   operates on.
//! * [`MotionEstimator`] — full-search and diamond-search block matching
//!   over [`MB_SIZE`]×[`MB_SIZE`] macro-blocks, producing per-MB motion
//!   vectors and min-SADs, with exact operation counts for the cost models.
//! * [`Covisibility`] — the FC metric, min-SADs normalised by [`NORM_MAD`]
//!   per covered pixel, with the paper's 5-level
//!   quantisation (Fig. 6) and High/Medium/Low banding (Fig. 22).
//! * [`VideoCodec`] — a streaming front end that keeps reference pictures
//!   (previous frame for tracking FC, last key frame for mapping FC).
//!
//! # Example
//!
//! ```
//! use ags_codec::{CodecConfig, LumaPlane, MotionEstimator, MB_SIZE};
//!
//! let estimator = MotionEstimator::new(CodecConfig::default());
//! let a = LumaPlane::from_fn(32, 32, |x, y| ((x + y) % 17 * 15) as u8);
//! let b = a.clone();
//! let result = estimator.estimate(&b, &a);
//! // 32×32 px is 4×4 macro-blocks of MB_SIZE×MB_SIZE px.
//! assert_eq!(result.field.entries.len(), (32 / MB_SIZE) * (32 / MB_SIZE));
//! assert!(result.covisibility().value() > 0.99); // identical frames are fully covisible
//! ```

#![warn(missing_docs)]

pub mod covisibility;
pub mod me;
pub mod plane;
pub mod stream;

pub use covisibility::{Covisibility, CovisibilityBand, CovisibilityLevel};
pub use me::{
    CodecConfig, MbMatch, MotionEstimator, MotionField, MotionResult, SearchKind, MB_SIZE, NORM_MAD,
};
pub use plane::{sad_kernel_name, LumaPlane};
pub use stream::{CodecFrameReport, VideoCodec, VideoCodecState};
