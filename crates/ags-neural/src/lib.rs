//! Tiny deterministic neural kernels for the Droid-style coarse tracker.
//!
//! AGS's movement-adaptive tracking runs a lightweight neural pose estimator
//! (Droid-SLAM backbone: a convolutional feature encoder followed by ConvGRU
//! update iterations) before deciding whether 3DGS refinement is needed.
//! This crate provides those kernels:
//!
//! * [`Tensor`] — a minimal `(channels, height, width)` float tensor.
//! * [`Conv2d`] — strided, padded 2D convolution with deterministic
//!   initialisation and exact MAC accounting, computed by a channel-blocked
//!   kernel under a fixed accumulation order (see [`layers`]).
//! * [`ConvGru`] — a convolutional GRU cell (the Droid-SLAM update operator).
//! * [`DroidBackbone`] — the assembled encoder + iterative update network
//!   with workload reporting for the hardware cost models (the systolic
//!   array of the pose tracking engine executes exactly these MACs).
//!
//! The learned weights of the original Droid-SLAM are not reproducible here;
//! weights are seeded deterministically and the *geometric* pose solve is
//! performed by `ags-track`'s damped Gauss–Newton core over dense
//! photometric + geometric residuals, which stands in for Droid-SLAM's
//! learned update operator. What matters for the reproduction is that the
//! *workload* — MACs, activations, memory traffic — matches a Droid-style
//! backbone, which these kernels execute for real.

#![warn(missing_docs)]

pub mod backbone;
pub mod layers;
pub mod tensor;

pub use backbone::{BackboneReport, DroidBackbone};
pub use layers::{Conv2d, ConvGru, GruScratch};
pub use tensor::Tensor;
