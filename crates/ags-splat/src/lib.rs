//! 3D Gaussian Splatting (3DGS) — the rendering and training substrate.
//!
//! This crate implements the full differentiable 3DGS pipeline the paper's
//! §2.1 describes, in five stages per training iteration:
//!
//! 1. **Preprocess** ([`project`]): project visible Gaussians to the image
//!    plane (EWA splatting) and find the tiles each splat intersects.
//! 2. **Sort** ([`tiles`]): build per-tile *Gaussian tables* — depth-ordered
//!    lists of splat ids (the structures AGS's GS logging/skipping tables
//!    index into).
//! 3. **Render** ([`render`]): per-pixel front-to-back alpha blending with
//!    the `α` cutoff (`1/255`) and early termination (`T < 1e-4`), with
//!    optional skip sets (selective mapping), per-Gaussian contribution
//!    recording and per-tile workload statistics.
//! 4. **Gradients** ([`backward`]): exact gradients of the L1 color+depth
//!    loss w.r.t. every Gaussian parameter, and w.r.t. the camera pose for
//!    tracking.
//! 5. **Update** ([`optim`]): Adam over the parameter arrays;
//!    [`densify`] adds Gaussians where the map is missing geometry
//!    (silhouette-guided, SplaTAM-style) and prunes transparent ones.
//!
//! [`train::train_pass`] runs steps 1–4 as one call — the seam every
//! differentiated render goes through, and where the forward pass's blend
//! tape is handed to the backward pass (see [`backend`]).
//!
//! # Example
//!
//! ```
//! use ags_splat::{GaussianCloud, render::{render, RenderOptions}};
//! use ags_scene::PinholeCamera;
//! use ags_math::{Se3, Vec3};
//!
//! let mut cloud = GaussianCloud::new();
//! cloud.push(ags_splat::Gaussian::isotropic(Vec3::new(0.0, 0.0, 2.0), 0.3, Vec3::ONE, 0.9));
//! let camera = PinholeCamera::from_fov(32, 24, 1.2);
//! let out = render(&cloud, &camera, &Se3::IDENTITY, &RenderOptions::default());
//! assert!(out.silhouette.at(16, 12) > 0.5); // the splat covers the center
//! ```

#![warn(missing_docs)]

pub mod audit;
pub mod backend;
pub mod backward;
pub mod cache;
pub mod compact;
pub mod densify;
pub mod gaussian;
pub mod idset;
pub mod loss;
pub mod optim;
pub mod project;
pub mod render;
pub mod snapshot;
pub mod tiles;
pub mod train;

pub use backend::{BackendKind, RenderBackend};
pub use cache::ProjectionCache;
pub use compact::{CompactionConfig, Remap};
pub use gaussian::{Gaussian, GaussianCloud};
pub use idset::IdSet;
pub use render::{RenderOptions, RenderOutput};
pub use snapshot::{CloudSnapshot, SharedCloud, SnapshotWindow};

/// The α threshold below which a Gaussian's contribution to a pixel is
/// negligible (`Threshα = 1/255` in the paper).
pub const ALPHA_THRESHOLD: f32 = 1.0 / 255.0;

/// Transmittance below which rendering for a pixel terminates early
/// (`10⁻⁴` in the paper).
pub const TRANSMITTANCE_MIN: f32 = 1e-4;

/// Edge length of a rasterization tile in pixels.
pub const TILE_SIZE: usize = 16;
