//! Experiment harness regenerating every table and figure of the AGS paper.
//!
//! [`context::Context`] runs each scene once (baseline + AGS + classical
//! tracker) and caches the results in memory; the [`experiments`] module
//! turns those runs into the paper's tables and figures as [`table::Table`]
//! values. `cargo bench -p ags-bench --bench paper` regenerates everything
//! and writes markdown into `target/ags-experiments/`.
//!
//! Scaling: the default profile renders 64×48 frames with 32-frame
//! sequences and iteration budgets reduced in proportion, keeping the
//! paper's tracking ≫ mapping ratio. Absolute numbers differ from the
//! paper's 640×480 testbed; the *shape* of each result (who wins, by what
//! factor, which direction each sweep bends) is the reproduction target.

#![warn(missing_docs)]

pub mod context;
pub mod experiments;
pub mod table;

pub use context::{BenchProfile, Context, SceneRun};
pub use table::Table;
