//! # dapple
//!
//! Facade crate re-exporting the whole DAPPLE workspace.
//!
//! See the README for a tour; start with [`model::zoo`] for the benchmark
//! models, [`planner`] for parallelization-strategy search, [`sim`] for the
//! schedule simulator and [`engine`] for the real CPU pipeline engine.

#![forbid(unsafe_code)]

pub mod elastic;

pub use dapple_cluster as cluster;
pub use dapple_collectives as collectives;
pub use dapple_core as core;
pub use dapple_engine as engine;
pub use dapple_model as model;
pub use dapple_planner as planner;
pub use dapple_profiler as profiler;
pub use dapple_sim as sim;
