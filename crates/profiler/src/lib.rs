//! # dapple-profiler
//!
//! The DAPPLE profiler (Fig. 1, step 1): turns a device-independent
//! [`ModelGraph`](dapple_model::ModelGraph) into per-layer execution
//! statistics on a concrete device — forward/backward compute times,
//! activation sizes and parameter sizes — at a given micro-batch size.
//!
//! The paper's profiler measures these on real hardware; here the numbers
//! come from an analytic cost model (FLOPs divided by sustained device
//! throughput, sizes scaled linearly with batch). The planner and the
//! simulator only ever consume the resulting [`ModelProfile`], so they are
//! agnostic to the substitution (see DESIGN.md §1).
//!
//! The crate also owns the device **memory model** used for OOM detection
//! (AmoebaNet's infeasible DP plan, Table II) and the weak-scaling study
//! (Table VIII).

#![forbid(unsafe_code)]

pub mod calibrate;
pub mod memory;
pub mod profile;

pub use calibrate::{Calibration, Calibrator, ObservedSpan};
pub use memory::MemoryModel;
pub use profile::{LayerProfile, ModelProfile};
