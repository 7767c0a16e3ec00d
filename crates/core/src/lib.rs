//! # dapple-core
//!
//! Shared vocabulary types for the DAPPLE reproduction (Fan et al.,
//! *DAPPLE: A Pipelined Data Parallel Approach for Training Large Models*,
//! PPoPP 2021).
//!
//! Every other crate in the workspace builds on the types defined here:
//!
//! * strongly-typed identifiers ([`DeviceId`], [`MachineId`]) so that
//!   device indices and machine indices cannot be accidentally mixed;
//! * byte counts ([`Bytes`]) with unit-preserving arithmetic and
//!   human-readable formatting;
//! * the parallelization [`plan::Plan`] produced by the planner and consumed
//!   by the simulator and the engine;
//! * the shared Chrome Trace Event writer ([`chrome`]) and the
//!   warmup/steady/tail phase decomposition ([`phase`]) used by both the
//!   simulated and the measured timelines;
//! * the one JSON writer and parser ([`json`]) every emitter and every
//!   report reader goes through;
//! * the log-bucketed [`Histogram`] and the zero-steady-state-allocation
//!   JSONL [`metrics::RunLog`] the engine feeds each training step;
//! * the workspace-wide error type [`DappleError`].

#![forbid(unsafe_code)]

pub mod chrome;
pub mod error;
pub mod ids;
pub mod json;
pub mod metrics;
pub mod phase;
pub mod plan;
pub mod quantity;

pub use chrome::{chrome_trace_json, ChromeArg, ChromeEvent};
pub use error::{DappleError, Result};
pub use ids::{DeviceId, MachineId};
pub use metrics::{straggler_stages, Histogram, RunLog};
pub use phase::{bubble_ratio, relative_error, PhaseSplit, PhaseTag};
pub use plan::{Plan, PlanKind, StagePlan};
pub use quantity::Bytes;
