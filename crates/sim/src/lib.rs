//! # dapple-sim
//!
//! A deterministic discrete-event simulator for synchronous pipeline
//! training — the executable counterpart of the DAPPLE runtime (§V).
//!
//! Given a [`Plan`](dapple_core::Plan), a profiled model and a cluster, the
//! simulator executes every forward/backward task of every micro-batch
//! under a chosen schedule:
//!
//! * [`Schedule::GPipe`] — inject all `M` micro-batches, then run all
//!   backwards (Fig. 3a);
//! * [`Schedule::Dapple`] — early backward scheduling: stage `i` admits
//!   `K_i` warmup forwards, then strictly interleaves one backward with
//!   one forward (Fig. 3b), with `K_i` set by policy PA
//!   (`min(S - i, D)`) or PB (`min(2(S - i) - 1, D)`) (§V-C);
//!
//! with optional re-computation (§III-A), tracking per-stage memory over
//! time (Fig. 3c), peak memory, utilization, bubbles and throughput.
//!
//! Cross-stage transfers serialize on a per-boundary, per-direction
//! channel. Workers (stage replicas) and channels are the lanes that
//! [`list::step_lanes`] builds for the engine's threads too, timed by one
//! [`list::list_schedule`] pass; per-task costs come from the planner's
//! [`CostModel`](dapple_planner::CostModel) so the simulator and the
//! planner's closed-form objective are mutually consistent (tested).

#![forbid(unsafe_code)]

pub mod async_pipe;
pub mod exec;
pub mod list;
pub mod memory;
pub mod schedule;
pub mod timeline;
pub mod trace;

pub use async_pipe::AsyncEstimate;
pub use exec::{PipelineSim, SimConfig, SimResult, TaskKind, TaskRecord};
pub use schedule::{KPolicy, Schedule};
pub use timeline::render_timeline;
pub use trace::to_chrome_trace;
