//! # dapple-planner
//!
//! The DAPPLE planner (§IV): given a profiled model, a cluster and a global
//! batch size, search the joint space of **stage partitioning**, **stage
//! replication** (data parallelism within a stage) and **device placement**
//! for the plan minimizing synchronous pipeline latency.
//!
//! Components:
//!
//! * [`latency`] — the pipeline-latency objective `L = Tw + Ts + Te` with
//!   pivot-stage selection (formulas 1–3); communication is modeled as
//!   dedicated pipeline stages, exactly as in the paper;
//! * [`cost`] — translates a candidate partition into per-stage
//!   forward/backward/AllReduce costs using the profiler and the collective
//!   cost models;
//! * [`dp`] — analytic data-parallel baselines: gradient accumulation with
//!   and without computation/communication overlap (the `DP No Overlap` /
//!   `DP + Normal Overlap` curves of Fig. 12);
//! * [`search`] — the dynamic program over `TPL(j, m, g)` (formula 4) with
//!   memoized device-allocation states and the three placement policies;
//! * [`pipedream`] — PipeDream's balanced-stage planner (Harlap et al.),
//!   the comparator of Table VII / Fig. 13, evaluated under the synchronous
//!   cost model;
//! * [`even`] — torchgpipe-style "Block Partitions of Sequences" even
//!   splitting, the comparator used for the GPipe experiments;
//! * [`elastic`] — re-planning over surviving device subsets, the
//!   planner half of the runtime's elastic recovery path.

#![forbid(unsafe_code)]

pub mod cost;
pub mod dp;
pub mod elastic;
pub mod even;
pub mod latency;
pub mod pipedream;
pub mod search;

pub use cost::{CostModel, EvalResult, StageCost};
pub use elastic::replan_for_survivors;
pub use latency::{pipeline_latency, pipeline_latency_with_pivot, LatencyBreakdown};
pub use search::{DapplePlanner, PlannedStrategy, PlannerConfig};
