//! # dapple-collectives
//!
//! Communication: analytic cost models used by the planner/simulator, a
//! real multi-threaded ring all-reduce, and the shared-memory reduce in
//! the ring's order that the CPU training engine syncs gradients with.
//!
//! The cost model covers the three patterns DAPPLE needs:
//!
//! * **AllReduce** — gradient synchronization across a replicated stage
//!   (ring within a machine, hierarchical when the replica set spans
//!   machines), the `AR(P_s, g_s)` term of the paper's ending-phase formula;
//! * **peer-to-peer** — activations crossing a stage boundary;
//! * **split/concat** — the one-to-many / many-to-one / many-to-many
//!   boundary traffic between stages with different replication (§V-B2,
//!   Fig. 9).

#![forbid(unsafe_code)]

pub mod cost;
pub mod ring;

pub use cost::{
    allreduce_us, cross_stage_us, fit_affine, p2p_us, CommCalibration, SPLIT_CONCAT_OVERHEAD_US,
};
pub use ring::{allreduce_sum, reduce_sum_in_place};
