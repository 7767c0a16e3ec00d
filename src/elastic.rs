//! Standard wiring of the planner into the engine's elastic recovery.
//!
//! The engine's [`Supervisor`](dapple_engine::Supervisor) is
//! planner-agnostic: it escalates a failure to *whatever* replanner
//! callback it was given. This module provides the canonical callback —
//! the full DAPPLE DP search ([`replan_for_survivors`]) run over the
//! surviving subset of a profiled cluster — so applications can attach
//! elastic recovery in one line:
//!
//! ```
//! use dapple::cluster::Cluster;
//! use dapple::core::Bytes;
//! use dapple::elastic::planner_replanner;
//! use dapple::model::{synthetic, OptimizerKind};
//! use dapple::planner::PlannerConfig;
//! use dapple::profiler::{MemoryModel, ModelProfile};
//! use dapple_core::DeviceId;
//!
//! let cluster = Cluster::config_c(4);
//! let graph = synthetic::uniform(6, 100.0, Bytes::mb(200.0), Bytes::mb(0.5));
//! let profile = ModelProfile::profile(&graph, &cluster.device);
//! let mut replan = planner_replanner(
//!     profile,
//!     cluster,
//!     MemoryModel::new(OptimizerKind::Adam),
//!     PlannerConfig::new(32),
//! );
//! // Device 2 died; the callback plans over the survivors.
//! let survivors: Vec<DeviceId> = [0u32, 1, 3].map(DeviceId).to_vec();
//! let plan = replan(&survivors).expect("3 devices are plannable");
//! assert!(plan.devices().iter().all(|d| survivors.contains(d)));
//! ```
//!
//! The returned closure is exactly the shape
//! [`Supervisor::with_elastic`](dapple_engine::Supervisor::with_elastic)
//! expects.

use dapple_core::{DeviceId, Plan};
use dapple_engine::Replanner;
use dapple_planner::{replan_for_survivors, PlannerConfig};
use dapple_profiler::{MemoryModel, ModelProfile};

/// A [`Replanner`] backed by the DAPPLE planner: each invocation runs
/// the DP search over the surviving subset of `cluster` and returns the
/// winning plan in the original device numbering, or `None` when the
/// survivors are unplannable (the supervisor then stays degraded).
pub fn planner_replanner(
    profile: ModelProfile,
    cluster: dapple_cluster::Cluster,
    memory: MemoryModel,
    cfg: PlannerConfig,
) -> Replanner {
    Box::new(move |survivors: &[DeviceId]| -> Option<Plan> {
        replan_for_survivors(&profile, &cluster, survivors, memory, cfg)
            .ok()
            .map(|strategy| strategy.plan)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapple_cluster::Cluster;
    use dapple_core::Bytes;
    use dapple_model::{synthetic, OptimizerKind};

    #[test]
    fn replanner_declines_empty_survivor_sets() {
        let cluster = Cluster::config_c(4);
        let graph = synthetic::uniform(6, 100.0, Bytes::mb(200.0), Bytes::mb(0.5));
        let profile = ModelProfile::profile(&graph, &cluster.device);
        let mut replan = planner_replanner(
            profile,
            cluster,
            MemoryModel::new(OptimizerKind::Adam),
            PlannerConfig::new(32),
        );
        assert!(replan(&[]).is_none());
        let plan = replan(&[DeviceId(0), DeviceId(2)]).expect("2 devices plannable");
        assert_eq!(plan.num_devices(), 2);
    }
}
