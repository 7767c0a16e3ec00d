//! Shared experiment plumbing.

use dapple_cluster::Cluster;
use dapple_core::{DeviceId, Plan, StagePlan};
use dapple_model::ModelSpec;
use dapple_planner::{CostModel, DapplePlanner, PlannedStrategy, PlannerConfig};
use dapple_profiler::{MemoryModel, ModelProfile};

/// One rendered experiment.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id, e.g. `"table5"`.
    pub id: &'static str,
    /// Human title.
    pub title: String,
    /// Rendered plain-text table/series.
    pub text: String,
    /// CSV body (first line is the header), written to `reports/<id>.csv`.
    pub csv: String,
}

impl Report {
    /// Renders the full report for the terminal.
    pub fn render(&self) -> String {
        format!("== {} — {} ==\n{}\n", self.id, self.title, self.text)
    }
}

/// A profiled model bound to a cluster — the inputs every experiment needs.
pub struct Bench {
    /// Benchmark model + batch config.
    pub spec: ModelSpec,
    /// Target cluster.
    pub cluster: Cluster,
    /// Profile on the cluster's device.
    pub profile: ModelProfile,
}

impl Bench {
    /// Profiles `spec` on `cluster`.
    pub fn new(spec: ModelSpec, cluster: Cluster) -> Self {
        let profile = ModelProfile::profile(&spec.graph, &cluster.device);
        Bench {
            spec,
            cluster,
            profile,
        }
    }

    /// Memory model with the spec's optimizer.
    pub fn memory(&self) -> MemoryModel {
        MemoryModel::new(self.spec.optimizer)
    }

    /// Cost model at the spec's global batch size.
    pub fn cost(&self) -> CostModel<'_> {
        self.cost_at(self.spec.global_batch)
    }

    /// Cost model at an explicit global batch size.
    pub fn cost_at(&self, gbs: usize) -> CostModel<'_> {
        CostModel::new(&self.profile, &self.cluster, self.memory(), gbs)
    }

    /// Runs the DAPPLE planner at the spec's global batch size.
    pub fn plan(&self) -> dapple_core::Result<PlannedStrategy> {
        self.plan_at(self.spec.global_batch)
    }

    /// Runs the DAPPLE planner at an explicit global batch size.
    pub fn plan_at(&self, gbs: usize) -> dapple_core::Result<PlannedStrategy> {
        DapplePlanner::new(
            &self.profile,
            &self.cluster,
            self.memory(),
            PlannerConfig::new(gbs),
        )
        .plan()
    }
}

/// Builds a plan from `(layer_range, device_range)` pairs.
pub fn plan_from(bounds: &[(std::ops::Range<usize>, std::ops::Range<u32>)]) -> Plan {
    Plan::new(
        bounds
            .iter()
            .map(|(layers, devs)| {
                StagePlan::new(layers.clone(), devs.clone().map(DeviceId).collect())
            })
            .collect(),
    )
}

/// A two-stage plan replicated `r0 : r1`, with the layer split chosen by
/// bottleneck-balancing forward+backward time (the Table IV / VI setup).
pub fn two_stage_plan(cost: &CostModel<'_>, r0: usize, r1: usize) -> Plan {
    let n = cost.profile.num_layers();
    // Bottleneck-balance on per-sample time, weighted by replica counts.
    let total = cost.fw_us(0..n, 1.0) + cost.bw_us(0..n, 1.0);
    let mut best = (f64::INFINITY, 1usize);
    for j in 1..n {
        let a = (cost.fw_us(0..j, 1.0) + cost.bw_us(0..j, 1.0)) / r0 as f64;
        let b = (total - (cost.fw_us(0..j, 1.0) + cost.bw_us(0..j, 1.0))) / r1 as f64;
        let m = a.max(b);
        if m < best.0 {
            best = (m, j);
        }
    }
    let j = best.1;
    plan_from(&[(0..j, 0..r0 as u32), (j..n, r0 as u32..(r0 + r1) as u32)])
}

/// Formats a speedup or `-` for unavailable entries.
pub fn speedup_or_dash(v: Option<f64>) -> String {
    match v {
        Some(s) => format!("{s:>6.2}"),
        None => format!("{:>6}", "-"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapple_model::zoo;

    #[test]
    fn bench_builds_and_plans() {
        let b = Bench::new(zoo::resnet50(), Cluster::config_a(2));
        let s = b.plan().unwrap();
        assert!(s.latency_us > 0.0);
        assert_eq!(b.cost().global_batch, 2048);
    }

    #[test]
    fn two_stage_plan_balances_uniform_model() {
        let b = Bench::new(zoo::xlnet36(), Cluster::config_a(2));
        let cm = b.cost();
        let p = two_stage_plan(&cm, 8, 8);
        assert_eq!(p.num_stages(), 2);
        assert_eq!(p.num_devices(), 16);
        let counts = p.split_layer_counts();
        assert_eq!(counts[0] + counts[1], 36);
        assert!((counts[0] as i64 - 18).abs() <= 1, "{counts:?}");
        p.validate(36, 16).unwrap();
    }

    #[test]
    fn plan_from_builds_device_lists() {
        let p = plan_from(&[(0..3, 0..2), (3..6, 2..4)]);
        assert_eq!(p.stages[1].devices, vec![DeviceId(2), DeviceId(3)]);
        p.validate(6, 4).unwrap();
    }
}
