//! The DAPPLE planning algorithm (§IV-C).
//!
//! Dynamic program over `TPL(j, m, g)` (formula 4): a state is "the first
//! `j` layers planned onto an allocated device set, with the remaining
//! layers forming one suffix stage replicated on all free devices". States
//! are memoized on `(j, canonical allocation)` — machines of equal size
//! with equal free counts are interchangeable in a homogeneous cluster —
//! and each state keeps the prefix whose completed estimate is lowest
//! (the paper's memoized-search approximation).
//!
//! Transitions split the suffix: pick the next boundary `j'`, a device
//! count `m'` and one of the three placement policies (§IV-B); the
//! selected devices become stage `j..j'`.
//!
//! Pure data parallelism is the root state's own estimate (zero prefix
//! stages, suffix = whole model on all devices); straight pipelines arise
//! from repeated single-device stages. The planner additionally evaluates
//! the overlapped DP baseline (`dp::dp_overlap`) and returns it when it
//! beats every pipeline — this is how Table V's `DP` rows emerge.

use crate::cost::CostModel;
use crate::dp;
use crate::latency::LatencyBreakdown;
use dapple_cluster::{Allocation, Cluster, PlacementPolicy, ALL_POLICIES};
use dapple_core::{DappleError, Plan, Result, StagePlan};
use dapple_profiler::{MemoryModel, ModelProfile};
use rayon::prelude::*;
use std::collections::HashMap;

/// Maximum states kept per search level. Far above what 16-device
/// clusters produce (no effect on Table V); it bounds the blow-up on 32+
/// device clusters.
const BEAM_WIDTH: usize = 2_000;

/// Planner knobs.
#[derive(Debug, Clone, Copy)]
pub struct PlannerConfig {
    /// Global batch size per training iteration.
    pub global_batch: usize,
    /// Whether stages may rely on re-computation for memory feasibility.
    pub recompute: bool,
    /// Placement policies the search composes (§IV-B). Restricting this
    /// to a single policy is the device-assignment ablation.
    pub policies: &'static [PlacementPolicy],
}

impl PlannerConfig {
    /// Default configuration for a global batch size.
    pub fn new(global_batch: usize) -> Self {
        PlannerConfig {
            global_batch,
            recompute: false,
            policies: &ALL_POLICIES,
        }
    }
}

/// A complete planning result.
#[derive(Debug, Clone)]
pub struct PlannedStrategy {
    /// The winning parallelization plan.
    pub plan: Plan,
    /// Estimated iteration latency, µs.
    pub latency_us: f64,
    /// Micro-batch count the estimate assumes.
    pub micro_batches: usize,
    /// Phase breakdown of the estimate.
    pub breakdown: LatencyBreakdown,
    /// Averaged cross-stage communication/computation ratio (Table V).
    pub acr: f64,
    /// True when the returned DP plan is justified by the overlapped
    /// estimate rather than the pipeline objective.
    pub overlap_dp: bool,
}

impl PlannedStrategy {
    /// Training speedup vs a single device at the same global batch
    /// (§VI-C's metric), given the single-device time.
    pub fn speedup(&self, single_device_us: f64) -> f64 {
        single_device_us / self.latency_us
    }
}

/// Device counts the search tries for a new stage when `free` devices
/// remain: every count up to 12, then 4-aligned counts (NVLink-group
/// granularity), and `free - 1` (leave one device for the suffix). This
/// keeps the transition fan-out tractable on large clusters while
/// retaining every placement the Table V plans use. (An earlier version
/// stopped the dense range at 8 while starting the aligned ramp at 12,
/// silently excluding counts 9-11 — e.g. a 10-device stage on a 12-free
/// cluster.)
fn device_count_candidates(free: usize) -> Vec<usize> {
    let mut out: Vec<usize> = (1..free.min(13)).collect();
    let mut v = 16usize;
    while v < free {
        out.push(v);
        v += 4;
    }
    if free >= 2 {
        out.push(free - 1);
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// One memoized search state.
#[derive(Debug, Clone)]
struct StateEntry {
    stages: Vec<StagePlan>,
    alloc: Allocation,
    /// Completed estimate: prefix + suffix-on-free-devices.
    completed_us: f64,
}

/// The DAPPLE planner.
pub struct DapplePlanner<'a> {
    cost: CostModel<'a>,
    cfg: PlannerConfig,
}

impl<'a> DapplePlanner<'a> {
    /// Creates a planner over a profiled model and a cluster.
    pub fn new(
        profile: &'a ModelProfile,
        cluster: &'a Cluster,
        memory: MemoryModel,
        cfg: PlannerConfig,
    ) -> Self {
        DapplePlanner {
            cost: CostModel::new(profile, cluster, memory, cfg.global_batch),
            cfg,
        }
    }

    /// Plans from a measured profile with communication calibration: the
    /// search ranks every candidate by measured/fitted costs instead of
    /// the analytic formulas. Pass a `Calibrator`-corrected profile to
    /// `new` and chain this for the comm side.
    pub fn with_calibration(mut self, cal: dapple_collectives::CommCalibration) -> Self {
        self.cost = self.cost.with_calibration(cal);
        self
    }

    /// Access to the underlying cost model (for reports and tests).
    pub fn cost_model(&self) -> &CostModel<'a> {
        &self.cost
    }

    /// Completes a prefix with the suffix stage and estimates its latency.
    /// Returns `f64::INFINITY` when the completed plan violates memory.
    fn completed_estimate(&self, stages: &[StagePlan], alloc: &Allocation) -> f64 {
        let n = self.cost.profile.num_layers();
        let j = stages.last().map_or(0, |s| s.layers.end);
        let mut full = stages.to_vec();
        if j < n {
            let free = alloc.free_devices();
            if free.is_empty() {
                return f64::INFINITY;
            }
            full.push(StagePlan::new(j..n, free));
        }
        self.cost.evaluate(&full, self.cfg.recompute).total_us()
    }

    /// Runs the search and returns the best strategy.
    ///
    /// Fails with [`DappleError::NoFeasiblePlan`] when no partition fits
    /// device memory (e.g. a model too large even for a straight pipeline).
    pub fn plan(&self) -> Result<PlannedStrategy> {
        let n = self.cost.profile.num_layers();
        let g = self.cost.cluster.num_devices();
        let cluster = self.cost.cluster;

        // Best complete plan seen anywhere in the search.
        let root = StateEntry {
            stages: Vec::new(),
            alloc: Allocation::empty(g),
            completed_us: f64::INFINITY,
        };
        let root_completed = self.completed_estimate(&root.stages, &root.alloc);
        let mut best: (f64, Vec<StagePlan>) = (root_completed, {
            let mut s = root.stages.clone();
            s.push(StagePlan::new(0..n, root.alloc.free_devices()));
            s
        });

        // Levels keyed by next unplanned layer j; states dedup on
        // (j, stage count, canonical allocation key). The stage count must
        // be part of the key: a straight prefix (one device per stage) and
        // a replicated prefix can use the same devices, and mid-search
        // estimates — where the suffix is still one big replicated stage —
        // systematically undervalue the straight one.
        type Key = (usize, usize, Vec<(usize, usize)>);
        let mut level: HashMap<Key, StateEntry> = HashMap::new();
        level.insert((0, 0, root.alloc.canonical_key(cluster)), root);

        for _depth in 0..g {
            if level.is_empty() {
                break;
            }
            let states: Vec<StateEntry> = level.into_values().collect();
            // Expand every state in parallel.
            let expansions: Vec<Vec<StateEntry>> =
                states.par_iter().map(|st| self.expand(st)).collect();
            let mut next: HashMap<Key, StateEntry> = HashMap::new();
            for entry in expansions.into_iter().flatten() {
                let j = entry.stages.last().map_or(0, |s| s.layers.end);
                let key = (j, entry.stages.len(), entry.alloc.canonical_key(cluster));
                match next.entry(key) {
                    std::collections::hash_map::Entry::Occupied(mut o) => {
                        if entry.completed_us < o.get().completed_us {
                            o.insert(entry);
                        }
                    }
                    std::collections::hash_map::Entry::Vacant(v) => {
                        v.insert(entry);
                    }
                }
            }
            // Track the global best completed plan.
            for entry in next.values() {
                if entry.completed_us < best.0 {
                    let j = entry.stages.last().map_or(0, |s| s.layers.end);
                    let mut full = entry.stages.clone();
                    if j < n {
                        full.push(StagePlan::new(j..n, entry.alloc.free_devices()));
                    }
                    best = (entry.completed_us, full);
                }
            }
            // Beam: keep the most promising finite states; memory-infeasible
            // prefixes (infinite estimate) survive separately — they may be
            // the only route to a feasible deep partition.
            if next.len() > BEAM_WIDTH {
                let mut finite: Vec<(Key, StateEntry)> = Vec::with_capacity(next.len());
                let mut infinite: Vec<(Key, StateEntry)> = Vec::new();
                for kv in next.into_iter() {
                    if kv.1.completed_us.is_finite() {
                        finite.push(kv);
                    } else {
                        infinite.push(kv);
                    }
                }
                finite.sort_by(|a, b| a.1.completed_us.total_cmp(&b.1.completed_us));
                finite.truncate(BEAM_WIDTH);
                infinite.truncate(BEAM_WIDTH);
                next = finite.into_iter().chain(infinite).collect();
            }
            level = next;
        }

        if !best.0.is_finite() {
            return Err(DappleError::NoFeasiblePlan(format!(
                "{} on {}: no partition fits device memory (GBS {})",
                self.cost.profile.name, cluster.name, self.cfg.global_batch
            )));
        }

        // Compare the best pipeline against the overlapped-DP estimate.
        let mut plan_stages = best.1;
        let mut latency = best.0;
        let mut overlap_dp = false;

        // Canonical straight candidate: one device per stage with
        // bottleneck-balanced splits ("straight" is a special case of
        // general DAPPLE plans, §VI-B). The greedy memoization can lose the
        // exactly-even deep pipeline, so it is evaluated explicitly.
        if n >= g {
            if let Ok(straight) = crate::even::plan(&self.cost, g) {
                let ev = self.cost.evaluate(&straight.stages, self.cfg.recompute);
                if ev.total_us() < latency {
                    latency = ev.total_us();
                    plan_stages = straight.stages;
                }
            }
        }

        let all = cluster.all_devices();
        let dp_plan = vec![StagePlan::new(0..n, all.clone())];
        if self.cost.evaluate(&dp_plan, self.cfg.recompute).feasible {
            let ov = dp::dp_overlap(&self.cost, &all);
            if ov.latency_us < latency {
                plan_stages = dp_plan;
                latency = ov.latency_us;
                overlap_dp = true;
            }
        }

        let plan = Plan::new(plan_stages);
        plan.validate(n, g)?;
        let ev = self.cost.evaluate(&plan.stages, self.cfg.recompute);
        let (breakdown, m) = (ev.breakdown, ev.micro_batches);
        let acr = self.cost.acr(&plan.stages, m);
        Ok(PlannedStrategy {
            latency_us: latency,
            micro_batches: m,
            breakdown,
            acr,
            plan,
            overlap_dp,
        })
    }

    /// All successor states of `st`: next boundary x device count x policy.
    fn expand(&self, st: &StateEntry) -> Vec<StateEntry> {
        let n = self.cost.profile.num_layers();
        let cluster = self.cost.cluster;
        let j = st.stages.last().map_or(0, |s| s.layers.end);
        let free = st.alloc.free_count();
        if j >= n || free < 2 {
            // Need at least one device for the new stage and one for the
            // remaining suffix.
            return Vec::new();
        }
        let mut out = Vec::new();
        for j2 in j + 1..n {
            for m2 in device_count_candidates(free) {
                for devices in st
                    .alloc
                    .candidate_selections_from(cluster, m2, self.cfg.policies)
                {
                    let stage = StagePlan::new(j..j2, devices.clone());
                    let mut stages = st.stages.clone();
                    stages.push(stage);
                    let mut alloc = st.alloc.clone();
                    alloc.commit(&devices);
                    let completed_us = self.completed_estimate(&stages, &alloc);
                    // Prune only when the new stage itself can never fit:
                    // further splitting cannot shrink an already-OOM stage.
                    if completed_us.is_infinite() {
                        let m = self.cost.micro_batches(&stages);
                        if self
                            .cost
                            .check_memory(&stages[stages.len() - 1..], m, self.cfg.recompute)
                            .is_err()
                        {
                            continue;
                        }
                    }
                    out.push(StateEntry {
                        stages,
                        alloc,
                        completed_us,
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapple_core::{Bytes, PlanKind};
    use dapple_model::{synthetic, OptimizerKind};
    use dapple_profiler::ModelProfile;

    /// Regression for the 9-11 gap: the candidate set must offer every
    /// count up to 12 (when available), stay sorted and in range, keep
    /// the 4-aligned ramp, and always include `free - 1`.
    #[test]
    fn device_count_candidates_cover_small_counts() {
        for free in 1usize..=40 {
            let c = device_count_candidates(free);
            // Sorted, strictly increasing, all within 1..free (except the
            // trivial free == 1 case, which proposes nothing).
            assert!(c.windows(2).all(|w| w[0] < w[1]), "free={free}: {c:?}");
            assert!(
                c.iter().all(|&v| v >= 1 && v < free.max(2)),
                "free={free}: {c:?}"
            );
            // Dense coverage: every count up to min(free - 1, 12).
            for want in 1..=free.saturating_sub(1).min(12) {
                assert!(c.contains(&want), "free={free} missing {want}: {c:?}");
            }
            // The 4-aligned ramp beyond the dense range.
            let mut v = 16;
            while v < free {
                assert!(c.contains(&v), "free={free} missing aligned {v}: {c:?}");
                v += 4;
            }
            // Leave-one-for-the-suffix candidate.
            if free >= 2 {
                assert!(c.contains(&(free - 1)), "free={free}: {c:?}");
            }
        }
        // The motivating case: 10-device stages on a 12-free cluster.
        assert!(device_count_candidates(12).contains(&10));
        assert!(device_count_candidates(12).contains(&11));
        assert!(device_count_candidates(16).contains(&9));
    }

    fn planner_for<'a>(
        profile: &'a ModelProfile,
        cluster: &'a Cluster,
        gbs: usize,
    ) -> DapplePlanner<'a> {
        DapplePlanner::new(
            profile,
            cluster,
            MemoryModel::new(OptimizerKind::Adam),
            PlannerConfig::new(gbs),
        )
    }

    /// A compute-dense model with tiny weights must plan as DP.
    #[test]
    fn compute_dense_small_weights_prefers_dp() {
        let cluster = Cluster::config_a(1);
        let g = synthetic::uniform(8, 500.0, Bytes::mb(2.0), Bytes::mb(0.2));
        let p = ModelProfile::profile(&g, &cluster.device);
        let s = planner_for(&p, &cluster, 256).plan().unwrap();
        assert_eq!(s.plan.kind(), PlanKind::DataParallel, "{}", s.plan);
    }

    /// Huge uniform weights on a slow flat network push toward straight
    /// pipelines (no replication = no gradient sync).
    #[test]
    fn heavy_weights_slow_network_prefers_pipeline() {
        let cluster = Cluster::config_c(4);
        let g = synthetic::uniform(8, 100.0, Bytes::mb(150.0), Bytes::mb(0.5));
        let p = ModelProfile::profile(&g, &cluster.device);
        let s = planner_for(&p, &cluster, 64).plan().unwrap();
        assert_ne!(s.plan.kind(), PlanKind::DataParallel, "{}", s.plan);
        // The plan uses all four devices.
        assert_eq!(s.plan.num_devices(), 4);
    }

    /// The planner result must always be structurally valid and cover all
    /// devices.
    #[test]
    fn plans_are_valid_and_use_all_devices() {
        let cluster = Cluster::config_a(2);
        let g = synthetic::uniform(12, 200.0, Bytes::mb(60.0), Bytes::mb(4.0));
        let p = ModelProfile::profile(&g, &cluster.device);
        let s = planner_for(&p, &cluster, 128).plan().unwrap();
        s.plan.validate(12, 16).unwrap();
        assert_eq!(s.plan.num_devices(), 16);
        assert!(s.latency_us.is_finite() && s.latency_us > 0.0);
        assert!(s.micro_batches >= 1);
    }

    /// A model whose every layer exceeds device memory is unplannable.
    #[test]
    fn infeasible_model_reports_no_plan() {
        let cluster = Cluster::config_b(2);
        let g = synthetic::uniform(4, 10.0, Bytes::gb(30.0), Bytes::mb(1.0));
        let p = ModelProfile::profile(&g, &cluster.device);
        let err = planner_for(&p, &cluster, 8).plan().unwrap_err();
        assert!(matches!(err, DappleError::NoFeasiblePlan(_)), "{err}");
    }

    /// A model too big for one device but fine when split must produce a
    /// pipeline even if DP would win on pure speed.
    #[test]
    fn memory_pressure_forces_pipeline() {
        let cluster = Cluster::config_a(1);
        // 8 layers x 1.5 GB params: 12 GB weights -> 48 GB Adam state.
        let g = synthetic::uniform(8, 500.0, Bytes::gb(1.5), Bytes::mb(1.0));
        let p = ModelProfile::profile(&g, &cluster.device);
        let s = planner_for(&p, &cluster, 64).plan().unwrap();
        assert!(s.plan.num_stages() >= 2, "{}", s.plan);
        // Each stage must individually fit.
        let m = s.micro_batches;
        planner_for(&p, &cluster, 64)
            .cost_model()
            .check_memory(&s.plan.stages, m, false)
            .unwrap();
    }

    /// Speedup helper divides single-device time by plan latency.
    #[test]
    fn speedup_metric() {
        let cluster = Cluster::config_a(1);
        let g = synthetic::uniform(8, 500.0, Bytes::mb(2.0), Bytes::mb(0.2));
        let p = ModelProfile::profile(&g, &cluster.device);
        let planner = planner_for(&p, &cluster, 256);
        let s = planner.plan().unwrap();
        let single = planner.cost_model().single_device_us();
        let sp = s.speedup(single);
        assert!(sp > 1.0 && sp <= 8.5, "speedup {sp}");
    }

    /// Uneven beats even on a 2-device pipeline when the natural split is
    /// imbalanced (Fig. 7's insight: the planner should not force 50/50).
    #[test]
    fn planner_exploits_uneven_splits() {
        let cluster = Cluster::config_c(2);
        // 4 layers with ramped compute; huge weights prevent replication.
        let g = synthetic::from_triples(&[
            (100.0, 400.0, 0.5),
            (100.0, 400.0, 0.5),
            (100.0, 400.0, 0.5),
            (500.0, 400.0, 0.5),
        ]);
        let p = ModelProfile::profile(&g, &cluster.device);
        let s = planner_for(&p, &cluster, 64).plan().unwrap();
        if s.plan.num_stages() == 2 {
            // Balanced work: 3 cheap layers vs 1 heavy one.
            assert_eq!(s.plan.split_layer_counts(), vec![3, 1], "{}", s.plan);
        }
    }
}
