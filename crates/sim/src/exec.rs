//! The discrete-event pipeline executor: a plan's workers, one per stage
//! replica on its own device, and its boundary channels, as the
//! [`step_lanes`] of [`list_schedule`]. A stage is its replica 0.

use crate::list::{list_schedule, step_lanes};
use crate::memory::StageMemory;
use crate::schedule::{stage_order, Schedule, Step};
use dapple_core::{Bytes, Plan};
use dapple_planner::CostModel;

/// Kind of a simulated task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// Forward compute on a stage.
    Fw,
    /// Backward compute on a stage (includes re-materialization time when
    /// re-computation is on).
    Bw,
    /// Forward activation transfer leaving a boundary.
    CommF,
    /// Backward activation-gradient transfer entering a boundary.
    CommB,
    /// End-of-iteration gradient AllReduce of a replicated stage.
    AllReduce,
}

/// One executed task, for timelines and assertions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskRecord {
    /// Compute-stage index for `Fw`/`Bw`/`AllReduce`; boundary index for
    /// `CommF`/`CommB` (boundary `b` sits between stages `b` and `b+1`).
    pub stage: usize,
    /// Task kind.
    pub kind: TaskKind,
    /// Micro-batch index (0 for `AllReduce`).
    pub micro: usize,
    /// Payload bytes moved (`CommF`/`CommB`: boundary activation bytes;
    /// `AllReduce`: the stage's parameter bytes; 0 for compute tasks).
    pub bytes: u64,
    /// Start time, µs.
    pub start_us: f64,
    /// End time, µs.
    pub end_us: f64,
}

/// Simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Number of micro-batches `M` per iteration.
    pub micro_batches: usize,
    /// Pipeline schedule.
    pub schedule: Schedule,
    /// Whether activations are re-computed during backward (§III-A).
    pub recompute: bool,
}

/// Results of one simulated training iteration.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// End-to-end iteration latency (including gradient sync), µs.
    pub makespan_us: f64,
    /// Samples per second at the configured global batch.
    pub throughput: f64,
    /// All executed tasks, in start order.
    pub tasks: Vec<TaskRecord>,
    /// Per-stage compute busy time, µs.
    pub busy_us: Vec<f64>,
    /// Per-stage peak memory of one replica.
    pub peak_mem: Vec<Bytes>,
    /// Per-stage memory time series `(time_us, bytes)` of one replica.
    pub mem_series: Vec<Vec<(f64, Bytes)>>,
    /// True when some stage's peak exceeds device memory.
    pub oom: bool,
    /// Device memory capacity the run was checked against.
    pub device_mem: Bytes,
}

impl SimResult {
    /// Mean compute utilization across stages (busy / makespan) — the
    /// "average GPU utilization of all devices" of §II-A. A degenerate
    /// result (no stages, or a zero/negative makespan) reports 0.0
    /// instead of NaN.
    pub fn utilization(&self) -> f64 {
        if self.busy_us.is_empty() || self.makespan_us <= 0.0 {
            return 0.0;
        }
        let mean_busy: f64 = self.busy_us.iter().sum::<f64>() / self.busy_us.len() as f64;
        mean_busy / self.makespan_us
    }

    /// Bubble fraction over the shared [`dapple_core::phase::bubble_ratio`]
    /// definition (mean per-stage idle share) — the same formula the
    /// engine's measured `StepMetrics::bubble_ratio` uses, so predicted and
    /// measured bubbles are comparable by construction. Equals
    /// `1 - utilization()` whenever no stage exceeds the makespan (always
    /// true for simulated timelines).
    pub fn bubble_ratio(&self) -> f64 {
        dapple_core::phase::bubble_ratio(&self.busy_us, self.makespan_us)
    }

    /// Warmup/steady/tail split of the simulated timeline (µs), on the
    /// same [`dapple_core::PhaseSplit`] the engine derives from measured
    /// spans — the alignment predicted-vs-actual comparisons rely on.
    pub fn phase_split(&self) -> dapple_core::PhaseSplit {
        use dapple_core::PhaseTag;
        dapple_core::PhaseSplit::from_spans(self.tasks.iter().map(|t| {
            let tag = match t.kind {
                TaskKind::Fw => PhaseTag::Forward,
                TaskKind::Bw => PhaseTag::Backward,
                _ => PhaseTag::Other,
            };
            (tag, t.start_us, t.end_us)
        }))
    }

    /// Lowers the simulated task list into the profiler's
    /// [`ObservedSpan`](dapple_profiler::ObservedSpan) vocabulary, so a
    /// `Calibrator` can consume a simulated timeline exactly like a
    /// measured one. `replication[s]` is stage `s`'s replica count (the
    /// task records don't carry it). This is what the calibration
    /// round-trip guarantee is tested against: calibrating from the sim's
    /// own trace and re-predicting must reproduce the sim's makespan.
    pub fn observed_spans(&self, replication: &[usize]) -> Vec<dapple_profiler::ObservedSpan> {
        use dapple_profiler::ObservedSpan as O;
        let spans = self.tasks.iter().map(|t| {
            let (stage, bytes, dur_us) = (t.stage, t.bytes, t.end_us - t.start_us);
            let replicas = replication.get(stage).copied().unwrap_or(1);
            match t.kind {
                TaskKind::Fw => O::Fw { stage, dur_us },
                TaskKind::Bw => O::Bw { stage, dur_us },
                TaskKind::CommF => O::CommF {
                    boundary: stage,
                    bytes,
                    dur_us,
                },
                TaskKind::CommB => O::CommB {
                    boundary: stage,
                    bytes,
                    dur_us,
                },
                TaskKind::AllReduce => O::AllReduce {
                    stage,
                    bytes,
                    replicas,
                    dur_us,
                },
            }
        });
        spans.collect()
    }

    /// Largest per-stage peak memory.
    pub fn peak_memory_max(&self) -> Bytes {
        self.peak_mem.iter().copied().max().unwrap_or(Bytes::ZERO)
    }

    /// Average of per-stage peak memory — Table VI's "Average Peak Memory".
    pub fn peak_memory_avg(&self) -> Bytes {
        if self.peak_mem.is_empty() {
            return Bytes::ZERO;
        }
        let total: u64 = self.peak_mem.iter().map(|b| b.0).sum();
        Bytes(total / self.peak_mem.len() as u64)
    }
}

/// The pipeline simulator: a plan bound to a cost model.
pub struct PipelineSim<'a> {
    cost: &'a CostModel<'a>,
    plan: &'a Plan,
}

impl<'a> PipelineSim<'a> {
    /// Binds a plan to a cost model (which carries profile, cluster,
    /// memory model and global batch size).
    pub fn new(cost: &'a CostModel<'a>, plan: &'a Plan) -> Self {
        PipelineSim { cost, plan }
    }

    /// Runs one training iteration under `cfg`: every worker's step order
    /// and every boundary transfer, timed by [`list_schedule`], then each
    /// replicated stage's gradient AllReduce.
    pub fn run(&self, cfg: SimConfig) -> SimResult {
        let s = self.plan.num_stages();
        let m = cfg.micro_batches;
        assert!(m >= 1, "need at least one micro-batch");
        let lat = self.cost.stage_latencies(&self.plan.stages, m);
        let mb_samples = self.cost.global_batch as f64 / m as f64;
        let device = &self.cost.cluster.device;
        let slice = |i: usize| mb_samples / self.plan.stages[i].replication() as f64;

        // Per-stage step orders. D (max in-flight micro-batches) comes from
        // the memory model, clamped to every upstream stage's so that no
        // stage warms up deeper than the one feeding it (which would wait
        // for a backward its feeder cannot start); GPipe ignores it.
        let mut d = usize::MAX;
        let scripts: Vec<Vec<Step>> = (0..s)
            .map(|i| {
                d = d.min(self.cost.memory.max_live_microbatches(
                    self.cost.profile,
                    self.plan.stages[i].layers.clone(),
                    slice(i),
                    cfg.recompute,
                    device,
                ));
                stage_order(cfg.schedule, i, s, m, d.max(1))
            })
            .collect();

        // A worker per replica, each on its own device, and a channel per
        // boundary and direction. Replicas run their replica 0's times, so
        // stage `i` is read from its replica 0, lane `first(i)`.
        let replication: Vec<usize> = self.plan.stages.iter().map(|st| st.replication()).collect();
        let first = |i: usize| replication[..i].iter().sum::<usize>();
        let channels: Vec<(f64, f64)> = (1..s)
            .map(|i| (lat[2 * i - 1].fw_us, lat[2 * i - 1].bw_us))
            .collect();
        // Re-computation re-materializes the discarded activations.
        let refw = |i: usize| if cfg.recompute { lat[2 * i].fw_us } else { 0.0 };
        let cost = |i: usize, step| match step {
            Some(Step::Fw(_)) => lat[2 * i].fw_us,
            Some(Step::Bw(_)) => lat[2 * i].bw_us + refw(i),
            None => lat[2 * i].allreduce_us,
        };
        let lanes = step_lanes(&scripts, &replication, cost, |w| w, Some(&channels));
        let times = list_schedule(&lanes).times;

        // Each op's task, in start order: its lane's stage or boundary, the
        // kind and payload its slot names (a gradient crossing back has its
        // activation's shape), the micro-batch; an AllReduce only where a
        // stage is replicated.
        use TaskKind::{AllReduce, Bw, CommB, CommF, Fw};
        let b = channels.len();
        let read = (0..s).map(|i| {
            let params = self.cost.param_bytes(self.plan.stages[i].layers.clone()).0;
            (first(i), i, [(Fw, 0), (Bw, 0), (AllReduce, params)])
        });
        let read = read.chain((0..2 * b).map(|c| {
            let end = self.plan.stages[c % b].layers.end;
            let act = self.cost.profile.boundary_act(end, mb_samples).0;
            let kinds = [(CommF, act), (CommB, act), (CommB, act)];
            (first(s) + c, c % b, kinds)
        }));
        let mut tasks = Vec::with_capacity(4 * s * m);
        for (l, stage, kinds) in read {
            for (op, &(start_us, end_us)) in lanes[l].ops.iter().zip(&times[l]) {
                let ((kind, bytes), micro) = (kinds[op.slot / m], op.slot % m);
                if kind != AllReduce || op.cost > 0.0 {
                    tasks.push(TaskRecord {
                        stage,
                        kind,
                        micro,
                        bytes,
                        start_us,
                        end_us,
                    });
                }
            }
        }
        tasks.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        let (busy_us, memory): (Vec<f64>, Vec<StageMemory>) = (0..s)
            .map(|i| {
                let mut memory = StageMemory::new(
                    self.cost.profile,
                    &self.cost.memory,
                    self.plan.stages[i].layers.clone(),
                    slice(i),
                    cfg.recompute,
                );
                let mut busy = 0.0;
                let (ops, times) = (&lanes[first(i)].ops, &times[first(i)]);
                for ((step, op), &(start, end)) in scripts[i].iter().zip(ops).zip(times) {
                    busy += op.cost;
                    match step {
                        Step::Fw(_) => memory.on_forward(start, end),
                        Step::Bw(_) => memory.on_backward(start, end),
                    }
                }
                (busy, memory)
            })
            .unzip();
        let makespan = times.iter().flatten().fold(0.0, |end, t| t.1.max(end));

        let peak_mem: Vec<Bytes> = memory.iter().map(StageMemory::peak).collect();
        let mem_series: Vec<Vec<(f64, Bytes)>> =
            memory.into_iter().map(StageMemory::into_series).collect();
        let device_mem = device.mem;
        let oom = peak_mem.iter().any(|&p| p > device_mem);
        let throughput = self.cost.global_batch as f64 / (makespan / 1e6);

        SimResult {
            makespan_us: makespan,
            throughput,
            tasks,
            busy_us,
            peak_mem,
            mem_series,
            oom,
            device_mem,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::KPolicy;
    use dapple_cluster::Cluster;
    use dapple_core::{DeviceId, StagePlan};
    use dapple_model::{synthetic, OptimizerKind};
    use dapple_planner::pipeline_latency;
    use dapple_profiler::{MemoryModel, ModelProfile};

    /// Regression: a degenerate result (no stages) used to make
    /// `utilization()` divide 0.0 by 0 and return NaN, which then
    /// poisoned `bubble_ratio` and any aggregate built on top.
    #[test]
    fn utilization_of_empty_result_is_zero_not_nan() {
        let empty = SimResult {
            makespan_us: 0.0,
            throughput: 0.0,
            tasks: Vec::new(),
            busy_us: Vec::new(),
            peak_mem: Vec::new(),
            mem_series: Vec::new(),
            oom: false,
            device_mem: Bytes::ZERO,
        };
        assert_eq!(empty.utilization(), 0.0);
        assert_eq!(empty.bubble_ratio(), 1.0);
        // Stages but a zero makespan: still finite.
        let zero_span = SimResult {
            busy_us: vec![0.0, 0.0],
            ..empty
        };
        assert_eq!(zero_span.utilization(), 0.0);
        assert!(zero_span.bubble_ratio().is_finite());
    }

    struct Fixture {
        cluster: Cluster,
        profile: ModelProfile,
    }

    fn fixture(layers: usize) -> Fixture {
        let cluster = Cluster::config_b(4);
        let g = synthetic::uniform(
            layers,
            100.0,
            dapple_core::Bytes::mb(20.0),
            dapple_core::Bytes::mb(1.0),
        );
        let profile = ModelProfile::profile(&g, &cluster.device);
        Fixture { cluster, profile }
    }

    fn straight_plan(layers: usize, stages: usize) -> Plan {
        let per = layers / stages;
        Plan::new(
            (0..stages)
                .map(|i| StagePlan::new(i * per..(i + 1) * per, vec![DeviceId(i as u32)]))
                .collect(),
        )
    }

    fn cost<'a>(fx: &'a Fixture, gbs: usize) -> CostModel<'a> {
        CostModel::new(
            &fx.profile,
            &fx.cluster,
            MemoryModel::new(OptimizerKind::Adam),
            gbs,
        )
    }

    fn run(
        cm: &CostModel<'_>,
        plan: &Plan,
        m: usize,
        schedule: Schedule,
        recompute: bool,
    ) -> SimResult {
        PipelineSim::new(cm, plan).run(SimConfig {
            micro_batches: m,
            schedule,
            recompute,
        })
    }

    /// The simulated DAPPLE makespan matches the planner's closed-form
    /// objective on uniform pipelines (the estimator is exact there).
    #[test]
    fn sim_matches_latency_formula_on_uniform_pipeline() {
        let fx = fixture(8);
        let cm = cost(&fx, 16);
        let plan = straight_plan(8, 4);
        for m in [1usize, 2, 4, 8, 16] {
            let sim = run(&cm, &plan, m, Schedule::Dapple(KPolicy::PB), false);
            let lat = cm.stage_latencies(&plan.stages, m);
            let formula = pipeline_latency(&lat, m).total_us();
            let rel = (sim.makespan_us - formula).abs() / formula;
            assert!(
                rel < 0.05,
                "M={m}: sim {} vs formula {formula}",
                sim.makespan_us
            );
        }
    }

    /// All tasks run once; forwards precede their backwards; stage tasks
    /// never overlap on one stage.
    #[test]
    fn sim_invariants() {
        let fx = fixture(8);
        let cm = cost(&fx, 16);
        let plan = straight_plan(8, 4);
        for schedule in [
            Schedule::GPipe,
            Schedule::Dapple(KPolicy::PA),
            Schedule::Dapple(KPolicy::PB),
        ] {
            let sim = run(&cm, &plan, 8, schedule, false);
            let fw: Vec<_> = sim
                .tasks
                .iter()
                .filter(|t| t.kind == TaskKind::Fw)
                .collect();
            let bw: Vec<_> = sim
                .tasks
                .iter()
                .filter(|t| t.kind == TaskKind::Bw)
                .collect();
            assert_eq!(fw.len(), 4 * 8, "{schedule}");
            assert_eq!(bw.len(), 4 * 8, "{schedule}");
            for b in &bw {
                let f = fw
                    .iter()
                    .find(|f| f.stage == b.stage && f.micro == b.micro)
                    .unwrap();
                assert!(f.end_us <= b.start_us + 1e-9, "{schedule}: B before F");
            }
            // No overlap per stage.
            for i in 0..4 {
                let mut mine: Vec<_> = sim
                    .tasks
                    .iter()
                    .filter(|t| t.stage == i && matches!(t.kind, TaskKind::Fw | TaskKind::Bw))
                    .collect();
                mine.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
                for w in mine.windows(2) {
                    assert!(w[0].end_us <= w[1].start_us + 1e-9, "{schedule}: overlap");
                }
            }
        }
    }

    /// GPipe's peak memory grows with M; DAPPLE's stays flat (Fig. 3c and
    /// the core claim of Table VI).
    #[test]
    fn dapple_peak_memory_independent_of_m() {
        let fx = fixture(8);
        let plan = straight_plan(8, 2);
        // Fixed micro-batch size of 8 samples; M = 2 vs M = 8 (GBS 16/64),
        // exactly the Table VI protocol.
        let cm_small = cost(&fx, 16);
        let cm_big = cost(&fx, 64);
        let gp2 = run(&cm_small, &plan, 2, Schedule::GPipe, false);
        let gp8 = run(&cm_big, &plan, 8, Schedule::GPipe, false);
        let da2 = run(&cm_small, &plan, 2, Schedule::Dapple(KPolicy::PA), false);
        let da8 = run(&cm_big, &plan, 8, Schedule::Dapple(KPolicy::PA), false);
        assert!(
            gp8.peak_memory_max() > gp2.peak_memory_max(),
            "GPipe must accumulate activations with more micro-batches"
        );
        assert_eq!(
            da8.peak_memory_max(),
            da2.peak_memory_max(),
            "DAPPLE peak must be independent of M"
        );
        assert!(da8.peak_memory_max() < gp8.peak_memory_max());
    }

    /// DAPPLE achieves the same bubble time as GPipe for the same
    /// partition and M (§III-B) while using less memory.
    #[test]
    fn dapple_throughput_not_worse_than_gpipe() {
        let fx = fixture(8);
        let cm = cost(&fx, 32);
        let plan = straight_plan(8, 4);
        let gp = run(&cm, &plan, 8, Schedule::GPipe, false);
        let da = run(&cm, &plan, 8, Schedule::Dapple(KPolicy::PB), false);
        assert!(
            da.makespan_us <= gp.makespan_us * 1.01,
            "DAPPLE {} vs GPipe {}",
            da.makespan_us,
            gp.makespan_us
        );
    }

    /// Re-computation trades backward time for activation memory.
    #[test]
    fn recompute_saves_memory_costs_time() {
        let fx = fixture(8);
        let cm = cost(&fx, 32);
        let plan = straight_plan(8, 2);
        let plain = run(&cm, &plan, 8, Schedule::GPipe, false);
        let rc = run(&cm, &plan, 8, Schedule::GPipe, true);
        assert!(rc.peak_memory_max() < plain.peak_memory_max());
        assert!(rc.makespan_us > plain.makespan_us);
    }

    /// Single-stage plan reduces to gradient accumulation.
    #[test]
    fn single_stage_is_sequential() {
        let fx = fixture(4);
        let cm = cost(&fx, 8);
        let plan = Plan::new(vec![StagePlan::new(0..4, vec![DeviceId(0)])]);
        let sim = run(&cm, &plan, 4, Schedule::Dapple(KPolicy::PA), false);
        let lat = cm.stage_latencies(&plan.stages, 4);
        let expect = 4.0 * (lat[0].fw_us + lat[0].bw_us);
        assert!((sim.makespan_us - expect).abs() < 1e-6);
        assert!((sim.utilization() - 1.0).abs() < 1e-9);
    }

    /// Utilization and bubbles are consistent and bounded.
    #[test]
    fn utilization_bounds() {
        let fx = fixture(8);
        let cm = cost(&fx, 64);
        let plan = straight_plan(8, 4);
        for m in [2usize, 8, 32] {
            let sim = run(&cm, &plan, m, Schedule::Dapple(KPolicy::PB), false);
            let u = sim.utilization();
            assert!(u > 0.0 && u <= 1.0, "M={m}: {u}");
            assert!((sim.bubble_ratio() - (1.0 - u)).abs() < 1e-12);
            // More micro-batches => fewer bubbles.
            if m > 2 {
                let small = run(&cm, &plan, 2, Schedule::Dapple(KPolicy::PB), false);
                assert!(sim.utilization() > small.utilization());
            }
        }
    }

    /// OOM detection: tiny device memory flags the run.
    #[test]
    fn oom_flagging() {
        let mut cluster = Cluster::config_b(2);
        cluster.device.mem = Bytes::gib(1.0);
        let g = synthetic::uniform(
            4,
            100.0,
            dapple_core::Bytes::mb(20.0),
            dapple_core::Bytes::mb(64.0),
        );
        let profile = ModelProfile::profile(&g, &cluster.device);
        let cm = CostModel::new(
            &profile,
            &cluster,
            MemoryModel::new(OptimizerKind::Adam),
            32,
        );
        let plan = Plan::new(vec![
            StagePlan::new(0..2, vec![DeviceId(0)]),
            StagePlan::new(2..4, vec![DeviceId(1)]),
        ]);
        let sim = PipelineSim::new(&cm, &plan).run(SimConfig {
            micro_batches: 16,
            schedule: Schedule::GPipe,
            recompute: false,
        });
        assert!(
            sim.oom,
            "peak {} vs {}",
            sim.peak_memory_max(),
            sim.device_mem
        );
    }

    /// Regression: each stage's warm-up depth comes from its own memory
    /// bound `D`, and a stage allowed deeper than the one feeding it waited
    /// for a backward its feeder could not start ("pipeline deadlock", as
    /// on AmoebaNet-36 / Config B). Here stage 1's activations are half
    /// stage 0's, so its `D` is higher and PB would warm it up deeper.
    #[test]
    fn a_memory_bound_rising_downstream_does_not_deadlock() {
        let cluster = Cluster::config_b(3);
        let g = synthetic::from_triples(&[
            (100.0, 1.0, 3000.0),
            (100.0, 1.0, 1500.0),
            (100.0, 1.0, 10.0),
        ]);
        let profile = ModelProfile::profile(&g, &cluster.device);
        let cm = CostModel::new(&profile, &cluster, MemoryModel::new(OptimizerKind::Adam), 8);
        let plan = straight_plan(3, 3);
        let d: Vec<usize> = (0..3)
            .map(|i| {
                let layers = plan.stages[i].layers.clone();
                cm.memory
                    .max_live_microbatches(&profile, layers, 1.0, false, &cluster.device)
            })
            .collect();
        let pb = |i: usize| KPolicy::PB.warmup(i, 3, d[i], 8);
        assert!(pb(1) > pb(0), "the fixture's raw warm-up rises: {d:?}");
        let sim = run(&cm, &plan, 8, Schedule::Dapple(KPolicy::PB), false);
        let warmup: Vec<usize> = (0..3)
            .map(|i| {
                let mine = sim.tasks.iter().filter(|t| t.stage == i);
                let mine = mine.filter(|t| matches!(t.kind, TaskKind::Fw | TaskKind::Bw));
                mine.take_while(|t| t.kind == TaskKind::Fw).count()
            })
            .collect();
        assert_eq!(warmup, [pb(0), pb(0), pb(2)]);
        assert!(warmup.windows(2).all(|k| k[1] <= k[0]), "{warmup:?}");
    }

    use dapple_core::Bytes;
}
