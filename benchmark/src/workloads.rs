//! The four supervised-training workloads and the seeded fault /
//! checkpoint schedule. Shapes are constants: identical on every commit,
//! so a number measured here means the same thing after any change.

use dapple::engine::{
    DataStream, EngineConfig, FaultKind, FaultPlan, MlpModel, Optimizer, RetryPolicy, Supervisor,
    TrainLoop,
};
use dapple::sim::{KPolicy, Schedule};
use std::ops::Range;

/// `recovery_adam` checkpoints every `PERIOD` completed steps and takes
/// one injected fault per `PERIOD` steps, so every slice of `PERIOD`
/// steps costs the same and a tenth of all steps end in a save — which
/// puts `step_ms_p95` in the middle of the save steps, not on the edge
/// between two kinds of slow step.
pub const PERIOD: u64 = 10;
/// The step within each period whose first attempt is faulted.
const FAULT_PHASE: u64 = 5;
/// Where the fault fires: early in a middle stage, so both kinds fail
/// promptly (no `recv_timeout` sleeps in a straight pipeline).
const FAULT_AT: (usize, usize, usize) = (1, 0, 2);

/// One workload: a model, how it is cut into a pipeline, and how long
/// its warm-up and measuring slices are.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// Layer widths, input first.
    pub dims: Vec<usize>,
    pub stage_bounds: Vec<Range<usize>>,
    pub replication: Vec<usize>,
    pub schedule: Schedule,
    pub micro_batches: usize,
    pub batch: usize,
    /// Adam (with its two moment buffers) instead of plain SGD.
    pub adam: bool,
    /// Seeded faults and periodic checkpoints (see [`PERIOD`]).
    pub recovery: bool,
    /// Steps run before timing starts; part of `setup_s`.
    pub warmup_steps: usize,
    /// Timed steps are grouped into slices of this many; throughput is
    /// the median over slices. A multiple of [`PERIOD`] under `recovery`.
    pub slice_steps: usize,
}

/// A hidden stack `input -> width x hidden -> output`.
fn mlp_dims(input: usize, width: usize, hidden: usize, output: usize) -> Vec<usize> {
    let mut dims = vec![input];
    dims.extend(std::iter::repeat_n(width, hidden));
    dims.push(output);
    dims
}

/// All workloads, in the order `BENCHMARK.json` lists them. Step times
/// in comments are the seed commit on the 2-core reference host.
pub fn all() -> Vec<Workload> {
    let pa = Schedule::Dapple(KPolicy::PA);
    vec![
        // ~80 ms/step: 64-row micro-batches through 512-wide layers.
        Workload {
            name: "compute_wide",
            dims: mlp_dims(64, 512, 5, 32),
            stage_bounds: vec![0..2, 2..4, 4..6],
            replication: vec![1; 3],
            schedule: pa,
            micro_batches: 8,
            batch: 512,
            adam: false,
            recovery: false,
            warmup_steps: 16,
            slice_steps: 12,
        },
        // ~2.6 ms/step: 8-row micro-batches, 16 of them, 4 stages.
        Workload {
            name: "overhead_narrow",
            dims: mlp_dims(32, 64, 7, 16),
            stage_bounds: vec![0..2, 2..4, 4..6, 6..8],
            replication: vec![1; 4],
            schedule: pa,
            micro_batches: 16,
            batch: 128,
            adam: false,
            recovery: false,
            warmup_steps: 450,
            slice_steps: 400,
        },
        // ~85 ms/step: 2 stages x 2 replicas, ~10 MB of gradients.
        Workload {
            name: "sync_hybrid",
            dims: mlp_dims(64, 768, 5, 32),
            stage_bounds: vec![0..3, 3..6],
            replication: vec![2, 2],
            schedule: Schedule::Dapple(KPolicy::PB),
            micro_batches: 4,
            batch: 64,
            adam: false,
            recovery: false,
            warmup_steps: 14,
            slice_steps: 12,
        },
        // ~70 ms clean step, ~90 ms extra per save, ~30 ms per fault.
        Workload {
            name: "recovery_adam",
            dims: mlp_dims(64, 768, 5, 32),
            stage_bounds: vec![0..2, 2..4, 4..6],
            replication: vec![1; 3],
            schedule: pa,
            micro_batches: 4,
            batch: 64,
            adam: true,
            recovery: true,
            // Two periods: one fault of each kind and two saves.
            warmup_steps: 20,
            slice_steps: 10,
        },
    ]
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The same workload at a fraction of the steps, for `--smoke`.
    pub fn smoke(mut self) -> Self {
        let floor = if self.recovery { PERIOD as usize } else { 1 };
        self.warmup_steps = (self.warmup_steps / 10).max(floor);
        self.slice_steps = (self.slice_steps / 10).max(floor);
        self
    }

    pub fn model(&self, seed: u64) -> MlpModel {
        MlpModel::new(&self.dims, seed)
    }

    fn lr(&self) -> f32 {
        if self.adam {
            1e-3
        } else {
            0.05
        }
    }

    pub fn engine_config(&self, tracing: bool) -> EngineConfig {
        let mut cfg =
            EngineConfig::straight(self.stage_bounds.clone(), self.micro_batches, self.lr());
        cfg.replication = self.replication.clone();
        cfg.schedule = self.schedule;
        cfg.tracing = tracing;
        cfg
    }

    pub fn optimizer(&self, model: &MlpModel) -> Optimizer {
        if self.adam {
            Optimizer::adam(self.lr(), model)
        } else {
            Optimizer::sgd(self.lr())
        }
    }

    pub fn stream(&self, seed: u64) -> DataStream {
        let (input, output) = (self.dims[0], self.dims[self.dims.len() - 1]);
        DataStream::new(seed, self.batch, input, output)
    }

    /// A fresh training loop at step 0.
    pub fn train_loop(&self, seed: u64, tracing: bool) -> TrainLoop {
        let model = self.model(seed);
        let optimizer = self.optimizer(&model);
        TrainLoop::new(
            model,
            self.engine_config(tracing),
            optimizer,
            self.stream(seed),
        )
        .expect("workload shapes are valid by construction")
    }

    /// The top of the stack: what a user of the engine runs.
    pub fn supervisor(&self, seed: u64, tracing: bool) -> Supervisor {
        let sup = Supervisor::new(self.train_loop(seed, tracing), RetryPolicy::default());
        if self.recovery {
            sup.with_checkpoint_every(PERIOD)
        } else {
            sup
        }
    }

    /// The fault schedule, `Supervisor::step_with`'s `faults(step, attempt)`:
    /// the first attempt of one step per period fails; the seed picks
    /// which of the two kinds comes first, then they alternate.
    pub fn fault_plan(&self, seed: u64, step: u64, attempt: usize) -> FaultPlan {
        if !self.recovery || attempt != 0 || step % PERIOD != FAULT_PHASE {
            return FaultPlan::new();
        }
        let kind = if (step / PERIOD + seed).is_multiple_of(2) {
            FaultKind::Panic
        } else {
            FaultKind::NanGradient
        };
        let (stage, replica, at) = FAULT_AT;
        FaultPlan::new().with_fault(stage, replica, at, kind)
    }

    /// Retries the schedule implies over steps `0..steps`.
    pub fn expected_retries(&self, steps: u64) -> u64 {
        if self.recovery {
            (steps + PERIOD - 1 - FAULT_PHASE) / PERIOD
        } else {
            0
        }
    }

    /// Checkpoint saves the schedule implies over steps `0..steps`.
    pub fn expected_saves(&self, steps: u64) -> u64 {
        if self.recovery {
            steps / PERIOD
        } else {
            0
        }
    }

    pub fn params(&self) -> usize {
        self.dims.windows(2).map(|w| w[0] * w[1] + w[1]).sum()
    }

    /// Rows of one micro-batch on one replica of `stage`.
    pub fn micro_rows(&self, stage: usize) -> usize {
        self.batch / self.micro_batches / self.replication[stage]
    }

    /// Multiply-add FLOPs of one training step: a forward matmul and the
    /// two backward matmuls (dW, dx) per layer, over the whole batch.
    pub fn step_flops(&self) -> f64 {
        let per_row: usize = self.dims.windows(2).map(|w| w[0] * w[1]).sum();
        6.0 * self.batch as f64 * per_row as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_builds_and_names_match_benchmark_json() {
        let listed: Vec<String> = crate::contract::Contract::load()
            .workloads
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        let built: Vec<&str> = all().iter().map(|w| w.name).collect();
        assert_eq!(listed, built);
        for w in all() {
            assert_eq!(w.supervisor(3, false).train().step(), 0, "{}", w.name);
            assert_eq!(w.model(3).num_params(), w.params(), "{}", w.name);
            let smoke = w.clone().smoke();
            assert!(smoke.slice_steps >= 1 && smoke.slice_steps <= w.slice_steps);
            if w.recovery {
                assert_eq!(w.slice_steps as u64 % PERIOD, 0);
                assert_eq!(smoke.slice_steps as u64 % PERIOD, 0);
            }
        }
    }

    #[test]
    fn fault_schedule_is_seeded_periodic_and_first_attempt_only() {
        let w = by_name("recovery_adam").unwrap();
        let mut kinds = Vec::new();
        for step in 0..40u64 {
            let plan = w.fault_plan(11, step, 0);
            assert_eq!(plan.is_empty(), step % PERIOD != FAULT_PHASE, "step {step}");
            assert!(w.fault_plan(11, step, 1).is_empty(), "retries run clean");
            kinds.extend(plan.iter().map(|(_, k)| *k));
        }
        use FaultKind::{NanGradient, Panic};
        assert_eq!(kinds, [NanGradient, Panic, NanGradient, Panic]);
        // Another seed flips which kind comes first, nothing else.
        let first = w.fault_plan(12, FAULT_PHASE, 0);
        assert_eq!(first.iter().next().map(|(_, k)| *k), Some(Panic));
        // The plan is valid for the pipeline it is aimed at.
        first.validate(&w.engine_config(false)).unwrap();
    }

    #[test]
    fn implied_counts_follow_the_schedule() {
        let w = by_name("recovery_adam").unwrap();
        assert_eq!(w.expected_retries(5), 0);
        assert_eq!(w.expected_retries(6), 1);
        assert_eq!(w.expected_retries(30), 3);
        assert_eq!(w.expected_saves(9), 0);
        assert_eq!(w.expected_saves(30), 3);
        let clean = by_name("compute_wide").unwrap();
        assert_eq!(
            (clean.expected_retries(100), clean.expected_saves(100)),
            (0, 0)
        );
        assert!(clean.fault_plan(1, FAULT_PHASE, 0).is_empty());
    }
}
