//! Deterministic fault injection for the pipeline runtime.
//!
//! A [`FaultPlan`] maps injection points — `(stage, replica, step-index)`
//! in the same coordinate system the simulator schedules with
//! ([`dapple_sim::schedule::stage_order`]) — to a [`FaultKind`]. The
//! trainer consults the plan at every step of every worker, so a fault
//! fires at exactly one deterministic position in the pipeline, and the
//! structured error it produces is reproducible run after run.
//!
//! Plans are validated up front: an injection point that could never
//! produce an observable effect (e.g. dropping the forward send of the
//! last stage, which sends nothing forward) is rejected as
//! [`DappleError::InvalidConfig`] instead of silently doing nothing, so
//! every accepted fault has a defined structured outcome.

use crate::pipeline::EngineConfig;
use dapple_core::{DappleError, Result};
use dapple_sim::schedule::{stage_order, Step};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

/// What to inject at a pipeline step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Sleep this long before executing the step. The sleep holds the
    /// worker's thread, so every worker placed on that thread
    /// ([`crate::PipelineTrainer::threads`]) waits with it. A waiter on
    /// another thread observes [`DappleError::Stalled`] once the delay
    /// exceeds the configured receive timeout; when every worker shares
    /// one thread, nobody is left to wait and the stall is a slow step.
    Stall(Duration),
    /// Swallow every boundary message this step would send. A peer
    /// expecting those rows waits on its inbox until the receive timeout
    /// and observes [`DappleError::Stalled`].
    DropMessage,
    /// Send every boundary message of this step twice. The receiver
    /// observes [`DappleError::ChannelProtocol`], a "trailing message":
    /// at the receive the copy over-fills, or in the coordinator's look
    /// into its inbox after the join when it took its rows first.
    DuplicateMessage,
    /// Panic the worker thread at this step. The coordinator observes
    /// [`DappleError::WorkerPanicked`] with the injected payload.
    Panic,
    /// Poison this step's micro-batch with NaN values (the outgoing
    /// activation for a forward, the loss gradient for a backward). The
    /// step fails with [`DappleError::NonFinite`]; the model is left
    /// untouched.
    NanGradient,
}

/// A deterministic set of faults keyed by `(stage, replica, step)`.
///
/// `step` indexes the stage's deterministic order from
/// [`dapple_sim::schedule::stage_order`]; use
/// [`dapple_sim::schedule::step_index_of`] to target semantic
/// coordinates such as "the backward of µ=2".
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    faults: BTreeMap<(usize, usize, usize), FaultKind>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Builder-style insertion.
    pub fn with_fault(
        mut self,
        stage: usize,
        replica: usize,
        step: usize,
        kind: FaultKind,
    ) -> Self {
        self.insert(stage, replica, step, kind);
        self
    }

    /// Adds (or replaces) the fault at an injection point.
    pub fn insert(&mut self, stage: usize, replica: usize, step: usize, kind: FaultKind) {
        self.faults.insert((stage, replica, step), kind);
    }

    /// The fault at an injection point, if any.
    pub fn lookup(&self, stage: usize, replica: usize, step: usize) -> Option<FaultKind> {
        self.faults.get(&(stage, replica, step)).copied()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of injection points.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Iterates `((stage, replica, step), kind)` in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (&(usize, usize, usize), &FaultKind)> {
        self.faults.iter()
    }

    /// The faults one worker must apply, keyed by step index.
    pub(crate) fn for_worker(&self, stage: usize, replica: usize) -> HashMap<usize, FaultKind> {
        self.faults
            .iter()
            .filter(|((st, rp, _), _)| *st == stage && *rp == replica)
            .map(|((_, _, step), kind)| (*step, *kind))
            .collect()
    }

    /// Checks every injection point against the pipeline shape: in-bounds
    /// coordinates, and — for the communication faults — a step that
    /// actually produces an observable effect. Rejecting unobservable
    /// points here is what lets callers rely on "every accepted fault
    /// yields a structured error".
    pub fn validate(&self, cfg: &EngineConfig) -> Result<()> {
        let s = cfg.stage_bounds.len();
        for (&(stage, replica, step), &kind) in &self.faults {
            if stage >= s {
                return Err(DappleError::InvalidConfig(format!(
                    "fault at stage {stage}, pipeline has {s} stages"
                )));
            }
            if replica >= cfg.replication[stage] {
                return Err(DappleError::InvalidConfig(format!(
                    "fault at stage {stage} replica {replica}, stage has {} replicas",
                    cfg.replication[stage]
                )));
            }
            let script = stage_order(cfg.schedule, stage, s, cfg.micro_batches, cfg.max_in_flight);
            if step >= script.len() {
                return Err(DappleError::InvalidConfig(format!(
                    "fault at stage {stage} step {step}, stage runs {} steps",
                    script.len()
                )));
            }
            let observable = match kind {
                // A drop/duplicate needs an outgoing message at the step
                // itself.
                FaultKind::DropMessage | FaultKind::DuplicateMessage => {
                    sends_boundary_message(script[step], stage, s)
                }
                // A stall is observed through the first delayed send, so
                // any outgoing message at or after the step suffices.
                FaultKind::Stall(_) => script[step..]
                    .iter()
                    .any(|&st| sends_boundary_message(st, stage, s)),
                FaultKind::Panic | FaultKind::NanGradient => true,
            };
            if !observable {
                return Err(DappleError::InvalidConfig(format!(
                    "{kind:?} at stage {stage} step {step} ({:?}) sends no boundary \
                     message and would be unobservable",
                    script[step]
                )));
            }
        }
        Ok(())
    }

    /// A seeded random plan of `count` valid injection points for the
    /// given pipeline shape — same seed, same plan. Stalls are sized at
    /// four receive timeouts so they are reliably observable.
    pub fn sample(seed: u64, count: usize, cfg: &EngineConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = cfg.stage_bounds.len();
        let kinds = [
            FaultKind::Stall(cfg.recv_timeout * 4),
            FaultKind::DropMessage,
            FaultKind::DuplicateMessage,
            FaultKind::Panic,
            FaultKind::NanGradient,
        ];
        let mut plan = FaultPlan::new();
        let mut attempts = 0usize;
        while plan.len() < count && attempts < count.saturating_mul(64).max(64) {
            attempts += 1;
            let stage = rng.random_range(0..s);
            let replica = rng.random_range(0..cfg.replication[stage]);
            let step = rng.random_range(0..2 * cfg.micro_batches);
            let kind = kinds[rng.random_range(0..kinds.len())];
            let candidate = plan.clone().with_fault(stage, replica, step, kind);
            if candidate.validate(cfg).is_ok() {
                plan = candidate;
            }
        }
        plan
    }
}

/// Whether `step` on `stage` (of `s`) sends a message across a stage
/// boundary: forwards send downstream except on the last stage,
/// backwards send upstream except on the first.
fn sends_boundary_message(step: Step, stage: usize, s: usize) -> bool {
    match step {
        Step::Fw(_) => stage + 1 < s,
        Step::Bw(_) => stage > 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg3() -> EngineConfig {
        EngineConfig::straight(vec![0..2, 2..4, 4..6], 4, 0.1)
    }

    #[test]
    fn builder_lookup_round_trip() {
        let plan = FaultPlan::new()
            .with_fault(1, 0, 3, FaultKind::Panic)
            .with_fault(2, 0, 0, FaultKind::NanGradient);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.lookup(1, 0, 3), Some(FaultKind::Panic));
        assert_eq!(plan.lookup(1, 0, 4), None);
        let worker_faults = plan.for_worker(2, 0);
        assert_eq!(worker_faults.get(&0), Some(&FaultKind::NanGradient));
        assert!(plan.for_worker(0, 0).is_empty());
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn validate_rejects_out_of_bounds_points() {
        let cfg = cfg3();
        for bad in [
            FaultPlan::new().with_fault(3, 0, 0, FaultKind::Panic),
            FaultPlan::new().with_fault(0, 1, 0, FaultKind::Panic),
            FaultPlan::new().with_fault(0, 0, 8, FaultKind::Panic),
        ] {
            assert!(matches!(
                bad.validate(&cfg),
                Err(DappleError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn validate_rejects_unobservable_communication_faults() {
        let cfg = cfg3();
        // The last stage sends nothing forward: dropping any Fw there is
        // unobservable. Under DAPPLE-PA its step 0 is Fw(0).
        let bad = FaultPlan::new().with_fault(2, 0, 0, FaultKind::DropMessage);
        assert!(matches!(
            bad.validate(&cfg),
            Err(DappleError::InvalidConfig(_))
        ));
        // Stage 0 sends nothing backward: a stall on its final Bw drain
        // (steps after the last forward) delays no message.
        let bad = FaultPlan::new().with_fault(0, 0, 7, FaultKind::Stall(Duration::from_secs(1)));
        assert!(matches!(
            bad.validate(&cfg),
            Err(DappleError::InvalidConfig(_))
        ));
        // But a Panic anywhere in bounds is fine.
        let ok = FaultPlan::new().with_fault(2, 0, 0, FaultKind::Panic);
        assert!(ok.validate(&cfg).is_ok());
    }

    #[test]
    fn sampled_plans_are_seeded_and_valid() {
        let cfg = cfg3();
        let a = FaultPlan::sample(42, 5, &cfg);
        let b = FaultPlan::sample(42, 5, &cfg);
        let c = FaultPlan::sample(43, 5, &cfg);
        assert_eq!(a, b, "same seed must give the same plan");
        assert_ne!(a, c, "different seeds should differ");
        assert_eq!(a.len(), 5);
        assert!(a.validate(&cfg).is_ok());
    }
}
