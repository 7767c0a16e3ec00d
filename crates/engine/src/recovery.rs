//! Fault recovery for the 1F1B runtime: transactional steps, a retrying
//! supervisor with degraded-mode continuation, and full-state
//! checkpoint/resume.
//!
//! DAPPLE's training runs are week-long and synchronous (paper §1, §6):
//! a failure must be answered with *exact* rollback and replay, not the
//! relaxed consistency asynchronous schemes settle for. This module
//! closes the loop that fault *injection* (PR 1) opened:
//!
//! * [`TrainLoop`] drives a [`PipelineTrainer`] + [`Optimizer`] over a
//!   deterministic [`DataStream`], and every step is **transactional by
//!   construction**: DAPPLE is synchronous, so weights change exactly
//!   once per step, after every micro-batch gradient has been
//!   accumulated and AllReduced. The pipelined step borrows the model
//!   shared (`PipelineTrainer::step_with_trace(&self)`), every injected
//!   or real fault fires inside a worker, and the only mutation —
//!   `Optimizer::step`, which cannot fail — runs after the step has
//!   succeeded. A step that dies mid-flight has therefore touched
//!   nothing but the data cursor, and rewinding that cursor is the
//!   whole rollback; nothing is copied before or after a step. The
//!   fault-matrix sweep in `tests/recovery.rs` pins the invariant.
//! * [`Supervisor`] wraps the loop with a [`RetryPolicy`]: bounded
//!   attempts, deterministic exponential backoff in **virtual time**
//!   (recorded, never slept — tests stay fast and reproducible), and
//!   per-error classification into retryable faults vs fatal
//!   misconfiguration. When a stage replica exhausts its retry budget
//!   the supervisor continues in **degraded mode**: the replica is
//!   dropped, the surviving replicas re-shard the micro-batch rows (the
//!   gradient average is implicitly rescaled to the surviving replica
//!   count, since every row is still processed exactly once), and the
//!   reconfiguration is recorded as a [`RecoveryEventKind::ReplicaDropped`].
//! * Training state is kept exactly one way: live in the [`TrainLoop`],
//!   serialized as one self-contained checkpoint file
//!   ([`crate::checkpoint`]) that also records the active partition.
//!   [`TrainLoop::save`] publishes it atomically (tmp file, sync, rename,
//!   directory sync); the [`Supervisor`] keeps its periodic save in
//!   memory, written into a spare buffer that the save it retires becomes
//!   in turn. [`TrainLoop::resume`] / [`TrainLoop::resume_bytes`]
//!   reproduce a trajectory bit-identical to an uninterrupted run
//!   (asserted by the kill-at-step-k proptests in `tests/recovery.rs`).
//! * **Elastic recovery** ([`Supervisor::with_elastic`]) closes the
//!   escalation ladder: *degraded → re-plan → migrate → full speed*.
//!   Degraded mode is first aid, not a steady state — it leaves a
//!   straggler stage pacing the whole synchronous pipeline. With an
//!   elastic plan attached, the supervisor tracks which physical
//!   devices the failures burned, asks the planner (via a replanner
//!   callback, so the engine stays planner-agnostic) for a fresh plan
//!   over the survivors, tears the old trainer down and rebuilds it
//!   around the live model in the re-planned shape — same step, same
//!   data cursor, the very same weights and optimizer moments (they
//!   never leave this address space, so nothing is serialized). A stage that
//!   exhausts retries with no replica to drop migrates immediately;
//!   a replica drop migrates after a short observation window (so the
//!   degraded baseline is measurable). Each migration is logged as
//!   [`RecoveryEventKind::Repartitioned`] with both plans and the
//!   wall-clock migration cost.
//!
//! Every recovery action — retry, rollback, replica drop, checkpoint
//! save/load, repartition — is logged as a [`RecoveryEvent`] with a
//! virtual-time stamp, summarized by [`RecoveryMetrics`] (MTTR,
//! recovered-step overhead, migration cost) and, when tracing is on,
//! folded into the step's [`StepMetrics`]
//! ([`Supervisor::last_step_metrics`], which `benchmark/`'s layers mode
//! reads).

use crate::checkpoint::{self, Partition, StateView, TrainState};
use crate::data;
use crate::fault::FaultPlan;
use crate::model::{MlpModel, StepStats};
use crate::optim::Optimizer;
use crate::pipeline::{EngineConfig, PipelineTrainer};
use crate::runlog::RunRecorder;
use crate::tensor::Tensor;
use crate::trace::{RecoveryStepMetrics, StepMetrics, StepTrace};
use dapple_core::json::Array;
use dapple_core::{DappleError, DeviceId, Plan, Result};
use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// A deterministic stream of training batches: batch `k` is a pure
/// function of `(seed, k)`, so checkpointing `(seed, cursor)` is enough
/// to resume the exact sample sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataStream {
    seed: u64,
    cursor: u64,
    samples: usize,
    in_dim: usize,
    out_dim: usize,
}

impl DataStream {
    /// A stream of `samples x in_dim -> samples x out_dim` batches.
    pub fn new(seed: u64, samples: usize, in_dim: usize, out_dim: usize) -> Self {
        DataStream {
            seed,
            cursor: 0,
            samples,
            in_dim,
            out_dim,
        }
    }

    /// The next batch; advances the cursor.
    pub fn next_batch(&mut self) -> (Tensor, Tensor) {
        let s = self
            .seed
            .wrapping_add((self.cursor.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        self.cursor += 1;
        data::regression_batch(self.samples, self.in_dim, self.out_dim, s)
    }

    /// Batches already drawn.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Stream seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Samples per batch.
    pub fn samples(&self) -> usize {
        self.samples
    }
}

/// A training loop with transactional steps and full-state
/// checkpointing. See the module docs for the recovery story.
pub struct TrainLoop {
    trainer: PipelineTrainer,
    optimizer: Optimizer,
    data: DataStream,
    step: u64,
    /// Wall-clock cost of the most recent rollback, ns.
    last_rollback_ns: u64,
    /// Trace of the most recent *successful* step (tracing on only).
    last_trace: Option<StepTrace>,
    /// Optional per-step telemetry sink ([`crate::runlog`]).
    recorder: Option<RunRecorder>,
    /// Recovery costs accumulated since the last *successful* step —
    /// failed attempts and their rollbacks plus checkpoint save/load and
    /// migration time charged by the supervisor. Drained into the next
    /// recorded step; carried across a restore with the recorder.
    pending_recovery: RecoveryStepMetrics,
}

impl TrainLoop {
    /// Builds a loop; validates that the stream shape matches the model
    /// and that batches split evenly into the configured micro-batches.
    pub fn new(
        model: MlpModel,
        cfg: EngineConfig,
        optimizer: Optimizer,
        stream: DataStream,
    ) -> Result<Self> {
        let in_dim = model.layers.first().map_or(0, |l| l.in_dim());
        let out_dim = model.layers.last().map_or(0, |l| l.out_dim());
        if stream.in_dim != in_dim || stream.out_dim != out_dim {
            return Err(DappleError::InvalidConfig(format!(
                "data stream shape {}x{} does not match model {}x{}",
                stream.in_dim, stream.out_dim, in_dim, out_dim
            )));
        }
        if cfg.micro_batches == 0 || !stream.samples.is_multiple_of(cfg.micro_batches) {
            return Err(DappleError::InvalidConfig(format!(
                "batch of {} samples not divisible by {} micro-batches",
                stream.samples, cfg.micro_batches
            )));
        }
        let trainer = PipelineTrainer::new(model, cfg)?;
        Ok(TrainLoop {
            trainer,
            optimizer,
            data: stream,
            step: 0,
            last_rollback_ns: 0,
            last_trace: None,
            recorder: None,
            pending_recovery: RecoveryStepMetrics::default(),
        })
    }

    /// Rebuilds a loop from a checkpointed state (the engine config is
    /// runtime-local and supplied by the caller).
    pub fn from_state(state: TrainState, cfg: EngineConfig) -> Result<Self> {
        let in_dim = state.model.layers.first().map_or(0, |l| l.in_dim());
        let out_dim = state.model.layers.last().map_or(0, |l| l.out_dim());
        let mut stream = DataStream::new(
            state.data_seed,
            state.batch_samples as usize,
            in_dim,
            out_dim,
        );
        stream.cursor = state.data_cursor;
        let mut lp = TrainLoop::new(state.model, cfg, state.optimizer, stream)?;
        lp.step = state.step;
        Ok(lp)
    }

    /// Resumes from one checkpoint file's bytes. The partition stored in
    /// the file **overrides** `cfg.stage_bounds` / `cfg.replication` — a
    /// checkpoint taken while degraded resumes degraded, not in the shape
    /// the caller remembers; all other knobs (schedule, timeouts,
    /// tracing, ...) come from `cfg`.
    pub fn resume_bytes(bytes: &[u8], mut cfg: EngineConfig) -> Result<Self> {
        let (state, partition) = checkpoint::from_bytes(bytes)?;
        cfg.stage_bounds = partition.stage_bounds;
        cfg.replication = partition.replication;
        TrainLoop::from_state(state, cfg)
    }

    /// [`TrainLoop::resume_bytes`] of what [`Supervisor::checkpoint_chain`]
    /// returns: exactly one file.
    pub fn resume_chain<B: AsRef<[u8]>>(chain: &[B], cfg: EngineConfig) -> Result<Self> {
        let [file] = chain else {
            return Err(DappleError::InvalidConfig(format!(
                "a checkpoint is one file, got {}",
                chain.len()
            )));
        };
        TrainLoop::resume_bytes(file.as_ref(), cfg)
    }

    /// Resumes from a checkpoint file written by [`TrainLoop::save`].
    pub fn resume(path: &Path, cfg: EngineConfig) -> Result<Self> {
        let bytes = std::fs::read(path)
            .map_err(|e| DappleError::InvalidConfig(format!("cannot read checkpoint: {e}")))?;
        TrainLoop::resume_bytes(&bytes, cfg)
    }

    /// Completed training steps.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// The current model.
    pub fn model(&self) -> &MlpModel {
        &self.trainer.model
    }

    /// The current optimizer state.
    pub fn optimizer(&self) -> &Optimizer {
        &self.optimizer
    }

    /// The engine configuration driving the pipeline.
    pub fn config(&self) -> &EngineConfig {
        self.trainer.config()
    }

    /// The deterministic data stream.
    pub fn data(&self) -> &DataStream {
        &self.data
    }

    /// Wall-clock cost of the most recent rollback, ns.
    pub fn last_rollback_ns(&self) -> u64 {
        self.last_rollback_ns
    }

    /// The trace of the most recent successful step (`None` unless
    /// [`EngineConfig::tracing`] is on).
    pub fn last_trace(&self) -> Option<&StepTrace> {
        self.last_trace.as_ref()
    }

    /// Attaches a telemetry recorder: every subsequent successful step
    /// is timed and appended to the recorder's JSONL run log (plus the
    /// trace-derived schedule metrics when tracing is on). Replaces any
    /// recorder already attached.
    pub fn attach_recorder(&mut self, recorder: RunRecorder) {
        self.recorder = Some(recorder);
    }

    /// Detaches and returns the recorder.
    pub fn take_recorder(&mut self) -> Option<RunRecorder> {
        self.recorder.take()
    }

    /// Charges checkpoint serialization/deserialization time to the next
    /// recorded step (called by the supervisor, which owns checkpoint
    /// policy; the loop itself never checkpoints spontaneously).
    pub fn charge_checkpoint_ns(&mut self, save_ns: u64, load_ns: u64) {
        self.pending_recovery.checkpoint_save_ns += save_ns;
        self.pending_recovery.checkpoint_load_ns += load_ns;
    }

    /// Charges elastic-migration time (teardown + rebuild) to the
    /// next recorded step.
    pub fn charge_migration_ns(&mut self, ns: u64) {
        self.pending_recovery.migration_ns += ns;
    }

    /// The active partition (stage bounds + replication), as persisted
    /// in checkpoints.
    pub fn partition(&self) -> Partition {
        let cfg = self.trainer.config();
        Partition {
            stage_bounds: cfg.stage_bounds.clone(),
            replication: cfg.replication.clone(),
        }
    }

    /// The full training state, borrowed: what a save reads.
    fn state_view(&self) -> StateView<'_> {
        StateView {
            model: &self.trainer.model,
            optimizer: &self.optimizer,
            step: self.step,
            data_seed: self.data.seed,
            data_cursor: self.data.cursor,
            batch_samples: self.data.samples as u32,
        }
    }

    /// Serializes the full state, and the current partition, as one
    /// self-contained checkpoint.
    pub fn save_bytes(&self) -> Vec<u8> {
        checkpoint::to_bytes(self.state_view(), &self.partition())
    }

    /// Publishes [`TrainLoop::save_bytes`] at `path` atomically: written
    /// and synced as `{path}.tmp`, then renamed into place. A crash
    /// mid-write leaves a `.tmp` file nobody reads, never a torn file
    /// under `path` — whatever checkpoint was there before survives whole.
    pub fn save(&self, path: &Path) -> Result<()> {
        let bytes = self.save_bytes();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let write = || {
            let mut file = File::create(&tmp)?;
            file.write_all(&bytes)?;
            file.sync_all()?;
            std::fs::rename(&tmp, path)?;
            // The new name is durable once its directory is.
            #[cfg(unix)]
            {
                let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
                File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
            }
            std::io::Result::Ok(())
        };
        write().map_err(|e| DappleError::InvalidConfig(format!("cannot write checkpoint: {e}")))
    }

    /// One transactional training step under a fault plan.
    ///
    /// All-or-nothing: on success the model, optimizer, step counter and
    /// data cursor advance together; on *any* failure every one of them
    /// still holds its pre-step value (so a retry re-reads the same
    /// batch), and the error is returned untouched.
    // `step_with_trace(&self)` is what makes the step transactional: the
    // model cannot change while the step can still fail.
    pub fn try_step(&mut self, faults: &FaultPlan) -> Result<StepStats> {
        let wall_t0 = self.recorder.as_ref().map(|_| Instant::now());
        let cursor = self.data.cursor;
        let (x, t) = self.data.next_batch();
        let (result, trace) = self.trainer.step_with_trace(&x, &t, faults);
        match result {
            Ok(out) => {
                self.optimizer.step(&mut self.trainer.model, &out.grads);
                self.step += 1;
                self.last_trace = trace;
                if let Some(rec) = self.recorder.as_mut() {
                    let wall_ns = wall_t0.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
                    let recovery = std::mem::take(&mut self.pending_recovery);
                    let metrics = self.last_trace.as_ref().map(StepTrace::metrics);
                    rec.record_step(
                        self.step,
                        out.loss,
                        x.rows,
                        wall_ns,
                        out.pool_hits as u64,
                        out.pool_misses as u64,
                        &recovery,
                        metrics.as_ref(),
                    );
                }
                Ok(StepStats {
                    loss: out.loss,
                    samples: x.rows,
                })
            }
            Err(e) => {
                // The batch draw is all a failed attempt did to the loop.
                let t0 = Instant::now();
                self.data.cursor = cursor;
                self.last_rollback_ns = t0.elapsed().as_nanos() as u64;
                self.pending_recovery.retries += 1;
                self.pending_recovery.rollback_ns += self.last_rollback_ns;
                Err(e)
            }
        }
    }

    /// Runs `steps` fault-free transactional steps; returns the losses.
    pub fn run(&mut self, steps: u64) -> Result<Vec<f32>> {
        let plan = FaultPlan::new();
        (0..steps).map(|_| Ok(self.try_step(&plan)?.loss)).collect()
    }

    /// Swaps in a new engine configuration (degraded-mode reshard,
    /// elastic migration) around the model where it lies, keeping
    /// optimizer, cursors, the recorder and the recovery charges pending
    /// for the next step. A rejected configuration leaves the loop as it
    /// was.
    pub fn reconfigure(&mut self, cfg: EngineConfig) -> Result<()> {
        self.trainer.reconfigure(cfg)
    }
}

/// Is an error worth retrying, or deterministically fatal?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Transient runtime fault (stall, crash, lost/duplicated message,
    /// non-finite gradients): a replay may succeed.
    Retryable,
    /// Structural error (invalid config, shape mismatch): replaying the
    /// same step would fail identically.
    Fatal,
}

/// Bounded-retry policy with deterministic virtual-time backoff.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Attempts per step per pipeline configuration (first try included).
    pub max_attempts: usize,
    /// Backoff before retry `k` is `base_backoff_us << (k - 1)` —
    /// accumulated on the virtual clock, never slept.
    pub base_backoff_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_us: 1_000,
        }
    }
}

impl RetryPolicy {
    /// Classifies an error. Every fault the injection harness can
    /// produce ([`crate::FaultKind`]) surfaces as one of the retryable
    /// variants; config/shape errors are fatal.
    pub fn classify(e: &DappleError) -> FaultClass {
        match e {
            DappleError::Stalled { .. }
            | DappleError::WorkerPanicked { .. }
            | DappleError::NonFinite { .. }
            | DappleError::ChannelProtocol { .. }
            | DappleError::ChannelClosed { .. } => FaultClass::Retryable,
            _ => FaultClass::Fatal,
        }
    }

    /// Virtual backoff before retry `attempt` (1-based), µs.
    pub fn backoff_us(&self, attempt: usize) -> u64 {
        self.base_backoff_us
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(20))
    }
}

/// What the supervisor did, and when (virtual µs since run start).
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryEvent {
    /// Training step the event belongs to.
    pub step: u64,
    /// Virtual timestamp, µs.
    pub virtual_us: u64,
    /// The action taken.
    pub kind: RecoveryEventKind,
}

/// The supervisor's possible actions.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryEventKind {
    /// A step attempt failed and was rolled back (wall-clock cost
    /// recorded).
    Rollback {
        /// Rollback duration, ns.
        ns: u64,
    },
    /// A retry was scheduled after a retryable failure.
    Retry {
        /// 1-based retry number.
        attempt: usize,
        /// The error that triggered it.
        error: DappleError,
        /// Virtual backoff charged before the retry, µs.
        backoff_us: u64,
    },
    /// A previously-failing step completed.
    Recovered {
        /// Attempts the step took in total.
        attempts: usize,
    },
    /// A stage replica was dropped; the stage continues with `survivors`
    /// replicas re-sharding the micro-batch rows.
    ReplicaDropped {
        /// Stage that lost a replica.
        stage: usize,
        /// Replica the failures were attributed to.
        replica: usize,
        /// Replicas remaining on the stage.
        survivors: usize,
    },
    /// A checkpoint was serialized.
    CheckpointSaved {
        /// Serialized size.
        bytes: usize,
        /// Wall-clock serialization cost, ns.
        ns: u64,
    },
    /// A checkpoint was deserialized and installed.
    CheckpointLoaded {
        /// Wall-clock deserialization cost, ns.
        ns: u64,
    },
    /// The pipeline was migrated to a re-planned shape over the
    /// surviving devices: trainer torn down and rebuilt around the
    /// live state, training resumed at the same step and data cursor.
    Repartitioned {
        /// The shape being abandoned (degraded or exhausted).
        old_plan: Plan,
        /// The planner's shape for the survivors.
        new_plan: Plan,
        /// Wall-clock cost of the whole migration, µs.
        migration_us: u64,
    },
}

/// Aggregate view of a supervised run's recovery activity.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryMetrics {
    /// Retries across all steps.
    pub retries: usize,
    /// Rollbacks across all steps (one per failed attempt).
    pub rollbacks: usize,
    /// Replicas dropped into degraded mode.
    pub replica_drops: usize,
    /// Steps that failed at least once but eventually completed.
    pub recoveries: usize,
    /// Virtual backoff accumulated over the whole run, µs.
    pub total_backoff_us: u64,
    /// Mean virtual time to repair a failing step, µs (0 if none failed).
    pub mttr_virtual_us: f64,
    /// Checkpoints serialized.
    pub checkpoint_saves: usize,
    /// Total wall-clock serialization cost, ns.
    pub checkpoint_save_ns: u64,
    /// Total wall-clock deserialization cost, ns.
    pub checkpoint_load_ns: u64,
    /// Elastic repartitions (re-plan + migrate) performed.
    pub repartitions: usize,
    /// Total wall-clock migration cost, µs.
    pub migration_us: u64,
}

/// The replanner the supervisor calls with the surviving device ids; it
/// returns a plan over exactly those devices, or `None` when the
/// survivors are unplannable (the supervisor then stays degraded).
/// Usually backed by `dapple-planner` — see `dapple::elastic` in the
/// facade crate for the standard wiring.
pub type Replanner = Box<dyn FnMut(&[DeviceId]) -> Option<Plan> + Send>;

/// Elastic-recovery state: the device-level plan being executed, the
/// planner hook, and the migration schedule.
struct Elastic {
    /// The plan the current pipeline shape was derived from. Kept in
    /// device terms so failures can be attributed to physical devices.
    plan: Plan,
    /// Produces a plan for a surviving device subset.
    replanner: Replanner,
    /// Successful steps to run degraded before migrating (lets callers
    /// measure the degraded baseline; 0 migrates on the next step).
    observe_steps: u64,
    /// Countdown to a scheduled migration, if one is pending.
    pending: Option<u64>,
}

/// Wraps a [`TrainLoop`] with retry, degraded-mode, elastic-migration
/// and checkpoint policy. Faults are supplied per `(step, attempt)` by
/// the caller — deterministic injection in tests, [`FaultPlan::new`] in
/// production.
pub struct Supervisor {
    train: TrainLoop,
    policy: RetryPolicy,
    events: Vec<RecoveryEvent>,
    virtual_us: u64,
    checkpoint_every: Option<u64>,
    /// The most recent periodic save.
    checkpoint: Option<Vec<u8>>,
    /// The save before it, retired: the buffer, still mapped, that the
    /// next save is written into.
    spare: Vec<u8>,
    /// Set once the pipeline shape has changed (replica drop or elastic
    /// migration); enables fault-plan pruning.
    reconfigured: bool,
    /// Elastic recovery, when a plan + replanner are attached.
    elastic: Option<Elastic>,
    /// Recovery cost of the most recent step (folded into its
    /// [`StepMetrics`] when tracing is on).
    last_step_recovery: RecoveryStepMetrics,
}

impl Supervisor {
    /// Supervises a training loop under a retry policy.
    pub fn new(train: TrainLoop, policy: RetryPolicy) -> Self {
        Supervisor {
            train,
            policy,
            events: Vec::new(),
            virtual_us: 0,
            checkpoint_every: None,
            checkpoint: None,
            spare: Vec::new(),
            reconfigured: false,
            elastic: None,
            last_step_recovery: RecoveryStepMetrics::default(),
        }
    }

    /// Checkpoints (in memory) every `every` completed steps.
    pub fn with_checkpoint_every(mut self, every: u64) -> Self {
        self.checkpoint_every = Some(every.max(1));
        self
    }

    /// Attaches elastic recovery: `plan` is the device-level plan the
    /// loop's engine config was derived from (checked against it), and
    /// `replanner` produces a plan for a surviving device subset. After
    /// a replica drop the supervisor runs `observe_steps` successful
    /// steps degraded, then re-plans and migrates; a stage that exhausts
    /// retries with nothing left to drop migrates immediately.
    pub fn with_elastic<F>(mut self, plan: Plan, observe_steps: u64, replanner: F) -> Result<Self>
    where
        F: FnMut(&[DeviceId]) -> Option<Plan> + Send + 'static,
    {
        let cfg = self.train.config();
        let bounds: Vec<_> = plan.stages.iter().map(|s| s.layers.clone()).collect();
        let reps: Vec<_> = plan.stages.iter().map(|s| s.devices.len()).collect();
        if bounds != cfg.stage_bounds || reps != cfg.replication {
            return Err(DappleError::InvalidConfig(format!(
                "elastic plan {plan} does not match the engine config \
                 (stages {:?} x{:?})",
                cfg.stage_bounds, cfg.replication
            )));
        }
        self.elastic = Some(Elastic {
            plan,
            replanner: Box::new(replanner),
            observe_steps,
            pending: None,
        });
        Ok(self)
    }

    /// The device-level plan currently being executed (elastic mode
    /// only).
    pub fn current_plan(&self) -> Option<&Plan> {
        self.elastic.as_ref().map(|e| &e.plan)
    }

    /// The supervised loop.
    pub fn train(&self) -> &TrainLoop {
        &self.train
    }

    /// The recovery log, in order.
    pub fn events(&self) -> &[RecoveryEvent] {
        &self.events
    }

    /// The virtual clock, µs.
    pub fn virtual_now_us(&self) -> u64 {
        self.virtual_us
    }

    /// The most recent periodic save — empty before the first, one file
    /// after — resumable via [`TrainLoop::resume_chain`].
    pub fn checkpoint_chain(&self) -> &[Vec<u8>] {
        self.checkpoint.as_slice()
    }

    /// Consumes the supervisor, returning the loop.
    pub fn into_train(self) -> TrainLoop {
        self.train
    }

    /// One supervised step. `faults(step, attempt)` supplies the plan
    /// for each attempt; attempts reset when a replica is dropped (the
    /// new configuration gets a fresh budget). Injection points aimed at
    /// replicas that no longer exist are pruned — the failed hardware
    /// took its faults with it.
    pub fn step_with<F>(&mut self, faults: &mut F) -> Result<StepStats>
    where
        F: FnMut(u64, usize) -> FaultPlan,
    {
        let step = self.train.step();
        self.last_step_recovery = RecoveryStepMetrics::default();
        let mut attempt = 0usize;
        let mut total_attempts = 0usize;
        loop {
            total_attempts += 1;
            let plan = self.prune_invalid(faults(step, attempt));
            match self.train.try_step(&plan) {
                Ok(stats) => {
                    if total_attempts > 1 {
                        self.events.push(RecoveryEvent {
                            step,
                            virtual_us: self.virtual_us,
                            kind: RecoveryEventKind::Recovered {
                                attempts: total_attempts,
                            },
                        });
                    }
                    self.maybe_checkpoint();
                    // A scheduled elastic migration lands once its
                    // observation window of degraded steps has elapsed.
                    let mut due = false;
                    if let Some(el) = &mut self.elastic {
                        if let Some(rem) = el.pending {
                            if rem == 0 {
                                el.pending = None;
                                due = true;
                            } else {
                                el.pending = Some(rem - 1);
                            }
                        }
                    }
                    if due {
                        self.migrate(step, None)?;
                    }
                    return Ok(stats);
                }
                Err(e) => {
                    let rollback_ns = self.train.last_rollback_ns();
                    self.last_step_recovery.retries += 1;
                    self.last_step_recovery.rollback_ns += rollback_ns;
                    self.events.push(RecoveryEvent {
                        step,
                        virtual_us: self.virtual_us,
                        kind: RecoveryEventKind::Rollback { ns: rollback_ns },
                    });
                    if RetryPolicy::classify(&e) == FaultClass::Fatal {
                        return Err(DappleError::FatalFault {
                            step,
                            source: Box::new(e),
                        });
                    }
                    attempt += 1;
                    if attempt >= self.policy.max_attempts {
                        // Retry budget exhausted for this configuration:
                        // drop the sick replica if its stage has another.
                        let (stage, replica) = error_coords(&e).unwrap_or((0, 0));
                        if self.drop_replica(step, stage, replica)? {
                            attempt = 0;
                            continue;
                        }
                        // Nothing left to drop on that stage: escalate
                        // straight to a re-plan over the survivors.
                        let lost = self.device_at(stage, replica);
                        if lost.is_some() && self.migrate(step, lost)? {
                            attempt = 0;
                            continue;
                        }
                        return Err(DappleError::RetriesExhausted {
                            stage,
                            replica,
                            step,
                            attempts: total_attempts,
                            last: Box::new(e),
                        });
                    }
                    let backoff = self.policy.backoff_us(attempt);
                    self.virtual_us += backoff;
                    self.events.push(RecoveryEvent {
                        step,
                        virtual_us: self.virtual_us,
                        kind: RecoveryEventKind::Retry {
                            attempt,
                            error: e,
                            backoff_us: backoff,
                        },
                    });
                }
            }
        }
    }

    /// Runs `steps` supervised steps; returns the loss trajectory.
    pub fn run<F>(&mut self, steps: u64, mut faults: F) -> Result<Vec<f32>>
    where
        F: FnMut(u64, usize) -> FaultPlan,
    {
        (0..steps)
            .map(|_| Ok(self.step_with(&mut faults)?.loss))
            .collect()
    }

    /// Restores the *state* of the most recent in-memory checkpoint into
    /// the loop's current shape and records the load latency. The live
    /// partition wins over the checkpointed one: a replica dropped or a
    /// device migrated away from since the save stays gone. Errors if no
    /// checkpoint was taken.
    pub fn restore_last_checkpoint(&mut self) -> Result<()> {
        let Some(bytes) = &self.checkpoint else {
            return Err(DappleError::InvalidConfig(
                "no checkpoint taken by this supervisor".into(),
            ));
        };
        let cfg = self.train.config().clone();
        let t0 = Instant::now();
        let (state, _) = checkpoint::from_bytes(bytes)?;
        let mut restored = TrainLoop::from_state(state, cfg)?;
        let ns = t0.elapsed().as_nanos() as u64;
        let step = restored.step();
        // The recorder (and its open run log) survives the restore with
        // the charges still pending for its next line: they belong to the
        // run, not to the training state.
        restored.recorder = self.train.recorder.take();
        restored.pending_recovery = self.train.pending_recovery;
        self.train = restored;
        self.train.charge_checkpoint_ns(0, ns);
        self.last_step_recovery.checkpoint_load_ns += ns;
        self.events.push(RecoveryEvent {
            step,
            virtual_us: self.virtual_us,
            kind: RecoveryEventKind::CheckpointLoaded { ns },
        });
        Ok(())
    }

    /// The most recent step's metrics with recovery costs folded in
    /// (`None` unless [`EngineConfig::tracing`] is on).
    pub fn last_step_metrics(&self) -> Option<StepMetrics> {
        self.train.last_trace().map(|t| {
            let mut m = t.metrics();
            m.recovery = self.last_step_recovery;
            m
        })
    }

    /// Aggregates the event log.
    pub fn metrics(&self) -> RecoveryMetrics {
        let mut m = RecoveryMetrics::default();
        for e in &self.events {
            match &e.kind {
                RecoveryEventKind::Rollback { .. } => m.rollbacks += 1,
                RecoveryEventKind::Retry { backoff_us, .. } => {
                    m.retries += 1;
                    m.total_backoff_us += backoff_us;
                }
                RecoveryEventKind::Recovered { .. } => m.recoveries += 1,
                RecoveryEventKind::ReplicaDropped { .. } => m.replica_drops += 1,
                RecoveryEventKind::CheckpointSaved { ns, .. } => {
                    m.checkpoint_saves += 1;
                    m.checkpoint_save_ns += ns;
                }
                RecoveryEventKind::CheckpointLoaded { ns } => m.checkpoint_load_ns += ns,
                RecoveryEventKind::Repartitioned { migration_us, .. } => {
                    m.repartitions += 1;
                    m.migration_us += migration_us;
                }
            }
        }
        if m.recoveries > 0 {
            m.mttr_virtual_us = m.total_backoff_us as f64 / m.recoveries as f64;
        }
        m
    }

    /// Renders the event log as a JSON array (CI artifact / bench).
    pub fn events_json(&self) -> String {
        let mut s = String::new();
        let mut log = Array::new(&mut s).spaced().rows();
        for e in &self.events {
            log = log.object(|o| {
                let o = o.u64("step", e.step).u64("virtual_us", e.virtual_us);
                match &e.kind {
                    RecoveryEventKind::Rollback { ns } => o.str("kind", "rollback").u64("ns", *ns),
                    RecoveryEventKind::Retry {
                        attempt,
                        error,
                        backoff_us,
                    } => o
                        .str("kind", "retry")
                        .u64("attempt", *attempt as u64)
                        .u64("backoff_us", *backoff_us)
                        .str("error", &error.to_string()),
                    RecoveryEventKind::Recovered { attempts } => {
                        o.str("kind", "recovered").u64("attempts", *attempts as u64)
                    }
                    RecoveryEventKind::ReplicaDropped {
                        stage,
                        replica,
                        survivors,
                    } => o
                        .str("kind", "replica_dropped")
                        .u64("stage", *stage as u64)
                        .u64("replica", *replica as u64)
                        .u64("survivors", *survivors as u64),
                    RecoveryEventKind::CheckpointSaved { bytes, ns } => o
                        .str("kind", "checkpoint_saved")
                        .u64("bytes", *bytes as u64)
                        .u64("ns", *ns),
                    RecoveryEventKind::CheckpointLoaded { ns } => {
                        o.str("kind", "checkpoint_loaded").u64("ns", *ns)
                    }
                    RecoveryEventKind::Repartitioned {
                        old_plan,
                        new_plan,
                        migration_us,
                    } => o
                        .str("kind", "repartitioned")
                        .str("old_plan", &old_plan.to_string())
                        .str("new_plan", &new_plan.to_string())
                        .u64("migration_us", *migration_us),
                }
            });
        }
        log.end();
        s.push('\n');
        s
    }

    /// Serializes a checkpoint if one is due at the current step. It is
    /// written into the spare buffer *before* the previous save is retired
    /// into the spare: the supervisor never holds no resumable checkpoint,
    /// and in steady state holds two buffers it never unmaps.
    fn maybe_checkpoint(&mut self) {
        let due = |every| self.train.step().is_multiple_of(every);
        if !self.checkpoint_every.is_some_and(due) {
            return;
        }
        let t0 = Instant::now();
        let mut bytes = std::mem::take(&mut self.spare);
        checkpoint::write_into(&mut bytes, self.train.state_view(), &self.train.partition());
        let ns = t0.elapsed().as_nanos() as u64;
        self.train.charge_checkpoint_ns(ns, 0);
        self.last_step_recovery.checkpoint_save_ns += ns;
        self.events.push(RecoveryEvent {
            step: self.train.step(),
            virtual_us: self.virtual_us,
            kind: RecoveryEventKind::CheckpointSaved {
                bytes: bytes.len(),
                ns,
            },
        });
        self.spare = self.checkpoint.replace(bytes).unwrap_or_default();
    }

    /// Degrades `stage` by dropping one replica; the survivors re-shard
    /// the micro-batch rows (unevenly when the row count does not divide
    /// — the engine hands the first `rows % r` replicas one extra row).
    /// Returns `false` when the stage is already down to a single
    /// replica. In elastic mode the dropped device is retired from the
    /// plan and a migration is scheduled after the observation window.
    fn drop_replica(&mut self, step: u64, stage: usize, replica: usize) -> Result<bool> {
        let cfg = self.train.config();
        let Some(&r) = cfg.replication.get(stage) else {
            return Ok(false);
        };
        if r <= 1 {
            return Ok(false);
        }
        let survivors = r - 1;
        let mut cfg = cfg.clone();
        cfg.replication[stage] = survivors;
        self.train.reconfigure(cfg)?;
        self.reconfigured = true;
        self.events.push(RecoveryEvent {
            step,
            virtual_us: self.virtual_us,
            kind: RecoveryEventKind::ReplicaDropped {
                stage,
                replica,
                survivors,
            },
        });
        if let Some(el) = &mut self.elastic {
            if let Some(lost) = el
                .plan
                .stages
                .get(stage)
                .and_then(|s| s.devices.get(replica).or_else(|| s.devices.last()).copied())
            {
                if let Some(degraded_plan) = el.plan.without_device(lost) {
                    el.plan = degraded_plan;
                }
            }
            el.pending = Some(el.observe_steps);
        }
        Ok(true)
    }

    /// The physical device behind `(stage, replica)` under the elastic
    /// plan, if elastic mode is on and the coordinates resolve.
    fn device_at(&self, stage: usize, replica: usize) -> Option<DeviceId> {
        let el = self.elastic.as_ref()?;
        let stage = el.plan.stages.get(stage)?;
        stage
            .devices
            .get(replica)
            .or_else(|| stage.devices.last())
            .copied()
    }

    /// Re-plans over the surviving devices (minus `lost`, if any) and
    /// migrates the loop to the new shape: the trainer is torn down and
    /// rebuilt around the live model, so step, data cursor, weights and
    /// optimizer moments are the same objects. Returns `false` when elastic
    /// mode is off, no survivors remain, or the replanner declines (the
    /// run then stays in its current — possibly degraded — shape).
    fn migrate(&mut self, step: u64, lost: Option<DeviceId>) -> Result<bool> {
        let Some(el) = &mut self.elastic else {
            return Ok(false);
        };
        let mut survivors = el.plan.devices();
        if let Some(d) = lost {
            survivors.retain(|&x| x != d);
        }
        if survivors.is_empty() {
            return Ok(false);
        }
        let Some(new_plan) = (el.replanner)(&survivors) else {
            el.pending = None;
            return Ok(false);
        };
        for d in new_plan.devices() {
            if !survivors.contains(&d) {
                return Err(DappleError::InvalidConfig(format!(
                    "replanner placed work on non-surviving device {d}"
                )));
            }
        }
        let old_plan = el.plan.clone();
        let t0 = Instant::now();
        let cfg = self.train.config().apply_plan(&new_plan);
        self.train.reconfigure(cfg)?;
        let ns = t0.elapsed().as_nanos() as u64;
        let migration_us = ns.div_ceil(1_000);
        self.train.charge_migration_ns(ns);
        self.last_step_recovery.migration_ns += ns;
        self.reconfigured = true;
        self.virtual_us += migration_us;
        self.events.push(RecoveryEvent {
            step,
            virtual_us: self.virtual_us,
            kind: RecoveryEventKind::Repartitioned {
                old_plan,
                new_plan: new_plan.clone(),
                migration_us,
            },
        });
        let el = self.elastic.as_mut().expect("still elastic");
        el.plan = new_plan;
        el.pending = None;
        Ok(true)
    }

    /// Drops injection points that no longer validate against the
    /// current configuration. Only active once the pipeline shape has
    /// actually changed (replica drop or elastic migration) — before
    /// that, an invalid plan is a caller bug and must surface as
    /// [`DappleError::InvalidConfig`], not be silently swallowed. After
    /// a change it is the right semantics: the failed hardware took its
    /// faults with it.
    fn prune_invalid(&self, plan: FaultPlan) -> FaultPlan {
        if !self.reconfigured || plan.is_empty() || plan.validate(self.train.config()).is_ok() {
            return plan;
        }
        let mut pruned = FaultPlan::new();
        for (&(stage, replica, step), &kind) in plan.iter() {
            let candidate = pruned.clone().with_fault(stage, replica, step, kind);
            if candidate.validate(self.train.config()).is_ok() {
                pruned = candidate;
            }
        }
        pruned
    }
}

/// The (stage, replica) a runtime error is attributed to.
fn error_coords(e: &DappleError) -> Option<(usize, usize)> {
    match e {
        DappleError::Stalled { stage, replica, .. }
        | DappleError::WorkerPanicked { stage, replica, .. }
        | DappleError::NonFinite { stage, replica, .. }
        | DappleError::ChannelProtocol { stage, replica, .. }
        | DappleError::ChannelClosed { stage, replica, .. } => Some((*stage, *replica)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;

    const DIMS: [usize; 7] = [5, 12, 10, 8, 8, 4, 3];

    fn mk_loop(opt: fn(&MlpModel) -> Optimizer) -> TrainLoop {
        let model = MlpModel::new(&DIMS, 77);
        let optimizer = opt(&model);
        let cfg = EngineConfig::straight(vec![0..2, 2..4, 4..6], 4, 0.1);
        let stream = DataStream::new(9, 24, 5, 3);
        TrainLoop::new(model, cfg, optimizer, stream).unwrap()
    }

    #[test]
    fn data_stream_is_deterministic_and_cursor_addressable() {
        let mut a = DataStream::new(7, 8, 3, 2);
        let mut b = DataStream::new(7, 8, 3, 2);
        let (xa, ta) = a.next_batch();
        let (xb, tb) = b.next_batch();
        assert_eq!(xa, xb);
        assert_eq!(ta, tb);
        let (xa2, _) = a.next_batch();
        assert_ne!(xa, xa2, "successive batches must differ");
        // Jumping the cursor reproduces the same batch sequence.
        let mut c = DataStream::new(7, 8, 3, 2);
        c.cursor = 1;
        let (xc, _) = c.next_batch();
        assert_eq!(xa2, xc);
        assert_eq!(c.cursor(), 2);
    }

    #[test]
    fn backoff_is_deterministic_and_exponential() {
        let p = RetryPolicy {
            max_attempts: 5,
            base_backoff_us: 100,
        };
        assert_eq!(p.backoff_us(1), 100);
        assert_eq!(p.backoff_us(2), 200);
        assert_eq!(p.backoff_us(3), 400);
        // Saturates instead of overflowing.
        let big = RetryPolicy {
            max_attempts: 5,
            base_backoff_us: u64::MAX / 2,
        };
        assert_eq!(big.backoff_us(50), u64::MAX);
    }

    #[test]
    fn classification_splits_transient_from_structural() {
        let retryable = [
            DappleError::Stalled {
                stage: 0,
                replica: 0,
                step: 0,
            },
            DappleError::WorkerPanicked {
                stage: 0,
                replica: 0,
                message: "x".into(),
            },
            DappleError::NonFinite {
                stage: 0,
                replica: 0,
                micro: 0,
            },
            DappleError::ChannelProtocol {
                stage: 0,
                replica: 0,
                detail: "x".into(),
            },
            DappleError::ChannelClosed {
                stage: 0,
                replica: 0,
                step: 0,
            },
        ];
        for e in retryable {
            assert_eq!(RetryPolicy::classify(&e), FaultClass::Retryable, "{e}");
        }
        assert_eq!(
            RetryPolicy::classify(&DappleError::InvalidConfig("x".into())),
            FaultClass::Fatal
        );
    }

    #[test]
    fn supervisor_survives_transient_fault_and_records_it() {
        let mut sup = Supervisor::new(mk_loop(|_| Optimizer::sgd(0.1)), RetryPolicy::default());
        // Fault fires on the first attempt of step 1 only.
        let mut faults = |step: u64, attempt: usize| {
            if step == 1 && attempt == 0 {
                FaultPlan::new().with_fault(0, 0, 0, FaultKind::Panic)
            } else {
                FaultPlan::new()
            }
        };
        let losses = sup.run(3, &mut faults).unwrap();
        assert_eq!(losses.len(), 3);
        let m = sup.metrics();
        assert_eq!(m.retries, 1);
        assert_eq!(m.rollbacks, 1);
        assert_eq!(m.recoveries, 1);
        assert!(m.mttr_virtual_us > 0.0);
        assert_eq!(sup.virtual_now_us(), sup.metrics().total_backoff_us);
        // Transparent: identical to a never-faulted run.
        let mut clean = Supervisor::new(mk_loop(|_| Optimizer::sgd(0.1)), RetryPolicy::default());
        let clean_losses = clean.run(3, &mut |_, _| FaultPlan::new()).unwrap();
        for (a, b) in losses.iter().zip(&clean_losses) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(sup.train().model(), clean.train().model());
    }

    #[test]
    fn supervisor_fails_fatal_errors_without_retry() {
        let mut sup = Supervisor::new(mk_loop(|_| Optimizer::sgd(0.1)), RetryPolicy::default());
        // An out-of-bounds plan is rejected as InvalidConfig -> fatal.
        let mut faults = |_: u64, _: usize| FaultPlan::new().with_fault(9, 0, 0, FaultKind::Panic);
        match sup.step_with(&mut faults) {
            Err(DappleError::FatalFault { step, source }) => {
                assert_eq!(step, 0);
                assert!(matches!(*source, DappleError::InvalidConfig(_)));
            }
            other => panic!("expected FatalFault, got {other:?}"),
        }
        assert_eq!(sup.metrics().retries, 0);
    }

    #[test]
    fn exhausted_retries_on_straight_pipeline_carry_coordinates() {
        let policy = RetryPolicy {
            max_attempts: 2,
            base_backoff_us: 10,
        };
        let mut sup = Supervisor::new(mk_loop(|_| Optimizer::sgd(0.1)), policy);
        let mut faults = |_: u64, _: usize| FaultPlan::new().with_fault(1, 0, 2, FaultKind::Panic);
        match sup.step_with(&mut faults) {
            Err(DappleError::RetriesExhausted {
                stage,
                replica,
                step,
                attempts,
                last,
            }) => {
                assert_eq!((stage, replica, step), (1, 0, 0));
                assert_eq!(attempts, 2);
                assert!(matches!(*last, DappleError::WorkerPanicked { .. }));
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
    }

    #[test]
    fn events_json_is_well_formed() {
        let mut sup = Supervisor::new(mk_loop(|_| Optimizer::sgd(0.1)), RetryPolicy::default())
            .with_checkpoint_every(1);
        let mut faults = |step: u64, attempt: usize| {
            if step == 0 && attempt == 0 {
                FaultPlan::new().with_fault(2, 0, 1, FaultKind::NanGradient)
            } else {
                FaultPlan::new()
            }
        };
        sup.run(2, &mut faults).unwrap();
        sup.restore_last_checkpoint().unwrap();
        let json = dapple_core::json::parse_json(&sup.events_json()).unwrap();
        let dapple_core::json::Json::Arr(events) = &json else {
            panic!("the log is an array: {json:?}");
        };
        let kind = |e: &dapple_core::json::Json| e.get("kind")?.as_str().map(str::to_string);
        let kinds: Vec<String> = events.iter().filter_map(kind).collect();
        assert_eq!(kinds.len(), events.len());
        for k in [
            "retry",
            "rollback",
            "recovered",
            "checkpoint_saved",
            "checkpoint_loaded",
        ] {
            assert!(
                kinds.iter().any(|have| have == k),
                "{k} missing from {kinds:?}"
            );
        }
    }
}
