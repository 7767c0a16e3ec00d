//! The multi-threaded pipeline trainer.
//!
//! Each stage replica is a *worker*, and the workers run on the host's
//! cores, on the kernels' pool threads (see "Placement"), each worker
//! with one inbox per step. Each worker
//! executes exactly the deterministic step order that the simulator models
//! ([`dapple_sim::schedule::stage_order`]): warmup forwards, strict 1F1B
//! interleaving (or GPipe's all-forwards-first), then the backward drain.
//! Activations and activation-gradients flow as real tensors; replicated
//! stages split/concat micro-batches by rows (Fig. 8a / Fig. 9); per-stage
//! gradients accumulate across micro-batches and are synchronized before a
//! single optimizer apply (Fig. 10) — synchronous semantics,
//! bit-compatible with full-batch training up to float reassociation.
//!
//! # Placement
//!
//! DAPPLE places stages on devices (§IV); here a device is a core. Once
//! per shape (at construction and on a reconfiguration;
//! [`PipelineTrainer::threads`]) the trainer spreads its workers over
//! `T = min(workers, rayon::current_num_threads())` threads — the kernel
//! pool's size, the one reading of the host — longest job first by
//! multiply-adds. Each worker is a lane of
//! [`dapple_sim::list::step_lanes`], the simulator's builder, on its
//! thread: its script steps, then its sync op (leftover check, gradient
//! sync). Each thread runs the order [`dapple_sim::list::list_schedule`]
//! gives it. A step cannot deadlock: those orders interleave into one
//! order in which every op follows what it waits for, and inboxes are
//! unbounded, so the earliest op of it not yet run has its thread at it
//! and its inputs in its inbox. With at least as many cores as workers,
//! each thread holds one worker and runs its script.
//!
//! A step is one [`rayon::round`]: the calling thread runs thread 0's
//! order, and threads `1..T` are idle helpers of the kernels' pool, each
//! handed its thread's order. So the step threads and the kernel helpers
//! are one set of threads, at most one per core, and a step starts no
//! thread once the pool has its helpers (`T = 1` uses none). A worker
//! whose inbox lacks what its op needs waits as every pool thread does
//! ([`rayon::wait_until`]): it runs bands of any posted kernel job — of
//! any stage — then spins briefly, then parks until mail for it, a new
//! job or its deadline wakes it. A message that arrives while its thread
//! is inside a band waits for that band to end.
//!
//! A step has one entry point, [`PipelineTrainer::step_with_trace`]
//! ([`PipelineTrainer::step_grads`] is its clean-plan convenience). It
//! computes gradients and never touches the weights; an optimizer is
//! applied by the caller — in the library, only by
//! [`crate::recovery::TrainLoop::try_step`].
//!
//! # A layer costs its three products
//!
//! Per micro-batch a `Dense` layer is `x W`, `x^T dz` and `dz W^T`, and
//! every other pass over something weight- or activation-sized rides in
//! one of them. A layer stores `W` and `W^T` as the panels the `nn` tiles
//! stream ([`crate::tensor::PackedRhs`]), and the optimizer rebuilds
//! `W^T` right after it updates `W`, so a step reads its weights only to
//! multiply by them: there is no prelude, and every worker — a
//! replicated stage's replicas alike — streams the model's own panels
//! read-only. Bias and activation are the forward product's per-band
//! epilogue; and the `dW` kernel's epilogue adds each finished chain
//! straight into the step's accumulator, in `W`'s panel layout, testing
//! it for finiteness in its register on the way — no contribution
//! buffer, no counting pass, no merging pass. All of it is layout and scheduling: no chain and no
//! rounding differs from the allocate-per-tensor reference in
//! `tests/determinism.rs`.
//!
//! # Gradient sync
//!
//! Gradients stay in the buffers the backward kernels added them to.
//! Every worker accumulates into persistent buffers the trainer owns
//! ([`PipelineTrainer`]'s gradient slots, re-zeroed at step start). When
//! a replicated stage's last backward retires, its replicas `1..r` post
//! their accumulators to replica 0's inbox and replica 0 sums
//! them in place with [`dapple_collectives::reduce_sum_in_place`] — the
//! ring AllReduce's per-chunk rank order over the stage's `dW‖db`
//! concatenation, so the bits are the ring's (pinned by
//! `tests/determinism.rs`) — while earlier stages are still in their
//! backward tail. Replica 0's accumulators then *move* into
//! [`StepOutcome::grads`] and return to their slots when the caller
//! drops the outcome: no flatten, no copy, no per-step allocation that
//! scales with the model.
//!
//! # Failure semantics
//!
//! Workers return `Result` instead of unwinding into the coordinator —
//! the calling thread, which runs thread 0 and then gathers every
//! thread's reports: a panic in any op is caught and reported as
//! [`DappleError::WorkerPanicked`], and non-finite gradient values are
//! counted per micro-batch as the kernels add them (as zeros): a
//! micro-batch whose loss or count is not clean fails the step as
//! [`DappleError::NonFinite`], so a step that succeeds carries exactly
//! the batch's gradient. A malformed weight never reaches a step: a layer
//! is built only from a well-formed one ([`Dense::from_weights`]).
//!
//! Each worker has one inbox, created with the step. It carries boundary
//! rows keyed by `(backward, micro)`, a peer's accumulators to its
//! stage's replica 0, and the stop; a worker holds whatever arrives
//! before its script asks for it. Its one wait, on the inbox, is bounded
//! by [`EngineConfig::recv_timeout`]: a stall surfaces as
//! [`DappleError::Stalled`], never a hang. The coordinator keeps every
//! inbox for the whole step, and the thread of a failed op posts
//! the stop to every inbox, so a worker waiting anywhere leaves at once
//! as [`DappleError::ChannelClosed`] at its op; the thread's other
//! workers are reported closed at the op they did not reach. Of several
//! errors the coordinator reports the most causally specific: panic over
//! non-finite over protocol violation over stall over closed channel,
//! ties to the earliest worker, so the step names its root cause. The
//! model is untouched on any failure, so the trainer stays usable for
//! the next step.
//!
//! A step ends when every thread has run its order, and a worker that
//! has run its script waits for no neighbour. Rows sent beyond the
//! schedule (e.g. an injected duplicate) are one error,
//! [`DappleError::ChannelProtocol`]'s "trailing message", wherever they
//! are found: at a receive that holds more rows than it takes, or after
//! the round, when the coordinator drains the inbox of a worker that
//! completed its script (`Inbox::take`) and reports the lowest `(backward,
//! micro)` left, so arrival order does not decide the error. A panic
//! outside any op (a bug in the step's own bookkeeping) is re-raised on
//! the calling thread once every thread has finished; the pool's threads
//! survive it.
//!
//! A [`FaultKind::Stall`] delays its whole thread: every worker placed
//! there waits with it, a worker on another thread observes it as
//! [`DappleError::Stalled`], and when every worker shares one thread a
//! stall is just a slow step.

use crate::fault::{FaultKind, FaultPlan};
use crate::layer::{Dense, DenseGrads};
use crate::loss::{loss_grad_into, LossKind};
use crate::model::MlpModel;
use crate::tensor::Tensor;
use crate::trace::{CoordSpan, Span, SpanKind, SpanLog, StepTrace, WorkerTrace, NO_MICRO};
use dapple_core::{DappleError, Plan, Result};
use dapple_sim::list::{list_schedule, step_lanes, Lane};
use dapple_sim::schedule::{stage_order, Step};
use dapple_sim::Schedule;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Configuration of a pipeline training run.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Contiguous layer ranges, one per stage, covering the whole model.
    pub stage_bounds: Vec<Range<usize>>,
    /// Replicas per stage (data parallelism within a stage).
    pub replication: Vec<usize>,
    /// Pipeline schedule (GPipe or DAPPLE with PA/PB warmup).
    pub schedule: Schedule,
    /// Micro-batches per global batch.
    pub micro_batches: usize,
    /// Re-compute activations during backward instead of storing them.
    pub recompute: bool,
    /// Never read by the engine: learning rates live in
    /// [`crate::optim::Optimizer`]. Kept because [`Self::straight`] and
    /// [`Self::from_plan`] take it positionally.
    pub lr: f32,
    /// Memory bound `D` on in-flight micro-batches per stage.
    pub max_in_flight: usize,
    /// Loss optimized by the last stage.
    pub loss: LossKind,
    /// Upper bound on a worker's one wait, on its inbox: for a boundary
    /// receive's rows or, on a replicated stage's replica 0, its peers'
    /// gradients. On a shape whose every product runs inline the wait
    /// first polls the inbox for ~30 µs, then blocks for the rest of the
    /// bound (module docs, "Placement"). A worker blocked longer reports
    /// [`DappleError::Stalled`] instead of hanging; a failed op elsewhere
    /// ends the wait at once.
    pub recv_timeout: Duration,
    /// Record per-worker span traces ([`StepTrace`]) during the step.
    /// Off by default: with tracing off the hot path takes no timestamps
    /// and performs no extra allocations (asserted in
    /// tests/alloc_counts.rs); with it on, each worker writes into its own
    /// pre-sized [`SpanLog`].
    pub tracing: bool,
}

impl EngineConfig {
    /// A straight pipeline (no replication) with DAPPLE-PA scheduling.
    pub fn straight(stage_bounds: Vec<Range<usize>>, micro_batches: usize, lr: f32) -> Self {
        let n = stage_bounds.len();
        EngineConfig {
            stage_bounds,
            replication: vec![1; n],
            schedule: Schedule::Dapple(dapple_sim::KPolicy::PA),
            micro_batches,
            recompute: false,
            lr,
            max_in_flight: usize::MAX,
            loss: LossKind::Mse,
            recv_timeout: Duration::from_secs(5),
            tracing: false,
        }
    }

    /// An engine config executing a planner [`Plan`]: stage bounds are
    /// the plan's layer ranges, replication its per-stage device counts.
    /// Everything else takes the [`EngineConfig::straight`] defaults.
    pub fn from_plan(plan: &Plan, micro_batches: usize, lr: f32) -> Self {
        EngineConfig::straight(Vec::new(), micro_batches, lr).apply_plan(plan)
    }

    /// This config re-shaped to `plan`: stage bounds and replication are
    /// replaced, every other knob (schedule, micro-batches, timeouts,
    /// tracing, ...) is preserved. This is the migration primitive of
    /// elastic recovery — the supervisor re-plans, then rebuilds the
    /// trainer with `cfg.apply_plan(&new_plan)`.
    pub fn apply_plan(&self, plan: &Plan) -> Self {
        let mut cfg = self.clone();
        cfg.stage_bounds = plan.stages.iter().map(|s| s.layers.clone()).collect();
        cfg.replication = plan.stages.iter().map(|s| s.devices.len()).collect();
        cfg
    }

    /// Whether this config can drive a model of `num_layers` layers.
    fn check(&self, num_layers: usize) -> Result<()> {
        if self.stage_bounds.is_empty() || self.stage_bounds.len() != self.replication.len() {
            return Err(DappleError::InvalidConfig(
                "stage bounds and replication must align and be non-empty".into(),
            ));
        }
        let mut next = 0usize;
        for (i, r) in self.stage_bounds.iter().enumerate() {
            if r.start != next || r.is_empty() {
                return Err(DappleError::InvalidConfig(format!(
                    "stage {i} range {r:?} not contiguous from {next}"
                )));
            }
            if self.replication[i] == 0 {
                return Err(DappleError::InvalidConfig(format!(
                    "stage {i} has 0 replicas"
                )));
            }
            next = r.end;
        }
        if next != num_layers {
            return Err(DappleError::InvalidConfig(format!(
                "stages cover {next} layers, model has {num_layers}"
            )));
        }
        if self.micro_batches == 0 {
            return Err(DappleError::InvalidConfig(
                "need at least one micro-batch".into(),
            ));
        }
        if self.recv_timeout.is_zero() {
            return Err(DappleError::InvalidConfig(
                "recv_timeout must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// A message crossing a stage boundary: rows `row0..row0 + data.rows` of
/// micro-batch `micro`, forward or (`backward`) back (row indices are
/// micro-batch local).
struct Msg {
    backward: bool,
    micro: usize,
    row0: usize,
    data: Tensor,
}

/// What a worker's inbox carries besides the stop (`None`).
enum Mail {
    Rows(Msg),
    /// A peer's `(replica, accumulators)`, to its stage's replica 0.
    Grads(usize, Vec<DenseGrads>),
}

/// A worker's inbox: its mail in arrival order (`None` is the stop), and
/// the thread that reads it, which every post unparks.
#[derive(Default)]
struct Inbox(Mutex<(VecDeque<Option<Mail>>, Option<Thread>)>);

impl Inbox {
    fn post(&self, mail: Option<Mail>) {
        let mut inbox = lock(&self.0);
        inbox.0.push_back(mail);
        if let Some(reader) = &inbox.1 {
            reader.unpark();
        }
    }

    /// The oldest mail, if any; the calling thread becomes the reader.
    fn take(&self) -> Option<Option<Mail>> {
        let mut inbox = lock(&self.0);
        inbox.1.get_or_insert_with(std::thread::current);
        inbox.0.pop_front()
    }
}

/// Mail a worker's inbox delivered before its script asked for it.
#[derive(Default)]
struct Arrived {
    /// Boundary parts by `(backward, micro)`.
    rows: HashMap<(bool, usize), Vec<Msg>>,
    /// Peers' accumulators, on a replicated stage's replica 0.
    grads: Vec<(usize, Vec<DenseGrads>)>,
}

impl Arrived {
    fn file(&mut self, mail: Mail) {
        match mail {
            Mail::Rows(msg) => (self.rows.entry((msg.backward, msg.micro)))
                .or_default()
                .push(msg),
            Mail::Grads(replica, bufs) => self.grads.push((replica, bufs)),
        }
    }
}

/// Rows of micro-batch `micro`, forward or (`backward`) back, that
/// worker `(stage, replica)` received beyond its schedule.
fn trailing(stage: usize, replica: usize, (backward, micro): (bool, usize)) -> DappleError {
    let side = if backward { "backward" } else { "forward" };
    DappleError::ChannelProtocol {
        stage,
        replica,
        detail: format!("trailing message: {side} rows of micro-batch {micro} beyond the schedule"),
    }
}

/// Per-worker output.
struct WorkerOut {
    stage: usize,
    replica: usize,
    /// The worker's inbox and what it filed but never took, for the
    /// calling thread to check once every thread has run its order.
    inbox: Arc<Inbox>,
    arrived: Arrived,
    /// The stage's synchronized gradients on replica 0 (moved out of its
    /// slot); empty on every other replica.
    grads: Vec<DenseGrads>,
    /// The replica reduce, timed on the step clock (replica 0 of a
    /// replicated stage, tracing on).
    sync: Option<Span>,
    loss: f32,
    /// Buffer-pool hits (boundary buffers served from the free list).
    pool_hits: usize,
    /// Buffer-pool misses (fresh allocations).
    pool_misses: usize,
}

impl WorkerOut {
    /// This output, unless rows are left in the worker's inbox or among
    /// what it filed. Called after every thread has run its order, so
    /// nothing can arrive later and nothing is waited for: what is there
    /// was sent beyond the schedule (e.g. an injected duplicate).
    fn nothing_trailing(mut self) -> Result<WorkerOut> {
        while let Some(mail) = self.inbox.take() {
            mail.into_iter().for_each(|mail| self.arrived.file(mail));
        }
        match self.arrived.rows.keys().min() {
            Some(&key) => Err(trailing(self.stage, self.replica, key)),
            None => Ok(self),
        }
    }
}

/// The result of one pipelined gradient computation.
#[derive(Debug)]
pub struct StepOutcome {
    /// Total loss over the global batch.
    pub loss: f32,
    /// Per-layer gradients, directly comparable with
    /// [`MlpModel::reference_grads`].
    pub grads: StepGrads,
    /// Buffers served from the per-worker free lists, summed over all
    /// workers.
    pub pool_hits: usize,
    /// Buffers that had to be freshly allocated, summed over all workers.
    /// Steady-state 1F1B misses only during pipeline warmup — the count is
    /// independent of the number of micro-batches (asserted in
    /// tests/alloc_counts.rs).
    pub pool_misses: usize,
}

/// Where a trainer's gradient buffers live between steps. Shared by the
/// trainer and every [`StepGrads`] it has handed out, so gradients can
/// find their way back without borrowing the trainer.
struct GradHome {
    /// One slot per stage replica, in spawn order: the worker's step
    /// accumulator over micro-batches, one [`DenseGrads`] per layer of its
    /// stage (empty until the first step, or after the buffers left with
    /// a caller). The backward kernels' epilogues add every micro-batch's
    /// `dW`/`db` straight into it, testing each value for finiteness on
    /// the way.
    slots: Vec<Mutex<Vec<DenseGrads>>>,
    /// Per stage: the slot of its replica 0 and its layer count.
    stages: Vec<(usize, usize)>,
}

/// Locks a buffer slot, clearing the poison a panicked worker left: the
/// buffers behind these locks are replaced whole or re-initialized at
/// step start, so no state a panic interrupts is ever read.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A step's per-layer gradients: the stage accumulators themselves, on
/// loan from the trainer. Reads as a `[DenseGrads]`; dropping it returns
/// the buffers for the next step to reuse.
pub struct StepGrads {
    grads: Vec<DenseGrads>,
    home: Arc<GradHome>,
}

impl StepGrads {
    /// Keeps the gradients for good. The trainer allocates fresh
    /// accumulators on its next step.
    pub fn into_vec(mut self) -> Vec<DenseGrads> {
        std::mem::take(&mut self.grads)
    }
}

impl std::ops::Deref for StepGrads {
    type Target = [DenseGrads];

    fn deref(&self) -> &[DenseGrads] {
        &self.grads
    }
}

impl<'a> IntoIterator for &'a StepGrads {
    type Item = &'a DenseGrads;
    type IntoIter = std::slice::Iter<'a, DenseGrads>;

    fn into_iter(self) -> Self::IntoIter {
        self.grads.iter()
    }
}

impl std::fmt::Debug for StepGrads {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.grads.fmt(f)
    }
}

impl Drop for StepGrads {
    fn drop(&mut self) {
        if self.grads.is_empty() {
            return;
        }
        let mut grads = self.grads.drain(..);
        for &(slot, layers) in &self.home.stages {
            let mut acc = lock(&self.home.slots[slot]);
            acc.clear();
            acc.extend(grads.by_ref().take(layers));
        }
    }
}

/// Fresh per-worker buffer pools and gradient slots for `cfg`'s shape,
/// one of each per stage replica in spawn order.
fn worker_state(cfg: &EngineConfig) -> (Vec<Mutex<TensorPool>>, Arc<GradHome>) {
    let workers: usize = cfg.replication.iter().sum();
    let pools = (0..workers).map(|_| Mutex::default()).collect();
    let mut first_slot = 0usize;
    let stages = cfg
        .stage_bounds
        .iter()
        .zip(&cfg.replication)
        .map(|(layers, &r)| {
            let stage = (first_slot, layers.len());
            first_slot += r;
            stage
        })
        .collect();
    let grad_home = Arc::new(GradHome {
        slots: (0..workers).map(|_| Mutex::default()).collect(),
        stages,
    });
    (pools, grad_home)
}

/// The rows (micro-batch local) of replica `rep` of a stage split `r`
/// ways over `mb` rows. Splits need not be even: the first `mb % r`
/// replicas take one extra row, so any replication `r <= mb` is valid
/// (elastic re-planning after a failure can leave prime micro-batch sizes
/// on odd replica counts).
fn rows_of(mb: usize, r: usize, rep: usize) -> Range<usize> {
    let (w, rem) = (mb / r, mb % r);
    let start = rep * w + rep.min(rem);
    start..start + w + usize::from(rep < rem)
}

/// Which step thread runs which worker, and each thread's order of ops
/// (module docs, "Placement"). An op is `(worker, k)`: a spawn index and
/// a step of that worker's script, or the script's length for its sync.
struct Placement {
    /// Per worker, in spawn order: `(stage, replica)`.
    workers: Vec<(usize, usize)>,
    /// Per stage: its script.
    scripts: Vec<Vec<Step>>,
    /// Per worker: its [`step_lanes`] lane, whose resource is its thread.
    lanes: Vec<Lane>,
    /// Per thread: its ops in run order.
    orders: Vec<Vec<(usize, usize)>>,
}

impl Placement {
    /// `cfg`'s workers on `min(workers, cores)` threads, for a model whose
    /// layer `l` costs `macs[l]` multiply-adds per row. A worker's forward
    /// costs its stage's multiply-adds over its replicas, a backward twice
    /// that and a sync nothing.
    fn new(cfg: &EngineConfig, macs: &[usize], cores: usize) -> Self {
        let (s, m) = (cfg.stage_bounds.len(), cfg.micro_batches);
        let stages = cfg.replication.iter().enumerate();
        let workers: Vec<(usize, usize)> = stages
            .flat_map(|(i, &r)| (0..r).map(move |p| (i, p)))
            .collect();
        let scripts: Vec<Vec<Step>> = (0..s)
            .map(|i| stage_order(cfg.schedule, i, s, m, cfg.max_in_flight))
            .collect();
        let stage_macs = |b: &Range<usize>| macs[b.clone()].iter().sum::<usize>() as f64;
        let fw: Vec<f64> = (cfg.stage_bounds.iter().zip(&cfg.replication))
            .map(|(b, &r)| stage_macs(b) / r as f64)
            .collect();

        // Longest job first, each onto the least-loaded thread; ties go to
        // the earlier worker and the lower thread.
        let threads = cores.clamp(1, workers.len());
        let mut by_cost: Vec<usize> = (0..workers.len()).collect();
        by_cost.sort_by(|&a, &b| fw[workers[b].0].total_cmp(&fw[workers[a].0]));
        let (mut load, mut thread_of) = (vec![0.0f64; threads], vec![0; workers.len()]);
        for w in by_cost {
            thread_of[w] = (0..threads)
                .min_by(|&a, &b| load[a].total_cmp(&load[b]))
                .expect("a thread");
            load[thread_of[w]] += fw[workers[w].0];
        }

        let cost = |i: usize, step| match step {
            Some(Step::Fw(_)) => fw[i],
            Some(Step::Bw(_)) => 2.0 * fw[i],
            None => 0.0,
        };
        let lanes = step_lanes(&scripts, &cfg.replication, cost, |w| thread_of[w], None);
        let orders = list_schedule(&lanes).orders;
        Placement {
            workers,
            scripts,
            lanes,
            orders,
        }
    }
}

/// The pipeline trainer: a model plus its parallelization config.
pub struct PipelineTrainer {
    /// The master copy of the model (updated after every step).
    pub model: MlpModel,
    cfg: EngineConfig,
    /// Per-worker buffer pools, one slot per stage replica in spawn
    /// order. Owned here — not by the per-step workers — so the free
    /// lists survive across steps: after the first step every boundary
    /// take is a hit and steps allocate no boundary buffers.
    pools: Vec<Mutex<TensorPool>>,
    /// Per-worker gradient accumulators, in the same order. A worker
    /// holds its slot for the step and works on the buffers in place; a
    /// stage's synchronized accumulators leave in
    /// [`StepOutcome::grads`] and come back when it is dropped, so a
    /// steady-state step allocates no gradient storage. Whatever a failed
    /// attempt left behind is zeroed at the next step's start, and a slot
    /// found empty or mis-shaped is rebuilt before the step's round
    /// starts.
    grad_home: Arc<GradHome>,
    /// Which thread runs which worker, and in what order.
    placement: Placement,
    /// Held for a step, so concurrent steps take turns.
    step: Mutex<()>,
}

/// Multiply-adds per row of each of `model`'s layers.
fn layer_macs(model: &MlpModel) -> Vec<usize> {
    model
        .layers
        .iter()
        .map(|l| l.in_dim() * l.out_dim())
        .collect()
}

impl PipelineTrainer {
    /// Validates the configuration against the model and places its
    /// workers on the host's cores.
    pub fn new(model: MlpModel, cfg: EngineConfig) -> Result<Self> {
        cfg.check(model.num_layers())?;
        let (pools, grad_home) = worker_state(&cfg);
        let placement = Placement::new(&cfg, &layer_macs(&model), rayon::current_num_threads());
        Ok(PipelineTrainer {
            model,
            cfg,
            pools,
            grad_home,
            placement,
            step: Mutex::new(()),
        })
    }

    /// A trainer whose workers share `threads` threads, whatever the host.
    #[cfg(test)]
    fn with_threads(model: MlpModel, cfg: EngineConfig, threads: usize) -> Self {
        let mut trainer = PipelineTrainer::new(model, cfg).unwrap();
        trainer.placement = Placement::new(&trainer.cfg, &layer_macs(&trainer.model), threads);
        trainer
    }

    /// Re-shapes the trainer to `cfg` around the model where it lies: only
    /// the per-worker pools, the gradient slots and the placement are
    /// rebuilt. A rejected config changes nothing.
    pub(crate) fn reconfigure(&mut self, cfg: EngineConfig) -> Result<()> {
        cfg.check(self.model.num_layers())?;
        (self.pools, self.grad_home) = worker_state(&cfg);
        self.placement =
            Placement::new(&cfg, &layer_macs(&self.model), rayon::current_num_threads());
        self.cfg = cfg;
        Ok(())
    }

    /// Config accessor.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The placement: per step thread, the workers it runs as `(stage,
    /// replica)`, in spawn order. Read-only: it follows from the config,
    /// the model and the kernel pool's size.
    pub fn threads(&self) -> Vec<Vec<(usize, usize)>> {
        let p = &self.placement;
        let mut threads = vec![Vec::new(); p.orders.len()];
        for (lane, &worker) in p.lanes.iter().zip(&p.workers) {
            threads[lane.resource].push(worker);
        }
        threads
    }

    /// Sizes each worker's gradient accumulators — the trainer's
    /// persistent parameter-sized buffers — on the calling thread,
    /// wherever one is empty or mis-shaped (the first step, after
    /// [`StepGrads::into_vec`] or a failed step, after a
    /// reconfiguration). The step threads only reuse them, so no
    /// parameter-sized buffer is allocated in another thread's malloc
    /// arena.
    fn provision(&self) {
        let layers = &self.model.layers;
        let stages = self.cfg.stage_bounds.iter().zip(&self.cfg.replication);
        let workers = stages.flat_map(|(bounds, &r)| std::iter::repeat_n(bounds, r));
        for (w, bounds) in workers.enumerate() {
            let layers = &layers[bounds.clone()];
            let mut acc = lock(&self.grad_home.slots[w]);
            let reusable =
                acc.len() == layers.len() && acc.iter().zip(layers).all(|(g, l)| g.fits(l));
            if !reusable {
                *acc = layers.iter().map(DenseGrads::zeros_like).collect();
            }
        }
    }

    /// A clean [`Self::step_with_trace`] whose gradients are the caller's
    /// to keep ([`StepGrads::into_vec`]): `(loss, per-layer grads)`,
    /// directly comparable with [`MlpModel::reference_grads`].
    pub fn step_grads(&self, x: &Tensor, target: &Tensor) -> Result<(f32, Vec<DenseGrads>)> {
        let out = self.step_with_trace(x, target, &FaultPlan::new()).0?;
        Ok((out.loss, out.grads.into_vec()))
    }

    /// The pipeline step: full-batch gradients under a fault-injection
    /// plan, without updating weights. With faults it returns the
    /// structured error of the root cause; the model is borrowed shared,
    /// so the trainer remains usable after a failed step.
    ///
    /// The measured trace sits outside the `Result` so a *failed* step
    /// still yields its partial timeline: each thread hands its workers'
    /// span logs back at the round's end, whatever became of them. With
    /// [`EngineConfig::tracing`] off the trace is always `None`.
    pub fn step_with_trace(
        &self,
        x: &Tensor,
        target: &Tensor,
        faults: &FaultPlan,
    ) -> (Result<StepOutcome>, Option<StepTrace>) {
        let n = x.rows;
        let m = self.cfg.micro_batches;
        if !n.is_multiple_of(m) {
            return (
                Err(DappleError::InvalidConfig(format!(
                    "batch {n} not divisible by {m} micro-batches"
                ))),
                None,
            );
        }
        let mb = n / m;
        for (i, &r) in self.cfg.replication.iter().enumerate() {
            if r > mb {
                return (
                    Err(DappleError::InvalidConfig(format!(
                        "stage {i} replication {r} exceeds micro-batch size {mb}"
                    ))),
                    None,
                );
            }
        }
        if let Err(e) = faults.validate(&self.cfg) {
            return (Err(e), None);
        }
        let _turn = lock(&self.step);
        let epoch = Instant::now();
        let tracing = self.cfg.tracing;
        let mut trace = tracing.then(|| StepTrace::new(self.cfg.replication.clone()));
        self.provision();
        let s = self.cfg.stage_bounds.len();
        let rows = |stage: usize, rep: usize| rows_of(mb, self.cfg.replication[stage], rep);

        // One inbox per worker, in spawn order, kept by the coordinator for
        // the step: a failed op's thread posts the stop (`None`) to all.
        let inboxes: Vec<Arc<Inbox>> = (0..self.pools.len()).map(|_| Arc::default()).collect();
        let first = |stage: usize| self.grad_home.stages[stage].0;
        // Who a worker sends to is fixed before the first micro-batch: the
        // replicas of the neighbouring stage whose rows overlap its own.
        let routes = |my_rows: &Range<usize>, peer_stage: usize, backward: bool| {
            let overlap = |q: usize| {
                let peer = rows(peer_stage, q);
                let (lo, hi) = (my_rows.start.max(peer.start), my_rows.end.min(peer.end));
                (lo < hi).then(|| Route {
                    to: Arc::clone(&inboxes[first(peer_stage) + q]),
                    backward,
                    local: lo - my_rows.start..hi - my_rows.start,
                    row0: lo,
                })
            };
            (0..self.cfg.replication[peer_stage])
                .filter_map(overlap)
                .collect::<Vec<Route>>()
        };

        let mut workers: Vec<Option<Worker>> = Vec::with_capacity(self.pools.len());
        for i in 0..s {
            let stage_slots = &self.grad_home.slots[first(i)..];
            for p in 0..self.cfg.replication[i] {
                // A replicated stage's gradient rendezvous: replicas `1..r`
                // post to replica 0's inbox.
                let sync = match (self.cfg.replication[i], p) {
                    (1, _) => GradSync::Solo,
                    (r, 0) => GradSync::Reducer(&stage_slots[..r]),
                    _ => GradSync::Peer(Arc::clone(&inboxes[first(i)])),
                };
                let (prev, next) = (i.checked_sub(1), Some(i + 1).filter(|&b| b < s));
                let my_rows = rows(i, p);
                workers.push(Some(Worker {
                    stage: i,
                    replica: p,
                    loss: self.cfg.loss,
                    layers: &self.model.layers[self.cfg.stage_bounds[i].clone()],
                    script: &self.placement.scripts[i],
                    mb,
                    total_samples: n,
                    recompute: self.cfg.recompute,
                    is_first: i == 0,
                    is_last: i + 1 == s,
                    x,
                    target,
                    inbox: Arc::clone(&inboxes[workers.len()]),
                    to_next: next.map(|b| routes(&my_rows, b, false)).unwrap_or_default(),
                    to_prev: prev.map(|b| routes(&my_rows, b, true)).unwrap_or_default(),
                    my_rows,
                    faults: faults.for_worker(i, p),
                    recv_timeout: self.cfg.recv_timeout,
                    pool: &self.pools[workers.len()],
                    grad_slot: &stage_slots[p],
                    sync,
                }));
            }
        }

        // One round of the pool, the calling thread as thread 0. Every op
        // is caught and every wait inside one is bounded, so the round is
        // bounded and ends with a report per worker.
        let reports: Mutex<Vec<Report>> = Mutex::new(Vec::with_capacity(workers.len()));
        let (placement, workers) = (&self.placement, Mutex::new(workers));
        rayon::round(placement.orders.len(), &|t| {
            let mine = (lock(&workers).iter_mut().zip(&placement.lanes))
                .map(|(w, lane)| if lane.resource == t { w.take() } else { None })
                .collect();
            let done = run_thread(t, mine, placement, &inboxes, tracing, epoch);
            lock(&reports).extend(done);
        });

        let mut reports = reports.into_inner().unwrap_or_else(PoisonError::into_inner);
        reports.sort_unstable_by_key(|&(w, ..)| w);
        let mut results: Vec<Result<WorkerOut>> = Vec::with_capacity(reports.len());
        for (_, result, spans) in reports {
            // The step ended with the round: whatever rows a worker that
            // completed its script left unread were sent beyond the
            // schedule (e.g. an injected duplicate).
            results.push(result.and_then(WorkerOut::nothing_trailing));
            if let Some(tr) = trace.as_mut() {
                tr.workers.extend(spans);
            }
        }
        if let Some(err) = most_severe_error(&results) {
            return (Err(err), trace);
        }
        let outs: Vec<WorkerOut> = results
            .into_iter()
            .map(|r| r.expect("no errors after aggregation"))
            .collect();
        // Spawn order is stage-major: stage `i` owns the next `r_i` outs,
        // and its replica 0 carries the stage's synchronized accumulators.
        let mut loss = 0.0f32;
        let mut first = 0usize;
        for &r in &self.cfg.replication {
            loss += outs[first..first + r].iter().map(|o| o.loss).sum::<f32>();
            first += r;
        }
        let pool_hits = outs.iter().map(|o| o.pool_hits).sum();
        let pool_misses = outs.iter().map(|o| o.pool_misses).sum();
        let mut grads = Vec::with_capacity(self.model.num_layers());
        for out in outs {
            grads.extend(out.grads);
            if let (Some(span), Some(tr)) = (out.sync, trace.as_mut()) {
                tr.coord.push(CoordSpan {
                    stage: out.stage,
                    span,
                });
            }
        }
        (
            Ok(StepOutcome {
                loss,
                grads: StepGrads {
                    grads,
                    home: Arc::clone(&self.grad_home),
                },
                pool_hits,
                pool_misses,
            }),
            trace,
        )
    }
}

/// Cascade-failure ranking: when one worker's fault makes its peers fail
/// too (a panic starves the neighbors, which then stall), report the
/// error closest to the root cause.
fn error_severity(e: &DappleError) -> u8 {
    match e {
        DappleError::WorkerPanicked { .. } => 5,
        DappleError::NonFinite { .. } => 4,
        DappleError::ChannelProtocol { .. } => 3,
        DappleError::Stalled { .. } => 2,
        DappleError::ChannelClosed { .. } => 1,
        _ => 0,
    }
}

/// The most severe error across worker results, ties broken by spawn
/// order (stage, then replica) for determinism.
fn most_severe_error(results: &[Result<WorkerOut>]) -> Option<DappleError> {
    let mut worst: Option<&DappleError> = None;
    for r in results {
        if let Err(e) = r {
            if worst.is_none_or(|w| error_severity(e) > error_severity(w)) {
                worst = Some(e);
            }
        }
    }
    worst.cloned()
}

/// Stringifies a worker panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// What a step thread reports for each of its workers: the worker's spawn
/// index, its result and, with tracing on, its spans.
type Report = (usize, Result<WorkerOut>, Option<WorkerTrace>);

/// Runs one op of worker `(stage, replica)`. A panic — a genuine bug or
/// an injected fault — unwinds only to here, and its payload is kept as a
/// structured error.
fn caught<T>(stage: usize, replica: usize, op: impl FnOnce() -> Result<T>) -> Result<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(op)).unwrap_or_else(|payload| {
        Err(DappleError::WorkerPanicked {
            stage,
            replica,
            message: panic_message(payload.as_ref()),
        })
    })
}

/// Step thread `thread` of placement `p`: runs its order over its
/// workers (indexed by spawn index, `None` where a worker runs elsewhere).
/// It stops at the first op that fails, posts the stop to every inbox in
/// `inboxes` and drops the workers it still holds; each is reported as
/// closed at the op it did not reach (module docs, "Failure semantics").
fn run_thread(
    thread: usize,
    workers: Vec<Option<Worker<'_>>>,
    p: &Placement,
    inboxes: &[Arc<Inbox>],
    tracing: bool,
    epoch: Instant,
) -> Vec<Report> {
    // The span logs live out here, not in the workers, so a worker that
    // fails or panics still hands back what it recorded; sized from the
    // script (≤ 4 spans per scheduled step) so recording never allocates.
    let mut logs: Vec<Option<SpanLog>> = (workers.iter().zip(&p.workers))
        .map(|(w, &(stage, _))| {
            let script = p.scripts[stage].len();
            (tracing && w.is_some()).then(|| SpanLog::new(4 * script + 8, epoch))
        })
        .collect();
    let mut live: Vec<Option<Live>> = workers.into_iter().map(|w| w.map(Worker::begin)).collect();
    let mut results: Vec<Option<Result<WorkerOut>>> = live.iter().map(|_| None).collect();
    let order = &p.orders[thread];
    for (at, &(w, k)) in order.iter().enumerate() {
        let ((stage, replica), log) = (p.workers[w], &mut logs[w]);
        let done = if k < p.scripts[stage].len() {
            let live_w = live[w].as_mut().expect("a worker runs until its sync");
            caught(stage, replica, || live_w.step(k, log)).map(|()| None)
        } else {
            let live_w = live[w].take().expect("one sync per worker");
            caught(stage, replica, || live_w.finish(log)).map(Some)
        };
        match done {
            Ok(None) => {}
            Ok(Some(out)) => results[w] = Some(Ok(out)),
            Err(e) => {
                for inbox in inboxes {
                    inbox.post(None);
                }
                (live[w], results[w]) = (None, Some(Err(e)));
                for (v, dropped) in live.iter_mut().enumerate() {
                    if dropped.take().is_some() {
                        let ((stage, replica), next) =
                            (p.workers[v], order[at..].iter().find(|o| o.0 == v));
                        let step = next.map_or(0, |o| o.1);
                        results[v] = Some(Err(DappleError::ChannelClosed {
                            stage,
                            replica,
                            step,
                        }));
                    }
                }
                break;
            }
        }
    }
    let reports = results.into_iter().zip(logs).enumerate();
    reports
        .filter_map(|(w, (result, log))| {
            let (stage, replica) = p.workers[w];
            Some((
                w,
                result?,
                log.map(|log| log.into_trace(stage, replica, thread)),
            ))
        })
        .collect()
}

/// One stage-replica worker.
struct Worker<'a> {
    stage: usize,
    replica: usize,
    loss: LossKind,
    layers: &'a [Dense],
    script: &'a [Step],
    /// Micro-batch-local rows this replica owns.
    my_rows: Range<usize>,
    mb: usize,
    total_samples: usize,
    recompute: bool,
    is_first: bool,
    is_last: bool,
    x: &'a Tensor,
    target: &'a Tensor,
    inbox: Arc<Inbox>,
    /// Where forward outputs go (empty on the last stage) and where
    /// input gradients go (empty on the first).
    to_next: Vec<Route>,
    to_prev: Vec<Route>,
    /// Faults this worker must inject, keyed by step index.
    faults: HashMap<usize, FaultKind>,
    recv_timeout: Duration,
    /// This worker's persistent buffer pool (owned by the trainer so the
    /// free lists survive across steps). Each worker locks only its own
    /// pool for the duration of the step — uncontended by construction.
    pool: &'a Mutex<TensorPool>,
    /// This worker's persistent gradient accumulator, held for the step
    /// like the pool.
    grad_slot: &'a Mutex<Vec<DenseGrads>>,
    /// This worker's part in its stage's gradient sync.
    sync: GradSync<'a>,
}

/// One peer a worker sends to, resolved when the step is wired: the rows
/// the two replicas share. The routes of one direction partition the
/// worker's rows, so a single route covers all of them.
struct Route {
    to: Arc<Inbox>,
    /// Whether the rows are input gradients ([`Msg::backward`]).
    backward: bool,
    /// The shared rows, as rows of the worker's own tensor.
    local: Range<usize>,
    /// Where they start in the micro-batch ([`Msg::row0`]).
    row0: usize,
}

/// A worker's part in the gradient sync of its stage.
enum GradSync<'a> {
    /// Unreplicated stage: the accumulator already is the stage gradient.
    Solo,
    /// Replica 0 of a replicated stage: collects its peers' accumulators
    /// and reduces them into its own, then returns their buffers to the
    /// stage's slots, given by replica.
    Reducer(&'a [Mutex<Vec<DenseGrads>>]),
    /// Replicas `1..r`: post `(replica, accumulator)` to replica 0.
    Peer(Arc<Inbox>),
}

/// Stored state per in-flight micro-batch.
enum Flight {
    /// Stage input plus the per-layer output chain (normal mode) — all
    /// the state the backward pass needs, with no extra copies.
    Cached { input: Tensor, ys: Vec<Tensor> },
    /// Stage input only (re-computation mode).
    InputOnly(Tensor),
}

/// Cap on free-list depth per shape: bounds pool growth on workers that
/// recycle more buffers than they take (e.g. the last stage, whose loss
/// gradients are produced fresh but retired into the pool).
const POOL_CAP_PER_SHAPE: usize = 16;

/// A free list of tensor buffers keyed by shape.
///
/// `take` hands out a recycled buffer when one is available (a *hit*)
/// and falls back to a fresh allocation otherwise (a *miss*); `put`
/// retires a spent tensor for reuse. Recycled contents are arbitrary:
/// every take site must fully overwrite the buffer (pinned against an
/// allocate-per-tensor reference in tests/determinism.rs).
///
/// The pool covers both the boundary messages and the compute path: the
/// per-layer forward chain and the backward input-gradients draw from the
/// same free lists (see [`forward_stage`]/[`backward_stage`]), and each
/// backward retires its whole chain. In steady-state 1F1B the traffic is
/// shape-symmetric micro-batch to micro-batch, so misses happen only
/// during pipeline warmup — and because pools live on the
/// [`PipelineTrainer`] (not the per-step workers), warmup is paid once
/// per trainer, not once per step.
///
/// A worker sees only a handful of distinct shapes, so buckets live in
/// a flat `Vec` scanned linearly — cheaper than hashing the shape key
/// on every message, and lookups allocate nothing.
#[derive(Default)]
struct TensorPool {
    free: Vec<((usize, usize), Vec<Tensor>)>,
    hits: usize,
    misses: usize,
}

impl TensorPool {
    /// Resets the per-step hit/miss counters (the free lists persist).
    fn begin_step(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// A buffer of exactly `rows x cols`; contents are arbitrary.
    fn take(&mut self, rows: usize, cols: usize) -> Tensor {
        let bucket = self
            .free
            .iter_mut()
            .find(|(shape, _)| *shape == (rows, cols));
        if let Some(t) = bucket.and_then(|(_, list)| list.pop()) {
            self.hits += 1;
            t
        } else {
            self.misses += 1;
            Tensor::zeros(rows, cols)
        }
    }

    /// Retires a spent tensor into the free list.
    fn put(&mut self, t: Tensor) {
        let shape = (t.rows, t.cols);
        let slot = match self.free.iter_mut().find(|(s, _)| *s == shape) {
            Some((_, list)) => list,
            None => {
                self.free.push((shape, Vec::new()));
                &mut self.free.last_mut().expect("just pushed").1
            }
        };
        if slot.len() < POOL_CAP_PER_SHAPE {
            slot.push(t);
        }
    }
}

/// Payload size of a boundary tensor, bytes.
#[inline]
fn tensor_bytes(t: &Tensor) -> u64 {
    (t.rows * t.cols * std::mem::size_of::<f32>()) as u64
}

/// Copies rows `src_rows` of `src` into `dst` (exactly the overlap shape).
fn copy_rows_into(src: &Tensor, src_rows: Range<usize>, dst: &mut Tensor) {
    debug_assert_eq!(dst.rows, src_rows.len());
    debug_assert_eq!(dst.cols, src.cols);
    let c = src.cols;
    dst.data
        .copy_from_slice(&src.data[src_rows.start * c..src_rows.end * c]);
}

/// Epoch-relative timestamp; 0 (and never read) with tracing off.
#[inline]
fn now_ns(log: &Option<SpanLog>) -> u64 {
    log.as_ref().map_or(0, SpanLog::now_ns)
}

/// Records a span when tracing is on (allocation-free).
#[inline]
fn rec(
    log: &mut Option<SpanLog>,
    kind: SpanKind,
    micro: usize,
    bytes: u64,
    start_ns: u64,
    end_ns: u64,
) {
    if let Some(log) = log {
        log.record(Span {
            kind,
            micro: micro as u32,
            bytes,
            start_ns,
            end_ns,
        });
    }
}

impl<'a> Worker<'a> {
    /// Starts the worker's step: takes its pool and gradient slot for the
    /// step and zeroes the accumulators (the trainer sized them before the
    /// round started).
    fn begin(self) -> Live<'a> {
        // A failed attempt may have stopped mid-step; the free lists are
        // always structurally valid, so nothing but the storage is trusted.
        let mut pool = lock(self.pool);
        pool.begin_step();
        // The gradient buffers persist in the trainer's slot; the guard is
        // held until they are handed on, so an attempt that fails or
        // panics leaves them where the next step finds (and zeroes) them.
        let mut slot = lock(self.grad_slot);
        slot.iter_mut().for_each(DenseGrads::zero);
        Live {
            // At most one flight per in-progress micro-batch; sizing the
            // map up front keeps rehashing out of the step loop.
            flights: HashMap::with_capacity(self.script.len() / 2 + 1),
            worker: self,
            pool,
            slot,
            chain_spares: Vec::new(),
            loss: 0.0,
            arrived: Arrived::default(),
            poisoned: HashSet::new(),
        }
    }

    /// This stage's gradient sync, run the moment its last backward has
    /// retired. An unreplicated stage keeps its accumulator as is; in a
    /// replicated one, replicas `1..r` hand theirs to replica 0, which
    /// sums them into its own in the ring AllReduce's order and sends the
    /// spent buffers home. Returns the stage's gradients (replica 0; empty
    /// elsewhere) and, with tracing on, the reduce's span. Replica 0
    /// takes its peers' accumulators from what arrived, waiting for the
    /// rest in the worker's one wait.
    fn sync_grads(
        &mut self,
        mut acc: Vec<DenseGrads>,
        arrived: &mut Arrived,
        log: &Option<SpanLog>,
    ) -> Result<(Vec<DenseGrads>, Option<Span>)> {
        let idx = self.script.len();
        match std::mem::replace(&mut self.sync, GradSync::Solo) {
            GradSync::Solo => Ok((acc, None)),
            GradSync::Peer(to) => {
                to.post(Some(Mail::Grads(self.replica, acc)));
                Ok((Vec::new(), None))
            }
            GradSync::Reducer(peer_slots) => {
                self.wait(arrived, idx, |a| a.grads.len() + 1 == peer_slots.len())?;
                let mut peers = std::mem::take(&mut arrived.grads);
                // Rank order is replica order, whatever order they arrived in.
                peers.sort_by_key(|(replica, _)| *replica);
                let t0 = now_ns(log);
                {
                    let mut first: Vec<&mut [f32]> =
                        acc.iter_mut().flat_map(DenseGrads::segments_mut).collect();
                    let rest: Vec<Vec<&[f32]>> = peers
                        .iter()
                        .map(|(_, bufs)| bufs.iter().flat_map(DenseGrads::segments).collect())
                        .collect();
                    dapple_collectives::reduce_sum_in_place(&mut first, &rest);
                }
                let span = log.as_ref().map(|log| Span {
                    kind: SpanKind::AllReduce,
                    micro: NO_MICRO,
                    bytes: acc
                        .iter()
                        .flat_map(DenseGrads::segments)
                        .map(|seg| std::mem::size_of_val(seg) as u64)
                        .sum(),
                    start_ns: t0,
                    end_ns: log.now_ns(),
                });
                for (replica, bufs) in peers {
                    *lock(&peer_slots[replica]) = bufs;
                }
                Ok((acc, span))
            }
        }
    }

    /// Sends a step's output to the peers that share its rows, applying an
    /// injected drop (swallow) or duplicate (send twice) fault.
    ///
    /// A tensor the caller gives away moves into the message when one
    /// peer takes all of it (equal replication on both sides of the
    /// boundary) — no split copy at all. Otherwise each route's rows are
    /// copied into a pooled buffer and a given tensor is recycled; in
    /// steady-state 1F1B every such buffer is a recycled one, so the send
    /// path performs zero heap allocations.
    fn send(
        &self,
        fault: Option<FaultKind>,
        routes: &[Route],
        micro: usize,
        data: Cow<'_, Tensor>,
        pool: &mut TensorPool,
    ) {
        match fault {
            Some(FaultKind::DropMessage) => {
                if let Cow::Owned(t) = data {
                    pool.put(t);
                }
                return;
            }
            Some(FaultKind::DuplicateMessage) => {
                self.send(None, routes, micro, Cow::Borrowed(&*data), pool);
            }
            _ => {}
        }
        let post = |route: &Route, data: Tensor| {
            let (backward, row0) = (route.backward, route.row0);
            let mail = Mail::Rows(Msg {
                backward,
                micro,
                row0,
                data,
            });
            route.to.post(Some(mail));
        };
        if let (Cow::Owned(_), [only]) = (&data, routes) {
            return post(only, data.into_owned());
        }
        for route in routes {
            let mut part = pool.take(route.local.len(), data.cols);
            copy_rows_into(&data, route.local.clone(), &mut part);
            post(route, part);
        }
        if let Cow::Owned(t) = data {
            pool.put(t);
        }
    }

    /// Takes the parts of rows `my_rows` of micro-batch `micro`, forward
    /// or (`backward`) back, from what arrived, waiting for the rest, and
    /// assembles them in row order.
    fn recv_rows(
        &self,
        arrived: &mut Arrived,
        (backward, micro): (bool, usize),
        idx: usize,
        pool: &mut TensorPool,
    ) -> Result<Tensor> {
        let (key, want) = ((backward, micro), self.my_rows.len());
        let have = |a: &Arrived| -> usize {
            (a.rows.get(&key)).map_or(0, |parts| parts.iter().map(|p| p.data.rows).sum())
        };
        self.wait(arrived, idx, |a| have(a) >= want)?;
        if have(arrived) > want {
            return Err(trailing(self.stage, self.replica, key));
        }
        let mut parts = arrived.rows.remove(&key).expect("parts present");
        if parts.len() == 1 {
            // One part covering everything (equal replication): take it
            // as-is, no concat copy.
            return Ok(parts.pop().expect("one part").data);
        }
        parts.sort_by_key(|p| p.row0);
        let cols = parts[0].data.cols;
        let mut out = pool.take(want, cols);
        let mut r0 = 0usize;
        for p in parts {
            debug_assert_eq!(p.data.cols, cols, "part width mismatch");
            out.data[r0 * cols..(r0 + p.data.rows) * cols].copy_from_slice(&p.data.data);
            r0 += p.data.rows;
            // Spent parts restock the pool: the reverse direction crosses
            // this boundary with the same part shapes.
            pool.put(p.data);
        }
        Ok(out)
    }

    /// The worker's one wait, the pool's ([`rayon::wait_until`]): files
    /// mail from its inbox into `arrived` until `done` holds of it, for
    /// at most `recv_timeout`. The stop ends it at once, as closed at op
    /// `idx`.
    fn wait(
        &self,
        arrived: &mut Arrived,
        idx: usize,
        done: impl Fn(&Arrived) -> bool,
    ) -> Result<()> {
        let mut stop = false;
        let ready = rayon::wait_until(Some(self.recv_timeout), || {
            while !stop && !done(arrived) {
                match self.inbox.take() {
                    Some(Some(mail)) => arrived.file(mail),
                    Some(None) => stop = true,
                    None => return false,
                }
            }
            true
        });
        let (stage, replica, step) = (self.stage, self.replica, idx);
        match (stop, ready) {
            (true, _) => Err(self.closed(idx)),
            (false, false) => Err(DappleError::Stalled {
                stage,
                replica,
                step,
            }),
            (false, true) => Ok(()),
        }
    }

    /// This worker's [`DappleError::ChannelClosed`] at op `idx`.
    fn closed(&self, idx: usize) -> DappleError {
        DappleError::ChannelClosed {
            stage: self.stage,
            replica: self.replica,
            step: idx,
        }
    }
}

/// A worker between [`Worker::begin`] and [`Live::finish`]: the buffers
/// it holds for the step and where its script stands.
struct Live<'a> {
    worker: Worker<'a>,
    pool: MutexGuard<'a, TensorPool>,
    slot: MutexGuard<'a, Vec<DenseGrads>>,
    /// Spare spines for the per-layer forward chains: each backward
    /// drains its chain's tensors into the pool and parks the empty Vec
    /// here for the next forward.
    chain_spares: Vec<Vec<Tensor>>,
    loss: f32,
    flights: HashMap<usize, Flight>,
    arrived: Arrived,
    /// Micro-batches poisoned by an injected NaN at their forward: their
    /// loss gradient is poisoned at this worker's own backward too, so the
    /// fault is observable on the last stage, which sends no poisoned copy
    /// downstream (elsewhere the copy fails the step at the next stage).
    poisoned: HashSet<usize>,
}

impl Live<'_> {
    /// Step `idx` of the worker's script. Spans go to `log`.
    fn step(&mut self, idx: usize, log: &mut Option<SpanLog>) -> Result<()> {
        let w = &self.worker;
        let pool = &mut *self.pool;
        let (step, fault) = (w.script[idx], w.faults.get(&idx).copied());
        match fault {
            Some(FaultKind::Stall(delay)) => std::thread::sleep(delay),
            Some(FaultKind::Panic) => {
                // resume_unwind skips the panic hook: injected panics
                // are expected and should not spam stderr. The
                // coordinator still maps the payload to
                // WorkerPanicked.
                std::panic::resume_unwind(Box::new(format!(
                    "injected panic at stage {} replica {} step {idx}",
                    w.stage, w.replica
                )));
            }
            _ => {}
        }
        match step {
            Step::Fw(u) => {
                let t0 = now_ns(log);
                let input = if w.is_first {
                    let lo = u * w.mb + w.my_rows.start;
                    let hi = u * w.mb + w.my_rows.end;
                    let mut t = pool.take(hi - lo, w.x.cols);
                    copy_rows_into(w.x, lo..hi, &mut t);
                    t
                } else {
                    w.recv_rows(&mut self.arrived, (false, u), idx, pool)?
                };
                let t1 = now_ns(log);
                if !w.is_first {
                    rec(log, SpanKind::CommRecvWait, u, tensor_bytes(&input), t0, t1);
                }
                let mut ys = self.chain_spares.pop().unwrap_or_default();
                forward_stage(w.layers, &input, &mut ys, pool);
                // The first stage folds its input-slice copy into the
                // forward span; downstream stages start at receipt.
                rec(
                    log,
                    SpanKind::Fw,
                    u,
                    0,
                    if w.is_first { t0 } else { t1 },
                    now_ns(log),
                );
                if fault == Some(FaultKind::NanGradient) {
                    self.poisoned.insert(u);
                }
                if !w.is_last {
                    let out_bytes = tensor_bytes(ys.last().expect("non-empty stage"));
                    let ts = now_ns(log);
                    let out = if fault == Some(FaultKind::NanGradient) {
                        // Poison only the outgoing copy; the cached
                        // chain stays clean (the local backward is
                        // poisoned via `poisoned`, as before).
                        let mut bad = ys.last().expect("non-empty stage").clone();
                        bad.data.fill(f32::NAN);
                        Cow::Owned(bad)
                    } else if w.recompute {
                        // The chain is rebuilt at Bw, so the output
                        // can move straight into the message.
                        Cow::Owned(ys.pop().expect("non-empty stage"))
                    } else {
                        Cow::Borrowed(ys.last().expect("non-empty stage"))
                    };
                    w.send(fault, &w.to_next, u, out, pool);
                    rec(log, SpanKind::CommSend, u, out_bytes, ts, now_ns(log));
                }
                self.flights.insert(
                    u,
                    if w.recompute {
                        // Whatever the send left in the chain is
                        // spent (everything, on the poisoned-copy
                        // fault path); the spine is parked for the
                        // next forward.
                        for y in ys.drain(..) {
                            pool.put(y);
                        }
                        self.chain_spares.push(ys);
                        Flight::InputOnly(input)
                    } else {
                        Flight::Cached { input, ys }
                    },
                );
            }
            Step::Bw(u) => {
                let t0 = now_ns(log);
                let (input, mut ys, recomputed) =
                    match self.flights.remove(&u).expect("forward before backward") {
                        Flight::Cached { input, ys } => (input, ys, false),
                        Flight::InputOnly(input) => {
                            let mut ys = self.chain_spares.pop().unwrap_or_default();
                            forward_stage(w.layers, &input, &mut ys, pool);
                            (input, ys, true)
                        }
                    };
                let ta = now_ns(log);
                if recomputed {
                    rec(log, SpanKind::Recompute, u, 0, t0, ta);
                }
                let mut micro_loss = 0.0f32;
                let mut dy = if w.is_last {
                    let pred = ys.last().expect("non-empty stage");
                    let lo = u * w.mb + w.my_rows.start;
                    let hi = u * w.mb + w.my_rows.end;
                    // Pooled target slice and loss gradient: the
                    // last stage's loss path allocates nothing in
                    // steady state either.
                    let mut t = pool.take(hi - lo, w.target.cols);
                    copy_rows_into(w.target, lo..hi, &mut t);
                    let mut dy = pool.take(pred.rows, pred.cols);
                    micro_loss = loss_grad_into(w.loss, pred, &t, w.total_samples, &mut dy);
                    pool.put(t);
                    dy
                } else {
                    w.recv_rows(&mut self.arrived, (true, u), idx, pool)?
                };
                let tb = now_ns(log);
                if !w.is_last {
                    rec(log, SpanKind::CommRecvWait, u, tensor_bytes(&dy), ta, tb);
                }
                if fault == Some(FaultKind::NanGradient) || self.poisoned.contains(&u) {
                    dy.data.fill(f32::NAN);
                }
                // The kernels add this micro-batch's `dW`/`db` into the
                // accumulator and count what was not finite.
                let (dx, non_finite) =
                    backward_stage(w.layers, &input, &ys, dy, &mut self.slot, pool, !w.is_first);
                // The last stage folds its loss computation into the
                // backward span; upstream stages start at receipt.
                rec(
                    log,
                    SpanKind::Bw,
                    u,
                    0,
                    if w.is_last { ta } else { tb },
                    now_ns(log),
                );
                // This micro-batch's input is spent now, as is its
                // whole forward chain (its gradient buffers went back
                // inside `backward_stage`); recycling them is what
                // stocks the pool for the sends and forwards of later
                // micro-batches (misses happen only during warmup).
                pool.put(input);
                for y in ys.drain(..) {
                    pool.put(y);
                }
                self.chain_spares.push(ys);
                // A step that finishes carries exactly the batch's
                // gradient, so a poisoned micro-batch fails it.
                if non_finite > 0 || !micro_loss.is_finite() {
                    return Err(DappleError::NonFinite {
                        stage: w.stage,
                        replica: w.replica,
                        micro: u,
                    });
                }
                self.loss += micro_loss;
                if let Some(dx) = dx {
                    let dx_bytes = tensor_bytes(&dx);
                    let ts = now_ns(log);
                    w.send(fault, &w.to_prev, u, Cow::Owned(dx), pool);
                    rec(log, SpanKind::CommSend, u, dx_bytes, ts, now_ns(log));
                }
            }
        }
        Ok(())
    }

    /// Ends the worker's step: the gradient sync. What the script filed
    /// and never took, and whatever arrives after it, stays for the
    /// calling thread to find after the round: a worker that has run its
    /// script waits for no neighbour.
    fn finish(mut self, log: &mut Option<SpanLog>) -> Result<WorkerOut> {
        // The sync waits only for this stage's own replicas, so it
        // overlaps the earlier stages' backward tail.
        let grads = std::mem::take(&mut *self.slot);
        drop(self.slot);
        let (grads, sync) = self.worker.sync_grads(grads, &mut self.arrived, log)?;
        Ok(WorkerOut {
            stage: self.worker.stage,
            replica: self.worker.replica,
            inbox: self.worker.inbox,
            arrived: self.arrived,
            grads,
            sync,
            loss: self.loss,
            pool_hits: self.pool.hits,
            pool_misses: self.pool.misses,
        })
    }
}

/// Forward through a stage's layers; fills `ys` (an empty, possibly
/// recycled Vec — even the chain's spine allocates only during warmup)
/// with the per-layer output chain.
fn forward_stage(layers: &[Dense], input: &Tensor, ys: &mut Vec<Tensor>, pool: &mut TensorPool) {
    debug_assert!(ys.is_empty(), "recycled chain must be drained");
    ys.reserve(layers.len());
    for (i, layer) in layers.iter().enumerate() {
        let x = if i == 0 { input } else { &ys[i - 1] };
        // The backward pass retires the whole chain into the pool, so
        // steady-state forwards allocate nothing.
        let mut y = pool.take(x.rows, layer.out_dim());
        layer.forward_into(x, &mut y);
        ys.push(y);
    }
}

/// Backward through a stage's layers.
///
/// Per-layer parameter gradients are added into `acc` by the kernels
/// (`dW`/`db` allocate nothing and pass through no scratch). Returns
/// `(dx, non_finite)`: the stage's input gradient — `None` without
/// `input_grad`, in which case the first layer stops after its `dW`/`db`
/// and runs no product, takes no buffer and reads no `W^T` for it — and
/// the count of gradient values that went in as zeros. Every gradient
/// buffer passed through, `gy` included, is spent and goes back to the
/// pool (`gy`'s has exactly the shape of this worker's outgoing boundary
/// messages).
#[allow(clippy::too_many_arguments)]
fn backward_stage(
    layers: &[Dense],
    input: &Tensor,
    ys: &[Tensor],
    gy: Tensor,
    acc: &mut [DenseGrads],
    pool: &mut TensorPool,
    input_grad: bool,
) -> (Option<Tensor>, usize) {
    assert_eq!(ys.len(), layers.len(), "output chain length");
    assert_eq!(acc.len(), layers.len(), "accumulator length");
    let mut non_finite = 0;
    let mut cur = gy;
    for i in (0..layers.len()).rev() {
        let x = if i == 0 { input } else { &ys[i - 1] };
        // Not zeroed: the kernel overwrites every element.
        let mut dx = (i > 0 || input_grad).then(|| pool.take(cur.rows, layers[i].in_dim()));
        non_finite += layers[i].backward_add_into(x, &ys[i], &mut cur, &mut acc[i], dx.as_mut());
        match dx {
            Some(dx) => pool.put(std::mem::replace(&mut cur, dx)),
            None => {
                pool.put(cur);
                return (None, non_finite);
            }
        }
    }
    (Some(cur), non_finite)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data;
    use crate::optim::Optimizer;
    use dapple_sim::list::Op;
    use dapple_sim::{KPolicy, Schedule};

    fn grads_close(a: &[DenseGrads], b: &[DenseGrads], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            for (p, q) in x.dw.data.iter().zip(&y.dw.data) {
                assert!(
                    (p - q).abs() <= tol * p.abs().max(1e-3),
                    "layer {i} dw: {p} vs {q}"
                );
            }
            for (p, q) in x.db.iter().zip(&y.db) {
                assert!(
                    (p - q).abs() <= tol * p.abs().max(1e-3),
                    "layer {i} db: {p} vs {q}"
                );
            }
        }
    }

    fn model6() -> MlpModel {
        MlpModel::new(&[5, 12, 10, 8, 8, 4, 3], 77)
    }

    /// One clean training step, composed as `TrainLoop::try_step` does:
    /// the pipeline step, then the optimizer on its gradients.
    fn train(p: &mut PipelineTrainer, x: &Tensor, t: &Tensor, opt: &mut Optimizer) -> f32 {
        let out = p.step_with_trace(x, t, &FaultPlan::new()).0.unwrap();
        opt.step(&mut p.model, &out.grads);
        out.loss
    }

    /// Pipelined gradients equal sequential full-batch gradients — the
    /// paper's synchronous-equivalence claim — for every schedule and
    /// re-computation setting on a straight 3-stage pipeline.
    #[test]
    fn straight_pipeline_matches_reference() {
        let model = model6();
        let (x, t) = data::regression_batch(24, 5, 3, 9);
        let (ref_loss, ref_grads) = model.reference_grads(&x, &t, 4);
        for schedule in [
            Schedule::GPipe,
            Schedule::Dapple(KPolicy::PA),
            Schedule::Dapple(KPolicy::PB),
        ] {
            for recompute in [false, true] {
                let mut cfg = EngineConfig::straight(vec![0..2, 2..4, 4..6], 4, 0.1);
                cfg.schedule = schedule;
                cfg.recompute = recompute;
                let trainer = PipelineTrainer::new(model.clone(), cfg).unwrap();
                let (loss, grads) = trainer.step_grads(&x, &t).unwrap();
                assert!(
                    (loss - ref_loss).abs() < 1e-5 * ref_loss.max(1e-3),
                    "{schedule} rc={recompute}: loss {loss} vs {ref_loss}"
                );
                grads_close(&grads, &ref_grads, 1e-4);
            }
        }
    }

    /// Replicated stages (hybrid plan) still produce reference gradients:
    /// the micro-batch is split by rows, gradients ring-allreduced.
    #[test]
    fn replicated_stages_match_reference() {
        let model = model6();
        let (x, t) = data::regression_batch(24, 5, 3, 10);
        let (_, ref_grads) = model.reference_grads(&x, &t, 3);
        let mut cfg = EngineConfig::straight(vec![0..3, 3..6], 3, 0.1);
        cfg.replication = vec![4, 2];
        let trainer = PipelineTrainer::new(model, cfg).unwrap();
        let (_, grads) = trainer.step_grads(&x, &t).unwrap();
        grads_close(&grads, &ref_grads, 2e-4);
    }

    /// Uneven replication across adjacent stages exercises many-to-many
    /// split/concat (Fig. 9d).
    #[test]
    fn many_to_many_split_concat() {
        let model = model6();
        let (x, t) = data::regression_batch(36, 5, 3, 11);
        let (_, ref_grads) = model.reference_grads(&x, &t, 3);
        for (r1, r2) in [(3usize, 2usize), (2, 3), (1, 4), (6, 1)] {
            let mut cfg = EngineConfig::straight(vec![0..3, 3..6], 3, 0.1);
            cfg.replication = vec![r1, r2];
            cfg.schedule = Schedule::Dapple(KPolicy::PB);
            cfg.recompute = true;
            let trainer = PipelineTrainer::new(model.clone(), cfg).unwrap();
            let (_, grads) = trainer.step_grads(&x, &t).unwrap();
            grads_close(&grads, &ref_grads, 2e-4);
        }
    }

    /// Pipelined training converges identically to sequential training.
    #[test]
    fn training_trajectory_matches_sequential() {
        let (x, t) = data::regression_batch(32, 5, 3, 12);
        let mut seq = model6();
        let cfg = EngineConfig::straight(vec![0..2, 2..4, 4..6], 4, 0.2);
        let mut pipe = PipelineTrainer::new(model6(), cfg).unwrap();
        let mut sgd = Optimizer::sgd(0.2);
        let mut first = None;
        let mut last = (0.0, 0.0);
        for _ in 0..100 {
            let sl = seq.reference_step(&x, &t, 4, 0.2).loss;
            let pl = train(&mut pipe, &x, &t, &mut sgd);
            first.get_or_insert((sl, pl));
            last = (sl, pl);
            assert!(
                (sl - pl).abs() < 1e-3 * sl.max(1e-3),
                "diverged: seq {sl} vs pipe {pl}"
            );
        }
        let (f, _) = first.unwrap();
        assert!(
            last.0 < f * 0.6,
            "training must reduce loss: {f} -> {}",
            last.0
        );
    }

    /// A bounded in-flight budget (small D) still yields correct results.
    #[test]
    fn memory_bounded_schedule_is_correct() {
        let model = model6();
        let (x, t) = data::regression_batch(24, 5, 3, 13);
        let (_, ref_grads) = model.reference_grads(&x, &t, 8);
        let mut cfg = EngineConfig::straight(vec![0..3, 3..6], 8, 0.1);
        cfg.schedule = Schedule::Dapple(KPolicy::PB);
        cfg.max_in_flight = 1;
        let trainer = PipelineTrainer::new(model, cfg).unwrap();
        let (_, grads) = trainer.step_grads(&x, &t).unwrap();
        grads_close(&grads, &ref_grads, 1e-4);
    }

    #[test]
    fn config_validation() {
        let model = model6();
        // Gap in stage bounds.
        let bad = EngineConfig::straight(vec![0..2, 3..6], 2, 0.1);
        assert!(PipelineTrainer::new(model.clone(), bad).is_err());
        // Incomplete cover.
        let bad = EngineConfig::straight(vec![0..2, 2..5], 2, 0.1);
        assert!(PipelineTrainer::new(model.clone(), bad).is_err());
        // Zero replicas.
        #[allow(clippy::single_range_in_vec_init)] // one stage covering 0..6
        let mut bad = EngineConfig::straight(vec![0..6], 2, 0.1);
        bad.replication = vec![0];
        assert!(PipelineTrainer::new(model.clone(), bad).is_err());
        // Zero receive timeout would make every wait fail immediately.
        let mut bad = EngineConfig::straight(vec![0..2, 2..4, 4..6], 2, 0.1);
        bad.recv_timeout = Duration::ZERO;
        assert!(PipelineTrainer::new(model.clone(), bad).is_err());
        // Batch not divisible by micro-batches.
        #[allow(clippy::single_range_in_vec_init)] // one stage covering 0..6
        let cfg = EngineConfig::straight(vec![0..6], 5, 0.1);
        let trainer = PipelineTrainer::new(model, cfg).unwrap();
        let (x, t) = data::regression_batch(24, 5, 3, 1);
        assert!(trainer.step_grads(&x, &t).is_err());
    }

    /// Softmax cross-entropy through the pipeline matches the sequential
    /// reference, and pipelined classification training reduces the loss.
    #[test]
    fn softmax_pipeline_matches_reference_and_trains() {
        use crate::loss::LossKind;
        let dims = [6usize, 16, 16, 12, 8, 6, 4];
        let model = MlpModel::new(&dims, 21);
        // One-hot classification targets from a deterministic rule.
        let (x, _) = data::regression_batch(24, 6, 4, 31);
        let mut t = crate::tensor::Tensor::zeros(24, 4);
        for r in 0..24 {
            let c = (x.row(r)[0].abs() * 37.0) as usize % 4;
            t.data[r * 4 + c] = 1.0;
        }
        let (ref_loss, ref_grads) = model.reference_grads_loss(&x, &t, 4, LossKind::SoftmaxXent);
        let mut cfg = EngineConfig::straight(vec![0..2, 2..4, 4..6], 4, 0.5);
        cfg.replication = vec![2, 1, 1];
        cfg.schedule = Schedule::Dapple(KPolicy::PB);
        cfg.loss = LossKind::SoftmaxXent;
        let mut trainer = PipelineTrainer::new(model, cfg).unwrap();
        let (loss, grads) = trainer.step_grads(&x, &t).unwrap();
        assert!((loss - ref_loss).abs() < 1e-4 * ref_loss.max(1e-3));
        grads_close(&grads, &ref_grads, 2e-4);
        // And training actually learns the labels.
        let mut sgd = Optimizer::sgd(0.5);
        let first = train(&mut trainer, &x, &t, &mut sgd);
        let mut last = first;
        for _ in 0..300 {
            last = train(&mut trainer, &x, &t, &mut sgd);
        }
        assert!(last < 0.6 * first, "{first} -> {last}");
    }

    /// Adam on pipeline gradients converges faster than plain SGD here.
    #[test]
    fn pipeline_with_adam_optimizer() {
        let dims = [5usize, 16, 16, 3];
        let (x, t) = data::regression_batch(32, 5, 3, 17);
        let cfg = EngineConfig::straight(vec![0..1, 1..3], 4, 0.05);
        let mut sgd_pipe = PipelineTrainer::new(MlpModel::new(&dims, 5), cfg.clone()).unwrap();
        let mut adam_pipe = PipelineTrainer::new(MlpModel::new(&dims, 5), cfg).unwrap();
        let mut sgd = Optimizer::sgd(0.05);
        let mut adam = Optimizer::adam(0.02, &adam_pipe.model);
        let mut sgd_last = 0.0;
        let mut adam_last = 0.0;
        for _ in 0..60 {
            sgd_last = train(&mut sgd_pipe, &x, &t, &mut sgd);
            adam_last = train(&mut adam_pipe, &x, &t, &mut adam);
        }
        assert!(adam_last < sgd_last, "adam {adam_last} vs sgd {sgd_last}");
    }

    /// A genuine worker bug (here: a shape fault in the loss computation)
    /// must surface as a structured `WorkerPanicked` error — not a panic
    /// in the coordinator, and never a hang.
    #[test]
    fn worker_fault_is_reported_not_propagated() {
        // Last stage's layer output width (3) will not match the target
        // width (2), so its loss computation asserts during Bw(0) while
        // other workers are mid-schedule.
        let model = model6();
        let cfg = EngineConfig::straight(vec![0..2, 2..4, 4..6], 4, 0.1);
        let trainer = PipelineTrainer::new(model, cfg).unwrap();
        let (x, _) = data::regression_batch(24, 5, 3, 9);
        let bad_t = crate::tensor::Tensor::zeros(24, 2);
        match trainer.step_grads(&x, &bad_t) {
            Err(DappleError::WorkerPanicked { stage, .. }) => assert_eq!(stage, 2),
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    /// An injected panic is reported with its payload and coordinates,
    /// and the trainer remains usable for a clean step afterwards.
    #[test]
    fn injected_panic_is_structured_and_recoverable() {
        let model = model6();
        let cfg = EngineConfig::straight(vec![0..2, 2..4, 4..6], 4, 0.1);
        let trainer = PipelineTrainer::new(model, cfg).unwrap();
        let (x, t) = data::regression_batch(24, 5, 3, 9);
        let plan = FaultPlan::new().with_fault(1, 0, 2, FaultKind::Panic);
        match trainer.step_with_trace(&x, &t, &plan).0 {
            Err(DappleError::WorkerPanicked {
                stage,
                replica,
                message,
            }) => {
                assert_eq!((stage, replica), (1, 0));
                assert!(message.contains("injected panic"), "{message}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        // The model was not touched; a clean step still works.
        trainer.step_grads(&x, &t).unwrap();
    }

    /// An empty fault plan repairs nothing, and the convenience entry
    /// point returns the step's own bits.
    #[test]
    fn empty_fault_plan_is_bit_identical() {
        let model = model6();
        let cfg = EngineConfig::straight(vec![0..2, 2..4, 4..6], 4, 0.1);
        let trainer = PipelineTrainer::new(model, cfg).unwrap();
        let (x, t) = data::regression_batch(24, 5, 3, 9);
        let (loss_a, grads_a) = trainer.step_grads(&x, &t).unwrap();
        let out = trainer
            .step_with_trace(&x, &t, &FaultPlan::new())
            .0
            .unwrap();
        assert_eq!(loss_a.to_bits(), out.loss.to_bits());
        for (a, b) in grads_a.iter().zip(&out.grads) {
            for (sa, sb) in a.segments().into_iter().zip(b.segments()) {
                assert!(sa.iter().zip(sb).all(|(p, q)| p.to_bits() == q.to_bits()));
            }
        }
    }

    /// Regression for the matmul zero-skip bug: NaN weights combined
    /// with all-zero activations used to produce finite (silently wrong)
    /// gradients, because `0 * NaN` was skipped instead of evaluated.
    /// The poison must propagate through the pipeline and trip the
    /// per-micro-batch gradient check as a structured NonFinite error.
    #[test]
    fn nan_weights_reach_gradient_check_through_zero_activations() {
        let mut model = model6();
        // Poison one weight in stage 1. With an all-zero input batch,
        // every activation entering stage 1 is exactly 0.0, so the only
        // way the poison can surface is through 0 * NaN = NaN.
        let layer = &model.layers[2];
        let mut w = layer.weights();
        w.data[0] = f32::NAN;
        model.layers[2] = Dense::from_weights(w, layer.b.clone(), layer.act).unwrap();
        let cfg = EngineConfig::straight(vec![0..2, 2..4, 4..6], 4, 0.1);
        let trainer = PipelineTrainer::new(model, cfg).unwrap();
        let x = Tensor::zeros(24, 5);
        let t = Tensor::zeros(24, 3);
        match trainer.step_grads(&x, &t) {
            Err(DappleError::NonFinite { stage, .. }) => {
                assert!(stage >= 1, "poison detected upstream of injection: {stage}")
            }
            other => panic!("NaN must reach the gradient check, got {other:?}"),
        }
    }

    /// Micro-batch slice not divisible by a stage's replication.
    #[test]
    fn uneven_replica_splits_match_reference() {
        // mb = 6 rows over r = 5 replicas: rows split 2,1,1,1,1. The
        // gradients must still equal the sequential reference (every row
        // processed exactly once; accumulation order is row-major).
        let model = model6();
        let (x, t) = data::regression_batch(24, 5, 3, 2);
        let (_, ref_grads) = model.reference_grads(&x, &t, 4);
        let mut cfg = EngineConfig::straight(vec![0..3, 3..6], 4, 0.1);
        cfg.replication = vec![5, 1];
        cfg.schedule = Schedule::GPipe;
        let trainer = PipelineTrainer::new(model, cfg).unwrap();
        let (_, grads) = trainer.step_grads(&x, &t).unwrap();
        grads_close(&grads, &ref_grads, 2e-4);
    }

    #[test]
    fn replication_beyond_micro_batch_rows_is_rejected() {
        // A replica with zero rows would contribute nothing and receive
        // nothing: r > mb stays a configuration error.
        let model = model6();
        let mut cfg = EngineConfig::straight(vec![0..3, 3..6], 4, 0.1);
        cfg.replication = vec![7, 1];
        cfg.schedule = Schedule::GPipe;
        let trainer = PipelineTrainer::new(model, cfg).unwrap();
        let (x, t) = data::regression_batch(24, 5, 3, 2); // mb = 6 < r = 7
        assert!(trainer.step_grads(&x, &t).is_err());
    }

    /// A config of `s` near-equal stages of [`model6`]'s six layers.
    fn cfg_of(replication: &[usize], m: usize, schedule: Schedule) -> EngineConfig {
        let s = replication.len();
        let mut cfg =
            EngineConfig::straight((0..s).map(|i| 6 * i / s..6 * (i + 1) / s).collect(), m, 0.1);
        (cfg.replication, cfg.schedule) = (replication.to_vec(), schedule);
        cfg
    }

    /// Replays `orders` with one token per op on `mb`-row micro-batches: a
    /// thread runs its next op once that op is its own worker's next — a
    /// worker placed on that thread — and its inputs from every neighbour
    /// replica whose rows overlap its own and, for a reducer's sync, every
    /// peer's hand-off have run. Whether every worker runs all its ops.
    fn replays(
        cfg: &EngineConfig,
        mb: usize,
        p: &Placement,
        orders: &[Vec<(usize, usize)>],
    ) -> bool {
        let rows = |w: usize| rows_of(mb, cfg.replication[p.workers[w].0], p.workers[w].1);
        let mut ran = vec![vec![false; 2 * cfg.micro_batches + 1]; p.workers.len()];
        let (mut done, mut at) = (vec![0; p.workers.len()], vec![0; orders.len()]);
        let mut run = |t: usize| {
            let Some(&(w, k)) = orders[t].get(at[t]) else {
                return false;
            };
            let lane = &p.lanes[w];
            let (Op { slot, after, .. }, sync) = (&lane.ops[k], k + 1 == lane.ops.len());
            let sends =
                |q: &usize| sync || (rows(*q).start < rows(w).end && rows(w).start < rows(*q).end);
            let ready = (lane.resource, done[w]) == (t, k)
                && after.clone().filter(sends).all(|q| ran[q][*slot]);
            if ready {
                (ran[w][*slot], done[w], at[t]) = (true, k + 1, at[t] + 1);
            }
            ready
        };
        while (0..orders.len()).any(&mut run) {}
        let all = |w: usize| done[w] == p.lanes[w].ops.len();
        at.iter().zip(orders).all(|(&a, order)| a == order.len()) && (0..p.workers.len()).all(all)
    }

    /// `f` over every placement of every small pipeline at every thread
    /// count: one to four stages in four replication patterns, at 1, 2,
    /// 3, 5 and 8 micro-batches, under every schedule and in-flight bound.
    fn placement_sweep(mut f: impl FnMut(&str, &EngineConfig, usize, Placement)) {
        let macs = layer_macs(&model6());
        let schedules = [
            Schedule::GPipe,
            Schedule::Dapple(KPolicy::PA),
            Schedule::Dapple(KPolicy::PB),
        ];
        for s in 1..=4 {
            let patterns = [
                vec![1; s],
                vec![2; s],
                (1..=s).map(|i| 1 + i % 3).collect(),
                (0..s).map(|i| 3 - i % 3).collect(),
            ];
            for (replication, m, schedule, d) in patterns.iter().flat_map(|r| {
                [1, 2, 3, 5, 8].into_iter().flat_map(move |m| {
                    schedules
                        .into_iter()
                        .flat_map(move |sc| [1, 2, usize::MAX].map(|d| (r, m, sc, d)))
                })
            }) {
                let mut cfg = cfg_of(replication, m, schedule);
                cfg.max_in_flight = d;
                for threads in 1..=replication.iter().sum() {
                    let ctx = format!("{replication:?} m={m} {schedule} d={d} on {threads}");
                    f(&ctx, &cfg, threads, Placement::new(&cfg, &macs, threads));
                }
            }
        }
    }

    /// Every placement of the sweep gives each thread exactly its workers'
    /// scripts, each in script order and followed by one sync, and
    /// replays to the end on either row split. The replay has teeth: each
    /// worker's script run back to back instead deadlocks it somewhere in
    /// the sweep.
    #[test]
    fn every_thread_order_is_a_deadlock_free_interleave_of_its_scripts() {
        let mut back_to_back_stuck = 0;
        placement_sweep(|ctx, cfg, threads, p| {
            assert_eq!(p.orders.len(), threads, "{ctx}");
            assert!(
                [3, 5].iter().all(|&mb| replays(cfg, mb, &p, &p.orders)),
                "{ctx}"
            );
            let back_to_back: Vec<Vec<(usize, usize)>> = (0..threads)
                .map(|t| {
                    (0..p.workers.len())
                        .filter(|&w| p.lanes[w].resource == t)
                        .flat_map(|w| (0..p.lanes[w].ops.len()).map(move |k| (w, k)))
                        .collect()
                })
                .collect();
            back_to_back_stuck += usize::from(!replays(cfg, 3, &p, &back_to_back));
        });
        assert!(
            back_to_back_stuck > 0,
            "the replay never caught a back-to-back order"
        );
    }

    /// Every placement of the sweep — each worker's thread and each
    /// thread's order — as one FNV-1a digest. A change that moves it
    /// changes which thread runs what when, though never a bit of the
    /// step (`bits_are_identical_at_every_thread_count`).
    #[test]
    fn placements_match_their_golden_digest() {
        let mut words: Vec<u64> = Vec::new();
        placement_sweep(|_, _, _, p| {
            words.push(p.orders.len() as u64);
            words.extend(p.lanes.iter().map(|lane| lane.resource as u64));
            for order in &p.orders {
                words.push(order.len() as u64);
                words.extend(order.iter().flat_map(|&(w, k)| [w as u64, k as u64]));
            }
        });
        let digest = (words.iter().flat_map(|w| w.to_le_bytes()))
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            });
        assert_eq!(digest, 8_810_375_036_857_401_051);
    }

    /// Loss and gradients are bit-identical at every thread count —
    /// straight, replicated and mixed pipelines, every schedule, with and
    /// without re-computation — on a trainer's first step and on its
    /// second, which reuses every buffer.
    #[test]
    fn bits_are_identical_at_every_thread_count() {
        let (x, t) = data::regression_batch(24, 5, 3, 9);
        let schedules = [
            Schedule::GPipe,
            Schedule::Dapple(KPolicy::PA),
            Schedule::Dapple(KPolicy::PB),
        ];
        for replication in [vec![1, 1, 1, 1], vec![2, 2], vec![3, 1], vec![1, 2, 1]] {
            for (schedule, recompute) in schedules
                .into_iter()
                .flat_map(|sc| [false, true].map(|rc| (sc, rc)))
            {
                let mut cfg = cfg_of(&replication, 4, schedule);
                cfg.recompute = recompute;
                let bits = |threads: usize| -> Vec<u32> {
                    let trainer = PipelineTrainer::with_threads(model6(), cfg.clone(), threads);
                    assert_eq!(trainer.threads().len(), threads);
                    let mut bits = Vec::new();
                    for _ in 0..2 {
                        let out = trainer
                            .step_with_trace(&x, &t, &FaultPlan::new())
                            .0
                            .unwrap();
                        let grads = out.grads.iter().flat_map(|g| g.segments().concat());
                        bits.extend(std::iter::once(out.loss).chain(grads).map(f32::to_bits));
                    }
                    bits
                };
                let one = bits(1);
                for threads in 2..=replication.iter().sum() {
                    let ctx = format!("{replication:?} {schedule} rc={recompute}");
                    assert_eq!(bits(threads), one, "{ctx} on {threads}");
                }
            }
        }
    }

    /// The benchmark's four shapes as it writes them: name, dims (`input
    /// -> width x hidden -> output`), config and micro-batch rows.
    fn benchmark_shapes() -> [(&'static str, Vec<usize>, EngineConfig, usize); 4] {
        // Dims, stages of equal depth, replicas per stage, batch, micro-batches.
        let shapes = [
            ("overhead_narrow", [32, 64, 7, 16], 4, 1, 128, 16),
            ("compute_wide", [64, 512, 5, 32], 3, 1, 512, 8),
            ("recovery_adam", [64, 768, 5, 32], 3, 1, 64, 4),
            ("sync_hybrid", [64, 768, 5, 32], 2, 2, 64, 4),
        ];
        shapes.map(|(name, [input, width, hidden, output], s, r, batch, m)| {
            let bounds = (0..s).map(|i| (hidden + 1) * i / s..(hidden + 1) * (i + 1) / s);
            let mut cfg = EngineConfig::straight(bounds.collect(), m, 0.1);
            cfg.replication = vec![r; s];
            let dims = [vec![input], vec![width; hidden], vec![output]].concat();
            (name, dims, cfg, batch / m)
        })
    }

    /// On two threads the benchmark's four shapes split as their stages'
    /// multiply-adds say: the heavier pair of the narrow stack's four
    /// stages together, the wide stacks' heavy middle stage alone, and
    /// each of the hybrid's replica pairs across both threads.
    #[test]
    fn two_threads_place_the_benchmark_shapes_by_cost() {
        // Per shape, each worker's thread in spawn order.
        let threads: [&[usize]; 4] = [&[0, 0, 1, 1], &[1, 0, 1], &[1, 0, 1], &[0, 1, 0, 1]];
        for ((name, dims, cfg, _), threads) in benchmark_shapes().into_iter().zip(threads) {
            let macs: Vec<usize> = dims.windows(2).map(|d| d[0] * d[1]).collect();
            let lanes = Placement::new(&cfg, &macs, 2).lanes;
            let thread_of: Vec<usize> = lanes.iter().map(|lane| lane.resource).collect();
            assert_eq!(thread_of, threads, "{name}");
        }
    }

    /// One clean step's loss and gradient bits.
    fn step_bits(trainer: &PipelineTrainer, x: &Tensor, t: &Tensor) -> Vec<u32> {
        let (loss, grads) = trainer.step_grads(x, t).unwrap();
        let grads = grads.iter().flat_map(|g| g.segments().concat());
        [loss].into_iter().chain(grads).map(f32::to_bits).collect()
    }

    /// A panic that escapes a round's task outside any op, on either
    /// thread, is re-raised on the caller once the round is over; the
    /// pool survives it, and the next step's bits are the first step's.
    #[test]
    fn a_panic_outside_an_op_is_re_raised_and_the_pool_survives() {
        let (x, t) = data::regression_batch(24, 5, 3, 9);
        let cfg = cfg_of(&[1, 2, 1], 4, Schedule::GPipe);
        let trainer = PipelineTrainer::with_threads(model6(), cfg, 2);
        let clean = step_bits(&trainer, &x, &t);
        for on in [0, 1] {
            let round = |thread| assert_ne!(thread, on, "escaped");
            let escaped = std::panic::catch_unwind(|| rayon::round(2, &round));
            let payload = escaped.expect_err("re-raised");
            assert!(payload
                .downcast_ref::<String>()
                .unwrap()
                .contains("escaped"));
            assert_eq!(step_bits(&trainer, &x, &t), clean, "after a panic on {on}");
        }
    }

    /// Trainers on two and three threads step at once from as many
    /// threads, so their rounds borrow more helpers than the pool holds;
    /// each finishes with its own one-thread bits.
    #[test]
    fn concurrent_trainers_each_keep_their_bits() {
        let (x, t) = data::regression_batch(24, 5, 3, 9);
        let shapes = [(vec![1, 1, 1, 1], 2), (vec![1, 2, 1], 3), (vec![2, 2], 3)];
        let trainers = shapes.map(|(replication, threads)| {
            let cfg = cfg_of(&replication, 4, Schedule::Dapple(KPolicy::PA));
            let many = PipelineTrainer::with_threads(model6(), cfg.clone(), threads);
            let one = PipelineTrainer::with_threads(model6(), cfg, 1);
            (many, step_bits(&one, &x, &t))
        });
        std::thread::scope(|s| {
            for (trainer, one) in &trainers {
                let (x, t) = (&x, &t);
                s.spawn(move || (0..100).for_each(|_| assert_eq!(&step_bits(trainer, x, t), one)));
            }
        });
    }
}
