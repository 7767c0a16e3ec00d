//! # dapple-engine
//!
//! A real multi-threaded CPU training engine that executes DAPPLE and
//! GPipe pipeline schedules on actual tensors — the executable counterpart
//! of the DAPPLE runtime (§V).
//!
//! Where [`dapple-sim`](dapple_sim) *models* schedules analytically, this
//! crate *runs* them: stage workers are OS threads connected by `mpsc`
//! channels, micro-batch activations and gradients really flow across
//! stage boundaries (with split/concat for replicated stages, Fig. 9),
//! per-stage gradients really accumulate across micro-batches (Fig. 10),
//! and replicas really synchronize: their gradients are summed in place,
//! in the ring AllReduce's order, by
//! [`dapple-collectives`](dapple_collectives)' shared-memory reduce.
//!
//! The paper's central convergence claim — "all the pipeline latency
//! optimizations give equivalent gradients when keeping global batch size
//! fixed" — is verified here end-to-end: the pipelined gradients equal the
//! sequential full-batch gradients within floating-point reassociation
//! tolerance, for every schedule, partition, replication factor and
//! re-computation setting (see `pipeline::tests` and the workspace
//! integration tests).

// `unsafe` is allowed at three sites: the SIMD tiles of [`tensor`], the
// `f32`-slice-as-bytes view in `checkpoint::append_f32s`, and the lifetime
// erasure of a step's borrowed task in `gang::Gang::run`.
#![deny(unsafe_code)]

pub mod checkpoint;
pub mod data;
pub mod fault;
mod gang;
pub mod layer;
pub mod loss;
pub mod model;
pub mod optim;
pub mod pipeline;
pub mod recovery;
pub mod runlog;
#[allow(unsafe_code)]
pub mod tensor;
pub mod trace;

pub use checkpoint::{Partition, StateView, TrainState};
pub use fault::{FaultKind, FaultPlan};
pub use layer::{tanh, Activation, Dense};
pub use loss::LossKind;
pub use model::{MlpModel, StepStats};
pub use optim::Optimizer;
pub use pipeline::{EngineConfig, PipelineTrainer, StepGrads, StepOutcome};
pub use recovery::{
    DataStream, FaultClass, RecoveryEvent, RecoveryEventKind, RecoveryMetrics, Replanner,
    RetryPolicy, Supervisor, TrainLoop,
};
pub use runlog::RunRecorder;
pub use tensor::{PackedRhs, Rhs, Tensor};
pub use trace::{
    RecoveryStepMetrics, Span, SpanKind, SpanLog, StageMetrics, StepMetrics, StepTrace, WorkerTrace,
};
