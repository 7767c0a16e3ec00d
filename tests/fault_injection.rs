//! Exhaustive fault-matrix coverage of the pipeline runtime.
//!
//! Every fault kind is injected at every `(stage, step)` coordinate of a
//! 3-stage / 4-micro-batch pipeline. Each injection must surface as a
//! structured [`DappleError`] — promptly, never as a hang or an abort —
//! and the trainer must complete a clean training step immediately
//! afterwards (the failed step leaves the model untouched).
//!
//! A stall delays its whole thread, and a worker on another thread sees it
//! as `Stalled`. When every worker shares one thread (a one-core host:
//! `taskset -c 0`) nobody is left to see it: the stalled step succeeds,
//! bit-identical to a clean one, after at least the stall.

use dapple::engine::{
    data, EngineConfig, FaultKind, FaultPlan, MlpModel, Optimizer, PipelineTrainer, StepOutcome,
    Tensor,
};
use dapple::sim::schedule::{stage_order, step_index_of, Step};
use dapple::sim::{KPolicy, Schedule};
use dapple_core::DappleError;
use std::time::{Duration, Instant};

const STAGES: usize = 3;
const MICRO: usize = 4;
const RECV_TIMEOUT: Duration = Duration::from_millis(100);
/// Long enough that every waiter times out before the stalled worker
/// resumes, with margin for a waiter that is scheduled late.
const STALL: Duration = Duration::from_millis(500);

fn model6() -> MlpModel {
    MlpModel::new(&[5, 12, 10, 8, 8, 4, 3], 77)
}

fn cfg() -> EngineConfig {
    let mut cfg = EngineConfig::straight(vec![0..2, 2..4, 4..6], MICRO, 0.1);
    cfg.recv_timeout = RECV_TIMEOUT;
    cfg
}

/// One step under `plan` (tracing is off, so there is no trace to keep).
fn step(
    trainer: &PipelineTrainer,
    x: &Tensor,
    t: &Tensor,
    plan: &FaultPlan,
) -> Result<StepOutcome, DappleError> {
    trainer.step_with_trace(x, t, plan).0
}

/// Loss and gradients of one clean step, as bits.
fn clean_step_bits(trainer: &PipelineTrainer, x: &Tensor, t: &Tensor) -> Vec<u32> {
    bits(&step(trainer, x, t, &FaultPlan::new()).expect("clean step"))
}

/// Loss and gradients of a step, as bits.
fn bits(out: &StepOutcome) -> Vec<u32> {
    std::iter::once(out.loss.to_bits())
        .chain(
            out.grads
                .iter()
                .flat_map(|g| g.segments().concat())
                .map(f32::to_bits),
        )
        .collect()
}

/// Whether `step` on `stage` sends a boundary message (forwards go
/// downstream except from the last stage; backwards go upstream except
/// from the first) — mirrors the plan-validation rule.
fn sends_message(step: Step, stage: usize) -> bool {
    match step {
        Step::Fw(_) => stage + 1 < STAGES,
        Step::Bw(_) => stage > 0,
    }
}

/// Whether a fault kind at a script position can have an observable
/// effect; unobservable injections must be rejected by plan validation.
fn observable(kind: FaultKind, script: &[Step], stage: usize, idx: usize) -> bool {
    match kind {
        FaultKind::DropMessage | FaultKind::DuplicateMessage => sends_message(script[idx], stage),
        FaultKind::Stall(_) => script[idx..].iter().any(|&s| sends_message(s, stage)),
        FaultKind::Panic | FaultKind::NanGradient => true,
    }
}

#[test]
fn fault_matrix_is_structured_prompt_and_recoverable() {
    let schedule = Schedule::Dapple(KPolicy::PA);
    let kinds = [
        FaultKind::Stall(STALL),
        FaultKind::DropMessage,
        FaultKind::DuplicateMessage,
        FaultKind::Panic,
        FaultKind::NanGradient,
    ];
    let mut trainer = PipelineTrainer::new(model6(), cfg()).unwrap();
    let (x, t) = data::regression_batch(24, 5, 3, 9);

    for kind in kinds {
        for stage in 0..STAGES {
            let script = stage_order(schedule, stage, STAGES, MICRO, usize::MAX);
            for idx in 0..script.len() {
                let plan = FaultPlan::new().with_fault(stage, 0, idx, kind);
                let started = Instant::now();
                let result = step(&trainer, &x, &t, &plan);
                let elapsed = started.elapsed();
                assert!(
                    elapsed < Duration::from_secs(5),
                    "{kind:?} at stage {stage} step {idx} took {elapsed:?}"
                );

                let ctx = format!("{kind:?} at stage {stage} step {idx} ({:?})", script[idx]);
                let stall =
                    observable(kind, &script, stage, idx) && matches!(kind, FaultKind::Stall(_));
                if stall && trainer.threads().len() == 1 {
                    let slow = bits(&result.expect(&ctx));
                    assert!(elapsed >= STALL, "{ctx}: took {elapsed:?}");
                    assert_eq!(slow, clean_step_bits(&trainer, &x, &t), "{ctx}");
                    continue;
                }
                let err = result.expect_err(&format!("{ctx} must fail"));
                if !observable(kind, &script, stage, idx) {
                    assert!(
                        matches!(err, DappleError::InvalidConfig(_)),
                        "{ctx}: unobservable point must be rejected, got {err:?}"
                    );
                    continue;
                }
                match kind {
                    FaultKind::Stall(_) => assert!(
                        matches!(err, DappleError::Stalled { .. }),
                        "{ctx}: got {err:?}"
                    ),
                    // The starved peer times out: the coordinator holds
                    // every sender, so its inbox never disconnects, and its
                    // stall outranks the stop it posts to the others.
                    FaultKind::DropMessage => assert!(
                        matches!(err, DappleError::Stalled { .. }),
                        "{ctx}: got {err:?}"
                    ),
                    FaultKind::DuplicateMessage => assert!(
                        matches!(err, DappleError::ChannelProtocol { .. }),
                        "{ctx}: got {err:?}"
                    ),
                    FaultKind::Panic => match &err {
                        DappleError::WorkerPanicked {
                            stage: st,
                            replica,
                            message,
                        } => {
                            assert_eq!((*st, *replica), (stage, 0), "{ctx}");
                            assert!(message.contains("injected panic"), "{ctx}: {message}");
                        }
                        other => panic!("{ctx}: got {other:?}"),
                    },
                    FaultKind::NanGradient => assert!(
                        matches!(err, DappleError::NonFinite { .. }),
                        "{ctx}: got {err:?}"
                    ),
                }

                // The failed step must not have corrupted the trainer: a
                // clean step right after succeeds and moves the model.
                let out =
                    step(&trainer, &x, &t, &FaultPlan::new()).expect("clean step after fault");
                assert!(out.loss.is_finite(), "{ctx}: clean loss non-finite");
                Optimizer::sgd(0.1).step(&mut trainer.model, &out.grads);
            }
        }
    }
}

/// On a straight pipeline nobody waits for a failure, at the *default*
/// 5 s `recv_timeout`. A duplicate of the last message a worker sends in
/// a direction reaches its receiver after that worker's last receive: the
/// coordinator finds it once the workers are joined and reports the
/// receiving worker's coordinates. A panic or a poisoned micro-batch at
/// any script position of any stage posts the stop to every worker's
/// inbox, so a waiting neighbour leaves at once.
#[test]
fn failures_on_a_straight_pipeline_are_seen_without_a_wait() {
    let config = EngineConfig::straight(vec![0..2, 2..4, 4..6], MICRO, 0.1);
    assert_eq!(config.recv_timeout, Duration::from_secs(5));
    let trainer = PipelineTrainer::new(model6(), config).unwrap();
    let (x, t) = data::regression_batch(24, 5, 3, 9);
    let schedule = Schedule::Dapple(KPolicy::PA);
    let timed = |plan: FaultPlan| {
        let started = Instant::now();
        let err = step(&trainer, &x, &t, &plan).unwrap_err();
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(1),
            "{plan:?} took {elapsed:?}"
        );
        err
    };
    for (stage, last_send) in [(0, Step::Fw(MICRO - 1)), (2, Step::Bw(MICRO - 1))] {
        let idx = step_index_of(schedule, stage, STAGES, MICRO, usize::MAX, last_send).unwrap();
        let err = timed(FaultPlan::new().with_fault(stage, 0, idx, FaultKind::DuplicateMessage));
        let receiver = matches!(&err, DappleError::ChannelProtocol { stage: 1, replica: 0, detail }
            if detail.contains("trailing message"));
        assert!(receiver, "{last_send:?} from stage {stage}: got {err:?}");
    }
    for stage in 0..STAGES {
        for idx in 0..stage_order(schedule, stage, STAGES, MICRO, usize::MAX).len() {
            let ctx = format!("at stage {stage} step {idx}");
            let err = timed(FaultPlan::new().with_fault(stage, 0, idx, FaultKind::Panic));
            let at = matches!(err, DappleError::WorkerPanicked { stage: s, replica: 0, .. } if s == stage);
            assert!(at, "Panic {ctx}: got {err:?}");
            let err = timed(FaultPlan::new().with_fault(stage, 0, idx, FaultKind::NanGradient));
            assert!(
                matches!(err, DappleError::NonFinite { .. }),
                "NanGradient {ctx}: got {err:?}"
            );
        }
    }
}

/// Trainers on stages `[0..3, 3..6]` at replication `[2, 1]`, `[1, 2]`
/// and `[2, 2]`, at the default 5 s `recv_timeout`.
fn replicated_trainers() -> Vec<PipelineTrainer> {
    let shapes = [vec![2, 1], vec![1, 2], vec![2, 2]];
    (shapes.into_iter())
        .map(|replication| {
            let mut config = EngineConfig::straight(vec![0..3, 3..6], MICRO, 0.1);
            assert_eq!(config.recv_timeout, Duration::from_secs(5));
            config.replication = replication;
            PipelineTrainer::new(model6(), config).unwrap()
        })
        .collect()
}

/// `kind` at every script position of every worker of `trainer`: the
/// plan, its context and the step's error, each returned in under 1 s.
/// Positions where `FaultPlan::validate` rejects `kind` are skipped; the
/// count of the others is returned.
fn each_position_within_a_second(
    trainer: &PipelineTrainer,
    kind: FaultKind,
    mut check: impl FnMut((usize, usize, usize), &str, DappleError),
) -> usize {
    let config = trainer.config();
    let (x, t) = data::regression_batch(24, 5, 3, 9);
    let (stages, mut positions) = (config.replication.len(), 0);
    for (stage, &replicas) in config.replication.iter().enumerate() {
        let script = stage_order(config.schedule, stage, stages, MICRO, usize::MAX);
        for (replica, idx) in (0..replicas).flat_map(|p| (0..script.len()).map(move |k| (p, k))) {
            let plan = FaultPlan::new().with_fault(stage, replica, idx, kind);
            if plan.validate(config).is_err() {
                continue;
            }
            let ctx = format!(
                "{kind:?} at stage {stage} replica {replica} step {idx}, replication {:?}",
                config.replication
            );
            let started = Instant::now();
            let err = step(trainer, &x, &t, &plan).expect_err(&ctx);
            let elapsed = started.elapsed();
            assert!(elapsed < Duration::from_secs(1), "{ctx}: took {elapsed:?}");
            check((stage, replica, idx), &ctx, err);
            positions += 1;
        }
    }
    positions
}

/// On replicated stages too nobody waits for a failure, at the default
/// 5 s `recv_timeout`: a panic or a poisoned micro-batch at any script
/// position of any replica posts the stop to every worker's inbox, so a
/// worker waiting for rows or for its peers' gradients leaves at once,
/// and the step reports the root cause.
#[test]
fn failures_on_replicated_stages_are_seen_without_a_wait() {
    let mut positions = 0;
    for trainer in replicated_trainers() {
        positions += each_position_within_a_second(&trainer, FaultKind::Panic, |at, ctx, err| {
            let root = matches!(err, DappleError::WorkerPanicked { stage, replica, .. }
                if (stage, replica) == (at.0, at.1));
            assert!(root, "{ctx}: got {err:?}");
        });
        positions +=
            each_position_within_a_second(&trainer, FaultKind::NanGradient, |_, ctx, err| {
                assert!(
                    matches!(err, DappleError::NonFinite { .. }),
                    "{ctx}: got {err:?}"
                );
            });
    }
    // 3 + 3 + 4 workers, 8 positions each, two kinds.
    assert_eq!(positions, 2 * 10 * 8);
}

/// Rows beyond the schedule are one error wherever they are found — a
/// receive that holds more rows than it takes, rows that arrive while a
/// reducing replica waits for its peers, or rows left after the join: a
/// duplicate at every position plan validation accepts on replicated
/// stages is a `ChannelProtocol` "trailing message".
#[test]
fn a_duplicate_on_replicated_stages_is_one_trailing_message() {
    let mut positions = 0;
    for trainer in replicated_trainers() {
        let kind = FaultKind::DuplicateMessage;
        positions += each_position_within_a_second(&trainer, kind, |_, ctx, err| {
            let trailing = matches!(&err, DappleError::ChannelProtocol { detail, .. }
                if detail.contains("trailing message"));
            assert!(trailing, "{ctx}: got {err:?}");
        });
    }
    // Each worker's four sending positions: the forwards of stage 0 and
    // the backwards of stage 1, on 3 + 3 + 4 workers.
    assert_eq!(positions, 10 * 4);
}

/// The same plan on the same trainer yields the same structured error —
/// fault injection is deterministic, not merely "some error eventually".
#[test]
fn repeated_injection_reproduces_the_same_error() {
    let trainer = PipelineTrainer::new(model6(), cfg()).unwrap();
    let (x, t) = data::regression_batch(24, 5, 3, 9);
    let bw2 = step_index_of(
        Schedule::Dapple(KPolicy::PA),
        1,
        STAGES,
        MICRO,
        usize::MAX,
        Step::Bw(2),
    )
    .unwrap();
    for kind in [FaultKind::Panic, FaultKind::NanGradient] {
        let plan = FaultPlan::new().with_fault(1, 0, bw2, kind);
        let a = step(&trainer, &x, &t, &plan).unwrap_err();
        let b = step(&trainer, &x, &t, &plan).unwrap_err();
        assert_eq!(a, b, "{kind:?} must reproduce identically");
    }
}

/// A contribution poisoned by nothing but overflow *inside* the `dW`
/// chains — every input and every `dz` finite, the case a check of the
/// operands would wave through — fails the step, because the kernels
/// test every value they add. One row of micro-batch 1 carries `3e38` in
/// input column 0, whose weights are zero (so the forward never sees it),
/// and a large `dz` in three output columns, two inside an 8 x 32 tile
/// and one in the scalar tail; everywhere else its `dz` is exactly zero,
/// so those three lanes of `dW` overflow and no other value notices. The
/// premise is checked on public layer ops, per micro-batch.
#[test]
#[allow(clippy::single_range_in_vec_init)] // a one-stage split really is vec![0..1]
fn in_chain_overflow_fails_the_step() {
    use dapple::engine::layer::DenseGrads;
    use dapple::engine::loss::loss_grad_into;
    use dapple::engine::{Dense, LossKind};

    const LANES: [usize; 3] = [0, 5, 33];
    let (rows, mb, poisoned_row) = (8, 4, 5);
    let mut model = MlpModel::new(&[40, 36], 13);
    let seeded = &model.layers[0];
    let mut w = seeded.weights();
    w.data[..36].fill(0.0);
    model.layers[0] = Dense::from_weights(w, seeded.b.clone(), seeded.act).unwrap();
    let layer = model.layers[0].clone();
    let (mut x, mut t) = data::regression_batch(rows, 40, 36, 21);
    x.data[poisoned_row * 40] = 3e38;
    let pred = layer.forward(&x);
    for j in 0..36 {
        let offset = if LANES.contains(&j) { 1e6 } else { 0.0 };
        t.data[poisoned_row * 36 + j] = pred.at(poisoned_row, j) - offset;
    }

    // Per micro-batch: the stored contribution, from layer ops.
    let parts: Vec<DenseGrads> = (0..rows / mb)
        .map(|u| {
            let (xu, tu) = (
                x.slice_rows(u * mb..(u + 1) * mb),
                t.slice_rows(u * mb..(u + 1) * mb),
            );
            let y = layer.forward(&xu);
            let mut dz = Tensor::zeros(mb, 36);
            let loss = loss_grad_into(LossKind::Mse, &y, &tu, rows, &mut dz);
            let (mut dx, mut g) = (Tensor::zeros(mb, 40), DenseGrads::zeros_like(&layer));
            layer.backward_grads_into(&xu, &y, &mut dz, &mut dx, &mut g);
            assert!(
                loss.is_finite() && xu.data.iter().chain(&dz.data).all(|v| v.is_finite()),
                "micro-batch {u}: the operands must look fine"
            );
            g
        })
        .collect();
    let non_finite = |g: &DenseGrads| -> Vec<usize> {
        let flat = g.segments().concat();
        (0..flat.len()).filter(|&i| !flat[i].is_finite()).collect()
    };
    assert!(non_finite(&parts[0]).is_empty());
    assert_eq!(non_finite(&parts[1]), LANES, "row 0 of dW, three lanes");

    let config = EngineConfig::straight(vec![0..1], rows / mb, 0.1);
    let trainer = PipelineTrainer::new(model, config).unwrap();
    assert_eq!(
        step(&trainer, &x, &t, &FaultPlan::new()).unwrap_err(),
        DappleError::NonFinite {
            stage: 0,
            replica: 0,
            micro: 1
        }
    );
}

/// Fault injection composes with stage replication: coordinates select
/// one replica, and the error carries them back.
#[test]
fn faults_target_individual_replicas() {
    let mut config = cfg();
    config.stage_bounds = vec![0..3, 3..6];
    config.replication = vec![2, 1];
    let trainer = PipelineTrainer::new(model6(), config).unwrap();
    let (x, t) = data::regression_batch(24, 5, 3, 9);
    let plan = FaultPlan::new().with_fault(0, 1, 0, FaultKind::Panic);
    match step(&trainer, &x, &t, &plan) {
        Err(DappleError::WorkerPanicked { stage, replica, .. }) => {
            assert_eq!((stage, replica), (0, 1));
        }
        other => panic!("expected WorkerPanicked on replica 1, got {other:?}"),
    }
    // Out-of-range replica is rejected up front.
    let bad = FaultPlan::new().with_fault(1, 1, 0, FaultKind::Panic);
    assert!(matches!(
        step(&trainer, &x, &t, &bad),
        Err(DappleError::InvalidConfig(_))
    ));
}

/// The in-worker gradient rendezvous fails like a boundary channel: a
/// fault at the *last* backward of replica 1 — the step right before it
/// would hand its accumulator to the reducing replica 0 — surfaces as
/// the fault's own structured error within the bounded wait (replica 0
/// neither hangs nor masks the root cause), and the next clean step is
/// bit-identical to a never-faulted trainer's: the persistent
/// accumulators are re-zeroed, and buffers a failed attempt lost are
/// rebuilt.
#[test]
fn faults_before_the_gradient_rendezvous_are_structured_and_leave_nothing_behind() {
    let schedule = Schedule::Dapple(KPolicy::PA);
    let (x, t) = data::regression_batch(24, 5, 3, 9);
    for replication in [vec![2, 1], vec![2, 2]] {
        let mut config = cfg();
        config.stage_bounds = vec![0..3, 3..6];
        config.replication = replication.clone();
        let bits_of = |trainer: &PipelineTrainer| clean_step_bits(trainer, &x, &t);
        let never_faulted = bits_of(&PipelineTrainer::new(model6(), config.clone()).unwrap());
        let trainer = PipelineTrainer::new(model6(), config).unwrap();
        // Warm the persistent buffers, so the faults hit reused ones.
        assert_eq!(bits_of(&trainer), never_faulted);

        for stage in (0..replication.len()).filter(|&s| replication[s] > 1) {
            let script = stage_order(schedule, stage, replication.len(), MICRO, usize::MAX);
            let last = script.len() - 1;
            assert!(matches!(script[last], Step::Bw(_)));
            for kind in [
                FaultKind::Panic,
                FaultKind::Stall(STALL),
                FaultKind::NanGradient,
            ] {
                let ctx =
                    format!("{kind:?} at stage {stage} replica 1, replication {replication:?}");
                let plan = FaultPlan::new().with_fault(stage, 1, last, kind);
                let started = Instant::now();
                let result = step(&trainer, &x, &t, &plan);
                let elapsed = started.elapsed();
                assert!(elapsed < Duration::from_secs(5), "{ctx}: took {elapsed:?}");
                // On one thread an observable stall is a slow clean step.
                if matches!(kind, FaultKind::Stall(_)) && stage > 0 && trainer.threads().len() == 1
                {
                    assert_eq!(bits(&result.expect(&ctx)), never_faulted, "{ctx}");
                    assert!(elapsed >= STALL, "{ctx}: took {elapsed:?}");
                    continue;
                }
                let err = result.expect_err(&ctx);
                match kind {
                    FaultKind::Panic => assert!(
                        matches!(
                            err,
                            DappleError::WorkerPanicked { stage: s, replica: 1, .. } if s == stage
                        ),
                        "{ctx}: got {err:?}"
                    ),
                    FaultKind::NanGradient => assert!(
                        matches!(
                            err,
                            DappleError::NonFinite { stage: s, replica: 1, .. } if s == stage
                        ),
                        "{ctx}: got {err:?}"
                    ),
                    // The first stage's last backward sends no boundary
                    // message, so plan validation rejects a stall there
                    // as unobservable, as it always has.
                    _ if stage == 0 => assert!(
                        matches!(err, DappleError::InvalidConfig(_)),
                        "{ctx}: got {err:?}"
                    ),
                    _ => assert!(
                        matches!(err, DappleError::Stalled { .. }),
                        "{ctx}: got {err:?}"
                    ),
                }
                assert_eq!(bits_of(&trainer), never_faulted, "{ctx}: clean step after");
            }
        }
    }
}

/// A stage first reads its layers' stored `W^T` at its first backward.
/// A fault injected exactly there — a panic, or a poisoned gradient that
/// aborts the step — on a straight pipeline and on replicated stages,
/// leaves nothing behind: the next clean step is bit-identical to a
/// never-faulted trainer's.
#[test]
fn faults_at_the_packing_backward_leave_nothing_behind() {
    let schedule = Schedule::Dapple(KPolicy::PA);
    let (x, t) = data::regression_batch(24, 5, 3, 9);
    for (stage_bounds, replication) in [
        (vec![0..2, 2..4, 4..6], vec![1, 1, 1]),
        (vec![0..3, 3..6], vec![2, 2]),
    ] {
        let mut config = cfg();
        config.stage_bounds = stage_bounds;
        config.replication = replication.clone();
        let stages = replication.len();
        let never_faulted = clean_step_bits(
            &PipelineTrainer::new(model6(), config.clone()).unwrap(),
            &x,
            &t,
        );
        let trainer = PipelineTrainer::new(model6(), config).unwrap();
        // Warm the persistent buffers, so the faults hit reused ones.
        assert_eq!(clean_step_bits(&trainer, &x, &t), never_faulted);
        for stage in 0..stages {
            let first_bw =
                step_index_of(schedule, stage, stages, MICRO, usize::MAX, Step::Bw(0)).unwrap();
            for replica in 0..replication[stage] {
                for kind in [FaultKind::Panic, FaultKind::NanGradient] {
                    let ctx =
                        format!("{kind:?} at stage {stage} replica {replica} of {replication:?}");
                    let plan = FaultPlan::new().with_fault(stage, replica, first_bw, kind);
                    let err = step(&trainer, &x, &t, &plan).expect_err(&ctx);
                    assert!(
                        matches!(
                            err,
                            DappleError::WorkerPanicked { .. } | DappleError::NonFinite { .. }
                        ),
                        "{ctx}: got {err:?}"
                    );
                    assert_eq!(clean_step_bits(&trainer, &x, &t), never_faulted, "{ctx}");
                }
            }
        }
    }
}

/// A step never sees a malformed weight: a layer is built only from a
/// weight tensor whose storage is what its shape says and a bias of its
/// width, and anything else is a structured error where the layer is
/// built, with the numbers in its text. A model of valid layers then
/// trains like any other.
#[test]
fn a_malformed_weight_is_rejected_where_a_layer_is_built() {
    use dapple::engine::{Activation, Dense};
    let malformed = |rows: usize, cols: usize, len: usize| Tensor {
        rows,
        cols,
        data: vec![0.5; len],
    };
    for (w, biases, text) in [
        (
            malformed(256, 256, 256 * 255),
            256,
            "a 256 x 256 weight tensor holding 65280 values, with 256 biases",
        ),
        (
            malformed(1024, 8, 1024 * 8 + 1),
            8,
            "a 1024 x 8 weight tensor holding 8193 values, with 8 biases",
        ),
        (
            malformed(4, 3, 12),
            4,
            "a 4 x 3 weight tensor holding 12 values, with 4 biases",
        ),
    ] {
        match Dense::from_weights(w, vec![0.0; biases], Activation::Tanh) {
            Err(DappleError::InvalidConfig(message)) => {
                assert!(message.contains(text), "{message}")
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }
    let layers = [(16, 256), (256, 8)].map(|(k, m)| {
        let w = malformed(k, m, k * m);
        Dense::from_weights(w, vec![0.0; m], Activation::Tanh).unwrap()
    });
    let model = MlpModel {
        layers: layers.to_vec(),
    };
    let config = EngineConfig::straight(vec![0..1, 1..2], 2, 0.1);
    let trainer = PipelineTrainer::new(model, config).unwrap();
    let (x, t) = data::regression_batch(8, 16, 8, 5);
    trainer
        .step_grads(&x, &t)
        .expect("a step of well-formed layers");
}

/// A model is also built where a checkpoint is restored: a save cut
/// short inside any of its shards is rejected as that shard's
/// `ShardCorrupt`, before a layer is built from it, directly and through
/// a resume.
#[test]
fn a_truncated_checkpoint_shard_is_rejected_where_a_model_is_restored() {
    use dapple::engine::checkpoint::{from_bytes, to_bytes, TrainState};
    use dapple::engine::{Partition, TrainLoop};
    let model = MlpModel::new(&[16, 64, 8], 3);
    let layer_bytes: Vec<usize> = (model.layers.iter())
        .map(|l| 4 + 4 * 3 * l.num_params() + 8)
        .collect();
    let state = TrainState {
        optimizer: Optimizer::adam(0.01, &model),
        model,
        step: 4,
        data_seed: 5,
        data_cursor: 4,
        batch_samples: 8,
    };
    let partition = Partition {
        stage_bounds: vec![0..1, 1..2],
        replication: vec![1, 1],
    };
    let bytes = to_bytes(state.view(), &partition);
    let shards_start = bytes.len() - layer_bytes.iter().sum::<usize>();
    let mut start = shards_start;
    for (shard, len) in layer_bytes.into_iter().enumerate() {
        for cut in [start + 4, start + len / 2, start + len - 1] {
            let short = &bytes[..cut];
            match from_bytes(short) {
                Err(DappleError::ShardCorrupt {
                    shard: s, layer, ..
                }) => {
                    assert_eq!((s, layer), (shard, shard), "cut at {cut}")
                }
                other => panic!("cut at {cut}: expected ShardCorrupt, got {other:?}"),
            }
            let config = EngineConfig::straight(vec![0..1, 1..2], 2, 0.1);
            let resumed = TrainLoop::resume_bytes(short, config);
            assert!(
                matches!(resumed, Err(DappleError::ShardCorrupt { .. })),
                "cut at {cut}"
            );
        }
        start += len;
    }
    assert!(from_bytes(&bytes).is_ok());
}

/// A kernel assertion that fires inside a band of a parallel matmul, on
/// whichever pool thread ran the band, reaches the caller — in the
/// engine, the stage worker and its `WorkerPanicked` — with the kernel's
/// own text, shapes and cause, and the pool serves the next call.
#[test]
fn a_panic_inside_a_parallel_band_keeps_its_message() {
    // 64 rows through a 256 x 256 matrix: 4 Mi multiply-adds, above the
    // kernels' parallel gate, two bands.
    let (x, _) = data::regression_batch(64, 256, 1, 5);
    let (mut w, _) = data::regression_batch(256, 256, 1, 6);
    let mut y = Tensor::zeros(64, 256);
    x.matmul_into(&w, &mut y);
    let intact = (w.clone(), y.clone());
    // Storage shorter than the shape claims: the shape checks at the
    // call pass, each band's own check does not.
    w.data.truncate(256 * 255);
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        x.matmul_into(&w, &mut y);
    }))
    .expect_err("a short right-hand side must not be multiplied");
    let message = payload.downcast_ref::<String>().expect("a formatted panic");
    assert!(
        message.contains("matmul band") && message.contains("256 x 256 needed"),
        "the kernel's text must survive: {message}"
    );
    y.data.fill(f32::NAN);
    x.matmul_into(&intact.0, &mut y);
    assert_eq!(y, intact.1, "the pool must serve the next call");
}

/// Seed matrix over the supervisor: for ≥32 sampled fault plans the
/// supervised loop either recovers completely (transient fault: injected
/// on the first attempt only) or fails with a structured error carrying
/// (stage, replica, step) coordinates (persistent fault: injected on
/// every attempt) — never a panic, never a hang past the stall bound. On
/// one thread a sampled stall fails nothing: the run is a clean one.
#[test]
fn seed_matrix_supervisor_recovers_or_fails_structurally() {
    use dapple::engine::{DataStream, Optimizer, RetryPolicy, Supervisor, TrainLoop};

    let mk_cfg = || {
        let mut c = cfg();
        c.recv_timeout = Duration::from_millis(50);
        c
    };
    // Sampled stalls last 4x recv_timeout; waiters time out at 1x, the
    // stalled worker wakes at 4x, so one faulted attempt is bounded well
    // under a second. 5s leaves a wide margin for loaded CI machines.
    let per_seed_bound = Duration::from_secs(5);
    let one_thread = PipelineTrainer::new(model6(), mk_cfg())
        .unwrap()
        .threads()
        .len()
        == 1;
    let supervised = |seed: u64, policy: RetryPolicy| {
        let stream = DataStream::new(seed, 24, 5, 3);
        let lp = TrainLoop::new(model6(), mk_cfg(), Optimizer::sgd(0.1), stream).unwrap();
        Supervisor::new(lp, policy)
    };

    for seed in 0..32u64 {
        let plan = FaultPlan::sample(seed, 1, &mk_cfg());
        assert!(
            plan.validate(&mk_cfg()).is_ok(),
            "seed {seed}: invalid plan"
        );
        let stall = plan.iter().find_map(|(_, &kind)| match kind {
            FaultKind::Stall(delay) => Some(delay),
            _ => None,
        });
        if let (Some(delay), true) = (stall, one_thread) {
            // Nobody shares a thread with the stall's waiters: every step
            // is a slow clean one, attempt or not.
            let clean = supervised(seed, RetryPolicy::default())
                .run(3, |_, _| FaultPlan::new())
                .unwrap();
            let started = Instant::now();
            let mut sup = supervised(seed, RetryPolicy::default());
            let losses = sup.run(3, |_, _| plan.clone()).unwrap();
            assert!(started.elapsed() >= delay, "seed {seed}: no stall");
            let as_bits = |l: &[f32]| l.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(as_bits(&losses), as_bits(&clean), "seed {seed}");
            assert_eq!(sup.metrics().recoveries, 0, "seed {seed}");
            continue;
        }

        // Transient: the plan fires on the first attempt of step 1 only.
        // The supervisor must absorb it and finish the run.
        let started = Instant::now();
        let mut sup = supervised(seed, RetryPolicy::default());
        let losses = sup
            .run(3, |step, attempt| {
                if step == 1 && attempt == 0 {
                    plan.clone()
                } else {
                    FaultPlan::new()
                }
            })
            .unwrap_or_else(|e| panic!("seed {seed}: transient fault not absorbed: {e}"));
        assert!(losses.iter().all(|l| l.is_finite()), "seed {seed}");
        let m = sup.metrics();
        assert_eq!(m.recoveries, 1, "seed {seed}: recovery not recorded");
        assert!(m.retries >= 1 && m.rollbacks >= 1, "seed {seed}");

        // Persistent: the plan fires on every attempt. The straight
        // pipeline has no replica to shed, so the supervisor must give up
        // with full coordinates after exactly its retry budget.
        let policy = RetryPolicy {
            max_attempts: 2,
            base_backoff_us: 100,
        };
        let mut sup = supervised(seed, policy);
        match sup.run(3, |_, _| plan.clone()) {
            Err(DappleError::RetriesExhausted {
                stage,
                replica,
                step,
                attempts,
                last,
            }) => {
                assert!(stage < STAGES, "seed {seed}: stage {stage}");
                assert_eq!(replica, 0, "seed {seed}");
                assert_eq!(
                    step, 0,
                    "seed {seed}: first step must be the one that fails"
                );
                assert_eq!(attempts, 2, "seed {seed}");
                assert!(
                    !matches!(*last, DappleError::InvalidConfig(_)),
                    "seed {seed}: persistent fault must surface as a runtime error, got {last:?}"
                );
            }
            other => panic!("seed {seed}: expected RetriesExhausted, got {other:?}"),
        }
        assert!(
            started.elapsed() < 2 * per_seed_bound,
            "seed {seed}: took {:?}",
            started.elapsed()
        );
    }
}
