//! End-to-end recovery guarantees: a failed step mutates nothing,
//! kill-at-step-k resume is bit-exact, retryable faults are survived
//! transparently, degraded mode keeps training when a replica dies, and
//! corrupted checkpoints are always rejected.

use dapple::engine::{
    DataStream, EngineConfig, FaultKind, FaultPlan, MlpModel, Optimizer, PipelineTrainer,
    RecoveryEventKind, RetryPolicy, RunRecorder, Supervisor, TrainLoop,
};
use dapple_core::{DappleError, DeviceId, Plan, StagePlan};
use proptest::prelude::*;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const DIMS: [usize; 7] = [5, 12, 10, 8, 8, 4, 3];
const BATCH: usize = 24;
const TOTAL_STEPS: u64 = 8;

fn cfg() -> EngineConfig {
    EngineConfig::straight(vec![0..2, 2..4, 4..6], 4, 0.1)
}

fn mk_optimizer(idx: usize, model: &MlpModel) -> Optimizer {
    match idx {
        0 => Optimizer::sgd(0.1),
        1 => Optimizer::momentum(0.1, 0.9, model),
        _ => Optimizer::adam(0.01, model),
    }
}

fn mk_loop(opt_idx: usize) -> TrainLoop {
    let model = MlpModel::new(&DIMS, 77);
    let optimizer = mk_optimizer(opt_idx, &model);
    TrainLoop::new(model, cfg(), optimizer, DataStream::new(9, BATCH, 5, 3)).unwrap()
}

/// Every bit of training state a step could disturb: weights, biases,
/// optimizer buffers and Adam's `t`, then the step counter and the data
/// cursor. Compared as bits so `-0.0`/`0.0` and NaN payloads count.
fn state_bits(lp: &TrainLoop) -> (Vec<u32>, u64, u64) {
    let mut bits = Vec::new();
    let mut push = |values: &[f32]| bits.extend(values.iter().map(|v| v.to_bits()));
    for layer in &lp.model().layers {
        push(&layer.weights().data);
        push(&layer.b);
    }
    match lp.optimizer() {
        Optimizer::Sgd { .. } => {}
        Optimizer::Momentum { velocity, .. } => velocity.iter().for_each(|b| push(b)),
        Optimizer::Adam { t, m, v, .. } => {
            m.iter().chain(v).for_each(|b| push(b));
            bits.extend([*t as u32, (*t >> 32) as u32]);
        }
    }
    (bits, lp.step(), lp.data().cursor())
}

/// The invariant the recovery layer rests on instead of a pre-step
/// snapshot: a failed `try_step` has mutated nothing. Sweeps the fault
/// matrix of `tests/fault_injection.rs` — every fault kind at every
/// schedule position of every worker, on a straight pipeline and on one
/// with a replicated stage, under SGD, momentum and Adam — and after
/// each failure demands the pre-step bits back (there is no restore code
/// to put them there), then a clean retry bit-identical to a loop that
/// never faulted. Positions whose fault would be unobservable fail plan
/// validation instead, after the batch was drawn: same demand.
///
/// A stall costs its whole sleep per injection, so it is swept under
/// Adam only, the optimizer with the most state to lose. When every
/// worker shares one thread nobody waits on the stalled one: an
/// observable stall is then a slow step, bit-identical to the clean one.
#[test]
fn faulted_step_mutates_nothing() {
    const RECV_TIMEOUT: Duration = Duration::from_millis(100);
    const STALL: Duration = Duration::from_millis(300);
    let shapes = [
        (vec![0..2, 2..4, 4..6], vec![1, 1, 1]),
        (vec![0..3, 3..6], vec![2, 1]),
    ];
    for (stage_bounds, replication) in &shapes {
        for opt_idx in 0..3 {
            let mk = || {
                let model = MlpModel::new(&DIMS, 77);
                let optimizer = mk_optimizer(opt_idx, &model);
                let mut config = cfg();
                config.stage_bounds = stage_bounds.clone();
                config.replication = replication.clone();
                config.recv_timeout = RECV_TIMEOUT;
                TrainLoop::new(model, config, optimizer, DataStream::new(9, BATCH, 5, 3)).unwrap()
            };
            let (mut lp, mut clean) = (mk(), mk());
            let one_thread = PipelineTrainer::new(MlpModel::new(&DIMS, 77), lp.config().clone())
                .unwrap()
                .threads()
                .len()
                == 1;
            // Optimizer moments are non-trivial before the first fault.
            lp.run(2).unwrap();
            clean.run(2).unwrap();
            let positions = 2 * lp.config().micro_batches;
            let workers: Vec<(usize, usize)> = replication
                .iter()
                .enumerate()
                .flat_map(|(stage, &replicas)| (0..replicas).map(move |replica| (stage, replica)))
                .collect();
            let mut kinds = vec![
                FaultKind::DropMessage,
                FaultKind::DuplicateMessage,
                FaultKind::Panic,
                FaultKind::NanGradient,
            ];
            if opt_idx == 2 {
                kinds.push(FaultKind::Stall(STALL));
            }
            for kind in kinds {
                for &(stage, replica) in &workers {
                    for idx in 0..positions {
                        let ctx = format!(
                            "{kind:?} at stage {stage} replica {replica} step {idx}, \
                             optimizer {opt_idx}, replication {replication:?}"
                        );
                        let before = state_bits(&lp);
                        let plan = FaultPlan::new().with_fault(stage, replica, idx, kind);
                        let started = Instant::now();
                        match lp.try_step(&plan) {
                            Ok(slow) if one_thread && kind == FaultKind::Stall(STALL) => {
                                assert!(started.elapsed() >= STALL, "{ctx}: no stall");
                                let reference = clean.try_step(&FaultPlan::new()).unwrap();
                                assert_eq!(slow.loss.to_bits(), reference.loss.to_bits(), "{ctx}");
                                assert_eq!(state_bits(&lp), state_bits(&clean), "{ctx}");
                                continue;
                            }
                            result => assert!(result.is_err(), "{ctx}: must fail"),
                        }
                        assert_eq!(state_bits(&lp), before, "{ctx}: failed step left a trace");

                        let retried = lp.try_step(&FaultPlan::new()).expect("clean retry");
                        let reference = clean.try_step(&FaultPlan::new()).unwrap();
                        assert_eq!(
                            retried.loss.to_bits(),
                            reference.loss.to_bits(),
                            "{ctx}: retry diverged from the never-faulted run"
                        );
                        assert_eq!(state_bits(&lp), state_bits(&clean), "{ctx}");
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Kill at step k, resume from the saved checkpoint: the remaining loss
    /// trajectory and the final model + optimizer state are bit-identical
    /// to an uninterrupted run — for every optimizer and for k in the
    /// pipeline's warmup, steady and tail phases of the run.
    #[test]
    fn kill_at_step_k_resume_is_bit_identical(
        opt_idx in 0usize..3,
        k in 1u64..TOTAL_STEPS,
    ) {
        // Uninterrupted reference run.
        let mut uninterrupted = mk_loop(opt_idx);
        let ref_losses = uninterrupted.run(TOTAL_STEPS).unwrap();

        // Run to k, "kill" (serialize + drop), resume, finish.
        let mut first = mk_loop(opt_idx);
        let mut losses = first.run(k).unwrap();
        let bytes = first.save_bytes();
        drop(first);
        let mut resumed = TrainLoop::resume_bytes(&bytes, cfg()).unwrap();
        prop_assert_eq!(resumed.step(), k);
        losses.extend(resumed.run(TOTAL_STEPS - k).unwrap());

        prop_assert_eq!(losses.len(), ref_losses.len());
        for (i, (a, b)) in losses.iter().zip(&ref_losses).enumerate() {
            prop_assert_eq!(
                a.to_bits(), b.to_bits(),
                "loss diverged at step {} (kill at {}): {} vs {}", i, k, a, b
            );
        }
        prop_assert_eq!(resumed.model(), uninterrupted.model());
        prop_assert_eq!(resumed.optimizer(), uninterrupted.optimizer());
        prop_assert_eq!(resumed.data().cursor(), uninterrupted.data().cursor());
    }

    /// Any single-byte corruption of a checkpoint `save_bytes` wrote —
    /// any offset, any non-identity XOR mask — is rejected by
    /// `resume_bytes` with a structured error (`InvalidConfig` for the
    /// header, `ShardCorrupt` for a payload): never a panic, never a
    /// silently-wrong model.
    #[test]
    fn corrupted_saved_checkpoint_is_always_rejected(
        opt_idx in 0usize..3,
        pos_seed in 0u64..1_000_000_007,
        mask in 1u8..=255,
    ) {
        let mut lp = mk_loop(opt_idx);
        lp.run(2).unwrap();
        let mut bytes = lp.save_bytes();
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= mask;
        match TrainLoop::resume_bytes(&bytes, cfg()) {
            Err(DappleError::InvalidConfig(_) | DappleError::ShardCorrupt { .. }) => {}
            Err(other) => prop_assert!(
                false, "byte {} ^ {:#04x}: wrong error kind {:?}", pos, mask, other
            ),
            Ok(_) => prop_assert!(
                false, "byte {} ^ {:#04x}: corruption accepted", pos, mask
            ),
        }
    }
}

/// Kill-and-resume through actual files, exercising `save(path)` and
/// `resume(path)` (the checkpoint surface CI smoke-tests).
#[test]
fn kill_and_resume_via_file_round_trip() {
    let dir = std::env::temp_dir().join(format!("dapple-recovery-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for opt_idx in 0..3 {
        let path = dir.join(format!("ckpt-{opt_idx}.dapl"));
        let mut reference = mk_loop(opt_idx);
        let ref_losses = reference.run(6).unwrap();

        let mut first = mk_loop(opt_idx);
        // A save over an existing checkpoint replaces it whole.
        first.save(&path).unwrap();
        let mut losses = first.run(3).unwrap();
        first.save(&path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), first.save_bytes());
        drop(first);
        let mut resumed = TrainLoop::resume(&path, cfg()).unwrap();
        losses.extend(resumed.run(3).unwrap());

        assert_eq!(losses.len(), ref_losses.len());
        for (a, b) in losses.iter().zip(&ref_losses) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(resumed.model(), reference.model());
    }
    // Publishing is atomic: exactly the published files, no `*.tmp`.
    let mut names: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(names, ["ckpt-0.dapl", "ckpt-1.dapl", "ckpt-2.dapl"]);
    std::fs::remove_dir_all(&dir).ok();
}

/// A retryable injected fault is survived transparently: the supervised
/// run's losses and final weights are bit-equal to a fault-free run, and
/// the step's `StepMetrics` record the retry and rollback cost.
#[test]
fn retryable_fault_is_survived_transparently() {
    let mk_sup = || {
        let model = MlpModel::new(&DIMS, 77);
        let optimizer = Optimizer::adam(0.01, &model);
        let mut config = cfg();
        config.tracing = true;
        let lp = TrainLoop::new(model, config, optimizer, DataStream::new(9, BATCH, 5, 3)).unwrap();
        Supervisor::new(lp, RetryPolicy::default())
    };

    let mut clean = mk_sup();
    let mut faulted = mk_sup();
    let mut clean_losses = Vec::new();
    let mut fault_losses = Vec::new();
    for step in 0..5u64 {
        clean_losses.push(clean.step_with(&mut |_, _| FaultPlan::new()).unwrap().loss);
        let mut faults = |s: u64, attempt: usize| {
            if s == 2 && attempt == 0 {
                FaultPlan::new().with_fault(1, 0, 3, FaultKind::Panic)
            } else {
                FaultPlan::new()
            }
        };
        fault_losses.push(faulted.step_with(&mut faults).unwrap().loss);
        let metrics = faulted.last_step_metrics().expect("tracing is on");
        if step == 2 {
            assert_eq!(metrics.recovery.retries, 1, "retry must be recorded");
            // The count, not the duration: a cursor rewind can time as 0 ns.
            assert_eq!(faulted.metrics().rollbacks, 1, "rollback recorded");
        } else {
            assert_eq!(metrics.recovery.retries, 0);
        }
    }

    for (a, b) in fault_losses.iter().zip(&clean_losses) {
        assert_eq!(a.to_bits(), b.to_bits(), "trajectory must be unchanged");
    }
    assert_eq!(faulted.train().model(), clean.train().model());
    assert_eq!(faulted.train().optimizer(), clean.train().optimizer());

    let m = faulted.metrics();
    assert_eq!(m.retries, 1);
    assert_eq!(m.rollbacks, 1);
    assert_eq!(m.recoveries, 1);
    assert!(m.mttr_virtual_us > 0.0);
    assert_eq!(clean.metrics().retries, 0);
}

/// A persistently-failing replica is dropped and training continues in
/// degraded mode: the reconfiguration is recorded, the surviving replica
/// re-shards the rows, and the loss trajectory matches an unreplicated
/// run to within floating-point reassociation.
#[test]
fn degraded_mode_drops_replica_and_continues() {
    let model = MlpModel::new(&DIMS, 77);
    let mut config = cfg();
    config.stage_bounds = vec![0..3, 3..6];
    config.replication = vec![2, 1];
    let lp = TrainLoop::new(
        model.clone(),
        config,
        Optimizer::sgd(0.1),
        DataStream::new(9, BATCH, 5, 3),
    )
    .unwrap();
    let policy = RetryPolicy {
        max_attempts: 2,
        base_backoff_us: 100,
    };
    let mut sup = Supervisor::new(lp, policy);

    // Replica 1 of stage 0 fails persistently (a machine died for good).
    let mut faults = |_: u64, _: usize| FaultPlan::new().with_fault(0, 1, 0, FaultKind::Panic);
    let losses = sup
        .run(4, &mut faults)
        .expect("degraded mode must carry on");
    assert_eq!(losses.len(), 4);
    assert!(losses.iter().all(|l| l.is_finite()));

    // The reconfiguration happened and was recorded.
    assert_eq!(sup.train().config().replication, vec![1, 1]);
    let drop_events: Vec<_> = sup
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            RecoveryEventKind::ReplicaDropped {
                stage,
                replica,
                survivors,
            } => Some((e.step, stage, replica, survivors)),
            _ => None,
        })
        .collect();
    assert_eq!(drop_events, vec![(0, 0, 1, 1)]);
    assert_eq!(sup.metrics().replica_drops, 1);

    // Degraded training is still synchronous training: the trajectory
    // matches an unreplicated pipeline up to gradient reassociation.
    let mut unreplicated_cfg = cfg();
    unreplicated_cfg.stage_bounds = vec![0..3, 3..6];
    unreplicated_cfg.replication = vec![1, 1];
    let mut reference = TrainLoop::new(
        model,
        unreplicated_cfg,
        Optimizer::sgd(0.1),
        DataStream::new(9, BATCH, 5, 3),
    )
    .unwrap();
    let ref_losses = reference.run(4).unwrap();
    for (a, b) in losses.iter().zip(&ref_losses) {
        assert!(
            (a - b).abs() <= 1e-5 * b.abs().max(1.0),
            "degraded trajectory diverged: {a} vs {b}"
        );
    }
}

/// Checkpoint-every + restore round-trips through the supervisor: after
/// restoring, replaying the same steps reproduces the same losses.
#[test]
fn supervisor_checkpoint_restore_replays_identically() {
    let lp = mk_loop(2);
    let mut sup = Supervisor::new(lp, RetryPolicy::default()).with_checkpoint_every(2);
    let losses = sup.run(4, |_, _| FaultPlan::new()).unwrap();
    assert_eq!(sup.train().step(), 4);
    // Last checkpoint was taken at step 4.
    sup.restore_last_checkpoint().unwrap();
    assert_eq!(sup.train().step(), 4);
    // Roll further: restore the same position by replaying the one file
    // the supervisor holds — zero or two files are not a checkpoint.
    let chain = sup.checkpoint_chain().to_vec();
    assert_eq!(chain.len(), 1, "a checkpoint is one self-contained file");
    for not_one in [&[][..], &[chain[0].clone(), chain[0].clone()][..]] {
        assert!(matches!(
            TrainLoop::resume_chain(not_one, cfg()).err(),
            Some(DappleError::InvalidConfig(_))
        ));
    }
    let mut replay = TrainLoop::resume_chain(&chain, cfg()).unwrap();
    assert_eq!(replay.step(), 4);
    let more = replay.run(2).unwrap();
    let mut continued = sup.into_train();
    let direct = continued.run(2).unwrap();
    assert_eq!(more.len(), direct.len());
    for (a, b) in more.iter().zip(&direct) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert!(losses.iter().all(|l| l.is_finite()));
}

/// Builds a straight plan: one device per stage.
fn straight_plan(bounds: &[std::ops::Range<usize>], devices: &[u32]) -> Plan {
    Plan::new(
        bounds
            .iter()
            .zip(devices)
            .map(|(layers, &d)| StagePlan {
                layers: layers.clone(),
                devices: vec![DeviceId(d)],
            })
            .collect(),
    )
}

/// The tentpole guarantee: a stage with no replica to drop exhausts its
/// retries, the supervisor re-plans over the survivors, migrates through
/// a checkpoint — and the whole trajectory (losses AND final weights)
/// is bit-equal to a run that never faulted. A straight-pipeline
/// repartition only moves stage boundaries; per-layer compute and the
/// micro-batch accumulation order are untouched, so bit-exactness is the
/// hard, testable bar.
#[test]
fn elastic_migration_after_exhausted_stage_is_bit_exact() {
    // Unfaulted reference: the original 3-stage pipeline, start to end.
    let mut reference = mk_loop(2);
    let ref_losses = reference.run(TOTAL_STEPS).unwrap();

    let lp = mk_loop(2);
    let policy = RetryPolicy {
        max_attempts: 2,
        base_backoff_us: 100,
    };
    let plan = straight_plan(&[0..2, 2..4, 4..6], &[0, 1, 2]);
    // Scripted planner: device 1 died, so the survivors must be 0 and 2;
    // re-balance the six layers across them as a 2-stage pipeline.
    let replanner = |survivors: &[DeviceId]| {
        assert_eq!(survivors, &[DeviceId(0), DeviceId(2)]);
        Some(straight_plan(&[0..3, 3..6], &[0, 2]))
    };
    let mut sup = Supervisor::new(lp, policy)
        .with_elastic(plan, 0, replanner)
        .unwrap();

    // The device behind stage 1 dies at step 2 and stays dead until the
    // supervisor routes around it (two failed attempts = exhaustion).
    let mut fails = 0u32;
    let mut faults = move |step: u64, _attempt: usize| {
        if step == 2 && fails < 2 {
            fails += 1;
            FaultPlan::new().with_fault(1, 0, 0, FaultKind::Panic)
        } else {
            FaultPlan::new()
        }
    };
    let losses = sup
        .run(TOTAL_STEPS, &mut faults)
        .expect("migration carries on");

    // The pipeline was rebuilt in the re-planned 2-stage shape.
    assert_eq!(sup.train().config().stage_bounds, vec![0..3, 3..6]);
    assert_eq!(sup.train().config().replication, vec![1, 1]);
    assert_eq!(
        sup.current_plan().unwrap(),
        &straight_plan(&[0..3, 3..6], &[0, 2])
    );
    let m = sup.metrics();
    assert_eq!(m.repartitions, 1);
    assert!(m.migration_us > 0, "migration cost must be recorded");
    let migration_events: Vec<_> = sup
        .events()
        .iter()
        .filter_map(|e| match &e.kind {
            RecoveryEventKind::Repartitioned {
                old_plan,
                new_plan,
                migration_us,
            } => Some((e.step, old_plan.clone(), new_plan.clone(), *migration_us)),
            _ => None,
        })
        .collect();
    assert_eq!(migration_events.len(), 1);
    let (at_step, old_plan, new_plan, _) = &migration_events[0];
    assert_eq!(*at_step, 2);
    assert_eq!(old_plan, &straight_plan(&[0..2, 2..4, 4..6], &[0, 1, 2]));
    assert_eq!(new_plan, &straight_plan(&[0..3, 3..6], &[0, 2]));
    let json = sup.events_json();
    assert!(json.contains("\"kind\": \"repartitioned\""));
    // The live state moved: nothing was serialized or parsed on the way.
    assert!(!json.contains("\"kind\": \"checkpoint_"));

    // Bit-exact: same losses, same weights, same optimizer moments.
    assert_eq!(losses.len(), ref_losses.len());
    for (i, (a, b)) in losses.iter().zip(&ref_losses).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "loss diverged at step {i}: {a} vs {b}"
        );
    }
    let migrated = sup.into_train();
    assert_eq!(migrated.model(), reference.model());
    assert_eq!(migrated.optimizer(), reference.optimizer());
    assert_eq!(migrated.data().cursor(), reference.data().cursor());
}

/// A `Write` sink the test can read back after the recorder is dropped.
#[derive(Clone, Default)]
struct SharedSink(Arc<Mutex<Vec<u8>>>);

impl Write for SharedSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The escalation ladder pays off: after a replica of the heavy stage
/// dies, degraded mode survives but staggers; the post-migration
/// re-balanced pipeline has a cheaper critical stage. Cost is counted,
/// not timed: the critical stage's multiply-adds per row (its max across
/// stages is what bounds the steady-state pipelined step), so no host's
/// clock or load can flip the verdict.
#[test]
fn migrated_pipeline_beats_degraded_throughput() {
    const WIDE: [usize; 7] = [32, 192, 192, 192, 192, 192, 16];
    const OBSERVE: u64 = 5;
    let model = MlpModel::new(&WIDE, 21);
    let optimizer = Optimizer::sgd(0.05);
    let mut config = EngineConfig::straight(vec![0..5, 5..6], 2, 0.05);
    config.replication = vec![2, 1];
    config.recv_timeout = Duration::from_secs(5);
    let lp = TrainLoop::new(model, config, optimizer, DataStream::new(3, 64, 32, 16)).unwrap();
    let policy = RetryPolicy {
        max_attempts: 2,
        base_backoff_us: 100,
    };
    // Stage 0 spans devices 0 and 1; stage 1 runs on device 2.
    let plan = Plan::new(vec![
        StagePlan {
            layers: 0..5,
            devices: vec![DeviceId(0), DeviceId(1)],
        },
        StagePlan {
            layers: 5..6,
            devices: vec![DeviceId(2)],
        },
    ]);
    // The planner re-balances the survivors into an even 2-stage split.
    let replanner = |survivors: &[DeviceId]| {
        assert_eq!(survivors, &[DeviceId(0), DeviceId(2)]);
        Some(straight_plan(&[0..3, 3..6], &[0, 2]))
    };
    let sink = SharedSink::default();
    let mut lp = lp;
    lp.attach_recorder(RunRecorder::new(Box::new(sink.clone())));
    let mut sup = Supervisor::new(lp, policy)
        .with_elastic(plan, OBSERVE, replanner)
        .unwrap();

    // Replica 1 of stage 0 dies for good at step 0; injection points on
    // the dead replica are pruned once the shape changes.
    let mut faults = |_: u64, _: usize| FaultPlan::new().with_fault(0, 1, 0, FaultKind::Panic);

    // The critical stage of the current shape: the largest sum, over a
    // stage's layers, of a layer's `in × out` multiply-adds per row.
    let critical_macs = |sup: &Supervisor| -> usize {
        let stages = sup.train().config().stage_bounds.iter();
        let macs = |b: &std::ops::Range<usize>| {
            WIDE[b.start..=b.end].windows(2).map(|d| d[0] * d[1]).sum()
        };
        stages.map(macs).max().unwrap()
    };

    // Step 0 absorbs the failure + drop. Then OBSERVE degraded steps run,
    // the migration lands on the last of them, and the re-planned steps
    // run.
    sup.step_with(&mut faults).expect("degrades and carries on");
    assert_eq!(sup.train().config().replication, vec![1, 1]);
    assert_eq!(sup.train().config().stage_bounds, vec![0..5, 5..6]);
    // Layers 0..5: 32·192 + 4·192·192.
    let degraded = critical_macs(&sup);
    assert_eq!(degraded, 153_600);
    for _ in 0..OBSERVE {
        sup.step_with(&mut faults).unwrap();
    }
    // The scheduled migration landed on the last observed step.
    assert_eq!(sup.metrics().repartitions, 1);
    assert_eq!(sup.train().config().stage_bounds, vec![0..3, 3..6]);
    for _ in 0..OBSERVE {
        sup.step_with(&mut faults).unwrap();
    }
    // Layers 0..3: 32·192 + 2·192·192, against 2·192·192 + 192·16.
    let migrated = critical_macs(&sup);
    assert_eq!(migrated, 79_872);
    assert!(
        migrated < degraded,
        "re-planned pipeline must beat the degraded one: \
         critical stage {migrated} vs {degraded} multiply-adds per row"
    );

    // The run log carries the migration cost on the step it landed.
    drop(sup);
    let log = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
    let migration_lines: Vec<&str> = log
        .lines()
        .filter(|l| l.contains("\"migration_ns\":") && !l.contains("\"migration_ns\":0"))
        .collect();
    assert_eq!(
        migration_lines.len(),
        1,
        "exactly one step should be charged migration time:\n{log}"
    );
}

/// Regression: a prime micro-batch row count used to collapse a
/// replicated stage straight to one replica on the first failure
/// (nothing below r divides 7 evenly). Survivors now re-shard unevenly:
/// 3 replicas degrade to 2, splitting 7 rows 4 + 3.
#[test]
fn prime_micro_batch_rows_drop_one_replica_not_all() {
    const PRIME_BATCH: usize = 28; // 4 micro-batches of 7 rows
    let model = MlpModel::new(&DIMS, 77);
    let mut config = cfg();
    config.stage_bounds = vec![0..3, 3..6];
    config.replication = vec![3, 1];
    let lp = TrainLoop::new(
        model.clone(),
        config,
        Optimizer::sgd(0.1),
        DataStream::new(9, PRIME_BATCH, 5, 3),
    )
    .unwrap();
    let policy = RetryPolicy {
        max_attempts: 2,
        base_backoff_us: 100,
    };
    let mut sup = Supervisor::new(lp, policy);
    let mut faults = |_: u64, _: usize| FaultPlan::new().with_fault(0, 2, 0, FaultKind::Panic);
    let losses = sup.run(4, &mut faults).expect("keeps both survivors");
    assert!(losses.iter().all(|l| l.is_finite()));
    assert_eq!(
        sup.train().config().replication,
        vec![2, 1],
        "must drop exactly one replica, not collapse to 1"
    );
    let drops: Vec<_> = sup
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            RecoveryEventKind::ReplicaDropped { survivors, .. } => Some(survivors),
            _ => None,
        })
        .collect();
    assert_eq!(drops, vec![2]);

    // Uneven re-sharding is still synchronous training: the trajectory
    // matches an unreplicated run up to gradient reassociation.
    let mut unreplicated_cfg = cfg();
    unreplicated_cfg.stage_bounds = vec![0..3, 3..6];
    unreplicated_cfg.replication = vec![1, 1];
    let mut reference = TrainLoop::new(
        model,
        unreplicated_cfg,
        Optimizer::sgd(0.1),
        DataStream::new(9, PRIME_BATCH, 5, 3),
    )
    .unwrap();
    let ref_losses = reference.run(4).unwrap();
    for (a, b) in losses.iter().zip(&ref_losses) {
        assert!(
            (a - b).abs() <= 1e-5 * b.abs().max(1.0),
            "uneven-shard trajectory diverged: {a} vs {b}"
        );
    }
}

/// Restoring a checkpoint does not resurrect dead hardware: the file's
/// *state* goes into the shape the supervisor runs now — after a replica
/// drop, and again after the migration that follows it — so the engine
/// config and the elastic plan keep describing the same pipeline.
#[test]
fn restore_after_reconfiguration_keeps_the_live_shape() {
    let mut config = cfg();
    config.stage_bounds = vec![0..3, 3..6];
    config.replication = vec![2, 1];
    let model = MlpModel::new(&DIMS, 77);
    let optimizer = Optimizer::adam(0.01, &model);
    let lp = TrainLoop::new(model, config, optimizer, DataStream::new(9, BATCH, 5, 3)).unwrap();
    let plan = Plan::new(vec![
        StagePlan::new(0..3, vec![DeviceId(0), DeviceId(1)]),
        StagePlan::new(3..6, vec![DeviceId(2)]),
    ]);
    let policy = RetryPolicy {
        max_attempts: 2,
        base_backoff_us: 100,
    };
    let replanner = |_: &[DeviceId]| Some(straight_plan(&[0..2, 2..6], &[0, 2]));
    let mut sup = Supervisor::new(lp, policy)
        .with_checkpoint_every(2)
        .with_elastic(plan, 1, replanner)
        .unwrap();
    // The only save is taken at step 2, in the original 2 + 1 shape; then
    // replica 1 of stage 0 dies for good.
    let mut faults = |step: u64, _: usize| match step {
        0 | 1 => FaultPlan::new(),
        _ => FaultPlan::new().with_fault(0, 1, 0, FaultKind::Panic),
    };
    sup.run(3, &mut faults).unwrap();
    for bounds in [[0..3, 3..6], [0..2, 2..6]] {
        sup.restore_last_checkpoint().unwrap();
        assert_eq!(sup.train().step(), 2);
        let live = sup.train().config();
        assert_eq!(live.stage_bounds, bounds);
        assert_eq!(live.replication, [1, 1]);
        let planned = live.apply_plan(sup.current_plan().unwrap());
        assert_eq!(planned.stage_bounds, live.stage_bounds);
        assert_eq!(planned.replication, live.replication);
        // The replayed step succeeds (the first one lands the migration).
        sup.step_with(&mut faults).unwrap();
    }
    assert_eq!(sup.metrics().repartitions, 1);
}

/// A checkpoint taken while degraded must resume degraded: the file
/// persists the active partition, and both the chain resume and the
/// single-file resume restore the post-drop replication — continuing
/// bit-identically to the supervisor that never stopped.
#[test]
fn checkpoint_taken_degraded_resumes_degraded() {
    let model = MlpModel::new(&DIMS, 77);
    let mut config = cfg();
    config.stage_bounds = vec![0..3, 3..6];
    config.replication = vec![2, 1];
    let lp = TrainLoop::new(
        model,
        config.clone(),
        Optimizer::adam(0.01, &MlpModel::new(&DIMS, 77)),
        DataStream::new(9, BATCH, 5, 3),
    )
    .unwrap();
    let policy = RetryPolicy {
        max_attempts: 2,
        base_backoff_us: 100,
    };
    let mut sup = Supervisor::new(lp, policy).with_checkpoint_every(1);
    let mut faults = |_: u64, _: usize| FaultPlan::new().with_fault(0, 1, 0, FaultKind::Panic);
    sup.run(3, &mut faults).unwrap();
    assert_eq!(sup.train().config().replication, vec![1, 1]);

    // Resume the chain against the ORIGINAL (pre-degrade) config: the
    // checkpointed partition must win.
    let chain = sup.checkpoint_chain().to_vec();
    assert!(!chain.is_empty());
    let resumed = TrainLoop::resume_chain(&chain, config.clone()).unwrap();
    assert_eq!(resumed.config().replication, vec![1, 1]);
    assert_eq!(resumed.config().stage_bounds, vec![0..3, 3..6]);
    // The single full save restores the degraded shape too.
    let single = TrainLoop::resume_bytes(&chain[0], config).unwrap();
    assert_eq!(single.config().replication, vec![1, 1]);

    // And the resumed loop continues exactly like the supervisor's own.
    let mut resumed = resumed;
    let mut continued = sup.into_train();
    assert_eq!(resumed.step(), continued.step());
    let a = resumed.run(2).unwrap();
    let b = continued.run(2).unwrap();
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    assert_eq!(resumed.model(), continued.model());
}
