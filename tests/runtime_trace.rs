//! The engine's measured traces: a traced 1F1B run exports a
//! Perfetto-loadable Chrome trace covering every micro-batch on every
//! stage, tracing stays off by default, derived metrics are consistent,
//! and a step that dies mid-flight (injected worker panic) still drains a
//! well-formed partial trace from the surviving workers.

mod common;

use common::{field, items, num, parse_json, text};
use dapple::core::DappleError;
use dapple::engine::{
    data, EngineConfig, FaultKind, FaultPlan, MlpModel, PipelineTrainer, SpanKind, StepTrace,
    Tensor,
};

const DIMS: [usize; 7] = [5, 12, 10, 8, 8, 4, 3];
const BATCH: usize = 24;

fn traced_cfg(stage_bounds: Vec<std::ops::Range<usize>>, micro_batches: usize) -> EngineConfig {
    let mut cfg = EngineConfig::straight(stage_bounds, micro_batches, 0.1);
    cfg.tracing = true;
    cfg
}

/// The trace of one clean step on a tracing trainer.
fn traced_step(trainer: &PipelineTrainer, x: &Tensor, t: &Tensor) -> StepTrace {
    let (result, trace) = trainer.step_with_trace(x, t, &FaultPlan::new());
    result.expect("clean step");
    trace.expect("tracing on")
}

#[test]
fn tracing_is_off_by_default() {
    let cfg = EngineConfig::straight(vec![0..3, 3..6], 4, 0.1);
    assert!(!cfg.tracing);
    let trainer = PipelineTrainer::new(MlpModel::new(&DIMS, 7), cfg).unwrap();
    let (x, t) = data::regression_batch(BATCH, DIMS[0], *DIMS.last().unwrap(), 9);
    let (result, trace) = trainer.step_with_trace(&x, &t, &FaultPlan::new());
    result.unwrap();
    assert!(trace.is_none(), "no trace without the knob");
}

/// A traced 3-stage, 4-micro-batch run covers every (stage, micro) with
/// forward and backward spans, shows comm on both endpoints, and exports
/// valid Chrome Trace JSON.
#[test]
fn traced_step_exports_complete_parseable_timeline() {
    let trainer = PipelineTrainer::new(
        MlpModel::new(&DIMS, 7),
        traced_cfg(vec![0..2, 2..4, 4..6], 4),
    )
    .unwrap();
    let (x, t) = data::regression_batch(BATCH, DIMS[0], *DIMS.last().unwrap(), 9);
    let trace = traced_step(&trainer, &x, &t);
    assert_eq!(trace.workers.len(), 3);
    assert_eq!(trace.dropped_spans(), 0, "ring must be sized for the step");

    for w in &trace.workers {
        for u in 0..4u32 {
            for kind in [SpanKind::Fw, SpanKind::Bw] {
                assert!(
                    w.spans.iter().any(|s| s.kind == kind && s.micro == u),
                    "stage {} missing {kind:?} micro {u}",
                    w.stage
                );
            }
        }
        // Spans never run backwards, and are recorded in program order.
        for s in &w.spans {
            assert!(s.end_ns >= s.start_ns);
        }
        // Interior stages both wait for input and send output.
        let sends = w
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::CommSend)
            .count();
        let waits = w
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::CommRecvWait)
            .count();
        match w.stage {
            0 => assert!(sends >= 4 && waits == 4, "first stage: fw sends, bw waits"),
            1 => assert!(
                sends >= 8 && waits == 8,
                "middle stage sends+waits both ways"
            ),
            _ => assert!(sends >= 4 && waits == 4, "last stage: bw sends, fw waits"),
        }
        // Comm spans carry the payload size.
        assert!(w
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::CommSend)
            .all(|s| s.bytes > 0));
    }

    // The export is real JSON with the documented row layout.
    let json = trace.to_chrome_trace();
    let root = parse_json(&json).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{json}"));
    let events = items(&root);
    // 3 stages x 4 micro x (Fw + Bw) = 24 compute events at minimum, plus
    // comm spans.
    assert!(events.len() >= 24 + 16, "got {}", events.len());
    for obj in events {
        assert_eq!(text(obj, "ph"), "X");
        assert!(num(obj, "pid") as usize <= 3);
        assert!(field(obj, "args").get("replica").is_some());
    }
    // Comm rows are odd tids; compute rows even.
    assert!(events
        .iter()
        .filter(|o| text(o, "cat") == "comm")
        .all(|o| num(o, "tid") as usize % 2 == 1));

    // Metrics are internally consistent.
    let m = trace.metrics();
    assert!(m.makespan_ns > 0);
    assert!((m.phases.total_us() - m.makespan_ns as f64 / 1e3).abs() < 1e-6);
    for s in &m.stages {
        assert!(s.busy_ns > 0, "every stage computed something");
        assert!(s.busy_fraction > 0.0 && s.busy_fraction <= 1.0);
        assert!((s.bubble_ratio + s.busy_fraction - 1.0).abs() < 1e-12);
    }
}

/// Replicated stages trace each replica on its own rows, and the
/// coordinator's AllReduce span lands on the stage with the payload size.
#[test]
fn replicated_traced_step_records_allreduce() {
    let mut cfg = traced_cfg(vec![0..3, 3..6], 4);
    cfg.replication = vec![2, 1];
    let trainer = PipelineTrainer::new(MlpModel::new(&DIMS, 7), cfg).unwrap();
    let (x, t) = data::regression_batch(BATCH, DIMS[0], *DIMS.last().unwrap(), 9);
    let trace = traced_step(&trainer, &x, &t);
    assert_eq!(trace.workers.len(), 3, "2 + 1 replicas");
    assert!(trace.workers.iter().any(|w| w.stage == 0 && w.replica == 1));
    let ar: Vec<_> = trace
        .coord
        .iter()
        .filter(|c| c.span.kind == SpanKind::AllReduce)
        .collect();
    assert_eq!(ar.len(), 1, "one replicated stage, one AllReduce");
    assert_eq!(ar[0].stage, Some(0));
    assert!(ar[0].span.bytes > 0);
    let json = trace.to_chrome_trace();
    parse_json(&json).unwrap_or_else(|e| panic!("invalid JSON: {e}"));
    // Replica 1's compute row is tid 2; the AllReduce row sits past both
    // replica pairs at tid 4.
    assert!(json.contains(r#""tid":2"#));
    assert!(json.contains(r#""name":"AllReduce","cat":"allreduce","ph":"X""#));
}

/// The replica reduce runs inside the stage's workers, as soon as that
/// stage's last backward retires: on 2 stages x 2 replicas the last
/// stage's AllReduce span starts while stage 0 is still in its backward
/// tail. Exactly one span per replicated stage reaches `trace.coord`,
/// sized to the stage's parameters; an unreplicated pipeline records none.
#[test]
fn replica_reduce_overlaps_the_backward_tail() {
    // A heavy first stage and a one-layer head: stage 0's final backward
    // outlasts the head's rendezvous by a wide margin.
    let dims = [16usize, 128, 128, 128, 128, 4];
    let stage_bounds = vec![0..4, 4..5];
    let model = MlpModel::new(&dims, 7);
    let (x, t) = data::regression_batch(64, dims[0], *dims.last().unwrap(), 9);
    let all_reduces = |trace: &dapple::engine::StepTrace| -> Vec<(Option<usize>, u64, u64)> {
        trace
            .coord
            .iter()
            .filter(|c| c.span.kind == SpanKind::AllReduce)
            .map(|c| (c.stage, c.span.bytes, c.span.start_ns))
            .collect()
    };

    let mut cfg = traced_cfg(stage_bounds.clone(), 4);
    cfg.replication = vec![2, 2];
    let trainer = PipelineTrainer::new(model.clone(), cfg).unwrap();
    let param_bytes = |layers: std::ops::Range<usize>| -> u64 {
        model.layers[layers]
            .iter()
            .map(|l| 4 * l.num_params() as u64)
            .sum()
    };
    // Thread scheduling decides any single step's timeline, so the
    // overlap must show in one of a few steps — without it (a reduce
    // gated on the join of all workers) it can show in none.
    let mut overlapped = false;
    for _ in 0..5 {
        let trace = traced_step(&trainer, &x, &t);
        let ar = all_reduces(&trace);
        assert_eq!(ar.len(), 2, "one AllReduce per replicated stage: {ar:?}");
        for (stage, layers) in stage_bounds.iter().enumerate() {
            assert_eq!(
                (ar[stage].0, ar[stage].1),
                (Some(stage), param_bytes(layers.clone()))
            );
        }
        let stage0_last_bw_end = trace
            .workers
            .iter()
            .filter(|w| w.stage == 0)
            .flat_map(|w| &w.spans)
            .filter(|s| s.kind == SpanKind::Bw)
            .map(|s| s.end_ns)
            .max()
            .expect("stage 0 ran backwards");
        overlapped |= ar[1].2 < stage0_last_bw_end;
    }
    assert!(
        overlapped,
        "the last stage's reduce never started before stage 0's final backward ended"
    );

    let straight = PipelineTrainer::new(model, traced_cfg(stage_bounds, 4)).unwrap();
    assert!(all_reduces(&traced_step(&straight, &x, &t)).is_empty());
}

/// A worker panic mid-step still yields a partial trace: the error
/// surfaces as `WorkerPanicked`, and the spans recorded before the fault
/// — including the whole warmup on the healthy upstream stage — survive.
#[test]
fn faulted_step_drains_partial_trace() {
    let trainer =
        PipelineTrainer::new(MlpModel::new(&DIMS, 7), traced_cfg(vec![0..3, 3..6], 4)).unwrap();
    let (x, t) = data::regression_batch(BATCH, DIMS[0], *DIMS.last().unwrap(), 9);
    // Panic stage 1 at its third scheduled step.
    let faults = FaultPlan::new().with_fault(1, 0, 2, FaultKind::Panic);
    let (result, trace) = trainer.step_with_trace(&x, &t, &faults);
    match result {
        Err(DappleError::WorkerPanicked { stage: 1, .. }) => {}
        other => panic!("expected stage-1 panic, got {other:?}"),
    }
    let trace = trace.expect("partial trace survives the fault");
    // Stage 0 is never told about the fault: its forwards are recorded.
    let stage0 = trace.workers.iter().find(|w| w.stage == 0).unwrap();
    assert!(
        stage0.spans.iter().any(|s| s.kind == SpanKind::Fw),
        "upstream forwards happened before the crash"
    );
    // Stage 1 recorded fewer than a full step's worth of spans but at
    // least its pre-fault work, all well-formed.
    let stage1 = trace.workers.iter().find(|w| w.stage == 1).unwrap();
    assert!(!stage1.spans.is_empty(), "pre-fault spans drained");
    for w in &trace.workers {
        for s in &w.spans {
            assert!(s.end_ns >= s.start_ns);
        }
    }
    // And the partial timeline still exports as valid JSON.
    let json = trace.to_chrome_trace();
    parse_json(&json).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{json}"));
}

/// Metrics derived from a faulted partial trace are NaN-free: a stage
/// whose worker died before recording anything (panic at its very first
/// scheduled step) still reports finite busy-fraction and bubble-ratio.
#[test]
fn faulted_partial_trace_metrics_are_finite() {
    let trainer = PipelineTrainer::new(
        MlpModel::new(&DIMS, 7),
        traced_cfg(vec![0..2, 2..4, 4..6], 4),
    )
    .unwrap();
    let (x, t) = data::regression_batch(BATCH, DIMS[0], *DIMS.last().unwrap(), 9);
    // Kill stage 0 at its first scheduled step: downstream stages spend
    // the step blocked on receives and may record no compute spans.
    let faults = FaultPlan::new().with_fault(0, 0, 0, FaultKind::Panic);
    let (result, trace) = trainer.step_with_trace(&x, &t, &faults);
    assert!(result.is_err(), "fault must surface");
    let m = trace.expect("partial trace survives the fault").metrics();
    assert!(m.bubble_ratio.is_finite());
    assert!((0.0..=1.0).contains(&m.bubble_ratio));
    for s in &m.stages {
        assert!(
            s.busy_fraction.is_finite() && (0.0..=1.0).contains(&s.busy_fraction),
            "stage {}: busy_fraction {} out of range",
            s.stage,
            s.busy_fraction
        );
        assert!(
            s.bubble_ratio.is_finite() && (0.0..=1.0).contains(&s.bubble_ratio),
            "stage {}: bubble_ratio {} out of range",
            s.stage,
            s.bubble_ratio
        );
    }
}
