//! The engine's measured traces: a traced 1F1B run exports a
//! Perfetto-loadable Chrome trace covering every micro-batch on every
//! stage, tracing stays off by default, derived metrics are consistent,
//! and a step that dies mid-flight (injected worker panic) still drains a
//! well-formed partial trace from the surviving workers.

mod common;

use common::{field, items, num, parse_json, text};
use dapple::core::DappleError;
use dapple::engine::{
    data, EngineConfig, FaultKind, FaultPlan, MlpModel, PipelineTrainer, Span, SpanKind, StepTrace,
    Tensor,
};
use dapple::sim::schedule::{indexed_stage_order, Step};
use dapple::sim::{KPolicy, Schedule};
use proptest::prelude::*;

const DIMS: [usize; 7] = [5, 12, 10, 8, 8, 4, 3];
const BATCH: usize = 24;

fn traced_cfg(stage_bounds: Vec<std::ops::Range<usize>>, micro_batches: usize) -> EngineConfig {
    let mut cfg = EngineConfig::straight(stage_bounds, micro_batches, 0.1);
    cfg.tracing = true;
    cfg
}

/// The trace of one clean step on a tracing trainer. Every traced step
/// packs its weights once, before the pipeline: exactly one whole-model
/// `Pack` span, of every layer's `W` and all but the first's `W^T`.
fn traced_step(trainer: &PipelineTrainer, x: &Tensor, t: &Tensor) -> StepTrace {
    let (result, trace) = trainer.step_with_trace(x, t, &FaultPlan::new());
    result.expect("clean step");
    let trace = trace.expect("tracing on");
    let packs: Vec<_> = (trace.coord.iter())
        .filter(|c| c.span.kind == SpanKind::Pack)
        .collect();
    assert_eq!(packs.len(), 1, "one pack per step: {packs:?}");
    let layers = &trainer.model.layers;
    let packed: usize = (layers.iter().enumerate())
        .map(|(l, layer)| layer.w.data.len() * (1 + usize::from(l > 0)))
        .sum();
    assert_eq!(packs[0].stage, None);
    assert_eq!(packs[0].span.bytes, 4 * packed as u64);
    trace
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
    assert!((trace.phase_split().total_us() - m.makespan_ns as f64 / 1e3).abs() < 1e-6);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The simulator's script is the engine's oracle: on any pipeline shape
    /// every worker's forward/backward spans are `indexed_stage_order` for
    /// its stage, each re-computation directly precedes its backward,
    /// nothing is dropped, and across every boundary, in both directions,
    /// the bytes sent and the bytes assembled are the batch's rows times
    /// the boundary's width — every row sent once and received once,
    /// however unevenly the two stages split it.
    #[test]
    fn every_worker_runs_the_simulators_script(
        s in 1usize..5,
        m in 1usize..9,
        replication in proptest::collection::vec(1usize..4, 4),
        schedule in 0usize..3,
        in_flight in 0usize..3,
        recompute in 0usize..2,
    ) {
        let (rows_per_micro, layers) = (5, DIMS.len() - 1);
        let bounds: Vec<_> = (0..s).map(|i| layers * i / s..layers * (i + 1) / s).collect();
        let mut cfg = traced_cfg(bounds.clone(), m);
        cfg.replication = replication[..s].to_vec();
        cfg.schedule =
            [Schedule::GPipe, Schedule::Dapple(KPolicy::PA), Schedule::Dapple(KPolicy::PB)][schedule];
        cfg.max_in_flight = [1, 2, usize::MAX][in_flight];
        cfg.recompute = recompute == 1;
        let trainer = PipelineTrainer::new(MlpModel::new(&DIMS, 7), cfg.clone()).unwrap();
        let (x, t) = data::regression_batch(rows_per_micro * m, DIMS[0], DIMS[layers], 9);
        let trace = traced_step(&trainer, &x, &t);
        prop_assert_eq!(trace.dropped_spans(), 0);
        prop_assert_eq!(trace.workers.len(), cfg.replication.iter().sum::<usize>());

        let is_step = |sp: &&Span| matches!(sp.kind, SpanKind::Fw | SpanKind::Bw);
        // bytes[boundary][backward?][sent?]
        let mut bytes = vec![[[0u64; 2]; 2]; s];
        for w in &trace.workers {
            let script: Vec<(usize, Step)> = w.spans.iter().filter(is_step).map(|sp| match sp.kind {
                SpanKind::Fw => Step::Fw(sp.micro as usize),
                _ => Step::Bw(sp.micro as usize),
            }).enumerate().collect();
            prop_assert_eq!(script, indexed_stage_order(cfg.schedule, w.stage, s, m, cfg.max_in_flight));
            let compute: Vec<&Span> =
                w.spans.iter().filter(|sp| is_step(sp) || sp.kind == SpanKind::Recompute).collect();
            let recomputes = compute.iter().filter(|sp| sp.kind == SpanKind::Recompute).count();
            prop_assert_eq!(recomputes, if cfg.recompute { m } else { 0 });
            for (k, sp) in compute.iter().enumerate().filter(|(_, sp)| sp.kind == SpanKind::Recompute) {
                let next = compute.get(k + 1).map(|bw| (bw.kind, bw.micro));
                prop_assert_eq!(next, Some((SpanKind::Bw, sp.micro)));
            }
            // A send belongs to the step before it, a receive to the one after.
            for (k, sp) in w.spans.iter().enumerate() {
                let (sent, step) = match sp.kind {
                    SpanKind::CommSend => (true, w.spans[..k].iter().rev().find(is_step)),
                    SpanKind::CommRecvWait => (false, w.spans[k..].iter().find(is_step)),
                    _ => continue,
                };
                let backward = step.expect("a comm span belongs to a step").kind == SpanKind::Bw;
                let boundary = if sent != backward { w.stage } else { w.stage - 1 };
                bytes[boundary][usize::from(backward)][usize::from(sent)] += sp.bytes;
            }
        }
        for (b, crossed) in bytes[..s - 1].iter().enumerate() {
            let want = (rows_per_micro * m * DIMS[bounds[b].end] * 4) as u64;
            prop_assert_eq!(crossed, &[[want; 2]; 2], "boundary {}", b);
        }
    }
}
