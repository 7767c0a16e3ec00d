//! End-to-end run telemetry: a 100-step engine run with a recorder
//! attached produces a parseable JSONL run log — one JSON object per
//! step with throughput, bubble ratio and recovery costs — plus a
//! registry summary with deterministic percentiles.

mod common;

use common::{field, items, num, parse_json};
use dapple::engine::{
    DataStream, EngineConfig, FaultKind, FaultPlan, MlpModel, Optimizer, RetryPolicy, RunRecorder,
    Supervisor, TrainLoop,
};
use dapple_core::{DeviceId, Plan, StagePlan};
use std::io::Write;
use std::sync::{Arc, Mutex};

const DIMS: [usize; 7] = [5, 12, 10, 8, 8, 4, 3];

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

fn traced_loop() -> TrainLoop {
    let model = MlpModel::new(&DIMS, 41);
    let optimizer = Optimizer::adam(0.01, &model);
    let mut cfg = EngineConfig::straight(vec![0..2, 2..4, 4..6], 4, 0.1);
    cfg.tracing = true;
    TrainLoop::new(model, cfg, optimizer, DataStream::new(11, 24, 5, 3)).unwrap()
}

#[test]
fn hundred_step_run_produces_parseable_jsonl_run_log() {
    let sink = SharedSink::default();
    let mut lp = traced_loop();
    lp.attach_recorder(RunRecorder::new(Box::new(sink.clone())));

    // Supervised run: a retryable fault at step 7 and periodic
    // checkpoints, so the log carries real recovery costs.
    let mut sup = Supervisor::new(lp, RetryPolicy::default()).with_checkpoint_every(25);
    let mut faults = |step: u64, attempt: usize| {
        if step == 7 && attempt == 0 {
            FaultPlan::new().with_fault(1, 0, 2, FaultKind::Panic)
        } else {
            FaultPlan::new()
        }
    };
    let losses = sup.run(100, &mut faults).unwrap();
    assert_eq!(losses.len(), 100);

    let recorder = sup.into_train().take_recorder().expect("recorder survives");
    assert_eq!(recorder.records(), 100);
    assert_eq!(recorder.write_errors(), 0);

    // Registry aggregates line up with the run.
    let summary = recorder.summary_json();
    let obj = parse_json(&summary).unwrap_or_else(|e| panic!("bad summary: {e}\n{summary}"));
    assert_eq!(num(&obj, "steps"), 100.0);
    assert_eq!(num(&obj, "samples"), 2400.0);
    assert!(
        num(&obj, "rollbacks") >= 1.0,
        "the injected fault rolled back"
    );
    let step_hist = field(&obj, "step_ns");
    assert_eq!(num(step_hist, "count"), 100.0);
    assert!(num(step_hist, "p50") > 0.0);
    assert!(num(step_hist, "p99") >= num(step_hist, "p50"));

    // Every line is one parseable JSON object with the per-step fields.
    let bytes = sink.0.lock().unwrap().clone();
    let text = String::from_utf8(bytes).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 100);
    let mut saw_retry = false;
    let mut saw_checkpoint = false;
    for (i, line) in lines.iter().enumerate() {
        let o = &parse_json(line).unwrap_or_else(|e| panic!("line {i} invalid: {e}\n{line}"));
        assert_eq!(num(o, "step"), (i + 1) as f64, "steps in order");
        assert_eq!(num(o, "samples"), 24.0);
        assert!(num(o, "throughput_sps") > 0.0, "line {i}: throughput");
        assert!(num(o, "wall_ns") > 0.0);
        // Tracing is on: schedule metrics are present and sane.
        let bubble = num(o, "bubble_ratio");
        assert!((0.0..=1.0).contains(&bubble), "line {i}: bubble {bubble}");
        assert!(num(o, "makespan_ns") > 0.0);
        assert!(o.get("channel_wait_ns").is_some());
        assert_eq!(items(field(o, "stage_busy_fraction")).len(), 3);
        assert!(o.get("straggler").is_some());
        // Recovery costs: zero on clean steps, recorded where charged.
        if num(o, "retries") > 0.0 {
            saw_retry = true;
        }
        if num(o, "checkpoint_save_ns") > 0.0 {
            saw_checkpoint = true;
        }
        assert!(num(o, "loss").is_finite(), "line {i}: loss");
    }
    assert!(saw_retry, "the injected fault's retry must be logged");
    assert!(saw_checkpoint, "checkpoint save cost must be logged");
}

/// A migration rebuilds the trainer around the live loop, so what the
/// failed attempts before it were charged reaches the log on the step that
/// finally completes, beside the migration's own cost.
#[test]
fn charges_pending_before_a_migration_reach_the_run_log() {
    let sink = SharedSink::default();
    let mut lp = traced_loop();
    lp.attach_recorder(RunRecorder::new(Box::new(sink.clone())));
    let stage = |layers, device| StagePlan::new(layers, vec![DeviceId(device)]);
    let plan = Plan::new(vec![stage(0..2, 0), stage(2..4, 1), stage(4..6, 2)]);
    let replanned = Plan::new(vec![stage(0..3, 0), stage(3..6, 2)]);
    // Stage 1 has no replica to drop: three failed attempts, then migrate.
    let mut sup = Supervisor::new(lp, RetryPolicy::default())
        .with_elastic(plan, 0, move |_| Some(replanned.clone()))
        .unwrap();
    let mut fails = 0;
    let mut faults = |step: u64, _: usize| {
        if step == 1 && fails < 3 {
            fails += 1;
            FaultPlan::new().with_fault(1, 0, 0, FaultKind::Panic)
        } else {
            FaultPlan::new()
        }
    };
    sup.run(3, &mut faults).unwrap();
    assert_eq!(sup.metrics().repartitions, 1);
    drop(sup);
    let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
    let charged: Vec<(f64, bool)> = text
        .lines()
        .map(|l| parse_json(l).unwrap())
        .map(|o| (num(&o, "retries"), num(&o, "migration_ns") > 0.0))
        .collect();
    assert_eq!(charged, [(0.0, false), (3.0, true), (0.0, false)]);
}

/// With tracing off the recorder still logs the always-available
/// scalars, and the trace-derived fields are absent rather than zeroed.
#[test]
fn untraced_run_logs_scalars_only() {
    let sink = SharedSink::default();
    let model = MlpModel::new(&DIMS, 41);
    let optimizer = Optimizer::sgd(0.1);
    let cfg = EngineConfig::straight(vec![0..2, 2..4, 4..6], 4, 0.1);
    let mut lp = TrainLoop::new(model, cfg, optimizer, DataStream::new(11, 24, 5, 3)).unwrap();
    lp.attach_recorder(RunRecorder::new(Box::new(sink.clone())));
    lp.run(5).unwrap();
    let bytes = sink.0.lock().unwrap().clone();
    let text = String::from_utf8(bytes).unwrap();
    assert_eq!(text.lines().count(), 5);
    for line in text.lines() {
        let o = parse_json(line).unwrap();
        assert!(o.get("throughput_sps").is_some());
        assert!(o.get("bubble_ratio").is_none(), "no trace, no bubble");
        assert!(o.get("stage_busy_fraction").is_none());
    }
}
